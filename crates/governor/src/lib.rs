//! # governor — online frequency selection over trained energy models
//!
//! The paper's end goal is to *use* the domain-specific models: pick the
//! energy-optimal frequency for each incoming workload (§5.2.2, Fig. 14).
//! The rest of this workspace trains and evaluates those models offline;
//! this crate closes the loop at run time:
//!
//! * [`registry`] — a versioned, checksummed on-disk model registry over
//!   [`energy_model::artifact`] envelopes and atomic writes: publish a
//!   trained [`energy_model::DomainSpecificModel`], load it back verified,
//!   reject corruption/version skew/stale training fingerprints with typed
//!   errors;
//! * [`serving`] — a batched inference engine: an admission-controlled
//!   bounded request queue in front of a quantized-feature prediction memo
//!   cache (the same design discipline as `gpu_sim::pricing::PriceTable`:
//!   FNV word hashing, a custom map hasher, per-key overflow chains with
//!   full equality verification, and hit/miss/collision counters);
//! * [`policy`] — what to do with a predicted Pareto set: minimize energy
//!   under a per-job deadline, minimize energy-delay product, or hold the
//!   vendor default clock (the baseline every other policy is judged
//!   against);
//! * [`fleet`] — the crate's one job loop: a seeded, deterministic
//!   arrival stream of LiGen ligand-batch and Cronos grid jobs with
//!   per-job deadlines, admitted and served in bursts, placed on
//!   heterogeneous devices (V100s + MI100s) with per-class model
//!   artifacts, per-device FIFO queues with work stealing, and the
//!   campaign circuit breakers so evicted devices drain onto survivors.
//!   Jobs replay on `gpu-sim` devices through the fallible SYnergy
//!   backend path; every decision is recorded, and every failure mode
//!   (model missing, stale artifact, rejected clock request, admission
//!   overflow) degrades to the default clock instead of stopping the run;
//! * [`sim`] — the job stream, the offline training phase, and
//!   [`run_governor`]: the job loop on a one-device plan (the plain
//!   `cronos`/`ligen` artifacts, one execution attempt per job, a
//!   breaker that never trips);
//! * [`lifecycle`] — drift detection, online retraining and canary
//!   publishing, riding on the governor's one-device plan as a hook the
//!   loop calls at admission (canary routing), after each model load
//!   (journaling registry events), after each execution (residuals) and
//!   at each burst end (trips and verdicts);
//! * [`gang`] — gang placement for domain-decomposed jobs: pick the
//!   energy-optimal `(device count, core clock)` point from a
//!   strong-scaling profile under a deadline, then reserve that many
//!   devices for a lockstep window — one decomposed Cronos run holds a
//!   device *set*, not a slot.
//!
//! Everything is deterministic given `(seed, fault plan, policy)`, and
//! armed `governor.*` telemetry leaves measured results bit-identical —
//! the same contracts the sweep engine and campaign layers already hold.

pub mod fleet;
pub mod gang;
pub mod lifecycle;
pub mod policy;
pub mod registry;
pub mod serving;
pub mod sim;

pub use fleet::{
    class_slug, fleet_model_name, run_fleet, train_and_publish_fleet, DeviceReport, FleetConfig,
    FleetDecision, FleetDevice, FleetEvent, FleetReport, Placement, StealPolicy, FLEET_SEED,
};
pub use gang::{choose_gang, reserve_gang, GangChoice, GangPoint, GangProfile, GangReservation};
pub use lifecycle::{
    efficiency_drift, residual_ape, run_lifecycle, DriftConfig, DriftDetector, DriftScenario,
    DriftSummary, ForcedTrip, LifecycleConfig, LifecycleDecision, LifecycleError, LifecycleEvent,
    LifecycleReport, ResidualTracker, ServedChannel,
};
pub use policy::{choose_config, choose_frequency, Policy};
pub use registry::{ModelRegistry, RegistryError, RegistryEvent};
pub use serving::{
    AdmissionError, CacheStats, EngineConfig, LatticeProfile, LatticeServer, PredictedProfile,
    PredictionEngine, PredictionRequest, ServeError,
};
pub use sim::{
    run_governor, train_and_publish, DecisionRecord, FallbackReason, GovernorConfig,
    GovernorReport, ModelFaults,
};
