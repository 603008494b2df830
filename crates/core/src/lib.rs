//! # energy-model — domain-specific DVFS energy/time modeling
//!
//! The primary contribution of *"Domain-Specific Energy Modeling for Drug
//! Discovery and Magnetohydrodynamics Applications"* (SC-W 2023),
//! implemented over the simulated substrates of this workspace:
//!
//! * [`features`] — the two feature spaces: the general-purpose model's
//!   *static code features* (Table 1) extracted from kernel profiles, and
//!   the *domain-specific input features* (Table 2: grid dimensions for
//!   Cronos; #ligands/#fragments/#atoms for LiGen);
//! * [`mod@characterize`] — the frequency-sweep runner producing the
//!   speedup/normalized-energy characterizations of §2–3 (five-repetition
//!   medians, vendor-correct baselines: fixed default clock on NVIDIA,
//!   auto governor on AMD);
//! * [`pareto`] — Pareto-front computation over (speedup, normalized
//!   energy) and the predicted-vs-true Pareto set accuracy metrics of
//!   §5.2.2;
//! * [`microbench`] — the 106-kernel synthetic training suite of the
//!   general-purpose baseline (Fan et al., ICPP'19);
//! * [`gp_model`] — the general-purpose model: Random Forests over
//!   (static features ‖ frequency), trained on the micro-benchmarks;
//! * [`ds_model`] — the domain-specific models: per-application Random
//!   Forests over (input features ‖ frequency) predicting time and energy,
//!   normalized into speedup / normalized energy at prediction time
//!   (Figures 11–12);
//! * [`mod@distributed`] — the strong-scaling sibling of the lattice
//!   sweep: gangs of identical devices run the domain-decomposed Cronos
//!   driver over a (device count × core clock) lattice, pricing halo
//!   exchanges and lockstep barriers so the compute/communication energy
//!   trade-off is measured for the governor's gang placement;
//! * [`artifact`] — versioned, checksummed model artifacts: the envelope
//!   (schema version, content digest, training fingerprint) that lets a
//!   runtime loader reject corrupt or stale models with typed errors
//!   instead of trusting arbitrary JSON;
//! * [`campaign`] — crash-consistent multi-device characterization
//!   campaigns: a write-ahead journal synced at each workload's end
//!   (kill-anywhere resume, bit-identical results, and a power loss
//!   costs only re-measurement), per-device circuit breakers with eviction
//!   and re-scheduling, and deterministic watchdog deadlines;
//! * [`persist`] — the shared crash-consistency primitives: atomic
//!   full-file replacement and the write-ahead replay journal;
//! * [`quarantine`] — the data-quality gate between sweep diagnostics
//!   and training: degraded points are dropped with recorded provenance
//!   instead of silently skewing the models;
//! * [`telemetry`] — the unified observability layer: a typed metrics
//!   registry, a bounded structured-event trace with profiling spans
//!   (sweep → workload → point → launch), and Prometheus / Chrome-trace
//!   exporters — armed telemetry leaves every result bit-identical;
//! * [`workflow`] — the end-to-end training/prediction phases;
//! * [`eval`] — the §5.2 evaluation protocol: leave-one-input-out
//!   cross-validation, per-input MAPE, and Pareto set comparison;
//! * [`per_kernel`] — the paper's future work implemented: per-kernel
//!   domain-specific models and per-kernel frequency plans that drop into
//!   SYnergy's per-kernel scaling.

#![forbid(unsafe_code)]

pub mod artifact;
pub mod campaign;
pub mod characterize;
pub mod distributed;
pub mod ds_model;
pub mod eval;
pub mod features;
pub mod gp_model;
pub mod microbench;
pub mod pareto;
pub mod per_kernel;
pub mod persist;
pub mod quarantine;
pub mod telemetry;
pub mod workflow;

pub use artifact::{
    fnv1a_64, training_fingerprint, ArtifactError, ModelArtifact, ARTIFACT_SCHEMA_VERSION,
};
pub use campaign::{
    run_campaign, BreakerConfig, CampaignConfig, CampaignError, CampaignMetrics, CampaignOutcome,
    DeviceSlot,
};
pub use characterize::{
    characterize, characterize_lattice, characterize_serial, characterize_serial_with_options,
    characterize_with_options, CharPoint, Characterization, LatticeAxes, LatticeCharacterization,
    LatticeDiagnostics, LatticePoint, LatticePointDiagnostics, PointDiagnostics, SweepDiagnostics,
    SweepOptions, Workload,
};
pub use distributed::{
    characterize_distributed, DistributedAxes, DistributedCharacterization, DistributedPoint,
    DistributedSweepOptions,
};
pub use ds_model::{CurvePrediction, DomainSpecificModel};
pub use features::{CronosInput, LigenInput};
pub use gp_model::GeneralPurposeModel;
pub use pareto::pareto_front_indices;
pub use persist::{atomic_write, atomic_write_str, PersistError};
pub use quarantine::{
    quarantine_results, quarantine_sweep, QuarantinePolicy, QuarantineReason, QuarantineReport,
};
pub use telemetry::{MetricsSnapshot, Registry, SpanLevel, Telemetry};
