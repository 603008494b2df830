//! Fleet-scale scheduling, and the crate's one job loop.
//!
//! The paper's online phase makes one decision per job: the
//! energy-optimal clock under a deadline, from the trained models. This
//! module makes that decision for a fleet of simulated V100s and MI100s:
//! per-device FIFO queues with work stealing, a placement policy that
//! picks *(device, clock)* per job from per-device-class model
//! artifacts, and the campaign circuit breakers (Closed → Open →
//! HalfOpen → Evicted) so a dying device drains its queue onto the
//! survivors instead of wedging the run.
//!
//! ## One job loop
//!
//! The burst loop here — admission, serving, placement, dispatch,
//! accounting — is the only job loop in the crate. It runs a private
//! run plan: a [`FleetConfig`], how the plan names its registry
//! artifacts, and an optional drift twin of device 0. [`run_fleet`] runs
//! a fleet as configured. [`crate::sim::run_governor`] runs a one-device
//! plan: the plain `cronos`/`ligen` artifacts, one execution attempt per
//! job, and a breaker that never trips. [`crate::lifecycle::run_lifecycle`]
//! runs that same plan (plus a twin when it injects drift) and layers its
//! state onto the loop through a private hook called at four points:
//!
//! 1. at admission, to pick each job's serve key (the stable app, or
//!    `"<app>#canary"`);
//! 2. after each model load, with the registry events the load surfaced;
//! 3. after each execution that decides a job, to record its residual;
//! 4. at each burst end, to run drift trips and canary verdicts.
//!
//! ## Device affinity
//!
//! Predictions must stay device-faithful: a Cronos model fitted on V100
//! characterization data must never silently price an MI100.
//! [`train_and_publish_fleet`] therefore publishes one artifact per
//! *device class* under `"<app>--<class-slug>"`, each fingerprinted with
//! its own class's sweep, and every class runs its own admission-
//! controlled [`PredictionEngine`]. A job carrying a model-chosen clock
//! that lands — by placement, stealing, or eviction drain — on a class
//! with no matching artifact degrades to the default clock; the
//! degradation is counted in [`DegradationMetrics::affinity_fallbacks`]
//! and journaled.
//! A job that already fell back keeps its reason. A job that lands on a
//! *different* class that does have an artifact is re-priced through
//! that class's engine before it runs, so the clock it executes at
//! always comes from the model of the device that executes it.
//!
//! ## Determinism
//!
//! Every decision is a pure function of `(seed, policies, fault plans)`.
//! Per-device fault streams are split from the shared plan with
//! [`gpu_sim::substream_seed`] — hashed, not offset, so adjacent devices
//! draw statistically independent faults, while device 0 keeps the
//! parent plan. Ticks are dispatch rounds, not wall clock; stealing and
//! eviction drains visit devices in index order; all float comparisons
//! go through `total_cmp`.

// The fleet must degrade, not die: no unwraps on the runtime path.
#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::collections::{BTreeMap, VecDeque};
use std::convert::Infallible;
use std::sync::Arc;

use energy_model::campaign::{BreakerState, SlotState};
use energy_model::telemetry::Telemetry;
use energy_model::workflow::experiment_frequencies;
use energy_model::{training_fingerprint, ArtifactError, BreakerConfig};
use gpu_sim::{Device, DeviceSpec, FaultPlan};
use serde::Serialize;
use synergy::{DegradationMetrics, FrequencyPolicy, SynergyQueue};

use crate::lifecycle::DriftScenario;
use crate::policy::{choose_frequency, Policy};
use crate::registry::{ModelRegistry, RegistryError, RegistryEvent};
use crate::serving::{
    CacheStats, EngineConfig, PredictedProfile, PredictionEngine, PredictionRequest, ServeError,
};
use crate::sim::{
    build_templates, generate_stream, publish_models, DecisionRecord, FallbackReason,
    GovernorConfig, Job, JobTemplate, ModelFaults, GOVERNOR_SEED, STREAM_LOAD_FAIL, STREAM_STALE,
};

/// The pinned fleet seed — shared with the single-device experiments so
/// the pinned fleet run replays the exact job stream the single-device
/// baseline sees.
pub const FLEET_SEED: u64 = GOVERNOR_SEED;

/// Purpose discriminator for per-device fault-plan splitting. Purpose 0
/// keeps device 0 on the parent seed (see [`gpu_sim::substream_seed`]),
/// so a single-device fleet replays the un-split plan bit-for-bit.
const PURPOSE_DEVICE_FAULTS: u64 = 0;

/// One device in the fleet.
#[derive(Debug, Clone)]
pub struct FleetDevice {
    /// Unique display name (e.g. `"v100-0"`).
    pub name: String,
    /// The simulated hardware; devices sharing `spec.name` form a class.
    pub spec: DeviceSpec,
    /// Per-device fault override. `None` splits the run's shared
    /// [`FleetConfig::device_faults`] plan by device index; chaos tests
    /// use `Some` to aim deterministic failures at specific devices.
    pub faults: Option<FaultPlan>,
}

impl FleetDevice {
    /// A device drawing its faults from the shared split plan.
    pub fn new(name: &str, spec: DeviceSpec) -> Self {
        FleetDevice {
            name: name.to_string(),
            spec,
            faults: None,
        }
    }
}

/// How jobs are assigned to devices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Placement {
    /// Cycle over healthy devices; never consult a model (every job runs
    /// at the default clock). The fleet baseline.
    RoundRobin,
    /// Predict every job on every device class, then place it on the
    /// class with the cheapest feasible predicted energy (fastest class
    /// when nothing is feasible), least-loaded device within the class.
    MinPredictedEnergy,
}

impl Placement {
    /// Stable CLI / report name.
    pub fn name(&self) -> &'static str {
        match self {
            Placement::RoundRobin => "round-robin",
            Placement::MinPredictedEnergy => "min-predicted-energy",
        }
    }
}

/// Whether idle devices may steal queued work, and from whom.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum StealPolicy {
    /// Never steal (the single-device differential configuration).
    Disabled,
    /// Steal only from devices of the same class: the stolen job's clock
    /// decision stays valid, so stealing never costs prediction fidelity.
    WithinClass,
    /// Steal from any device; cross-class steals are re-priced through
    /// the thief class's model (or affinity-degraded if it has none).
    Anywhere,
}

impl StealPolicy {
    /// Stable CLI / report name.
    pub fn name(&self) -> &'static str {
        match self {
            StealPolicy::Disabled => "disabled",
            StealPolicy::WithinClass => "within-class",
            StealPolicy::Anywhere => "anywhere",
        }
    }
}

/// Configuration of one fleet run.
#[derive(Clone)]
pub struct FleetConfig {
    /// The devices; `devices[0]`'s class anchors job deadlines.
    pub devices: Vec<FleetDevice>,
    /// Clock-selection policy applied on the placed class's prediction.
    pub policy: Policy,
    /// Device-assignment policy.
    pub placement: Placement,
    /// Work-stealing policy.
    pub steal: StealPolicy,
    /// Number of jobs in the arrival stream.
    pub n_jobs: usize,
    /// Seed of the arrival stream, slack draws, and fault splitting.
    pub seed: u64,
    /// Per-job deadline slack range (anchored on `devices[0]`'s class
    /// default-clock time, exactly as the single-device stream).
    pub slack: (f64, f64),
    /// Safety factor applied to the deadline the policy plans against.
    pub deadline_safety: f64,
    /// Admission queue capacity of each class's serving engine.
    pub queue_capacity: usize,
    /// Maximum requests served per drain call.
    pub max_batch: usize,
    /// Stride thinning the serving-time frequency sweep.
    pub freq_stride: usize,
    /// Stride thinning the training characterization sweep.
    pub train_stride: usize,
    /// Circuit-breaker thresholds (shared by every device slot).
    pub breaker: BreakerConfig,
    /// Execution attempts per job before it is recorded as failed.
    pub max_attempts: u32,
    /// Shared device fault plan, split per device by hashed sub-streams.
    pub device_faults: FaultPlan,
    /// Model-path fault injection (per class loader).
    pub model_faults: ModelFaults,
    /// Optional metrics sink; arming it must not change any result.
    pub telemetry: Option<Arc<Telemetry>>,
}

impl FleetConfig {
    /// The pinned heterogeneous fleet the regression guard runs: two
    /// V100s + two MI100s against the exact pinned single-device stream
    /// (same seed, 40 jobs, same slack and safety), min-energy placement
    /// with class-affine stealing, no faults.
    pub fn pinned() -> Self {
        FleetConfig {
            devices: vec![
                FleetDevice::new("v100-0", DeviceSpec::v100()),
                FleetDevice::new("v100-1", DeviceSpec::v100()),
                FleetDevice::new("mi100-0", DeviceSpec::mi100()),
                FleetDevice::new("mi100-1", DeviceSpec::mi100()),
            ],
            policy: Policy::MinEnergyUnderDeadline,
            placement: Placement::MinPredictedEnergy,
            steal: StealPolicy::WithinClass,
            n_jobs: 40,
            seed: FLEET_SEED,
            slack: (1.15, 1.6),
            deadline_safety: 0.92,
            queue_capacity: 8,
            max_batch: 4,
            freq_stride: 2,
            train_stride: 2,
            breaker: BreakerConfig::default(),
            max_attempts: 5,
            device_faults: FaultPlan::none(),
            model_faults: ModelFaults::none(),
            telemetry: None,
        }
    }

    /// The pinned fleet under the round-robin-at-default-clock baseline.
    pub fn pinned_round_robin() -> Self {
        let mut cfg = FleetConfig::pinned();
        cfg.policy = Policy::DefaultClock;
        cfg.placement = Placement::RoundRobin;
        cfg.steal = StealPolicy::Disabled;
        cfg
    }

    /// A fleet of exactly one device with stealing disabled — the
    /// configuration the differential golden test compares bit-for-bit
    /// against [`crate::sim::run_governor`] (which runs one attempt per
    /// job under a breaker that never trips, so the two part ways only
    /// once launches fail).
    pub fn single(spec: DeviceSpec, policy: Policy) -> Self {
        let mut cfg = FleetConfig::pinned();
        cfg.devices = vec![FleetDevice::new("solo-0", spec)];
        cfg.policy = policy;
        cfg.placement = Placement::MinPredictedEnergy;
        cfg.steal = StealPolicy::Disabled;
        cfg
    }

    /// The [`GovernorConfig`] a single-device run of `class` under this
    /// fleet configuration corresponds to (the differential counterpart).
    pub fn governor_equivalent(&self, spec: DeviceSpec) -> GovernorConfig {
        let mut gov = GovernorConfig::pinned(self.policy);
        gov.spec = spec;
        gov.n_jobs = self.n_jobs;
        gov.seed = self.seed;
        gov.slack = self.slack;
        gov.deadline_safety = self.deadline_safety;
        gov.queue_capacity = self.queue_capacity;
        gov.max_batch = self.max_batch;
        gov.freq_stride = self.freq_stride;
        gov.train_stride = self.train_stride;
        gov.device_faults = self.device_faults.clone();
        gov.model_faults = self.model_faults.clone();
        gov
    }
}

/// Registry slug of a device class: lowercase, non-alphanumerics folded
/// to `-` (e.g. `"NVIDIA V100"` → `"nvidia-v100"`).
pub fn class_slug(class: &str) -> String {
    class
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                '-'
            }
        })
        .collect()
}

/// Registry artifact name of `app`'s model for `class`.
pub fn fleet_model_name(app: &str, class: &str) -> String {
    format!("{app}--{}", class_slug(class))
}

/// The training fingerprint of `spec`'s models, trained on the sweep
/// thinned by `train_stride` under `seed`.
pub(crate) fn class_fingerprint(spec: &DeviceSpec, train_stride: usize, seed: u64) -> u64 {
    let train_freqs = experiment_frequencies(spec, train_stride);
    training_fingerprint(&spec.name, spec.default_core_mhz, &train_freqs, seed)
}

/// The distinct device classes of a fleet, in first-appearance order.
/// `classes[0]` is the reference class that anchors job deadlines.
fn distinct_classes(devices: &[FleetDevice]) -> Vec<DeviceSpec> {
    let mut classes: Vec<DeviceSpec> = Vec::new();
    for d in devices {
        if !classes.iter().any(|c| c.name == d.spec.name) {
            classes.push(d.spec.clone());
        }
    }
    classes
}

/// Characterizes and trains one Cronos + one LiGen model *per device
/// class* in `cfg.devices` and publishes each under
/// `"<app>--<class-slug>"` with its class's training fingerprint.
/// Returns the fingerprint per class name.
pub fn train_and_publish_fleet(
    cfg: &FleetConfig,
    registry: &ModelRegistry,
) -> Result<BTreeMap<String, u64>, RegistryError> {
    let mut fingerprints = BTreeMap::new();
    for spec in distinct_classes(&cfg.devices) {
        let fingerprint = publish_models(&spec, cfg.train_stride, cfg.seed, registry, |app| {
            fleet_model_name(app, &spec.name)
        })?;
        fingerprints.insert(spec.name.clone(), fingerprint);
    }
    Ok(fingerprints)
}

/// One scheduling event in the fleet journal. Everything the metrics
/// claim (steals, trips, evictions, reschedules, affinity degradations)
/// reconciles against these records.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum FleetEvent {
    /// An idle device stole the tail of another device's queue.
    Stolen {
        /// Dispatch round of the steal.
        tick: u64,
        /// The stolen job.
        job_id: u64,
        /// Victim device index.
        from: usize,
        /// Thief device index.
        to: usize,
    },
    /// A breaker tripped; `evicted` marks the permanent case.
    Tripped {
        /// Dispatch round of the trip.
        tick: u64,
        /// Device whose breaker tripped.
        device: usize,
        /// Whether the trip was the device's permanent eviction.
        evicted: bool,
    },
    /// A job moved to another device after a failure or an eviction.
    Rescheduled {
        /// Dispatch round of the reschedule.
        tick: u64,
        /// The moved job.
        job_id: u64,
        /// Device the job left.
        from: usize,
        /// Device the job joined.
        to: usize,
    },
    /// A job ran on a class with no matching model artifact and was
    /// degraded to the default clock (device affinity enforced).
    AffinityDegraded {
        /// Dispatch round of the degradation.
        tick: u64,
        /// The degraded job.
        job_id: u64,
        /// Device (of the artifact-less class) that ran the job.
        device: usize,
    },
}

/// One job's fleet decision: the single-device [`DecisionRecord`] plus
/// where (and how) it ran.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FleetDecision {
    /// Index of the device that executed the job.
    pub device_index: usize,
    /// Name of the device that executed the job.
    pub device: String,
    /// Device class (spec name) the job executed on.
    pub class: String,
    /// Whether the job was stolen at least once.
    pub stolen: bool,
    /// Execution attempts consumed (1 = succeeded first try).
    pub attempts: u32,
    /// The single-device-shaped decision trail (bit-comparable with
    /// [`crate::sim::GovernorReport::decisions`]).
    pub record: DecisionRecord,
}

/// Per-device totals of one fleet run.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct DeviceReport {
    /// Device name.
    pub name: String,
    /// Device class (spec name).
    pub class: String,
    /// Jobs this device completed or permanently failed.
    pub jobs_run: usize,
    /// Sum of measured wall time on this device (s).
    pub busy_time_s: f64,
    /// Sum of measured energy on this device (J).
    pub energy_j: f64,
    /// Jobs this device stole from others.
    pub stolen_in: u64,
    /// Breaker trips (including the evicting one).
    pub trips: u32,
    /// Whether the device ended the run evicted.
    pub evicted: bool,
}

/// The result of one fleet run.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FleetReport {
    /// Clock policy the run executed.
    pub policy: Policy,
    /// Placement policy the run executed.
    pub placement: Placement,
    /// Steal policy the run executed.
    pub steal: StealPolicy,
    /// Stream seed.
    pub seed: u64,
    /// Jobs processed (every submitted job appears exactly once).
    pub n_jobs: usize,
    /// Per-device totals, in fleet order.
    pub devices: Vec<DeviceReport>,
    /// Total measured wall time across devices (s).
    pub total_time_s: f64,
    /// Total measured energy across devices (J).
    pub total_energy_j: f64,
    /// Largest per-device busy time (s) — the fleet makespan proxy.
    pub makespan_s: f64,
    /// Jobs that missed their deadline (incl. failed jobs).
    pub deadline_misses: usize,
    /// `deadline_misses / n_jobs`.
    pub miss_rate: f64,
    /// Jobs that fell back to the default clock (or failed).
    pub fallbacks: usize,
    /// Jobs rejected at every class's admission queue.
    pub admission_rejected: usize,
    /// Jobs stolen by idle devices.
    pub jobs_stolen: u64,
    /// Jobs moved to another device after failures or evictions.
    pub items_rescheduled: u64,
    /// Devices permanently evicted by their breakers.
    pub devices_evicted: u64,
    /// Jobs degraded to the default clock because their executing class
    /// had no matching model artifact.
    pub affinity_fallbacks: u64,
    /// Prediction memo-cache counters, summed over class engines.
    pub cache: CacheStats,
    /// Device degradation counters merged across queues, with the
    /// fleet-level reschedule/eviction/affinity counters folded in.
    pub degradation: DegradationMetrics,
    /// Per-job decision trail, sorted by job id.
    pub decisions: Vec<FleetDecision>,
    /// Scheduling journal, in event order.
    pub journal: Vec<FleetEvent>,
}

/// A private run plan for the job loop: the fleet it schedules, how it
/// names its registry artifacts, and an optional drift twin of device 0.
pub(crate) struct RunPlan {
    /// The devices, policies, stream and fault plans.
    pub(crate) fleet: FleetConfig,
    /// Whether each class loads its own `"<app>--<class-slug>"` artifact
    /// (a fleet) or the plain `"<app>"` one (a one-device governor run).
    pub(crate) per_class_artifacts: bool,
    /// From `at_job` on, device 0 runs every job on a twin: its own queue
    /// on the drifted spec, with templates recorded there, under device
    /// 0's fault plan (not split from it).
    pub(crate) twin: Option<DriftScenario>,
}

/// What a run layers onto the job loop at its four hook points. `()` is
/// the plain governor or fleet run; the lifecycle is the other hook.
pub(crate) trait LoopHook {
    /// What a hook point can fail with; a failure aborts the run.
    type Error;

    /// At admission: the serve key `job`'s prediction request goes under.
    fn serve_key(&mut self, app: &'static str, _job: &Job) -> String {
        app.to_string()
    }

    /// After each model load, with the registry events it surfaced.
    fn loaded(&mut self, _events: Vec<RegistryEvent>) -> Result<(), Self::Error> {
        Ok(())
    }

    /// After each execution that decides a job, with the model's
    /// predicted energy at the clock the job was decided at.
    fn executed(&mut self, _record: &DecisionRecord, _predicted_energy_j: Option<f64>) {}

    /// At each burst end: `at_job` is the burst's highest job id, and
    /// `engine` the reference class's serving engine.
    fn burst_end(
        &mut self,
        _at_job: u64,
        _engine: &mut PredictionEngine,
    ) -> Result<(), Self::Error> {
        Ok(())
    }
}

impl LoopHook for () {
    type Error = Infallible;
}

/// Lazy per-application model loading through the registry's hardened
/// walk ([`ModelRegistry::load_latest_healthy`]: the newest healthy
/// version of the current training generation), under the run's
/// model-path fault schedules.
struct ModelLoader {
    /// `Some(class)` loads `"<app>--<class-slug>"`, `None` plain `"<app>"`.
    class: Option<String>,
    expected_fingerprint: u64,
    attempts: u64,
    /// Last failure per app, reported when serving finds no model.
    last_failure: BTreeMap<&'static str, FallbackReason>,
}

impl ModelLoader {
    /// Loads `app`'s model into `engine` unless it already serves one.
    /// Returns the registry events a successful load surfaced.
    fn ensure(
        &mut self,
        app: &'static str,
        faults: &ModelFaults,
        registry: &ModelRegistry,
        engine: &mut PredictionEngine,
    ) -> Vec<RegistryEvent> {
        if engine.has_model(app) {
            return Vec::new();
        }
        let index = self.attempts;
        self.attempts += 1;
        if faults
            .load_failures
            .fires(faults.seed, STREAM_LOAD_FAIL, index)
        {
            self.last_failure.insert(app, FallbackReason::LoadFailed);
            return Vec::new();
        }
        // A stale-fingerprint fault models an artifact trained under
        // different conditions: demand a fingerprint the artifact cannot
        // have, and let the registry's typed rejection drive the fallback.
        let expected = if faults
            .stale_fingerprints
            .fires(faults.seed, STREAM_STALE, index)
        {
            self.expected_fingerprint ^ 0x5DEE_CE66_ADD1_C7ED
        } else {
            self.expected_fingerprint
        };
        let name = match &self.class {
            Some(class) => fleet_model_name(app, class),
            None => app.to_string(),
        };
        let failure = match registry.load_latest_healthy(&name, Some(expected)) {
            Ok((model, _, _, events)) => {
                engine.install_model(app, model);
                self.last_failure.remove(app);
                return events;
            }
            Err(RegistryError::NotFound { .. }) => FallbackReason::ModelMissing,
            Err(RegistryError::Artifact {
                source: ArtifactError::Fingerprint { .. },
                ..
            }) => FallbackReason::StaleArtifact,
            Err(_) => FallbackReason::LoadFailed,
        };
        self.last_failure.insert(app, failure);
        Vec::new()
    }

    fn failure_for(&self, app: &str) -> FallbackReason {
        // A lifecycle canary key maps back to its app.
        let base = app.split('#').next().unwrap_or(app);
        *self
            .last_failure
            .get(base)
            .unwrap_or(&FallbackReason::ModelMissing)
    }
}

/// A clock decision on one served profile: the clock requested (`None` =
/// the default clock) and the model's predicted time and energy there.
#[derive(Debug, Clone, Copy, Default)]
struct ClockChoice {
    requested_mhz: Option<f64>,
    predicted_time_s: Option<f64>,
    predicted_energy_j: Option<f64>,
}

/// Picks the clock `policy` requests from `profile` against the
/// `planned` deadline.
fn resolve_clock(
    policy: Policy,
    profile: &PredictedProfile,
    planned_deadline_s: f64,
) -> ClockChoice {
    match choose_frequency(policy, profile, planned_deadline_s) {
        Some(freq) => {
            let point = profile.pareto.iter().find(|p| p.freq_mhz == freq);
            ClockChoice {
                requested_mhz: Some(freq),
                predicted_time_s: point.map(|p| profile.default_time_s / p.speedup),
                predicted_energy_j: point.map(|p| p.norm_energy * profile.default_energy_j),
            }
        }
        None => ClockChoice {
            requested_mhz: None,
            predicted_time_s: Some(profile.default_time_s),
            predicted_energy_j: Some(profile.default_energy_j),
        },
    }
}

/// One class's view of a job at placement: its clock decision and the
/// predicted energy it ranks by, or why it served nothing.
type Candidate = Result<(ClockChoice, f64), FallbackReason>;

/// One per-class serving stack: templates recorded on that class's
/// hardware, its admission-controlled engine, and its lazy model loader.
struct ClassRuntime {
    spec: DeviceSpec,
    templates: Vec<JobTemplate>,
    engine: PredictionEngine,
    loader: ModelLoader,
}

/// A job parked in a device's FIFO ready queue, carrying the clock
/// decision of the class it was priced for.
struct ReadyJob {
    job: Job,
    /// Class whose model produced `clock`.
    decided_class: usize,
    clock: ClockChoice,
    fallback: Option<FallbackReason>,
    attempts: u32,
    stolen: bool,
}

impl ReadyJob {
    /// A fresh job at the default clock.
    fn new(job: Job, decided_class: usize, fallback: Option<FallbackReason>) -> Self {
        ReadyJob {
            job,
            decided_class,
            clock: ClockChoice::default(),
            fallback,
            attempts: 0,
            stolen: false,
        }
    }
}

/// Device 0's drift twin (see [`RunPlan::twin`]).
struct Twin {
    at_job: u64,
    queue: SynergyQueue,
    templates: Vec<JobTemplate>,
}

struct DeviceRuntime {
    name: String,
    class: usize,
    queue: SynergyQueue,
    twin: Option<Twin>,
    ready: VecDeque<ReadyJob>,
    slot: SlotState,
    jobs_run: usize,
    busy_time_s: f64,
    energy_j: f64,
    stolen_in: u64,
}

impl DeviceRuntime {
    fn evicted(&self) -> bool {
        self.slot.breaker == BreakerState::Evicted
    }
}

/// A device's SYnergy queue under `faults`, with trace recording off.
fn device_queue(spec: &DeviceSpec, faults: FaultPlan) -> SynergyQueue {
    let mut device = Device::with_faults(spec.clone(), faults);
    device.set_trace_capacity(Some(0));
    SynergyQueue::for_device(device)
}

/// The in-flight state of one run of the job loop.
struct FleetRun<'a, H: LoopHook> {
    cfg: &'a FleetConfig,
    hook: &'a mut H,
    classes: Vec<ClassRuntime>,
    devices: Vec<DeviceRuntime>,
    tick: u64,
    rr_cursor: usize,
    decisions: Vec<FleetDecision>,
    journal: Vec<FleetEvent>,
    admission_rejected: usize,
    jobs_stolen: u64,
    items_rescheduled: u64,
    devices_evicted: u64,
    affinity_fallbacks: u64,
}

impl<H: LoopHook> FleetRun<'_, H> {
    /// Whether device `i` may execute a job this round. An open breaker
    /// becomes eligible once its cooldown has elapsed (the next job it
    /// runs is the half-open probe).
    fn available(&self, i: usize) -> bool {
        match self.devices[i].slot.breaker {
            BreakerState::Closed { .. } | BreakerState::HalfOpen => true,
            BreakerState::Open { since_tick } => {
                self.tick >= since_tick + self.cfg.breaker.cooldown_ticks
            }
            BreakerState::Evicted => false,
        }
    }

    fn any_survivor(&self) -> bool {
        self.devices.iter().any(|d| !d.evicted())
    }

    /// Next healthy device in round-robin order, preferring available
    /// ones; falls back to any non-evicted (cooling) device.
    fn next_rr_device(&mut self) -> Option<usize> {
        let n = self.devices.len();
        for pass in 0..2 {
            for step in 0..n {
                let i = (self.rr_cursor + step) % n;
                let ok = if pass == 0 {
                    self.available(i)
                } else {
                    !self.devices[i].evicted()
                };
                if ok {
                    self.rr_cursor = (i + 1) % n;
                    return Some(i);
                }
            }
        }
        None
    }

    /// Least-loaded non-evicted device, preferring `class` (when given)
    /// and avoiding `exclude` when any alternative exists. Deterministic:
    /// ties break on the lower device index.
    fn least_loaded(&self, class: Option<usize>, exclude: Option<usize>) -> Option<usize> {
        let candidates = |want_class: Option<usize>, excluded: Option<usize>| {
            self.devices
                .iter()
                .enumerate()
                .filter(|(i, d)| {
                    !d.evicted() && want_class.is_none_or(|c| d.class == c) && excluded != Some(*i)
                })
                .min_by_key(|(i, d)| (d.ready.len(), *i))
                .map(|(i, _)| i)
        };
        candidates(class, exclude)
            .or_else(|| candidates(class, None))
            .or_else(|| candidates(None, exclude))
            .or_else(|| candidates(None, None))
    }

    /// Records a job that can never run (no devices left): conservation
    /// demands a failed decision, not a silent drop.
    fn record_unrunnable(&mut self, rj: ReadyJob, device_index: usize) {
        let class = rj.decided_class.min(self.classes.len() - 1);
        let template = &self.classes[class].templates[rj.job.template];
        self.decisions.push(FleetDecision {
            device_index,
            device: self
                .devices
                .get(device_index)
                .map(|d| d.name.clone())
                .unwrap_or_default(),
            class: self.classes[class].spec.name.clone(),
            stolen: rj.stolen,
            attempts: rj.attempts,
            record: DecisionRecord {
                job_id: rj.job.id,
                app: template.app.to_string(),
                label: template.label.clone(),
                requested_mhz: None,
                fallback: Some(FallbackReason::LaunchFailed),
                deadline_s: rj.job.deadline_s,
                predicted_time_s: rj.clock.predicted_time_s,
                measured_time_s: 0.0,
                measured_energy_j: 0.0,
                completed: false,
                met_deadline: false,
            },
        });
    }

    /// Applies one failure to device `i`'s breaker; on eviction, drains
    /// its remaining queue onto the survivors.
    fn on_device_failure(&mut self, i: usize) {
        let threshold = self.cfg.breaker.failure_threshold;
        let (tripped, failures) = match self.devices[i].slot.breaker {
            BreakerState::Closed {
                consecutive_failures,
            } => {
                let f = consecutive_failures + 1;
                (f >= threshold, f)
            }
            // A failed half-open probe trips immediately.
            BreakerState::HalfOpen => (true, threshold),
            // Unreachable: only executing devices fail, and executing
            // promotes Open to HalfOpen first.
            BreakerState::Open { .. } | BreakerState::Evicted => (true, threshold),
        };
        if !tripped {
            self.devices[i].slot.breaker = BreakerState::Closed {
                consecutive_failures: failures,
            };
            return;
        }
        self.devices[i].slot.trips += 1;
        let evicted = self.devices[i].slot.trips >= self.cfg.breaker.max_trips;
        self.journal.push(FleetEvent::Tripped {
            tick: self.tick,
            device: i,
            evicted,
        });
        if evicted {
            self.devices[i].slot.breaker = BreakerState::Evicted;
            self.devices_evicted += 1;
            self.drain_evicted(i);
        } else {
            self.devices[i].slot.breaker = BreakerState::Open {
                since_tick: self.tick,
            };
        }
    }

    /// Moves a job to device `to`'s queue after a failure or an eviction.
    fn reschedule(&mut self, rj: ReadyJob, from: usize, to: usize) {
        self.items_rescheduled += 1;
        self.journal.push(FleetEvent::Rescheduled {
            tick: self.tick,
            job_id: rj.job.id,
            from,
            to,
        });
        self.devices[to].ready.push_back(rj);
    }

    /// Moves an evicted device's queued jobs onto the survivors (or
    /// records them as failed when no survivor remains).
    fn drain_evicted(&mut self, i: usize) {
        while let Some(rj) = self.devices[i].ready.pop_front() {
            match self.least_loaded(None, Some(i)) {
                Some(target) => self.reschedule(rj, i, target),
                None => self.record_unrunnable(rj, i),
            }
        }
    }

    /// Work stealing: each idle available device takes the tail of the
    /// deepest eligible queue. Device order, then victim by (depth,
    /// index), keeps the round deterministic.
    fn steal_round(&mut self) {
        for thief in 0..self.devices.len() {
            if !self.available(thief) || !self.devices[thief].ready.is_empty() {
                continue;
            }
            let thief_class = self.devices[thief].class;
            let victim = self
                .devices
                .iter()
                .enumerate()
                .filter(|(j, d)| {
                    *j != thief
                        && !d.evicted()
                        && match self.cfg.steal {
                            StealPolicy::Disabled => false,
                            StealPolicy::WithinClass => d.class == thief_class,
                            StealPolicy::Anywhere => true,
                        }
                        // An available victim runs its head this round;
                        // only a surplus is worth stealing. A cooling
                        // victim's whole queue is stalled — steal from 1.
                        && d.ready.len() >= if self.available(*j) { 2 } else { 1 }
                })
                .max_by_key(|(j, d)| (d.ready.len(), usize::MAX - *j))
                .map(|(j, _)| j);
            let Some(victim) = victim else { continue };
            let Some(mut rj) = self.devices[victim].ready.pop_back() else {
                continue;
            };
            rj.stolen = true;
            self.jobs_stolen += 1;
            self.devices[thief].stolen_in += 1;
            self.journal.push(FleetEvent::Stolen {
                tick: self.tick,
                job_id: rj.job.id,
                from: victim,
                to: thief,
            });
            self.devices[thief].ready.push_back(rj);
        }
    }

    /// Counts and journals an affinity degradation of `rj` on device
    /// `i`: it runs at the default clock.
    fn degrade_affinity(&mut self, i: usize, rj: &mut ReadyJob) {
        self.affinity_fallbacks += 1;
        self.journal.push(FleetEvent::AffinityDegraded {
            tick: self.tick,
            job_id: rj.job.id,
            device: i,
        });
        rj.clock = ClockChoice::default();
        rj.fallback = Some(FallbackReason::AffinityDegraded);
    }

    /// Executes one ready job on device `i`, enforcing device affinity,
    /// updating the breaker, and either recording the decision or
    /// rescheduling the job after a permanent launch failure.
    fn execute_on(&mut self, i: usize, mut rj: ReadyJob) {
        // Promote a cooled-down open breaker: this execution is a probe.
        if let BreakerState::Open { .. } = self.devices[i].slot.breaker {
            self.devices[i].slot.breaker = BreakerState::HalfOpen;
        }

        let class_i = self.devices[i].class;
        if self.cfg.placement != Placement::RoundRobin {
            let app = self.classes[0].templates[rj.job.template].app;
            if !self.classes[class_i].engine.has_model(app) {
                // Device affinity: no artifact for this class, so the job
                // runs at the default clock. Only a model-chosen clock is
                // degraded; a job that already fell back keeps its reason.
                if rj.fallback.is_none() {
                    self.degrade_affinity(i, &mut rj);
                }
                rj.clock = ClockChoice::default();
                rj.decided_class = class_i;
            } else if (rj.fallback.is_none()
                && rj.clock.requested_mhz.is_some()
                && rj.decided_class != class_i)
                || rj.fallback == Some(FallbackReason::AffinityDegraded)
            {
                // Cross-class arrival with a foreign clock decision:
                // re-price through the executing class's model so the
                // requested clock is always device-faithful. A job that
                // was affinity-degraded on a bare class recovers here —
                // this class has an artifact, so price it properly.
                let request = PredictionRequest {
                    job_id: rj.job.id,
                    app: app.to_string(),
                    features: self.classes[0].templates[rj.job.template].features.clone(),
                };
                match self.classes[class_i].engine.serve_one(&request) {
                    Ok(profile) => {
                        let planned = rj.job.deadline_s * self.cfg.deadline_safety;
                        rj.clock = resolve_clock(self.cfg.policy, &profile, planned);
                        rj.fallback = None;
                    }
                    Err(_) => self.degrade_affinity(i, &mut rj),
                }
                rj.decided_class = class_i;
            }
        }

        let device = &mut self.devices[i];
        let (templates, queue) = match &mut device.twin {
            Some(twin) if rj.job.id >= twin.at_job => (&twin.templates, &mut twin.queue),
            _ => (&self.classes[class_i].templates, &mut device.queue),
        };
        let record = execute_job(&templates[rj.job.template], &rj, queue);

        if record.completed {
            let d = &mut self.devices[i];
            d.slot.breaker = BreakerState::Closed {
                consecutive_failures: 0,
            };
            d.jobs_run += 1;
            d.busy_time_s += record.measured_time_s;
            d.energy_j += record.measured_energy_j;
            self.decide(i, class_i, &rj, rj.attempts + 1, record);
            return;
        }

        // Permanent launch failure: count it against the breaker, then
        // retry the job elsewhere while attempts and devices remain.
        self.on_device_failure(i);
        rj.attempts += 1;
        if rj.attempts < self.cfg.max_attempts {
            if let Some(target) = self.least_loaded(None, Some(i)) {
                self.reschedule(rj, i, target);
                return;
            }
        }
        self.devices[i].jobs_run += 1;
        self.decide(i, class_i, &rj, rj.attempts, record);
    }

    /// Records `rj`'s final decision on device `i` and passes it to the
    /// hook.
    fn decide(
        &mut self,
        i: usize,
        class: usize,
        rj: &ReadyJob,
        attempts: u32,
        record: DecisionRecord,
    ) {
        self.hook.executed(&record, rj.clock.predicted_energy_j);
        self.decisions.push(FleetDecision {
            device_index: i,
            device: self.devices[i].name.clone(),
            class: self.classes[class].spec.name.clone(),
            stolen: rj.stolen,
            attempts,
            record,
        });
    }

    /// Runs dispatch rounds until every ready queue is empty. Each round
    /// is one breaker tick: steals first, then one job per available
    /// device in index order.
    fn dispatch_until_drained(&mut self) {
        loop {
            self.tick += 1;
            if self.cfg.steal != StealPolicy::Disabled {
                self.steal_round();
            }
            let mut executed = false;
            for i in 0..self.devices.len() {
                if !self.available(i) {
                    continue;
                }
                let Some(rj) = self.devices[i].ready.pop_front() else {
                    continue;
                };
                self.execute_on(i, rj);
                executed = true;
            }
            if executed {
                continue;
            }
            if self.devices.iter().all(|d| d.ready.is_empty()) {
                return;
            }
            if !self.any_survivor() {
                // Jobs remain but every device is gone: record them all.
                for i in 0..self.devices.len() {
                    while let Some(rj) = self.devices[i].ready.pop_front() {
                        self.record_unrunnable(rj, i);
                    }
                }
                return;
            }
            // Otherwise queued work waits on a cooling breaker; the tick
            // advance at the top of the loop runs the cooldown forward.
        }
    }

    /// Round-robin placement: no prediction, default clock everywhere.
    fn place_round_robin(&mut self, burst: &[Job]) {
        for job in burst {
            match self.next_rr_device() {
                Some(i) => {
                    let rj = ReadyJob::new(*job, self.devices[i].class, None);
                    self.devices[i].ready.push_back(rj);
                }
                None => self.record_unrunnable(ReadyJob::new(*job, 0, None), 0),
            }
        }
    }

    /// Min-predicted-energy placement: every admitted job is predicted on
    /// every class; the cheapest feasible class wins (fastest class when
    /// nothing is feasible), least-loaded device within it.
    fn place_min_energy(
        &mut self,
        registry: &ModelRegistry,
        burst: &[Job],
    ) -> Result<(), H::Error> {
        let cfg = self.cfg;
        // Admission: the whole burst hits every class queue before any
        // draining, so a burst larger than the queue sheds load visibly.
        let mut admitted: Vec<Vec<usize>> = vec![Vec::new(); burst.len()];
        for (b, job) in burst.iter().enumerate() {
            let template = &self.classes[0].templates[job.template];
            let (app, features) = (template.app, template.features.clone());
            let key = self.hook.serve_key(app, job);
            for (c, class) in self.classes.iter_mut().enumerate() {
                let events =
                    class
                        .loader
                        .ensure(app, &cfg.model_faults, registry, &mut class.engine);
                self.hook.loaded(events)?;
                let request = PredictionRequest {
                    job_id: job.id,
                    app: key.clone(),
                    features: features.clone(),
                };
                if class.engine.try_enqueue(request).is_ok() {
                    admitted[b].push(c);
                }
            }
        }

        // Jobs every class rejected still run — at the default clock on
        // the next round-robin device, recorded as admission fallbacks.
        for (b, job) in burst.iter().enumerate() {
            if !admitted[b].is_empty() {
                continue;
            }
            self.admission_rejected += 1;
            let rejected = Some(FallbackReason::AdmissionRejected);
            match self.next_rr_device() {
                Some(i) => self.execute_on(i, ReadyJob::new(*job, self.devices[i].class, rejected)),
                None => self.record_unrunnable(ReadyJob::new(*job, 0, rejected), 0),
            }
        }

        // Serve every class queue to empty, batch by batch, and collect
        // the per-(job, class) profiles.
        let mut served: BTreeMap<(u64, usize), Result<Arc<PredictedProfile>, ServeError>> =
            BTreeMap::new();
        for (c, class) in self.classes.iter_mut().enumerate() {
            while class.engine.queue_len() > 0 {
                for (request, result) in class.engine.drain_batch() {
                    served.insert((request.job_id, c), result);
                }
            }
        }

        // Decide (class, clock) per job in arrival order and park it on
        // the least-loaded device of the winning class.
        for (b, job) in burst.iter().enumerate() {
            if admitted[b].is_empty() {
                continue;
            }
            let planned = job.deadline_s * cfg.deadline_safety;
            let candidates: Vec<(usize, Candidate)> = admitted[b]
                .iter()
                .map(|&c| {
                    let candidate = match served.get(&(job.id, c)) {
                        Some(Ok(profile)) => {
                            let clock = resolve_clock(cfg.policy, profile, planned);
                            Ok((
                                clock,
                                clock.predicted_energy_j.unwrap_or(profile.default_energy_j),
                            ))
                        }
                        Some(Err(ServeError::ModelUnavailable { app })) => {
                            Err(self.classes[c].loader.failure_for(app))
                        }
                        Some(Err(
                            ServeError::FeatureWidth { .. } | ServeError::ConfigWidth { .. },
                        )) => Err(FallbackReason::StaleArtifact),
                        None => Err(FallbackReason::ModelMissing),
                    };
                    (c, candidate)
                })
                .collect();

            // Cheapest feasible predicted class; fastest predicted class
            // when nothing is feasible; placement fallback when no class
            // served at all. Ties break on the lower class index.
            let feasible =
                |clock: &ClockChoice| clock.predicted_time_s.is_some_and(|t| t <= planned);
            let predicted: Vec<(usize, ClockChoice, f64)> = candidates
                .iter()
                .filter_map(|(c, r)| r.ok().map(|(clock, energy)| (*c, clock, energy)))
                .collect();
            let choice = if predicted.iter().any(|(_, clock, _)| feasible(clock)) {
                predicted
                    .iter()
                    .filter(|(_, clock, _)| feasible(clock))
                    .min_by(|(_, _, a), (_, _, b)| a.total_cmp(b))
            } else {
                let time = |clock: &ClockChoice| clock.predicted_time_s.unwrap_or(f64::INFINITY);
                predicted
                    .iter()
                    .min_by(|(_, a, _), (_, b, _)| time(a).total_cmp(&time(b)))
            };

            let rj = match choice {
                Some(&(class, clock, _)) => ReadyJob {
                    clock,
                    ..ReadyJob::new(*job, class, None)
                },
                // No class served: default clock with the first class's
                // recorded failure reason.
                None => {
                    let reason = candidates
                        .first()
                        .and_then(|(_, r)| r.err())
                        .unwrap_or(FallbackReason::ModelMissing);
                    ReadyJob::new(*job, 0, Some(reason))
                }
            };
            match self.least_loaded(Some(rj.decided_class), None) {
                Some(i) => self.devices[i].ready.push_back(rj),
                None => self.record_unrunnable(rj, 0),
            }
        }
        Ok(())
    }

    fn finish(mut self) -> FleetReport {
        let cfg = self.cfg;
        self.decisions.sort_by_key(|d| d.record.job_id);
        let decisions = self.decisions;
        let deadline_misses = decisions.iter().filter(|d| !d.record.met_deadline).count();
        let fallbacks = decisions
            .iter()
            .filter(|d| d.record.fallback.is_some())
            .count();

        let mut cache = CacheStats::default();
        for class in &self.classes {
            cache.accumulate(class.engine.cache_stats());
        }
        let mut degradation = DegradationMetrics::default();
        for d in &self.devices {
            degradation.merge(&d.queue.degradation());
            if let Some(twin) = &d.twin {
                degradation.merge(&twin.queue.degradation());
            }
        }
        degradation.items_rescheduled += self.items_rescheduled;
        degradation.devices_evicted += self.devices_evicted;
        degradation.affinity_fallbacks += self.affinity_fallbacks;

        let device_reports: Vec<DeviceReport> = self
            .devices
            .iter()
            .map(|d| DeviceReport {
                name: d.name.clone(),
                class: self.classes[d.class].spec.name.clone(),
                jobs_run: d.jobs_run,
                busy_time_s: d.busy_time_s,
                energy_j: d.energy_j,
                stolen_in: d.stolen_in,
                trips: d.slot.trips,
                evicted: d.evicted(),
            })
            .collect();

        FleetReport {
            policy: cfg.policy,
            placement: cfg.placement,
            steal: cfg.steal,
            seed: cfg.seed,
            n_jobs: decisions.len(),
            total_time_s: decisions.iter().map(|d| d.record.measured_time_s).sum(),
            total_energy_j: decisions.iter().map(|d| d.record.measured_energy_j).sum(),
            makespan_s: device_reports
                .iter()
                .map(|d| d.busy_time_s)
                .fold(0.0, f64::max),
            deadline_misses,
            miss_rate: if decisions.is_empty() {
                0.0
            } else {
                deadline_misses as f64 / decisions.len() as f64
            },
            fallbacks,
            admission_rejected: self.admission_rejected,
            jobs_stolen: self.jobs_stolen,
            items_rescheduled: self.items_rescheduled,
            devices_evicted: self.devices_evicted,
            affinity_fallbacks: self.affinity_fallbacks,
            cache,
            degradation,
            devices: device_reports,
            decisions,
            journal: self.journal,
        }
    }
}

/// Replays one job under its clock decision and records the outcome,
/// folding device-side degradation (clock rejections riding the retry
/// path back to the default clock) into the fallback field.
fn execute_job(template: &JobTemplate, rj: &ReadyJob, queue: &mut SynergyQueue) -> DecisionRecord {
    let before = queue.degradation();
    match rj.clock.requested_mhz {
        Some(freq) if rj.fallback.is_none() => queue.set_policy(FrequencyPolicy::Fixed(freq)),
        _ => queue.set_policy(FrequencyPolicy::DeviceDefault),
    }
    let outcome = template.trace.try_replay_on(queue);
    let after = queue.degradation();

    let mut fallback = rj.fallback;
    let (measured_time_s, measured_energy_j, completed) = match outcome {
        Ok(m) => {
            if fallback.is_none() && after.default_clock_fallbacks > before.default_clock_fallbacks
            {
                fallback = Some(FallbackReason::FrequencyRejected);
            }
            (m.time_s, m.energy_j, true)
        }
        Err(_) => {
            fallback = Some(FallbackReason::LaunchFailed);
            (0.0, 0.0, false)
        }
    };

    DecisionRecord {
        job_id: rj.job.id,
        app: template.app.to_string(),
        label: template.label.clone(),
        requested_mhz: rj.clock.requested_mhz,
        fallback,
        deadline_s: rj.job.deadline_s,
        predicted_time_s: rj.clock.predicted_time_s,
        measured_time_s,
        measured_energy_j,
        completed,
        met_deadline: completed && measured_time_s <= rj.job.deadline_s,
    }
}

/// Runs the job loop on `plan`, calling `hook` at its four points.
/// Fails only when the hook does.
pub(crate) fn run_plan<H: LoopHook>(
    plan: &RunPlan,
    registry: &ModelRegistry,
    hook: &mut H,
) -> Result<FleetReport, H::Error> {
    let cfg = &plan.fleet;
    let class_specs = distinct_classes(&cfg.devices);
    if class_specs.is_empty() {
        return Ok(empty_report(cfg));
    }

    let classes: Vec<ClassRuntime> = class_specs
        .iter()
        .map(|spec| ClassRuntime {
            spec: spec.clone(),
            templates: build_templates(spec),
            engine: PredictionEngine::new(EngineConfig {
                freqs: experiment_frequencies(spec, cfg.freq_stride),
                queue_capacity: cfg.queue_capacity,
                max_batch: cfg.max_batch,
            }),
            loader: ModelLoader {
                class: plan.per_class_artifacts.then(|| spec.name.clone()),
                expected_fingerprint: class_fingerprint(spec, cfg.train_stride, cfg.seed),
                attempts: 0,
                last_failure: BTreeMap::new(),
            },
        })
        .collect();
    let class_index: BTreeMap<String, usize> = class_specs
        .iter()
        .enumerate()
        .map(|(i, s)| (s.name.clone(), i))
        .collect();

    let devices: Vec<DeviceRuntime> = cfg
        .devices
        .iter()
        .enumerate()
        .map(|(i, fd)| {
            let faults = fd.faults.clone().unwrap_or_else(|| {
                cfg.device_faults
                    .split_for_device(i as u64, PURPOSE_DEVICE_FAULTS)
            });
            let twin = plan.twin.as_ref().filter(|_| i == 0).map(|sc| Twin {
                at_job: sc.at_job,
                queue: device_queue(&sc.spec, faults.clone()),
                templates: build_templates(&sc.spec),
            });
            DeviceRuntime {
                name: fd.name.clone(),
                class: *class_index.get(&fd.spec.name).unwrap_or(&0),
                queue: device_queue(&fd.spec, faults),
                twin,
                ready: VecDeque::new(),
                slot: SlotState {
                    breaker: BreakerState::Closed {
                        consecutive_failures: 0,
                    },
                    trips: 0,
                },
                jobs_run: 0,
                busy_time_s: 0.0,
                energy_j: 0.0,
                stolen_in: 0,
            }
        })
        .collect();

    // The arrival stream: identical to the single-device stream on the
    // reference class (deadlines anchor on `classes[0]` default times).
    let bursts = generate_stream(cfg.seed, cfg.n_jobs, cfg.slack, &classes[0].templates);

    let mut run = FleetRun {
        cfg,
        hook,
        classes,
        devices,
        tick: 0,
        rr_cursor: 0,
        decisions: Vec::with_capacity(cfg.n_jobs),
        journal: Vec::new(),
        admission_rejected: 0,
        jobs_stolen: 0,
        items_rescheduled: 0,
        devices_evicted: 0,
        affinity_fallbacks: 0,
    };

    for burst in &bursts {
        if run.any_survivor() {
            match cfg.placement {
                Placement::RoundRobin => run.place_round_robin(burst),
                Placement::MinPredictedEnergy => run.place_min_energy(registry, burst)?,
            }
            run.dispatch_until_drained();
        } else {
            let failed = Some(FallbackReason::LaunchFailed);
            for job in burst {
                run.record_unrunnable(ReadyJob::new(*job, 0, failed), 0);
            }
        }
        let at_job = burst.iter().map(|j| j.id).max().unwrap_or(0);
        run.hook.burst_end(at_job, &mut run.classes[0].engine)?;
    }

    Ok(run.finish())
}

/// Runs the fleet closed loop against a registry populated by
/// [`train_and_publish_fleet`] (or deliberately under-populated, to
/// exercise affinity fallbacks). Infallible by design: every failure
/// mode becomes a recorded fallback or a failed decision, never an
/// error or a wedge.
pub fn run_fleet(cfg: &FleetConfig, registry: &ModelRegistry) -> FleetReport {
    let plan = RunPlan {
        fleet: cfg.clone(),
        per_class_artifacts: true,
        twin: None,
    };
    let Ok(report) = run_plan(&plan, registry, &mut ());

    // Telemetry is observation-only: armed or not, the report above is
    // already complete and bit-identical.
    if let Some(telemetry) = &cfg.telemetry {
        let registry = telemetry.registry();
        registry
            .counter("fleet.jobs_total")
            .add(report.n_jobs as u64);
        registry
            .counter("fleet.deadline_misses")
            .add(report.deadline_misses as u64);
        registry
            .counter("fleet.fallbacks")
            .add(report.fallbacks as u64);
        registry
            .counter("fleet.jobs_stolen")
            .add(report.jobs_stolen);
        registry
            .counter("fleet.items_rescheduled")
            .add(report.items_rescheduled);
        registry
            .counter("fleet.devices_evicted")
            .add(report.devices_evicted);
        registry
            .counter("fleet.affinity_fallbacks")
            .add(report.affinity_fallbacks);
        registry
            .gauge("fleet.total_energy_j")
            .set(report.total_energy_j);
        registry.gauge("fleet.makespan_s").set(report.makespan_s);
        registry.gauge("fleet.miss_rate").set(report.miss_rate);
    }

    report
}

fn empty_report(cfg: &FleetConfig) -> FleetReport {
    FleetReport {
        policy: cfg.policy,
        placement: cfg.placement,
        steal: cfg.steal,
        seed: cfg.seed,
        n_jobs: 0,
        devices: Vec::new(),
        total_time_s: 0.0,
        total_energy_j: 0.0,
        makespan_s: 0.0,
        deadline_misses: 0,
        miss_rate: 0.0,
        fallbacks: 0,
        admission_rejected: 0,
        jobs_stolen: 0,
        items_rescheduled: 0,
        devices_evicted: 0,
        affinity_fallbacks: 0,
        cache: CacheStats::default(),
        degradation: DegradationMetrics::default(),
        decisions: Vec::new(),
        journal: Vec::new(),
    }
}
