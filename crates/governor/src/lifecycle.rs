//! Adaptive model lifecycle: drift detection, quarantine-fed online
//! retraining, and crash-safe canary publishing with automatic
//! promote/rollback.
//!
//! The registry used to be a static artifact store the governor trusted
//! forever. This module closes the learning loop around it:
//!
//! 1. **Residual tracking** — every served prediction is compared against
//!    the measured outcome the job loop already produces. Per-model
//!    absolute percentage errors feed a Page–Hinkley [`DriftDetector`]
//!    (exported as `governor.drift.*` telemetry), which trips
//!    deterministically under a seeded stream when the hardware the model
//!    was trained on no longer matches the hardware serving it.
//! 2. **Online retraining** — a trip launches a crash-resumable
//!    characterization campaign ([`energy_model::campaign`]) on the
//!    *current* device, quarantines degraded points
//!    ([`energy_model::quarantine`]), gates the survivors through
//!    [`ml::Dataset::sanitized`], fits a fresh forest, and fingerprints
//!    it via [`energy_model::training_fingerprint`].
//! 3. **Canary publishing** — the fresh model is published to the
//!    registry's canary channel and serves a deterministic hash-based
//!    fraction of traffic alongside the incumbent. Measured MAPE on the
//!    canary slice against the incumbent slice drives an automatic
//!    *promote* (atomic registry advance + serving-cache invalidation)
//!    or *rollback* (version retired, incumbent untouched).
//!
//! ## On the job loop
//!
//! [`run_lifecycle`] has no job loop of its own. It runs the governor's
//! one-device plan on the fleet's job loop (see `crate::fleet`), and an
//! injected [`DriftScenario`] becomes a twin of device 0: from `at_job`
//! on, every job runs on the twin's queue with templates recorded on the
//! drifted spec, under device 0's fault plan. The lifecycle's state rides
//! on the loop as a private hook, called at four points:
//!
//! * at admission, to route each job's serve key — the stable app, or
//!   `"<app>#canary"` for the canary's traffic slice;
//! * after each model load, to journal the registry events it surfaced;
//! * after each execution, to record the job's residual;
//! * at each burst end, to handle drift trips, then canary verdicts.
//!
//! ## State machine (per application)
//!
//! ```text
//! Stable ──trip──▶ Retraining ──publish──▶ Canary ──better──▶ Promoted ─┐
//!    ▲                 │ corrupt data /        │ worse                  │
//!    │                 ▼ non-finite fit        ▼                        │
//!    └───────── RetrainFailed          RolledBack ──▶ Stable ◀──────────┘
//! ```
//!
//! ## Crash safety
//!
//! Every lifecycle transition with a durable side effect is journaled
//! write-ahead to `lifecycle.jsonl`, on the same replay journal as the
//! campaign's ([`energy_model::persist::ReplayJournal`]): *intent* record
//! → idempotent side effect → *done* record. [`run_lifecycle`] is a
//! deterministic replay of `(seed, config)`; on resume, the replay's
//! would-be events are matched against the journal prefix —
//! already-committed events are consumed without re-appending, side
//! effects whose done-marker is on disk are skipped, and the run
//! continues bit-identically from any boundary. The
//! [`LifecycleConfig::crash_after_appends`] chaos knob kills the run
//! immediately after the Nth new append is written, exactly like the
//! campaign's knob.
//!
//! The journal's sync points are the intents: each `PublishIntent`,
//! `PromoteIntent` and `RollbackIntent` is synced before the registry
//! side effect it guards, so after a power loss the version a publish
//! allocated, and a rollback the WAL recovery must finish, are still on
//! disk. The records after the last intent are synced at the next one
//! or at the end of the run. A power loss can take them, and the replay
//! re-derives them; a lost done-marker only re-runs its side effect,
//! which converges (`publish_at`, `set_canary`, `promote_version` and
//! `rollback_version` are idempotent).
//!
//! ## Contracts
//!
//! *Never an unserved request*: every failure mode — corrupt retrain
//! data, non-finite fit, a canary worse than the incumbent, a publish
//! crash — degrades to the incumbent model and bumps
//! [`DegradationMetrics::lifecycle_fallbacks`]; every job in the stream
//! still executes and is recorded.
//!
//! *Determinism*: the report is a pure function of `(seed, config, fault
//! plans)`; telemetry is observation-only.

// Lifecycle is runtime infrastructure: degrade, never die.
#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use energy_model::artifact::fnv1a_64;
use energy_model::campaign::{run_campaign, CampaignConfig, DeviceSlot};
use energy_model::characterize::Workload;
use energy_model::persist::{PersistError, ReplayError, ReplayJournal};
use energy_model::quarantine::{quarantine_results, QuarantinePolicy};
use energy_model::telemetry::Telemetry;
use energy_model::workflow::{experiment_frequencies, CharacterizedInput};
use energy_model::{training_fingerprint, DomainSpecificModel};
use gpu_sim::{DeviceSpec, Schedule};
use ml::dataset::{Dataset, Matrix};
use serde::{Deserialize, Serialize};
use synergy::DegradationMetrics;

use crate::fleet::{run_plan, LoopHook};
use crate::policy::Policy;
use crate::registry::{ModelRegistry, RegistryError, RegistryEvent};
use crate::serving::{CacheStats, PredictionEngine};
use crate::sim::{
    cronos_job_set, ligen_job_set, DecisionRecord, FallbackReason, GovernorConfig, Job,
};

/// Stream id of the canary traffic draw (sibling of the model-fault
/// streams in `sim.rs`; xor'd with the canary version so each canary gets
/// an independent slice).
const STREAM_CANARY: u64 = 13;

/// Journal schema version.
const LIFECYCLE_JOURNAL_VERSION: u32 = 1;

/// The lifecycle journal file inside the run directory.
pub fn journal_path(dir: &Path) -> PathBuf {
    dir.join("lifecycle.jsonl")
}

// ---- Drift detection ----

/// Page–Hinkley detector knobs over the absolute-percentage-error stream.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DriftConfig {
    /// Magnitude slack per sample: deviations below `delta` never
    /// accumulate, so a well-calibrated model idles at statistic ≈ 0.
    pub delta: f64,
    /// Trip threshold on the Page–Hinkley statistic.
    pub lambda: f64,
    /// Minimum samples observed before a trip may fire.
    pub min_samples: u64,
}

impl DriftConfig {
    /// The pinned detector: trips within a couple of observations of a
    /// sustained large residual shift, never on calibration noise.
    pub fn pinned() -> Self {
        DriftConfig {
            delta: 0.02,
            lambda: 0.6,
            min_samples: 4,
        }
    }

    /// A detector that never trips (`lambda = ∞`) — the no-lifecycle
    /// baseline and the differential-test configuration.
    pub fn disabled() -> Self {
        DriftConfig {
            lambda: f64::INFINITY,
            ..DriftConfig::pinned()
        }
    }
}

/// One-sided Page–Hinkley change detector over a non-negative residual
/// stream. Maintains the running mean `x̄`, the cumulative deviation
/// `Σ (xᵢ − x̄ᵢ − δ)`, and its running minimum; the statistic is the gap
/// between the two. A sustained upward shift in the residual level drives
/// the statistic past `λ`; a constant (even large) level does not, because
/// the running mean adapts and `δ` bleeds the accumulator.
#[derive(Debug, Clone, PartialEq)]
pub struct DriftDetector {
    cfg: DriftConfig,
    n: u64,
    mean: f64,
    cum: f64,
    min_cum: f64,
    tripped: bool,
}

impl DriftDetector {
    /// A fresh detector.
    pub fn new(cfg: DriftConfig) -> Self {
        DriftDetector {
            cfg,
            n: 0,
            mean: 0.0,
            cum: 0.0,
            min_cum: 0.0,
            tripped: false,
        }
    }

    /// Feeds one residual observation; returns `true` exactly on the
    /// observation that trips the detector (the edge, not the level).
    /// A tripped detector latches — further observations are absorbed
    /// without re-tripping — until [`DriftDetector::reset`].
    pub fn observe(&mut self, ape: f64) -> bool {
        if self.tripped || !ape.is_finite() {
            return false;
        }
        self.n += 1;
        self.mean += (ape - self.mean) / self.n as f64;
        self.cum += ape - self.mean - self.cfg.delta;
        if self.cum < self.min_cum {
            self.min_cum = self.cum;
        }
        if self.n >= self.cfg.min_samples && self.statistic() > self.cfg.lambda {
            self.tripped = true;
        }
        self.tripped
    }

    /// The current Page–Hinkley statistic (`cum − min(cum)`, ≥ 0).
    pub fn statistic(&self) -> f64 {
        self.cum - self.min_cum
    }

    /// Observations absorbed since the last reset.
    pub fn samples(&self) -> u64 {
        self.n
    }

    /// Running mean of the observed residuals.
    pub fn mean_ape(&self) -> f64 {
        self.mean
    }

    /// Whether the detector is latched tripped.
    pub fn tripped(&self) -> bool {
        self.tripped
    }

    /// Clears all state, keeping the configuration.
    pub fn reset(&mut self) {
        *self = DriftDetector::new(self.cfg);
    }
}

/// The residual of one served prediction: the worse of the time and
/// energy absolute percentage errors, or `None` when the comparison is
/// meaningless (failed job, no prediction, non-positive measurement).
pub fn residual_ape(
    predicted_time_s: f64,
    predicted_energy_j: f64,
    measured_time_s: f64,
    measured_energy_j: f64,
) -> Option<f64> {
    if !(predicted_time_s.is_finite()
        && predicted_energy_j.is_finite()
        && measured_time_s > 0.0
        && measured_energy_j > 0.0)
    {
        return None;
    }
    let t = ((measured_time_s - predicted_time_s) / measured_time_s).abs();
    let e = ((measured_energy_j - predicted_energy_j) / measured_energy_j).abs();
    Some(t.max(e))
}

/// Cumulative per-application drift accounting for the final report.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct DriftSummary {
    /// Residuals observed across all detector generations.
    pub observations: u64,
    /// Trips fired.
    pub trips: u64,
    /// Statistic of the current detector generation.
    pub statistic: f64,
    /// Mean residual of the current detector generation.
    pub mean_ape: f64,
}

/// Folds per-application residuals into one [`DriftDetector`] per model
/// and mirrors them into `governor.drift.*` telemetry. Purely
/// observational: telemetry armed or absent, `observe` returns the same
/// answers for the same stream.
pub struct ResidualTracker {
    cfg: DriftConfig,
    apps: BTreeMap<String, AppDrift>,
}

struct AppDrift {
    detector: DriftDetector,
    observations: u64,
    trips: u64,
}

impl ResidualTracker {
    /// A tracker minting one detector per application on first contact.
    pub fn new(cfg: DriftConfig) -> Self {
        ResidualTracker {
            cfg,
            apps: BTreeMap::new(),
        }
    }

    /// Feeds one residual for `app`; returns `true` on the trip edge.
    pub fn observe(&mut self, app: &str, ape: f64, telemetry: Option<&Telemetry>) -> bool {
        let entry = self
            .apps
            .entry(app.to_string())
            .or_insert_with(|| AppDrift {
                detector: DriftDetector::new(self.cfg),
                observations: 0,
                trips: 0,
            });
        entry.observations += 1;
        let tripped = entry.detector.observe(ape);
        if tripped {
            entry.trips += 1;
        }
        if let Some(t) = telemetry {
            let r = t.registry();
            r.counter("governor.drift.observations").add(1);
            r.gauge(&format!("governor.drift.statistic.{app}"))
                .set(entry.detector.statistic());
            r.gauge(&format!("governor.drift.mean_ape.{app}"))
                .set(entry.detector.mean_ape());
            if tripped {
                r.counter("governor.drift.trips").add(1);
            }
        }
        tripped
    }

    /// The detector currently watching `app`, if any residual arrived.
    pub fn detector(&self, app: &str) -> Option<&DriftDetector> {
        self.apps.get(app).map(|a| &a.detector)
    }

    /// Starts a fresh detector generation for `app` (post-verdict).
    pub fn reset(&mut self, app: &str) {
        if let Some(entry) = self.apps.get_mut(app) {
            entry.detector.reset();
        }
    }

    /// Cumulative per-application summaries.
    pub fn summary(&self) -> BTreeMap<String, DriftSummary> {
        self.apps
            .iter()
            .map(|(app, a)| {
                (
                    app.clone(),
                    DriftSummary {
                        observations: a.observations,
                        trips: a.trips,
                        statistic: a.detector.statistic(),
                        mean_ape: a.detector.mean_ape(),
                    },
                )
            })
            .collect()
    }
}

// ---- Journal ----

/// One committed lifecycle transition. The journal is the authoritative
/// record of every durable side effect; see the module docs for the
/// intent/done discipline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum LifecycleEvent {
    /// First record: schema version + config fingerprint, rejecting
    /// resumes under a different configuration.
    Header {
        /// Journal schema version.
        version: u32,
        /// Fingerprint of the lifecycle configuration.
        fingerprint: u64,
    },
    /// A registry-health observation (corrupt version skipped, dangling
    /// canary pointer healed) surfaced during a load.
    Registry {
        /// The observation.
        event: RegistryEvent,
    },
    /// The drift detector tripped for `app`.
    DriftTripped {
        /// Application whose model drifted.
        app: String,
        /// Retrain sequence number for this app (1-based).
        seq: u32,
        /// Highest job id processed when the trip was handled.
        at_job: u64,
        /// Detector samples at trip time.
        samples: u64,
        /// Page–Hinkley statistic at trip time (`f64::to_bits`, exact).
        statistic_bits: u64,
    },
    /// A retrain attempt failed (corrupt data, non-finite fit, campaign
    /// error, budget exhausted); serving stays on the incumbent.
    RetrainFailed {
        /// Application involved.
        app: String,
        /// Retrain sequence number.
        seq: u32,
        /// What went wrong, rendered.
        reason: String,
    },
    /// Intent to publish a retrained model at `version` (write-ahead of
    /// the artifact write).
    PublishIntent {
        /// Application involved.
        app: String,
        /// Retrain sequence number.
        seq: u32,
        /// Version the publish will allocate.
        version: u32,
        /// Training fingerprint the artifact will carry.
        fingerprint: u64,
    },
    /// The artifact file for `version` is durably on disk.
    ArtifactWritten {
        /// Application involved.
        app: String,
        /// Retrain sequence number.
        seq: u32,
        /// Version written.
        version: u32,
    },
    /// The canary pointer durably names `version`; the canary is serving.
    CanaryOpened {
        /// Application involved.
        app: String,
        /// Retrain sequence number.
        seq: u32,
        /// Canary version.
        version: u32,
    },
    /// Intent to promote the canary (write-ahead of the pointer removal).
    PromoteIntent {
        /// Application involved.
        app: String,
        /// Canary version being promoted.
        version: u32,
        /// Highest job id processed at verdict time.
        at_job: u64,
        /// Canary-slice MAPE (`f64::to_bits`, exact).
        canary_mape_bits: u64,
        /// Incumbent-slice MAPE (`f64::to_bits`, exact).
        incumbent_mape_bits: u64,
    },
    /// The promote is durable: `version` is the stable latest.
    Promoted {
        /// Application involved.
        app: String,
        /// Promoted version.
        version: u32,
    },
    /// Intent to roll the canary back (write-ahead of the retire).
    RollbackIntent {
        /// Application involved.
        app: String,
        /// Canary version being rolled back.
        version: u32,
        /// Highest job id processed at verdict time.
        at_job: u64,
        /// Canary-slice MAPE (`f64::to_bits`, exact).
        canary_mape_bits: u64,
        /// Incumbent-slice MAPE (`f64::to_bits`, exact).
        incumbent_mape_bits: u64,
    },
    /// The rollback is durable: `version` is retired, the incumbent was
    /// never touched.
    RolledBack {
        /// Application involved.
        app: String,
        /// Retired version.
        version: u32,
    },
}

/// A typed lifecycle failure. Everything recoverable degrades inside
/// [`run_lifecycle`]; what escapes here is unrecoverable for *this
/// process* (a crash), not for the system — resume converges.
#[derive(Debug)]
pub enum LifecycleError {
    /// A registry operation failed in a way replay cannot absorb.
    Registry(RegistryError),
    /// The journal could not be read or written.
    Persist(PersistError),
    /// A lifecycle journal already lives here and `resume` is false.
    JournalExists {
        /// The existing journal.
        path: PathBuf,
    },
    /// The on-disk journal diverges from this configuration's replay.
    Corrupt {
        /// What diverged.
        message: String,
    },
    /// The `crash_after_appends` chaos knob fired: the process "crashed"
    /// immediately after the Nth journal append committed.
    InjectedCrash {
        /// Appends committed when the crash fired.
        appends: u64,
    },
}

impl fmt::Display for LifecycleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LifecycleError::Registry(e) => write!(f, "registry: {e}"),
            LifecycleError::Persist(e) => write!(f, "persist: {e}"),
            LifecycleError::JournalExists { path } => {
                write!(
                    f,
                    "lifecycle journal already exists at {} (pass resume=true)",
                    path.display()
                )
            }
            LifecycleError::Corrupt { message } => {
                write!(f, "lifecycle journal corrupt: {message}")
            }
            LifecycleError::InjectedCrash { appends } => {
                write!(f, "injected crash after {appends} journal appends")
            }
        }
    }
}

impl std::error::Error for LifecycleError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LifecycleError::Registry(e) => Some(e),
            LifecycleError::Persist(e) => Some(e),
            _ => None,
        }
    }
}

impl From<RegistryError> for LifecycleError {
    fn from(e: RegistryError) -> Self {
        LifecycleError::Registry(e)
    }
}

impl From<ReplayError> for LifecycleError {
    fn from(e: ReplayError) -> Self {
        match e {
            ReplayError::Persist(e) => LifecycleError::Persist(e),
            ReplayError::Exists { path } => LifecycleError::JournalExists { path },
            ReplayError::Corrupt { message, .. } => LifecycleError::Corrupt { message },
            ReplayError::InjectedCrash { appends } => LifecycleError::InjectedCrash { appends },
        }
    }
}

// ---- Configuration ----

/// A hardware shift injected mid-stream: from `at_job` onward, jobs
/// execute on a device with `spec` instead of the run's original spec —
/// on the job loop, a twin of device 0 with its own queue and templates
/// under device 0's fault plan.
#[derive(Debug, Clone)]
pub struct DriftScenario {
    /// First job id executed on the drifted device.
    pub at_job: u64,
    /// The drifted device.
    pub spec: DeviceSpec,
}

/// An aged/degraded variant of `spec`: every *power* knob worsens (higher
/// dynamic and idle draw, steeper voltage curve, weaker clock gating)
/// while the timing model is untouched — measured times stay
/// bit-identical, deadlines stay valid, and only the energy landscape
/// (and with it the energy-optimal clock) moves. Exactly the failure a
/// time-accurate but energy-stale model cannot see.
pub fn efficiency_drift(spec: &DeviceSpec) -> DeviceSpec {
    let mut s = spec.clone();
    s.core_power_w *= 1.6;
    s.idle_power_w *= 1.3;
    s.mem_power_w *= 1.2;
    // Keep the cap from flattening the (now higher) curve.
    s.tdp_w *= 1.7;
    s.voltage.exponent *= 1.35;
    s.clock_gating_floor = (s.clock_gating_floor * 1.4).min(0.9);
    s
}

/// A forced drift trip — the test hook that drives the rollback scenario
/// (sabotaged retrain → worse canary → automatic rollback) without
/// relying on detector timing.
#[derive(Debug, Clone)]
pub struct ForcedTrip {
    /// Trip fires after the burst containing this job id.
    pub at_job: u64,
    /// Application to trip.
    pub app: String,
}

/// Configuration of one lifecycle run.
#[derive(Clone)]
pub struct LifecycleConfig {
    /// The underlying governor run (device, policy, stream, faults).
    pub governor: GovernorConfig,
    /// Drift detector knobs ([`DriftConfig::disabled`] turns the
    /// lifecycle into a plain governor run).
    pub drift: DriftConfig,
    /// Fraction of an app's traffic served by an open canary (hash-based,
    /// deterministic per job id).
    pub canary_fraction: f64,
    /// Canary-slice observations required before a verdict.
    pub min_canary_samples: u64,
    /// Incumbent-slice observations required before a verdict.
    pub min_incumbent_samples: u64,
    /// Promote iff `canary_mape ≤ incumbent_mape × promote_margin`.
    pub promote_margin: f64,
    /// Retrain budget across the whole run.
    pub max_retrains: u32,
    /// Optional injected hardware drift.
    pub scenario: Option<DriftScenario>,
    /// Optional forced trip (testing hook).
    pub force_trip: Option<ForcedTrip>,
    /// Device the retraining campaign characterizes. `None` = the
    /// *current* device (drifted once the scenario is active) — the live
    /// hardware. Overriding it is the sabotage hook for rollback tests.
    pub retrain_spec: Option<DeviceSpec>,
    /// Quarantine policy applied to retraining campaign results.
    pub quarantine: QuarantinePolicy,
    /// MAD multiple for the [`ml::Dataset::sanitized`] outlier gate.
    pub outlier_mads: Option<f64>,
    /// Minimum clean samples a retrain needs; fewer is "corrupt training
    /// data" and fails the retrain.
    pub min_train_points: usize,
    /// Chaos knob: abort immediately after the Nth new journal append.
    pub crash_after_appends: Option<u64>,
}

impl LifecycleConfig {
    /// The pinned lifecycle configuration over
    /// [`GovernorConfig::pinned`].
    pub fn pinned(policy: Policy) -> Self {
        LifecycleConfig {
            governor: GovernorConfig::pinned(policy),
            drift: DriftConfig::pinned(),
            canary_fraction: 0.5,
            min_canary_samples: 4,
            min_incumbent_samples: 2,
            promote_margin: 1.0,
            max_retrains: 2,
            scenario: None,
            force_trip: None,
            retrain_spec: None,
            quarantine: QuarantinePolicy::default(),
            outlier_mads: Some(8.0),
            min_train_points: 16,
            crash_after_appends: None,
        }
    }

    /// Identity of the run for the journal header: everything that shapes
    /// the replayed event stream.
    fn fingerprint(&self) -> u64 {
        use fmt::Write as _;
        let g = &self.governor;
        let mut desc = String::new();
        let _ = write!(
            desc,
            "spec={};policy={};n_jobs={};seed={};slack={:?};safety={};queue={};batch={};\
             fstride={};tstride={};",
            g.spec.name,
            g.policy.name(),
            g.n_jobs,
            g.seed,
            g.slack,
            g.deadline_safety,
            g.queue_capacity,
            g.max_batch,
            g.freq_stride,
            g.train_stride,
        );
        let _ = write!(
            desc,
            "drift={:x}/{:x}/{};frac={:x};margin={:x};min_c={};min_i={};max_retrains={};",
            self.drift.delta.to_bits(),
            self.drift.lambda.to_bits(),
            self.drift.min_samples,
            self.canary_fraction.to_bits(),
            self.promote_margin.to_bits(),
            self.min_canary_samples,
            self.min_incumbent_samples,
            self.max_retrains,
        );
        if let Some(sc) = &self.scenario {
            let _ = write!(desc, "scenario={}@{};", sc.spec.name, sc.at_job);
        }
        if let Some(ft) = &self.force_trip {
            let _ = write!(desc, "force={}@{};", ft.app, ft.at_job);
        }
        if let Some(spec) = &self.retrain_spec {
            let _ = write!(desc, "retrain_spec={};", spec.name);
        }
        let _ = write!(desc, "min_train={};", self.min_train_points);
        fnv1a_64(desc.as_bytes())
    }
}

// ---- Report ----

/// Which model channel served a prediction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum ServedChannel {
    /// The incumbent stable model.
    Stable,
    /// The canary model under evaluation.
    Canary,
}

/// One job's decision trail plus its lifecycle annotations.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct LifecycleDecision {
    /// The governor-shaped decision record.
    pub record: DecisionRecord,
    /// Channel that served the prediction (stable when none was served).
    pub channel: ServedChannel,
    /// Model-predicted energy at the chosen clock, when served.
    pub predicted_energy_j: Option<f64>,
    /// Residual fed to the tracker, when measurable.
    pub ape: Option<f64>,
}

/// The result of one lifecycle run.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct LifecycleReport {
    /// Policy the run executed.
    pub policy: Policy,
    /// Device name (the original, pre-drift spec).
    pub device: String,
    /// Stream seed.
    pub seed: u64,
    /// Jobs processed.
    pub n_jobs: usize,
    /// Total measured wall time (s).
    pub total_time_s: f64,
    /// Total measured energy (J).
    pub total_energy_j: f64,
    /// Jobs that missed their deadline.
    pub deadline_misses: usize,
    /// `deadline_misses / n_jobs`.
    pub miss_rate: f64,
    /// Jobs that fell back to the default clock (or failed).
    pub fallbacks: usize,
    /// Jobs rejected at the admission queue.
    pub admission_rejected: usize,
    /// Prediction memo-cache counters.
    pub cache: CacheStats,
    /// Device + lifecycle degradation counters
    /// (`lifecycle_fallbacks` counts degraded lifecycle operations).
    pub degradation: DegradationMetrics,
    /// Per-job decisions in arrival order.
    pub decisions: Vec<LifecycleDecision>,
    /// The journaled lifecycle transitions, in commit order (header
    /// excluded).
    pub events: Vec<LifecycleEvent>,
    /// Cumulative per-application drift accounting.
    pub drift: BTreeMap<String, DriftSummary>,
    /// Retrains attempted (successful publishes and failures alike).
    pub retrains: u32,
    /// Canaries promoted.
    pub promotes: u32,
    /// Canaries rolled back.
    pub rollbacks: u32,
}

// ---- Per-app lifecycle state ----

#[derive(Debug, Clone, Copy, Default)]
struct ApeAccum {
    sum: f64,
    n: u64,
}

impl ApeAccum {
    fn add(&mut self, ape: f64) {
        self.sum += ape;
        self.n += 1;
    }

    fn mape(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.sum / self.n as f64
        }
    }
}

enum Phase {
    Stable,
    Canary {
        version: u32,
        model: Box<DomainSpecificModel>,
        canary: ApeAccum,
        incumbent: ApeAccum,
    },
}

struct AppState {
    phase: Phase,
    retrain_seq: u32,
    forced_used: bool,
}

impl AppState {
    fn new() -> Self {
        AppState {
            phase: Phase::Stable,
            retrain_seq: 0,
            forced_used: false,
        }
    }
}

fn canary_key(app: &str) -> String {
    format!("{app}#canary")
}

// ---- Retraining ----

fn retrain_seed(seed: u64, app: &str, seq: u32) -> u64 {
    let mut desc = String::new();
    let _ = fmt::Write::write_fmt(&mut desc, format_args!("retrain:{app}:{seq}"));
    seed ^ fnv1a_64(desc.as_bytes())
}

struct RetrainOutcome {
    model: DomainSpecificModel,
    fingerprint: u64,
}

/// Assembles a quarantine-cleaned, sanitize-gated training set from a
/// crash-resumable characterization campaign on `spec`, and fits a fresh
/// model. Returns a rendered reason on every failure mode — corrupt data
/// and non-finite fits degrade, they do not crash.
fn retrain_app(
    cfg: &LifecycleConfig,
    app: &str,
    seq: u32,
    spec: &DeviceSpec,
    dir: &Path,
) -> Result<RetrainOutcome, String> {
    let freqs = experiment_frequencies(spec, cfg.governor.train_stride);
    let campaign_dir = dir.join(format!("retrain-{app}-{seq:02}"));
    let ccfg = CampaignConfig::new(
        spec.clone(),
        vec![DeviceSlot::healthy("lifecycle-retrain")],
        freqs.clone(),
    );

    // The app's fixed job-configuration set is the training distribution.
    type TrainingSet = (Vec<Box<dyn Workload>>, Vec<Vec<f64>>, Vec<String>);
    let (workloads, features, labels): TrainingSet = match app {
        "cronos" => {
            let set = cronos_job_set();
            (
                set.iter()
                    .map(|c| Box::new(c.workload()) as Box<dyn Workload>)
                    .collect(),
                set.iter().map(|c| c.features()).collect(),
                set.iter().map(|c| c.label()).collect(),
            )
        }
        "ligen" => {
            let set = ligen_job_set();
            (
                set.iter()
                    .map(|c| Box::new(c.workload()) as Box<dyn Workload>)
                    .collect(),
                set.iter().map(|c| c.features()).collect(),
                set.iter().map(|c| c.label()).collect(),
            )
        }
        other => return Err(format!("unknown application {other:?}")),
    };
    let refs: Vec<&dyn Workload> = workloads.iter().map(|w| w.as_ref()).collect();

    // Campaigns resume from their own journal: a retrain interrupted by a
    // crash picks up measurement-for-measurement on replay.
    let outcome =
        run_campaign(&ccfg, &refs, &campaign_dir, true).map_err(|e| format!("campaign: {e}"))?;

    let (cleaned, _quarantine) = quarantine_results(&outcome.results, &cfg.quarantine);
    let mut samples = Vec::new();
    for ((characterization, feats), label) in cleaned.into_iter().zip(features.iter()).zip(labels) {
        let input = CharacterizedInput {
            features: Arc::new(feats.clone()),
            label,
            characterization,
        };
        samples.extend(input.samples());
    }

    // Sanitize gate: non-finite rows always go; MAD outliers go on both
    // the time and the energy target.
    let rows: Vec<Vec<f64>> = samples
        .iter()
        .map(|s| {
            let mut row = s.features.as_ref().clone();
            row.push(s.freq_mhz);
            row
        })
        .collect();
    let times: Vec<f64> = samples.iter().map(|s| s.time_s).collect();
    let energies: Vec<f64> = samples.iter().map(|s| s.energy_j).collect();
    let (_, time_report) =
        Dataset::new(Matrix::from_rows(&rows), times).sanitized(cfg.outlier_mads);
    let (_, energy_report) =
        Dataset::new(Matrix::from_rows(&rows), energies).sanitized(cfg.outlier_mads);
    let mut dropped = time_report.dropped_rows();
    dropped.extend(energy_report.dropped_rows());
    dropped.sort_unstable();
    dropped.dedup();
    for &i in dropped.iter().rev() {
        if i < samples.len() {
            samples.remove(i);
        }
    }

    if samples.len() < cfg.min_train_points {
        return Err(format!(
            "corrupt training data: {} clean samples, {} required",
            samples.len(),
            cfg.min_train_points
        ));
    }

    let seed = retrain_seed(cfg.governor.seed, app, seq);
    let model = DomainSpecificModel::train(&samples, spec.default_core_mhz, seed);

    // Finite-fit validation across the serving envelope.
    let probe_freqs = [
        freqs.first().copied().unwrap_or(spec.default_core_mhz),
        spec.default_core_mhz,
        freqs.last().copied().unwrap_or(spec.default_core_mhz),
    ];
    for feats in &features {
        for &f in &probe_freqs {
            let (t, e) = model.predict_time_energy(feats, f);
            if !(t.is_finite() && e.is_finite() && t > 0.0 && e > 0.0) {
                return Err(format!("non-finite fit: predicted ({t}, {e}) at {f} MHz"));
            }
        }
    }

    let fingerprint = training_fingerprint(&spec.name, spec.default_core_mhz, &freqs, seed);
    Ok(RetrainOutcome { model, fingerprint })
}

// ---- The run ----

/// One job's lifecycle annotations, filled in at admission and after
/// execution.
#[derive(Debug, Clone, Copy)]
struct JobNote {
    channel: ServedChannel,
    predicted_energy_j: Option<f64>,
    ape: Option<f64>,
}

impl JobNote {
    /// A job no channel served a prediction for.
    const UNSERVED: JobNote = JobNote {
        channel: ServedChannel::Stable,
        predicted_energy_j: None,
        ape: None,
    };
}

/// The lifecycle's state, riding on the job loop as its hook (see the
/// module docs for the four hook points).
struct LifecycleHook<'a> {
    cfg: &'a LifecycleConfig,
    registry: &'a ModelRegistry,
    dir: &'a Path,
    journal: ReplayJournal<LifecycleEvent>,
    tracker: ResidualTracker,
    states: BTreeMap<String, AppState>,
    notes: BTreeMap<u64, JobNote>,
    lifecycle_fallbacks: u64,
    retrains: u32,
    promotes: u32,
    rollbacks: u32,
}

impl LoopHook for LifecycleHook<'_> {
    type Error = LifecycleError;

    /// Jobs of an app with an open canary are routed to the canary
    /// channel by a deterministic hash draw on their id.
    fn serve_key(&mut self, app: &'static str, job: &Job) -> String {
        let channel = match self.states.get(app).map(|s| &s.phase) {
            Some(Phase::Canary { version, .. })
                if Schedule::Prob(self.cfg.canary_fraction).fires(
                    self.cfg.governor.seed,
                    STREAM_CANARY ^ u64::from(*version),
                    job.id,
                ) =>
            {
                ServedChannel::Canary
            }
            _ => ServedChannel::Stable,
        };
        self.notes.insert(
            job.id,
            JobNote {
                channel,
                ..JobNote::UNSERVED
            },
        );
        match channel {
            ServedChannel::Canary => canary_key(app),
            ServedChannel::Stable => app.to_string(),
        }
    }

    fn loaded(&mut self, events: Vec<RegistryEvent>) -> Result<(), LifecycleError> {
        for event in events {
            self.journal.commit(LifecycleEvent::Registry { event })?;
        }
        Ok(())
    }

    fn executed(&mut self, record: &DecisionRecord, predicted_energy_j: Option<f64>) {
        let note = self.notes.entry(record.job_id).or_insert(JobNote::UNSERVED);
        if record.fallback == Some(FallbackReason::AdmissionRejected) {
            // A shed job skipped prediction: no channel served it.
            *note = JobNote::UNSERVED;
            return;
        }
        note.predicted_energy_j = predicted_energy_j;
        // Residual: only a clean, completed, predicted execution is a
        // model-quality observation.
        note.ape = match (record.predicted_time_s, predicted_energy_j) {
            (Some(pt), Some(pe)) if record.completed && record.fallback.is_none() => {
                residual_ape(pt, pe, record.measured_time_s, record.measured_energy_j)
            }
            _ => None,
        };
        let Some(ape) = note.ape else {
            return;
        };
        let state = self
            .states
            .entry(record.app.clone())
            .or_insert_with(AppState::new);
        match state.phase {
            Phase::Stable => {
                self.tracker
                    .observe(&record.app, ape, self.cfg.governor.telemetry.as_deref());
            }
            Phase::Canary {
                ref mut canary,
                ref mut incumbent,
                ..
            } => match note.channel {
                ServedChannel::Canary => canary.add(ape),
                ServedChannel::Stable => incumbent.add(ape),
            },
        }
    }

    /// Burst boundary: handle trips, then canary verdicts, in
    /// deterministic app order.
    fn burst_end(
        &mut self,
        at_job: u64,
        engine: &mut PredictionEngine,
    ) -> Result<(), LifecycleError> {
        self.process_trips(at_job, engine)?;
        self.process_verdicts(at_job, engine)
    }
}

impl LifecycleHook<'_> {
    /// Burst-boundary trip handling: forced trips, detector trips, the
    /// retrain, and the journaled canary publish.
    fn process_trips(
        &mut self,
        at_job: u64,
        engine: &mut PredictionEngine,
    ) -> Result<(), LifecycleError> {
        let cfg = self.cfg;
        // Deterministic order: BTreeMap iteration.
        let apps: Vec<String> = self.states.keys().cloned().collect();
        for app in &apps {
            let Some(state) = self.states.get_mut(app) else {
                continue;
            };
            let forced = cfg
                .force_trip
                .as_ref()
                .is_some_and(|ft| ft.app == *app && at_job >= ft.at_job && !state.forced_used);
            let detector_tripped = self
                .tracker
                .detector(app)
                .is_some_and(DriftDetector::tripped);
            if !matches!(state.phase, Phase::Stable) || !(forced || detector_tripped) {
                continue;
            }
            if forced {
                state.forced_used = true;
            }
            state.retrain_seq += 1;
            let seq = state.retrain_seq;
            let (samples, statistic) = self
                .tracker
                .detector(app)
                .map(|d| (d.samples(), d.statistic()))
                .unwrap_or((0, 0.0));
            self.journal.commit(LifecycleEvent::DriftTripped {
                app: app.clone(),
                seq,
                at_job,
                samples,
                statistic_bits: statistic.to_bits(),
            })?;
            self.tracker.reset(app);

            if self.retrains >= cfg.max_retrains {
                self.journal.commit(LifecycleEvent::RetrainFailed {
                    app: app.clone(),
                    seq,
                    reason: format!("retrain budget exhausted ({} used)", cfg.max_retrains),
                })?;
                self.lifecycle_fallbacks += 1;
                continue;
            }
            self.retrains += 1;

            // The retrain characterizes the *current* hardware: the
            // drifted device once the scenario is active, unless
            // sabotaged by the retrain_spec override.
            let effective_spec = match (&cfg.retrain_spec, &cfg.scenario) {
                (Some(spec), _) => spec.clone(),
                (None, Some(sc)) if at_job >= sc.at_job => sc.spec.clone(),
                _ => cfg.governor.spec.clone(),
            };

            match retrain_app(cfg, app, seq, &effective_spec, self.dir) {
                Ok(outcome) => {
                    let version =
                        publish_canary(self.registry, &mut self.journal, app, seq, &outcome)?;
                    engine.install_model(&canary_key(app), outcome.model.clone());
                    if let Some(state) = self.states.get_mut(app) {
                        state.phase = Phase::Canary {
                            version,
                            model: Box::new(outcome.model),
                            canary: ApeAccum::default(),
                            incumbent: ApeAccum::default(),
                        };
                    }
                }
                Err(reason) => {
                    self.journal.commit(LifecycleEvent::RetrainFailed {
                        app: app.clone(),
                        seq,
                        reason,
                    })?;
                    self.lifecycle_fallbacks += 1;
                }
            }
        }
        Ok(())
    }

    /// Burst-boundary verdicts: once both slices have enough
    /// observations, promote or roll back, journaled write-ahead and
    /// cache-invalidated.
    fn process_verdicts(
        &mut self,
        at_job: u64,
        engine: &mut PredictionEngine,
    ) -> Result<(), LifecycleError> {
        let cfg = self.cfg;
        for (app, state) in self.states.iter_mut() {
            let Phase::Canary {
                version,
                ref model,
                canary,
                incumbent,
            } = state.phase
            else {
                continue;
            };
            if canary.n < cfg.min_canary_samples || incumbent.n < cfg.min_incumbent_samples {
                continue;
            }
            let canary_mape = canary.mape();
            let incumbent_mape = incumbent.mape();
            let promote = canary_mape <= incumbent_mape * cfg.promote_margin;
            if promote {
                self.journal.commit(LifecycleEvent::PromoteIntent {
                    app: app.clone(),
                    version,
                    at_job,
                    canary_mape_bits: canary_mape.to_bits(),
                    incumbent_mape_bits: incumbent_mape.to_bits(),
                })?;
                self.journal.sync()?;
                let done = LifecycleEvent::Promoted {
                    app: app.clone(),
                    version,
                };
                if self.journal.next_prior() != Some(&done) {
                    self.registry.promote_version(app, version)?;
                }
                self.journal.commit(done)?;
                // Serving advance: the promoted model replaces the
                // incumbent under the stable key (its memo goes with it),
                // and the canary channel closes.
                engine.install_model(app, model.as_ref().clone());
                engine.remove_model(&canary_key(app));
                self.promotes += 1;
            } else {
                self.journal.commit(LifecycleEvent::RollbackIntent {
                    app: app.clone(),
                    version,
                    at_job,
                    canary_mape_bits: canary_mape.to_bits(),
                    incumbent_mape_bits: incumbent_mape.to_bits(),
                })?;
                self.journal.sync()?;
                let done = LifecycleEvent::RolledBack {
                    app: app.clone(),
                    version,
                };
                if self.journal.next_prior() != Some(&done) {
                    self.registry.rollback_version(app, version)?;
                }
                self.journal.commit(done)?;
                // The incumbent keeps serving untouched; only the canary
                // channel (and its cached profiles) disappears.
                engine.remove_model(&canary_key(app));
                self.rollbacks += 1;
                self.lifecycle_fallbacks += 1;
            }
            state.phase = Phase::Stable;
            self.tracker.reset(app);
        }
        Ok(())
    }
}

/// Runs the closed loop with the adaptive lifecycle armed: the job loop
/// on the governor's one-device plan, with the drift scenario as a twin
/// of device 0 and the lifecycle as the loop's hook. Crash-safe:
/// rerunning with `resume = true` after any abort (including the
/// [`LifecycleConfig::crash_after_appends`] injected crash) replays
/// deterministically, consumes the journal prefix, and converges to the
/// bit-identical report of an uninterrupted run.
pub fn run_lifecycle(
    cfg: &LifecycleConfig,
    registry: &ModelRegistry,
    dir: &Path,
    resume: bool,
) -> Result<LifecycleReport, LifecycleError> {
    let gov = &cfg.governor;
    let mut journal = ReplayJournal::open(&journal_path(dir), resume, cfg.crash_after_appends)?;
    journal.commit(LifecycleEvent::Header {
        version: LIFECYCLE_JOURNAL_VERSION,
        fingerprint: cfg.fingerprint(),
    })?;

    // WAL recovery before replay: a crash between the rollback's two
    // registry steps (retire rename, pointer clear) leaves a dangling
    // canary pointer. Complete any rollback intent without its
    // done-marker now, so the replayed loads observe a
    // protocol-consistent registry (the done-marker itself is appended
    // when replay reaches it).
    let prior = journal.prior();
    for (i, ev) in prior.iter().enumerate() {
        if let LifecycleEvent::RollbackIntent { app, version, .. } = ev {
            let done = prior[i + 1..].iter().any(|e| {
                matches!(
                    e,
                    LifecycleEvent::RolledBack { app: a, version: v } if a == app && v == version
                )
            });
            if !done {
                registry.rollback_version(app, *version)?;
            }
        }
    }

    let mut hook = LifecycleHook {
        cfg,
        registry,
        dir,
        journal,
        tracker: ResidualTracker::new(cfg.drift),
        states: BTreeMap::new(),
        notes: BTreeMap::new(),
        lifecycle_fallbacks: 0,
        retrains: 0,
        promotes: 0,
        rollbacks: 0,
    };
    let mut plan = gov.plan();
    plan.twin = cfg.scenario.clone();
    let run = run_plan(&plan, registry, &mut hook)?;
    hook.journal.finish()?;

    let mut degradation = run.degradation;
    degradation.lifecycle_fallbacks += hook.lifecycle_fallbacks;
    let decisions: Vec<LifecycleDecision> = run
        .decisions
        .into_iter()
        .map(|d| {
            let note = hook
                .notes
                .get(&d.record.job_id)
                .copied()
                .unwrap_or(JobNote::UNSERVED);
            LifecycleDecision {
                record: d.record,
                channel: note.channel,
                predicted_energy_j: note.predicted_energy_j,
                ape: note.ape,
            }
        })
        .collect();
    let events: Vec<LifecycleEvent> = hook
        .journal
        .committed()
        .iter()
        .filter(|e| !matches!(e, LifecycleEvent::Header { .. }))
        .cloned()
        .collect();

    let report = LifecycleReport {
        policy: gov.policy,
        device: gov.spec.name.clone(),
        seed: gov.seed,
        n_jobs: run.n_jobs,
        total_time_s: run.total_time_s,
        total_energy_j: run.total_energy_j,
        deadline_misses: run.deadline_misses,
        miss_rate: run.miss_rate,
        fallbacks: run.fallbacks,
        admission_rejected: run.admission_rejected,
        cache: run.cache,
        degradation,
        decisions,
        events,
        drift: hook.tracker.summary(),
        retrains: hook.retrains,
        promotes: hook.promotes,
        rollbacks: hook.rollbacks,
    };

    // Telemetry is observation-only; the report above is already final.
    if let Some(telemetry) = &gov.telemetry {
        let r = telemetry.registry();
        r.counter("governor.jobs_total").add(report.n_jobs as u64);
        r.counter("governor.deadline_misses")
            .add(report.deadline_misses as u64);
        r.counter("governor.lifecycle.retrains")
            .add(u64::from(report.retrains));
        r.counter("governor.lifecycle.promotes")
            .add(u64::from(report.promotes));
        r.counter("governor.lifecycle.rollbacks")
            .add(u64::from(report.rollbacks));
        r.counter("governor.lifecycle.fallbacks")
            .add(report.degradation.lifecycle_fallbacks);
        r.gauge("governor.total_energy_j")
            .set(report.total_energy_j);
        r.gauge("governor.total_time_s").set(report.total_time_s);
        r.gauge("governor.miss_rate").set(report.miss_rate);
    }

    Ok(report)
}

/// The journaled write-ahead canary publish: intent → artifact →
/// pointer, each step idempotent, each boundary resumable. A side effect
/// runs unless its done-marker is the next committed record (the same
/// rule the verdicts follow).
fn publish_canary(
    registry: &ModelRegistry,
    journal: &mut ReplayJournal<LifecycleEvent>,
    app: &str,
    seq: u32,
    outcome: &RetrainOutcome,
) -> Result<u32, LifecycleError> {
    // On resume, the version allocated before the crash is authoritative
    // — re-deriving it after the artifact write would double-allocate.
    let version = match journal.next_prior() {
        Some(LifecycleEvent::PublishIntent {
            app: a,
            seq: s,
            version,
            ..
        }) if a == app && *s == seq => *version,
        _ => registry.next_version(app)?,
    };
    journal.commit(LifecycleEvent::PublishIntent {
        app: app.to_string(),
        seq,
        version,
        fingerprint: outcome.fingerprint,
    })?;
    journal.sync()?;

    let written = LifecycleEvent::ArtifactWritten {
        app: app.to_string(),
        seq,
        version,
    };
    if journal.next_prior() != Some(&written) {
        registry.publish_at(app, version, &outcome.model, outcome.fingerprint)?;
    }
    journal.commit(written)?;

    let opened = LifecycleEvent::CanaryOpened {
        app: app.to_string(),
        seq,
        version,
    };
    if journal.next_prior() != Some(&opened) {
        registry.set_canary(app, version)?;
    }
    journal.commit(opened)?;
    Ok(version)
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;

    #[test]
    fn detector_ignores_constant_streams() {
        let mut d = DriftDetector::new(DriftConfig::pinned());
        for _ in 0..500 {
            assert!(!d.observe(0.0));
        }
        let mut d = DriftDetector::new(DriftConfig::pinned());
        for _ in 0..500 {
            assert!(!d.observe(0.05));
        }
        assert!(!d.tripped());
    }

    #[test]
    fn detector_trips_on_sustained_shift_and_latches() {
        let mut d = DriftDetector::new(DriftConfig::pinned());
        for _ in 0..10 {
            d.observe(0.01);
        }
        let mut tripped_at = None;
        for i in 0..20 {
            if d.observe(0.5) {
                tripped_at = Some(i);
                break;
            }
        }
        let at = tripped_at.expect("sustained 50% residual must trip");
        assert!(at < 5, "tripped only after {at} drift samples");
        // Latched: the edge fires once.
        assert!(!d.observe(0.5));
        assert!(d.tripped());
        d.reset();
        assert!(!d.tripped());
        assert_eq!(d.samples(), 0);
    }

    #[test]
    fn residual_ape_takes_the_worse_axis_and_rejects_nonsense() {
        let ape = residual_ape(1.0, 10.0, 1.0, 20.0).unwrap();
        assert!((ape - 0.5).abs() < 1e-12);
        let ape = residual_ape(2.0, 10.0, 1.0, 10.0).unwrap();
        assert!((ape - 1.0).abs() < 1e-12);
        assert!(residual_ape(f64::NAN, 10.0, 1.0, 10.0).is_none());
        assert!(residual_ape(1.0, 10.0, 0.0, 10.0).is_none());
    }

    #[test]
    fn efficiency_drift_touches_only_power() {
        let spec = DeviceSpec::v100();
        let drifted = efficiency_drift(&spec);
        assert_eq!(spec.name, drifted.name);
        assert_eq!(spec.default_core_mhz, drifted.default_core_mhz);
        assert!(drifted.core_power_w > spec.core_power_w);
        assert!(drifted.tdp_w > spec.tdp_w);
    }
}
