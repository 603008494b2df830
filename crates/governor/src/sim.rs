//! The single-device governor: the job stream, the offline phase, and
//! the one-device run of the crate's job loop.
//!
//! ## Shape of a run
//!
//! [`train_and_publish`] plays the offline phase: characterize the fixed
//! job-configuration sets noiselessly, train one [`DomainSpecificModel`]
//! per application, and publish both into a [`ModelRegistry`] under a
//! training fingerprint derived from `(device, default clock, sweep,
//! seed)`. [`run_governor`] then plays the online phase against that
//! registry. It has no loop of its own: it turns its [`GovernorConfig`]
//! into a private one-device run plan and runs the fleet's job loop
//! (`crate::fleet`) on it. The plan serves the plain `cronos`/`ligen`
//! artifacts, allows one execution attempt per job, and holds a breaker
//! that never trips, so a failed launch fails its job and the device
//! keeps serving the stream. A run, step by step:
//!
//! 1. a seeded stream of jobs arrives in bursts of 1–3, each job drawn
//!    from the fixed configuration sets with a per-job deadline (default
//!    clock time × a slack factor drawn from `cfg.slack`);
//! 2. each job's prediction request passes through the admission-controlled
//!    [`PredictionEngine`](crate::serving::PredictionEngine); models are
//!    loaded lazily from the registry (envelope- and fingerprint-verified,
//!    newest healthy version first) the first time an application needs
//!    one;
//! 3. the policy picks a clock from the predicted Pareto set; the job's
//!    recorded [`KernelTrace`] is replayed on the `gpu-sim` device
//!    through the fallible SYnergy backend path under that clock;
//! 4. anything that goes wrong — model missing from the registry, load
//!    fault, stale training fingerprint, admission overflow, rejected
//!    clock request, failed launch — degrades the job to the default
//!    clock (or records the failure) and the run continues. The loop
//!    never deadlocks on a bad model or a flaky device.
//!
//! ## Contracts
//!
//! *Determinism*: every decision and measurement is a pure function of
//! `(seed, policies, fault plans)`. The arrival stream, slack draws, and
//! fault schedules all use seeded stateless generators.
//!
//! *Telemetry inertness*: an armed `cfg.telemetry` sink observes counters
//! after the fact; [`GovernorReport::decisions`] and every measured
//! number are bit-identical with telemetry armed or absent.

// The governor must degrade, not die: no unwraps on the runtime path.
#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::sync::Arc;

use energy_model::characterize::Workload;
use energy_model::telemetry::Telemetry;
use energy_model::workflow::{
    characterize_cronos, characterize_ligen, experiment_frequencies, training_set,
    CharacterizedInput,
};
use energy_model::{BreakerConfig, CronosInput, DomainSpecificModel, LigenInput};
use gpu_sim::{Device, DeviceSpec, FaultPlan, Schedule};
use serde::Serialize;
use synergy::{FrequencyPolicy, KernelTrace, SynergyQueue};

use crate::fleet::{
    class_fingerprint, run_plan, FleetConfig, FleetDevice, Placement, RunPlan, StealPolicy,
};
use crate::policy::Policy;
use crate::registry::{ModelRegistry, RegistryError};
use crate::serving::CacheStats;

/// The pinned experiment seed shared with the offline benchmarks.
pub const GOVERNOR_SEED: u64 = 20231112;

/// The fixed Cronos job-configuration set (also the training set: the
/// governor serves the input distribution it was characterized on).
pub fn cronos_job_set() -> Vec<CronosInput> {
    vec![
        CronosInput::new(16, 16, 16),
        CronosInput::new(24, 24, 24),
        CronosInput::new(32, 24, 16),
        CronosInput::new(32, 32, 32),
    ]
}

/// The fixed LiGen job-configuration set.
pub fn ligen_job_set() -> Vec<LigenInput> {
    vec![
        LigenInput::new(1000, 40, 8),
        LigenInput::new(2000, 60, 12),
        LigenInput::new(4000, 89, 20),
        LigenInput::new(8000, 50, 10),
    ]
}

/// Deterministic fault injection on the *model* path, mirroring the
/// device-side `gpu_sim::FaultPlan`: schedules are interpreted over a
/// counter of registry load attempts with a seeded stateless stream.
#[derive(Debug, Clone, Default)]
pub struct ModelFaults {
    /// Seed of the probabilistic schedules.
    pub seed: u64,
    /// Registry load attempts that fail outright (I/O-style failure).
    pub load_failures: Schedule,
    /// Registry load attempts that surface a stale training fingerprint.
    pub stale_fingerprints: Schedule,
}

impl ModelFaults {
    /// The inert plan: every load succeeds.
    pub fn none() -> Self {
        ModelFaults::default()
    }
}

pub(crate) const STREAM_LOAD_FAIL: u64 = 11;
pub(crate) const STREAM_STALE: u64 = 12;

/// Sequential splitmix64 — drives the arrival stream and slack draws.
pub(crate) struct SplitMix64(u64);

impl SplitMix64 {
    pub(crate) fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub(crate) fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    pub(crate) fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Configuration of one governor run.
#[derive(Clone)]
pub struct GovernorConfig {
    /// The simulated device.
    pub spec: DeviceSpec,
    /// The frequency-selection policy under test.
    pub policy: Policy,
    /// Number of jobs in the arrival stream.
    pub n_jobs: usize,
    /// Seed of the arrival stream and slack draws (also the training
    /// seed [`train_and_publish`] fingerprints models under).
    pub seed: u64,
    /// Per-job deadline slack range: deadline = default-clock time × a
    /// uniform draw from `[slack.0, slack.1]`.
    pub slack: (f64, f64),
    /// Safety factor applied to the deadline the policy plans against
    /// (< 1 leaves headroom for prediction error).
    pub deadline_safety: f64,
    /// Admission queue capacity of the serving engine.
    pub queue_capacity: usize,
    /// Maximum requests served per drain call.
    pub max_batch: usize,
    /// Stride thinning the serving-time frequency sweep.
    pub freq_stride: usize,
    /// Stride thinning the training characterization sweep.
    pub train_stride: usize,
    /// Device-side fault injection (clock rejections, launch failures…).
    pub device_faults: FaultPlan,
    /// Model-path fault injection (load failures, stale fingerprints).
    pub model_faults: ModelFaults,
    /// Optional metrics sink; arming it must not change any result.
    pub telemetry: Option<Arc<Telemetry>>,
}

impl GovernorConfig {
    /// The pinned configuration the regression guard and the `figures
    /// govern` experiment run: V100, seed [`GOVERNOR_SEED`], 40 jobs, no
    /// faults.
    pub fn pinned(policy: Policy) -> Self {
        GovernorConfig {
            spec: DeviceSpec::v100(),
            policy,
            n_jobs: 40,
            seed: GOVERNOR_SEED,
            slack: (1.15, 1.6),
            deadline_safety: 0.92,
            queue_capacity: 8,
            max_batch: 4,
            freq_stride: 2,
            train_stride: 2,
            device_faults: FaultPlan::none(),
            model_faults: ModelFaults::none(),
            telemetry: None,
        }
    }

    /// The private one-device run plan this configuration executes on
    /// the fleet's job loop: the plain `cronos`/`ligen` artifacts, one
    /// execution attempt per job, and a breaker that never trips — a
    /// failed launch fails its job, and the only device keeps serving.
    pub(crate) fn plan(&self) -> RunPlan {
        RunPlan {
            fleet: FleetConfig {
                devices: vec![FleetDevice::new(&self.spec.name, self.spec.clone())],
                policy: self.policy,
                placement: Placement::MinPredictedEnergy,
                steal: StealPolicy::Disabled,
                n_jobs: self.n_jobs,
                seed: self.seed,
                slack: self.slack,
                deadline_safety: self.deadline_safety,
                queue_capacity: self.queue_capacity,
                max_batch: self.max_batch,
                freq_stride: self.freq_stride,
                train_stride: self.train_stride,
                breaker: BreakerConfig {
                    failure_threshold: u32::MAX,
                    ..BreakerConfig::default()
                },
                max_attempts: 1,
                device_faults: self.device_faults.clone(),
                model_faults: self.model_faults.clone(),
                // Each entry point exports its own telemetry names.
                telemetry: None,
            },
            per_class_artifacts: false,
            twin: None,
        }
    }
}

/// Characterizes the fixed job sets noiselessly, trains the two
/// domain-specific models, and publishes them into `registry` under the
/// run's training fingerprint. Returns that fingerprint — what
/// [`run_governor`] will demand of the artifacts it loads.
pub fn train_and_publish(
    cfg: &GovernorConfig,
    registry: &ModelRegistry,
) -> Result<u64, RegistryError> {
    publish_models(
        &cfg.spec,
        cfg.train_stride,
        cfg.seed,
        registry,
        str::to_string,
    )
}

/// Characterizes the fixed job sets on `spec` noiselessly, trains one
/// domain-specific model per application, and publishes each into
/// `registry` as `name(app)` under `spec`'s training fingerprint, which
/// it returns.
pub(crate) fn publish_models(
    spec: &DeviceSpec,
    train_stride: usize,
    seed: u64,
    registry: &ModelRegistry,
    name: impl Fn(&str) -> String,
) -> Result<u64, RegistryError> {
    let freqs = experiment_frequencies(spec, train_stride);
    let fingerprint = class_fingerprint(spec, train_stride, seed);
    let train = |chars: &[CharacterizedInput]| {
        DomainSpecificModel::train(&training_set(chars), spec.default_core_mhz, seed)
    };

    let cronos = train(&characterize_cronos(
        spec,
        &cronos_job_set(),
        &freqs,
        1,
        None,
    ));
    registry.publish(&name("cronos"), &cronos, fingerprint)?;
    let ligen = train(&characterize_ligen(spec, &ligen_job_set(), &freqs, 1, None));
    registry.publish(&name("ligen"), &ligen, fingerprint)?;
    Ok(fingerprint)
}

/// Why a job ran at the default clock (or failed) instead of at the
/// policy's chosen frequency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum FallbackReason {
    /// The registry has no published model for the application.
    ModelMissing,
    /// A model-load fault fired on the registry read.
    LoadFailed,
    /// The artifact's training fingerprint did not match this run.
    StaleArtifact,
    /// The admission queue was full; the job skipped prediction.
    AdmissionRejected,
    /// The device rejected the clock request; the retry path fell back.
    FrequencyRejected,
    /// A kernel launch failed permanently; the job did not complete.
    LaunchFailed,
    /// The job landed (by stealing or rescheduling) on a device class
    /// with no matching model artifact; device affinity forced the
    /// default clock. Only a fleet run produces this.
    AffinityDegraded,
}

/// One job's complete decision trail.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct DecisionRecord {
    /// Arrival-order job id.
    pub job_id: u64,
    /// Application (`"cronos"` / `"ligen"`).
    pub app: String,
    /// Input-configuration label.
    pub label: String,
    /// Clock the policy requested; `None` = default clock.
    pub requested_mhz: Option<f64>,
    /// Why the request was not honored (absent on the happy path).
    pub fallback: Option<FallbackReason>,
    /// The job's deadline (s).
    pub deadline_s: f64,
    /// Model-predicted wall time at the chosen clock, when a prediction
    /// was served.
    pub predicted_time_s: Option<f64>,
    /// Measured wall time (s); 0 for jobs that failed to complete.
    pub measured_time_s: f64,
    /// Measured energy (J); 0 for jobs that failed to complete.
    pub measured_energy_j: f64,
    /// Whether the job completed (launch faults can kill it).
    pub completed: bool,
    /// Whether the job completed within its deadline.
    pub met_deadline: bool,
}

/// The result of one governor run.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct GovernorReport {
    /// Policy the run executed.
    pub policy: Policy,
    /// Device name.
    pub device: String,
    /// Stream seed.
    pub seed: u64,
    /// Jobs processed.
    pub n_jobs: usize,
    /// Total measured wall time (s).
    pub total_time_s: f64,
    /// Total measured energy (J).
    pub total_energy_j: f64,
    /// Jobs that missed their deadline (incl. failed jobs).
    pub deadline_misses: usize,
    /// `deadline_misses / n_jobs`.
    pub miss_rate: f64,
    /// Jobs that fell back to the default clock (or failed).
    pub fallbacks: usize,
    /// Jobs rejected at the admission queue.
    pub admission_rejected: usize,
    /// Prediction memo-cache counters.
    pub cache: CacheStats,
    /// Clock requests the device rejected (from queue degradation).
    pub frequency_rejections: u64,
    /// Retry-path default-clock fallbacks (from queue degradation).
    pub default_clock_fallbacks: u64,
    /// Per-job decision trail, in arrival order.
    pub decisions: Vec<DecisionRecord>,
}

pub(crate) struct JobTemplate {
    pub(crate) app: &'static str,
    pub(crate) label: String,
    pub(crate) features: Vec<f64>,
    pub(crate) trace: KernelTrace,
    pub(crate) base_time_s: f64,
}

#[derive(Debug, Clone, Copy)]
pub(crate) struct Job {
    pub(crate) id: u64,
    pub(crate) template: usize,
    pub(crate) deadline_s: f64,
}

pub(crate) fn build_templates(spec: &DeviceSpec) -> Vec<JobTemplate> {
    let mut templates = Vec::new();
    for cfg in cronos_job_set() {
        templates.push(JobTemplate {
            app: "cronos",
            label: cfg.label(),
            features: cfg.features(),
            trace: cfg.workload().record(spec),
            base_time_s: 0.0,
        });
    }
    for cfg in ligen_job_set() {
        templates.push(JobTemplate {
            app: "ligen",
            label: cfg.label(),
            features: cfg.features(),
            trace: cfg.workload().record(spec),
            base_time_s: 0.0,
        });
    }
    // Default-clock reference times on a clean, faultless device: the
    // deadline anchor must not depend on the run's fault plan.
    let mut queue = SynergyQueue::for_device(Device::new(spec.clone()));
    queue.set_policy(FrequencyPolicy::DeviceDefault);
    for t in &mut templates {
        t.base_time_s = t.trace.replay_on(&mut queue).time_s;
    }
    templates
}

pub(crate) fn generate_stream(
    seed: u64,
    n_jobs: usize,
    slack: (f64, f64),
    templates: &[JobTemplate],
) -> Vec<Vec<Job>> {
    let mut rng = SplitMix64::new(seed);
    let (lo, hi) = slack;
    let mut bursts: Vec<Vec<Job>> = Vec::new();
    let mut id = 0u64;
    while (id as usize) < n_jobs {
        let burst_len = (1 + rng.below(3)).min((n_jobs - id as usize) as u64);
        let mut burst = Vec::with_capacity(burst_len as usize);
        for _ in 0..burst_len {
            let template = rng.below(templates.len() as u64) as usize;
            let slack = lo + rng.unit() * (hi - lo);
            burst.push(Job {
                id,
                template,
                deadline_s: templates[template].base_time_s * slack,
            });
            id += 1;
        }
        bursts.push(burst);
    }
    bursts
}

/// Runs the closed loop against a registry populated by
/// [`train_and_publish`] (or deliberately empty, to exercise fallback):
/// the fleet's job loop on this configuration's one-device plan.
/// Infallible by design: every failure mode becomes a recorded
/// [`FallbackReason`], not an error.
pub fn run_governor(cfg: &GovernorConfig, registry: &ModelRegistry) -> GovernorReport {
    let Ok(run) = run_plan(&cfg.plan(), registry, &mut ());
    let report = GovernorReport {
        policy: cfg.policy,
        device: cfg.spec.name.clone(),
        seed: cfg.seed,
        n_jobs: run.n_jobs,
        total_time_s: run.total_time_s,
        total_energy_j: run.total_energy_j,
        deadline_misses: run.deadline_misses,
        miss_rate: run.miss_rate,
        fallbacks: run.fallbacks,
        admission_rejected: run.admission_rejected,
        cache: run.cache,
        frequency_rejections: run.degradation.frequency_rejections,
        default_clock_fallbacks: run.degradation.default_clock_fallbacks,
        decisions: run.decisions.into_iter().map(|d| d.record).collect(),
    };

    // Telemetry is observation-only: armed or not, the report above is
    // already complete and bit-identical.
    if let Some(telemetry) = &cfg.telemetry {
        let registry = telemetry.registry();
        registry
            .counter("governor.jobs_total")
            .add(report.n_jobs as u64);
        registry
            .counter("governor.deadline_misses")
            .add(report.deadline_misses as u64);
        registry
            .counter("governor.fallbacks")
            .add(report.fallbacks as u64);
        registry
            .counter("governor.admission_rejected")
            .add(report.admission_rejected as u64);
        registry
            .counter("governor.cache_hits")
            .add(report.cache.hits);
        registry
            .counter("governor.cache_misses")
            .add(report.cache.misses);
        registry
            .counter("governor.frequency_rejections")
            .add(report.frequency_rejections);
        registry
            .gauge("governor.total_energy_j")
            .set(report.total_energy_j);
        registry
            .gauge("governor.total_time_s")
            .set(report.total_time_s);
        registry.gauge("governor.miss_rate").set(report.miss_rate);
        registry
            .gauge("governor.cache_hit_rate")
            .set(report.cache.hit_rate());
    }

    report
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;

    fn fast_cfg(policy: Policy) -> GovernorConfig {
        let mut cfg = GovernorConfig::pinned(policy);
        cfg.n_jobs = 10;
        cfg.freq_stride = 8;
        cfg.train_stride = 8;
        cfg
    }

    #[test]
    fn stream_is_deterministic_and_covers_both_apps() {
        let cfg = fast_cfg(Policy::DefaultClock);
        let templates = build_templates(&cfg.spec);
        let a = generate_stream(cfg.seed, cfg.n_jobs, cfg.slack, &templates);
        let b = generate_stream(cfg.seed, cfg.n_jobs, cfg.slack, &templates);
        let ids = |bursts: &[Vec<Job>]| -> Vec<(u64, usize, u64)> {
            bursts
                .iter()
                .flatten()
                .map(|j| (j.id, j.template, j.deadline_s.to_bits()))
                .collect()
        };
        assert_eq!(ids(&a), ids(&b));
        assert_eq!(ids(&a).len(), cfg.n_jobs);
    }

    #[test]
    fn empty_registry_degrades_every_job_to_default_clock() {
        let dir = std::env::temp_dir().join("governor-sim-empty-registry");
        let _ = std::fs::remove_dir_all(&dir);
        let registry = ModelRegistry::open(&dir);
        let cfg = fast_cfg(Policy::MinEnergyUnderDeadline);
        let report = run_governor(&cfg, &registry);
        assert_eq!(report.n_jobs, cfg.n_jobs);
        assert_eq!(report.fallbacks, cfg.n_jobs);
        assert!(report
            .decisions
            .iter()
            .all(|d| d.fallback == Some(FallbackReason::ModelMissing)));
        assert!(report.decisions.iter().all(|d| d.requested_mhz.is_none()));
        // Default-clock execution with generous slack never misses.
        assert_eq!(report.deadline_misses, 0);
    }
}
