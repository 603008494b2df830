//! Governor end-to-end suite: registry round-trips, chaos under model-
//! and device-side fault injection, golden determinism, telemetry
//! inertness, and the closed-loop regression guard.
//!
//! Three contracts from the crate docs, pinned here:
//!
//! * **Typed degradation** — corrupt, version-skewed, or stale artifacts
//!   come back as typed errors; at run time every failure mode converges
//!   to the default-clock baseline instead of wedging the loop.
//! * **Determinism** — the decision stream is a pure function of
//!   `(seed, fault plans, policy)`; armed telemetry changes nothing.
//! * **The headline** — on the pinned seed, `min-energy-under-deadline`
//!   saves ≥ 10% energy versus `default-clock` at no worse a deadline
//!   miss rate (the number `figures govern` records in
//!   `results/governor/summary.json`).
//!
//! The expensive fixtures (trained models, published registry) are built
//! once per test binary behind a lazy lock.

use std::path::PathBuf;
use std::sync::{Arc, OnceLock};

use energy_model::telemetry::Telemetry;
use energy_model::{ArtifactError, ModelArtifact};
use governor::{
    run_governor, train_and_publish, FallbackReason, GovernorConfig, ModelFaults, ModelRegistry,
    Policy, RegistryError,
};
use gpu_sim::{FaultPlan, Schedule};

/// One pinned-config registry shared by every test in this binary:
/// training the two models is by far the dominant cost, so pay it once.
fn shared_registry() -> &'static (ModelRegistry, u64) {
    static SHARED: OnceLock<(ModelRegistry, u64)> = OnceLock::new();
    SHARED.get_or_init(|| {
        let dir = test_dir("shared-registry");
        let registry = ModelRegistry::open(&dir);
        let fingerprint =
            train_and_publish(&GovernorConfig::pinned(Policy::DefaultClock), &registry)
                .expect("train and publish pinned models");
        (registry, fingerprint)
    })
}

fn test_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("governor-e2e-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn pinned(policy: Policy) -> GovernorConfig {
    GovernorConfig::pinned(policy)
}

/// A faster configuration for the chaos/determinism tests that don't
/// need the pinned stream (they still share the pinned-trained models).
fn quick(policy: Policy) -> GovernorConfig {
    let mut cfg = pinned(policy);
    cfg.n_jobs = 16;
    cfg.freq_stride = 4;
    cfg
}

// ---------------------------------------------------------------------
// Registry round-trip and typed rejection
// ---------------------------------------------------------------------

#[test]
fn registry_round_trip_is_lossless() {
    let (registry, fingerprint) = shared_registry();
    let (model, artifact, version) = registry
        .load_expecting("ligen", None, *fingerprint)
        .expect("load published model");
    assert_eq!(version, 1);
    assert_eq!(artifact.name, "ligen");

    // Lossless: the reloaded model predicts bit-identically to a fresh
    // in-memory round-trip of the same payload.
    let direct = energy_model::DomainSpecificModel::from_json(&model.to_json())
        .expect("round-trip via JSON");
    let features = [4000.0, 20.0, 89.0];
    for freq in [600.0, 1000.0, 1312.5] {
        let a = model.predict_time_energy(&features, freq);
        let b = direct.predict_time_energy(&features, freq);
        assert_eq!(a.0.to_bits(), b.0.to_bits());
        assert_eq!(a.1.to_bits(), b.1.to_bits());
    }
}

#[test]
fn registry_rejects_corruption_version_skew_and_staleness() {
    let (registry, fingerprint) = shared_registry();

    // Stale fingerprint → typed Fingerprint error.
    let err = registry
        .load_expecting("cronos", None, fingerprint ^ 1)
        .expect_err("fingerprint skew must be rejected");
    assert!(matches!(
        err,
        RegistryError::Artifact {
            source: ArtifactError::Fingerprint { .. },
            ..
        }
    ));

    // Corrupted payload → typed Digest error. Copy the artifact into a
    // scratch registry and flip payload bytes.
    let scratch = test_dir("corrupt-registry");
    let cronos_dir = scratch.join("cronos");
    std::fs::create_dir_all(&cronos_dir).expect("scratch registry dir");
    let source = registry.root().join("cronos").join("v0001.json");
    let text = std::fs::read_to_string(&source).expect("read published artifact");
    // Flip payload content (the escaped model JSON) without breaking the
    // envelope's own JSON: the digest check must catch it.
    std::fs::write(
        cronos_dir.join("v0001.json"),
        text.replacen("algorithm", "algoXithm", 1),
    )
    .expect("write corrupted artifact");
    let corrupt = ModelRegistry::open(&scratch);
    let err = corrupt
        .load("cronos", None)
        .expect_err("corruption must be rejected");
    assert!(matches!(
        err,
        RegistryError::Artifact {
            source: ArtifactError::Digest { .. } | ArtifactError::Malformed(_),
            ..
        }
    ));

    // Version skew → typed Version error.
    let skew_dir = test_dir("skew-registry");
    std::fs::create_dir_all(skew_dir.join("cronos")).expect("skew registry dir");
    let artifact = ModelArtifact::load(&source).expect("load artifact envelope");
    let skewed = text.replace(
        &format!("\"schema_version\": {}", artifact.schema_version),
        &format!("\"schema_version\": {}", artifact.schema_version + 1),
    );
    std::fs::write(skew_dir.join("cronos").join("v0001.json"), skewed)
        .expect("write skewed artifact");
    let err = ModelRegistry::open(&skew_dir)
        .load("cronos", None)
        .expect_err("version skew must be rejected");
    assert!(matches!(
        err,
        RegistryError::Artifact {
            source: ArtifactError::Version { .. },
            ..
        }
    ));

    // Missing model / missing version → typed not-found errors.
    assert!(matches!(
        registry.load("nonexistent", None),
        Err(RegistryError::NotFound { .. })
    ));
    assert!(matches!(
        registry.load("cronos", Some(99)),
        Err(RegistryError::VersionNotFound { version: 99, .. })
    ));
}

#[test]
fn publishing_allocates_monotone_versions() {
    let (registry, fingerprint) = shared_registry();
    let (model, _, v1) = registry.load("cronos", None).expect("load v1");
    let scratch = test_dir("versions-registry");
    let fresh = ModelRegistry::open(&scratch);
    assert_eq!(
        fresh.publish("cronos", &model, *fingerprint).expect("v1"),
        1
    );
    assert_eq!(
        fresh.publish("cronos", &model, *fingerprint).expect("v2"),
        2
    );
    assert_eq!(fresh.versions("cronos").expect("versions"), vec![1, 2]);
    assert_eq!(fresh.latest("cronos").expect("latest"), 2);
    assert_eq!(v1, 1);
}

#[test]
fn a_corrupt_newest_version_serves_the_newest_healthy_one() {
    let (registry, fingerprint) = shared_registry();
    // A scratch registry holding each published model twice, with the
    // newer copy's payload corrupted on disk.
    let scratch = ModelRegistry::open(&test_dir("corrupt-newest-registry"));
    for app in ["cronos", "ligen"] {
        let (model, _, _) = registry.load(app, None).expect("load published model");
        assert_eq!(scratch.publish(app, &model, *fingerprint).expect("v1"), 1);
        assert_eq!(scratch.publish(app, &model, *fingerprint).expect("v2"), 2);
        let v2 = scratch.root().join(app).join("v0002.json");
        let text = std::fs::read_to_string(&v2).expect("read v2");
        std::fs::write(&v2, text.replacen("algorithm", "algoXithm", 1)).expect("corrupt v2");
    }

    // The loader walks past the corrupt version to the healthy one: no
    // job falls back, and the run is the run on the clean registry.
    let cfg = quick(Policy::MinEnergyUnderDeadline);
    let report = run_governor(&cfg, &scratch);
    assert!(report
        .decisions
        .iter()
        .all(|d| d.fallback != Some(FallbackReason::LoadFailed)));
    assert_eq!(report, run_governor(&cfg, registry));
}

// ---------------------------------------------------------------------
// Golden determinism and telemetry inertness
// ---------------------------------------------------------------------

#[test]
fn inert_runs_are_bit_identical_across_replays() {
    let (registry, _) = shared_registry();
    for policy in Policy::all() {
        let cfg = quick(policy);
        let a = run_governor(&cfg, registry);
        let b = run_governor(&cfg, registry);
        assert_eq!(a, b, "policy {} must replay bit-identically", policy.name());
    }
}

#[test]
fn different_seeds_give_different_streams() {
    let (registry, _) = shared_registry();
    let a = run_governor(&quick(Policy::MinEnergyUnderDeadline), registry);
    let mut cfg = quick(Policy::MinEnergyUnderDeadline);
    cfg.seed ^= 0xABCD;
    let b = run_governor(&cfg, registry);
    assert_ne!(a.decisions, b.decisions);
}

#[test]
fn armed_telemetry_leaves_results_bit_identical() {
    let (registry, _) = shared_registry();
    let inert = run_governor(&quick(Policy::MinEnergyUnderDeadline), registry);

    let telemetry = Telemetry::new();
    let mut cfg = quick(Policy::MinEnergyUnderDeadline);
    cfg.telemetry = Some(Arc::clone(&telemetry));
    let armed = run_governor(&cfg, registry);

    // The report carries no telemetry handle, so PartialEq covers every
    // decision and measurement.
    assert_eq!(inert, armed);

    // And the sink actually observed the run.
    let jobs = telemetry.registry().counter("governor.jobs_total").get();
    assert_eq!(jobs as usize, armed.n_jobs);
    assert_eq!(
        telemetry.registry().gauge("governor.total_energy_j").get(),
        armed.total_energy_j
    );
}

// ---------------------------------------------------------------------
// Chaos: fault injection on the model and device paths
// ---------------------------------------------------------------------

#[test]
fn set_frequency_faults_degrade_without_deadlock() {
    let (registry, _) = shared_registry();
    let mut cfg = quick(Policy::MinEnergyUnderDeadline);
    cfg.device_faults = FaultPlan::seeded(7).reject_set_frequency(Schedule::Prob(0.3));
    let report = run_governor(&cfg, registry);

    // Every job completed and was recorded; nothing wedged.
    assert_eq!(report.n_jobs, cfg.n_jobs);
    assert_eq!(report.decisions.len(), cfg.n_jobs);
    assert!(report.decisions.iter().all(|d| d.completed));

    // Chosen clocks always come from the device's supported table.
    for d in &report.decisions {
        if let Some(freq) = d.requested_mhz {
            assert!(
                cfg.spec.core_freqs.contains(freq),
                "requested {freq} MHz is not a supported clock"
            );
        }
    }

    // The runs replay deterministically even under faults.
    let replay = run_governor(&cfg, registry);
    assert_eq!(report, replay);
}

#[test]
fn rejected_clocks_ride_the_retry_path_to_default() {
    let (registry, _) = shared_registry();
    let mut cfg = quick(Policy::MinEnergyUnderDeadline);
    // Reject every set-frequency call: each governed job's clock request
    // exhausts its retries and falls back to the default clock.
    cfg.device_faults = FaultPlan::seeded(11).reject_set_frequency(Schedule::Prob(1.0));
    let report = run_governor(&cfg, registry);
    assert!(report.decisions.iter().all(|d| d.completed));
    assert!(report.default_clock_fallbacks > 0);
    assert!(report
        .decisions
        .iter()
        .filter(|d| d.requested_mhz.is_some())
        .all(|d| d.fallback == Some(FallbackReason::FrequencyRejected)));
}

#[test]
fn all_model_loads_failing_converges_to_default_clock_baseline() {
    let (registry, _) = shared_registry();

    let baseline = run_governor(&quick(Policy::DefaultClock), registry);

    let mut cfg = quick(Policy::MinEnergyUnderDeadline);
    cfg.model_faults = ModelFaults {
        seed: 3,
        load_failures: Schedule::Prob(1.0),
        stale_fingerprints: Schedule::Never,
    };
    let degraded = run_governor(&cfg, registry);

    // Every job fell back…
    assert_eq!(degraded.fallbacks, cfg.n_jobs);
    assert!(degraded
        .decisions
        .iter()
        .all(|d| d.fallback == Some(FallbackReason::LoadFailed)));
    // …and the measurement side is bit-identical to the baseline policy.
    for (a, b) in baseline.decisions.iter().zip(&degraded.decisions) {
        assert_eq!(a.measured_time_s.to_bits(), b.measured_time_s.to_bits());
        assert_eq!(a.measured_energy_j.to_bits(), b.measured_energy_j.to_bits());
    }
    assert_eq!(
        baseline.total_energy_j.to_bits(),
        degraded.total_energy_j.to_bits()
    );
}

#[test]
fn stale_fingerprint_faults_fall_back_and_recover() {
    let (registry, _) = shared_registry();
    let mut cfg = quick(Policy::MinEnergyUnderDeadline);
    // The first few load attempts see a stale artifact; later attempts
    // succeed, so the governor recovers mid-stream.
    cfg.model_faults = ModelFaults {
        seed: 5,
        load_failures: Schedule::Never,
        stale_fingerprints: Schedule::at([0, 1, 2]),
    };
    let report = run_governor(&cfg, registry);
    let stale = report
        .decisions
        .iter()
        .filter(|d| d.fallback == Some(FallbackReason::StaleArtifact))
        .count();
    assert!(stale > 0, "stale-artifact fallbacks must be recorded");
    assert!(
        report.decisions.iter().any(|d| d.requested_mhz.is_some()),
        "governor must recover once loads succeed"
    );
    assert_eq!(report, run_governor(&cfg, registry));
}

#[test]
fn admission_overflow_sheds_load_visibly() {
    let (registry, _) = shared_registry();
    let mut cfg = quick(Policy::MinEnergyUnderDeadline);
    cfg.queue_capacity = 1; // bursts of 2–3 must overflow
    let report = run_governor(&cfg, registry);
    assert!(report.admission_rejected > 0);
    assert_eq!(
        report
            .decisions
            .iter()
            .filter(|d| d.fallback == Some(FallbackReason::AdmissionRejected))
            .count(),
        report.admission_rejected
    );
    // Shed jobs still ran (at the default clock) and were recorded.
    assert_eq!(report.decisions.len(), cfg.n_jobs);
    assert!(report.decisions.iter().all(|d| d.completed));
}

// ---------------------------------------------------------------------
// The closed-loop headline (the CI regression guard)
// ---------------------------------------------------------------------

#[test]
fn pinned_stream_saves_ten_percent_energy_at_no_worse_miss_rate() {
    let (registry, _) = shared_registry();
    let baseline = run_governor(&pinned(Policy::DefaultClock), registry);
    let governed = run_governor(&pinned(Policy::MinEnergyUnderDeadline), registry);

    assert_eq!(baseline.n_jobs, 40);
    assert_eq!(governed.n_jobs, 40);

    let saved = 1.0 - governed.total_energy_j / baseline.total_energy_j;
    assert!(
        saved >= 0.10,
        "min-energy-under-deadline must save ≥10% energy vs default-clock \
         on the pinned seed; got {:.1}% ({:.1} J vs {:.1} J)",
        100.0 * saved,
        governed.total_energy_j,
        baseline.total_energy_j
    );
    assert!(
        governed.miss_rate <= baseline.miss_rate,
        "governed miss rate {:.3} exceeds baseline {:.3}",
        governed.miss_rate,
        baseline.miss_rate
    );
    // The memo cache earns its keep on the repetitive pinned stream.
    assert!(governed.cache.hits > 0);
}

// ---------------------------------------------------------------------
// Launch failures: one execution attempt per job, recorded as failed
// ---------------------------------------------------------------------

#[test]
fn launch_failures_fail_their_jobs_without_retry_on_the_pinned_stream() {
    let (registry, _) = shared_registry();
    let mut cfg = pinned(Policy::MinEnergyUnderDeadline);
    cfg.device_faults = FaultPlan::seeded(7).fail_launches(Schedule::Prob(0.6));
    let report = run_governor(&cfg, registry);

    // Every job is recorded once; a failed launch fails its job (one
    // attempt, no retry) and the device keeps serving the rest.
    assert_eq!(report.decisions.len(), cfg.n_jobs);
    let failed: Vec<u64> = report
        .decisions
        .iter()
        .filter(|d| !d.completed)
        .map(|d| d.job_id)
        .collect();
    assert_eq!(
        failed,
        [1, 5, 7, 8, 9, 11, 13, 23, 25, 26, 27, 28, 30, 31, 35, 36, 37]
    );
    for d in report.decisions.iter().filter(|d| !d.completed) {
        assert_eq!(d.fallback, Some(FallbackReason::LaunchFailed));
        assert_eq!(d.measured_energy_j, 0.0);
        assert!(!d.met_deadline);
    }
    assert_eq!(report.deadline_misses, failed.len());
    assert_eq!(
        report.total_energy_j.to_bits(),
        30.520160599377405f64.to_bits()
    );
    assert_eq!(report, run_governor(&cfg, registry));
}
