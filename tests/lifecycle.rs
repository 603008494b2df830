//! Adaptive model lifecycle end-to-end suite: drift detection over a
//! live decision stream, quarantine-fed online retraining, canary
//! publish with automatic promote/rollback, crash-at-every-journal-
//! boundary resume, and the differential golden against [`run_governor`].
//!
//! The pinned guards from the lifecycle issue:
//!
//! * Under injected hardware drift mid-stream, the lifecycle detects,
//!   retrains, canaries, and promotes; post-promote MAPE lands within
//!   25% of a from-scratch retrain, and total energy is strictly better
//!   than the no-lifecycle governor on the same drifted stream.
//! * A canary that measures worse than the incumbent rolls back
//!   automatically — zero dropped requests, incumbent untouched.
//! * Killing the publisher after any journal append and resuming
//!   converges to the bit-identical report and journal
//!   (`LIFECYCLE_CHAOS_SEED` picks the chaos stream). So does a power
//!   loss there, which also loses the journal records written after the
//!   last sync point, and leaves the registry as bit-identical as the
//!   journal.

use std::sync::{Arc, OnceLock};

use energy_model::artifact::fnv1a_64;
use energy_model::telemetry::Telemetry;
use governor::{
    efficiency_drift, lifecycle, run_governor, run_lifecycle, train_and_publish, DriftConfig,
    DriftScenario, EngineConfig, ForcedTrip, GovernorConfig, LifecycleConfig, LifecycleEvent,
    Policy, PredictionEngine, PredictionRequest, RegistryEvent, ServedChannel,
};
use gpu_sim::{FaultPlan, Schedule};

mod common;
use common::{tree_bytes, ScratchDir, ScratchRegistry, Template};

fn test_dir(name: &str) -> ScratchDir {
    ScratchDir::new(&format!("lifecycle-e2e-{name}"))
}

/// The chaos test re-runs under any seed via `LIFECYCLE_CHAOS_SEED`;
/// everything else stays pinned.
fn chaos_seed() -> u64 {
    std::env::var("LIFECYCLE_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(7)
}

/// Train the pinned models once per binary, then give each test its own
/// writable copy of the published registry (canary publishes mutate it).
fn template_registry() -> &'static Template {
    static TEMPLATE: OnceLock<Template> = OnceLock::new();
    TEMPLATE.get_or_init(|| {
        Template::publish(test_dir("registry-template"), |registry| {
            train_and_publish(&GovernorConfig::pinned(Policy::DefaultClock), registry)
                .expect("train and publish pinned models");
        })
    })
}

fn fresh_registry(name: &str) -> ScratchRegistry {
    template_registry().copy_to(test_dir(name))
}

/// The pinned drift scenario: efficiency drift lands a third of the way
/// through the pinned stream.
fn drifted(policy: Policy) -> LifecycleConfig {
    let mut cfg = LifecycleConfig::pinned(policy);
    let at_job = (cfg.governor.n_jobs as u64) / 3;
    cfg.scenario = Some(DriftScenario {
        at_job,
        spec: efficiency_drift(&cfg.governor.spec),
    });
    cfg
}

/// Mean APE over an app's clean post-`cutoff` decisions.
fn mape_after(report: &governor::LifecycleReport, app: &str, cutoff: u64) -> (f64, usize) {
    let apes: Vec<f64> = report
        .decisions
        .iter()
        .filter(|d| d.record.app == app && d.record.job_id > cutoff)
        .filter_map(|d| d.ape)
        .collect();
    let n = apes.len();
    assert!(n > 0, "no clean {app} decisions after job {cutoff}");
    (apes.iter().sum::<f64>() / n as f64, n)
}

// ---------------------------------------------------------------------
// The end-to-end pinned guard: detect → retrain → canary → promote
// ---------------------------------------------------------------------

#[test]
fn drift_is_detected_retrained_canaried_and_promoted() {
    let registry = fresh_registry("e2e");
    let dir = test_dir("e2e-run");
    let cfg = drifted(Policy::MinEnergyUnderDeadline);
    let report = run_lifecycle(&cfg, &registry, &dir, false).expect("lifecycle run");

    // Never an unserved request: every job in the stream got executed.
    assert_eq!(report.n_jobs, cfg.governor.n_jobs);
    assert!(report.decisions.iter().all(|d| d.record.completed));

    // The lifecycle actually cycled: at least one drift trip led to a
    // successful retrain, an open canary, and an automatic promote.
    assert!(report.retrains >= 1, "no retrain fired");
    assert!(report.promotes >= 1, "no canary promoted");
    assert_eq!(report.rollbacks, 0);
    assert!(report.drift.values().any(|s| s.trips > 0));
    assert!(report
        .decisions
        .iter()
        .any(|d| d.channel == ServedChannel::Canary));

    // The promoted app's journal trail is complete and ordered.
    let promoted_app = report
        .events
        .iter()
        .find_map(|e| match e {
            LifecycleEvent::Promoted { app, .. } => Some(app.clone()),
            _ => None,
        })
        .expect("a Promoted event");
    let trail: Vec<&str> = report
        .events
        .iter()
        .filter_map(|e| match e {
            LifecycleEvent::DriftTripped { app, .. } if *app == promoted_app => {
                Some("drift-tripped")
            }
            LifecycleEvent::PublishIntent { app, .. } if *app == promoted_app => {
                Some("publish-intent")
            }
            LifecycleEvent::ArtifactWritten { app, .. } if *app == promoted_app => {
                Some("artifact-written")
            }
            LifecycleEvent::CanaryOpened { app, .. } if *app == promoted_app => {
                Some("canary-opened")
            }
            LifecycleEvent::PromoteIntent { app, .. } if *app == promoted_app => {
                Some("promote-intent")
            }
            LifecycleEvent::Promoted { app, .. } if *app == promoted_app => Some("promoted"),
            _ => None,
        })
        .collect();
    assert_eq!(
        trail,
        [
            "drift-tripped",
            "publish-intent",
            "artifact-written",
            "canary-opened",
            "promote-intent",
            "promoted",
        ]
    );

    // The registry advanced atomically: the promoted version is the
    // stable latest and the canary pointer is gone.
    let promoted_version = report
        .events
        .iter()
        .find_map(|e| match e {
            LifecycleEvent::Promoted { app, version } if *app == promoted_app => Some(*version),
            _ => None,
        })
        .expect("promoted version");
    assert_eq!(
        registry
            .stable_latest(&promoted_app)
            .expect("stable latest"),
        promoted_version
    );
    assert_eq!(
        registry.canary(&promoted_app).expect("canary pointer").0,
        None
    );

    // Energy guard: against the no-lifecycle governor on the same
    // drifted stream, adapting must pay off strictly.
    let mut stale = cfg.clone();
    stale.drift = DriftConfig::disabled();
    let stale_dir = test_dir("e2e-stale");
    let stale_report = run_lifecycle(&stale, &registry_for_baseline(), &stale_dir, false)
        .expect("stale baseline run");
    assert_eq!(stale_report.retrains, 0);
    assert!(
        report.total_energy_j < stale_report.total_energy_j,
        "lifecycle energy {} not better than stale {}",
        report.total_energy_j,
        stale_report.total_energy_j
    );

    // MAPE guard: after the promote, the promoted app's model error is
    // within 25% of a from-scratch retrain on the drifted hardware.
    let promote_at = report
        .events
        .iter()
        .find_map(|e| match e {
            LifecycleEvent::PromoteIntent { app, at_job, .. } if *app == promoted_app => {
                Some(*at_job)
            }
            _ => None,
        })
        .expect("promote at_job");
    let (post_mape, post_n) = mape_after(&report, &promoted_app, promote_at);

    let scratch_registry = ScratchRegistry::open(test_dir("e2e-scratch-registry"));
    let mut scratch = LifecycleConfig::pinned(Policy::MinEnergyUnderDeadline);
    scratch.governor.spec = efficiency_drift(&scratch.governor.spec);
    scratch.drift = DriftConfig::disabled();
    train_and_publish(&scratch.governor, &scratch_registry).expect("from-scratch retrain");
    let scratch_dir = test_dir("e2e-scratch-run");
    let scratch_report =
        run_lifecycle(&scratch, &scratch_registry, &scratch_dir, false).expect("from-scratch run");
    let (scratch_mape, scratch_n) = mape_after(&scratch_report, &promoted_app, promote_at);
    assert!(
        post_mape <= scratch_mape.max(1e-9) * 1.25,
        "post-promote MAPE {post_mape:.5} (n={post_n}) not within 25% of \
         from-scratch {scratch_mape:.5} (n={scratch_n})"
    );
}

/// The stale-baseline registry: a second pristine copy so the e2e run's
/// canary publishes can't leak into the baseline.
fn registry_for_baseline() -> ScratchRegistry {
    fresh_registry("e2e-baseline")
}

// ---------------------------------------------------------------------
// Automatic rollback
// ---------------------------------------------------------------------

#[test]
fn worse_canary_rolls_back_automatically_with_zero_dropped_requests() {
    let registry = fresh_registry("rollback");
    let dir = test_dir("rollback-run");
    let mut cfg = LifecycleConfig::pinned(Policy::MinEnergyUnderDeadline);
    // No hardware drift: the incumbent is correct. Force a trip and
    // sabotage the retrain to characterize wildly wrong hardware — the
    // canary must measure worse and roll back on its own.
    cfg.force_trip = Some(ForcedTrip {
        at_job: 5,
        app: "ligen".to_string(),
    });
    let sab = efficiency_drift(&efficiency_drift(&efficiency_drift(&cfg.governor.spec)));
    cfg.retrain_spec = Some(sab);

    let incumbent_before = registry.stable_latest("ligen").expect("incumbent");
    let report = run_lifecycle(&cfg, &registry, &dir, false).expect("rollback run");

    assert_eq!(report.retrains, 1);
    assert_eq!(report.promotes, 0);
    assert_eq!(report.rollbacks, 1);
    assert!(report.degradation.lifecycle_fallbacks >= 1);

    // Zero dropped requests: the whole stream executed to completion.
    assert_eq!(report.n_jobs, cfg.governor.n_jobs);
    assert!(report.decisions.iter().all(|d| d.record.completed));

    // The verdict was measured, not assumed: the canary slice was
    // genuinely worse.
    let (canary_mape, incumbent_mape) = report
        .events
        .iter()
        .find_map(|e| match e {
            LifecycleEvent::RollbackIntent {
                canary_mape_bits,
                incumbent_mape_bits,
                ..
            } => Some((
                f64::from_bits(*canary_mape_bits),
                f64::from_bits(*incumbent_mape_bits),
            )),
            _ => None,
        })
        .expect("RollbackIntent event");
    assert!(
        canary_mape > incumbent_mape,
        "rollback fired but canary MAPE {canary_mape} was not worse than {incumbent_mape}"
    );
    assert!(report
        .events
        .iter()
        .any(|e| matches!(e, LifecycleEvent::RolledBack { app, .. } if app == "ligen")));

    // Incumbent untouched; the rolled-back version is retired, not
    // deleted, and its number is never reused.
    assert_eq!(
        registry.stable_latest("ligen").expect("incumbent after"),
        incumbent_before
    );
    assert_eq!(registry.versions("ligen").expect("active"), vec![1]);
    assert_eq!(
        registry.retired_versions("ligen").expect("retired"),
        vec![2]
    );
    assert_eq!(registry.canary("ligen").expect("canary").0, None);
    assert_eq!(registry.next_version("ligen").expect("next"), 3);
}

// ---------------------------------------------------------------------
// Differential golden: an inert lifecycle IS the governor
// ---------------------------------------------------------------------

#[test]
fn inert_lifecycle_is_bit_identical_to_the_governor() {
    let registry = fresh_registry("inert");
    // Clean devices, and devices failing most launches: a failed job is
    // recorded once, in both loops alike.
    let fault_plans = [
        ("clean", FaultPlan::none()),
        (
            "launch-failures",
            FaultPlan::seeded(7).fail_launches(Schedule::Prob(0.6)),
        ),
    ];
    for ((faults_name, faults), policy) in fault_plans
        .iter()
        .flat_map(|f| Policy::all().map(move |p| (f, p)))
    {
        let mut cfg = LifecycleConfig::pinned(policy);
        cfg.drift = DriftConfig::disabled();
        cfg.governor.device_faults = faults.clone();
        let dir = test_dir(&format!("inert-{faults_name}-{}", policy.name()));
        let life = run_lifecycle(&cfg, &registry, &dir, false).expect("inert lifecycle");
        let gov = run_governor(&cfg.governor, &registry);

        assert_eq!(life.n_jobs, gov.n_jobs);
        assert_eq!(life.decisions.len(), gov.decisions.len());
        for (l, g) in life.decisions.iter().zip(gov.decisions.iter()) {
            assert_eq!(&l.record, g);
            assert_eq!(l.channel, ServedChannel::Stable);
        }
        assert_eq!(life.total_time_s.to_bits(), gov.total_time_s.to_bits());
        assert_eq!(life.total_energy_j.to_bits(), gov.total_energy_j.to_bits());
        assert_eq!(life.deadline_misses, gov.deadline_misses);
        assert_eq!(life.fallbacks, gov.fallbacks);
        assert_eq!(life.admission_rejected, gov.admission_rejected);
        assert_eq!(life.cache, gov.cache);
        assert!(life.events.is_empty());
        assert_eq!(life.retrains, 0);
        assert_eq!(life.promotes, 0);
        assert_eq!(life.rollbacks, 0);
        assert_eq!(life.degradation.lifecycle_fallbacks, 0);
    }
}

// ---------------------------------------------------------------------
// Telemetry inertness
// ---------------------------------------------------------------------

#[test]
fn armed_telemetry_leaves_the_lifecycle_bit_identical() {
    let quiet_dir = test_dir("telemetry-quiet-run");
    let quiet = run_lifecycle(
        &drifted(Policy::MinEnergyUnderDeadline),
        &fresh_registry("telemetry-quiet"),
        &quiet_dir,
        false,
    )
    .expect("quiet run");

    let telemetry = Telemetry::new();
    let mut cfg = drifted(Policy::MinEnergyUnderDeadline);
    cfg.governor.telemetry = Some(Arc::clone(&telemetry));
    let armed_dir = test_dir("telemetry-armed-run");
    let armed = run_lifecycle(&cfg, &fresh_registry("telemetry-armed"), &armed_dir, false)
        .expect("armed run");

    // The report carries no telemetry handle, so PartialEq covers every
    // measured and derived field.
    assert_eq!(quiet, armed);

    // And the drift/lifecycle instruments actually recorded.
    let r = telemetry.registry();
    assert!(r.counter("governor.drift.observations").get() > 0);
    assert!(r.counter("governor.drift.trips").get() > 0);
    assert_eq!(
        r.counter("governor.lifecycle.retrains").get(),
        u64::from(armed.retrains)
    );
    assert_eq!(
        r.counter("governor.lifecycle.promotes").get(),
        u64::from(armed.promotes)
    );
}

// ---------------------------------------------------------------------
// The journal's bytes
// ---------------------------------------------------------------------

#[test]
fn the_lifecycle_journal_bytes_are_pinned() {
    let mut cfg = drifted(Policy::MinEnergyUnderDeadline);
    cfg.governor.n_jobs = 40;
    cfg.scenario = Some(DriftScenario {
        at_job: 40 / 3,
        spec: efficiency_drift(&cfg.governor.spec),
    });
    let dir = test_dir("pinned-journal");
    let report = run_lifecycle(&cfg, &fresh_registry("pinned-journal-reg"), &dir, false)
        .expect("pinned lifecycle run");
    assert!(
        report
            .events
            .iter()
            .any(|e| matches!(e, LifecycleEvent::PromoteIntent { .. })),
        "the pinned run must publish and promote"
    );

    let bytes = std::fs::read(lifecycle::journal_path(&dir)).expect("lifecycle journal");
    assert_eq!(
        (report.events.len() + 1, bytes.len(), fnv1a_64(&bytes)),
        (11, 844, 0xc8eb_9d5e_6862_24f4),
        "lifecycle.jsonl (records, bytes, FNV-1a)"
    );
}

// ---------------------------------------------------------------------
// Crash-at-every-journal-boundary chaos
// ---------------------------------------------------------------------

#[test]
fn publisher_crash_at_every_journal_boundary_resumes_bit_identically() {
    let seed = chaos_seed();
    let mut cfg = drifted(Policy::MinEnergyUnderDeadline);
    cfg.governor.seed = seed;

    // Training fingerprints bind the stream seed, so the chaos seed gets
    // its own trained template registry (copied fresh per crash point).
    let template = Template::publish(test_dir(&format!("chaos-template-{seed}")), |registry| {
        train_and_publish(&cfg.governor, registry).expect("train chaos-seed models");
    });
    let chaos_registry = |name: &str| template.copy_to(test_dir(name));

    let ref_dir = test_dir(&format!("chaos-ref-{seed}"));
    let reference = run_lifecycle(
        &cfg,
        &chaos_registry(&format!("chaos-ref-reg-{seed}")),
        &ref_dir,
        false,
    )
    .expect("uninterrupted reference run");
    let ref_journal =
        std::fs::read_to_string(lifecycle::journal_path(&ref_dir)).expect("reference journal");
    // Header + every event is one append.
    let total_appends = reference.events.len() as u64 + 1;
    assert!(total_appends >= 5, "chaos run produced too few boundaries");

    for k in 1..=total_appends {
        let registry = chaos_registry(&format!("chaos-reg-{seed}-{k}"));
        let dir = test_dir(&format!("chaos-run-{seed}-{k}"));

        let mut crashing = cfg.clone();
        crashing.crash_after_appends = Some(k);
        let err = run_lifecycle(&crashing, &registry, &dir, false)
            .expect_err("injected crash must abort the run");
        assert!(
            matches!(err, governor::LifecycleError::InjectedCrash { .. }),
            "crash {k}: unexpected error {err:?}"
        );

        let resumed = run_lifecycle(&cfg, &registry, &dir, true)
            .unwrap_or_else(|e| panic!("resume after crash {k} failed: {e:?}"));
        assert_eq!(
            resumed, reference,
            "resume after crash at append {k} diverged from the uninterrupted run"
        );
        let journal =
            std::fs::read_to_string(lifecycle::journal_path(&dir)).expect("resumed journal");
        assert_eq!(
            journal, ref_journal,
            "journal after crash at append {k} diverged"
        );
    }
}

#[test]
fn a_power_loss_after_any_append_resumes_bit_identically() {
    let seed = chaos_seed();
    let mut cfg = drifted(Policy::MinEnergyUnderDeadline);
    cfg.governor.seed = seed;

    let template = Template::publish(test_dir(&format!("power-template-{seed}")), |registry| {
        train_and_publish(&cfg.governor, registry).expect("train chaos-seed models");
    });
    let power_registry = |name: &str| template.copy_to(test_dir(name));

    let ref_registry = power_registry(&format!("power-ref-reg-{seed}"));
    let ref_dir = test_dir(&format!("power-ref-{seed}"));
    let reference =
        run_lifecycle(&cfg, &ref_registry, &ref_dir, false).expect("uninterrupted reference run");
    let ref_journal =
        std::fs::read_to_string(lifecycle::journal_path(&ref_dir)).expect("reference journal");
    let ref_files = tree_bytes(ref_registry.root());
    let total_appends = reference.events.len() as u64 + 1;

    // The lifecycle syncs its journal right after each intent, before the
    // side effect the intent guards.
    let is_intent = |line: &str| {
        matches!(
            serde_json::from_str(line).expect("journal record"),
            LifecycleEvent::PublishIntent { .. }
                | LifecycleEvent::PromoteIntent { .. }
                | LifecycleEvent::RollbackIntent { .. }
        )
    };
    let mut cut_to_an_intent = false;
    for k in 1..=total_appends {
        let registry = power_registry(&format!("power-reg-{seed}-{k}"));
        let dir = test_dir(&format!("power-run-{seed}-{k}"));
        let mut crashing = cfg.clone();
        crashing.crash_after_appends = Some(k);
        let err = run_lifecycle(&crashing, &registry, &dir, false)
            .expect_err("injected crash must abort the run");
        assert!(
            matches!(err, governor::LifecycleError::InjectedCrash { .. }),
            "crash {k}: unexpected error {err:?}"
        );

        // The power loss keeps the journal up to the last sync point
        // before append k; the registry and the campaign directories stay
        // as the crash left them.
        let path = lifecycle::journal_path(&dir);
        let crashed = std::fs::read_to_string(&path).expect("crashed journal");
        let lines: Vec<&str> = crashed.lines().collect();
        assert_eq!(lines.len() as u64, k, "crash {k}: every append is written");
        let synced = lines[..lines.len() - 1]
            .iter()
            .rposition(|l| is_intent(l))
            .map_or(0, |i| i + 1);
        cut_to_an_intent |= synced > 0 && synced + 1 < lines.len();
        let kept: String = lines[..synced].iter().map(|l| format!("{l}\n")).collect();
        std::fs::write(&path, kept).expect("cut the journal back");

        let resumed = run_lifecycle(&cfg, &registry, &dir, true)
            .unwrap_or_else(|e| panic!("resume after a power loss at append {k} failed: {e:?}"));
        assert_eq!(
            resumed, reference,
            "resume after a power loss at append {k} diverged from the uninterrupted run"
        );
        let journal = std::fs::read_to_string(&path).expect("resumed journal");
        assert_eq!(
            journal, ref_journal,
            "journal after a power loss at append {k} diverged"
        );
        assert!(
            tree_bytes(registry.root()) == ref_files,
            "registry after a power loss at append {k} diverged"
        );
    }
    assert!(
        cut_to_an_intent,
        "some power loss must lose records after a synced intent"
    );
}

// ---------------------------------------------------------------------
// Serving-cache invalidation: a model's memo goes with the model
// ---------------------------------------------------------------------

#[test]
fn promote_and_rollback_drop_the_memo_with_its_model() {
    let registry = fresh_registry("memo");
    let (ligen, _, _) = registry.load("ligen", None).expect("ligen model");
    let (cronos, _, _) = registry.load("cronos", None).expect("cronos model");

    let freqs: Vec<f64> = (0..8).map(|i| 900.0 + 100.0 * i as f64).collect();
    let mut engine = PredictionEngine::new(EngineConfig {
        freqs,
        queue_capacity: 64,
        max_batch: 16,
    });
    engine.install_model("ligen", ligen.clone());
    engine.install_model("ligen#canary", ligen.clone());
    engine.install_model("cronos", cronos);

    // Warm each channel's memo with 512 distinct feature vectors.
    let mut warm = |app: &str, width: usize| {
        for i in 0..512u64 {
            let features: Vec<f64> = (0..width)
                .map(|j| 10.0 + (i * 31 + j as u64 * 7) as f64)
                .collect();
            engine
                .try_enqueue(PredictionRequest {
                    job_id: i,
                    app: app.to_string(),
                    features,
                })
                .expect("enqueue");
            while engine.queue_len() > 0 {
                for (_, served) in engine.drain_batch() {
                    served.expect("serve");
                }
            }
        }
    };
    let ligen_width = 3;
    let cronos_width = 3;
    warm("ligen", ligen_width);
    warm("ligen#canary", ligen_width);
    warm("cronos", cronos_width);
    for app in ["ligen", "ligen#canary", "cronos"] {
        assert_eq!(engine.cached_entries(app), 512, "{app}");
    }

    // Promote: the canary model replaces the stable key — the stale
    // incumbent's memo must go; the canary channel closes.
    engine.install_model("ligen", ligen);
    assert_eq!(engine.cached_entries("ligen"), 0);
    engine.remove_model("ligen#canary");
    assert_eq!(engine.cached_entries("ligen#canary"), 0);

    // Rollback on the other app's canary: removal drops its memo and
    // leaves unrelated apps untouched.
    engine.remove_model("ligen");
    assert_eq!(engine.cached_entries("ligen"), 0);
    assert_eq!(engine.cached_entries("cronos"), 512);
}

// ---------------------------------------------------------------------
// Registry hardening: corrupt non-latest versions are skipped and logged
// ---------------------------------------------------------------------

#[test]
fn corrupt_versions_are_skipped_with_a_typed_event() {
    let registry = fresh_registry("corrupt-skip");
    let (model, artifact, v1) = registry.load("ligen", None).expect("ligen v1");
    assert_eq!(v1, 1);
    let fingerprint = artifact.training_fingerprint;
    let v2 = registry
        .publish("ligen", &model, fingerprint)
        .expect("publish v2");
    assert_eq!(v2, 2);

    // Flip a payload byte in the newest version: checksum mismatch.
    let path = registry.root().join("ligen").join("v0002.json");
    let text = std::fs::read_to_string(&path).expect("read v2");
    std::fs::write(&path, text.replacen("algorithm", "algoXithm", 1)).expect("corrupt v2");

    let (_, healthy_artifact, version, events) = registry
        .load_latest_healthy("ligen", Some(fingerprint))
        .expect("healthy load");
    assert_eq!(version, 1);
    assert_eq!(healthy_artifact.training_fingerprint, fingerprint);
    assert_eq!(events.len(), 1);
    assert!(
        matches!(
            &events[0],
            RegistryEvent::CorruptSkipped { name, version: 2, .. } if name == "ligen"
        ),
        "unexpected events {events:?}"
    );

    // A dangling canary pointer (crash between retire and pointer
    // removal) heals to "no canary" with its own typed event.
    std::fs::write(
        registry.root().join("ligen").join("canary.json"),
        "{\"version\": 99}",
    )
    .expect("write dangling pointer");
    let (canary, event) = registry.canary("ligen").expect("canary read");
    assert_eq!(canary, None);
    assert_eq!(
        event,
        Some(RegistryEvent::DanglingCanary {
            name: "ligen".to_string(),
            version: 99,
        })
    );
}
