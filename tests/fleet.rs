//! Fleet end-to-end suite: the differential golden test against the
//! single-device governor, the heterogeneous pinned-seed regression
//! guard, device affinity on an empty registry, and breaker-driven chaos.
//!
//! Contracts from `governor::fleet`'s docs, pinned here:
//!
//! * **Differential** — a fleet of exactly one V100 with stealing
//!   disabled is bit-identical (energy, misses, per-job clock decisions)
//!   to `governor::sim::run_governor` on the same seed, for every policy.
//!   Both run the crate's one job loop: the governor's one-device plan
//!   differs from `FleetConfig::single` only in allowing one execution
//!   attempt under a breaker that never trips, which shows only once a
//!   launch fails.
//! * **Affinity counts model-chosen clocks only** — on an empty registry
//!   every job falls back as `ModelMissing`, and none is counted or
//!   journaled as an affinity degradation.
//! * **The fleet headline** — on the pinned seed, min-energy placement
//!   over 2×V100 + 2×MI100 beats both round-robin-at-default-clock and
//!   the single-device min-energy governor on total energy, at a
//!   deadline-miss rate no worse than either.
//! * **Eviction drains, never drops** — with 1..N-1 devices evicted
//!   mid-run by deterministic fault plans, the survivors complete the
//!   full job set, and `devices_evicted` / `items_rescheduled` reconcile
//!   exactly with the journal.
//!
//! The expensive fixture (per-class trained models) is built once per
//! test binary behind a lazy lock; each test reads a copy of it in a
//! scratch directory of its own. `FLEET_CHAOS_SEED` reruns the chaos
//! tests under a different fault seed (the CI matrix sets it).

use std::sync::{Arc, OnceLock};

use energy_model::telemetry::Telemetry;
use energy_model::BreakerConfig;
use governor::{
    run_fleet, run_governor, train_and_publish, train_and_publish_fleet, FallbackReason,
    FleetConfig, FleetDevice, FleetEvent, GovernorConfig, ModelRegistry, Policy, StealPolicy,
};
use gpu_sim::{DeviceSpec, FaultPlan, Schedule};

mod common;
use common::{ScratchDir, ScratchRegistry, Template};

/// A registry holding the pinned single-device artifacts (`cronos`,
/// `ligen`) *and* the per-class fleet artifacts (`cronos--nvidia-v100`,
/// `ligen--amd-mi100`, …), in a scratch directory of the calling test's
/// own: training dominates the suite's cost, so it runs once.
fn shared_registry() -> ScratchRegistry {
    static MODELS: OnceLock<Template> = OnceLock::new();
    let models = MODELS.get_or_init(|| {
        Template::publish(test_dir("trained-models"), |registry| {
            train_and_publish(&GovernorConfig::pinned(Policy::DefaultClock), registry)
                .expect("train and publish single-device models");
            train_and_publish_fleet(&FleetConfig::pinned(), registry)
                .expect("train and publish per-class fleet models");
        })
    });
    models.copy_to(ScratchDir::numbered("fleet-e2e-shared-registry"))
}

fn test_dir(name: &str) -> ScratchDir {
    ScratchDir::new(&format!("fleet-e2e-{name}"))
}

/// Fault seed for the chaos tests; CI sweeps it through a small matrix.
fn chaos_seed() -> u64 {
    std::env::var("FLEET_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(7)
}

/// A faster single-device fleet for the per-policy differentials.
fn quick_single(policy: Policy) -> FleetConfig {
    let mut cfg = FleetConfig::single(DeviceSpec::v100(), policy);
    cfg.n_jobs = 16;
    cfg.freq_stride = 4;
    cfg
}

/// Asserts a fleet report is bit-identical to its single-device
/// counterpart: same decision trail, same measurements, same totals,
/// same cache behaviour.
fn assert_differential(fleet_cfg: &FleetConfig, registry: &ModelRegistry) {
    let fleet = run_fleet(fleet_cfg, registry);
    let gov = run_governor(&fleet_cfg.governor_equivalent(DeviceSpec::v100()), registry);

    assert_eq!(fleet.n_jobs, gov.n_jobs);
    assert_eq!(fleet.decisions.len(), gov.decisions.len());
    for (f, g) in fleet.decisions.iter().zip(&gov.decisions) {
        // Derived PartialEq covers ids, labels, clocks, fallbacks and
        // flags; the explicit bit checks make float identity strict.
        assert_eq!(&f.record, g, "job {} decision diverged", g.job_id);
        assert_eq!(
            f.record.measured_time_s.to_bits(),
            g.measured_time_s.to_bits()
        );
        assert_eq!(
            f.record.measured_energy_j.to_bits(),
            g.measured_energy_j.to_bits()
        );
        assert_eq!(
            f.record.requested_mhz.map(f64::to_bits),
            g.requested_mhz.map(f64::to_bits)
        );
        assert_eq!(
            f.record.predicted_time_s.map(f64::to_bits),
            g.predicted_time_s.map(f64::to_bits)
        );
        assert_eq!(f.device_index, 0);
        assert!(!f.stolen);
    }
    assert_eq!(fleet.total_energy_j.to_bits(), gov.total_energy_j.to_bits());
    assert_eq!(fleet.total_time_s.to_bits(), gov.total_time_s.to_bits());
    assert_eq!(fleet.deadline_misses, gov.deadline_misses);
    assert_eq!(fleet.miss_rate.to_bits(), gov.miss_rate.to_bits());
    assert_eq!(fleet.fallbacks, gov.fallbacks);
    assert_eq!(fleet.admission_rejected, gov.admission_rejected);
    assert_eq!(fleet.cache, gov.cache);
    assert_eq!(fleet.jobs_stolen, 0);
    assert_eq!(fleet.items_rescheduled, 0);
    assert_eq!(fleet.devices_evicted, 0);
    assert_eq!(fleet.affinity_fallbacks, 0);
}

// ---------------------------------------------------------------------
// Differential golden tests: one-device fleet ≡ single-device governor
// ---------------------------------------------------------------------

#[test]
fn single_v100_fleet_is_bit_identical_to_governor_for_every_policy() {
    let registry = &shared_registry();
    for policy in Policy::all() {
        assert_differential(&quick_single(policy), registry);
    }
}

#[test]
fn single_v100_fleet_matches_governor_on_the_full_pinned_stream() {
    let registry = &shared_registry();
    assert_differential(
        &FleetConfig::single(DeviceSpec::v100(), Policy::MinEnergyUnderDeadline),
        registry,
    );
}

#[test]
fn single_v100_differential_holds_under_device_faults() {
    let registry = &shared_registry();
    let mut cfg = quick_single(Policy::MinEnergyUnderDeadline);
    // Purpose-0 splitting keeps device 0 on the parent seed, so the
    // single-device fleet replays the un-split plan bit-for-bit.
    cfg.device_faults = FaultPlan::seeded(chaos_seed()).reject_set_frequency(Schedule::Prob(0.3));
    assert_differential(&cfg, registry);
}

// ---------------------------------------------------------------------
// Determinism and telemetry inertness
// ---------------------------------------------------------------------

#[test]
fn fleet_runs_replay_bit_identically() {
    let registry = &shared_registry();
    let cfg = FleetConfig::pinned();
    let a = run_fleet(&cfg, registry);
    let b = run_fleet(&cfg, registry);
    assert_eq!(a, b);
    let rr = FleetConfig::pinned_round_robin();
    assert_eq!(run_fleet(&rr, registry), run_fleet(&rr, registry));
}

#[test]
fn armed_telemetry_leaves_fleet_results_bit_identical() {
    let registry = &shared_registry();
    let inert = run_fleet(&FleetConfig::pinned(), registry);

    let telemetry = Telemetry::new();
    let mut cfg = FleetConfig::pinned();
    cfg.telemetry = Some(Arc::clone(&telemetry));
    let armed = run_fleet(&cfg, registry);

    assert_eq!(inert, armed);
    let jobs = telemetry.registry().counter("fleet.jobs_total").get();
    assert_eq!(jobs as usize, armed.n_jobs);
    assert_eq!(
        telemetry.registry().gauge("fleet.total_energy_j").get(),
        armed.total_energy_j
    );
}

// ---------------------------------------------------------------------
// The fleet headline (the CI regression guard)
// ---------------------------------------------------------------------

#[test]
fn pinned_fleet_beats_round_robin_and_single_device_min_energy() {
    let registry = &shared_registry();
    let fleet = run_fleet(&FleetConfig::pinned(), registry);
    let round_robin = run_fleet(&FleetConfig::pinned_round_robin(), registry);
    let single = run_governor(
        &GovernorConfig::pinned(Policy::MinEnergyUnderDeadline),
        registry,
    );

    assert_eq!(fleet.n_jobs, 40);
    assert_eq!(round_robin.n_jobs, 40);
    assert_eq!(single.n_jobs, 40);

    assert!(
        fleet.total_energy_j <= round_robin.total_energy_j,
        "fleet min-energy ({:.1} J) must not exceed round-robin default-clock ({:.1} J)",
        fleet.total_energy_j,
        round_robin.total_energy_j
    );
    assert!(
        fleet.total_energy_j <= single.total_energy_j,
        "fleet min-energy ({:.1} J) must not exceed single-device min-energy ({:.1} J)",
        fleet.total_energy_j,
        single.total_energy_j
    );
    assert!(
        fleet.miss_rate <= round_robin.miss_rate,
        "fleet miss rate {:.3} exceeds round-robin {:.3}",
        fleet.miss_rate,
        round_robin.miss_rate
    );
    assert!(
        fleet.miss_rate <= single.miss_rate,
        "fleet miss rate {:.3} exceeds single-device {:.3}",
        fleet.miss_rate,
        single.miss_rate
    );

    // The heterogeneous fleet actually uses its heterogeneity: both
    // classes run work, and placement is energy-driven, not accidental.
    let classes_used: std::collections::BTreeSet<&str> =
        fleet.decisions.iter().map(|d| d.class.as_str()).collect();
    assert!(classes_used.len() > 1, "only one class ever ran a job");
    assert!(fleet.cache.hits > 0);
    assert_eq!(fleet.devices_evicted, 0);
    assert_eq!(fleet.affinity_fallbacks, 0);
}

// ---------------------------------------------------------------------
// An empty registry is a missing model, not an affinity degradation
// ---------------------------------------------------------------------

#[test]
fn empty_registry_falls_back_as_model_missing_not_affinity() {
    let empty = ScratchRegistry::open(test_dir("empty-registry"));
    for cfg in [
        FleetConfig::single(DeviceSpec::v100(), Policy::MinEnergyUnderDeadline),
        FleetConfig::pinned(),
    ] {
        let report = run_fleet(&cfg, &empty);
        assert_eq!(report.decisions.len(), cfg.n_jobs);
        // No job carried a model-chosen clock, so none was degraded by
        // device affinity: every one fell back for its missing model.
        assert_eq!(report.affinity_fallbacks, 0);
        assert_eq!(report.degradation.affinity_fallbacks, 0);
        assert!(!report
            .journal
            .iter()
            .any(|e| matches!(e, FleetEvent::AffinityDegraded { .. })));
        assert!(report
            .decisions
            .iter()
            .all(|d| d.record.fallback == Some(FallbackReason::ModelMissing)));
    }
}

// ---------------------------------------------------------------------
// Chaos: breaker-driven eviction with survivors completing the set
// ---------------------------------------------------------------------

/// Evicts `n_faulty` of the pinned fleet's four devices via per-device
/// fault overrides and checks the survivors complete every job.
fn run_eviction_chaos(n_faulty: usize, steal: StealPolicy) {
    let registry = &shared_registry();
    let mut cfg = FleetConfig::pinned();
    cfg.steal = steal;
    // One failure trips; one trip evicts: the n_faulty always-failing
    // devices evict on their first dispatched job.
    cfg.breaker = BreakerConfig {
        failure_threshold: 1,
        cooldown_ticks: 1,
        max_trips: 1,
    };
    for device in cfg.devices.iter_mut().take(n_faulty) {
        device.faults = Some(FaultPlan::seeded(chaos_seed()).fail_launches(Schedule::Prob(1.0)));
    }

    let report = run_fleet(&cfg, registry);

    // Conservation: every job recorded exactly once, and — since at
    // least one clean device survives — every job completed in deadline
    // terms that still reconcile.
    assert_eq!(report.decisions.len(), cfg.n_jobs);
    let mut ids: Vec<u64> = report.decisions.iter().map(|d| d.record.job_id).collect();
    ids.sort_unstable();
    assert_eq!(ids, (0..cfg.n_jobs as u64).collect::<Vec<_>>());
    assert!(
        report.decisions.iter().all(|d| d.record.completed),
        "a job failed permanently despite clean survivors"
    );

    // The faulty devices — and only they — were evicted.
    assert_eq!(report.devices_evicted, n_faulty as u64);
    for (i, d) in report.devices.iter().enumerate() {
        assert_eq!(d.evicted, i < n_faulty, "device {i} eviction state wrong");
        if i < n_faulty {
            assert_eq!(d.trips, 1);
        }
    }

    // Metrics reconcile with the journal, event by event.
    let evictions = report
        .journal
        .iter()
        .filter(|e| matches!(e, FleetEvent::Tripped { evicted: true, .. }))
        .count();
    assert_eq!(evictions as u64, report.devices_evicted);
    let rescheduled = report
        .journal
        .iter()
        .filter(|e| matches!(e, FleetEvent::Rescheduled { .. }))
        .count();
    assert_eq!(rescheduled as u64, report.items_rescheduled);
    assert_eq!(rescheduled as u64, report.degradation.items_rescheduled);
    let stolen = report
        .journal
        .iter()
        .filter(|e| matches!(e, FleetEvent::Stolen { .. }))
        .count();
    assert_eq!(stolen as u64, report.jobs_stolen);
    let degraded = report
        .journal
        .iter()
        .filter(|e| matches!(e, FleetEvent::AffinityDegraded { .. }))
        .count();
    assert_eq!(degraded as u64, report.affinity_fallbacks);
    assert!(
        report.items_rescheduled > 0,
        "evicting {n_faulty} devices must reschedule something"
    );

    // Evicted devices ran nothing to completion.
    for d in report.decisions.iter() {
        assert!(
            d.device_index >= n_faulty,
            "job {} completed on evicted device {}",
            d.record.job_id,
            d.device_index
        );
    }

    // And chaos replays deterministically.
    assert_eq!(report, run_fleet(&cfg, registry));
}

#[test]
fn one_eviction_survivors_complete_the_set() {
    run_eviction_chaos(1, StealPolicy::WithinClass);
}

#[test]
fn two_evictions_survivors_complete_the_set() {
    run_eviction_chaos(2, StealPolicy::Anywhere);
}

#[test]
fn three_evictions_last_survivor_completes_the_set() {
    run_eviction_chaos(3, StealPolicy::Anywhere);
}

#[test]
fn all_devices_evicted_fails_jobs_without_wedging() {
    let registry = &shared_registry();
    let mut cfg = FleetConfig::pinned();
    cfg.n_jobs = 12;
    cfg.breaker = BreakerConfig {
        failure_threshold: 1,
        cooldown_ticks: 1,
        max_trips: 1,
    };
    for device in cfg.devices.iter_mut() {
        device.faults = Some(FaultPlan::seeded(chaos_seed()).fail_launches(Schedule::Prob(1.0)));
    }
    let report = run_fleet(&cfg, registry);

    // Nothing wedged; every job is recorded (as failed), all four
    // devices are gone, and the run still replays bit-identically.
    assert_eq!(report.decisions.len(), cfg.n_jobs);
    assert!(report.decisions.iter().all(|d| !d.record.completed));
    assert_eq!(report.devices_evicted, cfg.devices.len() as u64);
    assert_eq!(report.miss_rate, 1.0);
    assert_eq!(report, run_fleet(&cfg, registry));
}

// ---------------------------------------------------------------------
// Work stealing keeps devices busy without breaking anything
// ---------------------------------------------------------------------

#[test]
fn cooling_device_queue_is_stolen_by_idle_peers() {
    let registry = &shared_registry();
    let mut cfg = FleetConfig::pinned();
    // Two V100s only; device 0 fails every launch but its breaker never
    // evicts — it trips, cools for a long window, probes, and trips
    // again. Jobs queued behind it would stall for the whole cooldown,
    // so the idle peer must steal them.
    cfg.devices = vec![
        FleetDevice::new("flaky-0", DeviceSpec::v100()),
        FleetDevice::new("steady-1", DeviceSpec::v100()),
    ];
    cfg.devices[0].faults =
        Some(FaultPlan::seeded(chaos_seed()).fail_launches(Schedule::Prob(1.0)));
    cfg.breaker = BreakerConfig {
        failure_threshold: 1,
        cooldown_ticks: 50,
        max_trips: u32::MAX,
    };
    let report = run_fleet(&cfg, registry);

    // Every job completed — all on the steady device — and the steal
    // path did real work.
    assert_eq!(report.decisions.len(), cfg.n_jobs);
    assert!(report.decisions.iter().all(|d| d.record.completed));
    assert!(report.decisions.iter().all(|d| d.device == "steady-1"));
    assert!(
        report.jobs_stolen > 0,
        "idle peer never stole from the cooling device's queue"
    );
    assert!(report.decisions.iter().any(|d| d.stolen));
    assert_eq!(report.devices_evicted, 0);
    assert!(!report.devices[0].evicted);
    assert!(report.devices[0].trips >= 1);
    assert_eq!(report, run_fleet(&cfg, registry));
}

#[test]
fn within_class_stealing_moves_work_and_preserves_the_job_set() {
    let registry = &shared_registry();
    let cfg = FleetConfig::pinned();
    let report = run_fleet(&cfg, registry);

    let mut ids: Vec<u64> = report.decisions.iter().map(|d| d.record.job_id).collect();
    ids.sort_unstable();
    assert_eq!(ids, (0..cfg.n_jobs as u64).collect::<Vec<_>>());

    // Stolen jobs under within-class stealing stay on the class that
    // priced them, so none needs an affinity fallback.
    assert_eq!(report.affinity_fallbacks, 0);
    for d in report.decisions.iter().filter(|d| d.stolen) {
        assert!(d.record.completed);
    }
    // Journal reconciliation for steals.
    let stolen_events = report
        .journal
        .iter()
        .filter(|e| matches!(e, FleetEvent::Stolen { .. }))
        .count();
    assert_eq!(stolen_events as u64, report.jobs_stolen);
    let stolen_in: u64 = report.devices.iter().map(|d| d.stolen_in).sum();
    assert_eq!(stolen_in, report.jobs_stolen);
}
