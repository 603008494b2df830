//! Property tests of the fleet scheduler, run against a deliberately
//! *under*-populated registry: only the V100 class has model artifacts,
//! so every path that can push a job onto an MI100 — placement overflow,
//! cross-class stealing, failure rescheduling, eviction drains — must
//! exercise the device-affinity guard.
//!
//! Two invariants, for arbitrary steal/eviction interleavings:
//!
//! * **Job conservation** — every submitted job id appears in the
//!   decision trail exactly once (completed or recorded as failed),
//!   no matter how many times it was stolen, rescheduled, or orphaned
//!   by an eviction.
//! * **Steal safety** — a job never executes on a device class that has
//!   no matching model artifact with a model-chosen clock: on such a
//!   class the requested clock is always `None`, and a job that arrived
//!   carrying a foreign clock decision records an explicit
//!   `AffinityDegraded` fallback. The `affinity_fallbacks` counter
//!   reconciles with the journal, event for event.

use std::sync::OnceLock;

use energy_model::BreakerConfig;
use governor::{
    run_fleet, train_and_publish_fleet, FallbackReason, FleetConfig, FleetDevice, FleetEvent,
    Placement, Policy, StealPolicy,
};
use gpu_sim::{DeviceSpec, FaultPlan, Schedule};
use proptest::prelude::*;

// The workspace's scratch-directory helpers for integration tests.
#[path = "../../../tests/common/mod.rs"]
mod common;
use common::{ScratchDir, ScratchRegistry, Template};

/// The class left without artifacts in the shared registry.
const BARE_CLASS: &str = "AMD MI100";

/// The fleet shape every case runs: two modelled V100s, two bare MI100s.
fn base_cfg() -> FleetConfig {
    let mut cfg = FleetConfig::pinned();
    cfg.devices = vec![
        FleetDevice::new("v100-0", DeviceSpec::v100()),
        FleetDevice::new("v100-1", DeviceSpec::v100()),
        FleetDevice::new("mi100-0", DeviceSpec::mi100()),
        FleetDevice::new("mi100-1", DeviceSpec::mi100()),
    ];
    // Coarser strides keep each generated case cheap; the training
    // stride must match the fixture so fingerprints verify.
    cfg.freq_stride = 4;
    cfg.train_stride = 8;
    cfg
}

/// A registry holding *only* the V100 artifacts, in a scratch directory
/// of the calling case's own: a V100-only fleet's models are trained
/// once, leaving the MI100 class deliberately bare.
fn v100_only_registry() -> ScratchRegistry {
    static MODELS: OnceLock<Template> = OnceLock::new();
    let models = MODELS.get_or_init(|| {
        Template::publish(ScratchDir::new("fleet-prop-trained-models"), |registry| {
            let mut v100_only = base_cfg();
            v100_only.devices.truncate(2);
            train_and_publish_fleet(&v100_only, registry)
                .expect("train and publish V100 artifacts");
        })
    });
    models.copy_to(ScratchDir::numbered("fleet-prop-registry"))
}

/// One generated fleet scenario.
#[derive(Debug, Clone)]
struct Scenario {
    n_jobs: usize,
    steal: StealPolicy,
    queue_capacity: usize,
    max_attempts: u32,
    failure_threshold: u32,
    /// Per-device launch-failure probability (0 = clean).
    fail_probs: Vec<f64>,
    fault_seed: u64,
}

fn arb_scenario() -> impl Strategy<Value = Scenario> {
    (
        6usize..14,
        prop_oneof![
            Just(StealPolicy::Disabled),
            Just(StealPolicy::WithinClass),
            Just(StealPolicy::Anywhere),
        ],
        prop_oneof![Just(1usize), Just(2), Just(8)],
        2u32..6,
        1u32..3,
        proptest::collection::vec(prop_oneof![Just(0.0), Just(0.4), Just(1.0)], 4..5),
        0u64..1000,
    )
        .prop_map(
            |(
                n_jobs,
                steal,
                queue_capacity,
                max_attempts,
                failure_threshold,
                fail_probs,
                fault_seed,
            )| {
                Scenario {
                    n_jobs,
                    steal,
                    queue_capacity,
                    max_attempts,
                    failure_threshold,
                    fail_probs,
                    fault_seed,
                }
            },
        )
}

fn scenario_cfg(s: &Scenario) -> FleetConfig {
    let mut cfg = base_cfg();
    cfg.n_jobs = s.n_jobs;
    cfg.steal = s.steal;
    cfg.placement = Placement::MinPredictedEnergy;
    cfg.policy = Policy::MinEnergyUnderDeadline;
    cfg.queue_capacity = s.queue_capacity;
    cfg.max_attempts = s.max_attempts;
    cfg.breaker = BreakerConfig {
        failure_threshold: s.failure_threshold,
        cooldown_ticks: 1,
        max_trips: 1,
    };
    for (device, &p) in cfg.devices.iter_mut().zip(&s.fail_probs) {
        if p > 0.0 {
            device.faults = Some(FaultPlan::seeded(s.fault_seed).fail_launches(Schedule::Prob(p)));
        }
    }
    cfg
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Every job id appears in the decision trail exactly once, across
    /// arbitrary steal policies, admission pressure, launch failures,
    /// reschedules, and (up to total) evictions.
    #[test]
    fn job_conservation_across_interleavings(s in arb_scenario()) {
        let cfg = scenario_cfg(&s);
        let report = run_fleet(&cfg, &v100_only_registry());

        prop_assert_eq!(report.decisions.len(), cfg.n_jobs);
        let mut ids: Vec<u64> =
            report.decisions.iter().map(|d| d.record.job_id).collect();
        ids.sort_unstable();
        let expected: Vec<u64> = (0..cfg.n_jobs as u64).collect();
        prop_assert_eq!(ids, expected);

        // Fleet bookkeeping reconciles with the journal regardless of
        // the interleaving.
        let stolen = report.journal.iter()
            .filter(|e| matches!(e, FleetEvent::Stolen { .. })).count() as u64;
        prop_assert_eq!(stolen, report.jobs_stolen);
        let rescheduled = report.journal.iter()
            .filter(|e| matches!(e, FleetEvent::Rescheduled { .. })).count() as u64;
        prop_assert_eq!(rescheduled, report.items_rescheduled);
        let evicted = report.journal.iter()
            .filter(|e| matches!(e, FleetEvent::Tripped { evicted: true, .. })).count() as u64;
        prop_assert_eq!(evicted, report.devices_evicted);
        prop_assert!(report.devices_evicted <= cfg.devices.len() as u64);
    }

    /// No job ever executes on the artifact-less MI100 class with a
    /// model-chosen clock; carried-in clock decisions are explicitly
    /// affinity-degraded, and the counter matches the journal.
    #[test]
    fn steal_safety_enforces_device_affinity(s in arb_scenario()) {
        let cfg = scenario_cfg(&s);
        let report = run_fleet(&cfg, &v100_only_registry());

        for d in &report.decisions {
            if d.class == BARE_CLASS {
                prop_assert!(
                    d.record.requested_mhz.is_none(),
                    "job {} ran on {} with clock {:?} despite no artifact",
                    d.record.job_id, d.class, d.record.requested_mhz
                );
                // Execution on a bare class via the prediction path is
                // always an accounted degradation of some kind.
                prop_assert!(
                    d.record.fallback.is_some(),
                    "job {} ran on {} with no recorded fallback",
                    d.record.job_id, d.class
                );
            }
            if d.record.fallback == Some(FallbackReason::AffinityDegraded) {
                prop_assert!(d.record.requested_mhz.is_none());
                prop_assert_eq!(d.class.as_str(), BARE_CLASS);
            }
        }

        let degraded = report.journal.iter()
            .filter(|e| matches!(e, FleetEvent::AffinityDegraded { .. })).count() as u64;
        prop_assert_eq!(degraded, report.affinity_fallbacks);
        prop_assert_eq!(report.degradation.affinity_fallbacks, report.affinity_fallbacks);

        // The V100 side keeps its modelled clocks: every requested clock
        // in the run sits in the V100 supported table.
        let v100 = DeviceSpec::v100();
        for d in &report.decisions {
            if let Some(freq) = d.record.requested_mhz {
                prop_assert_eq!(d.class.as_str(), "NVIDIA V100");
                prop_assert!(v100.core_freqs.contains(freq));
            }
        }
    }
}
