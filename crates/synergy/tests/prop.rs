//! Property tests of the degradation machinery: wrap-healing must be
//! monotone for *any* counter behaviour, and the retry loop must terminate
//! within its advertised bound for *any* policy and failure pattern.

use gpu_sim::device::LaunchRecord;
use gpu_sim::kernel::KernelProfile;
use gpu_sim::{Device, DeviceSpec, FaultPlan, Schedule, ThrottleWindow, Vendor};
use proptest::prelude::*;
use synergy::backend::{Backend, BackendError};
use synergy::metrics::EnergyCounterHealer;
use synergy::queue::{RetryPolicy, SynergyQueue};
use synergy::{FrequencyPolicy, KernelTrace, TraceSegment};

/// A backend whose launches always fail — the worst case the retry loop
/// can meet. Counts how many times it was called.
struct AlwaysFailing {
    calls: u64,
}

impl Backend for AlwaysFailing {
    fn device_name(&self) -> String {
        "always-failing".into()
    }
    fn vendor(&self) -> Vendor {
        Vendor::Nvidia
    }
    fn energy_counter_j(&self) -> f64 {
        0.0
    }
    fn launch(
        &mut self,
        kernel: &KernelProfile,
        _freq_mhz: Option<f64>,
    ) -> Result<LaunchRecord, BackendError> {
        self.calls += 1;
        Err(BackendError::LaunchFailed {
            kernel: kernel.name.clone(),
        })
    }
}

/// One step of an arbitrary device history.
#[derive(Debug, Clone)]
enum Op {
    Launch { freq_index: usize },
    Idle { dt_s: f64 },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0usize..195).prop_map(|freq_index| Op::Launch { freq_index }),
        (0.0..0.5f64).prop_map(|dt_s| Op::Idle { dt_s }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The healer's output never decreases, whatever the raw counter does.
    #[test]
    fn healer_is_monotone_for_any_raw_sequence(raws in proptest::collection::vec(0.0..1e6f64, 1..40)) {
        let mut h = EnergyCounterHealer::new();
        let mut prev = 0.0;
        for raw in raws {
            let healed = h.observe(raw);
            prop_assert!(healed >= prev, "healed {healed} < previous {prev}");
            prev = healed;
        }
    }

    /// The healed counter of a faulty device stays monotone non-decreasing
    /// across arbitrary launch/idle/fault sequences — counter resets,
    /// throttling, and dropped launches included.
    #[test]
    fn healed_device_counter_monotone_under_faults(
        seed in 0u64..5_000,
        reset_p in 0.0..0.5f64,
        fail_p in 0.0..0.3f64,
        ops in proptest::collection::vec(arb_op(), 1..30),
    ) {
        let plan = FaultPlan::seeded(seed)
            .reset_energy_counter(Schedule::Prob(reset_p))
            .fail_launches(Schedule::Prob(fail_p))
            .throttle(Schedule::Prob(0.2), ThrottleWindow { cap_mhz: 700.0, launches: 2 });
        let spec = DeviceSpec::v100();
        let fs: Vec<f64> = spec.core_freqs.as_slice().to_vec();
        let k = KernelProfile::compute_bound("prop", 1 << 18, 100.0);
        let mut dev = Device::with_faults(spec, plan);
        let mut h = EnergyCounterHealer::new();
        let mut prev = 0.0;
        for op in ops {
            match op {
                Op::Launch { freq_index } => {
                    // Dropped launches are part of the history under test.
                    let _ = dev.launch_at(&k, fs[freq_index]);
                }
                Op::Idle { dt_s } => dev.idle_advance(dt_s),
            }
            let healed = h.observe(dev.energy_counter_j());
            prop_assert!(healed >= prev, "healed counter went backwards: {healed} < {prev}");
            prev = healed;
        }
    }

    /// The queue-level healed counter is monotone across submissions even
    /// when the device keeps resetting its raw counter.
    #[test]
    fn queue_device_energy_monotone_under_resets(
        seed in 0u64..5_000,
        reset_p in 0.0..0.6f64,
        n in 1u64..20,
    ) {
        let plan = FaultPlan::seeded(seed).reset_energy_counter(Schedule::Prob(reset_p));
        let mut q = SynergyQueue::for_device(Device::with_faults(DeviceSpec::v100(), plan));
        let k = KernelProfile::compute_bound("prop", 1 << 18, 100.0);
        let mut prev = 0.0;
        for _ in 0..n {
            q.submit(&k);
            let healed = q.device_energy_j();
            prop_assert!(healed >= prev);
            prev = healed;
        }
    }

    /// Against a permanently failing backend, the retry loop always gives
    /// up within `max_attempts_per_launch` backend calls — it terminates,
    /// and the bound it reports is exact. Both retry loops are checked: a
    /// single submission, and the per-segment step of a trace replay (the
    /// backend has no fused path, so a one-segment trace runs it).
    #[test]
    fn retry_policy_terminates_within_bound(
        max_retries in 0u32..5,
        fallback_bit in 0u32..2,
        base in 0.0..1e-3f64,
        factor in 1.0..3.0f64,
        freq_bit in 0u32..2,
    ) {
        let policy = RetryPolicy {
            max_retries,
            backoff_base_s: base,
            backoff_factor: factor,
            fallback_to_default: fallback_bit == 1,
        };
        let mut q = SynergyQueue::new(Box::new(AlwaysFailing { calls: 0 }));
        q.set_retry_policy(policy);
        let k = KernelProfile::compute_bound("doomed", 1 << 10, 10.0);
        let freq = (freq_bit == 1).then_some(1000.0);
        let err = q.try_submit_at(&k, freq).expect_err("backend always fails");
        prop_assert!(err.attempts >= 1);
        prop_assert!(
            err.attempts <= policy.max_attempts_per_launch(),
            "{} attempts exceeds bound {}",
            err.attempts,
            policy.max_attempts_per_launch()
        );
        // The degradation log saw every failure.
        prop_assert_eq!(q.degradation().launch_failures, err.attempts as u64);

        let mut q = SynergyQueue::new(Box::new(AlwaysFailing { calls: 0 }));
        q.set_retry_policy(policy);
        q.set_policy(freq.map_or(FrequencyPolicy::DeviceDefault, FrequencyPolicy::Fixed));
        let segment = TraceSegment { kernel_index: 0, count: 3 };
        let trace = KernelTrace::new(vec![k], vec![segment], 1);
        let err = trace.try_replay_on(&mut q).expect_err("backend always fails");
        prop_assert!(err.attempts >= 1);
        prop_assert!(
            err.attempts <= policy.max_attempts_per_launch(),
            "segment: {} attempts exceeds bound {}",
            err.attempts,
            policy.max_attempts_per_launch()
        );
        prop_assert_eq!(q.degradation().launch_failures, err.attempts as u64);
    }
}
