//! Property-based tests of the simulator's physical invariants: for *any*
//! kernel shape and frequency, the model must behave like hardware.

use gpu_sim::kernel::{KernelProfile, OpMix};
use gpu_sim::noise::NoiseModel;
use gpu_sim::power::{energy_from_parts, kernel_power, resolve_power_cap};
use gpu_sim::timing::kernel_timing;
use gpu_sim::{Device, DeviceSpec, FaultPlan, Schedule, ThrottleWindow};
use proptest::prelude::*;

fn arb_mix() -> impl Strategy<Value = OpMix> {
    (
        0.0..200.0f64,
        0.0..200.0f64,
        0.0..20.0f64,
        0.0..50.0f64,
        0.0..500.0f64,
        0.0..500.0f64,
        0.0..20.0f64,
        0.0..40.0f64,
        0.1..200.0f64,
        0.0..100.0f64,
    )
        .prop_map(|(ia, im, id, ib, fa, fm, fd, sf, ga, la)| OpMix {
            int_add: ia,
            int_mul: im,
            int_div: id,
            int_bw: ib,
            float_add: fa,
            float_mul: fm,
            float_div: fd,
            special: sf,
            global_access: ga,
            local_access: la,
        })
}

fn arb_kernel() -> impl Strategy<Value = KernelProfile> {
    (arb_mix(), 1u64..100_000_000, 0.5..1.0f64)
        .prop_map(|(mix, n, ilp)| KernelProfile::new("prop", n, mix).with_ilp_efficiency(ilp))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Raising the core clock never slows a kernel down.
    #[test]
    fn time_monotone_in_frequency(k in arb_kernel(), lo in 0usize..195, hi in 0usize..195) {
        let spec = DeviceSpec::v100();
        let fs = spec.core_freqs.as_slice();
        let (lo, hi) = (lo.min(hi), lo.max(hi));
        let t_lo = kernel_timing(&spec, &k, fs[lo], 1107.0).total_s;
        let t_hi = kernel_timing(&spec, &k, fs[hi], 1107.0).total_s;
        prop_assert!(t_hi <= t_lo * (1.0 + 1e-12));
    }

    /// Resolved (firmware-throttled) power stays inside [0, TDP] at any
    /// requested frequency — the raw demand model may exceed TDP at the top
    /// clocks, but the throttle loop brings the effective clock down (the
    /// minimum clock is a physical floor, which no V100-class kernel pushes
    /// past TDP).
    #[test]
    fn power_within_envelope(k in arb_kernel(), fi in 0usize..195) {
        let spec = DeviceSpec::v100();
        let f = spec.core_freqs.as_slice()[fi];
        let r = resolve_power_cap(&spec, &k, f, 1107.0, None);
        prop_assert!(r.power.total_w > 0.0);
        prop_assert!(
            r.power.total_w <= spec.tdp_w * (1.0 + 1e-12)
                || r.core_mhz == spec.min_core_mhz()
        );
        prop_assert!(r.core_mhz <= f * (1.0 + 1e-12));
    }

    /// Energy of a resolved launch is positive and at most TDP × duration.
    #[test]
    fn energy_bounded_by_tdp(k in arb_kernel(), fi in 0usize..195) {
        let spec = DeviceSpec::v100();
        let f = spec.core_freqs.as_slice()[fi];
        let r = resolve_power_cap(&spec, &k, f, 1107.0, None);
        let e = energy_from_parts(&spec, &r.timing, &r.power);
        prop_assert!(e > 0.0);
        prop_assert!(
            e <= spec.tdp_w * r.timing.total_s * (1.0 + 1e-12)
                || r.core_mhz == spec.min_core_mhz()
        );
    }

    /// A binding operator cap never speeds a kernel up, and a cap at TDP is
    /// bit-identical to no cap.
    #[test]
    fn caps_conserve_work(k in arb_kernel(), fi in 0usize..195, cap in 50.0..350.0f64) {
        let spec = DeviceSpec::v100();
        let f = spec.core_freqs.as_slice()[fi];
        let unc = resolve_power_cap(&spec, &k, f, 1107.0, None);
        let capped = resolve_power_cap(&spec, &k, f, 1107.0, Some(cap));
        prop_assert!(capped.timing.total_s >= unc.timing.total_s * (1.0 - 1e-12));
        prop_assert!(capped.core_mhz <= unc.core_mhz * (1.0 + 1e-12));
        let e_unc = energy_from_parts(&spec, &unc.timing, &unc.power);
        let e_cap = energy_from_parts(&spec, &capped.timing, &capped.power);
        // No free lunch: capped energy is bounded below by the uncapped
        // energy scaled by how little average power the cap can remove —
        // in particular it can never drop below idle × capped runtime.
        prop_assert!(e_cap >= spec.idle_power_w * 0.55 * capped.timing.total_s * (1.0 - 1e-12));
        prop_assert!(e_cap > 0.0 && e_unc > 0.0);
        let at_tdp = resolve_power_cap(&spec, &k, f, 1107.0, Some(spec.tdp_w));
        prop_assert_eq!(at_tdp.timing.total_s.to_bits(), unc.timing.total_s.to_bits());
        prop_assert_eq!(at_tdp.power.total_w.to_bits(), unc.power.total_w.to_bits());
    }

    /// Memory power (and with it total power) is monotone non-decreasing in
    /// the memory clock at fixed timing activity inputs.
    #[test]
    fn mem_power_monotone_in_mem_clock(k in arb_kernel(), fi in 0usize..195) {
        let spec = DeviceSpec::v100();
        let f = spec.core_freqs.as_slice()[fi];
        let mut prev = -1.0f64;
        for m in spec.mem_freqs.as_slice() {
            let t = kernel_timing(&spec, &k, f, *m);
            let p = kernel_power(&spec, &t, f, *m);
            prop_assert!(p.mem_w > 0.0);
            // Timing activity can shift with the mem clock, so compare the
            // floor component's scale via a fixed-activity probe instead:
            // recompute power at this mem clock with the *top-clock* timing.
            let t_top = kernel_timing(&spec, &k, f, spec.mem_freqs.max());
            let p_fixed = kernel_power(&spec, &t_top, f, *m);
            prop_assert!(p_fixed.mem_w >= prev - 1e-12);
            prev = p_fixed.mem_w;
        }
    }

    /// More work items never reduce wall-clock time.
    #[test]
    fn time_monotone_in_work(mix in arb_mix(), n in 1u64..10_000_000, k_factor in 2u64..16) {
        let spec = DeviceSpec::v100();
        let small = KernelProfile::new("s", n, mix);
        let big = KernelProfile::new("b", n.saturating_mul(k_factor), mix);
        let ts = kernel_timing(&spec, &small, 1000.0, 1107.0).total_s;
        let tb = kernel_timing(&spec, &big, 1000.0, 1107.0).total_s;
        prop_assert!(tb >= ts * (1.0 - 1e-12));
    }

    /// Frequency snapping always lands on a supported frequency and is
    /// idempotent.
    #[test]
    fn snap_is_idempotent(mhz in 0.0..3000.0f64) {
        let spec = DeviceSpec::v100();
        let s1 = spec.core_freqs.snap(mhz);
        prop_assert!(spec.core_freqs.contains(s1));
        prop_assert_eq!(spec.core_freqs.snap(s1), s1);
    }

    /// The device's cumulative counters are consistent with the per-launch
    /// records under any launch sequence.
    #[test]
    fn device_counters_are_sums(seq in proptest::collection::vec((arb_kernel(), 0usize..195), 1..8)) {
        let spec = DeviceSpec::v100();
        let fs: Vec<f64> = spec.core_freqs.as_slice().to_vec();
        let mut dev = Device::new(spec);
        let mut t_sum = 0.0;
        let mut e_sum = 0.0;
        for (k, fi) in &seq {
            let rec = dev.launch_at(k, fs[*fi]).unwrap();
            t_sum += rec.time_s;
            e_sum += rec.energy_j;
        }
        prop_assert!((dev.clock_s() - t_sum).abs() < 1e-9 * t_sum.max(1.0));
        prop_assert!((dev.energy_counter_j() - e_sum).abs() < 1e-9 * e_sum.max(1.0));
    }

    /// A throttled launch never reports a core clock above the requested
    /// one, and `throttled` is set exactly when the clock was capped.
    #[test]
    fn throttled_clock_never_exceeds_request(
        seed in 0u64..10_000,
        p in 0.0..1.0f64,
        cap_i in 0usize..195,
        window in 1u64..6,
        seq in proptest::collection::vec((arb_kernel(), 0usize..195), 1..10),
    ) {
        let spec = DeviceSpec::v100();
        let fs: Vec<f64> = spec.core_freqs.as_slice().to_vec();
        let cap = fs[cap_i];
        let plan = FaultPlan::seeded(seed).throttle(
            Schedule::Prob(p),
            ThrottleWindow { cap_mhz: cap, launches: window },
        );
        let mut dev = Device::with_faults(spec, plan);
        for (k, fi) in &seq {
            let requested = fs[*fi];
            let rec = dev.launch_at(k, requested).unwrap();
            prop_assert!(rec.core_mhz <= requested * (1.0 + 1e-12));
            prop_assert_eq!(rec.throttled, rec.core_mhz < requested);
        }
    }

    /// Noise factors stay within ±20 % at realistic σ and are reproducible.
    #[test]
    fn noise_bounded_and_deterministic(seed in 0u64..1_000_000) {
        let mut a = NoiseModel::realistic(seed);
        let mut b = NoiseModel::realistic(seed);
        for _ in 0..20 {
            let fa = a.time_factor();
            prop_assert!((0.8..1.2).contains(&fa));
            prop_assert_eq!(fa, b.time_factor());
        }
    }
}
