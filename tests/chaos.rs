//! Chaos suite: every fault class the simulator can inject, tested for
//! graceful degradation end to end.
//!
//! The fault classes ([`gpu_sim::FaultPlan`]) mirror the failure modes the
//! vendor management APIs exhibit on real machines:
//!
//! * **set-frequency rejection** — `NVML_ERROR_NO_PERMISSION`,
//!   `RSMI_STATUS_BUSY`: the call fails and the device keeps its previous
//!   clock. Healed by the queue's bounded retries, then by falling back to
//!   the default clock.
//! * **power/thermal throttling** — silent: the launch succeeds but runs
//!   below the requested clock, flagged in its [`LaunchRecord`].
//! * **energy-counter wrap/reset** — `rsmi_dev_energy_count_get` style
//!   counter rewinds. Healed into a monotone reading by the queue.
//! * **transient launch failure** — `NVML_ERROR_GPU_IS_LOST` and friends:
//!   the launch does nothing; retries ride it out or the submission is
//!   abandoned with a typed error inside a provable attempt bound.
//!
//! The final tests pin the other half of the contract: a fault-free plan
//! is *invisible* — bit-identical measurements, clean degradation
//! counters — and a faulty characterization sweep degrades gracefully
//! instead of poisoning its output.

use std::sync::Arc;

use cronos::Grid;
use energy_model::{characterize, characterize_with_options, SweepOptions};
use gpu_sim::nvml::NvmlDevice;
use gpu_sim::{Device, DeviceSpec, FaultPlan, KernelProfile, Schedule, ThrottleWindow};
use parking_lot::Mutex;
use synergy::backend::NvmlBackend;
use synergy::{BackendError, RetryPolicy, SynergyQueue};

mod common;
use common::ScratchDir;

fn kernel() -> KernelProfile {
    KernelProfile::compute_bound("chaos", 1 << 20, 200.0)
}

fn small_cronos() -> cronos::GpuCronos {
    cronos::GpuCronos::new(Grid::cubic(12, 6, 6), 3)
}

// ---- Fault class: set-frequency rejection ----

#[test]
fn one_rejection_is_healed_by_retry() {
    let plan = FaultPlan::none().reject_set_frequency(Schedule::once(0));
    let mut q = SynergyQueue::nvidia(Device::with_faults(DeviceSpec::v100(), plan));
    let k = kernel();

    let ev = q
        .try_submit_at(&k, Some(900.0))
        .expect("one rejection is within the default retry budget");
    assert!(
        (ev.core_mhz - 900.0).abs() < 15.0,
        "after the retry the requested clock must stick, got {} MHz",
        ev.core_mhz
    );
    assert!(!ev.throttled);

    let d = q.degradation();
    assert_eq!(d.frequency_rejections, 1);
    assert_eq!(d.retries, 1);
    assert_eq!(d.default_clock_fallbacks, 0);
    assert!(d.backoff_ns > 0, "the retry must have backed off");
}

#[test]
fn persistent_rejection_falls_back_to_default_clock() {
    let plan = FaultPlan::seeded(1).reject_set_frequency(Schedule::Prob(1.0));
    let spec = DeviceSpec::v100();
    let default_mhz = spec.default_core_mhz;
    let mut q = SynergyQueue::nvidia(Device::with_faults(spec, plan));
    let policy = RetryPolicy {
        max_retries: 2,
        ..RetryPolicy::default()
    };
    q.set_retry_policy(policy);

    let ev = q
        .try_submit_at(&kernel(), Some(900.0))
        .expect("fallback to the default clock must succeed");
    assert_eq!(
        ev.core_mhz, default_mhz,
        "degraded submission must land on the default clock"
    );

    let d = q.degradation();
    assert_eq!(
        d.frequency_rejections,
        u64::from(policy.max_retries) + 1,
        "every attempt at the requested clock was rejected"
    );
    assert_eq!(d.default_clock_fallbacks, 1);
}

/// The vendor default is the one core clock that needs no clock request.
/// On every vendor, under a plan that rejects every request, default
/// submissions run untouched, while a fixed non-default clock is rejected
/// at that clock and then falls back to the default one.
#[test]
fn the_default_clock_needs_no_request_on_every_vendor() {
    for spec in [
        DeviceSpec::v100(),
        DeviceSpec::mi100(),
        DeviceSpec::max1100(),
    ] {
        let plan = FaultPlan::seeded(3).reject_set_frequency(Schedule::Prob(1.0));
        let name = spec.name.clone();
        let default_mhz = spec.default_core_mhz;
        let fixed_mhz = spec.core_freqs.snap(900.0);
        let mut q = SynergyQueue::for_device(Device::with_faults(spec, plan));
        let k = kernel();

        for _ in 0..3 {
            let ev = q
                .try_submit(&k)
                .expect("a default submission is never rejected");
            assert_eq!(ev.core_mhz, default_mhz, "{name}");
        }
        assert_eq!(q.degradation().frequency_rejections, 0, "{name}");

        q.set_policy(synergy::FrequencyPolicy::Fixed(900.0));
        q.set_retry_policy(RetryPolicy::none());
        let err = q
            .try_submit(&k)
            .expect_err("every clock request is rejected");
        assert_eq!(
            err.last_error,
            BackendError::FrequencyRejected {
                requested_mhz: fixed_mhz
            },
            "{name}"
        );

        q.set_retry_policy(RetryPolicy::default());
        let ev = q
            .try_submit(&k)
            .expect("fallback to the default clock must succeed");
        assert_eq!(ev.core_mhz, default_mhz, "{name}");
        let d = q.degradation();
        assert_eq!(
            d.frequency_rejections,
            1 + u64::from(RetryPolicy::default().max_retries) + 1,
            "{name}: one rejection without retries, then every retry"
        );
        assert_eq!(d.default_clock_fallbacks, 1, "{name}");
        assert_eq!(q.submission_count(), 4, "{name}");
    }
}

#[test]
fn rejection_without_fallback_is_a_typed_error() {
    let plan = FaultPlan::seeded(2).reject_set_frequency(Schedule::Prob(1.0));
    let mut q = SynergyQueue::nvidia(Device::with_faults(DeviceSpec::v100(), plan));
    let policy = RetryPolicy {
        max_retries: 1,
        fallback_to_default: false,
        ..RetryPolicy::default()
    };
    q.set_retry_policy(policy);

    let err = q
        .try_submit_at(&kernel(), Some(900.0))
        .expect_err("no fallback, every attempt rejected");
    assert!(err.attempts <= policy.max_attempts_per_launch());
    assert!(matches!(
        err.last_error,
        BackendError::FrequencyRejected { .. }
    ));
}

// ---- Fault class: power/thermal throttling ----

#[test]
fn throttle_window_caps_launches_then_clears() {
    let plan = FaultPlan::none().throttle(
        Schedule::once(0),
        ThrottleWindow {
            cap_mhz: 700.0,
            launches: 3,
        },
    );
    let mut dev = Device::with_faults(DeviceSpec::v100(), plan);
    let k = kernel();

    for i in 0..6 {
        let rec = dev
            .launch_at(&k, 1300.0)
            .expect("throttling never fails a launch");
        if i < 3 {
            assert!(rec.throttled, "launch {i} is inside the throttle window");
            assert!(
                rec.core_mhz <= 700.0 + 1e-9,
                "throttled clock {} exceeds the 700 MHz cap",
                rec.core_mhz
            );
        } else {
            assert!(!rec.throttled, "launch {i} is past the window");
            assert!(
                (rec.core_mhz - 1300.0).abs() < 15.0,
                "clock must recover after the window, got {} MHz",
                rec.core_mhz
            );
        }
    }
}

#[test]
fn queue_surfaces_throttled_launch_count() {
    let plan = FaultPlan::none().throttle(
        Schedule::once(0),
        ThrottleWindow {
            cap_mhz: 700.0,
            launches: 2,
        },
    );
    let mut q = SynergyQueue::nvidia(Device::with_faults(DeviceSpec::v100(), plan));
    q.set_policy(synergy::FrequencyPolicy::Fixed(1300.0));
    let k = kernel();
    for _ in 0..4 {
        q.submit(&k);
    }
    assert_eq!(q.degradation().throttled_launches, 2);
}

// ---- Fault class: energy-counter wrap/reset ----

#[test]
fn counter_reset_rewinds_raw_counter_but_healed_reading_is_monotone() {
    let plan = FaultPlan::none().reset_energy_counter(Schedule::once(1));
    let shared = Arc::new(Mutex::new(Device::with_faults(DeviceSpec::v100(), plan)));
    // Second management handle on the same device: reads the *raw* vendor
    // counter the queue's healed view papers over.
    let raw = NvmlDevice::from_shared(Arc::clone(&shared));
    let mut q = SynergyQueue::new(Box::new(NvmlBackend::new(NvmlDevice::from_shared(shared))));
    let k = kernel();

    q.submit(&k);
    let healed_before = q.device_energy_j();
    let raw_before = raw.total_energy_consumption_mj();
    assert!(raw_before > 0);

    q.submit(&k); // the reset fires after this launch completes
    let raw_after = raw.total_energy_consumption_mj();
    assert!(
        raw_after < raw_before,
        "raw counter must rewind ({raw_after} mJ !< {raw_before} mJ)"
    );

    let healed_after = q.device_energy_j();
    assert!(
        healed_after >= healed_before,
        "healed energy went backwards: {healed_after} < {healed_before}"
    );
    assert_eq!(q.degradation().counter_rewinds_healed, 1);
}

// ---- Fault class: transient launch failure ----

#[test]
fn cronos_run_completes_across_transient_launch_failures() {
    // Two failures at fixed attempt indices: fully deterministic.
    let plan = FaultPlan::none().fail_launches(Schedule::at([2, 7]));
    let mut q = SynergyQueue::for_device(Device::with_faults(DeviceSpec::v100(), plan));
    let wl = small_cronos();
    assert!(
        wl.kernel_count() > 8,
        "workload must outlast the fault plan"
    );

    let m = cronos::GpuCronos::run(&wl, &mut q); // must not panic
    assert!(m.time_s > 0.0 && m.energy_j > 0.0);

    let d = q.degradation();
    assert_eq!(d.launch_failures, 2);
    assert_eq!(d.retries, 2);
    assert!(d.backoff_ns > 0);
}

#[test]
fn permanent_launch_failure_is_abandoned_within_the_attempt_bound() {
    let plan = FaultPlan::seeded(9).fail_launches(Schedule::Prob(1.0));
    let mut q = SynergyQueue::nvidia(Device::with_faults(DeviceSpec::v100(), plan));
    let policy = q.retry_policy();

    let err = q
        .try_submit(&kernel())
        .expect_err("every launch attempt fails");
    assert_eq!(err.kernel, "chaos");
    assert!(err.attempts >= 1);
    assert!(err.attempts <= policy.max_attempts_per_launch());
    assert!(matches!(err.last_error, BackendError::LaunchFailed { .. }));
    assert_eq!(q.degradation().launch_failures, u64::from(err.attempts));
    // The queue is still usable: nothing was torn down by the abandonment.
    assert_eq!(q.submission_count(), 0);
}

// ---- Fault-free plans are invisible ----

fn assert_fault_free_plan_invisible(
    spec: DeviceSpec,
    run: &dyn Fn(&mut SynergyQueue) -> (f64, f64),
) {
    let mut plain = SynergyQueue::for_device(Device::new(spec.clone()));
    let expect = run(&mut plain);

    let mut chaos = SynergyQueue::for_device(Device::with_faults(spec, FaultPlan::none()));
    let got = run(&mut chaos);

    assert_eq!(expect, got, "inert fault plan changed a measurement");
    assert!(chaos.degradation().is_clean());
}

#[test]
fn fault_free_plan_is_bit_identical_both_apps_both_vendors() {
    let cronos_run = |q: &mut SynergyQueue| {
        let m = cronos::GpuCronos::run(&small_cronos(), q);
        (m.time_s, m.energy_j)
    };
    let ligen_run = |q: &mut SynergyQueue| {
        let m = ligen::GpuLigen::new(500, 31, 4).run(q);
        (m.time_s, m.energy_j)
    };
    for spec in [DeviceSpec::v100(), DeviceSpec::mi100()] {
        assert_fault_free_plan_invisible(spec.clone(), &cronos_run);
        assert_fault_free_plan_invisible(spec, &ligen_run);
    }
}

// ---- Characterization under chaos ----

#[test]
fn characterize_degrades_gracefully_under_a_live_fault_plan() {
    let spec = DeviceSpec::v100();
    let freqs = [900.0, 1312.1];
    let opts = SweepOptions {
        reps: 2,
        noise_seed: None,
        faults: FaultPlan::seeded(20230521)
            .reject_set_frequency(Schedule::Prob(0.2))
            .fail_launches(Schedule::Prob(0.01))
            .reset_energy_counter(Schedule::Prob(0.02))
            .throttle(
                Schedule::Prob(0.3),
                ThrottleWindow {
                    cap_mhz: 800.0,
                    launches: 10,
                },
            ),
        retry: RetryPolicy::default(),
        remeasure_limit: 2,
        telemetry: None,
    };
    let (c, diag) = characterize_with_options(&spec, &small_cronos(), &freqs, &opts);

    // Graceful degradation: the sweep completes with finite, usable points.
    assert_eq!(c.points.len(), freqs.len());
    assert!(c.baseline_time_s > 0.0 && c.baseline_energy_j > 0.0);
    for p in &c.points {
        assert!(p.time_s.is_finite() && p.time_s > 0.0);
        assert!(p.energy_j.is_finite() && p.energy_j > 0.0);
        assert!(p.speedup.is_finite() && p.speedup > 0.0);
        assert!(p.norm_energy.is_finite() && p.norm_energy > 0.0);
    }

    // ... and the chaos left an audit trail instead of silent corruption.
    assert!(
        !diag.is_clean(),
        "this plan fires on virtually every attempt"
    );
    assert_eq!(diag.points.len(), freqs.len());

    // The same sweep fault-free remains untouched by the machinery.
    let clean = characterize(&spec, &small_cronos(), &freqs, 2, None);
    assert_eq!(clean.points.len(), freqs.len());
}

// ---- Campaign supervision under chaos ----

/// A two-slot campaign over a live fault plan completes, its accepted
/// points stay finite, and the quarantine stage accounts for every sweep
/// point with provenance — nothing is silently dropped or kept.
#[test]
fn campaign_under_chaos_completes_and_quarantine_accounts_for_every_point() {
    use energy_model::{
        quarantine_results, run_campaign, CampaignConfig, DeviceSlot, QuarantinePolicy,
    };

    let spec = DeviceSpec::v100();
    let plan = FaultPlan::seeded(20230521)
        .reject_set_frequency(Schedule::Prob(0.2))
        .fail_launches(Schedule::Prob(0.4))
        .reset_energy_counter(Schedule::Prob(0.05))
        .throttle(
            Schedule::Prob(0.3),
            ThrottleWindow {
                cap_mhz: 800.0,
                launches: 10,
            },
        );
    let slots = vec![
        DeviceSlot::healthy("gpu0"),
        DeviceSlot::with_health("gpu1", plan),
    ];
    let mut cfg = CampaignConfig::new(spec, slots, vec![700.0, 900.0, 1100.0, 1312.1]);
    cfg.reps = 2;
    cfg.noise_seed = Some(7);

    let dir = ScratchDir::create("energy-model-chaos-campaign");
    let wl = small_cronos();
    let workloads: Vec<&dyn energy_model::characterize::Workload> = vec![&wl];
    let outcome =
        run_campaign(&cfg, &workloads, &dir, false).expect("campaign rides out the chaos");

    assert_eq!(outcome.results.len(), 1);
    let (ch, diag) = &outcome.results[0];
    assert_eq!(ch.points.len(), cfg.freqs.len());
    assert!(ch.baseline_time_s > 0.0 && ch.baseline_energy_j > 0.0);
    for p in &ch.points {
        assert!(p.time_s.is_finite() && p.time_s > 0.0);
        assert!(p.energy_j.is_finite() && p.energy_j > 0.0);
    }
    assert_eq!(diag.points.len(), cfg.freqs.len());

    // Quarantine accounts for every point exactly once, with reasons.
    let (kept, report) = quarantine_results(&outcome.results, &QuarantinePolicy::default());
    let total: usize = outcome.results.iter().map(|(c, _)| c.points.len()).sum();
    assert_eq!(report.kept + report.dropped.len(), total);
    assert_eq!(
        kept.iter().map(|c| c.points.len()).sum::<usize>(),
        report.kept
    );
    for q in &report.dropped {
        assert!(!q.reasons.is_empty(), "quarantine must state its reasons");
    }
}
