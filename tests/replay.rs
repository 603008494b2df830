//! The fused kernel-trace replay against its per-launch oracle.
//!
//! On a device whose fault plan is inert, `KernelTrace::try_replay_on`
//! hands the whole trace to the backend in one call: each distinct kernel
//! is priced once per replay and every launch runs through one priced
//! launch loop. A fault plan that is armed but never fires (a launch
//! failure at operation `u64::MAX`) is not inert, so it forces the
//! segment-by-segment path, where every launch goes through
//! `Device::launch_at` and its fault hooks while the physics stays the
//! same. The two must agree bit for bit on everything the queue reports,
//! for the governor's eight job templates and a trace of multi-launch
//! segments, on all three vendors, with noise off and on, under every
//! policy kind, at a lowered memory clock and under a binding power cap.

use std::sync::Arc;

use energy_model::workflow::CRONOS_STEPS;
use energy_model::Workload;
use governor::sim::{cronos_job_set, ligen_job_set};
use gpu_sim::noise::NoiseModel;
use gpu_sim::{Device, DeviceSpec, FaultPlan, KernelProfile, PriceTable, Schedule};
use synergy::{DegradationMetrics, FrequencyPolicy, KernelTrace, SynergyQueue, TraceSegment};

/// Replays per queue: the later ones reuse the queue's replay storage and
/// hit the prices the first one looked up.
const REPLAYS: u64 = 3;

/// The governor's job templates (Cronos set, then LiGen set), recorded on
/// `spec` the way the governor records them, then one synthetic trace.
/// Every template segment is a single launch, so the synthetic one runs
/// segments of several launches, whose batch sums the replay measurement
/// adds up, and keeps a kernel no segment launches, which must go unpriced.
fn templates(spec: &DeviceSpec) -> Vec<(String, KernelTrace)> {
    let cronos = cronos_job_set().into_iter().map(|c| {
        let grid = cronos::Grid::cubic(c.grid_x, c.grid_y, c.grid_z);
        (
            c.label(),
            cronos::GpuCronos::new(grid, CRONOS_STEPS).record(spec),
        )
    });
    let ligen = ligen_job_set().into_iter().map(|c| {
        let workload = ligen::GpuLigen::new(c.ligands as u64, c.atoms as u64, c.fragments as u64);
        (c.label(), workload.record(spec))
    });
    let kernels = vec![
        KernelProfile::compute_bound("runs::compute", 1 << 20, 400.0),
        KernelProfile::memory_bound("runs::stream", 1 << 22, 48.0),
        KernelProfile::compute_bound("runs::unlaunched", 1 << 10, 10.0),
    ];
    let seg = |kernel_index, count| TraceSegment {
        kernel_index,
        count,
    };
    let runs = KernelTrace::new(kernels, vec![seg(0, 3), seg(1, 5), seg(0, 2)], 4);
    cronos
        .chain(ligen)
        .chain([("runs".to_string(), runs)])
        .collect()
}

/// The device-side setting a replay runs under.
#[derive(Debug, Clone, Copy)]
enum Machine {
    Default,
    LowMemClock,
    PowerCap,
}

/// Everything a replayed queue reports, as bits.
#[derive(Debug, PartialEq)]
struct Outcome {
    replays: Vec<(u64, u64)>,
    totals: (u64, u64),
    submissions: u64,
    device_energy_j: u64,
    degradation: DegradationMetrics,
}

/// A queue over a fresh `spec` device, plus that device's price table.
fn queue(
    spec: &DeviceSpec,
    noise_seed: Option<u64>,
    oracle: bool,
    machine: Machine,
    policy: &FrequencyPolicy,
) -> (SynergyQueue, Arc<PriceTable>) {
    let mut dev = match noise_seed {
        Some(seed) => Device::with_noise(spec.clone(), NoiseModel::realistic(seed)),
        None => Device::new(spec.clone()),
    };
    if oracle {
        dev.set_fault_plan(FaultPlan::none().fail_launches(Schedule::once(u64::MAX)));
        assert!(!dev.fault_state().is_inert(), "the oracle plan is armed");
    }
    let table = Arc::clone(dev.price_table());
    let mut q = SynergyQueue::for_device(dev);
    match machine {
        Machine::Default => {}
        Machine::LowMemClock => {
            let low = q.supported_memory_frequencies()[0];
            assert_eq!(q.set_memory_frequency(Some(low)).unwrap(), low);
        }
        Machine::PowerCap => {
            let cap = 0.4 * spec.tdp_w;
            assert_eq!(q.set_power_cap(Some(cap)).unwrap(), Some(cap));
        }
    }
    q.set_policy(policy.clone());
    (q, table)
}

fn replay(trace: &KernelTrace, q: &mut SynergyQueue) -> Outcome {
    let replays = (0..REPLAYS)
        .map(|_| {
            let m = trace.try_replay_on(q).expect("no fault fires");
            (m.time_s.to_bits(), m.energy_j.to_bits())
        })
        .collect();
    Outcome {
        replays,
        totals: (q.total_time_s().to_bits(), q.total_energy_j().to_bits()),
        submissions: q.submission_count(),
        device_energy_j: q.device_energy_j().to_bits(),
        degradation: q.degradation(),
    }
}

/// The three policy kinds: the vendor default, one pinned clock, and two
/// kernels pinned to different clocks with the rest at the default.
fn policies(spec: &DeviceSpec, trace: &KernelTrace) -> [FrequencyPolicy; 3] {
    let freqs: Vec<f64> = spec.core_freqs.iter().collect();
    let at = |num: usize| freqs[freqs.len() * num / 4];
    let names = trace.kernels();
    [
        FrequencyPolicy::DeviceDefault,
        FrequencyPolicy::Fixed(at(2)),
        FrequencyPolicy::per_kernel(
            [
                (names[0].name.clone(), at(1)),
                (names[1].name.clone(), at(3)),
            ],
            None,
        ),
    ]
}

#[test]
fn fused_replay_is_bit_identical_to_the_per_launch_oracle() {
    for spec in [
        DeviceSpec::v100(),
        DeviceSpec::mi100(),
        DeviceSpec::max1100(),
    ] {
        let mut cap_binds = false;
        for (label, trace) in templates(&spec) {
            let distinct = {
                let mut used: Vec<usize> = trace.period().iter().map(|s| s.kernel_index).collect();
                used.sort_unstable();
                used.dedup();
                used.len()
            };
            for noise_seed in [None, Some(20231112)] {
                for policy in policies(&spec, &trace) {
                    let mut uncapped_time = 0;
                    for machine in [Machine::Default, Machine::LowMemClock, Machine::PowerCap] {
                        let case = format!(
                            "{} {label} {noise_seed:?} {policy:?} {machine:?}",
                            spec.name
                        );
                        let (mut fused, table) = queue(&spec, noise_seed, false, machine, &policy);
                        let (mut oracle, _) = queue(&spec, noise_seed, true, machine, &policy);
                        let got = replay(&trace, &mut fused);
                        assert_eq!(got, replay(&trace, &mut oracle), "{case}");
                        assert_eq!(got.submissions, REPLAYS * trace.total_launches(), "{case}");
                        assert!(got.degradation.is_clean(), "{case}");

                        // Each distinct kernel is priced once, then looked up
                        // once per later replay: the misses and entries a
                        // segment-by-segment replay leaves, with one lookup
                        // per kernel instead of one per segment.
                        let stats = table.stats();
                        assert_eq!(stats.misses, distinct as u64, "{case}");
                        assert_eq!(table.len(), distinct, "{case}");
                        assert_eq!(stats.hits, (REPLAYS - 1) * distinct as u64, "{case}");

                        match machine {
                            Machine::Default => uncapped_time = got.totals.0,
                            Machine::PowerCap => cap_binds |= got.totals.0 != uncapped_time,
                            Machine::LowMemClock => {}
                        }
                    }
                }
            }
        }
        assert!(cap_binds, "{}: the power cap never bound", spec.name);
    }
}

#[test]
fn a_launch_failure_mid_trace_still_rides_the_retry_path() {
    let spec = DeviceSpec::v100();
    let (_, trace) = templates(&spec).swap_remove(0);
    let policy = FrequencyPolicy::Fixed(900.0);
    let seed = Some(7);
    let (mut clean, _) = queue(&spec, seed, false, Machine::Default, &policy);
    let clean_m = trace.try_replay_on(&mut clean).unwrap();

    let mut dev = Device::with_noise(spec.clone(), NoiseModel::realistic(7));
    let mid = trace.total_launches() / 2;
    dev.set_fault_plan(FaultPlan::none().fail_launches(Schedule::once(mid)));
    let mut faulty = SynergyQueue::for_device(dev);
    faulty.set_policy(policy);
    let m = trace.try_replay_on(&mut faulty).unwrap();

    let d = faulty.degradation();
    assert!(d.retries > 0, "the failure was retried: {d:?}");
    assert_eq!(d.launch_failures, 1);
    assert_eq!(d.default_clock_fallbacks, 0);
    assert_eq!(faulty.submission_count(), trace.total_launches());
    // A failed launch draws no noise and the retry resumes the remainder,
    // so the launches measure what the fused replay measured; only the
    // device counter also carries the backoff's idle energy.
    assert_eq!(
        (m.time_s.to_bits(), m.energy_j.to_bits()),
        (clean_m.time_s.to_bits(), clean_m.energy_j.to_bits())
    );
    assert_eq!(
        faulty.total_time_s().to_bits(),
        clean.total_time_s().to_bits()
    );
    assert!(faulty.device_energy_j() > clean.device_energy_j());
}
