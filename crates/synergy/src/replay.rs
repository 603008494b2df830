//! Record-once / re-price-everywhere kernel traces.
//!
//! A frequency sweep runs the *same* workload at every candidate clock. The
//! expensive part of each run is not deciding *what* to launch — the kernel
//! sequence of a simulated workload is identical at every frequency — but
//! re-executing the submission machinery launch by launch. A
//! [`KernelTrace`] separates the two: the workload is **recorded** once
//! into a run-length-encoded kernel sequence, and every sweep point then
//! **replays** that sequence.
//!
//! On a device whose fault plan is inert, a replay is one device call
//! ([`Backend::replay_trace`]): the backend takes the device lock once, and
//! the replay looks each distinct kernel's price up once, at its policy
//! clock or the device's default one, and runs every launch through the
//! device's priced-launch loop.
//! Under an armed fault plan, or on a backend without that path, the trace
//! goes segment by segment, one [`Backend::launch`] per launch, through the
//! queue's retry and fallback machinery.
//!
//! Replay preserves the exact submission order of the original workload
//! (run-length segments only group launches that were already
//! consecutive), so the queue's floating-point accumulators see the same
//! additions in the same order and the replayed measurements are
//! bit-identical to the directly-run workload — noiseless and under seeded
//! measurement noise alike, on either path.

use gpu_sim::device::{Device, LaunchRecord};
use gpu_sim::kernel::KernelProfile;
use gpu_sim::{DeviceSpec, Vendor};

use std::sync::{Arc, Mutex};

use crate::backend::{Backend, BackendError};
use crate::energy::Measurement;
use crate::queue::{SubmitError, SynergyQueue};
use crate::scaling::FrequencyPolicy;

/// One run-length segment of a trace period: `count` consecutive launches
/// of the kernel at `kernel_index` (into [`KernelTrace::kernels`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceSegment {
    /// Index into the trace's unique-kernel table.
    pub kernel_index: usize,
    /// Consecutive launches of that kernel.
    pub count: u64,
}

/// The run-length-encoded kernel sequence of one workload execution:
/// a `period` of segments repeated `repeats` times over a small table of
/// unique kernels.
///
/// Periodic workloads collapse losslessly — a Cronos run is one
/// four-kernel substep period repeated `steps × substeps` times; a LiGen
/// batch is a two-kernel period run once.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelTrace {
    kernels: Vec<KernelProfile>,
    period: Vec<TraceSegment>,
    repeats: u64,
}

impl KernelTrace {
    /// Builds a trace from its parts.
    ///
    /// # Panics
    /// Panics if a segment indexes past `kernels`, has a zero count, or if
    /// a non-empty period has `repeats == 0`.
    pub fn new(kernels: Vec<KernelProfile>, period: Vec<TraceSegment>, repeats: u64) -> Self {
        for seg in &period {
            assert!(
                seg.kernel_index < kernels.len(),
                "segment indexes kernel {} of {}",
                seg.kernel_index,
                kernels.len()
            );
            assert!(seg.count > 0, "zero-length segment");
        }
        assert!(
            period.is_empty() || repeats > 0,
            "non-empty period needs repeats ≥ 1"
        );
        KernelTrace {
            kernels,
            period,
            repeats,
        }
    }

    /// Records whatever `run` submits to a queue over `spec`, without
    /// executing anything: launches cost zero and touch no device. The
    /// captured sequence is run-length encoded and folded into its
    /// smallest repeating period.
    ///
    /// Workloads whose submission stream depends on measured results would
    /// record a single iteration of that feedback loop; the workloads here
    /// are all open-loop, which is what makes record/replay exact.
    pub fn record(spec: &DeviceSpec, run: impl FnOnce(&mut SynergyQueue)) -> Self {
        let log = Arc::new(Mutex::new(Vec::new()));
        let mut queue = SynergyQueue::new(Box::new(RecordingBackend {
            spec: spec.clone(),
            log: Arc::clone(&log),
        }));
        run(&mut queue);
        let submissions = std::mem::take(&mut *log.lock().expect("recording log poisoned"));
        Self::from_submissions(&submissions)
    }

    /// Builds a trace from an explicit submission sequence.
    pub fn from_submissions(submissions: &[KernelProfile]) -> Self {
        let mut kernels: Vec<KernelProfile> = Vec::new();
        let mut segments: Vec<TraceSegment> = Vec::new();
        for k in submissions {
            let idx = match kernels.iter().position(|seen| seen == k) {
                Some(i) => i,
                None => {
                    kernels.push(k.clone());
                    kernels.len() - 1
                }
            };
            match segments.last_mut() {
                Some(last) if last.kernel_index == idx => last.count += 1,
                _ => segments.push(TraceSegment {
                    kernel_index: idx,
                    count: 1,
                }),
            }
        }
        let (period, repeats) = fold_smallest_period(segments);
        KernelTrace {
            kernels,
            period,
            repeats,
        }
    }

    /// The distinct kernels of the trace, in first-appearance order.
    pub fn kernels(&self) -> &[KernelProfile] {
        &self.kernels
    }

    /// One period of the run-length-encoded sequence.
    pub fn period(&self) -> &[TraceSegment] {
        &self.period
    }

    /// How many times the period repeats.
    pub fn repeats(&self) -> u64 {
        self.repeats
    }

    /// Total kernel launches one replay performs.
    pub fn total_launches(&self) -> u64 {
        self.period.iter().map(|s| s.count).sum::<u64>() * self.repeats
    }

    /// Replays the trace on `queue` under its active policy, returning the
    /// aggregate measurement of everything replayed — the drop-in
    /// equivalent of running the recorded workload directly.
    ///
    /// # Panics
    /// Panics if the retry policy gives up — use
    /// [`KernelTrace::try_replay_on`] to handle permanent failure.
    pub fn replay_on(&self, queue: &mut SynergyQueue) -> Measurement {
        self.try_replay_on(queue)
            .unwrap_or_else(|e| panic!("{e} (use try_replay_on to handle this)"))
    }

    /// Fallible [`KernelTrace::replay_on`]: returns the first permanent
    /// failure the queue's retry policy could not ride out. Everything
    /// submitted before the failure stays in the queue's totals.
    ///
    /// The whole trace goes to the backend in one call when the device's
    /// fault plan is inert (nothing can fail then). Otherwise each segment
    /// is submitted launch by launch under the queue's [`RetryPolicy`]: a
    /// transient failure retries the segment's remainder, and a clock that
    /// keeps failing falls back to the default one.
    ///
    /// [`RetryPolicy`]: crate::queue::RetryPolicy
    pub fn try_replay_on(&self, queue: &mut SynergyQueue) -> Result<Measurement, SubmitError> {
        if let Some(m) = queue.replay_fused(self) {
            return Ok(m);
        }
        let mut time_s = 0.0;
        let mut energy_j = 0.0;
        for _ in 0..self.repeats {
            for seg in &self.period {
                let m = queue.try_submit_segment(&self.kernels[seg.kernel_index], seg.count)?;
                time_s += m.time_s;
                energy_j += m.energy_j;
            }
        }
        Ok(Measurement { time_s, energy_j })
    }
}

/// One fused replay of a [`KernelTrace`], prepared by the queue for
/// [`Backend::replay_trace`]: the trace, each distinct kernel's clock
/// under the queue's policy, and the queue's running totals. Only the
/// queue can build one, and only this crate's backends can run it.
#[derive(Debug)]
pub struct FusedReplay<'a> {
    trace: &'a KernelTrace,
    kernels: &'a mut Vec<KernelSlot>,
    totals: &'a mut Measurement,
}

/// One distinct kernel of a fused replay. The queue keeps a `Vec` of these
/// and reuses it from replay to replay, so a replay allocates nothing.
#[derive(Debug)]
pub(crate) struct KernelSlot {
    /// The policy's clock for the kernel; `None` = the device default.
    requested_mhz: Option<f64>,
    /// Noiseless `(time_s, energy_j)`, looked up at the kernel's first
    /// launch of the replay.
    price: Option<(f64, f64)>,
}

impl<'a> FusedReplay<'a> {
    /// Prepares a replay of `trace` under `policy`, in `kernels`' storage,
    /// advancing `totals` as it runs.
    pub(crate) fn new(
        trace: &'a KernelTrace,
        policy: &FrequencyPolicy,
        kernels: &'a mut Vec<KernelSlot>,
        totals: &'a mut Measurement,
    ) -> Self {
        kernels.clear();
        kernels.extend(trace.kernels.iter().map(|k| KernelSlot {
            requested_mhz: policy.frequency_for(&k.name),
            price: None,
        }));
        FusedReplay {
            trace,
            kernels,
            totals,
        }
    }

    /// Runs the replay on `dev` if its fault plan is inert: prices each
    /// distinct kernel once, at its requested clock or at the device's
    /// `default_core_mhz`, and runs every launch through
    /// [`gpu_sim::device::InertDevice::launch_priced`] in submission order.
    /// The totals advance launch by launch, and the returned measurement
    /// sums the segments' batch sums, as the per-segment path accumulates
    /// both. Returns `None`, having run nothing, when a fault can fire.
    pub(crate) fn run(self, dev: &mut Device) -> Option<Measurement> {
        let default_mhz = dev.spec().default_core_mhz;
        let mut dev = dev.inert()?;
        let FusedReplay {
            trace,
            kernels,
            totals,
        } = self;
        let mut replay = Measurement {
            time_s: 0.0,
            energy_j: 0.0,
        };
        for _ in 0..trace.repeats {
            for seg in &trace.period {
                let slot = &mut kernels[seg.kernel_index];
                let requested_mhz = slot.requested_mhz;
                let price = *slot.price.get_or_insert_with(|| {
                    let mhz = requested_mhz.unwrap_or(default_mhz);
                    dev.price(&trace.kernels[seg.kernel_index], mhz)
                });
                let mut batch = Measurement {
                    time_s: 0.0,
                    energy_j: 0.0,
                };
                dev.launch_priced(price, seg.count, |time_s, energy_j| {
                    totals.time_s += time_s;
                    totals.energy_j += energy_j;
                    batch.time_s += time_s;
                    batch.energy_j += energy_j;
                });
                replay.time_s += batch.time_s;
                replay.energy_j += batch.energy_j;
            }
        }
        Some(replay)
    }
}

/// Folds a segment sequence into its smallest repeating period, returning
/// `(period, repeats)`. `[a b c, a b c] → ([a b c], 2)`; aperiodic input
/// comes back unchanged with `repeats = 1`.
fn fold_smallest_period(segments: Vec<TraceSegment>) -> (Vec<TraceSegment>, u64) {
    let n = segments.len();
    if n == 0 {
        return (segments, 0);
    }
    for p in 1..=n / 2 {
        if !n.is_multiple_of(p) {
            continue;
        }
        if (p..n).all(|i| segments[i] == segments[i % p]) {
            let repeats = (n / p) as u64;
            let mut period = segments;
            period.truncate(p);
            return (period, repeats);
        }
    }
    (segments, 1)
}

/// A [`Backend`] that executes nothing: it logs every submitted kernel so
/// [`KernelTrace::record`] can capture a workload's submission sequence at
/// zero simulation cost.
struct RecordingBackend {
    spec: DeviceSpec,
    log: Arc<Mutex<Vec<KernelProfile>>>,
}

impl Backend for RecordingBackend {
    fn device_name(&self) -> String {
        format!("{} (recorder)", self.spec.name)
    }

    fn vendor(&self) -> Vendor {
        self.spec.vendor
    }

    fn energy_counter_j(&self) -> f64 {
        0.0
    }

    fn launch(
        &mut self,
        kernel: &KernelProfile,
        _freq_mhz: Option<f64>,
    ) -> Result<LaunchRecord, BackendError> {
        self.log
            .lock()
            .expect("recording log poisoned")
            .push(kernel.clone());
        Ok(LaunchRecord {
            time_s: 0.0,
            energy_j: 0.0,
            avg_power_w: 0.0,
            core_mhz: 0.0,
            mem_mhz: 0.0,
            throttled: false,
            fault_throttled: false,
        })
    }

    fn supported_memory_frequencies(&self) -> Vec<f64> {
        self.spec.mem_freqs.iter().collect()
    }

    fn set_memory_frequency(&mut self, mem_mhz: Option<f64>) -> Result<f64, BackendError> {
        Ok(mem_mhz.unwrap_or(self.spec.mem_freqs.max()))
    }

    fn set_power_cap(&mut self, cap_w: Option<f64>) -> Result<Option<f64>, BackendError> {
        Ok(cap_w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::{Device, FaultPlan, Schedule, ThrottleWindow};

    fn k(name: &str, items: u64) -> KernelProfile {
        KernelProfile::compute_bound(name, items, 100.0)
    }

    #[test]
    fn records_and_rle_encodes() {
        let spec = DeviceSpec::v100();
        let (a, b) = (k("a", 1 << 20), k("b", 1 << 18));
        let trace = KernelTrace::record(&spec, |q| {
            for _ in 0..3 {
                q.submit(&a);
                q.submit(&a);
                q.submit(&b);
            }
        });
        assert_eq!(trace.kernels().len(), 2);
        assert_eq!(
            trace.period(),
            &[
                TraceSegment {
                    kernel_index: 0,
                    count: 2
                },
                TraceSegment {
                    kernel_index: 1,
                    count: 1
                },
            ]
        );
        assert_eq!(trace.repeats(), 3);
        assert_eq!(trace.total_launches(), 9);
    }

    #[test]
    fn aperiodic_sequences_survive_unchanged() {
        let seq = [k("a", 1), k("b", 2), k("a", 1)];
        let trace = KernelTrace::from_submissions(&seq);
        assert_eq!(trace.repeats(), 1);
        assert_eq!(trace.period().len(), 3);
        assert_eq!(trace.kernels().len(), 2, "duplicate kernels deduplicate");
        assert_eq!(trace.total_launches(), 3);
    }

    #[test]
    fn empty_recording_is_empty() {
        let trace = KernelTrace::record(&DeviceSpec::v100(), |_q| {});
        assert_eq!(trace.total_launches(), 0);
        let mut q = SynergyQueue::for_spec(DeviceSpec::v100());
        let m = trace.replay_on(&mut q);
        assert_eq!(m.time_s, 0.0);
        assert_eq!(q.submission_count(), 0);
    }

    #[test]
    fn replay_matches_direct_run_bitwise() {
        let spec = DeviceSpec::v100();
        let (a, b) = (k("a", 1 << 20), k("b", 1 << 18));
        let run = |q: &mut SynergyQueue| {
            for _ in 0..4 {
                q.submit(&a);
                q.submit(&b);
                q.submit(&b);
            }
        };
        let trace = KernelTrace::record(&spec, run);

        let mut direct = SynergyQueue::nvidia(Device::new(spec.clone()));
        run(&mut direct);
        let mut replayed = SynergyQueue::nvidia(Device::new(spec));
        let m = trace.replay_on(&mut replayed);

        assert_eq!(replayed.total_time_s(), direct.total_time_s());
        assert_eq!(replayed.total_energy_j(), direct.total_energy_j());
        assert_eq!(replayed.submission_count(), direct.submission_count());
        assert_eq!(m.time_s, direct.total_time_s());
    }

    #[test]
    fn a_segment_counts_fault_throttled_launches_like_single_submits() {
        // A throttle window opens at launch attempt 0 and holds three
        // launches below the request; attempt 2 fails once, so the segment's
        // first pass has run two fault-throttled launches when it fails.
        let plan = FaultPlan::none()
            .throttle(
                Schedule::once(0),
                ThrottleWindow {
                    cap_mhz: 700.0,
                    launches: 3,
                },
            )
            .fail_launches(Schedule::once(2));
        let queue = || {
            let dev = Device::with_faults(DeviceSpec::v100(), plan.clone());
            let mut q = SynergyQueue::for_device(dev);
            q.set_policy(FrequencyPolicy::Fixed(1300.0));
            q
        };
        let a = k("a", 1 << 20);
        let mut single = queue();
        for _ in 0..5 {
            single.submit(&a);
        }
        let mut replayed = queue();
        let m = KernelTrace::from_submissions(&vec![a; 5]).replay_on(&mut replayed);

        assert_eq!(replayed.degradation(), single.degradation());
        assert_eq!(single.degradation().throttled_launches, 3);
        assert_eq!(single.degradation().launch_failures, 1);
        assert_eq!(m.time_s.to_bits(), single.total_time_s().to_bits());
        assert_eq!(m.energy_j.to_bits(), single.total_energy_j().to_bits());
        assert_eq!(
            replayed.total_time_s().to_bits(),
            single.total_time_s().to_bits()
        );
        assert_eq!(
            replayed.total_energy_j().to_bits(),
            single.total_energy_j().to_bits()
        );
    }

    #[test]
    fn recording_costs_nothing() {
        let spec = DeviceSpec::v100();
        let a = k("a", 1 << 20);
        let mut recorded_energy = None;
        let _ = KernelTrace::record(&spec, |q| {
            q.submit(&a);
            recorded_energy = Some(q.total_energy_j());
        });
        assert_eq!(recorded_energy, Some(0.0));
    }

    #[test]
    #[should_panic(expected = "segment indexes kernel")]
    fn out_of_range_segment_panics() {
        let _ = KernelTrace::new(
            vec![k("a", 1)],
            vec![TraceSegment {
                kernel_index: 1,
                count: 1,
            }],
            1,
        );
    }
}
