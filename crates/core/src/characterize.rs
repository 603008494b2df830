//! Frequency-sweep characterization (§2–3 of the paper).
//!
//! Runs a workload at every requested core frequency plus the device's
//! default configuration, repeating each measurement and taking the median
//! (the paper repeats five times, §5.1), and normalizes into the
//! speedup / normalized-energy plane of Figures 1–10:
//!
//! * **speedup** `= t_default / t(f)` — higher is better,
//! * **normalized energy** `= e(f) / e_default` — lower is better.
//!
//! The baseline follows vendor semantics automatically: the fixed default
//! application clock on NVIDIA, the auto performance level on AMD
//! (§3.1: "AMD GPUs do not have a default frequency…").
//!
//! ## Sweep engine
//!
//! One *trace-once / re-price-everywhere* engine,
//! [`characterize_lattice`], prices every sweep: the workload's kernel
//! sequence is recorded once into a [`synergy::KernelTrace`], every sweep
//! point replays that trace in one fused device call (each distinct kernel
//! priced once per replay, one cost-model evaluation per distinct
//! `(kernel, frequency)` pair shared across the whole sweep via an
//! `Arc<PriceTable>`; an armed fault plan replays launch by launch through
//! the retry machinery instead), and the points fan
//! out across threads with rayon. A frequency sweep ([`characterize`],
//! [`characterize_with_options`]) is the core-only lattice
//! ([`LatticeAxes::core_only`]) projected onto the frequency axis.
//! Results are **bit-identical** to the legacy per-submission sweep, kept
//! as [`characterize_serial`]: replay preserves submission order (so
//! floating-point accumulation order is unchanged), noise seeds are keyed
//! by point *index* (so thread scheduling cannot reorder random streams),
//! and each launch draws its noise factors in the legacy order. The
//! equivalence tests at the bottom of this module pin the two paths
//! together, noiseless and noisy, on NVIDIA and AMD devices.

use std::convert::Infallible;
use std::sync::Arc;

use gpu_sim::noise::NoiseModel;
use gpu_sim::pricing::PriceTable;
use gpu_sim::{Device, DeviceSpec, FaultPlan};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use synergy::energy::Measurement;
use synergy::metrics::DegradationMetrics;
use synergy::queue::RetryPolicy;
use synergy::{KernelTrace, SynergyQueue};

use crate::telemetry::{Counter, Histogram, SpanLevel, Telemetry, POINT_TIME_BOUNDS};

/// A workload that can be executed on a SYnergy queue. Implemented here
/// for the two applications' GPU drivers.
pub trait Workload: Sync {
    /// Submits one complete run and returns its time/energy.
    fn run(&self, queue: &mut SynergyQueue) -> Measurement;
    /// Display name for reports.
    fn name(&self) -> String;
    /// The workload's kernel trace: what one [`Workload::run`] submits, in
    /// order. The default implementation records a run through a
    /// zero-cost recording queue; implementors with known structure
    /// override it to build the trace directly.
    fn record(&self, spec: &DeviceSpec) -> KernelTrace {
        KernelTrace::record(spec, |q| {
            self.run(q);
        })
    }
}

impl Workload for cronos::GpuCronos {
    fn run(&self, queue: &mut SynergyQueue) -> Measurement {
        cronos::GpuCronos::run(self, queue)
    }
    fn name(&self) -> String {
        format!("cronos {}x{}x{}", self.grid.nx, self.grid.ny, self.grid.nz)
    }
    fn record(&self, _spec: &DeviceSpec) -> KernelTrace {
        self.record_trace()
    }
}

impl Workload for ligen::GpuLigen {
    fn run(&self, queue: &mut SynergyQueue) -> Measurement {
        ligen::GpuLigen::run(self, queue)
    }
    fn name(&self) -> String {
        format!(
            "ligen {}x{}x{}",
            self.n_atoms, self.n_fragments, self.n_ligands
        )
    }
    fn record(&self, _spec: &DeviceSpec) -> KernelTrace {
        self.record_trace()
    }
}

/// One characterized operating point.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CharPoint {
    /// Core frequency (MHz).
    pub freq_mhz: f64,
    /// Median run time (s).
    pub time_s: f64,
    /// Median run energy (J).
    pub energy_j: f64,
    /// `t_baseline / time_s`.
    pub speedup: f64,
    /// `energy_j / e_baseline`.
    pub norm_energy: f64,
}

/// A full frequency-sweep characterization of one workload on one device.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Characterization {
    /// Device name.
    pub device: String,
    /// Workload name.
    pub workload: String,
    /// Baseline (default-configuration) run time (s).
    pub baseline_time_s: f64,
    /// Baseline run energy (J).
    pub baseline_energy_j: f64,
    /// Points in ascending frequency order.
    pub points: Vec<CharPoint>,
}

impl Characterization {
    /// The `(speedup, norm_energy)` pairs, frequency-ascending.
    pub fn objective_points(&self) -> Vec<(f64, f64)> {
        self.points
            .iter()
            .map(|p| (p.speedup, p.norm_energy))
            .collect()
    }

    /// Point measured at (or nearest to) the given frequency.
    pub fn at_freq(&self, freq_mhz: f64) -> &CharPoint {
        self.points
            .iter()
            .min_by(|a, b| {
                (a.freq_mhz - freq_mhz)
                    .abs()
                    .total_cmp(&(b.freq_mhz - freq_mhz).abs())
            })
            .expect("non-empty characterization")
    }
}

/// Builds the per-frequency measurement device shared by both sweep paths:
/// seed `0` is the baseline, seed `1 + i` is frequency index `i` — keyed by
/// *index*, not execution order, so the parallel path draws identical noise.
pub(crate) fn sweep_device(spec: &DeviceSpec, noise_seed: Option<u64>, seed_off: u64) -> Device {
    match noise_seed {
        Some(seed) => Device::with_noise(
            spec.clone(),
            NoiseModel::realistic(seed.wrapping_add(seed_off)),
        ),
        None => Device::new(spec.clone()),
    }
}

pub(crate) fn char_point(f: f64, m: Measurement, baseline: Measurement) -> CharPoint {
    CharPoint {
        freq_mhz: f,
        time_s: m.time_s,
        energy_j: m.energy_j,
        speedup: baseline.time_s / m.time_s,
        norm_energy: m.energy_j / baseline.energy_j,
    }
}

/// Knobs for a fault-aware sweep. `..SweepOptions::default()` fills in a
/// fault-free plan, the default retry policy, and up to two re-measurements
/// per dirty point.
#[derive(Debug, Clone)]
pub struct SweepOptions {
    /// Repetitions per point (median-aggregated). Must be ≥ 1.
    pub reps: usize,
    /// Measurement-noise seed; `None` runs noiseless.
    pub noise_seed: Option<u64>,
    /// Fault plan installed on every measurement device. Each sweep point
    /// and re-measurement attempt derives its own fault stream from the
    /// plan's seed, keyed by frequency *index* (not execution order), so
    /// parallel sweeps stay deterministic.
    pub faults: FaultPlan,
    /// How the queue rides out transient failures.
    pub retry: RetryPolicy,
    /// How many times a dirty point (throttled, retried, or failed) is
    /// re-measured on a fresh queue before being flagged as-is.
    pub remeasure_limit: u32,
    /// Observability sink. `None` (the default) is fully disarmed: no
    /// metric, span, or trace work anywhere on the sweep path. An armed
    /// sink only *observes* — sweep results are bit-identical either way
    /// (pinned by the golden tests below). Honored by
    /// [`characterize_with_options`] and the campaign scheduler; the
    /// serial reference path ignores it.
    pub telemetry: Option<Arc<Telemetry>>,
}

impl Default for SweepOptions {
    fn default() -> Self {
        SweepOptions {
            reps: 1,
            noise_seed: None,
            faults: FaultPlan::none(),
            retry: RetryPolicy::default(),
            remeasure_limit: 2,
            telemetry: None,
        }
    }
}

/// Pre-resolved handles for the sweep's per-point metrics: name lookups
/// happen once per sweep, so the per-point cost is pure atomic updates.
struct SweepMeters {
    points_priced: Arc<Counter>,
    remeasurements: Arc<Counter>,
    points_flagged: Arc<Counter>,
    point_time_s: Arc<Histogram>,
}

impl SweepMeters {
    fn new(tel: &Telemetry) -> Self {
        let r = tel.registry();
        SweepMeters {
            points_priced: r.counter("sweep.points_priced"),
            remeasurements: r.counter("sweep.remeasurements"),
            points_flagged: r.counter("sweep.points_flagged"),
            point_time_s: r.histogram("sweep.point_time_s", &POINT_TIME_BOUNDS),
        }
    }

    /// Folds one accepted point into the registry: the priced-point
    /// counter, re-measurement / flag tallies, the simulated-run-time
    /// histogram (the *median* time — a deterministic function of the
    /// measurement, so metric snapshots stay goldenable), and the queue's
    /// degradation counters.
    fn record(&self, tel: &Telemetry, m: Measurement, diag: &PointDiagnostics) {
        self.points_priced.inc();
        if diag.remeasured > 0 {
            self.remeasurements.add(u64::from(diag.remeasured));
        }
        if diag.flagged {
            self.points_flagged.inc();
        }
        self.point_time_s.observe(m.time_s);
        tel.record_degradation(&diag.degradation);
    }
}

/// What the fault-aware sweep observed while measuring one point.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PointDiagnostics {
    /// Pinned frequency of the point; `None` for the baseline.
    pub freq_mhz: Option<f64>,
    /// Re-measurements taken after the first (dirty) attempt.
    pub remeasured: u32,
    /// The *accepted* measurement was still degraded: faults fired during
    /// it (or a rep failed outright) and the re-measure budget ran out.
    pub flagged: bool,
    /// Degradation counters of the accepted measurement's queue.
    pub degradation: DegradationMetrics,
}

/// Per-point diagnostics of one fault-aware sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepDiagnostics {
    /// Baseline (default-configuration) point.
    pub baseline: PointDiagnostics,
    /// Swept points, in the order of the frequency list.
    pub points: Vec<PointDiagnostics>,
}

impl SweepDiagnostics {
    fn all(&self) -> impl Iterator<Item = &PointDiagnostics> {
        std::iter::once(&self.baseline).chain(self.points.iter())
    }

    /// No point saw a fault, retried, or was re-measured — the sweep is
    /// exactly what a fault-free run would have produced.
    pub fn is_clean(&self) -> bool {
        self.all()
            .all(|p| !p.flagged && p.remeasured == 0 && p.degradation.is_clean())
    }

    /// Frequencies whose accepted measurement is still degraded.
    pub fn flagged_freqs(&self) -> Vec<f64> {
        self.points
            .iter()
            .filter(|p| p.flagged)
            .filter_map(|p| p.freq_mhz)
            .collect()
    }

    /// Total retries across every accepted measurement.
    pub fn total_retries(&self) -> u64 {
        self.all().map(|p| p.degradation.retries).sum()
    }

    /// Total simulated backoff time (s) across every accepted measurement.
    pub fn total_backoff_s(&self) -> f64 {
        self.all().map(|p| p.degradation.backoff_s()).sum()
    }
}

/// Derives the fault-stream seed for one `(point, attempt)` cell. Keyed by
/// the point's noise-seed offset — a stable index, not execution order — so
/// the rayon fan-out cannot reorder fault streams; distinct odd multipliers
/// keep point and attempt contributions from colliding.
pub(crate) fn fault_seed(base: u64, seed_off: u64, attempt: u32) -> u64 {
    base.wrapping_add(seed_off.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(u64::from(attempt).wrapping_mul(0xD1B5_4A32_D192_ED03))
}

/// Median-of-`reps` measurement with fault detection and re-measurement.
///
/// Each attempt gets a fresh queue (fresh fault stream, fresh degradation
/// counters) from `make_attempt_queue`. A rep's sample is the queue's
/// totals delta across `run_rep`, and the median is taken by energy, so a
/// clean first attempt is bit-identical to the fault-free path. `run_rep`
/// returns `Ok(true)` when the rep failed after running: its partial
/// sample is kept, the attempt's remaining reps are skipped, and the
/// attempt is dirty. An attempt is also dirty when the queue's degradation
/// counters moved. Dirty attempts are redone up to `remeasure_limit` times,
/// then accepted flagged. `Err` aborts the whole point with no partial
/// median and no re-measure, so a supervisor (the campaign scheduler) can
/// treat the failure as the device's and trip its circuit breaker; the
/// sweeps pass [`Infallible`].
pub(crate) fn measure_attempts<E>(
    opts: &SweepOptions,
    mut make_attempt_queue: impl FnMut(u32) -> SynergyQueue,
    mut run_rep: impl FnMut(&mut SynergyQueue) -> Result<bool, E>,
) -> Result<(Measurement, PointDiagnostics), E> {
    let mut attempt = 0u32;
    loop {
        let mut q = make_attempt_queue(attempt);
        let mut samples = Vec::with_capacity(opts.reps);
        let mut failed = false;
        for _ in 0..opts.reps {
            let t0 = q.total_time_s();
            let e0 = q.total_energy_j();
            failed = run_rep(&mut q)?;
            samples.push(Measurement {
                time_s: q.total_time_s() - t0,
                energy_j: q.total_energy_j() - e0,
            });
            if failed {
                break;
            }
        }
        samples.sort_by(|a, b| a.energy_j.total_cmp(&b.energy_j));
        let m = samples[samples.len() / 2];
        let degradation = q.degradation();
        let dirty = failed || !degradation.is_clean();
        if !dirty || attempt >= opts.remeasure_limit {
            return Ok((
                m,
                PointDiagnostics {
                    freq_mhz: None,
                    remeasured: attempt,
                    flagged: dirty,
                    degradation,
                },
            ));
        }
        attempt += 1;
    }
}

/// Builds the per-attempt replay queue both the lattice sweep and the
/// campaign scheduler measure through: a fresh [`sweep_device`] with
/// pricing routed through the shared memo table, the options' fault plan
/// reseeded for this `(point, attempt)` cell, and the options' retry
/// policy installed. Single-sourcing this construction is what keeps a
/// campaign's measurements bit-identical to
/// [`characterize_with_options`]'s.
pub(crate) fn replay_queue(
    spec: &DeviceSpec,
    opts: &SweepOptions,
    prices: &Arc<PriceTable>,
    seed_off: u64,
    attempt: u32,
) -> SynergyQueue {
    let mut dev = sweep_device(spec, opts.noise_seed, seed_off);
    dev.set_price_table(Arc::clone(prices));
    dev.set_fault_plan(opts.faults.clone().with_seed(fault_seed(
        opts.faults.seed(),
        seed_off,
        attempt,
    )));
    let mut q = SynergyQueue::for_device(dev);
    q.set_retry_policy(opts.retry);
    q
}

/// Sweeps `freqs` with `reps` repetitions per point (median-aggregated).
/// `noise_seed` enables the measurement-noise model; `None` runs noiseless.
///
/// This is the fast path: the core-only lattice of `freqs`, swept by
/// [`characterize_lattice`]. The workload is recorded once, then every
/// frequency point replays the trace with memoized kernel pricing, fanned
/// out over threads. Output is bit-identical to [`characterize_serial`].
///
/// # Panics
/// Panics on an empty frequency list or `reps == 0`.
pub fn characterize(
    spec: &DeviceSpec,
    workload: &dyn Workload,
    freqs: &[f64],
    reps: usize,
    noise_seed: Option<u64>,
) -> Characterization {
    let opts = SweepOptions {
        reps,
        noise_seed,
        ..SweepOptions::default()
    };
    characterize_with_options(spec, workload, freqs, &opts).0
}

/// [`characterize`] with explicit [`SweepOptions`]: fault injection, retry
/// policy, dirty-point re-measurement and telemetry. Sweeps
/// [`LatticeAxes::core_only`] through [`characterize_lattice`] and
/// projects the result onto the frequency axis.
///
/// Every measurement device carries the options' [`FaultPlan`], reseeded
/// per point and per attempt. After measuring a point the sweep inspects
/// the queue's degradation counters: if any fault fired (throttle, retry,
/// rejection, counter rewind) or a rep failed outright, the point is
/// **re-measured** on a fresh queue with a fresh fault stream, up to
/// `remeasure_limit` times; a point that never comes back clean is accepted
/// as-is and **marked** in the returned [`SweepDiagnostics`]. Under an
/// inert plan no fault can fire, every point is clean on its first attempt,
/// and the result is bit-identical to [`characterize`] — the golden tests
/// below pin this.
///
/// # Panics
/// Panics on an empty frequency list or `reps == 0`.
pub fn characterize_with_options(
    spec: &DeviceSpec,
    workload: &dyn Workload,
    freqs: &[f64],
    opts: &SweepOptions,
) -> (Characterization, SweepDiagnostics) {
    let (lattice, diag) =
        characterize_lattice(spec, workload, &LatticeAxes::core_only(freqs), opts);
    (
        Characterization {
            device: lattice.device,
            workload: lattice.workload,
            baseline_time_s: lattice.baseline_time_s,
            baseline_energy_j: lattice.baseline_energy_j,
            points: lattice
                .points
                .iter()
                .map(|p| CharPoint {
                    freq_mhz: p.core_mhz,
                    time_s: p.time_s,
                    energy_j: p.energy_j,
                    speedup: p.speedup,
                    norm_energy: p.norm_energy,
                })
                .collect(),
        },
        SweepDiagnostics {
            baseline: diag.baseline,
            points: diag.points.into_iter().map(|p| p.diag).collect(),
        },
    )
}

/// The legacy sweep: every repetition re-runs the workload's submission
/// loop kernel by kernel, serially across frequencies. Kept as the
/// reference implementation the trace-replay engine is pinned against (and
/// as the natural driver for workloads whose submission stream is not
/// replayable). Same contract as [`characterize`].
///
/// # Panics
/// Panics on an empty frequency list or `reps == 0`.
pub fn characterize_serial(
    spec: &DeviceSpec,
    workload: &dyn Workload,
    freqs: &[f64],
    reps: usize,
    noise_seed: Option<u64>,
) -> Characterization {
    let opts = SweepOptions {
        reps,
        noise_seed,
        ..SweepOptions::default()
    };
    characterize_serial_with_options(spec, workload, freqs, &opts).0
}

/// [`characterize_serial`] with explicit [`SweepOptions`] — the serial
/// twin of [`characterize_with_options`], re-running the workload's own
/// submission loop instead of replaying a trace.
///
/// The workload drives the queue's infallible `submit` API, so a failure
/// the retry policy cannot ride out panics instead of flagging; keep
/// launch-failure schedules mild enough for the configured retries (or use
/// the replay path, which degrades gracefully).
///
/// # Panics
/// Panics on an empty frequency list, `reps == 0`, or a permanent launch
/// failure.
pub fn characterize_serial_with_options(
    spec: &DeviceSpec,
    workload: &dyn Workload,
    freqs: &[f64],
    opts: &SweepOptions,
) -> (Characterization, SweepDiagnostics) {
    assert!(!freqs.is_empty(), "need at least one frequency");
    assert!(opts.reps > 0, "need at least one repetition");

    let make_queue = |seed_off: u64, attempt: u32| {
        let mut dev = sweep_device(spec, opts.noise_seed, seed_off);
        dev.set_fault_plan(opts.faults.clone().with_seed(fault_seed(
            opts.faults.seed(),
            seed_off,
            attempt,
        )));
        let mut q = SynergyQueue::for_device(dev);
        q.set_retry_policy(opts.retry);
        q
    };

    let run_rep = |q: &mut SynergyQueue| {
        workload.run(q);
        Ok::<_, Infallible>(false)
    };

    // Baseline: the device's default configuration.
    let Ok((baseline, base_diag)) =
        measure_attempts(opts, |attempt| make_queue(0, attempt), run_rep);

    let mut points = Vec::with_capacity(freqs.len());
    let mut diags = Vec::with_capacity(freqs.len());
    for (i, &f) in freqs.iter().enumerate() {
        let Ok((m, mut diag)) = measure_attempts(
            opts,
            |attempt| {
                let mut q = make_queue(1 + i as u64, attempt);
                q.set_policy(synergy::FrequencyPolicy::Fixed(f));
                q
            },
            run_rep,
        );
        diag.freq_mhz = Some(f);
        points.push(char_point(f, m, baseline));
        diags.push(diag);
    }

    (
        Characterization {
            device: spec.name.clone(),
            workload: workload.name(),
            baseline_time_s: baseline.time_s,
            baseline_energy_j: baseline.energy_j,
            points,
        },
        SweepDiagnostics {
            baseline: base_diag,
            points: diags,
        },
    )
}

// ---------------------------------------------------------------------------
// Configuration-lattice characterization: core clock × memory clock × power cap
// ---------------------------------------------------------------------------

/// The axes of a configuration-lattice sweep. The lattice is the cartesian
/// product `core_mhz × mem_mhz × power_caps_w`, enumerated core-outer →
/// memory → cap, so a degenerate memory/cap axis leaves the enumeration
/// order (and every noise/fault seed) identical to the plain frequency
/// sweep's.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LatticeAxes {
    /// Core frequencies to sweep (MHz). Must be non-empty.
    pub core_mhz: Vec<f64>,
    /// Memory frequencies to sweep (MHz). Empty means *default only*: the
    /// sweep stays on the device's top memory clock and never issues a
    /// memory-clock management call — which is what keeps a degenerate
    /// lattice bit-identical to [`characterize_serial`].
    pub mem_mhz: Vec<f64>,
    /// Operator power caps to sweep (W); `None` is the uncapped (TDP-only)
    /// configuration. Empty means *uncapped only*, with no cap call issued.
    pub power_caps_w: Vec<Option<f64>>,
}

impl LatticeAxes {
    /// A core-only lattice: one point per core frequency on the default
    /// memory clock with no power cap — the frequency sweep
    /// ([`characterize`]) over the same list.
    pub fn core_only(core_mhz: impl Into<Vec<f64>>) -> Self {
        LatticeAxes {
            core_mhz: core_mhz.into(),
            mem_mhz: Vec::new(),
            power_caps_w: Vec::new(),
        }
    }

    /// A full lattice over explicit axes. `caps_w` are finite positive
    /// watts; the uncapped configuration is always included first.
    pub fn full(
        core_mhz: impl Into<Vec<f64>>,
        mem_mhz: impl Into<Vec<f64>>,
        caps_w: &[f64],
    ) -> Self {
        let mut power_caps_w = vec![None];
        power_caps_w.extend(caps_w.iter().map(|&c| Some(c)));
        LatticeAxes {
            core_mhz: core_mhz.into(),
            mem_mhz: mem_mhz.into(),
            power_caps_w,
        }
    }

    /// Number of lattice points one sweep measures (excluding the baseline).
    pub fn len(&self) -> usize {
        self.core_mhz.len() * self.mem_mhz.len().max(1) * self.power_caps_w.len().max(1)
    }

    /// True when the lattice has no core axis (nothing to sweep).
    pub fn is_empty(&self) -> bool {
        self.core_mhz.is_empty()
    }
}

/// One characterized lattice operating point.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LatticePoint {
    /// Core frequency (MHz).
    pub core_mhz: f64,
    /// Memory frequency (MHz) the point was *requested* at (a rejected
    /// request degrades to the default clock and is flagged in the
    /// diagnostics).
    pub mem_mhz: f64,
    /// Operator power cap (W); `None` = uncapped.
    pub cap_w: Option<f64>,
    /// Median run time (s).
    pub time_s: f64,
    /// Median run energy (J).
    pub energy_j: f64,
    /// `t_baseline / time_s`.
    pub speedup: f64,
    /// `energy_j / e_baseline`.
    pub norm_energy: f64,
}

/// A full configuration-lattice characterization of one workload on one
/// device: the three-axis generalization of [`Characterization`]. The
/// non-dominated subset of its points is a Pareto *surface* — trading
/// speed against energy across core clock, memory clock, and power cap at
/// once — rather than the frequency sweep's Pareto front.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LatticeCharacterization {
    /// Device name.
    pub device: String,
    /// Workload name.
    pub workload: String,
    /// Baseline (default-configuration) run time (s).
    pub baseline_time_s: f64,
    /// Baseline run energy (J).
    pub baseline_energy_j: f64,
    /// Points in lattice-enumeration order (core-outer → memory → cap).
    pub points: Vec<LatticePoint>,
}

impl LatticeCharacterization {
    /// The `(speedup, norm_energy)` pairs in lattice order.
    pub fn objective_points(&self) -> Vec<(f64, f64)> {
        self.points
            .iter()
            .map(|p| (p.speedup, p.norm_energy))
            .collect()
    }

    /// The non-dominated points — the Pareto surface in the
    /// (speedup, normalized-energy) plane, in lattice order.
    pub fn pareto_surface(&self) -> Vec<&LatticePoint> {
        crate::pareto::pareto_front_indices(&self.objective_points())
            .into_iter()
            .map(|i| &self.points[i])
            .collect()
    }

    /// The minimum-energy point of the lattice.
    pub fn min_energy(&self) -> &LatticePoint {
        self.points
            .iter()
            .min_by(|a, b| a.energy_j.total_cmp(&b.energy_j))
            .expect("non-empty lattice")
    }

    /// The minimum-energy point whose runtime meets `deadline_s`, if any.
    pub fn min_energy_within(&self, deadline_s: f64) -> Option<&LatticePoint> {
        self.points
            .iter()
            .filter(|p| p.time_s <= deadline_s)
            .min_by(|a, b| a.energy_j.total_cmp(&b.energy_j))
    }
}

/// Diagnostics of one lattice point: which configuration it was, plus the
/// fault-aware measurement record.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LatticePointDiagnostics {
    /// Requested core frequency (MHz).
    pub core_mhz: f64,
    /// Requested memory frequency (MHz).
    pub mem_mhz: f64,
    /// Requested power cap (W).
    pub cap_w: Option<f64>,
    /// The measurement diagnostics (re-measurements, flags, degradation
    /// counters — including [`DegradationMetrics::mem_clock_fallbacks`] and
    /// [`DegradationMetrics::power_cap_fallbacks`]).
    pub diag: PointDiagnostics,
}

/// Per-point diagnostics of one lattice sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LatticeDiagnostics {
    /// Baseline (default-configuration) point.
    pub baseline: PointDiagnostics,
    /// Lattice points, in enumeration order.
    pub points: Vec<LatticePointDiagnostics>,
}

impl LatticeDiagnostics {
    /// No point saw a fault, retried, fell back, or was re-measured.
    pub fn is_clean(&self) -> bool {
        (!self.baseline.flagged
            && self.baseline.remeasured == 0
            && self.baseline.degradation.is_clean())
            && self
                .points
                .iter()
                .all(|p| !p.diag.flagged && p.diag.remeasured == 0 && p.diag.degradation.is_clean())
    }

    /// Lattice points whose accepted measurement is still degraded.
    pub fn flagged_points(&self) -> Vec<&LatticePointDiagnostics> {
        self.points.iter().filter(|p| p.diag.flagged).collect()
    }

    /// Folds every point's degradation counters into one audit record.
    pub fn total_degradation(&self) -> DegradationMetrics {
        let mut total = self.baseline.degradation;
        for p in &self.points {
            total.merge(&p.diag.degradation);
        }
        total
    }
}

/// Sweeps the configuration lattice `core × mem × cap`: the
/// trace-once / re-price-everywhere engine behind every single-device
/// sweep. [`characterize_with_options`] runs the core-only lattice
/// through it.
///
/// Every lattice point pins its three actuators before replaying the trace:
/// the memory clock (skipped when the point sits on the device's default,
/// so the request sequence of a degenerate lattice is identical to the
/// serial frequency sweep's), the power cap (skipped when uncapped), and
/// the core clock via the queue policy. Noise and fault seeds are keyed by
/// the point's flat lattice index — baseline `0`, point *i* → `1 + i` — so
/// a single-point memory/cap axis reproduces [`characterize_serial`]
/// **bit for bit**, and thread scheduling cannot reorder random streams.
///
/// An armed [`SweepOptions::telemetry`] sink sees a `sweep` root span, a
/// `point` span per measured point (baseline included), a Launch-level
/// `replay` instant per replayed run, the `sweep.*` meters and the price
/// table's counters; the results are bit-identical armed or not.
///
/// A rejected memory-clock or cap request degrades to the default
/// configuration on that axis (recorded in the queue's
/// [`DegradationMetrics`]), which marks the attempt dirty: the point is
/// re-measured up to `opts.remeasure_limit` times and flagged if it never
/// comes back clean — the same quarantine contract as the frequency sweep.
///
/// # Panics
/// Panics on an empty core-frequency axis, `reps == 0`, or a backend
/// without memory-clock/cap control when a non-default axis requests it.
pub fn characterize_lattice(
    spec: &DeviceSpec,
    workload: &dyn Workload,
    axes: &LatticeAxes,
    opts: &SweepOptions,
) -> (LatticeCharacterization, LatticeDiagnostics) {
    assert!(
        !axes.core_mhz.is_empty(),
        "need at least one core frequency"
    );
    assert!(opts.reps > 0, "need at least one repetition");

    let default_mem = spec.mem_freqs.max();
    let mem_axis: Vec<f64> = if axes.mem_mhz.is_empty() {
        vec![default_mem]
    } else {
        axes.mem_mhz.clone()
    };
    let caps: Vec<Option<f64>> = if axes.power_caps_w.is_empty() {
        vec![None]
    } else {
        axes.power_caps_w.clone()
    };

    let tel = opts.telemetry.as_deref();
    let meters = tel.map(SweepMeters::new);
    let _sweep_span = tel.map(|t| {
        t.registry().counter("sweep.runs").inc();
        t.span(
            SpanLevel::Sweep,
            "sweep",
            vec![
                ("device", spec.name.clone()),
                ("workload", workload.name()),
                ("freqs", axes.core_mhz.len().to_string()),
                ("mems", mem_axis.len().to_string()),
                ("caps", caps.len().to_string()),
                ("reps", opts.reps.to_string()),
            ],
        )
    });

    let trace = workload.record(spec);
    let prices = Arc::new(PriceTable::new());
    let make_queue =
        |seed_off: u64, attempt: u32| replay_queue(spec, opts, &prices, seed_off, attempt);
    // One replayed run = one Launch-level record; the level check comes
    // before the field strings are built, so a sink not tracing down to
    // launch granularity costs one comparison per rep, not allocations.
    let launch_tel = tel.filter(|t| t.traces(SpanLevel::Launch));
    let run_rep = |q: &mut SynergyQueue| {
        let failed = trace.try_replay_on(q).is_err();
        if let Some(t) = launch_tel {
            t.instant(
                SpanLevel::Launch,
                "replay",
                vec![("submissions", q.submission_count().to_string())],
            );
        }
        Ok::<_, Infallible>(failed)
    };

    // Baseline: the device's default configuration — top memory clock,
    // uncapped, default core clock. Seed offset 0.
    let Ok((baseline, base_diag)) = {
        let _span =
            tel.map(|t| t.span(SpanLevel::Point, "point", vec![("freq", "baseline".into())]));
        measure_attempts(opts, |attempt| make_queue(0, attempt), run_rep)
    };
    if let (Some(t), Some(m)) = (tel, &meters) {
        m.record(t, baseline, &base_diag);
    }

    // Flat enumeration, core-outer → memory → cap.
    let mut grid: Vec<(u64, f64, f64, Option<f64>)> = Vec::with_capacity(axes.len());
    for &f in &axes.core_mhz {
        for &m in &mem_axis {
            for &cap in &caps {
                grid.push((grid.len() as u64, f, m, cap));
            }
        }
    }

    let results: Vec<(LatticePoint, LatticePointDiagnostics)> = grid
        .par_iter()
        .map(|&(i, f, m, cap)| {
            let _span = tel.map(|t| {
                t.span(
                    SpanLevel::Point,
                    "point",
                    vec![
                        ("freq", format!("{f}")),
                        ("mem", format!("{m}")),
                        ("cap", cap.map_or_else(|| "none".into(), |w| format!("{w}"))),
                    ],
                )
            });
            let Ok((meas, mut diag)) = measure_attempts(
                opts,
                |attempt| {
                    let mut q = make_queue(1 + i, attempt);
                    if m != default_mem {
                        match q.set_memory_frequency(Some(m)) {
                            // A fallback or transient rejection is already
                            // recorded in the degradation counters, which
                            // marks this attempt dirty for re-measurement.
                            Ok(_) | Err(synergy::BackendError::FrequencyRejected { .. }) => {}
                            Err(e) => panic!("memory-clock axis unsupported: {e}"),
                        }
                    }
                    if cap.is_some() {
                        match q.set_power_cap(cap) {
                            Ok(_) | Err(synergy::BackendError::FrequencyRejected { .. }) => {}
                            Err(e) => panic!("power-cap axis unsupported: {e}"),
                        }
                    }
                    q.set_policy(synergy::FrequencyPolicy::Fixed(f));
                    q
                },
                run_rep,
            );
            diag.freq_mhz = Some(f);
            if let (Some(t), Some(sm)) = (tel, &meters) {
                sm.record(t, meas, &diag);
            }
            let cp = char_point(f, meas, baseline);
            (
                LatticePoint {
                    core_mhz: f,
                    mem_mhz: m,
                    cap_w: cap,
                    time_s: cp.time_s,
                    energy_j: cp.energy_j,
                    speedup: cp.speedup,
                    norm_energy: cp.norm_energy,
                },
                LatticePointDiagnostics {
                    core_mhz: f,
                    mem_mhz: m,
                    cap_w: cap,
                    diag,
                },
            )
        })
        .collect();
    let (points, diags): (Vec<LatticePoint>, Vec<LatticePointDiagnostics>) =
        results.into_iter().unzip();
    if let Some(t) = tel {
        t.record_pricing(prices.stats(), prices.len());
    }

    (
        LatticeCharacterization {
            device: spec.name.clone(),
            workload: workload.name(),
            baseline_time_s: baseline.time_s,
            baseline_energy_j: baseline.energy_j,
            points,
        },
        LatticeDiagnostics {
            baseline: base_diag,
            points: diags,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use cronos::Grid;

    fn v100() -> DeviceSpec {
        DeviceSpec::v100()
    }

    fn large_cronos() -> cronos::GpuCronos {
        cronos::GpuCronos::new(Grid::cubic(160, 64, 64), 2)
    }

    fn small_cronos() -> cronos::GpuCronos {
        cronos::GpuCronos::new(Grid::cubic(20, 8, 8), 5)
    }

    fn large_ligen() -> ligen::GpuLigen {
        ligen::GpuLigen::new(10_000, 89, 20)
    }

    #[test]
    fn default_frequency_point_is_unity() {
        let spec = v100();
        let c = characterize(&spec, &large_cronos(), &[spec.default_core_mhz], 1, None);
        let p = &c.points[0];
        assert!((p.speedup - 1.0).abs() < 1e-9);
        assert!((p.norm_energy - 1.0).abs() < 1e-9);
    }

    #[test]
    fn cronos_large_grid_shape_matches_paper() {
        // Fig. 4b: up-clocking buys ~no speedup but much more energy;
        // down-clocking saves ~20 % energy at near-zero slowdown.
        let spec = v100();
        let c = characterize(
            &spec,
            &large_cronos(),
            &[900.0, spec.default_core_mhz, spec.max_core_mhz()],
            1,
            None,
        );
        let low = c.at_freq(900.0);
        let max = c.at_freq(spec.max_core_mhz());
        assert!(low.speedup > 0.94, "low-clock speedup {}", low.speedup);
        assert!(
            low.norm_energy < 0.85,
            "low-clock energy {}",
            low.norm_energy
        );
        assert!(max.speedup < 1.06, "max-clock speedup {}", max.speedup);
        assert!(
            max.norm_energy > 1.15,
            "max-clock energy {}",
            max.norm_energy
        );
    }

    #[test]
    fn ligen_large_input_shape_matches_paper() {
        // Fig. 10b: up-clocking gains ~20 % speed at a large energy cost.
        let spec = v100();
        let c = characterize(
            &spec,
            &large_ligen(),
            &[1100.0, spec.max_core_mhz()],
            1,
            None,
        );
        let max = c.at_freq(spec.max_core_mhz());
        assert!(
            (1.1..1.35).contains(&max.speedup),
            "speedup {}",
            max.speedup
        );
        assert!(max.norm_energy > 1.3, "energy {}", max.norm_energy);
        let low = c.at_freq(1100.0);
        assert!(low.norm_energy < 1.0, "down-clock should save energy");
    }

    #[test]
    fn speedup_monotone_in_frequency() {
        let spec = v100();
        let freqs: Vec<f64> = spec.core_freqs.strided(20);
        let c = characterize(&spec, &large_ligen(), &freqs, 1, None);
        for w in c.points.windows(2) {
            assert!(
                w[1].speedup >= w[0].speedup * (1.0 - 1e-9),
                "speedup must not decrease with f"
            );
        }
    }

    #[test]
    fn noise_changes_values_but_not_shape() {
        let spec = v100();
        let freqs = [800.0, 1312.0, 1597.0];
        let clean = characterize(&spec, &large_cronos(), &freqs, 1, None);
        let noisy = characterize(&spec, &large_cronos(), &freqs, 5, Some(7));
        for (a, b) in clean.points.iter().zip(&noisy.points) {
            assert!((a.speedup - b.speedup).abs() / a.speedup < 0.05);
            assert!((a.norm_energy - b.norm_energy).abs() / a.norm_energy < 0.05);
        }
    }

    #[test]
    fn amd_baseline_is_auto_configuration() {
        let spec = DeviceSpec::mi100();
        let c = characterize(&spec, &large_cronos(), &[1450.0], 1, None);
        // The auto governor converges to 1450 MHz under load, so the pinned
        // 1450 MHz point must match the auto baseline.
        let p = c.at_freq(1450.0);
        assert!((p.speedup - 1.0).abs() < 1e-9);
        assert!((p.norm_energy - 1.0).abs() < 1e-9);
    }

    #[test]
    fn at_freq_snaps_to_nearest() {
        let spec = v100();
        let c = characterize(&spec, &large_cronos(), &[800.0, 1200.0], 1, None);
        assert_eq!(c.at_freq(810.0).freq_mhz, 800.0);
        assert_eq!(c.at_freq(1100.0).freq_mhz, 1200.0);
    }

    // ---- Golden equivalence: trace-replay sweep ≡ legacy serial sweep ----
    //
    // Exact `==` on every f64 in the result: the fast path must be
    // bit-identical, not merely close.

    fn assert_identical(a: &Characterization, b: &Characterization) {
        assert_eq!(a.baseline_time_s, b.baseline_time_s);
        assert_eq!(a.baseline_energy_j, b.baseline_energy_j);
        assert_eq!(a.points.len(), b.points.len());
        for (pa, pb) in a.points.iter().zip(&b.points) {
            assert_eq!(pa, pb, "point at {} MHz diverged", pa.freq_mhz);
        }
        assert_eq!(a, b);
    }

    /// Asserts the two engines agree on each of `workloads` at full
    /// resolution: every V100 experiment clock, five repetitions.
    fn assert_identical_at_full_resolution(workloads: &[&dyn Workload], noise_seed: Option<u64>) {
        let spec = v100();
        let freqs = crate::workflow::experiment_frequencies(&spec, 1);
        for w in workloads {
            let fast = characterize(&spec, *w, &freqs, 5, noise_seed);
            let slow = characterize_serial(&spec, *w, &freqs, 5, noise_seed);
            assert_identical(&fast, &slow);
        }
    }

    /// The Cronos grids 20×8×8 and 160×64×64 at the experiments' step count.
    fn full_resolution_cronos(noise_seed: Option<u64>) {
        let steps = crate::workflow::CRONOS_STEPS;
        let small = cronos::GpuCronos::new(Grid::cubic(20, 8, 8), steps);
        let large = cronos::GpuCronos::new(Grid::cubic(160, 64, 64), steps);
        assert_identical_at_full_resolution(&[&small, &large], noise_seed);
    }

    /// The LiGen inputs 256×31×4 and 10000×89×20 (ligands × atoms × fragments).
    fn full_resolution_ligen(noise_seed: Option<u64>) {
        let small = ligen::GpuLigen::new(256, 31, 4);
        let large = ligen::GpuLigen::new(10_000, 89, 20);
        assert_identical_at_full_resolution(&[&small, &large], noise_seed);
    }

    #[test]
    fn replay_sweep_is_bit_identical_cronos_noiseless() {
        let spec = v100();
        let freqs = [500.0, 900.0, 1312.1, 1597.0];
        let fast = characterize(&spec, &small_cronos(), &freqs, 2, None);
        let slow = characterize_serial(&spec, &small_cronos(), &freqs, 2, None);
        assert_identical(&fast, &slow);
        full_resolution_cronos(None);
    }

    #[test]
    fn replay_sweep_is_bit_identical_cronos_noisy() {
        let spec = v100();
        let freqs = [500.0, 900.0, 1312.1, 1597.0];
        let fast = characterize(&spec, &small_cronos(), &freqs, 3, Some(20231112));
        let slow = characterize_serial(&spec, &small_cronos(), &freqs, 3, Some(20231112));
        assert_identical(&fast, &slow);
        full_resolution_cronos(Some(20231112));
    }

    #[test]
    fn replay_sweep_is_bit_identical_ligen_noiseless() {
        let spec = v100();
        let freqs = [700.0, 1100.0, 1597.0];
        let wl = ligen::GpuLigen::new(1000, 31, 4);
        let fast = characterize(&spec, &wl, &freqs, 2, None);
        let slow = characterize_serial(&spec, &wl, &freqs, 2, None);
        assert_identical(&fast, &slow);
        full_resolution_ligen(None);
    }

    #[test]
    fn replay_sweep_is_bit_identical_ligen_noisy() {
        let spec = v100();
        let freqs = [700.0, 1100.0, 1597.0];
        let wl = ligen::GpuLigen::new(1000, 31, 4);
        let fast = characterize(&spec, &wl, &freqs, 5, Some(99));
        let slow = characterize_serial(&spec, &wl, &freqs, 5, Some(99));
        assert_identical(&fast, &slow);
        full_resolution_ligen(Some(20231112));
    }

    #[test]
    fn replay_sweep_is_bit_identical_on_amd_auto_baseline() {
        let spec = DeviceSpec::mi100();
        let freqs = [700.0, 1000.0, 1450.0];
        let fast = characterize(&spec, &small_cronos(), &freqs, 2, Some(5));
        let slow = characterize_serial(&spec, &small_cronos(), &freqs, 2, Some(5));
        assert_identical(&fast, &slow);
    }

    // ---- Golden equivalence: fault-free FaultPlan ≡ plain sweep ----
    //
    // A sweep run through the fault-aware machinery with an inert plan
    // must be bit-identical to the plain sweep, with clean diagnostics —
    // both applications, both vendors.

    fn inert_opts(reps: usize, noise_seed: Option<u64>) -> SweepOptions {
        SweepOptions {
            reps,
            noise_seed,
            faults: FaultPlan::none(),
            ..SweepOptions::default()
        }
    }

    #[test]
    fn fault_free_plan_is_bit_identical_cronos_nvidia() {
        let spec = v100();
        let freqs = [500.0, 900.0, 1312.1, 1597.0];
        let plain = characterize(&spec, &small_cronos(), &freqs, 3, Some(20231112));
        let (faulted, diag) = characterize_with_options(
            &spec,
            &small_cronos(),
            &freqs,
            &inert_opts(3, Some(20231112)),
        );
        assert_identical(&plain, &faulted);
        assert!(diag.is_clean(), "inert plan must leave no fault trace");
        assert_eq!(diag.total_retries(), 0);
        assert_eq!(diag.total_backoff_s(), 0.0);
    }

    #[test]
    fn fault_free_plan_is_bit_identical_ligen_nvidia() {
        let spec = v100();
        let freqs = [700.0, 1100.0, 1597.0];
        let wl = ligen::GpuLigen::new(1000, 31, 4);
        let plain = characterize(&spec, &wl, &freqs, 5, Some(99));
        let (faulted, diag) =
            characterize_with_options(&spec, &wl, &freqs, &inert_opts(5, Some(99)));
        assert_identical(&plain, &faulted);
        assert!(diag.is_clean());
    }

    #[test]
    fn fault_free_plan_is_bit_identical_cronos_amd() {
        let spec = DeviceSpec::mi100();
        let freqs = [700.0, 1000.0, 1450.0];
        let plain = characterize(&spec, &small_cronos(), &freqs, 2, Some(5));
        let (faulted, diag) =
            characterize_with_options(&spec, &small_cronos(), &freqs, &inert_opts(2, Some(5)));
        assert_identical(&plain, &faulted);
        assert!(diag.is_clean());
    }

    #[test]
    fn fault_free_plan_is_bit_identical_ligen_amd() {
        let spec = DeviceSpec::mi100();
        let freqs = [800.0, 1200.0, 1450.0];
        let wl = ligen::GpuLigen::new(1000, 31, 4);
        let plain = characterize(&spec, &wl, &freqs, 2, Some(41));
        let (faulted, diag) =
            characterize_with_options(&spec, &wl, &freqs, &inert_opts(2, Some(41)));
        assert_identical(&plain, &faulted);
        assert!(diag.is_clean());
    }

    #[test]
    fn fault_free_plan_is_bit_identical_serial_path() {
        let spec = v100();
        let freqs = [500.0, 1312.1];
        let plain = characterize_serial(&spec, &small_cronos(), &freqs, 2, Some(13));
        let (faulted, diag) = characterize_serial_with_options(
            &spec,
            &small_cronos(),
            &freqs,
            &inert_opts(2, Some(13)),
        );
        assert_identical(&plain, &faulted);
        assert!(diag.is_clean());
    }

    #[test]
    fn noise_seed_at_u64_max_wraps_on_both_paths() {
        // A point's noise seed is `seed + seed_off`, wrapping past
        // `u64::MAX` in every build profile, so the top of the seed range
        // sweeps like any other seed and both engines agree on it.
        let spec = v100();
        let freqs = [900.0, 1200.0];
        let opts = inert_opts(1, Some(u64::MAX));
        let (fast, fast_diag) = characterize_with_options(&spec, &small_cronos(), &freqs, &opts);
        let (slow, slow_diag) =
            characterize_serial_with_options(&spec, &small_cronos(), &freqs, &opts);
        assert_identical(&fast, &slow);
        assert_eq!(fast_diag, slow_diag);
    }

    // ---- Telemetry inertness ----

    #[test]
    fn telemetry_armed_sweep_is_bit_identical() {
        // Same discipline as the inert FaultPlan: an armed sink may
        // observe, never perturb. Every f64 must match exactly.
        let spec = v100();
        let freqs = [500.0, 900.0, 1312.1, 1597.0];
        let (plain, plain_diag) =
            characterize_with_options(&spec, &small_cronos(), &freqs, &inert_opts(3, Some(42)));
        let tel = Telemetry::new();
        let opts = SweepOptions {
            telemetry: Some(Arc::clone(&tel)),
            ..inert_opts(3, Some(42))
        };
        let (armed, armed_diag) = characterize_with_options(&spec, &small_cronos(), &freqs, &opts);
        assert_identical(&plain, &armed);
        assert_eq!(plain_diag, armed_diag);

        // And the sink actually observed the sweep: baseline + every
        // frequency point priced, the sweep span opened and closed.
        let snap = tel.registry().snapshot();
        let get = |name: &str| {
            snap.metrics
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| v.clone())
        };
        use crate::telemetry::MetricValue;
        assert_eq!(get("sweep.runs"), Some(MetricValue::Counter(1)));
        assert_eq!(
            get("sweep.points_priced"),
            Some(MetricValue::Counter(1 + freqs.len() as u64))
        );
        // Sweep meters are pre-registered (Prometheus style), so a clean
        // sweep reports them as explicit zeros.
        assert_eq!(
            get("sweep.points_flagged"),
            Some(MetricValue::Counter(0)),
            "inert plan: no flags"
        );
        assert_eq!(get("sweep.remeasurements"), Some(MetricValue::Counter(0)));
        match get("sweep.point_time_s") {
            Some(MetricValue::Histogram { count, sum, .. }) => {
                assert_eq!(count, 1 + freqs.len() as u64);
                assert!(sum > 0.0);
            }
            other => panic!("expected the point-time histogram, got {other:?}"),
        }
        assert_eq!(span_begins(&tel, "sweep"), 1);
        assert_eq!(span_begins(&tel, "point"), 1 + freqs.len());
        assert_eq!(tel.dropped_events(), 0);

        // A full (core × mem × cap) lattice runs on the same engine and
        // reports the same shape: one sweep, one point span per point.
        let axes = LatticeAxes::full(freqs, [810.0, 1107.0], &[200.0]);
        let (plain, plain_diag) =
            characterize_lattice(&spec, &small_cronos(), &axes, &inert_opts(3, Some(42)));
        let tel = Telemetry::new();
        let opts = SweepOptions {
            telemetry: Some(Arc::clone(&tel)),
            ..inert_opts(3, Some(42))
        };
        let (armed, armed_diag) = characterize_lattice(&spec, &small_cronos(), &axes, &opts);
        assert_eq!(plain, armed);
        assert_eq!(plain_diag, armed_diag);
        assert_eq!(
            tel.registry().counter("sweep.points_priced").get(),
            1 + axes.len() as u64
        );
        assert_eq!(span_begins(&tel, "sweep"), 1);
        assert_eq!(span_begins(&tel, "point"), 1 + axes.len());
        assert_eq!(tel.dropped_events(), 0);
    }

    fn span_begins(tel: &Telemetry, name: &str) -> usize {
        tel.events()
            .iter()
            .filter(|e| e.span == name && e.kind == crate::telemetry::EventKind::Begin)
            .count()
    }

    #[test]
    fn launch_level_tracing_is_also_inert() {
        let spec = v100();
        let freqs = [900.0, 1312.1];
        let (plain, _) =
            characterize_with_options(&spec, &small_cronos(), &freqs, &inert_opts(2, None));
        let tel = Telemetry::with_trace_level(SpanLevel::Launch);
        let opts = SweepOptions {
            telemetry: Some(Arc::clone(&tel)),
            ..inert_opts(2, None)
        };
        let (armed, _) = characterize_with_options(&spec, &small_cronos(), &freqs, &opts);
        assert_identical(&plain, &armed);
        // One replay instant per rep per point: (1 + freqs) × reps.
        let replays = tel.events().iter().filter(|e| e.span == "replay").count();
        assert_eq!(replays, (1 + freqs.len()) * 2);

        // The same on a full (core × mem × cap) lattice.
        let axes = LatticeAxes::full(freqs, [810.0, 1107.0], &[200.0]);
        let (plain, _) = characterize_lattice(&spec, &small_cronos(), &axes, &inert_opts(2, None));
        let tel = Telemetry::with_trace_level(SpanLevel::Launch);
        let opts = SweepOptions {
            telemetry: Some(Arc::clone(&tel)),
            ..inert_opts(2, None)
        };
        let (armed, _) = characterize_lattice(&spec, &small_cronos(), &axes, &opts);
        assert_eq!(plain, armed);
        let replays = tel.events().iter().filter(|e| e.span == "replay").count();
        assert_eq!(replays, (1 + axes.len()) * 2);
    }

    // ---- Fault-aware sweep behaviour under a live plan ----

    #[test]
    fn throttled_points_are_remeasured_or_flagged() {
        use gpu_sim::{Schedule, ThrottleWindow};
        let spec = v100();
        let freqs = [900.0, 1312.1];
        let opts = SweepOptions {
            reps: 1,
            noise_seed: None,
            // Throttling fires early in every measurement attempt, so
            // re-measurement can never come back clean: the sweep must
            // accept the degraded points and flag them.
            faults: FaultPlan::seeded(7)
                .throttle(
                    Schedule::Prob(0.9),
                    ThrottleWindow {
                        cap_mhz: 700.0,
                        launches: 50,
                    },
                )
                .reset_energy_counter(Schedule::Prob(0.05)),
            retry: RetryPolicy::default(),
            remeasure_limit: 1,
            telemetry: None,
        };
        let (c, diag) = characterize_with_options(&spec, &small_cronos(), &freqs, &opts);
        assert!(c
            .points
            .iter()
            .all(|p| p.time_s.is_finite() && p.time_s > 0.0));
        assert!(c.points.iter().all(|p| p.energy_j.is_finite()));
        assert!(
            !diag.is_clean(),
            "a 90 % throttle schedule must leave a trace"
        );
        let saw_throttle = diag
            .points
            .iter()
            .chain(std::iter::once(&diag.baseline))
            .any(|p| p.degradation.throttled_launches > 0);
        assert!(saw_throttle, "diagnostics must surface throttled launches");
        // Every dirty point exhausted its re-measure budget and was flagged.
        for p in diag.points.iter() {
            if p.degradation.throttled_launches > 0 {
                assert!(p.flagged);
                assert_eq!(p.remeasured, opts.remeasure_limit);
            }
        }
    }

    #[test]
    fn transient_rejections_are_healed_by_remeasurement_budget() {
        use gpu_sim::Schedule;
        let spec = v100();
        let opts = SweepOptions {
            reps: 2,
            noise_seed: None,
            // One rejection at a fixed fault index: the first attempt is
            // dirty (a retry heals it), and diagnostics record the repair.
            faults: FaultPlan::seeded(3).reject_set_frequency(Schedule::once(0)),
            retry: RetryPolicy::default(),
            remeasure_limit: 2,
            telemetry: None,
        };
        let (c, diag) = characterize_with_options(&spec, &small_cronos(), &[900.0], &opts);
        assert!(c.points[0].time_s > 0.0);
        // The rejection fires at fault index 0 of every fresh stream, so
        // every attempt sees it: the point ends flagged with its retry
        // recorded, never silently clean.
        let p = &diag.points[0];
        assert!(p.degradation.frequency_rejections > 0);
        assert!(p.degradation.retries > 0);
        assert!(p.flagged);
    }

    // ---- Configuration lattice ----

    #[test]
    fn degenerate_lattice_is_bit_identical_to_frequency_sweep() {
        // A core-only lattice (default memory clock, no cap) must reproduce
        // the plain frequency sweep exactly — same seeds, same request
        // sequence, same f64 bits.
        let spec = v100();
        let freqs = [500.0, 900.0, 1312.1, 1597.0];
        let plain = characterize(&spec, &small_cronos(), &freqs, 3, Some(20231112));
        let (lat, diag) = characterize_lattice(
            &spec,
            &small_cronos(),
            &LatticeAxes::core_only(freqs),
            &inert_opts(3, Some(20231112)),
        );
        assert_eq!(lat.baseline_time_s, plain.baseline_time_s);
        assert_eq!(lat.baseline_energy_j, plain.baseline_energy_j);
        assert_eq!(lat.points.len(), plain.points.len());
        for (lp, pp) in lat.points.iter().zip(&plain.points) {
            assert_eq!(lp.core_mhz, pp.freq_mhz);
            assert_eq!(lp.mem_mhz, 1107.0, "degenerate axis sits on default");
            assert_eq!(lp.cap_w, None);
            assert_eq!(lp.time_s, pp.time_s, "at {} MHz", pp.freq_mhz);
            assert_eq!(lp.energy_j, pp.energy_j, "at {} MHz", pp.freq_mhz);
            assert_eq!(lp.speedup, pp.speedup);
            assert_eq!(lp.norm_energy, pp.norm_energy);
        }
        assert!(
            diag.is_clean(),
            "inert plan, default config: no fault trace"
        );
    }

    #[test]
    fn full_lattice_enumerates_in_declared_order_and_caps_cost_time() {
        let spec = v100();
        let axes = LatticeAxes::full([900.0, 1312.1], [810.0, 1107.0], &[200.0]);
        assert_eq!(axes.len(), 8);
        // Noiseless, so the capped/uncapped comparison below is pure
        // physics — each lattice index seeds its own noise stream, which
        // would otherwise jitter the inequality.
        let (lat, diag) = characterize_lattice(&spec, &small_cronos(), &axes, &inert_opts(2, None));
        assert_eq!(lat.points.len(), 8);
        // Core-outer → memory → cap enumeration.
        let mut expect = Vec::new();
        for &f in &[900.0, 1312.1] {
            for &m in &[810.0, 1107.0] {
                for cap in [None, Some(200.0)] {
                    expect.push((f, m, cap));
                }
            }
        }
        let got: Vec<_> = lat
            .points
            .iter()
            .map(|p| (p.core_mhz, p.mem_mhz, p.cap_w))
            .collect();
        assert_eq!(got, expect);
        // A cap can only slow a configuration down, never speed it up.
        for pair in lat.points.chunks(2) {
            let (uncapped, capped) = (&pair[0], &pair[1]);
            assert_eq!(uncapped.core_mhz, capped.core_mhz);
            assert_eq!(uncapped.mem_mhz, capped.mem_mhz);
            assert!(
                capped.time_s >= uncapped.time_s,
                "cap stretched nothing at {} MHz / {} MHz?",
                capped.core_mhz,
                capped.mem_mhz
            );
            assert!(capped.energy_j.is_finite() && capped.energy_j > 0.0);
        }
        // Deterministic actuator work (mem clock, cap) is not degradation.
        assert!(diag.is_clean(), "fault-free lattice must be clean");
        // The surface helpers stay coherent.
        let best = lat.min_energy();
        assert!(lat.points.iter().all(|p| p.energy_j >= best.energy_j));
        let surface = lat.pareto_surface();
        assert!(!surface.is_empty() && surface.len() <= lat.points.len());
        let within = lat.min_energy_within(lat.baseline_time_s * 10.0).unwrap();
        assert!(within.energy_j >= best.energy_j || within == best);
    }

    #[test]
    fn lattice_rejected_mem_clock_degrades_and_is_flagged() {
        use gpu_sim::Schedule;
        // Every memory-clock set is rejected: the queue falls back to the
        // default clock, the fallback is recorded, and the point — measured
        // at the wrong configuration — must be flagged, never silently kept.
        let spec = v100();
        let axes = LatticeAxes {
            core_mhz: vec![1312.1],
            mem_mhz: vec![810.0],
            power_caps_w: Vec::new(),
        };
        let opts = SweepOptions {
            reps: 1,
            noise_seed: None,
            faults: FaultPlan::seeded(11).reject_set_frequency(Schedule::Prob(1.0)),
            retry: RetryPolicy::default(),
            remeasure_limit: 1,
            telemetry: None,
        };
        let (lat, diag) = characterize_lattice(&spec, &small_cronos(), &axes, &opts);
        assert_eq!(lat.points.len(), 1);
        assert!(lat.points[0].time_s > 0.0);
        let p = &diag.points[0];
        assert_eq!(p.mem_mhz, 810.0, "diagnostics keep the *requested* config");
        assert!(
            p.diag.degradation.mem_clock_fallbacks > 0,
            "fallback must be audited"
        );
        assert!(p.diag.flagged, "degraded configuration must be flagged");
        assert!(!diag.is_clean());
    }
}
