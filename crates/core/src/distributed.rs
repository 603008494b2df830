//! Strong-scaling characterization over the **`num_devices` axis**: the
//! distributed sibling of [`crate::characterize::characterize_lattice`].
//!
//! Where the lattice sweep walks one device through its
//! (core × mem × cap) configuration space, this sweep walks a *gang* of
//! identical devices through (gang size × core clock): every point builds
//! `num_devices` fresh simulated devices, decomposes the Cronos grid into
//! slabs via [`cronos::DistributedGpuCronos`], and measures the lockstep
//! run — makespan across the gang, energy summed over it, and the share
//! of both spent on the exchange machinery (halo pack/unpack kernels,
//! link transfers, barrier idle waits).
//!
//! The baseline anchor is **one device at its default configuration** —
//! the exact submission stream [`cronos::GpuCronos`] produces — so
//! distributed points and single-device lattice points normalize against
//! the same reference and their `speedup` / `norm_energy` columns are
//! directly comparable. That comparability is what lets the governor's
//! gang placement ([`choose_gang`][gang]) trade a bigger gang at a cheap
//! clock against one device at an expensive one.
//!
//! The gang size is not one more lattice axis, and this sweep keeps an
//! engine of its own rather than running on
//! [`crate::characterize::characterize_lattice`]'s: a point runs
//! `num_devices` queues in lockstep, with barrier waits and priced halo
//! exchanges between them, where a lattice point replays one trace on one
//! queue. Its measurements feed `governor::gang` directly; no model is
//! trained over the gang axis.
//!
//! Telemetry is **inert by default**: an armed [`Telemetry`] sink only
//! observes (spans plus the `synergy.exchange.*` counters via
//! [`Telemetry::record_exchange`]) and leaves every measurement
//! bit-identical — the tests below pin this.
//!
//! [gang]: https://docs.rs/governor

use std::sync::Arc;

use cronos::{DistributedGpuCronos, DistributedRunReport};
use gpu_sim::noise::NoiseModel;
use gpu_sim::pricing::PriceTable;
use gpu_sim::{Device, DeviceSpec};
use serde::{Deserialize, Serialize};
use synergy::{FrequencyPolicy, SynergyQueue};

use crate::telemetry::{SpanLevel, Telemetry};

/// The two swept axes of a distributed characterization.
#[derive(Debug, Clone, PartialEq)]
pub struct DistributedAxes {
    /// Gang sizes to sweep; each must be ≥ 1 and must not oversubscribe
    /// the workload's grid ([`DistributedGpuCronos::max_devices`]).
    pub device_counts: Vec<usize>,
    /// Core clocks (MHz) applied uniformly to every device in the gang.
    /// Empty sweeps the default clock only.
    pub core_mhz: Vec<f64>,
}

impl DistributedAxes {
    /// Device-count-only axes: every gang runs at the default clock.
    pub fn device_counts(device_counts: Vec<usize>) -> Self {
        DistributedAxes {
            device_counts,
            core_mhz: Vec::new(),
        }
    }
}

/// One measured (gang size, core clock) point.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DistributedPoint {
    /// Devices in the gang.
    pub num_devices: usize,
    /// Core clock every gang member ran at (the device default when the
    /// core axis was empty).
    pub core_mhz: f64,
    /// Makespan: the slowest device's wall time.
    pub time_s: f64,
    /// Energy summed over the gang, barrier idle waits included.
    pub energy_j: f64,
    /// `baseline_time_s / time_s` against the 1-device default anchor.
    pub speedup: f64,
    /// `energy_j / baseline_energy_j` against the 1-device default anchor.
    pub norm_energy: f64,
    /// Time spent in exchange machinery, summed over devices.
    pub exchange_time_s: f64,
    /// Energy spent in exchange machinery, summed over devices.
    pub exchange_energy_j: f64,
    /// Simulated seconds spent waiting at lockstep barriers.
    pub barrier_wait_s: f64,
    /// Bytes that crossed device links.
    pub halo_bytes: u64,
}

impl DistributedPoint {
    /// Fraction of the point's energy spent on the exchange machinery.
    /// As slabs shrink the stencil work per device falls while the halo
    /// planes stay the same size, so this share must grow with gang size.
    pub fn exchange_energy_share(&self) -> f64 {
        if self.energy_j > 0.0 {
            self.exchange_energy_j / self.energy_j
        } else {
            0.0
        }
    }
}

/// A full strong-scaling characterization of one workload on gangs of one
/// device model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DistributedCharacterization {
    /// Device model the gangs were built from.
    pub device: String,
    /// Workload identifier (grid shape and step count).
    pub workload: String,
    /// Anchor: one device, default configuration — the monolithic
    /// [`cronos::GpuCronos`] stream.
    pub baseline_time_s: f64,
    /// Anchor energy of the same run.
    pub baseline_energy_j: f64,
    /// Measured points in axes order (device counts outer, clocks inner).
    pub points: Vec<DistributedPoint>,
}

/// Options for [`characterize_distributed`].
#[derive(Debug, Clone)]
pub struct DistributedSweepOptions {
    /// Repetitions per point, median-aggregated by energy.
    pub reps: usize,
    /// Measurement-noise seed; `None` runs noiseless.
    pub noise_seed: Option<u64>,
    /// Observability sink. Purely observational: armed telemetry leaves
    /// every measurement bit-identical.
    pub telemetry: Option<Arc<Telemetry>>,
}

impl Default for DistributedSweepOptions {
    fn default() -> Self {
        DistributedSweepOptions {
            reps: 1,
            noise_seed: None,
            telemetry: None,
        }
    }
}

/// Builds the gang of measurement queues for one sweep point: fresh
/// devices with per-(point, device) noise streams, pricing routed through
/// the sweep's shared memo table, and the point's fixed-clock policy
/// installed on every member.
fn gang_queues(
    spec: &DeviceSpec,
    num_devices: usize,
    core_mhz: Option<f64>,
    noise_seed: Option<u64>,
    point_off: u64,
    prices: &Arc<PriceTable>,
) -> Vec<SynergyQueue> {
    (0..num_devices)
        .map(|d| {
            let mut dev = match noise_seed {
                Some(seed) => {
                    // Decorrelate noise across both points and gang
                    // members while keeping the stream a pure function of
                    // (seed, point, device).
                    let off = point_off
                        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                        .wrapping_add(d as u64);
                    Device::with_noise(spec.clone(), NoiseModel::realistic(seed.wrapping_add(off)))
                }
                None => Device::new(spec.clone()),
            };
            dev.set_price_table(Arc::clone(prices));
            let mut q = SynergyQueue::for_device(dev);
            if let Some(f) = core_mhz {
                q.set_policy(FrequencyPolicy::Fixed(f));
            }
            q
        })
        .collect()
}

/// Measures one (gang size, clock) point: `reps` lockstep runs on one
/// gang (each [`DistributedGpuCronos::run`] report is already a per-run
/// delta), aggregated to the median report by total energy.
fn measure_point(
    workload: &DistributedGpuCronos,
    spec: &DeviceSpec,
    num_devices: usize,
    core_mhz: Option<f64>,
    opts: &DistributedSweepOptions,
    point_off: u64,
    prices: &Arc<PriceTable>,
) -> DistributedRunReport {
    let mut queues = gang_queues(
        spec,
        num_devices,
        core_mhz,
        opts.noise_seed,
        point_off,
        prices,
    );
    let mut reports: Vec<DistributedRunReport> =
        (0..opts.reps).map(|_| workload.run(&mut queues)).collect();
    reports.sort_by(|a, b| a.total.energy_j.total_cmp(&b.total.energy_j));
    reports[reports.len() / 2]
}

/// Sweeps the (device count × core clock) gang lattice of `axes` and
/// returns the strong-scaling characterization, anchored at one device on
/// the default configuration.
///
/// # Panics
/// Panics on empty device counts, `reps == 0`, a zero gang size, or a
/// gang that oversubscribes the workload's grid.
pub fn characterize_distributed(
    spec: &DeviceSpec,
    workload: &DistributedGpuCronos,
    axes: &DistributedAxes,
    opts: &DistributedSweepOptions,
) -> DistributedCharacterization {
    assert!(
        !axes.device_counts.is_empty(),
        "need at least one device count"
    );
    assert!(opts.reps > 0, "need at least one repetition");
    let max = workload.max_devices();
    for &d in &axes.device_counts {
        assert!(d >= 1, "gangs need at least one device");
        assert!(d <= max, "{d} devices oversubscribe the grid (max {max})");
    }

    let name = format!(
        "cronos-dist-{}x{}x{}-s{}",
        workload.grid.nx, workload.grid.ny, workload.grid.nz, workload.steps
    );
    let tel = opts.telemetry.as_deref();
    let _sweep_span = tel.map(|t| {
        t.registry().counter("sweep.runs").inc();
        t.span(
            SpanLevel::Sweep,
            "distributed-sweep",
            vec![
                ("device", spec.name.clone()),
                ("workload", name.clone()),
                ("device_counts", axes.device_counts.len().to_string()),
                ("core_clocks", axes.core_mhz.len().to_string()),
                ("reps", opts.reps.to_string()),
            ],
        )
    });

    let prices = Arc::new(PriceTable::new());

    // Anchor: one device, default configuration (no policy installed), the
    // exact stream GpuCronos submits — so distributed points normalize
    // against the same reference as single-device lattice points.
    let baseline = {
        let _span = tel.map(|t| {
            t.span(
                SpanLevel::Point,
                "point",
                vec![("devices", "1".into()), ("freq", "baseline".into())],
            )
        });
        measure_point(workload, spec, 1, None, opts, 0, &prices).total
    };

    let clocks: Vec<Option<f64>> = if axes.core_mhz.is_empty() {
        vec![None]
    } else {
        axes.core_mhz.iter().copied().map(Some).collect()
    };

    let mut points = Vec::with_capacity(axes.device_counts.len() * clocks.len());
    for (i, &d) in axes.device_counts.iter().enumerate() {
        for (j, &clock) in clocks.iter().enumerate() {
            let point_off = 1 + (i * clocks.len() + j) as u64;
            let _span = tel.map(|t| {
                t.span(
                    SpanLevel::Point,
                    "point",
                    vec![
                        ("devices", d.to_string()),
                        (
                            "freq",
                            clock.map_or_else(|| "default".into(), |f| format!("{f}")),
                        ),
                    ],
                )
            });
            let r = measure_point(workload, spec, d, clock, opts, point_off, &prices);
            if let Some(t) = tel {
                t.record_exchange(
                    r.halo_bytes,
                    r.exchange.time_s,
                    r.exchange.energy_j,
                    r.barrier_wait_s,
                );
            }
            points.push(DistributedPoint {
                num_devices: d,
                core_mhz: clock.unwrap_or(spec.default_core_mhz),
                time_s: r.total.time_s,
                energy_j: r.total.energy_j,
                speedup: baseline.time_s / r.total.time_s,
                norm_energy: r.total.energy_j / baseline.energy_j,
                exchange_time_s: r.exchange.time_s,
                exchange_energy_j: r.exchange.energy_j,
                barrier_wait_s: r.barrier_wait_s,
                halo_bytes: r.halo_bytes,
            });
        }
    }
    if let Some(t) = tel {
        t.record_pricing(prices.stats(), prices.len());
    }

    DistributedCharacterization {
        device: spec.name.clone(),
        workload: name,
        baseline_time_s: baseline.time_s,
        baseline_energy_j: baseline.energy_j,
        points,
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use cronos::Grid;

    fn wl() -> DistributedGpuCronos {
        // Big enough that stencil work dominates the halo planes and
        // strong scaling actually pays; small enough to stay fast.
        DistributedGpuCronos::new(Grid::cubic(96, 32, 32), 2)
    }

    #[test]
    fn single_device_default_point_is_the_anchor() {
        let spec = DeviceSpec::v100();
        let c = characterize_distributed(
            &spec,
            &wl(),
            &DistributedAxes::device_counts(vec![1]),
            &DistributedSweepOptions::default(),
        );
        assert_eq!(c.points.len(), 1);
        let p = &c.points[0];
        // Noiseless, the 1-device default point replays the anchor stream
        // bit-identically.
        assert_eq!(p.time_s.to_bits(), c.baseline_time_s.to_bits());
        assert_eq!(p.energy_j.to_bits(), c.baseline_energy_j.to_bits());
        assert_eq!(p.speedup.to_bits(), 1.0f64.to_bits());
        assert_eq!(p.norm_energy.to_bits(), 1.0f64.to_bits());
        assert_eq!(p.halo_bytes, 0);
        assert_eq!(p.exchange_time_s, 0.0);
        assert_eq!(p.core_mhz, spec.default_core_mhz);
    }

    #[test]
    fn strong_scaling_shrinks_makespan_and_grows_exchange_share() {
        let spec = DeviceSpec::v100();
        let c = characterize_distributed(
            &spec,
            &wl(),
            &DistributedAxes::device_counts(vec![1, 2, 4]),
            &DistributedSweepOptions::default(),
        );
        assert_eq!(c.points.len(), 3);
        for w in c.points.windows(2) {
            assert!(
                w[1].speedup > w[0].speedup,
                "speedup must grow with gang size: {} !> {}",
                w[1].speedup,
                w[0].speedup
            );
            assert!(
                w[1].exchange_energy_share() > w[0].exchange_energy_share(),
                "exchange share must grow as slabs shrink: {} !> {}",
                w[1].exchange_energy_share(),
                w[0].exchange_energy_share()
            );
            assert!(w[1].halo_bytes > w[0].halo_bytes);
        }
    }

    #[test]
    fn core_axis_trades_time_for_energy() {
        // Cronos is memory-bound: a lower core clock costs little time and
        // saves real energy, exactly the trade the gang scheduler exploits.
        let spec = DeviceSpec::v100();
        let c = characterize_distributed(
            &spec,
            &wl(),
            &DistributedAxes {
                device_counts: vec![2],
                core_mhz: vec![900.0, spec.default_core_mhz],
            },
            &DistributedSweepOptions::default(),
        );
        assert_eq!(c.points.len(), 2);
        let (low, def) = (&c.points[0], &c.points[1]);
        assert!(low.energy_j < def.energy_j);
        assert!(low.time_s > def.time_s);
    }

    #[test]
    fn noise_seed_is_reproducible_and_decorrelated() {
        let spec = DeviceSpec::v100();
        let axes = DistributedAxes::device_counts(vec![2]);
        let opts = |seed| DistributedSweepOptions {
            reps: 2,
            noise_seed: Some(seed),
            telemetry: None,
        };
        let a = characterize_distributed(&spec, &wl(), &axes, &opts(7));
        let b = characterize_distributed(&spec, &wl(), &axes, &opts(7));
        assert_eq!(a, b, "same seed must reproduce bit-identically");
        let c = characterize_distributed(&spec, &wl(), &axes, &opts(8));
        assert_ne!(
            a.points[0].energy_j, c.points[0].energy_j,
            "different seeds must draw different noise"
        );
    }

    #[test]
    fn armed_telemetry_is_inert_and_audits_the_exchange() {
        let spec = DeviceSpec::v100();
        let axes = DistributedAxes::device_counts(vec![1, 2]);
        let plain =
            characterize_distributed(&spec, &wl(), &axes, &DistributedSweepOptions::default());
        let tel = Telemetry::new();
        let armed = characterize_distributed(
            &spec,
            &wl(),
            &axes,
            &DistributedSweepOptions {
                telemetry: Some(Arc::clone(&tel)),
                ..DistributedSweepOptions::default()
            },
        );
        assert_eq!(plain, armed, "armed telemetry changed a measurement");
        let bytes = tel.registry().counter("synergy.exchange.halo_bytes").get();
        let expected: u64 = armed.points.iter().map(|p| p.halo_bytes).sum();
        assert_eq!(bytes, expected, "halo-byte audit must match the points");
        assert!(bytes > 0);
        assert_eq!(tel.registry().counter("sweep.runs").get(), 1);
    }

    #[test]
    #[should_panic(expected = "oversubscribe")]
    fn oversubscribed_gang_panics() {
        let spec = DeviceSpec::v100();
        characterize_distributed(
            &spec,
            &wl(),
            &DistributedAxes::device_counts(vec![64]),
            &DistributedSweepOptions::default(),
        );
    }
}
