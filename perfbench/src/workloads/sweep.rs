//! `sweep`: characterization with no training — full-resolution sweeps
//! (153 clocks, 5 reps) of the 17 paper inputs once noiseless and once
//! with the seeded noise model, the (core × mem × cap) lattice at a
//! 4-clock stride for the Cronos inputs, and the 1/2/4/8-device gang
//! sweep of the 192×64×64 decomposed Cronos.

use energy_model::characterize::{
    characterize_lattice, LatticeAxes, LatticeCharacterization, LatticeDiagnostics, SweepOptions,
};
use energy_model::distributed::{
    characterize_distributed, DistributedAxes, DistributedCharacterization, DistributedSweepOptions,
};
use energy_model::workflow::{experiment_frequencies, CRONOS_STEPS};
use energy_model::{CronosInput, LigenInput, Workload};
use gpu_sim::DeviceSpec;

use super::{characterize_inputs, sweep_options, BenchWorkload, Input, PassOutput, Stages};
use crate::check::{Check, Digest};
use crate::env::Env;
use crate::trace::{Layer, Tracer};
use crate::REPS;

/// Core-clock stride of the lattice (39 V100 clocks × 4 memory clocks ×
/// 3 cap settings = 468 points).
pub const LATTICE_STRIDE: usize = 4;

/// Power caps of the lattice, besides the uncapped setting (W).
pub const LATTICE_CAPS_W: [f64; 2] = [200.0, 250.0];

/// Core-clock stride of the gang sweep (11 V100 clocks).
pub const GANG_STRIDE: usize = 16;

/// Gang sizes of the decomposed sweep.
pub const GANG_DEVICES: [usize; 4] = [1, 2, 4, 8];

/// The `sweep` workload.
#[derive(Debug, Default, Clone, Copy)]
pub struct Sweep;

/// Inputs and axes of the sweeps.
pub struct SweepState {
    spec: DeviceSpec,
    freqs: Vec<f64>,
    inputs: Vec<Input>,
    n_cronos: usize,
    lattice: LatticeAxes,
    gang: cronos::DistributedGpuCronos,
    gang_axes: DistributedAxes,
}

/// The full (core × mem × cap) lattice of `spec` at `core_stride`.
pub fn lattice_axes(spec: &DeviceSpec, core_stride: usize) -> LatticeAxes {
    LatticeAxes::full(
        experiment_frequencies(spec, core_stride),
        spec.mem_freqs.as_slice().to_vec(),
        &LATTICE_CAPS_W,
    )
}

/// The 192×64×64 decomposed Cronos and its (gang size × clock) axes.
pub fn gang_workload(spec: &DeviceSpec) -> (cronos::DistributedGpuCronos, DistributedAxes) {
    let grid = cronos::Grid::cubic(192, 64, 64);
    (
        cronos::DistributedGpuCronos::new(grid, CRONOS_STEPS),
        DistributedAxes {
            device_counts: GANG_DEVICES.to_vec(),
            core_mhz: experiment_frequencies(spec, GANG_STRIDE),
        },
    )
}

/// Sweeps the lattice of every workload, one after another (each sweep
/// fans its points out itself), each a stage of its own.
pub fn lattice_sweeps(
    spec: &DeviceSpec,
    workloads: &[&dyn Workload],
    axes: &LatticeAxes,
    opts: &SweepOptions,
    stages: &mut Stages,
) -> Vec<(LatticeCharacterization, LatticeDiagnostics)> {
    workloads
        .iter()
        .enumerate()
        .map(|(i, w)| {
            stages.time(format!("characterize.lattice.{i}"), || {
                characterize_lattice(spec, *w, axes, opts)
            })
        })
        .collect()
}

/// The gang sweep of the decomposed Cronos.
pub fn gang_sweep(
    spec: &DeviceSpec,
    workload: &cronos::DistributedGpuCronos,
    axes: &DistributedAxes,
    noise_seed: Option<u64>,
    tracer: &Tracer,
) -> DistributedCharacterization {
    let opts = DistributedSweepOptions {
        reps: REPS,
        noise_seed,
        telemetry: tracer.program_sink(),
    };
    characterize_distributed(spec, workload, axes, &opts)
}

impl BenchWorkload for Sweep {
    type State = SweepState;
    const ITEMS: &'static str = "points";

    fn setup(&self, _env: &Env, _tracer: &Tracer) -> Result<SweepState, String> {
        let spec = DeviceSpec::v100();
        let cronos = CronosInput::paper_configs();
        let mut inputs: Vec<Input> = cronos.iter().map(Input::cronos).collect();
        inputs.extend(LigenInput::figure13_configs().iter().map(Input::ligen));
        let (gang, gang_axes) = gang_workload(&spec);
        Ok(SweepState {
            freqs: experiment_frequencies(&spec, 1),
            lattice: lattice_axes(&spec, LATTICE_STRIDE),
            spec,
            inputs,
            n_cronos: cronos.len(),
            gang,
            gang_axes,
        })
    }

    fn pass(&self, st: &SweepState, env: &Env, tracer: &Tracer) -> Result<PassOutput, String> {
        let mut check = Check::default();
        let mut digest = Digest::default();
        let mut items = 0u64;
        let mut stages = Stages::default();

        for (span, noise_seed) in [
            ("characterize.clean", None),
            ("characterize.noisy", Some(env.seed)),
        ] {
            let opts = sweep_options(REPS, noise_seed, tracer);
            let swept = stages.time(span, || {
                tracer.span(Layer::Characterize, span, || {
                    characterize_inputs(&st.spec, &st.inputs, &st.freqs, &opts, tracer)
                })
            });
            items += (st.inputs.len() * (st.freqs.len() + 1) * REPS) as u64;
            for (input, diagnostics) in &swept {
                let ch = &input.characterization;
                check.ensure(
                    diagnostics.is_clean() && ch.points.len() == st.freqs.len(),
                    || format!("{span} of {} not clean", input.label),
                );
                check.positive("baseline energy", ch.baseline_energy_j);
                for p in &ch.points {
                    check.positive("point time", p.time_s);
                    check.positive("point energy", p.energy_j);
                    digest.f64(p.time_s);
                    digest.f64(p.energy_j);
                }
            }
        }

        let opts = sweep_options(REPS, Some(env.seed), tracer);
        let cronos: Vec<&dyn Workload> = st.inputs[..st.n_cronos]
            .iter()
            .map(|i| i.workload.as_ref())
            .collect();
        let lattices = tracer.span(Layer::Characterize, "characterize.lattice", || {
            lattice_sweeps(&st.spec, &cronos, &st.lattice, &opts, &mut stages)
        });
        let lattice_points = (cronos.len() * (st.lattice.len() + 1) * REPS) as u64;
        tracer.count("characterize.points", lattice_points);
        items += lattice_points;
        for (lattice, diagnostics) in &lattices {
            check.ensure(
                diagnostics.is_clean() && lattice.points.len() == st.lattice.len(),
                || format!("lattice sweep of {} not clean", lattice.workload),
            );
            for p in &lattice.points {
                check.positive("lattice time", p.time_s);
                check.positive("lattice energy", p.energy_j);
                digest.f64(p.time_s);
                digest.f64(p.energy_j);
            }
        }

        let gang = stages.time("characterize.gang", || {
            tracer.span(Layer::Characterize, "characterize.gang", || {
                gang_sweep(&st.spec, &st.gang, &st.gang_axes, Some(env.seed), tracer)
            })
        });
        let gang_points = st.gang_axes.device_counts.len() * st.gang_axes.core_mhz.len();
        let measured = ((gang_points + 1) * REPS) as u64;
        tracer.count("characterize.points", measured);
        items += measured;
        check.ensure(gang.points.len() == gang_points, || {
            format!(
                "gang sweep has {} of {gang_points} points",
                gang.points.len()
            )
        });
        for p in &gang.points {
            check.positive("gang time", p.time_s);
            check.positive("gang energy", p.energy_j);
            digest.f64(p.time_s);
            digest.f64(p.energy_j);
            digest.u64(p.halo_bytes);
        }

        check.finish()?;
        Ok(PassOutput {
            items,
            digest: digest.value(),
            sim: Vec::new(),
            stages: stages.into_vec(),
        })
    }
}
