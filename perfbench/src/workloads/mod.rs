//! The four benchmark workloads and the inputs they share.
//!
//! Every workload is closed-loop batch work: inputs are generated up
//! front from the seed and each pass runs as fast as the host allows.

use std::sync::Arc;
use std::time::Instant;

use energy_model::characterize::{characterize_with_options, SweepDiagnostics, SweepOptions};
use energy_model::workflow::{CharacterizedInput, CRONOS_STEPS};
use energy_model::{CronosInput, LigenInput, Workload};
use gpu_sim::DeviceSpec;
use rayon::prelude::*;

use crate::env::Env;
use crate::trace::Tracer;

pub mod fleet;
pub mod lifecycle;
pub mod offline;
mod reissue;
pub mod sweep;

pub use fleet::Fleet;
pub use lifecycle::Lifecycle;
pub use offline::Offline;
pub use sweep::Sweep;

/// What one pass produced, beyond its host time.
#[derive(Debug, Clone)]
pub struct PassOutput {
    /// Work units completed: configuration points × reps (offline,
    /// sweep) or governed jobs (fleet, lifecycle).
    pub items: u64,
    /// Digest of the bit patterns of every simulated output.
    pub digest: u64,
    /// Simulated outcomes, deterministic for a seed (`sim_*`, `ds_mape`).
    pub sim: Vec<(&'static str, f64)>,
    /// Host seconds of the pass's stages, by name, from [`Stages`]. The
    /// pass's time outside them is one more stage; empty, the whole pass
    /// is one.
    pub stages: Vec<(String, f64)>,
}

/// Times the stages of a pass.
#[derive(Debug, Default)]
pub struct Stages(Vec<(String, f64)>);

impl Stages {
    /// Runs `f` as stage `name`.
    pub fn time<T>(&mut self, name: impl Into<String>, f: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let out = f();
        self.0.push((name.into(), started.elapsed().as_secs_f64()));
        out
    }

    /// The stages timed so far, in order.
    pub fn into_vec(self) -> Vec<(String, f64)> {
        self.0
    }
}

impl PassOutput {
    /// A simulated outcome by name.
    pub fn sim(&self, name: &str) -> Option<f64> {
        self.sim.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }
}

/// One benchmark workload.
pub trait BenchWorkload {
    /// State one set-up builds for the pass that follows it.
    type State;

    /// Unit of [`PassOutput::items`], for the throughput report.
    const ITEMS: &'static str;

    /// Everything before the timed phase (inputs; for the governor
    /// workloads also characterize, train and publish the serving models
    /// into a fresh registry).
    fn setup(&self, env: &Env, tracer: &Tracer) -> Result<Self::State, String>;

    /// One timed pass; an `Err` is a failed operation or a broken output
    /// invariant.
    fn pass(&self, state: &Self::State, env: &Env, tracer: &Tracer) -> Result<PassOutput, String>;
}

/// One application input: its domain-specific features and the workload
/// that supplies its kernel trace.
pub struct Input {
    /// Display label (paper-figure format).
    pub label: String,
    /// Domain-specific feature vector.
    pub features: Arc<Vec<f64>>,
    /// Trace supplier.
    pub workload: Box<dyn Workload>,
}

impl Input {
    /// A Cronos grid input.
    pub fn cronos(cfg: &CronosInput) -> Self {
        Input {
            label: cfg.label(),
            features: Arc::new(cfg.features()),
            workload: Box::new(cronos::GpuCronos::new(
                cronos::Grid::cubic(cfg.grid_x, cfg.grid_y, cfg.grid_z),
                CRONOS_STEPS,
            )),
        }
    }

    /// A LiGen ligand-batch input.
    pub fn ligen(cfg: &LigenInput) -> Self {
        Input {
            label: cfg.label(),
            features: Arc::new(cfg.features()),
            workload: Box::new(ligen::GpuLigen::new(
                cfg.ligands as u64,
                cfg.atoms as u64,
                cfg.fragments as u64,
            )),
        }
    }
}

/// Sweep options with the program's sink armed when tracing.
pub fn sweep_options(reps: usize, noise_seed: Option<u64>, tracer: &Tracer) -> SweepOptions {
    SweepOptions {
        reps,
        noise_seed,
        telemetry: tracer.program_sink(),
        ..SweepOptions::default()
    }
}

/// Characterizes every input over `freqs`, fanning the inputs out across
/// threads exactly as `workflow::characterize_cronos` does, but through
/// `characterize_with_options` so the sweep's own sink can be armed.
pub fn characterize_inputs(
    spec: &DeviceSpec,
    inputs: &[Input],
    freqs: &[f64],
    opts: &SweepOptions,
    tracer: &Tracer,
) -> Vec<(CharacterizedInput, SweepDiagnostics)> {
    tracer.count(
        "characterize.points",
        (inputs.len() * (freqs.len() + 1) * opts.reps) as u64,
    );
    inputs
        .par_iter()
        .map(|input| {
            let (characterization, diagnostics) =
                characterize_with_options(spec, input.workload.as_ref(), freqs, opts);
            (
                CharacterizedInput {
                    features: Arc::clone(&input.features),
                    label: input.label.clone(),
                    characterization,
                },
                diagnostics,
            )
        })
        .collect()
}
