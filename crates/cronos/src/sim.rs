//! The Algorithm-1 simulation drivers.
//!
//! [`Simulation`] runs the actual numerics on the CPU (rayon-parallel) —
//! this is what the physics tests validate. [`GpuCronos`] drives the same
//! loop structure through a [`synergy::SynergyQueue`], submitting the
//! kernel profiles from [`crate::kernelize`] exactly where the SYCL port
//! submits its kernels; this is what the energy experiments measure.

use synergy::energy::Measurement;
use synergy::{KernelTrace, SynergyQueue, TraceSegment};

use crate::boundary::{apply_boundary, BoundaryKind};
use crate::grid::Grid;
use crate::integrate::{integrate_substep, N_SUBSTEPS};
use crate::kernelize::substep_kernels;
use crate::problems::Problem;
use crate::reduce::max_reduce;
use crate::state::State;
use crate::stencil::compute_changes;

/// A running CPU simulation of one problem.
#[derive(Debug, Clone)]
pub struct Simulation {
    /// Current conserved state.
    pub state: State,
    /// Adiabatic index.
    pub gamma: f64,
    /// CFL safety factor (fraction of the stability limit).
    pub cfl_number: f64,
    /// Boundary condition.
    pub boundary: BoundaryKind,
    /// Current simulation time.
    pub time: f64,
    /// Current timestep (adjusted from the CFL reduction each step).
    pub dt: f64,
    /// Completed timesteps.
    pub step_count: u64,
}

impl Simulation {
    /// Sets up a simulation: applies the initial boundary fill and derives
    /// the first timestep from the initial CFL field (Algorithm 1 lines
    /// 2–3 plus the first `adjustTimestepDelta`).
    pub fn new(problem: Problem, gamma: f64, cfl_number: f64) -> Self {
        assert!(
            cfl_number > 0.0 && cfl_number < 1.0,
            "CFL number must be in (0, 1)"
        );
        let mut state = problem.state;
        apply_boundary(&mut state, problem.boundary);
        let changes = compute_changes(&state, gamma);
        let cfl_max = max_reduce(&changes.cfl);
        let dt = cfl_number / cfl_max;
        Simulation {
            state,
            gamma,
            cfl_number,
            boundary: problem.boundary,
            time: 0.0,
            dt,
            step_count: 0,
        }
    }

    /// Advances one full timestep (three SSP-RK substeps), then adjusts the
    /// timestep from the CFL reduction — the body of Algorithm 1's while
    /// loop. Returns the `dt` that was applied.
    pub fn step(&mut self) -> f64 {
        let dt = self.dt;
        let u_old = self.state.clone();
        let mut cfl_max = 0.0f64;
        for substep in 0..N_SUBSTEPS {
            let changes = compute_changes(&self.state, self.gamma);
            cfl_max = cfl_max.max(max_reduce(&changes.cfl));
            integrate_substep(&mut self.state, &u_old, &changes, dt, substep);
            apply_boundary(&mut self.state, self.boundary);
        }
        // adjustTimestepDelta: next dt from the stiffest signal seen.
        self.dt = self.cfl_number / cfl_max;
        self.time += dt;
        self.step_count += 1;
        dt
    }

    /// Runs until `end_time` (Algorithm 1's outer loop), bounded by
    /// `max_steps` as a runaway guard. Returns the number of steps taken.
    pub fn run_until(&mut self, end_time: f64, max_steps: u64) -> u64 {
        let mut steps = 0;
        while self.time < end_time && steps < max_steps {
            // Clip the final step onto the end time.
            if self.time + self.dt > end_time {
                self.dt = end_time - self.time;
            }
            self.step();
            steps += 1;
        }
        steps
    }

    /// Runs exactly `n` timesteps.
    pub fn run_steps(&mut self, n: u64) {
        for _ in 0..n {
            self.step();
        }
    }
}

/// The GPU-side workload driver: submits the Algorithm-1 kernel sequence
/// for a grid to a SYnergy queue, without carrying the CPU state (the
/// energy behaviour depends on the kernel shapes, which depend only on the
/// grid — this is precisely the paper's domain-specific observation).
#[derive(Debug, Clone, Copy)]
pub struct GpuCronos {
    /// Grid the kernels are sized for.
    pub grid: Grid,
    /// Timesteps per measured run.
    pub steps: u64,
}

impl GpuCronos {
    /// A GPU workload of `steps` timesteps on `grid`.
    ///
    /// # Panics
    /// Panics if `steps == 0`.
    pub fn new(grid: Grid, steps: u64) -> Self {
        assert!(steps > 0, "need at least one timestep");
        GpuCronos { grid, steps }
    }

    /// Submits the full run to `queue` under its active frequency policy
    /// and returns the aggregate time/energy of the submitted kernels.
    pub fn run(&self, queue: &mut SynergyQueue) -> Measurement {
        let kernels = substep_kernels(&self.grid);
        let t0 = queue.total_time_s();
        let e0 = queue.total_energy_j();
        for _step in 0..self.steps {
            for _substep in 0..N_SUBSTEPS {
                for k in &kernels {
                    queue.submit(k);
                }
            }
        }
        Measurement {
            time_s: queue.total_time_s() - t0,
            energy_j: queue.total_energy_j() - e0,
        }
    }

    /// Number of kernel submissions one run performs.
    pub fn kernel_count(&self) -> u64 {
        self.steps * N_SUBSTEPS as u64 * 4
    }

    /// The workload's kernel trace, built directly from its known
    /// structure: the four substep kernels submitted in order, repeated
    /// `steps × N_SUBSTEPS` times. Replaying it is submission-for-
    /// submission identical to [`GpuCronos::run`], at recording cost O(1)
    /// in the step count.
    pub fn record_trace(&self) -> KernelTrace {
        let kernels = substep_kernels(&self.grid).to_vec();
        let period = (0..kernels.len())
            .map(|i| TraceSegment {
                kernel_index: i,
                count: 1,
            })
            .collect();
        KernelTrace::new(kernels, period, self.steps * N_SUBSTEPS as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eos::GAMMA;
    use crate::problems;
    use crate::state::comp;
    use gpu_sim::{Device, DeviceSpec};
    use synergy::FrequencyPolicy;

    #[test]
    fn uniform_state_is_a_fixed_point() {
        let mut sim = Simulation::new(problems::uniform(Grid::cubic(6, 6, 6)), GAMMA, 0.4);
        let before = sim.state.clone();
        sim.run_steps(3);
        for (a, b) in sim.state.cells.iter().zip(&before.cells) {
            for c in 0..8 {
                assert!((a[c] - b[c]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn orszag_tang_conserves_mass_and_energy() {
        // Use the Orszag–Tang problem (periodic) for a conservation check.
        let mut sim = Simulation::new(problems::orszag_tang(Grid::cubic(16, 16, 4)), GAMMA, 0.4);
        let mass0 = sim.state.total(comp::RHO);
        let energy0 = sim.state.total(comp::EN);
        sim.run_steps(5);
        let mass1 = sim.state.total(comp::RHO);
        let energy1 = sim.state.total(comp::EN);
        assert!(((mass1 - mass0) / mass0).abs() < 1e-12, "mass drift");
        assert!(
            ((energy1 - energy0) / energy0).abs() < 1e-12,
            "energy drift"
        );
    }

    #[test]
    fn brio_wu_stays_physical_and_develops_structure() {
        let g = Grid::new(64, 4, 4, 1.0, 0.0625, 0.0625);
        let mut sim = Simulation::new(problems::brio_wu(g), 2.0, 0.4);
        sim.run_until(0.1, 10_000);
        assert!(sim.state.is_physical(2.0), "Brio–Wu went unphysical");
        // The initial two-state profile must have developed intermediate
        // densities (rarefaction/compound structures).
        let mut mid_values = 0;
        for i in 0..g.nx {
            let rho = sim.state.interior(i, 0, 0)[comp::RHO];
            if rho > 0.2 && rho < 0.9 {
                mid_values += 1;
            }
        }
        assert!(mid_values > 3, "no wave structure formed");
    }

    #[test]
    fn sound_wave_advances_at_unit_speed() {
        // With unit sound speed and a unit domain, after t = 1 the wave has
        // crossed the box exactly once and must match the initial profile
        // (up to the scheme's dissipation).
        let g = Grid::new(64, 4, 4, 1.0, 0.0625, 0.0625);
        let problem = problems::sound_wave(g, 1e-3);
        let initial: Vec<f64> = (0..g.nx)
            .map(|i| problem.state.interior(i, 0, 0)[comp::RHO])
            .collect();
        let mut sim = Simulation::new(problem, GAMMA, 0.4);
        sim.run_until(1.0, 100_000);
        assert!((sim.time - 1.0).abs() < 1e-9);
        let max_amp = 1e-3;
        #[allow(clippy::needless_range_loop)]
        for i in 0..g.nx {
            let rho = sim.state.interior(i, 0, 0)[comp::RHO];
            // Profile must stay within the linear band and track the
            // initial wave within 40 % of its amplitude (Rusanov is
            // dissipative but phase-accurate).
            assert!((rho - initial[i]).abs() < 0.4 * max_amp, "cell {i}");
        }
    }

    #[test]
    fn timestep_adapts_to_evolving_cfl_limit() {
        let mut sim = Simulation::new(problems::mhd_blast(Grid::cubic(16, 16, 16)), GAMMA, 0.4);
        let dt0 = sim.dt;
        sim.run_steps(20);
        assert!(sim.dt.is_finite() && sim.dt > 0.0);
        assert!(
            (sim.dt - dt0).abs() > 1e-6 * dt0,
            "adjustTimestepDelta must track the evolving signal speeds"
        );
    }

    #[test]
    fn run_until_respects_end_time() {
        let mut sim = Simulation::new(problems::uniform(Grid::cubic(4, 4, 4)), GAMMA, 0.4);
        sim.run_until(0.05, 1000);
        assert!((sim.time - 0.05).abs() < 1e-12);
    }

    #[test]
    fn gpu_driver_submits_expected_kernel_count() {
        let mut q = SynergyQueue::nvidia(Device::new(DeviceSpec::v100()));
        let run = GpuCronos::new(Grid::cubic(20, 8, 8), 5);
        let m = run.run(&mut q);
        assert_eq!(q.submission_count(), run.kernel_count());
        assert!(m.time_s > 0.0 && m.energy_j > 0.0);
    }

    #[test]
    fn native_trace_matches_generic_recording() {
        let run = GpuCronos::new(Grid::cubic(20, 8, 8), 5);
        let native = run.record_trace();
        let recorded = KernelTrace::record(&DeviceSpec::v100(), |q| {
            run.run(q);
        });
        assert_eq!(native, recorded);
        assert_eq!(native.total_launches(), run.kernel_count());
    }

    #[test]
    fn trace_replay_matches_direct_run_bitwise() {
        let run = GpuCronos::new(Grid::cubic(20, 8, 8), 3);
        let mut direct = SynergyQueue::nvidia(Device::new(DeviceSpec::v100()));
        let m_direct = run.run(&mut direct);
        let mut replayed = SynergyQueue::nvidia(Device::new(DeviceSpec::v100()));
        let m_replay = run.record_trace().replay_on(&mut replayed);
        assert_eq!(m_replay, m_direct);
        assert_eq!(replayed.submission_count(), direct.submission_count());
    }

    #[test]
    fn gpu_large_grid_downclock_saves_energy() {
        // The paper's headline Cronos observation: on a 160×64×64 grid,
        // lowering the core clock saves substantial energy at near-zero
        // slowdown (Figure 4b).
        let run = GpuCronos::new(Grid::cubic(160, 64, 64), 2);

        let mut q_def = SynergyQueue::nvidia(Device::new(DeviceSpec::v100()));
        let m_def = run.run(&mut q_def);

        let mut q_low = SynergyQueue::nvidia(Device::new(DeviceSpec::v100()));
        q_low.set_policy(FrequencyPolicy::Fixed(900.0));
        let m_low = run.run(&mut q_low);

        let slowdown = m_low.time_s / m_def.time_s;
        let energy_ratio = m_low.energy_j / m_def.energy_j;
        assert!(slowdown < 1.06, "slowdown {slowdown} too large");
        assert!(energy_ratio < 0.92, "energy ratio {energy_ratio} too high");
    }
}
