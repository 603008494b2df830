//! Slab domain decomposition with bit-identical halo exchange.
//!
//! The real CRONOS runs domain-decomposed: the 3D grid is cut into
//! per-device subdomains that exchange two-cell halos (`NGHOST = 2`) every
//! substep. This module provides the decomposition geometry
//! ([`Decomposition`]), a CPU reference path ([`DistributedSimulation`])
//! whose evolved state is **bit-identical** to the monolithic
//! [`crate::sim::Simulation`], and the multi-queue GPU driver
//! ([`DistributedGpuCronos`]) that prices the same loop — compute kernels
//! per slab, a per-substep barrier at the CFL all-reduce, and
//! `pack_halo` / link transfer / `unpack_halo` phases on every interior
//! cut.
//!
//! # Why the exchange is bit-identical
//!
//! The monolithic x-boundary sweep copies *full* `(j, k)` storage planes
//! (ghost rows included) from interior columns into the ghost columns; the
//! y and z sweeps then run over every x column. A slab cut along x
//! therefore stays exact if, per substep, each slab
//!
//! 1. receives its x ghost *planes* (all rows) from its neighbours'
//!    interior columns — low ghost layer `s` from the left slab's column
//!    `nx_left + s`, high ghost layer `m` (column `nx + NGHOST + m`) from
//!    the right slab's column `NGHOST + m` — or applies the monolithic
//!    one-sided formula at a physical (non-periodic) face, then
//! 2. runs the unchanged local y and z sweeps.
//!
//! For periodic problems the ring wraps (the first slab's left neighbour
//! is the last slab), which reproduces the monolithic periodic fill
//! exactly, including the one-slab self-wrap. Every copied value equals
//! the value the monolithic sweep would have placed, by induction over
//! substeps, so `compute_changes`, the CFL reduction (max is exact), and
//! `integrate_substep` see bitwise-equal inputs. The slab grids carry the
//! parent's exact cell spacing ([`Grid::subgrid_x`]), closing the loop.

use synergy::energy::Measurement;
use synergy::{SubmitError, SynergyQueue};

use crate::boundary::{sweep_y, sweep_z, BoundaryKind};
use crate::grid::{Grid, NGHOST};
use crate::integrate::{integrate_substep, N_SUBSTEPS};
use crate::kernelize::{halo_kernels, substep_kernels};
use crate::problems::Problem;
use crate::reduce::max_reduce;
use crate::sim::Simulation;
use crate::state::{comp, Cons, State, NCOMP};
use crate::stencil::compute_changes;

/// A slab decomposition of a grid along x: `num_slabs` contiguous
/// subdomains, each at least `NGHOST` cells wide so halo sources are
/// always interior cells.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Decomposition {
    nx: usize,
    /// Global interior x offset of each slab.
    starts: Vec<usize>,
    /// Interior x extent of each slab.
    widths: Vec<usize>,
}

impl Decomposition {
    /// Cuts `grid` into `num_slabs` x-slabs, as evenly as possible (the
    /// first `nx mod num_slabs` slabs get one extra column).
    ///
    /// # Panics
    /// Panics if `num_slabs` is zero or exceeds
    /// [`Decomposition::max_slabs`] for the grid.
    pub fn slabs(grid: &Grid, num_slabs: usize) -> Self {
        assert!(num_slabs > 0, "need at least one slab");
        assert!(
            num_slabs <= Self::max_slabs(grid),
            "{} slabs over nx = {} leaves a slab thinner than NGHOST = {}",
            num_slabs,
            grid.nx,
            NGHOST
        );
        let base = grid.nx / num_slabs;
        let extra = grid.nx % num_slabs;
        let mut starts = Vec::with_capacity(num_slabs);
        let mut widths = Vec::with_capacity(num_slabs);
        let mut at = 0;
        for i in 0..num_slabs {
            let w = base + usize::from(i < extra);
            starts.push(at);
            widths.push(w);
            at += w;
        }
        debug_assert_eq!(at, grid.nx);
        Decomposition {
            nx: grid.nx,
            starts,
            widths,
        }
    }

    /// The largest slab count this grid supports: every slab must span at
    /// least `NGHOST` interior cells, or a halo source would itself be a
    /// ghost cell.
    pub fn max_slabs(grid: &Grid) -> usize {
        (grid.nx / NGHOST).max(1)
    }

    /// Number of slabs.
    pub fn num_slabs(&self) -> usize {
        self.starts.len()
    }

    /// Global interior x offset of slab `i`.
    pub fn start(&self, i: usize) -> usize {
        self.starts[i]
    }

    /// Interior x extent of slab `i`.
    pub fn width(&self, i: usize) -> usize {
        self.widths[i]
    }

    /// The subgrid of slab `i`, carrying the parent's exact spacing.
    pub fn slab_grid(&self, parent: &Grid, i: usize) -> Grid {
        parent.subgrid_x(self.widths[i])
    }

    /// Number of interior cuts that cross a device boundary under `kind`:
    /// the `num_slabs − 1` interior cuts, plus the periodic wrap when more
    /// than one slab shares the ring. A single slab has no remote cut —
    /// its periodic wrap is a local copy.
    pub fn remote_cuts(&self, kind: BoundaryKind) -> usize {
        let n = self.num_slabs();
        if n == 1 {
            0
        } else if kind == BoundaryKind::Periodic {
            n
        } else {
            n - 1
        }
    }

    /// Bytes crossing device links per exchange (one boundary phase): each
    /// remote cut carries `NGHOST` full `(j, k)` storage planes in both
    /// directions, 8 components × 8 bytes per cell.
    pub fn halo_bytes_per_exchange(&self, parent: &Grid, kind: BoundaryKind) -> u64 {
        self.remote_cuts(kind) as u64 * 2 * Self::plane_bytes(parent)
    }

    /// Bytes of one directed halo message: `NGHOST` full storage planes.
    pub fn plane_bytes(parent: &Grid) -> u64 {
        (NGHOST * parent.sy() * parent.sz() * NCOMP * 8) as u64
    }
}

/// Packs the planes a slab sends to its *right* neighbour (which become
/// that neighbour's low ghost columns): columns `nx + s` for
/// `s ∈ [0, NGHOST)`, full `(j, k)` rows, s-major.
fn pack_for_right(state: &State) -> Vec<Cons> {
    pack_columns(state, |s| state.grid.nx + s)
}

/// Packs the planes a slab sends to its *left* neighbour (which become
/// that neighbour's high ghost columns): columns `NGHOST + m`.
fn pack_for_left(state: &State) -> Vec<Cons> {
    pack_columns(state, |m| NGHOST + m)
}

fn pack_columns(state: &State, col: impl Fn(usize) -> usize) -> Vec<Cons> {
    let g = state.grid;
    let mut buf = Vec::with_capacity(NGHOST * g.sy() * g.sz());
    for s in 0..NGHOST {
        let i = col(s);
        for k in 0..g.sz() {
            for j in 0..g.sy() {
                buf.push(state.cells[g.idx(i, j, k)]);
            }
        }
    }
    buf
}

/// Unpacks a received halo into the low ghost columns `s ∈ [0, NGHOST)`.
fn unpack_low(state: &mut State, buf: &[Cons]) {
    unpack_columns(state, buf, |s| s);
}

/// Unpacks a received halo into the high ghost columns `nx + NGHOST + m`.
fn unpack_high(state: &mut State, buf: &[Cons]) {
    let nx = state.grid.nx;
    unpack_columns(state, buf, |m| nx + NGHOST + m);
}

fn unpack_columns(state: &mut State, buf: &[Cons], col: impl Fn(usize) -> usize) {
    let g = state.grid;
    assert_eq!(buf.len(), NGHOST * g.sy() * g.sz(), "halo buffer size");
    let mut at = 0;
    for s in 0..NGHOST {
        let i = col(s);
        for k in 0..g.sz() {
            for j in 0..g.sy() {
                state.cells[g.idx(i, j, k)] = buf[at];
                at += 1;
            }
        }
    }
}

/// One-sided physical x fill at a low domain face — the low half of the
/// monolithic x sweep, applied with the slab's local extent.
fn fill_physical_x_low(state: &mut State, kind: BoundaryKind) {
    let g = state.grid;
    for k in 0..g.sz() {
        for j in 0..g.sy() {
            for layer in 0..NGHOST {
                let src = match kind {
                    BoundaryKind::Periodic => unreachable!("periodic faces use the ring"),
                    BoundaryKind::Outflow => NGHOST,
                    BoundaryKind::Reflecting => 2 * NGHOST - 1 - layer,
                };
                let mut c = state.cells[g.idx(src, j, k)];
                if kind == BoundaryKind::Reflecting {
                    c[comp::MX] = -c[comp::MX];
                    c[comp::BX] = -c[comp::BX];
                }
                state.cells[g.idx(layer, j, k)] = c;
            }
        }
    }
}

/// One-sided physical x fill at a high domain face.
fn fill_physical_x_high(state: &mut State, kind: BoundaryKind) {
    let g = state.grid;
    let sx = g.sx();
    for k in 0..g.sz() {
        for j in 0..g.sy() {
            for layer in 0..NGHOST {
                let src = match kind {
                    BoundaryKind::Periodic => unreachable!("periodic faces use the ring"),
                    BoundaryKind::Outflow => NGHOST + g.nx - 1,
                    BoundaryKind::Reflecting => NGHOST + g.nx - NGHOST + layer,
                };
                let mut c = state.cells[g.idx(src, j, k)];
                if kind == BoundaryKind::Reflecting {
                    c[comp::MX] = -c[comp::MX];
                    c[comp::BX] = -c[comp::BX];
                }
                state.cells[g.idx(sx - 1 - layer, j, k)] = c;
            }
        }
    }
}

/// The domain-decomposed CPU simulation: one [`State`] per slab, advanced
/// in lockstep. Its evolved state ([`DistributedSimulation::gather`]),
/// timestep, time, and step count are bit-identical to the monolithic
/// [`Simulation`] on every supported boundary kind.
#[derive(Debug, Clone)]
pub struct DistributedSimulation {
    /// Parent grid geometry.
    pub grid: Grid,
    /// Decomposition geometry.
    pub decomp: Decomposition,
    /// Per-slab states (full local storage, ghosts included).
    pub slabs: Vec<State>,
    /// Adiabatic index.
    pub gamma: f64,
    /// CFL safety factor.
    pub cfl_number: f64,
    /// Boundary condition.
    pub boundary: BoundaryKind,
    /// Current simulation time.
    pub time: f64,
    /// Current timestep.
    pub dt: f64,
    /// Completed timesteps.
    pub step_count: u64,
    /// Cumulative bytes exchanged across device cuts (remote copies only;
    /// a one-slab ring exchanges nothing).
    pub halo_bytes_exchanged: u64,
}

impl DistributedSimulation {
    /// Sets up the decomposed simulation by scattering the monolithic
    /// initial state (boundary-filled, first `dt` derived) onto
    /// `num_slabs` slabs.
    ///
    /// # Panics
    /// Panics like [`Simulation::new`] and [`Decomposition::slabs`].
    pub fn new(problem: Problem, gamma: f64, cfl_number: f64, num_slabs: usize) -> Self {
        let grid = problem.state.grid;
        let decomp = Decomposition::slabs(&grid, num_slabs);
        let mono = Simulation::new(problem, gamma, cfl_number);
        let slabs = (0..decomp.num_slabs())
            .map(|i| {
                let lg = decomp.slab_grid(&grid, i);
                let start = decomp.start(i);
                let mut s = State {
                    grid: lg,
                    cells: vec![[0.0; NCOMP]; lg.n_storage()],
                };
                // Local storage column t maps to global storage column
                // start + t (both offsets include the ghost origin).
                for t in 0..lg.sx() {
                    for k in 0..lg.sz() {
                        for j in 0..lg.sy() {
                            s.cells[lg.idx(t, j, k)] = mono.state.cells[grid.idx(start + t, j, k)];
                        }
                    }
                }
                s
            })
            .collect();
        DistributedSimulation {
            grid,
            decomp,
            slabs,
            gamma,
            cfl_number,
            boundary: mono.boundary,
            time: mono.time,
            dt: mono.dt,
            step_count: mono.step_count,
            halo_bytes_exchanged: 0,
        }
    }

    /// Advances one full timestep (three SSP-RK substeps) in lockstep,
    /// mirroring [`Simulation::step`] phase for phase. Returns the applied
    /// `dt`.
    pub fn step(&mut self) -> f64 {
        let dt = self.dt;
        let u_olds: Vec<State> = self.slabs.clone();
        let mut cfl_max = 0.0f64;
        for substep in 0..N_SUBSTEPS {
            // computeChanges per slab, then the CFL all-reduce: the global
            // maximum equals the monolithic reduction bitwise (max is
            // exact and order-free over the same multiset).
            let changes: Vec<_> = self
                .slabs
                .iter()
                .map(|s| compute_changes(s, self.gamma))
                .collect();
            let substep_cfl = changes
                .iter()
                .map(|c| max_reduce(&c.cfl))
                .fold(f64::NEG_INFINITY, f64::max);
            cfl_max = cfl_max.max(substep_cfl);
            for ((slab, u_old), ch) in self.slabs.iter_mut().zip(&u_olds).zip(&changes) {
                integrate_substep(slab, u_old, ch, dt, substep);
            }
            // applyBoundary: halo exchange replaces the x sweep on cuts,
            // then the unchanged local y/z sweeps run per slab.
            self.exchange_halos();
            for slab in &mut self.slabs {
                sweep_y(slab, self.boundary);
            }
            for slab in &mut self.slabs {
                sweep_z(slab, self.boundary);
            }
        }
        self.dt = self.cfl_number / cfl_max;
        self.time += dt;
        self.step_count += 1;
        dt
    }

    /// Runs exactly `n` timesteps.
    pub fn run_steps(&mut self, n: u64) {
        for _ in 0..n {
            self.step();
        }
    }

    /// The x-boundary phase: fills every slab's x ghost columns, either
    /// from a neighbour (full storage planes, the bit-identity invariant)
    /// or the one-sided physical formula at a non-periodic domain face.
    /// Returns the bytes that crossed device cuts.
    pub fn exchange_halos(&mut self) -> u64 {
        let n = self.slabs.len();
        let periodic = self.boundary == BoundaryKind::Periodic;
        let plane_bytes = Decomposition::plane_bytes(&self.grid);

        // Pack phase: snapshot every outgoing halo before any ghost is
        // written, so all copies read pre-exchange values (sources are
        // interior columns, but snapshotting keeps the phases explicit).
        let left_of = |i: usize| {
            if i > 0 {
                Some(i - 1)
            } else if periodic {
                Some(n - 1)
            } else {
                None
            }
        };
        let right_of = |i: usize| {
            if i + 1 < n {
                Some(i + 1)
            } else if periodic {
                Some(0)
            } else {
                None
            }
        };
        let low_in: Vec<Option<(usize, Vec<Cons>)>> = (0..n)
            .map(|i| left_of(i).map(|l| (l, pack_for_right(&self.slabs[l]))))
            .collect();
        let high_in: Vec<Option<(usize, Vec<Cons>)>> = (0..n)
            .map(|i| right_of(i).map(|r| (r, pack_for_left(&self.slabs[r]))))
            .collect();

        let mut bytes = 0u64;
        for (i, (low, high)) in low_in.into_iter().zip(high_in).enumerate() {
            match low {
                Some((src, buf)) => {
                    if src != i {
                        bytes += plane_bytes;
                    }
                    unpack_low(&mut self.slabs[i], &buf);
                }
                None => fill_physical_x_low(&mut self.slabs[i], self.boundary),
            }
            match high {
                Some((src, buf)) => {
                    if src != i {
                        bytes += plane_bytes;
                    }
                    unpack_high(&mut self.slabs[i], &buf);
                }
                None => fill_physical_x_high(&mut self.slabs[i], self.boundary),
            }
        }
        self.halo_bytes_exchanged += bytes;
        bytes
    }

    /// Reassembles the monolithic state: every slab writes its full local
    /// columns into the parent storage (overlapping ghost columns hold
    /// identical values by the exchange invariant).
    pub fn gather(&self) -> State {
        let g = self.grid;
        let mut out = State {
            grid: g,
            cells: vec![[0.0; NCOMP]; g.n_storage()],
        };
        for (i, slab) in self.slabs.iter().enumerate() {
            let lg = slab.grid;
            let start = self.decomp.start(i);
            for t in 0..lg.sx() {
                for k in 0..lg.sz() {
                    for j in 0..lg.sy() {
                        out.cells[g.idx(start + t, j, k)] = slab.cells[lg.idx(t, j, k)];
                    }
                }
            }
        }
        out
    }
}

/// A report of one distributed GPU run: the aggregate measurement plus the
/// share of it spent moving halos (pack/unpack kernels, link transfers,
/// and barrier waits).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DistributedRunReport {
    /// Makespan and total energy across all device queues.
    pub total: Measurement,
    /// Time/energy of the exchange machinery: halo pack/unpack kernels,
    /// link transfers, and barrier idle waits, summed over devices.
    pub exchange: Measurement,
    /// Simulated seconds devices spent waiting at lockstep barriers.
    pub barrier_wait_s: f64,
    /// Bytes that crossed device links.
    pub halo_bytes: u64,
    /// Devices the run actually used (fewer than requested after a link
    /// fallback).
    pub devices_used: usize,
    /// Link-fallback events: a lost link forced the run to degrade to the
    /// single-device stream.
    pub link_fallbacks: u64,
}

/// The multi-device GPU workload driver: prices the decomposed Algorithm-1
/// loop on N [`SynergyQueue`]s in lockstep. With one device the submitted
/// stream is identical to [`crate::sim::GpuCronos::run`] — no barriers, no
/// transfers — so the measurement is bit-identical.
///
/// The slabs always form a periodic ring (the Orszag–Tang-style
/// workload): with more than one device, every cut crosses a link, the
/// wrap between the last slab and the first included. The CPU
/// [`DistributedSimulation`] runs every [`BoundaryKind`].
#[derive(Debug, Clone, Copy)]
pub struct DistributedGpuCronos {
    /// Parent grid the slabs are cut from.
    pub grid: Grid,
    /// Timesteps per measured run.
    pub steps: u64,
}

impl DistributedGpuCronos {
    /// A distributed GPU workload of `steps` timesteps on `grid`.
    ///
    /// # Panics
    /// Panics if `steps == 0`.
    pub fn new(grid: Grid, steps: u64) -> Self {
        assert!(steps > 0, "need at least one timestep");
        DistributedGpuCronos { grid, steps }
    }

    /// The largest device count this grid supports.
    pub fn max_devices(&self) -> usize {
        Decomposition::max_slabs(&self.grid)
    }

    /// Runs the decomposed loop over `queues` (one device per queue) and
    /// returns the aggregate report.
    ///
    /// # Panics
    /// Panics if `queues` is empty, oversubscribes the grid, or a
    /// submission fails permanently — use
    /// [`DistributedGpuCronos::try_run`] or
    /// [`DistributedGpuCronos::run_resilient`] to handle link loss.
    pub fn run(&self, queues: &mut [SynergyQueue]) -> DistributedRunReport {
        self.try_run(queues)
            .unwrap_or_else(|e| panic!("{e} (use try_run or run_resilient to handle this)"))
    }

    /// Fallible [`DistributedGpuCronos::run`].
    pub fn try_run(
        &self,
        queues: &mut [SynergyQueue],
    ) -> Result<DistributedRunReport, SubmitError> {
        assert!(!queues.is_empty(), "need at least one device queue");
        let n = queues.len();
        assert!(
            n <= self.max_devices(),
            "{n} devices oversubscribe nx = {}",
            self.grid.nx
        );
        let decomp = Decomposition::slabs(&self.grid, n);

        // Per-device kernel sets: the four substep kernels for the slab,
        // plus halo pack/unpack sized by the device's remote sends. The
        // ring wraps, so in a ring of more than one every slab sends to
        // both neighbours; a ring of one sends nothing.
        let sends: usize = if n > 1 { 2 } else { 0 };
        let send_bytes = sends as u64 * Decomposition::plane_bytes(&self.grid);
        let mut sub_kernels = Vec::with_capacity(n);
        let mut halo = Vec::with_capacity(n);
        for i in 0..n {
            let lg = decomp.slab_grid(&self.grid, i);
            sub_kernels.push(substep_kernels(&lg));
            halo.push((sends > 0).then(|| halo_kernels(&lg, sends)));
        }

        let t0: Vec<f64> = queues.iter().map(|q| q.total_time_s()).collect();
        let e0: Vec<f64> = queues.iter().map(|q| q.total_energy_j()).collect();
        let mut exchange_time_s = 0.0;
        let mut exchange_energy_j = 0.0;
        let mut barrier_wait_s = 0.0;
        let mut halo_bytes = 0u64;

        // Lockstep barrier: pad every laggard up to the slowest device's
        // cumulative run time with priced idle waits.
        let barrier = |queues: &mut [SynergyQueue],
                       exchange_time_s: &mut f64,
                       exchange_energy_j: &mut f64,
                       barrier_wait_s: &mut f64| {
            if queues.len() < 2 {
                return;
            }
            let now: Vec<f64> = queues
                .iter()
                .zip(&t0)
                .map(|(q, t)| q.total_time_s() - t)
                .collect();
            let t_max = now.iter().fold(f64::NEG_INFINITY, |a, &b| a.max(b));
            for (q, t) in queues.iter_mut().zip(&now) {
                let wait = t_max - t;
                if wait > 0.0 {
                    let e_before = q.total_energy_j();
                    q.idle_wait(wait);
                    *exchange_time_s += wait;
                    *exchange_energy_j += q.total_energy_j() - e_before;
                    *barrier_wait_s += wait;
                }
            }
        };

        for _step in 0..self.steps {
            for _substep in 0..N_SUBSTEPS {
                // computeChanges + CFL reduction per device, then the
                // all-reduce barrier.
                for (q, ks) in queues.iter_mut().zip(&sub_kernels) {
                    q.try_submit(&ks[0]).map(drop)?;
                    q.try_submit(&ks[1]).map(drop)?;
                }
                barrier(
                    queues,
                    &mut exchange_time_s,
                    &mut exchange_energy_j,
                    &mut barrier_wait_s,
                );
                // integrateTime, then the halo exchange on devices with
                // remote cuts, then the local boundary kernel.
                for i in 0..n {
                    let q = &mut queues[i];
                    q.try_submit(&sub_kernels[i][2]).map(drop)?;
                    if let Some((pack, unpack)) = &halo[i] {
                        let te0 = q.total_time_s();
                        let ee0 = q.total_energy_j();
                        q.try_submit(pack).map(drop)?;
                        q.try_submit_transfer(send_bytes)?;
                        q.try_submit(unpack).map(drop)?;
                        exchange_time_s += q.total_time_s() - te0;
                        exchange_energy_j += q.total_energy_j() - ee0;
                        halo_bytes += send_bytes;
                    }
                    q.try_submit(&sub_kernels[i][3]).map(drop)?;
                }
            }
        }
        // End-of-run barrier: the job finishes when the slowest device
        // does; the others burn idle power until then.
        barrier(
            queues,
            &mut exchange_time_s,
            &mut exchange_energy_j,
            &mut barrier_wait_s,
        );

        let time_s = queues
            .iter()
            .zip(&t0)
            .map(|(q, t)| q.total_time_s() - t)
            .fold(f64::NEG_INFINITY, f64::max);
        let energy_j = queues
            .iter()
            .zip(&e0)
            .map(|(q, e)| q.total_energy_j() - e)
            .sum();
        Ok(DistributedRunReport {
            total: Measurement { time_s, energy_j },
            exchange: Measurement {
                time_s: exchange_time_s,
                energy_j: exchange_energy_j,
            },
            barrier_wait_s,
            halo_bytes,
            devices_used: n,
            link_fallbacks: 0,
        })
    }

    /// Runs the decomposed loop, degrading to the single-device stream on
    /// queue 0 if a link is lost mid-run: the partial distributed work is
    /// kept on the books (it was really spent), the whole job re-runs
    /// monolithically, and the fallback is audited in the report — never a
    /// panic, never a silently wrong measurement.
    ///
    /// # Panics
    /// Panics only if the single-device fallback itself fails permanently.
    pub fn run_resilient(&self, queues: &mut [SynergyQueue]) -> DistributedRunReport {
        let t0: Vec<f64> = queues.iter().map(|q| q.total_time_s()).collect();
        let e0: Vec<f64> = queues.iter().map(|q| q.total_energy_j()).collect();
        match self.try_run(queues) {
            Ok(report) => report,
            Err(_lost) => {
                // Degrade: the remaining devices idle while queue 0 redoes
                // the whole job monolithically. The fallback is audited on
                // the absorbing queue's degradation counters.
                queues[0].note_link_fallback();
                let mono = crate::sim::GpuCronos::new(self.grid, self.steps);
                mono.run(&mut queues[0]);
                let t_max = queues
                    .iter()
                    .zip(&t0)
                    .map(|(q, t)| q.total_time_s() - t)
                    .fold(f64::NEG_INFINITY, f64::max);
                for (q, t) in queues.iter_mut().zip(&t0) {
                    let wait = t_max - (q.total_time_s() - t);
                    if wait > 0.0 {
                        q.idle_wait(wait);
                    }
                }
                let energy_j = queues
                    .iter()
                    .zip(&e0)
                    .map(|(q, e)| q.total_energy_j() - e)
                    .sum();
                DistributedRunReport {
                    total: Measurement {
                        time_s: t_max,
                        energy_j,
                    },
                    exchange: Measurement {
                        time_s: 0.0,
                        energy_j: 0.0,
                    },
                    barrier_wait_s: 0.0,
                    halo_bytes: 0,
                    devices_used: 1,
                    link_fallbacks: 1,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eos::GAMMA;
    use crate::problems;
    use gpu_sim::{Device, DeviceSpec};

    fn assert_states_bitwise(a: &State, b: &State) {
        assert_eq!(a.grid.nx, b.grid.nx);
        assert_eq!(a.cells.len(), b.cells.len());
        for (ca, cb) in a.cells.iter().zip(&b.cells) {
            for c in 0..NCOMP {
                assert_eq!(ca[c].to_bits(), cb[c].to_bits());
            }
        }
    }

    #[test]
    fn slab_widths_sum_to_nx_and_respect_nghost() {
        let g = Grid::cubic(17, 4, 4);
        for n in 1..=Decomposition::max_slabs(&g) {
            let d = Decomposition::slabs(&g, n);
            let total: usize = (0..d.num_slabs()).map(|i| d.width(i)).sum();
            assert_eq!(total, g.nx);
            for i in 0..d.num_slabs() {
                assert!(d.width(i) >= NGHOST);
            }
            // Starts are the prefix sums of the widths.
            for i in 1..d.num_slabs() {
                assert_eq!(d.start(i), d.start(i - 1) + d.width(i - 1));
            }
        }
    }

    #[test]
    #[should_panic(expected = "thinner than NGHOST")]
    fn oversubscription_is_rejected() {
        let g = Grid::cubic(8, 4, 4);
        let _ = Decomposition::slabs(&g, 5);
    }

    #[test]
    fn decomposed_periodic_step_is_bit_identical() {
        let g = Grid::cubic(12, 6, 6);
        for n in [1, 2, 3, 4] {
            let mut mono = Simulation::new(problems::orszag_tang(g), GAMMA, 0.4);
            let mut dist = DistributedSimulation::new(problems::orszag_tang(g), GAMMA, 0.4, n);
            assert_eq!(dist.dt.to_bits(), mono.dt.to_bits());
            mono.run_steps(4);
            dist.run_steps(4);
            assert_eq!(dist.dt.to_bits(), mono.dt.to_bits(), "n = {n}");
            assert_eq!(dist.time.to_bits(), mono.time.to_bits());
            assert_eq!(dist.step_count, mono.step_count);
            assert_states_bitwise(&dist.gather(), &mono.state);
        }
    }

    #[test]
    fn decomposed_outflow_step_is_bit_identical() {
        let g = Grid::cubic(14, 6, 6);
        for n in [2, 3, 5] {
            let mut mono = Simulation::new(problems::mhd_blast(g), GAMMA, 0.4);
            let mut dist = DistributedSimulation::new(problems::mhd_blast(g), GAMMA, 0.4, n);
            mono.run_steps(4);
            dist.run_steps(4);
            assert_eq!(dist.dt.to_bits(), mono.dt.to_bits(), "n = {n}");
            assert_states_bitwise(&dist.gather(), &mono.state);
        }
    }

    #[test]
    fn decomposed_reflecting_step_is_bit_identical() {
        let g = Grid::cubic(12, 6, 6);
        let mut problem = problems::mhd_blast(g);
        problem.boundary = BoundaryKind::Reflecting;
        let mut mono = Simulation::new(problem.clone(), GAMMA, 0.4);
        let mut dist = DistributedSimulation::new(problem, GAMMA, 0.4, 3);
        mono.run_steps(3);
        dist.run_steps(3);
        assert_states_bitwise(&dist.gather(), &mono.state);
    }

    #[test]
    fn uneven_slab_split_stays_bit_identical() {
        // 13 over 3 slabs: widths 5, 4, 4.
        let g = Grid::cubic(13, 4, 4);
        let mut mono = Simulation::new(problems::orszag_tang(g), GAMMA, 0.3);
        let mut dist = DistributedSimulation::new(problems::orszag_tang(g), GAMMA, 0.3, 3);
        mono.run_steps(3);
        dist.run_steps(3);
        assert_states_bitwise(&dist.gather(), &mono.state);
    }

    #[test]
    fn halo_byte_accounting_matches_geometry() {
        let g = Grid::cubic(12, 6, 6);
        let plane = Decomposition::plane_bytes(&g);
        assert_eq!(plane as usize, NGHOST * g.sy() * g.sz() * NCOMP * 8);

        // One periodic slab: the wrap is local, nothing crosses a link.
        let mut solo = DistributedSimulation::new(problems::orszag_tang(g), GAMMA, 0.4, 1);
        solo.step();
        assert_eq!(solo.halo_bytes_exchanged, 0);

        // Three periodic slabs: 3 cuts × 2 directions, per substep.
        let mut trio = DistributedSimulation::new(problems::orszag_tang(g), GAMMA, 0.4, 3);
        trio.step();
        assert_eq!(trio.halo_bytes_exchanged, N_SUBSTEPS as u64 * 3 * 2 * plane);

        // Outflow drops the wrap cut.
        let mut blast = DistributedSimulation::new(problems::mhd_blast(g), GAMMA, 0.4, 3);
        blast.step();
        assert_eq!(
            blast.halo_bytes_exchanged,
            N_SUBSTEPS as u64 * 2 * 2 * plane
        );
    }

    #[test]
    fn single_device_gpu_run_matches_gpu_cronos_bitwise() {
        let g = Grid::cubic(20, 8, 8);
        let mono = crate::sim::GpuCronos::new(g, 4);
        let mut q_mono = SynergyQueue::nvidia(Device::new(DeviceSpec::v100()));
        let m_mono = mono.run(&mut q_mono);

        let dist = DistributedGpuCronos::new(g, 4);
        let mut qs = vec![SynergyQueue::nvidia(Device::new(DeviceSpec::v100()))];
        let report = dist.run(&mut qs);
        assert_eq!(report.total.time_s.to_bits(), m_mono.time_s.to_bits());
        assert_eq!(report.total.energy_j.to_bits(), m_mono.energy_j.to_bits());
        assert_eq!(qs[0].submission_count(), q_mono.submission_count());
        assert_eq!(report.halo_bytes, 0);
        assert_eq!(report.exchange.energy_j, 0.0);
        assert_eq!(report.barrier_wait_s, 0.0);
    }

    #[test]
    fn multi_device_run_prices_exchange_and_shrinks_makespan() {
        let g = Grid::cubic(64, 32, 32);
        let dist = DistributedGpuCronos::new(g, 2);
        let mut q1 = vec![SynergyQueue::nvidia(Device::new(DeviceSpec::v100()))];
        let r1 = dist.run(&mut q1);
        let mut q4: Vec<_> = (0..4)
            .map(|_| SynergyQueue::nvidia(Device::new(DeviceSpec::v100())))
            .collect();
        let r4 = dist.run(&mut q4);
        assert!(
            r4.total.time_s < r1.total.time_s,
            "4 devices must be faster"
        );
        assert!(r4.halo_bytes > 0);
        assert!(r4.exchange.energy_j > 0.0);
        assert_eq!(
            r4.halo_bytes,
            dist.steps * N_SUBSTEPS as u64 * 4 * 2 * Decomposition::plane_bytes(&g)
        );
    }

    #[test]
    fn halo_energy_share_grows_as_subdomains_shrink() {
        let g = Grid::cubic(48, 16, 16);
        let dist = DistributedGpuCronos::new(g, 2);
        let mut prev_share = -1.0;
        for n in [1usize, 2, 4, 8] {
            let mut qs: Vec<_> = (0..n)
                .map(|_| SynergyQueue::nvidia(Device::new(DeviceSpec::v100())))
                .collect();
            let r = dist.run(&mut qs);
            let share = r.exchange.energy_j / r.total.energy_j;
            assert!(
                share > prev_share,
                "halo share must grow with device count: {share} at n = {n}"
            );
            prev_share = share;
        }
    }
}
