//! # cronos — a finite-volume magnetohydrodynamics solver
//!
//! Stand-in for the CRONOS astrophysical MHD code (Kissmann et al. 2018)
//! used as the magnetohydrodynamics case study in the paper. The solver
//! implements Algorithm 1 of the paper literally:
//!
//! ```text
//! grid ← initialise(); grid ← applyBoundary(grid)
//! while currentTime ≤ endTime:
//!     for substep ← 0 to 2:
//!         cflBuf, changeBuf ← computeChanges(grid)   // 13-point stencil
//!         cfl ← reduce(cfl, cflBuf, max)             // parallel reduction
//!         grid ← integrateTime(grid, changeBuf, substep)
//!         grid ← applyBoundary(grid)
//!     timeDelta ← adjustTimestepDelta(timeDelta, cfl)
//!     currentTime += timeDelta
//! ```
//!
//! The numerics are a real second-order finite-volume scheme for ideal MHD:
//! minmod-limited linear reconstruction + Rusanov (local Lax–Friedrichs)
//! fluxes (the 2-cells-per-direction neighbourhood gives exactly the
//! paper's 13-point stencil), SSP-RK3 time integration (the three
//! substeps), and periodic or outflow boundaries. Standard test problems —
//! Brio–Wu, Orszag–Tang, MHD blast, smooth waves — live in [`problems`].
//!
//! For the energy experiments, [`kernelize`] maps each solver phase to a
//! [`gpu_sim::KernelProfile`] whose work-item count and op mix are derived
//! from the discretization formulas, and [`sim::GpuCronos`] drives them
//! through a [`synergy::SynergyQueue`] exactly where the SYCL port of
//! CRONOS submits its kernels.

#![forbid(unsafe_code)]

pub mod boundary;
pub mod decomp;
pub mod eos;
pub mod flux;
pub mod grid;
pub mod integrate;
pub mod kernelize;
pub mod problems;
pub mod reduce;
pub mod sim;
pub mod state;
pub mod stencil;

pub use decomp::{
    Decomposition, DistributedGpuCronos, DistributedRunReport, DistributedSimulation,
};
pub use grid::Grid;
pub use sim::{GpuCronos, Simulation};
pub use state::{Cons, State};
