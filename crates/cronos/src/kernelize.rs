//! GPU kernel profiles for the solver phases.
//!
//! The SYCL port of CRONOS submits four kernels per substep; this module
//! derives a [`KernelProfile`] for each from the grid geometry and the
//! discretization formulas, so the simulated GPU sees the same *shape* of
//! work the real device would:
//!
//! | kernel            | work items            | character                |
//! |-------------------|-----------------------|--------------------------|
//! | `compute_changes` | `nx·ny·nz`            | 13-pt stencil, memory-bound at stock clocks (≈5 issue-cycles/DRAM byte) |
//! | `reduce_cfl`      | `nx·ny·nz`            | streaming max-reduction  |
//! | `integrate_time`  | `nx·ny·nz`            | pure streaming update    |
//! | `apply_boundary`  | surface cells only    | tiny copy kernel         |
//!
//! Per-cell operation counts are derived by counting the arithmetic in
//! [`crate::stencil`]/[`crate::flux`] (reconstruction + 6 Rusanov faces ≈
//! 1.5 kflop) and the DRAM traffic from the array accesses with a 13-point
//! stencil's imperfect cache reuse (≈4 of the 13 neighbour reads miss, plus
//! the change/CFL writes). These constants make the stencil's arithmetic
//! intensity land where measured MHD stencils land on V100-class parts —
//! memory-bound at the default clock with a compute crossover near 500 MHz
//! — which is the behaviour the paper's Cronos characterization shows.

use gpu_sim::kernel::{KernelProfile, OpMix};

use crate::grid::{Grid, NGHOST};

/// Kernel name constants (used by per-kernel frequency policies).
pub mod names {
    /// The 13-point stencil kernel.
    pub const COMPUTE_CHANGES: &str = "cronos::compute_changes";
    /// The CFL max-reduction kernel.
    pub const REDUCE_CFL: &str = "cronos::reduce_cfl";
    /// The per-cell integration kernel.
    pub const INTEGRATE_TIME: &str = "cronos::integrate_time";
    /// The ghost-layer boundary kernel.
    pub const APPLY_BOUNDARY: &str = "cronos::apply_boundary";
    /// The halo pack kernel (stages outgoing x-face planes).
    pub const PACK_HALO: &str = "cronos::pack_halo";
    /// The halo unpack kernel (scatters received planes into ghosts).
    pub const UNPACK_HALO: &str = "cronos::unpack_halo";
}

/// Profile of the `computeChanges` stencil kernel for a grid.
pub fn compute_changes_kernel(grid: &Grid) -> KernelProfile {
    let mix = OpMix {
        // 6 faces × (2 physical fluxes + dissipation) + reconstruction.
        float_add: 760.0,
        float_mul: 700.0,
        float_div: 14.0, // 1/ρ per flux evaluation
        special: 26.0,   // sqrt in sound/fast speeds, 2 per face + CFL
        int_add: 40.0,   // index arithmetic
        int_mul: 12.0,
        // DRAM traffic: 8 comps × 8 B × ~4 effective cell reads (cache
        // captures the rest of the 13-point neighbourhood) + 64 B dU/dt
        // write + 8 B CFL write ≈ 328 B → 82 words.
        global_access: 82.0,
        local_access: 96.0, // stencil tiles staged through shared memory
        ..OpMix::default()
    };
    KernelProfile::new(names::COMPUTE_CHANGES, grid.n_cells() as u64, mix).with_ilp_efficiency(0.78)
}

/// Profile of the CFL max-reduction kernel.
pub fn reduce_cfl_kernel(grid: &Grid) -> KernelProfile {
    let mix = OpMix {
        float_add: 1.0, // max compare
        int_add: 2.0,
        global_access: 2.0, // one 8 B read per cell
        local_access: 4.0,  // tree reduction in shared memory
        ..OpMix::default()
    };
    KernelProfile::new(names::REDUCE_CFL, grid.n_cells() as u64, mix)
}

/// Profile of the `integrateTime` per-cell update kernel.
pub fn integrate_time_kernel(grid: &Grid) -> KernelProfile {
    let mix = OpMix {
        float_add: 16.0, // 8 comps × (axpy + convex blend)
        float_mul: 24.0,
        int_add: 10.0,
        // read state (64 B) + old state (64 B) + dU/dt (64 B) + write (64 B)
        global_access: 64.0,
        ..OpMix::default()
    };
    KernelProfile::new(names::INTEGRATE_TIME, grid.n_cells() as u64, mix).with_ilp_efficiency(0.85)
}

/// Profile of the boundary kernel (touches only the ghost surfaces).
pub fn apply_boundary_kernel(grid: &Grid) -> KernelProfile {
    let (nx, ny, nz) = (grid.nx as u64, grid.ny as u64, grid.nz as u64);
    let g = NGHOST as u64;
    let surface = 2 * g * (nx * ny + ny * nz + nx * nz);
    let mix = OpMix {
        int_add: 12.0, // index wrap arithmetic
        int_bw: 2.0,
        global_access: 32.0, // copy 64 B in + 64 B out
        ..OpMix::default()
    };
    KernelProfile::new(names::APPLY_BOUNDARY, surface.max(1), mix)
}

/// Cells in one directed x-halo message: `NGHOST` full `(j, k)` storage
/// planes (the decomposition exchanges ghost rows too — that is what keeps
/// it bit-identical to the monolithic sweep).
fn halo_cells(grid: &Grid, sends: usize) -> u64 {
    (sends * NGHOST * grid.sy() * grid.sz()).max(1) as u64
}

/// Profile of the halo *pack* kernel: gathers the outgoing x-face planes
/// into a contiguous send buffer. Pure streaming — one 64 B cell read from
/// the strided grid layout, one 64 B write to the dense buffer — so its
/// cost comes from the face area and the memory path, exactly how the
/// decomposition's exchange bytes are priced.
pub fn pack_halo_kernel(grid: &Grid, sends: usize) -> KernelProfile {
    let mix = OpMix {
        int_add: 8.0, // gather index arithmetic
        global_access: 16.0,
        ..OpMix::default()
    };
    KernelProfile::new(names::PACK_HALO, halo_cells(grid, sends), mix)
}

/// Profile of the halo *unpack* kernel: scatters received planes into the
/// ghost columns. Same streaming shape as [`pack_halo_kernel`].
pub fn unpack_halo_kernel(grid: &Grid, sends: usize) -> KernelProfile {
    let mix = OpMix {
        int_add: 8.0, // scatter index arithmetic
        global_access: 16.0,
        ..OpMix::default()
    };
    KernelProfile::new(names::UNPACK_HALO, halo_cells(grid, sends), mix)
}

/// The pack/unpack kernel pair for a slab that sends (and receives) on
/// `sends` remote cuts.
pub fn halo_kernels(grid: &Grid, sends: usize) -> (KernelProfile, KernelProfile) {
    (
        pack_halo_kernel(grid, sends),
        unpack_halo_kernel(grid, sends),
    )
}

/// The *source-level* (static-analysis) view of the four kernels.
///
/// A static analyzer counts load/store instructions in the source; it
/// cannot know that caches capture most of the 13-point neighbourhood or
/// that tiles are staged through shared memory. The stencil therefore
/// appears far more memory-heavy statically (13 cells × 8 components read
/// plus changes/CFL written, ≈ 226 words) than it is dynamically (≈ 82
/// DRAM words). This gap is precisely why the general-purpose model — which
/// consumes these static features — mispredicts the application (§4.1:
/// "the static code features have more weight on computing ability, which
/// leads to … lower prediction accuracy of memory-bound applications").
pub fn static_analysis_kernels(grid: &Grid) -> [KernelProfile; 4] {
    let mut ks = substep_kernels(grid);
    // Stencil: raw neighbourhood loads + writes, no cache, no shared mem.
    ks[0].mix.global_access = 226.0;
    ks[0].mix.local_access = 0.0;
    // Reduce: source reads one value and writes partials.
    ks[1].mix.global_access = 3.0;
    ks[1].mix.local_access = 0.0;
    // Integrate and boundary are streaming copies either way.
    ks[3].mix.local_access = 0.0;
    ks
}

/// The four kernels of one solver substep, in submission order.
pub fn substep_kernels(grid: &Grid) -> [KernelProfile; 4] {
    [
        compute_changes_kernel(grid),
        reduce_cfl_kernel(grid),
        integrate_time_kernel(grid),
        apply_boundary_kernel(grid),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn work_items_match_grid() {
        let g = Grid::cubic(160, 64, 64);
        assert_eq!(compute_changes_kernel(&g).work_items, 160 * 64 * 64);
        assert_eq!(integrate_time_kernel(&g).work_items, 160 * 64 * 64);
        let b = apply_boundary_kernel(&g);
        assert!(b.work_items < compute_changes_kernel(&g).work_items / 4);
    }

    #[test]
    fn stencil_is_memory_bound_at_default_clock() {
        let g = Grid::cubic(160, 64, 64);
        let k = compute_changes_kernel(&g);
        let spec = gpu_sim::DeviceSpec::v100();
        let dev = gpu_sim::Device::new(spec.clone());
        let (t, _) = dev.peek(&k, spec.default_core_mhz);
        assert!(
            t.mem_s > t.comp_s,
            "large-grid stencil must be memory-bound at the stock clock"
        );
    }

    #[test]
    fn stencil_becomes_compute_bound_at_low_clock() {
        let g = Grid::cubic(160, 64, 64);
        let k = compute_changes_kernel(&g);
        let spec = gpu_sim::DeviceSpec::v100();
        let dev = gpu_sim::Device::new(spec.clone());
        let (t, _) = dev.peek(&k, spec.min_core_mhz());
        assert!(t.comp_s > t.mem_s, "at 135 MHz compute must dominate");
    }

    #[test]
    fn integrate_kernel_is_streaming() {
        let g = Grid::cubic(160, 64, 64);
        let k = integrate_time_kernel(&g);
        // Arithmetic intensity well below 1 issue-cycle per byte.
        let cyc = k.mix.issue_cycles();
        let bytes = k.mix.global_bytes();
        assert!(cyc / bytes < 0.5, "integration must be bandwidth-limited");
    }

    #[test]
    fn boundary_work_scales_with_surface() {
        let small = apply_boundary_kernel(&Grid::cubic(10, 4, 4));
        let big = apply_boundary_kernel(&Grid::cubic(20, 8, 8));
        // Surface grows ×4 when linear dims double.
        assert_eq!(big.work_items, small.work_items * 4);
    }

    #[test]
    fn halo_kernels_scale_with_face_area_and_stream() {
        let g = Grid::cubic(64, 16, 16);
        let (pack, unpack) = halo_kernels(&g, 2);
        assert_eq!(pack.work_items, (2 * NGHOST * g.sy() * g.sz()) as u64);
        assert_eq!(pack.work_items, unpack.work_items);
        assert_eq!(halo_kernels(&g, 1).0.work_items * 2, pack.work_items);
        // Halo work is independent of the slab's x extent — it is a face
        // quantity.
        let thin = g.subgrid_x(4);
        assert_eq!(pack_halo_kernel(&thin, 2).work_items, pack.work_items);
        // Streaming: far below one issue-cycle per DRAM byte.
        let cyc = pack.mix.issue_cycles();
        let bytes = pack.mix.global_bytes();
        assert!(cyc / bytes < 0.5, "halo copies must be bandwidth-limited");
    }

    #[test]
    fn substep_order_is_algorithmic() {
        let ks = substep_kernels(&Grid::cubic(8, 8, 8));
        assert_eq!(ks[0].name, names::COMPUTE_CHANGES);
        assert_eq!(ks[1].name, names::REDUCE_CFL);
        assert_eq!(ks[2].name, names::INTEGRATE_TIME);
        assert_eq!(ks[3].name, names::APPLY_BOUNDARY);
    }
}
