//! Feature spaces: static code features vs domain-specific input features.
//!
//! The general-purpose model sees only **static code features** (Table 1):
//! the instruction-mix composition of the application's kernels. These are
//! properties of the *code*, so they are (by construction) independent of
//! the input — which is exactly the limitation the paper exploits: a model
//! keyed on static features predicts one curve per application, while the
//! true curves move with the workload.
//!
//! The domain-specific models see **input features** (Table 2): Cronos's
//! grid extents and LiGen's (#ligands, #fragments, #atoms).

use gpu_sim::kernel::KernelProfile;
use serde::{Deserialize, Serialize};

use crate::workflow::CRONOS_STEPS;

/// Number of static code features (Table 1).
pub const N_STATIC_FEATURES: usize = 10;

/// Aggregates kernels into the Table-1 static feature vector.
///
/// Per-category op counts are summed over all launches (weighted by work
/// items) and normalized to *fractions of total operations*, making the
/// vector a property of the code's instruction mix rather than of the
/// input size — static analysis cannot know the runtime workload.
///
/// # Panics
/// Panics on an empty kernel list or an all-zero mix.
pub fn static_features(kernels: &[KernelProfile]) -> [f64; N_STATIC_FEATURES] {
    assert!(!kernels.is_empty(), "need at least one kernel");
    let mut totals = [0.0; N_STATIC_FEATURES];
    for k in kernels {
        let v = k.mix.as_feature_vector();
        let w = k.work_items as f64;
        for (t, x) in totals.iter_mut().zip(v) {
            *t += x * w;
        }
    }
    let sum: f64 = totals.iter().sum();
    assert!(sum > 0.0, "kernels have an empty op mix");
    totals.map(|t| t / sum)
}

/// A Cronos input configuration — Table 2 row 1:
/// features `f_grid_x`, `f_grid_y`, `f_grid_z`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CronosInput {
    /// Grid cells along x.
    pub grid_x: usize,
    /// Grid cells along y.
    pub grid_y: usize,
    /// Grid cells along z.
    pub grid_z: usize,
}

impl CronosInput {
    /// Builds the input descriptor.
    pub fn new(grid_x: usize, grid_y: usize, grid_z: usize) -> Self {
        CronosInput {
            grid_x,
            grid_y,
            grid_z,
        }
    }

    /// The paper's five grid configurations (§5.1): 10×4×4 … 160×64×64.
    pub fn paper_configs() -> Vec<CronosInput> {
        vec![
            CronosInput::new(10, 4, 4),
            CronosInput::new(20, 8, 8),
            CronosInput::new(40, 16, 16),
            CronosInput::new(80, 32, 32),
            CronosInput::new(160, 64, 64),
        ]
    }

    /// The feature vector `[grid_x, grid_y, grid_z]`.
    pub fn features(&self) -> Vec<f64> {
        vec![self.grid_x as f64, self.grid_y as f64, self.grid_z as f64]
    }

    /// Display label matching the paper's figures, e.g. `"160x64x64"`.
    pub fn label(&self) -> String {
        format!("{}x{}x{}", self.grid_x, self.grid_y, self.grid_z)
    }

    /// Total cell count.
    pub fn n_cells(&self) -> usize {
        self.grid_x * self.grid_y * self.grid_z
    }

    /// The Cronos run this input stands for: a cubic grid of these extents,
    /// [`CRONOS_STEPS`] time steps.
    pub fn workload(&self) -> cronos::GpuCronos {
        cronos::GpuCronos::new(
            cronos::Grid::cubic(self.grid_x, self.grid_y, self.grid_z),
            CRONOS_STEPS,
        )
    }
}

/// A LiGen input configuration — Table 2 row 2:
/// features `f_ligands`, `f_fragments`, `f_atoms`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct LigenInput {
    /// Number of ligands (`l`).
    pub ligands: usize,
    /// Atoms per ligand (`a`).
    pub atoms: usize,
    /// Fragments per ligand (`f`).
    pub fragments: usize,
}

impl LigenInput {
    /// Builds the input descriptor.
    pub fn new(ligands: usize, atoms: usize, fragments: usize) -> Self {
        LigenInput {
            ligands,
            atoms,
            fragments,
        }
    }

    /// The paper's full experiment grid (§5.1):
    /// `(l, a, f) ∈ {2, 16, 1024, 4096, 10000} × {31, 63, 71, 89} × {4, 8, 16, 20}`.
    pub fn paper_configs() -> Vec<LigenInput> {
        let ligands = [2usize, 16, 1024, 4096, 10000];
        let atoms = [31usize, 63, 71, 89];
        let fragments = [4usize, 8, 16, 20];
        let mut out = Vec::with_capacity(ligands.len() * atoms.len() * fragments.len());
        for &l in &ligands {
            for &a in &atoms {
                for &f in &fragments {
                    out.push(LigenInput::new(l, a, f));
                }
            }
        }
        out
    }

    /// The twelve configurations Figure 13c/d reports:
    /// atoms × fragments × ligands ∈ {31, 89} × {4, 20} × {256, 4096, 10000}.
    ///
    /// (The figure labels use 256; it is the smallest "batch-sized" count.)
    pub fn figure13_configs() -> Vec<LigenInput> {
        let mut out = Vec::new();
        for &a in &[31usize, 89] {
            for &f in &[4usize, 20] {
                for &l in &[256usize, 4096, 10000] {
                    out.push(LigenInput::new(l, a, f));
                }
            }
        }
        out
    }

    /// The feature vector `[ligands, fragments, atoms]` (Table 2 order).
    pub fn features(&self) -> Vec<f64> {
        vec![
            self.ligands as f64,
            self.fragments as f64,
            self.atoms as f64,
        ]
    }

    /// Display label matching Figure 13's x-axis, `atoms x frags x ligands`,
    /// e.g. `"89x20x10000"`.
    pub fn label(&self) -> String {
        format!("{}x{}x{}", self.atoms, self.fragments, self.ligands)
    }

    /// The LiGen batch this input stands for.
    pub fn workload(&self) -> ligen::GpuLigen {
        ligen::GpuLigen::new(
            self.ligands as u64,
            self.atoms as u64,
            self.fragments as u64,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::kernel::OpMix;

    #[test]
    fn static_features_are_fractions() {
        let k = KernelProfile::new(
            "k",
            1000,
            OpMix {
                float_add: 3.0,
                float_mul: 1.0,
                ..Default::default()
            },
        );
        let f = static_features(&[k]);
        assert!((f.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((f[4] - 0.75).abs() < 1e-12);
        assert!((f[5] - 0.25).abs() < 1e-12);
    }

    #[test]
    fn static_features_input_invariant_for_scaled_workloads() {
        // Same code, 100× the work items → identical static features.
        let mix = OpMix {
            float_add: 10.0,
            global_access: 4.0,
            ..Default::default()
        };
        let small = KernelProfile::new("k", 1_000, mix);
        let big = KernelProfile::new("k", 100_000, mix);
        assert_eq!(static_features(&[small]), static_features(&[big]));
    }

    #[test]
    fn static_features_weight_kernels_by_work() {
        let a = KernelProfile::new(
            "a",
            1000,
            OpMix {
                float_add: 1.0,
                ..Default::default()
            },
        );
        let b = KernelProfile::new(
            "b",
            3000,
            OpMix {
                int_add: 1.0,
                ..Default::default()
            },
        );
        let f = static_features(&[a, b]);
        assert!((f[0] - 0.75).abs() < 1e-12, "int_add share");
        assert!((f[4] - 0.25).abs() < 1e-12, "float_add share");
    }

    #[test]
    fn paper_config_counts() {
        assert_eq!(CronosInput::paper_configs().len(), 5);
        assert_eq!(LigenInput::paper_configs().len(), 80);
        assert_eq!(LigenInput::figure13_configs().len(), 12);
    }

    #[test]
    fn labels_match_paper_format() {
        assert_eq!(CronosInput::new(160, 64, 64).label(), "160x64x64");
        assert_eq!(LigenInput::new(10000, 89, 20).label(), "89x20x10000");
    }

    #[test]
    fn cronos_grids_grow_monotonically() {
        let configs = CronosInput::paper_configs();
        for w in configs.windows(2) {
            assert!(w[1].n_cells() > w[0].n_cells());
        }
    }
}
