//! # ligen — a molecular docking and virtual-screening engine
//!
//! Stand-in for the LiGen docking engine of the EXSCALATE drug-discovery
//! platform, the second case study of the paper. The pipeline implements
//! Algorithm 2 of the paper literally:
//!
//! ```text
//! for i ← 0 to num_restart:
//!     pose ← initialize_pose(ligand, i)
//!     pose ← align(pose, target)
//!     for n ← 0 to num_iterations:
//!         for fragment ← pose.fragments:
//!             pose ← optimize(pose, fragment, target)
//!     pose ← evaluate(pose, target)
//!     poses ← poses ∪ pose
//! poses ← clip(sort(poses), max_num_poses)
//! for pose ← poses: scores ← scores ∪ compute_score(pose, target)
//! return max(scores)
//! ```
//!
//! The chemistry model is synthetic but structurally faithful: ligands are
//! bonded atom trees whose rotatable bonds (rotamers) partition the atoms
//! into **fragments** that rotate rigidly about the bond axis — the exact
//! complexity drivers the paper identifies (#ligands, #atoms, #fragments).
//! The protein target is a potential field sampled on a grid; docking is
//! gradient-free fragment-rotation search; scoring sums per-atom field
//! values with an intra-molecular clash penalty.
//!
//! Module map: [`molecule`] (atoms/bonds/rotamers), [`library`] (synthetic
//! chemical library generator), [`protein`] (pocket field), [`pose`]
//! (rigid/rotameric transforms), [`mod@dock`] (Algorithm 2), [`score`],
//! [`screen`] (batch virtual screening, rayon-parallel), and
//! [`kernelize`]/[`screen::GpuLigen`] (GPU kernel profiles and the
//! SYnergy-queue driver for the energy experiments).

#![forbid(unsafe_code)]

pub mod dock;
pub mod kernelize;
pub mod library;
pub mod molecule;
pub mod pose;
pub mod protein;
pub mod score;
pub mod screen;

pub use dock::{dock, DockParams};
pub use library::ChemLibrary;
pub use molecule::Ligand;
pub use protein::Pocket;
pub use screen::{virtual_screening, GpuLigen, ScreenResult};

/// A 3D point/vector in ångströms.
pub type Vec3 = [f64; 3];

/// Vector helpers shared across the crate.
pub mod vec3 {
    use super::Vec3;

    /// `a + b`.
    pub fn add(a: Vec3, b: Vec3) -> Vec3 {
        [a[0] + b[0], a[1] + b[1], a[2] + b[2]]
    }

    /// `a − b`.
    pub fn sub(a: Vec3, b: Vec3) -> Vec3 {
        [a[0] - b[0], a[1] - b[1], a[2] - b[2]]
    }

    /// `k·a`.
    pub fn scale(a: Vec3, k: f64) -> Vec3 {
        [a[0] * k, a[1] * k, a[2] * k]
    }

    /// Dot product.
    pub fn dot(a: Vec3, b: Vec3) -> f64 {
        a[0] * b[0] + a[1] * b[1] + a[2] * b[2]
    }

    /// Cross product.
    pub fn cross(a: Vec3, b: Vec3) -> Vec3 {
        [
            a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0],
        ]
    }

    /// Euclidean norm.
    pub fn norm(a: Vec3) -> f64 {
        dot(a, a).sqrt()
    }

    /// Unit vector along `a`.
    ///
    /// # Panics
    /// Panics on a (near-)zero vector.
    pub fn normalize(a: Vec3) -> Vec3 {
        let n = norm(a);
        assert!(n > 1e-12, "cannot normalize a zero vector");
        scale(a, 1.0 / n)
    }

    /// Rodrigues rotation of `v` about unit `axis` by `angle` radians.
    pub fn rotate_about(v: Vec3, axis: Vec3, angle: f64) -> Vec3 {
        let (s, c) = angle.sin_cos();
        let term1 = scale(v, c);
        let term2 = scale(cross(axis, v), s);
        let term3 = scale(axis, dot(axis, v) * (1.0 - c));
        add(add(term1, term2), term3)
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn rotation_preserves_norm() {
            let v = [1.0, 2.0, 3.0];
            let axis = normalize([0.3, -0.5, 0.8]);
            let r = rotate_about(v, axis, 1.234);
            assert!((norm(r) - norm(v)).abs() < 1e-12);
        }

        #[test]
        fn quarter_turn_about_z() {
            let r = rotate_about(
                [1.0, 0.0, 0.0],
                [0.0, 0.0, 1.0],
                std::f64::consts::FRAC_PI_2,
            );
            assert!((r[0]).abs() < 1e-12);
            assert!((r[1] - 1.0).abs() < 1e-12);
        }

        #[test]
        fn rotation_about_parallel_axis_is_identity() {
            let v = [0.0, 0.0, 2.0];
            let r = rotate_about(v, [0.0, 0.0, 1.0], 0.7);
            for (a, b) in r.iter().zip(&v) {
                assert!((a - b).abs() < 1e-12);
            }
        }

        #[test]
        fn full_turn_is_identity() {
            let v = [1.0, -2.0, 0.5];
            let axis = normalize([1.0, 1.0, 1.0]);
            let r = rotate_about(v, axis, std::f64::consts::TAU);
            for (a, b) in r.iter().zip(&v) {
                assert!((a - b).abs() < 1e-12);
            }
        }
    }
}
