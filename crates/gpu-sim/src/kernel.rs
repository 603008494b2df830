//! Kernel workload descriptors.
//!
//! A [`KernelProfile`] is what an application submits to the simulator: the
//! amount of parallel work and the per-work-item instruction mix. The mix is
//! broken down into exactly the categories the general-purpose energy model
//! of Fan et al. uses as *static code features* (Table 1 of the paper), so
//! the feature extractor in `energy-model` can read them straight off the
//! profile.

use serde::{Deserialize, Serialize};

/// Per-work-item instruction mix, in the Table-1 feature categories.
///
/// Counts are `f64` averages per work item (loops and branches make
/// per-item counts fractional in general).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct OpMix {
    /// Integer additions and subtractions.
    pub int_add: f64,
    /// Integer multiplications.
    pub int_mul: f64,
    /// Integer divisions.
    pub int_div: f64,
    /// Integer bitwise operations.
    pub int_bw: f64,
    /// Floating-point additions and subtractions.
    pub float_add: f64,
    /// Floating-point multiplications.
    pub float_mul: f64,
    /// Floating-point divisions.
    pub float_div: f64,
    /// Special-function operations (sin, cos, exp, sqrt, …).
    pub special: f64,
    /// Global-memory accesses (4-byte words that reach DRAM).
    pub global_access: f64,
    /// Local/shared-memory accesses (4-byte words).
    pub local_access: f64,
}

impl OpMix {
    /// Total arithmetic operations per item (excludes memory accesses).
    pub fn total_arith(&self) -> f64 {
        self.int_add
            + self.int_mul
            + self.int_div
            + self.int_bw
            + self.float_add
            + self.float_mul
            + self.float_div
            + self.special
    }

    /// Floating-point operations per item.
    pub fn total_flops(&self) -> f64 {
        self.float_add + self.float_mul + self.float_div + self.special
    }

    /// DRAM traffic per item in bytes (4 bytes per counted global access).
    pub fn global_bytes(&self) -> f64 {
        self.global_access * 4.0
    }

    /// Issue-cycles per item on one lane, weighting each category by its
    /// reciprocal-throughput cost. These are the costs the timing model
    /// charges; they approximate Volta/CDNA1 per-lane throughputs.
    pub fn issue_cycles(&self) -> f64 {
        self.int_add * 1.0
            + self.int_mul * 2.0
            + self.int_div * 12.0
            + self.int_bw * 1.0
            + self.float_add * 1.0
            + self.float_mul * 1.0
            + self.float_div * 8.0
            + self.special * 4.0
            + self.local_access * 0.5
            // address generation / LSU issue for global accesses
            + self.global_access * 0.35
    }

    /// Arithmetic intensity: arithmetic ops per DRAM byte. `+inf` for a
    /// kernel with no global traffic.
    pub fn arithmetic_intensity(&self) -> f64 {
        let bytes = self.global_bytes();
        if bytes == 0.0 {
            f64::INFINITY
        } else {
            self.total_arith() / bytes
        }
    }

    /// Element-wise sum of two mixes.
    pub fn combine(&self, other: &OpMix) -> OpMix {
        OpMix {
            int_add: self.int_add + other.int_add,
            int_mul: self.int_mul + other.int_mul,
            int_div: self.int_div + other.int_div,
            int_bw: self.int_bw + other.int_bw,
            float_add: self.float_add + other.float_add,
            float_mul: self.float_mul + other.float_mul,
            float_div: self.float_div + other.float_div,
            special: self.special + other.special,
            global_access: self.global_access + other.global_access,
            local_access: self.local_access + other.local_access,
        }
    }

    /// Mix scaled by a constant factor (e.g. iterations of an inner loop).
    pub fn scaled(&self, k: f64) -> OpMix {
        OpMix {
            int_add: self.int_add * k,
            int_mul: self.int_mul * k,
            int_div: self.int_div * k,
            int_bw: self.int_bw * k,
            float_add: self.float_add * k,
            float_mul: self.float_mul * k,
            float_div: self.float_div * k,
            special: self.special * k,
            global_access: self.global_access * k,
            local_access: self.local_access * k,
        }
    }

    /// The mix as the Table-1 feature vector, in table order:
    /// `[int_add, int_mul, int_div, int_bw, float_add, float_mul,
    /// float_div, sf, gl_access, loc_access]`.
    pub fn as_feature_vector(&self) -> [f64; 10] {
        [
            self.int_add,
            self.int_mul,
            self.int_div,
            self.int_bw,
            self.float_add,
            self.float_mul,
            self.float_div,
            self.special,
            self.global_access,
            self.local_access,
        ]
    }
}

/// A complete kernel launch descriptor.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KernelProfile {
    /// Kernel name: keys per-kernel clock policies, the price memo and
    /// fault reports.
    pub name: String,
    /// Number of parallel work items (GPU threads with useful work).
    pub work_items: u64,
    /// Per-item instruction mix.
    pub mix: OpMix,
    /// Fraction of the architectural ILP the kernel's instruction schedule
    /// achieves (1.0 = perfectly unrolled independent streams, as in
    /// micro-benchmarks; real kernels with dependent chains and divergence
    /// land lower). *Invisible to static analysis* — one of the transfer
    /// gaps that limit the general-purpose model on real applications.
    pub ilp_efficiency: f64,
}

impl KernelProfile {
    /// Creates a kernel profile.
    ///
    /// # Panics
    /// Panics if `work_items == 0` — an empty launch is a programming error
    /// in the calling application.
    pub fn new(name: impl Into<String>, work_items: u64, mix: OpMix) -> Self {
        assert!(work_items > 0, "kernel must have at least one work item");
        KernelProfile {
            name: name.into(),
            work_items,
            mix,
            ilp_efficiency: 1.0,
        }
    }

    /// Sets the achieved-ILP fraction (see [`KernelProfile::ilp_efficiency`]).
    ///
    /// # Panics
    /// Panics outside `(0, 1]`.
    pub fn with_ilp_efficiency(mut self, eff: f64) -> Self {
        assert!(eff > 0.0 && eff <= 1.0, "ILP efficiency must be in (0, 1]");
        self.ilp_efficiency = eff;
        self
    }

    /// A purely compute-bound kernel: `flops` FP operations per item split
    /// between adds and muls, negligible memory traffic.
    pub fn compute_bound(name: impl Into<String>, work_items: u64, flops: f64) -> Self {
        KernelProfile::new(
            name,
            work_items,
            OpMix {
                float_add: flops * 0.5,
                float_mul: flops * 0.5,
                global_access: 2.0,
                ..OpMix::default()
            },
        )
    }

    /// A memory-bound streaming kernel: `bytes` DRAM bytes per item with a
    /// token amount of arithmetic.
    pub fn memory_bound(name: impl Into<String>, work_items: u64, bytes: f64) -> Self {
        KernelProfile::new(
            name,
            work_items,
            OpMix {
                float_add: 2.0,
                int_add: 2.0,
                global_access: bytes / 4.0,
                ..OpMix::default()
            },
        )
    }

    /// Total DRAM traffic of the launch in bytes.
    pub fn total_global_bytes(&self) -> f64 {
        self.work_items as f64 * self.mix.global_bytes()
    }

    /// Total floating-point operations of the launch.
    pub fn total_flops(&self) -> f64 {
        self.work_items as f64 * self.mix.total_flops()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn feature_vector_order_matches_table1() {
        let mix = OpMix {
            int_add: 1.0,
            int_mul: 2.0,
            int_div: 3.0,
            int_bw: 4.0,
            float_add: 5.0,
            float_mul: 6.0,
            float_div: 7.0,
            special: 8.0,
            global_access: 9.0,
            local_access: 10.0,
        };
        assert_eq!(
            mix.as_feature_vector(),
            [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
        );
    }

    #[test]
    fn combine_and_scale_are_linear() {
        let a = OpMix {
            float_add: 2.0,
            global_access: 4.0,
            ..OpMix::default()
        };
        let b = a.scaled(3.0);
        assert_eq!(b.float_add, 6.0);
        let c = a.combine(&b);
        assert_eq!(c.global_access, 16.0);
    }

    #[test]
    fn arithmetic_intensity_classifies() {
        let cb = KernelProfile::compute_bound("c", 100, 1000.0);
        let mb = KernelProfile::memory_bound("m", 100, 64.0);
        assert!(cb.mix.arithmetic_intensity() > mb.mix.arithmetic_intensity());
    }

    #[test]
    fn intensity_infinite_without_memory() {
        let mix = OpMix {
            float_add: 1.0,
            ..OpMix::default()
        };
        assert!(mix.arithmetic_intensity().is_infinite());
    }

    #[test]
    #[should_panic(expected = "at least one work item")]
    fn zero_items_panics() {
        let _ = KernelProfile::new("k", 0, OpMix::default());
    }

    #[test]
    fn issue_cycles_positive_for_any_nonzero_mix() {
        let mix = OpMix {
            int_bw: 1.0,
            ..OpMix::default()
        };
        assert!(mix.issue_cycles() > 0.0);
    }
}
