//! Static device descriptors.
//!
//! A [`DeviceSpec`] captures everything the timing and power models need to
//! know about a GPU. Two presets are provided, matching the hardware used in
//! the paper: [`DeviceSpec::v100`] (NVIDIA V100, 196 core frequencies from
//! 135 MHz to 1597 MHz, four memory frequencies topping at 1107 MHz) and
//! [`DeviceSpec::mi100`] (AMD MI100, whose stock behaviour is an "auto"
//! performance level rather than a fixed default clock).

use serde::{Deserialize, Serialize};

use crate::freq::FrequencyTable;
use crate::link::LinkSpec;

/// GPU vendor, which selects the management API shape (NVML vs ROCm-SMI)
/// and the meaning of the "default" frequency configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Vendor {
    /// NVIDIA: fixed default application clocks, NVML management.
    Nvidia,
    /// AMD: "auto" DVFS performance level by default, ROCm-SMI management.
    Amd,
    /// Intel: frequency-range control through Level Zero sysman; the
    /// default is a firmware governor inside the full range (like AMD's
    /// auto level).
    Intel,
}

/// Parameters of the convex (power-law) voltage/frequency curve. See
/// [`crate::voltage`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct VoltageCurve {
    /// Voltage at the minimum core frequency (V).
    pub v_min: f64,
    /// Voltage at the maximum core frequency (V).
    pub v_max: f64,
    /// Power-law exponent `q` of the normalized curve
    /// `V = v_min + (v_max − v_min)·x^q`; `q > 1` makes the top frequency
    /// bins disproportionately expensive.
    pub exponent: f64,
}

/// A complete static description of a simulated GPU.
///
/// All constants are either public datasheet values (SM counts, bandwidths,
/// TDP, frequency ranges) or calibration constants chosen so that the
/// simulator reproduces the qualitative speedup/energy behaviour reported in
/// the paper (see `DESIGN.md` §2). None of them change at runtime.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceSpec {
    /// Marketing name, e.g. `"NVIDIA V100"`.
    pub name: String,
    /// Vendor (selects management API semantics).
    pub vendor: Vendor,
    /// Number of streaming multiprocessors (NVIDIA) / compute units (AMD).
    pub num_sms: u32,
    /// FP32 lanes per SM/CU.
    pub lanes_per_sm: u32,
    /// Maximum resident threads per SM/CU (architectural limit).
    pub max_threads_per_sm: u32,
    /// Threads per SM at which real kernels saturate throughput (register
    /// and cache pressure stop occupancy well short of the architectural
    /// limit; V100-class stencil/compute kernels plateau near 512).
    pub saturation_threads_per_sm: u32,
    /// Threads per SM at which *power* saturates: once every SM has a
    /// resident block (~128 threads each), the whole chip's clock trees
    /// are lit and additional warps change power only marginally.
    pub power_saturation_threads_per_sm: u32,
    /// Supported core frequencies (MHz), ascending.
    pub core_freqs: FrequencyTable,
    /// Supported memory frequencies (MHz), ascending.
    pub mem_freqs: FrequencyTable,
    /// Default core frequency (MHz). For AMD devices this is the frequency
    /// the "auto" governor converges to under load; the ROCm layer exposes
    /// it as the auto performance level rather than a settable clock.
    pub default_core_mhz: f64,
    /// Peak DRAM bandwidth at the default memory clock (GB/s).
    pub mem_bandwidth_gbs: f64,
    /// Idle (static + leakage + fan) power in watts.
    pub idle_power_w: f64,
    /// Maximum core dynamic power at `v_max`/`f_max`, full activity (W).
    pub core_power_w: f64,
    /// Maximum memory subsystem power at full bandwidth utilization (W).
    pub mem_power_w: f64,
    /// Board power limit (W): when demand exceeds it the firmware throttles
    /// the effective core clock until the launch fits (see
    /// [`crate::power::resolve_power_cap`]); an operator power cap below
    /// TDP tightens the same loop.
    pub tdp_w: f64,
    /// Voltage/frequency curve parameters.
    pub voltage: VoltageCurve,
    /// Fixed kernel launch overhead (seconds). Host→device submission cost.
    pub launch_overhead_s: f64,
    /// Pipeline fill/drain depth in core cycles; contributes `depth / f`
    /// of latency to every kernel. Dominates tiny-workload kernels.
    pub pipeline_depth_cycles: f64,
    /// Instruction-level parallelism factor of a single lane (dual-issue…).
    pub ilp: f64,
    /// Fraction of core dynamic power burnt even when compute pipes stall on
    /// memory (imperfect clock gating). Higher values make core
    /// down-clocking more profitable for memory-bound kernels.
    pub clock_gating_floor: f64,
    /// Fraction of core dynamic power modulated by launch occupancy; the
    /// remainder (global clock distribution, L2, schedulers) switches
    /// whenever any kernel runs, regardless of how full the chip is.
    pub occ_amplitude: f64,
    /// Fraction of memory power burnt regardless of achieved bandwidth.
    pub mem_power_floor: f64,
    /// Fraction of `min(T_comp, T_mem)` that fails to overlap with the
    /// dominant phase (0 = perfect overlap).
    pub overlap_penalty: f64,
    /// Peer-to-peer interconnect port (see [`crate::link`]). Defaults to
    /// an NVLink2-class link so specs serialized before this field existed
    /// keep loading.
    #[serde(default)]
    pub link: LinkSpec,
}

impl DeviceSpec {
    /// The NVIDIA V100 (SXM2 32 GB) descriptor used throughout the paper.
    ///
    /// 80 SMs × 64 FP32 lanes, 900 GB/s HBM2 at the stock 1107 MHz memory
    /// clock (three lower bins are settable for the configuration
    /// lattice), 196 supported core frequencies from 135 to 1597 MHz
    /// (matching §5.1 of the paper), 300 W TDP. The paper's "default
    /// configuration" is the stock application clock, 1312 MHz.
    pub fn v100() -> Self {
        let core_freqs = FrequencyTable::linspace(135.0, 1597.0, 196);
        // Snap the stock application clock onto the supported table so the
        // "default configuration" is itself a settable frequency.
        let default_core_mhz = core_freqs.snap(1312.0);
        DeviceSpec {
            name: "NVIDIA V100".to_string(),
            vendor: Vendor::Nvidia,
            num_sms: 80,
            lanes_per_sm: 64,
            max_threads_per_sm: 2048,
            saturation_threads_per_sm: 512,
            power_saturation_threads_per_sm: 128,
            core_freqs,
            // NVML on a V100 reports four application memory clocks; the
            // stock (and default) configuration is the top one, 1107 MHz.
            mem_freqs: FrequencyTable::new(vec![703.0, 810.0, 958.0, 1107.0]),
            default_core_mhz,
            mem_bandwidth_gbs: 900.0,
            idle_power_w: 30.0,
            core_power_w: 260.0,
            mem_power_w: 55.0,
            tdp_w: 300.0,
            voltage: VoltageCurve {
                v_min: 0.64,
                v_max: 1.06,
                exponent: 5.0,
            },
            launch_overhead_s: 6.0e-6,
            pipeline_depth_cycles: 700.0,
            ilp: 1.8,
            clock_gating_floor: 0.42,
            occ_amplitude: 0.65,
            mem_power_floor: 0.25,
            overlap_penalty: 0.15,
            link: LinkSpec::nvlink2(),
        }
    }

    /// The AMD MI100 descriptor used in the paper.
    ///
    /// 120 CUs × 64 lanes, 1228 GB/s HBM2. ROCm-SMI exposes a frequency
    /// *range* rather than NVML-style application clocks; we model 121
    /// settable core frequencies from 300 to 1500 MHz plus the stock
    /// "auto" performance level, which under load converges near the top of
    /// the range (the paper observes the auto setting sits close to the
    /// highest achievable speedup).
    pub fn mi100() -> Self {
        DeviceSpec {
            name: "AMD MI100".to_string(),
            vendor: Vendor::Amd,
            num_sms: 120,
            lanes_per_sm: 64,
            max_threads_per_sm: 2560,
            saturation_threads_per_sm: 512,
            power_saturation_threads_per_sm: 128,
            core_freqs: FrequencyTable::linspace(300.0, 1500.0, 121),
            // ROCm-SMI exposes three memory performance levels on MI100;
            // the auto governor parks at the top one under load.
            mem_freqs: FrequencyTable::new(vec![800.0, 1000.0, 1200.0]),
            default_core_mhz: 1450.0,
            mem_bandwidth_gbs: 1228.8,
            idle_power_w: 35.0,
            core_power_w: 265.0,
            mem_power_w: 60.0,
            tdp_w: 300.0,
            voltage: VoltageCurve {
                v_min: 0.66,
                v_max: 1.10,
                exponent: 5.0,
            },
            launch_overhead_s: 8.0e-6,
            pipeline_depth_cycles: 900.0,
            ilp: 1.6,
            clock_gating_floor: 0.40,
            occ_amplitude: 0.65,
            mem_power_floor: 0.25,
            overlap_penalty: 0.18,
            link: LinkSpec::xgmi(),
        }
    }

    /// The Intel Data Center GPU Max 1100 (Ponte Vecchio) descriptor.
    ///
    /// Not part of the paper's evaluation, but SYnergy's portability story
    /// (§2.1) covers Intel through Level Zero; the substrate supports it so
    /// the portable layer can be exercised across all three vendors.
    /// 56 Xe cores × 128 lanes, 1229 GB/s HBM2e, 300 W, frequency range
    /// 300–1550 MHz in 50 MHz bins with a firmware governor by default.
    pub fn max1100() -> Self {
        DeviceSpec {
            name: "Intel Max 1100".to_string(),
            vendor: Vendor::Intel,
            num_sms: 56,
            lanes_per_sm: 128,
            max_threads_per_sm: 4096,
            saturation_threads_per_sm: 1024,
            power_saturation_threads_per_sm: 256,
            core_freqs: FrequencyTable::linspace(300.0, 1550.0, 26),
            // HBM2e stacks on PVC support three memory frequency bins.
            mem_freqs: FrequencyTable::new(vec![1046.0, 1305.0, 1565.0]),
            default_core_mhz: 1450.0,
            mem_bandwidth_gbs: 1228.8,
            idle_power_w: 38.0,
            core_power_w: 255.0,
            mem_power_w: 62.0,
            tdp_w: 300.0,
            voltage: VoltageCurve {
                v_min: 0.65,
                v_max: 1.05,
                exponent: 5.0,
            },
            launch_overhead_s: 7.0e-6,
            pipeline_depth_cycles: 800.0,
            ilp: 1.7,
            clock_gating_floor: 0.40,
            occ_amplitude: 0.65,
            mem_power_floor: 0.25,
            overlap_penalty: 0.16,
            link: LinkSpec::xelink(),
        }
    }

    /// Maximum supported core frequency in MHz.
    pub fn max_core_mhz(&self) -> f64 {
        self.core_freqs.max()
    }

    /// Minimum supported core frequency in MHz.
    pub fn min_core_mhz(&self) -> f64 {
        self.core_freqs.min()
    }

    /// Total FP32 lanes on the device.
    pub fn total_lanes(&self) -> f64 {
        f64::from(self.num_sms) * f64::from(self.lanes_per_sm)
    }

    /// Device-wide thread count at which throughput saturates — the
    /// occupancy reference the timing model divides by.
    pub fn saturation_threads(&self) -> f64 {
        f64::from(self.num_sms) * f64::from(self.saturation_threads_per_sm)
    }

    /// Device-wide thread count at which power saturates — the occupancy
    /// reference the power model divides by.
    pub fn power_saturation_threads(&self) -> f64 {
        f64::from(self.num_sms) * f64::from(self.power_saturation_threads_per_sm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn v100_has_196_core_frequencies() {
        let spec = DeviceSpec::v100();
        assert_eq!(spec.core_freqs.len(), 196);
        assert!((spec.core_freqs.min() - 135.0).abs() < 1e-9);
        assert!((spec.core_freqs.max() - 1597.0).abs() < 1e-9);
    }

    #[test]
    fn v100_memory_frequency_lattice() {
        let spec = DeviceSpec::v100();
        assert_eq!(spec.mem_freqs.len(), 4);
        assert!((spec.mem_freqs.min() - 703.0).abs() < 1e-9);
        // The *top* memory clock stays 1107 MHz — it is the default
        // configuration, so single-point sweeps remain bit-identical.
        assert!((spec.mem_freqs.max() - 1107.0).abs() < 1e-9);
    }

    #[test]
    fn every_vendor_has_a_memory_clock_axis() {
        for spec in [
            DeviceSpec::v100(),
            DeviceSpec::mi100(),
            DeviceSpec::max1100(),
        ] {
            assert!(spec.mem_freqs.len() >= 2, "{} has no mem axis", spec.name);
        }
    }

    #[test]
    fn default_clock_is_supported_or_within_range() {
        for spec in [DeviceSpec::v100(), DeviceSpec::mi100()] {
            assert!(spec.default_core_mhz >= spec.min_core_mhz());
            assert!(spec.default_core_mhz <= spec.max_core_mhz());
        }
    }

    #[test]
    fn tdp_caps_the_component_sum() {
        // The component maxima can nominally exceed the board limit (they
        // never all saturate at once); the firmware throttle loop
        // ([`crate::power::resolve_power_cap`]) holds the line.
        for spec in [DeviceSpec::v100(), DeviceSpec::mi100()] {
            let sum = spec.idle_power_w + spec.core_power_w + spec.mem_power_w;
            assert!(sum >= spec.tdp_w, "components must be able to reach TDP");
            assert!((290.0..=310.0).contains(&spec.tdp_w));
        }
    }

    #[test]
    fn vendors_differ() {
        assert_eq!(DeviceSpec::v100().vendor, Vendor::Nvidia);
        assert_eq!(DeviceSpec::mi100().vendor, Vendor::Amd);
    }

    #[test]
    fn every_vendor_has_an_interconnect_port() {
        for spec in [
            DeviceSpec::v100(),
            DeviceSpec::mi100(),
            DeviceSpec::max1100(),
        ] {
            assert!(spec.link.peak_gbs > 0.0, "{} has no link", spec.name);
            assert!(spec.link.latency_s > 0.0);
            assert!(
                spec.link.peak_gbs < spec.mem_bandwidth_gbs,
                "interconnect must be slower than local DRAM"
            );
        }
        assert_eq!(DeviceSpec::v100().link, LinkSpec::nvlink2());
        assert_eq!(DeviceSpec::mi100().link, LinkSpec::xgmi());
    }
}
