//! # gpu-sim — an analytical DVFS GPU simulator
//!
//! This crate is the hardware substrate for the reproduction of
//! *"Domain-Specific Energy Modeling for Drug Discovery and
//! Magnetohydrodynamics Applications"* (SC-W 2023). The paper measures real
//! NVIDIA V100 and AMD MI100 GPUs through NVML and ROCm-SMI; this crate
//! replaces them with an analytical simulator that reproduces the *mechanics*
//! that drive every result in the paper:
//!
//! * **Roofline execution time** — a kernel's duration is the maximum of its
//!   compute time (∝ 1/f_core) and its memory time (independent of the core
//!   clock), plus launch overhead and pipeline latency. Memory-bound kernels
//!   therefore tolerate core down-clocking with near-zero slowdown, while
//!   compute-bound kernels slow down proportionally.
//! * **CMOS power** — dynamic power scales with `V(f)² · f`, with an idle
//!   floor and a memory-subsystem term. Down-clocking below the voltage knee
//!   stops paying back, which produces the energy-minimum frequencies and the
//!   Pareto knees seen in the paper's characterization figures.
//! * **Occupancy** — small workloads under-utilize the device, so both time
//!   and power become dominated by fixed costs; this is what makes the
//!   energy-optimal frequency *input-dependent*, the paper's key observation.
//!
//! The programming interface mirrors the structure of the real stack:
//! [`nvml`] is an NVML-like management API, [`rocm`] a ROCm-SMI-like one
//! (the MI100 runs at its "auto" performance level), [`level_zero`] a
//! Level-Zero-like one, and [`device::Device`] is the execution engine all
//! three wrap. A core clock is chosen per launch ([`Device::launch_at`]).
//!
//! Everything is deterministic. Optional measurement noise flows through a
//! seeded ChaCha RNG ([`noise`]); optional management-API faults (clock
//! rejections, thermal throttling, counter wraps, dropped launches) flow
//! through a seedable [`faults::FaultPlan`].
//!
//! ```
//! use gpu_sim::{device::Device, spec::DeviceSpec, kernel::KernelProfile};
//!
//! let mut dev = Device::new(DeviceSpec::v100());
//! let k = KernelProfile::compute_bound("saxpy", 1 << 20, 64.0);
//! let rec = dev.launch(&k).expect("fault-free device");
//! assert!(rec.time_s > 0.0 && rec.energy_j > 0.0);
//! ```

#![forbid(unsafe_code)]

pub mod device;
pub mod faults;
pub mod freq;
pub mod kernel;
pub mod level_zero;
pub mod link;
pub mod noise;
pub mod nvml;
pub mod power;
pub mod pricing;
pub mod rocm;
pub mod spec;
pub mod timing;
pub mod voltage;

pub use device::{Device, LaunchRecord};
pub use faults::{substream_seed, FaultError, FaultPlan, FaultState, Schedule, ThrottleWindow};
pub use kernel::{KernelProfile, OpMix};
pub use link::{LinkSpec, TransferRecord};
pub use pricing::PriceTable;
pub use spec::{DeviceSpec, Vendor};

/// Convenience prelude bringing the most commonly used items into scope.
pub mod prelude {
    pub use crate::device::{Device, LaunchRecord};
    pub use crate::kernel::{KernelProfile, OpMix};
    pub use crate::spec::{DeviceSpec, Vendor};
}
