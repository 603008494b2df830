//! # synergy — portable energy profiling and frequency scaling
//!
//! Stand-in for the SYnergy API (Fan et al., SC'23) used by the paper: a
//! vendor-neutral layer that lets SYCL-style applications profile energy and
//! set per-kernel core frequencies on NVIDIA (NVML), AMD (ROCm-SMI), and
//! Intel (Level Zero) GPUs. Here it wraps the simulated vendor APIs from
//! [`gpu_sim`].
//!
//! The pieces:
//!
//! * [`backend`] — the vendor dispatch trait and the NVML/ROCm-SMI/Level
//!   Zero adapters;
//! * [`queue`] — a profiled submission queue with per-kernel frequency
//!   policies (the SYCL `queue` analogue the applications submit to);
//! * [`energy`] — scoped energy/time measurement around arbitrary work;
//! * [`replay`] — record a workload's kernel sequence once, replay it
//!   cheaply at every sweep frequency (one device call per replay, each
//!   distinct kernel priced once through the memo cache);
//! * [`scaling`] — frequency-selection policies;
//! * [`metrics`] — target-metric frequency selection (min-energy, EDP,
//!   max-performance, bounded-slowdown), the hook the paper's future-work
//!   section plugs its domain-specific models into.
//!
//! ```
//! use synergy::queue::SynergyQueue;
//! use gpu_sim::{Device, DeviceSpec, KernelProfile};
//!
//! let mut q = SynergyQueue::nvidia(Device::new(DeviceSpec::v100()));
//! let k = KernelProfile::compute_bound("dock", 1 << 18, 500.0);
//! let ev = q.submit(&k);
//! println!("{} ran in {:.3} ms using {:.1} J", k.name, ev.time_s * 1e3, ev.energy_j);
//! ```

#![forbid(unsafe_code)]

pub mod backend;
pub mod energy;
pub mod metrics;
pub mod queue;
pub mod replay;
pub mod scaling;

pub use backend::{Backend, BackendError};
pub use metrics::{DegradationMetrics, EnergyCounterHealer};
pub use queue::{ProfiledEvent, RetryPolicy, SubmitError, SynergyQueue};
pub use replay::{KernelTrace, TraceSegment};
pub use scaling::FrequencyPolicy;
