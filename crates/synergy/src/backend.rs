//! Vendor backend dispatch.
//!
//! SYnergy hides NVML / ROCm-SMI / Level Zero behind one interface; this
//! module does the same over the simulated vendor layers. The essential
//! vendor asymmetry the paper leans on is preserved: NVIDIA devices have a
//! *fixed default clock* while AMD devices default to an *auto* governor, so
//! [`Backend::default_config`] returns a [`DefaultConfig`] rather than a
//! number.

use gpu_sim::device::LaunchRecord;
use gpu_sim::faults::FaultError;
use gpu_sim::kernel::KernelProfile;
use gpu_sim::level_zero::{ZeDevice, ZeError};
use gpu_sim::link::TransferRecord;
use gpu_sim::nvml::{NvmlDevice, NvmlError};
use gpu_sim::rocm::{PerfLevel, RocmDevice, RsmiError};
use gpu_sim::Vendor;

use crate::energy::Measurement;
use crate::replay::FusedReplay;

/// What "default frequency configuration" means on this device — the
/// baseline every speedup/normalized-energy figure in the paper divides by.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DefaultConfig {
    /// A fixed default core clock in MHz (NVIDIA application clocks).
    FixedMhz(f64),
    /// The vendor's automatic DVFS governor (AMD performance level "auto").
    Auto,
}

/// A vendor-neutral management/execution error — the common shape of
/// `NVML_ERROR_*`, `RSMI_STATUS_*`, and `ZE_RESULT_ERROR_*` codes that the
/// retry machinery in [`crate::queue`] handles uniformly.
#[derive(Debug, Clone, PartialEq)]
pub enum BackendError {
    /// The driver refused a clock change; the previous clock is still
    /// active (NVML `NO_PERMISSION`, ROCm-SMI `BUSY`, L0 `NOT_AVAILABLE`).
    FrequencyRejected {
        /// The clock that was requested (MHz).
        requested_mhz: f64,
    },
    /// A transient device failure dropped the launch before it executed
    /// (NVML `GPU_IS_LOST`, ROCm-SMI `UNKNOWN_ERROR`, L0 `DEVICE_LOST`).
    LaunchFailed {
        /// Name of the kernel that failed to launch.
        kernel: String,
    },
    /// The peer-to-peer interconnect dropped mid-transfer (NVLink fatal
    /// error / xGMI retrain failure). Not retryable: the link stays down,
    /// so distributed drivers must shrink the gang instead.
    LinkLost,
    /// Any other vendor-layer management error (invalid index/clock, …) —
    /// not retryable.
    Management(String),
}

impl std::fmt::Display for BackendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BackendError::FrequencyRejected { requested_mhz } => {
                write!(f, "clock request {requested_mhz} MHz rejected")
            }
            BackendError::LaunchFailed { kernel } => {
                write!(f, "transient failure launching '{kernel}'")
            }
            BackendError::LinkLost => write!(f, "interconnect link lost"),
            BackendError::Management(msg) => write!(f, "management error: {msg}"),
        }
    }
}

impl std::error::Error for BackendError {}

impl BackendError {
    /// Whether retrying the same operation can plausibly succeed.
    pub fn is_transient(&self) -> bool {
        !matches!(self, BackendError::Management(_) | BackendError::LinkLost)
    }
}

impl From<FaultError> for BackendError {
    fn from(e: FaultError) -> Self {
        match e {
            FaultError::FrequencyRejected { requested_mhz } => {
                BackendError::FrequencyRejected { requested_mhz }
            }
            FaultError::LaunchFailed { kernel } => BackendError::LaunchFailed { kernel },
            FaultError::LinkLost => BackendError::LinkLost,
        }
    }
}

impl From<NvmlError> for BackendError {
    fn from(e: NvmlError) -> Self {
        match e {
            NvmlError::NoPermission { requested_mhz } => {
                BackendError::FrequencyRejected { requested_mhz }
            }
            NvmlError::GpuLost(kernel) => BackendError::LaunchFailed { kernel },
            NvmlError::LinkLost => BackendError::LinkLost,
            other => BackendError::Management(other.to_string()),
        }
    }
}

impl From<RsmiError> for BackendError {
    fn from(e: RsmiError) -> Self {
        match e {
            RsmiError::Busy { requested_mhz } => BackendError::FrequencyRejected { requested_mhz },
            RsmiError::UnknownError(kernel) => BackendError::LaunchFailed { kernel },
            RsmiError::LinkLost => BackendError::LinkLost,
            other => BackendError::Management(other.to_string()),
        }
    }
}

impl From<ZeError> for BackendError {
    fn from(e: ZeError) -> Self {
        match e {
            ZeError::NotAvailable { requested_mhz } => {
                BackendError::FrequencyRejected { requested_mhz }
            }
            ZeError::DeviceLost(kernel) => BackendError::LaunchFailed { kernel },
            ZeError::LinkLost => BackendError::LinkLost,
            other => BackendError::Management(other.to_string()),
        }
    }
}

/// A vendor-specific management + execution backend.
pub trait Backend: Send {
    /// Device marketing name.
    fn device_name(&self) -> String;
    /// Device vendor.
    fn vendor(&self) -> Vendor;
    /// All core frequencies the device supports, ascending (MHz).
    fn supported_core_frequencies(&self) -> Vec<f64>;
    /// The device's default configuration.
    fn default_config(&self) -> DefaultConfig;
    /// Cumulative device energy counter (J). This is the *raw* counter — it
    /// can rewind when the device resets it; [`crate::metrics`] has the
    /// wrap-healing accumulator.
    fn energy_counter_j(&self) -> f64;
    /// Runs a kernel at `freq`; `None` means the default configuration
    /// (fixed default clock or auto governor, per vendor). A
    /// [`BackendError::FrequencyRejected`] or [`BackendError::LaunchFailed`]
    /// leaves every device counter untouched (the launch never ran).
    fn launch(
        &mut self,
        kernel: &KernelProfile,
        freq_mhz: Option<f64>,
    ) -> Result<LaunchRecord, BackendError>;
    /// Applies a clock configuration without launching anything; `None`
    /// restores the vendor default. Returns the effective clock (MHz).
    fn set_frequency(&mut self, freq_mhz: Option<f64>) -> Result<f64, BackendError>;
    /// All memory frequencies the device supports, ascending (MHz). A
    /// backend without a controllable memory domain reports an empty list —
    /// lattice sweeps then collapse to the core axis.
    fn supported_memory_frequencies(&self) -> Vec<f64> {
        Vec::new()
    }
    /// Applies a memory clock; `None` restores the vendor default (the top
    /// supported memory clock). Returns the effective memory clock (MHz).
    /// Like [`Backend::set_frequency`] this is a management request the
    /// driver may reject, leaving the previous memory clock active.
    fn set_memory_frequency(&mut self, mem_mhz: Option<f64>) -> Result<f64, BackendError> {
        let _ = mem_mhz;
        Err(BackendError::Management(
            "memory clock control not supported".into(),
        ))
    }
    /// Sets (or clears, with `None`) the operator power cap in watts.
    /// Returns the cap actually applied. A binding cap throttles the
    /// effective core clock — it never discounts energy for free.
    fn set_power_cap(&mut self, cap_w: Option<f64>) -> Result<Option<f64>, BackendError> {
        let _ = cap_w;
        Err(BackendError::Management(
            "power cap control not supported".into(),
        ))
    }
    /// The operator power cap currently in force, if any.
    fn power_cap(&self) -> Option<f64> {
        None
    }
    /// Lets device time pass without work — the retry machinery charges its
    /// backoff waits here so they show up as idle energy, like a real pause
    /// between NVML calls would.
    fn idle_wait(&mut self, _dt_s: f64) {}

    /// Moves `bytes` over the device's peer-to-peer interconnect port
    /// (halo exchange of a domain-decomposed solver). Time and energy are
    /// charged to this device's counters through its memory-power path. A
    /// backend without an interconnect reports a non-transient
    /// [`BackendError::Management`]; a dropped link is the non-transient
    /// [`BackendError::LinkLost`].
    fn transfer(&mut self, bytes: u64) -> Result<TransferRecord, BackendError> {
        let _ = bytes;
        Err(BackendError::Management(
            "interconnect transfers not supported".into(),
        ))
    }

    /// Replays a whole kernel trace in one device call while the device's
    /// fault plan is inert. The queue's running totals advance launch by
    /// launch in submission order, and the returned measurement sums the
    /// segments' sums; both are bit-identical to replaying segment by
    /// segment, one [`Backend::launch`] per launch.
    ///
    /// Returns `None`, having run nothing, when a fault can fire or the
    /// backend has no fused path (the default); the queue then replays
    /// segment by segment with its retry machinery. The vendor backends
    /// resolve the default clock before they lock the device and share
    /// [`FusedReplay`]'s launch loop after that.
    fn replay_trace(&mut self, replay: FusedReplay<'_>) -> Option<Measurement> {
        let _ = replay;
        None
    }
}

/// NVML-backed (NVIDIA) implementation.
#[derive(Debug, Clone)]
pub struct NvmlBackend {
    device: NvmlDevice,
}

impl NvmlBackend {
    /// Wraps an NVML device handle.
    pub fn new(device: NvmlDevice) -> Self {
        NvmlBackend { device }
    }
}

impl Backend for NvmlBackend {
    fn device_name(&self) -> String {
        self.device.name()
    }

    fn vendor(&self) -> Vendor {
        Vendor::Nvidia
    }

    fn supported_core_frequencies(&self) -> Vec<f64> {
        // The mem table is ascending; the graphics-clock query wants any
        // supported memory clock, so use the top (default) one.
        let mem = *self
            .device
            .supported_memory_clocks()
            .last()
            .expect("non-empty memory clock table");
        self.device
            .supported_graphics_clocks(mem)
            .expect("own memory clock is supported")
    }

    fn default_config(&self) -> DefaultConfig {
        DefaultConfig::FixedMhz(self.device.lock_device().spec().default_core_mhz)
    }

    fn energy_counter_j(&self) -> f64 {
        self.device.total_energy_consumption_mj() as f64 * 1e-3
    }

    fn launch(
        &mut self,
        kernel: &KernelProfile,
        freq_mhz: Option<f64>,
    ) -> Result<LaunchRecord, BackendError> {
        let mut dev = self.device.lock_device();
        let f = freq_mhz.unwrap_or(dev.spec().default_core_mhz);
        dev.launch_at(kernel, f).map_err(BackendError::from)
    }

    fn set_frequency(&mut self, freq_mhz: Option<f64>) -> Result<f64, BackendError> {
        match freq_mhz {
            Some(f) => {
                // Keep the memory clock where it is: applications clocks
                // set both domains, and a mem-clock change here would
                // clobber a lattice point's memory setting (the idempotent
                // mem request consumes no management op).
                let mem = self.device.clock_info_memory();
                let (_, c) = self.device.set_applications_clocks(mem, f)?;
                Ok(c)
            }
            None => {
                self.device.reset_applications_clocks();
                Ok(self.device.clock_info_graphics())
            }
        }
    }

    fn supported_memory_frequencies(&self) -> Vec<f64> {
        self.device.supported_memory_clocks()
    }

    fn set_memory_frequency(&mut self, mem_mhz: Option<f64>) -> Result<f64, BackendError> {
        let target = mem_mhz.unwrap_or_else(|| {
            *self
                .device
                .supported_memory_clocks()
                .last()
                .expect("non-empty memory clock table")
        });
        self.device
            .lock_device()
            .set_mem_mhz(target)
            .map_err(BackendError::from)
    }

    fn set_power_cap(&mut self, cap_w: Option<f64>) -> Result<Option<f64>, BackendError> {
        self.device
            .set_power_management_limit_w(cap_w)
            .map_err(BackendError::from)
    }

    fn power_cap(&self) -> Option<f64> {
        self.device.power_management_limit_w()
    }

    fn idle_wait(&mut self, dt_s: f64) {
        self.device.lock_device().idle_advance(dt_s);
    }

    fn transfer(&mut self, bytes: u64) -> Result<TransferRecord, BackendError> {
        self.device
            .lock_device()
            .transfer(bytes)
            .map_err(BackendError::from)
    }

    fn replay_trace(&mut self, replay: FusedReplay<'_>) -> Option<Measurement> {
        let mut dev = self.device.lock_device();
        let default_mhz = Some(dev.spec().default_core_mhz);
        replay.run(&mut dev, default_mhz)
    }
}

/// ROCm-SMI-backed (AMD) implementation.
#[derive(Debug, Clone)]
pub struct RocmBackend {
    device: RocmDevice,
}

impl RocmBackend {
    /// Wraps a ROCm-SMI device handle.
    pub fn new(device: RocmDevice) -> Self {
        RocmBackend { device }
    }
}

impl Backend for RocmBackend {
    fn device_name(&self) -> String {
        self.device.name()
    }

    fn vendor(&self) -> Vendor {
        Vendor::Amd
    }

    fn supported_core_frequencies(&self) -> Vec<f64> {
        self.device.supported_core_clocks()
    }

    fn default_config(&self) -> DefaultConfig {
        DefaultConfig::Auto
    }

    fn energy_counter_j(&self) -> f64 {
        self.device.energy_count_uj() as f64 * 1e-6
    }

    fn launch(
        &mut self,
        kernel: &KernelProfile,
        freq_mhz: Option<f64>,
    ) -> Result<LaunchRecord, BackendError> {
        match freq_mhz {
            Some(f) => self
                .device
                .lock_device()
                .launch_at(kernel, f)
                .map_err(BackendError::from),
            // Default on AMD = the auto governor decides.
            None => self.device.launch(kernel).map_err(BackendError::from),
        }
    }

    fn set_frequency(&mut self, freq_mhz: Option<f64>) -> Result<f64, BackendError> {
        match freq_mhz {
            Some(f) => Ok(self.device.set_clk_freq(f)?),
            None => {
                self.device.set_perf_level(PerfLevel::Auto)?;
                Ok(self.device.current_clk_freq())
            }
        }
    }

    fn supported_memory_frequencies(&self) -> Vec<f64> {
        self.device.supported_mem_clocks()
    }

    fn set_memory_frequency(&mut self, mem_mhz: Option<f64>) -> Result<f64, BackendError> {
        let target = mem_mhz.unwrap_or_else(|| {
            *self
                .device
                .supported_mem_clocks()
                .last()
                .expect("non-empty memory clock table")
        });
        Ok(self.device.set_mem_clk_freq(target)?)
    }

    fn set_power_cap(&mut self, cap_w: Option<f64>) -> Result<Option<f64>, BackendError> {
        Ok(self.device.set_power_cap_w(cap_w)?)
    }

    fn power_cap(&self) -> Option<f64> {
        self.device.power_cap_w()
    }

    fn idle_wait(&mut self, dt_s: f64) {
        self.device.lock_device().idle_advance(dt_s);
    }

    fn transfer(&mut self, bytes: u64) -> Result<TransferRecord, BackendError> {
        self.device
            .lock_device()
            .transfer(bytes)
            .map_err(BackendError::from)
    }

    fn replay_trace(&mut self, replay: FusedReplay<'_>) -> Option<Measurement> {
        // `current_clk_freq` locks the device itself, so it runs first.
        let default_mhz = replay
            .needs_default_clock()
            .then(|| self.device.current_clk_freq());
        replay.run(&mut self.device.lock_device(), default_mhz)
    }
}

/// Level-Zero-backed (Intel) implementation.
#[derive(Debug, Clone)]
pub struct LevelZeroBackend {
    device: ZeDevice,
}

impl LevelZeroBackend {
    /// Wraps a Level Zero sysman handle.
    pub fn new(device: ZeDevice) -> Self {
        LevelZeroBackend { device }
    }
}

impl Backend for LevelZeroBackend {
    fn device_name(&self) -> String {
        self.device.name()
    }

    fn vendor(&self) -> Vendor {
        Vendor::Intel
    }

    fn supported_core_frequencies(&self) -> Vec<f64> {
        self.device.available_clocks()
    }

    fn default_config(&self) -> DefaultConfig {
        // Intel, like AMD, defaults to a governor (full frequency range).
        DefaultConfig::Auto
    }

    fn energy_counter_j(&self) -> f64 {
        self.device.energy_counter_uj() as f64 * 1e-6
    }

    fn launch(
        &mut self,
        kernel: &KernelProfile,
        freq_mhz: Option<f64>,
    ) -> Result<LaunchRecord, BackendError> {
        match freq_mhz {
            // Per-kernel pinning = collapse the range around the request.
            Some(f) => self
                .device
                .lock_device()
                .launch_at(kernel, f)
                .map_err(BackendError::from),
            None => self.device.launch(kernel).map_err(BackendError::from),
        }
    }

    fn set_frequency(&mut self, freq_mhz: Option<f64>) -> Result<f64, BackendError> {
        match freq_mhz {
            Some(f) => {
                let (lo, _) = self.device.set_frequency_range(f, f)?;
                Ok(lo)
            }
            None => {
                self.device.reset_frequency_range();
                Ok(self.device.governor_frequency())
            }
        }
    }

    fn supported_memory_frequencies(&self) -> Vec<f64> {
        self.device.available_memory_clocks()
    }

    fn set_memory_frequency(&mut self, mem_mhz: Option<f64>) -> Result<f64, BackendError> {
        let target = mem_mhz.unwrap_or_else(|| {
            *self
                .device
                .available_memory_clocks()
                .last()
                .expect("non-empty memory clock table")
        });
        Ok(self.device.set_memory_frequency(target)?)
    }

    fn set_power_cap(&mut self, cap_w: Option<f64>) -> Result<Option<f64>, BackendError> {
        Ok(self.device.set_power_limit_w(cap_w)?)
    }

    fn power_cap(&self) -> Option<f64> {
        self.device.power_limit_w()
    }

    fn idle_wait(&mut self, dt_s: f64) {
        self.device.lock_device().idle_advance(dt_s);
    }

    fn transfer(&mut self, bytes: u64) -> Result<TransferRecord, BackendError> {
        self.device
            .lock_device()
            .transfer(bytes)
            .map_err(BackendError::from)
    }

    fn replay_trace(&mut self, replay: FusedReplay<'_>) -> Option<Measurement> {
        // `governor_frequency` locks the device itself, so it runs first.
        let default_mhz = replay
            .needs_default_clock()
            .then(|| self.device.governor_frequency());
        replay.run(&mut self.device.lock_device(), default_mhz)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::{Device, DeviceSpec};

    #[test]
    fn nvml_backend_reports_fixed_default() {
        let b = NvmlBackend::new(NvmlDevice::v100());
        assert_eq!(b.vendor(), Vendor::Nvidia);
        match b.default_config() {
            DefaultConfig::FixedMhz(f) => assert!((f - 1312.1).abs() < 1.0),
            other => panic!("expected fixed default, got {other:?}"),
        }
        assert_eq!(b.supported_core_frequencies().len(), 196);
    }

    #[test]
    fn rocm_backend_reports_auto_default() {
        let b = RocmBackend::new(RocmDevice::mi100());
        assert_eq!(b.vendor(), Vendor::Amd);
        assert_eq!(b.default_config(), DefaultConfig::Auto);
    }

    #[test]
    fn level_zero_backend_reports_auto_default() {
        let b = LevelZeroBackend::new(ZeDevice::max1100());
        assert_eq!(b.vendor(), Vendor::Intel);
        assert_eq!(b.default_config(), DefaultConfig::Auto);
        assert_eq!(b.supported_core_frequencies().len(), 26);
    }

    #[test]
    fn level_zero_launch_paths() {
        let k = KernelProfile::compute_bound("k", 1_000_000, 100.0);
        let mut b = LevelZeroBackend::new(ZeDevice::max1100());
        assert_eq!(b.launch(&k, None).unwrap().core_mhz, 1450.0);
        let rec = b.launch(&k, Some(600.0)).unwrap();
        assert!((rec.core_mhz - 600.0).abs() < 30.0);
    }

    #[test]
    fn launch_with_explicit_frequency_uses_it() {
        let mut b = NvmlBackend::new(NvmlDevice::v100());
        let k = KernelProfile::compute_bound("k", 1_000_000, 100.0);
        let rec = b.launch(&k, Some(500.0)).unwrap();
        assert!((rec.core_mhz - 500.0).abs() < 10.0);
    }

    #[test]
    fn launch_default_uses_vendor_baseline() {
        let k = KernelProfile::compute_bound("k", 1_000_000, 100.0);
        let mut nv = NvmlBackend::new(NvmlDevice::v100());
        assert!((nv.launch(&k, None).unwrap().core_mhz - 1312.1).abs() < 1.0);
        let mut amd = RocmBackend::new(RocmDevice::mi100());
        assert_eq!(amd.launch(&k, None).unwrap().core_mhz, 1450.0);
    }

    #[test]
    fn energy_counter_advances() {
        let mut b = RocmBackend::new(RocmDevice::mi100());
        let before = b.energy_counter_j();
        let k = KernelProfile::memory_bound("k", 5_000_000, 32.0);
        b.launch(&k, None).unwrap();
        assert!(b.energy_counter_j() > before);
    }

    #[test]
    fn lattice_actuators_round_trip_on_every_vendor() {
        let mut backends: Vec<Box<dyn Backend>> = vec![
            Box::new(NvmlBackend::new(NvmlDevice::v100())),
            Box::new(RocmBackend::new(RocmDevice::mi100())),
            Box::new(LevelZeroBackend::new(ZeDevice::max1100())),
        ];
        for b in &mut backends {
            let mems = b.supported_memory_frequencies();
            assert!(
                mems.len() >= 3,
                "{} must expose a real memory-clock axis",
                b.device_name()
            );
            assert!(mems.windows(2).all(|w| w[0] < w[1]), "ascending table");
            let lo = mems[0];
            assert_eq!(b.set_memory_frequency(Some(lo)).unwrap(), lo);
            assert_eq!(
                b.set_memory_frequency(None).unwrap(),
                *mems.last().unwrap(),
                "None restores the top (default) memory clock"
            );
            assert_eq!(b.set_power_cap(Some(200.0)).unwrap(), Some(200.0));
            assert_eq!(b.power_cap(), Some(200.0));
            assert_eq!(b.set_power_cap(None).unwrap(), None);
            assert_eq!(b.power_cap(), None);
        }
    }

    #[test]
    fn nvml_core_set_preserves_memory_clock() {
        let mut b = NvmlBackend::new(NvmlDevice::v100());
        b.set_memory_frequency(Some(810.0)).unwrap();
        b.set_frequency(Some(900.0)).unwrap();
        let k = KernelProfile::compute_bound("k", 1_000_000, 100.0);
        let rec = b.launch(&k, None).unwrap();
        assert_eq!(
            rec.mem_mhz, 810.0,
            "core-set path must not clobber mem clock"
        );
    }

    #[test]
    fn backends_are_object_safe() {
        let dev = Device::new(DeviceSpec::v100());
        let nvml = gpu_sim::nvml::Nvml::init(vec![dev]);
        let handle = nvml.device_by_index(0).unwrap();
        let boxed: Box<dyn Backend> = Box::new(NvmlBackend::new(handle));
        assert_eq!(boxed.device_name(), "NVIDIA V100");
    }
}
