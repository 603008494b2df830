//! Vendor backend dispatch.
//!
//! SYnergy hides NVML / ROCm-SMI / Level Zero behind one interface; this
//! module does the same over the simulated vendor layers. A core clock is
//! chosen only per launch: [`Backend::launch`] takes the clock the
//! frequency policy asks for, and a launch with none runs at the vendor
//! default configuration — NVIDIA's fixed default application clock, the
//! AMD auto performance level, the Intel firmware governor over the full
//! range. All three run at the spec's `default_core_mhz`, the one clock
//! that needs no clock request and so cannot be rejected.

use gpu_sim::device::LaunchRecord;
use gpu_sim::faults::FaultError;
use gpu_sim::kernel::KernelProfile;
use gpu_sim::level_zero::{ZeDevice, ZeError};
use gpu_sim::link::TransferRecord;
use gpu_sim::nvml::{NvmlDevice, NvmlError};
use gpu_sim::rocm::{RocmDevice, RsmiError};
use gpu_sim::Vendor;

use crate::energy::Measurement;
use crate::replay::FusedReplay;

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
    /// All memory frequencies the device supports, ascending (MHz). A
    /// backend without a controllable memory domain reports an empty list —
    /// lattice sweeps then collapse to the core axis.
    fn supported_memory_frequencies(&self) -> Vec<f64> {
        Vec::new()
    }
    /// Applies a memory clock; `None` restores the vendor default (the top
    /// supported memory clock). Returns the effective memory clock (MHz).
    /// This is a management request the vendor layer may reject, leaving the
    /// previous memory clock active.
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
    /// lock the device and hand it to [`FusedReplay`]'s launch loop.
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
        replay.run(&mut self.device.lock_device())
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
        replay.run(&mut self.device.lock_device())
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

    fn energy_counter_j(&self) -> f64 {
        self.device.energy_counter_uj() as f64 * 1e-6
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
            // Default on Intel = the firmware governor decides.
            None => self.device.launch(kernel).map_err(BackendError::from),
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
        replay.run(&mut self.device.lock_device())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::{Device, DeviceSpec};

    /// A launch with no requested clock on `a` is, record for record, a
    /// launch at the spec's `default_core_mhz` on its twin `b`.
    fn assert_default_launch_is_the_default_clock(
        mut a: impl Backend,
        mut b: impl Backend,
        spec: DeviceSpec,
    ) {
        let k = KernelProfile::compute_bound("k", 1_000_000, 100.0);
        let default = a.launch(&k, None).unwrap();
        assert_eq!(default.core_mhz, spec.default_core_mhz);
        assert_eq!(default, b.launch(&k, Some(spec.default_core_mhz)).unwrap());
    }

    #[test]
    fn nvml_backend_reports_fixed_default() {
        let b = NvmlBackend::new(NvmlDevice::v100());
        assert_eq!(b.vendor(), Vendor::Nvidia);
        let twin = NvmlBackend::new(NvmlDevice::v100());
        assert_default_launch_is_the_default_clock(b, twin, DeviceSpec::v100());
    }

    #[test]
    fn rocm_backend_reports_auto_default() {
        let b = RocmBackend::new(RocmDevice::mi100());
        assert_eq!(b.vendor(), Vendor::Amd);
        let twin = RocmBackend::new(RocmDevice::mi100());
        assert_default_launch_is_the_default_clock(b, twin, DeviceSpec::mi100());
    }

    #[test]
    fn level_zero_backend_reports_auto_default() {
        let b = LevelZeroBackend::new(ZeDevice::max1100());
        assert_eq!(b.vendor(), Vendor::Intel);
        let twin = LevelZeroBackend::new(ZeDevice::max1100());
        assert_default_launch_is_the_default_clock(b, twin, DeviceSpec::max1100());
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
        let k = KernelProfile::compute_bound("k", 1_000_000, 100.0);
        for freq in [Some(900.0), None] {
            let rec = b.launch(&k, freq).unwrap();
            assert_eq!(
                rec.mem_mhz, 810.0,
                "a core clock request must not clobber the mem clock"
            );
        }
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
