//! NVML-like management API.
//!
//! Mirrors the subset of the NVIDIA Management Library the paper's pipeline
//! needs — memory-clock enumeration, the power limit, and the total-energy
//! counter — with Rust naming and `Result` error handling instead of
//! `nvmlReturn_t` codes. Units follow NVML: energy in millijoules, clocks
//! in MHz. The core clock has no call here: each launch names its clock
//! ([`Device::launch_at`]), and one at a clock other than the fixed default
//! application clock is the application-clock request, which a fault plan
//! may refuse with [`NvmlError::NoPermission`].

use std::sync::Arc;

use parking_lot::Mutex;

use crate::device::{Device, LaunchRecord};
use crate::faults::FaultError;
use crate::kernel::KernelProfile;
use crate::spec::{DeviceSpec, Vendor};

/// NVML-style error codes.
#[derive(Debug, Clone, PartialEq)]
pub enum NvmlError {
    /// Device index out of range (`NVML_ERROR_INVALID_ARGUMENT`).
    InvalidIndex(usize),
    /// The device is not an NVIDIA GPU (`NVML_ERROR_NOT_SUPPORTED`).
    NotSupported(String),
    /// NVML refused the application-clock or power-limit change
    /// (`NVML_ERROR_NO_PERMISSION`); the device keeps its previous setting.
    NoPermission { requested_mhz: f64 },
    /// The device fell off the bus mid-operation
    /// (`NVML_ERROR_GPU_IS_LOST`); the launch did not execute.
    GpuLost(String),
    /// An NVLink port reported a fatal error (the
    /// `NVML_NVLINK_ERROR_DL_*` counter family); the transfer did not
    /// complete and the link stays down.
    LinkLost,
}

impl std::fmt::Display for NvmlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NvmlError::InvalidIndex(i) => write!(f, "invalid device index {i}"),
            NvmlError::NotSupported(name) => {
                write!(f, "device '{name}' is not managed by NVML")
            }
            NvmlError::NoPermission { requested_mhz } => {
                write!(
                    f,
                    "no permission to set application clock {requested_mhz} MHz"
                )
            }
            NvmlError::GpuLost(kernel) => {
                write!(f, "GPU is lost (launching '{kernel}')")
            }
            NvmlError::LinkLost => write!(f, "NVLink fatal error, link down"),
        }
    }
}

impl std::error::Error for NvmlError {}

impl From<FaultError> for NvmlError {
    fn from(e: FaultError) -> Self {
        match e {
            FaultError::FrequencyRejected { requested_mhz } => {
                NvmlError::NoPermission { requested_mhz }
            }
            FaultError::LaunchFailed { kernel } => NvmlError::GpuLost(kernel),
            FaultError::LinkLost => NvmlError::LinkLost,
        }
    }
}

/// The NVML library handle (the `nvmlInit` analogue).
#[derive(Debug, Clone, Default)]
pub struct Nvml {
    devices: Vec<Arc<Mutex<Device>>>,
}

impl Nvml {
    /// Initializes NVML over a set of simulated devices. Non-NVIDIA devices
    /// are accepted but refuse management calls, like a hybrid node.
    pub fn init(devices: Vec<Device>) -> Self {
        Nvml {
            devices: devices
                .into_iter()
                .map(|d| Arc::new(Mutex::new(d)))
                .collect(),
        }
    }

    /// `nvmlDeviceGetCount`.
    pub fn device_count(&self) -> usize {
        self.devices.len()
    }

    /// `nvmlDeviceGetHandleByIndex`.
    pub fn device_by_index(&self, index: usize) -> Result<NvmlDevice, NvmlError> {
        let handle = self
            .devices
            .get(index)
            .ok_or(NvmlError::InvalidIndex(index))?
            .clone();
        let vendor = handle.lock().spec().vendor;
        if vendor != Vendor::Nvidia {
            let name = handle.lock().spec().name.clone();
            return Err(NvmlError::NotSupported(name));
        }
        Ok(NvmlDevice { inner: handle })
    }
}

/// A handle to one NVML-managed device.
#[derive(Debug, Clone)]
pub struct NvmlDevice {
    inner: Arc<Mutex<Device>>,
}

impl NvmlDevice {
    /// Creates a standalone NVML handle over a fresh V100.
    pub fn v100() -> Self {
        NvmlDevice {
            inner: Arc::new(Mutex::new(Device::new(DeviceSpec::v100()))),
        }
    }

    /// Wraps a shared device. The caller must ensure it is an NVIDIA device
    /// (use [`Nvml::device_by_index`] for checked access).
    pub fn from_shared(inner: Arc<Mutex<Device>>) -> Self {
        NvmlDevice { inner }
    }

    /// The underlying shared device handle.
    pub fn shared(&self) -> Arc<Mutex<Device>> {
        self.inner.clone()
    }

    /// Locks the underlying device without cloning the shared handle (the
    /// hot paths take this: once per launch, or once per fused replay).
    pub fn lock_device(&self) -> parking_lot::MutexGuard<'_, Device> {
        self.inner.lock()
    }

    /// `nvmlDeviceGetName`.
    pub fn name(&self) -> String {
        self.inner.lock().spec().name.clone()
    }

    /// `nvmlDeviceGetSupportedMemoryClocks`.
    pub fn supported_memory_clocks(&self) -> Vec<f64> {
        self.inner.lock().spec().mem_freqs.as_slice().to_vec()
    }

    /// `nvmlDeviceSetPowerManagementLimit` — sets (or clears, with `None`)
    /// the operator power cap in watts. Returns the cap actually applied.
    pub fn set_power_management_limit_w(
        &self,
        cap_w: Option<f64>,
    ) -> Result<Option<f64>, NvmlError> {
        self.inner
            .lock()
            .set_power_cap_w(cap_w)
            .map_err(NvmlError::from)
    }

    /// `nvmlDeviceGetPowerManagementLimit` — current cap in watts; `None`
    /// means the board runs at its default TDP limit.
    pub fn power_management_limit_w(&self) -> Option<f64> {
        self.inner.lock().power_cap_w()
    }

    /// `nvmlDeviceGetTotalEnergyConsumption` — cumulative energy in
    /// **millijoules**.
    pub fn total_energy_consumption_mj(&self) -> u64 {
        (self.inner.lock().energy_counter_j() * 1e3).round() as u64
    }

    /// Executes a kernel at the default application clock. Not part of
    /// NVML (which only manages), but the simulator's stand-in for the CUDA
    /// launch the managed device would perform.
    pub fn launch(&self, kernel: &KernelProfile) -> Result<LaunchRecord, NvmlError> {
        self.inner.lock().launch(kernel).map_err(NvmlError::from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::DeviceSpec;

    fn one_v100() -> Nvml {
        Nvml::init(vec![Device::new(DeviceSpec::v100())])
    }

    #[test]
    fn enumerates_devices() {
        let nvml = one_v100();
        assert_eq!(nvml.device_count(), 1);
        assert!(nvml.device_by_index(0).is_ok());
        assert!(matches!(
            nvml.device_by_index(1),
            Err(NvmlError::InvalidIndex(1))
        ));
    }

    #[test]
    fn rejects_amd_devices() {
        let nvml = Nvml::init(vec![Device::new(DeviceSpec::mi100())]);
        match nvml.device_by_index(0) {
            Err(NvmlError::NotSupported(name)) => assert!(name.contains("MI100")),
            other => panic!("expected NotSupported, got {other:?}"),
        }
    }

    #[test]
    fn supported_clocks_match_spec() {
        let dev = one_v100().device_by_index(0).unwrap();
        let mems = dev.supported_memory_clocks();
        assert_eq!(mems, vec![703.0, 810.0, 958.0, 1107.0]);
    }

    #[test]
    fn power_limit_round_trips() {
        let dev = one_v100().device_by_index(0).unwrap();
        assert_eq!(dev.power_management_limit_w(), None);
        assert_eq!(
            dev.set_power_management_limit_w(Some(200.0)).unwrap(),
            Some(200.0)
        );
        assert_eq!(dev.power_management_limit_w(), Some(200.0));
        assert_eq!(dev.set_power_management_limit_w(None).unwrap(), None);
        assert_eq!(dev.power_management_limit_w(), None, "None clears the cap");
    }

    #[test]
    fn energy_counter_in_millijoules() {
        let dev = NvmlDevice::v100();
        let k = KernelProfile::compute_bound("k", 1_000_000, 100.0);
        let rec = dev.launch(&k).unwrap();
        let mj = dev.total_energy_consumption_mj();
        assert!((mj as f64 - rec.energy_j * 1e3).abs() <= 1.0);
    }

    #[test]
    fn fault_errors_map_to_nvml_codes() {
        use crate::faults::{FaultPlan, Schedule};
        let plan = FaultPlan::none()
            .reject_set_frequency(Schedule::once(0))
            .fail_launches(Schedule::once(0));
        let dev = NvmlDevice::from_shared(Arc::new(Mutex::new(Device::with_faults(
            DeviceSpec::v100(),
            plan,
        ))));
        match dev.set_power_management_limit_w(Some(150.0)) {
            Err(NvmlError::NoPermission { requested_mhz }) => assert_eq!(requested_mhz, 150.0),
            other => panic!("expected NoPermission, got {other:?}"),
        }
        assert_eq!(dev.power_management_limit_w(), None, "the limit is kept");
        let k = KernelProfile::compute_bound("k", 1_000_000, 100.0);
        assert!(matches!(dev.launch(&k), Err(NvmlError::GpuLost(_))));
        // Both fault classes were one-shot: the retries succeed.
        assert_eq!(
            dev.set_power_management_limit_w(Some(150.0)).unwrap(),
            Some(150.0)
        );
        assert!(dev.launch(&k).is_ok());
    }
}
