//! Level-Zero-like (Intel oneAPI sysman) management API.
//!
//! Mirrors the subset of the Level Zero Sysman interface SYnergy's Intel
//! backend uses: the memory frequency domain (`zesFrequencySetRange`), the
//! energy counter (`zesPowerGetEnergyCounter`, microjoules), and the power
//! limit. Intel GPUs, like AMD ones, have no fixed default clock: the
//! stock configuration is the full frequency range with a firmware
//! governor choosing within it, which we model as converging to the spec's
//! `default_core_mhz`, so [`ZeDevice::launch`] runs there. The core domain
//! has no call here: a launch at any other clock names it
//! ([`Device::launch_at`]), and that request is what a fault plan may refuse
//! with [`ZeError::NotAvailable`].

use std::sync::Arc;

use parking_lot::Mutex;

use crate::device::{Device, LaunchRecord};
use crate::faults::FaultError;
use crate::kernel::KernelProfile;
use crate::spec::{DeviceSpec, Vendor};

/// Level-Zero-style error codes.
#[derive(Debug, Clone, PartialEq)]
pub enum ZeError {
    /// Device index out of range (`ZE_RESULT_ERROR_INVALID_ARGUMENT`).
    InvalidIndex(usize),
    /// The device is not an Intel GPU (`ZE_RESULT_ERROR_UNSUPPORTED_FEATURE`).
    Unsupported(String),
    /// An invalid memory frequency range was requested.
    InvalidRange {
        /// Requested minimum (MHz).
        min_mhz: f64,
        /// Requested maximum (MHz).
        max_mhz: f64,
    },
    /// The firmware refused to apply the requested clock
    /// (`ZE_RESULT_ERROR_NOT_AVAILABLE`); the previous clock is kept.
    NotAvailable { requested_mhz: f64 },
    /// The device dropped off mid-operation
    /// (`ZE_RESULT_ERROR_DEVICE_LOST`); the launch did not execute.
    DeviceLost(String),
    /// A Xe-Link fabric port went down; the transfer did not complete and
    /// the link stays down.
    LinkLost,
}

impl std::fmt::Display for ZeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ZeError::InvalidIndex(i) => write!(f, "invalid device index {i}"),
            ZeError::Unsupported(n) => write!(f, "device '{n}' is not managed by Level Zero"),
            ZeError::InvalidRange { min_mhz, max_mhz } => {
                write!(f, "invalid frequency range [{min_mhz}, {max_mhz}] MHz")
            }
            ZeError::NotAvailable { requested_mhz } => {
                write!(f, "clock {requested_mhz} MHz not available right now")
            }
            ZeError::DeviceLost(kernel) => {
                write!(f, "device lost (launching '{kernel}')")
            }
            ZeError::LinkLost => write!(f, "Xe-Link fabric port down"),
        }
    }
}

impl std::error::Error for ZeError {}

impl From<FaultError> for ZeError {
    fn from(e: FaultError) -> Self {
        match e {
            FaultError::FrequencyRejected { requested_mhz } => {
                ZeError::NotAvailable { requested_mhz }
            }
            FaultError::LaunchFailed { kernel } => ZeError::DeviceLost(kernel),
            FaultError::LinkLost => ZeError::LinkLost,
        }
    }
}

/// The driver handle (`zeInit` + `zesDriverGet` analogue).
#[derive(Debug, Clone, Default)]
pub struct ZeDriver {
    devices: Vec<Arc<Mutex<Device>>>,
}

impl ZeDriver {
    /// Initializes the driver over a set of simulated devices.
    pub fn init(devices: Vec<Device>) -> Self {
        ZeDriver {
            devices: devices
                .into_iter()
                .map(|d| Arc::new(Mutex::new(d)))
                .collect(),
        }
    }

    /// `zesDeviceGet` count.
    pub fn device_count(&self) -> usize {
        self.devices.len()
    }

    /// Returns a sysman handle for device `index`.
    pub fn device_by_index(&self, index: usize) -> Result<ZeDevice, ZeError> {
        let handle = self
            .devices
            .get(index)
            .ok_or(ZeError::InvalidIndex(index))?
            .clone();
        let vendor = handle.lock().spec().vendor;
        if vendor != Vendor::Intel {
            let name = handle.lock().spec().name.clone();
            return Err(ZeError::Unsupported(name));
        }
        Ok(ZeDevice::from_shared(handle))
    }
}

/// A sysman handle to one Intel device.
#[derive(Debug, Clone)]
pub struct ZeDevice {
    inner: Arc<Mutex<Device>>,
}

impl ZeDevice {
    /// A standalone handle over a fresh Max 1100.
    pub fn max1100() -> Self {
        ZeDevice::from_shared(Arc::new(Mutex::new(Device::new(DeviceSpec::max1100()))))
    }

    /// Wraps a shared device (caller guarantees it is an Intel device).
    pub fn from_shared(inner: Arc<Mutex<Device>>) -> Self {
        ZeDevice { inner }
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

    /// `zesDeviceGetProperties` — device name.
    pub fn name(&self) -> String {
        self.inner.lock().spec().name.clone()
    }

    /// `zesFrequencyGetAvailableClocks` on the memory domain — the
    /// supported memory clocks.
    pub fn available_memory_clocks(&self) -> Vec<f64> {
        self.inner.lock().spec().mem_freqs.as_slice().to_vec()
    }

    /// `zesFrequencySetRange` on the memory domain, pinned form: sets the
    /// memory clock (snapping to a supported bin) and returns the applied
    /// frequency. On [`ZeError::NotAvailable`] the previous memory clock
    /// stays in force.
    pub fn set_memory_frequency(&mut self, mem_mhz: f64) -> Result<f64, ZeError> {
        if !mem_mhz.is_finite() || mem_mhz <= 0.0 {
            return Err(ZeError::InvalidRange {
                min_mhz: mem_mhz,
                max_mhz: mem_mhz,
            });
        }
        self.inner
            .lock()
            .set_mem_mhz(mem_mhz)
            .map_err(ZeError::from)
    }

    /// `zesPowerSetLimits` analogue — sets (or clears, with `None`) the
    /// sustained power limit in watts.
    pub fn set_power_limit_w(&mut self, cap_w: Option<f64>) -> Result<Option<f64>, ZeError> {
        self.inner
            .lock()
            .set_power_cap_w(cap_w)
            .map_err(ZeError::from)
    }

    /// `zesPowerGetLimits` analogue — current sustained limit in watts.
    pub fn power_limit_w(&self) -> Option<f64> {
        self.inner.lock().power_cap_w()
    }

    /// `zesPowerGetEnergyCounter` — cumulative energy in **microjoules**.
    pub fn energy_counter_uj(&self) -> u64 {
        (self.inner.lock().energy_counter_j() * 1e6).round() as u64
    }

    /// Executes a kernel at the firmware governor's sustained clock,
    /// `default_core_mhz` (the simulator stand-in for a SYCL launch on this
    /// device).
    pub fn launch(&self, kernel: &KernelProfile) -> Result<LaunchRecord, ZeError> {
        self.inner.lock().launch(kernel).map_err(ZeError::from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enumerates_and_rejects_other_vendors() {
        let drv = ZeDriver::init(vec![
            Device::new(DeviceSpec::max1100()),
            Device::new(DeviceSpec::v100()),
        ]);
        assert_eq!(drv.device_count(), 2);
        assert!(drv.device_by_index(0).is_ok());
        assert!(matches!(
            drv.device_by_index(1),
            Err(ZeError::Unsupported(_))
        ));
        assert!(matches!(
            drv.device_by_index(9),
            Err(ZeError::InvalidIndex(9))
        ));
    }

    #[test]
    fn invalid_ranges_rejected() {
        let mut dev = ZeDevice::max1100();
        for bad in [f64::NAN, f64::INFINITY, -5.0, 0.0] {
            assert!(matches!(
                dev.set_memory_frequency(bad),
                Err(ZeError::InvalidRange { .. })
            ));
        }
        assert_eq!(dev.lock_device().mem_mhz(), 1565.0, "clock untouched");
    }

    #[test]
    fn memory_domain_and_power_limit_round_trip() {
        let mut dev = ZeDevice::max1100();
        assert_eq!(dev.available_memory_clocks(), vec![1046.0, 1305.0, 1565.0]);
        let applied = dev.set_memory_frequency(1200.0).unwrap();
        assert_eq!(applied, 1305.0, "snaps to a supported bin");
        assert!(dev.set_memory_frequency(-1.0).is_err());
        assert_eq!(dev.set_power_limit_w(Some(250.0)).unwrap(), Some(250.0));
        assert_eq!(dev.power_limit_w(), Some(250.0));
        assert_eq!(dev.set_power_limit_w(None).unwrap(), None);
    }

    #[test]
    fn energy_counter_microjoules() {
        let dev = ZeDevice::max1100();
        let k = KernelProfile::memory_bound("k", 10_000_000, 64.0);
        let rec = dev.launch(&k).unwrap();
        let uj = dev.energy_counter_uj();
        assert!((uj as f64 - rec.energy_j * 1e6).abs() <= 1.0);
    }

    #[test]
    fn fault_errors_map_to_ze_codes() {
        use crate::faults::{FaultPlan, Schedule};
        let plan = FaultPlan::none()
            .reject_set_frequency(Schedule::once(0))
            .fail_launches(Schedule::once(1));
        let mut dev = ZeDevice::from_shared(Arc::new(Mutex::new(Device::with_faults(
            DeviceSpec::max1100(),
            plan,
        ))));
        match dev.set_memory_frequency(1046.0) {
            Err(ZeError::NotAvailable { requested_mhz }) => assert_eq!(requested_mhz, 1046.0),
            other => panic!("expected NotAvailable, got {other:?}"),
        }
        assert_eq!(dev.lock_device().mem_mhz(), 1565.0, "the clock is kept");
        // The rejection ran no launch, so launch index 0 succeeds and index
        // 1 trips the scheduled launch failure; both fault classes were
        // one-shot, so the retries succeed.
        let k = KernelProfile::compute_bound("k", 1 << 20, 200.0);
        assert!(dev.launch(&k).is_ok());
        assert!(matches!(dev.launch(&k), Err(ZeError::DeviceLost(_))));
        assert!(dev.launch(&k).is_ok());
        assert_eq!(dev.set_memory_frequency(1046.0).unwrap(), 1046.0);
    }
}
