//! ROCm-SMI-like management API.
//!
//! Mirrors the subset of the ROCm System Management Interface the paper's
//! pipeline needs: memory clocks, the power cap and the energy counter.
//! The crucial semantic difference from NVML (called out in §3.1 of the
//! paper) is that AMD GPUs have **no default fixed clock**: the stock
//! configuration is the *auto* performance level, a DVFS governor that
//! picks clocks dynamically. The paper uses the auto level as the AMD
//! baseline for speedup/normalized-energy. We model the governor as
//! converging, under sustained load, to the spec's `default_core_mhz`
//! (near the top of the range, matching the paper's observation that auto
//! sits close to the best achievable speedup), so [`RocmDevice::launch`]
//! runs there. The core clock has no call here: a launch at any other
//! clock names it ([`Device::launch_at`]), and that request is what a fault
//! plan may refuse with [`RsmiError::Busy`].

use std::sync::Arc;

use parking_lot::Mutex;

use crate::device::{Device, LaunchRecord};
use crate::faults::FaultError;
use crate::kernel::KernelProfile;
use crate::spec::{DeviceSpec, Vendor};

/// ROCm-SMI-style error codes.
#[derive(Debug, Clone, PartialEq)]
pub enum RsmiError {
    /// Device index out of range.
    InvalidIndex(usize),
    /// The device is not an AMD GPU.
    NotSupported(String),
    /// A clock request that is not a finite, positive frequency.
    InvalidFrequency(f64),
    /// The SMU rejected the request because the device was busy
    /// (`RSMI_STATUS_BUSY`); the previous clock configuration is kept.
    Busy { requested_mhz: f64 },
    /// An unexpected device-side failure (`RSMI_STATUS_UNKNOWN_ERROR`);
    /// the launch did not execute.
    UnknownError(String),
    /// An xGMI link failed to retrain; the transfer did not complete and
    /// the link stays down.
    LinkLost,
}

impl std::fmt::Display for RsmiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RsmiError::InvalidIndex(i) => write!(f, "invalid device index {i}"),
            RsmiError::NotSupported(n) => write!(f, "device '{n}' is not managed by ROCm-SMI"),
            RsmiError::InvalidFrequency(mhz) => write!(f, "invalid frequency {mhz} MHz"),
            RsmiError::Busy { requested_mhz } => {
                write!(f, "device busy, clock request {requested_mhz} MHz dropped")
            }
            RsmiError::UnknownError(kernel) => {
                write!(f, "unknown device error (launching '{kernel}')")
            }
            RsmiError::LinkLost => write!(f, "xGMI link retrain failed, link down"),
        }
    }
}

impl std::error::Error for RsmiError {}

impl From<FaultError> for RsmiError {
    fn from(e: FaultError) -> Self {
        match e {
            FaultError::FrequencyRejected { requested_mhz } => RsmiError::Busy { requested_mhz },
            FaultError::LaunchFailed { kernel } => RsmiError::UnknownError(kernel),
            FaultError::LinkLost => RsmiError::LinkLost,
        }
    }
}

/// The ROCm-SMI library handle (`rsmi_init` analogue).
#[derive(Debug, Clone, Default)]
pub struct RocmSmi {
    devices: Vec<Arc<Mutex<Device>>>,
}

impl RocmSmi {
    /// Initializes ROCm-SMI over a set of simulated devices.
    pub fn init(devices: Vec<Device>) -> Self {
        RocmSmi {
            devices: devices
                .into_iter()
                .map(|d| Arc::new(Mutex::new(d)))
                .collect(),
        }
    }

    /// `rsmi_num_monitor_devices`.
    pub fn device_count(&self) -> usize {
        self.devices.len()
    }

    /// Returns a managed handle for device `index`.
    pub fn device_by_index(&self, index: usize) -> Result<RocmDevice, RsmiError> {
        let handle = self
            .devices
            .get(index)
            .ok_or(RsmiError::InvalidIndex(index))?
            .clone();
        let vendor = handle.lock().spec().vendor;
        if vendor != Vendor::Amd {
            let name = handle.lock().spec().name.clone();
            return Err(RsmiError::NotSupported(name));
        }
        Ok(RocmDevice { inner: handle })
    }
}

/// A handle to one ROCm-SMI-managed device.
#[derive(Debug, Clone)]
pub struct RocmDevice {
    inner: Arc<Mutex<Device>>,
}

impl RocmDevice {
    /// Creates a standalone handle over a fresh MI100.
    pub fn mi100() -> Self {
        RocmDevice::from_shared(Arc::new(Mutex::new(Device::new(DeviceSpec::mi100()))))
    }

    /// Wraps a shared device (caller guarantees it is an AMD device).
    pub fn from_shared(inner: Arc<Mutex<Device>>) -> Self {
        RocmDevice { inner }
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

    /// `rsmi_dev_name_get`.
    pub fn name(&self) -> String {
        self.inner.lock().spec().name.clone()
    }

    /// `rsmi_dev_gpu_clk_freq_get(RSMI_CLK_TYPE_MEM)` — supported memory
    /// frequencies.
    pub fn supported_mem_clocks(&self) -> Vec<f64> {
        self.inner.lock().spec().mem_freqs.as_slice().to_vec()
    }

    /// `rsmi_dev_gpu_clk_freq_set(RSMI_CLK_TYPE_MEM)` analogue: pins the
    /// memory clock and returns the frequency actually applied. On
    /// [`RsmiError::Busy`] the previous memory clock stays in force.
    pub fn set_mem_clk_freq(&mut self, mem_mhz: f64) -> Result<f64, RsmiError> {
        if !mem_mhz.is_finite() || mem_mhz <= 0.0 {
            return Err(RsmiError::InvalidFrequency(mem_mhz));
        }
        self.inner
            .lock()
            .set_mem_mhz(mem_mhz)
            .map_err(RsmiError::from)
    }

    /// `rsmi_dev_power_cap_set` analogue — sets (or clears, with `None`)
    /// the operator power cap in watts (real ROCm-SMI speaks microwatts;
    /// the simulator keeps watts everywhere).
    pub fn set_power_cap_w(&mut self, cap_w: Option<f64>) -> Result<Option<f64>, RsmiError> {
        self.inner
            .lock()
            .set_power_cap_w(cap_w)
            .map_err(RsmiError::from)
    }

    /// `rsmi_dev_power_cap_get` analogue — current cap in watts.
    pub fn power_cap_w(&self) -> Option<f64> {
        self.inner.lock().power_cap_w()
    }

    /// Cumulative energy counter in **microjoules**
    /// (`rsmi_dev_energy_count_get`).
    pub fn energy_count_uj(&self) -> u64 {
        (self.inner.lock().energy_counter_j() * 1e6).round() as u64
    }

    /// Executes a kernel at the auto governor's clock, its sustained-load
    /// convergence frequency `default_core_mhz`.
    pub fn launch(&self, kernel: &KernelProfile) -> Result<LaunchRecord, RsmiError> {
        self.inner.lock().launch(kernel).map_err(RsmiError::from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::DeviceSpec;

    #[test]
    fn enumerates_and_rejects_nvidia() {
        let smi = RocmSmi::init(vec![
            Device::new(DeviceSpec::mi100()),
            Device::new(DeviceSpec::v100()),
        ]);
        assert_eq!(smi.device_count(), 2);
        assert!(smi.device_by_index(0).is_ok());
        assert!(matches!(
            smi.device_by_index(1),
            Err(RsmiError::NotSupported(_))
        ));
        assert!(matches!(
            smi.device_by_index(5),
            Err(RsmiError::InvalidIndex(5))
        ));
    }

    #[test]
    fn auto_launch_uses_governor_frequency() {
        let dev = RocmDevice::mi100();
        let k = KernelProfile::compute_bound("k", 10_000_000, 100.0);
        let rec = dev.launch(&k).unwrap();
        assert_eq!(rec.core_mhz, 1450.0);
    }

    #[test]
    fn auto_beats_low_on_speed() {
        let k = KernelProfile::compute_bound("k", 50_000_000, 200.0);
        let dev = RocmDevice::mi100();
        let t_auto = dev.launch(&k).unwrap().time_s;
        let mut raw = dev.lock_device();
        let low = raw.spec().min_core_mhz();
        let t_low = raw.launch_at(&k, low).unwrap().time_s;
        assert!(t_auto < t_low);
    }

    #[test]
    fn mem_clock_and_power_cap_round_trip() {
        let mut dev = RocmDevice::mi100();
        assert_eq!(dev.supported_mem_clocks(), vec![800.0, 1000.0, 1200.0]);
        let applied = dev.set_mem_clk_freq(950.0).unwrap();
        assert_eq!(applied, 1000.0, "snaps to the supported table");
        assert!(dev.set_mem_clk_freq(f64::NAN).is_err());
        assert_eq!(dev.set_power_cap_w(Some(220.0)).unwrap(), Some(220.0));
        assert_eq!(dev.power_cap_w(), Some(220.0));
        assert_eq!(dev.set_power_cap_w(None).unwrap(), None);
    }

    #[test]
    fn energy_counter_microjoules() {
        let dev = RocmDevice::mi100();
        let k = KernelProfile::memory_bound("k", 10_000_000, 64.0);
        let rec = dev.launch(&k).unwrap();
        let uj = dev.energy_count_uj();
        assert!((uj as f64 - rec.energy_j * 1e6).abs() <= 1.0);
    }

    #[test]
    fn busy_keeps_the_previous_memory_clock() {
        use crate::faults::{FaultPlan, Schedule};
        let plan = FaultPlan::none().reject_set_frequency(Schedule::once(0));
        let mut dev = RocmDevice::from_shared(Arc::new(Mutex::new(Device::with_faults(
            DeviceSpec::mi100(),
            plan,
        ))));
        let before = dev.lock_device().mem_mhz();
        match dev.set_mem_clk_freq(800.0) {
            Err(RsmiError::Busy { requested_mhz }) => assert_eq!(requested_mhz, 800.0),
            other => panic!("expected Busy, got {other:?}"),
        }
        assert_eq!(dev.lock_device().mem_mhz(), before, "kept on Busy");
        // Retry goes through and the clock sticks.
        assert_eq!(dev.set_mem_clk_freq(800.0).unwrap(), 800.0);
        assert_eq!(dev.lock_device().mem_mhz(), 800.0);
    }
}
