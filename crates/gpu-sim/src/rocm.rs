//! ROCm-SMI-like management API.
//!
//! Mirrors the subset of the ROCm System Management Interface the paper's
//! pipeline needs. The crucial semantic difference from NVML (called out in
//! §3.1 of the paper) is that AMD GPUs have **no default fixed clock**:
//! the stock configuration is the *auto* performance level, a DVFS governor
//! that picks clocks dynamically. The paper uses the auto level as the AMD
//! baseline for speedup/normalized-energy. We model the governor as
//! converging, under sustained load, to the spec's `default_core_mhz`
//! (near the top of the range, matching the paper's observation that auto
//! sits close to the best achievable speedup).

use std::sync::Arc;

use parking_lot::Mutex;

use crate::device::{Device, LaunchRecord};
use crate::faults::FaultError;
use crate::kernel::KernelProfile;
use crate::spec::{DeviceSpec, Vendor};

/// `rsmi_dev_perf_level_t` analogue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PerfLevel {
    /// The DVFS governor chooses clocks (stock configuration).
    Auto,
    /// Pin to the lowest supported clock.
    Low,
    /// Pin to the highest supported clock.
    High,
    /// Clocks pinned by `set_clk_freq`.
    Manual,
}

/// ROCm-SMI-style error codes.
#[derive(Debug, Clone, PartialEq)]
pub enum RsmiError {
    /// Device index out of range.
    InvalidIndex(usize),
    /// The device is not an AMD GPU.
    NotSupported(String),
    /// Manual clock selection outside the supported range.
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
        Ok(RocmDevice {
            inner: handle,
            perf_level: PerfLevel::Auto,
        })
    }
}

/// A handle to one ROCm-SMI-managed device.
#[derive(Debug, Clone)]
pub struct RocmDevice {
    inner: Arc<Mutex<Device>>,
    perf_level: PerfLevel,
}

impl RocmDevice {
    /// Creates a standalone handle over a fresh MI100 at the auto level.
    pub fn mi100() -> Self {
        RocmDevice {
            inner: Arc::new(Mutex::new(Device::new(DeviceSpec::mi100()))),
            perf_level: PerfLevel::Auto,
        }
    }

    /// Wraps a shared device (caller guarantees it is an AMD device).
    pub fn from_shared(inner: Arc<Mutex<Device>>) -> Self {
        RocmDevice {
            inner,
            perf_level: PerfLevel::Auto,
        }
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

    /// Current performance level.
    pub fn perf_level(&self) -> PerfLevel {
        self.perf_level
    }

    /// `rsmi_dev_perf_level_set`. Switching to `Low`/`High` pins the clock;
    /// `Auto` hands control back to the governor. On [`RsmiError::Busy`]
    /// the level (and the clock) stay unchanged.
    pub fn set_perf_level(&mut self, level: PerfLevel) -> Result<(), RsmiError> {
        {
            let mut dev = self.inner.lock();
            match level {
                PerfLevel::Low => {
                    let f = dev.spec().min_core_mhz();
                    dev.set_core_mhz(f)?;
                }
                PerfLevel::High => {
                    let f = dev.spec().max_core_mhz();
                    dev.set_core_mhz(f)?;
                }
                PerfLevel::Auto | PerfLevel::Manual => {}
            }
        }
        self.perf_level = level;
        Ok(())
    }

    /// `rsmi_dev_gpu_clk_freq_get(RSMI_CLK_TYPE_SYS)` — supported core
    /// frequencies.
    pub fn supported_core_clocks(&self) -> Vec<f64> {
        self.inner.lock().spec().core_freqs.as_slice().to_vec()
    }

    /// `rsmi_dev_gpu_clk_freq_set` analogue: pins the core clock (switching
    /// to the `Manual` level) and returns the frequency actually applied.
    pub fn set_clk_freq(&mut self, core_mhz: f64) -> Result<f64, RsmiError> {
        if !core_mhz.is_finite() || core_mhz <= 0.0 {
            return Err(RsmiError::InvalidFrequency(core_mhz));
        }
        let applied = self.inner.lock().set_core_mhz(core_mhz)?;
        self.perf_level = PerfLevel::Manual;
        Ok(applied)
    }

    /// `rsmi_dev_gpu_clk_freq_get(RSMI_CLK_TYPE_MEM)` — supported memory
    /// frequencies.
    pub fn supported_mem_clocks(&self) -> Vec<f64> {
        self.inner.lock().spec().mem_freqs.as_slice().to_vec()
    }

    /// `rsmi_dev_gpu_clk_freq_set(RSMI_CLK_TYPE_MEM)` analogue: pins the
    /// memory clock and returns the frequency actually applied. Does not
    /// disturb the core performance level.
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

    /// Current core clock (MHz). Under `Auto`, reports the frequency the
    /// governor would run a loaded kernel at.
    pub fn current_clk_freq(&self) -> f64 {
        let dev = self.inner.lock();
        match self.perf_level {
            PerfLevel::Auto => dev.spec().default_core_mhz,
            _ => dev.core_mhz(),
        }
    }

    /// Cumulative energy counter in **microjoules**
    /// (`rsmi_dev_energy_count_get`).
    pub fn energy_count_uj(&self) -> u64 {
        (self.inner.lock().energy_counter_j() * 1e6).round() as u64
    }

    /// Executes a kernel under the current performance level. Under `Auto`
    /// the governor picks the clock for the launch (sustained-load
    /// convergence frequency); under `Low`/`High`/`Manual` the pinned clock
    /// is used.
    pub fn launch(&self, kernel: &KernelProfile) -> Result<LaunchRecord, RsmiError> {
        let mut dev = self.inner.lock();
        let res = match self.perf_level {
            PerfLevel::Auto => {
                let f = dev.spec().default_core_mhz;
                dev.launch_at(kernel, f)
            }
            _ => dev.launch(kernel),
        };
        res.map_err(RsmiError::from)
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
    fn default_level_is_auto() {
        let dev = RocmDevice::mi100();
        assert_eq!(dev.perf_level(), PerfLevel::Auto);
        // Under auto the reported clock is the governor's convergence point.
        assert_eq!(dev.current_clk_freq(), 1450.0);
    }

    #[test]
    fn manual_pin_snaps() {
        let mut dev = RocmDevice::mi100();
        let applied = dev.set_clk_freq(777.0).unwrap();
        assert_eq!(dev.perf_level(), PerfLevel::Manual);
        assert_eq!(dev.current_clk_freq(), applied);
        assert!(dev.set_clk_freq(f64::NAN).is_err());
        assert!(dev.set_clk_freq(-3.0).is_err());
    }

    #[test]
    fn low_high_pin_extremes() {
        let mut dev = RocmDevice::mi100();
        dev.set_perf_level(PerfLevel::Low).unwrap();
        assert_eq!(dev.current_clk_freq(), 300.0);
        dev.set_perf_level(PerfLevel::High).unwrap();
        assert_eq!(dev.current_clk_freq(), 1500.0);
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
        let auto_dev = RocmDevice::mi100();
        let t_auto = auto_dev.launch(&k).unwrap().time_s;
        let mut low_dev = RocmDevice::mi100();
        low_dev.set_perf_level(PerfLevel::Low).unwrap();
        let t_low = low_dev.launch(&k).unwrap().time_s;
        assert!(t_auto < t_low);
    }

    #[test]
    fn mem_clock_and_power_cap_round_trip() {
        let mut dev = RocmDevice::mi100();
        assert_eq!(dev.supported_mem_clocks(), vec![800.0, 1000.0, 1200.0]);
        let applied = dev.set_mem_clk_freq(950.0).unwrap();
        assert_eq!(applied, 1000.0, "snaps to the supported table");
        assert_eq!(dev.perf_level(), PerfLevel::Auto, "core level untouched");
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
    fn busy_keeps_perf_level_and_clock() {
        use crate::faults::{FaultPlan, Schedule};
        let plan = FaultPlan::none().reject_set_frequency(Schedule::once(0));
        let mut dev = RocmDevice::from_shared(Arc::new(Mutex::new(Device::with_faults(
            DeviceSpec::mi100(),
            plan,
        ))));
        let clk_before = dev.lock_device().core_mhz();
        match dev.set_perf_level(PerfLevel::Low) {
            Err(RsmiError::Busy { .. }) => {}
            other => panic!("expected Busy, got {other:?}"),
        }
        assert_eq!(dev.perf_level(), PerfLevel::Auto, "level unchanged on Busy");
        assert_eq!(dev.lock_device().core_mhz(), clk_before);
        // Retry goes through and the level sticks.
        dev.set_perf_level(PerfLevel::Low).unwrap();
        assert_eq!(dev.perf_level(), PerfLevel::Low);
    }
}
