//! The device execution engine.
//!
//! [`Device`] owns the mutable state of one simulated GPU: memory clock,
//! power cap, cumulative energy counter, device clock, and the optional
//! measurement-noise stream. It keeps no configured core clock: every
//! launch names its clock ([`Device::launch_at`]), and a launch at any
//! clock other than the spec's `default_core_mhz` is a clock request the
//! fault plan may reject. Every measurement leaves the device as a
//! [`LaunchRecord`] or a counter reading, as it does through NVML or
//! ROCm-SMI; the device keeps no per-launch log. The vendor-specific
//! management layers ([`crate::nvml`], [`crate::rocm`],
//! [`crate::level_zero`]) and the portable `synergy` crate all drive this
//! type.

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::faults::{FaultError, FaultPlan, FaultState};
use crate::kernel::KernelProfile;
use crate::link::{transfer_power_w, TransferRecord};
use crate::noise::NoiseModel;
use crate::power::{energy_from_parts, resolve_power_cap, CapResolution, PowerBreakdown};
use crate::pricing::PriceTable;
use crate::spec::DeviceSpec;
use crate::timing::TimingBreakdown;

/// Result of one kernel launch: what a profiler would hand back.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LaunchRecord {
    /// Wall-clock duration (s), including launch overhead.
    pub time_s: f64,
    /// Energy consumed by the launch (J).
    pub energy_j: f64,
    /// Average power over the launch (W).
    pub avg_power_w: f64,
    /// Core clock the kernel ran at (MHz).
    pub core_mhz: f64,
    /// Memory clock the kernel ran at (MHz).
    pub mem_mhz: f64,
    /// True when the effective clock sat below the requested one for *any*
    /// reason: an injected fault window, the always-on firmware TDP loop,
    /// or a binding operator power cap.
    pub throttled: bool,
    /// True only when a fault-injected throttle window held the granted
    /// clock below the request — a transient anomaly worth re-measuring.
    /// Deterministic TDP/power-cap throttling sets [`LaunchRecord::throttled`]
    /// but not this: it is physics of the requested configuration, and a
    /// re-measurement would reproduce it exactly.
    pub fault_throttled: bool,
}

/// A simulated GPU with mutable clock and counter state.
#[derive(Debug, Clone)]
pub struct Device {
    spec: DeviceSpec,
    mem_mhz: f64,
    /// Operator power cap (W), `None` = TDP only. Enforced by
    /// [`resolve_power_cap`] on every launch.
    power_cap_w: Option<f64>,
    /// Cumulative energy counter in joules (NVML reports millijoules; the
    /// NVML layer converts).
    energy_counter_j: f64,
    /// Device-side clock, seconds since creation.
    clock_s: f64,
    noise: NoiseModel,
    /// Memo cache of noiseless launch prices; shareable across devices.
    prices: Arc<PriceTable>,
    /// Fault-injection cursor; inert by default.
    faults: FaultState,
}

impl Device {
    /// Creates a device at its default clocks, with noise disabled and no
    /// fault plan.
    pub fn new(spec: DeviceSpec) -> Self {
        let mem = spec.mem_freqs.max();
        Device {
            spec,
            mem_mhz: mem,
            power_cap_w: None,
            energy_counter_j: 0.0,
            clock_s: 0.0,
            noise: NoiseModel::disabled(),
            prices: Arc::new(PriceTable::new()),
            faults: FaultState::inert(),
        }
    }

    /// Creates a device with a seeded measurement-noise model.
    pub fn with_noise(spec: DeviceSpec, noise: NoiseModel) -> Self {
        let mut d = Device::new(spec);
        d.noise = noise;
        d
    }

    /// Creates a device with a fault-injection plan.
    pub fn with_faults(spec: DeviceSpec, plan: FaultPlan) -> Self {
        let mut d = Device::new(spec);
        d.set_fault_plan(plan);
        d
    }

    /// Installs a fault-injection plan, restarting its operation counters.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.faults = FaultState::new(plan);
    }

    /// The device's fault-injection cursor.
    pub fn fault_state(&self) -> &FaultState {
        &self.faults
    }

    /// The static descriptor of this device.
    pub fn spec(&self) -> &DeviceSpec {
        &self.spec
    }

    /// Current memory clock (MHz).
    pub fn mem_mhz(&self) -> f64 {
        self.mem_mhz
    }

    /// Sets the memory clock, snapping to the nearest supported frequency.
    /// This is a management request the fault plan may reject, leaving the
    /// previous clock in force — but only a request that *changes* the
    /// clock consumes a management operation, so setting the clock the
    /// device is already at is always a no-op success (real management
    /// libraries short-circuit idempotent clock requests too).
    pub fn set_mem_mhz(&mut self, mhz: f64) -> Result<f64, FaultError> {
        let requested = self.spec.mem_freqs.snap(mhz);
        if requested != self.mem_mhz {
            self.faults.on_set_frequency(requested)?;
            self.mem_mhz = requested;
        }
        Ok(self.mem_mhz)
    }

    /// Current operator power cap (W); `None` means TDP-only.
    pub fn power_cap_w(&self) -> Option<f64> {
        self.power_cap_w
    }

    /// Sets (or clears, with `None`) the operator power cap — the
    /// `nvmlDeviceSetPowerManagementLimit` analogue. Caps above TDP are
    /// accepted but the TDP still binds first. Only a changing request
    /// consumes a fault-plan management operation (reported with the cap
    /// value — or TDP when clearing — in the `requested_mhz` slot of
    /// [`FaultError::FrequencyRejected`]).
    ///
    /// # Panics
    /// Panics on a non-finite or non-positive cap.
    pub fn set_power_cap_w(&mut self, cap_w: Option<f64>) -> Result<Option<f64>, FaultError> {
        if let Some(c) = cap_w {
            assert!(
                c.is_finite() && c > 0.0,
                "power cap must be finite and positive"
            );
        }
        if cap_w != self.power_cap_w {
            self.faults
                .on_set_frequency(cap_w.unwrap_or(self.spec.tdp_w))?;
            self.power_cap_w = cap_w;
        }
        Ok(self.power_cap_w)
    }

    /// Executes a kernel at the default core clock, advancing the device
    /// clock and energy counter, and returns the measured record. Fails
    /// only when the fault plan injects a transient launch failure.
    pub fn launch(&mut self, kernel: &KernelProfile) -> Result<LaunchRecord, FaultError> {
        self.launch_at(kernel, self.spec.default_core_mhz)
    }

    /// Executes a kernel at an explicit core clock (per-kernel frequency
    /// scaling, as SYnergy does). The clock is snapped to a supported
    /// frequency.
    ///
    /// Launching at a clock other than the spec's `default_core_mhz`
    /// performs an implicit application-clock request, which the fault plan
    /// may reject ([`FaultError::FrequencyRejected`] — nothing runs, no
    /// counter moves). The plan may also drop the launch
    /// ([`FaultError::LaunchFailed`]) or hold the effective clock below
    /// the requested one for a throttle window, in which case the launch
    /// succeeds with [`LaunchRecord::throttled`] set and `core_mhz` at the
    /// capped clock.
    pub fn launch_at(
        &mut self,
        kernel: &KernelProfile,
        core_mhz: f64,
    ) -> Result<LaunchRecord, FaultError> {
        let requested = self.spec.core_freqs.snap(core_mhz);
        if requested != self.spec.default_core_mhz {
            self.faults.on_set_frequency(requested)?;
        }
        let granted = match self.faults.on_launch_attempt(&kernel.name)? {
            Some(cap_mhz) => {
                let cap = self.spec.core_freqs.snap(cap_mhz);
                if cap < requested {
                    cap
                } else {
                    requested
                }
            }
            None => requested,
        };
        // Firmware power-cap enforcement: the effective clock may sit below
        // the fault-granted one when demand exceeds min(TDP, operator cap);
        // the body then runs (and stretches) at that lower clock.
        let res = resolve_power_cap(&self.spec, kernel, granted, self.mem_mhz, self.power_cap_w);
        let f = res.core_mhz;

        let time_s = res.timing.total_s * self.noise.time_factor();
        let energy_j =
            energy_from_parts(&self.spec, &res.timing, &res.power) * self.noise.energy_factor();
        let avg_power_w = energy_j / time_s;

        let rec = LaunchRecord {
            time_s,
            energy_j,
            avg_power_w,
            core_mhz: f,
            mem_mhz: self.mem_mhz,
            throttled: f < requested,
            fault_throttled: granted < requested,
        };
        self.clock_s += time_s;
        self.energy_counter_j += energy_j;
        if self.faults.on_launch_complete() {
            // Counter wrap/reset: readings restart from zero, exactly like
            // a wrapped `rsmi_dev_energy_count_get` accumulator.
            self.energy_counter_j = 0.0;
        }
        Ok(rec)
    }

    /// Resolves the effective configuration a request for `core_mhz` would
    /// run at under the current memory clock and power cap, without
    /// mutating any state.
    pub fn resolve(&self, kernel: &KernelProfile, core_mhz: f64) -> CapResolution {
        resolve_power_cap(&self.spec, kernel, core_mhz, self.mem_mhz, self.power_cap_w)
    }

    /// Dry-run: computes what a launch *would* cost at `core_mhz` without
    /// mutating any state (no counters, no noise). Used by models
    /// that need ground truth independent of measurement jitter. Reflects
    /// cap throttling: the returned timing/power belong to the *effective*
    /// clock.
    pub fn peek(&self, kernel: &KernelProfile, core_mhz: f64) -> (TimingBreakdown, PowerBreakdown) {
        let r = self.resolve(kernel, core_mhz);
        (r.timing, r.power)
    }

    /// Dry-run returning `(time_s, energy_j)` with the same phase-split
    /// energy accounting as [`Device::launch`], noise-free.
    pub fn peek_cost(&self, kernel: &KernelProfile, core_mhz: f64) -> (f64, f64) {
        let r = self.resolve(kernel, core_mhz);
        (
            r.timing.total_s,
            energy_from_parts(&self.spec, &r.timing, &r.power),
        )
    }

    /// Pure pricing: `(time_s, energy_j)` of one noiseless launch of
    /// `kernel` at `core_mhz`, served from the device's [`PriceTable`].
    ///
    /// Identical to [`Device::peek_cost`] (bit-for-bit — the cache stores
    /// what `peek_cost` computes), but memoized per `(kernel, frequency)`
    /// pair, which makes repeated re-pricing of the same kernel mix across
    /// a frequency sweep a hash lookup instead of a cost-model evaluation.
    pub fn price(&self, kernel: &KernelProfile, core_mhz: f64) -> (f64, f64) {
        self.prices
            .price_or_insert_with(kernel, core_mhz, self.mem_mhz, self.power_cap_w, || {
                self.peek_cost(kernel, core_mhz)
            })
    }

    /// The device as an [`InertDevice`], or `None` while a fault can fire
    /// ([`FaultState::is_inert`] is false).
    pub fn inert(&mut self) -> Option<InertDevice<'_>> {
        if self.faults.is_inert() {
            Some(InertDevice(self))
        } else {
            None
        }
    }

    /// The device's price memo cache.
    pub fn price_table(&self) -> &Arc<PriceTable> {
        &self.prices
    }

    /// Replaces the device's price cache, typically to share one table
    /// across many per-frequency device replicas in a parallel sweep.
    pub fn set_price_table(&mut self, table: Arc<PriceTable>) {
        self.prices = table;
    }

    /// Accepts and ignores a per-launch event-log bound. The device keeps
    /// no such log, so there is nothing to size; the method remains only so
    /// that callers written against the earlier API still build.
    pub fn set_trace_capacity(&mut self, _capacity: Option<usize>) {}

    /// Advances the device clock by `dt` seconds of idleness, charging idle
    /// power to the energy counter (host-side gaps between kernels).
    ///
    /// # Panics
    /// Panics on negative `dt`.
    pub fn idle_advance(&mut self, dt_s: f64) {
        assert!(dt_s >= 0.0, "time cannot run backwards");
        self.clock_s += dt_s;
        self.energy_counter_j += self.spec.idle_power_w * dt_s;
    }

    /// Moves `bytes` over the device's peer-to-peer interconnect port,
    /// advancing the device clock and energy counter.
    ///
    /// Time follows the alpha-beta model of [`crate::link::LinkSpec`];
    /// energy flows through the *memory* power path (a DMA engine streams
    /// DRAM while the compute pipes idle, see
    /// [`crate::link::transfer_power_w`]), so a lower memory clock cheapens
    /// the transfer like it cheapens a streaming kernel. The fault plan may
    /// degrade the link (the transfer completes at a fraction of nominal
    /// bandwidth, [`TransferRecord::degraded`] set) or drop it entirely
    /// ([`FaultError::LinkLost`] — nothing runs, no counter moves).
    pub fn transfer(&mut self, bytes: u64) -> Result<TransferRecord, FaultError> {
        let fault = self.faults.on_transfer()?;
        let factor = fault.unwrap_or(1.0);
        let time_base_s = self.spec.link.transfer_time_s(bytes, factor);
        // Achieved DRAM utilization: what the (possibly degraded) link can
        // actually pull through the local memory system.
        let util = if time_base_s > 0.0 {
            (bytes as f64 / time_base_s / (self.spec.mem_bandwidth_gbs * 1e9)).min(1.0)
        } else {
            0.0
        };
        let power_w = transfer_power_w(&self.spec, self.mem_mhz, util);
        let time_s = time_base_s * self.noise.time_factor();
        let energy_j = power_w * time_base_s * self.noise.energy_factor();
        self.clock_s += time_s;
        self.energy_counter_j += energy_j;
        Ok(TransferRecord {
            bytes,
            time_s,
            energy_j,
            degraded: fault.is_some(),
        })
    }

    /// Cumulative energy counter (J) since creation — the
    /// `nvmlDeviceGetTotalEnergyConsumption` analogue (which reports mJ).
    pub fn energy_counter_j(&self) -> f64 {
        self.energy_counter_j
    }

    /// Device clock (s since creation).
    pub fn clock_s(&self) -> f64 {
        self.clock_s
    }
}

/// A [`Device`] borrowed while its fault plan is inert, from
/// [`Device::inert`]. No fault can fire, so a launch needs none of the
/// per-launch fault hooks and runs from a memoized price; the exclusive
/// borrow keeps the plan from changing while this lives.
#[derive(Debug)]
pub struct InertDevice<'a>(&'a mut Device);

impl InertDevice<'_> {
    /// [`Device::price`] on the borrowed device.
    pub fn price(&self, kernel: &KernelProfile, core_mhz: f64) -> (f64, f64) {
        self.0.price(kernel, core_mhz)
    }

    /// Runs `n` back-to-back launches of a kernel whose noiseless
    /// `(time_s, energy_j)` is `price`, as [`InertDevice::price`] returns it
    /// under the current memory clock and power cap. Each launch draws one
    /// time factor, then one energy factor, advances the device clock and
    /// energy counter and reports its `(time_s, energy_j)` to `sink` —
    /// exactly what `n` separate [`Device::launch_at`] calls do, so every
    /// counter ends bit-identical. A fused trace replay runs every launch
    /// through here; a launch that a fault could touch goes through
    /// [`Device::launch_at`].
    pub fn launch_priced(&mut self, price: (f64, f64), n: u64, mut sink: impl FnMut(f64, f64)) {
        let dev = &mut *self.0;
        let (base_time_s, base_energy_j) = price;
        for _ in 0..n {
            let time_s = base_time_s * dev.noise.time_factor();
            let energy_j = base_energy_j * dev.noise.energy_factor();
            dev.clock_s += time_s;
            dev.energy_counter_j += energy_j;
            sink(time_s, energy_j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::DeviceSpec;

    #[test]
    fn launch_advances_counters() {
        let mut d = Device::new(DeviceSpec::v100());
        let k = KernelProfile::compute_bound("k", 1_000_000, 100.0);
        let before = d.energy_counter_j();
        let rec = d.launch(&k).unwrap();
        assert!(rec.time_s > 0.0);
        assert!(d.energy_counter_j() > before);
        assert!((d.clock_s() - rec.time_s).abs() < 1e-15);
    }

    #[test]
    fn launch_at_does_not_change_configured_clock() {
        let mut d = Device::new(DeviceSpec::v100());
        let k = KernelProfile::compute_bound("k", 1_000_000, 100.0);
        let default = d.spec().default_core_mhz;
        let rec = d.launch_at(&k, 300.0).unwrap();
        assert!(rec.core_mhz < default);
        assert_eq!(d.launch(&k).unwrap().core_mhz, default);
    }

    #[test]
    fn peek_is_pure() {
        let d = Device::new(DeviceSpec::v100());
        let k = KernelProfile::memory_bound("k", 1_000_000, 32.0);
        let (t1, p1) = d.peek(&k, 800.0);
        let (t2, p2) = d.peek(&k, 800.0);
        assert_eq!(t1.total_s, t2.total_s);
        assert_eq!(p1.total_w, p2.total_w);
        assert_eq!(d.energy_counter_j(), 0.0);
    }

    #[test]
    fn idle_charges_idle_power() {
        let mut d = Device::new(DeviceSpec::v100());
        d.idle_advance(2.0);
        let expected = d.spec().idle_power_w * 2.0;
        assert!((d.energy_counter_j() - expected).abs() < 1e-12);
    }

    #[test]
    fn noise_preserves_determinism_per_seed() {
        let spec = DeviceSpec::v100();
        let k = KernelProfile::compute_bound("k", 1_000_000, 100.0);
        let mut a = Device::with_noise(spec.clone(), NoiseModel::realistic(9));
        let mut b = Device::with_noise(spec, NoiseModel::realistic(9));
        for _ in 0..10 {
            let ra = a.launch(&k).unwrap();
            let rb = b.launch(&k).unwrap();
            assert_eq!(ra.time_s, rb.time_s);
            assert_eq!(ra.energy_j, rb.energy_j);
        }
    }

    #[test]
    fn price_matches_peek_cost_bitwise() {
        let d = Device::new(DeviceSpec::v100());
        let k = KernelProfile::memory_bound("k", 2_000_000, 48.0);
        for f in [135.0, 800.0, 1312.1, 1597.0] {
            let (pt, pe) = d.peek_cost(&k, f);
            // First call computes, second must serve the cached value.
            assert_eq!(d.price(&k, f), (pt, pe));
            assert_eq!(d.price(&k, f), (pt, pe));
        }
        assert_eq!(d.price_table().len(), 4);
    }

    /// `n` launches of `kernel` at `core_mhz` on an inert device, priced
    /// once: the `(time_s, energy_j)` of each, in order.
    fn launch_priced(
        d: &mut Device,
        kernel: &KernelProfile,
        core_mhz: f64,
        n: u64,
    ) -> Vec<(f64, f64)> {
        let mut dev = d.inert().expect("no fault plan is installed");
        let price = dev.price(kernel, core_mhz);
        let mut seen = Vec::new();
        dev.launch_priced(price, n, |t, e| seen.push((t, e)));
        seen
    }

    #[test]
    fn launch_priced_matches_serial_launches_noiseless() {
        let spec = DeviceSpec::v100();
        let k = KernelProfile::compute_bound("k", 1_000_000, 100.0);
        let mut serial = Device::new(spec.clone());
        let mut batched = Device::new(spec);
        let mut expected = Vec::new();
        for _ in 0..7 {
            let rec = serial.launch_at(&k, 900.0).unwrap();
            expected.push((rec.time_s, rec.energy_j));
        }
        let seen = launch_priced(&mut batched, &k, 900.0, 7);
        assert_eq!(seen, expected);
        assert_eq!(batched.clock_s(), serial.clock_s());
        assert_eq!(batched.energy_counter_j(), serial.energy_counter_j());
    }

    #[test]
    fn launch_priced_matches_serial_launches_with_noise() {
        let spec = DeviceSpec::v100();
        // (kernel, clock, noise seed, launches, TDP-throttled). The second
        // is the kernel of `tdp_throttles_saturating_kernel_at_top_clock`:
        // at 1597 MHz its demand exceeds the 300 W TDP, so the firmware
        // loop lowers the clock the one price lookup must match.
        let streaming = KernelProfile::memory_bound("k", 4_000_000, 64.0);
        let saturating = KernelProfile::compute_bound("k", 100_000_000, 200.0);
        let cases = [
            (&streaming, 700.0, 31, 5, false),
            (&saturating, 1597.0, 5, 4, true),
        ];
        let bits = |v: &[(f64, f64)]| -> Vec<(u64, u64)> {
            v.iter().map(|(t, e)| (t.to_bits(), e.to_bits())).collect()
        };
        for (k, f, seed, n, tdp_throttled) in cases {
            let mut serial = Device::with_noise(spec.clone(), NoiseModel::realistic(seed));
            let mut batched = Device::with_noise(spec.clone(), NoiseModel::realistic(seed));
            let mut expected = Vec::new();
            for _ in 0..n {
                let rec = serial.launch_at(k, f).unwrap();
                assert_eq!(rec.throttled, tdp_throttled, "{f} MHz");
                expected.push((rec.time_s, rec.energy_j));
            }
            let seen = launch_priced(&mut batched, k, f, n);
            assert_eq!(
                bits(&seen),
                bits(&expected),
                "noise must be drawn per launch, in order ({f} MHz)"
            );
            assert_eq!(batched.clock_s().to_bits(), serial.clock_s().to_bits());
            assert_eq!(
                batched.energy_counter_j().to_bits(),
                serial.energy_counter_j().to_bits()
            );
        }
    }

    #[test]
    fn shared_price_table_is_populated_across_replicas() {
        let spec = DeviceSpec::v100();
        let table = Arc::new(PriceTable::new());
        let k = KernelProfile::compute_bound("k", 1_000_000, 100.0);
        let mut a = Device::new(spec.clone());
        a.set_price_table(Arc::clone(&table));
        let mut b = Device::new(spec);
        b.set_price_table(Arc::clone(&table));
        launch_priced(&mut a, &k, 900.0, 2);
        launch_priced(&mut b, &k, 900.0, 2);
        assert_eq!(table.len(), 1, "both replicas share one cached price");
    }

    #[test]
    fn record_power_consistent() {
        let mut d = Device::new(DeviceSpec::mi100());
        let k = KernelProfile::memory_bound("k", 10_000_000, 48.0);
        let rec = d.launch(&k).unwrap();
        assert!((rec.avg_power_w - rec.energy_j / rec.time_s).abs() < 1e-9);
    }

    // ---- Fault injection at the device layer ----

    use crate::faults::{FaultError, FaultPlan, Schedule, ThrottleWindow};

    #[test]
    fn launch_at_foreign_clock_consumes_a_set_frequency_op() {
        let plan = FaultPlan::none().reject_set_frequency(Schedule::once(0));
        let mut d = Device::with_faults(DeviceSpec::v100(), plan);
        let k = KernelProfile::compute_bound("k", 1_000_000, 100.0);
        // Default-clock launches perform no clock request and cannot be
        // rejected.
        assert!(d.launch(&k).is_ok());
        let before = (d.clock_s(), d.energy_counter_j());
        let err = d.launch_at(&k, 600.0).unwrap_err();
        assert!(matches!(err, FaultError::FrequencyRejected { .. }));
        assert_eq!(
            (d.clock_s(), d.energy_counter_j()),
            before,
            "a rejected launch moves no counter"
        );
        // The next request (op 1) goes through at the requested clock.
        let rec = d.launch_at(&k, 600.0).unwrap();
        assert!((rec.core_mhz - 600.0).abs() < 10.0);
    }

    #[test]
    fn throttle_caps_effective_clock_for_window() {
        let plan = FaultPlan::none().throttle(
            Schedule::once(0),
            ThrottleWindow {
                cap_mhz: 700.0,
                launches: 2,
            },
        );
        let mut d = Device::with_faults(DeviceSpec::v100(), plan);
        let k = KernelProfile::compute_bound("k", 1_000_000, 100.0);
        // Request a clock whose power demand fits under TDP, so the only
        // throttle in play is the injected fault window (at the very top
        // clock the firmware TDP loop would throttle this kernel too).
        let r1 = d.launch_at(&k, 1400.0).unwrap();
        assert!(r1.throttled);
        assert!(r1.fault_throttled, "window throttles are fault throttles");
        assert!(r1.core_mhz <= 700.0 + 15.0);
        let r2 = d.launch_at(&k, 1400.0).unwrap();
        assert!(r2.throttled);
        let r3 = d.launch_at(&k, 1400.0).unwrap();
        assert!(!r3.throttled, "window over");
        assert!(!r3.fault_throttled);
        assert!((r3.core_mhz - 1400.0).abs() < 10.0);
    }

    #[test]
    fn tdp_throttles_saturating_kernel_at_top_clock() {
        // No fault plan at all: the always-on firmware TDP loop throttles a
        // saturating compute-bound kernel whose demand at 1597 MHz exceeds
        // 300 W, and reports it in the launch record.
        let mut d = Device::new(DeviceSpec::v100());
        let k = KernelProfile::compute_bound("k", 100_000_000, 200.0);
        let rec = d.launch_at(&k, 1597.0).unwrap();
        assert!(rec.throttled);
        assert!(
            !rec.fault_throttled,
            "TDP throttling is deterministic physics, not a fault"
        );
        assert!(rec.core_mhz < 1597.0);
        assert!(rec.avg_power_w <= d.spec().tdp_w * 1.001);
    }

    #[test]
    fn set_mem_mhz_snaps_and_idempotent_requests_are_free() {
        let plan = FaultPlan::none().reject_set_frequency(Schedule::once(0));
        let mut d = Device::with_faults(DeviceSpec::v100(), plan);
        let top = d.spec().mem_freqs.max();
        // Setting the clock the device is already at consumes no
        // management op, so the scheduled rejection stays pending.
        assert_eq!(d.set_mem_mhz(top).unwrap(), top);
        let err = d.set_mem_mhz(800.0).unwrap_err();
        assert!(matches!(err, FaultError::FrequencyRejected { .. }));
        assert_eq!(d.mem_mhz(), top, "device keeps previous memory clock");
        let applied = d.set_mem_mhz(800.0).unwrap();
        assert!((applied - 810.0).abs() < 1e-9, "snapped to table entry");
        assert_eq!(d.mem_mhz(), applied);
    }

    #[test]
    fn power_cap_throttles_and_reset_clears_it() {
        let mut d = Device::new(DeviceSpec::v100());
        let k = KernelProfile::compute_bound("k", 1_000_000, 100.0);
        let free = d.launch_at(&k, 1200.0).unwrap();
        assert!(!free.throttled);
        d.set_power_cap_w(Some(120.0)).unwrap();
        let capped = d.launch_at(&k, 1200.0).unwrap();
        assert!(capped.throttled, "120 W must bind at 1200 MHz");
        assert!(!capped.fault_throttled, "cap throttling is not a fault");
        assert!(capped.core_mhz < free.core_mhz);
        assert!(capped.time_s > free.time_s, "cap stretches the body");
        assert!(capped.avg_power_w <= 120.0 + 1e-9);
        assert_eq!(d.set_power_cap_w(None).unwrap(), None);
        assert_eq!(d.power_cap_w(), None);
        let again = d.launch_at(&k, 1200.0).unwrap();
        assert_eq!(again.time_s.to_bits(), free.time_s.to_bits());
    }

    #[test]
    fn batch_reports_cap_throttled_launches_like_serial() {
        let spec = DeviceSpec::v100();
        let k = KernelProfile::compute_bound("k", 1_000_000, 100.0);
        let mut serial = Device::new(spec.clone());
        serial.set_power_cap_w(Some(150.0)).unwrap();
        let mut batched = Device::new(spec);
        batched.set_power_cap_w(Some(150.0)).unwrap();
        let mut n_fault_throttled = 0;
        let mut expected = Vec::new();
        for _ in 0..3 {
            let rec = serial.launch_at(&k, 1400.0).unwrap();
            assert!(rec.throttled, "150 W binds at 1400 MHz on this kernel");
            n_fault_throttled += u64::from(rec.fault_throttled);
            expected.push((rec.time_s, rec.energy_j));
        }
        assert_eq!(
            n_fault_throttled, 0,
            "cap throttling is configuration physics, not a fault count"
        );
        let seen = launch_priced(&mut batched, &k, 1400.0, 3);
        assert_eq!(seen, expected);
        assert_eq!(batched.energy_counter_j(), serial.energy_counter_j());
    }

    #[test]
    fn throttle_below_cap_is_not_throttled() {
        let plan = FaultPlan::none().throttle(
            Schedule::once(0),
            ThrottleWindow {
                cap_mhz: 1200.0,
                launches: 1,
            },
        );
        let mut d = Device::with_faults(DeviceSpec::v100(), plan);
        let k = KernelProfile::compute_bound("k", 1_000_000, 100.0);
        let rec = d.launch_at(&k, 800.0).unwrap();
        assert!(!rec.throttled, "request below the cap is unaffected");
        assert!((rec.core_mhz - 800.0).abs() < 10.0);
    }

    #[test]
    fn counter_reset_rewinds_energy_counter() {
        let plan = FaultPlan::none().reset_energy_counter(Schedule::once(1));
        let mut d = Device::with_faults(DeviceSpec::v100(), plan);
        let k = KernelProfile::compute_bound("k", 1_000_000, 100.0);
        d.launch(&k).unwrap();
        let after_first = d.energy_counter_j();
        assert!(after_first > 0.0);
        d.launch(&k).unwrap();
        assert_eq!(d.energy_counter_j(), 0.0, "counter reset at launch 1");
        d.launch(&k).unwrap();
        assert!(d.energy_counter_j() > 0.0);
        assert!(d.energy_counter_j() < after_first * 2.0);
    }

    #[test]
    fn transient_launch_failure_moves_nothing() {
        let plan = FaultPlan::none().fail_launches(Schedule::once(0));
        let mut d = Device::with_faults(DeviceSpec::v100(), plan);
        assert!(d.inert().is_none(), "an armed plan has no priced launches");
        let k = KernelProfile::compute_bound("k", 1_000_000, 100.0);
        let err = d.launch(&k).unwrap_err();
        assert!(matches!(err, FaultError::LaunchFailed { .. }));
        assert_eq!(d.energy_counter_j(), 0.0);
        assert_eq!(d.clock_s(), 0.0);
        // Retry (attempt index 1) succeeds.
        assert!(d.launch(&k).is_ok());
    }

    #[test]
    fn transfer_advances_counters_and_prices_by_link() {
        let mut d = Device::new(DeviceSpec::v100());
        let bytes = 150_000_000; // 1 ms at 150 GB/s
        let rec = d.transfer(bytes).unwrap();
        assert!(!rec.degraded);
        let expected_t = d.spec().link.transfer_time_s(bytes, 1.0);
        assert_eq!(rec.time_s, expected_t);
        assert_eq!(d.clock_s(), rec.time_s);
        assert_eq!(d.energy_counter_j(), rec.energy_j);
        // Power sits between the idle floor and idle + full memory power.
        let p = rec.energy_j / rec.time_s;
        assert!(p > d.spec().idle_power_w);
        assert!(p < d.spec().idle_power_w + d.spec().mem_power_w);
    }

    #[test]
    fn low_mem_clock_cheapens_transfers() {
        let mut top = Device::new(DeviceSpec::v100());
        let mut low = Device::new(DeviceSpec::v100());
        let floor = low.spec().mem_freqs.min();
        low.set_mem_mhz(floor).unwrap();
        let a = top.transfer(64_000_000).unwrap();
        let b = low.transfer(64_000_000).unwrap();
        assert_eq!(a.time_s, b.time_s, "link speed is mem-clock independent");
        assert!(b.energy_j < a.energy_j, "mem down-clock cheapens the DMA");
    }

    #[test]
    fn degraded_link_stretches_transfer_and_lost_link_moves_nothing() {
        let plan = FaultPlan::none()
            .degrade_link(Schedule::once(1), 0.25)
            .fail_link(Schedule::once(2));
        let mut d = Device::with_faults(DeviceSpec::v100(), plan);
        let clean = d.transfer(150_000_000).unwrap();
        let slow = d.transfer(150_000_000).unwrap();
        assert!(slow.degraded);
        assert!(
            slow.time_s > 3.0 * clean.time_s,
            "quarter bandwidth ≈ 4× the streaming time"
        );
        let before = (d.clock_s(), d.energy_counter_j());
        let err = d.transfer(150_000_000).unwrap_err();
        assert_eq!(err, FaultError::LinkLost);
        assert_eq!(
            (d.clock_s(), d.energy_counter_j()),
            before,
            "a lost link moves no counter"
        );
    }
}
