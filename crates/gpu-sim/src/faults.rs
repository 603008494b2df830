//! Deterministic fault injection for the simulated management stack.
//!
//! Real DVFS measurement pipelines cannot assume the management APIs they
//! drive are reliable. The fault classes modeled here each mirror a failure
//! mode of the real stack:
//!
//! * **Set-frequency rejection** — `nvmlDeviceSetApplicationsClocks` returns
//!   `NVML_ERROR_NO_PERMISSION` (application clocks locked down) or
//!   `rsmi_dev_gpu_clk_freq_set` returns `RSMI_STATUS_BUSY`; the device
//!   stays at its previous clock.
//! * **Power/thermal throttling** — the requested clock is granted but the
//!   board's power or thermal cap silently holds the *effective* clock
//!   below it for a window of launches (NVML reports this via
//!   `nvmlDeviceGetCurrentClocksThrottleReasons`; nothing fails).
//! * **Energy-counter reset** — `rsmi_dev_energy_count_get` and
//!   `nvmlDeviceGetTotalEnergyConsumption` counters wrap their fixed-width
//!   accumulators or reset on driver reload, so a later reading can be
//!   *smaller* than an earlier one.
//! * **Transient launch failure** — a kernel launch is dropped
//!   (`NVML_ERROR_GPU_IS_LOST`, ECC retirement stalls, Xid-style hiccups)
//!   and must be retried by the caller.
//!
//! A [`FaultPlan`] decides *when* each class fires: either at explicit
//! zero-based operation indices ([`Schedule::At`]) or with a per-operation
//! probability drawn from a seeded, stateless hash stream
//! ([`Schedule::Prob`]) — every decision is a pure function of
//! `(seed, stream, operation index)`, so plans are exactly reproducible and
//! independent of thread scheduling. [`FaultState`] is the per-device
//! cursor: it owns the operation counters and the active throttle window.
//! A default ([`FaultPlan::none`]) plan is inert and leaves every device
//! code path bit-identical to the pre-fault-layer behavior.

use std::collections::BTreeSet;

/// Error produced by a fault-injected device operation.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultError {
    /// A clock-change request was denied; the device keeps its previous
    /// clock (`NVML_ERROR_NO_PERMISSION` / `RSMI_STATUS_BUSY` analogue).
    FrequencyRejected {
        /// The clock that was asked for (MHz).
        requested_mhz: f64,
    },
    /// A kernel launch failed transiently and may be retried.
    LaunchFailed {
        /// Name of the kernel whose launch was dropped.
        kernel: String,
    },
    /// The peer-to-peer interconnect link dropped mid-transfer (NVLink
    /// fatal error / xGMI link retrain failure). Unlike a dropped launch
    /// this is *not* transient: the link stays down, so callers must fall
    /// back to fewer devices rather than retry.
    LinkLost,
}

impl std::fmt::Display for FaultError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultError::FrequencyRejected { requested_mhz } => {
                write!(f, "set-frequency request for {requested_mhz} MHz rejected")
            }
            FaultError::LaunchFailed { kernel } => {
                write!(f, "transient launch failure of kernel '{kernel}'")
            }
            FaultError::LinkLost => {
                write!(f, "interconnect link lost")
            }
        }
    }
}

impl std::error::Error for FaultError {}

/// When a fault stream fires, indexed by a zero-based operation counter.
#[derive(Debug, Clone, Default, PartialEq)]
pub enum Schedule {
    /// Never fires (the default).
    #[default]
    Never,
    /// Fires exactly at the listed operation indices.
    At(BTreeSet<u64>),
    /// Fires independently per operation with this probability, drawn from
    /// the plan's seeded stateless stream.
    Prob(f64),
}

impl Schedule {
    /// A schedule firing at exactly the given operation indices.
    pub fn at<I: IntoIterator<Item = u64>>(indices: I) -> Self {
        Schedule::At(indices.into_iter().collect())
    }

    /// A schedule firing once, at operation `index`.
    pub fn once(index: u64) -> Self {
        Schedule::at([index])
    }

    /// Whether this schedule can ever fire.
    pub fn is_never(&self) -> bool {
        match self {
            Schedule::Never => true,
            Schedule::At(s) => s.is_empty(),
            Schedule::Prob(p) => *p <= 0.0,
        }
    }

    /// Whether the schedule fires at operation `index`: a pure function
    /// of `(seed, stream, index)`, so any caller with its own operation
    /// counter and stream id draws reproducibly.
    pub fn fires(&self, seed: u64, stream: u64, index: u64) -> bool {
        match self {
            Schedule::Never => false,
            Schedule::At(s) => s.contains(&index),
            Schedule::Prob(p) => unit_draw(seed, stream, index) < *p,
        }
    }
}

/// One throttling episode: the effective core clock is capped at `cap_mhz`
/// for the next `launches` kernel launches.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThrottleWindow {
    /// Cap on the effective core clock (MHz), finite and positive; snapped
    /// to a supported frequency by the device.
    pub cap_mhz: f64,
    /// How many launches the cap holds for.
    pub launches: u64,
}

/// A deterministic fault-injection plan.
///
/// Build one from explicit schedules, a seeded probabilistic mix, or both;
/// the default plan injects nothing. The same plan given to two devices
/// produces the same faults at the same operation indices.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    freq_rejects: Schedule,
    launch_failures: Schedule,
    counter_resets: Schedule,
    throttle_onsets: Schedule,
    throttle_window: Option<ThrottleWindow>,
    link_degrades: Schedule,
    link_degrade_factor: Option<f64>,
    link_failures: Schedule,
}

/// Stream discriminators keeping the probabilistic draws of the fault
/// classes independent of each other.
const STREAM_FREQ_REJECT: u64 = 1;
const STREAM_LAUNCH_FAIL: u64 = 2;
const STREAM_COUNTER_RESET: u64 = 3;
const STREAM_THROTTLE: u64 = 4;
const STREAM_LINK_DEGRADE: u64 = 5;
const STREAM_LINK_FAIL: u64 = 6;

impl FaultPlan {
    /// The inert plan: no fault ever fires.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// A plan whose probabilistic schedules draw from `seed`.
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// Replaces the seed of the probabilistic streams (explicit `At`
    /// schedules are unaffected). Sweep drivers use this to re-draw faults
    /// when re-measuring a sample.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The seed of the probabilistic streams.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Rejects set-frequency requests per `schedule` (indexed by
    /// set-frequency operation).
    pub fn reject_set_frequency(mut self, schedule: Schedule) -> Self {
        self.freq_rejects = schedule;
        self
    }

    /// Fails kernel launches per `schedule` (indexed by launch attempt).
    pub fn fail_launches(mut self, schedule: Schedule) -> Self {
        self.launch_failures = schedule;
        self
    }

    /// Resets the device energy counter to zero per `schedule` (indexed by
    /// completed launch).
    pub fn reset_energy_counter(mut self, schedule: Schedule) -> Self {
        self.counter_resets = schedule;
        self
    }

    /// Starts a throttle `window` per `schedule` (indexed by launch
    /// attempt; a new window only starts when none is active).
    ///
    /// # Panics
    /// Panics unless `window.cap_mhz` is finite and positive: an infinite
    /// cap would mean "no cap" to the cursor but snap to the lowest clock
    /// on the device.
    pub fn throttle(mut self, schedule: Schedule, window: ThrottleWindow) -> Self {
        assert!(
            window.cap_mhz.is_finite() && window.cap_mhz > 0.0,
            "throttle cap must be finite and positive, got {}",
            window.cap_mhz
        );
        self.throttle_onsets = schedule;
        self.throttle_window = Some(window);
        self
    }

    /// Degrades interconnect transfers per `schedule` (indexed by transfer
    /// operation): an affected transfer still completes, but its effective
    /// link bandwidth is multiplied by `factor` (0 < factor ≤ 1) — the
    /// lane-retrain / width-downgrade failure mode of NVLink and xGMI.
    pub fn degrade_link(mut self, schedule: Schedule, factor: f64) -> Self {
        assert!(
            factor > 0.0 && factor <= 1.0,
            "link degrade factor must be in (0, 1], got {factor}"
        );
        self.link_degrades = schedule;
        self.link_degrade_factor = Some(factor);
        self
    }

    /// Drops the interconnect link per `schedule` (indexed by transfer
    /// operation). A fired transfer returns [`FaultError::LinkLost`] — a
    /// non-transient error the caller must answer by shrinking the gang.
    pub fn fail_link(mut self, schedule: Schedule) -> Self {
        self.link_failures = schedule;
        self
    }

    /// Whether this plan can never inject anything.
    pub fn is_inert(&self) -> bool {
        self.freq_rejects.is_never()
            && self.launch_failures.is_never()
            && self.counter_resets.is_never()
            && (self.throttle_onsets.is_never() || self.throttle_window.is_none())
            && (self.link_degrades.is_never() || self.link_degrade_factor.is_none())
            && self.link_failures.is_never()
    }

    /// Splits this plan into a per-device sub-plan whose probabilistic
    /// streams are statistically independent of every other device's.
    ///
    /// The sub-seed is [`substream_seed`]`(seed, device_id, purpose)` —
    /// never `seed + device_id`: a sequential splitmix64 generator seeded
    /// at `s` and `s + γ` (γ the splitmix64 increment) emits the *same*
    /// stream shifted by one, and any small additive offset leaves the
    /// per-device states on one orbit of the underlying counter. Hash
    /// mixing keeps device 0 / purpose 0 on the parent seed (a lone
    /// device sees exactly the un-split plan) while giving every other
    /// `(device, purpose)` pair its own decorrelated stream.
    ///
    /// Explicit [`Schedule::At`] indices are deliberately *not* split:
    /// they are stated facts ("launch 3 fails"), not draws.
    pub fn split_for_device(&self, device_id: u64, purpose: u64) -> FaultPlan {
        self.clone()
            .with_seed(substream_seed(self.seed, device_id, purpose))
    }
}

/// Derives an independent sub-stream seed from `(seed, device_id,
/// purpose)` by odd-constant multiply-XOR mixing — the same construction
/// as the campaign layer's slot-keyed fault streams. Identity at
/// `(device 0, purpose 0)`, so splitting is transparent for a
/// single-device fleet; full avalanche across adjacent device ids is
/// supplied by the splitmix64 finalizer every stateless draw applies on
/// top (regression-tested: adjacent ids share < 1% of fault ticks).
pub fn substream_seed(seed: u64, device_id: u64, purpose: u64) -> u64 {
    seed ^ device_id.wrapping_mul(0xA24B_AED4_963E_E407)
        ^ purpose.wrapping_mul(0x9FB2_1C65_1E98_DF25)
}

/// Per-device fault cursor: the plan plus the operation counters and the
/// active throttle window.
#[derive(Debug, Clone)]
pub struct FaultState {
    plan: FaultPlan,
    set_freq_ops: u64,
    launch_attempts: u64,
    launches_done: u64,
    transfer_ops: u64,
    throttle_remaining: u64,
    throttle_cap_mhz: f64,
}

impl FaultState {
    /// A cursor at the start of `plan`.
    pub fn new(plan: FaultPlan) -> Self {
        FaultState {
            plan,
            set_freq_ops: 0,
            launch_attempts: 0,
            launches_done: 0,
            transfer_ops: 0,
            throttle_remaining: 0,
            throttle_cap_mhz: f64::INFINITY,
        }
    }

    /// A cursor over the inert plan.
    pub fn inert() -> Self {
        FaultState::new(FaultPlan::none())
    }

    /// The plan this cursor walks.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// True when no fault can fire now or later: the plan is inert and no
    /// throttle window is in flight. Fast paths key off this.
    pub fn is_inert(&self) -> bool {
        self.plan.is_inert() && self.throttle_remaining == 0
    }

    /// Consumes one set-frequency operation; `Err` means the request is
    /// rejected and the device must keep its previous clock.
    pub fn on_set_frequency(&mut self, requested_mhz: f64) -> Result<(), FaultError> {
        let idx = self.set_freq_ops;
        self.set_freq_ops += 1;
        if self
            .plan
            .freq_rejects
            .fires(self.plan.seed, STREAM_FREQ_REJECT, idx)
        {
            return Err(FaultError::FrequencyRejected { requested_mhz });
        }
        Ok(())
    }

    /// Consumes one launch attempt. `Err` is a transient launch failure;
    /// `Ok(Some(cap))` means a throttle window is active and the effective
    /// clock must not exceed `cap` MHz; `Ok(None)` is a clean launch.
    pub fn on_launch_attempt(&mut self, kernel: &str) -> Result<Option<f64>, FaultError> {
        let idx = self.launch_attempts;
        self.launch_attempts += 1;
        if self
            .plan
            .launch_failures
            .fires(self.plan.seed, STREAM_LAUNCH_FAIL, idx)
        {
            return Err(FaultError::LaunchFailed {
                kernel: kernel.to_string(),
            });
        }
        if self.throttle_remaining == 0 {
            if let Some(w) = self.plan.throttle_window {
                if self
                    .plan
                    .throttle_onsets
                    .fires(self.plan.seed, STREAM_THROTTLE, idx)
                {
                    self.throttle_remaining = w.launches;
                    self.throttle_cap_mhz = w.cap_mhz;
                }
            }
        }
        if self.throttle_remaining > 0 {
            self.throttle_remaining -= 1;
            Ok(Some(self.throttle_cap_mhz))
        } else {
            Ok(None)
        }
    }

    /// Consumes one completed launch; `true` means the energy counter
    /// resets (wraps) at this point.
    pub fn on_launch_complete(&mut self) -> bool {
        let idx = self.launches_done;
        self.launches_done += 1;
        self.plan
            .counter_resets
            .fires(self.plan.seed, STREAM_COUNTER_RESET, idx)
    }

    /// Consumes one interconnect transfer operation. `Err(LinkLost)` means
    /// the link dropped and the transfer never completed;
    /// `Ok(Some(factor))` means the transfer completes but at `factor` of
    /// the link's nominal bandwidth; `Ok(None)` is a clean transfer.
    pub fn on_transfer(&mut self) -> Result<Option<f64>, FaultError> {
        let idx = self.transfer_ops;
        self.transfer_ops += 1;
        if self
            .plan
            .link_failures
            .fires(self.plan.seed, STREAM_LINK_FAIL, idx)
        {
            return Err(FaultError::LinkLost);
        }
        if let Some(factor) = self.plan.link_degrade_factor {
            if self
                .plan
                .link_degrades
                .fires(self.plan.seed, STREAM_LINK_DEGRADE, idx)
            {
                return Ok(Some(factor));
            }
        }
        Ok(None)
    }

    /// Launch attempts consumed so far (including failed ones).
    pub fn launch_attempts(&self) -> u64 {
        self.launch_attempts
    }

    /// Interconnect transfer operations consumed so far (including lost
    /// ones).
    pub fn transfer_ops(&self) -> u64 {
        self.transfer_ops
    }
}

impl Default for FaultState {
    fn default() -> Self {
        FaultState::inert()
    }
}

/// Stateless uniform draw in `[0, 1)` from `(seed, stream, index)` — a
/// splitmix64 finalizer over the mixed key, so fault decisions are pure
/// functions of the operation index.
fn unit_draw(seed: u64, stream: u64, index: u64) -> f64 {
    let mut z = seed
        ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ index.wrapping_mul(0xD1B5_4A32_D192_ED03);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_inert() {
        assert!(FaultPlan::none().is_inert());
        assert!(FaultState::inert().is_inert());
        let mut s = FaultState::inert();
        for i in 0..100 {
            assert!(s.on_set_frequency(800.0).is_ok());
            assert_eq!(s.on_launch_attempt("k").unwrap(), None);
            assert!(!s.on_launch_complete());
            assert_eq!(s.launch_attempts(), i + 1);
        }
    }

    #[test]
    fn explicit_schedule_fires_at_exact_indices() {
        let plan = FaultPlan::none().reject_set_frequency(Schedule::at([1, 3]));
        assert!(!plan.is_inert());
        let mut s = FaultState::new(plan);
        let results: Vec<bool> = (0..5).map(|_| s.on_set_frequency(500.0).is_err()).collect();
        assert_eq!(results, vec![false, true, false, true, false]);
    }

    #[test]
    fn throttle_window_caps_for_its_duration() {
        let plan = FaultPlan::none().throttle(
            Schedule::once(1),
            ThrottleWindow {
                cap_mhz: 700.0,
                launches: 3,
            },
        );
        let mut s = FaultState::new(plan);
        assert_eq!(s.on_launch_attempt("k").unwrap(), None);
        for _ in 0..3 {
            assert_eq!(s.on_launch_attempt("k").unwrap(), Some(700.0));
        }
        assert_eq!(s.on_launch_attempt("k").unwrap(), None);
    }

    #[test]
    #[should_panic(expected = "throttle cap must be finite and positive")]
    fn infinite_throttle_cap_panics() {
        let _ = FaultPlan::none().throttle(
            Schedule::once(0),
            ThrottleWindow {
                cap_mhz: f64::INFINITY,
                launches: 1,
            },
        );
    }

    #[test]
    fn probabilistic_streams_are_deterministic_and_seed_sensitive() {
        let draw = |seed: u64| -> Vec<bool> {
            let mut s = FaultState::new(FaultPlan::seeded(seed).fail_launches(Schedule::Prob(0.3)));
            (0..64).map(|_| s.on_launch_attempt("k").is_err()).collect()
        };
        assert_eq!(draw(7), draw(7), "same seed, same faults");
        assert_ne!(draw(7), draw(8), "different seed, different faults");
        let fails = draw(7).iter().filter(|&&f| f).count();
        assert!((5..30).contains(&fails), "rate ~0.3 of 64, got {fails}");
    }

    #[test]
    fn probability_bounds_behave() {
        let mut never = FaultState::new(FaultPlan::seeded(1).fail_launches(Schedule::Prob(0.0)));
        let mut always = FaultState::new(FaultPlan::seeded(1).fail_launches(Schedule::Prob(1.0)));
        for _ in 0..32 {
            assert!(never.on_launch_attempt("k").is_ok());
            assert!(always.on_launch_attempt("k").is_err());
        }
    }

    #[test]
    fn link_schedules_fire_on_the_transfer_stream() {
        let plan = FaultPlan::none()
            .degrade_link(Schedule::at([1]), 0.5)
            .fail_link(Schedule::at([3]));
        assert!(!plan.is_inert());
        let mut s = FaultState::new(plan);
        assert_eq!(s.on_transfer().unwrap(), None);
        assert_eq!(s.on_transfer().unwrap(), Some(0.5));
        assert_eq!(s.on_transfer().unwrap(), None);
        assert_eq!(s.on_transfer().unwrap_err(), FaultError::LinkLost);
        assert_eq!(s.transfer_ops(), 4);
        // Transfers share no stream with launches: the launch cursor is
        // untouched.
        assert_eq!(s.on_launch_attempt("k").unwrap(), None);
    }

    #[test]
    fn counter_reset_stream_indexes_completed_launches() {
        let plan = FaultPlan::none().reset_energy_counter(Schedule::at([2]));
        let mut s = FaultState::new(plan);
        assert!(!s.on_launch_complete());
        assert!(!s.on_launch_complete());
        assert!(s.on_launch_complete());
        assert!(!s.on_launch_complete());
    }

    #[test]
    fn streams_are_independent() {
        // A plan failing every launch must not perturb set-frequency ops.
        let mut s = FaultState::new(FaultPlan::seeded(3).fail_launches(Schedule::Prob(1.0)));
        for _ in 0..16 {
            assert!(s.on_set_frequency(1000.0).is_ok());
        }
    }

    /// Which launch ticks fail for one device's split of `plan`.
    fn fault_ticks(plan: &FaultPlan, device_id: u64, ticks: u64) -> BTreeSet<u64> {
        let mut s = FaultState::new(plan.split_for_device(device_id, 0));
        (0..ticks)
            .filter(|_| s.on_launch_attempt("k").is_err())
            .collect()
    }

    #[test]
    fn adjacent_device_streams_share_under_one_percent_of_fault_ticks() {
        // The regression this pins: deriving per-device seeds by adding
        // small indices to one splitmix64 seed leaves the streams
        // correlated (an offset of the generator increment reproduces the
        // whole neighbor stream shifted by one). Hash-split streams must
        // be statistically independent: with p = 0.0005 over 400k ticks,
        // independent streams coincide on ~p·|A| ≈ 0.05% of A's fault
        // ticks, so requiring < 1% leaves a 20× margin over the
        // expectation — while additively-derived streams share nearly
        // all of them. The draw is a pure function of (seed, device,
        // index) — this is a fixed computation, not a flaky statistical
        // bound.
        for base_seed in [1u64, 7, 20230521, 20231112] {
            let plan = FaultPlan::seeded(base_seed).fail_launches(Schedule::Prob(0.0005));
            for device in 0..4u64 {
                let a = fault_ticks(&plan, device, 400_000);
                let b = fault_ticks(&plan, device + 1, 400_000);
                assert!(
                    a.len() > 100,
                    "seed {base_seed}: stream too sparse to be meaningful"
                );
                let shared = a.intersection(&b).count();
                assert!(
                    (shared as f64) < 0.01 * a.len() as f64,
                    "seed {base_seed}, devices {device}/{}: {shared} of {} fault \
                     ticks shared (≥1%)",
                    device + 1,
                    a.len()
                );
            }
        }
    }

    #[test]
    fn substream_split_is_identity_for_device_zero_and_purpose_separated() {
        let plan = FaultPlan::seeded(42).fail_launches(Schedule::Prob(0.2));
        // A lone device sees the un-split plan bit-for-bit.
        assert_eq!(plan.split_for_device(0, 0), plan);
        assert_eq!(substream_seed(42, 0, 0), 42);
        // Distinct devices and distinct purposes get distinct seeds.
        assert_ne!(substream_seed(42, 1, 0), 42);
        assert_ne!(substream_seed(42, 1, 0), substream_seed(42, 2, 0));
        assert_ne!(substream_seed(42, 1, 0), substream_seed(42, 1, 1));
        // And the derivation is deterministic.
        assert_eq!(substream_seed(42, 3, 2), substream_seed(42, 3, 2));
    }
}
