//! The profiled submission queue.
//!
//! [`SynergyQueue`] is the application-facing object: Cronos and LiGen
//! submit [`KernelProfile`]s to it exactly where the real codes submit SYCL
//! kernels to a `synergy::queue`. Every submission is profiled (time and
//! energy, like SYnergy's event-based profiling) and the queue's
//! [`FrequencyPolicy`] decides the core clock for each kernel.

use gpu_sim::device::{Device, LaunchRecord};
use gpu_sim::kernel::KernelProfile;
use gpu_sim::level_zero::ZeDevice;
use gpu_sim::nvml::NvmlDevice;
use gpu_sim::rocm::RocmDevice;
use gpu_sim::{DeviceSpec, Vendor};

use crate::backend::{Backend, BackendError, LevelZeroBackend, NvmlBackend, RocmBackend};
use crate::energy::Measurement;
use crate::metrics::{DegradationMetrics, EnergyCounterHealer};
use crate::replay::{FusedReplay, KernelSlot, KernelTrace};
use crate::scaling::FrequencyPolicy;

use std::sync::Arc;

use parking_lot::Mutex;

/// Profiling data for one completed submission (the SYCL event analogue,
/// extended with SYnergy's energy counter).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProfiledEvent {
    /// Kernel wall-clock time (s).
    pub time_s: f64,
    /// Kernel energy (J).
    pub energy_j: f64,
    /// Core clock the kernel ran at (MHz).
    pub core_mhz: f64,
    /// Whether the effective clock was throttled below the requested one.
    pub throttled: bool,
}

impl From<LaunchRecord> for ProfiledEvent {
    fn from(r: LaunchRecord) -> Self {
        ProfiledEvent {
            time_s: r.time_s,
            energy_j: r.energy_j,
            core_mhz: r.core_mhz,
            throttled: r.throttled,
        }
    }
}

/// How a queue rides out transient management-API failures: bounded retries
/// with deterministic exponential backoff, then (optionally) one last round
/// at the vendor default clock before giving up.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Retries per clock configuration after the first attempt.
    pub max_retries: u32,
    /// Backoff before the first retry (simulated seconds).
    pub backoff_base_s: f64,
    /// Multiplier applied to the backoff per successive failure.
    pub backoff_factor: f64,
    /// After exhausting retries at the requested clock, try the default
    /// clock configuration (degraded but measurable) before failing.
    pub fallback_to_default: bool,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 3,
            backoff_base_s: 1e-4,
            backoff_factor: 2.0,
            fallback_to_default: true,
        }
    }
}

impl RetryPolicy {
    /// Fail on the first error: no retries, no fallback.
    pub fn none() -> Self {
        RetryPolicy {
            max_retries: 0,
            backoff_base_s: 0.0,
            backoff_factor: 1.0,
            fallback_to_default: false,
        }
    }

    /// Deterministic backoff before the retry following failure number
    /// `failure_index` (0-based).
    pub fn backoff_s(&self, failure_index: u32) -> f64 {
        self.backoff_base_s * self.backoff_factor.powi(failure_index as i32)
    }

    /// Hard upper bound on launch attempts for a single submission — the
    /// bound the retry loop provably terminates within.
    pub fn max_attempts_per_launch(&self) -> u32 {
        (1 + u32::from(self.fallback_to_default)) * (self.max_retries + 1)
    }
}

/// A submission the retry policy could not complete.
#[derive(Debug, Clone, PartialEq)]
pub struct SubmitError {
    /// Kernel that was being submitted.
    pub kernel: String,
    /// Launch attempts made before giving up.
    pub attempts: u32,
    /// The error of the final attempt.
    pub last_error: BackendError,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "submission of '{}' abandoned after {} attempt(s): {}",
            self.kernel, self.attempts, self.last_error
        )
    }
}

impl std::error::Error for SubmitError {}

/// A profiled, frequency-scaling submission queue over one device.
pub struct SynergyQueue {
    backend: Box<dyn Backend>,
    policy: FrequencyPolicy,
    retry: RetryPolicy,
    degradation: DegradationMetrics,
    healer: EnergyCounterHealer,
    submissions: u64,
    total_time_s: f64,
    total_energy_j: f64,
    transfer_count: u64,
    transfer_bytes: u64,
    transfer_time_s: f64,
    transfer_energy_j: f64,
    watchdog_deadline_s: Option<f64>,
    /// Storage of the fused replay path, reused from replay to replay.
    replay_kernels: Vec<KernelSlot>,
}

impl SynergyQueue {
    /// Builds a queue over an arbitrary backend.
    pub fn new(backend: Box<dyn Backend>) -> Self {
        SynergyQueue {
            backend,
            policy: FrequencyPolicy::DeviceDefault,
            retry: RetryPolicy::default(),
            degradation: DegradationMetrics::default(),
            healer: EnergyCounterHealer::new(),
            submissions: 0,
            total_time_s: 0.0,
            total_energy_j: 0.0,
            transfer_count: 0,
            transfer_bytes: 0,
            transfer_time_s: 0.0,
            transfer_energy_j: 0.0,
            watchdog_deadline_s: None,
            replay_kernels: Vec::new(),
        }
    }

    /// Queue over an NVIDIA device (NVML backend).
    ///
    /// # Panics
    /// Panics if the device is not an NVIDIA GPU.
    pub fn nvidia(device: Device) -> Self {
        assert_eq!(
            device.spec().vendor,
            Vendor::Nvidia,
            "SynergyQueue::nvidia needs an NVIDIA device"
        );
        let shared = Arc::new(Mutex::new(device));
        SynergyQueue::new(Box::new(NvmlBackend::new(NvmlDevice::from_shared(shared))))
    }

    /// Queue over an AMD device (ROCm-SMI backend).
    ///
    /// # Panics
    /// Panics if the device is not an AMD GPU.
    pub fn amd(device: Device) -> Self {
        assert_eq!(
            device.spec().vendor,
            Vendor::Amd,
            "SynergyQueue::amd needs an AMD device"
        );
        let shared = Arc::new(Mutex::new(device));
        SynergyQueue::new(Box::new(RocmBackend::new(RocmDevice::from_shared(shared))))
    }

    /// Queue over an Intel device (Level Zero backend).
    ///
    /// # Panics
    /// Panics if the device is not an Intel GPU.
    pub fn intel(device: Device) -> Self {
        assert_eq!(
            device.spec().vendor,
            Vendor::Intel,
            "SynergyQueue::intel needs an Intel device"
        );
        let shared = Arc::new(Mutex::new(device));
        SynergyQueue::new(Box::new(LevelZeroBackend::new(ZeDevice::from_shared(
            shared,
        ))))
    }

    /// Queue over any simulated device, dispatching on its vendor.
    pub fn for_device(device: Device) -> Self {
        match device.spec().vendor {
            Vendor::Nvidia => SynergyQueue::nvidia(device),
            Vendor::Amd => SynergyQueue::amd(device),
            Vendor::Intel => SynergyQueue::intel(device),
        }
    }

    /// Queue over a fresh device built from `spec`.
    pub fn for_spec(spec: DeviceSpec) -> Self {
        SynergyQueue::for_device(Device::new(spec))
    }

    /// Sets the frequency policy for subsequent submissions.
    pub fn set_policy(&mut self, policy: FrequencyPolicy) {
        self.policy = policy;
    }

    /// The active frequency policy.
    pub fn policy(&self) -> &FrequencyPolicy {
        &self.policy
    }

    /// Sets the retry policy for subsequent submissions.
    pub fn set_retry_policy(&mut self, retry: RetryPolicy) {
        self.retry = retry;
    }

    /// The active retry policy.
    pub fn retry_policy(&self) -> RetryPolicy {
        self.retry
    }

    /// Arms (or disarms, with `None`) a watchdog deadline on the queue's
    /// cumulative busy time. The queue never aborts work itself — launches
    /// in flight always complete — but once [`SynergyQueue::total_time_s`]
    /// exceeds the deadline, [`SynergyQueue::watchdog_tripped`] reports it,
    /// and a supervisor (the campaign scheduler) treats the measurement as
    /// a deadline miss: the device is suspect, the sample is discarded.
    pub fn set_watchdog_deadline(&mut self, deadline_s: Option<f64>) {
        if let Some(d) = deadline_s {
            assert!(d > 0.0, "watchdog deadline must be positive");
        }
        self.watchdog_deadline_s = deadline_s;
    }

    /// The armed watchdog deadline, if any (simulated seconds of busy time).
    pub fn watchdog_deadline_s(&self) -> Option<f64> {
        self.watchdog_deadline_s
    }

    /// True once the queue's cumulative busy time has exceeded the armed
    /// watchdog deadline. Always false while disarmed.
    pub fn watchdog_tripped(&self) -> bool {
        self.watchdog_deadline_s
            .is_some_and(|d| self.total_time_s > d)
    }

    /// The queue's degradation counters: everything the retry/healing
    /// machinery had to paper over so far.
    pub fn degradation(&self) -> DegradationMetrics {
        self.degradation
    }

    /// Audits one gang-shrink event in
    /// [`DegradationMetrics::link_fallbacks`]. A lost link is not healed
    /// per transfer attempt (it is non-transient), so the distributed
    /// driver that degrades to fewer devices records the fallback here on
    /// the queue that absorbed the work.
    pub fn note_link_fallback(&mut self) {
        self.degradation.link_fallbacks += 1;
    }

    /// The device's cumulative energy (J) with counter rewinds healed away
    /// — monotone non-decreasing across submissions even when the raw
    /// counter wraps or resets.
    pub fn device_energy_j(&mut self) -> f64 {
        self.observe_counter();
        self.healer.healed_j()
    }

    /// Device name.
    pub fn device_name(&self) -> String {
        self.backend.device_name()
    }

    /// Device vendor.
    pub fn vendor(&self) -> Vendor {
        self.backend.vendor()
    }

    /// Supported memory frequencies, ascending (MHz). Empty when the
    /// backend exposes no controllable memory domain.
    pub fn supported_memory_frequencies(&self) -> Vec<f64> {
        self.backend.supported_memory_frequencies()
    }

    /// Sets the device memory clock (`None` = vendor default, the top of
    /// the table), riding out transient rejections under the retry policy.
    /// When the requested clock keeps failing and the policy allows
    /// fallback, the queue restores the default memory clock instead —
    /// degraded but measurable — and records it in
    /// [`DegradationMetrics::mem_clock_fallbacks`]. Restoring the default is
    /// idempotent when the rejected request never moved the clock, so the
    /// fallback succeeds without consuming a management op.
    pub fn set_memory_frequency(&mut self, mem_mhz: Option<f64>) -> Result<f64, BackendError> {
        self.set_with_fallback(
            mem_mhz,
            |b, m| b.set_memory_frequency(m),
            |d| &mut d.mem_clock_fallbacks,
        )
    }

    /// Sets (or clears, with `None`) the operator power cap, riding out
    /// transient rejections under the retry policy. An unreachable cap
    /// degrades to the uncapped (TDP-only) configuration when fallback is
    /// allowed, recorded in [`DegradationMetrics::power_cap_fallbacks`].
    pub fn set_power_cap(&mut self, cap_w: Option<f64>) -> Result<Option<f64>, BackendError> {
        self.set_with_fallback(
            cap_w,
            |b, c| b.set_power_cap(c),
            |d| &mut d.power_cap_fallbacks,
        )
    }

    /// The retry loop of a management call: `set(request)` is retried with
    /// backoff while its failures are transient and the budget lasts, then,
    /// when the policy allows fallback and `request` is not already the
    /// default, `set(None)` restores the vendor default and bumps the
    /// `fallbacks` counter. A rejected fallback is noted like any other
    /// failure, and the caller gets the request's error, not the
    /// fallback's.
    fn set_with_fallback<V: Copy, T>(
        &mut self,
        request: Option<V>,
        set: impl Fn(&mut dyn Backend, Option<V>) -> Result<T, BackendError>,
        fallbacks: impl FnOnce(&mut DegradationMetrics) -> &mut u64,
    ) -> Result<T, BackendError> {
        let mut failures = 0u32;
        loop {
            let e = match set(&mut *self.backend, request) {
                Ok(v) => return Ok(v),
                Err(e) => e,
            };
            self.note_error(&e);
            if e.is_transient() && failures < self.retry.max_retries {
                self.backoff(failures);
                failures += 1;
                self.degradation.retries += 1;
            } else if self.retry.fallback_to_default && request.is_some() {
                return match set(&mut *self.backend, None) {
                    Ok(v) => {
                        *fallbacks(&mut self.degradation) += 1;
                        Ok(v)
                    }
                    Err(fallback) => {
                        self.note_error(&fallback);
                        Err(e)
                    }
                };
            } else {
                return Err(e);
            }
        }
    }

    /// The operator power cap currently in force, if any.
    pub fn power_cap_w(&self) -> Option<f64> {
        self.backend.power_cap()
    }

    /// Submits a kernel under the active policy and returns its profile.
    ///
    /// # Panics
    /// Panics if the retry policy gives up — use [`SynergyQueue::try_submit`]
    /// to handle permanent failure without unwinding.
    pub fn submit(&mut self, kernel: &KernelProfile) -> ProfiledEvent {
        self.try_submit(kernel)
            .unwrap_or_else(|e| panic!("{e} (use try_submit to handle this)"))
    }

    /// Submits a kernel at an explicit frequency, bypassing the policy
    /// (`None` = device default).
    ///
    /// # Panics
    /// Panics if the retry policy gives up — use
    /// [`SynergyQueue::try_submit_at`] to handle permanent failure.
    pub fn submit_at(&mut self, kernel: &KernelProfile, freq_mhz: Option<f64>) -> ProfiledEvent {
        self.try_submit_at(kernel, freq_mhz)
            .unwrap_or_else(|e| panic!("{e} (use try_submit_at to handle this)"))
    }

    /// Fallible [`SynergyQueue::submit`]: rides out transient faults under
    /// the retry policy and returns an error only on permanent failure.
    pub fn try_submit(&mut self, kernel: &KernelProfile) -> Result<ProfiledEvent, SubmitError> {
        let freq = self.policy.frequency_for(&kernel.name);
        self.try_submit_inner(kernel, freq)
    }

    /// Fallible [`SynergyQueue::submit_at`].
    pub fn try_submit_at(
        &mut self,
        kernel: &KernelProfile,
        freq_mhz: Option<f64>,
    ) -> Result<ProfiledEvent, SubmitError> {
        self.try_submit_inner(kernel, freq_mhz)
    }

    /// One segment of a [`KernelTrace`] replay that the fused path declined:
    /// `n` back-to-back launches of `kernel` under the active policy, one
    /// [`Backend::launch`] each, the totals advancing launch by launch. A
    /// pass runs launches until one fails. A transient failure retries the
    /// *remainder* (completed launches are never re-run), falling back to
    /// the default clock when the requested one keeps failing. The retry
    /// budget resets whenever a pass makes progress, so the loop is bounded
    /// by `(n + 1) × max_attempts_per_launch` passes. Each pass is one
    /// attempt and one counter reading.
    pub(crate) fn try_submit_segment(
        &mut self,
        kernel: &KernelProfile,
        n: u64,
    ) -> Result<Measurement, SubmitError> {
        let mut segment = Measurement {
            time_s: 0.0,
            energy_j: 0.0,
        };
        let mut remaining = n;
        let mut attempts = 0u32;
        let mut failures_since_progress = 0u32;
        let mut active_freq = self.policy.frequency_for(&kernel.name);
        let mut fell_back = false;
        loop {
            let mut done = 0u64;
            let mut failure = None;
            while failure.is_none() && done < remaining {
                match self.backend.launch(kernel, active_freq) {
                    Ok(rec) => {
                        // Counted as it runs, like a single submit, so a
                        // pass that fails later still counts it.
                        self.degradation.throttled_launches += u64::from(rec.fault_throttled);
                        self.total_time_s += rec.time_s;
                        self.total_energy_j += rec.energy_j;
                        segment.time_s += rec.time_s;
                        segment.energy_j += rec.energy_j;
                        done += 1;
                    }
                    Err(e) => failure = Some(e),
                }
            }
            self.submissions += done;
            attempts = attempts.saturating_add(1);
            let Some(e) = failure else {
                if fell_back {
                    self.degradation.default_clock_fallbacks += 1;
                }
                self.observe_counter();
                return Ok(segment);
            };
            remaining -= done;
            if done > 0 {
                failures_since_progress = 0;
            }
            self.note_error(&e);
            self.observe_counter();
            if !e.is_transient() {
                return Err(self.submit_error(kernel, attempts, e));
            }
            if failures_since_progress < self.retry.max_retries {
                self.backoff(failures_since_progress);
                failures_since_progress += 1;
                self.degradation.retries += 1;
            } else if self.retry.fallback_to_default && active_freq.is_some() {
                active_freq = None;
                fell_back = true;
                failures_since_progress = 0;
                self.degradation.retries += 1;
            } else {
                return Err(self.submit_error(kernel, attempts, e));
            }
        }
    }

    /// The fused path of [`KernelTrace::try_replay_on`]: the whole trace in
    /// one [`Backend::replay_trace`] call, at the clocks the active policy
    /// assigns its distinct kernels. Leaves the queue's totals and
    /// submission count as segment-by-segment submission does. `None` when
    /// the backend declines; nothing has run then.
    pub(crate) fn replay_fused(&mut self, trace: &KernelTrace) -> Option<Measurement> {
        let launches = trace.total_launches();
        if launches == 0 {
            return Some(Measurement {
                time_s: 0.0,
                energy_j: 0.0,
            });
        }
        let mut totals = Measurement {
            time_s: self.total_time_s,
            energy_j: self.total_energy_j,
        };
        let replay = FusedReplay::new(trace, &self.policy, &mut self.replay_kernels, &mut totals);
        let m = self.backend.replay_trace(replay)?;
        self.total_time_s = totals.time_s;
        self.total_energy_j = totals.energy_j;
        self.submissions += launches;
        // With an inert fault plan and positive noise factors the raw
        // counter only grows, so one reading after the replay leaves the
        // healer where a reading after every segment would.
        self.observe_counter();
        Some(m)
    }

    fn try_submit_inner(
        &mut self,
        kernel: &KernelProfile,
        freq: Option<f64>,
    ) -> Result<ProfiledEvent, SubmitError> {
        let mut attempts = 0u32;
        let mut failures = 0u32;
        let rounds: &[Option<f64>] = if self.retry.fallback_to_default && freq.is_some() {
            &[freq, None]
        } else {
            &[freq]
        };
        let mut last_error = None;
        'rounds: for (round, &f) in rounds.iter().enumerate() {
            for retry in 0..=self.retry.max_retries {
                if attempts > 0 {
                    // A previous attempt failed; wait deterministically
                    // before this one.
                    self.backoff(failures - 1);
                    self.degradation.retries += 1;
                }
                attempts += 1;
                match self.backend.launch(kernel, f) {
                    Ok(rec) => {
                        if round > 0 {
                            self.degradation.default_clock_fallbacks += 1;
                        }
                        if rec.fault_throttled {
                            self.degradation.throttled_launches += 1;
                        }
                        self.submissions += 1;
                        self.total_time_s += rec.time_s;
                        self.total_energy_j += rec.energy_j;
                        self.observe_counter();
                        return Ok(rec.into());
                    }
                    Err(e) => {
                        failures += 1;
                        self.note_error(&e);
                        self.observe_counter();
                        let transient = e.is_transient();
                        last_error = Some(e);
                        if !transient {
                            // Retrying the identical call cannot help;
                            // a different clock round still might.
                            let _ = retry;
                            continue 'rounds;
                        }
                    }
                }
            }
        }
        let e = last_error.expect("at least one attempt was made");
        Err(self.submit_error(kernel, attempts, e))
    }

    fn submit_error(&self, kernel: &KernelProfile, attempts: u32, e: BackendError) -> SubmitError {
        SubmitError {
            kernel: kernel.name.clone(),
            attempts,
            last_error: e,
        }
    }

    fn note_error(&mut self, e: &BackendError) {
        match e {
            BackendError::FrequencyRejected { .. } => self.degradation.frequency_rejections += 1,
            BackendError::LaunchFailed { .. } => self.degradation.launch_failures += 1,
            // A lost link is accounted by the distributed driver that
            // falls back (DegradationMetrics::link_fallbacks), not per
            // failed transfer attempt.
            BackendError::LinkLost => {}
            BackendError::Management(_) => {}
        }
    }

    /// Reads the raw device counter and folds any rewind into the healer.
    fn observe_counter(&mut self) {
        let raw = self.backend.energy_counter_j();
        self.healer.observe(raw);
        self.degradation.counter_rewinds_healed = self.healer.rewinds();
    }

    /// Charges one deterministic backoff wait to the device as idle time.
    fn backoff(&mut self, failure_index: u32) {
        let dt = self.retry.backoff_s(failure_index);
        if dt > 0.0 {
            self.backend.idle_wait(dt);
            self.degradation.backoff_ns += (dt * 1e9).round() as u64;
        }
    }

    /// Lets device time pass without work, accumulating it (and the idle
    /// energy the device charges for it) into the queue's totals. A
    /// distributed driver parks laggard devices here at its lockstep
    /// barriers so barrier waits show up as honest idle energy.
    ///
    /// # Panics
    /// Panics on negative `dt_s`.
    pub fn idle_wait(&mut self, dt_s: f64) {
        assert!(dt_s >= 0.0, "time cannot run backwards");
        if dt_s == 0.0 {
            return;
        }
        let before = self.device_energy_j();
        self.backend.idle_wait(dt_s);
        let after = self.device_energy_j();
        self.total_time_s += dt_s;
        self.total_energy_j += (after - before).max(0.0);
    }

    /// Moves `bytes` over the device's peer-to-peer interconnect port (one
    /// directed halo message of a domain-decomposed solver), accumulating
    /// the transfer's time and energy into the queue's totals.
    ///
    /// A degraded transfer (link retrained to a fraction of its lanes)
    /// still completes and is recorded in
    /// [`DegradationMetrics::link_degradations`]; a *lost* link is
    /// non-transient, so the retry policy does not loop — the error is
    /// returned at once for the distributed driver to shrink the gang.
    pub fn try_submit_transfer(&mut self, bytes: u64) -> Result<Measurement, SubmitError> {
        match self.backend.transfer(bytes) {
            Ok(rec) => {
                if rec.degraded {
                    self.degradation.link_degradations += 1;
                }
                self.transfer_count += 1;
                self.transfer_bytes += bytes;
                self.transfer_time_s += rec.time_s;
                self.transfer_energy_j += rec.energy_j;
                self.total_time_s += rec.time_s;
                self.total_energy_j += rec.energy_j;
                self.observe_counter();
                Ok(Measurement {
                    time_s: rec.time_s,
                    energy_j: rec.energy_j,
                })
            }
            Err(e) => {
                self.note_error(&e);
                self.observe_counter();
                Err(SubmitError {
                    kernel: "link::transfer".to_string(),
                    attempts: 1,
                    last_error: e,
                })
            }
        }
    }

    /// Interconnect transfers completed so far.
    pub fn transfer_count(&self) -> u64 {
        self.transfer_count
    }

    /// Bytes moved over the interconnect so far.
    pub fn transfer_bytes(&self) -> u64 {
        self.transfer_bytes
    }

    /// Time spent in interconnect transfers (s), a subset of
    /// [`SynergyQueue::total_time_s`].
    pub fn transfer_time_s(&self) -> f64 {
        self.transfer_time_s
    }

    /// Energy spent in interconnect transfers (J), a subset of
    /// [`SynergyQueue::total_energy_j`].
    pub fn transfer_energy_j(&self) -> f64 {
        self.transfer_energy_j
    }

    /// Number of kernels submitted so far.
    pub fn submission_count(&self) -> u64 {
        self.submissions
    }

    /// Sum of kernel times (s) over the queue's lifetime.
    pub fn total_time_s(&self) -> f64 {
        self.total_time_s
    }

    /// Sum of kernel energies (J) over the queue's lifetime.
    pub fn total_energy_j(&self) -> f64 {
        self.total_energy_j
    }
}

impl std::fmt::Debug for SynergyQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SynergyQueue")
            .field("device", &self.backend.device_name())
            .field("submissions", &self.submissions)
            .field("total_time_s", &self.total_time_s)
            .field("total_energy_j", &self.total_energy_j)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::{Device, DeviceSpec, KernelProfile};

    fn v100_queue() -> SynergyQueue {
        SynergyQueue::nvidia(Device::new(DeviceSpec::v100()))
    }

    #[test]
    fn submit_accumulates_counters() {
        let mut q = v100_queue();
        let k = KernelProfile::compute_bound("k", 1_000_000, 100.0);
        let e1 = q.submit(&k);
        let e2 = q.submit(&k);
        assert_eq!(q.submission_count(), 2);
        assert!((q.total_time_s() - e1.time_s - e2.time_s).abs() < 1e-15);
        assert!((q.total_energy_j() - e1.energy_j - e2.energy_j).abs() < 1e-12);
    }

    #[test]
    fn fixed_policy_changes_clock() {
        let mut q = v100_queue();
        let k = KernelProfile::compute_bound("k", 1_000_000, 100.0);
        let def = q.submit(&k);
        q.set_policy(FrequencyPolicy::Fixed(600.0));
        let slow = q.submit(&k);
        assert!(slow.core_mhz < def.core_mhz);
        assert!(slow.time_s > def.time_s);
    }

    #[test]
    fn per_kernel_policy_dispatches_by_name() {
        let mut q = v100_queue();
        q.set_policy(FrequencyPolicy::per_kernel([("a", 500.0)], None));
        let ka = KernelProfile::compute_bound("a", 1_000_000, 100.0);
        let kb = KernelProfile::compute_bound("b", 1_000_000, 100.0);
        let ea = q.submit(&ka);
        let eb = q.submit(&kb);
        assert!(ea.core_mhz < 520.0);
        assert!((eb.core_mhz - 1312.1).abs() < 1.0);
    }

    #[test]
    fn vendor_dispatch() {
        let q = SynergyQueue::for_spec(DeviceSpec::mi100());
        assert_eq!(q.vendor(), Vendor::Amd);
        let q2 = SynergyQueue::for_spec(DeviceSpec::v100());
        assert_eq!(q2.vendor(), Vendor::Nvidia);
    }

    #[test]
    #[should_panic(expected = "needs an NVIDIA device")]
    fn nvidia_constructor_rejects_amd() {
        let _ = SynergyQueue::nvidia(Device::new(DeviceSpec::mi100()));
    }

    #[test]
    fn intel_queue_round_trips() {
        let mut q = SynergyQueue::for_spec(DeviceSpec::max1100());
        assert_eq!(q.vendor(), Vendor::Intel);
        let k = KernelProfile::compute_bound("k", 1 << 20, 200.0);
        let ev = q.submit(&k);
        assert_eq!(ev.core_mhz, 1450.0);
        q.set_policy(FrequencyPolicy::Fixed(700.0));
        let slow = q.submit(&k);
        assert!(slow.core_mhz < 750.0);
        assert!(slow.time_s > ev.time_s);
    }

    #[test]
    fn submit_at_bypasses_policy() {
        let mut q = v100_queue();
        q.set_policy(FrequencyPolicy::Fixed(1597.0));
        let k = KernelProfile::compute_bound("k", 1_000_000, 100.0);
        let ev = q.submit_at(&k, Some(135.0));
        assert!(ev.core_mhz < 200.0);
    }

    #[test]
    fn try_submit_segment_matches_serial_submits_bitwise() {
        for spec in [
            DeviceSpec::v100(),
            DeviceSpec::mi100(),
            DeviceSpec::max1100(),
        ] {
            let mut serial = SynergyQueue::for_spec(spec.clone());
            let mut batched = SynergyQueue::for_spec(spec);
            let k = KernelProfile::compute_bound("k", 1_000_000, 100.0);
            for q in [&mut serial, &mut batched] {
                q.set_policy(FrequencyPolicy::Fixed(800.0));
            }
            for _ in 0..6 {
                serial.submit(&k);
            }
            let m = batched.try_submit_segment(&k, 6).unwrap();
            assert_eq!(batched.total_time_s(), serial.total_time_s());
            assert_eq!(batched.total_energy_j(), serial.total_energy_j());
            assert_eq!(batched.submission_count(), 6);
            assert_eq!(m.time_s, serial.total_time_s());
            assert_eq!(m.energy_j, serial.total_energy_j());
        }
    }

    #[test]
    fn try_submit_segment_default_policy_matches_vendor_baseline() {
        for spec in [
            DeviceSpec::v100(),
            DeviceSpec::mi100(),
            DeviceSpec::max1100(),
        ] {
            let mut serial = SynergyQueue::for_spec(spec.clone());
            let mut batched = SynergyQueue::for_spec(spec);
            let k = KernelProfile::memory_bound("k", 2_000_000, 48.0);
            for _ in 0..3 {
                serial.submit(&k);
            }
            batched.try_submit_segment(&k, 3).unwrap();
            assert_eq!(batched.total_time_s(), serial.total_time_s());
            assert_eq!(batched.total_energy_j(), serial.total_energy_j());
        }
    }

    #[test]
    fn try_submit_segment_of_zero_is_a_noop() {
        let mut q = v100_queue();
        let k = KernelProfile::compute_bound("k", 1_000_000, 100.0);
        let m = q.try_submit_segment(&k, 0).unwrap();
        assert_eq!(m.time_s, 0.0);
        assert_eq!(q.submission_count(), 0);
    }

    #[test]
    fn mem_clock_and_power_cap_actuators_round_trip() {
        let mut q = v100_queue();
        assert_eq!(
            q.supported_memory_frequencies(),
            vec![703.0, 810.0, 958.0, 1107.0]
        );
        assert_eq!(q.set_memory_frequency(Some(810.0)).unwrap(), 810.0);
        assert_eq!(q.set_memory_frequency(None).unwrap(), 1107.0);
        assert_eq!(q.set_power_cap(Some(100.0)).unwrap(), Some(100.0));
        assert_eq!(q.power_cap_w(), Some(100.0));
        let k = KernelProfile::compute_bound("k", 1_000_000, 100.0);
        let capped = q.submit(&k);
        assert!(capped.throttled, "a 100 W cap binds at the default clock");
        assert_eq!(q.set_power_cap(None).unwrap(), None);
        assert_eq!(q.power_cap_w(), None);
    }

    #[test]
    fn rejected_mem_clock_set_falls_back_to_default() {
        use gpu_sim::{FaultPlan, Schedule};
        let plan = FaultPlan::seeded(7).reject_set_frequency(Schedule::Prob(1.0));
        let mut q = SynergyQueue::nvidia(Device::with_faults(DeviceSpec::v100(), plan));
        // Every mem-clock change is rejected; restoring the default is
        // idempotent (the clock never moved) and therefore succeeds.
        let m = q.set_memory_frequency(Some(703.0)).unwrap();
        assert_eq!(m, 1107.0, "fell back to the default memory clock");
        let d = q.degradation();
        assert_eq!(d.mem_clock_fallbacks, 1);
        assert!(d.retries >= 1);
        assert!(d.frequency_rejections >= 1);
        assert!(!d.is_clean());
    }

    #[test]
    fn rejected_power_cap_set_falls_back_to_uncapped() {
        use gpu_sim::{FaultPlan, Schedule};
        let plan = FaultPlan::seeded(11).reject_set_frequency(Schedule::Prob(1.0));
        let mut q = SynergyQueue::nvidia(Device::with_faults(DeviceSpec::v100(), plan));
        assert_eq!(q.set_power_cap(Some(150.0)).unwrap(), None);
        assert_eq!(q.degradation().power_cap_fallbacks, 1);
        assert_eq!(q.power_cap_w(), None);
    }

    #[test]
    fn a_rejected_fallback_is_counted_and_reports_the_request() {
        use gpu_sim::{FaultPlan, Schedule};
        // Management op 0 (the 150 W cap) goes through; every later one is
        // rejected, the fallback that clears the cap included.
        let plan = FaultPlan::none().reject_set_frequency(Schedule::at(1..100));
        let mut q = SynergyQueue::nvidia(Device::with_faults(DeviceSpec::v100(), plan));
        assert_eq!(q.set_power_cap(Some(150.0)).unwrap(), Some(150.0));
        let err = q.set_power_cap(Some(100.0)).unwrap_err();
        assert!(
            matches!(err, BackendError::FrequencyRejected { requested_mhz } if requested_mhz == 100.0),
            "the caller sees the rejected request, not the fallback: {err:?}"
        );
        let d = q.degradation();
        assert_eq!(
            d.frequency_rejections, 5,
            "four tries of the request + the fallback"
        );
        assert_eq!(d.retries, 3);
        assert_eq!(d.power_cap_fallbacks, 0, "the fallback did not happen");
        assert_eq!(q.power_cap_w(), Some(150.0));
    }

    #[test]
    fn transfer_accumulates_totals_and_telemetry() {
        let mut q = v100_queue();
        let m = q.try_submit_transfer(150_000_000).unwrap();
        assert!(m.time_s > 0.0 && m.energy_j > 0.0);
        assert_eq!(q.transfer_count(), 1);
        assert_eq!(q.transfer_bytes(), 150_000_000);
        assert_eq!(q.transfer_time_s(), m.time_s);
        assert_eq!(q.transfer_energy_j(), m.energy_j);
        assert_eq!(q.total_time_s(), m.time_s);
        assert_eq!(q.total_energy_j(), m.energy_j);
        assert_eq!(q.submission_count(), 0, "a transfer is not a kernel");
        assert!(q.degradation().is_clean());
    }

    #[test]
    fn degraded_transfer_is_audited_and_lost_link_is_fatal() {
        use gpu_sim::{FaultPlan, Schedule};
        let plan = FaultPlan::none()
            .degrade_link(Schedule::once(0), 0.5)
            .fail_link(Schedule::once(1));
        let mut q = SynergyQueue::nvidia(Device::with_faults(DeviceSpec::v100(), plan));
        let slow = q.try_submit_transfer(150_000_000).unwrap();
        assert_eq!(q.degradation().link_degradations, 1);
        let healthy_t = DeviceSpec::v100().link.transfer_time_s(150_000_000, 1.0);
        assert!(slow.time_s > 1.5 * healthy_t);
        let err = q.try_submit_transfer(150_000_000).unwrap_err();
        assert_eq!(err.last_error, BackendError::LinkLost);
        assert!(!err.last_error.is_transient(), "lost links are not retried");
        assert_eq!(err.attempts, 1);
        // The failed transfer left the totals untouched.
        assert_eq!(q.transfer_count(), 1);
        assert_eq!(q.total_time_s(), slow.time_s);
    }

    #[test]
    fn idle_wait_charges_idle_power_to_the_totals() {
        let mut q = v100_queue();
        q.idle_wait(2.0);
        assert_eq!(q.total_time_s(), 2.0);
        let expected = DeviceSpec::v100().idle_power_w * 2.0;
        assert!((q.total_energy_j() - expected).abs() < 1e-9);
        q.idle_wait(0.0);
        assert_eq!(q.total_time_s(), 2.0);
    }

    #[test]
    fn watchdog_trips_only_past_the_deadline() {
        let mut q = v100_queue();
        let k = KernelProfile::compute_bound("k", 1 << 22, 100.0);
        assert!(!q.watchdog_tripped(), "disarmed watchdog never trips");
        q.set_watchdog_deadline(Some(1e9));
        q.submit(&k);
        assert!(!q.watchdog_tripped(), "generous deadline must not trip");
        q.set_watchdog_deadline(Some(q.total_time_s() / 2.0));
        assert!(q.watchdog_tripped(), "busy time exceeds the deadline");
        q.set_watchdog_deadline(None);
        assert!(!q.watchdog_tripped(), "disarming clears the trip");
    }
}
