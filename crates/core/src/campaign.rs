//! Crash-consistent, multi-device characterization campaigns.
//!
//! A paper-scale DVFS characterization (Figures 1–10) is hours of
//! measurement per application × input × GPU. This module runs that work
//! as a *supervised, resumable* unit:
//!
//! * **Journal.** Every completed or failed work item is committed to a
//!   write-ahead JSONL journal ([`crate::persist::ReplayJournal`]) before
//!   the scheduler moves on, and the journal is synced at the end of each
//!   run of one workload's items. Killing the process at any instant and
//!   re-running with `resume = true` continues from the last committed
//!   item and produces **bit-identical** results to an uninterrupted run;
//!   a power loss can also take the records after the last sync, and the
//!   resumed run measures those items again. That guarantee is by
//!   construction: each item's measurement is a pure function of `(spec,
//!   workload, item index, seeds, slot health, prior failures)` — never
//!   of wall-clock time or execution order — so resume is the same
//!   driver: a step whose record is already committed takes its outcome
//!   from that record, and every later step measures, to the same bits.
//! * **Per-device circuit breakers.** Each simulated device slot is
//!   wrapped in a closed → open → half-open breaker driven by permanent
//!   `BackendError`s and watchdog deadline misses. A tripped device cools
//!   down (in deterministic scheduler ticks, not wall time), gets one
//!   half-open probe, and after `max_trips` is permanently evicted; its
//!   pending `(app, input, frequency)` items are re-scheduled onto
//!   healthy slots via the same `try_replay_on` path every sweep uses.
//! * **Typed failure.** A full disk, foreign journal, or fully-evicted
//!   fleet surfaces as a [`CampaignError`], never a panic — and the
//!   journal survives. After a crash or a full disk a resume finishes the
//!   work. A fully-evicted fleet cannot be resumed into success: the same
//!   configuration replays the journaled evictions, and a repaired fleet
//!   is another configuration, so it starts a new campaign directory.
//!
//! The quarantine stage that keeps degraded campaign points out of the
//! training set lives in [`crate::quarantine`].

// Supervisor code must degrade with typed errors, never panic: crashes
// are this module's subject matter, not an acceptable failure mode.
#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use gpu_sim::pricing::PriceTable;
use gpu_sim::{DeviceSpec, FaultPlan};
use serde::{Deserialize, Serialize};
use synergy::energy::Measurement;
use synergy::metrics::DegradationMetrics;
use synergy::queue::{RetryPolicy, SubmitError};
use synergy::KernelTrace;

use crate::artifact::fnv1a_64;
use crate::characterize::{
    char_point, measure_attempts, replay_queue, Characterization, PointDiagnostics,
    SweepDiagnostics, SweepOptions, Workload,
};
use crate::persist::{PersistError, ReplayError, ReplayJournal};
use crate::telemetry::{SpanLevel, Telemetry};

/// Journal file name inside a campaign directory.
pub const JOURNAL_FILE: &str = "journal.jsonl";
/// On-disk format version stamped into journal headers.
pub const JOURNAL_VERSION: u32 = 1;

/// The journal file of a campaign directory.
pub fn journal_path(dir: &Path) -> PathBuf {
    dir.join(JOURNAL_FILE)
}

// ---- Work items ----

/// Which sweep point of a workload an item measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PointId {
    /// The vendor-default baseline configuration.
    Baseline,
    /// Index into [`CampaignConfig::freqs`].
    Freq(usize),
}

/// One unit of campaign work: one sweep point of one workload. Items are
/// the granularity of journaling, scheduling, and re-scheduling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ItemId {
    /// Index into the campaign's workload list.
    pub workload: usize,
    /// Which sweep point.
    pub point: PointId,
}

impl ItemId {
    /// The noise/fault seed offset the plain sweep assigns this point:
    /// `0` for the baseline, `1 + i` for frequency index `i`. Keyed by
    /// index, not execution order — the root of resume determinism.
    fn seed_off(&self) -> u64 {
        match self.point {
            PointId::Baseline => 0,
            PointId::Freq(i) => 1 + i as u64,
        }
    }

    /// Dense index over a campaign's items: `1 + n_freqs` points per
    /// workload, baseline first.
    fn flat(&self, n_freqs: usize) -> usize {
        self.workload * (1 + n_freqs)
            + match self.point {
                PointId::Baseline => 0,
                PointId::Freq(i) => 1 + i,
            }
    }
}

// ---- Devices and breakers ----

/// One simulated device slot in the campaign fleet. All slots share the
/// campaign's [`DeviceSpec`] (a campaign characterizes one GPU model, as
/// the paper does per figure); they differ in *health*: the fault plan
/// that models this physical unit's management-API behavior. A slot's
/// health plan shapes which items fail on it — it never changes what a
/// *successful* measurement would read on a healthy unit.
#[derive(Debug, Clone)]
pub struct DeviceSlot {
    /// Display name, e.g. `"gpu0"`.
    pub name: String,
    /// This unit's fault plan. [`FaultPlan::none`] is a healthy device.
    pub health: FaultPlan,
}

impl DeviceSlot {
    /// A fault-free device slot.
    pub fn healthy(name: impl Into<String>) -> Self {
        DeviceSlot {
            name: name.into(),
            health: FaultPlan::none(),
        }
    }

    /// A slot whose device misbehaves per `health`.
    pub fn with_health(name: impl Into<String>, health: FaultPlan) -> Self {
        DeviceSlot {
            name: name.into(),
            health,
        }
    }
}

/// Circuit-breaker policy, shared by every slot.
///
/// Cooldowns are measured in scheduler *ticks* (one tick per item
/// assignment), not wall time, so breaker behavior replays exactly from
/// the journal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Consecutive failures that open a closed breaker.
    pub failure_threshold: u32,
    /// Assignments an open breaker sits out before its half-open probe.
    pub cooldown_ticks: u64,
    /// Trips (closed→open or failed probe) before permanent eviction.
    pub max_trips: u32,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            failure_threshold: 3,
            cooldown_ticks: 4,
            max_trips: 3,
        }
    }
}

/// A slot's breaker state. `HalfOpen` exists only between acquiring a
/// cooled-down slot and applying its probe outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy; counting consecutive failures toward the threshold.
    Closed {
        /// Consecutive failures observed so far.
        consecutive_failures: u32,
    },
    /// Tripped; cooling down until `since_tick + cooldown_ticks`.
    Open {
        /// Tick at which the breaker opened.
        since_tick: u64,
    },
    /// Cooled down; the next assignment is a single probe.
    HalfOpen,
    /// Permanently evicted from the fleet.
    Evicted,
}

/// Per-slot supervisor state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotState {
    /// Breaker position.
    pub breaker: BreakerState,
    /// How many times the breaker has tripped.
    pub trips: u32,
}

impl Default for SlotState {
    /// A healthy slot: closed breaker, no trips.
    fn default() -> Self {
        SlotState {
            breaker: BreakerState::Closed {
                consecutive_failures: 0,
            },
            trips: 0,
        }
    }
}

/// The breaker's transitions, shared by the campaign scheduler and the
/// governor's fleet loop; each caller keeps its own bookkeeping.
impl SlotState {
    /// Whether the slot may take work at `tick`: closed and half-open
    /// slots may, an open one once its cooldown has elapsed, an evicted
    /// one never.
    pub fn ready(&self, cfg: &BreakerConfig, tick: u64) -> bool {
        match self.breaker {
            BreakerState::Closed { .. } | BreakerState::HalfOpen => true,
            BreakerState::Open { since_tick } => tick >= since_tick + cfg.cooldown_ticks,
            BreakerState::Evicted => false,
        }
    }

    /// Starts a half-open probe: a (cooled-down) open breaker's next
    /// assignment is a single probe. Any other state is left as it is.
    pub fn start_probe(&mut self) {
        if let BreakerState::Open { .. } = self.breaker {
            self.breaker = BreakerState::HalfOpen;
        }
    }

    /// Records a success: the breaker closes with its failure count reset.
    /// Trips are never forgiven.
    pub fn succeed(&mut self) {
        self.breaker = BreakerState::Closed {
            consecutive_failures: 0,
        };
    }

    /// Records a failure at `tick` and returns `(tripped, evicted)`:
    /// whether the breaker tripped, and whether that trip was the
    /// `max_trips`-th, which evicts the slot for good. A closed breaker
    /// trips at `failure_threshold` consecutive failures; a failed
    /// half-open probe trips at once. A trip that does not evict opens the
    /// breaker at `tick`.
    pub fn fail(&mut self, cfg: &BreakerConfig, tick: u64) -> (bool, bool) {
        if let BreakerState::Closed {
            consecutive_failures,
        } = self.breaker
        {
            let k = consecutive_failures + 1;
            if k < cfg.failure_threshold {
                self.breaker = BreakerState::Closed {
                    consecutive_failures: k,
                };
                return (false, false);
            }
        }
        // The threshold-th consecutive failure or a failed probe trips.
        // So would a failure while open or evicted, which neither
        // scheduler produces: both start a probe before running work on
        // an open slot, and never assign an evicted one.
        self.trips += 1;
        let evicted = self.trips >= cfg.max_trips;
        self.breaker = if evicted {
            BreakerState::Evicted
        } else {
            BreakerState::Open { since_tick: tick }
        };
        (true, evicted)
    }
}

// ---- Configuration ----

/// A full campaign: one device model, a fleet of (possibly unhealthy)
/// slots, and a frequency sweep per workload.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// The GPU model every slot instantiates.
    pub spec: DeviceSpec,
    /// The device fleet. Work is scheduled round-robin over healthy slots.
    pub slots: Vec<DeviceSlot>,
    /// Frequencies to sweep (MHz), in the plain sweep's order.
    pub freqs: Vec<f64>,
    /// Repetitions per point (median-aggregated). Must be ≥ 1.
    pub reps: usize,
    /// Measurement-noise seed; `None` runs noiseless.
    pub noise_seed: Option<u64>,
    /// How each measurement queue rides out transient faults.
    pub retry: RetryPolicy,
    /// Re-measure budget for dirty (degraded but complete) points.
    pub remeasure_limit: u32,
    /// Circuit-breaker policy for every slot.
    pub breaker: BreakerConfig,
    /// Watchdog deadline on one measurement attempt's busy time (s). An
    /// attempt exceeding it is discarded and counts as a breaker failure.
    pub watchdog_deadline_s: Option<f64>,
    /// Chaos hook: simulate a crash by aborting with
    /// [`CampaignError::InjectedCrash`] immediately after this many
    /// journal appends of the current process, its header append
    /// included. The aborted run is a well-formed process-crash image:
    /// everything appended so far is written, synced or not.
    pub crash_after_appends: Option<u64>,
    /// Observability sink. `None` (the default) is fully disarmed. An
    /// armed sink only *observes* — results and journal are
    /// bit-identical either way, and the sink is deliberately **excluded
    /// from the config fingerprint** so arming telemetry on a resume is
    /// always compatible. Counters reflect work measured by *this*
    /// process; items replayed from the journal are not re-counted.
    pub telemetry: Option<Arc<Telemetry>>,
}

impl CampaignConfig {
    /// A campaign with default measurement and robustness knobs.
    pub fn new(spec: DeviceSpec, slots: Vec<DeviceSlot>, freqs: Vec<f64>) -> Self {
        CampaignConfig {
            spec,
            slots,
            freqs,
            reps: 1,
            noise_seed: None,
            retry: RetryPolicy::default(),
            remeasure_limit: 2,
            breaker: BreakerConfig::default(),
            watchdog_deadline_s: None,
            crash_after_appends: None,
            telemetry: None,
        }
    }

    fn n_items(&self, n_workloads: usize) -> usize {
        n_workloads * (1 + self.freqs.len())
    }

    /// Identity of the campaign's *results*: everything that shapes a
    /// measurement or the schedule, including each workload's recorded
    /// kernel trace — so a workload whose input or implementation changed
    /// under an unchanged name is still a different campaign. The chaos
    /// hook (`crash_after_appends`) and the telemetry sink are excluded —
    /// changing them between runs is resume-compatible.
    fn fingerprint(&self, workloads: &[&dyn Workload], traces: &[KernelTrace]) -> String {
        use fmt::Write as _;
        let mut desc = String::new();
        let _ = write!(desc, "spec={:?};", self.spec);
        for s in &self.slots {
            let _ = write!(desc, "slot={}:{:?};", s.name, s.health);
        }
        let _ = write!(
            desc,
            "freqs={:?};reps={};noise={:?};retry={:?};remeasure={};breaker={:?};watchdog={:?};",
            self.freqs,
            self.reps,
            self.noise_seed,
            self.retry,
            self.remeasure_limit,
            self.breaker,
            self.watchdog_deadline_s
        );
        for (w, trace) in workloads.iter().zip(traces) {
            let _ = write!(
                desc,
                "workload={}:{:016x};",
                w.name(),
                fnv1a_64(format!("{trace:?}").as_bytes())
            );
        }
        format!("{:016x}", fnv1a_64(desc.as_bytes()))
    }
}

/// Derives the fault-stream base seed for measuring an item on `slot`
/// after `prior_failures` earlier permanent failures of that item. At
/// `(slot 0, 0 failures)` this is the identity, which is what makes a
/// single-healthy-slot campaign bit-identical to
/// [`crate::characterize_with_options`]; elsewhere the odd-constant mixes
/// decorrelate the streams so a half-open probe or re-scheduled item
/// doesn't deterministically replay the exact failure that preceded it.
fn slot_stream_base(health_seed: u64, slot: usize, prior_failures: u32) -> u64 {
    health_seed
        ^ (slot as u64).wrapping_mul(0xA24B_AED4_963E_E407)
        ^ u64::from(prior_failures).wrapping_mul(0x9FB2_1C65_1E98_DF25)
}

// ---- Journal records ----

/// Why an item failed on a slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FailureKind {
    /// The backend abandoned the submission with a permanent error.
    Backend,
    /// The measurement exceeded the campaign's watchdog deadline.
    Watchdog,
}

/// One journal line. `seq` is the scheduler tick of the assignment; on
/// replay each record is re-derived from the committed state and compared
/// whole, so any divergence (foreign journal, edited file, gap, duplicate)
/// surfaces as corruption instead of silently skewing the resumed
/// schedule.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum JournalRecord {
    /// First line of every journal: format version + config fingerprint.
    Header {
        /// [`JOURNAL_VERSION`] at write time.
        version: u32,
        /// [`CampaignConfig`] fingerprint (hex).
        fingerprint: String,
    },
    /// An item completed on a slot.
    Done {
        /// Scheduler tick of the assignment.
        seq: u64,
        /// The completed item.
        item: ItemId,
        /// Slot it ran on.
        slot: usize,
        /// Accepted median time (s).
        time_s: f64,
        /// Accepted median energy (J).
        energy_j: f64,
        /// Diagnostics of the accepted measurement.
        diag: PointDiagnostics,
    },
    /// An item failed permanently on a slot and was re-queued.
    Failed {
        /// Scheduler tick of the assignment.
        seq: u64,
        /// The failed item (re-scheduled onto the back of the queue).
        item: ItemId,
        /// Slot it failed on.
        slot: usize,
        /// Failure class.
        kind: FailureKind,
        /// Human-readable error.
        error: String,
        /// Whether this failure tripped the slot's breaker open.
        tripped: bool,
        /// Whether the trip permanently evicted the slot.
        evicted: bool,
    },
}

impl JournalRecord {
    /// The step outcome a `Done` or `Failed` record commits.
    fn outcome(&self) -> Option<ItemOutcome> {
        match self {
            JournalRecord::Header { .. } => None,
            JournalRecord::Done {
                time_s,
                energy_j,
                diag,
                ..
            } => Some(ItemOutcome::Success {
                time_s: *time_s,
                energy_j: *energy_j,
                diag: *diag,
            }),
            JournalRecord::Failed { kind, error, .. } => Some(ItemOutcome::Failure {
                kind: *kind,
                error: error.clone(),
            }),
        }
    }
}

// ---- Supervisor state ----

/// A completed item held in state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DoneItem {
    /// The completed item.
    pub item: ItemId,
    /// Slot it ran on.
    pub slot: usize,
    /// Accepted median time (s).
    pub time_s: f64,
    /// Accepted median energy (J).
    pub energy_j: f64,
    /// Diagnostics of the accepted measurement.
    pub diag: PointDiagnostics,
}

/// Campaign-level counters (journal-derived, so they survive resume).
#[derive(Debug, Clone, Copy, Default)]
struct Totals {
    backend_failures: u64,
    watchdog_misses: u64,
    items_rescheduled: u64,
    breaker_trips: u64,
    devices_evicted: u64,
}

/// The whole supervisor state. Every step goes through [`Self::step`],
/// so stepping through the journal's outcomes rebuilds it exactly.
#[derive(Debug)]
struct CampaignState {
    tick: u64,
    rr_cursor: usize,
    pending: Vec<ItemId>,
    failures: Vec<u32>,
    slots: Vec<SlotState>,
    done: Vec<DoneItem>,
    totals: Totals,
}

/// Outcome of measuring one item on one slot.
enum ItemOutcome {
    Success {
        time_s: f64,
        energy_j: f64,
        diag: PointDiagnostics,
    },
    Failure {
        kind: FailureKind,
        error: String,
    },
}

impl CampaignState {
    fn new(cfg: &CampaignConfig, n_workloads: usize) -> Self {
        let mut pending = Vec::with_capacity(cfg.n_items(n_workloads));
        for w in 0..n_workloads {
            pending.push(ItemId {
                workload: w,
                point: PointId::Baseline,
            });
            for i in 0..cfg.freqs.len() {
                pending.push(ItemId {
                    workload: w,
                    point: PointId::Freq(i),
                });
            }
        }
        CampaignState {
            tick: 0,
            rr_cursor: 0,
            failures: vec![0; pending.len()],
            pending,
            slots: vec![SlotState::default(); cfg.slots.len()],
            done: Vec::new(),
            totals: Totals::default(),
        }
    }

    /// Picks the next slot round-robin among ready ones. If every
    /// non-evicted slot is still cooling down, the tick fast-forwards to
    /// the earliest probe time (ticks advance only on assignments, so
    /// without this a fully-open fleet would deadlock). Selecting an open
    /// slot transitions it to its half-open probe. Returns `None` only
    /// when every slot is evicted.
    fn acquire_slot(&mut self, cfg: &BreakerConfig) -> Option<usize> {
        let n = self.slots.len();
        if !self.slots.iter().any(|st| st.ready(cfg, self.tick)) {
            let next_ready = self
                .slots
                .iter()
                .filter_map(|st| match st.breaker {
                    BreakerState::Open { since_tick } => Some(since_tick + cfg.cooldown_ticks),
                    _ => None,
                })
                .min()?;
            self.tick = next_ready;
        }
        for off in 0..n {
            let s = (self.rr_cursor + off) % n;
            if self.slots[s].ready(cfg, self.tick) {
                self.slots[s].start_probe();
                return Some(s);
            }
        }
        None
    }

    /// Applies one assignment outcome: pops the scheduled item, advances
    /// the clock and cursor, updates the slot's breaker, and returns the
    /// journal record describing exactly what happened. A replayed step
    /// and a measured one alike: the journal compares the record with the
    /// committed one, or appends it.
    fn step(
        &mut self,
        cfg: &BreakerConfig,
        n_freqs: usize,
        slot: usize,
        outcome: &ItemOutcome,
    ) -> JournalRecord {
        let item = self.pending.remove(0);
        let seq = self.tick;
        self.tick += 1;
        self.rr_cursor = (slot + 1) % self.slots.len();
        match outcome {
            ItemOutcome::Success {
                time_s,
                energy_j,
                diag,
            } => {
                self.slots[slot].succeed();
                self.done.push(DoneItem {
                    item,
                    slot,
                    time_s: *time_s,
                    energy_j: *energy_j,
                    diag: *diag,
                });
                JournalRecord::Done {
                    seq,
                    item,
                    slot,
                    time_s: *time_s,
                    energy_j: *energy_j,
                    diag: *diag,
                }
            }
            ItemOutcome::Failure { kind, error } => {
                self.failures[item.flat(n_freqs)] += 1;
                self.totals.items_rescheduled += 1;
                match kind {
                    FailureKind::Backend => self.totals.backend_failures += 1,
                    FailureKind::Watchdog => self.totals.watchdog_misses += 1,
                }
                self.pending.push(item);
                let (tripped, evicted) = self.slots[slot].fail(cfg, self.tick);
                self.totals.breaker_trips += u64::from(tripped);
                self.totals.devices_evicted += u64::from(evicted);
                JournalRecord::Failed {
                    seq,
                    item,
                    slot,
                    kind: *kind,
                    error: error.clone(),
                    tripped,
                    evicted,
                }
            }
        }
    }
}

// ---- Errors ----

/// A campaign-level failure. Measurement-level trouble (throttles,
/// retries, even permanently failing devices) degrades gracefully inside
/// the run; this type is for conditions the supervisor cannot absorb.
#[derive(Debug)]
pub enum CampaignError {
    /// The journal could not be read or written.
    Persist(PersistError),
    /// A campaign already lives in this directory and `resume` is false.
    JournalExists {
        /// The existing journal.
        path: PathBuf,
    },
    /// The on-disk campaign was produced by a different configuration.
    ConfigMismatch {
        /// Fingerprint of the running configuration.
        expected: String,
        /// Fingerprint found on disk.
        found: String,
    },
    /// The journal is internally inconsistent, or diverges from the run
    /// that resumes it.
    Corrupt {
        /// Offending file.
        path: PathBuf,
        /// What diverged.
        message: String,
    },
    /// Every device slot was evicted with work still pending. The journal
    /// is intact, but resuming it replays the same evictions; a repaired
    /// fleet changes the config fingerprint (resuming into this directory
    /// is a [`CampaignError::ConfigMismatch`]), so it starts a new campaign
    /// directory.
    AllDevicesLost {
        /// Items still pending.
        pending: usize,
        /// Items already completed (and journaled).
        completed: usize,
    },
    /// The configuration cannot describe a runnable campaign.
    InvalidConfig(String),
    /// The [`CampaignConfig::crash_after_appends`] chaos hook fired.
    InjectedCrash {
        /// Appends committed by this process before the simulated crash.
        appends: u64,
    },
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::Persist(e) => write!(f, "campaign persistence: {e}"),
            CampaignError::JournalExists { path } => write!(
                f,
                "campaign journal {} already exists (resume it or remove it)",
                path.display()
            ),
            CampaignError::ConfigMismatch { expected, found } => write!(
                f,
                "campaign on disk was produced by a different configuration \
                 (fingerprint {found}, running {expected})"
            ),
            CampaignError::Corrupt { path, message } => {
                write!(f, "{}: {}", path.display(), message)
            }
            CampaignError::AllDevicesLost { pending, completed } => write!(
                f,
                "every device slot is evicted with {pending} item(s) pending \
                 ({completed} completed and journaled)"
            ),
            CampaignError::InvalidConfig(msg) => write!(f, "invalid campaign config: {msg}"),
            CampaignError::InjectedCrash { appends } => {
                write!(f, "injected crash after {appends} journal append(s)")
            }
        }
    }
}

impl std::error::Error for CampaignError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CampaignError::Persist(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ReplayError> for CampaignError {
    fn from(e: ReplayError) -> Self {
        match e {
            ReplayError::Persist(e) => CampaignError::Persist(e),
            ReplayError::Exists { path } => CampaignError::JournalExists { path },
            ReplayError::Corrupt { path, message } => CampaignError::Corrupt { path, message },
            ReplayError::InjectedCrash { appends } => CampaignError::InjectedCrash { appends },
        }
    }
}

// ---- Outcome ----

/// Fleet-level audit counters of one campaign run (including everything
/// replayed from the journal on resume).
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignMetrics {
    /// Total item assignments (scheduler ticks consumed).
    pub assignments: u64,
    /// Items re-queued after a permanent failure.
    pub items_rescheduled: u64,
    /// Breaker trips across the fleet.
    pub breaker_trips: u64,
    /// Slots permanently evicted.
    pub devices_evicted: u64,
    /// Measurements discarded for missing the watchdog deadline.
    pub watchdog_misses: u64,
    /// Permanent backend failures observed.
    pub backend_failures: u64,
    /// Names of evicted slots.
    pub evicted_slots: Vec<String>,
    /// Merged degradation counters of every *accepted* measurement, with
    /// the campaign-level counters (`watchdog_misses`,
    /// `items_rescheduled`, `devices_evicted`) folded in.
    pub degradation: DegradationMetrics,
}

/// What a completed campaign produced.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignOutcome {
    /// One `(characterization, diagnostics)` per workload, points in
    /// frequency-list order — the same shape
    /// [`crate::characterize_with_options`] returns.
    pub results: Vec<(Characterization, SweepDiagnostics)>,
    /// Fleet-level audit counters.
    pub metrics: CampaignMetrics,
}

// ---- The supervisor ----

/// Runs (or resumes) a campaign in `dir`, journaling every step.
///
/// With `resume = false` the directory must not already hold a campaign.
/// With `resume = true` a committed journal in `dir` is checked against
/// the configuration fingerprint and replayed in order: each step it
/// holds takes its outcome from its record, and only the remaining items
/// are measured; the result is bit-identical to an uninterrupted run.
/// Resuming an empty directory is a fresh run.
pub fn run_campaign(
    cfg: &CampaignConfig,
    workloads: &[&dyn Workload],
    dir: &Path,
    resume: bool,
) -> Result<CampaignOutcome, CampaignError> {
    if cfg.slots.is_empty() {
        return Err(CampaignError::InvalidConfig("no device slots".into()));
    }
    if cfg.freqs.is_empty() {
        return Err(CampaignError::InvalidConfig("no frequencies".into()));
    }
    if workloads.is_empty() {
        return Err(CampaignError::InvalidConfig("no workloads".into()));
    }
    if cfg.reps == 0 {
        return Err(CampaignError::InvalidConfig("reps must be ≥ 1".into()));
    }

    // Record each workload's trace once, up front: it feeds both the
    // config fingerprint (trace content is measurement identity) and the
    // replay of every work item.
    let traces: Vec<KernelTrace> = workloads.iter().map(|w| w.record(&cfg.spec)).collect();
    let fingerprint = cfg.fingerprint(workloads, &traces);
    let jpath = journal_path(dir);
    let mut journal = ReplayJournal::open(&jpath, resume, cfg.crash_after_appends)?;

    // Check the header before committing ours, so another configuration
    // is a mismatch rather than a diverging record.
    match journal.prior().first() {
        Some(JournalRecord::Header { version, .. }) if *version != JOURNAL_VERSION => {
            return Err(CampaignError::Corrupt {
                path: jpath,
                message: format!("journal version {version} (this build reads {JOURNAL_VERSION})"),
            });
        }
        Some(JournalRecord::Header {
            fingerprint: found, ..
        }) if *found != fingerprint => {
            return Err(CampaignError::ConfigMismatch {
                expected: fingerprint,
                found: found.clone(),
            });
        }
        Some(JournalRecord::Header { .. }) | None => {}
        Some(other) => {
            return Err(CampaignError::Corrupt {
                path: jpath,
                message: format!("journal does not start with a header: {other:?}"),
            });
        }
    }
    journal.commit(JournalRecord::Header {
        version: JOURNAL_VERSION,
        fingerprint,
    })?;

    let mut state = CampaignState::new(cfg, workloads.len());
    // Share one pricing memo table across the whole campaign, exactly
    // like the plain sweep.
    let prices = Arc::new(PriceTable::new());

    let tel = cfg.telemetry.as_deref();
    let _campaign_span = tel.map(|t| {
        t.span(
            SpanLevel::Sweep,
            "campaign",
            vec![
                ("device", cfg.spec.name.clone()),
                ("slots", cfg.slots.len().to_string()),
                ("workloads", workloads.len().to_string()),
                ("freqs", cfg.freqs.len().to_string()),
            ],
        )
    });

    while let Some(item) = state.pending.first().copied() {
        let Some(slot) = state.acquire_slot(&cfg.breaker) else {
            journal.finish()?;
            return Err(CampaignError::AllDevicesLost {
                pending: state.pending.len(),
                completed: state.done.len(),
            });
        };
        // A step the journal already holds takes its outcome from its
        // record; every later step measures, and only those are observed.
        let recorded = journal.next_prior().and_then(JournalRecord::outcome);
        let step_tel = tel.filter(|_| recorded.is_none());
        let item_span = step_tel.map(|t| {
            t.registry().counter("campaign.assignments").inc();
            t.span(
                SpanLevel::Point,
                "item",
                vec![
                    ("slot", cfg.slots[slot].name.clone()),
                    ("workload", item.workload.to_string()),
                    (
                        "point",
                        match item.point {
                            PointId::Baseline => "baseline".into(),
                            PointId::Freq(i) => format!("{}", cfg.freqs[i]),
                        },
                    ),
                ],
            )
        });
        let outcome = recorded.unwrap_or_else(|| {
            let prior_failures = state.failures[item.flat(cfg.freqs.len())];
            measure_item(
                cfg,
                &traces[item.workload],
                &prices,
                item,
                slot,
                prior_failures,
            )
        });
        let totals_before = state.totals;
        let rec = state.step(&cfg.breaker, cfg.freqs.len(), slot, &outcome);
        if let Some(t) = step_tel {
            record_campaign_step(t, &outcome, totals_before, state.totals);
        }
        drop(item_span);
        journal.commit(rec)?;
        // A sync point ends each run of one workload's items. A record a
        // power loss takes from after it is re-measured to the same bits.
        if state.pending.first().map(|next| next.workload) != Some(item.workload) {
            journal.sync()?;
        }
    }
    journal.finish()?;
    if let Some(t) = tel {
        t.record_pricing(prices.stats(), prices.len());
    }

    assemble(cfg, workloads, &state)
}

/// Folds one live scheduler step into the registry: item counters, the
/// accepted measurement's degradation, and the deltas of the fleet-level
/// totals the step produced (trips, evictions, misses, re-schedules).
fn record_campaign_step(tel: &Telemetry, outcome: &ItemOutcome, before: Totals, after: Totals) {
    let r = tel.registry();
    match outcome {
        ItemOutcome::Success { diag, .. } => {
            r.counter("campaign.items_done").inc();
            tel.record_degradation(&diag.degradation);
        }
        ItemOutcome::Failure { .. } => {
            r.counter("campaign.items_failed").inc();
        }
    }
    for (name, b, a) in [
        (
            "campaign.backend_failures",
            before.backend_failures,
            after.backend_failures,
        ),
        (
            "campaign.watchdog_misses",
            before.watchdog_misses,
            after.watchdog_misses,
        ),
        (
            "campaign.items_rescheduled",
            before.items_rescheduled,
            after.items_rescheduled,
        ),
        (
            "campaign.breaker.trips",
            before.breaker_trips,
            after.breaker_trips,
        ),
        (
            "campaign.devices_evicted",
            before.devices_evicted,
            after.devices_evicted,
        ),
    ] {
        if a > b {
            r.counter(name).add(a - b);
        }
    }
}

/// Measures one item on one slot: a fresh device + queue per attempt,
/// seeded exactly like the plain sweep (slot 0, zero prior failures is
/// the identity), replayed through `try_replay_on`. A permanent backend
/// error or a watchdog deadline miss becomes a [`FailureKind`] for the
/// breaker; anything milder follows the usual dirty-point re-measure
/// path and is *accepted* (possibly flagged) — quarantine deals with
/// flagged points later, not the breaker.
fn measure_item(
    cfg: &CampaignConfig,
    trace: &KernelTrace,
    prices: &Arc<PriceTable>,
    item: ItemId,
    slot: usize,
    prior_failures: u32,
) -> ItemOutcome {
    enum RunError {
        Backend(SubmitError),
        Watchdog { deadline_s: f64, busy_s: f64 },
    }

    let health = &cfg.slots[slot].health;
    let sweep = SweepOptions {
        reps: cfg.reps,
        noise_seed: cfg.noise_seed,
        faults: health
            .clone()
            .with_seed(slot_stream_base(health.seed(), slot, prior_failures)),
        retry: cfg.retry,
        remeasure_limit: cfg.remeasure_limit,
        // The campaign loop owns all emission; the inner measurement
        // helpers stay sink-free so their seeding and control flow are
        // byte-for-byte the plain sweep's.
        telemetry: None,
    };
    let seed_off = item.seed_off();
    let result = measure_attempts(
        &sweep,
        |attempt| {
            let mut q = replay_queue(&cfg.spec, &sweep, prices, seed_off, attempt);
            if let PointId::Freq(i) = item.point {
                q.set_policy(synergy::FrequencyPolicy::Fixed(cfg.freqs[i]));
            }
            q.set_watchdog_deadline(cfg.watchdog_deadline_s);
            q
        },
        |q| {
            trace.try_replay_on(q).map_err(RunError::Backend)?;
            if q.watchdog_tripped() {
                return Err(RunError::Watchdog {
                    deadline_s: q.watchdog_deadline_s().unwrap_or(f64::INFINITY),
                    busy_s: q.total_time_s(),
                });
            }
            Ok(false)
        },
    );
    match result {
        Ok((m, mut diag)) => {
            diag.freq_mhz = match item.point {
                PointId::Baseline => None,
                PointId::Freq(i) => Some(cfg.freqs[i]),
            };
            ItemOutcome::Success {
                time_s: m.time_s,
                energy_j: m.energy_j,
                diag,
            }
        }
        Err(RunError::Backend(e)) => ItemOutcome::Failure {
            kind: FailureKind::Backend,
            error: e.to_string(),
        },
        Err(RunError::Watchdog { deadline_s, busy_s }) => ItemOutcome::Failure {
            kind: FailureKind::Watchdog,
            error: format!(
                "watchdog: measurement busy time {busy_s:.6} s exceeded the \
                 {deadline_s:.6} s deadline"
            ),
        },
    }
}

/// Folds the completed item set back into per-workload sweep results —
/// the same `(Characterization, SweepDiagnostics)` shape the plain sweep
/// returns — plus the fleet-level metrics.
fn assemble(
    cfg: &CampaignConfig,
    workloads: &[&dyn Workload],
    state: &CampaignState,
) -> Result<CampaignOutcome, CampaignError> {
    let n_freqs = cfg.freqs.len();
    let mut by_flat: Vec<Option<&DoneItem>> = vec![None; cfg.n_items(workloads.len())];
    for d in &state.done {
        by_flat[d.item.flat(n_freqs)] = Some(d);
    }
    let missing = |item: ItemId| CampaignError::Corrupt {
        path: PathBuf::new(),
        message: format!("completed campaign is missing item {item:?}"),
    };

    let mut results = Vec::with_capacity(workloads.len());
    let mut degradation = DegradationMetrics::default();
    for (w, workload) in workloads.iter().enumerate() {
        let base_id = ItemId {
            workload: w,
            point: PointId::Baseline,
        };
        let base = by_flat[base_id.flat(n_freqs)].ok_or_else(|| missing(base_id))?;
        let baseline = Measurement {
            time_s: base.time_s,
            energy_j: base.energy_j,
        };
        degradation.merge(&base.diag.degradation);
        let mut points = Vec::with_capacity(n_freqs);
        let mut diags = Vec::with_capacity(n_freqs);
        for (i, &f) in cfg.freqs.iter().enumerate() {
            let id = ItemId {
                workload: w,
                point: PointId::Freq(i),
            };
            let d = by_flat[id.flat(n_freqs)].ok_or_else(|| missing(id))?;
            points.push(char_point(
                f,
                Measurement {
                    time_s: d.time_s,
                    energy_j: d.energy_j,
                },
                baseline,
            ));
            diags.push(d.diag);
            degradation.merge(&d.diag.degradation);
        }
        results.push((
            Characterization {
                device: cfg.spec.name.clone(),
                workload: workload.name(),
                baseline_time_s: baseline.time_s,
                baseline_energy_j: baseline.energy_j,
                points,
            },
            SweepDiagnostics {
                baseline: base.diag,
                points: diags,
            },
        ));
    }

    degradation.watchdog_misses += state.totals.watchdog_misses;
    degradation.items_rescheduled += state.totals.items_rescheduled;
    degradation.devices_evicted += state.totals.devices_evicted;
    let evicted_slots = state
        .slots
        .iter()
        .zip(&cfg.slots)
        .filter(|(st, _)| st.breaker == BreakerState::Evicted)
        .map(|(_, s)| s.name.clone())
        .collect();
    Ok(CampaignOutcome {
        results,
        metrics: CampaignMetrics {
            assignments: state.tick,
            items_rescheduled: state.totals.items_rescheduled,
            breaker_trips: state.totals.breaker_trips,
            devices_evicted: state.totals.devices_evicted,
            watchdog_misses: state.totals.watchdog_misses,
            backend_failures: state.totals.backend_failures,
            evicted_slots,
            degradation,
        },
    })
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn breaker() -> BreakerConfig {
        BreakerConfig {
            failure_threshold: 2,
            cooldown_ticks: 3,
            max_trips: 2,
        }
    }

    fn two_slot_state() -> CampaignState {
        let cfg = CampaignConfig::new(
            DeviceSpec::v100(),
            vec![DeviceSlot::healthy("a"), DeviceSlot::healthy("b")],
            vec![900.0; 8],
        );
        CampaignState::new(&cfg, 1)
    }

    fn succeed(state: &mut CampaignState, cfg: &BreakerConfig, slot: usize) -> JournalRecord {
        state.step(
            cfg,
            8,
            slot,
            &ItemOutcome::Success {
                time_s: 1.0,
                energy_j: 2.0,
                diag: PointDiagnostics {
                    freq_mhz: None,
                    remeasured: 0,
                    flagged: false,
                    degradation: DegradationMetrics::default(),
                },
            },
        )
    }

    fn fail(state: &mut CampaignState, cfg: &BreakerConfig, slot: usize) -> JournalRecord {
        state.step(
            cfg,
            8,
            slot,
            &ItemOutcome::Failure {
                kind: FailureKind::Backend,
                error: "boom".into(),
            },
        )
    }

    #[test]
    fn breaker_opens_after_threshold_and_evicts_after_max_trips() {
        let cfg = breaker();
        let mut state = two_slot_state();
        // Two failures on slot 0: the second opens the breaker.
        let r1 = fail(&mut state, &cfg, 0);
        assert!(matches!(r1, JournalRecord::Failed { tripped: false, .. }));
        let r2 = fail(&mut state, &cfg, 0);
        assert!(matches!(
            r2,
            JournalRecord::Failed {
                tripped: true,
                evicted: false,
                ..
            }
        ));
        assert!(matches!(state.slots[0].breaker, BreakerState::Open { .. }));
        // Cool down: the healthy slot absorbs the work meanwhile.
        for _ in 0..cfg.cooldown_ticks {
            let s = state.acquire_slot(&cfg).unwrap();
            assert_eq!(s, 1, "only the healthy slot is schedulable");
            succeed(&mut state, &cfg, s);
        }
        let s = state.acquire_slot(&cfg).unwrap();
        assert_eq!(s, 0, "cooled-down slot gets its half-open probe");
        assert_eq!(state.slots[0].breaker, BreakerState::HalfOpen);
        let r = fail(&mut state, &cfg, 0);
        assert!(matches!(
            r,
            JournalRecord::Failed {
                tripped: true,
                evicted: true,
                ..
            }
        ));
        assert_eq!(state.slots[0].breaker, BreakerState::Evicted);
        assert_eq!(state.totals.devices_evicted, 1);
    }

    #[test]
    fn success_closes_a_half_open_breaker() {
        let cfg = breaker();
        let mut state = two_slot_state();
        fail(&mut state, &cfg, 0);
        fail(&mut state, &cfg, 0); // opens
        state.slots[1].breaker = BreakerState::Evicted; // force probes onto 0
        let s = state.acquire_slot(&cfg).unwrap();
        assert_eq!(s, 0, "fast-forward must reach the cooled-down slot");
        succeed(&mut state, &cfg, s);
        assert_eq!(
            state.slots[0].breaker,
            BreakerState::Closed {
                consecutive_failures: 0
            }
        );
        assert_eq!(state.slots[0].trips, 1, "the earlier trip stays recorded");
    }

    #[test]
    fn all_evicted_fleet_yields_no_slot() {
        let cfg = breaker();
        let mut state = two_slot_state();
        state.slots[0].breaker = BreakerState::Evicted;
        state.slots[1].breaker = BreakerState::Evicted;
        assert_eq!(state.acquire_slot(&cfg), None);
    }

    #[test]
    fn failed_items_requeue_at_the_back() {
        let cfg = breaker();
        let mut state = two_slot_state();
        let first = state.pending[0];
        fail(&mut state, &cfg, 0);
        assert_eq!(*state.pending.last().unwrap(), first);
        assert_eq!(state.failures[first.flat(8)], 1);
        assert_eq!(state.totals.items_rescheduled, 1);
    }

    #[test]
    fn slot_stream_base_is_identity_at_origin() {
        assert_eq!(slot_stream_base(42, 0, 0), 42);
        assert_ne!(slot_stream_base(42, 1, 0), 42);
        assert_ne!(slot_stream_base(42, 0, 1), 42);
    }

    #[test]
    fn journal_records_round_trip_through_json() {
        let recs = vec![
            JournalRecord::Header {
                version: JOURNAL_VERSION,
                fingerprint: "00ff00ff00ff00ff".into(),
            },
            JournalRecord::Done {
                seq: 3,
                item: ItemId {
                    workload: 1,
                    point: PointId::Freq(2),
                },
                slot: 0,
                time_s: 0.1 + 0.2,
                energy_j: 123.456789,
                diag: PointDiagnostics {
                    freq_mhz: Some(900.0),
                    remeasured: 1,
                    flagged: true,
                    degradation: DegradationMetrics {
                        retries: 2,
                        ..DegradationMetrics::default()
                    },
                },
            },
            JournalRecord::Failed {
                seq: 4,
                item: ItemId {
                    workload: 0,
                    point: PointId::Baseline,
                },
                slot: 1,
                kind: FailureKind::Watchdog,
                error: "watchdog: too slow".into(),
                tripped: true,
                evicted: false,
            },
        ];
        for r in &recs {
            let json = serde_json::to_string(r).unwrap();
            let back: JournalRecord = serde_json::from_str(&json).unwrap();
            assert_eq!(&back, r);
        }
    }
}
