//! Crash/resume suite for campaign supervision.
//!
//! The campaign contract under test: kill the process at **any** journal
//! record boundary (or mid-append, leaving a torn line), re-run with
//! `resume = true`, and the completed campaign is **bit-identical** to an
//! uninterrupted run — including its fleet metrics. On top of that, the
//! breaker/eviction path must finish a campaign on the surviving devices
//! when one device is permanently lost, and every unrecoverable condition
//! (foreign journal, config drift, fully-evicted fleet) must surface as a
//! typed [`CampaignError`], never a panic and never silent data loss.
//!
//! The CI chaos-resume job re-runs this file under a matrix of fault
//! seeds via `CAMPAIGN_CHAOS_SEED` (see `.github/workflows/ci.yml`).

use std::fs;
use std::sync::Arc;

use cronos::Grid;
use energy_model::artifact::fnv1a_64;
use energy_model::campaign::{journal_path, FailureKind, JournalRecord};
use energy_model::persist::read_journal;
use energy_model::telemetry::{MetricValue, Telemetry};
use energy_model::{
    characterize_with_options, run_campaign, BreakerConfig, CampaignConfig, CampaignError,
    CampaignOutcome, DeviceSlot, SweepOptions, Workload,
};
use gpu_sim::{DeviceSpec, FaultPlan, Schedule, ThrottleWindow};

mod common;
use common::ScratchDir;

/// Fault seed for the chaos matrix: CI re-runs the whole file under
/// several seeds; locally it defaults to the one the golden values in
/// no test depend on numerically (every assertion is self-relative).
fn chaos_seed() -> u64 {
    std::env::var("CAMPAIGN_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(20230521)
}

fn scratch(name: &str) -> ScratchDir {
    ScratchDir::create(&format!("energy-model-campaign-{name}-{}", chaos_seed()))
}

fn small_cronos() -> cronos::GpuCronos {
    cronos::GpuCronos::new(Grid::cubic(10, 5, 5), 2)
}

fn small_ligen() -> ligen::GpuLigen {
    ligen::GpuLigen::new(2, 89, 8)
}

/// A plan that misbehaves without ever producing a *permanent* error:
/// rejected clock requests, throttling, counter resets. The queue rides
/// all of these out, so a campaign over it matches the plain sweep.
fn nonfatal_plan(seed: u64) -> FaultPlan {
    FaultPlan::seeded(seed)
        .reject_set_frequency(Schedule::Prob(0.25))
        .reset_energy_counter(Schedule::Prob(0.15))
        .throttle(
            Schedule::Prob(0.2),
            ThrottleWindow {
                cap_mhz: 700.0,
                launches: 2,
            },
        )
}

/// A plan that also drops launches hard enough to exhaust the retry
/// budget now and then: produces permanent `SubmitError`s, breaker trips
/// and re-scheduling — the interesting journal shapes for resume.
fn flaky_plan(seed: u64) -> FaultPlan {
    nonfatal_plan(seed).fail_launches(Schedule::Prob(0.6))
}

fn base_config(spec: DeviceSpec, slots: Vec<DeviceSlot>) -> CampaignConfig {
    let mut cfg = CampaignConfig::new(spec, slots, vec![600.0, 900.0, 1200.0]);
    cfg.reps = 2;
    cfg.noise_seed = Some(chaos_seed());
    cfg.breaker = BreakerConfig {
        failure_threshold: 2,
        cooldown_ticks: 2,
        max_trips: 2,
    };
    cfg
}

fn run_fresh(cfg: &CampaignConfig, workloads: &[&dyn Workload], name: &str) -> CampaignOutcome {
    run_campaign(cfg, workloads, &scratch(name), false).expect("campaign must complete")
}

// ---- Golden equivalence with the plain sweep ----

#[test]
fn healthy_single_slot_campaign_matches_the_plain_sweep_bit_for_bit() {
    for spec in [DeviceSpec::v100(), DeviceSpec::mi100()] {
        let cronos = small_cronos();
        let cfg = base_config(spec.clone(), vec![DeviceSlot::healthy("gpu0")]);
        let outcome = run_fresh(&cfg, &[&cronos], &format!("plain-{}", spec.name));

        let opts = SweepOptions {
            reps: cfg.reps,
            noise_seed: cfg.noise_seed,
            faults: FaultPlan::none(),
            retry: cfg.retry,
            remeasure_limit: cfg.remeasure_limit,
            telemetry: None,
        };
        let plain = characterize_with_options(&spec, &cronos, &cfg.freqs, &opts);
        assert_eq!(outcome.results.len(), 1);
        assert_eq!(
            outcome.results[0], plain,
            "campaign must not perturb the sweep"
        );
        assert_eq!(outcome.metrics.items_rescheduled, 0);
        assert_eq!(outcome.metrics.devices_evicted, 0);
        assert!(outcome.metrics.degradation.is_clean());
    }
}

#[test]
fn nonfatal_faults_single_slot_campaign_matches_the_plain_sweep() {
    let spec = DeviceSpec::mi100();
    let plan = nonfatal_plan(chaos_seed());
    let ligen = small_ligen();
    let cfg = base_config(
        spec.clone(),
        vec![DeviceSlot::with_health("gpu0", plan.clone())],
    );
    let outcome = run_fresh(&cfg, &[&ligen], "nonfatal");

    let opts = SweepOptions {
        reps: cfg.reps,
        noise_seed: cfg.noise_seed,
        faults: plan,
        retry: cfg.retry,
        remeasure_limit: cfg.remeasure_limit,
        telemetry: None,
    };
    let plain = characterize_with_options(&spec, &ligen, &cfg.freqs, &opts);
    assert_eq!(outcome.results[0], plain);
    assert_eq!(
        outcome.metrics.items_rescheduled, 0,
        "nothing was permanent"
    );
}

// ---- The journal's bytes ----

#[test]
fn the_journal_bytes_are_pinned() {
    // Fixed seeds, not the chaos seed: these bytes are the pin.
    const SEED: u64 = 20230521;
    let cronos = small_cronos();
    let ligen = small_ligen();
    let workloads: Vec<&dyn Workload> = vec![&cronos, &ligen];
    let mut cfg = base_config(
        DeviceSpec::v100(),
        vec![
            DeviceSlot::healthy("gpu0"),
            DeviceSlot::with_health("gpu1", flaky_plan(SEED)),
        ],
    );
    cfg.noise_seed = Some(SEED);
    let dir = scratch("pinned-bytes");
    run_campaign(&cfg, &workloads, &dir, false).expect("pinned campaign");

    let bytes = fs::read(journal_path(&dir)).unwrap();
    let recs = read_journal::<JournalRecord>(&journal_path(&dir)).unwrap();
    assert!(
        recs.records
            .iter()
            .any(|r| matches!(r, JournalRecord::Failed { .. })),
        "the flaky slot must put Failed records in the pinned journal"
    );
    assert_eq!(
        (recs.records.len(), bytes.len(), fnv1a_64(&bytes)),
        (13, 5_495, 0x0324_72fd_e78c_3382),
        "journal.jsonl (records, bytes, FNV-1a)"
    );
}

// ---- The tentpole: kill anywhere, resume, get identical bits ----

#[test]
fn resume_from_every_journal_record_boundary_is_bit_identical() {
    let spec = DeviceSpec::v100();
    let cronos = small_cronos();
    let ligen = small_ligen();
    let workloads: Vec<&dyn Workload> = vec![&cronos, &ligen];
    let cfg = base_config(
        spec,
        vec![
            DeviceSlot::healthy("gpu0"),
            DeviceSlot::with_health("gpu1", flaky_plan(chaos_seed())),
        ],
    );

    let golden_dir = scratch("boundary-golden");
    let golden = run_campaign(&cfg, &workloads, &golden_dir, false).expect("golden run");
    let journal = fs::read_to_string(journal_path(&golden_dir)).unwrap();
    let lines: Vec<&str> = journal.lines().collect();
    // Header + one Done per item is the fault-free minimum; the flaky
    // slot must have added Failed records beyond that.
    let min_lines = 1 + workloads.len() * (1 + cfg.freqs.len());
    assert!(
        lines.len() > min_lines,
        "the flaky slot should have added Failed records to the journal"
    );

    for cut in 0..=lines.len() {
        let dir = scratch(&format!("boundary-{cut}"));
        if cut > 0 {
            let prefix: String = lines[..cut].iter().map(|l| format!("{l}\n")).collect();
            fs::write(journal_path(&dir), prefix).unwrap();
        }
        let resumed = run_campaign(&cfg, &workloads, &dir, true)
            .unwrap_or_else(|e| panic!("resume from {cut}/{} records: {e}", lines.len()));
        assert_eq!(
            resumed,
            golden,
            "resume from {cut}/{} records must be bit-identical",
            lines.len()
        );
    }
}

#[test]
fn resume_from_a_torn_mid_append_crash_is_bit_identical() {
    let spec = DeviceSpec::mi100();
    let cronos = small_cronos();
    let workloads: Vec<&dyn Workload> = vec![&cronos];
    let cfg = base_config(
        spec,
        vec![
            DeviceSlot::healthy("gpu0"),
            DeviceSlot::with_health("gpu1", flaky_plan(chaos_seed() ^ 0xbeef)),
        ],
    );

    let golden_dir = scratch("torn-golden");
    let golden = run_campaign(&cfg, &workloads, &golden_dir, false).expect("golden run");
    let journal = fs::read(journal_path(&golden_dir)).unwrap();

    // Cut the journal mid-line at several byte offsets: the torn tail is
    // an append that never committed, so resume redoes that item. The
    // nastiest offset is `nl` itself — the record's JSON is complete but
    // its committing newline is not, so the tail *parses* yet must still
    // be healed away, or the next append would extend the same line and
    // corrupt the journal for every later resume.
    let newlines: Vec<usize> = journal
        .iter()
        .enumerate()
        .filter_map(|(i, &b)| (b == b'\n').then_some(i))
        .collect();
    for (k, &nl) in newlines.iter().enumerate().skip(1) {
        let mid_line = newlines[k - 1] + 1 + (nl - newlines[k - 1]) / 2;
        for torn_at in [mid_line, nl] {
            let dir = scratch(&format!("torn-{k}-{torn_at}"));
            fs::write(journal_path(&dir), &journal[..torn_at]).unwrap();
            let resumed = run_campaign(&cfg, &workloads, &dir, true)
                .unwrap_or_else(|e| panic!("resume from torn byte {torn_at}: {e}"));
            assert_eq!(resumed, golden, "torn-tail resume at byte {torn_at}");
            // The healed journal must stay resumable: a second resume of
            // the same directory reads it back cleanly.
            let again = run_campaign(&cfg, &workloads, &dir, true)
                .unwrap_or_else(|e| panic!("re-resume after torn byte {torn_at}: {e}"));
            assert_eq!(again, golden, "re-resume after torn byte {torn_at}");
        }
    }
}

#[test]
fn resume_after_a_zero_filled_lost_suffix_is_bit_identical() {
    let cronos = small_cronos();
    let ligen = small_ligen();
    let workloads: Vec<&dyn Workload> = vec![&cronos, &ligen];
    let cfg = base_config(
        DeviceSpec::v100(),
        vec![
            DeviceSlot::healthy("gpu0"),
            DeviceSlot::with_health("gpu1", flaky_plan(chaos_seed() ^ 0xdead)),
        ],
    );

    let golden_dir = scratch("zeroed-golden");
    let golden = run_campaign(&cfg, &workloads, &golden_dir, false).expect("golden run");
    let journal = fs::read_to_string(journal_path(&golden_dir)).unwrap();
    let lines: Vec<&str> = journal.lines().collect();

    // A power loss after the sync that covered the first `cut` records:
    // the next block reads back as zeros, and the blocks after it either
    // never reached the disk or did.
    for cut in 0..lines.len() {
        let prefix: String = lines[..cut].iter().map(|l| format!("{l}\n")).collect();
        let later: String = lines[cut + 1..].iter().map(|l| format!("{l}\n")).collect();
        for (shape, after) in [("zeros", ""), ("zeros-then-records", later.as_str())] {
            let dir = scratch(&format!("zeroed-{cut}-{shape}"));
            let mut bytes = prefix.clone().into_bytes();
            bytes.extend_from_slice(&[0; 4096]);
            bytes.extend_from_slice(after.as_bytes());
            fs::write(journal_path(&dir), bytes).unwrap();
            for attempt in ["resume", "second resume"] {
                let resumed = run_campaign(&cfg, &workloads, &dir, true)
                    .unwrap_or_else(|e| panic!("{attempt} after {cut} records and {shape}: {e}"));
                assert_eq!(resumed, golden, "{attempt} after {cut} records and {shape}");
                assert_eq!(
                    fs::read_to_string(journal_path(&dir)).unwrap(),
                    journal,
                    "journal after the {attempt} from {cut} records and {shape}"
                );
            }
        }
    }
}

#[test]
fn an_armed_resume_counts_only_the_steps_it_measures() {
    let cronos = small_cronos();
    let workloads: Vec<&dyn Workload> = vec![&cronos];
    let mut cfg = base_config(
        DeviceSpec::v100(),
        vec![
            DeviceSlot::healthy("gpu0"),
            DeviceSlot::with_health("gpu1", flaky_plan(chaos_seed() ^ 0x5eed)),
        ],
    );

    let golden_dir = scratch("telemetry-golden");
    let golden = run_campaign(&cfg, &workloads, &golden_dir, false).expect("golden run");
    let journal = fs::read_to_string(journal_path(&golden_dir)).unwrap();
    let lines: Vec<&str> = journal.lines().collect();

    for cut in [1, lines.len() / 2, lines.len()] {
        let dir = scratch(&format!("telemetry-{cut}"));
        let prefix: String = lines[..cut].iter().map(|l| format!("{l}\n")).collect();
        fs::write(journal_path(&dir), prefix).unwrap();
        let tel = Telemetry::new();
        cfg.telemetry = Some(Arc::clone(&tel));
        let resumed = run_campaign(&cfg, &workloads, &dir, true).expect("armed resume");
        assert_eq!(resumed, golden, "armed resume from {cut} records");

        // One journal line per step after the header: the steps measured
        // after the cut are the lines the cut left out.
        let snap = tel.registry().snapshot();
        let assignments = snap
            .metrics
            .iter()
            .find(|(n, _)| n == "campaign.assignments")
            .map_or(0, |(_, v)| match v {
                MetricValue::Counter(c) => *c,
                other => panic!("campaign.assignments is not a counter: {other:?}"),
            });
        assert_eq!(
            assignments,
            (lines.len() - cut) as u64,
            "resume from {cut}/{} records",
            lines.len()
        );
    }
}

#[test]
fn repeated_injected_crashes_converge_to_the_golden_run() {
    let spec = DeviceSpec::v100();
    let cronos = small_cronos();
    let workloads: Vec<&dyn Workload> = vec![&cronos];
    let mut cfg = base_config(
        spec,
        vec![
            DeviceSlot::healthy("gpu0"),
            DeviceSlot::with_health("gpu1", flaky_plan(chaos_seed().rotate_left(7))),
        ],
    );

    let golden = run_fresh(&cfg, &workloads, "crash-golden");

    // Crash every 3 appends (the first process's header among them):
    // every resume replays a longer prefix, then appends past it.
    cfg.crash_after_appends = Some(3);
    let dir = scratch("crash-loop");
    let mut resumed = false;
    let outcome = loop {
        match run_campaign(&cfg, &workloads, &dir, resumed) {
            Ok(outcome) => break outcome,
            Err(CampaignError::InjectedCrash { appends }) => {
                assert_eq!(appends, 3);
                resumed = true;
            }
            Err(e) => panic!("only injected crashes are expected: {e}"),
        }
    };
    assert!(resumed, "the crash hook must have fired at least once");
    assert_eq!(
        outcome, golden,
        "crash-riddled run must match the golden run"
    );

    // Resuming a finished campaign re-derives the same outcome without
    // measuring anything new.
    let again = run_campaign(&cfg, &workloads, &dir, true).expect("no-op resume");
    assert_eq!(again, golden);
}

// ---- Eviction: losing a device must not lose the campaign ----

#[test]
fn a_permanently_lost_device_is_evicted_and_survivors_finish_the_work() {
    let spec = DeviceSpec::v100();
    let cronos = small_cronos();
    let workloads: Vec<&dyn Workload> = vec![&cronos];
    let dead = FaultPlan::seeded(chaos_seed()).fail_launches(Schedule::Prob(1.0));
    let mut cfg = base_config(
        spec.clone(),
        vec![
            DeviceSlot::healthy("gpu0"),
            DeviceSlot::with_health("gpu1", dead),
        ],
    );
    // Enough items that the dead slot's cooldown elapses and its failed
    // half-open probe reaches the eviction threshold mid-campaign.
    cfg.freqs = vec![550.0, 650.0, 750.0, 850.0, 950.0, 1050.0];
    let outcome = run_fresh(&cfg, &workloads, "evict");

    assert_eq!(outcome.metrics.devices_evicted, 1);
    assert_eq!(outcome.metrics.evicted_slots, vec!["gpu1".to_string()]);
    assert!(outcome.metrics.items_rescheduled > 0);
    assert!(outcome.metrics.backend_failures > 0);
    // The eviction is recorded in the merged degradation audit too.
    assert_eq!(outcome.metrics.degradation.devices_evicted, 1);
    assert_eq!(
        outcome.metrics.degradation.items_rescheduled,
        outcome.metrics.items_rescheduled
    );

    // The healthy survivor is fault-inert, so every accepted measurement
    // is exactly what a plain single-device sweep produces — failures on
    // the dead device must not contaminate the data.
    let opts = SweepOptions {
        reps: cfg.reps,
        noise_seed: cfg.noise_seed,
        faults: FaultPlan::none(),
        retry: cfg.retry,
        remeasure_limit: cfg.remeasure_limit,
        telemetry: None,
    };
    let plain = characterize_with_options(&spec, &cronos, &cfg.freqs, &opts);
    assert_eq!(outcome.results[0].0, plain.0);
}

#[test]
fn an_all_dead_fleet_fails_typed_with_the_journal_intact() {
    let cronos = small_cronos();
    let workloads: Vec<&dyn Workload> = vec![&cronos];
    let dead = FaultPlan::seeded(chaos_seed()).fail_launches(Schedule::Prob(1.0));
    let cfg = base_config(
        DeviceSpec::v100(),
        vec![DeviceSlot::with_health("gpu0", dead)],
    );
    let dir = scratch("all-dead");
    let lost = match run_campaign(&cfg, &workloads, &dir, false) {
        Err(CampaignError::AllDevicesLost { pending, completed }) => {
            assert!(pending > 0);
            assert_eq!(completed, 0);
            (pending, completed)
        }
        other => panic!("expected AllDevicesLost, got {other:?}"),
    };
    // Every failed attempt is journaled, so the failure is auditable.
    let recs = read_journal::<JournalRecord>(&journal_path(&dir)).unwrap();
    assert!(recs
        .records
        .iter()
        .any(|r| matches!(r, JournalRecord::Failed { evicted: true, .. })));

    // Resuming cannot finish the work. The same config replays the
    // journaled evictions and loses the fleet again, at the same point.
    match run_campaign(&cfg, &workloads, &dir, true) {
        Err(CampaignError::AllDevicesLost { pending, completed }) => {
            assert_eq!((pending, completed), lost);
        }
        other => panic!("expected AllDevicesLost again, got {other:?}"),
    }
    // A repaired fleet is another configuration (slot health is part of
    // the fingerprint): it starts a new campaign directory.
    let mut repaired = cfg.clone();
    repaired.slots = vec![DeviceSlot::healthy("gpu0")];
    match run_campaign(&repaired, &workloads, &dir, true) {
        Err(CampaignError::ConfigMismatch { .. }) => {}
        other => panic!("expected ConfigMismatch, got {other:?}"),
    }
}

#[test]
fn watchdog_deadline_misses_trip_the_breaker() {
    let cronos = small_cronos();
    let workloads: Vec<&dyn Workload> = vec![&cronos];
    let mut cfg = base_config(DeviceSpec::v100(), vec![DeviceSlot::healthy("gpu0")]);
    // Impossibly tight deadline: every measurement misses it, the breaker
    // trips, and the (single-device) fleet dies — deterministically.
    cfg.watchdog_deadline_s = Some(1e-9);
    let dir = scratch("watchdog");
    match run_campaign(&cfg, &workloads, &dir, false) {
        Err(CampaignError::AllDevicesLost { .. }) => {}
        other => panic!("expected AllDevicesLost, got {other:?}"),
    }
    let recs = read_journal::<JournalRecord>(&journal_path(&dir)).unwrap();
    assert!(recs.records.iter().any(|r| matches!(
        r,
        JournalRecord::Failed {
            kind: FailureKind::Watchdog,
            ..
        }
    )));
}

// ---- Guard rails ----

#[test]
fn a_fresh_run_refuses_an_existing_journal() {
    let cronos = small_cronos();
    let workloads: Vec<&dyn Workload> = vec![&cronos];
    let cfg = base_config(DeviceSpec::v100(), vec![DeviceSlot::healthy("gpu0")]);
    let dir = scratch("exists");
    run_campaign(&cfg, &workloads, &dir, false).expect("first run");
    match run_campaign(&cfg, &workloads, &dir, false) {
        Err(CampaignError::JournalExists { path }) => {
            assert_eq!(path, journal_path(&dir));
        }
        other => panic!("expected JournalExists, got {other:?}"),
    }
}

#[test]
fn resume_under_a_different_configuration_is_rejected() {
    let cronos = small_cronos();
    let workloads: Vec<&dyn Workload> = vec![&cronos];
    let mut cfg = base_config(DeviceSpec::v100(), vec![DeviceSlot::healthy("gpu0")]);
    let dir = scratch("mismatch");
    run_campaign(&cfg, &workloads, &dir, false).expect("first run");
    cfg.freqs.push(1500.0); // silently different data — must be refused
    match run_campaign(&cfg, &workloads, &dir, true) {
        Err(CampaignError::ConfigMismatch { expected, found }) => {
            assert_ne!(expected, found);
        }
        other => panic!("expected ConfigMismatch, got {other:?}"),
    }
}

#[test]
fn resume_with_a_changed_workload_input_is_rejected() {
    let cronos = small_cronos();
    let workloads: Vec<&dyn Workload> = vec![&cronos];
    let cfg = base_config(DeviceSpec::v100(), vec![DeviceSlot::healthy("gpu0")]);
    let dir = scratch("input-drift");
    run_campaign(&cfg, &workloads, &dir, false).expect("first run");
    // Same workload *name*, different input: the recorded trace differs,
    // so the fingerprint must refuse to merge the measurements.
    let bigger = cronos::GpuCronos::new(Grid::cubic(12, 5, 5), 2);
    let drifted: Vec<&dyn Workload> = vec![&bigger];
    match run_campaign(&cfg, &drifted, &dir, true) {
        Err(CampaignError::ConfigMismatch { expected, found }) => {
            assert_ne!(expected, found);
        }
        other => panic!("expected ConfigMismatch, got {other:?}"),
    }
}

#[test]
fn a_corrupted_mid_journal_record_is_rejected_not_skipped() {
    let cronos = small_cronos();
    let workloads: Vec<&dyn Workload> = vec![&cronos];
    let cfg = base_config(DeviceSpec::v100(), vec![DeviceSlot::healthy("gpu0")]);
    let golden_dir = scratch("corrupt-golden");
    run_campaign(&cfg, &workloads, &golden_dir, false).expect("first run");
    let journal = fs::read_to_string(journal_path(&golden_dir)).unwrap();
    let lines: Vec<String> = journal.lines().map(str::to_string).collect();

    // Resumes a copy of the finished journal after `damage` edits it.
    let resume_damaged = |name: &str, damage: &dyn Fn(&mut Vec<String>)| {
        let mut damaged = lines.clone();
        damage(&mut damaged);
        let dir = scratch(name);
        fs::write(
            journal_path(&dir),
            damaged.iter().map(|l| format!("{l}\n")).collect::<String>(),
        )
        .unwrap();
        run_campaign(&cfg, &workloads, &dir, true)
    };

    // An unparsable committed line.
    match resume_damaged("corrupt-garbage", &|j| {
        j[2] = "{\"Done\":garbage".to_string()
    }) {
        Err(CampaignError::Persist(_)) | Err(CampaignError::Corrupt { .. }) => {}
        other => panic!("expected corruption error, got {other:?}"),
    }
    // A committed line duplicated in place: the copy does not re-derive.
    match resume_damaged("corrupt-duplicate", &|j| j.insert(3, j[2].clone())) {
        Err(CampaignError::Corrupt { message, .. }) => {
            assert!(message.starts_with("record 3 diverges"), "{message}");
        }
        other => panic!("expected Corrupt for a duplicated record, got {other:?}"),
    }
    // A forged `Done` past the end: no step is left to re-derive it.
    let forged = |j: &mut Vec<String>| {
        let mut extra: JournalRecord = serde_json::from_str(j.last().unwrap()).unwrap();
        let JournalRecord::Done { seq, .. } = &mut extra else {
            panic!("a healthy campaign ends on a Done record");
        };
        *seq += 1;
        j.push(serde_json::to_string(&extra).unwrap());
    };
    match resume_damaged("corrupt-forged", &forged) {
        Err(CampaignError::Corrupt { message, .. }) => {
            assert!(message.contains("never produced"), "{message}");
        }
        other => panic!("expected Corrupt for a record past the end, got {other:?}"),
    }
}
