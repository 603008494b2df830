//! End-to-end contract of the observability layer.
//!
//! Two guarantees under test, at the workspace boundary rather than the
//! unit level:
//!
//! 1. **Inertness** — arming a telemetry sink on a sweep or a full
//!    journaled campaign changes *nothing* about the results: every f64,
//!    every diagnostic, every fleet metric is bit-identical to the
//!    disarmed run. Same discipline as the inert `FaultPlan`.
//! 2. **Exporter validity** — `Telemetry::export` writes a Prometheus
//!    text exposition that a scraper would accept and a Chrome
//!    `chrome://tracing` JSON array that parses, with balanced
//!    begin/end span pairs.

use std::fs;
use std::sync::Arc;

use cronos::Grid;
use energy_model::{
    characterize_with_options, run_campaign, CampaignConfig, DeviceSlot, SpanLevel, SweepOptions,
    Telemetry,
};
use gpu_sim::{DeviceSpec, FaultPlan, Schedule, ThrottleWindow};

mod common;
use common::ScratchDir;

fn scratch(name: &str) -> ScratchDir {
    ScratchDir::create(&format!("energy-model-telemetry-{name}"))
}

fn small_cronos() -> cronos::GpuCronos {
    cronos::GpuCronos::new(Grid::cubic(10, 5, 5), 2)
}

fn small_ligen() -> ligen::GpuLigen {
    ligen::GpuLigen::new(2, 89, 8)
}

/// Faults that degrade measurements without permanent errors — the
/// campaign rides them out, and telemetry must observe without touching.
fn nonfatal_plan(seed: u64) -> FaultPlan {
    FaultPlan::seeded(seed)
        .reject_set_frequency(Schedule::Prob(0.2))
        .throttle(
            Schedule::Prob(0.1),
            ThrottleWindow {
                cap_mhz: 900.0,
                launches: 3,
            },
        )
        .reset_energy_counter(Schedule::Prob(0.05))
}

fn campaign_config(telemetry: Option<Arc<Telemetry>>) -> CampaignConfig {
    let spec = DeviceSpec::v100();
    let slots = vec![
        DeviceSlot::healthy("gpu0"),
        DeviceSlot::with_health("gpu1", nonfatal_plan(11)),
    ];
    let mut cfg = CampaignConfig::new(spec, slots, vec![500.0, 900.0, 1312.1]);
    cfg.reps = 2;
    cfg.noise_seed = Some(77);
    cfg.telemetry = telemetry;
    cfg
}

#[test]
fn armed_campaign_is_bit_identical_to_disarmed() {
    let cronos = small_cronos();
    let ligen = small_ligen();
    let workloads: Vec<&dyn energy_model::Workload> = vec![&cronos, &ligen];

    let plain = run_campaign(&campaign_config(None), &workloads, &scratch("plain"), false).unwrap();

    let tel = Telemetry::new();
    let armed = run_campaign(
        &campaign_config(Some(Arc::clone(&tel))),
        &workloads,
        &scratch("armed"),
        false,
    )
    .unwrap();

    // Results, diagnostics, and fleet metrics: exact equality, every f64.
    assert_eq!(plain.results, armed.results);
    assert_eq!(plain.metrics, armed.metrics);

    // The sink saw every assignment: 2 workloads × (1 baseline + 3 freqs).
    let snap = tel.registry().snapshot();
    let counter = |name: &str| {
        snap.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| match v {
                energy_model::telemetry::MetricValue::Counter(c) => *c,
                other => panic!("{name} is not a counter: {other:?}"),
            })
    };
    assert_eq!(counter("campaign.items_done"), Some(8));
    assert_eq!(counter("campaign.assignments"), Some(8));
    assert_eq!(
        counter("campaign.items_failed"),
        None,
        "no permanent errors"
    );
    // gpu1's non-fatal faults must be visible through the mirrored
    // queue.* counters (the plan rejects 20 % of clock requests).
    assert!(counter("queue.retries").unwrap_or(0) > 0);
}

#[test]
fn armed_sweep_matches_campaign_and_exports_valid_artifacts() {
    let spec = DeviceSpec::v100();
    let cronos = small_cronos();
    let freqs = [500.0, 900.0, 1312.1];

    let tel = Telemetry::with_trace_level(SpanLevel::Launch);
    let opts = SweepOptions {
        reps: 2,
        noise_seed: Some(77),
        telemetry: Some(Arc::clone(&tel)),
        ..SweepOptions::default()
    };
    let (armed, _) = characterize_with_options(&spec, &cronos, &freqs, &opts);
    let disarmed_opts = SweepOptions {
        telemetry: None,
        ..opts.clone()
    };
    let (plain, _) = characterize_with_options(&spec, &cronos, &freqs, &disarmed_opts);
    assert_eq!(plain, armed);

    let dir = scratch("export");
    tel.export(&dir).unwrap();

    // metrics.prom: every line is a comment or `name value`, with names a
    // scraper accepts ([a-zA-Z_:][a-zA-Z0-9_:]*, optional {labels}).
    let prom = fs::read_to_string(dir.join("metrics.prom")).unwrap();
    assert!(prom.contains("# TYPE sweep_points_priced counter"));
    assert!(prom.contains("sweep_point_time_s_bucket{le=\"+Inf\"}"));
    for line in prom.lines() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (series, value) = line.rsplit_once(' ').unwrap();
        let name = series.split('{').next().unwrap();
        assert!(
            name.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
            "illegal prometheus metric name: {name}"
        );
        assert!(
            !name.starts_with(|c: char| c.is_ascii_digit()),
            "metric name starts with a digit: {name}"
        );
        value.parse::<f64>().unwrap();
    }

    // metrics.json: parses, and agrees with the live registry.
    let json = fs::read_to_string(dir.join("metrics.json")).unwrap();
    let v: serde::Value = serde_json::from_str(&json).unwrap();
    let priced = v
        .get("sweep.points_priced")
        .and_then(|m| m.get("value"))
        .cloned();
    assert_eq!(priced, Some(serde::Value::U64(1 + freqs.len() as u64)));

    // trace.jsonl: a Chrome-trace JSON array of events with the required
    // keys, balanced begin/end pairs, and non-decreasing timestamps.
    let trace = fs::read_to_string(dir.join("trace.jsonl")).unwrap();
    let parsed: serde::Value = serde_json::from_str(&trace).unwrap();
    let serde::Value::Seq(events) = parsed else {
        panic!("chrome trace must be a JSON array");
    };
    assert!(!events.is_empty());
    let mut depth = 0i64;
    let mut last_ts = f64::NEG_INFINITY;
    for ev in &events {
        for key in ["name", "ph", "ts", "pid", "tid"] {
            assert!(ev.get(key).is_some(), "event missing `{key}`: {ev:?}");
        }
        let ts = match ev.get("ts").unwrap() {
            serde::Value::F64(x) => *x,
            serde::Value::U64(x) => *x as f64,
            other => panic!("ts must be numeric, got {other:?}"),
        };
        assert!(ts >= last_ts, "timestamps must be non-decreasing");
        last_ts = ts;
        match ev.get("ph").unwrap() {
            serde::Value::Str(s) if s == "B" => depth += 1,
            serde::Value::Str(s) if s == "E" => depth -= 1,
            serde::Value::Str(s) if s == "i" => {}
            other => panic!("unexpected phase {other:?}"),
        }
        assert!(depth >= 0, "end before begin");
    }
    assert_eq!(depth, 0, "unbalanced begin/end spans");
    // Launch-level tracing was on: one replay instant per rep per point.
    let replays = events
        .iter()
        .filter(|e| e.get("name") == Some(&serde::Value::Str("replay".into())))
        .count();
    assert_eq!(replays, (1 + freqs.len()) * 2);
}
