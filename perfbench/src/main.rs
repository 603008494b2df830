//! Runs one benchmark workload and prints its result.
//!
//! ```text
//! perfbench --workload <offline|sweep|fleet|lifecycle> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! The untraced run (`--trace 0`) runs timed passes for `--seconds`, each
//! after its own timed set-up, and reports the end-to-end metrics. The
//! traced run (`--trace 1`) alternates untraced and traced passes (set-up
//! included) and reports the per-layer metrics. Both print a
//! one-line `{"report": …}` with every measurement and its provenance,
//! then, as the last line, the `{"correct", "attempted", "failed",
//! "metrics"}` object.
//!
//! Timings are best-of-run: `setup_s` is the fastest set-up round and
//! `wall_s` the pass with each of its stages at its fastest. On a shared
//! host a neighbour slows a vCPU by up to 40 % for seconds to minutes; such
//! a slowdown adds to a sample and never takes from it, so the fastest
//! samples track the code and the slow ones the neighbours.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use perfbench::env::Env;
use perfbench::host;
use perfbench::trace::{Layer, TraceSummary, Tracer};
use perfbench::workloads::{BenchWorkload, Fleet, Lifecycle, Offline, PassOutput, Sweep};
use perfbench::DEFAULT_SEED;
use serde::Value;

const USAGE: &str = "usage: perfbench --workload <offline|sweep|fleet|lifecycle> \
                     [--seed N] [--seconds S] [--trace 0|1]";

/// Set-ups before each untraced pass: at least one, and more, up to this
/// many, while the round has taken less than [`SETUP_ROUND`]. The round's
/// mean is one `setup_s` sample, so a set-up of microseconds is timed
/// over milliseconds.
const SETUPS_PER_ROUND: usize = 10_000;
const SETUP_ROUND: Duration = Duration::from_millis(20);

/// Stage name of a pass's time outside its named stages.
const REST: &str = "rest";

/// Share of an opaque call's time by which the calls re-issued from it may
/// exceed it before the split counts as wrong. Both sides time the same
/// work, so some percent either way is host noise (registry fsyncs and
/// JSON, thread scheduling): runs showed -5 % to +3 % of the call.
const REISSUE_SLACK: f64 = 0.25;

/// A run stops early after this many failed operations.
const MAX_ERRORS: usize = 5;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(args.seconds.is_finite() && args.seconds > 0.0) {
                    return Err(bad(&"must be positive"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "offline" => run(&Offline, &args),
        "sweep" => run(&Sweep, &args),
        "fleet" => run(&Fleet::default(), &args),
        "lifecycle" => run(&Lifecycle::default(), &args),
        other => Err(format!("unknown workload {other:?}\n{USAGE}")),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Operations attempted and failed (errors, panics, broken invariants).
#[derive(Default)]
struct Ledger {
    attempted: u64,
    errors: Vec<String>,
}

impl Ledger {
    /// Runs one operation, catching panics; returns its value and host
    /// time on success.
    fn attempt<T>(
        &mut self,
        what: &str,
        f: impl FnOnce() -> Result<T, String>,
    ) -> Option<(T, f64)> {
        self.attempted += 1;
        let t0 = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(f));
        let dt = t0.elapsed().as_secs_f64();
        match outcome {
            Ok(Ok(v)) => Some((v, dt)),
            Ok(Err(e)) => {
                self.errors.push(format!("{what}: {e}"));
                None
            }
            Err(panic) => {
                let msg = panic
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_else(|| "panic".into());
                self.errors.push(format!("{what} panicked: {msg}"));
                None
            }
        }
    }
}

fn run<W: BenchWorkload>(w: &W, args: &Args) -> Result<(), String> {
    let nproc = host::nproc();
    let cpus = host::allowed_cpus();
    let mut threads = if cpus.is_empty() { nproc } else { 1 };
    let env = Env::new(args.seed)?;
    let tracer = if args.trace {
        Tracer::on()
    } else {
        Tracer::off()
    };
    let untraced = Tracer::off();
    let mut ledger = Ledger::default();

    // Each pass gets a fresh set-up, timed on its own. Tiny set-ups are
    // repeated (up to SETUPS_PER_ROUND, within SETUP_ROUND) and their mean
    // is the pass's sample. Spreading set-ups across the run lets
    // them see the same host conditions the passes do. A traced
    // run alternates untraced and traced passes (each with a set-up under
    // the same tracer); the untraced ones are the tracing-overhead
    // baseline.
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut setup_s = Vec::new();
    let mut wall_s = Vec::new();
    let mut stage_s: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut traced_s = Vec::new();
    let mut outputs: Vec<PassOutput> = Vec::new();
    for pass in 0u64.. {
        let traced = args.trace && pass % 2 == 1;
        let t = if traced { &tracer } else { &untraced };
        // Each set-up and pass runs on one CPU, taking the CPUs in turn (a
        // traced pass on its untraced twin's). The vCPUs of a shared host
        // slow down one at a time, for seconds; two threads dealt equal
        // shares wait for the slower one, one thread slows only with its
        // own CPU, and taking turns lets every run see a fast one.
        let turn = if args.trace { pass / 2 } else { pass };
        if !cpus.is_empty() && !host::pin_to(cpus[turn as usize % cpus.len()]) {
            threads = nproc;
        }
        tracer.set_pass(pass);
        let mut state = None;
        let mut round = Vec::new();
        let started = Instant::now();
        for i in 0..SETUPS_PER_ROUND {
            if i > 0 && (traced || started.elapsed() >= SETUP_ROUND) {
                break;
            }
            drop(state.take());
            match ledger.attempt("setup", || w.setup(&env, t)) {
                Some((s, dt)) => {
                    round.push(dt);
                    state = Some(s);
                }
                None => tracer.recover(),
            }
        }
        if !traced && !round.is_empty() {
            setup_s.push(round.iter().sum::<f64>() / round.len() as f64);
        }
        if let Some(state) = &state {
            let reissued = tracer.reissue_s();
            match ledger.attempt("pass", || w.pass(state, &env, t)) {
                Some((out, dt)) if traced => {
                    traced_s.push(dt - (tracer.reissue_s() - reissued));
                    outputs.push(out);
                }
                Some((out, dt)) => {
                    wall_s.push(dt);
                    let mut stages: BTreeMap<&str, f64> = BTreeMap::new();
                    for (name, s) in &out.stages {
                        *stages.entry(name).or_default() += s;
                    }
                    stages.insert(REST, dt - stages.values().sum::<f64>());
                    for (name, s) in stages {
                        stage_s.entry(name.to_string()).or_default().push(s);
                    }
                    outputs.push(out);
                }
                None => tracer.recover(),
            }
        }
        let enough = !args.trace || pass >= 1;
        if (Instant::now() >= deadline && enough) || ledger.errors.len() >= MAX_ERRORS {
            break;
        }
    }

    // Every pass of one seed must reproduce the same simulated outputs.
    let mut digests: Vec<u64> = outputs.iter().map(|o| o.digest).collect();
    digests.dedup();
    if digests.len() > 1 {
        ledger.errors.push(format!(
            "passes disagree: {} distinct output digests",
            digests.len()
        ));
    }
    let summary = tracer.summary();
    if let Some(s) = &summary {
        // An opaque call's layer keeps the call's time minus the re-issued
        // calls; well below zero, the re-issue cost more than the call it
        // splits, so the split is wrong.
        for layer in [Layer::Eval, Layer::Fleet, Layer::Lifecycle] {
            let rest = s.self_s.get(&layer).copied().unwrap_or(0.0);
            let opaque = s.top_s.get(&layer).copied().unwrap_or(0.0);
            if rest < -REISSUE_SLACK * opaque {
                ledger.errors.push(format!(
                    "re-issued calls took {:.4} s more than the opaque {} calls",
                    -rest,
                    layer.name()
                ));
            }
        }
    }
    let mismatches = summary
        .as_ref()
        .and_then(|s| s.counts.get("trace.reissue_mismatches").copied())
        .unwrap_or(0);
    if mismatches > 0 {
        ledger.errors.push(format!(
            "{mismatches} re-issued layer calls did not reproduce the program's outputs"
        ));
    }
    let failed = ledger.errors.len() as u64;
    for e in &ledger.errors {
        eprintln!("perfbench: {e}");
    }
    if wall_s.is_empty() || setup_s.is_empty() {
        return Err("no set-up and pass succeeded".into());
    }

    // Host speed changes within a pass, so each stage's fastest sample is
    // taken on its own.
    let stage_best: Vec<(String, Value)> = stage_s
        .iter()
        .map(|(name, v)| (name.clone(), Value::F64(fastest(v))))
        .collect();
    let wall: f64 = stage_s.values().map(|v| fastest(v)).sum();
    let setup = fastest(&setup_s);
    let mut report = vec![
        (
            "provenance".to_string(),
            host::provenance(&args.workload, args.seed, args.trace, nproc, threads),
        ),
        ("setup_s".to_string(), Value::F64(setup)),
        (
            "setup_median_s".to_string(),
            Value::F64(percentile(&setup_s, 0.5)),
        ),
        ("setup_samples_s".to_string(), floats(&setup_s)),
        ("wall_s".to_string(), Value::F64(wall)),
        (
            "pass_median_s".to_string(),
            Value::F64(percentile(&wall_s, 0.5)),
        ),
        ("pass_samples_s".to_string(), floats(&wall_s)),
        ("stage_best_s".to_string(), Value::Map(stage_best)),
        ("items_per_pass".to_string(), Value::U64(outputs[0].items)),
        (
            format!("{}_per_s", W::ITEMS),
            Value::F64(outputs[0].items as f64 / wall),
        ),
        (
            "peak_rss_mb".to_string(),
            Value::F64(host::peak_rss_mb().unwrap_or(0.0)),
        ),
        ("attempted".to_string(), Value::U64(ledger.attempted)),
        ("failed".to_string(), Value::U64(failed)),
        (
            "failed_frac".to_string(),
            Value::F64(failed as f64 / ledger.attempted as f64),
        ),
        (
            "digest".to_string(),
            Value::Str(format!("{:016x}", outputs[0].digest)),
        ),
    ];
    report.extend(
        outputs[0]
            .sim
            .iter()
            .map(|(k, v)| (k.to_string(), Value::F64(*v))),
    );

    let metrics = match &summary {
        None => vec![
            ("setup_s", setup, "s"),
            ("wall_s", wall, "s"),
            ("peak_rss_mb", host::peak_rss_mb().unwrap_or(0.0), "MB"),
        ],
        Some(s) => {
            let overhead = fastest(&traced_s) / fastest(&wall_s) - 1.0;
            report.extend(layer_report(s));
            export_trace(&tracer, &args.workload, args.seed);
            layer_metrics(s, &tracer, overhead, traced_s.len())
        }
    };

    println!(
        "{}",
        serde_json::to_string(&Value::Map(vec![("report".into(), Value::Map(report))]))
            .map_err(|e| e.to_string())?
    );
    let result = Value::Map(vec![
        ("correct".into(), Value::Bool(failed == 0)),
        ("attempted".into(), Value::U64(ledger.attempted)),
        ("failed".into(), Value::U64(failed)),
        (
            "metrics".into(),
            Value::Map(
                metrics
                    .into_iter()
                    .map(|(name, value, unit)| {
                        (
                            name.to_string(),
                            Value::Map(vec![
                                ("value".into(), Value::F64(value)),
                                ("unit".into(), Value::Str(unit.into())),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ]);
    println!(
        "{}",
        serde_json::to_string(&result).map_err(|e| e.to_string())?
    );
    Ok(())
}

fn floats(xs: &[f64]) -> Value {
    Value::Seq(xs.iter().map(|&x| Value::F64(x)).collect())
}

/// The smallest sample; 0 for none.
fn fastest(xs: &[f64]) -> f64 {
    xs.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// Nearest-rank percentile (`q` in `[0, 1]`); 0 for no samples.
fn percentile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    if q == 0.5 && v.len().is_multiple_of(2) {
        return (v[v.len() / 2 - 1] + v[v.len() / 2]) / 2.0;
    }
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// The traced run's per-layer metrics (`BENCHMARK.json`'s `per_layer`).
/// Work counts and `trace.wall_s` are per traced pass (its set-up
/// included); shares and rates are over all traced passes. Every layer is
/// reported on every workload; a layer a workload does not exercise reads
/// 0 in its counts, shares and rates.
fn layer_metrics(
    s: &TraceSummary,
    tracer: &Tracer,
    overhead: f64,
    passes: usize,
) -> Vec<(&'static str, f64, &'static str)> {
    let passes = passes.max(1) as f64;
    let wall = s.wall_s;
    let self_s = |l: Layer| s.self_s.get(&l).copied().unwrap_or(0.0);
    let share = |l: Layer| self_s(l) / wall;
    let total = |n: &str| s.counts.get(n).copied().unwrap_or(0) as f64;
    let count = |n: &str| total(n) / passes;
    let span_s = |n: &str| s.spans.get(n).map_or(0.0, |t| t.total_s);
    let sampled_s = |n: &str| s.samples.get(n).map_or(0.0, |v| v.iter().sum());
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };

    let hits = tracer.counter("pricing.hits") as f64;
    let misses = tracer.counter("pricing.misses") as f64;
    let fit_s = span_s("gp_model.fit") + span_s("ds_model.fit");
    let serve_hits = total("serving.hits");
    let serve_misses = total("serving.misses");
    vec![
        ("trace.wall_s", wall / passes, "s"),
        ("trace.overhead_frac", overhead, "ratio"),
        (
            "trace.reissue_mismatches",
            total("trace.reissue_mismatches"),
            "count",
        ),
        ("characterize.share", share(Layer::Characterize), "ratio"),
        ("characterize.points", count("characterize.points"), "count"),
        (
            "characterize.us_per_point",
            1e6 * ratio(self_s(Layer::Characterize), total("characterize.points")),
            "us",
        ),
        ("gpu_sim.price_hits", hits / passes, "count"),
        ("gpu_sim.price_misses", misses / passes, "count"),
        (
            "gpu_sim.price_hit_rate",
            ratio(hits, hits + misses),
            "ratio",
        ),
        ("ml.share", share(Layer::Ml), "ratio"),
        ("ml.fit_rows", count("ml.fit_rows"), "count"),
        (
            "ml.row_trees_per_s",
            ratio(total("ml.fit_rows"), fit_s),
            "1/s",
        ),
        ("ds_model.fits", count("ds_model.fits"), "count"),
        ("eval.share", share(Layer::Eval), "ratio"),
        ("registry.share", share(Layer::Registry), "ratio"),
        ("registry.loads", count("registry.loads"), "count"),
        ("registry.publishes", count("registry.publishes"), "count"),
        ("registry.bytes", count("registry.bytes"), "B"),
        ("campaign.share", share(Layer::Campaign), "ratio"),
        (
            "campaign.journal_records",
            count("campaign.journal_records"),
            "count",
        ),
        (
            "campaign.journal_bytes",
            count("campaign.journal_bytes"),
            "B",
        ),
        ("serving.share", share(Layer::Serving), "ratio"),
        ("serving.drains", count("serving.drains"), "count"),
        (
            "serving.hit_rate",
            ratio(serve_hits, serve_hits + serve_misses),
            "ratio",
        ),
        ("serving.misses", serve_misses / passes, "count"),
        (
            "serving.admission_rejected",
            count("serving.admission_rejected"),
            "count",
        ),
        ("policy.share", share(Layer::Policy), "ratio"),
        ("policy.choices", count("policy.choices"), "count"),
        ("synergy.share", share(Layer::Synergy), "ratio"),
        ("synergy.launches", count("synergy.launches"), "count"),
        (
            "synergy.launches_per_s",
            ratio(total("synergy.launches"), sampled_s("synergy.job_replay")),
            "1/s",
        ),
        ("fleet.other_share", share(Layer::Fleet), "ratio"),
        ("fleet.jobs_stolen", count("fleet.jobs_stolen"), "count"),
        ("lifecycle.other_share", share(Layer::Lifecycle), "ratio"),
        ("lifecycle.retrains", count("lifecycle.retrains"), "count"),
        ("lifecycle.promotes", count("lifecycle.promotes"), "count"),
        (
            "lifecycle.promote_ratio",
            ratio(total("lifecycle.promotes"), total("lifecycle.retrains")),
            "ratio",
        ),
    ]
}

/// Host seconds per span name and latency percentiles of the sampled hot
/// calls, for the report line.
fn layer_report(s: &TraceSummary) -> Vec<(String, Value)> {
    let mut out = Vec::new();
    for layer in Layer::ALL {
        let v = s.self_s.get(&layer).copied().unwrap_or(0.0);
        out.push((format!("{}.self_s", layer.name()), Value::F64(v)));
    }
    let spans: BTreeMap<String, Value> = s
        .spans
        .iter()
        .map(|(name, t)| {
            (
                (*name).to_string(),
                Value::Map(vec![
                    ("calls".into(), Value::U64(t.calls)),
                    ("total_s".into(), Value::F64(t.total_s)),
                ]),
            )
        })
        .collect();
    out.push(("spans".into(), Value::Map(spans.into_iter().collect())));
    for (name, samples) in &s.samples {
        for (q, label) in [(0.5, "p50"), (0.99, "p99")] {
            out.push((
                format!("{name}_{label}_us"),
                Value::F64(1e6 * percentile(samples, q)),
            ));
        }
        out.push((format!("{name}.samples"), Value::U64(samples.len() as u64)));
    }
    out.push(("trace.reissue_s".into(), Value::F64(s.reissue_s)));
    out
}

/// Writes the benchmark spans (Chrome trace) and the program's armed-sink
/// metrics next to the build directory; failures only warn.
fn export_trace(tracer: &Tracer, workload: &str, seed: u64) {
    let dir = Env::artifact_dir();
    let write = |name: String, body: Option<String>| {
        let Some(body) = body else { return };
        let path = dir.join(name);
        match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, body)) {
            Ok(()) => eprintln!("perfbench: wrote {}", path.display()),
            Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
        }
    };
    write(
        format!("trace-{workload}-{seed}.json"),
        tracer.chrome_trace_json(),
    );
    write(
        format!("metrics-{workload}-{seed}.json"),
        tracer.program_metrics_json(),
    );
}
