//! Telemetry overhead guard: the metrics registry and point-level span
//! tracing must stay marginal on the hot trace-replay sweep path — the
//! acceptance budget is a small single-digit percentage of the recorded
//! `BENCH_sweep.json` trace-replay baseline.
//!
//! Two views of the same comparison:
//!
//! * Criterion groups `telemetry/sweep_disarmed` and
//!   `telemetry/sweep_armed` for the statistical record;
//! * a direct paired measurement printed as an overhead percentage, with
//!   a hard assertion when `TELEMETRY_OVERHEAD_MAX_PCT` is set (CI sets
//!   it; locally the number is informational, since shared machines make
//!   tight wall-clock bounds flaky).

use std::sync::Arc;
use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};

use energy_model::characterize::{characterize_with_options, SweepOptions};
use energy_model::telemetry::Telemetry;
use gpu_sim::DeviceSpec;

/// Back-to-back sweeps timed as one round of the overhead guard. One
/// sweep of the guard's shape takes ~7 ms on a 2-vCPU Xeon VM, so a round
/// lasts ≥ 50 ms there: a scheduler hiccup is diluted across the round
/// instead of deciding a single-sweep reading.
const SWEEPS_PER_ROUND: usize = 10;

fn workload() -> cronos::GpuCronos {
    cronos::GpuCronos::new(cronos::Grid::cubic(40, 16, 16), 2)
}

fn sweep_opts(telemetry: Option<Arc<Telemetry>>) -> SweepOptions {
    SweepOptions {
        reps: 5,
        noise_seed: Some(7),
        telemetry,
        ..SweepOptions::default()
    }
}

fn bench_sweep_disarmed(c: &mut Criterion) {
    let spec = DeviceSpec::v100();
    let freqs = spec.core_freqs.strided(8);
    let w = workload();
    let mut group = c.benchmark_group("telemetry/sweep_disarmed");
    group.sample_size(10);
    group.bench_function("cronos_40x16x16", |b| {
        b.iter(|| characterize_with_options(&spec, &w, &freqs, &sweep_opts(None)))
    });
    group.finish();
}

fn bench_sweep_armed(c: &mut Criterion) {
    let spec = DeviceSpec::v100();
    let freqs = spec.core_freqs.strided(8);
    let w = workload();
    let mut group = c.benchmark_group("telemetry/sweep_armed");
    group.sample_size(10);
    group.bench_function("cronos_40x16x16", |b| {
        b.iter(|| {
            let tel = Telemetry::new();
            characterize_with_options(&spec, &w, &freqs, &sweep_opts(Some(tel)))
        })
    });
    group.finish();
}

/// Paired measurement on interleaved rounds (alternating disarmed/armed
/// so machine noise hits both sides equally, each round timing
/// [`SWEEPS_PER_ROUND`] sweeps), printed as a percentage and asserted
/// against `TELEMETRY_OVERHEAD_MAX_PCT` when set.
fn overhead_guard(_c: &mut Criterion) {
    // The BENCH_sweep shape (full-resolution frequency list, five-rep
    // noisy medians) — so per-sweep fixed costs don't masquerade as
    // per-point overhead the way they would on a toy sweep — timed in
    // batches long enough that machine noise is small relative to a round.
    let spec = DeviceSpec::v100();
    let freqs = energy_model::workflow::experiment_frequencies(&spec, 1);
    let w = workload();
    let rounds = 16;

    // Warm both paths (thread pool, allocator, price tables).
    let _ = characterize_with_options(&spec, &w, &freqs, &sweep_opts(None));
    let _ = characterize_with_options(&spec, &w, &freqs, &sweep_opts(Some(Telemetry::new())));

    // Per-round minima, not means: scheduler noise only ever *adds* time,
    // so the minimum over enough rounds estimates the true cost of each
    // path and the guard doesn't trip on a single preempted round.
    let mut disarmed_min = f64::INFINITY;
    let mut armed_min = f64::INFINITY;
    for _ in 0..rounds {
        let t0 = Instant::now();
        let plain: Vec<_> = (0..SWEEPS_PER_ROUND)
            .map(|_| characterize_with_options(&spec, &w, &freqs, &sweep_opts(None)).0)
            .collect();
        disarmed_min = disarmed_min.min(t0.elapsed().as_secs_f64());

        let sinks: Vec<_> = (0..SWEEPS_PER_ROUND).map(|_| Telemetry::new()).collect();
        let t1 = Instant::now();
        let armed: Vec<_> = sinks
            .into_iter()
            .map(|tel| characterize_with_options(&spec, &w, &freqs, &sweep_opts(Some(tel))).0)
            .collect();
        armed_min = armed_min.min(t1.elapsed().as_secs_f64());

        for (plain, armed) in plain.iter().zip(&armed) {
            assert_eq!(plain, armed, "armed sweep diverged from disarmed");
        }
    }
    let overhead_pct = (armed_min / disarmed_min - 1.0) * 100.0;
    println!(
        "telemetry overhead: disarmed {disarmed_min:.4} s, armed {armed_min:.4} s per \
         {SWEEPS_PER_ROUND} sweeps (best of {rounds} rounds) => {overhead_pct:+.2} %",
    );
    if let Ok(max) = std::env::var("TELEMETRY_OVERHEAD_MAX_PCT") {
        let max: f64 = max
            .parse()
            .expect("TELEMETRY_OVERHEAD_MAX_PCT must be a number");
        assert!(
            overhead_pct <= max,
            "armed telemetry costs {overhead_pct:.2} % (budget {max} %)"
        );
    }
}

criterion_group!(
    benches,
    bench_sweep_disarmed,
    bench_sweep_armed,
    overhead_guard
);
criterion_main!(benches);
