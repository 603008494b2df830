//! Flat-forest serving guard: batched inference through the compiled
//! struct-of-arrays layout (`ml::flat`) must stay well ahead of the
//! row-at-a-time pointer walk it replaced — the committed floor is a 5×
//! throughput advantage at bit-identical predictions.
//!
//! Two views of the same comparison:
//!
//! * Criterion groups `serving/curve_*` and `serving/drain_batch` for the
//!   statistical record (single-request reference vs flat, whole-batch
//!   flat, and the end-to-end engine drain);
//! * a direct paired measurement printed as a speedup factor, with a hard
//!   assertion when `SERVING_SPEEDUP_MIN` is set (CI sets it; locally the
//!   number is informational, since shared machines make tight wall-clock
//!   bounds flaky). Bit-identity between the two paths is asserted
//!   unconditionally — a fast wrong answer must never pass.

use std::sync::Arc;
use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};

use energy_model::ds_model::DsSample;
use energy_model::DomainSpecificModel;
use governor::{EngineConfig, PredictionEngine, PredictionRequest};

const DEFAULT_FREQ: f64 = 1380.0;

/// A Cronos-shaped synthetic training grid: three integer grid features,
/// time falling and energy rising with frequency. Small enough to train a
/// 60-tree forest in well under a second, structured enough that the
/// trees grow to realistic serving depth.
fn synthetic_samples() -> Vec<DsSample> {
    let mut samples = Vec::new();
    for &x in &[8.0f64, 16.0, 32.0, 64.0, 128.0] {
        for &y in &[4.0f64, 8.0, 16.0, 32.0] {
            for &z in &[4.0f64, 8.0, 16.0, 32.0] {
                let features = Arc::new(vec![x, y, z]);
                for step in 0..8u32 {
                    let freq = 600.0 + 120.0 * f64::from(step);
                    let work = x * y * z;
                    let time_s = work / (freq * 40.0) + 0.002 * work.sqrt();
                    let power_w = 60.0 + 0.09 * freq;
                    samples.push(DsSample {
                        features: Arc::clone(&features),
                        freq_mhz: freq,
                        time_s,
                        energy_j: time_s * power_w,
                    });
                }
            }
        }
    }
    samples
}

fn trained_model() -> DomainSpecificModel {
    DomainSpecificModel::train(&synthetic_samples(), DEFAULT_FREQ, 7)
}

/// The sweep every prediction is evaluated over (paper-scale resolution).
fn sweep_freqs() -> Vec<f64> {
    (0..60).map(|i| 510.0 + 15.0 * f64::from(i)).collect()
}

/// Distinct off-grid query inputs (forcing real inference, no memo hits).
fn query_inputs(n: usize) -> Vec<Vec<f64>> {
    (0..n)
        .map(|i| {
            vec![
                8.0 + (i % 17) as f64 * 7.0,
                4.0 + (i % 11) as f64 * 3.0,
                4.0 + (i % 7) as f64 * 5.0,
            ]
        })
        .collect()
}

fn bench_curve_single(c: &mut Criterion) {
    let model = trained_model();
    let freqs = sweep_freqs();
    let inputs = query_inputs(16);
    let mut group = c.benchmark_group("serving/curve_single");
    group.sample_size(10);
    group.bench_function("reference_pointer_walk", |b| {
        b.iter(|| {
            for f in &inputs {
                criterion::black_box(model.predict_curve_reference(f, &freqs));
            }
        })
    });
    group.bench_function("flat", |b| {
        b.iter(|| {
            for f in &inputs {
                criterion::black_box(model.predict_curve(f, &freqs));
            }
        })
    });
    group.finish();
}

fn bench_curve_batched(c: &mut Criterion) {
    let model = trained_model();
    let freqs = sweep_freqs();
    let inputs = query_inputs(16);
    let refs: Vec<&[f64]> = inputs.iter().map(|f| f.as_slice()).collect();
    let mut group = c.benchmark_group("serving/curve_batched");
    group.sample_size(10);
    group.bench_function("flat_16_inputs", |b| {
        b.iter(|| criterion::black_box(model.predict_curves_batch(&refs, &freqs)))
    });
    group.finish();
}

fn bench_drain_batch(c: &mut Criterion) {
    let inputs = query_inputs(64);
    let mut engine = PredictionEngine::new(EngineConfig {
        freqs: sweep_freqs(),
        queue_capacity: 64,
        max_batch: 64,
    });
    engine.install_model("cronos", trained_model());
    let mut group = c.benchmark_group("serving/drain_batch");
    group.sample_size(10);
    // Steady-state drain: the first iteration warms the memo cache, after
    // which every batch is served from the memo — the governor's common
    // case of a repetitive arrival stream.
    group.bench_function("warm_64_requests", |b| {
        b.iter(|| {
            for (i, f) in inputs.iter().enumerate() {
                let _ = engine.try_enqueue(PredictionRequest {
                    job_id: i as u64,
                    app: "cronos".to_string(),
                    features: f.clone(),
                });
            }
            criterion::black_box(engine.drain_batch())
        })
    });
    group.finish();
}

/// Paired measurement on interleaved rounds (alternating reference/flat so
/// machine noise hits both sides equally): per-round minima, bit-identity
/// asserted on every curve, speedup asserted against `SERVING_SPEEDUP_MIN`
/// when set.
fn speedup_guard(_c: &mut Criterion) {
    let model = trained_model();
    assert!(model.has_flat(), "forest model must carry the flat layout");
    let freqs = sweep_freqs();
    let inputs = query_inputs(64);
    let refs: Vec<&[f64]> = inputs.iter().map(|f| f.as_slice()).collect();
    let rounds = 12;

    // Bit-identity first: the flat batched path must reproduce the
    // pointer walk exactly, on every input, at every frequency.
    let batched = model.predict_curves_batch(&refs, &freqs);
    for (f, prediction) in inputs.iter().zip(&batched) {
        let reference = model.predict_curve_reference(f, &freqs);
        assert_eq!(prediction.curve.len(), reference.len());
        for (a, b) in prediction.curve.iter().zip(&reference) {
            assert_eq!(a.freq_mhz.to_bits(), b.freq_mhz.to_bits());
            assert_eq!(a.speedup.to_bits(), b.speedup.to_bits(), "input {f:?}");
            assert_eq!(a.norm_energy.to_bits(), b.norm_energy.to_bits());
        }
    }

    // Warm both paths, then take per-round minima: scheduler noise only
    // ever *adds* time, so the minimum over enough rounds estimates the
    // true cost and the guard doesn't trip on one preempted round.
    let mut reference_min = f64::INFINITY;
    let mut flat_min = f64::INFINITY;
    for _ in 0..rounds {
        let t0 = Instant::now();
        for f in &inputs {
            criterion::black_box(model.predict_curve_reference(f, &freqs));
        }
        reference_min = reference_min.min(t0.elapsed().as_secs_f64());

        let t1 = Instant::now();
        criterion::black_box(model.predict_curves_batch(&refs, &freqs));
        flat_min = flat_min.min(t1.elapsed().as_secs_f64());
    }
    let speedup = reference_min / flat_min;
    let per_req_us = flat_min / inputs.len() as f64 * 1e6;
    println!(
        "flat batched serving: reference {reference_min:.5} s, flat {flat_min:.5} s \
         for {} requests × {} freqs (best of {rounds} rounds) \
         => {speedup:.1}× ({per_req_us:.1} µs/request)",
        inputs.len(),
        freqs.len(),
    );
    if let Ok(min) = std::env::var("SERVING_SPEEDUP_MIN") {
        let min: f64 = min.parse().expect("SERVING_SPEEDUP_MIN must be a number");
        assert!(
            speedup >= min,
            "flat batched serving is only {speedup:.2}× the pointer walk (floor {min}×)"
        );
    }
}

criterion_group!(
    benches,
    bench_curve_single,
    bench_curve_batched,
    bench_drain_batch,
    speedup_guard
);
criterion_main!(benches);
