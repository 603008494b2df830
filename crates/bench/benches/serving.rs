//! Flat-forest serving guard: batched sweep inference through the forest
//! arena's struct-of-arrays layout (`ml::flat`) must reproduce the
//! row-at-a-time walk of the same arena bit for bit, and stay at least
//! [`SPEEDUP_MIN`]× ahead of it in throughput.
//!
//! Both are asserted on two models: a synthetic Cronos-shaped forest, and
//! the production-shape model (Cronos paper configs characterized on the
//! V100, served over the harness frequency sweep). Run with
//! `cargo bench -p bench --bench serving`.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use energy_model::ds_model::DsSample;
use energy_model::features::CronosInput;
use energy_model::workflow::characterize_cronos;
use energy_model::DomainSpecificModel;
use gpu_sim::DeviceSpec;

/// Throughput floor of flat batched serving over the row-at-a-time walk.
const SPEEDUP_MIN: f64 = 5.0;

/// Interleaved timing rounds per model.
const ROUNDS: usize = 12;

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

/// The production-shape model: the first two Cronos paper configs,
/// characterized on every 8th V100 clock with one noisy rep to keep
/// training cheap. It is served over the full harness sweep, the shape
/// the serving path sees in production.
fn production_model(spec: &DeviceSpec) -> DomainSpecificModel {
    let configs = CronosInput::paper_configs();
    let train_freqs = spec.core_freqs.strided(8);
    let inputs = characterize_cronos(spec, &configs[..2], &train_freqs, 1, Some(bench::SEED));
    bench::train_ds(&inputs, spec.default_core_mhz)
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

/// Asserts bit identity against `predict_curve_reference` on every input
/// at every frequency, then times the two paths on interleaved rounds
/// (alternating so machine noise hits both sides equally) and asserts the
/// ratio of per-round minima against [`SPEEDUP_MIN`].
fn guard(name: &str, model: &DomainSpecificModel, freqs: &[f64]) {
    let inputs = query_inputs(64);
    let refs: Vec<&[f64]> = inputs.iter().map(|f| f.as_slice()).collect();

    // Bit identity first: a fast wrong answer must never pass.
    let batched = model.predict_curves_batch(&refs, freqs);
    for (f, prediction) in inputs.iter().zip(&batched) {
        let reference = model.predict_curve_reference(f, freqs);
        assert_eq!(prediction.curve.len(), reference.len());
        for (a, b) in prediction.curve.iter().zip(&reference) {
            assert_eq!(a.freq_mhz.to_bits(), b.freq_mhz.to_bits());
            assert_eq!(
                a.speedup.to_bits(),
                b.speedup.to_bits(),
                "{name}: input {f:?}"
            );
            assert_eq!(a.norm_energy.to_bits(), b.norm_energy.to_bits());
        }
    }

    // Per-round minima: scheduler noise only ever *adds* time, so the
    // minimum over enough rounds estimates the true cost and the guard
    // doesn't trip on one preempted round.
    let mut reference_min = f64::INFINITY;
    let mut flat_min = f64::INFINITY;
    for _ in 0..ROUNDS {
        let t0 = Instant::now();
        for f in &inputs {
            black_box(model.predict_curve_reference(f, freqs));
        }
        reference_min = reference_min.min(t0.elapsed().as_secs_f64());

        let t1 = Instant::now();
        black_box(model.predict_curves_batch(&refs, freqs));
        flat_min = flat_min.min(t1.elapsed().as_secs_f64());
    }
    let speedup = reference_min / flat_min;
    println!(
        "serving guard [{name}]: bit-identical; reference {:.2} ms, flat batched {:.2} ms \
         for {} requests × {} freqs (best of {ROUNDS} rounds) => {speedup:.1}× \
         (floor {SPEEDUP_MIN}×)",
        reference_min * 1e3,
        flat_min * 1e3,
        inputs.len(),
        freqs.len(),
    );
    assert!(
        speedup >= SPEEDUP_MIN,
        "{name}: flat batched serving is only {speedup:.2}× the row-at-a-time walk \
         (floor {SPEEDUP_MIN}×)"
    );
}

fn main() {
    let synthetic = DomainSpecificModel::train(&synthetic_samples(), 1380.0, 7);
    let synthetic_freqs: Vec<f64> = (0..60).map(|i| 510.0 + 15.0 * f64::from(i)).collect();
    guard("synthetic", &synthetic, &synthetic_freqs);

    let spec = DeviceSpec::v100();
    guard(
        "production-shape",
        &production_model(&spec),
        &bench::sweep_freqs(&spec),
    );
}
