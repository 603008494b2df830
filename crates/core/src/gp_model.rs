//! The general-purpose energy model (the Fan et al. baseline, §4.1).
//!
//! Two-phase supervised learning. **Training**: every micro-benchmark of
//! [`crate::microbench`] is executed at every frequency configuration; its
//! static code features, the frequency, and the measured normalized
//! energy / speedup form the training set of two Random Forests.
//! **Prediction**: a new application contributes only its *static code
//! features* (extracted without running it), and the model predicts its
//! speedup / normalized-energy curve over frequency.
//!
//! Because static features are input-independent, the model emits one
//! curve per application regardless of workload — the inaccuracy the
//! domain-specific models remove.

use gpu_sim::{Device, DeviceSpec};
use ml::dataset::Matrix;
use ml::forest::{RandomForest, RandomForestParams};
use ml::Regressor;
use rayon::prelude::*;

use crate::features::{static_features, N_STATIC_FEATURES};
use crate::microbench::microbenchmarks;

/// A trained general-purpose model for one device.
#[derive(Debug, Clone)]
pub struct GeneralPurposeModel {
    speedup_model: RandomForest,
    energy_model: RandomForest,
    default_freq_mhz: f64,
}

/// A predicted operating point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PredictedPoint {
    /// Core frequency (MHz).
    pub freq_mhz: f64,
    /// Predicted speedup vs the default configuration.
    pub speedup: f64,
    /// Predicted normalized energy vs the default configuration.
    pub norm_energy: f64,
}

/// Builds the micro-benchmark training design: one row per
/// (benchmark, frequency), with speedup and normalized-energy targets.
/// Benchmarks are priced in parallel (each worker gets its own noiseless
/// device; pricing is deterministic) and the per-benchmark blocks are
/// concatenated in suite order, so the matrix is identical to a serial
/// build.
/// One benchmark's design rows plus its speedup / normalized-energy targets.
type DesignBlock = (Vec<Vec<f64>>, Vec<f64>, Vec<f64>);

fn microbench_design(spec: &DeviceSpec, freqs: &[f64]) -> (Matrix, Vec<f64>, Vec<f64>) {
    let suite = microbenchmarks();
    let blocks: Vec<DesignBlock> = suite
        .par_iter()
        .map(|bench| {
            let dev = Device::new(spec.clone());
            let sf = static_features(std::slice::from_ref(bench));
            // Ground truth from the simulator (noiseless peek).
            let (t_def, e_def) = dev.peek_cost(bench, spec.default_core_mhz);
            let mut rows = Vec::with_capacity(freqs.len());
            let mut y_speedup = Vec::with_capacity(freqs.len());
            let mut y_energy = Vec::with_capacity(freqs.len());
            for &f in freqs {
                let (t, e) = dev.peek_cost(bench, f);
                let mut row = sf.to_vec();
                row.push(f);
                rows.push(row);
                y_speedup.push(t_def / t);
                y_energy.push(e / e_def);
            }
            (rows, y_speedup, y_energy)
        })
        .collect();

    let mut x = Matrix::with_cols(N_STATIC_FEATURES + 1);
    let mut y_speedup = Vec::new();
    let mut y_energy = Vec::new();
    for (rows, ys, ye) in blocks {
        for row in &rows {
            x.push_row(row);
        }
        y_speedup.extend(ys);
        y_energy.extend(ye);
    }
    (x, y_speedup, y_energy)
}

impl GeneralPurposeModel {
    /// Trains on the 106 micro-benchmarks swept over `freqs`, with
    /// scikit-learn-default forests (the paper's grid search concludes the
    /// defaults win).
    pub fn train(spec: &DeviceSpec, freqs: &[f64], seed: u64) -> Self {
        GeneralPurposeModel::train_with(spec, freqs, seed, RandomForestParams::default())
    }

    /// Trains with explicit forest hyper-parameters (used by tests and the
    /// ablation benches to trade accuracy for speed).
    ///
    /// # Panics
    /// Panics on an empty frequency list.
    pub fn train_with(
        spec: &DeviceSpec,
        freqs: &[f64],
        seed: u64,
        params: RandomForestParams,
    ) -> Self {
        assert!(!freqs.is_empty(), "need at least one training frequency");
        let (x, y_speedup, y_energy) = microbench_design(spec, freqs);

        let mut speedup_model = RandomForest::new(params, seed);
        speedup_model.fit(&x, &y_speedup);
        let mut energy_model = RandomForest::new(params, seed ^ 0xE);
        energy_model.fit(&x, &y_energy);

        GeneralPurposeModel {
            speedup_model,
            energy_model,
            default_freq_mhz: spec.default_core_mhz,
        }
    }

    /// Predicts (speedup, normalized energy) at one frequency.
    pub fn predict(&self, app_features: &[f64; N_STATIC_FEATURES], freq_mhz: f64) -> (f64, f64) {
        let mut row = app_features.to_vec();
        row.push(freq_mhz);
        (
            self.speedup_model.predict_row(&row),
            self.energy_model.predict_row(&row),
        )
    }

    /// Predicts the full curve over `freqs` as one batch: a single design
    /// matrix and two tree-major `predict_batch` passes instead of
    /// `2 × freqs` virtual dispatches. Bit-identical to calling
    /// [`GeneralPurposeModel::predict`] per frequency.
    pub fn predict_curve(
        &self,
        app_features: &[f64; N_STATIC_FEATURES],
        freqs: &[f64],
    ) -> Vec<PredictedPoint> {
        let mut x = Matrix::with_cols(N_STATIC_FEATURES + 1);
        let mut row = app_features.to_vec();
        row.push(0.0);
        for &f in freqs {
            if let Some(last) = row.last_mut() {
                *last = f;
            }
            x.push_row(&row);
        }
        let mut speedup = Vec::with_capacity(freqs.len());
        let mut energy = Vec::with_capacity(freqs.len());
        self.speedup_model.predict_batch(&x, &mut speedup);
        self.energy_model.predict_batch(&x, &mut energy);
        freqs
            .iter()
            .zip(speedup.iter().zip(&energy))
            .map(|(&f, (&s, &e))| PredictedPoint {
                freq_mhz: f,
                speedup: s,
                norm_energy: e,
            })
            .collect()
    }

    /// Default frequency of the device this model was trained for.
    pub fn default_freq_mhz(&self) -> f64 {
        self.default_freq_mhz
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::KernelProfile;
    use ml::tree::TreeParams;

    fn quick_params() -> RandomForestParams {
        RandomForestParams {
            n_estimators: 15,
            tree: TreeParams::default(),
            bootstrap: true,
        }
    }

    fn quick_model(spec: &DeviceSpec) -> GeneralPurposeModel {
        let freqs = spec.core_freqs.strided(12);
        GeneralPurposeModel::train_with(spec, &freqs, 0, quick_params())
    }

    #[test]
    fn predicts_unity_at_default_frequency() {
        let spec = DeviceSpec::v100();
        let model = quick_model(&spec);
        // A compute-heavy mix the suite covers well.
        let k = KernelProfile::compute_bound("app", 4_000_000, 2000.0);
        let sf = static_features(&[k]);
        let (s, e) = model.predict(&sf, spec.default_core_mhz);
        assert!((s - 1.0).abs() < 0.05, "speedup at default ≈ 1, got {s}");
        assert!((e - 1.0).abs() < 0.05, "energy at default ≈ 1, got {e}");
    }

    #[test]
    fn compute_bound_app_predicted_to_scale_with_frequency() {
        let spec = DeviceSpec::v100();
        let model = quick_model(&spec);
        let k = KernelProfile::compute_bound("app", 4_000_000, 2000.0);
        let sf = static_features(&[k]);
        let (s_low, _) = model.predict(&sf, 700.0);
        let (s_high, _) = model.predict(&sf, spec.max_core_mhz());
        assert!(s_low < 0.75, "700 MHz speedup {s_low}");
        assert!(s_high > 1.1, "max-clock speedup {s_high}");
    }

    #[test]
    fn memory_bound_app_predicted_flat_under_downclock() {
        let spec = DeviceSpec::v100();
        let model = quick_model(&spec);
        let k = KernelProfile::memory_bound("app", 4_000_000, 64.0);
        let sf = static_features(&[k]);
        let (s_low, e_low) = model.predict(&sf, 950.0);
        assert!(s_low > 0.9, "memory-bound down-clock speedup {s_low}");
        assert!(e_low < 0.95, "memory-bound down-clock energy {e_low}");
    }

    #[test]
    fn prediction_is_input_size_independent() {
        // The defining limitation: scaling the workload does not change the
        // static features, so the prediction cannot change.
        let spec = DeviceSpec::v100();
        let model = quick_model(&spec);
        let small = KernelProfile::compute_bound("app", 1_000, 2000.0);
        let big = KernelProfile::compute_bound("app", 100_000_000, 2000.0);
        let sf_small = static_features(&[small]);
        let sf_big = static_features(&[big]);
        assert_eq!(
            model.predict(&sf_small, 800.0),
            model.predict(&sf_big, 800.0)
        );
    }

    #[test]
    fn curve_has_requested_frequencies() {
        let spec = DeviceSpec::v100();
        let model = quick_model(&spec);
        let k = KernelProfile::compute_bound("app", 4_000_000, 2000.0);
        let sf = static_features(&[k]);
        let freqs = [500.0, 1000.0, 1500.0];
        let curve = model.predict_curve(&sf, &freqs);
        assert_eq!(curve.len(), 3);
        assert_eq!(curve[1].freq_mhz, 1000.0);
    }

    #[test]
    fn batched_curve_matches_per_frequency_predict() {
        let spec = DeviceSpec::v100();
        let model = quick_model(&spec);
        let k = KernelProfile::compute_bound("app", 4_000_000, 2000.0);
        let sf = static_features(&[k]);
        let freqs = [500.0, 900.0, 1100.0, 1380.0];
        let curve = model.predict_curve(&sf, &freqs);
        for p in &curve {
            let (s, e) = model.predict(&sf, p.freq_mhz);
            assert_eq!(p.speedup.to_bits(), s.to_bits());
            assert_eq!(p.norm_energy.to_bits(), e.to_bits());
        }
    }
}
