//! The domain-specific energy/time models (§4.2 of the paper).
//!
//! Two models per application — one for execution time, one for energy —
//! trained on `(input features, frequency) → (time, energy)` samples
//! gathered by running the application itself (Figure 11). At prediction
//! time the models are evaluated at every frequency plus the default
//! configuration, and speedup / normalized energy are computed from the
//! *predicted* default values (Figure 12) — so any systematic per-input
//! offset cancels in the ratios.
//!
//! Targets are modelled in log space: times and energies span orders of
//! magnitude across the paper's input grid, and the quantities of interest
//! are ratios.
//!
//! [`DomainSpecificModel::train_selecting`] reproduces the paper's model
//! selection (§5.2.1): Linear, Lasso, SVR-RBF, and Random Forest compete
//! under leave-one-input-out cross-validation; Random Forest wins.
//!
//! The core clock is the model's one configuration column: it is what
//! the governor, the fleet and the lifecycle serve. The memory-clock,
//! power-cap and gang-size axes exist only on the measurement side
//! ([`crate::characterize::characterize_lattice`],
//! [`crate::distributed::characterize_distributed`]), where the lattice
//! and gang headlines pick from measured points.
//!
//! A Random Forest pair keeps one form from fit to serve: each forest
//! grows straight into its [`FlatForest`] arena, which the model takes by
//! value. Serving walks the arena, [`DomainSpecificModel::to_json`]
//! persists its arrays, and [`DomainSpecificModel::from_json`] checks every
//! arena it reads before the model can serve.

use std::sync::Arc;

use ml::dataset::Matrix;
use ml::flat::FlatForest;
use ml::forest::{RandomForest, RandomForestParams};
use ml::lasso::Lasso;
use ml::linear::LinearRegression;
use ml::svr::SvrRbf;
use ml::Regressor;
use serde::{Deserialize, Serialize};

pub use crate::gp_model::PredictedPoint;

/// One training sample `s = (f⃗, c, t, e)` (§4.2.2).
///
/// The feature vector is shared (`Arc`) with its sibling samples: a sweep
/// contributes one sample per frequency point but only one distinct input
/// feature vector, so cloning samples — which LOOCV and model selection do
/// per fold — costs a reference count, not an allocation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DsSample {
    /// Domain-specific input features `f⃗` (Table 2).
    pub features: Arc<Vec<f64>>,
    /// Frequency configuration `c` (MHz).
    pub freq_mhz: f64,
    /// Measured execution time `t` (s).
    pub time_s: f64,
    /// Measured energy `e` (J).
    pub energy_j: f64,
}

/// The regression algorithms the paper compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Algorithm {
    /// Ordinary least squares.
    Linear,
    /// L1-regularized linear regression.
    Lasso,
    /// ε-SVR with an RBF kernel.
    SvrRbf,
    /// Random Forest (the winner in the paper and here).
    RandomForest,
}

impl Algorithm {
    /// All four candidates, in the paper's order.
    pub fn all() -> [Algorithm; 4] {
        [
            Algorithm::Linear,
            Algorithm::Lasso,
            Algorithm::SvrRbf,
            Algorithm::RandomForest,
        ]
    }

    /// Fits this algorithm on `(x, y)`. A forest is kept as the arena it
    /// grew into.
    fn fit(&self, x: &Matrix, y: &[f64], seed: u64) -> AnyModel {
        fn fitted<M: Regressor>(mut model: M, x: &Matrix, y: &[f64]) -> M {
            model.fit(x, y);
            model
        }
        match self {
            Algorithm::Linear => AnyModel::Linear(fitted(LinearRegression::new(), x, y)),
            Algorithm::Lasso => AnyModel::Lasso(fitted(Lasso::new(1e-3), x, y)),
            Algorithm::SvrRbf => AnyModel::Svr(fitted(SvrRbf::with_defaults(), x, y)),
            Algorithm::RandomForest => {
                let params = RandomForestParams {
                    n_estimators: 60,
                    ..Default::default()
                };
                AnyModel::Forest(fitted(RandomForest::new(params, seed), x, y).into_flat())
            }
        }
    }
}

/// A fitted model of one of the four candidate algorithms; a forest is
/// held as its arena.
#[derive(Debug, Clone, Serialize, Deserialize)]
enum AnyModel {
    Linear(LinearRegression),
    Lasso(Lasso),
    Svr(SvrRbf),
    Forest(FlatForest),
}

impl AnyModel {
    fn predict_row(&self, row: &[f64]) -> f64 {
        match self {
            AnyModel::Linear(m) => m.predict_row(row),
            AnyModel::Lasso(m) => m.predict_row(row),
            AnyModel::Svr(m) => m.predict_row(row),
            AnyModel::Forest(m) => m.predict_row(row),
        }
    }

    /// One enum dispatch per batch instead of per row.
    fn predict_batch(&self, x: &Matrix, out: &mut Vec<f64>) {
        match self {
            AnyModel::Linear(m) => m.predict_batch(x, out),
            AnyModel::Lasso(m) => m.predict_batch(x, out),
            AnyModel::Svr(m) => m.predict_batch(x, out),
            AnyModel::Forest(m) => m.predict_batch_into(x, out),
        }
    }
}

/// A trained domain-specific model pair (time + energy).
///
/// A Random Forest pair holds each forest as its [`FlatForest`] arena: the
/// form it grows into, serves from and persists as.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DomainSpecificModel {
    time_model: AnyModel,
    energy_model: AnyModel,
    /// Algorithm used for both models.
    pub algorithm: Algorithm,
    n_features: usize,
    default_freq_mhz: f64,
    /// Configuration columns after the input features in the design
    /// matrix: always 1, the core clock. Kept in the payload as a format
    /// marker so [`DomainSpecificModel::from_json`] refuses a model of
    /// another width.
    config_cols: usize,
}

/// One input's batched curve prediction: the predicted default-frequency
/// anchors plus the Figure-12 normalized curve.
#[derive(Debug, Clone, PartialEq)]
pub struct CurvePrediction {
    /// Predicted execution time at the default frequency (s).
    pub default_time_s: f64,
    /// Predicted energy at the default frequency (J).
    pub default_energy_j: f64,
    /// Speedup / normalized energy over the requested frequencies.
    pub curve: Vec<PredictedPoint>,
}

fn build_design(samples: &[DsSample]) -> (Matrix, Vec<f64>, Vec<f64>) {
    let n_features = samples[0].features.len();
    let mut x = Matrix::with_cols(n_features + 1);
    let mut y_time = Vec::with_capacity(samples.len());
    let mut y_energy = Vec::with_capacity(samples.len());
    let mut row = Vec::with_capacity(n_features + 1);
    for s in samples {
        assert_eq!(s.features.len(), n_features, "ragged feature vectors");
        assert!(
            s.time_s > 0.0 && s.energy_j > 0.0,
            "times and energies must be positive"
        );
        row.clear();
        row.extend_from_slice(&s.features);
        row.push(s.freq_mhz);
        x.push_row(&row);
        y_time.push(s.time_s.ln());
        y_energy.push(s.energy_j.ln());
    }
    (x, y_time, y_energy)
}

impl DomainSpecificModel {
    /// Trains the Random Forest model pair (the paper's selected
    /// configuration) on the sample set.
    ///
    /// # Panics
    /// Panics on an empty sample set or inconsistent feature widths.
    pub fn train(samples: &[DsSample], default_freq_mhz: f64, seed: u64) -> Self {
        DomainSpecificModel::train_algorithm(
            samples,
            default_freq_mhz,
            Algorithm::RandomForest,
            seed,
        )
    }

    /// Trains a specific algorithm (used by the model-selection study).
    pub fn train_algorithm(
        samples: &[DsSample],
        default_freq_mhz: f64,
        algorithm: Algorithm,
        seed: u64,
    ) -> Self {
        assert!(!samples.is_empty(), "empty training set");
        let (x, y_time, y_energy) = build_design(samples);
        DomainSpecificModel {
            time_model: algorithm.fit(&x, &y_time, seed),
            energy_model: algorithm.fit(&x, &y_energy, seed ^ 0xE),
            algorithm,
            n_features: samples[0].features.len(),
            default_freq_mhz,
            config_cols: 1,
        }
    }

    /// The paper's model selection (§5.2.1): each of the four algorithms is
    /// scored by leave-one-input-out cross-validation on the quantity the
    /// paper cares about — the MAPE of the *normalized* (speedup) curve of
    /// the held-out input. Normalizing inside the score is essential:
    /// absolute times differ by orders of magnitude between inputs and
    /// those offsets cancel in the prediction phase (Fig. 12), so a raw
    /// regression loss would reward the wrong models. Under this protocol
    /// Random Forest wins, as in the paper: linear models miss the
    /// roofline/occupancy kinks, and SVR-RBF collapses toward its bias on
    /// unseen inputs.
    ///
    /// Returns the winning model (trained on the full set) and the
    /// per-algorithm mean CV scores.
    ///
    /// # Panics
    /// Panics with fewer than three distinct input configurations or fewer
    /// than two frequency points per input.
    pub fn train_selecting(
        samples: &[DsSample],
        default_freq_mhz: f64,
        seed: u64,
    ) -> (Self, Vec<(Algorithm, f64)>) {
        assert!(samples.len() >= 10, "too few samples for model selection");
        let (x, _, _) = build_design(samples);
        let feature_cols: Vec<usize> = (0..samples[0].features.len()).collect();
        let groups = ml::cv::groups_from_columns(&x, &feature_cols);
        let folds = ml::cv::leave_one_group_out(&groups);
        assert!(folds.len() >= 3, "need at least three input configurations");

        let mut scores = Vec::new();
        for alg in Algorithm::all() {
            let mut fold_scores = Vec::with_capacity(folds.len());
            for (train_idx, val_idx) in &folds {
                assert!(val_idx.len() >= 2, "need ≥2 frequency points per input");
                let train: Vec<DsSample> = train_idx.iter().map(|&i| samples[i].clone()).collect();
                let model =
                    DomainSpecificModel::train_algorithm(&train, default_freq_mhz, alg, seed);
                // Normalize truth and prediction by the held-out input's
                // point nearest the default frequency.
                let ref_idx = val_idx
                    .iter()
                    .copied()
                    .min_by(|&a, &b| {
                        (samples[a].freq_mhz - default_freq_mhz)
                            .abs()
                            .total_cmp(&(samples[b].freq_mhz - default_freq_mhz).abs())
                    })
                    .expect("non-empty validation group");
                let t_ref_true = samples[ref_idx].time_s;
                let (t_ref_pred, _) = model
                    .predict_time_energy(&samples[ref_idx].features, samples[ref_idx].freq_mhz);
                let mut true_speedup = Vec::with_capacity(val_idx.len());
                let mut pred_speedup = Vec::with_capacity(val_idx.len());
                for &i in val_idx {
                    let s = &samples[i];
                    let (t_pred, _) = model.predict_time_energy(&s.features, s.freq_mhz);
                    true_speedup.push(t_ref_true / s.time_s);
                    pred_speedup.push(t_ref_pred / t_pred);
                }
                fold_scores.push(ml::metrics::mape(&true_speedup, &pred_speedup));
            }
            let mean = fold_scores.iter().sum::<f64>() / fold_scores.len() as f64;
            scores.push((alg, mean));
        }
        let best = scores
            .iter()
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .map(|(a, _)| *a)
            .expect("non-empty");
        (
            DomainSpecificModel::train_algorithm(samples, default_freq_mhz, best, seed),
            scores,
        )
    }

    /// Predicts raw `(time, energy)` for an input at one frequency: one
    /// row walk of each model (of each forest's arena for a forest pair).
    ///
    /// # Panics
    /// Panics on a feature-width mismatch.
    pub fn predict_time_energy(&self, features: &[f64], freq_mhz: f64) -> (f64, f64) {
        assert_eq!(features.len(), self.n_features, "feature width mismatch");
        let mut row = Vec::with_capacity(self.n_features + 1);
        row.extend_from_slice(features);
        row.push(freq_mhz);
        (
            self.time_model.predict_row(&row).exp(),
            self.energy_model.predict_row(&row).exp(),
        )
    }

    /// The Figure-12 prediction phase: predicted speedup and normalized
    /// energy over `freqs`, normalized by the *predicted* default-frequency
    /// values. Evaluates the whole curve as one batch through the flat
    /// layout — bit-identical to the row-at-a-time reference.
    pub fn predict_curve(&self, features: &[f64], freqs: &[f64]) -> Vec<PredictedPoint> {
        self.predict_curves_batch(&[features], freqs)
            .pop()
            .expect("one input yields one curve")
            .curve
    }

    /// Row-at-a-time reference for [`DomainSpecificModel::predict_curve`]:
    /// one [`DomainSpecificModel::predict_time_energy`] walk per frequency,
    /// kept for golden tests and as the baseline of the `serving` guard
    /// bench.
    pub fn predict_curve_reference(&self, features: &[f64], freqs: &[f64]) -> Vec<PredictedPoint> {
        let (t_def, e_def) = self.predict_time_energy(features, self.default_freq_mhz);
        freqs
            .iter()
            .map(|&f| {
                let (t, e) = self.predict_time_energy(features, f);
                PredictedPoint {
                    freq_mhz: f,
                    speedup: t_def / t,
                    norm_energy: e / e_def,
                }
            })
            .collect()
    }

    /// Batched prediction phase for many inputs at once. The serving drain
    /// path feeds whole admitted batches through this.
    ///
    /// Forest models (the production pair) take the **sweep-aware flat
    /// path**: every `(input, frequency)` row of a curve differs from its
    /// siblings only in the frequency column, so each arena tree is
    /// descended once per input via `FlatForest::predict_sweep_batch_into` —
    /// frequency splits partition the sweep range instead of re-walking
    /// the tree per frequency. Non-forest models expand the templates into
    /// one row per `(input, frequency)` and evaluate both matrices in
    /// batched model passes.
    ///
    /// Per-row float schedules are unchanged on both paths, so every
    /// returned curve is bit-identical to
    /// [`DomainSpecificModel::predict_curve_reference`].
    ///
    /// # Panics
    /// Panics on a feature-width mismatch.
    pub fn predict_curves_batch(&self, inputs: &[&[f64]], freqs: &[f64]) -> Vec<CurvePrediction> {
        // One template row per input, the default frequency in the swept
        // column: the anchor batch, and the templates of the sweep.
        let mut x = Matrix::with_cols(self.n_features + 1);
        let mut row = Vec::with_capacity(self.n_features + 1);
        for features in inputs {
            assert_eq!(features.len(), self.n_features, "feature width mismatch");
            row.clear();
            row.extend_from_slice(features);
            row.push(self.default_freq_mhz);
            x.push_row(&row);
        }
        let mut t_def_log = Vec::new();
        let mut e_def_log = Vec::new();
        let mut t_curve = Vec::new();
        let mut e_curve = Vec::new();
        if let (AnyModel::Forest(time_flat), AnyModel::Forest(energy_flat)) =
            (&self.time_model, &self.energy_model)
        {
            // Anchors as feature-major plain descents, the sweep tree-major
            // with frequency splits partitioning the ascending sweep range —
            // four passes total, each arena streamed once per pass
            // regardless of batch size.
            time_flat.predict_batch_into(&x, &mut t_def_log);
            energy_flat.predict_batch_into(&x, &mut e_def_log);
            time_flat.predict_sweep_batch_into(&x, self.n_features, freqs, &mut t_curve);
            energy_flat.predict_sweep_batch_into(&x, self.n_features, freqs, &mut e_curve);
        } else {
            let mut sweep = Matrix::with_cols(self.n_features + 1);
            for template in x.iter_rows() {
                row.clear();
                row.extend_from_slice(template);
                for &f in freqs {
                    row[self.n_features] = f;
                    sweep.push_row(&row);
                }
            }
            self.time_model.predict_batch(&x, &mut t_def_log);
            self.energy_model.predict_batch(&x, &mut e_def_log);
            self.time_model.predict_batch(&sweep, &mut t_curve);
            self.energy_model.predict_batch(&sweep, &mut e_curve);
        }
        (0..inputs.len())
            .map(|i| {
                let t_def = t_def_log[i].exp();
                let e_def = e_def_log[i].exp();
                let base = i * freqs.len();
                let curve = freqs
                    .iter()
                    .enumerate()
                    .map(|(j, &f)| PredictedPoint {
                        freq_mhz: f,
                        speedup: t_def / t_curve[base + j].exp(),
                        norm_energy: e_curve[base + j].exp() / e_def,
                    })
                    .collect();
                CurvePrediction {
                    default_time_s: t_def,
                    default_energy_j: e_def,
                    curve,
                }
            })
            .collect()
    }

    /// Default frequency used for normalization.
    pub fn default_freq_mhz(&self) -> f64 {
        self.default_freq_mhz
    }

    /// Width of the feature vectors this model was trained on — callers
    /// serving predictions validate request width against this instead of
    /// tripping the `predict_time_energy` assertion.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Serializes the trained model pair to JSON — train once during the
    /// (expensive) training phase, ship the model to the runtime that does
    /// frequency selection. A forest pair persists its arenas' arrays, and
    /// every float round-trips bit for bit.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("model serialization cannot fail")
    }

    /// Restores a model pair from [`DomainSpecificModel::to_json`] output.
    /// Refuses unparseable JSON, a payload whose `config_cols` marker is
    /// not 1 (a model over other configuration columns, which no
    /// prediction path here can serve), and a forest arena that fails
    /// [`FlatForest::check`] or is not one column wider than the input
    /// features — so no arena read from bytes can index out of bounds or
    /// descend forever.
    pub fn from_json(json: &str) -> Result<Self, String> {
        let model: Self = serde_json::from_str(json).map_err(|e| e.to_string())?;
        if model.config_cols != 1 {
            return Err(format!(
                "model has {} configuration columns; only core-clock models (1) load",
                model.config_cols
            ));
        }
        for (name, m) in [("time", &model.time_model), ("energy", &model.energy_model)] {
            if let AnyModel::Forest(flat) = m {
                flat.check().map_err(|e| format!("{name} forest: {e}"))?;
                if model.n_features.checked_add(1) != Some(flat.n_features()) {
                    return Err(format!(
                        "{name} forest is {} columns wide, not the model's {} features + 1",
                        flat.n_features(),
                        model.n_features
                    ));
                }
            }
        }
        Ok(model)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Synthetic app with a roofline kink: compute time ∝ work/f competes
    /// with a frequency-independent memory floor — the nonsmooth response
    /// surface real DVFS data has.
    fn synth_samples(inputs: &[(f64, f64)], freqs: &[f64]) -> Vec<DsSample> {
        let mut out = Vec::new();
        for &(a, b) in inputs {
            let work = a * b * 1e6;
            for &f in freqs {
                // The memory roof caps the effective rate at 900 MHz.
                let eff = f.min(900.0);
                let time = work / (eff * 1e6) + 4.0e-5;
                let power = 50.0 + 0.1 * f;
                out.push(DsSample {
                    features: Arc::new(vec![a, b]),
                    freq_mhz: f,
                    time_s: time,
                    energy_j: time * power,
                });
            }
        }
        out
    }

    fn freqs() -> Vec<f64> {
        (0..40).map(|i| 500.0 + i as f64 * 27.5).collect()
    }

    #[test]
    fn fits_training_inputs_accurately() {
        let inputs = [(2.0, 3.0), (4.0, 5.0), (8.0, 2.0), (10.0, 10.0)];
        let samples = synth_samples(&inputs, &freqs());
        let model = DomainSpecificModel::train(&samples, 1315.0, 0);
        for s in samples.iter().step_by(7) {
            let (t, e) = model.predict_time_energy(&s.features, s.freq_mhz);
            assert!((t - s.time_s).abs() / s.time_s < 0.1, "time");
            assert!((e - s.energy_j).abs() / s.energy_j < 0.1, "energy");
        }
    }

    #[test]
    fn curve_normalizes_to_predicted_default() {
        let inputs = [(2.0, 3.0), (4.0, 5.0), (8.0, 2.0)];
        let samples = synth_samples(&inputs, &freqs());
        let default = 855.0;
        let model = DomainSpecificModel::train(&samples, default, 0);
        let curve = model.predict_curve(&[4.0, 5.0], &[default]);
        assert!((curve[0].speedup - 1.0).abs() < 1e-9);
        assert!((curve[0].norm_energy - 1.0).abs() < 1e-9);
    }

    #[test]
    fn normalization_cancels_systematic_offset() {
        // Hold out an unseen input whose absolute time the forest cannot
        // extrapolate; the speedup *curve* must still be accurate because
        // the offset cancels in the ratio (the mechanism that makes the
        // paper's LOOCV errors tiny).
        let train_inputs = [(2.0, 3.0), (4.0, 5.0), (8.0, 2.0), (6.0, 6.0)];
        let samples = synth_samples(&train_inputs, &freqs());
        let model = DomainSpecificModel::train(&samples, 855.0, 0);
        let unseen = [12.0, 9.0];
        let fs = freqs();
        let curve = model.predict_curve(&unseen, &fs);
        for p in &curve {
            let true_speedup = p.freq_mhz.min(900.0) / 855.0;
            assert!(
                (p.speedup - true_speedup).abs() / true_speedup < 0.08,
                "freq {}: predicted {} vs true {}",
                p.freq_mhz,
                p.speedup,
                true_speedup
            );
        }
    }

    #[test]
    fn selection_prefers_random_forest() {
        // The synthetic response is multiplicative/nonlinear in features ×
        // frequency; the paper (and this pipeline) select Random Forest.
        let inputs = [
            (2.0, 3.0),
            (4.0, 5.0),
            (8.0, 2.0),
            (6.0, 6.0),
            (3.0, 9.0),
            (12.0, 4.0),
        ];
        let samples = synth_samples(&inputs, &freqs());
        let (model, scores) = DomainSpecificModel::train_selecting(&samples, 855.0, 1);
        assert_eq!(scores.len(), 4);
        assert_eq!(model.algorithm, Algorithm::RandomForest);
    }

    #[test]
    fn deterministic_training() {
        let samples = synth_samples(&[(2.0, 3.0), (4.0, 5.0)], &freqs());
        let a = DomainSpecificModel::train(&samples, 855.0, 9);
        let b = DomainSpecificModel::train(&samples, 855.0, 9);
        let pa = a.predict_time_energy(&[2.0, 3.0], 500.0);
        let pb = b.predict_time_energy(&[2.0, 3.0], 500.0);
        assert_eq!(pa, pb);
    }

    fn assert_curves_bit_identical(a: &[PredictedPoint], b: &[PredictedPoint]) {
        assert_eq!(a.len(), b.len());
        for (p, q) in a.iter().zip(b) {
            assert_eq!(p.freq_mhz.to_bits(), q.freq_mhz.to_bits());
            assert_eq!(
                p.speedup.to_bits(),
                q.speedup.to_bits(),
                "{} MHz",
                p.freq_mhz
            );
            assert_eq!(p.norm_energy.to_bits(), q.norm_energy.to_bits());
        }
    }

    #[test]
    fn json_round_trip_preserves_predictions() {
        // The reloaded copy writes the same payload and walks every row to
        // the same bits as the model it was saved from.
        let samples = synth_samples(&[(2.0, 3.0), (4.0, 5.0), (8.0, 2.0)], &freqs());
        let model = DomainSpecificModel::train(&samples, 855.0, 4);
        let json = model.to_json();
        let back = DomainSpecificModel::from_json(&json).unwrap();
        assert_eq!(back.algorithm, model.algorithm);
        assert_eq!(back.to_json(), json);
        for input in [[4.0, 5.0], [12.0, 9.0]] {
            for &f in &freqs() {
                let (t0, e0) = model.predict_time_energy(&input, f);
                let (t1, e1) = back.predict_time_energy(&input, f);
                assert_eq!(t0.to_bits(), t1.to_bits());
                assert_eq!(e0.to_bits(), e1.to_bits());
            }
        }
    }

    #[test]
    fn deserialized_model_recompiles_flat_layout() {
        // Nothing is recompiled on load: the arena read from the payload is
        // the one served. The reloaded forest pair takes the batched arena
        // sweep, and both it and the row walk give the saved model's curves
        // bit for bit.
        let samples = synth_samples(&[(2.0, 3.0), (4.0, 5.0), (8.0, 2.0)], &freqs());
        let model = DomainSpecificModel::train(&samples, 855.0, 4);
        let back = DomainSpecificModel::from_json(&model.to_json()).unwrap();
        assert!(matches!(
            (&back.time_model, &back.energy_model),
            (AnyModel::Forest(_), AnyModel::Forest(_))
        ));
        let fs = freqs();
        for input in [[4.0, 5.0], [12.0, 9.0]] {
            let truth = model.predict_curve_reference(&input, &fs);
            assert_curves_bit_identical(&back.predict_curve(&input, &fs), &truth);
            assert_curves_bit_identical(&back.predict_curve_reference(&input, &fs), &truth);
        }
    }

    #[test]
    fn forest_of_another_width_is_refused() {
        let samples = synth_samples(&[(2.0, 3.0), (4.0, 5.0)], &freqs());
        let json = DomainSpecificModel::train(&samples, 855.0, 9).to_json();
        let marker = "\"algorithm\":\"RandomForest\",\"n_features\":2,";
        assert!(json.contains(marker));
        let wider = json.replace(marker, "\"algorithm\":\"RandomForest\",\"n_features\":3,");
        let err = DomainSpecificModel::from_json(&wider).unwrap_err();
        assert!(err.contains("time forest is 3 columns wide"), "{err}");
    }

    #[test]
    fn malformed_json_is_an_error() {
        assert!(DomainSpecificModel::from_json("{not json").is_err());
    }

    #[test]
    fn flat_path_bit_identical_to_reference() {
        let samples = synth_samples(&[(2.0, 3.0), (4.0, 5.0), (8.0, 2.0)], &freqs());
        let model = DomainSpecificModel::train(&samples, 855.0, 4);
        let fs = freqs();
        assert_curves_bit_identical(
            &model.predict_curve(&[4.0, 5.0], &fs),
            &model.predict_curve_reference(&[4.0, 5.0], &fs),
        );
    }

    #[test]
    fn batched_curves_match_per_input_curves() {
        let samples = synth_samples(&[(2.0, 3.0), (4.0, 5.0), (8.0, 2.0)], &freqs());
        let model = DomainSpecificModel::train(&samples, 855.0, 7);
        let fs = freqs();
        let inputs: [&[f64]; 3] = [&[2.0, 3.0], &[4.0, 5.0], &[12.0, 9.0]];
        let batch = model.predict_curves_batch(&inputs, &fs);
        assert_eq!(batch.len(), 3);
        for (input, pred) in inputs.iter().zip(&batch) {
            let (t_def, e_def) = model.predict_time_energy(input, 855.0);
            assert_eq!(pred.default_time_s.to_bits(), t_def.to_bits());
            assert_eq!(pred.default_energy_j.to_bits(), e_def.to_bits());
            assert_curves_bit_identical(&pred.curve, &model.predict_curve_reference(input, &fs));
        }
    }

    #[test]
    fn non_forest_models_serve_without_flat_layout() {
        let samples = synth_samples(&[(2.0, 3.0), (4.0, 5.0), (8.0, 2.0)], &freqs());
        let model = DomainSpecificModel::train_algorithm(&samples, 855.0, Algorithm::Linear, 0);
        let fs = freqs();
        assert_curves_bit_identical(
            &model.predict_curve(&[4.0, 5.0], &fs),
            &model.predict_curve_reference(&[4.0, 5.0], &fs),
        );
    }

    #[test]
    #[should_panic(expected = "empty training set")]
    fn empty_training_rejected() {
        let _ = DomainSpecificModel::train(&[], 1312.0, 0);
    }

    #[test]
    #[should_panic(expected = "feature width mismatch")]
    fn wrong_feature_width_rejected() {
        let samples = synth_samples(&[(2.0, 3.0), (4.0, 5.0)], &freqs());
        let model = DomainSpecificModel::train(&samples, 855.0, 0);
        let _ = model.predict_time_energy(&[1.0], 500.0);
    }
}
