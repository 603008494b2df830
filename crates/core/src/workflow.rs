//! End-to-end training and prediction workflows (Figures 11 and 12).
//!
//! The training phase (Fig. 11) launches the application through the
//! SYnergy API once per (input, frequency) pair and collects the dataset
//! `D = {(f⃗, c, t, e)}`; the prediction phase (Fig. 12) evaluates a
//! trained model over the frequency range and extracts the predicted
//! Pareto-optimal frequency configurations.

use std::sync::Arc;

use gpu_sim::DeviceSpec;
use rayon::prelude::*;

use crate::characterize::{characterize, Characterization};
use crate::ds_model::{DsSample, PredictedPoint};
use crate::features::{CronosInput, LigenInput};
use crate::pareto::pareto_front_indices;

/// A characterized input: its feature vector, its display label, and the
/// frequency sweep measured for it.
///
/// The feature vector is reference-counted: every training sample derived
/// from this input shares it instead of cloning one `Vec<f64>` per
/// frequency point (a full-resolution sweep is ~180 points per input).
#[derive(Debug, Clone)]
pub struct CharacterizedInput {
    /// Domain-specific feature vector (Table 2), shared with all samples.
    pub features: Arc<Vec<f64>>,
    /// Display label (paper-figure format).
    pub label: String,
    /// The measured sweep.
    pub characterization: Characterization,
}

impl CharacterizedInput {
    /// Converts the sweep into training samples `(f⃗, c, t, e)`. The
    /// samples share this input's feature vector.
    pub fn samples(&self) -> Vec<DsSample> {
        self.characterization
            .points
            .iter()
            .map(|p| DsSample {
                features: Arc::clone(&self.features),
                freq_mhz: p.freq_mhz,
                time_s: p.time_s,
                energy_j: p.energy_j,
            })
            .collect()
    }
}

/// Number of timesteps each Cronos energy run simulates.
pub const CRONOS_STEPS: u64 = 10;

/// Floor of the experimental frequency sweep (MHz). The V100 exposes
/// clocks down to 135 MHz, but the paper's characterizations visibly sweep
/// the practically relevant upper range (the figure colorbars start at
/// 600–800 MHz for most experiments); below ~450 MHz every application is
/// deep in the compute-/latency-limited regime that no frequency-selection
/// policy would ever choose.
pub const MIN_EXPERIMENT_MHZ: f64 = 450.0;

/// The frequency set used by all experiments: every supported core clock
/// of `spec` at or above [`MIN_EXPERIMENT_MHZ`], optionally thinned by
/// `stride` (1 = the paper's full-resolution sweep).
pub fn experiment_frequencies(spec: &DeviceSpec, stride: usize) -> Vec<f64> {
    spec.core_freqs
        .strided(stride)
        .into_iter()
        .filter(|f| *f >= MIN_EXPERIMENT_MHZ)
        .collect()
}

/// Characterizes every Cronos grid configuration over `freqs`, fanning the
/// inputs out across threads (each input's sweep is independent; results
/// come back in input order).
pub fn characterize_cronos(
    spec: &DeviceSpec,
    configs: &[CronosInput],
    freqs: &[f64],
    reps: usize,
    noise_seed: Option<u64>,
) -> Vec<CharacterizedInput> {
    configs
        .par_iter()
        .map(|cfg| CharacterizedInput {
            features: Arc::new(cfg.features()),
            label: cfg.label(),
            characterization: characterize(spec, &cfg.workload(), freqs, reps, noise_seed),
        })
        .collect()
}

/// Characterizes every LiGen input configuration over `freqs`, fanning the
/// inputs out across threads.
pub fn characterize_ligen(
    spec: &DeviceSpec,
    configs: &[LigenInput],
    freqs: &[f64],
    reps: usize,
    noise_seed: Option<u64>,
) -> Vec<CharacterizedInput> {
    configs
        .par_iter()
        .map(|cfg| CharacterizedInput {
            features: Arc::new(cfg.features()),
            label: cfg.label(),
            characterization: characterize(spec, &cfg.workload(), freqs, reps, noise_seed),
        })
        .collect()
}

/// Flattens characterized inputs into one training set.
pub fn training_set(inputs: &[CharacterizedInput]) -> Vec<DsSample> {
    inputs.iter().flat_map(|c| c.samples()).collect()
}

/// The LOOCV training set: every input except `skip`, flattened. Avoids
/// cloning the held-out fold's characterizations just to drop them.
pub fn training_set_excluding(inputs: &[CharacterizedInput], skip: usize) -> Vec<DsSample> {
    inputs
        .iter()
        .enumerate()
        .filter(|(j, _)| *j != skip)
        .flat_map(|(_, c)| c.samples())
        .collect()
}

/// The static-feature extraction for the two applications: aggregate the
/// kernel profiles the application submits (what a static analyzer sees).
pub fn cronos_static_features(cfg: &CronosInput) -> [f64; crate::features::N_STATIC_FEATURES] {
    let grid = cronos::Grid::cubic(cfg.grid_x, cfg.grid_y, cfg.grid_z);
    crate::features::static_features(&cronos::kernelize::static_analysis_kernels(&grid))
}

/// LiGen static features from its two kernels.
pub fn ligen_static_features(cfg: &LigenInput) -> [f64; crate::features::N_STATIC_FEATURES] {
    let kernels = ligen::kernelize::static_analysis_kernels(
        cfg.ligands as u64,
        cfg.atoms as u64,
        cfg.fragments as u64,
        &ligen::DockParams::default(),
    );
    crate::features::static_features(&kernels)
}

/// Extracts the predicted Pareto-optimal frequency set from a predicted
/// curve (the three-step §5.2.2 procedure, applied to predictions).
pub fn predicted_pareto_frequencies(curve: &[PredictedPoint]) -> Vec<f64> {
    let pts: Vec<(f64, f64)> = curve.iter().map(|p| (p.speedup, p.norm_energy)).collect();
    pareto_front_indices(&pts)
        .into_iter()
        .map(|i| curve[i].freq_mhz)
        .collect()
}

/// The true Pareto-optimal frequency set of a measured characterization.
pub fn true_pareto_frequencies(ch: &Characterization) -> Vec<f64> {
    let pts = ch.objective_points();
    pareto_front_indices(&pts)
        .into_iter()
        .map(|i| ch.points[i].freq_mhz)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ds_model::DomainSpecificModel;

    fn quick_freqs(spec: &DeviceSpec) -> Vec<f64> {
        spec.core_freqs.strided(24)
    }

    #[test]
    fn cronos_workflow_builds_training_set() {
        let spec = DeviceSpec::v100();
        let freqs = quick_freqs(&spec);
        let configs = [CronosInput::new(10, 4, 4), CronosInput::new(40, 16, 16)];
        let chars = characterize_cronos(&spec, &configs, &freqs, 1, None);
        assert_eq!(chars.len(), 2);
        let samples = training_set(&chars);
        assert_eq!(samples.len(), 2 * freqs.len());
        assert_eq!(*samples[0].features, vec![10.0, 4.0, 4.0]);
        assert!(samples.iter().all(|s| s.time_s > 0.0 && s.energy_j > 0.0));
    }

    #[test]
    fn ligen_workflow_builds_training_set() {
        let spec = DeviceSpec::v100();
        let freqs = quick_freqs(&spec);
        let configs = [LigenInput::new(256, 31, 4)];
        let chars = characterize_ligen(&spec, &configs, &freqs, 1, None);
        let samples = training_set(&chars);
        assert_eq!(samples.len(), freqs.len());
        assert_eq!(*samples[0].features, vec![256.0, 4.0, 31.0]);
    }

    #[test]
    fn end_to_end_train_and_predict_pareto() {
        let spec = DeviceSpec::v100();
        let freqs = quick_freqs(&spec);
        let configs = CronosInput::paper_configs();
        let chars = characterize_cronos(&spec, &configs[..3], &freqs, 1, None);
        let samples = training_set(&chars);
        let model = DomainSpecificModel::train(&samples, spec.default_core_mhz, 0);
        let curve = model.predict_curve(&configs[1].features(), &freqs);
        let pred_front = predicted_pareto_frequencies(&curve);
        assert!(!pred_front.is_empty());
        assert!(pred_front.len() <= freqs.len());
    }

    #[test]
    fn true_pareto_contains_extreme_tradeoffs() {
        // The fastest point and the cheapest point are always on the front.
        let spec = DeviceSpec::v100();
        let freqs = quick_freqs(&spec);
        let w = ligen::GpuLigen::new(10_000, 89, 20);
        let ch = characterize(&spec, &w, &freqs, 1, None);
        let front = true_pareto_frequencies(&ch);
        let fastest = ch
            .points
            .iter()
            .max_by(|a, b| a.speedup.total_cmp(&b.speedup))
            .unwrap();
        let cheapest = ch
            .points
            .iter()
            .min_by(|a, b| a.norm_energy.total_cmp(&b.norm_energy))
            .unwrap();
        assert!(front.contains(&fastest.freq_mhz));
        assert!(front.contains(&cheapest.freq_mhz));
    }

    #[test]
    fn static_features_nearly_input_invariant() {
        // The paper's premise: static code features barely move with input
        // (only the boundary kernel's work share shifts slightly).
        let small = cronos_static_features(&CronosInput::new(10, 4, 4));
        let large = cronos_static_features(&CronosInput::new(160, 64, 64));
        for (a, b) in small.iter().zip(&large) {
            assert!((a - b).abs() < 0.08, "feature moved: {a} vs {b}");
        }
        let l_small = ligen_static_features(&LigenInput::new(2, 31, 4));
        let l_large = ligen_static_features(&LigenInput::new(10000, 89, 20));
        for (a, b) in l_small.iter().zip(&l_large) {
            assert!((a - b).abs() < 0.08);
        }
    }
}
