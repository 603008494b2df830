//! Shared experiment runners for the figure/table regeneration harness.
//!
//! Every figure and table of the paper's evaluation maps to one function
//! here (see `DESIGN.md`'s per-experiment index); the `figures` binary
//! dispatches on experiment id and prints the same rows/series the paper
//! reports, as markdown tables. Numbers will not match the authors'
//! testbed absolutely — the substrate is a simulator — but the shape
//! (who wins, by what factor, where the Pareto knees fall) reproduces.

#![forbid(unsafe_code)]

use energy_model::characterize::{characterize, Characterization, Workload};
use energy_model::ds_model::DomainSpecificModel;
use energy_model::eval::{evaluate_loocv, evaluate_pareto, MapeRow, ParetoEval};
use energy_model::features::{CronosInput, LigenInput, N_STATIC_FEATURES};
use energy_model::gp_model::GeneralPurposeModel;
use energy_model::pareto::pareto_front_indices;
use energy_model::workflow::{
    characterize_cronos, characterize_ligen, experiment_frequencies, CharacterizedInput,
};
use gpu_sim::DeviceSpec;
use ml::forest::RandomForestParams;

/// Frequency-table stride used by the harness: every 2nd supported clock
/// (~half the paper's 196-point resolution, indistinguishable results at a
/// quarter of the runtime).
pub const SWEEP_STRIDE: usize = 2;

/// Repetitions per measurement (the paper's five, §5.1).
pub const REPS: usize = 5;

/// Seed for the harness' noise model and forests.
pub const SEED: u64 = 20231112; // the SC-W '23 workshop date

/// Forest size for harness-trained models (the defaults are 100 trees;
/// 60 keeps the full Figure-13 run under a minute with identical verdicts).
pub fn harness_forest_params() -> RandomForestParams {
    RandomForestParams {
        n_estimators: 60,
        ..Default::default()
    }
}

/// The experiment frequency sweep for a device.
pub fn sweep_freqs(spec: &DeviceSpec) -> Vec<f64> {
    experiment_frequencies(spec, SWEEP_STRIDE)
}

/// Prints a markdown table.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n### {title}\n");
    println!("| {} |", header.join(" | "));
    println!(
        "|{}|",
        header.iter().map(|_| "---").collect::<Vec<_>>().join("|")
    );
    for row in rows {
        println!("| {} |", row.join(" | "));
    }
}

/// Characterization rows for a normalized figure: frequency, speedup,
/// normalized energy, Pareto membership.
pub fn characterization_rows(ch: &Characterization, every: usize) -> Vec<Vec<String>> {
    let pts = ch.objective_points();
    let front = pareto_front_indices(&pts);
    ch.points
        .iter()
        .enumerate()
        .step_by(every)
        .map(|(i, p)| {
            vec![
                format!("{:.0}", p.freq_mhz),
                format!("{:.4}", p.speedup),
                format!("{:.4}", p.norm_energy),
                if front.contains(&i) {
                    "yes".into()
                } else {
                    "".into()
                },
            ]
        })
        .collect()
}

/// Runs and prints one normalized characterization panel.
pub fn print_characterization(title: &str, spec: &DeviceSpec, workload: &dyn Workload) {
    let freqs = sweep_freqs(spec);
    let ch = characterize(spec, workload, &freqs, REPS, Some(SEED));
    let rows = characterization_rows(&ch, 6);
    print_table(
        &format!("{title} — {} on {}", ch.workload, ch.device),
        &["core MHz", "speedup", "norm. energy", "Pareto"],
        &rows,
    );
    summarize_characterization(&ch);
}

/// Prints the headline stats of a characterization: best speedup, best
/// energy saving, and the cost of each.
pub fn summarize_characterization(ch: &Characterization) {
    let fastest = ch
        .points
        .iter()
        .max_by(|a, b| a.speedup.total_cmp(&b.speedup))
        .expect("non-empty");
    let cheapest = ch
        .points
        .iter()
        .min_by(|a, b| a.norm_energy.total_cmp(&b.norm_energy))
        .expect("non-empty");
    println!(
        "\nmax speedup {:.3} at {:.0} MHz (energy ×{:.3}); min energy ×{:.3} at {:.0} MHz (speedup {:.3})",
        fastest.speedup,
        fastest.freq_mhz,
        fastest.norm_energy,
        cheapest.norm_energy,
        cheapest.freq_mhz,
        cheapest.speedup
    );
}

/// Raw-value sweep rows (Figures 6–9 use raw seconds/joules, §3.2.1).
pub fn raw_rows(ch: &Characterization, every: usize) -> Vec<Vec<String>> {
    ch.points
        .iter()
        .step_by(every)
        .map(|p| {
            vec![
                format!("{:.0}", p.freq_mhz),
                format!("{:.3}", p.time_s),
                format!("{:.4}", p.energy_j / 1000.0), // kJ like the figures
            ]
        })
        .collect()
}

/// A trained GP model + its application feature vectors for one device.
pub struct GpSetup {
    /// The trained general-purpose model.
    pub model: GeneralPurposeModel,
}

/// Trains the GP baseline for a device over the sweep frequencies.
pub fn train_gp(spec: &DeviceSpec) -> GpSetup {
    let freqs = sweep_freqs(spec);
    GpSetup {
        model: GeneralPurposeModel::train_with(spec, &freqs, SEED, harness_forest_params()),
    }
}

/// The Figure-13a/b experiment on any device (the paper models the V100;
/// running the identical protocol on the MI100/Max 1100 descriptors shows
/// the methodology is architecture-independent, §6's portability claim).
pub fn fig13_cronos(spec: &DeviceSpec) -> Vec<MapeRow> {
    let freqs = sweep_freqs(spec);
    let configs = CronosInput::paper_configs();
    let inputs = characterize_cronos(spec, &configs, &freqs, REPS, Some(SEED));
    let gp = train_gp(spec);
    let gp_features: Vec<[f64; N_STATIC_FEATURES]> = configs
        .iter()
        .map(energy_model::workflow::cronos_static_features)
        .collect();
    evaluate_loocv(
        &inputs,
        &gp.model,
        &gp_features,
        spec.default_core_mhz,
        SEED,
    )
}

/// The Figure-13c/d experiment: LiGen LOOCV MAPE on the twelve reported
/// input tuples (trained over the same twelve, as the paper's protocol).
pub fn fig13_ligen(spec: &DeviceSpec) -> Vec<MapeRow> {
    let freqs = sweep_freqs(spec);
    let configs = LigenInput::figure13_configs();
    let inputs = characterize_ligen(spec, &configs, &freqs, REPS, Some(SEED));
    let gp = train_gp(spec);
    let gp_features: Vec<[f64; N_STATIC_FEATURES]> = configs
        .iter()
        .map(energy_model::workflow::ligen_static_features)
        .collect();
    evaluate_loocv(
        &inputs,
        &gp.model,
        &gp_features,
        spec.default_core_mhz,
        SEED,
    )
}

/// Prints a Figure-13 panel.
pub fn print_mape_rows(title: &str, rows: &[MapeRow]) {
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.label.clone(),
                format!("{:.4}", r.gp_speedup),
                format!("{:.4}", r.ds_speedup),
                format!("{:.1}×", r.speedup_improvement()),
                format!("{:.4}", r.gp_energy),
                format!("{:.4}", r.ds_energy),
                format!("{:.1}×", r.energy_improvement()),
            ]
        })
        .collect();
    print_table(
        title,
        &[
            "input",
            "GP speedup MAPE",
            "DS speedup MAPE",
            "improv.",
            "GP energy MAPE",
            "DS energy MAPE",
            "improv.",
        ],
        &table,
    );
}

/// The Figure-14 experiment for one held-out input.
pub fn fig14_for(
    spec: &DeviceSpec,
    inputs: &[CharacterizedInput],
    index: usize,
    gp_features: &[f64; N_STATIC_FEATURES],
) -> ParetoEval {
    let gp = train_gp(spec);
    evaluate_pareto(
        inputs,
        index,
        &gp.model,
        gp_features,
        spec.default_core_mhz,
        SEED,
    )
}

/// Prints a Figure-14 panel.
pub fn print_pareto_eval(title: &str, eval: &ParetoEval) {
    println!("\n### {title}\n");
    println!(
        "true Pareto set: {} frequencies ({:.0}–{:.0} MHz)",
        eval.true_freqs.len(),
        eval.true_freqs
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min),
        eval.true_freqs.iter().copied().fold(0.0f64, f64::max),
    );
    for (name, cmp) in [("general-purpose", &eval.gp), ("domain-specific", &eval.ds)] {
        println!(
            "{name}: predicted {} freqs, {} exact matches (precision {:.2}, recall {:.2}), \
             mean realized distance to true front {:.4}",
            cmp.predicted_size,
            cmp.exact_matches,
            cmp.precision(),
            cmp.recall(),
            cmp.mean_distance
        );
    }
}

/// Aggregate headline: mean and minimum GP/DS improvement factors.
pub fn headline(rows: &[MapeRow]) -> (f64, f64, f64, f64) {
    let n = rows.len() as f64;
    let mean_s = rows.iter().map(|r| r.speedup_improvement()).sum::<f64>() / n;
    let mean_e = rows.iter().map(|r| r.energy_improvement()).sum::<f64>() / n;
    let min_s = rows
        .iter()
        .map(|r| r.speedup_improvement())
        .fold(f64::INFINITY, f64::min);
    let min_e = rows
        .iter()
        .map(|r| r.energy_improvement())
        .fold(f64::INFINITY, f64::min);
    (mean_s, mean_e, min_s, min_e)
}

/// Trains a DS model from characterized inputs (used by example scenarios
/// and the ablation harness).
pub fn train_ds(inputs: &[CharacterizedInput], default_freq: f64) -> DomainSpecificModel {
    let samples = energy_model::workflow::training_set(inputs);
    DomainSpecificModel::train(&samples, default_freq, SEED)
}
