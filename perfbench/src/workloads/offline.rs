//! `offline`: the paper's Fig. 13/14 protocol on the V100 — noisy 5-rep
//! characterization of the 5 Cronos and 12 LiGen paper inputs over the
//! 77-clock harness sweep, one GP baseline fit (60 trees on the 106
//! micro-benchmarks), LOOCV for both apps, and the two Fig. 14 Pareto
//! evaluations.

use energy_model::characterize::Characterization;
use energy_model::ds_model::PredictedPoint;
use energy_model::eval::{evaluate_loocv, evaluate_pareto, MapeRow, ParetoEval};
use energy_model::features::N_STATIC_FEATURES;
use energy_model::microbench::N_MICROBENCHES;
use energy_model::workflow::{
    cronos_static_features, experiment_frequencies, ligen_static_features, training_set_excluding,
    CharacterizedInput,
};
use energy_model::{CronosInput, DomainSpecificModel, GeneralPurposeModel, LigenInput};
use gpu_sim::DeviceSpec;
use ml::forest::RandomForestParams;
use rayon::prelude::*;

use super::reissue::count_fit;
use super::{characterize_inputs, sweep_options, BenchWorkload, Input, PassOutput, Stages};
use crate::check::{Check, Digest};
use crate::env::Env;
use crate::trace::{Layer, Tracer};
use crate::REPS;

/// Harness clock stride: every 2nd experiment clock (77 on the V100).
pub const STRIDE: usize = 2;

/// Trees per forest, for the GP baseline and every DS model.
pub const TREES: usize = 60;

/// The `offline` workload.
#[derive(Debug, Default, Clone, Copy)]
pub struct Offline;

/// One application's inputs and the GP's static features for them.
pub struct App {
    inputs: Vec<Input>,
    gp_features: Vec<[f64; N_STATIC_FEATURES]>,
    /// Held-out input of the Fig. 14 Pareto evaluation.
    pareto_index: usize,
}

/// Inputs of the protocol.
pub struct OfflineState {
    spec: DeviceSpec,
    freqs: Vec<f64>,
    cronos: App,
    ligen: App,
}

impl BenchWorkload for Offline {
    type State = OfflineState;
    const ITEMS: &'static str = "points";

    fn setup(&self, _env: &Env, _tracer: &Tracer) -> Result<OfflineState, String> {
        let spec = DeviceSpec::v100();
        let freqs = experiment_frequencies(&spec, STRIDE);
        let cronos = CronosInput::paper_configs();
        let ligen = LigenInput::figure13_configs();
        let ligen_big = ligen
            .iter()
            .position(|c| c.ligands == 10_000 && c.atoms == 89 && c.fragments == 20)
            .ok_or("the Fig. 14 LiGen input is missing")?;
        Ok(OfflineState {
            spec,
            freqs,
            cronos: App {
                inputs: cronos.iter().map(Input::cronos).collect(),
                gp_features: cronos.iter().map(cronos_static_features).collect(),
                pareto_index: cronos.len() - 1,
            },
            ligen: App {
                inputs: ligen.iter().map(Input::ligen).collect(),
                gp_features: ligen.iter().map(ligen_static_features).collect(),
                pareto_index: ligen_big,
            },
        })
    }

    fn pass(&self, st: &OfflineState, env: &Env, tracer: &Tracer) -> Result<PassOutput, String> {
        let seed = env.seed;
        let default_mhz = st.spec.default_core_mhz;
        let opts = sweep_options(REPS, Some(seed), tracer);
        let mut check = Check::default();
        let mut digest = Digest::default();
        let mut stages = Stages::default();

        let mut characterized = Vec::new();
        for (name, app, stage) in [
            ("cronos", &st.cronos, "cronos.characterize"),
            ("ligen", &st.ligen, "ligen.characterize"),
        ] {
            let swept = stages.time(stage, || {
                tracer.span(Layer::Characterize, "characterize.noisy", || {
                    characterize_inputs(&st.spec, &app.inputs, &st.freqs, &opts, tracer)
                })
            });
            for (input, diagnostics) in &swept {
                check.ensure(diagnostics.is_clean(), || {
                    format!("{name} sweep of {} not clean", input.label)
                });
                check_characterization(&mut check, &mut digest, &input.characterization);
            }
            characterized.push(
                swept
                    .into_iter()
                    .map(|(input, _)| input)
                    .collect::<Vec<_>>(),
            );
        }
        let items = characterized
            .iter()
            .map(|inputs| (inputs.len() * (st.freqs.len() + 1) * REPS) as u64)
            .sum();

        let gp = stages.time("gp_model.fit", || {
            tracer.span(Layer::Ml, "gp_model.fit", || {
                GeneralPurposeModel::train_with(&st.spec, &st.freqs, seed, gp_params())
            })
        });
        tracer.count(
            "ml.fit_rows",
            (N_MICROBENCHES * st.freqs.len() * TREES * 2) as u64,
        );

        let mut ds_apes = Vec::new();
        for ((name, app, [loocv, pareto]), inputs) in [
            ("cronos", &st.cronos, ["cronos.loocv", "cronos.pareto"]),
            ("ligen", &st.ligen, ["ligen.loocv", "ligen.pareto"]),
        ]
        .into_iter()
        .zip(&characterized)
        {
            let rows = stages.time(loocv, || {
                tracer.span(Layer::Eval, "eval.loocv", || {
                    evaluate_loocv(inputs, &gp, &app.gp_features, default_mhz, seed)
                })
            });
            tracer.reissue(Layer::Eval, || {
                reissue_loocv(
                    tracer,
                    inputs,
                    &gp,
                    &app.gp_features,
                    default_mhz,
                    seed,
                    &rows,
                )
            });
            check.ensure(rows.len() == inputs.len(), || {
                format!(
                    "{name}: {} LOOCV rows for {} inputs",
                    rows.len(),
                    inputs.len()
                )
            });
            for (row, input) in rows.iter().zip(inputs) {
                check.ensure(row.label == input.label, || {
                    format!("LOOCV row {} out of order", row.label)
                });
                check_mape_row(&mut check, &mut digest, row);
                ds_apes.push(row.ds_speedup);
                ds_apes.push(row.ds_energy);
            }

            let i = app.pareto_index;
            let eval = stages.time(pareto, || {
                tracer.span(Layer::Eval, "eval.pareto", || {
                    evaluate_pareto(inputs, i, &gp, &app.gp_features[i], default_mhz, seed)
                })
            });
            tracer.reissue(Layer::Eval, || {
                reissue_pareto(
                    tracer,
                    inputs,
                    i,
                    &gp,
                    &app.gp_features[i],
                    default_mhz,
                    seed,
                )
            });
            check_pareto(&mut check, &mut digest, &eval);
        }

        check.finish()?;
        Ok(PassOutput {
            items,
            digest: digest.value(),
            sim: vec![("ds_mape", mean(&ds_apes))],
            stages: stages.into_vec(),
        })
    }
}

/// The harness forest size (the defaults are 100 trees; 60 gives the
/// same verdicts in well under half the time).
pub fn gp_params() -> RandomForestParams {
    RandomForestParams {
        n_estimators: TREES,
        ..RandomForestParams::default()
    }
}

fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len().max(1) as f64
}

fn check_characterization(check: &mut Check, digest: &mut Digest, ch: &Characterization) {
    check.positive("baseline time", ch.baseline_time_s);
    check.positive("baseline energy", ch.baseline_energy_j);
    for p in &ch.points {
        check.positive("point time", p.time_s);
        check.positive("point energy", p.energy_j);
        digest.f64(p.freq_mhz);
        digest.f64(p.time_s);
        digest.f64(p.energy_j);
    }
}

fn check_mape_row(check: &mut Check, digest: &mut Digest, row: &MapeRow) {
    for v in [row.gp_speedup, row.ds_speedup, row.gp_energy, row.ds_energy] {
        check.ensure(v.is_finite() && v >= 0.0, || {
            format!("MAPE of {} = {v}", row.label)
        });
        digest.f64(v);
    }
}

fn check_pareto(check: &mut Check, digest: &mut Digest, eval: &ParetoEval) {
    check.ensure(!eval.true_freqs.is_empty(), || {
        format!("empty true Pareto set for {}", eval.label)
    });
    for f in &eval.true_freqs {
        digest.f64(*f);
    }
    for cmp in [&eval.gp, &eval.ds] {
        check.ensure(
            cmp.predicted_size > 0 && cmp.mean_distance.is_finite(),
            || format!("degenerate predicted Pareto set for {}", eval.label),
        );
        digest.u64(cmp.predicted_size as u64);
        digest.u64(cmp.exact_matches as u64);
        digest.f64(cmp.mean_distance);
    }
}

fn curve_freqs(input: &CharacterizedInput) -> Vec<f64> {
    input
        .characterization
        .points
        .iter()
        .map(|p| p.freq_mhz)
        .collect()
}

/// The DS speedup MAPE of a predicted curve against the measured sweep.
fn ds_speedup_mape(input: &CharacterizedInput, curve: &[PredictedPoint]) -> f64 {
    let truth: Vec<f64> = input
        .characterization
        .points
        .iter()
        .map(|p| p.speedup)
        .collect();
    let predicted: Vec<f64> = curve.iter().map(|p| p.speedup).collect();
    ml::metrics::mape(&truth, &predicted)
}

/// Re-issues the LOOCV's forest fits and curve predictions (fanned out
/// over the folds like `evaluate_loocv`), and checks they reproduce the
/// DS MAPE the evaluation reported.
fn reissue_loocv(
    tracer: &Tracer,
    inputs: &[CharacterizedInput],
    gp: &GeneralPurposeModel,
    gp_features: &[[f64; N_STATIC_FEATURES]],
    default_mhz: f64,
    seed: u64,
    rows: &[MapeRow],
) {
    let freqs = curve_freqs(&inputs[0]);
    let models: Vec<DomainSpecificModel> = tracer.span(Layer::Ml, "ds_model.fit", || {
        (0..inputs.len())
            .into_par_iter()
            .map(|i| {
                let samples = training_set_excluding(inputs, i);
                DomainSpecificModel::train(&samples, default_mhz, seed)
            })
            .collect()
    });
    for i in 0..inputs.len() {
        count_fit(tracer, training_set_excluding(inputs, i).len());
    }
    let curves: Vec<Vec<PredictedPoint>> = tracer.span(Layer::Ml, "ds_model.predict", || {
        models
            .par_iter()
            .enumerate()
            .map(|(i, m)| m.predict_curve(&inputs[i].features, &freqs))
            .collect()
    });
    tracer.span(Layer::Ml, "gp_model.predict", || {
        gp_features
            .par_iter()
            .map(|f| gp.predict_curve(f, &freqs).len())
            .sum::<usize>()
    });
    let mismatches = rows
        .iter()
        .zip(inputs.iter().zip(&curves))
        .filter(|(row, (input, curve))| {
            ds_speedup_mape(input, curve).to_bits() != row.ds_speedup.to_bits()
        })
        .count();
    tracer.count("trace.reissue_mismatches", mismatches as u64);
}

/// Re-issues one Pareto evaluation's DS fit and both curve predictions.
fn reissue_pareto(
    tracer: &Tracer,
    inputs: &[CharacterizedInput],
    index: usize,
    gp: &GeneralPurposeModel,
    gp_features: &[f64; N_STATIC_FEATURES],
    default_mhz: f64,
    seed: u64,
) {
    let freqs = curve_freqs(&inputs[index]);
    let samples = training_set_excluding(inputs, index);
    let model = tracer.span(Layer::Ml, "ds_model.fit", || {
        DomainSpecificModel::train(&samples, default_mhz, seed)
    });
    count_fit(tracer, samples.len());
    tracer.span(Layer::Ml, "ds_model.predict", || {
        model.predict_curve(&inputs[index].features, &freqs).len()
    });
    tracer.span(Layer::Ml, "gp_model.predict", || {
        gp.predict_curve(gp_features, &freqs).len()
    });
}
