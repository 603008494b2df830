//! `lifecycle`: `LifecycleConfig::pinned` with efficiency drift injected
//! a third of the way into the stream, repeated as sub-runs. Each sub-run
//! starts from the registry its set-up freshly published. The
//! write path beside `fleet`'s reads: a drift trip runs a journaled,
//! fsynced retrain campaign, then a fit, a publish, a canary, and a
//! promote that invalidates the serving cache.

use std::collections::BTreeMap;
use std::path::Path;

use energy_model::artifact::fnv1a_64;
use energy_model::campaign::{run_campaign, CampaignConfig, DeviceSlot};
use energy_model::ds_model::DsSample;
use energy_model::quarantine::quarantine_results;
use energy_model::workflow::{experiment_frequencies, CharacterizedInput};
use energy_model::{training_fingerprint, DomainSpecificModel, Workload};
use governor::sim::{cronos_job_set, ligen_job_set};
use governor::{
    efficiency_drift, run_lifecycle, train_and_publish, DriftScenario, LifecycleConfig,
    LifecycleEvent, LifecycleReport, ModelRegistry, Policy, PredictionEngine, ServedChannel,
};
use gpu_sim::DeviceSpec;
use ml::{Dataset, Matrix};

use super::reissue::{self, Stream, StreamJob, APPS};
use super::{BenchWorkload, Input, PassOutput};
use crate::check::{Check, Digest};
use crate::env::{copy_tree, journal_stats, Env, TempDir};
use crate::trace::{Layer, Tracer};

/// The `lifecycle` workload.
#[derive(Debug, Clone, Copy)]
pub struct Lifecycle {
    /// Jobs per sub-run (the pinned stream).
    pub n_jobs: usize,
}

impl Default for Lifecycle {
    fn default() -> Self {
        Lifecycle { n_jobs: 40 }
    }
}

/// The freshly published registry a sub-run starts from.
pub struct LifecycleState {
    dir: TempDir,
    registry: ModelRegistry,
    cfg: LifecycleConfig,
}

impl Lifecycle {
    /// The pinned lifecycle with this workload's stream length, `seed`,
    /// and efficiency drift from a third of the way in.
    fn config(&self, seed: u64) -> LifecycleConfig {
        let mut cfg = LifecycleConfig::pinned(Policy::MinEnergyUnderDeadline);
        cfg.governor.n_jobs = self.n_jobs;
        cfg.governor.seed = seed;
        cfg.scenario = Some(DriftScenario {
            at_job: self.n_jobs as u64 / 3,
            spec: efficiency_drift(&cfg.governor.spec),
        });
        cfg
    }
}

impl BenchWorkload for Lifecycle {
    type State = LifecycleState;
    const ITEMS: &'static str = "jobs";

    fn setup(&self, env: &Env, tracer: &Tracer) -> Result<LifecycleState, String> {
        let dir = env.fresh_dir("lifecycle")?;
        let cfg = self.config(env.seed);
        let registry = ModelRegistry::open(&dir.path().join("registry"));
        tracer
            .span(Layer::Lifecycle, "governor.train_and_publish", || {
                train_and_publish(&cfg.governor, &registry)
            })
            .map_err(|e| format!("publish models: {e}"))?;
        tracer.reissue(Layer::Lifecycle, || {
            let Ok(scratch) = env.fresh_dir("lifecycle-reissue") else {
                return;
            };
            let g = &cfg.governor;
            reissue::training(
                tracer,
                &g.spec,
                g.train_stride,
                g.seed,
                &registry,
                &ModelRegistry::open(scratch.path()),
                str::to_string,
            );
        });
        Ok(LifecycleState { dir, registry, cfg })
    }

    fn pass(&self, st: &LifecycleState, env: &Env, tracer: &Tracer) -> Result<PassOutput, String> {
        let mut cfg = st.cfg.clone();
        cfg.governor.telemetry = tracer.program_sink();
        let run_dir = st.dir.path().join("run");
        // The re-issue needs the registry as published, before the run
        // promotes into it; the copy is re-issue time, not run time.
        let mut published = None;
        tracer.reissue(Layer::Lifecycle, || {
            published = env.fresh_dir("lifecycle-reissue").ok().filter(|scratch| {
                copy_tree(st.registry.root(), &scratch.path().join("published")).is_ok()
            });
        });
        let report = tracer
            .span(Layer::Lifecycle, "lifecycle.run", || {
                run_lifecycle(&cfg, &st.registry, &run_dir, false)
            })
            .map_err(|e| format!("lifecycle run: {e}"))?;
        if tracer.enabled() {
            let (bytes, records) = journal_stats(&run_dir);
            tracer.count("campaign.journal_bytes", bytes);
            tracer.count("campaign.journal_records", records);
            tracer.count("lifecycle.retrains", u64::from(report.retrains));
            tracer.count("lifecycle.promotes", u64::from(report.promotes));
            tracer.count("serving.hits", report.cache.hits);
            tracer.count("serving.misses", report.cache.misses);
            tracer.count(
                "serving.admission_rejected",
                report.admission_rejected as u64,
            );
            tracer.reissue(Layer::Lifecycle, || match &published {
                Some(scratch) => reissue_run(tracer, &cfg, scratch.path(), &st.registry, &report),
                None => tracer.count("trace.reissue_mismatches", 1),
            });
        }

        let mut check = Check::default();
        let mut digest = Digest::default();
        let n = cfg.governor.n_jobs;
        check.each_job_once(
            "lifecycle",
            report.decisions.iter().map(|d| d.record.job_id),
            n,
        );
        for d in &report.decisions {
            let r = &d.record;
            check.ensure(r.completed, || format!("job {} did not complete", r.job_id));
            check.positive("job time", r.measured_time_s);
            check.positive("job energy", r.measured_energy_j);
            digest.opt_f64(r.requested_mhz);
            digest.f64(r.measured_time_s);
            digest.f64(r.measured_energy_j);
            digest.opt_f64(d.ape);
        }
        check.ensure(report.retrains >= 1, || {
            "injected drift never triggered a retrain".to_string()
        });
        digest.u64(u64::from(report.retrains));
        digest.u64(u64::from(report.promotes));
        digest.u64(u64::from(report.rollbacks));
        check.finish()?;

        Ok(PassOutput {
            items: report.n_jobs as u64,
            digest: digest.value(),
            sim: sim_outcomes(&report),
            stages: Vec::new(),
        })
    }
}

/// The simulated headline of a lifecycle run (BENCH_lifecycle.json's
/// fields): energy, misses, retrain/promote counts, and the promoted
/// model's recovery point and post-promote MAPE.
fn sim_outcomes(r: &LifecycleReport) -> Vec<(&'static str, f64)> {
    let promoted = r.events.iter().find_map(|e| match e {
        LifecycleEvent::PromoteIntent { app, at_job, .. } => Some((app.clone(), *at_job)),
        _ => None,
    });
    let (promote_at, post_mape) = match &promoted {
        Some((app, at)) => {
            let apes: Vec<f64> = r
                .decisions
                .iter()
                .filter(|d| &d.record.app == app && d.record.job_id > *at)
                .filter_map(|d| d.ape)
                .collect();
            (
                *at as f64,
                apes.iter().sum::<f64>() / apes.len().max(1) as f64,
            )
        }
        None => (-1.0, 0.0),
    };
    vec![
        ("sim_energy_j", r.total_energy_j),
        ("sim_miss_rate", r.miss_rate),
        ("sim_retrains", f64::from(r.retrains)),
        ("sim_promotes", f64::from(r.promotes)),
        ("sim_rollbacks", f64::from(r.rollbacks)),
        (
            "sim_lifecycle_fallbacks",
            r.degradation.lifecycle_fallbacks as f64,
        ),
        ("sim_promote_at_job", promote_at),
        ("sim_post_promote_mape", post_mape),
    ]
}

/// The seed a retrain fits with (the lifecycle's derivation).
fn retrain_seed(seed: u64, app: &str, seq: u32) -> u64 {
    seed ^ fnv1a_64(format!("retrain:{app}:{seq}").as_bytes())
}

fn job_set(app: &str) -> Vec<Input> {
    match app {
        "cronos" => cronos_job_set().iter().map(Input::cronos).collect(),
        _ => ligen_job_set().iter().map(Input::ligen).collect(),
    }
}

/// Suffix of an app's canary-channel key in the lifecycle's engine.
const CANARY: &str = "#canary";

/// A model change a lifecycle run made to its serving engine.
enum Change {
    /// The retrained `version` opened as `app`'s canary channel.
    Canary { app: String, version: u32 },
    /// The canary `version` replaced `app`'s stable model.
    Promote { app: String, version: u32 },
    /// `app`'s canary channel closed.
    Rollback { app: String },
}

/// The run's serving changes in order, each with the last job id of the
/// burst after which it happened.
fn serving_changes(events: &[LifecycleEvent]) -> Vec<(u64, Change)> {
    let mut changes = Vec::new();
    let mut tripped_at = 0;
    for event in events {
        let change = match event {
            LifecycleEvent::DriftTripped { at_job, .. } => {
                tripped_at = *at_job;
                continue;
            }
            LifecycleEvent::CanaryOpened { app, version, .. } => (
                tripped_at,
                Change::Canary {
                    app: app.clone(),
                    version: *version,
                },
            ),
            LifecycleEvent::PromoteIntent {
                app,
                version,
                at_job,
                ..
            } => (
                *at_job,
                Change::Promote {
                    app: app.clone(),
                    version: *version,
                },
            ),
            LifecycleEvent::RollbackIntent { app, at_job, .. } => {
                (*at_job, Change::Rollback { app: app.clone() })
            }
            _ => continue,
        };
        changes.push(change);
    }
    changes
}

/// Applies one serving change to the re-issued engine as the run did,
/// with the re-issued retrains' models.
fn apply(
    tracer: &Tracer,
    engine: &mut PredictionEngine,
    change: &Change,
    retrained: &BTreeMap<(String, u32), DomainSpecificModel>,
) {
    let model = |app: &str, version: u32| {
        let model = retrained.get(&(app.to_string(), version)).cloned();
        tracer.count("trace.reissue_mismatches", u64::from(model.is_none()));
        model
    };
    match change {
        Change::Canary { app, version } => {
            if let Some(m) = model(app, *version) {
                engine.install_model(&format!("{app}{CANARY}"), m);
            }
        }
        Change::Promote { app, version } => {
            if let Some(m) = model(app, *version) {
                engine.install_model(app, m);
            }
            engine.remove_model(&format!("{app}{CANARY}"));
        }
        Change::Rollback { app } => {
            engine.remove_model(&format!("{app}{CANARY}"));
        }
    }
}

/// Re-issues one `run_lifecycle`'s layer calls against the copy of the
/// registry as published (`scratch/published`): the two registry loads;
/// each retrain's campaign → sanitize → fit → probes → canary publish →
/// verdict, which must leave every model directory byte for byte as the
/// run left `program`; and the stream's serving — each canary, promote
/// and rollback applied after the burst the run applied it — policy and
/// replay.
fn reissue_run(
    tracer: &Tracer,
    cfg: &LifecycleConfig,
    scratch: &Path,
    program: &ModelRegistry,
    report: &LifecycleReport,
) {
    let g = &cfg.governor;
    let Some(scenario) = &cfg.scenario else {
        return;
    };
    let registry = ModelRegistry::open(&scratch.join("published"));
    let fp = reissue::fingerprint(&g.spec, g.train_stride, g.seed);
    let mut engine = reissue::engine(&g.spec, g.freq_stride, g.queue_capacity, g.max_batch);
    for app in APPS {
        reissue::load(
            tracer,
            &registry,
            app,
            app,
            || {
                registry
                    .load_latest_healthy(app, Some(fp))
                    .ok()
                    .map(|(m, ..)| m)
            },
            &mut engine,
        );
    }

    let mut retrained = BTreeMap::new();
    for (i, event) in report.events.iter().enumerate() {
        let LifecycleEvent::DriftTripped {
            app, seq, at_job, ..
        } = event
        else {
            continue;
        };
        let Some((version, fingerprint)) = report.events[i..].iter().find_map(|e| match e {
            LifecycleEvent::PublishIntent {
                app: a,
                seq: s,
                version,
                fingerprint,
            } if a == app && s == seq => Some((*version, *fingerprint)),
            _ => None,
        }) else {
            continue;
        };
        let spec = if *at_job >= scenario.at_job {
            &scenario.spec
        } else {
            &g.spec
        };
        // Promoted, rolled back, or (no verdict yet) still the canary.
        let verdict = report.events[i..].iter().find_map(|e| match e {
            LifecycleEvent::Promoted { app: a, version: v } if a == app && *v == version => {
                Some(true)
            }
            LifecycleEvent::RolledBack { app: a, version: v } if a == app && *v == version => {
                Some(false)
            }
            _ => None,
        });
        let fresh = retrain(
            tracer,
            cfg,
            spec,
            app,
            *seq,
            &scratch.join(format!("campaign-{app}-{seq}")),
        );
        let Some((model, reissued_fp)) = fresh else {
            tracer.count("trace.reissue_mismatches", 1);
            continue;
        };
        tracer.count(
            "trace.reissue_mismatches",
            u64::from(reissued_fp != fingerprint),
        );
        let published = tracer.span(Layer::Registry, "registry.publish", || {
            registry
                .publish_at(app, version, &model, fingerprint)
                .and_then(|()| registry.set_canary(app, version))
                .and_then(|()| match verdict {
                    Some(true) => registry.promote_version(app, version),
                    Some(false) => registry.rollback_version(app, version),
                    None => Ok(()),
                })
                .is_ok()
        });
        tracer.count("registry.publishes", 1);
        tracer.count("trace.reissue_mismatches", u64::from(!published));
        retrained.insert((app.clone(), version), model);
    }
    for app in APPS {
        let same = reissue::same_dir(&registry, program, app);
        tracer.count("trace.reissue_mismatches", u64::from(!same));
    }

    let jobs = report
        .decisions
        .iter()
        .map(|d| {
            let r = &d.record;
            let drifted = usize::from(r.job_id >= scenario.at_job);
            StreamJob {
                record: r,
                serve_as: match d.channel {
                    ServedChannel::Canary => format!("{}{CANARY}", r.app),
                    ServedChannel::Stable => r.app.clone(),
                },
                engine: 0,
                templates: drifted,
                device: drifted,
            }
        })
        .collect();
    let stream = Stream {
        policy: g.policy,
        deadline_safety: g.deadline_safety,
        seed: g.seed,
        jobs,
        templates: vec![
            reissue::templates(&g.spec),
            reissue::templates(&scenario.spec),
        ],
        devices: vec![g.spec.clone(), scenario.spec.clone()],
        cache: report.cache,
    };
    let changes = serving_changes(&report.events);
    stream.reissue(
        tracer,
        std::slice::from_mut(&mut engine),
        |last_job, engines| {
            for (_, change) in changes.iter().filter(|(at, _)| *at == last_job) {
                apply(tracer, &mut engines[0], change, &retrained);
            }
        },
    );
}

/// One retrain as `run_lifecycle` runs it: the journaled campaign on the
/// current device, the quarantine-cleaned and sanitize-gated training
/// set, the fit, and the finite-fit probes. Returns the model and the
/// training fingerprint it carries; `None` where the run's retrain fails.
fn retrain(
    tracer: &Tracer,
    cfg: &LifecycleConfig,
    spec: &DeviceSpec,
    app: &str,
    seq: u32,
    dir: &Path,
) -> Option<(DomainSpecificModel, u64)> {
    let freqs = experiment_frequencies(spec, cfg.governor.train_stride);
    let mut ccfg = CampaignConfig::new(
        spec.clone(),
        vec![DeviceSlot::healthy("lifecycle-retrain")],
        freqs.clone(),
    );
    ccfg.telemetry = tracer.program_sink();
    let inputs = job_set(app);
    let workloads: Vec<&dyn Workload> = inputs.iter().map(|i| i.workload.as_ref()).collect();
    let outcome = tracer
        .span(Layer::Campaign, "campaign.run", || {
            run_campaign(&ccfg, &workloads, dir, true)
        })
        .ok()?;
    let (cleaned, _) = quarantine_results(&outcome.results, &cfg.quarantine);
    let mut samples: Vec<DsSample> = cleaned
        .into_iter()
        .zip(&inputs)
        .flat_map(|(characterization, input)| {
            CharacterizedInput {
                features: input.features.clone(),
                label: input.label.clone(),
                characterization,
            }
            .samples()
        })
        .collect();
    let dropped = tracer.span(Layer::Ml, "ml.sanitize", || {
        sanitize_gate(&samples, cfg.outlier_mads)
    });
    for &i in dropped.iter().rev() {
        samples.remove(i);
    }
    if samples.len() < cfg.min_train_points {
        return None;
    }
    let seed = retrain_seed(cfg.governor.seed, app, seq);
    let model = tracer.span(Layer::Ml, "ds_model.fit", || {
        DomainSpecificModel::train(&samples, spec.default_core_mhz, seed)
    });
    reissue::count_fit(tracer, samples.len());
    let probes = [
        freqs.first().copied().unwrap_or(spec.default_core_mhz),
        spec.default_core_mhz,
        freqs.last().copied().unwrap_or(spec.default_core_mhz),
    ];
    let finite = tracer.span(Layer::Ml, "ds_model.predict", || {
        inputs.iter().all(|input| {
            probes.iter().all(|&f| {
                let (t, e) = model.predict_time_energy(&input.features, f);
                t.is_finite() && e.is_finite() && t > 0.0 && e > 0.0
            })
        })
    });
    let fingerprint = training_fingerprint(&spec.name, spec.default_core_mhz, &freqs, seed);
    finite.then_some((model, fingerprint))
}

/// The retrain's sanitize gate: the rows holding a non-finite value or a
/// MAD outlier on the time or the energy target, ascending.
fn sanitize_gate(samples: &[DsSample], outlier_mads: Option<f64>) -> Vec<usize> {
    let rows: Vec<Vec<f64>> = samples
        .iter()
        .map(|s| {
            let mut row = s.features.as_ref().clone();
            row.push(s.freq_mhz);
            row
        })
        .collect();
    let targets: [Vec<f64>; 2] = [
        samples.iter().map(|s| s.time_s).collect(),
        samples.iter().map(|s| s.energy_j).collect(),
    ];
    let mut dropped: Vec<usize> = targets
        .into_iter()
        .flat_map(|y| {
            let (_, report) = Dataset::new(Matrix::from_rows(&rows), y).sanitized(outlier_mads);
            report.dropped_rows()
        })
        .collect();
    dropped.sort_unstable();
    dropped.dedup();
    dropped
}
