//! `fleet`: `FleetConfig::pinned` — 2×V100 + 2×MI100, min-energy
//! placement, class-affine stealing, no faults — governs a long job
//! stream from a registry published during set-up. The online read path.

use governor::{fleet_model_name, run_fleet, train_and_publish_fleet, FleetConfig, FleetReport};
use governor::{ModelRegistry, PredictionEngine};
use gpu_sim::DeviceSpec;

use super::reissue::{self, Stream, StreamJob, APPS};
use super::{BenchWorkload, PassOutput};
use crate::check::{Check, Digest};
use crate::env::{Env, TempDir};
use crate::trace::{Layer, Tracer};

/// The `fleet` workload.
#[derive(Debug, Clone, Copy)]
pub struct Fleet {
    /// Jobs in the governed stream.
    pub n_jobs: usize,
}

impl Default for Fleet {
    fn default() -> Self {
        Fleet { n_jobs: 20_000 }
    }
}

/// The published registry and the fleet configuration.
pub struct FleetState {
    _dir: TempDir,
    registry: ModelRegistry,
    cfg: FleetConfig,
}

impl Fleet {
    /// The pinned fleet with this workload's stream length and `seed`.
    fn config(&self, seed: u64) -> FleetConfig {
        let mut cfg = FleetConfig::pinned();
        cfg.n_jobs = self.n_jobs;
        cfg.seed = seed;
        cfg
    }
}

/// The distinct device classes of a fleet, in first-appearance order.
fn classes(cfg: &FleetConfig) -> Vec<DeviceSpec> {
    let mut out: Vec<DeviceSpec> = Vec::new();
    for d in &cfg.devices {
        if !out.iter().any(|c| c.name == d.spec.name) {
            out.push(d.spec.clone());
        }
    }
    out
}

impl BenchWorkload for Fleet {
    type State = FleetState;
    const ITEMS: &'static str = "jobs";

    fn setup(&self, env: &Env, tracer: &Tracer) -> Result<FleetState, String> {
        let dir = env.fresh_dir("fleet-registry")?;
        let registry = ModelRegistry::open(dir.path());
        let cfg = self.config(env.seed);
        tracer
            .span(Layer::Fleet, "fleet.train_and_publish", || {
                train_and_publish_fleet(&cfg, &registry)
            })
            .map_err(|e| format!("publish fleet models: {e}"))?;
        tracer.reissue(Layer::Fleet, || {
            let Ok(scratch) = env.fresh_dir("fleet-reissue") else {
                return;
            };
            let scratch_registry = ModelRegistry::open(scratch.path());
            for spec in classes(&cfg) {
                reissue::training(
                    tracer,
                    &spec,
                    cfg.train_stride,
                    cfg.seed,
                    &registry,
                    &scratch_registry,
                    |app| fleet_model_name(app, &spec.name),
                );
            }
        });
        Ok(FleetState {
            _dir: dir,
            registry,
            cfg,
        })
    }

    fn pass(&self, st: &FleetState, _env: &Env, tracer: &Tracer) -> Result<PassOutput, String> {
        let mut cfg = st.cfg.clone();
        cfg.telemetry = tracer.program_sink();
        let report = tracer.span(Layer::Fleet, "fleet.run", || run_fleet(&cfg, &st.registry));
        tracer.reissue(Layer::Fleet, || {
            reissue_run(tracer, &cfg, &st.registry, &report)
        });
        tracer.count("fleet.jobs_stolen", report.jobs_stolen);
        tracer.count("serving.hits", report.cache.hits);
        tracer.count("serving.misses", report.cache.misses);
        tracer.count(
            "serving.admission_rejected",
            report.admission_rejected as u64,
        );

        let mut check = Check::default();
        let mut digest = Digest::default();
        check.each_job_once(
            "fleet",
            report.decisions.iter().map(|d| d.record.job_id),
            cfg.n_jobs,
        );
        let ran: usize = report.devices.iter().map(|d| d.jobs_run).sum();
        check.ensure(ran == cfg.n_jobs, || {
            format!("devices ran {ran} of {} jobs", cfg.n_jobs)
        });
        for d in &report.decisions {
            let r = &d.record;
            check.ensure(r.completed, || format!("job {} did not complete", r.job_id));
            check.positive("job time", r.measured_time_s);
            check.positive("job energy", r.measured_energy_j);
            digest.u64(d.device_index as u64);
            digest.opt_f64(r.requested_mhz);
            digest.f64(r.measured_time_s);
            digest.f64(r.measured_energy_j);
        }
        check.positive("fleet energy", report.total_energy_j);
        check.finish()?;

        Ok(PassOutput {
            items: report.n_jobs as u64,
            digest: digest.value(),
            sim: sim_outcomes(&report),
            stages: Vec::new(),
        })
    }
}

/// The simulated headline of a fleet run (BENCH_fleet.json's fields).
fn sim_outcomes(r: &FleetReport) -> Vec<(&'static str, f64)> {
    vec![
        ("sim_energy_j", r.total_energy_j),
        ("sim_miss_rate", r.miss_rate),
        ("sim_deadline_misses", r.deadline_misses as f64),
        ("sim_fallbacks", r.fallbacks as f64),
        ("sim_jobs_stolen", r.jobs_stolen as f64),
        ("sim_items_rescheduled", r.items_rescheduled as f64),
        ("sim_affinity_fallbacks", r.affinity_fallbacks as f64),
        ("sim_cache_hit_rate", r.cache.hit_rate()),
    ]
}

/// Re-issues one `run_fleet`'s layer calls: the class engines' registry
/// loads, then the stream's serving, policy and replay calls.
fn reissue_run(tracer: &Tracer, cfg: &FleetConfig, registry: &ModelRegistry, report: &FleetReport) {
    let classes = classes(cfg);
    let mut engines: Vec<PredictionEngine> = Vec::new();
    for spec in &classes {
        let mut engine = reissue::engine(spec, cfg.freq_stride, cfg.queue_capacity, cfg.max_batch);
        let fp = reissue::fingerprint(spec, cfg.train_stride, cfg.seed);
        for app in APPS {
            let name = fleet_model_name(app, &spec.name);
            reissue::load(
                tracer,
                registry,
                &name,
                app,
                || {
                    registry
                        .load_expecting(&name, None, fp)
                        .ok()
                        .map(|(m, _, _)| m)
                },
                &mut engine,
            );
        }
        engines.push(engine);
    }
    let class_of = |name: &str| classes.iter().position(|c| c.name == name).unwrap_or(0);
    let jobs = report
        .decisions
        .iter()
        .map(|d| {
            let class = class_of(&d.class);
            StreamJob {
                record: &d.record,
                serve_as: d.record.app.clone(),
                engine: class,
                templates: class,
                device: d.device_index,
            }
        })
        .collect();
    let stream = Stream {
        policy: cfg.policy,
        deadline_safety: cfg.deadline_safety,
        seed: cfg.seed,
        jobs,
        templates: classes.iter().map(reissue::templates).collect(),
        devices: cfg.devices.iter().map(|d| d.spec.clone()).collect(),
        cache: report.cache,
    };
    stream.reissue(tracer, &mut engines, |_, _| {});
}
