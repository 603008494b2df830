//! Re-issued governor layer calls for the traced run.
//!
//! `train_and_publish*`, `run_fleet` and `run_lifecycle` cannot be timed
//! from inside. After each one, the traced run repeats its layer calls
//! from outside — training sweeps, fits and publishes; registry loads;
//! the job stream's bursts drained through a [`PredictionEngine`]; a
//! policy decision per served profile; and each job's kernel-trace replay
//! at its recorded clock on its device — using what the untraced call
//! reported. Re-issued artifacts, memo-cache counters, clock decisions and
//! replays must reproduce the program's bit for bit; every miss is counted
//! in `trace.reissue_mismatches`.

use std::collections::BTreeMap;
use std::ops::Range;
use std::path::Path;
use std::sync::Arc;

use energy_model::workflow::{experiment_frequencies, training_set};
use energy_model::{training_fingerprint, DomainSpecificModel};
use governor::sim::{cronos_job_set, ligen_job_set};
use governor::{
    choose_frequency, CacheStats, DecisionRecord, EngineConfig, FallbackReason, ModelRegistry,
    Policy, PredictedProfile, PredictionEngine, PredictionRequest,
};
use gpu_sim::{Device, DeviceSpec};
use synergy::{FrequencyPolicy, KernelTrace, SynergyQueue};

use super::{characterize_inputs, sweep_options, Input};
use crate::env::dir_size;
use crate::trace::{Layer, Tracer};

/// The two applications the governor serves.
pub const APPS: [&str; 2] = ["cronos", "ligen"];

/// A job template recorded on one device class.
pub struct Template {
    app: &'static str,
    label: String,
    features: Vec<f64>,
    trace: KernelTrace,
}

/// The governor's fixed job set, recorded on `spec`, in the governor's
/// template order (Cronos set, then LiGen set).
pub fn templates(spec: &DeviceSpec) -> Vec<Template> {
    let cronos = cronos_job_set()
        .into_iter()
        .map(|c| ("cronos", Input::cronos(&c)));
    let ligen = ligen_job_set()
        .into_iter()
        .map(|c| ("ligen", Input::ligen(&c)));
    cronos
        .chain(ligen)
        .map(|(app, input)| Template {
            app,
            label: input.label.clone(),
            features: input.features.as_ref().clone(),
            trace: input.workload.record(spec),
        })
        .collect()
}

fn find<'a>(templates: &'a [Template], app: &str, label: &str) -> Option<&'a Template> {
    templates.iter().find(|t| t.app == app && t.label == label)
}

/// The training fingerprint the governor expects of `spec`'s models.
pub fn fingerprint(spec: &DeviceSpec, train_stride: usize, seed: u64) -> u64 {
    let freqs = experiment_frequencies(spec, train_stride);
    training_fingerprint(&spec.name, spec.default_core_mhz, &freqs, seed)
}

/// Re-issues one class's `train_and_publish*`: the noiseless training
/// sweeps of both job sets, the two forest fits, and the two publishes
/// into `scratch` under `name(app)`. The artifacts must match the ones
/// the program published into `published`, byte for byte.
pub fn training(
    tracer: &Tracer,
    spec: &DeviceSpec,
    train_stride: usize,
    seed: u64,
    published: &ModelRegistry,
    scratch: &ModelRegistry,
    name: impl Fn(&str) -> String,
) {
    let freqs = experiment_frequencies(spec, train_stride);
    let fp = fingerprint(spec, train_stride, seed);
    let sets: [Vec<Input>; 2] = [
        cronos_job_set().iter().map(Input::cronos).collect(),
        ligen_job_set().iter().map(Input::ligen).collect(),
    ];
    for (app, inputs) in APPS.iter().zip(&sets) {
        let opts = sweep_options(1, None, tracer);
        let swept = tracer.span(Layer::Characterize, "characterize.train", || {
            characterize_inputs(spec, inputs, &freqs, &opts, tracer)
        });
        let inputs: Vec<_> = swept.into_iter().map(|(input, _)| input).collect();
        let samples = training_set(&inputs);
        let model = tracer.span(Layer::Ml, "ds_model.fit", || {
            DomainSpecificModel::train(&samples, spec.default_core_mhz, seed)
        });
        count_fit(tracer, samples.len());
        let model_name = name(app);
        let published_ok = tracer.span(Layer::Registry, "registry.publish", || {
            scratch.publish(&model_name, &model, fp).is_ok()
        });
        tracer.count("registry.publishes", 1);
        tracer.count(
            "registry.bytes",
            dir_size(&scratch.root().join(&model_name)),
        );
        let same = published_ok && same_dir(published, scratch, &model_name);
        tracer.count("trace.reissue_mismatches", u64::from(!same));
    }
}

/// Counts one domain-specific model fit on `rows` samples: two forests
/// (time and energy) of [`super::offline::TREES`] trees each.
pub fn count_fit(tracer: &Tracer, rows: usize) {
    tracer.count("ds_model.fits", 1);
    tracer.count("ml.fit_rows", (rows * super::offline::TREES * 2) as u64);
}

/// Whether model directory `name` holds the same files, byte for byte, in
/// both registries.
pub fn same_dir(a: &ModelRegistry, b: &ModelRegistry, name: &str) -> bool {
    let files = dir_bytes(&a.root().join(name));
    !files.is_empty() && files == dir_bytes(&b.root().join(name))
}

/// Name and contents of every file in `dir`, sorted by name.
fn dir_bytes(dir: &Path) -> Vec<(std::ffi::OsString, Vec<u8>)> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .map(|entries| entries.flatten().map(|e| e.path()).collect())
        .unwrap_or_default();
    files.sort();
    files
        .iter()
        .map(|p| {
            (
                p.file_name().unwrap_or_default().to_os_string(),
                std::fs::read(p).unwrap_or_default(),
            )
        })
        .collect()
}

/// Re-issues a load of `name`; the loaded model goes into `engine` under
/// `app`.
pub fn load(
    tracer: &Tracer,
    registry: &ModelRegistry,
    name: &str,
    app: &str,
    load: impl FnOnce() -> Option<DomainSpecificModel>,
    engine: &mut PredictionEngine,
) {
    let model = tracer.span(Layer::Registry, "registry.load", load);
    tracer.count("registry.loads", 1);
    tracer.count("registry.bytes", dir_size(&registry.root().join(name)));
    match model {
        Some(model) => engine.install_model(app, model),
        None => tracer.count("trace.reissue_mismatches", 1),
    }
}

/// A serving engine shaped like the governor's.
pub fn engine(
    spec: &DeviceSpec,
    freq_stride: usize,
    queue: usize,
    batch: usize,
) -> PredictionEngine {
    PredictionEngine::new(EngineConfig {
        freqs: experiment_frequencies(spec, freq_stride),
        queue_capacity: queue,
        max_batch: batch,
    })
}

/// One executed job, as the governor recorded it.
pub struct StreamJob<'a> {
    /// The recorded decision.
    pub record: &'a DecisionRecord,
    /// Key its prediction was requested under: the app, or a lifecycle
    /// canary channel.
    pub serve_as: String,
    /// Engine whose profile decided its clock.
    pub engine: usize,
    /// Template set (device class or drifted twin) it executed with.
    pub templates: usize,
    /// Device queue that executed it.
    pub device: usize,
}

/// A governed job stream, as one run reported it.
pub struct Stream<'a> {
    /// The run's policy.
    pub policy: Policy,
    /// The run's deadline safety factor.
    pub deadline_safety: f64,
    /// The run's stream seed.
    pub seed: u64,
    /// Every job, in id order.
    pub jobs: Vec<StreamJob<'a>>,
    /// Template sets; the stream was drawn from the first.
    pub templates: Vec<Vec<Template>>,
    /// Device specs, by queue index.
    pub devices: Vec<DeviceSpec>,
    /// Memo-cache counters the run reported, summed over its engines.
    pub cache: CacheStats,
}

/// The splitmix64 sequence the governor draws its stream from.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Bit pattern of an optional float, for exact comparison.
fn bits(v: Option<f64>) -> Option<u64> {
    v.map(f64::to_bits)
}

impl Stream<'_> {
    /// The stream's bursts as job-index ranges, re-derived from its seed
    /// the way the governor draws them: a 1–3 burst length, then a
    /// template and a deadline-slack draw per job. Every job's drawn
    /// template must be the one it recorded.
    fn bursts(&self, tracer: &Tracer) -> Vec<Range<usize>> {
        let mut rng = SplitMix64(self.seed);
        let set = &self.templates[0];
        let n = self.jobs.len();
        let mut bursts = Vec::new();
        let mut wrong = 0u64;
        let mut start = 0;
        while start < n {
            let end = (start + 1 + rng.below(3) as usize).min(n);
            for (i, job) in self.jobs[start..end].iter().enumerate() {
                let t = &set[rng.below(set.len() as u64) as usize];
                rng.next_u64(); // the deadline slack
                let r = job.record;
                wrong += u64::from(
                    r.job_id != (start + i) as u64 || r.app != t.app || r.label != t.label,
                );
            }
            bursts.push(start..end);
            start = end;
        }
        tracer.count("trace.reissue_mismatches", wrong);
        bursts
    }

    /// Re-issues the stream's serving, policy and replay calls. Every
    /// engine serves every admitted job, burst by burst (placement
    /// predicts every job on every class); after each burst
    /// `at_boundary(its last job id, engines)` applies the model changes
    /// the run made there. Each job replays with its template set on its
    /// device.
    pub fn reissue(
        &self,
        tracer: &Tracer,
        engines: &mut [PredictionEngine],
        mut at_boundary: impl FnMut(u64, &mut [PredictionEngine]),
    ) {
        let bursts = self.bursts(tracer);
        let mut profiles: BTreeMap<(usize, usize), Arc<PredictedProfile>> = BTreeMap::new();
        tracer.span(Layer::Serving, "serving.drain", || {
            for burst in &bursts {
                for (e, engine) in engines.iter_mut().enumerate() {
                    for job in &self.jobs[burst.clone()] {
                        let r = job.record;
                        if r.fallback == Some(FallbackReason::AdmissionRejected) {
                            continue;
                        }
                        let Some(t) = find(&self.templates[0], &r.app, &r.label) else {
                            tracer.count("trace.reissue_mismatches", 1);
                            continue;
                        };
                        let request = PredictionRequest {
                            job_id: r.job_id,
                            app: job.serve_as.clone(),
                            features: t.features.clone(),
                        };
                        if engine.try_enqueue(request).is_err() {
                            tracer.count("trace.reissue_mismatches", 1);
                        }
                    }
                    while engine.queue_len() > 0 {
                        let served = tracer.sample("serving.drain", || engine.drain_batch());
                        tracer.count("serving.drains", 1);
                        for (request, result) in served {
                            if let Ok(profile) = result {
                                profiles.insert((request.job_id as usize, e), profile);
                            }
                        }
                    }
                }
                at_boundary(self.jobs[burst.end - 1].record.job_id, engines);
            }
        });
        let mut cache = CacheStats::default();
        for engine in engines.iter() {
            cache.accumulate(engine.cache_stats());
        }
        tracer.count("trace.reissue_mismatches", u64::from(cache != self.cache));

        // Every job the run served without a fallback took its clock and
        // predicted time from its deciding engine's profile.
        tracer.span(Layer::Policy, "policy.choose", || {
            let mut decided = 0usize;
            let mut wrong = 0u64;
            for (&(i, e), profile) in &profiles {
                let job = &self.jobs[i];
                let r = job.record;
                let planned = r.deadline_s * self.deadline_safety;
                let choice = tracer.sample("policy.choose", || {
                    choose_frequency(self.policy, profile, planned)
                });
                tracer.count("policy.choices", 1);
                if e != job.engine || r.fallback.is_some() {
                    continue;
                }
                decided += 1;
                let predicted = match choice {
                    Some(f) => profile
                        .pareto
                        .iter()
                        .find(|p| p.freq_mhz == f)
                        .map(|p| profile.default_time_s / p.speedup),
                    None => Some(profile.default_time_s),
                };
                wrong += u64::from(
                    bits(choice) != bits(r.requested_mhz)
                        || bits(predicted) != bits(r.predicted_time_s),
                );
            }
            let served = self
                .jobs
                .iter()
                .filter(|j| j.record.fallback.is_none())
                .count();
            tracer.count(
                "trace.reissue_mismatches",
                wrong + served.abs_diff(decided) as u64,
            );
        });

        tracer.span(Layer::Synergy, "synergy.replay", || {
            for (d, spec) in self.devices.iter().enumerate() {
                let mut device = Device::new(spec.clone());
                device.set_trace_capacity(Some(0));
                let mut queue = SynergyQueue::for_device(device);
                for job in self.jobs.iter().filter(|j| j.device == d) {
                    let r = job.record;
                    let Some(t) = find(&self.templates[job.templates], &r.app, &r.label) else {
                        tracer.count("trace.reissue_mismatches", 1);
                        continue;
                    };
                    queue.set_policy(match r.requested_mhz {
                        Some(f) if r.fallback.is_none() => FrequencyPolicy::Fixed(f),
                        _ => FrequencyPolicy::DeviceDefault,
                    });
                    let measured =
                        tracer.sample("synergy.job_replay", || t.trace.try_replay_on(&mut queue));
                    tracer.count("synergy.launches", t.trace.total_launches());
                    let same = measured.is_ok_and(|m| {
                        m.time_s.to_bits() == r.measured_time_s.to_bits()
                            && m.energy_j.to_bits() == r.measured_energy_j.to_bits()
                    });
                    tracer.count("trace.reissue_mismatches", u64::from(!same));
                }
            }
        });
    }
}
