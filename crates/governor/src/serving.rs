//! Batched prediction serving: admission control + a prediction memo.
//!
//! The governor's decision loop asks the same question over and over —
//! *"what does the model predict for this input across the frequency
//! sweep?"* — and real arrival streams are heavily repetitive (the same
//! ligand batches and grid shapes recur). Random-forest inference over a
//! ~100-point frequency sweep is the expensive step of a decision, so the
//! engine in this module puts two familiar pieces in front of it:
//!
//! * an **admission-controlled bounded queue**: requests are enqueued with
//!   [`PredictionEngine::try_enqueue`] and rejected (not blocked, not
//!   dropped silently) when the queue is full, so a burst can never grow
//!   memory without bound, and the caller gets a typed
//!   [`AdmissionError::QueueFull`] it can turn into a default-clock
//!   fallback;
//! * a **memo per installed model**: a `HashMap` from the request's
//!   feature bit patterns (`f64::to_bits`) to the served profile, with
//!   hit/miss counters surfaced as [`CacheStats`]. Two requests share a
//!   profile only when their features are the same bits, so no input is
//!   ever served a neighbouring input's answer. The memo lives and dies
//!   with its model: installing a replacement or removing the model drops
//!   it.
//!
//! One job loop drives each engine from a single thread, so the memo is a
//! plain map behind `&mut self`, with no locks.
//!
//! Cache misses in a drained batch are not served row-at-a-time: they are
//! grouped per app and evaluated through
//! `DomainSpecificModel::predict_curves_batch`, which walks the flattened
//! struct-of-arrays forest (`ml::flat`) feature-major across the whole
//! batch — bit-identical to the row-at-a-time walk, several times faster.
//! Each miss's profile is built with its clock table ([`crate::policy`]),
//! so the policies' work is paid once per memoised profile, not once per
//! decision.
//!
//! Every served model is a core-clock model with checked forest arenas: a
//! payload of another configuration width, or an arena that could index
//! out of bounds or loop, is refused when its artifact is opened
//! (`DomainSpecificModel::from_json`), so it never reaches a drain.

// Serving is runtime infrastructure: typed errors, no panics.
#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::Arc;

use energy_model::ds_model::{CurvePrediction, PredictedPoint};
use energy_model::pareto::pareto_front_indices;
use energy_model::DomainSpecificModel;
use serde::Serialize;

use crate::policy::ClockTable;

/// Lookup counters of the prediction memo.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize)]
pub struct CacheStats {
    /// Lookups served from the memo.
    pub hits: u64,
    /// Lookups that ran forest inference.
    pub misses: u64,
}

impl CacheStats {
    /// Hit fraction over all lookups (0 when the memo was never used).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Folds another counter set (another engine's) into this one.
    /// Summing raw counters — never averaging per-engine rates — keeps
    /// `hit_rate` correct when some engines saw no lookups at all: an idle
    /// engine contributes zero to both numerator and denominator instead
    /// of dragging a rate average toward zero.
    pub fn accumulate(&mut self, other: CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
    }
}

/// What the engine predicts for one request: the absolute default-clock
/// operating point and the predicted Pareto set over the sweep
/// frequencies (already filtered through [`pareto_front_indices`]).
#[derive(Debug, Clone, PartialEq)]
pub struct PredictedProfile {
    /// Predicted wall time at the default clock (seconds).
    pub default_time_s: f64,
    /// Predicted energy at the default clock (joules).
    pub default_energy_j: f64,
    /// Predicted default clock (MHz) — the model's normalization anchor.
    pub default_freq_mhz: f64,
    /// The Pareto-optimal subset of the predicted (speedup, norm-energy)
    /// curve, in ascending frequency order.
    pub pareto: Vec<PredictedPoint>,
    /// The policies' answers over `pareto`, built by [`Self::new`].
    pub(crate) clocks: ClockTable,
}

impl PredictedProfile {
    /// A profile and its clock table.
    pub(crate) fn new(
        default_time_s: f64,
        default_energy_j: f64,
        default_freq_mhz: f64,
        pareto: Vec<PredictedPoint>,
    ) -> Self {
        PredictedProfile {
            clocks: ClockTable::new(default_time_s, default_energy_j, &pareto),
            default_time_s,
            default_energy_j,
            default_freq_mhz,
            pareto,
        }
    }
}

/// One prediction request waiting in the admission queue.
#[derive(Debug, Clone, PartialEq)]
pub struct PredictionRequest {
    /// Caller-assigned job identity, carried through to the response.
    pub job_id: u64,
    /// Which application model to serve from (e.g. `"cronos"`, `"ligen"`).
    pub app: String,
    /// Domain-specific input features, in the model's training order.
    pub features: Vec<f64>,
}

/// Why a request was refused at the queue boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionError {
    /// The bounded queue is at capacity; the caller should fall back.
    QueueFull {
        /// The configured capacity that was hit.
        capacity: usize,
    },
}

impl fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmissionError::QueueFull { capacity } => {
                write!(f, "prediction queue full (capacity {capacity})")
            }
        }
    }
}

impl std::error::Error for AdmissionError {}

/// Why a drained request could not be served.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// No model is installed for the request's app.
    ModelUnavailable {
        /// The app that had no model.
        app: String,
    },
    /// The request's feature width does not match the installed model.
    FeatureWidth {
        /// The app whose model was consulted.
        app: String,
        /// What the model was trained on.
        expected: usize,
        /// What the request carried.
        found: usize,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::ModelUnavailable { app } => {
                write!(f, "no model installed for app {app:?}")
            }
            ServeError::FeatureWidth {
                app,
                expected,
                found,
            } => {
                write!(
                    f,
                    "app {app:?}: request has {found} features, model expects {expected}"
                )
            }
        }
    }
}

impl std::error::Error for ServeError {}

/// Engine tuning knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineConfig {
    /// The frequency sweep (MHz) every prediction is evaluated over.
    pub freqs: Vec<f64>,
    /// Admission queue capacity; `try_enqueue` rejects beyond this.
    pub queue_capacity: usize,
    /// Maximum requests served per [`PredictionEngine::drain_batch`] call;
    /// 0 serves one, like 1.
    pub max_batch: usize,
}

/// An installed model and the profiles it has served, keyed by the exact
/// bit patterns of the request features.
struct InstalledModel {
    model: DomainSpecificModel,
    memo: HashMap<Vec<u64>, Arc<PredictedProfile>>,
}

/// A within-batch cache miss awaiting batched inference: which response
/// slot it fills, its memo key, and any later same-batch requests with the
/// same key (served as hits off this miss's profile, exactly as sequential
/// serving would have found the freshly inserted memo).
struct MissSlot {
    slot: usize,
    key: Vec<u64>,
    dependents: Vec<usize>,
}

/// The batched prediction server: installed models with their memos, and
/// the admission queue.
pub struct PredictionEngine {
    config: EngineConfig,
    models: HashMap<String, InstalledModel>,
    queue: VecDeque<PredictionRequest>,
    stats: CacheStats,
    /// The memo key of the request being served, refilled for each one:
    /// a hit probes with it and allocates nothing, a miss copies it out.
    probe_key: Vec<u64>,
}

impl PredictionEngine {
    /// Builds an empty engine (no models, empty queue, cold cache).
    pub fn new(config: EngineConfig) -> Self {
        PredictionEngine {
            config,
            models: HashMap::new(),
            queue: VecDeque::new(),
            stats: CacheStats::default(),
            probe_key: Vec::new(),
        }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Installs (or replaces) the model served for `app`. A replaced
    /// model's memo goes with it, so no predecessor prediction is served.
    pub fn install_model(&mut self, app: &str, model: DomainSpecificModel) {
        self.models.insert(
            app.to_string(),
            InstalledModel {
                model,
                memo: HashMap::new(),
            },
        );
    }

    /// Removes the model served for `app`, and its memo with it. Returns
    /// whether a model was installed. This is the rollback path: after a
    /// canary is withdrawn its channel must serve nothing, and no stale
    /// profile may survive.
    pub fn remove_model(&mut self, app: &str) -> bool {
        self.models.remove(app).is_some()
    }

    /// Whether a model is installed for `app`.
    pub fn has_model(&self, app: &str) -> bool {
        self.models.contains_key(app)
    }

    /// How many profiles the memo of `app`'s model holds (0 when no model
    /// is installed). Introspection for the cache invalidation tests.
    pub fn cached_entries(&self, app: &str) -> usize {
        self.models.get(app).map_or(0, |m| m.memo.len())
    }

    /// Current queue depth.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Admits a request into the bounded queue, or rejects it when the
    /// queue is at capacity.
    pub fn try_enqueue(&mut self, request: PredictionRequest) -> Result<(), AdmissionError> {
        if self.queue.len() >= self.config.queue_capacity {
            return Err(AdmissionError::QueueFull {
                capacity: self.config.queue_capacity,
            });
        }
        self.queue.push_back(request);
        Ok(())
    }

    /// Serves up to `max_batch` queued requests in FIFO order, and at
    /// least one while any is queued (a `max_batch` of 0 serves one, so a
    /// loop that drains to empty always ends). Each response pairs the
    /// request with its profile or a typed serve error; a failed request
    /// consumes its queue slot like a served one.
    ///
    /// Cache misses in the drained batch are grouped per app and evaluated
    /// as **one** `predict_curves_batch` call through the flattened forest
    /// — not row-at-a-time — so a cold batch costs two feature-major model
    /// passes per app instead of `2 × (freqs + 1)` dispatches per request.
    /// Responses are bit-identical to sequential row-at-a-time serving,
    /// including the hit/miss accounting: a duplicate key later in the
    /// same batch counts as a hit and shares the first request's `Arc`.
    #[allow(clippy::type_complexity)]
    pub fn drain_batch(
        &mut self,
    ) -> Vec<(PredictionRequest, Result<Arc<PredictedProfile>, ServeError>)> {
        let n = self.config.max_batch.max(1).min(self.queue.len());
        let requests: Vec<PredictionRequest> = self.queue.drain(..n).collect();
        let results = self.serve_batch(&requests);
        requests.into_iter().zip(results).collect()
    }

    /// Serves one request immediately, bypassing the admission queue —
    /// the fleet's cross-class re-resolution path (a stolen or
    /// rescheduled job re-priced for the class that actually runs it).
    /// Identical serving semantics to a one-element drained batch,
    /// including cache accounting.
    pub fn serve_one(
        &mut self,
        request: &PredictionRequest,
    ) -> Result<Arc<PredictedProfile>, ServeError> {
        self.serve_batch(std::slice::from_ref(request))
            .pop()
            .unwrap_or_else(|| {
                // Unreachable: serve_batch returns one slot per request.
                Err(ServeError::ModelUnavailable {
                    app: request.app.clone(),
                })
            })
    }

    /// Memo counters so far, across every model this engine has served
    /// (a removed or replaced model's lookups stay counted).
    pub fn cache_stats(&self) -> CacheStats {
        self.stats
    }

    /// Serves a drained batch: validate → probe the memo → batch the
    /// misses per app through the flat layout → insert → fill response
    /// slots.
    fn serve_batch(
        &mut self,
        requests: &[PredictionRequest],
    ) -> Vec<Result<Arc<PredictedProfile>, ServeError>> {
        let mut slots: Vec<Option<Result<Arc<PredictedProfile>, ServeError>>> =
            (0..requests.len()).map(|_| None).collect();
        // Misses grouped per app in first-miss order; a batch holds few
        // distinct apps, so linear scans beat map overhead here.
        let mut groups: Vec<(&str, Vec<MissSlot>)> = Vec::new();

        for (i, request) in requests.iter().enumerate() {
            let Some(installed) = self.models.get(&request.app) else {
                slots[i] = Some(Err(ServeError::ModelUnavailable {
                    app: request.app.clone(),
                }));
                continue;
            };
            let expected = installed.model.n_features();
            if request.features.len() != expected {
                slots[i] = Some(Err(ServeError::FeatureWidth {
                    app: request.app.clone(),
                    expected,
                    found: request.features.len(),
                }));
                continue;
            }

            let key = &mut self.probe_key;
            key.clear();
            key.extend(request.features.iter().map(|f| f.to_bits()));
            if let Some(profile) = installed.memo.get(key.as_slice()) {
                self.stats.hits += 1;
                slots[i] = Some(Ok(Arc::clone(profile)));
                continue;
            }

            let group = match groups.iter_mut().find(|(app, _)| *app == request.app) {
                Some((_, misses)) => misses,
                None => {
                    groups.push((request.app.as_str(), Vec::new()));
                    // Just pushed; the vec cannot be empty.
                    match groups.last_mut() {
                        Some((_, misses)) => misses,
                        None => continue,
                    }
                }
            };
            // An earlier miss in this batch with the same key will produce
            // this request's profile: sequential serving would have found
            // the freshly inserted memo, so count a hit and share the Arc.
            if let Some(first) = group.iter_mut().find(|m| m.key == *key) {
                self.stats.hits += 1;
                first.dependents.push(i);
                continue;
            }
            self.stats.misses += 1;
            group.push(MissSlot {
                slot: i,
                key: key.clone(),
                dependents: Vec::new(),
            });
        }

        // Batched inference: one design matrix and two feature-major flat
        // passes per app with misses.
        for (app, misses) in groups {
            let Some(installed) = self.models.get_mut(app) else {
                continue; // unreachable: groups only hold installed apps
            };
            let inputs: Vec<&[f64]> = misses
                .iter()
                .map(|m| requests[m.slot].features.as_slice())
                .collect();
            let predictions = installed
                .model
                .predict_curves_batch(&inputs, &self.config.freqs);
            let default_freq_mhz = installed.model.default_freq_mhz();
            for (miss, prediction) in misses.into_iter().zip(predictions) {
                let profile = Arc::new(assemble_profile(default_freq_mhz, prediction));
                for &dependent in &miss.dependents {
                    slots[dependent] = Some(Ok(Arc::clone(&profile)));
                }
                slots[miss.slot] = Some(Ok(Arc::clone(&profile)));
                installed.memo.insert(miss.key, profile);
            }
        }

        slots
            .into_iter()
            .zip(requests)
            .map(|(slot, request)| {
                slot.unwrap_or_else(|| {
                    // Unreachable: every request is assigned an error, a
                    // hit, a dependent fill, or a miss fill above.
                    Err(ServeError::ModelUnavailable {
                        app: request.app.clone(),
                    })
                })
            })
            .collect()
    }
}

/// Builds the served profile from one batched curve prediction: Pareto
/// filter, ascending-frequency order, default-clock anchors — the same
/// float schedule as the old row-at-a-time `predict` — and its clock
/// table.
fn assemble_profile(default_freq_mhz: f64, prediction: CurvePrediction) -> PredictedProfile {
    let plane: Vec<(f64, f64)> = prediction
        .curve
        .iter()
        .map(|p| (p.speedup, p.norm_energy))
        .collect();
    let front = pareto_front_indices(&plane);
    let mut pareto: Vec<PredictedPoint> = front.into_iter().map(|i| prediction.curve[i]).collect();
    pareto.sort_by(|a, b| a.freq_mhz.total_cmp(&b.freq_mhz));
    PredictedProfile::new(
        prediction.default_time_s,
        prediction.default_energy_j,
        default_freq_mhz,
        pareto,
    )
}

#[cfg(test)]
pub(crate) mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use energy_model::ds_model::DsSample;

    pub(crate) fn tiny_model() -> DomainSpecificModel {
        // A deliberately small synthetic design: time falls and energy
        // rises with frequency, scaled by a single "size" feature.
        let mut samples = Vec::new();
        for size in [1.0f64, 2.0, 4.0, 8.0] {
            let features = Arc::new(vec![size]);
            for freq in [600.0f64, 900.0, 1200.0, 1500.0] {
                samples.push(DsSample {
                    features: Arc::clone(&features),
                    freq_mhz: freq,
                    time_s: size * 1500.0 / freq,
                    energy_j: size * (0.5 + freq / 1000.0),
                });
            }
        }
        DomainSpecificModel::train(&samples, 1500.0, 7)
    }

    fn engine_with_model() -> PredictionEngine {
        let mut engine = PredictionEngine::new(EngineConfig {
            freqs: vec![600.0, 900.0, 1200.0, 1500.0],
            queue_capacity: 4,
            max_batch: 8,
        });
        engine.install_model("toy", tiny_model());
        engine
    }

    fn request(job_id: u64, size: f64) -> PredictionRequest {
        PredictionRequest {
            job_id,
            app: "toy".to_string(),
            features: vec![size],
        }
    }

    #[test]
    fn admission_rejects_beyond_capacity() {
        let mut engine = engine_with_model();
        for i in 0..4 {
            assert!(engine.try_enqueue(request(i, 2.0)).is_ok());
        }
        assert_eq!(
            engine.try_enqueue(request(4, 2.0)),
            Err(AdmissionError::QueueFull { capacity: 4 })
        );
    }

    #[test]
    fn drain_is_fifo_and_batch_bounded() {
        let mut engine = engine_with_model();
        engine.config.max_batch = 2;
        for i in 0..4 {
            engine.try_enqueue(request(i, 2.0)).ok();
        }
        let first = engine.drain_batch();
        assert_eq!(
            first.iter().map(|(r, _)| r.job_id).collect::<Vec<_>>(),
            vec![0, 1]
        );
        let second = engine.drain_batch();
        assert_eq!(
            second.iter().map(|(r, _)| r.job_id).collect::<Vec<_>>(),
            vec![2, 3]
        );
        assert!(engine.drain_batch().is_empty());
    }

    #[test]
    fn a_zero_max_batch_drain_serves_one_request() {
        let mut engine = engine_with_model();
        engine.config.max_batch = 0;
        for i in 0..3 {
            engine.try_enqueue(request(i, 2.0)).ok();
        }
        let served = engine.drain_batch();
        assert_eq!(
            served.iter().map(|(r, _)| r.job_id).collect::<Vec<_>>(),
            vec![0]
        );
        assert_eq!(engine.queue_len(), 2);
    }

    #[test]
    fn repeat_features_hit_the_cache_with_identical_profiles() {
        let mut engine = engine_with_model();
        engine.try_enqueue(request(0, 4.0)).ok();
        engine.try_enqueue(request(1, 4.0)).ok();
        let served = engine.drain_batch();
        let a = served[0].1.as_ref().ok().cloned();
        let b = served[1].1.as_ref().ok().cloned();
        let (a, b) = (a.unwrap(), b.unwrap());
        assert!(Arc::ptr_eq(&a, &b), "second request must share the memo");
        assert_eq!(*a, *b);
        let stats = engine.cache_stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn missing_model_is_a_typed_error_not_a_panic() {
        let mut engine = engine_with_model();
        engine
            .try_enqueue(PredictionRequest {
                job_id: 9,
                app: "nope".to_string(),
                features: vec![1.0],
            })
            .ok();
        let served = engine.drain_batch();
        assert_eq!(
            served[0].1,
            Err(ServeError::ModelUnavailable {
                app: "nope".to_string()
            })
        );
    }

    #[test]
    fn feature_width_mismatch_is_a_typed_error() {
        let mut engine = engine_with_model();
        engine
            .try_enqueue(PredictionRequest {
                job_id: 1,
                app: "toy".to_string(),
                features: vec![1.0, 2.0],
            })
            .ok();
        let served = engine.drain_batch();
        assert_eq!(
            served[0].1,
            Err(ServeError::FeatureWidth {
                app: "toy".to_string(),
                expected: 1,
                found: 2,
            })
        );
    }

    #[test]
    fn profile_pareto_is_a_front_and_anchored_at_default() {
        let mut engine = engine_with_model();
        engine.try_enqueue(request(0, 2.0)).ok();
        let served = engine.drain_batch();
        let profile = served[0].1.as_ref().ok().cloned().unwrap();
        assert!(!profile.pareto.is_empty());
        assert!(profile.default_time_s > 0.0);
        assert!(profile.default_energy_j > 0.0);
        // No point on the served front may dominate another.
        for a in &profile.pareto {
            for b in &profile.pareto {
                let dominates = (a.speedup >= b.speedup && a.norm_energy <= b.norm_energy)
                    && (a.speedup > b.speedup || a.norm_energy < b.norm_energy);
                assert!(!dominates, "served Pareto set contains a dominated point");
            }
        }
    }

    #[test]
    fn cache_stats_count_every_lookup_across_drains() {
        let mut engine = engine_with_model();
        engine.config.queue_capacity = 64;
        engine.config.max_batch = 64;
        // 24 distinct keys, then 8 repeats in a later drain.
        for i in 0..24 {
            engine.try_enqueue(request(i, i as f64)).ok();
        }
        engine.drain_batch();
        for i in 0..8 {
            engine.try_enqueue(request(100 + i, i as f64)).ok();
        }
        engine.drain_batch();

        let total = engine.cache_stats();
        assert_eq!((total.hits, total.misses), (8, 24));
        assert!((total.hit_rate() - 8.0 / 32.0).abs() < 1e-12);
        assert_eq!(engine.cached_entries("toy"), 24);
    }

    #[test]
    fn batched_drain_is_bit_identical_to_reference_path() {
        let model = tiny_model();
        let mut engine = engine_with_model();
        engine.config.queue_capacity = 16;
        engine.config.max_batch = 16;
        // NaN must not share 0.0's entry, and inputs a hair either side
        // of 3.0 (the tree split between the sizes 2 and 4) must each get
        // their own profile, not 3.0's.
        let sizes = [1.0, 2.0, 3.0, 4.0, 5.5, 8.0, f64::NAN, 0.0, 2.9997, 3.0003];
        for (i, &s) in sizes.iter().enumerate() {
            engine.try_enqueue(request(i as u64, s)).ok();
        }
        let served = engine.drain_batch();
        assert_eq!(served.len(), sizes.len());
        for ((req, result), &size) in served.iter().zip(&sizes) {
            let profile = result.as_ref().ok().cloned().unwrap();
            // Reference: the row-at-a-time arena walk.
            let (t_def, e_def) = model.predict_time_energy(&req.features, model.default_freq_mhz());
            assert_eq!(profile.default_time_s.to_bits(), t_def.to_bits(), "{size}");
            assert_eq!(profile.default_energy_j.to_bits(), e_def.to_bits());
            let curve = model.predict_curve_reference(&req.features, &engine.config.freqs);
            let plane: Vec<(f64, f64)> = curve.iter().map(|p| (p.speedup, p.norm_energy)).collect();
            let front = pareto_front_indices(&plane);
            let mut pareto: Vec<PredictedPoint> = front.into_iter().map(|i| curve[i]).collect();
            pareto.sort_by(|a, b| a.freq_mhz.total_cmp(&b.freq_mhz));
            assert_eq!(profile.pareto.len(), pareto.len());
            for (a, b) in profile.pareto.iter().zip(&pareto) {
                assert_eq!(a.freq_mhz.to_bits(), b.freq_mhz.to_bits());
                assert_eq!(a.speedup.to_bits(), b.speedup.to_bits());
                assert_eq!(a.norm_energy.to_bits(), b.norm_energy.to_bits());
            }
        }
    }

    #[test]
    fn mixed_batch_preserves_order_errors_and_sharing() {
        let mut engine = engine_with_model();
        engine.config.queue_capacity = 8;
        engine.config.max_batch = 8;
        engine.try_enqueue(request(0, 2.0)).ok();
        engine
            .try_enqueue(PredictionRequest {
                job_id: 1,
                app: "nope".to_string(),
                features: vec![1.0],
            })
            .ok();
        engine
            .try_enqueue(PredictionRequest {
                job_id: 2,
                app: "toy".to_string(),
                features: vec![1.0, 2.0],
            })
            .ok();
        engine.try_enqueue(request(3, 2.0)).ok(); // duplicate of job 0
        engine.try_enqueue(request(4, 7.0)).ok();

        let served = engine.drain_batch();
        assert_eq!(
            served.iter().map(|(r, _)| r.job_id).collect::<Vec<_>>(),
            vec![0, 1, 2, 3, 4]
        );
        assert!(matches!(
            served[1].1,
            Err(ServeError::ModelUnavailable { .. })
        ));
        assert!(matches!(served[2].1, Err(ServeError::FeatureWidth { .. })));
        let first = served[0].1.as_ref().ok().cloned().unwrap();
        let dup = served[3].1.as_ref().ok().cloned().unwrap();
        assert!(
            Arc::ptr_eq(&first, &dup),
            "within-batch duplicate must share the Arc"
        );
        let stats = engine.cache_stats();
        // job 0 and 4 miss, job 3 is a (within-batch) hit, errors don't count.
        assert_eq!((stats.hits, stats.misses), (1, 2));
    }

    #[test]
    fn replacing_a_model_invalidates_its_cache_entries() {
        let mut engine = engine_with_model();
        engine.try_enqueue(request(0, 2.0)).ok();
        engine.drain_batch();
        assert_eq!(engine.cache_stats().misses, 1);
        engine.install_model("toy", tiny_model());
        engine.try_enqueue(request(1, 2.0)).ok();
        engine.drain_batch();
        // The second request must re-run inference, not hit a stale memo.
        assert_eq!(engine.cache_stats().misses, 2);
        assert_eq!(engine.cache_stats().hits, 0);
    }
}
