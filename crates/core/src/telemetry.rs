//! Unified observability: metrics registry, event tracing, profiling
//! spans, and exporters.
//!
//! Production DVFS controllers are telemetry-driven — they feed live
//! runtime/power counters back into frequency decisions — and this
//! workspace's subsystems each kept their own ad-hoc counters
//! ([`DegradationMetrics`], [`crate::SweepDiagnostics`],
//! [`gpu_sim::pricing::PriceTableStats`]) with no shared way to export or
//! correlate them. This module is the one place they meet:
//!
//! * **Metrics registry** ([`Registry`]) — typed counters, gauges, and
//!   fixed-bucket histograms registered by dotted name
//!   (`sweep.points_priced`, `campaign.breaker.trips`, `queue.retries`).
//!   Handles are `Arc`s over atomics: updating a metric on the hot replay
//!   path is one relaxed atomic op, and snapshots iterate in
//!   deterministic (sorted-name) order so they are goldenable.
//! * **Event tracing** ([`TraceEvent`]) — a bounded ring of structured
//!   records with explicit begin/end **profiling spans** in the hierarchy
//!   sweep → workload → frequency-point → launch ([`SpanLevel`]). Levels
//!   deeper than the telemetry's `max_level` are skipped at the emission
//!   site, so launch-grained tracing is opt-in and the default armed
//!   overhead stays marginal.
//! * **Exporters** — [`Telemetry::export`] writes
//!   `metrics.json`, `metrics.prom` (Prometheus text exposition format),
//!   and `trace.jsonl` (a Chrome `chrome://tracing`-compatible JSON
//!   trace, one event per line) through the crash-consistent
//!   [`crate::persist::atomic_write_str`].
//!
//! ## Inertness contract
//!
//! Telemetry *observes* measurements; it never participates in them. A
//! sweep or campaign run with a telemetry sink armed produces
//! **bit-identical** results to a disarmed run — the same discipline as
//! the inert [`gpu_sim::FaultPlan`], pinned by golden tests in
//! [`mod@crate::characterize`] and `tests/telemetry.rs`. Trace timestamps are
//! host wall-clock (diagnostic, not goldenable); everything in a metrics
//! snapshot is a deterministic function of the observed work.
//!
//! ## Metric naming
//!
//! Dotted lowercase names, one prefix per subsystem: `sweep.*` (the
//! characterization engine), `queue.*` (mirrored [`DegradationMetrics`]),
//! `pricing.*` (the kernel-price memo cache), `campaign.*` (the
//! supervisor). The Prometheus exporter maps dots to underscores.

use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::fmt;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock};
use std::time::Instant;

use gpu_sim::pricing::PriceTableStats;
use serde::{Serialize, Value};
use synergy::metrics::DegradationMetrics;

use crate::persist::{atomic_write_str, PersistError};

// ---- Metric instruments ----

/// A monotonically increasing counter. One relaxed atomic add per update.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a last-write-wins `f64` (stored as IEEE-754 bits).
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// A fixed-bucket histogram: cumulative-style buckets with upper bounds
/// fixed at registration, plus an exact sum and count. Observation is two
/// relaxed adds and one CAS loop (for the `f64` sum).
#[derive(Debug)]
pub struct Histogram {
    /// Ascending bucket upper bounds; an implicit `+Inf` bucket follows.
    bounds: Vec<f64>,
    /// One count per bound, plus the overflow bucket at the end.
    counts: Vec<AtomicU64>,
    sum_bits: AtomicU64,
    count: AtomicU64,
}

impl Histogram {
    fn new(bounds: &[f64]) -> Self {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly ascending"
        );
        assert!(
            bounds.iter().all(|b| b.is_finite()),
            "histogram bounds must be finite (+Inf is implicit)"
        );
        Histogram {
            bounds: bounds.to_vec(),
            counts: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            sum_bits: AtomicU64::new(0.0f64.to_bits()),
            count: AtomicU64::new(0),
        }
    }

    /// Records one observation.
    pub fn observe(&self, v: f64) {
        let idx = self
            .bounds
            .iter()
            .position(|b| v <= *b)
            .unwrap_or(self.bounds.len());
        self.counts[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        let mut cur = self.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match self.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Bucket upper bounds (the implicit `+Inf` bucket is not listed).
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }

    fn bucket_counts(&self) -> Vec<u64> {
        self.counts
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }
}

// ---- Registry ----

/// The value of one metric at snapshot time.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// A counter's total.
    Counter(u64),
    /// A gauge's last value.
    Gauge(f64),
    /// A histogram's buckets (per-bound counts, overflow last), sum, and
    /// total count.
    Histogram {
        /// Bucket upper bounds, ascending (`+Inf` implicit).
        bounds: Vec<f64>,
        /// Per-bucket counts; the final entry is the `+Inf` overflow.
        counts: Vec<u64>,
        /// Sum of all observations.
        sum: f64,
        /// Number of observations.
        count: u64,
    },
}

/// A point-in-time copy of every registered metric, sorted by name —
/// deterministic iteration order makes snapshots directly goldenable.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// `(name, value)` pairs in ascending name order.
    pub metrics: Vec<(String, MetricValue)>,
}

/// Typed metrics registered by dotted name. Registration is idempotent —
/// asking for an existing name returns the same instrument — and
/// re-registering a name as a *different* type panics (a naming bug).
#[derive(Debug, Default)]
pub struct Registry {
    counters: RwLock<BTreeMap<String, Arc<Counter>>>,
    gauges: RwLock<BTreeMap<String, Arc<Gauge>>>,
    histograms: RwLock<BTreeMap<String, Arc<Histogram>>>,
}

fn unpoisoned<T>(r: Result<T, PoisonError<T>>) -> T {
    // Metric state is atomic; a panic elsewhere cannot leave it torn, so
    // a poisoned lock is still safe to read and write through.
    r.unwrap_or_else(PoisonError::into_inner)
}

impl Registry {
    /// A fresh, empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    fn assert_free(&self, name: &str, wanted: &str) {
        let taken = if unpoisoned(self.counters.read()).contains_key(name) {
            Some("counter")
        } else if unpoisoned(self.gauges.read()).contains_key(name) {
            Some("gauge")
        } else if unpoisoned(self.histograms.read()).contains_key(name) {
            Some("histogram")
        } else {
            None
        };
        if let Some(kind) = taken {
            assert_eq!(
                kind, wanted,
                "metric `{name}` is already registered as a {kind}"
            );
        }
    }

    /// Gets or registers the counter `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        if let Some(c) = unpoisoned(self.counters.read()).get(name) {
            return Arc::clone(c);
        }
        self.assert_free(name, "counter");
        Arc::clone(
            unpoisoned(self.counters.write())
                .entry(name.to_string())
                .or_default(),
        )
    }

    /// Gets or registers the gauge `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        if let Some(g) = unpoisoned(self.gauges.read()).get(name) {
            return Arc::clone(g);
        }
        self.assert_free(name, "gauge");
        Arc::clone(
            unpoisoned(self.gauges.write())
                .entry(name.to_string())
                .or_default(),
        )
    }

    /// Gets or registers the histogram `name` with the given bucket upper
    /// bounds (strictly ascending, finite; `+Inf` is implicit). An
    /// existing histogram keeps its original bounds.
    ///
    /// # Panics
    /// Panics on unsorted or non-finite bounds, or if `name` is already a
    /// counter or gauge.
    pub fn histogram(&self, name: &str, bounds: &[f64]) -> Arc<Histogram> {
        if let Some(h) = unpoisoned(self.histograms.read()).get(name) {
            return Arc::clone(h);
        }
        self.assert_free(name, "histogram");
        Arc::clone(
            unpoisoned(self.histograms.write())
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(Histogram::new(bounds))),
        )
    }

    /// Snapshots every metric, sorted by name.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut metrics: Vec<(String, MetricValue)> = Vec::new();
        for (name, c) in unpoisoned(self.counters.read()).iter() {
            metrics.push((name.clone(), MetricValue::Counter(c.get())));
        }
        for (name, g) in unpoisoned(self.gauges.read()).iter() {
            metrics.push((name.clone(), MetricValue::Gauge(g.get())));
        }
        for (name, h) in unpoisoned(self.histograms.read()).iter() {
            metrics.push((
                name.clone(),
                MetricValue::Histogram {
                    bounds: h.bounds.clone(),
                    counts: h.bucket_counts(),
                    sum: h.sum(),
                    count: h.count(),
                },
            ));
        }
        metrics.sort_by(|a, b| a.0.cmp(&b.0));
        MetricsSnapshot { metrics }
    }
}

impl Serialize for MetricsSnapshot {
    fn serialize(&self, w: &mut serde::json::Writer) {
        w.begin_map();
        for (name, v) in &self.metrics {
            w.key(name);
            w.begin_map();
            match v {
                MetricValue::Counter(n) => {
                    w.entry("type", "counter");
                    w.entry("value", n);
                }
                MetricValue::Gauge(x) => {
                    w.entry("type", "gauge");
                    w.entry("value", x);
                }
                MetricValue::Histogram {
                    bounds,
                    counts,
                    sum,
                    count,
                } => {
                    w.entry("type", "histogram");
                    w.entry("bounds", bounds);
                    w.entry("counts", counts);
                    w.entry("sum", sum);
                    w.entry("count", count);
                }
            }
            w.end_map();
        }
        w.end_map();
    }
}

/// Maps a dotted metric name to a Prometheus-legal one.
fn prom_name(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

impl MetricsSnapshot {
    /// Renders the snapshot in the Prometheus text exposition format
    /// (`# TYPE` comments, `_bucket{le=...}`/`_sum`/`_count` series for
    /// histograms).
    pub fn to_prometheus_text(&self) -> String {
        use fmt::Write as _;
        let mut out = String::new();
        for (name, v) in &self.metrics {
            let p = prom_name(name);
            match v {
                MetricValue::Counter(n) => {
                    let _ = writeln!(out, "# TYPE {p} counter");
                    let _ = writeln!(out, "{p} {n}");
                }
                MetricValue::Gauge(x) => {
                    let _ = writeln!(out, "# TYPE {p} gauge");
                    let _ = writeln!(out, "{p} {x}");
                }
                MetricValue::Histogram {
                    bounds,
                    counts,
                    sum,
                    count,
                } => {
                    let _ = writeln!(out, "# TYPE {p} histogram");
                    let mut cumulative = 0u64;
                    for (b, c) in bounds.iter().zip(counts) {
                        cumulative += c;
                        let _ = writeln!(out, "{p}_bucket{{le=\"{b}\"}} {cumulative}");
                    }
                    cumulative += counts.last().copied().unwrap_or(0);
                    let _ = writeln!(out, "{p}_bucket{{le=\"+Inf\"}} {cumulative}");
                    let _ = writeln!(out, "{p}_sum {sum}");
                    let _ = writeln!(out, "{p}_count {count}");
                }
            }
        }
        out
    }
}

// ---- Event tracing ----

/// Depth of a span in the profiling hierarchy. Emission sites tag their
/// spans; a [`Telemetry`] skips anything deeper than its configured
/// maximum, so launch-grained tracing costs nothing unless asked for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SpanLevel {
    /// One whole sweep or campaign.
    Sweep,
    /// One workload within a campaign.
    Workload,
    /// One frequency point (baseline included).
    Point,
    /// One replayed run of a kernel trace.
    Launch,
}

impl SpanLevel {
    fn depth(self) -> u8 {
        match self {
            SpanLevel::Sweep => 0,
            SpanLevel::Workload => 1,
            SpanLevel::Point => 2,
            SpanLevel::Launch => 3,
        }
    }
}

/// What a trace record marks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A span opened.
    Begin,
    /// A span closed.
    End,
    /// A point event with no duration.
    Instant,
}

/// One structured trace record.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Seconds since the [`Telemetry`] was created (host wall-clock).
    pub t_s: f64,
    /// Span name, e.g. `"sweep"`, `"point"`. Static by design: span
    /// names are schema, field values carry the dynamic data — and the
    /// hot replay path allocates nothing for a name.
    pub span: &'static str,
    /// Span level the record was emitted at.
    pub level: SpanLevel,
    /// Begin / end / instant.
    pub kind: EventKind,
    /// Free-form `key=value` annotations. Keys are schema (static);
    /// values are formatted at emission time.
    pub fields: Vec<(&'static str, String)>,
}

/// Bounded ring of trace events: at capacity the oldest record is evicted
/// and counted, so a runaway sweep can never exhaust memory through its
/// own diagnostics.
#[derive(Debug)]
struct TraceBuffer {
    inner: Mutex<TraceRing>,
    capacity: usize,
}

#[derive(Debug, Default)]
struct TraceRing {
    events: VecDeque<TraceEvent>,
    dropped: u64,
}

impl TraceBuffer {
    fn new(capacity: usize) -> Self {
        TraceBuffer {
            inner: Mutex::new(TraceRing::default()),
            capacity,
        }
    }

    /// Appends one event; its timestamp is taken by `stamp` *while the
    /// ring lock is held*, so concurrent emitters (the rayon point
    /// fan-out) can never interleave records out of timestamp order.
    fn push_with(&self, stamp: impl FnOnce() -> f64, make: impl FnOnce(f64) -> TraceEvent) {
        let mut ring = unpoisoned(self.inner.lock());
        if self.capacity == 0 {
            ring.dropped += 1;
            return;
        }
        if ring.events.len() == self.capacity {
            ring.events.pop_front();
            ring.dropped += 1;
        }
        let ev = make(stamp());
        ring.events.push_back(ev);
    }
}

/// RAII guard for a profiling span: emits `Begin` on creation (via
/// [`Telemetry::span`]) and `End` on drop. Inert when the span's level is
/// deeper than the telemetry's maximum.
#[must_use = "dropping the guard immediately closes the span"]
pub struct SpanGuard<'a> {
    telemetry: Option<&'a Telemetry>,
    name: &'static str,
    level: SpanLevel,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(t) = self.telemetry {
            t.push_event(self.level, self.name, EventKind::End, Vec::new());
        }
    }
}

// ---- The telemetry sink ----

/// Default ring capacity: enough for a full-resolution sweep at point
/// granularity with room to spare.
const DEFAULT_TRACE_CAPACITY: usize = 65_536;

/// Histogram bounds for per-point simulated run times (s).
pub const POINT_TIME_BOUNDS: [f64; 7] = [1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0, 1000.0];

/// Histogram bounds for per-point halo-exchange energies (J).
pub const EXCHANGE_ENERGY_BOUNDS: [f64; 7] = [0.1, 1.0, 10.0, 100.0, 1e3, 1e4, 1e5];

/// A shareable telemetry sink: one [`Registry`] + one trace ring.
///
/// Create with [`Telemetry::new`], hand the `Arc` to
/// [`crate::SweepOptions::telemetry`] / [`crate::CampaignConfig::telemetry`],
/// and export with [`Telemetry::export`]. `None` (the default everywhere)
/// means fully disarmed: zero work on any path.
pub struct Telemetry {
    registry: Registry,
    tracer: TraceBuffer,
    epoch: Instant,
    max_level: SpanLevel,
}

impl Telemetry {
    /// A telemetry sink tracing down to frequency-point granularity.
    pub fn new() -> Arc<Self> {
        Telemetry::with_trace_level(SpanLevel::Point)
    }

    /// A sink tracing down to `max_level` (deeper emission sites are
    /// skipped). Metrics are always collected regardless of level.
    pub fn with_trace_level(max_level: SpanLevel) -> Arc<Self> {
        Arc::new(Telemetry {
            registry: Registry::new(),
            tracer: TraceBuffer::new(DEFAULT_TRACE_CAPACITY),
            epoch: Instant::now(),
            max_level,
        })
    }

    /// The metrics registry.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Seconds since this sink was created.
    pub fn now_s(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Whether this sink records trace events at `level`. Emission sites
    /// on hot paths check this *before* building event fields, so a
    /// disabled level costs one comparison, not an allocation.
    pub fn traces(&self, level: SpanLevel) -> bool {
        level.depth() <= self.max_level.depth()
    }

    fn push_event(
        &self,
        level: SpanLevel,
        span: &'static str,
        kind: EventKind,
        fields: Vec<(&'static str, String)>,
    ) {
        self.tracer.push_with(
            || self.now_s(),
            |t_s| TraceEvent {
                t_s,
                span,
                level,
                kind,
                fields,
            },
        );
    }

    /// Opens a profiling span; the returned guard closes it on drop.
    pub fn span<'a>(
        &'a self,
        level: SpanLevel,
        name: &'static str,
        fields: Vec<(&'static str, String)>,
    ) -> SpanGuard<'a> {
        if !self.traces(level) {
            return SpanGuard {
                telemetry: None,
                name,
                level,
            };
        }
        self.push_event(level, name, EventKind::Begin, fields);
        SpanGuard {
            telemetry: Some(self),
            name,
            level,
        }
    }

    /// Emits a duration-less event.
    pub fn instant(
        &self,
        level: SpanLevel,
        name: &'static str,
        fields: Vec<(&'static str, String)>,
    ) {
        if self.traces(level) {
            self.push_event(level, name, EventKind::Instant, fields);
        }
    }

    /// Copies out the recorded trace, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        unpoisoned(self.tracer.inner.lock())
            .events
            .iter()
            .cloned()
            .collect()
    }

    /// Events evicted by the ring's capacity limit (or a zero capacity).
    pub fn dropped_events(&self) -> u64 {
        unpoisoned(self.tracer.inner.lock()).dropped
    }

    // ---- Folding existing counter structs through the registry ----

    /// Mirrors a queue's [`DegradationMetrics`] into the `queue.*`
    /// counters — the single source of truth the ISSUE asks for. Call
    /// once per *accepted* measurement (the sweep and campaign paths do).
    pub fn record_degradation(&self, d: &DegradationMetrics) {
        let r = &self.registry;
        for (name, v) in [
            ("queue.retries", d.retries),
            ("queue.frequency_rejections", d.frequency_rejections),
            ("queue.launch_failures", d.launch_failures),
            ("queue.throttled_launches", d.throttled_launches),
            ("queue.counter_rewinds_healed", d.counter_rewinds_healed),
            ("queue.default_clock_fallbacks", d.default_clock_fallbacks),
            ("queue.backoff_ns", d.backoff_ns),
            ("queue.watchdog_misses", d.watchdog_misses),
            ("queue.items_rescheduled", d.items_rescheduled),
            ("queue.devices_evicted", d.devices_evicted),
            ("queue.affinity_fallbacks", d.affinity_fallbacks),
            ("queue.lifecycle_fallbacks", d.lifecycle_fallbacks),
        ] {
            if v > 0 {
                r.counter(name).add(v);
            }
        }
    }

    /// Mirrors one accepted distributed measurement's halo-exchange costs
    /// into the `synergy.exchange.*` metrics: bytes moved across links,
    /// time and energy burned by the exchange machinery, and barrier idle
    /// waits. Purely observational — the distributed sweep is bit-identical
    /// with or without an armed sink.
    pub fn record_exchange(
        &self,
        halo_bytes: u64,
        exchange_time_s: f64,
        exchange_energy_j: f64,
        barrier_wait_s: f64,
    ) {
        let r = &self.registry;
        if halo_bytes > 0 {
            r.counter("synergy.exchange.halo_bytes").add(halo_bytes);
        }
        r.histogram("synergy.exchange.time_s", &POINT_TIME_BOUNDS)
            .observe(exchange_time_s);
        r.histogram("synergy.exchange.energy_j", &EXCHANGE_ENERGY_BOUNDS)
            .observe(exchange_energy_j);
        r.histogram("synergy.exchange.barrier_wait_s", &POINT_TIME_BOUNDS)
            .observe(barrier_wait_s);
    }

    /// Mirrors a [`gpu_sim::pricing::PriceTable`]'s lookup statistics into
    /// the `pricing.*` metrics — hits, misses, and hash collisions become
    /// observable instead of invisible.
    pub fn record_pricing(&self, stats: PriceTableStats, entries: usize) {
        let r = &self.registry;
        r.counter("pricing.hits").add(stats.hits);
        r.counter("pricing.misses").add(stats.misses);
        r.counter("pricing.collisions").add(stats.collisions);
        r.gauge("pricing.entries").set(entries as f64);
    }

    // ---- Exporters ----

    /// The metrics snapshot as pretty JSON.
    pub fn metrics_json(&self) -> String {
        // Rendering a Value cannot fail; fall back to the empty object on
        // the unreachable error path rather than panicking in an exporter.
        serde_json::to_string_pretty(&self.registry.snapshot()).unwrap_or_else(|_| "{}".into())
    }

    /// The metrics snapshot in Prometheus text exposition format.
    pub fn prometheus_text(&self) -> String {
        self.registry.snapshot().to_prometheus_text()
    }

    /// The trace as a Chrome `chrome://tracing` / Perfetto-compatible
    /// JSON array with one event object per line (loadable as a whole
    /// file *and* greppable line by line). Span levels map to `tid`s so
    /// the hierarchy reads as one lane per level.
    pub fn chrome_trace_json(&self) -> String {
        use fmt::Write as _;
        let events = self.events();
        let mut out = String::from("[\n");
        for (i, ev) in events.iter().enumerate() {
            let ph = match ev.kind {
                EventKind::Begin => "B",
                EventKind::End => "E",
                EventKind::Instant => "i",
            };
            let mut args: Vec<(String, Value)> = ev
                .fields
                .iter()
                .map(|(k, v)| (k.to_string(), Value::Str(v.clone())))
                .collect();
            args.push(("level".into(), Value::U64(u64::from(ev.level.depth()))));
            let mut obj = vec![
                ("name".into(), Value::Str(ev.span.to_string())),
                ("ph".into(), Value::Str(ph.into())),
                ("ts".into(), Value::F64(ev.t_s * 1e6)),
                ("pid".into(), Value::U64(1)),
                ("tid".into(), Value::U64(u64::from(ev.level.depth()))),
                ("args".into(), Value::Map(args)),
            ];
            if ev.kind == EventKind::Instant {
                obj.push(("s".into(), Value::Str("t".into())));
            }
            let line = serde_json::to_string(&Value::Map(obj)).unwrap_or_else(|_| "{}".into());
            let sep = if i + 1 == events.len() { "" } else { "," };
            let _ = writeln!(out, "{line}{sep}");
        }
        out.push_str("]\n");
        out
    }

    /// Writes `metrics.json`, `metrics.prom`, and `trace.jsonl` into
    /// `dir` (created if missing), each via an atomic full-file replace.
    pub fn export(&self, dir: &Path) -> Result<(), PersistError> {
        atomic_write_str(&dir.join("metrics.json"), &self.metrics_json())?;
        atomic_write_str(&dir.join("metrics.prom"), &self.prometheus_text())?;
        atomic_write_str(&dir.join("trace.jsonl"), &self.chrome_trace_json())?;
        Ok(())
    }
}

impl fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ring = unpoisoned(self.tracer.inner.lock());
        f.debug_struct("Telemetry")
            .field("metrics", &self.registry.snapshot().metrics.len())
            .field("trace_events", &ring.events.len())
            .field("trace_dropped", &ring.dropped)
            .field("max_level", &self.max_level)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot_in_name_order() {
        let r = Registry::new();
        r.counter("b.second").add(2);
        r.counter("a.first").inc();
        r.counter("b.second").inc();
        r.gauge("c.third").set(1.5);
        let snap = r.snapshot();
        let names: Vec<&str> = snap.metrics.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["a.first", "b.second", "c.third"]);
        assert_eq!(snap.metrics[0].1, MetricValue::Counter(1));
        assert_eq!(snap.metrics[1].1, MetricValue::Counter(3));
        assert_eq!(snap.metrics[2].1, MetricValue::Gauge(1.5));
    }

    #[test]
    fn registration_is_idempotent() {
        let r = Registry::new();
        let a = r.counter("x");
        let b = r.counter("x");
        a.inc();
        b.inc();
        assert_eq!(a.get(), 2);
        assert_eq!(r.snapshot().metrics.len(), 1);
    }

    #[test]
    #[should_panic(expected = "already registered as a counter")]
    fn type_confusion_panics() {
        let r = Registry::new();
        r.counter("x");
        r.gauge("x");
    }

    #[test]
    fn histogram_buckets_and_moments() {
        let r = Registry::new();
        let h = r.histogram("t", &[1.0, 10.0]);
        h.observe(0.5);
        h.observe(5.0);
        h.observe(5.0);
        h.observe(50.0);
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 60.5);
        match &r.snapshot().metrics[0].1 {
            MetricValue::Histogram { counts, .. } => assert_eq!(counts, &[1, 2, 1]),
            other => panic!("expected histogram, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn unsorted_histogram_bounds_rejected() {
        Registry::new().histogram("t", &[10.0, 1.0]);
    }

    #[test]
    fn spans_emit_begin_end_pairs_and_levels_gate() {
        let tel = Telemetry::with_trace_level(SpanLevel::Point);
        {
            let _sweep = tel.span(SpanLevel::Sweep, "sweep", vec![]);
            let _point = tel.span(SpanLevel::Point, "point", vec![("freq", "900".into())]);
            // Deeper than max_level: must leave no record.
            let _launch = tel.span(SpanLevel::Launch, "replay", vec![]);
            tel.instant(SpanLevel::Launch, "skipped", vec![]);
        }
        let evs = tel.events();
        let kinds: Vec<(&str, EventKind)> = evs.iter().map(|e| (e.span, e.kind)).collect();
        assert_eq!(
            kinds,
            [
                ("sweep", EventKind::Begin),
                ("point", EventKind::Begin),
                ("point", EventKind::End),
                ("sweep", EventKind::End),
            ]
        );
        assert!(evs.windows(2).all(|w| w[0].t_s <= w[1].t_s));
        assert_eq!(evs[1].fields, [("freq", "900".to_string())]);
    }

    #[test]
    fn trace_ring_is_bounded() {
        let tel = Telemetry::new();
        for i in 0..(DEFAULT_TRACE_CAPACITY + 10) {
            tel.instant(SpanLevel::Sweep, "tick", vec![("i", i.to_string())]);
        }
        assert_eq!(tel.events().len(), DEFAULT_TRACE_CAPACITY);
        assert_eq!(tel.dropped_events(), 10);
    }

    #[test]
    fn prometheus_text_renders_all_series() {
        let r = Registry::new();
        r.counter("sweep.points_priced").add(7);
        r.gauge("pricing.entries").set(3.0);
        r.histogram("sweep.point_time_s", &[0.1, 1.0]).observe(0.5);
        let text = r.snapshot().to_prometheus_text();
        assert!(text.contains("# TYPE sweep_points_priced counter"));
        assert!(text.contains("sweep_points_priced 7"));
        assert!(text.contains("# TYPE pricing_entries gauge"));
        assert!(text.contains("pricing_entries 3"));
        assert!(text.contains("# TYPE sweep_point_time_s histogram"));
        assert!(text.contains("sweep_point_time_s_bucket{le=\"0.1\"} 0"));
        assert!(text.contains("sweep_point_time_s_bucket{le=\"1\"} 1"));
        assert!(text.contains("sweep_point_time_s_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("sweep_point_time_s_sum 0.5"));
        assert!(text.contains("sweep_point_time_s_count 1"));
    }

    #[test]
    fn chrome_trace_is_valid_json() {
        let tel = Telemetry::new();
        {
            let _s = tel.span(SpanLevel::Sweep, "sweep", vec![]);
            tel.instant(SpanLevel::Point, "mark", vec![("k", "v".into())]);
        }
        let json = tel.chrome_trace_json();
        let v: Value = serde_json::from_str(&json).expect("trace must parse as JSON");
        match v {
            Value::Seq(items) => {
                assert_eq!(items.len(), 3);
                for item in &items {
                    assert!(item.get("name").is_some());
                    assert!(item.get("ph").is_some());
                    assert!(item.get("ts").is_some());
                }
            }
            other => panic!("expected a JSON array, got {other:?}"),
        }
    }

    #[test]
    fn degradation_fold_mirrors_every_counter() {
        let tel = Telemetry::new();
        let d = DegradationMetrics {
            retries: 3,
            throttled_launches: 2,
            backoff_ns: 500,
            ..Default::default()
        };
        tel.record_degradation(&d);
        tel.record_degradation(&d);
        let snap = tel.registry().snapshot();
        let get = |name: &str| {
            snap.metrics
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| v.clone())
        };
        assert_eq!(get("queue.retries"), Some(MetricValue::Counter(6)));
        assert_eq!(
            get("queue.throttled_launches"),
            Some(MetricValue::Counter(4))
        );
        assert_eq!(get("queue.backoff_ns"), Some(MetricValue::Counter(1000)));
        // Zero-valued counters are not registered — snapshots stay tight.
        assert_eq!(get("queue.launch_failures"), None);
    }

    #[test]
    fn metrics_json_round_trips() {
        let tel = Telemetry::new();
        tel.registry().counter("a.b").add(41);
        let v: Value = serde_json::from_str(&tel.metrics_json()).expect("valid JSON");
        let entry = v.get("a.b").expect("metric present");
        assert_eq!(entry.get("value"), Some(&Value::U64(41)));
    }
}
