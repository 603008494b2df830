//! Span accounting for the traced run.
//!
//! Every public layer call the benchmark makes goes through
//! [`Tracer::span`]. With tracing off the closure just runs. With tracing
//! on, the call is wrapped in an `energy_model::telemetry` span (name,
//! start, end, parent, pass id) and its self time — duration minus the
//! part its child spans cover — is charged to its [`Layer`].
//!
//! `run_fleet`, `run_lifecycle`, `train_and_publish*` and the evaluation
//! protocol are opaque: their inner layer calls cannot be timed from
//! outside. The traced run times the opaque call as a whole, then
//! re-issues its layer calls inside [`Tracer::reissue`]. Re-issued time
//! is charged to the re-issued layers and taken off the opaque call's
//! layer, so what that layer keeps is the loop time the re-issued calls do
//! not cover (`fleet.other`, `lifecycle.other`, …). Re-issue blocks are
//! not part of the traced wall time.
//!
//! Hot per-job calls (trace replays, drains, policy decisions) are timed
//! one by one with [`Tracer::sample`] on the same clock but emit no trace
//! event: a span per job would overflow the telemetry ring.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::Arc;

use energy_model::telemetry::{SpanLevel, Telemetry};

/// A benchmark layer: the module a span's self time is charged to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// `energy_model::characterize` and `::distributed` (pricing and trace
    /// replay inside a sweep included).
    Characterize,
    /// `ml` forest fit, flat compile and predict, through `gp_model` and
    /// `ds_model`.
    Ml,
    /// The rest of `energy_model::eval` (MAPE and Pareto scoring).
    Eval,
    /// `governor::registry` loads and publishes.
    Registry,
    /// `energy_model::campaign` and `::persist`.
    Campaign,
    /// `governor::serving` drains.
    Serving,
    /// `governor::policy` clock decisions.
    Policy,
    /// `synergy` per-job trace replay on a `gpu_sim` device.
    Synergy,
    /// `governor::fleet` loop time the re-issued calls do not cover.
    Fleet,
    /// `governor::lifecycle` loop time the re-issued calls do not cover.
    Lifecycle,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 10] = [
        Layer::Characterize,
        Layer::Ml,
        Layer::Eval,
        Layer::Registry,
        Layer::Campaign,
        Layer::Serving,
        Layer::Policy,
        Layer::Synergy,
        Layer::Fleet,
        Layer::Lifecycle,
    ];

    /// Metric-name prefix of the layer.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Characterize => "characterize",
            Layer::Ml => "ml",
            Layer::Eval => "eval",
            Layer::Registry => "registry",
            Layer::Campaign => "campaign",
            Layer::Serving => "serving",
            Layer::Policy => "policy",
            Layer::Synergy => "synergy",
            Layer::Fleet => "fleet",
            Layer::Lifecycle => "lifecycle",
        }
    }
}

/// Calls and total duration of one span name.
#[derive(Debug, Default, Clone, Copy)]
pub struct SpanTotal {
    /// Spans closed.
    pub calls: u64,
    /// Summed duration (s).
    pub total_s: f64,
}

/// What a traced run measured.
#[derive(Debug, Default, Clone)]
pub struct TraceSummary {
    /// Traced host time: top-level spans outside re-issue blocks (s).
    pub wall_s: f64,
    /// The part of `wall_s` each layer's top-level spans took (s).
    pub top_s: BTreeMap<Layer, f64>,
    /// Self time per layer (s). Opaque layers hold their remainder.
    pub self_s: BTreeMap<Layer, f64>,
    /// Totals per span name.
    pub spans: BTreeMap<&'static str, SpanTotal>,
    /// Per-call durations of sampled hot calls (s).
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    /// Work counted by the benchmark's own calls (points, fits, loads…).
    pub counts: BTreeMap<&'static str, u64>,
    /// Time spent in re-issue blocks (s), excluded from `wall_s`.
    pub reissue_s: f64,
}

struct Frame {
    name: &'static str,
    start_s: f64,
    child_s: f64,
}

#[derive(Default)]
struct State {
    pass: u64,
    stack: Vec<Frame>,
    reissue_for: Option<Layer>,
    summary: TraceSummary,
}

struct Traced {
    spans: Arc<Telemetry>,
    program: Arc<Telemetry>,
    state: RefCell<State>,
}

/// The benchmark's span recorder; inert when tracing is off.
pub struct Tracer {
    inner: Option<Traced>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Self {
        Tracer { inner: None }
    }

    /// A recording tracer. Benchmark spans go to their own sink so the
    /// exported trace holds only them; the program's armed sinks report to
    /// a second sink whose counters [`Tracer::program_sink`] exposes.
    pub fn on() -> Self {
        Tracer {
            inner: Some(Traced {
                spans: Telemetry::with_trace_level(SpanLevel::Sweep),
                program: Telemetry::with_trace_level(SpanLevel::Sweep),
                state: RefCell::new(State::default()),
            }),
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The sink to arm the program's own telemetry with (`None` when off).
    pub fn program_sink(&self) -> Option<Arc<Telemetry>> {
        self.inner.as_ref().map(|t| Arc::clone(&t.program))
    }

    /// Tags the spans that follow with pass `pass`.
    pub fn set_pass(&self, pass: u64) {
        if let Some(t) = &self.inner {
            t.state.borrow_mut().pass = pass;
        }
    }

    /// Runs `f` inside a span named `name`, charging its self time to
    /// `layer`.
    pub fn span<T>(&self, layer: Layer, name: &'static str, f: impl FnOnce() -> T) -> T {
        let Some(t) = &self.inner else {
            return f();
        };
        let (parent, pass) = {
            let st = t.state.borrow();
            (st.stack.last().map_or("", |fr| fr.name), st.pass)
        };
        let guard = t.spans.span(
            SpanLevel::Sweep,
            name,
            vec![
                ("layer", layer.name().to_string()),
                ("parent", parent.to_string()),
                ("pass", pass.to_string()),
            ],
        );
        let start_s = t.spans.now_s();
        t.state.borrow_mut().stack.push(Frame {
            name,
            start_s,
            child_s: 0.0,
        });
        let out = f();
        let end_s = t.spans.now_s();
        drop(guard);

        let mut st = t.state.borrow_mut();
        let frame = st.stack.pop().expect("span stack is balanced");
        let dur = end_s - frame.start_s;
        *st.summary.self_s.entry(layer).or_default() += dur - frame.child_s;
        let total = st.summary.spans.entry(name).or_default();
        total.calls += 1;
        total.total_s += dur;
        if let Some(parent) = st.stack.last_mut() {
            parent.child_s += dur;
        } else if let Some(from) = st.reissue_for {
            *st.summary.self_s.entry(from).or_default() -= dur;
        } else {
            st.summary.wall_s += dur;
            *st.summary.top_s.entry(layer).or_default() += dur;
        }
        out
    }

    /// Runs `f`, whose spans re-issue calls an opaque `from` call made:
    /// their time moves from `from` to their own layers and is left out
    /// of the traced wall time.
    pub fn reissue(&self, from: Layer, f: impl FnOnce()) {
        let Some(t) = &self.inner else {
            return;
        };
        {
            let mut st = t.state.borrow_mut();
            assert!(
                st.stack.is_empty() && st.reissue_for.is_none(),
                "re-issue blocks run at top level"
            );
            st.reissue_for = Some(from);
        }
        let start_s = t.spans.now_s();
        f();
        let dur = t.spans.now_s() - start_s;
        let mut st = t.state.borrow_mut();
        st.reissue_for = None;
        st.summary.reissue_s += dur;
    }

    /// Adds `n` to the benchmark's own work counter `name` (traced runs).
    pub fn count(&self, name: &'static str, n: u64) {
        if let Some(t) = &self.inner {
            *t.state.borrow_mut().summary.counts.entry(name).or_default() += n;
        }
    }

    /// Closes every span a panicking pass left open, without charging
    /// them, so later passes account correctly.
    pub fn recover(&self) {
        if let Some(t) = &self.inner {
            let mut st = t.state.borrow_mut();
            st.stack.clear();
            st.reissue_for = None;
        }
    }

    /// Times one hot call into the `name` samples (no trace event).
    pub fn sample<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let Some(t) = &self.inner else {
            return f();
        };
        let start_s = t.spans.now_s();
        let out = f();
        let dur = t.spans.now_s() - start_s;
        t.state
            .borrow_mut()
            .summary
            .samples
            .entry(name)
            .or_default()
            .push(dur);
        out
    }

    /// Time spent in re-issue blocks so far (s); 0 when off.
    pub fn reissue_s(&self) -> f64 {
        self.inner
            .as_ref()
            .map_or(0.0, |t| t.state.borrow().summary.reissue_s)
    }

    /// A copy of everything recorded so far.
    pub fn summary(&self) -> Option<TraceSummary> {
        self.inner
            .as_ref()
            .map(|t| t.state.borrow().summary.clone())
    }

    /// Value of a program counter (0 when absent or when off).
    pub fn counter(&self, name: &str) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |t| t.program.registry().counter(name).get())
    }

    /// The benchmark spans as a Chrome-trace JSON array.
    pub fn chrome_trace_json(&self) -> Option<String> {
        self.inner.as_ref().map(|t| t.spans.chrome_trace_json())
    }

    /// The program's armed-sink metrics as JSON.
    pub fn program_metrics_json(&self) -> Option<String> {
        self.inner.as_ref().map(|t| t.program.metrics_json())
    }
}
