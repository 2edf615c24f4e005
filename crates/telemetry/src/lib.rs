//! Deterministic observability for the ChipVQA harness.
//!
//! Three pillars behind one cheap [`Telemetry`] handle:
//!
//! * **Spans** — RAII guards ([`Span::enter`]) that time hierarchical
//!   regions; nesting is tracked per thread, and a parent's *self time*
//!   excludes its children so the summary shows where time actually
//!   goes.
//! * **Metrics** — counters, gauges and power-of-two-bucket histograms
//!   in a sharded [`MetricsRegistry`]: recording locks a per-thread
//!   shard, never a global, so the work-stealing executor's workers do
//!   not contend; [`Telemetry::snapshot`] merges shards
//!   deterministically at scrape time.
//! * **Sinks** — completed spans and structured events fan out as
//!   [`TraceRecord`]s to any number of [`TraceSink`]s: [`JsonlSink`]
//!   exports the trace as JSON lines, [`MemorySink`] backs test
//!   assertions, and [`TelemetrySummary`] renders the human table
//!   appended to reports.
//!
//! # Determinism
//!
//! Timestamps come from a pluggable [`Clock`]. With [`MockClock`]
//! (time = observation count × tick) and a single worker, a seeded run
//! makes the same telemetry calls in the same order every time, so the
//! exported JSONL trace is **byte-identical** across reruns — the same
//! guarantee the eval stack gives for reports, extended to traces.
//!
//! # Cost when disabled
//!
//! [`Telemetry::disabled`] is the default everywhere in the workspace.
//! Every operation on a disabled handle is a single `Option` check — no
//! clock read, no allocation, no lock — keeping the uninstrumented hot
//! path within benchmark noise (enforced by the `telemetry` bench and
//! the `telemetry_overhead` CI gate).
//!
//! # Example
//!
//! ```
//! use chipvqa_telemetry::{kv, MemorySink, MockClock, Span, Telemetry};
//! use std::sync::Arc;
//!
//! let sink = Arc::new(MemorySink::new());
//! let tele = Telemetry::builder()
//!     .clock(MockClock::new(100))
//!     .sink(sink.clone())
//!     .build();
//! {
//!     let _span = Span::enter(&tele, "inference", vec![kv("model", "GPT4o")]);
//!     tele.counter("cache.miss", 1);
//! }
//! assert_eq!(sink.named("inference").len(), 1);
//! assert_eq!(tele.snapshot().counters["cache.miss"], 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod metrics;
pub mod sink;
pub mod span;
pub mod summary;

use std::sync::Arc;

pub use clock::{Clock, MockClock, MonotonicClock};
pub use metrics::{HistogramSnapshot, MetricsRegistry, MetricsSnapshot, SpanStat};
pub use sink::{kv, parse_jsonl, FnSink, JsonlSink, KeyValues, MemorySink, TraceRecord, TraceSink};
pub use span::{Span, Timer};
pub use summary::{HistogramRow, SpanRow, TelemetrySummary};

/// Shared state behind an enabled [`Telemetry`] handle.
pub(crate) struct Inner {
    pub(crate) clock: Box<dyn Clock>,
    pub(crate) sinks: Vec<Arc<dyn TraceSink>>,
    pub(crate) registry: MetricsRegistry,
}

/// The observability handle threaded through the eval stack.
///
/// Cloning is cheap (an `Arc` bump) and clones share every sink,
/// metric and the clock, so an executor, its supervisor and its cache
/// instrumentation all feed one place. The disabled handle
/// ([`Telemetry::disabled`]) is free to clone and free to call.
#[derive(Clone)]
pub struct Telemetry {
    inner: Option<Arc<Inner>>,
}

impl Telemetry {
    /// The no-op handle: every operation is a single branch.
    pub fn disabled() -> Self {
        Telemetry { inner: None }
    }

    /// An enabled handle with real time, metrics only (no sinks).
    pub fn recording() -> Self {
        Telemetry::builder().build()
    }

    /// Starts configuring an enabled handle.
    pub fn builder() -> TelemetryBuilder {
        TelemetryBuilder {
            clock: Box::new(MonotonicClock::new()),
            sinks: Vec::new(),
        }
    }

    /// Whether this handle records anything.
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    pub(crate) fn inner(&self) -> Option<&Inner> {
        self.inner.as_deref()
    }

    /// Adds `delta` to counter `name`.
    pub fn counter(&self, name: &str, delta: u64) {
        if let Some(inner) = self.inner() {
            inner.registry.counter(name, delta);
        }
    }

    /// Sets gauge `name` to `value` (last write wins).
    pub fn gauge(&self, name: &str, value: f64) {
        if let Some(inner) = self.inner() {
            inner.registry.gauge(name, value);
        }
    }

    /// Records `ns` into histogram `name`.
    pub fn observe_ns(&self, name: &str, ns: u64) {
        if let Some(inner) = self.inner() {
            inner.registry.observe(name, ns);
        }
    }

    /// Emits a one-shot structured event to every sink, timestamped by
    /// the handle's clock.
    ///
    /// Callers with non-trivial `kvs` should guard construction with
    /// [`enabled`](Telemetry::enabled) to keep the disabled path
    /// allocation-free.
    pub fn event(&self, name: &str, kvs: KeyValues) {
        let Some(inner) = self.inner() else { return };
        let record = TraceRecord::Event {
            name: name.to_string(),
            at_ns: inner.clock.now_ns(),
            kvs,
        };
        for sink in &inner.sinks {
            sink.record(&record);
        }
    }

    /// Enters an unannotated span (see [`Span::enter`]).
    pub fn span(&self, name: &'static str) -> Span<'_> {
        Span::enter(self, name, Vec::new())
    }

    /// Enters an annotated span (see [`Span::enter`]).
    pub fn span_kv(&self, name: &'static str, kvs: KeyValues) -> Span<'_> {
        Span::enter(self, name, kvs)
    }

    /// Starts a histogram timer: the elapsed time lands in histogram
    /// `name` when the guard drops.
    pub fn timer(&self, name: &'static str) -> Timer<'_> {
        Timer::start(self, name)
    }

    /// Merged point-in-time view of all metrics (empty when disabled).
    pub fn snapshot(&self) -> MetricsSnapshot {
        match self.inner() {
            Some(inner) => inner.registry.snapshot(),
            None => MetricsSnapshot::default(),
        }
    }

    /// Emits one `telemetry.snapshot` event carrying every counter and
    /// gauge of [`snapshot`](Self::snapshot) as `(name, value)` pairs,
    /// counters first, each in name order. A trace that ends with it
    /// holds the run's totals and high-water marks beside its spans.
    pub fn emit_snapshot(&self) {
        if !self.enabled() {
            return;
        }
        let snap = self.snapshot();
        let counters = snap.counters.iter().map(|(name, n)| kv(name.as_str(), n));
        let gauges = snap.gauges.iter().map(|(name, v)| kv(name.as_str(), v));
        self.event("telemetry.snapshot", counters.chain(gauges).collect());
    }

    /// The human summary of everything recorded so far.
    pub fn summary(&self) -> TelemetrySummary {
        TelemetrySummary::from_snapshot(&self.snapshot())
    }
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::disabled()
    }
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("enabled", &self.enabled())
            .finish()
    }
}

/// Handles compare by identity: two enabled handles are equal iff they
/// share state; all disabled handles are equal. This keeps `PartialEq`
/// derivable on structs that carry a `Telemetry`.
impl PartialEq for Telemetry {
    fn eq(&self, other: &Self) -> bool {
        match (&self.inner, &other.inner) {
            (None, None) => true,
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

/// Configures an enabled [`Telemetry`] handle.
pub struct TelemetryBuilder {
    clock: Box<dyn Clock>,
    sinks: Vec<Arc<dyn TraceSink>>,
}

impl TelemetryBuilder {
    /// Replaces the clock (default: [`MonotonicClock`]).
    pub fn clock(mut self, clock: impl Clock + 'static) -> Self {
        self.clock = Box::new(clock);
        self
    }

    /// Attaches a sink; may be called repeatedly.
    pub fn sink(mut self, sink: Arc<impl TraceSink + 'static>) -> Self {
        self.sinks.push(sink);
        self
    }

    /// Builds the enabled handle.
    pub fn build(self) -> Telemetry {
        Telemetry {
            inner: Some(Arc::new(Inner {
                clock: self.clock,
                sinks: self.sinks,
                registry: MetricsRegistry::new(),
            })),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert_and_cheap() {
        let tele = Telemetry::disabled();
        assert!(!tele.enabled());
        tele.counter("x", 1);
        tele.gauge("y", 2.0);
        tele.observe_ns("z", 3);
        tele.event("e", Vec::new());
        assert_eq!(tele.snapshot(), MetricsSnapshot::default());
        assert!(tele.summary().is_empty());
    }

    #[test]
    fn clones_share_state() {
        let tele = Telemetry::recording();
        let other = tele.clone();
        other.counter("shared", 2);
        tele.counter("shared", 3);
        assert_eq!(tele.snapshot().counters["shared"], 5);
        assert_eq!(tele, other);
        assert_ne!(tele, Telemetry::recording(), "separate registries differ");
        assert_eq!(Telemetry::disabled(), Telemetry::disabled());
        assert_ne!(tele, Telemetry::disabled());
    }

    #[test]
    fn events_reach_every_sink() {
        let a = Arc::new(MemorySink::new());
        let b = Arc::new(MemorySink::new());
        let tele = Telemetry::builder()
            .clock(MockClock::new(1))
            .sink(a.clone())
            .sink(b.clone())
            .build();
        tele.event("run.degraded", vec![kv("model", "Fuyu-8B")]);
        assert_eq!(a.named("run.degraded").len(), 1);
        assert_eq!(b.named("run.degraded").len(), 1);
        assert_eq!(a.records()[0].get("model"), Some("Fuyu-8B"));
    }

    #[test]
    fn snapshot_event_carries_every_counter_and_gauge() {
        let sink = Arc::new(MemorySink::new());
        let tele = Telemetry::builder()
            .clock(MockClock::new(1))
            .sink(sink.clone())
            .build();
        tele.counter("stream.shard_generated", 3);
        tele.gauge("stream.peak_resident_shards", 2.0);
        tele.emit_snapshot();
        let events = sink.named("telemetry.snapshot");
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].get("stream.shard_generated"), Some("3"));
        assert_eq!(events[0].get("stream.peak_resident_shards"), Some("2"));
        Telemetry::disabled().emit_snapshot();
    }

    #[test]
    fn summary_reflects_recorded_metrics() {
        let tele = Telemetry::builder().clock(MockClock::new(5)).build();
        {
            let _s = tele.span("inference");
        }
        tele.counter("cache.hit", 7);
        {
            let _t = tele.timer("question_ns");
        }
        let summary = tele.summary();
        assert_eq!(summary.spans.len(), 1);
        assert_eq!(summary.spans[0].path, "inference");
        assert_eq!(summary.counters, vec![("cache.hit".to_string(), 7)]);
        assert_eq!(summary.histograms[0].count, 1);
    }

    #[test]
    fn debug_formats_without_leaking_internals() {
        assert_eq!(
            format!("{:?}", Telemetry::disabled()),
            "Telemetry { enabled: false }"
        );
        assert_eq!(
            format!("{:?}", Telemetry::recording()),
            "Telemetry { enabled: true }"
        );
    }
}
