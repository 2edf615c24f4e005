//! Hierarchical span guards.
//!
//! A [`Span`] measures the region between its construction and its
//! drop. Nesting is tracked per thread: each span knows its parent's
//! hierarchy path, and a parent's *self time* is its duration minus the
//! total duration of its direct children — so the summary table can
//! show where time is actually spent, not just who is on the stack.
//!
//! A span from a disabled [`Telemetry`] handle is a
//! no-op shell: no clock read, no thread-local touch, no allocation.

use std::cell::RefCell;

use crate::sink::{KeyValues, TraceRecord};
use crate::{Inner, Telemetry};

struct Frame {
    path: String,
    child_ns: u64,
}

thread_local! {
    static SPAN_STACK: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
}

/// RAII guard for one timed region. Construct through
/// [`Span::enter`] or [`Telemetry::span`]; the measurement completes
/// when the guard drops.
#[must_use = "a span measures until it is dropped"]
pub struct Span<'t> {
    active: Option<ActiveSpan<'t>>,
}

struct ActiveSpan<'t> {
    inner: &'t Inner,
    name: &'static str,
    start_ns: u64,
    kvs: KeyValues,
}

impl<'t> Span<'t> {
    /// Enters a span named `name` under `telemetry`, annotated with
    /// `kvs`. Pass `Vec::new()` when there is nothing to annotate (it
    /// does not allocate).
    pub fn enter(telemetry: &'t Telemetry, name: &'static str, kvs: KeyValues) -> Span<'t> {
        let Some(inner) = telemetry.inner() else {
            return Span { active: None };
        };
        let start_ns = inner.clock.now_ns();
        SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            let path = match stack.last() {
                Some(parent) => format!("{}/{}", parent.path, name),
                None => name.to_string(),
            };
            stack.push(Frame { path, child_ns: 0 });
        });
        Span {
            active: Some(ActiveSpan {
                inner,
                name,
                start_ns,
                kvs,
            }),
        }
    }

    /// Whether this guard is actually measuring (false for spans from a
    /// disabled handle).
    pub fn is_recording(&self) -> bool {
        self.active.is_some()
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        let Some(span) = self.active.take() else {
            return;
        };
        let end_ns = span.inner.clock.now_ns();
        let dur_ns = end_ns.saturating_sub(span.start_ns);
        let frame = SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            let frame = stack.pop().expect("span stack underflow");
            if let Some(parent) = stack.last_mut() {
                parent.child_ns = parent.child_ns.saturating_add(dur_ns);
            }
            frame
        });
        let self_ns = dur_ns.saturating_sub(frame.child_ns);
        span.inner
            .registry
            .record_span(&frame.path, dur_ns, self_ns);
        if !span.inner.sinks.is_empty() {
            let record = TraceRecord::Span {
                path: frame.path,
                name: span.name.to_string(),
                start_ns: span.start_ns,
                dur_ns,
                self_ns,
                kvs: span.kvs,
            };
            for sink in &span.inner.sinks {
                sink.record(&record);
            }
        }
    }
}

/// RAII guard that records its elapsed time into a named histogram on
/// drop. Construct through [`Telemetry::timer`].
#[must_use = "a timer measures until it is dropped"]
pub struct Timer<'t> {
    active: Option<(&'t Inner, &'static str, u64)>,
}

impl<'t> Timer<'t> {
    pub(crate) fn start(telemetry: &'t Telemetry, name: &'static str) -> Timer<'t> {
        let active = telemetry
            .inner()
            .map(|inner| (inner, name, inner.clock.now_ns()));
        Timer { active }
    }
}

impl Drop for Timer<'_> {
    fn drop(&mut self) {
        let Some((inner, name, start_ns)) = self.active.take() else {
            return;
        };
        let elapsed = inner.clock.now_ns().saturating_sub(start_ns);
        inner.registry.observe(name, elapsed);
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::clock::MockClock;
    use crate::sink::MemorySink;

    fn mock_telemetry() -> (Telemetry, Arc<MemorySink>) {
        let sink = Arc::new(MemorySink::new());
        let tele = Telemetry::builder()
            .clock(MockClock::new(10))
            .sink(Arc::clone(&sink))
            .build();
        (tele, sink)
    }

    #[test]
    fn nested_spans_build_paths_and_self_time() {
        let (tele, sink) = mock_telemetry();
        {
            let _outer = Span::enter(&tele, "outer", Vec::new());
            {
                let _inner = Span::enter(&tele, "inner", Vec::new());
            }
        }
        // MockClock: outer start t=0, inner start t=10, inner end t=20
        // (dur 10), outer end t=30 (dur 30, child 10, self 20).
        let records = sink.records();
        assert_eq!(records.len(), 2);
        match &records[0] {
            TraceRecord::Span {
                path,
                dur_ns,
                self_ns,
                ..
            } => {
                assert_eq!(path, "outer/inner");
                assert_eq!((*dur_ns, *self_ns), (10, 10));
            }
            other => panic!("expected span, got {other:?}"),
        }
        match &records[1] {
            TraceRecord::Span {
                path,
                dur_ns,
                self_ns,
                ..
            } => {
                assert_eq!(path, "outer");
                assert_eq!((*dur_ns, *self_ns), (30, 20));
            }
            other => panic!("expected span, got {other:?}"),
        }
        let snap = tele.snapshot();
        assert_eq!(snap.spans["outer"].self_ns, 20);
        assert_eq!(snap.spans["outer/inner"].total_ns, 10);
    }

    #[test]
    fn disabled_spans_are_inert() {
        let tele = Telemetry::disabled();
        let span = Span::enter(&tele, "anything", Vec::new());
        assert!(!span.is_recording());
        drop(span);
        assert_eq!(tele.snapshot(), crate::MetricsSnapshot::default());
    }

    #[test]
    fn sibling_spans_share_a_parent_path() {
        let (tele, sink) = mock_telemetry();
        {
            let _run = Span::enter(&tele, "run", Vec::new());
            for _ in 0..2 {
                let _shard = Span::enter(&tele, "shard", Vec::new());
            }
        }
        let snap = tele.snapshot();
        assert_eq!(snap.spans["run/shard"].count, 2);
        assert_eq!(snap.spans["run"].count, 1);
        assert_eq!(sink.records().len(), 3);
    }

    #[test]
    fn spans_survive_unwinding() {
        let (tele, _sink) = mock_telemetry();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _span = Span::enter(&tele, "doomed", Vec::new());
            panic!("injected");
        }));
        assert!(result.is_err());
        // the stack unwound cleanly: a fresh span still works
        {
            let _span = Span::enter(&tele, "after", Vec::new());
        }
        let snap = tele.snapshot();
        assert_eq!(snap.spans["doomed"].count, 1);
        assert_eq!(snap.spans["after"].count, 1);
    }

    #[test]
    fn timer_records_into_a_histogram() {
        let (tele, _sink) = mock_telemetry();
        {
            let _t = Timer::start(&tele, "question_ns");
        }
        let snap = tele.snapshot();
        assert_eq!(snap.histograms["question_ns"].count, 1);
        assert_eq!(snap.histograms["question_ns"].sum, 10);
    }
}
