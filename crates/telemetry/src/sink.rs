//! Trace records and where they go.
//!
//! Completed spans and one-shot events become [`TraceRecord`]s and are
//! fanned out to every attached [`TraceSink`]. Two sinks ship with the
//! crate: [`MemorySink`] for test assertions and [`JsonlSink`], which
//! renders each record as one JSON line (the exported trace format,
//! parseable back with [`parse_jsonl`]).

use std::io::{BufWriter, Write};
use std::sync::{Mutex, MutexGuard};

use serde::{Deserialize, Serialize};

/// Key/value annotations on a span or event.
pub type KeyValues = Vec<(String, String)>;

/// Builds one key/value pair from anything displayable.
pub fn kv(key: impl Into<String>, value: impl ToString) -> (String, String) {
    (key.into(), value.to_string())
}

/// One exported trace entry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TraceRecord {
    /// A completed span.
    Span {
        /// Hierarchy path, `/`-joined parent names (e.g.
        /// `executor.run/executor.shard/inference`).
        path: String,
        /// The span's own name (last path segment).
        name: String,
        /// Clock reading at entry, ns.
        start_ns: u64,
        /// Total duration, ns.
        dur_ns: u64,
        /// Duration not attributed to child spans, ns.
        self_ns: u64,
        /// Annotations provided at entry.
        kvs: KeyValues,
    },
    /// A one-shot structured event.
    Event {
        /// Event name (e.g. `fault.injected`).
        name: String,
        /// Clock reading when emitted, ns.
        at_ns: u64,
        /// Annotations.
        kvs: KeyValues,
    },
}

impl TraceRecord {
    /// The record's name (span name or event name).
    pub fn name(&self) -> &str {
        match self {
            TraceRecord::Span { name, .. } => name,
            TraceRecord::Event { name, .. } => name,
        }
    }

    /// Looks up an annotation value by key.
    pub fn get(&self, key: &str) -> Option<&str> {
        let kvs = match self {
            TraceRecord::Span { kvs, .. } => kvs,
            TraceRecord::Event { kvs, .. } => kvs,
        };
        kvs.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }
}

/// Receives every completed span and emitted event.
///
/// Implementations must be thread-safe (executor workers record
/// concurrently) and should be cheap — recording happens on the hot
/// path when telemetry is enabled.
pub trait TraceSink: Send + Sync {
    /// Accepts one record.
    fn record(&self, record: &TraceRecord);
}

/// Poison-tolerant lock (a worker panic caught by the supervised
/// executor must not wedge later recording).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// In-memory sink for assertions in tests.
#[derive(Debug, Default)]
pub struct MemorySink {
    records: Mutex<Vec<TraceRecord>>,
}

impl MemorySink {
    /// An empty sink.
    pub fn new() -> Self {
        MemorySink::default()
    }

    /// A copy of everything recorded so far.
    pub fn records(&self) -> Vec<TraceRecord> {
        lock(&self.records).clone()
    }

    /// Records whose name matches exactly.
    pub fn named(&self, name: &str) -> Vec<TraceRecord> {
        lock(&self.records)
            .iter()
            .filter(|r| r.name() == name)
            .cloned()
            .collect()
    }

    /// How many records have been captured.
    pub fn len(&self) -> usize {
        lock(&self.records).len()
    }

    /// Whether nothing has been captured.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops everything captured so far.
    pub fn clear(&self) {
        lock(&self.records).clear();
    }
}

impl TraceSink for MemorySink {
    fn record(&self, record: &TraceRecord) {
        lock(&self.records).push(record.clone());
    }
}

/// JSONL exporter: one serialized [`TraceRecord`] per line, in the
/// order records were received.
#[derive(Debug, Default)]
pub struct JsonlSink {
    lines: Mutex<Vec<String>>,
}

impl JsonlSink {
    /// An empty sink.
    pub fn new() -> Self {
        JsonlSink::default()
    }

    /// The whole trace as one newline-terminated JSONL document.
    pub fn to_jsonl(&self) -> String {
        let lines = lock(&self.lines);
        let mut out = String::new();
        for line in lines.iter() {
            out.push_str(line);
            out.push('\n');
        }
        out
    }

    /// Writes the trace to a file, the same bytes as
    /// [`to_jsonl`](Self::to_jsonl), streamed line by line through a
    /// buffer instead of joined in memory first.
    pub fn write_to(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        for line in lock(&self.lines).iter() {
            out.write_all(line.as_bytes())?;
            out.write_all(b"\n")?;
        }
        out.flush()
    }

    /// How many records have been captured.
    pub fn len(&self) -> usize {
        lock(&self.lines).len()
    }

    /// Whether nothing has been captured.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl TraceSink for JsonlSink {
    fn record(&self, record: &TraceRecord) {
        if let Ok(line) = serde_json::to_string(record) {
            lock(&self.lines).push(line);
        }
    }
}

/// Adapts a closure into a [`TraceSink`] — the hook that lets a caller
/// stream live trace records somewhere structured (a progress channel,
/// a metrics bridge) without defining a sink type.
///
/// The closure runs on whichever thread completes the span or emits the
/// event, so it must be `Send + Sync` and should stay cheap; anything
/// expensive belongs behind a channel on the far side.
pub struct FnSink<F: Fn(&TraceRecord) + Send + Sync> {
    f: F,
}

impl<F: Fn(&TraceRecord) + Send + Sync> FnSink<F> {
    /// Wraps `f` as a sink.
    pub fn new(f: F) -> Self {
        FnSink { f }
    }
}

impl<F: Fn(&TraceRecord) + Send + Sync> TraceSink for FnSink<F> {
    fn record(&self, record: &TraceRecord) {
        (self.f)(record);
    }
}

impl<F: Fn(&TraceRecord) + Send + Sync> std::fmt::Debug for FnSink<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("FnSink")
    }
}

/// Parses a JSONL trace document back into records (the inverse of
/// [`JsonlSink::to_jsonl`]); blank lines are skipped.
pub fn parse_jsonl(text: &str) -> Result<Vec<TraceRecord>, serde_json::Error> {
    text.lines()
        .filter(|line| !line.trim().is_empty())
        .map(serde_json::from_str)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<TraceRecord> {
        vec![
            TraceRecord::Span {
                path: "run/shard".to_string(),
                name: "shard".to_string(),
                start_ns: 100,
                dur_ns: 50,
                self_ns: 30,
                kvs: vec![kv("model", "GPT4o")],
            },
            TraceRecord::Event {
                name: "fault.injected".to_string(),
                at_ns: 120,
                kvs: vec![kv("kind", "timeout"), kv("question", "digital-001")],
            },
        ]
    }

    #[test]
    fn memory_sink_captures_and_filters() {
        let sink = MemorySink::new();
        for r in sample() {
            sink.record(&r);
        }
        assert_eq!(sink.len(), 2);
        assert_eq!(sink.named("fault.injected").len(), 1);
        assert_eq!(sink.named("fault.injected")[0].get("kind"), Some("timeout"));
        sink.clear();
        assert!(sink.is_empty());
    }

    #[test]
    fn jsonl_roundtrips() {
        let sink = JsonlSink::new();
        let records = sample();
        for r in &records {
            sink.record(r);
        }
        let text = sink.to_jsonl();
        assert_eq!(text.lines().count(), 2);
        let back = parse_jsonl(&text).expect("parses");
        assert_eq!(back, records);
    }

    #[test]
    fn write_to_writes_the_jsonl_document() {
        let sink = JsonlSink::new();
        for r in sample() {
            sink.record(&r);
        }
        let path = std::env::temp_dir().join(format!("jsonl-sink-{}.jsonl", std::process::id()));
        sink.write_to(&path).expect("trace written");
        let written = std::fs::read_to_string(&path).expect("trace read");
        std::fs::remove_file(&path).expect("trace removed");
        assert_eq!(written, sink.to_jsonl());
    }

    #[test]
    fn fn_sink_forwards_records() {
        let seen = std::sync::Arc::new(Mutex::new(Vec::new()));
        let sink = {
            let seen = std::sync::Arc::clone(&seen);
            FnSink::new(move |r: &TraceRecord| {
                lock(&seen).push(r.name().to_string());
            })
        };
        for r in sample() {
            sink.record(&r);
        }
        assert_eq!(
            *lock(&seen),
            vec!["shard".to_string(), "fault.injected".to_string()]
        );
    }

    #[test]
    fn parse_skips_blank_lines() {
        let sink = JsonlSink::new();
        for r in sample() {
            sink.record(&r);
        }
        let padded = format!("\n{}\n\n", sink.to_jsonl());
        assert_eq!(parse_jsonl(&padded).expect("parses").len(), 2);
    }
}
