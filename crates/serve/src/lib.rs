//! Resident evaluation service for the ChipVQA reproduction.
//!
//! Everything below PR 7 is batch: `table2` runs once and exits, fleet
//! workers coordinate through the filesystem. This crate is the serving
//! layer the ROADMAP's north star needs — a long-lived process that
//! accepts overlapping evaluation requests, applies backpressure, and
//! keeps the batch system's determinism guarantees:
//!
//! - [`session`] — the [`Session`](session::SessionRequest) abstraction:
//!   one request of (model set × `DatasetSpec` × `EvalOptions`) with the
//!   lifecycle Queued → Admitted → Running → {Done, Cancelled, Failed},
//!   cancellable and resumable with byte-identical reports.
//! - [`admission`] — bounded run queue, per-tenant running quotas and
//!   in-flight limits, and per-tenant circuit breakers; saturation sheds
//!   with structured [`ShedReason`]s instead of
//!   queueing unboundedly or hanging.
//! - [`service`] — [`EvalService`]: runner pool
//!   over [`ParallelExecutor`](chipvqa_eval::ParallelExecutor), shared
//!   answer-cache plane (optionally store-backed) for cross-session
//!   batching, heartbeat/stall detection, graceful drop-guard shutdown.
//! - [`progress`] — per-shard [`ProgressEvent`]
//!   stream sourced from the executor's existing telemetry spans.
//! - [`latency`] — p50/p95/p99 summaries the `chipvqa-load` generator
//!   writes to `BENCH_service.json`.

pub mod admission;
pub mod latency;
pub mod progress;
pub mod service;
pub mod session;

pub use admission::{AdmissionConfig, AdmissionController, AdmissionStats, ShedReason};
pub use latency::LatencySummary;
pub use progress::{ProgressEvent, ProgressHub};
pub use service::{EvalService, ServiceConfig, ServiceStats};
pub use session::{
    SessionError, SessionId, SessionReport, SessionRequest, SessionSnapshot, SessionState,
};
