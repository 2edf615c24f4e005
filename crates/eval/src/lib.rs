//! Evaluation harness for the ChipVQA reproduction.
//!
//! The paper uses a hybrid judge: GPT-4 checks response/gold equivalence,
//! with human checks for visually-entangled cases. This reproduction
//! substitutes a rule-based [`judge`] (documented in DESIGN.md):
//! normalisation plus per-answer-type equivalence — option letters for
//! multiple choice, tolerance-checked numbers with units, alias sets for
//! free text, and *semantic* boolean-expression equivalence through the
//! logic substrate. For machine-generated golds the rule judge is exact
//! where an LLM judge is approximate; the [`judge::Judge`] trait keeps
//! the seam where a model-based judge would plug in.
//!
//! [`harness`] runs models over collections and produces the per-category
//! pass@1 reports of Table II; [`resolution`] runs the §IV-B image
//! degradation study; [`noisy`] models an imperfect LLM auto-judge and
//! the paper's hybrid manual-override mechanism for robustness studies.
//!
//! For large runs, [`executor`] provides [`ParallelExecutor`], one
//! producer/worker shard engine whose reports are identical to the
//! sequential harness for any worker count, with an optional answer
//! [`cache`] (hits skip inference) and judge retry with majority vote;
//! [`checkpoint`] adds kill/resume for grid evaluations. The cache can
//! be backed by a persistent content-addressed [`store`] — an
//! append-only, checksummed, crash-recoverable on-disk tier — so reruns
//! warm-start across process restarts.
//!
//! For *in-run* resilience, [`fault`] provides a deterministic, seeded
//! fault-injection harness (timeouts, truncated/garbled responses,
//! rate-limit bursts, transient errors, worker panics) and
//! [`supervisor`] the recovery side: deadlines, bounded jittered
//! retries, per-model *windowed* circuit breakers, and panic isolation.
//! Supervision works on both the materialized grid path and streaming
//! intake ([`evaluate_spec_stream`](executor::ParallelExecutor::evaluate_spec_stream))
//! with byte-identical reports. Failures that exhaust recovery become a
//! structured [`EvalError`](supervisor::EvalError) on the outcome, and
//! reports carry explicit coverage/failure accounting so a degraded
//! report is visibly degraded rather than silently wrong.
//!
//! For horizontal scale-out, [`fleet`] turns N independent processes
//! into one cooperative run: workers claim shards through atomically
//! created lease files, share one [`store`] (opened shared) as the
//! common answer plane, steal the leases of dead, recycled, or stalled
//! workers, heal their quarantined shards, and commit per-shard records
//! that [`fleet::merge`] folds — after checking the run identity a
//! checkpoint of the same run would carry — into reports byte-identical
//! to a single-process run under any kill schedule.
//!
//! Every layer is instrumented through `chipvqa-telemetry`: attach a
//! [`Telemetry`](chipvqa_telemetry::Telemetry) handle via
//! [`ParallelExecutor::with_telemetry`](executor::ParallelExecutor::with_telemetry)
//! to collect spans, counters and structured events (cache traffic,
//! injected faults, breaker transitions, panics, degraded-run
//! accounting). The default handle is disabled and costs one branch per
//! call site; telemetry never changes results.
//!
//! # Example
//!
//! ```
//! use chipvqa_core::ChipVqa;
//! use chipvqa_eval::harness::{evaluate, EvalOptions};
//! use chipvqa_models::{ModelZoo, VlmPipeline};
//!
//! let bench = ChipVqa::standard();
//! let pipe = VlmPipeline::new(ModelZoo::gpt4o());
//! let report = evaluate(&pipe, &bench, EvalOptions::default());
//! assert!(report.overall() > 0.0 && report.overall() < 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod checkpoint;
pub mod executor;
pub mod fault;
pub mod fleet;
pub mod harness;
pub mod judge;
pub mod noisy;
pub mod normalize;
pub mod report;
pub mod resolution;
pub mod store;
pub mod supervisor;

pub use cache::{AnswerCache, CacheKey, CacheSnapshot, CacheStats, CachedAnswer};
pub use checkpoint::{Checkpoint, CheckpointError, RunIdentity, RunMismatch, ShardResult};
pub use executor::{ParallelExecutor, RetryPolicy, StreamStats};
pub use fault::{FaultInjector, FaultKind, FaultPlan};
pub use fleet::{FleetConfig, FleetError, FleetJob, FleetManifest, FleetOutcome};
pub use harness::{evaluate, EvalOptions, EvalReport};
pub use judge::{Judge, RuleJudge};
pub use noisy::{HybridJudge, NoisyJudge};
pub use store::{AnswerStore, StoreConfig, StoreMode, StoreStats};
pub use supervisor::{
    BreakerConfig, BreakerState, CircuitBreaker, EvalError, RecoveryPolicy, Supervisor,
    WindowedBreaker, BREAKER_WINDOW,
};
