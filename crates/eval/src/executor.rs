//! The shard engine: one producer/worker loop behind every evaluation.
//!
//! [`ParallelExecutor`] cuts a model×question grid into shards —
//! contiguous question ranges of one [`ShardSource`], either a
//! materialized bench cut at [`SHARD_SIZE`] or a [`DatasetSpec`]
//! generated lazily at a chosen shard length — and evaluates them on a
//! pool of scoped worker threads. The calling thread is the producer:
//! it walks the source in shard order, generating each spec shard once
//! however many models need it, and sends every selected (model, shard)
//! item through a bounded channel that idle workers pull from. Outcomes
//! come back keyed by [`ShardKey`] and merge **positionally**; because
//! the VLM pipeline is deterministic per (model, question, attempt), the
//! parallel report is *identical* — not just statistically equal — to
//! the sequential [`evaluate`](crate::harness::evaluate) result, for any
//! worker count.
//!
//! Every entry point is a thin caller that picks a source and a
//! selection: [`evaluate`](ParallelExecutor::evaluate) and
//! [`evaluate_grid`](ParallelExecutor::evaluate_grid) run a built bench
//! whole, [`evaluate_spec_stream`](ParallelExecutor::evaluate_spec_stream)
//! streams a spec for one model, checkpoint resume
//! ([`evaluate_checkpointed`](ParallelExecutor::evaluate_checkpointed))
//! runs the shards a [`Checkpoint`](crate::checkpoint::Checkpoint)
//! lacks, a fleet claim runs one shard, and
//! [`requeue_quarantined_stream`](ParallelExecutor::requeue_quarantined_stream)
//! runs the quarantined ones.
//!
//! Optional layers ride on the same loop:
//!
//! * an [`AnswerCache`] that memoises model answers across runs (a warm
//!   cache skips inference entirely and re-judges the stored answers),
//!   keyed with the source's dataset fingerprint so answers never cross
//!   collections;
//! * a [`RetryPolicy`] that re-queries a flaky judge (e.g.
//!   [`NoisyJudge`](crate::noisy::NoisyJudge)) several times per verdict
//!   and takes the majority, with seeded exponential backoff between
//!   attempts. The default policy (one attempt, no backoff) reproduces
//!   single-shot judging bit-for-bit;
//! * a [`Supervisor`] that hardens the run against infrastructure
//!   failure: per-call deadlines, bounded retries and a per-model
//!   windowed circuit breaker. The producer drives one
//!   [`WindowedBreaker`] per model in global question order, starting
//!   at the window that holds the model's first selected question, and
//!   ships each shard's admit decisions with the item, so decisions
//!   depend on neither worker count, shard length nor selection. With
//!   the all-zero [`FaultPlan`](crate::fault::FaultPlan) the supervised
//!   path is byte-identical to the unsupervised one.
//!
//! Every question runs under `catch_unwind`: a panic, injected or
//! genuine, becomes an [`EvalError::WorkerPanic`] outcome that
//! quarantines its shard instead of aborting the run.

use std::collections::BTreeSet;
use std::convert::Infallible;
use std::ops::Deref;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};

use chipvqa_core::question::Question;
use chipvqa_core::spec::{DatasetSpec, ShardStream};
use chipvqa_core::ChipVqa;
use chipvqa_models::backbone::AnswerPath;
use chipvqa_models::VlmPipeline;
use chipvqa_telemetry::{kv, Telemetry};
use serde::{Deserialize, Serialize};

use crate::cache::{AnswerCache, CacheKey, CachedAnswer};
use crate::harness::{EvalOptions, EvalReport, QuestionOutcome};
use crate::judge::{Judge, RuleJudge};
use crate::supervisor::{Admit, EvalError, Supervisor, WindowedBreaker, BREAKER_WINDOW};

/// How many questions one shard of a built bench covers. Small enough
/// that 8 workers on one 142-question model all stay busy, large enough
/// that shard bookkeeping is negligible against inference.
pub const SHARD_SIZE: usize = 16;

/// Judge retry behaviour for one verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Judge queries per verdict; the majority wins (ties fall to the
    /// first attempt, so `attempts = 1` is exactly single-shot judging).
    pub attempts: u64,
    /// Base backoff before each re-query, in milliseconds; attempt `i`
    /// waits `backoff_base_ms << (i - 1)` plus seeded jitter. Zero (the
    /// default) disables sleeping, which is right for in-process judges.
    pub backoff_base_ms: u64,
    /// Seed for the backoff jitter.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            attempts: 1,
            backoff_base_ms: 0,
            seed: 0,
        }
    }
}

impl RetryPolicy {
    /// Majority vote over `attempts` queries of a possibly-flaky judge.
    pub fn with_attempts(attempts: u64) -> Self {
        assert!(attempts >= 1, "at least one judge attempt required");
        RetryPolicy {
            attempts,
            ..RetryPolicy::default()
        }
    }

    /// Judges `response` under this policy.
    pub fn judged(&self, judge: &dyn Judge, question: &Question, response: &str) -> bool {
        let verdict = |attempt| Ok::<_, Infallible>(judge.verdict(question, response, attempt));
        self.vote(question, verdict)
            .unwrap_or_else(|never| match never {})
    }

    /// Majority vote over `attempts` verdicts drawn from `verdict`, with
    /// backoff between draws; the first error aborts the vote. Strict
    /// majority wins, ties fall to the first attempt.
    pub(crate) fn vote<E>(
        &self,
        question: &Question,
        mut verdict: impl FnMut(u64) -> Result<bool, E>,
    ) -> Result<bool, E> {
        let first = verdict(0)?;
        let mut yes = u64::from(first);
        for attempt in 1..self.attempts {
            backoff_sleep(self.backoff_base_ms, self.seed, &question.id, attempt);
            yes += u64::from(verdict(attempt)?);
        }
        Ok(if 2 * yes == self.attempts {
            first
        } else {
            2 * yes > self.attempts
        })
    }
}

/// Sleeps the backoff before retry `attempt` (>= 1): the base
/// `base_ms << (attempt - 1)` plus seeded jitter in `[0, base)`,
/// deterministic per (seed, question, attempt) so reruns sleep
/// identically. Zero `base_ms` disables sleeping. Shared by
/// [`RetryPolicy`] and the [`Supervisor`]'s recovery backoff.
pub(crate) fn backoff_sleep(base_ms: u64, seed: u64, question_id: &str, attempt: u64) {
    if base_ms == 0 {
        return;
    }
    let base = base_ms << (attempt - 1).min(16);
    let mut h = seed ^ 0x9e37_79b9_7f4a_7c15;
    for b in question_id.bytes().chain(attempt.to_le_bytes()) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    std::thread::sleep(std::time::Duration::from_millis(base + h % base));
}

/// One shard of a grid: a contiguous question range of one model — the
/// key outcomes come back under, and the stable identity checkpoints
/// and fleet records persist.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ShardKey {
    /// Model index in the grid.
    pub model_idx: usize,
    /// First question index (inclusive).
    pub q_start: usize,
    /// Last question index (exclusive).
    pub q_end: usize,
}

/// An indexed shard source: where an engine run's questions come from,
/// with the dataset fingerprint its answer-cache keys use.
#[derive(Debug, Clone, Copy)]
pub enum ShardSource<'a> {
    /// A materialized bench cut at [`SHARD_SIZE`], keyed with the given
    /// fingerprint: 0 for canonical collections such as
    /// [`ChipVqa::standard`], the spec's fingerprint for a bench built
    /// from a [`DatasetSpec`].
    Bench(&'a ChipVqa, u64),
    /// A spec generated lazily, shard by shard, at the given shard
    /// length (which must be positive), keyed with the spec's
    /// fingerprint.
    Spec(&'a DatasetSpec, usize),
}

impl ShardSource<'_> {
    /// Questions per shard (the last shard may be shorter).
    pub(crate) fn shard_len(&self) -> usize {
        match self {
            ShardSource::Bench(..) => SHARD_SIZE,
            ShardSource::Spec(_, shard_len) => *shard_len,
        }
    }

    /// Questions in the source.
    pub(crate) fn questions(&self) -> usize {
        match self {
            ShardSource::Bench(bench, _) => bench.len(),
            ShardSource::Spec(spec, _) => spec.total(),
        }
    }

    /// The dataset fingerprint answer-cache keys use.
    pub(crate) fn fingerprint(&self) -> u64 {
        match self {
            ShardSource::Bench(_, fingerprint) => *fingerprint,
            ShardSource::Spec(spec, _) => spec.fingerprint(),
        }
    }

    /// The shard plan of a `models`-model grid over this source, in
    /// canonical (model, question-range) order.
    pub fn plan(&self, models: usize) -> Vec<ShardKey> {
        let (questions, shard_len) = (self.questions(), self.shard_len());
        (0..models)
            .flat_map(|model_idx| {
                (0..questions)
                    .step_by(shard_len)
                    .map(move |q_start| ShardKey {
                        model_idx,
                        q_start,
                        q_end: (q_start + shard_len).min(questions),
                    })
            })
            .collect()
    }
}

/// Parallel evaluator producing sequential-identical reports.
///
/// Worker threads are scoped per call: every entry point joins its
/// workers before returning, so a driver that returns from (or stops
/// calling) the executor has no evaluation threads left running. The
/// resident service (`chipvqa-serve`) builds its cancel-at-shard-
/// boundary and graceful-shutdown guarantees directly on this property
/// plus the stop hook of
/// [`evaluate_checkpointed`](ParallelExecutor::evaluate_checkpointed).
#[derive(Debug, Clone)]
pub struct ParallelExecutor {
    workers: usize,
    retry: RetryPolicy,
    cache: Option<Arc<AnswerCache>>,
    supervisor: Option<Arc<Supervisor>>,
    telemetry: Telemetry,
}

impl ParallelExecutor {
    /// An executor with `workers` threads (clamped to at least one), no
    /// cache, single-shot judging, unsupervised execution, telemetry
    /// disabled.
    pub fn new(workers: usize) -> Self {
        ParallelExecutor {
            workers: workers.max(1),
            retry: RetryPolicy::default(),
            cache: None,
            supervisor: None,
            telemetry: Telemetry::disabled(),
        }
    }

    /// Attaches a shared answer cache; hits skip inference.
    pub fn with_cache(mut self, cache: Arc<AnswerCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Sets the judge retry policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        assert!(retry.attempts >= 1, "at least one judge attempt required");
        self.retry = retry;
        self
    }

    /// Attaches a [`Supervisor`]: per-call fault injection + recovery,
    /// circuit breaking, and panic isolation. A supervisor whose fault
    /// plan is all-zero leaves reports byte-identical to the
    /// unsupervised path.
    pub fn with_supervisor(mut self, supervisor: Supervisor) -> Self {
        self.supervisor = Some(Arc::new(supervisor));
        self
    }

    /// Attaches a [`Telemetry`] handle; every worker, the supervisor and
    /// the cache path report through it. The default is
    /// [`Telemetry::disabled`], which costs one branch per call site.
    /// Telemetry never influences results: reports stay byte-identical
    /// whether it is enabled or not.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The attached telemetry handle (disabled unless configured).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The attached cache, if any.
    pub fn cache(&self) -> Option<&Arc<AnswerCache>> {
        self.cache.as_ref()
    }

    /// The attached supervisor, if any.
    pub fn supervisor(&self) -> Option<&Arc<Supervisor>> {
        self.supervisor.as_ref()
    }

    /// A copy of this executor with the supervisor detached (cache,
    /// retry policy and telemetry are kept). The calm twin of a
    /// supervised executor: used by fleet healing to re-run a
    /// quarantined shard without fault injection, matching
    /// [`requeue_quarantined`](crate::checkpoint::Checkpoint::requeue_quarantined)
    /// semantics.
    pub fn unsupervised(&self) -> ParallelExecutor {
        ParallelExecutor {
            supervisor: None,
            ..self.clone()
        }
    }

    /// Evaluates one model with the default rule judge.
    pub fn evaluate(
        &self,
        pipe: &VlmPipeline,
        bench: &ChipVqa,
        options: EvalOptions,
    ) -> EvalReport {
        self.evaluate_with_judge(pipe, bench, options, &RuleJudge::new())
    }

    /// Evaluates one model with a caller-supplied judge.
    pub fn evaluate_with_judge(
        &self,
        pipe: &VlmPipeline,
        bench: &ChipVqa,
        options: EvalOptions,
        judge: &dyn Judge,
    ) -> EvalReport {
        self.evaluate_grid(std::slice::from_ref(pipe), bench, options, judge)
            .pop()
            .expect("one model")
    }

    /// Evaluates every model of a grid over `bench`, returning reports
    /// in model order. Cache keys treat `bench` as a canonical collection
    /// (fingerprint 0); a bench built from a [`DatasetSpec`] goes through
    /// [`evaluate_source`](Self::evaluate_source) with the spec's
    /// fingerprint instead.
    pub fn evaluate_grid(
        &self,
        pipes: &[VlmPipeline],
        bench: &ChipVqa,
        options: EvalOptions,
        judge: &dyn Judge,
    ) -> Vec<EvalReport> {
        self.evaluate_source(pipes, ShardSource::Bench(bench, 0), options, judge)
            .0
    }

    /// Evaluates every model of a grid over `source`: each source shard
    /// is produced once (generated, for a spec) and fanned out to every
    /// model. Returns reports in model order plus the run's
    /// [`StreamStats`].
    pub fn evaluate_source(
        &self,
        pipes: &[VlmPipeline],
        source: ShardSource<'_>,
        options: EvalOptions,
        judge: &dyn Judge,
    ) -> (Vec<EvalReport>, StreamStats) {
        let run = self.run(pipes, source, options, judge, &|_| true, &mut |_| false);
        let reports = merge_reports(pipes, source.questions(), run.outcomes);
        (self.finalize(reports), run.stats)
    }

    /// Streaming evaluation of a [`DatasetSpec`] for one model, judged by
    /// the default [`RuleJudge`] ([`evaluate_source`](Self::evaluate_source)
    /// takes any judge and any number of models): generation runs
    /// shard-by-shard on the calling thread, overlapped with inference
    /// on the worker pool, with answer-cache keys bound to the spec's
    /// fingerprint. Returns the report plus [`StreamStats`] whose
    /// `generator_peak_resident` records the [`ShardStream`]'s
    /// high-water mark
    /// ([`ShardStream::peak_resident`](chipvqa_core::spec::ShardStream::peak_resident)).
    ///
    /// # Panics
    ///
    /// Panics when `shard_len` is zero or when the spec is invalid.
    pub fn evaluate_spec_stream(
        &self,
        pipe: &VlmPipeline,
        spec: &DatasetSpec,
        shard_len: usize,
        options: EvalOptions,
    ) -> (EvalReport, StreamStats) {
        let source = ShardSource::Spec(spec, shard_len);
        let pipes = std::slice::from_ref(pipe);
        let (mut reports, stats) = self.evaluate_source(pipes, source, options, &RuleJudge::new());
        (reports.pop().expect("one model"), stats)
    }

    /// Heals a *streamed* supervised report, judged by the default
    /// [`RuleJudge`], the way
    /// [`requeue_quarantined`](crate::checkpoint::Checkpoint::requeue_quarantined)
    /// heals a checkpointed one: every shard containing a
    /// [`EvalError::WorkerPanic`] outcome is re-run *unsupervised* from
    /// the spec (the walk stops after the last quarantined shard; clean
    /// shards are generated but never evaluated), and the healed
    /// outcomes are patched back positionally. Returns the number of
    /// shards healed. `shard_len` must match the original streamed run,
    /// and `report` must cover the full spec.
    pub fn requeue_quarantined_stream(
        &self,
        pipe: &VlmPipeline,
        spec: &DatasetSpec,
        shard_len: usize,
        options: EvalOptions,
        report: &mut EvalReport,
    ) -> usize {
        assert!(shard_len > 0, "shard_len must be positive");
        assert_eq!(
            report.outcomes.len(),
            spec.total(),
            "report must cover the full spec"
        );
        let quarantined: BTreeSet<usize> = report
            .outcomes
            .iter()
            .enumerate()
            .filter(|(_, o)| o.error == Some(EvalError::WorkerPanic))
            .map(|(pos, _)| pos / shard_len * shard_len)
            .collect();
        if quarantined.is_empty() {
            return 0;
        }
        if self.telemetry.enabled() {
            self.telemetry
                .counter("stream.requeue.shards", quarantined.len() as u64);
        }
        let healed = self.unsupervised().run(
            std::slice::from_ref(pipe),
            ShardSource::Spec(spec, shard_len),
            options,
            &RuleJudge::new(),
            &|key| quarantined.contains(&key.q_start),
            &mut |_| false,
        );
        for (key, outcomes) in healed.outcomes {
            report.outcomes.splice(key.q_start..key.q_end, outcomes);
        }
        quarantined.len()
    }

    /// Stamps run metadata onto finished reports: the cache's traffic
    /// stats when a cache is attached. Results themselves are untouched.
    /// Also flushes the cache's persistent store (if one is attached),
    /// so a run that completes normally is durable on disk — the stats
    /// are read *after* the flush so `lifetime_*` counters include this
    /// run.
    pub(crate) fn finalize(&self, mut reports: Vec<EvalReport>) -> Vec<EvalReport> {
        if let Some(cache) = &self.cache {
            if let Err(e) = cache.flush_store() {
                self.telemetry
                    .event("store.flush_error", vec![kv("error", e.to_string())]);
            }
            let stats = cache.stats();
            for report in &mut reports {
                report.cache_stats = Some(stats);
            }
        }
        reports
    }

    /// The engine. The calling thread walks `source` in shard order and
    /// sends every (model, shard) item `select` picks through a bounded
    /// channel to the scoped workers; `stop` is polled before each
    /// dispatch with the number of items dispatched so far and ends the
    /// walk when it returns true (dispatched items still finish).
    /// Returns every dispatched item's outcomes, sorted by key.
    ///
    /// In-flight questions — queued in the channel plus held by workers —
    /// are tracked so the memory bound is observable, not aspirational:
    /// the peak never exceeds `(workers + channel capacity + 1) ×
    /// shard_len` = `(2·workers + 1) × shard_len`.
    ///
    /// Supervised, the producer drives each model's windowed breaker
    /// from the window holding its first selected question through the
    /// end of its last selected shard, deciding every question in order
    /// — selected or not — so each one gets the decision a full run
    /// gives it. A built bench's walk makes no clock-touching telemetry
    /// call: with one worker, one thread traces the whole run in
    /// dispatch order.
    pub(crate) fn run(
        &self,
        pipes: &[VlmPipeline],
        source: ShardSource<'_>,
        options: EvalOptions,
        judge: &dyn Judge,
        select: &dyn Fn(&ShardKey) -> bool,
        stop: &mut dyn FnMut(usize) -> bool,
    ) -> Run {
        let workers = self.workers;
        let tele = &self.telemetry;
        let _run_span = if tele.enabled() {
            tele.span_kv(
                "executor.stream",
                vec![kv("models", pipes.len()), kv("workers", workers)],
            )
        } else {
            tele.span("executor.stream")
        };
        let shard_len = source.shard_len();
        // each model's selected shard range (first, last); the walk ends
        // after the last selected shard of any model
        let mut ranges: Vec<Option<(usize, usize)>> = vec![None; pipes.len()];
        for key in source.plan(pipes.len()).iter().filter(|k| select(k)) {
            let shard = key.q_start / shard_len;
            ranges[key.model_idx].get_or_insert((shard, shard)).1 = shard;
        }
        let walk_end = ranges.iter().flatten().map(|&(_, last)| last + 1).max();
        let supervisor = self.supervisor.as_deref();
        let mut breakers: Vec<Option<WindowedBreaker>> = ranges
            .iter()
            .map(|range| {
                let (sup, (first, _)) = supervisor.zip(*range)?;
                Some(sup.stream_breaker_at(first * shard_len / BREAKER_WINDOW))
            })
            .collect();
        let fingerprints: Vec<u64> = pipes.iter().map(VlmPipeline::fingerprint).collect();
        let dataset_fp = source.fingerprint();
        // dropped however the run ends, emitting its lifetime gauges
        let mut producer = Producer {
            walk: match source {
                ShardSource::Bench(bench, _) => Walk::Bench(bench.questions().chunks(shard_len)),
                ShardSource::Spec(spec, shard_len) => Walk::Spec(spec.stream(shard_len)),
            },
            peak_in_flight: 0,
            exec: self,
        };
        let generated = matches!(producer.walk, Walk::Spec(_));

        let (tx, rx) = mpsc::sync_channel::<Item<'_>>(workers);
        // the workers own the receiver: if they all die, sends fail
        // instead of blocking the producer forever
        let rx = Arc::new(Mutex::new(rx));
        let in_flight = AtomicUsize::new(0);
        let results: Mutex<Vec<(ShardKey, Vec<QuestionOutcome>)>> = Mutex::new(Vec::new());
        let cache = self.cache.as_deref();
        let retry = self.retry;
        let mut stats = StreamStats::default();

        std::thread::scope(|scope| {
            for _ in 0..workers {
                let rx = Arc::clone(&rx);
                let (results, in_flight) = (&results, &in_flight);
                let fingerprints = &fingerprints;
                scope.spawn(move || loop {
                    let received = rx.lock().expect("engine receiver lock").recv();
                    let Ok((key, questions, admits)) = received else {
                        break;
                    };
                    let pipe = &pipes[key.model_idx];
                    let _shard_span = if tele.enabled() {
                        tele.span_kv(
                            "stream.shard",
                            vec![
                                kv("model", &pipe.profile().name),
                                kv("q_start", key.q_start),
                                kv("q_end", key.q_end),
                            ],
                        )
                    } else {
                        tele.span("stream.shard")
                    };
                    let outcomes: Vec<QuestionOutcome> = questions
                        .iter()
                        .enumerate()
                        .map(|(offset, q)| {
                            let _t = tele.timer("executor.question_ns");
                            let _q_span = tele.span("executor.question");
                            if let Some(admit) = admits.as_ref().map(|a| a[offset]) {
                                admit.report(tele, fingerprints[key.model_idx], &q.id);
                                if !admit.allowed {
                                    return failed_outcome(q, EvalError::BreakerOpen);
                                }
                            }
                            std::panic::catch_unwind(AssertUnwindSafe(|| {
                                eval_question(
                                    pipe, q, options, judge, &retry, cache, supervisor, tele,
                                    dataset_fp,
                                )
                            }))
                            .unwrap_or_else(|_| {
                                if tele.enabled() {
                                    tele.counter("executor.panic_caught", 1);
                                    tele.event("worker.panic", vec![kv("question", &q.id)]);
                                }
                                failed_outcome(q, EvalError::WorkerPanic)
                            })
                        })
                        .collect();
                    in_flight.fetch_sub(questions.len(), Ordering::Relaxed);
                    tele.counter("stream.shard_evaluated", 1);
                    results
                        .lock()
                        .expect("engine results lock")
                        .push((key, outcomes));
                });
            }

            drop(rx);
            // the calling thread is the producer: generation (and,
            // supervised, breaker admission) overlaps the workers'
            // inference
            let mut dispatched = 0usize;
            'walk: for shard in 0..walk_end.unwrap_or(0) {
                let Some(questions) = producer.next_shard() else {
                    break;
                };
                stats.shards += 1;
                stats.questions += questions.len();
                if tele.enabled() {
                    tele.counter("stream.shard_generated", 1);
                    tele.counter("stream.questions", questions.len() as u64);
                }
                let q_start = shard * shard_len;
                for (model_idx, range) in ranges.iter().enumerate() {
                    let Some((_, last)) = *range else { continue };
                    if shard > last {
                        continue;
                    }
                    let admits = breakers[model_idx].as_mut().map(|wb| {
                        let _b_span = generated.then(|| tele.span("stream.breaker"));
                        let sup = supervisor.expect("breakers exist only when supervised");
                        // questions before the breaker's first window
                        // belong to no selected shard
                        let skip = wb.next_index().saturating_sub(q_start);
                        questions[skip.min(questions.len())..]
                            .iter()
                            .map(|q| sup.decide(wb, fingerprints[model_idx], &q.id))
                            .collect::<Vec<Admit>>()
                    });
                    let key = ShardKey {
                        model_idx,
                        q_start,
                        q_end: q_start + questions.len(),
                    };
                    if !select(&key) {
                        continue;
                    }
                    if stop(dispatched) {
                        break 'walk;
                    }
                    let now =
                        in_flight.fetch_add(questions.len(), Ordering::Relaxed) + questions.len();
                    producer.peak_in_flight = producer.peak_in_flight.max(now);
                    if tx.send((key, questions.clone(), admits)).is_err() {
                        break 'walk; // every worker died; the scope re-raises its panic
                    }
                    dispatched += 1;
                }
            }
            drop(tx); // closes the channel; workers drain and exit
        });

        let mut outcomes = results.into_inner().expect("engine results lock");
        outcomes.sort_by_key(|&(key, _)| (key.model_idx, key.q_start));
        stats.peak_in_flight = producer.peak_in_flight;
        if let Walk::Spec(stream) = &producer.walk {
            stats.generator_peak_resident = Some(stream.peak_resident());
        }
        stats.quarantined_shards = outcomes
            .iter()
            .filter(|(_, o)| o.iter().any(|o| o.error == Some(EvalError::WorkerPanic)))
            .count();
        Run { outcomes, stats }
    }
}

/// What one engine run produced: every dispatched item's outcomes,
/// sorted by key, and the run's stream stats.
pub(crate) struct Run {
    pub(crate) outcomes: Vec<(ShardKey, Vec<QuestionOutcome>)>,
    pub(crate) stats: StreamStats,
}

/// One unit of work: a selected (model, shard) pair, with the shard's
/// breaker decisions when supervised.
type Item<'a> = (ShardKey, ShardQuestions<'a>, Option<Vec<Admit>>);

/// A shard's questions as workers see them: borrowed from a built
/// bench, or a generated shard shared by every model that needs it.
#[derive(Clone)]
enum ShardQuestions<'a> {
    Borrowed(&'a [Question]),
    Generated(Arc<Vec<Question>>),
}

impl Deref for ShardQuestions<'_> {
    type Target = [Question];

    fn deref(&self) -> &[Question] {
        match self {
            ShardQuestions::Borrowed(questions) => questions,
            ShardQuestions::Generated(questions) => questions,
        }
    }
}

/// The producer's side of one run: its walk over the source and the
/// in-flight high-water mark. Dropping it emits the run's lifetime
/// gauges — `stream.peak_in_flight`, the generator-side
/// `stream.peak_resident` of a spec walk, and the attached cache's
/// `cache.lifetime_hits` / `cache.lifetime_misses` — however the run
/// ends: a panic on the producer thread (a stop hook, say) unwinds
/// through the engine, and emissions after the unwind point would be
/// lost.
struct Producer<'a> {
    walk: Walk<'a>,
    peak_in_flight: usize,
    exec: &'a ParallelExecutor,
}

/// A built bench's shards are slices of it; a spec's are generated.
enum Walk<'a> {
    Bench(std::slice::Chunks<'a, Question>),
    Spec(ShardStream),
}

impl<'a> Producer<'a> {
    /// The walk's next shard; generating a spec shard is timed
    /// (`stream.generate`).
    fn next_shard(&mut self) -> Option<ShardQuestions<'a>> {
        match &mut self.walk {
            Walk::Bench(chunks) => chunks.next().map(ShardQuestions::Borrowed),
            Walk::Spec(stream) => {
                let _t = self.exec.telemetry.timer("stream.generate_ns");
                let _g_span = self.exec.telemetry.span("stream.generate");
                stream
                    .next()
                    .map(|shard| ShardQuestions::Generated(Arc::new(shard)))
            }
        }
    }
}

impl Drop for Producer<'_> {
    fn drop(&mut self) {
        let tele = &self.exec.telemetry;
        if !tele.enabled() {
            return;
        }
        tele.gauge("stream.peak_in_flight", self.peak_in_flight as f64);
        if let Walk::Spec(stream) = &self.walk {
            tele.gauge("stream.peak_resident", stream.peak_resident() as f64);
        }
        if let Some(cache) = &self.exec.cache {
            let stats = cache.stats();
            tele.gauge("cache.lifetime_hits", stats.lifetime_hits as f64);
            tele.gauge("cache.lifetime_misses", stats.lifetime_misses as f64);
        }
    }
}

/// Observability of one engine run: how much of the source was walked
/// and the high-water marks that certify the memory bound.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StreamStats {
    /// Source shards walked (generated, for a spec).
    pub shards: usize,
    /// Questions walked.
    pub questions: usize,
    /// Peak questions in flight inside the executor: queued in the
    /// bounded channel plus held by workers. Bounded by
    /// `(2·workers + 1) × shard_len`.
    pub peak_in_flight: usize,
    /// The generator-side high-water mark
    /// ([`ShardStream::peak_resident`](chipvqa_core::spec::ShardStream::peak_resident)),
    /// recorded for spec sources; `None` for built benches.
    pub generator_peak_resident: Option<usize>,
    /// Shards containing at least one
    /// [`EvalError::WorkerPanic`] outcome — the ones
    /// [`requeue_quarantined_stream`](ParallelExecutor::requeue_quarantined_stream)
    /// would heal. Zero on unsupervised runs without genuine panics.
    #[serde(default)]
    pub quarantined_shards: usize,
}

/// Folds keyed shard outcomes into one report per model, question order
/// restored positionally. Every shard of the `questions`-question grid
/// must be present exactly once.
pub(crate) fn merge_reports(
    pipes: &[VlmPipeline],
    questions: usize,
    mut shards: Vec<(ShardKey, Vec<QuestionOutcome>)>,
) -> Vec<EvalReport> {
    shards.sort_by_key(|&(key, _)| (key.model_idx, key.q_start));
    let mut reports: Vec<EvalReport> = pipes
        .iter()
        .map(|pipe| EvalReport {
            model: pipe.profile().name.clone(),
            outcomes: Vec::with_capacity(questions),
            cache_stats: None,
        })
        .collect();
    for (key, outcomes) in shards {
        let report = &mut reports[key.model_idx];
        assert_eq!(report.outcomes.len(), key.q_start, "shards tile the grid");
        assert_eq!(outcomes.len(), key.q_end - key.q_start, "shard shape");
        report.outcomes.extend(outcomes);
    }
    for report in &reports {
        assert_eq!(report.outcomes.len(), questions, "grid fully covered");
    }
    reports
}

/// Exactly the sequential harness's per-question loop, with the cache
/// interposed before inference and the retry policy around the judge.
/// Supervised, every inference and judge call goes through the
/// supervisor's fault injection + recovery, and the first terminal
/// failure at any site aborts the question with a structured error
/// (degraded truncated/garbled evidence is kept as the recorded
/// response). `dataset_fp` keys the cache to the source's dataset (0 =
/// canonical).
#[allow(clippy::too_many_arguments)]
fn eval_question(
    pipe: &VlmPipeline,
    q: &Question,
    options: EvalOptions,
    judge: &dyn Judge,
    retry: &RetryPolicy,
    cache: Option<&AnswerCache>,
    sup: Option<&Supervisor>,
    tele: &Telemetry,
    dataset_fp: u64,
) -> QuestionOutcome {
    let fingerprint = pipe.fingerprint();
    let mut passed = false;
    let mut first_response = String::new();
    let mut first_path = AnswerPath::Failed;
    let mut error = None;
    for attempt in 0..options.attempts.max(1) {
        let downsample = options.downsample;
        let answer = match sup {
            Some(sup) => sup.infer(pipe, q, downsample, attempt, cache, tele, dataset_fp),
            None => Ok(infer_cached_for(
                pipe, q, downsample, attempt, cache, tele, dataset_fp,
            )),
        };
        let answer = match answer {
            Ok(answer) => answer,
            Err((e, degraded)) => {
                if attempt == 0 {
                    if let Some(text) = degraded {
                        first_response = text;
                    }
                }
                error = Some(e);
                break;
            }
        };
        if attempt == 0 {
            first_response = answer.text.clone();
            first_path = answer.path;
        }
        let judged = {
            let _span = tele.span("judge");
            let response = answer.text.as_str();
            match sup {
                Some(sup) => retry.vote(q, |attempt| {
                    sup.verdict(judge, fingerprint, q, response, attempt, tele)
                }),
                None => retry.vote(q, |attempt| Ok(judge.verdict(q, response, attempt))),
            }
        };
        match judged {
            Ok(true) => {
                passed = true;
                break;
            }
            Ok(false) => {}
            Err(e) => {
                error = Some(e);
                break;
            }
        }
    }
    let passed = passed && error.is_none();
    if error.is_none() {
        note_verdict(tele, q, passed);
    }
    QuestionOutcome {
        id: q.id.clone(),
        category: q.category,
        passed,
        response: first_response,
        path: first_path,
        error,
    }
}

/// Counts one final verdict, bucketed by answer type:
/// `judge.verdict.{multiple-choice|short-answer}.{pass|fail}`.
fn note_verdict(tele: &Telemetry, q: &Question, passed: bool) {
    if !tele.enabled() {
        return;
    }
    let name = match (q.is_multiple_choice(), passed) {
        (true, true) => "judge.verdict.multiple-choice.pass",
        (true, false) => "judge.verdict.multiple-choice.fail",
        (false, true) => "judge.verdict.short-answer.pass",
        (false, false) => "judge.verdict.short-answer.fail",
    };
    tele.counter(name, 1);
}

fn failed_outcome(q: &Question, error: EvalError) -> QuestionOutcome {
    QuestionOutcome {
        id: q.id.clone(),
        category: q.category,
        passed: false,
        response: String::new(),
        path: AnswerPath::Failed,
        error: Some(error),
    }
}

/// Cache-interposed inference, keyed to a spec fingerprint so answers
/// for spec-generated collections never cross specs (0 = canonical).
pub(crate) fn infer_cached_for(
    pipe: &VlmPipeline,
    q: &Question,
    downsample: usize,
    attempt: u64,
    cache: Option<&AnswerCache>,
    tele: &Telemetry,
    dataset_fp: u64,
) -> CachedAnswer {
    let Some(cache) = cache else {
        let _span = tele.span("inference");
        return CachedAnswer::from(&pipe.infer(q, downsample, attempt));
    };
    let key = CacheKey::for_dataset(pipe.fingerprint(), dataset_fp, q, downsample, attempt);
    if let Some(hit) = cache.lookup(&key) {
        tele.counter("cache.hit", 1);
        return hit;
    }
    tele.counter("cache.miss", 1);
    let answer = {
        let _span = tele.span("inference");
        CachedAnswer::from(&pipe.infer(q, downsample, attempt))
    };
    cache.insert(key, answer.clone());
    tele.counter("cache.insert", 1);
    answer
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::evaluate_with_judge;
    use crate::noisy::NoisyJudge;
    use chipvqa_models::ModelZoo;

    #[test]
    fn parallel_matches_sequential_exactly() {
        let bench = ChipVqa::standard();
        let pipe = VlmPipeline::new(ModelZoo::gpt4o());
        let seq = crate::harness::evaluate(&pipe, &bench, EvalOptions::default());
        for workers in [1, 3, 8] {
            let par =
                ParallelExecutor::new(workers).evaluate(&pipe, &bench, EvalOptions::default());
            assert_eq!(seq, par, "workers = {workers}");
        }
    }

    #[test]
    fn cache_is_semantically_transparent() {
        let bench = ChipVqa::standard();
        let pipe = VlmPipeline::new(ModelZoo::llava_13b());
        let cache = Arc::new(AnswerCache::new());
        let exec = ParallelExecutor::new(4).with_cache(Arc::clone(&cache));

        let cold = exec.evaluate(&pipe, &bench, EvalOptions::default());
        assert_eq!(cache.hits(), 0, "cold run cannot hit");
        assert_eq!(cache.len(), bench.len());

        let warm = exec.evaluate(&pipe, &bench, EvalOptions::default());
        assert_eq!(cold, warm, "warm report identical");
        assert_eq!(cache.hits() as usize, bench.len(), "warm run all hits");

        let seq = crate::harness::evaluate(&pipe, &bench, EvalOptions::default());
        assert_eq!(seq, warm, "cache never changes results");
    }

    #[test]
    fn default_retry_is_single_shot() {
        let bench = ChipVqa::standard();
        let pipe = VlmPipeline::new(ModelZoo::fuyu_8b());
        let judge = NoisyJudge::new(RuleJudge::new(), 0.05, 9);
        let seq = evaluate_with_judge(&pipe, &bench, EvalOptions::default(), &judge);
        let par = ParallelExecutor::new(4).evaluate_with_judge(
            &pipe,
            &bench,
            EvalOptions::default(),
            &judge,
        );
        assert_eq!(seq, par);
    }

    #[test]
    fn majority_vote_tames_a_flaky_judge() {
        let bench = ChipVqa::standard();
        let pipe = VlmPipeline::new(ModelZoo::gpt4o());
        let clean = crate::harness::evaluate(&pipe, &bench, EvalOptions::default());
        let flaky = NoisyJudge::new(RuleJudge::new(), 0.10, 3);

        let single = ParallelExecutor::new(4).evaluate_with_judge(
            &pipe,
            &bench,
            EvalOptions::default(),
            &flaky,
        );
        let voted = ParallelExecutor::new(4)
            .with_retry(RetryPolicy::with_attempts(5))
            .evaluate_with_judge(&pipe, &bench, EvalOptions::default(), &flaky);

        let disagree = |a: &EvalReport, b: &EvalReport| {
            a.outcomes
                .iter()
                .zip(&b.outcomes)
                .filter(|(x, y)| x.passed != y.passed)
                .count()
        };
        let err_single = disagree(&clean, &single);
        let err_voted = disagree(&clean, &voted);
        assert!(
            err_voted < err_single,
            "majority vote must reduce flips: {err_voted} vs {err_single}"
        );
    }

    #[test]
    fn grid_reports_match_per_model_runs() {
        let bench = ChipVqa::standard();
        let pipes: Vec<VlmPipeline> = [
            ModelZoo::gpt4o(),
            ModelZoo::llava_7b(),
            ModelZoo::kosmos_2(),
        ]
        .into_iter()
        .map(VlmPipeline::new)
        .collect();
        let exec = ParallelExecutor::new(6);
        let grid = exec.evaluate_grid(&pipes, &bench, EvalOptions::default(), &RuleJudge::new());
        assert_eq!(grid.len(), pipes.len());
        for (pipe, report) in pipes.iter().zip(&grid) {
            let solo = crate::harness::evaluate(pipe, &bench, EvalOptions::default());
            assert_eq!(&solo, report);
        }
    }

    #[test]
    fn shard_plan_covers_grid_exactly_once() {
        let bench = ChipVqa::standard();
        let shards = ShardSource::Bench(&bench, 0).plan(3);
        let mut seen = vec![vec![0u8; 142]; 3];
        for s in &shards {
            #[allow(clippy::needless_range_loop)]
            for qi in s.q_start..s.q_end {
                seen[s.model_idx][qi] += 1;
            }
        }
        assert!(seen.iter().flatten().all(|&n| n == 1));
    }

    #[test]
    fn supervised_zero_plan_is_byte_identical() {
        use crate::fault::FaultPlan;
        let bench = ChipVqa::standard();
        let pipe = VlmPipeline::new(ModelZoo::llava_llama3());
        let plain = ParallelExecutor::new(4).evaluate(&pipe, &bench, EvalOptions::default());
        let supervised = ParallelExecutor::new(4)
            .with_supervisor(Supervisor::new(FaultPlan::none()))
            .evaluate(&pipe, &bench, EvalOptions::default());
        assert_eq!(plain, supervised);
        assert_eq!(
            serde_json::to_string(&plain).expect("serializes"),
            serde_json::to_string(&supervised).expect("serializes"),
            "byte-identical, not just structurally equal"
        );
        assert!(!supervised.is_degraded());
        assert_eq!(supervised.answered(), bench.len());
    }

    #[test]
    fn chaos_run_is_worker_count_invariant_and_accounted() {
        use crate::fault::{install_quiet_panic_hook, FaultPlan};
        install_quiet_panic_hook();
        let bench = ChipVqa::standard();
        let pipe = VlmPipeline::new(ModelZoo::phi3_vision());
        let sup = || Supervisor::new(FaultPlan::uniform(902, 0.03));
        let reference = ParallelExecutor::new(1).with_supervisor(sup()).evaluate(
            &pipe,
            &bench,
            EvalOptions::default(),
        );
        assert!(reference.is_degraded(), "3% x 6 kinds must hit something");
        assert_eq!(
            reference.answered() + reference.failed() + reference.breaker_skipped(),
            bench.len(),
            "accounting covers every question"
        );
        for workers in [2usize, 8] {
            let par = ParallelExecutor::new(workers)
                .with_supervisor(sup())
                .evaluate(&pipe, &bench, EvalOptions::default());
            assert_eq!(reference, par, "workers = {workers}");
        }
    }

    #[test]
    fn broken_model_is_shed_without_contaminating_the_grid() {
        use crate::fault::FaultPlan;
        let bench = ChipVqa::standard();
        let pipes: Vec<VlmPipeline> = [ModelZoo::gpt4o(), ModelZoo::fuyu_8b()]
            .into_iter()
            .map(VlmPipeline::new)
            .collect();
        let broken = pipes[1].fingerprint();
        let exec = ParallelExecutor::new(4)
            .with_supervisor(Supervisor::new(FaultPlan::none().with_broken_model(broken)));
        let grid = exec.evaluate_grid(&pipes, &bench, EvalOptions::default(), &RuleJudge::new());

        // the healthy model is untouched — byte-identical to a clean run
        let clean = crate::harness::evaluate(&pipes[0], &bench, EvalOptions::default());
        assert_eq!(grid[0], clean);

        // the broken model is mostly shed by its breaker, explicitly
        let report = &grid[1];
        assert!(report.breaker_skipped() > bench.len() / 2);
        assert_eq!(report.answered(), 0, "a dead backend answers nothing");
        assert_eq!(
            report.answered() + report.failed() + report.breaker_skipped(),
            bench.len()
        );
        assert_eq!(report.overall(), 0.0);
        let breakdown = report.failure_breakdown();
        assert!(breakdown.contains_key("transient"));
        assert!(breakdown.contains_key("breaker-open"));
    }

    #[test]
    fn injected_panics_are_quarantined_not_fatal() {
        use crate::fault::{install_quiet_panic_hook, FaultPlan};
        use crate::supervisor::EvalError;
        install_quiet_panic_hook();
        let bench = ChipVqa::standard();
        let pipe = VlmPipeline::new(ModelZoo::paligemma());
        let exec = ParallelExecutor::new(4).with_supervisor(Supervisor::new(FaultPlan {
            panic_rate: 0.10,
            ..FaultPlan::none()
        }));
        // must complete despite ~14 worker crashes
        let report = exec.evaluate(&pipe, &bench, EvalOptions::default());
        let panics = report
            .outcomes
            .iter()
            .filter(|o| o.error == Some(EvalError::WorkerPanic))
            .count();
        assert!(panics > 0, "panics were injected");
        assert_eq!(report.outcomes.len(), bench.len(), "no question lost");
        assert_eq!(report.failed(), panics);
    }

    #[test]
    fn enabled_telemetry_never_changes_reports() {
        let bench = ChipVqa::standard();
        let pipe = VlmPipeline::new(ModelZoo::gpt4o());
        let plain = ParallelExecutor::new(4).evaluate(&pipe, &bench, EvalOptions::default());
        let tele = Telemetry::recording();
        let traced = ParallelExecutor::new(4)
            .with_telemetry(tele.clone())
            .evaluate(&pipe, &bench, EvalOptions::default());
        assert_eq!(plain, traced);
        assert_eq!(
            serde_json::to_string(&plain).expect("serializes"),
            serde_json::to_string(&traced).expect("serializes"),
            "telemetry must be invisible in the serialized report"
        );
        let snap = tele.snapshot();
        assert_eq!(snap.spans["executor.stream"].count, 1);
        let verdicts: u64 = snap
            .counters
            .iter()
            .filter(|(name, _)| name.starts_with("judge.verdict."))
            .map(|(_, n)| n)
            .sum();
        assert_eq!(verdicts as usize, bench.len(), "one verdict per question");
        assert_eq!(
            snap.histograms["executor.question_ns"].count as usize,
            bench.len()
        );
    }

    #[test]
    fn cache_traffic_shows_up_in_counters_and_report_stats() {
        let bench = ChipVqa::standard();
        let pipe = VlmPipeline::new(ModelZoo::neva_22b());
        let cache = Arc::new(AnswerCache::new());
        let tele = Telemetry::recording();
        let exec = ParallelExecutor::new(2)
            .with_cache(Arc::clone(&cache))
            .with_telemetry(tele.clone());
        let cold = exec.evaluate(&pipe, &bench, EvalOptions::default());
        let warm = exec.evaluate(&pipe, &bench, EvalOptions::default());
        let snap = tele.snapshot();
        assert_eq!(snap.counters["cache.miss"] as usize, bench.len());
        assert_eq!(snap.counters["cache.insert"] as usize, bench.len());
        assert_eq!(snap.counters["cache.hit"] as usize, bench.len());
        // spans are hierarchical: inference nests under the worker's
        // shard/question spans
        assert_eq!(
            snap.spans["stream.shard/executor.question/inference"].count as usize,
            bench.len()
        );

        // the report carries the cache's cumulative stats at merge time
        let cold_stats = cold.cache_stats.expect("cache attached");
        assert_eq!(cold_stats.hits, 0);
        assert_eq!(cold_stats.misses as usize, bench.len());
        let warm_stats = warm.cache_stats.expect("cache attached");
        assert_eq!(warm_stats.hits as usize, bench.len());
        assert_eq!(warm_stats, cache.stats());
    }

    #[test]
    fn streamed_standard_bench_matches_batch_evaluation() {
        let bench = ChipVqa::standard();
        let pipe = VlmPipeline::new(ModelZoo::gpt4o());
        let batch = crate::harness::evaluate(&pipe, &bench, EvalOptions::default());
        for workers in [1usize, 4] {
            let (streamed, stats) = ParallelExecutor::new(workers).evaluate_spec_stream(
                &pipe,
                &DatasetSpec::default(),
                SHARD_SIZE,
                EvalOptions::default(),
            );
            assert_eq!(batch, streamed, "workers = {workers}");
            assert_eq!(stats.questions, bench.len());
            assert_eq!(stats.shards, bench.len().div_ceil(SHARD_SIZE));
            assert!(stats.peak_in_flight <= (2 * workers + 1) * SHARD_SIZE);
        }
    }

    #[test]
    fn spec_stream_keys_cache_on_spec_fingerprint() {
        use chipvqa_core::spec::DatasetSpec;
        let pipe = VlmPipeline::new(ModelZoo::llava_7b());
        let cache = Arc::new(AnswerCache::new());
        let exec = ParallelExecutor::new(2).with_cache(Arc::clone(&cache));
        let spec = DatasetSpec::default();
        let (_, _) = exec.evaluate_spec_stream(&pipe, &spec, 16, EvalOptions::default());
        let snapshot = cache.snapshot();
        assert!(!snapshot.entries.is_empty());
        assert!(
            snapshot
                .entries
                .iter()
                .all(|(k, _)| k.dataset_fingerprint == spec.fingerprint()),
            "streamed entries are bound to the spec"
        );
        // the canonical batch path uses fingerprint 0, so the same
        // questions miss rather than crossing specs
        let before = cache.len();
        exec.evaluate(&pipe, &ChipVqa::standard(), EvalOptions::default());
        assert_eq!(cache.len(), 2 * before, "no cross-spec hits");
    }

    #[test]
    fn supervised_streaming_matches_supervised_batch() {
        use crate::fault::{install_quiet_panic_hook, FaultPlan};
        install_quiet_panic_hook();
        let pipe = VlmPipeline::new(ModelZoo::gpt4o());
        let spec = DatasetSpec::scaled(1);
        let bench = spec.build();
        let sup = || Supervisor::new(FaultPlan::uniform(902, 0.03));
        let batch = ParallelExecutor::new(2).with_supervisor(sup()).evaluate(
            &pipe,
            &bench,
            EvalOptions::default(),
        );
        assert!(batch.is_degraded(), "the plan must hit something");
        for workers in [1usize, 4] {
            let supervised = ParallelExecutor::new(workers).with_supervisor(sup());
            let (streamed, stats) =
                supervised.evaluate_spec_stream(&pipe, &spec, SHARD_SIZE, EvalOptions::default());
            assert_eq!(
                serde_json::to_string(&batch).expect("serializes"),
                serde_json::to_string(&streamed).expect("serializes"),
                "workers = {workers}"
            );
            assert_eq!(stats.questions, spec.total());
        }
    }

    #[test]
    fn supervised_stream_zero_plan_matches_unsupervised_stream() {
        use crate::fault::FaultPlan;
        let pipe = VlmPipeline::new(ModelZoo::gpt4o());
        let spec = DatasetSpec::scaled(1);
        let calm = ParallelExecutor::new(2);
        let (plain, _) =
            calm.evaluate_spec_stream(&pipe, &spec, SHARD_SIZE, EvalOptions::default());
        let supervised = calm
            .clone()
            .with_supervisor(Supervisor::new(FaultPlan::none()));
        let (zero, stats) =
            supervised.evaluate_spec_stream(&pipe, &spec, SHARD_SIZE, EvalOptions::default());
        assert_eq!(
            serde_json::to_string(&plain).expect("serializes"),
            serde_json::to_string(&zero).expect("serializes"),
            "zero-plan supervised streaming is byte-identical to unsupervised"
        );
        assert_eq!(stats.quarantined_shards, 0);
        // detaching the supervisor (the fleet healing path) still works
        let detached = supervised.unsupervised();
        assert!(detached.supervisor().is_none());
        let (report, _) =
            detached.evaluate_spec_stream(&pipe, &spec, SHARD_SIZE, EvalOptions::default());
        assert_eq!(report.outcomes.len(), spec.total());
    }

    #[test]
    fn streamed_quarantine_heals_by_requeue() {
        use crate::fault::{install_quiet_panic_hook, FaultPlan};
        install_quiet_panic_hook();
        let pipe = VlmPipeline::new(ModelZoo::paligemma());
        let spec = DatasetSpec::scaled(1);
        let clean = ParallelExecutor::new(4).evaluate(&pipe, &spec.build(), EvalOptions::default());
        let exec = ParallelExecutor::new(4).with_supervisor(Supervisor::new(FaultPlan {
            panic_rate: 0.08,
            ..FaultPlan::none()
        }));
        let (mut report, stats) =
            exec.evaluate_spec_stream(&pipe, &spec, SHARD_SIZE, EvalOptions::default());
        assert!(stats.quarantined_shards > 0, "panics were injected");
        let healed = exec.requeue_quarantined_stream(
            &pipe,
            &spec,
            SHARD_SIZE,
            EvalOptions::default(),
            &mut report,
        );
        assert_eq!(healed, stats.quarantined_shards);
        report.cache_stats = None;
        assert_eq!(
            serde_json::to_string(&clean).expect("serializes"),
            serde_json::to_string(&report).expect("serializes"),
            "healed streamed report converges to the clean bytes"
        );
        // a clean report heals nothing
        let mut untouched = report.clone();
        assert_eq!(
            exec.requeue_quarantined_stream(
                &pipe,
                &spec,
                SHARD_SIZE,
                EvalOptions::default(),
                &mut untouched
            ),
            0
        );
    }

    #[test]
    fn stream_gauges_survive_a_producer_panic() {
        use crate::fault::install_quiet_panic_hook;
        install_quiet_panic_hook();
        let bench = ChipVqa::standard();
        let pipe = VlmPipeline::new(ModelZoo::gpt4o());
        let cache = Arc::new(AnswerCache::new());
        let tele = Telemetry::recording();
        let exec = ParallelExecutor::new(2)
            .with_cache(Arc::clone(&cache))
            .with_telemetry(tele.clone());
        // the producer thread dies mid-walk, after two dispatches
        let mut stop = |dispatched: usize| {
            if dispatched == 2 {
                panic!("producer exploded mid-walk");
            }
            false
        };
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let mut ckpt = crate::checkpoint::Checkpoint::new(
                std::slice::from_ref(&pipe),
                &bench,
                EvalOptions::default(),
            );
            exec.evaluate_checkpointed(
                std::slice::from_ref(&pipe),
                ShardSource::Bench(&bench, 0),
                EvalOptions::default(),
                &RuleJudge::new(),
                &mut ckpt,
                &mut stop,
            )
        }));
        assert!(caught.is_err(), "the producer panic propagates");
        // the drop-guard emitted the lifetime gauges despite the unwind
        let snap = tele.snapshot();
        assert!(
            snap.gauges["stream.peak_in_flight"] >= SHARD_SIZE as f64,
            "peak gauge emitted on the unwind path"
        );
        let stats = cache.stats();
        assert_eq!(
            snap.gauges["cache.lifetime_misses"],
            stats.lifetime_misses as f64
        );
        assert_eq!(
            snap.gauges["cache.lifetime_hits"],
            stats.lifetime_hits as f64
        );
    }

    #[test]
    fn dead_workers_fail_the_run_instead_of_hanging_the_producer() {
        use crate::fault::{install_quiet_panic_hook, InjectedPanic};
        use chipvqa_telemetry::{FnSink, TraceRecord};
        install_quiet_panic_hook();
        // a sink that panics outside per-question isolation kills every
        // worker after its first shard, with shards still to dispatch
        let sink = FnSink::new(|record: &TraceRecord| {
            if record.name() == "stream.shard" {
                std::panic::panic_any(InjectedPanic {
                    fingerprint: 0,
                    question_id: String::new(),
                });
            }
        });
        let exec = ParallelExecutor::new(2)
            .with_telemetry(Telemetry::builder().sink(Arc::new(sink)).build());
        let pipe = VlmPipeline::new(ModelZoo::gpt4o());
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            exec.evaluate(&pipe, &ChipVqa::standard(), EvalOptions::default())
        }));
        assert!(caught.is_err(), "the worker panic propagates");
    }

    #[test]
    fn tie_votes_fall_to_first_attempt() {
        struct AlternatingJudge;
        impl Judge for AlternatingJudge {
            fn is_correct(&self, _q: &Question, _r: &str) -> bool {
                true
            }
            fn verdict(&self, _q: &Question, _r: &str, attempt: u64) -> bool {
                attempt.is_multiple_of(2)
            }
        }
        let bench = ChipVqa::standard();
        let q = &bench.questions()[0];
        // attempts = 2: one yes (attempt 0), one no -> tie -> first = yes
        let policy = RetryPolicy::with_attempts(2);
        assert!(policy.judged(&AlternatingJudge, q, "x"));
        // attempts = 4: 2 yes, 2 no -> tie -> still the first attempt
        let policy = RetryPolicy::with_attempts(4);
        assert!(policy.judged(&AlternatingJudge, q, "x"));
    }
}
