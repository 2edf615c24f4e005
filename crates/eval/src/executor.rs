//! The shard engine: one producer/worker loop behind every evaluation.
//!
//! [`ParallelExecutor`] cuts a model×question grid into shards —
//! contiguous question ranges of one [`ShardSource`], either a
//! materialized bench cut at [`SHARD_SIZE`] or a [`DatasetSpec`]
//! generated lazily at a chosen shard length — and evaluates them on a
//! pool of scoped worker threads. The calling thread is the producer:
//! it walks the source in shard order, generating each spec shard once
//! however many models need it, and queues every selected (row, shard)
//! item on a channel that idle workers pull from. An item is dispatched
//! when a worker takes it, so a stop leaves at most `workers` items to
//! finish. The run is bounded by resident shards, not by queued items:
//! at most `2·workers + 1` shards (fewer when a shard has several rows)
//! are generated and not yet finished, so a grid generates shard k + 1
//! while its workers evaluate the rows of shard k. A row is
//! one model over one column: a grid call has one row per model, and a
//! [`ShardSource::Table2`] grid adds a second row per model over each
//! shard's no-choice twin. Every model in every
//! column reads a shard's key-mark legibility from one set of slots,
//! filled once per question for every total factor, from one window of
//! its image, on the producer of a run that infers. Outcomes
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
//! streams a spec for one model,
//! [`evaluate_table2`](ParallelExecutor::evaluate_table2) streams a spec
//! and its no-choice twin for every model, checkpoint resume
//! ([`evaluate_checkpointed`](ParallelExecutor::evaluate_checkpointed))
//! runs the shards a [`Checkpoint`](crate::checkpoint::Checkpoint)
//! lacks, its [`heal`](crate::checkpoint::Checkpoint::heal) re-runs the
//! quarantined ones, and a fleet claim runs one spec shard over every
//! row of the Table II grid.
//!
//! Optional layers ride on the same loop:
//!
//! * an [`AnswerCache`] that memoises model answers across runs (a warm
//!   cache skips inference entirely and re-judges the stored answers),
//!   keyed with the source's dataset fingerprint so answers never cross
//!   collections;
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

use std::collections::BTreeMap;
use std::ops::Deref;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, OnceLock, PoisonError};

use chipvqa_core::question::Question;
use chipvqa_core::spec::{no_choice, DatasetSpec, ShardStream};
use chipvqa_core::ChipVqa;
use chipvqa_models::backbone::AnswerPath;
use chipvqa_models::{encoder, ModelResponse, VlmPipeline};
use chipvqa_telemetry::{kv, Telemetry};
use serde::{Deserialize, Serialize};

use crate::cache::{AnswerCache, CacheKey, CachedAnswer};
use crate::harness::{EvalOptions, EvalReport, QuestionOutcome};
use crate::judge::{Judge, RuleJudge};
use crate::report::Table2;
use crate::supervisor::{Admit, EvalError, Supervisor, WindowedBreaker, BREAKER_WINDOW};

/// How many questions one shard of a built bench covers. Small enough
/// that 8 workers on one 142-question model all stay busy, large enough
/// that shard bookkeeping is negligible against inference.
pub const SHARD_SIZE: usize = 16;

/// One shard of a grid: a contiguous question range of one model — the
/// key outcomes come back under, and the stable identity checkpoints
/// and fleet records persist.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ShardKey {
    /// Model index in the grid; inside a run with a no-choice twin
    /// column, the row (`models + m` for model `m` over the twin).
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
    /// Both Table II columns of a spec, generated once at the given
    /// shard length: row `m` is model `m` over the spec, as
    /// [`Spec`](ShardSource::Spec) runs it, and row `models + m` is
    /// model `m` over each shard's [`no_choice`] twin, whose answers are
    /// cached under the fingerprint of `spec.with_mc_sa_ratio(0.0)`.
    Table2(&'a DatasetSpec, usize),
}

impl ShardSource<'_> {
    /// Questions per shard (the last shard may be shorter).
    pub(crate) fn shard_len(&self) -> usize {
        match self {
            ShardSource::Bench(..) => SHARD_SIZE,
            ShardSource::Spec(_, shard_len) | ShardSource::Table2(_, shard_len) => *shard_len,
        }
    }

    /// Questions in the source.
    pub(crate) fn questions(&self) -> usize {
        match self {
            ShardSource::Bench(bench, _) => bench.len(),
            ShardSource::Spec(spec, _) | ShardSource::Table2(spec, _) => spec.total(),
        }
    }

    /// The dataset fingerprint answer-cache keys use.
    pub(crate) fn fingerprint(&self) -> u64 {
        match self {
            ShardSource::Bench(_, fingerprint) => *fingerprint,
            ShardSource::Spec(spec, _) | ShardSource::Table2(spec, _) => spec.fingerprint(),
        }
    }

    /// Rows of a `models`-model grid over this source: one per model,
    /// two for [`Table2`](ShardSource::Table2).
    pub(crate) fn rows(&self, models: usize) -> usize {
        match self {
            ShardSource::Table2(..) => 2 * models,
            _ => models,
        }
    }

    /// Whether `key` is in the [`plan`](Self::plan) of a `models`-model
    /// grid over this source, without listing the plan.
    pub(crate) fn covers(&self, models: usize, key: &ShardKey) -> bool {
        let (questions, shard_len) = (self.questions(), self.shard_len());
        key.model_idx < self.rows(models)
            && key.q_start < questions
            && key.q_start.is_multiple_of(shard_len)
            && key.q_end == (key.q_start + shard_len).min(questions)
    }

    /// The shard plan of a `models`-model grid over this source, in
    /// canonical (row, question-range) order.
    pub fn plan(&self, models: usize) -> Vec<ShardKey> {
        let (questions, shard_len) = (self.questions(), self.shard_len());
        (0..self.rows(models))
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
    cache: Option<Arc<AnswerCache>>,
    supervisor: Option<Arc<Supervisor>>,
    telemetry: Telemetry,
}

impl ParallelExecutor {
    /// An executor with `workers` threads (clamped to at least one), no
    /// cache, unsupervised execution, telemetry disabled.
    pub fn new(workers: usize) -> Self {
        ParallelExecutor {
            workers: workers.max(1),
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

    /// A copy of this executor with the supervisor detached (cache and
    /// telemetry are kept). The calm twin of a supervised executor, on
    /// which [`Checkpoint::heal`](crate::checkpoint::Checkpoint::heal)
    /// re-runs quarantined shards, a fleet claim's included. A genuine
    /// panic recurs here and stays a `WorkerPanic` outcome.
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
        let pipes = std::slice::from_ref(pipe);
        self.evaluate_grid(pipes, bench, options, &RuleJudge::new())
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
    /// row. Returns reports in row order plus the run's [`StreamStats`].
    pub fn evaluate_source(
        &self,
        pipes: &[VlmPipeline],
        source: ShardSource<'_>,
        options: EvalOptions,
        judge: &dyn Judge,
    ) -> (Vec<EvalReport>, StreamStats) {
        let reports = Reports::new(pipes, source);
        let sink = |key, outcomes| reports.push(key, outcomes);
        let stats = self.run(
            pipes,
            source,
            options,
            judge,
            &|_| true,
            &mut |_| false,
            &sink,
        );
        (self.finalize(reports.finish()), stats)
    }

    /// Evaluates every model on both Table II columns of `spec` in one
    /// engine run over [`ShardSource::Table2`]. The with-choice column is
    /// `spec` generated at `shard_len`; the no-choice column is each
    /// generated shard's [`no_choice`] twin, equal to the matching shard
    /// of `spec.with_mc_sa_ratio(0.0)` and cached under that spec's
    /// fingerprint. So each question is generated once, and every model
    /// in both columns reads one legibility slot per (question, total
    /// factor). Each (model, column) row keeps its own breaker walk: the
    /// table is byte-identical to evaluating the two specs in separate
    /// runs, supervised or not.
    pub fn evaluate_table2(
        &self,
        pipes: &[VlmPipeline],
        spec: &DatasetSpec,
        shard_len: usize,
        options: EvalOptions,
        judge: &dyn Judge,
    ) -> (Table2, StreamStats) {
        let source = ShardSource::Table2(spec, shard_len);
        let (reports, stats) = self.evaluate_source(pipes, source, options, judge);
        (Table2::from_columns(reports), stats)
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

    /// Stamps run metadata onto finished reports: the cache's traffic
    /// stats when a cache is attached. Results themselves are untouched.
    /// Also flushes the cache's persistent store (if one is attached),
    /// so a run that completes normally is durable on disk.
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
    /// queues every (row, shard) item `select` picks for the scoped
    /// workers. An item is dispatched when a worker takes it from the
    /// queue, in queue order: `stop` is polled then, on that worker, with
    /// the number of items dispatched before it. Once it returns true no
    /// further item is dispatched, the queued ones are dropped unrun and
    /// the walk ends; the dispatched ones still finish, so a stop waits
    /// for at most `workers` items however far generation has run ahead.
    /// Each finished item's outcomes go to `sink` from the worker that
    /// finished it, in completion order; the run returns its stats.
    ///
    /// A row is one model over one column. Row `m` is model `m` over the
    /// source's shards as produced. Over [`ShardSource::Table2`], row
    /// `pipes.len() + m` is model `m` over each shard's [`no_choice`]
    /// twin, whose answers are cached under the fingerprint of
    /// `spec.with_mc_sa_ratio(0.0)`; [`ShardKey::model_idx`] holds the
    /// row.
    ///
    /// Every shard carries one [`LegibilitySlots`] per question, shared
    /// by all rows and by the twin, and dropped with the shard's last
    /// item. The shard and its twin each carry one prompt-hash slot per
    /// question, filled on a cache-attached worker by the first lookup
    /// that keys it.
    ///
    /// Perception reads pixels from windows: a question's slots are
    /// filled together, for every total factor, from one window of its
    /// image that holds its key marks
    /// ([`encoder::key_mark_legibility_at`]), and no image is
    /// rasterized whole. A run infers when it has no cache, or when its
    /// cache has missed since the run began. When the producer builds a
    /// shard on such a run, it fills every question's slots before it
    /// queues the shard, so the workers only infer and judge. The
    /// images whose window it replayed go to the `stream.rasterized`
    /// counter, and on a spec walk the fills run in a
    /// `stream.rasterize` span, one `perceive.legibility` span per
    /// question. A worker that finds a question's slots empty (a shard
    /// built before the cache first missed, or a fleet claim) fills them
    /// the same way on the first miss that reads them. A warm run reads
    /// no pixel.
    ///
    /// The run is bounded by resident shards: the producer takes a
    /// permit before it generates (or slices) a shard, queues all of the
    /// shard's selected rows without blocking, and the shard returns its
    /// permit when its last item in either column finishes or is
    /// dropped. A single-row stream gets `2·workers + 1` permits, the
    /// items it always had in flight. With more rows per shard it gets
    /// the shards that many items can span plus one generated ahead,
    /// `⌈(2·workers + 1) / rows⌉ + 2`, if that is fewer: a many-model
    /// run holds about one shard more than a `workers`-item queue let it,
    /// not `2·workers + 1`. So with one worker, three shards can be
    /// resident: one evaluated, two queued, and the producer generates
    /// the next as soon as the oldest finishes. Generation stays on the
    /// calling thread. Both bounds are observable, not aspirational:
    /// `peak_resident_shards` never exceeds the permits, and in-flight
    /// questions — queued plus held by workers — never exceed
    /// `rows × permits × shard_len`.
    ///
    /// Supervised, the producer drives each row's windowed breaker
    /// from the window holding its first selected question through the
    /// end of its last selected shard, deciding every question in order
    /// — selected or not — so each one gets the decision a full run
    /// gives it. The walk starts at the first shard any row needs (its
    /// first selected shard or, supervised, the one holding its
    /// breaker's first question), and a spec is generated from there
    /// ([`DatasetSpec::stream_from`]): a resume, a heal or a fleet claim
    /// generates no shard before its first. A built bench's walk makes
    /// no clock-touching telemetry call (its fills open no span): with
    /// one worker, one thread traces the whole run in dispatch order.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn run(
        &self,
        pipes: &[VlmPipeline],
        source: ShardSource<'_>,
        options: EvalOptions,
        judge: &dyn Judge,
        select: &dyn Fn(&ShardKey) -> bool,
        stop: &mut (dyn FnMut(usize) -> bool + Send),
        sink: &(dyn Fn(ShardKey, Vec<QuestionOutcome>) + Sync),
    ) -> StreamStats {
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
        let models = pipes.len();
        let rows = source.rows(models);
        let twin = match source {
            ShardSource::Table2(spec, _) => Some(spec.clone().with_mc_sa_ratio(0.0).fingerprint()),
            _ => None,
        };
        // each row's selected shard range (first, last); the walk ends
        // after the last selected shard of any row
        let mut ranges: Vec<Option<(usize, usize)>> = vec![None; rows];
        for key in source.plan(models).iter().filter(|k| select(k)) {
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
        let walk_start = ranges
            .iter()
            .zip(&breakers)
            .filter_map(|(range, breaker)| match breaker {
                Some(wb) => Some(wb.next_index() / shard_len),
                None => range.map(|(first, _)| first),
            })
            .min()
            .unwrap_or(0);
        // dropped however the run ends, emitting its lifetime gauges
        let mut producer = Producer {
            walk: match source {
                ShardSource::Bench(bench, _) => {
                    Walk::Bench(bench.questions()[walk_start * shard_len..].chunks(shard_len))
                }
                ShardSource::Spec(spec, shard_len) | ShardSource::Table2(spec, shard_len) => {
                    Walk::Spec(spec.stream_from(shard_len, walk_start))
                }
            },
            peak_in_flight: 0,
            peak_resident_shards: 0,
            exec: self,
        };
        let generated = matches!(producer.walk, Walk::Spec(_));

        let lookahead = 2 * workers + 1;
        let residency = Residency::new(lookahead.min(lookahead.div_ceil(rows.max(1)) + 2));
        let (tx, rx) = mpsc::channel::<Item<'_>>();
        // the workers own the receiver: once they have all stopped or
        // died, it drops the queued items (returning their shards'
        // permits) and sends fail, instead of blocking the producer
        let dispatch = Arc::new(Mutex::new(Dispatch {
            rx,
            stop,
            dispatched: 0,
            stopped: false,
        }));
        let in_flight = AtomicUsize::new(0);
        let cache = self.cache.as_deref();
        // a run whose cache has not missed since it began has read no
        // pixel, so its producer perceives nothing ahead
        let misses_at_start = cache.map(|c| (c, c.misses()));
        let missed = || misses_at_start.is_none_or(|(c, m)| c.misses() > m);
        let mut stats = StreamStats::default();

        std::thread::scope(|scope| {
            for _ in 0..workers {
                let dispatch = Arc::clone(&dispatch);
                let (in_flight, residency) = (&in_flight, &residency);
                scope.spawn(move || loop {
                    // a worker whose stop hook panicked poisons the lock:
                    // the others stop too
                    let Some((key, shard, admits)) = dispatch
                        .lock()
                        .ok()
                        .and_then(|mut dispatch| dispatch.next())
                    else {
                        residency.stop();
                        break;
                    };
                    let model_idx = key.model_idx % models;
                    let pipe = &pipes[model_idx];
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
                    let outcomes: Vec<QuestionOutcome> = shard
                        .questions
                        .iter()
                        .zip(shard.resident.legibility.iter())
                        .zip(shard.prompt_hashes.iter())
                        .enumerate()
                        .map(|(offset, ((q, legibility), prompt_hash))| {
                            let _t = tele.timer("executor.question_ns");
                            let _q_span = tele.span("executor.question");
                            if let Some(admit) = admits.as_ref().map(|a| a[offset]) {
                                admit.report(tele, pipe.fingerprint(), &q.id);
                                if !admit.allowed {
                                    return failed_outcome(q, EvalError::BreakerOpen);
                                }
                            }
                            std::panic::catch_unwind(AssertUnwindSafe(|| {
                                eval_question(
                                    pipe,
                                    q,
                                    legibility,
                                    prompt_hash,
                                    options,
                                    judge,
                                    cache,
                                    supervisor,
                                    tele,
                                    shard.dataset_fp,
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
                    in_flight.fetch_sub(outcomes.len(), Ordering::Relaxed);
                    tele.counter("stream.shard_evaluated", 1);
                    sink(key, outcomes);
                });
            }

            drop(dispatch);
            // the calling thread is the producer: generation (and,
            // supervised, breaker admission) overlaps the workers'
            // inference
            'walk: for shard in walk_start..walk_end.unwrap_or(0) {
                // a shard is resident from before it is generated until
                // its last item finishes; none is taken once the
                // workers have stopped
                let Some((permit, resident)) = residency.acquire() else {
                    break;
                };
                producer.peak_resident_shards = producer.peak_resident_shards.max(resident);
                let mut permit = Some(permit);
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
                // the shard as produced and its no-choice twin, each made
                // when the first item that reads it is dispatched
                let mut produced: Option<Shard<'_>> = None;
                let mut twinned: Option<Shard<'_>> = None;
                for (row, range) in ranges.iter().enumerate() {
                    let Some((_, last)) = *range else { continue };
                    if shard > last {
                        continue;
                    }
                    let admits = breakers[row].as_mut().map(|wb| {
                        let _b_span = generated.then(|| tele.span("stream.breaker"));
                        let sup = supervisor.expect("breakers exist only when supervised");
                        // questions before the breaker's first window
                        // belong to no selected shard
                        let skip = wb.next_index().saturating_sub(q_start);
                        questions[skip.min(questions.len())..]
                            .iter()
                            .map(|q| sup.decide(wb, pipes[row % models].fingerprint(), &q.id))
                            .collect::<Vec<Admit>>()
                    });
                    let key = ShardKey {
                        model_idx: row,
                        q_start,
                        q_end: q_start + questions.len(),
                    };
                    if !select(&key) {
                        continue;
                    }
                    let produced = produced.get_or_insert_with(|| {
                        let fp = source.fingerprint();
                        let permit = permit.take().expect("one permit per shard");
                        let shard =
                            Shard::new(questions.clone(), pipes, options.downsample, fp, permit);
                        if missed() {
                            let _r_span = generated.then(|| tele.span("stream.rasterize"));
                            let images = shard.perceive(tele, generated);
                            tele.counter("stream.rasterized", images as u64);
                        }
                        shard
                    });
                    let view = match twin {
                        Some(fp) if row >= models => twinned
                            .get_or_insert_with(|| produced.no_choice_twin(fp))
                            .clone(),
                        _ => produced.clone(),
                    };
                    let now =
                        in_flight.fetch_add(questions.len(), Ordering::Relaxed) + questions.len();
                    producer.peak_in_flight = producer.peak_in_flight.max(now);
                    if tx.send((key, view, admits)).is_err() {
                        break 'walk; // every worker stopped or died
                    }
                }
            }
            drop(tx); // closes the channel; workers drain and exit
        });

        stats.peak_in_flight = producer.peak_in_flight;
        stats.peak_resident_shards = producer.peak_resident_shards;
        if let Walk::Spec(stream) = &producer.walk {
            stats.generator_peak_resident = Some(stream.peak_resident());
        }
        stats
    }
}

/// One unit of work: a selected (row, shard) pair, with the shard's
/// breaker decisions when supervised.
type Item<'a> = (ShardKey, Shard<'a>, Option<Vec<Admit>>);

/// A shard as workers see it: its questions with their prompt hashes,
/// what it shares with its twin while resident, and the dataset
/// fingerprint its answers are cached under. Every item of the shard
/// holds a clone.
#[derive(Clone)]
struct Shard<'a> {
    questions: ShardQuestions<'a>,
    /// One [`prompt_hash`](crate::cache::prompt_hash) slot per question,
    /// filled by the first cache lookup that keys it, so a storeless run
    /// never hashes a prompt and a cached one hashes each once per
    /// column, not once per model.
    prompt_hashes: Arc<[OnceLock<u64>]>,
    resident: Arc<Resident<'a>>,
    dataset_fp: u64,
}

/// What a shard and its no-choice twin share: one [`LegibilitySlots`]
/// per question, and the shard's residency permit. Both die with the
/// last item of either column, which returns the permit.
struct Resident<'a> {
    legibility: Box<[LegibilitySlots]>,
    _permit: Permit<'a>,
}

impl<'a> Shard<'a> {
    /// A produced shard holding `permit`, with empty slots for every
    /// total factor `pipes` see its questions at.
    fn new(
        questions: ShardQuestions<'a>,
        pipes: &[VlmPipeline],
        downsample: usize,
        dataset_fp: u64,
        permit: Permit<'a>,
    ) -> Self {
        let legibility = questions
            .iter()
            .map(|q| LegibilitySlots::new(q, pipes, downsample))
            .collect();
        Shard {
            prompt_hashes: empty_slots(questions.len()),
            questions,
            resident: Arc::new(Resident {
                legibility,
                _permit: permit,
            }),
            dataset_fp,
        }
    }

    /// Fills every question's legibility slots, each from one window of
    /// its image, returning how many images had a window replayed
    /// ([`LegibilitySlots::reads_pixels`]). The producer calls it on a
    /// run that infers, `spanned` on a spec walk; a worker fills any
    /// slots it finds empty the same way.
    fn perceive(&self, tele: &Telemetry, spanned: bool) -> usize {
        let mut images = 0;
        for (q, slots) in self.questions.iter().zip(self.resident.legibility.iter()) {
            slots.fill(q, tele, spanned);
            images += usize::from(slots.reads_pixels(q));
        }
        images
    }

    /// The shard's [`no_choice`] twin, keyed with `dataset_fp`: same ids,
    /// same pixels, same key marks, so it shares the legibility slots
    /// (and the permit); its prompts lost their choices, so it has
    /// prompt-hash slots of its own.
    fn no_choice_twin(&self, dataset_fp: u64) -> Shard<'a> {
        Shard {
            questions: ShardQuestions::Generated(Arc::new(no_choice(&self.questions))),
            prompt_hashes: empty_slots(self.questions.len()),
            resident: Arc::clone(&self.resident),
            dataset_fp,
        }
    }
}

/// `n` empty prompt-hash slots.
fn empty_slots(n: usize) -> Arc<[OnceLock<u64>]> {
    (0..n).map(|_| OnceLock::new()).collect()
}

/// The workers' side of the queue: whoever holds the lock takes the
/// next item and polls `stop` before dispatching it.
struct Dispatch<'a, 's> {
    rx: mpsc::Receiver<Item<'a>>,
    stop: &'s mut (dyn FnMut(usize) -> bool + Send),
    dispatched: usize,
    stopped: bool,
}

impl<'a> Dispatch<'a, '_> {
    /// The next queued item, unless the queue is closed or `stop` has
    /// returned true (a stopped run dispatches nothing more).
    fn next(&mut self) -> Option<Item<'a>> {
        if self.stopped {
            return None;
        }
        let item = self.rx.recv().ok()?;
        if (self.stop)(self.dispatched) {
            self.stopped = true;
            return None;
        }
        self.dispatched += 1;
        Some(item)
    }
}

/// A run's resident-shard budget: a counting semaphore of `limit`
/// permits, closed for good once the workers stop.
struct Residency {
    state: Mutex<Held>,
    returned: Condvar,
    limit: usize,
}

/// Permits held, and whether the workers have stopped.
#[derive(Default)]
struct Held {
    permits: usize,
    stopped: bool,
}

/// One resident shard's hold on its run's [`Residency`], returned on
/// drop.
struct Permit<'a>(&'a Residency);

impl Residency {
    fn new(limit: usize) -> Self {
        Residency {
            state: Mutex::new(Held::default()),
            returned: Condvar::new(),
            limit,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Held> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Waits until fewer than `limit` shards are resident, then takes a
    /// permit; returns it with the number of permits now held, or `None`
    /// once the workers have stopped.
    fn acquire(&self) -> Option<(Permit<'_>, usize)> {
        let mut held = self
            .returned
            .wait_while(self.lock(), |held| {
                !held.stopped && held.permits >= self.limit
            })
            .unwrap_or_else(PoisonError::into_inner);
        if held.stopped {
            return None;
        }
        held.permits += 1;
        Some((Permit(self), held.permits))
    }

    /// Wakes the producer for good: no further permit is handed out.
    fn stop(&self) {
        self.lock().stopped = true;
        self.returned.notify_all();
    }
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        self.0.lock().permits -= 1;
        self.0.returned.notify_one();
    }
}

/// One question's key-mark legibility at every total downsampling
/// factor the run's models see it at, filled together from one window
/// of its image ([`encoder::key_mark_legibility_at`]): by the producer
/// of a run that infers, or else by the first cache miss that reads
/// them. A cache hit never reads them, so a warm restart does no
/// legibility work.
pub(crate) struct LegibilitySlots {
    /// The total factors, ascending and distinct.
    factors: Box<[usize]>,
    /// Each factor's key-mark legibility, in `factors` order.
    values: OnceLock<Vec<Vec<f64>>>,
}

impl LegibilitySlots {
    /// Empty slots for every total factor `pipes` see `q` at under
    /// `downsample`.
    pub(crate) fn new(q: &Question, pipes: &[VlmPipeline], downsample: usize) -> Self {
        let mut factors: Vec<usize> = pipes
            .iter()
            .map(|p| p.total_factor(q, downsample))
            .collect();
        factors.sort_unstable();
        factors.dedup();
        LegibilitySlots {
            factors: factors.into(),
            values: OnceLock::new(),
        }
    }

    /// Whether filling these slots reads `q`'s pixels: `q` has a key
    /// mark and a slot's total factor is 2 or more (at a factor of 1
    /// every mark is fully legible, and nothing is read).
    pub(crate) fn reads_pixels(&self, q: &Question) -> bool {
        !q.key_marks.is_empty() && self.factors.iter().any(|&factor| factor >= 2)
    }

    /// `pipe`'s response to `q`, the question these slots belong to:
    /// `pipe.infer(q, downsample, attempt)` bit for bit, with the
    /// legibility read from the slot of the model's total factor.
    pub(crate) fn infer(
        &self,
        pipe: &VlmPipeline,
        q: &Question,
        downsample: usize,
        attempt: u64,
        tele: &Telemetry,
    ) -> ModelResponse {
        let legibility = self.read(q, pipe.total_factor(q, downsample), tele);
        pipe.infer_legible(q, attempt, legibility)
    }

    /// The slot of total factor `total`, all slots filled first if they
    /// are empty.
    fn read(&self, q: &Question, total: usize, tele: &Telemetry) -> &[f64] {
        let slot = self
            .factors
            .iter()
            .position(|&factor| factor == total)
            .expect("a slot for every model of the run");
        &self.fill(q, tele, true)[slot]
    }

    /// Fills every slot, unless they are full, and returns them. A fill
    /// runs in one `perceive.legibility` span when `spanned` (a built
    /// bench's producer fills unspanned: it makes no clock-touching
    /// call), and adds its key-mark count at each factor of 2 or more to
    /// the `perceive.legibility_filled` counter.
    fn fill(&self, q: &Question, tele: &Telemetry, spanned: bool) -> &[Vec<f64>] {
        self.values.get_or_init(|| {
            let _span = spanned.then(|| tele.span("perceive.legibility"));
            let read = self.factors.iter().filter(|&&factor| factor >= 2).count();
            if read > 0 {
                tele.counter(
                    "perceive.legibility_filled",
                    (read * q.key_marks.len()) as u64,
                );
            }
            encoder::key_mark_legibility_at(q, &self.factors)
        })
    }
}

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
/// in-flight and resident-shard high-water marks. Dropping it emits the
/// run's lifetime gauges — `stream.peak_in_flight`,
/// `stream.peak_resident_shards` and the generator-side
/// `stream.peak_resident` of a spec walk — however the run ends: a
/// panic on the producer thread (a stop hook, say) unwinds through the
/// engine, and emissions after the unwind point would be lost.
struct Producer<'a> {
    walk: Walk<'a>,
    peak_in_flight: usize,
    peak_resident_shards: usize,
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
        tele.gauge(
            "stream.peak_resident_shards",
            self.peak_resident_shards as f64,
        );
        if let Walk::Spec(stream) = &self.walk {
            tele.gauge("stream.peak_resident", stream.peak_resident() as f64);
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
    /// Peak questions in flight inside the executor: queued plus held by
    /// workers. At most `rows × peak_resident_shards × shard_len`, where
    /// a row is one model over one column: every selected row of each
    /// resident shard.
    pub peak_in_flight: usize,
    /// Peak shards resident at once: each taken before it is generated
    /// (or sliced) and held until its last item in either column
    /// finishes. At most `2·workers + 1`, and at most
    /// `⌈(2·workers + 1) / rows⌉ + 2`.
    #[serde(default)]
    pub peak_resident_shards: usize,
    /// The generator-side high-water mark
    /// ([`ShardStream::peak_resident`](chipvqa_core::spec::ShardStream::peak_resident)),
    /// recorded for spec sources; `None` for built benches.
    pub generator_peak_resident: Option<usize>,
}

/// Whether a shard's outcomes quarantine it: a worker caught a panic on
/// at least one of its questions.
pub(crate) fn quarantines(outcomes: &[QuestionOutcome]) -> bool {
    outcomes
        .iter()
        .any(|o| o.error == Some(EvalError::WorkerPanic))
}

/// One report per row of a grid, filled as shards finish: a shard that
/// continues its row moves straight in (and any early successors it
/// unblocks follow), so a grid never holds its outcomes twice — once
/// per shard and again per row — the way collecting every shard before
/// merging would.
pub(crate) struct Reports {
    questions: usize,
    rows: Mutex<Rows>,
}

/// The reports so far, and the shards that arrived before their
/// predecessor, keyed by (row, first question).
struct Rows {
    reports: Vec<EvalReport>,
    early: BTreeMap<(usize, usize), Vec<QuestionOutcome>>,
}

impl Reports {
    /// Empty reports for every row of the grid of `pipes` over `source`.
    pub(crate) fn new(pipes: &[VlmPipeline], source: ShardSource<'_>) -> Self {
        let reports = (pipes.iter().cycle().take(source.rows(pipes.len())))
            .map(|pipe| EvalReport {
                model: pipe.profile().name.clone(),
                outcomes: Vec::new(),
                cache_stats: None,
            })
            .collect();
        Reports {
            questions: source.questions(),
            rows: Mutex::new(Rows {
                reports,
                early: BTreeMap::new(),
            }),
        }
    }

    /// Takes one finished shard.
    pub(crate) fn push(&self, key: ShardKey, outcomes: Vec<QuestionOutcome>) {
        assert_eq!(outcomes.len(), key.q_end - key.q_start, "shard shape");
        let mut rows = self.rows.lock().expect("reports lock");
        let Rows { reports, early } = &mut *rows;
        let fresh = early.insert((key.model_idx, key.q_start), outcomes);
        assert!(fresh.is_none(), "shards tile the grid");
        let row = &mut reports[key.model_idx].outcomes;
        while let Some(next) = early.remove(&(key.model_idx, row.len())) {
            if row.is_empty() {
                row.reserve_exact(self.questions);
            }
            row.extend(next);
        }
    }

    /// The finished reports, in row order.
    pub(crate) fn finish(self) -> Vec<EvalReport> {
        let Rows { reports, early } = self.rows.into_inner().expect("reports lock");
        assert!(early.is_empty(), "shards tile the grid");
        for report in &reports {
            assert_eq!(report.outcomes.len(), self.questions, "grid fully covered");
        }
        reports
    }
}

/// Exactly the sequential harness's per-question loop, with the cache
/// interposed before inference: one inference and one judge call per
/// pass@k attempt. Supervised, every inference and judge call goes
/// through the supervisor's fault injection + recovery, and the first
/// terminal failure at any site aborts the question with a structured
/// error (degraded truncated/garbled evidence is kept as the recorded
/// response). Inference reads `q`'s legibility from its shard's slots;
/// the cache key takes `q`'s prompt hash from its slot and `dataset_fp`,
/// the source's dataset (0 = canonical). The first attempt's answer
/// text moves into the outcome.
#[allow(clippy::too_many_arguments)]
fn eval_question(
    pipe: &VlmPipeline,
    q: &Question,
    legibility: &LegibilitySlots,
    prompt_hash: &OnceLock<u64>,
    options: EvalOptions,
    judge: &dyn Judge,
    cache: Option<&AnswerCache>,
    sup: Option<&Supervisor>,
    tele: &Telemetry,
    dataset_fp: u64,
) -> QuestionOutcome {
    let mut passed = false;
    let mut first_response = String::new();
    let mut first_path = AnswerPath::Failed;
    let mut error = None;
    for attempt in 0..options.attempts.max(1) {
        let downsample = options.downsample;
        let answer = match sup {
            Some(sup) => sup.infer(
                pipe,
                q,
                legibility,
                prompt_hash,
                downsample,
                attempt,
                cache,
                tele,
                dataset_fp,
            ),
            None => Ok(infer_cached_for(
                pipe,
                q,
                legibility,
                prompt_hash,
                downsample,
                attempt,
                cache,
                tele,
                dataset_fp,
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
        let judged = {
            let _span = tele.span("judge");
            match sup {
                Some(sup) => sup.verdict(judge, pipe.fingerprint(), q, &answer.text, tele),
                None => Ok(judge.is_correct(q, &answer.text)),
            }
        };
        if attempt == 0 {
            first_response = answer.text;
            first_path = answer.path;
        }
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
/// for spec-generated collections never cross specs (0 = canonical). A
/// miss infers through `q`'s legibility slots; a hit never reads them.
/// The key is [`CacheKey::for_dataset`]'s, with `q`'s prompt hash read
/// from `prompt_hash` (computed there first if the slot is empty); a
/// run without a cache never computes it.
#[allow(clippy::too_many_arguments)]
pub(crate) fn infer_cached_for(
    pipe: &VlmPipeline,
    q: &Question,
    legibility: &LegibilitySlots,
    prompt_hash: &OnceLock<u64>,
    downsample: usize,
    attempt: u64,
    cache: Option<&AnswerCache>,
    tele: &Telemetry,
    dataset_fp: u64,
) -> CachedAnswer {
    let Some(cache) = cache else {
        let _span = tele.span("inference");
        return CachedAnswer::from(legibility.infer(pipe, q, downsample, attempt, tele));
    };
    let key = CacheKey {
        model_fingerprint: pipe.fingerprint(),
        question_id: q.id.clone(),
        prompt_hash: *prompt_hash.get_or_init(|| crate::cache::prompt_hash(q)),
        downsample,
        attempt,
        dataset_fingerprint: dataset_fp,
    };
    if let Some(hit) = cache.lookup(&key) {
        tele.counter("cache.hit", 1);
        return hit;
    }
    tele.counter("cache.miss", 1);
    let answer = {
        let _span = tele.span("inference");
        CachedAnswer::from(legibility.infer(pipe, q, downsample, attempt, tele))
    };
    cache.insert(key, answer.clone());
    tele.counter("cache.insert", 1);
    answer
}

#[cfg(test)]
mod tests {
    use super::*;
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

    /// `covers` is membership in `plan` on every source shape, for each
    /// plan key and its near misses.
    #[test]
    fn covers_is_plan_membership() {
        let bench = ChipVqa::standard();
        let spec = DatasetSpec::default();
        for source in [
            ShardSource::Bench(&bench, 0),
            ShardSource::Spec(&spec, 17),
            ShardSource::Table2(&spec, 17),
        ] {
            let (plan, len) = (source.plan(2), source.shard_len());
            for &key in &plan {
                for candidate in [
                    key,
                    ShardKey {
                        model_idx: key.model_idx + 2,
                        ..key
                    },
                    ShardKey {
                        q_start: key.q_start + 1,
                        ..key
                    },
                    ShardKey {
                        q_end: key.q_end + 1,
                        ..key
                    },
                    ShardKey {
                        q_start: key.q_start + len,
                        ..key
                    },
                    ShardKey {
                        q_start: key.q_start + len,
                        q_end: key.q_end + len,
                        ..key
                    },
                ] {
                    let member = plan.contains(&candidate);
                    assert_eq!(source.covers(2, &candidate), member, "{candidate:?}");
                }
            }
        }
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
        let bench = ChipVqa::standard();
        let q = &bench.questions()[0];
        let fp = pipe.fingerprint();
        assert!(
            cache
                .lookup(&CacheKey::for_dataset(fp, spec.fingerprint(), q, 1, 0))
                .is_some(),
            "streamed entries are bound to the spec"
        );
        // the canonical batch path uses fingerprint 0, so the same
        // questions miss rather than crossing specs
        assert!(cache.lookup(&CacheKey::new(fp, q, 1, 0)).is_none());
        let before = cache.len();
        exec.evaluate(&pipe, &bench, EvalOptions::default());
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
        let (zero, _) =
            supervised.evaluate_spec_stream(&pipe, &spec, SHARD_SIZE, EvalOptions::default());
        assert_eq!(
            serde_json::to_string(&plain).expect("serializes"),
            serde_json::to_string(&zero).expect("serializes"),
            "zero-plan supervised streaming is byte-identical to unsupervised"
        );
        assert!(!quarantines(&zero.outcomes));
        // detaching the supervisor (the fleet healing path) still works
        let detached = supervised.unsupervised();
        assert!(detached.supervisor().is_none());
        let (report, _) =
            detached.evaluate_spec_stream(&pipe, &spec, SHARD_SIZE, EvalOptions::default());
        assert_eq!(report.outcomes.len(), spec.total());
    }

    #[test]
    fn streamed_quarantine_heals_by_requeue() {
        use crate::checkpoint::Checkpoint;
        use crate::fault::{install_quiet_panic_hook, FaultPlan};
        install_quiet_panic_hook();
        let pipes = [VlmPipeline::new(ModelZoo::paligemma())];
        let spec = DatasetSpec::scaled(1);
        let source = ShardSource::Spec(&spec, SHARD_SIZE);
        let options = EvalOptions::default();
        let clean = ParallelExecutor::new(4).evaluate(&pipes[0], &spec.build(), options);
        let exec = ParallelExecutor::new(4).with_supervisor(Supervisor::new(FaultPlan {
            panic_rate: 0.08,
            ..FaultPlan::none()
        }));
        let resume = |exec: &ParallelExecutor, ckpt: &mut Checkpoint| {
            exec.evaluate_checkpointed(
                &pipes,
                source,
                options,
                &RuleJudge::new(),
                ckpt,
                &mut |_| false,
                &|_| {},
            )
            .expect("valid checkpoint")
            .expect("grid completes")
            .pop()
            .expect("one model")
        };
        let mut ckpt = Checkpoint::for_source(&pipes, source, options);
        let stormy = resume(&exec, &mut ckpt);
        let quarantined = stormy
            .outcomes
            .chunks(SHARD_SIZE)
            .filter(|shard| quarantines(shard))
            .count();
        assert!(quarantined > 0, "panics were injected");
        let heal =
            |ckpt: &mut Checkpoint| ckpt.heal(&exec, &pipes, source, options, &RuleJudge::new());
        assert_eq!(heal(&mut ckpt), Ok(quarantined));
        let report = resume(&exec, &mut ckpt);
        assert_eq!(
            serde_json::to_string(&clean).expect("serializes"),
            serde_json::to_string(&report).expect("serializes"),
            "healed streamed report converges to the clean bytes"
        );
        // a clean report heals nothing
        assert_eq!(heal(&mut ckpt), Ok(0));
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
        // the run dies mid-walk, after two dispatches: the stop hook
        // panics on a worker and the scope re-raises it on the producer
        let mut stop = |dispatched: usize| {
            if dispatched == 2 {
                panic!("producer exploded mid-walk");
            }
            false
        };
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let mut ckpt = crate::checkpoint::Checkpoint::for_source(
                std::slice::from_ref(&pipe),
                ShardSource::Bench(&bench, 0),
                EvalOptions::default(),
            );
            exec.evaluate_checkpointed(
                std::slice::from_ref(&pipe),
                ShardSource::Bench(&bench, 0),
                EvalOptions::default(),
                &RuleJudge::new(),
                &mut ckpt,
                &mut stop,
                &|_| {},
            )
        }));
        assert!(caught.is_err(), "the producer panic propagates");
        // the drop-guard emitted the lifetime gauges despite the unwind
        let snap = tele.snapshot();
        assert!(
            snap.gauges["stream.peak_in_flight"] >= SHARD_SIZE as f64,
            "peak gauge emitted on the unwind path"
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
    fn a_grid_generates_the_next_shard_while_its_rows_are_evaluated() {
        use chipvqa_telemetry::{FnSink, TraceRecord};
        use std::time::Duration;
        // one worker, four rows per shard: the first verdict waits until
        // a second shard has been generated. An engine bounded by a
        // `workers`-item queue would hold its producer on row 2 of
        // shard 0, and the wait would time out. Judges run under
        // `catch_unwind`: the result is recorded and asserted after the
        // run.
        struct WaitingJudge {
            generated: Mutex<mpsc::Receiver<()>>,
            overlapped: OnceLock<bool>,
        }
        impl Judge for WaitingJudge {
            fn is_correct(&self, q: &Question, response: &str) -> bool {
                self.overlapped.get_or_init(|| {
                    let generated = self.generated.lock().expect("receiver lock");
                    generated.recv_timeout(Duration::from_secs(30)).is_ok()
                });
                RuleJudge::new().is_correct(q, response)
            }
        }
        let (tx, rx) = mpsc::channel();
        let (tx, spans) = (Mutex::new(tx), AtomicUsize::new(0));
        let sink = FnSink::new(move |record: &TraceRecord| {
            let generate =
                matches!(record, TraceRecord::Span { name, .. } if name == "stream.generate");
            if generate && spans.fetch_add(1, Ordering::Relaxed) == 1 {
                let _ = tx.lock().expect("sender lock").send(());
            }
        });
        let exec = ParallelExecutor::new(1)
            .with_telemetry(Telemetry::builder().sink(Arc::new(sink)).build());
        let pipes = [
            VlmPipeline::new(ModelZoo::gpt4o()),
            VlmPipeline::new(ModelZoo::llava_7b()),
        ];
        let judge = WaitingJudge {
            generated: Mutex::new(rx),
            overlapped: OnceLock::new(),
        };
        let spec = DatasetSpec::default();
        let (table, stats) =
            exec.evaluate_table2(&pipes, &spec, SHARD_SIZE, EvalOptions::default(), &judge);
        assert_eq!(
            judge.overlapped.get(),
            Some(&true),
            "shard 1 was not generated while shard 0 was evaluated"
        );
        assert_eq!(table.rows.len(), pipes.len());
        assert!(stats.peak_resident_shards <= 3, "{stats:?}");
    }

    #[test]
    fn a_stop_leaves_queued_items_unrun() {
        use crate::checkpoint::Checkpoint;
        use chipvqa_telemetry::{FnSink, TraceRecord};
        use std::sync::atomic::AtomicBool;
        // twelve models streamed at 16: every generated shard queues
        // twelve items, and the producer runs shards ahead. A stop that
        // turns true once the first item has finished dispatches nothing
        // more, so only the items the workers had already taken finish;
        // the ones queued behind them are left for the next run.
        let workers = 2;
        let finished = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&finished);
        let sink = FnSink::new(move |record: &TraceRecord| {
            if record.name() == "stream.shard" {
                flag.store(true, Ordering::SeqCst);
            }
        });
        let exec = ParallelExecutor::new(workers)
            .with_telemetry(Telemetry::builder().sink(Arc::new(sink)).build());
        let pipes: Vec<VlmPipeline> = ModelZoo::all().into_iter().map(VlmPipeline::new).collect();
        let spec = DatasetSpec::default();
        let source = ShardSource::Spec(&spec, SHARD_SIZE);
        let options = EvalOptions::default();
        let mut ckpt = Checkpoint::for_source(&pipes, source, options);
        let partial = exec
            .evaluate_checkpointed(
                &pipes,
                source,
                options,
                &RuleJudge::new(),
                &mut ckpt,
                &mut |_| finished.load(Ordering::SeqCst),
                &|_| {},
            )
            .expect("a fresh checkpoint matches its run");
        assert!(partial.is_none(), "the stop ended the run early");
        let done = ckpt.completed_shards();
        assert!(
            (1..=workers).contains(&done),
            "{done} items finished; at most one per worker was dispatched"
        );
    }

    #[test]
    fn shared_legibility_matches_the_one_definition_bit_for_bit() {
        use chipvqa_raster::legibility_after_downsample;
        let bench = DatasetSpec::scaled(2).build();
        let pipes: Vec<VlmPipeline> = ModelZoo::all().into_iter().map(VlmPipeline::new).collect();
        let tele = Telemetry::disabled();
        let mut checked = 0usize;
        for downsample in [1, 2, 16] {
            for (i, q) in bench.iter().enumerate() {
                let slots = LegibilitySlots::new(q, &pipes, downsample);
                let mut factors = std::collections::BTreeSet::new();
                for pipe in &pipes {
                    let total = pipe.total_factor(q, downsample);
                    let shared = slots.read(q, total, &tele);
                    assert_eq!(shared.len(), q.key_marks.len(), "{}", q.id);
                    for (&mark, value) in q.key_marks.iter().zip(shared) {
                        if !factors.insert((mark, total)) {
                            continue;
                        }
                        let region = q.visual.marks[mark].region;
                        let direct = legibility_after_downsample(&q.visual.image, region, total);
                        assert_eq!(
                            value.to_bits(),
                            direct.to_bits(),
                            "{} mark {mark} at factor {total}",
                            q.id
                        );
                        checked += 1;
                    }
                    // the percept (and the whole response) through the
                    // shared path equals `encoder::perceive`'s
                    let attempt = (i % 3) as u64;
                    assert_eq!(
                        slots.infer(pipe, q, downsample, attempt, &tele),
                        pipe.infer(q, downsample, attempt),
                        "{} on {} at downsample {downsample}",
                        pipe.profile().name,
                        q.id
                    );
                }
            }
        }
        assert!(checked > 0);
    }
}
