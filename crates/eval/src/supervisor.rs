//! Supervised execution: deadlines, bounded retries, circuit breakers.
//!
//! [`Supervisor`] sits between the executor's per-question loop and the
//! fallible outside world ([`VlmPipeline::infer`] and [`Judge::is_correct`]
//! calls, with faults injected by a [`FaultInjector`]). It enforces a
//! per-call deadline, retries transient failures a bounded number of
//! times, and runs one three-state [`CircuitBreaker`] per model so a
//! persistently failing backend is shed instead of burning the whole
//! grid's time budget.
//!
//! Failures that exhaust recovery become a structured [`EvalError`]
//! recorded on the question's outcome — a degraded report says exactly
//! *what* it is missing and *why*, instead of being silently wrong.
//!
//! # Determinism
//!
//! Breaker decisions are *windowed*: the question sequence is cut into
//! fixed windows of [`BREAKER_WINDOW`] questions, the breaker state
//! resets at every window boundary, and within a window the trajectory
//! is replayed from each question's *first-attempt health* (a pure
//! function of the fault plan). A decision therefore depends only on
//! `(plan seed, model fingerprint, window index, the window's own
//! question ids)` — never on how much of the collection exists yet or
//! on which shards a run selected. The executor's producer drives one
//! [`WindowedBreaker`] per model incrementally, starting at the window
//! that holds the model's first selected question, whether the source
//! is a materialized bench or a lazily generated spec. That is what
//! lets supervised streamed reports be byte-identical to supervised
//! batch reports at any worker count and any shard length, and a
//! resumed, healed or fleet-claimed shard get the decisions a full run
//! gives it.

use std::panic::panic_any;
use std::sync::OnceLock;

use chipvqa_core::question::Question;
use chipvqa_models::VlmPipeline;
use chipvqa_telemetry::{kv, Telemetry};
use serde::{Deserialize, Serialize};

use crate::cache::{AnswerCache, CachedAnswer};
use crate::executor::LegibilitySlots;
use crate::fault::{
    CallKey, CallSite, FaultInjector, FaultKind, FaultPlan, InjectedPanic, StreamCoord,
};
use crate::judge::Judge;

/// Terminal failure taxonomy: why a question has no trustworthy answer.
///
/// Every variant maps to a [`FaultKind`] that exhausted recovery, plus
/// [`EvalError::BreakerOpen`] for questions the circuit breaker shed
/// without attempting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EvalError {
    /// Every attempt exceeded the supervisor's deadline.
    Timeout {
        /// The deadline that was enforced, in milliseconds.
        deadline_ms: u64,
    },
    /// Every attempt returned a truncated response.
    Truncated,
    /// Every attempt returned a garbled response.
    Garbled,
    /// Every attempt was rejected by rate limiting.
    RateLimited,
    /// Every attempt hit a transient error.
    Transient,
    /// The worker evaluating the question crashed (caught and isolated).
    WorkerPanic,
    /// The model's circuit breaker was open; the question was never
    /// attempted.
    BreakerOpen,
}

impl EvalError {
    /// Stable short label for failure-accounting tables.
    pub fn label(&self) -> &'static str {
        match self {
            EvalError::Timeout { .. } => "timeout",
            EvalError::Truncated => "truncated",
            EvalError::Garbled => "garbled",
            EvalError::RateLimited => "rate-limited",
            EvalError::Transient => "transient",
            EvalError::WorkerPanic => "worker-panic",
            EvalError::BreakerOpen => "breaker-open",
        }
    }
}

impl std::fmt::Display for EvalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EvalError::Timeout { deadline_ms } => {
                write!(f, "deadline of {deadline_ms} ms exceeded on every attempt")
            }
            EvalError::Truncated => write!(f, "response truncated on every attempt"),
            EvalError::Garbled => write!(f, "response garbled on every attempt"),
            EvalError::RateLimited => write!(f, "rate-limited on every attempt"),
            EvalError::Transient => write!(f, "transient errors exhausted retries"),
            EvalError::WorkerPanic => write!(f, "worker panicked; question quarantined"),
            EvalError::BreakerOpen => write!(f, "skipped: model circuit breaker open"),
        }
    }
}

/// Retries of one supervised call after its first attempt, so a call is
/// made at most `MAX_RETRIES + 1` times.
pub const MAX_RETRIES: u64 = 2;

/// The per-call deadline a [`EvalError::Timeout`] records, in
/// milliseconds.
pub const DEADLINE_MS: u64 = 30_000;

/// Circuit breaker tuning.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BreakerConfig {
    /// Consecutive terminal failures that open the breaker.
    pub failure_threshold: u32,
    /// Questions shed while open before a half-open probe is allowed.
    pub cooldown: u32,
    /// Consecutive successful probes that close the breaker again.
    pub probe_successes: u32,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            failure_threshold: 5,
            cooldown: 8,
            probe_successes: 2,
        }
    }
}

impl BreakerConfig {
    /// Panics on degenerate configurations.
    pub fn validate(&self) {
        assert!(self.failure_threshold >= 1, "threshold must be >= 1");
        assert!(self.cooldown >= 1, "cooldown must be >= 1");
        assert!(self.probe_successes >= 1, "probe count must be >= 1");
    }
}

/// The three breaker states.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BreakerState {
    /// Calls flow normally; consecutive failures are counted.
    Closed,
    /// Calls are shed without being attempted.
    Open,
    /// Trial calls probe whether the backend recovered.
    HalfOpen,
}

impl BreakerState {
    /// Stable short label (used in telemetry events).
    pub fn label(self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half-open",
        }
    }
}

/// Per-model three-state circuit breaker (closed → open → half-open).
///
/// Driven in *question order* — [`allow`](CircuitBreaker::allow) is asked
/// once per question, then exactly one of
/// [`record_success`](CircuitBreaker::record_success) /
/// [`record_failure`](CircuitBreaker::record_failure) reports how the
/// attempt went.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CircuitBreaker {
    config: BreakerConfig,
    state: BreakerState,
    consecutive_failures: u32,
    shed_while_open: u32,
    probe_streak: u32,
    trips: u32,
}

impl CircuitBreaker {
    /// A closed breaker with the given tuning.
    pub fn new(config: BreakerConfig) -> Self {
        config.validate();
        CircuitBreaker {
            config,
            state: BreakerState::Closed,
            consecutive_failures: 0,
            shed_while_open: 0,
            probe_streak: 0,
            trips: 0,
        }
    }

    /// Current state.
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// How many times the breaker has opened.
    pub fn trips(&self) -> u32 {
        self.trips
    }

    /// Whether the next call may proceed. While open, sheds `cooldown`
    /// calls, then transitions to half-open and lets a probe through.
    pub fn allow(&mut self) -> bool {
        match self.state {
            BreakerState::Closed => true,
            BreakerState::HalfOpen => true,
            BreakerState::Open => {
                if self.shed_while_open >= self.config.cooldown {
                    self.state = BreakerState::HalfOpen;
                    self.probe_streak = 0;
                    true
                } else {
                    self.shed_while_open += 1;
                    false
                }
            }
        }
    }

    /// Reports a successful (non-terminal-failure) attempt.
    pub fn record_success(&mut self) {
        match self.state {
            BreakerState::Closed => self.consecutive_failures = 0,
            BreakerState::HalfOpen => {
                self.probe_streak += 1;
                if self.probe_streak >= self.config.probe_successes {
                    self.state = BreakerState::Closed;
                    self.consecutive_failures = 0;
                }
            }
            BreakerState::Open => unreachable!("open breaker allowed no call"),
        }
    }

    /// Reports a terminally failed attempt.
    pub fn record_failure(&mut self) {
        match self.state {
            BreakerState::Closed => {
                self.consecutive_failures += 1;
                if self.consecutive_failures >= self.config.failure_threshold {
                    self.trip();
                }
            }
            BreakerState::HalfOpen => self.trip(),
            BreakerState::Open => unreachable!("open breaker allowed no call"),
        }
    }

    fn trip(&mut self) {
        self.state = BreakerState::Open;
        self.shed_while_open = 0;
        self.probe_streak = 0;
        self.trips += 1;
    }
}

/// Questions per breaker window: the state-reset period of the
/// windowed breaker (see the module docs on determinism). Equal to
/// [`StreamCoord::WINDOW`](crate::fault::StreamCoord::WINDOW) — the
/// streamed call-site coordinate system names exactly these windows.
pub const BREAKER_WINDOW: usize = crate::fault::StreamCoord::WINDOW;

/// The windowed breaker: incremental per-window replay, advanced one
/// question at a time in global-index order by the engine's producer.
/// Holds O(1) state — exactly what a lazily generated collection
/// permits — so the same decisions fall out for a materialized bench
/// and a streamed spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowedBreaker {
    zero: bool,
    breaker: CircuitBreaker,
    next_index: usize,
    trips: u32,
}

impl WindowedBreaker {
    /// Cumulative breaker trips across every window so far.
    pub fn trips(&self) -> u32 {
        self.trips
    }

    /// Breaker state after the most recent decision (resets at window
    /// boundaries).
    pub fn state(&self) -> BreakerState {
        self.breaker.state()
    }

    /// Global index of the next question to be decided.
    pub fn next_index(&self) -> usize {
        self.next_index
    }
}

/// One question's breaker decision. The state change deciding it
/// caused travels with the question to the worker that evaluates it,
/// which reports it ([`Admit::report`]): the producer that decides makes
/// no clock-touching telemetry call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Admit {
    /// Whether the question is attempted (false: shed unattempted).
    pub(crate) allowed: bool,
    /// `(from, to)` when deciding changed the breaker state.
    transition: Option<(BreakerState, BreakerState)>,
    /// Whether the change opened the breaker.
    tripped: bool,
    /// Global index of the question (its window tags the event).
    index: usize,
}

impl Admit {
    /// Reports the decision: a state change emits one
    /// `stream.breaker.transition` event (tagged with the
    /// [`StreamCoord`] window) and bumps `stream.breaker.transitions`,
    /// plus `stream.breaker.trips` when it opened the breaker; a shed
    /// question bumps `stream.breaker.shed`.
    pub(crate) fn report(&self, tele: &Telemetry, fingerprint: u64, question_id: &str) {
        if !tele.enabled() {
            return;
        }
        if let Some((from, to)) = self.transition {
            tele.counter("stream.breaker.transitions", 1);
            tele.event(
                "stream.breaker.transition",
                vec![
                    kv("model_fingerprint", fingerprint),
                    kv("question", question_id),
                    kv("from", from.label()),
                    kv("to", to.label()),
                    kv("window", StreamCoord::of(self.index).window),
                ],
            );
        }
        if self.tripped {
            tele.counter("stream.breaker.trips", 1);
        }
        if !self.allowed {
            tele.counter("stream.breaker.shed", 1);
        }
    }
}

/// Supervised-execution policy: fault injection (for chaos runs),
/// [`DEADLINE_MS`], [`MAX_RETRIES`] and circuit breaking. Attach to a
/// [`ParallelExecutor`](crate::executor::ParallelExecutor) via
/// [`with_supervisor`](crate::executor::ParallelExecutor::with_supervisor).
#[derive(Debug, Clone, PartialEq)]
pub struct Supervisor {
    injector: FaultInjector,
}

impl Default for Supervisor {
    fn default() -> Self {
        Supervisor::new(FaultPlan::none())
    }
}

impl Supervisor {
    /// A supervisor injecting `plan`, with default breaker tuning.
    pub fn new(plan: FaultPlan) -> Self {
        Supervisor {
            injector: FaultInjector::new(plan),
        }
    }

    /// The fault plan being injected.
    pub fn plan(&self) -> &FaultPlan {
        self.injector.plan()
    }

    /// First-attempt health of one `(model, question)` cell: the terminal
    /// error the supervised first pass attempt would suffer, or `None`
    /// if it recovers. A pure function of the fault plan — no inference
    /// runs — which is what lets the producer decide breaker admits
    /// before any worker evaluates the question.
    pub fn question_health(&self, fingerprint: u64, question_id: &str) -> Option<EvalError> {
        for site in [CallSite::Inference, CallSite::Judge] {
            let mut last = None;
            for recovery in 0..=MAX_RETRIES {
                let drawn = self.injector.draw(CallKey {
                    fingerprint,
                    question_id,
                    site,
                    attempt: 0,
                    recovery,
                });
                match drawn {
                    None => {
                        last = None;
                        break;
                    }
                    Some(FaultKind::WorkerPanic) => return Some(EvalError::WorkerPanic),
                    Some(kind) => last = Some(kind),
                }
            }
            if let Some(kind) = last {
                return Some(self.error_for(kind));
            }
        }
        None
    }

    /// A [`WindowedBreaker`] positioned at the start of breaker window
    /// `window` (global index `window × BREAKER_WINDOW`). Because state
    /// resets at every window boundary, decisions from here on are
    /// identical to a breaker that walked the whole prefix — the
    /// order-independence resumed, healed and fleet-claimed shards rely
    /// on.
    pub fn stream_breaker_at(&self, window: usize) -> WindowedBreaker {
        WindowedBreaker {
            zero: self.plan().is_zero(),
            breaker: CircuitBreaker::new(BreakerConfig::default()),
            next_index: window * BREAKER_WINDOW,
            trips: 0,
        }
    }

    /// Decides the question at `wb`'s next global index: attempt it, or
    /// shed it. Must be called in global-index order (the producer's
    /// natural order). A zero plan admits everything without touching
    /// breaker state, so zero-plan supervised runs stay byte- and
    /// trace-identical to unsupervised ones. The evaluating worker
    /// [`report`](Admit::report)s the decision.
    pub(crate) fn decide(
        &self,
        wb: &mut WindowedBreaker,
        fingerprint: u64,
        question_id: &str,
    ) -> Admit {
        let index = wb.next_index;
        wb.next_index += 1;
        let mut admit = Admit {
            allowed: true,
            transition: None,
            tripped: false,
            index,
        };
        if wb.zero {
            return admit;
        }
        if index.is_multiple_of(BREAKER_WINDOW) {
            // window boundary: state resets, cumulative trips persist
            wb.breaker = CircuitBreaker::new(BreakerConfig::default());
        }
        let before = wb.breaker.state();
        let trips_before = wb.breaker.trips();
        admit.allowed = wb.breaker.allow();
        if admit.allowed {
            match self.question_health(fingerprint, question_id) {
                None => wb.breaker.record_success(),
                Some(_) => wb.breaker.record_failure(),
            }
        }
        let after = wb.breaker.state();
        admit.transition = (after != before).then_some((before, after));
        admit.tripped = wb.breaker.trips() > trips_before;
        if admit.tripped {
            wb.trips += 1;
        }
        admit
    }

    /// Supervised inference: the faultable, retried, cache-aware call.
    /// On success returns the *clean* answer (and only clean answers are
    /// ever inserted into the cache); on terminal failure returns the
    /// error plus any degraded response text (truncated/garbled evidence)
    /// for the report. The cached path is the only insertion route, so a
    /// cache backed by a persistent
    /// [`AnswerStore`](crate::store::AnswerStore) can never persist a
    /// faulted answer either — and the store independently re-checks
    /// the corruption markers in release builds as a second line of
    /// defence. Clean and degraded inference both read `question`'s
    /// legibility slots, and a clean one keys the cache with the prompt
    /// hash in `prompt_hash`; a degraded re-inference runs in an
    /// `inference.degraded` span.
    ///
    /// An injected [`FaultKind::WorkerPanic`] genuinely panics — the
    /// executor isolates it with `catch_unwind`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn infer(
        &self,
        pipe: &VlmPipeline,
        question: &Question,
        legibility: &LegibilitySlots,
        prompt_hash: &OnceLock<u64>,
        downsample: usize,
        attempt: u64,
        cache: Option<&AnswerCache>,
        tele: &Telemetry,
        dataset_fp: u64,
    ) -> Result<CachedAnswer, (EvalError, Option<String>)> {
        let clean = || {
            crate::executor::infer_cached_for(
                pipe,
                question,
                legibility,
                prompt_hash,
                downsample,
                attempt,
                cache,
                tele,
                dataset_fp,
            )
        };
        // Truncation/garbling corrupt a response that did arrive;
        // reproduce it (uncached!) so the degraded evidence is real. Any
        // other fault destroys the response, so there is none to infer.
        let degraded = |kind, key: CallKey<'_>| {
            if !matches!(kind, FaultKind::Truncated | FaultKind::Garbled) {
                return None;
            }
            let _span = tele.span("inference.degraded");
            let text = legibility
                .infer(pipe, question, downsample, attempt, tele)
                .text;
            self.injector.corrupt(kind, &text, key)
        };
        let site = (pipe.fingerprint(), CallSite::Inference, attempt);
        self.call(question, site, clean, degraded, tele)
    }

    /// One supervised call at `site` (model fingerprint, call site,
    /// attempt): a fault is drawn per recovery attempt until one draws
    /// clean and runs `clean`. Every fault is recorded; an injected
    /// [`FaultKind::WorkerPanic`] genuinely panics, any other fault keeps
    /// `faulted`'s evidence, and exhausting recovery returns the last
    /// fault's error with it.
    fn call<T, D>(
        &self,
        question: &Question,
        (fingerprint, site, attempt): (u64, CallSite, u64),
        clean: impl FnOnce() -> T,
        mut faulted: impl FnMut(FaultKind, CallKey<'_>) -> D,
        tele: &Telemetry,
    ) -> Result<T, (EvalError, D)> {
        let mut last = None;
        for recovery in 0..=MAX_RETRIES {
            if recovery > 0 {
                tele.counter("supervisor.retry", 1);
            }
            let key = CallKey {
                fingerprint,
                question_id: &question.id,
                site,
                attempt,
                recovery,
            };
            let Some(kind) = self.injector.draw(key) else {
                return Ok(clean());
            };
            self.note_fault(tele, kind, key);
            if kind == FaultKind::WorkerPanic {
                panic_any(InjectedPanic {
                    fingerprint,
                    question_id: question.id.clone(),
                })
            }
            last = Some((kind, faulted(kind, key)));
        }
        let (kind, evidence) = last.expect("at least one recovery attempt ran");
        Err((self.error_for(kind), evidence))
    }

    /// Records one injected fault: the `fault.injected` counter (plus
    /// `supervisor.deadline_overrun` for timeouts) and, when a sink is
    /// attached, a structured `fault.injected` event tagged with the
    /// plan seed and full call key.
    fn note_fault(&self, tele: &Telemetry, kind: FaultKind, key: CallKey<'_>) {
        if !tele.enabled() {
            return;
        }
        tele.counter("fault.injected", 1);
        if kind == FaultKind::Timeout {
            tele.counter("supervisor.deadline_overrun", 1);
        }
        tele.event(
            "fault.injected",
            vec![
                kv("kind", kind.label()),
                kv("site", key.site.label()),
                kv("question", key.question_id),
                kv("plan_seed", self.plan().seed),
                kv("model_fingerprint", key.fingerprint),
                kv("attempt", key.attempt),
                kv("recovery", key.recovery),
            ],
        );
    }

    /// One supervised judge verdict on one answer. Its draw key's
    /// attempt is 0 whichever pass@k attempt gave the answer, so every
    /// answer to one question meets the same judge faults.
    pub(crate) fn verdict(
        &self,
        judge: &dyn Judge,
        fingerprint: u64,
        question: &Question,
        response: &str,
        tele: &Telemetry,
    ) -> Result<bool, EvalError> {
        let clean = || judge.is_correct(question, response);
        let site = (fingerprint, CallSite::Judge, 0);
        self.call(question, site, clean, |_, _| (), tele)
            .map_err(|(e, ())| e)
    }

    fn error_for(&self, kind: FaultKind) -> EvalError {
        match kind {
            FaultKind::Timeout => EvalError::Timeout {
                deadline_ms: DEADLINE_MS,
            },
            FaultKind::Truncated => EvalError::Truncated,
            FaultKind::Garbled => EvalError::Garbled,
            FaultKind::RateLimited => EvalError::RateLimited,
            FaultKind::Transient => EvalError::Transient,
            FaultKind::WorkerPanic => EvalError::WorkerPanic,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{ParallelExecutor, ShardSource};
    use crate::harness::EvalOptions;
    use crate::judge::RuleJudge;
    use chipvqa_core::spec::DatasetSpec;
    use chipvqa_core::ChipVqa;
    use chipvqa_models::ModelZoo;

    /// The admit sequence a full run gives model `fp`: one breaker
    /// walking `bench` from the first question, in order.
    fn full_walk(sup: &Supervisor, fp: u64, bench: &ChipVqa) -> (Vec<bool>, WindowedBreaker) {
        let mut wb = sup.stream_breaker_at(0);
        let admits = bench
            .iter()
            .map(|q| sup.decide(&mut wb, fp, &q.id).allowed)
            .collect();
        (admits, wb)
    }

    #[test]
    fn breaker_walks_closed_open_halfopen_closed() {
        let mut b = CircuitBreaker::new(BreakerConfig {
            failure_threshold: 3,
            cooldown: 2,
            probe_successes: 2,
        });
        assert_eq!(b.state(), BreakerState::Closed);
        for _ in 0..3 {
            assert!(b.allow());
            b.record_failure();
        }
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.trips(), 1);

        // cooldown: two calls shed, then a half-open probe
        assert!(!b.allow());
        assert!(!b.allow());
        assert!(b.allow(), "probe after cooldown");
        assert_eq!(b.state(), BreakerState::HalfOpen);

        // two successful probes close it
        b.record_success();
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert!(b.allow());
        b.record_success();
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn failed_probe_reopens() {
        let mut b = CircuitBreaker::new(BreakerConfig {
            failure_threshold: 1,
            cooldown: 1,
            probe_successes: 1,
        });
        assert!(b.allow());
        b.record_failure();
        assert_eq!(b.state(), BreakerState::Open);
        assert!(!b.allow());
        assert!(b.allow(), "half-open probe");
        b.record_failure();
        assert_eq!(b.state(), BreakerState::Open, "failed probe reopens");
        assert_eq!(b.trips(), 2);
    }

    #[test]
    fn success_resets_consecutive_failures() {
        let mut b = CircuitBreaker::new(BreakerConfig {
            failure_threshold: 2,
            cooldown: 1,
            probe_successes: 1,
        });
        assert!(b.allow());
        b.record_failure();
        assert!(b.allow());
        b.record_success();
        assert!(b.allow());
        b.record_failure();
        assert_eq!(b.state(), BreakerState::Closed, "streak was broken");
    }

    #[test]
    fn zero_plan_run_attempts_everything() {
        let bench = ChipVqa::standard();
        let pipe = VlmPipeline::new(ModelZoo::gpt4o());
        let tele = Telemetry::recording();
        let report = ParallelExecutor::new(2)
            .with_supervisor(Supervisor::new(FaultPlan::none()))
            .with_telemetry(tele.clone())
            .evaluate(&pipe, &bench, EvalOptions::default());
        assert_eq!(report.breaker_skipped(), 0);
        let snap = tele.snapshot();
        for name in [
            "stream.breaker.shed",
            "stream.breaker.trips",
            "stream.breaker.transitions",
        ] {
            assert!(
                !snap.counters.contains_key(name),
                "zero plan counted {name}"
            );
        }
    }

    #[test]
    fn broken_model_trips_breaker_and_sheds_most_of_the_run() {
        let bench = ChipVqa::standard();
        let fp = 0xfeed_beef;
        let sup = Supervisor::new(FaultPlan::none().with_broken_model(fp));
        let (admits, wb) = full_walk(&sup, fp, &bench);
        let shed = admits.iter().filter(|&&a| !a).count();
        assert!(wb.trips() >= 1, "breaker must open");
        assert!(
            shed > bench.len() / 2,
            "most of a dead model's grid is shed, got {shed}"
        );
        // per window, attempts are bounded by threshold + periodic
        // probes; the windowed reset restarts that budget each window
        let attempted = bench.len() - shed;
        let cfg = BreakerConfig::default();
        let per_window =
            cfg.failure_threshold as usize + BREAKER_WINDOW / (cfg.cooldown as usize + 1) + 1;
        let max_attempted = per_window * bench.len().div_ceil(BREAKER_WINDOW);
        assert!(
            attempted <= max_attempted,
            "{attempted} attempted > bound {max_attempted}"
        );
        // a healthy model on the same plan is untouched
        assert!(full_walk(&sup, 0x1, &bench).0.iter().all(|&a| a));
    }

    #[test]
    fn engine_admits_match_a_full_walk_for_any_selection() {
        // A resumed, healed or fleet-claimed selection gets exactly the
        // decisions a full run gives it — including selections starting
        // mid-window (shard_len 17) and 142-question shards straddling
        // the 16-question windows — for every model of a grid.
        crate::fault::install_quiet_panic_hook();
        let pipes: Vec<VlmPipeline> = [ModelZoo::gpt4o(), ModelZoo::fuyu_8b()]
            .into_iter()
            .map(VlmPipeline::new)
            .collect();
        let spec = DatasetSpec::scaled(2);
        let bench = spec.build();
        for plan in [
            FaultPlan::none().with_broken_model(pipes[1].fingerprint()),
            FaultPlan::uniform(7, 0.08),
            FaultPlan::uniform(20_260_806, 0.15),
        ] {
            let sup = Supervisor::new(plan);
            let full: Vec<Vec<bool>> = pipes
                .iter()
                .map(|p| full_walk(&sup, p.fingerprint(), &bench).0)
                .collect();
            let exec = ParallelExecutor::new(2).with_supervisor(sup);
            for (shard_len, from) in [(17, 51), (142, 142), (1, 100)] {
                let picked = |k: &crate::executor::ShardKey| {
                    k.q_start >= from && k.q_start < from + 2 * shard_len
                };
                let source = ShardSource::Spec(&spec, shard_len);
                let finished = std::sync::Mutex::new(Vec::new());
                let sink = |key, outcomes| finished.lock().unwrap().push((key, outcomes));
                exec.run(
                    &pipes,
                    source,
                    EvalOptions::default(),
                    &RuleJudge::new(),
                    &picked,
                    &mut |_| false,
                    &sink,
                );
                let finished = finished.into_inner().unwrap();
                let selected = source
                    .plan(pipes.len())
                    .iter()
                    .filter(|k| picked(k))
                    .count();
                assert_eq!(finished.len(), selected);
                for (key, outcomes) in finished {
                    for (offset, outcome) in outcomes.iter().enumerate() {
                        let index = key.q_start + offset;
                        assert_eq!(
                            outcome.error == Some(EvalError::BreakerOpen),
                            !full[key.model_idx][index],
                            "model {} question {index} (shard_len {shard_len})",
                            key.model_idx
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn windows_are_order_independent() {
        // Deciding a window with a breaker positioned directly at its
        // start yields the same admits as one that walked the whole
        // prefix — the property that lets a streamed requeue re-decide
        // only quarantined shards.
        let bench = ChipVqa::standard();
        let fp = 0x51ac;
        let sup = Supervisor::new(FaultPlan::uniform(11, 0.15));
        let mut full = sup.stream_breaker_at(0);
        let all: Vec<bool> = bench
            .iter()
            .map(|q| sup.decide(&mut full, fp, &q.id).allowed)
            .collect();
        for window in 0..bench.len().div_ceil(BREAKER_WINDOW) {
            let start = window * BREAKER_WINDOW;
            let end = (start + BREAKER_WINDOW).min(bench.len());
            let mut wb = sup.stream_breaker_at(window);
            assert_eq!(wb.next_index(), start);
            let alone: Vec<bool> = bench.questions()[start..end]
                .iter()
                .map(|q| sup.decide(&mut wb, fp, &q.id).allowed)
                .collect();
            assert_eq!(
                alone,
                all[start..end],
                "window {window} depends on its prefix"
            );
        }
    }

    /// Legibility slots for `pipe` alone on `q`, at native resolution.
    fn slots(pipe: &VlmPipeline, q: &Question) -> LegibilitySlots {
        LegibilitySlots::new(q, std::slice::from_ref(pipe), 1)
    }

    #[test]
    fn zero_plan_admits_everything_without_breaker_state() {
        let bench = ChipVqa::standard();
        let sup = Supervisor::new(FaultPlan::none());
        let mut wb = sup.stream_breaker_at(0);
        for q in bench.iter() {
            assert!(sup.decide(&mut wb, 99, &q.id).allowed);
        }
        assert_eq!(wb.trips(), 0);
        assert_eq!(wb.state(), BreakerState::Closed);
        assert_eq!(wb.next_index(), bench.len());
    }

    #[test]
    fn question_health_is_pure_and_deterministic() {
        let sup = Supervisor::new(FaultPlan::uniform(3, 0.08));
        let a = sup.question_health(42, "digital-001");
        let b = sup.question_health(42, "digital-001");
        assert_eq!(a, b);
    }

    #[test]
    fn supervised_infer_zero_plan_matches_plain_inference() {
        let bench = ChipVqa::standard();
        let pipe = chipvqa_models::VlmPipeline::new(ModelZoo::gpt4o());
        let sup = Supervisor::new(FaultPlan::none());
        let q = &bench.questions()[0];
        let supervised = sup
            .infer(
                &pipe,
                q,
                &slots(&pipe, q),
                &OnceLock::new(),
                1,
                0,
                None,
                &Telemetry::disabled(),
                0,
            )
            .expect("no faults");
        let plain = pipe.infer(q, 1, 0);
        assert_eq!(supervised.text, plain.text);
        assert_eq!(supervised.path, plain.path);
    }

    #[test]
    fn exhausted_retries_surface_structured_errors() {
        let bench = ChipVqa::standard();
        let pipe = chipvqa_models::VlmPipeline::new(ModelZoo::gpt4o());
        let sup = Supervisor::new(FaultPlan::none().with_broken_model(pipe.fingerprint()));
        let q = &bench.questions()[0];
        let (err, degraded) = sup
            .infer(
                &pipe,
                q,
                &slots(&pipe, q),
                &OnceLock::new(),
                1,
                0,
                None,
                &Telemetry::disabled(),
                0,
            )
            .unwrap_err();
        assert_eq!(err, EvalError::Transient);
        assert_eq!(degraded, None, "transient errors leave no evidence");
        // judge calls for the same broken model still work
        let ok = sup
            .verdict(
                &RuleJudge::new(),
                pipe.fingerprint(),
                q,
                &q.golden_text(),
                &Telemetry::disabled(),
            )
            .expect("judge path unaffected by broken model");
        assert!(ok);
    }

    #[test]
    fn timeout_records_the_deadline() {
        let bench = ChipVqa::standard();
        let pipe = chipvqa_models::VlmPipeline::new(ModelZoo::kosmos_2());
        let sup = Supervisor::new(FaultPlan {
            timeout_rate: 1.0,
            ..FaultPlan::none()
        });
        let q = &bench.questions()[3];
        let (err, _) = sup
            .infer(
                &pipe,
                q,
                &slots(&pipe, q),
                &OnceLock::new(),
                1,
                0,
                None,
                &Telemetry::disabled(),
                0,
            )
            .unwrap_err();
        assert_eq!(
            err,
            EvalError::Timeout {
                deadline_ms: DEADLINE_MS
            }
        );
        assert_eq!(err.label(), "timeout");
    }

    #[test]
    fn traced_run_emits_stream_breaker_transitions() {
        use chipvqa_telemetry::{MemorySink, MockClock};
        use std::sync::Arc;

        let bench = ChipVqa::standard();
        let pipe = VlmPipeline::new(ModelZoo::gpt4o());
        let fp = pipe.fingerprint();
        let sup = Supervisor::new(FaultPlan::none().with_broken_model(fp));
        let (admits, wb) = full_walk(&sup, fp, &bench);
        let sink = Arc::new(MemorySink::new());
        let tele = chipvqa_telemetry::Telemetry::builder()
            .clock(MockClock::new(1))
            .sink(Arc::clone(&sink))
            .build();
        let report = ParallelExecutor::new(1)
            .with_supervisor(sup)
            .with_telemetry(tele.clone())
            .evaluate(&pipe, &bench, EvalOptions::default());
        let snap = tele.snapshot();
        assert!(snap.counters["stream.breaker.trips"] >= 1);
        assert_eq!(
            snap.counters["stream.breaker.trips"],
            u64::from(wb.trips()),
            "counter matches the full walk's trip count"
        );
        let shed = admits.iter().filter(|&&a| !a).count();
        assert_eq!(snap.counters["stream.breaker.shed"] as usize, shed);
        assert_eq!(report.breaker_skipped(), shed);
        assert!(
            !snap.counters.contains_key("breaker.trips"),
            "one namespace for every source"
        );
        let transitions = sink.named("stream.breaker.transition");
        assert!(!transitions.is_empty());
        assert_eq!(transitions[0].get("from"), Some("closed"));
        assert_eq!(transitions[0].get("to"), Some("open"));
        assert_eq!(transitions[0].get("window"), Some("0"));
    }

    #[test]
    fn injected_faults_are_recorded_as_events() {
        use chipvqa_telemetry::{MemorySink, MockClock};
        use std::sync::Arc;

        let bench = ChipVqa::standard();
        let pipe = chipvqa_models::VlmPipeline::new(ModelZoo::gpt4o());
        let sup = Supervisor::new(FaultPlan {
            timeout_rate: 1.0,
            seed: 9,
            ..FaultPlan::none()
        });
        let sink = Arc::new(MemorySink::new());
        let tele = chipvqa_telemetry::Telemetry::builder()
            .clock(MockClock::new(1))
            .sink(Arc::clone(&sink))
            .build();
        let q = &bench.questions()[0];
        let (err, _) = sup
            .infer(
                &pipe,
                q,
                &slots(&pipe, q),
                &OnceLock::new(),
                1,
                0,
                None,
                &tele,
                0,
            )
            .unwrap_err();
        assert!(matches!(err, EvalError::Timeout { .. }));
        let snap = tele.snapshot();
        let draws = MAX_RETRIES + 1;
        assert_eq!(
            snap.counters["fault.injected"], draws,
            "one per recovery draw"
        );
        assert_eq!(snap.counters["supervisor.deadline_overrun"], draws);
        assert_eq!(snap.counters["supervisor.retry"], MAX_RETRIES);
        let events = sink.named("fault.injected");
        assert_eq!(events.len() as u64, draws);
        assert_eq!(events[0].get("kind"), Some("timeout"));
        assert_eq!(events[0].get("site"), Some("inference"));
        assert_eq!(events[0].get("plan_seed"), Some("9"));
        assert_eq!(events[0].get("question"), Some(q.id.as_str()));
    }

    #[test]
    fn eval_error_serde_roundtrip() {
        for err in [
            EvalError::Timeout { deadline_ms: 500 },
            EvalError::Truncated,
            EvalError::Garbled,
            EvalError::RateLimited,
            EvalError::Transient,
            EvalError::WorkerPanic,
            EvalError::BreakerOpen,
        ] {
            let json = serde_json::to_string(&err).expect("serializes");
            let back: EvalError = serde_json::from_str(&json).expect("deserializes");
            assert_eq!(back, err);
            assert!(!err.label().is_empty());
            assert!(!err.to_string().is_empty());
        }
    }
}
