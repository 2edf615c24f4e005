//! The resident evaluation service.
//!
//! [`EvalService`] owns a fixed pool of **runner** threads, an
//! [`AdmissionController`] guarding a bounded run queue, one shared
//! [`AnswerCache`] (optionally backed by a persistent
//! [`AnswerStore`](chipvqa_eval::AnswerStore)), a [`ProgressHub`]
//! broadcasting per-shard events, and a heartbeat thread watching for
//! stalls. Sessions are submitted with [`EvalService::submit`], move
//! through Queued → Admitted → Running → terminal, and can be
//! cancelled and resumed at shard-batch granularity.
//!
//! ## Determinism
//!
//! Every session runs on the executor's checkpointed engine
//! ([`ParallelExecutor::evaluate_checkpointed`]) over its spec streamed
//! at `stream_shard_len` (default [`SHARD_SIZE`], the shard plan of a
//! built bench), never materialized. The request's `fault_plan`, if
//! any, attaches a supervisor. The engine
//! polls a stop hook before each shard dispatch; the hook paces the run
//! (`step_delay` every `shard_batch` shards) and checks the cancel flag
//! there. Cancellation therefore never tears a shard: the retained
//! [`Checkpoint`] holds only whole-shard results, and a resumed session
//! runs exactly the missing shards, so its report is byte-identical to
//! an uninterrupted run — the same merge-is-positional argument the
//! fleet subsystem relies on. The shared cache plane adds speed, never
//! content: answers are keyed on (model fingerprint, spec fingerprint,
//! question, prompt, resolution), so concurrent sessions over the same
//! model and collection share inference without observing each other,
//! and sessions over different collections never share an answer.
//!
//! ## Backpressure
//!
//! Submissions are never silently dropped and never block: they are
//! queued, or shed immediately with a structured
//! [`ShedReason`]. See [`crate::admission`] for the policy.
//!
//! ## Shutdown
//!
//! [`EvalService::shutdown`] (also run on drop) stops admission, asks
//! in-flight sessions to cancel at their next batch boundary, joins
//! every runner (executor workers are scoped threads — joining the
//! runner joins them transitively) and the heartbeat, cancels the
//! still-queued backlog, and flushes the answer store. No torn tail:
//! a store written through a graceful shutdown recovers zero segments
//! on reopen.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::Receiver;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use chipvqa_eval::cache::AnswerCache;
use chipvqa_eval::checkpoint::Checkpoint;
use chipvqa_eval::executor::{ParallelExecutor, ShardSource, SHARD_SIZE};
use chipvqa_eval::judge::RuleJudge;
use chipvqa_eval::store::AnswerStore;
use chipvqa_eval::CacheStats;
use chipvqa_models::VlmPipeline;
use serde::{Deserialize, Serialize};

use crate::admission::{
    AdmissionConfig, AdmissionController, AdmissionStats, SessionOutcome, ShedReason,
};
use crate::progress::{session_progress_telemetry, ProgressEvent, ProgressHub};
use crate::session::{
    SessionError, SessionId, SessionReport, SessionRequest, SessionSnapshot, SessionState,
};

/// Service tuning.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Executor workers per running session.
    pub workers: usize,
    /// Concurrent session runners (sessions evaluated at once).
    pub runners: usize,
    /// Admission policy (queue bound, quotas, breakers).
    pub admission: AdmissionConfig,
    /// Shards dispatched per step; the cancel flag is checked between
    /// steps, so this is the cancellation (and shutdown) granularity.
    pub shard_batch: usize,
    /// Optional pause between steps — a pacing knob for tests and load
    /// shaping; zero (the default) runs flat out.
    pub step_delay: Duration,
    /// Heartbeat cadence (stall detection, liveness counter).
    pub heartbeat_interval: Duration,
    /// A running session with no shard progress for this long gets a
    /// [`ProgressEvent::Stalled`] from the heartbeat.
    pub stall_after: Duration,
    /// Back the shared answer cache with a persistent
    /// [`AnswerStore`](chipvqa_eval::AnswerStore) at this directory.
    pub store_dir: Option<std::path::PathBuf>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 4,
            runners: 2,
            admission: AdmissionConfig::default(),
            shard_batch: 4,
            step_delay: Duration::ZERO,
            heartbeat_interval: Duration::from_millis(25),
            stall_after: Duration::from_secs(5),
            store_dir: None,
        }
    }
}

impl ServiceConfig {
    /// Panics on degenerate configurations.
    pub fn validate(&self) {
        assert!(self.workers >= 1, "workers must be >= 1");
        assert!(self.runners >= 1, "runners must be >= 1");
        assert!(self.shard_batch >= 1, "shard_batch must be >= 1");
        assert!(
            self.heartbeat_interval > Duration::ZERO,
            "heartbeat_interval must be positive"
        );
        self.admission.validate();
    }
}

/// Point-in-time service counters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServiceStats {
    /// Sessions accepted by [`EvalService::submit`].
    pub submitted: u64,
    /// Sessions that reached [`SessionState::Done`].
    pub completed: u64,
    /// Sessions that reached [`SessionState::Cancelled`].
    pub cancelled: u64,
    /// Sessions that reached [`SessionState::Failed`].
    pub failed: u64,
    /// Successful [`EvalService::resume`] calls.
    pub resumed: u64,
    /// Sessions currently queued.
    pub queue_depth: usize,
    /// Sessions currently running.
    pub running: usize,
    /// Heartbeat ticks since start.
    pub heartbeats: u64,
    /// Admission counters (sheds by reason, breaker trips).
    pub admission: AdmissionStats,
}

/// One tracked session.
struct SessionEntry {
    request: SessionRequest,
    state: SessionState,
    /// Set to ask the runner to stop at the next batch boundary.
    cancel: Arc<AtomicBool>,
    /// Retained across cancellation; consumed on the next run.
    checkpoint: Option<Checkpoint>,
    report: Option<SessionReport>,
    error: Option<String>,
    shards_done: Arc<AtomicUsize>,
    shards_total: usize,
    /// Bumped by the progress sink on every shard; the heartbeat's
    /// stall detector watches it.
    progress_epoch: Arc<AtomicU64>,
    submitted_at: Instant,
    queue_wait_ns: Option<u64>,
    total_ns: Option<u64>,
}

impl SessionEntry {
    fn snapshot(&self, id: SessionId) -> SessionSnapshot {
        SessionSnapshot {
            id,
            tenant: self.request.tenant.clone(),
            state: self.state,
            shards_done: self.shards_done.load(Ordering::SeqCst),
            shards_total: self.shards_total,
            queue_wait_ns: self.queue_wait_ns,
            total_ns: self.total_ns,
            error: self.error.clone(),
        }
    }
}

/// State under the single service lock.
struct State {
    admission: AdmissionController,
    sessions: HashMap<SessionId, SessionEntry>,
    next_id: u64,
    submitted: u64,
    completed: u64,
    cancelled: u64,
    failed: u64,
    resumed: u64,
}

/// Everything the runner and heartbeat threads share with the handle.
struct Shared {
    config: ServiceConfig,
    state: Mutex<State>,
    /// Signalled when the queue may have admittable work (submit,
    /// resume, a freed run slot, shutdown).
    work_cv: Condvar,
    /// Signalled on every terminal transition (for [`EvalService::wait`]).
    done_cv: Condvar,
    /// Signalled to wake the heartbeat early (shutdown).
    hb_gate: Mutex<()>,
    hb_cv: Condvar,
    stop: AtomicBool,
    hub: Arc<ProgressHub>,
    cache: Arc<AnswerCache>,
    heartbeats: AtomicU64,
}

/// Poison-tolerant lock (a panicking runner must not wedge the
/// service handle).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

impl Shared {
    fn publish_state(&self, session: SessionId, state: SessionState) {
        self.hub.publish(ProgressEvent::State { session, state });
    }
}

/// The resident evaluation service. See the module docs.
pub struct EvalService {
    shared: Arc<Shared>,
    runners: Vec<std::thread::JoinHandle<()>>,
    heartbeat: Option<std::thread::JoinHandle<()>>,
}

impl EvalService {
    /// Starts a service with default tuning (no persistent store).
    pub fn new() -> EvalService {
        EvalService::start(ServiceConfig::default()).expect("no store configured: cannot fail")
    }

    /// Starts runners and the heartbeat. Fails only when the
    /// configured answer store cannot be opened.
    pub fn start(config: ServiceConfig) -> std::io::Result<EvalService> {
        config.validate();
        let mut cache = AnswerCache::new();
        if let Some(dir) = &config.store_dir {
            cache = cache.with_store(Arc::new(AnswerStore::open(dir)?));
        }
        let runners = config.runners;
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                admission: AdmissionController::new(config.admission.clone()),
                sessions: HashMap::new(),
                next_id: 1,
                submitted: 0,
                completed: 0,
                cancelled: 0,
                failed: 0,
                resumed: 0,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            hb_gate: Mutex::new(()),
            hb_cv: Condvar::new(),
            stop: AtomicBool::new(false),
            hub: Arc::new(ProgressHub::new()),
            cache: Arc::new(cache),
            heartbeats: AtomicU64::new(0),
            config,
        });
        let runner_handles = (0..runners)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("serve-runner-{i}"))
                    .spawn(move || runner_loop(&shared))
                    .expect("spawn runner")
            })
            .collect();
        let heartbeat = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("serve-heartbeat".to_string())
                .spawn(move || heartbeat_loop(&shared))
                .expect("spawn heartbeat")
        };
        Ok(EvalService {
            shared,
            runners: runner_handles,
            heartbeat: Some(heartbeat),
        })
    }

    /// Submits a session. Returns immediately: the id on acceptance, a
    /// structured [`ShedReason`] otherwise — never blocks, never
    /// silently drops.
    pub fn submit(&self, request: SessionRequest) -> Result<SessionId, ShedReason> {
        if self.shared.stop.load(Ordering::SeqCst) {
            return Err(ShedReason::ShuttingDown);
        }
        let mut st = lock(&self.shared.state);
        let id = SessionId(st.next_id);
        st.admission.offer(id, &request.tenant)?;
        st.next_id += 1;
        st.submitted += 1;
        st.sessions.insert(
            id,
            SessionEntry {
                request,
                state: SessionState::Queued,
                cancel: Arc::new(AtomicBool::new(false)),
                checkpoint: None,
                report: None,
                error: None,
                shards_done: Arc::new(AtomicUsize::new(0)),
                shards_total: 0,
                progress_epoch: Arc::new(AtomicU64::new(0)),
                submitted_at: Instant::now(),
                queue_wait_ns: None,
                total_ns: None,
            },
        );
        self.shared.publish_state(id, SessionState::Queued);
        drop(st);
        self.shared.work_cv.notify_all();
        Ok(id)
    }

    /// Asks a session to stop. Queued sessions cancel immediately;
    /// admitted/running sessions cancel at their next shard-batch
    /// boundary (their checkpoint is retained for [`resume`](Self::resume)).
    pub fn cancel(&self, id: SessionId) -> Result<(), SessionError> {
        let mut st = lock(&self.shared.state);
        let entry = st
            .sessions
            .get(&id)
            .ok_or(SessionError::UnknownSession(id))?;
        if entry.state.is_terminal() {
            return Err(SessionError::AlreadyTerminal(id, entry.state));
        }
        if entry.state == SessionState::Queued {
            st.admission.remove_queued(id);
            let entry = st.sessions.get_mut(&id).expect("present above");
            entry.state = SessionState::Cancelled;
            entry.total_ns = Some(entry.submitted_at.elapsed().as_nanos() as u64);
            st.cancelled += 1;
            self.shared.publish_state(id, SessionState::Cancelled);
            drop(st);
            self.shared.done_cv.notify_all();
        } else {
            entry.cancel.store(true, Ordering::SeqCst);
        }
        Ok(())
    }

    /// Re-queues a cancelled session through admission control. The
    /// retained checkpoint makes the rerun skip completed shards, and
    /// the final report is byte-identical to an uninterrupted run.
    pub fn resume(&self, id: SessionId) -> Result<(), SessionError> {
        if self.shared.stop.load(Ordering::SeqCst) {
            return Err(SessionError::Shed(ShedReason::ShuttingDown));
        }
        let mut st = lock(&self.shared.state);
        let entry = st
            .sessions
            .get(&id)
            .ok_or(SessionError::UnknownSession(id))?;
        if entry.state != SessionState::Cancelled {
            return Err(SessionError::NotResumable(id, entry.state));
        }
        let tenant = entry.request.tenant.clone();
        st.admission.offer(id, &tenant)?;
        let entry = st.sessions.get_mut(&id).expect("present above");
        entry.state = SessionState::Queued;
        entry.cancel.store(false, Ordering::SeqCst);
        entry.submitted_at = Instant::now();
        entry.queue_wait_ns = None;
        entry.total_ns = None;
        st.resumed += 1;
        self.shared.publish_state(id, SessionState::Queued);
        drop(st);
        self.shared.work_cv.notify_all();
        Ok(())
    }

    /// Blocks until the session reaches a terminal state, up to
    /// `timeout`.
    pub fn wait(&self, id: SessionId, timeout: Duration) -> Result<SessionState, SessionError> {
        let deadline = Instant::now() + timeout;
        let mut st = lock(&self.shared.state);
        loop {
            let state = st
                .sessions
                .get(&id)
                .ok_or(SessionError::UnknownSession(id))?
                .state;
            if state.is_terminal() {
                return Ok(state);
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(SessionError::Timeout(id));
            }
            st = self
                .shared
                .done_cv
                .wait_timeout(st, deadline - now)
                .unwrap_or_else(|poisoned| poisoned.into_inner())
                .0;
        }
    }

    /// The session's current state.
    pub fn state(&self, id: SessionId) -> Result<SessionState, SessionError> {
        Ok(self.snapshot(id)?.state)
    }

    /// A point-in-time view of the session.
    pub fn snapshot(&self, id: SessionId) -> Result<SessionSnapshot, SessionError> {
        let st = lock(&self.shared.state);
        st.sessions
            .get(&id)
            .map(|e| e.snapshot(id))
            .ok_or(SessionError::UnknownSession(id))
    }

    /// The finished report of a [`Done`](SessionState::Done) session.
    pub fn report(&self, id: SessionId) -> Result<SessionReport, SessionError> {
        let st = lock(&self.shared.state);
        let entry = st
            .sessions
            .get(&id)
            .ok_or(SessionError::UnknownSession(id))?;
        entry
            .report
            .clone()
            .ok_or(SessionError::NoReport(id, entry.state))
    }

    /// Subscribes to the progress stream (full backlog, then live).
    pub fn subscribe(&self) -> Receiver<ProgressEvent> {
        self.shared.hub.subscribe()
    }

    /// Service counters.
    pub fn stats(&self) -> ServiceStats {
        let st = lock(&self.shared.state);
        ServiceStats {
            submitted: st.submitted,
            completed: st.completed,
            cancelled: st.cancelled,
            failed: st.failed,
            resumed: st.resumed,
            queue_depth: st.admission.queue_depth(),
            running: st.admission.running_total(),
            heartbeats: self.shared.heartbeats.load(Ordering::SeqCst),
            admission: st.admission.stats().clone(),
        }
    }

    /// Traffic counters of the shared answer cache.
    pub fn cache_stats(&self) -> CacheStats {
        self.shared.cache.stats()
    }

    /// The service's tuning.
    pub fn config(&self) -> &ServiceConfig {
        &self.shared.config
    }

    /// Graceful stop: no new admissions, in-flight sessions cancel at
    /// their next batch boundary (checkpoints retained), every runner
    /// and the heartbeat are joined, the queued backlog is cancelled,
    /// and the answer store is flushed. Idempotent; also runs on drop.
    pub fn shutdown(&mut self) -> std::io::Result<()> {
        self.shared.stop.store(true, Ordering::SeqCst);
        self.shared.work_cv.notify_all();
        self.shared.hb_cv.notify_all();
        for handle in self.runners.drain(..) {
            let _ = handle.join();
        }
        if let Some(handle) = self.heartbeat.take() {
            let _ = handle.join();
        }
        // Runners are gone: cancel whatever never got admitted.
        let drained = {
            let mut st = lock(&self.shared.state);
            let drained = st.admission.drain_queue();
            for (id, _) in &drained {
                if let Some(entry) = st.sessions.get_mut(id) {
                    entry.state = SessionState::Cancelled;
                    entry.total_ns = Some(entry.submitted_at.elapsed().as_nanos() as u64);
                    st.cancelled += 1;
                }
            }
            drained
        };
        for (id, _) in drained {
            self.shared.publish_state(id, SessionState::Cancelled);
        }
        self.shared.done_cv.notify_all();
        self.shared.cache.flush_store()
    }
}

impl Default for EvalService {
    fn default() -> Self {
        EvalService::new()
    }
}

impl Drop for EvalService {
    /// Drop-guard: dropping the handle is a graceful shutdown, so no
    /// executor worker or heartbeat thread outlives the service and
    /// the store tail is flushed even when the owner forgets to call
    /// [`EvalService::shutdown`].
    fn drop(&mut self) {
        let _ = self.shutdown();
    }
}

/// One runner: admit → run → settle, until shutdown.
fn runner_loop(shared: &Shared) {
    loop {
        let admitted = {
            let mut st = lock(&shared.state);
            loop {
                if shared.stop.load(Ordering::SeqCst) {
                    break None;
                }
                if let Some(next) = st.admission.admit_next() {
                    break Some(next);
                }
                st = shared
                    .work_cv
                    .wait_timeout(st, Duration::from_millis(50))
                    .unwrap_or_else(|poisoned| poisoned.into_inner())
                    .0;
            }
        };
        let Some((id, tenant)) = admitted else { return };
        run_session(shared, id, &tenant);
        // A freed run slot may unblock a quota-skipped queue entry.
        shared.work_cv.notify_all();
    }
}

/// Runs one admitted session to a terminal state.
fn run_session(shared: &Shared, id: SessionId, tenant: &str) {
    // Claim the entry's run context under the lock, then work unlocked.
    let (request, cancel, taken_checkpoint, shards_done, epoch) = {
        let mut st = lock(&shared.state);
        let entry = st.sessions.get_mut(&id).expect("admitted session exists");
        entry.state = SessionState::Admitted;
        entry.queue_wait_ns = Some(entry.submitted_at.elapsed().as_nanos() as u64);
        shared.publish_state(id, SessionState::Admitted);
        (
            entry.request.clone(),
            Arc::clone(&entry.cancel),
            entry.checkpoint.take(),
            Arc::clone(&entry.shards_done),
            Arc::clone(&entry.progress_epoch),
        )
    };

    if request.models.is_empty() {
        finish_failed(shared, id, tenant, "session has no models".to_string());
        return;
    }
    let pipes: Vec<VlmPipeline> = request
        .models
        .iter()
        .cloned()
        .map(VlmPipeline::new)
        .collect();
    let options = request.options;
    let shard_len = request.stream_shard_len.unwrap_or(SHARD_SIZE);
    if shard_len == 0 {
        let error = "stream_shard_len must be >= 1".to_string();
        return finish_failed(shared, id, tenant, error);
    }
    let source = ShardSource::Spec(&request.spec, shard_len);

    let shards_total = source.plan(pipes.len()).len();
    let resumed_shards = taken_checkpoint
        .as_ref()
        .map_or(0, Checkpoint::completed_shards);
    shards_done.store(resumed_shards, Ordering::SeqCst);
    {
        let mut st = lock(&shared.state);
        let entry = st.sessions.get_mut(&id).expect("admitted session exists");
        entry.shards_total = shards_total;
        entry.state = SessionState::Running;
        shared.publish_state(id, SessionState::Running);
    }

    let telemetry = session_progress_telemetry(
        Arc::clone(&shared.hub),
        id,
        shards_total,
        shards_done,
        epoch,
    );
    let mut executor = ParallelExecutor::new(shared.config.workers)
        .with_cache(Arc::clone(&shared.cache))
        .with_telemetry(telemetry);
    if let Some(plan) = &request.fault_plan {
        executor = executor.with_supervisor(chipvqa_eval::Supervisor::new(plan.clone()));
    }
    // polled before every dispatch: a step boundary every `shard_batch`
    // shards paces the run and checks for cancellation
    let config = &shared.config;
    let mut stop = |dispatched: usize| {
        if !dispatched.is_multiple_of(config.shard_batch) {
            return false;
        }
        if dispatched > 0 && config.step_delay > Duration::ZERO {
            std::thread::sleep(config.step_delay);
        }
        cancel.load(Ordering::SeqCst) || shared.stop.load(Ordering::SeqCst)
    };
    let judge = RuleJudge::new();
    // a resumed checkpoint that no longer matches its models,
    // collection, options or shard plan is refused by the engine
    let mut checkpoint =
        taken_checkpoint.unwrap_or_else(|| Checkpoint::for_source(&pipes, source, options));
    match executor.evaluate_checkpointed(
        &pipes,
        source,
        options,
        &judge,
        &mut checkpoint,
        &mut stop,
    ) {
        Ok(Some(reports)) => finish_done(shared, id, tenant, SessionReport::new(reports)),
        Ok(None) => finish_cancelled(shared, id, tenant, checkpoint),
        Err(e) => finish_failed(shared, id, tenant, format!("resume refused: {e}")),
    }
}

fn finish_done(shared: &Shared, id: SessionId, tenant: &str, report: SessionReport) {
    let mut st = lock(&shared.state);
    let entry = st.sessions.get_mut(&id).expect("running session exists");
    entry.state = SessionState::Done;
    entry.report = Some(report);
    entry.checkpoint = None;
    entry.total_ns = Some(entry.submitted_at.elapsed().as_nanos() as u64);
    st.completed += 1;
    st.admission.settle(tenant, SessionOutcome::Success);
    shared.publish_state(id, SessionState::Done);
    drop(st);
    shared.done_cv.notify_all();
}

fn finish_cancelled(shared: &Shared, id: SessionId, tenant: &str, checkpoint: Checkpoint) {
    let mut st = lock(&shared.state);
    let entry = st.sessions.get_mut(&id).expect("running session exists");
    entry.state = SessionState::Cancelled;
    entry.checkpoint = Some(checkpoint);
    entry.total_ns = Some(entry.submitted_at.elapsed().as_nanos() as u64);
    st.cancelled += 1;
    st.admission.settle(tenant, SessionOutcome::Neutral);
    shared.publish_state(id, SessionState::Cancelled);
    drop(st);
    shared.done_cv.notify_all();
}

fn finish_failed(shared: &Shared, id: SessionId, tenant: &str, error: String) {
    let mut st = lock(&shared.state);
    let entry = st.sessions.get_mut(&id).expect("running session exists");
    entry.state = SessionState::Failed;
    entry.error = Some(error);
    entry.total_ns = Some(entry.submitted_at.elapsed().as_nanos() as u64);
    st.failed += 1;
    st.admission.settle(tenant, SessionOutcome::Failure);
    shared.publish_state(id, SessionState::Failed);
    drop(st);
    shared.done_cv.notify_all();
}

/// Heartbeat: periodic liveness tick plus stall detection over the
/// sessions' progress epochs.
fn heartbeat_loop(shared: &Shared) {
    let mut watched: HashMap<SessionId, (u64, Instant)> = HashMap::new();
    loop {
        {
            let gate = lock(&shared.hb_gate);
            let _ = shared
                .hb_cv
                .wait_timeout(gate, shared.config.heartbeat_interval)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        shared.heartbeats.fetch_add(1, Ordering::SeqCst);
        let now = Instant::now();
        let stalled: Vec<(SessionId, u64)> = {
            let st = lock(&shared.state);
            watched.retain(|id, _| {
                st.sessions
                    .get(id)
                    .is_some_and(|e| e.state == SessionState::Running)
            });
            let mut stalled = Vec::new();
            for (id, entry) in &st.sessions {
                if entry.state != SessionState::Running {
                    continue;
                }
                let epoch = entry.progress_epoch.load(Ordering::SeqCst);
                let slot = watched.entry(*id).or_insert((epoch, now));
                if slot.0 != epoch {
                    *slot = (epoch, now);
                } else if now.duration_since(slot.1) >= shared.config.stall_after {
                    stalled.push((*id, now.duration_since(slot.1).as_millis() as u64));
                    // restart the window so one stall is one event per
                    // window, not one per heartbeat tick
                    slot.1 = now;
                }
            }
            stalled
        };
        for (session, idle_ms) in stalled {
            shared
                .hub
                .publish(ProgressEvent::Stalled { session, idle_ms });
        }
    }
}
