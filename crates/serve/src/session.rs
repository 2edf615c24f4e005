//! Session identity, lifecycle states, requests and reports.
//!
//! A session is one evaluation request — a model set × a
//! [`DatasetSpec`] × [`EvalOptions`] — owned by a tenant. Its state
//! machine is strictly
//!
//! ```text
//! Queued → Admitted → Running → { Done | Cancelled | Failed }
//! ```
//!
//! plus the short-circuit `Queued → Cancelled` for sessions cancelled
//! (or shut down) before a runner ever picked them up. Terminal states
//! never change again; [`SessionState::is_terminal`] is the contract
//! waiters rely on.

use chipvqa_core::spec::DatasetSpec;
use chipvqa_eval::harness::{EvalOptions, EvalReport};
use chipvqa_models::ModelProfile;
use serde::{Deserialize, Serialize};

/// Opaque session identity, unique within one service instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct SessionId(pub u64);

impl std::fmt::Display for SessionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "s-{:06}", self.0)
    }
}

/// Where a session is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SessionState {
    /// Accepted by admission control, waiting for a run slot.
    Queued,
    /// Claimed by a runner; a tenant run slot is reserved.
    Admitted,
    /// Being evaluated on the shared worker pool.
    Running,
    /// Completed; the report is available.
    Done,
    /// Cancelled (by request or by service shutdown). The session's
    /// checkpoint is retained, so it can be resumed.
    Cancelled,
    /// Terminally failed (invalid request, checkpoint mismatch).
    Failed,
}

impl SessionState {
    /// Stable short label (telemetry events, progress streams).
    pub fn label(self) -> &'static str {
        match self {
            SessionState::Queued => "queued",
            SessionState::Admitted => "admitted",
            SessionState::Running => "running",
            SessionState::Done => "done",
            SessionState::Cancelled => "cancelled",
            SessionState::Failed => "failed",
        }
    }

    /// Whether the state never changes again.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            SessionState::Done | SessionState::Cancelled | SessionState::Failed
        )
    }
}

impl std::fmt::Display for SessionState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// One evaluation request: which models, over which collection, with
/// which options — on behalf of which tenant.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionRequest {
    /// Quota/breaker accounting unit. Free-form; empty is a valid
    /// (anonymous) tenant.
    pub tenant: String,
    /// The models to evaluate, in report order. An empty set is
    /// admitted but fails at run time (and counts against the tenant's
    /// breaker — malformed requests are a tenant fault).
    pub models: Vec<ModelProfile>,
    /// The collection to evaluate on.
    pub spec: DatasetSpec,
    /// Evaluation options.
    pub options: EvalOptions,
    /// Run the session under a chaos [`FaultPlan`](chipvqa_eval::FaultPlan)
    /// supervisor. `None` (the default, and what old clients send) is an
    /// unsupervised run.
    #[serde(default)]
    pub fault_plan: Option<chipvqa_eval::FaultPlan>,
    /// Evaluate through the streaming intake path with this shard
    /// length instead of materializing the collection. Streamed
    /// sessions produce reports byte-identical to their batch
    /// equivalents (supervised or not), and cancel and resume at shard
    /// granularity like every session.
    #[serde(default)]
    pub stream_shard_len: Option<usize>,
}

impl SessionRequest {
    /// A single-model request over the default (paper) collection.
    pub fn single(tenant: impl Into<String>, model: ModelProfile) -> Self {
        SessionRequest {
            tenant: tenant.into(),
            models: vec![model],
            spec: DatasetSpec::default(),
            options: EvalOptions::default(),
            fault_plan: None,
            stream_shard_len: None,
        }
    }

    /// Replaces the spec.
    pub fn with_spec(mut self, spec: DatasetSpec) -> Self {
        self.spec = spec;
        self
    }

    /// Replaces the options.
    pub fn with_options(mut self, options: EvalOptions) -> Self {
        self.options = options;
        self
    }

    /// Places the session under a chaos supervisor.
    pub fn with_fault_plan(mut self, plan: chipvqa_eval::FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Routes the session through the streaming intake path.
    pub fn with_streaming(mut self, shard_len: usize) -> Self {
        assert!(shard_len >= 1, "shard_len must be >= 1");
        self.stream_shard_len = Some(shard_len);
        self
    }
}

/// The finished product of a [`Done`](SessionState::Done) session: one
/// [`EvalReport`] per requested model, in request order.
///
/// `cache_stats` is cleared on every report: the service's answer cache
/// is a *cross-session* plane, so its traffic counters are service
/// metadata, not a property of any one session — and clearing them is
/// what makes a session report byte-comparable to its batch-mode
/// equivalent (`chipvqa_eval::harness::evaluate` per model).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionReport {
    /// Per-model reports, in request order.
    pub reports: Vec<EvalReport>,
}

impl SessionReport {
    /// Wraps finished reports, clearing the run-metadata `cache_stats`.
    pub fn new(mut reports: Vec<EvalReport>) -> Self {
        for report in &mut reports {
            report.cache_stats = None;
        }
        SessionReport { reports }
    }

    /// Canonical JSON encoding — the byte-identity currency of the
    /// serving contract. Two sessions over the same request (cold, warm,
    /// cancelled-and-resumed, any worker count) serialize identically.
    pub fn canonical_json(&self) -> String {
        serde_json::to_string(self).expect("session report serializes")
    }
}

/// Why a session-level operation failed.
#[derive(Debug, Clone, PartialEq)]
pub enum SessionError {
    /// No session with that id exists in this service.
    UnknownSession(SessionId),
    /// The operation needs a non-terminal session but it already ended.
    AlreadyTerminal(SessionId, SessionState),
    /// Resume requires a [`Cancelled`](SessionState::Cancelled) session.
    NotResumable(SessionId, SessionState),
    /// The session holds no report (not [`Done`](SessionState::Done)).
    NoReport(SessionId, SessionState),
    /// A wait deadline expired before the session reached a terminal
    /// state.
    Timeout(SessionId),
    /// Admission control shed the (re)submission.
    Shed(crate::admission::ShedReason),
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::UnknownSession(id) => write!(f, "unknown session {id}"),
            SessionError::AlreadyTerminal(id, s) => {
                write!(f, "session {id} already terminal ({s})")
            }
            SessionError::NotResumable(id, s) => write!(
                f,
                "session {id} is {s}; only cancelled sessions can be resumed"
            ),
            SessionError::NoReport(id, s) => {
                write!(f, "session {id} has no report (state {s})")
            }
            SessionError::Timeout(id) => write!(f, "timed out waiting for session {id}"),
            SessionError::Shed(reason) => write!(f, "shed: {reason}"),
        }
    }
}

impl std::error::Error for SessionError {}

impl From<crate::admission::ShedReason> for SessionError {
    fn from(reason: crate::admission::ShedReason) -> Self {
        SessionError::Shed(reason)
    }
}

/// Point-in-time view of one session, safe to hand to clients.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionSnapshot {
    /// The session.
    pub id: SessionId,
    /// Owning tenant.
    pub tenant: String,
    /// Current lifecycle state.
    pub state: SessionState,
    /// Shards completed so far.
    pub shards_done: usize,
    /// Total shards the session's grid needs (0 until admitted).
    pub shards_total: usize,
    /// Nanoseconds spent queued (set once admitted).
    pub queue_wait_ns: Option<u64>,
    /// Nanoseconds from submission to the terminal state (set once
    /// terminal) — the end-to-end latency the load generator reports.
    pub total_ns: Option<u64>,
    /// Terminal failure description, for [`Failed`](SessionState::Failed)
    /// sessions.
    pub error: Option<String>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use chipvqa_models::ModelZoo;

    #[test]
    fn state_machine_labels_and_terminality() {
        let all = [
            SessionState::Queued,
            SessionState::Admitted,
            SessionState::Running,
            SessionState::Done,
            SessionState::Cancelled,
            SessionState::Failed,
        ];
        let labels: Vec<&str> = all.iter().map(|s| s.label()).collect();
        assert_eq!(
            labels,
            [
                "queued",
                "admitted",
                "running",
                "done",
                "cancelled",
                "failed"
            ]
        );
        for s in all {
            assert_eq!(
                s.is_terminal(),
                matches!(
                    s,
                    SessionState::Done | SessionState::Cancelled | SessionState::Failed
                )
            );
        }
    }

    #[test]
    fn request_roundtrips_through_json() {
        let req = SessionRequest::single("acme", ModelZoo::gpt4o())
            .with_spec(DatasetSpec::scaled(3))
            .with_options(EvalOptions {
                attempts: 2,
                downsample: 1,
            })
            .with_fault_plan(chipvqa_eval::FaultPlan::uniform(42, 0.05))
            .with_streaming(17);
        let json = serde_json::to_string(&req).expect("serializes");
        let back: SessionRequest = serde_json::from_str(&json).expect("parses");
        assert_eq!(back, req);
    }

    #[test]
    fn old_client_requests_without_chaos_fields_still_parse() {
        // A pre-chaos client omits `fault_plan` and `stream_shard_len`
        // entirely; both must default to None (unsupervised batch).
        let req = SessionRequest::single("legacy", ModelZoo::gpt4o());
        let mut value: serde_json::Value =
            serde_json::from_str(&serde_json::to_string(&req).expect("serializes"))
                .expect("parses");
        if let serde_json::Value::Obj(fields) = &mut value {
            fields.retain(|(k, _)| k != "fault_plan" && k != "stream_shard_len");
        }
        let back: SessionRequest =
            serde_json::from_str(&serde_json::to_string(&value).expect("serializes"))
                .expect("old-shape request parses");
        assert_eq!(back, req);
        assert!(back.fault_plan.is_none());
        assert!(back.stream_shard_len.is_none());
    }

    #[test]
    fn session_report_clears_cache_stats() {
        use chipvqa_core::ChipVqa;
        use chipvqa_eval::harness::evaluate;
        use chipvqa_models::VlmPipeline;

        let bench = ChipVqa::standard();
        let mut report = evaluate(
            &VlmPipeline::new(ModelZoo::gpt4o()),
            &bench,
            EvalOptions::default(),
        );
        report.cache_stats = Some(chipvqa_eval::CacheStats::default());
        let wrapped = SessionReport::new(vec![report.clone()]);
        assert!(wrapped.reports[0].cache_stats.is_none());
        report.cache_stats = None;
        assert_eq!(
            wrapped.canonical_json(),
            serde_json::to_string(&SessionReport {
                reports: vec![report]
            })
            .expect("serializes")
        );
    }
}
