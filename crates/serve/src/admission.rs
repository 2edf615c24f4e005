//! Admission control: bounded run queue, per-tenant quotas, and
//! per-tenant circuit breakers.
//!
//! Every submission passes through [`AdmissionController::offer`],
//! which either queues the session or sheds it with a structured
//! [`ShedReason`]. Three independent gates apply, in order:
//!
//! 1. **tenant breaker** — a [`CircuitBreaker`] per tenant (the same
//!    three-state machine the supervised executor uses per model).
//!    Consecutive session *failures* trip it open; while open,
//!    submissions from that tenant shed without touching the queue,
//!    and after the cooldown a half-open probe admits a trial session.
//!    Success closes it again. A misbehaving tenant thus cannot grind
//!    the service with requests that always fail.
//! 2. **in-flight limit** — a tenant with too many sessions queued or
//!    running is shed ([`ShedReason::TenantSaturated`]) before it can
//!    monopolize the bounded queue.
//! 3. **queue capacity** — the run queue is bounded; when the service
//!    as a whole is saturated, submissions shed with
//!    [`ShedReason::QueueFull`] instead of growing an unbounded
//!    backlog.
//!
//! Dispatch is FIFO *per eligibility*: [`AdmissionController::admit_next`]
//! picks the oldest queued session whose tenant is below its
//! *running* quota, skipping over-quota tenants so one heavy tenant
//! cannot starve the rest of the queue.
//!
//! The controller is plain state — the service serializes access under
//! its own lock — so every method is `&mut self` and cheap.

use std::collections::{HashMap, VecDeque};

use chipvqa_eval::supervisor::{BreakerConfig, BreakerState, CircuitBreaker};
use serde::{Deserialize, Serialize};

use crate::session::SessionId;

/// Tuning for the admission controller.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdmissionConfig {
    /// Bounded run-queue capacity (queued sessions across all tenants).
    pub queue_capacity: usize,
    /// Maximum sessions of one tenant *running* concurrently; queued
    /// sessions above this wait, they are not shed.
    pub tenant_running_quota: usize,
    /// Maximum sessions of one tenant in flight (queued + running)
    /// before further submissions shed with
    /// [`ShedReason::TenantSaturated`].
    pub tenant_in_flight_limit: usize,
    /// Per-tenant circuit-breaker tuning (session failures trip it).
    pub breaker: BreakerConfig,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            queue_capacity: 32,
            tenant_running_quota: 2,
            tenant_in_flight_limit: 8,
            breaker: BreakerConfig::default(),
        }
    }
}

impl AdmissionConfig {
    /// Panics on degenerate configurations.
    pub fn validate(&self) {
        assert!(self.queue_capacity >= 1, "queue_capacity must be >= 1");
        assert!(
            self.tenant_running_quota >= 1,
            "tenant_running_quota must be >= 1"
        );
        assert!(
            self.tenant_in_flight_limit >= 1,
            "tenant_in_flight_limit must be >= 1"
        );
        self.breaker.validate();
    }
}

/// Why a submission was shed. Serialized verbatim into rejection
/// responses — the "well-formed shed" contract the load generator and
/// the CI soak job assert on.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ShedReason {
    /// The bounded run queue is at capacity.
    QueueFull {
        /// Current queue depth (== capacity when shed).
        depth: usize,
        /// Configured capacity.
        capacity: usize,
    },
    /// The tenant has too many sessions in flight.
    TenantSaturated {
        /// The over-limit tenant.
        tenant: String,
        /// Queued + running sessions the tenant already has.
        in_flight: usize,
        /// Configured in-flight limit.
        limit: usize,
    },
    /// The tenant's circuit breaker is open (recent sessions failed).
    TenantBreakerOpen {
        /// The tripped tenant.
        tenant: String,
    },
    /// The service is shutting down; nothing new is admitted.
    ShuttingDown,
}

impl ShedReason {
    /// Stable short label (telemetry counters, shed responses).
    pub fn label(&self) -> &'static str {
        match self {
            ShedReason::QueueFull { .. } => "queue_full",
            ShedReason::TenantSaturated { .. } => "tenant_saturated",
            ShedReason::TenantBreakerOpen { .. } => "tenant_breaker_open",
            ShedReason::ShuttingDown => "shutting_down",
        }
    }
}

impl std::fmt::Display for ShedReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShedReason::QueueFull { depth, capacity } => {
                write!(f, "run queue full ({depth}/{capacity})")
            }
            ShedReason::TenantSaturated {
                tenant,
                in_flight,
                limit,
            } => write!(
                f,
                "tenant `{tenant}` saturated ({in_flight}/{limit} in flight)"
            ),
            ShedReason::TenantBreakerOpen { tenant } => {
                write!(f, "tenant `{tenant}` circuit breaker open")
            }
            ShedReason::ShuttingDown => write!(f, "service shutting down"),
        }
    }
}

/// How an admitted session ended, for breaker accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionOutcome {
    /// Completed; closes/heals the tenant's breaker.
    Success,
    /// Terminally failed; counts toward tripping the breaker.
    Failure,
    /// Cancelled; neither success nor failure — no breaker effect.
    Neutral,
}

/// Cumulative admission counters (serialized into service stats).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct AdmissionStats {
    /// Submissions offered (accepted or shed).
    pub offered: u64,
    /// Submissions accepted into the queue.
    pub accepted: u64,
    /// Sessions dispatched to a runner.
    pub admitted: u64,
    /// Sheds because the queue was full.
    pub shed_queue_full: u64,
    /// Sheds because a tenant hit its in-flight limit.
    pub shed_tenant_saturated: u64,
    /// Sheds because a tenant's breaker was open.
    pub shed_breaker_open: u64,
    /// Breaker trips across all tenants.
    pub breaker_trips: u64,
}

impl AdmissionStats {
    /// Total sheds, any reason.
    pub fn shed_total(&self) -> u64 {
        self.shed_queue_full + self.shed_tenant_saturated + self.shed_breaker_open
    }
}

/// Bounded-queue admission controller with per-tenant quotas and
/// breakers. See the module docs for the policy.
#[derive(Debug)]
pub struct AdmissionController {
    config: AdmissionConfig,
    /// FIFO of queued sessions (id, tenant).
    queue: VecDeque<(SessionId, String)>,
    /// Running sessions per tenant.
    running: HashMap<String, usize>,
    /// Lazily created per-tenant breakers.
    breakers: HashMap<String, CircuitBreaker>,
    stats: AdmissionStats,
}

impl AdmissionController {
    /// An empty controller.
    pub fn new(config: AdmissionConfig) -> Self {
        config.validate();
        AdmissionController {
            config,
            queue: VecDeque::new(),
            running: HashMap::new(),
            breakers: HashMap::new(),
            stats: AdmissionStats::default(),
        }
    }

    /// Offers a session for admission: queues it or sheds it with a
    /// structured reason. Gate order: breaker, tenant in-flight limit,
    /// queue capacity.
    pub fn offer(&mut self, id: SessionId, tenant: &str) -> Result<(), ShedReason> {
        self.stats.offered += 1;
        if !self.breaker_mut(tenant).allow() {
            self.stats.shed_breaker_open += 1;
            return Err(ShedReason::TenantBreakerOpen {
                tenant: tenant.to_string(),
            });
        }
        // allow() may have flipped Open → HalfOpen; that transition is
        // the probe the shed budget paid for, so the probe proceeds.
        let in_flight = self.tenant_in_flight(tenant);
        if in_flight >= self.config.tenant_in_flight_limit {
            self.stats.shed_tenant_saturated += 1;
            return Err(ShedReason::TenantSaturated {
                tenant: tenant.to_string(),
                in_flight,
                limit: self.config.tenant_in_flight_limit,
            });
        }
        if self.queue.len() >= self.config.queue_capacity {
            self.stats.shed_queue_full += 1;
            return Err(ShedReason::QueueFull {
                depth: self.queue.len(),
                capacity: self.config.queue_capacity,
            });
        }
        self.queue.push_back((id, tenant.to_string()));
        self.stats.accepted += 1;
        Ok(())
    }

    /// Dispatches the oldest queued session whose tenant is below its
    /// running quota, reserving a run slot for it. `None` when nothing
    /// is eligible (empty queue, or every queued tenant is at quota).
    pub fn admit_next(&mut self) -> Option<(SessionId, String)> {
        let idx = self.queue.iter().position(|(_, tenant)| {
            self.running.get(tenant).copied().unwrap_or(0) < self.config.tenant_running_quota
        })?;
        let (id, tenant) = self.queue.remove(idx).expect("index from position");
        *self.running.entry(tenant.clone()).or_insert(0) += 1;
        self.stats.admitted += 1;
        Some((id, tenant))
    }

    /// Releases an admitted session's run slot and settles its breaker
    /// accounting.
    pub fn settle(&mut self, tenant: &str, outcome: SessionOutcome) {
        if let Some(n) = self.running.get_mut(tenant) {
            *n = n.saturating_sub(1);
            if *n == 0 {
                self.running.remove(tenant);
            }
        }
        let trips_before = self.breaker_mut(tenant).trips();
        match outcome {
            SessionOutcome::Success => self.breaker_mut(tenant).record_success(),
            SessionOutcome::Failure => self.breaker_mut(tenant).record_failure(),
            SessionOutcome::Neutral => {}
        }
        let trips_after = self.breaker_mut(tenant).trips();
        self.stats.breaker_trips += u64::from(trips_after - trips_before);
    }

    /// Removes a still-queued session (cancellation before dispatch).
    /// `false` when the session is not in the queue.
    pub fn remove_queued(&mut self, id: SessionId) -> bool {
        let before = self.queue.len();
        self.queue.retain(|(qid, _)| *qid != id);
        self.queue.len() != before
    }

    /// Empties the queue (shutdown), returning the abandoned sessions
    /// in FIFO order.
    pub fn drain_queue(&mut self) -> Vec<(SessionId, String)> {
        self.queue.drain(..).collect()
    }

    /// Queued sessions, all tenants.
    pub fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    /// Running sessions, all tenants.
    pub fn running_total(&self) -> usize {
        self.running.values().sum()
    }

    /// Queued + running sessions of one tenant.
    pub fn tenant_in_flight(&self, tenant: &str) -> usize {
        self.queue.iter().filter(|(_, t)| t == tenant).count()
            + self.running.get(tenant).copied().unwrap_or(0)
    }

    /// The tenant's breaker state (`Closed` if never seen).
    pub fn breaker_state(&self, tenant: &str) -> BreakerState {
        self.breakers
            .get(tenant)
            .map(CircuitBreaker::state)
            .unwrap_or(BreakerState::Closed)
    }

    /// Cumulative counters.
    pub fn stats(&self) -> &AdmissionStats {
        &self.stats
    }

    /// The controller's tuning.
    pub fn config(&self) -> &AdmissionConfig {
        &self.config
    }

    fn breaker_mut(&mut self, tenant: &str) -> &mut CircuitBreaker {
        let config = self.config.breaker;
        self.breakers
            .entry(tenant.to_string())
            .or_insert_with(|| CircuitBreaker::new(config))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn controller(queue: usize, quota: usize, in_flight: usize) -> AdmissionController {
        AdmissionController::new(AdmissionConfig {
            queue_capacity: queue,
            tenant_running_quota: quota,
            tenant_in_flight_limit: in_flight,
            breaker: BreakerConfig::default(),
        })
    }

    #[test]
    fn queue_full_sheds_with_depth() {
        let mut ac = controller(2, 4, 16);
        assert!(ac.offer(SessionId(1), "a").is_ok());
        assert!(ac.offer(SessionId(2), "b").is_ok());
        let shed = ac.offer(SessionId(3), "c").unwrap_err();
        assert_eq!(
            shed,
            ShedReason::QueueFull {
                depth: 2,
                capacity: 2
            }
        );
        assert_eq!(shed.label(), "queue_full");
        assert_eq!(ac.stats().shed_queue_full, 1);
        assert_eq!(ac.stats().shed_total(), 1);
    }

    #[test]
    fn tenant_in_flight_limit_sheds_before_queue_fills() {
        let mut ac = controller(16, 4, 2);
        assert!(ac.offer(SessionId(1), "hog").is_ok());
        assert!(ac.offer(SessionId(2), "hog").is_ok());
        let shed = ac.offer(SessionId(3), "hog").unwrap_err();
        assert!(matches!(
            shed,
            ShedReason::TenantSaturated {
                in_flight: 2,
                limit: 2,
                ..
            }
        ));
        // other tenants are unaffected
        assert!(ac.offer(SessionId(4), "quiet").is_ok());
        // a running session still counts toward the tenant's in-flight
        let (id, tenant) = ac.admit_next().expect("eligible");
        assert_eq!((id, tenant.as_str()), (SessionId(1), "hog"));
        assert_eq!(ac.tenant_in_flight("hog"), 2);
        assert!(ac.offer(SessionId(5), "hog").is_err());
        // settling one frees a slot
        ac.settle("hog", SessionOutcome::Success);
        assert!(ac.offer(SessionId(5), "hog").is_ok());
    }

    #[test]
    fn admit_next_skips_over_quota_tenants_fifo_otherwise() {
        let mut ac = controller(16, 1, 8);
        assert!(ac.offer(SessionId(1), "a").is_ok());
        assert!(ac.offer(SessionId(2), "a").is_ok());
        assert!(ac.offer(SessionId(3), "b").is_ok());
        // oldest eligible first
        assert_eq!(ac.admit_next().unwrap().0, SessionId(1));
        // tenant a is at quota (1 running): its next queued is skipped
        assert_eq!(ac.admit_next().unwrap().0, SessionId(3));
        // both tenants at quota: nothing eligible although queue non-empty
        assert_eq!(ac.admit_next(), None);
        assert_eq!(ac.queue_depth(), 1);
        assert_eq!(ac.running_total(), 2);
        // releasing a's slot unblocks its queued session
        ac.settle("a", SessionOutcome::Success);
        assert_eq!(ac.admit_next().unwrap().0, SessionId(2));
    }

    #[test]
    fn failures_trip_the_tenant_breaker_then_probe_heals() {
        let breaker = BreakerConfig {
            failure_threshold: 2,
            cooldown: 3,
            probe_successes: 1,
        };
        let mut ac = AdmissionController::new(AdmissionConfig {
            queue_capacity: 16,
            tenant_running_quota: 4,
            tenant_in_flight_limit: 16,
            breaker,
        });
        for id in [1u64, 2] {
            assert!(ac.offer(SessionId(id), "flaky").is_ok());
            ac.admit_next().expect("eligible");
            ac.settle("flaky", SessionOutcome::Failure);
        }
        assert_eq!(ac.breaker_state("flaky"), BreakerState::Open);
        assert_eq!(ac.stats().breaker_trips, 1);
        // open: sheds for `cooldown` offers, each a structured rejection
        for id in [3u64, 4, 5] {
            assert_eq!(
                ac.offer(SessionId(id), "flaky").unwrap_err(),
                ShedReason::TenantBreakerOpen {
                    tenant: "flaky".to_string()
                }
            );
        }
        // cooldown paid: half-open probe admits one trial session
        assert!(ac.offer(SessionId(6), "flaky").is_ok());
        assert_eq!(ac.breaker_state("flaky"), BreakerState::HalfOpen);
        ac.admit_next().expect("probe dispatches");
        ac.settle("flaky", SessionOutcome::Success);
        assert_eq!(ac.breaker_state("flaky"), BreakerState::Closed);
        // other tenants were never affected
        assert!(ac.offer(SessionId(7), "steady").is_ok());
        assert_eq!(ac.stats().shed_breaker_open, 3);
    }

    #[test]
    fn cancelled_sessions_are_breaker_neutral() {
        let breaker = BreakerConfig {
            failure_threshold: 1,
            cooldown: 2,
            probe_successes: 1,
        };
        let mut ac = AdmissionController::new(AdmissionConfig {
            breaker,
            ..AdmissionConfig::default()
        });
        assert!(ac.offer(SessionId(1), "t").is_ok());
        ac.admit_next().expect("eligible");
        ac.settle("t", SessionOutcome::Neutral);
        assert_eq!(ac.breaker_state("t"), BreakerState::Closed);
        assert_eq!(ac.stats().breaker_trips, 0);
    }

    #[test]
    fn remove_queued_and_drain() {
        let mut ac = controller(8, 2, 8);
        for id in 1..=3u64 {
            assert!(ac.offer(SessionId(id), "t").is_ok());
        }
        assert!(ac.remove_queued(SessionId(2)));
        assert!(!ac.remove_queued(SessionId(2)));
        let drained = ac.drain_queue();
        assert_eq!(
            drained
                .iter()
                .map(|(id, _)| *id)
                .collect::<Vec<SessionId>>(),
            vec![SessionId(1), SessionId(3)]
        );
        assert_eq!(ac.queue_depth(), 0);
    }

    #[test]
    fn shed_reasons_serialize_structured() {
        let reasons = vec![
            ShedReason::QueueFull {
                depth: 4,
                capacity: 4,
            },
            ShedReason::TenantSaturated {
                tenant: "acme".to_string(),
                in_flight: 8,
                limit: 8,
            },
            ShedReason::TenantBreakerOpen {
                tenant: "acme".to_string(),
            },
            ShedReason::ShuttingDown,
        ];
        for reason in reasons {
            let json = serde_json::to_string(&reason).expect("serializes");
            let back: ShedReason = serde_json::from_str(&json).expect("parses");
            assert_eq!(back, reason);
            assert!(!reason.label().is_empty());
            assert!(!reason.to_string().is_empty());
        }
    }
}
