//! Streamed per-shard progress events.
//!
//! Progress is not a new instrumentation layer: the engine's
//! checkpointed entry point
//! ([`evaluate_checkpointed`](chipvqa_eval::ParallelExecutor::evaluate_checkpointed))
//! hands the key of every shard it records to a hook, and a session's
//! hook publishes one [`ProgressEvent::Shard`] per key on the service's
//! [`ProgressHub`].
//!
//! The hub is a plain broadcast channel: a subscriber hears every event
//! published after it subscribed, and nothing from before. Subscribe
//! before the first submit to hear a session's whole story; a late
//! subscriber reads a held session's state and shard counts from
//! [`EvalService::snapshot`](crate::EvalService::snapshot). Dead
//! receivers are pruned on the next publish.

use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Mutex, MutexGuard};

use serde::{Deserialize, Serialize};

use crate::session::{SessionId, SessionState};

/// One progress event, serialized verbatim on the wire (the `serve`
/// bin streams these as JSON lines).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ProgressEvent {
    /// A session changed lifecycle state.
    State {
        /// The session.
        session: SessionId,
        /// The state it entered.
        state: SessionState,
    },
    /// A session completed one shard.
    Shard {
        /// The session.
        session: SessionId,
        /// Model the shard evaluated.
        model: String,
        /// First question index of the shard.
        q_start: usize,
        /// One past the last question index.
        q_end: usize,
        /// Shards completed so far (including this one).
        shards_done: usize,
        /// Shards the session needs in total.
        shards_total: usize,
    },
}

impl ProgressEvent {
    /// The session this event concerns.
    pub fn session(&self) -> SessionId {
        match self {
            ProgressEvent::State { session, .. } | ProgressEvent::Shard { session, .. } => *session,
        }
    }
}

/// Poison-tolerant lock (executor workers publish shard events; a
/// caught worker panic must not wedge the hub).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Broadcast channel for [`ProgressEvent`]s.
#[derive(Debug, Default)]
pub struct ProgressHub {
    subscribers: Mutex<Vec<Sender<ProgressEvent>>>,
}

impl ProgressHub {
    /// An empty hub.
    pub fn new() -> Self {
        ProgressHub::default()
    }

    /// Publishes one event to every live subscriber; subscribers whose
    /// receiver was dropped are pruned.
    pub fn publish(&self, event: ProgressEvent) {
        lock(&self.subscribers).retain(|tx| tx.send(event.clone()).is_ok());
    }

    /// Subscribes: the receiver yields every event published from now on.
    pub fn subscribe(&self) -> Receiver<ProgressEvent> {
        let (tx, rx) = channel();
        lock(&self.subscribers).push(tx);
        rx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state_event(id: u64, state: SessionState) -> ProgressEvent {
        ProgressEvent::State {
            session: SessionId(id),
            state,
        }
    }

    #[test]
    fn subscribers_hear_only_what_is_published_after_they_subscribe() {
        let hub = ProgressHub::new();
        hub.publish(state_event(1, SessionState::Queued));
        hub.publish(state_event(1, SessionState::Running));
        let rx = hub.subscribe();
        hub.publish(state_event(1, SessionState::Done));
        let got: Vec<ProgressEvent> = rx.try_iter().collect();
        assert_eq!(got, vec![state_event(1, SessionState::Done)]);
    }

    #[test]
    fn dropped_receivers_are_pruned() {
        let hub = ProgressHub::new();
        let rx = hub.subscribe();
        drop(rx);
        hub.publish(state_event(1, SessionState::Queued));
        let live = hub.subscribe();
        hub.publish(state_event(1, SessionState::Running));
        assert_eq!(live.try_iter().count(), 1);
    }

    #[test]
    fn events_roundtrip_through_json() {
        let events = vec![
            state_event(3, SessionState::Cancelled),
            ProgressEvent::Shard {
                session: SessionId(3),
                model: "GPT4o".to_string(),
                q_start: 0,
                q_end: 16,
                shards_done: 1,
                shards_total: 9,
            },
        ];
        for event in events {
            let json = serde_json::to_string(&event).expect("serializes");
            let back: ProgressEvent = serde_json::from_str(&json).expect("parses");
            assert_eq!(back, event);
            assert_eq!(event.session(), SessionId(3));
        }
    }
}
