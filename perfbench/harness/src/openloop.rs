//! A single-threaded open-loop load generator.
//!
//! Sessions are offered on a fixed schedule whether or not earlier ones
//! have finished, as independent users would send them. One thread both
//! submits and listens: while it waits for the next due time it blocks
//! on the target's terminal-event stream, so each session's end is
//! stamped when its event arrives, with no thread per client.
//!
//! Latency is measured from a session's *due* time, not from the moment
//! the generator got round to submitting it: if the generator itself
//! stalls, the sessions that fell due meanwhile are charged the wait,
//! and the stall shows up as lateness (`Record::late`).

use std::collections::HashMap;
use std::time::{Duration, Instant};

use chipvqa_serve::SessionState;

/// What the generator drives: anything that accepts sessions and
/// reports when each reaches a terminal state.
pub trait Target {
    /// One session request.
    type Request;
    /// Offers a session; `Err` carries the shed reason's label.
    fn submit(&mut self, request: Self::Request) -> Result<u64, &'static str>;
    /// Blocks up to `timeout` for the next session to reach a terminal
    /// state.
    fn next_terminal(&mut self, timeout: Duration) -> Option<(u64, SessionState)>;
}

/// One scheduled session: due `due` after the loop starts.
pub struct Offer<R> {
    pub due: Duration,
    pub request: R,
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Outcome {
    /// Refused at submission (no retry: the loop is open).
    Shed(&'static str),
    /// Reached a terminal state `at` after the loop started.
    Ended { state: SessionState, at: Duration },
    /// Accepted but never reached a terminal state before the drain
    /// deadline.
    Lost,
}

/// What happened to one offer.
#[derive(Debug, Clone, Copy)]
pub struct Record {
    pub due: Duration,
    /// How long after `due` the generator actually submitted.
    pub late: Duration,
    /// The target's id for an accepted session.
    pub id: Option<u64>,
    pub outcome: Outcome,
}

impl Record {
    /// Due time to terminal event, for sessions that ended.
    pub fn latency(&self) -> Option<Duration> {
        match self.outcome {
            Outcome::Ended { at, .. } => Some(at.saturating_sub(self.due)),
            _ => None,
        }
    }
}

/// Offers every session at its due time, then waits up to `drain` for
/// the accepted ones to end. Returns one record per offer, in schedule
/// order, and the time from the loop's start to its last event.
pub fn run<T: Target>(
    target: &mut T,
    offers: Vec<Offer<T::Request>>,
    drain: Duration,
) -> (Vec<Record>, Duration) {
    let start = Instant::now();
    let mut records: Vec<Record> = offers
        .iter()
        .map(|o| Record {
            due: o.due,
            late: Duration::ZERO,
            id: None,
            outcome: Outcome::Lost,
        })
        .collect();
    let mut pending: HashMap<u64, usize> = HashMap::new();
    let mut last_event = Duration::ZERO;

    for (i, offer) in offers.into_iter().enumerate() {
        loop {
            let now = start.elapsed();
            if now >= offer.due {
                break;
            }
            if let Some(event) = target.next_terminal(offer.due - now) {
                settle(
                    &mut records,
                    &mut pending,
                    &mut last_event,
                    start.elapsed(),
                    event,
                );
            }
        }
        records[i].late = start.elapsed() - offer.due;
        match target.submit(offer.request) {
            Ok(id) => {
                records[i].id = Some(id);
                pending.insert(id, i);
            }
            Err(reason) => records[i].outcome = Outcome::Shed(reason),
        }
        last_event = last_event.max(start.elapsed());
    }

    let deadline = start.elapsed() + drain;
    while !pending.is_empty() {
        let now = start.elapsed();
        if now >= deadline {
            break;
        }
        if let Some(event) = target.next_terminal(deadline - now) {
            settle(
                &mut records,
                &mut pending,
                &mut last_event,
                start.elapsed(),
                event,
            );
        }
    }
    (records, last_event)
}

/// Stamps the end of an accepted session (events for ids this loop did
/// not submit are ignored).
fn settle(
    records: &mut [Record],
    pending: &mut HashMap<u64, usize>,
    last_event: &mut Duration,
    at: Duration,
    (id, state): (u64, SessionState),
) {
    if let Some(i) = pending.remove(&id) {
        records[i].outcome = Outcome::Ended { state, at };
        *last_event = (*last_event).max(at);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Finishes every session `service` after it was accepted; stalls
    /// the generator (inside `submit`) for `stall.1` on offer `stall.0`.
    struct FakeTarget {
        service: Duration,
        stall: Option<(usize, Duration)>,
        submitted: usize,
        running: Vec<(u64, Instant)>,
    }

    impl Target for FakeTarget {
        type Request = ();

        fn submit(&mut self, (): ()) -> Result<u64, &'static str> {
            let n = self.submitted;
            self.submitted += 1;
            if let Some((at, pause)) = self.stall {
                if at == n {
                    std::thread::sleep(pause);
                }
            }
            if n % 7 == 6 {
                return Err("queue_full");
            }
            self.running.push((n as u64, Instant::now() + self.service));
            Ok(n as u64)
        }

        fn next_terminal(&mut self, timeout: Duration) -> Option<(u64, SessionState)> {
            let next = self
                .running
                .iter()
                .enumerate()
                .min_by_key(|(_, (_, end))| *end)
                .map(|(i, &(id, end))| (i, id, end));
            let now = Instant::now();
            match next {
                Some((i, id, end)) if end <= now + timeout => {
                    std::thread::sleep(end.saturating_duration_since(now));
                    self.running.swap_remove(i);
                    Some((id, SessionState::Done))
                }
                _ => {
                    std::thread::sleep(timeout);
                    None
                }
            }
        }
    }

    fn offers(n: usize, every: Duration) -> Vec<Offer<()>> {
        (0..n)
            .map(|i| Offer {
                due: every * i as u32,
                request: (),
            })
            .collect()
    }

    #[test]
    fn latency_counts_from_due_time_across_a_generator_stall() {
        let ms = Duration::from_millis;
        let mut target = FakeTarget {
            service: ms(1),
            stall: Some((4, ms(60))),
            submitted: 0,
            running: Vec::new(),
        };
        let (records, _) = run(&mut target, offers(30, ms(5)), ms(500));
        // offer 5 fell due at 25 ms while the generator sat in offer 4's
        // 60 ms stall (20..80 ms): it went out ~55 ms late, and its
        // latency carries that wait although its service took 1 ms
        let r5 = records[5];
        assert!(r5.late >= ms(45), "late {:?}", r5.late);
        let l5 = r5.latency().expect("offer 5 ended");
        assert!(l5 >= r5.late && l5 >= ms(45), "latency {l5:?}");
        // every offer that fell due inside the stall is charged for it
        for r in &records[5..=11] {
            if let Some(l) = r.latency() {
                assert!(l >= ms(10), "offer due {:?}: latency {l:?}", r.due);
            }
        }
        // once caught up, lateness and latency fall back to the service time
        let tail = records[25];
        assert!(tail.late < ms(20), "tail late {:?}", tail.late);
        assert!(tail.latency().expect("tail ended") < ms(25));
    }

    #[test]
    fn every_offer_is_accounted_for_exactly_once() {
        let ms = Duration::from_millis;
        let mut target = FakeTarget {
            service: ms(2),
            stall: None,
            submitted: 0,
            running: Vec::new(),
        };
        let n = 40;
        let (records, elapsed) = run(&mut target, offers(n, ms(1)), ms(500));
        assert_eq!(records.len(), n);
        let shed = records
            .iter()
            .filter(|r| matches!(r.outcome, Outcome::Shed(_)))
            .count();
        let ended = records
            .iter()
            .filter(|r| matches!(r.outcome, Outcome::Ended { .. }))
            .count();
        let lost = records
            .iter()
            .filter(|r| r.outcome == Outcome::Lost)
            .count();
        assert_eq!(shed, n / 7, "every seventh offer is shed");
        assert_eq!(shed + ended + lost, n);
        assert_eq!(lost, 0);
        assert!(records
            .iter()
            .all(|r| r.id.is_some() != matches!(r.outcome, Outcome::Shed(_))));
        assert!(elapsed >= records[n - 1].due);
    }

    #[test]
    fn sessions_still_running_at_the_drain_deadline_are_lost() {
        let ms = Duration::from_millis;
        let mut target = FakeTarget {
            service: ms(400),
            stall: None,
            submitted: 0,
            running: Vec::new(),
        };
        let (records, _) = run(&mut target, offers(3, ms(1)), ms(20));
        assert!(records.iter().all(|r| r.outcome == Outcome::Lost));
    }
}
