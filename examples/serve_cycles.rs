//! Serve memory within one service lifetime and across lifetimes. One
//! process first runs one `EvalService` over 40 sequential 12-model
//! sessions over `DatasetSpec::scaled(2)`, taking each report, and
//! prints its resident memory (`VmRSS`, read from `/proc/self/status`)
//! after sessions 1, 10 and 40. Then it runs ten cycles of: start a
//! service, submit a 12-model session streamed at shard length 142,
//! cancel it once it has evaluated a shard, and shut the service down.
//! After cycles 1, 3, 6 and 10 it prints `VmRSS` and the peak
//! (`VmHWM`).
//!
//! ```text
//! MALLOC_ARENA_MAX=1 cargo run --release --example serve_cycles
//! ```
//!
//! A service hands each report out once and then forgets the session,
//! so the one service's `VmRSS` after session 40 stays at its value
//! after session 1. It runs first, on a fresh heap: the cycles leave
//! freed pages resident that would hide a service's growth.
//!
//! Every service starts fresh threads, and glibc gives threads their own
//! malloc arenas; run with one arena, as above. Without the cap the
//! cycles' memory grows with the arenas, which is the allocator's, not
//! state the service keeps.

use std::time::Duration;

use chipvqa::core::DatasetSpec;
use chipvqa::models::ModelZoo;
use chipvqa::serve::{EvalService, ProgressEvent, ServiceConfig, SessionRequest, SessionState};

const CYCLES: usize = 10;
const PRINT_AFTER: [usize; 4] = [1, 3, 6, 10];
const SESSIONS: usize = 40;
const PRINT_AFTER_SESSION: [usize; 3] = [1, 10, 40];

fn main() {
    run_resident();
    for cycle in 1..=CYCLES {
        let state = run_cycle();
        if PRINT_AFTER.contains(&cycle) {
            let (rss, hwm) = (status_mb("VmRSS"), status_mb("VmHWM"));
            println!(
                "cycle {cycle:>2}: VmRSS {rss:6.1} MB  VmHWM {hwm:6.1} MB  (session {state:?})"
            );
        }
    }
}

/// One service over `SESSIONS` sequential sessions, each report taken.
fn run_resident() {
    let mut service =
        EvalService::start(ServiceConfig::default()).expect("no store configured: cannot fail");
    let request = SessionRequest {
        models: ModelZoo::all(),
        ..SessionRequest::single("resident", ModelZoo::gpt4o())
    }
    .with_spec(DatasetSpec::scaled(2));
    for session in 1..=SESSIONS {
        let id = service
            .submit(request.clone())
            .expect("an idle service admits one session");
        let state = service
            .wait(id, Duration::from_secs(60))
            .expect("an uncancelled session ends");
        assert_eq!(state, SessionState::Done);
        service
            .report(id)
            .expect("a done session hands out its report");
        if PRINT_AFTER_SESSION.contains(&session) {
            let rss = status_mb("VmRSS");
            println!("one service, session {session:>2}: VmRSS {rss:6.1} MB");
        }
    }
    service.shutdown().expect("no store to flush");
}

/// One service lifetime; returns the state the session ended in
/// (`Done` when it finished before the cancel reached it).
fn run_cycle() -> SessionState {
    let mut service =
        EvalService::start(ServiceConfig::default()).expect("no store configured: cannot fail");
    let progress = service.subscribe();
    let request = SessionRequest {
        models: ModelZoo::all(),
        ..SessionRequest::single("cycles", ModelZoo::gpt4o())
    }
    .with_streaming(142);
    let id = service
        .submit(request)
        .expect("an idle service admits one session");
    while let Ok(event) = progress.recv_timeout(Duration::from_secs(60)) {
        if matches!(event, ProgressEvent::Shard { session, .. } if session == id) {
            break;
        }
    }
    // A session that already finished refuses the cancel; either way it ends.
    let _ = service.cancel(id);
    let state = service
        .wait(id, Duration::from_secs(60))
        .expect("a cancelled session ends at its next shard batch");
    service.shutdown().expect("no store to flush");
    state
}

/// A `/proc/self/status` memory line (reported in kB), in MB.
fn status_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("Linux /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or_else(|| panic!("/proc/self/status has no {field} line"));
    kb / 1024.0
}
