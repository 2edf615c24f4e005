//! Load generator for the resident evaluation service.
//!
//! Per concurrency level (default 1, 8, 64, 100) the generator starts a
//! fresh in-process [`EvalService`], unleashes that many client threads
//! — each submitting a single-model session, retrying with a bounded
//! backoff when admission sheds, then waiting for a terminal state —
//! and verifies the serving contract end to end:
//!
//! - **no hangs**: `submit` always returns immediately (an id or a
//!   structured shed); clients give up after a bounded retry budget
//!   instead of spinning forever.
//! - **well-formed sheds**: every rejection round-trips through its
//!   JSON encoding (`{"shed": ...}` stays machine-readable under
//!   saturation).
//! - **no lost or stuck sessions**: every *accepted* session reaches a
//!   terminal state within the wait budget.
//! - **byte-identical results**: every completed session's canonical
//!   report equals the batch-mode reference
//!   ([`batch_reference_report`]) byte for byte — concurrency and the
//!   shared cache plane add speed, never content.
//!
//! Each level emits one p50/p95/p99 [`LatencySummary`] JSON line;
//! `--out FILE` writes them to the committed `BENCH_service.json`.
//! `--store-smoke DIR` appends a cold/warm store-backed session pair —
//! the persistent-store perf trajectory riding in the same artifact.
//!
//! Exit codes: 0 ok · 1 contract violation (mismatch, lost session,
//! malformed shed) or i/o failure · 2 usage.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use chipvqa_bench::batch_reference_report;
use chipvqa_core::DatasetSpec;
use chipvqa_eval::harness::EvalOptions;
use chipvqa_models::ModelZoo;
use chipvqa_serve::{
    EvalService, LatencySummary, ServiceConfig, SessionRequest, SessionState, ShedReason,
};

/// One level's aggregated client outcomes.
struct LevelOutcome {
    latencies_ns: Vec<u64>,
    sheds: u64,
    give_ups: u64,
}

fn main() {
    let mut levels: Vec<usize> = vec![1, 8, 64, 100];
    let mut config = ServiceConfig::default();
    let mut tenants = 4usize;
    let mut max_attempts = 5_000u64;
    let mut out: Option<std::path::PathBuf> = None;
    let mut store_smoke: Option<std::path::PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut take = |what: &str| -> String {
            args.next()
                .unwrap_or_else(|| panic!("{what} takes a value"))
        };
        match arg.as_str() {
            "--levels" => {
                levels = take("--levels")
                    .split(',')
                    .map(|v| {
                        v.trim()
                            .parse()
                            .ok()
                            .filter(|&n: &usize| n >= 1)
                            .expect("--levels takes positive integers, comma-separated")
                    })
                    .collect();
            }
            "--workers" => config.workers = parse_pos(&take("--workers"), "--workers"),
            "--runners" => config.runners = parse_pos(&take("--runners"), "--runners"),
            "--queue" => {
                config.admission.queue_capacity = parse_pos(&take("--queue"), "--queue");
            }
            "--quota" => {
                config.admission.tenant_running_quota = parse_pos(&take("--quota"), "--quota");
            }
            "--in-flight" => {
                config.admission.tenant_in_flight_limit =
                    parse_pos(&take("--in-flight"), "--in-flight");
            }
            "--shard-batch" => {
                config.shard_batch = parse_pos(&take("--shard-batch"), "--shard-batch");
            }
            "--step-delay-ms" => {
                config.step_delay = Duration::from_millis(
                    take("--step-delay-ms")
                        .parse()
                        .expect("--step-delay-ms takes milliseconds"),
                );
            }
            "--tenants" => tenants = parse_pos(&take("--tenants"), "--tenants"),
            "--max-attempts" => {
                max_attempts = take("--max-attempts")
                    .parse()
                    .ok()
                    .filter(|&n: &u64| n >= 1)
                    .expect("--max-attempts takes a positive integer");
            }
            "--out" => out = Some(take("--out").into()),
            "--store-smoke" => store_smoke = Some(take("--store-smoke").into()),
            other => {
                eprintln!(
                    "unknown argument `{other}` (usage: chipvqa-load [--levels 1,8,64,100] \
                     [--workers W] [--runners R] [--queue N] [--quota N] [--in-flight N] \
                     [--shard-batch N] [--step-delay-ms MS] [--tenants N] [--max-attempts N] \
                     [--out FILE] [--store-smoke DIR])"
                );
                std::process::exit(2);
            }
        }
    }

    // The contract's reference: a session's report must byte-equal the
    // plain batch harness run of the same request.
    let model = ModelZoo::gpt4o();
    let spec = DatasetSpec::default();
    let reference =
        batch_reference_report(std::slice::from_ref(&model), &spec, EvalOptions::default())
            .canonical_json();

    let mut lines: Vec<String> = Vec::new();
    for &level in &levels {
        let outcome = run_level(
            level,
            &config,
            tenants,
            max_attempts,
            &model,
            &spec,
            &reference,
        );
        let summary = LatencySummary::from_ns(
            format!("service/sessions_{level}"),
            outcome.latencies_ns.clone(),
        );
        println!(
            "level {level:>4}: {} completed, {} sheds ({} gave up) · \
             p50 {:.1}ms p95 {:.1}ms p99 {:.1}ms",
            summary.samples,
            outcome.sheds,
            outcome.give_ups,
            summary.p50_ns as f64 / 1e6,
            summary.p95_ns as f64 / 1e6,
            summary.p99_ns as f64 / 1e6,
        );
        lines.push(summary.to_json_line());
    }

    if let Some(dir) = &store_smoke {
        for line in run_store_smoke(dir, &config, &model, &spec, &reference) {
            lines.push(line);
        }
    }

    if let Some(path) = &out {
        let mut body = lines.join("\n");
        body.push('\n');
        if let Err(e) = std::fs::write(path, body) {
            eprintln!("failed to write {}: {e}", path.display());
            std::process::exit(1);
        }
        println!(
            "latency report: {} lines -> {}",
            lines.len(),
            path.display()
        );
    } else {
        for line in &lines {
            println!("{line}");
        }
    }
}

fn parse_pos(v: &str, flag: &str) -> usize {
    v.parse()
        .ok()
        .filter(|&n: &usize| n >= 1)
        .unwrap_or_else(|| panic!("{flag} takes a positive integer"))
}

/// Fails the run loudly: the load generator is a contract checker, so a
/// violation is an error exit, not a footnote.
fn violation(msg: &str) -> ! {
    eprintln!("CONTRACT VIOLATION: {msg}");
    std::process::exit(1);
}

/// Runs `level` concurrent clients against a fresh service.
#[allow(clippy::too_many_arguments)]
fn run_level(
    level: usize,
    config: &ServiceConfig,
    tenants: usize,
    max_attempts: u64,
    model: &chipvqa_models::ModelProfile,
    spec: &DatasetSpec,
    reference: &str,
) -> LevelOutcome {
    let service = Arc::new(EvalService::start(config.clone()).unwrap_or_else(|e| {
        eprintln!("failed to start service: {e}");
        std::process::exit(1);
    }));
    let sheds = Arc::new(AtomicU64::new(0));
    let give_ups = Arc::new(AtomicU64::new(0));

    let handles: Vec<std::thread::JoinHandle<Option<u64>>> = (0..level)
        .map(|client| {
            let service = Arc::clone(&service);
            let sheds = Arc::clone(&sheds);
            let give_ups = Arc::clone(&give_ups);
            let model = model.clone();
            let spec = spec.clone();
            let reference = reference.to_string();
            std::thread::spawn(move || {
                let request = SessionRequest {
                    tenant: format!("tenant-{}", client % tenants),
                    models: vec![model],
                    spec,
                    options: EvalOptions::default(),
                    fault_plan: None,
                    stream_shard_len: None,
                };
                // Submit with bounded retry: a shed is backpressure,
                // not failure — but it must be structured, and the
                // retry budget guarantees the client never hangs.
                let mut id = None;
                for _ in 0..max_attempts {
                    match service.submit(request.clone()) {
                        Ok(sid) => {
                            id = Some(sid);
                            break;
                        }
                        Err(reason) => {
                            sheds.fetch_add(1, Ordering::Relaxed);
                            assert_shed_well_formed(&reason);
                            std::thread::sleep(Duration::from_millis(2));
                        }
                    }
                }
                let Some(id) = id else {
                    give_ups.fetch_add(1, Ordering::Relaxed);
                    return None;
                };
                // An accepted session must terminate: a wait timeout
                // here is a stuck session, which is a hard failure.
                match service.wait(id, Duration::from_secs(300)) {
                    Ok(SessionState::Done) => {}
                    Ok(state) => violation(&format!(
                        "accepted session {id} ended {state} instead of done"
                    )),
                    Err(e) => violation(&format!("accepted session lost or stuck: {e}")),
                }
                // the report is handed out once: read the snapshot first
                let snap = service.snapshot(id).expect("session exists");
                let report = service
                    .report(id)
                    .unwrap_or_else(|e| violation(&format!("done session has no report: {e}")));
                if report.canonical_json() != reference {
                    violation(&format!(
                        "session {id} report differs from the batch-mode reference"
                    ));
                }
                Some(snap.total_ns.expect("terminal session has total_ns"))
            })
        })
        .collect();

    let latencies_ns: Vec<u64> = handles
        .into_iter()
        .filter_map(|h| h.join().expect("client thread panicked"))
        .collect();
    if latencies_ns.is_empty() {
        violation(&format!("level {level}: no session completed"));
    }

    let stats = service.stats();
    let terminal = stats.completed + stats.cancelled + stats.failed;
    if terminal != stats.submitted {
        violation(&format!(
            "lost sessions: {} submitted but only {terminal} terminal",
            stats.submitted
        ));
    }
    if stats.failed != 0 {
        violation(&format!("{} sessions failed", stats.failed));
    }
    LevelOutcome {
        latencies_ns,
        sheds: sheds.load(Ordering::Relaxed),
        give_ups: give_ups.load(Ordering::Relaxed),
    }
}

/// A shed must round-trip through JSON and stringify — the "well-formed
/// structured rejection" half of the acceptance criteria.
fn assert_shed_well_formed(reason: &ShedReason) {
    let json = serde_json::to_string(reason)
        .unwrap_or_else(|e| violation(&format!("shed reason failed to serialize: {e}")));
    let back: ShedReason = serde_json::from_str(&json)
        .unwrap_or_else(|e| violation(&format!("shed reason json does not parse back: {e}")));
    if &back != reason || reason.label().is_empty() || reason.to_string().is_empty() {
        violation("shed reason is not structurally stable");
    }
}

/// Cold/warm store-backed single sessions: the persistent answer plane
/// measured through the serving path (satellite of the perf
/// trajectory). Returns two `BENCH_service.json` lines.
fn run_store_smoke(
    dir: &std::path::Path,
    config: &ServiceConfig,
    model: &chipvqa_models::ModelProfile,
    spec: &DatasetSpec,
    reference: &str,
) -> Vec<String> {
    let _ = std::fs::remove_dir_all(dir);
    let mut lines = Vec::new();
    for label in ["service/store_cold", "service/store_warm"] {
        let mut cfg = config.clone();
        cfg.store_dir = Some(dir.to_path_buf());
        let mut service = EvalService::start(cfg).unwrap_or_else(|e| {
            eprintln!("failed to start store-backed service: {e}");
            std::process::exit(1);
        });
        let request = SessionRequest {
            tenant: "store-smoke".to_string(),
            models: vec![model.clone()],
            spec: spec.clone(),
            options: EvalOptions::default(),
            fault_plan: None,
            stream_shard_len: None,
        };
        let id = service
            .submit(request)
            .unwrap_or_else(|r| violation(&format!("store smoke shed: {r}")));
        match service.wait(id, Duration::from_secs(300)) {
            Ok(SessionState::Done) => {}
            other => violation(&format!("store smoke session ended {other:?}")),
        }
        let total_ns = service
            .snapshot(id)
            .expect("session exists")
            .total_ns
            .expect("terminal session has total_ns");
        let report = service.report(id).expect("done session has report");
        if report.canonical_json() != reference {
            violation("store-backed session differs from the batch-mode reference");
        }
        lines.push(LatencySummary::from_ns(label, vec![total_ns]).to_json_line());
        // graceful stop between the pair: the warm run must replay the
        // flushed store from a fresh service, not reuse a live cache
        service.shutdown().unwrap_or_else(|e| {
            eprintln!("store flush failed: {e}");
            std::process::exit(1);
        });
        drop(service);
    }
    lines
}
