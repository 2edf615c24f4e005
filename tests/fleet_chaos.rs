//! T-fleet-chaos: crash-tolerant multi-process fleet execution under
//! seeded `kill -9` schedules.
//!
//! The determinism contract from the robustness issue, checked
//! end-to-end:
//!
//! 1. for **any worker count** (1, 2, 4 cooperating workers) the merged
//!    report is byte-identical to a single-process grid evaluation;
//! 2. for **any kill schedule** — real `kill -9`'d subprocess workers,
//!    leases left mid-flight — the survivors steal exactly the
//!    orphaned leases over unfinished shards (`fleet.lease.steal`
//!    telemetry counts match), sweep the dead leases left over done
//!    shards, heal the dead workers' quarantined shards, and the merge
//!    is still byte-identical, with the shared `AnswerStore` free of
//!    corrupted or conflicting records (the chaos storm scan, extended
//!    to the fleet's shared store);
//! 3. a **stalled** live worker (heartbeat frozen) loses its lease too;
//! 4. `merge` refuses mismatched spec fingerprints and incomplete
//!    fleets with structured errors.
//!
//! Subprocess workers re-exec this test binary: the
//! `fleet_worker_subprocess_entry` "test" is a no-op unless
//! `CHIPVQA_FLEET_WORKER_DIR` is set, in which case it joins the fleet
//! at that directory and exits. `CHIPVQA_CHAOS_SEED` (the CI chaos
//! matrix) perturbs the kill schedule while staying reproducible.

use std::collections::HashMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use chipvqa::core::ChipVqa;
use chipvqa::eval::executor::ShardSource;
use chipvqa::eval::fault::install_quiet_panic_hook;
use chipvqa::eval::fleet::{
    self, done_path, lease_path, quarantine_path, shard_plan, FleetConfig, FleetError, FleetJob,
    Lease, ShardRecord,
};
use chipvqa::eval::harness::{EvalOptions, EvalReport};
use chipvqa::eval::store::{decode_segment, AnswerStore, StoreConfig};
use chipvqa::eval::{
    AnswerCache, Checkpoint, FaultPlan, ParallelExecutor, RuleJudge, RunMismatch, Supervisor,
};
use chipvqa::models::{ModelZoo, VlmPipeline};
use chipvqa::telemetry::{MemorySink, MockClock, Telemetry};

/// CI chaos-matrix seed; defaults to a fixed value locally.
fn chaos_seed() -> u64 {
    std::env::var("CHIPVQA_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(20_260_806)
}

fn tmp_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "chipvqa-fleet-chaos-{tag}-{}-{n}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// The chaos grid: two models over the standard bench — 18 shards,
/// enough for real contention, small enough for CI.
fn grid() -> (Vec<VlmPipeline>, ChipVqa) {
    (
        vec![
            VlmPipeline::new(ModelZoo::gpt4o()),
            VlmPipeline::new(ModelZoo::fuyu_8b()),
        ],
        ChipVqa::standard(),
    )
}

fn job<'a>(pipes: &'a [VlmPipeline], bench: &'a ChipVqa) -> FleetJob<'a> {
    FleetJob {
        pipes,
        bench,
        options: EvalOptions::default(),
        spec_fingerprint: None,
    }
}

/// Result bytes of a report with the run-metadata `cache_stats` nulled.
fn report_bytes(mut report: EvalReport) -> String {
    report.cache_stats = None;
    serde_json::to_string(&report).expect("report serializes")
}

/// The single-process reference: a plain grid evaluation, serialized.
fn reference_bytes(pipes: &[VlmPipeline], bench: &ChipVqa) -> Vec<String> {
    ParallelExecutor::new(4)
        .evaluate_grid(pipes, bench, EvalOptions::default(), &RuleJudge::new())
        .into_iter()
        .map(report_bytes)
        .collect()
}

fn merged_bytes(dir: &Path, job: &FleetJob<'_>) -> Vec<String> {
    fleet::merge(dir, job, &Telemetry::disabled())
        .expect("fleet merges")
        .into_iter()
        .map(report_bytes)
        .collect()
}

/// Contract 1: 1, 2, and 4 cooperating in-process workers all converge
/// to the single-process reference, byte for byte.
#[test]
fn fleets_of_1_2_and_4_workers_merge_byte_identical_to_single_process() {
    let (pipes, bench) = grid();
    let reference = reference_bytes(&pipes, &bench);
    for workers in [1usize, 2, 4] {
        let dir = tmp_dir(&format!("n{workers}"));
        let job = job(&pipes, &bench);
        let exec = ParallelExecutor::new(2);
        let config = FleetConfig {
            heartbeat_interval: Duration::from_millis(20),
            idle_backoff: Duration::from_millis(2),
            ..FleetConfig::default()
        };
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        fleet::run_worker(&dir, &exec, &job, &RuleJudge::new(), &config)
                            .expect("worker runs")
                    })
                })
                .collect();
            let total: usize = handles
                .into_iter()
                .map(|h| h.join().expect("worker thread").shards_evaluated)
                .sum();
            assert_eq!(
                total,
                shard_plan(&job).len(),
                "{workers} workers: every shard committed exactly once"
            );
        });
        assert_eq!(
            merged_bytes(&dir, &job),
            reference,
            "{workers}-worker fleet is byte-identical to the single-process run"
        );
        let _ = fs::remove_dir_all(&dir);
    }
}

/// Re-exec entry point: joins the fleet named by
/// `CHIPVQA_FLEET_WORKER_DIR` (no-op when unset, i.e. in a normal test
/// run). The worker shares the store at `DIR/store`, runs the chaos
/// grid's fleet at `DIR/fleet`, paced by `CHIPVQA_FLEET_POST_CLAIM_MS`
/// so a `kill -9` reliably lands while a lease is held, optionally
/// under a panic-only fault plan (`CHIPVQA_FLEET_PANIC_RATE`).
#[test]
fn fleet_worker_subprocess_entry() {
    let Ok(dir) = std::env::var("CHIPVQA_FLEET_WORKER_DIR") else {
        return;
    };
    install_quiet_panic_hook();
    let dir = PathBuf::from(dir);
    let post_claim_ms: u64 = std::env::var("CHIPVQA_FLEET_POST_CLAIM_MS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let panic_rate: f64 = std::env::var("CHIPVQA_FLEET_PANIC_RATE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.0);
    let (pipes, bench) = grid();
    let store = Arc::new(
        AnswerStore::open_shared(
            dir.join("store"),
            StoreConfig::default(),
            Telemetry::disabled(),
        )
        .expect("shared store opens"),
    );
    let cache = Arc::new(AnswerCache::new().with_store(store));
    let mut exec = ParallelExecutor::new(2).with_cache(cache);
    if panic_rate > 0.0 {
        let plan = FaultPlan {
            panic_rate,
            seed: chaos_seed(),
            ..FaultPlan::none()
        };
        exec = exec.with_supervisor(Supervisor::new(plan));
    }
    let job = job(&pipes, &bench);
    let config = FleetConfig {
        heartbeat_interval: Duration::from_millis(25),
        idle_backoff: Duration::from_millis(5),
        post_claim_delay: Duration::from_millis(post_claim_ms),
        ..FleetConfig::default()
    };
    fleet::run_worker(&dir.join("fleet"), &exec, &job, &RuleJudge::new(), &config)
        .expect("subprocess worker runs");
    std::process::exit(0);
}

/// The pid of a child process that has exited and been reaped.
fn dead_pid() -> u32 {
    let mut child = Command::new(std::env::current_exe().expect("own binary"))
        .arg("--list")
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawns a short-lived child");
    child.wait().expect("child exits");
    child.id()
}

/// Every `*.lease` file left in a fleet directory's `leases/`.
fn lease_files(fleet_dir: &Path) -> Vec<PathBuf> {
    let mut found: Vec<PathBuf> = fs::read_dir(fleet_dir.join("leases"))
        .expect("leases dir lists")
        .map(|entry| entry.expect("entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "lease"))
        .collect();
    found.sort();
    found
}

fn spawn_worker(dir: &Path, post_claim_ms: u64, panic_rate: f64) -> std::process::Child {
    Command::new(std::env::current_exe().expect("own binary"))
        .args([
            "fleet_worker_subprocess_entry",
            "--exact",
            "--test-threads=1",
            "--nocapture",
        ])
        .env("CHIPVQA_FLEET_WORKER_DIR", dir)
        .env("CHIPVQA_FLEET_POST_CLAIM_MS", post_claim_ms.to_string())
        .env("CHIPVQA_FLEET_PANIC_RATE", panic_rate.to_string())
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawns worker subprocess")
}

/// Contract 2, the headline: three real subprocess workers, all
/// `kill -9`'d mid-run on a seeded schedule, leases and quarantines
/// left as wreckage. A fresh worker steals exactly the orphaned leases
/// (telemetry counts match), heals the dead workers' quarantined
/// shards, and the merged report is byte-identical to the
/// single-process reference — with the shared store clean.
#[test]
fn kill_nine_storm_steals_orphan_leases_heals_quarantine_and_merges_identical() {
    let seed = chaos_seed();
    let (pipes, bench) = grid();
    let reference = reference_bytes(&pipes, &bench);
    let dir = tmp_dir("kill9");
    let fleet_dir = dir.join("fleet");

    // a panic-prone worker plus two calm ones, paced so kills land
    // while leases are held
    let mut children = [
        spawn_worker(&dir, 150, 0.35),
        spawn_worker(&dir, 150, 0.0),
        spawn_worker(&dir, 150, 0.0),
    ];
    let mut dead_pids = Vec::new();
    for (k, child) in children.iter_mut().enumerate() {
        let delay = 350 + seed.wrapping_mul(k as u64 + 1) % 600;
        std::thread::sleep(Duration::from_millis(delay / (k as u64 + 1)));
        let pid = child.id();
        let _ = child.kill(); // SIGKILL: no destructors, no lease release
        let _ = child.wait(); // reap, so /proc/<pid> is really gone
        dead_pids.push(pid);
    }

    // fabricate the one piece of wreckage the schedule can't guarantee:
    // a dead worker's lease over a shard it had already quarantined —
    // the steal-then-heal path must cope with it regardless
    let job_probe = job(&pipes, &bench);
    let keys = shard_plan(&job_probe);
    let manifest_fp = {
        let manifest: fleet::FleetManifest = serde_json::from_str(
            &fs::read_to_string(fleet_dir.join("manifest.json")).expect("manifest exists"),
        )
        .expect("manifest parses");
        manifest.fingerprint()
    };
    let open_idx = (0..keys.len())
        .find(|&i| !done_path(&fleet_dir, i).exists())
        .expect("the kill schedule left work unfinished");
    let wreck = Lease {
        shard_index: open_idx,
        shard: keys[open_idx],
        pid: dead_pids[0],
        start_token: 1, // irrelevant: the pid is dead
        nonce: 7,
        heartbeat: 3,
        manifest_fingerprint: manifest_fp,
        healing: false,
    };
    fs::write(
        lease_path(&fleet_dir, open_idx),
        serde_json::to_string(&wreck).expect("serializes"),
    )
    .expect("plants wreck lease");
    if !quarantine_path(&fleet_dir, open_idx).exists() {
        let degraded = ShardRecord {
            manifest_fingerprint: manifest_fp,
            quarantined: true,
            worker_pid: dead_pids[0],
            result: chipvqa::eval::ShardResult {
                key: keys[open_idx],
                outcomes: Vec::new(),
            },
        };
        fs::write(
            quarantine_path(&fleet_dir, open_idx),
            serde_json::to_string(&degraded).expect("serializes"),
        )
        .expect("plants quarantine");
    }

    // exact wreckage census, after the fabrication: the finisher must
    // steal every orphan lease over an unfinished shard, sweep every
    // lease left over a done shard (by a worker killed between its done
    // commit and its lease release: no claim looks at a done shard, so
    // no steal can count it), and heal every orphan quarantine
    let orphan_leases = (0..keys.len())
        .filter(|&i| lease_path(&fleet_dir, i).exists() && !done_path(&fleet_dir, i).exists())
        .count();
    let done_leases = (0..keys.len())
        .filter(|&i| lease_path(&fleet_dir, i).exists() && done_path(&fleet_dir, i).exists())
        .count();
    let orphan_quarantines = (0..keys.len())
        .filter(|&i| quarantine_path(&fleet_dir, i).exists() && !done_path(&fleet_dir, i).exists())
        .count();
    assert!(orphan_leases >= 1, "census includes the fabricated lease");
    assert!(orphan_quarantines >= 1, "census includes the quarantine");

    // the finisher: calm, instrumented, sharing the same store
    let sink = Arc::new(MemorySink::new());
    let tele = Telemetry::builder()
        .clock(MockClock::new(1))
        .sink(Arc::clone(&sink))
        .build();
    let store = Arc::new(
        AnswerStore::open_shared(dir.join("store"), StoreConfig::default(), tele.clone())
            .expect("shared store reopens despite dead writers' markers"),
    );
    let cache = Arc::new(AnswerCache::new().with_store(store));
    let exec = ParallelExecutor::new(2)
        .with_cache(cache)
        .with_telemetry(tele.clone());
    let job = job(&pipes, &bench);
    let config = FleetConfig {
        heartbeat_interval: Duration::from_millis(25),
        idle_backoff: Duration::from_millis(5),
        ..FleetConfig::default()
    };
    let outcome = fleet::run_worker(&fleet_dir, &exec, &job, &RuleJudge::new(), &config)
        .expect("finisher runs");

    assert_eq!(
        outcome.leases_stolen, orphan_leases,
        "every orphan lease stolen, none double-stolen (seed {seed})"
    );
    assert_eq!(
        outcome.steals_lost, 0,
        "no rival thief: steal counts are exact"
    );
    assert_eq!(
        outcome.leases_swept, done_leases,
        "every dead lease over a done shard swept (seed {seed})"
    );
    assert_eq!(
        outcome.shards_healed, orphan_quarantines,
        "every orphan quarantine healed calm (seed {seed})"
    );
    let counters = tele.snapshot().counters;
    assert_eq!(
        counters.get("fleet.lease.steal").copied().unwrap_or(0),
        orphan_leases as u64,
        "fleet.lease.steal telemetry matches the wreckage census"
    );
    let steal_events = sink.named("fleet.lease.steal");
    assert_eq!(steal_events.len(), orphan_leases);
    assert!(
        steal_events
            .iter()
            .any(|e| e.get("reason") == Some("dead-pid")),
        "the dead workers' leases were judged dead-pid"
    );

    // byte-identity under the kill schedule
    assert_eq!(
        merged_bytes(&fleet_dir, &job),
        reference,
        "kill -9 storm: merged report is byte-identical (seed {seed})"
    );
    assert_eq!(
        lease_files(&fleet_dir),
        Vec::<PathBuf>::new(),
        "no lease survives the finisher (seed {seed})"
    );

    // chaos storm scan, extended to the fleet's shared store: every
    // decodable record is clean, and no key maps to two different
    // answers (duplicate identical writes from racing workers are
    // benign; conflicting ones would be corruption)
    let reader = AnswerStore::open_read_only(dir.join("store")).expect("reader opens");
    let mut by_key: HashMap<String, String> = HashMap::new();
    let mut records = 0usize;
    for seg in reader.segment_paths() {
        let (decoded, _) = decode_segment(&seg).expect("segment decodes");
        for record in decoded {
            records += 1;
            assert!(
                !chipvqa::eval::fault::is_corrupted_text(&record.answer.text),
                "faulted answer persisted in {}",
                seg.display()
            );
            let key = serde_json::to_string(&record.key).expect("key serializes");
            let answer = serde_json::to_string(&record.answer).expect("answer serializes");
            if let Some(prev) = by_key.insert(key, answer.clone()) {
                assert_eq!(prev, answer, "same key, two different answers: torn store");
            }
        }
    }
    assert!(
        records > 0,
        "the fleet persisted answers to the shared store"
    );
    let _ = fs::remove_dir_all(&dir);
}

/// A worker killed between its done commit and its lease release leaves
/// a lease over a done shard. The finishing worker's closing sweep
/// removes it and counts it as swept, never as a steal.
#[test]
fn a_dead_holders_lease_over_a_done_shard_is_swept_not_stolen() {
    let (pipes, bench) = grid();
    let dir = tmp_dir("sweep");
    let job = job(&pipes, &bench);
    let manifest = job.manifest();
    let manifest_fp = manifest.fingerprint();
    for sub in ["leases", "done", "quarantine"] {
        fs::create_dir_all(dir.join(sub)).expect("mkdir");
    }
    fs::write(
        dir.join("manifest.json"),
        serde_json::to_string(&manifest).expect("serializes"),
    )
    .expect("writes manifest");
    let keys = shard_plan(&job);
    let victim = dead_pid();
    let done = ShardRecord {
        manifest_fingerprint: manifest_fp,
        quarantined: false,
        worker_pid: victim,
        result: chipvqa::eval::ShardResult {
            key: keys[0],
            outcomes: Vec::new(),
        },
    };
    fs::write(
        done_path(&dir, 0),
        serde_json::to_string(&done).expect("serializes"),
    )
    .expect("plants done record");
    let leftover = Lease {
        shard_index: 0,
        shard: keys[0],
        pid: victim,
        start_token: 1, // irrelevant: the pid is dead
        nonce: 99,
        heartbeat: 0,
        manifest_fingerprint: manifest_fp,
        healing: false,
    };
    fs::write(
        lease_path(&dir, 0),
        serde_json::to_string(&leftover).expect("serializes"),
    )
    .expect("plants leftover lease");

    let sink = Arc::new(MemorySink::new());
    let tele = Telemetry::builder()
        .clock(MockClock::new(1))
        .sink(Arc::clone(&sink))
        .build();
    let exec = ParallelExecutor::new(2).with_telemetry(tele.clone());
    let config = FleetConfig {
        heartbeat_interval: Duration::from_millis(20),
        idle_backoff: Duration::from_millis(2),
        ..FleetConfig::default()
    };
    let outcome =
        fleet::run_worker(&dir, &exec, &job, &RuleJudge::new(), &config).expect("worker runs");
    assert_eq!(lease_files(&dir), Vec::<PathBuf>::new(), "no lease is left");
    assert_eq!(outcome.leases_swept, 1);
    assert_eq!(outcome.leases_stolen, 0, "a sweep is not a steal");
    assert_eq!(outcome.shards_evaluated, keys.len() - 1);
    let counters = tele.snapshot().counters;
    assert_eq!(counters.get("fleet.lease.swept"), Some(&1));
    assert_eq!(counters.get("fleet.lease.steal"), None);
    let swept = sink.named("fleet.lease.swept");
    assert_eq!(swept.len(), 1);
    assert_eq!(swept[0].get("reason"), Some("dead-pid"));
    assert_eq!(swept[0].get("shard"), Some("0"));
    let _ = fs::remove_dir_all(&dir);
}

/// Contract 3: a live worker whose heartbeat has frozen is judged
/// stalled and loses its lease — detected only after two observations
/// of an unchanged counter, never on first sight.
#[test]
fn stalled_heartbeat_lease_is_stolen_with_reason_stalled() {
    let (pipes, bench) = grid();
    let dir = tmp_dir("stall");
    let job = job(&pipes, &bench);
    let manifest = job.manifest();
    let manifest_fp = manifest.fingerprint();
    for sub in ["leases", "done", "quarantine"] {
        fs::create_dir_all(dir.join(sub)).expect("mkdir");
    }
    fs::write(
        dir.join("manifest.json"),
        serde_json::to_string(&manifest).expect("serializes"),
    )
    .expect("writes manifest");
    // a lease held by THIS live process with a real start token, but no
    // heartbeat thread behind it: only the stall path can reclaim it
    let keys = shard_plan(&job);
    let frozen = Lease {
        shard_index: 0,
        shard: keys[0],
        pid: std::process::id(),
        start_token: chipvqa::eval::store::own_start_token(),
        nonce: 424_242,
        heartbeat: 9,
        manifest_fingerprint: manifest_fp,
        healing: false,
    };
    fs::write(
        lease_path(&dir, 0),
        serde_json::to_string(&frozen).expect("serializes"),
    )
    .expect("plants frozen lease");

    let sink = Arc::new(MemorySink::new());
    let tele = Telemetry::builder()
        .clock(MockClock::new(1))
        .sink(Arc::clone(&sink))
        .build();
    let exec = ParallelExecutor::new(2).with_telemetry(tele.clone());
    let config = FleetConfig {
        heartbeat_interval: Duration::from_millis(20),
        stall_timeout: Duration::ZERO, // stalled on the second look
        idle_backoff: Duration::from_millis(2),
        ..FleetConfig::default()
    };
    let outcome =
        fleet::run_worker(&dir, &exec, &job, &RuleJudge::new(), &config).expect("worker runs");
    assert_eq!(
        outcome.leases_stolen, 1,
        "exactly the frozen lease is stolen"
    );
    let steal_events = sink.named("fleet.lease.steal");
    assert_eq!(steal_events.len(), 1);
    assert_eq!(steal_events[0].get("reason"), Some("stalled"));
    assert_eq!(
        merged_bytes(&dir, &job),
        reference_bytes(&pipes, &bench),
        "a stall-steal does not perturb the merged bytes"
    );
    let _ = fs::remove_dir_all(&dir);
}

/// Contract 4: merge refuses wrong spec fingerprints and incomplete
/// fleets with structured errors — never a silently wrong report.
#[test]
fn merge_refusals_are_structured() {
    let (pipes, bench) = grid();
    let dir = tmp_dir("refuse");
    let stamped = FleetJob {
        spec_fingerprint: Some(111),
        ..job(&pipes, &bench)
    };
    fs::create_dir_all(&dir).expect("mkdir");
    fs::write(
        dir.join("manifest.json"),
        serde_json::to_string(&stamped.manifest()).expect("serializes"),
    )
    .expect("writes manifest");

    let wrong_spec = FleetJob {
        spec_fingerprint: Some(222),
        ..stamped
    };
    assert!(matches!(
        fleet::merge(&dir, &wrong_spec, &Telemetry::disabled()),
        Err(FleetError::Mismatch(RunMismatch::SpecFingerprint {
            stamped: Some(111),
            expected: Some(222),
        }))
    ));
    match fleet::merge(&dir, &stamped, &Telemetry::disabled()) {
        Err(FleetError::Incomplete { done: 0, total }) => {
            assert_eq!(total, shard_plan(&stamped).len());
        }
        other => panic!("expected Incomplete, got {other:?}"),
    }
    // the structured errors render operator-readable messages
    let msg = fleet::merge(&dir, &wrong_spec, &Telemetry::disabled())
        .unwrap_err()
        .to_string();
    assert!(
        msg.contains("spec fingerprint"),
        "message names the field: {msg}"
    );
    let _ = fs::remove_dir_all(&dir);
}

/// The fleet's healing semantics match the checkpoint layer's
/// `requeue_quarantined`: both re-run quarantined shards calm and
/// converge to the clean report (cross-layer consistency probe).
#[test]
fn fleet_healing_matches_checkpoint_requeue_semantics() {
    let (pipes, bench) = grid();
    let plan = FaultPlan {
        panic_rate: 0.3,
        seed: chaos_seed(),
        ..FaultPlan::none()
    };
    install_quiet_panic_hook();

    // checkpoint path: supervised run, requeue, calm resume
    let supervised = ParallelExecutor::new(2).with_supervisor(Supervisor::new(plan.clone()));
    let calm = ParallelExecutor::new(2);
    let options = EvalOptions::default();
    let source = ShardSource::Bench(&bench, 0);
    let mut cp = Checkpoint::for_source(&pipes, source, options);
    supervised
        .evaluate_checkpointed(
            &pipes,
            source,
            options,
            &RuleJudge::new(),
            &mut cp,
            &mut |_| false,
        )
        .expect("supervised pass");
    cp.requeue_quarantined();
    let via_checkpoint: Vec<String> = calm
        .evaluate_checkpointed(
            &pipes,
            source,
            options,
            &RuleJudge::new(),
            &mut cp,
            &mut |_| false,
        )
        .expect("calm resume")
        .expect("grid completes")
        .into_iter()
        .map(report_bytes)
        .collect();

    // fleet path: one supervised worker (self-heals on later passes)
    let dir = tmp_dir("heal-parity");
    let job = job(&pipes, &bench);
    let config = FleetConfig {
        heartbeat_interval: Duration::from_millis(20),
        idle_backoff: Duration::from_millis(2),
        ..FleetConfig::default()
    };
    fleet::run_worker(&dir, &supervised, &job, &RuleJudge::new(), &config).expect("worker runs");
    assert_eq!(
        merged_bytes(&dir, &job),
        via_checkpoint,
        "fleet healing and checkpoint requeue converge to the same bytes"
    );
    let _ = fs::remove_dir_all(&dir);
}
