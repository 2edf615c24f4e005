//! T-fleet-chaos: crash-tolerant multi-process fleet execution under
//! seeded `kill -9` schedules.
//!
//! The determinism contract from the robustness issue, checked
//! end-to-end on a Table II grid (two models over a scale-2 spec and its
//! no-choice twin: 18 claims of four rows each):
//!
//! 1. for **any worker count** (1, 2, 4 cooperating workers) the merged
//!    table is byte-identical to the single-process
//!    `evaluate_table2` run, and a lone worker generates and perceives
//!    exactly what that run does;
//! 2. for **any kill schedule** — real `kill -9`'d subprocess workers,
//!    each killed once the fleet has committed a seeded number of
//!    claims, leases left mid-flight — the survivors steal exactly the
//!    orphaned leases over unfinished shards (`fleet.lease.steal`
//!    telemetry counts match), sweep the dead leases left over done
//!    shards, and the merge is still byte-identical, with the shared
//!    `AnswerStore` free of corrupted or conflicting records (the chaos
//!    storm scan, extended to the fleet's shared store);
//! 3. a **stalled** live worker (heartbeat frozen) loses its lease too;
//! 4. `merge` refuses mismatched spec fingerprints, incomplete fleets
//!    and directories of another fleet format with structured errors;
//! 5. a claim heals its panicked rows before it commits, so a
//!    **genuine** panic, which a calm re-run hits again, ends in the
//!    table a single-process run records, not in a livelock.
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
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use chipvqa::core::question::Question;
use chipvqa::core::DatasetSpec;
use chipvqa::eval::executor::{ShardSource, SHARD_SIZE};
use chipvqa::eval::fault::{install_quiet_panic_hook, InjectedPanic};
use chipvqa::eval::fleet::{
    self, done_path, lease_path, FleetConfig, FleetError, FleetJob, Lease, ShardRecord,
    FLEET_FORMAT_VERSION,
};
use chipvqa::eval::harness::{EvalOptions, EvalReport};
use chipvqa::eval::report::Table2;
use chipvqa::eval::store::{decode_segment, AnswerStore, StoreConfig};
use chipvqa::eval::{
    AnswerCache, Checkpoint, FaultPlan, Judge, ParallelExecutor, RuleJudge, RunMismatch, Supervisor,
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

/// The chaos grid: two models over a scale-2 spec — 18 claims, enough
/// for real contention, small enough for CI.
fn grid() -> (Vec<VlmPipeline>, DatasetSpec) {
    (
        vec![
            VlmPipeline::new(ModelZoo::gpt4o()),
            VlmPipeline::new(ModelZoo::fuyu_8b()),
        ],
        DatasetSpec::scaled(2),
    )
}

fn job<'a>(pipes: &'a [VlmPipeline], spec: &'a DatasetSpec) -> FleetJob<'a> {
    FleetJob {
        pipes,
        spec,
        options: EvalOptions::default(),
    }
}

/// Result bytes of a table with the run-metadata `cache_stats` nulled.
fn table_bytes(mut table: Table2) -> String {
    for row in &mut table.rows {
        row.standard.cache_stats = None;
        row.challenge.cache_stats = None;
    }
    serde_json::to_string(&table).expect("table serializes")
}

/// The single-process reference: the grid's `evaluate_table2` run,
/// serialized.
fn reference_bytes(pipes: &[VlmPipeline], spec: &DatasetSpec) -> String {
    let (table, _) = ParallelExecutor::new(4).evaluate_table2(
        pipes,
        spec,
        SHARD_SIZE,
        EvalOptions::default(),
        &RuleJudge::new(),
    );
    table_bytes(table)
}

fn merged_bytes(dir: &Path, job: &FleetJob<'_>) -> String {
    table_bytes(fleet::merge(dir, job, &Telemetry::disabled()).expect("fleet merges"))
}

/// Contract 1: 1, 2, and 4 cooperating in-process workers all converge
/// to the single-process reference, byte for byte.
#[test]
fn fleets_of_1_2_and_4_workers_merge_byte_identical_to_single_process() {
    let (pipes, spec) = grid();
    let reference = reference_bytes(&pipes, &spec);
    for workers in [1usize, 2, 4] {
        let dir = tmp_dir(&format!("n{workers}"));
        let job = job(&pipes, &spec);
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
                job.claims(),
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

/// A lone worker runs the engine's grid: it generates each question once
/// and fills each legibility value once, as the single-process run does,
/// and the merge generates nothing.
#[test]
fn a_lone_worker_generates_and_perceives_what_a_single_process_run_does() {
    let (pipes, spec) = grid();
    let counters = |tele: &Telemetry| {
        let snap = tele.snapshot();
        [
            "stream.shard_generated",
            "stream.questions",
            "perceive.legibility_filled",
        ]
        .map(|name| snap.counters.get(name).copied().unwrap_or(0))
    };
    let single = Telemetry::recording();
    let exec = ParallelExecutor::new(2).with_telemetry(single.clone());
    let options = EvalOptions::default();
    exec.evaluate_table2(&pipes, &spec, SHARD_SIZE, options, &RuleJudge::new());

    let dir = tmp_dir("lone");
    let job = job(&pipes, &spec);
    let lone = Telemetry::recording();
    let exec = ParallelExecutor::new(2).with_telemetry(lone.clone());
    let config = FleetConfig::default();
    fleet::run_worker(&dir, &exec, &job, &RuleJudge::new(), &config).expect("worker runs");
    assert_eq!(counters(&lone), counters(&single));
    assert_eq!(
        counters(&lone)[..2],
        [job.claims() as u64, spec.total() as u64]
    );

    let merging = Telemetry::recording();
    fleet::merge(&dir, &job, &merging).expect("fleet merges");
    let snap = merging.snapshot();
    assert!(!snap
        .spans
        .keys()
        .any(|path| path.contains("stream.generate")));
    assert_eq!(snap.counters.get("stream.questions"), None);
    let _ = fs::remove_dir_all(&dir);
}

/// The rule judge, about 2 ms slower per verdict: a claim's 64
/// verdicts hold its lease long enough that a `kill -9` reliably lands
/// while a lease is held.
struct PacedJudge;

impl Judge for PacedJudge {
    fn is_correct(&self, question: &Question, response: &str) -> bool {
        std::thread::sleep(Duration::from_millis(2));
        RuleJudge::new().is_correct(question, response)
    }
}

/// Re-exec entry point: joins the fleet named by
/// `CHIPVQA_FLEET_WORKER_DIR` (no-op when unset, i.e. in a normal test
/// run). The worker shares the store at `DIR/store`, runs the chaos
/// grid's fleet at `DIR/fleet` with the [`PacedJudge`], optionally
/// under a panic-only fault plan (`CHIPVQA_FLEET_PANIC_RATE`).
#[test]
fn fleet_worker_subprocess_entry() {
    let Ok(dir) = std::env::var("CHIPVQA_FLEET_WORKER_DIR") else {
        return;
    };
    install_quiet_panic_hook();
    let dir = PathBuf::from(dir);
    let panic_rate: f64 = std::env::var("CHIPVQA_FLEET_PANIC_RATE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.0);
    let (pipes, spec) = grid();
    let store = Arc::new(
        AnswerStore::open_with_telemetry(
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
    let job = job(&pipes, &spec);
    let config = FleetConfig {
        heartbeat_interval: Duration::from_millis(25),
        idle_backoff: Duration::from_millis(5),
        ..FleetConfig::default()
    };
    fleet::run_worker(&dir.join("fleet"), &exec, &job, &PacedJudge, &config)
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

/// Done records a fleet directory holds (none before its first worker
/// has created `done/`).
fn done_records(fleet_dir: &Path) -> usize {
    fs::read_dir(fleet_dir.join("done")).map_or(0, |entries| {
        entries
            .filter_map(Result::ok)
            .filter(|entry| entry.path().extension().is_some_and(|ext| ext == "json"))
            .count()
    })
}

fn spawn_worker(dir: &Path, panic_rate: f64) -> std::process::Child {
    Command::new(std::env::current_exe().expect("own binary"))
        .args([
            "fleet_worker_subprocess_entry",
            "--exact",
            "--test-threads=1",
            "--nocapture",
        ])
        .env("CHIPVQA_FLEET_WORKER_DIR", dir)
        .env("CHIPVQA_FLEET_PANIC_RATE", panic_rate.to_string())
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawns worker subprocess")
}

/// Contract 2, the headline: three real subprocess workers, each
/// `kill -9`'d once the fleet's `done/` holds a seeded number of the 18
/// claims (at most 12, so work is always left), leases left as
/// wreckage. A fresh worker steals exactly the orphaned leases
/// (telemetry counts match), sweeps the dead leases over done shards,
/// and the merged table is byte-identical to the single-process
/// reference — with the shared store clean.
#[test]
fn kill_nine_storm_steals_orphan_leases_heals_quarantine_and_merges_identical() {
    let seed = chaos_seed();
    let (pipes, spec) = grid();
    let reference = reference_bytes(&pipes, &spec);
    let dir = tmp_dir("kill9");
    let fleet_dir = dir.join("fleet");

    // a panic-prone worker plus two calm ones, paced so kills land
    // while leases are held
    let mut children = [
        spawn_worker(&dir, 0.35),
        spawn_worker(&dir, 0.0),
        spawn_worker(&dir, 0.0),
    ];
    // kill thresholds: rising, one to four records apart, the last at
    // most 12 of 18
    let mut threshold = 0;
    let mut dead_pids = Vec::new();
    for (k, child) in children.iter_mut().enumerate() {
        threshold += 1 + (seed >> (2 * k)) as usize % 4;
        let deadline = Instant::now() + Duration::from_secs(300);
        while done_records(&fleet_dir) < threshold {
            assert!(
                Instant::now() < deadline,
                "done/ never reached {threshold} records (seed {seed})"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        let pid = child.id();
        let _ = child.kill(); // SIGKILL: no destructors, no lease release
        let _ = child.wait(); // reap, so /proc/<pid> is really gone
        dead_pids.push(pid);
    }

    // fabricate the one piece of wreckage the schedule can't guarantee:
    // a dead worker's lease over an unfinished shard
    let job = job(&pipes, &spec);
    let claims = job.claims();
    let manifest_fp = {
        let manifest: fleet::FleetManifest = serde_json::from_str(
            &fs::read_to_string(fleet_dir.join("manifest.json")).expect("manifest exists"),
        )
        .expect("manifest parses");
        manifest.fingerprint()
    };
    let open_idx = (0..claims)
        .find(|&i| !done_path(&fleet_dir, i).exists())
        .expect("the kill schedule left work unfinished");
    let wreck = Lease {
        shard_index: open_idx,
        pid: dead_pids[0],
        start_token: 1, // irrelevant: the pid is dead
        nonce: 7,
        heartbeat: 3,
        manifest_fingerprint: manifest_fp,
    };
    fs::write(
        lease_path(&fleet_dir, open_idx),
        serde_json::to_string(&wreck).expect("serializes"),
    )
    .expect("plants wreck lease");

    // exact wreckage census, after the fabrication: the finisher must
    // steal every orphan lease over an unfinished shard and sweep every
    // lease left over a done shard (by a worker killed between its done
    // commit and its lease release: no claim looks at a done shard, so
    // no steal can count it)
    let orphan_leases = (0..claims)
        .filter(|&i| lease_path(&fleet_dir, i).exists() && !done_path(&fleet_dir, i).exists())
        .count();
    let done_leases = (0..claims)
        .filter(|&i| lease_path(&fleet_dir, i).exists() && done_path(&fleet_dir, i).exists())
        .count();
    assert!(orphan_leases >= 1, "census includes the fabricated lease");

    // the finisher: calm, instrumented, sharing the same store
    let sink = Arc::new(MemorySink::new());
    let tele = Telemetry::builder()
        .clock(MockClock::new(1))
        .sink(Arc::clone(&sink))
        .build();
    let store = Arc::new(
        AnswerStore::open_with_telemetry(dir.join("store"), StoreConfig::default(), tele.clone())
            .expect("shared store reopens after the kills"),
    );
    let cache = Arc::new(AnswerCache::new().with_store(store));
    let exec = ParallelExecutor::new(2)
        .with_cache(cache)
        .with_telemetry(tele.clone());
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
        "kill -9 storm: merged table is byte-identical (seed {seed})"
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
    let reader = AnswerStore::open(dir.join("store")).expect("reader opens");
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

/// Writes `job`'s manifest into a fresh fleet directory, as a first
/// worker would.
fn plant_manifest(dir: &Path, job: &FleetJob<'_>) -> u64 {
    for sub in ["leases", "done"] {
        fs::create_dir_all(dir.join(sub)).expect("mkdir");
    }
    let manifest = job.manifest();
    fs::write(
        dir.join("manifest.json"),
        serde_json::to_string(&manifest).expect("serializes"),
    )
    .expect("writes manifest");
    manifest.fingerprint()
}

/// A worker killed between its done commit and its lease release leaves
/// a lease over a done shard. The finishing worker's closing sweep
/// removes it and counts it as swept, never as a steal.
#[test]
fn a_dead_holders_lease_over_a_done_shard_is_swept_not_stolen() {
    let (pipes, spec) = grid();
    let dir = tmp_dir("sweep");
    let job = job(&pipes, &spec);
    let manifest_fp = plant_manifest(&dir, &job);
    let victim = dead_pid();
    let done = ShardRecord {
        manifest_fingerprint: manifest_fp,
        worker_pid: victim,
        rows: Vec::new(),
    };
    fs::write(
        done_path(&dir, 0),
        serde_json::to_string(&done).expect("serializes"),
    )
    .expect("plants done record");
    let leftover = Lease {
        shard_index: 0,
        pid: victim,
        start_token: 1, // irrelevant: the pid is dead
        nonce: 99,
        heartbeat: 0,
        manifest_fingerprint: manifest_fp,
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
    assert_eq!(outcome.shards_evaluated, job.claims() - 1);
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
    let (pipes, spec) = grid();
    let dir = tmp_dir("stall");
    let job = job(&pipes, &spec);
    let manifest_fp = plant_manifest(&dir, &job);
    // a lease held by THIS live process with a real start token, but no
    // heartbeat thread behind it: only the stall path can reclaim it
    let frozen = Lease {
        shard_index: 0,
        pid: std::process::id(),
        start_token: chipvqa::eval::fleet::own_start_token(),
        nonce: 424_242,
        heartbeat: 9,
        manifest_fingerprint: manifest_fp,
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
        reference_bytes(&pipes, &spec),
        "a stall-steal does not perturb the merged bytes"
    );
    let _ = fs::remove_dir_all(&dir);
}

/// Contract 4: merge refuses wrong spec fingerprints, incomplete fleets
/// and directories of another fleet format with structured errors —
/// never a silently wrong report.
#[test]
fn merge_refusals_are_structured() {
    let (pipes, spec) = grid();
    let other_spec = DatasetSpec::scaled(3);
    let dir = tmp_dir("refuse");
    let stamped = job(&pipes, &spec);
    let wrong_spec = job(&pipes, &other_spec);
    let manifest = serde_json::to_string(&stamped.manifest()).expect("serializes");

    // the two-sub-fleet layout of format 3 (`std/` and `chal/`, no
    // top-level manifest) is refused whole
    for column in ["std", "chal"] {
        fs::create_dir_all(dir.join(column).join("done")).expect("mkdir");
        let v3 = manifest.replace(
            &format!("\"format_version\":{FLEET_FORMAT_VERSION}"),
            "\"format_version\":3",
        );
        fs::write(dir.join(column).join("manifest.json"), v3).expect("writes");
    }
    assert!(matches!(
        fleet::merge(&dir, &stamped, &Telemetry::disabled()),
        Err(FleetError::ManifestMissing)
    ));

    fs::write(dir.join("manifest.json"), &manifest).expect("writes manifest");
    assert!(matches!(
        fleet::merge(&dir, &wrong_spec, &Telemetry::disabled()),
        Err(FleetError::Mismatch(RunMismatch::SpecFingerprint {
            stamped: Some(s),
            expected: Some(e),
        })) if (s, e) == (spec.fingerprint(), other_spec.fingerprint())
    ));
    match fleet::merge(&dir, &stamped, &Telemetry::disabled()) {
        Err(FleetError::Incomplete { done: 0, total }) => {
            assert_eq!(total, stamped.claims());
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

/// Merge checks each done record as it reaches it, in claim order: a
/// record of claim 1 that is not exactly claim 1's rows of this run is
/// refused as `ForeignShard { shard_index: 1 }`, also when a later
/// record is missing, and one that does not parse as `Corrupt`. With
/// the record restored, the fleet merges again.
#[test]
fn merge_refuses_a_rewritten_record_at_its_claim_before_a_later_missing_one() {
    let (pipes, spec) = grid();
    let dir = tmp_dir("rewrite");
    let job = job(&pipes, &spec);
    let config = FleetConfig {
        heartbeat_interval: Duration::from_millis(20),
        idle_backoff: Duration::from_millis(2),
        ..FleetConfig::default()
    };
    fleet::run_worker(
        &dir,
        &ParallelExecutor::new(2),
        &job,
        &RuleJudge::new(),
        &config,
    )
    .expect("worker runs");
    let reference = merged_bytes(&dir, &job);
    let (first, fifth) = (done_path(&dir, 1), done_path(&dir, 5));
    let (first_bytes, fifth_bytes) = (
        fs::read(&first).expect("claim 1 committed"),
        fs::read(&fifth).expect("claim 5 committed"),
    );
    let record = |idx| -> ShardRecord {
        let json = fs::read_to_string(done_path(&dir, idx)).expect("record reads");
        serde_json::from_str(&json).expect("record parses")
    };
    let (own, other) = (record(1), record(2));
    let rewrite = |edit: &dyn Fn(&mut ShardRecord)| {
        let mut rewritten = own.clone();
        edit(&mut rewritten);
        rewritten
    };
    let rewrites = [
        (
            "a foreign manifest fingerprint",
            rewrite(&|r| r.manifest_fingerprint ^= 1),
        ),
        (
            "the last row dropped",
            rewrite(&|r| {
                r.rows.pop();
            }),
        ),
        ("two rows swapped", rewrite(&|r| r.rows.swap(0, 1))),
        (
            "a row one outcome short",
            rewrite(&|r| {
                r.rows[1].outcomes.pop();
            }),
        ),
        (
            "a row of claim 2",
            rewrite(&|r| r.rows[1] = other.rows[1].clone()),
        ),
        ("claim 2's whole record", other.clone()),
    ];
    for (what, rewritten) in &rewrites {
        fs::write(
            &first,
            serde_json::to_string(rewritten).expect("serializes"),
        )
        .expect("rewrites claim 1");
        for fifth_missing in [false, true] {
            if fifth_missing {
                fs::remove_file(&fifth).expect("removes claim 5");
            } else {
                fs::write(&fifth, &fifth_bytes).expect("restores claim 5");
            }
            match fleet::merge(&dir, &job, &Telemetry::disabled()) {
                Err(FleetError::ForeignShard { shard_index: 1 }) => {}
                other => panic!(
                    "{what} (claim 5 missing: {fifth_missing}): expected \
                     ForeignShard {{ shard_index: 1 }}, got {other:?}"
                ),
            }
        }
    }
    fs::write(&fifth, &fifth_bytes).expect("restores claim 5");
    fs::write(&first, "{\"manifest_fingerprint\":").expect("garbles claim 1");
    match fleet::merge(&dir, &job, &Telemetry::disabled()) {
        Err(FleetError::Corrupt { path, .. }) => assert_eq!(path, first),
        other => panic!("a garbled record: expected Corrupt, got {other:?}"),
    }
    fs::write(&first, &first_bytes).expect("restores claim 1");
    assert_eq!(
        merged_bytes(&dir, &job),
        reference,
        "the restored fleet merges to its own bytes"
    );
    let _ = fs::remove_dir_all(&dir);
}

/// A fleet heals as a checkpoint does: a supervised checkpointed run of
/// each column, healed by `Checkpoint::heal` and resumed, converges to
/// the same bytes as a supervised fleet that heals its claims' panicked
/// rows. The plan
/// injects every fault kind, so the rows a heal keeps carry supervised
/// outcomes a calm re-run would not: only a heal that re-runs exactly
/// the panicked (row, shard) pairs matches.
#[test]
fn fleet_healing_matches_checkpoint_requeue_semantics() {
    let (pipes, spec) = grid();
    let plan = FaultPlan::uniform(chaos_seed(), 0.05);
    install_quiet_panic_hook();

    // checkpoint path, per column: supervised run, heal, resume
    let supervised = ParallelExecutor::new(2).with_supervisor(Supervisor::new(plan.clone()));
    let calm = ParallelExecutor::new(2);
    let options = EvalOptions::default();
    let column = |spec: &DatasetSpec| -> Vec<EvalReport> {
        let source = ShardSource::Spec(spec, SHARD_SIZE);
        let mut cp = Checkpoint::for_source(&pipes, source, options);
        let judge = RuleJudge::new();
        supervised
            .evaluate_checkpointed(
                &pipes,
                source,
                options,
                &judge,
                &mut cp,
                &mut |_| false,
                &|_| {},
            )
            .expect("supervised pass");
        let healed = cp.heal(&supervised, &pipes, source, options, &judge);
        assert!(
            healed.expect("valid checkpoint") > 0,
            "the plan quarantines shards"
        );
        calm.evaluate_checkpointed(
            &pipes,
            source,
            options,
            &judge,
            &mut cp,
            &mut |_| false,
            &|_| {},
        )
        .expect("calm resume")
        .expect("grid completes")
    };
    let challenge = spec.clone().with_mc_sa_ratio(0.0);
    let table = Table2::from_columns([column(&spec), column(&challenge)].concat());
    assert!(
        table.is_degraded(),
        "faults other than panics survive the heal"
    );
    let via_checkpoint = table_bytes(table);

    // fleet path: one supervised worker (heals inside each claim)
    let dir = tmp_dir("heal-parity");
    let job = job(&pipes, &spec);
    let config = FleetConfig {
        heartbeat_interval: Duration::from_millis(20),
        idle_backoff: Duration::from_millis(2),
        ..FleetConfig::default()
    };
    let outcome = fleet::run_worker(&dir, &supervised, &job, &RuleJudge::new(), &config)
        .expect("worker runs");
    assert!(outcome.shards_healed > 0, "the worker healed its claims");
    assert_eq!(
        merged_bytes(&dir, &job),
        via_checkpoint,
        "fleet healing and checkpoint requeue converge to the same bytes"
    );
    let _ = fs::remove_dir_all(&dir);
}

/// A judge with a bug on one question: it panics there on every run, as
/// a genuine panic does.
struct PanicsOn(&'static str);

impl Judge for PanicsOn {
    fn is_correct(&self, question: &Question, response: &str) -> bool {
        if question.id == self.0 {
            std::panic::panic_any(InjectedPanic {
                fingerprint: 0,
                question_id: question.id.clone(),
            });
        }
        RuleJudge::new().is_correct(question, response)
    }
}

/// Contract 5: an unsupervised worker over a grid whose judge panics on
/// one question re-runs that claim's panicked rows, which panic again,
/// and commits them: the merge equals the degraded single-process
/// table. A fleet that set such a claim aside for a later heal would
/// re-claim it forever, so the worker runs behind a timeout.
#[test]
fn a_genuine_panic_is_committed_where_it_is_caught_and_merges_like_one_process() {
    install_quiet_panic_hook();
    let (pipes, spec) = grid();
    let judge = PanicsOn("digital-003");
    let (table, _) = ParallelExecutor::new(2).evaluate_table2(
        &pipes,
        &spec,
        SHARD_SIZE,
        EvalOptions::default(),
        &judge,
    );
    assert!(table.is_degraded(), "the judge bug degrades the table");
    let reference = table_bytes(table);

    let dir = tmp_dir("genuine-panic");
    let (done, finished) = mpsc::channel();
    let worker_dir = dir.clone();
    // not scoped: a livelocked worker cannot be joined, only left behind
    let worker = std::thread::spawn(move || {
        let (pipes, spec) = grid();
        let config = FleetConfig {
            heartbeat_interval: Duration::from_millis(20),
            idle_backoff: Duration::from_millis(2),
            ..FleetConfig::default()
        };
        let exec = ParallelExecutor::new(2);
        let outcome = fleet::run_worker(&worker_dir, &exec, &job(&pipes, &spec), &judge, &config);
        let _ = done.send(outcome);
    });
    let outcome = finished
        .recv_timeout(Duration::from_secs(120))
        .expect("the worker finishes: a genuine panic must not livelock its claim");
    worker.join().expect("worker thread");
    let outcome = outcome.expect("worker runs");
    assert!(outcome.shards_healed >= 1, "the panicked claim re-ran calm");
    assert_eq!(
        merged_bytes(&dir, &job(&pipes, &spec)),
        reference,
        "the fleet commits the WorkerPanic outcomes one process records"
    );
    let _ = fs::remove_dir_all(&dir);
}
