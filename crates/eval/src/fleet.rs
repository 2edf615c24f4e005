//! Crash-tolerant multi-process fleet execution.
//!
//! A *fleet* is N independent worker processes cooperating on one Table
//! II grid through a shared directory — no coordinator, no network, no
//! shared memory. The grid is the one
//! [`evaluate_table2`](ParallelExecutor::evaluate_table2) runs: every
//! model over a [`DatasetSpec`] and over its no-choice twin. A *claim* is
//! one [`SHARD_SIZE`]-question shard of the spec over every row (each
//! model in both columns): the shard is generated once, and every row
//! reads its legibility slots. Each worker claims shards through an
//! atomically created **lease** file, evaluates them, and commits each
//! shard's rows as one **done** record; a final [`merge`] folds the
//! records into the canonical [`Table2`] without generating a question.
//! The shared [`AnswerStore`](crate::store::AnswerStore), in which each
//! worker appends only to segments it created, is the common answer
//! plane, so work one worker already inferred is a disk hit for every
//! other.
//!
//! # Directory layout
//!
//! ```text
//! fleet/
//!   manifest.json            format version + the run's RunIdentity
//!                            (models, spec fingerprint, options)
//!   leases/shard-0007.lease  in-flight claim: pid + start token +
//!                            nonce + heartbeat
//!   done/shard-0007.json     committed ShardRecord, every row of shard
//!                            7 (exactly one, ever)
//! ```
//!
//! # The lease protocol
//!
//! Every file-level claim uses *write-tmp-then-`hard_link`*: the link
//! either creates the target with full content or fails
//! `AlreadyExists` — there is no window where another process observes
//! a partial file, and when two workers race, exactly one wins. A
//! worker proves it still owns a lease by reading back its own unique
//! nonce.
//!
//! A lease is judged **stale** — and stolen — when its holder is dead
//! (`/proc` pid gone), recycled (pid alive but the kernel start token
//! differs from the stamp), unparsable, or *stalled* (the heartbeat
//! counter, bumped by a background thread of the owner every
//! [`FleetConfig::heartbeat_interval`], has not moved for
//! [`FleetConfig::stall_timeout`]). The heartbeat thread sleeps on a
//! channel the claim's guard holds: releasing the lease hangs up, which
//! wakes the thread at once, and the release joins it before removing
//! the lease file, so no bump lands after the release. Stealing a
//! live-but-slow worker's lease is safe: evaluation is deterministic per
//! shard, so the two workers race to commit byte-identical records and
//! the `hard_link` commit lets exactly the first one win
//! (**at-least-once evaluation, exactly-once commit**).
//!
//! A worker killed between its done commit and its lease release leaves
//! a lease over a done shard, which no claim looks at again. So once
//! every shard is done, a worker makes one pass over `leases/` and
//! removes each lease over a done shard whose holder is dead or whose
//! file is corrupt, counted as `fleet.lease.swept`, not as a steal.
//!
//! # Healing
//!
//! A claim runs every row on the worker's executor as given (supervised,
//! if a fault plan is attached), re-runs the rows that caught a worker
//! panic *calm*, on [`ParallelExecutor::unsupervised`], and commits every
//! row to `done/` once: the granularity of
//! [`Checkpoint::requeue_quarantined`](crate::checkpoint::Checkpoint::requeue_quarantined)
//! followed by an unsupervised resume, one (row, shard). A calm re-run
//! that panics again hit a genuine, deterministic panic, and the record
//! keeps the `WorkerPanic` outcomes a single-process run records. A
//! worker killed between its supervised pass and its commit leaves
//! nothing to heal from: the thief re-runs the whole claim, to the same
//! bytes.
//!
//! Each pass of a claim is one engine run over both columns of the job's
//! spec, made as `evaluate_table2` makes it and selecting the claim's
//! shard (and, calm, its panicked rows). Its walk starts at that shard,
//! so it generates that shard alone, and each row gets exactly the
//! breaker decisions and cache keys a single-process run gives it.
//!
//! # Determinism contract
//!
//! For any worker count, any lease-steal interleaving, and any kill
//! schedule, the merged report is byte-identical to a single-process
//! run of the same grid (`tests/fleet_chaos.rs` enforces this with
//! seeded `kill -9` schedules). Workers and [`merge`] check the
//! manifest's [`RunIdentity`] against the caller's job with
//! [`RunIdentity::check`], the comparison a checkpoint resume makes, and
//! refuse a foreign run with [`FleetError::Mismatch`] carrying the same
//! [`RunMismatch`] a checkpoint would. [`merge`] also refuses incomplete
//! fleets, records from a different manifest, and records whose rows do
//! not tile their shard. A directory of another on-disk format is
//! refused whole, never merged.

use std::collections::HashMap;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::{Duration, Instant};

use chipvqa_core::DatasetSpec;
use chipvqa_models::VlmPipeline;
use chipvqa_telemetry::{kv, Telemetry};
use serde::{Deserialize, Serialize};

use crate::checkpoint::{RunIdentity, RunMismatch, ShardResult};
use crate::executor::{quarantines, ParallelExecutor, Reports, ShardKey, ShardSource, SHARD_SIZE};
use crate::harness::EvalOptions;
use crate::judge::Judge;
use crate::report::Table2;
use crate::store::fnv1a64;

/// On-disk fleet format version, stamped in `manifest.json`. Version 5
/// holds one directory per Table II grid, one claim per spec shard and
/// one done record per claim with every row; version 4 also kept the
/// records of claims with panicked rows apart, awaiting a heal.
pub const FLEET_FORMAT_VERSION: u32 = 5;

/// Tuning knobs of a fleet worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetConfig {
    /// How often the owner's background thread bumps the lease
    /// heartbeat.
    pub heartbeat_interval: Duration,
    /// How long an *unchanged* heartbeat must be observed before a live
    /// holder is judged stalled and its lease stolen. Must comfortably
    /// exceed `heartbeat_interval` in production; tests set it to zero
    /// to force steals.
    pub stall_timeout: Duration,
    /// Sleep between scan passes when every remaining shard is leased
    /// by a live worker.
    pub idle_backoff: Duration,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            heartbeat_interval: Duration::from_millis(100),
            stall_timeout: Duration::from_secs(30),
            idle_backoff: Duration::from_millis(25),
        }
    }
}

/// The identity of one fleet run, as the caller knows it: the Table II
/// grid of `pipes` over `spec` and its no-choice twin. Workers and
/// [`merge`] both derive the on-disk [`FleetManifest`] from this; a
/// worker whose job disagrees with the directory's manifest is refused
/// before it can pollute the run.
#[derive(Debug, Clone, Copy)]
pub struct FleetJob<'a> {
    /// The model grid, in canonical order.
    pub pipes: &'a [VlmPipeline],
    /// The with-choice column; the no-choice column is its twin.
    pub spec: &'a DatasetSpec,
    /// Evaluation options.
    pub options: EvalOptions,
}

impl FleetJob<'_> {
    /// The manifest this job stamps (and checks against): the identity
    /// a checkpoint of the with-choice column carries.
    pub fn manifest(&self) -> FleetManifest {
        let source = ShardSource::Spec(self.spec, SHARD_SIZE);
        FleetManifest {
            format_version: FLEET_FORMAT_VERSION,
            identity: RunIdentity::new(self.pipes, source, self.options),
        }
    }

    /// Claims in the fleet: one per [`SHARD_SIZE`]-question shard of the
    /// spec.
    pub fn claims(&self) -> usize {
        self.spec.total().div_ceil(SHARD_SIZE)
    }

    /// Rows of every claim: each model over the with-choice column, then
    /// each over the no-choice one.
    fn rows(&self) -> usize {
        2 * self.pipes.len()
    }

    /// Whether `row` is one of claim `idx`'s rows, with an outcome per
    /// question of the shard.
    fn fits(&self, idx: usize, row: &ShardResult) -> bool {
        let q_start = idx * SHARD_SIZE;
        let q_end = (q_start + SHARD_SIZE).min(self.spec.total());
        row.key.model_idx < self.rows()
            && (row.key.q_start, row.key.q_end) == (q_start, q_end)
            && row.outcomes.len() == q_end - q_start
    }

    /// Runs claim `idx` (see the module docs): every row on `exec`, then
    /// the rows that caught a worker panic again on `calm`. Returns the
    /// rows in row order, and whether any was re-run.
    fn run_claim(
        &self,
        exec: &ParallelExecutor,
        calm: &ParallelExecutor,
        judge: &dyn Judge,
        idx: usize,
    ) -> (Vec<ShardResult>, bool) {
        let mut rows = self.run_rows(exec, judge, idx, &|_| true);
        let panicked: Vec<bool> = rows.iter().map(|row| quarantines(&row.outcomes)).collect();
        if !panicked.contains(&true) {
            return (rows, false);
        }
        for row in self.run_rows(calm, judge, idx, &|row| panicked[row]) {
            let slot = row.key.model_idx;
            rows[slot] = row;
        }
        (rows, true)
    }

    /// Runs the rows of claim `idx` that `row` selects on `exec` — one
    /// engine run with the no-choice twin, made as
    /// [`evaluate_table2`](ParallelExecutor::evaluate_table2) makes it —
    /// and returns them in row order.
    fn run_rows(
        &self,
        exec: &ParallelExecutor,
        judge: &dyn Judge,
        idx: usize,
        row: &dyn Fn(usize) -> bool,
    ) -> Vec<ShardResult> {
        let twin = Some(self.spec.clone().with_mc_sa_ratio(0.0).fingerprint());
        let source = ShardSource::Spec(self.spec, SHARD_SIZE);
        let finished = Mutex::new(Vec::new());
        let sink = |key, outcomes| {
            let mut finished = finished.lock().expect("claim rows lock");
            finished.push(ShardResult { key, outcomes });
        };
        let select = |key: &ShardKey| key.q_start == idx * SHARD_SIZE && row(key.model_idx);
        let (options, stop) = (self.options, &mut |_| false);
        exec.run(
            self.pipes, source, twin, options, judge, &select, stop, &sink,
        );
        let mut rows = finished.into_inner().expect("claim rows lock");
        rows.sort_by_key(|row| row.key.model_idx);
        rows
    }
}

/// Durable identity of a fleet run: the first worker creates it
/// atomically, every later worker and the merge check their job's
/// identity against it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetManifest {
    /// On-disk fleet format version.
    pub format_version: u32,
    /// The run's identity, as a [`Checkpoint`](crate::checkpoint::Checkpoint)
    /// of the same run stamps it.
    pub identity: RunIdentity,
}

impl FleetManifest {
    /// Content fingerprint of the manifest — stamped on every lease and
    /// shard record, so [`merge`] can refuse records from a different
    /// run that leaked into the directory.
    pub fn fingerprint(&self) -> u64 {
        fnv1a64(
            serde_json::to_string(self)
                .expect("manifest serializes")
                .as_bytes(),
        )
    }
}

/// One in-flight shard claim. Public so chaos tests can fabricate the
/// wreckage of dead workers; production code never constructs these by
/// hand.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Lease {
    /// Index of the claimed shard.
    pub shard_index: usize,
    /// Owner pid.
    pub pid: u32,
    /// Owner's kernel start token (guards against pid reuse; 0 when the
    /// platform offers none).
    pub start_token: u64,
    /// Process-unique claim nonce — ownership is proven by reading this
    /// back, never by pid alone.
    pub nonce: u64,
    /// Liveness counter, bumped by the owner's heartbeat thread.
    pub heartbeat: u64,
    /// Fingerprint of the manifest this claim belongs to.
    pub manifest_fingerprint: u64,
}

/// One committed claim: the done file payload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardRecord {
    /// Fingerprint of the manifest the shard was evaluated under.
    pub manifest_fingerprint: u64,
    /// Pid of the committing worker (forensics only).
    pub worker_pid: u32,
    /// The shard's rows in row order, each keyed with its row
    /// ([`ShardKey::model_idx`]): every model over the with-choice
    /// column, then every model over the no-choice one.
    pub rows: Vec<ShardResult>,
}

/// What one worker did, for logging and assertions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FleetOutcome {
    /// Shards this worker evaluated and committed to `done/`.
    pub shards_evaluated: usize,
    /// Of those, shards in which some row caught a worker panic and was
    /// re-run calm (healed).
    pub shards_healed: usize,
    /// Stale leases this worker removed and successfully re-claimed.
    pub leases_stolen: usize,
    /// Stale leases this worker removed but lost the re-claim race for.
    pub steals_lost: usize,
    /// Leases of dead holders (or corrupt lease files) left over done
    /// shards, removed by this worker's closing sweep.
    pub leases_swept: usize,
    /// Commits that found the target record already present (another
    /// worker finished the same shard first — benign by determinism).
    pub duplicate_commits: usize,
}

/// Why a fleet operation was refused.
#[derive(Debug)]
pub enum FleetError {
    /// Filesystem failure underneath the protocol.
    Io(io::Error),
    /// `manifest.json` does not exist — no fleet ever ran here.
    ManifestMissing,
    /// `manifest.json` was written in another on-disk fleet format.
    FormatVersion {
        /// Version stamped in the manifest.
        stamped: u32,
        /// [`FLEET_FORMAT_VERSION`] of this build.
        expected: u32,
    },
    /// The directory's manifest stamps a different run than the caller's
    /// job: the first identity field that differs, as a checkpoint
    /// resume would report it.
    Mismatch(RunMismatch),
    /// Not every shard has a committed done record yet.
    Incomplete {
        /// Shards committed.
        done: usize,
        /// Shards in the plan.
        total: usize,
    },
    /// A done record carries a foreign manifest fingerprint or rows that
    /// do not tile its shard — it does not belong to this run's `done/`
    /// set.
    ForeignShard {
        /// Index of the offending shard.
        shard_index: usize,
    },
    /// A protocol file exists but does not parse.
    Corrupt {
        /// The offending file.
        path: PathBuf,
        /// What failed.
        detail: String,
    },
}

impl fmt::Display for FleetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetError::Io(e) => write!(f, "fleet i/o failure: {e}"),
            FleetError::ManifestMissing => {
                write!(f, "fleet directory has no manifest.json: no fleet ran here")
            }
            FleetError::FormatVersion { stamped, expected } => write!(
                f,
                "fleet manifest has format version {stamped}; this build reads \
                 version {expected}"
            ),
            FleetError::Mismatch(mismatch) => {
                write!(f, "fleet manifest belongs to a different run: {mismatch}")
            }
            FleetError::Incomplete { done, total } => write!(
                f,
                "fleet is incomplete: {done}/{total} shards committed — run more \
                 workers to completion before merging"
            ),
            FleetError::ForeignShard { shard_index } => write!(
                f,
                "done record for shard {shard_index} does not belong to this \
                 run's manifest"
            ),
            FleetError::Corrupt { path, detail } => {
                write!(f, "fleet file {} is corrupt: {detail}", path.display())
            }
        }
    }
}

impl std::error::Error for FleetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FleetError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for FleetError {
    fn from(e: io::Error) -> Self {
        FleetError::Io(e)
    }
}

/// Path of shard `idx`'s lease file.
pub fn lease_path(dir: &Path, idx: usize) -> PathBuf {
    dir.join("leases").join(format!("shard-{idx:04}.lease"))
}

/// Path of shard `idx`'s committed done record.
pub fn done_path(dir: &Path, idx: usize) -> PathBuf {
    dir.join("done").join(format!("shard-{idx:04}.json"))
}

/// A process-unique claim nonce: pid × start token × a process-local
/// counter, mixed through FNV. Two workers can never mint the same one.
fn fresh_nonce() -> u64 {
    static COUNTER: AtomicU64 = AtomicU64::new(1);
    let c = COUNTER.fetch_add(1, Ordering::Relaxed);
    let mut bytes = Vec::with_capacity(20);
    bytes.extend_from_slice(&std::process::id().to_le_bytes());
    bytes.extend_from_slice(&own_start_token().to_le_bytes());
    bytes.extend_from_slice(&c.to_le_bytes());
    fnv1a64(&bytes)
}

/// Atomic full-content create: write a unique tmp file, `hard_link` it
/// to `path` (which either creates the target whole or fails
/// `AlreadyExists`), remove the tmp. Returns whether *we* created the
/// target — the entire exactly-once story rests on this primitive.
fn atomic_create(path: &Path, bytes: &[u8]) -> io::Result<bool> {
    let tmp = path.with_extension(format!("tmp-{}-{}", std::process::id(), fresh_nonce()));
    fs::write(&tmp, bytes)?;
    let linked = fs::hard_link(&tmp, path);
    let _ = fs::remove_file(&tmp);
    match linked {
        Ok(()) => Ok(true),
        Err(e) if e.kind() == io::ErrorKind::AlreadyExists => Ok(false),
        Err(e) => Err(e),
    }
}

/// What reading a lease file yielded.
enum LeaseRead {
    Missing,
    Corrupt,
    Held(Lease),
}

fn read_lease(path: &Path) -> io::Result<LeaseRead> {
    match fs::read_to_string(path) {
        Ok(json) => Ok(match serde_json::from_str(&json) {
            Ok(lease) => LeaseRead::Held(lease),
            Err(_) => LeaseRead::Corrupt,
        }),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(LeaseRead::Missing),
        Err(e) => Err(e),
    }
}

/// Reads a committed record; `None` when there is none.
fn read_record(path: &Path) -> Result<Option<ShardRecord>, FleetError> {
    let json = match fs::read_to_string(path) {
        Ok(json) => json,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e.into()),
    };
    serde_json::from_str(&json)
        .map(Some)
        .map_err(|e| FleetError::Corrupt {
            path: path.to_path_buf(),
            detail: e.to_string(),
        })
}

/// Creates `manifest.json` atomically, or checks the one a faster
/// worker already created.
fn ensure_manifest(dir: &Path, expected: &FleetManifest) -> Result<(), FleetError> {
    let bytes = serde_json::to_string(expected).expect("manifest serializes");
    if atomic_create(&dir.join("manifest.json"), bytes.as_bytes())? {
        return Ok(());
    }
    check_manifest(dir, expected)
}

/// Reads `manifest.json` and checks its format version, then the run
/// identity it stamps, against `expected`.
fn check_manifest(dir: &Path, expected: &FleetManifest) -> Result<(), FleetError> {
    let path = dir.join("manifest.json");
    let json = match fs::read_to_string(&path) {
        Ok(json) => json,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Err(FleetError::ManifestMissing),
        Err(e) => return Err(e.into()),
    };
    let corrupt = |e: serde_json::Error| FleetError::Corrupt {
        path: path.clone(),
        detail: e.to_string(),
    };
    // the version alone first: a manifest of another format is refused
    // as such, not as unparsable
    #[derive(Deserialize)]
    struct Version {
        format_version: u32,
    }
    let Version { format_version } = serde_json::from_str(&json).map_err(corrupt)?;
    if format_version != expected.format_version {
        return Err(FleetError::FormatVersion {
            stamped: format_version,
            expected: expected.format_version,
        });
    }
    let found: FleetManifest = serde_json::from_str(&json).map_err(corrupt)?;
    found
        .identity
        .check(&expected.identity)
        .map_err(FleetError::Mismatch)
}

/// Why a lease's holder is gone, if it is: its pid vanished, or the
/// pid is alive but its start token differs from the stamp, so it
/// belongs to a newer process. A platform without start tokens falls
/// back to pid liveness alone.
fn dead_holder(lease: &Lease) -> Option<&'static str> {
    if !pid_alive(lease.pid) {
        return Some("dead-pid");
    }
    match process_start_token(lease.pid) {
        Some(token) if token != lease.start_token => Some("pid-reuse"),
        _ => None,
    }
}

#[cfg(target_os = "linux")]
fn pid_alive(pid: u32) -> bool {
    Path::new(&format!("/proc/{pid}")).exists()
}

#[cfg(not(target_os = "linux"))]
fn pid_alive(_pid: u32) -> bool {
    // without a portable liveness probe, assume the holder is alive;
    // the stall timeout still frees its leases
    true
}

/// The kernel's start time of `pid` (clock ticks since boot) — a token
/// that distinguishes a process from a later one that recycled its pid.
/// `/proc/<pid>/stat` field 22; the command name can contain spaces and
/// parentheses, so parsing anchors on the *last* `)`.
#[cfg(target_os = "linux")]
fn process_start_token(pid: u32) -> Option<u64> {
    let stat = fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    let after_comm = &stat[stat.rfind(')')? + 1..];
    // after_comm starts at field 3 (state); starttime is field 22
    after_comm.split_whitespace().nth(19)?.parse().ok()
}

#[cfg(not(target_os = "linux"))]
fn process_start_token(_pid: u32) -> Option<u64> {
    None
}

/// This process's own start token, stamped into its leases beside the
/// pid (0 when the platform offers none).
pub fn own_start_token() -> u64 {
    static TOKEN: std::sync::OnceLock<u64> = std::sync::OnceLock::new();
    *TOKEN.get_or_init(|| process_start_token(std::process::id()).unwrap_or(0))
}

/// Why a lease was judged stale.
fn staleness(
    lease: &Lease,
    idx: usize,
    observed: &mut HashMap<usize, (u64, Instant)>,
    stall_timeout: Duration,
) -> Option<&'static str> {
    if let Some(reason) = dead_holder(lease) {
        return Some(reason);
    }
    match observed.get(&idx) {
        Some(&(heartbeat, since)) if heartbeat == lease.heartbeat => {
            if since.elapsed() >= stall_timeout {
                observed.remove(&idx);
                return Some("stalled");
            }
        }
        _ => {
            observed.insert(idx, (lease.heartbeat, Instant::now()));
        }
    }
    None
}

/// A held lease: keeps the heartbeat thread alive, releases the lease
/// file on drop (only if the nonce is still ours — a stolen lease is
/// left to its thief).
struct LeaseGuard {
    path: PathBuf,
    nonce: u64,
    /// Dropping the sender wakes the heartbeat thread and ends it.
    stop: Option<mpsc::Sender<()>>,
    heartbeat: Option<std::thread::JoinHandle<()>>,
}

impl LeaseGuard {
    fn start(path: PathBuf, lease: Lease, interval: Duration, telemetry: Telemetry) -> LeaseGuard {
        let (stop, stopped) = mpsc::channel::<()>();
        let thread_path = path.clone();
        let nonce = lease.nonce;
        let interval = interval.max(Duration::from_millis(1));
        let heartbeat = std::thread::spawn(move || {
            let mut lease = lease;
            // a timeout is a heartbeat; a hang-up is the release
            while let Err(mpsc::RecvTimeoutError::Timeout) = stopped.recv_timeout(interval) {
                lease.heartbeat += 1;
                // tmp + rename: the bump is atomic. If a thief claimed
                // the lease after judging us stalled, this recreates it
                // with our content — benign: both sides evaluate
                // deterministically and the done commit is first-wins.
                let tmp = thread_path.with_extension(format!("hb-{nonce}"));
                let ok = serde_json::to_string(&lease)
                    .map_err(io::Error::other)
                    .and_then(|json| fs::write(&tmp, json))
                    .and_then(|()| fs::rename(&tmp, &thread_path));
                if ok.is_ok() {
                    telemetry.counter("fleet.lease.heartbeat", 1);
                }
            }
        });
        LeaseGuard {
            path,
            nonce,
            stop: Some(stop),
            heartbeat: Some(heartbeat),
        }
    }

    /// Whether the lease file still carries our nonce.
    fn still_ours(&self) -> bool {
        matches!(
            read_lease(&self.path),
            Ok(LeaseRead::Held(lease)) if lease.nonce == self.nonce
        )
    }
}

impl Drop for LeaseGuard {
    fn drop(&mut self) {
        // hang up, then join: no bump can land after the removal below
        drop(self.stop.take());
        if let Some(handle) = self.heartbeat.take() {
            let _ = handle.join();
        }
        if self.still_ours() {
            let _ = fs::remove_file(&self.path);
        }
    }
}

/// Runs one fleet worker to completion: scans the claims, claims (or
/// steals) leases, evaluates, commits, and loops until every claim has a
/// done record. Returns what this worker contributed.
///
/// The worker evaluates each claim with `exec` as given (supervised, if
/// a fault plan is attached) and heals the rows that caught a panic on
/// [`exec.unsupervised()`](ParallelExecutor::unsupervised) inside the
/// same claim. If `exec` carries a cache backed by the shared answer
/// store, the store is flushed before returning.
pub fn run_worker(
    dir: &Path,
    exec: &ParallelExecutor,
    job: &FleetJob<'_>,
    judge: &dyn Judge,
    config: &FleetConfig,
) -> Result<FleetOutcome, FleetError> {
    for sub in ["leases", "done"] {
        fs::create_dir_all(dir.join(sub))?;
    }
    let manifest = job.manifest();
    ensure_manifest(dir, &manifest)?;
    let manifest_fp = manifest.fingerprint();
    let claims = job.claims();
    let tele = exec.telemetry();
    if tele.enabled() {
        tele.event(
            "fleet.worker.start",
            vec![
                kv("pid", std::process::id()),
                kv("shards", claims),
                kv("manifest", manifest_fp),
            ],
        );
    }
    let calm = exec.unsupervised();
    let mut observed: HashMap<usize, (u64, Instant)> = HashMap::new();
    let mut outcome = FleetOutcome::default();

    loop {
        let mut remaining = 0usize;
        let mut progressed = false;
        for idx in 0..claims {
            if done_path(dir, idx).exists() {
                continue;
            }
            remaining += 1;
            let Some(guard) = try_claim(
                dir,
                idx,
                manifest_fp,
                &mut observed,
                config,
                tele,
                &mut outcome,
            )?
            else {
                continue;
            };
            progressed = true;
            observed.remove(&idx);
            let (rows, healed) = job.run_claim(exec, &calm, judge, idx);
            let record = ShardRecord {
                manifest_fingerprint: manifest_fp,
                worker_pid: std::process::id(),
                rows,
            };
            let bytes = serde_json::to_string(&record).expect("record serializes");
            if atomic_create(&done_path(dir, idx), bytes.as_bytes())? {
                outcome.shards_evaluated += 1;
                tele.counter("fleet.shard.done", 1);
                if healed {
                    outcome.shards_healed += 1;
                    tele.counter("fleet.shard.healed", 1);
                }
                if tele.enabled() {
                    tele.event(
                        "fleet.shard.done",
                        vec![kv("shard", idx), kv("healed", healed)],
                    );
                }
            } else {
                // another worker (a thief that judged us stalled)
                // committed first — identical bytes by determinism, so
                // losing is benign
                outcome.duplicate_commits += 1;
                tele.counter("fleet.shard.duplicate", 1);
            }
            drop(guard);
        }
        if remaining == 0 {
            break;
        }
        if !progressed {
            std::thread::sleep(config.idle_backoff);
        }
    }
    sweep_leases(dir, tele, &mut outcome)?;

    if let Some(cache) = exec.cache() {
        cache.flush_store()?;
    }
    if tele.enabled() {
        tele.event(
            "fleet.worker.finish",
            vec![
                kv("pid", std::process::id()),
                kv("evaluated", outcome.shards_evaluated),
                kv("healed", outcome.shards_healed),
                kv("stolen", outcome.leases_stolen),
                kv("swept", outcome.leases_swept),
            ],
        );
    }
    Ok(outcome)
}

/// The closing sweep over `leases/` (see the module docs). A live
/// holder's lease is left to its own guard.
fn sweep_leases(dir: &Path, tele: &Telemetry, outcome: &mut FleetOutcome) -> io::Result<()> {
    for entry in fs::read_dir(dir.join("leases"))? {
        let path = entry?.path();
        let idx = path.file_name().and_then(|name| {
            let name = name.to_str()?;
            name.strip_prefix("shard-")?
                .strip_suffix(".lease")?
                .parse::<usize>()
                .ok()
        });
        let Some(idx) = idx.filter(|&idx| done_path(dir, idx).exists()) else {
            continue;
        };
        let (reason, victim) = match read_lease(&path)? {
            LeaseRead::Missing => continue,
            LeaseRead::Corrupt => ("corrupt", 0),
            LeaseRead::Held(lease) => match dead_holder(&lease) {
                Some(reason) => (reason, lease.pid),
                None => continue,
            },
        };
        // a rival sweeper that removed it first is not counted twice
        match fs::remove_file(&path) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::NotFound => continue,
            Err(e) => return Err(e),
        }
        outcome.leases_swept += 1;
        tele.counter("fleet.lease.swept", 1);
        if tele.enabled() {
            tele.event(
                "fleet.lease.swept",
                vec![
                    kv("shard", idx),
                    kv("reason", reason),
                    kv("victim_pid", victim),
                ],
            );
        }
    }
    Ok(())
}

/// One claim attempt for shard `idx`. Judges an existing lease, steals
/// it if stale, and races the atomic create. `Ok(None)` means the shard
/// is legitimately busy (or we lost the race) — move on.
fn try_claim(
    dir: &Path,
    idx: usize,
    manifest_fp: u64,
    observed: &mut HashMap<usize, (u64, Instant)>,
    config: &FleetConfig,
    tele: &Telemetry,
    outcome: &mut FleetOutcome,
) -> Result<Option<LeaseGuard>, FleetError> {
    let path = lease_path(dir, idx);
    let mut stole: Option<(&'static str, u32)> = None;
    match read_lease(&path)? {
        LeaseRead::Missing => {}
        LeaseRead::Corrupt => {
            let _ = fs::remove_file(&path);
            stole = Some(("corrupt", 0));
        }
        LeaseRead::Held(existing) => {
            match staleness(&existing, idx, observed, config.stall_timeout) {
                None => {
                    tele.counter("fleet.lease.busy", 1);
                    return Ok(None);
                }
                Some(reason) => {
                    // remove-then-claim: a rival thief may win the
                    // re-claim below, which is counted as a lost steal
                    let _ = fs::remove_file(&path);
                    stole = Some((reason, existing.pid));
                }
            }
        }
    }

    let lease = Lease {
        shard_index: idx,
        pid: std::process::id(),
        start_token: own_start_token(),
        nonce: fresh_nonce(),
        heartbeat: 0,
        manifest_fingerprint: manifest_fp,
    };
    let bytes = serde_json::to_string(&lease).expect("lease serializes");
    if !atomic_create(&path, bytes.as_bytes())? {
        if stole.is_some() {
            outcome.steals_lost += 1;
            tele.counter("fleet.lease.steal_lost", 1);
        } else {
            tele.counter("fleet.lease.busy", 1);
        }
        return Ok(None);
    }
    // ownership is proven by nonce read-back, never assumed from the
    // create: paranoia against an unexpected interleaving is cheap here
    match read_lease(&path)? {
        LeaseRead::Held(readback) if readback.nonce == lease.nonce => {}
        _ => {
            tele.counter("fleet.lease.steal_lost", 1);
            return Ok(None);
        }
    }
    if let Some((reason, victim)) = stole {
        outcome.leases_stolen += 1;
        tele.counter("fleet.lease.steal", 1);
        if tele.enabled() {
            tele.event(
                "fleet.lease.steal",
                vec![
                    kv("shard", idx),
                    kv("reason", reason),
                    kv("victim_pid", victim),
                ],
            );
        }
    }
    tele.counter("fleet.lease.claim", 1);
    if tele.enabled() {
        tele.event("fleet.lease.claim", vec![kv("shard", idx)]);
    }
    Ok(Some(LeaseGuard::start(
        path,
        lease,
        config.heartbeat_interval,
        tele.clone(),
    )))
}

/// Folds a completed fleet directory into the canonical [`Table2`] —
/// the deterministic merge, which generates nothing. Refuses
/// (structured, never silently wrong): a missing manifest
/// ([`FleetError::ManifestMissing`]), one of another format
/// ([`FleetError::FormatVersion`]) or of another run
/// ([`FleetError::Mismatch`]), an incomplete fleet
/// ([`FleetError::Incomplete`]), and done records that do not belong to
/// this manifest or do not tile their shard ([`FleetError::ForeignShard`]).
pub fn merge(dir: &Path, job: &FleetJob<'_>, telemetry: &Telemetry) -> Result<Table2, FleetError> {
    let manifest = job.manifest();
    check_manifest(dir, &manifest)?;
    let manifest_fp = manifest.fingerprint();
    let claims = job.claims();
    let reports = Reports::new(job.pipes.iter().chain(job.pipes), job.spec.total());
    let mut missing = 0usize;
    for idx in 0..claims {
        let Some(record) = read_record(&done_path(dir, idx))? else {
            missing += 1;
            continue;
        };
        let tiles = record.rows.len() == job.rows()
            && (record.rows.iter().enumerate())
                .all(|(row, result)| result.key.model_idx == row && job.fits(idx, result));
        if record.manifest_fingerprint != manifest_fp || !tiles {
            return Err(FleetError::ForeignShard { shard_index: idx });
        }
        for row in record.rows {
            reports.push(row.key, row.outcomes);
        }
    }
    if missing > 0 {
        return Err(FleetError::Incomplete {
            done: claims - missing,
            total: claims,
        });
    }
    let table = Table2::from_columns(reports.finish());
    telemetry.counter("fleet.merge.done", 1);
    if telemetry.enabled() {
        telemetry.event(
            "fleet.merge.done",
            vec![kv("shards", claims), kv("models", table.rows.len())],
        );
    }
    Ok(table)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use crate::judge::RuleJudge;
    use crate::supervisor::Supervisor;
    use chipvqa_models::ModelZoo;

    fn tmp_dir(tag: &str) -> PathBuf {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "chipvqa-fleet-unit-{tag}-{}-{n}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn small_job<'a>(pipes: &'a [VlmPipeline], spec: &'a DatasetSpec) -> FleetJob<'a> {
        FleetJob {
            pipes,
            spec,
            options: EvalOptions::default(),
        }
    }

    fn quick_config() -> FleetConfig {
        FleetConfig {
            heartbeat_interval: Duration::from_millis(20),
            stall_timeout: Duration::from_secs(30),
            idle_backoff: Duration::from_millis(5),
        }
    }

    /// The single-process table of `job`'s grid.
    fn reference(exec: &ParallelExecutor, job: &FleetJob<'_>) -> Table2 {
        let judge = RuleJudge::new();
        (exec.evaluate_table2(job.pipes, job.spec, SHARD_SIZE, job.options, &judge)).0
    }

    #[test]
    fn single_worker_fleet_matches_direct_grid_evaluation() {
        let dir = tmp_dir("single");
        let spec = DatasetSpec::default();
        let pipes = vec![
            VlmPipeline::new(ModelZoo::gpt4o()),
            VlmPipeline::new(ModelZoo::fuyu_8b()),
        ];
        let job = small_job(&pipes, &spec);
        let exec = ParallelExecutor::new(2);
        let outcome =
            run_worker(&dir, &exec, &job, &RuleJudge::new(), &quick_config()).expect("runs");
        assert_eq!(outcome.shards_evaluated, job.claims());
        assert_eq!(outcome.shards_healed, 0);
        assert_eq!(outcome.leases_stolen, 0);
        let merged = merge(&dir, &job, &Telemetry::disabled()).expect("merges");
        assert_eq!(
            merged,
            reference(&exec, &job),
            "fleet merge is byte-identical"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn panic_faults_quarantine_then_heal_to_the_clean_report() {
        let dir = tmp_dir("heal");
        let spec = DatasetSpec::default();
        let pipes = vec![VlmPipeline::new(ModelZoo::gpt4o())];
        let job = small_job(&pipes, &spec);
        let plan = FaultPlan {
            panic_rate: 0.25,
            seed: 7,
            ..FaultPlan::none()
        };
        let exec = ParallelExecutor::new(2).with_supervisor(Supervisor::new(plan));
        let outcome =
            run_worker(&dir, &exec, &job, &RuleJudge::new(), &quick_config()).expect("runs");
        assert!(
            outcome.shards_healed > 0,
            "a 25% panic rate must heal at least one claim"
        );
        assert_eq!(
            outcome.shards_evaluated,
            job.claims(),
            "every claim is committed, healed inside the claim"
        );
        let merged = merge(&dir, &job, &Telemetry::disabled()).expect("merges");
        assert_eq!(
            merged,
            reference(&ParallelExecutor::new(2), &job),
            "healed fleet converges to the calm single-process report"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn dead_pid_lease_is_stolen_and_its_claim_rerun() {
        let dir = tmp_dir("steal");
        let spec = DatasetSpec::default();
        let pipes = vec![VlmPipeline::new(ModelZoo::gpt4o())];
        let job = small_job(&pipes, &spec);
        let manifest = job.manifest();
        let manifest_fp = manifest.fingerprint();
        for sub in ["leases", "done"] {
            fs::create_dir_all(dir.join(sub)).expect("mkdir");
        }
        fs::write(
            dir.join("manifest.json"),
            serde_json::to_string(&manifest).expect("serializes"),
        )
        .expect("writes manifest");
        // the wreckage of a kill -9'd worker: a lease held by a dead
        // pid, over a shard it never committed
        let dead = Lease {
            shard_index: 0,
            pid: u32::MAX - 2, // far beyond any real pid on the box
            start_token: 12345,
            nonce: 999,
            heartbeat: 3,
            manifest_fingerprint: manifest_fp,
        };
        fs::write(
            lease_path(&dir, 0),
            serde_json::to_string(&dead).expect("serializes"),
        )
        .expect("plants lease");

        let exec = ParallelExecutor::new(2);
        let outcome =
            run_worker(&dir, &exec, &job, &RuleJudge::new(), &quick_config()).expect("runs");
        assert!(outcome.leases_stolen >= 1, "the dead pid's lease is stolen");
        assert_eq!(outcome.shards_evaluated, job.claims(), "its claim re-runs");
        let merged = merge(&dir, &job, &Telemetry::disabled()).expect("merges");
        assert_eq!(merged, reference(&exec, &job));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn merge_refuses_mismatched_identity_and_incomplete_fleets() {
        let dir = tmp_dir("refuse");
        let spec = DatasetSpec::default();
        let other_spec = DatasetSpec::scaled(2);
        let pipes = vec![VlmPipeline::new(ModelZoo::gpt4o())];
        let job = small_job(&pipes, &spec);
        // no manifest yet
        assert!(matches!(
            merge(&dir, &job, &Telemetry::disabled()),
            Err(FleetError::ManifestMissing)
        ));
        fs::create_dir_all(&dir).expect("mkdir");
        let manifest = serde_json::to_string(&job.manifest()).expect("serializes");
        // a manifest of another format version is refused as such
        for old in [1, 2, 3, 4] {
            fs::write(
                dir.join("manifest.json"),
                manifest.replace(
                    &format!("\"format_version\":{FLEET_FORMAT_VERSION}"),
                    &format!("\"format_version\":{old}"),
                ),
            )
            .expect("writes");
            match merge(&dir, &job, &Telemetry::disabled()) {
                Err(FleetError::FormatVersion { stamped, expected }) => {
                    assert_eq!((stamped, expected), (old, FLEET_FORMAT_VERSION));
                }
                other => panic!("v{old} manifest: expected FormatVersion, got {other:?}"),
            }
        }
        fs::write(dir.join("manifest.json"), manifest).expect("writes");
        // wrong spec (e.g. merge invoked with wrong --scale)
        let wrong_spec = small_job(&pipes, &other_spec);
        assert!(matches!(
            merge(&dir, &wrong_spec, &Telemetry::disabled()),
            Err(FleetError::Mismatch(RunMismatch::SpecFingerprint {
                stamped: Some(s),
                expected: Some(e),
            })) if (s, e) == (spec.fingerprint(), other_spec.fingerprint())
        ));
        // identity matches but nothing committed yet
        match merge(&dir, &job, &Telemetry::disabled()) {
            Err(FleetError::Incomplete { done: 0, total }) => assert_eq!(total, job.claims()),
            other => panic!("expected Incomplete, got {other:?}"),
        }
        // a worker whose job disagrees is refused up front, too
        let exec = ParallelExecutor::new(1);
        assert!(matches!(
            run_worker(&dir, &exec, &wrong_spec, &RuleJudge::new(), &quick_config()),
            Err(FleetError::Mismatch(RunMismatch::SpecFingerprint { .. }))
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    /// A checkpoint and a fleet manifest of the same run carry one
    /// identity, and a foreign run is refused by the checkpoint, the
    /// merge and a worker with the same mismatch, field by field.
    #[test]
    fn checkpoint_and_fleet_refuse_a_foreign_run_with_the_same_mismatch() {
        use crate::checkpoint::{Checkpoint, CheckpointError};
        let dir = tmp_dir("parity");
        let spec = DatasetSpec::default();
        let other_spec = spec.clone().with_seed(spec.seed + 1);
        let pipes = vec![VlmPipeline::new(ModelZoo::gpt4o())];
        let other_pipes = vec![VlmPipeline::new(ModelZoo::fuyu_8b())];
        let run = small_job(&pipes, &spec);
        fn source<'a>(job: &FleetJob<'a>) -> ShardSource<'a> {
            ShardSource::Spec(job.spec, SHARD_SIZE)
        }
        let checkpoint = Checkpoint::for_source(&pipes, source(&run), run.options);
        assert_eq!(checkpoint.identity, run.manifest().identity);
        fs::create_dir_all(&dir).expect("mkdir");
        fs::write(
            dir.join("manifest.json"),
            serde_json::to_string(&run.manifest()).expect("serializes"),
        )
        .expect("writes manifest");

        let options = EvalOptions {
            attempts: 3,
            ..run.options
        };
        let cases = [
            (
                "models",
                FleetJob {
                    pipes: &other_pipes,
                    ..run
                },
                RunMismatch::Models {
                    stamped: vec![pipes[0].fingerprint()],
                    expected: vec![other_pipes[0].fingerprint()],
                },
            ),
            (
                "options",
                FleetJob { options, ..run },
                RunMismatch::Options {
                    stamped: run.options,
                    expected: options,
                },
            ),
            (
                "spec fingerprint",
                FleetJob {
                    spec: &other_spec,
                    ..run
                },
                RunMismatch::SpecFingerprint {
                    stamped: Some(spec.fingerprint()),
                    expected: Some(other_spec.fingerprint()),
                },
            ),
        ];
        let exec = ParallelExecutor::new(1);
        for (field, job, expected) in cases {
            assert_eq!(
                checkpoint.validate_source(job.pipes, source(&job), job.options),
                Err(CheckpointError::Mismatch(expected.clone())),
                "{field}: checkpoint resume"
            );
            match merge(&dir, &job, &Telemetry::disabled()) {
                Err(FleetError::Mismatch(found)) => assert_eq!(found, expected, "{field}: merge"),
                other => panic!("{field}: merge gave {other:?}"),
            }
            match run_worker(&dir, &exec, &job, &RuleJudge::new(), &quick_config()) {
                Err(FleetError::Mismatch(found)) => assert_eq!(found, expected, "{field}: worker"),
                other => panic!("{field}: worker gave {other:?}"),
            }
        }
        // the run itself passes both checks
        assert_eq!(
            checkpoint.validate_source(&pipes, source(&run), run.options),
            Ok(())
        );
        assert!(matches!(
            merge(&dir, &run, &Telemetry::disabled()),
            Err(FleetError::Incomplete { done: 0, .. })
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn manifest_fingerprint_pins_every_identity_field() {
        let spec = DatasetSpec::default();
        let pipes = vec![VlmPipeline::new(ModelZoo::gpt4o())];
        let base = small_job(&pipes, &spec).manifest();
        let fp = base.fingerprint();
        let mut other = base.clone();
        other.identity.spec_fingerprint = Some(1);
        assert_ne!(fp, other.fingerprint());
        let mut other = base.clone();
        other.identity.bench_hash ^= 1;
        assert_ne!(fp, other.fingerprint());
        let mut other = base.clone();
        other.identity.model_fingerprints[0] ^= 1;
        assert_ne!(fp, other.fingerprint());
        let mut other = base.clone();
        other.identity.options.attempts += 1;
        assert_ne!(fp, other.fingerprint());
        assert_eq!(fp, base.clone().fingerprint(), "stable for equal content");
    }

    #[test]
    fn dead_holder_tells_a_dead_pid_from_a_recycled_one() {
        let lease = |pid, start_token| Lease {
            shard_index: 0,
            pid,
            start_token,
            nonce: 1,
            heartbeat: 0,
            manifest_fingerprint: 0,
        };
        if let Some(token) = process_start_token(1) {
            // pid 1 is always alive; a stamp with another start token is
            // from an older process that used to own pid 1
            assert_eq!(dead_holder(&lease(1, token ^ 1)), Some("pid-reuse"));
            assert_eq!(dead_holder(&lease(1, token)), None, "the live holder");
        }
        // far beyond any real pid on the box
        assert_eq!(dead_holder(&lease(u32::MAX - 2, 1)), Some("dead-pid"));
    }
}
