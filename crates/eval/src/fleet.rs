//! Crash-tolerant multi-process fleet execution.
//!
//! A *fleet* is N independent worker processes cooperating on one grid
//! evaluation through a shared directory — no coordinator, no network,
//! no shared memory. Each worker claims shards through an atomically
//! created **lease** file, evaluates them, and commits the outcomes as
//! per-shard **done** records; a final [`merge`] folds the records into
//! the canonical `Vec<EvalReport>`. The shared
//! [`AnswerStore`](crate::store::AnswerStore) (opened with
//! [`open_shared`](crate::store::AnswerStore::open_shared)) is the
//! common answer plane, so work one worker already inferred is a disk
//! hit for every other.
//!
//! # Directory layout
//!
//! ```text
//! fleet/
//!   manifest.json            format version + the run's RunIdentity
//!                            (models, bench hash or spec fingerprint,
//!                            options)
//!   leases/shard-0007.lease  in-flight claim: pid + start token +
//!                            nonce + heartbeat
//!   done/shard-0007.json     committed ShardRecord (exactly one, ever)
//!   quarantine/shard-0007.json  panic-degraded outcomes awaiting heal
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
//! # Healing
//!
//! A shard whose supervised evaluation caught a worker panic is
//! committed to `quarantine/` instead of `done/` and stays claimable.
//! The next worker to claim it (possibly the same process, possibly a
//! thief healing a dead worker's wreckage) re-runs it *calm* — on
//! [`ParallelExecutor::unsupervised`], the same executor minus the
//! fault plan — and commits the clean outcomes to `done/`, exactly the
//! semantics of
//! [`Checkpoint::requeue_quarantined`](crate::checkpoint::Checkpoint::requeue_quarantined)
//! followed by a resume on the unsupervised executor.
//!
//! A claim, first pass or heal, is a one-key selection of the executor's
//! shard engine over the job's bench, keyed with the job's spec
//! fingerprint, so a claimed shard gets exactly the breaker decisions and
//! cache keys a single-process run gives it.
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
//! fleets and shard records from a different manifest.

use std::collections::HashMap;
use std::fmt;
use std::fs::{self};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use chipvqa_core::ChipVqa;
use chipvqa_models::VlmPipeline;
use chipvqa_telemetry::{kv, Telemetry};
use serde::{Deserialize, Serialize};

use crate::checkpoint::{RunIdentity, RunMismatch, ShardResult};
use crate::executor::{merge_reports, quarantines, ParallelExecutor, ShardSource};
use crate::harness::{EvalOptions, EvalReport};
use crate::judge::Judge;
use crate::store::{fnv1a64, holder_dead, own_start_token, pid_alive};

pub use crate::executor::ShardKey;

/// On-disk fleet format version, stamped in `manifest.json`. Version 3
/// nests the run's four-field [`RunIdentity`] under `identity`.
pub const FLEET_FORMAT_VERSION: u32 = 3;

/// The canonical shard plan of a job: every worker and the merge walk
/// exactly this list, in exactly this order. Exposed so chaos tests can
/// fabricate the wreckage (leases, quarantine records) of dead workers.
pub fn shard_plan(job: &FleetJob<'_>) -> Vec<ShardKey> {
    job.source().plan(job.pipes.len())
}

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
    /// Pause between claiming a lease and evaluating it — a test hook
    /// that widens the window in which a `kill -9` lands on a held
    /// lease. Zero (the default) in production.
    pub post_claim_delay: Duration,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            heartbeat_interval: Duration::from_millis(100),
            stall_timeout: Duration::from_secs(30),
            idle_backoff: Duration::from_millis(25),
            post_claim_delay: Duration::ZERO,
        }
    }
}

/// The identity of one fleet run, as the caller knows it. Workers and
/// [`merge`] both derive the on-disk [`FleetManifest`] from this; a
/// worker whose job disagrees with the directory's manifest is refused
/// before it can pollute the run.
#[derive(Debug, Clone, Copy)]
pub struct FleetJob<'a> {
    /// The model grid, in canonical order.
    pub pipes: &'a [VlmPipeline],
    /// The benchmark every worker must evaluate.
    pub bench: &'a ChipVqa,
    /// Evaluation options.
    pub options: EvalOptions,
    /// Fingerprint of the [`DatasetSpec`](chipvqa_core::spec::DatasetSpec)
    /// the bench was built from (`None` for canonical collections).
    pub spec_fingerprint: Option<u64>,
}

impl FleetJob<'_> {
    /// The job's bench as an engine source, keyed with the spec
    /// fingerprint (0 for canonical collections).
    fn source(&self) -> ShardSource<'_> {
        ShardSource::Bench(self.bench, self.spec_fingerprint.unwrap_or(0))
    }

    /// The manifest this job stamps (and checks against): the identity
    /// a checkpoint of the same run carries.
    pub fn manifest(&self) -> FleetManifest {
        FleetManifest {
            format_version: FLEET_FORMAT_VERSION,
            identity: RunIdentity::new(self.pipes, self.source(), self.options),
        }
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
    /// Index of the shard in the canonical plan.
    pub shard_index: usize,
    /// The claimed shard.
    pub shard: ShardKey,
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
    /// Whether this claim re-runs a quarantined shard calm.
    pub healing: bool,
}

/// One committed shard: the done/quarantine file payload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardRecord {
    /// Fingerprint of the manifest the shard was evaluated under.
    pub manifest_fingerprint: u64,
    /// Whether the outcomes are panic-degraded (quarantine files only;
    /// [`merge`] refuses a done record with this set).
    pub quarantined: bool,
    /// Pid of the committing worker (forensics only).
    pub worker_pid: u32,
    /// The shard and its outcomes.
    pub result: ShardResult,
}

/// What one worker did, for logging and assertions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FleetOutcome {
    /// Shards this worker evaluated and committed to `done/`.
    pub shards_evaluated: usize,
    /// Of those, shards that were quarantined re-runs (healed).
    pub shards_healed: usize,
    /// Shards whose supervised run caught a panic and went to
    /// `quarantine/` instead.
    pub shards_quarantined: usize,
    /// Stale leases this worker removed and successfully re-claimed.
    pub leases_stolen: usize,
    /// Stale leases this worker removed but lost the re-claim race for.
    pub steals_lost: usize,
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
    /// A done record carries a foreign manifest fingerprint, a
    /// mismatched shard key, or a quarantined flag — it does not belong
    /// to this run's `done/` set.
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

/// Path of shard `idx`'s quarantine record.
pub fn quarantine_path(dir: &Path, idx: usize) -> PathBuf {
    dir.join("quarantine").join(format!("shard-{idx:04}.json"))
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

/// Why a lease was judged stale.
fn staleness(
    lease: &Lease,
    idx: usize,
    observed: &mut HashMap<usize, (u64, Instant)>,
    stall_timeout: Duration,
) -> Option<&'static str> {
    if holder_dead(lease.pid, Some(lease.start_token)) {
        return Some(if pid_alive(lease.pid) {
            "pid-reuse"
        } else {
            "dead-pid"
        });
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

/// Runs one fleet worker to completion: scans the shard plan, claims
/// (or steals) leases, evaluates, commits, and loops until every shard
/// of the plan has a done record. Returns what this worker contributed.
///
/// The worker evaluates with `exec` as given (supervised, if a fault
/// plan is attached) for first-pass shards, and with
/// [`exec.unsupervised()`](ParallelExecutor::unsupervised) when healing
/// a quarantined shard. If `exec` carries a cache backed by the shared
/// answer store, the store is flushed before returning.
pub fn run_worker(
    dir: &Path,
    exec: &ParallelExecutor,
    job: &FleetJob<'_>,
    judge: &dyn Judge,
    config: &FleetConfig,
) -> Result<FleetOutcome, FleetError> {
    for sub in ["leases", "done", "quarantine"] {
        fs::create_dir_all(dir.join(sub))?;
    }
    let manifest = job.manifest();
    ensure_manifest(dir, &manifest)?;
    let manifest_fp = manifest.fingerprint();
    let keys = shard_plan(job);
    let tele = exec.telemetry();
    if tele.enabled() {
        tele.event(
            "fleet.worker.start",
            vec![
                kv("pid", std::process::id()),
                kv("shards", keys.len()),
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
        for (idx, key) in keys.iter().enumerate() {
            if done_path(dir, idx).exists() {
                continue;
            }
            remaining += 1;
            let healing = quarantine_path(dir, idx).exists();
            let Some(guard) = try_claim(
                dir,
                idx,
                key,
                manifest_fp,
                healing,
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
            if config.post_claim_delay > Duration::ZERO {
                std::thread::sleep(config.post_claim_delay);
            }
            let runner = if healing { &calm } else { exec };
            let (_, outcomes) = runner
                .run(
                    job.pipes,
                    job.source(),
                    job.options,
                    judge,
                    &|k| k == key,
                    &mut |_| false,
                )
                .outcomes
                .pop()
                .expect("one shard requested");
            let panicked = quarantines(&outcomes);
            let record = ShardRecord {
                manifest_fingerprint: manifest_fp,
                quarantined: panicked,
                worker_pid: std::process::id(),
                result: ShardResult {
                    key: *key,
                    outcomes,
                },
            };
            let bytes = serde_json::to_string(&record).expect("record serializes");
            if panicked {
                // quarantine commit: first-wins, the shard stays
                // claimable (healable) because done/ has no record
                let fresh = atomic_create(&quarantine_path(dir, idx), bytes.as_bytes())?;
                outcome.shards_quarantined += 1;
                tele.counter("fleet.shard.quarantined", 1);
                if tele.enabled() {
                    tele.event(
                        "fleet.shard.quarantined",
                        vec![kv("shard", idx), kv("first", fresh)],
                    );
                }
            } else if atomic_create(&done_path(dir, idx), bytes.as_bytes())? {
                outcome.shards_evaluated += 1;
                tele.counter("fleet.shard.done", 1);
                if healing {
                    outcome.shards_healed += 1;
                    tele.counter("fleet.shard.healed", 1);
                }
                if tele.enabled() {
                    tele.event(
                        "fleet.shard.done",
                        vec![kv("shard", idx), kv("healed", healing)],
                    );
                }
            } else {
                // another worker (a thief that judged us stalled, or a
                // racer on a healed shard) committed first — identical
                // bytes by determinism, so losing is benign
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
            ],
        );
    }
    Ok(outcome)
}

/// One claim attempt for shard `idx`. Judges an existing lease, steals
/// it if stale, and races the atomic create. `Ok(None)` means the shard
/// is legitimately busy (or we lost the race) — move on.
#[allow(clippy::too_many_arguments)]
fn try_claim(
    dir: &Path,
    idx: usize,
    key: &ShardKey,
    manifest_fp: u64,
    healing: bool,
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
        shard: *key,
        pid: std::process::id(),
        start_token: own_start_token(),
        nonce: fresh_nonce(),
        heartbeat: 0,
        manifest_fingerprint: manifest_fp,
        healing,
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
        tele.event(
            "fleet.lease.claim",
            vec![kv("shard", idx), kv("healing", healing)],
        );
    }
    Ok(Some(LeaseGuard::start(
        path,
        lease,
        config.heartbeat_interval,
        tele.clone(),
    )))
}

/// Folds a completed fleet directory into the canonical reports — the
/// deterministic merge. Refuses (structured, never silently wrong):
/// a missing manifest ([`FleetError::ManifestMissing`]), one of another
/// format ([`FleetError::FormatVersion`]) or of another run
/// ([`FleetError::Mismatch`]), an incomplete fleet
/// ([`FleetError::Incomplete`]), and done records that do not belong to
/// this manifest ([`FleetError::ForeignShard`]).
pub fn merge(
    dir: &Path,
    job: &FleetJob<'_>,
    telemetry: &Telemetry,
) -> Result<Vec<EvalReport>, FleetError> {
    let manifest = job.manifest();
    check_manifest(dir, &manifest)?;
    let manifest_fp = manifest.fingerprint();
    let keys = shard_plan(job);
    let mut pairs = Vec::with_capacity(keys.len());
    let mut missing = 0usize;
    for (idx, key) in keys.iter().enumerate() {
        let path = done_path(dir, idx);
        let json = match fs::read_to_string(&path) {
            Ok(json) => json,
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                missing += 1;
                continue;
            }
            Err(e) => return Err(e.into()),
        };
        let record: ShardRecord = serde_json::from_str(&json).map_err(|e| FleetError::Corrupt {
            path: path.clone(),
            detail: e.to_string(),
        })?;
        if record.manifest_fingerprint != manifest_fp
            || record.quarantined
            || record.result.key != *key
        {
            return Err(FleetError::ForeignShard { shard_index: idx });
        }
        pairs.push((record.result.key, record.result.outcomes));
    }
    if missing > 0 {
        return Err(FleetError::Incomplete {
            done: keys.len() - missing,
            total: keys.len(),
        });
    }
    let reports = merge_reports(job.pipes, job.bench.len(), pairs);
    telemetry.counter("fleet.merge.done", 1);
    if telemetry.enabled() {
        telemetry.event(
            "fleet.merge.done",
            vec![kv("shards", keys.len()), kv("models", reports.len())],
        );
    }
    Ok(reports)
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

    fn small_job<'a>(pipes: &'a [VlmPipeline], bench: &'a ChipVqa) -> FleetJob<'a> {
        FleetJob {
            pipes,
            bench,
            options: EvalOptions::default(),
            spec_fingerprint: None,
        }
    }

    fn quick_config() -> FleetConfig {
        FleetConfig {
            heartbeat_interval: Duration::from_millis(20),
            stall_timeout: Duration::from_secs(30),
            idle_backoff: Duration::from_millis(5),
            post_claim_delay: Duration::ZERO,
        }
    }

    #[test]
    fn single_worker_fleet_matches_direct_grid_evaluation() {
        let dir = tmp_dir("single");
        let bench = ChipVqa::standard();
        let pipes = vec![
            VlmPipeline::new(ModelZoo::gpt4o()),
            VlmPipeline::new(ModelZoo::fuyu_8b()),
        ];
        let job = small_job(&pipes, &bench);
        let exec = ParallelExecutor::new(2);
        let outcome =
            run_worker(&dir, &exec, &job, &RuleJudge::new(), &quick_config()).expect("runs");
        assert_eq!(outcome.shards_quarantined, 0);
        assert_eq!(outcome.leases_stolen, 0);
        let merged = merge(&dir, &job, &Telemetry::disabled()).expect("merges");
        let reference =
            exec.evaluate_grid(&pipes, &bench, EvalOptions::default(), &RuleJudge::new());
        assert_eq!(merged.len(), reference.len());
        for (m, r) in merged.iter().zip(&reference) {
            assert_eq!(m.model, r.model);
            assert_eq!(m.outcomes, r.outcomes, "fleet merge is byte-identical");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn panic_faults_quarantine_then_heal_to_the_clean_report() {
        let dir = tmp_dir("heal");
        let bench = ChipVqa::standard();
        let pipes = vec![VlmPipeline::new(ModelZoo::gpt4o())];
        let job = small_job(&pipes, &bench);
        let plan = FaultPlan {
            panic_rate: 0.25,
            seed: 7,
            ..FaultPlan::none()
        };
        let exec = ParallelExecutor::new(2).with_supervisor(Supervisor::new(plan));
        let outcome =
            run_worker(&dir, &exec, &job, &RuleJudge::new(), &quick_config()).expect("runs");
        assert!(
            outcome.shards_quarantined > 0,
            "a 25% panic rate must quarantine at least one shard"
        );
        assert_eq!(
            outcome.shards_healed, outcome.shards_quarantined,
            "the same worker heals its own quarantine on later passes"
        );
        let merged = merge(&dir, &job, &Telemetry::disabled()).expect("merges");
        let clean = ParallelExecutor::new(2).evaluate_grid(
            &pipes,
            &bench,
            EvalOptions::default(),
            &RuleJudge::new(),
        );
        assert_eq!(
            merged[0].outcomes, clean[0].outcomes,
            "healed fleet converges to the calm single-process report"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn dead_pid_lease_is_stolen_and_fabricated_quarantine_healed() {
        let dir = tmp_dir("steal");
        let bench = ChipVqa::standard();
        let pipes = vec![VlmPipeline::new(ModelZoo::gpt4o())];
        let job = small_job(&pipes, &bench);
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
        // the wreckage of a kill -9'd worker: a lease held by a dead
        // pid, over a shard it had quarantined before dying
        let keys = shard_plan(&job);
        let dead = Lease {
            shard_index: 0,
            shard: keys[0],
            pid: u32::MAX - 2, // far beyond any real pid on the box
            start_token: 12345,
            nonce: 999,
            heartbeat: 3,
            manifest_fingerprint: manifest_fp,
            healing: false,
        };
        fs::write(
            lease_path(&dir, 0),
            serde_json::to_string(&dead).expect("serializes"),
        )
        .expect("plants lease");
        let degraded = ShardRecord {
            manifest_fingerprint: manifest_fp,
            quarantined: true,
            worker_pid: dead.pid,
            result: ShardResult {
                key: keys[0],
                outcomes: Vec::new(), // never read on the heal path
            },
        };
        fs::write(
            quarantine_path(&dir, 0),
            serde_json::to_string(&degraded).expect("serializes"),
        )
        .expect("plants quarantine");

        let exec = ParallelExecutor::new(2);
        let outcome =
            run_worker(&dir, &exec, &job, &RuleJudge::new(), &quick_config()).expect("runs");
        assert!(outcome.leases_stolen >= 1, "the dead pid's lease is stolen");
        assert!(
            outcome.shards_healed >= 1,
            "the dead worker's quarantined shard is healed"
        );
        let merged = merge(&dir, &job, &Telemetry::disabled()).expect("merges");
        let reference =
            exec.evaluate_grid(&pipes, &bench, EvalOptions::default(), &RuleJudge::new());
        assert_eq!(merged[0].outcomes, reference[0].outcomes);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn merge_refuses_mismatched_identity_and_incomplete_fleets() {
        let dir = tmp_dir("refuse");
        let bench = ChipVqa::standard();
        let pipes = vec![VlmPipeline::new(ModelZoo::gpt4o())];
        let job = FleetJob {
            spec_fingerprint: Some(0xAAAA),
            ..small_job(&pipes, &bench)
        };
        // no manifest yet
        assert!(matches!(
            merge(&dir, &job, &Telemetry::disabled()),
            Err(FleetError::ManifestMissing)
        ));
        fs::create_dir_all(&dir).expect("mkdir");
        let manifest = serde_json::to_string(&job.manifest()).expect("serializes");
        // a manifest of another format version is refused as such
        for old in [1, 2] {
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
        // wrong spec fingerprint (e.g. merge invoked with wrong --scale)
        let wrong_spec = FleetJob {
            spec_fingerprint: Some(0xBBBB),
            ..job
        };
        assert!(matches!(
            merge(&dir, &wrong_spec, &Telemetry::disabled()),
            Err(FleetError::Mismatch(RunMismatch::SpecFingerprint {
                stamped: Some(0xAAAA),
                expected: Some(0xBBBB),
            }))
        ));
        // identity matches but nothing committed yet
        match merge(&dir, &job, &Telemetry::disabled()) {
            Err(FleetError::Incomplete { done: 0, total }) => {
                assert_eq!(total, shard_plan(&job).len());
            }
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
        use crate::checkpoint::{bench_hash, Checkpoint, CheckpointError};
        let dir = tmp_dir("parity");
        let bench = ChipVqa::standard();
        let other_bench = ChipVqa::with_seed(bench.seed() + 1);
        let pipes = vec![VlmPipeline::new(ModelZoo::gpt4o())];
        let other_pipes = vec![VlmPipeline::new(ModelZoo::fuyu_8b())];
        let run = FleetJob {
            spec_fingerprint: Some(0xAAAA),
            ..small_job(&pipes, &bench)
        };
        let checkpoint = Checkpoint::for_source(&pipes, run.source(), run.options);
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
                "bench content",
                FleetJob {
                    bench: &other_bench,
                    ..run
                },
                RunMismatch::Bench {
                    stamped: bench_hash(&bench),
                    expected: bench_hash(&other_bench),
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
                    spec_fingerprint: Some(0xBBBB),
                    ..run
                },
                RunMismatch::SpecFingerprint {
                    stamped: Some(0xAAAA),
                    expected: Some(0xBBBB),
                },
            ),
        ];
        let exec = ParallelExecutor::new(1);
        for (field, job, expected) in cases {
            assert_eq!(
                checkpoint.validate_source(job.pipes, job.source(), job.options),
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
            checkpoint.validate_source(&pipes, run.source(), run.options),
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
        let bench = ChipVqa::standard();
        let pipes = vec![VlmPipeline::new(ModelZoo::gpt4o())];
        let base = small_job(&pipes, &bench).manifest();
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
}
