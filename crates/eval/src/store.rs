//! Persistent, append-only, content-addressed answer store.
//!
//! [`AnswerStore`] is the on-disk tier beneath [`AnswerCache`]: the
//! "only ask again if prompt or model changed" caching the in-memory
//! cache provides *within* a process, made durable *across* processes.
//! A warm-started rerun — same models, same spec, same options — serves
//! every answer from disk and never touches the inference path, so
//! large-scale reruns across model revisions cost I/O instead of
//! compute.
//!
//! # Layout
//!
//! A store is a directory:
//!
//! ```text
//! store/
//!   store.lock        exclusive writer lock (pid inside)
//!   meta.json         format version + run-spanning traffic counters
//!   seg-00000001.log  append-only record segments
//!   seg-00000002.log
//! ```
//!
//! # Record format
//!
//! Each segment is a sequence of checksummed records:
//!
//! ```text
//! [magic  u32 LE = 0xC51A_D0C5]
//! [len    u32 LE]               payload byte length
//! [khash  u64 LE]               CacheKey::content_hash of the record's key
//! [phash  u64 LE]               FNV-1a 64 over the payload bytes
//! [payload]                     serde_json of StoredRecord { key, answer }
//! ```
//!
//! The payload is JSON — debuggable with `jq`, resilient to struct
//! evolution via `#[serde(default)]` — while the framing is binary so
//! truncation and bit corruption are *detected*, never parsed around.
//!
//! # Recovery
//!
//! Opening scans every segment front to back. The first bad record —
//! wrong magic, a length that overruns the file, a checksum mismatch, a
//! key hash that disagrees with the decoded key, or a payload that does
//! not parse — ends the scan for that segment: a writable open truncates
//! the file back to the last good record (the classic WAL
//! truncated-tail recovery), a read-only open simply stops. Dropped
//! records are re-inferred on the next run; because inference is
//! deterministic per key, **every recovery path converges to the same
//! report bytes as a cold run**.
//!
//! # Rotation, compaction, eviction
//!
//! The active segment rotates once it exceeds
//! [`StoreConfig::segment_max_bytes`]. Re-inserting a key appends a new
//! record and deadens the old one (last write wins on replay);
//! [`AnswerStore::compact`] rewrites only the live records — in
//! deterministic key order — and deletes the old segments. When the
//! store exceeds [`StoreConfig::max_bytes`], whole least-recently-*hit*
//! sealed segments are evicted. The store is a transparent cache: an
//! answer is either exactly what inference returns for its key or
//! absent, so an evicted answer costs one re-inference and never
//! invalidates a [`Checkpoint`](crate::checkpoint::Checkpoint) or fleet
//! record, which hold final outcomes rather than references into the
//! store.
//!
//! # Concurrency
//!
//! One *exclusive* writer, any number of readers. Writers take
//! `store.lock`, stamped `pid start-token` — the start token is the
//! kernel's process start time, so a lock whose pid was recycled by an
//! unrelated newer process is recognised as stale and broken instead of
//! blocking forever. A lock left by a dead (or crashed same-process)
//! writer is broken automatically. Readers skip the lock entirely:
//! segments are append-only and every record is checksummed, so a
//! reader racing a writer sees a clean prefix; a reader racing a
//! writer's [`compact`](AnswerStore::compact) restarts its replay from
//! a fresh directory listing whenever a listed segment vanishes
//! mid-replay — compaction writes the survivors before deleting the
//! old segments, so the re-list always finds them and the reader never
//! observes a torn segment set.
//!
//! [`AnswerStore::open_shared`] adds a cooperative *multi-writer* mode
//! for fleet execution (see [`fleet`](crate::fleet)): each shared
//! writer claims its own fresh segment sequence numbers atomically
//! (`create_new`), takes a per-handle `store.lock.*` marker instead of
//! the exclusive lock, and never truncates, compacts or evicts —
//! another writer's unflushed tail is pending data, not damage.
//! Inference is deterministic per key, so two shared writers racing on
//! the same key append byte-identical answers; last-write-wins replay
//! makes the duplicate benign.
//!
//! # Invariant: only clean answers are persisted
//!
//! The in-memory cache debug-asserts that no faulted answer is
//! inserted; the store enforces it *in release builds too* —
//! [`AnswerStore::insert`] refuses text carrying corruption markers
//! (see [`is_corrupted_text`](crate::fault::is_corrupted_text)) and
//! counts the refusal on `store.rejected`. A crashed chaos run can
//! therefore never poison future runs through the persistent tier.

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{self, BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use chipvqa_telemetry::{kv, Telemetry};
use serde::{Deserialize, Serialize};

use crate::cache::{CacheKey, CachedAnswer};
use crate::fault::is_corrupted_text;

/// Per-record framing magic (`C5` for ChipVQA store, visibly not JSON).
pub const RECORD_MAGIC: u32 = 0xC51A_D0C5;

/// Bytes of framing before each payload: magic + len + key hash +
/// payload hash.
pub const RECORD_HEADER_BYTES: usize = 4 + 4 + 8 + 8;

/// On-disk format version, stored in `meta.json`. Bump on any framing
/// or payload change; an open refuses a newer version than it knows.
pub const FORMAT_VERSION: u32 = 1;

/// FNV-1a 64 over arbitrary bytes — the store's checksum. The same
/// constants as [`prompt_hash`](crate::cache::prompt_hash), frozen by
/// the golden test in `tests/cache_consistency.rs`.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// One persisted cache entry: the content-addressed key and its answer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StoredRecord {
    /// The full cache key (not just its hash — collisions must never
    /// cross answers).
    pub key: CacheKey,
    /// The memoised answer.
    pub answer: CachedAnswer,
}

/// Encodes one record with framing; the inverse of
/// [`decode_segment`]'s per-record step. Exposed so tests can freeze
/// the byte format and tools can write segments.
pub fn encode_record(key: &CacheKey, answer: &CachedAnswer) -> Vec<u8> {
    let payload = serde_json::to_string(&StoredRecord {
        key: key.clone(),
        answer: answer.clone(),
    })
    .expect("record serializes")
    .into_bytes();
    let mut out = Vec::with_capacity(RECORD_HEADER_BYTES + payload.len());
    out.extend_from_slice(&RECORD_MAGIC.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&key.content_hash().to_le_bytes());
    out.extend_from_slice(&fnv1a64(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// Outcome of scanning one segment file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentScan {
    /// Byte offset of the end of the last good record.
    pub good_bytes: u64,
    /// Bytes after the last good record (0 for a fully clean segment).
    pub dropped_bytes: u64,
    /// Records decoded successfully.
    pub records: usize,
}

/// Decodes every well-formed record of a segment, stopping at the
/// first truncated or corrupted one. Never modifies the file.
pub fn decode_segment(path: &Path) -> io::Result<(Vec<StoredRecord>, SegmentScan)> {
    let mut bytes = Vec::new();
    File::open(path)?.read_to_end(&mut bytes)?;
    let mut records = Vec::new();
    let mut offset = 0usize;
    loop {
        let rest = &bytes[offset..];
        if rest.len() < RECORD_HEADER_BYTES {
            break;
        }
        let magic = u32::from_le_bytes(rest[0..4].try_into().expect("4 bytes"));
        if magic != RECORD_MAGIC {
            break;
        }
        let len = u32::from_le_bytes(rest[4..8].try_into().expect("4 bytes")) as usize;
        let khash = u64::from_le_bytes(rest[8..16].try_into().expect("8 bytes"));
        let phash = u64::from_le_bytes(rest[16..24].try_into().expect("8 bytes"));
        if rest.len() < RECORD_HEADER_BYTES + len {
            break;
        }
        let payload = &rest[RECORD_HEADER_BYTES..RECORD_HEADER_BYTES + len];
        if fnv1a64(payload) != phash {
            break;
        }
        let Ok(payload_str) = std::str::from_utf8(payload) else {
            break;
        };
        let Ok(record) = serde_json::from_str::<StoredRecord>(payload_str) else {
            break;
        };
        if record.key.content_hash() != khash {
            break;
        }
        records.push(record);
        offset += RECORD_HEADER_BYTES + len;
    }
    let scan = SegmentScan {
        good_bytes: offset as u64,
        dropped_bytes: (bytes.len() - offset) as u64,
        records: records.len(),
    };
    Ok((records, scan))
}

/// Tuning knobs of an [`AnswerStore`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StoreConfig {
    /// Rotate the active segment once it exceeds this many bytes.
    pub segment_max_bytes: u64,
    /// Evict least-recently-hit sealed segments once the store exceeds
    /// this many bytes. `u64::MAX` (the default) disables eviction.
    pub max_bytes: u64,
    /// Compact on open when the dead-record fraction exceeds this.
    pub compact_dead_ratio: f64,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            segment_max_bytes: 4 << 20,
            max_bytes: u64::MAX,
            compact_dead_ratio: 0.6,
        }
    }
}

/// How a handle opened the store — see the module docs' *Concurrency*
/// section.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreMode {
    /// Sole writer (`store.lock`): may truncate torn tails, compact,
    /// evict, and persist `meta.json`.
    Exclusive,
    /// No lock, no modification: recovery stops at corruption instead
    /// of truncating; inserts are refused.
    ReadOnly,
    /// Cooperative multi-writer (fleet): appends into its own freshly
    /// claimed segments; never truncates, compacts, evicts, or writes
    /// `meta.json`.
    Shared,
}

/// Durable store metadata, written atomically (tmp + rename) on flush.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
struct StoreMeta {
    /// On-disk format version.
    #[serde(default)]
    format_version: u32,
    /// Run-spanning lookup hits across every process that used this
    /// store.
    #[serde(default)]
    lifetime_hits: u64,
    /// Run-spanning lookup misses.
    #[serde(default)]
    lifetime_misses: u64,
    /// Run-spanning insertions.
    #[serde(default)]
    lifetime_inserts: u64,
}

/// Point-in-time traffic and shape counters of an [`AnswerStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct StoreStats {
    /// Lookups served from disk this session.
    pub hits: u64,
    /// Lookups that found nothing on disk this session.
    pub misses: u64,
    /// Records appended this session.
    pub inserts: u64,
    /// Faulted answers refused by the persistence guard this session.
    pub rejected: u64,
    /// Live entries dropped by segment eviction this session.
    pub evicted: u64,
    /// Segments repaired by truncated-tail recovery at open.
    pub recovered_segments: u64,
    /// Bytes dropped by recovery at open.
    pub recovered_bytes: u64,
    /// Run-spanning hits (this session included), persisted in
    /// `meta.json`.
    pub lifetime_hits: u64,
    /// Run-spanning misses.
    pub lifetime_misses: u64,
    /// Run-spanning inserts.
    pub lifetime_inserts: u64,
    /// Live entries currently indexed.
    pub entries: usize,
    /// Segment files currently on disk.
    pub segments: usize,
    /// Total segment bytes currently on disk.
    pub bytes: u64,
}

impl StoreStats {
    /// Disk hit fraction of this session's store lookups (0 when there
    /// were none).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Lock paths currently held by a live [`StoreLock`] in *this*
/// process. A lock file carrying our own pid but absent from this set
/// belongs to a handle that crashed without unlocking — breakable —
/// while a present entry means a genuinely live second writer.
fn live_locks() -> &'static Mutex<std::collections::HashSet<PathBuf>> {
    static LIVE: std::sync::OnceLock<Mutex<std::collections::HashSet<PathBuf>>> =
        std::sync::OnceLock::new();
    LIVE.get_or_init(|| Mutex::new(std::collections::HashSet::new()))
}

/// Exclusive writer lock: a `store.lock` file holding the owner's
/// `pid start-token` stamp.
///
/// Dropping the guard removes the file. A lock whose holder is dead —
/// a vanished pid, a recycled pid (live pid whose start token differs
/// from the stamp), or our own pid with no live in-process guard — is
/// broken and re-taken.
#[derive(Debug)]
struct StoreLock {
    path: PathBuf,
    armed: bool,
}

impl StoreLock {
    fn acquire(dir: &Path) -> io::Result<StoreLock> {
        let dir = fs::canonicalize(dir)?;
        // shared (fleet) writers exclude an exclusive open — it would
        // truncate/compact/evict under them. Dead markers are swept.
        for marker in shared_markers(&dir)? {
            let live = match marker.holder {
                // own pid: live only while the handle actually exists
                // in this process (a simulated-crash marker is stale)
                Some((pid, _)) if pid == std::process::id() => {
                    lock_inner(live_locks()).contains(&marker.path)
                }
                Some((pid, token)) => !holder_dead(pid, Some(token)),
                None => false,
            };
            if live {
                return Err(io::Error::new(
                    io::ErrorKind::WouldBlock,
                    format!(
                        "answer store {} has a live shared writer (pid {})",
                        dir.display(),
                        marker.holder.map(|(pid, _)| pid).unwrap_or(0)
                    ),
                ));
            }
            let _ = fs::remove_file(&marker.path);
        }
        let path = dir.join("store.lock");
        loop {
            let already_ours = lock_inner(live_locks()).contains(&path);
            if already_ours {
                return Err(io::Error::new(
                    io::ErrorKind::WouldBlock,
                    format!(
                        "answer store {} is already open for writing in this process",
                        path.display()
                    ),
                ));
            }
            match OpenOptions::new().write(true).create_new(true).open(&path) {
                Ok(mut f) => {
                    let _ = write!(f, "{}", lock_stamp());
                    lock_inner(live_locks()).insert(path.clone());
                    return Ok(StoreLock { path, armed: true });
                }
                Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {
                    let holder = fs::read_to_string(&path)
                        .ok()
                        .as_deref()
                        .and_then(parse_lock_stamp);
                    let stale = match holder {
                        // unreadable/corrupt lock: break it
                        None => true,
                        // our own pid: stale only if no live guard in
                        // this process (re-checked here — a racing
                        // thread may have won create_new since the
                        // check above)
                        Some((pid, _)) if pid == std::process::id() => {
                            !lock_inner(live_locks()).contains(&path)
                        }
                        Some((pid, token)) => holder_dead(pid, token),
                    };
                    if stale {
                        // break the stale lock and retry; a concurrent
                        // breaker racing us loses the create_new race
                        let _ = fs::remove_file(&path);
                        continue;
                    }
                    return Err(io::Error::new(
                        io::ErrorKind::WouldBlock,
                        format!(
                            "answer store {} is locked by live pid {}",
                            path.display(),
                            holder.map(|(pid, _)| pid).unwrap_or(0)
                        ),
                    ));
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Leaves the lock file behind — test hook for crashed writers.
    fn abandon(mut self) {
        self.armed = false;
    }
}

impl Drop for StoreLock {
    fn drop(&mut self) {
        // the in-process liveness entry goes away either way: an
        // abandoned (simulated-crash) lock must look breakable
        lock_inner(live_locks()).remove(&self.path);
        if self.armed {
            let _ = fs::remove_file(&self.path);
        }
    }
}

/// Per-handle marker of a *shared* (cooperative multi-writer) open: a
/// `store.lock.<pid>-<token>-<n>` file. Shared writers never conflict
/// with each other; the markers exist so an exclusive open can refuse
/// to truncate/compact under live shared writers, and so dead shared
/// markers can be swept.
#[derive(Debug)]
struct SharedLock {
    path: PathBuf,
    armed: bool,
}

impl SharedLock {
    fn acquire(dir: &Path) -> io::Result<SharedLock> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = fs::canonicalize(dir)?;
        // an exclusive writer excludes shared ones (it may truncate,
        // compact or evict under us); a stale exclusive lock is broken
        let exclusive = dir.join("store.lock");
        match fs::read_to_string(&exclusive) {
            Ok(stamp) => {
                let holder = parse_lock_stamp(&stamp);
                let live = match holder {
                    None => false,
                    Some((pid, _)) if pid == std::process::id() => {
                        lock_inner(live_locks()).contains(&exclusive)
                    }
                    Some((pid, token)) => !holder_dead(pid, token),
                };
                if live {
                    return Err(io::Error::new(
                        io::ErrorKind::WouldBlock,
                        format!(
                            "answer store {} is exclusively locked by live pid {}",
                            dir.display(),
                            holder.map(|(pid, _)| pid).unwrap_or(0)
                        ),
                    ));
                }
                let _ = fs::remove_file(&exclusive);
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = dir.join(format!(
            "store.lock.{}-{}-{n}",
            std::process::id(),
            own_start_token()
        ));
        let mut f = OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(&path)?;
        let _ = write!(f, "{}", lock_stamp());
        lock_inner(live_locks()).insert(path.clone());
        Ok(SharedLock { path, armed: true })
    }

    /// Leaves the marker behind — test hook for crashed shared writers.
    fn abandon(mut self) {
        self.armed = false;
    }
}

impl Drop for SharedLock {
    fn drop(&mut self) {
        // as with StoreLock: an abandoned marker must look breakable
        lock_inner(live_locks()).remove(&self.path);
        if self.armed {
            let _ = fs::remove_file(&self.path);
        }
    }
}

/// One `store.lock.<pid>-<token>-<n>` marker found on disk.
struct SharedMarker {
    path: PathBuf,
    holder: Option<(u32, u64)>,
}

/// Every shared-writer marker in `dir`, with the holder parsed from
/// the filename.
fn shared_markers(dir: &Path) -> io::Result<Vec<SharedMarker>> {
    let mut markers = Vec::new();
    if !dir.is_dir() {
        return Ok(markers);
    }
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        let Some(suffix) = name.strip_prefix("store.lock.") else {
            continue;
        };
        let holder = (|| {
            let mut parts = suffix.split('-');
            let pid = parts.next()?.parse().ok()?;
            let token = parts.next()?.parse().ok()?;
            Some((pid, token))
        })();
        markers.push(SharedMarker {
            path: entry.path(),
            holder,
        });
    }
    Ok(markers)
}

/// Either lock flavour a writable handle holds.
#[derive(Debug)]
enum HeldLock {
    Exclusive(StoreLock),
    Shared(SharedLock),
}

impl HeldLock {
    fn abandon(self) {
        match self {
            HeldLock::Exclusive(lock) => lock.abandon(),
            HeldLock::Shared(lock) => lock.abandon(),
        }
    }
}

/// `"pid token"` — what a lock file (and a fleet lease) stamps to
/// identify its holder against pid reuse.
fn lock_stamp() -> String {
    format!("{} {}", std::process::id(), own_start_token())
}

/// Parses a lock stamp. Legacy bare-pid locks parse with no token (and
/// keep the pure liveness check).
fn parse_lock_stamp(s: &str) -> Option<(u32, Option<u64>)> {
    let mut parts = s.split_whitespace();
    let pid = parts.next()?.parse().ok()?;
    Some((pid, parts.next().and_then(|t| t.parse().ok())))
}

/// Whether the stamped holder is gone: pid vanished, or — the pid-reuse
/// case — the pid is alive but its start token no longer matches the
/// stamp, so it is an unrelated newer process. A stamp without a token
/// (legacy) falls back to pid liveness alone.
pub(crate) fn holder_dead(pid: u32, token: Option<u64>) -> bool {
    if !pid_alive(pid) {
        return true;
    }
    match (token, process_start_token(pid)) {
        (Some(stamped), Some(current)) => stamped != current,
        _ => false,
    }
}

#[cfg(target_os = "linux")]
pub(crate) fn pid_alive(pid: u32) -> bool {
    Path::new(&format!("/proc/{pid}")).exists()
}

#[cfg(not(target_os = "linux"))]
pub(crate) fn pid_alive(_pid: u32) -> bool {
    // without a portable liveness probe, assume the holder is alive;
    // operators break genuinely stale locks by deleting store.lock
    true
}

/// The kernel's start time of `pid` (clock ticks since boot) — a token
/// that distinguishes a process from a later one that recycled its pid.
/// `/proc/<pid>/stat` field 22; the command name can contain spaces and
/// parentheses, so parsing anchors on the *last* `)`.
#[cfg(target_os = "linux")]
pub(crate) fn process_start_token(pid: u32) -> Option<u64> {
    let stat = fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    let after_comm = &stat[stat.rfind(')')? + 1..];
    // after_comm starts at field 3 (state); starttime is field 22
    after_comm.split_whitespace().nth(19)?.parse().ok()
}

#[cfg(not(target_os = "linux"))]
pub(crate) fn process_start_token(_pid: u32) -> Option<u64> {
    None
}

/// This process's own start token (0 when the platform offers none —
/// the stamp then degrades to the legacy pure-pid check on readers
/// that cannot resolve tokens either). Public because fleet tooling
/// stamps it into lease files alongside the pid.
pub fn own_start_token() -> u64 {
    static TOKEN: std::sync::OnceLock<u64> = std::sync::OnceLock::new();
    *TOKEN.get_or_init(|| process_start_token(std::process::id()).unwrap_or(0))
}

/// Where one live entry currently resides.
#[derive(Debug, Clone)]
struct IndexEntry {
    answer: CachedAnswer,
    segment: u64,
}

/// Bookkeeping for one on-disk segment.
#[derive(Debug, Clone, Copy, Default)]
struct SegmentInfo {
    bytes: u64,
    live: usize,
    total: usize,
    last_touch: u64,
}

/// The writer half: the currently-open active segment.
#[derive(Debug)]
struct ActiveSegment {
    seq: u64,
    writer: BufWriter<File>,
    bytes: u64,
}

#[derive(Debug, Default)]
struct Inner {
    index: HashMap<CacheKey, IndexEntry>,
    segments: BTreeMap<u64, SegmentInfo>,
    active: Option<ActiveSegment>,
    /// Logical clock for segment LRU: bumped on every disk hit.
    touch_clock: u64,
}

/// The persistent content-addressed answer store. See the module docs
/// for format, recovery and concurrency.
pub struct AnswerStore {
    dir: PathBuf,
    config: StoreConfig,
    mode: StoreMode,
    lock: Mutex<Option<HeldLock>>,
    inner: Mutex<Inner>,
    telemetry: Telemetry,
    hits: AtomicU64,
    misses: AtomicU64,
    inserts: AtomicU64,
    rejected: AtomicU64,
    evicted: AtomicU64,
    recovered_segments: AtomicU64,
    recovered_bytes: AtomicU64,
    lifetime_hits: AtomicU64,
    lifetime_misses: AtomicU64,
    lifetime_inserts: AtomicU64,
}

impl fmt::Debug for AnswerStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AnswerStore")
            .field("dir", &self.dir)
            .field("mode", &self.mode)
            .finish_non_exhaustive()
    }
}

impl AnswerStore {
    /// Opens (creating if absent) a writable store with default tuning.
    pub fn open(dir: impl AsRef<Path>) -> io::Result<AnswerStore> {
        AnswerStore::open_with(dir, StoreConfig::default())
    }

    /// Opens (creating if absent) a writable store with explicit tuning.
    pub fn open_with(dir: impl AsRef<Path>, config: StoreConfig) -> io::Result<AnswerStore> {
        AnswerStore::open_impl(
            dir.as_ref(),
            config,
            StoreMode::Exclusive,
            Telemetry::disabled(),
        )
    }

    /// [`open_with`](AnswerStore::open_with) with a telemetry handle
    /// attached *before* replay, so open-time `store.recovered` /
    /// `store.recovery` / `store.open` signals are captured too —
    /// prefer this over [`with_telemetry`](AnswerStore::with_telemetry)
    /// when recovery observability matters.
    pub fn open_with_telemetry(
        dir: impl AsRef<Path>,
        config: StoreConfig,
        telemetry: Telemetry,
    ) -> io::Result<AnswerStore> {
        AnswerStore::open_impl(dir.as_ref(), config, StoreMode::Exclusive, telemetry)
    }

    /// Opens an existing store for reading only: no lock is taken and
    /// no file is modified (recovery stops at corruption instead of
    /// truncating). Lookups work; [`AnswerStore::insert`],
    /// [`AnswerStore::compact`] and meta persistence are inert.
    pub fn open_read_only(dir: impl AsRef<Path>) -> io::Result<AnswerStore> {
        AnswerStore::open_impl(
            dir.as_ref(),
            StoreConfig::default(),
            StoreMode::ReadOnly,
            Telemetry::disabled(),
        )
    }

    /// Opens (creating if absent) a *shared* cooperative-multi-writer
    /// handle — the fleet answer plane (see [`fleet`](crate::fleet)).
    ///
    /// Any number of shared handles (across processes) coexist: each
    /// appends into its own freshly claimed segments and takes a
    /// per-handle `store.lock.*` marker instead of the exclusive lock.
    /// A shared handle never truncates, compacts, evicts, or writes
    /// `meta.json` — another writer's unflushed tail is pending data,
    /// not damage, and any sealed segment may be another writer's
    /// active one. Refused ([`WouldBlock`](io::ErrorKind::WouldBlock)) while
    /// a live exclusive writer holds the store, and vice versa.
    pub fn open_shared(
        dir: impl AsRef<Path>,
        config: StoreConfig,
        telemetry: Telemetry,
    ) -> io::Result<AnswerStore> {
        AnswerStore::open_impl(dir.as_ref(), config, StoreMode::Shared, telemetry)
    }

    fn open_impl(
        dir: &Path,
        config: StoreConfig,
        mode: StoreMode,
        telemetry: Telemetry,
    ) -> io::Result<AnswerStore> {
        if mode != StoreMode::ReadOnly {
            fs::create_dir_all(dir)?;
        }
        let lock = match mode {
            StoreMode::ReadOnly => None,
            StoreMode::Exclusive => Some(HeldLock::Exclusive(StoreLock::acquire(dir)?)),
            StoreMode::Shared => Some(HeldLock::Shared(SharedLock::acquire(dir)?)),
        };

        let meta = read_meta(dir)?;
        if meta.format_version > FORMAT_VERSION {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "store format v{} is newer than supported v{FORMAT_VERSION}",
                    meta.format_version
                ),
            ));
        }

        let store = AnswerStore {
            dir: dir.to_path_buf(),
            config,
            mode,
            lock: Mutex::new(lock),
            inner: Mutex::new(Inner::default()),
            telemetry,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
            recovered_segments: AtomicU64::new(0),
            recovered_bytes: AtomicU64::new(0),
            lifetime_hits: AtomicU64::new(meta.lifetime_hits),
            lifetime_misses: AtomicU64::new(meta.lifetime_misses),
            lifetime_inserts: AtomicU64::new(meta.lifetime_inserts),
        };
        store.replay_segments()?;
        if mode == StoreMode::Exclusive {
            let dead = store.dead_ratio();
            if dead > store.config.compact_dead_ratio {
                store.compact()?;
            }
            store.evict_to_bound(&mut lock_inner(&store.inner))?;
        }
        Ok(store)
    }

    /// Attaches a telemetry handle; `store.{hit,miss,insert,compaction,
    /// evict,recovered,rejected}` counters and structured events report
    /// through it. Telemetry never changes store behaviour. Open-time
    /// recovery signals precede this call — use
    /// [`open_with_telemetry`](AnswerStore::open_with_telemetry) to
    /// capture those too.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Rebuilds the in-memory index by replaying every segment in
    /// sequence order, repairing truncated tails on writable opens.
    ///
    /// A non-exclusive open can race an exclusive writer's `compact()`:
    /// a listed segment may vanish before we read it. Skipping it would
    /// tear the view — its live records were rewritten into segments
    /// created *after* our directory listing, which we would never
    /// visit. Compaction writes its replacement segments before it
    /// deletes the old ones, so a fresh listing always contains the
    /// survivors: on any vanished segment we discard the partial replay
    /// and re-list, which converges once no deletion interleaves.
    fn replay_segments(&self) -> io::Result<()> {
        // each retry is caused by a deletion that interleaved with the
        // previous listing; this many consecutive lost races means the
        // writer is compacting pathologically faster than we can list
        const MAX_RELISTS: usize = 64;
        let mut inner = lock_inner(&self.inner);
        let mut recovered: Vec<(u64, SegmentScan)> = Vec::new();
        for attempt in 0.. {
            inner.index.clear();
            inner.segments.clear();
            recovered.clear();
            let mut seqs: Vec<u64> = Vec::new();
            if self.dir.is_dir() {
                for entry in fs::read_dir(&self.dir)? {
                    let name = entry?.file_name();
                    if let Some(seq) = segment_seq(&name.to_string_lossy()) {
                        seqs.push(seq);
                    }
                }
            }
            seqs.sort_unstable();

            let mut relist = false;
            for &seq in &seqs {
                let path = self.segment_path(seq);
                let (records, scan) = match decode_segment(&path) {
                    Ok(decoded) => decoded,
                    Err(e)
                        if e.kind() == io::ErrorKind::NotFound
                            && self.mode != StoreMode::Exclusive =>
                    {
                        relist = true;
                        break;
                    }
                    Err(e) => return Err(e),
                };
                if scan.dropped_bytes > 0 {
                    if self.mode == StoreMode::Exclusive {
                        let f = OpenOptions::new().write(true).open(&path)?;
                        f.set_len(scan.good_bytes)?;
                    }
                    recovered.push((seq, scan.clone()));
                }
                let mut info = SegmentInfo {
                    bytes: scan.good_bytes,
                    live: 0,
                    total: scan.records,
                    last_touch: 0,
                };
                inner.segments.insert(seq, info);
                for record in records {
                    if let Some(old) = inner.index.insert(
                        record.key,
                        IndexEntry {
                            answer: record.answer,
                            segment: seq,
                        },
                    ) {
                        if let Some(prev) = inner.segments.get_mut(&old.segment) {
                            prev.live = prev.live.saturating_sub(1);
                        }
                    }
                    info.live += 1;
                    inner.segments.insert(seq, info);
                }
            }
            if !relist {
                break;
            }
            if attempt + 1 >= MAX_RELISTS {
                return Err(io::Error::new(
                    io::ErrorKind::WouldBlock,
                    format!(
                        "answer store {} kept compacting away listed segments across \
                         {MAX_RELISTS} replay attempts",
                        self.dir.display()
                    ),
                ));
            }
        }
        // recovery accounting is committed only for the listing that
        // won — discarded partial replays must not double-count
        for (seq, scan) in recovered.drain(..) {
            self.recovered_segments.fetch_add(1, Ordering::Relaxed);
            self.recovered_bytes
                .fetch_add(scan.dropped_bytes, Ordering::Relaxed);
            self.telemetry.counter("store.recovered", 1);
            self.telemetry.event(
                "store.recovery",
                vec![
                    kv("segment", seq),
                    kv("good_bytes", scan.good_bytes),
                    kv("dropped_bytes", scan.dropped_bytes),
                ],
            );
        }
        let seqs: Vec<u64> = inner.segments.keys().copied().collect();

        match self.mode {
            // the highest segment continues as the active one
            StoreMode::Exclusive => {
                let seq = seqs.last().copied().unwrap_or(0).max(1);
                let path = self.segment_path(seq);
                let file = OpenOptions::new().create(true).append(true).open(&path)?;
                let bytes = inner.segments.get(&seq).map_or(0, |s| s.bytes);
                inner.segments.entry(seq).or_default();
                inner.active = Some(ActiveSegment {
                    seq,
                    writer: BufWriter::new(file),
                    bytes,
                });
            }
            // a shared writer must never append into another writer's
            // segment: claim a fresh sequence number atomically
            StoreMode::Shared => {
                let from = seqs.last().copied().unwrap_or(0) + 1;
                self.claim_fresh_segment(&mut inner, from)?;
            }
            StoreMode::ReadOnly => {}
        }
        let (entries, segments) = (inner.index.len(), inner.segments.len());
        drop(inner);
        if self.telemetry.enabled() {
            self.telemetry.event(
                "store.open",
                vec![
                    kv("entries", entries),
                    kv("segments", segments),
                    kv("read_only", self.mode == StoreMode::ReadOnly),
                ],
            );
        }
        Ok(())
    }

    /// Claims the first free segment sequence number at or after `from`
    /// with `create_new` — atomic against every other shared writer —
    /// and installs it as this handle's active segment.
    fn claim_fresh_segment(&self, inner: &mut Inner, from: u64) -> io::Result<()> {
        let mut seq = from.max(1);
        loop {
            match OpenOptions::new()
                .create_new(true)
                .append(true)
                .open(self.segment_path(seq))
            {
                Ok(file) => {
                    inner.segments.entry(seq).or_default();
                    inner.active = Some(ActiveSegment {
                        seq,
                        writer: BufWriter::new(file),
                        bytes: 0,
                    });
                    return Ok(());
                }
                Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {
                    seq += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }

    fn segment_path(&self, seq: u64) -> PathBuf {
        self.dir.join(format!("seg-{seq:08}.log"))
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// How this handle was opened.
    pub fn mode(&self) -> StoreMode {
        self.mode
    }

    /// Live entries currently indexed.
    pub fn len(&self) -> usize {
        lock_inner(&self.inner).index.len()
    }

    /// Whether the store holds no live entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total bytes across all segment files.
    pub fn total_bytes(&self) -> u64 {
        lock_inner(&self.inner)
            .segments
            .values()
            .map(|s| s.bytes)
            .sum()
    }

    /// Fraction of replayed records that are superseded (dead). 0 when
    /// the store is empty.
    pub fn dead_ratio(&self) -> f64 {
        let inner = lock_inner(&self.inner);
        let total: usize = inner.segments.values().map(|s| s.total).sum();
        if total == 0 {
            return 0.0;
        }
        (total - inner.index.len()) as f64 / total as f64
    }

    /// Paths of every segment currently on disk, in sequence order.
    pub fn segment_paths(&self) -> Vec<PathBuf> {
        lock_inner(&self.inner)
            .segments
            .keys()
            .map(|&seq| self.segment_path(seq))
            .collect()
    }

    /// Looks up one answer on disk (well: in the replayed index).
    pub fn lookup(&self, key: &CacheKey) -> Option<CachedAnswer> {
        let mut inner = lock_inner(&self.inner);
        inner.touch_clock += 1;
        let clock = inner.touch_clock;
        if let Some(entry) = inner.index.get(key) {
            let answer = entry.answer.clone();
            let segment = entry.segment;
            if let Some(info) = inner.segments.get_mut(&segment) {
                info.last_touch = clock;
            }
            drop(inner);
            self.hits.fetch_add(1, Ordering::Relaxed);
            self.lifetime_hits.fetch_add(1, Ordering::Relaxed);
            self.telemetry.counter("store.hit", 1);
            Some(answer)
        } else {
            drop(inner);
            self.misses.fetch_add(1, Ordering::Relaxed);
            self.lifetime_misses.fetch_add(1, Ordering::Relaxed);
            self.telemetry.counter("store.miss", 1);
            None
        }
    }

    /// Appends one answer (write-behind: buffered, durable after
    /// [`flush`](AnswerStore::flush)). Returns whether the record was
    /// accepted.
    ///
    /// Refused — with a `store.rejected` count, in release builds too —
    /// when the answer carries fault-corruption markers, when the store
    /// is read-only, or when the key already maps to this exact answer
    /// (idempotent re-insert needs no new record).
    pub fn insert(&self, key: CacheKey, answer: CachedAnswer) -> bool {
        if self.mode == StoreMode::ReadOnly {
            return false;
        }
        if is_corrupted_text(&answer.text) {
            self.rejected.fetch_add(1, Ordering::Relaxed);
            self.telemetry.counter("store.rejected", 1);
            if self.telemetry.enabled() {
                self.telemetry
                    .event("store.rejected", vec![kv("question", &key.question_id)]);
            }
            debug_assert!(
                false,
                "persistence guard: faulted answer for {key:?} must never reach the store"
            );
            return false;
        }
        let mut inner = lock_inner(&self.inner);
        if inner.index.get(&key).is_some_and(|e| e.answer == answer) {
            return false;
        }
        if self.append_record(&mut inner, key, answer).is_err() {
            return false;
        }
        drop(inner);
        self.inserts.fetch_add(1, Ordering::Relaxed);
        self.lifetime_inserts.fetch_add(1, Ordering::Relaxed);
        self.telemetry.counter("store.insert", 1);
        true
    }

    fn append_record(
        &self,
        inner: &mut Inner,
        key: CacheKey,
        answer: CachedAnswer,
    ) -> io::Result<()> {
        let bytes = encode_record(&key, &answer);
        self.rotate_if_needed(inner, bytes.len() as u64)?;
        let active = inner
            .active
            .as_mut()
            .expect("writable store has an active segment");
        active.writer.write_all(&bytes)?;
        active.bytes += bytes.len() as u64;
        let (seq, active_bytes) = (active.seq, active.bytes);
        let info = inner.segments.entry(seq).or_default();
        info.bytes = active_bytes;
        info.total += 1;
        info.live += 1;
        if let Some(old) = inner.index.insert(
            key,
            IndexEntry {
                answer,
                segment: seq,
            },
        ) {
            if let Some(prev) = inner.segments.get_mut(&old.segment) {
                prev.live = prev.live.saturating_sub(1);
            }
        }
        self.evict_to_bound(inner)?;
        Ok(())
    }

    /// Seals the active segment and starts a fresh one when the next
    /// record would overflow [`StoreConfig::segment_max_bytes`].
    fn rotate_if_needed(&self, inner: &mut Inner, incoming: u64) -> io::Result<()> {
        let needs = inner
            .active
            .as_ref()
            .is_some_and(|a| a.bytes > 0 && a.bytes + incoming > self.config.segment_max_bytes);
        if !needs {
            return Ok(());
        }
        let old = inner.active.take().expect("checked above");
        let mut writer = old.writer;
        writer.flush()?;
        let seq = old.seq + 1;
        if self.mode == StoreMode::Shared {
            // another shared writer may own seq already — claim
            // atomically past it
            self.claim_fresh_segment(inner, seq)?;
        } else {
            let file = OpenOptions::new()
                .create(true)
                .append(true)
                .open(self.segment_path(seq))?;
            inner.segments.entry(seq).or_default();
            inner.active = Some(ActiveSegment {
                seq,
                writer: BufWriter::new(file),
                bytes: 0,
            });
        }
        self.telemetry.counter("store.rotate", 1);
        Ok(())
    }

    /// Evicts least-recently-hit sealed segments until the store fits
    /// [`StoreConfig::max_bytes`]. Each eviction drops that segment's
    /// live entries; later lookups of them miss and re-infer.
    fn evict_to_bound(&self, inner: &mut Inner) -> io::Result<()> {
        if self.mode != StoreMode::Exclusive {
            // a shared writer deletes no segment: the victim could be
            // another writer's active one
            return Ok(());
        }
        loop {
            let total: u64 = inner.segments.values().map(|s| s.bytes).sum();
            if total <= self.config.max_bytes {
                return Ok(());
            }
            let active_seq = inner.active.as_ref().map(|a| a.seq);
            let victim = inner
                .segments
                .iter()
                .filter(|(seq, _)| Some(**seq) != active_seq)
                .min_by_key(|(seq, info)| (info.last_touch, **seq))
                .map(|(&seq, _)| seq);
            let Some(seq) = victim else {
                // only the active segment remains; nothing evictable
                return Ok(());
            };
            let info = inner.segments.remove(&seq).expect("victim exists");
            inner.index.retain(|_, e| e.segment != seq);
            let _ = fs::remove_file(self.segment_path(seq));
            self.evicted.fetch_add(info.live as u64, Ordering::Relaxed);
            self.telemetry.counter("store.evict", 1);
            if self.telemetry.enabled() {
                self.telemetry.event(
                    "store.evict",
                    vec![
                        kv("segment", seq),
                        kv("live_dropped", info.live),
                        kv("bytes", info.bytes),
                    ],
                );
            }
        }
    }

    /// Rewrites the live entries — in deterministic key order — into
    /// fresh segments and deletes the superseded files. Preserves every
    /// live answer. Returns bytes reclaimed.
    pub fn compact(&self) -> io::Result<u64> {
        if self.mode != StoreMode::Exclusive {
            return Ok(0);
        }
        let mut inner = lock_inner(&self.inner);
        if let Some(active) = inner.active.as_mut() {
            active.writer.flush()?;
        }
        let before: u64 = inner.segments.values().map(|s| s.bytes).sum();
        let old_seqs: Vec<u64> = inner.segments.keys().copied().collect();
        let next_seq = old_seqs.last().copied().unwrap_or(0) + 1;

        let mut entries: Vec<(CacheKey, CachedAnswer)> = inner
            .index
            .iter()
            .map(|(k, e)| (k.clone(), e.answer.clone()))
            .collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));

        // write the survivors into fresh segments
        let mut seq = next_seq;
        let mut writer = BufWriter::new(
            OpenOptions::new()
                .create_new(true)
                .append(true)
                .open(self.segment_path(seq))?,
        );
        let mut new_segments: BTreeMap<u64, SegmentInfo> = BTreeMap::new();
        let mut bytes_in_seq = 0u64;
        let mut new_index = HashMap::with_capacity(entries.len());
        for (key, answer) in entries {
            let record = encode_record(&key, &answer);
            if bytes_in_seq > 0
                && bytes_in_seq + record.len() as u64 > self.config.segment_max_bytes
            {
                writer.flush()?;
                new_segments.insert(
                    seq,
                    SegmentInfo {
                        bytes: bytes_in_seq,
                        live: new_index
                            .values()
                            .filter(|e: &&IndexEntry| e.segment == seq)
                            .count(),
                        total: 0,
                        last_touch: 0,
                    },
                );
                seq += 1;
                writer = BufWriter::new(
                    OpenOptions::new()
                        .create_new(true)
                        .append(true)
                        .open(self.segment_path(seq))?,
                );
                bytes_in_seq = 0;
            }
            writer.write_all(&record)?;
            bytes_in_seq += record.len() as u64;
            new_index.insert(
                key,
                IndexEntry {
                    answer,
                    segment: seq,
                },
            );
        }
        writer.flush()?;
        let live_in_last = new_index
            .values()
            .filter(|e: &&IndexEntry| e.segment == seq)
            .count();
        new_segments.insert(
            seq,
            SegmentInfo {
                bytes: bytes_in_seq,
                live: live_in_last,
                total: live_in_last,
                last_touch: 0,
            },
        );
        for (&s, info) in new_segments.iter_mut() {
            info.total = new_index.values().filter(|e| e.segment == s).count();
            info.live = info.total;
        }

        for old in old_seqs {
            let _ = fs::remove_file(self.segment_path(old));
        }
        inner.index = new_index;
        inner.segments = new_segments;
        // continue appending to the last compacted segment
        let file = OpenOptions::new()
            .append(true)
            .open(self.segment_path(seq))?;
        inner.active = Some(ActiveSegment {
            seq,
            writer: BufWriter::new(file),
            bytes: bytes_in_seq,
        });
        let after: u64 = inner.segments.values().map(|s| s.bytes).sum();
        drop(inner);
        let reclaimed = before.saturating_sub(after);
        self.telemetry.counter("store.compaction", 1);
        if self.telemetry.enabled() {
            self.telemetry.event(
                "store.compaction",
                vec![kv("reclaimed_bytes", reclaimed), kv("bytes", after)],
            );
        }
        Ok(reclaimed)
    }

    /// Flushes buffered appends and persists `meta.json` (format
    /// version + run-spanning counters). A no-op on read-only handles.
    /// Shared handles flush their segment but skip `meta.json` —
    /// concurrent writers would race the lifetime counters.
    pub fn flush(&self) -> io::Result<()> {
        if self.mode == StoreMode::ReadOnly {
            return Ok(());
        }
        {
            let mut inner = lock_inner(&self.inner);
            if let Some(active) = inner.active.as_mut() {
                active.writer.flush()?;
            }
        }
        if self.mode == StoreMode::Shared {
            return Ok(());
        }
        write_meta(
            &self.dir,
            StoreMeta {
                format_version: FORMAT_VERSION,
                lifetime_hits: self.lifetime_hits.load(Ordering::Relaxed),
                lifetime_misses: self.lifetime_misses.load(Ordering::Relaxed),
                lifetime_inserts: self.lifetime_inserts.load(Ordering::Relaxed),
            },
        )
    }

    /// All live entries in deterministic key order — the persistent
    /// mirror of [`AnswerCache::snapshot`](crate::cache::AnswerCache::snapshot).
    pub fn entries(&self) -> Vec<(CacheKey, CachedAnswer)> {
        let inner = lock_inner(&self.inner);
        let mut entries: Vec<(CacheKey, CachedAnswer)> = inner
            .index
            .iter()
            .map(|(k, e)| (k.clone(), e.answer.clone()))
            .collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        entries
    }

    /// Current traffic and shape counters.
    pub fn stats(&self) -> StoreStats {
        let inner = lock_inner(&self.inner);
        StoreStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            evicted: self.evicted.load(Ordering::Relaxed),
            recovered_segments: self.recovered_segments.load(Ordering::Relaxed),
            recovered_bytes: self.recovered_bytes.load(Ordering::Relaxed),
            lifetime_hits: self.lifetime_hits.load(Ordering::Relaxed),
            lifetime_misses: self.lifetime_misses.load(Ordering::Relaxed),
            lifetime_inserts: self.lifetime_inserts.load(Ordering::Relaxed),
            entries: inner.index.len(),
            segments: inner.segments.len(),
            bytes: inner.segments.values().map(|s| s.bytes).sum(),
        }
    }

    /// Simulates a killed writer — test hook for the durability suite:
    /// buffered (unflushed) appends are lost and the lock file is left
    /// behind, exactly as `kill -9` would leave them. The next writable
    /// open must break the lock and recover the tail.
    pub fn simulate_crash(self) {
        if let Some(lock) = lock_inner(&self.lock).take() {
            lock.abandon();
        }
        let mut inner = lock_inner(&self.inner);
        if let Some(active) = inner.active.take() {
            // dropping a BufWriter flushes; forgetting it drops the
            // buffered tail on the floor like a killed process would.
            // The fd leaks, which is exactly what we want here (the
            // test process is about to reopen the store anyway).
            std::mem::forget(active.writer);
        }
    }
}

impl Drop for AnswerStore {
    fn drop(&mut self) {
        if self.mode != StoreMode::ReadOnly {
            let _ = self.flush();
        }
    }
}

/// `seg-00000001.log` → `Some(1)`.
fn segment_seq(name: &str) -> Option<u64> {
    name.strip_prefix("seg-")?
        .strip_suffix(".log")?
        .parse()
        .ok()
}

fn read_meta(dir: &Path) -> io::Result<StoreMeta> {
    let path = dir.join("meta.json");
    match fs::read_to_string(&path) {
        Ok(json) => Ok(serde_json::from_str(&json).unwrap_or_default()),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(StoreMeta::default()),
        Err(e) => Err(e),
    }
}

/// Atomic meta write: tmp file + rename, so a crash mid-write leaves
/// the previous meta intact.
fn write_meta(dir: &Path, meta: StoreMeta) -> io::Result<()> {
    let tmp = dir.join("meta.json.tmp");
    let json = serde_json::to_string(&meta).expect("meta serializes");
    fs::write(&tmp, json)?;
    fs::rename(&tmp, dir.join("meta.json"))
}

/// Poison-tolerant mutex lock (same rationale as the cache's lock
/// helpers: entries are always internally consistent).
fn lock_inner<T>(lock: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    lock.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use chipvqa_models::backbone::AnswerPath;

    fn tmp_dir(tag: &str) -> PathBuf {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "chipvqa-store-unit-{tag}-{}-{n}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn key(i: u64) -> CacheKey {
        CacheKey {
            model_fingerprint: 0xfeed ^ i,
            question_id: format!("digital-{i:03}"),
            prompt_hash: 0x1234_5678 + i,
            downsample: 1,
            attempt: 0,
            dataset_fingerprint: 7,
        }
    }

    fn answer(i: u64) -> CachedAnswer {
        CachedAnswer {
            text: format!("answer-{i}"),
            path: AnswerPath::Solved,
            solve_probability: 0.25,
        }
    }

    #[test]
    fn roundtrip_survives_reopen() {
        let dir = tmp_dir("roundtrip");
        {
            let store = AnswerStore::open(&dir).expect("opens");
            for i in 0..20 {
                assert!(store.insert(key(i), answer(i)));
            }
            assert_eq!(store.len(), 20);
            store.flush().expect("flushes");
        }
        let store = AnswerStore::open(&dir).expect("reopens");
        assert_eq!(store.len(), 20);
        for i in 0..20 {
            assert_eq!(store.lookup(&key(i)), Some(answer(i)));
        }
        assert!(store.lookup(&key(99)).is_none());
        let stats = store.stats();
        assert_eq!((stats.hits, stats.misses), (20, 1));
        assert_eq!(stats.lifetime_inserts, 20, "lifetime counters persist");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn meta_written_with_an_eviction_generation_still_parses() {
        let dir = tmp_dir("legacymeta");
        fs::create_dir_all(&dir).expect("mkdir");
        fs::write(
            dir.join("meta.json"),
            r#"{"format_version":1,"generation":3,"lifetime_hits":5,"lifetime_misses":6,"lifetime_inserts":7}"#,
        )
        .expect("plants meta");
        let stats = AnswerStore::open(&dir).expect("opens").stats();
        assert_eq!(
            (
                stats.lifetime_hits,
                stats.lifetime_misses,
                stats.lifetime_inserts
            ),
            (5, 6, 7),
            "the counters beside the old key are read"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotation_produces_multiple_segments_and_compaction_reclaims() {
        let dir = tmp_dir("rotate");
        let config = StoreConfig {
            segment_max_bytes: 512,
            ..StoreConfig::default()
        };
        let store = AnswerStore::open_with(&dir, config).expect("opens");
        for i in 0..40 {
            store.insert(key(i), answer(i));
        }
        // supersede half the keys so compaction has dead weight to drop
        for i in 0..20 {
            store.insert(key(i), answer(i + 100));
        }
        store.flush().expect("flushes");
        assert!(store.segment_paths().len() > 1, "rotation happened");
        let before = store.total_bytes();
        assert!(store.dead_ratio() > 0.0);
        let reclaimed = store.compact().expect("compacts");
        assert!(reclaimed > 0);
        assert_eq!(store.total_bytes(), before - reclaimed);
        assert_eq!(store.dead_ratio(), 0.0);
        assert_eq!(store.len(), 40);
        for i in 0..20 {
            assert_eq!(store.lookup(&key(i)), Some(answer(i + 100)));
        }
        for i in 20..40 {
            assert_eq!(store.lookup(&key(i)), Some(answer(i)));
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn eviction_bounds_size_and_counts_evicted_entries() {
        let dir = tmp_dir("evict");
        let config = StoreConfig {
            segment_max_bytes: 400,
            max_bytes: 1600,
            ..StoreConfig::default()
        };
        let store = AnswerStore::open_with(&dir, config).expect("opens");
        for i in 0..200 {
            store.insert(key(i), answer(i));
        }
        store.flush().expect("flushes");
        assert!(store.total_bytes() <= 1600 + 400, "bounded (active slack)");
        assert!(store.len() < 200, "old entries evicted");
        assert!(store.stats().evicted > 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupted_answers_are_refused_in_release_too() {
        let dir = tmp_dir("guard");
        let store = AnswerStore::open(&dir).expect("opens");
        let bad = CachedAnswer {
            text: format!("oops{}", crate::fault::TRUNCATION_MARKER),
            path: AnswerPath::Failed,
            solve_probability: 0.0,
        };
        let accepted =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| store.insert(key(1), bad)));
        // debug builds assert; release builds refuse quietly
        match accepted {
            Ok(accepted) => {
                assert!(!accepted);
                assert_eq!(store.stats().rejected, 1);
            }
            Err(_) => {
                if !cfg!(debug_assertions) {
                    panic!("insert panicked in a release build");
                }
            }
        }
        assert!(store.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn second_writer_is_locked_out_but_reader_is_not() {
        let dir = tmp_dir("lock");
        let store = AnswerStore::open(&dir).expect("opens");
        store.insert(key(1), answer(1));
        store.flush().expect("flushes");
        let err = AnswerStore::open(&dir).expect_err("second writer refused");
        assert_eq!(err.kind(), io::ErrorKind::WouldBlock);
        let reader = AnswerStore::open_read_only(&dir).expect("reader opens");
        assert_eq!(reader.lookup(&key(1)), Some(answer(1)));
        assert!(
            !reader.insert(key(2), answer(2)),
            "read-only refuses writes"
        );
        drop(store);
        let again = AnswerStore::open(&dir).expect("lock released on drop");
        assert_eq!(again.len(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn crashed_writer_lock_is_broken_and_tail_recovered() {
        let dir = tmp_dir("crash");
        let store = AnswerStore::open(&dir).expect("opens");
        for i in 0..5 {
            store.insert(key(i), answer(i));
        }
        store.flush().expect("flushed prefix");
        for i in 5..10 {
            store.insert(key(i), answer(i));
        }
        store.simulate_crash(); // unflushed tail lost, lock left behind
        assert!(dir.join("store.lock").exists(), "crash leaves the lock");

        let recovered = AnswerStore::open(&dir).expect("breaks the stale lock");
        assert_eq!(recovered.len(), 5, "flushed prefix survives");
        for i in 0..5 {
            assert_eq!(recovered.lookup(&key(i)), Some(answer(i)));
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_tail_is_repaired_on_open() {
        let dir = tmp_dir("trunc");
        {
            let store = AnswerStore::open(&dir).expect("opens");
            for i in 0..10 {
                store.insert(key(i), answer(i));
            }
        }
        let seg = AnswerStore::open_read_only(&dir)
            .expect("reader")
            .segment_paths()[0]
            .clone();
        let len = fs::metadata(&seg).expect("segment exists").len();
        // chop mid-record
        OpenOptions::new()
            .write(true)
            .open(&seg)
            .expect("writable")
            .set_len(len - 7)
            .expect("truncates");

        let store = AnswerStore::open(&dir).expect("recovers");
        assert_eq!(store.len(), 9, "one record lost to the torn tail");
        assert_eq!(store.stats().recovered_segments, 1);
        assert!(store.stats().recovered_bytes > 0);
        // the repaired file replays cleanly
        let (_, scan) = decode_segment(&store.segment_paths()[0]).expect("decodes");
        assert_eq!(scan.dropped_bytes, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn pid_reuse_stale_lock_is_broken_on_token_mismatch() {
        let dir = tmp_dir("pidreuse");
        fs::create_dir_all(&dir).expect("mkdir");
        if process_start_token(1).is_some() {
            // pid 1 is always alive, but this start token is from "an
            // older process that used to own pid 1": recycled pid
            fs::write(dir.join("store.lock"), "1 18446744073709551615").expect("plants lock");
            let store = AnswerStore::open(&dir).expect("token mismatch breaks the lock");
            drop(store);
        }

        if let Some(token) = process_start_token(1) {
            // the *real* pid-1 stamp is a live holder: refused
            fs::write(dir.join("store.lock"), format!("1 {token}")).expect("plants lock");
            let err = AnswerStore::open(&dir).expect_err("live holder keeps the lock");
            assert_eq!(err.kind(), io::ErrorKind::WouldBlock);
            fs::remove_file(dir.join("store.lock")).expect("cleanup");
        }

        // legacy bare-pid stamp of a live pid still blocks
        fs::write(dir.join("store.lock"), "1").expect("plants lock");
        if pid_alive(1) {
            let err = AnswerStore::open(&dir).expect_err("legacy live-pid lock holds");
            assert_eq!(err.kind(), io::ErrorKind::WouldBlock);
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn shared_writers_coexist_and_exclusive_sees_the_union() {
        let dir = tmp_dir("shared");
        let a = AnswerStore::open_shared(&dir, StoreConfig::default(), Telemetry::disabled())
            .expect("first shared handle");
        let b = AnswerStore::open_shared(&dir, StoreConfig::default(), Telemetry::disabled())
            .expect("second shared handle coexists");
        assert_eq!(a.mode(), StoreMode::Shared);
        for i in 0..5 {
            assert!(a.insert(key(i), answer(i)));
            assert!(b.insert(key(100 + i), answer(100 + i)));
        }
        // a live shared writer excludes an exclusive open
        let err = AnswerStore::open(&dir).expect_err("exclusive refused under shared writers");
        assert_eq!(err.kind(), io::ErrorKind::WouldBlock);
        drop(a);
        drop(b);
        let merged = AnswerStore::open(&dir).expect("markers released on drop");
        assert_eq!(merged.len(), 10, "both writers' records replay");
        for i in 0..5 {
            assert_eq!(merged.lookup(&key(i)), Some(answer(i)));
            assert_eq!(merged.lookup(&key(100 + i)), Some(answer(100 + i)));
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn exclusive_writer_excludes_shared_and_crashed_shared_marker_is_swept() {
        let dir = tmp_dir("sharedx");
        let exclusive = AnswerStore::open(&dir).expect("opens");
        let err = AnswerStore::open_shared(&dir, StoreConfig::default(), Telemetry::disabled())
            .expect_err("shared refused under a live exclusive writer");
        assert_eq!(err.kind(), io::ErrorKind::WouldBlock);
        drop(exclusive);

        let shared = AnswerStore::open_shared(&dir, StoreConfig::default(), Telemetry::disabled())
            .expect("shared opens after release");
        shared.insert(key(1), answer(1));
        shared.flush().expect("flushes");
        shared.simulate_crash(); // marker left behind, holder "dead"
        let markers = shared_markers(&fs::canonicalize(&dir).expect("canon")).expect("lists");
        assert_eq!(markers.len(), 1, "crash leaves the marker");
        let again = AnswerStore::open(&dir).expect("stale shared marker is swept");
        assert_eq!(again.lookup(&key(1)), Some(answer(1)));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn shared_mode_never_compacts_evicts_or_writes_meta() {
        let dir = tmp_dir("sharedro");
        let config = StoreConfig {
            segment_max_bytes: 256,
            max_bytes: 512, // would trigger eviction in exclusive mode
            compact_dead_ratio: 0.0,
        };
        let store = AnswerStore::open_shared(&dir, config, Telemetry::disabled()).expect("opens");
        for i in 0..50 {
            assert!(store.insert(key(i), answer(i)));
        }
        store.flush().expect("flushes");
        assert_eq!(store.len(), 50, "nothing evicted");
        assert_eq!(store.stats().evicted, 0);
        assert_eq!(store.compact().expect("no-op"), 0);
        assert!(
            !dir.join("meta.json").exists(),
            "shared flush skips meta.json"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn decode_segment_rejects_bit_flips() {
        let dir = tmp_dir("flip");
        {
            let store = AnswerStore::open(&dir).expect("opens");
            for i in 0..6 {
                store.insert(key(i), answer(i));
            }
        }
        let seg = {
            let r = AnswerStore::open_read_only(&dir).expect("reader");
            r.segment_paths()[0].clone()
        };
        let mut bytes = fs::read(&seg).expect("reads");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        fs::write(&seg, &bytes).expect("writes");
        let (records, scan) = decode_segment(&seg).expect("scans");
        assert!(records.len() < 6, "the flipped record (and tail) dropped");
        assert!(scan.dropped_bytes > 0);
        let store = AnswerStore::open(&dir).expect("recovers");
        assert_eq!(store.len(), records.len());
        let _ = fs::remove_dir_all(&dir);
    }
}
