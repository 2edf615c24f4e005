//! Persistent, append-only, content-addressed answer store.
//!
//! [`AnswerStore`] is the on-disk tier beneath [`AnswerCache`](crate::AnswerCache): the
//! "only ask again if prompt or model changed" caching the in-memory
//! cache provides *within* a process, made durable *across* processes.
//! A warm-started rerun — same models, same spec, same options — serves
//! every answer from disk and never touches the inference path, so
//! large-scale reruns across model revisions cost I/O instead of
//! compute.
//!
//! # Layout
//!
//! A store is a directory of record segments and nothing else:
//!
//! ```text
//! store/
//!   seg-00000001.log  append-only record segments, each created and
//!   seg-00000002.log  written by one handle
//! ```
//!
//! # Record format (v2)
//!
//! Each segment is a sequence of checksummed records:
//!
//! ```text
//! [magic  u32 LE = 0xC51A_D0C2]
//! [len    u32 LE]               payload byte length
//! [khash  u64 LE]               FNV-1a 64 over the payload's key bytes
//! [phash  u64 LE]               FNV-1a 64 over the payload bytes
//! [payload]
//!   key   CacheKey::canonical_bytes   five u64 fields, id length, id
//!   path  u8                          AnswerPath: 0 Solved, 1 Guessed, 2 Failed
//!   prob  u64 LE                      solve_probability.to_bits()
//!   tlen  u32 LE                      text byte length
//!   text  UTF-8 bytes
//! ```
//!
//! The key hash is [`CacheKey::content_hash`], so it covers exactly the
//! payload's key prefix: FNV-1a is a running hash, and one pass over
//! the payload checks both sums (the key hash is the state after the
//! key bytes). Encoding and decoding are direct byte copies; no serde.
//!
//! # Index and read path
//!
//! Open reads every segment front to back and checks each record in
//! full (magic, length, both checksums, payload structure), but decodes
//! no answer: the in-memory index maps each key hash to the record's
//! store position — its segment's start (the bytes of the segments
//! before it) plus its offset there — 16 bytes per key whatever the
//! answer's size; the record's length is in its header. A lookup hashes
//! the key, reads the record through its segment's read-ahead block
//! (one [`READ_BLOCK_BYTES`] buffer per segment, refilled from the
//! record's offset when the record is not in it) and, where the record
//! sits in the block, under the lock the read took, compares its key
//! bytes with its own, checks the header's key hash against its hash
//! and the payload checksum continued from it, and decodes only that
//! answer: the answer text is the one copy a hit makes. So two keys
//! whose hashes collide never cross answers: the loser's lookup is a
//! miss, and its re-inserted record takes the index entry. A record
//! still in the handle's write buffer is flushed before it is read.
//! Positions never move: a handle appends only to its own active
//! segment, the last one it knows, and no segment is ever truncated.
//!
//! # Format versions
//!
//! The record magic names the format, [`FORMAT_VERSION`]. A directory
//! written in format v1 (JSON payloads under the magic `0xC51A_D0C5`)
//! is refused with [`InvalidData`](io::ErrorKind::InvalidData) when the
//! open's scan reads a segment that starts with a v1 record. No v1
//! reader exists, and an open changes no file, so the directory is left
//! as it was; deleting it starts a new store.
//!
//! # Recovery
//!
//! Opening scans every segment front to back. The first bad record —
//! wrong magic, a length that overruns the file, a checksum mismatch, a
//! key hash that disagrees with the key bytes, or a payload that is not
//! a well-formed key and answer — ends the scan for that segment: the
//! rest of it is skipped in place, never truncated, and counted in
//! [`StoreStats::recovered_segments`] and `store.recovered`. No writer
//! appends after a tear (see *Concurrency*), so a tear hides no later
//! record, and every open skips it identically. Dropped records are
//! re-inferred on the next run and appended to a new segment; because
//! inference is deterministic per key, **every recovery path converges
//! to the same report bytes as a cold run**. A record damaged after
//! open fails its re-check at lookup and is a miss.
//!
//! # Invariant: segments only grow
//!
//! A segment is only ever appended to, and only by the handle that
//! created it. No code path rewrites, truncates, renames or deletes a
//! segment. A handle's segment is sealed once it would exceed
//! [`StoreConfig::segment_max_bytes`], and a sealed segment is never
//! written again. Inference is deterministic per key and
//! [`AnswerStore::insert`] skips a key that already holds the same
//! answer, so a handle writes each key once; were a key ever given a
//! different answer, replay would keep the last one. The store is a
//! transparent cache: an answer is either exactly what inference
//! returns for its key or absent, and a
//! [`Checkpoint`](crate::checkpoint::Checkpoint) or fleet record holds
//! final outcomes rather than references into the store.
//!
//! # Concurrency
//!
//! Any number of handles, in one process or many (a
//! [`fleet`](crate::fleet)'s workers), share one directory, and no
//! handle takes a lock. A handle claims a fresh segment on its first
//! insert, and another each time it seals one: the first free sequence
//! number after every segment it knows, taken with `create_new`, which
//! is atomic against every other writer. It appends only to segments it
//! created and never truncates, so another writer's unflushed tail is
//! pending data to it, not damage, and a writer killed mid-append
//! leaves a torn tail that no one appends after. An open that inserts
//! nothing creates no file but the directory (when it is absent) and
//! changes none. Each handle indexes what
//! was on disk when it opened, plus its own appends. Inference is
//! deterministic per key, so two handles racing on the same key append
//! byte-identical records, and replay keeps either. Each writing
//! session starts at least one segment of its own.
//!
//! # Invariant: only clean answers are persisted
//!
//! The in-memory cache debug-asserts that no faulted answer is
//! inserted; the store enforces it *in release builds too* —
//! [`AnswerStore::insert`] refuses text carrying corruption markers
//! (see [`is_corrupted_text`]) and
//! counts the refusal on `store.rejected`. A crashed chaos run can
//! therefore never poison future runs through the persistent tier.

use std::collections::HashMap;
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{self, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use chipvqa_models::backbone::AnswerPath;
use chipvqa_telemetry::{kv, Telemetry};
use serde::{Deserialize, Serialize};

use crate::cache::{CacheKey, CachedAnswer};
use crate::fault::is_corrupted_text;

/// Per-record framing magic of format v2 (`C5` for ChipVQA store).
pub const RECORD_MAGIC: u32 = 0xC51A_D0C2;

/// The framing magic of format v1, whose payloads were JSON: known only
/// so that a v1 store is refused rather than read as damage.
const V1_RECORD_MAGIC: u32 = 0xC51A_D0C5;

/// Bytes of framing before each payload: magic + len + key hash +
/// payload hash.
pub const RECORD_HEADER_BYTES: usize = 4 + 4 + 8 + 8;

/// On-disk format version, named by [`RECORD_MAGIC`]. Any framing or
/// payload change takes a new version and a new magic.
pub const FORMAT_VERSION: u32 = 2;

/// Bytes a lookup reads ahead from a segment into that segment's block.
pub const READ_BLOCK_BYTES: usize = 64 << 10;

/// Bytes of [`CacheKey::canonical_bytes`] before the question id: five
/// u64 fields and the id length.
const KEY_FIXED_BYTES: usize = 6 * 8;

/// Bytes of a payload's answer before its text: path, probability bits
/// and text length.
const ANSWER_FIXED_BYTES: usize = 1 + 8 + 4;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a 64 over arbitrary bytes — the store's checksum. The same
/// constants as [`prompt_hash`](crate::cache::prompt_hash), frozen by
/// the golden test in `tests/cache_consistency.rs`.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_extend(FNV_OFFSET, bytes)
}

/// Continues the FNV-1a 64 state `h` over `bytes`:
/// `fnv1a64_extend(fnv1a64(a), b) == fnv1a64(a ++ b)`.
pub(crate) fn fnv1a64_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// One persisted cache entry: the content-addressed key and its answer.
#[derive(Debug, Clone, PartialEq)]
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
    let key_bytes = key.canonical_bytes();
    let text = answer.text.as_bytes();
    let payload_len = key_bytes.len() + ANSWER_FIXED_BYTES + text.len();
    let mut out = Vec::with_capacity(RECORD_HEADER_BYTES + payload_len);
    out.extend_from_slice(&RECORD_MAGIC.to_le_bytes());
    out.extend_from_slice(&(payload_len as u32).to_le_bytes());
    // both hashes are filled in once the payload is written
    out.extend_from_slice(&[0; 16]);
    out.extend_from_slice(&key_bytes);
    out.push(path_byte(answer.path));
    out.extend_from_slice(&answer.solve_probability.to_bits().to_le_bytes());
    out.extend_from_slice(&(text.len() as u32).to_le_bytes());
    out.extend_from_slice(text);
    let (key_part, answer_part) = out[RECORD_HEADER_BYTES..].split_at(key_bytes.len());
    let khash = fnv1a64(key_part);
    let phash = fnv1a64_extend(khash, answer_part);
    out[8..16].copy_from_slice(&khash.to_le_bytes());
    out[16..24].copy_from_slice(&phash.to_le_bytes());
    out
}

fn path_byte(path: AnswerPath) -> u8 {
    match path {
        AnswerPath::Solved => 0,
        AnswerPath::Guessed => 1,
        AnswerPath::Failed => 2,
    }
}

fn path_from_byte(byte: u8) -> Option<AnswerPath> {
    match byte {
        0 => Some(AnswerPath::Solved),
        1 => Some(AnswerPath::Guessed),
        2 => Some(AnswerPath::Failed),
        _ => None,
    }
}

fn le_u32(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes"))
}

fn le_u64(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"))
}

/// A record at the head of a byte slice that passed every check, with
/// its fields borrowed from the slice.
struct RecordView<'a> {
    khash: u64,
    /// The key's canonical bytes.
    key: &'a [u8],
    id: &'a str,
    path: AnswerPath,
    solve_probability: f64,
    text: &'a str,
}

impl RecordView<'_> {
    fn key(&self) -> CacheKey {
        CacheKey {
            model_fingerprint: le_u64(self.key, 0),
            prompt_hash: le_u64(self.key, 8),
            downsample: le_u64(self.key, 16) as usize,
            attempt: le_u64(self.key, 24),
            dataset_fingerprint: le_u64(self.key, 32),
            question_id: self.id.to_owned(),
        }
    }

    fn answer(&self) -> CachedAnswer {
        CachedAnswer {
            text: self.text.to_owned(),
            path: self.path,
            solve_probability: self.solve_probability,
        }
    }
}

/// Checks the record at the head of `bytes` — magic, length, payload
/// structure, key hash and payload hash — without allocating. `None`
/// for a truncated or damaged record. With `expected`, a lookup's key
/// bytes and their hash, the record's key bytes must equal the lookup's,
/// and the checksums start from the lookup's hash instead of hashing
/// the key again.
fn check_record<'a>(bytes: &'a [u8], expected: Option<(&[u8], u64)>) -> Option<RecordView<'a>> {
    let header = bytes.get(..RECORD_HEADER_BYTES)?;
    if le_u32(header, 0) != RECORD_MAGIC {
        return None;
    }
    let len = RECORD_HEADER_BYTES + le_u32(header, 4) as usize;
    let payload = bytes.get(RECORD_HEADER_BYTES..len)?;
    let id_len = usize::try_from(le_u64(payload.get(..KEY_FIXED_BYTES)?, 40)).ok()?;
    let key_len = KEY_FIXED_BYTES.checked_add(id_len)?;
    let key = payload.get(..key_len)?;
    let answer = &payload[key_len..];
    let fixed = answer.get(..ANSWER_FIXED_BYTES)?;
    if answer.len() - ANSWER_FIXED_BYTES != le_u32(fixed, 9) as usize {
        return None;
    }
    let khash = match expected {
        Some((expected_key, khash)) => (key == expected_key).then_some(khash)?,
        None => fnv1a64(key),
    };
    if khash != le_u64(header, 8) || fnv1a64_extend(khash, answer) != le_u64(header, 16) {
        return None;
    }
    Some(RecordView {
        khash,
        key,
        id: std::str::from_utf8(&key[KEY_FIXED_BYTES..]).ok()?,
        path: path_from_byte(fixed[0])?,
        solve_probability: f64::from_bits(le_u64(fixed, 1)),
        text: std::str::from_utf8(&answer[ANSWER_FIXED_BYTES..]).ok()?,
    })
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

/// Reads a segment's records front to back through a
/// [`READ_BLOCK_BYTES`] buffer, handing each good one and its offset to
/// `each`, and stops at the first bad one. Never modifies the file.
/// Refuses, with [`InvalidData`](io::ErrorKind::InvalidData), a segment
/// that starts with a format-v1 record.
fn scan_segment(path: &Path, mut each: impl FnMut(u64, RecordView<'_>)) -> io::Result<SegmentScan> {
    let file = File::open(path)?;
    let file_len = file.metadata()?.len();
    let mut reader = BufReader::with_capacity(READ_BLOCK_BYTES, file);
    let mut record = Vec::new();
    let (mut offset, mut records) = (0u64, 0usize);
    // false once the file ends early: something outside the store cut
    // it under this scan
    let mut fill = |record: &mut Vec<u8>, len: usize| -> io::Result<bool> {
        let from = record.len();
        record.resize(len, 0);
        match reader.read_exact(&mut record[from..]) {
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => Ok(false),
            read => read.map(|()| true),
        }
    };
    while file_len - offset >= RECORD_HEADER_BYTES as u64 {
        record.clear();
        if !fill(&mut record, RECORD_HEADER_BYTES)? {
            break;
        }
        if offset == 0 && le_u32(&record, 0) == V1_RECORD_MAGIC {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "answer store segment {} holds format v1 records, and this build reads only \
                     format v{FORMAT_VERSION}: delete the directory to start a new store",
                    path.display()
                ),
            ));
        }
        let len = RECORD_HEADER_BYTES as u64 + u64::from(le_u32(&record, 4));
        if len > file_len - offset || !fill(&mut record, len as usize)? {
            break;
        }
        let Some(view) = check_record(&record, None) else {
            break;
        };
        each(offset, view);
        offset += len;
        records += 1;
    }
    Ok(SegmentScan {
        good_bytes: offset,
        dropped_bytes: file_len - offset,
        records,
    })
}

/// Decodes every well-formed record of a segment, stopping at the
/// first truncated or corrupted one. Never modifies the file; a segment
/// that starts with a format-v1 record is an
/// [`InvalidData`](io::ErrorKind::InvalidData) error.
pub fn decode_segment(path: &Path) -> io::Result<(Vec<StoredRecord>, SegmentScan)> {
    let mut records = Vec::new();
    let scan = scan_segment(path, |_, record| {
        records.push(StoredRecord {
            key: record.key(),
            answer: record.answer(),
        })
    })?;
    Ok((records, scan))
}

/// Tuning knobs of an [`AnswerStore`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StoreConfig {
    /// Seal a handle's segment once the next record would take it past
    /// this many bytes.
    pub segment_max_bytes: u64,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            segment_max_bytes: 4 << 20,
        }
    }
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
    /// Segments whose scan at open ended at a torn or damaged record;
    /// the rest of each was skipped in place.
    pub recovered_segments: u64,
    /// Bytes skipped at open after those records.
    pub recovered_bytes: u64,
    /// Keys currently indexed.
    pub entries: usize,
    /// Segments this handle knows: those on disk at open, plus its own.
    pub segments: usize,
    /// Good bytes of those segments.
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

/// One segment file on disk, with the read side of its records.
#[derive(Debug)]
struct Segment {
    seq: u64,
    /// Store position of the segment's first byte: the bytes of every
    /// segment before it. Only the last segment grows, so a position
    /// never moves.
    start: u64,
    /// Bytes of good records (buffered appends included).
    bytes: u64,
    /// Read handle, opened on the first read.
    reader: Option<File>,
    /// Offset of `block` in the segment.
    block_start: u64,
    /// The read-ahead block: the segment's bytes from `block_start`.
    block: Vec<u8>,
}

impl Segment {
    /// The `len` bytes at `offset` if the block holds all of them.
    fn in_block(&self, offset: u64, len: usize) -> Option<&[u8]> {
        let from = usize::try_from(offset.checked_sub(self.block_start)?).ok()?;
        self.block.get(from..from.checked_add(len)?)
    }
}

/// The writer half: the segment this handle created and appends to.
#[derive(Debug)]
struct ActiveSegment {
    /// The segment's slot in `Inner::segments`.
    slot: usize,
    writer: BufWriter<File>,
}

#[derive(Debug, Default)]
struct Inner {
    /// Key hash → the store position of the key's latest record (its
    /// segment's `start` plus its offset there). The record's length is
    /// read from its header.
    index: HashMap<u64, u64>,
    /// Every segment this handle knows, in sequence order.
    segments: Vec<Segment>,
    /// The segment this handle appends to: none until its first insert.
    active: Option<ActiveSegment>,
}

impl Inner {
    /// Adds an empty segment after every known one; returns its slot.
    fn push_segment(&mut self, seq: u64) -> usize {
        let start = self
            .segments
            .last()
            .map_or(0, |last| last.start + last.bytes);
        self.segments.push(Segment {
            seq,
            start,
            bytes: 0,
            reader: None,
            block_start: 0,
            block: Vec::new(),
        });
        self.segments.len() - 1
    }
}

/// The persistent content-addressed answer store. See the module docs
/// for format, recovery and concurrency.
pub struct AnswerStore {
    dir: PathBuf,
    config: StoreConfig,
    inner: Mutex<Inner>,
    telemetry: Telemetry,
    hits: AtomicU64,
    misses: AtomicU64,
    inserts: AtomicU64,
    rejected: AtomicU64,
    recovered_segments: AtomicU64,
    recovered_bytes: AtomicU64,
}

impl fmt::Debug for AnswerStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AnswerStore")
            .field("dir", &self.dir)
            .finish_non_exhaustive()
    }
}

impl AnswerStore {
    /// Opens (creating the directory if absent) a store with default
    /// tuning.
    pub fn open(dir: impl AsRef<Path>) -> io::Result<AnswerStore> {
        AnswerStore::open_with(dir, StoreConfig::default())
    }

    /// Opens (creating the directory if absent) a store with explicit
    /// tuning.
    pub fn open_with(dir: impl AsRef<Path>, config: StoreConfig) -> io::Result<AnswerStore> {
        AnswerStore::open_with_telemetry(dir, config, Telemetry::disabled())
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
        let dir = dir.as_ref();
        fs::create_dir_all(dir)?;
        let store = AnswerStore {
            dir: dir.to_path_buf(),
            config,
            inner: Mutex::new(Inner::default()),
            telemetry,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            recovered_segments: AtomicU64::new(0),
            recovered_bytes: AtomicU64::new(0),
        };
        store.replay_segments()?;
        Ok(store)
    }

    /// Attaches a telemetry handle; `store.{hit,miss,insert,rotate,
    /// recovered,rejected,block_read}` counters and structured events
    /// report through it. Telemetry never changes store behaviour.
    /// Open-time recovery signals precede this call — use
    /// [`open_with_telemetry`](AnswerStore::open_with_telemetry) to
    /// capture those too.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Builds the in-memory index by scanning every segment in sequence
    /// order; a torn or damaged tail ends its segment's scan.
    fn replay_segments(&self) -> io::Result<()> {
        let mut inner = lock_inner(&self.inner);
        let inner = &mut *inner;
        for seq in segment_seqs(&self.dir)? {
            let slot = inner.push_segment(seq);
            let start = inner.segments[slot].start;
            let scan = scan_segment(&self.segment_path(seq), |offset, record| {
                inner.index.insert(record.khash, start + offset);
            })?;
            if scan.dropped_bytes > 0 {
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
            inner.segments[slot].bytes = scan.good_bytes;
        }
        if self.telemetry.enabled() {
            self.telemetry.event(
                "store.open",
                vec![
                    kv("entries", inner.index.len()),
                    kv("segments", inner.segments.len()),
                ],
            );
        }
        Ok(())
    }

    /// Claims the first free segment sequence number after every
    /// segment this handle knows with `create_new` — atomic against
    /// every other writer — and installs it as this handle's active
    /// segment.
    fn claim_segment(&self, inner: &mut Inner) -> io::Result<()> {
        let mut seq = inner.segments.last().map_or(1, |last| last.seq + 1);
        loop {
            match OpenOptions::new()
                .create_new(true)
                .append(true)
                .open(self.segment_path(seq))
            {
                Ok(file) => {
                    let slot = inner.push_segment(seq);
                    inner.active = Some(ActiveSegment {
                        slot,
                        writer: BufWriter::new(file),
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
        segment_file(&self.dir, seq)
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Keys currently indexed (one per key hash).
    pub fn len(&self) -> usize {
        lock_inner(&self.inner).index.len()
    }

    /// Whether the store holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Paths of every segment this handle knows, in sequence order.
    pub fn segment_paths(&self) -> Vec<PathBuf> {
        lock_inner(&self.inner)
            .segments
            .iter()
            .map(|segment| self.segment_path(segment.seq))
            .collect()
    }

    /// The record at store position `pos` where it sits in its
    /// segment's read-ahead block: its header, then the length the
    /// header gives. Unchecked; callers check it under the same lock.
    fn read_record<'a>(&self, inner: &'a mut Inner, pos: u64) -> io::Result<&'a [u8]> {
        let slot = inner.segments.partition_point(|s| s.start <= pos) - 1;
        let offset = pos - inner.segments[slot].start;
        let header = self.read_span(inner, slot, offset, RECORD_HEADER_BYTES)?;
        let len = RECORD_HEADER_BYTES + le_u32(header, 4) as usize;
        self.read_span(inner, slot, offset, len)
    }

    /// `len` bytes at `offset` of segment `slot`, read through the
    /// segment's read-ahead block; bytes still in the write buffer are
    /// flushed to the file first.
    fn read_span<'a>(
        &self,
        inner: &'a mut Inner,
        slot: usize,
        offset: u64,
        len: usize,
    ) -> io::Result<&'a [u8]> {
        let end = offset + len as u64;
        if end > inner.segments[slot].bytes {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "record runs past the segment's good bytes",
            ));
        }
        if let Some(active) = inner.active.as_mut().filter(|a| a.slot == slot) {
            let on_disk = inner.segments[slot].bytes - active.writer.buffer().len() as u64;
            if end > on_disk {
                active.writer.flush()?;
            }
        }
        let segment = &mut inner.segments[slot];
        if segment.in_block(offset, len).is_none() {
            self.telemetry.counter("store.block_read", 1);
            let reader = match &mut segment.reader {
                Some(reader) => reader,
                empty => empty.insert(File::open(self.segment_path(segment.seq))?),
            };
            reader.seek(SeekFrom::Start(offset))?;
            // set before the read, so bytes a failed read leaves behind
            // still sit at their own offsets
            segment.block.clear();
            segment.block_start = offset;
            reader
                .take(READ_BLOCK_BYTES.max(len) as u64)
                .read_to_end(&mut segment.block)?;
        }
        segment
            .in_block(offset, len)
            .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "segment file ends early"))
    }

    /// The answer stored under `key`, if its record is intact and holds
    /// exactly this key, checked and decoded where it sits in the block.
    /// The key is hashed once: for the index, and as the start of the
    /// record's checksums.
    fn find(&self, key: &CacheKey) -> Option<CachedAnswer> {
        let key_bytes = key.canonical_bytes();
        let khash = fnv1a64(&key_bytes);
        let mut inner = lock_inner(&self.inner);
        let pos = *inner.index.get(&khash)?;
        let record = self.read_record(&mut inner, pos).ok()?;
        check_record(record, Some((&key_bytes, khash))).map(|record| record.answer())
    }

    /// Looks up one answer on disk: the index locates its record, which
    /// is re-checked and decoded.
    pub fn lookup(&self, key: &CacheKey) -> Option<CachedAnswer> {
        let found = self.find(key);
        if found.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            self.telemetry.counter("store.hit", 1);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            self.telemetry.counter("store.miss", 1);
        }
        found
    }

    /// Appends one answer (write-behind: buffered, durable after
    /// [`flush`](AnswerStore::flush)). Returns whether the record was
    /// accepted.
    ///
    /// Refused — with a `store.rejected` count, in release builds too —
    /// when the answer carries fault-corruption markers, or when the
    /// key already maps to this exact answer (idempotent re-insert
    /// needs no new record).
    pub fn insert(&self, key: CacheKey, answer: CachedAnswer) -> bool {
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
        let record = encode_record(&key, &answer);
        let khash = le_u64(&record, 8);
        let mut inner = lock_inner(&self.inner);
        if let Some(&pos) = inner.index.get(&khash) {
            // encoding is deterministic: bytes equal to this well-formed
            // record are the same key and answer, intact
            if self
                .read_record(&mut inner, pos)
                .is_ok_and(|stored| stored == record.as_slice())
            {
                return false;
            }
        }
        if self.append_record(&mut inner, khash, &record).is_err() {
            return false;
        }
        drop(inner);
        self.inserts.fetch_add(1, Ordering::Relaxed);
        self.telemetry.counter("store.insert", 1);
        true
    }

    /// Appends `record` to this handle's segment: claims one on the
    /// first append, and seals it for a fresh one when the record would
    /// take it past [`StoreConfig::segment_max_bytes`]. After a failed
    /// write, which may have left part of the record behind, the next
    /// append claims a fresh segment, so no append lands after a tear.
    fn append_record(&self, inner: &mut Inner, khash: u64, record: &[u8]) -> io::Result<()> {
        let incoming = record.len() as u64;
        if let Some(active) = &inner.active {
            if inner.segments[active.slot].bytes + incoming > self.config.segment_max_bytes {
                let mut sealed = inner.active.take().expect("checked above");
                sealed.writer.flush()?;
                self.telemetry.counter("store.rotate", 1);
            }
        }
        if inner.active.is_none() {
            self.claim_segment(inner)?;
        }
        let active = inner.active.as_mut().expect("claimed above");
        if let Err(e) = active.writer.write_all(record) {
            inner.active = None;
            return Err(e);
        }
        let segment = &mut inner.segments[active.slot];
        let pos = segment.start + segment.bytes;
        segment.bytes += incoming;
        inner.index.insert(khash, pos);
        Ok(())
    }

    /// Flushes buffered appends to this handle's segment.
    pub fn flush(&self) -> io::Result<()> {
        match lock_inner(&self.inner).active.as_mut() {
            Some(active) => active.writer.flush(),
            None => Ok(()),
        }
    }

    /// All entries in deterministic key order. Checks and decodes every
    /// indexed record where it sits in its block, in file order.
    pub fn entries(&self) -> Vec<(CacheKey, CachedAnswer)> {
        let mut inner = lock_inner(&self.inner);
        let mut positions: Vec<u64> = inner.index.values().copied().collect();
        positions.sort_unstable();
        let mut entries: Vec<(CacheKey, CachedAnswer)> = positions
            .into_iter()
            .filter_map(|pos| {
                let record = self.read_record(&mut inner, pos).ok()?;
                let view = check_record(record, None)?;
                Some((view.key(), view.answer()))
            })
            .collect();
        drop(inner);
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
            recovered_segments: self.recovered_segments.load(Ordering::Relaxed),
            recovered_bytes: self.recovered_bytes.load(Ordering::Relaxed),
            entries: inner.index.len(),
            segments: inner.segments.len(),
            bytes: inner.segments.iter().map(|segment| segment.bytes).sum(),
        }
    }

    /// Simulates a killed writer — test hook for the durability suite:
    /// buffered (unflushed) appends are lost, exactly as `kill -9`
    /// would lose them.
    pub fn simulate_crash(self) {
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
        let _ = self.flush();
    }
}

fn segment_file(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("seg-{seq:08}.log"))
}

/// `seg-00000001.log` → `Some(1)`.
fn segment_seq(name: &str) -> Option<u64> {
    name.strip_prefix("seg-")?
        .strip_suffix(".log")?
        .parse()
        .ok()
}

/// Sequence numbers of every segment in `dir`, ascending.
fn segment_seqs(dir: &Path) -> io::Result<Vec<u64>> {
    let mut seqs = Vec::new();
    for entry in fs::read_dir(dir)? {
        if let Some(seq) = segment_seq(&entry?.file_name().to_string_lossy()) {
            seqs.push(seq);
        }
    }
    seqs.sort_unstable();
    Ok(seqs)
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

    /// Each file in `dir` with its size, by name.
    fn listing(dir: &Path) -> Vec<(String, u64)> {
        let mut files: Vec<(String, u64)> = fs::read_dir(dir)
            .expect("lists")
            .map(|entry| {
                let entry = entry.expect("entry");
                let len = entry.metadata().expect("metadata").len();
                (entry.file_name().to_string_lossy().into_owned(), len)
            })
            .collect();
        files.sort();
        files
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
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_open_that_only_looks_up_changes_no_file() {
        let dir = tmp_dir("lookup-only");
        {
            let store = AnswerStore::open(&dir).expect("opens");
            for i in 0..10 {
                store.insert(key(i), answer(i));
            }
        }
        let before = listing(&dir);
        assert_eq!(before.len(), 1, "one segment: {before:?}");
        {
            let store = AnswerStore::open(&dir).expect("reopens");
            for i in 0..11 {
                store.lookup(&key(i));
            }
            assert!(!store.insert(key(3), answer(3)), "already stored");
            store.flush().expect("flushes");
            assert_eq!((store.stats().hits, store.stats().misses), (10, 1));
        }
        assert_eq!(listing(&dir), before, "no file added, removed or resized");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotation_produces_multiple_segments_and_replay_keeps_the_last_write() {
        let dir = tmp_dir("rotate");
        let config = StoreConfig {
            segment_max_bytes: 512,
        };
        {
            let store = AnswerStore::open_with(&dir, config).expect("opens");
            for i in 0..40 {
                store.insert(key(i), answer(i));
            }
            // a second answer for half the keys: appended, never rewritten
            for i in 0..20 {
                store.insert(key(i), answer(i + 100));
            }
            store.flush().expect("flushes");
            assert!(store.segment_paths().len() > 1, "rotation happened");
        }
        let store = AnswerStore::open_with(&dir, config).expect("reopens");
        assert_eq!(store.len(), 40);
        let records: usize = store
            .segment_paths()
            .iter()
            .map(|seg| decode_segment(seg).expect("decodes").1.records)
            .sum();
        assert_eq!(records, 60, "every appended record is still on disk");
        for i in 0..20 {
            assert_eq!(store.lookup(&key(i)), Some(answer(i + 100)));
        }
        for i in 20..40 {
            assert_eq!(store.lookup(&key(i)), Some(answer(i)));
        }
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
    fn crashed_writer_loses_only_its_unflushed_tail() {
        let dir = tmp_dir("crash");
        let store = AnswerStore::open(&dir).expect("opens");
        for i in 0..5 {
            store.insert(key(i), answer(i));
        }
        store.flush().expect("flushed prefix");
        for i in 5..10 {
            store.insert(key(i), answer(i));
        }
        store.simulate_crash(); // unflushed tail lost

        let recovered = AnswerStore::open(&dir).expect("reopens");
        assert_eq!(recovered.len(), 5, "flushed prefix survives");
        for i in 0..5 {
            assert_eq!(recovered.lookup(&key(i)), Some(answer(i)));
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_torn_tail_never_hides_a_later_record() {
        let dir = tmp_dir("torn");
        {
            let store = AnswerStore::open(&dir).expect("opens");
            for i in 0..10 {
                store.insert(key(i), answer(i));
            }
        }
        let torn = segment_file(&dir, 1);
        let len = fs::metadata(&torn).expect("segment exists").len();
        // chop mid-record
        OpenOptions::new()
            .write(true)
            .open(&torn)
            .expect("writable")
            .set_len(len - 7)
            .expect("truncates");
        let torn_bytes = fs::read(&torn).expect("reads");

        {
            let store = AnswerStore::open(&dir).expect("opens past the tear");
            assert_eq!(store.len(), 9, "one record lost to the torn tail");
            assert_eq!(store.stats().recovered_segments, 1);
            assert!(store.stats().recovered_bytes > 0);
            assert_eq!(store.lookup(&key(9)), None);
            assert!(store.insert(key(9), answer(9)), "the lost answer again");
            assert!(store.insert(key(10), answer(10)), "a new key");
            let paths = store.segment_paths();
            assert_eq!(paths, [torn.clone(), segment_file(&dir, 2)]);
            assert_eq!(fs::read(&torn).expect("reads"), torn_bytes);
        }
        assert_eq!(
            fs::read(&torn).expect("reads"),
            torn_bytes,
            "the torn segment is left byte for byte"
        );

        let store = AnswerStore::open(&dir).expect("reopens");
        assert_eq!(store.len(), 11);
        for i in 0..11 {
            assert_eq!(store.lookup(&key(i)), Some(answer(i)), "key {i}");
        }
        assert_eq!(store.stats().recovered_segments, 1, "skipped the same way");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn two_handles_coexist_and_a_third_sees_the_union() {
        let dir = tmp_dir("two-handles");
        let a = AnswerStore::open(&dir).expect("first handle");
        let b = AnswerStore::open(&dir).expect("second handle coexists");
        for i in 0..5 {
            assert!(a.insert(key(i), answer(i)));
            assert!(b.insert(key(100 + i), answer(100 + i)));
        }
        assert_ne!(
            a.segment_paths(),
            b.segment_paths(),
            "each appends to a segment of its own"
        );
        drop(a);
        drop(b);
        let merged = AnswerStore::open(&dir).expect("third handle");
        assert_eq!(merged.len(), 10, "both writers' records replay");
        for i in 0..5 {
            assert_eq!(merged.lookup(&key(i)), Some(answer(i)));
            assert_eq!(merged.lookup(&key(100 + i)), Some(answer(100 + i)));
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_record_damaged_after_open_is_a_miss_and_its_reinsert_is_served() {
        let dir = tmp_dir("late-damage");
        {
            let store = AnswerStore::open(&dir).expect("opens");
            for i in 0..10 {
                store.insert(key(i), answer(i));
            }
        }
        let store = AnswerStore::open(&dir).expect("reopens");
        assert_eq!(store.len(), 10, "every record indexed at open");
        // behind the open handle, damage one byte of a record each: the
        // last answer byte, a key byte, the key hash and the payload hash
        let seg = store.segment_paths()[0].clone();
        let mut bytes = fs::read(&seg).expect("reads");
        let start = |i: u64| -> usize {
            (0..i)
                .map(|j| encode_record(&key(j), &answer(j)).len())
                .sum()
        };
        let damaged = [
            (3, start(4) - 1),
            (4, start(4) + RECORD_HEADER_BYTES + 1),
            (5, start(5) + 8),
            (6, start(6) + 16),
        ];
        for &(_, at) in &damaged {
            bytes[at] ^= 0x01;
        }
        fs::write(&seg, &bytes).expect("writes");

        for &(i, _) in &damaged {
            assert_eq!(store.lookup(&key(i)), None, "record {i} is a miss");
            assert!(
                store.insert(key(i), answer(i)),
                "its answer is appended again"
            );
            assert_eq!(store.lookup(&key(i)), Some(answer(i)));
        }
        for i in (0..10).filter(|i| !(3..7).contains(i)) {
            assert_eq!(store.lookup(&key(i)), Some(answer(i)));
        }
        assert_eq!((store.stats().hits, store.stats().misses), (10, 4));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_record_in_the_write_buffer_is_served() {
        let dir = tmp_dir("buffered");
        let store = AnswerStore::open(&dir).expect("opens");
        assert!(store.insert(key(1), answer(1)));
        let seg = store.segment_paths()[0].clone();
        assert_eq!(
            fs::metadata(&seg).expect("exists").len(),
            0,
            "still buffered"
        );
        assert_eq!(store.lookup(&key(1)), Some(answer(1)));
        assert!(
            fs::metadata(&seg).expect("exists").len() > 0,
            "the read flushed the buffer"
        );
        // an idempotent re-insert reads the record too, and appends nothing
        assert!(store.insert(key(2), answer(2)));
        assert!(!store.insert(key(2), answer(2)));
        assert_eq!(store.stats().inserts, 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_key_hash_collision_is_a_miss_not_another_keys_answer() {
        let dir = tmp_dir("collision");
        let store = AnswerStore::open(&dir).expect("opens");
        assert!(store.insert(key(1), answer(1)));
        // point key 2's hash at key 1's record, as a collision would
        {
            let mut inner = lock_inner(&store.inner);
            let pos = inner.index[&key(1).content_hash()];
            inner.index.insert(key(2).content_hash(), pos);
        }
        assert_eq!(store.lookup(&key(2)), None, "full key bytes differ");
        assert!(
            store.insert(key(2), answer(2)),
            "the loser's answer is appended"
        );
        assert_eq!(store.lookup(&key(2)), Some(answer(2)));
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
        let seg = segment_file(&dir, 1);
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
