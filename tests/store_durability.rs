//! T-store: durability and crash-recovery of the persistent answer
//! store, proven end-to-end against the evaluation stack.
//!
//! The contract under test: **every recovery path converges to a
//! byte-identical `EvalReport` versus a cold run.** The pipeline is
//! deterministic per cache key, so whatever a corruption, truncation or
//! killed writer destroys is simply re-inferred — a warm start after
//! *any* injected damage must produce the same report bytes as a run
//! that never had a store at all.
//!
//! `cache_stats` is run metadata (excluded from report equality and
//! different between cold and warm runs by design), so byte comparisons
//! null it first; everything else must match to the byte.
//!
//! `CHIPVQA_CHAOS_SEED` (the CI chaos matrix) perturbs the injected
//! damage without touching the proptest case generator, so each CI seed
//! explores different corruption sites while staying reproducible.

use std::fs::{self, OpenOptions};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

use chipvqa::core::{ChipVqa, DatasetSpec, BASE_SIZE};
use chipvqa::eval::harness::{EvalOptions, EvalReport};
use chipvqa::eval::store::{decode_segment, fnv1a64, AnswerStore, StoreConfig, StoreStats};
use chipvqa::eval::{AnswerCache, CacheKey, CacheStats, CachedAnswer, ParallelExecutor};
use chipvqa::models::backbone::AnswerPath;
use chipvqa::models::{ModelZoo, VlmPipeline};
use chipvqa::telemetry::Telemetry;
use proptest::prelude::*;

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
        "chipvqa-store-durability-{tag}-{}-{n}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// The report's result bytes: serialization with the run-metadata
/// `cache_stats` nulled, so cold and warm runs are comparable.
fn report_bytes(mut report: EvalReport) -> String {
    report.cache_stats = None;
    serde_json::to_string(&report).expect("report serializes")
}

/// One store-backed evaluation of the standard bench: opens the store
/// at `dir`, runs, flushes, returns the report plus both stat views.
fn eval_with_store(
    dir: &std::path::Path,
    config: StoreConfig,
    telemetry: Telemetry,
) -> (EvalReport, CacheStats, StoreStats) {
    let pipe = VlmPipeline::new(ModelZoo::gpt4o());
    let bench = ChipVqa::standard();
    let store = Arc::new(
        AnswerStore::open_with_telemetry(dir, config, telemetry.clone()).expect("store opens"),
    );
    let cache = Arc::new(AnswerCache::new().with_store(Arc::clone(&store)));
    let exec = ParallelExecutor::new(4)
        .with_cache(Arc::clone(&cache))
        .with_telemetry(telemetry);
    let report = exec.evaluate(&pipe, &bench, EvalOptions::default());
    (report, cache.stats(), store.stats())
}

/// The cold reference: same evaluation, no store, no cache.
fn cold_reference() -> EvalReport {
    let pipe = VlmPipeline::new(ModelZoo::gpt4o());
    let bench = ChipVqa::standard();
    ParallelExecutor::new(4).evaluate(&pipe, &bench, EvalOptions::default())
}

#[test]
fn warm_restart_is_byte_identical_and_serves_from_disk() {
    let dir = tmp_dir("warm");
    let reference = report_bytes(cold_reference());

    // cold run populates the store
    let cold_tele = Telemetry::recording();
    let (cold_report, cold_cache, cold_store) =
        eval_with_store(&dir, StoreConfig::default(), cold_tele.clone());
    assert_eq!(report_bytes(cold_report), reference, "store is transparent");
    assert_eq!(cold_cache.store_hits, 0, "nothing on disk yet");
    assert!(cold_store.inserts > 0, "cold run populates the store");
    let inserted = cold_store.inserts;
    assert_eq!(
        cold_tele.snapshot().counters.get("store.insert"),
        Some(&inserted),
        "store telemetry tracks inserts"
    );

    // warm run in a "fresh process": new handles, same directory
    let warm_tele = Telemetry::recording();
    let (warm_report, warm_cache, warm_store) =
        eval_with_store(&dir, StoreConfig::default(), warm_tele.clone());
    assert_eq!(
        report_bytes(warm_report),
        reference,
        "warm restart must converge to cold bytes"
    );
    assert_eq!(warm_cache.misses, 0, "no inference on a warm start");
    assert_eq!(
        warm_cache.store_hits, inserted,
        "every unique key served from disk"
    );
    assert_eq!(warm_cache.warm_hit_rate(), 1.0, "fully warm");
    assert_eq!(warm_store.misses, 0);
    let counters = warm_tele.snapshot().counters;
    assert_eq!(counters.get("store.hit"), Some(&inserted));
    assert_eq!(counters.get("store.miss"), None);
    assert_eq!(counters.get("store.insert"), None, "nothing new to insert");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn streamed_scaled_run_warm_starts_byte_identically() {
    // the `table2 --scale` pathway: evaluate_spec_stream with a
    // store-backed cache across two "processes"
    let dir = tmp_dir("stream");
    let spec = DatasetSpec::scaled(2);
    let pipe = VlmPipeline::new(ModelZoo::phi3_vision());
    let run = |tag: &str| {
        let store = Arc::new(AnswerStore::open(&dir).unwrap_or_else(|e| {
            panic!("{tag}: store opens: {e}");
        }));
        let cache = Arc::new(AnswerCache::new().with_store(store));
        let exec = ParallelExecutor::new(4).with_cache(Arc::clone(&cache));
        let (report, _) =
            exec.evaluate_spec_stream(&pipe, &spec, BASE_SIZE, EvalOptions::default());
        (report_bytes(report), cache.stats())
    };
    let (cold_bytes, cold_stats) = run("cold");
    assert_eq!(cold_stats.store_hits, 0);
    let (warm_bytes, warm_stats) = run("warm");
    assert_eq!(warm_bytes, cold_bytes, "streamed warm start converges");
    assert_eq!(warm_stats.misses, 0, "no inference on the warm stream");
    assert!(warm_stats.store_hits > 0);
    let _ = fs::remove_dir_all(&dir);
}

/// A warm restart of the Table II grid reads no pixel: its producer
/// rasterizes no image ahead and no legibility slot is filled, while
/// the cold fill that stored the answers rasterized ahead.
#[test]
fn a_warm_table2_grid_rasterizes_nothing() {
    let dir = tmp_dir("warm-raster");
    let run = || {
        let store = Arc::new(AnswerStore::open(&dir).expect("store opens"));
        let cache = Arc::new(AnswerCache::new().with_store(store));
        let tele = Telemetry::recording();
        let exec = ParallelExecutor::new(1)
            .with_cache(Arc::clone(&cache))
            .with_telemetry(tele.clone());
        let mut bytes = Vec::new();
        chipvqa_bench::run_table2_on(&exec, 2, true)
            .write_report_json(&mut bytes)
            .expect("report writes");
        (bytes, cache.stats(), tele.snapshot())
    };
    let spanned = |snap: &chipvqa::telemetry::MetricsSnapshot, name: &str| {
        snap.spans.keys().any(|path| path.ends_with(name))
    };
    let (cold, _, cold_snap) = run();
    assert!(cold_snap.counters.get("stream.rasterized") > Some(&0));
    assert!(spanned(&cold_snap, "perceive.legibility"));
    let (warm, stats, snap) = run();
    assert_eq!(warm, cold, "warm restart converges to cold bytes");
    assert_eq!(stats.misses, 0, "no inference on a warm start");
    assert_eq!(snap.counters.get("stream.rasterized"), None);
    assert!(!spanned(&snap, "stream.rasterize"));
    assert!(!spanned(&snap, "perceive.legibility"));
    let _ = fs::remove_dir_all(&dir);
}

/// Two threads, each with its own handle on one directory, run the same
/// streamed grid at once: both reports are the cold bytes, and a third
/// open serves every key from the segments both left.
#[test]
fn two_threads_running_one_grid_on_one_store_both_get_cold_bytes() {
    let dir = tmp_dir("two-threads");
    let spec = DatasetSpec::scaled(2);
    let pipe = VlmPipeline::new(ModelZoo::phi3_vision());
    let open = || AnswerStore::open(&dir).expect("store opens");
    let run = |store: AnswerStore| {
        let cache = Arc::new(AnswerCache::new().with_store(Arc::new(store)));
        let exec = ParallelExecutor::new(2).with_cache(Arc::clone(&cache));
        let (report, _) =
            exec.evaluate_spec_stream(&pipe, &spec, BASE_SIZE, EvalOptions::default());
        (report_bytes(report), cache.stats())
    };
    let (cold, _) = ParallelExecutor::new(2).evaluate_spec_stream(
        &pipe,
        &spec,
        BASE_SIZE,
        EvalOptions::default(),
    );
    let cold = report_bytes(cold);
    // both handles are open before either writes, and both runs start
    // together
    let (first, second) = (open(), open());
    let start = Barrier::new(2);
    let (a, b) = std::thread::scope(|scope| {
        let a = scope.spawn(|| {
            start.wait();
            run(first)
        });
        let b = scope.spawn(|| {
            start.wait();
            run(second)
        });
        (
            a.join().expect("first thread"),
            b.join().expect("second thread"),
        )
    });
    assert_eq!(a.0, cold, "first thread's report");
    assert_eq!(b.0, cold, "second thread's report");
    assert!(
        a.1.misses > 0 && b.1.misses > 0,
        "both inferred on an empty store"
    );

    let (third, stats) = run(open());
    assert_eq!(third, cold, "third open's report");
    assert_eq!(stats.misses, 0, "the third open serves every key");
    assert_eq!(stats.store_hits, a.1.misses);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn kill_mid_append_converges() {
    let reference = report_bytes(cold_reference());

    // harvest the real answers once
    let source_dir = tmp_dir("kill-src");
    let (_, _, _) = eval_with_store(&source_dir, StoreConfig::default(), Telemetry::disabled());
    let entries = AnswerStore::open(&source_dir)
        .expect("source reopens")
        .entries();
    assert!(entries.len() > 100);

    // replay into a fresh store, crash mid-append: the first half is
    // flushed (durable), the second half sits in the writer buffer and
    // dies with the "process"
    let dir = tmp_dir("kill");
    let store = AnswerStore::open(&dir).expect("store opens");
    let half = entries.len() / 2;
    for (key, answer) in &entries[..half] {
        store.insert(key.clone(), answer.clone());
    }
    store.flush().expect("prefix flushed");
    for (key, answer) in &entries[half..] {
        store.insert(key.clone(), answer.clone());
    }
    store.simulate_crash();

    // next run: the flushed prefix is served, the lost tail re-inferred
    // — same bytes as the cold reference
    let (report, cache_stats, store_stats) =
        eval_with_store(&dir, StoreConfig::default(), Telemetry::disabled());
    assert_eq!(report_bytes(report), reference, "post-kill run converges");
    assert!(
        cache_stats.store_hits > 0,
        "the flushed prefix still serves from disk"
    );
    assert!(
        store_stats.inserts > 0,
        "the lost tail was re-inferred and re-persisted"
    );
    let _ = fs::remove_dir_all(&source_dir);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn rotation_converges_and_writes_each_key_once() {
    let reference = report_bytes(cold_reference());

    // tiny segments force rotation during the cold run
    let config = StoreConfig {
        segment_max_bytes: 4 << 10,
    };
    let dir = tmp_dir("rotate");
    let (cold_report, _, cold_store) = eval_with_store(&dir, config, Telemetry::disabled());
    assert_eq!(report_bytes(cold_report), reference, "rotated cold run");
    assert!(cold_store.segments > 1, "rotation produced segments");
    let cold_segments: Vec<(PathBuf, u64)> = AnswerStore::open(&dir)
        .expect("reader")
        .segment_paths()
        .into_iter()
        .map(|seg| {
            let len = fs::metadata(&seg).expect("segment exists").len();
            (seg, len)
        })
        .collect();

    // warm restart over the rotated segments: same bytes, nothing new
    let (warm_report, warm_cache, warm_store) =
        eval_with_store(&dir, config, Telemetry::disabled());
    assert_eq!(report_bytes(warm_report), reference, "rotated warm run");
    assert_eq!(warm_cache.misses, 0, "every answer served from disk");
    assert_eq!(warm_store.inserts, 0, "a warm run appends nothing");

    // each key is on disk exactly once, and segments only ever grow
    let records: usize = AnswerStore::open(&dir)
        .expect("reader")
        .segment_paths()
        .iter()
        .map(|seg| decode_segment(seg).expect("decodes").1.records)
        .sum();
    assert_eq!(records, warm_store.entries, "one record per key");
    for (seg, cold_len) in &cold_segments {
        let len = fs::metadata(seg)
            .unwrap_or_else(|e| panic!("cold segment {} is gone: {e}", seg.display()))
            .len();
        assert!(len >= *cold_len, "{} shrank", seg.display());
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_reader_sees_flushed_prefix_while_writer_is_live() {
    let dir = tmp_dir("reader");
    let writer = AnswerStore::open(&dir).expect("writer opens");
    let (_, _, _) = {
        // populate through a second cache-less route: reuse the writer
        let entries_src = tmp_dir("reader-src");
        let out = eval_with_store(&entries_src, StoreConfig::default(), Telemetry::disabled());
        for (key, answer) in AnswerStore::open(&entries_src)
            .expect("source reopens")
            .entries()
        {
            writer.insert(key, answer);
        }
        let _ = fs::remove_dir_all(&entries_src);
        out
    };
    writer.flush().expect("flushes");

    // a second open beside the live writer sees every flushed record
    let reader = AnswerStore::open(&dir).expect("reader opens");
    assert_eq!(reader.len(), writer.len());
    for (key, answer) in reader.entries() {
        assert_eq!(writer.lookup(&key), Some(answer));
    }
    drop(writer);
    let _ = fs::remove_dir_all(&dir);
}

/// A directory written in format v1 (JSON payloads under the magic
/// `0xC51A_D0C5`) is refused by every open, and nothing in it is
/// touched.
#[test]
fn a_v1_store_is_refused_and_left_untouched() {
    let dir = tmp_dir("v1");
    fs::create_dir_all(&dir).expect("mkdir");
    let key = CacheKey {
        model_fingerprint: 0x1122_3344_5566_7788,
        question_id: "digital-042".to_string(),
        prompt_hash: 0xCAFE_BABE_1234_5678,
        downsample: 1,
        attempt: 0,
        dataset_fingerprint: 0,
    };
    let answer = CachedAnswer {
        text: "(b)".to_string(),
        path: AnswerPath::Solved,
        solve_probability: 0.5,
    };
    // a v1 record: today's framing around a JSON {key, answer} payload
    let payload = format!(
        r#"{{"key":{},"answer":{}}}"#,
        serde_json::to_string(&key).expect("key serializes"),
        serde_json::to_string(&answer).expect("answer serializes")
    );
    let mut segment = Vec::new();
    segment.extend_from_slice(&0xC51A_D0C5u32.to_le_bytes());
    segment.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    segment.extend_from_slice(&key.content_hash().to_le_bytes());
    segment.extend_from_slice(&fnv1a64(payload.as_bytes()).to_le_bytes());
    segment.extend_from_slice(payload.as_bytes());
    let seg = dir.join("seg-00000001.log");
    fs::write(&seg, &segment).expect("plants the v1 segment");
    let meta = r#"{"format_version":1,"lifetime_hits":0,"lifetime_misses":1,"lifetime_inserts":1}"#;
    fs::write(dir.join("meta.json"), meta).expect("plants the v1 meta");

    let refused = |what: &str, opened: std::io::Result<AnswerStore>| {
        let err = opened.expect_err(what);
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{what}: {err}");
        let message = err.to_string();
        assert!(
            message.contains("format v1") && message.contains("delete the directory"),
            "{what}: {message}"
        );
    };
    let tele = Telemetry::recording();
    refused(
        "open",
        AnswerStore::open_with_telemetry(&dir, StoreConfig::default(), tele.clone()),
    );

    // a segment that starts with a v1 record is refused without the meta
    fs::remove_file(dir.join("meta.json")).expect("drops the meta");
    refused(
        "open, no meta",
        AnswerStore::open_with_telemetry(&dir, StoreConfig::default(), tele.clone()),
    );

    assert_eq!(fs::read(&seg).expect("segment still there"), segment);
    let mut names: Vec<String> = fs::read_dir(&dir)
        .expect("lists")
        .map(|entry| {
            entry
                .expect("entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    names.sort();
    assert_eq!(
        names,
        ["seg-00000001.log"],
        "no segment, lock or meta left behind"
    );
    assert!(
        !tele.snapshot().counters.contains_key("store.recovered"),
        "a refusal is not a recovery"
    );
    let _ = fs::remove_dir_all(&dir);
}

/// What the run after damage to `victim` must leave behind: the victim
/// byte for byte as the damage left it (a tear is skipped, never
/// truncated), every other segment clean, and a store from which a
/// further warm run converges to `reference` with no miss and no insert.
fn recovered_around(
    dir: &Path,
    victim: &Path,
    damaged: &[u8],
    reference: &str,
) -> Result<(), TestCaseError> {
    prop_assert!(
        fs::read(victim).expect("victim reads") == damaged,
        "the recovering run changed the victim {}",
        victim.display()
    );
    for seg in AnswerStore::open(dir).expect("reopens").segment_paths() {
        if seg != victim {
            let (_, scan) = decode_segment(&seg).expect("decodes");
            prop_assert_eq!(scan.dropped_bytes, 0, "{} scans clean", seg.display());
        }
    }
    let (report, cache, store) =
        eval_with_store(dir, StoreConfig::default(), Telemetry::disabled());
    prop_assert_eq!(
        report_bytes(report),
        reference,
        "the further warm run converges"
    );
    prop_assert_eq!(
        (cache.misses, store.inserts),
        (0, 0),
        "the further warm run is all hits"
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Any truncation point in any segment recovers to cold bytes: the
    /// torn tail is skipped in place on open and re-inferred during the
    /// run.
    #[test]
    fn seeded_truncations_recover_to_cold_bytes(
        seed in 0u64..1_000_000,
        cut in 0.0f64..1.0,
    ) {
        let reference = report_bytes(cold_reference());
        let dir = tmp_dir("trunc");
        let (_, _, populated) =
            eval_with_store(&dir, StoreConfig { segment_max_bytes: 16 << 10 }, Telemetry::disabled());
        prop_assert!(populated.inserts > 0);

        // pick a segment and a byte offset from the seeds
        let segments = AnswerStore::open(&dir).expect("reader").segment_paths();
        prop_assert!(!segments.is_empty());
        let victim = &segments[((seed ^ chaos_seed()) % segments.len() as u64) as usize];
        let len = fs::metadata(victim).expect("victim exists").len();
        let keep = (len as f64 * cut) as u64;
        OpenOptions::new()
            .write(true)
            .open(victim)
            .expect("victim writable")
            .set_len(keep)
            .expect("truncates");
        let damaged = fs::read(victim).expect("victim reads");

        let tele = Telemetry::recording();
        let (report, _, stats) = eval_with_store(&dir, StoreConfig::default(), tele.clone());
        prop_assert_eq!(report_bytes(report), reference.as_str(), "truncated store converges");
        if keep < len && stats.recovered_segments > 0 {
            // a mid-record cut is skipped and reported
            prop_assert!(stats.recovered_bytes > 0);
            prop_assert!(tele.snapshot().counters.contains_key("store.recovered"));
        }
        recovered_around(&dir, victim, &damaged, &reference)?;
        let _ = fs::remove_dir_all(&dir);
    }

    /// Any single flipped bit is detected by the record checksums and
    /// the store still converges to cold bytes.
    #[test]
    fn seeded_bit_flips_recover_to_cold_bytes(
        seed in 0u64..1_000_000,
        bit in 0u8..8,
    ) {
        let reference = report_bytes(cold_reference());
        let dir = tmp_dir("flip");
        eval_with_store(&dir, StoreConfig { segment_max_bytes: 16 << 10 }, Telemetry::disabled());

        let segments = AnswerStore::open(&dir).expect("reader").segment_paths();
        let victim = &segments[((seed ^ chaos_seed()) % segments.len() as u64) as usize];
        let mut bytes = fs::read(victim).expect("victim reads");
        prop_assert!(!bytes.is_empty());
        let pos = ((seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)) % bytes.len() as u64) as usize;
        bytes[pos] ^= 1 << bit;
        fs::write(victim, &bytes).expect("victim writes");

        let (report, _, _) = eval_with_store(&dir, StoreConfig::default(), Telemetry::disabled());
        prop_assert_eq!(report_bytes(report), reference.as_str(), "bit-flipped store converges");
        recovered_around(&dir, victim, &bytes, &reference)?;
        let _ = fs::remove_dir_all(&dir);
    }
}
