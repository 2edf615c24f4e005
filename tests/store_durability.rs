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
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use chipvqa::core::{ChipVqa, DatasetSpec, BASE_SIZE};
use chipvqa::eval::harness::{EvalOptions, EvalReport};
use chipvqa::eval::store::{decode_segment, AnswerStore, StoreConfig, StoreStats};
use chipvqa::eval::{AnswerCache, CacheStats, ParallelExecutor};
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

    // run-spanning accounting (the counter that used to reset between
    // runs): the warm run's lifetime view includes the cold run's
    // traffic, surfaced on EvalReport.cache_stats
    assert_eq!(
        warm_cache.lifetime_misses, cold_store.lifetime_misses,
        "a fully warm run adds no lifetime misses"
    );
    assert!(
        warm_cache.lifetime_hits >= inserted,
        "lifetime hits span both runs"
    );
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

#[test]
fn kill_mid_append_breaks_lock_and_converges() {
    let reference = report_bytes(cold_reference());

    // harvest the real answers once
    let source_dir = tmp_dir("kill-src");
    let (_, _, _) = eval_with_store(&source_dir, StoreConfig::default(), Telemetry::disabled());
    let entries = AnswerStore::open_read_only(&source_dir)
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
    assert!(dir.join("store.lock").exists(), "kill leaves the lock file");

    // next run: stale lock broken, tail recovered, missing answers
    // re-inferred — same bytes as the cold reference
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
    let cold_segments: Vec<(PathBuf, u64)> = AnswerStore::open_read_only(&dir)
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
    let records: usize = AnswerStore::open_read_only(&dir)
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
fn concurrent_reader_sees_flushed_prefix_while_writer_holds_the_lock() {
    let dir = tmp_dir("reader");
    let writer = AnswerStore::open(&dir).expect("writer opens");
    let (_, _, _) = {
        // populate through a second cache-less route: reuse the writer
        let entries_src = tmp_dir("reader-src");
        let out = eval_with_store(&entries_src, StoreConfig::default(), Telemetry::disabled());
        for (key, answer) in AnswerStore::open_read_only(&entries_src)
            .expect("source reopens")
            .entries()
        {
            writer.insert(key, answer);
        }
        let _ = fs::remove_dir_all(&entries_src);
        out
    };
    writer.flush().expect("flushes");

    // a second writer is refused while the first is live …
    let refused = AnswerStore::open(&dir).expect_err("second writer refused");
    assert_eq!(refused.kind(), std::io::ErrorKind::WouldBlock);

    // … but a read-only open works and sees every flushed record
    let reader = AnswerStore::open_read_only(&dir).expect("reader opens");
    assert_eq!(reader.len(), writer.len());
    for (key, answer) in reader.entries() {
        assert_eq!(writer.lookup(&key), Some(answer));
    }
    drop(writer);
    let _ = fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Any truncation point in any segment recovers to cold bytes: the
    /// torn tail is dropped on open and re-inferred during the run.
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
        let segments = AnswerStore::open_read_only(&dir).expect("reader").segment_paths();
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

        let tele = Telemetry::recording();
        let (report, _, stats) = eval_with_store(&dir, StoreConfig::default(), tele.clone());
        prop_assert_eq!(report_bytes(report), reference, "truncated store converges");
        if keep < len && stats.recovered_segments > 0 {
            // a mid-record cut is repaired and reported
            prop_assert!(stats.recovered_bytes > 0);
            prop_assert!(tele.snapshot().counters.contains_key("store.recovered"));
        }
        // the repaired segments replay cleanly on the next open
        for seg in AnswerStore::open_read_only(&dir).expect("reader").segment_paths() {
            let (_, scan) = decode_segment(&seg).expect("decodes");
            prop_assert_eq!(scan.dropped_bytes, 0, "no residual damage");
        }
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

        let segments = AnswerStore::open_read_only(&dir).expect("reader").segment_paths();
        let victim = &segments[((seed ^ chaos_seed()) % segments.len() as u64) as usize];
        let mut bytes = fs::read(victim).expect("victim reads");
        prop_assert!(!bytes.is_empty());
        let pos = ((seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)) % bytes.len() as u64) as usize;
        bytes[pos] ^= 1 << bit;
        fs::write(victim, &bytes).expect("victim writes");

        let (report, _, _) = eval_with_store(&dir, StoreConfig::default(), Telemetry::disabled());
        prop_assert_eq!(report_bytes(report), reference, "bit-flipped store converges");
        for seg in AnswerStore::open_read_only(&dir).expect("reader").segment_paths() {
            let (_, scan) = decode_segment(&seg).expect("decodes");
            prop_assert_eq!(scan.dropped_bytes, 0, "no residual damage");
        }
        let _ = fs::remove_dir_all(&dir);
    }
}
