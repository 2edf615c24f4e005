//! Persistent answer-store benches: the cold-vs-warm evaluation gap the
//! store exists to create, plus the micro costs that bound it (append,
//! lookup, replay-on-open).
//!
//! Run with `CRITERION_JSON=BENCH_store.json cargo bench --bench store`
//! to export the machine-readable summary CI tracks as the perf
//! trajectory.

use std::hint::black_box;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};

use chipvqa_core::ChipVqa;
use chipvqa_eval::harness::EvalOptions;
use chipvqa_eval::store::AnswerStore;
use chipvqa_eval::{AnswerCache, CacheKey, CachedAnswer, ParallelExecutor};
use chipvqa_models::backbone::AnswerPath;
use chipvqa_models::{ModelZoo, VlmPipeline};

fn fresh_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "chipvqa-store-bench-{tag}-{}-{n}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn key(i: u64) -> CacheKey {
    CacheKey {
        model_fingerprint: 0xbe5c ^ (i % 12),
        question_id: format!("digital-{i:05}"),
        prompt_hash: i.wrapping_mul(0x9e37_79b9_7f4a_7c15),
        downsample: 1,
        attempt: 0,
        dataset_fingerprint: 42,
    }
}

fn answer(i: u64) -> CachedAnswer {
    CachedAnswer {
        text: format!("the net toggles at cycle {i} because the enable gate masks clk"),
        path: AnswerPath::Solved,
        solve_probability: 0.3,
    }
}

/// Cold vs warm full evaluation of the standard 142-question bench —
/// the headline number: a warm run replays disk answers instead of
/// running inference.
fn bench_cold_vs_warm_eval(c: &mut Criterion) {
    let pipe = VlmPipeline::new(ModelZoo::gpt4o());
    let bench = ChipVqa::standard();
    let mut group = c.benchmark_group("store_eval");
    group.sample_size(10);

    group.bench_function("cold", |b| {
        b.iter(|| {
            let dir = fresh_dir("cold");
            let store = Arc::new(AnswerStore::open(&dir).expect("store opens"));
            let cache = Arc::new(AnswerCache::new().with_store(store));
            let exec = ParallelExecutor::new(4).with_cache(cache);
            let report = exec.evaluate(&pipe, &bench, EvalOptions::default());
            let _ = std::fs::remove_dir_all(&dir);
            black_box(report)
        })
    });

    // populate once; each warm iteration reopens like a fresh process
    let warm_dir = fresh_dir("warm");
    {
        let store = Arc::new(AnswerStore::open(&warm_dir).expect("store opens"));
        let cache = Arc::new(AnswerCache::new().with_store(store));
        let exec = ParallelExecutor::new(4).with_cache(cache);
        black_box(exec.evaluate(&pipe, &bench, EvalOptions::default()));
    }
    group.bench_function("warm_restart", |b| {
        b.iter(|| {
            let store = Arc::new(AnswerStore::open(&warm_dir).expect("store reopens"));
            let cache = Arc::new(AnswerCache::new().with_store(store));
            let exec = ParallelExecutor::new(4).with_cache(cache);
            black_box(exec.evaluate(&pipe, &bench, EvalOptions::default()))
        })
    });
    group.finish();
    let _ = std::fs::remove_dir_all(&warm_dir);
}

/// Micro costs: append and lookup throughput and replay-on-open.
fn bench_store_micro(c: &mut Criterion) {
    let mut group = c.benchmark_group("store_micro");
    group.sample_size(10);

    group.bench_function("insert_1k", |b| {
        b.iter(|| {
            let dir = fresh_dir("insert");
            let store = AnswerStore::open(&dir).expect("store opens");
            for i in 0..1_000u64 {
                store.insert(key(i), answer(i));
            }
            store.flush().expect("flushes");
            drop(store);
            let _ = std::fs::remove_dir_all(&dir);
        })
    });

    let lookup_dir = fresh_dir("lookup");
    let lookup_store = AnswerStore::open(&lookup_dir).expect("store opens");
    for i in 0..1_000u64 {
        lookup_store.insert(key(i), answer(i));
    }
    group.bench_function("lookup_1k", |b| {
        b.iter(|| {
            let mut found = 0usize;
            for i in 0..1_000u64 {
                found += usize::from(lookup_store.lookup(&key(i)).is_some());
            }
            black_box(found)
        })
    });

    let replay_dir = fresh_dir("replay");
    {
        let store = AnswerStore::open(&replay_dir).expect("store opens");
        for i in 0..1_000u64 {
            store.insert(key(i), answer(i));
        }
    }
    group.bench_function("replay_open_1k", |b| {
        b.iter(|| black_box(AnswerStore::open(&replay_dir).expect("store reopens").len()))
    });

    group.finish();
    drop(lookup_store);
    let _ = std::fs::remove_dir_all(&lookup_dir);
}

criterion_group!(benches, bench_cold_vs_warm_eval, bench_store_micro);
criterion_main!(benches);
