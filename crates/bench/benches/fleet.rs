//! Fleet-execution benches: the coordination overhead of running a
//! grid through the lease protocol versus evaluating it directly, plus
//! the micro costs of the protocol itself (claim/release round-trips,
//! merge of a committed fleet directory).
//!
//! Run with `CRITERION_JSON=BENCH_fleet.json cargo bench --bench fleet`
//! to export the machine-readable summary CI tracks as the perf
//! trajectory.

use std::hint::black_box;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};

use chipvqa_core::DatasetSpec;
use chipvqa_eval::executor::SHARD_SIZE;
use chipvqa_eval::fleet::{self, FleetConfig, FleetJob};
use chipvqa_eval::harness::EvalOptions;
use chipvqa_eval::{ParallelExecutor, RuleJudge};
use chipvqa_models::{ModelZoo, VlmPipeline};
use chipvqa_telemetry::Telemetry;

fn fresh_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "chipvqa-fleet-bench-{tag}-{}-{n}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn grid() -> (Vec<VlmPipeline>, DatasetSpec) {
    (
        vec![
            VlmPipeline::new(ModelZoo::gpt4o()),
            VlmPipeline::new(ModelZoo::fuyu_8b()),
        ],
        DatasetSpec::default(),
    )
}

fn quick_config() -> FleetConfig {
    FleetConfig {
        heartbeat_interval: Duration::from_millis(50),
        idle_backoff: Duration::from_millis(1),
        ..FleetConfig::default()
    }
}

/// The coordination tax: one worker driving the whole grid through
/// lease files versus the same executor evaluating the grid directly.
fn bench_fleet_vs_direct(c: &mut Criterion) {
    let (pipes, spec) = grid();
    let exec = ParallelExecutor::new(4);
    let mut group = c.benchmark_group("fleet_grid");
    group.sample_size(10);

    group.bench_function("direct_grid", |b| {
        b.iter(|| {
            let options = EvalOptions::default();
            black_box(exec.evaluate_table2(&pipes, &spec, SHARD_SIZE, options, &RuleJudge::new()))
        })
    });

    group.bench_function("one_worker_fleet", |b| {
        b.iter(|| {
            let dir = fresh_dir("solo");
            let job = FleetJob {
                pipes: &pipes,
                spec: &spec,
                options: EvalOptions::default(),
            };
            let out = fleet::run_worker(&dir, &exec, &job, &RuleJudge::new(), &quick_config())
                .expect("worker runs");
            let _ = std::fs::remove_dir_all(&dir);
            black_box(out)
        })
    });

    group.finish();
}

/// Merge cost over a fully committed fleet directory — the fold a
/// driver pays once per run, after the workers are done.
fn bench_merge(c: &mut Criterion) {
    let (pipes, spec) = grid();
    let exec = ParallelExecutor::new(4);
    let dir = fresh_dir("merge");
    let job = FleetJob {
        pipes: &pipes,
        spec: &spec,
        options: EvalOptions::default(),
    };
    fleet::run_worker(&dir, &exec, &job, &RuleJudge::new(), &quick_config())
        .expect("fleet completes");

    let mut group = c.benchmark_group("fleet_merge");
    group.sample_size(10);
    group.bench_function("merge_committed_fleet", |b| {
        b.iter(|| black_box(fleet::merge(&dir, &job, &Telemetry::disabled()).expect("merges")))
    });
    group.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group!(benches, bench_fleet_vs_direct, bench_merge);
criterion_main!(benches);
