//! T-stream-chaos: the streamed-vs-batch differential chaos wall.
//!
//! Supervised (chaos) execution on the streaming intake path must be a
//! pure re-scheduling of supervised batch execution: the windowed
//! breaker's decisions are a function of (plan seed, model fingerprint,
//! question position, attempt), never of shard length or worker
//! scheduling. These properties pin that contract end-to-end:
//!
//! 1. for **any** seeded plan, any spec, any worker count in {1, 2, 8}
//!    and any shard length in {1, 17, 142}, the supervised streamed
//!    report serializes byte-identically to the supervised batch report
//!    over the materialized bench;
//! 2. the **zero** plan makes supervision free on the streaming path:
//!    a zero-plan supervised stream is byte-identical to an
//!    unsupervised stream (and quarantines nothing);
//! 3. streamed coverage accounting closes (answered + failed +
//!    breaker-skipped = N) and panic-quarantined shards heal through
//!    [`Checkpoint::requeue_quarantined`] and a calm resume over the
//!    spec to the clean bytes;
//! 4. the run's `stream.*` peak gauges and cache lifetime gauges are
//!    emitted even when a panic storm unwinds workers mid-run — the
//!    drop-guards fire on every exit path.
//!
//! `CHIPVQA_CHAOS_SEED` (the CI `stream-chaos` matrix) perturbs the
//! injected plans without touching the proptest case generator.

use std::sync::Arc;

use chipvqa::core::DatasetSpec;
use chipvqa::eval::executor::ShardSource;
use chipvqa::eval::fault::install_quiet_panic_hook;
use chipvqa::eval::harness::{EvalOptions, EvalReport};
use chipvqa::eval::supervisor::EvalError;
use chipvqa::eval::{AnswerCache, Checkpoint, FaultPlan, ParallelExecutor, RuleJudge, Supervisor};
use chipvqa::models::{ModelZoo, VlmPipeline};
use chipvqa::telemetry::{MemorySink, Telemetry};
use proptest::prelude::*;

/// CI chaos-matrix seed; defaults to a fixed value locally.
fn chaos_seed() -> u64 {
    std::env::var("CHIPVQA_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(20_260_806)
}

fn json(report: &EvalReport) -> String {
    serde_json::to_string(report).expect("report serializes")
}

/// The shard lengths every property sweeps: degenerate one-question
/// shards, a length coprime to the 16-question breaker window, and the
/// full base collection in one shard.
const SHARD_LENS: [usize; 3] = [1, 17, 142];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Property 1: supervised streaming is a re-scheduling of
    /// supervised batch — same storm, same bytes, for every worker
    /// count × shard length combination.
    #[test]
    fn supervised_streaming_is_byte_identical_to_supervised_batch(
        seed in 0u64..1_000_000,
        rate in 0.005f64..0.05,
        scale in 1usize..3,
        spec_seed in 0u64..1_000,
    ) {
        install_quiet_panic_hook();
        let spec = DatasetSpec::scaled(scale).with_seed(spec_seed);
        let plan = FaultPlan::uniform(seed ^ chaos_seed(), rate);
        let pipe = VlmPipeline::new(ModelZoo::llava_34b());
        let batch = ParallelExecutor::new(2)
            .with_supervisor(Supervisor::new(plan.clone()))
            .evaluate(&pipe, &spec.build(), EvalOptions::default());
        let reference = json(&batch);
        for workers in [1usize, 2, 8] {
            for shard_len in SHARD_LENS {
                let exec = ParallelExecutor::new(workers)
                    .with_supervisor(Supervisor::new(plan.clone()));
                let (streamed, _) =
                    exec.evaluate_spec_stream(&pipe, &spec, shard_len, EvalOptions::default());
                prop_assert_eq!(
                    &reference,
                    &json(&streamed),
                    "streamed ({} workers, shard_len {}) diverged from batch",
                    workers,
                    shard_len
                );
            }
        }
    }

    /// Property 2: the zero plan makes supervision free on the
    /// streaming path, exactly as it already is on the batch path.
    #[test]
    fn zero_plan_supervised_streaming_matches_unsupervised_streaming(
        scale in 1usize..3,
        spec_seed in 0u64..1_000,
        workers_idx in 0usize..3,
        shard_idx in 0usize..3,
    ) {
        let workers = [1usize, 2, 8][workers_idx];
        let shard_len = SHARD_LENS[shard_idx];
        let spec = DatasetSpec::scaled(scale).with_seed(spec_seed);
        let pipe = VlmPipeline::new(ModelZoo::phi3_vision());
        let (plain, plain_stats) = ParallelExecutor::new(workers)
            .evaluate_spec_stream(&pipe, &spec, shard_len, EvalOptions::default());
        let (supervised, stats) = ParallelExecutor::new(workers)
            .with_supervisor(Supervisor::new(FaultPlan::none()))
            .evaluate_spec_stream(&pipe, &spec, shard_len, EvalOptions::default());
        prop_assert_eq!(&json(&plain), &json(&supervised));
        prop_assert!(!supervised.is_degraded());
        prop_assert_eq!(stats.quarantined_shards, 0);
        prop_assert_eq!(plain_stats.quarantined_shards, 0);
    }

    /// Property 3 (accounting half): streamed supervised coverage
    /// accounting closes for every shard length and worker count.
    #[test]
    fn streamed_accounting_always_sums_to_spec_total(
        seed in 0u64..1_000_000,
        rate in 0.02f64..0.12,
        scale in 1usize..3,
        shard_idx in 0usize..3,
    ) {
        let shard_len = SHARD_LENS[shard_idx];
        install_quiet_panic_hook();
        let spec = DatasetSpec::scaled(scale);
        let plan = FaultPlan::uniform(seed ^ chaos_seed(), rate / 6.0);
        let exec = ParallelExecutor::new(4).with_supervisor(Supervisor::new(plan));
        let pipe = VlmPipeline::new(ModelZoo::paligemma());
        let (report, _) = exec.evaluate_spec_stream(&pipe, &spec, shard_len, EvalOptions::default());
        prop_assert_eq!(
            report.answered() + report.failed() + report.breaker_skipped(),
            spec.total(),
            "streamed run does not account for every question"
        );
        let by_cat = report.category_accounting();
        let total: usize = by_cat.values().map(|(a, f, s)| a + f + s).sum();
        prop_assert_eq!(total, spec.total(), "streamed category accounting leaks");
    }
}

#[test]
fn broken_model_is_shed_on_the_streaming_path_too() {
    // The windowed breaker re-closes at every 16-question window
    // boundary, so a fully broken model is probed a bounded number of
    // times per window and shed for the rest — never silently scored.
    install_quiet_panic_hook();
    let spec = DatasetSpec::scaled(1);
    let pipe = VlmPipeline::new(ModelZoo::paligemma());
    let plan = FaultPlan::none().with_broken_model(pipe.fingerprint());
    let exec = ParallelExecutor::new(4).with_supervisor(Supervisor::new(plan.clone()));
    let (streamed, _) = exec.evaluate_spec_stream(&pipe, &spec, 17, EvalOptions::default());
    assert_eq!(streamed.answered(), 0, "a broken model must not score");
    assert!(streamed.breaker_skipped() > 0, "the breaker must shed");
    assert_eq!(
        streamed.answered() + streamed.failed() + streamed.breaker_skipped(),
        spec.total()
    );
    // and identically to batch
    let batch = ParallelExecutor::new(4)
        .with_supervisor(Supervisor::new(plan))
        .evaluate(&pipe, &spec.build(), EvalOptions::default());
    assert_eq!(json(&batch), json(&streamed));
}

#[test]
fn streamed_panic_quarantine_heals_by_requeue_to_clean_bytes() {
    // Property 3 (healing half): a panic storm quarantines shards of a
    // checkpoint over the streamed spec; requeueing them and resuming
    // calmly re-runs just those shards and converges the report to the
    // clean bytes an unfaulted run produces.
    install_quiet_panic_hook();
    let spec = DatasetSpec::scaled(2);
    let shard_len = 17;
    let pipes = [VlmPipeline::new(ModelZoo::neva_22b())];
    let (clean, _) = ParallelExecutor::new(4).evaluate_spec_stream(
        &pipes[0],
        &spec,
        shard_len,
        EvalOptions::default(),
    );

    let plan = FaultPlan {
        panic_rate: 0.08,
        ..FaultPlan::none()
    };
    let stormy = ParallelExecutor::new(4).with_supervisor(Supervisor::new(plan));
    let source = ShardSource::Spec(&spec, shard_len);
    let options = EvalOptions::default();
    let mut ckpt = Checkpoint::for_source(&pipes, source, options);
    let resume = |exec: &ParallelExecutor, ckpt: &mut Checkpoint| {
        exec.evaluate_checkpointed(
            &pipes,
            source,
            options,
            &RuleJudge::new(),
            ckpt,
            &mut |_| false,
        )
        .expect("compatible checkpoint")
        .expect("runs to completion")
        .remove(0)
    };
    let report = resume(&stormy, &mut ckpt);
    let quarantined = report
        .outcomes
        .chunks(shard_len)
        .filter(|shard| {
            shard
                .iter()
                .any(|o| o.error == Some(EvalError::WorkerPanic))
        })
        .count();
    assert!(quarantined > 0, "the storm must hit something");
    assert!(report.is_degraded());

    let healed = ckpt.requeue_quarantined();
    assert_eq!(healed, quarantined);
    let report = resume(&stormy.unsupervised(), &mut ckpt);
    assert_eq!(
        json(&clean),
        json(&report),
        "requeued shards heal the streamed report to clean bytes"
    );
    assert!(!report.is_degraded());

    // healing is idempotent: a clean run has nothing to requeue
    assert_eq!(ckpt.requeue_quarantined(), 0);
}

#[test]
fn stream_gauges_are_emitted_even_when_a_panic_storm_hits_workers() {
    // Satellite regression: the `stream.*` peak gauges and the cache's
    // lifetime counters ride drop-guards, so a run whose workers panic
    // (caught and accounted as WorkerPanic) still reports them.
    install_quiet_panic_hook();
    let sink = Arc::new(MemorySink::new());
    let tele = Telemetry::builder().sink(Arc::clone(&sink)).build();
    let cache = Arc::new(AnswerCache::new());
    let spec = DatasetSpec::scaled(1);
    let plan = FaultPlan {
        panic_rate: 0.1,
        ..FaultPlan::none()
    };
    let exec = ParallelExecutor::new(4)
        .with_supervisor(Supervisor::new(plan))
        .with_cache(Arc::clone(&cache))
        .with_telemetry(tele.clone());
    let (report, stats) = exec.evaluate_spec_stream(&pipe(), &spec, 17, EvalOptions::default());
    assert!(
        stats.quarantined_shards > 0,
        "the storm must panic at least one worker"
    );
    assert!(report.is_degraded());
    let snap = tele.snapshot();
    assert!(
        snap.gauges["stream.peak_in_flight"] >= 1.0,
        "peak-in-flight gauge must survive worker panics"
    );
    assert!(
        snap.gauges["stream.peak_resident"] >= 1.0,
        "generator peak-resident gauge must survive worker panics"
    );
    let cache_stats = cache.stats();
    assert_eq!(
        snap.gauges["cache.lifetime_hits"],
        cache_stats.lifetime_hits as f64
    );
    assert_eq!(
        snap.gauges["cache.lifetime_misses"],
        cache_stats.lifetime_misses as f64
    );
    assert!(
        snap.counters.contains_key("executor.panic_caught"),
        "caught panics are counted"
    );
}

fn pipe() -> VlmPipeline {
    VlmPipeline::new(ModelZoo::neva_22b())
}
