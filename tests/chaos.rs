//! T-chaos: supervised execution under seeded fault injection.
//!
//! Three properties from the robustness issue, checked end-to-end:
//!
//! 1. the **all-zero** [`FaultPlan`] reproduces today's clean reports
//!    byte-for-byte for every zoo model (supervision is free when
//!    nothing fails);
//! 2. **any** seeded plan yields identical reports for 1, 2 and 8
//!    workers (fault draws are keyed on call identity, never on
//!    scheduling);
//! 3. coverage accounting always closes: answered + failed +
//!    breaker-skipped = N for every model, at the standard N = 142 and
//!    on [`DatasetSpec`]-scaled collections.
//!
//! `CHIPVQA_CHAOS_SEED` (used by the CI chaos matrix) perturbs the
//! injected plans without touching the proptest case generator, so each
//! CI seed explores a different storm while staying reproducible.

use chipvqa::core::{ChipVqa, DatasetSpec};
use chipvqa::eval::executor::ShardSource;
use chipvqa::eval::fault::{install_quiet_panic_hook, is_corrupted_text};
use chipvqa::eval::harness::{evaluate, EvalOptions};
use chipvqa::eval::store::{decode_segment, AnswerStore};
use chipvqa::eval::supervisor::EvalError;
use chipvqa::eval::{AnswerCache, Checkpoint, FaultPlan, ParallelExecutor, RuleJudge, Supervisor};
use chipvqa::models::{ModelZoo, VlmPipeline};
use proptest::prelude::*;
use std::sync::Arc;

/// CI chaos-matrix seed; defaults to a fixed value locally.
fn chaos_seed() -> u64 {
    std::env::var("CHIPVQA_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(20_260_806)
}

#[test]
fn zero_fault_plan_is_byte_identical_for_all_zoo_models() {
    let bench = ChipVqa::standard();
    for profile in ModelZoo::all() {
        let pipe = VlmPipeline::new(profile);
        let clean = evaluate(&pipe, &bench, EvalOptions::default());
        let supervised = ParallelExecutor::new(4)
            .with_supervisor(Supervisor::new(FaultPlan::none()))
            .evaluate(&pipe, &bench, EvalOptions::default());
        assert_eq!(clean, supervised, "{}", pipe.profile().name);
        assert_eq!(
            serde_json::to_string(&clean).expect("serialize"),
            serde_json::to_string(&supervised).expect("serialize"),
            "{}: supervised zero-fault run must serialize byte-identically",
            pipe.profile().name
        );
        assert!(!supervised.is_degraded());
        assert_eq!(supervised.answered(), bench.len());
        assert_eq!(supervised.failed() + supervised.breaker_skipped(), 0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Property 2: the same storm hits the same calls no matter how the
    /// questions are scheduled across workers.
    #[test]
    fn seeded_plans_are_worker_count_invariant(
        seed in 0u64..1_000_000,
        rate in 0.005f64..0.05,
    ) {
        install_quiet_panic_hook();
        let bench = ChipVqa::standard();
        let pipe = VlmPipeline::new(ModelZoo::llava_34b());
        let plan = FaultPlan::uniform(seed ^ chaos_seed(), rate);
        let run = |workers: usize| {
            ParallelExecutor::new(workers)
                .with_supervisor(Supervisor::new(plan.clone()))
                .evaluate(&pipe, &bench, EvalOptions::default())
        };
        let reference = run(1);
        for workers in [2usize, 8] {
            let par = run(workers);
            prop_assert_eq!(&reference, &par, "workers = {}", workers);
        }
        prop_assert_eq!(
            reference.answered() + reference.failed() + reference.breaker_skipped(),
            bench.len()
        );
    }

    /// Property 3: accounting closes under heavier storms, including a
    /// fully broken backend, per model *and* per category. The
    /// invariant is sum-to-N, not sum-to-142: a scaled collection must
    /// account for every one of its questions the same way.
    #[test]
    fn accounting_always_sums_to_bench_len(
        seed in 0u64..1_000_000,
        rate in 0.02f64..0.12,
        scale in 1usize..3,
    ) {
        install_quiet_panic_hook();
        let bench = DatasetSpec::scaled(scale).build();
        prop_assert_eq!(bench.len(), scale * 142);
        let pipes: Vec<VlmPipeline> = [ModelZoo::phi3_vision(), ModelZoo::paligemma()]
            .into_iter()
            .map(VlmPipeline::new)
            .collect();
        let plan = FaultPlan::uniform(seed ^ chaos_seed(), rate / 6.0)
            .with_broken_model(pipes[1].fingerprint());
        let exec = ParallelExecutor::new(4).with_supervisor(Supervisor::new(plan));
        let reports = exec.evaluate_grid(&pipes, &bench, EvalOptions::default(), &RuleJudge::new());
        for report in &reports {
            prop_assert_eq!(
                report.answered() + report.failed() + report.breaker_skipped(),
                bench.len(),
                "{} does not account for every question",
                report.model
            );
            let by_cat = report.category_accounting();
            let total: usize = by_cat.values().map(|(a, f, s)| a + f + s).sum();
            prop_assert_eq!(total, bench.len(), "{} category accounting leaks", report.model);
        }
        // the broken model is shed, not silently scored
        prop_assert!(reports[1].breaker_skipped() > 0);
        prop_assert_eq!(reports[1].answered(), 0);
    }
}

#[test]
fn store_backed_storm_heals_and_never_persists_faulted_answers() {
    // The persistent tier under chaos: a supervised storm writing
    // through to an on-disk store must (1) keep every segment free of
    // corrupted answers — the fault markers must never reach disk —
    // and (2) heal: a calm warm-started run over the same store
    // converges to the clean report byte-for-byte, with the storm's
    // clean answers served from disk instead of re-inferred.
    install_quiet_panic_hook();
    let dir = std::env::temp_dir().join(format!(
        "chipvqa-chaos-store-{}-{}",
        std::process::id(),
        chaos_seed()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let bench = ChipVqa::standard();
    let pipe = VlmPipeline::new(ModelZoo::neva_22b());
    let clean = evaluate(&pipe, &bench, EvalOptions::default());

    // storm pass, write-behind to the store
    let plan = FaultPlan::uniform(chaos_seed(), 0.08);
    {
        let store = Arc::new(AnswerStore::open(&dir).expect("store opens"));
        let cache = Arc::new(AnswerCache::new().with_store(store));
        let stormy = ParallelExecutor::new(4)
            .with_supervisor(Supervisor::new(plan.clone()))
            .with_cache(cache);
        let degraded = stormy.evaluate(&pipe, &bench, EvalOptions::default());
        assert!(
            degraded.failed() + degraded.breaker_skipped() > 0 || degraded == clean,
            "either the storm hit something or the run is already clean"
        );
    }

    // every record of every segment carries a clean answer
    let reader = AnswerStore::open(&dir).expect("reader opens");
    let mut records = 0usize;
    for seg in reader.segment_paths() {
        let (decoded, _) = decode_segment(&seg).expect("segment decodes");
        for record in decoded {
            records += 1;
            assert!(
                !is_corrupted_text(&record.answer.text),
                "faulted answer persisted in {}: {:?}",
                seg.display(),
                record.answer.text
            );
        }
    }
    assert!(records > 0, "the storm still persisted its clean answers");
    drop(reader);

    // calm warm start over the same store heals to the clean report
    let store = Arc::new(AnswerStore::open(&dir).expect("store reopens"));
    let cache = Arc::new(AnswerCache::new().with_store(store));
    let calm = ParallelExecutor::new(4).with_cache(Arc::clone(&cache));
    let mut healed = calm.evaluate(&pipe, &bench, EvalOptions::default());
    assert_eq!(healed, clean, "persistence plus a calm pass heals");
    assert!(!healed.is_degraded());
    let stats = healed.cache_stats.take().expect("cache attached");
    assert!(
        stats.store_hits > 0,
        "the storm's clean answers warm-start the healing run"
    );
    assert_eq!(
        serde_json::to_string(&healed).expect("serialize"),
        serde_json::to_string(&clean).expect("serialize"),
        "healed report serializes byte-identically (modulo run metadata)"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn panic_quarantine_then_requeue_resumes_to_a_clean_report() {
    install_quiet_panic_hook();
    let bench = ChipVqa::standard();
    let pipes = vec![VlmPipeline::new(ModelZoo::neva_22b())];
    let options = EvalOptions::default();
    let clean = evaluate(&pipes[0], &bench, options);

    // storm pass: only panics, so every non-panicked outcome is clean
    let plan = FaultPlan {
        panic_rate: 0.08,
        ..FaultPlan::none()
    };
    let stormy = ParallelExecutor::new(4).with_supervisor(Supervisor::new(plan));
    let source = ShardSource::Bench(&bench, 0);
    let mut ckpt = Checkpoint::for_source(&pipes, source, options);
    let degraded = stormy
        .evaluate_checkpointed(
            &pipes,
            source,
            options,
            &RuleJudge::new(),
            &mut ckpt,
            &mut |_| false,
            &|_| {},
        )
        .expect("compatible checkpoint")
        .expect("no budget, runs to completion");
    let panicked = degraded[0]
        .outcomes
        .iter()
        .filter(|o| o.error == Some(EvalError::WorkerPanic))
        .count();
    assert!(panicked > 0, "the storm must hit something");
    assert!(ckpt.quarantined_shards() > 0, "panicked shards quarantined");

    // operator fixes the environment: requeue and resume without faults
    let requeued = ckpt.requeue_quarantined();
    assert!(requeued > 0);
    assert_eq!(ckpt.quarantined_shards(), 0);
    let calm = ParallelExecutor::new(4);
    let recovered = calm
        .evaluate_checkpointed(
            &pipes,
            source,
            options,
            &RuleJudge::new(),
            &mut ckpt,
            &mut |_| false,
            &|_| {},
        )
        .expect("compatible checkpoint")
        .expect("runs to completion");
    assert_eq!(recovered[0], clean, "requeued shards heal the report");
    assert!(!recovered[0].is_degraded());
}

#[test]
fn scaled_quarantine_and_requeue_heal_a_1420_question_storm() {
    // The quarantine/requeue cycle must work at scale, not just on the
    // 142-question standard bench: a panic storm over a 10×-scaled
    // collection is quarantined shard-by-shard, and a calm resume from
    // the spec-bound checkpoint heals to the clean report exactly.
    install_quiet_panic_hook();
    let spec = DatasetSpec::scaled(10);
    let bench = spec.build();
    assert_eq!(bench.len(), 1420);
    let pipes = vec![VlmPipeline::new(ModelZoo::neva_22b())];
    let options = EvalOptions::default();
    let clean = ParallelExecutor::new(4).evaluate(&pipes[0], &bench, options);

    let plan = FaultPlan {
        panic_rate: 0.02,
        ..FaultPlan::none()
    };
    let stormy = ParallelExecutor::new(4).with_supervisor(Supervisor::new(plan));
    let source = ShardSource::Bench(&bench, spec.fingerprint());
    let mut ckpt = Checkpoint::for_source(&pipes, source, options);
    ckpt.validate_source(&pipes, source, options)
        .expect("freshly taken checkpoint matches its own spec");
    let degraded = stormy
        .evaluate_checkpointed(
            &pipes,
            source,
            options,
            &RuleJudge::new(),
            &mut ckpt,
            &mut |_| false,
            &|_| {},
        )
        .expect("compatible checkpoint")
        .expect("no budget, runs to completion");
    let panicked = degraded[0]
        .outcomes
        .iter()
        .filter(|o| o.error == Some(EvalError::WorkerPanic))
        .count();
    assert!(panicked > 0, "the storm must hit something at N = 1420");
    assert!(ckpt.quarantined_shards() > 0, "panicked shards quarantined");
    assert_eq!(
        degraded[0].answered() + degraded[0].failed() + degraded[0].breaker_skipped(),
        bench.len(),
        "degraded accounting closes at scale"
    );

    // a checkpoint taken for this spec refuses to resume another one
    let other_spec = spec.clone().with_seed(spec.seed + 1);
    assert!(ckpt
        .validate_source(
            &pipes,
            ShardSource::Bench(&bench, other_spec.fingerprint()),
            options
        )
        .is_err());

    let requeued = ckpt.requeue_quarantined();
    assert!(requeued > 0);
    assert_eq!(ckpt.quarantined_shards(), 0);
    let recovered = ParallelExecutor::new(4)
        .evaluate_checkpointed(
            &pipes,
            source,
            options,
            &RuleJudge::new(),
            &mut ckpt,
            &mut |_| false,
            &|_| {},
        )
        .expect("compatible checkpoint")
        .expect("runs to completion");
    assert_eq!(
        recovered[0], clean,
        "requeued shards heal the scaled report"
    );
    assert!(!recovered[0].is_degraded());
}

#[test]
fn streamed_accounting_closes_at_scale_10() {
    // Property 3 on the streaming intake path at N = 1420: a supervised
    // streamed run over a 10×-scaled spec accounts for every question,
    // never materializing the collection.
    install_quiet_panic_hook();
    let spec = DatasetSpec::scaled(10);
    let plan = FaultPlan::uniform(chaos_seed(), 0.02);
    let exec = ParallelExecutor::new(4).with_supervisor(Supervisor::new(plan));
    let pipe = VlmPipeline::new(ModelZoo::phi3_vision());
    let (report, stats) = exec.evaluate_spec_stream(&pipe, &spec, 142, EvalOptions::default());
    assert_eq!(spec.total(), 1420);
    assert_eq!(
        report.answered() + report.failed() + report.breaker_skipped(),
        1420,
        "streamed accounting leaks at scale"
    );
    assert_eq!(stats.questions, 1420);
    let by_cat = report.category_accounting();
    let total: usize = by_cat.values().map(|(a, f, s)| a + f + s).sum();
    assert_eq!(total, 1420, "streamed category accounting leaks at scale");
}

#[test]
fn scaled_streamed_quarantine_and_requeue_heal_a_1420_question_storm() {
    // The streamed twin of the scaled checkpoint test above: a panic
    // storm on the streaming path quarantines shards in a checkpoint
    // over the spec, and the same requeue + calm resume re-derives
    // exactly those shards from the spec and heals the report to clean
    // bytes.
    install_quiet_panic_hook();
    let spec = DatasetSpec::scaled(10);
    let shard_len = 142;
    let options = EvalOptions::default();
    let pipes = [VlmPipeline::new(ModelZoo::neva_22b())];
    let (clean, _) =
        ParallelExecutor::new(4).evaluate_spec_stream(&pipes[0], &spec, shard_len, options);

    let plan = FaultPlan {
        panic_rate: 0.02,
        ..FaultPlan::none()
    };
    let stormy = ParallelExecutor::new(4).with_supervisor(Supervisor::new(plan));
    let source = ShardSource::Spec(&spec, shard_len);
    let mut ckpt = Checkpoint::for_source(&pipes, source, options);
    let resume = |exec: &ParallelExecutor, ckpt: &mut Checkpoint| {
        exec.evaluate_checkpointed(
            &pipes,
            source,
            options,
            &RuleJudge::new(),
            ckpt,
            &mut |_| false,
            &|_| {},
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
    assert!(quarantined > 0, "the storm must hit something at N = 1420");
    assert_eq!(
        report.answered() + report.failed() + report.breaker_skipped(),
        1420,
        "degraded streamed accounting closes at scale"
    );

    let healed = ckpt.requeue_quarantined();
    assert_eq!(healed, quarantined);
    let report = resume(&stormy.unsupervised(), &mut ckpt);
    assert_eq!(report, clean, "requeued shards heal the streamed report");
    assert!(!report.is_degraded());
}

#[test]
fn streamed_storm_never_persists_faulted_answers_and_heals_warm() {
    // The persistent tier under streamed chaos: a supervised streamed
    // storm writing through to an on-disk store must keep every segment
    // free of fault markers, and a calm warm streamed run over the same
    // store converges to the clean report byte-for-byte with the
    // storm's clean answers served from disk.
    install_quiet_panic_hook();
    let dir = std::env::temp_dir().join(format!(
        "chipvqa-stream-chaos-store-{}-{}",
        std::process::id(),
        chaos_seed()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let spec = DatasetSpec::scaled(2);
    let shard_len = 17;
    let options = EvalOptions::default();
    let pipe = VlmPipeline::new(ModelZoo::neva_22b());
    let (clean, _) =
        ParallelExecutor::new(4).evaluate_spec_stream(&pipe, &spec, shard_len, options);

    // streamed storm pass, write-behind to the store
    let plan = FaultPlan::uniform(chaos_seed(), 0.08);
    {
        let store = Arc::new(AnswerStore::open(&dir).expect("store opens"));
        let cache = Arc::new(AnswerCache::new().with_store(store));
        let stormy = ParallelExecutor::new(4)
            .with_supervisor(Supervisor::new(plan))
            .with_cache(cache);
        let (degraded, _) = stormy.evaluate_spec_stream(&pipe, &spec, shard_len, options);
        let mut degraded = degraded;
        degraded.cache_stats = None;
        assert!(
            degraded.failed() + degraded.breaker_skipped() > 0 || degraded == clean,
            "either the storm hit something or the run is already clean"
        );
    }

    // every record of every segment carries a clean answer
    let reader = AnswerStore::open(&dir).expect("reader opens");
    let mut records = 0usize;
    for seg in reader.segment_paths() {
        let (decoded, _) = decode_segment(&seg).expect("segment decodes");
        for record in decoded {
            records += 1;
            assert!(
                !is_corrupted_text(&record.answer.text),
                "faulted answer persisted via streaming in {}: {:?}",
                seg.display(),
                record.answer.text
            );
        }
    }
    assert!(
        records > 0,
        "the streamed storm still persisted its clean answers"
    );
    drop(reader);

    // calm warm streamed start over the same store heals to clean bytes
    let store = Arc::new(AnswerStore::open(&dir).expect("store reopens"));
    let cache = Arc::new(AnswerCache::new().with_store(store));
    let calm = ParallelExecutor::new(4).with_cache(Arc::clone(&cache));
    let (mut healed, _) = calm.evaluate_spec_stream(&pipe, &spec, shard_len, options);
    let stats = healed.cache_stats.take().expect("cache attached");
    assert_eq!(healed, clean, "streamed persistence plus a calm pass heals");
    assert!(!healed.is_degraded());
    assert!(
        stats.store_hits > 0,
        "the streamed storm's clean answers warm-start the healing run"
    );
    assert_eq!(
        serde_json::to_string(&healed).expect("serialize"),
        serde_json::to_string(&clean).expect("serialize"),
        "healed streamed report serializes byte-identically (modulo run metadata)"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
