//! T1: the parallel executor is *bit-identical* to sequential
//! evaluation — for every zoo model, any worker count, with and without
//! the answer cache, and across checkpointed kill/resume runs.

use std::sync::Arc;

use chipvqa::core::ChipVqa;
use chipvqa::eval::executor::ShardSource;
use chipvqa::eval::harness::{evaluate, EvalOptions};
use chipvqa::eval::{
    AnswerCache, Checkpoint, NoisyJudge, ParallelExecutor, RetryPolicy, RuleJudge,
};
use chipvqa::models::{ModelZoo, VlmPipeline};

#[test]
fn all_zoo_models_identical_across_worker_counts() {
    let bench = ChipVqa::standard();
    let profiles = ModelZoo::all();
    assert_eq!(profiles.len(), 12, "the paper's twelve models");

    for profile in profiles {
        let pipe = VlmPipeline::new(profile);
        let sequential = evaluate(&pipe, &bench, EvalOptions::default());
        for workers in [1usize, 2, 8] {
            let parallel =
                ParallelExecutor::new(workers).evaluate(&pipe, &bench, EvalOptions::default());
            assert_eq!(
                sequential,
                parallel,
                "{}: {workers} workers diverged from sequential",
                pipe.profile().name
            );
        }
    }
}

#[test]
fn cached_rerun_is_identical_and_all_hits() {
    let bench = ChipVqa::standard();
    let pipe = VlmPipeline::new(ModelZoo::llava_34b());
    let sequential = evaluate(&pipe, &bench, EvalOptions::default());

    let cache = Arc::new(AnswerCache::new());
    let exec = ParallelExecutor::new(8).with_cache(Arc::clone(&cache));
    let cold = exec.evaluate(&pipe, &bench, EvalOptions::default());
    let warm = exec.evaluate(&pipe, &bench, EvalOptions::default());

    assert_eq!(sequential, cold);
    assert_eq!(sequential, warm);
    assert_eq!(cache.len(), bench.len(), "one entry per question");
    assert_eq!(cache.hits() as usize, bench.len(), "warm run is all hits");
}

#[test]
fn noisy_judge_parallel_matches_sequential() {
    // Judge noise is deterministic per (question, response), so even a
    // flaky judge must not introduce worker-count dependence.
    let bench = ChipVqa::standard();
    let pipe = VlmPipeline::new(ModelZoo::neva_22b());
    let judge = NoisyJudge::new(RuleJudge::new(), 0.05, 17);
    let sequential =
        chipvqa::eval::harness::evaluate_with_judge(&pipe, &bench, EvalOptions::default(), &judge);
    for workers in [2usize, 8] {
        let parallel = ParallelExecutor::new(workers).evaluate_with_judge(
            &pipe,
            &bench,
            EvalOptions::default(),
            &judge,
        );
        assert_eq!(sequential, parallel, "workers = {workers}");
    }
}

#[test]
fn retry_majority_is_worker_count_independent() {
    let bench = ChipVqa::standard();
    let pipe = VlmPipeline::new(ModelZoo::gpt4o());
    let judge = NoisyJudge::new(RuleJudge::new(), 0.10, 5);
    let reference = ParallelExecutor::new(1)
        .with_retry(RetryPolicy::with_attempts(3))
        .evaluate_with_judge(&pipe, &bench, EvalOptions::default(), &judge);
    let wide = ParallelExecutor::new(8)
        .with_retry(RetryPolicy::with_attempts(3))
        .evaluate_with_judge(&pipe, &bench, EvalOptions::default(), &judge);
    assert_eq!(reference, wide);
}

#[test]
fn interrupted_grid_resume_matches_sequential() {
    let bench = ChipVqa::standard();
    let pipes: Vec<VlmPipeline> = [ModelZoo::gpt4o(), ModelZoo::fuyu_8b()]
        .into_iter()
        .map(VlmPipeline::new)
        .collect();
    let options = EvalOptions::default();
    let exec = ParallelExecutor::new(4);

    // drive the run in small budget slices through serialized checkpoints,
    // as a repeatedly-killed driver process would
    let source = ShardSource::Bench(&bench, 0);
    let mut json = Checkpoint::for_source(&pipes, source, options)
        .to_json()
        .expect("serialize");
    let reports = loop {
        let mut ckpt = Checkpoint::from_json(&json).expect("parse");
        match exec
            .evaluate_checkpointed(
                &pipes,
                source,
                options,
                &RuleJudge::new(),
                &mut ckpt,
                &mut |dispatched| dispatched >= 2,
            )
            .expect("compatible checkpoint")
        {
            Some(reports) => break reports,
            None => json = ckpt.to_json().expect("serialize"),
        }
    };

    for (pipe, report) in pipes.iter().zip(&reports) {
        assert_eq!(&evaluate(pipe, &bench, options), report);
    }
}
