//! T1: the parallel executor is *bit-identical* to sequential
//! evaluation — for every zoo model, any worker count, with and without
//! the answer cache, and across checkpointed kill/resume runs.

use std::sync::Arc;

use chipvqa::core::ChipVqa;
use chipvqa::eval::executor::ShardSource;
use chipvqa::eval::harness::{evaluate, evaluate_with_judge, EvalOptions};
use chipvqa::eval::{AnswerCache, Checkpoint, HybridJudge, ParallelExecutor, RuleJudge};
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
fn custom_judge_parallel_matches_sequential() {
    // A caller-supplied judge is the one every worker asks: annotator
    // overrides that flip rule verdicts both ways, spread over several
    // shards, give the sequential harness's report at any worker count.
    let bench = ChipVqa::standard();
    let pipe = VlmPipeline::new(ModelZoo::neva_22b());
    let options = EvalOptions::default();
    let rule = evaluate(&pipe, &bench, options);
    let mut judge = HybridJudge::new();
    for verdict in [true, false] {
        for outcome in rule
            .outcomes
            .iter()
            .filter(|o| o.passed == verdict)
            .step_by(9)
            .take(3)
        {
            judge.override_verdict(outcome.id.clone(), outcome.response.clone(), !verdict);
        }
    }
    assert_eq!(judge.override_count(), 6);
    let sequential = evaluate_with_judge(&pipe, &bench, options, &judge);
    let flipped = sequential
        .outcomes
        .iter()
        .zip(&rule.outcomes)
        .filter(|(hybrid, rule)| hybrid.passed != rule.passed)
        .count();
    assert_eq!(flipped, 6, "every override changed its verdict");
    for workers in [1usize, 2, 8] {
        let parallel = ParallelExecutor::new(workers).evaluate_grid(
            std::slice::from_ref(&pipe),
            &bench,
            options,
            &judge,
        );
        assert_eq!(
            parallel,
            std::slice::from_ref(&sequential),
            "workers = {workers}"
        );
    }
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
                &|_| {},
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
