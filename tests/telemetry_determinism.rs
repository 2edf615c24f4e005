//! Telemetry must be a pure observer: attaching it never changes a
//! report, and under a [`MockClock`] with one worker the trace itself is
//! a deterministic artifact — two identical runs produce byte-identical
//! JSONL.

use std::sync::Arc;

use chipvqa::core::ChipVqa;
use chipvqa::eval::fault::install_quiet_panic_hook;
use chipvqa::eval::harness::{evaluate, EvalOptions, EvalReport};
use chipvqa::eval::{AnswerCache, FaultPlan, ParallelExecutor, Supervisor};
use chipvqa::models::{ModelZoo, VlmPipeline};
use chipvqa::telemetry::{JsonlSink, MemorySink, MockClock, Telemetry};

/// Seed matching the CI chaos matrix default.
fn chaos_seed() -> u64 {
    std::env::var("CHIPVQA_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(20_260_806)
}

fn traced_chaos_run(seed: u64) -> (EvalReport, String) {
    let sink = Arc::new(JsonlSink::new());
    let tele = Telemetry::builder()
        .clock(MockClock::new(1))
        .sink(Arc::clone(&sink))
        .build();
    let exec = ParallelExecutor::new(1)
        .with_supervisor(Supervisor::new(FaultPlan::uniform(seed, 0.03)))
        .with_telemetry(tele);
    let report = exec.evaluate(
        &VlmPipeline::new(ModelZoo::llava_34b()),
        &ChipVqa::standard(),
        EvalOptions::default(),
    );
    (report, sink.to_jsonl())
}

/// Identical seeded runs under a mock clock write the exact same trace
/// file — the artifact is reproducible, not just the report. Five runs,
/// so a producer thread racing the worker for the clock gets caught.
#[test]
fn seeded_chaos_trace_is_byte_identical() {
    install_quiet_panic_hook();
    let seed = chaos_seed();
    let (report_a, trace_a) = traced_chaos_run(seed);
    assert!(!trace_a.is_empty());
    for _ in 1..5 {
        let (report_b, trace_b) = traced_chaos_run(seed);
        assert_eq!(report_a, report_b);
        assert_eq!(trace_a, trace_b, "same seed must replay the same trace");
    }
    // and a different seed actually changes the storm
    let (_, other) = traced_chaos_run(seed.wrapping_add(1));
    assert_ne!(trace_a, other, "seed must steer the trace");
}

/// Fully enabled telemetry leaves every zoo model's report identical to
/// the sequential harness at every worker count.
#[test]
fn enabled_telemetry_is_invisible_to_every_zoo_model() {
    let bench = ChipVqa::standard();
    for profile in ModelZoo::all() {
        let pipe = VlmPipeline::new(profile);
        let reference = evaluate(&pipe, &bench, EvalOptions::default());
        for workers in [1usize, 4] {
            let tele = Telemetry::builder()
                .sink(Arc::new(MemorySink::new()))
                .build();
            let traced = ParallelExecutor::new(workers)
                .with_telemetry(tele)
                .evaluate(&pipe, &bench, EvalOptions::default());
            assert_eq!(
                reference,
                traced,
                "{} with {workers} workers",
                pipe.profile().name
            );
            assert_eq!(
                serde_json::to_string(&reference).expect("serializes"),
                serde_json::to_string(&traced).expect("serializes"),
                "{}: byte-identical with telemetry attached",
                pipe.profile().name
            );
        }
    }
}

/// The zero-fault supervised path stays clean when observed: no fault,
/// retry, or breaker counters appear, and verdict counts close over the
/// benchmark.
#[test]
fn zero_plan_records_a_clean_trace() {
    let bench = ChipVqa::standard();
    let tele = Telemetry::recording();
    let exec = ParallelExecutor::new(4)
        .with_supervisor(Supervisor::new(FaultPlan::none()))
        .with_telemetry(tele.clone());
    let report = exec.evaluate(
        &VlmPipeline::new(ModelZoo::phi3_vision()),
        &bench,
        EvalOptions::default(),
    );
    assert!(!report.is_degraded());

    let snap = tele.snapshot();
    for dirty in [
        "fault.injected",
        "supervisor.retry",
        "supervisor.deadline_overrun",
        "breaker.trips",
        "breaker.shed",
        "stream.breaker.trips",
        "stream.breaker.shed",
        "executor.panic_caught",
    ] {
        assert!(
            !snap.counters.contains_key(dirty),
            "zero-fault run must not count {dirty}"
        );
    }
    let verdicts: u64 = snap
        .counters
        .iter()
        .filter(|(name, _)| name.starts_with("judge.verdict."))
        .map(|(_, v)| *v)
        .sum();
    assert_eq!(verdicts as usize, bench.len());
}

/// Telemetry's cache counters and the report's `cache_stats` block are
/// two views of the same traffic.
#[test]
fn cache_counters_agree_with_report_stats() {
    let bench = ChipVqa::standard();
    let cache = Arc::new(AnswerCache::new());
    let tele = Telemetry::recording();
    let exec = ParallelExecutor::new(4)
        .with_cache(Arc::clone(&cache))
        .with_telemetry(tele.clone());
    let pipe = VlmPipeline::new(ModelZoo::llava_llama3());
    exec.evaluate(&pipe, &bench, EvalOptions::default());
    let warm = exec.evaluate(&pipe, &bench, EvalOptions::default());

    let stats = warm.cache_stats.expect("cached run reports stats");
    assert_eq!(stats, cache.stats());
    let snap = tele.snapshot();
    assert_eq!(snap.counters["cache.hit"], stats.hits);
    assert_eq!(snap.counters["cache.miss"], stats.misses);
    assert_eq!(snap.counters["cache.insert"], stats.insertions);
    assert!(
        stats.hits >= bench.len() as u64,
        "second pass hits the cache"
    );
}
