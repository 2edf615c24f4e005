//! Serialization round-trips across the public data types.

use chipvqa::core::stats::DatasetStats;
use chipvqa::core::ChipVqa;
use chipvqa::eval::executor::ShardSource;
use chipvqa::eval::harness::EvalOptions;
use chipvqa::eval::{
    AnswerCache, CacheKey, CacheSnapshot, CachedAnswer, Checkpoint, ParallelExecutor, RuleJudge,
};
use chipvqa::models::backbone::AnswerPath;
use chipvqa::models::{ModelZoo, VlmPipeline};

#[test]
fn collection_json_roundtrip() {
    let bench = ChipVqa::standard();
    let json = bench.to_json().expect("serializes");
    assert!(json.contains("digital-000"));
    assert!(json.contains("S'Q + SR'"));
    let back = ChipVqa::from_json(&json).expect("deserializes");
    assert_eq!(back.len(), bench.len());
    for (a, b) in bench.iter().zip(back.iter()) {
        assert_eq!(a.id, b.id);
        assert_eq!(a.prompt, b.prompt);
        assert_eq!(a.kind, b.kind);
        assert_eq!(a.answer, b.answer);
    }
    // images regenerate from the recorded seed
    assert!(back.iter().all(|q| q.visual.image.ink_pixels() > 0));
}

#[test]
fn stats_serialize() {
    let stats = DatasetStats::compute(&ChipVqa::standard());
    let json = serde_json::to_string(&stats).expect("serializes");
    let back: DatasetStats = serde_json::from_str(&json).expect("deserializes");
    assert_eq!(stats, back);
}

#[test]
fn profiles_serialize() {
    for profile in ModelZoo::all() {
        let json = serde_json::to_string(&profile).expect("serializes");
        let back: chipvqa::models::ModelProfile =
            serde_json::from_str(&json).expect("deserializes");
        assert_eq!(profile, back);
    }
}

#[test]
fn checkpoint_json_roundtrip_mid_run() {
    let bench = ChipVqa::standard();
    let pipes: Vec<VlmPipeline> = [ModelZoo::gpt4o(), ModelZoo::llava_7b()]
        .into_iter()
        .map(VlmPipeline::new)
        .collect();
    let options = EvalOptions {
        attempts: 2,
        downsample: 2,
    };
    let exec = ParallelExecutor::new(4);
    let source = ShardSource::Bench(&bench, 0);
    let mut ckpt = Checkpoint::for_source(&pipes, source, options);
    let partial = exec
        .evaluate_checkpointed(
            &pipes,
            source,
            options,
            &RuleJudge::new(),
            &mut ckpt,
            &mut |dispatched| dispatched >= 4,
        )
        .expect("compatible");
    assert!(partial.is_none(), "4 of 18 shards is not a full grid");
    assert_eq!(ckpt.completed_shards(), 4);

    let json = ckpt.to_json().expect("serializes");
    assert!(json.contains("model_fingerprints"));
    let back = Checkpoint::from_json(&json).expect("deserializes");
    assert_eq!(
        back, ckpt,
        "checkpoint round-trips mid-run, outcomes and all"
    );
    assert!(back.validate_source(&pipes, source, options).is_ok());
}

#[test]
fn empty_checkpoint_roundtrip() {
    let bench = ChipVqa::standard();
    let pipes = vec![VlmPipeline::new(ModelZoo::kosmos_2())];
    let ckpt = Checkpoint::for_source(
        &pipes,
        ShardSource::Bench(&bench, 0),
        EvalOptions::default(),
    );
    let back = Checkpoint::from_json(&ckpt.to_json().expect("serializes")).expect("deserializes");
    assert_eq!(back, ckpt);
    assert_eq!(back.completed_shards(), 0);
}

#[test]
fn cache_snapshot_json_roundtrip() {
    let bench = ChipVqa::standard();
    let pipe = VlmPipeline::new(ModelZoo::phi3_vision());
    let cache = AnswerCache::new();
    for (i, q) in bench.iter().take(5).enumerate() {
        let key = CacheKey::new(pipe.fingerprint(), q, 1 + i % 2, i as u64 % 3);
        cache.insert(
            key,
            CachedAnswer::from(&pipe.infer(q, 1 + i % 2, i as u64 % 3)),
        );
    }
    let snap = cache.snapshot();
    let json = serde_json::to_string(&snap).expect("serializes");
    let back: CacheSnapshot = serde_json::from_str(&json).expect("deserializes");
    assert_eq!(back, snap);

    let restored = AnswerCache::from_snapshot(back);
    assert_eq!(restored.len(), 5);
    let q = &bench.questions()[0];
    let key = CacheKey::new(pipe.fingerprint(), q, 1, 0);
    assert_eq!(
        restored.lookup(&key).expect("restored entry").text,
        pipe.infer(q, 1, 0).text
    );
}

#[test]
fn cached_answer_preserves_path_variants() {
    for path in [AnswerPath::Solved, AnswerPath::Guessed, AnswerPath::Failed] {
        let ans = CachedAnswer {
            text: "42 ns".into(),
            path,
            solve_probability: 0.25,
        };
        let json = serde_json::to_string(&ans).expect("serializes");
        let back: CachedAnswer = serde_json::from_str(&json).expect("deserializes");
        assert_eq!(back, ans);
    }
}

#[test]
fn eval_report_roundtrips_with_and_without_cache_stats() {
    use chipvqa::eval::harness::EvalReport;
    use std::sync::Arc;

    let bench = ChipVqa::standard();
    let pipe = VlmPipeline::new(ModelZoo::llava_13b());

    // Cache-less run: `cache_stats` serializes as null and survives.
    let plain = ParallelExecutor::new(2).evaluate(&pipe, &bench, EvalOptions::default());
    let json = serde_json::to_string(&plain).expect("serializes");
    assert!(json.contains("\"cache_stats\":null"));
    let back: EvalReport = serde_json::from_str(&json).expect("deserializes");
    assert_eq!(back, plain);
    assert_eq!(back.cache_stats, None);

    // Cached run: the stats block round-trips field-for-field. Equality
    // on EvalReport ignores run metadata, so compare the stats directly.
    let cache = Arc::new(AnswerCache::new());
    let exec = ParallelExecutor::new(2).with_cache(Arc::clone(&cache));
    let cached = exec.evaluate(&pipe, &bench, EvalOptions::default());
    let stats = cached.cache_stats.expect("cached run records stats");
    assert_eq!(stats, cache.stats());
    let json = serde_json::to_string(&cached).expect("serializes");
    let back: EvalReport = serde_json::from_str(&json).expect("deserializes");
    assert_eq!(back, cached);
    assert_eq!(back.cache_stats, Some(stats));
}

#[test]
fn telemetry_summary_roundtrip() {
    use chipvqa::telemetry::{Telemetry, TelemetrySummary};

    let bench = ChipVqa::standard();
    let tele = Telemetry::recording();
    let exec = ParallelExecutor::new(2).with_telemetry(tele.clone());
    exec.evaluate(
        &VlmPipeline::new(ModelZoo::paligemma()),
        &bench,
        EvalOptions::default(),
    );
    let summary = tele.summary();
    assert!(!summary.is_empty(), "instrumented run produces a summary");
    let json = serde_json::to_string(&summary).expect("serializes");
    let back: TelemetrySummary = serde_json::from_str(&json).expect("deserializes");
    assert_eq!(back, summary);
}

#[test]
fn jsonl_trace_roundtrip() {
    use chipvqa::telemetry::{parse_jsonl, JsonlSink, MockClock, Telemetry};
    use std::sync::Arc;

    let bench = ChipVqa::standard();
    let sink = Arc::new(JsonlSink::new());
    let tele = Telemetry::builder()
        .clock(MockClock::new(1))
        .sink(Arc::clone(&sink))
        .build();
    let exec = ParallelExecutor::new(1).with_telemetry(tele);
    exec.evaluate(
        &VlmPipeline::new(ModelZoo::kosmos_2()),
        &bench,
        EvalOptions::default(),
    );
    let text = sink.to_jsonl();
    let records = parse_jsonl(&text).expect("every line parses back");
    assert_eq!(records.len(), sink.len());
    assert!(records.iter().any(|r| r.name() == "executor.stream"));
}

#[test]
fn question_metadata_roundtrip_skips_pixels() {
    let bench = ChipVqa::standard();
    let q = bench.questions().first().expect("nonempty");
    let json = serde_json::to_string(q).expect("serializes");
    assert!(
        !json.contains("\"pixels\"") && !json.contains("\"data\":[255"),
        "images must not be serialized"
    );
    let back: chipvqa::core::Question = serde_json::from_str(&json).expect("deserializes");
    assert_eq!(back.id, q.id);
    assert_eq!(back.answer, q.answer);
}
