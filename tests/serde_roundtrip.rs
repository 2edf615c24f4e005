//! Serialization round-trips across the public data types.

use chipvqa::core::stats::DatasetStats;
use chipvqa::core::ChipVqa;
use chipvqa::eval::executor::ShardSource;
use chipvqa::eval::harness::EvalOptions;
use chipvqa::eval::{
    AnswerCache, CachedAnswer, Checkpoint, CheckpointError, ParallelExecutor, RuleJudge,
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
            &|_| {},
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

/// The array field `name` of the JSON object `value`.
fn array_field<'v>(value: &'v mut serde_json::Value, name: &str) -> &'v mut Vec<serde_json::Value> {
    use serde_json::Value;
    let Value::Obj(fields) = value else {
        panic!("{name}: not in an object")
    };
    match fields.iter_mut().find(|(key, _)| key == name) {
        Some((_, Value::Arr(items))) => items,
        _ => panic!("no array field {name}"),
    }
}

#[test]
fn malformed_checkpoint_shards_are_refused() {
    let bench = ChipVqa::standard();
    let pipes: Vec<VlmPipeline> = [ModelZoo::gpt4o(), ModelZoo::llava_7b()]
        .into_iter()
        .map(VlmPipeline::new)
        .collect();
    let options = EvalOptions::default();
    let exec = ParallelExecutor::new(2);
    let source = ShardSource::Bench(&bench, 0);
    // a resume that dispatches at most `max` shards
    let resume = |ckpt: &mut Checkpoint, max: usize| {
        exec.evaluate_checkpointed(
            &pipes,
            source,
            options,
            &RuleJudge::new(),
            ckpt,
            &mut |dispatched| dispatched >= max,
            &|_| {},
        )
    };
    let mut ckpt = Checkpoint::for_source(&pipes, source, options);
    assert_eq!(resume(&mut ckpt, 3), Ok(None), "3 of 18 shards");
    let json = ckpt.to_json().expect("serializes");
    let key = ckpt.completed[1].key;

    // the second shard recorded twice, and the second shard one outcome short
    let edit = |edit: fn(&mut Vec<serde_json::Value>)| {
        let mut tree = serde_json::from_str(&json).expect("parses");
        edit(array_field(&mut tree, "completed"));
        serde_json::to_string(&tree).expect("serializes")
    };
    let repeated = edit(|shards| shards.push(shards[1].clone()));
    let short = edit(|shards| {
        array_field(&mut shards[1], "outcomes").pop();
    });
    // refused before any shard runs, rather than panicking in the final
    // fold once the rest of the grid has run
    for edited in [repeated, short] {
        let mut back = Checkpoint::from_json(&edited).expect("still parses as a checkpoint");
        let before = back.clone();
        assert_eq!(
            resume(&mut back, usize::MAX),
            Err(CheckpointError::MalformedShard(key))
        );
        assert_eq!(back, before, "a refused checkpoint records nothing");
    }
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

// ------------------------------------------------- the compact byte contract
//
// `serde_json::to_string` writes through `Serialize::write_json` and
// builds no tree; its bytes must equal the tree's compact rendering,
// `to_string(&to_value(x))`, for every shape the shim serializes.

mod byte_contract {
    use chipvqa::eval::checkpoint::ShardResult;
    use chipvqa::eval::executor::{ShardKey, ShardSource};
    use chipvqa::eval::fleet::ShardRecord;
    use chipvqa::eval::harness::EvalOptions;
    use chipvqa::eval::report::Table2;
    use chipvqa::eval::supervisor::EvalError;
    use chipvqa::eval::{
        AnswerCache, Checkpoint, FaultPlan, ParallelExecutor, RuleJudge, Supervisor,
    };
    use chipvqa::models::{ModelZoo, VlmPipeline};
    use chipvqa::serve::SessionReport;
    use chipvqa::telemetry::{parse_jsonl, JsonlSink, MockClock, Telemetry};
    use proptest::prelude::*;
    use serde::Serialize;
    use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
    use std::sync::Arc;

    fn direct_equals_tree<T: Serialize + ?Sized>(x: &T) -> Result<(), String> {
        let direct = serde_json::to_string(x).expect("serializes");
        let tree = serde_json::to_string(&x.to_value()).expect("serializes");
        if direct == tree {
            Ok(())
        } else {
            let at = direct
                .bytes()
                .zip(tree.bytes())
                .take_while(|(a, b)| a == b)
                .count();
            Err(format!(
                "direct and tree JSON differ at byte {at}: {:?} vs {:?}",
                &direct[at.saturating_sub(40)..(at + 40).min(direct.len())],
                &tree[at.saturating_sub(40)..(at + 40).min(tree.len())],
            ))
        }
    }

    #[derive(Debug, Serialize)]
    struct Named {
        int: i64,
        text: String,
        #[serde(skip)]
        #[allow(dead_code)] // set only to be left out
        skipped: u8,
        float: Option<f64>,
    }

    #[derive(Debug, Serialize)]
    struct Tuple(u64, String, f32);

    #[derive(Debug, Serialize)]
    struct Newtype(String);

    #[derive(Debug, Serialize)]
    struct Unit;

    #[derive(Debug, Serialize)]
    struct AllSkipped {
        #[serde(skip)]
        #[allow(dead_code)] // set only to be left out
        only: u32,
    }

    #[derive(Debug, Serialize)]
    struct Pair<A, B>(A, B);

    #[derive(Debug, Serialize)]
    enum Shape {
        Unit,
        Newtype(f64),
        Tuple(i32, String),
        Named { x: f32, bytes: Vec<u8> },
    }

    #[derive(Debug, Serialize)]
    struct Record {
        named: Named,
        tuple: Tuple,
        newtype: Newtype,
        unit: Unit,
        all_skipped: AllSkipped,
        pair: Pair<char, bool>,
        shapes: Vec<Shape>,
        boxed: Option<Box<Named>>,
        array: [i8; 3],
        triple: (u16, String, ()),
        deque: VecDeque<char>,
        by_int: BTreeMap<i32, f64>,
        by_pair: BTreeMap<(u8, u64), String>,
        by_name: HashMap<String, Vec<f32>>,
        extremes: (i64, u64, i8, usize),
        text: Vec<String>,
    }

    /// Characters the escaper treats differently: quote, backslash, the
    /// short escapes, other control characters (`\u00XX`), DEL, and
    /// multi-byte text.
    const CHARS: &[char] = &[
        'a', 'Z', '0', ' ', '/', '"', '\\', '\n', '\r', '\t', '\u{0}', '\u{8}', '\u{c}', '\u{1b}',
        '\u{1f}', '\u{7f}', 'é', 'µ', '中', '😀', '\u{2028}', '\u{ffff}',
    ];

    fn string(rng: &mut TestRng) -> String {
        (0..rng.below(12))
            .map(|_| CHARS[rng.below(CHARS.len())])
            .collect()
    }

    /// Any `f64` bit pattern (NaNs, infinities, subnormals, −0.0) or one
    /// of the special values on purpose.
    fn float(rng: &mut TestRng) -> f64 {
        const SPECIAL: [f64; 9] = [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -0.0,
            0.0,
            f64::MIN_POSITIVE / 3.0,
            5e-324,
            f64::MAX,
            0.1,
        ];
        match rng.below(3) {
            0 => SPECIAL[rng.below(SPECIAL.len())],
            1 => f64::from_bits(rng.bits()),
            _ => rng.float_in(-1e3, 1e3),
        }
    }

    fn float32(rng: &mut TestRng) -> f32 {
        match rng.below(3) {
            0 => float(rng) as f32,
            1 => f32::from_bits(rng.bits() as u32),
            _ => rng.float_in(-1e3, 1e3) as f32,
        }
    }

    fn named(rng: &mut TestRng) -> Named {
        Named {
            int: rng.bits() as i64,
            text: string(rng),
            skipped: rng.bits() as u8,
            float: rng.bool().then(|| float(rng)),
        }
    }

    fn shape(rng: &mut TestRng) -> Shape {
        match rng.below(4) {
            0 => Shape::Unit,
            1 => Shape::Newtype(float(rng)),
            2 => Shape::Tuple(rng.bits() as i32, string(rng)),
            _ => Shape::Named {
                x: float32(rng),
                bytes: (0..rng.below(4)).map(|_| rng.bits() as u8).collect(),
            },
        }
    }

    fn record(rng: &mut TestRng) -> Record {
        Record {
            named: named(rng),
            tuple: Tuple(rng.bits(), string(rng), float32(rng)),
            newtype: Newtype(string(rng)),
            unit: Unit,
            all_skipped: AllSkipped { only: 7 },
            pair: Pair(CHARS[rng.below(CHARS.len())], rng.bool()),
            shapes: (0..rng.below(5)).map(|_| shape(rng)).collect(),
            boxed: rng.bool().then(|| Box::new(named(rng))),
            array: [rng.bits() as i8, rng.bits() as i8, rng.bits() as i8],
            triple: (rng.bits() as u16, string(rng), ()),
            deque: (0..rng.below(4))
                .map(|_| CHARS[rng.below(CHARS.len())])
                .collect(),
            by_int: (0..rng.below(6))
                .map(|_| (rng.int_in(-20, 20) as i32, float(rng)))
                .collect(),
            by_pair: (0..rng.below(6))
                .map(|_| {
                    let key = (rng.below(3) as u8, rng.below(12) as u64);
                    (key, string(rng))
                })
                .collect(),
            by_name: (0..rng.below(6))
                .map(|_| {
                    (
                        string(rng),
                        (0..rng.below(3)).map(|_| float32(rng)).collect(),
                    )
                })
                .collect(),
            extremes: match rng.below(3) {
                0 => (i64::MIN, u64::MAX, i8::MIN, usize::MAX),
                1 => (i64::MAX, 0, i8::MAX, 0),
                _ => (
                    rng.bits() as i64,
                    rng.bits(),
                    rng.bits() as i8,
                    rng.bits() as usize,
                ),
            },
            text: (0..rng.below(4)).map(|_| string(rng)).collect(),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn direct_writer_matches_the_tree_for_every_shape(
            x in record as fn(&mut TestRng) -> Record,
        ) {
            direct_equals_tree(&x).map_err(TestCaseError::Fail)?;
            // the pieces on their own, as top-level values
            direct_equals_tree(&x.shapes).map_err(TestCaseError::Fail)?;
            direct_equals_tree(&x.by_name).map_err(TestCaseError::Fail)?;
            direct_equals_tree(&x.text).map_err(TestCaseError::Fail)?;
            direct_equals_tree(x.named.text.as_str()).map_err(TestCaseError::Fail)?;
        }
    }

    #[test]
    fn map_keys_and_escapes_render_as_specified() {
        let by_pair: BTreeMap<(u8, u8), u8> = [((1, 10), 0), ((1, 2), 1), ((0, 99), 2)].into();
        assert_eq!(
            serde_json::to_string(&by_pair).unwrap(),
            r#"{"0,99":2,"1,2":1,"1,10":0}"#,
            "a BTreeMap keeps key order, not text order"
        );
        let by_name: HashMap<u32, bool> = [(10, true), (9, false), (100, true)].into();
        assert_eq!(
            serde_json::to_string(&by_name).unwrap(),
            r#"{"10":true,"100":true,"9":false}"#,
            "a HashMap is sorted by rendered key"
        );
        let text = "q\"b\\n\nr\rt\tz\u{0}\u{1f}\u{7f}é😀";
        assert_eq!(
            serde_json::to_string(text).unwrap(),
            r#""q\"b\\n\nr\rt\tz\u0000\u001f"#.to_owned() + "\u{7f}é😀\"",
        );
        let skipping = Named {
            int: -1,
            text: "t".into(),
            skipped: 9,
            float: None,
        };
        assert_eq!(
            serde_json::to_string(&skipping).unwrap(),
            r#"{"int":-1,"text":"t","float":null}"#
        );
        assert_eq!(
            serde_json::to_string(&AllSkipped { only: 3 }).unwrap(),
            "{}"
        );
        let floats = (0.1f32, -0.0f64, f64::NAN, f32::INFINITY, 5e-324f64, 1e21f64);
        assert_eq!(
            serde_json::to_string(&floats).unwrap(),
            "[0.10000000149011612,-0.0,null,null,5e-324,1e21]"
        );
    }

    /// A leaf whose tree form must never be asked for.
    struct NoTree(u32);

    impl Serialize for NoTree {
        fn to_value(&self) -> serde_json::Value {
            panic!("the compact path built a Value tree")
        }
        fn write_json(&self, out: &mut String) {
            self.0.write_json(out);
        }
    }

    #[derive(Serialize)]
    enum Carrier {
        Tuple(NoTree, NoTree),
        Named { leaf: NoTree },
    }

    #[derive(Serialize)]
    struct Holder {
        leaf: NoTree,
        many: Vec<NoTree>,
        maybe: Option<NoTree>,
        keyed: BTreeMap<u8, NoTree>,
        both: (NoTree, Box<NoTree>),
        carried: [Carrier; 2],
    }

    #[test]
    fn to_string_builds_no_tree() {
        let holder = Holder {
            leaf: NoTree(1),
            many: vec![NoTree(2), NoTree(3)],
            maybe: Some(NoTree(4)),
            keyed: [(5, NoTree(6))].into(),
            both: (NoTree(7), Box::new(NoTree(8))),
            carried: [
                Carrier::Tuple(NoTree(9), NoTree(10)),
                Carrier::Named { leaf: NoTree(11) },
            ],
        };
        assert_eq!(
            serde_json::to_string(&holder).expect("serializes"),
            r#"{"leaf":1,"many":[2,3],"maybe":4,"keyed":{"5":6},"both":[7,8],"carried":[{"Tuple":[9,10]},{"Named":{"leaf":11}}]}"#
        );
    }

    fn zoo() -> Vec<VlmPipeline> {
        ModelZoo::all().into_iter().map(VlmPipeline::new).collect()
    }

    #[test]
    fn real_records_write_their_tree_bytes() {
        // a scale-1 Table II, with its cache stats
        let cache = Arc::new(AnswerCache::new());
        let table =
            chipvqa_bench::run_table2_on(&ParallelExecutor::new(2).with_cache(cache), 1, true);
        assert!(table.rows[0].standard.cache_stats.is_some());
        direct_equals_tree(&table).unwrap();

        // a fleet record over the table's first shard of every row
        let rows = table
            .rows
            .iter()
            .flat_map(|row| [&row.standard, &row.challenge])
            .enumerate()
            .map(|(model_idx, report)| ShardResult {
                key: ShardKey {
                    model_idx,
                    q_start: 0,
                    q_end: 16,
                },
                outcomes: report.outcomes[..16].to_vec(),
            })
            .collect();
        direct_equals_tree(&ShardRecord {
            manifest_fingerprint: u64::MAX - 7,
            worker_pid: 4242,
            rows,
        })
        .unwrap();

        // a session report
        let reports = table.rows.iter().map(|row| row.standard.clone()).collect();
        direct_equals_tree(&SessionReport::new(reports)).unwrap();
    }

    #[test]
    fn chaos_table_with_every_error_variant_writes_its_tree_bytes() {
        chipvqa::eval::fault::install_quiet_panic_hook();
        let exec = ParallelExecutor::new(2)
            .with_supervisor(Supervisor::new(FaultPlan::uniform(20_260_806, 0.16)));
        let table: Table2 = chipvqa_bench::run_table2_on(&exec, 1, true);
        let kinds: BTreeSet<&str> = table
            .rows
            .iter()
            .flat_map(|row| row.standard.outcomes.iter().chain(&row.challenge.outcomes))
            .filter_map(|o| o.error.as_ref().map(EvalError::label))
            .collect();
        assert_eq!(kinds.len(), 7, "every EvalError variant occurs: {kinds:?}");
        direct_equals_tree(&table).unwrap();
    }

    #[test]
    fn checkpoints_and_traces_write_their_tree_bytes() {
        let bench = chipvqa::core::ChipVqa::standard();
        let pipes = zoo();
        let source = ShardSource::Bench(&bench, 0);
        let options = EvalOptions::default();
        let mut ckpt = Checkpoint::for_source(&pipes[..3], source, options);
        let sink = Arc::new(JsonlSink::new());
        let tele = Telemetry::builder()
            .clock(MockClock::new(3))
            .sink(Arc::clone(&sink))
            .build();
        ParallelExecutor::new(2)
            .with_telemetry(tele.clone())
            .evaluate_checkpointed(
                &pipes[..3],
                source,
                options,
                &RuleJudge::new(),
                &mut ckpt,
                &mut |dispatched| dispatched >= 5,
                &|_| {},
            )
            .expect("compatible");
        assert!(ckpt.completed_shards() >= 5);
        direct_equals_tree(&ckpt).unwrap();

        tele.emit_snapshot();
        let records = parse_jsonl(&sink.to_jsonl()).expect("every line parses");
        assert!(records.len() > 100);
        for record in &records {
            direct_equals_tree(record).unwrap();
        }
    }
}
