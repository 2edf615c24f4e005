//! T5: the scale-out dataset engine. Randomised specs must produce
//! collections whose goldens re-verify against the substrate solvers,
//! whose proportions track the spec within rounding, and whose
//! streaming generation is byte-identical to the materialised build —
//! and a 10×-scale streaming evaluation must be byte-identical across
//! worker counts while holding the peak resident question count to the
//! shard-size bound.

use std::collections::BTreeSet;
use std::sync::Arc;

use chipvqa::core::gen::verify::{reverify, verify_collection};
use chipvqa::core::stats::DatasetStats;
use chipvqa::core::{no_choice, DatasetSpec, RESIDENT_SLACK};
use chipvqa::eval::harness::EvalOptions;
use chipvqa::eval::{Judge, ParallelExecutor, RuleJudge};
use chipvqa::models::{ModelZoo, VlmPipeline};
use chipvqa::telemetry::Telemetry;
use proptest::prelude::*;

#[test]
fn shard_stream_matches_build_across_shard_sizes() {
    let spec = DatasetSpec::scaled(3).with_seed(7).with_mc_sa_ratio(0.5);
    let built = spec.build();
    let built_bytes = serde_json::to_string(&built.questions().to_vec()).expect("serializes");
    // shard sizes straddling the block sizes: single-question shards,
    // a prime, the base size, and one larger than the whole collection
    for shard_len in [1usize, 17, 142, 1000] {
        let mut stream = spec.stream(shard_len);
        let streamed: Vec<_> = (&mut stream).flatten().collect();
        assert_eq!(streamed.len(), built.len(), "shard_len {shard_len}");
        let streamed_bytes = serde_json::to_string(&streamed).expect("serializes");
        assert_eq!(streamed_bytes, built_bytes, "shard_len {shard_len}");
        assert!(
            stream.peak_resident() <= shard_len + RESIDENT_SLACK,
            "shard_len {shard_len}: peak resident {} exceeds bound",
            stream.peak_resident()
        );
    }
}

#[test]
fn physical_replica_604_generates_and_verifies() {
    // Replica 604 is the first physical block whose first legalization
    // draw strands a cell behind both rows' fill pointers. Generation
    // must re-draw, not panic, or every `table2 --scale N` with
    // N >= 605 stops here.
    use chipvqa::core::dataset::DEFAULT_SEED;
    use chipvqa::core::gen::physical::{generate_replica, BLOCK_SIZE};
    let block = generate_replica(DEFAULT_SEED, 604);
    assert_eq!(block.len(), BLOCK_SIZE);
    assert_eq!(verify_collection(&block), Ok(BLOCK_SIZE));
}

proptest! {
    // each case builds (and re-solves) whole collections — keep few
    #![proptest_config(ProptestConfig::with_cases(3))]

    #[test]
    fn random_specs_verify_against_their_substrate_solvers(
        scale in 1usize..4,
        seed in 0u64..(1 << 48),
        w in (1u32..100, 1u32..100, 1u32..100, 1u32..100, 1u32..100),
        ratio_pct in 0u32..101,
    ) {
        let weights = [w.0 as f64, w.1 as f64, w.2 as f64, w.3 as f64, w.4 as f64];
        let ratio = f64::from(ratio_pct) / 100.0;
        let spec = DatasetSpec::scaled(scale)
            .with_seed(seed)
            .with_weights(weights)
            .with_mc_sa_ratio(ratio);
        let built = spec.build();

        // every golden re-verifies intrinsically (boolean goldens
        // re-minimised, MC choice sets checked against the semantic
        // golden) and differentially (replica blocks regenerated by
        // re-running the substrate solvers)
        prop_assert_eq!(verify_collection(built.iter()), Ok(spec.total()));
        prop_assert_eq!(reverify(&spec, &built), Ok(spec.total()));

        // goldens are self-consistent under the rule judge
        let judge = RuleJudge::new();
        for q in built.iter() {
            prop_assert!(
                judge.is_correct(q, &q.golden_text()),
                "{}: gold fails its own judge", q.id
            );
        }

        // category proportions track the weights within rounding
        let counts = spec.category_counts();
        prop_assert_eq!(counts.iter().sum::<usize>(), spec.total());
        let wsum: f64 = weights.iter().sum();
        for (i, &n) in counts.iter().enumerate() {
            let exact = spec.total() as f64 * weights[i] / wsum;
            prop_assert!(
                (n as f64 - exact).abs() < 1.0,
                "category {i}: {n} questions vs exact share {exact}"
            );
        }

        // the MC/SA split tracks the ratio within rounding: the engine
        // keeps ⌊M·ratio⌋ of the M natively-MC questions
        let native_mc = DatasetStats::compute(&spec.clone().with_mc_sa_ratio(1.0).build())
            .multiple_choice;
        let stats = DatasetStats::compute(&built);
        let expect_mc = (native_mc as f64 * ratio).floor() as usize;
        prop_assert_eq!(
            stats.multiple_choice, expect_mc,
            "ratio {} of {} native MC", ratio, native_mc
        );
        prop_assert_eq!(stats.multiple_choice + stats.short_answer, spec.total());
    }
}

/// The proptest above draws scales 1–3. Here the goldens of a scale-10
/// spec, replica blocks 3–9 included, re-verify against the substrate
/// solvers, intrinsically and by regenerating each block.
#[test]
fn a_scale10_spec_verifies_against_its_substrate_solvers() {
    let spec = DatasetSpec::scaled(10)
        .with_seed(0x2026_1019)
        .with_mc_sa_ratio(0.5);
    let built = spec.build();
    assert_eq!(verify_collection(built.iter()), Ok(spec.total()));
    assert_eq!(reverify(&spec, &built), Ok(spec.total()));
}

/// The issue's acceptance gate: a 10×-scale streaming run is
/// byte-identical across 1/2/8 workers, with the generator's peak
/// resident question count bounded by the shard size (plus the largest
/// replica block, which must exist whole while being sliced).
#[test]
fn streamed_scale10_identical_across_worker_counts_in_bounded_memory() {
    let spec = DatasetSpec::scaled(10);
    let pipe = VlmPipeline::new(ModelZoo::gpt4o());
    let shard_len = 71;
    let mut reports = Vec::new();
    for workers in [1usize, 2, 8] {
        let (report, stats) = ParallelExecutor::new(workers).evaluate_spec_stream(
            &pipe,
            &spec,
            shard_len,
            EvalOptions::default(),
        );
        assert_eq!(stats.questions, 1420, "{workers} workers");
        assert_eq!(stats.shards, 20, "{workers} workers");
        assert!(
            stats.peak_in_flight <= (2 * workers + 1) * shard_len,
            "{workers} workers: {} questions in flight",
            stats.peak_in_flight
        );
        let resident = stats
            .generator_peak_resident
            .expect("spec streams report residency");
        assert!(
            resident <= shard_len + RESIDENT_SLACK,
            "{workers} workers: generator held {resident} questions"
        );
        reports.push(serde_json::to_string(&report).expect("report serializes"));
    }
    assert_eq!(reports[0], reports[1], "2 workers diverged from 1");
    assert_eq!(reports[0], reports[2], "8 workers diverged from 1");
}

/// The engine bounds a grid by resident shards, not by queued items:
/// on the 12-model, two-column grid (24 rows per shard) at 1, 2 and 4
/// workers, at most `min(2·workers + 1, ⌈(2·workers + 1) / rows⌉ + 2)`
/// shards — three here — are resident, the generator holds at most one
/// shard plus one replica block, and the table does not depend on the
/// worker count.
#[test]
fn a_grid_keeps_its_resident_shards_bounded() {
    use chipvqa::eval::executor::SHARD_SIZE;
    let spec = DatasetSpec::default();
    let pipes: Vec<VlmPipeline> = ModelZoo::all().into_iter().map(VlmPipeline::new).collect();
    let rows = 2 * pipes.len();
    let mut tables = Vec::new();
    for workers in [1usize, 2, 4] {
        let (table, stats) = ParallelExecutor::new(workers).evaluate_table2(
            &pipes,
            &spec,
            SHARD_SIZE,
            EvalOptions::default(),
            &RuleJudge::new(),
        );
        assert_eq!(stats.shards, spec.total().div_ceil(SHARD_SIZE));
        let lookahead = 2 * workers + 1;
        let bound = lookahead.min(lookahead.div_ceil(rows) + 2);
        assert_eq!(bound, 3);
        assert!(
            (1..=bound).contains(&stats.peak_resident_shards),
            "{workers} workers: {} shards resident",
            stats.peak_resident_shards
        );
        assert!(
            stats.peak_in_flight <= rows * bound * SHARD_SIZE,
            "{workers} workers: {} questions in flight",
            stats.peak_in_flight
        );
        let resident = stats
            .generator_peak_resident
            .expect("spec streams report residency");
        assert!(
            resident <= SHARD_SIZE + RESIDENT_SLACK,
            "{workers} workers: generator held {resident} questions"
        );
        tables.push(table);
    }
    assert_eq!(tables[0], tables[1], "2 workers diverged from 1");
    assert_eq!(tables[0], tables[2], "4 workers diverged from 1");
}

proptest! {
    // each case streams two specs at four shard lengths — keep few
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// The engine's derived no-choice twin: for random specs (any MC/SA
    /// ratio) and shard lengths straddling the block sizes, `no_choice`
    /// of every shard equals the same shard of the spec at
    /// `mc_sa_ratio` 0, pixels included, and shares its source's pixel
    /// storage instead of copying it.
    #[test]
    fn derived_no_choice_shards_equal_generated_ones_and_share_pixels(
        scale in 1usize..3,
        seed in 0u64..(1 << 48),
        w in (1u32..100, 1u32..100, 1u32..100, 1u32..100, 1u32..100),
        ratio_pct in 0u32..101,
    ) {
        let spec = DatasetSpec::scaled(scale)
            .with_seed(seed)
            .with_weights([w.0 as f64, w.1 as f64, w.2 as f64, w.3 as f64, w.4 as f64])
            .with_mc_sa_ratio(f64::from(ratio_pct) / 100.0);
        let challenge = spec.clone().with_mc_sa_ratio(0.0);
        for shard_len in [1usize, 17, 142, 1000] {
            let mut shards = 0;
            for (source, generated) in spec.stream(shard_len).zip(challenge.stream(shard_len)) {
                let derived = no_choice(&source);
                prop_assert!(derived == generated, "shard {} at length {}", shards, shard_len);
                for (twin, q) in derived.iter().zip(&source) {
                    prop_assert!(Arc::ptr_eq(&twin.visual, &q.visual), "{} copied its pixels", q.id);
                }
                shards += 1;
            }
            prop_assert_eq!(shards, spec.total().div_ceil(shard_len));
        }
    }
}

/// A storeless grid rasterizes, on its producer, exactly the images
/// perception reads: each question with a key mark that some zoo model
/// sees at a total factor of 2 or more, once for both columns.
#[test]
fn a_storeless_grid_rasterizes_the_images_perception_reads() {
    let spec = DatasetSpec::scaled(2);
    let pipes: Vec<VlmPipeline> = ModelZoo::all().into_iter().map(VlmPipeline::new).collect();
    let read = spec
        .build()
        .iter()
        .filter(|q| !q.key_marks.is_empty() && pipes.iter().any(|p| p.total_factor(q, 1) >= 2))
        .count();
    assert!(read > 0);

    let tele = Telemetry::recording();
    let exec = ParallelExecutor::new(2).with_telemetry(tele.clone());
    chipvqa_bench::run_table2_on(&exec, 2, true);
    let snap = tele.snapshot();
    assert_eq!(snap.counters.get("stream.rasterized"), Some(&(read as u64)));
    // one stream.rasterize span per generated shard, on the producer
    let spans: u64 = snap
        .spans
        .iter()
        .filter(|(path, _)| path.ends_with("stream.rasterize"))
        .map(|(_, span)| span.count)
        .sum();
    assert_eq!(spans, snap.counters["stream.shard_generated"]);
}

/// A run that infers rasterizes no whole image: a storeless grid of the
/// twelve zoo models over a built scale-2 bench gives each model the
/// sequential harness's report, and leaves every question's image
/// unrasterized, because perception reads its key marks from windows.
#[test]
fn a_run_that_infers_rasterizes_no_whole_image() {
    use chipvqa::eval::executor::ShardSource;
    use chipvqa::eval::harness::evaluate;
    let spec = DatasetSpec::scaled(2);
    let bench = spec.build();
    let pipes: Vec<VlmPipeline> = ModelZoo::all().into_iter().map(VlmPipeline::new).collect();
    let options = EvalOptions::default();
    let (reports, _) = ParallelExecutor::new(2).evaluate_source(
        &pipes,
        ShardSource::Bench(&bench, spec.fingerprint()),
        options,
        &RuleJudge::new(),
    );
    let reference = spec.build();
    for (pipe, report) in pipes.iter().zip(&reports) {
        assert_eq!(report, &evaluate(pipe, &reference, options));
    }
    let rasterized = bench
        .iter()
        .filter(|q| format!("{:?}", q.visual.image).contains("rasterized: true"))
        .count();
    assert_eq!(rasterized, 0, "images rasterized whole");
}

/// A grid computes each legibility value once: over both columns of a
/// small grid and all twelve models, the slot fills at total factors of
/// 2 or more count exactly the distinct (question, key mark, factor)
/// triples the models need, and the table equals two separate column
/// runs.
#[test]
fn a_grid_fills_each_legibility_value_once() {
    let spec = DatasetSpec::default();
    let pipes: Vec<VlmPipeline> = ModelZoo::all().into_iter().map(VlmPipeline::new).collect();
    let options = EvalOptions {
        downsample: 2,
        ..EvalOptions::default()
    };
    let tele = Telemetry::recording();
    let exec = ParallelExecutor::new(2).with_telemetry(tele.clone());
    let (table, stats) = exec.evaluate_table2(&pipes, &spec, 17, options, &RuleJudge::new());
    assert_eq!(
        stats.questions,
        spec.total(),
        "each question generated once"
    );

    let mut needed = BTreeSet::new();
    for q in spec.build().iter() {
        for pipe in &pipes {
            let total = pipe.total_factor(q, options.downsample);
            if total >= 2 {
                for position in 0..q.key_marks.len() {
                    needed.insert((q.id.clone(), position, total));
                }
            }
        }
    }
    let filled = tele.snapshot().counters["perceive.legibility_filled"];
    assert_eq!(filled, needed.len() as u64);

    let exec = ParallelExecutor::new(2);
    let column = |spec: &DatasetSpec| {
        exec.evaluate_source(
            &pipes,
            chipvqa::eval::executor::ShardSource::Spec(spec, 17),
            options,
            &RuleJudge::new(),
        )
        .0
    };
    let challenge = spec.clone().with_mc_sa_ratio(0.0);
    for ((row, standard), challenge) in table.rows.iter().zip(column(&spec)).zip(column(&challenge))
    {
        assert_eq!(row.standard, standard);
        assert_eq!(row.challenge, challenge);
    }
}

proptest! {
    // each case generates up to three scale-3 collections — keep few
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Seeking: for random specs (zero weights and any MC/SA ratio
    /// included) and shard lengths straddling the block sizes, the
    /// stream started at shard `k` is the full stream with `k` shards
    /// skipped, past the end included.
    #[test]
    fn a_stream_started_at_shard_k_is_the_stream_with_k_shards_skipped(
        scale in 1usize..4,
        seed in 0u64..(1 << 48),
        w in (0u32..100, 0u32..100, 0u32..100, 0u32..100, 1u32..100),
        ratio_pct in 0u32..101,
        at in (0.0f64..1.1, 0.0f64..1.1, 0.0f64..1.1),
    ) {
        let spec = DatasetSpec::scaled(scale)
            .with_seed(seed)
            .with_weights([w.0 as f64, w.1 as f64, w.2 as f64, w.3 as f64, w.4 as f64])
            .with_mc_sa_ratio(f64::from(ratio_pct) / 100.0);
        for (shard_len, at) in [(1usize, at.0), (17, at.1), (142, at.2)] {
            let k = (spec.total().div_ceil(shard_len) as f64 * at) as usize;
            let skipped = spec.stream(shard_len).skip(k);
            prop_assert!(
                spec.stream_from(shard_len, k).eq(skipped),
                "shard {} at length {}", k, shard_len
            );
        }
    }
}

/// A checkpoint resume over a spec whose first shards are complete
/// generates only the shards from the first pending one on, and still
/// merges to the uninterrupted reports.
#[test]
fn a_resume_generates_only_its_pending_shards() {
    use chipvqa::eval::executor::ShardSource;
    use chipvqa::eval::Checkpoint;
    let spec = DatasetSpec::scaled(2).with_seed(11);
    let pipes = [VlmPipeline::new(ModelZoo::gpt4o())];
    let (shard_len, options, judge) = (17, EvalOptions::default(), RuleJudge::new());
    let source = ShardSource::Spec(&spec, shard_len);
    let exec = ParallelExecutor::new(2);
    let mut full = Checkpoint::for_source(&pipes, source, options);
    let reference = exec
        .evaluate_checkpointed(
            &pipes,
            source,
            options,
            &judge,
            &mut full,
            &mut |_| false,
            &|_| {},
        )
        .expect("valid checkpoint")
        .expect("grid completes");
    let shards = spec.total().div_ceil(shard_len);
    for done in [1, 5, shards - 1] {
        let mut resumed = full.clone();
        resumed
            .completed
            .retain(|s| s.key.q_start < done * shard_len);
        let tele = Telemetry::recording();
        let reports = (exec.clone().with_telemetry(tele.clone()))
            .evaluate_checkpointed(
                &pipes,
                source,
                options,
                &judge,
                &mut resumed,
                &mut |_| false,
                &|_| {},
            )
            .expect("valid checkpoint")
            .expect("grid completes");
        assert_eq!(reports, reference, "{done} shards done");
        let counters = tele.snapshot().counters;
        assert_eq!(
            counters["stream.shard_generated"],
            (shards - done) as u64,
            "{done} shards done"
        );
        assert_eq!(
            counters["stream.questions"],
            (spec.total() - done * shard_len) as u64,
            "{done} shards done"
        );
    }
}
