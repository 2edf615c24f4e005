//! Table-I integrity: the generated dataset must match the paper's
//! published statistics exactly where they are exact, and structurally
//! where the source table is garbled (see DESIGN.md §3 note on the
//! visual-kind tail).

use std::collections::BTreeSet;

use chipvqa::core::question::{Category, QuestionKind, VisualKind};
use chipvqa::core::stats::DatasetStats;
use chipvqa::core::tokens::count_tokens;
use chipvqa::core::ChipVqa;
use chipvqa::eval::{Judge, RuleJudge};

#[test]
fn table1_exact_counts() {
    let stats = DatasetStats::compute(&ChipVqa::standard());
    assert_eq!(stats.total, 142);
    assert_eq!(stats.multiple_choice, 99);
    assert_eq!(stats.short_answer, 43);
    let cats: Vec<usize> = stats.by_category.iter().map(|&(_, n)| n).collect();
    assert_eq!(cats, vec![35, 44, 20, 20, 23]);
}

#[test]
fn table1_visual_kinds() {
    let stats = DatasetStats::compute(&ChipVqa::standard());
    // the paper's majority rows, exact
    assert_eq!(stats.by_visual[0], (VisualKind::Schematic, 53));
    assert_eq!(stats.by_visual[1], (VisualKind::Diagram, 29));
    assert_eq!(stats.by_visual[2], (VisualKind::Layout, 16));
    // twelve kinds, summing to the full collection
    assert_eq!(stats.by_visual.len(), 12);
    assert_eq!(stats.by_visual.iter().map(|&(_, n)| n).sum::<usize>(), 142);
}

#[test]
fn prompt_token_spread_matches_paper_band() {
    let bench = ChipVqa::standard();
    let counts: Vec<usize> = bench.iter().map(|q| count_tokens(&q.prompt)).collect();
    let min = *counts.iter().min().expect("nonempty");
    let max = *counts.iter().max().expect("nonempty");
    assert!(min <= 8, "paper min is 5 tokens; got {min}");
    assert!(
        (300..=400).contains(&max),
        "paper max is 370 tokens; got {max}"
    );
}

#[test]
fn every_question_is_well_formed() {
    let bench = ChipVqa::standard();
    let judge = RuleJudge::new();
    let mut ids = BTreeSet::new();
    for q in bench.iter() {
        assert!(ids.insert(q.id.clone()), "duplicate id {}", q.id);
        assert!(!q.prompt.is_empty(), "{}", q.id);
        assert!(q.visual.image.ink_pixels() > 0, "{}: blank visual", q.id);
        for &m in &q.key_marks {
            assert!(m < q.visual.marks.len(), "{}: dangling mark {m}", q.id);
        }
        if let QuestionKind::MultipleChoice { choices, correct } = &q.kind {
            assert!(*correct < 4, "{}", q.id);
            let set: BTreeSet<&String> = choices.iter().collect();
            assert_eq!(set.len(), 4, "{}: duplicate choices {choices:?}", q.id);
        }
        // the gold must be self-consistent under the judge
        assert!(
            judge.is_correct(q, &q.golden_text()),
            "{}: gold '{}' fails its own judge",
            q.id,
            q.golden_text()
        );
        // and no distractor may be judged correct
        if let QuestionKind::MultipleChoice { choices, correct } = &q.kind {
            for (i, c) in choices.iter().enumerate() {
                if i != *correct {
                    let lettered = format!("({}) {c}", (b'a' + i as u8) as char);
                    assert!(
                        !judge.is_correct(q, &lettered),
                        "{}: distractor '{lettered}' judged correct",
                        q.id
                    );
                }
            }
        }
    }
}

#[test]
fn golden_stats_and_ids_are_frozen() {
    // The executor's cache and checkpoints key on question ids and
    // prompt hashes, so the standard collection's identity must be
    // frozen: Table-I counts exactly, and the id sequence stable across
    // regenerations (ids are `<category>-<index>` with zero-padded,
    // gap-free, per-category indices in collection order).
    let bench = ChipVqa::standard();
    let stats = DatasetStats::compute(&bench);
    assert_eq!(
        (stats.total, stats.multiple_choice, stats.short_answer),
        (142, 99, 43)
    );
    let per_cat: Vec<(Category, usize)> = stats.by_category.clone();
    assert_eq!(
        per_cat,
        vec![
            (Category::Digital, 35),
            (Category::Analog, 44),
            (Category::Architecture, 20),
            (Category::Manufacture, 20),
            (Category::Physical, 23),
        ]
    );

    let mut next_index: std::collections::BTreeMap<&str, usize> = Default::default();
    for q in bench.iter() {
        let (prefix, index) = q.id.split_once('-').expect("dash-separated id");
        assert_eq!(index.len(), 3, "{}: zero-padded 3-digit index", q.id);
        let counter = next_index
            .entry(match q.category {
                Category::Digital => "digital",
                Category::Analog => "analog",
                Category::Architecture => "arch",
                Category::Manufacture => "manuf",
                Category::Physical => "physical",
            })
            .or_default();
        assert_eq!(prefix, q.id.split('-').next().unwrap());
        assert_eq!(
            index.parse::<usize>().expect("numeric index"),
            *counter,
            "{}: per-category indices are gap-free in order",
            q.id
        );
        *counter += 1;
    }

    // regeneration yields the same ids in the same order — cache keys
    // and checkpoints stay valid across processes
    let again = ChipVqa::standard();
    let ids: Vec<&String> = bench.iter().map(|q| &q.id).collect();
    let ids_again: Vec<&String> = again.iter().map(|q| &q.id).collect();
    assert_eq!(ids, ids_again);
    assert_eq!(ids.first().map(|s| s.as_str()), Some("digital-000"));

    // prompts (and hence prompt hashes) are equally frozen
    use chipvqa::eval::cache::prompt_hash;
    for (a, b) in bench.iter().zip(again.iter()) {
        assert_eq!(prompt_hash(a), prompt_hash(b), "{}", a.id);
    }
}

#[test]
fn categories_match_id_prefixes() {
    let bench = ChipVqa::standard();
    for q in bench.iter() {
        let prefix = q.id.split('-').next().expect("dash-separated id");
        let expected = match q.category {
            Category::Digital => "digital",
            Category::Analog => "analog",
            Category::Architecture => "arch",
            Category::Manufacture => "manuf",
            Category::Physical => "physical",
        };
        assert_eq!(prefix, expected, "{}", q.id);
    }
}

#[test]
fn different_seed_same_structure_different_content() {
    let a = ChipVqa::standard();
    let b = ChipVqa::with_seed(12345);
    let sa = DatasetStats::compute(&a);
    let sb = DatasetStats::compute(&b);
    assert_eq!(sa.total, sb.total);
    assert_eq!(sa.multiple_choice, sb.multiple_choice);
    assert_eq!(
        sa.by_category, sb.by_category,
        "structure is seed-independent"
    );
    let differing = a
        .iter()
        .zip(b.iter())
        .filter(|(x, y)| x.prompt != y.prompt || x.kind != y.kind)
        .count();
    assert!(
        differing > 40,
        "content must vary with the seed: {differing}"
    );
}

#[test]
fn extended_golden_stats_and_ids_are_frozen() {
    // Mirror of `golden_stats_and_ids_are_frozen` for the extension
    // set: cache keys and checkpoints taken over `extended()` must stay
    // valid across regenerations, so its identity is frozen too.
    let ext = ChipVqa::extended();
    let stats = DatasetStats::compute(&ext);
    assert_eq!(
        (stats.total, stats.multiple_choice, stats.short_answer),
        (160, 99, 61)
    );
    assert_eq!(
        stats.by_category,
        vec![
            (Category::Digital, 38),
            (Category::Analog, 50),
            (Category::Architecture, 23),
            (Category::Manufacture, 21),
            (Category::Physical, 28),
        ]
    );

    // the standard collection is a verbatim prefix, and the extension
    // ids continue from 100 in a frozen order
    let std = ChipVqa::standard();
    for (a, b) in std.iter().zip(ext.iter()) {
        assert_eq!(a, b);
    }
    let ext_ids: Vec<&str> = ext.iter().skip(std.len()).map(|q| q.id.as_str()).collect();
    assert_eq!(
        ext_ids,
        vec![
            "digital-100",
            "digital-101",
            "digital-102",
            "analog-100",
            "analog-101",
            "analog-102",
            "analog-110",
            "analog-111",
            "analog-120",
            "arch-100",
            "arch-101",
            "arch-102",
            "physical-100",
            "physical-101",
            "physical-102",
            "physical-110",
            "physical-111",
            "manuf-100",
        ]
    );

    // regeneration is id- and prompt-hash-stable
    use chipvqa::eval::cache::prompt_hash;
    let again = ChipVqa::extended();
    for (a, b) in ext.iter().zip(again.iter()) {
        assert_eq!(a.id, b.id);
        assert_eq!(prompt_hash(a), prompt_hash(b), "{}", a.id);
    }
}

#[test]
fn dataset_spec_at_scale_one_is_the_standard_collection() {
    // The scale engine's identity anchor: the default spec reproduces
    // `standard()` exactly — same 142 questions, same ids, same order —
    // so spec-keyed cache entries and canonical ones describe the same
    // dataset at scale 1.
    use chipvqa::core::DatasetSpec;
    let spec = DatasetSpec::default();
    let built = spec.build();
    let std = ChipVqa::standard();
    assert_eq!(built.len(), 142);
    let built_ids: Vec<&String> = built.iter().map(|q| &q.id).collect();
    let std_ids: Vec<&String> = std.iter().map(|q| &q.id).collect();
    assert_eq!(built_ids, std_ids);
    for (a, b) in built.iter().zip(std.iter()) {
        assert_eq!(a, b, "{}", a.id);
    }
}

#[test]
fn streamed_scale10_report_bytes_are_frozen() {
    // PR 9's behaviour-neutrality wall: the hot-path speed campaign
    // (row-sliced raster primitives, shared-downsample perception,
    // solver memoization) must change ZERO report bytes. This freezes
    // the canonical JSON of the full streamed `table2 --scale 10` grid
    // — every zoo model, standard and challenge columns — against a
    // hash captured before the optimizations landed. Re-capture (only
    // for a deliberate behaviour change) with CHIPVQA_PRINT_GOLDENS=1.
    use chipvqa::core::{DatasetSpec, BASE_SIZE};
    use chipvqa::eval::harness::EvalOptions;
    use chipvqa::eval::report::{ModelRow, Table2};
    use chipvqa::eval::ParallelExecutor;
    use chipvqa::models::{ModelZoo, VlmPipeline};

    let standard = DatasetSpec::scaled(10);
    let challenge = standard.clone().with_mc_sa_ratio(0.0);
    let exec = ParallelExecutor::new(4);
    let rows = ModelZoo::all()
        .into_iter()
        .map(|profile| {
            let pipe = VlmPipeline::new(profile);
            let (std_report, _) =
                exec.evaluate_spec_stream(&pipe, &standard, BASE_SIZE, EvalOptions::default());
            let (chal_report, _) =
                exec.evaluate_spec_stream(&pipe, &challenge, BASE_SIZE, EvalOptions::default());
            ModelRow {
                standard: std_report,
                challenge: chal_report,
            }
        })
        .collect();
    let mut table = Table2 { rows };
    // cache_stats is run metadata (excluded from report equality and
    // from table2 --report-json); null it the same way the bin does.
    for row in &mut table.rows {
        row.standard.cache_stats = None;
        row.challenge.cache_stats = None;
    }
    let json = serde_json::to_string(&table).expect("table serializes");
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in json.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    if std::env::var("CHIPVQA_PRINT_GOLDENS").is_ok() {
        println!(
            "streamed scale-10 report hash: 0x{h:016x} ({} bytes)",
            json.len()
        );
        return;
    }
    const FROZEN: u64 = 0x24a58e347df841cf;
    assert_eq!(
        h, FROZEN,
        "streamed --scale 10 report bytes drifted (got 0x{h:016x}); \
         the perf campaign must be behaviour-neutral"
    );
}

#[test]
fn resolution_study_report_bytes_are_frozen() {
    // The paper's resolution study (§IV-B) byte for byte: perception at
    // external downsampling factors above 1, through three encoder
    // resolutions (224, 336 and 1024 px), so every (question, key mark)
    // legibility at every total factor these imply is pinned by report
    // bytes. Re-capture (only for a deliberate behaviour change) with
    // CHIPVQA_PRINT_GOLDENS=1.
    use chipvqa::eval::harness::{evaluate, EvalOptions};
    use chipvqa::models::{ModelZoo, VlmPipeline};

    let bench = ChipVqa::standard();
    let mut reports = Vec::new();
    for profile in [
        ModelZoo::kosmos_2(),
        ModelZoo::llava_7b(),
        ModelZoo::gpt4o(),
    ] {
        let pipe = VlmPipeline::new(profile);
        for downsample in [2, 4, 8, 16] {
            let options = EvalOptions {
                downsample,
                ..EvalOptions::default()
            };
            reports.push(evaluate(&pipe, &bench, options));
        }
    }
    let json = serde_json::to_string(&reports).expect("reports serialize");
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in json.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    if std::env::var("CHIPVQA_PRINT_GOLDENS").is_ok() {
        println!(
            "resolution-study report hash: 0x{h:016x} ({} bytes)",
            json.len()
        );
        return;
    }
    const FROZEN: u64 = 0xb854003435c8cea9;
    assert_eq!(
        h, FROZEN,
        "resolution-study report bytes drifted (got 0x{h:016x})"
    );
}
