//! Solver-backed question generators, one module per discipline.
//!
//! Each generator builds domain objects with seeded parameters, derives
//! the golden answer with the corresponding substrate solver, renders the
//! visual, and (for multiple choice) manufactures plausible distractors
//! the way the paper describes: *"answer choices are syntactically and
//! even semantically similar to each other, as well as logically
//! plausible"*.

pub mod analog;
pub mod architecture;
pub mod digital;
pub mod extension;
pub mod manufacturing;
pub mod memo;
pub mod physical;
pub mod verify;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;

use crate::question::trim_float;

/// Produces replica block `replica` of a category: the generator re-run
/// with the replica-mixed seed, ids renumbered past the preceding
/// replicas (`{prefix}-{replica·block + i}`). Replica 0 is the base
/// output verbatim — the identity anchor of the scale engine.
pub(crate) fn replica_block(
    generate: fn(u64) -> Vec<crate::question::Question>,
    seed: u64,
    replica: usize,
    prefix: &str,
) -> Vec<crate::question::Question> {
    if replica == 0 {
        return generate(seed);
    }
    let mut block = generate(crate::spec::replica_seed(seed, replica));
    let size = block.len();
    for (i, q) in block.iter_mut().enumerate() {
        q.id = format!("{prefix}-{:03}", replica * size + i);
    }
    block
}

/// Builds a shuffled four-option MC answer set from the gold text and
/// three distractors, returning `(choices, correct_index)`.
///
/// # Panics
///
/// Panics if fewer than three distinct distractors are supplied.
pub(crate) fn shuffle_choices(
    gold: String,
    distractors: Vec<String>,
    rng: &mut StdRng,
) -> ([String; 4], usize) {
    let mut uniq: Vec<String> = Vec::new();
    for d in distractors {
        if d != gold && !uniq.contains(&d) {
            uniq.push(d);
        }
    }
    assert!(
        uniq.len() >= 3,
        "need three distinct distractors, got {uniq:?} vs gold {gold:?}"
    );
    uniq.truncate(3);
    let mut all = vec![gold.clone()];
    all.extend(uniq);
    all.shuffle(rng);
    let correct = all.iter().position(|c| *c == gold).expect("gold present");
    (
        [
            all[0].clone(),
            all[1].clone(),
            all[2].clone(),
            all[3].clone(),
        ],
        correct,
    )
}

/// Distractors for a numeric gold: common error patterns (halved,
/// doubled, off-by-style perturbations), all formatted like the gold.
pub(crate) fn numeric_distractors(gold: f64, unit: Option<&str>, rng: &mut StdRng) -> Vec<String> {
    let fmt = |v: f64| -> String {
        match unit {
            Some(u) => format!("{} {}", trim_float(v), u),
            None => trim_float(v),
        }
    };
    let mut cands: Vec<f64> = vec![
        gold * 2.0,
        gold / 2.0,
        gold * 1.5,
        gold + gold.abs().max(1.0) * 0.2 + 1.0,
        -gold,
        gold - gold.abs().max(1.0) * 0.3 - 1.0,
    ];
    cands.shuffle(rng);
    let mut out = Vec::new();
    for v in cands {
        let s = fmt(v);
        if s != fmt(gold) && !out.contains(&s) {
            out.push(s);
        }
        if out.len() == 5 {
            break;
        }
    }
    out
}

/// Picks a pseudo-random element (seeded, deterministic).
pub(crate) fn pick<'a, T>(items: &'a [T], rng: &mut StdRng) -> &'a T {
    &items[rng.gen_range(0..items.len())]
}

/// Renders a panel of text lines as an image, one mark per line — the
/// generic visual for bit patterns, equation sets, state sequences and
/// flow charts.
pub(crate) fn text_panel(lines: &[String], with_arrows: bool) -> chipvqa_raster::Annotated {
    use chipvqa_raster::{Annotated, Pixmap, Region, BLACK};
    let widest = lines.iter().map(|l| l.len()).max().unwrap_or(1);
    let w = (widest as i64 * 12 + 60).max(220) as usize;
    let h = (lines.len() as i64 * 44 + 50) as usize;
    let mut img = Pixmap::new(w, h.max(80));
    let mut out = Annotated::new(Pixmap::new(1, 1));
    let mut marks = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        let y = 30 + i as i64 * 44;
        img.draw_text(30, y, line, 2, BLACK);
        if with_arrows && i + 1 < lines.len() {
            img.draw_arrow(18, y + 18, 18, y + 40, 2, BLACK);
        }
        marks.push((
            format!("line {i}: {line}"),
            Region::new(
                26,
                (y - 4).max(0) as usize,
                (line.len() * 12 + 12).min(w),
                30,
            ),
        ));
    }
    out.image = img;
    for (label, region) in marks {
        out.mark(label, region);
    }
    out
}

/// Distractor boolean expressions near `gold`: minimized SOPs of
/// functions that differ from gold's truth table in one or two minterms
/// (syntactically similar, logically plausible, never equivalent).
///
/// The table is built over the *full* variable list `vars` (not just the
/// variables surviving in `gold`), so a heavily-minimized gold still has
/// a rich neighbourhood of distinct functions to draw from.
pub(crate) fn expr_distractors(
    gold: &chipvqa_logic::Expr,
    vars: &[char],
    rng: &mut StdRng,
    want: usize,
) -> Vec<String> {
    let table = gold
        .truth_table_over(vars)
        .expect("generator exprs are small");
    let rows = table.outputs.len();
    let mut out: Vec<String> = Vec::new();
    let mut guard = 0;
    // One flip buffer reused across attempts (the loop runs up to 200
    // times); each attempt restores the gold outputs in place.
    let mut flipped = table.clone();
    while out.len() < want && guard < 200 {
        guard += 1;
        flipped.outputs.copy_from_slice(&table.outputs);
        let flips = 1 + rng.gen_range(0..2);
        for _ in 0..flips {
            let i = rng.gen_range(0..rows);
            flipped.outputs[i] = !flipped.outputs[i];
        }
        let cand = chipvqa_logic::minimize::minimize_table(&flipped);
        if matches!(cand, chipvqa_logic::Expr::Const(_)) {
            continue;
        }
        let text = cand.to_string();
        if !out.contains(&text)
            && !cand.equivalent(gold).unwrap_or(true)
            && text != gold.to_string()
        {
            out.push(text);
        }
    }
    assert!(out.len() >= want, "could not build {want} expr distractors");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn shuffle_keeps_gold_reachable() {
        let mut rng = StdRng::seed_from_u64(7);
        let (choices, correct) = shuffle_choices(
            "42".into(),
            vec!["21".into(), "84".into(), "63".into(), "42".into()],
            &mut rng,
        );
        assert_eq!(choices[correct], "42");
        let mut sorted = choices.to_vec();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), 4, "choices distinct: {choices:?}");
    }

    #[test]
    #[should_panic(expected = "three distinct")]
    fn too_few_distractors_panics() {
        let mut rng = StdRng::seed_from_u64(7);
        let _ = shuffle_choices("42".into(), vec!["42".into(), "21".into()], &mut rng);
    }

    #[test]
    fn numeric_distractors_distinct_from_gold() {
        let mut rng = StdRng::seed_from_u64(3);
        for gold in [5.5, -3.0, 100.0, 0.25] {
            let d = numeric_distractors(gold, Some("V"), &mut rng);
            assert!(d.len() >= 3, "{gold}: {d:?}");
            assert!(d.iter().all(|s| *s != format!("{} V", trim_float(gold))));
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = digital::generate(42);
        let b = digital::generate(42);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.prompt, y.prompt);
            assert_eq!(x.kind, y.kind);
        }
        let c = digital::generate(43);
        assert!(
            a.iter()
                .zip(&c)
                .any(|(x, y)| x.prompt != y.prompt || x.kind != y.kind),
            "different seeds should vary parameters"
        );
    }
}
