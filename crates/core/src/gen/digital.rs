//! Digital Design question generator: 35 multiple-choice questions over
//! logic derivation, circuit analysis, data representation and memory
//! elements — the topic list of §III-B.1.

use chipvqa_logic::expr::{Expr, TruthTable};
use chipvqa_logic::seq::{FlipFlop, StateTable};
use chipvqa_logic::{builders, minimize, numbers, render};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use super::{expr_distractors, numeric_distractors, pick, shuffle_choices, text_panel};
use crate::question::{
    trim_float, AnswerSpec, Category, Difficulty, Question, QuestionKind, VisualKind,
};

/// Questions per replica block (Table I's Digital count).
pub const BLOCK_SIZE: usize = 35;

/// Replica block `replica` for the scale engine: the same family
/// sequence under the replica-mixed seed, ids renumbered past the
/// preceding blocks. Replica 0 is [`generate`] verbatim.
pub fn generate_replica(seed: u64, replica: usize) -> Vec<Question> {
    super::replica_block(generate, seed, replica, "digital")
}

/// Generates the 35-question Digital Design set (all multiple choice).
pub fn generate(seed: u64) -> Vec<Question> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xD161);
    let mut out = Vec::with_capacity(35);
    let mut idx = 0usize;
    let push = |q: Question, out: &mut Vec<Question>| {
        out.push(q);
    };

    // 3 x state-table derivation (mixed). The first is the paper's own
    // flagship example, verbatim.
    for k in 0..3 {
        push(state_table_question(k, &mut idx, &mut rng), &mut out);
    }
    // 5 x K-map minimisation (table)
    for _ in 0..5 {
        push(kmap_question(&mut idx, &mut rng), &mut out);
    }
    // 6 x schematic -> expression
    for _ in 0..6 {
        push(schematic_function_question(&mut idx, &mut rng), &mut out);
    }
    // 3 x identify the block (schematic)
    for block in 0..3 {
        push(identify_block_question(block, &mut idx, &mut rng), &mut out);
    }
    // 3 x critical path (schematic)
    for _ in 0..3 {
        push(critical_path_question(&mut idx, &mut rng), &mut out);
    }
    // 4 x two's complement (diagram)
    for _ in 0..4 {
        push(twos_complement_question(&mut idx, &mut rng), &mut out);
    }
    // 2 x gray code (diagram)
    for _ in 0..2 {
        push(gray_code_question(&mut idx, &mut rng), &mut out);
    }
    // 2 x overflow (diagram)
    for _ in 0..2 {
        push(overflow_question(&mut idx, &mut rng), &mut out);
    }
    // 2 x waveform / flip-flop behaviour (figure)
    for k in 0..2 {
        push(waveform_question(k, &mut idx, &mut rng), &mut out);
    }
    // 2 x counter sequence (structure)
    for _ in 0..2 {
        push(counter_question(&mut idx, &mut rng), &mut out);
    }
    // 2 x characteristic equations (equations)
    for k in 0..2 {
        push(characteristic_question(k, &mut idx, &mut rng), &mut out);
    }
    // 1 x design flow (flow)
    push(flow_question(&mut idx, &mut rng), &mut out);

    assert_eq!(out.len(), 35);
    out
}

fn next_id(idx: &mut usize) -> String {
    let id = format!("digital-{idx:03}");
    *idx += 1;
    id
}

fn state_table_question(k: usize, idx: &mut usize, rng: &mut StdRng) -> Question {
    let (table, gold) = if k == 0 {
        // The paper's example: gold is exactly "S'Q + SR'". QM derives an
        // equivalent cover (term/factor order may differ), so the display
        // form is pinned to the paper's literal text after verifying
        // equivalence.
        let t = StateTable::paper_example();
        let derived = t.next_state_expr(0);
        let paper = Expr::parse("S'Q + SR'").expect("well-formed");
        assert!(
            derived.equivalent(&paper).expect("small expr"),
            "state table must minimize to the paper's answer"
        );
        (t, paper)
    } else {
        // A random single-bit machine over inputs S, R.
        loop {
            let rows: Vec<usize> = (0..8).map(|_| rng.gen_range(0..2)).collect();
            let Ok(t) = StateTable::new(1, vec!['S', 'R'], rows) else {
                continue;
            };
            let g = t.next_state_expr(0);
            if !matches!(g, Expr::Const(_)) && g.literal_count() >= 2 {
                break (t, g);
            }
        }
    };
    let vis = render::render_state_table(&table);
    let key_marks: Vec<usize> = (0..vis.marks.len()).collect();
    let gold_text = format!("Q = {gold}");
    let mut dvars = table.state_var_names();
    dvars.extend(table.input_names().iter().copied());
    let distractors: Vec<String> = expr_distractors(&gold, &dvars, rng, 3)
        .into_iter()
        .map(|d| format!("Q = {d}"))
        .collect();
    let (choices, correct) = shuffle_choices(gold_text, distractors, rng);
    Question {
        id: next_id(idx),
        category: Category::Digital,
        visual_kind: VisualKind::Mixed,
        prompt: "Derive the function for Q given the state table and excitation maps as shown \
                 in the figure. Q denotes the present state and the table lists the next state \
                 for every input combination."
            .into(),
        kind: QuestionKind::MultipleChoice { choices, correct },
        answer: AnswerSpec::BoolExpr {
            canonical: gold.to_string(),
        },
        difficulty: Difficulty::new(0.55, 3, 0.95, false),
        visual: vis.into(),
        key_marks,
    }
}

fn random_function(rng: &mut StdRng, vars: usize) -> TruthTable {
    loop {
        let rows = 1usize << vars;
        let outputs: Vec<bool> = (0..rows).map(|_| rng.gen_bool(0.4)).collect();
        let ones = outputs.iter().filter(|&&b| b).count();
        if ones >= 2 && ones < rows - 1 {
            let names: Vec<char> = ('A'..).take(vars).collect();
            return TruthTable::new(names, outputs);
        }
    }
}

fn kmap_question(idx: &mut usize, rng: &mut StdRng) -> Question {
    let vars = 3 + rng.gen_range(0..2); // 3 or 4
    let table = random_function(rng, vars);
    let gold = minimize::minimize_table(&table);
    let vis = render::render_kmap(&table);
    let key_marks: Vec<usize> = (0..vis.marks.len()).collect();
    let gold_text = format!("F = {gold}");
    let distractors: Vec<String> = expr_distractors(&gold, &table.vars, rng, 3)
        .into_iter()
        .map(|d| format!("F = {d}"))
        .collect();
    let (choices, correct) = shuffle_choices(gold_text, distractors, rng);
    Question {
        id: next_id(idx),
        category: Category::Digital,
        visual_kind: VisualKind::Table,
        prompt: format!(
            "The Karnaugh map of a {vars}-variable function F is shown. Group the ones and \
             select the minimized sum-of-products expression for F."
        ),
        kind: QuestionKind::MultipleChoice { choices, correct },
        answer: AnswerSpec::BoolExpr {
            canonical: gold.to_string(),
        },
        difficulty: Difficulty::new(0.4, 2, 0.95, false),
        visual: vis.into(),
        key_marks,
    }
}

fn schematic_function_question(idx: &mut usize, rng: &mut StdRng) -> Question {
    let table = random_function(rng, 3);
    let gold = minimize::minimize_table(&table);
    let netlist = chipvqa_logic::Netlist::from_expr(&gold);
    let vis = render::render_schematic(&netlist);
    let key_marks: Vec<usize> = (0..vis.marks.len()).collect();
    let gold_text = format!("f = {gold}");
    let distractors: Vec<String> = expr_distractors(&gold, &table.vars, rng, 3)
        .into_iter()
        .map(|d| format!("f = {d}"))
        .collect();
    let (choices, correct) = shuffle_choices(gold_text, distractors, rng);
    Question {
        id: next_id(idx),
        category: Category::Digital,
        visual_kind: VisualKind::Schematic,
        prompt: "The gate-level schematic of a combinational block is shown with inputs on the \
                 left and the output f on the right. Which boolean expression does the circuit \
                 compute?"
            .into(),
        kind: QuestionKind::MultipleChoice { choices, correct },
        answer: AnswerSpec::BoolExpr {
            canonical: gold.to_string(),
        },
        difficulty: Difficulty::new(0.35, 2, 1.0, false),
        visual: vis.into(),
        key_marks,
    }
}

fn identify_block_question(block: usize, idx: &mut usize, rng: &mut StdRng) -> Question {
    let (netlist, gold, aliases) = match block {
        0 => (
            builders::half_adder(),
            "half adder",
            vec!["1-bit half adder".to_string()],
        ),
        1 => (
            builders::full_adder(),
            "full adder",
            vec!["1-bit full adder".to_string()],
        ),
        _ => (
            builders::mux2(),
            "2-to-1 multiplexer",
            vec![
                "mux".to_string(),
                "2:1 mux".to_string(),
                "multiplexer".to_string(),
            ],
        ),
    };
    let vis = render::render_schematic(&netlist);
    let key_marks: Vec<usize> = (0..vis.marks.len()).collect();
    let all = [
        "half adder",
        "full adder",
        "2-to-1 multiplexer",
        "2-to-4 decoder",
        "comparator",
        "parity generator",
    ];
    let distractors: Vec<String> = all
        .iter()
        .filter(|&&n| n != gold)
        .map(|&n| n.to_string())
        .collect();
    let (choices, correct) = shuffle_choices(gold.to_string(), distractors, rng);
    Question {
        id: next_id(idx),
        category: Category::Digital,
        visual_kind: VisualKind::Schematic,
        prompt: "The figure shows the calculation circuit diagram of a small combinational \
                 block. What is this circuit usually called?"
            .into(),
        kind: QuestionKind::MultipleChoice { choices, correct },
        answer: AnswerSpec::Text {
            canonical: gold.to_string(),
            aliases,
        },
        difficulty: Difficulty::new(0.25, 1, 1.0, false),
        visual: vis.into(),
        key_marks,
    }
}

fn critical_path_question(idx: &mut usize, rng: &mut StdRng) -> Question {
    let width = 2 + rng.gen_range(0..3); // 2..4 bits
    let adder = builders::ripple_carry_adder(width);
    let gold = adder.depth() as f64;
    let vis = render::render_schematic(&adder);
    let key_marks: Vec<usize> = (0..vis.marks.len().min(8)).collect();
    let distractors = numeric_distractors(gold, Some("gate delays"), rng);
    let (choices, correct) = shuffle_choices(
        format!("{} gate delays", trim_float(gold)),
        distractors,
        rng,
    );
    Question {
        id: next_id(idx),
        category: Category::Digital,
        visual_kind: VisualKind::Schematic,
        prompt: format!(
            "The schematic shows a {width}-bit ripple-carry adder built from XOR, AND and OR \
             gates. Counting each gate as one delay, how many gate delays lie on the longest \
             input-to-output path?"
        ),
        kind: QuestionKind::MultipleChoice { choices, correct },
        answer: AnswerSpec::Numeric {
            value: gold,
            tolerance: 0.01,
            unit: Some("gate delays".into()),
        },
        difficulty: Difficulty::new(0.45, 3, 0.8, true),
        visual: vis.into(),
        key_marks,
    }
}

fn twos_complement_question(idx: &mut usize, rng: &mut StdRng) -> Question {
    let value: i64 = rng.gen_range(-128..=-2); // negative keeps it interesting
    let bits = numbers::twos_complement(value, 8).expect("in range");
    let pattern = format!("{bits:08b}");
    let vis = text_panel(
        &[
            "8-bit register contents:".to_string(),
            pattern.clone(),
            "interpretation: two's complement".to_string(),
        ],
        false,
    );
    let gold = value as f64;
    let mut distractors = vec![
        trim_float(bits as f64),                // unsigned reading
        trim_float(-((bits & 0x7F) as f64)),    // sign-magnitude reading
        trim_float(-(((!bits) & 0xFF) as f64)), // negated one's complement confusion
        trim_float(gold + 1.0),
    ];
    // Degenerate draws exist (value −64: the sign-magnitude reading IS the
    // gold, and the one's-complement confusion always equals gold+1), so
    // append fallbacks; they are only reached when the confusions collapse,
    // since shuffle_choices keeps the first three distinct entries.
    distractors.push(trim_float(gold - 1.0));
    distractors.push(trim_float(gold * 2.0));
    distractors.retain(|d| *d != trim_float(gold));
    let (choices, correct) = shuffle_choices(trim_float(gold), distractors, rng);
    Question {
        id: next_id(idx),
        category: Category::Digital,
        visual_kind: VisualKind::Diagram,
        prompt: "The diagram shows the contents of an 8-bit register. Interpreting the pattern \
                 as a two's-complement signed integer, what decimal value does it hold?"
            .into(),
        kind: QuestionKind::MultipleChoice { choices, correct },
        answer: AnswerSpec::Numeric {
            value: gold,
            tolerance: 0.01,
            unit: None,
        },
        difficulty: Difficulty::new(0.3, 2, 0.9, true),
        visual: vis.into(),
        key_marks: vec![1],
    }
}

fn gray_code_question(idx: &mut usize, rng: &mut StdRng) -> Question {
    let value: u64 = rng.gen_range(5..60);
    let gray = numbers::to_gray(value);
    let pattern = format!("{gray:06b}");
    let vis = text_panel(
        &["Gray-code encoder output:".to_string(), pattern.clone()],
        false,
    );
    let gold = value as f64;
    let mut distractors = vec![
        trim_float(gray as f64), // read as plain binary
        trim_float(gold + 1.0),
        trim_float(gold - 1.0),
        trim_float(numbers::to_gray(gray) as f64), // double-encoded
    ];
    // Degenerate draws exist (value 6: gray is 5 and the double-encoding
    // is 7, both colliding with value±1), so append fallbacks; they are
    // only reached when the confusions collapse, since shuffle_choices
    // keeps the first three distinct entries.
    distractors.push(trim_float(gold + 2.0));
    distractors.push(trim_float(gold - 2.0));
    distractors.retain(|d| *d != trim_float(gold));
    let (choices, correct) = shuffle_choices(trim_float(gold), distractors, rng);
    Question {
        id: next_id(idx),
        category: Category::Digital,
        visual_kind: VisualKind::Diagram,
        prompt: "A position sensor outputs the 6-bit Gray-code word shown in the diagram. What \
                 binary-weighted (decimal) position does it encode?"
            .into(),
        kind: QuestionKind::MultipleChoice { choices, correct },
        answer: AnswerSpec::Numeric {
            value: gold,
            tolerance: 0.01,
            unit: None,
        },
        difficulty: Difficulty::new(0.4, 2, 0.9, true),
        visual: vis.into(),
        key_marks: vec![1],
    }
}

fn overflow_question(idx: &mut usize, rng: &mut StdRng) -> Question {
    // bias towards interesting same-sign additions
    let a: i64 = rng.gen_range(60..=120);
    let b: i64 = rng.gen_range(20..=120);
    let r = numbers::add_twos_complement(a, b, 8).expect("in range");
    let gold = match (r.overflow, r.carry_out) {
        (true, true) => "overflow with carry out",
        (true, false) => "overflow, no carry out",
        (false, true) => "no overflow, carry out set",
        (false, false) => "no overflow, no carry out",
    };
    let vis = text_panel(
        &[
            format!("A = {a} ({:08b})", numbers::twos_complement(a, 8).unwrap()),
            format!("B = {b} ({:08b})", numbers::twos_complement(b, 8).unwrap()),
            "8-bit two's-complement adder".to_string(),
        ],
        false,
    );
    let distractors: Vec<String> = [
        "overflow with carry out",
        "overflow, no carry out",
        "no overflow, carry out set",
        "no overflow, no carry out",
    ]
    .iter()
    .filter(|&&s| s != gold)
    .map(|&s| s.to_string())
    .collect();
    let (choices, correct) = shuffle_choices(gold.to_string(), distractors, rng);
    Question {
        id: next_id(idx),
        category: Category::Digital,
        visual_kind: VisualKind::Diagram,
        prompt: "Two signed operands shown in the diagram are added in an 8-bit two's-complement \
                 ALU. Which statement correctly describes the status flags after the addition?"
            .into(),
        kind: QuestionKind::MultipleChoice { choices, correct },
        answer: AnswerSpec::Text {
            canonical: gold.to_string(),
            aliases: vec![],
        },
        difficulty: Difficulty::new(0.45, 3, 0.85, true),
        visual: vis.into(),
        key_marks: vec![0, 1],
    }
}

fn waveform_question(k: usize, idx: &mut usize, rng: &mut StdRng) -> Question {
    let (ff, gold) = if k == 0 {
        (FlipFlop::T, "T flip-flop")
    } else {
        (FlipFlop::D, "D flip-flop")
    };
    // simulate output over 6 clock edges with input held high / a pattern
    let input = [true, true, false, true, false, true];
    let mut q = false;
    let mut q_trace = Vec::new();
    for &i in &input {
        q = ff.next_state(q, &[i]).expect("D and T never reject inputs");
        q_trace.push(q);
    }
    let clk = [true, false, true, false, true, false];
    let vis =
        render::render_waveform(&[("CLK", &clk[..]), ("IN", &input[..]), ("Q", &q_trace[..])]);
    let key_marks: Vec<usize> = (0..vis.marks.len()).collect();
    let distractors: Vec<String> = ["D flip-flop", "T flip-flop", "SR latch", "JK flip-flop"]
        .iter()
        .filter(|&&s| s != gold)
        .map(|&s| s.to_string())
        .collect();
    let (choices, correct) = shuffle_choices(gold.to_string(), distractors, rng);
    Question {
        id: next_id(idx),
        category: Category::Digital,
        visual_kind: VisualKind::Figure,
        prompt: "The timing diagram shows a clock, a synchronous input IN and the output Q of a \
                 single storage element sampled on each rising edge. Which memory element \
                 produces this behaviour?"
            .into(),
        kind: QuestionKind::MultipleChoice { choices, correct },
        answer: AnswerSpec::Text {
            canonical: gold.to_string(),
            aliases: vec![gold.replace(" flip-flop", " FF")],
        },
        difficulty: Difficulty::new(0.4, 2, 1.0, false),
        visual: vis.into(),
        key_marks,
    }
}

fn counter_question(idx: &mut usize, rng: &mut StdRng) -> Question {
    // 3-bit up-counter with a skip pattern: next = (state + step) mod 8
    let step = *pick(&[1usize, 2, 3], rng);
    let probe = rng.gen_range(0..8usize);
    let gold = (probe + step) % 8;
    let lines: Vec<String> = (0..4)
        .map(|i| {
            let s = (i * step) % 8;
            format!("state {i}: {s:03b}")
        })
        .collect();
    let vis = text_panel(&lines, true);
    let key_marks: Vec<usize> = (0..vis.marks.len()).collect();
    let gold_text = format!("{gold:03b}");
    let mut distractors = vec![
        format!("{:03b}", (probe + step + 1) % 8),
        format!("{:03b}", (probe + 8 - step) % 8),
        format!("{:03b}", probe),
        format!("{:03b}", (probe + 2 * step) % 8),
    ];
    distractors.retain(|d| *d != gold_text);
    let (choices, correct) = shuffle_choices(gold_text, distractors, rng);
    Question {
        id: next_id(idx),
        category: Category::Digital,
        visual_kind: VisualKind::Structure,
        prompt: format!(
            "The structure diagram lists the first states of a 3-bit counter that advances by a \
             fixed step each clock. Following the same pattern, what state follows {probe:03b}?"
        ),
        kind: QuestionKind::MultipleChoice { choices, correct },
        answer: AnswerSpec::Text {
            canonical: format!("{gold:03b}"),
            aliases: vec![gold.to_string()],
        },
        difficulty: Difficulty::new(0.35, 2, 0.9, true),
        visual: vis.into(),
        key_marks,
    }
}

fn characteristic_question(k: usize, idx: &mut usize, rng: &mut StdRng) -> Question {
    let (ff, gold) = if k == 0 {
        (FlipFlop::Jk, "JK flip-flop")
    } else {
        (FlipFlop::Sr, "SR flip-flop")
    };
    let eq = ff.characteristic();
    let lines = vec!["Characteristic equation:".to_string(), format!("Q+ = {eq}")];
    let vis = text_panel(&lines, false);
    let distractors: Vec<String> = ["D flip-flop", "T flip-flop", "JK flip-flop", "SR flip-flop"]
        .iter()
        .filter(|&&s| s != gold)
        .map(|&s| s.to_string())
        .collect();
    let (choices, correct) = shuffle_choices(gold.to_string(), distractors, rng);
    Question {
        id: next_id(idx),
        category: Category::Digital,
        visual_kind: VisualKind::Equations,
        prompt: "The figure shows the characteristic (next-state) equation of a clocked storage \
                 element, with Q as the present state. Which flip-flop type has this \
                 characteristic equation?"
            .into(),
        kind: QuestionKind::MultipleChoice { choices, correct },
        answer: AnswerSpec::Text {
            canonical: gold.to_string(),
            aliases: vec![gold.replace(" flip-flop", "")],
        },
        difficulty: Difficulty::new(0.45, 1, 0.95, false),
        visual: vis.into(),
        key_marks: vec![1],
    }
}

fn flow_question(idx: &mut usize, rng: &mut StdRng) -> Question {
    let steps = [
        "RTL design",
        "logic synthesis",
        "floorplanning",
        "placement",
        "clock tree synthesis",
        "routing",
        "signoff",
    ];
    let hole = rng.gen_range(1..steps.len() - 1);
    let gold = steps[hole];
    let lines: Vec<String> = steps
        .iter()
        .enumerate()
        .map(|(i, s)| {
            if i == hole {
                "???".to_string()
            } else {
                s.to_string()
            }
        })
        .collect();
    let vis = text_panel(&lines, true);
    let key_marks: Vec<usize> = (0..vis.marks.len()).collect();
    let distractors: Vec<String> = steps
        .iter()
        .filter(|&&s| s != gold)
        .take(4)
        .map(|&s| s.to_string())
        .collect();
    let (choices, correct) = shuffle_choices(gold.to_string(), distractors, rng);
    Question {
        id: next_id(idx),
        category: Category::Digital,
        visual_kind: VisualKind::Flow,
        prompt: "The flow chart shows a standard digital implementation flow with one stage \
                 hidden. Which stage belongs in the hidden box?"
            .into(),
        kind: QuestionKind::MultipleChoice { choices, correct },
        answer: AnswerSpec::Text {
            canonical: gold.to_string(),
            aliases: vec![],
        },
        difficulty: Difficulty::new(0.3, 1, 0.8, false),
        visual: vis.into(),
        key_marks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_counts_and_all_mc() {
        let qs = generate(0);
        assert_eq!(qs.len(), 35);
        assert!(qs.iter().all(|q| q.is_multiple_choice()));
        assert!(qs.iter().all(|q| q.category == Category::Digital));
    }

    #[test]
    fn visual_kind_distribution() {
        let qs = generate(0);
        let count = |k: VisualKind| qs.iter().filter(|q| q.visual_kind == k).count();
        assert_eq!(count(VisualKind::Schematic), 12);
        assert_eq!(count(VisualKind::Diagram), 8);
        assert_eq!(count(VisualKind::Table), 5);
        assert_eq!(count(VisualKind::Mixed), 3);
        assert_eq!(count(VisualKind::Equations), 2);
        assert_eq!(count(VisualKind::Structure), 2);
        assert_eq!(count(VisualKind::Figure), 2);
        assert_eq!(count(VisualKind::Flow), 1);
    }

    #[test]
    fn paper_flagship_question_present() {
        let qs = generate(0);
        let q = &qs[0];
        assert!(q.prompt.contains("Derive the function for Q"));
        let QuestionKind::MultipleChoice { choices, correct } = &q.kind else {
            panic!("flagship is MC");
        };
        assert_eq!(choices[*correct], "Q = S'Q + SR'");
    }

    #[test]
    fn mc_choices_are_distinct_and_contain_gold() {
        for q in generate(11) {
            let QuestionKind::MultipleChoice { choices, correct } = &q.kind else {
                panic!()
            };
            let mut set = choices.to_vec();
            set.sort();
            set.dedup();
            assert_eq!(set.len(), 4, "{}: {choices:?}", q.id);
            assert_eq!(&choices[*correct], &q.golden_text(), "{}", q.id);
        }
    }

    #[test]
    fn boolexpr_golds_verify_against_their_tables() {
        // The derived expression answers must not be constants (a
        // degenerate question) and must parse.
        for q in generate(5) {
            if let AnswerSpec::BoolExpr { canonical } = &q.answer {
                let e = Expr::parse(canonical).expect("canonical parses");
                assert!(e.literal_count() >= 1, "{}", q.id);
            }
        }
    }

    #[test]
    fn all_visuals_have_ink_and_marks() {
        for q in generate(2) {
            assert!(q.visual.image.ink_pixels() > 20, "{}", q.id);
            assert!(!q.visual.marks.is_empty(), "{}", q.id);
            for &m in &q.key_marks {
                assert!(m < q.visual.marks.len(), "{} key mark {m}", q.id);
            }
        }
    }

    #[test]
    fn ids_are_sequential() {
        let qs = generate(0);
        assert_eq!(qs[0].id, "digital-000");
        assert_eq!(qs[34].id, "digital-034");
    }
}
