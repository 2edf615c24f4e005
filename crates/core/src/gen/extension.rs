//! The extension collection: questions over the substrate features the
//! paper lists as topics but the 142-question standard set does not yet
//! exercise (out-of-order machines, floorplanning, buffer insertion,
//! differential pairs/current mirrors, BDD-style function analysis) —
//! the "ChipVQA-oriented dataset collection" direction of the paper's
//! future work.
//!
//! Ids continue each category's numbering from 100 (`digital-100`, …) so
//! they never collide with the standard set.

use chipvqa_analog::devices::Mosfet;
use chipvqa_analog::stages::{CurrentMirror, DiffPair, TwoStageOpamp};
use chipvqa_arch::isa::{program, Instr, Reg};
use chipvqa_arch::ooo::{run_in_order, run_ooo, OooConfig};
use chipvqa_logic::bdd::Bdd;
use chipvqa_manuf::implant::Implant;
use chipvqa_physd::buffering::{insert_buffers, BufferLibrary};
use chipvqa_physd::floorplan::SlicingTree;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use super::text_panel;
use crate::question::{
    trim_float, AnswerSpec, Category, Difficulty, Question, QuestionKind, VisualKind,
};

/// Number of extension questions generated.
pub const EXTENSION_SIZE: usize = 18;

/// Generates the extension set (deterministic per seed).
pub fn generate(seed: u64) -> Vec<Question> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xE97E);
    let mut out = Vec::with_capacity(EXTENSION_SIZE);
    for k in 0..3 {
        out.push(sat_count_question(k, &mut rng));
    }
    for k in 0..3 {
        out.push(diff_pair_question(k, &mut rng));
    }
    for k in 0..2 {
        out.push(mirror_question(k, &mut rng));
    }
    out.push(opamp_question(&mut rng));
    for k in 0..3 {
        out.push(ooo_question(k, &mut rng));
    }
    for k in 0..3 {
        out.push(floorplan_question(k, &mut rng));
    }
    for k in 0..2 {
        out.push(buffering_question(k, &mut rng));
    }
    out.push(implant_question(&mut rng));
    assert_eq!(out.len(), EXTENSION_SIZE);
    out
}

fn sat_count_question(k: usize, rng: &mut StdRng) -> Question {
    // random 4-variable function with a known satisfy count via BDD
    let vars = ['A', 'B', 'C', 'D'];
    let (expr, count) = loop {
        let mut outputs = [false; 16];
        for o in outputs.iter_mut() {
            *o = rng.gen_bool(0.4);
        }
        let ones = outputs.iter().filter(|&&b| b).count();
        if !(3..=13).contains(&ones) {
            continue;
        }
        let table = chipvqa_logic::TruthTable::new(vars.to_vec(), outputs.to_vec());
        let expr = chipvqa_logic::minimize::minimize_table(&table);
        let mut bdd = Bdd::new(&vars);
        let root = bdd.from_expr(&expr);
        break (expr, bdd.sat_count(root));
    };
    let lines = vec![
        "boolean function over A, B, C, D:".to_string(),
        format!("F = {expr}"),
    ];
    let vis = text_panel(&lines, false);
    Question {
        id: format!("digital-{}", 100 + k),
        category: Category::Digital,
        visual_kind: VisualKind::Equations,
        prompt: "For the four-variable boolean function shown in the figure, how many of the \
                 16 input assignments satisfy F (make it evaluate to 1)? Answer with a number."
            .into(),
        kind: QuestionKind::ShortAnswer,
        answer: AnswerSpec::Numeric {
            value: count as f64,
            tolerance: 0.01,
            unit: None,
        },
        difficulty: Difficulty::new(0.5, 3, 0.9, true),
        visual: vis.into(),
        key_marks: vec![1],
    }
}

fn round_sig(x: f64, digits: i32) -> f64 {
    if x == 0.0 {
        return 0.0;
    }
    let mag = 10f64.powi(digits - 1 - x.abs().log10().floor() as i32);
    (x * mag).round() / mag
}

fn diff_pair_question(k: usize, rng: &mut StdRng) -> Question {
    let dp = DiffPair {
        device: Mosfet {
            gm: f64::from(rng.gen_range(1..=5)) * 1e-3,
            ro: f64::from(rng.gen_range(2..=8)) * 25e3,
        },
        tail_resistance: f64::from(rng.gen_range(5..=20)) * 10e3,
        load: f64::from(rng.gen_range(5..=20)) * 1e3,
    };
    let lines = vec![
        "differential pair:".to_string(),
        format!("gm = {} mS per side", trim_float(dp.device.gm * 1e3)),
        format!("ro = {} kOhm", trim_float(dp.device.ro / 1e3)),
        format!("RD = {} kOhm per side", trim_float(dp.load / 1e3)),
        format!("tail Rout = {} kOhm", trim_float(dp.tail_resistance / 1e3)),
    ];
    let vis = text_panel(&lines, false);
    let (prompt, gold, unit): (String, f64, Option<&str>) = match k {
        0 => (
            "Compute the differential-mode voltage gain Adm = gm (RD || ro) of the \
             resistively loaded pair described in the figure."
                .into(),
            round_sig(dp.differential_gain(), 3),
            None,
        ),
        1 => (
            "Compute the common-mode gain magnitude |Acm| = RD / (2 Rtail) of the pair \
             described in the figure."
                .into(),
            round_sig(dp.common_mode_gain().abs(), 3),
            None,
        ),
        _ => (
            "Compute the common-mode rejection ratio (CMRR) of the pair in dB.".into(),
            round_sig(dp.cmrr_db(), 3),
            Some("dB"),
        ),
    };
    Question {
        id: format!("analog-{}", 100 + k),
        category: Category::Analog,
        visual_kind: VisualKind::Schematic,
        prompt,
        kind: QuestionKind::ShortAnswer,
        answer: AnswerSpec::Numeric {
            value: gold,
            tolerance: gold.abs() * 0.03,
            unit: unit.map(String::from),
        },
        difficulty: Difficulty::new(0.65, 3, 0.9, true),
        visual: vis.into(),
        key_marks: vec![1, 2, 3, 4],
    }
}

fn mirror_question(k: usize, rng: &mut StdRng) -> Question {
    let mirror = CurrentMirror::new(
        f64::from(rng.gen_range(1..=4)),
        Mosfet {
            gm: 2e-3,
            ro: f64::from(rng.gen_range(2..=8)) * 25e3,
        },
    );
    let i_ref = f64::from(rng.gen_range(5..=50)) * 10e-6;
    let lines = vec![
        "current mirror:".to_string(),
        format!("Iref = {} uA", trim_float(i_ref * 1e6)),
        format!("W/L ratio out:ref = {}:1", trim_float(mirror.ratio)),
        format!(
            "gm = 2 mS, ro = {} kOhm",
            trim_float(mirror.out_device.ro / 1e3)
        ),
    ];
    let vis = text_panel(&lines, false);
    let (prompt, gold, unit): (String, f64, &str) = if k == 0 {
        (
            "What output current does the mirror described in the figure deliver? Answer in \
             microamperes."
                .into(),
            round_sig(mirror.output_current(i_ref) * 1e6, 3),
            "uA",
        )
    } else {
        (
            "If the output device is cascoded with an identical transistor, what output \
             resistance results (Rout = ro (1 + gm ro) + ro)? Answer in megaohms."
                .into(),
            round_sig(mirror.cascode_output_resistance() / 1e6, 3),
            "MOhm",
        )
    };
    Question {
        id: format!("analog-{}", 110 + k),
        category: Category::Analog,
        visual_kind: VisualKind::Schematic,
        prompt,
        kind: QuestionKind::ShortAnswer,
        answer: AnswerSpec::Numeric {
            value: gold,
            tolerance: gold.abs() * 0.03,
            unit: Some(unit.into()),
        },
        difficulty: Difficulty::new(0.6, 2, 0.9, true),
        visual: vis.into(),
        key_marks: vec![1, 2, 3],
    }
}

fn opamp_question(rng: &mut StdRng) -> Question {
    let op = TwoStageOpamp {
        gm1: f64::from(rng.gen_range(5..=20)) * 1e-4,
        r1: 200e3,
        gm2: 4e-3,
        r2: 100e3,
        cc: f64::from(rng.gen_range(1..=4)) * 1e-12,
        cl: 5e-12,
    };
    let gold = round_sig(
        op.unity_gain_bandwidth() / (2.0 * std::f64::consts::PI) / 1e6,
        3,
    );
    let lines = vec![
        "two-stage Miller op-amp:".to_string(),
        format!("gm1 = {} mS", trim_float(op.gm1 * 1e3)),
        format!("Cc = {} pF", trim_float(op.cc * 1e12)),
        "wu = gm1 / Cc".to_string(),
    ];
    let vis = text_panel(&lines, false);
    Question {
        id: "analog-120".into(),
        category: Category::Analog,
        visual_kind: VisualKind::Equation,
        prompt: "Using the Miller-compensated op-amp parameters in the figure, compute the \
                 unity-gain bandwidth gm1/Cc and express it as a frequency in MHz."
            .into(),
        kind: QuestionKind::ShortAnswer,
        answer: AnswerSpec::Numeric {
            value: gold,
            tolerance: gold * 0.03,
            unit: Some("MHz".into()),
        },
        difficulty: Difficulty::new(0.7, 3, 0.9, true),
        visual: vis.into(),
        key_marks: vec![1, 2],
    }
}

fn ooo_program(rng: &mut StdRng) -> Vec<Instr> {
    let mut b = program();
    let n = rng.gen_range(5..9);
    for i in 0..n {
        b = match i % 3 {
            0 => b.load(Reg(1 + (i % 3) as u8), Reg(0), 8 * i),
            1 => b.add(Reg(4 + (i % 4) as u8), Reg(1), Reg(2)),
            _ => b.add(Reg(8 + (i % 4) as u8), Reg(9), Reg(10)),
        };
    }
    b.build()
}

fn ooo_question(k: usize, rng: &mut StdRng) -> Question {
    let prog = ooo_program(rng);
    let cfg = OooConfig::default();
    let ooo = run_ooo(&prog, cfg);
    let ino = run_in_order(&prog, cfg);
    let lines: Vec<String> =
        std::iter::once("dual-issue machine: 2 ALUs (1 cy), 1 load unit (3 cy)".to_string())
            .chain(prog.iter().map(|i| format!("{i}")))
            .collect();
    let vis = text_panel(&lines, false);
    let key_marks: Vec<usize> = (0..vis.marks.len()).collect();
    let (prompt, gold): (String, f64) = match k {
        0 => (
            "Scheduling the listed program on the out-of-order machine described (operands \
             and a free unit permitting, any instruction may start regardless of program \
             order), in how many cycles does the last instruction complete? Answer with a \
             number."
                .into(),
            ooo.cycles as f64,
        ),
        1 => (
            "Running the listed program strictly in order (an instruction may not begin \
             before every earlier instruction has begun), in how many cycles does the last \
             instruction complete? Answer with a number."
                .into(),
            ino.cycles as f64,
        ),
        _ => (
            "How many cycles does out-of-order execution save over in-order execution for \
             the listed program on the machine described? Answer with a number."
                .into(),
            (ino.cycles - ooo.cycles) as f64,
        ),
    };
    Question {
        id: format!("arch-{}", 100 + k),
        category: Category::Architecture,
        visual_kind: VisualKind::Table,
        prompt,
        kind: QuestionKind::ShortAnswer,
        answer: AnswerSpec::Numeric {
            value: gold,
            tolerance: 0.01,
            unit: Some("cycles".into()),
        },
        difficulty: Difficulty::new(0.7, 4, 0.9, true),
        visual: vis.into(),
        key_marks,
    }
}

fn floorplan_question(k: usize, rng: &mut StdRng) -> Question {
    let a = SlicingTree::module("A", rng.gen_range(4..10), rng.gen_range(4..10));
    let b = SlicingTree::module("B", rng.gen_range(4..10), rng.gen_range(4..10));
    let c = SlicingTree::module("C", rng.gen_range(4..10), rng.gen_range(4..10));
    let tree = SlicingTree::hcut(a.clone(), SlicingTree::vcut(b.clone(), c.clone()));
    let best = tree.best_shape().expect("leaves have shapes");
    let dims = |t: &SlicingTree| -> String {
        if let SlicingTree::Module { name, shapes } = t {
            format!("{name}: {}x{}", shapes[0].w, shapes[0].h)
        } else {
            String::new()
        }
    };
    let lines = vec![
        "slicing floorplan: A over (B beside C)".to_string(),
        dims(&a),
        dims(&b),
        dims(&c),
        "rotations allowed".to_string(),
    ];
    let vis = text_panel(&lines, false);
    let key_marks: Vec<usize> = (1..4).collect();
    let (prompt, gold): (String, f64) = match k {
        0 | 1 => (
            "Using Stockmeyer shape curves (each macro may rotate), what is the minimum \
             bounding-box area of the slicing floorplan described in the figure? Answer with \
             a number in square units."
                .into(),
            best.area() as f64,
        ),
        _ => (
            "What fraction of the optimal bounding box is dead space (not covered by any \
             macro)? Answer as a decimal fraction to two decimals."
                .into(),
            (tree.dead_space().expect("valid tree") * 100.0).round() / 100.0,
        ),
    };
    Question {
        id: format!("physical-{}", 100 + k),
        category: Category::Physical,
        visual_kind: VisualKind::Layout,
        prompt,
        kind: QuestionKind::ShortAnswer,
        answer: AnswerSpec::Numeric {
            value: gold,
            tolerance: (gold * 0.02).max(0.011),
            unit: None,
        },
        difficulty: Difficulty::new(0.7, 4, 0.9, true),
        visual: vis.into(),
        key_marks,
    }
}

fn buffering_question(k: usize, rng: &mut StdRng) -> Question {
    let lib = BufferLibrary::nominal();
    let total = f64::from(rng.gen_range(6..=12)) * 1_000.0;
    let stations: Vec<f64> = (1..6).map(|i| f64::from(i) * total / 6.0).collect();
    let plan = insert_buffers(&lib, total, &stations);
    let lines = vec![
        format!("global wire, length {} um", trim_float(total)),
        "r_wire = 1 Ohm/um, c_wire = 0.2 fF/um".to_string(),
        "buffer: Rout = 1 kOhm, Cin = 1 fF, delay 20 ps".to_string(),
        "driver 1 kOhm, sink 2 fF".to_string(),
        format!("{} legal buffer stations, evenly spaced", stations.len()),
    ];
    let vis = text_panel(&lines, false);
    let key_marks: Vec<usize> = (0..vis.marks.len()).collect();
    let (prompt, gold, unit): (String, f64, &str) = if k == 0 {
        (
            "Under the Elmore model with the parameters listed, how many buffers does the \
             delay-optimal insertion use on this route? Answer with a number."
                .into(),
            plan.positions.len() as f64,
            "buffers",
        )
    } else {
        (
            "By what factor does optimal buffering speed up the route relative to the \
             unbuffered wire (unbuffered delay divided by buffered delay)? Answer to two \
             decimals."
                .into(),
            (plan.speedup() * 100.0).round() / 100.0,
            "x",
        )
    };
    Question {
        id: format!("physical-{}", 110 + k),
        category: Category::Physical,
        visual_kind: VisualKind::Diagram,
        prompt,
        kind: QuestionKind::ShortAnswer,
        answer: AnswerSpec::Numeric {
            value: gold,
            tolerance: (gold * 0.03).max(0.011),
            unit: Some(unit.into()),
        },
        difficulty: Difficulty::new(0.75, 4, 0.9, true),
        visual: vis.into(),
        key_marks,
    }
}

fn implant_question(rng: &mut StdRng) -> Question {
    let imp = Implant::new(
        f64::from(rng.gen_range(5..=20)) * 10.0,
        f64::from(rng.gen_range(1..=5)) * 10.0,
        1e15,
    );
    let gold = round_sig(imp.peak_concentration_cm3() / 1e20, 3);
    let lines = vec![
        "ion implant:".to_string(),
        format!("projected range Rp = {} nm", trim_float(imp.range_nm)),
        format!("straggle dRp = {} nm", trim_float(imp.straggle_nm)),
        "dose = 1e15 cm-2".to_string(),
        "Np = dose / (sqrt(2 pi) dRp)".to_string(),
    ];
    let vis = text_panel(&lines, false);
    Question {
        id: "manuf-100".into(),
        category: Category::Manufacture,
        visual_kind: VisualKind::Curve,
        prompt: "Using the Gaussian implant model and the parameters listed, compute the peak \
                 dopant concentration. Answer in units of 1e20 cm-3 to three significant \
                 figures."
            .into(),
        kind: QuestionKind::ShortAnswer,
        answer: AnswerSpec::Numeric {
            value: gold,
            tolerance: gold * 0.03,
            unit: None,
        },
        difficulty: Difficulty::new(0.75, 3, 0.9, true),
        visual: vis.into(),
        key_marks: vec![2, 3],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::question::AnswerSpec;

    #[test]
    fn extension_size_and_determinism() {
        let a = generate(1);
        let b = generate(1);
        assert_eq!(a.len(), EXTENSION_SIZE);
        assert_eq!(a, b);
    }

    #[test]
    fn ids_do_not_collide_with_standard() {
        let ext = generate(0);
        let std = crate::ChipVqa::standard();
        for q in &ext {
            assert!(std.get(&q.id).is_none(), "{} collides", q.id);
        }
        let mut ids: Vec<&str> = ext.iter().map(|q| q.id.as_str()).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), EXTENSION_SIZE);
    }

    #[test]
    fn all_extension_questions_are_short_answer_numeric() {
        for q in generate(2) {
            assert!(!q.is_multiple_choice(), "{}", q.id);
            assert!(matches!(q.answer, AnswerSpec::Numeric { .. }), "{}", q.id);
            assert!(q.visual.image.ink_pixels() > 20, "{}", q.id);
        }
    }

    #[test]
    fn ooo_saving_is_nonnegative() {
        for q in generate(4) {
            if q.prompt.contains("save over in-order") {
                let AnswerSpec::Numeric { value, .. } = q.answer else {
                    panic!()
                };
                assert!(value >= 0.0, "{}: {value}", q.id);
            }
        }
    }

    #[test]
    fn floorplan_dead_space_in_unit_interval() {
        for q in generate(6) {
            if q.prompt.contains("dead space") {
                let AnswerSpec::Numeric { value, .. } = q.answer else {
                    panic!()
                };
                assert!((0.0..1.0).contains(&value), "{}: {value}", q.id);
            }
        }
    }
}
