//! Manufacturing question generator: 20 questions (5 MC + 15 SA) over
//! lithography, etching, doping, oxidation, yield and process flows
//! (§III-B.5) — including the paper's Buffered-HF over-etch example with
//! its long scenario prompt.

use chipvqa_manuf::diffusion::Diffusion;
use chipvqa_manuf::etch::{etch_stack, EtchProcess, Layer, Material};
use chipvqa_manuf::litho::{Lithography, Ret};
use chipvqa_manuf::oxidation::DealGrove;
use chipvqa_manuf::render as mrender;
use chipvqa_manuf::yield_model::{gross_dies_per_wafer, YieldModel};
use chipvqa_raster::{Annotated, Pixmap, Region, BLACK, GRAY};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use super::{shuffle_choices, text_panel};
use crate::question::{
    trim_float, AnswerSpec, Category, Difficulty, Question, QuestionKind, VisualKind,
};

/// Questions per replica block (Table I's Manufacture count).
pub const BLOCK_SIZE: usize = 20;

/// Replica block `replica` for the scale engine: the same family
/// sequence under the replica-mixed seed, ids renumbered past the
/// preceding blocks. Replica 0 is [`generate`] verbatim.
pub fn generate_replica(seed: u64, replica: usize) -> Vec<Question> {
    super::replica_block(generate, seed, replica, "manuf")
}

/// Generates the 20-question Manufacturing set (5 MC, 15 SA).
pub fn generate(seed: u64) -> Vec<Question> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x3A0F);
    let mut out = Vec::with_capacity(20);
    let mut idx = 0usize;
    for k in 0..3 {
        out.push(boe_overetch_question(k, &mut idx, &mut rng));
    }
    out.push(stack_remaining_question(&mut idx, &mut rng));
    out.push(ret_mc_question(&mut idx, &mut rng));
    out.push(ret_sa_question(&mut idx, &mut rng));
    for _ in 0..2 {
        out.push(resolution_question(&mut idx, &mut rng));
    }
    out.push(dof_question(&mut idx, &mut rng));
    out.push(junction_question(&mut idx, &mut rng));
    for k in 0..3 {
        out.push(oxidation_question(k, &mut idx, &mut rng));
    }
    for _ in 0..2 {
        out.push(dies_per_wafer_question(&mut idx, &mut rng));
    }
    for _ in 0..2 {
        out.push(yield_mc_question(&mut idx, &mut rng));
    }
    for k in 0..3 {
        out.push(flow_question(k, &mut idx, &mut rng));
    }
    assert_eq!(out.len(), 20);
    out
}

fn next_id(idx: &mut usize) -> String {
    let id = format!("manuf-{idx:03}");
    *idx += 1;
    id
}

fn boe_overetch_question(k: usize, idx: &mut usize, rng: &mut StdRng) -> Question {
    let thickness = f64::from(rng.gen_range(3..=8)) * 100.0;
    let rate = f64::from(rng.gen_range(5..=15)) * 10.0;
    let over = f64::from(rng.gen_range(1..=3)) * 5.0 / 100.0;
    let boe = EtchProcess::wet("5:1 BOE", Material::SiO2, rate);
    let gold = boe.time_for_overetch(thickness, over);
    let stack = [
        Layer {
            material: Material::SiO2,
            thickness_nm: thickness,
        },
        Layer {
            material: Material::Si,
            thickness_nm: 2000.0,
        },
    ];
    let vis = mrender::render_stack_cross_section(&stack, "etch window");
    let key_marks: Vec<usize> = (0..vis.marks.len()).collect();
    // The first instance carries the paper's long scenario prompt; the
    // others are terser variants, spreading the token-length spectrum.
    let prompt = if k == 0 {
        format!(
            "Assume 5:1 BOE (Buffered HF) etches SiO2 isotropically at {rate} nm/min, RIE \
             etches SiO2 at {rie} nm/min and has a SiO2:Si selectivity of 15:1. Assume a \
             Si/SiO2 substrate with patterned photoresist as shown in the figure: the oxide \
             film of thickness {thickness} nm sits on a thick silicon substrate, and the \
             resist opening exposes the oxide in the window indicated by the arrow. Recall \
             that a wet chemistry like BOE attacks the film equally in all directions, so the \
             opening also undercuts the resist edge while the film clears vertically, whereas \
             the reactive-ion etch is nearly vertical; production recipes therefore time the \
             wet etch from the nominal film thickness and add a deliberate safety margin so \
             that slow spots across the wafer still clear. In this lab module the wafer has \
             already been cleaned in piranha solution, rinsed in deionized water and spun \
             dry; the photoresist was spun at 4000 rpm, soft baked at 90 C for 60 seconds, \
             exposed through the contact mask drawn above and developed, so the oxide window \
             is open and ready for the wet chemistry. The beaker of buffered oxide etch sits \
             at 21 C on the wet bench, freshly mixed, and you may assume the quoted etch rate \
             holds constant over the full immersion because the buffering agent replenishes \
             the fluoride as it is consumed. Ignore the negligible etching of the photoresist \
             mask and of the underlying silicon by the BOE chemistry, ignore loading effects \
             from neighbouring wafers in the cassette, and ignore the few seconds needed to \
             transfer the wafer into the rinse tank when you time the process. For the \
             structure above, how long should this wafer be placed in 5:1 BOE etchant to \
             record a {pct}% over-etch? Answer in minutes.",
            rate = trim_float(rate),
            rie = trim_float(rate * 2.0),
            thickness = trim_float(thickness),
            pct = trim_float(over * 100.0),
        )
    } else {
        format!(
            "5:1 BOE etches the SiO2 film shown at {} nm/min. The film is {} nm thick. How \
             many minutes of etching give a {}% over-etch?",
            trim_float(rate),
            trim_float(thickness),
            trim_float(over * 100.0),
        )
    };
    Question {
        id: next_id(idx),
        category: Category::Manufacture,
        visual_kind: VisualKind::Mixed,
        prompt,
        kind: QuestionKind::ShortAnswer,
        answer: AnswerSpec::Numeric {
            value: (gold * 1000.0).round() / 1000.0,
            tolerance: gold * 0.02,
            unit: Some("minutes".into()),
        },
        difficulty: Difficulty::new(0.7, 3, 0.85, true),
        visual: vis.into(),
        key_marks,
    }
}

fn stack_remaining_question(idx: &mut usize, rng: &mut StdRng) -> Question {
    let oxide = f64::from(rng.gen_range(2..=5)) * 100.0;
    let minutes = f64::from(rng.gen_range(2..=4));
    let rie = EtchProcess::rie("CHF3 RIE", Material::SiO2, 200.0, 0.95)
        .with_selectivity(Material::Si, 15.0);
    let stack = [
        Layer {
            material: Material::SiO2,
            thickness_nm: oxide,
        },
        Layer {
            material: Material::Si,
            thickness_nm: 2000.0,
        },
    ];
    let after = etch_stack(&stack, &rie, minutes);
    let gold = after
        .iter()
        .find(|l| l.material == Material::Si)
        .map(|l| 2000.0 - l.thickness_nm)
        .unwrap_or(2000.0);
    let vis = mrender::render_stack_cross_section(&stack, "RIE window");
    let key_marks: Vec<usize> = (0..vis.marks.len()).collect();
    Question {
        id: next_id(idx),
        category: Category::Manufacture,
        visual_kind: VisualKind::Mixed,
        prompt: format!(
            "A reactive-ion etch removes SiO2 at 200 nm/min with a SiO2:Si selectivity of \
             15:1. The cross-section shows a {} nm oxide film over silicon. After {} minutes \
             in the RIE chamber, how many nanometres of the underlying silicon have been \
             consumed in the open window? Answer in nm.",
            trim_float(oxide),
            trim_float(minutes)
        ),
        kind: QuestionKind::ShortAnswer,
        answer: AnswerSpec::Numeric {
            value: (gold * 100.0).round() / 100.0,
            tolerance: gold.abs().max(1.0) * 0.03,
            unit: Some("nm".into()),
        },
        difficulty: Difficulty::new(0.75, 4, 0.85, true),
        visual: vis.into(),
        key_marks,
    }
}

const ALL_RETS: [Ret; 5] = [
    Ret::Opc,
    Ret::Psm,
    Ret::Oai,
    Ret::Sraf,
    Ret::MultiPatterning,
];

fn ret_mc_question(idx: &mut usize, rng: &mut StdRng) -> Question {
    let ret = *super::pick(&ALL_RETS, rng);
    let vis = mrender::render_ret_figure(ret);
    let key_marks: Vec<usize> = (0..vis.marks.len()).collect();
    let distractors: Vec<String> = ALL_RETS
        .iter()
        .filter(|r| **r != ret)
        .map(|r| r.name().to_string())
        .collect();
    let (choices, correct) = shuffle_choices(ret.name().to_string(), distractors, rng);
    Question {
        id: next_id(idx),
        category: Category::Manufacture,
        visual_kind: VisualKind::Figure,
        prompt: "What is the lithography resolution enhancement technique depicted in the \
                 figure?"
            .into(),
        kind: QuestionKind::MultipleChoice { choices, correct },
        answer: AnswerSpec::Text {
            canonical: ret.name().to_string(),
            aliases: vec![ret.signature().to_string()],
        },
        difficulty: Difficulty::new(0.65, 1, 1.0, false),
        visual: vis.into(),
        key_marks,
    }
}

fn ret_sa_question(idx: &mut usize, rng: &mut StdRng) -> Question {
    let ret = *super::pick(&ALL_RETS, rng);
    let vis = mrender::render_ret_figure(ret);
    let key_marks: Vec<usize> = (0..vis.marks.len()).collect();
    Question {
        id: next_id(idx),
        category: Category::Manufacture,
        visual_kind: VisualKind::Figure,
        prompt: "Name the RET shown.".into(),
        kind: QuestionKind::ShortAnswer,
        answer: AnswerSpec::Text {
            canonical: ret.name().to_string(),
            aliases: match ret {
                Ret::Opc => vec!["optical proximity correction".into()],
                Ret::Psm => vec!["phase shift mask".into(), "phase-shift mask".into()],
                Ret::Oai => vec!["off-axis illumination".into()],
                Ret::Sraf => vec![
                    "sub-resolution assist features".into(),
                    "scatter bars".into(),
                ],
                Ret::MultiPatterning => vec!["double patterning".into()],
            },
        },
        difficulty: Difficulty::new(0.7, 1, 1.0, false),
        visual: vis.into(),
        key_marks,
    }
}

fn resolution_question(idx: &mut usize, rng: &mut StdRng) -> Question {
    let (tool, name) = if rng.gen_bool(0.5) {
        (Lithography::arf_immersion(), "193 nm ArF immersion")
    } else {
        (Lithography::euv(), "13.5 nm EUV")
    };
    let gold = (tool.resolution_nm() * 10.0).round() / 10.0;
    let lines = vec![
        format!("scanner: {name}"),
        format!("wavelength = {} nm", trim_float(tool.wavelength_nm)),
        format!("NA = {}", trim_float(tool.na)),
        format!("k1 = {}", trim_float(tool.k1)),
        "R = k1 * wavelength / NA".to_string(),
    ];
    let vis = text_panel(&lines, false);
    let key_marks: Vec<usize> = (1..4).collect();
    Question {
        id: next_id(idx),
        category: Category::Manufacture,
        visual_kind: VisualKind::Diagram,
        prompt: format!(
            "The diagram lists the optics of a {name} scanner together with the Rayleigh \
             criterion. What minimum half-pitch resolution does the tool achieve? Answer in \
             nm to one decimal place."
        ),
        kind: QuestionKind::ShortAnswer,
        answer: AnswerSpec::Numeric {
            value: gold,
            tolerance: gold * 0.03,
            unit: Some("nm".into()),
        },
        difficulty: Difficulty::new(0.55, 2, 0.9, true),
        visual: vis.into(),
        key_marks,
    }
}

fn dof_question(idx: &mut usize, rng: &mut StdRng) -> Question {
    let tool = Lithography::new(193.0, 0.5 + f64::from(rng.gen_range(0..8)) * 0.1, 0.35, 0.5);
    let gold = (tool.depth_of_focus_nm() * 10.0).round() / 10.0;
    let lines = vec![
        format!("wavelength = {} nm", trim_float(tool.wavelength_nm)),
        format!("NA = {:.1}", tool.na),
        format!("k2 = {}", trim_float(tool.k2)),
        "DOF = k2 * wavelength / NA^2".to_string(),
    ];
    let vis = text_panel(&lines, false);
    Question {
        id: next_id(idx),
        category: Category::Manufacture,
        visual_kind: VisualKind::Diagram,
        prompt: "Using the Rayleigh depth-of-focus relation and the scanner parameters listed \
                 in the diagram, compute the usable depth of focus. Answer in nm to one \
                 decimal place."
            .into(),
        kind: QuestionKind::ShortAnswer,
        answer: AnswerSpec::Numeric {
            value: gold,
            tolerance: gold * 0.03,
            unit: Some("nm".into()),
        },
        difficulty: Difficulty::new(0.6, 2, 0.9, true),
        visual: vis.into(),
        key_marks: vec![0, 1, 2],
    }
}

fn junction_question(idx: &mut usize, rng: &mut StdRng) -> Question {
    let hours = f64::from(rng.gen_range(1..=4));
    let d = Diffusion::new(1e-13, hours * 3600.0);
    let dose = 1e15;
    let bg = 1e16;
    let xj_cm = d
        .gaussian_junction_depth_cm(dose, bg)
        .expect("dose dominates background");
    let gold_um = (xj_cm * 1e4 * 100.0).round() / 100.0;
    let samples: Vec<(f64, f64)> = (0..80)
        .map(|i| {
            let x_nm = i as f64 * xj_cm * 1e7 / 50.0;
            (x_nm, d.gaussian_profile(dose, x_nm * 1e-7))
        })
        .collect();
    let vis = mrender::render_profile_curve(&samples, Some(xj_cm * 1e7));
    let key_marks: Vec<usize> = (0..vis.marks.len()).collect();
    Question {
        id: next_id(idx),
        category: Category::Manufacture,
        visual_kind: VisualKind::Curve,
        prompt: format!(
            "A limited-source boron drive-in runs {} hours at a diffusivity of 1e-13 cm2/s \
             with an implanted dose of 1e15 cm-2 into a substrate doped 1e16 cm-3; the \
             resulting Gaussian profile is plotted in the curve. At what depth does the \
             junction form (where the profile crosses the background level)? Answer in \
             micrometres to two decimals.",
            trim_float(hours)
        ),
        kind: QuestionKind::ShortAnswer,
        answer: AnswerSpec::Numeric {
            value: gold_um,
            tolerance: gold_um * 0.05,
            unit: Some("um".into()),
        },
        difficulty: Difficulty::new(0.8, 4, 0.7, true),
        visual: vis.into(),
        key_marks,
    }
}

fn oxidation_question(k: usize, idx: &mut usize, rng: &mut StdRng) -> Question {
    let wet = rng.gen_bool(0.5);
    let dg = if wet {
        DealGrove::wet_1100c()
    } else {
        DealGrove::dry_1100c()
    };
    let ambient = if wet { "wet (steam)" } else { "dry O2" };
    let stack = [Layer {
        material: Material::SiO2,
        thickness_nm: 100.0,
    }];
    let vis = mrender::render_stack_cross_section(&stack, "growing oxide");
    let key_marks: Vec<usize> = (0..vis.marks.len()).collect();
    let (prompt, gold, unit): (String, f64, &str) = match k {
        0 | 1 => {
            let hours = f64::from(rng.gen_range(1..=6));
            let x = dg.thickness_um(hours, 0.0);
            (
                format!(
                    "Bare silicon is oxidised for {} hours at 1100 C in a {} ambient \
                     (Deal-Grove: B/A = {} um/hr, B = {} um2/hr). What oxide thickness \
                     results? Answer in micrometres to two decimals.",
                    trim_float(hours),
                    ambient,
                    trim_float(dg.linear_um_hr),
                    trim_float(dg.parabolic_um2_hr),
                ),
                (x * 100.0).round() / 100.0,
                "um",
            )
        }
        _ => {
            let x = 0.5;
            (
                format!(
                    "The cross-section shows {} nm of thermally grown SiO2. Roughly how many \
                     nanometres of the original silicon surface were consumed growing it? \
                     Answer in nm.",
                    trim_float(x * 1000.0)
                ),
                (DealGrove::silicon_consumed_um(x) * 1000.0 * 10.0).round() / 10.0,
                "nm",
            )
        }
    };
    Question {
        id: next_id(idx),
        category: Category::Manufacture,
        visual_kind: VisualKind::Schematic,
        prompt,
        kind: QuestionKind::ShortAnswer,
        answer: AnswerSpec::Numeric {
            value: gold,
            tolerance: gold * 0.05,
            unit: Some(unit.into()),
        },
        difficulty: Difficulty::new(0.65, 3, 0.6, true),
        visual: vis.into(),
        key_marks,
    }
}

/// Draws a wafer map: circle with a die grid and caption.
fn wafer_map(diameter_mm: f64, die_mm2: f64) -> Annotated {
    let mut img = Pixmap::new(360, 360);
    let mut marks: Vec<(String, Region)> = Vec::new();
    let (cx, cy, r) = (180i64, 170i64, 140i64);
    img.draw_circle(cx, cy, r, 2, BLACK);
    let die_px = ((die_mm2.sqrt() / diameter_mm) * 2.0 * r as f64).max(6.0) as i64;
    let mut y = cy - r;
    while y < cy + r {
        let mut x = cx - r;
        while x < cx + r {
            let ddx = (x + die_px / 2 - cx) as f64;
            let ddy = (y + die_px / 2 - cy) as f64;
            if (ddx * ddx + ddy * ddy).sqrt() < (r - die_px) as f64 {
                img.draw_rect(x, y, die_px, die_px, 1, GRAY);
            }
            x += die_px;
        }
        y += die_px;
    }
    let cap = format!(
        "{} mm wafer, {} mm2 dies",
        trim_float(diameter_mm),
        trim_float(die_mm2)
    );
    img.draw_text(40, 330, &cap, 2, BLACK);
    marks.push((format!("caption: {cap}"), Region::new(36, 324, 300, 26)));
    marks.push((
        "wafer outline with die grid".to_string(),
        Region::new(
            (cx - r) as usize,
            (cy - r) as usize,
            (2 * r) as usize,
            (2 * r) as usize,
        ),
    ));
    let mut out = Annotated::new(img);
    for (label, region) in marks {
        out.mark(label, region);
    }
    out
}

fn dies_per_wafer_question(idx: &mut usize, rng: &mut StdRng) -> Question {
    let diameter = *super::pick(&[200.0f64, 300.0], rng);
    let die = f64::from(rng.gen_range(5..=30)) * 10.0;
    let gold = gross_dies_per_wafer(diameter, die) as f64;
    let vis = wafer_map(diameter, die);
    let key_marks: Vec<usize> = (0..vis.marks.len()).collect();
    Question {
        id: next_id(idx),
        category: Category::Manufacture,
        visual_kind: VisualKind::Layout,
        prompt: format!(
            "The wafer map shows a {} mm wafer tiled with {} mm2 dies. Using the standard \
             edge-corrected estimate (pi d^2 / 4A - pi d / sqrt(2A)), how many gross dies fit \
             on the wafer? Answer with an integer.",
            trim_float(diameter),
            trim_float(die)
        ),
        kind: QuestionKind::ShortAnswer,
        answer: AnswerSpec::Numeric {
            value: gold,
            tolerance: gold * 0.02 + 1.0,
            unit: Some("dies".into()),
        },
        difficulty: Difficulty::new(0.6, 3, 0.7, true),
        visual: vis.into(),
        key_marks,
    }
}

fn yield_mc_question(idx: &mut usize, rng: &mut StdRng) -> Question {
    let area = f64::from(rng.gen_range(1..=4)) * 0.5; // cm²
    let d0 = f64::from(rng.gen_range(2..=10)) / 10.0;
    let gold = (YieldModel::Poisson.die_yield(area, d0) * 1000.0).round() / 10.0;
    let vis = wafer_map(300.0, area * 100.0);
    let key_marks: Vec<usize> = (0..vis.marks.len()).collect();
    let mut distractors = vec![
        format!(
            "{}%",
            trim_float((YieldModel::Murphy.die_yield(area, d0) * 1000.0).round() / 10.0)
        ),
        format!("{}%", trim_float((gold * 0.5 * 10.0).round() / 10.0)),
        format!("{}%", trim_float(((100.0 - gold) * 10.0).round() / 10.0)),
        format!("{}%", trim_float((gold.powf(0.5) * 100.0).round() / 10.0)),
    ];
    let gold_text = format!("{}%", trim_float(gold));
    distractors.retain(|d| *d != gold_text);
    let (choices, correct) = shuffle_choices(gold_text, distractors, rng);
    Question {
        id: next_id(idx),
        category: Category::Manufacture,
        visual_kind: VisualKind::Layout,
        prompt: format!(
            "A {} cm2 die is manufactured on the wafer shown with a defect density of {} \
             defects/cm2. Under the Poisson yield model Y = exp(-A D0), what die yield do you \
             expect?",
            trim_float(area),
            trim_float(d0)
        ),
        kind: QuestionKind::MultipleChoice { choices, correct },
        answer: AnswerSpec::Numeric {
            value: gold,
            tolerance: 0.5,
            unit: Some("percent".into()),
        },
        difficulty: Difficulty::new(0.6, 2, 0.5, true),
        visual: vis.into(),
        key_marks,
    }
}

fn flow_question(k: usize, idx: &mut usize, rng: &mut StdRng) -> Question {
    let steps = [
        "clean wafer",
        "grow gate oxide",
        "deposit polysilicon",
        "pattern gate (litho + etch)",
        "source/drain implant",
        "activation anneal",
        "contact formation",
    ];
    if k < 2 {
        let hole = rng.gen_range(1..steps.len() - 1);
        let gold = steps[hole];
        let lines: Vec<String> = steps
            .iter()
            .enumerate()
            .map(|(i, s)| {
                if i == hole {
                    "???".into()
                } else {
                    (*s).to_string()
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
            category: Category::Manufacture,
            visual_kind: VisualKind::Flow,
            prompt: "The flow chart shows a self-aligned MOS front-end process with one step \
                     hidden. Which step belongs in the hidden box?"
                .into(),
            kind: QuestionKind::MultipleChoice { choices, correct },
            answer: AnswerSpec::Text {
                canonical: gold.to_string(),
                aliases: vec![],
            },
            difficulty: Difficulty::new(0.6, 2, 0.85, false),
            visual: vis.into(),
            key_marks,
        }
    } else {
        // SA: why is the process called self-aligned?
        let lines: Vec<String> = steps.iter().map(|s| (*s).to_string()).collect();
        let vis = text_panel(&lines, true);
        let key_marks: Vec<usize> = (0..vis.marks.len()).collect();
        Question {
            id: next_id(idx),
            category: Category::Manufacture,
            visual_kind: VisualKind::Flow,
            prompt: "In the MOS process flow shown, which already-patterned structure acts as \
                     the implantation mask that makes the source/drain implant self-aligned?"
                .into(),
            kind: QuestionKind::ShortAnswer,
            answer: AnswerSpec::Text {
                canonical: "the polysilicon gate".into(),
                aliases: vec![
                    "polysilicon gate".into(),
                    "the gate".into(),
                    "poly gate".into(),
                    "gate".into(),
                ],
            },
            difficulty: Difficulty::new(0.7, 2, 0.6, false),
            visual: vis.into(),
            key_marks,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokens::count_tokens;

    #[test]
    fn exact_counts_and_split() {
        let qs = generate(0);
        assert_eq!(qs.len(), 20);
        let mc = qs.iter().filter(|q| q.is_multiple_choice()).count();
        assert_eq!(mc, 5);
    }

    #[test]
    fn visual_kind_distribution() {
        let qs = generate(0);
        let count = |k: VisualKind| qs.iter().filter(|q| q.visual_kind == k).count();
        assert_eq!(count(VisualKind::Mixed), 4);
        assert_eq!(count(VisualKind::Figure), 2);
        assert_eq!(count(VisualKind::Diagram), 3);
        assert_eq!(count(VisualKind::Curve), 1);
        assert_eq!(count(VisualKind::Schematic), 3);
        assert_eq!(count(VisualKind::Layout), 4);
        assert_eq!(count(VisualKind::Flow), 3);
    }

    #[test]
    fn boe_gold_matches_formula() {
        let qs = generate(0);
        let q = &qs[0];
        assert!(q.prompt.contains("Buffered HF"));
        let AnswerSpec::Numeric { value, .. } = q.answer else {
            panic!()
        };
        assert!(value > 0.0 && value < 100.0);
        // the flagship prompt is the long-token one
        assert!(count_tokens(&q.prompt) > 150, "{}", count_tokens(&q.prompt));
    }

    #[test]
    fn short_and_long_prompts_coexist() {
        let qs = generate(0);
        let tokens: Vec<usize> = qs.iter().map(|q| count_tokens(&q.prompt)).collect();
        assert!(tokens.iter().any(|&t| t < 30));
        assert!(tokens.iter().any(|&t| t > 150));
    }

    #[test]
    fn sa_dominates_category() {
        let qs = generate(0);
        let sa = qs.iter().filter(|q| !q.is_multiple_choice()).count();
        assert_eq!(sa, 15, "manufacture is the SA-heavy category");
    }

    #[test]
    fn all_visuals_rendered() {
        for q in generate(1) {
            assert!(q.visual.image.ink_pixels() > 30, "{}", q.id);
            assert!(!q.visual.marks.is_empty(), "{}", q.id);
        }
    }
}
