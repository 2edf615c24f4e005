//! Architecture question generator: 20 questions (7 MC + 13 SA) over
//! pipelining, bypassing, caches, coherence, virtual memory, branch
//! prediction, vector execution and network topology (§III-B.3).

use chipvqa_arch::branch::{accuracy, loop_trace, OneBitPredictor, TwoBitPredictor};
use chipvqa_arch::cache::{Cache, CacheConfig, Replacement};
use chipvqa_arch::coherence::{cpu_transition, CpuOp, Mesi};
use chipvqa_arch::isa::{program, Instr, Reg};
use chipvqa_arch::noc::Topology;
use chipvqa_arch::pipeline::{ForwardingConfig, Pipeline};
use chipvqa_arch::render as xrender;
use chipvqa_arch::vector::{daxpy, VectorMachine};
use chipvqa_arch::vm::{AddressSpace, Translation, VmConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use super::{numeric_distractors, shuffle_choices, text_panel};
use crate::question::{
    trim_float, AnswerSpec, Category, Difficulty, Question, QuestionKind, VisualKind,
};

/// Questions per replica block (Table I's Architecture count).
pub const BLOCK_SIZE: usize = 20;

/// Replica block `replica` for the scale engine: the same family
/// sequence under the replica-mixed seed, ids renumbered past the
/// preceding blocks. Replica 0 is [`generate`] verbatim.
pub fn generate_replica(seed: u64, replica: usize) -> Vec<Question> {
    super::replica_block(generate, seed, replica, "arch")
}

/// Generates the 20-question Architecture set (7 MC, 13 SA).
pub fn generate(seed: u64) -> Vec<Question> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xA2C4);
    let mut out = Vec::with_capacity(20);
    let mut idx = 0usize;
    for k in 0..4 {
        out.push(pipeline_stall_question(k, &mut idx, &mut rng));
    }
    for _ in 0..2 {
        out.push(bypass_tradeoff_question(&mut idx, &mut rng));
    }
    for _ in 0..2 {
        out.push(mesi_question(&mut idx, &mut rng));
    }
    for _ in 0..2 {
        out.push(cache_bits_question(&mut idx, &mut rng));
    }
    for _ in 0..2 {
        out.push(cache_trace_question(&mut idx, &mut rng));
    }
    out.push(page_walk_question(&mut idx, &mut rng));
    out.push(noc_mc_question(&mut idx, &mut rng));
    for _ in 0..2 {
        out.push(noc_sa_question(&mut idx, &mut rng));
    }
    for _ in 0..2 {
        out.push(branch_question(&mut idx, &mut rng));
    }
    for _ in 0..2 {
        out.push(vector_question(&mut idx, &mut rng));
    }
    assert_eq!(out.len(), 20);
    out
}

fn next_id(idx: &mut usize) -> String {
    let id = format!("arch-{idx:03}");
    *idx += 1;
    id
}

fn hazard_program(rng: &mut StdRng) -> Vec<Instr> {
    let mut b = program();
    let n = rng.gen_range(4..8);
    for i in 0..n {
        match i % 3 {
            0 => b = b.load(Reg(1), Reg(0), 4 * i),
            1 => b = b.add(Reg(2), Reg(1), Reg(1)),
            _ => b = b.store(Reg(2), Reg(0), 8 * i),
        }
    }
    b.build()
}

fn pipeline_stall_question(k: usize, idx: &mut usize, rng: &mut StdRng) -> Question {
    let prog = hazard_program(rng);
    let cfg = if k.is_multiple_of(2) {
        ForwardingConfig::full()
    } else {
        ForwardingConfig::none()
    };
    let res = Pipeline::new(cfg).run(&prog);
    let vis = xrender::render_pipeline(cfg);
    let key_marks: Vec<usize> = (0..vis.marks.len()).collect();
    let listing: String = prog.iter().map(|i| format!("{i}; ")).collect::<String>();
    let (gold, unit, what) = if k < 2 {
        (
            res.data_stalls as f64,
            "stall cycles",
            "data-hazard stall cycles",
        )
    } else {
        (
            (res.cpi() * 100.0).round() / 100.0,
            "CPI",
            "cycles per instruction (CPI)",
        )
    };
    Question {
        id: next_id(idx),
        category: Category::Architecture,
        visual_kind: VisualKind::Diagram,
        prompt: format!(
            "The datapath diagram shows a classic five-stage pipeline{}. The program {} runs \
             to completion with branches resolved in EX and the register file written in the \
             first half of WB. How many {} does the execution incur? Answer with a number.",
            if cfg == ForwardingConfig::full() {
                " with all forwarding paths drawn in bold"
            } else {
                " with no forwarding paths (values pass only through the register file)"
            },
            listing.trim_end(),
            what
        ),
        kind: QuestionKind::ShortAnswer,
        answer: AnswerSpec::Numeric {
            value: gold,
            tolerance: 0.05,
            unit: Some(unit.into()),
        },
        difficulty: Difficulty::new(0.6, 4, 0.7, true),
        visual: vis.into(),
        key_marks,
    }
}

fn bypass_tradeoff_question(idx: &mut usize, rng: &mut StdRng) -> Question {
    let cfg = ForwardingConfig::full();
    let vis = xrender::render_pipeline(cfg);
    let key_marks: Vec<usize> = (0..vis.marks.len()).collect();
    let gold = "CPI decreases but the cycle time increases";
    let distractors = vec![
        "both CPI and cycle time decrease".to_string(),
        "CPI increases but the cycle time decreases".to_string(),
        "neither CPI nor cycle time changes".to_string(),
    ];
    let (choices, correct) = shuffle_choices(gold.to_string(), distractors, rng);
    let _ = rng;
    Question {
        id: next_id(idx),
        category: Category::Architecture,
        visual_kind: VisualKind::Diagram,
        prompt: "The pipeline diagram shows a bolded bypass path connecting the load unit \
                 output in MEM back to the ALU input in EX. Relative to the same pipeline \
                 without this path, how does adding the bypass affect the cycles per \
                 instruction and the achievable clock frequency?"
            .into(),
        kind: QuestionKind::MultipleChoice { choices, correct },
        answer: AnswerSpec::Text {
            canonical: gold.to_string(),
            aliases: vec!["lower CPI, longer cycle time".to_string()],
        },
        difficulty: Difficulty::new(0.6, 3, 0.8, false),
        visual: vis.into(),
        key_marks,
    }
}

fn mesi_question(idx: &mut usize, rng: &mut StdRng) -> Question {
    let states = [Mesi::Invalid, Mesi::Shared, Mesi::Exclusive];
    let start = states[rng.gen_range(0..states.len())];
    let op = if rng.gen_bool(0.5) {
        CpuOp::Read
    } else {
        CpuOp::Write
    };
    let others = rng.gen_bool(0.5);
    let (next, _) = cpu_transition(start, op, others);
    let vis = xrender::render_mesi_diagram();
    let key_marks: Vec<usize> = (0..vis.marks.len()).collect();
    let gold = format!("{next}");
    let distractors: Vec<String> = ["M", "E", "S", "I"]
        .iter()
        .filter(|&&s| s != gold)
        .map(|&s| s.to_string())
        .collect();
    let (choices, correct) = shuffle_choices(gold.clone(), distractors, rng);
    Question {
        id: next_id(idx),
        category: Category::Architecture,
        visual_kind: VisualKind::Diagram,
        prompt: format!(
            "The state diagram shows the MESI coherence protocol. A cache line currently in \
             state {start} receives a processor {} while {} other cache holds a copy. Which \
             state does the line move to?",
            match op {
                CpuOp::Read => "read",
                CpuOp::Write => "write",
            },
            if others { "at least one" } else { "no" }
        ),
        kind: QuestionKind::MultipleChoice { choices, correct },
        answer: AnswerSpec::Text {
            canonical: gold,
            aliases: vec![format!("{next:?}")],
        },
        difficulty: Difficulty::new(0.55, 2, 0.6, false),
        visual: vis.into(),
        key_marks,
    }
}

fn cache_bits_question(idx: &mut usize, rng: &mut StdRng) -> Question {
    let size_kb = *super::pick(&[8u64, 16, 32, 64], rng);
    let block = *super::pick(&[32u64, 64], rng);
    let ways = *super::pick(&[1u64, 2, 4], rng);
    let cfg = CacheConfig {
        size_bytes: size_kb * 1024,
        block_bytes: block,
        associativity: ways,
        replacement: Replacement::Lru,
    };
    let vis = xrender::render_address_breakdown(cfg, 32);
    let key_marks: Vec<usize> = (0..vis.marks.len()).collect();
    let gold = f64::from(cfg.tag_bits(32));
    Question {
        id: next_id(idx),
        category: Category::Architecture,
        visual_kind: VisualKind::Diagram,
        prompt: format!(
            "A {size_kb} KiB, {ways}-way set-associative cache with {block}-byte blocks indexes \
             32-bit physical addresses as shown in the field-breakdown diagram. How many tag \
             bits does each cache line store? Answer with a number."
        ),
        kind: QuestionKind::ShortAnswer,
        answer: AnswerSpec::Numeric {
            value: gold,
            tolerance: 0.01,
            unit: Some("bits".into()),
        },
        difficulty: Difficulty::new(0.5, 3, 0.6, true),
        visual: vis.into(),
        key_marks,
    }
}

fn cache_trace_question(idx: &mut usize, rng: &mut StdRng) -> Question {
    let mut cache = Cache::new(CacheConfig {
        size_bytes: 256,
        block_bytes: 32,
        associativity: 2,
        replacement: Replacement::Lru,
    })
    .expect("geometry valid");
    let trace: Vec<u64> = (0..8)
        .map(|_| u64::from(rng.gen_range(0u32..8)) * 32)
        .collect();
    let stats = cache.run_trace(&trace);
    let gold = stats.hits as f64;
    let lines: Vec<String> = std::iter::once("access trace (byte addresses):".to_string())
        .chain(trace.iter().map(|a| format!("0x{a:03X}")))
        .collect();
    let vis = text_panel(&lines, false);
    let key_marks: Vec<usize> = (1..vis.marks.len()).collect();
    Question {
        id: next_id(idx),
        category: Category::Architecture,
        visual_kind: VisualKind::Table,
        prompt: "A 256-byte two-way set-associative cache with 32-byte blocks and LRU \
                 replacement starts empty and services the address trace listed in the table. \
                 How many of the accesses hit in the cache? Answer with a number."
            .into(),
        kind: QuestionKind::ShortAnswer,
        answer: AnswerSpec::Numeric {
            value: gold,
            tolerance: 0.01,
            unit: Some("hits".into()),
        },
        difficulty: Difficulty::new(0.55, 4, 0.9, true),
        visual: vis.into(),
        key_marks,
    }
}

fn page_walk_question(idx: &mut usize, rng: &mut StdRng) -> Question {
    let cfg = VmConfig {
        page_bits: 12,
        bits_per_level: 9,
        levels: 2,
    };
    let mut asp = AddressSpace::new(cfg, 4);
    let vpn: u64 = rng.gen_range(1..512);
    let ppn: u64 = rng.gen_range(512..1024);
    asp.map(vpn << 12, ppn << 12).expect("aligned");
    let offset: u64 = rng.gen_range(0..4096);
    let va = (vpn << 12) | offset;
    let Translation::Walked { pa, .. } = asp.translate(va) else {
        panic!("mapped address walks");
    };
    let lines = vec![
        "page table entry:".to_string(),
        format!("VPN 0x{vpn:X} -> PPN 0x{ppn:X}"),
        format!("virtual address: 0x{va:X}"),
        "page size: 4 KiB".to_string(),
    ];
    let vis = text_panel(&lines, false);
    let key_marks: Vec<usize> = (1..vis.marks.len()).collect();
    Question {
        id: next_id(idx),
        category: Category::Architecture,
        visual_kind: VisualKind::Table,
        prompt: "Using the page-table mapping and the virtual address listed in the table, \
                 perform the translation and give the resulting physical address in \
                 hexadecimal."
            .into(),
        kind: QuestionKind::ShortAnswer,
        answer: AnswerSpec::Text {
            canonical: format!("0x{pa:X}"),
            aliases: vec![format!("{pa:#x}"), format!("{pa:X}"), pa.to_string()],
        },
        difficulty: Difficulty::new(0.5, 3, 0.9, true),
        visual: vis.into(),
        key_marks,
    }
}

fn noc_mc_question(idx: &mut usize, rng: &mut StdRng) -> Question {
    let gold = "hypercube";
    let vis = xrender::render_topology(Topology::Hypercube { d: 3 });
    let key_marks: Vec<usize> = (0..vis.marks.len()).collect();
    let distractors = vec![
        "2-D mesh".to_string(),
        "2-D torus".to_string(),
        "fat tree".to_string(),
        "ring".to_string(),
    ];
    let (choices, correct) = shuffle_choices(gold.to_string(), distractors, rng);
    Question {
        id: next_id(idx),
        category: Category::Architecture,
        visual_kind: VisualKind::Structure,
        prompt: "The interconnect drawing shows eight routers where every node connects to \
                 exactly three neighbours and node labels differ in one bit per link. What \
                 topology is this?"
            .into(),
        kind: QuestionKind::MultipleChoice { choices, correct },
        answer: AnswerSpec::Text {
            canonical: gold.to_string(),
            aliases: vec!["3-cube".to_string(), "binary hypercube".to_string()],
        },
        difficulty: Difficulty::new(0.45, 1, 1.0, false),
        visual: vis.into(),
        key_marks,
    }
}

fn noc_sa_question(idx: &mut usize, rng: &mut StdRng) -> Question {
    let (topo, name) = if rng.gen_bool(0.5) {
        let w = rng.gen_range(3..6);
        (Topology::Mesh { w, h: w }, format!("{w}x{w} mesh"))
    } else {
        let w = rng.gen_range(3..6);
        (Topology::Torus { w, h: w }, format!("{w}x{w} torus"))
    };
    let ask_diameter = rng.gen_bool(0.5);
    let (gold, what) = if ask_diameter {
        (topo.diameter() as f64, "network diameter in hops")
    } else {
        (topo.bisection_width() as f64, "bisection width in links")
    };
    let vis = xrender::render_topology(topo);
    let key_marks: Vec<usize> = (0..vis.marks.len()).collect();
    Question {
        id: next_id(idx),
        category: Category::Architecture,
        visual_kind: VisualKind::Structure,
        prompt: format!(
            "The drawing shows a {name} on-chip network with dimension-ordered routing. What \
             is its {what}? Answer with a number."
        ),
        kind: QuestionKind::ShortAnswer,
        answer: AnswerSpec::Numeric {
            value: gold,
            tolerance: 0.01,
            unit: None,
        },
        difficulty: Difficulty::new(0.5, 2, 0.9, true),
        visual: vis.into(),
        key_marks,
    }
}

fn branch_question(idx: &mut usize, rng: &mut StdRng) -> Question {
    let iters = rng.gen_range(4..12);
    let trips = 50;
    let trace = loop_trace(0x40, iters, trips);
    let use_two_bit = rng.gen_bool(0.5);
    let acc = if use_two_bit {
        accuracy(&mut TwoBitPredictor::new(64), &trace)
    } else {
        accuracy(&mut OneBitPredictor::new(64), &trace)
    };
    let gold = (acc * 100.0 * 10.0).round() / 10.0;
    let clk: Vec<bool> = (0..iters).map(|i| i + 1 < iters).collect();
    let vis = chipvqa_logic::render::render_waveform(&[("taken?", &clk[..])]);
    let key_marks: Vec<usize> = (0..vis.marks.len()).collect();
    Question {
        id: next_id(idx),
        category: Category::Architecture,
        visual_kind: VisualKind::Figure,
        prompt: format!(
            "The figure traces the outcome of a loop-closing branch over one loop trip: taken \
             for {} iterations, then not taken once. The loop body runs {trips} consecutive \
             trips and the branch is predicted by a {} predictor with ample table capacity. \
             What prediction accuracy does the predictor achieve over the whole run, as a \
             percentage to one decimal place?",
            iters - 1,
            if use_two_bit {
                "2-bit saturating-counter"
            } else {
                "1-bit last-outcome"
            }
        ),
        kind: QuestionKind::ShortAnswer,
        answer: AnswerSpec::Numeric {
            value: gold,
            tolerance: 0.3,
            unit: Some("percent".into()),
        },
        difficulty: Difficulty::new(0.6, 4, 0.6, true),
        visual: vis.into(),
        key_marks,
    }
}

fn vector_question(idx: &mut usize, rng: &mut StdRng) -> Question {
    let chaining = rng.gen_bool(0.5);
    let machine = VectorMachine {
        vector_length: 64,
        lanes: *super::pick(&[1u32, 2, 4], rng),
        startup_cycles: 12,
        chaining,
    };
    let prog = daxpy();
    let gold = machine.convoys(&prog).len() as f64;
    let lines = vec![
        "vector kernel (DAXPY):".to_string(),
        "LV    V1, X".to_string(),
        "MULVS V2, V1, a".to_string(),
        "LV    V3, Y".to_string(),
        "ADDV  V4, V2, V3".to_string(),
        "SV    V4, Y".to_string(),
    ];
    let vis = text_panel(&lines, false);
    let key_marks: Vec<usize> = (1..vis.marks.len()).collect();
    let distractors = numeric_distractors(gold, Some("convoys"), rng);
    let (choices, correct) =
        shuffle_choices(format!("{} convoys", trim_float(gold)), distractors, rng);
    Question {
        id: next_id(idx),
        category: Category::Architecture,
        visual_kind: VisualKind::NeuralNets,
        prompt: format!(
            "The figure lists the DAXPY kernel for a vector accelerator with one memory \
             pipeline, one multiply pipeline and one add pipeline, {} chaining. Into how many \
             convoys must the five instructions be grouped?",
            if chaining { "with" } else { "without" }
        ),
        kind: QuestionKind::MultipleChoice { choices, correct },
        answer: AnswerSpec::Numeric {
            value: gold,
            tolerance: 0.01,
            unit: Some("convoys".into()),
        },
        difficulty: Difficulty::new(0.65, 3, 0.8, true),
        visual: vis.into(),
        key_marks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_counts_and_split() {
        let qs = generate(0);
        assert_eq!(qs.len(), 20);
        let mc = qs.iter().filter(|q| q.is_multiple_choice()).count();
        assert_eq!(mc, 7);
        assert!(qs.iter().all(|q| q.category == Category::Architecture));
    }

    #[test]
    fn visual_kind_distribution() {
        let qs = generate(0);
        let count = |k: VisualKind| qs.iter().filter(|q| q.visual_kind == k).count();
        assert_eq!(count(VisualKind::Diagram), 10);
        assert_eq!(count(VisualKind::Table), 3);
        assert_eq!(count(VisualKind::Structure), 3);
        assert_eq!(count(VisualKind::Figure), 2);
        assert_eq!(count(VisualKind::NeuralNets), 2);
    }

    #[test]
    fn pipeline_golds_are_consistent() {
        // Re-running the simulator on the embedded program listing should
        // be possible in principle; here we sanity-bound the golds.
        for q in generate(3) {
            if let AnswerSpec::Numeric { value, unit, .. } = &q.answer {
                if unit.as_deref() == Some("stall cycles") {
                    assert!((0.0..=30.0).contains(value), "{}: {value}", q.id);
                }
                if unit.as_deref() == Some("CPI") {
                    assert!((1.0..=4.0).contains(value), "{}: {value}", q.id);
                }
            }
        }
    }

    #[test]
    fn branch_accuracy_in_percent_range() {
        for q in generate(5) {
            if q.id.starts_with("arch") && q.prompt.contains("prediction accuracy") {
                let AnswerSpec::Numeric { value, .. } = q.answer else {
                    panic!()
                };
                assert!((50.0..100.0).contains(&value), "{}: {value}", q.id);
            }
        }
    }

    #[test]
    fn page_walk_gold_is_hex() {
        let qs = generate(0);
        let q = qs
            .iter()
            .find(|q| q.prompt.contains("resulting physical address"))
            .expect("page walk present");
        let AnswerSpec::Text { canonical, .. } = &q.answer else {
            panic!()
        };
        assert!(canonical.starts_with("0x"));
    }

    #[test]
    fn all_visuals_rendered() {
        for q in generate(1) {
            assert!(q.visual.image.ink_pixels() > 20, "{}", q.id);
        }
    }
}
