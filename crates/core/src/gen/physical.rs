//! Physical Design question generator: 23 questions (8 MC + 15 SA) over
//! routing topologies, wirelength, clock trees, timing, legalization and
//! useful skew (§III-B.4) — including the paper's "which routing topology
//! has lower cost?" example.

use chipvqa_physd::cts::{comb_tree, h_tree};
use chipvqa_physd::geom::Point;
use chipvqa_physd::maze::Grid;
use chipvqa_physd::net::Net;
use chipvqa_physd::place::{legalize, total_displacement, Cell, PlacementRegion};
use chipvqa_physd::render as prender;
use chipvqa_physd::sta::{TimingGraph, TimingNode};
use chipvqa_physd::steiner::{rmst, star_tree};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use super::{memo, numeric_distractors, shuffle_choices, text_panel};
use crate::question::{
    trim_float, AnswerSpec, Category, Difficulty, Question, QuestionKind, VisualKind,
};

/// Questions per replica block (Table I's Physical count).
pub const BLOCK_SIZE: usize = 23;

/// Replica block `replica` for the scale engine: the same family
/// sequence under the replica-mixed seed, ids renumbered past the
/// preceding blocks. Replica 0 is [`generate`] verbatim.
pub fn generate_replica(seed: u64, replica: usize) -> Vec<Question> {
    super::replica_block(generate, seed, replica, "physical")
}

/// Generates the 23-question Physical Design set (8 MC, 15 SA).
pub fn generate(seed: u64) -> Vec<Question> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9D51);
    let mut out = Vec::with_capacity(23);
    let mut idx = 0usize;
    for k in 0..4 {
        out.push(route_comparison_question(k, &mut idx, &mut rng));
    }
    for _ in 0..3 {
        out.push(hpwl_question(&mut idx, &mut rng));
    }
    for _ in 0..2 {
        out.push(steiner_gain_question(&mut idx, &mut rng));
    }
    for k in 0..3 {
        out.push(maze_question(k, &mut idx, &mut rng));
    }
    for k in 0..4 {
        out.push(clock_tree_question(k, &mut idx, &mut rng));
    }
    for k in 0..4 {
        out.push(sta_question(k, &mut idx, &mut rng));
    }
    for _ in 0..2 {
        out.push(legalize_question(&mut idx, &mut rng));
    }
    out.push(useful_skew_question(&mut idx, &mut rng));
    assert_eq!(out.len(), 23);
    out
}

fn next_id(idx: &mut usize) -> String {
    let id = format!("physical-{idx:03}");
    *idx += 1;
    id
}

fn random_pins(rng: &mut StdRng, n: usize) -> Vec<Point> {
    let mut pins = Vec::new();
    while pins.len() < n {
        let p = Point::new(rng.gen_range(0..16), rng.gen_range(0..16));
        if !pins.contains(&p) {
            pins.push(p);
        }
    }
    pins
}

fn route_comparison_question(k: usize, idx: &mut usize, rng: &mut StdRng) -> Question {
    let extra = rng.gen_range(0..2);
    let pins = random_pins(rng, 4 + extra);
    let good = memo::rsmt_cached(&pins);
    let bad = star_tree(&pins);
    let vis = prender::render_route_comparison(&good, &bad, &pins);
    let key_marks: Vec<usize> = (0..vis.marks.len()).collect();
    if k < 2 {
        // MC: which topology is cheaper (regenerate until they differ)
        let (gold, alt) = if good.cost() < bad.cost() {
            ("topology A", "topology B")
        } else if bad.cost() < good.cost() {
            ("topology B", "topology A")
        } else {
            ("topology A", "topology B") // equal: A ties, count as A
        };
        let distractors = vec![
            alt.to_string(),
            "both topologies cost the same".to_string(),
            "the cost cannot be determined from the figure".to_string(),
        ];
        let (choices, correct) = shuffle_choices(gold.to_string(), distractors, rng);
        Question {
            id: next_id(idx),
            category: Category::Physical,
            visual_kind: VisualKind::Layout,
            prompt: "The routing points' coordinates are shown in the two diagrams, which route \
                     the same net with different topologies (A uses a Steiner tree, B routes \
                     every pin from a single hub). Can you calculate the routing costs for the \
                     2 diagrams and determine which routing topology has lower cost?"
                .into(),
            kind: QuestionKind::MultipleChoice { choices, correct },
            answer: AnswerSpec::Text {
                canonical: gold.to_string(),
                aliases: vec![gold.replace("topology ", "")],
            },
            difficulty: Difficulty::new(0.55, 3, 1.0, true),
            visual: vis,
            key_marks,
        }
    } else {
        let gold = good.cost() as f64;
        Question {
            id: next_id(idx),
            category: Category::Physical,
            visual_kind: VisualKind::Layout,
            prompt: "Topology A in the left diagram routes the annotated pins with a \
                     rectilinear Steiner tree (hollow squares are Steiner points). Summing the \
                     Manhattan lengths of its edges, what is the total routing cost of \
                     topology A? Answer with a number in grid units."
                .into(),
            kind: QuestionKind::ShortAnswer,
            answer: AnswerSpec::Numeric {
                value: gold,
                tolerance: 0.01,
                unit: Some("units".into()),
            },
            difficulty: Difficulty::new(0.6, 4, 1.0, true),
            visual: vis,
            key_marks,
        }
    }
}

fn hpwl_question(idx: &mut usize, rng: &mut StdRng) -> Question {
    let extra = rng.gen_range(0..3);
    let pins = random_pins(rng, 3 + extra);
    let net = Net::new("n1", pins.clone());
    let gold = net.hpwl() as f64;
    let tree = rmst(&pins);
    let vis = prender::render_route_tree(&tree, &pins, "net n1");
    let key_marks: Vec<usize> = (0..vis.marks.len()).collect();
    Question {
        id: next_id(idx),
        category: Category::Physical,
        visual_kind: VisualKind::Layout,
        prompt: "The layout shows the pins of net n1 with their coordinates annotated. What is \
                 the half-perimeter wirelength (HPWL) of the net's bounding box? Answer with a \
                 number in grid units."
            .into(),
        kind: QuestionKind::ShortAnswer,
        answer: AnswerSpec::Numeric {
            value: gold,
            tolerance: 0.01,
            unit: Some("units".into()),
        },
        difficulty: Difficulty::new(0.45, 2, 1.0, true),
        visual: vis,
        key_marks,
    }
}

fn steiner_gain_question(idx: &mut usize, rng: &mut StdRng) -> Question {
    // force a pin set with genuine Steiner gain; keep the accepted
    // draw's trees instead of re-solving them for the render (both
    // solvers are deterministic, so the trees are the same)
    let (pins, mst, smt) = loop {
        let pins = random_pins(rng, 4);
        let m = rmst(&pins);
        let s = memo::rsmt_cached(&pins);
        if s.cost() < m.cost() {
            break (pins, m, s);
        }
    };
    let gold = (mst.cost() - smt.cost()) as f64;
    let vis = prender::render_route_comparison(&smt, &mst, &pins);
    let key_marks: Vec<usize> = (0..vis.marks.len()).collect();
    Question {
        id: next_id(idx),
        category: Category::Physical,
        visual_kind: VisualKind::Layout,
        prompt: "Topology A routes the annotated pins with a rectilinear Steiner tree and \
                 topology B with a spanning tree that connects pins directly. How many grid \
                 units of wirelength does the Steiner topology save over the spanning tree? \
                 Answer with a number."
            .into(),
        kind: QuestionKind::ShortAnswer,
        answer: AnswerSpec::Numeric {
            value: gold,
            tolerance: 0.01,
            unit: Some("units".into()),
        },
        difficulty: Difficulty::new(0.65, 4, 1.0, true),
        visual: vis,
        key_marks,
    }
}

fn maze_question(k: usize, idx: &mut usize, rng: &mut StdRng) -> Question {
    let mut grid = Grid::new(14, 14);
    // a wall with no gap forcing a detour
    let wall_x = 6 + rng.gen_range(0..2);
    let wall_h = 9 + rng.gen_range(0..3);
    grid.block_rect(wall_x, 0, 1, wall_h);
    let src = Point::new(2, 3);
    let dst = Point::new(11, 3);
    let len = grid
        .route_length(src, dst)
        .expect("detour exists over the wall") as f64;
    // draw the grid: obstacle as a filled layout rect + pins
    let cells = vec![(
        "blockage".to_string(),
        chipvqa_physd::geom::Rect::new(wall_x as i64, 0, wall_x as i64 + 1, wall_h as i64),
    )];
    let mut vis = prender::render_cell_layout(&cells);
    let w = vis.image.width();
    vis.image.draw_text(
        10,
        (vis.image.height() - 24) as i64,
        &format!(
            "route ({},{}) to ({},{}) on a 14x14 grid",
            src.x, src.y, dst.x, dst.y
        ),
        2,
        0,
    );
    vis.mark(
        format!("terminals ({},{}) and ({},{})", src.x, src.y, dst.x, dst.y),
        chipvqa_raster::Region::new(8, vis.image.height() - 28, w - 16, 26),
    );
    let key_marks: Vec<usize> = (0..vis.marks.len()).collect();
    if k == 2 {
        let distractors = numeric_distractors(len, Some("steps"), rng);
        let (choices, correct) =
            shuffle_choices(format!("{} steps", trim_float(len)), distractors, rng);
        Question {
            id: next_id(idx),
            category: Category::Physical,
            visual_kind: VisualKind::Layout,
            prompt: "A maze router must connect the two terminals shown around the routing \
                     blockage (the solid rectangle spans the full wall height shown). What is \
                     the length of the shortest legal path in grid steps?"
                .into(),
            kind: QuestionKind::MultipleChoice { choices, correct },
            answer: AnswerSpec::Numeric {
                value: len,
                tolerance: 0.01,
                unit: Some("steps".into()),
            },
            difficulty: Difficulty::new(0.55, 3, 1.0, true),
            visual: vis,
            key_marks,
        }
    } else {
        Question {
            id: next_id(idx),
            category: Category::Physical,
            visual_kind: VisualKind::Layout,
            prompt: "Run Lee's maze-routing algorithm between the two annotated terminals, \
                     detouring around the blockage shown. How many grid steps long is the \
                     shortest legal route? Answer with a number."
                .into(),
            kind: QuestionKind::ShortAnswer,
            answer: AnswerSpec::Numeric {
                value: len,
                tolerance: 0.01,
                unit: Some("steps".into()),
            },
            difficulty: Difficulty::new(0.6, 4, 1.0, true),
            visual: vis,
            key_marks,
        }
    }
}

fn clock_tree_question(k: usize, idx: &mut usize, rng: &mut StdRng) -> Question {
    let levels = 2 + rng.gen_range(0..2);
    let h = h_tree(Point::new(0, 0), 64, levels);
    let comb = comb_tree(Point::new(0, 0), 64, levels);
    let delay = 0.01; // ns per unit
    if k < 2 {
        // SA: skew of the comb tree
        let gold = (comb.skew(delay) * 100.0).round() / 100.0;
        let vis = prender::render_clock_tree(&comb);
        let key_marks: Vec<usize> = (0..vis.marks.len()).collect();
        Question {
            id: next_id(idx),
            category: Category::Physical,
            visual_kind: VisualKind::Schematic,
            prompt: format!(
                "The clock distribution shown drives {} sinks from the source square via a \
                 spine-and-fingers comb; the first labelled sinks carry their source-to-sink \
                 path lengths. With a wire delay of {} ns per unit length, what is the clock \
                 skew (max minus min sink delay)? Answer in ns to two decimals.",
                comb.sinks.len(),
                trim_float(delay)
            ),
            kind: QuestionKind::ShortAnswer,
            answer: AnswerSpec::Numeric {
                value: gold,
                tolerance: gold.abs() * 0.05 + 0.01,
                unit: Some("ns".into()),
            },
            difficulty: Difficulty::new(0.6, 3, 0.9, true),
            visual: vis,
            key_marks,
        }
    } else {
        let gold = "the H-tree";
        let vis = prender::render_clock_tree(&h);
        let key_marks: Vec<usize> = (0..vis.marks.len()).collect();
        let distractors = vec![
            "the comb (spine and fingers)".to_string(),
            "both have identical skew".to_string(),
            "skew depends only on the buffer sizing".to_string(),
        ];
        let (choices, correct) = shuffle_choices(gold.to_string(), distractors, rng);
        Question {
            id: next_id(idx),
            category: Category::Physical,
            visual_kind: VisualKind::Schematic,
            prompt: "Two clock-distribution styles serve the same sink array: the symmetric \
                     H-tree shown, and a comb that runs a spine along one edge with a finger \
                     up to each sink. Under a purely wirelength-proportional delay model, \
                     which network achieves lower clock skew?"
                .into(),
            kind: QuestionKind::MultipleChoice { choices, correct },
            answer: AnswerSpec::Text {
                canonical: gold.to_string(),
                aliases: vec!["H-tree".to_string(), "h tree".to_string()],
            },
            difficulty: Difficulty::new(0.5, 2, 0.8, false),
            visual: vis,
            key_marks,
        }
    }
}

fn random_timing_graph(rng: &mut StdRng) -> (TimingGraph, Vec<TimingNode>, f64) {
    let mut g = TimingGraph::new();
    let in1 = g.add_node("FF1/Q", 0.2).expect("positive delay");
    let in2 = g.add_node("FF2/Q", 0.2).expect("positive delay");
    let d1 = 0.5 + f64::from(rng.gen_range(0..5)) * 0.25;
    let d2 = 0.5 + f64::from(rng.gen_range(5..10)) * 0.25;
    let g1 = g.add_node("U1", d1).expect("positive delay");
    let g2 = g.add_node("U2", d2).expect("positive delay");
    let g3 = g.add_node("U3", 0.5).expect("positive delay");
    g.add_edge(in1, g1, 0.1).expect("forward edge");
    g.add_edge(in2, g2, 0.1).expect("forward edge");
    g.add_edge(g1, g3, 0.1).expect("forward edge");
    g.add_edge(g2, g3, 0.1).expect("forward edge");
    g.mark_startpoint(in1);
    g.mark_startpoint(in2);
    g.mark_endpoint(g3);
    let min_period = g.min_period();
    (g, vec![in1, in2, g1, g2, g3], min_period)
}

fn sta_question(k: usize, idx: &mut usize, rng: &mut StdRng) -> Question {
    let (g, _nodes, min_period) = random_timing_graph(rng);
    let lines = vec![
        "timing graph (delays in ns):".to_string(),
        format!(
            "FF1/Q (0.2) -> U1 ({}) -> U3 (0.5)",
            trim_float(g_delay(&g, 2))
        ),
        format!(
            "FF2/Q (0.2) -> U2 ({}) -> U3 (0.5)",
            trim_float(g_delay(&g, 3))
        ),
        "every wire adds 0.1 ns".to_string(),
    ];
    let vis = text_panel(&lines, false);
    let key_marks: Vec<usize> = (1..vis.marks.len()).collect();
    if k < 2 {
        let period = (min_period * 10.0).round() / 10.0 + 0.5;
        let report = g.analyze(period, &[]);
        let gold = (report.worst_slack * 100.0).round() / 100.0;
        Question {
            id: next_id(idx),
            category: Category::Physical,
            visual_kind: VisualKind::Schematic,
            prompt: format!(
                "The figure lists a small timing graph with gate delays in ns and 0.1 ns per \
                 wire. At a clock period of {} ns, what is the worst slack at the endpoint \
                 U3? Answer in ns to two decimals.",
                trim_float(period)
            ),
            kind: QuestionKind::ShortAnswer,
            answer: AnswerSpec::Numeric {
                value: gold,
                tolerance: 0.02,
                unit: Some("ns".into()),
            },
            difficulty: Difficulty::new(0.6, 4, 0.9, true),
            visual: vis,
            key_marks,
        }
    } else {
        let report = g.analyze(min_period, &[]);
        let names: Vec<String> = report
            .critical_path
            .iter()
            .map(|&n| g.name(n).to_string())
            .collect();
        let gold = names.join(" -> ");
        let alt1 = "FF1/Q -> U1 -> U3".to_string();
        let alt2 = "FF2/Q -> U2 -> U3".to_string();
        let distractors = vec![
            if gold == alt1 {
                alt2.clone()
            } else {
                alt1.clone()
            },
            "FF1/Q -> U2 -> U3".to_string(),
            "FF2/Q -> U1 -> U3".to_string(),
        ];
        let (choices, correct) = shuffle_choices(gold.clone(), distractors, rng);
        Question {
            id: next_id(idx),
            category: Category::Physical,
            visual_kind: VisualKind::Schematic,
            prompt: "Using the gate and wire delays listed in the figure, which register-to-\
                     endpoint path is the critical (longest-delay) path?"
                .into(),
            kind: QuestionKind::MultipleChoice { choices, correct },
            answer: AnswerSpec::Text {
                canonical: gold,
                aliases: vec![],
            },
            difficulty: Difficulty::new(0.55, 3, 0.9, false),
            visual: vis,
            key_marks,
        }
    }
}

fn g_delay(g: &TimingGraph, node: usize) -> f64 {
    // helper: recover the delay we stored (nodes were added in a fixed
    // order; delays are not otherwise exposed per-node, so recompute from
    // arrival analysis of a trivial graph is overkill — we track via name)
    // Instead: re-derive from min_period structure is fragile; keep the
    // listing consistent by re-deriving from arrival times.
    let report = g.analyze(100.0, &[]);
    // arrival(U1) = 0.2 + 0.1 + d -> d = arrival - 0.3
    (report.arrival[node] - 0.3).max(0.0)
}

fn legalize_question(idx: &mut usize, rng: &mut StdRng) -> Question {
    let region = PlacementRegion {
        rows: 2,
        sites_per_row: 12,
    };
    let n = 3 + rng.gen_range(0..2);
    // The greedy legalizer can strand a cell behind both fill pointers
    // (`PlaceError::NoRowFits`); re-draw until it places them all. Extra
    // draws happen only then, so every block whose first draw legalizes
    // keeps its bytes.
    let (cells, placed) = loop {
        let cells: Vec<Cell> = (0..n)
            .map(|i| Cell {
                name: format!("c{i}"),
                width: rng.gen_range(2..5),
                target: Point::new(rng.gen_range(0..6), 0), // overlapped targets
            })
            .collect();
        if let Ok(placed) = legalize(&cells, region) {
            break (cells, placed);
        }
    };
    let gold = total_displacement(&placed) as f64;
    let lines: Vec<String> = std::iter::once("global placement (row 0):".to_string())
        .chain(
            cells
                .iter()
                .map(|c| format!("{} width {} at x={}", c.name, c.width, c.target.x)),
        )
        .chain(std::iter::once("rows: 2, sites per row: 12".to_string()))
        .collect();
    let vis = text_panel(&lines, false);
    let key_marks: Vec<usize> = (1..vis.marks.len()).collect();
    Question {
        id: next_id(idx),
        category: Category::Physical,
        visual_kind: VisualKind::Diagram,
        prompt: "The diagram lists overlapping global-placement locations for standard cells \
                 in a 2-row region. A Tetris-style legalizer processes cells left-to-right, \
                 packing each into the nearest free site (clamped into the row). What total \
                 Manhattan displacement does legalization incur? Answer with a number in \
                 sites."
            .into(),
        kind: QuestionKind::ShortAnswer,
        answer: AnswerSpec::Numeric {
            value: gold,
            tolerance: 0.01,
            unit: Some("sites".into()),
        },
        difficulty: Difficulty::new(0.65, 4, 0.85, true),
        visual: vis,
        key_marks,
    }
}

fn useful_skew_question(idx: &mut usize, rng: &mut StdRng) -> Question {
    let gold = "advance the capturing register's clock of the short path and delay the \
                critical path's launch";
    let lines = vec![
        "setup constraint:".to_string(),
        "Tclk >= Tcq + Tlogic + Tsetup - Tskew".to_string(),
        "Tskew = Tcapture - Tlaunch".to_string(),
    ];
    let vis = text_panel(&lines, false);
    let distractors = vec![
        "increase the clock period for every register equally".to_string(),
        "delay the capture clock of the critical path's endpoint".to_string(),
        "remove the clock tree buffers on the short path".to_string(),
    ];
    let (choices, correct) = shuffle_choices(gold.to_string(), distractors, rng);
    Question {
        id: next_id(idx),
        category: Category::Physical,
        visual_kind: VisualKind::Equations,
        prompt: "The equations in the figure give the setup constraint with useful skew. To \
                 let a critical path borrow time from a fast neighbouring stage without \
                 changing the clock period, how should the clock arrivals be skewed?"
            .into(),
        kind: QuestionKind::MultipleChoice { choices, correct },
        answer: AnswerSpec::Text {
            canonical: gold.to_string(),
            aliases: vec!["borrow time via useful skew".to_string()],
        },
        difficulty: Difficulty::new(0.7, 3, 0.7, false),
        visual: vis,
        key_marks: vec![1, 2],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_counts_and_split() {
        let qs = generate(0);
        assert_eq!(qs.len(), 23);
        let mc = qs.iter().filter(|q| q.is_multiple_choice()).count();
        assert_eq!(mc, 8);
    }

    #[test]
    fn visual_kind_distribution() {
        let qs = generate(0);
        let count = |k: VisualKind| qs.iter().filter(|q| q.visual_kind == k).count();
        assert_eq!(count(VisualKind::Layout), 12);
        assert_eq!(count(VisualKind::Schematic), 8);
        assert_eq!(count(VisualKind::Diagram), 2);
        assert_eq!(count(VisualKind::Equations), 1);
    }

    #[test]
    fn paper_routing_question_present() {
        let qs = generate(0);
        assert!(qs.iter().any(|q| q
            .prompt
            .contains("determine which routing topology has lower cost")));
    }

    #[test]
    fn route_costs_positive_and_steiner_wins_or_ties() {
        for q in generate(3) {
            if let AnswerSpec::Numeric { value, unit, .. } = &q.answer {
                if unit.as_deref() == Some("units") {
                    assert!(*value >= 0.0, "{}: {value}", q.id);
                }
            }
        }
    }

    #[test]
    fn skew_questions_have_positive_gold() {
        for q in generate(2) {
            if q.prompt.contains("clock skew") && !q.is_multiple_choice() {
                let AnswerSpec::Numeric { value, .. } = q.answer else {
                    panic!()
                };
                assert!(value > 0.0, "{}: comb tree skew must be positive", q.id);
            }
        }
    }

    #[test]
    fn all_visuals_rendered() {
        for q in generate(1) {
            assert!(q.visual.image.ink_pixels() > 30, "{}", q.id);
            assert!(!q.visual.marks.is_empty(), "{}", q.id);
        }
    }
}
