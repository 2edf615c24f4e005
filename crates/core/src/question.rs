//! The benchmark data model: questions, answers, categories, visual
//! kinds and difficulty attributes.

use std::fmt;
use std::sync::Arc;

use chipvqa_raster::Annotated;
use serde::{Deserialize, Serialize};

/// The five chip-design disciplines of ChipVQA (Table I).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Category {
    /// Digital design (logic, CPUs, data representation).
    Digital,
    /// Analog design (amplifiers, feedback, data converters).
    Analog,
    /// Computer architecture (pipelines, caches, coherence, NoC).
    Architecture,
    /// Semiconductor manufacturing (litho, etch, doping, yield).
    Manufacture,
    /// Physical design (routing, CTS, STA, placement, DRC).
    Physical,
}

impl Category {
    /// All categories in the paper's column order.
    pub const ALL: [Category; 5] = [
        Category::Digital,
        Category::Analog,
        Category::Architecture,
        Category::Manufacture,
        Category::Physical,
    ];

    /// Column label used in the paper's tables.
    pub fn label(&self) -> &'static str {
        match self {
            Category::Digital => "Digital",
            Category::Analog => "Analog",
            Category::Architecture => "Architecture",
            Category::Manufacture => "Manufacture",
            Category::Physical => "Physical",
        }
    }
}

impl fmt::Display for Category {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The twelve visual-content kinds of Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum VisualKind {
    /// Circuit/gate schematics.
    Schematic,
    /// Block and concept diagrams.
    Diagram,
    /// Mask/cell layouts and wafer maps.
    Layout,
    /// Truth/state/trace tables.
    Table,
    /// Combined table + drawing figures.
    Mixed,
    /// Structural topology drawings.
    Structure,
    /// Photograph-style figures and waveforms.
    Figure,
    /// Plotted curves (Bode, dopant profiles).
    Curve,
    /// Flow charts.
    Flow,
    /// Sets of equations.
    Equations,
    /// Neural-network/accelerator diagrams.
    NeuralNets,
    /// A single equation.
    Equation,
}

impl VisualKind {
    /// All kinds in Table I row order.
    pub const ALL: [VisualKind; 12] = [
        VisualKind::Schematic,
        VisualKind::Diagram,
        VisualKind::Layout,
        VisualKind::Table,
        VisualKind::Mixed,
        VisualKind::Structure,
        VisualKind::Figure,
        VisualKind::Curve,
        VisualKind::Flow,
        VisualKind::Equations,
        VisualKind::NeuralNets,
        VisualKind::Equation,
    ];

    /// Table-I row label.
    pub fn label(&self) -> &'static str {
        match self {
            VisualKind::Schematic => "schematic",
            VisualKind::Diagram => "diagram",
            VisualKind::Layout => "layout",
            VisualKind::Table => "table",
            VisualKind::Mixed => "mixed",
            VisualKind::Structure => "structure",
            VisualKind::Figure => "figure",
            VisualKind::Curve => "curve",
            VisualKind::Flow => "flow",
            VisualKind::Equations => "equations",
            VisualKind::NeuralNets => "neural nets",
            VisualKind::Equation => "equation",
        }
    }
}

impl fmt::Display for VisualKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The semantic golden answer, independent of presentation (MC or SA).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum AnswerSpec {
    /// A numeric value with absolute-or-relative tolerance and an
    /// optional unit word.
    Numeric {
        /// The golden value.
        value: f64,
        /// Accepted deviation: `|x − value| ≤ max(tolerance, 0.01·|value|)`.
        tolerance: f64,
        /// Optional unit label ("V", "nm", "cycles").
        unit: Option<String>,
    },
    /// Free text with a canonical form and accepted aliases.
    Text {
        /// The canonical answer.
        canonical: String,
        /// Other accepted phrasings.
        aliases: Vec<String>,
    },
    /// A boolean expression judged by semantic equivalence.
    BoolExpr {
        /// The canonical expression in textbook syntax.
        canonical: String,
    },
}

impl AnswerSpec {
    /// A short human-readable rendering of the gold (used for MC choice
    /// text and transcripts).
    pub fn display_text(&self) -> String {
        match self {
            AnswerSpec::Numeric { value, unit, .. } => match unit {
                Some(u) => format!("{} {}", trim_float(*value), u),
                None => trim_float(*value),
            },
            AnswerSpec::Text { canonical, .. } => canonical.clone(),
            AnswerSpec::BoolExpr { canonical } => canonical.clone(),
        }
    }
}

/// Formats a float without trailing noise (`42`, `0.5`, `3.3e-7`).
pub fn trim_float(x: f64) -> String {
    if x == 0.0 {
        return "0".to_string();
    }
    let ax = x.abs();
    if (1e-3..1e7).contains(&ax) {
        if (x - x.round()).abs() < 1e-9 * ax.max(1.0) {
            format!("{}", x.round() as i64)
        } else {
            let s = format!("{x:.4}");
            s.trim_end_matches('0').trim_end_matches('.').to_string()
        }
    } else {
        format!("{x:.3e}")
    }
}

/// How the question presents its answer space.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum QuestionKind {
    /// Four options; `correct` indexes the golden one.
    MultipleChoice {
        /// The four option texts (A–D order).
        choices: [String; 4],
        /// Index of the correct option.
        correct: usize,
    },
    /// Open-ended response.
    ShortAnswer,
}

/// Difficulty attributes the simulated models condition on.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Difficulty {
    /// Depth of domain knowledge demanded, 0 (common) to 1 (expert).
    pub knowledge_depth: f64,
    /// Reasoning/derivation steps to the answer (≥ 1).
    pub reasoning_steps: u32,
    /// Fraction of answer-critical information carried by the image.
    pub visual_dependence: f64,
    /// Whether numeric computation is required.
    pub requires_arithmetic: bool,
}

impl Difficulty {
    /// Creates a difficulty descriptor, clamping ranges.
    pub fn new(
        knowledge_depth: f64,
        reasoning_steps: u32,
        visual_dependence: f64,
        requires_arithmetic: bool,
    ) -> Self {
        Difficulty {
            knowledge_depth: knowledge_depth.clamp(0.0, 1.0),
            reasoning_steps: reasoning_steps.max(1),
            visual_dependence: visual_dependence.clamp(0.0, 1.0),
            requires_arithmetic,
        }
    }
}

/// One VQA triplet: prompt, rendered visual, golden answer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Question {
    /// Stable id, e.g. `digital-007`.
    pub id: String,
    /// Discipline.
    pub category: Category,
    /// Visual content kind.
    pub visual_kind: VisualKind,
    /// The question text (without choices; those live in `kind`).
    pub prompt: String,
    /// MC or SA presentation.
    pub kind: QuestionKind,
    /// Semantic golden answer.
    pub answer: AnswerSpec,
    /// Difficulty attributes.
    pub difficulty: Difficulty,
    /// Rendered visual, shared rather than copied: a clone of the
    /// question (its [`to_short_answer`](Question::to_short_answer)
    /// form included) points at the same pixels. Skipped in
    /// serialization — the dataset is deterministic from its seed, so
    /// exports carry metadata only and images are regenerated.
    #[serde(skip)]
    pub visual: Arc<Annotated>,
    /// Indices into `visual.marks` that a solver must perceive.
    pub key_marks: Vec<usize>,
}

impl Question {
    /// Whether the question is multiple-choice.
    pub fn is_multiple_choice(&self) -> bool {
        matches!(self.kind, QuestionKind::MultipleChoice { .. })
    }

    /// The full prompt as sent to a model: question text plus lettered
    /// options for MC.
    pub fn full_prompt(&self) -> String {
        match &self.kind {
            QuestionKind::MultipleChoice { choices, .. } => {
                let mut s = self.prompt.clone();
                for (i, c) in choices.iter().enumerate() {
                    s.push_str(&format!("\n({}) {}", (b'a' + i as u8) as char, c));
                }
                s
            }
            QuestionKind::ShortAnswer => self.prompt.clone(),
        }
    }

    /// The golden answer as display text (choice text for MC).
    pub fn golden_text(&self) -> String {
        match &self.kind {
            QuestionKind::MultipleChoice { choices, correct } => choices[*correct].clone(),
            QuestionKind::ShortAnswer => self.answer.display_text(),
        }
    }

    /// Converts an MC question into its challenge-collection short-answer
    /// form (prompt unchanged, choices removed — §IV-A of the paper); a
    /// short-answer question comes back unchanged. The id, the key marks
    /// and the visual carry over, the visual by reference, so the
    /// converted question shares its source's pixels and perceives
    /// exactly as the source does.
    pub fn to_short_answer(&self) -> Question {
        let mut q = self.clone();
        q.kind = QuestionKind::ShortAnswer;
        q
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Question {
        Question {
            id: "digital-000".into(),
            category: Category::Digital,
            visual_kind: VisualKind::Table,
            prompt: "Derive the function for Q given the state table.".into(),
            kind: QuestionKind::MultipleChoice {
                choices: [
                    "Q = S'Q + S".into(),
                    "Q = S'R'q + SR'".into(),
                    "Q = SR' + R'q".into(),
                    "Q = S'Q + SR'".into(),
                ],
                correct: 3,
            },
            answer: AnswerSpec::BoolExpr {
                canonical: "S'Q + SR'".into(),
            },
            difficulty: Difficulty::new(0.5, 3, 0.9, false),
            visual: Arc::default(),
            key_marks: vec![],
        }
    }

    #[test]
    fn full_prompt_includes_lettered_choices() {
        let q = sample();
        let p = q.full_prompt();
        assert!(p.contains("(a) Q = S'Q + S"));
        assert!(p.contains("(d) Q = S'Q + SR'"));
    }

    #[test]
    fn challenge_transform_keeps_prompt_and_answer() {
        let q = sample();
        let sa = q.to_short_answer();
        assert_eq!(sa.prompt, q.prompt);
        assert!(!sa.is_multiple_choice());
        assert_eq!(sa.golden_text(), "S'Q + SR'");
        assert_eq!(sa.answer, q.answer);
    }

    #[test]
    fn golden_text_of_mc_is_choice() {
        assert_eq!(sample().golden_text(), "Q = S'Q + SR'");
    }

    #[test]
    fn trim_float_formats() {
        assert_eq!(trim_float(42.0), "42");
        assert_eq!(trim_float(0.5), "0.5");
        assert_eq!(trim_float(-3.25), "-3.25");
        assert_eq!(trim_float(3.3e-7), "3.300e-7");
        assert_eq!(trim_float(0.0), "0");
        assert_eq!(trim_float(1.23456), "1.2346");
    }

    #[test]
    fn difficulty_clamps() {
        let d = Difficulty::new(2.0, 0, -1.0, true);
        assert_eq!(d.knowledge_depth, 1.0);
        assert_eq!(d.reasoning_steps, 1);
        assert_eq!(d.visual_dependence, 0.0);
    }

    #[test]
    fn serde_skips_visual() {
        let q = sample();
        let json = serde_json::to_string(&q).unwrap();
        assert!(!json.contains("pixels"));
        let back: Question = serde_json::from_str(&json).unwrap();
        assert_eq!(back.prompt, q.prompt);
        assert_eq!(*back.visual, Annotated::default());
    }

    #[test]
    fn answer_display_text() {
        let n = AnswerSpec::Numeric {
            value: 5.5,
            tolerance: 0.1,
            unit: Some("minutes".into()),
        };
        assert_eq!(n.display_text(), "5.5 minutes");
        let t = AnswerSpec::Text {
            canonical: "half adder".into(),
            aliases: vec![],
        };
        assert_eq!(t.display_text(), "half adder");
    }
}
