//! The equivalence judge: decides whether a model response matches the
//! golden answer.

use std::collections::HashMap;

use chipvqa_core::question::{AnswerSpec, Question, QuestionKind};
use chipvqa_logic::Expr;

use crate::normalize::{extract_choice_letter, extract_number, normalize_text};

/// Binary equivalence judgement between a response and a question's gold.
/// The paper uses GPT-4 in this role; the reproduction's default is
/// [`RuleJudge`], and [`HybridJudge`] adds the paper's manual overrides.
///
/// Judges are `Sync` so the parallel executor can share one judge across
/// worker threads. The executor asks the judge once per pass@k attempt.
///
/// Under supervised execution every [`Judge::is_correct`] call is treated
/// as fallible infrastructure (a remote LLM judge can time out or be
/// rate-limited): the [`Supervisor`](crate::supervisor::Supervisor)
/// wraps each call with fault injection, deadline and bounded retries,
/// and a verdict that exhausts recovery fails the question with a
/// structured [`EvalError`](crate::supervisor::EvalError) instead of
/// silently scoring it wrong.
pub trait Judge: Sync {
    /// Returns `true` when `response` answers `question` correctly.
    fn is_correct(&self, question: &Question, response: &str) -> bool;
}

/// Deterministic rule-based judge (see crate docs for the substitution
/// rationale).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RuleJudge;

impl RuleJudge {
    /// Creates the judge.
    pub fn new() -> Self {
        RuleJudge
    }

    fn semantic_match(&self, answer: &AnswerSpec, response: &str) -> bool {
        match answer {
            AnswerSpec::Numeric {
                value, tolerance, ..
            } => match extract_number(response) {
                Some(x) => {
                    let tol = tolerance.max(value.abs() * 0.01).max(1e-12);
                    (x - value).abs() <= tol
                }
                None => false,
            },
            AnswerSpec::Text { canonical, aliases } => {
                let got = normalize_text(response);
                if got.is_empty() {
                    return false;
                }
                std::iter::once(canonical)
                    .chain(aliases.iter())
                    .any(|accept| {
                        let want = normalize_text(accept);
                        !want.is_empty() && (got == want || got.contains(&want))
                    })
            }
            AnswerSpec::BoolExpr { canonical } => {
                // strip a leading "Q =" / "F =" style binding; the gold
                // is parsed only once the response parses
                let rhs = response
                    .split_once('=')
                    .map(|(_, r)| r)
                    .unwrap_or(response)
                    .trim();
                let Ok(e) = Expr::parse(rhs) else {
                    return false;
                };
                let Ok(gold) = Expr::parse(canonical) else {
                    return false;
                };
                e.equivalent(&gold).unwrap_or(false)
            }
        }
    }
}

impl Judge for RuleJudge {
    fn is_correct(&self, question: &Question, response: &str) -> bool {
        match &question.kind {
            QuestionKind::MultipleChoice { choices, correct } => {
                // Preferred: an option letter.
                if let Some(letter) = extract_choice_letter(response) {
                    return (letter as u8 - b'a') as usize == *correct;
                }
                // Otherwise: verbatim choice text or semantic match.
                let got = normalize_text(response);
                if !got.is_empty() && got == normalize_text(&choices[*correct]) {
                    return true;
                }
                self.semantic_match(&question.answer, response)
            }
            QuestionKind::ShortAnswer => self.semantic_match(&question.answer, response),
        }
    }
}

/// The paper's hybrid evaluation: an automatic judge plus explicit
/// manual verdict overrides for the visually-entangled cases an
/// auto-judge cannot settle (§IV: "for certain questions ... we conduct
/// manual checks by the annotators"). An annotator judges one answer:
/// an override decides one response text to one question, and every
/// other response to that question (another model's, or the no-choice
/// column's, which keeps the id) goes to the auto judge.
#[derive(Debug, Clone, Default)]
pub struct HybridJudge {
    auto: RuleJudge,
    /// Verdicts by question id, then by response text.
    overrides: HashMap<String, HashMap<String, bool>>,
}

impl HybridJudge {
    /// A hybrid judge with no overrides yet.
    pub fn new() -> Self {
        HybridJudge::default()
    }

    /// Records an annotator verdict on `response` to question
    /// `question_id`, bypassing the auto judge for that answer only.
    pub fn override_verdict(
        &mut self,
        question_id: impl Into<String>,
        response: impl Into<String>,
        correct: bool,
    ) {
        self.overrides
            .entry(question_id.into())
            .or_default()
            .insert(response.into(), correct);
    }

    /// Number of manual overrides registered.
    pub fn override_count(&self) -> usize {
        self.overrides.values().map(HashMap::len).sum()
    }
}

impl Judge for HybridJudge {
    fn is_correct(&self, question: &Question, response: &str) -> bool {
        let verdict = self
            .overrides
            .get(&question.id)
            .and_then(|responses| responses.get(response));
        match verdict {
            Some(&verdict) => verdict,
            None => self.auto.is_correct(question, response),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chipvqa_core::question::{Category, Difficulty, VisualKind};

    fn question(kind: QuestionKind, answer: AnswerSpec) -> Question {
        Question {
            id: "t-000".into(),
            category: Category::Digital,
            visual_kind: VisualKind::Diagram,
            prompt: "?".into(),
            kind,
            answer,
            difficulty: Difficulty::new(0.5, 1, 0.5, false),
            visual: Default::default(),
            key_marks: vec![],
        }
    }

    fn mc() -> Question {
        question(
            QuestionKind::MultipleChoice {
                choices: [
                    "Q = S'Q + S".into(),
                    "Q = S'R'q + SR'".into(),
                    "Q = SR' + R'q".into(),
                    "Q = S'Q + SR'".into(),
                ],
                correct: 3,
            },
            AnswerSpec::BoolExpr {
                canonical: "S'Q + SR'".into(),
            },
        )
    }

    #[test]
    fn mc_letter_judging() {
        let j = RuleJudge::new();
        let q = mc();
        assert!(j.is_correct(&q, "(d) Q = S'Q + SR'"));
        assert!(j.is_correct(&q, "d"));
        assert!(j.is_correct(&q, "The answer is (D)"));
        assert!(!j.is_correct(&q, "(a) Q = S'Q + S"));
        assert!(!j.is_correct(&q, "b."));
    }

    #[test]
    fn mc_choice_text_judging() {
        let j = RuleJudge::new();
        let q = mc();
        assert!(j.is_correct(&q, "Q = S'Q + SR'"));
        // semantically equivalent rewriting also accepted
        assert!(j.is_correct(&q, "Q = QS' + R'S"));
    }

    #[test]
    fn numeric_tolerance() {
        let j = RuleJudge::new();
        let q = question(
            QuestionKind::ShortAnswer,
            AnswerSpec::Numeric {
                value: 5.5,
                tolerance: 0.1,
                unit: Some("minutes".into()),
            },
        );
        assert!(j.is_correct(&q, "5.5 minutes"));
        assert!(j.is_correct(&q, "about 5.45"));
        assert!(j.is_correct(&q, "t = 5.52 min"));
        assert!(!j.is_correct(&q, "6.5 minutes"));
        assert!(!j.is_correct(&q, "there is not enough information"));
    }

    #[test]
    fn text_aliases_and_containment() {
        let j = RuleJudge::new();
        let q = question(
            QuestionKind::ShortAnswer,
            AnswerSpec::Text {
                canonical: "half adder".into(),
                aliases: vec!["1-bit half adder".into()],
            },
        );
        assert!(j.is_correct(&q, "Half Adder"));
        assert!(j.is_correct(&q, "It is a half adder circuit."));
        assert!(!j.is_correct(&q, "full adder"));
        assert!(!j.is_correct(&q, ""));
    }

    #[test]
    fn boolexpr_semantic_equivalence() {
        let j = RuleJudge::new();
        let q = question(
            QuestionKind::ShortAnswer,
            AnswerSpec::BoolExpr {
                canonical: "S'Q + SR'".into(),
            },
        );
        assert!(j.is_correct(&q, "Q = S'Q + SR'"));
        assert!(j.is_correct(&q, "SR' + QS'"));
        assert!(!j.is_correct(&q, "S + R'Q")); // differs on Q=1,S=0,R=1
        assert!(!j.is_correct(&q, "(S'Q + SR')'"));
        assert!(!j.is_correct(&q, "word salad"));
    }

    mod fuzz {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// Arbitrary garbage must never panic the judge, and must
            /// never be accepted for a numeric gold unless it actually
            /// contains a number in tolerance.
            #[test]
            fn judge_never_panics_on_garbage(resp in ".{0,120}") {
                let j = RuleJudge::new();
                let q = question(
                    QuestionKind::ShortAnswer,
                    AnswerSpec::Numeric {
                        value: 123.45,
                        tolerance: 0.5,
                        unit: Some("ns".into()),
                    },
                );
                let verdict = j.is_correct(&q, &resp);
                if verdict {
                    let n = crate::normalize::extract_number(&resp)
                        .expect("accepted numeric answers must contain a number");
                    prop_assert!((n - 123.45).abs() <= 1.3, "{resp:?} -> {n}");
                }
            }

            #[test]
            fn mc_judge_never_panics(resp in ".{0,120}") {
                let j = RuleJudge::new();
                let q = mc();
                let _ = j.is_correct(&q, &resp);
            }
        }
    }

    #[test]
    fn full_benchmark_golds_self_judge() {
        // Every question's own golden text must be judged correct — the
        // benchmark would otherwise contain unanswerable items.
        let j = RuleJudge::new();
        let bench = chipvqa_core::ChipVqa::standard();
        for q in bench.iter() {
            assert!(
                j.is_correct(q, &q.golden_text()),
                "{}: gold '{}' rejected",
                q.id,
                q.golden_text()
            );
        }
        // and in challenge form
        for q in bench.challenge().iter() {
            assert!(
                j.is_correct(q, &q.golden_text()),
                "{} (challenge): gold '{}' rejected",
                q.id,
                q.golden_text()
            );
        }
    }

    #[test]
    fn hybrid_overrides_win() {
        let bench = chipvqa_core::ChipVqa::standard();
        let q = &bench.questions()[0];
        let mut j = HybridJudge::new();
        assert!(j.is_correct(q, &q.golden_text()), "auto path first");
        j.override_verdict(q.id.clone(), q.golden_text(), false);
        assert!(!j.is_correct(q, &q.golden_text()), "annotator overrules");
        assert_eq!(j.override_count(), 1);
        // other questions still use the auto judge
        let other = &bench.questions()[1];
        assert!(j.is_correct(other, &other.golden_text()));
    }

    #[test]
    fn an_override_decides_one_response_not_the_question() {
        let bench = chipvqa_core::ChipVqa::standard();
        let q = &bench.questions()[0];
        let gold = q.golden_text();
        let wrong = "I cannot determine the answer from the provided image.";
        let rule = RuleJudge::new();
        assert!(rule.is_correct(q, &gold) && !rule.is_correct(q, wrong));
        let mut j = HybridJudge::new();
        j.override_verdict(q.id.clone(), wrong, true);
        assert!(j.is_correct(q, wrong), "the annotated answer is overruled");
        assert!(
            j.is_correct(q, &gold),
            "a different answer goes to the rule"
        );
        assert!(
            !j.is_correct(q, "(z)"),
            "a different answer goes to the rule"
        );
        // a second verdict on the same question is a second override
        j.override_verdict(q.id.clone(), gold.clone(), false);
        assert!(!j.is_correct(q, &gold) && j.is_correct(q, wrong));
        assert_eq!(j.override_count(), 2);
    }
}
