//! The evaluation harness: runs a model pipeline over a collection and
//! aggregates pass@1 (or pass@k) per category — the machinery behind
//! Table II.

use std::collections::BTreeMap;

use chipvqa_core::question::Category;
use chipvqa_core::ChipVqa;
use chipvqa_models::backbone::AnswerPath;
use chipvqa_models::VlmPipeline;
use serde::{Deserialize, Serialize};

use crate::judge::{Judge, RuleJudge};
use crate::supervisor::EvalError;

/// Evaluation options.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EvalOptions {
    /// Attempts per question; pass@k succeeds if any attempt is judged
    /// correct.
    pub attempts: u64,
    /// Image downsampling factor (1 = native; the resolution study).
    pub downsample: usize,
}

impl Default for EvalOptions {
    fn default() -> Self {
        EvalOptions {
            attempts: 1,
            downsample: 1,
        }
    }
}

/// Outcome of one question.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuestionOutcome {
    /// Question id.
    pub id: String,
    /// Category.
    pub category: Category,
    /// Whether any attempt passed.
    pub passed: bool,
    /// The first attempt's response text.
    pub response: String,
    /// How the first attempt came about (solved / guessed / failed).
    pub path: AnswerPath,
    /// Terminal infrastructure failure, if the question has no
    /// trustworthy answer (`None` = the model genuinely answered). Set
    /// only by supervised execution; see
    /// [`EvalError`](crate::supervisor::EvalError).
    pub error: Option<EvalError>,
}

impl QuestionOutcome {
    /// Whether the model actually answered (no infrastructure failure).
    pub fn answered(&self) -> bool {
        self.error.is_none()
    }
}

/// Aggregated evaluation results for one model on one collection.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EvalReport {
    /// Model name.
    pub model: String,
    /// Per-question outcomes.
    pub outcomes: Vec<QuestionOutcome>,
    /// Answer-cache traffic over the run, when the executor had a cache
    /// attached (`None` for cache-less and sequential runs). Run
    /// metadata, not a result: excluded from equality.
    pub cache_stats: Option<crate::cache::CacheStats>,
}

/// Reports compare by *results* (model + outcomes). `cache_stats` is
/// run metadata — a warm cached run must compare equal to the cold or
/// sequential run that produced identical outcomes.
impl PartialEq for EvalReport {
    fn eq(&self, other: &Self) -> bool {
        self.model == other.model && self.outcomes == other.outcomes
    }
}

impl EvalReport {
    /// Overall pass rate.
    pub fn overall(&self) -> f64 {
        if self.outcomes.is_empty() {
            return 0.0;
        }
        self.outcomes.iter().filter(|o| o.passed).count() as f64 / self.outcomes.len() as f64
    }

    /// Pass rate for one category.
    pub fn category_rate(&self, cat: Category) -> f64 {
        let of_cat: Vec<_> = self.outcomes.iter().filter(|o| o.category == cat).collect();
        if of_cat.is_empty() {
            return 0.0;
        }
        of_cat.iter().filter(|o| o.passed).count() as f64 / of_cat.len() as f64
    }

    /// All category rates in paper column order, plus the overall rate.
    pub fn row(&self) -> (Vec<f64>, f64) {
        (
            Category::ALL
                .iter()
                .map(|&c| self.category_rate(c))
                .collect(),
            self.overall(),
        )
    }

    /// Histogram of first-attempt answer paths
    /// `(solved, guessed, failed)` — the mechanism behind the numbers:
    /// how much of the pass rate is genuine solving versus lucky
    /// guessing.
    pub fn path_histogram(&self) -> (usize, usize, usize) {
        let mut h = (0usize, 0usize, 0usize);
        for o in &self.outcomes {
            match o.path {
                AnswerPath::Solved => h.0 += 1,
                AnswerPath::Guessed => h.1 += 1,
                AnswerPath::Failed => h.2 += 1,
            }
        }
        h
    }

    /// Per-category pass counts (passed, total).
    pub fn category_counts(&self) -> BTreeMap<Category, (usize, usize)> {
        let mut map: BTreeMap<Category, (usize, usize)> = BTreeMap::new();
        for o in &self.outcomes {
            let e = map.entry(o.category).or_default();
            e.1 += 1;
            if o.passed {
                e.0 += 1;
            }
        }
        map
    }

    // --- coverage & failure accounting (degraded-report semantics) ---

    /// Questions the model actually answered (no terminal failure).
    pub fn answered(&self) -> usize {
        self.outcomes.iter().filter(|o| o.answered()).count()
    }

    /// Questions that terminally failed in infrastructure (excluding
    /// breaker sheds).
    pub fn failed(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| matches!(o.error, Some(e) if e != EvalError::BreakerOpen))
            .count()
    }

    /// Questions shed unattempted by the model's open circuit breaker.
    pub fn breaker_skipped(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| o.error == Some(EvalError::BreakerOpen))
            .count()
    }

    /// Fraction of the collection with a trustworthy answer. 1.0 means
    /// the report is complete; anything lower means it is *degraded* and
    /// its pass rates undercount the model.
    pub fn coverage(&self) -> f64 {
        if self.outcomes.is_empty() {
            return 1.0;
        }
        self.answered() as f64 / self.outcomes.len() as f64
    }

    /// Whether any outcome carries a terminal failure.
    pub fn is_degraded(&self) -> bool {
        self.outcomes.iter().any(|o| o.error.is_some())
    }

    /// Terminal failures bucketed by taxonomy label, e.g.
    /// `{"timeout": 3, "breaker-open": 17}`.
    pub fn failure_breakdown(&self) -> BTreeMap<&'static str, usize> {
        let mut map = BTreeMap::new();
        for o in &self.outcomes {
            if let Some(e) = o.error {
                *map.entry(e.label()).or_insert(0) += 1;
            }
        }
        map
    }

    /// Per-category `(answered, failed, breaker-skipped)` counts — the
    /// accounting shown in degraded Table II footers. The three always
    /// sum to the category's question count.
    pub fn category_accounting(&self) -> BTreeMap<Category, (usize, usize, usize)> {
        let mut map: BTreeMap<Category, (usize, usize, usize)> = BTreeMap::new();
        for o in &self.outcomes {
            let e = map.entry(o.category).or_default();
            match o.error {
                None => e.0 += 1,
                Some(EvalError::BreakerOpen) => e.2 += 1,
                Some(_) => e.1 += 1,
            }
        }
        map
    }
}

/// Runs a model over a collection with the default rule judge.
pub fn evaluate(pipe: &VlmPipeline, bench: &ChipVqa, options: EvalOptions) -> EvalReport {
    evaluate_with_judge(pipe, bench, options, &RuleJudge::new())
}

/// Runs a model over a collection with a caller-supplied judge.
pub fn evaluate_with_judge(
    pipe: &VlmPipeline,
    bench: &ChipVqa,
    options: EvalOptions,
    judge: &dyn Judge,
) -> EvalReport {
    let mut outcomes = Vec::with_capacity(bench.len());
    for q in bench.iter() {
        let mut passed = false;
        let mut first_response = String::new();
        let mut first_path = AnswerPath::Failed;
        for attempt in 0..options.attempts.max(1) {
            let resp = pipe.infer(q, options.downsample, attempt);
            if attempt == 0 {
                first_response = resp.text.clone();
                first_path = resp.path;
            }
            if judge.is_correct(q, &resp.text) {
                passed = true;
                break;
            }
        }
        outcomes.push(QuestionOutcome {
            id: q.id.clone(),
            category: q.category,
            passed,
            response: first_response,
            path: first_path,
            error: None,
        });
    }
    EvalReport {
        model: pipe.profile().name.clone(),
        outcomes,
        cache_stats: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chipvqa_models::ModelZoo;

    #[test]
    fn report_rates_consistent() {
        let bench = ChipVqa::standard();
        let pipe = VlmPipeline::new(ModelZoo::gpt4o());
        let report = evaluate(&pipe, &bench, EvalOptions::default());
        assert_eq!(report.outcomes.len(), 142);
        let (cats, overall) = report.row();
        assert_eq!(cats.len(), 5);
        // overall is the question-weighted mean of category rates
        let weighted: f64 = Category::ALL
            .iter()
            .zip(&cats)
            .map(|(&c, &r)| r * bench.category(c).count() as f64)
            .sum::<f64>()
            / 142.0;
        assert!((overall - weighted).abs() < 1e-9);
    }

    #[test]
    fn path_histogram_explains_the_pass_rate() {
        let bench = ChipVqa::standard();
        let pipe = VlmPipeline::new(ModelZoo::gpt4o());
        let report = evaluate(&pipe, &bench, EvalOptions::default());
        let (solved, guessed, failed) = report.path_histogram();
        assert_eq!(solved + guessed + failed, 142);
        assert!(solved > 0, "a strong model genuinely solves questions");
        assert!(guessed > 0, "MC guessing exists");
        // the challenge set removes the guessing path entirely for MC
        let chal = evaluate(&pipe, &bench.challenge(), EvalOptions::default());
        let (_, chal_guessed, _) = chal.path_histogram();
        assert_eq!(chal_guessed, 0, "no options to guess among");
    }

    #[test]
    fn evaluation_is_deterministic() {
        let bench = ChipVqa::standard();
        let pipe = VlmPipeline::new(ModelZoo::llava_7b());
        let a = evaluate(&pipe, &bench, EvalOptions::default());
        let b = evaluate(&pipe, &bench, EvalOptions::default());
        assert_eq!(a, b);
    }

    #[test]
    fn pass_at_k_never_below_pass_at_1() {
        let bench = ChipVqa::standard();
        let pipe = VlmPipeline::new(ModelZoo::llava_34b());
        let p1 = evaluate(&pipe, &bench, EvalOptions::default()).overall();
        let p3 = evaluate(
            &pipe,
            &bench,
            EvalOptions {
                attempts: 3,
                ..EvalOptions::default()
            },
        )
        .overall();
        assert!(p3 >= p1, "pass@3 {p3} vs pass@1 {p1}");
    }

    #[test]
    fn challenge_collection_is_harder() {
        let bench = ChipVqa::standard();
        let challenge = bench.challenge();
        let pipe = VlmPipeline::new(ModelZoo::gpt4o());
        let standard = evaluate(&pipe, &bench, EvalOptions::default()).overall();
        let no_choice = evaluate(&pipe, &challenge, EvalOptions::default()).overall();
        assert!(
            no_choice < standard,
            "removing choices must hurt: {no_choice} vs {standard}"
        );
    }
}
