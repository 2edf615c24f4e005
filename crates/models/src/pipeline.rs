//! The end-to-end VLM pipeline of Fig. 2: visual encoder → projector →
//! language backbone.

use chipvqa_core::question::Question;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::backbone::{self, AnswerPath};
use crate::encoder::{self, Percept};
use crate::profile::ModelProfile;

/// A model's response to one question.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelResponse {
    /// The answer text.
    pub text: String,
    /// How the answer came about (solved/guessed/failed).
    pub path: AnswerPath,
    /// What the encoder extracted.
    pub percept: Percept,
    /// The rolled solve probability (for ablations).
    pub solve_probability: f64,
}

/// Inference settings (the paper: zero-shot, temperature 0.1).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InferenceConfig {
    /// Sampling temperature.
    pub temperature: f64,
    /// Extra image downsampling applied before the encoder (the §IV-B
    /// resolution study; 1 = native).
    pub downsample: usize,
}

impl Default for InferenceConfig {
    fn default() -> Self {
        InferenceConfig {
            temperature: 0.1,
            downsample: 1,
        }
    }
}

/// The assembled pipeline for one model profile.
#[derive(Debug, Clone, PartialEq)]
pub struct VlmPipeline {
    profile: ModelProfile,
    /// `profile.fingerprint()`, taken once: the profile never changes.
    fingerprint: u64,
}

impl VlmPipeline {
    /// Builds a pipeline, validating the profile.
    pub fn new(profile: ModelProfile) -> Self {
        profile.validate();
        let fingerprint = profile.fingerprint();
        VlmPipeline {
            profile,
            fingerprint,
        }
    }

    /// The underlying profile.
    pub fn profile(&self) -> &ModelProfile {
        &self.profile
    }

    /// Behavioural identity of this pipeline — see
    /// [`ModelProfile::fingerprint`]. Cached answers and checkpoints are
    /// keyed on this value.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Zero-shot inference on one question with the default configuration
    /// (temperature 0.1, native resolution). `attempt` varies the seed
    /// for pass@k evaluation.
    pub fn infer(&self, question: &Question, downsample: usize, attempt: u64) -> ModelResponse {
        self.infer_with(
            question,
            InferenceConfig {
                downsample,
                ..InferenceConfig::default()
            },
            attempt,
        )
    }

    /// Inference with an explicit prompting style. The calibrated zoo
    /// numbers assume [`PromptStyle::zero_shot`]; other styles scale the
    /// model's instruction adherence *relative* to that baseline (a bare
    /// prompt loses the format guidance, an engineered one gains a
    /// little).
    ///
    /// [`PromptStyle::zero_shot`]: crate::prompt::PromptStyle::zero_shot
    pub fn infer_styled(
        &self,
        question: &Question,
        style: &crate::prompt::PromptStyle,
        config: InferenceConfig,
        attempt: u64,
    ) -> ModelResponse {
        let baseline = crate::prompt::PromptStyle::zero_shot().adherence_bonus();
        let scale = style.adherence_bonus() / baseline;
        let mut styled = self.profile.clone();
        styled.instruction_following = (styled.instruction_following * scale).clamp(0.0, 0.99);
        // keep the seed stream identical to the unstyled pipeline (same
        // name), so only the adherence mechanism differs
        let mut rng = self.rng_for(question, attempt);
        let percept = encoder::perceive(&styled, question, config.downsample, &mut rng);
        respond(&styled, question, percept, config.temperature, &mut rng)
    }

    /// Inference with explicit settings.
    pub fn infer_with(
        &self,
        question: &Question,
        config: InferenceConfig,
        attempt: u64,
    ) -> ModelResponse {
        let mut rng = self.rng_for(question, attempt);
        let percept = encoder::perceive(&self.profile, question, config.downsample, &mut rng);
        respond(
            &self.profile,
            question,
            percept,
            config.temperature,
            &mut rng,
        )
    }

    /// The total downsampling factor this model's encoder sees
    /// `question` at, after `downsample` ([`encoder::total_factor`]).
    pub fn total_factor(&self, question: &Question, downsample: usize) -> usize {
        encoder::total_factor(&self.profile, question, downsample)
    }

    /// Zero-shot inference (temperature 0.1) from the key marks'
    /// legibility at [`total_factor`](Self::total_factor)`(question,
    /// downsample)`, as [`encoder::key_mark_legibility`] computes it.
    /// Perception makes the same draws from the same seed, so the
    /// response equals [`infer`](Self::infer)`(question, downsample,
    /// attempt)` bit for bit; an engine evaluating many models on one
    /// question computes the legibility once per total factor.
    pub fn infer_legible(
        &self,
        question: &Question,
        attempt: u64,
        legibility: &[f64],
    ) -> ModelResponse {
        let mut rng = self.rng_for(question, attempt);
        let percept = encoder::score(&self.profile, question, legibility, &mut rng);
        let temperature = InferenceConfig::default().temperature;
        respond(&self.profile, question, percept, temperature, &mut rng)
    }

    /// Deterministic per-(model, question, attempt) RNG.
    fn rng_for(&self, question: &Question, attempt: u64) -> StdRng {
        let mut seed = 0xcbf2_9ce4_8422_2325u64; // FNV offset basis
        for b in self
            .profile
            .name
            .bytes()
            .chain(question.id.bytes())
            .chain(attempt.to_le_bytes())
        {
            seed ^= u64::from(b);
            seed = seed.wrapping_mul(0x100_0000_01b3);
        }
        StdRng::seed_from_u64(seed)
    }
}

/// The language backbone's answer to what the encoder perceived
/// (projector: identity in the simulation — visual tokens join the text
/// tokens directly).
fn respond(
    profile: &ModelProfile,
    question: &Question,
    percept: Percept,
    temperature: f64,
    rng: &mut StdRng,
) -> ModelResponse {
    let ans = backbone::answer(profile, question, &percept, temperature, rng);
    ModelResponse {
        text: ans.text,
        path: ans.path,
        percept,
        solve_probability: ans.solve_probability,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo::ModelZoo;
    use chipvqa_core::ChipVqa;

    #[test]
    fn stored_fingerprint_is_the_profiles() {
        let all = ModelZoo::all();
        assert_eq!(all.len(), 12);
        for profile in all {
            let pipe = VlmPipeline::new(profile);
            assert_eq!(
                pipe.fingerprint(),
                pipe.profile().fingerprint(),
                "{}",
                pipe.profile().name
            );
        }
    }

    #[test]
    fn inference_is_deterministic_per_attempt() {
        let bench = ChipVqa::standard();
        let pipe = VlmPipeline::new(ModelZoo::gpt4o());
        let q = &bench.questions()[3];
        let a = pipe.infer(q, 1, 0);
        let b = pipe.infer(q, 1, 0);
        assert_eq!(a, b);
        let c = pipe.infer(q, 1, 1);
        // different attempt may differ (not guaranteed per-question, but
        // the seeds differ)
        let _ = c;
    }

    #[test]
    fn different_models_answer_differently_somewhere() {
        let bench = ChipVqa::standard();
        let strong = VlmPipeline::new(ModelZoo::gpt4o());
        let weak = VlmPipeline::new(ModelZoo::kosmos_2());
        let mut differs = false;
        for q in bench.iter().take(30) {
            if strong.infer(q, 1, 0).text != weak.infer(q, 1, 0).text {
                differs = true;
                break;
            }
        }
        assert!(differs);
    }

    #[test]
    fn bare_prompt_style_hurts_weak_instruction_followers() {
        use crate::prompt::PromptStyle;
        let bench = ChipVqa::standard();
        let pipe = VlmPipeline::new(ModelZoo::fuyu_8b());
        let zero = PromptStyle::zero_shot();
        let bare = PromptStyle::bare();
        let mut zero_ok = 0usize;
        let mut bare_ok = 0usize;
        for q in bench.iter() {
            let cfg = InferenceConfig::default();
            // count well-formed (non-refusal) responses as a proxy
            let z = pipe.infer_styled(q, &zero, cfg, 0);
            let b = pipe.infer_styled(q, &bare, cfg, 0);
            if !z.text.contains("cannot determine") && !z.text.contains("describe the image") {
                zero_ok += 1;
            }
            if !b.text.contains("cannot determine") && !b.text.contains("describe the image") {
                bare_ok += 1;
            }
        }
        assert!(zero_ok >= bare_ok, "{zero_ok} vs {bare_ok}");
    }

    #[test]
    fn styled_inference_with_zero_shot_matches_default() {
        use crate::prompt::PromptStyle;
        let bench = ChipVqa::standard();
        let pipe = VlmPipeline::new(ModelZoo::gpt4o());
        let q = &bench.questions()[7];
        let plain = pipe.infer(q, 1, 0);
        let styled = pipe.infer_styled(q, &PromptStyle::zero_shot(), InferenceConfig::default(), 0);
        assert_eq!(plain, styled, "zero-shot style is the calibrated default");
    }

    #[test]
    fn downsampling_lowers_average_solve_probability() {
        let bench = ChipVqa::standard();
        let pipe = VlmPipeline::new(ModelZoo::gpt4o());
        let mean_sp = |factor: usize| -> f64 {
            let mut s = 0.0;
            let mut n = 0.0;
            for q in bench.category(chipvqa_core::Category::Digital) {
                s += pipe.infer(q, factor, 0).solve_probability;
                n += 1.0;
            }
            s / n
        };
        let native = mean_sp(1);
        let at16 = mean_sp(16);
        assert!(at16 < native, "16x {at16} vs native {native}");
    }
}
