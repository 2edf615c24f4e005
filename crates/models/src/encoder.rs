//! The simulated visual encoder: extracts the question's key visual
//! facts from real pixels, with success tied to each fact's ink
//! legibility at the encoder's effective input resolution.

use chipvqa_core::question::Question;
use chipvqa_raster::legibility_after_downsample;
use rand::rngs::StdRng;
use rand::Rng;

use crate::profile::ModelProfile;

/// What the encoder extracted from the image.
#[derive(Debug, Clone, PartialEq)]
pub struct Percept {
    /// Indices (into `question.visual.marks`) of the facts perceived.
    pub perceived: Vec<usize>,
    /// Total key facts the question required.
    pub required: usize,
    /// Fraction of required facts perceived (1.0 when none required).
    pub coverage: f64,
}

/// Runs perception: for each key mark, measure the legibility of its
/// pixels after the *total* downsampling the encoder implies
/// (`external_factor` from the experiment times the resize the encoder's
/// input resolution forces), then extract the fact with probability
/// `acuity · (0.15 + 0.85 · legibility^2.5)`.
///
/// Each mark is scored from its own pixels
/// ([`legibility_after_downsample`] filters only the blocks under the
/// mark), so a call costs the key marks' area, not the whole image's.
pub fn perceive(
    profile: &ModelProfile,
    question: &Question,
    external_factor: usize,
    rng: &mut StdRng,
) -> Percept {
    let image = &question.visual.image;
    let max_dim = image.width().max(image.height()).max(1);
    let enc_factor = max_dim.div_ceil(profile.encoder_resolution).max(1);
    let total = external_factor.max(1) * enc_factor;
    let mut perceived = Vec::new();
    for &mark_idx in &question.key_marks {
        let Some(mark) = question.visual.marks.get(mark_idx) else {
            continue;
        };
        let legibility = legibility_after_downsample(image, mark.region, total);
        // Perception falls off sharply once strokes start dissolving:
        // a small floor for coarse context, then a superlinear ramp.
        let p = (profile.visual_acuity * (0.15 + 0.85 * legibility.powf(2.5))).clamp(0.0, 1.0);
        if rng.gen_bool(p) {
            perceived.push(mark_idx);
        }
    }
    let required = question.key_marks.len();
    let coverage = if required == 0 {
        1.0
    } else {
        perceived.len() as f64 / required as f64
    };
    Percept {
        perceived,
        required,
        coverage,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chipvqa_core::ChipVqa;
    use rand::SeedableRng;

    fn profile(acuity: f64, res: usize) -> ModelProfile {
        ModelProfile {
            name: "enc-test".into(),
            params_b: 1.0,
            encoder_resolution: res,
            visual_acuity: acuity,
            knowledge: [0.5; 5],
            reasoning: 0.5,
            instruction_following: 1.0,
            mc_elimination: 0.5,
            supports_system_prompt: true,
        }
    }

    fn mean_coverage(p: &ModelProfile, factor: usize) -> f64 {
        let bench = ChipVqa::standard();
        let mut total = 0.0;
        let mut n = 0.0;
        for (i, q) in bench.iter().enumerate().take(40) {
            let mut rng = StdRng::seed_from_u64(i as u64);
            total += perceive(p, q, factor, &mut rng).coverage;
            n += 1.0;
        }
        total / n
    }

    #[test]
    fn perfect_acuity_full_res_sees_everything() {
        let p = profile(1.0, 2048);
        let cov = mean_coverage(&p, 1);
        assert!(cov > 0.95, "{cov}");
    }

    #[test]
    fn zero_acuity_sees_nothing() {
        let p = profile(0.0, 2048);
        assert_eq!(mean_coverage(&p, 1), 0.0);
    }

    #[test]
    fn sixteen_x_downsampling_hurts_more_than_eight() {
        let p = profile(0.95, 2048);
        let at1 = mean_coverage(&p, 1);
        let at8 = mean_coverage(&p, 8);
        let at16 = mean_coverage(&p, 16);
        assert!(at8 > at16, "8x {at8} vs 16x {at16}");
        assert!(at1 >= at8 - 0.05, "1x {at1} vs 8x {at8}");
        assert!(at1 - at16 > 0.1, "16x must lose substantial coverage");
    }

    #[test]
    fn low_resolution_encoder_loses_detail_under_external_downsampling() {
        // At native resolution both encoders cope; the low-res encoder
        // collapses first when the input is additionally degraded.
        let hi = profile(0.9, 1024);
        let lo = profile(0.9, 224);
        let hi_cov = mean_coverage(&hi, 4);
        let lo_cov = mean_coverage(&lo, 4);
        assert!(
            lo_cov < hi_cov,
            "low-res encoder {lo_cov} vs high-res {hi_cov}"
        );
    }

    #[test]
    fn coverage_is_one_when_no_key_marks() {
        let p = profile(0.5, 336);
        let bench = ChipVqa::standard();
        let mut q = bench.questions()[0].clone();
        q.key_marks.clear();
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(perceive(&p, &q, 1, &mut rng).coverage, 1.0);
    }
}
