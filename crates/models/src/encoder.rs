//! The simulated visual encoder: extracts the question's key visual
//! facts from real pixels, with success tied to each fact's ink
//! legibility at the encoder's effective input resolution.

use chipvqa_core::question::Question;
use chipvqa_raster::{legibility_after_downsample, legibility_footprint, Region};
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
/// ([`total_factor`]: `external_factor` from the experiment times the
/// resize the encoder's input resolution forces), then extract the fact
/// with probability `acuity · (0.15 + 0.85 · legibility^2.5)`
/// ([`score`]).
///
/// Each mark is scored from its own pixels
/// ([`legibility_after_downsample`] filters only the blocks under the
/// mark), so after the image's first read a call costs the key marks'
/// area, not the whole image's. Legibility reads only the image, the
/// mark's region and the total factor, never the model: an engine that
/// evaluates many models on one question computes it once for every
/// total factor they need ([`key_mark_legibility_at`], from one window
/// of the image, which it never rasterizes whole) and passes each
/// factor's values to [`score`], which makes the same draws and returns
/// the same percept as this function.
pub fn perceive(
    profile: &ModelProfile,
    question: &Question,
    external_factor: usize,
    rng: &mut StdRng,
) -> Percept {
    let total = total_factor(profile, question, external_factor);
    score(
        profile,
        question,
        &key_mark_legibility(question, total),
        rng,
    )
}

/// The total downsampling factor the encoder sees `question`'s image
/// at: `external_factor × ⌈max_dim / encoder_resolution⌉`.
pub fn total_factor(profile: &ModelProfile, question: &Question, external_factor: usize) -> usize {
    let image = &question.visual.image;
    let max_dim = image.width().max(image.height()).max(1);
    let enc_factor = max_dim.div_ceil(profile.encoder_resolution).max(1);
    external_factor.max(1) * enc_factor
}

/// The [`legibility_after_downsample`] of each of `question`'s key marks
/// at `total` factor, in `key_marks` order (1.0 for an index with no
/// mark, which [`score`] skips).
pub fn key_mark_legibility(question: &Question, total: usize) -> Vec<f64> {
    let visual = &question.visual;
    question
        .key_marks
        .iter()
        .map(|&mark_idx| {
            visual.marks.get(mark_idx).map_or(1.0, |mark| {
                legibility_after_downsample(&visual.image, mark.region, total)
            })
        })
        .collect()
}

/// [`key_mark_legibility`] at each of `totals`, in order, bit for bit:
/// `result[i][k]` is the legibility of key mark `k` at total factor
/// `totals[i]`.
///
/// All of it is read from one [`Window`](chipvqa_raster::Window) of the
/// image: the bounding box, over the key marks and every factor of 2 or
/// more, of each mark's
/// [`legibility_footprint`] (its region and the blocks that cover it),
/// clipped to the image. An unrasterized image replays its drawing into
/// that window once and stays unrasterized (nothing is replayed when no
/// factor is 2 or more), and each mark's region ink is counted once
/// rather than once per factor.
pub fn key_mark_legibility_at(question: &Question, totals: &[usize]) -> Vec<Vec<f64>> {
    let visual = &question.visual;
    let image = &visual.image;
    let regions: Vec<Option<Region>> = question
        .key_marks
        .iter()
        .map(|&mark_idx| visual.marks.get(mark_idx).map(|mark| mark.region))
        .collect();
    let (width, height) = (image.width(), image.height());
    let footprint = regions
        .iter()
        .flatten()
        .flat_map(|&region| {
            totals
                .iter()
                .map(move |&total| legibility_footprint(region, total, width, height))
        })
        .fold(Region::new(0, 0, 0, 0), Region::bounding_box);
    let window = image.window(footprint);
    let per_mark: Vec<Vec<f64>> = regions
        .iter()
        .map(|region| match region {
            Some(region) => window.legibility(*region, totals),
            None => vec![1.0; totals.len()],
        })
        .collect();
    (0..totals.len())
        .map(|i| per_mark.iter().map(|values| values[i]).collect())
        .collect()
}

/// The scoring step of [`perceive`]: one draw per key mark that has a
/// mark, perceived with probability `acuity · (0.15 + 0.85 ·
/// legibility^2.5)`, where `legibility[i]` belongs to `key_marks[i]`.
pub fn score(
    profile: &ModelProfile,
    question: &Question,
    legibility: &[f64],
    rng: &mut StdRng,
) -> Percept {
    assert_eq!(
        legibility.len(),
        question.key_marks.len(),
        "one legibility value per key mark"
    );
    let mut perceived = Vec::new();
    for (&mark_idx, &legibility) in question.key_marks.iter().zip(legibility) {
        if question.visual.marks.get(mark_idx).is_none() {
            continue;
        }
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
