//! The §IV-B resolution study: evaluate one category at several image
//! downsampling factors.

use chipvqa_core::question::Category;
use chipvqa_core::ChipVqa;
use chipvqa_models::VlmPipeline;
use serde::{Deserialize, Serialize};

use crate::harness::{evaluate, EvalOptions};

/// One point of the sweep.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ResolutionPoint {
    /// Downsampling factor applied before the encoder.
    pub factor: usize,
    /// Pass rate at this factor.
    pub pass_rate: f64,
}

/// Runs the sweep over `factors` for one category (the paper uses
/// Digital with GPT-4o and factors 1/8/16).
pub fn resolution_sweep(
    pipe: &VlmPipeline,
    bench: &ChipVqa,
    category: Category,
    factors: &[usize],
) -> Vec<ResolutionPoint> {
    factors
        .iter()
        .map(|&factor| {
            let report = evaluate(
                pipe,
                bench,
                EvalOptions {
                    attempts: 1,
                    downsample: factor,
                },
            );
            ResolutionPoint {
                factor,
                pass_rate: report.category_rate(category),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use chipvqa_models::ModelZoo;

    #[test]
    fn paper_shape_eight_x_holds_sixteen_x_drops() {
        let bench = ChipVqa::standard();
        let pipe = VlmPipeline::new(ModelZoo::gpt4o());
        let pts = resolution_sweep(&pipe, &bench, Category::Digital, &[1, 8, 16]);
        assert_eq!(pts.len(), 3);
        let (native, at8, at16) = (pts[0].pass_rate, pts[1].pass_rate, pts[2].pass_rate);
        // §IV-B: 8x roughly preserves the native rate, 16x drops it.
        assert!(
            (native - at8).abs() <= 0.12,
            "8x should be close to native: {native} vs {at8}"
        );
        assert!(
            at16 < native - 0.05,
            "16x must drop materially: {at16} vs {native}"
        );
    }
}
