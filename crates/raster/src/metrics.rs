//! Ink-coverage and legibility metrics consumed by simulated visual
//! encoders.
//!
//! Legibility is measured mechanically from pixels rather than asserted
//! from metadata: a region is downsampled with a box filter, then the
//! fraction of original ink that still registers as ink (darker than
//! [`crate::INK_THRESHOLD`]) is computed. Thin strokes average out into
//! light gray under aggressive downsampling and stop counting as ink —
//! exactly the mechanism by which real low-resolution inputs destroy
//! fine schematic detail. Only the blocks covering the region are
//! filtered, each to the value a whole-image [`Pixmap::downsample`]
//! gives it, so measuring a small mark costs a small mark's pixels.

use std::ops::Range;

use serde::{Deserialize, Serialize};

use crate::{Pixmap, INK_THRESHOLD};

/// An axis-aligned pixel region (used to localise visual facts on an
/// image).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Region {
    /// Left edge in pixels.
    pub x: usize,
    /// Top edge in pixels.
    pub y: usize,
    /// Width in pixels.
    pub w: usize,
    /// Height in pixels.
    pub h: usize,
}

impl Region {
    /// Creates a region from its top-left corner and size.
    pub fn new(x: usize, y: usize, w: usize, h: usize) -> Self {
        Region { x, y, w, h }
    }

    /// The region covering a whole image.
    pub fn full(img: &Pixmap) -> Self {
        Region::new(0, 0, img.width(), img.height())
    }

    /// Scales the region down by an integer factor (for locating the same
    /// feature on a downsampled image).
    pub fn scaled_down(&self, factor: usize) -> Region {
        let f = factor.max(1);
        Region {
            x: self.x / f,
            y: self.y / f,
            w: (self.w / f).max(1),
            h: (self.h / f).max(1),
        }
    }

    /// Region area in pixels.
    pub fn area(&self) -> usize {
        self.w * self.h
    }
}

impl Pixmap {
    /// Fraction of pixels in `region` (clipped to the image) that count as
    /// ink. Returns `0.0` for regions entirely outside the image.
    pub fn ink_fraction(&self, region: Region) -> f64 {
        let (cols, rows) = clip(region, self.width(), self.height());
        let area = cols.len() * rows.len();
        if area == 0 {
            return 0.0;
        }
        region_ink(self, region) as f64 / area as f64
    }
}

/// Measures how much of the ink inside `region` survives downsampling the
/// image by `factor`.
///
/// The result is the ratio of ink *area* after downsampling (scaled back up
/// by `factor²`) to ink area before, clamped to `[0, 1]`. Regions with no
/// original ink report `1.0` (nothing to lose). A factor of `1` always
/// reports `1.0`.
///
/// "After downsampling" means the pixels of `region.scaled_down(factor)`
/// in `img.downsample(factor)`, clipped to that image. Only those blocks
/// are box-filtered, so the cost follows the region's area rather than
/// the image's, and every block mean is the one
/// [`Pixmap::downsample`] would compute.
///
/// # Example
///
/// ```
/// use chipvqa_raster::{legibility_after_downsample, Pixmap, Region};
///
/// let mut img = Pixmap::new(256, 256);
/// img.draw_line(0, 128, 255, 128, 2, 0);
/// let all = Region::full(&img);
/// let at8 = legibility_after_downsample(&img, all, 8);
/// let at16 = legibility_after_downsample(&img, all, 16);
/// assert!(at8 > at16, "8x keeps more detail than 16x");
/// ```
pub fn legibility_after_downsample(img: &Pixmap, region: Region, factor: usize) -> f64 {
    if factor <= 1 {
        return 1.0;
    }
    let original_ink = region_ink(img, region);
    if original_ink == 0 {
        return 1.0;
    }
    let (cols, rows) = clip(
        region.scaled_down(factor),
        img.width().div_ceil(factor),
        img.height().div_ceil(factor),
    );
    let mut small_ink = 0usize;
    img.box_filter(factor, cols, rows, |mean| {
        small_ink += usize::from(mean < INK_THRESHOLD);
    });
    let retained = small_ink * factor * factor;
    (retained as f64 / original_ink as f64).min(1.0)
}

/// The column and row ranges of `region` clipped to a `w × h` image.
fn clip(region: Region, w: usize, h: usize) -> (Range<usize>, Range<usize>) {
    (
        region.x.min(w)..(region.x + region.w).min(w),
        region.y.min(h)..(region.y + region.h).min(h),
    )
}

fn region_ink(img: &Pixmap, region: Region) -> usize {
    let (cols, rows) = clip(region, img.width(), img.height());
    rows.map(|y| {
        let base = y * img.width();
        img.pixels()[base + cols.start..base + cols.end]
            .iter()
            .filter(|&&p| p < INK_THRESHOLD)
            .count()
    })
    .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schematic_like() -> Pixmap {
        let mut img = Pixmap::new(512, 384);
        img.draw_rect(40, 40, 200, 120, 2, 0);
        img.draw_line(240, 100, 460, 100, 2, 0);
        img.draw_text(60, 60, "GAIN = 42", 3, 0);
        img.draw_circle(350, 250, 40, 2, 0);
        img
    }

    #[test]
    fn factor_one_is_lossless() {
        let img = schematic_like();
        assert_eq!(
            legibility_after_downsample(&img, Region::full(&img), 1),
            1.0
        );
    }

    #[test]
    fn empty_region_fully_legible() {
        let img = Pixmap::new(64, 64);
        assert_eq!(
            legibility_after_downsample(&img, Region::full(&img), 16),
            1.0
        );
    }

    #[test]
    fn eight_x_retains_sixteen_x_loses() {
        // This is the calibration the resolution study (R1) relies on:
        // 2-pixel strokes survive 8x but mostly vanish at 16x.
        let img = schematic_like();
        let all = Region::full(&img);
        let at8 = legibility_after_downsample(&img, all, 8);
        let at16 = legibility_after_downsample(&img, all, 16);
        assert!(at8 > 0.9, "8x legibility {at8}");
        assert!(
            at16 < at8 - 0.3,
            "16x ({at16}) should lose much more than 8x ({at8})"
        );
    }

    #[test]
    fn legibility_monotone_in_factor() {
        let img = schematic_like();
        let all = Region::full(&img);
        let mut last = 1.0;
        for factor in [1usize, 2, 4, 8, 16, 32] {
            let l = legibility_after_downsample(&img, all, factor);
            assert!(
                l <= last + 0.15,
                "legibility should not rise sharply: f={factor} l={l} last={last}"
            );
            last = l;
        }
    }

    #[test]
    fn ink_fraction_of_filled_region_is_one() {
        let mut img = Pixmap::new(32, 32);
        img.fill_rect(8, 8, 8, 8, 0);
        assert!((img.ink_fraction(Region::new(8, 8, 8, 8)) - 1.0).abs() < 1e-9);
        assert_eq!(img.ink_fraction(Region::new(0, 0, 4, 4)), 0.0);
    }

    #[test]
    fn out_of_bounds_region_is_zero() {
        let img = Pixmap::new(16, 16);
        assert_eq!(img.ink_fraction(Region::new(100, 100, 10, 10)), 0.0);
    }

    #[test]
    fn region_scaling() {
        let r = Region::new(64, 32, 80, 40);
        let s = r.scaled_down(8);
        assert_eq!(s, Region::new(8, 4, 10, 5));
        assert_eq!(Region::new(2, 2, 3, 3).scaled_down(8).area(), 1);
    }
}
