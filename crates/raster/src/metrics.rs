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
//! Those pixels are a region's [`legibility_footprint`], and a
//! [`Window`] that holds the footprints of several regions and factors
//! gives all of their legibility ([`Window::legibility`]) without the
//! image ever being rasterized whole.

use std::ops::Range;

use serde::{Deserialize, Serialize};

use crate::{Pixmap, Window, INK_THRESHOLD};

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

    /// The smallest region that holds both `self` and `other`, where an
    /// empty region (no area) holds nothing and adds nothing.
    pub fn bounding_box(self, other: Region) -> Region {
        if other.area() == 0 {
            return self;
        }
        if self.area() == 0 {
            return other;
        }
        let (x, y) = (self.x.min(other.x), self.y.min(other.y));
        let right = (self.x + self.w).max(other.x + other.w);
        let bottom = (self.y + self.h).max(other.y + other.h);
        Region::new(x, y, right - x, bottom - y)
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
        self.whole().ink(region) as f64 / area as f64
    }
}

/// Measures how much of the ink inside `region` survives downsampling the
/// image by `factor`.
///
/// The result is the ratio of ink *area* after downsampling (scaled back up
/// by `factor²`) to ink area before, clamped to `[0, 1]`. Regions with no
/// original ink report `1.0` (nothing to lose). A factor of `1` always
/// reports `1.0`, and reads no pixel.
///
/// "After downsampling" means the pixels of `region.scaled_down(factor)`
/// in `img.downsample(factor)`, clipped to that image. Only those blocks
/// are box-filtered, so the cost follows the region's area rather than
/// the image's, and no block is divided: [`Pixmap::downsample`] stores
/// the mean `⌊sum / n⌋` of a block's `n > 0` pixels, and for integers
/// `⌊sum / n⌋ < T ⟺ sum < T · n`, so a block counts as ink exactly when
/// `sum < INK_THRESHOLD · n`. The sums come from the same box-filter
/// core as the downsample's, exact integers (`u32` column sums, which
/// hold any band of up to 16,843,009 rows, and `u64` block sums), and
/// integer sums do not depend on the order they were added in, so the
/// result is bit for bit the one the definition gives.
///
/// This reads the whole image's buffer, so a factor of 2 or more
/// rasterizes an unrasterized image. [`Window::legibility`] gives the
/// same bits from a window that holds the region's
/// [`legibility_footprint`], and leaves the image unrasterized.
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
    let window = img.whole();
    retained(&window, region, factor, window.ink(region))
}

/// The pixels [`legibility_after_downsample`] reads for `region` at
/// `factor` on a `width × height` image: the bounding box of `region`
/// and of the blocks of the `factor` grid that cover
/// `region.scaled_down(factor)`, clipped to the image. Empty at a factor
/// of 1, which reads nothing.
///
/// # Example
///
/// ```
/// use chipvqa_raster::{legibility_footprint, Region};
///
/// // blocks 1..3 of the 8-pixel grid cover a region at x = 12..24
/// let footprint = legibility_footprint(Region::new(12, 12, 12, 12), 8, 100, 100);
/// assert_eq!(footprint, Region::new(8, 8, 16, 16));
/// assert_eq!(legibility_footprint(Region::new(12, 12, 12, 12), 1, 100, 100).area(), 0);
/// ```
pub fn legibility_footprint(region: Region, factor: usize, width: usize, height: usize) -> Region {
    if factor <= 1 {
        return Region::new(0, 0, 0, 0);
    }
    let (cols, rows) = clip(region, width, height);
    let (block_cols, block_rows) = clip(
        region.scaled_down(factor),
        width.div_ceil(factor),
        height.div_ceil(factor),
    );
    let pixels =
        |blocks: Range<usize>, side: usize| blocks.start * factor..(blocks.end * factor).min(side);
    let (x, y) = (pixels(block_cols, width), pixels(block_rows, height));
    let blocks = Region::new(x.start, y.start, x.len(), y.len());
    Region::new(cols.start, rows.start, cols.len(), rows.len()).bounding_box(blocks)
}

impl Window<'_> {
    /// [`legibility_after_downsample`] of `region` at each of
    /// `factors`, in order, bit for bit, read from this window, which
    /// must hold the region's [`legibility_footprint`] at every factor
    /// of 2 or more. The region's ink is counted once, and only if some
    /// factor is 2 or more.
    ///
    /// # Panics
    ///
    /// Panics if the window does not hold a footprint it reads.
    ///
    /// # Example
    ///
    /// ```
    /// use chipvqa_raster::{legibility_after_downsample, legibility_footprint, Pixmap, Region};
    ///
    /// let mut img = Pixmap::new(256, 256);
    /// img.draw_line(0, 128, 255, 128, 2, 0);
    /// let mark = Region::new(40, 120, 60, 16);
    /// let footprint = [8, 16]
    ///     .map(|factor| legibility_footprint(mark, factor, 256, 256))
    ///     .into_iter()
    ///     .fold(mark, Region::bounding_box);
    /// let values = img.window(footprint).legibility(mark, &[1, 8, 16]);
    /// assert!(format!("{img:?}").contains("rasterized: false"));
    /// assert_eq!(values, [1, 8, 16].map(|f| legibility_after_downsample(&img, mark, f)));
    /// ```
    pub fn legibility(&self, region: Region, factors: &[usize]) -> Vec<f64> {
        let mut ink = None;
        factors
            .iter()
            .map(|&factor| {
                if factor <= 1 {
                    return 1.0;
                }
                let ink = *ink.get_or_insert_with(|| self.ink(region));
                retained(self, region, factor, ink)
            })
            .collect()
    }
}

/// The legibility of `region` at `factor` ≥ 2 from `window`, given the
/// region's ink: the ink blocks of `region.scaled_down(factor)`, scaled
/// back up by `factor²`, over `original_ink`, clamped to 1 (1 when there
/// was no ink to lose).
fn retained(window: &Window<'_>, region: Region, factor: usize, original_ink: usize) -> f64 {
    if original_ink == 0 {
        return 1.0;
    }
    let (cols, rows) = clip(
        region.scaled_down(factor),
        window.image_width.div_ceil(factor),
        window.image_height.div_ceil(factor),
    );
    let threshold = u64::from(INK_THRESHOLD);
    let mut small_ink = 0usize;
    window.box_filter(factor, cols, rows, |sum, n| {
        small_ink += usize::from(sum < threshold * n);
    });
    let retained = small_ink * factor * factor;
    (retained as f64 / original_ink as f64).min(1.0)
}

/// The column and row ranges of `region` clipped to a `w × h` image.
pub(crate) fn clip(region: Region, w: usize, h: usize) -> (Range<usize>, Range<usize>) {
    (
        region.x.min(w)..(region.x + region.w).min(w),
        region.y.min(h)..(region.y + region.h).min(h),
    )
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
    fn a_block_whose_mean_is_the_threshold_is_not_ink() {
        // Two pixels of 161 and two of 255 sum to exactly 208 · 4: the
        // block's mean is INK_THRESHOLD, which is not ink. With 160 the
        // mean is 207, which is.
        for (shade, mean, legibility) in [(161, 208, 0.0), (160, 207, 1.0)] {
            let mut img = Pixmap::new(4, 4);
            img.fill_rect(0, 0, 1, 4, shade);
            assert_eq!(img.downsample(2).get(0, 0), Some(mean));
            let all = Region::full(&img);
            assert_eq!(legibility_after_downsample(&img, all, 2), legibility);
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
