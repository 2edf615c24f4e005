//! Grayscale pixel buffer with drawing primitives.

use std::ops::Range;

use serde::{Deserialize, Serialize};

use crate::font;
use crate::{INK_THRESHOLD, WHITE};

/// An 8-bit grayscale raster image.
///
/// The coordinate origin is the top-left corner; `x` grows to the right and
/// `y` grows downward. The background is white (`255`) and ink is drawn in
/// darker shades (typically `0`). All drawing primitives silently clip to
/// the image bounds, so callers never need to pre-clip geometry.
///
/// # Example
///
/// ```
/// use chipvqa_raster::Pixmap;
///
/// let mut img = Pixmap::new(64, 64);
/// img.draw_rect(8, 8, 48, 48, 2, 0);
/// img.draw_circle(32, 32, 12, 2, 0);
/// assert_eq!(img.get(8, 8), Some(0));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Pixmap {
    width: usize,
    height: usize,
    data: Vec<u8>,
}

impl Pixmap {
    /// Creates a white image of the given dimensions.
    ///
    /// # Panics
    ///
    /// Panics if `width` or `height` is zero.
    pub fn new(width: usize, height: usize) -> Self {
        assert!(width > 0 && height > 0, "pixmap dimensions must be nonzero");
        Pixmap {
            width,
            height,
            data: vec![WHITE; width * height],
        }
    }

    /// Image width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Image height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Read-only view of the raw pixel data, row-major.
    pub fn pixels(&self) -> &[u8] {
        &self.data
    }

    /// Returns the shade at `(x, y)`, or `None` when out of bounds.
    #[inline]
    pub fn get(&self, x: i64, y: i64) -> Option<u8> {
        if x < 0 || y < 0 || x as usize >= self.width || y as usize >= self.height {
            None
        } else {
            Some(self.data[y as usize * self.width + x as usize])
        }
    }

    /// Sets the shade at `(x, y)`; out-of-bounds writes are ignored.
    #[inline]
    pub fn set(&mut self, x: i64, y: i64, shade: u8) {
        if x >= 0 && y >= 0 && (x as usize) < self.width && (y as usize) < self.height {
            self.data[y as usize * self.width + x as usize] = shade;
        }
    }

    /// Fills the whole image with one shade.
    pub fn fill(&mut self, shade: u8) {
        self.data.fill(shade);
    }

    /// Fills the axis-aligned rectangle with top-left `(x, y)` and the given
    /// width/height.
    pub fn fill_rect(&mut self, x: i64, y: i64, w: i64, h: i64, shade: u8) {
        // Clip once, then fill whole row slices instead of testing bounds
        // per pixel — this primitive underlies lines, text, and stamps,
        // so it is the hottest routine in the renderer.
        let x0 = x.max(0);
        let y0 = y.max(0);
        let x1 = x.saturating_add(w.max(0)).min(self.width as i64);
        let y1 = y.saturating_add(h.max(0)).min(self.height as i64);
        if x0 >= x1 || y0 >= y1 {
            return;
        }
        let (x0, x1) = (x0 as usize, x1 as usize);
        for yy in y0 as usize..y1 as usize {
            let base = yy * self.width;
            self.data[base + x0..base + x1].fill(shade);
        }
    }

    /// Draws a straight line between `(x0, y0)` and `(x1, y1)` with the given
    /// stroke width (in pixels) using Bresenham stepping.
    pub fn draw_line(&mut self, x0: i64, y0: i64, x1: i64, y1: i64, stroke: i64, shade: u8) {
        // Axis-aligned lines (the vast majority in schematic renders) are
        // exactly the union of their per-step stamps, which collapses to a
        // single clipped rectangle fill.
        let s = stroke.max(1);
        let half = (s - 1) / 2;
        if y0 == y1 {
            let left = x0.min(x1);
            self.fill_rect(left - half, y0 - half, (x1 - x0).abs() + s, s, shade);
            return;
        }
        if x0 == x1 {
            let top = y0.min(y1);
            self.fill_rect(x0 - half, top - half, s, (y1 - y0).abs() + s, shade);
            return;
        }
        let dx = (x1 - x0).abs();
        let dy = -(y1 - y0).abs();
        let sx = if x0 < x1 { 1 } else { -1 };
        let sy = if y0 < y1 { 1 } else { -1 };
        let mut err = dx + dy;
        let (mut x, mut y) = (x0, y0);
        loop {
            self.stamp(x, y, stroke, shade);
            if x == x1 && y == y1 {
                break;
            }
            let e2 = 2 * err;
            if e2 >= dy {
                err += dy;
                x += sx;
            }
            if e2 <= dx {
                err += dx;
                y += sy;
            }
        }
    }

    /// Draws a dashed line (alternating `dash_on` drawn pixels with
    /// `dash_off` skipped pixels along the Bresenham walk).
    #[allow(clippy::too_many_arguments)] // mirrors draw_line's endpoint/stroke signature
    pub fn draw_dashed_line(
        &mut self,
        x0: i64,
        y0: i64,
        x1: i64,
        y1: i64,
        stroke: i64,
        shade: u8,
        dash_on: u32,
        dash_off: u32,
    ) {
        let dx = (x1 - x0).abs();
        let dy = -(y1 - y0).abs();
        let sx = if x0 < x1 { 1 } else { -1 };
        let sy = if y0 < y1 { 1 } else { -1 };
        let mut err = dx + dy;
        let (mut x, mut y) = (x0, y0);
        let period = (dash_on + dash_off).max(1);
        let mut step = 0u32;
        loop {
            if step % period < dash_on {
                self.stamp(x, y, stroke, shade);
            }
            step += 1;
            if x == x1 && y == y1 {
                break;
            }
            let e2 = 2 * err;
            if e2 >= dy {
                err += dy;
                x += sx;
            }
            if e2 <= dx {
                err += dx;
                y += sy;
            }
        }
    }

    /// Draws the outline of an axis-aligned rectangle.
    pub fn draw_rect(&mut self, x: i64, y: i64, w: i64, h: i64, stroke: i64, shade: u8) {
        self.draw_line(x, y, x + w - 1, y, stroke, shade);
        self.draw_line(x, y + h - 1, x + w - 1, y + h - 1, stroke, shade);
        self.draw_line(x, y, x, y + h - 1, stroke, shade);
        self.draw_line(x + w - 1, y, x + w - 1, y + h - 1, stroke, shade);
    }

    /// Draws a circle outline centred at `(cx, cy)` using the midpoint
    /// algorithm.
    pub fn draw_circle(&mut self, cx: i64, cy: i64, r: i64, stroke: i64, shade: u8) {
        let mut x = r;
        let mut y = 0i64;
        let mut err = 1 - r;
        while x >= y {
            for &(px, py) in &[
                (cx + x, cy + y),
                (cx - x, cy + y),
                (cx + x, cy - y),
                (cx - x, cy - y),
                (cx + y, cy + x),
                (cx - y, cy + x),
                (cx + y, cy - x),
                (cx - y, cy - x),
            ] {
                self.stamp(px, py, stroke, shade);
            }
            y += 1;
            if err < 0 {
                err += 2 * y + 1;
            } else {
                x -= 1;
                err += 2 * (y - x) + 1;
            }
        }
    }

    /// Fills a disc centred at `(cx, cy)`.
    pub fn fill_circle(&mut self, cx: i64, cy: i64, r: i64, shade: u8) {
        // One clipped span per scanline: the row's extent is the largest
        // xx with xx² + yy² ≤ r² (float sqrt as a seed, corrected to the
        // exact integer bound so the pixel set matches the per-pixel
        // membership test).
        for yy in -r..=r {
            let limit = r * r - yy * yy;
            let mut xx = (limit as f64).sqrt() as i64;
            while (xx + 1) * (xx + 1) <= limit {
                xx += 1;
            }
            while xx > 0 && xx * xx > limit {
                xx -= 1;
            }
            self.fill_rect(cx - xx, cy + yy, 2 * xx + 1, 1, shade);
        }
    }

    /// Draws connected line segments through the given points.
    pub fn draw_polyline(&mut self, points: &[(i64, i64)], stroke: i64, shade: u8) {
        for pair in points.windows(2) {
            self.draw_line(pair[0].0, pair[0].1, pair[1].0, pair[1].1, stroke, shade);
        }
    }

    /// Draws a line terminated by a small solid arrow head at `(x1, y1)`.
    pub fn draw_arrow(&mut self, x0: i64, y0: i64, x1: i64, y1: i64, stroke: i64, shade: u8) {
        self.draw_line(x0, y0, x1, y1, stroke, shade);
        let (dx, dy) = ((x1 - x0) as f64, (y1 - y0) as f64);
        let len = (dx * dx + dy * dy).sqrt();
        if len < 1.0 {
            return;
        }
        let (ux, uy) = (dx / len, dy / len);
        let size = 6.0_f64.min(len / 2.0);
        // Two barbs at +-150 degrees from the shaft direction.
        for angle in [2.6, -2.6_f64] {
            let (s, c) = angle.sin_cos();
            let bx = x1 + ((ux * c - uy * s) * size).round() as i64;
            let by = y1 + ((ux * s + uy * c) * size).round() as i64;
            self.draw_line(x1, y1, bx, by, stroke, shade);
        }
    }

    /// Renders `text` with its top-left corner at `(x, y)` using the built-in
    /// 5x7 font scaled by `scale`. Returns the width of the rendered text in
    /// pixels. Characters outside the font map render as blanks.
    pub fn draw_text(&mut self, x: i64, y: i64, text: &str, scale: i64, shade: u8) -> i64 {
        let scale = scale.max(1);
        let mut cursor = x;
        for ch in text.chars() {
            let glyph = font::glyph(ch);
            for (col, bits) in glyph.iter().enumerate() {
                for row in 0..7 {
                    if bits >> row & 1 == 1 {
                        self.fill_rect(
                            cursor + col as i64 * scale,
                            y + row * scale,
                            scale,
                            scale,
                            shade,
                        );
                    }
                }
            }
            cursor += font::ADVANCE * scale;
        }
        cursor - x
    }

    /// Width in pixels that [`Pixmap::draw_text`] would occupy.
    pub fn text_width(text: &str, scale: i64) -> i64 {
        text.chars().count() as i64 * font::ADVANCE * scale.max(1)
    }

    /// Downsamples the image by an integer factor using a box filter (the
    /// mean of each `factor x factor` block). Ragged edges are averaged over
    /// the in-bounds pixels. This models the resolution degradation of the
    /// paper's §IV-B study.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is zero.
    pub fn downsample(&self, factor: usize) -> Pixmap {
        assert!(factor > 0, "downsample factor must be nonzero");
        if factor == 1 {
            return self.clone();
        }
        let nw = self.width.div_ceil(factor);
        let nh = self.height.div_ceil(factor);
        let mut out = Pixmap::new(nw, nh);
        let mut px = out.data.iter_mut();
        self.box_filter(factor, 0..nw, 0..nh, |mean| {
            *px.next().expect("one mean per block") = mean;
        });
        out
    }

    /// Box filter core shared by [`Pixmap::downsample`] and
    /// [`crate::legibility_after_downsample`]: hands `visit` the mean of
    /// every block in `cols × rows` of the `div_ceil(factor)` grid, in
    /// row-major order. Each row band walks its input rows once, summing
    /// `factor`-wide chunks; integer sums are order-independent, so every
    /// mean is bit-identical to the naive per-block mean however much of
    /// the grid is visited.
    pub(crate) fn box_filter(
        &self,
        factor: usize,
        cols: Range<usize>,
        rows: Range<usize>,
        mut visit: impl FnMut(u8),
    ) {
        if cols.is_empty() || rows.is_empty() {
            return;
        }
        let x_start = cols.start * factor;
        let x_end = (cols.end * factor).min(self.width);
        let mut sums = vec![0u64; cols.len()];
        for by in rows {
            sums.fill(0);
            let y_start = by * factor;
            let y_end = ((by + 1) * factor).min(self.height);
            for yy in y_start..y_end {
                let row = &self.data[yy * self.width + x_start..yy * self.width + x_end];
                for (sum, chunk) in sums.iter_mut().zip(row.chunks(factor)) {
                    *sum += chunk.iter().map(|&p| u64::from(p)).sum::<u64>();
                }
            }
            let n_rows = (y_end - y_start) as u64;
            for (bx, &sum) in cols.clone().zip(&sums) {
                let n_cols = (((bx + 1) * factor).min(self.width) - bx * factor) as u64;
                visit((sum / (n_rows * n_cols).max(1)) as u8);
            }
        }
    }

    /// Counts pixels darker than [`INK_THRESHOLD`] over the whole image.
    pub fn ink_pixels(&self) -> usize {
        self.data.iter().filter(|&&p| p < INK_THRESHOLD).count()
    }

    /// Renders the image as ASCII art (one character per `cell x cell`
    /// block), handy for terminal exploration of generated visuals.
    pub fn to_ascii(&self, cell: usize) -> String {
        let mut s = String::new();
        self.to_ascii_into(cell, &mut s);
        s
    }

    /// [`Pixmap::to_ascii`] into a caller-owned string (cleared first),
    /// avoiding the per-call allocation when rendering many frames.
    pub fn to_ascii_into(&self, cell: usize, s: &mut String) {
        let cell = cell.max(1);
        let shades = [b'#', b'+', b'.', b' '];
        let nw = self.width.div_ceil(cell);
        let nh = self.height.div_ceil(cell);
        s.clear();
        s.reserve(nh * (nw + 1));
        let mut sums = vec![0u64; nw];
        for by in 0..nh {
            sums.fill(0);
            let y_start = by * cell;
            let y_end = ((by + 1) * cell).min(self.height);
            for yy in y_start..y_end {
                let row = &self.data[yy * self.width..(yy + 1) * self.width];
                for (sum, chunk) in sums.iter_mut().zip(row.chunks(cell)) {
                    *sum += chunk.iter().map(|&p| u64::from(p)).sum::<u64>();
                }
            }
            let rows = (y_end - y_start) as u64;
            for (bx, &sum) in sums.iter().enumerate() {
                let cols = (((bx + 1) * cell).min(self.width) - bx * cell) as u64;
                let avg = (sum / (rows * cols).max(1)) as usize;
                s.push(shades[avg * shades.len() / 256] as char);
            }
            s.push('\n');
        }
    }

    /// Writes the image as a binary PGM (P5) stream. A mutable reference
    /// to any `Write` implementor can be passed (e.g. `&mut file`).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    pub fn write_pgm<W: std::io::Write>(&self, mut w: W) -> std::io::Result<()> {
        write!(w, "P5\n{} {}\n255\n", self.width, self.height)?;
        w.write_all(&self.data)
    }

    /// The image as an in-memory PGM (P5) byte vector.
    pub fn to_pgm_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.data.len() + 32);
        self.write_pgm(&mut out)
            .expect("writing to a Vec cannot fail");
        out
    }

    /// Stamps a `stroke x stroke` square centred on `(x, y)`.
    fn stamp(&mut self, x: i64, y: i64, stroke: i64, shade: u8) {
        let s = stroke.max(1);
        let half = (s - 1) / 2;
        self.fill_rect(x - half, y - half, s, s, shade);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_is_white() {
        let img = Pixmap::new(4, 3);
        assert_eq!(img.width(), 4);
        assert_eq!(img.height(), 3);
        assert!(img.pixels().iter().all(|&p| p == WHITE));
        assert_eq!(img.ink_pixels(), 0);
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_dimensions_panic() {
        let _ = Pixmap::new(0, 5);
    }

    #[test]
    fn set_get_roundtrip_and_clipping() {
        let mut img = Pixmap::new(8, 8);
        img.set(3, 4, 7);
        assert_eq!(img.get(3, 4), Some(7));
        assert_eq!(img.get(-1, 0), None);
        assert_eq!(img.get(8, 0), None);
        img.set(-5, -5, 0); // must not panic
        img.set(100, 100, 0);
    }

    #[test]
    fn horizontal_line_covers_expected_pixels() {
        let mut img = Pixmap::new(16, 16);
        img.draw_line(2, 5, 10, 5, 1, 0);
        for x in 2..=10 {
            assert_eq!(img.get(x, 5), Some(0), "x={x}");
        }
        assert_eq!(img.get(1, 5), Some(WHITE));
        assert_eq!(img.get(11, 5), Some(WHITE));
    }

    #[test]
    fn diagonal_line_endpoints() {
        let mut img = Pixmap::new(32, 32);
        img.draw_line(0, 0, 31, 31, 1, 0);
        assert_eq!(img.get(0, 0), Some(0));
        assert_eq!(img.get(31, 31), Some(0));
        assert_eq!(img.get(16, 16), Some(0));
    }

    #[test]
    fn stroke_width_thickens_line() {
        let mut thin = Pixmap::new(32, 32);
        let mut thick = Pixmap::new(32, 32);
        thin.draw_line(0, 16, 31, 16, 1, 0);
        thick.draw_line(0, 16, 31, 16, 3, 0);
        assert!(thick.ink_pixels() > 2 * thin.ink_pixels());
    }

    #[test]
    fn rect_outline_has_corners() {
        let mut img = Pixmap::new(32, 32);
        img.draw_rect(4, 4, 10, 8, 1, 0);
        assert_eq!(img.get(4, 4), Some(0));
        assert_eq!(img.get(13, 11), Some(0));
        assert_eq!(img.get(8, 8), Some(WHITE)); // interior untouched
    }

    #[test]
    fn circle_is_roughly_round() {
        let mut img = Pixmap::new(64, 64);
        img.draw_circle(32, 32, 10, 1, 0);
        assert_eq!(img.get(42, 32), Some(0));
        assert_eq!(img.get(22, 32), Some(0));
        assert_eq!(img.get(32, 42), Some(0));
        assert_eq!(img.get(32, 32), Some(WHITE));
    }

    #[test]
    fn fill_circle_contains_center() {
        let mut img = Pixmap::new(32, 32);
        img.fill_circle(16, 16, 5, 0);
        assert_eq!(img.get(16, 16), Some(0));
        assert_eq!(img.get(16 + 4, 16), Some(0));
        assert_eq!(img.get(16 + 8, 16), Some(WHITE));
    }

    #[test]
    fn arrow_draws_head() {
        let mut img = Pixmap::new(64, 64);
        img.draw_arrow(4, 32, 60, 32, 1, 0);
        // barbs extend above and below the shaft near the tip
        let above = (50..60).any(|x| img.get(x, 29) == Some(0));
        let below = (50..60).any(|x| img.get(x, 35) == Some(0));
        assert!(above && below);
    }

    #[test]
    fn text_renders_ink_and_reports_width() {
        let mut img = Pixmap::new(128, 32);
        let w = img.draw_text(2, 2, "VDD", 2, 0);
        assert_eq!(w, Pixmap::text_width("VDD", 2));
        assert!(img.ink_pixels() > 20);
    }

    #[test]
    fn downsample_dimensions_round_up() {
        let img = Pixmap::new(100, 50);
        let d = img.downsample(8);
        assert_eq!(d.width(), 13);
        assert_eq!(d.height(), 7);
    }

    #[test]
    fn downsample_of_uniform_is_uniform() {
        let mut img = Pixmap::new(64, 64);
        img.fill(42);
        let d = img.downsample(4);
        assert!(d.pixels().iter().all(|&p| p == 42));
    }

    #[test]
    fn downsample_averages_strokes_to_gray() {
        let mut img = Pixmap::new(64, 64);
        img.draw_line(0, 32, 63, 32, 2, 0); // 2px stroke
        let d = img.downsample(16);
        // A 2/16 duty stroke averages to roughly 255 * 14/16 = 223.
        let row = d.pixels()[2 * d.width()..3 * d.width()].to_vec();
        assert!(row.iter().all(|&p| p > 200), "{row:?}");
    }

    #[test]
    fn dashed_line_has_gaps() {
        let mut img = Pixmap::new(64, 8);
        img.draw_dashed_line(0, 4, 63, 4, 1, 0, 4, 4);
        let inked: Vec<bool> = (0..64).map(|x| img.get(x, 4) == Some(0)).collect();
        assert!(inked.iter().any(|&b| b));
        assert!(inked.iter().any(|&b| !b));
    }

    #[test]
    fn ascii_render_shape() {
        let mut img = Pixmap::new(16, 8);
        img.fill_rect(0, 0, 16, 8, 0);
        let art = img.to_ascii(4);
        assert_eq!(art.lines().count(), 2);
        assert!(art.contains('#'));
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Any sequence of drawing ops with arbitrary (even wildly
            /// out-of-range) coordinates must not panic, and downsampling
            /// afterwards keeps dimensions consistent.
            #[test]
            fn drawing_is_panic_free(
                ops in proptest::collection::vec(
                    (-64i64..200, -64i64..200, -64i64..200, -64i64..200, 0u8..6),
                    0..24,
                ),
                factor in 1usize..20,
            ) {
                let mut img = Pixmap::new(96, 64);
                for (a, b, c, d, op) in ops {
                    match op {
                        0 => img.draw_line(a, b, c, d, 2, 0),
                        1 => img.draw_rect(a, b, c.max(1), d.max(1), 1, 0),
                        2 => img.draw_circle(a, b, c.rem_euclid(40), 1, 0),
                        3 => img.fill_circle(a, b, c.rem_euclid(20), 0),
                        4 => img.draw_arrow(a, b, c, d, 1, 0),
                        _ => {
                            let _ = img.draw_text(a, b, "X9", 2, 0);
                        }
                    }
                }
                let small = img.downsample(factor);
                prop_assert_eq!(small.width(), img.width().div_ceil(factor));
                prop_assert_eq!(small.height(), img.height().div_ceil(factor));
            }
        }
    }

    #[test]
    fn pgm_export_shape() {
        let mut img = Pixmap::new(6, 4);
        img.set(0, 0, 0);
        let bytes = img.to_pgm_bytes();
        let header = b"P5\n6 4\n255\n";
        assert!(bytes.starts_with(header));
        assert_eq!(bytes.len(), header.len() + 24);
        assert_eq!(bytes[header.len()], 0, "first pixel black");
        assert_eq!(*bytes.last().unwrap(), WHITE);
    }

    #[test]
    fn serde_roundtrip() {
        let mut img = Pixmap::new(8, 8);
        img.draw_rect(1, 1, 6, 6, 1, 0);
        let json = serde_json::to_string(&img).expect("serialize");
        let back: Pixmap = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(img, back);
    }
}
