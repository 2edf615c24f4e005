//! Grayscale pixel buffer with drawing primitives, drawn on demand.

use std::borrow::Cow;
use std::fmt;
use std::ops::Range;
use std::sync::OnceLock;

use serde::{DeError, Deserialize, Serialize, Value};

use crate::font;
use crate::metrics::clip;
use crate::{Region, INK_THRESHOLD, WHITE};

/// An 8-bit grayscale raster image.
///
/// The coordinate origin is the top-left corner; `x` grows to the right and
/// `y` grows downward. The background is white (`255`) and ink is drawn in
/// darker shades (typically `0`). All drawing primitives silently clip to
/// the image bounds, so callers never need to pre-clip geometry.
///
/// # Drawn on demand
///
/// A `Pixmap` records its draw calls and rasterizes them on the first
/// pixel read: [`pixels`](Pixmap::pixels), [`get`](Pixmap::get),
/// [`ink_pixels`](Pixmap::ink_pixels), [`ink_fraction`](Pixmap::ink_fraction),
/// [`downsample`](Pixmap::downsample), [`to_ascii_into`](Pixmap::to_ascii_into),
/// [`crate::legibility_after_downsample`], [`write_pgm`](Pixmap::write_pgm),
/// `==` and serialization. That read replays every recorded call, in
/// call order, into a white buffer, through the same primitive code an
/// eager draw runs, so the pixels are exactly the ones drawing eagerly
/// gives. A draw on a rasterized pixmap goes straight to its buffer.
///
/// A reader that needs only part of an image asks for a
/// [`window`](Pixmap::window): the same replay, into a buffer of that
/// rectangle alone, with every primitive clipped to it. The window's
/// bytes are the crop of the whole raster, and the image stays
/// unrasterized. This is how perception reads key marks
/// ([`Window::legibility`]). Replaying a window still walks every
/// recorded call, so it saves the pixels outside the window, not the
/// calls: a small window costs less than the whole image, and a window
/// per mark and factor more than one whole raster.
///
/// The buffer is a [`OnceLock`]: a `Pixmap` is `Send + Sync`, and when
/// several threads make the first read of one image together, one of
/// them replays and all of them see its bytes.
///
/// Cost model: [`new`](Pixmap::new) allocates nothing, and a recorded
/// call is one push onto a list (the text of every
/// [`draw_text`](Pixmap::draw_text) goes into one string per image, so
/// recording text allocates nothing per call). The first read pays for
/// the buffer, its white fill and every primitive, which is what drawing
/// eagerly cost, so an image that is read costs its recording on top.
/// An image that is never read costs its recorded calls and no pixels,
/// and one read only through windows costs their buffers, each freed
/// with its window. The calls stay recorded after the replay; a `set`
/// per pixel of a
/// large region records one call per pixel, where one
/// [`fill_rect`](Pixmap::fill_rect) records one.
///
/// # Example
///
/// ```
/// use chipvqa_raster::Pixmap;
///
/// let mut img = Pixmap::new(64, 64);
/// img.draw_rect(8, 8, 48, 48, 2, 0);
/// img.draw_circle(32, 32, 12, 2, 0);
/// assert_eq!(img.get(8, 8), Some(0)); // the first read rasterizes
/// ```
pub struct Pixmap {
    width: usize,
    height: usize,
    /// The draw calls made before the first read, in call order.
    ops: Vec<Op>,
    /// The text of every recorded [`Op::Text`], end to end.
    text: String,
    /// The pixels, row-major: set by the first read, or at construction
    /// from pixels.
    data: OnceLock<Vec<u8>>,
}

/// One recorded draw call. The composite calls (`draw_rect`,
/// `draw_polyline`, `draw_arrow`) record the lines they are made of.
#[derive(Clone)]
enum Op {
    Set {
        x: i64,
        y: i64,
        shade: u8,
    },
    Fill {
        shade: u8,
    },
    FillRect {
        x: i64,
        y: i64,
        w: i64,
        h: i64,
        shade: u8,
    },
    Line {
        x0: i64,
        y0: i64,
        x1: i64,
        y1: i64,
        stroke: i64,
        shade: u8,
    },
    DashedLine {
        x0: i64,
        y0: i64,
        x1: i64,
        y1: i64,
        stroke: i64,
        shade: u8,
        dash_on: u32,
        dash_off: u32,
    },
    Circle {
        cx: i64,
        cy: i64,
        r: i64,
        stroke: i64,
        shade: u8,
    },
    FillCircle {
        cx: i64,
        cy: i64,
        r: i64,
        shade: u8,
    },
    /// `span` is the byte range of the pixmap's text string that holds
    /// the call's text.
    Text {
        x: i64,
        y: i64,
        span: Range<usize>,
        scale: i64,
        shade: u8,
    },
}

impl Pixmap {
    /// Creates a white image of the given dimensions. Nothing is
    /// allocated until the first pixel read.
    ///
    /// # Panics
    ///
    /// Panics if `width` or `height` is zero.
    pub fn new(width: usize, height: usize) -> Self {
        assert!(width > 0 && height > 0, "pixmap dimensions must be nonzero");
        Pixmap {
            width,
            height,
            ops: Vec::new(),
            text: String::new(),
            data: OnceLock::new(),
        }
    }

    /// A rasterized image holding `data`, row-major.
    fn from_pixels(width: usize, height: usize, data: Vec<u8>) -> Self {
        debug_assert_eq!(data.len(), width * height, "one byte per pixel");
        Pixmap {
            width,
            height,
            ops: Vec::new(),
            text: String::new(),
            data: OnceLock::from(data),
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

    /// Read-only view of the raw pixel data, row-major. The first read
    /// of an image rasterizes its recorded drawing: it replays the
    /// window of the whole image.
    pub fn pixels(&self) -> &[u8] {
        self.data
            .get_or_init(|| self.replay(Region::new(0, 0, self.width, self.height)))
    }

    /// The pixels of `region` as a [`Window`], read without rasterizing
    /// the image: an unrasterized image replays its recorded drawing
    /// into a buffer of `region` clipped to the image (an empty one
    /// replays nothing), and leaves itself unrasterized. A rasterized
    /// image lends its buffer as the whole-image window instead, which
    /// holds `region` too.
    pub fn window(&self, region: Region) -> Window<'_> {
        if self.data.get().is_some() {
            return self.whole();
        }
        let (cols, rows) = clip(region, self.width, self.height);
        let region = Region::new(cols.start, rows.start, cols.len(), rows.len());
        Window {
            data: Cow::Owned(self.replay(region)),
            region,
            image_width: self.width,
            image_height: self.height,
        }
    }

    /// The whole image as a [`Window`], lent from its buffer (the first
    /// read rasterizes it).
    pub(crate) fn whole(&self) -> Window<'_> {
        Window {
            data: Cow::Borrowed(self.pixels()),
            region: Region::new(0, 0, self.width, self.height),
            image_width: self.width,
            image_height: self.height,
        }
    }

    /// The one replay path: every recorded call, in call order, drawn
    /// into a white buffer of `region` (which lies in the image).
    fn replay(&self, region: Region) -> Vec<u8> {
        let mut data = vec![WHITE; region.area()];
        if !data.is_empty() {
            let mut canvas = Canvas {
                x: region.x as i64,
                y: region.y as i64,
                width: region.w,
                height: region.h,
                data: &mut data,
            };
            for op in &self.ops {
                canvas.apply(op, &self.text);
            }
        }
        data
    }

    /// Returns the shade at `(x, y)`, or `None` when out of bounds.
    #[inline]
    pub fn get(&self, x: i64, y: i64) -> Option<u8> {
        if x < 0 || y < 0 || x as usize >= self.width || y as usize >= self.height {
            None
        } else {
            Some(self.pixels()[y as usize * self.width + x as usize])
        }
    }

    /// Records `op`, or draws it straight into the buffer once the image
    /// is rasterized.
    fn draw(&mut self, op: Op) {
        let (width, height) = (self.width, self.height);
        match self.data.get_mut() {
            Some(data) => Canvas::whole(width, height, data).apply(&op, &self.text),
            None => self.ops.push(op),
        }
    }

    /// Sets the shade at `(x, y)`; out-of-bounds writes are ignored.
    pub fn set(&mut self, x: i64, y: i64, shade: u8) {
        self.draw(Op::Set { x, y, shade });
    }

    /// Fills the whole image with one shade.
    pub fn fill(&mut self, shade: u8) {
        self.draw(Op::Fill { shade });
    }

    /// Fills the axis-aligned rectangle with top-left `(x, y)` and the given
    /// width/height.
    pub fn fill_rect(&mut self, x: i64, y: i64, w: i64, h: i64, shade: u8) {
        self.draw(Op::FillRect { x, y, w, h, shade });
    }

    /// Draws a straight line between `(x0, y0)` and `(x1, y1)` with the given
    /// stroke width (in pixels) using Bresenham stepping.
    pub fn draw_line(&mut self, x0: i64, y0: i64, x1: i64, y1: i64, stroke: i64, shade: u8) {
        self.draw(Op::Line {
            x0,
            y0,
            x1,
            y1,
            stroke,
            shade,
        });
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
        self.draw(Op::DashedLine {
            x0,
            y0,
            x1,
            y1,
            stroke,
            shade,
            dash_on,
            dash_off,
        });
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
        self.draw(Op::Circle {
            cx,
            cy,
            r,
            stroke,
            shade,
        });
    }

    /// Fills a disc centred at `(cx, cy)`.
    pub fn fill_circle(&mut self, cx: i64, cy: i64, r: i64, shade: u8) {
        self.draw(Op::FillCircle { cx, cy, r, shade });
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
        let (width, height) = (self.width, self.height);
        if let Some(data) = self.data.get_mut() {
            return Canvas::whole(width, height, data).draw_text(x, y, text, scale, shade);
        }
        let start = self.text.len();
        self.text.push_str(text);
        self.ops.push(Op::Text {
            x,
            y,
            span: start..self.text.len(),
            scale,
            shade,
        });
        Pixmap::text_width(text, scale)
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
        let mut data = Vec::with_capacity(nw * nh);
        self.whole()
            .box_filter(factor, 0..nw, 0..nh, |sum, n| data.push((sum / n) as u8));
        Pixmap::from_pixels(nw, nh, data)
    }

    /// Counts pixels darker than [`INK_THRESHOLD`] over the whole image.
    pub fn ink_pixels(&self) -> usize {
        count_ink(self.pixels())
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
        let mut bx = 0;
        self.whole().box_filter(cell, 0..nw, 0..nh, |sum, n| {
            let avg = (sum / n) as usize;
            s.push(shades[avg * shades.len() / 256] as char);
            bx += 1;
            if bx == nw {
                s.push('\n');
                bx = 0;
            }
        });
    }

    /// Writes the image as a binary PGM (P5) stream. A mutable reference
    /// to any `Write` implementor can be passed (e.g. `&mut file`).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    pub fn write_pgm<W: std::io::Write>(&self, mut w: W) -> std::io::Result<()> {
        write!(w, "P5\n{} {}\n255\n", self.width, self.height)?;
        w.write_all(self.pixels())
    }

    /// The image as an in-memory PGM (P5) byte vector.
    pub fn to_pgm_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.width * self.height + 32);
        self.write_pgm(&mut out)
            .expect("writing to a Vec cannot fail");
        out
    }
}

/// A clone of a rasterized pixmap copies its pixels; a clone of an
/// unrasterized one copies its recorded calls, and rasterizes on its own
/// first read.
impl Clone for Pixmap {
    fn clone(&self) -> Self {
        match self.data.get() {
            Some(data) => Pixmap::from_pixels(self.width, self.height, data.clone()),
            None => Pixmap {
                width: self.width,
                height: self.height,
                ops: self.ops.clone(),
                text: self.text.clone(),
                data: OnceLock::new(),
            },
        }
    }
}

/// Two images are equal when their sizes and pixels are: comparing
/// reads (so rasterizes) both.
impl PartialEq for Pixmap {
    fn eq(&self, other: &Self) -> bool {
        self.width == other.width && self.height == other.height && self.pixels() == other.pixels()
    }
}

impl Eq for Pixmap {}

/// Shows the size and drawing state, and reads no pixel.
impl fmt::Debug for Pixmap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Pixmap")
            .field("width", &self.width)
            .field("height", &self.height)
            .field("recorded_calls", &self.ops.len())
            .field("rasterized", &self.data.get().is_some())
            .finish()
    }
}

/// `{"width":…,"height":…,"data":[…]}`, the pixels row-major.
impl Serialize for Pixmap {
    fn to_value(&self) -> Value {
        Value::Obj(vec![
            ("width".to_string(), self.width.to_value()),
            ("height".to_string(), self.height.to_value()),
            ("data".to_string(), self.pixels().to_value()),
        ])
    }

    fn write_json(&self, out: &mut String) {
        out.push_str("{\"width\":");
        self.width.write_json(out);
        out.push_str(",\"height\":");
        self.height.write_json(out);
        out.push_str(",\"data\":");
        self.pixels().write_json(out);
        out.push('}');
    }
}

/// Reads the serialized form back as a rasterized pixmap. Refuses
/// dimensions of zero and a `data` array that does not hold one byte
/// per pixel.
impl Deserialize for Pixmap {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        if v.as_obj().is_none() {
            return Err(DeError::expected("object", v, "Pixmap"));
        }
        let field = |name| v.get(name).ok_or_else(|| DeError::missing(name, "Pixmap"));
        let width = usize::from_value(field("width")?)?;
        let height = usize::from_value(field("height")?)?;
        let data = Vec::<u8>::from_value(field("data")?)?;
        if width == 0 || height == 0 || width.checked_mul(height) != Some(data.len()) {
            return Err(DeError(format!(
                "a {width}x{height} pixmap cannot hold {} pixels",
                data.len()
            )));
        }
        Ok(Pixmap::from_pixels(width, height, data))
    }
}

/// A rectangle of an image's pixels, for the readers that need only
/// part of an image: the box filter and the ink count read one.
/// [`Pixmap::window`] replays an unrasterized image into a window of
/// its own, and a rasterized image lends its buffer as the window of the
/// whole image.
pub struct Window<'a> {
    /// The window's pixels, row-major.
    data: Cow<'a, [u8]>,
    /// Where the window lies on the image.
    region: Region,
    /// The image's size: the `factor` grid's blocks are ragged at its
    /// right and bottom edges, not at the window's.
    pub(crate) image_width: usize,
    pub(crate) image_height: usize,
}

impl Window<'_> {
    /// Where the window lies on its image.
    pub fn region(&self) -> Region {
        self.region
    }

    /// The window's pixels, row-major: the pixels of
    /// [`region`](Window::region) in [`Pixmap::pixels`], byte for byte.
    pub fn pixels(&self) -> &[u8] {
        &self.data
    }

    /// Row `y` of the image between columns `cols`, which must lie in
    /// the window.
    fn row(&self, y: usize, cols: Range<usize>) -> &[u8] {
        let Region { x, y: top, w, .. } = self.region;
        let base = (y - top) * w;
        &self.data[base + cols.start - x..base + cols.end - x]
    }

    /// Whether the window holds every pixel of `cols × rows` (an empty
    /// range holds none).
    fn holds(&self, cols: &Range<usize>, rows: &Range<usize>) -> bool {
        let Region { x, y, w, h } = self.region;
        cols.is_empty()
            || rows.is_empty()
            || (x <= cols.start && cols.end <= x + w && y <= rows.start && rows.end <= y + h)
    }

    /// Pixels darker than [`INK_THRESHOLD`] in `region` clipped to the
    /// image, which the window must hold.
    ///
    /// # Panics
    ///
    /// Panics if the window does not hold the clipped region.
    pub(crate) fn ink(&self, region: Region) -> usize {
        let (cols, rows) = clip(region, self.image_width, self.image_height);
        if cols.is_empty() {
            return 0;
        }
        assert!(self.holds(&cols, &rows), "the window holds the region");
        rows.map(|y| count_ink(self.row(y, cols.clone()))).sum()
    }

    /// The one box-filter core, behind [`Pixmap::downsample`],
    /// [`Pixmap::to_ascii_into`] and legibility
    /// ([`crate::legibility_after_downsample`], [`Window::legibility`]):
    /// hands `visit(sum, n)` the integer pixel sum and the in-bounds
    /// pixel count `n > 0` of every block in `cols × rows` of the
    /// image's `div_ceil(factor)` grid, in row-major order. The window
    /// must hold those blocks. Callers take the mean as `sum / n`, or
    /// compare against it without dividing.
    ///
    /// It works one block row (band) at a time: the band's first pixel
    /// row is copied into a `u32` column-sum buffer and the others are
    /// added to it, in plain widening loops the compiler vectorizes;
    /// then each block's `factor` columns are summed into a `u64`.
    /// Integer sums are order-independent, so every `sum` equals the
    /// naive per-pixel block sum however much of the grid is visited.
    /// A column sum is at most `255 ×` the band's rows, so `u32` is
    /// exact for bands of up to `u32::MAX / 255` (16,843,009) rows.
    ///
    /// # Panics
    ///
    /// Panics if a band could hold more rows than that bound, or if the
    /// window does not hold the blocks.
    pub(crate) fn box_filter(
        &self,
        factor: usize,
        cols: Range<usize>,
        rows: Range<usize>,
        mut visit: impl FnMut(u64, u64),
    ) {
        if cols.is_empty() || rows.is_empty() {
            return;
        }
        let (width, height) = (self.image_width, self.image_height);
        assert!(
            factor.min(height) <= (u32::MAX / u32::from(WHITE)) as usize,
            "box-filter band too tall for u32 column sums"
        );
        let x_range = cols.start * factor..(cols.end * factor).min(width);
        let y_range = rows.start * factor..(rows.end * factor).min(height);
        assert!(
            self.holds(&x_range, &y_range),
            "the window holds the blocks"
        );
        let mut column_sums = vec![0u32; x_range.len()];
        for by in rows {
            let y_start = by * factor;
            let y_end = ((by + 1) * factor).min(height);
            let mut band = (y_start..y_end).map(|yy| self.row(yy, x_range.clone()));
            let first = band.next().expect("every band holds a row");
            for (sum, &p) in column_sums.iter_mut().zip(first) {
                *sum = u32::from(p);
            }
            for row in band {
                for (sum, &p) in column_sums.iter_mut().zip(row) {
                    *sum += u32::from(p);
                }
            }
            let n_rows = (y_end - y_start) as u64;
            match factor {
                2 => visit_blocks::<2>(&column_sums, n_rows, &mut visit),
                3 => visit_blocks::<3>(&column_sums, n_rows, &mut visit),
                4 => visit_blocks::<4>(&column_sums, n_rows, &mut visit),
                _ => {
                    for block in column_sums.chunks(factor) {
                        let sum = block.iter().map(|&s| u64::from(s)).sum();
                        visit(sum, n_rows * block.len() as u64);
                    }
                }
            }
        }
    }
}

/// The block step of [`Window::box_filter`] at a constant factor `F`:
/// hands `visit` the sum and pixel count of each `F`-column block of one
/// band's column sums, the last block ragged. The factors 2–4 that
/// perception reads most take this path, where the compiler unrolls
/// each block's sum; a block loop of unknown length cost about four
/// times as much per pixel at factor 2.
fn visit_blocks<const F: usize>(sums: &[u32], n_rows: u64, visit: &mut impl FnMut(u64, u64)) {
    let mut blocks = sums.chunks_exact(F);
    for block in &mut blocks {
        visit(block.iter().map(|&s| u64::from(s)).sum(), n_rows * F as u64);
    }
    let ragged = blocks.remainder();
    if !ragged.is_empty() {
        visit(
            ragged.iter().map(|&s| u64::from(s)).sum(),
            n_rows * ragged.len() as u64,
        );
    }
}

/// The rasterizer: the drawing primitives over a borrowed buffer that
/// holds one window of the image, with its top-left corner at `(x, y)`.
/// `set` and `fill_rect` clip to the window and offset into its buffer,
/// and every other primitive draws through them. A pixmap's first read
/// replays its recorded calls through it into the window of the whole
/// image, [`Pixmap::window`] into a smaller one, and a draw on a
/// rasterized pixmap calls it directly.
struct Canvas<'a> {
    x: i64,
    y: i64,
    width: usize,
    height: usize,
    data: &'a mut [u8],
}

impl<'a> Canvas<'a> {
    /// The window of a whole `width × height` image.
    fn whole(width: usize, height: usize, data: &'a mut [u8]) -> Self {
        Canvas {
            x: 0,
            y: 0,
            width,
            height,
            data,
        }
    }

    /// Draws one recorded call; `text` is the pixmap's text string.
    fn apply(&mut self, op: &Op, text: &str) {
        match *op {
            Op::Set { x, y, shade } => self.set(x, y, shade),
            Op::Fill { shade } => self.data.fill(shade),
            Op::FillRect { x, y, w, h, shade } => self.fill_rect(x, y, w, h, shade),
            Op::Line {
                x0,
                y0,
                x1,
                y1,
                stroke,
                shade,
            } => self.draw_line(x0, y0, x1, y1, stroke, shade),
            Op::DashedLine {
                x0,
                y0,
                x1,
                y1,
                stroke,
                shade,
                dash_on,
                dash_off,
            } => self.draw_dashed_line(x0, y0, x1, y1, stroke, shade, dash_on, dash_off),
            Op::Circle {
                cx,
                cy,
                r,
                stroke,
                shade,
            } => self.draw_circle(cx, cy, r, stroke, shade),
            Op::FillCircle { cx, cy, r, shade } => self.fill_circle(cx, cy, r, shade),
            Op::Text {
                x,
                y,
                ref span,
                scale,
                shade,
            } => {
                self.draw_text(x, y, &text[span.clone()], scale, shade);
            }
        }
    }

    /// Sets the shade at `(x, y)`; writes outside the window are
    /// ignored.
    #[inline]
    fn set(&mut self, x: i64, y: i64, shade: u8) {
        let (x, y) = (x.saturating_sub(self.x), y.saturating_sub(self.y));
        if x >= 0 && y >= 0 && (x as usize) < self.width && (y as usize) < self.height {
            self.data[y as usize * self.width + x as usize] = shade;
        }
    }

    /// Fills the axis-aligned rectangle with top-left `(x, y)` and the given
    /// width/height.
    fn fill_rect(&mut self, x: i64, y: i64, w: i64, h: i64, shade: u8) {
        // Clip once to the window, then fill whole row slices instead of
        // testing bounds per pixel — this primitive underlies lines,
        // text, and stamps, so it is the hottest routine in the renderer.
        let x0 = x.max(self.x);
        let y0 = y.max(self.y);
        let x1 = x.saturating_add(w.max(0)).min(self.x + self.width as i64);
        let y1 = y.saturating_add(h.max(0)).min(self.y + self.height as i64);
        if x0 >= x1 || y0 >= y1 {
            return;
        }
        let (x0, x1) = ((x0 - self.x) as usize, (x1 - self.x) as usize);
        for yy in (y0 - self.y) as usize..(y1 - self.y) as usize {
            let base = yy * self.width;
            self.data[base + x0..base + x1].fill(shade);
        }
    }

    /// Draws a straight line between `(x0, y0)` and `(x1, y1)` with the given
    /// stroke width (in pixels) using Bresenham stepping.
    fn draw_line(&mut self, x0: i64, y0: i64, x1: i64, y1: i64, stroke: i64, shade: u8) {
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
    fn draw_dashed_line(
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

    /// Draws a circle outline centred at `(cx, cy)` using the midpoint
    /// algorithm.
    fn draw_circle(&mut self, cx: i64, cy: i64, r: i64, stroke: i64, shade: u8) {
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
    fn fill_circle(&mut self, cx: i64, cy: i64, r: i64, shade: u8) {
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

    /// Renders `text` with its top-left corner at `(x, y)` using the built-in
    /// 5x7 font scaled by `scale`. Returns the width of the rendered text in
    /// pixels. Characters outside the font map render as blanks.
    fn draw_text(&mut self, x: i64, y: i64, text: &str, scale: i64, shade: u8) -> i64 {
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

    /// Stamps a `stroke x stroke` square centred on `(x, y)`.
    fn stamp(&mut self, x: i64, y: i64, stroke: i64, shade: u8) {
        let s = stroke.max(1);
        let half = (s - 1) / 2;
        self.fill_rect(x - half, y - half, s, s, shade);
    }
}

/// The one ink counter: pixels of `pixels` darker than
/// [`INK_THRESHOLD`]. [`Pixmap::ink_pixels`] hands it the whole buffer,
/// and a [`Window`]'s region ink (behind [`Pixmap::ink_fraction`] and
/// legibility) one clipped row at a time. Each 255-byte chunk is
/// counted in a `u8`, which holds its at most 255 hits exactly and
/// which the compiler vectorizes as byte lanes; the chunk counts are
/// summed as `usize`.
pub(crate) fn count_ink(pixels: &[u8]) -> usize {
    pixels
        .chunks(usize::from(u8::MAX))
        .map(|chunk| {
            let hits = chunk
                .iter()
                .fold(0u8, |n, &p| n + u8::from(p < INK_THRESHOLD));
            usize::from(hits)
        })
        .sum()
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
    fn ink_count_is_exact_at_its_u8_lane_edge() {
        // A 255-byte chunk of solid ink fills its `u8` count exactly; one
        // byte more starts the next chunk.
        for len in [0, 1, 254, 255, 256, 509, 510, 511, 765, 766] {
            assert_eq!(count_ink(&vec![0; len]), len, "solid ink, {len} bytes");
            assert_eq!(count_ink(&vec![INK_THRESHOLD; len]), 0, "at threshold");
            assert_eq!(count_ink(&vec![INK_THRESHOLD - 1; len]), len);
        }
        let mut img = Pixmap::new(300, 4);
        img.fill(0);
        assert_eq!(img.ink_pixels(), 1200);
        assert_eq!(img.ink_fraction(crate::Region::new(0, 1, 300, 2)), 1.0);
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

    /// Every recorded call kind, composites included, over a 96x64 image
    /// on a gray fill; `read_first` reads a pixel before drawing, so
    /// every call goes straight to the buffer (the eager replay).
    fn scene(read_first: bool) -> Pixmap {
        let mut img = Pixmap::new(96, 64);
        if read_first {
            assert_eq!(img.get(0, 0), Some(WHITE));
        }
        img.fill(240);
        img.fill_rect(-4, 50, 30, 30, 96);
        img.draw_line(0, 0, 95, 63, 2, 0);
        img.draw_line(4, 40, 90, 40, 3, 64);
        img.draw_dashed_line(0, 8, 95, 20, 1, 0, 4, 3);
        img.draw_circle(48, 32, 20, 2, 32);
        img.fill_circle(80, 10, 9, 0);
        img.draw_rect(10, 10, 30, 20, 1, 0);
        img.draw_polyline(&[(2, 60), (30, 45), (60, 62)], 2, 128);
        img.draw_arrow(90, 60, 50, 50, 1, 0);
        assert_eq!(img.draw_text(-3, 24, "Vout 1.8V", 2, 0), 9 * 6 * 2);
        img.set(95, 63, 7);
        img.set(-1, 5, 0);
        img
    }

    #[test]
    fn four_threads_making_the_first_read_together_see_one_raster() {
        let eager = scene(true);
        let deferred = scene(false);
        assert!(format!("{eager:?}").contains("rasterized: true"));
        assert!(format!("{deferred:?}").contains("rasterized: false"));
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    start.wait();
                    assert_eq!(deferred.pixels(), eager.pixels());
                });
            }
        });
        assert!(format!("{deferred:?}").contains("rasterized: true"));
        assert_eq!(deferred.get(95, 63), Some(7));
    }

    #[test]
    fn clones_and_serde_round_trips_keep_the_pixels() {
        let eager = scene(true);
        // a clone of an unrasterized pixmap rasterizes on its own read,
        // and leaves the original unrasterized
        let deferred = scene(false);
        let copy = deferred.clone();
        assert_eq!(copy.pixels(), eager.pixels());
        assert!(format!("{deferred:?}").contains("rasterized: false"));
        assert_eq!(deferred.clone(), eager);
        // a clone of a rasterized one copies its pixels
        let mut drawn_on = eager.clone();
        assert!(format!("{drawn_on:?}").contains("rasterized: true"));
        drawn_on.set(0, 0, 1);
        assert_eq!(drawn_on.get(0, 0), Some(1));
        assert_ne!(eager.get(0, 0), Some(1), "the clone owns its pixels");
        // serialization reads the pixels; the direct writer writes the
        // tree's bytes, and reading them back gives a rasterized equal
        let json = serde_json::to_string(&scene(false)).expect("serialize");
        let mut tree = String::new();
        scene(false).to_value().write_json(&mut tree);
        assert_eq!(json, tree);
        let back: Pixmap = serde_json::from_str(&json).expect("deserialize");
        assert!(format!("{back:?}").contains("rasterized: true"));
        assert_eq!(back, eager);
        for bad in [
            r#"{"width":2,"height":2,"data":[0,0,0]}"#,
            r#"{"width":0,"height":0,"data":[]}"#,
            r#"{"width":2,"data":[0,0]}"#,
            "[1,2]",
        ] {
            assert!(serde_json::from_str::<Pixmap>(bad).is_err(), "{bad}");
        }
    }
}
