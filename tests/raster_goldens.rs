//! Pixel-golden freeze wall for the raster hot paths.
//!
//! PR 9 rewrites the `Pixmap` drawing primitives (row-sliced
//! `fill_rect`, fast axis-aligned `draw_line`, span-filled
//! `fill_circle`, block-summed `downsample`) for speed. Every one of
//! those rewrites must be *pixel-exact*: the simulated encoders measure
//! legibility from real pixels, so a single off-by-one stroke would
//! silently shift perception probabilities and with them every report
//! byte downstream. This wall pins the outputs two ways:
//!
//! 1. **Content-hash goldens** — each primitive drawn at fixed
//!    sizes/strokes (including clipped and out-of-bounds geometry) and
//!    each substrate renderer's full standard-collection output is
//!    FNV-hashed against values captured *before* the optimization.
//!    Re-capture is deliberate friction: run with
//!    `CHIPVQA_PRINT_GOLDENS=1` to print the current values.
//! 2. **Scalar-reference differential proptest** — random op sequences
//!    are driven through the optimized primitives and through scalar
//!    per-pixel reference implementations (built only from `get`/`set`),
//!    asserting byte-identical buffers. Region-local legibility is held
//!    to its definition (a whole-image downsample, then an ink count)
//!    bit for bit, and the one-canvas route comparison to the two-panel
//!    composition it replaced.

use chipvqa::physd::render::render_route_tree;
use chipvqa::physd::steiner::RouteTree;
use chipvqa::physd::Point;
use chipvqa::raster::{font, Annotated, Pixmap, Region, WHITE};

/// FNV-1a over a byte stream.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Content hash of an image: dimensions plus every pixel.
fn hash_pixmap(img: &Pixmap) -> u64 {
    let dims = (img.width() as u64)
        .to_le_bytes()
        .into_iter()
        .chain((img.height() as u64).to_le_bytes());
    fnv1a(dims.chain(img.pixels().iter().copied()))
}

/// Checks `actual` against the golden table, or prints it when
/// `CHIPVQA_PRINT_GOLDENS=1` (the capture mode used to mint goldens).
fn check(name: &str, actual: u64) {
    if std::env::var("CHIPVQA_PRINT_GOLDENS").is_ok() {
        println!("    (\"{name}\", 0x{actual:016x}),");
        return;
    }
    let golden = GOLDENS
        .iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("no golden recorded for {name}"))
        .1;
    assert_eq!(
        actual, golden,
        "{name}: pixel content drifted (got 0x{actual:016x}, frozen 0x{golden:016x})"
    );
}

/// Frozen content hashes, captured from the pre-optimization scalar
/// implementations. The optimized fast paths must reproduce every one
/// byte-for-byte.
const GOLDENS: &[(&str, u64)] = &[
    ("fill_rect", 0xcd65360eb4df759c),
    ("lines_axis", 0x55a39c14f6a45d04),
    ("lines_diagonal", 0x0adff6805222367e),
    ("dashed_line", 0x785236d786c1fddd),
    ("rect_outline", 0x10e5603719b96c08),
    ("circle_outline", 0x9cc43d47b11e5b52),
    ("fill_circle", 0xe6c0a31d19be8cce),
    ("polyline_arrow", 0x1973e23796bebae3),
    ("text", 0x767e658032331b64),
    ("composite", 0x4fd175e66449b7a6),
    ("downsample_2", 0x2c28c1099fa26a6d),
    ("downsample_3", 0x4a71409e2ca6a003),
    ("downsample_7", 0xa0f22d22a2e33850),
    ("downsample_16", 0xd9d0f8fa36d909a8),
    ("ascii", 0x16decff42ac9b811),
    ("collection_digital", 0xf6849f560a9e18d3),
    ("collection_analog", 0xb52a1358d5eb30af),
    ("collection_architecture", 0xc2c32a4320f0f46c),
    ("collection_manufacture", 0x1899135be55f9bed),
    ("collection_physical", 0xf12b705ab2809954),
];

#[test]
fn primitive_goldens_are_frozen() {
    // fill_rect: interior, clipped on every edge, fully out of bounds,
    // zero/negative extents.
    let mut img = Pixmap::new(96, 64);
    img.fill_rect(5, 7, 20, 10, 0);
    img.fill_rect(-4, -4, 12, 12, 96);
    img.fill_rect(88, 58, 20, 20, 160);
    img.fill_rect(40, -3, 6, 10, 32);
    img.fill_rect(200, 200, 5, 5, 0);
    img.fill_rect(10, 40, 0, 5, 0);
    img.fill_rect(10, 44, -3, 5, 0);
    check("fill_rect", hash_pixmap(&img));

    // axis-aligned lines at strokes 1..4, both directions of travel,
    // clipped ends.
    let mut img = Pixmap::new(96, 64);
    for (i, stroke) in [1i64, 2, 3, 4].into_iter().enumerate() {
        let y = 6 + i as i64 * 7;
        img.draw_line(4, y, 80, y, stroke, 0);
        img.draw_line(80, y + 3, 4, y + 3, stroke, 64);
    }
    img.draw_line(50, -10, 50, 80, 2, 0);
    img.draw_line(90, 60, 90, 2, 3, 32);
    check("lines_axis", hash_pixmap(&img));

    // diagonal and steep lines, both octant families.
    let mut img = Pixmap::new(96, 64);
    img.draw_line(0, 0, 95, 63, 1, 0);
    img.draw_line(0, 63, 95, 0, 2, 0);
    img.draw_line(10, 2, 20, 60, 3, 64);
    img.draw_line(-8, 30, 120, 41, 2, 32);
    check("lines_diagonal", hash_pixmap(&img));

    let mut img = Pixmap::new(96, 32);
    img.draw_dashed_line(0, 8, 95, 8, 1, 0, 4, 4);
    img.draw_dashed_line(0, 16, 95, 20, 2, 0, 3, 5);
    img.draw_dashed_line(4, 28, 90, 28, 3, 64, 6, 2);
    check("dashed_line", hash_pixmap(&img));

    let mut img = Pixmap::new(96, 64);
    img.draw_rect(4, 4, 40, 24, 1, 0);
    img.draw_rect(30, 20, 60, 60, 2, 64);
    img.draw_rect(-5, -5, 20, 20, 3, 32);
    check("rect_outline", hash_pixmap(&img));

    let mut img = Pixmap::new(96, 64);
    img.draw_circle(48, 32, 20, 1, 0);
    img.draw_circle(20, 20, 7, 2, 64);
    img.draw_circle(90, 5, 12, 3, 32);
    img.draw_circle(48, 32, 0, 1, 0);
    check("circle_outline", hash_pixmap(&img));

    let mut img = Pixmap::new(96, 64);
    img.fill_circle(30, 30, 15, 0);
    img.fill_circle(70, 10, 6, 96);
    img.fill_circle(92, 60, 10, 32);
    img.fill_circle(5, 5, 0, 0);
    img.fill_circle(50, 50, 1, 0);
    check("fill_circle", hash_pixmap(&img));

    let mut img = Pixmap::new(96, 64);
    img.draw_polyline(&[(4, 4), (40, 10), (40, 50), (90, 55)], 2, 0);
    img.draw_arrow(10, 60, 80, 20, 1, 0);
    img.draw_arrow(90, 10, 20, 12, 2, 64);
    check("polyline_arrow", hash_pixmap(&img));

    let mut img = Pixmap::new(420, 96);
    img.draw_text(2, 2, "Q+ = S'Q + SR'", 1, 0);
    img.draw_text(2, 20, "VDD GND 0123456789", 2, 0);
    img.draw_text(-6, 56, "clip {me} @ edges!", 3, 32);
    check("text", hash_pixmap(&img));
}

/// A dense scene exercising every primitive at once — the downsample
/// and ASCII goldens hang off it.
fn composite_scene() -> Pixmap {
    let mut img = Pixmap::new(300, 200);
    img.draw_rect(10, 10, 120, 80, 2, 0);
    img.draw_text(20, 24, "GAIN = 42", 2, 0);
    img.draw_line(130, 50, 290, 50, 2, 0);
    img.draw_line(40, 90, 40, 190, 1, 0);
    img.draw_circle(220, 140, 36, 2, 0);
    img.fill_circle(220, 140, 8, 0);
    img.draw_dashed_line(0, 180, 299, 180, 1, 0, 5, 3);
    img.draw_arrow(10, 120, 150, 150, 2, 0);
    img.draw_polyline(&[(160, 20), (200, 40), (240, 15), (295, 60)], 1, 0);
    img.fill_rect(260, 160, 30, 30, 128);
    img
}

#[test]
fn composite_and_downsample_goldens_are_frozen() {
    let img = composite_scene();
    check("composite", hash_pixmap(&img));
    for factor in [2usize, 3, 7, 16] {
        check(
            &format!("downsample_{factor}"),
            hash_pixmap(&img.downsample(factor)),
        );
    }
    assert_eq!(
        img.downsample(1),
        img,
        "factor 1 must be the identity clone"
    );
    check("ascii", fnv1a(img.to_ascii(4).bytes()));
}

/// Freezes every substrate renderer end-to-end: the standard collection
/// is generated and each category's visuals (pixels, mark labels and
/// mark regions) are folded into one hash. Any renderer or mark-type
/// drift — schematic, table, waveform, layout, curve, flow — lands here.
#[test]
fn standard_collection_visuals_are_frozen() {
    let bench = chipvqa::core::ChipVqa::standard();
    for cat in chipvqa::core::question::Category::ALL {
        let mut bytes: Vec<u8> = Vec::new();
        for q in bench.iter().filter(|q| q.category == cat) {
            bytes.extend_from_slice(&hash_pixmap(&q.visual.image).to_le_bytes());
            for mark in &q.visual.marks {
                bytes.extend_from_slice(mark.label.as_bytes());
                for v in [mark.region.x, mark.region.y, mark.region.w, mark.region.h] {
                    bytes.extend_from_slice(&(v as u64).to_le_bytes());
                }
            }
            bytes.extend_from_slice(&(q.visual.image.ink_pixels() as u64).to_le_bytes());
        }
        let name = format!("collection_{}", format!("{cat:?}").to_lowercase());
        check(&name, fnv1a(bytes));
    }
}

// ---------------------------------------------------------------------------
// Scalar reference implementations: the pre-optimization per-pixel
// loops, rebuilt on top of nothing but `get`/`set` so they cannot share
// a fast path with the code under test.
// ---------------------------------------------------------------------------

fn ref_fill_rect(img: &mut Pixmap, x: i64, y: i64, w: i64, h: i64, shade: u8) {
    for yy in y..y + h {
        for xx in x..x + w {
            img.set(xx, yy, shade);
        }
    }
}

fn ref_stamp(img: &mut Pixmap, x: i64, y: i64, stroke: i64, shade: u8) {
    let s = stroke.max(1);
    let half = (s - 1) / 2;
    ref_fill_rect(img, x - half, y - half, s, s, shade);
}

fn ref_draw_line(img: &mut Pixmap, x0: i64, y0: i64, x1: i64, y1: i64, stroke: i64, shade: u8) {
    let dx = (x1 - x0).abs();
    let dy = -(y1 - y0).abs();
    let sx = if x0 < x1 { 1 } else { -1 };
    let sy = if y0 < y1 { 1 } else { -1 };
    let mut err = dx + dy;
    let (mut x, mut y) = (x0, y0);
    loop {
        ref_stamp(img, x, y, stroke, shade);
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

fn ref_draw_text(img: &mut Pixmap, x: i64, y: i64, text: &str, scale: i64, shade: u8) -> i64 {
    let scale = scale.max(1);
    let mut cursor = x;
    for ch in text.chars() {
        for (col, bits) in (0i64..).zip(font::glyph(ch)) {
            for row in 0..font::HEIGHT {
                if bits >> row & 1 == 1 {
                    ref_fill_rect(
                        img,
                        cursor + col * scale,
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

fn ref_fill_circle(img: &mut Pixmap, cx: i64, cy: i64, r: i64, shade: u8) {
    for yy in -r..=r {
        for xx in -r..=r {
            if xx * xx + yy * yy <= r * r {
                img.set(cx + xx, cy + yy, shade);
            }
        }
    }
}

fn ref_downsample(img: &Pixmap, factor: usize) -> Vec<u8> {
    let nw = img.width().div_ceil(factor);
    let nh = img.height().div_ceil(factor);
    let mut out = vec![WHITE; nw * nh];
    for by in 0..nh {
        for bx in 0..nw {
            let mut sum = 0u64;
            let mut count = 0u64;
            for yy in by * factor..((by + 1) * factor).min(img.height()) {
                for xx in bx * factor..((bx + 1) * factor).min(img.width()) {
                    sum += u64::from(img.pixels()[yy * img.width() + xx]);
                    count += 1;
                }
            }
            out[by * nw + bx] = (sum / count.max(1)) as u8;
        }
    }
    out
}

/// Ink pixels inside `region`, clipped to the image.
fn ref_ink(img: &Pixmap, region: Region) -> usize {
    let x2 = (region.x + region.w).min(img.width());
    let y2 = (region.y + region.h).min(img.height());
    let mut ink = 0usize;
    for y in region.y.min(y2)..y2 {
        for x in region.x.min(x2)..x2 {
            if img.pixels()[y * img.width() + x] < chipvqa::raster::INK_THRESHOLD {
                ink += 1;
            }
        }
    }
    ink
}

fn ref_ink_fraction(img: &Pixmap, region: Region) -> f64 {
    let x1 = region.x.min(img.width());
    let y1 = region.y.min(img.height());
    let x2 = (region.x + region.w).min(img.width());
    let y2 = (region.y + region.h).min(img.height());
    let area = (x2 - x1) * (y2 - y1);
    if area == 0 {
        return 0.0;
    }
    ref_ink(img, region) as f64 / area as f64
}

/// The route comparison as it was composed before it drew on one canvas:
/// two captioned `render_route_tree` panels, each with its bottom 32 rows
/// (the wirelength caption) set white, copied pixel by pixel side by
/// side, each panel's marks shifted by its column offset.
fn ref_route_comparison(left: &RouteTree, right: &RouteTree, pins: &[Point]) -> Annotated {
    let mut panels = [
        render_route_tree(left, pins, "topology A"),
        render_route_tree(right, pins, "topology B"),
    ];
    for vis in &mut panels {
        let (w, h) = (vis.image.width() as i64, vis.image.height() as i64);
        ref_fill_rect(&mut vis.image, 0, h - 32, w, 32, WHITE);
    }
    let w = panels[0].image.width() + panels[1].image.width();
    let h = panels[0].image.height().max(panels[1].image.height());
    let mut out = Annotated::new(Pixmap::new(w, h));
    let mut dx = 0;
    for vis in &panels {
        for y in 0..vis.image.height() {
            for x in 0..vis.image.width() {
                let shade = vis.image.pixels()[y * vis.image.width() + x];
                out.image.set((x + dx) as i64, y as i64, shade);
            }
        }
        for m in &vis.marks {
            let r = m.region;
            out.mark(m.label.clone(), Region::new(r.x + dx, r.y, r.w, r.h));
        }
        dx += vis.image.width();
    }
    out
}

/// Legibility by its definition: downsample the whole image, then count
/// ink over `region.scaled_down(factor)` of the result (clipped to it)
/// against ink over `region` of the original.
fn ref_legibility(img: &Pixmap, region: Region, factor: usize) -> f64 {
    if factor <= 1 {
        return 1.0;
    }
    let original = ref_ink(img, region);
    if original == 0 {
        return 1.0;
    }
    let small = img.downsample(factor);
    let retained = ref_ink(&small, region.scaled_down(factor)) * factor * factor;
    (retained as f64 / original as f64).min(1.0)
}

mod differential {
    use super::*;
    use chipvqa::physd::render::render_route_comparison;
    use chipvqa::physd::steiner::{rmst, rsmt, star_tree};
    use chipvqa::raster::legibility_after_downsample;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Printable ASCII (lowercase included) and one character the font
    /// does not cover, which draws as a blank.
    const TEXT_POOL: &str = " !\"#$%&'()*+,-./0123456789:;<=>?@ABCDEFGHIJKLMNOPQRSTUVWXYZ\
                             [\\]^_`abcdefghijklmnopqrstuvwxyz{|}~\u{e9}";

    /// `len` characters of [`TEXT_POOL`] from `start`, wrapping.
    fn pool_text(start: usize, len: usize) -> String {
        TEXT_POOL.chars().cycle().skip(start).take(len).collect()
    }

    /// One random drawing op, applied identically to both images.
    fn apply(op: u8, a: i64, b: i64, c: i64, d: i64, fast: &mut Pixmap, slow: &mut Pixmap) {
        match op {
            0 => {
                fast.fill_rect(a, b, c, d, 0);
                ref_fill_rect(slow, a, b, c, d, 0);
            }
            1 => {
                let stroke = 1 + (c.rem_euclid(4));
                fast.draw_line(a, b, c, d, stroke, 0);
                ref_draw_line(slow, a, b, c, d, stroke, 0);
            }
            2 => {
                // axis-aligned: the optimized code has dedicated fast paths
                fast.draw_line(a, b, c, b, 2, 32);
                ref_draw_line(slow, a, b, c, b, 2, 32);
            }
            3 => {
                fast.draw_line(a, b, a, d, 3, 32);
                ref_draw_line(slow, a, b, a, d, 3, 32);
            }
            4 => {
                let r = c.rem_euclid(24);
                fast.fill_circle(a, b, r, 0);
                ref_fill_circle(slow, a, b, r, 0);
            }
            _ => {
                // text at scales 1-4 from an origin that may clip it on
                // any edge of the 120x80 image
                let scale = 1 + c.rem_euclid(4);
                let text = pool_text(
                    d.rem_euclid(96) as usize,
                    1 + (c / 4).rem_euclid(16) as usize,
                );
                let width = fast.draw_text(a, b, &text, scale, 0);
                assert_eq!(
                    width,
                    ref_draw_text(slow, a, b, &text, scale, 0),
                    "{text:?}"
                );
            }
        }
    }

    /// `draw_text` == its per-bit reference for the whole pool at scales
    /// 1-4, from origins that clip it on the left, top, right and bottom
    /// edges, and that put it wholly outside the image.
    #[test]
    fn draw_text_matches_reference_clipped_on_every_edge() {
        let text = pool_text(0, TEXT_POOL.chars().count());
        for scale in 1..=4 {
            let (w, h) = (Pixmap::text_width(&text, scale), font::HEIGHT * scale);
            for x in [-w + 6, -3, 0, 50, 117, 200] {
                for y in [-h + 1, -3, 0, 40, 77, 200] {
                    let mut fast = Pixmap::new(120, 80);
                    let mut slow = Pixmap::new(120, 80);
                    let drawn = fast.draw_text(x, y, &text, scale, 32);
                    assert_eq!(drawn, ref_draw_text(&mut slow, x, y, &text, scale, 32));
                    assert_eq!(fast, slow, "scale {scale} at ({x}, {y})");
                }
            }
        }
    }

    /// The one-canvas `render_route_comparison` == the two-panel
    /// composition, pixels and marks, over 240 seeded sets of 1-6 pins
    /// on the 16x16 grid: random (repeats allowed), a horizontal line, a
    /// vertical line, and a set with one pin repeated; the right tree is
    /// a star or a spanning tree. Every set's largest-x pins lie on its
    /// bounding box's right edge; a horizontal line maps them to column
    /// 370, whose labels run past column 420, where the one-canvas
    /// renderer must clear them. The test counts those sets.
    #[test]
    fn route_comparison_matches_two_panel_reference() {
        let mut crossing = 0;
        for case in 0..240u64 {
            let mut rng = StdRng::seed_from_u64(case);
            let n = rng.gen_range(1..=6);
            let mut pins: Vec<Point> = (0..n)
                .map(|_| Point::new(rng.gen_range(0..16), rng.gen_range(0..16)))
                .collect();
            match case % 4 {
                1 => {
                    let y = pins[0].y;
                    pins.iter_mut().for_each(|p| p.y = y);
                }
                2 => {
                    let x = pins[0].x;
                    pins.iter_mut().for_each(|p| p.x = x);
                }
                3 => pins.push(pins[0]),
                _ => {}
            }
            let left = rsmt(&pins);
            let right = if case % 2 == 0 {
                star_tree(&pins)
            } else {
                rmst(&pins)
            };
            let fast = render_route_comparison(&left, &right, &pins);
            let slow = ref_route_comparison(&left, &right, &pins);
            // `assert!`, not `assert_eq!`: a failure names the first
            // differing pixel instead of printing 302,400 of them.
            assert!(
                fast.image == slow.image,
                "case {case}: pixels differ for {pins:?}, first at index {:?}",
                fast.image
                    .pixels()
                    .iter()
                    .zip(slow.image.pixels())
                    .position(|(a, b)| a != b)
            );
            assert_eq!(
                fast.marks, slow.marks,
                "case {case}: marks differ for {pins:?}"
            );
            // A left-panel pin mark starts 6 px left of its pin and the
            // label 8 px right of it; the label ends in ')', whose last
            // lit column is 5 px short of its advance at scale 2.
            crossing += usize::from(fast.marks.iter().any(|m| {
                let coords = m.label.strip_prefix("pin at ").unwrap_or("");
                m.region.x < 420
                    && !coords.is_empty()
                    && m.region.x as i64 + 14 + Pixmap::text_width(coords, 2) - 5 >= 420
            }));
        }
        assert!(
            crossing >= 40,
            "only {crossing} sets put a label across column 420"
        );
    }

    /// Legibility of every key mark of the standard collection at
    /// factors 2–32 == its definition, bit for bit: the regions and
    /// factors perception actually reads. Each reference call
    /// downsamples a whole image, so the questions are split over a few
    /// threads.
    #[test]
    fn standard_key_marks_match_reference() {
        let bench = chipvqa::core::ChipVqa::standard();
        let questions: Vec<_> = bench.iter().collect();
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get().min(4));
        std::thread::scope(|s| {
            for part in questions.chunks(questions.len().div_ceil(threads)) {
                s.spawn(move || {
                    for q in part {
                        let image = &q.visual.image;
                        for mark in q.key_marks.iter().filter_map(|&k| q.visual.marks.get(k)) {
                            for factor in 2..=32 {
                                let fast = legibility_after_downsample(image, mark.region, factor);
                                let slow = ref_legibility(image, mark.region, factor);
                                assert_eq!(
                                    fast.to_bits(),
                                    slow.to_bits(),
                                    "{} {:?} at factor {}: {} vs {}",
                                    q.id,
                                    mark.region,
                                    factor,
                                    fast,
                                    slow
                                );
                            }
                        }
                    }
                });
            }
        });
    }

    proptest! {
        /// Optimized primitives == scalar reference, pixel for pixel,
        /// under arbitrary (including out-of-range) op sequences.
        #[test]
        fn optimized_ops_match_scalar_reference(
            ops in proptest::collection::vec(
                (0u8..6, -40i64..160, -40i64..160, -40i64..160, -40i64..160),
                1..32,
            ),
        ) {
            let mut fast = Pixmap::new(120, 80);
            let mut slow = Pixmap::new(120, 80);
            for (op, a, b, c, d) in ops {
                apply(op, a, b, c, d, &mut fast, &mut slow);
            }
            prop_assert_eq!(fast.pixels(), slow.pixels());
        }

        /// Optimized downsample == scalar block-mean reference for every
        /// factor, including ragged edges, on images up to 600 px wide
        /// (rows longer than the 255-byte ink lanes) at factors up to 71.
        #[test]
        fn optimized_downsample_matches_reference(
            w in 1usize..600,
            h in 1usize..100,
            factor in 1usize..72,
            ops in proptest::collection::vec(
                (-20i64..620, -20i64..120, -20i64..620, -20i64..120),
                0..10,
            ),
        ) {
            let mut img = Pixmap::new(w, h);
            for (a, b, c, d) in ops {
                img.draw_line(a, b, c, d, 2, 0);
                img.fill_rect(c, d, a.rem_euclid(30), b.rem_euclid(30), 128);
            }
            let fast = img.downsample(factor);
            let slow = ref_downsample(&img, factor);
            prop_assert_eq!(fast.pixels(), &slow[..]);
            prop_assert_eq!(fast.width(), img.width().div_ceil(factor));
            prop_assert_eq!(fast.height(), img.height().div_ceil(factor));
        }

        /// Region-local legibility == whole-image downsample then ink
        /// count, bit for bit, for regions that are empty, ragged at the
        /// right or bottom edge, or partly or wholly outside the image,
        /// on images up to 600 px wide at factors up to 71.
        #[test]
        fn region_local_legibility_matches_reference(
            w in 1usize..600,
            h in 1usize..90,
            factor in 1usize..72,
            rx in 0usize..660,
            ry in 0usize..110,
            rw in 0usize..660,
            rh in 0usize..110,
            ops in proptest::collection::vec(
                (-20i64..620, -20i64..110, -20i64..620, -20i64..110, 1i64..4),
                0..10,
            ),
        ) {
            let mut img = Pixmap::new(w, h);
            for (a, b, c, d, stroke) in ops {
                img.draw_line(a, b, c, d, stroke, 0);
                // Beside white, 161 (2 of 4 pixels), 67 (1 of 4) and 114
                // (3 of 9) can make a block's mean exactly
                // INK_THRESHOLD, the boundary of its ink test.
                let shade = [96, 161, 67, 114][a.rem_euclid(4) as usize];
                img.fill_rect(c, d, a.rem_euclid(12), b.rem_euclid(12), shade);
            }
            let mut regions = vec![
                Region::new(rx, ry, rw, rh),
                Region::full(&img),
                Region::new(rx, ry, 0, rh),
                Region::new(w.saturating_sub(rw % w + 1), ry % h, rw, rh),
                Region::new(rx % w, h.saturating_sub(rh % h + 1), rw, rh),
                Region::new(w + rx, h + ry, rw, rh),
            ];
            regions.extend([1, factor, 2 * factor].map(|s| {
                Region::new(w.saturating_sub(s), h.saturating_sub(s), s + rw % 7, s + rh % 7)
            }));
            for region in regions {
                let fast = legibility_after_downsample(&img, region, factor);
                let slow = ref_legibility(&img, region, factor);
                prop_assert_eq!(
                    fast.to_bits(),
                    slow.to_bits(),
                    "{:?} at factor {}: {} vs {}", region, factor, fast, slow
                );
            }
        }

        /// Row-sliced ink scans == scalar reference (fraction and count),
        /// on rows up to 700 px wide with solid ink runs longer than the
        /// counter's 255-byte lanes.
        #[test]
        fn optimized_ink_scans_match_reference(
            w in 1usize..700,
            rx in 0usize..760,
            ry in 0usize..100,
            rw in 0usize..760,
            rh in 0usize..100,
            ops in proptest::collection::vec(
                (-20i64..720, -20i64..110, -20i64..720, -20i64..110),
                0..8,
            ),
        ) {
            let mut img = Pixmap::new(w, 96);
            for (a, b, c, d) in ops {
                img.draw_line(a, b, c, d, 3, 0);
                img.fill_rect(a.min(c), b, (a - c).abs(), d.rem_euclid(4), 0);
            }
            let region = Region::new(rx, ry, rw, rh);
            prop_assert_eq!(img.ink_fraction(region), ref_ink_fraction(&img, region));
            let scalar_count = img
                .pixels()
                .iter()
                .filter(|&&p| p < chipvqa::raster::INK_THRESHOLD)
                .count();
            prop_assert_eq!(img.ink_pixels(), scalar_count);
        }
    }
}
