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
//!    bit for bit.

use chipvqa::raster::{Pixmap, Region, WHITE};

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
    use chipvqa::raster::legibility_after_downsample;
    use proptest::prelude::*;

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
            _ => {
                let r = c.rem_euclid(24);
                fast.fill_circle(a, b, r, 0);
                ref_fill_circle(slow, a, b, r, 0);
            }
        }
    }

    proptest! {
        /// Optimized primitives == scalar reference, pixel for pixel,
        /// under arbitrary (including out-of-range) op sequences.
        #[test]
        fn optimized_ops_match_scalar_reference(
            ops in proptest::collection::vec(
                (0u8..5, -40i64..160, -40i64..160, -40i64..160, -40i64..160),
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
        /// factor, including ragged edges.
        #[test]
        fn optimized_downsample_matches_reference(
            w in 1usize..90,
            h in 1usize..70,
            factor in 1usize..20,
            ops in proptest::collection::vec(
                (-20i64..100, -20i64..100, -20i64..100, -20i64..100),
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
        /// right or bottom edge, or partly or wholly outside the image.
        #[test]
        fn region_local_legibility_matches_reference(
            w in 1usize..90,
            h in 1usize..70,
            factor in 1usize..20,
            rx in 0usize..110,
            ry in 0usize..90,
            rw in 0usize..110,
            rh in 0usize..90,
            ops in proptest::collection::vec(
                (-20i64..100, -20i64..100, -20i64..100, -20i64..100, 1i64..4),
                0..10,
            ),
        ) {
            let mut img = Pixmap::new(w, h);
            for (a, b, c, d, stroke) in ops {
                img.draw_line(a, b, c, d, stroke, 0);
                img.fill_rect(c, d, a.rem_euclid(12), b.rem_euclid(12), 96);
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

        /// Row-sliced ink scans == scalar reference (fraction and count).
        #[test]
        fn optimized_ink_scans_match_reference(
            rx in 0usize..140,
            ry in 0usize..100,
            rw in 0usize..140,
            rh in 0usize..100,
            ops in proptest::collection::vec(
                (-20i64..150, -20i64..110, -20i64..150, -20i64..110),
                0..8,
            ),
        ) {
            let mut img = Pixmap::new(128, 96);
            for (a, b, c, d) in ops {
                img.draw_line(a, b, c, d, 3, 0);
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
