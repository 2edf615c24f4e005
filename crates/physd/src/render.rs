//! Procedural drawings of physical-design visuals: annotated routing
//! topologies (the paper's example question), cell layouts and clock
//! trees.

use chipvqa_raster::{Annotated, Pixmap, Region, BLACK, GRAY, WHITE};

use crate::cts::ClockTree;
use crate::geom::{Point, Rect};
use crate::steiner::RouteTree;

const STROKE: i64 = 2;
const TEXT: i64 = 2;

fn scale_points(points: &[Point], w: usize, h: usize, margin: i64) -> impl Fn(Point) -> (i64, i64) {
    let bb = Rect::bounding(points).unwrap_or(Rect::new(0, 0, 1, 1));
    let sx = (w as i64 - 2 * margin) as f64 / bb.width().max(1) as f64;
    let sy = (h as i64 - 2 * margin) as f64 / bb.height().max(1) as f64;
    let s = sx.min(sy);
    move |p: Point| {
        (
            margin + ((p.x - bb.x1) as f64 * s) as i64,
            margin + ((p.y - bb.y1) as f64 * s) as i64,
        )
    }
}

/// Width and height of one routing panel; a comparison puts two side by
/// side on one canvas.
const PANEL_W: usize = 420;
const PANEL_H: usize = 360;

/// Renders a routing tree with every pin's coordinates annotated — the
/// exact visual style of the paper's "which routing topology has lower
/// cost?" question. Steiner points draw as hollow squares.
pub fn render_route_tree(tree: &RouteTree, pins: &[Point], title: &str) -> Annotated {
    let mut out = Annotated::new(Pixmap::new(PANEL_W, PANEL_H));
    if draw_route_panel(&mut out, 0, tree, pins, title) {
        out.image.draw_text(
            10,
            (PANEL_H - 26) as i64,
            &format!("total wirelength = {}", tree.cost()),
            TEXT,
            GRAY,
        );
    }
    out
}

/// Renders two routing alternatives side by side (the paper's two-diagram
/// comparison). The wirelength captions are deliberately *omitted* so the
/// reader must compute costs from the annotated coordinates.
pub fn render_route_comparison(left: &RouteTree, right: &RouteTree, pins: &[Point]) -> Annotated {
    let mut out = Annotated::new(Pixmap::new(2 * PANEL_W, PANEL_H));
    draw_route_panel(&mut out, 0, left, pins, "topology A");
    // Pin labels near the left panel's right edge run into the right
    // half; a panel of its own would have clipped them there.
    let (w, h) = (PANEL_W as i64, PANEL_H as i64);
    out.image.fill_rect(w, 0, w, h, WHITE);
    draw_route_panel(&mut out, PANEL_W, right, pins, "topology B");
    out
}

/// Draws one routing panel (title, rectilinear edges, annotated pins and
/// Steiner points, no caption) with its left edge at column `dx` of
/// `out`, marking each feature. Every tree point maps into columns
/// 50–370 and rows 50–270 of the panel, so nothing lands left of its
/// column 10 or in its bottom 40 rows. Returns `false`, drawing nothing,
/// when the tree and pins hold no point.
fn draw_route_panel(
    out: &mut Annotated,
    dx: usize,
    tree: &RouteTree,
    pins: &[Point],
    title: &str,
) -> bool {
    let mut all: Vec<Point> = pins.to_vec();
    all.extend(tree.steiner_points.iter().copied());
    for e in &tree.edges {
        all.push(e.a);
        all.push(e.b);
    }
    if all.is_empty() {
        return false;
    }
    let map = scale_points(&all, PANEL_W, PANEL_H - 40, 50);
    let ox = dx as i64;
    out.image.draw_text(ox + 10, 10, title, TEXT, BLACK);
    out.mark(format!("title {title}"), Region::new(dx + 8, 6, 200, 22));

    for e in &tree.edges {
        let (x0, y0) = map(e.a);
        let (x1, y1) = map(e.b);
        // rectilinear elbow: horizontal then vertical
        out.image.draw_polyline(
            &[(ox + x0, y0), (ox + x1, y0), (ox + x1, y1)],
            STROKE,
            BLACK,
        );
    }
    for &p in pins {
        let (x, y) = map(p);
        out.image.fill_circle(ox + x, y, 5, BLACK);
        let label = format!("({},{})", p.x, p.y);
        out.image.draw_text(ox + x + 8, y - 16, &label, TEXT, BLACK);
        out.mark(
            format!("pin at {label}"),
            Region::new(
                dx + (x - 6).max(0) as usize,
                (y - 18).max(0) as usize,
                90,
                32,
            ),
        );
    }
    for &sp in &tree.steiner_points {
        let (x, y) = map(sp);
        out.image
            .draw_rect(ox + x - 5, y - 5, 10, 10, STROKE, BLACK);
        out.mark(
            format!("steiner point at ({},{})", sp.x, sp.y),
            Region::new(
                dx + (x - 7).max(0) as usize,
                (y - 7).max(0) as usize,
                14,
                14,
            ),
        );
    }
    true
}

/// Renders a standard-cell layout (rows of labelled rectangles).
pub fn render_cell_layout(cells: &[(String, Rect)]) -> Annotated {
    let all: Vec<Point> = cells
        .iter()
        .flat_map(|(_, r)| [Point::new(r.x1, r.y1), Point::new(r.x2, r.y2)])
        .collect();
    let (w, h) = (460usize, 300usize);
    let mut img = Pixmap::new(w, h);
    let mut marks = Vec::new();
    if all.is_empty() {
        return Annotated::new(img);
    }
    let map = scale_points(&all, w, h, 30);
    for (name, r) in cells {
        let (x0, y0) = map(Point::new(r.x1, r.y1));
        let (x1, y1) = map(Point::new(r.x2, r.y2));
        img.draw_rect(x0, y0, (x1 - x0).max(8), (y1 - y0).max(8), STROKE, BLACK);
        img.draw_text(x0 + 4, y0 + 4, name, TEXT, BLACK);
        marks.push((
            format!("cell {name}"),
            Region::new(
                x0 as usize,
                y0 as usize,
                (x1 - x0).max(8) as usize,
                (y1 - y0).max(8) as usize,
            ),
        ));
    }
    let mut out = Annotated::new(img);
    for (label, region) in marks {
        out.mark(label, region);
    }
    out
}

/// Renders a clock tree (segments plus sink dots; source as a filled
/// square).
pub fn render_clock_tree(tree: &ClockTree) -> Annotated {
    let mut all: Vec<Point> = vec![tree.source];
    for &(a, b) in &tree.segments {
        all.push(a);
        all.push(b);
    }
    for &(s, _) in &tree.sinks {
        all.push(s);
    }
    let (w, h) = (420usize, 380usize);
    let mut img = Pixmap::new(w, h);
    let mut marks = Vec::new();
    let map = scale_points(&all, w, h, 40);
    for &(a, b) in &tree.segments {
        let (x0, y0) = map(a);
        let (x1, y1) = map(b);
        img.draw_line(x0, y0, x1, y1, STROKE, BLACK);
    }
    let (sx, sy) = map(tree.source);
    img.fill_rect(sx - 6, sy - 6, 12, 12, BLACK);
    marks.push((
        "clock source driver".to_string(),
        Region::new((sx - 8).max(0) as usize, (sy - 8).max(0) as usize, 16, 16),
    ));
    for (i, &(s, len)) in tree.sinks.iter().enumerate() {
        let (x, y) = map(s);
        img.fill_circle(x, y, 4, BLACK);
        if i < 6 {
            marks.push((
                format!("sink {i} path length {len}"),
                Region::new((x - 6).max(0) as usize, (y - 6).max(0) as usize, 12, 12),
            ));
        }
    }
    let mut out = Annotated::new(img);
    for (label, region) in marks {
        out.mark(label, region);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cts::h_tree;
    use crate::steiner::{rsmt, star_tree};

    fn pins() -> Vec<Point> {
        vec![Point::new(0, 0), Point::new(10, 0), Point::new(5, 8)]
    }

    #[test]
    fn route_tree_marks_every_pin() {
        let tree = rsmt(&pins());
        let vis = render_route_tree(&tree, &pins(), "RSMT");
        assert!(vis.marks.iter().any(|m| m.label.contains("(5,8)")));
        assert!(vis.marks.iter().any(|m| m.label.contains("steiner point")));
        assert!(vis.image.ink_pixels() > 100);
    }

    #[test]
    fn comparison_carries_both_titles() {
        let a = rsmt(&pins());
        let b = star_tree(&pins());
        let vis = render_route_comparison(&a, &b, &pins());
        assert!(vis.marks.iter().any(|m| m.label.contains("topology A")));
        assert!(vis.marks.iter().any(|m| m.label.contains("topology B")));
    }

    #[test]
    fn layout_renders_cells() {
        let cells = vec![
            ("INV1".to_string(), Rect::new(0, 0, 10, 8)),
            ("NAND2".to_string(), Rect::new(12, 0, 26, 8)),
        ];
        let vis = render_cell_layout(&cells);
        assert_eq!(vis.marks.len(), 2);
    }

    #[test]
    fn clock_tree_renders_with_source_mark() {
        let tree = h_tree(Point::new(0, 0), 64, 2);
        let vis = render_clock_tree(&tree);
        assert!(vis.marks.iter().any(|m| m.label.contains("source")));
        assert!(vis.image.ink_pixels() > 200);
    }

    #[test]
    fn empty_tree_renders_blank() {
        let empty = RouteTree {
            edges: vec![],
            steiner_points: vec![],
        };
        let vis = render_route_tree(&empty, &[], "empty");
        assert_eq!(vis.marks.len(), 0);
    }
}
