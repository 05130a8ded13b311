//! Coverage kernels: which pixels does a primitive touch?
//!
//! Three rasterizers mirror the fixed-function stages the paper's
//! prototype relies on:
//!
//! * **points** — a point lands in exactly one pixel,
//! * **lines** — *supercover* traversal emits every pixel the segment
//!   touches; this is the "conservative rasterization" OpenGL extension
//!   the paper uses to tag boundary pixels without loss of accuracy,
//! * **polygon scanline fill** — even–odd fill across all rings at pixel
//!   centers, the software analogue of stencil-based polygon filling and
//!   of the paper's "draw outer ring, negate hole pixels" strategy.
//!
//! All kernels emit `(x, y)` pixel coordinates through a callback so the
//! pipeline can fuse shading/blending without intermediate buffers.

use crate::viewport::Viewport;
use canvas_geom::polygon::Polygon;
use canvas_geom::{Point, Ring};

/// Rasterizes a point; emits at most one pixel.
#[inline]
pub fn rasterize_point(vp: &Viewport, p: Point, mut emit: impl FnMut(u32, u32)) {
    if let Some((x, y)) = vp.world_to_pixel(p) {
        emit(x, y);
    }
}

/// Supercover line rasterization: emits every pixel whose square the
/// world-space segment `a..b` passes through (conservative, no gaps,
/// no diagonal skips). A segment with a non-finite end passes through
/// no pixel: it emits nothing, so its pixels cannot depend on which
/// clip rect or tile asks for them.
pub fn rasterize_line_supercover(
    vp: &Viewport,
    a: Point,
    b: Point,
    mut emit: impl FnMut(u32, u32),
) {
    if ![a.x, a.y, b.x, b.y].iter().all(|v| v.is_finite()) {
        return;
    }
    // Work in continuous pixel space.
    let pa = vp.world_to_pixel_f(a);
    let pb = vp.world_to_pixel_f(b);
    let w = vp.width() as f64;
    let h = vp.height() as f64;

    // Liang–Barsky clip of the parametric segment to the pixel rect.
    let (mut t0, mut t1) = (0.0f64, 1.0f64);
    let d = pb - pa;
    let clips = [
        (-d.x, pa.x),    // x >= 0
        (d.x, w - pa.x), // x <= w
        (-d.y, pa.y),    // y >= 0
        (d.y, h - pa.y), // y <= h
    ];
    for (den, num) in clips {
        if den == 0.0 {
            if num < 0.0 {
                return; // parallel and outside
            }
        } else {
            let t = num / den;
            if den < 0.0 {
                t0 = t0.max(t);
            } else {
                t1 = t1.min(t);
            }
            if t0 > t1 {
                return;
            }
        }
    }
    let p0 = pa.lerp(pb, t0);
    let p1 = pa.lerp(pb, t1);

    // Amanatides–Woo grid traversal from the cell of p0 to the cell of p1.
    let clamp_cell = |v: f64, hi: u32| -> i64 { (v.floor() as i64).clamp(0, hi as i64 - 1) };
    let mut cx = clamp_cell(p0.x, vp.width());
    let mut cy = clamp_cell(p0.y, vp.height());
    let ex = clamp_cell(p1.x, vp.width());
    let ey = clamp_cell(p1.y, vp.height());

    let dir = p1 - p0;
    let step_x: i64 = if dir.x > 0.0 { 1 } else { -1 };
    let step_y: i64 = if dir.y > 0.0 { 1 } else { -1 };

    // Parametric distance to the next vertical / horizontal cell border.
    let mut t_max_x = if dir.x != 0.0 {
        let next = if step_x > 0 {
            cx as f64 + 1.0
        } else {
            cx as f64
        };
        (next - p0.x) / dir.x
    } else {
        f64::INFINITY
    };
    let mut t_max_y = if dir.y != 0.0 {
        let next = if step_y > 0 {
            cy as f64 + 1.0
        } else {
            cy as f64
        };
        (next - p0.y) / dir.y
    } else {
        f64::INFINITY
    };
    let t_delta_x = if dir.x != 0.0 {
        (1.0 / dir.x).abs()
    } else {
        f64::INFINITY
    };
    let t_delta_y = if dir.y != 0.0 {
        (1.0 / dir.y).abs()
    } else {
        f64::INFINITY
    };

    let max_steps = (vp.width() as i64 + vp.height() as i64) * 2 + 4;
    let mut steps = 0i64;
    loop {
        emit(cx as u32, cy as u32);
        if cx == ex && cy == ey {
            break;
        }
        if t_max_x < t_max_y {
            t_max_x += t_delta_x;
            cx += step_x;
        } else {
            t_max_y += t_delta_y;
            cy += step_y;
        }
        if cx < 0 || cy < 0 || cx >= vp.width() as i64 || cy >= vp.height() as i64 {
            break;
        }
        steps += 1;
        if steps > max_steps {
            debug_assert!(false, "supercover traversal did not terminate");
            break;
        }
    }
}

/// Scanline even–odd fill of a polygon (outer ring + holes) at pixel
/// centers. Emits each covered pixel exactly once.
pub fn rasterize_polygon_fill(vp: &Viewport, poly: &Polygon, emit: impl FnMut(u32, u32)) {
    rasterize_polygon_fill_rect(vp, poly, 0, 0, vp.width() - 1, vp.height() - 1, emit);
}

/// [`rasterize_polygon_fill`] restricted to the inclusive pixel rect
/// `(rx0, ry0)..=(rx1, ry1)` — the tile-local fill of the tiled
/// pipeline. Emits exactly the pixels the unrestricted fill would emit
/// inside the rect: scanlines outside are skipped and spans are clamped
/// to the rect's columns in integer pixel space, so tiling introduces no
/// floating-point divergence at tile borders.
pub fn rasterize_polygon_fill_rect(
    vp: &Viewport,
    poly: &Polygon,
    rx0: u32,
    ry0: u32,
    rx1: u32,
    ry1: u32,
    mut emit: impl FnMut(u32, u32),
) {
    rasterize_polygon_fill_rect_spans(vp, poly, rx0, ry0, rx1, ry1, |py, first, last| {
        for px in first..=last {
            emit(px, py);
        }
    });
}

/// Span form of [`rasterize_polygon_fill_rect`]: emits each covered
/// scanline run as `(py, first_px, last_px)` (inclusive, already
/// clamped to the rect) instead of per-pixel callbacks. The tiled fill
/// path consumes spans so the stamp/cover updates can run as SIMD row
/// kernels; the per-pixel form above is a thin wrapper, so both emit
/// exactly the same pixel set in the same order.
pub fn rasterize_polygon_fill_rect_spans(
    vp: &Viewport,
    poly: &Polygon,
    rx0: u32,
    ry0: u32,
    rx1: u32,
    ry1: u32,
    mut emit_span: impl FnMut(u32, u32, u32),
) {
    let Some((_, by0, _, by1)) = vp.pixel_range(&poly.bbox()) else {
        return;
    };
    let y0 = by0.max(ry0);
    let y1 = by1.min(ry1);
    if y0 > y1 {
        return;
    }
    let rings: Vec<&Ring> = std::iter::once(poly.outer())
        .chain(poly.holes().iter())
        .collect();
    let mut crossings: Vec<f64> = Vec::with_capacity(16);
    for py in y0..=y1 {
        let yc = vp.pixel_center(0, py).y;
        crossings.clear();
        for ring in &rings {
            let verts = ring.vertices();
            let n = verts.len();
            let mut j = n - 1;
            for i in 0..n {
                let a = verts[j];
                let b = verts[i];
                // Half-open rule avoids double counting shared vertices.
                if (b.y > yc) != (a.y > yc) {
                    let t = (yc - b.y) / (a.y - b.y);
                    crossings.push(b.x + t * (a.x - b.x));
                }
                j = i;
            }
        }
        crossings.sort_by(|p, q| p.partial_cmp(q).unwrap_or(std::cmp::Ordering::Equal));
        let pw = vp.pixel_width();
        let wx0 = vp.world().min.x;
        for pair in crossings.chunks_exact(2) {
            let (xa, xb) = (pair[0], pair[1]);
            // Pixels whose center x lies in (xa, xb), clamped to the rect.
            let first = (((xa - wx0) / pw - 0.5).floor() as i64 + 1).max(rx0 as i64);
            let last = (((xb - wx0) / pw - 0.5).ceil() as i64 - 1)
                .min(vp.width() as i64 - 1)
                .min(rx1 as i64);
            if first <= last {
                emit_span(py, first as u32, last as u32);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use canvas_geom::BBox;
    use std::collections::BTreeSet;

    fn vp10() -> Viewport {
        Viewport::new(
            BBox::new(Point::new(0.0, 0.0), Point::new(10.0, 10.0)),
            10,
            10,
        )
    }

    fn collect_line(vp: &Viewport, a: Point, b: Point) -> BTreeSet<(u32, u32)> {
        let mut out = BTreeSet::new();
        rasterize_line_supercover(vp, a, b, |x, y| {
            out.insert((x, y));
        });
        out
    }

    #[test]
    fn point_rasterization() {
        let vp = vp10();
        let mut hits = Vec::new();
        rasterize_point(&vp, Point::new(3.5, 7.5), |x, y| hits.push((x, y)));
        assert_eq!(hits, vec![(3, 7)]);
        hits.clear();
        rasterize_point(&vp, Point::new(-1.0, 0.0), |x, y| hits.push((x, y)));
        assert!(hits.is_empty());
    }

    #[test]
    fn horizontal_line() {
        let vp = vp10();
        let px = collect_line(&vp, Point::new(0.5, 2.5), Point::new(8.5, 2.5));
        assert_eq!(px.len(), 9);
        assert!(px.iter().all(|&(_, y)| y == 2));
    }

    #[test]
    fn vertical_line() {
        let vp = vp10();
        let px = collect_line(&vp, Point::new(4.5, 1.5), Point::new(4.5, 9.5));
        assert_eq!(px.len(), 9);
        assert!(px.iter().all(|&(x, _)| x == 4));
    }

    #[test]
    fn diagonal_supercover_has_no_gaps() {
        let vp = vp10();
        let px = collect_line(&vp, Point::new(0.2, 0.7), Point::new(9.8, 9.1));
        // 4-connectivity: consecutive cells along the traversal differ in
        // exactly one coordinate by one — supercover guarantees this.
        let cells: Vec<(u32, u32)> = {
            let mut v = Vec::new();
            rasterize_line_supercover(&vp, Point::new(0.2, 0.7), Point::new(9.8, 9.1), |x, y| {
                v.push((x, y))
            });
            v
        };
        for w in cells.windows(2) {
            let dx = w[0].0.abs_diff(w[1].0);
            let dy = w[0].1.abs_diff(w[1].1);
            assert_eq!(dx + dy, 1, "gap between {:?} and {:?}", w[0], w[1]);
        }
        assert!(px.contains(&(0, 0)));
        assert!(px.contains(&(9, 9)));
    }

    #[test]
    fn line_fully_outside() {
        let vp = vp10();
        let px = collect_line(&vp, Point::new(20.0, 20.0), Point::new(30.0, 25.0));
        assert!(px.is_empty());
    }

    #[test]
    fn line_clipped_at_viewport() {
        let vp = vp10();
        let px = collect_line(&vp, Point::new(-5.0, 5.5), Point::new(5.5, 5.5));
        assert!(px.contains(&(0, 5)));
        assert!(px.contains(&(5, 5)));
        assert!(px.iter().all(|&(x, _)| x <= 5));
    }

    #[test]
    fn line_touching_every_crossed_cell() {
        let vp = vp10();
        // A shallow diagonal crosses both cells in each column it spans.
        let cells = collect_line(&vp, Point::new(0.1, 0.9), Point::new(3.9, 1.1));
        assert!(cells.contains(&(0, 0)));
        assert!(cells.contains(&(3, 1)));
        // The segment's world trace passes through each claimed cell.
        for &(x, y) in &cells {
            assert!(x < 4 && y < 2, "unexpected cell ({x},{y})");
        }
    }

    #[test]
    fn polygon_fill_square() {
        let vp = vp10();
        let sq = Polygon::simple(vec![
            Point::new(2.0, 2.0),
            Point::new(7.0, 2.0),
            Point::new(7.0, 7.0),
            Point::new(2.0, 7.0),
        ])
        .unwrap();
        let mut got = BTreeSet::new();
        rasterize_polygon_fill(&vp, &sq, |x, y| {
            got.insert((x, y));
        });
        // Centers strictly inside: x,y in {2..6} → 25 pixels.
        assert_eq!(got.len(), 25);
        assert!(got.contains(&(2, 2)));
        assert!(got.contains(&(6, 6)));
        assert!(!got.contains(&(7, 7)));
    }

    #[test]
    fn polygon_fill_matches_exact_pip_at_centers() {
        let vp = vp10();
        let poly = Polygon::simple(vec![
            Point::new(1.0, 1.0),
            Point::new(9.0, 2.0),
            Point::new(7.5, 8.5),
            Point::new(3.0, 6.0),
        ])
        .unwrap();
        let mut got = BTreeSet::new();
        rasterize_polygon_fill(&vp, &poly, |x, y| {
            got.insert((x, y));
        });
        for y in 0..10 {
            for x in 0..10 {
                let inside = matches!(
                    poly.contains(vp.pixel_center(x, y)),
                    canvas_geom::Containment::Inside
                );
                assert_eq!(
                    got.contains(&(x, y)),
                    inside,
                    "fill disagrees with PIP at ({x},{y})"
                );
            }
        }
    }

    #[test]
    fn polygon_fill_with_hole() {
        let vp = vp10();
        let outer = Ring::new(vec![
            Point::new(1.0, 1.0),
            Point::new(9.0, 1.0),
            Point::new(9.0, 9.0),
            Point::new(1.0, 9.0),
        ])
        .unwrap();
        let hole = Ring::new(vec![
            Point::new(4.0, 4.0),
            Point::new(6.0, 4.0),
            Point::new(6.0, 6.0),
            Point::new(4.0, 6.0),
        ])
        .unwrap();
        let donut = Polygon::new(outer, vec![hole]);
        let mut got = BTreeSet::new();
        rasterize_polygon_fill(&vp, &donut, |x, y| {
            got.insert((x, y));
        });
        assert!(got.contains(&(2, 2)));
        assert!(!got.contains(&(4, 4))); // hole pixel (center 4.5,4.5)
        assert!(!got.contains(&(5, 5)));
        assert!(got.contains(&(7, 5)));
    }

    #[test]
    fn rect_fill_equals_full_fill_intersection() {
        let vp = vp10();
        let poly = Polygon::simple(vec![
            Point::new(1.0, 1.0),
            Point::new(9.0, 2.0),
            Point::new(7.5, 8.5),
            Point::new(3.0, 6.0),
        ])
        .unwrap();
        let mut full = BTreeSet::new();
        rasterize_polygon_fill(&vp, &poly, |x, y| {
            full.insert((x, y));
        });
        // Quarter tiles: the union of rect-restricted fills must equal
        // the full fill, with no pixel emitted by two rects.
        let mut union = BTreeSet::new();
        for (rx0, ry0, rx1, ry1) in [(0, 0, 4, 4), (5, 0, 9, 4), (0, 5, 4, 9), (5, 5, 9, 9)] {
            rasterize_polygon_fill_rect(&vp, &poly, rx0, ry0, rx1, ry1, |x, y| {
                assert!(x >= rx0 && x <= rx1 && y >= ry0 && y <= ry1);
                assert!(union.insert((x, y)), "pixel ({x},{y}) emitted twice");
            });
        }
        assert_eq!(full, union);
    }

    #[test]
    fn polygon_outside_viewport() {
        let vp = vp10();
        let far = Polygon::simple(vec![
            Point::new(20.0, 20.0),
            Point::new(30.0, 20.0),
            Point::new(25.0, 30.0),
        ])
        .unwrap();
        let mut hits = 0;
        rasterize_polygon_fill(&vp, &far, |_, _| hits += 1);
        assert_eq!(hits, 0);
    }
}
