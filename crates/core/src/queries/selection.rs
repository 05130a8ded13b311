//! Selection queries (paper Sections 4.1 and 5.1).
//!
//! All variants share the same two operators — Blend then Mask — which is
//! the paper's headline reuse argument: the *same* implementation handles
//! points or polygons as data, single or multiple constraint polygons,
//! and rectangle / half-space / distance constraints (which reduce to
//! polygonal constraints through the utility operators).
//!
//! The `select_*` functions return the result canvas with the records.
//! Queries that go on to read only the surviving point entries take
//! [`selected_points`] instead: the same entries, read from `C_P` and
//! `C_Q` by the mask's entry form
//! ([`point_entries_in_areas`]), with no blend or mask canvas drawn.

use std::sync::Arc;

use crate::algebra::subplan::{acquire_or_render, SubplanCache};
use crate::algebra::{fingerprint, Expr};
use crate::boundary::PointEntry;
use crate::canvas::{AreaSource, Canvas, PointBatch};
use crate::device::Device;
use crate::info::BlendFn;
use crate::ops::mask::point_entries_in_areas;
use crate::ops::{CountCond, MaskSpec};
use crate::source::{render_points, render_query_polygon};
use canvas_geom::polygon::Polygon;
use canvas_geom::Point;
use canvas_raster::Viewport;

/// Result of a point-selection query: matching record ids plus the
/// result canvas (`C_result` — still a first-class algebra value).
#[derive(Debug)]
pub struct PointSelection {
    pub records: Vec<u32>,
    pub canvas: Canvas,
}

/// How multiple polygonal constraints combine (Section 5.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MultiPolygon {
    /// Inside at least one constraint polygon (`Mp'`: count ≥ 1).
    Disjunction,
    /// Inside every constraint polygon (count = n).
    Conjunction,
}

/// Builds the Figure 5 plan:
/// `C_result ← M[Mp'](B[⊙](C_P, C_Q))`.
pub fn points_in_polygon_plan(data: Arc<PointBatch>, q: Polygon) -> Expr {
    Expr::mask(
        MaskSpec::PointInAreas(CountCond::Ge(1)),
        points_over_polygon_plan(data, q),
    )
}

/// The blend under the Figure 5 mask, `B[⊙](C_P, C_Q)`: the points
/// blended over the query polygon. Its fingerprint is the key under
/// which a selection publishes this canvas and the selection heatmap
/// looks it up.
pub fn points_over_polygon_plan(data: Arc<PointBatch>, q: Polygon) -> Expr {
    Expr::blend(
        BlendFn::PointOverArea,
        Expr::points(data),
        Expr::query_polygon(q, 1),
    )
}

/// Builds the Figure 8(b) multi-constraint plan:
/// `C_result ← M[Mp'](B[⊙](C_P, B*[⊕](C_Q…)))`.
pub fn points_in_polygons_plan(data: Arc<PointBatch>, qs: &[Polygon], mode: MultiPolygon) -> Expr {
    let cond = match mode {
        MultiPolygon::Disjunction => CountCond::Ge(1),
        MultiPolygon::Conjunction => CountCond::Eq(qs.len() as u32),
    };
    let table: AreaSource = Arc::new(qs.to_vec());
    let constraint = Expr::multi_blend(
        BlendFn::AreaCount,
        (0..qs.len())
            .map(|i| Expr::polygon_record(table.clone(), i, i as u32))
            .collect(),
    );
    Expr::mask(
        MaskSpec::PointInAreas(cond),
        Expr::blend(BlendFn::PointOverArea, Expr::points(data), constraint),
    )
}

/// `SELECT * FROM D_P WHERE Location INSIDE Q` (polygonal selection of
/// points, Section 4.1; exact via boundary refinement). The operator
/// calls [`points_in_polygon_plan`] evaluates to, made directly, so a
/// borrowed batch is never copied into a plan leaf.
pub fn select_points_in_polygon(
    dev: &mut Device,
    vp: Viewport,
    data: &PointBatch,
    q: &Polygon,
) -> PointSelection {
    let cp = render_points(dev, vp, data);
    let cq = render_query_polygon(dev, vp, q.clone(), 1);
    let merged = crate::ops::blend(dev, &cp, &cq, BlendFn::PointOverArea);
    let canvas = crate::ops::mask(dev, &merged, &MaskSpec::PointInAreas(CountCond::Ge(1)));
    PointSelection {
        records: canvas.point_records(),
        canvas,
    }
}

/// The point entries of an already rendered `C_P` that lie in `q`: the
/// entries `M[Mp'](B[⊙](C_P, C_Q))` keeps, in the same order, read by
/// [`point_entries_in_areas`] from `C_Q` alone. Only `C_Q` is drawn, no
/// result canvas is built, and one `C_P` serves any number of
/// constraint polygons. This is the selection of every query that reads
/// only the surviving points (OD, kNN, time windows, hull, skyline).
pub fn selected_points(dev: &mut Device, cp: &Canvas, q: &Polygon) -> Vec<PointEntry> {
    let cq = render_query_polygon(dev, *cp.viewport(), q.clone(), 1);
    point_entries_in_areas(cp, &cq, CountCond::Ge(1))
}

/// `C_P` of a shared dataset handle, taken from (or published to)
/// `cache` under the fingerprint of the plan leaf `Expr::points(data)`:
/// the `C_P` every plan over the same handle evaluates (a zone
/// aggregate, a `SelectPoints`), so they all draw the points once per
/// viewport. Fingerprints identify datasets by `Arc` address, so this
/// only pays off when callers pass the *same* handle.
pub fn shared_points_canvas(
    dev: &mut Device,
    vp: Viewport,
    data: &Arc<PointBatch>,
    cache: Option<&dyn SubplanCache>,
) -> Arc<Canvas> {
    let fp = fingerprint(&Expr::points(data.clone()));
    acquire_or_render(cache, fp, &vp, || render_points(dev, vp, data))
}

/// Selection with multiple polygonal constraints (Section 5.1): the only
/// extra work over the single-polygon case is blending the constraint
/// polygons — the paper's key performance claim for Figure 9(c,d).
pub fn select_points_multi(
    dev: &mut Device,
    vp: Viewport,
    data: &PointBatch,
    qs: &[Polygon],
    mode: MultiPolygon,
) -> PointSelection {
    let plan = points_in_polygons_plan(Arc::new(data.clone()), qs, mode);
    let plan = crate::algebra::optimize(plan);
    let canvas = plan.eval(dev, vp);
    PointSelection {
        records: canvas.point_records(),
        canvas,
    }
}

/// Rectangular range selection (Section 4.1, case 1): the constraint is
/// the `Rect` utility canvas.
pub fn select_points_in_rect(
    dev: &mut Device,
    vp: Viewport,
    data: &PointBatch,
    l1: Point,
    l2: Point,
) -> PointSelection {
    let b = canvas_geom::BBox::from_corners(l1, l2);
    select_points_in_polygon(dev, vp, data, &Polygon::rect(&b))
}

/// One-sided range selection `ax + by + c < 0` (Section 4.1, case 2):
/// the constraint is the `HS` utility canvas (viewport-clipped).
pub fn select_points_in_halfspace(
    dev: &mut Device,
    vp: Viewport,
    data: &PointBatch,
    a: f64,
    b: f64,
    c: f64,
) -> PointSelection {
    let extent_ring = vp.world().corners().to_vec();
    let clipped = canvas_geom::clip::clip_ring_halfplane(&extent_ring, a, b, c);
    match Polygon::simple(clipped) {
        Ok(poly) => select_points_in_polygon(dev, vp, data, &poly),
        Err(_) => nothing_selected(vp),
    }
}

/// The empty selection over `vp`.
fn nothing_selected(vp: Viewport) -> PointSelection {
    PointSelection {
        records: Vec::new(),
        canvas: Canvas::empty(vp),
    }
}

/// Distance-based selection (Section 4.1, case 3): the constraint is the
/// `Circ` utility canvas. Boundary refinement tests the tessellated
/// circle polygon; [`select_points_within_distance_exact`] additionally
/// re-checks the true metric ball so tessellation never leaks error.
/// A distance that is not positive (negative, zero or NaN) bounds no
/// area, so it selects nothing.
pub fn select_points_within_distance(
    dev: &mut Device,
    vp: Viewport,
    data: &PointBatch,
    center: Point,
    d: f64,
) -> PointSelection {
    if d.is_nan() || d <= 0.0 {
        return nothing_selected(vp);
    }
    let circle = Polygon::circle(center, d, crate::ops::utility::CIRCLE_SEGMENTS);
    select_points_in_polygon(dev, vp, data, &circle)
}

/// Distance selection with a final exact metric filter (cheap: only the
/// already-selected candidates plus near-boundary points are checked).
/// A negative or NaN distance selects nothing, and so does a centre
/// that is not finite; distance zero selects the records exactly at
/// `center`.
pub fn select_points_within_distance_exact(
    dev: &mut Device,
    vp: Viewport,
    data: &PointBatch,
    center: Point,
    d: f64,
) -> PointSelection {
    if d.is_nan() || d < 0.0 || !center.x.is_finite() || !center.y.is_finite() {
        return nothing_selected(vp);
    }
    // Candidates in a circle containing the ball (a pixel wide for the
    // one-point ball of `d = 0`), then the exact distance test. A radius
    // that rounds away against the centre's magnitude has no circle; the
    // whole viewport is then the candidate region, and the exact test
    // alone decides.
    let pixel = vp.world().width() / vp.width() as f64;
    let radius = if d > 0.0 { d } else { pixel };
    let cover = ball_cover(center, radius).unwrap_or_else(|| Polygon::rect(vp.world()));
    let mut sel = select_points_in_polygon(dev, vp, data, &cover);
    let d2 = d * d;
    sel.canvas
        .boundary_mut()
        .retain_points(|e| e.loc.dist_sq(center) <= d2);
    sel.records = sel.canvas.point_records();
    sel
}

/// A tessellated circle slightly larger than the metric ball of radius
/// `d > 0` around `center`, so it contains the whole ball: the candidate
/// region of an exact distance selection. `None` when the circle cannot
/// be tessellated: `d` rounds away against `center`'s magnitude.
pub(crate) fn ball_cover(center: Point, d: f64) -> Option<Polygon> {
    Polygon::try_circle(center, d * 1.01, crate::ops::utility::CIRCLE_SEGMENTS).ok()
}

/// Result of a polygon-selection query.
#[derive(Debug)]
pub struct PolygonSelection {
    pub records: Vec<u32>,
}

/// `SELECT * FROM D_L WHERE Geometry INTERSECTS Q` — polygonal selection
/// of **line data** (1-primitives), e.g. road segments crossing a
/// district. Same Blend+Mask shape: line canvases blend with the query
/// polygon; a pixel with both a 1-row and a 2-row is evidence; since
/// line coverage is all-boundary, candidate records whose evidence could
/// be conservative-only are refined with the exact vector test.
pub fn select_lines_intersecting(
    dev: &mut Device,
    vp: Viewport,
    data: &crate::canvas::LineSource,
    q: &Polygon,
) -> PolygonSelection {
    let cl = crate::source::render_polylines(dev, vp, data);
    let cq = crate::source::render_query_polygon(dev, vp, q.clone(), u32::MAX);
    let merged = crate::ops::blend(dev, &cl, &cq, BlendFn::Over);
    let spec = MaskSpec::Texel(
        "line ∧ area",
        std::sync::Arc::new(|t: &crate::info::Texel| t.has(1) && t.has(2)),
    );
    let sel = crate::ops::mask(dev, &merged, &spec);
    // Candidate records from the surviving line entries; exact-refine
    // each (conservative coverage of both line and polygon can overlap
    // without true intersection).
    let mut candidates: Vec<u32> = sel.boundary().lines().iter().map(|e| e.record).collect();
    candidates.sort_unstable();
    candidates.dedup();
    let records: Vec<u32> = candidates
        .into_iter()
        .filter(|&r| canvas_geom::distance::polyline_intersects_polygon(&data[r as usize], q))
        .collect();
    PolygonSelection { records }
}

/// `SELECT * FROM D_Y WHERE Geometry INTERSECTS Q` (polygonal selection
/// of polygons, Section 4.1 / Figure 6).
///
/// Per record (canvas): `M[My](B[⊕](C_Yi, C_Q))` — non-empty output means
/// the record qualifies. Conservative rasterization can only create
/// false *positives* at boundary pixels, so records whose surviving
/// pixels all involve boundary coverage are re-checked against vector
/// geometry (the canvas's exactness contract, Section 5).
pub fn select_polygons_intersecting(
    dev: &mut Device,
    vp: Viewport,
    data: &AreaSource,
    q: &Polygon,
) -> PolygonSelection {
    let cq = crate::source::render_query_polygon(dev, vp, q.clone(), u32::MAX);
    let qb = q.bbox();
    let mut records = Vec::new();
    for (i, poly) in data.iter().enumerate() {
        // Filter step (the paper's evaluation assumes an MBR pre-filter).
        if !poly.bbox().intersects(&qb) {
            continue;
        }
        let cy = crate::source::render_polygon(dev, vp, data, i, i as u32);
        let merged = crate::ops::blend(dev, &cy, &cq, BlendFn::AreaCount);
        let sel = crate::ops::mask(dev, &merged, &MaskSpec::AreaCount(CountCond::Eq(2)));
        if sel.is_empty() {
            continue;
        }
        // Certain if any surviving pixel is fully covered by both.
        let certain = sel.non_null().any(|(x, y, _)| sel.cover().get(x, y) >= 2);
        if certain || poly.intersects(q) {
            records.push(i as u32);
        }
    }
    PolygonSelection { records }
}

#[cfg(test)]
mod tests {
    use super::*;
    use canvas_geom::BBox;

    fn vp(n: u32) -> Viewport {
        Viewport::new(
            BBox::new(Point::new(0.0, 0.0), Point::new(100.0, 100.0)),
            n,
            n,
        )
    }

    /// Deterministic pseudo-random points in the extent.
    fn random_points(n: usize, seed: u64) -> Vec<Point> {
        let mut state = seed.max(1);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..n)
            .map(|_| Point::new(next() * 100.0, next() * 100.0))
            .collect()
    }

    fn blob_polygon() -> Polygon {
        Polygon::simple(vec![
            Point::new(20.0, 15.0),
            Point::new(70.0, 10.0),
            Point::new(85.0, 45.0),
            Point::new(60.0, 80.0),
            Point::new(45.0, 60.0),
            Point::new(15.0, 70.0),
            Point::new(10.0, 35.0),
        ])
        .unwrap()
    }

    #[test]
    fn selection_matches_exact_pip_on_random_data() {
        let mut dev = Device::nvidia();
        let pts = random_points(500, 42);
        let q = blob_polygon();
        let expected: Vec<u32> = pts
            .iter()
            .enumerate()
            .filter(|(_, p)| q.contains_closed(**p))
            .map(|(i, _)| i as u32)
            .collect();
        let data = PointBatch::from_points(pts);
        // Coarse canvas on purpose: exactness must come from refinement.
        let sel = select_points_in_polygon(&mut dev, vp(64), &data, &q);
        assert_eq!(sel.records, expected);
        // The entry form keeps the result canvas's entries.
        let cp = render_points(&mut dev, vp(64), &data);
        let entries: Vec<PointEntry> = sel.canvas.boundary().points().copied().collect();
        assert_eq!(selected_points(&mut dev, &cp, &q), entries);
        assert!(!expected.is_empty());
        assert!(expected.len() < 500);
    }

    #[test]
    fn selection_resolution_independent() {
        // Exactness means the answer cannot depend on canvas resolution.
        let pts = random_points(300, 7);
        let q = blob_polygon();
        let data = PointBatch::from_points(pts);
        let mut results = Vec::new();
        for res in [32, 64, 256] {
            let mut dev = Device::nvidia();
            results.push(select_points_in_polygon(&mut dev, vp(res), &data, &q).records);
        }
        assert_eq!(results[0], results[1]);
        assert_eq!(results[1], results[2]);
    }

    #[test]
    fn disjunction_and_conjunction() {
        let mut dev = Device::nvidia();
        let pts = vec![
            Point::new(25.0, 25.0), // in A only
            Point::new(55.0, 55.0), // in B only
            Point::new(45.0, 45.0), // in both
            Point::new(90.0, 90.0), // in neither
        ];
        let a = Polygon::simple(vec![
            Point::new(10.0, 10.0),
            Point::new(50.0, 10.0),
            Point::new(50.0, 50.0),
            Point::new(10.0, 50.0),
        ])
        .unwrap();
        let b = Polygon::simple(vec![
            Point::new(40.0, 40.0),
            Point::new(80.0, 40.0),
            Point::new(80.0, 80.0),
            Point::new(40.0, 80.0),
        ])
        .unwrap();
        let data = PointBatch::from_points(pts);
        let dis = select_points_multi(
            &mut dev,
            vp(64),
            &data,
            &[a.clone(), b.clone()],
            MultiPolygon::Disjunction,
        );
        assert_eq!(dis.records, vec![0, 1, 2]);
        let con = select_points_multi(&mut dev, vp(64), &data, &[a, b], MultiPolygon::Conjunction);
        assert_eq!(con.records, vec![2]);
    }

    #[test]
    fn rect_and_halfspace_selections() {
        let mut dev = Device::nvidia();
        let pts = random_points(200, 99);
        let data = PointBatch::from_points(pts.clone());
        let sel = select_points_in_rect(
            &mut dev,
            vp(64),
            &data,
            Point::new(20.0, 30.0),
            Point::new(60.0, 70.0),
        );
        let expect: Vec<u32> = pts
            .iter()
            .enumerate()
            .filter(|(_, p)| p.x >= 20.0 && p.x <= 60.0 && p.y >= 30.0 && p.y <= 70.0)
            .map(|(i, _)| i as u32)
            .collect();
        assert_eq!(sel.records, expect);

        // x < 50  <=>  x - 50 < 0.
        let hs = select_points_in_halfspace(&mut dev, vp(64), &data, 1.0, 0.0, -50.0);
        let expect: Vec<u32> = pts
            .iter()
            .enumerate()
            .filter(|(_, p)| p.x <= 50.0)
            .map(|(i, _)| i as u32)
            .collect();
        assert_eq!(hs.records, expect);
    }

    #[test]
    fn empty_halfspace_selection() {
        let mut dev = Device::nvidia();
        let data = PointBatch::from_points(random_points(10, 3));
        // x + 1000 < 0 is empty over the extent.
        let sel = select_points_in_halfspace(&mut dev, vp(32), &data, 1.0, 0.0, 1000.0);
        assert!(sel.records.is_empty());
    }

    #[test]
    fn distance_selection_exact() {
        let mut dev = Device::nvidia();
        let pts = random_points(400, 1234);
        let data = PointBatch::from_points(pts.clone());
        let center = Point::new(50.0, 50.0);
        let d = 23.0;
        let sel = select_points_within_distance_exact(&mut dev, vp(64), &data, center, d);
        let expect: Vec<u32> = pts
            .iter()
            .enumerate()
            .filter(|(_, p)| p.dist(center) <= d)
            .map(|(i, _)| i as u32)
            .collect();
        assert_eq!(sel.records, expect);
    }

    #[test]
    fn negative_or_nan_distance_selects_nothing() {
        // Regression: a negative radius traced the same circle as its
        // absolute value and selected the points within |d|.
        let mut dev = Device::nvidia();
        let data = PointBatch::from_points(random_points(200, 5));
        let center = Point::new(50.0, 50.0);
        for d in [-20.0, f64::NAN] {
            let sel = select_points_within_distance(&mut dev, vp(64), &data, center, d);
            assert!(sel.records.is_empty(), "d = {d}");
            assert!(sel.canvas.is_empty(), "d = {d}");
            let sel = select_points_within_distance_exact(&mut dev, vp(64), &data, center, d);
            assert!(sel.records.is_empty(), "d = {d}");
            assert!(sel.canvas.is_empty(), "d = {d}");
        }
    }

    #[test]
    fn zero_distance_selects_the_points_at_the_center() {
        // Regression: a zero radius panicked building the circle polygon.
        let mut dev = Device::nvidia();
        let center = Point::new(50.0, 50.0);
        let data = PointBatch::from_points(vec![
            center,
            Point::new(50.001, 50.0),
            center,
            Point::new(10.0, 10.0),
        ]);
        let exact = select_points_within_distance_exact(&mut dev, vp(64), &data, center, 0.0);
        assert_eq!(exact.records, vec![0, 2]);
        assert_eq!(exact.canvas.boundary().num_points(), 2);
        let tessellated = select_points_within_distance(&mut dev, vp(64), &data, center, 0.0);
        assert!(tessellated.records.is_empty());
    }

    #[test]
    fn exact_distance_of_a_far_or_non_finite_centre_matches_a_scan() {
        // Regression: a centre far enough that the cover circle rounds
        // away (or a NaN one) panicked with "circle with positive radius".
        let mut dev = Device::nvidia();
        let pts = random_points(300, 77);
        let data = PointBatch::from_points(pts.clone());
        for center in [Point::new(1e16, 50.0), Point::new(f64::NAN, 50.0)] {
            for d in [0.0, 1.0, 2e16] {
                let sel = select_points_within_distance_exact(&mut dev, vp(64), &data, center, d);
                let finite = center.x.is_finite() && center.y.is_finite();
                let expect: Vec<u32> = pts
                    .iter()
                    .enumerate()
                    .filter(|(_, p)| finite && p.dist_sq(center) <= d * d)
                    .map(|(i, _)| i as u32)
                    .collect();
                assert_eq!(sel.records, expect, "center {center:?}, d = {d}");
            }
        }
    }

    #[test]
    fn polygon_selection_same_operators() {
        // The paper's reuse claim: the same blend+mask pipeline selects
        // polygons instead of points.
        let mut dev = Device::nvidia();
        let data: AreaSource = Arc::new(vec![
            // 0: clearly overlaps the query.
            Polygon::simple(vec![
                Point::new(30.0, 30.0),
                Point::new(55.0, 30.0),
                Point::new(55.0, 55.0),
                Point::new(30.0, 55.0),
            ])
            .unwrap(),
            // 1: disjoint.
            Polygon::simple(vec![
                Point::new(80.0, 80.0),
                Point::new(95.0, 80.0),
                Point::new(95.0, 95.0),
                Point::new(80.0, 95.0),
            ])
            .unwrap(),
            // 2: fully inside the query.
            Polygon::simple(vec![
                Point::new(40.0, 40.0),
                Point::new(45.0, 40.0),
                Point::new(45.0, 45.0),
                Point::new(40.0, 45.0),
            ])
            .unwrap(),
        ]);
        let q = Polygon::simple(vec![
            Point::new(25.0, 25.0),
            Point::new(60.0, 25.0),
            Point::new(60.0, 60.0),
            Point::new(25.0, 60.0),
        ])
        .unwrap();
        let sel = select_polygons_intersecting(&mut dev, vp(64), &data, &q);
        assert_eq!(sel.records, vec![0, 2]);
    }

    #[test]
    fn polygon_selection_near_miss_is_exact() {
        // Two polygons separated by less than a pixel: conservative
        // rasterization overlaps their coverage, but the record-level
        // refinement must reject the pair.
        let mut dev = Device::nvidia();
        // Pixel width at 64x64 over 100x100 world is ~1.56 units; keep a
        // gap of 0.5 units.
        let data: AreaSource = Arc::new(vec![Polygon::simple(vec![
            Point::new(10.0, 10.0),
            Point::new(49.7, 10.0),
            Point::new(49.7, 40.0),
            Point::new(10.0, 40.0),
        ])
        .unwrap()]);
        let q = Polygon::simple(vec![
            Point::new(50.2, 10.0),
            Point::new(90.0, 10.0),
            Point::new(90.0, 40.0),
            Point::new(50.2, 40.0),
        ])
        .unwrap();
        let sel = select_polygons_intersecting(&mut dev, vp(64), &data, &q);
        assert!(sel.records.is_empty(), "near-miss must not select");
    }

    #[test]
    fn line_data_selection_exact() {
        // Roads crossing a district: same operators, 1-primitive data.
        let mut dev = Device::nvidia();
        let roads: crate::canvas::LineSource = Arc::new(vec![
            // 0: crosses the query region.
            canvas_geom::Polyline::new(vec![Point::new(0.0, 50.0), Point::new(100.0, 50.0)])
                .unwrap(),
            // 1: far away.
            canvas_geom::Polyline::new(vec![Point::new(0.0, 95.0), Point::new(100.0, 95.0)])
                .unwrap(),
            // 2: fully inside.
            canvas_geom::Polyline::new(vec![
                Point::new(40.0, 40.0),
                Point::new(55.0, 45.0),
                Point::new(60.0, 60.0),
            ])
            .unwrap(),
            // 3: near miss below the region (within a coarse pixel).
            canvas_geom::Polyline::new(vec![Point::new(20.0, 24.2), Point::new(80.0, 24.2)])
                .unwrap(),
        ]);
        let q = Polygon::simple(vec![
            Point::new(25.0, 25.0),
            Point::new(75.0, 25.0),
            Point::new(75.0, 75.0),
            Point::new(25.0, 75.0),
        ])
        .unwrap();
        let sel = select_lines_intersecting(&mut dev, vp(64), &roads, &q);
        assert_eq!(sel.records, vec![0, 2]);
    }

    #[test]
    fn plan_diagram_matches_figure_8b() {
        let data = Arc::new(PointBatch::from_points(vec![Point::new(1.0, 1.0)]));
        let qs = vec![blob_polygon(), blob_polygon()];
        let plan = points_in_polygons_plan(data, &qs, MultiPolygon::Disjunction);
        let s = plan.plan();
        assert!(s.contains("Mp'"));
        assert!(s.contains("B[⊙]"));
        assert!(s.contains("B*[⊕]"));
    }
}
