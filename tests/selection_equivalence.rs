//! Integration: every selection variant of the canvas algebra must
//! agree bit-for-bit with the exact CPU baselines on realistic
//! generated workloads — the exactness contract of paper Section 5. The
//! mask's entry form must equal the dense Blend + Mask it replaces: the
//! walk (`point_entries_in_areas`) keeps exactly the entries the dense
//! operators keep, in the same order, and the canvas sink
//! (`select_point_entries_in_areas`, and the selection heatmap built on
//! it) writes the dense operators' whole canvas, bit for bit.

mod common;

use canvas_algebra::prelude::*;
use canvas_core::algebra::{selection_sink, value_sink, SourceSpec};
use canvas_core::boundary::PointEntry;
use canvas_core::ops::chain::{apply_chain_materialized, ChainKernel};
use canvas_core::ops::mask::{
    point_entries_in_areas, scatter_point_entries_in_areas, select_point_entries_in_areas,
    PixelRule,
};
use canvas_core::ops::transform::{group_viewport, ValueMap};
use canvas_core::queries::heatmap;
use canvas_core::queries::selection::{self, MultiPolygon};
use canvas_geom::polygon::Ring;
use canvas_raster::{MaskTag, ValueTag};
use common::assert_same_canvas;
use std::sync::Arc;

fn extent() -> BBox {
    BBox::new(Point::new(0.0, 0.0), Point::new(100.0, 100.0))
}

#[test]
fn polygonal_selection_equals_baselines_across_seeds() {
    for seed in [1u64, 7, 42] {
        let pts = taxi_pickups(&extent(), 8_000, seed);
        let mbr = BBox::new(Point::new(15.0, 20.0), Point::new(80.0, 85.0));
        let q = star_polygon(&mbr, 72, 0.55, seed + 100);
        let batch = PointBatch::from_points(pts.clone());
        let vp = Viewport::square_pixels(extent(), 256);

        let mut dev = Device::nvidia();
        let canvas = selection::select_points_in_polygon(&mut dev, vp, &batch, &q);
        let scalar = canvas_algebra::baseline::select_scalar(&pts, std::slice::from_ref(&q));
        let parallel = canvas_algebra::baseline::select_parallel(&pts, std::slice::from_ref(&q), 4);
        let mut gdev = Device::nvidia();
        let gpu = canvas_algebra::baseline::select_gpu_baseline(
            &mut gdev,
            &pts,
            std::slice::from_ref(&q),
        );

        assert_eq!(
            canvas.records, scalar.records,
            "seed {seed}: canvas vs scalar"
        );
        assert_eq!(
            scalar.records, parallel.records,
            "seed {seed}: scalar vs parallel"
        );
        assert_eq!(scalar.records, gpu.records, "seed {seed}: scalar vs gpu");
        assert!(!canvas.records.is_empty());
    }
}

#[test]
fn disjunction_equals_baseline() {
    let pts = taxi_pickups(&extent(), 6_000, 5);
    let qs = vec![
        star_polygon(
            &BBox::new(Point::new(10.0, 10.0), Point::new(50.0, 50.0)),
            48,
            0.5,
            1,
        ),
        star_polygon(
            &BBox::new(Point::new(40.0, 40.0), Point::new(90.0, 90.0)),
            48,
            0.5,
            2,
        ),
        star_polygon(
            &BBox::new(Point::new(60.0, 5.0), Point::new(95.0, 40.0)),
            48,
            0.5,
            3,
        ),
    ];
    let batch = PointBatch::from_points(pts.clone());
    let vp = Viewport::square_pixels(extent(), 256);
    let mut dev = Device::nvidia();
    let canvas =
        selection::select_points_multi(&mut dev, vp, &batch, &qs, MultiPolygon::Disjunction);
    let scalar = canvas_algebra::baseline::select_scalar(&pts, &qs);
    assert_eq!(canvas.records, scalar.records);
}

#[test]
fn conjunction_equals_baseline() {
    let pts = taxi_pickups(&extent(), 6_000, 6);
    let qs = vec![
        star_polygon(
            &BBox::new(Point::new(20.0, 20.0), Point::new(70.0, 70.0)),
            48,
            0.4,
            4,
        ),
        star_polygon(
            &BBox::new(Point::new(35.0, 35.0), Point::new(85.0, 85.0)),
            48,
            0.4,
            5,
        ),
    ];
    let batch = PointBatch::from_points(pts.clone());
    let vp = Viewport::square_pixels(extent(), 256);
    let mut dev = Device::nvidia();
    let canvas =
        selection::select_points_multi(&mut dev, vp, &batch, &qs, MultiPolygon::Conjunction);
    let scalar = canvas_algebra::baseline::select_scalar_conjunction(&pts, &qs);
    assert_eq!(canvas.records, scalar.records);
}

#[test]
fn rect_halfspace_distance_constraints() {
    let pts = uniform_points(&extent(), 5_000, 11);
    let batch = PointBatch::from_points(pts.clone());
    let vp = Viewport::square_pixels(extent(), 256);
    let mut dev = Device::nvidia();

    // Rect.
    let sel = selection::select_points_in_rect(
        &mut dev,
        vp,
        &batch,
        Point::new(25.0, 30.0),
        Point::new(70.0, 75.0),
    );
    let want: Vec<u32> = pts
        .iter()
        .enumerate()
        .filter(|(_, p)| (25.0..=70.0).contains(&p.x) && (30.0..=75.0).contains(&p.y))
        .map(|(i, _)| i as u32)
        .collect();
    assert_eq!(sel.records, want);

    // Half space: y > x  <=>  x - y < 0.
    let sel = selection::select_points_in_halfspace(&mut dev, vp, &batch, 1.0, -1.0, 0.0);
    let want: Vec<u32> = pts
        .iter()
        .enumerate()
        .filter(|(_, p)| p.x <= p.y)
        .map(|(i, _)| i as u32)
        .collect();
    assert_eq!(sel.records, want);

    // Distance.
    let c = Point::new(40.0, 60.0);
    let sel = selection::select_points_within_distance_exact(&mut dev, vp, &batch, c, 17.5);
    let want: Vec<u32> = pts
        .iter()
        .enumerate()
        .filter(|(_, p)| p.dist(c) <= 17.5)
        .map(|(i, _)| i as u32)
        .collect();
    assert_eq!(sel.records, want);
}

#[test]
fn polygon_data_selection_equals_vector_test() {
    // The reuse claim (paper Section 5.1): the same operators select
    // polygon records; results must match exact vector intersection.
    let zones = neighborhoods(&extent(), 25, 3);
    let q = star_polygon(
        &BBox::new(Point::new(25.0, 25.0), Point::new(75.0, 75.0)),
        64,
        0.5,
        9,
    );
    let table: AreaSource = std::sync::Arc::new(zones.clone());
    let vp = Viewport::square_pixels(extent(), 256);
    let mut dev = Device::nvidia();
    let sel = selection::select_polygons_intersecting(&mut dev, vp, &table, &q);
    let want: Vec<u32> = zones
        .iter()
        .enumerate()
        .filter(|(_, z)| z.intersects(&q))
        .map(|(i, _)| i as u32)
        .collect();
    assert_eq!(sel.records, want);
    assert!(!want.is_empty());
    assert!(want.len() < zones.len());
}

#[test]
fn device_profile_does_not_change_answers() {
    // Determinism across devices: the modeled hardware affects time,
    // never results.
    let pts = taxi_pickups(&extent(), 3_000, 21);
    let q = star_polygon(
        &BBox::new(Point::new(20.0, 20.0), Point::new(80.0, 80.0)),
        64,
        0.5,
        22,
    );
    let batch = PointBatch::from_points(pts);
    let vp = Viewport::square_pixels(extent(), 256);
    let mut nv = Device::nvidia();
    let mut intel = Device::intel();
    let a = selection::select_points_in_polygon(&mut nv, vp, &batch, &q);
    let b = selection::select_points_in_polygon(&mut intel, vp, &batch, &q);
    assert_eq!(a.records, b.records);
}

// ---------------------------------------------------------------------
// The entry form of the point selection against the dense operators.
// ---------------------------------------------------------------------

fn device(threads: usize) -> Device {
    if threads == 1 {
        Device::cpu()
    } else {
        Device::cpu_parallel(threads)
    }
}

/// The spec: the point entries `M[Mp(cond)](B[⊙](points, areas))` keeps.
fn dense_entries(
    dev: &mut Device,
    points: &Canvas,
    areas: &Canvas,
    cond: CountCond,
) -> Vec<PointEntry> {
    let merged = blend(dev, points, areas, BlendFn::PointOverArea);
    mask(dev, &merged, &MaskSpec::PointInAreas(cond))
        .boundary()
        .points()
        .copied()
        .collect()
}

fn ring(pts: &[(f64, f64)]) -> Ring {
    Ring::new(pts.iter().map(|&(x, y)| Point::new(x, y)).collect()).unwrap()
}

/// A quadrilateral with a quadrilateral hole, offset by `(dx, dy)`.
fn holed_polygon(dx: f64, dy: f64) -> Polygon {
    let at = |pts: [(f64, f64); 4]| ring(&pts.map(|(x, y)| (x + dx, y + dy)));
    Polygon::new(
        at([(10.0, 10.0), (70.0, 12.0), (66.0, 68.0), (12.0, 60.0)]),
        vec![at([(30.0, 28.0), (48.0, 31.0), (45.0, 49.0), (29.0, 45.0)])],
    )
}

/// Seeded points over a box larger than the viewport's world (so some
/// fall outside it), every seventh one repeated, plus every vertex and
/// two points on every edge of `polys` — the locations where a
/// refinement rule that differs anywhere would show.
fn oracle_batch(seed: u64, n: usize, polys: &[Polygon]) -> PointBatch {
    let mut state = seed.max(1);
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let mut pts = Vec::new();
    for i in 0..n {
        let p = Point::new(next() * 120.0 - 10.0, next() * 120.0 - 10.0);
        pts.push(p);
        if i % 7 == 0 {
            pts.push(p);
        }
    }
    for poly in polys {
        for r in std::iter::once(poly.outer()).chain(poly.holes()) {
            let vs = r.vertices();
            for (i, &a) in vs.iter().enumerate() {
                let b = vs[(i + 1) % vs.len()];
                pts.push(a);
                pts.push(a + (b - a) * 0.5);
                pts.push(a + (b - a) * 0.25);
            }
        }
    }
    let weights = (0..pts.len()).map(|i| (i % 5) as f32 + 0.5).collect();
    PointBatch::with_weights(pts, weights)
}

#[test]
fn point_entries_in_areas_equals_blend_then_mask() {
    let vp = Viewport::new(extent(), 96, 80);
    let query = holed_polygon(0.0, 0.0);
    let table_a: AreaSource = std::sync::Arc::new(vec![
        holed_polygon(15.0, 20.0),
        star_polygon(
            &BBox::new(Point::new(5.0, 5.0), Point::new(60.0, 60.0)),
            24,
            0.5,
            3,
        ),
        Polygon::rect(&BBox::new(Point::new(25.0, 25.0), Point::new(75.0, 55.0))),
    ]);
    let table_b: AreaSource = std::sync::Arc::new(vec![
        holed_polygon(25.0, 5.0),
        Polygon::circle(Point::new(50.0, 50.0), 30.0, 40),
    ]);
    let mut polys = vec![query.clone()];
    polys.extend(table_a.iter().cloned());
    polys.extend(table_b.iter().cloned());
    let base = oracle_batch(29, 3_000, &polys);
    // A small delta (coincident with base points, too) so the patched
    // canvas keeps its point index as two stacked levels.
    let delta = oracle_batch(31, 150, &[]);
    let mut full = base.clone();
    full.points.extend(&delta.points);
    full.points.extend(&base.points[..40]);
    full.ids = (0..full.points.len() as u32).collect();
    full.weights = vec![1.5; full.points.len()];
    for threads in [1, 2, 8] {
        let mut dev = device(threads);
        // Walk in bands on the pool however small the run is.
        dev.pool().set_min_work_override(1);
        let flat = render_points(&mut dev, vp, &full);
        let prefix = PointBatch {
            points: full.points[..base.len()].to_vec(),
            ids: full.ids[..base.len()].to_vec(),
            weights: full.weights[..base.len()].to_vec(),
        };
        let before = render_live_heatmap(&mut dev, vp, &prefix, None);
        let (layered, _) = patch_live_heatmap(&mut dev, vp, &before, &full, base.len(), None);
        assert!(
            layered.boundary().point_levels().len() >= 2,
            "a layered index"
        );
        let cq = render_query_polygon(&mut dev, vp, query.clone(), 1);
        let ya = render_polygon_set(&mut dev, vp, &table_a, BlendFn::AreaCount);
        let yb = render_polygon_set(&mut dev, vp, &table_b, BlendFn::AreaCount);
        let cy = blend(&mut dev, &ya, &yb, BlendFn::AreaCount);
        let mut conds = vec![CountCond::Ge(1)];
        for k in 0..=3 {
            conds.extend([CountCond::Eq(k), CountCond::Ge(k)]);
        }
        for (points, pname) in [(&flat, "flat"), (&layered, "layered")] {
            for (areas, aname) in [(&cq, "C_Q"), (&cy, "C_Y*")] {
                for &cond in &conds {
                    let got = point_entries_in_areas(&dev, points, areas, cond);
                    let want = dense_entries(&mut dev, points, areas, cond);
                    assert_eq!(
                        got, want,
                        "{pname} over {aname}, {cond:?}, threads={threads}"
                    );
                }
            }
        }
        // The spec is not trivial: some entries are kept, some are not.
        let kept = point_entries_in_areas(&dev, &flat, &cq, CountCond::Ge(1)).len();
        assert!(
            kept > 0 && kept < flat.boundary().num_points(),
            "kept {kept}"
        );
        let overlap = point_entries_in_areas(&dev, &flat, &cy, CountCond::Ge(3)).len();
        assert!(overlap > 0, "some points lie in three table polygons");
    }
}

// ---------------------------------------------------------------------
// The canvas sink against the dense operators, whole canvases.
// ---------------------------------------------------------------------

/// The premise of writing the sparse canvas into an empty one: the
/// dense operators never leave cover under a null texel.
fn assert_no_cover_under_null(c: &Canvas, ctx: &str) {
    let planes = c.texels().texels().iter().zip(c.cover().texels());
    for (i, (t, cov)) in planes.enumerate() {
        assert!(
            !t.is_null() || *cov == 0,
            "{ctx}: cover {cov} under a null texel at {i}"
        );
    }
}

/// Flat and 2-level layered point canvases of `full` (its first `split`
/// points drawn, the rest patched on as a second level).
fn flat_and_layered(
    dev: &mut Device,
    vp: Viewport,
    full: &PointBatch,
    split: usize,
) -> [Canvas; 2] {
    let prefix = PointBatch {
        points: full.points[..split].to_vec(),
        ids: full.ids[..split].to_vec(),
        weights: full.weights[..split].to_vec(),
    };
    let before = render_live_heatmap(dev, vp, &prefix, None);
    let (layered, _) = patch_live_heatmap(dev, vp, &before, full, split, None);
    assert!(
        layered.boundary().point_levels().len() >= 2,
        "a layered index"
    );
    [render_points(dev, vp, full), layered]
}

/// Every area source the planner's sink accepts, over holed polygons
/// and overlapping tables.
fn sink_area_sources(query: &Polygon) -> Vec<(&'static str, Expr)> {
    let table: AreaSource = Arc::new(vec![
        holed_polygon(15.0, 20.0),
        holed_polygon(25.0, 5.0),
        star_polygon(
            &BBox::new(Point::new(5.0, 5.0), Point::new(60.0, 60.0)),
            24,
            0.5,
            3,
        ),
        Polygon::circle(Point::new(50.0, 50.0), 30.0, 40),
    ]);
    vec![
        ("Polygon", Expr::query_polygon(query.clone(), 1)),
        ("PolygonSet", Expr::polygon_set(table, BlendFn::AreaCount)),
        (
            "Circle",
            Expr::Source(SourceSpec::Circle {
                center: Point::new(48.0, 52.0),
                radius: 31.0,
                id: 3,
            }),
        ),
        (
            "Rect",
            Expr::Source(SourceSpec::Rect {
                l1: Point::new(12.3, 20.7),
                l2: Point::new(77.1, 64.9),
                id: 1,
            }),
        ),
        (
            "HalfSpace",
            Expr::Source(SourceSpec::HalfSpace {
                a: 1.0,
                b: 0.7,
                c: -90.0,
                id: 5,
            }),
        ),
    ]
}

#[test]
fn selection_canvas_equals_blend_then_mask() {
    let vp = Viewport::new(extent(), 96, 80);
    let query = holed_polygon(0.0, 0.0);
    let rights = sink_area_sources(&query);
    let full = oracle_batch(41, 3_000, &[query.clone(), holed_polygon(15.0, 20.0)]);
    let data = Arc::new(full.clone());
    let mut conds = vec![];
    for k in 0..=3 {
        conds.extend([CountCond::Eq(k), CountCond::Ge(k)]);
    }
    let (mut kept, mut dropped) = (false, false);
    for threads in [1, 2, 8] {
        let mut dev = device(threads);
        dev.pool().set_min_work_override(1);
        let points = flat_and_layered(&mut dev, vp, &full, full.len() - 200);
        for (name, right) in &rights {
            let r = right.eval(&mut dev, vp);
            let blend_plan = || {
                let points = Expr::points(data.clone());
                Expr::blend(BlendFn::PointOverArea, points, right.clone())
            };
            for &cond in &conds {
                for (cp, layout) in points.iter().zip(["flat", "layered"]) {
                    let ctx = format!("{layout} C_P over {name}, {cond:?}, threads={threads}");
                    let merged = blend(&mut dev, cp, &r, BlendFn::PointOverArea);
                    let want = mask(&mut dev, &merged, &MaskSpec::PointInAreas(cond));
                    assert_no_cover_under_null(&merged, &ctx);
                    assert_no_cover_under_null(&want, &ctx);
                    let before = dev.stats();
                    let got = select_point_entries_in_areas(
                        &dev,
                        cp,
                        &r,
                        PixelRule::PointInAreas(cond),
                        None,
                    );
                    assert_eq!(dev.stats(), before, "{ctx}: the walk charges nothing");
                    assert_same_canvas(&got, &want, &ctx);
                    kept |= !want.is_empty();
                    dropped |= want.boundary().num_points() < cp.boundary().num_points();
                }
                // The planner takes the same walk for the plan.
                let plan = Expr::mask(MaskSpec::PointInAreas(cond), blend_plan());
                assert!(selection_sink(&plan).is_some());
                let merged = blend(&mut dev, &points[0], &r, BlendFn::PointOverArea);
                let want = mask(&mut dev, &merged, &MaskSpec::PointInAreas(cond));
                let got = plan.eval(&mut dev, vp);
                assert_same_canvas(&got, &want, &format!("plan over {name}, {cond:?}"));
            }
            // The heatmap's coarse mask and value kernel take the walk
            // over every area source too.
            let mask = MaskSpec::Tagged(MaskTag::PointAndArea);
            let heat = Expr::value_tagged(ValueTag::HeatLog, Expr::mask(mask, blend_plan()));
            assert!(value_sink(&heat).is_some());
            let want = apply_chain_materialized(&mut dev, points[0].clone(), &HEAT, &[&r]);
            let got = heat.eval(&mut dev, vp);
            assert_same_canvas(&got, &want, &format!("heatmap over {name}"));
        }
        // `select_points_in_polygon` makes the plan's calls directly.
        let cq = render_query_polygon(&mut dev, vp, query.clone(), 1);
        let merged = blend(&mut dev, &points[0], &cq, BlendFn::PointOverArea);
        let want = mask(&mut dev, &merged, &MaskSpec::PointInAreas(CountCond::Ge(1)));
        let got = selection::select_points_in_polygon(&mut dev, vp, &full, &query);
        assert_same_canvas(&got.canvas, &want, "select_points_in_polygon");
        assert_eq!(got.records, want.point_records());
    }
    assert!(
        kept && dropped,
        "the spec keeps some points and drops others"
    );
}

/// The selection heatmap's kernels over `C_P`, blending `C_Q`.
const HEAT: [ChainKernel; 3] = [
    ChainKernel::Blend(BlendFn::PointOverArea),
    ChainKernel::Mask(MaskTag::PointAndArea),
    ChainKernel::Value(ValueTag::HeatLog),
];

#[test]
fn selection_heatmap_equals_the_materialized_plan() {
    let vp = Viewport::new(extent(), 96, 80);
    let queries = [
        holed_polygon(0.0, 0.0),
        star_polygon(
            &BBox::new(Point::new(15.0, 10.0), Point::new(85.0, 80.0)),
            17,
            0.55,
            5,
        ),
    ];
    for q in &queries {
        let full = oracle_batch(43, 3_000, std::slice::from_ref(q));
        let want = heatmap::selection_heatmap_materialized(&mut Device::cpu(), vp, &full, q);
        assert_no_cover_under_null(&want, "heatmap spec");
        assert!(!want.is_empty(), "the spec keeps pixels");
        for threads in [1, 2, 8] {
            let mut dev = device(threads);
            dev.pool().set_min_work_override(1);
            let got = heatmap::selection_heatmap(&mut dev, vp, &full, q);
            assert_same_canvas(&got, &want, &format!("heatmap, threads={threads}"));
            // The walk over a layered `C_P` equals the chain over it.
            let [_, layered] = flat_and_layered(&mut dev, vp, &full, full.len() - 200);
            let cq = render_query_polygon(&mut dev, vp, q.clone(), 1);
            let spec = apply_chain_materialized(&mut dev, layered.clone(), &HEAT, &[&cq]);
            let got = select_point_entries_in_areas(
                &dev,
                &layered,
                &cq,
                PixelRule::PointAndArea,
                Some(ValueTag::HeatLog),
            );
            assert_same_canvas(&got, &spec, &format!("layered heatmap, threads={threads}"));
        }
    }
}

// ---------------------------------------------------------------------
// The run-first `C_P`: the walks over the plane-free canvas, over the
// same canvas once its planes are folded, and over the spec.
// ---------------------------------------------------------------------

/// `oracle_batch`'s points plus the points a pixel mapping could get
/// wrong: the world's closed max edge and corner, NaN and ±∞
/// coordinates (never in view), and 300 points in one pixel.
fn run_first_batch(seed: u64, n: usize, polys: &[Polygon]) -> PointBatch {
    let mut pts = oracle_batch(seed, n, polys).points;
    pts.extend([
        Point::new(100.0, 100.0),
        Point::new(100.0, 37.0),
        Point::new(63.0, 100.0),
        Point::new(0.0, 0.0),
        Point::new(f64::NAN, 50.0),
        Point::new(50.0, f64::INFINITY),
        Point::new(f64::NEG_INFINITY, f64::NAN),
    ]);
    pts.extend(std::iter::repeat_n(Point::new(41.3, 22.7), 300));
    let weights = (0..pts.len()).map(|i| (i % 9) as f32 * 0.5 - 1.5).collect();
    PointBatch::with_weights(pts, weights)
}

#[test]
fn run_first_point_canvas_walks_equal_the_spec() {
    common::rerun_on_scalar(&["run_first_point_canvas_walks_equal_the_spec"]);
    let vp = Viewport::new(extent(), 96, 80);
    let query = holed_polygon(0.0, 0.0);
    let rights = sink_area_sources(&query);
    let gamma = ValueMap::area_id_slot();
    // Small batches sorted and walked in bands however small they are,
    // and batches on both sides of the pool's own 65,536-input threshold.
    let batches = [
        (
            run_first_batch(47, 3_000, std::slice::from_ref(&query)),
            true,
        ),
        (PointBatch::default(), true),
        (run_first_batch(53, 57_000, &[]), false),
        (run_first_batch(59, 57_200, &[]), false),
    ];
    assert_eq!(batches[2].0.len(), 65_450);
    assert_eq!(batches[3].0.len(), 65_679);
    let mut all_conds = vec![];
    for k in 0..=2 {
        all_conds.extend([CountCond::Eq(k), CountCond::Ge(k)]);
    }
    for (full, force_bands) in &batches {
        let conds = if *force_bands {
            &all_conds[..]
        } else {
            &all_conds[3..4]
        };
        for threads in [1, 2, 3, 8] {
            let mut dev = device(threads);
            if *force_bands {
                dev.pool().set_min_work_override(1);
            }
            let ctx = format!("{} points, threads={threads}", full.len());
            let spec = common::spec_point_canvas(threads, vp, full);
            let lazy = render_points(&mut dev, vp, full);
            let folded = lazy.clone();
            common::assert_same_canvas(&folded, &spec, &ctx);
            assert!(folded.planes_materialized() && !lazy.planes_materialized());
            for (name, right) in &rights {
                let r = right.eval(&mut dev, vp);
                for &cond in conds {
                    let ctx = format!("{ctx}, {name}, {cond:?}");
                    let walk = |cp: &Canvas| point_entries_in_areas(&dev, cp, &r, cond);
                    let want = walk(&spec);
                    assert_eq!(walk(&lazy), want, "{ctx}: entries, plane-free");
                    assert_eq!(walk(&folded), want, "{ctx}: entries, folded");
                    let rule = PixelRule::PointInAreas(cond);
                    let sink =
                        |cp: &Canvas| select_point_entries_in_areas(&dev, cp, &r, rule, None);
                    let want = sink(&spec);
                    assert_same_canvas(&sink(&lazy), &want, &format!("{ctx}: sink, plane-free"));
                    assert_same_canvas(&sink(&folded), &want, &format!("{ctx}: sink, folded"));
                }
                let ctx = format!("{ctx}, {name}");
                let heat = |cp: &Canvas| {
                    let rule = PixelRule::PointAndArea;
                    select_point_entries_in_areas(&dev, cp, &r, rule, Some(ValueTag::HeatLog))
                };
                let want = heat(&spec);
                assert_same_canvas(&heat(&lazy), &want, &format!("{ctx}: heatmap, plane-free"));
                assert_same_canvas(&heat(&folded), &want, &format!("{ctx}: heatmap, folded"));
                let groups = group_viewport(8);
                let rule = PixelRule::PointInAreas(CountCond::Ge(1));
                let combine = BlendFn::Accumulate;
                let agg = |cp: &Canvas| {
                    scatter_point_entries_in_areas(&dev, cp, &r, rule, &gamma, groups, combine)
                };
                let want = agg(&spec);
                assert_same_canvas(&agg(&lazy), &want, &format!("{ctx}: aggregate, plane-free"));
                assert_same_canvas(&agg(&folded), &want, &format!("{ctx}: aggregate, folded"));
            }
            assert!(
                !lazy.planes_materialized(),
                "{ctx}: the walks read no plane"
            );
        }
    }
}
