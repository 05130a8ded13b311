//! Integration: joins and aggregations across the canvas algebra and
//! the traditional baselines must produce identical answers (Sections
//! 4.2, 4.3, 5.2), and every join agrees with brute force on random
//! inputs (`joins_and_aggregates_match_brute_force`).

mod common;

use canvas_algebra::prelude::*;
use canvas_core::algebra::SourceSpec;
use canvas_core::queries::{aggregate, join};
use canvas_core::SpatialTable;
use common::assert_same_canvas;
use proptest::prelude::*;
use std::sync::Arc;

fn extent() -> BBox {
    BBox::new(Point::new(0.0, 0.0), Point::new(100.0, 100.0))
}

fn vp() -> Viewport {
    Viewport::square_pixels(extent(), 256)
}

#[test]
fn type1_join_equals_baseline_join() {
    let pts = taxi_pickups(&extent(), 4_000, 31);
    let zones = neighborhoods(&extent(), 15, 32);
    let table: AreaSource = Arc::new(zones.clone());
    let mut dev = Device::nvidia();
    let canvas_pairs = join::join_points_polygons(
        &mut dev,
        vp(),
        &PointBatch::from_points(pts.clone()),
        &table,
    );
    let baseline_pairs = canvas_algebra::baseline::join_grid(&pts, &zones, extent()).pairs;
    assert_eq!(canvas_pairs, baseline_pairs);
    assert!(!canvas_pairs.is_empty());
}

#[test]
fn type2_join_equals_vector_intersections() {
    let left = neighborhoods(&extent(), 8, 41);
    let right: Vec<Polygon> = (0..6)
        .map(|i| {
            star_polygon(
                &BBox::new(
                    Point::new(10.0 + 10.0 * i as f64, 15.0),
                    Point::new(30.0 + 10.0 * i as f64, 55.0),
                ),
                24,
                0.4,
                50 + i as u64,
            )
        })
        .collect();
    let lt: AreaSource = Arc::new(left.clone());
    let rt: AreaSource = Arc::new(right.clone());
    let mut dev = Device::nvidia();
    let got = join::join_polygons_polygons(&mut dev, vp(), &lt, &rt);
    let mut want = Vec::new();
    for (i, a) in left.iter().enumerate() {
        for (j, b) in right.iter().enumerate() {
            if a.intersects(b) {
                want.push((i as u32, j as u32));
            }
        }
    }
    want.sort_unstable();
    assert_eq!(got, want);
}

#[test]
fn distance_join_equals_brute_force() {
    let lpts = taxi_pickups(&extent(), 1_500, 61);
    let rpts = uniform_points(&extent(), 12, 62);
    let mut dev = Device::nvidia();
    let got = join::distance_join(
        &mut dev,
        vp(),
        &PointBatch::from_points(lpts.clone()),
        &PointBatch::from_points(rpts.clone()),
        9.0,
    );
    let mut want = Vec::new();
    for (j, c) in rpts.iter().enumerate() {
        for (i, p) in lpts.iter().enumerate() {
            if p.dist(*c) <= 9.0 {
                want.push((i as u32, j as u32));
            }
        }
    }
    want.sort_unstable_by_key(|&(p, y)| (y, p));
    assert_eq!(got, want);
}

#[test]
fn all_three_aggregation_plans_agree_with_cpu_plan() {
    let trips = generate_trips(&extent(), 10_000, 8, 71);
    let zones = neighborhoods_detailed(&extent(), 18, 60, 72);
    let table: AreaSource = Arc::new(zones.clone());
    let batch = PointBatch::with_weights(trips.pickups.clone(), trips.fares.clone());

    let mut dev = Device::nvidia();
    let fused = aggregate::aggregate_join_rasterjoin(&mut dev, vp(), &batch, &table);
    let unfused = aggregate::aggregate_join_blend_plan(&mut dev, vp(), &batch, &table);
    let materialized = aggregate::aggregate_join_materialized(&mut dev, vp(), &batch, &table);
    let (cpu_counts, cpu_sums, _) =
        canvas_algebra::baseline::aggregate_join_baseline(&trips.pickups, &trips.fares, &zones);

    assert_eq!(fused.counts, cpu_counts, "fused vs cpu");
    assert_eq!(unfused.counts, cpu_counts, "unfused vs cpu");
    assert_eq!(materialized.counts, cpu_counts, "materialized vs cpu");
    for ((a, b), c) in fused.sums.iter().zip(&unfused.sums).zip(&cpu_sums) {
        assert!(
            (a - c).abs() < 1e-2 * c.abs().max(1.0),
            "fused sum {a} vs cpu {c}"
        );
        assert!(
            (b - c).abs() < 1e-2 * c.abs().max(1.0),
            "unfused sum {b} vs cpu {c}"
        );
    }
    // Every pickup inside the partition is counted exactly once overall
    // (cells tile the extent; shared-boundary points may legitimately
    // count twice, so allow a tiny slack).
    let total: u64 = fused.counts.iter().sum();
    let n = trips.len() as u64;
    assert!(total >= n && total <= n + n / 100, "total {total} vs n {n}");
}

#[test]
fn count_and_sum_over_selection_consistent() {
    let trips = generate_trips(&extent(), 8_000, 8, 81);
    let q = star_polygon(
        &BBox::new(Point::new(20.0, 25.0), Point::new(75.0, 80.0)),
        96,
        0.5,
        82,
    );
    let batch = PointBatch::with_weights(trips.pickups.clone(), trips.fares.clone());
    let mut dev = Device::nvidia();
    let count = aggregate::count_points_in_polygon(&mut dev, vp(), &batch, &q);
    let sum = aggregate::sum_points_in_polygon(&mut dev, vp(), &batch, &q);

    let expect_n = trips
        .pickups
        .iter()
        .filter(|p| q.contains_closed(**p))
        .count() as u64;
    let expect_s: f64 = trips
        .pickups
        .iter()
        .zip(&trips.fares)
        .filter(|(p, _)| q.contains_closed(**p))
        .map(|(_, f)| *f as f64)
        .sum();
    assert_eq!(count, expect_n);
    assert!((sum - expect_s).abs() < 1e-2 * expect_s.max(1.0));
}

#[test]
fn aggregation_resolution_independence() {
    // Exactness again: group counts cannot depend on the canvas grid.
    let trips = generate_trips(&extent(), 3_000, 4, 91);
    let zones: AreaSource = Arc::new(neighborhoods(&extent(), 9, 92));
    let batch = PointBatch::from_points(trips.pickups.clone());
    let mut results = Vec::new();
    for res in [64u32, 128, 512] {
        let v = Viewport::square_pixels(extent(), res);
        let mut dev = Device::nvidia();
        results.push(aggregate::aggregate_join_rasterjoin(&mut dev, v, &batch, &zones).counts);
    }
    assert_eq!(results[0], results[1]);
    assert_eq!(results[1], results[2]);
}

/// The oracle's world: points fill `[0, 100)²`, "far" polygons sit in
/// `[150, 250)²`, and the viewport covers both, so exactness never
/// depends on clipping.
fn oracle_vp() -> Viewport {
    Viewport::square_pixels(
        BBox::new(Point::new(-20.0, -20.0), Point::new(270.0, 270.0)),
        128,
    )
}

/// One convex quadrilateral per `(x, y, size)`, shifted by `offset`.
fn quads(specs: &[(f64, f64, f64)], offset: f64) -> Vec<Polygon> {
    specs
        .iter()
        .map(|&(x, y, side)| {
            let (x, y) = (x + offset, y + offset);
            Polygon::simple(vec![
                Point::new(x, y),
                Point::new(x + side, y + 0.3 * side),
                Point::new(x + 0.8 * side, y + side),
                Point::new(x - 0.2 * side, y + 0.6 * side),
            ])
            .unwrap()
        })
        .collect()
}

fn pip_pairs(points: &[Point], polys: &[Polygon]) -> Vec<(u32, u32)> {
    let mut out = Vec::new();
    for (j, poly) in polys.iter().enumerate() {
        for (i, &p) in points.iter().enumerate() {
            if poly.contains_closed(p) {
                out.push((i as u32, j as u32));
            }
        }
    }
    out
}

fn point_table(points: &[Point], weights: &[f32]) -> SpatialTable {
    let mut t = SpatialTable::new();
    for &p in points {
        t.push(GeomObject::point(p));
    }
    t.set_attr("w", weights.to_vec()).unwrap();
    t
}

fn polygon_table(polys: &[Polygon]) -> SpatialTable {
    let mut t = SpatialTable::new();
    for p in polys {
        t.push(GeomObject::polygon(p.clone()));
    }
    t
}

/// Passes `f` spends on `dev`.
fn passes<T>(dev: &mut Device, f: impl FnOnce(&mut Device) -> T) -> (T, u64) {
    let before = dev.stats().passes;
    let out = f(dev);
    (out, dev.stats().passes - before)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random point sets against random polygon tables — empty and
    /// single-record sides included, and polygons beyond every point —
    /// on one and two threads: Types I, II and III, the table joins and
    /// the aggregates equal brute force, and far polygons cost the
    /// Type I join no pass.
    #[test]
    fn joins_and_aggregates_match_brute_force(
        pts in prop::collection::vec((0.0f64..100.0, 0.0f64..100.0, 0.5f32..4.0), 0..80),
        near in prop::collection::vec((-10.0f64..100.0, -10.0f64..100.0, 2.0f64..40.0), 0..5),
        far in prop::collection::vec((0.0f64..80.0, 0.0f64..80.0, 2.0f64..20.0), 0..3),
        probes in prop::collection::vec((0.0f64..100.0, 0.0f64..100.0), 0..5),
        radius in 2.0f64..15.0,
    ) {
        let points: Vec<Point> = pts.iter().map(|&(x, y, _)| Point::new(x, y)).collect();
        let weights: Vec<f32> = pts.iter().map(|&(_, _, w)| w).collect();
        let near = quads(&near, 0.0);
        let polys: Vec<Polygon> = near.iter().cloned().chain(quads(&far, 150.0)).collect();
        let probes: Vec<Point> = probes.iter().map(|&(x, y)| Point::new(x, y)).collect();
        let batch = PointBatch::with_weights(points.clone(), weights.clone());
        let table: AreaSource = Arc::new(polys.clone());
        let vp = oracle_vp();

        let mut type1 = pip_pairs(&points, &polys);
        type1.sort_unstable_by_key(|&(p, y)| (y, p));
        let mut type2 = Vec::new();
        for (i, a) in polys.iter().enumerate() {
            for (j, b) in near.iter().enumerate() {
                if a.intersects(b) {
                    type2.push((i as u32, j as u32));
                }
            }
        }
        let mut type3 = Vec::new();
        for (j, c) in probes.iter().enumerate() {
            for (i, p) in points.iter().enumerate() {
                if p.dist(*c) <= radius {
                    type3.push((i as u32, j as u32));
                }
            }
        }
        let mut counts = vec![0u64; polys.len()];
        let mut sums = vec![0f64; polys.len()];
        for &(i, j) in &type1 {
            counts[j as usize] += 1;
            sums[j as usize] += weights[i as usize] as f64;
        }

        for threads in [1usize, 2] {
            let mut dev = if threads == 1 { Device::cpu() } else { Device::cpu_parallel(threads) };
            let dev = &mut dev;
            let (got, with_far) = passes(dev, |d| join::join_points_polygons(d, vp, &batch, &table));
            prop_assert_eq!(&got, &type1, "type I, {} threads", threads);
            let near_only: AreaSource = Arc::new(near.clone());
            let (got, near_passes) = passes(dev, |d| join::join_points_polygons(d, vp, &batch, &near_only));
            // No point reaches a far polygon, so dropping them changes
            // neither the pairs nor the work.
            prop_assert_eq!(&got, &type1);
            prop_assert_eq!(with_far, near_passes, "far polygons cost passes");

            let got = join::join_polygons_polygons(dev, vp, &table, &near_only);
            prop_assert_eq!(&got, &type2, "type II, {} threads", threads);
            let got = join::distance_join(dev, vp, &batch, &PointBatch::from_points(probes.clone()), radius);
            prop_assert_eq!(&got, &type3, "type III, {} threads", threads);

            let (ptab, ytab) = (point_table(&points, &weights), polygon_table(&polys));
            prop_assert_eq!(&ptab.join_points_in_polygons(dev, vp, &ytab).unwrap(), &type1);
            prop_assert_eq!(
                &ytab.join_intersecting_polygons(dev, vp, &polygon_table(&near)).unwrap(),
                &type2
            );
            let full = aggregate::aggregate_join_rasterjoin(dev, vp, &batch, &table);
            let pruned = aggregate::aggregate_join_rasterjoin_pruned(dev, vp, &batch, &table);
            let by_table = ptab.aggregate_points_in_polygons(dev, vp, &ytab, Some("w")).unwrap();
            prop_assert_eq!(&full.counts, &counts, "aggregate counts, {} threads", threads);
            for (g, want) in full.sums.iter().zip(&sums) {
                prop_assert!((g - want).abs() <= 1e-4 * want.max(1.0), "sum {} vs {}", g, want);
            }
            prop_assert_eq!(&pruned, &full);
            prop_assert_eq!(&by_table, &full);
        }
    }
}

// ---------------------------------------------------------------------
// The zone aggregate's entry form against the dense chain.
// ---------------------------------------------------------------------

/// The spec: `D*[γc](M[Mp(cond)](B[⊙](cp, r)))` composed by hand from
/// the public operators — the dense chain the planner's entry form
/// replaces.
fn dense_aggregate(
    cp: &Canvas,
    r: &Canvas,
    cond: CountCond,
    groups: u32,
    combine: BlendFn,
) -> Canvas {
    let mut dev = Device::cpu();
    let merged = blend(&mut dev, cp, r, BlendFn::PointOverArea);
    let kept = mask(&mut dev, &merged, &MaskSpec::PointInAreas(cond));
    map_scatter(
        &mut dev,
        &kept,
        &ValueMap::area_id_slot(),
        group_viewport(groups),
        combine,
    )
}

fn aggregate_plan(left: Expr, right: Expr, cond: CountCond, groups: u32, combine: BlendFn) -> Expr {
    Expr::map_scatter(
        ValueMap::area_id_slot(),
        groups,
        combine,
        Expr::mask(
            MaskSpec::PointInAreas(cond),
            Expr::blend(BlendFn::PointOverArea, left, right),
        ),
    )
}

/// Serves one canvas under one key: a layered `C_P` for the points leaf.
struct ServeOne(Fingerprint, Arc<Canvas>);

impl canvas_core::algebra::SubplanCache for ServeOne {
    fn get(&self, fp: Fingerprint, _: &Viewport) -> Option<Arc<Canvas>> {
        (fp == self.0).then(|| Arc::clone(&self.1))
    }

    fn publish(&self, _: Fingerprint, _: &Viewport, _: &Arc<Canvas>) {}
}

/// A quadrilateral with a quadrilateral hole, its corner at `(x, y)`.
fn holed_zone(x: f64, y: f64, side: f64) -> Polygon {
    let ring = |pts: [(f64, f64); 4]| {
        canvas_geom::polygon::Ring::new(
            pts.iter()
                .map(|&(u, v)| Point::new(x + u * side, y + v * side))
                .collect(),
        )
        .unwrap()
    };
    Polygon::new(
        ring([(0.0, 0.0), (1.0, 0.05), (0.95, 1.0), (0.02, 0.9)]),
        vec![ring([(0.3, 0.3), (0.7, 0.32), (0.66, 0.7), (0.28, 0.64)])],
    )
}

/// Clustered points over `[0, 100)²` — many share a pixel, so boundary
/// pixels hold several survivors — with weights mixing magnitudes whose
/// f32 sums round differently by summation order.
fn clustered_batch(seed: u64, n: usize) -> PointBatch {
    let mut state = seed.max(1);
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let magnitudes = [1.0f32, 3.0e-8, 16_777_216.0, 0.1, 7.0, 1.0e-3, 0.3];
    let (mut points, mut weights) = (Vec::new(), Vec::new());
    for _ in 0..n {
        let p = Point::new(next() * 100.0, next() * 100.0);
        for _ in 0..1 + (next() * 4.0) as usize {
            points.push(p + Point::new(next() * 1.5, next() * 1.5));
            weights.push(magnitudes[(next() * magnitudes.len() as f64) as usize]);
        }
    }
    PointBatch::with_weights(points, weights)
}

#[test]
fn zone_aggregate_entry_form_equals_the_dense_chain() {
    let vp = oracle_vp();
    // Overlapping quads, a holed zone overlapping them, and one zone
    // beyond every point.
    let mut zones = quads(
        &[
            (10.0, 10.0, 45.0),
            (30.0, 25.0, 50.0),
            (5.0, 50.0, 40.0),
            (60.0, 5.0, 30.0),
        ],
        0.0,
    );
    zones.push(holed_zone(20.0, 15.0, 60.0));
    zones.push(holed_zone(180.0, 180.0, 40.0));
    let table: AreaSource = Arc::new(zones.clone());
    let groups = zones.len() as u32;
    let rights = [
        ("C_Y*", Expr::polygon_set(table.clone(), BlendFn::AreaCount)),
        ("C_Y", Expr::polygon_record(table.clone(), 4, 2)),
        (
            "Circ",
            Expr::Source(SourceSpec::Circle {
                center: Point::new(50.0, 45.0),
                radius: 33.0,
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
            "HS",
            Expr::Source(SourceSpec::HalfSpace {
                a: 1.0,
                b: 0.7,
                c: -90.0,
                id: 5,
            }),
        ),
    ];
    let mut conds = Vec::new();
    for k in 0..=3 {
        conds.extend([CountCond::Eq(k), CountCond::Ge(k)]);
    }
    let data = Arc::new(clustered_batch(97, 900));
    // A 2-level `C_P`: the live heatmap of a prefix, patched with the
    // rest (the live path stacks the delta as a second level).
    let split = data.len() - data.len() / 6;
    let prefix = PointBatch {
        points: data.points[..split].to_vec(),
        ids: data.ids[..split].to_vec(),
        weights: data.weights[..split].to_vec(),
    };
    let mut dev = Device::cpu();
    let before = render_live_heatmap(&mut dev, vp, &prefix, None);
    let (layered, _) = patch_live_heatmap(&mut dev, vp, &before, &data, split, None);
    assert_eq!(layered.boundary().point_levels().len(), 2, "a layered C_P");
    let layered = Arc::new(layered);
    let flat = Arc::new(render_points(&mut dev, vp, &data));
    let points_key = Expr::points(data.clone()).fingerprint();

    let mut kept_somewhere = false;
    for threads in [1usize, 2, 3, 8] {
        let mut dev = if threads == 1 {
            Device::cpu()
        } else {
            Device::cpu_parallel(threads)
        };
        // Walk in bands on the pool however small the run is.
        dev.pool().set_min_work_override(1);
        for (name, right) in &rights {
            let r = right.eval(&mut Device::cpu(), vp);
            for &cond in &conds {
                for combine in [BlendFn::Accumulate, BlendFn::PointAccumulate] {
                    let plan = aggregate_plan(
                        Expr::points(data.clone()),
                        right.clone(),
                        cond,
                        groups,
                        combine,
                    );
                    assert!(canvas_core::algebra::entry_sink(&plan).is_some());
                    for (cp, layout) in [(&flat, "flat"), (&layered, "layered")] {
                        let ctx = format!(
                            "{layout} C_P over {name}, {cond:?}, {combine:?}, threads={threads}"
                        );
                        let serve = ServeOne(points_key, Arc::clone(cp));
                        let before = dev.stats();
                        let got = plan.eval_via(&mut dev, vp, Some(&serve));
                        let work = dev.stats().delta(&before);
                        assert_eq!(work.scatter_reads, 0, "{ctx}: no scatter pass");
                        let want = dense_aggregate(cp, &r, cond, groups, combine);
                        assert_same_canvas(&got, &want, &ctx);
                        kept_somewhere |= !want.is_empty();
                    }
                }
            }
        }
    }
    assert!(kept_somewhere, "the spec is not trivially empty");
}

/// The zone aggregate's walk reads a span-coded area canvas from its
/// row spans: over every area source kind drawn as spans, it equals the
/// same walk over the same canvas with its planes folded, for flat and
/// layered `C_P`, every condition and both combines, at threads
/// {1, 2, 3, 8}; the span canvas is never folded for it.
#[test]
fn zone_aggregate_walk_over_span_canvases_equals_the_folded_canvas() {
    use canvas_core::ops::mask::{scatter_point_entries_in_areas, PixelRule};
    let vp = oracle_vp();
    let mut zones = quads(
        &[(10.0, 10.0, 45.0), (30.0, 25.0, 50.0), (60.0, 5.0, 30.0)],
        0.0,
    );
    zones.push(holed_zone(20.0, 15.0, 60.0));
    let table: AreaSource = Arc::new(zones);
    let groups = table.len() as u32;
    let data = Arc::new(clustered_batch(101, 900));
    let split = data.len() - data.len() / 6;
    let prefix = PointBatch {
        points: data.points[..split].to_vec(),
        ids: data.ids[..split].to_vec(),
        weights: data.weights[..split].to_vec(),
    };
    let mut conds = Vec::new();
    for k in 0..=3 {
        conds.extend([CountCond::Eq(k), CountCond::Ge(k)]);
    }
    let gamma = ValueMap::area_id_slot();
    for threads in [1usize, 2, 3, 8] {
        let mut dev = match threads {
            1 => Device::cpu(),
            n => Device::cpu_parallel(n),
        };
        dev.pool().set_min_work_override(1);
        let before = render_live_heatmap(&mut dev, vp, &prefix, None);
        let (layered, _) = patch_live_heatmap(&mut dev, vp, &before, &data, split, None);
        let flat = render_points(&mut dev, vp, &data);
        let rights = [
            (
                "C_Y*",
                render_polygon_set(&mut dev, vp, &table, BlendFn::AreaCount),
            ),
            ("C_Y", render_polygon(&mut dev, vp, &table, 3, 2)),
            (
                "Circ",
                circle_canvas(&mut dev, vp, Point::new(50.0, 45.0), 33.0, 3),
            ),
            (
                "Rect",
                rect_canvas(
                    &mut dev,
                    vp,
                    Point::new(12.3, 20.7),
                    Point::new(77.1, 64.9),
                    1,
                ),
            ),
            ("HS", halfspace_canvas(&mut dev, vp, 1.0, 0.7, -90.0, 5)),
        ];
        for (name, spans) in &rights {
            let folded = spans.clone();
            folded.texels();
            assert!(
                spans.spans().is_some() && folded.spans().is_none(),
                "{name}"
            );
            for (cp, layout) in [(&flat, "flat"), (&layered, "layered")] {
                for &cond in &conds {
                    for combine in [BlendFn::Accumulate, BlendFn::PointAccumulate] {
                        let ctx = format!(
                            "{layout} C_P over {name}, {cond:?}, {combine:?}, threads={threads}"
                        );
                        let rule = PixelRule::PointInAreas(cond);
                        let walk = |r: &Canvas| {
                            let groups = group_viewport(groups);
                            scatter_point_entries_in_areas(
                                &dev, cp, r, rule, &gamma, groups, combine,
                            )
                        };
                        assert_same_canvas(&walk(spans), &walk(&folded), &ctx);
                    }
                }
            }
            assert!(
                !spans.planes_materialized(),
                "{name}: the walk read no plane"
            );
        }
    }
}

#[test]
fn rejected_shapes_stay_dense() {
    let vp = oracle_vp();
    let zones: AreaSource = Arc::new(quads(&[(10.0, 10.0, 45.0), (30.0, 25.0, 50.0)], 0.0));
    let data = Arc::new(clustered_batch(5, 300));
    let other = Arc::new(clustered_batch(6, 300));
    let mut dev = Device::cpu();
    let cp = render_points(&mut dev, vp, &data);
    let cy = render_polygon_set(&mut dev, vp, &zones, BlendFn::AreaCount);
    // A right operand carrying point entries (the trap: the dense mask
    // keeps them, the walk would not see them), and a literal left.
    let other_points = render_points(&mut dev, vp, &other);
    let with_points = blend(&mut dev, &other_points, &cy, BlendFn::Over);
    let cases = [
        (
            "points in the right operand",
            Expr::points(data.clone()),
            Expr::literal(with_points.clone()),
            &cp,
            &with_points,
        ),
        (
            "literal left operand",
            Expr::literal(cp.clone()),
            Expr::polygon_set(zones.clone(), BlendFn::AreaCount),
            &cp,
            &cy,
        ),
    ];
    for (name, left, right, cp, r) in cases {
        let plan = aggregate_plan(left, right, CountCond::Ge(1), 2, BlendFn::Accumulate);
        assert!(canvas_core::algebra::entry_sink(&plan).is_none(), "{name}");
        let before = dev.stats();
        let got = plan.eval(&mut dev, vp);
        assert!(
            dev.stats().delta(&before).scatter_reads > 0,
            "{name}: the dense scatter ran"
        );
        let want = dense_aggregate(cp, r, CountCond::Ge(1), 2, BlendFn::Accumulate);
        assert_same_canvas(&got, &want, name);
        assert!(!want.is_empty(), "{name}: non-trivial");
    }
}
