//! Spatial aggregation queries (paper Sections 4.3 and 5.2).
//!
//! Two shapes:
//!
//! * **aggregation over a select** (Figure 7):
//!   `C_count ← B*[+](G[γc](C_result))` — the masked selection result is
//!   scattered to a per-group slot and accumulated,
//! * **group-by over a join** — the same expression with the selection
//!   replaced by the join, and, following RasterJoin (Section 5.2), the
//!   much cheaper plan that *first* merges all points into one density
//!   canvas of partial aggregates:
//!   `C_count ← B*[+](D*[γc](M[Mp](B[⊙](B*[+](C_P)), C_Y)))`.
//!
//! COUNT uses the `v1` slot, SUM the `v2` slot (the third element of the
//! object-information tuple, as in Section 4.3's `SUM(A)` example); AVG
//! is their quotient, MIN/MAX fold over the exact point entries.

use crate::canvas::{AreaSource, PointBatch};
use crate::device::Device;
use crate::info::BlendFn;
use crate::ops::{group_viewport, map_scatter, CountCond, MaskSpec, ValueMap};
use canvas_geom::polygon::Polygon;
use canvas_raster::Viewport;

/// Per-group aggregates from a group-by query.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct GroupAggregates {
    /// `counts[g]` = number of points in group `g`.
    pub counts: Vec<u64>,
    /// `sums[g]` = sum of point weights in group `g`.
    pub sums: Vec<f64>,
}

impl GroupAggregates {
    pub fn avg(&self, g: usize) -> Option<f64> {
        let n = *self.counts.get(g)? as f64;
        if n == 0.0 {
            None
        } else {
            Some(self.sums[g] / n)
        }
    }
}

/// `SELECT COUNT(*) FROM D_P WHERE Location INSIDE Q` (Figure 7 plan).
pub fn count_points_in_polygon(
    dev: &mut Device,
    vp: Viewport,
    data: &PointBatch,
    q: &Polygon,
) -> u64 {
    let sel = super::selection::select_points_in_polygon(dev, vp, data, q);
    // G[γc] scatters every surviving texel to the query polygon's group
    // slot (its id is 1); B*[+] accumulation happens inside the scatter.
    let groups = map_scatter(
        dev,
        &sel.canvas,
        &ValueMap::area_id_slot(),
        group_viewport(2),
        BlendFn::Accumulate,
    );
    groups.texel(1, 0).get(0).map(|i| i.v1 as u64).unwrap_or(0)
}

/// `SELECT SUM(w) FROM D_P WHERE Location INSIDE Q` — same plan, reading
/// the `v2` accumulator (Section 4.3's SUM formulation).
pub fn sum_points_in_polygon(
    dev: &mut Device,
    vp: Viewport,
    data: &PointBatch,
    q: &Polygon,
) -> f64 {
    let sel = super::selection::select_points_in_polygon(dev, vp, data, q);
    let groups = map_scatter(
        dev,
        &sel.canvas,
        &ValueMap::area_id_slot(),
        group_viewport(2),
        BlendFn::Accumulate,
    );
    groups
        .texel(1, 0)
        .get(0)
        .map(|i| i.v2 as f64)
        .unwrap_or(0.0)
}

/// MIN/MAX over the selected points' weights — distributive aggregates
/// folded over the exact point entries of the result canvas.
pub fn minmax_points_in_polygon(
    dev: &mut Device,
    vp: Viewport,
    data: &PointBatch,
    q: &Polygon,
) -> Option<(f32, f32)> {
    let sel = super::selection::select_points_in_polygon(dev, vp, data, q);
    sel.canvas
        .boundary()
        .points()
        .map(|e| e.weight)
        .fold(None, |acc, w| match acc {
            None => Some((w, w)),
            Some((lo, hi)) => Some((lo.min(w), hi.max(w))),
        })
}

/// Group-by count over a Type I join, RasterJoin style (Section 5.2):
///
/// ```text
/// C_count ← B*[+](D*[γc](M[Mp](B[⊙](B*[+](C_P), C_Y))))
/// ```
///
/// All points are merged **once** into a density canvas whose pixels
/// hold partial aggregates (count in `v1`, weight sum in `v2`) — "the
/// size of the input for the join is drastically reduced". The
/// blend–mask–scatter chain over the polygon table then executes as a
/// *single instanced polygon draw* whose fragment shader reads the
/// density texel, exactly RasterJoin's kernel: interior fragments add
/// the pixel's partial aggregate to their polygon's slot, conservative
/// boundary fragments refine per exact point location (charged to the
/// device as compute edge tests).
///
/// The fragment kernel runs **chunk-parallel on the device's worker
/// pool**: contiguous polygon chunks are claimed by executors, each
/// accumulating into its own per-record slots (a record's fragments are
/// visited by exactly one executor, in the sequential emission order),
/// and the chunks stitch back in order — so counts *and* float sums are
/// bit-identical to the sequential run at any thread count.
pub fn aggregate_join_rasterjoin(
    dev: &mut Device,
    vp: Viewport,
    points: &PointBatch,
    polygons: &AreaSource,
) -> GroupAggregates {
    let n = polygons.len();
    let mut out = GroupAggregates {
        counts: vec![0; n],
        sums: vec![0.0; n],
    };
    if n == 0 || points.is_empty() {
        return out;
    }
    // B*[+](C_P): one canvas of partial aggregates.
    let density = crate::source::render_points(dev, vp, points);
    // Fused B[⊙] + M[Mp] + D*[γc] over the whole polygon table.
    rasterjoin_kernel(dev, vp, &density, polygons, None, &mut out);
    out
}

/// The RasterJoin fragment kernel shared by the unfiltered and
/// index-pruned plans (their aggregates are contractually
/// bit-identical, so the kernel exists exactly once): chunk-parallel
/// fragment visitation, interior fragments folding the density partial
/// aggregates, conservative boundary fragments refining per exact point
/// entry. With `records = Some(subset)` only `polys[subset[k]]` are
/// rasterized (no cloning — the pipeline's indexed visitor walks the
/// originals) and each position's aggregates land in the record's
/// global slot of `out`.
fn rasterjoin_kernel(
    dev: &mut Device,
    vp: Viewport,
    density: &crate::canvas::Canvas,
    polys: &[Polygon],
    records: Option<&[u32]>,
    out: &mut GroupAggregates,
) {
    let width = vp.width();
    let sel = move |k: usize| records.map_or(k, |r| r[k] as usize);
    let n = records.map_or(polys.len(), <[u32]>::len);
    dev.pipeline().note_upload(
        (0..n)
            .map(|k| (polys[sel(k)].num_vertices() * 16) as u64)
            .sum(),
    );
    /// Per-chunk partial aggregates (slots for `range` only).
    struct ChunkAcc {
        range: std::ops::Range<usize>,
        counts: Vec<u64>,
        sums: Vec<f64>,
        refine_edges: u64,
    }
    let init = |range: std::ops::Range<usize>| ChunkAcc {
        counts: vec![0; range.len()],
        sums: vec![0.0; range.len()],
        range,
        refine_edges: 0,
    };
    let visit = |acc: &mut ChunkAcc, record: u32, frag: canvas_raster::Frag| {
        let j = record as usize;
        let local = j - acc.range.start;
        if frag.boundary {
            // Boundary pixel: exact per-point refinement against the
            // vector polygon (the hybrid-index contract).
            let pixel = frag.y * width + frag.x;
            let poly = &polys[sel(j)];
            for e in density.boundary().points_at(pixel) {
                acc.refine_edges += poly.num_vertices() as u64;
                if poly.contains_closed(e.loc) {
                    acc.counts[local] += 1;
                    acc.sums[local] += e.weight as f64;
                }
            }
        } else if let Some(info) = density.texel(frag.x, frag.y).get(0) {
            // Uniform interior pixel: the whole pixel is inside, so
            // the partial aggregate applies wholesale.
            acc.counts[local] += info.v1 as u64;
            acc.sums[local] += info.v2 as f64;
        }
    };
    let chunks = match records {
        None => dev
            .pipeline()
            .visit_polygon_fragments(&vp, polys, true, init, visit),
        Some(r) => dev
            .pipeline()
            .visit_polygon_fragments_indexed(&vp, polys, r, true, init, visit),
    };
    let mut refine_edges = 0u64;
    for acc in chunks {
        for (k, (&c, &s)) in acc.counts.iter().zip(&acc.sums).enumerate() {
            let global = sel(acc.range.start + k);
            out.counts[global] = c;
            out.sums[global] = s;
        }
        refine_edges += acc.refine_edges;
    }
    dev.pipeline().note_compute_edge_tests(refine_edges);
}

/// Index-accelerated RasterJoin (ROADMAP "Index-accelerated
/// aggregation"): [`aggregate_join_rasterjoin`] with an **MBR
/// pre-filter** served by a CSR grid index over the point side —
/// polygons whose MBR holds no candidate points are pruned before any
/// rasterization (their aggregates are exactly zero), so the fragment
/// kernel only walks polygons that can contribute.
///
/// The density **pre-render goes through a fused chain**
/// ([`run_points_chain`](crate::ops::chain::run_points_chain)): a Value
/// stage nulls density texels outside the surviving polygons' union
/// MBR (inflated by one pixel) *in-stream*, tile by tile, so the
/// restricted density canvas never exists in an intermediate
/// materialized form. This is safe for exactness: interior fragments
/// read the density texel only at pixels whose **center** lies inside
/// their polygon — hence inside the union MBR, where the Value stage is
/// the identity — and boundary fragments refine against the exact
/// point entries, which the chain keeps untouched. Bit-identical
/// aggregates to the unfiltered kernel (asserted in tests).
pub fn aggregate_join_rasterjoin_pruned(
    dev: &mut Device,
    vp: Viewport,
    points: &PointBatch,
    polygons: &AreaSource,
    index: &canvas_geom::grid::GridIndex,
) -> GroupAggregates {
    let n = polygons.len();
    let mut out = GroupAggregates {
        counts: vec![0; n],
        sums: vec![0.0; n],
    };
    if n == 0 || points.is_empty() {
        return out;
    }
    // Filter step: the grid index returns a superset of the points in
    // each polygon's MBR, so an empty candidate set proves the
    // polygon's aggregates are zero.
    // `query_iter` short-circuits on the first candidate — the test is
    // pure emptiness, so the collect/sort/dedup of `query` is waste.
    let survivors: Vec<u32> = polygons
        .iter()
        .enumerate()
        .filter(|(_, p)| index.query_iter(&p.bbox()).next().is_some())
        .map(|(j, _)| j as u32)
        .collect();
    if survivors.is_empty() {
        return out;
    }
    let mut region = canvas_geom::BBox::EMPTY;
    for &j in &survivors {
        region = region.union(&polygons[j as usize].bbox());
    }
    // One pixel of slack so floating-point edge cases at the MBR rim
    // can never clip a pixel center the kernel reads.
    let pixel_pad = (vp.world().width() / vp.width().max(1) as f64)
        .max(vp.world().height() / vp.height().max(1) as f64);
    let region = region.inflated(pixel_pad);
    let chain = crate::ops::chain::CanvasChain::new().value(move |p, t| {
        if region.contains(p) {
            t
        } else {
            crate::info::Texel::null()
        }
    });
    let density = crate::ops::chain::run_points_chain(dev, vp, points, &chain).canvas;

    rasterjoin_kernel(dev, vp, &density, polygons, Some(&survivors), &mut out);
    out
}

/// The same query evaluated literally as the algebra expression — one
/// blend + mask + scatter chain per polygon canvas. Semantically
/// identical to [`aggregate_join_rasterjoin`]; kept as the unfused plan
/// the fused kernel is checked and costed against (this module's tests
/// and `tests/join_aggregate_equivalence.rs`).
pub fn aggregate_join_blend_plan(
    dev: &mut Device,
    vp: Viewport,
    points: &PointBatch,
    polygons: &AreaSource,
) -> GroupAggregates {
    let n = polygons.len();
    let mut out = GroupAggregates {
        counts: vec![0; n],
        sums: vec![0.0; n],
    };
    if n == 0 || points.is_empty() {
        return out;
    }
    let density = crate::source::render_points(dev, vp, points);
    let gvp = group_viewport(n as u32);
    for j in 0..n {
        let cy = crate::source::render_polygon(dev, vp, polygons, j, j as u32);
        let merged = crate::ops::blend(dev, &density, &cy, BlendFn::PointOverArea);
        let masked = crate::ops::mask(dev, &merged, &MaskSpec::PointInAreas(CountCond::Ge(1)));
        let slots = map_scatter(
            dev,
            &masked,
            &ValueMap::area_id_slot(),
            gvp,
            BlendFn::Accumulate,
        );
        if let Some(info) = slots.texel(j as u32, 0).get(0) {
            out.counts[j] = info.v1 as u64;
            out.sums[j] = info.v2 as f64;
        }
    }
    out
}

/// The traditional plan: materialize the join result, then aggregate
/// (the strategy RasterJoin improves on — kept for the E6 plan
/// comparison).
pub fn aggregate_join_materialized(
    dev: &mut Device,
    vp: Viewport,
    points: &PointBatch,
    polygons: &AreaSource,
) -> GroupAggregates {
    let pairs = super::join::join_points_polygons(dev, vp, points, polygons);
    let n = polygons.len();
    let mut out = GroupAggregates {
        counts: vec![0; n],
        sums: vec![0.0; n],
    };
    for (p, y) in pairs {
        out.counts[y as usize] += 1;
        out.sums[y as usize] += points.weights[p as usize] as f64;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use canvas_geom::{BBox, Point};
    use std::sync::Arc;

    fn vp() -> Viewport {
        Viewport::new(
            BBox::new(Point::new(0.0, 0.0), Point::new(100.0, 100.0)),
            64,
            64,
        )
    }

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

    fn square(x0: f64, y0: f64, side: f64) -> Polygon {
        Polygon::simple(vec![
            Point::new(x0, y0),
            Point::new(x0 + side, y0),
            Point::new(x0 + side, y0 + side),
            Point::new(x0, y0 + side),
        ])
        .unwrap()
    }

    #[test]
    fn count_matches_brute_force() {
        let mut dev = Device::nvidia();
        let pts = random_points(500, 21);
        let q = square(20.0, 20.0, 45.0);
        let expect = pts.iter().filter(|p| q.contains_closed(**p)).count() as u64;
        let got = count_points_in_polygon(&mut dev, vp(), &PointBatch::from_points(pts), &q);
        assert_eq!(got, expect);
        assert!(expect > 0);
    }

    #[test]
    fn sum_matches_brute_force() {
        let mut dev = Device::nvidia();
        let pts = random_points(300, 77);
        let weights: Vec<f32> = (0..pts.len()).map(|i| (i % 10) as f32).collect();
        let q = square(10.0, 30.0, 50.0);
        let expect: f64 = pts
            .iter()
            .zip(&weights)
            .filter(|(p, _)| q.contains_closed(**p))
            .map(|(_, w)| *w as f64)
            .sum();
        let got =
            sum_points_in_polygon(&mut dev, vp(), &PointBatch::with_weights(pts, weights), &q);
        assert_eq!(got, expect);
    }

    #[test]
    fn minmax_over_selection() {
        let mut dev = Device::nvidia();
        let pts = vec![
            Point::new(25.0, 25.0),
            Point::new(30.0, 30.0),
            Point::new(90.0, 90.0), // outside
        ];
        let weights = vec![5.0, 2.0, 100.0];
        let q = square(20.0, 20.0, 20.0);
        let mm =
            minmax_points_in_polygon(&mut dev, vp(), &PointBatch::with_weights(pts, weights), &q);
        assert_eq!(mm, Some((2.0, 5.0)));
    }

    #[test]
    fn minmax_empty_selection() {
        let mut dev = Device::nvidia();
        let pts = vec![Point::new(90.0, 90.0)];
        let q = square(10.0, 10.0, 20.0);
        let mm = minmax_points_in_polygon(&mut dev, vp(), &PointBatch::from_points(pts), &q);
        assert_eq!(mm, None);
    }

    #[test]
    fn rasterjoin_group_by_matches_brute_force() {
        let mut dev = Device::nvidia();
        let pts = random_points(400, 33);
        let weights: Vec<f32> = (0..pts.len()).map(|i| 1.0 + (i % 5) as f32).collect();
        let polys: AreaSource = Arc::new(vec![
            square(5.0, 5.0, 40.0),
            square(50.0, 50.0, 45.0),
            square(30.0, 30.0, 40.0), // overlaps both
        ]);
        let batch = PointBatch::with_weights(pts.clone(), weights.clone());
        let got = aggregate_join_rasterjoin(&mut dev, vp(), &batch, &polys);
        for (j, poly) in polys.iter().enumerate() {
            let expect_n = pts.iter().filter(|p| poly.contains_closed(**p)).count() as u64;
            let expect_s: f64 = pts
                .iter()
                .zip(&weights)
                .filter(|(p, _)| poly.contains_closed(**p))
                .map(|(_, w)| *w as f64)
                .sum();
            assert_eq!(got.counts[j], expect_n, "count group {j}");
            assert!(
                (got.sums[j] - expect_s).abs() < 1e-3,
                "sum group {j}: {} vs {expect_s}",
                got.sums[j]
            );
        }
    }

    #[test]
    fn rasterjoin_equals_materialized_plan() {
        // Three plans for the same query must agree (Section 7's plan-
        // choice argument depends on it).
        let mut dev = Device::nvidia();
        let pts = random_points(250, 55);
        let polys: AreaSource = Arc::new(vec![square(10.0, 10.0, 35.0), square(40.0, 45.0, 50.0)]);
        let batch = PointBatch::from_points(pts);
        let a = aggregate_join_rasterjoin(&mut dev, vp(), &batch, &polys);
        let b = aggregate_join_materialized(&mut dev, vp(), &batch, &polys);
        let c = aggregate_join_blend_plan(&mut dev, vp(), &batch, &polys);
        assert_eq!(a, b);
        assert_eq!(a, c);
    }

    #[test]
    fn fused_rasterjoin_cheaper_than_blend_plan() {
        // The fusion must reduce modeled cost (fewer passes, no
        // full-screen blends per polygon).
        let pts = random_points(2000, 99);
        let polys: AreaSource = Arc::new(vec![
            square(5.0, 5.0, 40.0),
            square(50.0, 5.0, 40.0),
            square(5.0, 50.0, 40.0),
            square(50.0, 50.0, 40.0),
        ]);
        let batch = PointBatch::from_points(pts);
        let mut dev_fused = Device::nvidia();
        let a = aggregate_join_rasterjoin(&mut dev_fused, vp(), &batch, &polys);
        let mut dev_plan = Device::nvidia();
        let b = aggregate_join_blend_plan(&mut dev_plan, vp(), &batch, &polys);
        assert_eq!(a, b);
        assert!(
            dev_fused.modeled_time() < dev_plan.modeled_time(),
            "fused {} vs unfused {}",
            dev_fused.modeled_time(),
            dev_plan.modeled_time()
        );
    }

    #[test]
    fn rasterjoin_bit_identical_across_thread_counts() {
        // The chunk-parallel fragment kernel must reproduce the
        // sequential counts AND float sums exactly — each record's
        // fragments fold on one executor in sequential order.
        let pts = random_points(800, 7);
        let weights: Vec<f32> = (0..pts.len())
            .map(|i| 0.1 + (i % 13) as f32 * 0.7)
            .collect();
        let polys: AreaSource = Arc::new(vec![
            square(5.0, 5.0, 40.0),
            square(50.0, 50.0, 45.0),
            square(30.0, 30.0, 40.0),
            square(10.0, 60.0, 25.0),
            square(60.0, 10.0, 25.0),
        ]);
        let batch = PointBatch::with_weights(pts, weights);
        let mut seq_dev = Device::cpu();
        let reference = aggregate_join_rasterjoin(&mut seq_dev, vp(), &batch, &polys);
        for threads in [2usize, 3, 8] {
            let mut dev = Device::cpu_parallel(threads);
            let got = aggregate_join_rasterjoin(&mut dev, vp(), &batch, &polys);
            assert_eq!(reference.counts, got.counts, "counts at {threads} threads");
            // Bit-identical floats, not approximate.
            let a: Vec<u64> = reference.sums.iter().map(|s| s.to_bits()).collect();
            let b: Vec<u64> = got.sums.iter().map(|s| s.to_bits()).collect();
            assert_eq!(a, b, "sums diverge at {threads} threads");
            assert_eq!(seq_dev.stats(), dev.stats(), "stats at {threads} threads");
        }
    }

    #[test]
    fn pruned_rasterjoin_equals_unfiltered() {
        // The MBR pre-filter (grid index over the point side) plus the
        // chain-restricted density pre-render must reproduce the
        // unfiltered kernel bit-for-bit — including polygons whose MBR
        // holds no points at all (pruned, exactly zero).
        // Points concentrated in the lower-left quadrant so an
        // in-viewport polygon can still be point-free (prunable).
        let pts: Vec<Point> = random_points(500, 13)
            .into_iter()
            .map(|p| Point::new(p.x * 0.4, p.y * 0.4))
            .collect();
        let weights: Vec<f32> = (0..pts.len()).map(|i| 0.5 + (i % 7) as f32).collect();
        let polys: AreaSource = Arc::new(vec![
            square(5.0, 5.0, 20.0),
            square(20.0, 20.0, 18.0),
            square(10.0, 25.0, 20.0),
            // Inside the viewport but holding no points: the MBR filter
            // prunes it, so its fragments are never rasterized (the
            // unfiltered kernel walks them all).
            square(60.0, 60.0, 30.0),
        ]);
        let batch = PointBatch::with_weights(pts.clone(), weights);
        // Grid index over the point side (what SpatialTable::grid_index
        // builds for a point table).
        let extent = pts
            .iter()
            .fold(canvas_geom::BBox::EMPTY, |b, p| b.union_point(*p))
            .inflated(1e-9);
        let mut builder =
            canvas_geom::grid::GridIndexBuilder::with_target_occupancy(extent, pts.len().max(1), 2);
        for (i, p) in pts.iter().enumerate() {
            builder.insert(i as u32, &canvas_geom::BBox::new(*p, *p));
        }
        let index = builder.build();

        for threads in [1usize, 3] {
            let mut dev_ref = Device::cpu_parallel(threads);
            let reference = aggregate_join_rasterjoin(&mut dev_ref, vp(), &batch, &polys);
            let mut dev = Device::cpu_parallel(threads);
            let got = aggregate_join_rasterjoin_pruned(&mut dev, vp(), &batch, &polys, &index);
            assert_eq!(reference.counts, got.counts, "counts at {threads} threads");
            let a: Vec<u64> = reference.sums.iter().map(|s| s.to_bits()).collect();
            let b: Vec<u64> = got.sums.iter().map(|s| s.to_bits()).collect();
            assert_eq!(a, b, "sums diverge at {threads} threads");
            assert_eq!(got.counts[3], 0, "pruned polygon aggregates to zero");
            // The pre-filter must cut real work: fewer fragments walked.
            assert!(
                dev.stats().fragments < dev_ref.stats().fragments,
                "pruned kernel should rasterize less: {} vs {}",
                dev.stats().fragments,
                dev_ref.stats().fragments
            );
        }
    }

    #[test]
    fn pruned_rasterjoin_all_pruned_and_empty_inputs() {
        let pts = random_points(50, 3);
        let extent = pts
            .iter()
            .fold(canvas_geom::BBox::EMPTY, |b, p| b.union_point(*p))
            .inflated(1e-9);
        let mut builder =
            canvas_geom::grid::GridIndexBuilder::with_target_occupancy(extent, pts.len(), 2);
        for (i, p) in pts.iter().enumerate() {
            builder.insert(i as u32, &canvas_geom::BBox::new(*p, *p));
        }
        let index = builder.build();
        let far: AreaSource = Arc::new(vec![Polygon::simple(vec![
            Point::new(900.0, 900.0),
            Point::new(910.0, 900.0),
            Point::new(905.0, 910.0),
        ])
        .unwrap()]);
        let mut dev = Device::cpu();
        let g = aggregate_join_rasterjoin_pruned(
            &mut dev,
            vp(),
            &PointBatch::from_points(pts),
            &far,
            &index,
        );
        assert_eq!(g.counts, vec![0]);
        assert_eq!(g.sums, vec![0.0]);
        // Nothing survived: no polygon rasterization at all.
        assert_eq!(dev.stats().fragments, 0);
        let g = aggregate_join_rasterjoin_pruned(
            &mut dev,
            vp(),
            &PointBatch::from_points(vec![]),
            &far,
            &index,
        );
        assert_eq!(g.counts, vec![0]);
    }

    #[test]
    fn avg_helper() {
        let g = GroupAggregates {
            counts: vec![4, 0],
            sums: vec![10.0, 0.0],
        };
        assert_eq!(g.avg(0), Some(2.5));
        assert_eq!(g.avg(1), None);
        assert_eq!(g.avg(9), None);
    }

    #[test]
    fn empty_inputs_give_zero_groups() {
        let mut dev = Device::nvidia();
        let empty: AreaSource = Arc::new(vec![]);
        let batch = PointBatch::from_points(random_points(10, 9));
        let g = aggregate_join_rasterjoin(&mut dev, vp(), &batch, &empty);
        assert!(g.counts.is_empty());
        let polys: AreaSource = Arc::new(vec![square(0.0, 0.0, 10.0)]);
        let g = aggregate_join_rasterjoin(&mut dev, vp(), &PointBatch::from_points(vec![]), &polys);
        assert_eq!(g.counts, vec![0]);
    }
}
