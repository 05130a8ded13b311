//! Heatmaps: the density views of a polygonal selection and of a
//! polygon table, each finished by a log Value Transform.
//!
//! The selection heatmap is the Section 4.1 selection shape with a
//! coarse mask and a Value Transform finisher:
//!
//! ```text
//! C_heat ← V[log](M[point ∧ area](B[⊙](C_P, C_Q)))
//! ```
//!
//! The mask is the *texel* mask `M[point ∧ area]`: a pixel survives
//! when it holds a point and lies inside the query polygon at pixel
//! resolution — a heatmap is a pixel-resolution product, so the exact
//! point refinement of the selection's `Mp'` is not needed. The Value
//! Transform rewrites each surviving pixel's intensity to
//! `ln(1 + count)` so dense pixels don't saturate the color ramp.
//!
//! Every surviving pixel holds a point, so the plan runs as the mask's
//! entry walk ([`select_point_entries_in_areas`] with
//! [`PixelRule::PointAndArea`] and [`ValueTag::HeatLog`]): one pass
//! over `C_P`'s point run against `C_Q` writes the kept pixels, their
//! entries and `C_Q`'s area entries there into an empty canvas — no
//! blend, mask or value pass over the planes. With a subplan cache both
//! operands are the plan leaves a `SelectPoints` over the same handle
//! and polygon evaluates, so after that selection the heatmap draws
//! nothing. [`selection_heatmap_materialized`] runs the identical plan
//! as separate whole-canvas passes, the reference the equivalence
//! harnesses hold the walk to.
//!
//! The choropleth ([`polygon_density_heatmap`]) is the polygon-table
//! sibling, `V[log](M[inside ∧ ≥1](B[⊕](C_Y*, C_tag)))`. Its `C_Y*` is the
//! same `C_Y*[table, ⊕]` plan leaf a zone aggregate renders, so it is
//! taken from (or published to) the subplan cache, and the chain runs
//! over it with [`run_canvas_chain`].

use crate::algebra::subplan::{acquire_or_render, SubplanCache};
use crate::algebra::{fingerprint, Expr, FingerprintBuilder};
use crate::canvas::{AreaSource, Canvas, PointBatch};
use crate::device::Device;
use crate::info::{BlendFn, Texel};
use crate::ops::chain::{apply_chain_materialized, run_canvas_chain, CanvasChain};
use crate::ops::mask::{select_point_entries_in_areas, PixelRule};
use crate::queries::selection::shared_points_canvas;
use crate::source::{render_points, render_polygon_set, render_polygon_with, render_query_polygon};
use canvas_geom::polygon::Polygon;
use canvas_raster::{MaskTag, ValueTag, Viewport};
use std::sync::Arc;

/// `C_heat ← V[log](M[point ∧ area](B[⊙](C_P, C_Q)))` by the entry walk
/// (see module docs). Surviving pixels carry `ln(1 + count)` in the
/// 0-row's `v2` slot (raw count stays in `v1`).
pub fn selection_heatmap(dev: &mut Device, vp: Viewport, data: &PointBatch, q: &Polygon) -> Canvas {
    let cp = render_points(dev, vp, data);
    let cq = render_query_polygon(dev, vp, q.clone(), 1);
    heat_walk(dev, &cp, &cq)
}

/// [`selection_heatmap`] with a [`SubplanCache`] for both operands:
/// `C_P` under the plan leaf `Expr::points(data)`
/// ([`shared_points_canvas`]) and `C_Q` under
/// `Expr::query_polygon(q, 1)` — the leaves of the `SelectPoints` plan
/// over the same handle and polygon. Bit-identical to
/// [`selection_heatmap`] whatever the cache serves.
pub fn selection_heatmap_via(
    dev: &mut Device,
    vp: Viewport,
    data: &Arc<PointBatch>,
    q: &Polygon,
    cache: Option<&dyn SubplanCache>,
) -> Canvas {
    let cp = shared_points_canvas(dev, vp, data, cache);
    let fp = fingerprint(&Expr::query_polygon(q.clone(), 1));
    let cq = acquire_or_render(cache, fp, &vp, || {
        render_query_polygon(dev, vp, q.clone(), 1)
    });
    heat_walk(dev, &cp, &cq)
}

/// The heatmap over its two operands, as the entry walk.
fn heat_walk(dev: &Device, cp: &Canvas, cq: &Canvas) -> Canvas {
    let heat = Some(ValueTag::HeatLog);
    select_point_entries_in_areas(dev, cp, cq, PixelRule::PointAndArea, heat)
}

/// The identical plan executed as separate whole-canvas operator
/// passes — the materialized reference for the equivalence harnesses.
pub fn selection_heatmap_materialized(
    dev: &mut Device,
    vp: Viewport,
    data: &PointBatch,
    q: &Polygon,
) -> Canvas {
    let cq = render_query_polygon(dev, vp, q.clone(), 1);
    let chain = CanvasChain::new()
        .blend(&cq, BlendFn::PointOverArea)
        .mask_tagged("point ∧ area", MaskTag::PointAndArea)
        .value_tagged(ValueTag::HeatLog);
    let cp = render_points(dev, vp, data);
    apply_chain_materialized(dev, cp, &chain)
}

// ---------------------------------------------------------------------
// Polygon-density (choropleth) heatmap — a chain over the table canvas.
// ---------------------------------------------------------------------

/// Count tag rendered into the query-region canvas: far above any real
/// overlap count (f32 holds integers exactly to 2²⁴), so after the
/// `⊕` blend a pixel's 2-row count decomposes as
/// `inside_query · TAG + polygon_count`. This is the canvas-algebra
/// trick of encoding a constraint in the value rows — the same coarse
/// (texel-level) resolution argument as the selection heatmap applies:
/// a heatmap is a pixel-resolution product.
const QUERY_TAG: f32 = (1u32 << 20) as f32;

/// The choropleth chain over a tag-rendered query-region canvas:
/// `V[log](M[inside ∧ dense](B[⊕](C_Y*, C_tag)))`.
fn density_chain(ctag: &Canvas) -> CanvasChain<'_> {
    CanvasChain::new()
        .blend(ctag, BlendFn::AreaCount)
        .mask_tagged(
            "inside query ∧ ≥1 polygon",
            MaskTag::AreaV1Above {
                threshold: QUERY_TAG,
            },
        )
        .value_tagged(ValueTag::DensityLog { tag: QUERY_TAG })
}

/// Renders the query region with the count tag (id `u32::MAX` so it can
/// never shadow a table record id).
fn render_query_tag(dev: &mut Device, vp: Viewport, q: &Polygon) -> Canvas {
    let table: AreaSource = Arc::new(vec![q.clone()]);
    render_polygon_with(
        dev,
        vp,
        &table,
        0,
        Texel::area(u32::MAX, QUERY_TAG, 0.0),
        true,
    )
}

/// Polygon-density heatmap (choropleth) of a polygon table restricted
/// to a query region: the instanced table draw accumulates per-pixel
/// overlap counts (`C_Y*[table, ⊕]`), then the chain blend with the
/// tagged query region → mask → log value transform runs over that
/// canvas ([`run_canvas_chain`]). Surviving pixels carry the polygon
/// overlap count in the 2-row's `v1` and `ln(1 + count)` in `v2`.
///
/// With a [`SubplanCache`], both operands of the chain's blend are
/// shared. The table canvas is keyed as the plan leaf
/// `Expr::polygon_set(table, ⊕)` — the `C_Y*` a zone aggregate over
/// the same table evaluates — so the choropleth and the aggregate of
/// one viewport render it once. The tag canvas is not expressible as a
/// plain plan leaf, so its identity is a namespaced descriptor
/// fingerprint over the polygon's vertex values: two choropleths
/// restricted to the same region share one tag render. The result is
/// bit-identical whatever the cache serves.
pub fn polygon_density_heatmap(
    dev: &mut Device,
    vp: Viewport,
    table: &AreaSource,
    q: &Polygon,
    cache: Option<&dyn SubplanCache>,
) -> Canvas {
    let fp = fingerprint(&Expr::polygon_set(table.clone(), BlendFn::AreaCount));
    let zones = acquire_or_render(cache, fp, &vp, || {
        render_polygon_set(dev, vp, table, BlendFn::AreaCount)
    });
    let mut fb = FingerprintBuilder::new("core/heatmap/query-tag");
    fb.polygon(q);
    let ctag = acquire_or_render(cache, fb.finish(), &vp, || render_query_tag(dev, vp, q));
    run_canvas_chain(dev, &zones, &density_chain(&ctag))
}

/// The identical choropleth plan executed as separate whole-canvas
/// operator passes — the materialized reference for the equivalence
/// harness.
pub fn polygon_density_heatmap_materialized(
    dev: &mut Device,
    vp: Viewport,
    table: &AreaSource,
    q: &Polygon,
) -> Canvas {
    let ctag = render_query_tag(dev, vp, q);
    let zones = render_polygon_set(dev, vp, table, BlendFn::AreaCount);
    apply_chain_materialized(dev, zones, &density_chain(&ctag))
}

#[cfg(test)]
mod tests {
    use super::*;
    use canvas_geom::{BBox, Point};

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

    fn q() -> Polygon {
        Polygon::simple(vec![
            Point::new(20.0, 15.0),
            Point::new(80.0, 20.0),
            Point::new(70.0, 85.0),
            Point::new(15.0, 70.0),
        ])
        .unwrap()
    }

    #[test]
    fn heatmap_fused_equals_materialized_and_masks_outside() {
        let batch = PointBatch::from_points(random_points(600, 5));
        for threads in [1usize, 4] {
            let mut dev_f = Device::cpu_parallel(threads);
            let mut dev_m = Device::cpu_parallel(threads);
            let fused = selection_heatmap(&mut dev_f, vp(), &batch, &q());
            let want = selection_heatmap_materialized(&mut dev_m, vp(), &batch, &q());
            assert_eq!(fused.texels(), want.texels(), "threads={threads}");
            assert_eq!(fused.cover(), want.cover(), "threads={threads}");
            assert_eq!(fused.boundary(), want.boundary(), "threads={threads}");
            assert_eq!(fused.area_sources().len(), want.area_sources().len());
            // The walk runs no pass: only the two operand draws count.
            assert!(dev_f.stats().passes < dev_m.stats().passes);
            assert_eq!(dev_f.stats().fullscreen_texels, 0);
            // Heat values are log-scaled counts on surviving pixels.
            for (_, _, t) in fused.non_null() {
                let p = t.get(0).expect("surviving pixels carry the 0-row");
                assert_eq!(p.v2, (1.0 + p.v1).ln());
                assert!(t.has(2), "surviving pixels lie inside the query");
            }
        }
    }

    /// A subplan cache that keeps everything published to it.
    #[derive(Default)]
    struct Memo(std::cell::RefCell<Vec<(crate::algebra::Fingerprint, Arc<Canvas>)>>);

    impl SubplanCache for Memo {
        fn get(&self, fp: crate::algebra::Fingerprint, _: &Viewport) -> Option<Arc<Canvas>> {
            let entries = self.0.borrow();
            entries
                .iter()
                .find(|(k, _)| *k == fp)
                .map(|(_, c)| c.clone())
        }

        fn publish(&self, fp: crate::algebra::Fingerprint, _: &Viewport, canvas: &Arc<Canvas>) {
            self.0.borrow_mut().push((fp, canvas.clone()));
        }
    }

    #[test]
    fn heatmap_after_a_selection_draws_nothing() {
        // The selection publishes its `C_P` and `C_Q` leaves; the heatmap
        // over the same handle and polygon reads both.
        let batch = Arc::new(PointBatch::from_points(random_points(600, 9)));
        for threads in [1usize, 4] {
            let memo = Memo::default();
            let mut dev = Device::cpu_parallel(threads);
            let plan = crate::queries::selection::points_in_polygon_plan(batch.clone(), q());
            plan.eval_via(&mut dev, vp(), Some(&memo));
            assert_eq!(
                memo.0.borrow().len(),
                2,
                "the selection publishes C_P and C_Q"
            );
            let before = dev.stats();
            let shared = selection_heatmap_via(&mut dev, vp(), &batch, &q(), Some(&memo));
            assert_eq!(dev.stats(), before, "the heatmap draws nothing");
            let want = selection_heatmap(&mut Device::cpu(), vp(), &batch, &q());
            assert_eq!(shared.texels(), want.texels(), "threads={threads}");
            assert_eq!(shared.cover(), want.cover(), "threads={threads}");
            assert_eq!(shared.boundary(), want.boundary(), "threads={threads}");
        }
    }

    fn zone_table() -> AreaSource {
        // Overlapping square zones so overlap counts span 0..=3, some
        // crossing the query region's boundary.
        let sq = |x0: f64, y0: f64, s: f64| {
            Polygon::simple(vec![
                Point::new(x0, y0),
                Point::new(x0 + s, y0),
                Point::new(x0 + s, y0 + s),
                Point::new(x0, y0 + s),
            ])
            .unwrap()
        };
        Arc::new(vec![
            sq(10.0, 10.0, 45.0),
            sq(30.0, 25.0, 40.0),
            sq(40.0, 35.0, 35.0),
            sq(85.0, 85.0, 10.0), // outside the query region
        ])
    }

    #[test]
    fn polygon_density_fused_equals_materialized() {
        let table = zone_table();
        for threads in [1usize, 4] {
            let mut dev_f = Device::cpu_parallel(threads);
            let mut dev_m = Device::cpu_parallel(threads);
            let fused = polygon_density_heatmap(&mut dev_f, vp(), &table, &q(), None);
            let want = polygon_density_heatmap_materialized(&mut dev_m, vp(), &table, &q());
            assert_eq!(fused.texels(), want.texels(), "threads={threads}");
            assert_eq!(fused.cover(), want.cover(), "threads={threads}");
            assert_eq!(
                fused.boundary().areas(),
                want.boundary().areas(),
                "threads={threads}"
            );
            assert_eq!(dev_f.stats(), dev_m.stats(), "stats at {threads} threads");
            // Surviving pixels: inside the query region, ≥1 zone,
            // log-scaled density; the tag never leaks out.
            assert!(!fused.is_empty());
            let mut max_count = 0.0f32;
            for (_, _, t) in fused.non_null() {
                let a = t.get(2).expect("2-row survives");
                assert!(a.v1 >= 1.0 && a.v1 < QUERY_TAG);
                assert_eq!(a.v2, (1.0 + a.v1).ln());
                max_count = max_count.max(a.v1);
            }
            assert!(max_count >= 2.0, "zones overlap inside the query");
        }
    }

    #[test]
    fn polygon_density_empty_outside_query() {
        // Only the far-corner zone exists: nothing inside the query.
        let table: AreaSource = Arc::new(vec![Polygon::simple(vec![
            Point::new(86.0, 86.0),
            Point::new(95.0, 86.0),
            Point::new(95.0, 95.0),
            Point::new(86.0, 95.0),
        ])
        .unwrap()]);
        let mut dev = Device::cpu();
        let heat = polygon_density_heatmap(&mut dev, vp(), &table, &q(), None);
        assert!(heat.is_empty());
    }

    #[test]
    fn heatmap_empty_outside_query() {
        // All points outside the polygon: the heat canvas is empty.
        let batch = PointBatch::from_points(vec![Point::new(2.0, 2.0), Point::new(95.0, 95.0)]);
        let mut dev = Device::cpu();
        let heat = selection_heatmap(&mut dev, vp(), &batch, &q());
        assert!(heat.is_empty());
        assert_eq!(heat.boundary().num_points(), 0, "entries pruned");
    }
}
