//! Heatmaps: the density views of a polygonal selection and of a
//! polygon table, each finished by a log Value Transform. Both are
//! plans ([`selection_heatmap_plan`], [`polygon_density_plan`]); the
//! engine serves them as `Query::Plan`s, and the planner picks their
//! physical forms.
//!
//! The selection heatmap is the Section 4.1 selection shape with a
//! coarse mask and a Value Transform finisher:
//!
//! ```text
//! C_heat ← V[log](M[point ∧ area](B[⊙](C_P, C_Q)))
//! ```
//!
//! The mask is the *texel* mask `M[point ∧ area]`
//! ([`MaskTag::PointAndArea`]): a pixel survives when it holds a point
//! and lies inside the query polygon at pixel resolution — a heatmap is
//! a pixel-resolution product, so the exact point refinement of the
//! selection's `Mp'` is not needed. The Value Transform
//! ([`ValueTag::HeatLog`]) rewrites each surviving pixel's intensity to
//! `ln(1 + count)` so dense pixels don't saturate the color ramp.
//!
//! Every surviving pixel holds a point, so the planner runs the plan as
//! the mask's entry walk finished by the value kernel
//! (`algebra::planner::value_sink`): one pass over `C_P`'s point run
//! against `C_Q` writes the kept pixels, their entries and `C_Q`'s area
//! entries there into an empty canvas — no blend, mask or value pass
//! over the planes. `C_P` and `C_Q` are the leaves a `SelectPoints`
//! over the same handle and polygon evaluates, so after that selection
//! the heatmap draws nothing.
//!
//! The choropleth is the polygon-table sibling:
//!
//! ```text
//! C_density ← V[log](M[inside ∧ ≥1](B[⊕](C_Y*, C_tag)))
//! ```
//!
//! `C_tag` renders the query region with a count tag far above any
//! overlap count ([`QUERY_TAG`]), so after the `⊕` blend a pixel's
//! count decomposes as `inside_query · QUERY_TAG + polygon_count`; the
//! mask keeps counts above the tag and the value transform subtracts it
//! before the log. The planner runs the three kernel nodes as one
//! in-place chain over `C_Y*` (`algebra::planner::kernel_node`), the
//! same `C_Y*[table, ⊕]` leaf a zone aggregate reads.
//!
//! [`selection_heatmap_materialized`] and
//! [`polygon_density_heatmap_materialized`] run the identical plans as
//! separate whole-canvas passes: the references the equivalence
//! harnesses hold the planner's forms to.

use crate::algebra::Expr;
use crate::canvas::{AreaSource, Canvas, PointBatch};
use crate::device::Device;
use crate::info::BlendFn;
use crate::ops::chain::{apply_chain_materialized, ChainKernel};
use crate::ops::mask::{select_point_entries_in_areas, MaskSpec, PixelRule};
use crate::source::{
    render_points, render_polygon_set, render_query_polygon, render_query_tag, QUERY_TAG,
};
use canvas_geom::polygon::Polygon;
use canvas_raster::{MaskTag, ValueTag, Viewport};
use std::sync::Arc;

/// `C_heat ← V[log](M[point ∧ area](B[⊙](C_P, C_Q)))` over `data` and
/// the query polygon `q` (see module docs). Surviving pixels carry
/// `ln(1 + count)` in the 0-row's `v2` slot (raw count stays in `v1`).
pub fn selection_heatmap_plan(data: Arc<PointBatch>, q: Polygon) -> Expr {
    Expr::value_tagged(
        ValueTag::HeatLog,
        Expr::mask(
            MaskSpec::Tagged(MaskTag::PointAndArea),
            Expr::blend(
                BlendFn::PointOverArea,
                Expr::points(data),
                Expr::query_polygon(q, 1),
            ),
        ),
    )
}

/// [`selection_heatmap_plan`]'s canvas over a borrowed batch: `C_P` and
/// `C_Q` drawn, then the entry walk the planner runs the plan as.
pub fn selection_heatmap(dev: &mut Device, vp: Viewport, data: &PointBatch, q: &Polygon) -> Canvas {
    let cp = render_points(dev, vp, data);
    let cq = render_query_polygon(dev, vp, q.clone(), 1);
    let heat = Some(ValueTag::HeatLog);
    select_point_entries_in_areas(dev, &cp, &cq, PixelRule::PointAndArea, heat)
}

/// The selection heatmap plan executed as separate whole-canvas
/// operator passes — the materialized reference for the equivalence
/// harnesses.
pub fn selection_heatmap_materialized(
    dev: &mut Device,
    vp: Viewport,
    data: &PointBatch,
    q: &Polygon,
) -> Canvas {
    let cq = render_query_polygon(dev, vp, q.clone(), 1);
    let cp = render_points(dev, vp, data);
    let heat = [
        ChainKernel::Blend(BlendFn::PointOverArea),
        ChainKernel::Mask(MaskTag::PointAndArea),
        ChainKernel::Value(ValueTag::HeatLog),
    ];
    apply_chain_materialized(dev, cp, &heat, &[&cq])
}

/// The choropleth of `table` restricted to the query region `q`,
/// `V[log](M[inside ∧ ≥1](B*[⊕](C_Y*, C_tag)))` (see module docs),
/// built in normal form: `⊕` is associative, so normalization would
/// turn `B[⊕]` into this `B*[⊕]`. Surviving pixels carry the polygon
/// overlap count in the 2-row's `v1` and `ln(1 + count)` in `v2`.
pub fn polygon_density_plan(table: AreaSource, q: Polygon) -> Expr {
    Expr::value_tagged(
        ValueTag::DensityLog { tag: QUERY_TAG },
        Expr::mask(
            MaskSpec::Tagged(MaskTag::AreaV1Above {
                threshold: QUERY_TAG,
            }),
            Expr::multi_blend(
                BlendFn::AreaCount,
                vec![
                    Expr::polygon_set(table, BlendFn::AreaCount),
                    Expr::query_tag(q),
                ],
            ),
        ),
    )
}

/// The choropleth plan executed as separate whole-canvas operator
/// passes — the materialized reference for the equivalence harnesses.
pub fn polygon_density_heatmap_materialized(
    dev: &mut Device,
    vp: Viewport,
    table: &AreaSource,
    q: &Polygon,
) -> Canvas {
    let ctag = render_query_tag(dev, vp, q);
    let zones = render_polygon_set(dev, vp, table, BlendFn::AreaCount);
    let density = [
        ChainKernel::Blend(BlendFn::AreaCount),
        ChainKernel::Mask(MaskTag::AreaV1Above {
            threshold: QUERY_TAG,
        }),
        ChainKernel::Value(ValueTag::DensityLog { tag: QUERY_TAG }),
    ];
    apply_chain_materialized(dev, zones, &density, &[&ctag])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::{normalize, SubplanCache};
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
            let plan = selection_heatmap_plan(batch.clone(), q());
            let shared = plan.eval_via(&mut dev, vp(), Some(&memo));
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
            let plan = normalize(polygon_density_plan(table.clone(), q()));
            let fused = plan.eval(&mut dev_f, vp());
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
        let heat = polygon_density_plan(table, q()).eval(&mut dev, vp());
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
