//! Canvas operator chains: pixel-local kernels run as one in-place
//! pass over a finished canvas — the algebra-level face of
//! `canvas_raster::OpChain`.
//!
//! A chain is how the planner runs a plan's tail of kernel nodes
//! (`algebra::planner::kernel_node`): built-in Value Transforms
//! `V[tag]`, coarse Masks `M[tag]`, and Blends `B[⊙]` against evaluated
//! operand canvases, each a [`ChainKernel`] lowered to the raster
//! layer's SIMD row kernels. Closure-backed nodes (`ValueFn::Named`,
//! `MaskSpec::Texel`) are not kernels; they run dense, one
//! materialized pass each.
//!
//! [`run_chain`] copies the input's planes once and runs every kernel
//! over the copy in place, strip by strip
//! (`Pipeline::run_chain_texture`, full-width row strips). The input
//! may be a canvas another query already rendered. The run is
//! **bit-identical** to the materialized operator sequence
//! ([`apply_chain_materialized`]) — texel plane, cover plane, boundary
//! index, sources, *and* pipeline work counters — at any thread count;
//! `tests/chain_equivalence.rs` asserts this on random plans. Boundary
//! bookkeeping is replayed after the planes finish: Blend kernels merge
//! the operand's entries (source-remapped) and Mask kernels prune
//! entries of pixels whose texel the mask left null, read from the
//! run's per-mask [`MaskOutcome`](canvas_raster::MaskOutcome) bitmaps —
//! sparse metadata, never a full intermediate plane.
//!
//! The one point draw followed by a chain is the live heatmap's
//! (`source::draw_points`): its run, the planes folded from it, then
//! `V[HeatLog]` through the same in-place pass.
//!
//! The exact point-refinement Mask (`MaskSpec::PointInAreas`) is *not*
//! a kernel: it rewrites texels from boundary-index state, which is
//! global. The selection runs it as the mask's entry walk instead
//! (`ops::mask`), and so does the selection heatmap, whose output is
//! null wherever no point lies: neither is a chain.
//!
//! ## Chains and subplan sharing
//!
//! A chain shares through the subplan cache
//! ([`algebra::subplan`](crate::algebra::subplan)) at its two ends and
//! never in between: the evaluator takes its input and its Blend
//! operands through the cache as the plan nodes they are (the
//! choropleth's `C_Y*` is the zone aggregate's leaf), and the folded
//! kernel nodes are never materialized, so there is nothing to publish
//! mid-chain. Rendering is deterministic, so a shared canvas is
//! bit-identical to the one the chain would have rendered itself, and
//! the bit-identity contract above holds whatever the cache served.

use crate::canvas::Canvas;
use crate::device::Device;
use crate::info::{BlendFn, Texel};
use crate::ops::mask::MaskSpec;
use canvas_raster::{MaskTag, OpChain, ValueTag};

/// One pixel-local kernel of a chain: what a built-in plan node lowers
/// to.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ChainKernel {
    /// `V[tag]`: the built-in transform's row kernel.
    Value(ValueTag),
    /// Coarse `M[tag]`: failing texels nulled, cover zeroed, boundary
    /// entries of nulled pixels pruned.
    Mask(MaskTag),
    /// `B[⊙]` with the chain's next operand canvas: texels through the
    /// blend function, covers by saturating addition, boundary entries
    /// merged with source remapping.
    Blend(BlendFn),
}

/// Runs `kernels` in order over a copy of `input`'s planes (see module
/// docs); each Blend kernel reads the next of `operands`. Bit-identical
/// to [`apply_chain_materialized`] on the same input at any thread
/// count, including pipeline stats. Panics when an operand's viewport
/// differs from the input's, or when there are fewer operands than
/// Blend kernels.
pub fn run_chain(
    dev: &mut Device,
    input: &Canvas,
    kernels: &[ChainKernel],
    operands: &[&Canvas],
) -> Canvas {
    let vp = input.viewport();
    let same = operands.iter().all(|o| o.viewport() == vp);
    assert!(same, "chain blend operands must share a viewport");
    let mut next = operands.iter();
    let mut raster_chain: OpChain<'_, Texel> = OpChain::new();
    for k in kernels {
        raster_chain = match *k {
            ChainKernel::Value(tag) => raster_chain.map_tagged(tag),
            // Built-in blends always take the SIMD row kernel: the
            // kernel is bit-identical to `BlendFn::apply` (asserted in
            // `info::tests`), so the chain ≡ materialized contract is
            // unchanged by the lowering.
            ChainKernel::Blend(op) => {
                let o = next.next().expect("one operand per Blend kernel");
                raster_chain.blend_tagged(o.texels(), Some(o.cover()), op.tag())
            }
            // The mask kernel bakes in the materialized mask's
            // semantics: null texels pass, failing texels are nulled.
            ChainKernel::Mask(tag) => raster_chain.mask_tagged(tag),
        };
    }
    let mut canvas = input.clone();
    let masked = {
        let (texels, cover, _) = canvas.planes_mut();
        dev.pipeline()
            .run_chain_texture(texels, Some(cover), &raster_chain)
    };
    // Replay the materialized sequence's boundary/source bookkeeping
    // against the finished planes — sparse metadata only, no
    // intermediate plane is ever touched: Blend kernels merge the
    // operand's entries (source-remapped), Mask kernels prune entries
    // of pixels whose texel the mask left null (the run's per-mask
    // bitmaps).
    let (mut next, mut mask_ordinal) = (operands.iter(), 0usize);
    for k in kernels {
        match k {
            ChainKernel::Value(_) => {}
            ChainKernel::Blend(_) => {
                let other = next.next().expect("one operand per Blend kernel");
                let area_remap: Vec<u16> = (other.area_sources().iter())
                    .map(|s| canvas.add_area_source(s.clone()))
                    .collect();
                let line_remap: Vec<u16> = (other.line_sources().iter())
                    .map(|s| canvas.add_line_source(s.clone()))
                    .collect();
                canvas
                    .boundary_mut()
                    .merge_in(other.boundary(), &area_remap, &line_remap);
            }
            ChainKernel::Mask(_) => {
                let ordinal = mask_ordinal;
                canvas
                    .boundary_mut()
                    .retain_pixels(|pixel| !masked.is_null_after(ordinal, pixel));
                mask_ordinal += 1;
            }
        }
    }
    canvas
}

/// Applies the kernels as separate whole-canvas passes, each Blend
/// reading the next of `operands`: the materialized reference
/// [`run_chain`] is held to, and the plan-comparison baseline.
pub fn apply_chain_materialized(
    dev: &mut Device,
    mut c: Canvas,
    kernels: &[ChainKernel],
    operands: &[&Canvas],
) -> Canvas {
    let mut next = operands.iter();
    for k in kernels {
        c = match *k {
            ChainKernel::Value(tag) => crate::ops::value::value_transform_tagged(dev, &c, tag),
            ChainKernel::Blend(op) => {
                let other = next.next().expect("one operand per Blend kernel");
                crate::ops::blend::blend(dev, &c, other, op)
            }
            ChainKernel::Mask(tag) => crate::ops::mask::mask(dev, &c, &MaskSpec::Tagged(tag)),
        };
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::canvas::PointBatch;
    use crate::source::{render_points, render_polygon_set, render_query_polygon};
    use canvas_geom::{BBox, Point, Polygon};
    use canvas_raster::Viewport;
    use std::sync::Arc;

    fn vp(n: u32) -> Viewport {
        Viewport::new(
            BBox::new(Point::new(0.0, 0.0), Point::new(10.0, 10.0)),
            n,
            n,
        )
    }

    fn pts() -> PointBatch {
        PointBatch::from_points(vec![
            Point::new(2.5, 2.5),
            Point::new(2.6, 2.4),
            Point::new(7.5, 7.5),
            Point::new(1.0, 8.0),
        ])
    }

    #[test]
    fn blend_mask_value_chain_equals_materialized() {
        let q = Polygon::simple(vec![
            Point::new(1.5, 1.5),
            Point::new(8.0, 1.5),
            Point::new(8.0, 8.0),
            Point::new(1.5, 8.0),
        ])
        .unwrap();
        for threads in [1usize, 3] {
            let mut dev_c = Device::cpu_parallel(threads);
            let mut dev_m = Device::cpu_parallel(threads);
            let cq_c = render_query_polygon(&mut dev_c, vp(16), q.clone(), 1);
            let cq_m = render_query_polygon(&mut dev_m, vp(16), q.clone(), 1);
            let heat = [
                ChainKernel::Blend(BlendFn::PointOverArea),
                ChainKernel::Mask(MaskTag::PointAndArea),
                ChainKernel::Value(ValueTag::HeatLog),
            ];
            let cp_c = render_points(&mut dev_c, vp(16), &pts());
            let got = run_chain(&mut dev_c, &cp_c, &heat, &[&cq_c]);
            let cp_m = render_points(&mut dev_m, vp(16), &pts());
            let want = apply_chain_materialized(&mut dev_m, cp_m, &heat, &[&cq_m]);
            assert_eq!(got.texels(), want.texels(), "threads={threads}");
            assert_eq!(got.cover(), want.cover(), "threads={threads}");
            assert_eq!(
                got.boundary().points().collect::<Vec<_>>(),
                want.boundary().points().collect::<Vec<_>>(),
                "threads={threads}"
            );
            assert_eq!(
                got.boundary().areas(),
                want.boundary().areas(),
                "threads={threads}"
            );
            assert_eq!(got.area_sources().len(), want.area_sources().len());
            assert_eq!(dev_c.stats(), dev_m.stats(), "stats at {threads} threads");
        }
    }

    #[test]
    fn polygon_chain_equals_materialized() {
        let table: crate::canvas::AreaSource = Arc::new(vec![
            Polygon::simple(vec![
                Point::new(1.0, 1.0),
                Point::new(6.0, 1.0),
                Point::new(6.0, 6.0),
                Point::new(1.0, 6.0),
            ])
            .unwrap(),
            Polygon::simple(vec![
                Point::new(4.0, 4.0),
                Point::new(9.0, 4.0),
                Point::new(9.0, 9.0),
                Point::new(4.0, 9.0),
            ])
            .unwrap(),
        ]);
        let dense = [
            ChainKernel::Mask(MaskTag::AreaV1Above { threshold: 1.5 }),
            ChainKernel::Value(ValueTag::DensityLog { tag: 1.0 }),
        ];
        for threads in [1usize, 3] {
            let mut dev_c = Device::cpu_parallel(threads);
            let mut dev_m = Device::cpu_parallel(threads);
            let zones_c = render_polygon_set(&mut dev_c, vp(16), &table, BlendFn::AreaCount);
            let got = run_chain(&mut dev_c, &zones_c, &dense, &[]);
            let zones_m = render_polygon_set(&mut dev_m, vp(16), &table, BlendFn::AreaCount);
            let want = apply_chain_materialized(&mut dev_m, zones_m, &dense, &[]);
            assert_eq!(got.texels(), want.texels(), "threads={threads}");
            assert_eq!(got.cover(), want.cover(), "threads={threads}");
            assert_eq!(
                got.boundary().areas(),
                want.boundary().areas(),
                "threads={threads}"
            );
            assert_eq!(dev_c.stats(), dev_m.stats(), "stats at {threads} threads");
            // Only the overlap region (count 2) survives the mask, and
            // the value stage untags its count by one.
            for (_, _, t) in got.non_null() {
                let a = t.get(2).unwrap();
                assert_eq!(a.v1, 1.0);
                assert_eq!(a.v2, 2.0f32.ln());
            }
            assert!(!got.is_empty());
        }
    }

    #[test]
    fn plan_label_prints_ops() {
        // The kernel nodes a chain runs print by their tags, as plan
        // data, not as opaque functions.
        let c = || crate::algebra::Expr::literal(Canvas::empty(vp(8)));
        let plan = crate::algebra::Expr::value_tagged(
            ValueTag::HeatLog,
            crate::algebra::Expr::mask(
                MaskSpec::Tagged(MaskTag::PointAndArea),
                crate::algebra::Expr::blend(BlendFn::Over, c(), c()),
            ),
        );
        let diagram = plan.plan();
        let labels: Vec<&str> = diagram.lines().map(str::trim).collect();
        assert_eq!(
            labels,
            ["V[HeatLog]", "M[PointAndArea]", "B[∪]", "C_lit", "C_lit"]
        );
    }

    #[test]
    #[should_panic(expected = "share a viewport")]
    fn mismatched_blend_viewport_panics() {
        let other = Canvas::empty(vp(8));
        let mut dev = Device::cpu();
        let input = render_points(&mut dev, vp(16), &pts());
        let blend = [ChainKernel::Blend(BlendFn::Over)];
        let _ = run_chain(&mut dev, &input, &blend, &[&other]);
    }
}
