//! Canvas operator chains — the algebra-level face of
//! `canvas_raster::OpChain`.
//!
//! A [`CanvasChain`] is a linear plan `input → op₁ → … → opₖ` over full
//! canvases (texel plane + certain-cover plane + boundary index) whose
//! operators are the *coarse* forms of the algebra: Value Transform
//! `V[f]`, Blend `B[⊙]` against a materialized operand canvas, and the
//! texel-level Mask `M[M]`. Each is a built-in kernel — a `ValueTag`,
//! a `BlendFn`, a `MaskTag` — lowered to the raster layer's SIMD row
//! kernels; arbitrary functions stay at the algebra level
//! (`Expr::ValueTransform`, `MaskSpec::Texel`), which evaluates them
//! as materialized passes.
//!
//! A chain runs over a finished canvas ([`run_canvas_chain`]), as the
//! paper composes operators over canvases it first renders: the
//! input's planes are copied once and every operator runs over the
//! copy in place, strip by strip. The input may be a canvas another
//! query already rendered. The run is **bit-identical** to the
//! materialized operator sequence ([`apply_chain_materialized`]) —
//! texel plane, cover plane, boundary index, sources, *and* pipeline
//! work counters — at any thread count; `tests/chain_equivalence.rs`
//! asserts this on random chains. Boundary bookkeeping is replayed
//! after the planes finish: Blend stages merge the operand's entries
//! (source-remapped) and Mask stages prune entries of pixels whose
//! texel the mask left null, read from the run's per-stage
//! [`MaskOutcome`] bitmaps — sparse metadata, never a full
//! intermediate plane.
//!
//! The one draw fused with a chain lives a layer down
//! (`Pipeline::run_chain_points`, whose tiles stream through the
//! operators before their blit): the live heatmap's point draw
//! finished by `V[HeatLog]` (`source::draw_points`).
//!
//! The exact point-refinement Mask (`MaskSpec::PointInAreas`) is *not*
//! chain-fusable: it rewrites texels from boundary-index state, which
//! is global. The selection runs it as the mask's entry walk instead
//! (`ops::mask`), and so does the selection heatmap, whose output is
//! null wherever no point lies: neither is a chain.
//!
//! ## Chains and subplan sharing
//!
//! Cross-query subplan sharing
//! ([`algebra::subplan`](crate::algebra::subplan)) publishes rendered
//! intermediates to a cache at cut points. A chain shares through that
//! cache at its two ends and never in between — its intermediates are
//! not materialized, so there is nothing to publish mid-chain:
//!
//! * its **operands**, the canvases it materializes anyway (the Blend
//!   operands, e.g. the choropleth's tagged query region);
//! * its **input**: the choropleth runs over the `C_Y*` a zone
//!   aggregate reads (see `queries::heatmap`).
//!
//! Rendering is deterministic, so a shared canvas is bit-identical to
//! the one the chain would have rendered itself, and the bit-identity
//! contract above holds whatever the cache served.

use std::sync::Arc;

use crate::canvas::Canvas;
use crate::device::Device;
use crate::info::{BlendFn, Texel};
use crate::ops::mask::MaskSpec;
use canvas_raster::{Backend, MaskOutcome, MaskTag, OpChain, ValueTag, Viewport};

/// One operator of a canvas chain.
#[derive(Clone)]
pub enum CanvasOp<'a> {
    /// `V[f]` for a built-in transform, lowered to the dispatched SIMD
    /// row kernel.
    ValueTagged(ValueTag),
    /// `B[⊙]` — blend with a materialized operand canvas: texels
    /// through the blend function, covers by saturating addition,
    /// boundary entries merged with source remapping.
    Blend { other: &'a Canvas, op: BlendFn },
    /// Coarse `M[M]` for a built-in predicate, lowered to the SIMD row
    /// kernel: failing texels nulled, cover zeroed, boundary entries of
    /// nulled pixels pruned.
    MaskTagged { label: &'static str, tag: MaskTag },
}

impl std::fmt::Debug for CanvasOp<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // A value stage prints as `V[f]` and a mask by its label, as
        // the algebra's operators do: a printed chain names the
        // operator, not its kernel.
        match self {
            CanvasOp::ValueTagged(_) => write!(f, "V[f]"),
            CanvasOp::Blend { op, .. } => write!(f, "B[{op:?}]"),
            CanvasOp::MaskTagged { label, .. } => write!(f, "M[{label}]"),
        }
    }
}

/// A linear canvas plan (see module docs).
#[derive(Clone, Debug, Default)]
pub struct CanvasChain<'a> {
    ops: Vec<CanvasOp<'a>>,
    /// SIMD backend the lowered kernels run on; `None` is the
    /// process-wide one (see [`with_backend`](Self::with_backend)).
    backend: Option<Backend>,
}

impl<'a> CanvasChain<'a> {
    pub fn new() -> Self {
        CanvasChain {
            ops: Vec::new(),
            backend: None,
        }
    }

    /// Pins the SIMD backend of the lowered kernels, as
    /// `OpChain::with_backend` does one level down: tests compare
    /// forced-scalar against auto dispatch in one process. The
    /// materialized reference always runs on the process-wide backend.
    pub fn with_backend(mut self, backend: Backend) -> Self {
        self.backend = Some(backend);
        self
    }

    /// Appends a Blend stage against a materialized operand canvas.
    pub fn blend(mut self, other: &'a Canvas, op: BlendFn) -> Self {
        self.ops.push(CanvasOp::Blend { other, op });
        self
    }

    /// Appends a built-in Value Transform stage (SIMD-lowered).
    pub fn value_tagged(mut self, tag: ValueTag) -> Self {
        self.ops.push(CanvasOp::ValueTagged(tag));
        self
    }

    /// Appends a built-in coarse Mask stage (SIMD-lowered).
    pub fn mask_tagged(mut self, label: &'static str, tag: MaskTag) -> Self {
        self.ops.push(CanvasOp::MaskTagged { label, tag });
        self
    }

    pub fn ops(&self) -> &[CanvasOp<'a>] {
        &self.ops
    }
}

/// Asserts every Blend operand canvas shares the run's viewport.
fn assert_operand_viewports(vp: &Viewport, chain: &CanvasChain<'_>) {
    for op in chain.ops() {
        if let CanvasOp::Blend { other, .. } = op {
            assert_eq!(
                other.viewport(),
                vp,
                "chain blend operands must share a viewport"
            );
        }
    }
}

/// Lowers the canvas-level operators to the raster layer's row kernels.
fn lower_to_raster<'a>(chain: &CanvasChain<'a>) -> OpChain<'a, Texel> {
    let mut raster_chain: OpChain<'a, Texel> = OpChain::new();
    for op in chain.ops() {
        raster_chain = match op {
            CanvasOp::ValueTagged(tag) => raster_chain.map_tagged(*tag),
            // Built-in blends always take the SIMD row kernel: the
            // kernel is bit-identical to `BlendFn::apply` (asserted in
            // `info::tests`), so the chain ≡ materialized contract is
            // unchanged by the lowering.
            CanvasOp::Blend { other, op } => {
                raster_chain.blend_tagged(other.texels(), Some(other.cover()), op.tag())
            }
            // The mask kernel bakes in the materialized mask's semantics:
            // null texels pass, failing texels are nulled.
            CanvasOp::MaskTagged { tag, .. } => raster_chain.mask_tagged(*tag),
        };
    }
    match chain.backend {
        Some(be) => raster_chain.with_backend(be),
        None => raster_chain,
    }
}

/// Replays the boundary/source bookkeeping of the materialized operator
/// sequence against the finished planes — sparse metadata only, no
/// intermediate plane is ever touched. Blend stages merge the operand's
/// entries (source-remapped), Mask stages prune entries of pixels whose
/// texel the mask left null (read from the run's per-stage bitmaps).
fn replay_bookkeeping(canvas: &mut Canvas, chain: &CanvasChain<'_>, masked: &MaskOutcome) {
    let mut mask_ordinal = 0usize;
    for op in chain.ops() {
        match op {
            CanvasOp::ValueTagged(_) => {}
            CanvasOp::Blend { other, .. } => {
                // Same merge the materialized Blend performs.
                let area_remap: Vec<u16> = other
                    .area_sources()
                    .iter()
                    .map(|s| canvas.add_area_source(s.clone()))
                    .collect();
                let line_remap: Vec<u16> = other
                    .line_sources()
                    .iter()
                    .map(|s| canvas.add_line_source(s.clone()))
                    .collect();
                canvas
                    .boundary_mut()
                    .merge_in(other.boundary(), &area_remap, &line_remap);
            }
            CanvasOp::MaskTagged { .. } => {
                let ordinal = mask_ordinal;
                canvas
                    .boundary_mut()
                    .retain_pixels(|pixel| !masked.is_null_after(ordinal, pixel));
                mask_ordinal += 1;
            }
        }
    }
}

/// Executes `input → chain` over a finished canvas: the input's
/// planes are copied once and the chain runs over the copy in place
/// (`Pipeline::run_chain_texture`, full-width row strips, no tile
/// copies); the input's index is then carried through the bookkeeping
/// replay. Bit-identical to [`apply_chain_materialized`] on the same
/// input at any thread count, including pipeline stats.
pub fn run_canvas_chain(dev: &mut Device, input: &Canvas, chain: &CanvasChain<'_>) -> Canvas {
    let vp = *input.viewport();
    assert_operand_viewports(&vp, chain);
    let mut canvas = input.clone();
    let raster_chain = lower_to_raster(chain);
    let report = {
        let (texels, cover, _) = canvas.planes_mut();
        dev.pipeline()
            .run_chain_texture(texels, cover, &raster_chain)
    };
    replay_bookkeeping(&mut canvas, chain, &report.masked);
    canvas
}

/// Applies a chain's operators as separate whole-canvas passes: the
/// materialized reference [`run_canvas_chain`] is held to, and the
/// plan-comparison baseline.
pub fn apply_chain_materialized(
    dev: &mut Device,
    mut c: Canvas,
    chain: &CanvasChain<'_>,
) -> Canvas {
    for op in chain.ops() {
        c = match op {
            CanvasOp::ValueTagged(tag) => crate::ops::value::value_transform_tagged(dev, &c, *tag),
            CanvasOp::Blend { other, op } => crate::ops::blend::blend(dev, &c, other, *op),
            // Materialized form of the tagged mask: the ordinary texel
            // mask over the kernel's raw predicate — same keep-set.
            CanvasOp::MaskTagged { label, tag } => {
                let tag = *tag;
                crate::ops::mask::mask(
                    dev,
                    &c,
                    &MaskSpec::Texel(
                        label,
                        Arc::new(move |t: &Texel| canvas_raster::simd::mask_pred(tag, t)),
                    ),
                )
            }
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
            fn mk(cq: &Canvas) -> CanvasChain<'_> {
                CanvasChain::new()
                    .blend(cq, BlendFn::PointOverArea)
                    .mask_tagged("point ∧ area", MaskTag::PointAndArea)
                    .value_tagged(ValueTag::HeatLog)
            }
            let cp_c = render_points(&mut dev_c, vp(16), &pts());
            let got = run_canvas_chain(&mut dev_c, &cp_c, &mk(&cq_c));
            let cp_m = render_points(&mut dev_m, vp(16), &pts());
            let want = apply_chain_materialized(&mut dev_m, cp_m, &mk(&cq_m));
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
        fn mk() -> CanvasChain<'static> {
            CanvasChain::new()
                .mask_tagged("dense", MaskTag::AreaV1Above { threshold: 1.5 })
                .value_tagged(ValueTag::DensityLog { tag: 1.0 })
        }
        for threads in [1usize, 3] {
            let mut dev_c = Device::cpu_parallel(threads);
            let mut dev_m = Device::cpu_parallel(threads);
            let zones_c = render_polygon_set(&mut dev_c, vp(16), &table, BlendFn::AreaCount);
            let got = run_canvas_chain(&mut dev_c, &zones_c, &mk());
            let zones_m = render_polygon_set(&mut dev_m, vp(16), &table, BlendFn::AreaCount);
            let want = apply_chain_materialized(&mut dev_m, zones_m, &mk());
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
        let c = Canvas::empty(vp(8));
        let chain = CanvasChain::new()
            .blend(&c, BlendFn::Over)
            .mask_tagged("m", MaskTag::PointAndArea)
            .value_tagged(ValueTag::HeatLog);
        assert_eq!(format!("{:?}", chain.ops()), "[B[Over], M[m], V[f]]");
    }

    #[test]
    #[should_panic(expected = "share a viewport")]
    fn mismatched_blend_viewport_panics() {
        let other = Canvas::empty(vp(8));
        let chain = CanvasChain::new().blend(&other, BlendFn::Over);
        let mut dev = Device::cpu();
        let input = render_points(&mut dev, vp(16), &pts());
        let _ = run_canvas_chain(&mut dev, &input, &chain);
    }
}
