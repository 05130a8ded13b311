//! Canvas operator chains — the algebra-level face of
//! `canvas_raster::OpChain`.
//!
//! A [`CanvasChain`] is a linear plan `source → op₁ → … → opₖ` over full
//! canvases (texel plane + certain-cover plane + boundary index) whose
//! operators are the *coarse* forms of the algebra: Value Transform
//! `V[f]`, Blend `B[⊙]` against a materialized operand canvas, and the
//! texel-level Mask `M[M]`. Each is a built-in kernel — a `ValueTag`,
//! a `BlendFn`, a `MaskTag` — lowered to the raster layer's SIMD row
//! kernels; arbitrary functions stay at the algebra level
//! (`Expr::ValueTransform`, `MaskSpec::Texel`), which evaluates them
//! as materialized passes. A chain starts from one of two places:
//!
//! * **a draw** ([`run_points_chain`], [`run_polygons_chain`]): each
//!   rendered tile flows through every operator on the executor's
//!   multi-stage streaming hand-off before it is blitted — the
//!   intermediate canvases of the materialized plan are never
//!   allocated;
//! * **a materialized canvas** ([`run_canvas_chain`]): the input's
//!   planes are copied once and every operator runs over the copy in
//!   place, strip by strip — the input may be a canvas another query
//!   already rendered.
//!
//! Every form is **bit-identical** to the materialized operator
//! sequence ([`run_points_chain_materialized`],
//! [`apply_chain_materialized`]) — texel plane, cover plane, boundary
//! index, sources, *and* pipeline work counters — at any thread count;
//! `tests/chain_equivalence.rs` asserts this on random chains.
//! Boundary bookkeeping is replayed after the planes finish: Blend
//! stages merge the operand's entries (source-remapped) and Mask stages
//! prune entries of pixels whose texel the mask left null, read from
//! the run's per-stage [`MaskOutcome`] bitmaps — sparse metadata, never
//! a full intermediate plane.
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
//! * its **input**, when the chain starts from a canvas: the choropleth
//!   runs over the `C_Y*` a zone aggregate reads (see
//!   `queries::heatmap`).
//!
//! Rendering is deterministic, so a shared canvas is bit-identical to
//! the one the chain would have rendered itself, and the bit-identity
//! contract above holds whatever the cache served.

use std::sync::Arc;

use crate::canvas::{Canvas, PointBatch};
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
        // the algebra's operators do, so plan strings (and the
        // subplan-sharing cache keys derived from them) name the
        // operator, not its kernel.
        match self {
            CanvasOp::ValueTagged(_) => write!(f, "V[f]"),
            CanvasOp::Blend { op, .. } => write!(f, "B[{op:?}]"),
            CanvasOp::MaskTagged { label, .. } => write!(f, "M[{label}]"),
        }
    }
}

/// A linear fused canvas plan (see module docs).
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

    pub fn len(&self) -> usize {
        self.ops.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Plan label, e.g. `points → B[PointOverArea] → M[inside] → V[f]`.
    pub fn plan(&self) -> String {
        let mut s = String::from("points");
        for op in &self.ops {
            s.push_str(" → ");
            s.push_str(&format!("{op:?}"));
        }
        s
    }
}

/// Result of a fused chain run: the canvas plus the streaming memory
/// report the fused-execution contract is asserted against.
#[derive(Debug)]
pub struct ChainOutcome {
    pub canvas: Canvas,
    /// Tiles that flowed through the fused pipeline.
    pub tiles: usize,
    /// High-water mark of live tile buffers — never exceeds
    /// `Policy::stream_window(workers)` (0 for in-place sequential
    /// runs and for chains over a materialized canvas).
    pub peak_tiles_in_flight: usize,
    /// Per-Mask-op null bitmaps the boundary replay read (see
    /// [`MaskOutcome`]).
    pub masked: MaskOutcome,
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

/// Lowers the canvas-level operators to raster tile kernels (shared by
/// the point and polygon fused runners — one lowering, one semantics).
fn lower_to_raster<'a>(chain: &CanvasChain<'a>) -> OpChain<'a, Texel> {
    let mut raster_chain: OpChain<'a, Texel> = OpChain::new();
    for op in chain.ops() {
        raster_chain = match op {
            CanvasOp::ValueTagged(tag) => raster_chain.map_tagged(*tag),
            // Built-in blends always take the SIMD row kernel: the
            // kernel is bit-identical to `BlendFn::apply` (asserted in
            // `info::tests`), so the streamed ≡ materialized contract
            // is unchanged by the lowering.
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
/// texel the mask left null (read from the fused run's per-stage
/// bitmaps).
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

/// Executes `render(points) → chain` fused: one streamed tile pass,
/// no intermediate canvases (see module docs). Bit-identical to
/// [`run_points_chain_materialized`] at any thread count, including
/// pipeline stats.
pub fn run_points_chain(
    dev: &mut Device,
    vp: Viewport,
    batch: &PointBatch,
    chain: &CanvasChain<'_>,
) -> ChainOutcome {
    assert_operand_viewports(&vp, chain);
    let mut canvas = Canvas::empty(vp);
    dev.pipeline().note_upload(batch.upload_bytes());
    let raster_chain = lower_to_raster(chain);

    let ids = &batch.ids;
    let weights = &batch.weights;
    let report = {
        let (texels, cover, _) = canvas.planes_mut();
        dev.pipeline().run_chain_points(
            &vp,
            texels,
            Some(cover),
            &batch.points,
            |i, _| Texel::point(ids[i as usize], 1.0, weights[i as usize]),
            |d, s| BlendFn::PointAccumulate.apply(d, s),
            &raster_chain,
        )
    };

    // Exact point entries, then the operator bookkeeping replay (see
    // `replay_bookkeeping`).
    *canvas.boundary_mut() =
        crate::source::point_index(&vp, &batch.points, &batch.ids, &batch.weights);
    replay_bookkeeping(&mut canvas, chain, &report.masked);

    ChainOutcome {
        canvas,
        tiles: report.tiles,
        peak_tiles_in_flight: report.peak_tiles_in_flight,
        masked: report.masked,
    }
}

/// Executes `render(polygon table) → chain` fused — the polygon-table
/// sibling of [`run_points_chain`], built on
/// `Pipeline::run_chain_polygons`: the instanced tiled polygon draw
/// (texels + certain-cover + boundary entries, internal blend
/// `draw_blend` — the fused `B*[⊕]` of a whole-table render) streams
/// each finished tile through every chain operator before the single
/// blit. Bit-identical to [`run_polygons_chain_materialized`] at any
/// thread count, including pipeline stats.
pub fn run_polygons_chain(
    dev: &mut Device,
    vp: Viewport,
    table: &crate::canvas::AreaSource,
    draw_blend: BlendFn,
    chain: &CanvasChain<'_>,
) -> ChainOutcome {
    assert_operand_viewports(&vp, chain);
    let mut canvas = Canvas::empty(vp);
    let source = canvas.add_area_source(table.clone());
    let upload: u64 = table.iter().map(|p| (p.num_vertices() * 16) as u64).sum();
    dev.pipeline().note_upload(upload);
    let raster_chain = lower_to_raster(chain);

    let (boundary, report) = {
        let (texels, cover, _) = canvas.planes_mut();
        dev.pipeline().run_chain_polygons(
            &vp,
            texels,
            cover,
            table,
            true,
            |record, _| Texel::area(record, 1.0, 0.0),
            |d, s| draw_blend.apply(d, s),
            &raster_chain,
        )
    };

    // One area entry per conservative boundary fragment, then the
    // operator replay.
    *canvas.boundary_mut() = crate::source::area_index(&vp, source, &boundary, |record| record);
    replay_bookkeeping(&mut canvas, chain, &report.masked);

    ChainOutcome {
        canvas,
        tiles: report.tiles,
        peak_tiles_in_flight: report.peak_tiles_in_flight,
        masked: report.masked,
    }
}

/// Executes `input → chain` over an already-materialized canvas: the
/// input's planes are copied once and the chain runs over the copy in
/// place (`Pipeline::run_chain_texture`, full-width row strips, no
/// tile copies); the input's index is then carried through the same
/// bookkeeping replay as a fused run. Bit-identical to
/// [`apply_chain_materialized`] on the same input at any thread count,
/// including pipeline stats — so `run_canvas_chain(render(source),
/// chain)` equals the fused draw-then-chain run of that source.
pub fn run_canvas_chain(dev: &mut Device, input: &Canvas, chain: &CanvasChain<'_>) -> ChainOutcome {
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
    ChainOutcome {
        canvas,
        tiles: report.tiles,
        peak_tiles_in_flight: report.peak_tiles_in_flight,
        masked: report.masked,
    }
}

/// The materialized reference for [`run_polygons_chain`]: the identical
/// plan executed as `render_polygon_set` followed by one whole-canvas
/// operator pass per stage.
pub fn run_polygons_chain_materialized(
    dev: &mut Device,
    vp: Viewport,
    table: &crate::canvas::AreaSource,
    draw_blend: BlendFn,
    chain: &CanvasChain<'_>,
) -> Canvas {
    let c = crate::source::render_polygon_set(dev, vp, table, draw_blend);
    apply_chain_materialized(dev, c, chain)
}

/// Applies a chain's operators as separate whole-canvas passes (the
/// materialized halves of the equivalence harnesses).
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

/// The materialized reference: the identical plan executed as separate
/// whole-canvas operator passes (one intermediate canvas per step).
/// Exists for the streamed≡materialized equivalence harness and as the
/// plan-comparison baseline.
pub fn run_points_chain_materialized(
    dev: &mut Device,
    vp: Viewport,
    batch: &PointBatch,
    chain: &CanvasChain<'_>,
) -> Canvas {
    let c = crate::source::render_points(dev, vp, batch);
    apply_chain_materialized(dev, c, chain)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::render_query_polygon;
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
            let mut dev_f = Device::cpu_parallel(threads);
            let mut dev_m = Device::cpu_parallel(threads);
            let cq_f = render_query_polygon(&mut dev_f, vp(16), q.clone(), 1);
            let cq_m = render_query_polygon(&mut dev_m, vp(16), q.clone(), 1);
            fn mk(cq: &Canvas) -> CanvasChain<'_> {
                CanvasChain::new()
                    .blend(cq, BlendFn::PointOverArea)
                    .mask_tagged("point ∧ area", MaskTag::PointAndArea)
                    .value_tagged(ValueTag::HeatLog)
            }
            let fused = run_points_chain(&mut dev_f, vp(16), &pts(), &mk(&cq_f));
            let want = run_points_chain_materialized(&mut dev_m, vp(16), &pts(), &mk(&cq_m));
            assert_eq!(fused.canvas.texels(), want.texels(), "threads={threads}");
            assert_eq!(fused.canvas.cover(), want.cover(), "threads={threads}");
            assert_eq!(
                fused.canvas.boundary().points().collect::<Vec<_>>(),
                want.boundary().points().collect::<Vec<_>>(),
                "threads={threads}"
            );
            assert_eq!(
                fused.canvas.boundary().areas(),
                want.boundary().areas(),
                "threads={threads}"
            );
            assert_eq!(fused.canvas.area_sources().len(), want.area_sources().len());
            assert_eq!(dev_f.stats(), dev_m.stats(), "stats at {threads} threads");
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
            let mut dev_f = Device::cpu_parallel(threads);
            let mut dev_m = Device::cpu_parallel(threads);
            let fused = run_polygons_chain(&mut dev_f, vp(16), &table, BlendFn::AreaCount, &mk());
            let want = run_polygons_chain_materialized(
                &mut dev_m,
                vp(16),
                &table,
                BlendFn::AreaCount,
                &mk(),
            );
            assert_eq!(fused.canvas.texels(), want.texels(), "threads={threads}");
            assert_eq!(fused.canvas.cover(), want.cover(), "threads={threads}");
            assert_eq!(
                fused.canvas.boundary().areas(),
                want.boundary().areas(),
                "threads={threads}"
            );
            assert_eq!(dev_f.stats(), dev_m.stats(), "stats at {threads} threads");
            // Only the overlap region (count 2) survives the mask, and
            // the value stage untags its count by one.
            for (_, _, t) in fused.canvas.non_null() {
                let a = t.get(2).unwrap();
                assert_eq!(a.v1, 1.0);
                assert_eq!(a.v2, 2.0f32.ln());
            }
            assert!(!fused.canvas.is_empty());
        }
    }

    #[test]
    fn plan_label_prints_ops() {
        let c = Canvas::empty(vp(8));
        let chain = CanvasChain::new()
            .blend(&c, BlendFn::Over)
            .mask_tagged("m", MaskTag::PointAndArea)
            .value_tagged(ValueTag::HeatLog);
        assert_eq!(chain.plan(), "points → B[Over] → M[m] → V[f]");
        assert_eq!(chain.len(), 3);
        assert!(!chain.is_empty());
    }

    #[test]
    #[should_panic(expected = "share a viewport")]
    fn mismatched_blend_viewport_panics() {
        let other = Canvas::empty(vp(8));
        let chain = CanvasChain::new().blend(&other, BlendFn::Over);
        let mut dev = Device::cpu();
        let _ = run_points_chain(&mut dev, vp(16), &pts(), &chain);
    }
}
