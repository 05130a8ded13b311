//! Streamed ≡ materialized equivalence harness for fused operator
//! chains.
//!
//! The fused-execution contract (PR "Fused streaming operator chains"):
//! running `render(points) → op₁ → … → opₖ` tile-streamed through the
//! executor's multi-stage hand-off produces **bit-identical** canvases
//! — texel plane, certain-cover plane, boundary index — *and* identical
//! pipeline work counters, compared against
//!
//! 1. the materialized plan (one whole-canvas pass per operator), and
//! 2. the sequential `Device::cpu` reference,
//!
//! for random chains of depth 1–4 of built-in operators (every value,
//! blend and mask kernel) with random parameters,
//! across thread counts {1, 2, 3, 8}. The fused run must additionally
//! keep at most `Policy::stream_window(workers)` tile buffers live.
//!
//! A chain may also start from a materialized canvas
//! (`run_canvas_chain`): over the render of a point batch or a polygon
//! table it must equal the materialized passes over that render and
//! the fused draw-then-chain run, with the SIMD backend auto-dispatched
//! or forced to scalar.

mod common;

use canvas_algebra::prelude::*;
use canvas_core::boundary::{AreaEntry, LineEntry, PointEntry};
use canvas_core::ops::chain::{
    apply_chain_materialized, run_canvas_chain, run_points_chain, run_points_chain_materialized,
    run_polygons_chain, CanvasChain, ChainOutcome,
};
use canvas_core::queries::heatmap;
use canvas_raster::{Backend, MaskTag, Policy, ValueTag, WorkerPool};
use common::texel_bits;
use proptest::prelude::*;
use std::sync::Arc;

fn extent() -> BBox {
    BBox::new(Point::new(0.0, 0.0), Point::new(100.0, 100.0))
}

/// A chain operator as pure data, so the same random plan can be
/// instantiated against any device (operand canvases must be rendered
/// by the device under test for stats parity).
#[derive(Clone, Copy, Debug)]
enum OpSpec {
    /// A built-in Value Transform.
    Value(ValueTag),
    /// Blend with the next operand polygon canvas.
    Blend(BlendFn),
    /// A built-in coarse texel mask.
    Mask(MaskTag),
}

const BLENDS: [BlendFn; 5] = [
    BlendFn::Over,
    BlendFn::PointOverArea,
    BlendFn::AreaCount,
    BlendFn::Accumulate,
    BlendFn::PointAccumulate,
];

/// Strategy: a random chain of depth 1–4 over every built-in kernel,
/// with a random `DensityLog` tag and `AreaV1Above` threshold (the shim
/// has no `prop_oneof`, so the operator folds into one integer). Tags
/// above an area count plus one make `ln(1 + v1)` NaN; planes are
/// compared by their bits (`common::texel_bits`), so those chains are
/// held to the same contract.
fn arb_chain() -> impl Strategy<Value = Vec<OpSpec>> {
    prop::collection::vec(
        (0usize..9, 0.5f32..4.0).prop_map(|(k, p)| match k {
            0 => OpSpec::Value(ValueTag::HeatLog),
            1 => OpSpec::Value(ValueTag::DensityLog { tag: p }),
            2 => OpSpec::Mask(MaskTag::PointAndArea),
            3 => OpSpec::Mask(MaskTag::AreaV1Above { threshold: p }),
            _ => OpSpec::Blend(BLENDS[k - 4]),
        }),
        1..5,
    )
}

/// Renders one operand polygon canvas per Blend op (same geometry and
/// order on every device) and builds the borrowed chain.
fn build_chain<'a>(specs: &[OpSpec], operands: &'a [Canvas]) -> CanvasChain<'a> {
    let mut chain = CanvasChain::new();
    let mut next_operand = 0usize;
    for spec in specs {
        chain = match *spec {
            OpSpec::Value(tag) => chain.value_tagged(tag),
            OpSpec::Blend(op) => {
                let c = &operands[next_operand];
                next_operand += 1;
                chain.blend(c, op)
            }
            OpSpec::Mask(tag @ MaskTag::PointAndArea) => chain.mask_tagged("point∧area", tag),
            OpSpec::Mask(tag) => chain.mask_tagged("area>k", tag),
        };
    }
    chain
}

/// Renders the Blend operands for a spec list, in spec order.
fn render_operands(dev: &mut Device, vp: Viewport, specs: &[OpSpec], seed: u64) -> Vec<Canvas> {
    specs
        .iter()
        .filter(|s| matches!(s, OpSpec::Blend(_)))
        .enumerate()
        .map(|(k, _)| {
            let mbr = BBox::new(
                Point::new(10.0 + 7.0 * k as f64, 12.0 + 5.0 * k as f64),
                Point::new(70.0 + 6.0 * k as f64, 75.0 + 4.0 * k as f64),
            );
            let poly = star_polygon(&mbr, 10 + 3 * k, 0.6, seed + k as u64);
            canvas_core::source::render_query_polygon(dev, vp, poly, k as u32 + 1)
        })
        .collect()
}

/// The geometry a chain's first canvas is drawn from.
enum Source {
    Points(PointBatch),
    Polygons(AreaSource),
}

impl Source {
    fn generate(polygons: bool, n: usize, seed: u64) -> Source {
        if !polygons {
            return Source::Points(PointBatch::from_points(uniform_points(&extent(), n, seed)));
        }
        let table = (0..1 + n % 5)
            .map(|k| {
                let (x0, y0) = (5.0 + 11.0 * k as f64, 8.0 + 9.0 * k as f64);
                let mbr = BBox::new(Point::new(x0, y0), Point::new(x0 + 45.0, y0 + 40.0));
                star_polygon(&mbr, 8 + 2 * k, 0.5, seed + k as u64)
            })
            .collect();
        Source::Polygons(Arc::new(table))
    }

    /// The materialized render the chain starts from.
    fn render(&self, dev: &mut Device, vp: Viewport) -> Canvas {
        match self {
            Source::Points(batch) => canvas_core::source::render_points(dev, vp, batch),
            Source::Polygons(table) => {
                canvas_core::source::render_polygon_set(dev, vp, table, BlendFn::AreaCount)
            }
        }
    }

    /// `render → chain`, fused over the draw.
    fn fused(&self, dev: &mut Device, vp: Viewport, chain: &CanvasChain<'_>) -> ChainOutcome {
        match self {
            Source::Points(batch) => run_points_chain(dev, vp, batch, chain),
            Source::Polygons(table) => {
                run_polygons_chain(dev, vp, table, BlendFn::AreaCount, chain)
            }
        }
    }
}

/// The null pixels after each Mask op of `specs`, one bitmap per mask,
/// from the materialized prefix ending at that op — the definition the
/// runners' `MaskOutcome` bitmaps must meet.
fn materialized_mask_bitmaps(
    dev: &mut Device,
    input: &Canvas,
    specs: &[OpSpec],
    operands: &[Canvas],
) -> Vec<Vec<bool>> {
    let mut bitmaps = Vec::new();
    for (i, spec) in specs.iter().enumerate() {
        if let OpSpec::Mask(..) = spec {
            let prefix = build_chain(&specs[..=i], operands);
            let c = apply_chain_materialized(dev, input.clone(), &prefix);
            bitmaps.push(c.texels().texels().iter().map(Texel::is_null).collect());
        }
    }
    bitmaps
}

fn outcome_bitmaps(out: &ChainOutcome) -> Vec<Vec<bool>> {
    let pixels = out.canvas.texels().len() as u32;
    (0..out.masked.num_masks())
        .map(|m| {
            (0..pixels)
                .map(|p| out.masked.is_null_after(m, p))
                .collect()
        })
        .collect()
}

/// `chain` on `backend`, or on the process-wide backend for `None`.
fn pinned(chain: CanvasChain<'_>, backend: Option<Backend>) -> CanvasChain<'_> {
    match backend {
        Some(be) => chain.with_backend(be),
        None => chain,
    }
}

/// The boundary index as plain sorted entry lists.
fn entry_lists(c: &Canvas) -> (Vec<PointEntry>, Vec<AreaEntry>, Vec<LineEntry>) {
    let b = c.boundary();
    (
        b.points().copied().collect(),
        b.areas().to_vec(),
        b.lines().to_vec(),
    )
}

proptest! {
    // More cases than the block below: strip starts land off 64-bit
    // word boundaries only at some resolutions and band splits.
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A chain over a materialized canvas: `run_canvas_chain(render(s),
    /// chain)` ≡ the materialized passes over `render(s)` ≡ the fused
    /// draw-then-chain run of `s`, for point and polygon sources, at
    /// threads {1, 2, 3, 8}, auto and forced-scalar SIMD — planes,
    /// sorted boundary lists, per-mask null bitmaps and every pipeline
    /// work counter.
    #[test]
    fn canvas_chain_equals_fused_and_materialized(
        specs in arb_chain(),
        polygons in prop::sample::select(vec![false, true]),
        n in 50usize..400,
        seed in 0u64..10_000,
        // 100 px rows put strip starts off 64-bit word boundaries.
        res in prop::sample::select(vec![64u32, 100, 192]),
    ) {
        let source = Source::generate(polygons, n, seed);
        let vp = Viewport::square_pixels(extent(), res);

        let mut ref_dev = Device::cpu();
        let ref_operands = render_operands(&mut ref_dev, vp, &specs, seed);
        let input = source.render(&mut ref_dev, vp);
        let reference = apply_chain_materialized(
            &mut ref_dev,
            input.clone(),
            &build_chain(&specs, &ref_operands),
        );
        let ref_stats = ref_dev.stats();
        let ref_bitmaps = materialized_mask_bitmaps(&mut ref_dev, &input, &specs, &ref_operands);

        for threads in [1usize, 2, 3, 8] {
            for backend in [None, Some(Backend::Scalar)] {
                let ctx = format!("{threads} threads, {backend:?}, chain {specs:?}");
                let mut dev = Device::cpu_parallel(threads);
                let operands = render_operands(&mut dev, vp, &specs, seed);
                let input = source.render(&mut dev, vp);
                let chain = pinned(build_chain(&specs, &operands), backend);
                let over = run_canvas_chain(&mut dev, &input, &chain);
                let over_stats = dev.stats();
                let mut dev = Device::cpu_parallel(threads);
                let operands = render_operands(&mut dev, vp, &specs, seed);
                let chain = pinned(build_chain(&specs, &operands), backend);
                let fused = source.fused(&mut dev, vp, &chain);
                let fused_stats = dev.stats();

                prop_assert_eq!(
                    texel_bits(reference.texels()), texel_bits(over.canvas.texels()),
                    "texels: {}", &ctx
                );
                prop_assert_eq!(reference.cover(), over.canvas.cover(), "cover: {}", &ctx);
                prop_assert_eq!(
                    entry_lists(&reference), entry_lists(&over.canvas), "entries: {}", &ctx
                );
                prop_assert_eq!(
                    reference.area_sources().len(), over.canvas.area_sources().len(),
                    "sources: {}", &ctx
                );
                prop_assert_eq!(&ref_bitmaps, &outcome_bitmaps(&over), "masks: {}", &ctx);
                prop_assert_eq!(&ref_stats, &over_stats, "stats: {}", &ctx);
                prop_assert_eq!(over.peak_tiles_in_flight, 0, "no tile buffers: {}", &ctx);

                prop_assert_eq!(
                    texel_bits(fused.canvas.texels()), texel_bits(over.canvas.texels()),
                    "texels: {}", &ctx
                );
                prop_assert_eq!(fused.canvas.cover(), over.canvas.cover(), "cover: {}", &ctx);
                prop_assert_eq!(
                    entry_lists(&fused.canvas), entry_lists(&over.canvas), "entries: {}", &ctx
                );
                prop_assert_eq!(&ref_bitmaps, &outcome_bitmaps(&fused), "masks: {}", &ctx);
                prop_assert_eq!(&ref_stats, &fused_stats, "stats: {}", &ctx);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The tentpole invariant: random chains, streamed vs materialized
    /// vs `Device::cpu`, bit-identical planes + boundary + stats across
    /// threads {1, 2, 3, 8}; fused peak live tiles within the window.
    #[test]
    fn chain_streamed_equals_materialized_across_threads(
        specs in arb_chain(),
        n in 50usize..400,
        seed in 0u64..10_000,
        res in prop::sample::select(vec![64u32, 128, 192]),
    ) {
        let batch = PointBatch::from_points(uniform_points(&extent(), n, seed));
        let vp = Viewport::square_pixels(extent(), res);

        // Sequential materialized reference (Device::cpu).
        let mut ref_dev = Device::cpu();
        let ref_operands = render_operands(&mut ref_dev, vp, &specs, seed);
        let reference =
            run_points_chain_materialized(&mut ref_dev, vp, &batch, &build_chain(&specs, &ref_operands));
        let ref_stats = ref_dev.stats();

        for threads in [1usize, 2, 3, 8] {
            let mut dev = Device::cpu_parallel(threads);
            let operands = render_operands(&mut dev, vp, &specs, seed);
            let fused = run_points_chain(&mut dev, vp, &batch, &build_chain(&specs, &operands));
            prop_assert_eq!(
                texel_bits(reference.texels()), texel_bits(fused.canvas.texels()),
                "texels diverge: {} threads, chain {:?}", threads, &specs
            );
            prop_assert_eq!(
                reference.cover(), fused.canvas.cover(),
                "cover diverges: {} threads, chain {:?}", threads, &specs
            );
            prop_assert_eq!(
                reference.boundary(), fused.canvas.boundary(),
                "boundary diverges: {} threads, chain {:?}", threads, &specs
            );
            prop_assert_eq!(
                reference.area_sources().len(), fused.canvas.area_sources().len(),
                "sources diverge: {} threads", threads
            );
            prop_assert_eq!(
                &ref_stats, &dev.stats(),
                "stats diverge: {} threads, chain {:?}", threads, &specs
            );
            let pool = dev.pool();
            let window = pool.policy().stream_window(pool.worker_count());
            prop_assert!(
                fused.peak_tiles_in_flight <= window,
                "peak {} tiles exceeds window {} at {} threads",
                fused.peak_tiles_in_flight, window, threads
            );
        }
    }

    /// The heatmap query (the selection's entry walk) agrees with its
    /// materialized plan on random inputs and thread counts, the walk
    /// cut into bands however few points there are.
    #[test]
    fn chain_heatmap_query_equivalence(
        n in 50usize..400,
        seed in 0u64..10_000,
        verts in 6usize..24,
        threads in prop::sample::select(vec![1usize, 2, 3, 8]),
    ) {
        let mbr = BBox::new(Point::new(15.0, 10.0), Point::new(85.0, 80.0));
        let poly = star_polygon(&mbr, verts, 0.55, seed);
        let batch = PointBatch::from_points(uniform_points(&extent(), n, seed));
        let vp = Viewport::square_pixels(extent(), 128);

        let mut dev_f = Device::cpu_parallel(threads);
        dev_f.pool().set_min_work_override(1);
        let walked = heatmap::selection_heatmap(&mut dev_f, vp, &batch, &poly);
        let mut dev_m = Device::cpu();
        let want = heatmap::selection_heatmap_materialized(&mut dev_m, vp, &batch, &poly);

        prop_assert_eq!(texel_bits(want.texels()), texel_bits(walked.texels()), "{} threads", threads);
        prop_assert_eq!(want.cover(), walked.cover(), "{} threads", threads);
        prop_assert_eq!(want.boundary(), walked.boundary(), "{} threads", threads);
        prop_assert_eq!(dev_f.stats().fullscreen_texels, 0, "no pass over the planes");
    }
}

/// Edge case: an empty draw (0 primitives) must still run every chain
/// operator over the whole canvas, identically on every path.
#[test]
fn chain_empty_draw_equivalence() {
    let vp = Viewport::square_pixels(extent(), 128);
    let batch = PointBatch::from_points(vec![]);
    let specs = [
        OpSpec::Value(ValueTag::DensityLog { tag: 2.0 }),
        OpSpec::Blend(BlendFn::Over),
        OpSpec::Mask(MaskTag::AreaV1Above { threshold: 0.5 }),
    ];

    let mut ref_dev = Device::cpu();
    let operands = render_operands(&mut ref_dev, vp, &specs, 7);
    let reference =
        run_points_chain_materialized(&mut ref_dev, vp, &batch, &build_chain(&specs, &operands));
    for threads in [1usize, 3, 8] {
        let mut dev = Device::cpu_parallel(threads);
        let operands = render_operands(&mut dev, vp, &specs, 7);
        let fused = run_points_chain(&mut dev, vp, &batch, &build_chain(&specs, &operands));
        assert_eq!(
            texel_bits(reference.texels()),
            texel_bits(fused.canvas.texels()),
            "{threads} threads"
        );
        assert_eq!(reference.cover(), fused.canvas.cover(), "{threads} threads");
        assert_eq!(ref_dev.stats(), dev.stats(), "{threads} threads");
    }
}

/// Edge case: a canvas smaller than one tile (single-tile streaming).
#[test]
fn chain_single_tile_canvas_equivalence() {
    let vp = Viewport::square_pixels(extent(), 32); // < 64-pixel tile
    let batch = PointBatch::from_points(uniform_points(&extent(), 120, 11));
    let specs = [
        OpSpec::Blend(BlendFn::PointOverArea),
        OpSpec::Mask(MaskTag::PointAndArea),
        OpSpec::Value(ValueTag::HeatLog),
    ];

    let mut ref_dev = Device::cpu();
    let operands = render_operands(&mut ref_dev, vp, &specs, 3);
    let reference =
        run_points_chain_materialized(&mut ref_dev, vp, &batch, &build_chain(&specs, &operands));
    for threads in [1usize, 2, 8] {
        let mut dev = Device::cpu_parallel(threads);
        let operands = render_operands(&mut dev, vp, &specs, 3);
        let fused = run_points_chain(&mut dev, vp, &batch, &build_chain(&specs, &operands));
        assert_eq!(
            texel_bits(reference.texels()),
            texel_bits(fused.canvas.texels()),
            "{threads} threads"
        );
        assert_eq!(
            reference.boundary(),
            fused.canvas.boundary(),
            "{threads} threads"
        );
        assert!(fused.peak_tiles_in_flight <= 1, "one tile total");
        assert_eq!(ref_dev.stats(), dev.stats(), "{threads} threads");
    }
}

/// Edge case: a (mis)configured streaming window of 0 is clamped to 1
/// and the fused chain still completes with identical results — the
/// claim gate must serialize, not deadlock.
#[test]
fn chain_window_zero_policy_clamped_not_deadlocked() {
    let vp = Viewport::square_pixels(extent(), 128);
    let batch = PointBatch::from_points(uniform_points(&extent(), 300, 23));
    let specs = [
        OpSpec::Blend(BlendFn::AreaCount),
        OpSpec::Mask(MaskTag::AreaV1Above { threshold: 0.5 }),
    ];

    let mut ref_dev = Device::cpu();
    let operands = render_operands(&mut ref_dev, vp, &specs, 5);
    let reference =
        run_points_chain_materialized(&mut ref_dev, vp, &batch, &build_chain(&specs, &operands));

    let mut dev = Device::cpu_parallel(4);
    let policy = Policy {
        stream_window_per_worker: 0,
        ..*dev.pool().policy()
    };
    dev.pipeline()
        .set_pool(Arc::new(WorkerPool::with_policy(4, policy)));
    assert_eq!(
        dev.pool().policy().stream_window(dev.pool().worker_count()),
        1
    );
    let operands = render_operands(&mut dev, vp, &specs, 5);
    let fused = run_points_chain(&mut dev, vp, &batch, &build_chain(&specs, &operands));
    assert_eq!(
        texel_bits(reference.texels()),
        texel_bits(fused.canvas.texels())
    );
    assert_eq!(reference.cover(), fused.canvas.cover());
    assert_eq!(reference.boundary(), fused.canvas.boundary());
    assert_eq!(fused.peak_tiles_in_flight, 1, "window 1 ⇒ one live tile");
}
