//! Chain ≡ materialized equivalence harness for canvas operator
//! chains.
//!
//! A chain runs over a finished canvas (`run_canvas_chain`): the
//! input's planes are copied once and every operator runs over the
//! copy in place. Over the render of a point batch or a polygon table
//! it must produce **bit-identical** canvases — texel plane,
//! certain-cover plane, boundary index — *and* identical pipeline work
//! counters, compared against the materialized plan (one whole-canvas
//! pass per operator) on the sequential `Device::cpu`, for random
//! chains of depth 1–4 of built-in operators (every value, blend and
//! mask kernel) with random parameters, across thread counts
//! {1, 2, 3, 8}, with the SIMD backend auto-dispatched or forced to
//! scalar.
//!
//! The point draw followed by a chain, `Pipeline::run_chain_points`, is
//! held to its reference one layer down, in
//! `crates/raster/tests/tile_job_oracle.rs`.

mod common;

use canvas_algebra::prelude::*;
use canvas_core::boundary::{AreaEntry, LineEntry, PointEntry};
use canvas_core::ops::chain::{apply_chain_materialized, run_canvas_chain, CanvasChain};
use canvas_core::queries::heatmap;
use canvas_raster::{Backend, MaskTag, ValueTag};
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
    /// chain)` ≡ the materialized passes over `render(s)` on
    /// `Device::cpu`, for point and polygon sources, at threads
    /// {1, 2, 3, 8}, auto and forced-scalar SIMD — planes, sorted
    /// boundary lists, sources and every pipeline work counter.
    #[test]
    fn canvas_chain_equals_materialized(
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
        let reference =
            apply_chain_materialized(&mut ref_dev, input, &build_chain(&specs, &ref_operands));
        let ref_stats = ref_dev.stats();

        for threads in [1usize, 2, 3, 8] {
            for backend in [None, Some(Backend::Scalar)] {
                let ctx = format!("{threads} threads, {backend:?}, chain {specs:?}");
                let mut dev = Device::cpu_parallel(threads);
                let operands = render_operands(&mut dev, vp, &specs, seed);
                let input = source.render(&mut dev, vp);
                let chain = pinned(build_chain(&specs, &operands), backend);
                let over = run_canvas_chain(&mut dev, &input, &chain);

                prop_assert_eq!(
                    texel_bits(reference.texels()), texel_bits(over.texels()),
                    "texels: {}", &ctx
                );
                prop_assert_eq!(reference.cover(), over.cover(), "cover: {}", &ctx);
                prop_assert_eq!(
                    entry_lists(&reference), entry_lists(&over), "entries: {}", &ctx
                );
                prop_assert_eq!(
                    reference.area_sources().len(), over.area_sources().len(),
                    "sources: {}", &ctx
                );
                prop_assert_eq!(&ref_stats, &dev.stats(), "stats: {}", &ctx);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

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

/// `chain` over the render of `batch`, on `dev`, with the Blend
/// operands `specs` names rendered by `dev` (for stats parity).
fn chain_over_points(
    dev: &mut Device,
    vp: Viewport,
    batch: &PointBatch,
    specs: &[OpSpec],
    seed: u64,
    materialized: bool,
) -> Canvas {
    let operands = render_operands(dev, vp, specs, seed);
    let input = canvas_core::source::render_points(dev, vp, batch);
    let chain = build_chain(specs, &operands);
    if materialized {
        apply_chain_materialized(dev, input, &chain)
    } else {
        run_canvas_chain(dev, &input, &chain)
    }
}

/// Edge case: the render of an empty batch (0 primitives) must still
/// run every chain operator over the whole canvas, identically on
/// every path.
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
    let reference = chain_over_points(&mut ref_dev, vp, &batch, &specs, 7, true);
    for threads in [1usize, 3, 8] {
        let mut dev = Device::cpu_parallel(threads);
        let got = chain_over_points(&mut dev, vp, &batch, &specs, 7, false);
        assert_eq!(
            texel_bits(reference.texels()),
            texel_bits(got.texels()),
            "{threads} threads"
        );
        assert_eq!(reference.cover(), got.cover(), "{threads} threads");
        assert_eq!(ref_dev.stats(), dev.stats(), "{threads} threads");
    }
}

/// Edge case: a canvas smaller than one tile, so a chain runs over
/// one strip shorter than a tile.
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
    let reference = chain_over_points(&mut ref_dev, vp, &batch, &specs, 3, true);
    for threads in [1usize, 2, 8] {
        let mut dev = Device::cpu_parallel(threads);
        let got = chain_over_points(&mut dev, vp, &batch, &specs, 3, false);
        assert_eq!(
            texel_bits(reference.texels()),
            texel_bits(got.texels()),
            "{threads} threads"
        );
        assert_eq!(reference.boundary(), got.boundary(), "{threads} threads");
        assert_eq!(ref_dev.stats(), dev.stats(), "{threads} threads");
    }
}
