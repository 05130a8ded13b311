//! Chain ≡ materialized equivalence harness for canvas operator
//! chains.
//!
//! A chain runs over a finished canvas (`ops::chain::run_chain`): the
//! input's planes are copied once and every kernel runs over the copy
//! in place. Over the render of a point batch or a polygon table it
//! must produce **bit-identical** canvases — texel plane, certain-cover
//! plane, boundary index — *and* identical pipeline work counters,
//! compared against the materialized kernels (one whole-canvas pass
//! each) on the sequential `Device::cpu`, for random chains of depth
//! 1–4 of built-in kernels (every value, blend and mask kernel) with
//! random parameters, across thread counts {1, 2, 3, 8}. The same
//! chains written as normalized plans hold too: the planner runs their
//! kernel tails as chains (or, for the selection heatmap's shape, as
//! the entry walk). The engine-served heatmaps are held to their
//! materialized references. Each of these also runs again with the
//! SIMD backend forced to scalar, in a child process.
//!
//! A chain whose input and operands are span-coded area canvases runs
//! per span; it is held to the same chain over the same canvases with
//! their planes folded (`span_chain_equals_the_chain_over_folded_canvases`).
//!
//! The point draw followed by a chain — the live heatmap's run, its
//! folded planes, then `V[HeatLog]` — is held to the tiled point draw
//! and its chain one layer down, in
//! `crates/raster/tests/tile_job_oracle.rs`.

mod common;

use canvas_algebra::engine::{EngineConfig, Query, QueryEngine};
use canvas_algebra::prelude::*;
use canvas_core::algebra::{normalize, plan_nodes};
use canvas_core::boundary::{AreaEntry, LineEntry, PointEntry};
use canvas_core::ops::chain::{apply_chain_materialized, run_chain, ChainKernel};
use canvas_core::queries::heatmap;
use canvas_raster::{MaskTag, ValueTag};
use common::{assert_same_canvas, rerun_on_scalar, texel_bits};
use proptest::prelude::*;
use std::sync::Arc;

fn extent() -> BBox {
    BBox::new(Point::new(0.0, 0.0), Point::new(100.0, 100.0))
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
/// held to the same contract. Each Blend reads the next operand
/// polygon canvas.
fn arb_chain() -> impl Strategy<Value = Vec<ChainKernel>> {
    prop::collection::vec(
        (0usize..9, 0.5f32..4.0).prop_map(|(k, p)| match k {
            0 => ChainKernel::Value(ValueTag::HeatLog),
            1 => ChainKernel::Value(ValueTag::DensityLog { tag: p }),
            2 => ChainKernel::Mask(MaskTag::PointAndArea),
            3 => ChainKernel::Mask(MaskTag::AreaV1Above { threshold: p }),
            _ => ChainKernel::Blend(BLENDS[k - 4]),
        }),
        1..5,
    )
}

/// One operand polygon and id per Blend kernel (same geometry and order
/// wherever the chain is instantiated).
fn operand_polygons(kernels: &[ChainKernel], seed: u64) -> Vec<(Polygon, u32)> {
    let blends = kernels
        .iter()
        .filter(|k| matches!(k, ChainKernel::Blend(_)));
    (blends.enumerate())
        .map(|(k, _)| {
            let mbr = BBox::new(
                Point::new(10.0 + 7.0 * k as f64, 12.0 + 5.0 * k as f64),
                Point::new(70.0 + 6.0 * k as f64, 75.0 + 4.0 * k as f64),
            );
            (
                star_polygon(&mbr, 10 + 3 * k, 0.6, seed + k as u64),
                k as u32 + 1,
            )
        })
        .collect()
}

/// One operand polygon leaf per Blend kernel.
fn operand_leaves(kernels: &[ChainKernel], seed: u64) -> Vec<Expr> {
    (operand_polygons(kernels, seed).into_iter())
        .map(|(poly, id)| Expr::query_polygon(poly, id))
        .collect()
}

/// Renders the Blend operands, in chain order, on `dev` (operand
/// canvases must be rendered by the device under test for stats
/// parity).
fn render_operands(dev: &mut Device, vp: Viewport, k: &[ChainKernel], seed: u64) -> Vec<Canvas> {
    (operand_leaves(k, seed).iter())
        .map(|leaf| leaf.eval(dev, vp))
        .collect()
}

/// The chain as a plan over `input`: one kernel node per kernel, each
/// Blend over its operand polygon's leaf.
fn chain_plan(input: Expr, kernels: &[ChainKernel], seed: u64) -> Expr {
    let mut operands = operand_leaves(kernels, seed).into_iter();
    kernels.iter().fold(input, |acc, kernel| match *kernel {
        ChainKernel::Value(tag) => Expr::value_tagged(tag, acc),
        ChainKernel::Mask(tag) => Expr::mask(MaskSpec::Tagged(tag), acc),
        ChainKernel::Blend(op) => Expr::blend(op, acc, operands.next().unwrap()),
    })
}

/// The geometry a chain's first canvas is drawn from.
enum Source {
    Points(Arc<PointBatch>),
    Polygons(AreaSource),
}

impl Source {
    fn generate(polygons: bool, n: usize, seed: u64) -> Source {
        if !polygons {
            let batch = PointBatch::from_points(uniform_points(&extent(), n, seed));
            return Source::Points(Arc::new(batch));
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

    /// The plan leaf the chain starts from.
    fn leaf(&self) -> Expr {
        match self {
            Source::Points(batch) => Expr::points(batch.clone()),
            Source::Polygons(table) => Expr::polygon_set(table.clone(), BlendFn::AreaCount),
        }
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

    /// A chain over a materialized canvas: `run_chain(render(s),
    /// kernels)` ≡ the materialized passes over `render(s)` on
    /// `Device::cpu`, for point and polygon sources, at threads
    /// {1, 2, 3, 8} — planes, sorted boundary lists, sources and every
    /// pipeline work counter; and so is the normalized plan of the same
    /// kernels, whatever form the planner runs it in (the entry walk
    /// charges no counter, so a walked plan's counters are not
    /// compared).
    #[test]
    fn canvas_chain_equals_materialized(
        kernels in arb_chain(),
        polygons in prop::sample::select(vec![false, true]),
        n in 50usize..400,
        seed in 0u64..10_000,
        // 100 px rows put strip starts off 64-bit word boundaries.
        res in prop::sample::select(vec![64u32, 100, 192]),
    ) {
        let input = Source::generate(polygons, n, seed).leaf();
        let vp = Viewport::square_pixels(extent(), res);
        let plan = normalize(chain_plan(input.clone(), &kernels, seed));
        let walked = plan_nodes(&plan).iter().any(|n| n.label.ends_with("(entries)"));
        let mut ref_dev = Device::cpu();
        let reference = chain_over(&mut ref_dev, vp, &input, &kernels, seed, true);
        for threads in [1usize, 2, 3, 8] {
            let mut dev = Device::cpu_parallel(threads);
            let over = chain_over(&mut dev, vp, &input, &kernels, seed, false);
            let mut plan_dev = Device::cpu_parallel(threads);
            let planned = plan.eval(&mut plan_dev, vp);
            for (form, got, dev) in [("chain", &over, &dev), ("plan", &planned, &plan_dev)] {
                let ctx = format!("{form}, {threads} threads, chain {kernels:?}");
                let bits = texel_bits(got.texels());
                prop_assert_eq!(texel_bits(reference.texels()), bits, "texels: {}", &ctx);
                prop_assert_eq!(reference.cover(), got.cover(), "cover: {}", &ctx);
                prop_assert_eq!(entry_lists(&reference), entry_lists(got), "entries: {}", &ctx);
                let sources = (reference.area_sources().len(), got.area_sources().len());
                prop_assert_eq!(sources.0, sources.1, "sources: {}", &ctx);
                if !(walked && form == "plan") {
                    prop_assert_eq!(ref_dev.stats(), dev.stats(), "stats: {}", &ctx);
                }
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A chain over span-coded canvases — a polygon table drawn as
    /// spans, each Blend reading a query polygon drawn as spans — runs
    /// per span and equals the same chain over the same canvases with
    /// their planes folded (the chain over planes), counters included,
    /// at threads {1, 2, 3, 8}, cut into bands however small the frame
    /// is. The span canvases are never folded for it.
    #[test]
    fn span_chain_equals_the_chain_over_folded_canvases(
        kernels in arb_chain(),
        n in 50usize..400,
        seed in 0u64..10_000,
        res in prop::sample::select(vec![64u32, 100, 192]),
    ) {
        let Source::Polygons(table) = Source::generate(true, n, seed) else {
            unreachable!("a polygon source")
        };
        let vp = Viewport::square_pixels(extent(), res);
        for threads in [1usize, 2, 3, 8] {
            let mut dev = Device::cpu_parallel(threads);
            dev.pool().set_min_work_override(1);
            let input = render_polygon_set(&mut dev, vp, &table, BlendFn::AreaCount);
            let operands: Vec<Canvas> = (operand_polygons(&kernels, seed).into_iter())
                .map(|(poly, id)| render_query_polygon(&mut dev, vp, poly, id))
                .collect();
            let fold = |c: &Canvas| {
                let c = c.clone();
                c.texels();
                c
            };
            let (folded_input, folded): (Canvas, Vec<Canvas>) =
                (fold(&input), operands.iter().map(fold).collect());
            let ctx = format!("{threads} threads, chain {kernels:?}");
            let before = dev.stats();
            let got = run_chain(&mut dev, &input, &kernels, &operands.iter().collect::<Vec<_>>());
            let span_stats = dev.stats().delta(&before);
            let before = dev.stats();
            let want = run_chain(&mut dev, &folded_input, &kernels, &folded.iter().collect::<Vec<_>>());
            prop_assert_eq!(span_stats, dev.stats().delta(&before), "stats: {}", &ctx);
            assert_same_canvas(&got, &want, &ctx);
            prop_assert!(got.planes_materialized(), "the output holds its planes: {}", &ctx);
            let unfolded = std::iter::once(&input).chain(&operands).all(|c| c.spans().is_some());
            prop_assert!(unfolded, "the chain folded a span canvas: {}", &ctx);
        }
    }
}

/// The chain `kernels` over `input`, on `dev`, with the Blend operands
/// rendered by `dev`: run in place, or as the materialized passes.
fn chain_over(
    dev: &mut Device,
    vp: Viewport,
    input: &Expr,
    kernels: &[ChainKernel],
    seed: u64,
    materialized: bool,
) -> Canvas {
    let operands = render_operands(dev, vp, kernels, seed);
    let operands: Vec<&Canvas> = operands.iter().collect();
    let input = input.eval(dev, vp);
    if materialized {
        apply_chain_materialized(dev, input, kernels, &operands)
    } else {
        run_chain(dev, &input, kernels, &operands)
    }
}

/// Edge case: the render of an empty batch (0 primitives) must still
/// run every chain operator over the whole canvas, identically on
/// every path.
#[test]
fn chain_empty_draw_equivalence() {
    let vp = Viewport::square_pixels(extent(), 128);
    let input = Expr::points(Arc::new(PointBatch::from_points(vec![])));
    let kernels = [
        ChainKernel::Value(ValueTag::DensityLog { tag: 2.0 }),
        ChainKernel::Blend(BlendFn::Over),
        ChainKernel::Mask(MaskTag::AreaV1Above { threshold: 0.5 }),
    ];

    let mut ref_dev = Device::cpu();
    let reference = chain_over(&mut ref_dev, vp, &input, &kernels, 7, true);
    for threads in [1usize, 3, 8] {
        let mut dev = Device::cpu_parallel(threads);
        let got = chain_over(&mut dev, vp, &input, &kernels, 7, false);
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
    let input = Expr::points(Arc::new(batch));
    let kernels = [
        ChainKernel::Blend(BlendFn::PointOverArea),
        ChainKernel::Mask(MaskTag::PointAndArea),
        ChainKernel::Value(ValueTag::HeatLog),
    ];

    let mut ref_dev = Device::cpu();
    let reference = chain_over(&mut ref_dev, vp, &input, &kernels, 3, true);
    for threads in [1usize, 2, 8] {
        let mut dev = Device::cpu_parallel(threads);
        let got = chain_over(&mut dev, vp, &input, &kernels, 3, false);
        assert_eq!(
            texel_bits(reference.texels()),
            texel_bits(got.texels()),
            "{threads} threads"
        );
        assert_eq!(reference.boundary(), got.boundary(), "{threads} threads");
        assert_eq!(ref_dev.stats(), dev.stats(), "{threads} threads");
    }
}

/// The two heatmap classes as the engine serves them equal their
/// materialized references: cold, and after a `SelectPoints` and an
/// `AggregateByZone` published the leaves they read, at threads
/// {1, 2, 8}.
#[test]
fn engine_served_heatmaps_equal_the_materialized_plans() {
    let vp = Viewport::new(extent(), 96, 80);
    let data = Arc::new(PointBatch::from_points(taxi_pickups(&extent(), 3_000, 5)));
    let zones: AreaSource = Arc::new(neighborhoods(&extent(), 6, 3));
    let q = star_polygon(
        &BBox::new(Point::new(15.0, 10.0), Point::new(85.0, 80.0)),
        17,
        0.55,
        5,
    );
    let mut dev = Device::cpu();
    let heatmaps = [
        (
            Query::SelectionHeatmap {
                data: data.clone(),
                q: q.clone(),
            },
            heatmap::selection_heatmap_materialized(&mut dev, vp, &data, &q),
        ),
        (
            Query::PolygonDensity {
                table: zones.clone(),
                q: q.clone(),
            },
            heatmap::polygon_density_heatmap_materialized(&mut dev, vp, &zones, &q),
        ),
    ];
    let warm = [
        Query::SelectPoints {
            data: data.clone(),
            q,
        },
        Query::AggregateByZone { data, zones },
    ];
    for threads in [1usize, 2, 8] {
        for warmed in [false, true] {
            let config = EngineConfig {
                threads,
                calibrate: false,
                ..EngineConfig::default()
            };
            let engine = QueryEngine::with_config(config);
            for w in warm.iter().filter(|_| warmed) {
                engine.execute(w, vp).unwrap();
            }
            let hits = engine.metrics().subplan_hits;
            for (query, want) in &heatmaps {
                assert!(!want.is_empty());
                let got = engine.execute(query, vp).unwrap();
                let ctx = format!("{}, threads={threads}, warmed={warmed}", query.label());
                assert_same_canvas(got.canvas(), want, &ctx);
            }
            // Warmed, they read C_P, C_Q and C_Y* from the cache.
            let read = engine.metrics().subplan_hits - hits;
            assert_eq!(read, if warmed { 3 } else { 0 }, "threads={threads}");
        }
    }
}

/// The chain and heatmap oracles above, again on the scalar backend.
#[test]
fn chains_and_heatmaps_hold_on_the_scalar_backend() {
    rerun_on_scalar(&[
        "canvas_chain_equals_materialized",
        "engine_served_heatmaps_equal_the_materialized_plans",
        "span_chain_equals_the_chain_over_folded_canvases",
    ]);
}
