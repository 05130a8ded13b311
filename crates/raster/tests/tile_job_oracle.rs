//! One oracle for the one tile-job runner: every public draw, chain
//! and patch entry point, at threads {1, 2, 3, 5} × SIMD auto/scalar
//! chain kernels, on viewports drawn from {1×1, 64×64, 65×1, 129×130,
//! 150×100} (one tile, exactly one aligned tile, a single-row plane,
//! ragged edge tiles in both axes), against a reference that
//! rasterizes primitive by primitive with the `rasterize_*` kernels
//! and applies each chain operator as a plain full-frame loop. Tiles
//! are written in place through their row segments, so these sizes
//! are where a misplaced segment would show. Texel plane, cover plane,
//! boundary list, mask bitmaps and every work counter must be equal.
//! A point draw's chain (`run_chain_points`) and a polygon table's
//! chain (`run_chain_texture` over its finished draw) are both held to
//! the same reference.

use canvas_geom::{BBox, Point, Polygon, Polyline, Ring, Segment};
use canvas_raster::rasterize::{
    rasterize_line_supercover, rasterize_point, rasterize_polygon_fill,
};
use canvas_raster::{
    simd, Backend, BlendTag, Frag, MaskTag, OpChain, Pipeline, PipelineStats, TexelWords, Texture,
    TileGrid, ValueTag, Viewport,
};
use proptest::prelude::*;
use std::collections::HashSet;

/// Test-local 40-byte texel honoring the [`TexelWords`] layout.
#[repr(C)]
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
struct T10([u32; 10]);

// SAFETY: repr(C) array of exactly ten u32 words — 40 bytes, align 4,
// no padding, no niches. Word 0 is the presence mask.
unsafe impl TexelWords for T10 {}

/// Viewport sizes in pixels: one partial tile, one exact tile, a
/// single row, and ragged edge tiles in both axes (3×2 and 3×3 tiles).
const DIMS: [(u32, u32); 5] = [(1, 1), (64, 64), (65, 1), (129, 130), (150, 100)];

fn vp((w, h): (u32, u32)) -> Viewport {
    let world = BBox::new(Point::new(0.0, 0.0), Point::new(100.0, 100.0));
    Viewport::new(world, w, h)
}

#[derive(Clone, Debug)]
enum Source {
    Points(Vec<Point>),
    /// The table and the `conservative` flag.
    Polygons(Vec<Polygon>, bool),
    Polylines(Vec<Polyline>),
}

impl Source {
    fn len(&self) -> usize {
        match self {
            Source::Points(pts) => pts.len(),
            Source::Polygons(polys, _) => polys.len(),
            Source::Polylines(lines) => lines.len(),
        }
    }
}

/// One chain operator: a built-in kernel and, for a blend, whether it
/// merges the operand's cover plane.
#[derive(Clone, Copy, Debug)]
enum Op {
    Map(ValueTag),
    Blend { tag: BlendTag, cover: bool },
    Mask(MaskTag),
}

fn is_null(t: &T10) -> bool {
    t.0[0] == 0
}

/// A built-in blend applied to one texel pair (the scalar reference).
fn blend1(tag: BlendTag, mut d: T10, s: T10) -> T10 {
    let (d1, s1) = (std::slice::from_mut(&mut d), std::slice::from_ref(&s));
    simd::blend_rows_with(Backend::Scalar, tag, d1, s1);
    d
}

/// The fragment shader of a source: row `dim` holds `(record, 1, x+y)`.
fn shade(dim: usize, record: u32, f: Frag) -> T10 {
    let mut t = [0u32; 10];
    t[0] = 1 << dim;
    t[1 + 3 * dim] = record;
    t[2 + 3 * dim] = 1.0f32.to_bits();
    t[3 + 3 * dim] = ((f.x + f.y) as f32).to_bits();
    T10(t)
}

fn map1(tag: ValueTag, mut t: T10) -> T10 {
    simd::value_rows_with(Backend::Scalar, tag, std::slice::from_mut(&mut t));
    t
}

/// The lowered mask semantics of a built-in predicate: null passes.
fn keep(tag: MaskTag, t: &T10) -> bool {
    is_null(t) || simd::mask_pred(tag, t)
}

/// Everything a tile job produces that a caller can observe.
#[derive(Debug, Default, PartialEq)]
struct Outcome {
    tex: Vec<T10>,
    cov: Vec<u16>,
    boundary: Vec<(u32, u32)>,
    /// Per Mask op, per pixel: null right after the op.
    nulls: Vec<Vec<bool>>,
    stats: PipelineStats,
}

/// Draw blend per dimension of the source (points, lines, areas).
const DRAW_BLEND: [BlendTag; 3] = [
    BlendTag::PointAccumulate,
    BlendTag::Over,
    BlendTag::AreaCount,
];

/// Fragments `(x, y, boundary)` of one primitive, each pixel once: a
/// point, the supercover of `edges`, the center-sampled `fill`.
type Frags = Vec<(u32, u32, bool)>;

fn fragments(
    vp: &Viewport,
    pt: Option<Point>,
    edges: Vec<Segment>,
    fill: Option<&Polygon>,
) -> Frags {
    let (mut seen, mut out) = (HashSet::new(), Vec::new());
    let mut emit = |x, y, edge| {
        if seen.insert((x, y)) {
            out.push((x, y, edge));
        }
    };
    if let Some(p) = pt {
        rasterize_point(vp, p, |x, y| emit(x, y, true));
    }
    for e in edges {
        rasterize_line_supercover(vp, e.a, e.b, |x, y| emit(x, y, true));
    }
    if let Some(poly) = fill {
        rasterize_polygon_fill(vp, poly, |x, y| emit(x, y, false));
    }
    out
}

/// Primitive `rec` of `src`: (dimension, vertices, primitives, fragments).
fn primitive(vp: &Viewport, src: &Source, rec: usize) -> (usize, usize, usize, Frags) {
    match src {
        Source::Points(pts) => (0, 1, 1, fragments(vp, Some(pts[rec]), vec![], None)),
        Source::Polylines(lines) => {
            let l = &lines[rec];
            let frags = fragments(vp, None, l.segments().collect(), None);
            (1, l.vertices().len(), l.num_segments(), frags)
        }
        Source::Polygons(polys, conservative) => {
            let p = &polys[rec];
            let edges = p.edges().filter(|_| *conservative).collect();
            let frags = fragments(vp, None, edges, Some(p));
            (2, p.num_vertices(), 1 + p.holes().len(), frags)
        }
    }
}

/// The reference: immediate-mode rasterization, primitive by primitive,
/// then one plain full-frame loop per operator.
fn reference(src: &Source, ops: &[Op], operand: &Texture<T10>, op_cov: &Texture<u16>) -> Outcome {
    let (vp, (w, h)) = (vp(dims(operand)), dims(operand));
    let n = (w * h) as usize;
    let mut o = Outcome::default();
    (o.tex, o.cov, o.stats.passes) = (vec![T10::default(); n], vec![0; n], 1);
    for rec in 0..src.len() {
        let (dim, vertices, primitives, frags) = primitive(&vp, src, rec);
        o.stats.vertices += vertices as u64;
        o.stats.primitives += primitives as u64;
        o.stats.fragments += frags.len() as u64;
        o.stats.blend_ops += frags.len() as u64;
        for (x, y, boundary) in frags {
            let i = (y * w + x) as usize;
            let src = shade(dim, rec as u32, Frag { x, y, boundary });
            o.tex[i] = blend1(DRAW_BLEND[dim], o.tex[i], src);
            o.stats.boundary_fragments += boundary as u64;
            match (dim, boundary) {
                (0, _) => {}
                (_, true) => o.boundary.push((rec as u32, y * w + x)),
                (_, false) => o.cov[i] = o.cov[i].saturating_add(1),
            }
        }
    }
    for &op in ops {
        let planes = 1 + matches!(op, Op::Blend { cover: true, .. }) as u64;
        o.stats.passes += planes;
        o.stats.fullscreen_texels += planes * n as u64;
        let mut null_after = Vec::new();
        for i in 0..n {
            match op {
                Op::Map(tag) => o.tex[i] = map1(tag, o.tex[i]),
                Op::Blend { tag, cover } => {
                    o.tex[i] = blend1(tag, o.tex[i], operand.texels()[i]);
                    o.cov[i] = o.cov[i].saturating_add(if cover { op_cov.texels()[i] } else { 0 });
                    o.stats.blend_ops += planes;
                }
                Op::Mask(tag) => {
                    if !keep(tag, &o.tex[i]) {
                        (o.tex[i], o.cov[i]) = (T10::default(), 0);
                    }
                    null_after.push(is_null(&o.tex[i]));
                }
            }
        }
        if matches!(op, Op::Mask(_)) {
            o.nulls.push(null_after);
        }
    }
    o.boundary.sort_unstable();
    o
}

/// The same job through the pipeline's public entry points, chain
/// kernels on backend `be`.
fn pipeline(
    (threads, be): (usize, Backend),
    src: &Source,
    ops: &[Op],
    operand: &Texture<T10>,
    op_cov: &Texture<u16>,
) -> Outcome {
    let mut chain: OpChain<'_, T10> = OpChain::new().with_backend(be);
    for &op in ops {
        chain = match op {
            Op::Map(tag) => chain.map_tagged(tag),
            Op::Blend { tag, cover } => chain.blend_tagged(operand, cover.then_some(op_cov), tag),
            Op::Mask(tag) => chain.mask_tagged(tag),
        };
    }
    let (vp, (w, h)) = (vp(dims(operand)), dims(operand));
    let mut pl = Pipeline::new();
    pl.set_threads(threads);
    let (mut fb, mut cover) = (Texture::<T10>::new(w, h), Texture::<u16>::new(w, h));
    let blend = |dim: usize| move |d, s| blend1(DRAW_BLEND[dim], d, s);
    let (mut boundary, report) = match src {
        Source::Points(pts) => {
            // The point shader is only called for in-viewport points.
            let shade = |r: u32, p: Point| {
                let (x, y) = vp.world_to_pixel(p).expect("shaded points are in view");
                let boundary = true;
                shade(0, r, Frag { x, y, boundary })
            };
            let report = if ops.is_empty() {
                pl.draw_points_tiled(&vp, &mut fb, pts, shade, blend(0));
                None
            } else {
                let cover = Some(&mut cover);
                Some(pl.run_chain_points(&vp, &mut fb, cover, pts, shade, blend(0), &chain))
            };
            (Vec::new(), report)
        }
        Source::Polylines(lines) => {
            let shade = |r, f| shade(1, r, f);
            let boundary = pl.draw_polylines_tiled(&vp, &mut fb, lines, shade, blend(1));
            (boundary, None)
        }
        Source::Polygons(polys, conservative) => {
            // A polygon table's chain runs over the finished draw.
            let (shade, cons) = (|r, f| shade(2, r, f), *conservative);
            let boundary =
                pl.draw_polygons_tiled(&vp, &mut fb, &mut cover, polys, cons, shade, blend(2));
            let report =
                (!ops.is_empty()).then(|| pl.run_chain_texture(&mut fb, Some(&mut cover), &chain));
            (boundary, report)
        }
    };
    boundary.sort_unstable();
    let masks = ops.iter().filter(|op| matches!(op, Op::Mask(_))).count();
    let nulls = (0..masks)
        .map(|m| {
            let masked = report.as_ref().expect("masks imply a chain run");
            (0..w * h).map(|p| masked.is_null_after(m, p)).collect()
        })
        .collect();
    Outcome {
        tex: fb.texels().to_vec(),
        cov: cover.texels().to_vec(),
        boundary,
        nulls,
        stats: pl.stats(),
    }
}

fn arb_point() -> impl Strategy<Value = Point> {
    (-10.0f64..110.0, -10.0f64..110.0).prop_map(|(x, y)| Point::new(x, y))
}

/// A star polygon around `(cx, cy)`, every other one with a hole.
fn arb_polygon() -> impl Strategy<Value = Polygon> {
    (
        3usize..14,
        10.0f64..90.0,
        10.0f64..90.0,
        8.0f64..45.0,
        0u32..2,
    )
        .prop_map(|(n, cx, cy, r, hole)| {
            let ring = |r0: f64| -> Vec<Point> {
                (0..n)
                    .map(|i| {
                        let ang = std::f64::consts::TAU * i as f64 / n as f64;
                        let r = if i % 2 == 0 { r0 } else { r0 * 0.6 };
                        Point::new(cx + r * ang.cos(), cy + r * ang.sin())
                    })
                    .collect()
            };
            let holes = if hole == 1 {
                vec![Ring::new(ring(r * 0.4)).unwrap()]
            } else {
                Vec::new()
            };
            Polygon::new(Ring::new(ring(r)).unwrap(), holes)
        })
}

fn arb_source() -> impl Strategy<Value = Source> {
    (
        0u32..3,
        prop::collection::vec(arb_point(), 0..400),
        prop::collection::vec(arb_polygon(), 0..5),
        prop::collection::vec(prop::collection::vec(arb_point(), 2..6), 0..5),
        0u32..4,
    )
        .prop_map(|(kind, pts, polys, lines, conservative)| match kind {
            0 => Source::Points(pts),
            1 => Source::Polygons(polys, conservative != 0),
            _ => Source::Polylines(lines.into_iter().filter_map(Polyline::new).collect()),
        })
}

fn arb_op() -> impl Strategy<Value = Op> {
    const BLENDS: [BlendTag; 5] = [
        BlendTag::Over,
        BlendTag::PointOverArea,
        BlendTag::AreaCount,
        BlendTag::Accumulate,
        BlendTag::PointAccumulate,
    ];
    (0u32..6, 0usize..5, 0.0f32..2.0, 0u32..2).prop_map(|(k, blend, p, cover)| match k {
        0 => Op::Map(ValueTag::HeatLog),
        1 => Op::Map(ValueTag::DensityLog { tag: p }),
        2 | 3 => Op::Blend {
            tag: BLENDS[blend],
            cover: cover == 1,
        },
        4 => Op::Mask(MaskTag::PointAndArea),
        _ => Op::Mask(MaskTag::AreaV1Above { threshold: p }),
    })
}

/// The viewport size of a run: its blend operand's.
fn dims(operand: &Texture<T10>) -> (u32, u32) {
    (operand.width(), operand.height())
}

/// Every thread count × chain backend a run is repeated at.
fn runs() -> impl Iterator<Item = (usize, Backend)> {
    [1usize, 2, 3, 5]
        .into_iter()
        .flat_map(|t| [(t, Backend::Scalar), (t, simd::active_backend())])
}

/// `w × h` blend operand planes with every presence pattern and finite
/// values.
fn operands((w, h): (u32, u32)) -> (Texture<T10>, Texture<u16>) {
    let (mut tex, mut cov) = (Texture::<T10>::new(w, h), Texture::<u16>::new(w, h));
    for (i, (t, c)) in tex
        .texels_mut()
        .iter_mut()
        .zip(cov.texels_mut())
        .enumerate()
    {
        t.0[0] = (i % 8) as u32;
        (1..10).for_each(|d| t.0[d] = ((i * 9 + d) as f32 * 0.25).to_bits());
        *c = (i % 5) as u16;
    }
    (tex, cov)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// source × chain × viewport × threads × backend ≡ the reference.
    /// A draw writes only its touched tiles, a chain then runs over the
    /// whole finished frame; polylines have no chained entry point, so
    /// they always draw bare.
    #[test]
    fn tile_jobs_match_reference(
        src in arb_source(),
        ops in prop::collection::vec(arb_op(), 0..4),
        dim in 0..DIMS.len(),
    ) {
        let ops = if matches!(src, Source::Polylines(_)) { Vec::new() } else { ops };
        let (operand, op_cov) = operands(DIMS[dim]);
        let want = reference(&src, &ops, &operand, &op_cov);
        for run in runs() {
            let got = pipeline(run, &src, &ops, &operand, &op_cov);
            let ctx = format!("{:?} at {:?} (threads, backend), ops {:?}", DIMS[dim], run, &ops);
            prop_assert_eq!(&got.tex, &want.tex, "texels: {}", ctx);
            prop_assert_eq!(&got.cov, &want.cov, "cover: {}", ctx);
            prop_assert_eq!(&got.boundary, &want.boundary, "boundary: {}", ctx);
            prop_assert_eq!(&got.nulls, &want.nulls, "mask outcome: {}", ctx);
            prop_assert_eq!(got.stats, want.stats, "stats: {}", ctx);
        }
    }

    /// A full render is a patch of an empty predecessor with every tile
    /// dirty: patching an all-default framebuffer with the whole point
    /// set equals `run_chain_points` with the same one-op chain.
    #[test]
    fn patch_of_empty_frame_equals_full_render(
        pts in prop::collection::vec(arb_point(), 0..400),
        dim in 0..DIMS.len(),
    ) {
        let ((w, h), vp) = (DIMS[dim], vp(DIMS[dim]));
        let shade = |r: u32, _: Point| shade(0, r, Frag { x: 1, y: 2, boundary: true });
        let blend = |d, s| blend1(BlendTag::PointAccumulate, d, s);
        for (threads, be) in runs() {
            let mut pl = Pipeline::new();
            pl.set_threads(threads);
            let chain = OpChain::new().map_tagged(ValueTag::HeatLog).with_backend(be);
            let mut full = Texture::<T10>::new(w, h);
            pl.run_chain_points(&vp, &mut full, None, &pts, shade, blend, &chain);
            let drawn = pl.stats().fragments;
            let mut patched = Texture::<T10>::new(w, h);
            let report = pl.patch_points_tiled(&vp, &mut patched, &pts, shade, blend, Some((be, ValueTag::HeatLog)));
            prop_assert_eq!(&patched, &full, "{:?}: {} threads, backend {:?}", (w, h), threads, be);
            prop_assert_eq!(report.fragments, drawn);
            prop_assert_eq!(report.total_tiles, TileGrid::new(w, h).num_tiles());
            let touched: HashSet<(u32, u32)> = pts.iter().filter_map(|&p| vp.world_to_pixel(p)).map(|(x, y)| (x / 64, y / 64)).collect();
            prop_assert_eq!(report.dirty_tiles, touched.len());
        }
    }
}
