//! SIMD ≡ scalar bit-identity properties — the fourth axis of the
//! repo's streamed ≡ materialized ≡ sequential equivalence oracle.
//!
//! The row kernels (`canvas_raster::simd`) promise that every vector
//! backend produces the *same bits* as the scalar reference — `-0.0`,
//! denormals, carried NaNs, non-canonical presence bits, and garbage
//! words under absent dimensions included — except that a float word
//! the scalar reference *computes* as NaN need only be a NaN (payloads
//! of summed NaNs are outside the contract; see the `simd` module
//! docs). These properties fuzz that promise directly on the kernels,
//! then on a draw and the chain over its frame across thread counts
//! and dispatch modes.

use canvas_geom::{BBox, Point, Polygon};
use canvas_raster::{
    simd, Backend, BlendTag, MaskTag, OpChain, Pipeline, TexelWords, Texture, ValueTag, Viewport,
};
use proptest::prelude::*;

/// Test-local 40-byte texel honoring the [`TexelWords`] layout (the
/// raster crate cannot name the canvas layer's `Texel`; any conforming
/// type exercises the same kernels).
#[repr(C)]
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
struct T10([u32; 10]);

// SAFETY: repr(C) array of exactly ten u32 words — 40 bytes, align 4,
// no padding, no niches. Word 0 serves as the presence mask.
unsafe impl TexelWords for T10 {}

/// Backends guaranteed present on this host: the scalar reference, the
/// process-wide dispatched backend, and (on x86_64) the baseline SSE2
/// path. Never names AVX2 directly — that only arrives via
/// `active_backend()` when the CPU actually has it.
fn backends() -> Vec<Backend> {
    let mut v = vec![Backend::Scalar, simd::active_backend()];
    if cfg!(target_arch = "x86_64") && !v.contains(&Backend::Sse2) {
        v.push(Backend::Sse2);
    }
    v
}

/// The `simd` bit-identity contract between a backend's row and the
/// scalar reference's: every word equal, except that a float word
/// (`v1`/`v2` of any dimension) may differ when both are NaNs.
fn rows_match(got: &[T10], want: &[T10]) -> bool {
    let word_ok = |w: usize, g: u32, s: u32| {
        let both_nan = f32::from_bits(g).is_nan() && f32::from_bits(s).is_nan();
        g == s || (w % 3 != 1 && w > 0 && both_nan)
    };
    got.len() == want.len()
        && got.iter().zip(want).all(|(g, s)| {
            let mut words = g.0.iter().zip(&s.0).enumerate();
            words.all(|(w, (&g, &s))| word_ok(w, g, s))
        })
}

/// Payload words biased toward adversarial f32 bit patterns: NaNs with
/// payload bits, `-0.0`, denormals, infinities, plus arbitrary words.
fn arb_word() -> impl Strategy<Value = u32> {
    (0u32..5, 0u32..u32::MAX).prop_map(|(k, r)| match k {
        0 => f32::NAN.to_bits() | (r & 0x3F_FFFF),
        1 => (-0.0f32).to_bits(),
        2 => 1, // smallest positive denormal
        3 => f32::NEG_INFINITY.to_bits(),
        _ => r,
    })
}

/// A full texel: presence `0..16` exercises a non-canonical high bit
/// (the keep-left tags must preserve it), and payload words are
/// arbitrary — including nonzero words under *absent* dims, which the
/// keep-verbatim tags copy and the start-from-∅ tags drop.
fn arb_texel() -> impl Strategy<Value = T10> {
    (0u32..16, prop::collection::vec(arb_word(), 9..10)).prop_map(|(p, w)| {
        let mut t = [0u32; 10];
        t[0] = p;
        t[1..10].copy_from_slice(&w);
        T10(t)
    })
}

/// Rows from one texel up to several vector widths plus a remainder, so
/// sub-lane rows and non-multiple-of-8 tails are always exercised.
fn arb_row() -> impl Strategy<Value = Vec<T10>> {
    prop::collection::vec(arb_texel(), 1..35)
}

/// Covers biased toward the saturation boundary.
fn arb_cover_row() -> impl Strategy<Value = Vec<u16>> {
    prop::collection::vec(
        (0u32..3, 0u32..65_536).prop_map(|(k, r)| match k {
            0 => u16::MAX - (r as u16 & 7),
            _ => r as u16,
        }),
        1..67,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every blend tag on every backend matches scalar under the
    /// contract (bit-identical but for the payloads of summed NaNs).
    #[test]
    fn blend_rows_bit_identity(a in arb_row(), b in arb_row()) {
        let n = a.len().min(b.len());
        let (a, b) = (&a[..n], &b[..n]);
        for tag in [
            BlendTag::Over,
            BlendTag::PointOverArea,
            BlendTag::AreaCount,
            BlendTag::Accumulate,
            BlendTag::PointAccumulate,
        ] {
            let mut want = a.to_vec();
            simd::blend_rows_with(Backend::Scalar, tag, &mut want, b);
            for be in backends() {
                let mut got = a.to_vec();
                simd::blend_rows_with(be, tag, &mut got, b);
                prop_assert!(
                    rows_match(&got, &want),
                    "tag {:?} backend {:?}: {:?} vs {:?}", tag, be, &got, &want
                );
            }
        }
    }

    /// Value transforms are bit-identical on every backend (they are
    /// deliberately scalar inside, but the dispatch surface must agree).
    #[test]
    fn value_rows_bit_identity(row in arb_row()) {
        for tag in [ValueTag::HeatLog, ValueTag::DensityLog { tag: 4.0 }] {
            let mut want = row.clone();
            simd::value_rows_with(Backend::Scalar, tag, &mut want);
            for be in backends() {
                let mut got = row.clone();
                simd::value_rows_with(be, tag, &mut got);
                prop_assert_eq!(&got, &want, "tag {:?} backend {:?}", tag, be);
            }
        }
    }

    /// Mask kernels agree on kept/nulled texels, the zeroed cover
    /// lanes, and every bit of the null bitmap.
    #[test]
    fn mask_rows_bit_identity(row in arb_row()) {
        let n = row.len();
        let cov0: Vec<u16> = (0..n).map(|i| (i as u16).wrapping_mul(31) | 1).collect();
        for tag in [
            MaskTag::PointAndArea,
            MaskTag::AreaV1Above { threshold: 0.5 },
            MaskTag::AreaV1Above { threshold: -1.0e-40 },
        ] {
            let mut want = row.clone();
            let mut want_cov = cov0.clone();
            let mut want_bits = vec![0u64; n.div_ceil(64)];
            simd::mask_rows_with(
                Backend::Scalar,
                tag,
                &mut want,
                Some(&mut want_cov),
                &mut want_bits,
            );
            for be in backends() {
                let mut got = row.clone();
                let mut got_cov = cov0.clone();
                let mut got_bits = vec![0u64; n.div_ceil(64)];
                simd::mask_rows_with(be, tag, &mut got, Some(&mut got_cov), &mut got_bits);
                prop_assert_eq!(&got, &want, "texels: tag {:?} backend {:?}", tag, be);
                prop_assert_eq!(&got_cov, &want_cov, "cover: tag {:?} backend {:?}", tag, be);
                prop_assert_eq!(&got_bits, &want_bits, "bits: tag {:?} backend {:?}", tag, be);
            }
        }
    }

    /// u16 cover merge saturates (never wraps) and is backend-agnostic.
    #[test]
    fn cover_add_saturates_bit_identical(a in arb_cover_row(), b in arb_cover_row()) {
        let n = a.len().min(b.len());
        let (a, b) = (&a[..n], &b[..n]);
        let mut want = a.to_vec();
        simd::cover_add_rows_with(Backend::Scalar, &mut want, b);
        for (i, w) in want.iter().enumerate() {
            prop_assert_eq!(*w, a[i].saturating_add(b[i]));
        }
        for be in backends() {
            let mut got = a.to_vec();
            simd::cover_add_rows_with(be, &mut got, b);
            prop_assert_eq!(&got, &want, "backend {:?}", be);
        }
    }
}

/// Regression for the `-O`-only divergence that set the contract: both
/// operands of an accumulate sum are NaNs with different payloads, so
/// which payload survives depends on how the add was commuted. Every
/// backend must still produce a NaN there and exact bits elsewhere.
#[test]
fn summed_nans_with_distinct_payloads_stay_nan() {
    let nan = |payload: u32| f32::NAN.to_bits() | payload;
    let a = [T10([
        0b101,
        7,
        nan(1),
        1.5f32.to_bits(),
        0,
        0,
        0,
        9,
        nan(3),
        nan(5),
    ]); 9];
    let b = [T10([
        0b101,
        8,
        nan(2),
        2.5f32.to_bits(),
        0,
        0,
        0,
        6,
        nan(4),
        nan(6),
    ]); 9];
    for tag in [
        BlendTag::Accumulate,
        BlendTag::PointAccumulate,
        BlendTag::AreaCount,
    ] {
        let mut want = a.to_vec();
        simd::blend_rows_with(Backend::Scalar, tag, &mut want, &b);
        for be in backends() {
            let mut got = a.to_vec();
            simd::blend_rows_with(be, tag, &mut got, &b);
            assert!(rows_match(&got, &want), "tag {tag:?} backend {be:?}");
            for (g, s) in got.iter().zip(&want) {
                // The finite sum is exact; ids and carried NaNs verbatim.
                assert_eq!((g.0[0], g.0[1], g.0[3]), (s.0[0], s.0[1], s.0[3]));
                assert_eq!(
                    (g.0[7], g.0[9]),
                    (s.0[7], s.0[9]),
                    "tag {tag:?} backend {be:?}"
                );
            }
        }
    }
}

/// One polygon draw and the chain over its frame; returns every
/// observable output.
#[allow(clippy::type_complexity)]
fn run_chain(
    threads: usize,
    forced: Option<Backend>,
    polys: &[Polygon],
    src: &Texture<T10>,
    src_cover: &Texture<u16>,
) -> (
    Texture<T10>,
    Texture<u16>,
    Vec<(u32, u32)>,
    Vec<bool>,
    (u64, u64, u64),
) {
    let (w, h) = (src.width(), src.height());
    let vp = Viewport::new(
        BBox::new(Point::new(0.0, 0.0), Point::new(100.0, 100.0)),
        w,
        h,
    );
    let mut chain = OpChain::new()
        .blend_tagged(src, Some(src_cover), BlendTag::Over)
        .mask_tagged(MaskTag::PointAndArea)
        .map_tagged(ValueTag::HeatLog);
    if let Some(be) = forced {
        chain = chain.with_backend(be);
    }
    let mut pl = Pipeline::new();
    pl.set_threads(threads);
    let mut fb: Texture<T10> = Texture::new(w, h);
    let mut cover: Texture<u16> = Texture::new(w, h);
    let mut boundary = pl.draw_polygons_tiled(
        &vp,
        &mut fb,
        &mut cover,
        polys,
        true,
        |pi, frag| {
            let mut t = [0u32; 10];
            t[0] = 0b001;
            t[1] = pi + 1;
            t[2] = (frag.x as f32).to_bits();
            t[3] = (frag.y as f32 + 0.5).to_bits();
            T10(t)
        },
        |d: T10, s: T10| if d.0[0] == 0 { s } else { d },
    );
    let report = pl.run_chain_texture(&mut fb, &mut cover, &chain);
    // Emission order is tile-dependent; the pixel sets must match.
    boundary.sort_unstable();
    let nulls: Vec<bool> = (0..w * h)
        .map(|p| report.masked.is_null_after(0, p))
        .collect();
    let st = pl.stats();
    (
        fb,
        cover,
        boundary,
        nulls,
        (st.fragments, st.boundary_fragments, st.blend_ops),
    )
}

proptest! {
    // The pipeline property is heavy (eight full runs per case), so it
    // gets a smaller case budget than the kernel-row properties.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// A polygon draw and the chain over its frame produce
    /// bit-identical planes, cover, boundary pixel sets, mask bitmaps,
    /// and work stats at every thread count, under forced-scalar and
    /// auto dispatch alike.
    #[test]
    fn chain_polygons_equivalent_across_threads_and_dispatch(
        n in 3usize..12,
        seed in 0u64..100_000,
    ) {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let pts: Vec<Point> = (0..n)
            .map(|i| {
                let ang = std::f64::consts::TAU * i as f64 / n as f64;
                let r = 15.0 + 30.0 * next();
                Point::new(50.0 + r * ang.cos(), 50.0 + r * ang.sin())
            })
            .collect();
        let polys = vec![Polygon::simple(pts).unwrap()];

        let (w, h) = (48u32, 48u32);
        let mut src: Texture<T10> = Texture::new(w, h);
        for (i, t) in src.texels_mut().iter_mut().enumerate() {
            let mut words = [0u32; 10];
            words[0] = (i as u32) % 8;
            for (d, word) in words.iter_mut().enumerate().skip(1) {
                *word = ((i * 9 + d) as f32 * 0.25).to_bits();
            }
            *t = T10(words);
        }
        let mut src_cover: Texture<u16> = Texture::new(w, h);
        for (i, c) in src_cover.texels_mut().iter_mut().enumerate() {
            *c = (i % 5) as u16;
        }

        let reference = run_chain(1, Some(Backend::Scalar), &polys, &src, &src_cover);
        for threads in [1usize, 2, 3, 8] {
            for forced in [Some(Backend::Scalar), None] {
                let got = run_chain(threads, forced, &polys, &src, &src_cover);
                prop_assert_eq!(
                    &got.0, &reference.0,
                    "texel plane: threads {} forced {:?}", threads, forced
                );
                prop_assert_eq!(
                    &got.1, &reference.1,
                    "cover plane: threads {} forced {:?}", threads, forced
                );
                prop_assert_eq!(
                    &got.2, &reference.2,
                    "boundary pixels: threads {} forced {:?}", threads, forced
                );
                prop_assert_eq!(
                    &got.3, &reference.3,
                    "mask bitmap: threads {} forced {:?}", threads, forced
                );
                prop_assert_eq!(
                    got.4, reference.4,
                    "work stats: threads {} forced {:?}", threads, forced
                );
            }
        }
    }
}
