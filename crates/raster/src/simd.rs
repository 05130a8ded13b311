//! Runtime-dispatched SIMD row kernels for the tile pipeline.
//!
//! The paper's thesis is that spatial operators become fast when they
//! lower onto dense per-texel raster passes — exactly the shape SIMD
//! units eat. This module supplies **row-slice kernels** for the
//! built-in canvas operators (blend, value transform, mask, cover
//! merge, span fill) with three interchangeable backends:
//!
//! * **Scalar** — the reference implementation: a straight per-texel
//!   transliteration of the operator semantics (`BlendFn::apply` et
//!   al.). Always available, always correct, and the oracle every
//!   vector path is tested against.
//! * **Sse2** — the x86_64 baseline (guaranteed by the architecture),
//!   mask-select blends over 128-bit lanes.
//! * **Avx2** — detected at runtime via `is_x86_feature_detected!`,
//!   256-bit selects plus gathered mask/bitmap construction.
//!
//! The backend is chosen **once** per process ([`active_backend`],
//! overridable with `CANVAS_SIMD=scalar|sse2|avx2` for CI's
//! forced-scalar job) and recorded by the serving engine's metrics.
//! Every kernel also has a `*_with(backend, …)` form taking an explicit
//! backend so tests can compare forced-scalar against the active
//! vector path in-process, without racing on the environment.
//!
//! # Bit-identity contract
//!
//! Pointwise kernels (blend, value, mask) are order-free — each output
//! texel depends only on the corresponding input texel(s) — so the
//! vector paths must be **bit-identical** to the scalar reference, not
//! merely close. This extends the repo's streamed ≡ materialized ≡
//! sequential equivalence oracle with a fourth axis: SIMD ≡ scalar.
//! The contract, word by word: **every lane is bit-identical to the
//! scalar result whenever that result is not a NaN, and is a NaN on
//! every backend when it is.** NaN *payloads* are outside the contract:
//! when both operands of an `f32` add are NaNs the hardware propagates
//! one operand's payload, and the optimizer is free to commute the add
//! differently in each backend's instantiation (observed under `-O`:
//! the scalar `fadd` commuted, AVX2's did not). Nothing downstream
//! reads a NaN's payload. Two rules keep every other bit exact:
//!
//! * texels that pass through unchanged are copied **verbatim by mask
//!   select**, never re-derived arithmetically (`x + 0.0` would turn
//!   `-0.0` into `+0.0`) — so a NaN that is merely *carried* keeps its
//!   payload on every backend;
//! * the few genuine float additions (the accumulate blends' `v1`/`v2`
//!   sums) are executed as scalar `f32` adds on every backend, so
//!   rounding and NaN-ness match.
//!
//! # What vectorizes, and what deliberately does not
//!
//! * **Blend rows** — fully vectorized. Presence bits index a 64-entry
//!   LUT of 40-byte word masks; the output is `(a & mask_a) | (b &
//!   mask_b)` plus a scalar patch for the accumulate sums.
//! * **Cover rows** — `_mm(256)_adds_epu16` saturating adds.
//! * **Mask rows** — AVX2 gathers the strided presence words, computes
//!   keep/null lanes branchlessly, and packs the null bitmap 8 texels
//!   per `movemask`. SSE2 (no gather) uses the scalar body.
//! * **Span fill** — stamp-fill, stale-stamp scan, and cover increment
//!   are vectorized; the texel blend inside a span stays a per-pixel
//!   call because the draw path's blend is caller-supplied.
//! * **Value rows** — kept scalar on every backend: the built-in value
//!   transforms are `ln(1 + v1)`-dominated and bit-exact `ln` has no
//!   vector form, so a vector path would add complexity for noise.
//! * **Scatter/aggregation** (`Pipeline::scatter*`) is untouched: its
//!   accumulation order is part of the bit-identity contract, and
//!   reordering f32 sums into lanes would change results.

#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::*;
use std::sync::OnceLock;
use std::time::Instant;

/// `u32` words per texel: `[presence, (id, v1, v2) × 3 dims]`.
pub const TEXEL_WORDS: usize = 10;

/// Layout contract linking a texel type to the word-level kernels.
///
/// # Safety
///
/// Implementors must be `#[repr(C)]`, exactly `4 * TEXEL_WORDS` bytes
/// with alignment 4 and **no padding**, laid out as ten `u32` words:
/// word 0 is the presence bitmask (bit `d` set ⇔ dimension `d` holds
/// information), and words `1 + 3d .. 4 + 3d` are dimension `d`'s
/// `(id, v1, v2)` with `v1`/`v2` stored as `f32` bit patterns. Every
/// bit pattern must be a valid value of the type (no niches).
pub unsafe trait TexelWords: Copy + Default {}

/// Instruction-set backend the row kernels dispatch to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// Reference per-texel implementation; always available.
    Scalar,
    /// 128-bit `core::arch` path (x86_64 baseline).
    Sse2,
    /// 256-bit `core::arch` path (runtime-detected).
    Avx2,
}

impl Backend {
    /// Nominal vector width in 32-bit lanes (1 for scalar).
    pub fn width(self) -> usize {
        match self {
            Backend::Scalar => 1,
            Backend::Sse2 => 4,
            Backend::Avx2 => 8,
        }
    }

    /// Stable lowercase name for metrics / bench JSON.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Sse2 => "sse2",
            Backend::Avx2 => "avx2",
        }
    }

    /// True when this backend actually uses vector lanes (width ≥ 4) —
    /// the condition arming the bench speedup gates.
    pub fn is_vector(self) -> bool {
        self.width() >= 4
    }
}

#[cfg(target_arch = "x86_64")]
fn best_available() -> Backend {
    if std::arch::is_x86_feature_detected!("avx2") {
        Backend::Avx2
    } else {
        // SSE2 is part of the x86_64 baseline — always present.
        Backend::Sse2
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn best_available() -> Backend {
    Backend::Scalar
}

fn detect() -> Backend {
    let best = best_available();
    match std::env::var("CANVAS_SIMD").as_deref() {
        Ok("scalar") | Ok("off") => Backend::Scalar,
        Ok("sse2") => {
            if cfg!(target_arch = "x86_64") {
                Backend::Sse2
            } else {
                Backend::Scalar
            }
        }
        Ok("avx2") => {
            if best == Backend::Avx2 {
                Backend::Avx2
            } else {
                best
            }
        }
        _ => best,
    }
}

/// The process-wide backend, selected once on first use. Honors the
/// `CANVAS_SIMD` environment variable (`scalar` / `sse2` / `avx2`);
/// unavailable requests fall back to the best supported backend.
pub fn active_backend() -> Backend {
    static ACTIVE: OnceLock<Backend> = OnceLock::new();
    *ACTIVE.get_or_init(detect)
}

#[inline(always)]
fn assert_layout<P: TexelWords>() {
    const {
        assert!(std::mem::size_of::<P>() == 4 * TEXEL_WORDS);
        assert!(std::mem::align_of::<P>() == 4);
    }
}

/// Word view of one texel (read).
#[inline(always)]
pub fn texel_words<P: TexelWords>(t: &P) -> &[u32; TEXEL_WORDS] {
    assert_layout::<P>();
    // SAFETY: TexelWords guarantees size/align/layout and no niches.
    unsafe { &*(t as *const P as *const [u32; TEXEL_WORDS]) }
}

/// Word view of one texel (write).
#[inline(always)]
pub fn texel_words_mut<P: TexelWords>(t: &mut P) -> &mut [u32; TEXEL_WORDS] {
    assert_layout::<P>();
    // SAFETY: as above; all bit patterns are valid values of P.
    unsafe { &mut *(t as *mut P as *mut [u32; TEXEL_WORDS]) }
}

#[inline(always)]
fn row_words_mut<P: TexelWords>(row: &mut [P]) -> &mut [u32] {
    assert_layout::<P>();
    // SAFETY: contiguous repr(C) texels reinterpret as 10 words each.
    unsafe { std::slice::from_raw_parts_mut(row.as_mut_ptr() as *mut u32, row.len() * TEXEL_WORDS) }
}

#[inline(always)]
fn row_words<P: TexelWords>(row: &[P]) -> &[u32] {
    assert_layout::<P>();
    // SAFETY: as above, shared view.
    unsafe { std::slice::from_raw_parts(row.as_ptr() as *const u32, row.len() * TEXEL_WORDS) }
}

/// Built-in blend operators, mirrored from the algebra layer's
/// `BlendFn` so chains can pass an op *tag* instead of a closure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BlendTag {
    /// Per-dimension first-non-∅, left preferring.
    Over,
    /// Keep left 0-row and right 2-row; 1-row ∅.
    PointOverArea,
    /// 2-row `(id₁, count₁+count₂, meta₁)`, ∅ as zero count.
    AreaCount,
    /// 0-row sums `v1`/`v2` with id zeroed; 2-row right-first.
    Accumulate,
    /// 0-row `(id₁, v1₁+v1₂, v2₁+v2₂)`; 2-row left-first.
    PointAccumulate,
}

/// Built-in value transforms (the heatmap queries' `V[f]` stages).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ValueTag {
    /// Dim-0 `v2 ← ln(1 + v1)` (point heat shading).
    HeatLog,
    /// Dim-2 `v1 ← v1 - tag` then `v2 ← ln(1 + v1)` (density untag).
    DensityLog {
        /// The query-region count offset subtracted before the log.
        tag: f32,
    },
}

/// Built-in mask predicates (the heatmap queries' `M[M]` stages). The
/// kernels implement the *lowered* canvas semantics: null texels pass
/// (`keep = is_null ∨ pred`), failing texels are nulled and their
/// cover zeroed, and the post-op null bitmap records `presence == 0`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum MaskTag {
    /// Keep texels holding both a 0-row and a 2-row.
    PointAndArea,
    /// Keep texels whose 2-row `v1` exceeds `threshold`.
    AreaV1Above {
        /// Exclusive lower bound on the 2-row `v1`.
        threshold: f32,
    },
}

// ---------------------------------------------------------------------
// Blend kernels
// ---------------------------------------------------------------------

#[inline(always)]
fn fadd(x: u32, y: u32) -> u32 {
    (f32::from_bits(x) + f32::from_bits(y)).to_bits()
}

/// Scalar reference blend of one texel pair — a word-level
/// transliteration of `BlendFn::apply`, branch structure and all.
#[inline]
fn blend_texel_scalar(
    tag: BlendTag,
    a: &[u32; TEXEL_WORDS],
    b: &[u32; TEXEL_WORDS],
) -> [u32; TEXEL_WORDS] {
    let (pa, pb) = (a[0], b[0]);
    match tag {
        BlendTag::Over => {
            let mut out = *a;
            let take = !pa & pb & 0b111;
            let mut d = 0;
            while d < 3 {
                if take >> d & 1 != 0 {
                    let w = 1 + 3 * d as usize;
                    out[w] = b[w];
                    out[w + 1] = b[w + 1];
                    out[w + 2] = b[w + 2];
                }
                d += 1;
            }
            out[0] = pa | take;
            out
        }
        BlendTag::PointOverArea => {
            let mut out = [0u32; TEXEL_WORDS];
            if pa & 1 != 0 {
                out[1] = a[1];
                out[2] = a[2];
                out[3] = a[3];
            }
            if pb & 4 != 0 {
                out[7] = b[7];
                out[8] = b[8];
                out[9] = b[9];
            }
            out[0] = (pa & 1) | (pb & 4);
            out
        }
        BlendTag::AreaCount => {
            let mut out = [0u32; TEXEL_WORDS];
            match (pa & 4 != 0, pb & 4 != 0) {
                (true, true) => {
                    out[7] = a[7];
                    out[8] = fadd(a[8], b[8]);
                    out[9] = a[9];
                }
                (true, false) => {
                    out[7] = a[7];
                    out[8] = a[8];
                    out[9] = a[9];
                }
                (false, true) => {
                    out[7] = b[7];
                    out[8] = b[8];
                    out[9] = b[9];
                }
                (false, false) => {}
            }
            out[0] = (pa | pb) & 4;
            out
        }
        BlendTag::Accumulate => {
            let mut out = [0u32; TEXEL_WORDS];
            match (pa & 1 != 0, pb & 1 != 0) {
                (true, true) => {
                    out[2] = fadd(a[2], b[2]);
                    out[3] = fadd(a[3], b[3]);
                }
                (true, false) => {
                    out[2] = a[2];
                    out[3] = a[3];
                }
                (false, true) => {
                    out[2] = b[2];
                    out[3] = b[3];
                }
                (false, false) => {}
            }
            if pb & 4 != 0 {
                out[7] = b[7];
                out[8] = b[8];
                out[9] = b[9];
            } else if pa & 4 != 0 {
                out[7] = a[7];
                out[8] = a[8];
                out[9] = a[9];
            }
            out[0] = (pa | pb) & 0b101;
            out
        }
        BlendTag::PointAccumulate => {
            let mut out = [0u32; TEXEL_WORDS];
            match (pa & 1 != 0, pb & 1 != 0) {
                (true, true) => {
                    out[1] = a[1];
                    out[2] = fadd(a[2], b[2]);
                    out[3] = fadd(a[3], b[3]);
                }
                (true, false) => {
                    out[1] = a[1];
                    out[2] = a[2];
                    out[3] = a[3];
                }
                (false, true) => {
                    out[1] = b[1];
                    out[2] = b[2];
                    out[3] = b[3];
                }
                (false, false) => {}
            }
            if pa & 4 != 0 {
                out[7] = a[7];
                out[8] = a[8];
                out[9] = a[9];
            } else if pb & 4 != 0 {
                out[7] = b[7];
                out[8] = b[8];
                out[9] = b[9];
            }
            out[0] = (pa | pb) & 0b101;
            out
        }
    }
}

fn blend_rows_scalar<P: TexelWords>(tag: BlendTag, dst: &mut [P], src: &[P]) {
    for (d, s) in dst.iter_mut().zip(src) {
        let a = *texel_words(d);
        let b = *texel_words(s);
        *texel_words_mut(d) = blend_texel_scalar(tag, &a, &b);
    }
}

/// One 40-byte word mask, padded to a full cache line so the kernels'
/// 256-bit mask loads never straddle a line boundary (the blend loop is
/// load-port-bound; unpadded 80-byte pairs made most mask loads split).
#[repr(C, align(64))]
#[derive(Clone, Copy)]
struct Mask10 {
    w: [u32; TEXEL_WORDS],
}

/// A pair of 40-byte word masks: `out = (a & a_mask) | (b & b_mask)`.
#[derive(Clone, Copy)]
struct MaskPair {
    a: Mask10,
    b: Mask10,
}

const ZERO_PAIR: MaskPair = MaskPair {
    a: Mask10 {
        w: [0; TEXEL_WORDS],
    },
    b: Mask10 {
        w: [0; TEXEL_WORDS],
    },
};

const fn add_dim(mut m: [u32; TEXEL_WORDS], d: usize, include_id: bool) -> [u32; TEXEL_WORDS] {
    let base = 1 + 3 * d;
    if include_id {
        m[base] = !0;
    }
    m[base + 1] = !0;
    m[base + 2] = !0;
    m
}

/// 64-entry select LUT for one blend tag, indexed by
/// `(pa & 7) << 3 | (pb & 7)`. The presence word (word 0) is always
/// masked out and patched scalar afterwards; the accumulate sums are
/// patched scalar too (see module docs).
const fn blend_lut(tag: BlendTag) -> [MaskPair; 64] {
    let mut lut = [ZERO_PAIR; 64];
    let mut idx = 0usize;
    while idx < 64 {
        let pa = (idx >> 3) as u32;
        let pb = (idx & 7) as u32;
        let mut m = ZERO_PAIR;
        match tag {
            BlendTag::Over => {
                let take = !pa & pb & 0b111;
                let mut d = 0;
                while d < 3 {
                    if take >> d & 1 != 0 {
                        m.b.w = add_dim(m.b.w, d, true);
                    } else {
                        m.a.w = add_dim(m.a.w, d, true);
                    }
                    d += 1;
                }
            }
            BlendTag::PointOverArea => {
                if pa & 1 != 0 {
                    m.a.w = add_dim(m.a.w, 0, true);
                }
                if pb & 4 != 0 {
                    m.b.w = add_dim(m.b.w, 2, true);
                }
            }
            BlendTag::AreaCount => {
                if pa & 4 != 0 {
                    m.a.w = add_dim(m.a.w, 2, true);
                } else if pb & 4 != 0 {
                    m.b.w = add_dim(m.b.w, 2, true);
                }
            }
            BlendTag::Accumulate => {
                // Dim 0 never takes the id word — the paper's `+` zeroes it.
                if pa & 1 != 0 {
                    m.a.w = add_dim(m.a.w, 0, false);
                } else if pb & 1 != 0 {
                    m.b.w = add_dim(m.b.w, 0, false);
                }
                if pb & 4 != 0 {
                    m.b.w = add_dim(m.b.w, 2, true);
                } else if pa & 4 != 0 {
                    m.a.w = add_dim(m.a.w, 2, true);
                }
            }
            BlendTag::PointAccumulate => {
                if pa & 1 != 0 {
                    m.a.w = add_dim(m.a.w, 0, true);
                } else if pb & 1 != 0 {
                    m.b.w = add_dim(m.b.w, 0, true);
                }
                if pa & 4 != 0 {
                    m.a.w = add_dim(m.a.w, 2, true);
                } else if pb & 4 != 0 {
                    m.b.w = add_dim(m.b.w, 2, true);
                }
            }
        }
        lut[idx] = m;
        idx += 1;
    }
    lut
}

static LUT_OVER: [MaskPair; 64] = blend_lut(BlendTag::Over);
static LUT_POA: [MaskPair; 64] = blend_lut(BlendTag::PointOverArea);
static LUT_AREA_COUNT: [MaskPair; 64] = blend_lut(BlendTag::AreaCount);
static LUT_ACC: [MaskPair; 64] = blend_lut(BlendTag::Accumulate);
static LUT_PACC: [MaskPair; 64] = blend_lut(BlendTag::PointAccumulate);

fn lut_for(tag: BlendTag) -> &'static [MaskPair; 64] {
    match tag {
        BlendTag::Over => &LUT_OVER,
        BlendTag::PointOverArea => &LUT_POA,
        BlendTag::AreaCount => &LUT_AREA_COUNT,
        BlendTag::Accumulate => &LUT_ACC,
        BlendTag::PointAccumulate => &LUT_PACC,
    }
}

#[inline(always)]
fn out_presence(tag: BlendTag, pa: u32, pb: u32) -> u32 {
    match tag {
        // `a.over(b)` starts from `a`, so a's (possibly non-canonical)
        // high presence bits survive; only b's low bits are merged.
        BlendTag::Over => pa | (!pa & pb & 0b111),
        BlendTag::PointOverArea => (pa & 1) | (pb & 4),
        BlendTag::AreaCount => (pa | pb) & 4,
        BlendTag::Accumulate | BlendTag::PointAccumulate => (pa | pb) & 0b101,
    }
}

impl BlendTag {
    /// Const-generic discriminant for the tag-specialized x86 loops
    /// ([`from_idx`](Self::from_idx) is its inverse).
    const fn idx(self) -> u8 {
        match self {
            BlendTag::Over => 0,
            BlendTag::PointOverArea => 1,
            BlendTag::AreaCount => 2,
            BlendTag::Accumulate => 3,
            BlendTag::PointAccumulate => 4,
        }
    }

    const fn from_idx(i: u8) -> Self {
        match i {
            0 => BlendTag::Over,
            1 => BlendTag::PointOverArea,
            2 => BlendTag::AreaCount,
            3 => BlendTag::Accumulate,
            4 => BlendTag::PointAccumulate,
            _ => panic!("invalid BlendTag index"),
        }
    }
}

/// Words of the left/right operand that the scalar sum patch must read
/// *before* the vector select overwrites `dst`. The tag is const in the
/// specialized loops, so the untaken arms (and for the pure-select tags
/// the whole stash) compile out.
#[inline(always)]
unsafe fn stash_sum_inputs(tag: BlendTag, a: *const u32, b: *const u32) -> [u32; 4] {
    match tag {
        BlendTag::AreaCount => [*a.add(8), *b.add(8), 0, 0],
        BlendTag::Accumulate | BlendTag::PointAccumulate => {
            [*a.add(2), *a.add(3), *b.add(2), *b.add(3)]
        }
        _ => [0; 4],
    }
}

/// Scalar patch for the accumulate sums, identical on every backend —
/// fixed-order f32 adds keep NaN/−0.0 payloads bit-identical to the
/// scalar reference. `s` is the pre-store stash from
/// [`stash_sum_inputs`].
#[inline(always)]
unsafe fn apply_sum_patch(tag: BlendTag, pa: u32, pb: u32, s: [u32; 4], out: *mut u32) {
    match tag {
        BlendTag::AreaCount if pa & pb & 4 != 0 => {
            *out.add(8) = fadd(s[0], s[1]);
        }
        BlendTag::Accumulate | BlendTag::PointAccumulate if pa & pb & 1 != 0 => {
            *out.add(2) = fadd(s[0], s[2]);
            *out.add(3) = fadd(s[1], s[3]);
        }
        _ => {}
    }
}

/// # Safety
/// `dst`/`src` must point at `n` texels' worth of words (`n * 10`
/// u32s) in non-overlapping allocations; SSE2 must be available.
/// `TAG` must be a valid [`BlendTag::idx`] value.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
unsafe fn blend_rows_sse2_t<const TAG: u8>(dst: *mut u32, src: *const u32, n: usize) {
    let tag = BlendTag::from_idx(TAG);
    match tag {
        // The two gated pointwise blends get arithmetic select masks
        // derived from the broadcast presence words — the generic LUT
        // loop below is load-port-bound and the mask loads are what it
        // spends its budget on.
        BlendTag::Over => {
            // `a.over(b)` keeps `a` verbatim except the dims `b` fills
            // (`take`); the per-word governing-bit table turns the
            // broadcast take mask into a full select. Word 0's sentinel
            // keeps it on the `a` side; the presence patch overwrites
            // it regardless.
            let bits_lo = _mm_setr_epi32(i32::MIN, 1, 1, 1);
            let bits_mid = _mm_setr_epi32(2, 2, 2, 4);
            for i in 0..n {
                let a = dst.add(i * TEXEL_WORDS);
                let b = src.add(i * TEXEL_WORDS);
                let pa = *a;
                let pb = *b;
                let take = !pa & pb & 0b111;
                let vt = _mm_set1_epi32(take as i32);
                let m_lo = _mm_cmpeq_epi32(_mm_and_si128(vt, bits_lo), bits_lo);
                let m_mid = _mm_cmpeq_epi32(_mm_and_si128(vt, bits_mid), bits_mid);
                let a_lo = _mm_loadu_si128(a as *const __m128i);
                let b_lo = _mm_loadu_si128(b as *const __m128i);
                let a_mid = _mm_loadu_si128(a.add(4) as *const __m128i);
                let b_mid = _mm_loadu_si128(b.add(4) as *const __m128i);
                let lo = _mm_xor_si128(a_lo, _mm_and_si128(_mm_xor_si128(a_lo, b_lo), m_lo));
                let mid = _mm_xor_si128(a_mid, _mm_and_si128(_mm_xor_si128(a_mid, b_mid), m_mid));
                let a_hi = (a.add(8) as *const u64).read_unaligned();
                let b_hi = (b.add(8) as *const u64).read_unaligned();
                let m_hi = (((take >> 2) & 1) as u64).wrapping_neg();
                _mm_storeu_si128(a as *mut __m128i, lo);
                _mm_storeu_si128(a.add(4) as *mut __m128i, mid);
                (a.add(8) as *mut u64).write_unaligned(a_hi ^ ((a_hi ^ b_hi) & m_hi));
                *a = pa | take;
            }
        }
        BlendTag::PointOverArea => {
            // Start-from-∅ semantics: a's 0-row under the point mask,
            // b's 2-row under the area mask, 1-row always ∅.
            let keep_id2 = _mm_setr_epi32(0, 0, 0, -1);
            for i in 0..n {
                let a = dst.add(i * TEXEL_WORDS);
                let b = src.add(i * TEXEL_WORDS);
                let pa = *a;
                let pb = *b;
                let m0 = (pa & 1).wrapping_neg() as i32;
                let m2 = ((pb >> 2) & 1).wrapping_neg() as i32;
                // Words 0..4: a's 0-row (word 0 re-patched below).
                let lo = _mm_and_si128(_mm_loadu_si128(a as *const __m128i), _mm_set1_epi32(m0));
                // Words 4..8: 1-row ∅; id₂ from b under the area mask.
                let mid = _mm_and_si128(
                    _mm_loadu_si128(b.add(4) as *const __m128i),
                    _mm_and_si128(_mm_set1_epi32(m2), keep_id2),
                );
                let b_hi = (b.add(8) as *const u64).read_unaligned();
                _mm_storeu_si128(a as *mut __m128i, lo);
                _mm_storeu_si128(a.add(4) as *mut __m128i, mid);
                (a.add(8) as *mut u64).write_unaligned(b_hi & (m2 as i64 as u64));
                *a = (pa & 1) | (pb & 4);
            }
        }
        _ => {
            let lut = lut_for(tag);
            for i in 0..n {
                let a = dst.add(i * TEXEL_WORDS);
                let b = src.add(i * TEXEL_WORDS);
                let pa = *a;
                let pb = *b;
                let stash = stash_sum_inputs(tag, a, b);
                let m = &lut[(((pa & 7) << 3) | (pb & 7)) as usize];
                // Words 0..4 and 4..8 as two 128-bit selects.
                let lo = _mm_or_si128(
                    _mm_and_si128(
                        _mm_loadu_si128(a as *const __m128i),
                        _mm_loadu_si128(m.a.w.as_ptr() as *const __m128i),
                    ),
                    _mm_and_si128(
                        _mm_loadu_si128(b as *const __m128i),
                        _mm_loadu_si128(m.b.w.as_ptr() as *const __m128i),
                    ),
                );
                let mid = _mm_or_si128(
                    _mm_and_si128(
                        _mm_loadu_si128(a.add(4) as *const __m128i),
                        _mm_loadu_si128(m.a.w.as_ptr().add(4) as *const __m128i),
                    ),
                    _mm_and_si128(
                        _mm_loadu_si128(b.add(4) as *const __m128i),
                        _mm_loadu_si128(m.b.w.as_ptr().add(4) as *const __m128i),
                    ),
                );
                // Words 8..10 as one scalar u64 select.
                let a_hi = (a.add(8) as *const u64).read_unaligned();
                let b_hi = (b.add(8) as *const u64).read_unaligned();
                let ma_hi = (m.a.w.as_ptr().add(8) as *const u64).read_unaligned();
                let mb_hi = (m.b.w.as_ptr().add(8) as *const u64).read_unaligned();
                _mm_storeu_si128(a as *mut __m128i, lo);
                _mm_storeu_si128(a.add(4) as *mut __m128i, mid);
                (a.add(8) as *mut u64).write_unaligned((a_hi & ma_hi) | (b_hi & mb_hi));
                *a = out_presence(tag, pa, pb);
                apply_sum_patch(tag, pa, pb, stash, a);
            }
        }
    }
}

/// Runtime-tag front for the specialized SSE2 loops (see
/// [`blend_rows_sse2_t`] for the safety contract).
///
/// # Safety
/// As [`blend_rows_sse2_t`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
unsafe fn blend_rows_sse2(tag: BlendTag, dst: *mut u32, src: *const u32, n: usize) {
    match tag {
        BlendTag::Over => blend_rows_sse2_t::<{ BlendTag::Over.idx() }>(dst, src, n),
        BlendTag::PointOverArea => {
            blend_rows_sse2_t::<{ BlendTag::PointOverArea.idx() }>(dst, src, n)
        }
        BlendTag::AreaCount => blend_rows_sse2_t::<{ BlendTag::AreaCount.idx() }>(dst, src, n),
        BlendTag::Accumulate => blend_rows_sse2_t::<{ BlendTag::Accumulate.idx() }>(dst, src, n),
        BlendTag::PointAccumulate => {
            blend_rows_sse2_t::<{ BlendTag::PointAccumulate.idx() }>(dst, src, n)
        }
    }
}

/// # Safety
/// As [`blend_rows_sse2_t`], and AVX2 must be available.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn blend_rows_avx2_t<const TAG: u8>(dst: *mut u32, src: *const u32, n: usize) {
    let tag = BlendTag::from_idx(TAG);
    match tag {
        // See the SSE2 twin for why the two gated pointwise blends use
        // arithmetic masks instead of the LUT.
        BlendTag::Over => {
            let bits = _mm256_setr_epi32(i32::MIN, 1, 1, 1, 2, 2, 2, 4);
            for i in 0..n {
                let a = dst.add(i * TEXEL_WORDS);
                let b = src.add(i * TEXEL_WORDS);
                let pa = *a;
                let pb = *b;
                let take = !pa & pb & 0b111;
                let vt = _mm256_set1_epi32(take as i32);
                let m = _mm256_cmpeq_epi32(_mm256_and_si256(vt, bits), bits);
                let av = _mm256_loadu_si256(a as *const __m256i);
                let bv = _mm256_loadu_si256(b as *const __m256i);
                let lo = _mm256_xor_si256(av, _mm256_and_si256(_mm256_xor_si256(av, bv), m));
                let a_hi = (a.add(8) as *const u64).read_unaligned();
                let b_hi = (b.add(8) as *const u64).read_unaligned();
                let m_hi = (((take >> 2) & 1) as u64).wrapping_neg();
                _mm256_storeu_si256(a as *mut __m256i, lo);
                (a.add(8) as *mut u64).write_unaligned(a_hi ^ ((a_hi ^ b_hi) & m_hi));
                *a = pa | take;
            }
        }
        BlendTag::PointOverArea => {
            // 128-bit body (VEX-encoded here): see the SSE2 twin.
            let keep_id2 = _mm_setr_epi32(0, 0, 0, -1);
            for i in 0..n {
                let a = dst.add(i * TEXEL_WORDS);
                let b = src.add(i * TEXEL_WORDS);
                let pa = *a;
                let pb = *b;
                let m0 = (pa & 1).wrapping_neg() as i32;
                let m2 = ((pb >> 2) & 1).wrapping_neg() as i32;
                let lo = _mm_and_si128(_mm_loadu_si128(a as *const __m128i), _mm_set1_epi32(m0));
                let mid = _mm_and_si128(
                    _mm_loadu_si128(b.add(4) as *const __m128i),
                    _mm_and_si128(_mm_set1_epi32(m2), keep_id2),
                );
                let b_hi = (b.add(8) as *const u64).read_unaligned();
                _mm_storeu_si128(a as *mut __m128i, lo);
                _mm_storeu_si128(a.add(4) as *mut __m128i, mid);
                (a.add(8) as *mut u64).write_unaligned(b_hi & (m2 as i64 as u64));
                *a = (pa & 1) | (pb & 4);
            }
        }
        _ => {
            let lut = lut_for(tag);
            for i in 0..n {
                let a = dst.add(i * TEXEL_WORDS);
                let b = src.add(i * TEXEL_WORDS);
                let pa = *a;
                let pb = *b;
                let stash = stash_sum_inputs(tag, a, b);
                let m = &lut[(((pa & 7) << 3) | (pb & 7)) as usize];
                // Words 0..8 as one 256-bit select, words 8..10 scalar u64.
                let lo = _mm256_or_si256(
                    _mm256_and_si256(
                        _mm256_loadu_si256(a as *const __m256i),
                        _mm256_loadu_si256(m.a.w.as_ptr() as *const __m256i),
                    ),
                    _mm256_and_si256(
                        _mm256_loadu_si256(b as *const __m256i),
                        _mm256_loadu_si256(m.b.w.as_ptr() as *const __m256i),
                    ),
                );
                let a_hi = (a.add(8) as *const u64).read_unaligned();
                let b_hi = (b.add(8) as *const u64).read_unaligned();
                let ma_hi = (m.a.w.as_ptr().add(8) as *const u64).read_unaligned();
                let mb_hi = (m.b.w.as_ptr().add(8) as *const u64).read_unaligned();
                _mm256_storeu_si256(a as *mut __m256i, lo);
                (a.add(8) as *mut u64).write_unaligned((a_hi & ma_hi) | (b_hi & mb_hi));
                *a = out_presence(tag, pa, pb);
                apply_sum_patch(tag, pa, pb, stash, a);
            }
        }
    }
}

/// Runtime-tag front for the specialized AVX2 loops.
///
/// # Safety
/// As [`blend_rows_avx2_t`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn blend_rows_avx2(tag: BlendTag, dst: *mut u32, src: *const u32, n: usize) {
    match tag {
        BlendTag::Over => blend_rows_avx2_t::<{ BlendTag::Over.idx() }>(dst, src, n),
        BlendTag::PointOverArea => {
            blend_rows_avx2_t::<{ BlendTag::PointOverArea.idx() }>(dst, src, n)
        }
        BlendTag::AreaCount => blend_rows_avx2_t::<{ BlendTag::AreaCount.idx() }>(dst, src, n),
        BlendTag::Accumulate => blend_rows_avx2_t::<{ BlendTag::Accumulate.idx() }>(dst, src, n),
        BlendTag::PointAccumulate => {
            blend_rows_avx2_t::<{ BlendTag::PointAccumulate.idx() }>(dst, src, n)
        }
    }
}

/// Pointwise blend of two texel rows with an explicit backend:
/// `dst[i] = tag ⊙ (dst[i], src[i])`. Bit-identical across backends.
pub fn blend_rows_with<P: TexelWords>(backend: Backend, tag: BlendTag, dst: &mut [P], src: &[P]) {
    assert_eq!(dst.len(), src.len(), "blend rows must match");
    match backend {
        Backend::Scalar => blend_rows_scalar(tag, dst, src),
        #[cfg(target_arch = "x86_64")]
        Backend::Sse2 => unsafe {
            blend_rows_sse2(
                tag,
                row_words_mut(dst).as_mut_ptr(),
                row_words(src).as_ptr(),
                src.len(),
            )
        },
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => unsafe {
            blend_rows_avx2(
                tag,
                row_words_mut(dst).as_mut_ptr(),
                row_words(src).as_ptr(),
                src.len(),
            )
        },
        #[cfg(not(target_arch = "x86_64"))]
        _ => blend_rows_scalar(tag, dst, src),
    }
}

// ---------------------------------------------------------------------
// Value kernels
// ---------------------------------------------------------------------

/// Built-in value transform over a texel row. Deliberately scalar on
/// every backend: both transforms are `ln`-dominated and the
/// bit-identity contract forbids a vector `ln` approximation (see
/// module docs), so the `backend` parameter only keeps the dispatch
/// surface uniform.
pub fn value_rows_with<P: TexelWords>(backend: Backend, tag: ValueTag, texels: &mut [P]) {
    let _ = backend;
    let w = row_words_mut(texels);
    match tag {
        ValueTag::HeatLog => {
            for t in w.chunks_exact_mut(TEXEL_WORDS) {
                if t[0] & 1 != 0 {
                    t[3] = (1.0 + f32::from_bits(t[2])).ln().to_bits();
                }
            }
        }
        ValueTag::DensityLog { tag } => {
            for t in w.chunks_exact_mut(TEXEL_WORDS) {
                if t[0] & 4 != 0 {
                    let v1 = f32::from_bits(t[8]) - tag;
                    t[8] = v1.to_bits();
                    t[9] = (1.0 + v1).ln().to_bits();
                }
            }
        }
    }
}

/// [`value_rows_with`] on the process-wide [`active_backend`].
pub fn value_rows<P: TexelWords>(tag: ValueTag, texels: &mut [P]) {
    value_rows_with(active_backend(), tag, texels)
}

/// The raw keep-predicate of a mask tag (without the null-pass rule) —
/// what the algebra layer's materialized mask pass and boundary replay
/// evaluate per texel.
#[inline]
pub fn mask_pred<P: TexelWords>(tag: MaskTag, t: &P) -> bool {
    let w = texel_words(t);
    match tag {
        MaskTag::PointAndArea => w[0] & 0b101 == 0b101,
        MaskTag::AreaV1Above { threshold } => w[0] & 4 != 0 && f32::from_bits(w[8]) > threshold,
    }
}

// ---------------------------------------------------------------------
// Mask kernels
// ---------------------------------------------------------------------

/// Scalar mask of one texel. Returns `(killed, null_after)`.
#[inline]
fn mask_texel_scalar(tag: MaskTag, t: &mut [u32]) -> (bool, bool) {
    let p = t[0];
    let pred = match tag {
        MaskTag::PointAndArea => p & 0b101 == 0b101,
        MaskTag::AreaV1Above { threshold } => p & 4 != 0 && f32::from_bits(t[8]) > threshold,
    };
    let keep = p == 0 || pred;
    if !keep {
        t[..TEXEL_WORDS].fill(0);
    }
    (!keep, t[0] == 0)
}

fn mask_rows_scalar<P: TexelWords>(
    tag: MaskTag,
    texels: &mut [P],
    mut cov: Option<&mut [u16]>,
    bits: &mut [u64],
) {
    let w = row_words_mut(texels);
    for (i, t) in w.chunks_exact_mut(TEXEL_WORDS).enumerate() {
        let (killed, null_after) = mask_texel_scalar(tag, t);
        if killed {
            if let Some(cov) = cov.as_deref_mut() {
                cov[i] = 0;
            }
        }
        if null_after {
            bits[i / 64] |= 1 << (i % 64);
        }
    }
}

/// AVX2 mask pass: gathers the strided presence words (and, for the
/// threshold tag, the 2-row `v1` words) for 8 texels at a time,
/// evaluates keep/null lanes branchlessly, and packs the null bitmap
/// via `movemask`. Failing texels are zeroed scalar per lane.
///
/// # Safety
/// `w` must point at `n * 10` valid u32 words; AVX2 must be available.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn mask_rows_avx2(
    tag: MaskTag,
    w: *mut u32,
    n: usize,
    mut cov: Option<&mut [u16]>,
    bits: &mut [u64],
) {
    let stride = _mm256_setr_epi32(0, 10, 20, 30, 40, 50, 60, 70);
    let zero = _mm256_setzero_si256();
    let mut i = 0usize;
    while i + 8 <= n {
        let base = _mm256_add_epi32(stride, _mm256_set1_epi32((i * TEXEL_WORDS) as i32));
        let vp = _mm256_i32gather_epi32::<4>(w as *const i32, base);
        let vnull = _mm256_cmpeq_epi32(vp, zero);
        let vpred = match tag {
            MaskTag::PointAndArea => {
                let five = _mm256_set1_epi32(0b101);
                _mm256_cmpeq_epi32(_mm256_and_si256(vp, five), five)
            }
            MaskTag::AreaV1Above { threshold } => {
                let v1idx = _mm256_add_epi32(base, _mm256_set1_epi32(8));
                let v1 = _mm256_i32gather_ps::<4>(w as *const f32, v1idx);
                let gt = _mm256_castps_si256(_mm256_cmp_ps::<{ _CMP_GT_OQ }>(
                    v1,
                    _mm256_set1_ps(threshold),
                ));
                let four = _mm256_set1_epi32(4);
                _mm256_and_si256(_mm256_cmpeq_epi32(_mm256_and_si256(vp, four), four), gt)
            }
        };
        let vkeep = _mm256_or_si256(vnull, vpred);
        // null_after = null ∨ ¬keep; with keep = null ∨ pred this is
        // null ∨ ¬pred.
        let kill = !(_mm256_movemask_ps(_mm256_castsi256_ps(vkeep)) as u32) & 0xFF;
        let nulls = (_mm256_movemask_ps(_mm256_castsi256_ps(vnull)) as u32 | kill) & 0xFF;
        if kill != 0 {
            let mut lanes = kill;
            while lanes != 0 {
                let j = lanes.trailing_zeros() as usize;
                lanes &= lanes - 1;
                std::ptr::write_bytes(w.add((i + j) * TEXEL_WORDS), 0, TEXEL_WORDS);
                if let Some(cov) = cov.as_deref_mut() {
                    cov[i + j] = 0;
                }
            }
        }
        // i is a multiple of 8, so all 8 bits land in one u64 word.
        bits[i / 64] |= (nulls as u64) << (i % 64);
        i += 8;
    }
    // Remainder lanes: scalar reference.
    while i < n {
        let t = std::slice::from_raw_parts_mut(w.add(i * TEXEL_WORDS), TEXEL_WORDS);
        let (killed, null_after) = mask_texel_scalar(tag, t);
        if killed {
            if let Some(cov) = cov.as_deref_mut() {
                cov[i] = 0;
            }
        }
        if null_after {
            bits[i / 64] |= 1 << (i % 64);
        }
        i += 1;
    }
}

/// Built-in mask over a texel row with an explicit backend: texels
/// failing `keep = is_null ∨ pred` are nulled and their cover zeroed;
/// `bits` (a local row-major bitset, `⌈n/64⌉` words, bit `i` for texel
/// `i`) accumulates the post-op null set. SSE2 has no gather, so only
/// AVX2 takes the vector path.
pub fn mask_rows_with<P: TexelWords>(
    backend: Backend,
    tag: MaskTag,
    texels: &mut [P],
    cov: Option<&mut [u16]>,
    bits: &mut [u64],
) {
    if let Some(c) = cov.as_deref() {
        assert_eq!(c.len(), texels.len(), "mask cover row must match");
    }
    assert!(
        bits.len() >= texels.len().div_ceil(64),
        "mask bitset too short"
    );
    match backend {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => unsafe {
            let n = texels.len();
            mask_rows_avx2(tag, row_words_mut(texels).as_mut_ptr(), n, cov, bits)
        },
        _ => mask_rows_scalar(tag, texels, cov, bits),
    }
}

/// [`mask_rows_with`] on the process-wide [`active_backend`].
pub fn mask_rows<P: TexelWords>(
    tag: MaskTag,
    texels: &mut [P],
    cov: Option<&mut [u16]>,
    bits: &mut [u64],
) {
    mask_rows_with(active_backend(), tag, texels, cov, bits)
}

// ---------------------------------------------------------------------
// Cover / span kernels
// ---------------------------------------------------------------------

/// # Safety
/// SSE2 must be available; slices already length-checked by caller.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
unsafe fn cover_add_sse2(dst: &mut [u16], src: &[u16]) {
    let n = dst.len();
    let d = dst.as_mut_ptr();
    let s = src.as_ptr();
    let mut i = 0usize;
    while i + 8 <= n {
        let vd = _mm_loadu_si128(d.add(i) as *const __m128i);
        let vs = _mm_loadu_si128(s.add(i) as *const __m128i);
        _mm_storeu_si128(d.add(i) as *mut __m128i, _mm_adds_epu16(vd, vs));
        i += 8;
    }
    while i < n {
        *d.add(i) = (*d.add(i)).saturating_add(*s.add(i));
        i += 1;
    }
}

/// # Safety
/// AVX2 must be available; slices already length-checked by caller.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn cover_add_avx2(dst: &mut [u16], src: &[u16]) {
    let n = dst.len();
    let d = dst.as_mut_ptr();
    let s = src.as_ptr();
    let mut i = 0usize;
    while i + 16 <= n {
        let vd = _mm256_loadu_si256(d.add(i) as *const __m256i);
        let vs = _mm256_loadu_si256(s.add(i) as *const __m256i);
        _mm256_storeu_si256(d.add(i) as *mut __m256i, _mm256_adds_epu16(vd, vs));
        i += 16;
    }
    while i < n {
        *d.add(i) = (*d.add(i)).saturating_add(*s.add(i));
        i += 1;
    }
}

/// Saturating add of two cover rows: `dst[i] ⊕= src[i]` (the canvas
/// Blend contract for certain-cover planes).
pub fn cover_add_rows_with(backend: Backend, dst: &mut [u16], src: &[u16]) {
    assert_eq!(dst.len(), src.len(), "cover rows must match");
    match backend {
        #[cfg(target_arch = "x86_64")]
        Backend::Sse2 => unsafe { cover_add_sse2(dst, src) },
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => unsafe { cover_add_avx2(dst, src) },
        _ => {
            for (d, s) in dst.iter_mut().zip(src) {
                *d = d.saturating_add(*s);
            }
        }
    }
}

/// Saturating `+1` across a cover span (scanline fill coverage).
pub fn cover_inc_with(backend: Backend, dst: &mut [u16]) {
    match backend {
        #[cfg(target_arch = "x86_64")]
        Backend::Sse2 | Backend::Avx2 => unsafe { cover_inc_x86(dst) },
        _ => {
            for d in dst.iter_mut() {
                *d = d.saturating_add(1);
            }
        }
    }
}

/// # Safety
/// SSE2 must be available (x86_64 baseline — always true here).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
unsafe fn cover_inc_x86(dst: &mut [u16]) {
    let n = dst.len();
    let d = dst.as_mut_ptr();
    let one = _mm_set1_epi16(1);
    let mut i = 0usize;
    while i + 8 <= n {
        let vd = _mm_loadu_si128(d.add(i) as *const __m128i);
        _mm_storeu_si128(d.add(i) as *mut __m128i, _mm_adds_epu16(vd, one));
        i += 8;
    }
    while i < n {
        *d.add(i) = (*d.add(i)).saturating_add(1);
        i += 1;
    }
}

/// Fills a stamp span with `v` (polygon fill's per-record generation
/// marker). `slice::fill` already lowers to a vector loop, so every
/// backend shares it; kept in the kernel surface so the span fill path
/// reads as one dispatch site.
pub fn fill_u32_with(backend: Backend, dst: &mut [u32], v: u32) {
    let _ = backend;
    dst.fill(v);
}

/// True when any element of `hay` equals `needle` — the stale-stamp
/// scan deciding whether a fill span can take the fresh-span fast path.
pub fn any_equals_with(backend: Backend, hay: &[u32], needle: u32) -> bool {
    match backend {
        #[cfg(target_arch = "x86_64")]
        Backend::Sse2 | Backend::Avx2 => unsafe { any_equals_x86(hay, needle) },
        _ => hay.contains(&needle),
    }
}

/// # Safety
/// SSE2 must be available (x86_64 baseline — always true here).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
unsafe fn any_equals_x86(hay: &[u32], needle: u32) -> bool {
    let n = hay.len();
    let p = hay.as_ptr();
    let vn = _mm_set1_epi32(needle as i32);
    let mut i = 0usize;
    while i + 4 <= n {
        let v = _mm_loadu_si128(p.add(i) as *const __m128i);
        if _mm_movemask_epi8(_mm_cmpeq_epi32(v, vn)) != 0 {
            return true;
        }
        i += 4;
    }
    while i < n {
        if *p.add(i) == needle {
            return true;
        }
        i += 1;
    }
    false
}

// ---------------------------------------------------------------------
// Calibration probe
// ---------------------------------------------------------------------

/// Measures the per-texel cost (ns) of the dispatched `Over` blend
/// kernel on an L1-resident row with mixed presence — the
/// representative per-item work the executor's min-parallel-items
/// recalibration feeds on, so the threshold tracks the *SIMD* texel
/// cost instead of the boot-time synthetic one.
pub fn per_texel_probe_ns<P: TexelWords>() -> f64 {
    let backend = active_backend();
    const N: usize = 4096;
    const REPS: usize = 8;
    let mut template = vec![P::default(); N];
    let mut src = vec![P::default(); N];
    let mut seed = 0x9E37_79B9u32;
    {
        let tw = row_words_mut(&mut template);
        let sw = row_words_mut(&mut src);
        for i in 0..N {
            seed = seed.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            tw[i * TEXEL_WORDS] = seed >> 13 & 7;
            tw[i * TEXEL_WORDS + 2] = 1.0f32.to_bits();
            seed = seed.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            sw[i * TEXEL_WORDS] = seed >> 13 & 7;
            sw[i * TEXEL_WORDS + 2] = 2.0f32.to_bits();
        }
    }
    let mut dst = template.clone();
    // Warm the LUT and instruction cache.
    blend_rows_with(backend, BlendTag::Over, &mut dst, &src);
    dst.copy_from_slice(&template);
    let start = Instant::now();
    for _ in 0..REPS {
        blend_rows_with(backend, BlendTag::Over, &mut dst, &src);
        std::hint::black_box(&mut dst);
    }
    let per_item = start.elapsed().as_nanos() as f64 / (REPS * N) as f64;
    per_item.max(0.01)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A bare ten-word texel satisfying the layout contract (the chain
    /// and pipeline tests run the tagged kernels on it too).
    #[repr(C)]
    #[derive(Clone, Copy, Debug, Default, PartialEq)]
    pub(crate) struct T10(pub(crate) [u32; TEXEL_WORDS]);

    // SAFETY: repr(C) [u32; 10] is 40 bytes, align 4, no padding, and
    // every bit pattern is valid.
    unsafe impl TexelWords for T10 {}

    fn backends() -> Vec<Backend> {
        let mut v = vec![Backend::Scalar];
        #[cfg(target_arch = "x86_64")]
        {
            v.push(Backend::Sse2);
            if std::arch::is_x86_feature_detected!("avx2") {
                v.push(Backend::Avx2);
            }
        }
        v
    }

    const ALL_BLENDS: [BlendTag; 5] = [
        BlendTag::Over,
        BlendTag::PointOverArea,
        BlendTag::AreaCount,
        BlendTag::Accumulate,
        BlendTag::PointAccumulate,
    ];

    /// Texel with the given presence whose payload words are derived
    /// from `seed`, mixing in awkward float bit patterns (-0.0, NaN,
    /// denormals) so verbatim-copy violations surface.
    fn texel(presence: u32, seed: u32) -> T10 {
        let specials = [
            1.5f32.to_bits(),
            (-0.0f32).to_bits(),
            f32::NAN.to_bits(),
            1.0e-40f32.to_bits(), // denormal
            (-3.25f32).to_bits(),
            3.0e38f32.to_bits(),
        ];
        let mut w = [0u32; TEXEL_WORDS];
        w[0] = presence;
        let mut s = seed.wrapping_mul(0x9E37_79B9).wrapping_add(1);
        for (i, word) in w.iter_mut().enumerate().skip(1) {
            s = s.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            *word = if i % 3 == 1 {
                s // id word: arbitrary bits
            } else {
                specials[(s as usize) % specials.len()]
            };
        }
        T10(w)
    }

    #[test]
    fn blend_backends_bit_identical_exhaustive_presence() {
        for tag in ALL_BLENDS {
            for pa in 0..8u32 {
                for pb in 0..8u32 {
                    for seed in 0..4u32 {
                        let a = texel(pa, seed * 2 + 1);
                        let b = texel(pb, seed * 2 + 2);
                        let mut want = [a];
                        blend_rows_with(Backend::Scalar, tag, &mut want, &[b]);
                        for be in backends() {
                            let mut got = [a];
                            blend_rows_with(be, tag, &mut got, &[b]);
                            assert_eq!(
                                got[0].0, want[0].0,
                                "{tag:?} {be:?} pa={pa:03b} pb={pb:03b} seed={seed}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn blend_remainder_lanes_and_long_rows() {
        for tag in ALL_BLENDS {
            for len in [1usize, 2, 3, 7, 8, 9, 16, 17, 67] {
                let dst: Vec<T10> = (0..len).map(|i| texel(i as u32 % 8, i as u32)).collect();
                let src: Vec<T10> = (0..len)
                    .map(|i| texel((i as u32 + 3) % 8, 99 + i as u32))
                    .collect();
                let mut want = dst.clone();
                blend_rows_with(Backend::Scalar, tag, &mut want, &src);
                for be in backends() {
                    let mut got = dst.clone();
                    blend_rows_with(be, tag, &mut got, &src);
                    assert_eq!(got, want, "{tag:?} {be:?} len={len}");
                }
            }
        }
    }

    #[test]
    fn over_keeps_left_and_preserves_absent_words() {
        // a has dim0; b has dim0+dim2. Over keeps a's dim0 verbatim,
        // takes b's dim2, and leaves a's absent-dim garbage words alone.
        let mut a = texel(0b001, 7);
        a.0[4] = 0xDEAD_BEEF; // garbage in absent dim1
        let b = texel(0b101, 8);
        for be in backends() {
            let mut out = [a];
            blend_rows_with(be, BlendTag::Over, &mut out, &[b]);
            let w = out[0].0;
            assert_eq!(w[0], 0b101);
            assert_eq!(&w[1..4], &a.0[1..4], "left dim0 kept ({be:?})");
            assert_eq!(w[4], 0xDEAD_BEEF, "absent dim words verbatim ({be:?})");
            assert_eq!(&w[7..10], &b.0[7..10], "right dim2 taken ({be:?})");
        }
    }

    #[test]
    fn accumulate_zeroes_id_and_sums() {
        let a = T10([1, 77, 2.0f32.to_bits(), 10.0f32.to_bits(), 0, 0, 0, 0, 0, 0]);
        let b = T10([1, 88, 3.0f32.to_bits(), 20.0f32.to_bits(), 0, 0, 0, 0, 0, 0]);
        for be in backends() {
            let mut out = [a];
            blend_rows_with(be, BlendTag::Accumulate, &mut out, &[b]);
            let w = out[0].0;
            assert_eq!(w[0], 1);
            assert_eq!(w[1], 0, "id zeroed ({be:?})");
            assert_eq!(f32::from_bits(w[2]), 5.0);
            assert_eq!(f32::from_bits(w[3]), 30.0);
        }
    }

    #[test]
    fn value_rows_heat_and_density() {
        let mut row: Vec<T10> = (0..13).map(|i| texel(i % 8, 1000 + i)).collect();
        // Make v1 words finite so ln(1 + v1) is well-defined.
        for t in &mut row {
            t.0[2] = (t.0[0] & 1) as f32 as u32; // placeholder, overwritten below
        }
        for (i, t) in row.iter_mut().enumerate() {
            t.0[2] = (i as f32).to_bits();
            t.0[8] = (i as f32 + 7.0).to_bits();
        }
        let before = row.clone();
        let mut heat = row.clone();
        value_rows_with(Backend::Scalar, ValueTag::HeatLog, &mut heat);
        for (t, b) in heat.iter().zip(&before) {
            if b.0[0] & 1 != 0 {
                assert_eq!(f32::from_bits(t.0[3]), (1.0 + f32::from_bits(b.0[2])).ln());
            } else {
                assert_eq!(t.0, b.0);
            }
        }
        let mut dens = row.clone();
        value_rows_with(
            Backend::Scalar,
            ValueTag::DensityLog { tag: 5.0 },
            &mut dens,
        );
        for (t, b) in dens.iter().zip(&before) {
            if b.0[0] & 4 != 0 {
                let v1 = f32::from_bits(b.0[8]) - 5.0;
                assert_eq!(f32::from_bits(t.0[8]), v1);
                assert_eq!(f32::from_bits(t.0[9]), (1.0 + v1).ln());
            } else {
                assert_eq!(t.0, b.0);
            }
        }
    }

    #[test]
    fn mask_backends_bit_identical() {
        for tag in [
            MaskTag::PointAndArea,
            MaskTag::AreaV1Above { threshold: 4.5 },
        ] {
            for len in [1usize, 7, 8, 9, 64, 65, 130] {
                let row: Vec<T10> = (0..len)
                    .map(|i| {
                        let mut t = texel(i as u32 % 8, 31 * i as u32);
                        t.0[8] = ((i % 11) as f32).to_bits();
                        t
                    })
                    .collect();
                let cov0: Vec<u16> = (0..len).map(|i| (i + 1) as u16).collect();
                let words = len.div_ceil(64);
                let mut want_t = row.clone();
                let mut want_c = cov0.clone();
                let mut want_b = vec![0u64; words];
                mask_rows_with(
                    Backend::Scalar,
                    tag,
                    &mut want_t,
                    Some(&mut want_c),
                    &mut want_b,
                );
                for be in backends() {
                    let mut got_t = row.clone();
                    let mut got_c = cov0.clone();
                    let mut got_b = vec![0u64; words];
                    mask_rows_with(be, tag, &mut got_t, Some(&mut got_c), &mut got_b);
                    assert_eq!(got_t, want_t, "{tag:?} {be:?} len={len} texels");
                    assert_eq!(got_c, want_c, "{tag:?} {be:?} len={len} cover");
                    assert_eq!(got_b, want_b, "{tag:?} {be:?} len={len} bits");
                }
            }
        }
    }

    #[test]
    fn mask_semantics_null_passes_and_failures_null() {
        let null = T10::default();
        let point = {
            let mut t = T10::default();
            t.0[0] = 0b001;
            t
        };
        let both = {
            let mut t = T10::default();
            t.0[0] = 0b101;
            t
        };
        let mut row = [null, point, both];
        let mut cov = [5u16, 5, 5];
        let mut bits = [0u64; 1];
        mask_rows_with(
            Backend::Scalar,
            MaskTag::PointAndArea,
            &mut row,
            Some(&mut cov),
            &mut bits,
        );
        assert_eq!(row[0], null, "null passes untouched");
        assert_eq!(row[1], null, "point-only killed");
        assert_eq!(row[2], both, "point∧area kept");
        assert_eq!(cov, [5, 0, 5]);
        assert_eq!(bits[0], 0b011, "null-after bits: null + killed");
    }

    #[test]
    fn cover_kernels_saturate_identically() {
        for len in [1usize, 7, 8, 15, 16, 33] {
            let dst0: Vec<u16> = (0..len)
                .map(|i| if i % 3 == 0 { u16::MAX - 1 } else { 40_000 })
                .collect();
            let src: Vec<u16> = (0..len).map(|i| (i as u16) * 7 + 3).collect();
            let mut want = dst0.clone();
            for (d, s) in want.iter_mut().zip(&src) {
                *d = d.saturating_add(*s);
            }
            for be in backends() {
                let mut got = dst0.clone();
                cover_add_rows_with(be, &mut got, &src);
                assert_eq!(got, want, "{be:?} len={len}");
                let mut inc = dst0.clone();
                cover_inc_with(be, &mut inc);
                let want_inc: Vec<u16> = dst0.iter().map(|d| d.saturating_add(1)).collect();
                assert_eq!(inc, want_inc, "{be:?} len={len} inc");
            }
        }
    }

    #[test]
    fn any_equals_scans() {
        for be in backends() {
            let hay: Vec<u32> = (0..37).map(|i| i * 2).collect();
            assert!(any_equals_with(be, &hay, 36), "{be:?}");
            assert!(any_equals_with(be, &hay, 72), "{be:?} tail element");
            assert!(!any_equals_with(be, &hay, 35), "{be:?}");
            assert!(!any_equals_with(be, &[], 0), "{be:?} empty");
        }
    }

    #[test]
    fn backend_shape() {
        assert_eq!(Backend::Scalar.width(), 1);
        assert_eq!(Backend::Sse2.width(), 4);
        assert_eq!(Backend::Avx2.width(), 8);
        assert!(!Backend::Scalar.is_vector());
        assert!(Backend::Avx2.is_vector());
        assert_eq!(Backend::Avx2.name(), "avx2");
        // Whatever the host, the selected backend must be usable.
        let be = active_backend();
        assert!(be.width() >= 1);
        let mut row = [texel(3, 1)];
        blend_rows_with(be, BlendTag::Over, &mut row, &[texel(5, 2)]);
    }

    #[test]
    fn probe_returns_positive_cost() {
        let ns = per_texel_probe_ns::<T10>();
        assert!(ns > 0.0 && ns.is_finite());
    }
}
