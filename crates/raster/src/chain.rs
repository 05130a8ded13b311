//! Operator chains (`[op]*` over a finished framebuffer).
//!
//! The algebra composes canvas operators — Value Transform, Blend,
//! Mask — into query plans, but executing them one whole-canvas pass at
//! a time sweeps the planes once per operator. An [`OpChain`] instead
//! describes the operators of a linear plan as one in-place pass
//! (`Pipeline::run_chain_texture`): each band of full-width row
//! strips, about one tile in size, runs every operator before the next
//! strip, so a strip stays in cache across the chain and no
//! intermediate canvas is materialized.
//!
//! Every operator is a built-in kernel named by a tag — a
//! [`ValueTag`], [`BlendTag`] or [`MaskTag`] — run by the dispatched
//! SIMD row kernels of [`crate::simd`]. A chain holds tags and operand
//! textures, never a closure: it is pure data, the form a backend other
//! than the CPU runner could lower. Every kernel is a pure per-texel
//! function, so the chain run is **bit-identical** to the materialized
//! sequence of full-screen passes (and to the sequential `Device::cpu`
//! run) at any thread count; `tests/tile_job_oracle.rs` asserts this
//! on random chains.

use crate::simd::{self, Backend, BlendTag, MaskTag, TexelWords, ValueTag};
use crate::stats::PipelineStats;
use crate::texture::Texture;

/// Row dispatcher of a built-in Map: texel row.
type MapRows<P> = fn(Backend, ValueTag, &mut [P]);
/// Row dispatcher of a built-in Blend: destination row, operand row.
type BlendRows<P> = fn(Backend, BlendTag, &mut [P], &[P]);
/// Row dispatcher of a built-in Mask: texel row, optional cover row,
/// null bitmap.
type MaskRows<P> = fn(Backend, MaskTag, &mut [P], Option<&mut [u16]>, &mut [u64]);

/// One operator of a chain. Its kernel is a built-in
/// function carried as an op `tag` plus the monomorphized SIMD row
/// dispatcher `rows` captured by the `*_tagged` builder (where
/// `P: TexelWords` is known).
pub enum ChainOp<'a, P> {
    /// Per-texel rewrite — the Value Transform `V[f]`. Equivalent to a
    /// materialized `Pipeline::par_map_texels` pass. Built-in
    /// transforms are position-independent.
    Map { tag: ValueTag, rows: MapRows<P> },
    /// Pixel-wise blend with an already-materialized input texture —
    /// the Blend `B[⊙]` against an operand canvas. Equivalent to a
    /// materialized `Pipeline::blend_into_tagged` pass; when
    /// `src_cover` is given, the cover planes additionally merge with
    /// saturating addition (the canvas Blend contract), matching a
    /// `Pipeline::blend_cover_into` pass.
    Blend {
        src: &'a Texture<P>,
        src_cover: Option<&'a Texture<u16>>,
        tag: BlendTag,
        rows: BlendRows<P>,
    },
    /// Per-texel keep-predicate — the coarse Mask `M[M]`, with the
    /// lowered canvas semantics: null texels pass, failing texels are
    /// nulled to `P::default()` and their cover zeroed, and the op
    /// records which pixels hold a null texel (word-0 presence 0)
    /// afterwards. Equivalent to a materialized `Pipeline::map_planes`
    /// pass.
    Mask { tag: MaskTag, rows: MaskRows<P> },
}

impl<P> ChainOp<'_, P> {
    /// Short label for plan printing / debugging.
    pub fn label(&self) -> &'static str {
        match self {
            ChainOp::Map { .. } => "V[f]",
            ChainOp::Blend { .. } => "B[⊙]",
            ChainOp::Mask { .. } => "M[M]",
        }
    }
}

/// A linear plan `op₁ → … → opₖ` over a finished framebuffer (see
/// module docs). Built with the chaining constructors and executed by
/// `Pipeline::run_chain_texture` (after a point draw:
/// `Pipeline::run_chain_points`).
pub struct OpChain<'a, P> {
    ops: Vec<ChainOp<'a, P>>,
    /// SIMD backend override for the tagged kernels; `None` uses the
    /// process-wide [`simd::active_backend`]. Tests pin this to compare
    /// forced-scalar against auto dispatch in one process.
    backend: Option<Backend>,
}

impl<P> Default for OpChain<'_, P> {
    fn default() -> Self {
        Self::new()
    }
}

impl<'a, P> OpChain<'a, P> {
    /// The empty chain.
    pub fn new() -> Self {
        OpChain {
            ops: Vec::new(),
            backend: None,
        }
    }

    /// Ignored: every Mask op is a built-in kernel that records word-0
    /// nullity (the canvas `is_null`), so there is no null test to
    /// set. Kept only because the repo benchmark still calls it; a
    /// benchmark-only follow-up stops calling it and then deletes it.
    pub fn with_null_test(self, _is_null: impl Fn(&P) -> bool + Sync + 'a) -> Self {
        self
    }

    /// Pins the SIMD backend used by the built-in stages (default: the
    /// process-wide [`simd::active_backend`]).
    pub fn with_backend(mut self, backend: Backend) -> Self {
        self.backend = Some(backend);
        self
    }

    /// Appends a Value Transform stage for a built-in transform,
    /// lowered to the SIMD row kernel.
    pub fn map_tagged(mut self, tag: ValueTag) -> Self
    where
        P: TexelWords,
    {
        self.ops.push(ChainOp::Map {
            tag,
            rows: simd::value_rows_with::<P>,
        });
        self
    }

    /// Appends a Blend stage for a built-in blend function, lowered to
    /// the SIMD row kernel; `src_cover`, when given, merges cover
    /// planes with the SIMD saturating add.
    pub fn blend_tagged(
        mut self,
        src: &'a Texture<P>,
        src_cover: Option<&'a Texture<u16>>,
        tag: BlendTag,
    ) -> Self
    where
        P: TexelWords,
    {
        self.ops.push(ChainOp::Blend {
            src,
            src_cover,
            tag,
            rows: simd::blend_rows_with::<P>,
        });
        self
    }

    /// Appends a coarse Mask stage for a built-in predicate, lowered to
    /// the SIMD row kernel. Its null bitmap records word-0 presence
    /// (the canvas `is_null`).
    pub fn mask_tagged(mut self, tag: MaskTag) -> Self
    where
        P: TexelWords,
    {
        self.ops.push(ChainOp::Mask {
            tag,
            rows: simd::mask_rows_with::<P>,
        });
        self
    }

    pub fn ops(&self) -> &[ChainOp<'a, P>] {
        &self.ops
    }

    pub fn len(&self) -> usize {
        self.ops.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Number of Mask ops (one [`MaskOutcome`] bitmap each).
    pub fn mask_count(&self) -> usize {
        self.mask_ordinal(self.ops.len())
    }

    /// True when any Blend op merges a cover plane (such chains require
    /// the run to carry a cover plane).
    pub fn blends_cover(&self) -> bool {
        self.ops.iter().any(|op| {
            matches!(
                op,
                ChainOp::Blend {
                    src_cover: Some(_),
                    ..
                }
            )
        })
    }

    /// Ordinal of op `op_idx` among the Mask ops (its bitmap index).
    fn mask_ordinal(&self, op_idx: usize) -> usize {
        self.ops[..op_idx]
            .iter()
            .filter(|op| matches!(op, ChainOp::Mask { .. }))
            .count()
    }

    /// Charges the deterministic work counters of the operator stages
    /// over `texels` texels — identical to running the equivalent
    /// materialized full-screen passes, and independent of thread
    /// count. A canvas Blend is one pass over the texel planes
    /// plus (when covers merge) one over the cover planes.
    pub(crate) fn charge_stats(&self, stats: &mut PipelineStats, texels: usize) {
        for op in &self.ops {
            let (planes, blend_planes) = match op {
                ChainOp::Map { .. } | ChainOp::Mask { .. } => (1, 0),
                ChainOp::Blend { src_cover, .. } => {
                    let planes = 1 + src_cover.is_some() as u64;
                    (planes, planes)
                }
            };
            stats.passes += planes;
            stats.fullscreen_texels += planes * texels as u64;
            stats.blend_ops += blend_planes * texels as u64;
        }
    }

    /// Fresh null bitmaps for one strip of `len` texels, one per Mask op.
    pub(crate) fn tile_bits(&self, len: usize) -> Vec<TileBits> {
        (0..self.mask_count()).map(|_| TileBits::new(len)).collect()
    }
}

impl<'a, P: Copy + Default> OpChain<'a, P> {
    /// Asserts every Blend operand shares the framebuffer's dimensions
    /// (the same contract the full-screen blends enforce pass-by-pass).
    pub(crate) fn assert_operands(&self, fb: &Texture<P>) {
        let dims = (fb.width(), fb.height());
        for op in &self.ops {
            if let ChainOp::Blend { src, src_cover, .. } = op {
                let cover_dims = src_cover.map_or(dims, |sc| (sc.width(), sc.height()));
                assert_eq!(
                    (src.width(), src.height()),
                    dims,
                    "chain blend requires same-size framebuffers"
                );
                assert_eq!(
                    cover_dims, dims,
                    "chain blend requires same-size cover planes"
                );
            }
        }
    }

    /// Applies op `op_idx` in place to one strip of whole rows starting
    /// at row `row0`: `tex`/`cov` are the strip's rows of the planes,
    /// contiguous in both. Mask ops record their post-op null pixels
    /// into `bits[mask_ordinal]` (strip-local bitset).
    pub(crate) fn apply_strip(
        &self,
        op_idx: usize,
        row0: usize,
        tex: &mut [P],
        cov: Option<&mut [u16]>,
        bits: &mut [TileBits],
    ) {
        let be = self.backend.unwrap_or_else(simd::active_backend);
        match &self.ops[op_idx] {
            // Built-in value transforms are position-independent, so
            // the whole strip is one row.
            ChainOp::Map { tag, rows } => rows(be, *tag, tex),
            ChainOp::Blend {
                src,
                src_cover,
                tag,
                rows,
            } => {
                let at = row0 * src.width() as usize..row0 * src.width() as usize + tex.len();
                rows(be, *tag, tex, &src.texels()[at.clone()]);
                if let (Some(sc), Some(cov)) = (src_cover, cov) {
                    simd::cover_add_rows_with(be, cov, &sc.texels()[at]);
                }
            }
            ChainOp::Mask { tag, rows } => {
                let ordinal = self.mask_ordinal(op_idx);
                rows(be, *tag, tex, cov, &mut bits[ordinal].words);
            }
        }
    }
}

/// A per-strip bitset (one bit per texel of the rect, row-major local
/// order) carrying a Mask op's post-op null pixels to the merge.
#[derive(Clone, Debug)]
pub(crate) struct TileBits {
    words: Vec<u64>,
}

impl TileBits {
    pub(crate) fn new(len: usize) -> Self {
        TileBits {
            words: vec![0; len.div_ceil(64)],
        }
    }

    #[cfg(test)]
    fn set(&mut self, i: usize) {
        self.words[i / 64] |= 1 << (i % 64);
    }

    #[inline]
    fn get(&self, i: usize) -> bool {
        self.words[i / 64] & (1 << (i % 64)) != 0
    }
}

/// Per-Mask-op nulled-pixel bitmaps over the whole framebuffer
/// (row-major, one bit per pixel): bit set ⇔ the texel at that pixel is
/// null immediately **after** the Mask op ran. This is exactly the
/// pixel set whose boundary entries a materialized Mask pass would
/// prune, so canvas callers replay their boundary bookkeeping against
/// the chain run without ever materializing the intermediate planes.
#[derive(Clone, Debug, Default)]
pub struct MaskOutcome {
    width: u32,
    stages: Vec<TileBits>,
}

impl MaskOutcome {
    pub(crate) fn new(width: u32, pixels: usize, masks: usize) -> Self {
        MaskOutcome {
            width,
            stages: (0..masks).map(|_| TileBits::new(pixels)).collect(),
        }
    }

    /// True when the texel at row-major `pixel` was null right after
    /// the `mask`-th Mask op (0-based, in chain order).
    pub fn is_null_after(&self, mask: usize, pixel: u32) -> bool {
        self.stages[mask].get(pixel as usize)
    }

    /// Imports the strip-local bitset of Mask op `mask` for the strip
    /// of whole rows starting at row `row0`. The strip's rows are
    /// contiguous in the frame, so whole words are ORed in at the
    /// strip's bit offset, skipping zero words. Bits past the strip's
    /// texels are never set, so a spill past the frame's last word is
    /// always zero.
    pub(crate) fn import_strip(&mut self, mask: usize, row0: usize, strip: &TileBits) {
        let start = row0 * self.width as usize;
        let (at, shift) = (start / 64, start % 64);
        let words = &mut self.stages[mask].words;
        for (wi, &word) in strip.words.iter().enumerate() {
            if word == 0 {
                continue;
            }
            words[at + wi] |= word << shift;
            if shift != 0 && word >> (64 - shift) != 0 {
                words[at + wi + 1] |= word >> (64 - shift);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simd::tests::T10;

    #[test]
    fn tile_bits_set_get() {
        let mut b = TileBits::new(130);
        assert!(!b.get(0) && !b.get(129));
        b.set(0);
        b.set(64);
        b.set(129);
        assert!(b.get(0) && b.get(64) && b.get(129));
        assert!(!b.get(1) && !b.get(63) && !b.get(128));
    }

    #[test]
    fn chain_builder_counts_ops() {
        let src: Texture<T10> = Texture::new(4, 4);
        let chain = OpChain::new()
            .map_tagged(ValueTag::HeatLog)
            .blend_tagged(&src, None, BlendTag::Over)
            .mask_tagged(MaskTag::PointAndArea)
            .map_tagged(ValueTag::DensityLog { tag: 1.0 })
            .mask_tagged(MaskTag::AreaV1Above { threshold: 2.0 });
        assert_eq!(chain.len(), 5);
        assert_eq!(chain.mask_count(), 2);
        assert!(!chain.blends_cover());
        assert_eq!(chain.mask_ordinal(2), 0);
        assert_eq!(chain.mask_ordinal(4), 1);
        assert_eq!(chain.ops()[0].label(), "V[f]");
        assert_eq!(chain.ops()[1].label(), "B[⊙]");
        assert_eq!(chain.ops()[2].label(), "M[M]");
    }

    #[test]
    fn apply_tile_matches_fullscreen_semantics() {
        // Rows 2..6 of an 8x8 "framebuffer" as one strip: every op on
        // the strip must equal the same scalar row kernel run over the
        // whole frame, so the blend reads its operand at the strip's
        // rows and the mask records strip-local bits.
        let (row0, len) = (2usize, 32usize);
        let mut frame: Texture<T10> = Texture::new(8, 8);
        let mut src: Texture<T10> = Texture::new(8, 8);
        let mut src_cov: Texture<u16> = Texture::new(8, 8);
        for y in 0..8 {
            for x in 0..8 {
                let mut t = [0u32; 10];
                (t[0], t[1], t[2]) = (0b001, x, ((x + 8 * y) as f32).to_bits());
                frame.set(x, y, T10(t));
                let mut t = [0u32; 10];
                t[0] = if (x + y) % 2 == 0 { 0b100 } else { 0b010 };
                (t[7], t[8]) = (y, (x as f32 * 0.5 + 1.0).to_bits());
                src.set(x, y, T10(t));
                src_cov.set(x, y, ((x + y) % 4) as u16);
            }
        }
        let chain = OpChain::new()
            .blend_tagged(&src, Some(&src_cov), BlendTag::PointOverArea)
            .mask_tagged(MaskTag::PointAndArea)
            .map_tagged(ValueTag::HeatLog);
        let mut tex = frame.texels()[row0 * 8..row0 * 8 + len].to_vec();
        let mut cov = vec![3u16; len];
        let mut bits = vec![TileBits::new(len)];
        for op in 0..chain.len() {
            chain.apply_strip(op, row0, &mut tex, Some(&mut cov), &mut bits);
        }

        let be = Backend::Scalar;
        let mut frame_cov = vec![3u16; 64];
        let mut frame_bits = [0u64];
        simd::blend_rows_with(
            be,
            BlendTag::PointOverArea,
            frame.texels_mut(),
            src.texels(),
        );
        simd::cover_add_rows_with(be, &mut frame_cov, src_cov.texels());
        let mask = MaskTag::PointAndArea;
        simd::mask_rows_with(
            be,
            mask,
            frame.texels_mut(),
            Some(&mut frame_cov),
            &mut frame_bits,
        );
        simd::value_rows_with(be, ValueTag::HeatLog, frame.texels_mut());
        for li in 0..len {
            let pixel = row0 * 8 + li;
            let (x, y) = ((pixel % 8) as u32, (pixel / 8) as u32);
            assert_eq!(tex[li], frame.get(x, y), "texel at ({x},{y})");
            assert_eq!(cov[li], frame_cov[pixel], "cover at ({x},{y})");
            let nulled = frame_bits[0] >> pixel & 1 == 1;
            assert_eq!(bits[0].get(li), nulled, "null bit at ({x},{y})");
            // Odd pixels lose their operand's 2-row and are masked out.
            assert_eq!(nulled, (x + y) % 2 == 1, "masked at ({x},{y})");
        }
    }

    #[test]
    fn mask_outcome_imports_tile_bits() {
        // A two-row strip at row 1 of an 8-wide frame.
        let mut strip = TileBits::new(16);
        strip.set(2); // local 2 => (2,1) => pixel 1*8+2 = 10
        strip.set(11); // local 11 => (3,2) => pixel 2*8+3 = 19
        let mut out = MaskOutcome::new(8, 64, 1);
        out.import_strip(0, 1, &strip);
        assert!(out.is_null_after(0, 10));
        assert!(out.is_null_after(0, 19));
        assert!(!out.is_null_after(0, 11));
    }

    #[test]
    fn mask_outcome_imports_full_width_rows_at_any_bit_offset() {
        // Strips start at any bit offset; every bit must land at its
        // pixel, including words that spill across a 64-bit boundary
        // and the frame's last word.
        for (width, height) in [(10u32, 13u32), (64, 5), (100, 7), (33, 40)] {
            for y0 in 0..height {
                for h in 1..=(height - y0).min(4) {
                    let len = (width * h) as usize;
                    let mut strip = TileBits::new(len);
                    for li in (0..len).filter(|li| li % 3 != 1) {
                        strip.set(li);
                    }
                    let mut out = MaskOutcome::new(width, (width * height) as usize, 1);
                    out.import_strip(0, y0 as usize, &strip);
                    let first = (y0 * width) as usize;
                    for pixel in 0..(width * height) as usize {
                        let inside = (first..first + len).contains(&pixel);
                        let want = inside && strip.get(pixel - first);
                        assert_eq!(
                            out.is_null_after(0, pixel as u32),
                            want,
                            "{width}x{height} rows {y0}+{h}"
                        );
                    }
                }
            }
        }
    }
}
