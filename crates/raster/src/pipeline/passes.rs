//! Full-screen passes and the scatter pass: per-pixel work over
//! finished textures (the other half of [`Pipeline`]'s surface turns
//! geometry into texels — see the parent module).

use super::{draw_span, Pipeline};
use crate::chain::{MaskOutcome, OpChain};
use crate::simd::{self, BlendTag, TexelWords, ValueTag};
use crate::texture::Texture;
use crate::tile::TILE_SIZE;
use crate::viewport::Viewport;
use canvas_geom::Point;
use canvas_obs as obs;
use std::sync::Arc;

impl Pipeline {
    /// Applies `chain` in place over an already-materialized framebuffer
    /// and, when given, its cover plane (a chain that merges covers or
    /// masks needs it). Row bands are claimed by the worker pool; each
    /// band walks strips of whole rows about one tile in size and runs
    /// every stage on a strip before the next (whole rows, so strips
    /// are contiguous in both planes and nothing is copied). Per-texel operators make the result
    /// bit-identical to one full-screen pass per operator at any thread
    /// count, and the work counters charged are the same as those
    /// passes'.
    pub fn run_chain_texture<P>(
        &mut self,
        fb: &mut Texture<P>,
        cover: Option<&mut Texture<u16>>,
        chain: &OpChain<'_, P>,
    ) -> MaskOutcome
    where
        P: Copy + Default + Send + Sync,
    {
        let mut span = draw_span("chain_texture", 0);
        span.arg_u64("chain_ops", chain.len() as u64);
        chain.assert_operands(fb);
        assert!(
            !chain.blends_cover() || cover.is_some(),
            "chain blends cover planes but the run has no cover plane"
        );
        let (w, n) = (fb.width() as usize, fb.len());
        let strip_rows = ((TILE_SIZE * TILE_SIZE) as usize / w.max(1)).max(1);
        let strip = strip_rows * w;
        let band = |row0: usize, tex: &mut [P], mut cov: Option<&mut [u16]>| {
            let mut done = Vec::new();
            for (k, tex) in tex.chunks_mut(strip).enumerate() {
                let strip_row0 = row0 + k * strip_rows;
                let mut cov = cov
                    .as_mut()
                    .map(|c| &mut c[k * strip..k * strip + tex.len()]);
                let mut bits = chain.tile_bits(tex.len());
                for s in 0..chain.len() {
                    let mut op_span = obs::span(chain.ops()[s].label(), "raster");
                    op_span.arg_u64("tile", strip_row0 as u64);
                    chain.apply_strip(s, strip_row0, tex, cov.as_deref_mut(), &mut bits);
                }
                done.push((strip_row0, bits));
            }
            done
        };
        let bands = match cover {
            Some(c) => {
                assert_eq!(
                    (fb.width(), fb.height()),
                    (c.width(), c.height()),
                    "planes must share dimensions"
                );
                let cov = c.texels_mut();
                self.pool
                    .for_each_band2(w, fb.texels_mut(), cov, |r, t, c| band(r, t, Some(c)))
            }
            // A zero-sized stand-in plane: no allocation, no cover rows.
            None => self
                .pool
                .for_each_band2(w, fb.texels_mut(), &mut vec![(); n], |r, t, _| {
                    band(r, t, None)
                }),
        };
        let mut masked = MaskOutcome::new(fb.width(), n, chain.mask_count());
        for (row0, bits) in bands.iter().flatten() {
            for (m, tb) in bits.iter().enumerate() {
                masked.import_strip(m, *row0, tb);
            }
        }
        chain.charge_stats(&mut self.stats, n);
        masked
    }

    /// Full-screen binary pass `rows(dst_band, src_band)` — the
    /// texture-vs-texture form of the Blend operator (alpha blending of
    /// two rendered canvases in the paper). Band-parallel when the
    /// device has workers: per-texel blends are independent, so the
    /// decomposition cannot change the result.
    ///
    /// Panics if the textures differ in size (canvases must share a
    /// viewport before blending; the Geometric Transform operator is the
    /// algebra's tool for aligning them).
    fn blend_pass<P>(
        &mut self,
        dst: &mut Texture<P>,
        src: &Texture<P>,
        rows: impl Fn(&mut [P], &[P]) + Sync,
    ) where
        P: Copy + Default + Send + Sync,
    {
        assert_eq!(
            (dst.width(), dst.height()),
            (src.width(), src.height()),
            "blend requires same-size framebuffers"
        );
        self.begin_pass();
        self.stats.fullscreen_texels += dst.len() as u64;
        self.stats.blend_ops += dst.len() as u64;
        let band = dst
            .len()
            .div_ceil(self.pool.threads())
            .max(dst.width() as usize);
        self.pool
            .for_each_band_pair(band, dst.texels_mut(), src.texels(), rows);
    }

    /// Full-screen blend `dst[i] = tag(dst[i], src[i])` for a built-in
    /// blend function, carried as an op tag so each band takes the SIMD
    /// row kernel.
    pub fn blend_into_tagged<P>(&mut self, dst: &mut Texture<P>, src: &Texture<P>, tag: BlendTag)
    where
        P: TexelWords + Send + Sync,
    {
        let be = simd::active_backend();
        self.blend_pass(dst, src, |d, s| simd::blend_rows_with(be, tag, d, s));
    }

    /// Full-screen blend of certain-cover planes (saturating add — the
    /// canvas Blend contract), dispatched to the SIMD `adds_epu16`
    /// kernel. Charges the same counters as a texel-plane blend.
    pub fn blend_cover_into(&mut self, dst: &mut Texture<u16>, src: &Texture<u16>) {
        let be = simd::active_backend();
        self.blend_pass(dst, src, |d, s| simd::cover_add_rows_with(be, d, s));
    }

    /// Full-screen pass over two aligned planes (texel + cover) with a
    /// band-local collector — the parallel form of the Mask operator's
    /// per-pixel test. `f(y, row_a, row_c, collected)` is called once
    /// per pixel row, rows of a band in ascending order, so it can walk
    /// per-row side data (the boundary index's row runs) with a cursor
    /// instead of searching per pixel. It may rewrite both rows and
    /// push entries into the collector; collected values are returned
    /// concatenated in row-major band order (one allocation, exact
    /// capacity), so the output is identical at any thread count.
    pub fn map_planes<A, C, T, F>(&mut self, a: &mut Texture<A>, c: &mut Texture<C>, f: F) -> Vec<T>
    where
        A: Copy + Default + Send,
        C: Copy + Default + Send,
        T: Send,
        F: Fn(u32, &mut [A], &mut [C], &mut Vec<T>) + Sync,
    {
        assert_eq!(
            (a.width(), a.height()),
            (c.width(), c.height()),
            "planes must share dimensions"
        );
        self.begin_pass();
        self.stats.fullscreen_texels += a.len() as u64;
        let w = a.width() as usize;
        let parts =
            self.pool
                .for_each_band2(w, a.texels_mut(), c.texels_mut(), |row0, band_a, band_c| {
                    let mut collected = Vec::new();
                    let rows = band_a.chunks_mut(w).zip(band_c.chunks_mut(w));
                    for (j, (row_a, row_c)) in rows.enumerate() {
                        f((row0 + j) as u32, row_a, row_c, &mut collected);
                    }
                    collected
                });
        let mut out = Vec::with_capacity(parts.iter().map(Vec::len).sum());
        for part in parts {
            out.extend(part);
        }
        out
    }

    /// Parallel full-screen pass over row bands on the worker pool:
    /// rewrites every texel through `f`. Bit-identical at any thread
    /// count, since each texel is rewritten independently. The Value
    /// Transform operator `V[f]` compiles to this (fragment shading is
    /// embarrassingly parallel, which is the paper's whole point).
    pub fn par_map_texels<P, F>(&mut self, fb: &mut Texture<P>, f: F)
    where
        P: Copy + Default + Send,
        F: Fn(u32, u32, P) -> P + Sync,
    {
        self.begin_pass();
        self.stats.fullscreen_texels += fb.len() as u64;
        let w = fb.width() as usize;
        self.pool.for_each_band1(w, fb.texels_mut(), |row0, band| {
            for (j, t) in band.iter_mut().enumerate() {
                let x = (j % w) as u32;
                let y = (row0 + j / w) as u32;
                *t = f(x, y, *t);
            }
        });
    }

    /// [`par_map_texels`](Self::par_map_texels) for a built-in value
    /// transform, carried as an op tag so each band takes the SIMD
    /// row kernel (position-independent, so bands need no coordinate
    /// bookkeeping). Charges identical work counters.
    pub fn par_map_texels_tagged<P>(&mut self, fb: &mut Texture<P>, tag: ValueTag)
    where
        P: TexelWords + Send + Sync,
    {
        self.begin_pass();
        self.stats.fullscreen_texels += fb.len() as u64;
        let be = simd::active_backend();
        let w = fb.width() as usize;
        self.pool.for_each_band1(w, fb.texels_mut(), |_row0, band| {
            simd::value_rows_with(be, tag, band);
        });
    }

    /// Deterministic scatter pass: for every source texel, `target`
    /// chooses a world position in the destination viewport (or `None`
    /// to drop); the texel value is blended into the destination pixel.
    ///
    /// This realizes the value-dependent Geometric Transform
    /// `G[γ : S³ → R²]` — on a GPU this is a point-sprite re-render or
    /// transform feedback, with blending resolving collisions. The
    /// source runs in rounds: in each round every executor evaluates
    /// `target` (the expensive part: the value-form γ) over one chunk
    /// and emits a `(dst_pixel, value)` write list, then the calling
    /// thread applies that round's lists in source order before the
    /// next round starts. The blends therefore run **in source
    /// row-major order**, so the destination is bit-identical at any
    /// thread count, and at most one round of write lists (a quarter
    /// of the source) is live. Below the minimum-work threshold the
    /// blends are applied directly.
    pub fn scatter_shared<P, T, B>(
        &mut self,
        src: &Texture<P>,
        dst_vp: &Viewport,
        dst: &mut Texture<P>,
        target: T,
        blend: B,
    ) where
        P: Copy + Default + Send + Sync,
        T: Fn(u32, u32, &P) -> Option<Point> + Sync,
        B: Fn(P, P) -> P,
    {
        self.begin_pass();
        self.stats.scatter_reads += src.len() as u64;
        let w = src.width() as usize;
        let n = src.len();
        let texels = src.texels();
        // Destination pixel of source texel `i`, if it lands.
        let land = |i: usize| {
            let world = target((i % w) as u32, (i / w) as u32, &texels[i])?;
            dst_vp.world_to_pixel(world)
        };
        let mut writes = 0u64;
        let mut apply = |(dx, dy): (u32, u32), v: P| {
            dst.update(dx, dy, |d| blend(d, v));
            writes += 1;
        };
        let pool = Arc::clone(&self.pool);
        if !pool.should_parallelize(n) {
            for (i, t) in texels.iter().enumerate() {
                if let Some(px) = land(i) {
                    apply(px, *t);
                }
            }
        } else {
            // Four rounds of one chunk per executor.
            let threads = pool.threads();
            let chunk = n.div_ceil(threads * 4).max(1);
            let chunks = n.div_ceil(chunk);
            for first in (0..chunks).step_by(threads) {
                let lists = pool.run_indexed(threads.min(chunks - first), |k| {
                    let lo = (first + k) * chunk;
                    (lo..(lo + chunk).min(n))
                        .filter_map(|i| Some((land(i)?, texels[i])))
                        .collect::<Vec<_>>()
                });
                lists.into_iter().flatten().for_each(|(px, v)| apply(px, v));
            }
        }
        self.stats.scatter_writes += writes;
        self.stats.blend_ops += writes;
    }
}
