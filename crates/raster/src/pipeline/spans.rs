//! Span passes: a polygon table drawn as row spans, and a chain of
//! built-in kernels run over span inputs (the [`RowSpans`] form of a
//! framebuffer; see that module's docs).

use super::Pipeline;
use super::{charge_polygon, draw_span, emit_polygon_fragments, for_each_stamped, Emit, TileCtx};
use crate::chain::MaskOutcome;
use crate::simd::{self, BlendTag, MaskTag, TexelWords, ValueTag};
use crate::spans::{BandRows, RowSpans, Span};
use crate::tile::{TileRect, TILE_SIZE};
use crate::viewport::Viewport;
use canvas_executor::WorkerPool;
use canvas_geom::polygon::Polygon;
use std::ops::Range;
use std::sync::Arc;

/// One kernel of a span chain ([`Pipeline::run_chain_spans`]).
pub enum SpanOp<'a, P> {
    /// `V[tag]`: the built-in transform.
    Map(ValueTag),
    /// `B[tag]` with an operand frame; covers merge by saturating
    /// addition (the canvas Blend contract).
    Blend(&'a RowSpans<P>, BlendTag),
    /// Coarse `M[tag]`: failing texels nulled, their cover zeroed.
    Mask(MaskTag),
}

/// What drawing one row band of a polygon table produced.
struct BandDraw<P> {
    rows: BandRows<P>,
    boundary: Vec<(u32, u32)>,
    fragments: u64,
    boundary_fragments: u64,
}

impl Pipeline {
    /// The polygon table draw of
    /// [`draw_polygons_tiled`](Self::draw_polygons_tiled) — the same
    /// fragments, blended in the same order, charged the same counters
    /// under the same `draw_polygons` span — with the frame returned as
    /// row spans instead of written into planes: the fold of the spans
    /// is the tiled draw's texel and cover planes, bit for bit, and the
    /// `(record, pixel)` boundary fragments are the same set, ordered by
    /// row band and then record. The shader sees only the record (a
    /// fragment's position cannot vary a span), and `blend` must be a
    /// pure function.
    ///
    /// Row bands of about equal height run on the pool. Each rasterizes
    /// the polygons whose tiles meet it with the tiled draw's emitter,
    /// clipped to the band and to the 64×64 tiles the polygon's bounding
    /// box overlaps (where a tiled draw bins it), and then sweeps
    /// each row: between consecutive fragment breakpoints the covering
    /// polygons are fixed, so one left fold over them in table order
    /// gives the texel every pixel of the segment would get, and the
    /// count of those covering it by an interior fragment its cover. No
    /// plane is written.
    pub fn draw_polygon_spans<P, S, B>(
        &mut self,
        vp: &Viewport,
        polys: &[Polygon],
        conservative: bool,
        shade: S,
        blend: B,
    ) -> (RowSpans<P>, Vec<(u32, u32)>)
    where
        P: TexelWords + Send + Sync,
        S: Fn(u32) -> P + Sync,
        B: Fn(P, P) -> P + Sync,
    {
        self.begin_pass();
        let _draw_span = draw_span("draw_polygons", polys.len());
        polys
            .iter()
            .for_each(|p| charge_polygon(&mut self.stats, p));
        let (w, h) = (vp.width(), vp.height());
        let tiles: Vec<Option<TileRect>> = (polys.iter())
            .map(|p| vp.pixel_range(&p.bbox()).map(|r| tile_hull(r, w, h)))
            .collect();
        let pool = Arc::clone(&self.pool);
        let bands = band_count(&pool, w, h);
        let band_rows = h.div_ceil(bands).max(1);
        let cx = TileCtx {
            vp,
            stamps: &self.stamps,
            be: simd::active_backend(),
        };
        let shade = &shade;
        let blend = &blend;
        let drawn = pool.run_indexed(h.div_ceil(band_rows) as usize, |b| {
            let y0 = b as u32 * band_rows;
            let clip = TileRect {
                x0: 0,
                y0,
                w,
                h: band_rows.min(h - y0),
            };
            draw_band(&cx, polys, &tiles, clip, conservative, shade, blend)
        });
        let mut boundary = Vec::with_capacity(drawn.iter().map(|d| d.boundary.len()).sum());
        let mut bands = Vec::with_capacity(drawn.len());
        for d in drawn {
            self.stats.fragments += d.fragments;
            self.stats.boundary_fragments += d.boundary_fragments;
            self.stats.blend_ops += d.fragments;
            boundary.extend(d.boundary);
            bands.push(d.rows);
        }
        (RowSpans::from_bands(w, h, bands), boundary)
    }

    /// Runs `ops` in order over `input`, reading each Blend's operand
    /// frame, and returns the result as spans with the pixels each Mask
    /// left null (as [`run_chain_texture`](Self::run_chain_texture)
    /// reports them). Every row is cut at every span end of its input
    /// and operands; over one segment all of them are constant, so the
    /// kernels run once per segment — the same SIMD row kernels, over a
    /// row of segment values — and give what they give every pixel of
    /// it. Row bands run on the pool. Charged as the same chain over
    /// planes is charged (one pass per op over every texel, two for a
    /// Blend, which merges covers), under the same `chain_texture` span.
    /// Panics when an operand's dimensions differ from the input's.
    pub fn run_chain_spans<P>(
        &mut self,
        input: &RowSpans<P>,
        ops: &[SpanOp<'_, P>],
    ) -> (RowSpans<P>, MaskOutcome)
    where
        P: TexelWords + Send + Sync,
    {
        let mut span = draw_span("chain_texture", 0);
        span.arg_u64("chain_ops", ops.len() as u64);
        let (w, h) = (input.width(), input.height());
        let operands: Vec<&RowSpans<P>> = (ops.iter())
            .filter_map(|op| match op {
                SpanOp::Blend(o, _) => Some(*o),
                _ => None,
            })
            .collect();
        for o in &operands {
            let same = (o.width(), o.height()) == (w, h);
            assert!(same, "chain blend requires same-size framebuffers");
        }
        let masks = ops
            .iter()
            .filter(|op| matches!(op, SpanOp::Mask(_)))
            .count();
        let be = simd::active_backend();
        let pool = Arc::clone(&self.pool);
        let band_rows = h.div_ceil(band_count(&pool, w, h)).max(1);
        let done = pool.run_indexed(h.div_ceil(band_rows) as usize, |b| {
            let y0 = b as u32 * band_rows;
            let mut band = ChainBand::new(masks, operands.len());
            for y in y0..(y0 + band_rows).min(h) {
                band.row(be, input, &operands, ops, y);
            }
            band
        });
        let mut masked = MaskOutcome::new(w, w as usize * h as usize, masks);
        let mut bands = Vec::with_capacity(done.len());
        for band in done {
            for (m, nulls) in band.nulls.into_iter().enumerate() {
                nulls.into_iter().for_each(|r| masked.set_range(m, r));
            }
            bands.push(band.rows);
        }
        let texels = w as u64 * h as u64;
        for op in ops {
            let planes = 1 + matches!(op, SpanOp::Blend(..)) as u64;
            self.stats.passes += planes;
            self.stats.fullscreen_texels += planes * texels;
            if matches!(op, SpanOp::Blend(..)) {
                self.stats.blend_ops += planes * texels;
            }
        }
        (RowSpans::from_bands(w, h, bands), masked)
    }
}

/// Row bands a span pass cuts a `w × h` frame into: two per pool thread
/// when the frame is worth the pool, else one.
fn band_count(pool: &WorkerPool, w: u32, h: u32) -> u32 {
    if pool.should_parallelize(w as usize * h as usize) {
        pool.threads() as u32 * 2
    } else {
        1
    }
}

/// The union of the 64×64 tiles meeting the inclusive pixel range
/// `(x0, y0, x1, y1)` of a `w × h` frame.
fn tile_hull((x0, y0, x1, y1): (u32, u32, u32, u32), w: u32, h: u32) -> TileRect {
    let lo = |v: u32| v / TILE_SIZE * TILE_SIZE;
    let hi = |v: u32, end: u32| ((v / TILE_SIZE + 1) * TILE_SIZE).min(end);
    let (tx, ty) = (lo(x0), lo(y0));
    TileRect {
        x0: tx,
        y0: ty,
        w: hi(x1, w) - tx,
        h: hi(y1, h) - ty,
    }
}

/// Draws the polygons whose tiles (`tiles`) meet `band`, a band of whole
/// rows, into that band's spans, each clipped to its tiles (see
/// [`Pipeline::draw_polygon_spans`]).
fn draw_band<P, S, B>(
    cx: &TileCtx<'_>,
    polys: &[Polygon],
    tiles: &[Option<TileRect>],
    band: TileRect,
    conservative: bool,
    shade: &S,
    blend: &B,
) -> BandDraw<P>
where
    P: TexelWords,
    S: Fn(u32) -> P,
    B: Fn(P, P) -> P,
{
    let (w, band_end) = (band.w, band.y0 + band.h);
    let clips: Vec<(u32, TileRect)> = (0..polys.len() as u32)
        .filter_map(|i| {
            let t = tiles[i as usize]?;
            let (y0, y1) = (t.y0.max(band.y0), (t.y0 + t.h).min(band_end));
            let clip = TileRect {
                y0,
                h: y1.checked_sub(y0)?,
                ..t
            };
            (!clip.is_empty()).then_some((i, clip))
        })
        .collect();
    let mut out = BandDraw {
        rows: BandRows::default(),
        boundary: Vec::new(),
        fragments: 0,
        boundary_fragments: 0,
    };
    // Every fragment as `(y, k, x, n)`: `n` interior pixels from `x` on,
    // or the boundary pixel `x` for `n == 0`; `k` indexes `clips`. A
    // polygon's stamps sit in the band's plane at its own clip's local
    // indices (a smaller rect), under a generation of its own.
    let mut frags: Vec<(u32, u32, u32, u32)> = Vec::new();
    for_each_stamped(cx, clips.len(), band, |k, stamps, gen| {
        let (record, clip) = clips[k];
        let poly = &polys[record as usize];
        emit_polygon_fragments(cx, poly, clip, stamps, gen, conservative, |e| match e {
            Emit::Boundary { x, y } => {
                frags.push((y, k as u32, x, 0));
                out.boundary.push((record, y * w + x));
                out.fragments += 1;
                out.boundary_fragments += 1;
            }
            Emit::Interior { y, x0, n } => {
                frags.push((y, k as u32, x0, n as u32));
                out.fragments += n as u64;
            }
        });
    });
    frags.sort_unstable();
    let values: Vec<P> = clips.iter().map(|&(record, _)| shade(record)).collect();
    let mut sweep = RowSweep::default();
    let mut rest = &frags[..];
    for y in band.y0..band_end {
        let n = rest.partition_point(|f| f.0 == y);
        let row;
        (row, rest) = rest.split_at(n);
        if row.is_empty() {
            out.rows.push_row(&[]);
        } else {
            out.rows.push_row(sweep.row(row, w, &values, blend));
        }
    }
    out
}

/// The buffers of one row's sweep, reused row to row.
struct RowSweep<P> {
    /// `(x, k, interior, starts)`, by column.
    events: Vec<(u32, u32, bool, bool)>,
    /// The polygons covering the current segment, by `k`, each with
    /// whether it covers it by an interior fragment.
    active: Vec<(u32, bool)>,
    segs: Vec<Span<P>>,
}

impl<P> Default for RowSweep<P> {
    fn default() -> Self {
        RowSweep {
            events: Vec::new(),
            active: Vec::new(),
            segs: Vec::new(),
        }
    }
}

impl<P: TexelWords> RowSweep<P> {
    /// The segments tiling a `w`-wide row whose fragments are `frags`
    /// (sorted by polygon, then column): each segment's texel the left
    /// fold of `blend` over its covering polygons' `values` in table
    /// order from the background, its cover the number covering it by
    /// an interior fragment (saturating, as the cover increment does).
    fn row(
        &mut self,
        frags: &[(u32, u32, u32, u32)],
        w: u32,
        values: &[P],
        blend: &impl Fn(P, P) -> P,
    ) -> &[Span<P>] {
        self.events.clear();
        // A polygon's runs of equal kind join, so a boundary traced along
        // the row is one event pair, not one per pixel.
        let mut open: Option<(u32, u32, u32, bool)> = None;
        let close = |events: &mut Vec<_>, (k, x0, x1, interior): (u32, u32, u32, bool)| {
            events.push((x0, k, interior, true));
            events.push((x1, k, interior, false));
        };
        for &(_, k, x, n) in frags {
            let (x1, interior) = if n == 0 {
                (x + 1, false)
            } else {
                (x + n, true)
            };
            match &mut open {
                Some(run) if run.0 == k && run.2 == x && run.3 == interior => run.2 = x1,
                _ => {
                    if let Some(run) = open.replace((k, x, x1, interior)) {
                        close(&mut self.events, run);
                    }
                }
            }
        }
        if let Some(run) = open {
            close(&mut self.events, run);
        }
        // Ends before starts at one column: a polygon's run may end where
        // its next run, of the other kind, starts.
        self.events.sort_unstable_by_key(|e| (e.0, e.3));
        self.segs.clear();
        self.active.clear();
        let (mut at, mut i) = (0, 0);
        while at < w {
            while let Some(&(_, k, interior, starts)) = self.events.get(i).filter(|e| e.0 == at) {
                let slot = self.active.partition_point(|a| a.0 < k);
                if starts {
                    self.active.insert(slot, (k, interior));
                } else {
                    self.active.remove(slot);
                }
                i += 1;
            }
            let next = self.events.get(i).map_or(w, |e| e.0);
            let mut texel = P::default();
            let mut cover = 0u16;
            for &(k, interior) in &self.active {
                texel = blend(texel, values[k as usize]);
                cover = cover.saturating_add(interior as u16);
            }
            self.segs.push(Span {
                x0: at,
                x1: next,
                texel,
                cover,
            });
            at = next;
        }
        &self.segs
    }
}

/// One row band of a span chain: its rows and, per Mask, the pixel
/// ranges left null.
struct ChainBand<P> {
    rows: BandRows<P>,
    nulls: Vec<Vec<Range<usize>>>,
    // Per-row buffers: the segments' ends, the segment values of the input
    // and of each Blend operand, and a Mask's null bits.
    ends: Vec<u32>,
    tex: Vec<P>,
    cov: Vec<u16>,
    operands: Vec<(Vec<P>, Vec<u16>)>,
    bits: Vec<u64>,
    segs: Vec<Span<P>>,
}

impl<P: TexelWords> ChainBand<P> {
    fn new(masks: usize, operands: usize) -> Self {
        ChainBand {
            rows: BandRows::default(),
            nulls: vec![Vec::new(); masks],
            ends: Vec::new(),
            tex: Vec::new(),
            cov: Vec::new(),
            operands: (0..operands).map(|_| (Vec::new(), Vec::new())).collect(),
            bits: Vec::new(),
            segs: Vec::new(),
        }
    }

    /// Runs the chain over row `y` (see [`Pipeline::run_chain_spans`]).
    fn row(
        &mut self,
        be: simd::Backend,
        input: &RowSpans<P>,
        operands: &[&RowSpans<P>],
        ops: &[SpanOp<'_, P>],
        y: u32,
    ) {
        let w = input.width();
        self.ends.clear();
        self.ends.push(w);
        for frame in std::iter::once(input).chain(operands.iter().copied()) {
            for s in frame.row(y) {
                self.ends.extend([s.x0, s.x1]);
            }
        }
        self.ends.sort_unstable();
        self.ends.dedup();
        self.ends.retain(|&x| x > 0);
        // Segment `i` is `[ends[i - 1], ends[i])`, the first from 0.
        let gather = |frame: &RowSpans<P>, tex: &mut Vec<P>, cov: &mut Vec<u16>, ends: &[u32]| {
            tex.clear();
            cov.clear();
            let mut cursor = frame.cursor(y);
            for x0 in std::iter::once(0)
                .chain(ends.iter().copied())
                .take(ends.len())
            {
                let (t, c) = cursor
                    .at(x0)
                    .map_or((P::default(), 0), |s| (s.texel, s.cover));
                tex.push(t);
                cov.push(c);
            }
        };
        gather(input, &mut self.tex, &mut self.cov, &self.ends);
        for (frame, (tex, cov)) in operands.iter().zip(&mut self.operands) {
            gather(frame, tex, cov, &self.ends);
        }
        let n = self.tex.len();
        let (mut blend, mut mask) = (0, 0);
        let row0 = y as usize * w as usize;
        for op in ops {
            match op {
                SpanOp::Map(tag) => simd::value_rows_with(be, *tag, &mut self.tex),
                SpanOp::Blend(_, tag) => {
                    let (tex, cov) = &self.operands[blend];
                    simd::blend_rows_with(be, *tag, &mut self.tex, tex);
                    simd::cover_add_rows_with(be, &mut self.cov, cov);
                    blend += 1;
                }
                SpanOp::Mask(tag) => {
                    let bits = &mut self.bits;
                    bits.clear();
                    bits.resize(n.div_ceil(64), 0);
                    simd::mask_rows_with(be, *tag, &mut self.tex, Some(&mut self.cov), bits);
                    let nulls = &mut self.nulls[mask];
                    let mut x0 = 0;
                    for (i, &x1) in self.ends.iter().enumerate() {
                        if bits[i / 64] >> (i % 64) & 1 == 1 {
                            let r = row0 + x0 as usize..row0 + x1 as usize;
                            match nulls.last_mut() {
                                Some(last) if last.end == r.start => last.end = r.end,
                                _ => nulls.push(r),
                            }
                        }
                        x0 = x1;
                    }
                    mask += 1;
                }
            }
        }
        self.segs.clear();
        let mut x0 = 0;
        for (i, &x1) in self.ends.iter().enumerate() {
            let (texel, cover) = (self.tex[i], self.cov[i]);
            self.segs.push(Span {
                x0,
                x1,
                texel,
                cover,
            });
            x0 = x1;
        }
        self.rows.push_row(&self.segs);
    }
}
