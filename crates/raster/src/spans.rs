//! Row spans: a framebuffer as, per pixel row, its runs of equal value.
//!
//! A polygon's canvas is piecewise constant along each row: a few
//! thousand runs where the planes hold a texel and a cover count per
//! pixel. A [`RowSpans`] keeps, per row, the sorted, disjoint spans
//! `[x0, x1)`, each with one texel and one cover count; a pixel outside
//! every span holds `P::default()` and cover 0. Rows index their spans
//! CSR style (`rows[y]..rows[y + 1]`), the layout of a cell-offset grid
//! index with the pixel row as the cell. Spans are maximal: neighbours
//! with the same texel words and cover are one span, and no span holds
//! the default value.
//!
//! The planes such a frame stands for are its fold ([`RowSpans::fold`]):
//! each span's value written over its pixels, row bands on the pool,
//! every texel written once. `Pipeline::draw_polygon_spans` draws a
//! polygon table straight into spans, and `Pipeline::run_chain_spans`
//! runs a chain of built-in kernels over span inputs once per segment.

use crate::simd::{texel_words, TexelWords};
use crate::texture::Texture;
use canvas_executor::WorkerPool;

/// One run `[x0, x1)` of a row, every pixel holding `texel` and `cover`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Span<P> {
    pub x0: u32,
    pub x1: u32,
    pub texel: P,
    pub cover: u16,
}

impl<P: TexelWords> Span<P> {
    /// Whether this span holds `(texel, cover)`, texel compared word by
    /// word (a NaN equals its own bits).
    #[inline]
    fn holds(&self, texel: &P, cover: u16) -> bool {
        self.cover == cover && texel_words(&self.texel) == texel_words(texel)
    }

    /// Whether this span holds the value of a pixel outside every span.
    #[inline]
    fn is_background(&self) -> bool {
        self.holds(&P::default(), 0)
    }
}

/// A `width × height` frame as row spans (see module docs).
#[derive(Clone, Debug, PartialEq)]
pub struct RowSpans<P> {
    width: u32,
    height: u32,
    /// `height + 1` offsets into `spans`.
    rows: Vec<u32>,
    spans: Vec<Span<P>>,
}

impl<P> RowSpans<P> {
    pub fn width(&self) -> u32 {
        self.width
    }

    pub fn height(&self) -> u32 {
        self.height
    }

    /// Every span, row-major.
    pub fn spans(&self) -> &[Span<P>] {
        &self.spans
    }

    /// The spans of row `y`, by ascending `x0`.
    pub fn row(&self, y: u32) -> &[Span<P>] {
        &self.spans[self.rows[y as usize] as usize..self.rows[y as usize + 1] as usize]
    }

    /// A cursor over row `y` for ascending columns.
    pub fn cursor(&self, y: u32) -> SpanCursor<'_, P> {
        SpanCursor {
            spans: self.row(y),
            next: 0,
        }
    }

    /// Joins row bands built top to bottom, each band's rows in order.
    pub(crate) fn from_bands(width: u32, height: u32, bands: Vec<BandRows<P>>) -> Self {
        let mut rows = Vec::with_capacity(height as usize + 1);
        rows.push(0);
        let mut spans = Vec::with_capacity(bands.iter().map(|b| b.spans.len()).sum());
        for band in bands {
            for count in band.counts {
                rows.push(rows[rows.len() - 1] + count);
            }
            spans.extend(band.spans);
        }
        assert_eq!(rows.len(), height as usize + 1, "bands cover every row");
        RowSpans {
            width,
            height,
            rows,
            spans,
        }
    }
}

impl<P: TexelWords + Send + Sync> RowSpans<P> {
    /// The texel and cover at pixel `(x, y)`.
    pub fn value_at(&self, x: u32, y: u32) -> (P, u16) {
        let row = self.row(y);
        let i = row.partition_point(|s| s.x1 <= x);
        match row.get(i).filter(|s| s.x0 <= x) {
            Some(s) => (s.texel, s.cover),
            None => (P::default(), 0),
        }
    }

    /// The texel and cover planes this frame stands for, each written
    /// once in row bands on `pool` (no zero fill first).
    pub fn fold(&self, pool: &WorkerPool) -> (Texture<P>, Texture<u16>) {
        let (w, h) = (self.width, self.height);
        let texels = Texture::from_row_runs(w, h, pool, |y, runs| {
            for s in self.row(y) {
                runs.fill_to(s.x0 as usize, P::default());
                runs.run((s.x1 - s.x0) as usize, s.texel);
            }
            runs.finish(P::default());
        });
        let cover = Texture::from_row_runs(w, h, pool, |y, runs| {
            for s in self.row(y) {
                runs.fill_to(s.x0 as usize, 0);
                runs.run((s.x1 - s.x0) as usize, s.cover);
            }
            runs.finish(0);
        });
        (texels, cover)
    }
}

/// Looks up the span under ascending columns of one row.
pub struct SpanCursor<'a, P> {
    spans: &'a [Span<P>],
    next: usize,
}

impl<'a, P> SpanCursor<'a, P> {
    /// The span holding column `x`, if any. Columns must not decrease
    /// between calls.
    #[inline]
    pub fn at(&mut self, x: u32) -> Option<&'a Span<P>> {
        while self.spans.get(self.next).is_some_and(|s| s.x1 <= x) {
            self.next += 1;
        }
        self.spans.get(self.next).filter(|s| s.x0 <= x)
    }
}

/// Consecutive rows of a frame built by one band: each row's span
/// count, and the spans row by row.
#[derive(Default)]
pub(crate) struct BandRows<P> {
    counts: Vec<u32>,
    spans: Vec<Span<P>>,
}

impl<P: TexelWords> BandRows<P> {
    /// Closes the next row with the segments `segs`, which tile it left
    /// to right: neighbours of equal value join, background leaves.
    pub(crate) fn push_row(&mut self, segs: &[Span<P>]) {
        let start = self.spans.len();
        for s in segs.iter().filter(|s| !s.is_background()) {
            match self.spans[start..].last_mut() {
                Some(last) if last.x1 == s.x0 && last.holds(&s.texel, s.cover) => last.x1 = s.x1,
                _ => self.spans.push(*s),
            }
        }
        self.counts.push((self.spans.len() - start) as u32);
    }
}
