//! Content digests: every word of a response (texel words, cover,
//! boundary entries, ids, matrices, series, hull vertices) folded into
//! 128 bits, so two responses with equal digests are bit-for-bit equal
//! for every purpose of this harness. Responses are digested as they
//! arrive and dropped — retaining canvases for a later comparison would
//! distort `peak_rss_mb`.

use canvas_core::Canvas;
use canvas_engine::QueryResult;
use canvas_geom::Point;
use canvas_raster::simd::texel_words;
use canvas_raster::Viewport;

/// Five independent multiply-xor lanes over 64-bit words. Bulk data
/// goes in a texel (five words) or a block (four words) at a time so
/// the multiplies overlap — digesting every response is the harness's
/// main cost between steps.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest {
    lanes: [u64; 5],
    buf: [u64; 4],
    n: usize,
    len: u64,
}

impl Default for Digest {
    fn default() -> Self {
        Digest::new()
    }
}

const MUL: [u64; 5] = [
    0x9E37_79B9_7F4A_7C15,
    0xC2B2_AE3D_27D4_EB4F,
    0xD6E8_FEB8_6659_FD93,
    0xA076_1D64_78BD_642F,
    0xE703_7ED1_A0B4_28DB,
];

impl Digest {
    pub const fn new() -> Self {
        Digest {
            lanes: [
                0x243F_6A88_85A3_08D3,
                0x1319_8A2E_0370_7344,
                0xA409_3822_299F_31D0,
                0x082E_FA98_EC4E_6C89,
                0x4528_21E6_38D0_1377,
            ],
            buf: [0; 4],
            n: 0,
            len: 0,
        }
    }

    #[inline(always)]
    fn mix(&mut self, lane: usize, w: u64) {
        self.lanes[lane] = (self.lanes[lane].rotate_left(29) ^ w).wrapping_mul(MUL[lane]);
    }

    /// Pads and folds any words waiting in the buffer, so bulk calls
    /// start on a block boundary whatever came before.
    fn flush(&mut self) {
        if self.n != 0 {
            let pending = self.n as u64;
            self.buf[self.n..].fill(0);
            self.n = 0;
            for i in 0..4 {
                self.mix(i, self.buf[i]);
            }
            self.mix(4, pending);
        }
    }

    /// Four words at once, one per lane.
    #[inline(always)]
    pub fn block(&mut self, w: [u64; 4]) {
        self.flush();
        self.len += 4;
        for (i, w) in w.into_iter().enumerate() {
            self.mix(i, w);
        }
    }

    /// One texel's ten 32-bit words, one 64-bit pair per lane.
    #[inline(always)]
    pub fn texel(&mut self, w: &[u32; 10]) {
        self.flush();
        self.len += 5;
        for i in 0..5 {
            self.mix(i, u64::from(w[2 * i]) << 32 | u64::from(w[2 * i + 1]));
        }
    }

    /// One word; buffered until four make a block.
    #[inline(always)]
    pub fn word(&mut self, w: u64) {
        self.buf[self.n] = w;
        self.n += 1;
        if self.n == 4 {
            self.n = 0;
            self.block(self.buf);
        }
    }

    pub fn f64(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    pub fn point(&mut self, p: Point) {
        self.f64(p.x);
        self.f64(p.y);
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        self.word(bytes.len() as u64);
        for chunk in bytes.chunks(8) {
            let mut w = [0u8; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            self.word(u64::from_le_bytes(w));
        }
    }

    pub fn viewport(&mut self, vp: &Viewport) {
        self.point(vp.world().min);
        self.point(vp.world().max);
        self.word(u64::from(vp.width()) << 32 | u64::from(vp.height()));
    }

    pub fn merge(&mut self, other: Digest) {
        let d = other.finish();
        self.word((d >> 64) as u64);
        self.word(d as u64);
    }

    pub fn finish(self) -> u128 {
        let mut d = self;
        d.flush();
        // The word count makes padding (and trailing zeros) visible.
        let len = d.len;
        d.block([len, !len, len.rotate_left(32), 0x5851_F42D_4C95_7F2D]);
        // Cross the lanes so every output bit depends on all five.
        let a = (d.lanes[0] ^ d.lanes[2].rotate_left(31) ^ d.lanes[4]).wrapping_mul(MUL[1]);
        let b = (d.lanes[1] ^ d.lanes[3].rotate_left(17) ^ d.lanes[4].rotate_left(43))
            .wrapping_mul(MUL[0]);
        u128::from(a ^ (b >> 29)) << 64 | u128::from(b ^ (a >> 31))
    }
}

/// Digest of a canvas: viewport, every texel word, the cover plane and
/// all three boundary lists.
pub fn canvas_digest(c: &Canvas) -> u128 {
    let mut d = Digest::new();
    d.viewport(c.viewport());
    for t in c.texels().texels() {
        d.texel(texel_words(t));
    }
    let pack = |quad: &[u16]| {
        quad.iter()
            .enumerate()
            .fold(0u64, |w, (i, &v)| w | u64::from(v) << (16 * i))
    };
    let cover = c.cover().texels();
    let mut blocks = cover.chunks_exact(16);
    for b in &mut blocks {
        d.block([
            pack(&b[0..4]),
            pack(&b[4..8]),
            pack(&b[8..12]),
            pack(&b[12..16]),
        ]);
    }
    for quad in blocks.remainder().chunks(4) {
        d.word(pack(quad));
    }
    let b = c.boundary();
    d.word(b.num_points() as u64);
    for e in b.points() {
        d.block([
            u64::from(e.pixel) << 32 | u64::from(e.record),
            e.loc.x.to_bits(),
            e.loc.y.to_bits(),
            u64::from(e.weight.to_bits()),
        ]);
    }
    d.word(b.num_areas() as u64);
    for e in b.areas() {
        d.word(u64::from(e.pixel) << 32 | u64::from(e.record));
        d.word(u64::from(e.source));
    }
    d.word(b.num_lines() as u64);
    for e in b.lines() {
        d.word(u64::from(e.pixel) << 32 | u64::from(e.record));
        d.word(u64::from(e.source));
    }
    d.finish()
}

/// Digest of any response payload; the variant is part of the digest.
pub fn result_digest(r: &QueryResult) -> u128 {
    let mut d = Digest::new();
    match r {
        QueryResult::Canvas(c) => {
            d.word(1);
            let cd = canvas_digest(c);
            d.word((cd >> 64) as u64);
            d.word(cd as u64);
        }
        QueryResult::Ids(ids) => {
            d.word(2);
            d.word(ids.len() as u64);
            for &id in ids.iter() {
                d.word(u64::from(id));
            }
        }
        QueryResult::FlowMatrix(m) => {
            d.word(3);
            d.word(m.len() as u64);
            for row in m.iter() {
                d.word(row.len() as u64);
                for &v in row {
                    d.word(v);
                }
            }
        }
        QueryResult::Series(s) => {
            d.word(4);
            d.word(s.len() as u64);
            for &v in s.iter() {
                d.word(v);
            }
        }
        QueryResult::Hull(h) => {
            d.word(5);
            d.word(h.len() as u64);
            for &p in h.iter() {
                d.point(p);
            }
        }
    }
    d.finish()
}

/// Short printable form (the high 64 bits).
pub fn hex(d: u128) -> String {
    format!("{:016x}", (d >> 64) as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn one_flipped_bit_changes_the_digest() {
        let a = QueryResult::Ids(Arc::new(vec![1, 2, 3]));
        let b = QueryResult::Ids(Arc::new(vec![1, 2, 2]));
        let c = QueryResult::Series(Arc::new(vec![1, 2, 3]));
        assert_eq!(result_digest(&a), result_digest(&a.clone()));
        assert_ne!(result_digest(&a), result_digest(&b));
        assert_ne!(result_digest(&a), result_digest(&c), "variant is hashed");
    }

    #[test]
    fn trailing_zero_words_matter() {
        let mut a = Digest::new();
        a.word(7);
        let mut b = a;
        b.word(0);
        assert_ne!(a.finish(), b.finish());
    }
}
