//! Flat 2-D texel buffers — the discrete backing store for canvases.
//!
//! The paper's prototype keeps each canvas as an OpenGL texture whose
//! pixels store the object-information triple. [`Texture`] is the
//! software equivalent: a row-major `Vec` of texels with no per-pixel
//! allocation, so full-screen passes stream linearly through memory.

use canvas_executor::WorkerPool;
use std::mem::MaybeUninit;

/// A rectangular grid of texels of type `P`.
#[derive(Clone, Debug, PartialEq)]
pub struct Texture<P> {
    width: u32,
    height: u32,
    texels: Vec<P>,
}

/// One row of a texture being written left to right in runs (see
/// [`Texture::from_row_runs`]).
pub struct RowRuns<'a, P> {
    row: &'a mut [MaybeUninit<P>],
    at: usize,
}

impl<P: Copy> RowRuns<'_, P> {
    /// Writes the next `len` texels as `value`.
    #[inline]
    pub fn run(&mut self, len: usize, value: P) {
        let end = self.at + len;
        for slot in &mut self.row[self.at..end] {
            slot.write(value);
        }
        self.at = end;
    }

    /// Writes `value` up to (not including) column `x`.
    #[inline]
    pub fn fill_to(&mut self, x: usize, value: P) {
        self.run(x - self.at, value);
    }

    /// Writes `value` to the end of the row.
    #[inline]
    pub fn finish(&mut self, value: P) {
        self.fill_to(self.row.len(), value);
    }
}

impl<P: Copy + Send> Texture<P> {
    /// A texture written once, row by row: `row(y, runs)` writes row `y`
    /// left to right and must write all of it. Row bands run on `pool`
    /// (above its minimum work), and the texels are never written
    /// before `row` writes them — no zero fill. Panics if a row is left
    /// short.
    pub fn from_row_runs(
        width: u32,
        height: u32,
        pool: &WorkerPool,
        row: impl Fn(u32, &mut RowRuns<'_, P>) + Sync,
    ) -> Self {
        let (w, n) = (width as usize, width as usize * height as usize);
        let mut texels: Vec<P> = Vec::with_capacity(n);
        pool.for_each_band1(w, &mut texels.spare_capacity_mut()[..n], |y0, band| {
            for (j, slots) in band.chunks_mut(w).enumerate() {
                let mut runs = RowRuns { row: slots, at: 0 };
                row((y0 + j) as u32, &mut runs);
                assert_eq!(runs.at, w, "row {} written in full", y0 + j);
            }
        });
        // SAFETY: every row of the first `n` slots was written in full
        // (asserted above; a short row panics before this point).
        unsafe { texels.set_len(n) };
        Texture {
            width,
            height,
            texels,
        }
    }
}

impl<P: Copy + Default> Texture<P> {
    /// Creates a texture filled with `P::default()` (the "null" texel —
    /// the paper's ∅ value).
    pub fn new(width: u32, height: u32) -> Self {
        Texture {
            width,
            height,
            texels: vec![P::default(); (width as usize) * (height as usize)],
        }
    }

    /// Creates a texture filled with a specific texel.
    pub fn filled(width: u32, height: u32, value: P) -> Self {
        Texture {
            width,
            height,
            texels: vec![value; (width as usize) * (height as usize)],
        }
    }

    #[inline]
    pub fn width(&self) -> u32 {
        self.width
    }

    #[inline]
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Total texel count.
    #[inline]
    pub fn len(&self) -> usize {
        self.texels.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.texels.is_empty()
    }

    /// Row-major index of `(x, y)`; debug-asserted in bounds.
    #[inline]
    pub fn index(&self, x: u32, y: u32) -> usize {
        debug_assert!(x < self.width && y < self.height);
        (y as usize) * (self.width as usize) + (x as usize)
    }

    /// Inverse of [`index`](Self::index).
    #[inline]
    pub fn coords(&self, index: usize) -> (u32, u32) {
        let w = self.width as usize;
        ((index % w) as u32, (index / w) as u32)
    }

    #[inline]
    pub fn get(&self, x: u32, y: u32) -> P {
        self.texels[self.index(x, y)]
    }

    /// Checked access; `None` outside the texture.
    #[inline]
    pub fn try_get(&self, x: i64, y: i64) -> Option<P> {
        if x < 0 || y < 0 || x >= self.width as i64 || y >= self.height as i64 {
            None
        } else {
            Some(self.get(x as u32, y as u32))
        }
    }

    #[inline]
    pub fn set(&mut self, x: u32, y: u32, value: P) {
        let i = self.index(x, y);
        self.texels[i] = value;
    }

    /// Read-modify-write of a single texel.
    #[inline]
    pub fn update(&mut self, x: u32, y: u32, f: impl FnOnce(P) -> P) {
        let i = self.index(x, y);
        self.texels[i] = f(self.texels[i]);
    }

    /// Raw texel slice (row-major).
    pub fn texels(&self) -> &[P] {
        &self.texels
    }

    pub fn texels_mut(&mut self) -> &mut [P] {
        &mut self.texels
    }

    /// Clears every texel back to the default (glClear).
    pub fn clear(&mut self) {
        self.texels.fill(P::default());
    }

    /// Iterator over `(x, y, texel)` in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, u32, P)> + '_ {
        let w = self.width as usize;
        self.texels
            .iter()
            .enumerate()
            .map(move |(i, t)| ((i % w) as u32, (i / w) as u32, *t))
    }

    /// Approximate GPU memory footprint in bytes (used by the transfer
    /// cost model).
    pub fn size_bytes(&self) -> usize {
        self.texels.len() * std::mem::size_of::<P>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let mut t: Texture<u32> = Texture::new(4, 3);
        assert_eq!(t.width(), 4);
        assert_eq!(t.height(), 3);
        assert_eq!(t.len(), 12);
        assert_eq!(t.get(2, 1), 0);
        t.set(2, 1, 42);
        assert_eq!(t.get(2, 1), 42);
    }

    #[test]
    fn index_roundtrip() {
        let t: Texture<u8> = Texture::new(7, 5);
        for y in 0..5 {
            for x in 0..7 {
                let i = t.index(x, y);
                assert_eq!(t.coords(i), (x, y));
            }
        }
    }

    #[test]
    fn try_get_bounds() {
        let t: Texture<u32> = Texture::filled(2, 2, 9);
        assert_eq!(t.try_get(0, 0), Some(9));
        assert_eq!(t.try_get(1, 1), Some(9));
        assert_eq!(t.try_get(2, 0), None);
        assert_eq!(t.try_get(0, 2), None);
        assert_eq!(t.try_get(-1, 0), None);
    }

    #[test]
    fn update_and_clear() {
        let mut t: Texture<u32> = Texture::new(2, 2);
        t.update(0, 0, |v| v + 5);
        t.update(0, 0, |v| v * 2);
        assert_eq!(t.get(0, 0), 10);
        t.clear();
        assert_eq!(t.get(0, 0), 0);
    }

    #[test]
    fn iteration_order_row_major() {
        let mut t: Texture<u32> = Texture::new(2, 2);
        t.set(0, 0, 1);
        t.set(1, 0, 2);
        t.set(0, 1, 3);
        t.set(1, 1, 4);
        let vals: Vec<u32> = t.iter().map(|(_, _, v)| v).collect();
        assert_eq!(vals, vec![1, 2, 3, 4]);
        let coords: Vec<(u32, u32)> = t.iter().map(|(x, y, _)| (x, y)).collect();
        assert_eq!(coords, vec![(0, 0), (1, 0), (0, 1), (1, 1)]);
    }

    #[test]
    fn size_bytes() {
        let t: Texture<u64> = Texture::new(8, 8);
        assert_eq!(t.size_bytes(), 64 * 8);
    }
}
