//! Fixed-size framebuffer tiling for data-parallel rasterization.
//!
//! The GPU-authentic execution model of the paper's pipeline: the screen
//! is cut into fixed-size tiles, primitives are *binned* to the tiles
//! their bounding boxes overlap, and every tile is rasterized and shaded
//! independently — the software analogue of a tile-based GPU raster
//! backend, and the unit of CPU parallelism for
//! `Device::cpu_parallel(n)`. Tiles are processed in row-major tile
//! order when merging, so results are identical at any thread count.

/// Tile edge length in pixels. 64×64 texels keeps a tile's planes
/// (texel + cover + stamps) comfortably inside L1/L2 while leaving
/// enough tiles for parallelism at benchmark resolutions.
pub const TILE_SIZE: u32 = 64;

/// A rectangular pixel region `[x0, x0+w) × [y0, y0+h)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TileRect {
    pub x0: u32,
    pub y0: u32,
    pub w: u32,
    pub h: u32,
}

impl TileRect {
    /// The rect of a whole `w × h` frame, whose local indices are the
    /// frame's own row-major pixel indices.
    pub fn frame(w: u32, h: u32) -> Self {
        TileRect { x0: 0, y0: 0, w, h }
    }

    #[inline]
    pub fn contains(&self, x: u32, y: u32) -> bool {
        x >= self.x0 && x < self.x0 + self.w && y >= self.y0 && y < self.y0 + self.h
    }

    /// Row-major index within the tile's local buffer.
    #[inline]
    pub fn local_index(&self, x: u32, y: u32) -> usize {
        debug_assert!(self.contains(x, y));
        ((y - self.y0) as usize) * (self.w as usize) + (x - self.x0) as usize
    }

    /// True when the inclusive pixel range `(x0, y0)..=(x1, y1)` overlaps
    /// this tile — the per-primitive reject that keeps tile passes from
    /// walking geometry that cannot touch them.
    #[inline]
    pub fn intersects_range(&self, x0: u32, y0: u32, x1: u32, y1: u32) -> bool {
        x1 >= self.x0 && x0 < self.x0 + self.w && y1 >= self.y0 && y0 < self.y0 + self.h
    }

    /// Texels in the tile.
    #[inline]
    pub fn len(&self) -> usize {
        (self.w as usize) * (self.h as usize)
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.w == 0 || self.h == 0
    }
}

/// The tile decomposition of a framebuffer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TileGrid {
    width: u32,
    height: u32,
    tile: u32,
    tiles_x: u32,
    tiles_y: u32,
}

impl TileGrid {
    pub fn new(width: u32, height: u32) -> Self {
        Self::with_tile_size(width, height, TILE_SIZE)
    }

    pub fn with_tile_size(width: u32, height: u32, tile: u32) -> Self {
        assert!(tile > 0, "tile size must be positive");
        TileGrid {
            width,
            height,
            tile,
            tiles_x: width.div_ceil(tile),
            tiles_y: height.div_ceil(tile),
        }
    }

    #[inline]
    pub fn num_tiles(&self) -> usize {
        (self.tiles_x as usize) * (self.tiles_y as usize)
    }

    #[inline]
    pub fn tiles_x(&self) -> u32 {
        self.tiles_x
    }

    #[inline]
    pub fn tiles_y(&self) -> u32 {
        self.tiles_y
    }

    /// Pixel rect of tile `idx` (edge tiles are clipped to the
    /// framebuffer).
    pub fn rect(&self, idx: usize) -> TileRect {
        debug_assert!(idx < self.num_tiles());
        let tx = (idx as u32) % self.tiles_x;
        let ty = (idx as u32) / self.tiles_x;
        let x0 = tx * self.tile;
        let y0 = ty * self.tile;
        TileRect {
            x0,
            y0,
            w: self.tile.min(self.width - x0),
            h: self.tile.min(self.height - y0),
        }
    }

    /// Tile index containing pixel `(x, y)`.
    #[inline]
    pub fn tile_of(&self, x: u32, y: u32) -> usize {
        debug_assert!(x < self.width && y < self.height);
        ((y / self.tile) as usize) * (self.tiles_x as usize) + (x / self.tile) as usize
    }

    /// Tile indexes overlapping the inclusive pixel range
    /// `(x0, y0)..=(x1, y1)`, in row-major tile order.
    pub fn tiles_overlapping(
        &self,
        x0: u32,
        y0: u32,
        x1: u32,
        y1: u32,
    ) -> impl Iterator<Item = usize> + '_ {
        let tx0 = x0 / self.tile;
        let ty0 = y0 / self.tile;
        let tx1 = (x1 / self.tile).min(self.tiles_x.saturating_sub(1));
        let ty1 = (y1 / self.tile).min(self.tiles_y.saturating_sub(1));
        (ty0..=ty1).flat_map(move |ty| {
            (tx0..=tx1).map(move |tx| (ty as usize) * (self.tiles_x as usize) + tx as usize)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rects_tile_the_framebuffer_exactly() {
        let g = TileGrid::with_tile_size(100, 70, 32);
        assert_eq!(g.tiles_x(), 4);
        assert_eq!(g.tiles_y(), 3);
        let mut covered = vec![0u32; 100 * 70];
        for t in 0..g.num_tiles() {
            let r = g.rect(t);
            assert!(!r.is_empty());
            for y in r.y0..r.y0 + r.h {
                for x in r.x0..r.x0 + r.w {
                    covered[(y * 100 + x) as usize] += 1;
                    assert_eq!(g.tile_of(x, y), t);
                    assert!(r.contains(x, y));
                }
            }
        }
        assert!(covered.iter().all(|&c| c == 1), "tiles must partition");
    }

    #[test]
    fn edge_tiles_clip() {
        let g = TileGrid::with_tile_size(100, 70, 64);
        let last = g.rect(g.num_tiles() - 1);
        assert_eq!(
            last,
            TileRect {
                x0: 64,
                y0: 64,
                w: 36,
                h: 6
            }
        );
        assert_eq!(last.len(), 36 * 6);
    }

    #[test]
    fn range_overlap() {
        let r = TileRect {
            x0: 64,
            y0: 64,
            w: 64,
            h: 64,
        };
        assert!(r.intersects_range(0, 0, 64, 64)); // touches corner
        assert!(r.intersects_range(100, 100, 200, 200));
        assert!(!r.intersects_range(0, 0, 63, 200)); // left of tile
        assert!(!r.intersects_range(128, 0, 200, 200)); // right of tile
        assert!(!r.intersects_range(0, 0, 200, 63)); // above tile
    }

    #[test]
    fn local_index_row_major() {
        let r = TileRect {
            x0: 10,
            y0: 20,
            w: 4,
            h: 4,
        };
        assert_eq!(r.local_index(10, 20), 0);
        assert_eq!(r.local_index(13, 20), 3);
        assert_eq!(r.local_index(10, 21), 4);
        assert_eq!(r.len(), 16);
    }

    #[test]
    fn overlap_query_row_major_order() {
        let g = TileGrid::with_tile_size(256, 256, 64);
        let tiles: Vec<usize> = g.tiles_overlapping(60, 60, 130, 70).collect();
        // x spans tiles 0..=2, y spans tiles 0..=1.
        assert_eq!(tiles, vec![0, 1, 2, 4, 5, 6]);
        // Degenerate single-pixel query.
        let one: Vec<usize> = g.tiles_overlapping(65, 65, 65, 65).collect();
        assert_eq!(one, vec![5]);
    }

    #[test]
    fn small_framebuffer_single_tile() {
        let g = TileGrid::new(10, 10);
        assert_eq!(g.num_tiles(), 1);
        assert_eq!(
            g.rect(0),
            TileRect {
                x0: 0,
                y0: 0,
                w: 10,
                h: 10
            }
        );
    }
}
