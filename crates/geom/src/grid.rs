//! Uniform grid spatial index, CSR-packed.
//!
//! The classic grid file referenced by the paper's related work (\[40\] in
//! the paper), and the workspace's one spatial *filter* index: every
//! join (canvas and baseline) and the pruned RasterJoin build one with
//! [`GridIndex::over`] from their own inputs, then refine the
//! candidates exactly — the grid-filter-then-refine design of Zhang &
//! You's multi-core geospatial joins.
//!
//! The cell directory is a flat **CSR layout** — one `entries` array of
//! record ids plus a `cell_offsets` array of length `cells + 1` — built
//! in two passes (count, then scatter) by [`GridIndexBuilder`]. Compared
//! to the previous `Vec<Vec<u32>>`-of-cells layout this removes one heap
//! allocation and one pointer chase per cell, and queries walk entries
//! as contiguous slices, which is the same layout the paper's follow-up
//! engine uses for its GPU-resident grid.
//!
//! Box queries visit every overlapping cell; an item registered in
//! several cells appears once per cell, so multi-cell queries deduplicate
//! through a caller-reusable [`VisitedMask`] (generation-stamped, O(1)
//! reset, no per-query allocation).

use crate::bbox::BBox;
use crate::point::Point;

/// The shared extent/dims/cell math of a uniform grid — **one**
/// definition used by both [`GridIndexBuilder`] (build time) and
/// [`GridIndex`] (query time), so the two can never disagree about
/// which cell a coordinate falls in (they used to carry independent
/// copies of this arithmetic, a standing drift hazard).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GridGeometry {
    extent: BBox,
    nx: usize,
    ny: usize,
    cell_w: f64,
    cell_h: f64,
}

impl GridGeometry {
    /// Geometry of an `nx × ny` grid over `extent`.
    ///
    /// Panics if the extent is empty or a dimension is zero — grids are
    /// built by callers that guarantee a valid extent.
    pub fn new(extent: BBox, nx: usize, ny: usize) -> Self {
        assert!(!extent.is_empty(), "grid extent must be non-empty");
        assert!(nx > 0 && ny > 0, "grid must have at least one cell");
        GridGeometry {
            extent,
            nx,
            ny,
            cell_w: extent.width() / nx as f64,
            cell_h: extent.height() / ny as f64,
        }
    }

    pub fn extent(&self) -> &BBox {
        &self.extent
    }

    pub fn dims(&self) -> (usize, usize) {
        (self.nx, self.ny)
    }

    pub fn num_cells(&self) -> usize {
        self.nx * self.ny
    }

    /// Cell coordinates of a point, clamped into the grid.
    pub fn cell_of(&self, p: Point) -> (usize, usize) {
        let cx = ((p.x - self.extent.min.x) / self.cell_w) as isize;
        let cy = ((p.y - self.extent.min.y) / self.cell_h) as isize;
        (
            cx.clamp(0, self.nx as isize - 1) as usize,
            cy.clamp(0, self.ny as isize - 1) as usize,
        )
    }

    /// Flat row-major index of a cell.
    pub fn cell_index(&self, cx: usize, cy: usize) -> usize {
        debug_assert!(cx < self.nx && cy < self.ny);
        cy * self.nx + cx
    }

    /// Inclusive cell range covered by a box (clipped to the extent);
    /// `None` when the box misses the grid entirely.
    pub fn cell_range(&self, b: &BBox) -> Option<(usize, usize, usize, usize)> {
        let clipped = b.intersection(&self.extent);
        if clipped.is_empty() {
            return None;
        }
        let (x0, y0) = self.cell_of(clipped.min);
        let (x1, y1) = self.cell_of(clipped.max);
        Some((x0, y0, x1, y1))
    }
}

/// Accumulates insertions, then packs them into a [`GridIndex`] with a
/// two-pass counting-sort build.
#[derive(Clone, Debug)]
pub struct GridIndexBuilder {
    geom: GridGeometry,
    /// `(id, x0, y0, x1, y1)` inclusive cell ranges, in insertion order.
    items: Vec<(u32, u32, u32, u32, u32)>,
}

impl GridIndexBuilder {
    /// Builder for an `nx × ny` grid over `extent`.
    ///
    /// Panics if the extent is empty or a dimension is zero — the index
    /// is built by internal callers that guarantee a valid extent.
    pub fn new(extent: BBox, nx: usize, ny: usize) -> Self {
        GridIndexBuilder {
            geom: GridGeometry::new(extent, nx, ny),
            items: Vec::new(),
        }
    }

    /// Builder sized for roughly `occupancy` items per cell assuming
    /// a uniform distribution of `n` items. Both dimensions use ceiling
    /// division so the realized cell count never falls below the request
    /// (floor division used to under-size tall or wide extents badly —
    /// e.g. a 1:9 aspect could produce a third of the requested cells).
    pub fn with_target_occupancy(extent: BBox, n: usize, occupancy: usize) -> Self {
        let cells = (n / occupancy.max(1)).max(1);
        let aspect = (extent.width() / extent.height().max(1e-12)).max(1e-6);
        let ny = ((cells as f64 / aspect).sqrt().ceil() as usize).max(1);
        let nx = cells.div_ceil(ny).max(1);
        GridIndexBuilder::new(extent, nx, ny)
    }

    /// The shared build/query cell geometry (moved into the built
    /// [`GridIndex`] unchanged).
    pub fn geometry(&self) -> &GridGeometry {
        &self.geom
    }

    /// Registers an item covering `bbox` (every overlapping cell).
    pub fn insert(&mut self, id: u32, bbox: &BBox) {
        let Some((x0, y0, x1, y1)) = self.geom.cell_range(bbox) else {
            return;
        };
        self.items
            .push((id, x0 as u32, y0 as u32, x1 as u32, y1 as u32));
    }

    /// Registers a point item (exactly one cell).
    pub fn insert_point(&mut self, id: u32, p: Point) {
        if !self.geom.extent().contains(p) {
            return;
        }
        let (cx, cy) = self.geom.cell_of(p);
        self.items
            .push((id, cx as u32, cy as u32, cx as u32, cy as u32));
    }

    /// Packs the insertions into the flat CSR index.
    ///
    /// Pass 1 counts entries per cell into what becomes `cell_offsets`;
    /// pass 2 scatters ids into `entries`. Within a cell, entries keep
    /// insertion order.
    pub fn build(self) -> GridIndex {
        let geom = self.geom;
        let cells = geom.num_cells();
        let mut cell_offsets = vec![0u32; cells + 1];
        for &(_, x0, y0, x1, y1) in &self.items {
            for cy in y0..=y1 {
                for cx in x0..=x1 {
                    cell_offsets[geom.cell_index(cx as usize, cy as usize) + 1] += 1;
                }
            }
        }
        for i in 0..cells {
            cell_offsets[i + 1] += cell_offsets[i];
        }
        let mut cursor: Vec<u32> = cell_offsets[..cells].to_vec();
        let mut entries = vec![0u32; cell_offsets[cells] as usize];
        for &(id, x0, y0, x1, y1) in &self.items {
            for cy in y0..=y1 {
                for cx in x0..=x1 {
                    let cell = geom.cell_index(cx as usize, cy as usize);
                    entries[cursor[cell] as usize] = id;
                    cursor[cell] += 1;
                }
            }
        }
        GridIndex {
            geom,
            cell_offsets,
            entries,
            len: self.items.len(),
        }
    }
}

/// A uniform grid over a fixed extent indexing items by bounding box,
/// CSR-packed (see module docs). Built via [`GridIndexBuilder`], whose
/// [`GridGeometry`] it inherits — query-time cell math is the same
/// object that placed the entries.
#[derive(Clone, Debug)]
pub struct GridIndex {
    geom: GridGeometry,
    /// `cells + 1` prefix sums into `entries`.
    cell_offsets: Vec<u32>,
    /// Record ids, grouped by cell, insertion-ordered within a cell.
    entries: Vec<u32>,
    len: usize,
}

/// Items per cell [`GridIndex::over`] sizes its grid for.
pub const TARGET_OCCUPANCY: usize = 4;

impl GridIndex {
    /// The filter index over `boxes`, item `i` getting id `i` (a point
    /// is its degenerate box). The extent is the boxes' union — the
    /// unit box when there are none — so every item lands in the cells
    /// its box covers, and the grid holds about [`TARGET_OCCUPANCY`]
    /// items per cell.
    pub fn over(boxes: impl Iterator<Item = BBox> + Clone) -> Self {
        let (extent, n) = boxes
            .clone()
            .fold((BBox::EMPTY, 0), |(e, n), b| (e.union(&b), n + 1));
        // A tiny pad keeps a single item's (or one row's) zero-size
        // extent from degenerating the cell aspect.
        let extent = extent.inflated(1e-9);
        let extent = if extent.is_empty() {
            BBox::new(Point::new(0.0, 0.0), Point::new(1.0, 1.0))
        } else {
            extent
        };
        let mut b = GridIndexBuilder::with_target_occupancy(extent, n, TARGET_OCCUPANCY);
        for (id, bb) in boxes.enumerate() {
            b.insert(id as u32, &bb);
        }
        b.build()
    }

    /// The shared build/query cell geometry.
    pub fn geometry(&self) -> &GridGeometry {
        &self.geom
    }

    pub fn extent(&self) -> &BBox {
        self.geom.extent()
    }

    pub fn dims(&self) -> (usize, usize) {
        self.geom.dims()
    }

    /// Number of inserted items (not entries; items spanning k cells still
    /// count once).
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total CSR entries (items counted once per covered cell).
    pub fn num_entries(&self) -> usize {
        self.entries.len()
    }

    /// CSR slice of one cell.
    #[inline]
    fn cell_entries(&self, cx: usize, cy: usize) -> &[u32] {
        let cell = self.geom.cell_index(cx, cy);
        let lo = self.cell_offsets[cell] as usize;
        let hi = self.cell_offsets[cell + 1] as usize;
        &self.entries[lo..hi]
    }

    /// Candidate ids whose cells overlap the query box, **with
    /// duplicates** when an item spans several visited cells. This is the
    /// raw filter stream; callers either tolerate duplicates, dedup via
    /// [`query_into`](Self::query_into) with a [`VisitedMask`], or use
    /// the allocating [`query`](Self::query) convenience.
    pub fn query_iter<'a>(&'a self, b: &BBox) -> impl Iterator<Item = u32> + 'a {
        let range = self.geom.cell_range(b);
        range
            .into_iter()
            .flat_map(move |(x0, y0, x1, y1)| {
                (y0..=y1).flat_map(move |cy| (x0..=x1).map(move |cx| (cx, cy)))
            })
            .flat_map(move |(cx, cy)| self.cell_entries(cx, cy).iter().copied())
    }

    /// Deduplicated candidates of a box query, appended to `out` in
    /// first-seen (cell-scan) order. The [`VisitedMask`] is reused across
    /// queries — no allocation on the hot path once it has grown to the
    /// id universe.
    pub fn query_into(&self, b: &BBox, visited: &mut VisitedMask, out: &mut Vec<u32>) {
        visited.next_generation();
        for id in self.query_iter(b) {
            if visited.insert(id) {
                out.push(id);
            }
        }
    }

    /// Candidate ids whose cells overlap the query box (deduplicated,
    /// sorted). Convenience wrapper over the iterator path for callers
    /// off the hot path (and tests); allocates its result.
    pub fn query(&self, b: &BBox) -> Vec<u32> {
        let mut out: Vec<u32> = self.query_iter(b).collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Candidate ids in the cell containing `p` — a contiguous CSR slice,
    /// duplicate-free by construction (an item registers once per cell).
    pub fn query_point(&self, p: Point) -> &[u32] {
        if !self.geom.extent().contains(p) {
            return &[];
        }
        let (cx, cy) = self.geom.cell_of(p);
        self.cell_entries(cx, cy)
    }
}

/// Generation-stamped membership mask for deduplicating multi-cell query
/// results. `clear` is O(1) (generation bump); storage grows to the
/// largest id ever seen and is then reused allocation-free.
#[derive(Clone, Debug)]
pub struct VisitedMask {
    stamps: Vec<u32>,
    generation: u32,
}

impl Default for VisitedMask {
    fn default() -> Self {
        // Stamps are zero-initialized, so the live generation must start
        // at 1 or a fresh mask would report every id as already present.
        VisitedMask {
            stamps: Vec::new(),
            generation: 1,
        }
    }
}

impl VisitedMask {
    pub fn new() -> Self {
        VisitedMask::default()
    }

    /// Starts a new query: previously inserted ids read as absent again.
    pub fn next_generation(&mut self) {
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            self.stamps.fill(0);
            self.generation = 1;
        }
    }

    /// Marks `id`; returns true when it was not yet present this
    /// generation.
    #[inline]
    pub fn insert(&mut self, id: u32) -> bool {
        let idx = id as usize;
        if idx >= self.stamps.len() {
            self.stamps.resize(idx + 1, 0);
        }
        if self.stamps[idx] == self.generation {
            false
        } else {
            self.stamps[idx] = self.generation;
            true
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn extent() -> BBox {
        BBox::new(Point::new(0.0, 0.0), Point::new(10.0, 10.0))
    }

    /// An `nx × ny` grid over [`extent`] holding `points`.
    fn point_grid(nx: usize, ny: usize, points: &[(u32, Point)]) -> GridIndex {
        let mut b = GridIndexBuilder::new(extent(), nx, ny);
        for &(id, p) in points {
            b.insert_point(id, p);
        }
        b.build()
    }

    /// An `nx × ny` grid over [`extent`] holding one box item.
    fn box_grid(nx: usize, ny: usize, id: u32, bb: &BBox) -> GridIndex {
        let mut b = GridIndexBuilder::new(extent(), nx, ny);
        b.insert(id, bb);
        b.build()
    }

    #[test]
    fn point_insert_and_query() {
        let g = point_grid(
            10,
            10,
            &[
                (1, Point::new(0.5, 0.5)),
                (2, Point::new(9.5, 9.5)),
                (3, Point::new(5.0, 5.0)),
            ],
        );
        assert_eq!(g.len(), 3);
        let hits = g.query(&BBox::new(Point::new(0.0, 0.0), Point::new(1.0, 1.0)));
        assert!(hits.contains(&1));
        assert!(!hits.contains(&2));
    }

    #[test]
    fn box_item_spans_cells() {
        let bb = BBox::new(Point::new(2.0, 2.0), Point::new(7.0, 3.0));
        let g = box_grid(10, 10, 7, &bb);
        // The item occupies one entry per covered cell.
        assert_eq!(g.len(), 1);
        assert!(g.num_entries() >= 6);
        // Query far corner: no hit.
        assert!(g
            .query(&BBox::new(Point::new(9.0, 9.0), Point::new(10.0, 10.0)))
            .is_empty());
        // Query overlapping any covered cell: deduplicated single hit.
        let hits = g.query(&BBox::new(Point::new(2.5, 2.5), Point::new(6.5, 2.6)));
        assert_eq!(hits, vec![7]);
    }

    #[test]
    fn query_iter_yields_per_cell_duplicates() {
        let bb = BBox::new(Point::new(1.0, 1.0), Point::new(9.0, 9.0));
        let g = box_grid(4, 4, 3, &bb);
        let raw: Vec<u32> = g.query_iter(&extent()).collect();
        assert!(raw.len() > 1, "item spans many cells");
        assert!(raw.iter().all(|&id| id == 3));
    }

    #[test]
    fn fresh_mask_inserts_report_new() {
        // Regression: generation used to start at 0 — the same value as
        // zero-initialized stamps — so direct `insert` calls on a fresh
        // mask all returned false.
        let mut m = VisitedMask::new();
        assert!(m.insert(5));
        assert!(!m.insert(5));
        assert!(m.insert(0));
        m.next_generation();
        assert!(m.insert(5));
    }

    #[test]
    fn query_into_dedups_without_sorting() {
        let mut b = GridIndexBuilder::new(extent(), 4, 4);
        b.insert(9, &BBox::new(Point::new(1.0, 1.0), Point::new(9.0, 9.0)));
        b.insert_point(4, Point::new(0.5, 0.5));
        let g = b.build();
        let mut visited = VisitedMask::new();
        let mut out = Vec::new();
        g.query_into(&extent(), &mut visited, &mut out);
        out.sort_unstable();
        assert_eq!(out, vec![4, 9]);
        // Mask reuse: a second query starts clean.
        let mut out2 = Vec::new();
        g.query_into(&extent(), &mut visited, &mut out2);
        out2.sort_unstable();
        assert_eq!(out2, vec![4, 9]);
    }

    #[test]
    fn out_of_extent_point_ignored() {
        let g = point_grid(4, 4, &[(1, Point::new(50.0, 50.0))]);
        assert_eq!(g.len(), 0);
        assert!(g.query(&extent()).is_empty());
    }

    #[test]
    fn boundary_points_clamp_into_grid() {
        let g = point_grid(4, 4, &[(1, Point::new(10.0, 10.0))]);
        assert_eq!(g.len(), 1);
        let hits = g.query(&BBox::new(Point::new(9.0, 9.0), Point::new(10.0, 10.0)));
        assert_eq!(hits, vec![1]);
    }

    #[test]
    fn query_point_cell() {
        let g = point_grid(
            2,
            2,
            &[(1, Point::new(1.0, 1.0)), (2, Point::new(9.0, 9.0))],
        );
        assert_eq!(g.query_point(Point::new(2.0, 2.0)), &[1]);
        assert_eq!(g.query_point(Point::new(8.0, 8.0)), &[2]);
        assert!(g.query_point(Point::new(-1.0, 0.0)).is_empty());
    }

    #[test]
    fn csr_matches_per_cell_reference() {
        // Pseudo-random boxes; CSR query must agree with a brute-force
        // scan at every probe.
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let boxes: Vec<BBox> = (0..200)
            .map(|_| {
                let x = next() * 9.0;
                let y = next() * 9.0;
                BBox::new(
                    Point::new(x, y),
                    Point::new(x + next() * 2.0, y + next() * 2.0),
                )
            })
            .collect();
        let g = GridIndex::over(boxes.iter().copied());
        assert_eq!(g.len(), 200);
        let mut visited = VisitedMask::new();
        let mut out = Vec::new();
        for qi in 0..50 {
            let x = next() * 8.0;
            let y = next() * 8.0;
            let q = BBox::new(Point::new(x, y), Point::new(x + 2.5, y + 2.5));
            // Reference: every box whose covered cell range intersects the
            // query's cell range (the filter-step contract).
            let sorted = g.query(&q);
            out.clear();
            g.query_into(&q, &mut visited, &mut out);
            let mut deduped = out.clone();
            deduped.sort_unstable();
            assert_eq!(deduped, sorted, "query {qi} disagrees");
            // Filter never misses a truly overlapping box.
            for (i, b) in boxes.iter().enumerate() {
                if !b.intersection(&q).is_empty() {
                    assert!(
                        sorted.contains(&(i as u32)),
                        "query {qi} missed overlapping box {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn builder_and_index_share_identical_geometry() {
        // The whole point of GridGeometry: the cell math that placed an
        // entry is the same object the query uses, so a point inserted
        // at build time is always found by a query at the same spot.
        let b = GridIndexBuilder::new(extent(), 7, 5);
        let build_geom = *b.geometry();
        let g = b.build();
        assert_eq!(build_geom, *g.geometry());
        // Probe awkward coordinates (cell edges, extent corners): the
        // shared cell_of must agree with where query_point looks.
        for p in [
            Point::new(0.0, 0.0),
            Point::new(10.0, 10.0),
            Point::new(10.0 / 7.0, 10.0 / 5.0),
            Point::new(3.0 * 10.0 / 7.0, 2.0 * 10.0 / 5.0),
            Point::new(9.999999, 0.000001),
        ] {
            let mut bb = GridIndexBuilder::new(extent(), 7, 5);
            bb.insert_point(42, p);
            let gg = bb.build();
            assert_eq!(gg.query_point(p), &[42], "probe {p:?}");
        }
    }

    #[test]
    fn occupancy_sizing() {
        let b = GridIndexBuilder::with_target_occupancy(extent(), 10_000, 16);
        let g = b.build();
        let (nx, ny) = g.dims();
        assert!(nx * ny >= 300, "got {nx}x{ny}");
    }

    #[test]
    fn occupancy_sizing_tall_extent_not_undersized() {
        // Regression: with floor division `nx = (cells / ny).max(1)`, a
        // tall 1:100 extent asking for 1024 cells got ny = 320 → nx = 3,
        // i.e. 960 cells — and far worse at more extreme aspects, where
        // nx collapsed to 1. Ceiling division keeps nx * ny >= cells.
        for (w, h) in [(1.0, 100.0), (100.0, 1.0), (0.1, 100.0), (3.0, 7.0)] {
            let e = BBox::new(Point::new(0.0, 0.0), Point::new(w, h));
            for n in [1_000usize, 10_000, 100_000] {
                for per_cell in [1usize, 4, 16] {
                    let want = (n / per_cell).max(1);
                    let g = GridIndexBuilder::with_target_occupancy(e, n, per_cell).build();
                    let (nx, ny) = g.dims();
                    assert!(
                        nx * ny >= want,
                        "{w}x{h} n={n} per_cell={per_cell}: {nx}x{ny} < {want} cells"
                    );
                    // ...without over-shooting by more than one extra row
                    // or column of cells.
                    assert!(
                        nx * ny <= want + nx + ny,
                        "{w}x{h} n={n}: {nx}x{ny} overshoots {want}"
                    );
                }
            }
        }
    }

    #[test]
    fn over_spans_its_items_at_the_target_occupancy() {
        let pts: Vec<Point> = (0..400)
            .map(|i| Point::new(-50.0 + (i % 20) as f64, 3.0 + (i / 20) as f64 * 0.5))
            .collect();
        let g = GridIndex::over(pts.iter().map(|&p| BBox::new(p, p)));
        assert_eq!(g.len(), pts.len());
        let (nx, ny) = g.dims();
        assert!(nx * ny >= pts.len() / TARGET_OCCUPANCY, "{nx}x{ny}");
        // Every item, extreme corners included, is found in its own cell.
        for (i, &p) in pts.iter().enumerate() {
            assert!(g.query_point(p).contains(&(i as u32)), "point {i} at {p:?}");
        }
    }

    #[test]
    fn over_no_items_or_one_point() {
        // No items: the unit box, one cell, nothing found.
        let g = GridIndex::over(std::iter::empty());
        assert!(g.is_empty());
        assert_eq!(
            *g.extent(),
            BBox::new(Point::new(0.0, 0.0), Point::new(1.0, 1.0))
        );
        assert!(g.query(&extent()).is_empty());
        // One point: a zero-size union, padded into a valid grid.
        let p = Point::new(3.0, 3.0);
        let g = GridIndex::over(std::iter::once(BBox::new(p, p)));
        assert_eq!(g.query_point(p), &[0]);
        assert_eq!(g.query(&extent()), vec![0]);
    }
}
