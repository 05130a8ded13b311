//! The hybrid boundary index: exact vector data behind boundary pixels.
//!
//! The paper (Section 5) keeps the canvas exact despite discretization by
//! storing, alongside the texture: (a) the actual location of points,
//! and (b) for every conservative-rasterized boundary pixel of a polygon
//! or line, "a simple index ... that maps each boundary pixel to the
//! actual vector representation". The mask operator consults this index
//! to run exact tests only where pixels straddle a boundary.
//!
//! Each entry kind is kept in [`SortedRun`]s: a contiguous array ordered
//! by pixel (ties in input order) plus an `h + 1` row-offset table, CSR
//! style. A run is **sorted by construction** — it is only ever built
//! by a stable counting scatter, a two-way merge of runs, or an
//! order-preserving filter — so there is no unsorted state and no sort
//! call. Lookups search one pixel row; operators that visit every pixel
//! walk a row with a [`RowCursor`] instead of searching at all. Sources
//! of vector geometry are shared via `Arc` so blends do not copy
//! polygons.
//!
//! Areas and lines are one run each. Points — the only kind anything
//! appends to — are a [`RunStack`]: up to [`MAX_LEVELS`] runs behind
//! `Arc`, oldest first, so a live refresh stacks its delta on its
//! predecessor's levels (shared by pointer) instead of copying them.

use std::sync::Arc;

use canvas_geom::Point;
use canvas_raster::WorkerPool;

/// An index entry: anything filed under a pixel.
pub trait Entry: Copy + Default {
    fn pixel(&self) -> u32;
}

/// An exact 0-primitive behind a pixel: record id, true location, and
/// the record's attribute weight (used by SUM-style aggregations).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PointEntry {
    pub pixel: u32,
    pub record: u32,
    pub loc: Point,
    pub weight: f32,
}

/// A 2-primitive whose *boundary* touches a pixel; `source`/`record`
/// resolve to the vector polygon through the owning canvas.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AreaEntry {
    pub pixel: u32,
    pub source: u16,
    pub record: u32,
}

/// A 1-primitive touching a pixel (lines are all-boundary coverage).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LineEntry {
    pub pixel: u32,
    pub source: u16,
    pub record: u32,
}

impl Entry for PointEntry {
    #[inline]
    fn pixel(&self) -> u32 {
        self.pixel
    }
}

impl Entry for AreaEntry {
    #[inline]
    fn pixel(&self) -> u32 {
        self.pixel
    }
}

impl Entry for LineEntry {
    #[inline]
    fn pixel(&self) -> u32 {
        self.pixel
    }
}

/// Entries of one kind over a `width × height` pixel grid, ordered by
/// pixel with ties in input order, and indexed by row:
/// `rows[y]..rows[y + 1]` are the entries of pixel row `y`.
#[derive(Clone, Debug, PartialEq)]
pub struct SortedRun<T> {
    entries: Vec<T>,
    /// `height + 1` offsets into `entries`.
    rows: Vec<u32>,
    width: u32,
}

impl<T: Entry> SortedRun<T> {
    /// The empty run over a `width × height` grid.
    pub fn new(width: u32, height: u32) -> Self {
        SortedRun {
            entries: Vec::new(),
            rows: vec![0; height as usize + 1],
            width,
        }
    }

    /// Builds a run from `n` inputs in arbitrary pixel order: input `i`
    /// is filed under `pixel(i)` (`None` leaves it out) as
    /// `make(i, pixel)`. A stable counting sort by pixel, so the result
    /// equals "push in input order, stable sort by pixel" without a
    /// comparison sort over the whole array, and the array is allocated
    /// once at its final length:
    ///
    /// 1. each input band (a contiguous range of inputs) resolves its
    ///    pixels and counts its entries per row;
    /// 2. a prefix sum gives each row its slots and, within them, each
    ///    input band its own, in band order;
    /// 3. each input band places its entries in its slots, in input
    ///    order;
    /// 4. row bands of about equal entry counts order each of their rows
    ///    by column.
    ///
    /// Bands run on `pool` when `n` reaches its minimum work and inline
    /// otherwise (one band each). Every entry lands in the slot its row
    /// and its input position give it, so the run is the same at any
    /// band count.
    pub fn scatter(
        pool: &WorkerPool,
        width: u32,
        height: u32,
        n: usize,
        pixel: impl Fn(usize) -> Option<u32> + Sync,
        make: impl Fn(usize, u32) -> T + Sync,
    ) -> Self
    where
        T: Send,
    {
        let h = height as usize;
        let bands = if pool.should_parallelize(n) {
            pool.threads()
        } else {
            1
        };
        let band_len = n.div_ceil(bands).max(1);
        let inputs: Vec<_> = (0..n)
            .step_by(band_len)
            .map(|lo| lo..(lo + band_len).min(n))
            .collect();
        let found = pool.run_claimed(inputs, |_, inputs| {
            let mut counts = vec![0u32; h];
            let mut keyed = Vec::with_capacity(inputs.len());
            for i in inputs {
                if let Some(p) = pixel(i) {
                    counts[(p / width) as usize] += 1;
                    keyed.push((i as u32, p));
                }
            }
            (counts, keyed)
        });
        let mut rows = Vec::with_capacity(h + 1);
        rows.push(0);
        let mut total = 0u32;
        for y in 0..h {
            total += found.iter().map(|(counts, _)| counts[y]).sum::<u32>();
            rows.push(total);
        }
        let mut entries = vec![T::default(); total as usize];
        let mut slots: Vec<Vec<&mut [T]>> = found.iter().map(|_| Vec::with_capacity(h)).collect();
        let mut rest = entries.as_mut_slice();
        for y in 0..h {
            for ((counts, _), band_slots) in found.iter().zip(&mut slots) {
                let slot;
                (slot, rest) = std::mem::take(&mut rest).split_at_mut(counts[y] as usize);
                band_slots.push(slot);
            }
        }
        pool.run_claimed(slots, |b, mut band_slots| {
            let mut next = vec![0usize; h];
            for &(i, p) in &found[b].1 {
                let y = (p / width) as usize;
                band_slots[y][next[y]] = make(i as usize, p);
                next[y] += 1;
            }
        });
        drop(found);
        let mut row_bands = Vec::with_capacity(bands);
        let mut rest = entries.as_mut_slice();
        let mut y0 = 0;
        for b in 1..=bands {
            // The first row whose entries reach this band's share.
            let share = (total as usize * b).div_ceil(bands) as u32;
            let y1 = match b == bands {
                true => h,
                false => rows.partition_point(|&r| r < share).clamp(y0, h),
            };
            let band;
            (band, rest) = std::mem::take(&mut rest).split_at_mut((rows[y1] - rows[y0]) as usize);
            row_bands.push((y0..y1, band));
            y0 = y1;
        }
        let rows_ref = &rows;
        pool.run_claimed(row_bands, |_, (band_rows, band)| {
            let base = rows_ref[band_rows.start];
            let mut by_column = ColumnOrder::new(width);
            for y in band_rows {
                let row = (rows_ref[y] - base) as usize..(rows_ref[y + 1] - base) as usize;
                by_column.order(&mut band[row], y as u32 * width);
            }
        });
        debug_assert_eq!(entries.capacity(), entries.len());
        let run = SortedRun {
            entries,
            rows,
            width,
        };
        run.check_invariants();
        run
    }

    /// Wraps entries that are already in run order (pixel ascending,
    /// ties in the order wanted), indexing their rows.
    pub fn from_sorted(width: u32, height: u32, entries: Vec<T>) -> Self {
        let rows = index_rows(&entries, width, height);
        let run = SortedRun {
            entries,
            rows,
            width,
        };
        run.check_invariants();
        run
    }

    /// Two-way merge: every entry of `self` and `map(e)` for every
    /// entry of `other`, ordered by pixel with `self`'s entries first on
    /// ties — what a stable sort of `self ++ other` gives. `map` must
    /// keep the pixel. One pass over both runs, written once at exact
    /// capacity, a block at a time: the end of each run's next block
    /// (the entries that go before the other run's head) is found by
    /// `block_len` and the block moved with one copy, so a merge costs
    /// O(blocks · log block) compares rather than one per entry.
    pub fn merge(&self, other: &Self, map: impl Fn(&T) -> T) -> Self {
        assert_eq!(
            (self.width, self.rows.len()),
            (other.width, other.rows.len()),
            "merged runs must cover the same pixel grid"
        );
        let (a, b) = (&self.entries, &other.entries);
        let mut entries = Vec::with_capacity(a.len() + b.len());
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            let head = b[j].pixel();
            let end = i + block_len(&a[i..], |e| e.pixel() <= head);
            entries.extend_from_slice(&a[i..end]);
            i = end;
            if i == a.len() {
                break;
            }
            let head = a[i].pixel();
            let end = j + block_len(&b[j..], |e| e.pixel() < head);
            entries.extend(b[j..end].iter().map(&map));
            j = end;
        }
        entries.extend_from_slice(&a[i..]);
        entries.extend(b[j..].iter().map(&map));
        debug_assert_eq!(entries.capacity(), entries.len());
        let rows = self
            .rows
            .iter()
            .zip(&other.rows)
            .map(|(x, y)| x + y)
            .collect();
        let run = SortedRun {
            entries,
            rows,
            width: self.width,
        };
        run.check_invariants();
        run
    }

    /// The entries `keep` accepts, as a new run (order preserved).
    pub fn filtered(&self, keep: impl FnMut(&T) -> bool) -> Self {
        let entries = self.entries.iter().copied().filter(keep).collect();
        SortedRun::from_sorted(self.width, self.height(), entries)
    }

    /// Drops the entries `keep` rejects, in place (order preserved).
    pub fn retain(&mut self, keep: impl FnMut(&T) -> bool) {
        self.entries.retain(keep);
        self.rows = index_rows(&self.entries, self.width, self.height());
        self.check_invariants();
    }

    pub fn width(&self) -> u32 {
        self.width
    }

    pub fn height(&self) -> u32 {
        (self.rows.len() - 1) as u32
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// All entries, in run order.
    pub fn as_slice(&self) -> &[T] {
        &self.entries
    }

    /// The entries of pixel row `y` (empty beyond the grid).
    pub fn row(&self, y: u32) -> &[T] {
        match self.rows.get(y as usize..y as usize + 2) {
            Some(r) => &self.entries[r[0] as usize..r[1] as usize],
            None => &[],
        }
    }

    /// The entries of pixel rows `rows` (clamped to the grid): one
    /// contiguous slice of the run.
    pub fn row_span(&self, rows: std::ops::Range<u32>) -> &[T] {
        let last = self.rows.len() - 1;
        let lo = self.rows[(rows.start as usize).min(last)] as usize;
        let hi = self.rows[(rows.end as usize).min(last)] as usize;
        &self.entries[lo..hi.max(lo)]
    }

    /// The entries behind one pixel: a search of that pixel's row only.
    pub fn at(&self, pixel: u32) -> &[T] {
        let row = self.row(pixel / self.width);
        let lo = row.partition_point(|e| e.pixel() < pixel);
        let len = row[lo..].partition_point(|e| e.pixel() == pixel);
        &row[lo..lo + len]
    }

    /// A cursor over row `y` for visiting its pixels left to right.
    pub fn cursor(&self, y: u32) -> RowCursor<'_, T> {
        RowCursor { rest: self.row(y) }
    }

    /// Debug builds: panics unless the run is ordered by pixel and its
    /// row table brackets exactly the entries of each row. Every
    /// constructor and mutator ends here, so the debug test suite
    /// polices the invariant; release builds compile it out.
    pub fn check_invariants(&self) {
        if !cfg!(debug_assertions) {
            return;
        }
        assert_eq!(self.rows[0], 0, "row table starts at 0");
        assert_eq!(
            *self.rows.last().expect("h + 1 offsets") as usize,
            self.entries.len(),
            "row table ends at the entry count"
        );
        for y in 0..self.height() {
            let (lo, hi) = (self.rows[y as usize], self.rows[y as usize + 1]);
            assert!(lo <= hi, "row offsets ascend");
            let row = &self.entries[lo as usize..hi as usize];
            assert!(
                row.iter().all(|e| e.pixel() / self.width == y),
                "row {y} holds an entry of another row"
            );
            assert!(
                row.windows(2).all(|w| w[0].pixel() <= w[1].pixel()),
                "row {y} is not ordered by pixel"
            );
        }
    }
}

/// Offsets of each pixel row's entries within a pixel-ordered array.
fn index_rows<T: Entry>(entries: &[T], width: u32, height: u32) -> Vec<u32> {
    let mut rows = Vec::with_capacity(height as usize + 1);
    let mut start = 0usize;
    rows.push(0);
    for y in 0..height as u64 {
        let row_end = (y + 1) * width as u64;
        start += entries[start..].partition_point(|e| (e.pixel() as u64) < row_end);
        rows.push(start as u32);
    }
    rows
}

/// Length of the prefix of `s` whose entries satisfy `pred` (true on a
/// prefix, false after it): an exponential probe from the front, then a
/// binary search inside the last step — O(log k) for a k-entry prefix,
/// one compare when it is empty.
fn block_len<T>(s: &[T], pred: impl Fn(&T) -> bool) -> usize {
    let (mut len, mut step) = (0, 1);
    while len + step <= s.len() && pred(&s[len + step - 1]) {
        len += step;
        step *= 2;
    }
    let end = (len + step).min(s.len());
    len + s[len..end].partition_point(pred)
}

/// Stable in-row ordering by column for the scatter build: a counting
/// pass over a copy of the row when the row is dense enough to repay
/// `O(width)` bookkeeping, the standard stable sort when it is sparse.
struct ColumnOrder<T> {
    width: u32,
    slots: Vec<u32>,
    copy: Vec<T>,
}

impl<T: Entry> ColumnOrder<T> {
    fn new(width: u32) -> Self {
        ColumnOrder {
            width,
            slots: Vec::new(),
            copy: Vec::new(),
        }
    }

    /// Orders `row` (all of whose pixels start at `base`) by pixel.
    fn order(&mut self, row: &mut [T], base: u32) {
        if row.len() < 2 {
            return;
        }
        if row.len() * 8 < self.width as usize {
            row.sort_by_key(|e| e.pixel());
            return;
        }
        self.slots.clear();
        self.slots.resize(self.width as usize + 1, 0);
        for e in row.iter() {
            self.slots[(e.pixel() - base) as usize + 1] += 1;
        }
        let mut total = 0;
        for s in self.slots.iter_mut() {
            total += *s;
            *s = total;
        }
        self.copy.clear();
        self.copy.extend_from_slice(row);
        for e in &self.copy {
            let slot = &mut self.slots[(e.pixel() - base) as usize];
            row[*slot as usize] = *e;
            *slot += 1;
        }
    }
}

/// Walks one pixel row of a run from left to right: [`at`](Self::at)
/// must be asked for ascending pixels, and the whole walk is linear in
/// the row's entries.
pub struct RowCursor<'a, T> {
    rest: &'a [T],
}

impl<'a, T: Entry> RowCursor<'a, T> {
    /// The entries behind `pixel`; entries of earlier pixels are
    /// passed over for good.
    pub fn at(&mut self, pixel: u32) -> &'a [T] {
        let skip = self
            .rest
            .iter()
            .position(|e| e.pixel() >= pixel)
            .unwrap_or(self.rest.len());
        let here = &self.rest[skip..];
        let len = here
            .iter()
            .position(|e| e.pixel() != pixel)
            .unwrap_or(here.len());
        self.rest = &here[len..];
        &here[..len]
    }
}

/// Most levels a [`RunStack`] holds: one base and up to two deltas.
pub const MAX_LEVELS: usize = 3;

/// Compaction keeps each level at least this many times the size of
/// the level stacked on it.
const SIZE_RATIO: usize = 4;

/// Entries of one kind as a short stack of shared [`SortedRun`] levels,
/// oldest first. Its logical sequence is the levels merged by pixel with
/// an older level's entries first on ties — every entry of a newer level
/// came later in the input — so at any one pixel the entries are simply
/// the levels' slices in level order.
///
/// Levels are immutable behind `Arc`: cloning a stack shares them, and
/// every mutator writes a new level instead of writing through a shared
/// one. [`push`](Self::push) stacks a run and compacts (see there);
/// every other mutator leaves a single level.
#[derive(Clone, Debug)]
pub struct RunStack<T> {
    /// `1..=MAX_LEVELS` runs over one pixel grid.
    levels: Vec<Arc<SortedRun<T>>>,
}

impl<T: Entry> RunStack<T> {
    /// The one-level stack of `run`.
    pub fn new(run: SortedRun<T>) -> Self {
        RunStack {
            levels: vec![Arc::new(run)],
        }
    }

    /// The levels, oldest first.
    pub fn levels(&self) -> &[Arc<SortedRun<T>>] {
        &self.levels
    }

    pub fn width(&self) -> u32 {
        self.levels[0].width()
    }

    pub fn height(&self) -> u32 {
        self.levels[0].height()
    }

    pub fn len(&self) -> usize {
        self.levels.iter().map(|l| l.len()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.levels.iter().all(|l| l.is_empty())
    }

    /// Every entry in logical order: a slice walk over one level, a
    /// k-way merge by pixel over several.
    pub fn iter(&self) -> StackIter<'_, T> {
        StackIter {
            heads: std::array::from_fn(|i| self.levels.get(i).map_or(&[][..], |l| l.as_slice())),
            levels: self.levels.len(),
        }
    }

    /// The entries of pixel rows `rows` in logical order — the part of
    /// [`iter`](Self::iter) that falls on those rows.
    pub fn iter_rows(&self, rows: std::ops::Range<u32>) -> StackIter<'_, T> {
        StackIter {
            heads: std::array::from_fn(|i| {
                self.levels
                    .get(i)
                    .map_or(&[][..], |l| l.row_span(rows.clone()))
            }),
            levels: self.levels.len(),
        }
    }

    /// The entries behind one pixel: each level's, in level order.
    pub fn at(&self, pixel: u32) -> StackAt<'_, T> {
        StackAt {
            parts: std::array::from_fn(|i| self.levels.get(i).map_or(&[][..], |l| l.at(pixel))),
            levels: self.levels.len(),
        }
    }

    /// A cursor over row `y` for visiting its pixels left to right.
    pub fn cursor(&self, y: u32) -> StackCursor<'_, T> {
        StackCursor {
            rows: std::array::from_fn(|i| match self.levels.get(i) {
                Some(l) => l.cursor(y),
                None => RowCursor { rest: &[] },
            }),
            levels: self.levels.len(),
        }
    }

    /// Stacks `delta` — entries that come after every entry already
    /// here — as the newest level, then compacts: while the stack holds
    /// more than [`MAX_LEVELS`] levels, or the newest level is more than
    /// a quarter (`SIZE_RATIO`) of the one under it, those two are merged
    /// (older first) into one new level. Levels the compaction does not
    /// reach stay shared with every other stack holding them. Returns
    /// the entries the compaction rewrote (0 when it did not run).
    pub fn push(&mut self, delta: SortedRun<T>) -> usize {
        if delta.is_empty() {
            return 0;
        }
        self.levels.push(Arc::new(delta));
        let mut rewritten = 0;
        while let [.., older, newer] = &self.levels[..] {
            if self.levels.len() <= MAX_LEVELS && older.len() >= SIZE_RATIO * newer.len() {
                break;
            }
            let merged = older.merge(newer, |e| *e);
            rewritten += merged.len();
            self.levels.truncate(self.levels.len() - 2);
            self.levels.push(Arc::new(merged));
        }
        rewritten
    }

    /// The one-level stack of this stack's entries followed by
    /// `other`'s (ties: all of this stack's first).
    pub fn merged(&self, other: &Self) -> Self {
        let mut runs = self.levels.iter().chain(&other.levels);
        let first = runs.next().expect("a stack has a level");
        let second = runs.next().expect("two stacks have two levels");
        let run = runs.fold(first.merge(second, |e| *e), |acc, l| acc.merge(l, |e| *e));
        RunStack::new(run)
    }

    /// Drops the entries `keep` rejects (order preserved): in place when
    /// this stack is one level nobody shares, into one new level
    /// otherwise.
    pub fn retain(&mut self, mut keep: impl FnMut(&T) -> bool) {
        if let [only] = &mut self.levels[..] {
            if let Some(run) = Arc::get_mut(only) {
                run.retain(keep);
                return;
            }
        }
        let entries = self.iter().copied().filter(|e| keep(e)).collect();
        *self = RunStack::new(SortedRun::from_sorted(self.width(), self.height(), entries));
    }

    /// Debug builds: checks every level (see
    /// [`SortedRun::check_invariants`]) and the stack's shape.
    pub fn check_invariants(&self) {
        if !cfg!(debug_assertions) {
            return;
        }
        assert!(
            (1..=MAX_LEVELS).contains(&self.levels.len()),
            "a stack holds 1..={MAX_LEVELS} levels, not {}",
            self.levels.len()
        );
        for level in &self.levels {
            assert_eq!(
                (level.width(), level.height()),
                (self.width(), self.height()),
                "one pixel grid"
            );
            level.check_invariants();
        }
    }
}

/// Stacks are equal when their logical entry sequences are, however
/// they are split into levels.
impl<T: Entry + PartialEq> PartialEq for RunStack<T> {
    fn eq(&self, other: &Self) -> bool {
        (self.width(), self.height()) == (other.width(), other.height())
            && self.len() == other.len()
            && self.iter().eq(other.iter())
    }
}

/// The entries of a [`RunStack`] in logical order (see
/// [`RunStack::iter`]).
#[derive(Clone)]
pub struct StackIter<'a, T> {
    /// Each level's entries not yet yielded.
    heads: [&'a [T]; MAX_LEVELS],
    levels: usize,
}

impl<'a, T: Entry> Iterator for StackIter<'a, T> {
    type Item = &'a T;

    #[inline]
    fn next(&mut self) -> Option<&'a T> {
        // The level whose head has the lowest pixel; the oldest on ties.
        let mut pick = 0;
        for i in 1..self.levels {
            if let Some(e) = self.heads[i].first() {
                if self.heads[pick]
                    .first()
                    .is_none_or(|p| e.pixel() < p.pixel())
                {
                    pick = i;
                }
            }
        }
        let (first, rest) = self.heads[pick].split_first()?;
        self.heads[pick] = rest;
        Some(first)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.heads.iter().map(|h| h.len()).sum();
        (n, Some(n))
    }
}

impl<T: Entry> ExactSizeIterator for StackIter<'_, T> {}

/// The entries behind one pixel of a [`RunStack`]: one slice per level,
/// oldest first — at one pixel, level order is entry order, so reading
/// them takes no compare.
#[derive(Clone, Copy, Debug)]
pub struct StackAt<'a, T> {
    parts: [&'a [T]; MAX_LEVELS],
    levels: usize,
}

impl<'a, T: Copy> StackAt<'a, T> {
    /// The per-level slices, oldest first.
    pub fn slices(&self) -> &[&'a [T]] {
        &self.parts[..self.levels]
    }

    pub fn is_empty(&self) -> bool {
        self.slices().iter().all(|s| s.is_empty())
    }

    pub fn to_vec(&self) -> Vec<T> {
        self.slices().concat()
    }
}

impl<'a, T> IntoIterator for StackAt<'a, T> {
    type Item = &'a T;
    type IntoIter = std::iter::Flatten<std::iter::Take<std::array::IntoIter<&'a [T], MAX_LEVELS>>>;

    fn into_iter(self) -> Self::IntoIter {
        self.parts.into_iter().take(self.levels).flatten()
    }
}

/// Walks one pixel row of a [`RunStack`] from left to right, one
/// [`RowCursor`] per level.
pub struct StackCursor<'a, T> {
    rows: [RowCursor<'a, T>; MAX_LEVELS],
    levels: usize,
}

impl<'a, T: Entry> StackCursor<'a, T> {
    /// The entries behind `pixel` (asked for in ascending order).
    #[inline]
    pub fn at(&mut self, pixel: u32) -> StackAt<'a, T> {
        let mut parts = [&[][..]; MAX_LEVELS];
        for (part, row) in parts.iter_mut().zip(&mut self.rows[..self.levels]) {
            *part = row.at(pixel);
        }
        StackAt {
            parts,
            levels: self.levels,
        }
    }
}

/// The boundary entries of one canvas: a [`RunStack`] of points and one
/// [`SortedRun`] each of areas and lines.
#[derive(Clone, Debug, PartialEq)]
pub struct BoundaryIndex {
    points: RunStack<PointEntry>,
    areas: SortedRun<AreaEntry>,
    lines: SortedRun<LineEntry>,
}

impl BoundaryIndex {
    /// The empty index of a `width × height` canvas.
    pub fn new(width: u32, height: u32) -> Self {
        BoundaryIndex {
            points: RunStack::new(SortedRun::new(width, height)),
            areas: SortedRun::new(width, height),
            lines: SortedRun::new(width, height),
        }
    }

    /// An index holding exactly these runs (all over one pixel grid);
    /// the points are one level.
    pub fn from_runs(
        points: SortedRun<PointEntry>,
        areas: SortedRun<AreaEntry>,
        lines: SortedRun<LineEntry>,
    ) -> Self {
        let grid = (points.width(), points.height());
        assert_eq!(grid, (areas.width(), areas.height()), "one pixel grid");
        assert_eq!(grid, (lines.width(), lines.height()), "one pixel grid");
        BoundaryIndex {
            points: RunStack::new(points),
            areas,
            lines,
        }
    }

    pub fn width(&self) -> u32 {
        self.points.width()
    }

    pub fn height(&self) -> u32 {
        self.points.height()
    }

    pub fn num_points(&self) -> usize {
        self.points.len()
    }

    pub fn num_areas(&self) -> usize {
        self.areas.len()
    }

    pub fn num_lines(&self) -> usize {
        self.lines.len()
    }

    /// Exact point entries behind a pixel.
    pub fn points_at(&self, pixel: u32) -> StackAt<'_, PointEntry> {
        self.points.at(pixel)
    }

    /// Boundary-area entries behind a pixel.
    pub fn areas_at(&self, pixel: u32) -> &[AreaEntry] {
        self.areas.at(pixel)
    }

    /// Line entries behind a pixel.
    pub fn lines_at(&self, pixel: u32) -> &[LineEntry] {
        self.lines.at(pixel)
    }

    /// All point entries (pixel-sorted).
    pub fn points(&self) -> StackIter<'_, PointEntry> {
        self.points.iter()
    }

    /// The point entries of pixel rows `rows` (pixel-sorted).
    pub fn points_in_rows(&self, rows: std::ops::Range<u32>) -> StackIter<'_, PointEntry> {
        self.points.iter_rows(rows)
    }

    /// The levels of the point stack, oldest first (see [`RunStack`]).
    pub fn point_levels(&self) -> &[Arc<SortedRun<PointEntry>>] {
        self.points.levels()
    }

    /// Stacks `delta` — point entries that come after every one already
    /// here — on the point stack (see [`RunStack::push`]). Returns the
    /// entries its compaction rewrote.
    pub fn push_points(&mut self, delta: SortedRun<PointEntry>) -> usize {
        self.points.push(delta)
    }

    /// All area entries (pixel-sorted).
    pub fn areas(&self) -> &[AreaEntry] {
        self.areas.as_slice()
    }

    /// All line entries (pixel-sorted).
    pub fn lines(&self) -> &[LineEntry] {
        self.lines.as_slice()
    }

    /// Left-to-right cursor over the point entries of pixel row `y`.
    pub fn points_cursor(&self, y: u32) -> StackCursor<'_, PointEntry> {
        self.points.cursor(y)
    }

    /// Left-to-right cursor over the area entries of pixel row `y`.
    pub fn areas_cursor(&self, y: u32) -> RowCursor<'_, AreaEntry> {
        self.areas.cursor(y)
    }

    /// The index of a blend: this index's entries with `other`'s merged
    /// in, `other`'s source indexes remapped through `area_remap` /
    /// `line_remap` (the blended canvas concatenates the operands'
    /// geometry source tables). One linear merge per kind (per level,
    /// for layered points), written once.
    pub fn merged(&self, other: &BoundaryIndex, area_remap: &[u16], line_remap: &[u16]) -> Self {
        BoundaryIndex {
            points: self.points.merged(&other.points),
            areas: self.areas.merge(&other.areas, remap_area(area_remap)),
            lines: self.lines.merge(&other.lines, remap_line(line_remap)),
        }
    }

    /// [`merged`](Self::merged) into an index its canvas owns: a kind
    /// `other` has no entries of is left as it is, not rewritten.
    pub fn merge_in(&mut self, other: &BoundaryIndex, area_remap: &[u16], line_remap: &[u16]) {
        if !other.points.is_empty() {
            self.points = self.points.merged(&other.points);
        }
        if !other.areas.is_empty() {
            self.areas = self.areas.merge(&other.areas, remap_area(area_remap));
        }
        if !other.lines.is_empty() {
            self.lines = self.lines.merge(&other.lines, remap_line(line_remap));
        }
    }

    /// The index a mask leaves behind, built without copying this one:
    /// `points` (the mask's survivors, already in run order) become the
    /// point run, and areas and lines keep the entries on pixels
    /// `keep_pixel` accepts.
    pub fn masked(&self, points: Vec<PointEntry>, keep_pixel: impl Fn(u32) -> bool) -> Self {
        BoundaryIndex {
            points: RunStack::new(SortedRun::from_sorted(self.width(), self.height(), points)),
            areas: self.areas.filtered(|e| keep_pixel(e.pixel)),
            lines: self.lines.filtered(|e| keep_pixel(e.pixel)),
        }
    }

    /// Keeps only the point entries satisfying the predicate (a query's
    /// exact post-filter over a result canvas).
    pub fn retain_points(&mut self, f: impl FnMut(&PointEntry) -> bool) {
        self.points.retain(f);
    }

    /// Keeps only entries whose pixels satisfy the predicate (used when a
    /// mask drops pixels wholesale).
    pub fn retain_pixels(&mut self, f: impl Fn(u32) -> bool) {
        self.points.retain(|e| f(e.pixel));
        self.areas.retain(|e| f(e.pixel));
        self.lines.retain(|e| f(e.pixel));
    }

    /// Debug builds: checks every run (see
    /// [`SortedRun::check_invariants`]).
    pub fn check_invariants(&self) {
        self.points.check_invariants();
        self.areas.check_invariants();
        self.lines.check_invariants();
    }
}

/// An area entry re-filed under its source's index in a blended canvas.
fn remap_area(remap: &[u16]) -> impl Fn(&AreaEntry) -> AreaEntry + '_ {
    |e| AreaEntry {
        source: remap[e.source as usize],
        ..*e
    }
}

/// A line entry re-filed under its source's index in a blended canvas.
fn remap_line(remap: &[u16]) -> impl Fn(&LineEntry) -> LineEntry + '_ {
    |e| LineEntry {
        source: remap[e.source as usize],
        ..*e
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pe(pixel: u32, record: u32) -> PointEntry {
        PointEntry {
            pixel,
            record,
            loc: Point::new(record as f64, 0.0),
            weight: 1.0,
        }
    }

    /// A run over a 4×4 grid, scattered on the calling thread.
    fn scatter<T: Entry + Send>(
        n: usize,
        pixel: impl Fn(usize) -> Option<u32> + Sync,
        make: impl Fn(usize, u32) -> T + Sync,
    ) -> SortedRun<T> {
        SortedRun::scatter(&WorkerPool::new(1), 4, 4, n, pixel, make)
    }

    /// A point run over a 4×4 grid from `(pixel, record)` in input order.
    fn points(input: &[(u32, u32)]) -> SortedRun<PointEntry> {
        scatter(input.len(), |i| Some(input[i].0), |i, p| pe(p, input[i].1))
    }

    fn areas(input: &[(u32, u16, u32)]) -> SortedRun<AreaEntry> {
        scatter(
            input.len(),
            |i| Some(input[i].0),
            |i, pixel| AreaEntry {
                pixel,
                source: input[i].1,
                record: input[i].2,
            },
        )
    }

    fn records<'a>(entries: impl IntoIterator<Item = &'a PointEntry>) -> Vec<u32> {
        entries.into_iter().map(|e| e.record).collect()
    }

    #[test]
    fn scatter_orders_by_pixel_with_ties_in_input_order() {
        let run = points(&[(5, 1), (2, 2), (5, 3), (9, 4), (4, 5)]);
        assert_eq!(records(run.as_slice()), vec![2, 5, 1, 3, 4]);
        assert_eq!(records(run.at(5)), vec![1, 3]);
        assert_eq!(records(run.at(2)), vec![2]);
        assert!(run.at(7).is_empty());
        assert!(run.at(400).is_empty(), "beyond the grid");
        assert_eq!(records(run.row(1)), vec![5, 1, 3]);
    }

    #[test]
    fn scatter_leaves_out_skipped_inputs() {
        let pixels = [Some(3), None, Some(1)];
        let run: SortedRun<PointEntry> =
            scatter(pixels.len(), |i| pixels[i], |i, p| pe(p, i as u32));
        assert_eq!(records(run.as_slice()), vec![2, 0]);
    }

    #[test]
    fn banded_scatter_equals_the_inline_one() {
        let pool = WorkerPool::new(3);
        pool.set_min_work_override(1);
        let cases: Vec<Vec<Option<u32>>> = vec![
            vec![],
            vec![None, None],
            // Every input in one pixel: no band cut may split it.
            vec![Some(5); 50],
            (0..200)
                .map(|i| (i % 7 != 3).then_some(i * 37 % 16))
                .collect(),
            (0..64).map(|i| Some(15 - i % 16)).collect(),
        ];
        for pixels in &cases {
            let make = |i: usize, p: u32| pe(p, i as u32);
            let banded = SortedRun::scatter(&pool, 4, 4, pixels.len(), |i| pixels[i], make);
            assert_eq!(banded, scatter(pixels.len(), |i| pixels[i], make));
            let mut want: Vec<(u32, u32)> = (pixels.iter().zip(0..))
                .filter_map(|(p, i)| p.map(|p| (p, i)))
                .collect();
            want.sort_by_key(|&(p, _)| p);
            let want: Vec<u32> = want.iter().map(|&(_, r)| r).collect();
            assert_eq!(records(banded.as_slice()), want, "{pixels:?}");
        }
    }

    #[test]
    fn dense_rows_take_the_counting_order() {
        // 40 entries in one 4-wide row: well past the sparse threshold.
        let input: Vec<(u32, u32)> = (0..40).map(|i| (4 + (i * 7) % 4, i)).collect();
        let run = points(&input);
        let mut want = input.clone();
        want.sort_by_key(|&(p, _)| p);
        let want: Vec<u32> = want.iter().map(|&(_, r)| r).collect();
        assert_eq!(records(run.as_slice()), want);
    }

    #[test]
    fn area_and_line_lookup() {
        let lines: SortedRun<LineEntry> = scatter(
            1,
            |_| Some(3),
            |_, pixel| LineEntry {
                pixel,
                source: 0,
                record: 20,
            },
        );
        let b = BoundaryIndex::from_runs(SortedRun::new(4, 4), areas(&[(3, 0, 10)]), lines);
        assert_eq!(b.areas_at(3)[0].record, 10);
        assert_eq!(b.lines_at(3)[0].record, 20);
        assert!(b.areas_at(0).is_empty());
    }

    #[test]
    fn merge_remaps_sources_and_keeps_left_first_on_ties() {
        let a = BoundaryIndex::from_runs(
            points(&[(1, 10), (6, 11)]),
            areas(&[(1, 0, 1), (2, 0, 5)]),
            SortedRun::new(4, 4),
        );
        let b = BoundaryIndex::from_runs(
            points(&[(6, 20), (0, 21)]),
            areas(&[(2, 0, 2)]),
            SortedRun::new(4, 4),
        );
        let m = a.merged(&b, &[7], &[]);
        assert_eq!(records(m.points()), vec![21, 10, 11, 20]);
        assert_eq!(m.areas_at(1)[0].source, 0);
        let at2: Vec<(u16, u32)> = m.areas_at(2).iter().map(|e| (e.source, e.record)).collect();
        assert_eq!(at2, vec![(0, 5), (7, 2)]);
        let mut in_place = a.clone();
        in_place.merge_in(&b, &[7], &[]);
        assert_eq!(in_place, m);
    }

    #[test]
    fn retain_and_masked_filter_in_order() {
        let input: Vec<(u32, u32)> = (0..10).map(|i| (i, i)).collect();
        let mut b =
            BoundaryIndex::from_runs(points(&input), SortedRun::new(4, 4), SortedRun::new(4, 4));
        b.retain_pixels(|p| p % 2 == 0);
        assert_eq!(b.num_points(), 5);
        b.retain_points(|e| e.record < 4);
        assert_eq!(records(b.points()), vec![0, 2]);
        assert_eq!(records(b.points_at(2)), vec![2]);

        let with_areas = BoundaryIndex::from_runs(
            points(&input),
            areas(&[(1, 0, 1), (2, 0, 2)]),
            SortedRun::new(4, 4),
        );
        let m = with_areas.masked(vec![pe(2, 2)], |p| p == 2);
        assert_eq!(records(m.points()), vec![2]);
        assert_eq!(m.num_areas(), 1);
        assert_eq!(m.areas_at(2)[0].record, 2);
    }

    #[test]
    fn cursor_walks_a_row_left_to_right() {
        let run = points(&[(5, 1), (4, 2), (5, 3), (7, 4)]);
        let mut cur = run.cursor(1);
        assert_eq!(records(cur.at(5)), vec![1, 3], "pixel 4 passed over");
        assert!(cur.at(6).is_empty());
        assert_eq!(records(cur.at(7)), vec![4]);
        assert!(cur.at(7).is_empty(), "consumed");
    }

    #[test]
    fn block_len_finds_the_end_of_a_prefix() {
        let s: Vec<u32> = (0..100).collect();
        for k in [0, 1, 2, 3, 7, 8, 9, 63, 64, 65, 99, 100] {
            assert_eq!(block_len(&s, |&v| v < k), k as usize, "k={k}");
        }
        assert_eq!(block_len(&[] as &[u32], |_| true), 0);
    }

    #[test]
    fn stacked_levels_read_older_first_on_ties() {
        let base = points(&[(5, 1), (2, 2), (9, 3), (0, 4)]);
        let mut stack = RunStack::new(base);
        // A quarter of the base: stays a level of its own.
        assert_eq!(stack.push(points(&[(5, 10)])), 0);
        assert_eq!(stack.levels().len(), 2);
        assert_eq!(records(stack.iter()), vec![4, 2, 1, 10, 3]);
        assert_eq!(stack.iter().len(), 5);
        assert_eq!(records(stack.at(5)), vec![1, 10]);
        assert_eq!(stack.at(5).slices().len(), 2);
        let mut cur = stack.cursor(1);
        assert_eq!(records(cur.at(5)), vec![1, 10]);
        assert!(cur.at(6).is_empty());
        // Equality is by logical sequence, not by layout.
        let flat = RunStack::new(points(&[(5, 1), (2, 2), (9, 3), (0, 4), (5, 10)]));
        assert_eq!(stack, flat);
        let swapped = RunStack::new(points(&[(5, 10), (2, 2), (9, 3), (0, 4), (5, 1)]));
        assert_ne!(stack, swapped);
    }

    #[test]
    fn iter_rows_is_the_part_of_iter_on_those_rows() {
        let mut stack = RunStack::new(points(&[(5, 1), (2, 2), (9, 3), (0, 4), (14, 5)]));
        stack.push(points(&[(5, 10)]));
        assert_eq!(records(stack.iter_rows(0..4)), records(stack.iter()));
        assert_eq!(records(stack.iter_rows(1..2)), vec![1, 10]);
        assert_eq!(records(stack.iter_rows(1..3)), vec![1, 10, 3]);
        assert!(stack.iter_rows(3..3).next().is_none());
        assert_eq!(
            records(stack.iter_rows(3..9)),
            vec![5],
            "clamped to the grid"
        );
    }

    #[test]
    fn push_compacts_by_size_ratio_and_never_exceeds_the_level_cap() {
        let mut want: Vec<(u32, u32)> = (0..256).map(|i| (i % 16, 1000 + i)).collect();
        let mut stack = RunStack::new(points(&want));
        let base = Arc::clone(&stack.levels()[0]);
        assert_eq!(stack.push(points(&[])), 0, "an empty delta is no level");
        assert_eq!(stack.levels().len(), 1);
        let deltas: Vec<(u32, u32)> = (0..30).map(|r| (r * 7 % 16, r)).collect();
        let mut rewritten = Vec::new();
        for &delta in &deltas {
            rewritten.push(stack.push(points(&[delta])));
            stack.check_invariants();
            assert!(stack.levels().len() <= MAX_LEVELS);
        }
        // [256, 1] stays; [256, 1, 1] merges its deltas (1 > 1/4 of 1);
        // [256, 2, 1] merges into [256, 3]; [256, 3, 1] into [256, 4].
        assert_eq!(rewritten[..4], [0, 2, 3, 4]);
        assert!(Arc::ptr_eq(&stack.levels()[0], &base), "base never reached");
        want.extend_from_slice(&deltas);
        // A delta larger than everything below folds the stack into one.
        let big: Vec<(u32, u32)> = (0..1200).map(|i| (i % 16, 5000 + i)).collect();
        let total = stack.len() + big.len();
        assert!(stack.push(points(&big)) >= total);
        assert_eq!(stack.levels().len(), 1);
        want.extend(big);
        assert_eq!(stack, RunStack::new(points(&want)));
    }

    #[test]
    fn retain_on_a_shared_stack_writes_a_new_level() {
        let mut stack = RunStack::new(points(&[(1, 1), (2, 2)]));
        stack.push(points(&[(1, 3)]));
        let shared = stack.clone();
        stack.retain(|e| e.record != 1);
        assert_eq!(records(stack.iter()), vec![3, 2]);
        assert_eq!(stack.levels().len(), 1);
        assert_eq!(records(shared.iter()), vec![1, 3, 2], "untouched");
        // Unshared and flat: filtered in place.
        let mut flat = RunStack::new(points(&[(1, 1), (2, 2)]));
        let before = flat.levels()[0].as_slice().as_ptr();
        flat.retain(|e| e.record == 2);
        assert_eq!(flat.levels()[0].as_slice().as_ptr(), before);
    }
}
