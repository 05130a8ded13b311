//! The canvas: the spatial analogue of a relational tuple
//! (paper Definitions 4–6).
//!
//! A canvas is conceptually a function `C : R² → S³`. The discrete
//! realization (paper Section 5) is:
//!
//! * a [`Texture`] of [`Texel`]s over a [`Viewport`] (the rendered
//!   object-information matrix per pixel),
//! * a *certain-coverage* plane counting the 2-primitives that fully
//!   cover each pixel (interior fragments of the conservative render),
//! * a [`BoundaryIndex`] linking boundary pixels back to exact vector
//!   geometry — points keep their true coordinates, polygons and lines
//!   keep `(source, record)` references into shared geometry tables.
//!
//! Together these make query answers **exact**: uniform pixels need no
//! refinement, boundary pixels are re-tested against vector data.
//!
//! A point canvas from a bare draw is its pixel-sorted point run: its
//! planes are *defined* as that run's fold — each texel the
//! [`PointAccumulate`](crate::info::BlendFn::PointAccumulate) left fold
//! of `Texel::point(record, 1, weight)` over the pixel's entries in run
//! order, the cover 0 — and are folded once, on the first read of a
//! plane ([`Canvas::texels`], [`Canvas::cover`], [`Canvas::planes_mut`],
//! …). Consumers that read a point canvas only per pixel (the entry
//! walks of `ops::mask`) fold the texel from the entries they already
//! hold and never make the planes. Every other canvas holds its planes
//! from construction.

use std::sync::{Arc, OnceLock};

use crate::boundary::{AreaEntry, BoundaryIndex, PointEntry};
use crate::info::{DimInfo, Texel};
use canvas_geom::polygon::Polygon;
use canvas_geom::polyline::Polyline;
use canvas_geom::Point;
use canvas_raster::{Texture, Viewport};

/// A shared table of vector polygons referenced by boundary entries.
pub type AreaSource = Arc<Vec<Polygon>>;
/// A shared table of vector polylines referenced by boundary entries.
pub type LineSource = Arc<Vec<Polyline>>;

/// The canvas representation of spatial data (see module docs).
#[derive(Clone, Debug)]
pub struct Canvas {
    viewport: Viewport,
    /// The texel and cover planes; unset on a point canvas until a plane
    /// is first read (module docs).
    planes: OnceLock<Planes>,
    boundary: BoundaryIndex,
    area_sources: Vec<AreaSource>,
    line_sources: Vec<LineSource>,
}

/// A canvas's two planes.
#[derive(Clone, Debug)]
pub(crate) struct Planes {
    pub(crate) texels: Texture<Texel>,
    /// Number of 2-primitives *certainly* covering each pixel (fragment
    /// was interior, not boundary).
    pub(crate) cover: Texture<u16>,
}

impl Canvas {
    /// An empty canvas (Definition 5): every location maps to (∅, ∅, ∅).
    pub fn empty(viewport: Viewport) -> Self {
        let (w, h) = (viewport.width(), viewport.height());
        Canvas::from_parts(
            viewport,
            Texture::new(w, h),
            Texture::new(w, h),
            BoundaryIndex::new(w, h),
            Vec::new(),
            Vec::new(),
        )
    }

    /// Assembles a canvas from rendered planes (used by operators).
    pub(crate) fn from_parts(
        viewport: Viewport,
        texels: Texture<Texel>,
        cover: Texture<u16>,
        boundary: BoundaryIndex,
        area_sources: Vec<AreaSource>,
        line_sources: Vec<LineSource>,
    ) -> Self {
        debug_assert_eq!(
            (boundary.width(), boundary.height()),
            (viewport.width(), viewport.height()),
            "boundary index must cover the canvas's pixel grid"
        );
        Canvas {
            viewport,
            planes: OnceLock::from(Planes { texels, cover }),
            boundary,
            area_sources,
            line_sources,
        }
    }

    /// The point canvas whose planes are the fold of `boundary`'s point
    /// run, folded on first read (module docs). `boundary` holds point
    /// entries only.
    pub(crate) fn from_points(viewport: Viewport, boundary: BoundaryIndex) -> Self {
        debug_assert!(boundary.areas().is_empty() && boundary.lines().is_empty());
        Canvas {
            viewport,
            planes: OnceLock::new(),
            boundary,
            area_sources: Vec::new(),
            line_sources: Vec::new(),
        }
    }

    /// The planes, folded from the point run first if they are not yet.
    fn planes(&self) -> &Planes {
        self.planes.get_or_init(|| {
            let (w, h) = (self.viewport.width(), self.viewport.height());
            let mut texels = Texture::new(w, h);
            fold_points(texels.texels_mut(), 0, self.boundary.points());
            Planes {
                texels,
                cover: Texture::new(w, h),
            }
        })
    }

    /// The planes if they exist: `None` on a point canvas nothing has
    /// read a plane of yet.
    pub(crate) fn materialized(&self) -> Option<&Planes> {
        self.planes.get()
    }

    /// Whether the planes exist (module docs): false only on a point
    /// canvas whose planes nothing has read yet.
    pub fn planes_materialized(&self) -> bool {
        self.planes.get().is_some()
    }

    /// Simultaneous mutable access to the texel plane, cover plane and
    /// boundary index (operators need split borrows across the planes).
    pub fn planes_mut(&mut self) -> (&mut Texture<Texel>, &mut Texture<u16>, &mut BoundaryIndex) {
        self.planes();
        let planes = self.planes.get_mut().expect("folded above");
        (&mut planes.texels, &mut planes.cover, &mut self.boundary)
    }

    pub fn viewport(&self) -> &Viewport {
        &self.viewport
    }

    pub fn texels(&self) -> &Texture<Texel> {
        &self.planes().texels
    }

    pub fn texels_mut(&mut self) -> &mut Texture<Texel> {
        self.planes_mut().0
    }

    pub fn cover(&self) -> &Texture<u16> {
        &self.planes().cover
    }

    pub fn boundary(&self) -> &BoundaryIndex {
        &self.boundary
    }

    /// The boundary index, for rewriting. A point canvas folds its
    /// planes first, so they stay those of the run it was drawn with.
    pub fn boundary_mut(&mut self) -> &mut BoundaryIndex {
        self.planes();
        &mut self.boundary
    }

    pub fn area_sources(&self) -> &[AreaSource] {
        &self.area_sources
    }

    pub fn line_sources(&self) -> &[LineSource] {
        &self.line_sources
    }

    /// Registers a polygon table; returns its source index for boundary
    /// entries.
    pub fn add_area_source(&mut self, src: AreaSource) -> u16 {
        register_source(&mut self.area_sources, src)
    }

    /// Registers a polyline table; returns its source index.
    pub fn add_line_source(&mut self, src: LineSource) -> u16 {
        register_source(&mut self.line_sources, src)
    }

    /// Resolves an area boundary entry to its vector polygon.
    pub fn resolve_area(&self, e: &AreaEntry) -> &Polygon {
        &self.area_sources[e.source as usize][e.record as usize]
    }

    /// Texel value at a pixel.
    #[inline]
    pub fn texel(&self, x: u32, y: u32) -> Texel {
        self.texels().get(x, y)
    }

    /// Canvas value at a *world* location — the mathematical
    /// `C(x, y) ∈ S³` of Definition 4 (∅ outside the viewport).
    pub fn value_at(&self, p: Point) -> Texel {
        match self.viewport.world_to_pixel(p) {
            Some((x, y)) => self.texel(x, y),
            None => Texel::null(),
        }
    }

    /// Linear pixel index of coordinates.
    #[inline]
    pub fn pixel_index(&self, x: u32, y: u32) -> u32 {
        y * self.viewport.width() + x
    }

    /// True when every texel is ∅ — operators prune such canvases from
    /// their output, mirroring relational tuple elimination (Section 4).
    pub fn is_empty(&self) -> bool {
        self.texels().texels().iter().all(Texel::is_null)
    }

    /// Number of non-∅ pixels.
    pub fn non_null_count(&self) -> usize {
        self.texels()
            .texels()
            .iter()
            .filter(|t| !t.is_null())
            .count()
    }

    /// Iterator over `(x, y, texel)` for non-∅ pixels.
    pub fn non_null(&self) -> impl Iterator<Item = (u32, u32, Texel)> + '_ {
        self.texels().iter().filter(|(_, _, t)| !t.is_null())
    }

    /// Exact number of 2-primitives containing the world point `p`, given
    /// that `p` lies in pixel `pixel`: certain covers plus exact tests
    /// against the boundary-touching polygons. This is the refinement
    /// kernel the mask operator runs on boundary pixels. A point canvas's
    /// cover is 0, so one without planes is not folded for it.
    pub fn exact_area_count(&self, pixel: u32, p: Point) -> u32 {
        let cover = self
            .planes
            .get()
            .map_or(0, |c| c.cover.texels()[pixel as usize]);
        cover as u32 + self.areas_containing(self.boundary.areas_at(pixel), p)
    }

    /// How many of the given boundary-touching polygons contain `p`
    /// (the exact half of [`exact_area_count`](Self::exact_area_count)).
    pub fn areas_containing(&self, areas: &[AreaEntry], p: Point) -> u32 {
        areas
            .iter()
            .filter(|e| self.resolve_area(e).contains_closed(p))
            .count() as u32
    }

    /// Record ids of all surviving point entries — the `SELECT *` result
    /// of point queries (sorted, deduplicated).
    pub fn point_records(&self) -> Vec<u32> {
        record_ids(self.boundary.points())
    }

    /// Sum of point-entry weights (exact SUM aggregations).
    pub fn point_weight_sum(&self) -> f64 {
        self.boundary.points().map(|e| e.weight as f64).sum()
    }

    /// Byte size of the texel + cover planes (modeled video memory),
    /// whether or not they exist yet: a point canvas is charged the
    /// planes its run models. Runs are not charged.
    pub fn size_bytes(&self) -> usize {
        let texels = self.viewport.width() as usize * self.viewport.height() as usize;
        texels * (std::mem::size_of::<Texel>() + std::mem::size_of::<u16>())
    }

    /// Builds a single-pixel canvas holding `texel` at the given pixel —
    /// the unit the Dissect operator produces.
    pub fn single_pixel(viewport: Viewport, x: u32, y: u32, texel: Texel) -> Self {
        let mut c = Canvas::empty(viewport);
        c.texels_mut().set(x, y, texel);
        c
    }
}

/// Folds point entries, in pixel order, into texels: each pixel (offset
/// by `first`, the pixel of `texels[0]`) gets the [`PointFold`] of its
/// entries — a point canvas's texel plane (module docs), or one band of
/// it.
pub(crate) fn fold_points<'a>(
    texels: &mut [Texel],
    first: usize,
    entries: impl Iterator<Item = &'a PointEntry>,
) {
    let mut entries = entries.peekable();
    while let Some(e) = entries.next() {
        let mut fold = PointFold::default();
        fold.add(e);
        while let Some(next) = entries.next_if(|n| n.pixel == e.pixel) {
            fold.add(next);
        }
        texels[e.pixel as usize - first] = fold.texel();
    }
}

/// A point canvas's texel at one pixel, folded entry by entry: the
/// [`BlendFn::PointAccumulate`] left fold of `Texel::point(record, 1,
/// weight)` over the pixel's entries in run order, kept as the `s[0]` it
/// builds — the first entry's record, then count and weight each summed
/// in entry order, as the blend sums them.
///
/// [`BlendFn::PointAccumulate`]: crate::info::BlendFn::PointAccumulate
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct PointFold(Option<DimInfo>);

impl PointFold {
    /// Folds in the pixel's next entry.
    #[inline]
    pub(crate) fn add(&mut self, e: &PointEntry) {
        self.0 = Some(match self.0 {
            None => DimInfo::new(e.record, 1.0, e.weight),
            Some(d) => DimInfo::new(d.id, d.v1 + 1.0, d.v2 + e.weight),
        });
    }

    /// The folded texel (∅ before the first entry).
    #[inline]
    pub(crate) fn texel(self) -> Texel {
        self.0.map_or(Texel::null(), |d| Texel::with_dim(0, d))
    }
}

/// Record ids of point entries, sorted and deduplicated — the `SELECT *`
/// result of a point query, off a result canvas or a bare entry list.
pub fn record_ids<'a>(entries: impl IntoIterator<Item = &'a PointEntry>) -> Vec<u32> {
    let mut ids: Vec<u32> = entries.into_iter().map(|e| e.record).collect();
    ids.sort_unstable();
    ids.dedup();
    ids
}

/// Index of `src` in a canvas's source table, appending it unless the
/// same table (by identity) is already there — repeated blends don't
/// grow tables.
pub(crate) fn register_source<T>(table: &mut Vec<Arc<T>>, src: Arc<T>) -> u16 {
    let at = table
        .iter()
        .position(|existing| Arc::ptr_eq(existing, &src))
        .unwrap_or_else(|| {
            table.push(src);
            table.len() - 1
        });
    at as u16
}

/// Immutable point-record batch: the vector-side representation of a
/// point data set (`DP` in the paper), rendered to canvases on demand.
#[derive(Clone, Debug, Default)]
pub struct PointBatch {
    pub points: Vec<Point>,
    pub ids: Vec<u32>,
    pub weights: Vec<f32>,
}

impl PointBatch {
    /// Batch with ids `0..n` and unit weights.
    pub fn from_points(points: Vec<Point>) -> Self {
        let n = points.len();
        PointBatch {
            points,
            ids: (0..n as u32).collect(),
            weights: vec![1.0; n],
        }
    }

    /// Batch with explicit per-record attribute weights (for SUM/AVG).
    pub fn with_weights(points: Vec<Point>, weights: Vec<f32>) -> Self {
        assert_eq!(points.len(), weights.len());
        let n = points.len();
        PointBatch {
            points,
            ids: (0..n as u32).collect(),
            weights,
        }
    }

    pub fn len(&self) -> usize {
        self.points.len()
    }

    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Host-side buffer size (upload cost model): xy as f32 pairs plus
    /// id and weight per point.
    pub fn upload_bytes(&self) -> u64 {
        (self.points.len() * (8 + 4 + 4)) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::boundary::{PointEntry, SortedRun};
    use canvas_geom::BBox;
    use canvas_raster::WorkerPool;

    fn vp() -> Viewport {
        Viewport::new(
            BBox::new(Point::new(0.0, 0.0), Point::new(10.0, 10.0)),
            10,
            10,
        )
    }

    #[test]
    fn empty_canvas() {
        let c = Canvas::empty(vp());
        assert!(c.is_empty());
        assert_eq!(c.non_null_count(), 0);
        assert!(c.value_at(Point::new(5.0, 5.0)).is_null());
        assert!(c.value_at(Point::new(50.0, 50.0)).is_null());
    }

    #[test]
    fn single_pixel_canvas() {
        let t = Texel::point(3, 1.0, 0.0);
        let c = Canvas::single_pixel(vp(), 4, 6, t);
        assert_eq!(c.non_null_count(), 1);
        assert_eq!(c.texel(4, 6), t);
        assert_eq!(c.value_at(Point::new(4.5, 6.5)), t);
    }

    #[test]
    fn source_registration_dedups_by_identity() {
        let mut c = Canvas::empty(vp());
        let src: AreaSource = Arc::new(vec![Polygon::circle(Point::new(5.0, 5.0), 2.0, 16)]);
        let i = c.add_area_source(src.clone());
        let j = c.add_area_source(src.clone());
        assert_eq!(i, j);
        let other: AreaSource = Arc::new(vec![]);
        let k = c.add_area_source(other);
        assert_ne!(i, k);
    }

    #[test]
    fn exact_area_count_uses_cover_and_boundary() {
        let mut c = Canvas::empty(vp());
        let poly = Polygon::simple(vec![
            Point::new(0.0, 0.0),
            Point::new(5.0, 0.0),
            Point::new(5.0, 5.0),
            Point::new(0.0, 5.0),
        ])
        .unwrap();
        let src: AreaSource = Arc::new(vec![poly]);
        let s = c.add_area_source(src);
        // Pixel (2,2) certainly covered.
        c.planes_mut().1.set(2, 2, 1);
        // Pixel (4,4) is a boundary pixel of the square (edge at x=5,y=5
        // clips it); register a boundary entry.
        let pix = c.pixel_index(4, 4);
        let pool = WorkerPool::new(1);
        let areas = SortedRun::scatter(
            &pool,
            10,
            10,
            1,
            |_| Some(pix),
            |_, pixel| AreaEntry {
                pixel,
                source: s,
                record: 0,
            },
        );
        *c.boundary_mut() =
            BoundaryIndex::from_runs(SortedRun::new(10, 10), areas, SortedRun::new(10, 10));
        assert_eq!(
            c.exact_area_count(c.pixel_index(2, 2), Point::new(2.5, 2.5)),
            1
        );
        // In the boundary pixel, the point inside the square counts...
        assert_eq!(c.exact_area_count(pix, Point::new(4.9, 4.9)), 1);
        // ...and a point in the same pixel but outside does not (pixel
        // (4,4) spans [4,5)², all inside here, so probe the boundary
        // entry with an outside location explicitly).
        assert_eq!(c.exact_area_count(pix, Point::new(5.5, 5.5)), 0);
    }

    #[test]
    fn point_records_sorted_dedup() {
        let mut c = Canvas::empty(vp());
        let input = [(3u32, 9u32), (1, 4), (3, 9), (2, 4)];
        let pixel = |i: usize| Some(input[i].0);
        let pool = WorkerPool::new(1);
        let points = SortedRun::scatter(&pool, 10, 10, input.len(), pixel, |i, pixel| PointEntry {
            pixel,
            record: input[i].1,
            loc: Point::new(0.0, 0.0),
            weight: 2.0,
        });
        *c.boundary_mut() =
            BoundaryIndex::from_runs(points, SortedRun::new(10, 10), SortedRun::new(10, 10));
        assert_eq!(c.point_records(), vec![4, 9]);
        assert_eq!(c.point_weight_sum(), 8.0);
    }

    #[test]
    fn point_fold_equals_the_accumulate_blend() {
        use crate::info::BlendFn;
        use canvas_raster::simd::texel_words;
        let weights = [
            1.5,
            -0.0,
            0.1,
            f32::NAN,
            3e38,
            3e38,
            -7.25,
            f32::INFINITY,
            1e-45,
        ];
        for n in 0..=weights.len() {
            let (mut fold, mut want) = (PointFold::default(), Texel::null());
            for (i, &weight) in weights[..n].iter().enumerate() {
                let e = PointEntry {
                    pixel: 3,
                    record: 10 + i as u32,
                    loc: Point::new(0.0, 0.0),
                    weight,
                };
                fold.add(&e);
                want = BlendFn::PointAccumulate.apply(want, Texel::point(e.record, 1.0, weight));
            }
            assert_eq!(
                texel_words(&fold.texel()),
                texel_words(&want),
                "{n} entries"
            );
        }
    }

    #[test]
    fn point_batch_constructors() {
        let b = PointBatch::from_points(vec![Point::new(1.0, 1.0), Point::new(2.0, 2.0)]);
        assert_eq!(b.len(), 2);
        assert_eq!(b.ids, vec![0, 1]);
        assert_eq!(b.weights, vec![1.0, 1.0]);
        assert_eq!(b.upload_bytes(), 32);
        let w = PointBatch::with_weights(vec![Point::new(0.0, 0.0)], vec![7.5]);
        assert_eq!(w.weights[0], 7.5);
    }
}
