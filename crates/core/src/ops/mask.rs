//! The Mask operator `M[M](C)` (paper Section 3.1) with exact boundary
//! refinement (Section 5).
//!
//! Mask keeps only the canvas regions whose value lies in the mask set
//! `M ⊂ S³` and nulls the rest — a per-pixel parallel test on the GPU.
//! Where the prototype differs from the naive definition is exactness:
//! pixels flagged by conservative rasterization as *boundary* pixels are
//! re-tested against the vector geometry, so query answers do not suffer
//! pixel-resolution error. Uniform (non-boundary) pixels never need
//! refinement because their whole area has one membership answer.
//!
//! Both mask passes execute band-parallel on the device's persistent
//! worker pool (`Pipeline::map_planes`): bands
//! of the split texel + cover planes are claimed by pool executors and
//! band-local collections concatenate in row-major order, so results
//! are bit-identical at any thread count. A mask copies the two planes
//! it rewrites and nothing else: the output's boundary index is
//! assembled from the input's by one filtering pass
//! ([`BoundaryIndex::masked`](crate::boundary::BoundaryIndex::masked)).
//!
//! ## The entry form of the point selection
//!
//! Many queries run `M[Mp(cond)](B[⊙](C_P, C_Q))` only to read the
//! surviving point entries (a hull, a skyline, an OD transform, a count).
//! [`point_entries_in_areas`] returns exactly those entries without the
//! operators: it walks `C_P`'s point run once against `C_Q`'s cover plane
//! and area run, and decides each entry by the same rule as the mask (one
//! helper holds it). It writes no plane, merges no index and produces no
//! canvas, so it costs per point, not per pixel. It is a sequential walk,
//! not a raster pass, and charges no `PipelineStats` counter. On a GPU it
//! is one thread per point, gathering the texel of `C_Q` under the point
//! and refining against the vector polygon when that texel is a boundary
//! pixel.
//!
//! The entry form has a sink too: [`scatter_point_entries_in_areas`] is
//! `D*[γ](M[Mp(cond)](B[⊙](C_P, C_Q)))`, the aggregation plans' Map over
//! the selection, evaluated by the same walk (one private walker serves
//! both). Each pixel holding entries is decided as the mask decides it,
//! the texel the mask would leave there goes straight to its group slot,
//! and no blend, mask or scatter pass runs. Bands of rows walk on the
//! worker pool and fold in band order, so the result is bit-identical at
//! any thread count; like the walk it charges no `PipelineStats` counter
//! and begins no pass. On a GPU it is one thread per point plus an
//! ordered segmented reduce: each pixel's survivors sum over their
//! segment of the pixel-sorted run, and the per-pixel texels then fold
//! into the groups in pixel order.

use std::ops::Range;

use crate::boundary::{AreaEntry, PointEntry};
use crate::canvas::Canvas;
use crate::device::Device;
use crate::info::{BlendFn, Texel};
use crate::ops::transform::ValueMap;
use canvas_geom::Point;
use canvas_raster::Viewport;

/// Condition on a polygon-incidence count.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CountCond {
    /// Exactly `k` 2-primitives incident (the paper's `Mp`: `= 1`,
    /// `My`: `= 2`, conjunction of n constraints: `= n`).
    Eq(u32),
    /// At least `k` incident (the disjunction mask `Mp'` of Section 5.1:
    /// `≥ 1`).
    Ge(u32),
}

impl CountCond {
    #[inline]
    pub fn eval(self, count: u32) -> bool {
        match self {
            CountCond::Eq(k) => count == k,
            CountCond::Ge(k) => count >= k,
        }
    }
}

/// The mask sets used by the paper's query formulations.
#[derive(Clone)]
pub enum MaskSpec {
    /// `{ s | s[0] ≠ ∅ ∧ cond(#2-primitives containing the location) }` —
    /// the point-selection masks `Mp` / `Mp'` (Sections 4.1, 5.1).
    /// Boundary pixels are refined per exact point location.
    PointInAreas(CountCond),
    /// `{ s | cond(s[2].v1) }` — the polygon-overlap mask `My`
    /// (Section 4.1). Coarse (texel-level); record-level exact
    /// refinement is done by the polygon-selection query.
    AreaCount(CountCond),
    /// Arbitrary texel predicate (no refinement) for custom queries;
    /// the string names the condition in plan diagrams.
    Texel(
        &'static str,
        std::sync::Arc<dyn Fn(&Texel) -> bool + Send + Sync>,
    ),
}

impl std::fmt::Debug for MaskSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MaskSpec::PointInAreas(c) => write!(f, "PointInAreas({c:?})"),
            MaskSpec::AreaCount(c) => write!(f, "AreaCount({c:?})"),
            MaskSpec::Texel(name, _) => write!(f, "Texel({name})"),
        }
    }
}

impl MaskSpec {
    /// Short label for plan diagrams.
    pub fn label(&self) -> String {
        match self {
            MaskSpec::PointInAreas(CountCond::Eq(k)) => format!("Mp[#areas={k}]"),
            MaskSpec::PointInAreas(CountCond::Ge(k)) => format!("Mp'[#areas>={k}]"),
            MaskSpec::AreaCount(CountCond::Eq(k)) => format!("My[count={k}]"),
            MaskSpec::AreaCount(CountCond::Ge(k)) => format!("My[count>={k}]"),
            MaskSpec::Texel(name, _) => format!("M[{name}]"),
        }
    }
}

/// `C' = M[M](C)` — keeps pixels satisfying the mask, nulls the rest,
/// refining boundary pixels exactly (see module docs).
pub fn mask(dev: &mut Device, c: &Canvas, spec: &MaskSpec) -> Canvas {
    match spec {
        MaskSpec::PointInAreas(cond) => mask_point_in_areas(dev, c, *cond),
        MaskSpec::AreaCount(cond) => {
            let cond = *cond;
            mask_texel(dev, c, move |t| {
                t.get(2).map(|a| cond.eval(a.v1 as u32)).unwrap_or(false)
            })
        }
        MaskSpec::Texel(_, f) => {
            let f = f.clone();
            mask_texel(dev, c, move |t| f(t))
        }
    }
}

/// Coarse texel-level mask (full-screen pass, band-parallel over the
/// texel + cover planes).
fn mask_texel(dev: &mut Device, c: &Canvas, pred: impl Fn(&Texel) -> bool + Sync) -> Canvas {
    let mut texels = c.texels().clone();
    let mut cover = c.cover().clone();
    dev.pipeline()
        .map_planes::<_, _, (), _>(&mut texels, &mut cover, |_, row, row_cover, _| {
            for (t, cov) in row.iter_mut().zip(row_cover) {
                if !t.is_null() && !pred(t) {
                    *t = Texel::null();
                    *cov = 0;
                }
            }
        });
    // Boundary entries of nulled pixels go; the survivors are filtered
    // straight out of the input's index (it is never copied).
    let kept_points = c
        .boundary()
        .points()
        .filter(|e| !texels.texels()[e.pixel as usize].is_null())
        .copied()
        .collect();
    finish_mask(c, texels, cover, kept_points)
}

/// The point-selection mask with exact refinement, band-parallel over
/// the split texel + cover planes: every band runs the per-pixel test
/// (and the exact boundary refinement where needed) independently,
/// collecting its surviving point entries locally; bands concatenate in
/// row-major order, so the result is identical at any thread count.
/// Within a pixel row the input's point and area entries are walked by
/// cursor — the pass never searches the index.
fn mask_point_in_areas(dev: &mut Device, c: &Canvas, cond: CountCond) -> Canvas {
    // Only the two planes the pass rewrites are copied.
    let mut texels = c.texels().clone();
    let mut cover = c.cover().clone();
    let width = c.viewport().width();
    let index = c.boundary();
    let kept_points =
        dev.pipeline()
            .map_planes(&mut texels, &mut cover, |y, row, row_cover, kept| {
                let mut points = index.points_cursor(y);
                let mut areas = index.areas_cursor(y);
                for (x, (t, cov)) in row.iter_mut().zip(row_cover).enumerate() {
                    if t.is_null() {
                        continue;
                    }
                    if !t.has(0) {
                        // No point here: the selection result only keeps
                        // intersection pixels.
                        *cov = 0;
                        *t = Texel::null();
                        continue;
                    }
                    let pixel = y * width + x as u32;
                    let here = points.at(pixel);
                    let boundary_areas = areas.at(pixel);
                    if boundary_areas.is_empty() {
                        // Uniform pixel: the certain-cover count is the exact
                        // polygon incidence for every location in the pixel.
                        if cond.eval(*cov as u32) {
                            for level in here.slices() {
                                kept.extend_from_slice(level);
                            }
                        } else {
                            *cov = 0;
                            *t = Texel::null();
                        }
                        continue;
                    }
                    // Boundary pixel: refine each exact point location
                    // against the vector polygons (paper Section 5).
                    let mut count_kept = 0u32;
                    let mut weight_sum = 0.0f32;
                    for e in here {
                        if point_in_areas(c, *cov, boundary_areas, e.loc, cond) {
                            kept.push(*e);
                            count_kept += 1;
                            weight_sum += e.weight;
                        }
                    }
                    if count_kept == 0 {
                        *cov = 0;
                        *t = Texel::null();
                    } else {
                        // Rewrite s[0] with the refined count / weight sum so
                        // downstream aggregation scatters stay exact.
                        let mut info = t.get(0).expect("checked above");
                        info.v1 = count_kept as f32;
                        info.v2 = weight_sum;
                        t.set(0, info);
                    }
                }
            });
    // The survivors are already in index order (bands concatenate
    // row-major, entries within a pixel keep their order).
    finish_mask(c, texels, cover, kept_points)
}

/// The refinement rule of the point-selection mask: a point at `loc`, in
/// a pixel that `cov` 2-primitives certainly cover and whose
/// boundary-touching polygons (resolved through `c`) are `areas`, is
/// kept iff `cond` holds for its exact polygon incidence.
#[inline]
fn point_in_areas(c: &Canvas, cov: u16, areas: &[AreaEntry], loc: Point, cond: CountCond) -> bool {
    cond.eval(cov as u32 + c.areas_containing(areas, loc))
}

/// The point entries `M[Mp(cond)](B[⊙](points, areas))` keeps, in the
/// same order, computed without either operator (see module docs).
///
/// A point's pixel cover is `points`' plus `areas`' (saturating, as the
/// blend adds them); its boundary polygons are `areas`' entries at that
/// pixel, walked row by row with a cursor. `points` is a point canvas:
/// its entries sit on 0-row texels and it carries no area entries of its
/// own. Panics when the viewports differ, as [`blend`](super::blend::blend)
/// does.
pub fn point_entries_in_areas(points: &Canvas, areas: &Canvas, cond: CountCond) -> Vec<PointEntry> {
    let mut kept = Vec::new();
    let rows = 0..points.viewport().height();
    walk_point_entries(points, areas, rows, |at, e| {
        if point_in_areas(areas, at.cov, at.boundary_areas, e.loc, cond) {
            kept.push(*e);
        }
    });
    kept
}

/// `D*[γ](M[Mp(cond)](B[⊙](points, areas)))` into `target_vp`, computed
/// from the entries without either operator's plane (see module docs):
/// the group canvas [`map_scatter`](super::map_scatter) over the dense
/// chain returns, bit for bit.
///
/// Each pixel that holds point entries is decided as the mask decides
/// it. A uniform pixel is kept iff `cond` holds for its cover, with its
/// blended texel unchanged. A boundary pixel refines every entry and is
/// kept iff one survives, its `s[0]` rewritten to the survivors' count
/// and weight sum (summed in entry order, as the mask sums it). The kept
/// texel goes to `γ(texel)` and folds in with `combine`, in pixel order
/// — the dense scatter's order, so f32 sums round the same way.
///
/// Above the pool's minimum-work threshold the run is cut into row
/// bands of about equal entry counts, walked on the pool (the calling
/// thread walks bands too); each returns its `(target, texel)` list and
/// the caller folds the lists in band order — the ordered merge of the
/// pool's scatter — so the result is identical at any thread count.
/// Like [`point_entries_in_areas`] it charges no `PipelineStats`
/// counter and begins no pass. Panics when the viewports differ.
pub fn scatter_point_entries_in_areas(
    dev: &Device,
    points: &Canvas,
    areas: &Canvas,
    cond: CountCond,
    gamma: &ValueMap,
    target_vp: Viewport,
    combine: BlendFn,
) -> Canvas {
    let mut out = Canvas::empty(target_vp);
    let (groups, _, _) = out.planes_mut();
    let mut apply = |(x, y): (u32, u32), t: Texel| groups.update(x, y, |d| combine.apply(d, t));
    let height = points.viewport().height();
    let band = |rows: Range<u32>, emit: &mut dyn FnMut((u32, u32), Texel)| {
        let mut pixel = PixelSum::default();
        let mut finish = |p: &PixelSum| {
            if let Some(t) = p.kept_texel(points, areas, cond) {
                if let Some(px) = (gamma.f)(&t).and_then(|w| target_vp.world_to_pixel(w)) {
                    emit(px, t);
                }
            }
        };
        walk_point_entries(points, areas, rows, |at, e| {
            if at.pixel != pixel.at.pixel {
                finish(&pixel);
                pixel = PixelSum {
                    at: *at,
                    ..PixelSum::default()
                };
            }
            if !at.boundary_areas.is_empty()
                && point_in_areas(areas, at.cov, at.boundary_areas, e.loc, cond)
            {
                pixel.kept += 1;
                pixel.weight += e.weight;
            }
        });
        finish(&pixel);
    };
    let pool = dev.pool();
    let entries = points.boundary().num_points();
    if !pool.should_parallelize(entries) {
        band(0..height, &mut apply);
    } else {
        // Bands of about equal entry counts: points cluster, rows do not.
        let bands = pool.threads() * 4;
        let mut cuts = vec![0];
        let mut seen = 0;
        for y in 0..height {
            seen += points.boundary().points_in_rows(y..y + 1).len();
            if seen * bands >= entries * cuts.len() || y + 1 == height {
                cuts.push(y + 1);
            }
        }
        let lists = pool.run_indexed(cuts.len() - 1, |b| {
            let mut local = Vec::new();
            band(cuts[b]..cuts[b + 1], &mut |px, t| local.push((px, t)));
            local
        });
        lists.into_iter().flatten().for_each(|(px, t)| apply(px, t));
    }
    out
}

/// Where [`walk_point_entries`] stands: a pixel of `C_P`'s run, its
/// blended cover, and the area entries behind it.
#[derive(Clone, Copy)]
struct EntryPixel<'a> {
    pixel: u32,
    cov: u16,
    boundary_areas: &'a [AreaEntry],
}

impl Default for EntryPixel<'_> {
    fn default() -> Self {
        EntryPixel {
            pixel: u32::MAX,
            cov: 0,
            boundary_areas: &[],
        }
    }
}

/// One pixel's survivors so far, as the sink folds them.
#[derive(Default)]
struct PixelSum<'a> {
    at: EntryPixel<'a>,
    kept: u32,
    weight: f32,
}

impl PixelSum<'_> {
    /// The texel `M[Mp(cond)](B[⊙](points, areas))` leaves at this
    /// pixel, or `None` where it leaves ∅ (and before the first pixel).
    fn kept_texel(&self, points: &Canvas, areas: &Canvas, cond: CountCond) -> Option<Texel> {
        let i = self.at.pixel as usize;
        let mut t = BlendFn::PointOverArea.apply(
            *points.texels().texels().get(i)?,
            areas.texels().texels()[i],
        );
        let mut info = t.get(0)?;
        if self.at.boundary_areas.is_empty() {
            return cond.eval(self.at.cov as u32).then_some(t);
        }
        if self.kept == 0 {
            return None;
        }
        info.v1 = self.kept as f32;
        info.v2 = self.weight;
        t.set(0, info);
        Some(t)
    }
}

/// The one cursor walk over `points`' run behind both entry consumers:
/// visits every point entry of pixel rows `rows` in run order, with its
/// pixel's blended cover (`points`' plus `areas`', saturating) and the
/// area entries `areas` files under that pixel (a row cursor; the run is
/// never searched).
fn walk_point_entries<'a>(
    points: &'a Canvas,
    areas: &'a Canvas,
    rows: Range<u32>,
    mut visit: impl FnMut(&EntryPixel<'a>, &'a PointEntry),
) {
    assert_eq!(
        points.viewport(),
        areas.viewport(),
        "selection operands must share a viewport"
    );
    let width = points.viewport().width();
    let point_cover = points.cover().texels();
    let area_cover = areas.cover().texels();
    let index = areas.boundary();
    let (mut row, mut row_areas) = (rows.start, index.areas_cursor(rows.start));
    let mut at = EntryPixel::default();
    for e in points.boundary().points_in_rows(rows) {
        if e.pixel != at.pixel {
            if e.pixel / width != row {
                row = e.pixel / width;
                row_areas = index.areas_cursor(row);
            }
            at = EntryPixel {
                pixel: e.pixel,
                cov: point_cover[e.pixel as usize].saturating_add(area_cover[e.pixel as usize]),
                boundary_areas: row_areas.at(e.pixel),
            };
        }
        visit(&at, e);
    }
}

/// Assembles a mask's output canvas: the rewritten planes, the
/// surviving point entries, and the input's area/line entries minus
/// those on pixels the mask nulled.
fn finish_mask(
    c: &Canvas,
    texels: canvas_raster::Texture<Texel>,
    cover: canvas_raster::Texture<u16>,
    kept_points: Vec<PointEntry>,
) -> Canvas {
    let boundary = c.boundary().masked(kept_points, |pixel| {
        !texels.texels()[pixel as usize].is_null()
    });
    Canvas::from_parts(
        *c.viewport(),
        texels,
        cover,
        boundary,
        c.area_sources().to_vec(),
        c.line_sources().to_vec(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::canvas::PointBatch;
    use crate::info::BlendFn;
    use crate::ops::blend::blend;
    use crate::source::{render_points, render_query_polygon};
    use canvas_geom::{BBox, Point, Polygon};
    use canvas_raster::Viewport;

    fn vp(n: u32) -> Viewport {
        Viewport::new(
            BBox::new(Point::new(0.0, 0.0), Point::new(10.0, 10.0)),
            n,
            n,
        )
    }

    fn diamond() -> Polygon {
        Polygon::simple(vec![
            Point::new(5.0, 1.0),
            Point::new(9.0, 5.0),
            Point::new(5.0, 9.0),
            Point::new(1.0, 5.0),
        ])
        .unwrap()
    }

    #[test]
    fn selection_mask_keeps_inside_points_exactly() {
        // Coarse 10x10 grid: many pixels straddle the diamond's edges,
        // so correctness here depends on exact refinement.
        let mut dev = Device::nvidia();
        let pts = vec![
            Point::new(5.0, 5.0), // center: inside
            Point::new(1.2, 1.2), // corner: outside (same pixel as edge)
            Point::new(4.9, 1.4), // just inside the bottom tip region
            Point::new(0.2, 0.2), // far outside
        ];
        let diamond = diamond();
        let expected: Vec<u32> = pts
            .iter()
            .enumerate()
            .filter(|(_, p)| diamond.contains_closed(**p))
            .map(|(i, _)| i as u32)
            .collect();
        let cp = render_points(&mut dev, vp(10), &PointBatch::from_points(pts));
        let cq = render_query_polygon(&mut dev, vp(10), diamond, 1);
        let merged = blend(&mut dev, &cp, &cq, BlendFn::PointOverArea);
        let result = mask(&mut dev, &merged, &MaskSpec::PointInAreas(CountCond::Ge(1)));
        assert_eq!(result.point_records(), expected);
    }

    #[test]
    fn refined_texel_counts_updated() {
        // Two points share a boundary pixel; one inside, one outside.
        let mut dev = Device::nvidia();
        let tri = Polygon::simple(vec![
            Point::new(0.0, 0.0),
            Point::new(9.0, 0.0),
            Point::new(0.0, 9.0),
        ])
        .unwrap();
        // On an 8x8 grid over [0,10]² pixel (3,3) spans [3.75,5)²; the
        // hypotenuse x+y=9 crosses it, so one point on each side of the
        // line shares the pixel.
        let inside = Point::new(4.0, 4.0); // 8.0 < 9 inside
        let outside = Point::new(4.8, 4.8); // 9.6 > 9 outside
        let cp = render_points(
            &mut dev,
            vp(8),
            &PointBatch::from_points(vec![inside, outside]),
        );
        // Same pixel?
        let pix_a = vp(8).world_to_pixel(inside).unwrap();
        let pix_b = vp(8).world_to_pixel(outside).unwrap();
        assert_eq!(pix_a, pix_b, "test points must share a pixel");
        let cq = render_query_polygon(&mut dev, vp(8), tri, 1);
        let merged = blend(&mut dev, &cp, &cq, BlendFn::PointOverArea);
        let result = mask(&mut dev, &merged, &MaskSpec::PointInAreas(CountCond::Ge(1)));
        assert_eq!(result.point_records(), vec![0]);
        let t = result.texel(pix_a.0, pix_a.1);
        assert_eq!(t.get(0).unwrap().v1, 1.0, "count refined from 2 to 1");
    }

    #[test]
    fn area_count_mask_coarse() {
        let mut dev = Device::nvidia();
        let a = render_query_polygon(
            &mut dev,
            vp(20),
            Polygon::simple(vec![
                Point::new(1.0, 1.0),
                Point::new(6.0, 1.0),
                Point::new(6.0, 6.0),
                Point::new(1.0, 6.0),
            ])
            .unwrap(),
            7,
        );
        let b = render_query_polygon(
            &mut dev,
            vp(20),
            Polygon::simple(vec![
                Point::new(4.0, 4.0),
                Point::new(9.0, 4.0),
                Point::new(9.0, 9.0),
                Point::new(4.0, 9.0),
            ])
            .unwrap(),
            1,
        );
        let m = blend(&mut dev, &a, &b, BlendFn::AreaCount);
        let sel = mask(&mut dev, &m, &MaskSpec::AreaCount(CountCond::Eq(2)));
        assert!(!sel.is_empty());
        // Every surviving texel has count 2.
        for (_, _, t) in sel.non_null() {
            assert_eq!(t.get(2).unwrap().v1, 2.0);
        }
        // Non-overlap region nulled.
        assert!(sel.texel(3, 3).is_null()); // world (1.75,1.75): only a
    }

    #[test]
    fn custom_texel_mask() {
        let mut dev = Device::nvidia();
        let cp = render_points(
            &mut dev,
            vp(10),
            &PointBatch::from_points(vec![Point::new(1.5, 1.5), Point::new(7.5, 7.5)]),
        );
        let spec = MaskSpec::Texel(
            "id==1",
            std::sync::Arc::new(|t: &Texel| t.get(0).map(|p| p.id == 1).unwrap_or(false)),
        );
        let out = mask(&mut dev, &cp, &spec);
        assert_eq!(out.non_null_count(), 1);
        assert!(out.texel(7, 7).has(0));
        // Boundary entries of dropped pixels pruned.
        assert_eq!(out.boundary().num_points(), 1);
    }

    #[test]
    fn mask_labels() {
        assert_eq!(
            MaskSpec::PointInAreas(CountCond::Ge(1)).label(),
            "Mp'[#areas>=1]"
        );
        assert_eq!(MaskSpec::AreaCount(CountCond::Eq(2)).label(), "My[count=2]");
    }

    #[test]
    fn count_cond_eval() {
        assert!(CountCond::Eq(2).eval(2));
        assert!(!CountCond::Eq(2).eval(1));
        assert!(CountCond::Ge(1).eval(3));
        assert!(!CountCond::Ge(2).eval(1));
    }

    #[test]
    fn mask_on_empty_canvas_is_empty() {
        let mut dev = Device::nvidia();
        let c = Canvas::empty(vp(10));
        let out = mask(&mut dev, &c, &MaskSpec::PointInAreas(CountCond::Ge(1)));
        assert!(out.is_empty());
    }
}
