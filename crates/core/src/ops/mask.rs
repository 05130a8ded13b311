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
//! `M[Mp(cond)](B[⊙](C_P, R))`, with `R` a point-free area canvas, is
//! null everywhere except at pixels that hold a kept point, so it need
//! not cost per pixel. One private walker visits `C_P`'s point run once
//! against `R`'s texel, cover and area run, and decides each entry and
//! each pixel by the mask's rule (one helper holds it). A span-coded `R`
//! (an area canvas drawn as row spans, `canvas` module docs) is read
//! from its spans with a row cursor, since the run arrives in pixel
//! order, and never folded; a point canvas without planes gives its
//! texel as the fold of the entries the walk holds. Three consumers
//! share the walker:
//!
//! * [`point_entries_in_areas`] returns the surviving entries, for the
//!   queries that read nothing else (a hull, a skyline, an OD
//!   transform, a count);
//! * [`select_point_entries_in_areas`] is the canvas sink: it writes the
//!   kept pixels (texel and cover), the kept entries and `R`'s area
//!   entries at kept pixels into an empty canvas — the whole selection
//!   canvas, with no blend or mask plane. With the coarse rule
//!   `M[point ∧ area]` and a `V[log]` finisher it is also the selection
//!   heatmap;
//! * [`scatter_point_entries_in_areas`] is
//!   `D*[γ](M[Mp(cond)](B[⊙](C_P, R)))`, the aggregation plans' Map over
//!   the selection: each kept pixel's texel goes straight to its group
//!   slot, with no blend, mask or scatter pass.
//!
//! All three cut the run into row bands of about equal entry counts
//! (one private cutter) and walk them on the worker pool above its
//! minimum-work threshold; band outputs concatenate (or fold) in row
//! order, so results are bit-identical at any thread count. None writes
//! a full plane pass, so none charges a `PipelineStats` counter or
//! begins a pass. On a GPU the walk is one thread per point entry,
//! gathering `R`'s texel under the point and refining against the
//! vector polygon when that texel is a boundary pixel; the sum per
//! pixel is an ordered segmented reduce over the pixel-sorted run.

use std::ops::Range;
use std::sync::Mutex;

use crate::boundary::{AreaEntry, BoundaryIndex, PointEntry, SortedRun};
use crate::canvas::{Canvas, PointFold};
use crate::device::Device;
use crate::info::{BlendFn, Texel};
use crate::ops::transform::ValueMap;
use canvas_raster::{MaskTag, ValueTag, Viewport};

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
    /// A built-in coarse predicate (the heatmaps' `M[point ∧ area]`,
    /// `M[inside ∧ ≥1]`): plan data, fingerprinted by value, and a
    /// kernel the planner can run in a chain or an entry walk.
    Tagged(MaskTag),
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
            MaskSpec::Tagged(tag) => write!(f, "Tagged({tag:?})"),
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
            MaskSpec::Tagged(tag) => format!("M[{tag:?}]"),
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
        MaskSpec::Tagged(tag) => {
            let tag = *tag;
            mask_texel(dev, c, move |t| canvas_raster::simd::mask_pred(tag, t))
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
/// (the sinks' rule, [`PixelSum::kept_texel`]) independently,
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
    let rule = PixelRule::PointInAreas(cond);
    let kept_points =
        dev.pipeline()
            .map_planes(&mut texels, &mut cover, |y, row, row_cover, kept| {
                let mut points = index.points_cursor(y);
                let mut areas = index.areas_cursor(y);
                for (x, (t, cov)) in row.iter_mut().zip(row_cover).enumerate() {
                    if t.is_null() {
                        continue;
                    }
                    let pixel = y * width + x as u32;
                    let at = EntryPixel {
                        pixel,
                        cov: *cov,
                        area_texel: *t,
                        boundary_areas: areas.at(pixel),
                    };
                    let mut sum = PixelSum::starting(&at, kept.len());
                    for e in points.at(pixel) {
                        if rule.keeps_entry(c, &at, e) {
                            kept.push(*e);
                            sum.count(e);
                        }
                    }
                    match sum.kept_texel(*t, rule) {
                        Some(k) => *t = k,
                        None => {
                            kept.truncate(sum.first);
                            *t = Texel::null();
                            *cov = 0;
                        }
                    }
                }
            });
    // The survivors are already in index order (bands concatenate
    // row-major, entries within a pixel keep their order).
    finish_mask(c, texels, cover, kept_points)
}

/// Which pixels of `B[⊙](points, areas)` that hold point entries the
/// canvas sink [`select_point_entries_in_areas`] keeps, and which of
/// their entries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PixelRule {
    /// The selection mask `M[Mp(cond)]`: each entry is kept by its exact
    /// polygon incidence, and a pixel with a survivor keeps its texel,
    /// `s[0]` refined to the survivors on boundary pixels.
    PointInAreas(CountCond),
    /// The heatmap's coarse mask `M[point ∧ area]`
    /// ([`MaskTag::PointAndArea`]): a pixel whose blended texel holds a
    /// point and an area keeps the texel and every entry, unrefined.
    PointAndArea,
}

impl PixelRule {
    /// Whether the entry `e` at `at` survives, before its pixel is
    /// decided: the refinement rule of the point-selection mask. A point
    /// in a pixel that `at.cov` 2-primitives certainly cover, whose
    /// boundary-touching polygons (resolved through `areas`) are
    /// `at.boundary_areas`, is kept iff `cond` holds for its exact
    /// polygon incidence. [`PixelRule::PointAndArea`] keeps every entry,
    /// and drops them with the pixel.
    #[inline]
    fn keeps_entry(self, areas: &Canvas, at: &EntryPixel<'_>, e: &PointEntry) -> bool {
        match self {
            PixelRule::PointInAreas(cond) => {
                cond.eval(at.cov as u32 + areas.areas_containing(at.boundary_areas, e.loc))
            }
            PixelRule::PointAndArea => true,
        }
    }
}

/// The point entries `M[Mp(cond)](B[⊙](points, areas))` keeps, in the
/// same order, computed without either operator (see module docs).
///
/// A point's pixel cover is `points`' plus `areas`' (saturating, as the
/// blend adds them); its boundary polygons are `areas`' entries at that
/// pixel, walked row by row with a cursor. `points` is a point canvas:
/// its entries sit on 0-row texels and it carries no area entries of its
/// own. Bands of rows walk on the pool above its minimum-work threshold
/// and concatenate in row order, so the result is the same at any thread
/// count. Panics when the viewports differ, as
/// [`blend`](super::blend::blend) does.
pub fn point_entries_in_areas(
    dev: &Device,
    points: &Canvas,
    areas: &Canvas,
    cond: CountCond,
) -> Vec<PointEntry> {
    let rule = PixelRule::PointInAreas(cond);
    let bands = entry_bands(dev, points, areas);
    let lists = dev.pool().run_indexed(bands.len(), |b| {
        let mut kept = Vec::new();
        walk_point_entries(points, areas, bands[b].clone(), |at, e| {
            if rule.keeps_entry(areas, at, e) {
                kept.push(*e);
            }
        });
        kept
    });
    lists.concat()
}

/// The canvas `M(B[⊙](points, areas))` for the mask `rule` names,
/// finished by the value transform `value` when one is given, written
/// from the entries without either operator's plane (see module docs):
/// the dense chain's canvas, bit for bit, wherever no null texel of the
/// blend carries cover (a point-free area source never does).
///
/// Each pixel holding point entries is decided by the mask's rule
/// (`PixelSum::kept_texel`). A kept pixel gets its texel (through
/// `value`) and blended cover; its kept entries join the point run in
/// run order, and `areas`' area entries at it join the area run under
/// the source indexes the blend registers. Every other pixel stays
/// null with zero cover. `areas` carries no line entries (no polygon
/// source does). Bands of rows (see [`point_entries_in_areas`]) write
/// their own rows of the two planes, and their entry lists concatenate
/// in row order, so the result is identical at any thread count.
/// Charges no `PipelineStats` counter and begins no pass. Panics when
/// the viewports differ.
pub fn select_point_entries_in_areas(
    dev: &Device,
    points: &Canvas,
    areas: &Canvas,
    rule: PixelRule,
    value: Option<ValueTag>,
) -> Canvas {
    assert!(areas.boundary().lines().is_empty(), "no line entries");
    let vp = *points.viewport();
    let width = vp.width() as usize;
    let mut out = Canvas::empty(vp);
    // `points` registers no source of its own, so the blend's tables are
    // `areas`' (registration deduplicates shared tables).
    let remap: Vec<u16> = (areas.area_sources().iter())
        .map(|s| out.add_area_source(s.clone()))
        .collect();
    let bands = entry_bands(dev, points, areas);
    let (texels, cover, _) = out.planes_mut();
    let (mut texels, mut cover) = (texels.texels_mut(), cover.texels_mut());
    let mut band_planes = Vec::with_capacity(bands.len());
    for rows in &bands {
        let len = rows.len() * width;
        let (t, c);
        (t, texels) = std::mem::take(&mut texels).split_at_mut(len);
        (c, cover) = std::mem::take(&mut cover).split_at_mut(len);
        band_planes.push(Mutex::new((t, c)));
    }
    let lists = dev.pool().run_indexed(bands.len(), |b| {
        let mut planes = band_planes[b].lock().unwrap_or_else(|e| e.into_inner());
        let (texels, cover) = &mut *planes;
        let first = bands[b].start as usize * width;
        let (mut kept, mut kept_areas) = (Vec::new(), Vec::new());
        let keep = |at: &EntryPixel<'_>, mut t: Texel| {
            if let Some(tag) = value {
                canvas_raster::simd::value_rows(tag, std::slice::from_mut(&mut t));
            }
            texels[at.pixel as usize - first] = t;
            cover[at.pixel as usize - first] = at.cov;
            kept_areas.extend(at.boundary_areas.iter().map(|e| AreaEntry {
                source: remap[e.source as usize],
                ..*e
            }));
        };
        decide_pixels(points, areas, bands[b].clone(), rule, Some(&mut kept), keep);
        (kept, kept_areas)
    });
    drop(band_planes);
    let (kept, kept_areas): (Vec<_>, Vec<_>) = lists.into_iter().unzip();
    let (w, h) = (vp.width(), vp.height());
    *out.boundary_mut() = BoundaryIndex::from_runs(
        SortedRun::from_sorted(w, h, kept.concat()),
        SortedRun::from_sorted(w, h, kept_areas.concat()),
        SortedRun::new(w, h),
    );
    out
}

/// `D*[γ](M(B[⊙](points, areas)))` into `target_vp` for the mask `rule`
/// names, computed from the entries without either operator's plane
/// (see module docs):
/// the group canvas [`map_scatter`](super::map_scatter) over the dense
/// chain returns, bit for bit.
///
/// Each pixel that holds point entries is decided as the mask decides
/// it (`PixelSum::kept_texel`). The kept texel goes to `γ(texel)` and
/// folds in with `combine`, in pixel order — the dense scatter's order,
/// so f32 sums round the same way. Bands of rows (see
/// [`point_entries_in_areas`]) each return their `(target, texel)` list
/// and the caller folds the lists in band order — the ordered merge of
/// the pool's scatter — so the result is identical at any thread count.
/// Like [`point_entries_in_areas`] it charges no `PipelineStats`
/// counter and begins no pass. Panics when the viewports differ.
pub fn scatter_point_entries_in_areas(
    dev: &Device,
    points: &Canvas,
    areas: &Canvas,
    rule: PixelRule,
    gamma: &ValueMap,
    target_vp: Viewport,
    combine: BlendFn,
) -> Canvas {
    let bands = entry_bands(dev, points, areas);
    let lists = dev.pool().run_indexed(bands.len(), |b| {
        let mut local = Vec::new();
        decide_pixels(points, areas, bands[b].clone(), rule, None, |_, t| {
            if let Some(px) = (gamma.f)(&t).and_then(|w| target_vp.world_to_pixel(w)) {
                local.push((px, t));
            }
        });
        local
    });
    let mut out = Canvas::empty(target_vp);
    let groups = out.texels_mut();
    for ((x, y), t) in lists.into_iter().flatten() {
        groups.update(x, y, |d| combine.apply(d, t));
    }
    out
}

/// The row bands every entry walker cuts `points`' run into: about
/// equal entry counts (points cluster, rows do not), four per pool
/// thread — or one band of every row below the pool's minimum-work
/// threshold, walked on the calling thread. The bands tile the rows in
/// order, so outputs concatenated band by band do not depend on the
/// cut. `areas`' planes, when the walk is to read them, are folded
/// first.
fn entry_bands(dev: &Device, points: &Canvas, areas: &Canvas) -> Vec<Range<u32>> {
    // The walk reads an areas canvas that is not span-coded through its
    // planes: fold them here, so no band job makes a shared canvas fold.
    if areas.spans().is_none() {
        areas.texels();
    }
    let height = points.viewport().height();
    let pool = dev.pool();
    let entries = points.boundary().num_points();
    let mut cuts = vec![0];
    if pool.should_parallelize(entries) {
        let bands = pool.threads() * 4;
        let mut seen = 0;
        for y in 0..height.saturating_sub(1) {
            seen += points.boundary().points_in_rows(y..y + 1).len();
            if seen * bands >= entries * cuts.len() {
                cuts.push(y + 1);
            }
        }
    }
    cuts.push(height);
    cuts.windows(2).map(|w| w[0]..w[1]).collect()
}

/// Where [`walk_point_entries`] stands: a pixel of `C_P`'s run, its
/// blended cover, the areas canvas's texel there, and the area entries
/// behind it.
#[derive(Clone, Copy)]
struct EntryPixel<'a> {
    pixel: u32,
    cov: u16,
    area_texel: Texel,
    boundary_areas: &'a [AreaEntry],
}

impl Default for EntryPixel<'_> {
    fn default() -> Self {
        EntryPixel {
            pixel: u32::MAX,
            cov: 0,
            area_texel: Texel::null(),
            boundary_areas: &[],
        }
    }
}

/// One pixel's survivors so far, as the sinks and the dense mask fold
/// them.
#[derive(Default)]
struct PixelSum<'a> {
    at: EntryPixel<'a>,
    /// Where this pixel's survivors start in the caller's list.
    first: usize,
    kept: u32,
    weight: f32,
    /// The fold of the pixel's entries so far: its texel in a point
    /// canvas without planes.
    all: PointFold,
}

impl<'a> PixelSum<'a> {
    fn starting(at: &EntryPixel<'a>, first: usize) -> Self {
        PixelSum {
            at: *at,
            first,
            ..PixelSum::default()
        }
    }

    /// Counts a survivor; weights sum in entry order.
    fn count(&mut self, e: &PointEntry) {
        self.kept += 1;
        self.weight += e.weight;
    }

    /// The texel the mask `rule` leaves at this pixel, whose blended
    /// texel is `t`, or `None` where it leaves ∅: the one statement of
    /// what the dense mask and the sinks keep.
    ///
    /// A texel without a point is never kept. Under
    /// [`PixelRule::PointInAreas`] a uniform pixel is kept iff `cond`
    /// holds for its cover, with its texel unchanged; a boundary pixel is
    /// kept iff an entry survived, its `s[0]` rewritten to the survivors'
    /// count and weight sum. Under [`PixelRule::PointAndArea`] the texel
    /// is kept iff it also holds an area.
    fn kept_texel(&self, mut t: Texel, rule: PixelRule) -> Option<Texel> {
        let mut info = t.get(0)?;
        let cond = match rule {
            PixelRule::PointAndArea => {
                return canvas_raster::simd::mask_pred(MaskTag::PointAndArea, &t).then_some(t)
            }
            PixelRule::PointInAreas(cond) => cond,
        };
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

/// Decides the pixels of `points`' run in rows `rows`, in run order, as
/// the sinks see `M(B[⊙](points, areas))` under `rule`: each pixel's
/// surviving entries join `kept` (when given), and `keep` gets every
/// kept pixel with its texel ([`PixelSum::kept_texel`] of the blended
/// texel); a dropped pixel's entries leave `kept` again.
fn decide_pixels<'a>(
    points: &'a Canvas,
    areas: &'a Canvas,
    rows: Range<u32>,
    rule: PixelRule,
    mut kept: Option<&mut Vec<PointEntry>>,
    mut keep: impl FnMut(&EntryPixel<'a>, Texel),
) {
    // `points`' texel is its plane's when it has planes, and otherwise
    // the fold of the pixel's entries (`canvas` module docs), which the
    // walk accumulates as it goes.
    let point_texels = points.materialized().map(|p| p.texels.texels());
    // `None` before the first pixel.
    let blended = |sum: &PixelSum<'a>| {
        let i = sum.at.pixel as usize;
        let t = match point_texels {
            Some(plane) => *plane.get(i)?,
            None if sum.at.pixel == u32::MAX => return None,
            None => sum.all.texel(),
        };
        Some(BlendFn::PointOverArea.apply(t, sum.at.area_texel))
    };
    let mut finish = |sum: &PixelSum<'a>, kept: &mut Option<&mut Vec<PointEntry>>| {
        let t = blended(sum).and_then(|t| sum.kept_texel(t, rule));
        match t {
            Some(t) => keep(&sum.at, t),
            None => kept.iter_mut().for_each(|k| k.truncate(sum.first)),
        }
    };
    let mut sum = PixelSum::default();
    walk_point_entries(points, areas, rows, |at, e| {
        if at.pixel != sum.at.pixel {
            finish(&sum, &mut kept);
            sum = PixelSum::starting(at, kept.as_ref().map_or(0, |k| k.len()));
        }
        if point_texels.is_none() {
            sum.all.add(e);
        }
        if rule.keeps_entry(areas, at, e) {
            sum.count(e);
            kept.iter_mut().for_each(|k| k.push(*e));
        }
    });
    finish(&sum, &mut kept);
}

/// The one cursor walk over `points`' run behind every entry consumer:
/// visits every point entry of pixel rows `rows` in run order, with its
/// pixel's blended cover (`points`' plus `areas`', saturating), `areas`'
/// texel there, and the area entries `areas` files under that pixel (row
/// cursors; the run is never searched). It reads no plane that `points`
/// or `areas` does not already have: a span-coded `areas` is read from
/// its spans.
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
    // A point canvas without planes has cover 0 (`canvas` module docs).
    let point_cover = points.materialized().map(|p| p.cover.texels());
    let area_spans = areas.spans();
    let area_planes = match area_spans {
        Some(_) => None,
        None => Some((areas.texels().texels(), areas.cover().texels())),
    };
    let index = areas.boundary();
    let mut row = rows.start;
    let mut row_areas = index.areas_cursor(row);
    let mut row_spans = area_spans.map(|s| s.cursor(row));
    let mut at = EntryPixel::default();
    for e in points.boundary().points_in_rows(rows) {
        if e.pixel != at.pixel {
            if e.pixel / width != row {
                row = e.pixel / width;
                row_areas = index.areas_cursor(row);
                row_spans = area_spans.map(|s| s.cursor(row));
            }
            let i = e.pixel as usize;
            let (area_texel, area_cov) = match (&mut row_spans, area_planes) {
                (Some(spans), _) => spans
                    .at(e.pixel % width)
                    .map_or((Texel::null(), 0), |s| (s.texel, s.cover)),
                (None, Some((texels, cover))) => (texels[i], cover[i]),
                (None, None) => unreachable!("an areas canvas has spans or planes"),
            };
            at = EntryPixel {
                pixel: e.pixel,
                cov: point_cover.map_or(0, |c| c[i]).saturating_add(area_cov),
                area_texel,
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
