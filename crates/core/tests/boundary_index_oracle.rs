//! Oracle for the hybrid boundary index.
//!
//! The index is sorted by construction — counting scatter, two-way
//! merge, order-preserving filter — and read through row offsets and
//! cursors. Its *definition* has not moved: entries in input order,
//! stably sorted by pixel. That definition lives on in this file as
//! [`spec::OldIndex`] (the pre-change implementation: push, stable
//! sort, whole-array binary search, clone-and-retain), and every
//! construction and lookup path of the new index is checked against it
//! on random inputs, at 1, 2 and 4 threads where a device is involved.
//! The pre-change `mask_point_in_areas` is copied here too, written
//! against `OldIndex`, as the reference for the mask's planes and all
//! three entry lists. A layered point index (a stack of delta levels
//! on a base) is held to the same spec over the concatenated input.

use std::sync::{Arc, OnceLock};

use canvas_core::boundary::{
    AreaEntry, BoundaryIndex, LineEntry, PointEntry, SortedRun, MAX_LEVELS,
};
use canvas_core::canvas::{AreaSource, LineSource};
use canvas_core::ops::{blend, mask, CountCond, MaskSpec};
use canvas_core::source::{render_points, render_polygon_set, render_polylines};
use canvas_core::{
    patch_live_heatmap, render_live_heatmap, BlendFn, Canvas, Device, PointBatch, Texel,
};
use canvas_geom::{BBox, Point, Polygon, Polyline};
use canvas_raster::{Texture, Viewport, WorkerPool};
use proptest::prelude::*;

mod spec {
    //! The index as it was before it became sorted by construction.
    use super::{AreaEntry, LineEntry, PointEntry};

    #[derive(Clone, Debug, Default, PartialEq)]
    pub struct OldIndex {
        pub points: Vec<PointEntry>,
        pub areas: Vec<AreaEntry>,
        pub lines: Vec<LineEntry>,
    }

    fn range_of<T, K: Fn(&T) -> u32>(items: &[T], key: K, pixel: u32) -> &[T] {
        let lo = items.partition_point(|e| key(e) < pixel);
        let hi = items.partition_point(|e| key(e) <= pixel);
        &items[lo..hi]
    }

    impl OldIndex {
        pub fn sort(&mut self) {
            self.points.sort_by_key(|e| e.pixel);
            self.areas.sort_by_key(|e| e.pixel);
            self.lines.sort_by_key(|e| e.pixel);
        }

        pub fn points_at(&self, pixel: u32) -> &[PointEntry] {
            range_of(&self.points, |e| e.pixel, pixel)
        }

        pub fn areas_at(&self, pixel: u32) -> &[AreaEntry] {
            range_of(&self.areas, |e| e.pixel, pixel)
        }

        pub fn merge_remapped(&mut self, other: &OldIndex, area_remap: &[u16], line_remap: &[u16]) {
            self.points.extend_from_slice(&other.points);
            self.areas.extend(other.areas.iter().map(|e| AreaEntry {
                pixel: e.pixel,
                source: area_remap[e.source as usize],
                record: e.record,
            }));
            self.lines.extend(other.lines.iter().map(|e| LineEntry {
                pixel: e.pixel,
                source: line_remap[e.source as usize],
                record: e.record,
            }));
        }

        pub fn retain_pixels(&mut self, mut f: impl FnMut(u32) -> bool) {
            self.points.retain(|e| f(e.pixel));
            self.areas.retain(|e| f(e.pixel));
            self.lines.retain(|e| f(e.pixel));
        }
    }
}

use spec::OldIndex;

/// The spec's view of a new index (for `assert_eq!` against it).
fn as_old(b: &BoundaryIndex) -> OldIndex {
    OldIndex {
        points: b.points().copied().collect(),
        areas: b.areas().to_vec(),
        lines: b.lines().to_vec(),
    }
}

fn device(threads: usize) -> Device {
    if threads == 1 {
        Device::cpu()
    } else {
        Device::cpu_parallel(threads)
    }
}

const THREADS: [usize; 3] = [1, 2, 4];

fn extent() -> BBox {
    BBox::new(Point::new(0.0, 0.0), Point::new(100.0, 100.0))
}

/// A point in or a little outside the extent, snapped to a coarse
/// lattice half the time so pixels collect coincident points.
fn arb_point() -> impl Strategy<Value = (Point, f32)> {
    ((-12.0f64..112.0, -12.0f64..112.0), 0u32..2, 0.25f32..8.0).prop_map(|((x, y), snap, w)| {
        let p = if snap == 1 {
            Point::new((x / 7.0).round() * 7.0, (y / 7.0).round() * 7.0)
        } else {
            Point::new(x, y)
        };
        (p, w)
    })
}

fn batch(pts: &[(Point, f32)]) -> PointBatch {
    PointBatch::with_weights(
        pts.iter().map(|&(p, _)| p).collect(),
        pts.iter().map(|&(_, w)| w).collect(),
    )
}

/// The old `push_point_entries`: push in input order, stable sort.
fn spec_point_entries(vp: &Viewport, batch: &PointBatch) -> Vec<PointEntry> {
    let mut old = OldIndex::default();
    for (i, &p) in batch.points.iter().enumerate() {
        if let Some((x, y)) = vp.world_to_pixel(p) {
            old.points.push(PointEntry {
                pixel: y * vp.width() + x,
                record: batch.ids[i],
                loc: p,
                weight: batch.weights[i],
            });
        }
    }
    old.sort();
    old.points
}

/// `(pixel, source, record)` triples in input order over a `w × h` grid.
fn arb_keyed(w: u32, h: u32, n: usize) -> impl Strategy<Value = Vec<(u32, u16, u32)>> {
    prop::collection::vec((0..w * h, 0u16..3, 0u32..1000), 0..n)
}

/// A three-thread pool that sorts every run in bands, however small.
fn banded() -> &'static WorkerPool {
    static POOL: OnceLock<WorkerPool> = OnceLock::new();
    POOL.get_or_init(|| {
        let pool = WorkerPool::new(3);
        pool.set_min_work_override(1);
        pool
    })
}

/// Point entries of `input`, which starts at position `first` of the
/// whole input (entries carry their position, so all are distinct).
fn point_run(w: u32, h: u32, input: &[(u32, u16, u32)], first: usize) -> SortedRun<PointEntry> {
    SortedRun::scatter(
        banded(),
        w,
        h,
        input.len(),
        |i| Some(input[i].0),
        |i, pixel| PointEntry {
            pixel,
            record: input[i].2,
            loc: Point::new((first + i) as f64, input[i].1 as f64),
            weight: (first + i) as f32,
        },
    )
}

fn area_run(w: u32, h: u32, input: &[(u32, u16, u32)]) -> SortedRun<AreaEntry> {
    SortedRun::scatter(
        banded(),
        w,
        h,
        input.len(),
        |i| Some(input[i].0),
        |i, pixel| AreaEntry {
            pixel,
            source: input[i].1,
            record: input[i].2,
        },
    )
}

fn line_run(w: u32, h: u32, input: &[(u32, u16, u32)]) -> SortedRun<LineEntry> {
    SortedRun::scatter(
        banded(),
        w,
        h,
        input.len(),
        |i| Some(input[i].0),
        |i, pixel| LineEntry {
            pixel,
            source: input[i].1,
            record: input[i].2,
        },
    )
}

/// The same three inputs through the old build: push, then stable sort.
fn spec_index(
    pts: &[(u32, u16, u32)],
    ars: &[(u32, u16, u32)],
    lns: &[(u32, u16, u32)],
) -> OldIndex {
    let mut old = OldIndex::default();
    for (i, &(pixel, s, record)) in pts.iter().enumerate() {
        old.points.push(PointEntry {
            pixel,
            record,
            loc: Point::new(i as f64, s as f64),
            weight: i as f32,
        });
    }
    for &(pixel, source, record) in ars {
        old.areas.push(AreaEntry {
            pixel,
            source,
            record,
        });
    }
    for &(pixel, source, record) in lns {
        old.lines.push(LineEntry {
            pixel,
            source,
            record,
        });
    }
    old.sort();
    old
}

fn new_index(
    w: u32,
    h: u32,
    pts: &[(u32, u16, u32)],
    ars: &[(u32, u16, u32)],
    lns: &[(u32, u16, u32)],
) -> BoundaryIndex {
    BoundaryIndex::from_runs(
        point_run(w, h, pts, 0),
        area_run(w, h, ars),
        line_run(w, h, lns),
    )
}

/// Grids whose rows fall on both sides of the scatter's dense/sparse
/// row threshold for the entry counts the strategies generate.
const GRIDS: [(u32, u32); 4] = [(1, 1), (5, 9), (37, 11), (256, 3)];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Point renders at every thread count build exactly the old
    /// push-then-stable-sort entry list (coincident points keep input
    /// order, out-of-viewport points are absent, empty batches work).
    #[test]
    fn scatter_build_from_a_batch_matches_push_then_stable_sort(
        pts in prop::collection::vec(arb_point(), 0..300),
        dims in prop::sample::select(vec![(1u32, 1u32), (8, 8), (33, 17), (64, 64), (200, 5)]),
    ) {
        let vp = Viewport::new(extent(), dims.0, dims.1);
        let batch = batch(&pts);
        let want = spec_point_entries(&vp, &batch);
        for threads in THREADS {
            let c = render_points(&mut device(threads), vp, &batch);
            c.boundary().check_invariants();
            prop_assert_eq!(as_old(c.boundary()).points, want.clone(), "threads={}", threads);
            prop_assert_eq!(c.boundary().num_areas() + c.boundary().num_lines(), 0);
        }
    }

    /// The scatter build of every entry kind, the two-way merge with
    /// source remapping (by reference and in place), and the per-pixel
    /// lookups, against the old index built from the same inputs.
    #[test]
    fn scatter_merge_and_lookups_match_the_old_index(
        grid in prop::sample::select(GRIDS.to_vec()),
        seed in 0u64..u64::MAX,
    ) {
        let (w, h) = grid;
        let mut rng = TestRng::for_test(&format!("inputs-{seed}"));
        let mut gen = |n| arb_keyed(w, h, n).generate(&mut rng);
        let (ap, aa, al) = (gen(400), gen(60), gen(60));
        let (bp, ba, bl) = (gen(400), gen(60), gen(60));
        let area_remap = [2u16, 0, 5];
        let line_remap = [1u16, 1, 4];

        let a = new_index(w, h, &ap, &aa, &al);
        let b = new_index(w, h, &bp, &ba, &bl);
        let old_a = spec_index(&ap, &aa, &al);
        let old_b = spec_index(&bp, &ba, &bl);
        prop_assert_eq!(as_old(&a), old_a.clone());
        prop_assert_eq!(as_old(&b), old_b.clone());

        // Old blend bookkeeping: clone, append remapped, stable re-sort.
        let mut old_merged = old_a.clone();
        old_merged.merge_remapped(&old_b, &area_remap, &line_remap);
        old_merged.sort();
        let merged = a.merged(&b, &area_remap, &line_remap);
        merged.check_invariants();
        prop_assert_eq!(as_old(&merged), old_merged.clone());
        let mut in_place = a.clone();
        in_place.merge_in(&b, &area_remap, &line_remap);
        prop_assert_eq!(&in_place, &merged);
        // Merging with an empty index on either side is the identity.
        let empty = BoundaryIndex::new(w, h);
        prop_assert_eq!(&a.merged(&empty, &[], &[]), &a);
        prop_assert_eq!(&empty.merged(&a, &[0, 1, 2], &[0, 1, 2]), &a);

        // Lookups search one row; the spec is a linear filter.
        for pixel in 0..w * h + 3 {
            let pts: Vec<PointEntry> =
                merged.points().copied().filter(|e| e.pixel == pixel).collect();
            let ars: Vec<AreaEntry> =
                merged.areas().iter().copied().filter(|e| e.pixel == pixel).collect();
            let lns: Vec<LineEntry> =
                merged.lines().iter().copied().filter(|e| e.pixel == pixel).collect();
            prop_assert_eq!(merged.points_at(pixel).to_vec(), pts);
            prop_assert_eq!(merged.areas_at(pixel), &ars[..]);
            prop_assert_eq!(merged.lines_at(pixel), &lns[..]);
        }
        // A cursor over each row hands out the same slices in order.
        for y in 0..h {
            let mut cursor = merged.points_cursor(y);
            for x in 0..w {
                let pixel = y * w + x;
                prop_assert_eq!(&cursor.at(pixel).to_vec()[..], old_merged.points_at(pixel));
            }
        }

        // Filters keep order: old retain vs new retain / masked.
        let keep = |pixel: u32| pixel % 3 != 1;
        let mut old_kept = old_merged.clone();
        old_kept.retain_pixels(keep);
        let mut kept = merged.clone();
        kept.retain_pixels(keep);
        kept.check_invariants();
        prop_assert_eq!(as_old(&kept), old_kept.clone());
        let masked = merged.masked(old_kept.points.clone(), keep);
        prop_assert_eq!(&masked, &kept);
    }

    /// A point stack built by pushing 1–40 deltas — empty, a handful, a
    /// few dozen, or more than the whole base — reads, filters and
    /// merges exactly as the old index over the concatenated input: after
    /// every push the entry order, count and stack depth, and a clone
    /// taken before the push is unchanged by it; at the end every lookup
    /// path, every mutator, and the blend merge on either side.
    #[test]
    fn layered_point_stacks_match_the_old_index(
        grid in prop::sample::select(GRIDS.to_vec()),
        seed in 0u64..u64::MAX,
    ) {
        let (w, h) = grid;
        let mut rng = TestRng::for_test(&format!("layers-{seed}"));
        let mut gen = |n: usize| {
            prop::collection::vec((0..w * h, 0u16..3, 0u32..1000), n..n + 1).generate(&mut rng)
        };
        let mut sizes = TestRng::for_test(&format!("sizes-{seed}"));
        let mut roll = |n: u64| (sizes.next_u64() % n) as usize;
        let base_len = roll(300);
        let (mut all, ars, lns) = (gen(base_len), gen(40), gen(40));
        let mut stack = BoundaryIndex::from_runs(
            point_run(w, h, &all, 0),
            area_run(w, h, &ars),
            line_run(w, h, &lns),
        );
        let deltas = 1 + roll(40);
        for k in 0..deltas {
            let size = match roll(4) {
                0 => 0,
                1 => 1 + roll(8),
                2 => 8 + roll(56),
                _ => base_len + 1 + roll(64),
            };
            let delta = gen(size);
            let before = stack.clone();
            let before_old = as_old(&before);
            stack.push_points(point_run(w, h, &delta, all.len()));
            all.extend(delta);
            stack.check_invariants();
            let levels = stack.point_levels().len();
            prop_assert!(levels <= MAX_LEVELS, "{} levels", levels);
            prop_assert_eq!(stack.num_points(), all.len());
            prop_assert_eq!(as_old(&stack), spec_index(&all, &ars, &lns), "after push {}", k);
            prop_assert_eq!(as_old(&before), before_old, "push wrote a shared level");
        }
        let old = spec_index(&all, &ars, &lns);
        let flat = new_index(w, h, &all, &ars, &lns);
        prop_assert_eq!(&stack, &flat, "equality ignores the level layout");

        // Lookups and cursors chain the levels' slices.
        for pixel in 0..w * h + 3 {
            prop_assert_eq!(&stack.points_at(pixel).to_vec()[..], old.points_at(pixel));
        }
        for y in 0..h {
            let mut cursor = stack.points_cursor(y);
            for x in 0..w {
                let pixel = y * w + x;
                let here: Vec<PointEntry> = cursor.at(pixel).into_iter().copied().collect();
                prop_assert_eq!(&here[..], old.points_at(pixel));
            }
        }

        // Mutators write one level and leave clones of the stack alone.
        let shared = stack.clone();
        let mut kept = stack.clone();
        kept.retain_points(|e| e.record % 3 != 0);
        kept.check_invariants();
        let mut old_kept = old.clone();
        old_kept.points.retain(|e| e.record % 3 != 0);
        prop_assert_eq!(as_old(&kept), old_kept);
        prop_assert_eq!(kept.point_levels().len(), 1);
        let keep = |pixel: u32| pixel % 3 != 1;
        let mut old_pruned = old.clone();
        old_pruned.retain_pixels(keep);
        let mut pruned = stack.clone();
        pruned.retain_pixels(keep);
        prop_assert_eq!(as_old(&pruned), old_pruned.clone());
        let masked = stack.masked(old_pruned.points.clone(), keep);
        prop_assert_eq!(&masked, &pruned);
        prop_assert_eq!(&shared, &stack);
        prop_assert_eq!(as_old(&shared), old.clone(), "a mutator wrote a shared level");

        // The blend merge, with the stack on either side (and both).
        let other = new_index(w, h, &gen(200), &gen(30), &gen(30));
        let (area_remap, line_remap) = ([2u16, 0, 5], [1u16, 1, 4]);
        for (left, right) in [(&stack, &other), (&other, &stack), (&stack, &stack)] {
            let mut want = as_old(left);
            want.merge_remapped(&as_old(right), &area_remap, &line_remap);
            want.sort();
            let merged = left.merged(right, &area_remap, &line_remap);
            merged.check_invariants();
            prop_assert_eq!(merged.point_levels().len(), 1);
            prop_assert_eq!(as_old(&merged), want);
            let mut in_place = left.clone();
            in_place.merge_in(right, &area_remap, &line_remap);
            prop_assert_eq!(&in_place, &merged);
        }
    }

    /// The incremental patch's index (predecessor merged with the
    /// scattered delta) equals a full rebuild over the whole batch.
    #[test]
    fn patch_merge_matches_full_rebuild(
        base in prop::collection::vec(arb_point(), 0..200),
        delta in prop::collection::vec(arb_point(), 0..60),
    ) {
        let vp = Viewport::new(extent(), 96, 80);
        let mut all = base.clone();
        all.extend(delta.iter().copied());
        let (prefix, full) = (batch(&base), batch(&all));
        let want = spec_point_entries(&vp, &full);
        for threads in THREADS {
            let mut dev = device(threads);
            let before = render_live_heatmap(&mut dev, vp, &prefix, None);
            let (patched, _) = patch_live_heatmap(&mut dev, vp, &before, &full, prefix.len(), None);
            patched.boundary().check_invariants();
            prop_assert_eq!(as_old(patched.boundary()).points, want.clone(), "threads={}", threads);
            let rebuilt = render_live_heatmap(&mut dev, vp, &full, None);
            prop_assert_eq!(patched.boundary(), rebuilt.boundary(), "threads={}", threads);
        }
    }
}

/// More than 2¹⁶ entries, on a grid with dense rows (counting order)
/// and on one with sparse rows (in-row stable sort).
#[test]
fn scatter_build_beyond_two_to_the_sixteen_entries() {
    let mut rng = TestRng::for_test("big-batch");
    let pts: Vec<(Point, f32)> = (0..110_000)
        .map(|_| arb_point().generate(&mut rng))
        .collect();
    let batch = batch(&pts);
    for (w, h) in [(37, 29), (4096, 16)] {
        let vp = Viewport::new(extent(), w, h);
        let want = spec_point_entries(&vp, &batch);
        assert!(want.len() > 1 << 16, "{} entries", want.len());
        for threads in THREADS {
            let c = render_points(&mut device(threads), vp, &batch);
            assert_eq!(
                as_old(c.boundary()).points,
                want,
                "{w}×{h} threads={threads}"
            );
        }
    }
}

// ---- the mask, against its pre-change implementation ------------------

/// The pre-change `mask_point_in_areas`, on `OldIndex`: copy the
/// canvas, run the per-texel test in row-major order looking entries up
/// in the whole sorted arrays, replace the point entries with the
/// survivors, prune entries of nulled pixels, stable re-sort.
fn old_mask_point_in_areas(
    c: &Canvas,
    cond: CountCond,
) -> (Texture<Texel>, Texture<u16>, OldIndex) {
    let input = as_old(c.boundary());
    let mut texels = c.texels().clone();
    let mut cover = c.cover().clone();
    let width = c.viewport().width();
    let mut kept: Vec<PointEntry> = Vec::new();
    for y in 0..c.viewport().height() {
        for x in 0..width {
            let mut t = texels.get(x, y);
            if t.is_null() {
                continue;
            }
            let pixel = y * width + x;
            if !t.has(0) {
                cover.set(x, y, 0);
                texels.set(x, y, Texel::null());
                continue;
            }
            let boundary_areas = input.areas_at(pixel);
            if boundary_areas.is_empty() {
                if cond.eval(cover.get(x, y) as u32) {
                    kept.extend_from_slice(input.points_at(pixel));
                } else {
                    cover.set(x, y, 0);
                    texels.set(x, y, Texel::null());
                }
            } else {
                let mut count_kept = 0u32;
                let mut weight_sum = 0.0f32;
                for e in input.points_at(pixel) {
                    // The old `Canvas::exact_area_count`.
                    let mut exact = c.cover().get(x, y) as u32;
                    for a in boundary_areas {
                        if c.resolve_area(a).contains_closed(e.loc) {
                            exact += 1;
                        }
                    }
                    if cond.eval(exact) {
                        kept.push(*e);
                        count_kept += 1;
                        weight_sum += e.weight;
                    }
                }
                if count_kept == 0 {
                    cover.set(x, y, 0);
                    texels.set(x, y, Texel::null());
                } else {
                    let mut info = t.get(0).expect("checked above");
                    info.v1 = count_kept as f32;
                    info.v2 = weight_sum;
                    t.set(0, info);
                    texels.set(x, y, t);
                }
            }
        }
    }
    let mut out = input;
    out.points = kept;
    out.retain_pixels(|pixel| !texels.get(pixel % width, pixel / width).is_null());
    out.sort();
    (texels, cover, out)
}

fn arb_polygon() -> impl Strategy<Value = Polygon> {
    ((10.0f64..90.0, 10.0f64..90.0), 6.0f64..45.0, 3usize..9)
        .prop_map(|((x, y), r, sides)| Polygon::circle(Point::new(x, y), r, sides))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `M[Mp]` over points ⊙ overlapping polygons ⊙ a polyline: texel
    /// plane, cover plane and all three entry lists equal the
    /// pre-change implementation's, at every thread count.
    #[test]
    fn point_in_areas_mask_matches_the_pre_change_implementation(
        pts in prop::collection::vec(arb_point(), 0..250),
        polys in prop::collection::vec(arb_polygon(), 1..4),
        line in prop::collection::vec((0.0f64..100.0, 0.0f64..100.0), 2..5),
        cond in prop::sample::select(vec![CountCond::Ge(1), CountCond::Eq(1), CountCond::Eq(2)]),
        dims in prop::sample::select(vec![(24u32, 24u32), (57, 31), (128, 96)]),
    ) {
        let vp = Viewport::new(extent(), dims.0, dims.1);
        let batch = batch(&pts);
        let table: AreaSource = Arc::new(polys);
        let vertices: Vec<Point> = line.iter().map(|&(x, y)| Point::new(x, y)).collect();
        let lines: Option<LineSource> = Polyline::new(vertices).map(|l| Arc::new(vec![l]));

        let build = |dev: &mut Device| {
            let cp = render_points(dev, vp, &batch);
            let cq = render_polygon_set(dev, vp, &table, BlendFn::AreaCount);
            let merged = blend(dev, &cp, &cq, BlendFn::PointOverArea);
            match &lines {
                Some(l) => {
                    let cl = render_polylines(dev, vp, l);
                    blend(dev, &merged, &cl, BlendFn::PointOverArea)
                }
                None => merged,
            }
        };
        let input = build(&mut device(1));
        let (want_texels, want_cover, want_index) = old_mask_point_in_areas(&input, cond);
        for threads in THREADS {
            let mut dev = device(threads);
            let input = build(&mut dev);
            let got = mask(&mut dev, &input, &MaskSpec::PointInAreas(cond));
            got.boundary().check_invariants();
            prop_assert_eq!(got.texels(), &want_texels, "texels, threads={}", threads);
            prop_assert_eq!(got.cover(), &want_cover, "cover, threads={}", threads);
            prop_assert_eq!(as_old(got.boundary()), want_index.clone(), "threads={}", threads);
        }
    }
}
