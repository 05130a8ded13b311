//! Spatial join queries (paper Section 4.2).
//!
//! * **Type I** `points ⋈ polygons` — "the same expression as the
//!   selection, with the single query polygon replaced by a collection":
//!   the point canvas renders once, then each polygon record blends and
//!   masks against it.
//! * **Type II** `polygons ⋈ polygons` — per candidate pair the same
//!   `B[⊕]` + `M[My]` test used by polygonal selection of polygons; an
//!   MBR filter prunes pairs first (the paper: "can be made more
//!   efficient if spatial indexes are available").
//! * **Type III** `points ⋈ points` (distance join) — the RHS becomes a
//!   collection of circles via the `Circ` utility operator, reducing to
//!   Type I.
//!
//! Types I and II filter through a CSR [`GridIndex`] each builds over
//! its own inputs — the grid-filter-then-refine pattern — so no caller
//! chooses or sizes an index.

use std::sync::Arc;

use crate::canvas::{AreaSource, PointBatch};
use crate::device::Device;
use crate::info::BlendFn;
use crate::ops::{CountCond, MaskSpec};
use canvas_geom::grid::{GridIndex, VisitedMask};
use canvas_geom::polygon::Polygon;
use canvas_geom::BBox;
use canvas_raster::Viewport;

/// Type I join: all `(point_record, polygon_record)` pairs with the
/// point inside the polygon (exact). Pairs are sorted by polygon then
/// point record.
///
/// A grid over the points skips every polygon whose MBR cells hold no
/// point before any canvas work: no polygon render, no full-screen
/// blend, no mask pass. A point inside a polygon always registers in a
/// cell its MBR overlaps, so a skipped polygon has no pairs.
pub fn join_points_polygons(
    dev: &mut Device,
    vp: Viewport,
    points: &PointBatch,
    polygons: &AreaSource,
) -> Vec<(u32, u32)> {
    let index = GridIndex::over(points.points.iter().map(|&p| BBox::new(p, p)));
    // Render the point side once; every polygon reuses it (this sharing
    // is what the RasterJoin aggregation plan exploits too).
    let cp = crate::source::render_points(dev, vp, points);
    let mut pairs = Vec::new();
    for (j, poly) in polygons.iter().enumerate() {
        if index.query_iter(&poly.bbox()).next().is_none() {
            continue;
        }
        let cy = crate::source::render_polygon(dev, vp, polygons, j, j as u32);
        let merged = crate::ops::blend(dev, &cp, &cy, BlendFn::PointOverArea);
        let sel = crate::ops::mask(dev, &merged, &MaskSpec::PointInAreas(CountCond::Ge(1)));
        for rec in sel.point_records() {
            pairs.push((rec, j as u32));
        }
    }
    pairs.sort_unstable_by_key(|&(p, y)| (y, p));
    pairs
}

/// Type II join: all intersecting `(left_record, right_record)` polygon
/// pairs (exact). A grid over the right side's MBRs serves the filter;
/// its candidates pass an exact MBR-overlap test before any canvas work,
/// so only pairs whose MBRs meet are rendered, and the canvas + exact
/// refinement test decides each of them.
pub fn join_polygons_polygons(
    dev: &mut Device,
    vp: Viewport,
    left: &AreaSource,
    right: &AreaSource,
) -> Vec<(u32, u32)> {
    let boxes: Vec<BBox> = right.iter().map(Polygon::bbox).collect();
    let index = GridIndex::over(boxes.iter().copied());
    let mut visited = VisitedMask::new();
    let mut pairs = Vec::new();
    let mut cand = Vec::new();
    for (i, a) in left.iter().enumerate() {
        let a_box = a.bbox();
        cand.clear();
        index.query_into(&a_box, &mut visited, &mut cand);
        cand.retain(|&j| boxes[j as usize].intersects(&a_box));
        if cand.is_empty() {
            continue;
        }
        let ca = crate::source::render_polygon(dev, vp, left, i, i as u32);
        for &j in &cand {
            let cb = crate::source::render_polygon(dev, vp, right, j as usize, j);
            let merged = crate::ops::blend(dev, &ca, &cb, BlendFn::AreaCount);
            let sel = crate::ops::mask(dev, &merged, &MaskSpec::AreaCount(CountCond::Eq(2)));
            if sel.is_empty() {
                continue;
            }
            let certain = sel.non_null().any(|(x, y, _)| sel.cover().get(x, y) >= 2);
            if certain || a.intersects(&right[j as usize]) {
                pairs.push((i as u32, j));
            }
        }
    }
    pairs.sort_unstable();
    pairs
}

/// Type III distance join: pairs `(left_record, right_record)` with
/// `dist ≤ radius` (exact). The right side becomes circles (Section 4.2:
/// "one set of points of the distance join can be converted into a
/// collection of circles"), reducing to Type I; a final metric check
/// removes circle-tessellation slack.
pub fn distance_join(
    dev: &mut Device,
    vp: Viewport,
    left: &PointBatch,
    right: &PointBatch,
    radius: f64,
) -> Vec<(u32, u32)> {
    assert!(radius > 0.0, "distance join radius must be positive");
    let circles: AreaSource = Arc::new(
        right
            .points
            .iter()
            .map(|&c| Polygon::circle(c, radius * 1.01, crate::ops::utility::CIRCLE_SEGMENTS))
            .collect(),
    );
    let candidate_pairs = join_points_polygons(dev, vp, left, &circles);
    let r2 = radius * radius;
    candidate_pairs
        .into_iter()
        .filter(|&(p, c)| left.points[p as usize].dist_sq(right.points[c as usize]) <= r2)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use canvas_geom::{BBox, Point};

    fn vp() -> Viewport {
        Viewport::new(
            BBox::new(Point::new(0.0, 0.0), Point::new(100.0, 100.0)),
            64,
            64,
        )
    }

    fn random_points(n: usize, seed: u64) -> Vec<Point> {
        let mut state = seed.max(1);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..n)
            .map(|_| Point::new(next() * 100.0, next() * 100.0))
            .collect()
    }

    fn square(x0: f64, y0: f64, side: f64) -> Polygon {
        Polygon::simple(vec![
            Point::new(x0, y0),
            Point::new(x0 + side, y0),
            Point::new(x0 + side, y0 + side),
            Point::new(x0, y0 + side),
        ])
        .unwrap()
    }

    #[test]
    fn type1_join_matches_brute_force() {
        let mut dev = Device::nvidia();
        let pts = random_points(200, 5);
        let polys: AreaSource = Arc::new(vec![
            square(10.0, 10.0, 30.0),
            square(50.0, 50.0, 40.0),
            square(25.0, 25.0, 30.0), // overlaps both others
        ]);
        let batch = PointBatch::from_points(pts.clone());
        let got = join_points_polygons(&mut dev, vp(), &batch, &polys);
        let mut want = Vec::new();
        for (j, poly) in polys.iter().enumerate() {
            for (i, p) in pts.iter().enumerate() {
                if poly.contains_closed(*p) {
                    want.push((i as u32, j as u32));
                }
            }
        }
        want.sort_unstable_by_key(|&(p, y)| (y, p));
        assert_eq!(got, want);
        assert!(!got.is_empty());
    }

    #[test]
    fn type1_join_point_in_overlap_appears_twice() {
        let mut dev = Device::nvidia();
        let polys: AreaSource = Arc::new(vec![square(10.0, 10.0, 40.0), square(30.0, 30.0, 40.0)]);
        let batch = PointBatch::from_points(vec![Point::new(35.0, 35.0)]);
        let got = join_points_polygons(&mut dev, vp(), &batch, &polys);
        assert_eq!(got, vec![(0, 0), (0, 1)]);
    }

    #[test]
    fn type2_join_matches_brute_force() {
        let mut dev = Device::nvidia();
        let left: AreaSource = Arc::new(vec![
            square(5.0, 5.0, 20.0),
            square(60.0, 60.0, 20.0),
            square(40.0, 5.0, 20.0),
        ]);
        let right: AreaSource = Arc::new(vec![
            square(15.0, 15.0, 20.0), // hits left 0
            square(90.0, 90.0, 5.0),  // disjoint
            square(50.0, 10.0, 20.0), // hits left 2
            square(65.0, 65.0, 5.0),  // inside left 1
        ]);
        let got = join_polygons_polygons(&mut dev, vp(), &left, &right);
        let mut want = Vec::new();
        for (i, a) in left.iter().enumerate() {
            for (j, b) in right.iter().enumerate() {
                if a.intersects(b) {
                    want.push((i as u32, j as u32));
                }
            }
        }
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn distance_join_matches_brute_force() {
        let mut dev = Device::nvidia();
        let lpts = random_points(120, 11);
        let rpts = random_points(15, 17);
        let radius = 12.0;
        let got = distance_join(
            &mut dev,
            vp(),
            &PointBatch::from_points(lpts.clone()),
            &PointBatch::from_points(rpts.clone()),
            radius,
        );
        let mut want = Vec::new();
        for (j, c) in rpts.iter().enumerate() {
            for (i, p) in lpts.iter().enumerate() {
                if p.dist(*c) <= radius {
                    want.push((i as u32, j as u32));
                }
            }
        }
        want.sort_unstable_by_key(|&(p, y)| (y, p));
        assert_eq!(got, want);
        assert!(!got.is_empty());
    }

    #[test]
    fn type2_join_renders_exactly_the_mbr_overlapping_pairs() {
        // Right records 1, 4 and 5 sit in grid cells the left MBRs
        // reach without touching any left MBR: the filter must render
        // only the pairs whose MBRs meet.
        let left: AreaSource = Arc::new(vec![
            square(5.0, 5.0, 20.0),
            square(60.0, 60.0, 20.0),
            square(40.0, 5.0, 20.0),
        ]);
        let right: AreaSource = Arc::new(vec![
            square(15.0, 15.0, 20.0),
            square(90.0, 90.0, 5.0),
            square(50.0, 10.0, 20.0),
            square(65.0, 65.0, 5.0),
            square(26.0, 26.0, 2.0),
            square(81.0, 40.0, 3.0),
        ]);
        let mut dev = Device::nvidia();
        let got = join_polygons_polygons(&mut dev, vp(), &left, &right);
        let mut want = Vec::new();
        for (i, a) in left.iter().enumerate() {
            for (j, b) in right.iter().enumerate() {
                if a.intersects(b) {
                    want.push((i as u32, j as u32));
                }
            }
        }
        assert_eq!(got, want);
        // Brute-force MBR filter: each left record joined alone with
        // the right records its MBR meets costs what the whole join
        // spends on that record.
        let mut brute = Device::nvidia();
        for (i, a) in left.iter().enumerate() {
            let near: AreaSource = Arc::new(
                right
                    .iter()
                    .filter(|b| b.bbox().intersects(&a.bbox()))
                    .cloned()
                    .collect(),
            );
            let one: AreaSource = Arc::new(vec![left[i].clone()]);
            join_polygons_polygons(&mut brute, vp(), &one, &near);
        }
        assert_eq!(dev.stats().passes, brute.stats().passes);
    }

    #[test]
    fn empty_inputs() {
        let mut dev = Device::nvidia();
        let empty_polys: AreaSource = Arc::new(vec![]);
        let batch = PointBatch::from_points(random_points(10, 1));
        assert!(join_points_polygons(&mut dev, vp(), &batch, &empty_polys).is_empty());
        let empty_pts = PointBatch::from_points(vec![]);
        let polys: AreaSource = Arc::new(vec![square(0.0, 0.0, 50.0)]);
        assert!(join_points_polygons(&mut dev, vp(), &empty_pts, &polys).is_empty());
    }
}
