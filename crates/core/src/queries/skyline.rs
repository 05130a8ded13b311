//! Spatial skyline (paper Section 4.5's computational-geometry class).
//!
//! Given data points `P` and query sites `Q`, the spatial skyline is the
//! set of data points not *spatially dominated*: `p` dominates `p'` when
//! `dist(p, q) ≤ dist(p', q)` for every `q ∈ Q` with at least one strict
//! inequality. (Classic example: hotels vs. a conference venue and a
//! beach.)
//!
//! Like the convex hull, this composes with the algebra rather than
//! being expressed in it: the candidate set is a canvas selection read in
//! the mask's entry form ([`selected_points`]) over a `C_P` shared with
//! the other plans over the same dataset handle, and the dominance test
//! runs on the exact point entries it keeps.

use std::sync::Arc;

use crate::algebra::SubplanCache;
use crate::canvas::PointBatch;
use crate::device::Device;
use crate::queries::selection::{selected_points, shared_points_canvas};
use canvas_geom::polygon::Polygon;
use canvas_geom::Point;
use canvas_raster::Viewport;

/// True when `a` spatially dominates `b` w.r.t. the query sites.
pub fn dominates(a: Point, b: Point, sites: &[Point]) -> bool {
    let mut strict = false;
    for q in sites {
        let da = a.dist_sq(*q);
        let db = b.dist_sq(*q);
        if da > db {
            return false;
        }
        if da < db {
            strict = true;
        }
    }
    strict
}

/// Spatial skyline of a whole point set: record ids of non-dominated
/// points, sorted. `O(n²·|Q|)` block-nested-loop — fine for the result
/// cardinalities skylines produce.
pub fn skyline(data: &PointBatch, sites: &[Point]) -> Vec<u32> {
    skyline_of(&data.points, &data.ids, sites)
}

/// Spatial skyline restricted to the points selected by a polygonal
/// constraint — algebra selection composed with the skyline procedure.
/// `C_P` comes from `cache` when another query over the same `data`
/// handle and viewport published it ([`shared_points_canvas`]), and is
/// published otherwise; `C_Q` is drawn privately and nothing else is
/// rendered.
pub fn skyline_of_selection(
    dev: &mut Device,
    vp: Viewport,
    data: &Arc<PointBatch>,
    constraint: &Polygon,
    sites: &[Point],
    cache: Option<&dyn SubplanCache>,
) -> Vec<u32> {
    let cp = shared_points_canvas(dev, vp, data, cache);
    let entries = selected_points(dev, &cp, constraint);
    let pts: Vec<Point> = entries.iter().map(|e| e.loc).collect();
    let ids: Vec<u32> = entries.iter().map(|e| e.record).collect();
    skyline_of(&pts, &ids, sites)
}

fn skyline_of(pts: &[Point], ids: &[u32], sites: &[Point]) -> Vec<u32> {
    if sites.is_empty() {
        return Vec::new();
    }
    let mut out = Vec::new();
    'candidate: for (i, p) in pts.iter().enumerate() {
        for (j, other) in pts.iter().enumerate() {
            if i != j && dominates(*other, *p, sites) {
                continue 'candidate;
            }
        }
        out.push(ids[i]);
    }
    out.sort_unstable();
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use canvas_geom::BBox;

    fn extent_vp() -> Viewport {
        Viewport::new(
            BBox::new(Point::new(0.0, 0.0), Point::new(100.0, 100.0)),
            64,
            64,
        )
    }

    #[test]
    fn dominance_basics() {
        let sites = vec![Point::new(0.0, 0.0), Point::new(10.0, 0.0)];
        // a closer to both sites than b.
        let a = Point::new(5.0, 1.0);
        let b = Point::new(5.0, 5.0);
        assert!(dominates(a, b, &sites));
        assert!(!dominates(b, a, &sites));
        // Trade-off: each closer to one site: neither dominates.
        let near0 = Point::new(1.0, 0.0);
        let near1 = Point::new(9.0, 0.0);
        assert!(!dominates(near0, near1, &sites));
        assert!(!dominates(near1, near0, &sites));
        // Equal points: no strict inequality, no domination.
        assert!(!dominates(a, a, &sites));
    }

    #[test]
    fn skyline_single_site_is_nearest_point() {
        let pts = vec![
            Point::new(10.0, 10.0),
            Point::new(20.0, 20.0),
            Point::new(30.0, 30.0),
        ];
        let batch = PointBatch::from_points(pts);
        let sky = skyline(&batch, &[Point::new(0.0, 0.0)]);
        assert_eq!(sky, vec![0]);
    }

    #[test]
    fn skyline_contains_per_site_nearest() {
        let mut state = 9u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let pts: Vec<Point> = (0..200)
            .map(|_| Point::new(next() * 100.0, next() * 100.0))
            .collect();
        let sites = vec![Point::new(10.0, 90.0), Point::new(90.0, 10.0)];
        let batch = PointBatch::from_points(pts.clone());
        let sky = skyline(&batch, &sites);
        // The nearest point to each site is never dominated.
        for q in &sites {
            let nearest = pts
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| a.dist_sq(*q).partial_cmp(&b.dist_sq(*q)).unwrap())
                .map(|(i, _)| i as u32)
                .unwrap();
            assert!(sky.contains(&nearest), "site {q} nearest {nearest} missing");
        }
        // Every non-skyline point is dominated by some skyline point.
        for (i, p) in pts.iter().enumerate() {
            if !sky.contains(&(i as u32)) {
                assert!(
                    sky.iter().any(|&s| dominates(pts[s as usize], *p, &sites)),
                    "point {i} excluded but undominated"
                );
            }
        }
    }

    #[test]
    fn skyline_of_selection_composes() {
        let mut dev = Device::nvidia();
        let pts = vec![
            Point::new(30.0, 30.0), // inside, near site
            Point::new(40.0, 40.0), // inside, dominated by 0
            Point::new(5.0, 5.0),   // outside constraint (would dominate!)
        ];
        let constraint = Polygon::simple(vec![
            Point::new(20.0, 20.0),
            Point::new(60.0, 20.0),
            Point::new(60.0, 60.0),
            Point::new(20.0, 60.0),
        ])
        .unwrap();
        let sites = vec![Point::new(0.0, 0.0)];
        let batch = Arc::new(PointBatch::from_points(pts));
        let sky = skyline_of_selection(&mut dev, extent_vp(), &batch, &constraint, &sites, None);
        // Point 2 is excluded by the constraint, so point 0 wins.
        assert_eq!(sky, vec![0]);
    }

    #[test]
    fn empty_inputs() {
        let batch = PointBatch::from_points(vec![]);
        assert!(skyline(&batch, &[Point::ORIGIN]).is_empty());
        let batch = PointBatch::from_points(vec![Point::new(1.0, 1.0)]);
        assert!(skyline(&batch, &[]).is_empty());
    }
}
