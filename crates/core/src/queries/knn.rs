//! k-nearest-neighbor queries (paper Section 4.4).
//!
//! The paper's workflow: build a collection of circles `C_X` of
//! increasing radii centered at the query point (each circle's id *is*
//! its radius), run the join–group-by aggregation to count points per
//! circle, mask the counts to find a radius enclosing exactly `k`
//! points, then finish with a distance-based selection at that radius.
//!
//! "Conceptually there is an infinite number of circles, but in practice
//! a finite number of circles can be created with small increments in
//! radii up to a maximum radius" — we use a geometric ladder plus an
//! exact final cut, so the returned neighbors are exact. Each rung reads
//! only point entries, so its distance selection runs in the mask's
//! entry form ([`selected_points`]) with the metric cut on top; no blend
//! or mask canvas is drawn.

use crate::boundary::PointEntry;
use crate::canvas::{record_ids, PointBatch};
use crate::device::Device;
use crate::queries::selection::{ball_cover, selected_points};
use crate::source::render_points;
use canvas_geom::{BBox, Point};
use canvas_raster::Viewport;

/// Number of circles in the radius ladder.
const LADDER_STEPS: usize = 8;

/// A viewport whose world box covers the whole metric ball of radius `r`
/// around `x`. Rendering the distance selection on this viewport means
/// viewport clipping can never drop a candidate within distance `r` —
/// exactness is resolution-independent, so reusing the caller's pixel
/// dimensions is fine.
fn ball_viewport(vp: Viewport, x: Point, r: f64) -> Viewport {
    let m = r * 1.02 + 1e-9;
    Viewport::new(
        BBox::new(Point::new(x.x - m, x.y - m), Point::new(x.x + m, x.y + m)),
        vp.width().max(1),
        vp.height().max(1),
    )
}

/// `SELECT * FROM D_P WHERE Location ∈ KNN(X, k)` — exact k nearest
/// neighbors of `x` (ties broken by record id, mirroring the paper's
/// total-order assumption via infinitesimal perturbation).
///
/// Returns record ids ordered by increasing distance; none for a
/// non-finite `x` (as a NaN distance selects nothing).
pub fn knn(dev: &mut Device, vp: Viewport, data: &PointBatch, x: Point, k: usize) -> Vec<u32> {
    if k == 0 || data.is_empty() || !x.x.is_finite() || !x.y.is_finite() {
        return Vec::new();
    }
    let k = k.min(data.len());

    // Maximum useful radius: the extent diagonal.
    let w = vp.world();
    let r_max = w.min.dist(w.max).max(1e-9);

    // The circle ladder C_X: radii r_max/2^i, i = LADDER_STEPS-1 .. 0.
    // Each rung is an exact distance selection: the points drawn on the
    // ball's viewport, read against a circle just containing the ball,
    // then cut by the true metric. The entries at the smallest viable
    // radius are kept and reused below — no second render of the same
    // circle. A rung whose circle cannot be tessellated (the radius
    // rounds away against a far `x`) selects nothing.
    let mut chosen: Vec<PointEntry> = Vec::new();
    for i in (0..LADDER_STEPS).rev() {
        let r = r_max / (1u32 << i) as f64;
        let Some(cover) = ball_cover(x, r) else {
            continue;
        };
        let cp = render_points(dev, ball_viewport(vp, x, r), data);
        let mut entries = selected_points(dev, &cp, &cover);
        entries.retain(|e| e.loc.dist_sq(x) <= r * r);
        if record_ids(&entries).len() >= k {
            chosen = entries;
            break;
        }
    }

    // Exact cut over the break-iteration selection.
    let mut candidates: Vec<(f64, u32)> = chosen
        .iter()
        .map(|e| (e.loc.dist_sq(x), e.record))
        .collect();
    // Fewer than k points within r_max of x (the ladder never broke, or
    // the ball held duplicates of fewer records): fall back to a scan.
    if candidates.len() < k {
        candidates = data
            .points
            .iter()
            .zip(&data.ids)
            .map(|(p, id)| (p.dist_sq(x), *id))
            .collect();
    }
    candidates.sort_by(|a, b| {
        a.0.partial_cmp(&b.0)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.1.cmp(&b.1))
    });
    candidates.truncate(k);
    candidates.into_iter().map(|(_, id)| id).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queries::selection::select_points_within_distance_exact;
    use canvas_geom::BBox;

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

    fn brute_knn(pts: &[Point], x: Point, k: usize) -> Vec<u32> {
        let mut d: Vec<(f64, u32)> = pts
            .iter()
            .enumerate()
            .map(|(i, p)| (p.dist_sq(x), i as u32))
            .collect();
        d.sort_by(|a, b| {
            a.0.partial_cmp(&b.0)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.1.cmp(&b.1))
        });
        d.truncate(k);
        d.into_iter().map(|(_, i)| i).collect()
    }

    #[test]
    fn knn_matches_brute_force() {
        let mut dev = Device::nvidia();
        let pts = random_points(300, 2024);
        let batch = PointBatch::from_points(pts.clone());
        for k in [1, 5, 20] {
            let got = knn(&mut dev, vp(), &batch, Point::new(50.0, 50.0), k);
            let want = brute_knn(&pts, Point::new(50.0, 50.0), k);
            assert_eq!(got, want, "k = {k}");
        }
    }

    #[test]
    fn knn_query_point_off_center() {
        let mut dev = Device::nvidia();
        let pts = random_points(200, 4);
        let batch = PointBatch::from_points(pts.clone());
        let x = Point::new(5.0, 95.0);
        let got = knn(&mut dev, vp(), &batch, x, 7);
        assert_eq!(got, brute_knn(&pts, x, 7));
    }

    #[test]
    fn knn_k_larger_than_data() {
        let mut dev = Device::nvidia();
        let pts = random_points(5, 8);
        let batch = PointBatch::from_points(pts.clone());
        let got = knn(&mut dev, vp(), &batch, Point::new(50.0, 50.0), 50);
        assert_eq!(got.len(), 5);
        assert_eq!(got, brute_knn(&pts, Point::new(50.0, 50.0), 5));
    }

    #[test]
    fn knn_edge_cases() {
        let mut dev = Device::nvidia();
        let batch = PointBatch::from_points(random_points(10, 3));
        assert!(knn(&mut dev, vp(), &batch, Point::new(1.0, 1.0), 0).is_empty());
        let empty = PointBatch::from_points(vec![]);
        assert!(knn(&mut dev, vp(), &empty, Point::new(1.0, 1.0), 3).is_empty());
    }

    #[test]
    fn knn_sees_neighbors_outside_the_viewport() {
        // Regression: the ladder used to render on the caller's viewport,
        // so with >= k in-view points the clipped selection looked
        // complete and a strictly nearer out-of-view point was dropped.
        let mut dev = Device::nvidia();
        let pts = vec![
            Point::new(80.0, 50.0),  // in view, dist 15 from x
            Point::new(105.0, 50.0), // outside the 0..100 viewport, dist 10
            Point::new(10.0, 10.0),
            Point::new(110.0, 90.0),
        ];
        let batch = PointBatch::from_points(pts.clone());
        let x = Point::new(95.0, 50.0);
        assert_eq!(knn(&mut dev, vp(), &batch, x, 1), vec![1]);
        assert_eq!(knn(&mut dev, vp(), &batch, x, 2), brute_knn(&pts, x, 2));
    }

    #[test]
    fn knn_renders_the_chosen_radius_once() {
        // Regression: the ladder used to discard the selection at the
        // break radius and re-render it identically after the loop —
        // exactly doubling the pass count when the first rung suffices.
        let mut dev = Device::nvidia();
        // A tight cluster at x: the smallest ladder radius (~1.1 world
        // units) already holds >= k points, so knn needs one selection.
        let pts: Vec<Point> = (0..10)
            .map(|i| Point::new(50.0 + 0.05 * i as f64, 50.0))
            .collect();
        let batch = PointBatch::from_points(pts);
        let x = Point::new(50.0, 50.0);

        let before = dev.stats();
        let _ = select_points_within_distance_exact(&mut dev, vp(), &batch, x, 1.0);
        let per = dev.stats().delta(&before).passes;
        assert!(per > 0);

        let before = dev.stats();
        let got = knn(&mut dev, vp(), &batch, x, 3);
        let knn_passes = dev.stats().delta(&before).passes;
        assert_eq!(got, vec![0, 1, 2]);
        assert!(
            knn_passes < 2 * per,
            "chosen radius rendered twice: {knn_passes} passes vs {per} per selection"
        );
    }

    #[test]
    fn knn_of_a_non_finite_point_is_empty() {
        // Regression: a NaN query point gave the ball a NaN viewport and
        // panicked the selection's viewport check.
        let mut dev = Device::nvidia();
        let batch = PointBatch::from_points(random_points(50, 12));
        for x in [
            Point::new(f64::NAN, 50.0),
            Point::new(50.0, f64::NAN),
            Point::new(f64::INFINITY, 50.0),
            Point::new(50.0, f64::NEG_INFINITY),
        ] {
            assert!(knn(&mut dev, vp(), &batch, x, 3).is_empty(), "{x:?}");
        }
    }

    #[test]
    fn knn_of_a_far_point_falls_back_to_the_exact_scan() {
        // Regression: at 1e16 the ball's circle rounds to a point and
        // its tessellation panicked; now that rung selects nothing and
        // the ladder falls through to the exact scan.
        let mut dev = Device::nvidia();
        let pts = random_points(60, 13);
        let batch = PointBatch::from_points(pts.clone());
        for x in [
            Point::new(1e16, 50.0),
            Point::new(-3e17, 1e17),
            Point::new(1e300, 0.0),
            Point::new(1e12, 1e12),
        ] {
            for k in [1, 3, 60] {
                let got = knn(&mut dev, vp(), &batch, x, k);
                assert_eq!(got, brute_knn(&pts, x, k), "x = {x:?}, k = {k}");
            }
        }
    }

    #[test]
    fn knn_ordered_by_distance() {
        let mut dev = Device::nvidia();
        let pts = random_points(100, 66);
        let batch = PointBatch::from_points(pts.clone());
        let x = Point::new(30.0, 70.0);
        let got = knn(&mut dev, vp(), &batch, x, 10);
        let dists: Vec<f64> = got.iter().map(|&i| pts[i as usize].dist(x)).collect();
        for w in dists.windows(2) {
            assert!(w[0] <= w[1] + 1e-12, "not sorted: {dists:?}");
        }
    }
}
