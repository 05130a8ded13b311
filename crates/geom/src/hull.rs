//! Convex hull (Andrew's monotone chain) — one of the paper's
//! "computational geometry queries" (Section 4.5).

use crate::point::Point;

/// Convex hull of a point set, returned as a CCW ring without a repeated
/// closing vertex. Collinear boundary points are dropped, and so are
/// points with a non-finite coordinate (a NaN has no place in the sort,
/// and an infinite point has no finite hull).
///
/// Returns fewer than 3 points when the input is degenerate (empty,
/// single point, or all collinear).
pub fn convex_hull(points: &[Point]) -> Vec<Point> {
    let mut pts: Vec<Point> = points
        .iter()
        .copied()
        .filter(|p| p.x.is_finite() && p.y.is_finite())
        .collect();
    pts.sort_by(|a, b| {
        a.x.partial_cmp(&b.x)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.y.partial_cmp(&b.y).unwrap_or(std::cmp::Ordering::Equal))
    });
    pts.dedup();
    let n = pts.len();
    if n < 3 {
        return pts;
    }

    let cross = |o: Point, a: Point, b: Point| (a - o).cross(b - o);
    let mut hull: Vec<Point> = Vec::with_capacity(2 * n);

    // Lower hull.
    for &p in &pts {
        while hull.len() >= 2 && cross(hull[hull.len() - 2], hull[hull.len() - 1], p) <= 0.0 {
            hull.pop();
        }
        hull.push(p);
    }
    // Upper hull.
    let lower_len = hull.len() + 1;
    for &p in pts.iter().rev().skip(1) {
        while hull.len() >= lower_len && cross(hull[hull.len() - 2], hull[hull.len() - 1], p) <= 0.0
        {
            hull.pop();
        }
        hull.push(p);
    }
    hull.pop(); // last point equals the first
    hull
}

/// True if `p` is inside or on the convex hull given as a CCW ring.
pub fn hull_contains(hull: &[Point], p: Point) -> bool {
    let n = hull.len();
    if n < 3 {
        return false;
    }
    for i in 0..n {
        let a = hull[i];
        let b = hull[(i + 1) % n];
        if (b - a).cross(p - a) < -crate::EPS {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicates::is_ccw;

    #[test]
    fn square_with_interior_points() {
        let pts = vec![
            Point::new(0.0, 0.0),
            Point::new(4.0, 0.0),
            Point::new(4.0, 4.0),
            Point::new(0.0, 4.0),
            Point::new(2.0, 2.0),
            Point::new(1.0, 3.0),
        ];
        let h = convex_hull(&pts);
        assert_eq!(h.len(), 4);
        assert!(is_ccw(&h));
        for p in &pts {
            assert!(hull_contains(&h, *p));
        }
        assert!(!hull_contains(&h, Point::new(5.0, 5.0)));
    }

    #[test]
    fn collinear_input() {
        let pts = vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 1.0),
            Point::new(2.0, 2.0),
        ];
        let h = convex_hull(&pts);
        assert!(h.len() < 3);
    }

    #[test]
    fn collinear_boundary_points_dropped() {
        let pts = vec![
            Point::new(0.0, 0.0),
            Point::new(2.0, 0.0),
            Point::new(4.0, 0.0), // collinear on bottom edge
            Point::new(4.0, 4.0),
            Point::new(0.0, 4.0),
        ];
        let h = convex_hull(&pts);
        assert_eq!(h.len(), 4);
        assert!(!h.contains(&Point::new(2.0, 0.0)));
    }

    #[test]
    fn duplicates_handled() {
        let pts = vec![
            Point::new(0.0, 0.0),
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(0.5, 1.0),
        ];
        let h = convex_hull(&pts);
        assert_eq!(h.len(), 3);
    }

    #[test]
    fn non_finite_points_are_dropped() {
        let mut state = 7u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        // Regression: a NaN made the sort's comparator inconsistent, and
        // the standard sort panics on that.
        let mut pts: Vec<Point> = (0..1000).map(|_| Point::new(next(), next())).collect();
        for (i, p) in pts.iter_mut().enumerate() {
            if i % 7 == 0 {
                p.x = f64::NAN;
            } else if i % 11 == 0 {
                p.y = f64::INFINITY;
            }
        }
        let kept: Vec<Point> = pts
            .iter()
            .copied()
            .filter(|p| p.x.is_finite() && p.y.is_finite())
            .collect();
        let h = convex_hull(&pts);
        assert_eq!(h, convex_hull(&kept));
        assert!(h.len() >= 3 && kept.iter().all(|p| hull_contains(&h, *p)));
    }

    #[test]
    fn tiny_inputs() {
        assert!(convex_hull(&[]).is_empty());
        assert_eq!(convex_hull(&[Point::ORIGIN]).len(), 1);
        assert_eq!(convex_hull(&[Point::ORIGIN, Point::new(1.0, 1.0)]).len(), 2);
    }
}
