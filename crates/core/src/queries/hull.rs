//! Computational-geometry queries (paper Section 4.5): convex hull.
//!
//! The paper notes that computational-geometry queries beyond Voronoi
//! (convex hull, spatial skyline) may combine the algebra with stored
//! procedures or dedicated algorithms. Here the hull itself is computed
//! exactly (Andrew's monotone chain from `canvas-geom`), while the
//! canvas algebra supplies composition: the hull of a *selection* reads
//! the point entries `M[Mp'](B[⊙](C_P, C_Q))` keeps, in the mask's entry
//! form ([`selected_points`]), over a `C_P` shared with the other plans
//! over the same dataset handle.

use std::sync::Arc;

use crate::algebra::SubplanCache;
use crate::canvas::PointBatch;
use crate::device::Device;
use crate::queries::selection::{selected_points, shared_points_canvas};
use canvas_geom::hull::convex_hull;
use canvas_geom::polygon::Polygon;
use canvas_geom::Point;
use canvas_raster::Viewport;

/// Convex hull of an entire point data set (CCW ring).
pub fn hull_of_points(data: &PointBatch) -> Vec<Point> {
    convex_hull(&data.points)
}

/// Convex hull of the points selected by a polygonal constraint — a
/// composed query: `hull(M[Mp'](B[⊙](C_P, C_Q)))`. `C_P` comes from
/// `cache` when another query over the same `data` handle and viewport
/// published it ([`shared_points_canvas`]), and is published otherwise;
/// `C_Q` is drawn privately and nothing else is rendered. The exact
/// locations of the selected entries feed the hull directly.
pub fn hull_of_selection(
    dev: &mut Device,
    vp: Viewport,
    data: &Arc<PointBatch>,
    q: &Polygon,
    cache: Option<&dyn SubplanCache>,
) -> Vec<Point> {
    let cp = shared_points_canvas(dev, vp, data, cache);
    let pts: Vec<Point> = selected_points(dev, &cp, q).iter().map(|e| e.loc).collect();
    convex_hull(&pts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use canvas_geom::hull::hull_contains;
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

    #[test]
    fn hull_contains_all_inputs() {
        let pts = random_points(200, 31);
        let data = PointBatch::from_points(pts.clone());
        let h = hull_of_points(&data);
        assert!(h.len() >= 3);
        for p in &pts {
            assert!(hull_contains(&h, *p));
        }
    }

    #[test]
    fn hull_of_selection_composes() {
        let mut dev = Device::nvidia();
        let pts = random_points(300, 13);
        let q = Polygon::simple(vec![
            Point::new(20.0, 20.0),
            Point::new(80.0, 25.0),
            Point::new(70.0, 75.0),
            Point::new(25.0, 70.0),
        ])
        .unwrap();
        let data = Arc::new(PointBatch::from_points(pts.clone()));
        let h = hull_of_selection(&mut dev, vp(), &data, &q, None);
        assert!(h.len() >= 3);
        // Hull covers exactly the selected subset...
        for p in pts.iter().filter(|p| q.contains_closed(**p)) {
            assert!(hull_contains(&h, *p));
        }
        // ...and every hull vertex is a selected point.
        for v in &h {
            assert!(q.contains_closed(*v));
            assert!(pts.iter().any(|p| p == v));
        }
    }

    #[test]
    fn hull_of_empty_selection() {
        let mut dev = Device::nvidia();
        let data = Arc::new(PointBatch::from_points(vec![Point::new(90.0, 90.0)]));
        let q = Polygon::simple(vec![
            Point::new(0.0, 0.0),
            Point::new(10.0, 0.0),
            Point::new(10.0, 10.0),
            Point::new(0.0, 10.0),
        ])
        .unwrap();
        let h = hull_of_selection(&mut dev, vp(), &data, &q, None);
        assert!(h.len() < 3);
    }
}
