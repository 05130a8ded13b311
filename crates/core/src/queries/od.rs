//! Complex queries over multiple spatial attributes: origin–destination
//! selection (paper Section 4.6).
//!
//! ```text
//! SELECT * FROM D_P WHERE Origin INSIDE Q1 AND Destination INSIDE Q2
//! ```
//!
//! The plan (Figure 8(a)) composes two selections through a Geometric
//! Transform:
//!
//! ```text
//! C_origin ← M[Mp](B[⊙](C_P, C_Q1))
//! C_result ← M[Mp'](B[⊙](G[γd](C_origin), C_Q2))
//! ```
//!
//! where `γd(s) = destination(s[0][0])` looks up each surviving record's
//! destination attribute. The transform is executed over the exact point
//! entries of `C_origin` (the hybrid index is precisely the id→vector
//! link `γd` needs), so the composition stays exact even when several
//! origins share a pixel.
//!
//! Both selections are read only for their point entries, so they run in
//! the mask's entry form ([`selected_points`]): per stage only `C_Q` is
//! drawn, never the `B[⊙]` or `M[Mp]` canvas.

use crate::canvas::{record_ids, AreaSource, Canvas, PointBatch};
use crate::device::Device;
use crate::ops::mask::point_entries_in_areas;
use crate::ops::CountCond;
use crate::queries::selection::selected_points;
use crate::source::{render_points, render_polygon};
use canvas_geom::polygon::Polygon;
use canvas_geom::Point;
use canvas_raster::Viewport;

/// An origin–destination data set (taxi trips, migration flows, …) with
/// one record per trip.
#[derive(Clone, Debug, Default)]
pub struct TripBatch {
    pub origins: Vec<Point>,
    pub destinations: Vec<Point>,
    pub weights: Vec<f32>,
}

impl TripBatch {
    pub fn new(origins: Vec<Point>, destinations: Vec<Point>) -> Self {
        assert_eq!(origins.len(), destinations.len());
        let n = origins.len();
        TripBatch {
            origins,
            destinations,
            weights: vec![1.0; n],
        }
    }

    pub fn len(&self) -> usize {
        self.origins.len()
    }

    pub fn is_empty(&self) -> bool {
        self.origins.is_empty()
    }

    fn origin_batch(&self) -> PointBatch {
        PointBatch {
            points: self.origins.clone(),
            ids: (0..self.len() as u32).collect(),
            weights: self.weights.clone(),
        }
    }
}

/// Stages 1 and 2 of the plan for one origin constraint:
/// `C_origin ← M[Mp](B[⊙](C_P, C_Q1))`, then `G[γd]` — each surviving
/// record moved to its destination. The selection's point entries give
/// the id → destination lookup; the moved set re-renders as a point
/// canvas (still closed: the output is a canvas). `None` when no origin
/// survives.
fn moved_survivors(
    dev: &mut Device,
    origins: &Canvas,
    trips: &TripBatch,
    q1: &Polygon,
) -> Option<Canvas> {
    let survivors = selected_points(dev, origins, q1);
    if survivors.is_empty() {
        return None;
    }
    let moved = PointBatch {
        points: survivors
            .iter()
            .map(|e| trips.destinations[e.record as usize])
            .collect(),
        ids: survivors.iter().map(|e| e.record).collect(),
        weights: survivors.iter().map(|e| e.weight).collect(),
    };
    Some(render_points(dev, *origins.viewport(), &moved))
}

/// Selects trip records whose origin lies in `q1` *and* destination lies
/// in `q2` (Section 4.6). Returns matching record ids sorted.
pub fn select_od(
    dev: &mut Device,
    vp: Viewport,
    trips: &TripBatch,
    q1: &Polygon,
    q2: &Polygon,
) -> Vec<u32> {
    if trips.is_empty() {
        return Vec::new();
    }
    let origins = render_points(dev, vp, &trips.origin_batch());
    match moved_survivors(dev, &origins, trips, q1) {
        // Stage 3: the same selection again, over the moved canvas.
        Some(moved) => record_ids(&selected_points(dev, &moved, q2)),
        None => Vec::new(),
    }
}

/// Group-by variant: counts trips between every (origin-zone,
/// destination-zone) pair — the flow matrix used by the OD example
/// application. Zones are given as polygon tables. The origin canvas
/// is rendered once, each origin zone's selection (and its moved
/// survivors' canvas) once, and each destination zone's `C_Q` once, on
/// first use; every pair is then one entry walk
/// ([`point_entries_in_areas`]).
pub fn od_flow_matrix(
    dev: &mut Device,
    vp: Viewport,
    trips: &TripBatch,
    origin_zones: &AreaSource,
    dest_zones: &AreaSource,
) -> Vec<Vec<u64>> {
    let no = origin_zones.len();
    let nd = dest_zones.len();
    let mut matrix = vec![vec![0u64; nd]; no];
    if trips.is_empty() || no == 0 || nd == 0 {
        return matrix;
    }
    let origins = render_points(dev, vp, &trips.origin_batch());
    let mut dest_canvases: Vec<Option<Canvas>> = vec![None; nd];
    for (i, oz) in origin_zones.iter().enumerate() {
        let Some(moved) = moved_survivors(dev, &origins, trips, oz) else {
            continue;
        };
        for (j, cq) in dest_canvases.iter_mut().enumerate() {
            let cq = cq.get_or_insert_with(|| render_polygon(dev, vp, dest_zones, j, 1));
            // Trip ids are unique, so every kept entry is one trip.
            matrix[i][j] = point_entries_in_areas(dev, &moved, cq, CountCond::Ge(1)).len() as u64;
        }
    }
    matrix
}

#[cfg(test)]
mod tests {
    use super::*;
    use canvas_geom::BBox;
    use std::sync::Arc;

    fn vp() -> Viewport {
        Viewport::new(
            BBox::new(Point::new(0.0, 0.0), Point::new(100.0, 100.0)),
            64,
            64,
        )
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

    fn random_trips(n: usize, seed: u64) -> TripBatch {
        let mut state = seed.max(1);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let origins = (0..n)
            .map(|_| Point::new(next() * 100.0, next() * 100.0))
            .collect();
        let destinations = (0..n)
            .map(|_| Point::new(next() * 100.0, next() * 100.0))
            .collect();
        TripBatch::new(origins, destinations)
    }

    #[test]
    fn od_selection_matches_brute_force() {
        let mut dev = Device::nvidia();
        let trips = random_trips(400, 19);
        let q1 = square(10.0, 10.0, 45.0);
        let q2 = square(50.0, 50.0, 45.0);
        let got = select_od(&mut dev, vp(), &trips, &q1, &q2);
        let want: Vec<u32> = (0..trips.len())
            .filter(|&i| {
                q1.contains_closed(trips.origins[i]) && q2.contains_closed(trips.destinations[i])
            })
            .map(|i| i as u32)
            .collect();
        assert_eq!(got, want);
        assert!(!want.is_empty(), "test needs a non-trivial answer");
    }

    #[test]
    fn od_conjunction_is_order_insensitive() {
        // Swapping constraint roles must select the reverse trips.
        let mut dev = Device::nvidia();
        let trips = TripBatch::new(
            vec![Point::new(20.0, 20.0), Point::new(70.0, 70.0)],
            vec![Point::new(70.0, 70.0), Point::new(20.0, 20.0)],
        );
        let a = square(10.0, 10.0, 20.0); // around (20,20)
        let b = square(60.0, 60.0, 20.0); // around (70,70)
        assert_eq!(select_od(&mut dev, vp(), &trips, &a, &b), vec![0]);
        assert_eq!(select_od(&mut dev, vp(), &trips, &b, &a), vec![1]);
    }

    #[test]
    fn od_shared_pixel_origins_resolved_exactly() {
        // Two trips whose origins share a pixel but whose destinations
        // differ: texel-level id collision must not lose a record.
        let mut dev = Device::nvidia();
        let trips = TripBatch::new(
            vec![Point::new(20.0, 20.0), Point::new(20.3, 20.3)],
            vec![Point::new(80.0, 80.0), Point::new(5.0, 5.0)],
        );
        let q1 = square(15.0, 15.0, 10.0);
        let q2 = square(75.0, 75.0, 10.0);
        assert_eq!(select_od(&mut dev, vp(), &trips, &q1, &q2), vec![0]);
    }

    #[test]
    fn od_empty_inputs() {
        let mut dev = Device::nvidia();
        let empty = TripBatch::default();
        let q = square(0.0, 0.0, 50.0);
        assert!(select_od(&mut dev, vp(), &empty, &q, &q).is_empty());
    }

    #[test]
    fn flow_matrix_counts() {
        let mut dev = Device::nvidia();
        let trips = TripBatch::new(
            vec![
                Point::new(20.0, 20.0),
                Point::new(25.0, 25.0),
                Point::new(70.0, 70.0),
            ],
            vec![
                Point::new(75.0, 75.0),
                Point::new(22.0, 22.0),
                Point::new(20.0, 25.0),
            ],
        );
        let zones: crate::canvas::AreaSource = Arc::new(vec![
            square(10.0, 10.0, 25.0), // zone 0: around (20,20)
            square(60.0, 60.0, 25.0), // zone 1: around (70,70)
        ]);
        let m = od_flow_matrix(&mut dev, vp(), &trips, &zones, &zones);
        assert_eq!(m[0][1], 1); // trip 0: zone0 → zone1
        assert_eq!(m[0][0], 1); // trip 1: zone0 → zone0
        assert_eq!(m[1][0], 1); // trip 2: zone1 → zone0
        assert_eq!(m[1][1], 0);
    }
}
