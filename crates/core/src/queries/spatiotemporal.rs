//! Spatio-temporal queries: the workload class of the paper's reference
//! system \[11\] (a GPU index for "interactive spatio-temporal queries
//! over historical data") and of its own evaluation, which varies input
//! size by pickup-*time* range.
//!
//! Time composes with the canvas algebra relationally: a temporal
//! predicate is an ordinary attribute filter that runs *before* the
//! spatial operators (exactly the optimizer scenario Section 6 raises —
//! "the optimizer might choose to first filter based on another
//! attribute, say time, before performing a spatial operation", which is
//! why the paper benchmarks the un-indexed refinement step). The spatial
//! part is the Blend+Mask selection in its entry form
//! ([`selected_points`]): both queries read only the surviving point
//! entries, so only `C_P` and `C_Q` are drawn.

use crate::canvas::{record_ids, PointBatch};
use crate::device::Device;
use crate::queries::selection::selected_points;
use crate::source::render_points;
use canvas_geom::polygon::Polygon;
use canvas_geom::Point;
use canvas_raster::Viewport;

/// A timestamped point data set (timestamps in arbitrary ticks).
#[derive(Clone, Debug, Default)]
pub struct TemporalPoints {
    pub points: Vec<Point>,
    pub timestamps: Vec<u32>,
    pub weights: Vec<f32>,
}

impl TemporalPoints {
    pub fn new(points: Vec<Point>, timestamps: Vec<u32>) -> Self {
        assert_eq!(points.len(), timestamps.len());
        let n = points.len();
        TemporalPoints {
            points,
            timestamps,
            weights: vec![1.0; n],
        }
    }

    pub fn len(&self) -> usize {
        self.points.len()
    }

    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The temporal filter: records with `t ∈ [t0, t1)`, keeping the
    /// original record ids (so spatial results join back to the table).
    pub fn in_window(&self, t0: u32, t1: u32) -> PointBatch {
        let mut batch = PointBatch::default();
        for i in 0..self.len() {
            let t = self.timestamps[i];
            if t >= t0 && t < t1 {
                batch.points.push(self.points[i]);
                batch.ids.push(i as u32);
                batch.weights.push(self.weights[i]);
            }
        }
        batch
    }
}

/// `SELECT * WHERE Location INSIDE q AND t ∈ [t0, t1)` — temporal filter
/// then spatial refinement (the plan shape of Section 6's setup).
pub fn select_in_polygon_and_window(
    dev: &mut Device,
    vp: Viewport,
    data: &TemporalPoints,
    q: &Polygon,
    t0: u32,
    t1: u32,
) -> Vec<u32> {
    let windowed = data.in_window(t0, t1);
    if windowed.is_empty() {
        return Vec::new();
    }
    let cp = render_points(dev, vp, &windowed);
    record_ids(&selected_points(dev, &cp, q))
}

/// Time series of per-window counts inside a region: the classic
/// taxi-dashboard query ("pickups in this neighborhood per hour").
/// Returns `num_windows` counts covering `[t_start, t_end)`: none for
/// zero windows, and all zeros for an empty or inverted range (which
/// holds no timestamp, as in [`select_in_polygon_and_window`]).
pub fn region_time_series(
    dev: &mut Device,
    vp: Viewport,
    data: &TemporalPoints,
    q: &Polygon,
    t_start: u32,
    t_end: u32,
    num_windows: u32,
) -> Vec<u64> {
    let mut out = vec![0u64; num_windows as usize];
    if t_end <= t_start || num_windows == 0 {
        return out;
    }
    let span = (t_end - t_start) as u64;
    // One spatial selection over the full range; the temporal GROUP BY
    // then buckets its *exact point entries* by their record timestamps —
    // spatial work is paid once, not per window.
    let full = data.in_window(t_start, t_end);
    if full.is_empty() {
        return out;
    }
    let cp = render_points(dev, vp, &full);
    let last = out.len() - 1;
    for e in selected_points(dev, &cp, q) {
        let t = data.timestamps[e.record as usize];
        let w = ((t - t_start) as u64 * num_windows as u64 / span) as usize;
        out[w.min(last)] += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use canvas_geom::BBox;

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

    fn sample() -> TemporalPoints {
        let mut state = 11u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let points: Vec<Point> = (0..500)
            .map(|_| Point::new(next() * 100.0, next() * 100.0))
            .collect();
        let timestamps: Vec<u32> = (0..500).map(|_| (next() * 240.0) as u32).collect();
        TemporalPoints::new(points, timestamps)
    }

    #[test]
    fn window_filter_keeps_original_ids() {
        let data = sample();
        let w = data.in_window(60, 120);
        assert!(!w.is_empty());
        for (i, &rec) in w.ids.iter().enumerate() {
            assert_eq!(w.points[i], data.points[rec as usize]);
            let t = data.timestamps[rec as usize];
            assert!((60..120).contains(&t));
        }
    }

    #[test]
    fn spatiotemporal_selection_matches_brute_force() {
        let mut dev = Device::nvidia();
        let data = sample();
        let q = square(20.0, 20.0, 50.0);
        let got = select_in_polygon_and_window(&mut dev, vp(), &data, &q, 0, 120);
        let want: Vec<u32> = (0..data.len())
            .filter(|&i| data.timestamps[i] < 120 && q.contains_closed(data.points[i]))
            .map(|i| i as u32)
            .collect();
        assert_eq!(got, want);
        assert!(!want.is_empty());
    }

    #[test]
    fn time_series_sums_to_total() {
        let mut dev = Device::nvidia();
        let data = sample();
        let q = square(10.0, 10.0, 70.0);
        let series = region_time_series(&mut dev, vp(), &data, &q, 0, 240, 8);
        assert_eq!(series.len(), 8);
        let total: u64 = series.iter().sum();
        let want = (0..data.len())
            .filter(|&i| data.timestamps[i] < 240 && q.contains_closed(data.points[i]))
            .count() as u64;
        assert_eq!(total, want);
        // Roughly uniform timestamps: no window should hold everything.
        assert!(series.iter().all(|&c| c < want));
    }

    #[test]
    fn time_series_window_assignment_exact() {
        let mut dev = Device::nvidia();
        // Three points, timestamps 0, 100, 239 → windows 0, 3, 7 of 8
        // over [0, 240).
        let data = TemporalPoints::new(
            vec![
                Point::new(50.0, 50.0),
                Point::new(51.0, 51.0),
                Point::new(52.0, 52.0),
            ],
            vec![0, 100, 239],
        );
        let q = square(40.0, 40.0, 20.0);
        let series = region_time_series(&mut dev, vp(), &data, &q, 0, 240, 8);
        assert_eq!(series[0], 1);
        assert_eq!(series[3], 1);
        assert_eq!(series[7], 1);
        assert_eq!(series.iter().sum::<u64>(), 3);
    }

    #[test]
    fn empty_window() {
        let mut dev = Device::nvidia();
        let data = sample();
        let q = square(0.0, 0.0, 100.0);
        let got = select_in_polygon_and_window(&mut dev, vp(), &data, &q, 1000, 2000);
        assert!(got.is_empty());
    }
}
