//! Seeded inputs shared by the workloads: the point table, the zones,
//! the query polygons and the four linked views.
//!
//! The seed picks the data sample, polygon outlines, walk order and
//! jitter. It never picks *where* or *how big*: positions come from
//! fixed lattices and polygons are calibrated to a fixed selectivity,
//! so every seed asks the system for the same amount of work and the
//! spread between seeds stays inside the spread between runs.

use std::sync::Arc;

use canvas_core::canvas::AreaSource;
use canvas_core::PointBatch;
use canvas_datagen as datagen;
use canvas_engine::Query;
use canvas_geom::{BBox, Point, Polygon};
use canvas_raster::Viewport;

use crate::digest::Digest;
use crate::spec::WorkloadKind;

/// The synthetic city every generator draws in.
pub fn extent() -> BBox {
    BBox::new(Point::new(0.0, 0.0), Point::new(100.0, 100.0))
}

/// SplitMix64 — the benchmark's own generator for walks and step
/// parameters (datasets come from `canvas-datagen`, seeded from this).
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// Independent stream for one (workload, purpose, index).
    pub fn stream(seed: u64, kind: WorkloadKind, purpose: u64, index: u64) -> Self {
        let mut r = Rng(seed ^ 0x6A09_E667_F3BC_C909);
        r.0 = r.next_u64() ^ (kind as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        r.0 = r.next_u64() ^ purpose.wrapping_mul(0xD1B5_4A32_D192_ED03);
        r.0 = r.next_u64() ^ index.wrapping_mul(0x8CB9_2BA7_2F3D_8DD7);
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[-amp, amp)`.
    pub fn jitter(&mut self, amp: f64) -> f64 {
        (2.0 * self.unit() - 1.0) * amp
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }
}

/// Data sizes of one workload run.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    pub points: usize,
    pub zones: usize,
    pub trips: usize,
    pub resolution: u32,
    /// Steps per lap (per client on the two-client workload).
    pub steps: usize,
}

impl Sizes {
    pub fn of(kind: WorkloadKind, smoke: bool) -> Sizes {
        match (kind, smoke) {
            (WorkloadKind::ExploreCold, false) => Sizes {
                points: 200_000,
                zones: 16,
                trips: 20_000,
                resolution: 512,
                steps: 36,
            },
            (WorkloadKind::ExploreCold, true) => Sizes {
                points: 20_000,
                zones: 16,
                trips: 2_000,
                resolution: 128,
                steps: 9,
            },
            (WorkloadKind::DashboardRevisit, false) => Sizes {
                points: 200_000,
                zones: 16,
                trips: 20_000,
                resolution: 256,
                steps: 2_800,
            },
            (WorkloadKind::DashboardRevisit, true) => Sizes {
                points: 20_000,
                zones: 16,
                trips: 2_000,
                resolution: 64,
                steps: 150,
            },
            (WorkloadKind::AnalyticsBatch, false) => Sizes {
                points: 100_000,
                zones: 16,
                trips: 50_000,
                resolution: 256,
                steps: 30,
            },
            (WorkloadKind::AnalyticsBatch, true) => Sizes {
                points: 10_000,
                zones: 16,
                trips: 5_000,
                resolution: 64,
                steps: 4,
            },
            (WorkloadKind::LiveIngest, false) => Sizes {
                points: 500_000,
                zones: 16,
                trips: 20_000,
                resolution: 256,
                steps: 130,
            },
            (WorkloadKind::LiveIngest, true) => Sizes {
                points: 50_000,
                zones: 16,
                trips: 2_000,
                resolution: 64,
                steps: 12,
            },
        }
    }
}

/// The datasets and query geometry of one run.
pub struct World {
    pub kind: WorkloadKind,
    pub seed: u64,
    pub sizes: Sizes,
    pub points: Arc<PointBatch>,
    pub zones: AreaSource,
    /// The user's drawn district — the `q` of the selection, heatmap
    /// and choropleth views. Calibrated to hold 35 % of the points.
    pub district: Polygon,
    /// Wall seconds `taxi_pickups` took (reported as `datagen.points_ms`).
    pub points_gen_s: f64,
}

impl World {
    pub fn generate(kind: WorkloadKind, seed: u64, smoke: bool) -> World {
        let sizes = Sizes::of(kind, smoke);
        let e = extent();
        let data_seed = Rng::stream(seed, kind, 1, 0).next_u64();
        let t0 = std::time::Instant::now();
        let pts = datagen::taxi_pickups(&e, sizes.points, data_seed);
        let points_gen_s = t0.elapsed().as_secs_f64();
        // Calibrating against a prefix keeps set-up short; the sample is
        // i.i.d., so a prefix is as good as the whole.
        let sample = &pts[..pts.len().min(20_000)];
        let district = datagen::calibrated_polygon(
            &BBox::new(Point::new(12.0, 12.0), Point::new(88.0, 88.0)),
            sample,
            0.35,
            48,
            data_seed ^ 0xD157,
        );
        let zones: AreaSource =
            Arc::new(datagen::neighborhoods(&e, sizes.zones, data_seed ^ 0x20E5));
        World {
            kind,
            seed,
            sizes,
            points: Arc::new(PointBatch::from_points(pts)),
            zones,
            district,
            points_gen_s,
        }
    }

    /// The four linked views of the exploration and dashboard
    /// workloads; they share `C_P` and `C_Q`.
    pub fn four_views(&self) -> Vec<Query> {
        vec![
            Query::SelectPoints {
                data: self.points.clone(),
                q: self.district.clone(),
            },
            Query::SelectionHeatmap {
                data: self.points.clone(),
                q: self.district.clone(),
            },
            Query::PolygonDensity {
                table: self.zones.clone(),
                q: self.district.clone(),
            },
            Query::AggregateByZone {
                data: self.points.clone(),
                zones: self.zones.clone(),
            },
        ]
    }

    /// Digest of the generated inputs (point coordinates, zone and
    /// district vertices) — the data half of `op_list_digest`.
    pub fn digest(&self) -> Digest {
        let mut d = Digest::new();
        d.word(self.points.len() as u64);
        for p in &self.points.points {
            d.point(*p);
        }
        digest_polygon(&mut d, &self.district);
        d.word(self.zones.len() as u64);
        for z in self.zones.iter() {
            digest_polygon(&mut d, z);
        }
        d
    }
}

pub fn digest_polygon(d: &mut Digest, p: &Polygon) {
    d.word(p.num_vertices() as u64);
    for v in p.outer().vertices() {
        d.point(*v);
    }
    for h in p.holes() {
        for v in h.vertices() {
            d.point(*v);
        }
    }
}

/// A square window of side `width` centered on `c`, kept inside the
/// city (shifted, never clipped, so every window has the same area).
pub fn window(c: Point, width: f64, resolution: u32) -> Viewport {
    let e = extent();
    let half = 0.5 * width;
    let cx = c.x.clamp(e.min.x + half, e.max.x - half);
    let cy = c.y.clamp(e.min.y + half, e.max.y - half);
    Viewport::square_pixels(
        BBox::new(
            Point::new(cx - half, cy - half),
            Point::new(cx + half, cy + half),
        ),
        resolution,
    )
}

/// Jitter every generator applies to a lattice stop, city units.
pub const JITTER: f64 = 0.5;

/// Where a lattice stop `(u, v)` (fractions of the unit square) puts
/// the center of a window of side `width`: the stops spread over the
/// centers that keep the whole window in the city with room for the
/// jitter, so edge stops never pile onto one clamped window.
pub fn place(stop: (f64, f64), width: f64, rng: &mut Rng) -> Point {
    let e = extent();
    let margin = 0.5 * width + JITTER;
    Point::new(
        e.min.x + margin + stop.0 * (e.width() - 2.0 * margin) + rng.jitter(JITTER),
        e.min.y + margin + stop.1 * (e.height() - 2.0 * margin) + rng.jitter(JITTER),
    )
}

/// A `cols × rows` lattice of stops in the unit square, serpentine
/// order — the fixed set of places a walk visits; seeds only rotate the
/// start and jitter each stop.
pub fn lattice(cols: usize, rows: usize) -> Vec<(f64, f64)> {
    let mut out = Vec::with_capacity(cols * rows);
    for row in 0..rows {
        for k in 0..cols {
            let col = if row % 2 == 0 { k } else { cols - 1 - k };
            out.push((
                (col as f64 + 0.5) / cols as f64,
                (row as f64 + 0.5) / rows as f64,
            ));
        }
    }
    out
}

/// The lattice for about `n` stops: `ceil(sqrt(n))` columns and as many
/// full rows as fit, so every stop set is a whole grid.
pub fn lattice_for(n: usize) -> Vec<(f64, f64)> {
    let cols = ((n as f64).sqrt().ceil() as usize).max(1);
    lattice(cols, (n / cols).max(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_reproducible_and_distinct() {
        let a: Vec<u64> = (0..4)
            .map(|_| Rng::stream(7, WorkloadKind::ExploreCold, 1, 0).next_u64())
            .collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        let b = Rng::stream(7, WorkloadKind::ExploreCold, 1, 1).next_u64();
        let c = Rng::stream(8, WorkloadKind::ExploreCold, 1, 0).next_u64();
        let d = Rng::stream(7, WorkloadKind::LiveIngest, 1, 0).next_u64();
        assert!(a[0] != b && a[0] != c && a[0] != d);
    }

    #[test]
    fn windows_keep_their_area_at_the_city_edge() {
        let vp = window(Point::new(1.0, 99.0), 40.0, 64);
        assert!((vp.world().width() - 40.0).abs() < 1e-9);
        assert!(extent().contains_box(vp.world()));
    }

    #[test]
    fn placed_windows_are_distinct_and_inside() {
        let mut rng = Rng::new(3);
        let mut seen = Vec::new();
        for stop in lattice_for(42) {
            let vp = window(place(stop, 56.0, &mut rng), 56.0, 64);
            assert!(extent().contains_box(vp.world()));
            assert!((vp.world().width() - 56.0).abs() < 1e-9);
            assert!(!seen.contains(&vp), "two stops share a window");
            seen.push(vp);
        }
    }

    #[test]
    fn lattice_covers_every_cell_once() {
        let pts = lattice_for(49);
        assert_eq!(pts.len(), 49);
        assert_eq!(lattice_for(30).len(), 30);
        assert_eq!(lattice_for(4).len(), 4);
        let mut cells: Vec<(i64, i64)> = pts
            .iter()
            .map(|p| ((p.0 * 7.0) as i64, (p.1 * 7.0) as i64))
            .collect();
        cells.sort();
        cells.dedup();
        assert_eq!(cells.len(), 49);
    }
}
