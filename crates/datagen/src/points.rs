//! Synthetic point workloads.
//!
//! **Substitution note.** The paper evaluates on NYC taxi pickup
//! locations restricted to a query MBR. That data is not
//! available here, so these generators produce seeded synthetic
//! equivalents: a Gaussian-mixture "hotspot" distribution mimics the
//! heavy clustering of urban pickups (dense midtown-like cores, sparse
//! periphery), and a uniform generator provides the unclustered control.
//! Both exercise the same code paths (rasterization density skew, PIP
//! cost per point) with controllable sizes.

use canvas_geom::{BBox, Point};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Uniformly distributed points in the extent.
pub fn uniform_points(extent: &BBox, n: usize, seed: u64) -> Vec<Point> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            Point::new(
                rng.gen_range(extent.min.x..=extent.max.x),
                rng.gen_range(extent.min.y..=extent.max.y),
            )
        })
        .collect()
}

/// A Gaussian hotspot: cluster center plus isotropic spread.
#[derive(Clone, Copy, Debug)]
pub struct Hotspot {
    pub center: Point,
    pub sigma: f64,
    /// Relative sampling weight among hotspots.
    pub weight: f64,
}

/// Clustered points from a Gaussian mixture over `hotspots`, clamped to
/// the extent (urban pickup distributions are heavily multi-modal).
pub fn clustered_points(extent: &BBox, hotspots: &[Hotspot], n: usize, seed: u64) -> Vec<Point> {
    assert!(!hotspots.is_empty(), "need at least one hotspot");
    let mut rng = StdRng::seed_from_u64(seed);
    let total_w: f64 = hotspots.iter().map(|h| h.weight).sum();
    (0..n)
        .map(|_| {
            // Pick a hotspot by weight.
            let mut pick = rng.gen_range(0.0..total_w);
            let mut spot = hotspots[0];
            for h in hotspots {
                if pick < h.weight {
                    spot = *h;
                    break;
                }
                pick -= h.weight;
            }
            // Box–Muller Gaussian offsets.
            let (g1, g2) = gaussian_pair(&mut rng);
            let p = Point::new(
                spot.center.x + g1 * spot.sigma,
                spot.center.y + g2 * spot.sigma,
            );
            Point::new(
                p.x.clamp(extent.min.x, extent.max.x),
                p.y.clamp(extent.min.y, extent.max.y),
            )
        })
        .collect()
}

/// Default city-like hotspot layout for an extent: one dominant core,
/// two secondary centers, one outlying cluster.
pub fn default_hotspots(extent: &BBox) -> Vec<Hotspot> {
    let w = extent.width();
    let h = extent.height();
    let at = |fx: f64, fy: f64| Point::new(extent.min.x + fx * w, extent.min.y + fy * h);
    vec![
        Hotspot {
            center: at(0.45, 0.55),
            sigma: 0.10 * w.min(h),
            weight: 0.5,
        },
        Hotspot {
            center: at(0.25, 0.3),
            sigma: 0.06 * w.min(h),
            weight: 0.2,
        },
        Hotspot {
            center: at(0.7, 0.65),
            sigma: 0.08 * w.min(h),
            weight: 0.2,
        },
        Hotspot {
            center: at(0.8, 0.15),
            sigma: 0.04 * w.min(h),
            weight: 0.1,
        },
    ]
}

/// Seeded city-like point cloud: the standard workload of the benchmark
/// harness (stands in for taxi pickups inside the query MBR).
pub fn taxi_pickups(extent: &BBox, n: usize, seed: u64) -> Vec<Point> {
    clustered_points(extent, &default_hotspots(extent), n, seed)
}

/// One standard Gaussian pair via Box–Muller.
fn gaussian_pair(rng: &mut StdRng) -> (f64, f64) {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    let r = (-2.0 * u1.ln()).sqrt();
    let t = std::f64::consts::TAU * u2;
    (r * t.cos(), r * t.sin())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn extent() -> BBox {
        BBox::new(Point::new(0.0, 0.0), Point::new(100.0, 100.0))
    }

    #[test]
    fn uniform_points_in_extent_and_seeded() {
        let e = extent();
        let a = uniform_points(&e, 1000, 7);
        let b = uniform_points(&e, 1000, 7);
        let c = uniform_points(&e, 1000, 8);
        assert_eq!(a, b, "same seed must reproduce");
        assert_ne!(a, c, "different seed must differ");
        assert!(a.iter().all(|p| e.contains(*p)));
    }

    #[test]
    fn clustered_points_cluster() {
        let e = extent();
        let pts = taxi_pickups(&e, 5000, 42);
        assert_eq!(pts.len(), 5000);
        assert!(pts.iter().all(|p| e.contains(*p)));
        // Density near the dominant core exceeds density in a far corner.
        let near_core = pts
            .iter()
            .filter(|p| p.dist(Point::new(45.0, 55.0)) < 15.0)
            .count();
        let corner = pts
            .iter()
            .filter(|p| p.dist(Point::new(5.0, 95.0)) < 15.0)
            .count();
        assert!(
            near_core > 5 * corner.max(1),
            "core {near_core} vs corner {corner}"
        );
    }

    #[test]
    fn hotspot_weights_respected() {
        let e = extent();
        let spots = vec![
            Hotspot {
                center: Point::new(20.0, 20.0),
                sigma: 2.0,
                weight: 0.9,
            },
            Hotspot {
                center: Point::new(80.0, 80.0),
                sigma: 2.0,
                weight: 0.1,
            },
        ];
        let pts = clustered_points(&e, &spots, 2000, 11);
        let near_a = pts
            .iter()
            .filter(|p| p.dist(Point::new(20.0, 20.0)) < 10.0)
            .count();
        let near_b = pts
            .iter()
            .filter(|p| p.dist(Point::new(80.0, 80.0)) < 10.0)
            .count();
        assert!(near_a > 4 * near_b, "a {near_a} vs b {near_b}");
    }

    #[test]
    fn zero_points() {
        assert!(uniform_points(&extent(), 0, 1).is_empty());
        assert!(taxi_pickups(&extent(), 0, 1).is_empty());
    }
}
