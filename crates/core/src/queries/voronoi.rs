//! Voronoi diagram as a stored procedure (paper Section 4.5).
//!
//! The paper builds the diagram incrementally with nothing but the Value
//! Transform operator: for each site `i`, the pass
//!
//! ```text
//! f(x, y, s)[2] = (i, d², 0)              if s = ∅
//!              = (s[2][0], s[2][1], 0)    if s[2][1] < d²
//!              = (i, d², 0)               otherwise
//! ```
//!
//! claims every location that is closer to site `i` than to its current
//! owner. After all sites are processed, `s[2][0]` at a location is the
//! nearest site — the discrete Voronoi diagram (the classic GPU
//! technique the paper maps onto its algebra).
//!
//! The per-site passes are independent per texel, so `ComputeVoronoi`
//! runs them as one `V` pass whose kernel folds every site in input
//! order at each texel: the same `(d² as f32, id)` comparisons, the same
//! canvas, one full-screen pass instead of one per site.
//!
//! Exactly-equidistant locations go to the smaller site id, so the
//! diagram is the pointwise minimum over `(d², id)` — a function of the
//! site set alone, independent of the insertion order. A site with a
//! non-finite coordinate owns no location (its distance is +∞ or NaN
//! everywhere, and NaN has no place in a minimum); without a finite site
//! the diagram is empty.

use crate::canvas::Canvas;
use crate::device::Device;
use crate::info::Texel;
use crate::ops::value_transform;
use canvas_geom::Point;
use canvas_raster::Viewport;

/// Computes the discrete Voronoi diagram of `sites` over the viewport.
///
/// The returned canvas stores, at every location, `s[2] = (site, d², 0)`
/// for the nearest site, where `site` is the index into `sites`.
pub fn compute_voronoi(dev: &mut Device, vp: Viewport, sites: &[Point]) -> Canvas {
    let sites: Vec<(u32, Point)> = (0u32..)
        .zip(sites.iter().copied())
        .filter(|(_, q)| q.x.is_finite() && q.y.is_finite())
        .collect();
    let Some((&(id0, site0), rest)) = sites.split_first() else {
        return Canvas::empty(vp);
    };
    value_transform(dev, &Canvas::empty(vp), |p, _| {
        let mut owner = (p.dist_sq(site0) as f32, id0);
        for &(id, site) in rest {
            let d2 = p.dist_sq(site) as f32;
            // Strictly closer owners keep their claim; exact ties go to
            // the smaller site id (pointwise min over (d², id)).
            let (v1, cur) = owner;
            if !(v1 < d2 || (v1 == d2 && cur < id)) {
                owner = (d2, id);
            }
        }
        Texel::area(owner.1, owner.0, 0.0)
    })
}

/// Nearest site of a world point according to the diagram canvas.
pub fn voronoi_site_at(canvas: &Canvas, p: Point) -> Option<u32> {
    canvas.value_at(p).get(2).map(|a| a.id)
}

/// Per-site cell areas (pixel-integrated) — a quick way to sanity-check
/// the diagram and a useful analytic in its own right.
pub fn voronoi_cell_areas(canvas: &Canvas, num_sites: usize) -> Vec<f64> {
    let vp = canvas.viewport();
    let pixel_area = vp.pixel_width() * vp.pixel_height();
    let mut areas = vec![0.0; num_sites];
    for (_, _, t) in canvas.non_null() {
        if let Some(a) = t.get(2) {
            if (a.id as usize) < num_sites {
                areas[a.id as usize] += pixel_area;
            }
        }
    }
    areas
}

#[cfg(test)]
mod tests {
    use super::*;
    use canvas_geom::BBox;

    fn vp(n: u32) -> Viewport {
        Viewport::new(
            BBox::new(Point::new(0.0, 0.0), Point::new(100.0, 100.0)),
            n,
            n,
        )
    }

    /// The spec: the paper's incremental construction, one `V` pass per
    /// finite site in input order (the procedure `compute_voronoi` ran
    /// before it folded the sites into one pass).
    fn per_site_passes(dev: &mut Device, vp: Viewport, sites: &[Point]) -> Canvas {
        let mut canvas = Canvas::empty(vp);
        for (i, site) in sites.iter().enumerate() {
            if !(site.x.is_finite() && site.y.is_finite()) {
                continue;
            }
            let site = *site;
            let id = i as u32;
            canvas = value_transform(dev, &canvas, move |p, s| {
                let d2 = p.dist_sq(site) as f32;
                match s.get(2) {
                    None => Texel::area(id, d2, 0.0),
                    Some(cur) if cur.v1 < d2 || (cur.v1 == d2 && cur.id < id) => {
                        let mut t = Texel::null();
                        t.set(2, crate::info::DimInfo::new(cur.id, cur.v1, 0.0));
                        t
                    }
                    Some(_) => Texel::area(id, d2, 0.0),
                }
            });
        }
        canvas
    }

    fn brute_nearest(sites: &[Point], p: Point) -> u32 {
        sites
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| {
                p.dist_sq(**a)
                    .partial_cmp(&p.dist_sq(**b))
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .map(|(i, _)| i as u32)
            .expect("non-empty sites")
    }

    #[test]
    fn voronoi_matches_brute_force_at_pixel_centers() {
        let mut dev = Device::nvidia();
        let sites = vec![
            Point::new(20.0, 20.0),
            Point::new(80.0, 30.0),
            Point::new(50.0, 80.0),
            Point::new(10.0, 90.0),
        ];
        let canvas = compute_voronoi(&mut dev, vp(48), &sites);
        let v = canvas.viewport();
        for y in 0..v.height() {
            for x in 0..v.width() {
                let c = v.pixel_center(x, y);
                let got = canvas.texel(x, y).get(2).unwrap().id;
                let want = brute_nearest(&sites, c);
                // Equidistant boundaries may tie either way; accept both
                // when the distances are numerically equal.
                if got != want {
                    let dg = c.dist_sq(sites[got as usize]);
                    let dw = c.dist_sq(sites[want as usize]);
                    assert!(
                        ((dg - dw).abs() as f32) <= f32::EPSILON * (dg.max(dw) as f32),
                        "wrong site at ({x},{y}): got {got}, want {want}"
                    );
                }
            }
        }
    }

    #[test]
    fn single_site_owns_everything() {
        let mut dev = Device::nvidia();
        let canvas = compute_voronoi(&mut dev, vp(16), &[Point::new(50.0, 50.0)]);
        assert_eq!(canvas.non_null_count(), 16 * 16);
        for (_, _, t) in canvas.non_null() {
            assert_eq!(t.get(2).unwrap().id, 0);
        }
    }

    #[test]
    fn no_sites_empty_canvas() {
        let mut dev = Device::nvidia();
        let canvas = compute_voronoi(&mut dev, vp(8), &[]);
        assert!(canvas.is_empty());
    }

    #[test]
    fn site_lookup_and_areas() {
        let mut dev = Device::nvidia();
        let sites = vec![Point::new(25.0, 50.0), Point::new(75.0, 50.0)];
        let canvas = compute_voronoi(&mut dev, vp(32), &sites);
        assert_eq!(voronoi_site_at(&canvas, Point::new(10.0, 50.0)), Some(0));
        assert_eq!(voronoi_site_at(&canvas, Point::new(90.0, 50.0)), Some(1));
        let areas = voronoi_cell_areas(&canvas, 2);
        // Symmetric sites: equal halves (within pixel resolution).
        let total: f64 = areas.iter().sum();
        assert!((total - 100.0 * 100.0).abs() < 1e-6);
        assert!((areas[0] - areas[1]).abs() / total < 0.05);
    }

    #[test]
    fn incremental_insertion_order_irrelevant() {
        let mut dev = Device::nvidia();
        // Sites in generic position: round coordinates like (30,30) /
        // (20,80) put pairwise bisectors exactly through rational pixel
        // centers, and such ties break by (label-dependent) site id —
        // only a tie-free configuration relabels exactly.
        let sites_a = vec![
            Point::new(30.1, 29.7),
            Point::new(70.3, 71.1),
            Point::new(19.6, 80.2),
        ];
        let mut sites_b = sites_a.clone();
        sites_b.reverse();
        let ca = compute_voronoi(&mut dev, vp(24), &sites_a);
        let cb = compute_voronoi(&mut dev, vp(24), &sites_b);
        // Same partition modulo the site relabeling (b is reversed):
        // no pixel center in this configuration is exactly equidistant
        // between two sites, so the deterministic (d², id) tie-break
        // makes the equality exact.
        for y in 0..24 {
            for x in 0..24 {
                let a = ca.texel(x, y).get(2).unwrap().id;
                let b = cb.texel(x, y).get(2).unwrap().id;
                assert_eq!(a, 2 - b, "relabel mismatch at ({x},{y})");
            }
        }
    }

    #[test]
    fn one_pass_equals_the_per_site_passes() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut below = move |n: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % n
        };
        let non_finite = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
        for round in 0..24 {
            // Sites on a 5-unit grid over a 20-pixel viewport: pixel
            // centers sit on the grid's half-steps, so bisectors of
            // neighbouring sites pass through them (exact ties).
            let n = 1 + below(12) as usize;
            let mut sites: Vec<Point> = (0..n)
                .map(|_| Point::new(below(21) as f64 * 5.0, below(21) as f64 * 5.0))
                .collect();
            if round % 2 == 1 {
                sites.push(sites[below(n as u64) as usize]); // coincident
            }
            if round % 3 == 0 {
                let i = below(sites.len() as u64) as usize;
                sites[i].x = non_finite[below(3) as usize];
            }
            let mut spec_dev = Device::cpu();
            let want = per_site_passes(&mut spec_dev, vp(20), &sites);
            for threads in [1, 2, 8] {
                let mut dev = Device::cpu_parallel(threads);
                dev.pool().set_min_work_override(1);
                let got = compute_voronoi(&mut dev, vp(20), &sites);
                assert_eq!(
                    got.texels(),
                    want.texels(),
                    "round {round}, {threads} threads"
                );
                assert_eq!(got.cover(), want.cover());
            }
        }
    }

    #[test]
    fn non_finite_sites_own_nothing_in_either_order() {
        let mut dev = Device::nvidia();
        let a = Point::new(30.0, 40.0);
        let bad = Point::new(f64::NAN, 50.0);
        let first = compute_voronoi(&mut dev, vp(16), &[a, bad]);
        let second = compute_voronoi(&mut dev, vp(16), &[bad, a]);
        let owner =
            |c: &Canvas, sites: [Point; 2], x, y| sites[c.texel(x, y).get(2).unwrap().id as usize];
        for y in 0..16 {
            for x in 0..16 {
                assert_eq!(owner(&first, [a, bad], x, y), a);
                assert_eq!(owner(&second, [bad, a], x, y), a);
            }
        }
        let inf = Point::new(f64::INFINITY, 0.0);
        assert!(compute_voronoi(&mut dev, vp(16), &[bad, inf]).is_empty());
    }

    #[test]
    fn one_pass_per_diagram() {
        let mut dev = Device::nvidia();
        let sites = [
            Point::new(10.0, 10.0),
            Point::new(60.0, 20.0),
            Point::new(40.0, 90.0),
        ];
        let before = dev.stats();
        let _ = compute_voronoi(&mut dev, vp(16), &sites);
        let after = dev.stats();
        assert_eq!(after.passes - before.passes, 1);
        assert_eq!(after.fullscreen_texels - before.fullscreen_texels, 16 * 16);
    }

    #[test]
    fn equidistant_pixels_go_to_the_smaller_site_id() {
        // Regression: `cur.v1 < d2` let a later-inserted site steal
        // exactly-equidistant pixels. With 5 pixels over 0..100 the
        // centers sit at x ∈ {10, 30, 50, 70, 90}; the x = 50 column is
        // exactly 30 world units from both sites (30² = 900 is exact in
        // f32), so the whole column must belong to site 0.
        let mut dev = Device::nvidia();
        let sites = vec![Point::new(20.0, 50.0), Point::new(80.0, 50.0)];
        let canvas = compute_voronoi(&mut dev, vp(5), &sites);
        for y in 0..5 {
            assert_eq!(canvas.texel(0, y).get(2).unwrap().id, 0);
            assert_eq!(canvas.texel(1, y).get(2).unwrap().id, 0);
            let tie = canvas.texel(2, y).get(2).unwrap();
            assert_eq!(tie.id, 0, "tie column stolen by the later site");
            assert_eq!(canvas.texel(3, y).get(2).unwrap().id, 1);
            assert_eq!(canvas.texel(4, y).get(2).unwrap().id, 1);
        }
    }
}
