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
//!
//! Skylines of spatial selections are large (often more than half of the
//! candidates), so the test must not be quadratic in them. Each candidate
//! is mapped once to its vector of squared site distances; sorted
//! lexicographically, every dominator of a point comes strictly before
//! it, and a point is dominated exactly when an earlier point with a
//! different vector is `≤` on the remaining coordinates. That test is a
//! running minimum for two sites, a Fenwick tree of prefix minima for
//! three, and a scan of the accepted points (sort-filter-skyline,
//! Chomicki et al., ICDE 2003) for more — `O(n log n)` for up to three
//! sites. The result equals the block-nested loop over [`dominates`].
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
/// points, sorted and deduplicated. None without a finite site.
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
    // A non-finite site puts every point at the same +∞ or NaN, which
    // never decides dominance, so it counts as no site: without a
    // finite site the query has no sites and no answer.
    let sites: Vec<Point> = sites
        .iter()
        .copied()
        .filter(|q| q.x.is_finite() && q.y.is_finite())
        .collect();
    let k = sites.len();
    if k == 0 {
        return Vec::new();
    }
    let mut out = Vec::new();
    let mut rest = Vec::with_capacity(pts.len());
    for (i, p) in pts.iter().enumerate() {
        // A NaN coordinate makes every distance NaN: the point neither
        // dominates nor is dominated.
        if p.x.is_nan() || p.y.is_nan() {
            out.push(ids[i]);
        } else {
            rest.push(i);
        }
    }
    // Distances of `rest[r]` are `dist[r * k..(r + 1) * k]`, in [0, +∞].
    let dist: Vec<f64> = rest
        .iter()
        .flat_map(|&i| sites.iter().map(move |q| pts[i].dist_sq(*q)))
        .collect();
    let vector = |r: usize| &dist[r * k..(r + 1) * k];
    let mut order: Vec<usize> = (0..rest.len()).collect();
    // Lexicographic and stable: input position breaks ties.
    order.sort_by(|&a, &b| {
        vector(a)
            .partial_cmp(vector(b))
            .expect("a finite point's distances are never NaN")
    });
    let mut earlier = Earlier::new(k, &dist);
    for group in order.chunk_by(|&a, &b| vector(a) == vector(b)) {
        let v = vector(group[0]);
        if !earlier.dominates(v) {
            out.extend(group.iter().map(|&r| ids[rest[r]]));
            earlier.accept(v);
        }
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// The accepted distance vectors so far, all lexicographically smaller
/// than (and different from) the one asked about, so one dominates `v`
/// exactly when it is `≤ v` on coordinates `1..`. Empty slots are NaN:
/// `f64::min` skips them and `NaN <= x` is false.
enum Earlier {
    /// Two sites: the least second distance.
    Min(f64),
    /// Three sites: prefix minima of the third distance over the rank of
    /// the second, in a Fenwick tree (1-based).
    Fenwick { ranks: Vec<f64>, tree: Vec<f64> },
    /// One site, or four and more: the accepted vectors, `k` coordinates
    /// each (with one site, any accepted vector dominates).
    Scan { k: usize, accepted: Vec<f64> },
}

impl Earlier {
    fn new(k: usize, dist: &[f64]) -> Self {
        match k {
            2 => Earlier::Min(f64::NAN),
            3 => {
                let mut ranks: Vec<f64> = dist.iter().skip(1).step_by(3).copied().collect();
                ranks.sort_unstable_by(f64::total_cmp);
                ranks.dedup();
                let tree = vec![f64::NAN; ranks.len() + 1];
                Earlier::Fenwick { ranks, tree }
            }
            _ => Earlier::Scan {
                k,
                accepted: Vec::new(),
            },
        }
    }

    fn dominates(&self, v: &[f64]) -> bool {
        match self {
            Earlier::Min(m) => *m <= v[1],
            Earlier::Fenwick { ranks, tree } => {
                let mut i = ranks.partition_point(|d| *d <= v[1]);
                let mut m = f64::NAN;
                while i > 0 {
                    m = m.min(tree[i]);
                    i &= i - 1;
                }
                m <= v[2]
            }
            Earlier::Scan { k, accepted } => accepted
                .chunks_exact(*k)
                .any(|a| a[1..].iter().zip(&v[1..]).all(|(x, y)| x <= y)),
        }
    }

    fn accept(&mut self, v: &[f64]) {
        match self {
            Earlier::Min(m) => *m = m.min(v[1]),
            Earlier::Fenwick { ranks, tree } => {
                let mut i = ranks.partition_point(|d| *d < v[1]) + 1;
                while i < tree.len() {
                    tree[i] = tree[i].min(v[2]);
                    i += i & i.wrapping_neg();
                }
            }
            Earlier::Scan { accepted, .. } => accepted.extend_from_slice(v),
        }
    }
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

    /// The spec: the block-nested loop `skyline_of` ran before the
    /// sorted sweep — every point tested against every other — with no
    /// answer when no site is finite.
    fn block_nested_loop(pts: &[Point], ids: &[u32], sites: &[Point]) -> Vec<u32> {
        if !sites.iter().any(|q| q.x.is_finite() && q.y.is_finite()) {
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

    #[test]
    fn sorted_sweep_equals_the_block_nested_loop() {
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut below = move |n: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % n
        };
        let non_finite = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
        for round in 0..240 {
            // 1–6 sites, so every branch of the dominance test runs.
            let k = 1 + round % 6;
            // Points and sites on a coarse grid: duplicate points, equal
            // distance vectors and mirror pairs about the sites.
            let mut grid = |m: u64, count: usize| -> Vec<Point> {
                (0..count)
                    .map(|_| Point::new(below(m) as f64 * 10.0, below(m) as f64 * 10.0))
                    .collect()
            };
            let mut sites = grid(6, k);
            let n = 1 + (round * 37) % 120;
            let mut pts = grid(if round % 2 == 0 { 5 } else { 11 }, n);
            if round % 4 == 1 {
                // One NaN point and one ±∞ point, on either axis.
                let nan = &mut pts[below(n as u64) as usize];
                *if round % 8 == 1 {
                    &mut nan.x
                } else {
                    &mut nan.y
                } = f64::NAN;
                let inf = &mut pts[below(n as u64) as usize];
                *if round % 8 == 1 {
                    &mut inf.y
                } else {
                    &mut inf.x
                } = non_finite[1 + below(2) as usize];
            }
            if round % 5 == 2 {
                sites[below(k as u64) as usize].y = non_finite[below(3) as usize];
            }
            if round % 30 == 7 {
                for q in &mut sites {
                    q.x = non_finite[below(3) as usize];
                }
            }
            let ids: Vec<u32> = (0..n as u32).collect();
            assert_eq!(
                skyline_of(&pts, &ids, &sites),
                block_nested_loop(&pts, &ids, &sites),
                "round {round}: {k} sites, {n} points"
            );
        }
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

    #[test]
    fn no_finite_site_is_no_site() {
        // Non-finite sites never decide dominance, so a list of only
        // such sites answers as the empty list does: no point.
        let batch = PointBatch::from_points(vec![Point::new(1.0, 1.0), Point::new(2.0, 5.0)]);
        for q in [
            Point::new(f64::NAN, 0.0),
            Point::new(0.0, f64::INFINITY),
            Point::new(f64::NEG_INFINITY, f64::NAN),
        ] {
            assert_eq!(skyline(&batch, &[q]), skyline(&batch, &[]), "site {q:?}");
            assert!(skyline(&batch, &[q, q]).is_empty(), "site {q:?} twice");
        }
    }
}
