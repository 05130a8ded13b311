//! Traditional join and aggregation baselines: index filter + PIP
//! refinement, then aggregate over the materialized pairs — the
//! "typical evaluation strategy used by existing systems" that
//! Section 5.2 contrasts with the RasterJoin-style canvas plan.

use crate::pip::pip_counted;
use canvas_geom::grid::{GridIndex, VisitedMask};
use canvas_geom::polygon::Polygon;
use canvas_geom::{BBox, Point};

/// Join result: `(point_index, polygon_index)` pairs plus work counter.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct JoinResult {
    pub pairs: Vec<(u32, u32)>,
    pub edge_tests: u64,
}

/// Point–polygon join, the classical filter-and-refine pipeline: a
/// uniform-grid filter over the polygon MBRs (the paper's related work
/// cites the grid file as a classic index), an exact MBR-contains check,
/// then PIP refinement of the survivors.
///
/// The MBRs go into the flat CSR [`GridIndex`]; each point probes
/// exactly one cell, whose candidates are a contiguous, duplicate-free
/// slice — no per-query allocation at all. After the MBR check the
/// refined candidates are exactly the polygons whose MBR contains the
/// point, so `edge_tests` counts only the refinement an exact MBR
/// filter leaves. The grid spans the polygons' own extent; `_extent`
/// is unused.
pub fn join_grid(points: &[Point], polygons: &[Polygon], _extent: BBox) -> JoinResult {
    let boxes: Vec<BBox> = polygons.iter().map(Polygon::bbox).collect();
    let grid = GridIndex::over(boxes.iter().copied());
    let mut out = JoinResult::default();
    for (i, p) in points.iter().enumerate() {
        for &j in grid.query_point(*p) {
            if !boxes[j as usize].contains(*p) {
                continue;
            }
            let (inside, edges) = pip_counted(*p, &polygons[j as usize]);
            out.edge_tests += edges;
            if inside {
                out.pairs.push((i as u32, j));
            }
        }
    }
    out.pairs.sort_unstable_by_key(|&(p, y)| (y, p));
    out
}

/// The transposed grid join: points go into the CSR grid, each polygon
/// issues one box query over its MBR. Multi-cell box queries would
/// otherwise yield duplicate candidates (a cell per overlap), so the
/// filter deduplicates through a reusable [`VisitedMask`] — the
/// generation-stamped bitmap replaces the old sort+dedup allocation per
/// query.
pub fn join_grid_points_indexed(points: &[Point], polygons: &[Polygon]) -> JoinResult {
    let grid = GridIndex::over(points.iter().map(|&p| BBox::new(p, p)));
    let mut out = JoinResult::default();
    let mut visited = VisitedMask::new();
    let mut candidates: Vec<u32> = Vec::new();
    for (j, poly) in polygons.iter().enumerate() {
        candidates.clear();
        grid.query_into(&poly.bbox(), &mut visited, &mut candidates);
        for &i in &candidates {
            let (inside, edges) = pip_counted(points[i as usize], poly);
            out.edge_tests += edges;
            if inside {
                out.pairs.push((i, j as u32));
            }
        }
    }
    out.pairs.sort_unstable_by_key(|&(p, y)| (y, p));
    out
}

/// Join-then-aggregate: materializes the join result, then counts and
/// sums per polygon group (the traditional plan for
/// `SELECT COUNT(*) … GROUP BY polygon`).
pub fn aggregate_join_baseline(
    points: &[Point],
    weights: &[f32],
    polygons: &[Polygon],
) -> (Vec<u64>, Vec<f64>, u64) {
    let join = join_grid(points, polygons, BBox::EMPTY);
    let mut counts = vec![0u64; polygons.len()];
    let mut sums = vec![0.0f64; polygons.len()];
    for (p, y) in join.pairs {
        counts[y as usize] += 1;
        sums[y as usize] += weights[p as usize] as f64;
    }
    (counts, sums, join.edge_tests)
}

#[cfg(test)]
mod tests {
    use super::*;

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

    fn square(x0: f64, y0: f64, side: f64) -> Polygon {
        Polygon::simple(vec![
            Point::new(x0, y0),
            Point::new(x0 + side, y0),
            Point::new(x0 + side, y0 + side),
            Point::new(x0, y0 + side),
        ])
        .unwrap()
    }

    fn brute_pairs(points: &[Point], polygons: &[Polygon]) -> Vec<(u32, u32)> {
        let mut out = Vec::new();
        for (j, poly) in polygons.iter().enumerate() {
            for (i, p) in points.iter().enumerate() {
                if poly.contains_closed(*p) {
                    out.push((i as u32, j as u32));
                }
            }
        }
        out.sort_unstable_by_key(|&(p, y)| (y, p));
        out
    }

    fn extent() -> BBox {
        BBox::new(Point::new(0.0, 0.0), Point::new(100.0, 100.0))
    }

    #[test]
    fn grid_join_matches_brute_force() {
        let pts = random_points(400, 91);
        let polys = vec![
            square(5.0, 5.0, 30.0),
            square(40.0, 40.0, 35.0),
            square(20.0, 20.0, 40.0),
        ];
        let got = join_grid(&pts, &polys, extent());
        assert_eq!(got.pairs, brute_pairs(&pts, &polys));
        assert!(got.edge_tests > 0);
    }

    #[test]
    fn grid_join_refines_exactly_the_mbr_hits() {
        // Small squares share grid cells without their MBRs meeting:
        // only (point, polygon) pairs whose MBR holds the point reach
        // the PIP test, so the edge count is the brute-force MBR
        // filter's, point for point.
        let pts = random_points(400, 92);
        let polys: Vec<Polygon> = (0..30)
            .map(|k| square(3.0 * k as f64, 1.7 * k as f64, 4.0))
            .collect();
        let got = join_grid(&pts, &polys, extent());
        assert_eq!(got.pairs, brute_pairs(&pts, &polys));
        let mut want_edges = 0;
        for p in &pts {
            for poly in polys.iter().filter(|poly| poly.bbox().contains(*p)) {
                want_edges += pip_counted(*p, poly).1;
            }
        }
        assert_eq!(got.edge_tests, want_edges);
    }

    #[test]
    fn point_indexed_grid_join_matches_brute_force() {
        let pts = random_points(600, 95);
        let polys = vec![
            square(10.0, 15.0, 25.0),
            square(45.0, 50.0, 30.0),
            square(5.0, 60.0, 38.0), // overlaps the second: shared candidates
        ];
        let got = join_grid_points_indexed(&pts, &polys);
        assert_eq!(got.pairs, brute_pairs(&pts, &polys));
    }

    #[test]
    fn index_filter_saves_edge_tests() {
        let pts = random_points(1000, 93);
        // Small disjoint polygons: most points filtered by the index.
        let polys: Vec<Polygon> = (0..10).map(|i| square(10.0 * i as f64, 5.0, 4.0)).collect();
        let indexed = join_grid(&pts, &polys, extent());
        // Unindexed nested loop pays for every (point, polygon) pair.
        let mut brute_edges = 0u64;
        for p in &pts {
            for poly in &polys {
                brute_edges += pip_counted(*p, poly).1;
            }
        }
        assert!(indexed.edge_tests < brute_edges / 2);
    }

    #[test]
    fn aggregate_baseline_counts() {
        let pts = random_points(300, 94);
        let weights: Vec<f32> = (0..pts.len()).map(|i| (i % 7) as f32).collect();
        let polys = vec![square(0.0, 0.0, 50.0), square(50.0, 50.0, 50.0)];
        let (counts, sums, _) = aggregate_join_baseline(&pts, &weights, &polys);
        for (j, poly) in polys.iter().enumerate() {
            let expect_n = pts.iter().filter(|p| poly.contains_closed(**p)).count() as u64;
            let expect_s: f64 = pts
                .iter()
                .zip(&weights)
                .filter(|(p, _)| poly.contains_closed(**p))
                .map(|(_, w)| *w as f64)
                .sum();
            assert_eq!(counts[j], expect_n);
            assert!((sums[j] - expect_s).abs() < 1e-9);
        }
    }
}
