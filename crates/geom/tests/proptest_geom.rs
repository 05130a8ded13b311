//! Property-based tests for the geometry substrate's invariants.

use canvas_geom::clip::{clip_ring_bbox, clip_ring_halfplane};
use canvas_geom::distance::{point_polygon_dist, point_segment_dist};
use canvas_geom::hull::{convex_hull, hull_contains};
use canvas_geom::predicates::{point_in_ring, signed_area, winding_number, Containment};
use canvas_geom::rtree::RTree;
use canvas_geom::segment::Segment;
use canvas_geom::{BBox, Point, Polygon};
use proptest::prelude::*;

fn arb_point() -> impl Strategy<Value = Point> {
    (-100.0f64..100.0, -100.0f64..100.0).prop_map(|(x, y)| Point::new(x, y))
}

/// A random star-shaped polygon around the origin (always simple).
fn arb_star_polygon() -> impl Strategy<Value = Polygon> {
    (3usize..24, 0u64..1_000_000).prop_map(|(n, seed)| {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let pts: Vec<Point> = (0..n)
            .map(|i| {
                let ang = std::f64::consts::TAU * i as f64 / n as f64;
                let r = 10.0 + 40.0 * next();
                Point::new(r * ang.cos(), r * ang.sin())
            })
            .collect();
        Polygon::simple(pts).expect("star polygon is simple")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Crossing-number and winding-number PIP agree off the boundary.
    #[test]
    fn pip_crossing_equals_winding(poly in arb_star_polygon(), p in arb_point()) {
        let ring = poly.outer().vertices();
        match point_in_ring(p, ring) {
            Containment::OnBoundary => {} // winding is unspecified on boundary
            Containment::Inside => prop_assert!(winding_number(p, ring) != 0),
            Containment::Outside => prop_assert!(winding_number(p, ring) == 0),
        }
    }

    /// The convex hull contains every input point and is itself convex.
    #[test]
    fn hull_invariants(pts in prop::collection::vec(arb_point(), 3..80)) {
        let hull = convex_hull(&pts);
        if hull.len() >= 3 {
            prop_assert!(signed_area(&hull) > 0.0, "hull must be CCW");
            for p in &pts {
                prop_assert!(hull_contains(&hull, *p), "hull lost {p}");
            }
            // Convexity: every vertex triple turns left (non-strict for
            // numeric tolerance, but collinear points were dropped).
            let n = hull.len();
            for i in 0..n {
                let a = hull[i];
                let b = hull[(i + 1) % n];
                let c = hull[(i + 2) % n];
                prop_assert!((b - a).cross(c - b) > 0.0, "reflex at {i}");
            }
        }
    }

    /// Half-plane clipping never grows area and the result is inside the
    /// half-plane.
    #[test]
    fn clip_halfplane_shrinks(
        poly in arb_star_polygon(),
        a in -1.0f64..1.0,
        b in -1.0f64..1.0,
        c in -50.0f64..50.0,
    ) {
        prop_assume!(a.abs() + b.abs() > 1e-6);
        let ring = poly.outer().vertices();
        let clipped = clip_ring_halfplane(ring, a, b, c);
        let area = signed_area(&clipped);
        prop_assert!(area >= -1e-9);
        prop_assert!(area <= poly.area() + 1e-6 * poly.area());
        for p in &clipped {
            prop_assert!(a * p.x + b * p.y + c <= 1e-6, "vertex outside half-plane");
        }
    }

    /// Box clipping result lies within both the box and the polygon area
    /// bound.
    #[test]
    fn clip_bbox_bounded(poly in arb_star_polygon(), q in arb_point(), w in 1.0f64..80.0) {
        let window = BBox::new(q, q + Point::new(w, w));
        let clipped = clip_ring_bbox(poly.outer().vertices(), &window);
        let area = signed_area(&clipped);
        prop_assert!(area >= -1e-9);
        prop_assert!(area <= window.area() + 1e-6);
        prop_assert!(area <= poly.area() + 1e-6 * poly.area().max(1.0));
        for p in &clipped {
            prop_assert!(window.inflated(1e-9).contains(*p));
        }
    }

    /// Segment intersection is symmetric.
    #[test]
    fn segment_intersection_symmetric(
        a in arb_point(), b in arb_point(), c in arb_point(), d in arb_point(),
    ) {
        let s1 = Segment::new(a, b);
        let s2 = Segment::new(c, d);
        prop_assert_eq!(s1.intersects(&s2), s2.intersects(&s1));
    }

    /// Point-segment distance is zero iff the point is on the segment,
    /// and satisfies the triangle-ish bound d(p, seg) <= d(p, endpoint).
    #[test]
    fn point_segment_distance_bounds(p in arb_point(), a in arb_point(), b in arb_point()) {
        let s = Segment::new(a, b);
        let d = point_segment_dist(p, &s);
        prop_assert!(d >= 0.0);
        prop_assert!(d <= p.dist(a) + 1e-9);
        prop_assert!(d <= p.dist(b) + 1e-9);
        if s.contains(p) {
            prop_assert!(d <= 1e-6, "on-segment point at distance {}", d);
        }
    }

    /// Polygon distance is zero exactly on the closed region.
    #[test]
    fn polygon_distance_zero_iff_inside(poly in arb_star_polygon(), p in arb_point()) {
        let d = point_polygon_dist(p, &poly);
        match poly.contains(p) {
            Containment::Outside => prop_assert!(d > 0.0),
            _ => prop_assert_eq!(d, 0.0),
        }
    }

    /// R-tree window queries equal brute force.
    #[test]
    fn rtree_matches_bruteforce(
        pts in prop::collection::vec(arb_point(), 1..200),
        q in arb_point(),
        w in 1.0f64..100.0,
    ) {
        let boxes: Vec<BBox> = pts.iter().map(|p| BBox::new(*p, *p)).collect();
        let tree = RTree::bulk_load(boxes);
        let window = BBox::new(q, q + Point::new(w, w));
        let mut got = tree.query(&window);
        got.sort_unstable();
        let want: Vec<u32> = pts
            .iter()
            .enumerate()
            .filter(|(_, p)| window.contains(**p))
            .map(|(i, _)| i as u32)
            .collect();
        prop_assert_eq!(got, want);
    }

    /// The edge-BVH PIP kernel agrees with the linear kernel everywhere.
    #[test]
    fn bvh_pip_equals_linear(poly in arb_star_polygon(), p in arb_point()) {
        let bvh = canvas_geom::bvh::EdgeBvh::build(&poly);
        prop_assert_eq!(bvh.contains_closed(p), poly.contains_closed(p));
    }

    /// WKT round-trips preserve geometry.
    #[test]
    fn wkt_roundtrip(poly in arb_star_polygon()) {
        let obj = canvas_geom::GeomObject::polygon(poly.clone());
        let text = canvas_geom::wkt::to_wkt(&obj);
        let back = canvas_geom::wkt::parse_wkt(&text).unwrap();
        match &back.primitives()[0] {
            canvas_geom::Primitive::Area(p2) => {
                prop_assert!((p2.area() - poly.area()).abs() <= 1e-9 * poly.area().max(1.0));
                prop_assert_eq!(p2.num_vertices(), poly.num_vertices());
            }
            other => prop_assert!(false, "expected polygon, got {:?}", other),
        }
    }
}
