//! Property-based tests for the rasterization kernels' coverage
//! invariants — the guarantees the canvas layer's exactness rests on.

use canvas_geom::{BBox, Point, Polygon};
use canvas_raster::rasterize::{
    rasterize_line_supercover, rasterize_point, rasterize_polygon_fill,
};
use canvas_raster::{Pipeline, Texture, Viewport};
use proptest::prelude::*;
use std::collections::BTreeSet;

fn vp(n: u32) -> Viewport {
    Viewport::new(
        BBox::new(Point::new(0.0, 0.0), Point::new(100.0, 100.0)),
        n,
        n,
    )
}

fn arb_point() -> impl Strategy<Value = Point> {
    (-20.0f64..120.0, -20.0f64..120.0).prop_map(|(x, y)| Point::new(x, y))
}

fn in_extent_point() -> impl Strategy<Value = Point> {
    (0.0f64..100.0, 0.0f64..100.0).prop_map(|(x, y)| Point::new(x, y))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The supercover line visits the cells of both (clamped) endpoints
    /// and is 4-connected (no diagonal gaps).
    #[test]
    fn supercover_connected_and_complete(a in in_extent_point(), b in in_extent_point()) {
        let v = vp(64);
        let mut cells: Vec<(u32, u32)> = Vec::new();
        rasterize_line_supercover(&v, a, b, |x, y| cells.push((x, y)));
        prop_assert!(!cells.is_empty());
        let set: BTreeSet<_> = cells.iter().copied().collect();
        prop_assert!(set.contains(&v.world_to_pixel(a).unwrap()));
        prop_assert!(set.contains(&v.world_to_pixel(b).unwrap()));
        for w in cells.windows(2) {
            let dx = w[0].0.abs_diff(w[1].0);
            let dy = w[0].1.abs_diff(w[1].1);
            prop_assert_eq!(dx + dy, 1, "gap between {:?} and {:?}", w[0], w[1]);
        }
    }

    /// Every pixel the segment's world trace passes through is emitted:
    /// sample points along the segment and check their pixels are
    /// covered.
    #[test]
    fn supercover_covers_samples(a in in_extent_point(), b in in_extent_point()) {
        let v = vp(64);
        let mut set = BTreeSet::new();
        rasterize_line_supercover(&v, a, b, |x, y| { set.insert((x, y)); });
        for i in 0..=50 {
            let p = a.lerp(b, i as f64 / 50.0);
            if let Some(cell) = v.world_to_pixel(p) {
                prop_assert!(set.contains(&cell), "sample {p} in uncovered cell {cell:?}");
            }
        }
    }

    /// Scanline polygon fill equals the exact strict-interior test at
    /// pixel centers for star-shaped polygons.
    #[test]
    fn polygon_fill_center_exact(n in 3usize..16, seed in 0u64..100_000) {
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
                let r = 15.0 + 30.0 * next();
                Point::new(50.0 + r * ang.cos(), 50.0 + r * ang.sin())
            })
            .collect();
        let poly = Polygon::simple(pts).unwrap();
        let v = vp(40);
        let mut set = BTreeSet::new();
        rasterize_polygon_fill(&v, &poly, |x, y| { set.insert((x, y)); });
        for y in 0..40 {
            for x in 0..40 {
                let inside = matches!(
                    poly.contains(v.pixel_center(x, y)),
                    canvas_geom::Containment::Inside
                );
                prop_assert_eq!(
                    set.contains(&(x, y)),
                    inside,
                    "fill disagrees at ({}, {})", x, y
                );
            }
        }
    }

    /// Point rasterization hits exactly the pixel containing the point.
    #[test]
    fn point_raster_exact(p in arb_point()) {
        let v = vp(64);
        let mut hits = Vec::new();
        rasterize_point(&v, p, |x, y| hits.push((x, y)));
        match v.world_to_pixel(p) {
            Some(cell) => prop_assert_eq!(hits, vec![cell]),
            None => prop_assert!(hits.is_empty()),
        }
    }

    /// Pipeline stats: a point draw counts one fragment per in-viewport
    /// point.
    #[test]
    fn stats_accounting(pts in prop::collection::vec(arb_point(), 0..100)) {
        let v = vp(32);
        let mut pl = Pipeline::new();
        let mut fb: Texture<u32> = Texture::new(32, 32);
        pl.draw_points_tiled(&v, &mut fb, &pts, |_, _| 1u32, |d, s| d + s);
        let inside = pts.iter().filter(|p| v.world_to_pixel(**p).is_some()).count() as u64;
        let st = pl.stats();
        prop_assert_eq!(st.fragments, inside);
        prop_assert_eq!(st.vertices, pts.len() as u64);
        let total: u32 = fb.texels().iter().sum();
        prop_assert_eq!(total as u64, inside);
    }
}
