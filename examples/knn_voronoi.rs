//! Nearest-neighbor analytics: kNN via the circle-ladder workflow
//! (Section 4.4) and the Voronoi stored procedure (Section 4.5), with an
//! ASCII rendering of the diagram. Asserts the kNN ids against a sorted
//! scan and every sampled Voronoi owner against the brute-force minimum
//! over `(d² as f32, id)`.
//!
//! ```text
//! cargo run --release --example knn_voronoi
//! ```

use canvas_algebra::prelude::*;
use canvas_core::queries::{knn, voronoi};

fn main() {
    let extent = BBox::new(Point::new(0.0, 0.0), Point::new(100.0, 100.0));
    let vp = Viewport::square_pixels(extent, 256);
    let mut dev = Device::nvidia();

    // --- kNN over a clustered point cloud --------------------------------
    let pts = taxi_pickups(&extent, 50_000, 314);
    let batch = PointBatch::from_points(pts.clone());
    let query = Point::new(45.0, 55.0);
    for k in [1usize, 5, 25] {
        let ids = knn::knn(&mut dev, vp, &batch, query, k);
        let mut scan: Vec<(f64, u32)> = (0u32..)
            .zip(&pts)
            .map(|(i, p)| (p.dist_sq(query), i))
            .collect();
        scan.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let want: Vec<u32> = scan[..k].iter().map(|&(_, i)| i).collect();
        assert_eq!(ids, want, "k = {k}: kNN ids differ from the sorted scan");
        let farthest = ids
            .last()
            .map(|&i| pts[i as usize].dist(query))
            .unwrap_or(0.0);
        println!(
            "k = {k:>2}: nearest ids {:?}{} (radius {farthest:.3})",
            &ids[..ids.len().min(5)],
            if ids.len() > 5 { ", …" } else { "" }
        );
    }

    // --- Voronoi diagram of service stations -----------------------------
    let stations = jittered_sites_demo(&extent);
    println!(
        "\nVoronoi diagram of {} stations (each region = nearest station):",
        stations.len()
    );
    let diagram = voronoi::compute_voronoi(&mut dev, vp, &stations);
    let glyphs: Vec<char> = "0123456789abcdef".chars().collect();
    for row in (0..24).rev() {
        let mut line = String::new();
        for col in 0..48 {
            let p = Point::new(
                (col as f64 + 0.5) * 100.0 / 48.0,
                (row as f64 + 0.5) * 100.0 / 24.0,
            );
            let site = voronoi::voronoi_site_at(&diagram, p).expect("every pixel has an owner");
            // The owner of the pixel `p` falls in, from its center.
            let (px, py) = vp.world_to_pixel(p).expect("sample inside the viewport");
            let c = vp.pixel_center(px, py);
            let nearest = (0u32..)
                .zip(&stations)
                .min_by(|a, b| {
                    let (da, db) = (c.dist_sq(*a.1) as f32, c.dist_sq(*b.1) as f32);
                    da.total_cmp(&db).then(a.0.cmp(&b.0))
                })
                .map(|(i, _)| i);
            assert_eq!(Some(site), nearest, "owner of the pixel at {p}");
            line.push(glyphs[site as usize % glyphs.len()]);
        }
        println!("  {line}");
    }
    let areas = voronoi::voronoi_cell_areas(&diagram, stations.len());
    let busiest = areas
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
        .map(|(i, a)| (i, *a))
        .unwrap();
    println!(
        "largest service region: station {} covering {:.0} km²",
        busiest.0, busiest.1
    );
}

fn jittered_sites_demo(extent: &BBox) -> Vec<Point> {
    canvas_algebra::datagen::jittered_sites(extent, 9, 77)
}
