//! Quickstart: the paper's running example (Figure 1) end to end.
//!
//! A set of restaurants (points) and a neighborhood (polygon) become
//! canvases; a Blend merges them; a Mask keeps the intersection — that
//! *is* the spatial selection, and the same two operators serve every
//! other query in the library.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use canvas_algebra::prelude::*;

fn main() {
    // --- The data: restaurants in a 10x10 km city ------------------------
    let restaurants = vec![
        Point::new(2.0, 2.5), // id 0
        Point::new(4.5, 4.0), // id 1
        Point::new(5.5, 5.5), // id 2
        Point::new(8.0, 1.5), // id 3
        Point::new(7.5, 8.0), // id 4
    ];
    let data = PointBatch::from_points(restaurants.clone());

    // --- The query: a hand-drawn neighborhood polygon --------------------
    let neighborhood = Polygon::simple(vec![
        Point::new(3.0, 2.0),
        Point::new(7.0, 3.0),
        Point::new(6.5, 7.0),
        Point::new(3.5, 6.0),
    ])
    .expect("valid polygon");

    // --- SELECT * FROM restaurants WHERE Location INSIDE neighborhood ----
    let extent = BBox::new(Point::new(0.0, 0.0), Point::new(10.0, 10.0));
    let vp = Viewport::square_pixels(extent, 256);
    let mut dev = Device::nvidia();

    // The algebraic plan (Figure 5 of the paper), printable as a diagram:
    let plan = canvas_algebra::core::queries::selection::points_in_polygon_plan(
        std::sync::Arc::new(data.clone()),
        neighborhood.clone(),
    );
    println!("query plan:\n{}", plan.plan());

    let result = queries::selection::select_points_in_polygon(&mut dev, vp, &data, &neighborhood);
    println!("selected restaurant ids: {:?}", result.records);
    for &id in &result.records {
        println!("  restaurant {id} at {}", restaurants[id as usize]);
    }
    // The canvas answer is exact: it equals a scalar point-in-polygon scan.
    let scan: Vec<u32> = (0..restaurants.len() as u32)
        .filter(|&i| neighborhood.contains_closed(restaurants[i as usize]))
        .collect();
    assert_eq!(result.records, scan, "selection ≡ scalar scan");

    // The result is a canvas — still a first-class algebra value: count
    // it with an aggregation over the same result.
    let count = queries::aggregate::count_points_in_polygon(&mut dev, vp, &data, &neighborhood);
    println!("COUNT(*) = {count}");
    assert_eq!(count, scan.len() as u64, "COUNT(*) ≡ scalar scan");

    println!(
        "\npipeline work: {} fragments, {} full-screen texels, modeled GPU time {:.3} ms",
        dev.stats().fragments,
        dev.stats().fullscreen_texels,
        dev.modeled_time() * 1e3
    );
}
