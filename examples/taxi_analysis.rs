//! Taxi-trip analytics: the paper's motivating workload (Section 6) on
//! synthetic data — polygonal selection of pickups, a multi-polygon
//! disjunction, distance-based selection and a per-zone aggregate, with
//! baseline cross-checks.
//!
//! ```text
//! cargo run --release --example taxi_analysis
//! ```

use canvas_algebra::prelude::*;
use canvas_core::queries::selection::{self, MultiPolygon};
use std::time::Instant;

fn main() {
    let extent = BBox::new(Point::new(0.0, 0.0), Point::new(100.0, 100.0));
    let n = 200_000;
    println!("generating {n} synthetic taxi pickups…");
    let trips = generate_trips(&extent, n, 16, 2020);
    let pickups = PointBatch::with_weights(trips.pickups.clone(), trips.fares.clone());
    let vp = Viewport::square_pixels(extent, 512);

    // --- 1. Selection with one hand-drawn polygon -----------------------
    let mbr = BBox::new(Point::new(20.0, 20.0), Point::new(80.0, 80.0));
    let q = star_polygon(&mbr, 96, 0.5, 7);
    let mut dev = Device::nvidia();
    let t0 = Instant::now();
    let sel = selection::select_points_in_polygon(&mut dev, vp, &pickups, &q);
    let canvas_wall = t0.elapsed();
    let t0 = Instant::now();
    let base = canvas_algebra::baseline::select_scalar(&trips.pickups, std::slice::from_ref(&q));
    let cpu_wall = t0.elapsed();
    assert_eq!(sel.records, base.records, "canvas must equal baseline");
    println!(
        "\n[1] polygonal selection: {} of {n} pickups inside the polygon",
        sel.records.len()
    );
    println!(
        "    canvas wall {:?} vs scalar-CPU wall {:?} (modeled GPU: {:.3} ms)",
        canvas_wall,
        cpu_wall,
        dev.modeled_time() * 1e3
    );

    // --- 2. Disjunction of two polygons (Section 5.1) -------------------
    let q2 = star_polygon(
        &BBox::new(Point::new(10.0, 50.0), Point::new(55.0, 95.0)),
        64,
        0.5,
        8,
    );
    let mut dev = Device::nvidia();
    let multi = selection::select_points_multi(
        &mut dev,
        vp,
        &pickups,
        &[q.clone(), q2.clone()],
        MultiPolygon::Disjunction,
    );
    let base2 = canvas_algebra::baseline::select_scalar(&trips.pickups, &[q.clone(), q2]);
    assert_eq!(multi.records, base2.records);
    println!(
        "[2] 2-polygon disjunction: {} pickups (same blend+mask operators, one extra render)",
        multi.records.len()
    );

    // --- 3. Distance-based selection (Section 4.1, case 3) --------------
    let stand = Point::new(45.0, 55.0);
    let mut dev = Device::nvidia();
    let near = selection::select_points_within_distance_exact(&mut dev, vp, &pickups, stand, 8.0);
    println!(
        "[3] pickups within 8 km of the taxi stand at {stand}: {}",
        near.records.len()
    );

    // --- 4. Revenue inside the polygon (SUM aggregation, Section 4.3) ---
    let mut dev = Device::nvidia();
    let revenue =
        canvas_core::queries::aggregate::sum_points_in_polygon(&mut dev, vp, &pickups, &q);
    let expect: f64 = sel
        .records
        .iter()
        .map(|&i| trips.fares[i as usize] as f64)
        .sum();
    assert!((revenue - expect).abs() < 1e-2 * expect.max(1.0));
    println!("[4] total fare revenue inside the polygon: ${revenue:.2}");

    // --- 5. Pickup-density heatmap as the selection's entry walk ------
    // V[log](M[point ∧ area](B[⊙](C_P, C_Q))) is null except at pixels
    // holding a pickup, so one walk of the pickups writes exactly those
    // pixels: no blend, mask or value pass over the canvas.
    let mut dev = Device::cpu_parallel(4);
    let t0 = Instant::now();
    let heat = canvas_core::queries::heatmap::selection_heatmap(&mut dev, vp, &pickups, &q);
    let walk_wall = t0.elapsed();
    let mut dev_m = Device::cpu_parallel(4);
    let want =
        canvas_core::queries::heatmap::selection_heatmap_materialized(&mut dev_m, vp, &pickups, &q);
    assert_eq!(heat.texels(), want.texels(), "walk ≡ materialized");
    assert_eq!(heat.cover(), want.cover(), "walk ≡ materialized");
    let hottest = heat
        .non_null()
        .filter_map(|(x, y, t)| t.get(0).map(|d| (x, y, d.v1)))
        .max_by(|a, b| a.2.total_cmp(&b.2));
    println!(
        "[5] heatmap walk: {} hot pixels, {} full-screen texels (materialized: {}), wall {:?}",
        heat.non_null_count(),
        dev.stats().fullscreen_texels,
        dev_m.stats().fullscreen_texels,
        walk_wall
    );
    if let Some((x, y, c)) = hottest {
        println!("    hottest pixel ({x}, {y}) holds {c} pickups");
    }

    // --- 6. Group-by revenue per zone, index-pruned RasterJoin ----------
    let zones = neighborhoods(&extent, 16, 3);
    let mut ptab = canvas_core::table::SpatialTable::new();
    for p in &trips.pickups {
        ptab.push(GeomObject::point(*p));
    }
    ptab.set_attr("fare", trips.fares.clone()).unwrap();
    let mut ztab = canvas_core::table::SpatialTable::new();
    for z in &zones {
        ztab.push(GeomObject::polygon(z.clone()));
    }
    let mut dev = Device::cpu_parallel(4);
    let groups = ptab
        .aggregate_points_in_polygons(&mut dev, vp, &ztab, Some("fare"))
        .unwrap();
    // Scalar check: every in-viewport pickup counts (and adds its fare)
    // in each zone whose closed region contains it.
    for (z, zone) in zones.iter().enumerate() {
        let (mut count, mut fares) = (0u64, 0.0f64);
        for (p, fare) in trips.pickups.iter().zip(&trips.fares) {
            if vp.world_to_pixel(*p).is_some() && zone.contains_closed(*p) {
                count += 1;
                fares += *fare as f64;
            }
        }
        assert_eq!(groups.counts[z], count, "zone {z} pickups");
        let sum = groups.sums[z];
        assert!(
            (sum - fares).abs() <= 1e-3 * fares.max(1.0),
            "zone {z} fares: {sum} vs {fares}"
        );
    }
    let top = groups
        .sums
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .unwrap();
    println!(
        "[6] index-pruned RasterJoin over {} zones: top zone {} with ${:.2} fares ({} pickups)",
        zones.len(),
        top.0,
        top.1,
        groups.counts[top.0]
    );
}
