//! End-to-end scenario tests: the full taxi-analytics pipeline across
//! every query class, plus device-accounting sanity (the performance
//! *shape* claims of the paper hold under the cost model).

use canvas_algebra::prelude::*;
use canvas_core::queries::{knn, od, selection, voronoi};
use std::sync::Arc;

fn extent() -> BBox {
    BBox::new(Point::new(0.0, 0.0), Point::new(100.0, 100.0))
}

#[test]
fn taxi_pipeline_end_to_end() {
    let vp = Viewport::square_pixels(extent(), 256);
    let trips = generate_trips(&extent(), 12_000, 16, 2026);
    let pickups = Arc::new(PointBatch::with_weights(
        trips.pickups.clone(),
        trips.fares.clone(),
    ));
    let mut dev = Device::nvidia();

    // 1. Selection: evening rush near downtown.
    let downtown = star_polygon(
        &BBox::new(Point::new(30.0, 35.0), Point::new(65.0, 75.0)),
        96,
        0.5,
        1,
    );
    let sel = selection::select_points_in_polygon(&mut dev, vp, &pickups, &downtown);
    assert!(!sel.records.is_empty());

    // 2. kNN: the 5 pickups nearest the stadium agree with brute force.
    let stadium = Point::new(70.0, 65.0);
    let nearest = knn::knn(&mut dev, vp, &pickups, stadium, 5);
    let mut brute: Vec<(f64, u32)> = trips
        .pickups
        .iter()
        .enumerate()
        .map(|(i, p)| (p.dist_sq(stadium), i as u32))
        .collect();
    brute.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)));
    let brute5: Vec<u32> = brute[..5].iter().map(|(_, i)| *i).collect();
    assert_eq!(nearest, brute5);

    // 3. OD: trips from downtown to the airport zone.
    let airport = star_polygon(
        &BBox::new(Point::new(75.0, 5.0), Point::new(98.0, 28.0)),
        48,
        0.3,
        2,
    );
    let flows = od::select_od(&mut dev, vp, &trips.od_batch(), &downtown, &airport);
    let expect = (0..trips.len())
        .filter(|&i| {
            downtown.contains_closed(trips.pickups[i]) && airport.contains_closed(trips.dropoffs[i])
        })
        .count();
    assert_eq!(flows.len(), expect);

    // 4. Voronoi service areas around 6 garages.
    let garages = canvas_algebra::datagen::jittered_sites(&extent(), 6, 3);
    let diagram = voronoi::compute_voronoi(&mut dev, vp, &garages);
    assert_eq!(diagram.non_null_count(), 256 * 256);
    let areas = voronoi::voronoi_cell_areas(&diagram, garages.len());
    let total: f64 = areas.iter().sum();
    assert!((total - 10_000.0).abs() < 1e-6);

    // 5. Convex hull of the selected pickups.
    let hull =
        canvas_core::queries::hull::hull_of_selection(&mut dev, vp, &pickups, &downtown, None);
    assert!(hull.len() >= 3);
    for &id in &sel.records {
        assert!(canvas_geom::hull::hull_contains(
            &hull,
            trips.pickups[id as usize]
        ));
    }
}

#[test]
fn paper_shape_claims_hold_under_cost_model() {
    // The three structural performance claims of Section 6, validated on
    // the device model at reproduction scale.
    let vp = Viewport::square_pixels(extent(), 256);
    let pts = taxi_pickups(&extent(), 60_000, 5);
    let batch = PointBatch::from_points(pts.clone());
    let mbr = BBox::new(Point::new(15.0, 15.0), Point::new(85.0, 85.0));
    let q1 = star_polygon(&mbr, 128, 0.5, 6);
    let q2 = star_polygon(&mbr, 128, 0.5, 7);

    // Canvas on the discrete GPU.
    let mut nv = Device::nvidia();
    let c1 = selection::select_points_in_polygon(&mut nv, vp, &batch, &q1);
    let nv_time = nv.modeled_time();

    // Canvas on the integrated GPU.
    let mut intel = Device::intel();
    let _ = selection::select_points_in_polygon(&mut intel, vp, &batch, &q1);
    let intel_time = intel.modeled_time();

    // GPU PIP baseline.
    let mut gb = Device::nvidia();
    let b1 =
        canvas_algebra::baseline::select_gpu_baseline(&mut gb, &pts, std::slice::from_ref(&q1));
    let gpu_baseline_time = gb.modeled_time();

    // CPU scalar (modeled from counted edge tests).
    let cpu = canvas_algebra::baseline::select_scalar(&pts, std::slice::from_ref(&q1));
    let cpu_time =
        canvas_raster::DeviceProfile::cpu_scalar().estimate(&canvas_raster::PipelineStats {
            compute_edge_tests: cpu.edge_tests,
            ..Default::default()
        });
    assert_eq!(c1.records, b1.records);

    // Claim 1: every GPU approach is >= 2 orders of magnitude over CPU.
    assert!(cpu_time / nv_time > 100.0, "nvidia {}", cpu_time / nv_time);
    assert!(
        cpu_time / gpu_baseline_time > 50.0,
        "gpu baseline {}",
        cpu_time / gpu_baseline_time
    );
    // Claim 2 (incl. the Intel observation): integrated GPU is slower
    // than discrete but still far ahead of the CPU.
    assert!(intel_time > nv_time);
    assert!(
        cpu_time / intel_time > 20.0,
        "intel {}",
        cpu_time / intel_time
    );
    // Claim 3: the canvas margin over the GPU baseline grows with the
    // number of constraints.
    let mut nv2 = Device::nvidia();
    let _ = selection::select_points_multi(
        &mut nv2,
        vp,
        &batch,
        &[q1.clone(), q2.clone()],
        selection::MultiPolygon::Disjunction,
    );
    let nv2_time = nv2.modeled_time();
    let mut gb2 = Device::nvidia();
    let _ = canvas_algebra::baseline::select_gpu_baseline(&mut gb2, &pts, &[q1, q2]);
    let gb2_time = gb2.modeled_time();
    let margin1 = gpu_baseline_time / nv_time;
    let margin2 = gb2_time / nv2_time;
    assert!(
        margin2 > margin1,
        "margin must grow with constraints: {margin1} → {margin2}"
    );
}

#[test]
fn transfer_time_significant_fraction() {
    // Section 6: "the time to transfer data between the CPU and GPU ...
    // is a significant fraction of the query time".
    let vp = Viewport::square_pixels(extent(), 256);
    let pts = taxi_pickups(&extent(), 100_000, 8);
    let batch = PointBatch::from_points(pts);
    let q = star_polygon(
        &BBox::new(Point::new(15.0, 15.0), Point::new(85.0, 85.0)),
        64,
        0.5,
        9,
    );
    let mut dev = Device::nvidia();
    let _ = selection::select_points_in_polygon(&mut dev, vp, &batch, &q);
    let transfer = dev.modeled_transfer_time();
    let total = dev.modeled_time();
    assert!(
        transfer / total > 0.2,
        "transfer fraction {}",
        transfer / total
    );
}

#[test]
fn stats_accounting_consistent() {
    let vp = Viewport::square_pixels(extent(), 128);
    let pts = uniform_points(&extent(), 1_000, 10);
    let batch = PointBatch::from_points(pts);
    let q = star_polygon(
        &BBox::new(Point::new(20.0, 20.0), Point::new(80.0, 80.0)),
        32,
        0.4,
        11,
    );
    let mut dev = Device::nvidia();
    assert_eq!(dev.stats().fragments, 0);
    let _ = selection::select_points_in_polygon(&mut dev, vp, &batch, &q);
    let st = dev.stats();
    // Two draws (points, polygon); the mask's entry walk writes only
    // the kept pixels, so no full-screen blend or mask pass runs.
    assert_eq!(st.passes, 2, "render, render");
    assert_eq!(st.fullscreen_texels, 0, "no full-screen pass");
    assert!(st.fragments >= 1_000, "each point shades a fragment");
    assert!(st.boundary_fragments > 0);
    assert!(st.bytes_uploaded > 0);
    dev.reset_stats();
    assert_eq!(dev.stats().fragments, 0);

    // Zones with the same Arc are not re-registered per blend.
    let zones: AreaSource = Arc::new(neighborhoods(&extent(), 4, 12));
    let c1 = render_polygon(&mut dev, vp, &zones, 0, 0);
    let c2 = render_polygon(&mut dev, vp, &zones, 1, 1);
    let merged = blend(&mut dev, &c1, &c2, BlendFn::AreaCount);
    assert_eq!(merged.area_sources().len(), 1);
}
