//! Serving concurrent clients from one engine.
//!
//! Four "users" pan/zoom over the same taxi data simultaneously. Each
//! submits a mix of selection, heatmap, choropleth, and aggregation
//! queries; the engine deduplicates identical work, answers repeats
//! from the budgeted canvas cache, and interleaves the rest fairly on
//! one shared worker pool. Two admission permits make the cache keep
//! the two most recently computed-at viewports; the clients walk
//! three, so entries of a viewport that goes cold retire. The example
//! asserts the cache's accounting at the end.
//!
//! ```text
//! cargo run --release --example serve_concurrent
//! ```

use canvas_algebra::engine::{EngineConfig, Query, QueryEngine};
use canvas_algebra::prelude::*;
use std::sync::Arc;

fn main() {
    let extent = BBox::new(Point::new(0.0, 0.0), Point::new(100.0, 100.0));
    let data = Arc::new(PointBatch::from_points(
        canvas_algebra::datagen::taxi_pickups(&extent, 200_000, 42),
    ));
    let zones: AreaSource = Arc::new(canvas_algebra::datagen::neighborhoods(&extent, 16, 11));
    let district = canvas_algebra::datagen::star_polygon(
        &BBox::new(Point::new(20.0, 20.0), Point::new(80.0, 80.0)),
        32,
        0.4,
        7,
    );

    let config = EngineConfig {
        threads: 4,
        max_concurrent: 2,
        ..EngineConfig::default()
    };
    let engine = Arc::new(QueryEngine::with_config(config));
    if let Some(c) = engine.calibration() {
        println!(
            "calibrated min_parallel_items = {} (dispatch {:.1}µs/pass, {:.2}ns/texel)",
            c.derived_min_parallel_items,
            c.dispatch_ns_per_pass / 1e3,
            c.per_item_ns,
        );
    }

    // Each client's pan/zoom path revisits viewports — the reuse the
    // cache exists for.
    let viewports: Vec<Viewport> = vec![
        Viewport::square_pixels(extent, 256),
        Viewport::square_pixels(
            BBox::new(Point::new(20.0, 20.0), Point::new(70.0, 70.0)),
            256,
        ),
        Viewport::square_pixels(
            BBox::new(Point::new(40.0, 40.0), Point::new(90.0, 90.0)),
            256,
        ),
    ];

    let t0 = std::time::Instant::now();
    let mut clients = Vec::new();
    for user in 0..4u64 {
        let engine = Arc::clone(&engine);
        let data = data.clone();
        let zones = zones.clone();
        let district = district.clone();
        let viewports = viewports.clone();
        clients.push(std::thread::spawn(move || {
            for step in 0..12u64 {
                let vp = viewports[((user + step) % viewports.len() as u64) as usize];
                let query = match step % 4 {
                    0 => Query::SelectPoints {
                        data: data.clone(),
                        q: district.clone(),
                    },
                    1 => Query::SelectionHeatmap {
                        data: data.clone(),
                        q: district.clone(),
                    },
                    2 => Query::PolygonDensity {
                        table: zones.clone(),
                        q: district.clone(),
                    },
                    _ => Query::AggregateByZone {
                        data: data.clone(),
                        zones: zones.clone(),
                    },
                };
                let resp = engine.execute(&query, vp).expect("served");
                println!(
                    "user {user} step {step:2}: {:18} {:?} in {:7.2} ms",
                    query.label(),
                    resp.served,
                    resp.exec.as_secs_f64() * 1e3,
                );
            }
        }));
    }
    for c in clients {
        c.join().unwrap();
    }

    let wall = t0.elapsed().as_secs_f64();
    let m = engine.metrics();
    let cs = engine.cache_stats();
    let ss = engine.scheduler_stats();
    println!(
        "\nserved {} queries in {wall:.2}s ({:.1} qps)",
        m.submitted,
        m.submitted as f64 / wall
    );
    println!(
        "  computed {}, cache hits {}, coalesced {} (reuse rate {:.0}%)",
        m.computed,
        m.cache_hits,
        m.coalesced,
        m.reuse_rate() * 100.0
    );
    println!(
        "  cache: {} entries, {:.1} MiB resident, {} evictions, {} retired, {} promoted",
        cs.entries,
        cs.bytes as f64 / (1 << 20) as f64,
        cs.evictions,
        cs.retired,
        cs.promoted,
    );
    assert!(cs.bytes <= config.cache_budget_bytes, "over budget: {cs:?}");
    assert_eq!(
        cs.insertions,
        cs.entries as u64 + cs.evictions + cs.retired + cs.removed + cs.replaced,
        "every insert leaves the cache once: {cs:?}"
    );
    assert!(
        cs.retired > 0,
        "three viewports through a window of two: {cs:?}"
    );
    println!(
        "  scheduler: {} pass grants, {} handovers, fairness {:?}",
        ss.grants,
        ss.handovers,
        ss.jain_index().map(|j| (j * 100.0).round() / 100.0),
    );
}
