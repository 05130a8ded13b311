//! Capturing a Perfetto-loadable trace of the serving engine.
//!
//! Runs a small mixed workload (selection, heatmap, choropleth,
//! aggregation) from three concurrent clients with span tracing
//! enabled, then writes the recorded span tree as Chrome trace events:
//!
//! ```text
//! cargo run --release --example serve_traced [-- trace.json]
//! ```
//!
//! Open the output at <https://ui.perfetto.dev> (or `chrome://tracing`).
//! Each query is its own process-level track ("query N"), so the
//! engine stations (`prepare` → `cache_probe` → `admission_wait` →
//! `eval`), the executor's pass dispatch (`gate_wait` → `pass` →
//! `pass_worker`), the tile jobs' per-tile rasterization
//! (`tile_raster`), and the per-operator raster spans (`V[f]`, `B[⊙]`,
//! `M[M]`) nest visibly under the query's `execute` root. Worker-thread
//! spans appear on their own thread rows within the query's track —
//! the trace context rides the same job hand-off as the fair-gate
//! ticket, so attribution survives the thread hop.
//!
//! Tracing is a process-wide flag costing one relaxed atomic load per
//! span site when off; `perf_gate_flight_overhead` in
//! `tests/perf_gates.rs` measures that cost and gates it at ≤ 3% of
//! mean service time.
//!
//! The run also demonstrates the **flight recorder**: the engine is
//! configured with a 1 µs slow-query threshold, so every submission is
//! tail-sampled into `QueryEngine::slow_queries()` with a measured
//! EXPLAIN ANALYZE report, and the slowest capture's annotated plan
//! tree is printed at the end (`ExecReport::to_text`). The example
//! asserts that every captured report reconciles (node walls within the
//! execute span) and that the zone aggregate's and the selection's show
//! the planner's entry form (`Mp'[#areas>=1] (entries)` over
//! `B[⊙] (fused)`).

use canvas_algebra::engine::{EngineConfig, Query, QueryEngine};
use canvas_algebra::obs;
use canvas_algebra::prelude::*;
use std::sync::Arc;
use std::time::Duration;

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "trace.json".to_string());

    let extent = BBox::new(Point::new(0.0, 0.0), Point::new(100.0, 100.0));
    let data = Arc::new(PointBatch::from_points(
        canvas_algebra::datagen::taxi_pickups(&extent, 80_000, 42),
    ));
    let zones: AreaSource = Arc::new(canvas_algebra::datagen::neighborhoods(&extent, 16, 11));
    let district = canvas_algebra::datagen::star_polygon(
        &BBox::new(Point::new(20.0, 20.0), Point::new(80.0, 80.0)),
        32,
        0.4,
        7,
    );

    let engine = Arc::new(QueryEngine::with_config(EngineConfig {
        threads: 4,
        // Far below any real service time: every submission trips the
        // tail sampler, so the demo always has captures to show.
        slow_query_threshold: Duration::from_micros(1),
        ..EngineConfig::default()
    }));

    let viewports: Vec<Viewport> = vec![
        Viewport::square_pixels(extent, 256),
        Viewport::square_pixels(
            BBox::new(Point::new(20.0, 20.0), Point::new(70.0, 70.0)),
            256,
        ),
    ];

    // Everything from here on is recorded: per-query span trees land in
    // the process-wide sink until tracing is switched off again.
    obs::set_tracing(true);

    let mut clients = Vec::new();
    for user in 0..3u64 {
        let engine = Arc::clone(&engine);
        let data = data.clone();
        let zones = zones.clone();
        let district = district.clone();
        let viewports = viewports.clone();
        clients.push(std::thread::spawn(move || {
            for step in 0..6u64 {
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
                    "user {user} step {step}: {:18} {:?} in {:7.2} ms",
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

    obs::set_tracing(false);
    let sink = obs::sink();
    sink.write_chrome_trace(&out_path).expect("write trace");
    println!(
        "\nwrote {out_path}: {} span events ({} dropped)",
        sink.len(),
        sink.dropped()
    );
    println!("open it at https://ui.perfetto.dev or chrome://tracing");

    // The same run also populated the metrics registry: histograms for
    // service/exec/queue-wait latency plus the engine counters
    // (including `slow_captured` and the `flight_*` recorder health).
    println!("\nmetrics snapshot:\n{}", engine.metrics_json());

    // Every submission crossed the 1 µs threshold, so the flight
    // recorder promoted each one with a full EXPLAIN ANALYZE report.
    // Print the slowest capture's annotated plan tree.
    let slow = engine.slow_queries();
    println!("\ntail-sampled slow queries: {} captured", slow.len());
    // Every report reconciles: exclusive node walls never exceed the
    // query's execute span. The zone aggregate and the selection ran in
    // the planner's entry form, and their reports name the folded `Mp'`
    // and `B[⊙]` rows.
    for entry in &slow {
        let r = &entry.report;
        let node_walls: u64 = r.nodes.iter().map(|n| n.wall_ns).sum();
        assert!(
            node_walls <= r.execute_ns,
            "{}: node walls {node_walls} ns exceed execute {} ns",
            entry.label,
            r.execute_ns
        );
    }
    for label in ["aggregate_by_zone", "select_points"] {
        let captured: Vec<_> = slow.iter().filter(|e| e.label == label).collect();
        assert!(!captured.is_empty(), "{label} was captured");
        for entry in captured {
            let rows = &entry.report.nodes;
            assert!(
                rows.iter().any(|n| n.label == "Mp'[#areas>=1] (entries)")
                    && rows.iter().any(|n| n.label == "B[⊙] (fused)"),
                "the {label} report shows the entry form:\n{}",
                entry.report.to_text()
            );
        }
    }
    if let Some(worst) = slow.iter().max_by_key(|e| e.service_ns) {
        println!(
            "slowest: {} ({}, {:.2} ms)\n",
            worst.label,
            worst.reason.as_str(),
            worst.service_ns as f64 / 1e6
        );
        println!("{}", worst.report.to_text());
    }
}
