//! EXPLAIN ANALYZE + flight-recorder acceptance.
//!
//! Drives a mixed workload (plan-backed classes and promoted
//! procedures) with a tiny slow-query threshold so every submission is
//! tail-sampled, then checks the report contract end to end:
//!
//! * captures land in `QueryEngine::slow_queries()` with measured
//!   reports whose per-node exclusive walls sum to ≤ the root
//!   `execute` span (no double counting),
//! * every report row joins back to a plan-node fingerprint of the
//!   prepared form's EXPLAIN skeleton,
//! * a cache-hit replay reports `provenance: cache` with zero passes,
//! * the observability counters (`slow_captured`, `flight_*`) surface
//!   through the metrics registry.
//!
//! The flight recorder is process-wide state (per-thread rings +
//! global counters), so this lives in its own integration-test binary:
//! cargo gives it a dedicated process and no other test can race it.

use canvas_core::prelude::*;
use canvas_engine::{CaptureReason, EngineConfig, Query, QueryEngine, Served};
use canvas_geom::{BBox, Point};
use std::sync::Arc;
use std::time::Duration;

fn extent() -> BBox {
    BBox::new(Point::new(0.0, 0.0), Point::new(100.0, 100.0))
}

fn vp() -> Viewport {
    Viewport::new(extent(), 64, 64)
}

fn workload() -> Vec<Query> {
    let points = Arc::new(PointBatch::from_points(canvas_datagen::taxi_pickups(
        &extent(),
        2_000,
        42,
    )));
    let zones: AreaSource = Arc::new(canvas_datagen::neighborhoods(&extent(), 6, 11));
    let q = canvas_datagen::star_polygon(
        &BBox::new(Point::new(15.0, 15.0), Point::new(80.0, 80.0)),
        16,
        0.4,
        7,
    );
    vec![
        Query::SelectPoints {
            data: points.clone(),
            q: q.clone(),
        },
        Query::SelectionHeatmap {
            data: points.clone(),
            q: q.clone(),
        },
        Query::AggregateByZone {
            data: points.clone(),
            zones: zones.clone(),
        },
        Query::Knn {
            data: points.clone(),
            x: Point::new(50.0, 50.0),
            k: 8,
        },
        Query::Hull {
            data: points,
            q: q.clone(),
        },
        Query::PolygonDensity { table: zones, q },
    ]
}

#[test]
fn tail_sampled_reports_join_plan_fingerprints_and_span_trees() {
    let engine = QueryEngine::with_config(EngineConfig {
        threads: 2,
        max_concurrent: 2,
        max_queue: 64,
        cache_budget_bytes: 64 << 20,
        calibrate: false,
        // Every query is "slow": the capture path runs for the whole
        // mixed workload, not just a lucky straggler.
        slow_query_threshold: Duration::from_nanos(1),
    });
    let queries = workload();
    for q in &queries {
        let resp = engine.execute(q, vp()).expect("served");
        assert_eq!(resp.served, Served::Computed);
    }

    // Every submission crossed the threshold and was promoted.
    let slow = engine.slow_queries();
    assert_eq!(slow.len(), queries.len(), "one capture per submission");
    for entry in &slow {
        assert_eq!(entry.reason, CaptureReason::SlowService);
        assert!(entry.service_ns > 0);
        let r = &entry.report;
        assert!(r.measured, "captures carry measured reports");
        assert_eq!(r.provenance, "computed");
        assert!(r.spans_joined > 0, "flight rings held the span tree");
        assert!(
            r.execute_ns > 0 && r.execute_ns <= r.service_ns,
            "root span {} within service {}",
            r.execute_ns,
            r.service_ns
        );
        // Station timings fit inside the end-to-end service time.
        let longest_station = r.queue_wait_ns.max(r.gate_wait_ns).max(r.eval_ns);
        assert!(longest_station <= r.service_ns, "station over service");
        // Exclusive per-node walls never double-count: their sum stays
        // within the root execute span.
        let node_sum: u64 = r.nodes.iter().map(|n| n.wall_ns).sum();
        assert!(
            node_sum <= r.execute_ns,
            "node walls {}ns exceed execute {}ns in {}",
            node_sum,
            r.execute_ns,
            entry.label
        );
        assert!(r.nodes.iter().any(|n| n.wall_ns > 0), "work was attributed");
        // Every row joins a plan-node fingerprint of the EXPLAIN
        // skeleton (row 0 is the whole-query cache identity).
        assert!(!r.nodes.is_empty());
        for n in &r.nodes {
            assert_eq!(n.fingerprint.len(), 32, "row {} lost its join key", n.node);
        }
        assert_eq!(r.nodes[0].fingerprint, r.fingerprint);
    }

    // The measured rows are the prepared form's EXPLAIN rows: same
    // pre-order ids, same subtree fingerprints, in order.
    let plan_backed = &queries[0];
    let explain = plan_backed.prepare().explain();
    assert!(!explain.measured);
    assert!(explain.nodes.len() > 1, "plan-backed EXPLAIN has a tree");
    let captured = slow
        .iter()
        .find(|e| e.label == "select_points")
        .expect("plan-backed capture");
    assert_eq!(captured.report.nodes.len(), explain.nodes.len());
    for (measured, plain) in captured.report.nodes.iter().zip(&explain.nodes) {
        assert_eq!(measured.node, plain.node);
        assert_eq!(measured.fingerprint, plain.fingerprint);
        assert_eq!(measured.label, plain.label);
    }

    // The zone aggregate and the selection run in the planner's entry
    // form: their reports name the folded rows, and the walk's wall
    // lands on the `Mp'` row.
    for label in ["aggregate_by_zone", "select_points"] {
        let entry = slow
            .iter()
            .find(|e| e.label == label)
            .unwrap_or_else(|| panic!("{label} capture"));
        let r = &entry.report;
        let row = |suffix: &str| {
            r.nodes
                .iter()
                .find(|n| n.label.ends_with(suffix))
                .unwrap_or_else(|| panic!("no `{suffix}` row: {r:?}"))
        };
        assert_eq!(row("(entries)").label, "Mp'[#areas>=1] (entries)");
        assert!(row("(entries)").wall_ns > 0, "the walk's wall: {r:?}");
        assert_eq!(row("(fused)").label, "B[⊙] (fused)");
        assert_eq!(row("(fused)").wall_ns, 0, "no blend ran: {r:?}");
        // Folded, not lost: no span was expected, so the row keeps the
        // plan's provenance and `missing` still means recycled spans.
        assert_eq!(row("(fused)").provenance, "plan", "{r:?}");
        assert!(r.nodes.iter().map(|n| n.wall_ns).sum::<u64>() <= r.execute_ns);
    }

    // The heatmaps are plans: one measured row per plan node (V, M, the
    // blend, both leaves), the rows the planner folds keep the plan's
    // provenance, and no row is `missing`.
    for (label, folded) in [("selection_heatmap", 1), ("polygon_density", 2)] {
        let entry = slow.iter().find(|e| e.label == label).unwrap();
        let r = &entry.report;
        let query = queries.iter().find(|q| q.label() == label).unwrap();
        assert_eq!(r.nodes.len(), 5, "{r:?}");
        assert_eq!(r.nodes.len(), query.prepare().explain().nodes.len());
        assert!(r.nodes.iter().all(|n| n.provenance != "missing"), "{r:?}");
        let fused = r.nodes.iter().filter(|n| n.label.ends_with(" (fused)"));
        let fused: Vec<_> = fused.map(|n| (n.provenance.as_str(), n.wall_ns)).collect();
        assert_eq!(fused, vec![("plan", 0); folded], "{r:?}");
    }

    // A resubmission is a cache hit; its on-demand report says so on
    // every row, with zero passes (nothing re-ran).
    let replay = engine.execute(plan_backed, vp()).expect("served");
    assert_eq!(replay.served, Served::CacheHit);
    let report = replay.report();
    assert!(report.measured);
    assert_eq!(report.provenance, "cache");
    for n in &report.nodes {
        assert_eq!(n.provenance, "cache");
        assert_eq!(n.passes, 0);
        assert_eq!(n.wall_ns, 0);
    }
    // Renderings agree between the two surfaces.
    assert!(report.to_json().contains("\"provenance\": \"cache\""));
    assert!(report.to_text().contains("cache"));

    // Recorder health lands in the registry snapshot.
    let json = engine.metrics_json();
    for key in [
        "\"slow_captured\"",
        "\"flight_recycled\"",
        "\"flight_dropped\"",
        "\"obs_dropped_spans\"",
    ] {
        assert!(json.contains(key), "{key} missing from metrics JSON");
    }
    // The replay crossed the (1ns) threshold too, so it was captured
    // as well — with its cache-hit provenance intact.
    let after = engine.slow_queries();
    assert_eq!(after.len(), queries.len() + 1);
    let hit = after.last().unwrap();
    assert_eq!(hit.report.provenance, "cache");
    assert!(json.contains(&format!("\"slow_captured\": {}", after.len())));
}
