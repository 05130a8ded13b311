//! Span-tree well-formedness under concurrent serving.
//!
//! Drives mixed queries from several client threads with tracing
//! enabled and asserts the recorded spans form proper per-query trees:
//! every span is reachable from its query's `execute` root (work done
//! on pool worker threads included — the trace context rides the same
//! job hand-off as the fair-gate ticket), no pass-family span is
//! orphaned outside a query, child intervals nest inside their
//! parent's, and the station timings add up (`admission_wait` + `eval`
//! ≤ `execute` end-to-end).
//!
//! Tracing is a process-wide flag, so this lives in its own
//! integration-test binary: cargo gives it a dedicated process and no
//! other test can race the flag.

use canvas_core::prelude::*;
use canvas_engine::{EngineConfig, Query, QueryEngine};
use canvas_geom::{BBox, Point};
use canvas_obs as obs;
use std::collections::HashMap;
use std::sync::Arc;

fn extent() -> BBox {
    BBox::new(Point::new(0.0, 0.0), Point::new(100.0, 100.0))
}

fn workload() -> (Vec<Query>, Vec<Viewport>) {
    let points = Arc::new(PointBatch::from_points(canvas_datagen::taxi_pickups(
        &extent(),
        3_000,
        42,
    )));
    let zones: AreaSource = Arc::new(canvas_datagen::neighborhoods(&extent(), 8, 11));
    let q1 = canvas_datagen::star_polygon(
        &BBox::new(Point::new(15.0, 15.0), Point::new(80.0, 80.0)),
        24,
        0.4,
        7,
    );
    let q2 = canvas_datagen::star_polygon(
        &BBox::new(Point::new(40.0, 10.0), Point::new(95.0, 60.0)),
        16,
        0.3,
        9,
    );
    let queries = vec![
        Query::SelectPoints {
            data: points.clone(),
            q: q1.clone(),
        },
        Query::SelectionHeatmap {
            data: points.clone(),
            q: q2.clone(),
        },
        Query::PolygonDensity {
            table: zones.clone(),
            q: q1,
        },
        Query::AggregateByZone {
            data: points,
            zones,
        },
    ];
    let viewports = vec![
        Viewport::new(extent(), 64, 64),
        Viewport::new(
            BBox::new(Point::new(20.0, 20.0), Point::new(70.0, 70.0)),
            64,
            64,
        ),
    ];
    (queries, viewports)
}

#[test]
fn concurrent_serving_yields_well_formed_span_trees() {
    const CLIENTS: usize = 3;
    const STEPS: usize = 8;
    let engine = QueryEngine::with_config(EngineConfig {
        threads: 3,
        max_concurrent: CLIENTS,
        max_queue: 64,
        cache_budget_bytes: 64 << 20,
        calibrate: false,
        ..EngineConfig::default()
    });
    let (queries, viewports) = workload();

    obs::sink().clear();
    obs::set_tracing(true);
    std::thread::scope(|s| {
        for client in 0..CLIENTS {
            let engine = &engine;
            let queries = &queries;
            let viewports = &viewports;
            s.spawn(move || {
                for step in 0..STEPS {
                    let q = &queries[(client + step) % queries.len()];
                    let vp = viewports[(client + step / 2) % viewports.len()];
                    let resp = engine.execute(q, vp).expect("served");
                    std::hint::black_box(resp.canvas().non_null_count());
                }
            });
        }
    });
    obs::set_tracing(false);
    let records = obs::sink().take();
    assert_eq!(
        obs::sink().dropped(),
        0,
        "tiny workload must not drop spans"
    );
    assert!(!records.is_empty(), "tracing recorded nothing");

    let by_id: HashMap<u64, &obs::SpanRecord> = records.iter().map(|r| (r.id, r)).collect();

    // Every query that went through `execute` has a root span whose id
    // doubles as the query id.
    let roots: Vec<&obs::SpanRecord> = records.iter().filter(|r| r.name == "execute").collect();
    assert_eq!(
        roots.len(),
        CLIENTS * STEPS,
        "one execute root per submission"
    );
    for root in &roots {
        assert_eq!(root.query, root.id, "execute is its query's tree root");
    }

    for r in &records {
        // No span escapes query attribution: pass dispatch and worker
        // execution inherit the submitting query's context across the
        // thread hop.
        assert_ne!(
            r.query, 0,
            "orphan span {:?} recorded outside any query",
            r.name
        );
        if r.query == r.id {
            assert_eq!(r.name, "execute", "only execute roots a tree");
            continue;
        }
        // Walk to the root: every hop stays in the same query and every
        // child interval nests inside its parent's.
        let mut cur = r;
        let mut hops = 0;
        while cur.query != cur.id {
            let parent = by_id.get(&cur.parent).unwrap_or_else(|| {
                panic!(
                    "span {:?} (query {}) has dangling parent {}",
                    cur.name, cur.query, cur.parent
                )
            });
            assert_eq!(
                parent.query, cur.query,
                "span {:?} crosses from query {} into query {}",
                cur.name, cur.query, parent.query
            );
            assert!(
                parent.start_ns <= cur.start_ns
                    && cur.start_ns + cur.dur_ns <= parent.start_ns + parent.dur_ns,
                "span {:?} [{}, +{}] not nested in parent {:?} [{}, +{}]",
                cur.name,
                cur.start_ns,
                cur.dur_ns,
                parent.name,
                parent.start_ns,
                parent.dur_ns
            );
            cur = parent;
            hops += 1;
            assert!(hops < 64, "parent chain of {:?} does not terminate", r.name);
        }
    }

    // Station accounting: for each computed query, the time spent
    // waiting for admission plus the evaluation itself cannot exceed
    // the end-to-end service time.
    let mut evaluated = 0;
    for root in &roots {
        let kids: Vec<&obs::SpanRecord> = records
            .iter()
            .filter(|r| r.parent == root.id && r.id != root.id)
            .collect();
        let dur_of =
            |name: &str| -> Option<u64> { kids.iter().find(|r| r.name == name).map(|r| r.dur_ns) };
        if let Some(eval) = dur_of("eval") {
            evaluated += 1;
            let admission = dur_of("admission_wait").unwrap_or(0);
            assert!(
                admission + eval <= root.dur_ns,
                "admission {admission}ns + eval {eval}ns exceeds execute {}ns",
                root.dur_ns
            );
        }
    }
    assert!(evaluated > 0, "no query reached the eval station");

    // The computed trees must reach the executor and the raster
    // pipeline: pass dispatch and worker spans both present.
    for name in ["prepare", "cache_probe", "pass", "pass_worker"] {
        assert!(
            records.iter().any(|r| r.name == name),
            "no {name:?} span recorded across {} spans",
            records.len()
        );
    }
}
