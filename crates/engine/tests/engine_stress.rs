//! Concurrent-engine stress & equivalence harness.
//!
//! The serving engine's whole correctness claim is that concurrency,
//! caching, and deduplication are *invisible* in results: every
//! response — computed, cache hit, or coalesced — must be bit-identical
//! to evaluating the same query single-threaded on `Device::cpu`.
//! These tests drive N client threads of randomized mixed queries
//! against one engine and assert exactly that, plus the cache's
//! correctness properties (hits return the identical canvas; a tiny
//! budget evicts but never corrupts).

use canvas_core::prelude::*;
use canvas_engine::{
    EngineConfig, EngineError, EngineMetrics, Query, QueryEngine, QueryResult, Served,
};
use canvas_geom::{BBox, Point};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, OnceLock};

fn extent() -> BBox {
    BBox::new(Point::new(0.0, 0.0), Point::new(100.0, 100.0))
}

fn viewports() -> Vec<Viewport> {
    // Two zoom levels and a pan — the interactive reuse pattern.
    vec![
        Viewport::new(extent(), 64, 64),
        Viewport::new(
            BBox::new(Point::new(20.0, 20.0), Point::new(70.0, 70.0)),
            64,
            64,
        ),
        Viewport::new(extent(), 96, 96),
    ]
}

/// The mixed workload: every engine query kind over shared datasets.
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
        Query::SelectPoints {
            data: points.clone(),
            q: q2.clone(),
        },
        Query::SelectionHeatmap {
            data: points.clone(),
            q: q1.clone(),
        },
        Query::PolygonDensity {
            table: zones.clone(),
            q: q1.clone(),
        },
        Query::AggregateByZone {
            data: points.clone(),
            zones: zones.clone(),
        },
        Query::Plan(Expr::blend(
            BlendFn::PointOverArea,
            Expr::points(points.clone()),
            Expr::query_polygon(q2, 2),
        )),
        // A versioned table at its base generation: the streaming query
        // class must behave like any other under concurrency (no
        // predecessor exists, so nothing here serves incrementally).
        Query::LiveHeatmap {
            snapshot: VersionedTable::new(
                "stress-live",
                extent(),
                PointBatch::from_points(canvas_datagen::taxi_pickups(&extent(), 1_500, 77)),
            )
            .snapshot(),
        },
    ];
    (queries, viewports())
}

fn assert_canvas_eq(got: &Canvas, want: &Canvas, ctx: &str) {
    assert_eq!(got.texels(), want.texels(), "{ctx}: texel planes differ");
    assert_eq!(got.cover(), want.cover(), "{ctx}: cover planes differ");
    assert_eq!(
        got.boundary().points().collect::<Vec<_>>(),
        want.boundary().points().collect::<Vec<_>>(),
        "{ctx}: point entries differ"
    );
    assert_eq!(
        got.boundary().areas(),
        want.boundary().areas(),
        "{ctx}: area entries differ"
    );
    assert_eq!(
        got.boundary().lines(),
        want.boundary().lines(),
        "{ctx}: line entries differ"
    );
}

/// Every submission ends in exactly one terminal counter — served
/// (four ways), shed, or failed — whatever path it took to get there.
fn assert_conserved(m: &EngineMetrics) {
    assert_eq!(
        m.submitted,
        m.computed + m.cache_hits + m.coalesced + m.incremental_refreshes + m.shed + m.failed,
        "submissions not conserved: {m:?}"
    );
}

#[test]
fn concurrent_randomized_queries_match_sequential_cpu() {
    let (queries, vps) = workload();

    // Single-threaded reference for every (query, viewport) pair.
    let mut reference: Vec<Vec<QueryResult>> = Vec::new();
    for q in &queries {
        let mut per_vp = Vec::new();
        for vp in &vps {
            let mut dev = Device::cpu();
            per_vp.push(q.prepare().execute(&mut dev, *vp));
        }
        reference.push(per_vp);
    }
    let reference = Arc::new(reference);

    let engine = Arc::new(QueryEngine::with_config(EngineConfig {
        threads: 3,
        max_concurrent: 4,
        max_queue: 64,
        cache_budget_bytes: 64 << 20,
        calibrate: false,
        ..EngineConfig::default()
    }));

    const CLIENTS: usize = 4;
    const PER_CLIENT: usize = 24;
    let mut handles = Vec::new();
    for client in 0..CLIENTS {
        let engine = Arc::clone(&engine);
        let queries = queries.clone();
        let vps = vps.clone();
        let reference = Arc::clone(&reference);
        handles.push(std::thread::spawn(move || {
            // Deterministic xorshift walk, distinct per client.
            let mut state = 0x9E3779B9u64.wrapping_mul(client as u64 + 1) | 1;
            for _ in 0..PER_CLIENT {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let qi = (state >> 8) as usize % queries.len();
                let vi = (state >> 32) as usize % vps.len();
                let resp = engine
                    .execute(&queries[qi], vps[vi])
                    .expect("no shedding at this load");
                assert_canvas_eq(
                    resp.canvas(),
                    reference[qi][vi].canvas(),
                    &format!(
                        "client {client}, query {qi}, vp {vi}, served {:?}",
                        resp.served
                    ),
                );
            }
        }));
    }
    for h in handles {
        h.join().expect("client thread");
    }

    let m = engine.metrics();
    assert_eq!(m.submitted, (CLIENTS * PER_CLIENT) as u64);
    assert_conserved(&m);
    assert_eq!(
        m.computed + m.cache_hits + m.coalesced,
        m.submitted,
        "every submission was served"
    );
    // 96 submissions over 21 distinct (query, viewport) keys: the
    // cache must have carried most of the load.
    assert!(
        m.cache_hits + m.coalesced >= m.submitted / 2,
        "reuse too low: {m:?}"
    );
    assert!(m.computed >= 1);
    let cs = engine.cache_stats();
    assert!(cs.hits >= m.cache_hits); // engine hits all came from the cache
    assert!(cs.bytes <= 64 << 20);
    // Shared-device accounting saw every computed evaluation.
    assert!(engine.shared().stats().passes > 0);
}

#[test]
fn cache_hit_returns_identical_canvas() {
    let (queries, vps) = workload();
    let engine = QueryEngine::with_config(EngineConfig {
        threads: 2,
        max_concurrent: 2,
        max_queue: 8,
        cache_budget_bytes: 64 << 20,
        calibrate: false,
        ..EngineConfig::default()
    });
    let first = engine.execute(&queries[0], vps[0]).unwrap();
    assert_eq!(first.served, Served::Computed);
    let second = engine.execute(&queries[0], vps[0]).unwrap();
    assert_eq!(second.served, Served::CacheHit);
    // The hit is the *same* shared canvas — bit-identity by
    // construction — and matches a fresh sequential evaluation.
    assert!(Arc::ptr_eq(first.canvas(), second.canvas()));
    assert!(first.result.ptr_eq(&second.result));
    let mut dev = Device::cpu();
    let want = queries[0].prepare().execute(&mut dev, vps[0]);
    assert_canvas_eq(second.canvas(), want.canvas(), "cache hit");
    // Same query, different viewport: a different cache entry.
    let other = engine.execute(&queries[0], vps[1]).unwrap();
    assert_eq!(other.served, Served::Computed);
    assert_eq!(first.fingerprint, other.fingerprint);
}

#[test]
fn eviction_under_tiny_budget_stays_correct() {
    let (queries, vps) = workload();
    // Budget sized to roughly one 64×64 canvas: inserting a second
    // entry must evict the first, and everything stays correct.
    let mut dev = Device::cpu();
    let one = queries[0].prepare().execute(&mut dev, vps[0]).size_bytes();
    let engine = QueryEngine::with_config(EngineConfig {
        threads: 2,
        max_concurrent: 2,
        max_queue: 8,
        cache_budget_bytes: one + one / 2,
        calibrate: false,
        ..EngineConfig::default()
    });
    for round in 0..3 {
        for (qi, q) in queries.iter().take(3).enumerate() {
            let resp = engine.execute(q, vps[0]).unwrap();
            let mut dev = Device::cpu();
            let want = q.prepare().execute(&mut dev, vps[0]);
            assert_canvas_eq(
                resp.canvas(),
                want.canvas(),
                &format!("round {round}, query {qi}"),
            );
        }
    }
    let cs = engine.cache_stats();
    assert!(cs.evictions > 0, "tiny budget must evict: {cs:?}");
    assert!(
        cs.bytes <= one + one / 2,
        "budget respected: {} > {}",
        cs.bytes,
        one + one / 2
    );
    // Oversized canvases (96×96 > budget) are rejected, not admitted.
    let resp = engine.execute(&queries[0], vps[2]).unwrap();
    assert_eq!(resp.served, Served::Computed);
    assert!(engine.cache_stats().rejected_oversize > 0);
}

#[test]
fn a_pan_walk_keeps_only_the_last_two_viewports_resident() {
    // Two admission permits make a window of two viewports: once the
    // walk has moved on, a viewport's interiors retire, and its never
    // re-asked roots retire once probation outgrows its quarter of the
    // budget. The live heatmap is left out: a patchable root enters
    // protected and outlives its viewport on purpose.
    let (queries, _) = workload();
    let queries = &queries[..6];
    let walk: Vec<Viewport> = (0..8)
        .map(|i| {
            let x = 5.0 * f64::from(i);
            Viewport::new(
                BBox::new(Point::new(x, 10.0), Point::new(x + 50.0, 60.0)),
                64,
                64,
            )
        })
        .collect();
    // Probation holds about two viewports' roots: the walk overflows it.
    let budget = 8 << 20;
    let config = EngineConfig {
        threads: 2,
        max_concurrent: 2,
        max_queue: 8,
        cache_budget_bytes: budget,
        calibrate: false,
        ..EngineConfig::default()
    };
    // What one viewport's step leaves in a cache that sees nothing
    // else: (interior bytes, root bytes).
    let alone: Vec<(usize, usize)> = walk
        .iter()
        .map(|vp| {
            let engine = QueryEngine::with_config(config);
            for q in queries {
                engine.execute(q, *vp).unwrap();
            }
            let cs = engine.cache_stats();
            (cs.shared_bytes, cs.bytes - cs.shared_bytes)
        })
        .collect();
    let engine = QueryEngine::with_config(config);
    for (i, vp) in walk.iter().enumerate() {
        for (qi, q) in queries.iter().enumerate() {
            let resp = engine.execute(q, *vp).unwrap();
            let mut dev = Device::cpu();
            let want = q.prepare().execute(&mut dev, *vp);
            assert_canvas_eq(
                resp.canvas(),
                want.canvas(),
                &format!("step {i}, query {qi}"),
            );
        }
        let last_two = |f: fn(&(usize, usize)) -> usize| {
            f(&alone[i]) + if i > 0 { f(&alone[i - 1]) } else { 0 }
        };
        let cs = engine.cache_stats();
        assert!(cs.shared_bytes <= last_two(|a| a.0), "step {i}: {cs:?}");
        // Nothing was asked twice, so every root is on probation: it
        // fits its share of the budget, or only warm roots are left.
        let roots = cs.bytes - cs.shared_bytes;
        assert!(
            roots <= (budget / 4).max(last_two(|a| a.1)),
            "step {i}: {roots} root bytes: {cs:?}"
        );
    }
    let cs = engine.cache_stats();
    assert_eq!(cs.evictions, 0, "{cs:?}");
    assert!(
        cs.entries - cs.shared_entries < walk.len() * queries.len(),
        "cold roots retired: {cs:?}"
    );
    assert_eq!(
        cs.insertions,
        cs.entries as u64 + cs.evictions + cs.retired + cs.removed + cs.replaced,
        "{cs:?}"
    );
}

#[test]
fn two_clients_panning_in_step_share_as_much_as_a_wide_window() {
    // Two clients pan side by side over disjoint viewports in lockstep:
    // each runs the linked views at its step's viewport, then waits for
    // the other. Under two admission permits (a window of two
    // viewports) they share exactly the interiors, and draw exactly the
    // primitives, that they do under a window wide enough to retire
    // nothing: two clients that each stay at one viewport are the
    // traffic the window width is derived for. Free-running clients are
    // not pinned: between two of a client's views the window is a
    // recency heuristic (cache module docs).
    let (queries, _) = workload();
    let queries = &queries[..6];
    let walk = |y: f64| -> Vec<Viewport> {
        (0..6)
            .map(|i| {
                let x = 5.0 * f64::from(i);
                Viewport::new(
                    BBox::new(Point::new(x, y), Point::new(x + 50.0, y + 50.0)),
                    64,
                    64,
                )
            })
            .collect()
    };
    let config = |max_concurrent| EngineConfig {
        threads: 2,
        max_concurrent,
        max_queue: 8,
        cache_budget_bytes: 64 << 20,
        calibrate: false,
        ..EngineConfig::default()
    };
    let narrow = QueryEngine::with_config(config(2));
    let wide = QueryEngine::with_config(config(64));
    let work = |engine: &QueryEngine| {
        let m = engine.metrics();
        (
            m.subplan_hits,
            m.subplan_published,
            engine.shared().stats().primitives,
        )
    };
    // The client threads only record; every assertion runs after the
    // scope, so a failure cannot strand the other client at a barrier.
    let barrier = Barrier::new(2);
    let per_step = std::sync::Mutex::new(Vec::new());
    let responses: Vec<Vec<_>> = std::thread::scope(|s| {
        let clients: Vec<_> = [walk(5.0), walk(45.0)]
            .into_iter()
            .map(|walk| {
                let (narrow, wide, barrier, per_step) = (&narrow, &wide, &barrier, &per_step);
                s.spawn(move || {
                    let mut got = Vec::new();
                    for vp in walk {
                        for q in queries {
                            got.push((q, vp, narrow.execute(q, vp)));
                            let _ = wide.execute(q, vp);
                        }
                        if barrier.wait().is_leader() {
                            per_step.lock().unwrap().push((work(narrow), work(wide)));
                        }
                        barrier.wait();
                    }
                    got
                })
            })
            .collect();
        clients.into_iter().map(|c| c.join().unwrap()).collect()
    });
    for (c, got) in responses.into_iter().enumerate() {
        for (i, (q, vp, resp)) in got.into_iter().enumerate() {
            let want = q.prepare().execute(&mut Device::cpu(), vp);
            let ctx = format!("client {c}, submission {i}");
            assert_canvas_eq(resp.unwrap().canvas(), want.canvas(), &ctx);
        }
    }
    let per_step = per_step.into_inner().unwrap();
    assert_eq!(per_step.len(), 6);
    for (step, (narrow, wide)) in per_step.iter().enumerate() {
        assert_eq!(narrow, wide, "step {step}: (hits, published, primitives)");
    }
    assert!(per_step[5].0 .0 > 0, "the linked views share interiors");
    let (n, w) = (narrow.cache_stats(), wide.cache_stats());
    assert!(n.retired > 0 && w.retired == 0, "{n:?} / {w:?}");
    assert_eq!(
        n.insertions,
        n.entries as u64 + n.evictions + n.retired + n.removed + n.replaced,
        "{n:?}"
    );
}

#[test]
fn identical_simultaneous_submissions_deduplicate() {
    let (queries, vps) = workload();
    let engine = Arc::new(QueryEngine::with_config(EngineConfig {
        threads: 2,
        max_concurrent: 1,
        max_queue: 16,
        cache_budget_bytes: 64 << 20,
        calibrate: false,
        ..EngineConfig::default()
    }));
    let barrier = Arc::new(std::sync::Barrier::new(4));
    let mut handles = Vec::new();
    for _ in 0..4 {
        let engine = Arc::clone(&engine);
        let q = queries[2].clone();
        let vp = vps[0];
        let barrier = Arc::clone(&barrier);
        handles.push(std::thread::spawn(move || {
            barrier.wait();
            Arc::clone(engine.execute(&q, vp).unwrap().canvas())
        }));
    }
    let canvases: Vec<Arc<Canvas>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    // All four responses share one canvas allocation: evaluated once,
    // served four times (who coalesced vs hit the cache is a race; the
    // compute count is not).
    for c in &canvases[1..] {
        assert!(Arc::ptr_eq(c, &canvases[0]));
    }
    let m = engine.metrics();
    assert_eq!(m.computed, 1, "deduplication failed: {m:?}");
    assert_eq!(m.cache_hits + m.coalesced, 3);
}

#[test]
fn fair_share_tickets_reach_the_pool_gate() {
    let (queries, vps) = workload();
    let engine = Arc::new(QueryEngine::with_config(EngineConfig {
        threads: 3,
        max_concurrent: 4,
        max_queue: 64,
        // No cache: force every submission through the executor so the
        // gate sees sustained multi-ticket traffic.
        cache_budget_bytes: 0,
        calibrate: false,
        ..EngineConfig::default()
    }));
    let mut handles = Vec::new();
    for client in 0..3usize {
        let engine = Arc::clone(&engine);
        let queries = queries.clone();
        // 96×96 is four 64×64 tiles, so every draw claims its tiles in
        // a pooled pass (a one-tile frame's draw runs inline).
        let vp = vps[2];
        handles.push(std::thread::spawn(move || {
            for i in 0..4 {
                let q = &queries[(client + i) % queries.len()];
                let _ = engine.execute(q, vp).unwrap();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let s = engine.scheduler_stats();
    assert!(s.grants > 0, "pooled passes reached the gate");
    assert!(
        s.per_ticket.len() >= 3,
        "per-query tickets registered: {s:?}"
    );
    let m = engine.metrics();
    // No cache ⇒ nothing is served from storage; only in-flight
    // coalescing (simultaneous identical submissions) may dedupe.
    assert_eq!(m.cache_hits, 0);
    assert_eq!(m.computed + m.coalesced, 12);
    assert!(m.computed >= 6, "most distinct submissions computed: {m:?}");
}

// ---------------------------------------------------------------------
// Whole-plan failure paths: a leader that panics or is shed must still
// resolve its coalesced followers, return its permit, and leave the
// key servable. A Value Transform gated on a `OnceLock` parks a query
// inside its eval (64×64 stays under `min_parallel_items`, so the pass
// runs inline on the submitting thread) so the tests control who holds
// what.
// ---------------------------------------------------------------------

/// `V[name](C_P)` as a whole plan: the evaluation raises `entered`,
/// parks until the gate is set, and — with `boom` — panics the first
/// time through.
fn gated_plan(
    name: &'static str,
    gate: &Arc<OnceLock<()>>,
    entered: &Arc<AtomicBool>,
    boom: bool,
) -> Query {
    let points = canvas_datagen::taxi_pickups(&extent(), 500, 5);
    let (gate, entered, fuse) = (Arc::clone(gate), Arc::clone(entered), AtomicBool::new(boom));
    Query::Plan(Expr::value_transform(
        name,
        Arc::new(move |_, t: Texel| {
            entered.store(true, Ordering::SeqCst);
            gate.wait();
            if fuse.swap(false, Ordering::SeqCst) {
                panic!("gated leader failed");
            }
            t
        }),
        Expr::points(Arc::new(PointBatch::from_points(points))),
    ))
}

/// One permit, no waiting line: a leaked permit sheds the next query
/// instead of hanging the test.
fn single_permit_engine() -> Arc<QueryEngine> {
    Arc::new(QueryEngine::with_config(EngineConfig {
        threads: 2,
        max_concurrent: 1,
        max_queue: 0,
        cache_budget_bytes: 64 << 20,
        calibrate: false,
        ..EngineConfig::default()
    }))
}

fn submit(
    engine: &Arc<QueryEngine>,
    q: &Query,
    vp: Viewport,
) -> std::thread::JoinHandle<Result<Served, EngineError>> {
    let engine = Arc::clone(engine);
    let q = q.clone();
    std::thread::spawn(move || engine.execute(&q, vp).map(|r| r.served))
}

fn spin_until(cond: impl Fn() -> bool) {
    while !cond() {
        std::thread::yield_now();
    }
}

#[test]
fn follower_of_a_panicking_leader_sees_leader_failed_and_the_key_recovers() {
    let vp = viewports()[0];
    let gate = Arc::new(OnceLock::new());
    let entered = Arc::new(AtomicBool::new(false));
    let q = gated_plan("gated-boom", &gate, &entered, true);
    let engine = single_permit_engine();

    let leader = submit(&engine, &q, vp);
    // Parked inside its eval: the leader holds the flight and the
    // only permit.
    spin_until(|| entered.load(Ordering::SeqCst));
    let misses = engine.cache_stats().misses;
    let follower = submit(&engine, &q, vp);
    // The follower's root-probe miss is its last observable step
    // before it joins the leader's flight; give it ample time to park.
    spin_until(|| engine.cache_stats().misses > misses);
    std::thread::sleep(std::time::Duration::from_millis(200));
    gate.set(()).unwrap();

    assert!(
        leader.join().is_err(),
        "the panic reaches the leader's caller"
    );
    match follower.join().expect("a follower never panics") {
        Err(EngineError::LeaderFailed(msg)) => {
            assert!(msg.contains("gated leader failed"), "message kept: {msg}")
        }
        other => panic!("follower must see LeaderFailed, got {other:?}"),
    }

    // The failure poisoned nothing: the flight is retired and the
    // permit returned, so the same key is admitted and recomputes.
    let again = engine.execute(&q, vp).expect("permit returned, key free");
    assert_eq!(again.served, Served::Computed);
    let mut dev = Device::cpu();
    let want = q.prepare().execute(&mut dev, vp);
    assert_canvas_eq(again.canvas(), want.canvas(), "recompute after failure");
    let m = engine.metrics();
    assert_eq!((m.submitted, m.computed, m.failed), (3, 1, 2), "{m:?}");
    assert_conserved(&m);
}

#[test]
fn submissions_behind_a_shed_leader_all_see_overloaded() {
    const ROUNDS: usize = 500;
    const CLIENTS: usize = 4;
    let (queries, vps) = workload();
    let (q, vp) = (&queries[0], vps[0]);
    let gate = Arc::new(OnceLock::new());
    let entered = Arc::new(AtomicBool::new(false));
    let engine = single_permit_engine();

    // The holder parks inside its eval with the only permit.
    let hold = gated_plan("gated-hold", &gate, &entered, false);
    let holder = submit(&engine, &hold, vp);
    spin_until(|| entered.load(Ordering::SeqCst));

    // Simultaneous identical submissions: each round's first arrival
    // leads and is shed at the empty waiting line; the others either
    // coalesced onto it in time (and are handed its outcome) or lead
    // and are shed themselves. Which is a race (on a 2-core host tens
    // to hundreds of the 2000 coalesce) — the structured retry signal
    // every client sees is not.
    let barrier = Barrier::new(CLIENTS);
    let outcomes: Vec<_> = std::thread::scope(|s| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|_| {
                s.spawn(|| {
                    let round = |_| {
                        barrier.wait();
                        engine.execute(q, vp).map(|r| r.served)
                    };
                    (0..ROUNDS).map(round).collect::<Vec<_>>()
                })
            })
            .collect();
        clients
            .into_iter()
            .flat_map(|c| c.join().unwrap())
            .collect()
    });
    let shed = Err(EngineError::Overloaded {
        executing: 1,
        queued: 0,
    });
    assert!(outcomes.iter().all(|o| *o == shed), "{outcomes:?}");
    let m = engine.metrics();
    assert_eq!(m.shed + m.failed, (ROUNDS * CLIENTS) as u64, "{m:?}");
    assert!(m.shed >= ROUNDS as u64, "every round shed a leader: {m:?}");

    gate.set(()).unwrap();
    assert_eq!(holder.join().expect("holder thread"), Ok(Served::Computed));
    // Shed outcomes were never cached or left in flight.
    assert_eq!(engine.execute(q, vp).unwrap().served, Served::Computed);
    let m = engine.metrics();
    assert_eq!(
        (m.submitted, m.computed, m.coalesced),
        ((ROUNDS * CLIENTS + 2) as u64, 2, 0),
        "{m:?}"
    );
    assert_conserved(&m);
}
