//! Cross-query subplan sharing: correctness and accounting.
//!
//! The tentpole claim: a selection and a heatmap over the same dataset
//! and viewport render their shared intermediates (the density canvas
//! `C_P`, the query-polygon canvas `C_Q`, the blended canvas) **once**,
//! whether the second query arrives after the first finished (shared
//! cache hit) or while it is still rendering (in-flight subscription)
//! — and sharing is invisible in results: every response stays
//! bit-identical to a fresh single-threaded `Device::cpu` evaluation.
//!
//! The failure paths matter as much as the happy path: a subscriber
//! whose leader panics, or whose published canvas the cache never
//! admitted (tiny budget — the "evicted mid-subscription" blind spot),
//! must fall back to a private render, never panic or see a stale
//! canvas.

use canvas_core::prelude::*;
use canvas_engine::{EngineConfig, Query, QueryEngine};
use canvas_geom::{BBox, Point, Polygon};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};

fn extent() -> BBox {
    BBox::new(Point::new(0.0, 0.0), Point::new(100.0, 100.0))
}

fn vp() -> Viewport {
    Viewport::new(extent(), 64, 64)
}

fn data() -> Arc<PointBatch> {
    Arc::new(PointBatch::from_points(canvas_datagen::taxi_pickups(
        &extent(),
        2_000,
        42,
    )))
}

fn district() -> Polygon {
    canvas_datagen::star_polygon(
        &BBox::new(Point::new(15.0, 15.0), Point::new(80.0, 80.0)),
        24,
        0.4,
        7,
    )
}

fn config(budget: usize) -> EngineConfig {
    EngineConfig {
        threads: 2,
        max_concurrent: 4,
        max_queue: 64,
        cache_budget_bytes: budget,
        calibrate: false,
        share_subplans: true,
        ..EngineConfig::default()
    }
}

/// The heatmap as an algebra plan sharing the selection's interior:
/// `V[log](M[texel](B[⊙](C_P, C_Q)))` over the same data + polygon as
/// `Query::SelectPoints` (which lowers to `M[Mp'](B[⊙](C_P, C_Q))`).
fn heatmap_plan(data: &Arc<PointBatch>, q: &Polygon) -> Query {
    Query::Plan(Expr::value_transform(
        "log",
        Arc::new(|_, mut t: Texel| {
            if let Some(mut p) = t.get(0) {
                p.v2 = (1.0 + p.v1).ln();
                t.set(0, p);
            }
            t
        }),
        Expr::mask(
            MaskSpec::Texel("point ∧ area", Arc::new(|t: &Texel| t.has(0) && t.has(2))),
            Expr::blend(
                BlendFn::PointOverArea,
                Expr::points(data.clone()),
                Expr::query_polygon(q.clone(), 1),
            ),
        ),
    ))
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
}

fn cpu_reference(q: &Query, vp: Viewport) -> Arc<Canvas> {
    let mut dev = Device::cpu();
    Arc::clone(q.prepare().execute(&mut dev, vp).canvas())
}

#[test]
fn selection_then_heatmap_renders_shared_density_once() {
    let data = data();
    let q = district();
    let selection = Query::SelectPoints {
        data: data.clone(),
        q: q.clone(),
    };
    let heatmap = heatmap_plan(&data, &q);
    // Distinct questions: the whole-plan cache can NOT serve one for
    // the other.
    assert_ne!(
        selection.prepare().fingerprint,
        heatmap.prepare().fingerprint
    );
    // But their planned cut points overlap — the blend, C_P, and C_Q
    // subtrees carry identical fingerprints in both plans.
    let cut_fps = |q: &Query| -> std::collections::HashSet<_> {
        q.prepare()
            .subplans()
            .iter()
            .filter(|s| s.is_cut && s.depth > 0)
            .map(|s| s.fingerprint)
            .collect()
    };
    let overlap = cut_fps(&selection).intersection(&cut_fps(&heatmap)).count();
    assert!(overlap >= 3, "selection and heatmap share ≥ 3 cut points");

    let engine = QueryEngine::with_config(config(256 << 20));
    let r_sel = engine.execute(&selection, vp()).unwrap();
    let prims_after_selection = engine.shared().stats().primitives;
    assert!(prims_after_selection > 0, "selection rasterized geometry");

    let r_heat = engine.execute(&heatmap, vp()).unwrap();
    // The heatmap's interior blend is the selection's interior blend:
    // served from the shared cache, so the heatmap rasterized NOTHING
    // new — the shared density canvas was rendered exactly once.
    assert_eq!(
        engine.shared().stats().primitives,
        prims_after_selection,
        "heatmap re-rasterized a shared intermediate"
    );

    let m = engine.metrics();
    assert!(m.subplan_hits >= 1, "blend subplan must hit: {m:?}");
    // Selection published blend + C_P + C_Q; the heatmap published its
    // texel-mask stage above the shared blend.
    assert!(m.subplan_published >= 3, "{m:?}");
    assert_eq!(m.shared_renders_avoided, 0, "sequential ⇒ no subscription");
    let cs = engine.cache_stats();
    assert!(cs.shared_entries > 0 && cs.shared_bytes > 0, "{cs:?}");

    // Sharing is invisible in results.
    assert_canvas_eq(
        r_sel.canvas(),
        &cpu_reference(&selection, vp()),
        "selection",
    );
    assert_canvas_eq(r_heat.canvas(), &cpu_reference(&heatmap, vp()), "heatmap");
}

#[test]
fn fused_heatmap_shares_the_query_polygon_canvas() {
    // The fused-chain heatmap materializes exactly one operand (C_Q)
    // and exchanges exactly that: after an algebra-path selection over
    // the same polygon, the fused heatmap reuses the cached C_Q.
    let data = data();
    let q = district();
    let selection = Query::SelectPoints {
        data: data.clone(),
        q: q.clone(),
    };
    let fused = Query::SelectionHeatmap {
        data: data.clone(),
        q: q.clone(),
    };
    let engine = QueryEngine::with_config(config(256 << 20));
    engine.execute(&selection, vp()).unwrap();
    let hits_before = engine.metrics().subplan_hits;
    let r = engine.execute(&fused, vp()).unwrap();
    assert!(
        engine.metrics().subplan_hits > hits_before,
        "fused heatmap must reuse the selection's C_Q render"
    );
    assert_canvas_eq(r.canvas(), &cpu_reference(&fused, vp()), "fused heatmap");
}

#[test]
fn sharing_off_keeps_subplan_counters_silent() {
    let data = data();
    let q = district();
    let engine = QueryEngine::with_config(EngineConfig {
        share_subplans: false,
        ..config(256 << 20)
    });
    let selection = Query::SelectPoints {
        data: data.clone(),
        q: q.clone(),
    };
    let r1 = engine.execute(&selection, vp()).unwrap();
    let r2 = engine.execute(&heatmap_plan(&data, &q), vp()).unwrap();
    let m = engine.metrics();
    assert_eq!(
        (
            m.subplan_hits,
            m.subplan_published,
            m.shared_renders_avoided
        ),
        (0, 0, 0),
        "{m:?}"
    );
    assert_eq!(engine.cache_stats().shared_entries, 0);
    assert_canvas_eq(r1.canvas(), &cpu_reference(&selection, vp()), "selection");
    assert_canvas_eq(
        r2.canvas(),
        &cpu_reference(&heatmap_plan(&data, &q), vp()),
        "heatmap",
    );
}

// ---------------------------------------------------------------------
// In-flight subscription: the second query latches onto the first's
// still-rendering intermediate. A gated Value Transform holds the
// leader inside the shared subplan so the test controls the overlap.
// ---------------------------------------------------------------------

struct Gate {
    open: Mutex<bool>,
    cv: Condvar,
}

impl Gate {
    fn new() -> Arc<Self> {
        Arc::new(Gate {
            open: Mutex::new(false),
            cv: Condvar::new(),
        })
    }

    fn wait_open(&self) {
        let mut open = self.open.lock().unwrap();
        while !*open {
            open = self.cv.wait(open).unwrap();
        }
    }

    fn open(&self) {
        *self.open.lock().unwrap() = true;
        self.cv.notify_all();
    }
}

/// `M[label](V[gated](C_P))` — two different labels give two distinct
/// root plans sharing the gated `V[gated](C_P)` subplan. The leader
/// entering the V pass raises `entered`, then parks until the gate
/// opens (64×64 stays under `min_parallel_items`, so the pass runs
/// inline on the leader's thread and blocks nobody else). `boom_once`
/// makes the first evaluation panic after the gate opens.
fn gated_query(
    data: &Arc<PointBatch>,
    label: &'static str,
    gate: &Arc<Gate>,
    entered: &Arc<AtomicBool>,
    boom_once: Option<Arc<AtomicBool>>,
) -> Query {
    let gate = Arc::clone(gate);
    let entered = Arc::clone(entered);
    Query::Plan(Expr::mask(
        MaskSpec::Texel(label, Arc::new(|_: &Texel| true)),
        Expr::value_transform(
            "gated",
            Arc::new(move |_, t: Texel| {
                entered.store(true, Ordering::SeqCst);
                gate.wait_open();
                if let Some(fuse) = &boom_once {
                    if !fuse.swap(true, Ordering::SeqCst) {
                        panic!("gated subplan leader failed");
                    }
                }
                t
            }),
            Expr::points(data.clone()),
        ),
    ))
}

/// Runs the gated leader/subscriber pair on `engine`; returns the
/// subscriber's canvas (the leader's result is checked by the caller
/// via the join handle outcome).
fn run_gated_pair(
    engine: &Arc<QueryEngine>,
    leader_q: Query,
    follower_q: Query,
    gate: &Arc<Gate>,
    entered: &Arc<AtomicBool>,
) -> (std::thread::Result<Arc<Canvas>>, Arc<Canvas>) {
    let leader = {
        let engine = Arc::clone(engine);
        let vp = vp();
        std::thread::spawn(move || Arc::clone(engine.execute(&leader_q, vp).unwrap().canvas()))
    };
    // The leader raises `entered` from inside the shared subplan's V
    // pass — at that point its in-flight entry is registered and stays
    // pending until the gate opens.
    while !entered.load(Ordering::SeqCst) {
        std::thread::yield_now();
    }
    let follower = {
        let engine = Arc::clone(engine);
        let vp = vp();
        std::thread::spawn(move || Arc::clone(engine.execute(&follower_q, vp).unwrap().canvas()))
    };
    // Give the follower ample time to reach the subplan table and
    // subscribe (it does no rendering first — prepare + probe only).
    std::thread::sleep(std::time::Duration::from_millis(200));
    gate.open();
    let leader_result = leader.join();
    let follower_canvas = follower.join().expect("subscriber must never panic");
    (leader_result, follower_canvas)
}

#[test]
fn concurrent_query_subscribes_to_inflight_subplan() {
    let data = data();
    let gate = Gate::new();
    let entered = Arc::new(AtomicBool::new(false));
    let plan_a = gated_query(&data, "keep-a", &gate, &entered, None);
    let plan_b = gated_query(&data, "keep-b", &gate, &entered, None);

    // Baseline: one gated query alone (sharing off) — how much
    // geometry a single evaluation rasterizes.
    let gate_open = Gate::new();
    gate_open.open();
    let solo = QueryEngine::with_config(EngineConfig {
        share_subplans: false,
        ..config(256 << 20)
    });
    solo.execute(
        &gated_query(&data, "keep-a", &gate_open, &entered, None),
        vp(),
    )
    .unwrap();
    let solo_prims = solo.shared().stats().primitives;
    entered.store(false, Ordering::SeqCst);

    let engine = Arc::new(QueryEngine::with_config(config(256 << 20)));
    let (leader_result, follower_canvas) =
        run_gated_pair(&engine, plan_a.clone(), plan_b.clone(), &gate, &entered);
    let leader_canvas = leader_result.expect("leader succeeds");

    // Both roots differ, but the gated interior was rendered ONCE:
    // the pair rasterized exactly what one query alone rasterizes.
    assert_eq!(
        engine.shared().stats().primitives,
        solo_prims,
        "subscription must avoid re-rendering the shared subplan"
    );
    let m = engine.metrics();
    assert!(m.subplan_hits >= 1, "{m:?}");
    assert_eq!(m.shared_renders_avoided, 1, "{m:?}");
    assert_eq!(m.subplan_fallbacks, 0, "{m:?}");

    assert_canvas_eq(&leader_canvas, &cpu_reference(&plan_a, vp()), "leader");
    assert_canvas_eq(&follower_canvas, &cpu_reference(&plan_b, vp()), "follower");
}

#[test]
fn tiny_budget_subscription_survives_missing_cache_entry() {
    // The eviction blind spot: with a zero cache budget the published
    // intermediate is never admitted (the limit case of "evicted the
    // moment it was inserted, mid-subscription"). The subscriber must
    // still be served — the in-flight slot hands over the canvas
    // directly — and a later resubmission recomputes without panicking
    // or seeing anything stale.
    let data = data();
    let gate = Gate::new();
    let entered = Arc::new(AtomicBool::new(false));
    let plan_a = gated_query(&data, "keep-a", &gate, &entered, None);
    let plan_b = gated_query(&data, "keep-b", &gate, &entered, None);

    let engine = Arc::new(QueryEngine::with_config(config(0)));
    let (leader_result, follower_canvas) =
        run_gated_pair(&engine, plan_a.clone(), plan_b.clone(), &gate, &entered);
    let leader_canvas = leader_result.expect("leader succeeds");

    let m = engine.metrics();
    assert_eq!(m.shared_renders_avoided, 1, "{m:?}");
    let cs = engine.cache_stats();
    assert_eq!(cs.shared_entries, 0, "nothing admitted under budget 0");
    assert_canvas_eq(&leader_canvas, &cpu_reference(&plan_a, vp()), "leader");
    assert_canvas_eq(&follower_canvas, &cpu_reference(&plan_b, vp()), "follower");

    // Resubmit: no cache, no in-flight leader — a full private
    // recompute, still correct.
    let again = engine.execute(&plan_b, vp()).unwrap();
    assert_canvas_eq(again.canvas(), &cpu_reference(&plan_b, vp()), "recompute");
}

#[test]
fn subscriber_falls_back_when_leader_fails() {
    // The leader panics inside the shared subplan after the gate
    // opens; its dropped lease resolves the subscriber with the
    // fallback signal, and the subscriber renders privately (reusing
    // the C_P canvas the leader already published) — correct result,
    // no hang, no panic.
    let data = data();
    let gate = Gate::new();
    let entered = Arc::new(AtomicBool::new(false));
    let fuse = Arc::new(AtomicBool::new(false));
    let plan_a = gated_query(&data, "keep-a", &gate, &entered, Some(fuse.clone()));
    let plan_b = gated_query(&data, "keep-b", &gate, &entered, Some(fuse.clone()));

    let engine = Arc::new(QueryEngine::with_config(config(256 << 20)));
    let (leader_result, follower_canvas) =
        run_gated_pair(&engine, plan_a, plan_b.clone(), &gate, &entered);
    assert!(leader_result.is_err(), "leader's panic propagates to it");

    let m = engine.metrics();
    assert_eq!(m.subplan_fallbacks, 1, "{m:?}");
    assert_eq!(m.shared_renders_avoided, 0, "{m:?}");
    assert_eq!(m.failed, 1, "{m:?}");
    // The follower's private render still reused the C_P canvas the
    // leader published before panicking in the V pass.
    assert!(m.subplan_hits >= 1, "{m:?}");
    assert_canvas_eq(&follower_canvas, &cpu_reference(&plan_b, vp()), "fallback");
}

#[test]
fn mixed_class_eviction_under_tiny_budget_stays_correct() {
    // Roots and shared interiors churn one small budget together;
    // results must stay exact through every eviction pattern.
    let data = data();
    let qs = [
        district(),
        canvas_datagen::star_polygon(
            &BBox::new(Point::new(30.0, 5.0), Point::new(95.0, 60.0)),
            16,
            0.3,
            9,
        ),
    ];
    let one = cpu_reference(
        &Query::SelectPoints {
            data: data.clone(),
            q: qs[0].clone(),
        },
        vp(),
    )
    .size_bytes();
    let engine = QueryEngine::with_config(config(2 * one + one / 2));
    for round in 0..3 {
        for q in &qs {
            for query in [
                Query::SelectPoints {
                    data: data.clone(),
                    q: q.clone(),
                },
                heatmap_plan(&data, q),
            ] {
                let resp = engine.execute(&query, vp()).unwrap();
                assert_canvas_eq(
                    resp.canvas(),
                    &cpu_reference(&query, vp()),
                    &format!("round {round}"),
                );
            }
        }
    }
    let cs = engine.cache_stats();
    assert!(cs.evictions > 0, "tiny budget must evict: {cs:?}");
    assert!(cs.bytes <= 2 * one + one / 2, "budget respected: {cs:?}");
    let m = engine.metrics();
    assert!(m.subplan_published > 0, "{m:?}");
}
