//! Cross-query subplan sharing: correctness and accounting.
//!
//! The claim: a selection and a heatmap over the same dataset and
//! viewport render their shared intermediates (the density canvas
//! `C_P` and the query-polygon canvas `C_Q`) **once** when the second
//! query arrives after the first published them — and sharing is
//! invisible in results: every response stays bit-identical to a fresh
//! single-threaded `Device::cpu` evaluation. The selection runs its
//! blend folded into the mask's entry walk, so its leaves are what it
//! publishes. The linked views do the same across classes: the
//! selection heatmap walks the selection's `C_P` and `C_Q`, the zone
//! aggregate reads the choropleth's `C_Y*`, and skyline and hull read
//! the `C_P` a zone aggregate over the same handle evaluates.
//!
//! Sharing is a cache, not a protocol: a query never waits on another
//! query's in-flight render of an interior. Two queries that miss the
//! same interior at once both render it, and the key stays resident
//! once.

use canvas_core::algebra::{
    is_cut_point, normalize, plan_nodes, selection_sink, Fingerprint, SubplanCache,
};
use canvas_core::prelude::*;
use canvas_core::queries::heatmap;
use canvas_core::queries::selection::points_in_polygon_plan;
use canvas_engine::{EngineConfig, Query, QueryEngine};
use canvas_geom::{BBox, Point, Polygon};
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::Duration;

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
        ..EngineConfig::default()
    }
}

/// The heatmap as an algebra plan sharing the selection's interior:
/// `V[log](M[texel](B[⊙](C_P, C_Q)))` over the same data + polygon as
/// `Query::SelectPoints` (which lowers to `M[Mp'](B[⊙](C_P, C_Q))`).
fn heatmap_expr(data: &Arc<PointBatch>, q: &Polygon) -> Expr {
    Expr::value_transform(
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
    )
}

fn heatmap_plan(data: &Arc<PointBatch>, q: &Polygon) -> Query {
    Query::Plan(heatmap_expr(data, q))
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
    // Since the selection runs as the mask's entry walk it computes and
    // publishes its two leaves, not its blend; a heatmap plan over the
    // same data and polygon reads both leaves and draws nothing.
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
    // Their interiors overlap structurally (blend, C_P, C_Q), but the
    // selection's blend is folded into its walk: the leaves are the
    // interiors it evaluates.
    let interiors = |e: Expr| -> HashSet<Fingerprint> {
        plan_nodes(&normalize(e))
            .into_iter()
            .filter(|n| n.depth > 0)
            .map(|n| n.fingerprint)
            .collect()
    };
    let selection_expr = points_in_polygon_plan(data.clone(), q.clone());
    let overlap = interiors(selection_expr.clone())
        .intersection(&interiors(heatmap_expr(&data, &q)))
        .count();
    assert!(overlap >= 3, "selection and heatmap share ≥ 3 interiors");
    let sink = selection_sink(&selection_expr).expect("the selection walks entries");
    assert!(is_cut_point(sink.points) && is_cut_point(sink.areas));

    let engine = QueryEngine::with_config(config(256 << 20));
    let r_sel = engine.execute(&selection, vp()).unwrap();
    let prims_after_selection = engine.shared().stats().primitives;
    assert!(prims_after_selection > 0, "selection rasterized geometry");
    assert_eq!(
        engine.metrics().subplan_published,
        2,
        "the selection publishes C_P and C_Q"
    );

    let r_heat = engine.execute(&heatmap, vp()).unwrap();
    // The heatmap's leaves are the selection's: served from the shared
    // cache, so the heatmap rasterized NOTHING new — the shared density
    // canvas was rendered exactly once.
    assert_eq!(
        engine.shared().stats().primitives,
        prims_after_selection,
        "heatmap re-rasterized a shared intermediate"
    );

    let m = engine.metrics();
    assert_eq!(m.subplan_hits, 2, "both leaves hit: {m:?}");
    // The heatmap published its blend and texel-mask stages above the
    // shared leaves.
    assert!(m.subplan_published >= 3, "{m:?}");
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
fn selection_heatmap_reads_the_selections_leaves() {
    // After a selection, the production heatmap walks the selection's
    // published `C_P` and `C_Q`: no point, polygon or tile is
    // rasterized again, and nothing new is published.
    let data = data();
    let q = district();
    let selection = Query::SelectPoints {
        data: data.clone(),
        q: q.clone(),
    };
    let heatmap = Query::SelectionHeatmap {
        data: data.clone(),
        q: q.clone(),
    };
    let engine = QueryEngine::with_config(config(256 << 20));
    engine.execute(&selection, vp()).unwrap();
    let before = engine.metrics();
    let prims_after_selection = engine.shared().stats().primitives;
    let r = engine.execute(&heatmap, vp()).unwrap();
    assert_eq!(
        engine.shared().stats().primitives,
        prims_after_selection,
        "the heatmap re-rasterized what the selection had rendered"
    );
    let after = engine.metrics();
    assert_eq!(
        after.subplan_hits,
        before.subplan_hits + 2,
        "C_P and C_Q hit"
    );
    assert_eq!(
        after.subplan_published, before.subplan_published,
        "nothing new published"
    );
    assert_canvas_eq(r.canvas(), &cpu_reference(&heatmap, vp()), "heatmap");
}

#[test]
fn polygon_density_then_aggregate_render_the_zone_canvas_once() {
    // The choropleth publishes its `C_Y*[zones, ⊕]`; the zone aggregate
    // at the same viewport reads it instead of drawing the zones again.
    let data = data();
    let zones: AreaSource = Arc::new(canvas_datagen::neighborhoods(&extent(), 6, 3));
    let density = Query::PolygonDensity {
        table: zones.clone(),
        q: district(),
    };
    let aggregate = Query::AggregateByZone {
        data: data.clone(),
        zones: zones.clone(),
    };
    let engine = QueryEngine::with_config(config(256 << 20));
    let r_density = engine.execute(&density, vp()).unwrap();
    let r_aggregate = engine.execute(&aggregate, vp()).unwrap();
    let report = r_aggregate.report();
    let zone_rows: Vec<_> = report
        .nodes
        .iter()
        .filter(|n| n.label.starts_with("C_Y*"))
        .collect();
    assert_eq!(zone_rows.len(), 1, "{report:?}");
    assert_eq!(zone_rows[0].provenance, "shared_cache", "{report:?}");

    assert_canvas_eq(
        r_density.canvas(),
        &cpu_reference(&density, vp()),
        "choropleth",
    );
    assert_canvas_eq(
        r_aggregate.canvas(),
        &cpu_reference(&aggregate, vp()),
        "aggregate",
    );
}

#[test]
fn linked_views_leave_the_aggregate_nothing_to_draw() {
    // The selection publishes `C_P`, the choropleth `C_Y*`; the zone
    // aggregate after them at the same viewport reads both and walks
    // the entries: it rasterizes nothing and publishes nothing.
    let data = data();
    let zones: AreaSource = Arc::new(canvas_datagen::neighborhoods(&extent(), 6, 3));
    let engine = QueryEngine::with_config(config(256 << 20));
    engine
        .execute(
            &Query::SelectPoints {
                data: data.clone(),
                q: district(),
            },
            vp(),
        )
        .unwrap();
    engine
        .execute(
            &Query::PolygonDensity {
                table: zones.clone(),
                q: district(),
            },
            vp(),
        )
        .unwrap();
    let prims = engine.shared().stats().primitives;
    let published = engine.metrics().subplan_published;
    let aggregate = Query::AggregateByZone {
        data: data.clone(),
        zones: zones.clone(),
    };
    let r = engine.execute(&aggregate, vp()).unwrap();
    assert_eq!(
        engine.shared().stats().primitives,
        prims,
        "the aggregate drew nothing"
    );
    assert_eq!(
        engine.metrics().subplan_published,
        published,
        "the aggregate published nothing"
    );
    let report = r.report();
    for label in ["C_P", "C_Y*"] {
        let row = report
            .nodes
            .iter()
            .find(|n| n.label.starts_with(label))
            .unwrap();
        assert_eq!(row.provenance, "shared_cache", "{label}: {report:?}");
    }
    assert_canvas_eq(r.canvas(), &cpu_reference(&aggregate, vp()), "aggregate");
}

#[test]
fn linked_views_share_the_same_interiors_under_a_one_viewport_window() {
    // One admission permit keeps interiors for one viewport only. The
    // four linked views, run view after view at one viewport and then
    // at a second, draw and share exactly what they do under a window
    // wide enough to retire nothing.
    let data = data();
    let zones: AreaSource = Arc::new(canvas_datagen::neighborhoods(&extent(), 6, 3));
    let views = [
        Query::SelectPoints {
            data: data.clone(),
            q: district(),
        },
        Query::SelectionHeatmap {
            data: data.clone(),
            q: district(),
        },
        Query::PolygonDensity {
            table: zones.clone(),
            q: district(),
        },
        Query::AggregateByZone {
            data: data.clone(),
            zones: zones.clone(),
        },
    ];
    let wide = QueryEngine::with_config(config(256 << 20));
    let narrow = QueryEngine::with_config(EngineConfig {
        max_concurrent: 1,
        ..config(256 << 20)
    });
    let pan = Viewport::new(
        BBox::new(Point::new(10.0, 10.0), Point::new(90.0, 90.0)),
        64,
        64,
    );
    let work = |engine: &QueryEngine| {
        let m = engine.metrics();
        (
            m.subplan_hits,
            m.subplan_published,
            engine.shared().stats().primitives,
        )
    };
    for vp in [vp(), pan] {
        let mut report = None;
        for view in &views {
            let got = narrow.execute(view, vp).unwrap();
            let want = wide.execute(view, vp).unwrap();
            assert_eq!(work(&narrow), work(&wide), "{}", view.label());
            assert_canvas_eq(got.canvas(), want.canvas(), view.label());
            assert_canvas_eq(got.canvas(), &cpu_reference(view, vp), view.label());
            report = Some(got.report());
        }
        // The aggregate, last, read both leaves its siblings published.
        let report = report.unwrap();
        for label in ["C_P", "C_Y*"] {
            let row = report
                .nodes
                .iter()
                .find(|n| n.label.starts_with(label))
                .unwrap();
            assert_eq!(row.provenance, "shared_cache", "{label}: {report:?}");
        }
    }
    // The first viewport's interiors retired in the narrow window only.
    assert!(narrow.cache_stats().retired > 0);
    assert_eq!(wide.cache_stats().retired, 0);
}

/// A subplan cache that records the keys probed and published.
#[derive(Default)]
struct Recorder {
    probed: Mutex<Vec<Fingerprint>>,
    published: Mutex<Vec<Fingerprint>>,
}

impl SubplanCache for Recorder {
    fn get(&self, fp: Fingerprint, _: &Viewport) -> Option<Arc<Canvas>> {
        self.probed.lock().unwrap().push(fp);
        None
    }

    fn publish(&self, fp: Fingerprint, _: &Viewport, _: &Arc<Canvas>) {
        self.published.lock().unwrap().push(fp);
    }
}

/// The fingerprint of the node labelled `label` in a query's lowered
/// plan, as its EXPLAIN skeleton lists it.
fn plan_node_key(query: &Query, label: &str) -> String {
    let report = query.prepare().explain();
    let rows: Vec<_> = report.nodes.iter().filter(|n| n.label == label).collect();
    assert_eq!(rows.len(), 1, "one `{label}` node: {report:?}");
    rows[0].fingerprint.clone()
}

#[test]
fn linked_views_probe_the_keys_their_siblings_publish() {
    // Pins the sharing keys to the sibling plans' lowering: if either
    // plan or either chain's key changes, sharing would silently stop.
    let data = data();
    let q = district();
    let zones: AreaSource = Arc::new(canvas_datagen::neighborhoods(&extent(), 6, 3));
    let mut dev = Device::cpu();

    // The heatmap's operands are the selection plan's two leaves.
    let heat = Recorder::default();
    heatmap::selection_heatmap_via(&mut dev, vp(), &data, &q, Some(&heat));
    let selection = Query::SelectPoints {
        data: data.clone(),
        q: q.clone(),
    };
    let leaf_keys = [
        plan_node_key(&selection, &format!("C_P[{} points]", data.len())),
        plan_node_key(&selection, "C_Y[record 0, id 1]"),
    ];
    let heat_probes: Vec<String> = heat
        .probed
        .lock()
        .unwrap()
        .iter()
        .map(|fp| fp.to_string())
        .collect();
    assert_eq!(heat_probes, leaf_keys, "heatmap probes C_P, then C_Q");
    let heat_published: Vec<String> = (heat.published.lock().unwrap().iter())
        .map(|fp| fp.to_string())
        .collect();
    assert_eq!(heat_published, leaf_keys, "and publishes them on a miss");

    let density = Recorder::default();
    heatmap::polygon_density_heatmap(&mut dev, vp(), &zones, &q, Some(&density));
    let aggregate = Query::AggregateByZone {
        data: data.clone(),
        zones: zones.clone(),
    };
    let zone_key = plan_node_key(&aggregate, &format!("C_Y*[{} polygons, ⊕]", zones.len()));
    let published = density.published.lock().unwrap();
    assert!(
        published.iter().any(|fp| fp.to_string() == zone_key),
        "the choropleth publishes the aggregate's C_Y* leaf: {published:?} vs {zone_key}"
    );
}

#[test]
fn skyline_hull_and_aggregate_draw_the_points_once() {
    // Skyline and hull read their selection in the mask's entry form over
    // a `C_P` keyed as the zone aggregate's `C_P` leaf: the three draw the
    // points once, and hull/skyline publish nothing but that `C_P`.
    let data = data();
    let constraint = district();
    let hull_region = canvas_datagen::star_polygon(
        &BBox::new(Point::new(30.0, 20.0), Point::new(90.0, 70.0)),
        16,
        0.3,
        9,
    );
    let zones: AreaSource = Arc::new(canvas_datagen::neighborhoods(&extent(), 6, 3));
    let sites = Arc::new(vec![Point::new(20.0, 80.0), Point::new(80.0, 20.0)]);
    let skyline = Query::Skyline {
        data: data.clone(),
        constraint: constraint.clone(),
        sites: sites.clone(),
    };
    let hull = Query::Hull {
        data: data.clone(),
        q: hull_region.clone(),
    };
    let aggregate = Query::AggregateByZone {
        data: data.clone(),
        zones: zones.clone(),
    };
    let polygon_prims = |p: &Polygon| 1 + p.holes().len() as u64;

    // What the aggregate publishes on its own (its `C_P` included).
    let alone = QueryEngine::with_config(config(256 << 20));
    alone.execute(&aggregate, vp()).unwrap();
    let aggregate_published = alone.metrics().subplan_published;

    let engine = QueryEngine::with_config(config(256 << 20));
    let prims = || engine.shared().stats().primitives;
    let r_sky = engine.execute(&skyline, vp()).unwrap();
    assert_eq!(
        prims(),
        data.len() as u64 + polygon_prims(&constraint),
        "skyline draws C_P and C_Q"
    );
    assert_eq!(
        engine.metrics().subplan_published,
        1,
        "skyline publishes C_P only"
    );
    let before = prims();
    let r_hull = engine.execute(&hull, vp()).unwrap();
    assert_eq!(
        prims(),
        before + polygon_prims(&hull_region),
        "hull draws its C_Q and reads the points skyline drew"
    );
    assert_eq!(
        engine.metrics().subplan_published,
        1,
        "hull publishes nothing"
    );
    assert_eq!(engine.metrics().subplan_hits, 1, "hull hits C_P");
    let before = prims();
    let r_aggregate = engine.execute(&aggregate, vp()).unwrap();
    let zone_prims: u64 = zones.iter().map(polygon_prims).sum();
    assert_eq!(
        prims(),
        before + zone_prims,
        "the aggregate draws only its zones"
    );
    // Skyline's `C_P` plus the aggregate's other interior: exactly what
    // the aggregate publishes on its own — its two leaves, `C_P` and
    // `C_Y*`; the entry form computes no mask or blend to publish.
    assert_eq!(aggregate_published, 2, "the aggregate publishes its leaves");
    let alone = Recorder::default();
    aggregate
        .prepare()
        .execute_via(&mut Device::cpu(), vp(), Some(&alone));
    let mut published: Vec<String> = alone
        .published
        .lock()
        .unwrap()
        .iter()
        .map(|k| k.to_string())
        .collect();
    published.sort();
    let mut leaves = vec![
        plan_node_key(&aggregate, &format!("C_P[{} points]", data.len())),
        plan_node_key(&aggregate, &format!("C_Y*[{} polygons, ⊕]", zones.len())),
    ];
    leaves.sort();
    assert_eq!(published, leaves, "the aggregate publishes C_P and C_Y*");
    assert_eq!(
        engine.metrics().subplan_published,
        aggregate_published,
        "the aggregate publishes its own interiors, not C_P again"
    );

    // The key hull and skyline use is the aggregate plan's `C_P` row.
    let mut dev = Device::cpu();
    let points_key = plan_node_key(&aggregate, &format!("C_P[{} points]", data.len()));
    let rec = Recorder::default();
    queries::skyline::skyline_of_selection(&mut dev, vp(), &data, &constraint, &sites, Some(&rec));
    queries::hull::hull_of_selection(&mut dev, vp(), &data, &hull_region, Some(&rec));
    for keys in [&rec.probed, &rec.published] {
        let keys: Vec<String> = keys.lock().unwrap().iter().map(|k| k.to_string()).collect();
        assert_eq!(keys, vec![points_key.clone(); 2]);
    }

    // Sharing is invisible in results.
    let reference = |q: &Query| q.prepare().execute(&mut Device::cpu(), vp());
    assert_eq!(r_sky.result.as_ids(), reference(&skyline).as_ids());
    assert!(!r_sky.result.as_ids().unwrap().is_empty());
    assert_eq!(r_hull.result.as_hull(), reference(&hull).as_hull());
    assert!(r_hull.result.as_hull().unwrap().len() >= 3);
    assert_canvas_eq(
        r_aggregate.canvas(),
        &cpu_reference(&aggregate, vp()),
        "aggregate",
    );
}

// ---------------------------------------------------------------------
// Concurrent interiors: a gated Value Transform parks one query inside
// a shared subplan so the test controls the overlap.
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
/// root plans sharing the `V[gated](C_P)` subplan (functions are
/// identified by name, so each query may bring its own gate). The
/// query entering the V pass raises `entered`, then parks until its
/// gate opens (64×64 stays under `min_parallel_items`, so the pass runs
/// inline on that query's thread and blocks nobody else).
fn gated_query(
    data: &Arc<PointBatch>,
    label: &'static str,
    gate: &Arc<Gate>,
    entered: &Arc<AtomicBool>,
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
                t
            }),
            Expr::points(data.clone()),
        ),
    ))
}

#[test]
fn concurrent_root_renders_a_parked_interior_without_waiting() {
    let data = data();
    let gate = Gate::new();
    let entered = Arc::new(AtomicBool::new(false));
    let plan_a = gated_query(&data, "keep-a", &gate, &entered);
    let open = Gate::new();
    open.open();
    let plan_b = gated_query(&data, "keep-b", &open, &Arc::new(AtomicBool::new(false)));

    let engine = Arc::new(QueryEngine::with_config(config(256 << 20)));
    let leader = {
        let engine = Arc::clone(&engine);
        let plan_a = plan_a.clone();
        std::thread::spawn(move || Arc::clone(engine.execute(&plan_a, vp()).unwrap().canvas()))
    };
    // The leader raises `entered` from inside the shared subplan's V
    // pass: it has published C_P and stays parked until the gate opens.
    while !entered.load(Ordering::SeqCst) {
        std::thread::yield_now();
    }
    let (tx, rx) = mpsc::channel();
    let follower = {
        let engine = Arc::clone(&engine);
        let plan_b = plan_b.clone();
        std::thread::spawn(move || {
            let resp = engine.execute(&plan_b, vp()).unwrap();
            tx.send(Arc::clone(resp.canvas())).unwrap();
        })
    };
    let follower_canvas = rx.recv_timeout(Duration::from_secs(60));
    gate.open();
    let follower_canvas =
        follower_canvas.expect("a distinct root over a parked interior must not wait for it");
    let leader_canvas = leader.join().expect("leader succeeds");
    follower.join().unwrap();

    assert_canvas_eq(&leader_canvas, &cpu_reference(&plan_a, vp()), "leader");
    assert_canvas_eq(&follower_canvas, &cpu_reference(&plan_b, vp()), "follower");

    // The follower reused the leader's C_P and rendered V[gated](C_P)
    // itself; the leader then re-published that key, which replaced the
    // follower's entry: C_P and V resident once each, plus two roots.
    let m = engine.metrics();
    assert_eq!((m.subplan_hits, m.subplan_published), (1, 3), "{m:?}");
    let cs = engine.cache_stats();
    assert_eq!((cs.shared_entries, cs.entries), (2, 4), "{cs:?}");
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

#[test]
fn value_maps_fingerprint_the_values_they_close_over() {
    // `γ0` to two different constants: same name, different results.
    // Each plan must be its own cache identity, or the engine serves
    // the first plan's canvas for the second.
    let data = data();
    let collapse = |target: Point| {
        Expr::map_scatter(
            ValueMap::to_constant(target),
            2,
            BlendFn::Accumulate,
            Expr::points(data.clone()),
        )
    };
    let (left, right) = (
        collapse(Point::new(0.5, 0.5)),
        collapse(Point::new(1.5, 0.5)),
    );
    assert_ne!(left.fingerprint(), right.fingerprint());
    // A lookup table is identified by handle, as datasets are.
    let lookup = |table: &Arc<Vec<Point>>| {
        Expr::map_scatter(
            ValueMap::point_id_lookup("γd", table.clone()),
            2,
            BlendFn::Accumulate,
            Expr::points(data.clone()),
        )
    };
    let (t1, t2) = (
        Arc::new(vec![Point::new(0.5, 0.5)]),
        Arc::new(vec![Point::new(0.5, 0.5)]),
    );
    assert_ne!(lookup(&t1).fingerprint(), lookup(&t2).fingerprint());
    assert_eq!(lookup(&t1).fingerprint(), lookup(&t1).fingerprint());

    let engine = QueryEngine::with_config(config(256 << 20));
    for plan in [left, right] {
        let served = engine.execute(&Query::Plan(plan.clone()), vp()).unwrap();
        let want = plan.eval(&mut Device::cpu(), vp());
        assert_canvas_eq(served.canvas(), &want, "collapse to a constant");
    }
}
