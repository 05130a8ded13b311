//! Oracle equivalence harness for the promoted query classes.
//!
//! Every promoted descriptor (knn, voronoi, OD selection / flow matrix,
//! spatio-temporal window / time series, skyline, hull) is checked three
//! ways per generated input:
//!
//! 1. a **brute-force oracle** written straight from the paper's
//!    definition (no canvases, no rasterization),
//! 2. `Prepared::execute` on `Device::cpu`, `Device::cpu_parallel(2)`,
//!    and `Device::cpu_parallel(8)` — all three must agree bit-for-bit
//!    (parallelism is invisible in results),
//! 3. a `QueryEngine::execute` round trip — the computed response must
//!    equal the oracle and the immediate re-ask must be served from the
//!    cache as the *identical* shared allocation
//!    ([`QueryResult::ptr_eq`]), proving the promoted classes ride the
//!    same fingerprint-keyed cache as the canvas queries.

use canvas_core::prelude::*;
use canvas_core::queries::od::TripBatch;
use canvas_core::queries::skyline::dominates;
use canvas_core::queries::spatiotemporal::TemporalPoints;
use canvas_engine::{EngineConfig, Query, QueryEngine, QueryResult, Served};
use canvas_geom::hull::convex_hull;
use canvas_geom::{BBox, Point, Polygon};
use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;

fn extent() -> BBox {
    BBox::new(Point::new(0.0, 0.0), Point::new(100.0, 100.0))
}

fn vp() -> Viewport {
    Viewport::new(extent(), 64, 64)
}

fn assert_results_eq(a: &QueryResult, b: &QueryResult, ctx: &str) {
    match (a, b) {
        (QueryResult::Canvas(x), QueryResult::Canvas(y)) => {
            assert_eq!(x.texels(), y.texels(), "{ctx}: texel planes differ");
            assert_eq!(x.cover(), y.cover(), "{ctx}: cover planes differ");
            assert_eq!(
                x.boundary().points().collect::<Vec<_>>(),
                y.boundary().points().collect::<Vec<_>>(),
                "{ctx}: point entries differ"
            );
        }
        (QueryResult::Ids(x), QueryResult::Ids(y)) => assert_eq!(x, y, "{ctx}: id lists differ"),
        (QueryResult::FlowMatrix(x), QueryResult::FlowMatrix(y)) => {
            assert_eq!(x, y, "{ctx}: flow matrices differ")
        }
        (QueryResult::Series(x), QueryResult::Series(y)) => {
            assert_eq!(x, y, "{ctx}: series differ")
        }
        (QueryResult::Hull(x), QueryResult::Hull(y)) => assert_eq!(x, y, "{ctx}: hulls differ"),
        (a, b) => panic!("{ctx}: result kinds differ: {a:?} vs {b:?}"),
    }
}

/// Runs `q` on every CPU device flavor and through a fresh engine.
/// Asserts cross-device equality and cache-hit identity; returns the
/// single-threaded result for the caller's oracle comparison.
fn check_all_paths(q: &Query) -> QueryResult {
    let mut dev = Device::cpu();
    let base = q.prepare().execute(&mut dev, vp());
    for workers in [2usize, 8] {
        let mut dev = Device::cpu_parallel(workers);
        let alt = q.prepare().execute(&mut dev, vp());
        assert_results_eq(
            &base,
            &alt,
            &format!("{} on cpu_parallel({workers})", q.label()),
        );
    }

    let engine = QueryEngine::with_config(EngineConfig {
        threads: 2,
        max_concurrent: 2,
        max_queue: 8,
        cache_budget_bytes: 32 << 20,
        calibrate: false,
        ..EngineConfig::default()
    });
    let first = engine.execute(q, vp()).expect("served");
    assert_eq!(first.served, Served::Computed);
    assert_results_eq(&base, &first.result, &format!("{} via engine", q.label()));
    let second = engine.execute(q, vp()).expect("served");
    assert_eq!(second.served, Served::CacheHit, "{} must cache", q.label());
    assert!(
        first.result.ptr_eq(&second.result),
        "{}: cache hit must be the identical allocation",
        q.label()
    );
    base
}

fn arb_point() -> impl Strategy<Value = Point> {
    (0.5f64..99.5, 0.5f64..99.5).prop_map(|(x, y)| Point::new(x, y))
}

fn arb_points(lo: usize, hi: usize) -> impl Strategy<Value = Vec<Point>> {
    prop::collection::vec(arb_point(), lo..hi)
}

/// A random star polygon inside a random sub-box of the extent.
fn arb_polygon() -> impl Strategy<Value = Polygon> {
    (
        5.0f64..45.0,
        5.0f64..45.0,
        30.0f64..50.0,
        30.0f64..50.0,
        0u64..1_000_000,
    )
        .prop_map(|(x0, y0, w, h, seed)| {
            let bb = BBox::new(Point::new(x0, y0), Point::new(x0 + w, y0 + h));
            canvas_datagen::star_polygon(&bb, 12, 0.35, seed)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// knn: ids ordered by (distance, id), truncated to k — the paper's
    /// total-order-by-perturbation tie rule.
    #[test]
    fn knn_matches_oracle(pts in arb_points(20, 150), x in arb_point(), k in 1u32..20) {
        let q = Query::Knn {
            data: Arc::new(PointBatch::from_points(pts.clone())),
            x,
            k,
        };
        let got = check_all_paths(&q);
        let mut want: Vec<(f64, u32)> = pts
            .iter()
            .enumerate()
            .map(|(i, p)| (p.dist_sq(x), i as u32))
            .collect();
        want.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)));
        want.truncate(k as usize);
        let want: Vec<u32> = want.into_iter().map(|(_, id)| id).collect();
        prop_assert_eq!(got.as_ids().unwrap().as_slice(), want.as_slice());
    }

    /// voronoi: every pixel center belongs to the site minimizing
    /// (d² as f32, id) — exactly the kernel's pointwise-min order, so
    /// the oracle replicates its arithmetic and the match is exact.
    #[test]
    fn voronoi_matches_oracle(sites in arb_points(1, 12)) {
        let q = Query::Voronoi { sites: Arc::new(sites.clone()) };
        let got = check_all_paths(&q);
        let canvas = got.as_canvas().unwrap();
        let v = canvas.viewport();
        for y in 0..v.height() {
            for x in 0..v.width() {
                let c = v.pixel_center(x, y);
                let want = sites
                    .iter()
                    .enumerate()
                    .map(|(i, s)| (c.dist_sq(*s) as f32, i as u32))
                    .min_by(|a, b| a.partial_cmp(b).unwrap())
                    .map(|(_, i)| i)
                    .unwrap();
                prop_assert_eq!(
                    canvas.texel(x, y).get(2).unwrap().id, want,
                    "wrong owner at ({}, {})", x, y
                );
            }
        }
    }

    /// OD selection: ids i with origin ∈ q1 and destination ∈ q2.
    #[test]
    fn select_od_matches_oracle(
        origins in arb_points(60, 200), seed in 0u64..1_000_000,
        q1 in arb_polygon(), q2 in arb_polygon(),
    ) {
        let destinations: Vec<Point> = {
            // Derived destinations: deterministic scramble of origins.
            let mut s = seed | 1;
            origins.iter().map(|p| {
                s ^= s << 13; s ^= s >> 7; s ^= s << 17;
                let dx = ((s >> 8) % 100) as f64 - 50.0;
                let dy = ((s >> 40) % 100) as f64 - 50.0;
                Point::new((p.x + dx).clamp(0.5, 99.5), (p.y + dy).clamp(0.5, 99.5))
            }).collect()
        };
        let trips = TripBatch::new(origins.clone(), destinations.clone());
        let q = Query::SelectOd { trips: Arc::new(trips), q1: q1.clone(), q2: q2.clone() };
        let got = check_all_paths(&q);
        let want: Vec<u32> = (0..origins.len())
            .filter(|&i| q1.contains_closed(origins[i]) && q2.contains_closed(destinations[i]))
            .map(|i| i as u32)
            .collect();
        prop_assert_eq!(got.as_ids().unwrap().as_slice(), want.as_slice());
    }

    /// OD flow matrix: per zone pair, the count of trips with origin in
    /// the row zone and destination in the column zone.
    #[test]
    fn od_flow_matrix_matches_oracle(
        origins in arb_points(40, 120), dests in arb_points(40, 120), zone_seed in 0u64..1_000_000,
    ) {
        let n = origins.len().min(dests.len());
        let origins = &origins[..n];
        let dests = &dests[..n];
        let zones: AreaSource = Arc::new(canvas_datagen::neighborhoods(&extent(), 4, zone_seed));
        let trips = TripBatch::new(origins.to_vec(), dests.to_vec());
        let q = Query::OdFlowMatrix {
            trips: Arc::new(trips),
            origin_zones: zones.clone(),
            dest_zones: zones.clone(),
        };
        let got = check_all_paths(&q);
        let want: Vec<Vec<u64>> = zones.iter().map(|oz| {
            zones.iter().map(|dz| {
                (0..n).filter(|&i| oz.contains_closed(origins[i]) && dz.contains_closed(dests[i]))
                    .count() as u64
            }).collect()
        }).collect();
        prop_assert_eq!(got.as_flow_matrix().unwrap().as_slice(), want.as_slice());
    }

    /// Spatio-temporal window + time series against the relational
    /// definition (`t ∈ [t0, t1)` conjoined with polygon containment).
    #[test]
    fn spatiotemporal_matches_oracle(
        pts in arb_points(60, 200), tseed in 0u64..1_000_000,
        q in arb_polygon(), t0 in 0u32..120, dt in 1u32..120, windows in 1u32..10,
    ) {
        let timestamps: Vec<u32> = {
            let mut s = tseed | 1;
            pts.iter().map(|_| {
                s ^= s << 13; s ^= s >> 7; s ^= s << 17;
                (s % 240) as u32
            }).collect()
        };
        let t1 = t0 + dt;
        let data = Arc::new(TemporalPoints::new(pts.clone(), timestamps.clone()));
        let got = check_all_paths(&Query::SpatioTemporalWindow {
            data: data.clone(), q: q.clone(), t0, t1,
        });
        let want: Vec<u32> = (0..pts.len())
            .filter(|&i| (t0..t1).contains(&timestamps[i]) && q.contains_closed(pts[i]))
            .map(|i| i as u32)
            .collect();
        prop_assert_eq!(got.as_ids().unwrap().as_slice(), want.as_slice());

        let got = check_all_paths(&Query::RegionTimeSeries {
            data, q: q.clone(), t0, t1, windows,
        });
        let mut series = vec![0u64; windows as usize];
        let last = series.len() - 1;
        for &i in &want {
            let t = timestamps[i as usize];
            let w = ((t - t0) as u64 * windows as u64 / dt as u64) as usize;
            series[w.min(last)] += 1;
        }
        prop_assert_eq!(got.as_series().unwrap().as_slice(), series.as_slice());
    }

    /// Skyline: non-dominated members of the constrained selection,
    /// using the paper's spatial-dominance relation directly.
    #[test]
    fn skyline_matches_oracle(
        pts in arb_points(40, 150), sites in arb_points(1, 5), constraint in arb_polygon(),
    ) {
        let q = Query::Skyline {
            data: Arc::new(PointBatch::from_points(pts.clone())),
            constraint: constraint.clone(),
            sites: Arc::new(sites.clone()),
        };
        let got = check_all_paths(&q);
        let selected: Vec<u32> = (0..pts.len())
            .filter(|&i| constraint.contains_closed(pts[i]))
            .map(|i| i as u32)
            .collect();
        let mut want: Vec<u32> = selected
            .iter()
            .copied()
            .filter(|&i| {
                !selected.iter().any(|&j| {
                    j != i && dominates(pts[j as usize], pts[i as usize], &sites)
                })
            })
            .collect();
        want.sort_unstable();
        prop_assert_eq!(got.as_ids().unwrap().as_slice(), want.as_slice());
    }

    /// Hull: Andrew's monotone chain over the constrained selection —
    /// a canonical ring, so equality is exact regardless of the order
    /// the canvas yielded the selected points in.
    #[test]
    fn hull_matches_oracle(pts in arb_points(10, 150), q in arb_polygon()) {
        let query = Query::Hull {
            data: Arc::new(PointBatch::from_points(pts.clone())),
            q: q.clone(),
        };
        let got = check_all_paths(&query);
        let selected: Vec<Point> = pts
            .iter()
            .copied()
            .filter(|p| q.contains_closed(*p))
            .collect();
        let want = convex_hull(&selected);
        prop_assert_eq!(got.as_hull().unwrap().as_slice(), want.as_slice());
    }
}

/// A time series over zero windows, or over an empty or inverted time
/// range, is an answer, not a panic: no counts for zero windows, and
/// `windows` zeros for a range no timestamp falls in (the window query
/// over such a range selects nothing). Served through the engine, whose
/// leader would otherwise re-throw the panic to its caller.
#[test]
fn region_time_series_degenerate_windows_and_ranges() {
    let pts = canvas_datagen::taxi_pickups(&extent(), 200, 5);
    let timestamps = (0..pts.len() as u32).map(|i| i % 24).collect();
    let data = Arc::new(TemporalPoints::new(pts, timestamps));
    let q = canvas_datagen::star_polygon(
        &BBox::new(Point::new(10.0, 10.0), Point::new(90.0, 90.0)),
        16,
        0.3,
        3,
    );
    let engine = QueryEngine::with_config(EngineConfig {
        threads: 2,
        calibrate: false,
        ..EngineConfig::default()
    });
    for (t0, t1, windows, want) in [
        (0, 24, 0, vec![]),
        (12, 12, 4, vec![0; 4]),
        (20, 4, 3, vec![0; 3]),
    ] {
        let query = Query::RegionTimeSeries {
            data: data.clone(),
            q: q.clone(),
            t0,
            t1,
            windows,
        };
        let resp = engine.execute(&query, vp()).expect("served");
        assert_eq!(
            resp.result.as_series().expect("a series").as_slice(),
            want.as_slice(),
            "[{t0}, {t1}) over {windows} windows"
        );
    }
    assert_eq!(engine.metrics().failed, 0);
}

/// kNN around a non-finite or far query point is an answer, not a
/// panic: no neighbours for NaN / ±∞, and the exact scan's neighbours
/// for a point so far out that the ladder's circles round to points.
/// Served through the engine, whose leader would otherwise fail with
/// `LeaderFailed`.
#[test]
fn knn_non_finite_and_far_query_points() {
    let pts = canvas_datagen::taxi_pickups(&extent(), 300, 8);
    let data = Arc::new(PointBatch::from_points(pts.clone()));
    let engine = QueryEngine::with_config(EngineConfig {
        threads: 2,
        calibrate: false,
        ..EngineConfig::default()
    });
    for (x, k) in [
        (Point::new(f64::NAN, 50.0), 3),
        (Point::new(50.0, f64::INFINITY), 3),
        (Point::new(1e16, 50.0), 3),
        (Point::new(-1e17, 1e17), 5),
    ] {
        let query = Query::Knn {
            data: data.clone(),
            x,
            k,
        };
        let resp = engine.execute(&query, vp()).expect("served");
        let mut want: Vec<(f64, u32)> = pts
            .iter()
            .enumerate()
            .map(|(i, p)| (p.dist_sq(x), i as u32))
            .filter(|(d, _)| !d.is_nan())
            .collect();
        want.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        want.truncate(if x.x.is_finite() && x.y.is_finite() {
            k as usize
        } else {
            0
        });
        let want: Vec<u32> = want.into_iter().map(|(_, id)| id).collect();
        assert_eq!(
            resp.result.as_ids().expect("ids").as_slice(),
            want.as_slice(),
            "{x:?}"
        );
    }
    assert_eq!(engine.metrics().failed, 0);
}

/// Distinct descriptors must not collide in the cache: one engine serves
/// all six classes over shared datasets and every response stays
/// attributable to its own query (fingerprint domains are disjoint).
#[test]
fn promoted_classes_share_one_engine_without_collisions() {
    let pts = canvas_datagen::taxi_pickups(&extent(), 800, 21);
    let data = Arc::new(PointBatch::from_points(pts.clone()));
    let trips = canvas_datagen::generate_trips(&extent(), 500, 24, 33);
    let temporal = Arc::new(TemporalPoints::new(
        trips.pickups.clone(),
        trips.time_slots.iter().map(|&t| t as u32).collect(),
    ));
    let od = Arc::new(trips.od_batch());
    let zones: AreaSource = Arc::new(canvas_datagen::neighborhoods(&extent(), 4, 11));
    let sites = Arc::new(canvas_datagen::jittered_sites(&extent(), 6, 5));
    let q1 = canvas_datagen::star_polygon(
        &BBox::new(Point::new(10.0, 10.0), Point::new(60.0, 60.0)),
        16,
        0.3,
        7,
    );
    let q2 = canvas_datagen::star_polygon(
        &BBox::new(Point::new(40.0, 40.0), Point::new(90.0, 90.0)),
        16,
        0.3,
        9,
    );
    let queries = vec![
        Query::Knn {
            data: data.clone(),
            x: Point::new(50.0, 50.0),
            k: 12,
        },
        Query::Voronoi {
            sites: sites.clone(),
        },
        Query::SelectOd {
            trips: od.clone(),
            q1: q1.clone(),
            q2: q2.clone(),
        },
        Query::OdFlowMatrix {
            trips: od,
            origin_zones: zones.clone(),
            dest_zones: zones,
        },
        Query::SpatioTemporalWindow {
            data: temporal.clone(),
            q: q1.clone(),
            t0: 0,
            t1: 12,
        },
        Query::RegionTimeSeries {
            data: temporal,
            q: q1.clone(),
            t0: 0,
            t1: 24,
            windows: 6,
        },
        Query::Skyline {
            data: data.clone(),
            constraint: q1.clone(),
            sites,
        },
        Query::Hull { data, q: q2 },
    ];

    let engine = QueryEngine::with_config(EngineConfig {
        threads: 2,
        max_concurrent: 2,
        max_queue: 16,
        cache_budget_bytes: 64 << 20,
        calibrate: false,
        // Every submission is captured, so its span tree can be read.
        slow_query_threshold: Duration::from_nanos(1),
    });
    let mut firsts = Vec::new();
    for q in &queries {
        let resp = engine.execute(q, vp()).expect("served");
        assert_eq!(resp.served, Served::Computed, "{} computed", q.label());
        firsts.push(resp.result);
    }
    // Re-ask in reverse order: every class hits its own entry.
    for (q, first) in queries.iter().zip(&firsts).rev() {
        let resp = engine.execute(q, vp()).expect("served");
        assert_eq!(resp.served, Served::CacheHit, "{} hits", q.label());
        assert!(resp.result.ptr_eq(first), "{} identity", q.label());
    }
    let m = engine.metrics();
    assert_eq!(m.computed, queries.len() as u64);
    assert_eq!(m.cache_hits, queries.len() as u64);
    // Non-canvas payloads (every class but voronoi) are byte-accounted
    // in the cache.
    let cs = engine.cache_stats();
    assert_eq!(cs.result_entries, 7, "non-canvas entries tracked: {cs:?}");
    assert!(cs.result_bytes > 0);
    // Each computed submission's span tree (the records a trace
    // exports, collected here from the flight rings) carries exactly
    // one span named by its class.
    for entry in &engine.slow_queries()[..queries.len()] {
        let spans = canvas_obs::flight::collect(entry.query_id);
        let named = spans.iter().filter(|r| r.name == entry.label).count();
        assert_eq!(named, 1, "{}: one class span per submission", entry.label);
    }
    // Per-class latency histograms saw every submission.
    for q in &queries {
        let stats = engine.class_latency(q.label());
        assert!(
            stats.count() >= 2,
            "{}: class histogram missing submissions",
            q.label()
        );
    }
}
