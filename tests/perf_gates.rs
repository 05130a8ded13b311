//! Wall-clock performance gates: the four timing thresholds that still
//! say something about this engine, each with its threshold and its
//! arming condition. Timers on a small or shared host are noise, so the
//! gates are `#[ignore]`d out of a plain `cargo test`; run them alone,
//! one test thread at a time so no two timers share cores:
//!
//! ```text
//! cargo test --release --test perf_gates -- --ignored --test-threads=1 --nocapture
//! ```
//!
//! Each gate prints what it measured. The repo benchmark
//! (`BENCHMARK.json`, `benchmark/README.md`) is the end-to-end yardstick;
//! these are the component claims it does not assert.

use canvas_algebra::engine::{EngineConfig, Query, QueryEngine, Served};
use canvas_algebra::obs;
use canvas_algebra::prelude::*;
use canvas_algebra::raster::{simd, Backend, BlendTag, WorkerPool};
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

fn extent() -> BBox {
    BBox::new(Point::new(0.0, 0.0), Point::new(100.0, 100.0))
}

/// Four workers serving up to four concurrent clients.
fn engine(cache_budget_bytes: usize, calibrate: bool) -> QueryEngine {
    QueryEngine::with_config(EngineConfig {
        threads: 4,
        max_concurrent: 4,
        cache_budget_bytes,
        calibrate,
        ..EngineConfig::default()
    })
}

/// Mean wall nanoseconds of `iters` calls of `f`.
fn mean_ns(iters: u32, mut f: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    (0..iters).for_each(|_| f());
    t0.elapsed().as_nanos() as f64 / f64::from(iters)
}

/// An L2-resident row of 2048 texels with random mixed presence: the
/// branchy scalar reference mispredicts exactly where the branchless
/// vector select wins.
fn texel_row(seed: &mut u64) -> Vec<Texel> {
    let mut row = vec![Texel::null(); 2048];
    for t in &mut row {
        *seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let r = *seed;
        for d in (0..3).filter(|d| (r >> (8 * d)) & 1 == 1) {
            let (id, v) = ((r >> 16) as u32 & 0xFFFF, 0.25 * (r & 0xFF) as f32);
            t.set(d, DimInfo::new(id, d as f32 + 1.5, v));
        }
    }
    row
}

/// Nanoseconds per texel of a pass that restores a row from `proto`
/// and, given a kernel, blends `src` into it: best of three windows of
/// 2048 passes (the least-interfered estimate on a shared host). The
/// restore keeps every pass on fresh random presence; without it the
/// blend reaches a fixed point and the scalar branches become a
/// learnable pattern.
fn blend_ns(kernel: Option<(Backend, BlendTag)>, proto: &[Texel], src: &[Texel]) -> f64 {
    let mut dst = proto.to_vec();
    let mut pass = || {
        dst.copy_from_slice(proto);
        if let Some((backend, tag)) = kernel {
            simd::blend_rows_with(backend, tag, &mut dst, src);
        }
        black_box(&mut dst);
    };
    mean_ns(16, &mut pass);
    let best = (0..3)
        .map(|_| mean_ns(2048, &mut pass))
        .fold(f64::INFINITY, f64::min);
    best / proto.len() as f64
}

/// The dispatched `Over` and `PointOverArea` blend rows beat the scalar
/// reference ≥ 1.5×, net of the restore memcpy both arms pay. Armed
/// when a vector backend was detected (`Backend::is_vector`).
#[test]
#[ignore = "wall-clock gate; run with --ignored --test-threads=1"]
fn perf_gate_simd_blend() {
    let mut seed = 0x243F_6A88_85A3_08D3;
    let (a, b) = (texel_row(&mut seed), texel_row(&mut seed));
    let backend = simd::active_backend();
    let restore = blend_ns(None, &a, &b);
    // The floor keeps a noisy restore estimate from driving a
    // denominator to zero or below.
    let net = |gross: f64| (gross - restore).max(gross * 0.1);
    for tag in [BlendTag::Over, BlendTag::PointOverArea] {
        let scalar = blend_ns(Some((Backend::Scalar, tag)), &a, &b);
        let vector = blend_ns(Some((backend, tag)), &a, &b);
        let speedup = net(scalar) / net(vector);
        let name = backend.name();
        println!("{tag:?}: scalar {scalar:.3} ns/texel, {name} {vector:.3}, restore {restore:.3}");
        println!("{tag:?}: net speedup {speedup:.2}x");
        assert!(!backend.is_vector() || speedup >= 1.5, "{tag:?} below 1.5x");
    }
}

/// Dispatching an empty pass to the persistent 8-thread pool is faster
/// than spawning and joining 8 scoped threads for it, the pool's reason
/// to exist. Armed everywhere.
#[test]
#[ignore = "wall-clock gate; run with --ignored --test-threads=1"]
fn perf_gate_pool_dispatch() {
    const THREADS: usize = 8;
    let pool = WorkerPool::new(THREADS);
    let mut pass = || drop(black_box(pool.run_indexed(THREADS, |i| i)));
    mean_ns(20, &mut pass); // warm the park/wake paths
    let pool_ns = mean_ns(300, pass);
    drop(pool);
    let spawn_ns = mean_ns(300, || {
        let counter = AtomicUsize::new(0);
        let bump = || counter.fetch_add(1, Ordering::Relaxed);
        std::thread::scope(|s| (1..THREADS).for_each(|_| drop(s.spawn(bump))));
        bump();
    });
    println!("pass dispatch: pool {pool_ns:.0} ns, scoped spawn {spawn_ns:.0} ns");
    assert!(pool_ns < spawn_ns, "pool dispatch not below scoped spawn");
}

/// Serving six appended generations of a 40k-point live table by
/// patching the cached predecessor is ≥ 2× faster than re-rendering
/// each one. Armed on hosts with ≥ 8 cores; printed below that.
#[test]
#[ignore = "wall-clock gate; run with --ignored --test-threads=1"]
fn perf_gate_incremental_refresh() {
    const APPENDS: usize = 6;
    let vp = Viewport::square_pixels(extent(), 128);
    let feed = canvas_algebra::datagen::trip_feed(&extent(), 2_000, APPENDS as u16, 91);
    let base = PointBatch::from_points(taxi_pickups(&extent(), 40_000, 91));
    let table = VersionedTable::new("perf-live", extent(), base);
    let (incremental, full) = (engine(256 << 20, false), engine(0, false));
    let live = || Query::LiveHeatmap {
        snapshot: table.snapshot(),
    };
    incremental.execute(&live(), vp).expect("served");
    let (mut full_ns, mut incremental_ns) = (0.0, 0.0);
    for g in 0..APPENDS {
        incremental.ingest_append(&table, &feed.batch(g));
        let q = live();
        full_ns += mean_ns(1, || drop(full.execute(&q, vp).expect("served")));
        incremental_ns += mean_ns(1, || {
            let resp = incremental.execute(&q, vp).expect("served");
            assert_eq!(resp.served, Served::Incremental, "generation {}", g + 1);
        });
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let speedup = full_ns / incremental_ns;
    println!("live refresh: full {full_ns:.0} ns, incremental {incremental_ns:.0} ns");
    println!("live refresh: speedup {speedup:.2}x on {cores} cores");
    assert!(cores < 8 || speedup >= 2.0, "refresh speedup below 2x");
}

/// Nanoseconds per `obs::span` under the current recording flags.
fn span_ns() -> f64 {
    assert!(!obs::tracing_enabled(), "measure with tracing off");
    mean_ns(1_000_000, || drop(black_box(obs::span("cost", "gate"))))
}

/// The always-on flight recorder costs ≤ 3 % of mean service time:
/// spans per query × (span cost with the rings recording − inert span
/// cost). The inert guard alone is held to the same budget. The mix is
/// served serially, so the mean carries no queueing and the budget is
/// no looser than under concurrent clients. Armed everywhere.
#[test]
#[ignore = "wall-clock gate; run with --ignored --test-threads=1"]
fn perf_gate_flight_overhead() {
    // Selection, heatmaps, choropleth and zone aggregation over a
    // pan/zoom walk of four viewports, four steps per (client, query).
    let data = Arc::new(PointBatch::from_points(taxi_pickups(&extent(), 50_000, 42)));
    let zones: AreaSource = Arc::new(neighborhoods(&extent(), 16, 11));
    let bbox = |x0, y0, x1, y1| BBox::new(Point::new(x0, y0), Point::new(x1, y1));
    let district = star_polygon(&bbox(15.0, 15.0, 85.0, 85.0), 64, 0.45, 7);
    let corridor = star_polygon(&bbox(35.0, 5.0, 95.0, 55.0), 32, 0.3, 9);
    let queries = [
        Query::SelectPoints {
            data: data.clone(),
            q: district.clone(),
        },
        Query::SelectionHeatmap {
            data: data.clone(),
            q: district,
        },
        Query::PolygonDensity {
            table: zones.clone(),
            q: corridor.clone(),
        },
        Query::AggregateByZone {
            data: data.clone(),
            zones,
        },
        Query::SelectionHeatmap { data, q: corridor },
    ];
    let vps = [
        Viewport::square_pixels(extent(), 128),
        Viewport::square_pixels(bbox(20.0, 20.0, 70.0, 70.0), 128),
        Viewport::square_pixels(bbox(40.0, 35.0, 90.0, 85.0), 128),
        Viewport::square_pixels(extent(), 64),
    ];
    let serve = |engine: &QueryEngine, steps: usize| {
        for i in 0..4 * steps {
            let (step, client) = (i / 4, i % 4);
            let vp = vps[(client * 2 + step / 2) % vps.len()];
            let q = &queries[(client + step) % queries.len()];
            engine.execute(q, vp).expect("served");
        }
    };
    let timed = engine(256 << 20, true);
    serve(&timed, 16);
    let service_ns = timed.metrics().service.mean_secs() * 1e9;
    obs::set_flight_recording(false);
    let inert_ns = span_ns();
    obs::set_flight_recording(true);
    let flight_ns = span_ns();
    // Spans per query: a traced replay of the first four steps on a
    // fresh engine, so computed queries dominate.
    obs::sink().clear();
    obs::set_tracing(true);
    serve(&engine(256 << 20, false), 4);
    obs::set_tracing(false);
    let spans_per_query = (obs::sink().len() as u64 + obs::sink().dropped()) as f64 / 16.0;
    let inert_pct = spans_per_query * inert_ns / service_ns * 100.0;
    let flight_pct = spans_per_query * (flight_ns - inert_ns).max(0.0) / service_ns * 100.0;
    println!("{spans_per_query:.1} spans/query, inert {inert_ns:.1} ns, flight {flight_ns:.1} ns");
    println!("mean service {service_ns:.0} ns: inert {inert_pct:.3}%, flight {flight_pct:.3}%");
    assert!(inert_pct <= 3.0, "inert span overhead above 3%");
    assert!(flight_pct <= 3.0, "flight-recorder overhead above 3%");
}
