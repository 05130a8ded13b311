//! Streaming-ingest maintenance through the serving engine.
//!
//! The contract under test: a [`Query::LiveHeatmap`] response is
//! always the canvas of **exactly** the generation its fingerprint
//! claims — never stale bits from before an append — whether it was
//! computed, patched incrementally from a cached predecessor, served
//! from the cache, or coalesced; and the incremental path is an
//! optimization only (bit-identical to a full render, metered by
//! `incremental_refreshes` / `dirty_tiles_redrawn`). Edge cases ride
//! along: out-of-viewport appends are pure re-stamps, empty appends are
//! no-op generation bumps, and an evicted predecessor falls back to a
//! full render without hanging or counting as an incremental refresh.

use canvas_core::prelude::*;
use canvas_engine::{EngineConfig, Query, QueryEngine, Served};
use canvas_geom::{BBox, Point};
use canvas_obs as obs;
use std::collections::HashSet;
use std::sync::Arc;

fn extent() -> BBox {
    BBox::new(Point::new(0.0, 0.0), Point::new(100.0, 100.0))
}

fn vp() -> Viewport {
    Viewport::new(extent(), 128, 128)
}

fn engine(budget: usize) -> QueryEngine {
    QueryEngine::with_config(EngineConfig {
        threads: 2,
        max_concurrent: 4,
        max_queue: 64,
        cache_budget_bytes: budget,
        calibrate: false,
        ..EngineConfig::default()
    })
}

fn assert_canvas_eq(got: &Canvas, want: &Canvas, ctx: &str) {
    assert_eq!(got.texels(), want.texels(), "{ctx}: texel planes differ");
    assert_eq!(got.cover(), want.cover(), "{ctx}: cover planes differ");
    assert_eq!(
        got.boundary(),
        want.boundary(),
        "{ctx}: boundary indexes differ"
    );
}

/// The from-scratch reference for one snapshot on a sequential device.
fn reference(snapshot: &TableSnapshot) -> Canvas {
    let mut dev = Device::cpu();
    render_live_heatmap(&mut dev, vp(), snapshot.batch(), None)
}

#[test]
fn refresh_patches_predecessor_and_retires_its_entry() {
    let feed = canvas_datagen::trip_feed(&extent(), 2_000, 4, 42);
    let table = VersionedTable::new("taxi", extent(), feed.batch(0));
    let engine = engine(64 << 20);

    let snap0 = table.snapshot();
    let first = engine
        .execute(
            &Query::LiveHeatmap {
                snapshot: snap0.clone(),
            },
            vp(),
        )
        .unwrap();
    assert_eq!(first.served, Served::Computed);
    assert_canvas_eq(first.canvas(), &reference(&snap0), "generation 0");
    let entries_before = engine.cache_stats().entries;

    engine.ingest_append(&table, &feed.batch(1));
    let snap1 = table.snapshot();
    assert_eq!(snap1.generation(), 1);

    let second = engine
        .execute(
            &Query::LiveHeatmap {
                snapshot: snap1.clone(),
            },
            vp(),
        )
        .unwrap();
    // Served by patching generation 0's cached canvas — and still
    // bit-identical to a from-scratch render of generation 1.
    assert_eq!(second.served, Served::Incremental);
    assert_canvas_eq(second.canvas(), &reference(&snap1), "generation 1");
    assert_ne!(first.fingerprint, second.fingerprint);
    assert_eq!(second.report().provenance, "incremental");

    let m = engine.metrics();
    assert_eq!(m.ingest_appends, 1);
    assert_eq!(m.incremental_refreshes, 1);
    assert!(m.dirty_tiles_redrawn >= 1, "{m:?}");

    // The predecessor's entry was retired when its successor published:
    // net cache entries are unchanged (one in, one out)…
    assert_eq!(engine.cache_stats().entries, entries_before);
    // …so re-submitting the *old* snapshot recomputes rather than
    // hitting a stale entry, while the new generation hits and returns
    // the identical Arc.
    let old_again = engine
        .execute(&Query::LiveHeatmap { snapshot: snap0 }, vp())
        .unwrap();
    assert_eq!(old_again.served, Served::Computed);
    let new_again = engine
        .execute(&Query::LiveHeatmap { snapshot: snap1 }, vp())
        .unwrap();
    assert_eq!(new_again.served, Served::CacheHit);
    assert!(Arc::ptr_eq(second.canvas(), new_again.canvas()));
}

#[test]
fn out_of_viewport_append_is_pure_restamp() {
    // Viewport over the lower-left quadrant; the append lands entirely
    // in the upper-right — zero dirty tiles, but the generation (and
    // therefore the fingerprint) must still advance.
    let small_vp = Viewport::new(
        BBox::new(Point::new(0.0, 0.0), Point::new(40.0, 40.0)),
        128,
        128,
    );
    let base = PointBatch::from_points(vec![Point::new(10.0, 10.0), Point::new(30.0, 20.0)]);
    let table = VersionedTable::new("corner", extent(), base);
    let engine = engine(64 << 20);

    let first = engine
        .execute(
            &Query::LiveHeatmap {
                snapshot: table.snapshot(),
            },
            small_vp,
        )
        .unwrap();
    assert_eq!(first.served, Served::Computed);

    engine.ingest_append(
        &table,
        &PointBatch::from_points(vec![Point::new(80.0, 80.0), Point::new(95.0, 60.0)]),
    );
    let resp = engine
        .execute(
            &Query::LiveHeatmap {
                snapshot: table.snapshot(),
            },
            small_vp,
        )
        .unwrap();
    assert_eq!(resp.served, Served::Incremental);
    assert_ne!(first.fingerprint, resp.fingerprint, "append re-stamps");
    let m = engine.metrics();
    assert_eq!(m.incremental_refreshes, 1);
    assert_eq!(m.dirty_tiles_redrawn, 0, "nothing in view was touched");
    // Same bits as the predecessor (a fresh allocation under the new
    // key, not the same Arc).
    assert_canvas_eq(resp.canvas(), first.canvas(), "pure re-stamp");
    assert!(!Arc::ptr_eq(first.canvas(), resp.canvas()));
}

#[test]
fn empty_append_is_noop_generation_bump() {
    let base = PointBatch::from_points(vec![Point::new(10.0, 10.0), Point::new(60.0, 70.0)]);
    let table = VersionedTable::new("quiet", extent(), base);
    let engine = engine(64 << 20);

    let first = engine
        .execute(
            &Query::LiveHeatmap {
                snapshot: table.snapshot(),
            },
            vp(),
        )
        .unwrap();
    let out = engine.ingest_append(&table, &PointBatch::default());
    assert_eq!(out.appended, 0);
    assert_eq!(out.generation, 1);

    let resp = engine
        .execute(
            &Query::LiveHeatmap {
                snapshot: table.snapshot(),
            },
            vp(),
        )
        .unwrap();
    assert_eq!(resp.served, Served::Incremental);
    assert_ne!(first.fingerprint, resp.fingerprint, "no-op still re-stamps");
    assert_eq!(engine.metrics().dirty_tiles_redrawn, 0);
    assert_canvas_eq(resp.canvas(), first.canvas(), "no-op bump");
}

#[test]
fn evicted_predecessor_falls_back_to_full_render() {
    let feed = canvas_datagen::trip_feed(&extent(), 1_000, 4, 7);
    let table = VersionedTable::new("evicted", extent(), feed.batch(0));
    // Budget 0 disables the cache: the generation-0 canvas is never
    // retained, so the refresh probe must miss and fall back.
    let engine = engine(0);

    let first = engine
        .execute(
            &Query::LiveHeatmap {
                snapshot: table.snapshot(),
            },
            vp(),
        )
        .unwrap();
    assert_eq!(first.served, Served::Computed);

    engine.ingest_append(&table, &feed.batch(1));
    let snap1 = table.snapshot();
    let resp = engine
        .execute(
            &Query::LiveHeatmap {
                snapshot: snap1.clone(),
            },
            vp(),
        )
        .unwrap();
    // No hang, no stale serve: a full render under the new fingerprint.
    assert_eq!(resp.served, Served::Computed);
    assert_canvas_eq(resp.canvas(), &reference(&snap1), "fallback render");
    let m = engine.metrics();
    assert_eq!(
        m.incremental_refreshes, 0,
        "fallback must not count as incremental"
    );
    assert_eq!(m.dirty_tiles_redrawn, 0);
}

/// Load-aware recalibration runs once per 64 *computed* responses. An
/// incremental refresh leaves `computed` where it was, so refreshes
/// while it stands on a multiple of 64 must not re-time the kernel.
#[test]
fn refreshes_do_not_retrigger_recalibration() {
    let table = VersionedTable::new(
        "recal",
        extent(),
        PointBatch::from_points(vec![Point::new(10.0, 10.0), Point::new(60.0, 70.0)]),
    );
    let engine = QueryEngine::with_config(EngineConfig {
        threads: 2,
        calibrate: true,
        ..EngineConfig::default()
    });
    // 0 where the host gave no usable startup calibration (then nothing
    // ever recalibrates), 1 otherwise.
    let once = u64::from(engine.calibration().is_some_and(|c| c.applied));
    let vp_of = |i: u32| Viewport::new(extent(), 16 + i, 16);
    for i in 0..64 {
        let q = Query::LiveHeatmap {
            snapshot: table.snapshot(),
        };
        let resp = engine.execute(&q, vp_of(i)).unwrap();
        assert_eq!(resp.served, Served::Computed, "viewport {i}");
    }
    assert_eq!(engine.metrics().computed, 64);
    assert_eq!(engine.metrics().recalibrations, once, "the 64th computed");
    for tick in 0..3 {
        engine.ingest_append(
            &table,
            &PointBatch::from_points(vec![Point::new(20.0 + tick as f64, 30.0)]),
        );
        let q = Query::LiveHeatmap {
            snapshot: table.snapshot(),
        };
        let resp = engine.execute(&q, vp_of(63)).unwrap();
        assert_eq!(resp.served, Served::Incremental, "tick {tick}");
        assert_eq!(engine.metrics().recalibrations, once, "tick {tick}");
    }
    assert_eq!(engine.metrics().computed, 64);
}

/// A refresh from the newest predecessor patches in the appended chunk
/// itself: across single-tick refreshes no `incremental_patch` span
/// reports more than one `delta_chunks`, while a read that skipped a
/// generation concatenates the two chunks since its predecessor.
#[test]
fn single_tick_refreshes_borrow_the_appended_chunk() {
    let feed = canvas_datagen::trip_feed(&extent(), 1_400, 7, 5);
    let table = VersionedTable::new("chunks", extent(), feed.batch(0));
    let engine = engine(64 << 20);
    let read = || {
        let q = Query::LiveHeatmap {
            snapshot: table.snapshot(),
        };
        engine.execute(&q, vp()).unwrap().served
    };
    // Tracing is process-wide and no other test here toggles it; the
    // spans other tests record meanwhile are told apart by the thread
    // that submitted their query.
    obs::set_tracing(true);
    assert_eq!(read(), Served::Computed);
    for tick in 1..=4 {
        engine.ingest_append(&table, &feed.batch(tick));
        assert_eq!(read(), Served::Incremental, "tick {tick}");
    }
    engine.ingest_append(&table, &feed.batch(5));
    engine.ingest_append(&table, &feed.batch(6));
    assert_eq!(read(), Served::Incremental, "two appends, one read");
    obs::set_tracing(false);

    let records = obs::sink().take();
    let me = obs::trace::thread_ordinal();
    let mine: HashSet<u64> = records
        .iter()
        .filter(|r| r.name == "execute" && r.thread == me)
        .map(|r| r.id)
        .collect();
    let chunks: Vec<u64> = records
        .iter()
        .filter(|r| r.name == "incremental_patch" && mine.contains(&r.query))
        .map(
            |r| match r.args.iter().find(|(k, _)| *k == "delta_chunks") {
                Some((_, obs::trace::ArgValue::U64(n))) => *n,
                other => panic!("incremental_patch without delta_chunks: {other:?}"),
            },
        )
        .collect();
    assert_eq!(chunks, vec![1, 1, 1, 1, 2]);
}

/// Satellite 2's core claim: concurrent appenders racing mixed readers,
/// and **no query ever observes a canvas from a different generation
/// than its fingerprint claims**. References for every generation are
/// precomputed from the deterministic feed; each response is checked
/// bit-for-bit against the reference of the generation its snapshot
/// carried. Within one generation all responses must share one canvas
/// allocation (`ptr_eq`), since the key admits exactly one compute.
#[test]
fn concurrent_appends_never_serve_cross_generation_bits() {
    const APPENDS: usize = 5;
    let feed = canvas_datagen::trip_feed(&extent(), 2_400, (APPENDS + 1) as u16, 42);
    let table = Arc::new(VersionedTable::new("race", extent(), feed.batch(0)));

    // From-scratch reference per generation (the feed is replayable, so
    // generation g's contents are known up front).
    let mut cumulative = feed.batch(0);
    let mut refs: Vec<Canvas> = Vec::new();
    {
        let mut dev = Device::cpu();
        refs.push(render_live_heatmap(&mut dev, vp(), &cumulative, None));
        for g in 1..=APPENDS {
            let b = feed.batch(g);
            let from = cumulative.len() as u32;
            cumulative.points.extend_from_slice(&b.points);
            cumulative.weights.extend_from_slice(&b.weights);
            cumulative.ids.extend((0..b.len() as u32).map(|i| from + i));
            refs.push(render_live_heatmap(&mut dev, vp(), &cumulative, None));
        }
    }
    let refs = Arc::new(refs);

    let engine = Arc::new(engine(128 << 20));
    let barrier = Arc::new(std::sync::Barrier::new(4));

    // One appender walks the feed; three readers hammer snapshots.
    let appender = {
        let engine = Arc::clone(&engine);
        let table = Arc::clone(&table);
        let feed_batches: Vec<PointBatch> = (1..=APPENDS).map(|g| feed.batch(g)).collect();
        let barrier = Arc::clone(&barrier);
        std::thread::spawn(move || {
            barrier.wait();
            for b in &feed_batches {
                engine.ingest_append(&table, b);
                std::thread::sleep(std::time::Duration::from_millis(3));
            }
        })
    };
    let mut readers = Vec::new();
    for r in 0..3 {
        let engine = Arc::clone(&engine);
        let table = Arc::clone(&table);
        let refs = Arc::clone(&refs);
        let barrier = Arc::clone(&barrier);
        readers.push(std::thread::spawn(move || {
            barrier.wait();
            let mut seen: Vec<(u64, Arc<Canvas>)> = Vec::new();
            for i in 0..30 {
                let snapshot = table.snapshot();
                let gen = snapshot.generation();
                let prepared_fp = Query::LiveHeatmap {
                    snapshot: snapshot.clone(),
                }
                .prepare()
                .fingerprint;
                let resp = engine
                    .execute(&Query::LiveHeatmap { snapshot }, vp())
                    .unwrap();
                // The response's identity is the generation we asked for…
                assert_eq!(resp.fingerprint, prepared_fp, "reader {r}, iter {i}");
                // …and its bits are that exact generation's render.
                assert_canvas_eq(
                    resp.canvas(),
                    &refs[gen as usize],
                    &format!("reader {r}, iter {i}, gen {gen}, served {:?}", resp.served),
                );
                seen.push((gen, Arc::clone(resp.canvas())));
            }
            seen
        }));
    }
    appender.join().unwrap();
    let all: Vec<(u64, Arc<Canvas>)> = readers
        .into_iter()
        .flat_map(|h| h.join().unwrap())
        .collect();

    // One canvas allocation per generation across every reader: cache
    // hits and coalesced followers share the leader's Arc.
    for g in 0..=APPENDS as u64 {
        let of_gen: Vec<&Arc<Canvas>> = all
            .iter()
            .filter(|(gg, _)| *gg == g)
            .map(|(_, c)| c)
            .collect();
        for c in of_gen.iter().skip(1) {
            assert!(
                Arc::ptr_eq(c, of_gen[0]),
                "generation {g} served two allocations"
            );
        }
    }

    // Close the race deterministically: the final generation's canvas
    // is now cached, so one more append + query must patch it.
    let final_gen_before = table.snapshot();
    let _ = engine
        .execute(
            &Query::LiveHeatmap {
                snapshot: final_gen_before,
            },
            vp(),
        )
        .unwrap();
    engine.ingest_append(
        &table,
        &PointBatch::from_points(vec![Point::new(50.0, 50.0)]),
    );
    let resp = engine
        .execute(
            &Query::LiveHeatmap {
                snapshot: table.snapshot(),
            },
            vp(),
        )
        .unwrap();
    assert_eq!(resp.served, Served::Incremental);

    let m = engine.metrics();
    assert_eq!(m.ingest_appends, (APPENDS + 1) as u64);
    assert!(m.incremental_refreshes >= 1, "{m:?}");
    assert_eq!(
        m.computed + m.cache_hits + m.coalesced + m.incremental_refreshes,
        m.submitted,
        "every submission accounted for: {m:?}"
    );
}
