//! Emits `BENCH_baseline.json`: the perf trajectory anchor for future
//! PRs. Runs the 1M-point polygonal selection and the 1M-point grid
//! join, sequential (`Device::cpu`) vs tiled-parallel
//! (`Device::cpu_parallel(8)`), and records wall-clock plus modeled
//! times. Run with:
//!
//! ```text
//! cargo run --release -p canvas-bench --bin bench_baseline [-- output.json]
//! ```
//!
//! Wall-clock speedups only materialize on multi-core hosts; the file
//! records `host_cores` so readers can interpret the numbers (on a
//! single-core container the parallel wall time is thread overhead, and
//! the modeled times carry the multi-core trajectory).

use std::fmt::Write as _;
use std::time::Instant;

use canvas_bench::city_extent;
use canvas_core::prelude::*;
use canvas_core::queries::selection::select_points_in_polygon;
use canvas_datagen as datagen;
use canvas_geom::{BBox, Point};

const N_POINTS: usize = 1_000_000;
const RESOLUTION: u32 = 512;
const PAR_THREADS: usize = 8;

struct Sample {
    name: &'static str,
    wall_secs: f64,
    modeled_secs: f64,
    result_count: usize,
}

fn time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_baseline.json".to_string());
    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    let extent = city_extent();
    let points = datagen::taxi_pickups(&extent, N_POINTS, 42);
    let batch = PointBatch::from_points(points.clone());
    let mbr = BBox::new(Point::new(15.0, 15.0), Point::new(85.0, 85.0));
    let poly = datagen::star_polygon(&mbr, 128, 0.5, 7);
    let vp = Viewport::square_pixels(extent, RESOLUTION);

    let mut samples: Vec<Sample> = Vec::new();

    // --- Selection: sequential tiled pipeline. ---
    let mut dev = Device::cpu();
    let (sel_seq, wall) = time(|| select_points_in_polygon(&mut dev, vp, &batch, &poly));
    samples.push(Sample {
        name: "selection_1m_seq",
        wall_secs: wall,
        modeled_secs: dev.modeled_time(),
        result_count: sel_seq.records.len(),
    });

    // --- Selection: 8-thread tiled pipeline. ---
    let mut dev = Device::cpu_parallel(PAR_THREADS);
    let (sel_par, wall) = time(|| select_points_in_polygon(&mut dev, vp, &batch, &poly));
    samples.push(Sample {
        name: "selection_1m_par8",
        wall_secs: wall,
        modeled_secs: dev.modeled_time(),
        result_count: sel_par.records.len(),
    });
    assert_eq!(
        sel_seq.records, sel_par.records,
        "sequential and parallel selections must agree"
    );

    // --- Join: 1M points × 32 zones through the CSR grid filter. ---
    let zones = datagen::neighborhoods(&extent, 32, 11);
    let (join_grid, wall) = time(|| canvas_baseline::join_grid(&points, &zones, extent));
    samples.push(Sample {
        name: "join_grid_1m_x32",
        wall_secs: wall,
        modeled_secs: 0.0,
        result_count: join_grid.pairs.len(),
    });
    let (join_pts, wall) =
        time(|| canvas_baseline::join_grid_points_indexed(&points, &zones, extent));
    samples.push(Sample {
        name: "join_grid_points_indexed_1m_x32",
        wall_secs: wall,
        modeled_secs: 0.0,
        result_count: join_pts.pairs.len(),
    });
    assert_eq!(
        join_grid.pairs, join_pts.pairs,
        "grid join formulations must agree"
    );

    // --- Fused operator chain: draw → blend → mask at 2048². ---
    // The fused-memory acceptance gate: streaming a 3-op chain through
    // the multi-stage hand-off must never materialize an intermediate
    // canvas — peak live tile buffers stay within the policy window
    // (vs 1024 tiles for a materialized 2048² intermediate).
    const CHAIN_RES: u32 = 2048;
    let chain_vp = canvas_raster::Viewport::square_pixels(extent, CHAIN_RES);
    let chain_pts = &points[..500_000.min(points.len())];
    let mut chain_pl = canvas_raster::Pipeline::new();
    chain_pl.set_threads(PAR_THREADS);
    let mut operand: canvas_raster::Texture<u32> =
        canvas_raster::Texture::new(CHAIN_RES, CHAIN_RES);
    chain_pl.par_map_texels(&mut operand, |x, y, _| x ^ (y << 1));
    let chain = canvas_raster::OpChain::new()
        .blend(&operand, |d: u32, s: u32| d.wrapping_add(s))
        .mask(|x, y, &t: &u32| (t ^ x ^ y) & 3 != 3);
    let mut fused_fb: canvas_raster::Texture<u32> =
        canvas_raster::Texture::new(CHAIN_RES, CHAIN_RES);
    let t0 = Instant::now();
    let chain_report = chain_pl.run_chain_points(
        &chain_vp,
        &mut fused_fb,
        None,
        chain_pts,
        |i, _| i.wrapping_add(1),
        |d, s| d.wrapping_add(s),
        &chain,
    );
    let chain_fused_wall = t0.elapsed().as_secs_f64();
    let chain_window = chain_pl
        .pool()
        .policy()
        .stream_window(chain_pl.pool().worker_count());

    // Materialized comparison: draw, then one full-screen pass per op
    // (allocates and rewrites the full framebuffer between operators).
    let mut mat_fb: canvas_raster::Texture<u32> = canvas_raster::Texture::new(CHAIN_RES, CHAIN_RES);
    let t0 = Instant::now();
    chain_pl.draw_points_tiled(
        &chain_vp,
        &mut mat_fb,
        chain_pts,
        |i, _| i.wrapping_add(1),
        |d, s| d.wrapping_add(s),
    );
    chain_pl.par_map_texels(&mut mat_fb, |x, y, t| t.wrapping_add(operand.get(x, y)));
    chain_pl.par_map_texels(
        &mut mat_fb,
        |x, y, t| if (t ^ x ^ y) & 3 != 3 { t } else { 0 },
    );
    let chain_materialized_wall = t0.elapsed().as_secs_f64();
    assert_eq!(
        fused_fb.texels(),
        mat_fb.texels(),
        "fused chain must be bit-identical to the materialized passes"
    );

    // --- Executor fork/join latency: persistent pool vs scoped spawn. ---
    // The reason the pool exists: every canvas operator is a short
    // data-parallel pass, so per-pass dispatch overhead is on the
    // critical path of operator chains. Measure an empty pass (the
    // pure fork/join cost) both ways.
    const DISPATCH_PASSES: usize = 300;
    let pool = canvas_raster::WorkerPool::new(PAR_THREADS);
    for _ in 0..20 {
        let _ = pool.run_indexed(PAR_THREADS, |i| i); // warm-up: park/wake paths
    }
    let t0 = Instant::now();
    for _ in 0..DISPATCH_PASSES {
        let _ = pool.run_indexed(PAR_THREADS, |i| i);
    }
    let pool_dispatch_ns = t0.elapsed().as_nanos() as f64 / DISPATCH_PASSES as f64;
    drop(pool);

    let t0 = Instant::now();
    for _ in 0..DISPATCH_PASSES {
        // What every pass paid before the executor: fresh scoped OS
        // threads per pass, same worker count, same trivial work.
        let counter = std::sync::atomic::AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..PAR_THREADS - 1 {
                let counter = &counter;
                s.spawn(move || {
                    counter.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                });
            }
            counter.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        });
    }
    let scoped_spawn_ns = t0.elapsed().as_nanos() as f64 / DISPATCH_PASSES as f64;
    let dispatch_speedup = scoped_spawn_ns / pool_dispatch_ns;

    // --- SIMD kernel ablation: scalar reference vs dispatched rows. ---
    // Per-kernel microbenchmark on L2-resident 2048-texel rows iterated
    // 2048× (2048² texels of work per arm, compute-bound): random mixed
    // presence makes the branchy scalar reference mispredict exactly
    // where the branchless vector select wins. The blend rows are the
    // gated pointwise kernels; the value row is ln-dominated and
    // deliberately scalar on every backend, recorded ungated as the
    // ablation's control.
    let simd_be = canvas_raster::simd::active_backend();
    let scalar_be = canvas_raster::Backend::Scalar;
    const SIMD_ROW: usize = 2048;
    const SIMD_REPS: usize = 2048;

    let mut seed = 0x243F_6A88_85A3_08D3u64;
    let mut next = move || {
        seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        seed
    };
    let mk_texel = |r: u64| -> Texel {
        let mut t = Texel::null();
        for d in 0..3usize {
            if (r >> (8 * d)) & 1 == 1 {
                t.set(
                    d,
                    DimInfo::new(
                        (r >> 16) as u32 & 0xFFFF,
                        d as f32 + 1.5,
                        0.25 * (r & 0xFF) as f32,
                    ),
                );
            }
        }
        t
    };
    let row_a: Vec<Texel> = (0..SIMD_ROW).map(|_| mk_texel(next())).collect();
    let row_b: Vec<Texel> = (0..SIMD_ROW).map(|_| mk_texel(next())).collect();

    // The per-rep restore is a fixed cost both arms pay equally; it is
    // measured alone (same loop shape) and subtracted so the blend
    // speedups compare pure kernel time. Gross per-texel numbers and
    // the restore baseline are all recorded in the JSON.
    fn bench_restore(proto: &[Texel]) -> f64 {
        let mut dst = proto.to_vec();
        let pass = |dst: &mut Vec<Texel>| {
            dst.copy_from_slice(proto);
        };
        for _ in 0..16 {
            pass(&mut dst);
        }
        let t0 = Instant::now();
        for _ in 0..SIMD_REPS {
            pass(&mut dst);
            std::hint::black_box(&mut dst);
        }
        t0.elapsed().as_nanos() as f64 / (SIMD_REPS * proto.len()) as f64
    }

    fn bench_blend(
        be: canvas_raster::Backend,
        tag: canvas_raster::BlendTag,
        proto: &[Texel],
        src: &[Texel],
    ) -> f64 {
        // Each rep restores `dst` from the prototype so every pass
        // blends fresh random-presence data — without the restore the
        // blend reaches its fixed point and the scalar arm's branches
        // become a learnable repeating pattern, flattering the
        // reference. The restore memcpy is paid equally by both arms.
        let mut dst = proto.to_vec();
        let pass = |dst: &mut Vec<Texel>| {
            dst.copy_from_slice(proto);
            canvas_raster::simd::blend_rows_with(be, tag, dst, src);
        };
        for _ in 0..16 {
            pass(&mut dst);
        }
        let t0 = Instant::now();
        for _ in 0..SIMD_REPS {
            pass(&mut dst);
        }
        std::hint::black_box(&mut dst);
        t0.elapsed().as_nanos() as f64 / (SIMD_REPS * proto.len()) as f64
    }

    fn bench_value(
        be: canvas_raster::Backend,
        tag: canvas_raster::ValueTag,
        proto: &[Texel],
    ) -> f64 {
        let mut row = proto.to_vec();
        let pass = |row: &mut Vec<Texel>| {
            row.copy_from_slice(proto);
            canvas_raster::simd::value_rows_with(be, tag, row);
        };
        for _ in 0..16 {
            pass(&mut row);
        }
        let t0 = Instant::now();
        for _ in 0..SIMD_REPS {
            pass(&mut row);
        }
        std::hint::black_box(&mut row);
        t0.elapsed().as_nanos() as f64 / (SIMD_REPS * proto.len()) as f64
    }

    fn bench_mask(be: canvas_raster::Backend, tag: canvas_raster::MaskTag, proto: &[Texel]) -> f64 {
        let mut row = proto.to_vec();
        let mut cov = vec![1u16; proto.len()];
        let mut bits = vec![0u64; proto.len().div_ceil(64)];
        let pass = |row: &mut Vec<Texel>, cov: &mut Vec<u16>, bits: &mut Vec<u64>| {
            row.copy_from_slice(proto);
            cov.fill(1);
            bits.fill(0);
            canvas_raster::simd::mask_rows_with(be, tag, row, Some(cov), bits);
        };
        for _ in 0..16 {
            pass(&mut row, &mut cov, &mut bits);
        }
        let t0 = Instant::now();
        for _ in 0..SIMD_REPS {
            pass(&mut row, &mut cov, &mut bits);
        }
        std::hint::black_box((&mut row, &mut bits));
        t0.elapsed().as_nanos() as f64 / (SIMD_REPS * proto.len()) as f64
    }

    fn bench_cover(be: canvas_raster::Backend, n: usize) -> f64 {
        let proto: Vec<u16> = (0..n).map(|i| (i % 7) as u16).collect();
        let src: Vec<u16> = (0..n).map(|i| (i % 5) as u16 + 1).collect();
        let mut dst = proto.clone();
        let pass = |dst: &mut Vec<u16>| {
            dst.copy_from_slice(&proto);
            canvas_raster::simd::cover_add_rows_with(be, dst, &src);
        };
        for _ in 0..16 {
            pass(&mut dst);
        }
        let t0 = Instant::now();
        for _ in 0..SIMD_REPS {
            pass(&mut dst);
        }
        std::hint::black_box(&mut dst);
        t0.elapsed().as_nanos() as f64 / (SIMD_REPS * n) as f64
    }

    // Best-of-3 per measurement (same guard bench_serve uses): on a
    // shared host a single timed window can land on a scheduling blip
    // or throttled interval, and the minimum is the least-interfered
    // estimate of the kernel's true cost.
    fn best3(mut f: impl FnMut() -> f64) -> f64 {
        (0..3).map(|_| f()).fold(f64::INFINITY, f64::min)
    }

    let blend_restore = best3(|| bench_restore(&row_a));
    let blend_over_scalar =
        best3(|| bench_blend(scalar_be, canvas_raster::BlendTag::Over, &row_a, &row_b));
    let blend_over_simd =
        best3(|| bench_blend(simd_be, canvas_raster::BlendTag::Over, &row_a, &row_b));
    let blend_poa_scalar = best3(|| {
        bench_blend(
            scalar_be,
            canvas_raster::BlendTag::PointOverArea,
            &row_a,
            &row_b,
        )
    });
    let blend_poa_simd = best3(|| {
        bench_blend(
            simd_be,
            canvas_raster::BlendTag::PointOverArea,
            &row_a,
            &row_b,
        )
    });
    let value_scalar = best3(|| bench_value(scalar_be, canvas_raster::ValueTag::HeatLog, &row_a));
    let value_simd = best3(|| bench_value(simd_be, canvas_raster::ValueTag::HeatLog, &row_a));
    let mask_scalar = best3(|| bench_mask(scalar_be, canvas_raster::MaskTag::PointAndArea, &row_a));
    let mask_simd = best3(|| bench_mask(simd_be, canvas_raster::MaskTag::PointAndArea, &row_a));
    let cover_scalar = best3(|| bench_cover(scalar_be, SIMD_ROW));
    let cover_simd = best3(|| bench_cover(simd_be, SIMD_ROW));

    // Blend speedups are net of the per-rep restore both arms pay;
    // the floor keeps a noisy restore estimate from driving a
    // denominator to zero or negative.
    let net = |gross: f64| (gross - blend_restore).max(gross * 0.1);
    let blend_over_speedup = net(blend_over_scalar) / net(blend_over_simd);
    let blend_poa_speedup = net(blend_poa_scalar) / net(blend_poa_simd);
    let value_speedup = value_scalar / value_simd;
    let mask_speedup = mask_scalar / mask_simd;
    let cover_speedup = cover_scalar / cover_simd;

    let seq = &samples[0];
    let par = &samples[1];
    let wall_speedup = seq.wall_secs / par.wall_secs;
    let modeled_speedup = seq.modeled_secs / par.modeled_secs;

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"n_points\": {N_POINTS},");
    let _ = writeln!(json, "  \"resolution\": {RESOLUTION},");
    let _ = writeln!(json, "  \"parallel_threads\": {PAR_THREADS},");
    let _ = writeln!(json, "  \"host_cores\": {host_cores},");
    let _ = writeln!(
        json,
        "  \"selection_modeled_speedup_8t\": {modeled_speedup:.3},"
    );
    let _ = writeln!(json, "  \"selection_wall_speedup_8t\": {wall_speedup:.3},");
    let _ = writeln!(
        json,
        "  \"pool_dispatch_ns_per_pass\": {pool_dispatch_ns:.0},"
    );
    let _ = writeln!(
        json,
        "  \"scoped_spawn_ns_per_pass\": {scoped_spawn_ns:.0},"
    );
    let _ = writeln!(json, "  \"dispatch_speedup\": {dispatch_speedup:.2},");
    let _ = writeln!(
        json,
        "  \"chain_peak_tiles_in_flight\": {},",
        chain_report.peak_tiles_in_flight
    );
    let _ = writeln!(json, "  \"chain_stream_window\": {chain_window},");
    let _ = writeln!(json, "  \"chain_tiles_total\": {},", chain_report.tiles);
    let _ = writeln!(json, "  \"chain_fused_wall_secs\": {chain_fused_wall:.6},");
    let _ = writeln!(
        json,
        "  \"chain_materialized_wall_secs\": {chain_materialized_wall:.6},"
    );
    let _ = writeln!(json, "  \"simd_backend\": \"{}\",", simd_be.name());
    let _ = writeln!(json, "  \"simd_width\": {},", simd_be.width());
    let _ = writeln!(
        json,
        "  \"simd_blend_restore_ns_per_texel\": {blend_restore:.3},"
    );
    let _ = writeln!(
        json,
        "  \"simd_blend_over_scalar_ns_per_texel\": {blend_over_scalar:.3},"
    );
    let _ = writeln!(
        json,
        "  \"simd_blend_over_ns_per_texel\": {blend_over_simd:.3},"
    );
    let _ = writeln!(
        json,
        "  \"simd_blend_over_speedup\": {blend_over_speedup:.2},"
    );
    let _ = writeln!(
        json,
        "  \"simd_blend_point_over_area_scalar_ns_per_texel\": {blend_poa_scalar:.3},"
    );
    let _ = writeln!(
        json,
        "  \"simd_blend_point_over_area_ns_per_texel\": {blend_poa_simd:.3},"
    );
    let _ = writeln!(
        json,
        "  \"simd_blend_point_over_area_speedup\": {blend_poa_speedup:.2},"
    );
    let _ = writeln!(
        json,
        "  \"simd_value_heat_log_scalar_ns_per_texel\": {value_scalar:.3},"
    );
    let _ = writeln!(
        json,
        "  \"simd_value_heat_log_ns_per_texel\": {value_simd:.3},"
    );
    let _ = writeln!(
        json,
        "  \"simd_value_heat_log_speedup\": {value_speedup:.2},"
    );
    let _ = writeln!(
        json,
        "  \"simd_mask_point_and_area_scalar_ns_per_texel\": {mask_scalar:.3},"
    );
    let _ = writeln!(
        json,
        "  \"simd_mask_point_and_area_ns_per_texel\": {mask_simd:.3},"
    );
    let _ = writeln!(
        json,
        "  \"simd_mask_point_and_area_speedup\": {mask_speedup:.2},"
    );
    let _ = writeln!(
        json,
        "  \"simd_cover_add_scalar_ns_per_texel\": {cover_scalar:.3},"
    );
    let _ = writeln!(json, "  \"simd_cover_add_ns_per_texel\": {cover_simd:.3},");
    let _ = writeln!(json, "  \"simd_cover_add_speedup\": {cover_speedup:.2},");
    json.push_str("  \"samples\": [\n");
    for (i, s) in samples.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"name\": \"{}\", \"wall_secs\": {:.6}, \"modeled_secs\": {:.6}, \"result_count\": {}}}{}",
            s.name,
            s.wall_secs,
            s.modeled_secs,
            s.result_count,
            if i + 1 < samples.len() { "," } else { "" }
        );
    }
    json.push_str("  ]\n}\n");

    std::fs::write(&out_path, &json).expect("write BENCH_baseline.json");
    print!("{json}");
    eprintln!("wrote {out_path}");

    // The acceptance bar for the parallel pipeline: ≥ 3× at 8 threads.
    // The modeled ratio is a property of the device cost model (seq and
    // par count identical work — that equality is proptest-enforced),
    // so it sanity-checks the model, not the executor; the executor is
    // gated on *wall clock*, which only means something with enough
    // physical cores to run 8 workers. On smaller hosts the wall
    // numbers are recorded for the trajectory but not asserted.
    assert!(
        modeled_speedup >= 3.0,
        "modeled 8-thread speedup {modeled_speedup:.2}x below 3x"
    );
    // The fused-chain memory gate: a 3-op chain (draw → blend → mask)
    // at 2048² holds at most the policy window of live tile buffers —
    // intermediate canvases are never materialized.
    assert!(
        chain_report.peak_tiles_in_flight <= chain_window,
        "fused chain held {} live tiles, window is {chain_window}",
        chain_report.peak_tiles_in_flight
    );
    assert!(
        chain_report.tiles > chain_window,
        "chain benchmark must stream more tiles ({}) than the window ({chain_window}) \
         for the bound to mean anything",
        chain_report.tiles
    );
    // The persistent pool must beat per-pass scoped spawns on pure
    // fork/join latency — that is its entire reason to exist.
    assert!(
        pool_dispatch_ns < scoped_spawn_ns,
        "pool dispatch {pool_dispatch_ns:.0}ns/pass not below scoped spawn \
         {scoped_spawn_ns:.0}ns/pass"
    );
    // The pointwise-kernel gate: when a vector backend was detected,
    // the dispatched blend rows must beat the scalar reference ≥ 1.5×,
    // comparing pure kernel time (gross minus the measured per-rep
    // restore, which both arms pay equally). The ln-bound value kernel
    // and the gather-bound mask kernel are recorded for the trajectory
    // but not gated.
    if simd_be.is_vector() {
        assert!(
            blend_over_speedup >= 1.5,
            "SIMD Over blend {blend_over_speedup:.2}x below 1.5x over scalar on {}",
            simd_be.name()
        );
        assert!(
            blend_poa_speedup >= 1.5,
            "SIMD PointOverArea blend {blend_poa_speedup:.2}x below 1.5x over scalar on {}",
            simd_be.name()
        );
    } else {
        eprintln!(
            "note: no vector backend detected (backend {}); SIMD kernel numbers recorded, \
             1.5x pointwise gate applies when width >= 4",
            simd_be.name()
        );
    }
    if host_cores >= 8 {
        assert!(
            wall_speedup >= 3.0,
            "wall 8-thread speedup {wall_speedup:.2}x below 3x on a {host_cores}-core host"
        );
    } else {
        eprintln!(
            "note: host has {host_cores} core(s); wall speedup {wall_speedup:.2}x recorded, \
             3x gate applies on hosts with >= 8 cores"
        );
    }
}
