//! # canvas-bench
//!
//! Experiment harness regenerating every figure of the paper's
//! evaluation (Section 6) plus two ablations: canvas resolution vs
//! approximate-mode error, and unfused vs fused blend plans (`repro`'s
//! `resolution` and `blend` figures).
//!
//! Each experiment returns structured [`Measurement`]s with **two**
//! timings per approach:
//!
//! * `wall_secs` — real wall-clock of this reproduction's software
//!   implementation on the current host,
//! * `modeled_secs` — the device-cost-model estimate for the hardware
//!   the paper used (see `canvas_raster::device` for the substitution
//!   note: the reproduction runs without a GPU, so modeled time is what
//!   carries the paper's hardware ratios).
//!
//! The `repro` binary formats these as the paper's figures and writes
//! CSVs under `results/`.

use std::sync::Arc;
use std::time::Instant;

use canvas_baseline as baseline;
use canvas_core::prelude::*;
use canvas_core::queries::selection::{self, MultiPolygon};
use canvas_datagen as datagen;
use canvas_geom::polygon::Polygon;
use canvas_geom::{BBox, Point};
use canvas_raster::{DeviceProfile, PipelineStats};

/// The synthetic city extent (stands in for the taxi-query MBR).
pub fn city_extent() -> BBox {
    BBox::new(Point::new(0.0, 0.0), Point::new(100.0, 100.0))
}

/// Canvas resolution used by the experiments (the prototype's texture).
pub const DEFAULT_RESOLUTION: u32 = 512;

/// One approach's result on one configuration.
#[derive(Clone, Debug)]
pub struct Measurement {
    pub approach: &'static str,
    pub wall_secs: f64,
    pub modeled_secs: f64,
    /// Result cardinality (sanity: all approaches must agree).
    pub result_count: usize,
}

/// A labeled row: the x-axis value (input size / polygon id) plus the
/// per-approach measurements.
#[derive(Clone, Debug)]
pub struct Row {
    pub label: String,
    pub x: f64,
    pub measurements: Vec<Measurement>,
}

impl Row {
    /// Speedup of each approach over the scalar-CPU measurement in the
    /// same row (the paper's y-axis in Figures 9(a,c) and 10(a)),
    /// computed on modeled time.
    pub fn speedups(&self) -> Vec<(&'static str, f64)> {
        let cpu = self
            .measurements
            .iter()
            .find(|m| m.approach == CPU_SCALAR)
            .map(|m| m.modeled_secs)
            .unwrap_or(f64::NAN);
        self.measurements
            .iter()
            .map(|m| (m.approach, cpu / m.modeled_secs))
            .collect()
    }
}

pub const CPU_SCALAR: &str = "CPU (1 thread)";
pub const CPU_PARALLEL: &str = "CPU (OpenMP)";
pub const GPU_BASELINE: &str = "GPU baseline";
pub const CANVAS_NVIDIA: &str = "Canvas (Nvidia)";
pub const CANVAS_INTEL: &str = "Canvas (Intel)";

/// Models CPU time for a pure PIP workload of `edge_tests` edges.
fn model_cpu(profile: &DeviceProfile, edge_tests: u64) -> f64 {
    profile.estimate(&PipelineStats {
        compute_edge_tests: edge_tests,
        ..Default::default()
    })
}

/// Runs the five approaches of Figure 9 on one selection configuration.
///
/// `constraints` is the disjunction of query polygons (1 for Fig 9(a,b),
/// 2 for Fig 9(c,d), varying shapes for Fig 10).
pub fn run_selection(
    points: &[Point],
    constraints: &[Polygon],
    resolution: u32,
) -> Vec<Measurement> {
    let vp = Viewport::square_pixels(city_extent(), resolution);
    let batch = PointBatch::from_points(points.to_vec());
    let mut out = Vec::with_capacity(5);

    // --- CPU scalar (the speedup denominator). ---
    let t0 = Instant::now();
    let cpu = baseline::select_scalar(points, constraints);
    let wall = t0.elapsed().as_secs_f64();
    out.push(Measurement {
        approach: CPU_SCALAR,
        wall_secs: wall,
        modeled_secs: model_cpu(&DeviceProfile::cpu_scalar(), cpu.edge_tests),
        result_count: cpu.records.len(),
    });

    // --- CPU parallel (OpenMP-style; on a 1-core container the wall
    // time degenerates to scalar, the model shows the 6-core host). ---
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let t0 = Instant::now();
    let par = baseline::select_parallel(points, constraints, threads);
    let wall = t0.elapsed().as_secs_f64();
    out.push(Measurement {
        approach: CPU_PARALLEL,
        wall_secs: wall,
        modeled_secs: model_cpu(&DeviceProfile::cpu_parallel(), par.edge_tests),
        result_count: par.records.len(),
    });

    // --- Traditional GPU baseline. ---
    let mut dev = Device::nvidia();
    let t0 = Instant::now();
    let gpu = baseline::select_gpu_baseline(&mut dev, points, constraints);
    let wall = t0.elapsed().as_secs_f64();
    out.push(Measurement {
        approach: GPU_BASELINE,
        wall_secs: wall,
        modeled_secs: dev.modeled_time(),
        result_count: gpu.records.len(),
    });

    // --- Canvas algebra on the discrete GPU profile. ---
    let mut dev = Device::nvidia();
    let t0 = Instant::now();
    let sel = if constraints.len() == 1 {
        selection::select_points_in_polygon(&mut dev, vp, &batch, &constraints[0])
    } else {
        selection::select_points_multi(&mut dev, vp, &batch, constraints, MultiPolygon::Disjunction)
    };
    let wall = t0.elapsed().as_secs_f64();
    out.push(Measurement {
        approach: CANVAS_NVIDIA,
        wall_secs: wall,
        modeled_secs: dev.modeled_time(),
        result_count: sel.records.len(),
    });

    // --- Canvas algebra on the integrated GPU profile (same work,
    // different device model; wall time identical by construction). ---
    let mut dev = Device::intel();
    let sel2 = if constraints.len() == 1 {
        selection::select_points_in_polygon(&mut dev, vp, &batch, &constraints[0])
    } else {
        selection::select_points_multi(&mut dev, vp, &batch, constraints, MultiPolygon::Disjunction)
    };
    out.push(Measurement {
        approach: CANVAS_INTEL,
        wall_secs: wall,
        modeled_secs: dev.modeled_time(),
        result_count: sel2.records.len(),
    });

    // Sanity: every approach must return the same answer.
    let counts: Vec<usize> = out.iter().map(|m| m.result_count).collect();
    assert!(
        counts.iter().all(|&c| c == counts[0]),
        "approaches disagree: {counts:?}"
    );
    out
}

/// Points clipped to the constraint MBR — the paper's setup: "we use as
/// input only taxi trips that have their pickup location within this
/// MBR", which makes the *refinement* step (not MBR filtering) the
/// bottleneck being measured.
fn points_in_mbr(extent: &BBox, mbr: &BBox, n: usize, seed: u64) -> Vec<Point> {
    let mut out = Vec::with_capacity(n);
    let mut round = 0u64;
    while out.len() < n && round < 64 {
        let batch = datagen::taxi_pickups(extent, n * 2, seed.wrapping_add(round * 7919));
        out.extend(batch.into_iter().filter(|p| mbr.contains(*p)));
        round += 1;
    }
    out.truncate(n);
    out
}

/// Figure 9(a,b): scaling input size with one polygonal constraint.
/// Figure 9(c,d): the same sweep with `num_constraints = 2`.
pub fn figure9(sizes: &[usize], num_constraints: usize, resolution: u32, seed: u64) -> Vec<Row> {
    let extent = city_extent();
    let max_n = sizes.iter().copied().max().unwrap_or(0);
    // Hand-drawn-style constraint polygons with a common MBR (the
    // paper's setup); ~128 vertices like digitized hand-drawn shapes.
    let mbr = BBox::new(Point::new(15.0, 15.0), Point::new(85.0, 85.0));
    let constraints: Vec<Polygon> = (0..num_constraints)
        .map(|i| {
            datagen::fit_to_bbox(
                &datagen::star_polygon(&mbr, 128, 0.5, seed + 100 + i as u64),
                &mbr,
            )
        })
        .collect();
    let all_points = points_in_mbr(&extent, &mbr, max_n, seed);
    sizes
        .iter()
        .map(|&n| Row {
            label: format!("{n} points"),
            x: n as f64,
            measurements: run_selection(
                &all_points[..n.min(all_points.len())],
                &constraints,
                resolution,
            ),
        })
        .collect()
}

/// Figure 10: varying the polygonal constraint (shape, complexity,
/// selectivity ≈3%–83%) at a fixed input size.
pub fn figure10(n: usize, resolution: u32, seed: u64) -> Vec<Row> {
    let extent = city_extent();
    let mbr = BBox::new(Point::new(10.0, 10.0), Point::new(90.0, 90.0));
    let points = points_in_mbr(&extent, &mbr, n, seed);
    // Eight polygons spanning the paper's selectivity range with varying
    // vertex counts (complexity).
    let configs: [(f64, usize); 8] = [
        (0.03, 32),
        (0.10, 48),
        (0.20, 64),
        (0.35, 96),
        (0.50, 128),
        (0.65, 192),
        (0.75, 256),
        (0.83, 384),
    ];
    configs
        .iter()
        .enumerate()
        .map(|(i, &(target, verts))| {
            let poly = datagen::calibrated_polygon(&mbr, &points, target, verts, seed + i as u64);
            let sel = datagen::selectivity(&poly, &points);
            Row {
                label: format!("P{} ({verts}v, {:.0}% sel)", i + 1, sel * 100.0),
                x: sel,
                measurements: run_selection(&points, std::slice::from_ref(&poly), resolution),
            }
        })
        .collect()
}

/// E6: spatial aggregation plans (Section 5.2). Compares the canvas
/// RasterJoin-style plan against the traditional join-then-aggregate
/// baseline, for a growing number of points.
pub fn aggregation_experiment(
    sizes: &[usize],
    num_zones: usize,
    resolution: u32,
    seed: u64,
) -> Vec<Row> {
    let extent = city_extent();
    let vp = Viewport::square_pixels(extent, resolution);
    let max_n = sizes.iter().copied().max().unwrap_or(0);
    let trips = datagen::generate_trips(&extent, max_n, 16, seed);
    // Real administrative boundaries carry hundreds of vertices; PIP
    // baselines pay per vertex, the canvas does not (paper Section 6).
    let zones: AreaSource = Arc::new(datagen::neighborhoods_detailed(
        &extent,
        num_zones,
        150,
        seed + 1,
    ));

    sizes
        .iter()
        .map(|&n| {
            let pickups = &trips.pickups[..n];
            let fares = &trips.fares[..n];
            let batch = PointBatch::with_weights(pickups.to_vec(), fares.to_vec());
            let mut measurements = Vec::new();

            // Traditional plan on CPU: index join + aggregate.
            let t0 = Instant::now();
            let (counts, _, edges) = baseline::aggregate_join_baseline(pickups, fares, &zones);
            let wall = t0.elapsed().as_secs_f64();
            let total: u64 = counts.iter().sum();
            measurements.push(Measurement {
                approach: CPU_SCALAR,
                wall_secs: wall,
                modeled_secs: model_cpu(&DeviceProfile::cpu_scalar(), edges),
                result_count: total as usize,
            });

            // Traditional plan charged to the GPU (join on GPU, then
            // aggregate) — the pre-RasterJoin GPU strategy.
            let mut dev = Device::nvidia();
            dev.pipeline().note_upload((n * 16) as u64);
            dev.pipeline().note_compute_edge_tests(edges);
            measurements.push(Measurement {
                approach: GPU_BASELINE,
                wall_secs: wall,
                modeled_secs: dev.modeled_time(),
                result_count: total as usize,
            });

            // Canvas RasterJoin plan.
            let mut dev = Device::nvidia();
            let t0 = Instant::now();
            let agg = canvas_core::queries::aggregate::aggregate_join_rasterjoin(
                &mut dev, vp, &batch, &zones,
            );
            let wall = t0.elapsed().as_secs_f64();
            let canvas_total: u64 = agg.counts.iter().sum();
            measurements.push(Measurement {
                approach: CANVAS_NVIDIA,
                wall_secs: wall,
                modeled_secs: dev.modeled_time(),
                result_count: canvas_total as usize,
            });

            assert_eq!(total, canvas_total, "plans disagree at n = {n}");
            Row {
                label: format!("{n} points x {num_zones} zones"),
                x: n as f64,
                measurements,
            }
        })
        .collect()
}

/// A2: resolution ablation — the approximate mode of Section 5.1.
/// Returns `(resolution, wall_secs, relative_error)` rows where error is
/// measured against the exact answer (which our conservative+refined
/// pipeline reproduces at any resolution; the *approximate* mode skips
/// refinement).
pub fn resolution_ablation(n: usize, seed: u64) -> Vec<(u32, f64, f64)> {
    let extent = city_extent();
    let points = datagen::taxi_pickups(&extent, n, seed);
    let mbr = BBox::new(Point::new(20.0, 20.0), Point::new(80.0, 80.0));
    let poly = datagen::star_polygon(&mbr, 64, 0.5, seed);
    let exact = baseline::select_scalar(&points, std::slice::from_ref(&poly))
        .records
        .len() as f64;

    [64u32, 128, 256, 512, 1024]
        .iter()
        .map(|&res| {
            let vp = Viewport::square_pixels(extent, res);
            let mut dev = Device::nvidia();
            // Approximate mode: center-sampled polygon, no boundary
            // refinement — count points in covered pixels only.
            let t0 = Instant::now();
            let batch = PointBatch::from_points(points.clone());
            let cp = render_points(&mut dev, vp, &batch);
            let table: AreaSource = Arc::new(vec![poly.clone()]);
            let cy = canvas_core::source::render_polygon_with(
                &mut dev,
                vp,
                &table,
                0,
                Texel::area(1, 1.0, 0.0),
                false, // no conservative boundary tracking
            );
            let merged = blend(&mut dev, &cp, &cy, BlendFn::PointOverArea);
            let approx: f64 = merged
                .non_null()
                .filter(|(_, _, t)| t.has(0) && t.has(2))
                .map(|(_, _, t)| t.get(0).map(|p| p.v1 as f64).unwrap_or(0.0))
                .sum();
            let wall = t0.elapsed().as_secs_f64();
            let err = if exact > 0.0 {
                (approx - exact).abs() / exact
            } else {
                0.0
            };
            (res, wall, err)
        })
        .collect()
}

/// A3: blend-plan ablation — per-record multiway blend (unfused) vs the
/// fused instanced draw the optimizer produces, for a disjunction of
/// `k` constraint polygons. Returns (k, unfused_modeled, fused_modeled).
pub fn blend_ablation(
    n: usize,
    ks: &[usize],
    resolution: u32,
    seed: u64,
) -> Vec<(usize, f64, f64)> {
    let extent = city_extent();
    let points = Arc::new(PointBatch::from_points(datagen::taxi_pickups(
        &extent, n, seed,
    )));
    let vp = Viewport::square_pixels(extent, resolution);
    ks.iter()
        .map(|&k| {
            let mbr = BBox::new(Point::new(15.0, 15.0), Point::new(85.0, 85.0));
            let polys: Vec<Polygon> = (0..k)
                .map(|i| datagen::star_polygon(&mbr, 48, 0.5, seed + i as u64))
                .collect();
            let plan = selection::points_in_polygons_plan(
                points.clone(),
                &polys,
                MultiPolygon::Disjunction,
            );
            // Unfused: evaluate as written (n-1 full-canvas blends).
            let mut dev = Device::nvidia();
            let unfused = plan.clone().eval(&mut dev, vp);
            let unfused_t = dev.modeled_time();
            // Fused: the optimizer's plan.
            let mut dev = Device::nvidia();
            let fused = canvas_core::algebra::optimize(plan).eval(&mut dev, vp);
            let fused_t = dev.modeled_time();
            assert_eq!(unfused.point_records(), fused.point_records());
            (k, unfused_t, fused_t)
        })
        .collect()
}

/// Writes rows as CSV (label, x, then per-approach wall/modeled/speedup).
pub fn write_rows_csv(path: &str, rows: &[Row]) -> std::io::Result<()> {
    use std::io::Write;
    let file = std::fs::File::create(path)?;
    let mut w = std::io::BufWriter::new(file);
    writeln!(
        w,
        "label,x,approach,wall_secs,modeled_secs,speedup_over_cpu,result_count"
    )?;
    for row in rows {
        let speedups = row.speedups();
        for (m, (_, sp)) in row.measurements.iter().zip(speedups) {
            writeln!(
                w,
                "{},{},{},{:.6},{:.6},{:.2},{}",
                row.label, row.x, m.approach, m.wall_secs, m.modeled_secs, sp, m.result_count
            )?;
        }
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selection_experiment_shapes_hold() {
        // Paper-regime config: enough points and polygon complexity that
        // per-point work (not fixed pass overheads) dominates — that is
        // the regime Figures 9–10 are drawn in.
        let extent = city_extent();
        let points = datagen::taxi_pickups(&extent, 100_000, 11);
        let mbr = BBox::new(Point::new(15.0, 15.0), Point::new(85.0, 85.0));
        let poly = datagen::star_polygon(&mbr, 256, 0.5, 13);
        let ms = run_selection(&points, std::slice::from_ref(&poly), 128);
        let get = |name: &str| ms.iter().find(|m| m.approach == name).unwrap();
        let cpu = get(CPU_SCALAR).modeled_secs;
        let nv = get(CANVAS_NVIDIA).modeled_secs;
        let intel = get(CANVAS_INTEL).modeled_secs;
        let gpub = get(GPU_BASELINE).modeled_secs;
        // Canvas beats the GPU baseline; both GPUs beat CPU by a lot.
        assert!(nv < gpub, "canvas {nv} must beat GPU baseline {gpub}");
        assert!(cpu / nv > 100.0, "nvidia speedup {} too small", cpu / nv);
        assert!(cpu / intel > 10.0, "intel speedup {}", cpu / intel);
        assert!(nv < intel);
    }

    #[test]
    fn figure9_monotone_input_sizes() {
        let rows = figure9(&[2_000, 8_000], 1, 128, 5);
        assert_eq!(rows.len(), 2);
        // Larger inputs cost the CPU more.
        let c0 = rows[0].measurements[0].modeled_secs;
        let c1 = rows[1].measurements[0].modeled_secs;
        assert!(c1 > c0);
    }

    #[test]
    fn multi_constraint_widens_canvas_margin() {
        // Figure 9(c)'s claim: the canvas advantage over the GPU
        // baseline grows with the number of constraints.
        let extent = city_extent();
        let points = datagen::taxi_pickups(&extent, 20_000, 3);
        let mbr = BBox::new(Point::new(15.0, 15.0), Point::new(85.0, 85.0));
        let polys: Vec<Polygon> = (0..2)
            .map(|i| datagen::star_polygon(&mbr, 64, 0.5, 50 + i))
            .collect();
        let one = run_selection(&points, &polys[..1], 128);
        let two = run_selection(&points, &polys, 128);
        let ratio = |ms: &[Measurement]| {
            let gpub = ms
                .iter()
                .find(|m| m.approach == GPU_BASELINE)
                .unwrap()
                .modeled_secs;
            let nv = ms
                .iter()
                .find(|m| m.approach == CANVAS_NVIDIA)
                .unwrap()
                .modeled_secs;
            gpub / nv
        };
        assert!(
            ratio(&two) > ratio(&one),
            "margin must grow: 1-poly {} vs 2-poly {}",
            ratio(&one),
            ratio(&two)
        );
    }

    #[test]
    fn aggregation_plans_agree_and_canvas_wins_modeled() {
        let rows = aggregation_experiment(&[60_000], 24, 128, 7);
        let row = &rows[0];
        let gpub = row
            .measurements
            .iter()
            .find(|m| m.approach == GPU_BASELINE)
            .unwrap()
            .modeled_secs;
        let canvas = row
            .measurements
            .iter()
            .find(|m| m.approach == CANVAS_NVIDIA)
            .unwrap()
            .modeled_secs;
        let cpu = row
            .measurements
            .iter()
            .find(|m| m.approach == CPU_SCALAR)
            .unwrap()
            .modeled_secs;
        // RasterJoin-style plan beats join-then-aggregate on the GPU,
        // and both demolish the CPU plan (paper Section 5.2 / [47]).
        assert!(
            canvas < gpub,
            "canvas {canvas} must beat GPU join+aggregate {gpub}"
        );
        assert!(cpu / canvas > 50.0, "speedup {}", cpu / canvas);
    }

    #[test]
    fn resolution_ablation_error_shrinks() {
        let rows = resolution_ablation(5_000, 9);
        assert_eq!(rows.len(), 5);
        let first_err = rows[0].2;
        let last_err = rows[rows.len() - 1].2;
        assert!(
            last_err <= first_err,
            "error must not grow with resolution: {rows:?}"
        );
        assert!(last_err < 0.05, "high-res error {last_err} too large");
    }

    #[test]
    fn blend_ablation_fusion_wins() {
        let rows = blend_ablation(2_000, &[4], 128, 3);
        let (_, unfused, fused) = rows[0];
        assert!(fused < unfused, "fused {fused} vs unfused {unfused}");
    }
}
