//! The benchmark's vocabulary: workload names, end-to-end metrics with
//! their bounds, and every per-layer metric name. `BENCHMARK.json` at
//! the repo root is this module printed (`canvas-benchmark spec`); a
//! test keeps the two in step.

use crate::json::Json;

/// `Query::label()` of every query class, in descriptor order.
pub const CLASSES: [&str; 14] = [
    "plan",
    "select_points",
    "selection_heatmap",
    "polygon_density",
    "aggregate_by_zone",
    "knn",
    "voronoi",
    "select_od",
    "od_flow_matrix",
    "spatiotemporal_window",
    "region_time_series",
    "skyline",
    "hull",
    "live_heatmap",
];

/// Seconds of `--seconds` one timed lap stands for: `--seconds` buys
/// whole laps and never shortens one. Laps are sized to 3–4 s of
/// closed-loop work on a 2-core host (with the harness's own work
/// between steps, about 4 s of wall).
pub const LAP_TARGET_SECONDS: u64 = 4;
/// What the driver passes as `--seconds`: five timed laps.
pub const RUN_SECONDS: u64 = 20;
pub const WARM_LAPS: usize = 2;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WorkloadKind {
    ExploreCold,
    DashboardRevisit,
    AnalyticsBatch,
    LiveIngest,
}

pub const WORKLOADS: [WorkloadKind; 4] = [
    WorkloadKind::ExploreCold,
    WorkloadKind::DashboardRevisit,
    WorkloadKind::AnalyticsBatch,
    WorkloadKind::LiveIngest,
];

impl WorkloadKind {
    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::ExploreCold => "explore_cold",
            WorkloadKind::DashboardRevisit => "dashboard_revisit",
            WorkloadKind::AnalyticsBatch => "analytics_batch",
            WorkloadKind::LiveIngest => "live_ingest",
        }
    }

    pub fn from_name(name: &str) -> Option<Self> {
        WORKLOADS.into_iter().find(|w| w.name() == name)
    }

    /// One line on why the workload exists (the long form is in the
    /// README).
    pub fn why(self) -> &'static str {
        match self {
            WorkloadKind::ExploreCold => {
                "never-revisited 512x512 viewports refreshing four linked views: raster kernels, core chains and executor dispatch do the work, the whole-plan cache can only cost"
            }
            WorkloadKind::DashboardRevisit => {
                "two clients replay six cached viewports: only prepare, fingerprint, cache probe under contention, metrics and flight spans run; raster and executor stay idle"
            }
            WorkloadKind::AnalyticsBatch => {
                "step-seeded region reports over nine promoted classes with nothing reused: geom indexes and core::queries (circle ladders, dominance tests, many small passes) dominate"
            }
            WorkloadKind::LiveIngest => {
                "deterministic append-then-read ticks on a 500k-point versioned table: patch_points_tiled, canvas clone, predecessor retirement and grid growth beside reads"
            }
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen; per-layer metrics carry none.
    pub bound: Option<f64>,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

/// The six end-to-end metrics, defined on every workload, with the
/// bound by which each may worsen before it is a regression.
///
/// The issue asked for 6–10 %. Two A/A sets of ten runs on the shared
/// 2-core reference host (README, "The A/A self-check") put set medians
/// of the *same code* up to 14 % apart on the time-based metrics and
/// spreads up to 13 % — the host's speed drifts by that much over tens
/// of minutes — so the time-based bounds sit at the 25 % the driver
/// allows and memory at 12 %. `setup_s` carries the largest bound (it
/// is one reading per run). Tighten them in a benchmark-only change
/// once the runs happen on a quiet host.
pub const END_TO_END: [MetricSpec; 6] = [
    e2e("setup_s", "s", "lower", 0.25),
    e2e("steps_per_s", "1/s", "higher", 0.25),
    e2e("step_p50_ms", "ms", "lower", 0.25),
    e2e("step_p90_ms", "ms", "lower", 0.25),
    e2e("cpu_ms_per_step", "ms", "lower", 0.25),
    e2e("peak_rss_mb", "MiB", "lower", 0.12),
];

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: None,
    }
}

/// Per-layer metrics that are not per query class (layer = crate).
const PER_LAYER_FIXED: [MetricSpec; 68] = [
    // engine
    layer("engine.self_us_per_query", "us", "lower"),
    layer("engine.hit_us_p50", "us", "lower"),
    layer("engine.prepare_us_p50", "us", "lower"),
    layer("engine.refresh_ms_p50", "ms", "lower"),
    layer("engine.queue_wait_us_per_query", "us", "lower"),
    layer("engine.served_computed", "count", "lower"),
    layer("engine.served_cache_hit", "count", "higher"),
    layer("engine.served_coalesced", "count", "higher"),
    layer("engine.served_incremental", "count", "higher"),
    layer("engine.shed", "count", "lower"),
    layer("engine.cache_evictions", "count", "lower"),
    layer("engine.subplan_published", "count", "lower"),
    layer("engine.subplan_renders_avoided", "count", "higher"),
    layer("engine.cache_hit_share", "share", "higher"),
    layer("engine.subplan_hit_share", "share", "higher"),
    layer("engine.incremental_share", "share", "higher"),
    layer("engine.dirty_tiles_per_refresh", "count", "lower"),
    layer("engine.over_100ms_share", "share", "lower"),
    layer("engine.cache_peak_mb", "MiB", "lower"),
    // core
    layer("core.fused_chain_ms", "ms", "lower"),
    layer("core.materialized_chain_ms", "ms", "lower"),
    layer("core.modeled_ms_per_step", "ms", "lower"),
    layer("core.append_ms_p50", "ms", "lower"),
    layer("core.patch_ms_p50", "ms", "lower"),
    layer("core.render_live_ms_p50", "ms", "lower"),
    // raster
    layer("raster.draw_points_ms", "ms", "lower"),
    layer("raster.draw_polygons_ms", "ms", "lower"),
    layer("raster.chain_points_ms", "ms", "lower"),
    layer("raster.patch_points_ms", "ms", "lower"),
    layer("raster.blend_ns_per_texel", "ns", "lower"),
    layer("raster.mask_ns_per_texel", "ns", "lower"),
    layer("raster.value_ns_per_texel", "ns", "lower"),
    layer("raster.scatter_ns_per_read", "ns", "lower"),
    layer("raster.passes_per_step", "count", "lower"),
    layer("raster.fragments_per_step", "count", "lower"),
    layer("raster.fullscreen_texels_per_step", "count", "lower"),
    layer("raster.blend_ops_per_step", "count", "lower"),
    layer("raster.scatter_writes_per_step", "count", "lower"),
    // executor
    layer("executor.dispatch_us", "us", "lower"),
    layer("executor.band_pass_us", "us", "lower"),
    layer("executor.calibrate_ms", "ms", "lower"),
    layer("executor.min_parallel_items", "count", "lower"),
    layer("executor.grants_per_step", "count", "lower"),
    layer("executor.contended_share", "share", "lower"),
    layer("executor.handovers", "count", "lower"),
    layer("executor.quantum_preemptions", "count", "lower"),
    layer("executor.gate_wait_us_per_query", "us", "lower"),
    // geom
    layer("geom.grid_build_ms", "ms", "lower"),
    layer("geom.grid_query_us", "us", "lower"),
    layer("geom.rtree_build_ms", "ms", "lower"),
    layer("geom.rtree_query_us", "us", "lower"),
    layer("geom.bvh_build_us", "us", "lower"),
    layer("geom.bvh_pip_ns", "ns", "lower"),
    layer("geom.polygon_pip_ns", "ns", "lower"),
    layer("geom.hull_ms", "ms", "lower"),
    // obs
    layer("obs.span_flight_ns", "ns", "lower"),
    layer("obs.span_disabled_ns", "ns", "lower"),
    layer("obs.spans_per_query", "count", "lower"),
    layer("obs.flight_recycled", "count", "lower"),
    layer("obs.flight_dropped", "count", "lower"),
    layer("obs.trace_overhead_share", "share", "lower"),
    // datagen, baseline
    layer("datagen.points_ms", "ms", "lower"),
    layer("datagen.trips_ms", "ms", "lower"),
    layer("baseline.select_ms", "ms", "lower"),
    layer("baseline.join_ms", "ms", "lower"),
    // harness
    layer("harness.self_us_per_step", "us", "lower"),
    layer("harness.lap_spread_share", "share", "lower"),
    layer("harness.unattributed_share", "share", "lower"),
];

/// Name of a per-class metric, e.g. `engine.execute_ms.knn`.
pub fn class_metric(prefix: &str, class: &str) -> String {
    format!("{prefix}.{class}")
}

/// Every per-layer metric as `(name, unit, better)`, per-class ones
/// first.
pub fn per_layer() -> Vec<(String, &'static str, &'static str)> {
    let mut out = Vec::with_capacity(2 * CLASSES.len() + PER_LAYER_FIXED.len());
    for prefix in ["engine.execute_ms", "core.eval_ms"] {
        for class in CLASSES {
            out.push((class_metric(prefix, class), "ms", "lower"));
        }
    }
    out.extend(
        PER_LAYER_FIXED
            .iter()
            .map(|m| (m.name.to_string(), m.unit, m.better)),
    );
    out
}

/// The driver's invocation prefix; it appends `--workload … --seed …
/// --seconds … --trace …`.
pub const COMMAND: [&str; 7] = [
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

/// `BENCHMARK.json` as a value.
pub fn benchmark_json() -> Json {
    let s = |v: &str| Json::Str(v.to_string());
    Json::Obj(vec![
        (
            "command".to_string(),
            Json::Arr(COMMAND.iter().map(|c| s(c)).collect()),
        ),
        ("paths".to_string(), Json::Arr(vec![s("benchmark")])),
        ("run_seconds".to_string(), Json::Num(RUN_SECONDS as f64)),
        (
            "workloads".to_string(),
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| {
                        Json::Obj(vec![
                            ("name".to_string(), s(w.name())),
                            ("why".to_string(), s(w.why())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end".to_string(),
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::Obj(vec![
                            ("name".to_string(), s(m.name)),
                            ("unit".to_string(), s(m.unit)),
                            ("better".to_string(), s(m.better)),
                            (
                                "bound".to_string(),
                                Json::Num(m.bound.expect("end-to-end metrics carry a bound")),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer".to_string(),
            Json::Arr(
                per_layer()
                    .into_iter()
                    .map(|(name, unit, better)| {
                        Json::Obj(vec![
                            ("name".to_string(), Json::Str(name)),
                            ("unit".to_string(), s(unit)),
                            ("better".to_string(), s(better)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// `BENCHMARK.json` as committed: one field per line for the small
/// lists, one metric per line for the long ones.
pub fn benchmark_json_text() -> String {
    let v = benchmark_json();
    let mut out = String::from("{\n");
    let fields = v.as_obj().expect("object");
    for (i, (key, value)) in fields.iter().enumerate() {
        out.push_str(&format!("  \"{key}\": "));
        match value {
            Json::Arr(items) if matches!(items.first(), Some(Json::Obj(_))) => {
                out.push_str("[\n");
                for (j, item) in items.iter().enumerate() {
                    out.push_str("    ");
                    out.push_str(&item.render());
                    out.push_str(if j + 1 < items.len() { ",\n" } else { "\n" });
                }
                out.push_str("  ]");
            }
            other => out.push_str(&other.render()),
        }
        out.push_str(if i + 1 < fields.len() { ",\n" } else { "\n" });
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<String> = WORKLOADS.iter().map(|w| w.name().to_string()).collect();
        names.extend(END_TO_END.iter().map(|m| m.name.to_string()));
        names.extend(per_layer().into_iter().map(|(n, _, _)| n));
        for n in &names {
            assert!(valid_name(n), "bad name {n}");
        }
        let total = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        assert!(per_layer().len() <= 128);
    }

    #[test]
    fn bounds_and_whys_fit_the_contract() {
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        for m in END_TO_END {
            let b = m.bound.unwrap();
            assert!(b > 0.0 && b <= 0.25);
            assert!(
                b <= setup.bound.unwrap(),
                "setup_s carries the largest bound"
            );
        }
        for w in WORKLOADS {
            assert!(
                w.why().len() <= 200 && !w.why().contains('\n'),
                "{}",
                w.name()
            );
            assert_eq!(WorkloadKind::from_name(w.name()), Some(w));
        }
    }

    #[test]
    fn committed_benchmark_json_is_this_spec() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            Json::parse(&committed).expect("valid JSON"),
            benchmark_json(),
            "regenerate with `canvas-benchmark spec > BENCHMARK.json`"
        );
        assert!(committed.len() <= 64 << 10);
    }
}
