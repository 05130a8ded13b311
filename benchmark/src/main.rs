//! `canvas-benchmark` — the repo's benchmark.
//!
//! ```text
//! canvas-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! canvas-benchmark --smoke [--workload <name>] [--trace <0|1>] [--seed <n>]
//! canvas-benchmark --sets <N> [--runs <R>] [--seconds <s>] [--out <dir>]
//! canvas-benchmark compare <A.json> <B.json>
//! canvas-benchmark spec
//! ```
//!
//! The first form is what `BENCHMARK.json`'s command runs: one workload,
//! one process, the last line of standard output one JSON object.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use canvas_benchmark::compare;
use canvas_benchmark::run::{run, RunConfig};
use canvas_benchmark::spec::{self, WorkloadKind, WORKLOADS};

const USAGE: &str = "usage:
  canvas-benchmark --workload <explore_cold|dashboard_revisit|analytics_batch|live_ingest> --seed <n> --seconds <s> --trace <0|1>
  canvas-benchmark --smoke [--workload <name>] [--trace <0|1>] [--seed <n>]
                                                 every metric of every workload on small data, under 30 s
  canvas-benchmark --sets <N> [--runs <R>] [--seconds <s>] [--out <dir>]   A/A self-check over N sets of R runs per workload
  canvas-benchmark compare <A.json> <B.json>     per (workload, metric): medians, quartiles, spread, bound
  canvas-benchmark spec                          print BENCHMARK.json";

struct Args(Vec<String>);

impl Args {
    fn flag(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }

    fn value(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .position(|a| a == name)
            .and_then(|i| self.0.get(i + 1))
            .map(String::as_str)
    }

    fn number(&self, name: &str, default: u64) -> Result<u64, String> {
        match self.value(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("{name} takes a whole number, got {v:?}")),
        }
    }
}

fn real_main(t_start: Instant) -> Result<bool, String> {
    let args = Args(std::env::args().skip(1).collect());
    match args.0.first().map(String::as_str) {
        Some("spec") => {
            print!("{}", spec::benchmark_json_text());
            return Ok(true);
        }
        Some("compare") => {
            let (a, b) = match (args.0.get(1), args.0.get(2)) {
                (Some(a), Some(b)) => (a, b),
                _ => return Err("compare takes two result files".to_string()),
            };
            let a = compare::load_set(&PathBuf::from(a))?;
            let b = compare::load_set(&PathBuf::from(b))?;
            let table = compare::compare_sets(&a, &b);
            print!("{}", compare::render(&table));
            return Ok(compare::agrees(&table));
        }
        _ => {}
    }
    let seed = args.number("--seed", 1)?;
    if args.flag("--sets") {
        let sets = args.number("--sets", 2)? as usize;
        let runs = args.number("--runs", 10)? as usize;
        let seconds = args.number("--seconds", spec::RUN_SECONDS)?;
        let out = PathBuf::from(args.value("--out").unwrap_or("benchmark/out"));
        return compare::run_sets(sets, runs, seconds, seed, &out);
    }
    let inject = args.flag("--inject-mismatch");
    let out_dir = args.value("--out").map(PathBuf::from);
    if args.flag("--smoke") {
        // Every metric of every workload (or of the one named), in one
        // process: an untraced run for the end-to-end metrics, a traced
        // one for the layers.
        let kinds = match args.value("--workload") {
            Some(name) => vec![WorkloadKind::from_name(name)
                .ok_or_else(|| format!("unknown workload {name:?}"))?],
            None => WORKLOADS.to_vec(),
        };
        let traces = match args.value("--trace") {
            Some(_) => vec![args.number("--trace", 0)? != 0],
            None => vec![false, true],
        };
        let mut ok = true;
        for kind in kinds {
            for &trace in &traces {
                let mut cfg = RunConfig::smoke(kind, seed, trace);
                cfg.inject_mismatch = inject;
                if let Some(dir) = &out_dir {
                    cfg.out_dir = dir.clone();
                }
                let report = run(&cfg);
                report.print();
                ok &= report.correct;
            }
        }
        return Ok(ok);
    }
    let name = args.value("--workload").ok_or_else(|| USAGE.to_string())?;
    let kind = WorkloadKind::from_name(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let seconds = args.number("--seconds", spec::RUN_SECONDS)?;
    let trace = args.number("--trace", 0)? != 0;
    let mut cfg = RunConfig::for_seconds(kind, seed, seconds, trace);
    cfg.t_start = t_start;
    cfg.inject_mismatch = inject;
    if let Some(dir) = out_dir {
        cfg.out_dir = dir;
    }
    let report = run(&cfg);
    report.print();
    Ok(report.correct)
}

/// Pins glibc's allocator so big buffers are recycled inside the
/// process instead of being mapped and unmapped again.
///
/// Every step allocates and frees canvases of 3–20 MiB. glibc serves
/// such blocks with `mmap` until its *dynamic* threshold has crept past
/// their size, and which blocks get there first differs from process to
/// process; each mapped block costs thousands of page faults and an
/// unmap. Measured on four same-seed `live_ingest` runs: `step_p50_ms`
/// 27.7–34.6 as shipped, 20.1–21.3 pinned — and the slow first laps of
/// a fresh process were this threshold creeping up. Pinning it (32 MiB
/// is the most glibc accepts) and switching trimming off takes the
/// lottery out; what the engine itself does is untouched.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn pin_allocator() {
    use std::ffi::c_int;
    extern "C" {
        fn mallopt(param: c_int, value: c_int) -> c_int;
    }
    const M_TRIM_THRESHOLD: c_int = -1;
    const M_MMAP_THRESHOLD: c_int = -3;
    // SAFETY: `mallopt` is glibc's documented tuning call; it takes two
    // plain integers, is called once before any other thread exists,
    // and an unsupported value only makes it return 0.
    unsafe {
        mallopt(M_MMAP_THRESHOLD, 32 << 20);
        mallopt(M_TRIM_THRESHOLD, 1 << 30);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn pin_allocator() {}

fn main() -> ExitCode {
    let t_start = Instant::now();
    pin_allocator();
    match real_main(t_start) {
        Ok(true) => ExitCode::SUCCESS,
        // An incorrect workload (or two sets that disagree) is a failed
        // command: the result is printed, the exit code says no.
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}
