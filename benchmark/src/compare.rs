//! The A/A self-check: sets of runs of the same code, compared by the
//! rule the driver applies (and section 8 of the `choosing-metrics`
//! guide): per (workload, metric) the median and quartiles of each set,
//! the spread — quartile distance as a share of the median — and the
//! bound. Two sets of the same code must agree within the bound.

use std::fmt::Write as _;
use std::path::Path;
use std::process::{Command, Stdio};

use crate::json::Json;
use crate::spec::{END_TO_END, WORKLOADS};
use crate::stats::{median, quartiles, spread_share};

/// One run's end-to-end metrics.
#[derive(Clone, Debug)]
pub struct RunRecord {
    pub workload: String,
    pub seed: u64,
    pub correct: bool,
    pub metrics: Vec<(String, f64)>,
}

impl RunRecord {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("workload".to_string(), Json::Str(self.workload.clone())),
            ("seed".to_string(), Json::Num(self.seed as f64)),
            ("correct".to_string(), Json::Bool(self.correct)),
            (
                "metrics".to_string(),
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Num(*v)))
                        .collect(),
                ),
            ),
        ])
    }

    fn from_json(v: &Json) -> Option<RunRecord> {
        Some(RunRecord {
            workload: v.get("workload")?.as_str()?.to_string(),
            seed: v.get("seed")?.as_f64()? as u64,
            correct: v.get("correct")?.as_bool()?,
            metrics: metrics_of(v)?,
        })
    }
}

/// The `metrics` object of a run: values are either bare numbers (set
/// files) or the run output's `{"value": …, "unit": …}`.
fn metrics_of(run: &Json) -> Option<Vec<(String, f64)>> {
    Some(
        run.get("metrics")?
            .as_obj()?
            .iter()
            .filter_map(|(k, m)| {
                m.as_f64()
                    .or_else(|| m.get("value").and_then(Json::as_f64))
                    .map(|x| (k.clone(), x))
            })
            .collect(),
    )
}

/// Reads a set file: a JSON array of run records.
pub fn load_set(path: &Path) -> Result<Vec<RunRecord>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let v = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    v.as_arr()
        .ok_or_else(|| format!("{}: expected an array of runs", path.display()))?
        .iter()
        .map(|r| {
            RunRecord::from_json(r).ok_or_else(|| format!("{}: malformed run", path.display()))
        })
        .collect()
}

pub fn save_set(path: &Path, set: &[RunRecord]) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let mut text = String::from("[\n");
    for (i, r) in set.iter().enumerate() {
        text.push_str("  ");
        text.push_str(&r.to_json().render());
        text.push_str(if i + 1 < set.len() { ",\n" } else { "\n" });
    }
    text.push_str("]\n");
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// One (workload, metric) row of a comparison.
#[derive(Clone, Debug)]
pub struct Row {
    pub workload: String,
    pub metric: &'static str,
    pub unit: &'static str,
    pub runs: (usize, usize),
    pub median: (f64, f64),
    pub quartiles: ((f64, f64), (f64, f64)),
    pub spread: (f64, f64),
    pub bound: f64,
    /// How much worse B's median is than A's, as a share of A's
    /// (negative: better).
    pub worse: f64,
    pub verdict: &'static str,
}

/// Compares two sets metric by metric. `differ`: the medians are
/// further apart than the bound, either way (the sets are the same
/// code, so neither side is "the change"). `unresolved`: a set's own
/// spread exceeds the bound, so the row cannot say anything.
pub fn compare_sets(a: &[RunRecord], b: &[RunRecord]) -> Vec<Row> {
    let mut rows = Vec::new();
    for w in WORKLOADS {
        for spec in END_TO_END {
            let col = |set: &[RunRecord]| -> Vec<f64> {
                set.iter()
                    .filter(|r| r.workload == w.name())
                    .filter_map(|r| r.metrics.iter().find(|(k, _)| k == spec.name).map(|m| m.1))
                    .collect()
            };
            let (va, vb) = (col(a), col(b));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let bound = spec.bound.expect("end-to-end metrics carry a bound");
            let (ma, mb) = (median(&va), median(&vb));
            let sign = if spec.better == "lower" { 1.0 } else { -1.0 };
            let worse = if ma == 0.0 {
                0.0
            } else {
                sign * (mb - ma) / ma
            };
            let (qa, qb) = (quartiles(&va), quartiles(&vb));
            let spread = (spread_share(&va), spread_share(&vb));
            // `setup_s` is one reading per run of a window holding the
            // slow first laps; like the driver, only its medians count.
            let unresolved = spec.name != "setup_s" && (spread.0 > bound || spread.1 > bound);
            let verdict = if worse.abs() > bound {
                "differ"
            } else if unresolved {
                "unresolved"
            } else {
                "agree"
            };
            rows.push(Row {
                workload: w.name().to_string(),
                metric: spec.name,
                unit: spec.unit,
                runs: (va.len(), vb.len()),
                median: (ma, mb),
                quartiles: ((qa.0, qa.2), (qb.0, qb.2)),
                spread,
                bound,
                worse,
                verdict,
            });
        }
    }
    rows
}

/// True when no row differs and none is unresolved.
pub fn agrees(rows: &[Row]) -> bool {
    !rows.is_empty() && rows.iter().all(|r| r.verdict == "agree")
}

/// The comparison as a Markdown table.
pub fn render(rows: &[Row]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "| workload | metric | unit | median A | q1–q3 A | spread A | median B | q1–q3 B | spread B | B worse by | bound | verdict |"
    );
    let _ = writeln!(out, "|---|---|---|---|---|---|---|---|---|---|---|---|");
    for r in rows {
        let _ = writeln!(
            out,
            "| {} | {} | {} | {:.4} | {:.4}–{:.4} | {:.2} % | {:.4} | {:.4}–{:.4} | {:.2} % | {:+.2} % | {:.0} % | {} |",
            r.workload,
            r.metric,
            r.unit,
            r.median.0,
            r.quartiles.0 .0,
            r.quartiles.0 .1,
            r.spread.0 * 100.0,
            r.median.1,
            r.quartiles.1 .0,
            r.quartiles.1 .1,
            r.spread.1 * 100.0,
            r.worse * 100.0,
            r.bound * 100.0,
            r.verdict,
        );
    }
    out
}

/// Runs one workload in a child process of this same binary and parses
/// the result line.
fn child_run(workload: &str, seed: u64, seconds: u64) -> Result<RunRecord, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", "0"])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{workload} seed {seed}: no output"))?;
    let v = Json::parse(last).map_err(|e| format!("{workload} seed {seed}: {e}"))?;
    Ok(RunRecord {
        workload: workload.to_string(),
        seed,
        correct: out.status.success() && v.get("correct").and_then(Json::as_bool) == Some(true),
        metrics: metrics_of(&v)
            .ok_or_else(|| format!("{workload} seed {seed}: malformed result"))?,
    })
}

/// `--sets N`: N sets of `runs` runs per workload, every run a process
/// of its own with a seed of its own, written to `out/set_<k>.json`;
/// then set 0 against every other set. True when all agree.
pub fn run_sets(
    sets: usize,
    runs: usize,
    seconds: u64,
    seed: u64,
    out: &Path,
) -> Result<bool, String> {
    let mut all = Vec::with_capacity(sets);
    for k in 0..sets {
        let mut set = Vec::new();
        for w in WORKLOADS {
            for r in 0..runs {
                let s = seed + (k * runs + r) as u64;
                let rec = child_run(w.name(), s, seconds)?;
                eprintln!(
                    "set {k} {} seed {s}: {}",
                    w.name(),
                    rec.metrics
                        .iter()
                        .map(|(n, v)| format!("{n} {v:.4}"))
                        .collect::<Vec<_>>()
                        .join(", ")
                );
                if !rec.correct {
                    return Err(format!("{} seed {s} was incorrect", w.name()));
                }
                set.push(rec);
            }
        }
        save_set(&out.join(format!("set_{k}.json")), &set)?;
        all.push(set);
    }
    let mut ok = true;
    for (k, set) in all.iter().enumerate().skip(1) {
        let rows = compare_sets(&all[0], set);
        println!("### set 0 (A) against set {k} (B), {runs} runs per workload\n");
        print!("{}", render(&rows));
        println!();
        ok &= agrees(&rows);
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(workload: &str, metric: &str, values: &[f64]) -> Vec<RunRecord> {
        values
            .iter()
            .enumerate()
            .map(|(i, &v)| RunRecord {
                workload: workload.to_string(),
                seed: i as u64,
                correct: true,
                metrics: vec![(metric.to_string(), v)],
            })
            .collect()
    }

    #[test]
    fn equal_sets_agree_and_shifted_sets_differ() {
        let a = set(
            "explore_cold",
            "steps_per_s",
            &[10.0, 10.1, 9.9, 10.05, 9.95],
        );
        let b = set(
            "explore_cold",
            "steps_per_s",
            &[10.02, 10.0, 9.97, 10.1, 9.9],
        );
        let rows = compare_sets(&a, &b);
        assert_eq!(rows.len(), 1);
        assert!(agrees(&rows), "{rows:?}");
        // Throughput down 30 % is worse by more than the 25 % bound.
        let slow = set("explore_cold", "steps_per_s", &[7.0, 7.1, 6.9, 7.05, 6.95]);
        let rows = compare_sets(&a, &slow);
        assert_eq!(rows[0].verdict, "differ");
        assert!(rows[0].worse > 0.25);
        assert!(!agrees(&rows));
    }

    #[test]
    fn a_wide_set_is_unresolved_not_agreeing() {
        let a = set(
            "live_ingest",
            "step_p50_ms",
            &[30.0, 36.0, 25.0, 33.0, 28.0],
        );
        let rows = compare_sets(&a, &a);
        assert_eq!(rows[0].verdict, "unresolved");
        assert!(!agrees(&rows));
    }

    #[test]
    fn set_files_round_trip() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-compare-{}", std::process::id()));
        let path = dir.join("set.json");
        let a = set("analytics_batch", "peak_rss_mb", &[400.5, 401.25]);
        save_set(&path, &a).unwrap();
        let back = load_set(&path).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back[1].metrics[0], ("peak_rss_mb".to_string(), 401.25));
        std::fs::remove_dir_all(dir).unwrap();
    }
}
