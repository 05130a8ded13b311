//! One workload run: set-up, warm laps, timed laps, oracle, metrics.
//!
//! The rule that keeps runs comparable — found by measuring what made
//! the first attempt noisy — is: **a fixed seeded op list replayed in
//! laps, warm laps untimed, every end-to-end metric a median over timed
//! laps**.

use std::path::PathBuf;
use std::time::Instant;

use crate::digest::hex;
use crate::lap::LapOutcome;
use crate::layers;
use crate::spec::{WorkloadKind, END_TO_END, LAP_TARGET_SECONDS, WARM_LAPS};
use crate::stats::{median, percentile, samples_beyond};
use crate::workloads::{self, sample_units, Workload};

/// Responses the oracle verifies per workload, at least.
pub const ORACLE_RESPONSES: usize = 25;

#[derive(Clone, Debug)]
pub struct RunConfig {
    pub kind: WorkloadKind,
    pub seed: u64,
    pub warm_laps: usize,
    pub timed_laps: usize,
    pub smoke: bool,
    pub trace: bool,
    /// Flips one bit of one verified response's digest, so the oracle
    /// has something to catch (its own test).
    pub inject_mismatch: bool,
    /// Where the traced run writes `trace_<workload>.json`.
    pub out_dir: PathBuf,
    /// Taken at process start: `setup_s` counts from here.
    pub t_start: Instant,
}

impl RunConfig {
    /// The driver's shape: `--seconds` buys whole laps of the target
    /// length (never shorter laps), two warm laps before them.
    pub fn for_seconds(kind: WorkloadKind, seed: u64, seconds: u64, trace: bool) -> RunConfig {
        RunConfig {
            kind,
            seed,
            warm_laps: WARM_LAPS,
            timed_laps: (seconds / LAP_TARGET_SECONDS).max(1) as usize,
            smoke: false,
            trace,
            inject_mismatch: false,
            out_dir: PathBuf::from("benchmark/out"),
            t_start: Instant::now(),
        }
    }

    pub fn smoke(kind: WorkloadKind, seed: u64, trace: bool) -> RunConfig {
        RunConfig {
            warm_laps: 1,
            timed_laps: 2,
            smoke: true,
            ..RunConfig::for_seconds(kind, seed, 0, trace)
        }
    }
}

/// A metric as printed: name, value with all its digits, unit.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

#[derive(Clone, Debug)]
pub struct RunReport {
    pub kind: WorkloadKind,
    pub seed: u64,
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    pub op_list_digest: u128,
    pub result_digest: u128,
    /// Human-readable lines: lap table, digests, reconciliation.
    pub notes: Vec<String>,
}

/// Outcome of checking the laps against the sequential reference and
/// against each other.
pub struct Verdict {
    pub correct: bool,
    pub verified_responses: usize,
    pub notes: Vec<String>,
}

/// The output oracle. A seeded sample of units (≥ 25 responses) is
/// evaluated sequentially on `Device::cpu()` and compared, digest by
/// digest over every word, with what each lap was served; every unit of
/// every lap must also equal the first lap's. A unit that differs marks
/// its steps failed and the workload incorrect.
pub fn verify(w: &dyn Workload, laps: &mut [LapOutcome], seed: u64, inject: bool) -> Verdict {
    let mut notes = Vec::new();
    let mut correct = true;
    let units = w.units();
    let per_unit = laps
        .first()
        .and_then(|l| l.digests.first())
        .map_or(1, Vec::len);
    let sample = sample_units(seed, w.kind(), units, per_unit, ORACLE_RESPONSES);
    if inject {
        if let (Some(&u), Some(last)) = (sample.first(), laps.last_mut()) {
            last.digests[u][0] ^= 1;
            notes.push(format!("injected a one-bit mismatch into unit {u}"));
        }
    }
    let mut verified = 0;
    for &u in &sample {
        let want = w.reference(u);
        verified += want.len();
        for (li, lap) in laps.iter_mut().enumerate() {
            if lap.digests[u] != want {
                correct = false;
                w.fail_unit(lap, u);
                notes.push(format!(
                    "oracle: lap {li} unit {u} differs from the sequential Device::cpu() evaluation"
                ));
            }
        }
    }
    let (first, rest) = laps.split_first_mut().expect("at least one lap");
    for (li, lap) in rest.iter_mut().enumerate() {
        for u in 0..units {
            if lap.digests[u] != first.digests[u] {
                correct = false;
                w.fail_unit(lap, u);
                notes.push(format!("lap {} unit {u} differs from lap 0", li + 1));
            }
        }
    }
    Verdict {
        correct,
        verified_responses: verified,
        notes,
    }
}

/// Step times of a lap in milliseconds, failed steps charged the lap's
/// slowest step so they stay in every percentile.
fn charged_step_ms(lap: &LapOutcome) -> Vec<f64> {
    let slowest = lap.step_ns.iter().copied().max().unwrap_or(0);
    lap.step_ns
        .iter()
        .zip(&lap.failed)
        .map(|(&ns, &failed)| if failed { slowest } else { ns } as f64 / 1e6)
        .collect()
}

/// `(max − min) ÷ median` of lap walls: is this run trustworthy?
pub fn lap_spread_share(laps: &[LapOutcome]) -> f64 {
    let walls: Vec<f64> = laps.iter().map(|l| l.wall_s).collect();
    let med = median(&walls);
    if med == 0.0 {
        return 0.0;
    }
    let max = walls.iter().copied().fold(f64::MIN, f64::max);
    let min = walls.iter().copied().fold(f64::MAX, f64::min);
    (max - min) / med
}

/// Runs one workload as configured and reports it.
pub fn run(cfg: &RunConfig) -> RunReport {
    let w = workloads::build(cfg.kind, cfg.seed, cfg.smoke);
    if cfg.trace {
        return layers::traced_run(cfg, w.as_ref());
    }
    let mut notes = Vec::new();
    let mut laps: Vec<LapOutcome> = Vec::with_capacity(cfg.warm_laps + cfg.timed_laps);
    for _ in 0..cfg.warm_laps {
        laps.push(w.lap(None));
    }
    // Everything before the first timed lap is set-up: data generation,
    // table and index builds, engine construction, the warm laps.
    let setup_s = cfg.t_start.elapsed().as_secs_f64();
    let cpu0 = crate::stats::process_cpu_seconds();
    for _ in 0..cfg.timed_laps {
        laps.push(w.lap(None));
    }
    let cpu_s = crate::stats::process_cpu_seconds() - cpu0;
    // Read before the oracle allocates its references.
    let peak_rss_mb = crate::stats::peak_rss_mib();

    let verdict = verify(w.as_ref(), &mut laps, cfg.seed, cfg.inject_mismatch);
    notes.extend(verdict.notes.iter().cloned());
    let timed = &laps[cfg.warm_laps..];
    let mut correct = verdict.correct;
    for (li, lap) in timed.iter().enumerate() {
        for v in w.violations(lap) {
            correct = false;
            notes.push(format!("timed lap {li}: {v}"));
        }
    }

    let steps = w.steps_per_lap();
    let attempted = steps * timed.len();
    let failed: usize = timed
        .iter()
        .map(|l| l.failed.iter().filter(|&&f| f).count())
        .sum();
    let per_lap: Vec<(f64, f64, f64)> = timed
        .iter()
        .map(|lap| {
            let ms = charged_step_ms(lap);
            (
                lap.steps() as f64 / lap.wall_s,
                percentile(&ms, 50.0),
                percentile(&ms, 90.0),
            )
        })
        .collect();
    let col = |f: fn(&(f64, f64, f64)) -> f64| per_lap.iter().map(f).collect::<Vec<f64>>();
    let values = [
        ("setup_s", setup_s),
        ("steps_per_s", median(&col(|l| l.0))),
        ("step_p50_ms", median(&col(|l| l.1))),
        ("step_p90_ms", median(&col(|l| l.2))),
        ("cpu_ms_per_step", cpu_s * 1e3 / attempted.max(1) as f64),
        ("peak_rss_mb", peak_rss_mb),
    ];
    let metrics = END_TO_END
        .iter()
        .map(|spec| Metric {
            name: spec.name.to_string(),
            value: values
                .iter()
                .find(|(n, _)| *n == spec.name)
                .expect("every end-to-end metric is computed")
                .1,
            unit: spec.unit,
        })
        .collect();

    notes.push(format!(
        "laps: {} warm + {} timed of {} steps ({} client{}), lap walls {} (with harness work {}; lap set-up {})",
        cfg.warm_laps,
        timed.len(),
        steps,
        w.clients(),
        if w.clients() == 1 { "" } else { "s" },
        laps.iter()
            .map(|l| format!("{:.3}", l.wall_s))
            .collect::<Vec<_>>()
            .join(" "),
        laps.iter()
            .map(|l| format!("{:.3}", l.total_s))
            .collect::<Vec<_>>()
            .join(" "),
        laps.iter()
            .map(|l| format!("{:.3}", l.setup_s))
            .collect::<Vec<_>>()
            .join(" "),
    ));
    notes.push(format!(
        "step_p90_ms: {} pooled samples, {} beyond p90",
        attempted,
        samples_beyond(steps, 90.0) * timed.len()
    ));
    notes.push(format!(
        "harness.lap_spread_share {:.4} (timed laps)",
        lap_spread_share(timed)
    ));
    notes.push(format!(
        "oracle: {} responses verified against Device::cpu(), {} laps agree: {}",
        verdict.verified_responses,
        laps.len(),
        verdict.correct
    ));
    RunReport {
        kind: cfg.kind,
        seed: cfg.seed,
        correct,
        attempted,
        failed,
        metrics,
        op_list_digest: w.op_list_digest(),
        result_digest: laps.last().map_or(0, LapOutcome::result_digest),
        notes,
    }
}

impl RunReport {
    /// The lines a person reads, then (last) the one JSON object the
    /// driver reads.
    pub fn print(&self) {
        println!(
            "# {} seed {} op_list_digest {} result_digest {}",
            self.kind.name(),
            self.seed,
            hex(self.op_list_digest),
            hex(self.result_digest)
        );
        for n in &self.notes {
            println!("# {n}");
        }
        for m in &self.metrics {
            println!("{} {} {} {}", self.kind.name(), m.name, m.value, m.unit);
        }
        println!(
            "# {}: attempted {} failed {} correct {}",
            self.kind.name(),
            self.attempted,
            self.failed,
            self.correct
        );
        println!("{}", self.to_json().render());
    }

    pub fn to_json(&self) -> crate::json::Json {
        use crate::json::Json;
        Json::Obj(vec![
            ("correct".to_string(), Json::Bool(self.correct)),
            ("attempted".to_string(), Json::Num(self.attempted as f64)),
            ("failed".to_string(), Json::Num(self.failed as f64)),
            (
                "metrics".to_string(),
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|m| {
                            (
                                m.name.clone(),
                                Json::Obj(vec![
                                    ("value".to_string(), Json::Num(m.value)),
                                    ("unit".to_string(), Json::Str(m.unit.to_string())),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
    }
}
