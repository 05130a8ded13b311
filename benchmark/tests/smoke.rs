//! Runs the binary's `--smoke` mode and checks that every name in
//! `BENCHMARK.json` — and no other — is printed for every workload.

use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;

use canvas_benchmark::json::Json;

fn names(spec: &Json, key: &str) -> Vec<String> {
    spec.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"))
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

#[test]
fn smoke_prints_every_benchmark_json_name_and_no_other() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let spec = Json::parse(&std::fs::read_to_string(root.join("BENCHMARK.json")).unwrap()).unwrap();
    let workloads = names(&spec, "workloads");
    let mut expected: BTreeSet<String> = BTreeSet::new();
    expected.extend(names(&spec, "end_to_end"));
    expected.extend(names(&spec, "per_layer"));

    let out = Command::new(env!("CARGO_BIN_EXE_canvas-benchmark"))
        .args(["--smoke", "--out"])
        .arg(Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke-out"))
        .output()
        .expect("the benchmark binary runs");
    assert!(
        out.status.success(),
        "--smoke failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();

    // Metric lines read `<workload> <name> <value> <unit>`.
    let mut seen: BTreeSet<(String, String)> = BTreeSet::new();
    let mut results = 0;
    for line in stdout.lines() {
        if line.starts_with('#') {
            continue;
        }
        if line.starts_with('{') {
            let v = Json::parse(line).expect("result lines are JSON");
            let keys: Vec<&str> = v
                .as_obj()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(v.get("correct").unwrap().as_bool(), Some(true));
            assert!(v.get("attempted").unwrap().as_f64().unwrap() >= 1.0);
            results += 1;
            continue;
        }
        let f: Vec<&str> = line.split_whitespace().collect();
        assert_eq!(f.len(), 4, "metric line {line:?}");
        assert!(
            workloads.iter().any(|w| w == f[0]),
            "unknown workload in {line:?}"
        );
        assert!(well_formed(f[1]), "name {:?} is not [A-Za-z0-9_.-]+", f[1]);
        assert!(expected.contains(f[1]), "extra metric {:?}", f[1]);
        let value: f64 = f[2].parse().unwrap_or_else(|_| panic!("value in {line:?}"));
        assert!(value.is_finite(), "{line:?}");
        assert!(
            seen.insert((f[0].to_string(), f[1].to_string())),
            "{} printed twice for {}",
            f[1],
            f[0]
        );
    }
    assert_eq!(
        results,
        2 * workloads.len(),
        "one untraced and one traced run each"
    );
    for w in &workloads {
        for name in &expected {
            assert!(
                seen.contains(&(w.clone(), name.clone())),
                "missing metric {name} for {w}"
            );
        }
    }
    assert!(Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join("smoke-out")
        .join("trace_explore_cold.json")
        .exists());
}

#[test]
fn an_incorrect_workload_exits_non_zero() {
    let status = Command::new(env!("CARGO_BIN_EXE_canvas-benchmark"))
        .args([
            "--smoke",
            "--workload",
            "live_ingest",
            "--trace",
            "0",
            "--inject-mismatch",
        ])
        .output()
        .expect("the benchmark binary runs")
        .status;
    assert_eq!(status.code(), Some(1));
}
