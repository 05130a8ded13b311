//! docs/OBSERVABILITY.md stays honest about what the code emits, in
//! both directions:
//!
//! * the span table ↔ every string literal passed as the name to
//!   `span(` or `span_with_query(` in a crate's `src` tree (test
//!   modules excluded);
//! * the metrics table ↔ every counter and histogram
//!   `QueryEngine::metrics_json()` exports.

use canvas_algebra::datagen::trip_feed;
use canvas_algebra::engine::{Query, QueryEngine, Served};
use canvas_algebra::prelude::*;
use std::collections::HashSet;
use std::fs;
use std::path::{Path, PathBuf};

/// The span-table rows whose names the code computes rather than
/// spells out: algebra nodes, named by their `Expr` variant…
const ALGEBRA_NODE_ROWS: [&str; 4] = ["source", "blend", "mask", "value_transform"];
/// …and fused-chain operators, named by their algebra label.
const FUSED_OP_ROWS: [&str; 3] = ["V[f]", "B[⊙]", "M[M]"];

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).expect("readable source dir") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// The literal span names in `code`.
fn span_names(code: &str) -> Vec<String> {
    let mut names = Vec::new();
    for call in ["span(", "span_with_query("] {
        for (at, _) in code.match_indices(call) {
            // `draw_span(` and friends are other functions.
            let prev = code[..at].chars().next_back();
            if prev.is_some_and(|c| c.is_alphanumeric() || c == '_') {
                continue;
            }
            let Some(lit) = code[at + call.len()..].trim_start().strip_prefix('"') else {
                continue;
            };
            let end = lit.find('"').expect("closed string literal");
            names.push(lit[..end].to_string());
        }
    }
    names
}

fn doc() -> String {
    fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("docs/OBSERVABILITY.md"))
        .expect("read doc")
}

/// Every backticked name in the first column of the tables under the
/// doc's `## {heading}` section.
fn table_names(doc: &str, heading: &str) -> HashSet<String> {
    let section = doc
        .split(&format!("\n## {heading}\n"))
        .nth(1)
        .unwrap_or_else(|| panic!("OBSERVABILITY.md has a {heading} section"));
    let section = section.split("\n## ").next().unwrap_or_default();
    section
        .lines()
        .filter(|line| line.starts_with('|'))
        .filter_map(|line| line.split('|').nth(1))
        .flat_map(|cell| cell.split('`').skip(1).step_by(2).map(str::to_string))
        .collect()
}

#[test]
fn every_emitted_span_name_is_in_the_span_table() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let documented = table_names(&doc(), "Span taxonomy");
    let mut files = Vec::new();
    for krate in fs::read_dir(root.join("crates")).expect("crates dir") {
        let src = krate.expect("crate entry").path().join("src");
        if src.is_dir() {
            rust_files(&src, &mut files);
        }
    }
    let mut emitted = HashSet::new();
    let mut undocumented = Vec::new();
    let mut code = String::new();
    for file in &files {
        let src = fs::read_to_string(file).expect("read source");
        let src = src.split("#[cfg(test)]").next().unwrap_or_default();
        for name in span_names(src) {
            if !documented.contains(&name) {
                undocumented.push(format!(
                    "{name} ({})",
                    file.strip_prefix(root).unwrap_or(file).display()
                ));
            }
            emitted.insert(name);
        }
        code.push_str(src);
    }
    // The scan must see the engine's stations, or it proves nothing.
    for station in ["execute", "prepare", "cache_probe", "eval"] {
        assert!(emitted.contains(station), "scanner missed `{station}`");
    }
    assert!(
        undocumented.is_empty(),
        "span names missing from docs/OBSERVABILITY.md's span table: {undocumented:?}"
    );
    // The reverse direction: no stale rows. A row is either a computed
    // name or spelled as a string literal somewhere in the crates.
    let stale: Vec<&String> = documented
        .iter()
        .filter(|name| !ALGEBRA_NODE_ROWS.contains(&name.as_str()))
        .filter(|name| !FUSED_OP_ROWS.contains(&name.as_str()))
        .filter(|name| !code.contains(&format!("\"{name}\"")))
        .collect();
    assert!(stale.is_empty(), "span table rows nothing emits: {stale:?}");
}

/// An engine that has served a computed query, a cache hit and an
/// incremental refresh exports exactly the metrics table's names; the
/// `service_ns_<class>` row stands for every per-class histogram.
#[test]
fn metrics_table_matches_the_exported_registry() {
    let extent = BBox::new(Point::new(0.0, 0.0), Point::new(100.0, 100.0));
    let engine = QueryEngine::new(2);
    let feed = trip_feed(&extent, 400, 2, 7);
    let table = VersionedTable::new("docs", extent, feed.batch(0));
    let vp = Viewport::new(extent, 32, 32);
    let serve = || {
        let q = Query::LiveHeatmap {
            snapshot: table.snapshot(),
        };
        engine.execute(&q, vp).expect("served").served
    };
    assert_eq!([serve(), serve()], [Served::Computed, Served::CacheHit]);
    engine.ingest_append(&table, &feed.batch(1));
    assert_eq!(serve(), Served::Incremental);

    // Counter and histogram entries follow the metadata section, one
    // `    "name": …` line each.
    let json = engine.metrics_json();
    let registry = json.split("\"counters\": {").nth(1).expect("counters");
    let as_row = |name: &str| match name.strip_prefix("service_ns_") {
        Some(_) => "service_ns_<class>".to_string(),
        None => name.to_string(),
    };
    let exported: HashSet<String> = registry
        .lines()
        .filter_map(|line| line.strip_prefix("    \"")?.split('"').next())
        .map(as_row)
        .collect();
    // Left: exported by the registry; right: the metrics table's rows.
    assert_eq!(exported, table_names(&doc(), "Metrics"));
}
