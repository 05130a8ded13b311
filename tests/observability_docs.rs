//! docs/OBSERVABILITY.md stays honest about the spans the code emits:
//! every string literal passed as the name to `span(` or
//! `span_with_query(` in a crate's `src` tree (test modules excluded)
//! must appear in the doc's span table.

use std::collections::HashSet;
use std::fs;
use std::path::{Path, PathBuf};

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

/// The literal span names in `src` before its first `#[cfg(test)]`.
fn span_names(src: &str) -> Vec<String> {
    let code = src.split("#[cfg(test)]").next().unwrap_or_default();
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

/// Every backticked name in the first column of the "Span taxonomy"
/// table.
fn documented_spans(doc: &str) -> HashSet<String> {
    let section = doc
        .split("## Span taxonomy")
        .nth(1)
        .expect("OBSERVABILITY.md has a span taxonomy section");
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
    let doc = fs::read_to_string(root.join("docs/OBSERVABILITY.md")).expect("read doc");
    let documented = documented_spans(&doc);
    let mut files = Vec::new();
    for krate in fs::read_dir(root.join("crates")).expect("crates dir") {
        let src = krate.expect("crate entry").path().join("src");
        if src.is_dir() {
            rust_files(&src, &mut files);
        }
    }
    let mut emitted = HashSet::new();
    let mut undocumented = Vec::new();
    for file in &files {
        let src = fs::read_to_string(file).expect("read source");
        for name in span_names(&src) {
            if !documented.contains(&name) {
                undocumented.push(format!(
                    "{name} ({})",
                    file.strip_prefix(root).unwrap_or(file).display()
                ));
            }
            emitted.insert(name);
        }
    }
    // The scan must see the engine's stations, or it proves nothing.
    for station in ["execute", "prepare", "cache_probe", "eval"] {
        assert!(emitted.contains(station), "scanner missed `{station}`");
    }
    assert!(
        undocumented.is_empty(),
        "span names missing from docs/OBSERVABILITY.md's span table: {undocumented:?}"
    );
}
