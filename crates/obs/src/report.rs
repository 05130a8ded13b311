//! `ExecReport`: structured EXPLAIN / EXPLAIN ANALYZE for one query.
//!
//! A report is the *join* of two views of a query:
//!
//! * the **plan skeleton** — one [`NodeReport`] row per plan node
//!   (pre-order ids, operator labels, per-subtree structural
//!   fingerprints), which the engine derives from the normalized plan
//!   (`Prepared::explain()`; promoted query classes get a single
//!   descriptor row). Alone, this is EXPLAIN: `measured == false`.
//! * the **span tree** — the query's recorded spans (from the
//!   [`flight`](crate::flight) rings or a tracing capture), folded
//!   into the skeleton by [`ExecReport::measure`]: per-node exclusive
//!   wall time (node spans carry a `node` id argument stamped by the
//!   evaluator), executor pass counts and streamed-tile counts
//!   attributed to their nearest enclosing plan node, bytes produced,
//!   and per-node *provenance* (rendered here vs shared-subplan cache
//!   hit), plus the engine-station timings (queue wait, gate wait,
//!   eval). This is EXPLAIN ANALYZE.
//!
//! Reports render as JSON ([`ExecReport::to_json`], machine-checkable
//! — CI validates one) and as an aligned text tree
//! ([`ExecReport::to_text`], the human form printed by
//! `examples/serve_traced.rs`).
//!
//! The type is deliberately plain (strings + integers): `canvas-obs`
//! sits below every other crate, so the engine describes plans *into*
//! it rather than this crate depending on the algebra.

use std::collections::HashMap;

use crate::metrics::json_string;
use crate::trace::{ArgValue, SpanRecord};

/// One plan-node row of an [`ExecReport`] (see module docs).
#[derive(Clone, Debug, Default)]
pub struct NodeReport {
    /// Pre-order node id within the normalized plan (0 = root). The
    /// evaluator stamps the same ids onto its spans — this is the join
    /// key.
    pub node: u64,
    /// Distance from the plan root (indentation in the text tree).
    pub depth: usize,
    /// Operator label (`B[⊙]`, `Mp'…`, `C_P[…]`, or the promoted
    /// class name).
    pub label: String,
    /// Structural fingerprint of this node's subtree (hex). The root
    /// row's fingerprint is the whole query's cache identity.
    pub fingerprint: String,
    /// Exclusive wall time: this node's span minus nested node spans
    /// (so rows sum to ≤ the root `execute` span instead of
    /// double-counting ancestors).
    pub wall_ns: u64,
    /// Executor passes (`pass` + `split_pass`) dispatched under this
    /// node.
    pub passes: u64,
    /// Tiles streamed (`tile_produce`) under this node.
    pub tiles: u64,
    /// Bytes of the canvas/payload this node produced.
    pub bytes: u64,
    /// How this node's result came to be: `plan` (unmeasured),
    /// `rendered`, `shared_cache` (subplan cache hit), `cache` /
    /// `coalesced` (whole-query hit — no node ran), or `missing`
    /// (measured query, but every span of this node was recycled).
    pub provenance: String,
}

/// A structured per-query execution report (see module docs).
#[derive(Clone, Debug, Default)]
pub struct ExecReport {
    /// Query-class label (`Query::label`).
    pub query: String,
    /// Whole-query structural fingerprint (hex) — the cache identity.
    pub fingerprint: String,
    /// How the query was served: `plan` (EXPLAIN only), `computed`,
    /// `cache`, `coalesced`, `shed`, `failed`, or `panicked`.
    pub provenance: String,
    /// False for plan-only EXPLAIN; true once spans were folded in.
    pub measured: bool,
    /// End-to-end service time as the engine measured it.
    pub service_ns: u64,
    /// Duration of the root `execute` span (≤ `service_ns`).
    pub execute_ns: u64,
    /// Admission-wait station time.
    pub queue_wait_ns: u64,
    /// Fair-gate wait summed across this query's passes.
    pub gate_wait_ns: u64,
    /// Evaluation station time.
    pub eval_ns: u64,
    /// SIMD backend the tile kernels dispatched to (`scalar`/`sse2`/
    /// `avx2`).
    pub simd_backend: String,
    /// Spans joined into this report.
    pub spans_joined: u64,
    /// Distinct recycled ancestors detected (lower bound on spans the
    /// flight rings had already overwritten at capture time).
    pub spans_missing: u64,
    /// Plan rows, pre-order (row 0 = root).
    pub nodes: Vec<NodeReport>,
}

impl ExecReport {
    /// Folds a span tree into this plan skeleton (EXPLAIN → EXPLAIN
    /// ANALYZE). `spans` may contain other queries' records; only
    /// `query == query_id` ones are joined. Idempotent over the
    /// skeleton fields: labels, fingerprints, and the provenance the
    /// engine already set are preserved.
    pub fn measure(mut self, query_id: u64, spans: &[SpanRecord]) -> ExecReport {
        self.measured = true;
        let spans: Vec<&SpanRecord> = spans.iter().filter(|r| r.query == query_id).collect();
        self.spans_joined = spans.len() as u64;
        {
            let owned: Vec<SpanRecord> = spans.iter().map(|r| (*r).clone()).collect();
            self.spans_missing = crate::flight::missing_parents(&owned);
        }
        let by_id: HashMap<u64, &SpanRecord> = spans.iter().map(|r| (r.id, *r)).collect();
        // Span id → plan-node id, for spans the evaluator stamped.
        let node_of_span: HashMap<u64, u64> = spans
            .iter()
            .filter_map(|r| arg_u64(r, "node").map(|n| (r.id, n)))
            .collect();
        let mut row_index: HashMap<u64, usize> = HashMap::new();
        for (i, row) in self.nodes.iter().enumerate() {
            row_index.insert(row.node, i);
        }

        // Station timings from the engine/executor span names.
        for r in &spans {
            if r.id == query_id {
                self.execute_ns = r.dur_ns;
            }
            match r.name {
                "admission_wait" => self.queue_wait_ns += r.dur_ns,
                "eval" => self.eval_ns += r.dur_ns,
                "gate_wait" => self.gate_wait_ns += r.dur_ns,
                _ => {}
            }
        }

        // Per-node inclusive wall, bytes, and provenance from the
        // node-stamped spans…
        for r in &spans {
            let Some(node) = node_of_span.get(&r.id) else {
                continue;
            };
            let Some(&i) = row_index.get(node) else {
                continue;
            };
            let row = &mut self.nodes[i];
            row.wall_ns += r.dur_ns;
            if let Some(b) = arg_u64(r, "bytes") {
                row.bytes = row.bytes.max(b);
            }
            if let Some(src) = arg_str(r, "src") {
                row.provenance = src.to_string();
            } else if row.provenance.is_empty() || row.provenance == "plan" {
                row.provenance = "rendered".to_string();
            }
        }
        // …made exclusive: subtract each node span from its nearest
        // node-stamped ancestor, so rows sum to the root's inclusive
        // time instead of multiply counting nested nodes. Same-id
        // ancestors subtract too — a promoted procedure's class span
        // and the plan evaluations it runs internally all stamp node 0,
        // and only the outermost inclusive time may stand.
        for r in &spans {
            if !node_of_span.contains_key(&r.id) {
                continue;
            }
            if let Some(anc) = nearest_node_ancestor(r, &by_id, &node_of_span) {
                if let Some(&i) = row_index.get(&anc) {
                    let row = &mut self.nodes[i];
                    row.wall_ns = row.wall_ns.saturating_sub(r.dur_ns);
                }
            }
        }

        // Executor work attribution: passes and streamed tiles roll up
        // to the nearest enclosing plan node (root row when the work
        // ran outside any stamped node — e.g. the fused-chain
        // runners' interior draws).
        for r in &spans {
            let target = match r.name {
                "pass" | "split_pass" => 0,
                "tile_produce" => 1,
                _ => continue,
            };
            let node = nearest_node_ancestor(r, &by_id, &node_of_span).unwrap_or(0);
            if let Some(&i) = row_index.get(&node) {
                match target {
                    0 => self.nodes[i].passes += 1,
                    _ => self.nodes[i].tiles += 1,
                }
            }
        }

        // Whole-query hits never ran a node: every row inherits the
        // root provenance with zero work (the acceptance contract —
        // a cache-hit replay reports `provenance: cache`, zero passes).
        if self.provenance == "cache" || self.provenance == "coalesced" {
            for row in &mut self.nodes {
                row.provenance = self.provenance.clone();
            }
        } else {
            for row in &mut self.nodes {
                if row.provenance.is_empty() || row.provenance == "plan" {
                    row.provenance = "missing".to_string();
                }
            }
        }
        self
    }

    /// The report as a JSON object (stable field names; CI validates
    /// the structure of a captured one).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(512 + self.nodes.len() * 160);
        out.push('{');
        out.push_str(&format!("\"query\": {}", json_string(&self.query)));
        out.push_str(&format!(
            ", \"fingerprint\": {}",
            json_string(&self.fingerprint)
        ));
        out.push_str(&format!(
            ", \"provenance\": {}",
            json_string(&self.provenance)
        ));
        out.push_str(&format!(", \"measured\": {}", self.measured));
        out.push_str(&format!(", \"service_ns\": {}", self.service_ns));
        out.push_str(&format!(", \"execute_ns\": {}", self.execute_ns));
        out.push_str(&format!(", \"queue_wait_ns\": {}", self.queue_wait_ns));
        out.push_str(&format!(", \"gate_wait_ns\": {}", self.gate_wait_ns));
        out.push_str(&format!(", \"eval_ns\": {}", self.eval_ns));
        out.push_str(&format!(
            ", \"simd_backend\": {}",
            json_string(&self.simd_backend)
        ));
        out.push_str(&format!(", \"spans_joined\": {}", self.spans_joined));
        out.push_str(&format!(", \"spans_missing\": {}", self.spans_missing));
        out.push_str(", \"nodes\": [");
        for (i, n) in self.nodes.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "{{\"node\": {}, \"depth\": {}, \"label\": {}, \"fingerprint\": {}, \
                 \"wall_ns\": {}, \"passes\": {}, \"tiles\": {}, \"bytes\": {}, \
                 \"provenance\": {}}}",
                n.node,
                n.depth,
                json_string(&n.label),
                json_string(&n.fingerprint),
                n.wall_ns,
                n.passes,
                n.tiles,
                n.bytes,
                json_string(&n.provenance)
            ));
        }
        out.push_str("]}");
        out
    }

    /// The report as an aligned text tree — EXPLAIN ANALYZE for
    /// humans:
    ///
    /// ```text
    /// selection_heatmap  fp:4f2…  computed  service 12.4ms
    ///   stations: queue 0.0ms · gate 1.2ms · eval 11.8ms · simd avx2
    ///   #0 V[log]            1.1ms   1 pass             4.2MB  rendered
    ///   #1 · B[⊙]            9.6ms   3 passes  96 tiles 4.2MB  rendered
    ///   #2 · · C_P[50000]    0.8ms   1 pass             4.2MB  shared_cache
    /// ```
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{}  fp:{}  {}  service {}\n",
            self.query,
            short_fp(&self.fingerprint),
            self.provenance,
            fmt_ns(self.service_ns)
        ));
        if self.measured {
            out.push_str(&format!(
                "  stations: queue {} · gate {} · eval {} · simd {} · {} spans ({} missing)\n",
                fmt_ns(self.queue_wait_ns),
                fmt_ns(self.gate_wait_ns),
                fmt_ns(self.eval_ns),
                if self.simd_backend.is_empty() {
                    "?"
                } else {
                    &self.simd_backend
                },
                self.spans_joined,
                self.spans_missing
            ));
        }
        let label_col = self
            .nodes
            .iter()
            .map(|n| 2 * n.depth + n.label.chars().count())
            .max()
            .unwrap_or(0)
            .max(8);
        for n in &self.nodes {
            let tree = format!("{}{}", "· ".repeat(n.depth), n.label);
            let pad = label_col.saturating_sub(tree.chars().count());
            if self.measured {
                out.push_str(&format!(
                    "  #{:<3} {}{}  {:>9}  {:>3} passes  {:>5} tiles  {:>9}  {}\n",
                    n.node,
                    tree,
                    " ".repeat(pad),
                    fmt_ns(n.wall_ns),
                    n.passes,
                    n.tiles,
                    fmt_bytes(n.bytes),
                    n.provenance
                ));
            } else {
                out.push_str(&format!(
                    "  #{:<3} {}{}  fp:{}\n",
                    n.node,
                    tree,
                    " ".repeat(pad),
                    short_fp(&n.fingerprint)
                ));
            }
        }
        out
    }
}

fn arg_u64(r: &SpanRecord, key: &str) -> Option<u64> {
    r.args.iter().find_map(|(k, v)| match v {
        ArgValue::U64(n) if *k == key => Some(*n),
        _ => None,
    })
}

fn arg_str<'a>(r: &'a SpanRecord, key: &str) -> Option<&'a str> {
    r.args.iter().find_map(|(k, v)| match v {
        ArgValue::Str(s) if *k == key => Some(s.as_str()),
        _ => None,
    })
}

/// Walks the parent chain (excluding `r` itself) to the nearest span
/// carrying a plan-node id. `None` when the chain reaches a root or a
/// recycled (missing) ancestor first.
fn nearest_node_ancestor(
    r: &SpanRecord,
    by_id: &HashMap<u64, &SpanRecord>,
    node_of_span: &HashMap<u64, u64>,
) -> Option<u64> {
    let mut cur = r.parent;
    let mut hops = 0;
    while cur != 0 && hops < 128 {
        if let Some(n) = node_of_span.get(&cur) {
            return Some(*n);
        }
        cur = by_id.get(&cur)?.parent;
        hops += 1;
    }
    None
}

fn short_fp(fp: &str) -> &str {
    if fp.len() > 12 {
        &fp[..12]
    } else {
        fp
    }
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.1}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

fn fmt_bytes(b: u64) -> String {
    if b >= 1 << 20 {
        format!("{:.1}MB", b as f64 / (1 << 20) as f64)
    } else if b >= 1 << 10 {
        format!("{:.1}KB", b as f64 / 1024.0)
    } else {
        format!("{b}B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        id: u64,
        parent: u64,
        query: u64,
        name: &'static str,
        dur_ns: u64,
        args: Vec<(&'static str, ArgValue)>,
    ) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            query,
            thread: 1,
            name,
            cat: "test",
            start_ns: 0,
            dur_ns,
            args,
        }
    }

    fn skeleton() -> ExecReport {
        ExecReport {
            query: "plan".into(),
            fingerprint: "aa".into(),
            provenance: "computed".into(),
            nodes: vec![
                NodeReport {
                    node: 0,
                    depth: 0,
                    label: "Mp'".into(),
                    fingerprint: "aa".into(),
                    provenance: "plan".into(),
                    ..NodeReport::default()
                },
                NodeReport {
                    node: 1,
                    depth: 1,
                    label: "B[⊙]".into(),
                    fingerprint: "bb".into(),
                    provenance: "plan".into(),
                    ..NodeReport::default()
                },
            ],
            ..ExecReport::default()
        }
    }

    /// execute(10) → eval → node0(mask) → node1(blend) → pass + tiles.
    fn spans() -> Vec<SpanRecord> {
        vec![
            span(10, 0, 10, "execute", 1000, vec![]),
            span(11, 10, 10, "admission_wait", 50, vec![]),
            span(12, 10, 10, "eval", 900, vec![]),
            span(
                13,
                12,
                10,
                "mask",
                800,
                vec![("node", ArgValue::U64(0)), ("bytes", ArgValue::U64(64))],
            ),
            span(
                14,
                13,
                10,
                "blend",
                600,
                vec![("node", ArgValue::U64(1)), ("bytes", ArgValue::U64(128))],
            ),
            span(15, 14, 10, "gate_wait", 30, vec![]),
            span(16, 14, 10, "pass", 500, vec![]),
            span(17, 16, 10, "tile_produce", 5, vec![]),
            span(18, 16, 10, "tile_produce", 5, vec![]),
            // A different query's span must not join.
            span(30, 0, 30, "execute", 77, vec![]),
        ]
    }

    #[test]
    fn measure_joins_stations_nodes_and_work() {
        let r = skeleton().measure(10, &spans());
        assert!(r.measured);
        assert_eq!(r.execute_ns, 1000);
        assert_eq!(r.queue_wait_ns, 50);
        assert_eq!(r.eval_ns, 900);
        assert_eq!(r.gate_wait_ns, 30);
        assert_eq!(r.spans_joined, 9, "other queries' spans excluded");
        // Node 0's wall is exclusive of node 1's nested 600ns.
        assert_eq!(r.nodes[0].wall_ns, 200);
        assert_eq!(r.nodes[1].wall_ns, 600);
        assert!(r.nodes[0].wall_ns + r.nodes[1].wall_ns <= r.execute_ns);
        // Pass + tiles attribute to the nearest node (the blend).
        assert_eq!(r.nodes[1].passes, 1);
        assert_eq!(r.nodes[1].tiles, 2);
        assert_eq!(r.nodes[0].passes, 0);
        assert_eq!(r.nodes[0].bytes, 64);
        assert_eq!(r.nodes[1].bytes, 128);
        assert_eq!(r.nodes[0].provenance, "rendered");
    }

    #[test]
    fn cache_hit_rows_inherit_provenance_with_zero_passes() {
        let mut sk = skeleton();
        sk.provenance = "cache".into();
        let hit_spans = vec![
            span(10, 0, 10, "execute", 100, vec![]),
            span(11, 10, 10, "cache_probe", 10, vec![]),
        ];
        let r = sk.measure(10, &hit_spans);
        for n in &r.nodes {
            assert_eq!(n.provenance, "cache");
            assert_eq!(n.passes, 0);
            assert_eq!(n.wall_ns, 0);
        }
    }

    #[test]
    fn shared_src_arg_sets_row_provenance() {
        let mut all = spans();
        all[3]
            .args
            .push(("src", ArgValue::Str("shared_cache".into())));
        let r = skeleton().measure(10, &all);
        assert_eq!(r.nodes[0].provenance, "shared_cache");
    }

    #[test]
    fn json_and_text_render() {
        let r = skeleton().measure(10, &spans());
        let js = r.to_json();
        assert!(js.contains("\"query\": \"plan\""));
        assert!(js.contains("\"nodes\": ["));
        assert!(js.contains("\"provenance\": \"computed\""));
        let txt = r.to_text();
        assert!(txt.contains("stations:"));
        assert!(txt.contains("B[⊙]"));
        // Plan-only rendering shows fingerprints instead of timings.
        let plain = skeleton().to_text();
        assert!(plain.contains("fp:bb"));
        assert!(!plain.contains("stations:"));
    }

    #[test]
    fn unobserved_rows_are_marked_missing() {
        let only_root = vec![
            span(10, 0, 10, "execute", 100, vec![]),
            span(13, 10, 10, "mask", 80, vec![("node", ArgValue::U64(0))]),
        ];
        let r = skeleton().measure(10, &only_root);
        assert_eq!(r.nodes[0].provenance, "rendered");
        assert_eq!(r.nodes[1].provenance, "missing");
    }
}
