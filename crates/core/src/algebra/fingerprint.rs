//! Plan normalization + structural fingerprinting.
//!
//! A serving engine (the SPADE follow-up to the paper) receives the
//! *same* plans over and over: every pan/zoom step re-submits the
//! selection/heatmap plan with a new viewport, and concurrent users
//! often submit structurally identical subplans. To deduplicate
//! in-flight work and key a result cache, plans need a stable identity
//! that survives syntactic differences — which is exactly what the
//! rewrite rules already provide: [`normalize`] runs
//! [`rewrite::optimize`](super::rewrite::optimize) (associative-blend
//! flattening + polygon-leaf fusion) so equivalent formulations
//! converge on one shape, and [`fingerprint`] hashes that shape into a
//! 128-bit [`Fingerprint`].
//!
//! ## Identity contract
//!
//! The fingerprint is **structural**, with two deliberate choices about
//! leaf identity:
//!
//! * **Datasets by handle** — a [`PointBatch`](crate::canvas::PointBatch)
//!   or literal canvas is identified by its shared `Arc` pointer (plus
//!   length). Resident datasets are submitted through the same handle,
//!   and content-hashing millions of points per query would cost a
//!   noticeable slice of the query itself.
//! * **Query geometry by value** — polygons (constraint/query leaves
//!   and polygon tables) hash their exact vertex coordinates, so a
//!   client that rebuilds the same query polygon each frame still hits
//!   the cache.
//!
//! Functions are identified **by name**: `V[f]` nodes hash their
//! `name`, `D*[γ]` nodes their `γ.name` plus the value γ closes over
//! (`γ.param`: a constant target by value, a lookup table by handle),
//! and closure-backed mask specs their label (`MaskSpec::Texel`). Two semantically different
//! functions registered under one name will collide — the same
//! contract plan diagrams already rely on, now load-bearing: name your
//! functions uniquely. Closure-backed `PositionMap::Custom` transforms
//! have no name and fall back to closure identity (`Arc` pointer), so
//! they never falsely collide but also never deduplicate.
//!
//! Fingerprints are deterministic within a process run (and across
//! runs for plans without by-handle leaves); they are *not* a
//! cryptographic commitment.

use std::sync::Arc;

use super::expr::{Expr, SourceSpec};
use crate::info::BlendFn;
use crate::ops::{CountCond, MapParam, MaskSpec, PositionMap};
use canvas_geom::polygon::Polygon;
use canvas_geom::Point;

/// A 128-bit structural plan identity (see module docs).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fingerprint(pub u128);

impl std::fmt::Debug for Fingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "fp:{:032x}", self.0)
    }
}

impl std::fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

/// Two independent 64-bit SplitMix-fed accumulation lanes; collisions
/// require defeating both. Dependency-free and stable across builds.
struct Mix {
    a: u64,
    b: u64,
}

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Mix {
    fn new() -> Self {
        // First words of π and e: nothing-up-my-sleeve seeds.
        Mix {
            a: 0x243F_6A88_85A3_08D3,
            b: 0xB7E1_5162_8AED_2A6A,
        }
    }

    fn word(&mut self, w: u64) {
        self.a = splitmix(self.a ^ w);
        self.b = splitmix(self.b.rotate_left(23) ^ w.wrapping_mul(0xFF51_AFD7_ED55_8CCD));
    }

    /// Structure tag — keeps `[x, y]` and `[xy]` distinct.
    fn tag(&mut self, t: u8) {
        self.word(0xA0 + t as u64);
    }

    fn float(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    fn str(&mut self, s: &str) {
        self.word(s.len() as u64);
        for chunk in s.as_bytes().chunks(8) {
            let mut w = [0u8; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            self.word(u64::from_le_bytes(w));
        }
    }

    fn ptr<T: ?Sized>(&mut self, p: *const T) {
        self.word(p as *const () as usize as u64);
    }

    fn finish(&self) -> Fingerprint {
        Fingerprint(((splitmix(self.a) as u128) << 64) | splitmix(self.b) as u128)
    }
}

/// Incremental fingerprint construction for identities that are *not*
/// `Expr` plans (e.g. the engine's fused-chain query descriptors),
/// under the same contract: datasets by [`handle`](Self::handle),
/// geometry by [`polygon`](Self::polygon) value, functions by
/// [`text`](Self::text) name. The `domain` string namespaces the
/// identity so different descriptor kinds can never collide with each
/// other or with plan fingerprints.
pub struct FingerprintBuilder {
    mix: Mix,
}

impl FingerprintBuilder {
    pub fn new(domain: &str) -> Self {
        let mut mix = Mix::new();
        mix.tag(99);
        mix.str(domain);
        FingerprintBuilder { mix }
    }

    pub fn word(&mut self, w: u64) -> &mut Self {
        self.mix.word(w);
        self
    }

    pub fn text(&mut self, s: &str) -> &mut Self {
        self.mix.str(s);
        self
    }

    /// Folds in a scalar parameter by exact bit value.
    pub fn float(&mut self, x: f64) -> &mut Self {
        self.mix.float(x);
        self
    }

    /// Folds in a shared dataset handle (pointer identity + length).
    pub fn handle<T>(&mut self, data: &Arc<T>, len: usize) -> &mut Self {
        self.mix.ptr(Arc::as_ptr(data));
        self.mix.word(len as u64);
        self
    }

    /// Folds in a polygon by exact vertex value.
    pub fn polygon(&mut self, p: &Polygon) -> &mut Self {
        polygon_content(p, &mut self.mix);
        self
    }

    /// Folds in a polygon table by value: its length, then each
    /// polygon.
    pub fn polygons(&mut self, table: &[Polygon]) -> &mut Self {
        polygon_table(table, &mut self.mix);
        self
    }

    /// Folds in a point list by value: its length, then each point's
    /// coordinates.
    pub fn points(&mut self, points: &[Point]) -> &mut Self {
        self.mix.word(points.len() as u64);
        for p in points {
            self.mix.float(p.x);
            self.mix.float(p.y);
        }
        self
    }

    /// Folds in a whole plan (the structural hash of the given form —
    /// normalize first for syntax-insensitive identity).
    pub fn plan(&mut self, e: &Expr) -> &mut Self {
        walk(e, &mut self.mix);
        self
    }

    pub fn finish(&self) -> Fingerprint {
        self.mix.finish()
    }
}

/// Normalizes a plan to its canonical rewritten form — the shape
/// [`fingerprint`] hashes and the engine executes (deduplicated work
/// must run the deduplicated plan).
pub fn normalize(e: Expr) -> Expr {
    super::rewrite::optimize(e)
}

/// Structural fingerprint of a plan **as given** (callers wanting
/// syntax-insensitive identity normalize first; see
/// [`Expr::fingerprint`]).
pub fn fingerprint(e: &Expr) -> Fingerprint {
    let mut mix = Mix::new();
    walk(e, &mut mix);
    mix.finish()
}

fn polygon_content(p: &Polygon, mix: &mut Mix) {
    mix.tag(20);
    mix.word(p.holes().len() as u64 + 1);
    for ring in std::iter::once(p.outer()).chain(p.holes()) {
        mix.word(ring.vertices().len() as u64);
        for v in ring.vertices() {
            mix.float(v.x);
            mix.float(v.y);
        }
    }
}

fn polygon_table(table: &[Polygon], mix: &mut Mix) {
    mix.word(table.len() as u64);
    for p in table {
        polygon_content(p, mix);
    }
}

fn blend_tag(op: BlendFn, mix: &mut Mix) {
    mix.word(match op {
        BlendFn::Over => 1,
        BlendFn::PointOverArea => 2,
        BlendFn::AreaCount => 3,
        BlendFn::Accumulate => 4,
        BlendFn::PointAccumulate => 5,
    });
}

fn count_cond(c: &CountCond, mix: &mut Mix) {
    match c {
        CountCond::Eq(k) => {
            mix.tag(30);
            mix.word(*k as u64);
        }
        CountCond::Ge(k) => {
            mix.tag(31);
            mix.word(*k as u64);
        }
    }
}

fn source(s: &SourceSpec, mix: &mut Mix) {
    match s {
        SourceSpec::Points(batch) => {
            mix.tag(1);
            mix.ptr(Arc::as_ptr(batch));
            mix.word(batch.len() as u64);
        }
        SourceSpec::Polygon { table, record, id } => {
            mix.tag(2);
            polygon_content(&table[*record], mix);
            mix.word(*id as u64);
        }
        SourceSpec::PolygonSet { table, blend } => {
            mix.tag(3);
            polygon_table(table, mix);
            blend_tag(*blend, mix);
        }
        SourceSpec::Circle { center, radius, id } => {
            mix.tag(4);
            mix.float(center.x);
            mix.float(center.y);
            mix.float(*radius);
            mix.word(*id as u64);
        }
        SourceSpec::Rect { l1, l2, id } => {
            mix.tag(5);
            mix.float(l1.x);
            mix.float(l1.y);
            mix.float(l2.x);
            mix.float(l2.y);
            mix.word(*id as u64);
        }
        SourceSpec::HalfSpace { a, b, c, id } => {
            mix.tag(6);
            mix.float(*a);
            mix.float(*b);
            mix.float(*c);
            mix.word(*id as u64);
        }
        SourceSpec::Literal(c) => {
            mix.tag(7);
            mix.ptr(Arc::as_ptr(c));
        }
    }
}

fn walk(e: &Expr, mix: &mut Mix) {
    match e {
        Expr::Source(s) => {
            mix.tag(10);
            source(s, mix);
        }
        Expr::Blend { op, left, right } => {
            mix.tag(11);
            blend_tag(*op, mix);
            walk(left, mix);
            walk(right, mix);
        }
        Expr::MultiBlend { op, inputs } => {
            mix.tag(12);
            blend_tag(*op, mix);
            mix.word(inputs.len() as u64);
            for i in inputs {
                walk(i, mix);
            }
        }
        Expr::Mask { spec, input } => {
            mix.tag(13);
            match spec {
                MaskSpec::PointInAreas(c) => {
                    mix.tag(40);
                    count_cond(c, mix);
                }
                MaskSpec::AreaCount(c) => {
                    mix.tag(41);
                    count_cond(c, mix);
                }
                MaskSpec::Texel(label, _) => {
                    mix.tag(42);
                    mix.str(label);
                }
            }
            walk(input, mix);
        }
        Expr::GeomTransform { gamma, input } => {
            mix.tag(14);
            match gamma {
                PositionMap::Translate(d) => {
                    mix.tag(50);
                    mix.float(d.x);
                    mix.float(d.y);
                }
                PositionMap::RotateAround { center, angle } => {
                    mix.tag(51);
                    mix.float(center.x);
                    mix.float(center.y);
                    mix.float(*angle);
                }
                PositionMap::ScaleAround { center, factor } => {
                    mix.tag(52);
                    mix.float(center.x);
                    mix.float(center.y);
                    mix.float(*factor);
                }
                PositionMap::Custom(f) => {
                    mix.tag(53);
                    mix.ptr(Arc::as_ptr(f));
                }
            }
            walk(input, mix);
        }
        Expr::MapScatter {
            gamma,
            groups,
            combine,
            input,
        } => {
            mix.tag(15);
            mix.str(gamma.name);
            match &gamma.param {
                MapParam::None => mix.tag(60),
                MapParam::Point(p) => {
                    mix.tag(61);
                    mix.float(p.x);
                    mix.float(p.y);
                }
                MapParam::Table(t) => {
                    mix.tag(62);
                    mix.ptr(Arc::as_ptr(t));
                    mix.word(t.len() as u64);
                }
            }
            mix.word(*groups as u64);
            blend_tag(*combine, mix);
            walk(input, mix);
        }
        Expr::ValueTransform { name, input, .. } => {
            mix.tag(16);
            mix.str(name);
            walk(input, mix);
        }
    }
}

impl Expr {
    /// Syntax-insensitive plan identity: the fingerprint of the
    /// [`normalize`]d form (the plan is cloned for normalization; the
    /// receiver is untouched). Equal fingerprints ⇒ the engine may
    /// serve one plan's result for the other (see the module-level
    /// identity contract).
    pub fn fingerprint(&self) -> Fingerprint {
        fingerprint(&normalize(self.clone()))
    }
}

// ---------------------------------------------------------------------
// Per-node fingerprints and cut-point selection (subplan sharing).
// ---------------------------------------------------------------------

/// Whether a node's rendered canvas is worth publishing for
/// cross-query sharing. Every node qualifies except
/// [`SourceSpec::Literal`]: a literal is *already* a materialized
/// canvas the client holds, so "rendering" it is a clone — publishing
/// would spend cache bytes to save nothing. Cheap utility sources
/// (`Circ`/`Rect`/`HS`) still cost a full raster pass and are kept.
///
/// Cut points never break chains: a chain consults the subplan cache
/// only for canvases it materializes anyway — its operands, or the
/// canvas it starts from (see `ops::chain`) — so the chain ≡
/// materialized bit-identity contract is untouched.
pub fn is_cut_point(e: &Expr) -> bool {
    !matches!(e, Expr::Source(SourceSpec::Literal(_)))
}

/// One row of the *report* view of a plan: the pre-order node id the
/// evaluator stamps onto spans, joined to the node's operator label
/// and structural fingerprint. [`plan_nodes`] of the normalized plan
/// is the EXPLAIN skeleton an `ExecReport` measures into.
#[derive(Clone, Debug)]
pub struct PlanNode {
    /// Pre-order id (0 = root); equals the `node` argument on the
    /// evaluator's spans for the same plan.
    pub id: u64,
    /// Distance from the plan root.
    pub depth: usize,
    /// Operator label in plan-diagram notation
    /// ([`Expr::node_label`]).
    pub label: String,
    /// Structural fingerprint of this node's subtree. The root entry
    /// equals the whole-plan [`fingerprint`].
    pub fingerprint: Fingerprint,
}

/// Enumerates every node of `e` in pre-order (root first — ids match
/// the evaluator's span stamping by construction: both assign the
/// first child `id + 1` and advance by each sibling's
/// [`Expr::node_count`]). Rows of nodes the planner runs in another
/// physical form carry it after the operator label: a selection the
/// planner runs over point entries
/// ([`selection_sink`](super::planner::selection_sink), alone or under
/// a Map) labels its Mask row `… (entries)` — the walk's span lands
/// there — and its Blend row `B[⊙] (fused)`, which no span reaches.
pub fn plan_nodes(e: &Expr) -> Vec<PlanNode> {
    fn walk_nodes(e: &Expr, depth: usize, next: &mut u64, out: &mut Vec<PlanNode>) {
        let id = *next;
        *next += 1;
        out.push(PlanNode {
            id,
            depth,
            label: e.node_label(),
            fingerprint: fingerprint(e),
        });
        match e {
            Expr::Source(_) => {}
            Expr::Blend { left, right, .. } => {
                walk_nodes(left, depth + 1, next, out);
                walk_nodes(right, depth + 1, next, out);
            }
            Expr::MultiBlend { inputs, .. } => {
                for i in inputs {
                    walk_nodes(i, depth + 1, next, out);
                }
            }
            Expr::Mask { input, .. } => {
                walk_nodes(input, depth + 1, next, out);
                // The planner runs the Mask as an entry walk with the
                // Blend folded in; the rows say so.
                if super::planner::selection_sink(e).is_some() {
                    out[id as usize].label.push_str(" (entries)");
                    out[id as usize + 1]
                        .label
                        .push_str(canvas_obs::report::FOLDED);
                }
            }
            Expr::MapScatter { input, .. }
            | Expr::GeomTransform { input, .. }
            | Expr::ValueTransform { input, .. } => walk_nodes(input, depth + 1, next, out),
        }
    }
    let mut out = Vec::new();
    walk_nodes(e, 0, &mut 0, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::canvas::{AreaSource, PointBatch};
    use canvas_geom::Point;

    fn square(x0: f64, y0: f64, side: f64) -> Polygon {
        Polygon::simple(vec![
            Point::new(x0, y0),
            Point::new(x0 + side, y0),
            Point::new(x0 + side, y0 + side),
            Point::new(x0, y0 + side),
        ])
        .unwrap()
    }

    #[test]
    fn identical_plans_share_fingerprints_rebuilt_polygons_too() {
        let data = Arc::new(PointBatch::from_points(vec![Point::new(1.0, 1.0)]));
        let plan = |q: Polygon| {
            Expr::mask(
                MaskSpec::PointInAreas(CountCond::Ge(1)),
                Expr::blend(
                    BlendFn::PointOverArea,
                    Expr::points(data.clone()),
                    Expr::query_polygon(q, 1),
                ),
            )
        };
        // The polygon is rebuilt (fresh Arc table) — value identity
        // must still hold.
        assert_eq!(
            plan(square(0.0, 0.0, 5.0)).fingerprint(),
            plan(square(0.0, 0.0, 5.0)).fingerprint()
        );
        assert_ne!(
            plan(square(0.0, 0.0, 5.0)).fingerprint(),
            plan(square(0.0, 0.0, 6.0)).fingerprint()
        );
    }

    #[test]
    fn plan_nodes_preorder_ids_join_the_evaluators_arithmetic() {
        let data = Arc::new(PointBatch::from_points(vec![Point::new(1.0, 1.0)]));
        let plan = Expr::mask(
            MaskSpec::PointInAreas(CountCond::Ge(1)),
            Expr::blend(
                BlendFn::PointOverArea,
                Expr::points(data),
                Expr::query_polygon(square(0.0, 0.0, 5.0), 1),
            ),
        );
        let nodes = plan_nodes(&plan);
        assert_eq!(nodes.len() as u64, plan.node_count());
        // Pre-order: ids are dense 0..n and the root comes first with
        // the whole-plan fingerprint.
        for (i, n) in nodes.iter().enumerate() {
            assert_eq!(n.id, i as u64);
        }
        assert_eq!(nodes[0].depth, 0);
        assert_eq!(nodes[0].fingerprint, fingerprint(&plan));
        assert!(nodes[0].label.starts_with("Mp'"));
        // The blend's second child (C_Y) sits at first-child id +
        // first-child subtree size — the same arithmetic eval_node
        // stamps spans with.
        let Expr::Mask { input: blend, .. } = &plan else {
            unreachable!()
        };
        let Expr::Blend { left, .. } = &**blend else {
            unreachable!()
        };
        assert_eq!(nodes[2].label, left.node_label());
        assert_eq!(
            nodes[(2 + left.node_count()) as usize].label,
            "C_Y[record 0, id 1]"
        );
        // Depths follow the tree shape.
        assert_eq!(nodes[1].depth, 1);
        assert_eq!(nodes[2].depth, 2);
    }

    #[test]
    fn plan_nodes_label_the_rows_the_planner_folds() {
        let data = Arc::new(PointBatch::from_points(vec![Point::new(1.0, 1.0)]));
        let zones: AreaSource = Arc::new(vec![square(0.0, 0.0, 5.0)]);
        let aggregate = |right: Expr| {
            Expr::map_scatter(
                crate::ops::ValueMap::area_id_slot(),
                1,
                BlendFn::Accumulate,
                Expr::mask(
                    MaskSpec::PointInAreas(CountCond::Ge(1)),
                    Expr::blend(BlendFn::PointOverArea, Expr::points(data.clone()), right),
                ),
            )
        };
        let labels =
            |e: &Expr| -> Vec<String> { plan_nodes(e).into_iter().map(|n| n.label).collect() };
        let entry = aggregate(Expr::polygon_set(zones, BlendFn::AreaCount));
        let rows = labels(&entry);
        assert_eq!(rows[1], "Mp'[#areas>=1] (entries)");
        assert_eq!(rows[2], "B[⊙] (fused)");
        assert_eq!(rows[3], "C_P[1 points]");
        // Labels only: fingerprints are the plan's.
        let Expr::MapScatter { input: mask, .. } = &entry else {
            unreachable!()
        };
        assert_eq!(plan_nodes(&entry)[1].fingerprint, fingerprint(mask));
        // A dense Map keeps the plain labels.
        let dense = aggregate(Expr::points(data.clone()));
        assert_eq!(labels(&dense)[1..3], ["Mp'[#areas>=1]", "B[⊙]"]);
    }

    #[test]
    fn plan_nodes_label_the_selection_the_planner_walks() {
        // `SelectPoints`' plan: its root Mask is the walk, its Blend is
        // folded into it.
        let data = Arc::new(PointBatch::from_points(vec![Point::new(1.0, 1.0)]));
        let select = |right: Expr| {
            Expr::mask(
                MaskSpec::PointInAreas(CountCond::Ge(1)),
                Expr::blend(BlendFn::PointOverArea, Expr::points(data.clone()), right),
            )
        };
        let labels =
            |e: &Expr| -> Vec<String> { plan_nodes(e).into_iter().map(|n| n.label).collect() };
        let entry = select(Expr::query_polygon(square(0.0, 0.0, 5.0), 1));
        assert_eq!(
            labels(&entry),
            [
                "Mp'[#areas>=1] (entries)",
                "B[⊙] (fused)",
                "C_P[1 points]",
                "C_Y[record 0, id 1]"
            ]
        );
        // Labels only: the root's fingerprint is the plan's.
        assert_eq!(plan_nodes(&entry)[0].fingerprint, fingerprint(&entry));
        // A selection over a point canvas stays dense.
        let dense = select(Expr::points(data.clone()));
        assert_eq!(labels(&dense)[..2], ["Mp'[#areas>=1]", "B[⊙]"]);
    }

    #[test]
    fn datasets_identified_by_handle() {
        let a = Arc::new(PointBatch::from_points(vec![Point::new(1.0, 1.0)]));
        let b = Arc::new(PointBatch::from_points(vec![Point::new(1.0, 1.0)]));
        assert_eq!(
            Expr::points(a.clone()).fingerprint(),
            Expr::points(a.clone()).fingerprint()
        );
        // Equal contents, different handle: distinct by design.
        assert_ne!(Expr::points(a).fingerprint(), Expr::points(b).fingerprint());
    }

    #[test]
    fn normalization_converges_equivalent_formulations() {
        let table: AreaSource = Arc::new(vec![square(1.0, 1.0, 2.0), square(4.0, 4.0, 2.0)]);
        let nested = Expr::blend(
            BlendFn::AreaCount,
            Expr::polygon_record(table.clone(), 0, 0),
            Expr::polygon_record(table.clone(), 1, 1),
        );
        let flat = Expr::multi_blend(
            BlendFn::AreaCount,
            vec![
                Expr::polygon_record(table.clone(), 0, 0),
                Expr::polygon_record(table.clone(), 1, 1),
            ],
        );
        // Different syntax, same normalized shape (both fuse to one
        // PolygonSet draw), same fingerprint.
        assert_eq!(nested.fingerprint(), flat.fingerprint());
        // Unnormalized structural hashes differ, proving the rewrite is
        // what converges them.
        assert_ne!(fingerprint(&nested), fingerprint(&flat));
    }

    #[test]
    fn structure_and_parameters_separate_plans() {
        let data = Arc::new(PointBatch::from_points(vec![Point::new(1.0, 1.0)]));
        let base = Expr::points(data.clone());
        let masked = Expr::mask(MaskSpec::PointInAreas(CountCond::Ge(1)), base.clone());
        let masked_eq = Expr::mask(MaskSpec::PointInAreas(CountCond::Eq(1)), base.clone());
        let named = Expr::mask(MaskSpec::Texel("dense", Arc::new(|_| true)), base.clone());
        let named2 = Expr::mask(MaskSpec::Texel("dense", Arc::new(|_| true)), base.clone());
        let other_name = Expr::mask(MaskSpec::Texel("sparse", Arc::new(|_| true)), base.clone());
        assert_ne!(base.fingerprint(), masked.fingerprint());
        assert_ne!(masked.fingerprint(), masked_eq.fingerprint());
        // Closure-backed masks: identity is the label.
        assert_eq!(named.fingerprint(), named2.fingerprint());
        assert_ne!(named.fingerprint(), other_name.fingerprint());
        // Value transforms: identity is the name.
        let v1 = Expr::value_transform("log", Arc::new(|_, t| t), base.clone());
        let v2 = Expr::value_transform("log", Arc::new(|_, t| t), base.clone());
        let v3 = Expr::value_transform("sqrt", Arc::new(|_, t| t), base);
        assert_eq!(v1.fingerprint(), v2.fingerprint());
        assert_ne!(v1.fingerprint(), v3.fingerprint());
    }

    #[test]
    fn selection_and_heatmap_share_the_blend_subplan() {
        // The motivating case: a selection and a (coarse) heatmap over
        // the same data + query polygon share the blended density
        // subplan — identical per-node fingerprints.
        let data = Arc::new(PointBatch::from_points(vec![Point::new(1.0, 1.0)]));
        let blend = || {
            Expr::blend(
                BlendFn::PointOverArea,
                Expr::points(data.clone()),
                Expr::query_polygon(square(0.0, 0.0, 5.0), 1),
            )
        };
        let selection = Expr::mask(MaskSpec::PointInAreas(CountCond::Ge(1)), blend());
        let heat = Expr::value_transform(
            "log",
            Arc::new(|_, t| t),
            Expr::mask(MaskSpec::Texel("pa", Arc::new(|_| true)), blend()),
        );
        let shared = fingerprint(&blend());
        assert_ne!(fingerprint(&selection), fingerprint(&heat));
        assert!(is_cut_point(&blend()));
        let interior = |plan: &Expr| {
            plan_nodes(plan)
                .iter()
                .any(|n| n.fingerprint == shared && n.depth > 0)
        };
        assert!(
            interior(&selection) && interior(&heat),
            "shared blend is an interior node of both"
        );
    }

    #[test]
    fn literal_sources_are_not_cut_points() {
        let lit = Expr::literal(crate::canvas::Canvas::empty(canvas_raster::Viewport::new(
            canvas_geom::BBox::new(Point::new(0.0, 0.0), Point::new(1.0, 1.0)),
            2,
            2,
        )));
        assert!(!is_cut_point(&lit));
        let data = Arc::new(PointBatch::from_points(vec![Point::new(1.0, 1.0)]));
        assert!(is_cut_point(&Expr::points(data.clone())));
        let masked = Expr::mask(MaskSpec::PointInAreas(CountCond::Ge(1)), lit);
        // The literal leaf is excluded, but the operator above it cuts;
        // the report view still lists the literal as a plan node.
        assert!(is_cut_point(&masked));
        let nodes = plan_nodes(&masked);
        assert_eq!(nodes.len(), 2);
        assert_eq!(nodes[1].label, "C_lit");
    }

    #[test]
    fn fingerprint_is_stable_within_run() {
        let data = Arc::new(PointBatch::from_points(vec![Point::new(2.0, 3.0)]));
        let e = Expr::blend(
            BlendFn::PointOverArea,
            Expr::points(data),
            Expr::query_polygon(square(0.0, 0.0, 4.0), 7),
        );
        let fp = e.fingerprint();
        for _ in 0..5 {
            assert_eq!(e.fingerprint(), fp);
        }
    }
}
