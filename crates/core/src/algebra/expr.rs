//! Expression nodes and the evaluator.

use std::sync::Arc;

use super::subplan::SubplanCache;
use crate::canvas::{AreaSource, Canvas, PointBatch};
use crate::device::Device;
use crate::info::BlendFn;
use crate::ops::{self, MaskSpec, PositionMap, ValueFn, ValueMap};
use canvas_geom::polygon::Polygon;
use canvas_raster::{ValueTag, Viewport};

/// A canvas source: the leaves of a plan. Sources hold *vector* data and
/// are rendered on demand when the plan executes (paper Section 5:
/// "canvases are created on the fly").
#[derive(Clone)]
pub enum SourceSpec {
    /// A point data set (`C_P` — conceptually a collection of canvases,
    /// rendered as one accumulated canvas).
    Points(Arc<PointBatch>),
    /// One polygon record from a table, with its texel id.
    Polygon {
        table: AreaSource,
        record: usize,
        id: u32,
    },
    /// A whole polygon table rendered in one instanced draw with the
    /// given internal blend (the fused `B*` form).
    PolygonSet { table: AreaSource, blend: BlendFn },
    /// `Circ[(x,y), r]()`.
    Circle {
        center: canvas_geom::Point,
        radius: f64,
        id: u32,
    },
    /// `Rect[l1, l2]()`.
    Rect {
        l1: canvas_geom::Point,
        l2: canvas_geom::Point,
        id: u32,
    },
    /// `HS[a, b, c]()`.
    HalfSpace { a: f64, b: f64, c: f64, id: u32 },
    /// An already-materialized canvas (sub-query result).
    Literal(Arc<Canvas>),
    /// A query region with the count tag, `C_tag`
    /// ([`render_query_tag`](crate::source::render_query_tag)): the
    /// choropleth's constraint encoded in the 2-row count.
    QueryTag(Polygon),
}

impl SourceSpec {
    fn label(&self) -> String {
        match self {
            SourceSpec::Points(b) => format!("C_P[{} points]", b.len()),
            SourceSpec::Polygon { record, id, .. } => {
                format!("C_Y[record {record}, id {id}]")
            }
            SourceSpec::PolygonSet { table, blend } => {
                format!("C_Y*[{} polygons, {}]", table.len(), blend.symbol())
            }
            SourceSpec::Circle { radius, .. } => format!("Circ[r={radius}]"),
            SourceSpec::Rect { .. } => "Rect[l1,l2]".to_string(),
            SourceSpec::HalfSpace { a, b, c, .. } => format!("HS[{a},{b},{c}]"),
            SourceSpec::Literal(_) => "C_lit".to_string(),
            SourceSpec::QueryTag(_) => "C_tag".to_string(),
        }
    }

    fn render(&self, dev: &mut Device, vp: Viewport) -> Canvas {
        match self {
            SourceSpec::Points(batch) => crate::source::render_points(dev, vp, batch),
            SourceSpec::Polygon { table, record, id } => {
                crate::source::render_polygon(dev, vp, table, *record, *id)
            }
            SourceSpec::PolygonSet { table, blend } => {
                crate::source::render_polygon_set(dev, vp, table, *blend)
            }
            SourceSpec::Circle { center, radius, id } => {
                ops::circle_canvas(dev, vp, *center, *radius, *id)
            }
            SourceSpec::Rect { l1, l2, id } => ops::rect_canvas(dev, vp, *l1, *l2, *id),
            SourceSpec::HalfSpace { a, b, c, id } => {
                ops::halfspace_canvas(dev, vp, *a, *b, *c, *id)
            }
            SourceSpec::Literal(c) => (**c).clone(),
            SourceSpec::QueryTag(q) => crate::source::render_query_tag(dev, vp, q),
        }
    }
}

/// A plan node. Every node evaluates to a canvas — the algebra is closed.
#[derive(Clone)]
pub enum Expr {
    Source(SourceSpec),
    /// `B[⊙](left, right)`.
    Blend {
        op: BlendFn,
        left: Box<Expr>,
        right: Box<Expr>,
    },
    /// `B*[⊙](inputs…)`.
    MultiBlend {
        op: BlendFn,
        inputs: Vec<Expr>,
    },
    /// `M[M](input)`.
    Mask {
        spec: MaskSpec,
        input: Box<Expr>,
    },
    /// `G[γ](input)` with position-form γ.
    GeomTransform {
        gamma: PositionMap,
        input: Box<Expr>,
    },
    /// `D*[γ](input)` — dissect + value-form transform, fused to a
    /// scatter into `groups` group slots (Section 4.3 aggregation shape).
    MapScatter {
        gamma: ValueMap,
        groups: u32,
        combine: BlendFn,
        input: Box<Expr>,
    },
    /// `V[f](input)`.
    ValueTransform {
        f: ValueFn,
        input: Box<Expr>,
    },
}

impl Expr {
    // ----- constructors (builder style) ---------------------------------

    pub fn points(batch: Arc<PointBatch>) -> Expr {
        Expr::Source(SourceSpec::Points(batch))
    }

    pub fn query_polygon(poly: Polygon, id: u32) -> Expr {
        Expr::Source(SourceSpec::Polygon {
            table: Arc::new(vec![poly]),
            record: 0,
            id,
        })
    }

    pub fn polygon_record(table: AreaSource, record: usize, id: u32) -> Expr {
        Expr::Source(SourceSpec::Polygon { table, record, id })
    }

    pub fn polygon_set(table: AreaSource, blend: BlendFn) -> Expr {
        Expr::Source(SourceSpec::PolygonSet { table, blend })
    }

    pub fn query_tag(poly: Polygon) -> Expr {
        Expr::Source(SourceSpec::QueryTag(poly))
    }

    pub fn literal(c: Canvas) -> Expr {
        Expr::Source(SourceSpec::Literal(Arc::new(c)))
    }

    pub fn blend(op: BlendFn, left: Expr, right: Expr) -> Expr {
        Expr::Blend {
            op,
            left: Box::new(left),
            right: Box::new(right),
        }
    }

    pub fn multi_blend(op: BlendFn, inputs: Vec<Expr>) -> Expr {
        Expr::MultiBlend { op, inputs }
    }

    pub fn mask(spec: MaskSpec, input: Expr) -> Expr {
        Expr::Mask {
            spec,
            input: Box::new(input),
        }
    }

    pub fn geom_transform(gamma: PositionMap, input: Expr) -> Expr {
        Expr::GeomTransform {
            gamma,
            input: Box::new(input),
        }
    }

    pub fn map_scatter(gamma: ValueMap, groups: u32, combine: BlendFn, input: Expr) -> Expr {
        Expr::MapScatter {
            gamma,
            groups,
            combine,
            input: Box::new(input),
        }
    }

    pub fn value_transform(name: &'static str, f: ops::value::TexelFn, input: Expr) -> Expr {
        Expr::ValueTransform {
            f: ValueFn::Named(name, f),
            input: Box::new(input),
        }
    }

    /// `V[tag](input)` for a built-in transform.
    pub fn value_tagged(tag: ValueTag, input: Expr) -> Expr {
        Expr::ValueTransform {
            f: ValueFn::Tagged(tag),
            input: Box::new(input),
        }
    }

    // ----- evaluation ----------------------------------------------------

    /// Executes the plan on a device within the given viewport.
    pub fn eval(&self, dev: &mut Device, vp: Viewport) -> Canvas {
        self.eval_via(dev, vp, None)
    }

    /// Executes the plan with a [`SubplanCache`] consulted at every cut
    /// point (see [`algebra::subplan`](super::subplan)): canvas-producing
    /// subexpressions already in the cache are reused, and the ones this
    /// evaluation renders are published to it. With `None` this is
    /// exactly [`eval`](Self::eval) — no per-node fingerprinting happens.
    ///
    /// Sharing is invisible in results: rendering is deterministic, so
    /// a cached canvas is bit-identical to the one this evaluation would
    /// have produced itself.
    ///
    /// The canvas a plan returns holds its planes: an area canvas drawn
    /// as spans (`canvas` module docs) is folded here, inside the
    /// evaluation, not by whoever reads it later. Only interior canvases
    /// stay span-coded.
    pub fn eval_via(
        &self,
        dev: &mut Device,
        vp: Viewport,
        cache: Option<&dyn SubplanCache>,
    ) -> Canvas {
        let arc = self.eval_node(dev, vp, cache, 0, 0);
        // The root is never shared (depth 0), so this Arc is private
        // and unwraps without a copy.
        let canvas = Arc::try_unwrap(arc).unwrap_or_else(|a| (*a).clone());
        if canvas.spans().is_some() {
            canvas.texels();
        }
        canvas
    }

    /// One node of the cache-aware evaluation. Cut points at depth ≥ 1
    /// go through the cache — the root (depth 0) is the whole plan,
    /// whose identity the engine's result cache already owns. `node` is
    /// this node's pre-order id within the evaluated plan, stamped onto
    /// its span so execution-report rows join to plan nodes (see
    /// [`plan_nodes`](super::fingerprint::plan_nodes)).
    fn eval_node(
        &self,
        dev: &mut Device,
        vp: Viewport,
        cache: Option<&dyn SubplanCache>,
        depth: usize,
        node: u64,
    ) -> Arc<Canvas> {
        let Some(shared) = cache.filter(|_| depth > 0 && super::fingerprint::is_cut_point(self))
        else {
            return Arc::new(self.compute_node(dev, vp, cache, depth, node));
        };
        let fp = super::fingerprint::fingerprint(self);
        if let Some(c) = shared.get(fp, &vp) {
            // A shared hit still gets this node's span — with a `src`
            // marker instead of render work — so the report row shows
            // *why* the node cost ~nothing.
            let mut hit = canvas_obs::span(self.node_name(), "algebra");
            hit.arg_u64("node", node);
            hit.arg_u64("depth", depth as u64);
            hit.arg_u64("bytes", c.size_bytes() as u64);
            hit.arg_str("src", || "shared_cache".to_string());
            return c;
        }
        let c = Arc::new(self.compute_node(dev, vp, cache, depth, node));
        shared.publish(fp, &vp, &c);
        c
    }

    /// Renders this node from its children (which recurse through the
    /// cache), in the physical form the planner picks for it
    /// ([`planner`](super::planner)). Children take consecutive
    /// pre-order id ranges: `node + 1` for the first child, advancing
    /// by each earlier sibling's [`node_count`](Self::node_count).
    fn compute_node(
        &self,
        dev: &mut Device,
        vp: Viewport,
        cache: Option<&dyn SubplanCache>,
        depth: usize,
        node: u64,
    ) -> Canvas {
        let mut node_span = canvas_obs::span(self.node_name(), "algebra");
        node_span.arg_u64("node", node);
        node_span.arg_u64("depth", depth as u64);
        let result = match self {
            // Chain form: the kernel nodes it folds are never computed,
            // cached or published; the input and the Blend operands
            // keep their pre-order ids.
            _ if super::planner::kernel_node(self).is_some() => {
                let mut chain = (Vec::new(), Vec::new());
                let input = self.eval_tail(dev, vp, cache, depth, node, &mut chain);
                let operands: Vec<&Canvas> = chain.1.iter().map(|c| &**c).collect();
                ops::chain::run_chain(dev, &input, &chain.0, &operands)
            }
            Expr::Source(s) => s.render(dev, vp),
            // A multiway Blend of fewer than two inputs.
            Expr::MultiBlend { inputs, .. } => match inputs.first() {
                Some(e) => {
                    let c = e.eval_node(dev, vp, cache, depth + 1, node + 1);
                    Arc::try_unwrap(c).unwrap_or_else(|a| (*a).clone())
                }
                None => Canvas::empty(vp),
            },
            Expr::Blend { .. } => unreachable!("a Blend is a kernel node"),
            Expr::Mask { spec, input } => match super::planner::selection_sink(self) {
                // Entry form: the Blend interior (`node + 1`) is never
                // computed, cached or published; this node's span times
                // the walk.
                Some(sink) => {
                    let (points, areas) = sink_operands(&sink, dev, vp, cache, depth + 2, node + 2);
                    ops::select_point_entries_in_areas(dev, &points, &areas, sink.rule, None)
                }
                None => {
                    let c = input.eval_node(dev, vp, cache, depth + 1, node + 1);
                    ops::mask(dev, &c, spec)
                }
            },
            Expr::GeomTransform { gamma, input } => {
                let c = input.eval_node(dev, vp, cache, depth + 1, node + 1);
                ops::transform_positions(dev, &c, gamma, vp)
            }
            Expr::MapScatter {
                gamma,
                groups,
                combine,
                input,
            } => match super::planner::entry_sink(self) {
                // Entry form: the Mask (`node + 1`) and Blend (`node + 2`)
                // interiors are never computed, cached or published; the
                // operands keep their pre-order ids, so leaf sharing is
                // unchanged.
                Some(sink) => {
                    let (points, areas) = sink_operands(&sink, dev, vp, cache, depth + 3, node + 3);
                    let _walk = walk_span(depth + 1, node + 1);
                    ops::scatter_point_entries_in_areas(
                        dev,
                        &points,
                        &areas,
                        sink.rule,
                        gamma,
                        ops::group_viewport(*groups),
                        *combine,
                    )
                }
                None => {
                    let c = input.eval_node(dev, vp, cache, depth + 1, node + 1);
                    ops::map_scatter(dev, &c, gamma, ops::group_viewport(*groups), *combine)
                }
            },
            Expr::ValueTransform { f, input } => match (super::planner::value_sink(self), f) {
                // Entry form finished by the value kernel: as under a
                // Map, the Mask and Blend interiors are never computed.
                (Some((sink, tag)), _) => {
                    let (points, areas) = sink_operands(&sink, dev, vp, cache, depth + 3, node + 3);
                    let _walk = walk_span(depth + 1, node + 1);
                    ops::select_point_entries_in_areas(dev, &points, &areas, sink.rule, Some(tag))
                }
                (None, ValueFn::Named(_, f)) => {
                    let c = input.eval_node(dev, vp, cache, depth + 1, node + 1);
                    ops::value_transform(dev, &c, |p, t| f(p, t))
                }
                (None, ValueFn::Tagged(_)) => unreachable!("a built-in V is a kernel node"),
            },
        };
        node_span.arg_u64("bytes", result.size_bytes() as u64);
        result
    }

    /// Walks a chain from its top kernel node down (see
    /// [`kernel_node`](super::planner::kernel_node)): evaluates the
    /// canvas it rewrites through the cache and returns it, pushing onto
    /// `chain` the kernels bottom-up and each Blend operand, evaluated
    /// through the cache at its pre-order id, in run order.
    fn eval_tail(
        &self,
        dev: &mut Device,
        vp: Viewport,
        cache: Option<&dyn SubplanCache>,
        depth: usize,
        node: u64,
        chain: &mut (Vec<ops::ChainKernel>, Vec<Arc<Canvas>>),
    ) -> Arc<Canvas> {
        let Some((kernel, input, rest)) = super::planner::kernel_node(self) else {
            return self.eval_node(dev, vp, cache, depth, node);
        };
        let canvas = input.eval_tail(dev, vp, cache, depth + 1, node + 1, chain);
        let mut at = node + 1 + input.node_count();
        for e in rest {
            chain.1.push(e.eval_node(dev, vp, cache, depth + 1, at));
            at += e.node_count();
        }
        chain
            .0
            .extend(std::iter::repeat_n(kernel, rest.len().max(1)));
        canvas
    }

    /// Span name for this node's operator (trace taxonomy, cat
    /// `"algebra"`).
    fn node_name(&self) -> &'static str {
        match self {
            Expr::Source(_) => "source",
            Expr::Blend { .. } => "blend",
            Expr::MultiBlend { .. } => "multi_blend",
            Expr::Mask { .. } => "mask",
            Expr::GeomTransform { .. } => "geom_transform",
            Expr::MapScatter { .. } => "map_scatter",
            Expr::ValueTransform { .. } => "value_transform",
        }
    }

    /// Number of nodes in this subtree (this node included) — the
    /// pre-order id arithmetic both the evaluator and
    /// [`plan_nodes`](super::fingerprint::plan_nodes) rely on.
    pub fn node_count(&self) -> u64 {
        let mut n = 1;
        self.for_each_child(|c| n += c.node_count());
        n
    }

    /// Calls `f` on each operand subplan in pre-order: a Blend's left
    /// before its right, a multiway Blend's inputs in order. The first
    /// is the canvas a kernel node rewrites.
    pub fn for_each_child<'a>(&'a self, mut f: impl FnMut(&'a Expr)) {
        match self {
            Expr::Source(_) => {}
            Expr::Blend { left, right, .. } => {
                f(left);
                f(right);
            }
            Expr::MultiBlend { inputs, .. } => inputs.iter().for_each(f),
            Expr::Mask { input, .. }
            | Expr::GeomTransform { input, .. }
            | Expr::MapScatter { input, .. }
            | Expr::ValueTransform { input, .. } => f(input),
        }
    }

    /// This node with each operand subplan replaced by `f` of it (the
    /// recursion step of the rewrite rules).
    pub fn map_children(self, mut f: impl FnMut(Expr) -> Expr) -> Expr {
        match self {
            leaf @ Expr::Source(_) => leaf,
            Expr::Blend { op, left, right } => {
                let left = f(*left);
                Expr::blend(op, left, f(*right))
            }
            Expr::MultiBlend { op, inputs } => {
                Expr::multi_blend(op, inputs.into_iter().map(f).collect())
            }
            Expr::Mask { spec, input } => Expr::mask(spec, f(*input)),
            Expr::GeomTransform { gamma, input } => Expr::geom_transform(gamma, f(*input)),
            Expr::MapScatter {
                gamma,
                groups,
                combine,
                input,
            } => Expr::map_scatter(gamma, groups, combine, f(*input)),
            Expr::ValueTransform { f: value, input } => Expr::ValueTransform {
                f: value,
                input: Box::new(f(*input)),
            },
        }
    }

    /// This node's operator label in the paper's plan-diagram notation
    /// (`B[⊙]`, `Mp'…`, `C_P[…]`, …) — one line of [`plan`](Self::plan)
    /// without the children, used by execution-report rows.
    pub fn node_label(&self) -> String {
        match self {
            Expr::Source(s) => s.label(),
            Expr::Blend { op, .. } => format!("B[{}]", op.symbol()),
            Expr::MultiBlend { op, inputs } => {
                format!("B*[{}] ({} inputs)", op.symbol(), inputs.len())
            }
            Expr::Mask { spec, .. } => spec.label(),
            Expr::GeomTransform { gamma, .. } => format!("G[{}]", gamma.label()),
            Expr::MapScatter { gamma, groups, .. } => {
                format!("D*[{}] → {groups} groups", gamma.name)
            }
            Expr::ValueTransform { f, .. } => match f {
                ValueFn::Tagged(tag) => format!("V[{tag:?}]"),
                ValueFn::Named(name, _) => format!("V[{name}]"),
            },
        }
    }

    // ----- plan diagrams --------------------------------------------------

    /// Renders the plan as an indented tree (the textual analogue of the
    /// paper's plan diagrams, Figures 5–8).
    pub fn plan(&self) -> String {
        let mut out = String::new();
        self.plan_into(&mut out, 0);
        out
    }

    fn plan_into(&self, out: &mut String, depth: usize) {
        out.push_str(&format!("{}{}\n", "  ".repeat(depth), self.node_label()));
        self.for_each_child(|c| c.plan_into(out, depth + 1));
    }

    // ----- cost heuristic --------------------------------------------------

    /// Rough cost in "full-screen pass equivalents": how many times the
    /// plan touches every pixel of the viewport, plus per-source render
    /// work. Used to compare rewritten plans (Section 7, query
    /// optimization discussion); the device model gives the real numbers.
    pub fn cost(&self) -> f64 {
        match self {
            Expr::Source(SourceSpec::Points(b)) => 0.1 + b.len() as f64 * 1e-6,
            Expr::Source(SourceSpec::PolygonSet { table, .. }) => 0.5 * table.len() as f64,
            Expr::Source(_) => 0.5,
            Expr::Blend { left, right, .. } => 1.0 + left.cost() + right.cost(),
            Expr::MultiBlend { inputs, .. } => {
                inputs.len().saturating_sub(1) as f64 + inputs.iter().map(Expr::cost).sum::<f64>()
            }
            Expr::Mask { input, .. } => 1.0 + input.cost(),
            Expr::GeomTransform { input, .. } => 2.0 + input.cost(),
            Expr::MapScatter { input, .. } => 1.0 + input.cost(),
            Expr::ValueTransform { input, .. } => 1.0 + input.cost(),
        }
    }
}

/// The span of an entry walk its Mask node (`node`, one below a Map or
/// Value Transform) never opens itself: the report's Mask row is where
/// the walk's time lands.
fn walk_span(depth: usize, node: u64) -> canvas_obs::Span {
    let mut walk = canvas_obs::span("mask", "algebra");
    walk.arg_u64("node", node);
    walk.arg_u64("depth", depth as u64);
    walk
}

/// Evaluates an entry-form selection's two operands through the cache,
/// at the pre-order ids and depth they hold in the plan: `C_P` at
/// `node`, the area source after it.
fn sink_operands(
    sink: &super::planner::EntrySink<'_>,
    dev: &mut Device,
    vp: Viewport,
    cache: Option<&dyn SubplanCache>,
    depth: usize,
    node: u64,
) -> (Arc<Canvas>, Arc<Canvas>) {
    let points = sink.points.eval_node(dev, vp, cache, depth, node);
    let areas = sink
        .areas
        .eval_node(dev, vp, cache, depth, node + sink.points.node_count());
    (points, areas)
}

impl std::fmt::Debug for Expr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.plan())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::CountCond;
    use canvas_geom::{BBox, Point};

    fn vp() -> Viewport {
        Viewport::new(
            BBox::new(Point::new(0.0, 0.0), Point::new(10.0, 10.0)),
            16,
            16,
        )
    }

    fn square(x0: f64, y0: f64, side: f64) -> Polygon {
        Polygon::simple(vec![
            Point::new(x0, y0),
            Point::new(x0 + side, y0),
            Point::new(x0 + side, y0 + side),
            Point::new(x0, y0 + side),
        ])
        .unwrap()
    }

    /// The paper's Figure 5 plan: select points inside a polygon.
    fn figure5_plan() -> Expr {
        let data = Arc::new(PointBatch::from_points(vec![
            Point::new(2.0, 2.0),
            Point::new(8.0, 8.0),
        ]));
        Expr::mask(
            MaskSpec::PointInAreas(CountCond::Ge(1)),
            Expr::blend(
                BlendFn::PointOverArea,
                Expr::points(data),
                Expr::query_polygon(square(0.0, 0.0, 5.0), 1),
            ),
        )
    }

    #[test]
    fn figure5_plan_evaluates_correctly() {
        let mut dev = Device::nvidia();
        let result = figure5_plan().eval(&mut dev, vp());
        assert_eq!(result.point_records(), vec![0]);
    }

    #[test]
    fn plan_diagram_structure() {
        let plan = figure5_plan().plan();
        let lines: Vec<&str> = plan.lines().collect();
        assert!(lines[0].starts_with("Mp'"));
        assert!(lines[1].trim_start().starts_with("B[⊙]"));
        assert!(lines[2].trim_start().starts_with("C_P"));
        assert!(lines[3].trim_start().starts_with("C_Y"));
    }

    #[test]
    fn closure_composition() {
        // A masked result is a first-class input to further operators.
        let mut dev = Device::nvidia();
        let inner = figure5_plan().eval(&mut dev, vp());
        let outer = Expr::mask(
            MaskSpec::Texel("has point", Arc::new(|t: &crate::info::Texel| t.has(0))),
            Expr::literal(inner),
        );
        let result = outer.eval(&mut dev, vp());
        assert_eq!(result.point_records(), vec![0]);
    }

    #[test]
    fn multiblend_empty_gives_empty_canvas() {
        let mut dev = Device::nvidia();
        let c = Expr::multi_blend(BlendFn::Over, vec![]).eval(&mut dev, vp());
        assert!(c.is_empty());
    }

    #[test]
    fn utility_sources_evaluate() {
        let mut dev = Device::nvidia();
        let circ = Expr::Source(SourceSpec::Circle {
            center: Point::new(5.0, 5.0),
            radius: 2.0,
            id: 1,
        })
        .eval(&mut dev, vp());
        assert!(circ.value_at(Point::new(5.0, 5.0)).has(2));
        let hs = Expr::Source(SourceSpec::HalfSpace {
            a: 0.0,
            b: 1.0,
            c: -5.0,
            id: 1,
        })
        .eval(&mut dev, vp());
        assert!(hs.value_at(Point::new(5.0, 2.0)).has(2));
        assert!(hs.value_at(Point::new(5.0, 8.0)).is_null());
    }

    #[test]
    fn cost_prefers_fused_polygon_set() {
        let table: AreaSource = Arc::new((0..8).map(|i| square(i as f64, 0.0, 0.5)).collect());
        let unfused = Expr::multi_blend(
            BlendFn::AreaCount,
            (0..8)
                .map(|i| Expr::polygon_record(table.clone(), i, i as u32))
                .collect(),
        );
        let fused = Expr::polygon_set(table, BlendFn::AreaCount);
        assert!(fused.cost() < unfused.cost());
    }

    #[test]
    fn value_transform_node_evaluates() {
        // One Voronoi insertion step expressed as a plan node.
        let mut dev = Device::nvidia();
        let site = Point::new(5.0, 5.0);
        let plan = Expr::value_transform(
            "voronoi step",
            Arc::new(move |p: Point, _| crate::info::Texel::area(0, p.dist_sq(site) as f32, 0.0)),
            Expr::literal(Canvas::empty(vp())),
        );
        assert!(plan.plan().contains("V[voronoi step]"));
        let c = plan.eval(&mut dev, vp());
        assert_eq!(c.non_null_count(), 16 * 16);
        let near = c.value_at(Point::new(5.0, 5.0)).get(2).unwrap().v1;
        let far = c.value_at(Point::new(0.5, 0.5)).get(2).unwrap().v1;
        assert!(near < far);
    }

    #[test]
    fn geom_transform_node_evaluates() {
        let mut dev = Device::nvidia();
        let data = Arc::new(PointBatch::from_points(vec![Point::new(1.0, 1.0)]));
        let moved = Expr::geom_transform(
            PositionMap::Translate(Point::new(4.0, 4.0)),
            Expr::points(data),
        )
        .eval(&mut dev, vp());
        assert!(moved.value_at(Point::new(5.0, 5.0)).has(0));
    }
}
