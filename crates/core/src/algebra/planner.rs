//! Cost-based physical plan choice (paper Section 7).
//!
//! "By appropriately modeling the cost functions of the operators
//! together with metadata about the input, the optimizer can choose a
//! plan that has a lower cost." This module is that optimizer step for
//! selection queries: given input statistics and a device profile, it
//! prices the two physical strategies —
//!
//! * **canvas plan**: render data + constraints, blend, mask
//!   (per-point cost independent of polygon complexity), vs
//! * **PIP refinement**: per-point point-in-polygon tests
//!   (cost ∝ points × constraints × vertices, but no canvas overheads),
//!
//! and picks the cheaper. The crossover it finds is the one this
//! module's tests pin: tiny inputs with simple polygons favor direct
//! refinement; everything else favors the canvas.
//!
//! ## Physical forms of plan nodes
//!
//! The evaluator asks this module which physical form a plan node runs
//! in. One shape has an **entry form**: the selection
//! `M(B[⊙](C_P, R))` under the exact point mask `Mp(cond)` or the
//! heatmaps' coarse `M[point ∧ area]`. Its canvas is null everywhere
//! except at pixels holding a point the mask keeps, and what it holds
//! there is a function of those points and of `R`'s texel at their
//! pixel. So the planner runs it as one walk over `C_P`'s point run
//! against `R`: `R` is the filter raster, the exact test on its
//! boundary pixels the refinement. Three sinks finish the walk:
//!
//! * [`selection_sink`] matches the Mask node itself; the walk writes
//!   only the kept pixels and entries into an empty canvas
//!   ([`select_point_entries_in_areas`]);
//! * [`value_sink`] matches a built-in `V[tag]` over that Mask; the
//!   same walk runs the value kernel on each kept texel (the selection
//!   heatmap);
//! * [`entry_sink`] matches a `D*[γ]` over that Mask; the walk folds
//!   each kept pixel's texel into its group slot
//!   ([`scatter_point_entries_in_areas`]).
//!
//! Either way the blend plane is never written, probed or published,
//! and the mask plane is never written.
//!
//! The match is structural and narrow on purpose: `C_P` must be a
//! `Points` source and `R` a source that carries no point entries
//! (`Polygon`, `PolygonSet`, `Circle`, `Rect`, `HalfSpace`). **Trap:**
//! if `R` carried point entries (a points source, a literal canvas),
//! the dense mask would keep them too, but the walk only visits `C_P`'s
//! run — it would silently lose them.
//!
//! The other form is the **chain** ([`kernel_node`]): a pixel-local
//! kernel node — a built-in `V[tag]` or `M[tag]`, or a `B` / `B*` whose
//! other inputs are evaluated as operands — runs in place over a copy
//! of the canvas it rewrites (`ops::chain::run_chain`), and a stack of
//! them on one canvas runs as one such pass, with no intermediate
//! canvas. The choropleth
//! `V[log](M[inside ∧ ≥1](B*[⊕](C_Y*, C_tag)))` is one: its `B[⊕]` is
//! `B*[⊕]` in normal form (`⊕` is associative), and the tag leaf is
//! its own source kind, so polygon-leaf fusion never folds it into the
//! table. A sink ends a stack: the sink is the chain's input. Every
//! other node stays dense.
//!
//! [`select_point_entries_in_areas`]: crate::ops::mask::select_point_entries_in_areas
//! [`scatter_point_entries_in_areas`]: crate::ops::mask::scatter_point_entries_in_areas

use super::expr::{Expr, SourceSpec};
use crate::info::BlendFn;
use crate::ops::chain::ChainKernel;
use crate::ops::{MaskSpec, PixelRule, ValueFn};
use canvas_raster::{DeviceProfile, MaskTag, PipelineStats, ValueTag};

/// A selection `M(B[⊙](points, areas))` the planner runs in entry form
/// (see module docs): the operands and the mask's pixel rule.
#[derive(Clone, Copy, Debug)]
pub struct EntrySink<'a> {
    /// The `C_P` operand: a `Points` source.
    pub points: &'a Expr,
    /// The area operand: a source without point entries.
    pub areas: &'a Expr,
    pub rule: PixelRule,
}

/// The planner's rule for `Mask` nodes: `Some` when `e` is a selection
/// that runs in the entry form and writes its canvas from the walk
/// (see module docs), `None` when it stays dense.
pub fn selection_sink(e: &Expr) -> Option<EntrySink<'_>> {
    let Expr::Mask { spec, input } = e else {
        return None;
    };
    let rule = match spec {
        MaskSpec::PointInAreas(cond) => PixelRule::PointInAreas(*cond),
        MaskSpec::Tagged(MaskTag::PointAndArea) => PixelRule::PointAndArea,
        _ => return None,
    };
    let Expr::Blend {
        op: BlendFn::PointOverArea,
        left,
        right,
    } = &**input
    else {
        return None;
    };
    let points = matches!(**left, Expr::Source(SourceSpec::Points(_)));
    let areas = matches!(
        **right,
        Expr::Source(
            SourceSpec::Polygon { .. }
                | SourceSpec::PolygonSet { .. }
                | SourceSpec::Circle { .. }
                | SourceSpec::Rect { .. }
                | SourceSpec::HalfSpace { .. }
        )
    );
    (points && areas).then_some(EntrySink {
        points: left,
        areas: right,
        rule,
    })
}

/// The planner's rule for `ValueTransform` nodes: `Some` when `e` is a
/// built-in `V[tag]` over a [`selection_sink`] selection, which the
/// walk finishes with the value kernel (see module docs). Value
/// kernels leave null texels null, so transforming only the kept
/// pixels is the whole transform.
pub fn value_sink(e: &Expr) -> Option<(EntrySink<'_>, ValueTag)> {
    let Expr::ValueTransform {
        f: ValueFn::Tagged(tag),
        input,
    } = e
    else {
        return None;
    };
    Some((selection_sink(input)?, *tag))
}

/// The planner's rule for `MapScatter` nodes: `Some` when `e` maps a
/// [`selection_sink`] selection, which then folds into the group slots
/// (see module docs), `None` when it stays dense.
pub fn entry_sink(e: &Expr) -> Option<EntrySink<'_>> {
    let Expr::MapScatter { input, .. } = e else {
        return None;
    };
    selection_sink(input)
}

/// The planner's chain rule: for a pixel-local kernel node — a built-in
/// `V[tag]` or `M[tag]`, or a `B` / `B*` of two or more inputs — its
/// kernel, the canvas it rewrites (its first input) and the operands
/// its Blend kernels read, in order; `None` for any other node and for
/// a sink. A kernel node runs as a chain over its input, and a kernel
/// node over a kernel node folds the one below into its chain (see
/// module docs).
pub fn kernel_node(e: &Expr) -> Option<(ChainKernel, &Expr, &[Expr])> {
    if selection_sink(e).is_some() || value_sink(e).is_some() {
        return None;
    }
    match e {
        Expr::ValueTransform {
            f: ValueFn::Tagged(tag),
            input,
        } => Some((ChainKernel::Value(*tag), input, &[])),
        Expr::Mask {
            spec: MaskSpec::Tagged(tag),
            input,
        } => Some((ChainKernel::Mask(*tag), input, &[])),
        Expr::Blend { op, left, right } => Some((
            ChainKernel::Blend(*op),
            left,
            std::slice::from_ref(&**right),
        )),
        Expr::MultiBlend { op, inputs } if inputs.len() >= 2 => {
            Some((ChainKernel::Blend(*op), &inputs[0], &inputs[1..]))
        }
        _ => None,
    }
}

/// Input statistics the optimizer consults (relational-style metadata).
#[derive(Clone, Copy, Debug)]
pub struct SelectionStats {
    /// Number of input points (inside the filter MBR).
    pub num_points: u64,
    /// Number of constraint polygons.
    pub num_constraints: u32,
    /// Average vertices per constraint polygon.
    pub avg_vertices: u32,
    /// Canvas resolution (longer side, pixels).
    pub resolution: u32,
    /// Fraction of canvas pixels a constraint covers (≈ selectivity).
    pub coverage: f64,
}

/// The two physical strategies for a polygonal selection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SelectionStrategy {
    /// Blend + mask on the canvas pipeline.
    CanvasBlendMask,
    /// Direct per-point PIP refinement (compute kernel).
    PipRefinement,
}

/// A priced plan choice.
#[derive(Clone, Debug)]
pub struct PlanChoice {
    pub strategy: SelectionStrategy,
    pub canvas_cost: f64,
    pub pip_cost: f64,
}

/// Predicted pipeline work of the canvas selection plan.
pub fn canvas_plan_stats(s: &SelectionStats) -> PipelineStats {
    let texels = (s.resolution as u64).pow(2);
    let constraint_fragments = ((texels as f64) * s.coverage * s.num_constraints as f64) as u64;
    PipelineStats {
        // points render + constraint render + blend + mask.
        passes: 4,
        vertices: s.num_points + (s.num_constraints * s.avg_vertices) as u64,
        primitives: s.num_points + s.num_constraints as u64,
        fragments: s.num_points + constraint_fragments,
        boundary_fragments: 0,
        blend_ops: s.num_points + constraint_fragments + 2 * texels,
        fullscreen_texels: 2 * texels, // blend pass + mask pass
        scatter_reads: 0,
        scatter_writes: 0,
        bytes_uploaded: s.num_points * 16 + (s.num_constraints * s.avg_vertices) as u64 * 16,
        bytes_downloaded: s.num_points / 8,
        compute_edge_tests: 0,
    }
}

/// Predicted work of the direct PIP strategy.
pub fn pip_plan_stats(s: &SelectionStats) -> PipelineStats {
    PipelineStats {
        passes: 1,
        bytes_uploaded: s.num_points * 8 + (s.num_constraints * s.avg_vertices) as u64 * 8,
        bytes_downloaded: s.num_points / 8,
        compute_edge_tests: s.num_points * (s.num_constraints * s.avg_vertices) as u64,
        ..Default::default()
    }
}

/// Prices both strategies on the device and returns the cheaper one.
pub fn choose_selection_strategy(profile: &DeviceProfile, s: &SelectionStats) -> PlanChoice {
    let canvas_cost = profile.estimate(&canvas_plan_stats(s));
    let pip_cost = profile.estimate(&pip_plan_stats(s));
    PlanChoice {
        strategy: if canvas_cost <= pip_cost {
            SelectionStrategy::CanvasBlendMask
        } else {
            SelectionStrategy::PipRefinement
        },
        canvas_cost,
        pip_cost,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::canvas::{Canvas, PointBatch};
    use crate::ops::{CountCond, ValueMap};
    use canvas_geom::{BBox, Point, Polygon};
    use canvas_raster::Viewport;
    use std::sync::Arc;

    fn aggregate(left: Expr, right: Expr, spec: MaskSpec, op: BlendFn) -> Expr {
        Expr::map_scatter(
            ValueMap::area_id_slot(),
            2,
            BlendFn::Accumulate,
            Expr::mask(spec, Expr::blend(op, left, right)),
        )
    }

    /// The Mask under a Map.
    fn selection(plan: &Expr) -> &Expr {
        match plan {
            Expr::MapScatter { input, .. } => input,
            other => other,
        }
    }

    #[test]
    fn entry_sink_matches_only_point_free_area_operands() {
        let data = Arc::new(PointBatch::from_points(vec![Point::new(1.0, 1.0)]));
        let points = || Expr::points(data.clone());
        let square = Polygon::rect(&BBox::new(Point::new(0.0, 0.0), Point::new(5.0, 5.0)));
        let vp = Viewport::new(BBox::new(Point::new(0.0, 0.0), Point::new(8.0, 8.0)), 8, 8);
        let select = MaskSpec::PointInAreas(CountCond::Eq(2));
        let areas = [
            Expr::query_polygon(square.clone(), 1),
            Expr::polygon_set(Arc::new(vec![square.clone()]), BlendFn::AreaCount),
            Expr::Source(SourceSpec::Circle {
                center: Point::new(4.0, 4.0),
                radius: 2.0,
                id: 1,
            }),
            Expr::Source(SourceSpec::Rect {
                l1: Point::new(1.0, 1.0),
                l2: Point::new(3.0, 3.0),
                id: 1,
            }),
            Expr::Source(SourceSpec::HalfSpace {
                a: 1.0,
                b: 0.0,
                c: -4.0,
                id: 1,
            }),
        ];
        for right in areas {
            let plan = aggregate(points(), right, select.clone(), BlendFn::PointOverArea);
            let sink = entry_sink(&plan).expect("entry form");
            assert_eq!(sink.rule, PixelRule::PointInAreas(CountCond::Eq(2)));
            assert!(matches!(sink.points, Expr::Source(SourceSpec::Points(_))));
            // The Mask under the Map is the canvas sink's match; the Map
            // itself is not a Mask.
            let mask = selection(&plan);
            let canvas = selection_sink(mask).expect("canvas form");
            assert!(std::ptr::eq(canvas.areas, sink.areas));
            assert!(selection_sink(&plan).is_none());
        }
        // Everything else stays dense: a right operand that may carry
        // point entries (the trap), a literal left, another mask or
        // blend, and a Map over anything but a mask over a blend.
        let literal = || Expr::literal(Canvas::empty(vp));
        let polygon = || Expr::query_polygon(square.clone(), 1);
        let texel = MaskSpec::Texel("any", Arc::new(|_: &crate::info::Texel| true));
        let dense = [
            aggregate(points(), points(), select.clone(), BlendFn::PointOverArea),
            aggregate(points(), literal(), select.clone(), BlendFn::PointOverArea),
            aggregate(literal(), polygon(), select.clone(), BlendFn::PointOverArea),
            aggregate(points(), polygon(), texel, BlendFn::PointOverArea),
            aggregate(points(), polygon(), select.clone(), BlendFn::Over),
            Expr::map_scatter(ValueMap::area_id_slot(), 2, BlendFn::Accumulate, points()),
            Expr::mask(
                select,
                Expr::blend(BlendFn::PointOverArea, points(), polygon()),
            ),
        ];
        for plan in &dense {
            assert!(entry_sink(plan).is_none(), "{plan:?}");
        }
        // The canvas sink keeps the same trap: every dense Map's Mask
        // stays dense, and only the bare selection (last) matches.
        let (bare, maps) = dense.split_last().unwrap();
        for plan in maps {
            assert!(selection_sink(selection(plan)).is_none(), "{plan:?}");
        }
        let rule = selection_sink(bare).unwrap().rule;
        assert_eq!(rule, PixelRule::PointInAreas(CountCond::Eq(2)));
    }

    #[test]
    fn heatmap_plans_take_the_walk_and_the_chain() {
        let data = Arc::new(PointBatch::from_points(vec![Point::new(1.0, 1.0)]));
        let square = Polygon::rect(&BBox::new(Point::new(0.0, 0.0), Point::new(5.0, 5.0)));
        let zones = Arc::new(vec![square.clone()]);
        // The selection heatmap: the coarse mask is a sink's rule and
        // the value kernel finishes the walk.
        let heat = crate::queries::heatmap::selection_heatmap_plan(data.clone(), square.clone());
        let (sink, tag) = value_sink(&heat).expect("walk form");
        assert_eq!(
            (sink.rule, tag),
            (PixelRule::PointAndArea, ValueTag::HeatLog)
        );
        assert!(kernel_node(&heat).is_none(), "a sink is no chain");
        // The choropleth, normalized as the engine runs it: `B[⊕]`
        // flattens into `B*[⊕]`, the tag leaf is not fused into the
        // table, and the three kernel nodes run as one chain over C_Y*.
        let density =
            crate::algebra::normalize(crate::queries::heatmap::polygon_density_plan(zones, square));
        let Expr::ValueTransform { input: mask, .. } = &density else {
            unreachable!()
        };
        let Expr::Mask { input: multi, .. } = &**mask else {
            unreachable!()
        };
        let (kernel, table, operands) = kernel_node(multi).expect("B*[⊕] is a kernel");
        assert_eq!(kernel, ChainKernel::Blend(BlendFn::AreaCount));
        assert!(matches!(table, Expr::Source(SourceSpec::PolygonSet { .. })));
        assert!(matches!(operands, [Expr::Source(SourceSpec::QueryTag(_))]));
        let tag = crate::source::QUERY_TAG;
        let kernels = [&density, mask].map(|e| kernel_node(e).unwrap().0);
        assert_eq!(
            kernels,
            [
                ChainKernel::Value(ValueTag::DensityLog { tag }),
                ChainKernel::Mask(MaskTag::AreaV1Above { threshold: tag }),
            ]
        );
        // The chain stops at its input, and a closure is no kernel.
        assert!(kernel_node(table).is_none());
        assert!(kernel_node(&Expr::multi_blend(BlendFn::Over, vec![(**mask).clone()])).is_none());
        let named = Expr::value_transform("id", Arc::new(|_, t| t), (**mask).clone());
        assert!(kernel_node(&named).is_none());
    }

    fn stats(num_points: u64, num_constraints: u32, avg_vertices: u32) -> SelectionStats {
        SelectionStats {
            num_points,
            num_constraints,
            avg_vertices,
            resolution: 512,
            coverage: 0.3,
        }
    }

    #[test]
    fn tiny_simple_queries_prefer_pip() {
        // 1k points against one square: rendering a 512² canvas is
        // overkill; the optimizer must see that.
        let profile = DeviceProfile::nvidia_gtx_1070_max_q();
        let choice = choose_selection_strategy(&profile, &stats(1_000, 1, 4));
        assert_eq!(choice.strategy, SelectionStrategy::PipRefinement);
        assert!(choice.pip_cost < choice.canvas_cost);
    }

    #[test]
    fn large_complex_queries_prefer_canvas() {
        let profile = DeviceProfile::nvidia_gtx_1070_max_q();
        let choice = choose_selection_strategy(&profile, &stats(10_000_000, 2, 128));
        assert_eq!(choice.strategy, SelectionStrategy::CanvasBlendMask);
        assert!(choice.canvas_cost < choice.pip_cost);
    }

    #[test]
    fn more_constraints_flip_the_decision() {
        // The Figure 9(c) phenomenon as a plan choice: at an input size
        // where one simple constraint still favors direct PIP, a
        // 16-constraint disjunction flips the decision to the canvas
        // because PIP pays per constraint and the canvas does not.
        let profile = DeviceProfile::nvidia_gtx_1070_max_q();
        let one = choose_selection_strategy(&profile, &stats(20_000, 1, 64));
        let many = choose_selection_strategy(&profile, &stats(20_000, 16, 64));
        assert_eq!(one.strategy, SelectionStrategy::PipRefinement);
        assert_eq!(many.strategy, SelectionStrategy::CanvasBlendMask);
        // PIP cost inflates with constraints; canvas cost barely moves.
        assert!(many.pip_cost > 4.0 * one.pip_cost);
        assert!(many.canvas_cost < 2.0 * one.canvas_cost);
    }

    #[test]
    fn crossover_exists_and_is_monotone() {
        // Along growing n, once the canvas wins it keeps winning.
        let profile = DeviceProfile::nvidia_gtx_1070_max_q();
        let mut seen_canvas = false;
        for exp in 8..26 {
            let n = 1u64 << exp;
            let c = choose_selection_strategy(&profile, &stats(n, 1, 128));
            if seen_canvas {
                assert_eq!(
                    c.strategy,
                    SelectionStrategy::CanvasBlendMask,
                    "regressed to PIP at n = {n}"
                );
            }
            if c.strategy == SelectionStrategy::CanvasBlendMask {
                seen_canvas = true;
            }
        }
        assert!(seen_canvas, "canvas never chosen");
    }

    #[test]
    fn devices_place_crossover_differently() {
        // Each device has a finite PIP→canvas crossover, and they land
        // at different input sizes: the decision is genuinely
        // device-dependent (Section 7's argument for pricing operators
        // per device). Interestingly the integrated GPU's crossover is
        // *earlier* — its compute units are weak relative to its fixed
        // raster costs, so per-point PIP work hurts it sooner.
        let find_crossover = |profile: &DeviceProfile| -> u64 {
            for exp in 6..30 {
                let n = 1u64 << exp;
                if choose_selection_strategy(profile, &stats(n, 1, 64)).strategy
                    == SelectionStrategy::CanvasBlendMask
                {
                    return n;
                }
            }
            u64::MAX
        };
        let nv = find_crossover(&DeviceProfile::nvidia_gtx_1070_max_q());
        let intel = find_crossover(&DeviceProfile::intel_uhd_630());
        assert!(nv != u64::MAX && intel != u64::MAX);
        assert_ne!(nv, intel, "crossovers should be device-specific");
        assert!(intel < nv, "weak compute units flip to canvas earlier");
    }
}
