//! Plan rewrites (paper Sections 3.2 and 7).
//!
//! The paper calls out two optimization hooks the algebra provides:
//!
//! * associative blend functions let the optimizer regroup multiway
//!   blends freely (Section 3.2) — [`flatten_multiblend`] normalizes
//!   nested binary blends of one associative op into a single `B*`,
//! * the same query admits multiple plans (Section 7) — e.g. a multiway
//!   blend over individual polygon-record leaves is equivalent to one
//!   instanced draw of the whole table; [`fuse_polygon_leaves`] performs
//!   that fusion, which is exactly the trick that makes the
//!   multi-constraint selection of Section 5.1 cheap.

use std::sync::Arc;

use super::expr::{Expr, SourceSpec};
use crate::info::BlendFn;

/// Applies all rewrites until fixpoint (bounded; the rules only shrink
/// or flatten the tree).
pub fn optimize(e: Expr) -> Expr {
    let e = flatten_multiblend(e);
    fuse_polygon_leaves(e)
}

/// Normalizes `B[op](B[op](a, b), c)` and nested `B*` of the same
/// associative op into a single flat `B*[op](a, b, c, …)`.
pub fn flatten_multiblend(e: Expr) -> Expr {
    match e {
        Expr::Blend { op, left, right } if op.is_associative() => {
            let mut inputs = Vec::new();
            collect(op, flatten_multiblend(*left), &mut inputs);
            collect(op, flatten_multiblend(*right), &mut inputs);
            Expr::MultiBlend { op, inputs }
        }
        Expr::MultiBlend { op, inputs } if op.is_associative() => {
            let mut out = Vec::new();
            for i in inputs {
                collect(op, flatten_multiblend(i), &mut out);
            }
            Expr::MultiBlend { op, inputs: out }
        }
        other => other.map_children(flatten_multiblend),
    }
}

fn collect(op: BlendFn, e: Expr, out: &mut Vec<Expr>) {
    match e {
        Expr::MultiBlend { op: inner, inputs } if inner == op => out.extend(inputs),
        Expr::Blend {
            op: inner,
            left,
            right,
        } if inner == op => {
            collect(op, *left, out);
            collect(op, *right, out);
        }
        other => out.push(other),
    }
}

/// Fuses `B*[op]` whose inputs are all single-polygon leaves from the
/// *same* table into one [`SourceSpec::PolygonSet`] instanced draw —
/// turning n full-canvas blend passes into n overlapping draw calls on
/// one target (a large win; see the `ablation_blend` bench).
pub fn fuse_polygon_leaves(e: Expr) -> Expr {
    match e {
        Expr::MultiBlend { op, inputs } => {
            let all_same_table: Option<crate::canvas::AreaSource> = match inputs.split_first() {
                Some((Expr::Source(SourceSpec::Polygon { table, .. }), rest)) => {
                    let t0 = table.clone();
                    let same = rest.iter().all(|e| {
                        matches!(
                            e,
                            Expr::Source(SourceSpec::Polygon { table, .. })
                            if Arc::ptr_eq(table, &t0)
                        )
                    });
                    // Fusion renders the full table; only valid when the
                    // leaves cover every record exactly once, in order.
                    let full_cover = same
                        && inputs.len() == t0.len()
                        && inputs.iter().enumerate().all(|(i, e)| {
                            matches!(
                                e,
                                Expr::Source(SourceSpec::Polygon { record, .. })
                                if *record == i
                            )
                        });
                    if full_cover {
                        Some(t0)
                    } else {
                        None
                    }
                }
                _ => None,
            };
            match all_same_table {
                Some(table) => Expr::Source(SourceSpec::PolygonSet { table, blend: op }),
                None => Expr::MultiBlend { op, inputs }.map_children(fuse_polygon_leaves),
            }
        }
        other => other.map_children(fuse_polygon_leaves),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::canvas::{AreaSource, PointBatch};
    use crate::device::Device;
    use crate::ops::{CountCond, MaskSpec};
    use canvas_geom::{BBox, Point, Polygon};
    use canvas_raster::Viewport;

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

    #[test]
    fn flatten_nested_binary_blends() {
        let table: AreaSource = Arc::new(vec![
            square(1.0, 1.0, 2.0),
            square(3.0, 3.0, 2.0),
            square(5.0, 5.0, 2.0),
        ]);
        let leaf = |i: usize| Expr::polygon_record(table.clone(), i, i as u32);
        let nested = Expr::blend(
            BlendFn::AreaCount,
            Expr::blend(BlendFn::AreaCount, leaf(0), leaf(1)),
            leaf(2),
        );
        let flat = flatten_multiblend(nested);
        match &flat {
            Expr::MultiBlend { op, inputs } => {
                assert_eq!(*op, BlendFn::AreaCount);
                assert_eq!(inputs.len(), 3);
            }
            other => panic!("expected MultiBlend, got\n{other:?}"),
        }
    }

    #[test]
    fn nonassociative_blend_not_flattened() {
        let data = Arc::new(PointBatch::from_points(vec![Point::new(1.0, 1.0)]));
        let e = Expr::blend(
            BlendFn::PointOverArea,
            Expr::points(data),
            Expr::query_polygon(square(0.0, 0.0, 5.0), 1),
        );
        match flatten_multiblend(e) {
            Expr::Blend { .. } => {}
            other => panic!("⊙ must stay binary, got\n{other:?}"),
        }
    }

    #[test]
    fn fuse_full_table_cover() {
        let table: AreaSource = Arc::new(vec![square(1.0, 1.0, 2.0), square(4.0, 4.0, 2.0)]);
        let e = Expr::multi_blend(
            BlendFn::AreaCount,
            vec![
                Expr::polygon_record(table.clone(), 0, 0),
                Expr::polygon_record(table.clone(), 1, 1),
            ],
        );
        match fuse_polygon_leaves(e) {
            Expr::Source(SourceSpec::PolygonSet { blend, .. }) => {
                assert_eq!(blend, BlendFn::AreaCount);
            }
            other => panic!("expected fusion, got\n{other:?}"),
        }
    }

    #[test]
    fn no_fusion_for_partial_cover() {
        let table: AreaSource = Arc::new(vec![
            square(1.0, 1.0, 2.0),
            square(4.0, 4.0, 2.0),
            square(7.0, 7.0, 2.0),
        ]);
        // Only 2 of 3 records: fusing would add the third polygon.
        let e = Expr::multi_blend(
            BlendFn::AreaCount,
            vec![
                Expr::polygon_record(table.clone(), 0, 0),
                Expr::polygon_record(table.clone(), 1, 1),
            ],
        );
        match fuse_polygon_leaves(e) {
            Expr::MultiBlend { .. } => {}
            other => panic!("must not fuse partial cover, got\n{other:?}"),
        }
    }

    #[test]
    fn rewrite_preserves_semantics() {
        // The Section 5.1 disjunction plan, unoptimized vs optimized,
        // must select the same records.
        let mut dev = Device::nvidia();
        let data = Arc::new(PointBatch::from_points(vec![
            Point::new(1.5, 1.5), // in q0
            Point::new(5.0, 5.0), // in q1
            Point::new(9.0, 1.0), // in neither
        ]));
        let table: AreaSource = Arc::new(vec![square(0.5, 0.5, 2.0), square(4.0, 4.0, 2.5)]);
        let plan = Expr::mask(
            MaskSpec::PointInAreas(CountCond::Ge(1)),
            Expr::blend(
                BlendFn::PointOverArea,
                Expr::points(data),
                Expr::multi_blend(
                    BlendFn::AreaCount,
                    vec![
                        Expr::polygon_record(table.clone(), 0, 0),
                        Expr::polygon_record(table.clone(), 1, 1),
                    ],
                ),
            ),
        );
        let optimized = optimize(plan.clone());
        let r1 = plan.eval(&mut dev, vp());
        let r2 = optimized.eval(&mut dev, vp());
        assert_eq!(r1.point_records(), vec![0, 1]);
        assert_eq!(r1.point_records(), r2.point_records());
        // And the optimizer reduced the cost heuristic.
        assert!(optimized.cost() <= plan.cost());
    }

    #[test]
    fn optimize_is_idempotent() {
        let table: AreaSource = Arc::new(vec![square(1.0, 1.0, 2.0), square(4.0, 4.0, 2.0)]);
        let e = Expr::multi_blend(
            BlendFn::AreaCount,
            vec![
                Expr::polygon_record(table.clone(), 0, 0),
                Expr::polygon_record(table.clone(), 1, 1),
            ],
        );
        let once = optimize(e);
        let twice = optimize(once.clone());
        assert_eq!(once.plan(), twice.plan());
    }
}
