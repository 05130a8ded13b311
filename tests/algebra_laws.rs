//! Integration + property tests for the algebra's structural laws:
//! closure, blend associativity (Section 3.2), mask idempotence,
//! dissect/blend reconstruction, and rewrite-equivalence (Section 7).

use std::sync::Arc;

use canvas_algebra::prelude::*;
use canvas_core::algebra::{flatten_multiblend, optimize, Expr};
use canvas_core::ops::{self, CountCond, MaskSpec};
use proptest::prelude::*;

fn extent() -> BBox {
    BBox::new(Point::new(0.0, 0.0), Point::new(100.0, 100.0))
}

fn vp() -> Viewport {
    Viewport::square_pixels(extent(), 64)
}

#[test]
fn mask_is_idempotent() {
    let mut dev = Device::nvidia();
    let pts = uniform_points(&extent(), 500, 3);
    let q = star_polygon(
        &BBox::new(Point::new(20.0, 20.0), Point::new(80.0, 80.0)),
        48,
        0.5,
        4,
    );
    let cp = render_points(&mut dev, vp(), &PointBatch::from_points(pts));
    let cq = render_query_polygon(&mut dev, vp(), q, 1);
    let merged = blend(&mut dev, &cp, &cq, BlendFn::PointOverArea);
    let spec = MaskSpec::PointInAreas(CountCond::Ge(1));
    let once = mask(&mut dev, &merged, &spec);
    let twice = mask(&mut dev, &once, &spec);
    assert_eq!(once.texels(), twice.texels());
    assert_eq!(once.point_records(), twice.point_records());
}

#[test]
fn dissect_then_multiway_blend_reconstructs() {
    // D followed by B*[∪] is the identity on canvas support.
    let mut dev = Device::nvidia();
    let pts = uniform_points(&extent(), 40, 9);
    let c = render_points(&mut dev, vp(), &PointBatch::from_points(pts));
    let parts = ops::dissect(&c);
    let refs: Vec<&canvas_core::Canvas> = parts.iter().collect();
    let rebuilt = ops::multiway_blend(&mut dev, &refs, BlendFn::Over).unwrap();
    for (x, y, t) in c.non_null() {
        assert_eq!(rebuilt.texel(x, y), t, "mismatch at ({x},{y})");
    }
    assert_eq!(rebuilt.non_null_count(), c.non_null_count());
}

#[test]
fn blend_with_empty_canvas_is_identity() {
    let mut dev = Device::nvidia();
    let pts = uniform_points(&extent(), 100, 13);
    let c = render_points(&mut dev, vp(), &PointBatch::from_points(pts));
    let empty = canvas_core::Canvas::empty(vp());
    let merged = blend(&mut dev, &c, &empty, BlendFn::Over);
    assert_eq!(merged.texels(), c.texels());
}

#[test]
fn geometric_transform_invertible() {
    // Translating there and back preserves the result set.
    let mut dev = Device::nvidia();
    let pts = uniform_points(&extent(), 200, 17);
    let c = render_points(&mut dev, vp(), &PointBatch::from_points(pts));
    let fwd = ops::transform_positions(
        &mut dev,
        &c,
        &ops::PositionMap::Translate(Point::new(3.0, -2.0)),
        vp(),
    );
    let back = ops::transform_positions(
        &mut dev,
        &fwd,
        &ops::PositionMap::Translate(Point::new(-3.0, 2.0)),
        vp(),
    );
    // Points near the border may leave the viewport and be pruned; all
    // surviving records must land back where they started.
    for e in back.boundary().points() {
        let orig = c
            .boundary()
            .points()
            .find(|o| o.record == e.record)
            .expect("record existed");
        assert!(orig.loc.dist(e.loc) < 1e-9);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Associative blends really associate on arbitrary texel triples.
    /// Metadata is integer-valued (counts / integral weights) — that is
    /// what the paper's blends accumulate, and it keeps f32 addition
    /// exact so the algebraic law holds bitwise.
    #[test]
    fn blend_fn_associativity(
        ids in prop::array::uniform3(0u32..100),
        v1s_i in prop::array::uniform3(0u16..1000),
        v2s_i in prop::array::uniform3(0u16..1000),
        dims in prop::array::uniform3(0usize..3),
    ) {
        let v1s: Vec<f32> = v1s_i.iter().map(|&v| v as f32).collect();
        let v2s: Vec<f32> = v2s_i.iter().map(|&v| v as f32).collect();
        let texels: Vec<Texel> = (0..3)
            .map(|i| Texel::with_dim(dims[i], DimInfo::new(ids[i], v1s[i], v2s[i])))
            .collect();
        for op in [BlendFn::Over, BlendFn::Accumulate, BlendFn::PointAccumulate, BlendFn::AreaCount] {
            prop_assert!(op.is_associative());
            let left = op.apply(op.apply(texels[0], texels[1]), texels[2]);
            let right = op.apply(texels[0], op.apply(texels[1], texels[2]));
            prop_assert_eq!(left, right, "{:?}", op);
        }
    }

    /// ∅ is the identity of Over on both sides.
    #[test]
    fn over_identity(
        id in 0u32..100,
        v1 in 0.0f32..10.0,
        d in 0usize..3,
    ) {
        let t = Texel::with_dim(d, DimInfo::new(id, v1, 0.0));
        prop_assert_eq!(BlendFn::Over.apply(t, Texel::null()), t);
        prop_assert_eq!(BlendFn::Over.apply(Texel::null(), t), t);
    }

    /// Plan rewriting never changes query answers (Section 7's plan-
    /// equivalence requirement) and never increases the cost heuristic.
    #[test]
    fn rewrites_preserve_semantics(
        seed in 0u64..500,
        k in 1usize..4,
        n in 50usize..300,
    ) {
        let pts = uniform_points(&extent(), n, seed);
        let data = Arc::new(PointBatch::from_points(pts));
        let polys: Vec<Polygon> = (0..k)
            .map(|i| star_polygon(
                &BBox::new(Point::new(10.0, 10.0), Point::new(90.0, 90.0)),
                16,
                0.5,
                seed * 31 + i as u64,
            ))
            .collect();
        let plan = canvas_core::queries::selection::points_in_polygons_plan(
            data,
            &polys,
            canvas_core::queries::selection::MultiPolygon::Disjunction,
        );
        let optimized = optimize(plan.clone());
        let flattened = flatten_multiblend(plan.clone());

        let mut d1 = Device::nvidia();
        let r1 = plan.eval(&mut d1, vp());
        let mut d2 = Device::nvidia();
        let r2 = optimized.eval(&mut d2, vp());
        let mut d3 = Device::nvidia();
        let r3 = flattened.eval(&mut d3, vp());
        prop_assert_eq!(r1.point_records(), r2.point_records());
        prop_assert_eq!(r2.point_records(), r3.point_records());
        prop_assert!(optimized.cost() <= plan.cost() + 1e-9);
    }

    /// Closure: the output of any operator chain is a canvas that can be
    /// masked again without error, and empty masks produce empty
    /// canvases (the pruning convention of Section 4).
    #[test]
    fn closure_and_pruning(seed in 0u64..200, n in 10usize..200) {
        let pts = uniform_points(&extent(), n, seed);
        let mut dev = Device::nvidia();
        let c = render_points(&mut dev, vp(), &PointBatch::from_points(pts));
        let never = MaskSpec::Texel("false", Arc::new(|_: &Texel| false));
        let masked = mask(&mut dev, &c, &never);
        prop_assert!(masked.is_empty());
        let again = mask(&mut dev, &masked, &never);
        prop_assert!(again.is_empty());
    }
}

#[test]
fn expression_plans_print_paper_figures() {
    // Figure 8(b)'s plan shape is reproducible from the builder API.
    let data = Arc::new(PointBatch::from_points(vec![Point::new(1.0, 1.0)]));
    let table: AreaSource = Arc::new(vec![
        star_polygon(&extent(), 12, 0.3, 1),
        star_polygon(&extent(), 12, 0.3, 2),
    ]);
    let plan = Expr::mask(
        MaskSpec::PointInAreas(CountCond::Ge(1)),
        Expr::blend(
            BlendFn::PointOverArea,
            Expr::points(data),
            Expr::multi_blend(
                BlendFn::AreaCount,
                vec![
                    Expr::polygon_record(table.clone(), 0, 0),
                    Expr::polygon_record(table, 1, 1),
                ],
            ),
        ),
    );
    let diagram = plan.plan();
    assert!(diagram.contains("Mp'"));
    assert!(diagram.contains("B[⊙]"));
    assert!(diagram.contains("B*[⊕]"));
    let fused = optimize(plan).plan();
    assert!(fused.contains("C_Y*[2 polygons"));
}
