//! The Blend operator `B[⊙](C₁, C₂)` and the derived Multiway Blend
//! `B*[⊙](C₁ … Cₙ)` (paper Sections 3.1, 3.2).
//!
//! Blend merges two canvases pixel-wise through a blend function
//! `⊙ : S³ × S³ → S³` — on the GPU this is programmable alpha blending
//! of two textures. Both canvases must share a viewport (the Geometric
//! Transform operator exists to align them first).
//!
//! The certain-cover planes add and the boundary indexes merge (with
//! geometry-source remapping), so exactness survives composition.
//!
//! The texel and cover blend passes run band-parallel on the device's
//! persistent worker pool (`Pipeline::blend_into`); per-texel blends
//! are independent, so the decomposition cannot change the result.

use crate::canvas::{register_source, Canvas};
use crate::device::Device;
use crate::info::BlendFn;

/// `C' = B[⊙](a, b)` — pixel-wise blend of two canvases.
///
/// Panics when the viewports differ: the algebra requires operands in a
/// common coordinate system (paper Section 3.1, Geometric Transform
/// discussion).
pub fn blend(dev: &mut Device, a: &Canvas, b: &Canvas, op: BlendFn) -> Canvas {
    assert_eq!(
        a.viewport(),
        b.viewport(),
        "blend operands must share a viewport"
    );
    let vp = *a.viewport();

    // Texel plane: programmable blend pass. Every built-in `BlendFn`
    // lowers to a SIMD row kernel (`BlendFn::tag`) that is bit-identical
    // to per-texel `apply` — same work counters, same banding.
    let mut texels = a.texels().clone();
    dev.pipeline()
        .blend_into_tagged(&mut texels, b.texels(), op.tag());

    // Certain-cover planes add (2-primitive cover counts are additive):
    // the SIMD saturating-add row kernel.
    let mut cover = a.cover().clone();
    dev.pipeline().blend_cover_into(&mut cover, b.cover());

    // Merge geometry sources, then boundary entries: one linear merge
    // of the operands' runs, written once.
    let mut area_sources = a.area_sources().to_vec();
    let mut line_sources = a.line_sources().to_vec();
    let area_remap: Vec<u16> = b
        .area_sources()
        .iter()
        .map(|s| register_source(&mut area_sources, s.clone()))
        .collect();
    let line_remap: Vec<u16> = b
        .line_sources()
        .iter()
        .map(|s| register_source(&mut line_sources, s.clone()))
        .collect();
    let boundary = a.boundary().merged(b.boundary(), &area_remap, &line_remap);
    Canvas::from_parts(vp, texels, cover, boundary, area_sources, line_sources)
}

/// `C' = B*[⊙](inputs…)` — left-deep fold of the binary blend
/// (Section 3.2). For associative `⊙` the grouping is free; the rewrite
/// module exploits that.
pub fn multiway_blend(dev: &mut Device, inputs: &[&Canvas], op: BlendFn) -> Option<Canvas> {
    let (first, rest) = inputs.split_first()?;
    let mut acc = (*first).clone();
    for c in rest {
        acc = blend(dev, &acc, c, op);
    }
    Some(acc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::canvas::PointBatch;
    use crate::info::Texel;
    use crate::source::{render_points, render_query_polygon};
    use canvas_geom::{BBox, Point, Polygon};
    use canvas_raster::Viewport;

    fn vp() -> Viewport {
        Viewport::new(
            BBox::new(Point::new(0.0, 0.0), Point::new(10.0, 10.0)),
            10,
            10,
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
    fn blend_points_with_polygon_figure1() {
        // The running example of Figure 1(b): merge points and polygon.
        let mut dev = Device::nvidia();
        let points = render_points(
            &mut dev,
            vp(),
            &PointBatch::from_points(vec![Point::new(4.5, 4.5), Point::new(0.5, 0.5)]),
        );
        let poly = render_query_polygon(&mut dev, vp(), square(3.0, 3.0, 4.0), 1);
        let merged = blend(&mut dev, &points, &poly, BlendFn::PointOverArea);
        // Point inside polygon: both rows present.
        let t = merged.texel(4, 4);
        assert!(t.has(0));
        assert!(t.has(2));
        // Point outside: only 0-row.
        let t = merged.texel(0, 0);
        assert!(t.has(0));
        assert!(!t.has(2));
        // Polygon-only interior: only 2-row.
        let t = merged.texel(5, 5);
        assert!(!t.has(0));
        assert!(t.has(2));
        // Boundary info carried through.
        assert_eq!(merged.boundary().num_points(), 2);
        assert!(merged.boundary().num_areas() > 0);
        assert_eq!(merged.area_sources().len(), 1);
    }

    #[test]
    fn blend_cover_planes_add() {
        let mut dev = Device::nvidia();
        let a = render_query_polygon(&mut dev, vp(), square(1.0, 1.0, 6.0), 1);
        let b = render_query_polygon(&mut dev, vp(), square(3.0, 3.0, 6.0), 2);
        let m = blend(&mut dev, &a, &b, BlendFn::AreaCount);
        assert_eq!(m.cover().get(5, 5), 2); // overlap
        assert_eq!(m.cover().get(2, 2), 1); // a only
        assert_eq!(m.cover().get(8, 8), 1); // b only
        assert_eq!(m.texel(5, 5).get(2).unwrap().v1, 2.0);
    }

    #[test]
    fn blend_with_empty_is_identity_for_over() {
        let mut dev = Device::nvidia();
        let a = render_points(
            &mut dev,
            vp(),
            &PointBatch::from_points(vec![Point::new(2.5, 2.5)]),
        );
        let empty = Canvas::empty(vp());
        let m = blend(&mut dev, &a, &empty, BlendFn::Over);
        assert_eq!(m.texel(2, 2), a.texel(2, 2));
        assert_eq!(m.non_null_count(), 1);
    }

    #[test]
    fn multiway_blend_folds_in_order() {
        let mut dev = Device::nvidia();
        let canvases: Vec<Canvas> = (0..3)
            .map(|i| {
                render_points(
                    &mut dev,
                    vp(),
                    &PointBatch::from_points(vec![Point::new(4.5, 4.5 + 0.01 * i as f64)]),
                )
            })
            .collect();
        let refs: Vec<&Canvas> = canvases.iter().collect();
        let m = multiway_blend(&mut dev, &refs, BlendFn::PointAccumulate).unwrap();
        assert_eq!(m.texel(4, 4).get(0).unwrap().v1, 3.0);
        assert!(multiway_blend(&mut dev, &[], BlendFn::Over).is_none());
    }

    #[test]
    fn blend_output_closed_under_algebra() {
        // Closure property: the output is a canvas usable as an input.
        let mut dev = Device::nvidia();
        let a = render_query_polygon(&mut dev, vp(), square(1.0, 1.0, 4.0), 1);
        let b = render_query_polygon(&mut dev, vp(), square(2.0, 2.0, 4.0), 2);
        let ab = blend(&mut dev, &a, &b, BlendFn::AreaCount);
        let c = render_query_polygon(&mut dev, vp(), square(3.0, 3.0, 4.0), 3);
        let abc = blend(&mut dev, &ab, &c, BlendFn::AreaCount);
        assert_eq!(abc.texel(3, 3).get(2).unwrap().v1, 3.0);
    }

    #[test]
    fn shared_source_tables_not_duplicated() {
        let mut dev = Device::nvidia();
        let table: crate::canvas::AreaSource =
            std::sync::Arc::new(vec![square(1.0, 1.0, 3.0), square(5.0, 5.0, 3.0)]);
        let a = crate::source::render_polygon(&mut dev, vp(), &table, 0, 0);
        let b = crate::source::render_polygon(&mut dev, vp(), &table, 1, 1);
        let m = blend(&mut dev, &a, &b, BlendFn::AreaCount);
        assert_eq!(m.area_sources().len(), 1, "identical Arc deduplicated");
    }

    #[test]
    #[should_panic(expected = "share a viewport")]
    fn mismatched_viewports_panic() {
        let mut dev = Device::nvidia();
        let a = Canvas::empty(vp());
        let other = Viewport::new(
            BBox::new(Point::new(0.0, 0.0), Point::new(5.0, 5.0)),
            10,
            10,
        );
        let b = Canvas::empty(other);
        let _ = blend(&mut dev, &a, &b, BlendFn::Over);
    }

    #[test]
    fn blended_value_matches_pointwise_apply() {
        let mut dev = Device::nvidia();
        let points = render_points(
            &mut dev,
            vp(),
            &PointBatch::from_points(vec![Point::new(4.5, 4.5)]),
        );
        let poly = render_query_polygon(&mut dev, vp(), square(3.0, 3.0, 4.0), 1);
        let merged = blend(&mut dev, &points, &poly, BlendFn::PointOverArea);
        for y in 0..10 {
            for x in 0..10 {
                let expect = BlendFn::PointOverArea.apply(points.texel(x, y), poly.texel(x, y));
                assert_eq!(merged.texel(x, y), expect, "at ({x},{y})");
            }
        }
        let _ = Texel::null();
    }
}
