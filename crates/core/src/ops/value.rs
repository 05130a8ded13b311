//! The Value Transform operator `V[f](C)` (paper Section 3.1).
//!
//! `C'(x, y) = f(x, y, C(x, y))` — a full-screen pass that rewrites the
//! information stored at each location based on the location and/or the
//! current value. The Voronoi stored procedure (Section 4.5) is built
//! entirely from this operator.

use std::sync::Arc;

use crate::canvas::Canvas;
use crate::device::Device;
use crate::info::Texel;
use canvas_geom::Point;
use canvas_raster::ValueTag;

/// A per-texel function `f(location, texel)` of a Value Transform.
pub type TexelFn = Arc<dyn Fn(Point, Texel) -> Texel + Send + Sync>;

/// The function of a Value Transform plan node `V[f]`.
#[derive(Clone)]
pub enum ValueFn {
    /// A built-in transform (the heatmaps' `ln(1 + count)` finishers):
    /// plan data, fingerprinted by value, and a kernel the planner can
    /// run in a chain or an entry walk.
    Tagged(ValueTag),
    /// A closure, named in plan diagrams and identified by that name.
    Named(&'static str, TexelFn),
}

/// `C' = V[f](C)`. The function receives the *world* coordinates of each
/// location (pixel center under discretization) and its current value.
///
/// Executes as a band-parallel full-screen pass on the device's worker
/// pool (per-texel rewrites are independent, so the decomposition
/// cannot change the result — bit-identical at any thread count). Small
/// planes run inline under the executor's minimum-work policy.
pub fn value_transform(
    dev: &mut Device,
    c: &Canvas,
    f: impl Fn(Point, Texel) -> Texel + Sync,
) -> Canvas {
    let mut out = c.clone();
    let vp = *c.viewport();
    {
        let (texels, _, _) = out.planes_mut();
        dev.pipeline()
            .par_map_texels(texels, |x, y, t| f(vp.pixel_center(x, y), t));
    }
    out
}

/// `C' = V[f](C)` for a built-in transform: the same full-screen pass
/// (identical work counters) running the dispatched row kernel of
/// `canvas_raster::simd` instead of a per-texel closure. Built-in
/// transforms are location-independent, so no pixel-center plumbing.
pub fn value_transform_tagged(dev: &mut Device, c: &Canvas, tag: ValueTag) -> Canvas {
    let mut out = c.clone();
    {
        let (texels, _, _) = out.planes_mut();
        dev.pipeline().par_map_texels_tagged(texels, tag);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::canvas::PointBatch;
    use crate::info::DimInfo;
    use crate::source::render_points;
    use canvas_geom::BBox;
    use canvas_raster::Viewport;

    fn vp() -> Viewport {
        Viewport::new(
            BBox::new(Point::new(0.0, 0.0), Point::new(10.0, 10.0)),
            10,
            10,
        )
    }

    #[test]
    fn recolors_values_figure_4b() {
        // Figure 4(b): change stored information (the "color") without
        // moving geometry.
        let mut dev = Device::nvidia();
        let c = render_points(
            &mut dev,
            vp(),
            &PointBatch::from_points(vec![Point::new(2.5, 2.5)]),
        );
        let out = value_transform(&mut dev, &c, |_, mut t| {
            if let Some(mut p) = t.get(0) {
                p.v2 = 42.0;
                t.set(0, p);
            }
            t
        });
        assert_eq!(out.texel(2, 2).get(0).unwrap().v2, 42.0);
        // Geometry (non-null support) unchanged.
        assert_eq!(out.non_null_count(), c.non_null_count());
    }

    #[test]
    fn location_dependent_transform() {
        // Fill every location with its distance to the origin — the
        // Voronoi building block.
        let mut dev = Device::nvidia();
        let c = Canvas::empty(vp());
        let out = value_transform(&mut dev, &c, |p, _| Texel::area(0, p.norm_sq() as f32, 0.0));
        let d_near = out.texel(0, 0).get(2).unwrap().v1;
        let d_far = out.texel(9, 9).get(2).unwrap().v1;
        assert!(d_near < d_far);
        assert_eq!(d_near, (0.5f32 * 0.5 + 0.5 * 0.5));
    }

    #[test]
    fn identity_transform_preserves_canvas() {
        let mut dev = Device::nvidia();
        let c = render_points(
            &mut dev,
            vp(),
            &PointBatch::from_points(vec![Point::new(4.5, 7.5)]),
        );
        let out = value_transform(&mut dev, &c, |_, t| t);
        assert_eq!(out.texels(), c.texels());
        let _ = DimInfo::default();
    }

    #[test]
    fn counts_one_fullscreen_pass() {
        let mut dev = Device::nvidia();
        let c = Canvas::empty(vp());
        let before = dev.stats().fullscreen_texels;
        let _ = value_transform(&mut dev, &c, |_, t| t);
        assert_eq!(dev.stats().fullscreen_texels - before, 100);
    }
}
