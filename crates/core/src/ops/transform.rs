//! The Geometric Transform operator `G[γ](C)` (paper Section 3.1).
//!
//! The parameter function γ comes in two shapes:
//!
//! 1. **Position form** `γ : R² → R²` — the geometry moves to a new
//!    position computed from its current position (rotation, translation,
//!    coordinate-system conversion). We re-render the canvas's *vector*
//!    data through γ, which keeps the result exact (the hybrid index
//!    stores the vector geometry precisely for purposes like this).
//! 2. **Value form** `γ : S³ → R²` — the new position is computed from
//!    the *information stored* at a location (e.g. move everything with
//!    the same id to one spot for aggregation). This lowers to a scatter
//!    pass with a programmable combine blend.

use std::sync::Arc;

use crate::canvas::Canvas;
use crate::device::Device;
use crate::info::{BlendFn, Texel};
use crate::source;
use canvas_geom::polygon::Polygon;
use canvas_geom::{Point, Polyline};
use canvas_raster::Viewport;

/// Position-form γ: affine-style world→world maps (exact re-render).
#[derive(Clone)]
pub enum PositionMap {
    Translate(Point),
    RotateAround {
        center: Point,
        angle: f64,
    },
    ScaleAround {
        center: Point,
        factor: f64,
    },
    /// Arbitrary map (must be injective on the data for Definition-
    /// faithful semantics).
    Custom(Arc<dyn Fn(Point) -> Point + Send + Sync>),
}

impl PositionMap {
    pub fn apply(&self, p: Point) -> Point {
        match self {
            PositionMap::Translate(d) => p + *d,
            PositionMap::RotateAround { center, angle } => (p - *center).rotated(*angle) + *center,
            PositionMap::ScaleAround { center, factor } => (p - *center) * *factor + *center,
            PositionMap::Custom(f) => f(p),
        }
    }

    pub fn label(&self) -> &'static str {
        match self {
            PositionMap::Translate(_) => "translate",
            PositionMap::RotateAround { .. } => "rotate",
            PositionMap::ScaleAround { .. } => "scale",
            PositionMap::Custom(_) => "custom",
        }
    }
}

impl std::fmt::Debug for PositionMap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PositionMap::{}", self.label())
    }
}

/// `C' = G[γ](C)` with position-form γ: every geometric object moves to
/// γ(current position). The canvas's vector data (exact point locations,
/// polygon/line source tables) is transformed and re-rendered with the
/// standard texel encodings, so the output is exact.
pub fn transform_positions(
    dev: &mut Device,
    c: &Canvas,
    gamma: &PositionMap,
    target_vp: Viewport,
) -> Canvas {
    let mut out = Canvas::empty(target_vp);

    // 0-primitives: transform the exact stored locations.
    let entries = c.boundary();
    if entries.num_points() > 0 {
        let batch = crate::canvas::PointBatch {
            points: entries.points().map(|e| gamma.apply(e.loc)).collect(),
            ids: entries.points().map(|e| e.record).collect(),
            weights: entries.points().map(|e| e.weight).collect(),
        };
        let moved = source::render_points(dev, target_vp, &batch);
        out = crate::ops::blend::blend(dev, &out, &moved, BlendFn::Over);
    }

    // 2-primitives: transform the vector polygons and re-render.
    for table in c.area_sources() {
        let transformed: Vec<Polygon> = table
            .iter()
            .filter_map(|poly| transform_polygon(poly, gamma))
            .collect();
        if transformed.is_empty() {
            continue;
        }
        let new_table: crate::canvas::AreaSource = Arc::new(transformed);
        let rendered = source::render_polygon_set(dev, target_vp, &new_table, BlendFn::AreaCount);
        out = crate::ops::blend::blend(dev, &out, &rendered, BlendFn::Over);
    }

    // 1-primitives: transform polylines and re-render.
    for table in c.line_sources() {
        let transformed: Vec<Polyline> = table
            .iter()
            .filter_map(|line| {
                Polyline::new(line.vertices().iter().map(|v| gamma.apply(*v)).collect())
            })
            .collect();
        if transformed.is_empty() {
            continue;
        }
        let new_table: crate::canvas::LineSource = Arc::new(transformed);
        let rendered = source::render_polylines(dev, target_vp, &new_table);
        out = crate::ops::blend::blend(dev, &out, &rendered, BlendFn::Over);
    }

    out
}

fn transform_polygon(poly: &Polygon, gamma: &PositionMap) -> Option<Polygon> {
    let map_ring = |r: &canvas_geom::Ring| {
        canvas_geom::Ring::new(r.vertices().iter().map(|v| gamma.apply(*v)).collect()).ok()
    };
    let outer = map_ring(poly.outer())?;
    let holes: Vec<_> = poly.holes().iter().filter_map(map_ring).collect();
    Some(Polygon::new(outer, holes))
}

/// Shared texel→target function of a [`ValueMap`].
pub type ValueMapFn = Arc<dyn Fn(&Texel) -> Option<Point> + Send + Sync>;

/// Value-form γ: computes a target location from a texel (`None` drops
/// the texel, mirroring ∅ handling).
#[derive(Clone)]
pub struct ValueMap {
    pub name: &'static str,
    /// The value `f` closes over, folded into plan fingerprints beside
    /// `name` (two constants share a name, not a result).
    pub param: MapParam,
    pub f: ValueMapFn,
}

/// What a [`ValueMap`]'s function closes over, as plan identity sees
/// it: a point by value, a lookup table by handle (like a dataset).
#[derive(Clone, Debug)]
pub enum MapParam {
    None,
    Point(Point),
    Table(Arc<Vec<Point>>),
}

impl ValueMap {
    /// The aggregation map `γc(s) = (s[2][0], 0)` of Section 4.3: send
    /// each result to the slot of the polygon that contained it. Targets
    /// are laid out in *group space* (see [`group_viewport`]).
    pub fn area_id_slot() -> Self {
        ValueMap {
            name: "γc: s[2].id → slot",
            param: MapParam::None,
            f: Arc::new(|t: &Texel| t.get(2).map(|a| Point::new(a.id as f64 + 0.5, 0.5))),
        }
    }

    /// The constant map `γ0(s) = (x, y)` (used by kNN's final collapse
    /// and by Map-alignment, Section 3.2).
    pub fn to_constant(target: Point) -> Self {
        ValueMap {
            name: "γ0: const",
            param: MapParam::Point(target),
            f: Arc::new(move |t: &Texel| if t.is_null() { None } else { Some(target) }),
        }
    }

    /// The origin→destination map `γd(s) = destination(s[0][0])` of
    /// Section 4.6: look the record's other spatial attribute up by id.
    pub fn point_id_lookup(name: &'static str, table: Arc<Vec<Point>>) -> Self {
        ValueMap {
            name,
            param: MapParam::Table(Arc::clone(&table)),
            f: Arc::new(move |t: &Texel| t.get(0).map(|p| table[p.id as usize])),
        }
    }
}

impl std::fmt::Debug for ValueMap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ValueMap({})", self.name)
    }
}

/// A 1-D "group space" viewport with one pixel per group id — the target
/// space for aggregation scatters (`γc`).
pub fn group_viewport(num_groups: u32) -> Viewport {
    Viewport::new(
        canvas_geom::BBox::new(
            Point::new(0.0, 0.0),
            Point::new(num_groups.max(1) as f64, 1.0),
        ),
        num_groups.max(1),
        1,
    )
}

/// `C' = G[γ](C)` with value-form γ: a scatter pass. Texels move to
/// `γ(value)` in the target viewport and collisions are resolved by
/// `combine` (the aggregation plans use [`BlendFn::Accumulate`]).
///
/// Runs as a pool-parallel scatter: workers evaluate γ over source
/// bands while the calling thread applies the collision blends in
/// source row-major order — the exact order of the sequential scatter,
/// so the result is bit-identical at any thread count.
pub fn transform_by_value(
    dev: &mut Device,
    c: &Canvas,
    gamma: &ValueMap,
    target_vp: Viewport,
    combine: BlendFn,
) -> Canvas {
    let mut out = Canvas::empty(target_vp);
    {
        let (texels, _, _) = out.planes_mut();
        let f = &gamma.f;
        dev.pipeline().scatter_shared(
            c.texels(),
            &target_vp,
            texels,
            |_, _, t| if t.is_null() { None } else { f(t) },
            |d, s| combine.apply(d, s),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::canvas::PointBatch;
    use crate::source::{render_points, render_query_polygon};
    use canvas_geom::BBox;

    fn vp() -> Viewport {
        Viewport::new(
            BBox::new(Point::new(0.0, 0.0), Point::new(10.0, 10.0)),
            10,
            10,
        )
    }

    #[test]
    fn translate_points_exact() {
        let mut dev = Device::nvidia();
        let c = render_points(
            &mut dev,
            vp(),
            &PointBatch::from_points(vec![Point::new(1.5, 1.5)]),
        );
        let out = transform_positions(
            &mut dev,
            &c,
            &PositionMap::Translate(Point::new(3.0, 4.0)),
            vp(),
        );
        assert!(out.texel(4, 5).has(0));
        assert!(out.texel(1, 1).is_null());
        // Exact location moved too.
        let e = out.boundary().points().next().unwrap();
        assert_eq!(e.loc, Point::new(4.5, 5.5));
    }

    #[test]
    fn rotate_polygon_rerenders() {
        // Figure 4(a): rotate + translate a polygon to a new position.
        let mut dev = Device::nvidia();
        let tri = Polygon::simple(vec![
            Point::new(1.0, 1.0),
            Point::new(4.0, 1.0),
            Point::new(1.0, 4.0),
        ])
        .unwrap();
        let c = render_query_polygon(&mut dev, vp(), tri, 1);
        let out = transform_positions(
            &mut dev,
            &c,
            &PositionMap::RotateAround {
                center: Point::new(5.0, 5.0),
                angle: std::f64::consts::PI,
            },
            vp(),
        );
        // The triangle now occupies the opposite corner.
        assert!(out.texel(8, 8).has(2));
        assert!(out.texel(1, 1).is_null());
        // Output still has exact vector data (closure under exactness).
        assert_eq!(out.area_sources().len(), 1);
        assert!(out.boundary().num_areas() > 0);
    }

    #[test]
    fn transform_out_of_viewport_prunes() {
        let mut dev = Device::nvidia();
        let c = render_points(
            &mut dev,
            vp(),
            &PointBatch::from_points(vec![Point::new(5.0, 5.0)]),
        );
        let out = transform_positions(
            &mut dev,
            &c,
            &PositionMap::Translate(Point::new(100.0, 0.0)),
            vp(),
        );
        assert!(out.is_empty());
    }

    #[test]
    fn scale_around_center() {
        let m = PositionMap::ScaleAround {
            center: Point::new(5.0, 5.0),
            factor: 2.0,
        };
        assert_eq!(m.apply(Point::new(6.0, 5.0)), Point::new(7.0, 5.0));
        assert_eq!(m.apply(Point::new(5.0, 5.0)), Point::new(5.0, 5.0));
    }

    #[test]
    fn value_scatter_accumulates_by_area_id() {
        // Three texels tagged with polygon ids 0, 2, 2 scatter into group
        // slots; counts accumulate per slot.
        let mut dev = Device::nvidia();
        let mut c = Canvas::empty(vp());
        let mk = |area_id: u32, count: f32| {
            let mut t = Texel::point(9, count, 0.0);
            t.set(2, crate::info::DimInfo::new(area_id, 1.0, 0.0));
            t
        };
        c.texels_mut().set(1, 1, mk(0, 2.0));
        c.texels_mut().set(5, 5, mk(2, 3.0));
        c.texels_mut().set(7, 2, mk(2, 4.0));
        let gvp = group_viewport(4);
        let out = transform_by_value(
            &mut dev,
            &c,
            &ValueMap::area_id_slot(),
            gvp,
            BlendFn::Accumulate,
        );
        assert_eq!(out.texel(0, 0).get(0).unwrap().v1, 2.0);
        assert!(out.texel(1, 0).is_null());
        assert_eq!(out.texel(2, 0).get(0).unwrap().v1, 7.0);
    }

    #[test]
    fn to_constant_collapses_everything() {
        let mut dev = Device::nvidia();
        let c = render_points(
            &mut dev,
            vp(),
            &PointBatch::from_points(vec![
                Point::new(1.5, 1.5),
                Point::new(8.5, 8.5),
                Point::new(3.5, 6.5),
            ]),
        );
        let out = transform_by_value(
            &mut dev,
            &c,
            &ValueMap::to_constant(Point::new(0.5, 0.5)),
            vp(),
            BlendFn::Accumulate,
        );
        assert_eq!(out.non_null_count(), 1);
        assert_eq!(out.texel(0, 0).get(0).unwrap().v1, 3.0);
    }

    #[test]
    fn point_id_lookup_moves_by_record() {
        // The γd form of Section 4.6: each texel moves to the location
        // looked up by its record id.
        let mut dev = Device::nvidia();
        let c = render_points(
            &mut dev,
            vp(),
            &PointBatch::from_points(vec![Point::new(1.5, 1.5), Point::new(3.5, 3.5)]),
        );
        let destinations = std::sync::Arc::new(vec![
            Point::new(8.5, 8.5), // destination of record 0
            Point::new(0.5, 8.5), // destination of record 1
        ]);
        let gamma = ValueMap::point_id_lookup("γd", destinations);
        let out = transform_by_value(&mut dev, &c, &gamma, vp(), BlendFn::PointAccumulate);
        assert!(out.texel(8, 8).has(0));
        assert!(out.texel(0, 8).has(0));
        assert!(out.texel(1, 1).is_null());
        assert_eq!(out.non_null_count(), 2);
    }

    #[test]
    fn group_viewport_one_pixel_per_group() {
        let g = group_viewport(16);
        assert_eq!(g.width(), 16);
        assert_eq!(g.height(), 1);
        assert_eq!(g.world_to_pixel(Point::new(3.5, 0.5)), Some((3, 0)));
    }
}
