//! # canvas-geom
//!
//! Geometry substrate for the canvas algebra reproduction of
//! *"A GPU-friendly Geometric Data Model and Algebra for Spatial Queries"*
//! (Doraiswamy & Freire, SIGMOD 2020).
//!
//! The paper models spatial data as *geometric objects*: sets of
//! *d-primitives* with `d ∈ {0, 1, 2}` (points, lines, areas). This crate
//! provides those primitive types plus every exact-geometry algorithm the
//! rest of the system needs:
//!
//! * primitives: [`Point`], [`Segment`], [`Polyline`], [`Polygon`]
//!   (outer ring + holes), [`GeomObject`] (heterogeneous primitive sets),
//! * robust-enough predicates: orientation, point-in-polygon (crossing and
//!   winding number), segment intersection, distances,
//! * algorithms: convex hull, Sutherland–Hodgman clipping,
//! * indexes: the CSR [`grid::GridIndex`] — the one filter index; every
//!   join and the pruned RasterJoin build it over their own inputs with
//!   [`GridIndex::over`] — plus an edge BVH ([`bvh::EdgeBvh`], used by
//!   the `select_scalar_bvh` baseline only) and an STR-packed
//!   [`rtree::RTree`] that no query path uses any more (the geometry
//!   tests and the benchmark's index probes still build it).
//!
//! Everything here is pure CPU vector geometry; the GPU-friendly raster
//! representation lives in `canvas-raster` / `canvas-core`.

pub mod bbox;
pub mod bvh;
pub mod clip;
pub mod distance;
pub mod grid;
pub mod hull;
pub mod object;
pub mod point;
pub mod polygon;
pub mod polyline;
pub mod predicates;
pub mod rtree;
pub mod segment;
pub mod wkt;

pub use bbox::BBox;
pub use grid::{GridGeometry, GridIndex, GridIndexBuilder, VisitedMask};
pub use object::{GeomObject, Primitive};
pub use point::Point;
pub use polygon::{Polygon, Ring};
pub use polyline::Polyline;
pub use predicates::{orientation, Containment, Orientation};
pub use segment::Segment;

/// Geometric tolerance used when comparing derived floating point
/// quantities (areas, distances, intersection parameters).
///
/// Raw coordinates are compared exactly; only *derived* values go through
/// epsilon comparison. Chosen conservatively for coordinates in roughly
/// `[-1e7, 1e7]` (Web-Mercator-sized extents).
pub const EPS: f64 = 1e-9;

/// Returns true if two derived floating point quantities are equal within
/// [`EPS`] scaled by their magnitude.
#[inline]
pub fn approx_eq(a: f64, b: f64) -> bool {
    let scale = 1.0_f64.max(a.abs()).max(b.abs());
    (a - b).abs() <= EPS * scale
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approx_eq_basic() {
        assert!(approx_eq(1.0, 1.0 + 1e-12));
        assert!(!approx_eq(1.0, 1.0 + 1e-6));
        assert!(approx_eq(0.0, 0.0));
        assert!(approx_eq(1e7, 1e7 + 1e-3));
    }
}
