//! # canvas-core
//!
//! The primary contribution of *"A GPU-friendly Geometric Data Model and
//! Algebra for Spatial Queries"* (Doraiswamy & Freire, SIGMOD 2020),
//! reproduced in Rust:
//!
//! * the **canvas** data model — a uniform raster+vector-hybrid
//!   representation of geometric objects ([`canvas::Canvas`],
//!   [`info::Texel`], Definitions 1–7),
//! * the **closed algebra** of five fundamental operators (Geometric
//!   Transform, Value Transform, Mask, Blend, Dissect), two derived
//!   operators (Multiway Blend, Map) and three utility generators
//!   (Circle, Rectangle, Half-space) — module [`ops`],
//! * an **expression layer** with plan diagrams and rewrite rules —
//!   module [`algebra`],
//! * the **query formulations** of Section 4/5: selections, joins,
//!   aggregations, k-nearest-neighbors, Voronoi diagrams,
//!   origin–destination queries — module [`queries`].
//!
//! Everything executes on the software graphics pipeline of
//! `canvas-raster` through a [`device::Device`]; results are *exact*
//! thanks to conservative rasterization plus the hybrid boundary index
//! (paper Section 5).
//!
//! ## Quick start
//!
//! ```
//! use canvas_core::prelude::*;
//! use canvas_geom::{BBox, Point, Polygon};
//!
//! // A tiny data set and a query polygon.
//! let data = PointBatch::from_points(vec![
//!     Point::new(2.0, 2.0),
//!     Point::new(8.0, 8.0),
//! ]);
//! let q = Polygon::simple(vec![
//!     Point::new(0.0, 0.0),
//!     Point::new(5.0, 0.0),
//!     Point::new(5.0, 5.0),
//!     Point::new(0.0, 5.0),
//! ]).unwrap();
//!
//! // SELECT * FROM data WHERE Location INSIDE q
//! let mut dev = Device::nvidia();
//! let extent = BBox::new(Point::new(0.0, 0.0), Point::new(10.0, 10.0));
//! let vp = Viewport::square_pixels(extent, 64);
//! let result = queries::selection::select_points_in_polygon(&mut dev, vp, &data, &q);
//! assert_eq!(result.records, vec![0]);
//! ```

pub mod algebra;
pub mod boundary;
pub mod canvas;
pub mod device;
pub mod info;
pub mod ops;
pub mod queries;
pub mod source;
pub mod table;
pub mod versioned;
pub mod viz;

pub use canvas::{Canvas, PointBatch};
pub use device::{Device, SharedDevice};
pub use info::{BlendFn, DimInfo, Texel};
pub use table::{SpatialTable, TableError};
pub use versioned::{
    patch_live_heatmap, render_live_heatmap, AppendOutcome, Delta, PatchOutcome, TableSnapshot,
    VersionedTable,
};

/// Convenient glob-import surface for applications.
pub mod prelude {
    pub use crate::algebra::{Expr, Fingerprint};
    pub use crate::canvas::{AreaSource, Canvas, LineSource, PointBatch};
    pub use crate::device::{Device, SharedDevice};
    pub use crate::info::{BlendFn, DimInfo, Texel};
    pub use crate::ops::{
        blend, circle_canvas, dissect, dissect_iter, dissect_par, group_viewport, halfspace_canvas,
        map_scatter, mask, multiway_blend, rect_canvas, run_chain, transform_by_value,
        transform_positions, value_transform, ChainKernel, CountCond, MaskSpec, PositionMap,
        ValueFn, ValueMap,
    };
    pub use crate::queries;
    pub use crate::source::{
        render_points, render_polygon, render_polygon_set, render_polylines, render_query_polygon,
    };
    pub use crate::versioned::{
        patch_live_heatmap, render_live_heatmap, TableSnapshot, VersionedTable,
    };
    pub use canvas_raster::Viewport;
}
