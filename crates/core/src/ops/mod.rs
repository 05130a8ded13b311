//! The canvas algebra operators (paper Section 3).
//!
//! * fundamental: [`transform::transform_positions`] /
//!   [`transform::transform_by_value`] (`G[γ]`),
//!   [`value::value_transform`] (`V[f]`), [`mask::mask`] (`M[M]`),
//!   [`blend::blend`] (`B[⊙]`), [`dissect::dissect`] (`D`),
//! * derived: [`blend::multiway_blend`] (`B*[⊙]`),
//!   [`dissect::map_scatter`] (`D*[γ]`),
//! * utility: [`utility::circle_canvas`] (`Circ`),
//!   [`utility::rect_canvas`] (`Rect`),
//!   [`utility::halfspace_canvas`] (`HS`).
//!
//! Every operator consumes and produces canvases — the algebra is closed
//! by construction, which is what lets Section 4's query expressions
//! compose. The mask's entry form is the one exit:
//! [`mask::point_entries_in_areas`] returns the point entries a
//! selection's Blend + Mask would keep, for queries that read nothing
//! else; [`mask::select_point_entries_in_areas`] writes the selection's
//! canvas from them, touching only the kept pixels; and
//! [`mask::scatter_point_entries_in_areas`] is the Map over them,
//! writing only the group canvas.

pub mod blend;
pub mod chain;
pub mod dissect;
pub mod mask;
pub mod transform;
pub mod utility;
pub mod value;

pub use blend::{blend, multiway_blend};
pub use chain::{run_chain, ChainKernel};
pub use dissect::{dissect, dissect_iter, dissect_par, map_scatter};
pub use mask::{
    mask, scatter_point_entries_in_areas, select_point_entries_in_areas, CountCond, MaskSpec,
    PixelRule,
};
pub use transform::{
    group_viewport, transform_by_value, transform_positions, MapParam, PositionMap, ValueMap,
};
pub use utility::{circle_canvas, circle_canvas_with_segments, halfspace_canvas, rect_canvas};
pub use value::{value_transform, ValueFn};
