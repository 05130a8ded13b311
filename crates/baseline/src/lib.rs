//! # canvas-baseline
//!
//! The comparison approaches of the paper's evaluation (Section 6):
//!
//! * [`cpu::select_scalar`] — the single-threaded CPU refinement every
//!   speedup in Figures 9–10 is measured against,
//! * [`cpu::select_parallel`] — the OpenMP-style parallel CPU baseline
//!   (scoped-thread fork-join over point chunks),
//! * [`gpu::select_gpu_baseline`] — the "traditional GPU" approach
//!   (\[11\] in the paper): one PIP thread per point, charged to the
//!   device cost model (see the substitution note in that module),
//! * [`join`] — classical filter-and-refine joins (a CSR uniform grid
//!   over the polygon MBRs, or over the points, then an exact MBR check
//!   and PIP refinement) and the join-then-aggregate plan that
//!   RasterJoin-style aggregation (Section 5.2) is compared with.
//!
//! All baselines are *exact* and intentionally share the PIP kernel in
//! [`pip`] so that result equality with the canvas algebra can be
//! asserted bit-for-bit in the integration tests.

pub mod cpu;
pub mod gpu;
pub mod join;
pub mod pip;

pub use cpu::{
    select_parallel, select_scalar, select_scalar_bvh, select_scalar_conjunction, BaselineResult,
};
pub use gpu::select_gpu_baseline;
pub use join::{aggregate_join_baseline, join_grid, join_grid_points_indexed, JoinResult};
pub use pip::pip_counted;
