//! # canvas-raster
//!
//! A from-scratch **software graphics pipeline** standing in for the
//! OpenGL pipeline used by the prototype in *"A GPU-friendly Geometric
//! Data Model and Algebra for Spatial Queries"* (Doraiswamy & Freire,
//! SIGMOD 2020).
//!
//! The paper's whole thesis is that spatial operators become fast when
//! they lower onto the handful of operations GPUs are built for:
//! rendering geometry into textures, blending textures, and running
//! per-pixel passes. This crate provides exactly those operations in
//! software, with the same dataflow and the same conservative-
//! rasterization accuracy story, so the algebra layer (`canvas-core`)
//! is written against a faithful pipeline even though this machine has
//! no GPU:
//!
//! * [`texture::Texture`] — off-screen framebuffers of generic texels,
//! * [`viewport::Viewport`] — the projection/viewport transform,
//! * [`rasterize`] — point / supercover-line / scanline-fill coverage
//!   kernels,
//! * [`pipeline::Pipeline`] — **tile jobs** (every draw and
//!   incremental patch is one primitive source rasterized tile by tile
//!   in place by one runner), full-screen passes and scatter passes,
//!   with programmable fragment shading and blending,
//! * [`chain::OpChain`] — per-texel operators run in one in-place pass
//!   over a finished framebuffer, each a built-in [`simd`] kernel
//!   named by a tag,
//! * [`tile`] — the fixed 64×64 tile decomposition: primitives are
//!   binned to tiles and each tile is rasterized independently, writing
//!   its own row segments of the planes, on a **persistent worker
//!   pool** (the `canvas-executor` crate — spawned once per `Device`,
//!   parked between passes, joined on drop); per-tile outputs merge in
//!   fixed tile order, so results are bit-identical at any thread
//!   count. A one-thread pool runs the same draws on a one-tile grid,
//! * [`simd`] — runtime-dispatched row kernels behind the built-in
//!   operators,
//! * [`spans`] — a frame as per-row runs of equal value (`RowSpans`):
//!   the form a polygon table is drawn in by
//!   `Pipeline::draw_polygon_spans`, run through chains by
//!   `Pipeline::run_chain_spans`, and folded into planes in row bands,
//! * [`stats::PipelineStats`] + [`device::DeviceProfile`] — work
//!   counting and the calibrated cost model that substitutes for the
//!   paper's two physical GPUs (the [`device`] module docs carry the
//!   substitution note).
//!
//! The executor's minimum-work threshold lives in one place,
//! [`Policy::min_parallel_items`]: the full-screen band passes,
//! `scatter_shared` and point binning — whose per-item cost is a texel
//! or a point — consult it through `WorkerPool::should_parallelize`;
//! tile rasterization claims coarse items (a tile), so it gates only
//! on trivial sizes.

pub mod chain;
pub mod device;
pub mod pipeline;
pub mod rasterize;
pub mod simd;
pub mod spans;
pub mod stats;
pub mod texture;
pub mod tile;
pub mod viewport;

pub use canvas_executor::{
    live_worker_count, Calibration, Policy, SchedulerStats, TicketId, WorkerPool,
};
pub use chain::{ChainOp, MaskOutcome, OpChain};
pub use device::DeviceProfile;
pub use pipeline::{Frag, PatchReport, Pipeline, SpanOp};
pub use simd::{Backend, BlendTag, MaskTag, TexelWords, ValueTag};
pub use spans::{RowSpans, Span, SpanCursor};
pub use stats::PipelineStats;
pub use texture::{RowRuns, Texture};
pub use tile::{TileGrid, TileRect, TILE_SIZE};
pub use viewport::Viewport;
