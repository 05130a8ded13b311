//! The programmable pipeline: tile jobs, full-screen passes, scatter.
//!
//! This is the software stand-in for the OpenGL pipeline of the paper's
//! prototype. Each operation mirrors a GPU-native stage:
//!
//! | paper / OpenGL                      | here                         |
//! |-------------------------------------|------------------------------|
//! | render geometry to off-screen buffer, then per-pixel passes | a **tile job** (below) |
//! | alpha blending of textures          | [`Pipeline::blend_into_tagged`], [`Pipeline::blend_cover_into`] |
//! | per-pixel parallel test (mask)      | [`Pipeline::par_map_texels`], [`Pipeline::map_planes`] |
//! | vertex scatter (transform feedback) | [`Pipeline::scatter_shared`] |
//!
//! # Tile jobs
//!
//! Everything that turns geometry into texels is one job shape run by
//! one private runner: a **source** — a point batch, a polygon table or
//! a polyline table (statically dispatched) — that charges its
//! vertex/primitive counters, bins itself to the 64×64 tiles its
//! primitives can touch, and rasterizes one bin straight into that
//! tile's rows of the framebuffer and cover planes. Every fragment is
//! shaded by a caller-supplied closure and merged through a
//! caller-supplied *blend function* — the programmable blend
//! `⊙ : S³ × S³ → S³` of the algebra — in input primitive order.
//!
//! The runner cuts the planes into each touched tile's row segments
//! (disjoint safe borrows, [`TileGrid::tile_rows`]) and rasterizes
//! every touched tile in place in one dynamically claimed pool pass
//! ([`WorkerPool::run_claimed`]); the per-tile outputs (fragment
//! counts, boundary lists) fold in row-major tile order. Tile rects
//! are disjoint and the per-pixel blend order is the input primitive
//! order at any thread count, so every execution is bit-identical by
//! construction. Untouched tiles are never read or written.
//!
//! Per-pixel operators are separate full-screen passes over the
//! finished planes, as in the paper's Section 5: a chain
//! ([`Pipeline::run_chain_texture`]) runs in place over full-width row
//! strips, and [`Pipeline::run_chain_points`] is the point draw
//! followed by that pass. An incremental patch
//! ([`Pipeline::patch_points_tiled`]) blends a delta into its touched
//! tiles and re-applies its value kernel to exactly those tiles' rows,
//! in the same claimed pass.
//!
//! A caller that sorts its points by pixel instead of rasterizing them
//! tile by tile (the core's point canvas) charges that draw through
//! [`Pipeline::draw_points_sorted`], as a tile job would be charged. A
//! polygon table can be drawn as row spans instead of planes
//! ([`Pipeline::draw_polygon_spans`]: the same emitter in row bands,
//! each row swept into runs, the same counters), and a chain of
//! built-in kernels run over span inputs once per segment
//! ([`Pipeline::run_chain_spans`]); see [`crate::spans`].
//!
//! **Sequential is a pool of one.** When the pipeline's pool has one
//! thread and the result cannot depend on where tile borders fall (a
//! draw, not a patch), the same runner runs on a one-tile grid whose
//! rect is the whole frame — no binning.
//!
//! All work is counted in [`PipelineStats`] for the device cost model.

use crate::chain::{MaskOutcome, OpChain};
use crate::rasterize::{
    rasterize_line_supercover, rasterize_point, rasterize_polygon_fill_rect_spans,
};
use crate::simd::{self, Backend, TexelWords, ValueTag};
use crate::stats::PipelineStats;
use crate::texture::Texture;
use crate::tile::{TileGrid, TileRect};
use crate::viewport::Viewport;
use canvas_executor::WorkerPool;
use canvas_geom::polygon::Polygon;
use canvas_geom::polyline::Polyline;
use canvas_geom::{BBox, Point};
use canvas_obs as obs;
use std::sync::{Arc, Mutex, PoisonError};

mod passes;
mod spans;

pub use spans::SpanOp;

/// Opens a draw-level trace span tagged with the active SIMD backend
/// and workload shape (no-op unless tracing is enabled).
fn draw_span(name: &'static str, primitives: usize) -> obs::Span {
    let mut span = obs::span(name, "raster");
    if span.is_recording() {
        span.arg_u64("primitives", primitives as u64);
        span.arg_str("simd_backend", || simd::active_backend().name().to_string());
    }
    span
}

/// A shaded fragment's rasterizer-provided context.
#[derive(Clone, Copy, Debug)]
pub struct Frag {
    /// Pixel coordinates in the target framebuffer.
    pub x: u32,
    pub y: u32,
    /// True when the fragment lies on conservative boundary coverage and
    /// therefore needs exact refinement (paper Section 5).
    pub boundary: bool,
}

/// Outcome of one [`Pipeline::patch_points_tiled`] call: how much of
/// the framebuffer an incremental delta actually touched.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PatchReport {
    /// Tiles that received at least one delta point and were redrawn.
    pub dirty_tiles: usize,
    /// Total tiles of the framebuffer's 64×64 grid.
    pub total_tiles: usize,
    /// In-viewport delta points blended.
    pub fragments: u64,
}

/// The software graphics pipeline. Owns work counters and scratch
/// buffers; framebuffers ([`Texture`]s) are passed per call.
#[derive(Debug)]
pub struct Pipeline {
    stats: PipelineStats,
    /// Visited marks for exactly-once fragment emission per primitive,
    /// shared by every emitter (tile jobs and the fragment visitor).
    stamps: StampPool,
    /// The persistent executor behind every tile job and parallel
    /// full-screen pass. Workers are spawned once (`set_threads`) and
    /// parked between passes; a 1-thread pool spawns nothing and runs
    /// everything inline (results are bit-identical at any thread
    /// count by construction).
    pool: Arc<WorkerPool>,
}

/// A generation-stamped visited plane: pixel `i` was already emitted
/// for the current primitive iff `stamps[i] == gen`, so moving on to
/// the next primitive is an O(1) reset.
#[derive(Debug, Default)]
struct StampPlane {
    stamps: Vec<u32>,
    gen: u32,
}

impl StampPlane {
    fn next_gen(&mut self) -> u32 {
        self.gen += 1;
        self.gen
    }
}

/// Checked-out/checked-in [`StampPlane`]s, at most one per concurrent
/// executor. Generations continue across check-outs, so a reused plane
/// is never re-allocated or re-zeroed.
#[derive(Debug, Default)]
struct StampPool(Mutex<Vec<StampPlane>>);

impl StampPool {
    /// A plane covering `len` pixels with room for `gens` more
    /// generations.
    fn checkout(&self, len: usize, gens: usize) -> StampPlane {
        let mut plane = self
            .0
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .pop()
            .unwrap_or_default();
        if plane.stamps.len() < len {
            plane.stamps.resize(len, 0);
        }
        let room = u32::try_from(gens)
            .ok()
            .and_then(|g| plane.gen.checked_add(g));
        if room.is_none() {
            // Generation counter would wrap: clear once and restart.
            plane.stamps.fill(0);
            plane.gen = 0;
        }
        plane
    }

    fn checkin(&self, plane: StampPlane) {
        self.0
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(plane);
    }
}

impl Default for Pipeline {
    fn default() -> Self {
        Pipeline {
            stats: PipelineStats::default(),
            stamps: StampPool::default(),
            pool: Arc::new(WorkerPool::new(1)),
        }
    }
}

impl Pipeline {
    pub fn new() -> Self {
        Pipeline::default()
    }

    /// Sets the worker count used by tile jobs and parallel
    /// full-screen passes (set from `Device::cpu_parallel`) by
    /// replacing the pipeline's worker pool. The old pool's workers
    /// are joined; the new pool's are spawned once, here, and reused
    /// by every subsequent pass.
    pub fn set_threads(&mut self, threads: usize) {
        let threads = threads.max(1);
        if threads != self.pool.threads() {
            self.pool = Arc::new(WorkerPool::new(threads));
        }
    }

    /// Shares an existing worker pool (e.g. between pipelines of one
    /// process) instead of spawning a fresh one.
    pub fn set_pool(&mut self, pool: Arc<WorkerPool>) {
        self.pool = pool;
    }

    /// The persistent worker pool executing this pipeline's passes.
    pub fn pool(&self) -> &Arc<WorkerPool> {
        &self.pool
    }

    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// Snapshot of the cumulative work counters.
    pub fn stats(&self) -> PipelineStats {
        self.stats
    }

    pub fn reset_stats(&mut self) {
        self.stats = PipelineStats::default();
    }

    /// Records a host→device buffer upload (geometry, attributes).
    pub fn note_upload(&mut self, bytes: u64) {
        self.stats.bytes_uploaded += bytes;
    }

    /// Records a device→host readback (result extraction).
    pub fn note_download(&mut self, bytes: u64) {
        self.stats.bytes_downloaded += bytes;
    }

    /// Records edge tests performed by a compute-style kernel (used by
    /// the traditional GPU PIP baseline).
    pub fn note_compute_edge_tests(&mut self, count: u64) {
        self.stats.compute_edge_tests += count;
    }

    fn begin_pass(&mut self) {
        self.stats.passes += 1;
    }

    // ------------------------------------------------------------------
    // Tile jobs (see module docs): public entry points.
    // ------------------------------------------------------------------

    /// Tile-parallel point draw: each point shades one fragment which is
    /// blended into the framebuffer. Coincident points blend repeatedly,
    /// in input order within their pixel — that is what makes `B*[+]`
    /// accumulation work.
    pub fn draw_points_tiled<P, S, B>(
        &mut self,
        vp: &Viewport,
        fb: &mut Texture<P>,
        points: &[Point],
        shade: S,
        blend: B,
    ) where
        P: Copy + Default + Send + Sync,
        S: Fn(u32, Point) -> P + Sync,
        B: Fn(P, P) -> P + Sync,
    {
        let source = PointSource {
            points,
            shade,
            blend,
        };
        let grid = self.draw_grid(vp);
        self.run_tile_job("draw_points", vp, &source, grid, fb, None, |_| {});
    }

    /// A point draw that is not a tile job: `draw` builds the caller's
    /// own output on the pool (a pixel-sorted point run, say) and
    /// returns it with the number of points it found in view. Charged
    /// as [`draw_points_tiled`](Self::draw_points_tiled) charges the
    /// same batch — one pass, `points` vertices and primitives, and one
    /// fragment, boundary fragment and blend op per in-view point — under
    /// the same `draw_points` span, with no tile spans.
    pub fn draw_points_sorted<R>(
        &mut self,
        points: usize,
        draw: impl FnOnce(&WorkerPool) -> (R, usize),
    ) -> R {
        self.begin_pass();
        let _draw_span = draw_span("draw_points", points);
        self.stats.vertices += points as u64;
        self.stats.primitives += points as u64;
        let (out, fragments) = draw(&self.pool);
        self.stats.fragments += fragments as u64;
        self.stats.boundary_fragments += fragments as u64;
        self.stats.blend_ops += fragments as u64;
        out
    }

    /// `draw(points) → chain`: the point draw, then `chain` in place
    /// over the finished planes ([`run_chain_texture`](Self::run_chain_texture);
    /// nothing when the chain is empty). Bit-identical to one
    /// full-screen pass per operator after the draw at any thread
    /// count, work counters included. `cover` carries the run's
    /// certain-cover plane when the chain merges covers (canvas Blend)
    /// or masks.
    #[allow(clippy::too_many_arguments)]
    pub fn run_chain_points<P, S, B>(
        &mut self,
        vp: &Viewport,
        fb: &mut Texture<P>,
        cover: Option<&mut Texture<u16>>,
        points: &[Point],
        shade: S,
        blend: B,
        chain: &OpChain<'_, P>,
    ) -> MaskOutcome
    where
        P: Copy + Default + Send + Sync,
        S: Fn(u32, Point) -> P + Sync,
        B: Fn(P, P) -> P + Sync,
    {
        self.draw_points_tiled(vp, fb, points, shade, blend);
        if chain.is_empty() {
            return MaskOutcome::default();
        }
        self.run_chain_texture(fb, cover, chain)
    }

    /// Incremental dirty-tile point patch: bins the (small) `points`
    /// delta to the 64×64 tiles, replays the blend only on tiles that
    /// received a point, and — when `value` is given — re-applies that
    /// pointwise value kernel to each dirty tile's rows right after its
    /// blend, in the same claimed pass. Clean tiles are never read or
    /// written, so a patch costs O(delta + dirty tiles), not
    /// O(framebuffer), and the counters say so.
    ///
    /// This is the maintenance half of the streaming-ingest path: given
    /// a framebuffer produced by a full `draw → value` run over a point
    /// prefix, patching in the appended suffix reproduces the full run
    /// over the whole sequence bit-for-bit *provided* the value kernel
    /// rewrites every word the blend disturbs from words the blend
    /// folds associatively-by-suffix (true of the `HeatLog` live
    /// heatmap; fuzzed in `core/tests/incremental_equivalence.rs`).
    /// Per-pixel replay order is global input order, so results are
    /// bit-identical at any thread count.
    pub fn patch_points_tiled<P, S, B>(
        &mut self,
        vp: &Viewport,
        fb: &mut Texture<P>,
        points: &[Point],
        shade: S,
        blend: B,
        value: Option<(Backend, ValueTag)>,
    ) -> PatchReport
    where
        P: TexelWords + Send + Sync,
        S: Fn(u32, Point) -> P + Sync,
        B: Fn(P, P) -> P + Sync,
    {
        let source = PointSource {
            points,
            shade,
            blend,
        };
        let grid = TileGrid::new(vp.width(), vp.height());
        let done = self.run_tile_job("patch_points", vp, &source, grid, fb, None, |row| {
            if let Some((be, tag)) = value {
                simd::value_rows_with(be, tag, row);
            }
        });
        // The value kernel costs one pass over the dirty tiles' texels.
        if value.is_some() && done.visited_tiles > 0 {
            self.stats.passes += 1;
            self.stats.fullscreen_texels += done.visited_texels as u64;
        }
        PatchReport {
            dirty_tiles: done.visited_tiles,
            total_tiles: done.total_tiles,
            fragments: done.drawn.fragments,
        }
    }

    /// Tile-parallel batched polygon draw — a whole polygon table in
    /// **one** pass (a single instanced draw call, how a GPU renders a
    /// polygon table), fused with the canvas bookkeeping every render
    /// path needs. Each polygon (outer ring minus holes) emits every
    /// covered pixel exactly once: conservative boundary coverage of
    /// every ring edge first (`boundary = true` fragments — the pixels
    /// the mask operator later refines against the exact vector data),
    /// then the scanline interior fill at pixel centers for pixels the
    /// boundary did not claim. Interior fragments raise the
    /// certain-`cover` plane; boundary fragments are returned as
    /// `(record, pixel)` pairs (in deterministic tile-major,
    /// record-minor order) for the caller's boundary index. With
    /// `conservative = false` only center-sampled coverage is produced
    /// (the paper's "approximate result suffices" mode).
    #[allow(clippy::too_many_arguments)]
    pub fn draw_polygons_tiled<P, S, B>(
        &mut self,
        vp: &Viewport,
        fb: &mut Texture<P>,
        cover: &mut Texture<u16>,
        polys: &[Polygon],
        conservative: bool,
        shade: S,
        blend: B,
    ) -> Vec<(u32, u32)>
    where
        P: Copy + Default + Send + Sync,
        S: Fn(u32, Frag) -> P + Sync,
        B: Fn(P, P) -> P + Sync,
    {
        let source = PolygonSource {
            polys,
            conservative,
            shade,
            blend,
        };
        let grid = self.draw_grid(vp);
        let cover = Some(cover);
        let done = self.run_tile_job("draw_polygons", vp, &source, grid, fb, cover, |_| {});
        done.drawn.boundary
    }

    /// Tile-parallel polyline table draw with supercover (conservative)
    /// coverage: each touched pixel is shaded exactly once per record
    /// and is a boundary pixel; the returned `(record, pixel)` pairs
    /// are in deterministic order.
    pub fn draw_polylines_tiled<P, S, B>(
        &mut self,
        vp: &Viewport,
        fb: &mut Texture<P>,
        lines: &[Polyline],
        shade: S,
        blend: B,
    ) -> Vec<(u32, u32)>
    where
        P: Copy + Default + Send + Sync,
        S: Fn(u32, Frag) -> P + Sync,
        B: Fn(P, P) -> P + Sync,
    {
        let source = PolylineSource {
            lines,
            shade,
            blend,
        };
        let grid = self.draw_grid(vp);
        let done = self.run_tile_job("draw_polylines", vp, &source, grid, fb, None, |_| {});
        done.drawn.boundary
    }

    // ------------------------------------------------------------------
    // The tile-job runner.
    // ------------------------------------------------------------------

    /// The grid a draw runs on: the frame's 64×64 tiles, or on a pool
    /// of one the whole frame as a single tile.
    fn draw_grid(&self, vp: &Viewport) -> TileGrid {
        let (w, h) = (vp.width(), vp.height());
        if self.pool.threads() == 1 {
            TileGrid::with_tile_size(w, h, w.max(h).max(1))
        } else {
            TileGrid::new(w, h)
        }
    }

    /// Runs one tile job into `fb` (and `cover`, when the source writes
    /// it): bin to `grid` (not on a one-tile grid), then rasterize every
    /// touched tile in place in one claimed pool pass, `finish` run over
    /// each visited tile's texel rows after its rasterization, and fold
    /// the per-tile outputs in row-major tile order.
    #[allow(clippy::too_many_arguments)]
    fn run_tile_job<P, S>(
        &mut self,
        span: &'static str,
        vp: &Viewport,
        source: &S,
        grid: TileGrid,
        fb: &mut Texture<P>,
        cover: Option<&mut Texture<u16>>,
        finish: impl Fn(&mut [P]) + Sync,
    ) -> TileJobReport
    where
        P: Copy + Default + Send + Sync,
        S: TileSource<P>,
    {
        self.begin_pass();
        let _draw_span = draw_span(span, source.charge(&mut self.stats));
        let pool = Arc::clone(&self.pool);
        let cx = TileCtx {
            vp,
            stamps: &self.stamps,
            be: simd::active_backend(),
        };
        // A one-tile grid rasterizes every primitive unbinned, and is
        // visited only if it received a fragment.
        let bins = (grid.num_tiles() > 1).then(|| source.bin(vp, &grid, &pool));
        let work: Vec<usize> = (0..grid.num_tiles())
            .filter(|&t| bins.as_ref().is_none_or(|b| !b[t].is_empty()))
            .collect();
        let mut cov_rows = cover
            .filter(|_| S::WRITES_COVER)
            .map(|c| grid.tile_rows(c.texels_mut(), &work).into_iter());
        let tiles: Vec<TilePlanes<'_, P>> = grid
            .tile_rows(fb.texels_mut(), &work)
            .into_iter()
            .zip(&work)
            .map(|(tex, &t)| TilePlanes {
                rect: grid.rect(t),
                tex,
                cov: cov_rows.as_mut().and_then(Iterator::next),
            })
            .collect();
        let outs = pool.run_claimed(tiles, |k, mut tile| {
            let mut tile_span = obs::span("tile_raster", "raster");
            tile_span.arg_u64("tile", work[k] as u64);
            let bin = bins.as_ref().map(|b| &b[work[k]][..]);
            let out = source.rasterize(&cx, bin, &mut tile);
            let visited = bins.is_some() || out.fragments > 0;
            if visited {
                tile.tex.iter_mut().for_each(|row| finish(row));
            }
            visited.then_some(out)
        });
        let mut done = TileJobReport {
            total_tiles: grid.num_tiles(),
            ..TileJobReport::default()
        };
        for (&t, out) in work.iter().zip(outs) {
            let Some(out) = out else { continue };
            done.drawn.boundary.extend(out.boundary);
            done.drawn.fragments += out.fragments;
            done.drawn.boundary_fragments += out.boundary_fragments;
            done.visited_tiles += 1;
            done.visited_texels += grid.rect(t).len();
        }
        self.stats.fragments += done.drawn.fragments;
        self.stats.boundary_fragments += done.drawn.boundary_fragments;
        self.stats.blend_ops += done.drawn.fragments;
        done
    }

    // ------------------------------------------------------------------
    // Fragment visitation (no framebuffer).
    // ------------------------------------------------------------------

    /// Chunk-parallel fragment visitation over a polygon table — the
    /// aggregation kernel behind the RasterJoin plan. See
    /// [`visit_polygon_fragments_indexed`](Self::visit_polygon_fragments_indexed),
    /// of which this is the every-record case.
    pub fn visit_polygon_fragments<A, I, V>(
        &mut self,
        vp: &Viewport,
        polys: &[Polygon],
        conservative: bool,
        init: I,
        visit: V,
    ) -> Vec<A>
    where
        A: Send,
        I: Fn(std::ops::Range<usize>) -> A + Sync,
        V: Fn(&mut A, u32, Frag) + Sync,
    {
        let all: Vec<u32> = (0..polys.len() as u32).collect();
        self.visit_polygon_fragments_indexed(vp, polys, &all, conservative, init, visit)
    }

    /// Visits the fragments of `polys[records[k]]` for each position
    /// `k`, passing the *position* `k` as the record index to `init`
    /// ranges and `visit` — so index-pruned plans walk a table subset
    /// without cloning polygons into a contiguous slice. Positions are
    /// cut into contiguous chunks (one per executor); each chunk gets a
    /// fresh accumulator from `init(range)` and rasterizes its polygons
    /// with the polygon draw's own fragment emitter (clipped to the
    /// whole frame), calling `visit(&mut acc, k, frag)` per fragment.
    /// Accumulators return in chunk order.
    ///
    /// Because each polygon's fragments are visited by exactly one
    /// executor in the sequential emission order, any per-record
    /// accumulation is bit-identical to the sequential run at every
    /// thread count (the caller's contract: `visit` must only fold
    /// state per record, never across records of different chunks).
    pub fn visit_polygon_fragments_indexed<A, I, V>(
        &mut self,
        vp: &Viewport,
        polys: &[Polygon],
        records: &[u32],
        conservative: bool,
        init: I,
        visit: V,
    ) -> Vec<A>
    where
        A: Send,
        I: Fn(std::ops::Range<usize>) -> A + Sync,
        V: Fn(&mut A, u32, Frag) + Sync,
    {
        self.begin_pass();
        for &r in records {
            charge_polygon(&mut self.stats, &polys[r as usize]);
        }
        let n = records.len();
        let pool = Arc::clone(&self.pool);
        let chunk = n.div_ceil(pool.threads()).max(1);
        let frame = TileRect::frame(vp.width(), vp.height());
        let cx = TileCtx {
            vp,
            stamps: &self.stamps,
            be: simd::active_backend(),
        };
        let results = pool.run_indexed(n.div_ceil(chunk), |ci| {
            let lo = ci * chunk;
            let hi = (lo + chunk).min(n);
            let mut acc = init(lo..hi);
            let (mut fragments, mut boundary_fragments) = (0u64, 0u64);
            for_each_stamped(&cx, hi - lo, frame, |i, stamps, gen| {
                let (k, poly) = ((lo + i) as u32, &polys[records[lo + i] as usize]);
                emit_polygon_fragments(&cx, poly, frame, stamps, gen, conservative, |e| match e {
                    Emit::Boundary { x, y, .. } => {
                        let boundary = true;
                        visit(&mut acc, k, Frag { x, y, boundary });
                        fragments += 1;
                        boundary_fragments += 1;
                    }
                    Emit::Interior { y, x0, n: run, .. } => {
                        let boundary = false;
                        (x0..x0 + run as u32)
                            .for_each(|x| visit(&mut acc, k, Frag { x, y, boundary }));
                        fragments += run as u64;
                    }
                });
            });
            (acc, fragments, boundary_fragments)
        });
        let mut out = Vec::with_capacity(results.len());
        for (acc, fragments, boundary_fragments) in results {
            self.stats.fragments += fragments;
            self.stats.boundary_fragments += boundary_fragments;
            // The GPU kernel this models blends each fragment into its
            // group slot, so fragments are charged as blend ops exactly
            // like a polygon draw.
            self.stats.blend_ops += fragments;
            out.push(acc);
        }
        out
    }
}

// ----------------------------------------------------------------------
// Tile-job vocabulary: sources, tile planes, fragment emitters.
// ----------------------------------------------------------------------

/// What rasterizing one bin into one tile produced — and, summed over
/// its tiles, a whole job.
#[derive(Default)]
struct TileOut {
    fragments: u64,
    boundary_fragments: u64,
    /// `(record, pixel)` of every conservative boundary fragment.
    boundary: Vec<(u32, u32)>,
}

/// What one tile job did, before the entry points pick their part.
#[derive(Default)]
struct TileJobReport {
    drawn: TileOut,
    visited_tiles: usize,
    visited_texels: usize,
    total_tiles: usize,
}

/// One tile's rows of the output planes, written in place: `tex[r]`
/// (and `cov[r]`) is row `rect.y0 + r` from column `rect.x0` on,
/// `rect.w` long.
struct TilePlanes<'p, P> {
    rect: TileRect,
    tex: Vec<&'p mut [P]>,
    cov: Option<Vec<&'p mut [u16]>>,
}

impl<P> TilePlanes<'_, P> {
    /// The texel at frame pixel `(x, y)` of this tile.
    #[inline]
    fn texel(&mut self, x: u32, y: u32) -> &mut P {
        &mut self.tex[(y - self.rect.y0) as usize][(x - self.rect.x0) as usize]
    }
}

/// Job-wide context of a tile's rasterization.
struct TileCtx<'a> {
    vp: &'a Viewport,
    stamps: &'a StampPool,
    be: Backend,
}

/// The primitive source of a tile job (see module docs).
trait TileSource<P>: Sync {
    /// One entry of a tile's bin.
    type Item: Send + Sync;
    /// Whether rasterizing writes the certain-cover plane.
    const WRITES_COVER: bool;
    /// Primitive count, and the vertex/primitive counters of drawing
    /// them all charged to `stats`.
    fn charge(&self, stats: &mut PipelineStats) -> usize;
    /// Per tile of `grid`, the primitives that can touch it, in input
    /// order; a source that scans may fan out over the pool.
    fn bin(&self, vp: &Viewport, grid: &TileGrid, pool: &WorkerPool) -> Vec<Vec<Self::Item>>;
    /// Rasterizes `bin` (`None`: every primitive — the one-tile grid)
    /// clipped to the tile's rect, in place into its planes.
    fn rasterize(
        &self,
        cx: &TileCtx<'_>,
        bin: Option<&[Self::Item]>,
        tile: &mut TilePlanes<'_, P>,
    ) -> TileOut;
}

struct PointSource<'a, S, B> {
    points: &'a [Point],
    shade: S,
    blend: B,
}

impl<P, S, B> TileSource<P> for PointSource<'_, S, B>
where
    P: Copy + Default + Send + Sync,
    S: Fn(u32, Point) -> P + Sync,
    B: Fn(P, P) -> P + Sync,
{
    /// `(x, y, point index)`: binning already resolved the pixel.
    type Item = (u32, u32, u32);
    const WRITES_COVER: bool = false;

    fn charge(&self, stats: &mut PipelineStats) -> usize {
        stats.vertices += self.points.len() as u64;
        stats.primitives += self.points.len() as u64;
        self.points.len()
    }

    fn bin(&self, vp: &Viewport, grid: &TileGrid, pool: &WorkerPool) -> Vec<Vec<Self::Item>> {
        // Chunk-parallel binning above the pool's minimum work (a
        // patch's small delta bins inline); chunks merge in input order
        // so every tile sees its points in global input order.
        let points = self.points;
        let chunks = if pool.should_parallelize(points.len()) {
            pool.threads()
        } else {
            1
        };
        let chunk_size = points.len().div_ceil(chunks).max(1);
        // Workers emit (tile, x, y, idx) so the sequential merge is a
        // plain push and the per-tile pass never recomputes coordinates.
        let parts = pool.run_indexed(points.len().div_ceil(chunk_size), |ci| {
            let lo = ci * chunk_size;
            let chunk = &points[lo..(lo + chunk_size).min(points.len())];
            let mut local = Vec::with_capacity(chunk.len());
            for (k, &p) in chunk.iter().enumerate() {
                rasterize_point(vp, p, |x, y| {
                    local.push((grid.tile_of(x, y) as u32, x, y, (lo + k) as u32));
                });
            }
            local
        });
        let mut bins = vec![Vec::new(); grid.num_tiles()];
        for (tile, x, y, i) in parts.into_iter().flatten() {
            bins[tile as usize].push((x, y, i));
        }
        bins
    }

    fn rasterize(
        &self,
        cx: &TileCtx<'_>,
        bin: Option<&[Self::Item]>,
        tile: &mut TilePlanes<'_, P>,
    ) -> TileOut {
        let mut fragments = 0u64;
        let mut put = |x: u32, y: u32, i: u32| {
            let t = tile.texel(x, y);
            *t = (self.blend)(*t, (self.shade)(i, self.points[i as usize]));
            fragments += 1;
        };
        match bin {
            Some(bin) => bin.iter().for_each(|&(x, y, i)| put(x, y, i)),
            None => {
                for (i, &p) in self.points.iter().enumerate() {
                    rasterize_point(cx.vp, p, |x, y| put(x, y, i as u32));
                }
            }
        }
        TileOut {
            fragments,
            boundary_fragments: fragments, // points always need exact coords
            boundary: Vec::new(),
        }
    }
}

/// Bins records to the tiles their bounding boxes overlap.
fn bin_by_bbox(
    vp: &Viewport,
    grid: &TileGrid,
    bboxes: impl Iterator<Item = BBox>,
) -> Vec<Vec<u32>> {
    let mut bins = vec![Vec::new(); grid.num_tiles()];
    for (record, bbox) in bboxes.enumerate() {
        if let Some((x0, y0, x1, y1)) = vp.pixel_range(&bbox) {
            for t in grid.tiles_overlapping(x0, y0, x1, y1) {
                bins[t].push(record as u32);
            }
        }
    }
    bins
}

/// Runs `emit(k, stamps, gen)` for `k` in `0..n` on a checked-out
/// stamp plane covering `clip`, a fresh generation each.
fn for_each_stamped(
    cx: &TileCtx<'_>,
    n: usize,
    clip: TileRect,
    mut emit: impl FnMut(usize, &mut [u32], u32),
) {
    if n == 0 {
        return;
    }
    let mut plane = cx.stamps.checkout(clip.len(), n);
    for k in 0..n {
        let gen = plane.next_gen();
        emit(k, &mut plane.stamps, gen);
    }
    cx.stamps.checkin(plane);
}

/// Length of a bin and its `k`-th record; without a bin (the one-tile
/// grid) every one of the `all` records, in order.
fn bin_records(bin: Option<&[u32]>, all: usize) -> (usize, impl Fn(usize) -> u32 + '_) {
    let n = bin.map_or(all, <[u32]>::len);
    (n, move |k| bin.map_or(k as u32, |b| b[k]))
}

fn charge_polygon(stats: &mut PipelineStats, poly: &Polygon) {
    stats.vertices += poly.num_vertices() as u64;
    stats.primitives += 1 + poly.holes().len() as u64;
}

struct PolygonSource<'a, S, B> {
    polys: &'a [Polygon],
    conservative: bool,
    shade: S,
    blend: B,
}

impl<P, S, B> TileSource<P> for PolygonSource<'_, S, B>
where
    P: Copy + Default + Send + Sync,
    S: Fn(u32, Frag) -> P + Sync,
    B: Fn(P, P) -> P + Sync,
{
    type Item = u32;
    const WRITES_COVER: bool = true;

    fn charge(&self, stats: &mut PipelineStats) -> usize {
        self.polys.iter().for_each(|p| charge_polygon(stats, p));
        self.polys.len()
    }

    fn bin(&self, vp: &Viewport, grid: &TileGrid, _: &WorkerPool) -> Vec<Vec<u32>> {
        bin_by_bbox(vp, grid, self.polys.iter().map(Polygon::bbox))
    }

    fn rasterize(
        &self,
        cx: &TileCtx<'_>,
        bin: Option<&[u32]>,
        tile: &mut TilePlanes<'_, P>,
    ) -> TileOut {
        let mut out = TileOut::default();
        let (width, conservative, clip) = (cx.vp.width(), self.conservative, tile.rect);
        let (n, record) = bin_records(bin, self.polys.len());
        for_each_stamped(cx, n, clip, |k, stamps, gen| {
            let pi = record(k);
            let poly = &self.polys[pi as usize];
            emit_polygon_fragments(cx, poly, clip, stamps, gen, conservative, |e| match e {
                Emit::Boundary { x, y } => {
                    let boundary = true;
                    let t = tile.texel(x, y);
                    *t = (self.blend)(*t, (self.shade)(pi, Frag { x, y, boundary }));
                    out.boundary.push((pi, y * width + x));
                    out.fragments += 1;
                    out.boundary_fragments += 1;
                }
                // The blend stays scalar left-to-right; the cover
                // increment runs as a SIMD row kernel.
                Emit::Interior { y, x0, n } => {
                    let boundary = false;
                    let (r, c) = ((y - clip.y0) as usize, (x0 - clip.x0) as usize);
                    for (t, x) in tile.tex[r][c..c + n].iter_mut().zip(x0..) {
                        *t = (self.blend)(*t, (self.shade)(pi, Frag { x, y, boundary }));
                    }
                    let cov = tile
                        .cov
                        .as_mut()
                        .expect("polygon draws carry the cover plane");
                    simd::cover_inc_with(cx.be, &mut cov[r][c..c + n]);
                    out.fragments += n as u64;
                }
            });
        });
        out
    }
}

struct PolylineSource<'a, S, B> {
    lines: &'a [Polyline],
    shade: S,
    blend: B,
}

impl<P, S, B> TileSource<P> for PolylineSource<'_, S, B>
where
    P: Copy + Default + Send + Sync,
    S: Fn(u32, Frag) -> P + Sync,
    B: Fn(P, P) -> P + Sync,
{
    type Item = u32;
    const WRITES_COVER: bool = false;

    fn charge(&self, stats: &mut PipelineStats) -> usize {
        for line in self.lines {
            stats.vertices += line.vertices().len() as u64;
            stats.primitives += line.num_segments() as u64;
        }
        self.lines.len()
    }

    fn bin(&self, vp: &Viewport, grid: &TileGrid, _: &WorkerPool) -> Vec<Vec<u32>> {
        bin_by_bbox(vp, grid, self.lines.iter().map(Polyline::bbox))
    }

    fn rasterize(
        &self,
        cx: &TileCtx<'_>,
        bin: Option<&[u32]>,
        tile: &mut TilePlanes<'_, P>,
    ) -> TileOut {
        let mut out = TileOut::default();
        let (width, clip) = (cx.vp.width(), tile.rect);
        let (n, record) = bin_records(bin, self.lines.len());
        for_each_stamped(cx, n, clip, |k, stamps, gen| {
            let li = record(k);
            let line = &self.lines[li as usize];
            emit_polyline_fragments(cx.vp, line, clip, stamps, gen, |x, y| {
                let boundary = true;
                let t = tile.texel(x, y);
                *t = (self.blend)(*t, (self.shade)(li, Frag { x, y, boundary }));
                out.boundary.push((li, y * width + x));
                out.fragments += 1;
            });
        });
        // Every covered pixel is a conservative boundary pixel.
        out.boundary_fragments = out.fragments;
        out
    }
}

/// Fragments of one polygon, as the emitter reports them.
enum Emit {
    /// One conservative boundary pixel.
    Boundary { x: u32, y: u32 },
    /// A scanline run of `n` interior pixels starting at `(x0, y)`.
    Interior { y: u32, x0: u32, n: usize },
}

/// True when the supercover of segment `a..b` can touch `clip`:
/// supercover pixels never leave the segment's pixel bbox, so segments
/// that cannot are rejected before the O(length) walk.
fn segment_touches(vp: &Viewport, clip: TileRect, a: Point, b: Point) -> bool {
    vp.pixel_range(&BBox::from_corners(a, b))
        .is_some_and(|(x0, y0, x1, y1)| clip.intersects_range(x0, y0, x1, y1))
}

/// Stamps pixel `(x, y)` for generation `gen`; true on the first visit
/// inside `clip`. Stamps are indexed tile-locally.
#[inline]
fn stamp_once(clip: TileRect, stamps: &mut [u32], gen: u32, x: u32, y: u32) -> bool {
    if !clip.contains(x, y) {
        return false;
    }
    let li = clip.local_index(x, y);
    let first = stamps[li] != gen;
    stamps[li] = gen;
    first
}

/// The polygon fragment emitter: every pixel of `poly` (outer ring
/// minus holes) inside `clip`, exactly once — conservative supercover
/// coverage of every ring edge first (when `conservative`), then the
/// scanline interior fill at pixel centers for pixels the boundary did
/// not claim.
fn emit_polygon_fragments(
    cx: &TileCtx<'_>,
    poly: &Polygon,
    clip: TileRect,
    stamps: &mut [u32],
    gen: u32,
    conservative: bool,
    mut sink: impl FnMut(Emit),
) {
    let (vp, be) = (cx.vp, cx.be);
    for edge in poly.edges().filter(|_| conservative) {
        if segment_touches(vp, clip, edge.a, edge.b) {
            rasterize_line_supercover(vp, edge.a, edge.b, |x, y| {
                if stamp_once(clip, stamps, gen, x, y) {
                    sink(Emit::Boundary { x, y });
                }
            });
        }
    }
    let (x1, y1) = (clip.x0 + clip.w - 1, clip.y0 + clip.h - 1);
    rasterize_polygon_fill_rect_spans(vp, poly, clip.x0, clip.y0, x1, y1, |y, first, last| {
        let li0 = clip.local_index(first, y);
        let span = &mut stamps[li0..li0 + (last - first + 1) as usize];
        if !simd::any_equals_with(be, span, gen) {
            // No pixel of the span carries this polygon's stamp yet
            // (the common case — only conservative boundary pixels are
            // pre-stamped): the stamp store is one SIMD row fill and
            // the per-pixel dedup test disappears.
            simd::fill_u32_with(be, span, gen);
            let n = span.len();
            return sink(Emit::Interior { y, x0: first, n });
        }
        // Otherwise emit the unstamped runs between stamped pixels.
        let mut c = 0;
        while c < span.len() {
            let start = c;
            while c < span.len() && span[c] != gen {
                span[c] = gen;
                c += 1;
            }
            if c > start {
                let (x0, n) = (first + start as u32, c - start);
                sink(Emit::Interior { y, x0, n });
            }
            c += 1;
        }
    });
}

/// The polyline fragment emitter: every pixel the segments of `line`
/// touch inside `clip` (supercover), exactly once, as `sink(x, y)`.
fn emit_polyline_fragments(
    vp: &Viewport,
    line: &Polyline,
    clip: TileRect,
    stamps: &mut [u32],
    gen: u32,
    mut sink: impl FnMut(u32, u32),
) {
    for seg in line.segments() {
        if segment_touches(vp, clip, seg.a, seg.b) {
            rasterize_line_supercover(vp, seg.a, seg.b, |x, y| {
                if stamp_once(clip, stamps, gen, x, y) {
                    sink(x, y);
                }
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simd::tests::T10;
    use crate::simd::BlendTag;
    use canvas_executor::Policy;

    fn vp10() -> Viewport {
        Viewport::new(
            BBox::new(Point::new(0.0, 0.0), Point::new(10.0, 10.0)),
            10,
            10,
        )
    }

    fn square(lo: f64, hi: f64) -> Polygon {
        Polygon::simple(vec![
            Point::new(lo, lo),
            Point::new(hi, lo),
            Point::new(hi, hi),
            Point::new(lo, hi),
        ])
        .unwrap()
    }

    /// One polygon drawn into fresh 10×10 planes with an additive blend.
    fn draw_one(pl: &mut Pipeline, fb: &mut Texture<u32>, poly: &Polygon, conservative: bool) {
        let mut cover: Texture<u16> = Texture::new(10, 10);
        let polys = std::slice::from_ref(poly);
        pl.draw_polygons_tiled(
            &vp10(),
            fb,
            &mut cover,
            polys,
            conservative,
            |_, _| 1u32,
            |d, s| d + s,
        );
    }

    #[test]
    fn draw_points_accumulates_coincident() {
        let vp = vp10();
        let mut fb: Texture<u32> = Texture::new(10, 10);
        let mut pl = Pipeline::new();
        let pts = vec![
            Point::new(2.5, 2.5),
            Point::new(2.6, 2.4), // same pixel
            Point::new(7.5, 7.5),
        ];
        pl.draw_points_tiled(&vp, &mut fb, &pts, |_, _| 1u32, |d, s| d + s);
        assert_eq!(fb.get(2, 2), 2);
        assert_eq!(fb.get(7, 7), 1);
        let st = pl.stats();
        assert_eq!(st.vertices, 3);
        assert_eq!(st.fragments, 3);
        assert_eq!(st.blend_ops, 3);
        assert_eq!(st.passes, 1);
    }

    #[test]
    fn draw_polygon_exactly_once_per_pixel() {
        let mut fb: Texture<u32> = Texture::new(10, 10);
        let mut pl = Pipeline::new();
        draw_one(&mut pl, &mut fb, &square(1.0, 8.0), true);
        // Every covered texel has value exactly 1 (no double emission
        // between boundary and interior passes).
        for (_, _, v) in fb.iter() {
            assert!(v <= 1, "pixel shaded {v} times");
        }
        let covered = fb.iter().filter(|&(_, _, v)| v == 1).count();
        assert!(covered >= 7 * 7, "interior must be covered, got {covered}");
        let st = pl.stats();
        assert_eq!(st.fragments as usize, covered);
        assert!(st.boundary_fragments > 0);
        assert!(st.boundary_fragments < st.fragments);
    }

    #[test]
    fn draw_polygon_conservative_covers_superset() {
        let poly = Polygon::simple(vec![
            Point::new(1.2, 1.3),
            Point::new(8.7, 1.9),
            Point::new(4.4, 8.2),
        ])
        .unwrap();
        let mut pl = Pipeline::new();
        let mut fb_std: Texture<u32> = Texture::new(10, 10);
        draw_one(&mut pl, &mut fb_std, &poly, false);
        let mut fb_cons: Texture<u32> = Texture::new(10, 10);
        draw_one(&mut pl, &mut fb_cons, &poly, true);
        for ((x, y, s), (_, _, c)) in fb_std.iter().zip(fb_cons.iter()) {
            assert!(c >= s, "conservative lost coverage at ({x},{y})");
        }
    }

    #[test]
    fn draw_polyline_dedups_shared_vertices() {
        let vp = vp10();
        let mut fb: Texture<u32> = Texture::new(10, 10);
        let mut pl = Pipeline::new();
        let line = Polyline::new(vec![
            Point::new(1.5, 1.5),
            Point::new(5.5, 1.5),
            Point::new(5.5, 6.5),
        ])
        .unwrap();
        pl.draw_polylines_tiled(&vp, &mut fb, &[line], |_, _| 1u32, |d, s| d + s);
        for (_, _, v) in fb.iter() {
            assert!(v <= 1, "polyline pixel shaded {v} times");
        }
        // The corner pixel (5,1) appears once despite ending one segment
        // and starting the next.
        assert_eq!(fb.get(5, 1), 1);
    }

    #[test]
    fn generation_stamps_survive_many_draws() {
        let mut pl = Pipeline::new();
        let mut fb: Texture<u32> = Texture::new(10, 10);
        // Repeated draws accumulate exactly once each.
        for _ in 0..10 {
            draw_one(&mut pl, &mut fb, &square(2.0, 7.0), true);
        }
        let max = fb.iter().map(|(_, _, v)| v).max().unwrap();
        assert_eq!(max, 10);
    }

    #[test]
    fn stamp_pool_clears_on_generation_wrap() {
        let pool = StampPool::default();
        let mut plane = pool.checkout(4, 1);
        plane.stamps[0] = plane.next_gen();
        plane.gen = u32::MAX - 1;
        pool.checkin(plane);
        let plane = pool.checkout(4, 2);
        assert_eq!(plane.gen, 0);
        assert!(plane.stamps.iter().all(|&s| s == 0));
    }

    #[test]
    fn blend_counts_and_merges() {
        for threads in [1usize, 4] {
            let mut pl = Pipeline::new();
            pl.set_threads(threads);
            let mut dst: Texture<u16> = Texture::filled(33, 21, 1);
            let mut src: Texture<u16> = Texture::new(33, 21);
            pl.par_map_texels(&mut src, |x, y, _| (x * 7 + y) as u16);
            pl.reset_stats();
            pl.blend_cover_into(&mut dst, &src);
            assert!(dst.iter().all(|(x, y, v)| v == 1 + (x * 7 + y) as u16));
            assert_eq!(pl.stats().fullscreen_texels, 33 * 21);
            assert_eq!(pl.stats().blend_ops, 33 * 21);
        }
    }

    #[test]
    #[should_panic(expected = "same-size")]
    fn blend_size_mismatch_panics() {
        let mut pl = Pipeline::new();
        let mut dst: Texture<u16> = Texture::new(4, 4);
        let src: Texture<u16> = Texture::new(4, 5);
        pl.blend_cover_into(&mut dst, &src);
    }

    #[test]
    fn par_map_visits_every_pixel_once_with_coordinates() {
        for threads in [1usize, 3] {
            let mut pl = Pipeline::new();
            pl.set_threads(threads);
            let mut fb: Texture<u32> = Texture::filled(16, 5, 1);
            pl.par_map_texels(&mut fb, |x, y, v| v + x + 100 * y);
            assert!(fb.iter().all(|(x, y, v)| v == 1 + x + 100 * y));
            assert_eq!(pl.stats().fullscreen_texels, 80);
        }
    }

    #[test]
    fn upload_download_counters() {
        let mut pl = Pipeline::new();
        pl.note_upload(1024);
        pl.note_download(256);
        pl.note_compute_edge_tests(99);
        let st = pl.stats();
        assert_eq!(st.bytes_uploaded, 1024);
        assert_eq!(st.bytes_downloaded, 256);
        assert_eq!(st.compute_edge_tests, 99);
        pl.reset_stats();
        assert_eq!(pl.stats(), PipelineStats::default());
    }

    fn vp_big() -> Viewport {
        // 3×2 tiles of 64px (with clipped edge tiles).
        Viewport::new(
            BBox::new(Point::new(0.0, 0.0), Point::new(100.0, 100.0)),
            150,
            100,
        )
    }

    #[test]
    fn map_planes_collects_in_row_major_order() {
        for threads in [1usize, 3] {
            let mut a: Texture<u32> = Texture::new(10, 9);
            let mut c: Texture<u16> = Texture::new(10, 9);
            let mut pl = Pipeline::new();
            pl.set_threads(threads);
            let collected = pl.map_planes(&mut a, &mut c, |y, row, cover, out| {
                assert_eq!((row.len(), cover.len()), (10, 10), "one pixel row per call");
                for (x, (t, cov)) in row.iter_mut().zip(cover.iter_mut()).enumerate() {
                    let x = x as u32;
                    *t = x + y;
                    *cov = 1;
                    if x == y {
                        out.push(y * 10 + x);
                    }
                }
            });
            assert_eq!(
                collected.capacity(),
                collected.len(),
                "one exact allocation"
            );
            assert_eq!(collected, vec![0, 11, 22, 33, 44, 55, 66, 77, 88]);
            assert_eq!(a.get(3, 5), 8);
            assert!(c.iter().all(|(_, _, v)| v == 1));
            assert_eq!(pl.stats().fullscreen_texels, 90);
        }
    }

    #[test]
    fn scatter_moves_accumulates_and_drops() {
        let vp = vp10();
        let mut pl = Pipeline::new();
        let mut src: Texture<u32> = Texture::new(10, 10);
        src.set(1, 1, 5);
        src.set(8, 8, 7);
        src.set(4, 4, 9);
        let mut dst: Texture<u32> = Texture::new(10, 10);
        // Non-zero texels go to world (0.5, 0.5), except 9 which lands
        // outside the viewport and is dropped.
        pl.scatter_shared(
            &src,
            &vp,
            &mut dst,
            |_, _, v| match *v {
                0 => None,
                9 => Some(Point::new(100.0, 100.0)),
                _ => Some(Point::new(0.5, 0.5)),
            },
            |d, s| d + s,
        );
        assert_eq!(dst.get(0, 0), 12);
        assert_eq!(dst.iter().filter(|&(_, _, v)| v != 0).count(), 1);
        assert_eq!(pl.stats().scatter_reads, 100);
        assert_eq!(pl.stats().scatter_writes, 2);
    }

    #[test]
    fn scatter_streamed_matches_direct_at_any_thread_count() {
        let vp = vp_big();
        let mut src: Texture<u32> = Texture::new(150, 100);
        let mut pl = Pipeline::new();
        pl.par_map_texels(&mut src, |x, y, _| (x * 7 + y * 13) % 5);
        let target = |x: u32, y: u32, v: &u32| {
            // Fold everything into a small square, with collisions.
            (*v != 0).then(|| Point::new((x % 7) as f64 + 0.5, (y % 7) as f64 + 0.5))
        };
        let blend = |d: u32, s: u32| d.wrapping_mul(31).wrapping_add(s);
        // Reference: the direct below-threshold loop.
        let mut reference: Texture<u32> = Texture::new(150, 100);
        pl.scatter_shared(&src, &vp, &mut reference, target, blend);
        let ref_stats = pl.stats();
        for threads in [2usize, 4] {
            let mut pt = Pipeline::new();
            // Force the streamed path even on this small plane.
            let policy = Policy {
                min_parallel_items: 0,
                ..Policy::default()
            };
            pt.set_pool(Arc::new(WorkerPool::with_policy(threads, policy)));
            let mut dst: Texture<u32> = Texture::new(150, 100);
            pt.scatter_shared(&src, &vp, &mut dst, target, blend);
            assert_eq!(reference, dst, "threads={threads}");
            assert_eq!(ref_stats.scatter_writes, pt.stats().scatter_writes);
            assert_eq!(ref_stats.scatter_reads, pt.stats().scatter_reads);
        }
    }

    /// A point texel of count `v1`, and the draw blend summing counts.
    fn count(v1: f32) -> T10 {
        let mut t = T10::default();
        (t.0[0], t.0[2]) = (1, v1.to_bits());
        t
    }

    fn add_counts(d: T10, s: T10) -> T10 {
        count(f32::from_bits(d.0[2]) + f32::from_bits(s.0[2]))
    }

    #[test]
    fn chain_on_empty_draw_still_runs_operators() {
        // 0 primitives: the draw contributes nothing, but the chain's
        // full-screen operators must still rewrite every texel.
        let mut operand: Texture<T10> = Texture::new(150, 100);
        for (i, t) in operand.texels_mut().iter_mut().enumerate() {
            *t = count(i as f32 + 1.0);
        }
        for threads in [1usize, 4] {
            let vp = vp_big();
            let mut fb: Texture<T10> = Texture::new(150, 100);
            let mut pt = Pipeline::new();
            pt.set_threads(threads);
            let chain = OpChain::new().blend_tagged(&operand, None, BlendTag::Over);
            pt.run_chain_points(
                &vp,
                &mut fb,
                None,
                &[],
                |_, _| count(1.0),
                add_counts,
                &chain,
            );
            assert_eq!(fb, operand, "threads={threads}");
            assert_eq!(pt.stats().fragments, 0);
        }
    }

    #[test]
    fn chain_on_single_tile_canvas() {
        // A canvas smaller than one tile: the multi-thread draw runs on
        // a one-tile 64×64 grid, unbinned, like the pool of one.
        let vp = vp10();
        let pts = vec![
            Point::new(2.5, 2.5),
            Point::new(2.5, 2.5),
            Point::new(7.5, 7.5),
        ];
        let mut want: Texture<T10> = Texture::new(10, 10);
        let mut pm = Pipeline::new();
        pm.draw_points_tiled(&vp, &mut want, &pts, |_, _| count(1.0), add_counts);
        simd::value_rows_with(Backend::Scalar, ValueTag::HeatLog, want.texels_mut());
        for threads in [1usize, 3] {
            let mut fb: Texture<T10> = Texture::new(10, 10);
            let mut pt = Pipeline::new();
            pt.set_threads(threads);
            let chain = OpChain::new().map_tagged(ValueTag::HeatLog);
            pt.run_chain_points(
                &vp,
                &mut fb,
                None,
                &pts,
                |_, _| count(1.0),
                add_counts,
                &chain,
            );
            assert_eq!(want, fb, "threads={threads}");
        }
    }
}
