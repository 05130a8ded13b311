//! Versioned point tables and incremental canvas maintenance.
//!
//! The paper motivates the model with a continuously arriving taxi
//! feed, but the algebra's tables are immutable and the engine's cache
//! keys identify datasets by `Arc` handle — a live deployment would
//! have to drop every cached canvas and re-render O(dataset) on each
//! append. This module adds the streaming-ingest story:
//!
//! * [`VersionedTable`] — an append-only point table with a **stable
//!   identity handle** and a **monotone generation stamp**. Both fold
//!   into [`FingerprintBuilder`] identities
//!   ([`TableSnapshot::fold_identity`]), so a cached canvas keyed at
//!   generation `g` can never satisfy a probe at generation `g+1`
//!   (stale results are unreachable by construction), while repeated
//!   probes at the *same* generation still hit.
//! * Records are stored as one `Arc<PointBatch>` **chunk per
//!   generation** (chunk 0 is the base; each append adds one, ids
//!   already global). A [`TableSnapshot`] shares the chunk list by
//!   pointer — O(generations) pointer copies, never the records — and
//!   concatenates it only if [`TableSnapshot::batch`] is asked for
//!   (O(table), once per snapshot). A refresh reads only
//!   [`TableSnapshot::delta_from`] its predecessor: the appended chunk
//!   itself for the newest one.
//! * [`render_live_heatmap`] — the maintained view: a full tiled
//!   point-density render finished by the `HeatLog` value pass
//!   (`v2 := ln(1 + count)` per occupied pixel).
//! * [`patch_live_heatmap`] — O(delta) maintenance from the cached
//!   canvas of a previous generation, which it never writes: copy its
//!   two planes, bin only the appended points to tiles, replay the
//!   blend on the dirty tiles, re-apply the value pass over those
//!   tiles, and stack the delta's boundary entries as a new level on
//!   the predecessor's point levels, which the new canvas shares by
//!   pointer ([`RunStack`](crate::boundary::RunStack); its size-ratio
//!   compaction keeps the stack at most three levels deep).
//!
//! ## Why the patch is bit-identical to a full re-render
//!
//! The equivalence is by construction, not approximation (and fuzzed
//! in `tests/incremental_equivalence.rs`):
//!
//! * Per-pixel blending is a sequential left fold over points in input
//!   order ([`BlendFn::PointAccumulate`]; a full render folds each
//!   pixel's slice of its stably sorted run, which holds the pixel's
//!   points in input order); folding the appended suffix onto the
//!   prefix's result equals folding the whole sequence. The blend reads
//!   and writes only the 0-row's `(id, v1, v2)`.
//! * The `HeatLog` value kernel writes `v2` purely from `v1` and
//!   touches nothing else. Re-applying it over a dirty tile therefore
//!   overwrites the only word the cached (post-value-pass) texels
//!   disagree on with the pre-value-pass fold state — and tiles with
//!   no delta points already hold the exact full-render texels.
//! * Boundary point entries are ordered by pixel with ties in input
//!   order; the delta's entries come later in the input than every
//!   predecessor entry, so a level stacked on the predecessor's (read
//!   behind them on ties, and merged behind them when compacted)
//!   reproduces the full render's index exactly. The cover plane is
//!   never touched by point draws.
//!
//! The table keeps no spatial index of its own: an append stores the
//! chunk and bumps the generation, nothing more. Readers that filter
//! spatially build their grid from the snapshot they read.

use std::sync::{Arc, Mutex, OnceLock};

use crate::algebra::FingerprintBuilder;
use crate::canvas::{Canvas, PointBatch};
use crate::device::Device;
use crate::info::{BlendFn, Texel};
use canvas_geom::BBox;
use canvas_raster::{Backend, OpChain, ValueTag, Viewport};

/// Result of one [`VersionedTable::append`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AppendOutcome {
    /// The new (post-append) generation.
    pub generation: u64,
    /// Points accepted by this append (may be 0 — an empty append is a
    /// no-op generation bump).
    pub appended: usize,
    /// Total points at the new generation.
    pub total: usize,
}

/// Outcome of one [`patch_live_heatmap`] call.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PatchOutcome {
    /// Tiles that received at least one delta point and were redrawn.
    pub dirty_tiles: usize,
    /// Total tiles of the viewport's grid.
    pub total_tiles: usize,
    /// Points in the applied delta (including out-of-viewport ones).
    pub delta_points: usize,
    /// Levels of the patched canvas's point index.
    pub levels: usize,
    /// Point entries the index's compaction rewrote in this patch.
    pub compacted: usize,
}

struct State {
    /// `chunks[g]`: the records generation `g` added — the base for
    /// `g = 0`, else that append's batch with global ids (possibly
    /// empty). Snapshots share them by pointer.
    chunks: Vec<Arc<PointBatch>>,
    /// Monotone version stamp; bumped by every append, empty or not.
    generation: u64,
    /// `gen_lens[g]` = point count at generation `g` (append-only, so a
    /// generation's prefix length identifies its contents exactly).
    gen_lens: Vec<usize>,
    appends: u64,
    /// Cached immutable snapshot of the current generation.
    snapshot: Option<TableSnapshot>,
}

impl State {
    fn len(&self) -> usize {
        *self.gen_lens.last().expect("generation 0 always exists")
    }
}

/// Rejects a batch whose columns disagree before it enters `table`: a
/// longer `weights` would shift every later record's weight, a shorter
/// one would panic inside some reader's render.
fn check_columns(table: &str, what: &str, batch: &PointBatch) {
    assert_eq!(
        batch.weights.len(),
        batch.points.len(),
        "table {table:?}: {what} batch has {} weights for {} points",
        batch.weights.len(),
        batch.points.len()
    );
}

/// An append-only versioned point table (see module docs).
///
/// Appends and snapshots are thread-safe; concurrent appenders
/// serialize on an internal lock and readers always observe a complete
/// generation. Record ids are assigned globally (`0..len` in arrival
/// order) so ids stay unique across appended batches.
pub struct VersionedTable {
    /// Stable identity: fingerprints hash this `Arc`'s address, so the
    /// table keeps one dataset identity across all generations (and
    /// cache entries pin it to keep the address alive).
    ident: Arc<String>,
    state: Mutex<State>,
}

impl VersionedTable {
    /// A table seeded with `base` as generation 0. Its ids are replaced
    /// by `0..len`; panics when its columns differ in length. `_extent`
    /// (the feed's declared world) is unused: the table keeps no index
    /// to size with it.
    pub fn new(name: &str, _extent: BBox, mut base: PointBatch) -> Self {
        check_columns(name, "base", &base);
        base.ids = (0..base.len() as u32).collect();
        VersionedTable {
            ident: Arc::new(name.to_string()),
            state: Mutex::new(State {
                gen_lens: vec![base.len()],
                chunks: vec![Arc::new(base)],
                generation: 0,
                appends: 0,
                snapshot: None,
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Table name (diagnostics only; identity is the `Arc` address).
    pub fn name(&self) -> &str {
        &self.ident
    }

    /// Appends a batch and bumps the generation. Incoming ids are
    /// ignored — records get global sequential ids; weights are kept.
    /// An empty batch is a no-op generation bump (same points, new
    /// stamp), which deliberately invalidates cached fingerprints.
    /// Panics when the batch's columns differ in length.
    pub fn append(&self, batch: &PointBatch) -> AppendOutcome {
        check_columns(self.name(), "appended", batch);
        let mut st = self.lock();
        let base = st.len();
        let total = base + batch.len();
        st.chunks.push(Arc::new(PointBatch {
            points: batch.points.clone(),
            ids: (base as u32..total as u32).collect(),
            weights: batch.weights.clone(),
        }));
        st.generation += 1;
        st.appends += 1;
        st.gen_lens.push(total);
        st.snapshot = None;
        AppendOutcome {
            generation: st.generation,
            appended: batch.len(),
            total,
        }
    }

    /// Current generation stamp (0 for the freshly constructed table).
    pub fn generation(&self) -> u64 {
        self.lock().generation
    }

    /// Total appends accepted so far.
    pub fn appends(&self) -> u64 {
        self.lock().appends
    }

    pub fn len(&self) -> usize {
        self.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// An immutable snapshot of the current generation: the chunk list
    /// shared by pointer, no record copied. Cached until the next
    /// append, so repeated snapshots of one generation share one
    /// [`batch`](TableSnapshot::batch) `Arc` — and one fingerprint.
    pub fn snapshot(&self) -> TableSnapshot {
        let mut st = self.lock();
        if st.snapshot.is_none() {
            st.snapshot = Some(TableSnapshot {
                ident: Arc::clone(&self.ident),
                records: Arc::new(Records {
                    chunks: st.chunks.clone(),
                    gen_lens: st.gen_lens.clone(),
                    whole: OnceLock::new(),
                }),
                generation: st.generation,
            });
        }
        st.snapshot.clone().expect("populated above")
    }
}

/// The records of one generation, shared by every snapshot of it.
struct Records {
    /// The table's chunks up to this generation (see `State::chunks`).
    chunks: Vec<Arc<PointBatch>>,
    /// `gen_lens[g]` = point count at generation `g`.
    gen_lens: Vec<usize>,
    /// The chunks concatenated, built by the first multi-chunk
    /// [`TableSnapshot::batch`] call.
    whole: OnceLock<Arc<PointBatch>>,
}

/// One batch holding `chunks` back to back (their ids are global, so
/// they need no renumbering).
fn concat<C: AsRef<PointBatch>>(chunks: &[C]) -> PointBatch {
    let n = chunks.iter().map(|c| c.as_ref().len()).sum();
    let mut out = PointBatch {
        points: Vec::with_capacity(n),
        ids: Vec::with_capacity(n),
        weights: Vec::with_capacity(n),
    };
    for c in chunks {
        let c = c.as_ref();
        out.points.extend_from_slice(&c.points);
        out.ids.extend_from_slice(&c.ids);
        out.weights.extend_from_slice(&c.weights);
    }
    out
}

/// The records a snapshot holds past a predecessor's prefix (see
/// [`TableSnapshot::delta_from`]).
pub struct Delta {
    /// The appended records in arrival order, with their global ids.
    pub batch: Arc<PointBatch>,
    /// Non-empty append chunks the records came from: 1 means `batch`
    /// *is* that chunk, shared by pointer; more means they were copied
    /// into one batch.
    pub chunks: usize,
}

/// An immutable view of one generation of a [`VersionedTable`]:
/// the table's chunks up to it, the generation stamp, and the prefix
/// lengths of every earlier generation (what an incremental refresh
/// needs to locate a delta against *any* cached predecessor).
#[derive(Clone)]
pub struct TableSnapshot {
    ident: Arc<String>,
    records: Arc<Records>,
    generation: u64,
}

impl TableSnapshot {
    /// The snapshot's full point batch (shared; append-only prefix of
    /// every later generation). A generation-0 snapshot returns the
    /// base chunk itself; any later one concatenates its chunks on the
    /// first call — O(table), once per snapshot, shared by every clone
    /// of it. A refresh reads [`delta_from`](Self::delta_from) instead.
    pub fn batch(&self) -> &Arc<PointBatch> {
        match self.records.chunks.as_slice() {
            [only] => only,
            chunks => self.records.whole.get_or_init(|| Arc::new(concat(chunks))),
        }
    }

    /// The records past the first `prefix_len` — what a refresh from a
    /// predecessor of that length patches in — without touching the
    /// prefix. `prefix_len` must be the length of one of this
    /// snapshot's generations ([`len_at`](Self::len_at)). The newest
    /// predecessor's delta is the appended chunk itself, shared by
    /// pointer; an older one's concatenates only the chunks in between.
    pub fn delta_from(&self, prefix_len: usize) -> Delta {
        let Records {
            chunks, gen_lens, ..
        } = &*self.records;
        // Every chunk after the first generation of that length.
        let g = gen_lens.partition_point(|&len| len < prefix_len);
        assert_eq!(
            gen_lens.get(g),
            Some(&prefix_len),
            "no generation of this snapshot holds {prefix_len} points"
        );
        let tail = &chunks[g + 1..];
        let filled: Vec<&Arc<PointBatch>> = tail.iter().filter(|c| !c.is_empty()).collect();
        let batch = match filled[..] {
            [] => tail.last().cloned().unwrap_or_default(),
            [only] => Arc::clone(only),
            _ => Arc::new(concat(&filled)),
        };
        Delta {
            batch,
            chunks: filled.len(),
        }
    }

    pub fn generation(&self) -> u64 {
        self.generation
    }

    pub fn len(&self) -> usize {
        *self
            .records
            .gen_lens
            .last()
            .expect("generation 0 always exists")
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Point count at `generation` (≤ this snapshot's), or `None` for
    /// unknown generations.
    pub fn len_at(&self, generation: u64) -> Option<usize> {
        if generation > self.generation {
            return None;
        }
        self.records.gen_lens.get(generation as usize).copied()
    }

    /// Prior generations of this table, newest first — the probe order
    /// for an incremental refresh (patching the freshest cached canvas
    /// redraws the fewest points).
    pub fn predecessors(&self) -> impl Iterator<Item = u64> + '_ {
        (0..self.generation).rev()
    }

    /// Folds this snapshot's dataset identity — stable table handle +
    /// generation stamp + length — into a fingerprint under the
    /// standard identity contract (datasets by handle). Two snapshots
    /// of one table at different generations can never collide, and
    /// re-snapshotting an unchanged table reproduces the identity.
    pub fn fold_identity(&self, fb: &mut FingerprintBuilder) {
        fb.handle(&self.ident, self.len()).word(self.generation);
    }

    /// Identity of the same table at an older `generation` (for
    /// probing a predecessor's cache entries). Panics on generations
    /// this snapshot does not know.
    pub fn fold_identity_at(&self, fb: &mut FingerprintBuilder, generation: u64) {
        let len = self
            .len_at(generation)
            .expect("generation beyond this snapshot");
        fb.handle(&self.ident, len).word(generation);
    }

    /// The table's stable identity handle — cache entries must pin
    /// this (the fingerprint hashed its address) alongside
    /// [`records_handle`](Self::records_handle).
    pub fn ident_handle(&self) -> Arc<String> {
        Arc::clone(&self.ident)
    }

    /// The snapshot's shared chunk list, for a cache entry to pin: it
    /// keeps this generation's records alive without concatenating
    /// them (as pinning [`batch`](Self::batch) would).
    pub fn records_handle(&self) -> Arc<dyn std::any::Any + Send + Sync> {
        Arc::clone(&self.records) as _
    }
}

/// Builds the live-heatmap operator chain: the `HeatLog` value pass
/// that finishes the point-density draw, optionally pinned to an
/// explicit SIMD backend (tests pin both the full and the incremental
/// path to the same backend to exercise the dispatch axis without
/// process-global state).
fn heatmap_chain<'a>(backend: Option<Backend>) -> OpChain<'a, Texel> {
    let chain: OpChain<'_, Texel> = OpChain::new().map_tagged(ValueTag::HeatLog);
    match backend {
        Some(be) => chain.with_backend(be),
        None => chain,
    }
}

/// Full render of the live density heatmap: every point accumulates
/// `(count, weight)` into its pixel's 0-row, then the `HeatLog` pass
/// writes `v2 := ln(1 + count)`. This is the from-scratch path an
/// incremental refresh falls back to (and the oracle the patch path is
/// compared against, bit for bit).
pub fn render_live_heatmap(
    dev: &mut Device,
    vp: Viewport,
    batch: &PointBatch,
    backend: Option<Backend>,
) -> Canvas {
    crate::source::draw_points(dev, vp, batch, &heatmap_chain(backend))
}

/// Incremental maintenance of a live heatmap: the canvas of the full
/// `batch`, built from `base` — the canvas rendered from its first
/// `from_len` points — by patching in the appended suffix
/// `batch[from_len..]`. The two planes are copied and only the tiles
/// the delta touches are redrawn; the point index is `base`'s levels,
/// shared by pointer, with the delta's entries stacked on top. `base`
/// is left as it was. Bit-identical to [`render_live_heatmap`] over the
/// full batch (module docs explain why; the proptest oracle asserts
/// it).
pub fn patch_live_heatmap(
    dev: &mut Device,
    vp: Viewport,
    base: &Canvas,
    batch: &PointBatch,
    from_len: usize,
    backend: Option<Backend>,
) -> (Canvas, PatchOutcome) {
    assert_eq!(
        base.viewport(),
        &vp,
        "patch requires the cached canvas's viewport"
    );
    assert!(
        from_len <= batch.len(),
        "previous generation longer than the batch (tables are append-only)"
    );
    let delta_points = &batch.points[from_len..];
    let delta_ids = &batch.ids[from_len..];
    let delta_weights = &batch.weights[from_len..];
    // Only the delta is uploaded — the cached canvas is already device
    // resident in the modeled deployment.
    dev.pipeline()
        .note_upload((delta_points.len() * (8 + 4 + 4)) as u64);
    let be = backend.unwrap_or_else(canvas_raster::simd::active_backend);
    let mut texels = base.texels().clone();
    let report = dev.pipeline().patch_points_tiled(
        &vp,
        &mut texels,
        delta_points,
        |i, _| Texel::point(delta_ids[i as usize], 1.0, delta_weights[i as usize]),
        |d, s| BlendFn::PointAccumulate.apply(d, s),
        Some((be, ValueTag::HeatLog)),
    );
    // The delta's entries, scattered into pixel order, stack on the
    // predecessor's levels and so read behind them on ties — exactly the
    // order a full render's scatter of the whole (append-only) batch
    // produces.
    let mut boundary = base.boundary().clone();
    let compacted = boundary.push_points(crate::source::point_run(
        dev.pool(),
        &vp,
        delta_points,
        delta_ids,
        delta_weights,
    ));
    let levels = boundary.point_levels().len();
    let canvas = Canvas::from_parts(
        vp,
        texels,
        base.cover().clone(),
        boundary,
        base.area_sources().to_vec(),
        base.line_sources().to_vec(),
    );
    (
        canvas,
        PatchOutcome {
            dirty_tiles: report.dirty_tiles,
            total_tiles: report.total_tiles,
            delta_points: delta_points.len(),
            levels,
            compacted,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use canvas_geom::Point;
    use proptest::prelude::*;

    fn vp(n: u32) -> Viewport {
        Viewport::new(
            BBox::new(Point::new(0.0, 0.0), Point::new(10.0, 10.0)),
            n,
            n,
        )
    }

    fn batch(pts: &[(f64, f64)]) -> PointBatch {
        PointBatch::from_points(pts.iter().map(|&(x, y)| Point::new(x, y)).collect())
    }

    #[test]
    fn generations_and_snapshots() {
        let t = VersionedTable::new(
            "taxi",
            BBox::new(Point::new(0.0, 0.0), Point::new(10.0, 10.0)),
            batch(&[(1.0, 1.0), (2.0, 2.0)]),
        );
        assert_eq!(t.generation(), 0);
        assert_eq!(t.len(), 2);
        let s0 = t.snapshot();
        // Same-generation snapshots share the batch Arc (stable
        // fingerprints for cache hits).
        assert!(Arc::ptr_eq(s0.batch(), t.snapshot().batch()));

        let out = t.append(&batch(&[(3.0, 3.0)]));
        assert_eq!(
            out,
            AppendOutcome {
                generation: 1,
                appended: 1,
                total: 3
            }
        );
        let s1 = t.snapshot();
        assert_eq!(s1.generation(), 1);
        assert_eq!(s1.len_at(0), Some(2));
        assert_eq!(s1.len_at(1), Some(3));
        assert_eq!(s1.len_at(2), None);
        assert_eq!(s1.predecessors().collect::<Vec<_>>(), vec![0]);
        // Global ids stay sequential across appends.
        assert_eq!(s1.batch().ids, vec![0, 1, 2]);

        // Identity: same generation reproduces, different generations
        // (and the no-op bump) differ.
        let fp = |s: &TableSnapshot| {
            let mut fb = FingerprintBuilder::new("test/versioned");
            s.fold_identity(&mut fb);
            fb.finish()
        };
        assert_ne!(fp(&s0), fp(&s1));
        assert_eq!(fp(&s1), fp(&t.snapshot()));
        let empty = t.append(&PointBatch::default());
        assert_eq!(
            empty,
            AppendOutcome {
                generation: 2,
                appended: 0,
                total: 3
            }
        );
        assert_ne!(fp(&t.snapshot()), fp(&s1), "empty append still re-stamps");
        // The old snapshot can reconstruct its own identity from the
        // newer one's view.
        let mut fb = FingerprintBuilder::new("test/versioned");
        t.snapshot().fold_identity_at(&mut fb, 1);
        assert_eq!(fb.finish(), fp(&s1));
    }

    mod spec {
        //! The table as it stored its records before they were chunked:
        //! contiguous columns, copied whole into every snapshot.
        use super::{Point, PointBatch};

        pub struct OldTable {
            points: Vec<Point>,
            weights: Vec<f32>,
        }

        impl OldTable {
            pub fn new(base: &PointBatch) -> Self {
                OldTable {
                    points: base.points.clone(),
                    weights: base.weights.clone(),
                }
            }

            pub fn append(&mut self, batch: &PointBatch) {
                self.points.extend_from_slice(&batch.points);
                self.weights.extend_from_slice(&batch.weights);
            }

            pub fn snapshot(&self) -> PointBatch {
                let n = self.points.len();
                PointBatch {
                    points: self.points.clone(),
                    ids: (0..n as u32).collect(),
                    weights: self.weights.clone(),
                }
            }
        }
    }

    /// Column-wise equality of `got` with `want[from..]`.
    fn same_records(got: &PointBatch, want: &PointBatch, from: usize) -> bool {
        got.points == want.points[from..]
            && got.ids == want.ids[from..]
            && got.weights == want.weights[from..]
    }

    fn arb_batch(max: usize) -> impl Strategy<Value = PointBatch> {
        prop::collection::vec(((0.0f64..10.0, 0.0f64..10.0), 0.25f32..4.0), 0..max).prop_map(
            |pts| {
                PointBatch::with_weights(
                    pts.iter().map(|&((x, y), _)| Point::new(x, y)).collect(),
                    pts.iter().map(|&(_, w)| w).collect(),
                )
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Random histories of 0–60 appends (a sixth of them empty) held
        /// to the contiguous spec at every generation: the whole batch,
        /// the delta from every predecessor, and which of them share a
        /// chunk by pointer instead of copying.
        #[test]
        fn chunked_snapshots_match_the_contiguous_spec(
            base in arb_batch(30),
            appends in prop::collection::vec(arb_batch(6), 0..61),
        ) {
            let t = VersionedTable::new("spec", BBox::new(Point::new(0.0, 0.0), Point::new(10.0, 10.0)), base.clone());
            let mut old = spec::OldTable::new(&base);
            for g in 0..=appends.len() {
                if g > 0 {
                    t.append(&appends[g - 1]);
                    old.append(&appends[g - 1]);
                }
                let (snap, want) = (t.snapshot(), old.snapshot());
                let chunks = t.lock().chunks.clone();
                prop_assert!(same_records(snap.batch(), &want, 0), "generation {}", g);
                prop_assert!(Arc::ptr_eq(snap.batch(), t.snapshot().batch()));
                if g == 0 {
                    prop_assert!(Arc::ptr_eq(snap.batch(), &chunks[0]), "one chunk is its own batch");
                } else {
                    let newest = snap.delta_from(snap.len_at(g as u64 - 1).unwrap());
                    prop_assert!(Arc::ptr_eq(&newest.batch, &chunks[g]), "generation {}", g);
                }
                for from in 0..=g {
                    let len = snap.len_at(from as u64).unwrap();
                    let delta = snap.delta_from(len);
                    prop_assert!(same_records(&delta.batch, &want, len), "generation {} from {}", g, from);
                    let filled = appends[from..g].iter().filter(|a| !a.is_empty()).count();
                    prop_assert_eq!(delta.chunks, filled);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "table \"bad\": base batch has 3 weights for 2 points")]
    fn new_rejects_mismatched_columns() {
        let mut base = batch(&[(1.0, 1.0), (2.0, 2.0)]);
        base.weights.push(1.0);
        VersionedTable::new("bad", *vp(8).world(), base);
    }

    #[test]
    #[should_panic(expected = "table \"bad\": appended batch has 1 weights for 2 points")]
    fn append_rejects_mismatched_columns() {
        let t = VersionedTable::new("bad", *vp(8).world(), batch(&[(1.0, 1.0)]));
        let mut delta = batch(&[(2.0, 2.0), (3.0, 3.0)]);
        delta.weights.pop();
        t.append(&delta);
    }

    #[test]
    fn patch_matches_full_render_simple() {
        let full = batch(&[(2.5, 2.5), (2.6, 2.4), (7.5, 7.5), (2.5, 2.5), (1.0, 8.0)]);
        for threads in [1usize, 3] {
            let mut dev_full = Device::cpu_parallel(threads);
            let mut dev_inc = Device::cpu_parallel(threads);
            let want = render_live_heatmap(&mut dev_full, vp(128), &full, None);
            let prefix = PointBatch {
                points: full.points[..3].to_vec(),
                ids: full.ids[..3].to_vec(),
                weights: full.weights[..3].to_vec(),
            };
            let base = render_live_heatmap(&mut dev_inc, vp(128), &prefix, None);
            let (got, out) = patch_live_heatmap(&mut dev_inc, vp(128), &base, &full, 3, None);
            assert_eq!(got.texels(), want.texels(), "threads={threads}");
            assert_eq!(got.cover(), want.cover(), "threads={threads}");
            assert_eq!(got.boundary(), want.boundary(), "threads={threads}");
            assert_eq!(out.delta_points, 2);
            assert!(out.dirty_tiles >= 1 && out.dirty_tiles <= 2);
            assert_eq!(out.total_tiles, 4);
        }
    }

    #[test]
    fn patches_share_the_predecessor_base_level() {
        // 100 two-point deltas add a sixth of the base: compaction keeps
        // every level within a quarter of the one under it, so it never
        // reaches the base.
        let pts: Vec<(f64, f64)> = (0..1_200)
            .map(|i| ((i % 97) as f64 / 9.7, (i % 89) as f64 / 8.9))
            .collect();
        let mut all = batch(&pts);
        let mut dev = Device::cpu();
        let mut canvas = render_live_heatmap(&mut dev, vp(64), &all, None);
        let mut compacted = 0;
        for g in 0..100 {
            let from_len = all.len();
            for k in 0..2 {
                let id = all.len() as u32;
                all.points.push(Point::new(g as f64 / 10.0, k as f64 * 5.0));
                all.ids.push(id);
                all.weights.push(1.0);
            }
            let (next, out) = patch_live_heatmap(&mut dev, vp(64), &canvas, &all, from_len, None);
            let (before, after) = (
                canvas.boundary().point_levels(),
                next.boundary().point_levels(),
            );
            assert!(Arc::ptr_eq(&before[0], &after[0]), "generation {g}");
            assert!(after.len() <= 3, "generation {g}: {} levels", after.len());
            assert_eq!(out.levels, after.len());
            compacted += out.compacted;
            canvas = next;
        }
        assert!(compacted > 0, "the deltas were compacted among themselves");
        let want = render_live_heatmap(&mut Device::cpu(), vp(64), &all, None);
        assert_eq!(canvas.boundary(), want.boundary());
        assert_eq!(canvas.texels(), want.texels());
    }

    #[test]
    fn empty_delta_patch_is_identity() {
        let full = batch(&[(2.5, 2.5), (7.5, 7.5)]);
        let mut dev = Device::cpu();
        let base = render_live_heatmap(&mut dev, vp(64), &full, None);
        let (got, out) = patch_live_heatmap(&mut dev, vp(64), &base, &full, 2, None);
        assert_eq!(got.texels(), base.texels());
        assert_eq!(got.boundary(), base.boundary());
        assert_eq!(out.dirty_tiles, 0);
        assert_eq!(out.delta_points, 0);
    }

    #[test]
    fn out_of_viewport_delta_dirties_no_tiles() {
        let full = batch(&[(2.5, 2.5), (50.0, 50.0), (-3.0, 4.0)]);
        let mut dev = Device::cpu();
        let base = render_live_heatmap(&mut dev, vp(64), &full, None);
        let (got, out) = patch_live_heatmap(&mut dev, vp(64), &base, &full, 1, None);
        let mut dev2 = Device::cpu();
        let want = render_live_heatmap(&mut dev2, vp(64), &full, None);
        assert_eq!(got.texels(), want.texels());
        assert_eq!(got.boundary(), want.boundary());
        assert_eq!(out.dirty_tiles, 0, "out-of-viewport points dirty nothing");
        assert_eq!(out.delta_points, 2);
    }
}
