//! The streaming-ingest bit-identity oracle.
//!
//! Every prior layer (tiling, binning, chains, SIMD) is held together
//! by the same contract — parallel ≡ sequential ≡ fused, bit for bit —
//! so the incremental dirty-tile maintenance path ships with its own:
//! a random base dataset plus a random append sequence, maintained
//! generation by generation through `patch_live_heatmap`, must equal a
//! from-scratch `render_live_heatmap` of the full dataset **exactly**
//! (texel words, cover plane, boundary index, canvas-level stats) at
//! every generation, on every device shape (1 / 2 / 8 workers) and on
//! both SIMD dispatch modes (forced scalar vs auto).
//!
//! The reference for all configurations is the sequential forced-scalar
//! from-scratch render, so the assertions also pin the cross-device and
//! cross-backend axes, not just incremental-vs-scratch per config.
//!
//! A patched canvas shares its predecessor's point-index levels, so
//! every predecessor is re-checked against its own reference after
//! being patched from (no write may go through a shared level), and
//! long histories drive the index's compaction rule through every
//! branch.

use std::collections::HashSet;
use std::sync::Arc;

use canvas_core::{
    patch_live_heatmap, render_live_heatmap, Canvas, Device, PointBatch, Texel, VersionedTable,
};
use canvas_geom::{BBox, Point};
use canvas_raster::{Backend, Viewport};
use proptest::prelude::*;

fn extent() -> BBox {
    BBox::new(Point::new(0.0, 0.0), Point::new(100.0, 100.0))
}

/// 192×192 → a 3×3 grid of 64-px tiles, so deltas routinely dirty a
/// strict subset of tiles.
fn vp() -> Viewport {
    Viewport::new(extent(), 192, 192)
}

/// Points straddle the viewport border: out-of-viewport appends must
/// flow through the maintenance path as zero-fragment work.
fn arb_weighted() -> impl Strategy<Value = (Point, f32)> {
    ((-15.0f64..115.0, -15.0f64..115.0), 0.25f32..8.0).prop_map(|((x, y), w)| (Point::new(x, y), w))
}

fn batch(pts: &[(Point, f32)]) -> PointBatch {
    PointBatch::with_weights(
        pts.iter().map(|&(p, _)| p).collect(),
        pts.iter().map(|&(_, w)| w).collect(),
    )
}

/// The texel plane as raw `u32` words (bitwise comparison — `f32`
/// `PartialEq` would conflate `-0.0 == 0.0` and miss NaN payloads).
fn texel_words(c: &Canvas) -> &[u32] {
    let texels: &[Texel] = c.texels().texels();
    const WORDS: usize = std::mem::size_of::<Texel>() / 4;
    unsafe { std::slice::from_raw_parts(texels.as_ptr().cast::<u32>(), texels.len() * WORDS) }
}

fn assert_bit_identical(got: &Canvas, want: &Canvas, ctx: &str) {
    assert_eq!(texel_words(got), texel_words(want), "texel words: {ctx}");
    assert_eq!(got.cover(), want.cover(), "cover plane: {ctx}");
    assert_eq!(got.boundary(), want.boundary(), "boundary index: {ctx}");
    // Canvas-level stats ride along for free once the planes match,
    // but they are the quantities the oracle's consumers read — assert
    // them by name. (PipelineStats are deliberately NOT compared: the
    // incremental path doing O(delta) device work instead of O(n) is
    // the feature, not a divergence.)
    assert_eq!(got.non_null_count(), want.non_null_count(), "{ctx}");
    assert_eq!(got.point_records(), want.point_records(), "{ctx}");
    assert_eq!(
        got.point_weight_sum().to_bits(),
        want.point_weight_sum().to_bits(),
        "{ctx}"
    );
}

/// The device/dispatch grid: `Device::cpu` and `cpu_parallel{2,8}`,
/// each forced-scalar and auto-dispatched. `None` inherits
/// `simd::active_backend()` (AVX2/SSE2 where the host has it).
fn configs() -> [(usize, Option<Backend>); 6] {
    [
        (1, Some(Backend::Scalar)),
        (1, None),
        (2, Some(Backend::Scalar)),
        (2, None),
        (8, Some(Backend::Scalar)),
        (8, None),
    ]
}

fn device(threads: usize) -> Device {
    if threads == 1 {
        Device::cpu()
    } else {
        Device::cpu_parallel(threads)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Random base + random append sequence ⇒ maintained canvas equals
    /// the from-scratch render at every generation, on every config,
    /// against one shared sequential-scalar reference.
    #[test]
    fn incremental_matches_scratch_across_devices_and_backends(
        base in prop::collection::vec(arb_weighted(), 0..50),
        appends in prop::collection::vec(prop::collection::vec(arb_weighted(), 0..25), 1..4),
    ) {
        // Cumulative batches per generation, with the global sequential
        // ids a VersionedTable would assign.
        let mut cum = base.clone();
        let mut gens: Vec<PointBatch> = vec![batch(&cum)];
        for delta in &appends {
            cum.extend(delta.iter().copied());
            gens.push(batch(&cum));
        }

        // The shared reference: sequential, forced scalar, from scratch.
        let mut ref_dev = device(1);
        let refs: Vec<Canvas> = gens
            .iter()
            .map(|g| render_live_heatmap(&mut ref_dev, vp(), g, Some(Backend::Scalar)))
            .collect();

        for (threads, backend) in configs() {
            let ctx_cfg = format!("threads={threads} backend={backend:?}");

            // From-scratch renders on this config match the reference
            // (the cross-device / cross-backend axis).
            let mut dev = device(threads);
            for (g, full) in gens.iter().enumerate() {
                let scratch = render_live_heatmap(&mut dev, vp(), full, backend);
                assert_bit_identical(&scratch, &refs[g], &format!("scratch gen {g}, {ctx_cfg}"));
            }

            // Incremental maintenance on this config: render gen 0,
            // then patch forward one generation at a time. Every
            // intermediate must already be bit-identical — a compensating
            // error that cancels by the last generation would still be
            // a bug.
            let mut dev = device(threads);
            let mut maintained = render_live_heatmap(&mut dev, vp(), &gens[0], backend);
            assert_bit_identical(&maintained, &refs[0], &format!("gen 0, {ctx_cfg}"));
            for g in 1..gens.len() {
                let from_len = gens[g - 1].len();
                let (patched, out) =
                    patch_live_heatmap(&mut dev, vp(), &maintained, &gens[g], from_len, backend);
                prop_assert_eq!(out.delta_points, gens[g].len() - from_len);
                prop_assert!(out.dirty_tiles <= out.total_tiles);
                assert_bit_identical(&patched, &refs[g], &format!("patched gen {g}, {ctx_cfg}"));
                // The predecessor shares levels with its successor; the
                // patch must not have written through any of them.
                assert_bit_identical(
                    &maintained,
                    &refs[g - 1],
                    &format!("gen {} after patching from it, {ctx_cfg}", g - 1),
                );
                maintained = patched;
            }
        }
    }

    /// Patching may also start from *any* older generation (the engine
    /// probes predecessors newest-first but takes whatever the cache
    /// still holds): skipping generations must be as exact as stepping.
    /// Every patch reads the table's `delta_from` the predecessor, as
    /// the engine's does — from an older one that is several chunks
    /// concatenated, across the empty appends between `mid` and `last`.
    #[test]
    fn patch_from_any_predecessor_generation(
        base in prop::collection::vec(arb_weighted(), 1..40),
        mid in prop::collection::vec(arb_weighted(), 1..20),
        gaps in 1usize..3,
        last in prop::collection::vec(arb_weighted(), 1..20),
        tail in prop::collection::vec(prop::collection::vec(arb_weighted(), 0..10), 0..3),
    ) {
        let mut appends = vec![mid.clone()];
        appends.extend(std::iter::repeat_n(Vec::new(), gaps));
        appends.push(last.clone());
        appends.extend(tail);
        let table = VersionedTable::new("any", extent(), batch(&base));
        let mut cum = base.clone();
        let mut gens = vec![batch(&cum)];
        for delta in &appends {
            table.append(&batch(delta));
            cum.extend(delta.iter().copied());
            gens.push(batch(&cum));
        }
        let snap = table.snapshot();
        let newest = gens.len() - 1;

        let mut dev = device(2);
        let want = render_live_heatmap(&mut dev, vp(), &gens[newest], None);
        for g in 0..newest {
            let before = render_live_heatmap(&mut dev, vp(), &gens[g], None);
            let delta = snap.delta_from(snap.len_at(g as u64).unwrap());
            let filled = appends[g..].iter().filter(|a| !a.is_empty()).count();
            prop_assert_eq!(delta.chunks, filled);
            let (patched, out) = patch_live_heatmap(&mut dev, vp(), &before, &delta.batch, 0, None);
            prop_assert_eq!(out.delta_points, gens[newest].len() - gens[g].len());
            assert_bit_identical(&patched, &want, &format!("patch from gen {g}"));
            let want_before = render_live_heatmap(&mut dev, vp(), &gens[g], None);
            assert_bit_identical(&before, &want_before, &format!("gen {g} after patching from it"));
        }
    }
}

/// What one patch did to its predecessor's point stack.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Compaction {
    /// No in-viewport entries: no level was added.
    Empty,
    /// The delta became a level of its own; nothing was rewritten.
    Stacked,
    /// Two deltas merged by the size-ratio rule; the base stayed shared.
    Ratio,
    /// The ratio held but a fourth level was one too many: the two
    /// newest merged; the base stayed shared.
    Cap,
    /// The compaction reached the base and rewrote it.
    Base,
}

fn compaction(before: &Canvas, after: &Canvas, compacted: usize) -> Compaction {
    let (b, a) = (before.boundary(), after.boundary());
    let delta = a.num_points() - b.num_points();
    let sizes: Vec<usize> = b.point_levels().iter().map(|l| l.len()).collect();
    if delta == 0 {
        Compaction::Empty
    } else if compacted == 0 {
        Compaction::Stacked
    } else if !Arc::ptr_eq(&b.point_levels()[0], &a.point_levels()[0]) {
        Compaction::Base
    } else if sizes.len() == 3 && sizes[2] >= 4 * delta {
        Compaction::Cap
    } else {
        Compaction::Ratio
    }
}

/// Long histories — dozens of appends, mostly trickles with bursts —
/// patched generation by generation: every intermediate canvas equals
/// its from-scratch render and so does every predecessor after being
/// patched from, the stack never exceeds three levels, and between them
/// the histories take every branch of the compaction rule.
#[test]
fn long_histories_cross_every_compaction_branch() {
    let mut rng = TestRng::for_test("long-histories");
    let mut seen = HashSet::new();
    for history in 0..4 {
        let mut cum: Vec<(Point, f32)> = (0..1_500)
            .map(|_| arb_weighted().generate(&mut rng))
            .collect();
        let mut dev = device(2);
        let mut maintained = render_live_heatmap(&mut dev, vp(), &batch(&cum), None);
        for g in 1..=40 {
            let size = match rng.next_u64() % 8 {
                0 => 0,
                1..=4 => 1 + (rng.next_u64() % 4) as usize,
                5 | 6 => 10 + (rng.next_u64() % 20) as usize,
                _ => 60 + (rng.next_u64() % 90) as usize,
            };
            let from_len = cum.len();
            cum.extend((0..size).map(|_| arb_weighted().generate(&mut rng)));
            let full = batch(&cum);
            let (patched, out) =
                patch_live_heatmap(&mut dev, vp(), &maintained, &full, from_len, None);
            let ctx = format!("history {history}, gen {g}");
            assert!(out.levels <= 3, "{ctx}: {} levels", out.levels);
            assert_eq!(out.levels, patched.boundary().point_levels().len(), "{ctx}");
            seen.insert(compaction(&maintained, &patched, out.compacted));
            let want = render_live_heatmap(&mut device(1), vp(), &full, None);
            assert_bit_identical(&patched, &want, &ctx);
            let want_before =
                render_live_heatmap(&mut device(1), vp(), &batch(&cum[..from_len]), None);
            assert_bit_identical(&maintained, &want_before, &format!("{ctx}: predecessor"));
            maintained = patched;
        }
    }
    for branch in [
        Compaction::Empty,
        Compaction::Stacked,
        Compaction::Ratio,
        Compaction::Cap,
        Compaction::Base,
    ] {
        assert!(
            seen.contains(&branch),
            "no patch took {branch:?}: saw {seen:?}"
        );
    }
}
