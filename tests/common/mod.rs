//! Helpers shared by the integration tests (`mod common;`); a test
//! binary may use only some of them.

#![allow(dead_code)]

use canvas_algebra::prelude::*;
use canvas_algebra::raster::simd::{texel_words, TEXEL_WORDS};
use canvas_algebra::raster::Texture;
use std::process::Command;

/// A texel plane as its word images, for bit-for-bit comparison:
/// `Texel`'s `PartialEq` compares `f32`s, so two planes holding the same
/// NaN never compare equal, while their words do.
pub fn texel_bits(plane: &Texture<Texel>) -> Vec<[u32; TEXEL_WORDS]> {
    plane.texels().iter().map(|t| *texel_words(t)).collect()
}

/// Whole canvases, part by part: texel words (bit for bit, NaN too),
/// cover, the point / area / line runs and point levels, and the
/// source tables (equal tables, in the same order).
pub fn assert_same_canvas(got: &Canvas, want: &Canvas, ctx: &str) {
    assert_eq!(got.viewport(), want.viewport(), "{ctx}: viewport");
    assert_eq!(
        texel_bits(got.texels()),
        texel_bits(want.texels()),
        "{ctx}: texel words"
    );
    assert_eq!(got.cover(), want.cover(), "{ctx}: cover");
    let runs = |c: &Canvas| {
        let b = c.boundary();
        (
            b.points().copied().collect::<Vec<_>>(),
            b.areas().to_vec(),
            b.lines().to_vec(),
            b.point_levels().len(),
        )
    };
    assert_eq!(runs(got), runs(want), "{ctx}: runs");
    assert_eq!(
        got.area_sources(),
        want.area_sources(),
        "{ctx}: area sources"
    );
    assert_eq!(
        got.line_sources().len(),
        want.line_sources().len(),
        "{ctx}: line sources"
    );
}

/// Runs the tests `names` of this test binary again in a child process
/// with the SIMD dispatch forced to scalar (`CANVAS_SIMD=scalar`), and
/// panics unless they pass. The backend is chosen once per process, so
/// this is how one `cargo test` holds a path to both dispatches. A
/// no-op when this process already runs under a `CANVAS_SIMD` choice.
pub fn rerun_on_scalar(names: &[&str]) {
    if std::env::var_os("CANVAS_SIMD").is_some() {
        return;
    }
    let mut child = Command::new(std::env::current_exe().expect("test binary path"));
    child.args(names).args(["--exact", "--test-threads=1"]);
    let out = child.env("CANVAS_SIMD", "scalar").output().expect("runs");
    let log = String::from_utf8_lossy(&out.stdout);
    let passed = log.contains(&format!("ok. {} passed", names.len()));
    assert!(passed, "{names:?} with CANVAS_SIMD=scalar:\n{log}");
}

/// The point canvas as drawn before it was its run, kept as the spec of
/// `render_points`: the tiled point draw (`Pipeline::draw_points_tiled`
/// on a pool of `threads`) into an empty canvas, then the entries of the
/// in-view points pushed in input order and stably sorted by pixel (the
/// sequential scatter).
pub fn spec_point_canvas(threads: usize, vp: Viewport, batch: &PointBatch) -> Canvas {
    use canvas_algebra::core::boundary::{BoundaryIndex, PointEntry, SortedRun};
    use canvas_algebra::raster::Pipeline;
    let mut pl = Pipeline::new();
    pl.set_threads(threads);
    let mut canvas = Canvas::empty(vp);
    let (ids, weights) = (&batch.ids, &batch.weights);
    pl.draw_points_tiled(
        &vp,
        canvas.planes_mut().0,
        &batch.points,
        |i, _| Texel::point(ids[i as usize], 1.0, weights[i as usize]),
        |d, s| BlendFn::PointAccumulate.apply(d, s),
    );
    let mut entries: Vec<PointEntry> = (batch.points.iter().zip(ids.iter().zip(weights)))
        .filter_map(|(&loc, (&record, &weight))| {
            let (x, y) = vp.world_to_pixel(loc)?;
            let pixel = y * vp.width() + x;
            Some(PointEntry {
                pixel,
                record,
                loc,
                weight,
            })
        })
        .collect();
    entries.sort_by_key(|e| e.pixel);
    let (w, h) = (vp.width(), vp.height());
    let points = SortedRun::from_sorted(w, h, entries);
    *canvas.boundary_mut() =
        BoundaryIndex::from_runs(points, SortedRun::new(w, h), SortedRun::new(w, h));
    canvas
}
