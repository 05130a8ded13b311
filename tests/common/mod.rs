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
