//! Cross-query subplan sharing — the algebra-side hook.
//!
//! The engine's whole-plan cache (PR 4) deduplicates *identical* plans;
//! the SPADE follow-up engine goes further and reuses rendered
//! **intermediates** across operators: a selection and a heatmap over
//! the same data + viewport both render the same density canvas `C_P`
//! and the same query-polygon canvas `C_Q`, and should compute each
//! once. [`SubplanCache`] is the narrow interface evaluation uses to
//! make that possible without the algebra knowing anything about
//! engines or threads. At every *cut point* (a canvas-producing
//! subexpression worth sharing, see
//! [`is_cut_point`](super::fingerprint::is_cut_point)) evaluation asks
//! the cache for the subplan's structural [`Fingerprint`] at the
//! viewport; on a miss it renders the canvas itself and publishes it.
//!
//! Nothing waits on another query: two evaluations that miss the same
//! subplan at once both render it, and the later publish replaces the
//! earlier one. Callers pass the cache as `Option<&dyn SubplanCache>`;
//! `None` means no sharing, and evaluation then skips per-node
//! fingerprinting entirely, so [`Expr::eval`](super::Expr::eval) stays
//! zero-overhead.
//!
//! ## Identity and bit-identity contract
//!
//! A subplan fingerprint follows the module contract of
//! [`fingerprint`](mod@super::fingerprint): structural hash of the subtree,
//! datasets by handle, geometry by value, functions by name. Rendering
//! is deterministic, so any canvas published under a fingerprint is
//! bit-identical to the canvas a later reader would have rendered
//! itself — sharing is invisible in results, which is the same
//! contract the whole-plan cache already makes.

use std::sync::Arc;

use super::fingerprint::Fingerprint;
use crate::canvas::Canvas;
use canvas_raster::Viewport;

/// The cache evaluation consults at cut points (see module docs).
pub trait SubplanCache {
    /// The canvas published under `(fp, vp)`, if it is still resident.
    fn get(&self, fp: Fingerprint, vp: &Viewport) -> Option<Arc<Canvas>>;

    /// Offers a freshly rendered canvas for `(fp, vp)` to later readers.
    fn publish(&self, fp: Fingerprint, vp: &Viewport, canvas: &Arc<Canvas>);
}

/// Get-or-render helper shared by the canvas-chain query paths: the
/// cache is probed for `fp`; on a miss the canvas is rendered by
/// `render` and published. The chains use this **only** for canvases
/// they materialize anyway — their operands (`C_Q`, the tagged query
/// region) and the `C_Y*` the choropleth starts from — never for a
/// chain's intermediates, so a chain is never broken by a cut point.
pub fn acquire_or_render(
    cache: Option<&dyn SubplanCache>,
    fp: Fingerprint,
    vp: &Viewport,
    render: impl FnOnce() -> Canvas,
) -> Arc<Canvas> {
    let Some(cache) = cache else {
        return Arc::new(render());
    };
    if let Some(c) = cache.get(fp, vp) {
        return c;
    }
    let c = Arc::new(render());
    cache.publish(fp, vp, &c);
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use canvas_geom::{BBox, Point};
    use std::cell::RefCell;

    fn vp() -> Viewport {
        Viewport::new(BBox::new(Point::new(0.0, 0.0), Point::new(4.0, 4.0)), 4, 4)
    }

    #[test]
    fn no_cache_renders_privately() {
        let mut renders = 0;
        for _ in 0..2 {
            let c = acquire_or_render(None, Fingerprint(7), &vp(), || {
                renders += 1;
                Canvas::empty(vp())
            });
            assert!(c.is_empty());
        }
        assert_eq!(renders, 2, "without a cache every call renders");
    }

    /// A toy one-slot cache.
    struct Memo {
        slot: RefCell<Option<Arc<Canvas>>>,
    }

    impl SubplanCache for Memo {
        fn get(&self, _fp: Fingerprint, _vp: &Viewport) -> Option<Arc<Canvas>> {
            self.slot.borrow().clone()
        }

        fn publish(&self, _fp: Fingerprint, _vp: &Viewport, canvas: &Arc<Canvas>) {
            *self.slot.borrow_mut() = Some(Arc::clone(canvas));
        }
    }

    #[test]
    fn acquire_or_render_publishes_then_reuses() {
        let memo = Memo {
            slot: RefCell::new(None),
        };
        let mut renders = 0;
        let first = acquire_or_render(Some(&memo), Fingerprint(1), &vp(), || {
            renders += 1;
            Canvas::empty(vp())
        });
        let second = acquire_or_render(Some(&memo), Fingerprint(1), &vp(), || {
            renders += 1;
            Canvas::empty(vp())
        });
        assert_eq!(renders, 1, "second call reused the published canvas");
        assert!(Arc::ptr_eq(&first, &second));
    }
}
