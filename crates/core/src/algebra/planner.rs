//! Cost-based physical plan choice (paper Section 7).
//!
//! "By appropriately modeling the cost functions of the operators
//! together with metadata about the input, the optimizer can choose a
//! plan that has a lower cost." This module is that optimizer step for
//! selection queries: given input statistics and a device profile, it
//! prices the two physical strategies —
//!
//! * **canvas plan**: render data + constraints, blend, mask
//!   (per-point cost independent of polygon complexity), vs
//! * **PIP refinement**: per-point point-in-polygon tests
//!   (cost ∝ points × constraints × vertices, but no canvas overheads),
//!
//! and picks the cheaper. The crossover it finds is the one this
//! module's tests pin: tiny inputs with simple polygons favor direct
//! refinement; everything else favors the canvas.

use canvas_raster::{DeviceProfile, PipelineStats};

/// Input statistics the optimizer consults (relational-style metadata).
#[derive(Clone, Copy, Debug)]
pub struct SelectionStats {
    /// Number of input points (inside the filter MBR).
    pub num_points: u64,
    /// Number of constraint polygons.
    pub num_constraints: u32,
    /// Average vertices per constraint polygon.
    pub avg_vertices: u32,
    /// Canvas resolution (longer side, pixels).
    pub resolution: u32,
    /// Fraction of canvas pixels a constraint covers (≈ selectivity).
    pub coverage: f64,
}

/// The two physical strategies for a polygonal selection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SelectionStrategy {
    /// Blend + mask on the canvas pipeline.
    CanvasBlendMask,
    /// Direct per-point PIP refinement (compute kernel).
    PipRefinement,
}

/// A priced plan choice.
#[derive(Clone, Debug)]
pub struct PlanChoice {
    pub strategy: SelectionStrategy,
    pub canvas_cost: f64,
    pub pip_cost: f64,
}

/// Predicted pipeline work of the canvas selection plan.
pub fn canvas_plan_stats(s: &SelectionStats) -> PipelineStats {
    let texels = (s.resolution as u64).pow(2);
    let constraint_fragments = ((texels as f64) * s.coverage * s.num_constraints as f64) as u64;
    PipelineStats {
        // points render + constraint render + blend + mask.
        passes: 4,
        vertices: s.num_points + (s.num_constraints * s.avg_vertices) as u64,
        primitives: s.num_points + s.num_constraints as u64,
        fragments: s.num_points + constraint_fragments,
        boundary_fragments: 0,
        blend_ops: s.num_points + constraint_fragments + 2 * texels,
        fullscreen_texels: 2 * texels, // blend pass + mask pass
        scatter_reads: 0,
        scatter_writes: 0,
        bytes_uploaded: s.num_points * 16 + (s.num_constraints * s.avg_vertices) as u64 * 16,
        bytes_downloaded: s.num_points / 8,
        compute_edge_tests: 0,
    }
}

/// Predicted work of the direct PIP strategy.
pub fn pip_plan_stats(s: &SelectionStats) -> PipelineStats {
    PipelineStats {
        passes: 1,
        bytes_uploaded: s.num_points * 8 + (s.num_constraints * s.avg_vertices) as u64 * 8,
        bytes_downloaded: s.num_points / 8,
        compute_edge_tests: s.num_points * (s.num_constraints * s.avg_vertices) as u64,
        ..Default::default()
    }
}

/// Prices both strategies on the device and returns the cheaper one.
pub fn choose_selection_strategy(profile: &DeviceProfile, s: &SelectionStats) -> PlanChoice {
    let canvas_cost = profile.estimate(&canvas_plan_stats(s));
    let pip_cost = profile.estimate(&pip_plan_stats(s));
    PlanChoice {
        strategy: if canvas_cost <= pip_cost {
            SelectionStrategy::CanvasBlendMask
        } else {
            SelectionStrategy::PipRefinement
        },
        canvas_cost,
        pip_cost,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(num_points: u64, num_constraints: u32, avg_vertices: u32) -> SelectionStats {
        SelectionStats {
            num_points,
            num_constraints,
            avg_vertices,
            resolution: 512,
            coverage: 0.3,
        }
    }

    #[test]
    fn tiny_simple_queries_prefer_pip() {
        // 1k points against one square: rendering a 512² canvas is
        // overkill; the optimizer must see that.
        let profile = DeviceProfile::nvidia_gtx_1070_max_q();
        let choice = choose_selection_strategy(&profile, &stats(1_000, 1, 4));
        assert_eq!(choice.strategy, SelectionStrategy::PipRefinement);
        assert!(choice.pip_cost < choice.canvas_cost);
    }

    #[test]
    fn large_complex_queries_prefer_canvas() {
        let profile = DeviceProfile::nvidia_gtx_1070_max_q();
        let choice = choose_selection_strategy(&profile, &stats(10_000_000, 2, 128));
        assert_eq!(choice.strategy, SelectionStrategy::CanvasBlendMask);
        assert!(choice.canvas_cost < choice.pip_cost);
    }

    #[test]
    fn more_constraints_flip_the_decision() {
        // The Figure 9(c) phenomenon as a plan choice: at an input size
        // where one simple constraint still favors direct PIP, a
        // 16-constraint disjunction flips the decision to the canvas
        // because PIP pays per constraint and the canvas does not.
        let profile = DeviceProfile::nvidia_gtx_1070_max_q();
        let one = choose_selection_strategy(&profile, &stats(20_000, 1, 64));
        let many = choose_selection_strategy(&profile, &stats(20_000, 16, 64));
        assert_eq!(one.strategy, SelectionStrategy::PipRefinement);
        assert_eq!(many.strategy, SelectionStrategy::CanvasBlendMask);
        // PIP cost inflates with constraints; canvas cost barely moves.
        assert!(many.pip_cost > 4.0 * one.pip_cost);
        assert!(many.canvas_cost < 2.0 * one.canvas_cost);
    }

    #[test]
    fn crossover_exists_and_is_monotone() {
        // Along growing n, once the canvas wins it keeps winning.
        let profile = DeviceProfile::nvidia_gtx_1070_max_q();
        let mut seen_canvas = false;
        for exp in 8..26 {
            let n = 1u64 << exp;
            let c = choose_selection_strategy(&profile, &stats(n, 1, 128));
            if seen_canvas {
                assert_eq!(
                    c.strategy,
                    SelectionStrategy::CanvasBlendMask,
                    "regressed to PIP at n = {n}"
                );
            }
            if c.strategy == SelectionStrategy::CanvasBlendMask {
                seen_canvas = true;
            }
        }
        assert!(seen_canvas, "canvas never chosen");
    }

    #[test]
    fn devices_place_crossover_differently() {
        // Each device has a finite PIP→canvas crossover, and they land
        // at different input sizes: the decision is genuinely
        // device-dependent (Section 7's argument for pricing operators
        // per device). Interestingly the integrated GPU's crossover is
        // *earlier* — its compute units are weak relative to its fixed
        // raster costs, so per-point PIP work hurts it sooner.
        let find_crossover = |profile: &DeviceProfile| -> u64 {
            for exp in 6..30 {
                let n = 1u64 << exp;
                if choose_selection_strategy(profile, &stats(n, 1, 64)).strategy
                    == SelectionStrategy::CanvasBlendMask
                {
                    return n;
                }
            }
            u64::MAX
        };
        let nv = find_crossover(&DeviceProfile::nvidia_gtx_1070_max_q());
        let intel = find_crossover(&DeviceProfile::intel_uhd_630());
        assert!(nv != u64::MAX && intel != u64::MAX);
        assert_ne!(nv, intel, "crossovers should be device-specific");
        assert!(intel < nv, "weak compute units flip to canvas earlier");
    }
}
