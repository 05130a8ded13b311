//! The algebra as *data*: composable query plans over canvases.
//!
//! Section 4 of the paper writes queries as algebraic expressions like
//!
//! ```text
//! C_result ← M[Mp'](B[⊙](C_P, B*[⊕](C_Q)))
//! ```
//!
//! [`Expr`] reifies those expressions: leaves are canvas *sources*
//! (data sets rendered on demand, utility generators), inner nodes are
//! the operators. This gives the three things the paper argues an
//! algebra buys you (Section 7):
//!
//! 1. **closure** — every node evaluates to a canvas, so nodes compose,
//! 2. **plan diagrams** — [`Expr::plan`] renders the tree (Figures 5–8),
//! 3. **optimization** — [`rewrite`] transforms plans (multiway-blend
//!    flattening via associativity, fusing a multiway blend of polygon
//!    leaves into one instanced draw), and [`Expr::cost`] gives a simple
//!    pass/fragment cost heuristic for plan comparison; [`planner`]
//!    picks a node's physical form (the entry sinks: selections, the
//!    selection heatmap and the zone aggregate run over point entries,
//!    not planes; [`kernel_node`]: stacked pixel-local kernels, such as
//!    the choropleth's, run as one in-place chain).

pub mod expr;
pub mod fingerprint;
pub mod planner;
pub mod rewrite;
pub mod subplan;

pub use expr::{Expr, SourceSpec};
pub use fingerprint::{
    fingerprint, is_cut_point, normalize, plan_nodes, Fingerprint, FingerprintBuilder, PlanNode,
};
pub use planner::{
    choose_selection_strategy, entry_sink, kernel_node, selection_sink, value_sink, EntrySink,
    PlanChoice, SelectionStats, SelectionStrategy,
};
pub use rewrite::{flatten_multiblend, fuse_polygon_leaves, optimize};
pub use subplan::SubplanCache;
