//! # canvas-engine
//!
//! The **concurrent query-serving subsystem** of the canvas-algebra
//! workspace: the layer that turns "evaluate one `Expr` fast" into
//! "serve many clients' queries at once over one shared executor".
//!
//! The paper positions the canvas algebra as the execution layer for
//! interactive spatial queries; its follow-up engine (SPADE, PAPERS.md)
//! serves that algebra behind an optimizer and a cache, and 3DPipe
//! pipelines many concurrent join tasks over one accelerator. This
//! crate reproduces that serving shape on the workspace's executor:
//!
//! ```text
//!  clients ──► QueryEngine::execute(query, viewport)
//!                │
//!                ├─ 1. prepare    lower + normalize → fingerprint        [query.rs]
//!                ├─ 2. cache      (fingerprint, viewport) → QueryResult  [budgeted LRU]
//!                ├─ 3. dedup      identical in-flight key? coalesce onto the leader
//!                ├─ 4. admission  bounded concurrency + bounded queue (shed beyond)
//!                ├─ 5. execute    leased SharedDevice over ONE WorkerPool,
//!                │                per-query ticket → passes interleave FAIRLY
//!                │                (bounded quantum, no whole-query head-of-line);
//!                │                a live view patches a cached predecessor
//!                │                generation instead of rendering; every
//!                │                canvas-producing SUBPLAN probes the shared
//!                │                cache: reuse the intermediate, or render it
//!                │                and publish it (never wait on another query)
//!                └─ publish       result → cache, followers woken with the same Arc
//! ```
//!
//! Layer responsibilities:
//!
//! * `canvas-executor` provides the **fair pass gate** (tickets +
//!   quantum; `WorkerPool::register_ticket` / `with_ticket`) and the
//!   startup **calibration** of the minimum-work threshold,
//! * `canvas-core` provides plan **normalization + fingerprinting**
//!   (`algebra::fingerprint`, per-node with cut-point selection), the
//!   **subplan cache hook** (`algebra::subplan`) evaluation consults
//!   at cut points, and the **shared-state eval path**
//!   (`SharedDevice`),
//! * this crate adds the [`Query`] descriptors — the one description of
//!   each class: label, identity arm, run arm (`query.rs`, which also
//!   carries the "adding a query class" recipe) — the budgeted
//!   [`CanvasCache`] (whole-plan roots + shared subplan intermediates
//!   in one keyspace, retired with their viewport), admission control, one in-flight leader/follower
//!   mechanism for whole plans, and per-query latency/sharing metrics.
//!
//! Every cached, coalesced, or subplan-shared response is the *same*
//! `Arc<Canvas>` the original evaluation produced — bit-identical by
//! construction, and asserted against fresh single-threaded evaluation
//! in the concurrency stress tests (`tests/engine_stress.rs`,
//! `tests/subplan_sharing.rs`).
//!
//! Execution is observable end to end: [`Prepared::explain`] is
//! EXPLAIN (the annotated plan skeleton), [`Response::report`] is
//! EXPLAIN ANALYZE (the skeleton joined with the submission's span
//! tree from the always-on flight recorder), and queries that blow the
//! [`EngineConfig::slow_query_threshold`] — or are shed, fail, or
//! panic — are tail-sampled into [`QueryEngine::slow_queries`] with
//! their full measured reports (`tests/exec_reports.rs`).
//!
//! The crate-by-crate tour with the full life-of-a-query walkthrough
//! lives in `docs/ARCHITECTURE.md` at the repo root.

pub mod cache;
pub mod engine;
pub mod query;
pub mod result;

pub use cache::{CacheKey, CacheStats, CanvasCache, DataPin, EntryClass, ViewportKey};
pub use engine::{
    EngineConfig, EngineError, EngineMetrics, LatencyStats, QueryEngine, Response, Served,
};
pub use query::{Prepared, Query};
pub use result::QueryResult;

// The observability vocabulary of reports and captures, re-exported so
// engine clients handle `Response::report()` / `slow_queries()` values
// without naming `canvas_obs` themselves.
pub use canvas_obs::{CaptureReason, ExecReport, NodeReport, SlowQuery};
