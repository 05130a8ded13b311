//! The repo's benchmark: four fixed-work workloads measured by lap
//! medians, six end-to-end metrics, per-layer probes and a traced run.
//! See `README.md` beside this crate for what is measured and why.

pub mod compare;
pub mod digest;
pub mod json;
pub mod lap;
pub mod layers;
pub mod run;
pub mod spans;
pub mod spec;
pub mod stats;
pub mod workloads;
pub mod world;
