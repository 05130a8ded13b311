//! The four workloads. Each owns its seeded inputs and op list, runs
//! laps of it, and can evaluate any unit of its work sequentially on
//! `Device::cpu()` for the oracle.

pub mod analytics;
pub mod dashboard;
pub mod explore;
pub mod live;

use canvas_core::Device;
use canvas_engine::Query;
use canvas_geom::BBox;
use canvas_raster::Viewport;

use crate::digest::result_digest;
use crate::lap::LapOutcome;
use crate::spans::Trace;
use crate::spec::WorkloadKind;
use crate::world::{Rng, World};

pub trait Workload {
    fn kind(&self) -> WorkloadKind;
    fn world(&self) -> &World;
    /// Digest of the generated inputs and the op list — equal for equal
    /// seeds, different for different seeds.
    fn op_list_digest(&self) -> u128;
    /// Steps in one lap, over all clients.
    fn steps_per_lap(&self) -> usize;
    /// Concurrent closed-loop clients.
    fn clients(&self) -> usize {
        1
    }
    /// One lap of the op list; with a trace, harness spans are on.
    fn lap(&self, trace: Option<&mut Trace>) -> LapOutcome;
    /// Number of units in `LapOutcome::digests` (a step; a cache slot
    /// on the two-client workload).
    fn units(&self) -> usize;
    /// Sequential `Device::cpu()` evaluation of unit `u`: one digest per
    /// response, in the unit's op order.
    fn reference(&self, unit: usize) -> Vec<u128>;
    /// Marks the steps a wrong unit spoils as failed.
    fn fail_unit(&self, lap: &mut LapOutcome, unit: usize) {
        lap.failed[unit] = true;
    }
    /// World boxes of the windows the op list looks through — what the
    /// geom probes query the indexes with.
    fn query_boxes(&self) -> Vec<BBox>;
    /// Layer-separation conditions this workload exists to hold, checked
    /// on a timed lap; each violated one is named.
    fn violations(&self, lap: &LapOutcome) -> Vec<String>;
}

pub fn build(kind: WorkloadKind, seed: u64, smoke: bool) -> Box<dyn Workload> {
    match kind {
        WorkloadKind::ExploreCold => Box::new(explore::ExploreCold::generate(seed, smoke)),
        WorkloadKind::DashboardRevisit => {
            Box::new(dashboard::DashboardRevisit::generate(seed, smoke))
        }
        WorkloadKind::AnalyticsBatch => Box::new(analytics::AnalyticsBatch::generate(seed, smoke)),
        WorkloadKind::LiveIngest => Box::new(live::LiveIngest::generate(seed, smoke)),
    }
}

/// The oracle's reference for one op: the same `Prepared`, evaluated
/// sequentially on a fresh `Device::cpu()`, digested like a response.
pub fn reference_digest(q: &Query, vp: Viewport) -> u128 {
    let mut dev = Device::cpu();
    result_digest(&q.prepare().execute(&mut dev, vp))
}

/// A seeded sample of units whose responses number at least `want`.
pub fn sample_units(
    seed: u64,
    kind: WorkloadKind,
    units: usize,
    responses_per_unit: usize,
    want: usize,
) -> Vec<usize> {
    let need = want.div_ceil(responses_per_unit.max(1)).min(units);
    let mut rng = Rng::stream(seed, kind, 99, 0);
    let mut all: Vec<usize> = (0..units).collect();
    // Partial Fisher–Yates: the first `need` entries are the sample.
    for i in 0..need {
        let j = i + rng.below(units - i);
        all.swap(i, j);
    }
    all.truncate(need);
    all.sort_unstable();
    all
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_are_seeded_distinct_and_large_enough() {
        let a = sample_units(1, WorkloadKind::ExploreCold, 49, 4, 25);
        let b = sample_units(1, WorkloadKind::ExploreCold, 49, 4, 25);
        let c = sample_units(2, WorkloadKind::ExploreCold, 49, 4, 25);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 7);
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(
            sample_units(1, WorkloadKind::ExploreCold, 3, 4, 25).len(),
            3
        );
    }
}
