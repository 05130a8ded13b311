//! Same seed ⇒ same op list and same results; another seed ⇒ another
//! op list. And the oracle catches a single flipped bit.

use canvas_benchmark::run::{run, RunConfig};
use canvas_benchmark::spec::WORKLOADS;
use canvas_benchmark::workloads::build;

#[test]
fn same_seed_same_digests_other_seed_other_op_list() {
    for kind in WORKLOADS {
        let a = build(kind, 11, true);
        let b = build(kind, 11, true);
        let c = build(kind, 12, true);
        assert_eq!(
            a.op_list_digest(),
            b.op_list_digest(),
            "{}: same seed, same op list",
            kind.name()
        );
        assert_ne!(
            a.op_list_digest(),
            c.op_list_digest(),
            "{}: another seed, another op list",
            kind.name()
        );
        let (la, lb) = (a.lap(None), b.lap(None));
        assert_eq!(la.steps(), a.steps_per_lap());
        assert_eq!(
            la.result_digest(),
            lb.result_digest(),
            "{}: same seed, same results",
            kind.name()
        );
        assert!(
            la.failed.iter().all(|f| !f),
            "{}: no step fails",
            kind.name()
        );
        // A second lap of the same workload object replays the same ops.
        assert_eq!(a.lap(None).result_digest(), la.result_digest());
    }
}

#[test]
fn runs_of_one_seed_report_the_same_timed_step_count() {
    for kind in WORKLOADS {
        let a = run(&RunConfig::smoke(kind, 5, false));
        let b = run(&RunConfig::smoke(kind, 5, false));
        assert!(a.correct && b.correct, "{}", kind.name());
        assert_eq!(a.attempted, b.attempted);
        assert_eq!(a.op_list_digest, b.op_list_digest);
        assert_eq!(a.result_digest, b.result_digest);
        assert_eq!(a.failed, 0);
    }
}

#[test]
fn one_injected_mismatch_fails_the_step_and_the_workload() {
    for kind in WORKLOADS {
        let mut cfg = RunConfig::smoke(kind, 3, false);
        cfg.inject_mismatch = true;
        let report = run(&cfg);
        assert!(!report.correct, "{}: the oracle must notice", kind.name());
        assert!(
            report.failed >= 1,
            "{}: the step counts as failed",
            kind.name()
        );
        assert!(report
            .notes
            .iter()
            .any(|n| n.contains("differs from the sequential Device::cpu() evaluation")));
    }
}
