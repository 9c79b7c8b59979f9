//! The scheduler's one thread budget: every scheduled job runs only the first
//! member of its portfolio, so a batch's solver counters repeat exactly from
//! run to run.

use std::time::Duration;

use lakeroad::{MapConfig, MapOutcome};
use lr_arch::ArchName;
use lr_serve::{run_batch, suite_jobs, BatchOptions, BatchRun, JobResult};

/// Per job: winning solver and the (iterations, conflicts, propagations)
/// of the run behind the verdict.
fn counters(run: &BatchRun) -> Vec<(Option<String>, usize, u64, u64)> {
    run.records
        .iter()
        .map(|r| {
            let JobResult::Finished(outcome) = &r.result else {
                panic!("{}: {:?}", r.name, r.result)
            };
            let winner = match outcome {
                MapOutcome::Success(m) => m.winning_solver.clone(),
                MapOutcome::Unsat { winning_solver, .. } => winning_solver.clone(),
                MapOutcome::Timeout { .. } => panic!("{}: timed out", r.name),
            };
            let stats = outcome.stats();
            (winner, stats.iterations, stats.conflicts, stats.propagations)
        })
        .collect()
}

#[test]
fn a_scheduled_batch_runs_one_member_and_repeats_its_counters() {
    let jobs = suite_jobs(ArchName::IntelCyclone10Lp, 4);
    // The default four-member portfolio, with a budget no test job gets near.
    let options = BatchOptions::new(2, MapConfig::default().with_timeout(Duration::from_secs(120)));
    let first = counters(&run_batch(&jobs, &options));
    let second = counters(&run_batch(&jobs, &options));
    assert_eq!(first, second, "one-member runs must repeat exactly");
    for (winner, iterations, ..) in &first {
        assert_eq!(winner.as_deref(), Some("bitblaze"));
        assert!(*iterations > 0, "every job reaches CEGIS");
    }
}
