//! Parallel solver portfolio.
//!
//! The paper (§4.5) runs Bitwuzla, cvc5, Yices2, and STP in parallel and takes the
//! first answer; §5.1 reports how often each solver won. This module reproduces that
//! behaviour with four differently-configured instances of the in-tree CDCL solver:
//! each portfolio member runs the full CEGIS loop under its own heuristics on its own
//! thread, and the first definite verdict (success or UNSAT) cancels the rest.
//!
//! Each member inherits [`SynthesisConfig::incremental`] unchanged, so a portfolio
//! run races four *incremental* CEGIS loops by default — every member keeps its own
//! persistent solver state across its iterations.
//!
//! A race costs one thread per member, so callers that already run one job per
//! core pass a shorter slice: the `lr_serve` scheduler and daemon hand each job
//! only the first member, whose run is deterministic. Lone callers of
//! `lakeroad::map_design` (the `lakeroad map` CLI, the `exp_portfolio` sweep)
//! race all four.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use crate::cegis;
use crate::{SolverConfig, SynthesisConfig, SynthesisError, SynthesisOutcome, SynthesisTask};

/// The outcome of a portfolio run, including which member produced it.
#[derive(Debug, Clone)]
pub struct PortfolioOutcome {
    /// The verdict (from the winning member, or a timeout if nobody finished).
    pub outcome: SynthesisOutcome,
    /// Name of the winning solver configuration, if any member produced a definite
    /// verdict.
    pub winner: Option<String>,
    /// Names of all members that were raced.
    pub members: Vec<String>,
}

/// Races the default four-member portfolio. See [`synthesize_portfolio_with`].
///
/// # Errors
/// Returns [`SynthesisError`] if the task is malformed.
pub fn synthesize_portfolio(
    task: &SynthesisTask<'_>,
    config: &SynthesisConfig,
) -> Result<PortfolioOutcome, SynthesisError> {
    synthesize_portfolio_with(task, config, &SolverConfig::portfolio())
}

/// Races one CEGIS run per solver configuration and returns the first definite
/// verdict (success or UNSAT). If every member times out, the result is a timeout.
///
/// # Errors
/// Returns [`SynthesisError`] if the task is malformed (the validation error from the
/// first member is reported).
pub fn synthesize_portfolio_with(
    task: &SynthesisTask<'_>,
    config: &SynthesisConfig,
    solvers: &[SolverConfig],
) -> Result<PortfolioOutcome, SynthesisError> {
    assert!(!solvers.is_empty(), "portfolio must contain at least one solver");
    let members: Vec<String> = solvers.iter().map(|s| s.name.clone()).collect();
    // `cancel` is an Arc because cegis::synthesize takes ownership of its handle;
    // the result cells are plain locals borrowed by the scoped threads.
    let cancel = Arc::new(AtomicBool::new(false));
    let winner: Mutex<Option<(String, SynthesisOutcome)>> = Mutex::new(None);
    let error: Mutex<Option<SynthesisError>> = Mutex::new(None);
    let timeouts: Mutex<Vec<SynthesisOutcome>> = Mutex::new(Vec::new());

    // Spawned members inherit the submitting thread's trace context, so a
    // job's spans stay attributed to it across the portfolio's threads.
    let trace_ctx = lr_trace::context();
    std::thread::scope(|scope| {
        for (member, solver) in solvers.iter().enumerate() {
            let mut member_config = config.clone();
            member_config.solver = solver.clone();
            let cancel = Arc::clone(&cancel);
            let (winner, error, timeouts) = (&winner, &error, &timeouts);
            scope.spawn(move || {
                lr_trace::set_context(trace_ctx);
                let mut sp = lr_trace::span("portfolio-member");
                sp.attr("member", member as u64);
                let result = cegis::synthesize(task, &member_config, Some(Arc::clone(&cancel)));
                drop(sp);
                match result {
                    Err(e) => {
                        let mut guard = error.lock().unwrap();
                        if guard.is_none() {
                            *guard = Some(e);
                        }
                        cancel.store(true, Ordering::Relaxed);
                    }
                    Ok(outcome) => {
                        if outcome.is_timeout() {
                            timeouts.lock().unwrap().push(outcome);
                        } else {
                            let mut guard = winner.lock().unwrap();
                            if guard.is_none() {
                                *guard = Some((member_config.solver.name.clone(), outcome));
                                cancel.store(true, Ordering::Relaxed);
                            }
                        }
                    }
                }
            });
        }
    });

    let decided = winner.into_inner().unwrap();
    if let Some(err) = error.into_inner().unwrap() {
        // A validation error is deterministic across members; surface it.
        if decided.is_none() {
            return Err(err);
        }
    }

    match decided {
        Some((name, outcome)) => Ok(PortfolioOutcome { outcome, winner: Some(name), members }),
        None => {
            let outcome =
                timeouts.into_inner().unwrap().into_iter().next().unwrap_or(
                    SynthesisOutcome::Timeout { stats: crate::SynthesisStats::default() },
                );
            Ok(PortfolioOutcome { outcome, winner: None, members })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lr_bv::BitVec;
    use lr_ir::{BvOp, HoleDomain, ProgBuilder};

    fn offset_task() -> (lr_ir::Prog, lr_ir::Prog) {
        let mut b = ProgBuilder::new("spec");
        let a = b.input("a", 8);
        let five = b.constant_u64(5, 8);
        let out = b.op2(BvOp::Add, a, five);
        let spec = b.finish(out);
        let mut b = ProgBuilder::new("sketch");
        let a = b.input("a", 8);
        let k = b.hole("k", 8, HoleDomain::AnyConstant);
        let out = b.op2(BvOp::Add, a, k);
        let sketch = b.finish(out);
        (spec, sketch)
    }

    #[test]
    fn portfolio_finds_the_same_answer() {
        let (spec, sketch) = offset_task();
        let task = SynthesisTask::at(&spec, &sketch, 0);
        let result = synthesize_portfolio(&task, &SynthesisConfig::default()).unwrap();
        assert_eq!(result.members.len(), 4);
        assert!(result.winner.is_some());
        let synthesized = result.outcome.success().expect("success");
        assert_eq!(synthesized.hole_assignment["k"], BitVec::from_u64(5, 8));
    }

    #[test]
    fn portfolio_reports_unsat() {
        // spec out = a & 0x0F cannot be implemented by OR-with-constant.
        let mut b = ProgBuilder::new("spec");
        let a = b.input("a", 8);
        let mask = b.constant_u64(0x0F, 8);
        let out = b.op2(BvOp::And, a, mask);
        let spec = b.finish(out);
        let mut b = ProgBuilder::new("sketch");
        let a = b.input("a", 8);
        let k = b.hole("k", 8, HoleDomain::AnyConstant);
        let out = b.op2(BvOp::Or, a, k);
        let sketch = b.finish(out);
        let task = SynthesisTask::at(&spec, &sketch, 0);
        let result = synthesize_portfolio(&task, &SynthesisConfig::default()).unwrap();
        assert!(result.outcome.is_unsat());
        assert!(result.winner.is_some());
    }

    #[test]
    fn portfolio_surfaces_validation_errors() {
        let mut b = ProgBuilder::new("spec");
        let a = b.input("a", 8);
        let spec = b.finish(a);
        let mut b = ProgBuilder::new("sketch");
        let x = b.input("x", 8);
        let sketch = b.finish(x);
        let task = SynthesisTask::at(&spec, &sketch, 0);
        let err = synthesize_portfolio(&task, &SynthesisConfig::default()).unwrap_err();
        assert!(matches!(err, SynthesisError::InputMismatch { .. }));
    }

    #[test]
    fn portfolio_members_inherit_the_incremental_flag() {
        let (spec, sketch) = offset_task();
        let task = SynthesisTask::at(&spec, &sketch, 0);
        for incremental in [true, false] {
            let config = SynthesisConfig { incremental, ..SynthesisConfig::default() };
            let result = synthesize_portfolio(&task, &config).unwrap();
            let synthesized = result.outcome.success().expect("success");
            assert_eq!(synthesized.stats.incremental, incremental);
            assert_eq!(synthesized.hole_assignment["k"], BitVec::from_u64(5, 8));
        }
    }

    #[test]
    fn single_member_portfolio_works() {
        let (spec, sketch) = offset_task();
        let task = SynthesisTask::at(&spec, &sketch, 0);
        let solvers = vec![SolverConfig::default()];
        let result =
            synthesize_portfolio_with(&task, &SynthesisConfig::default(), &solvers).unwrap();
        assert_eq!(result.members, vec!["default".to_string()]);
        assert_eq!(result.winner.as_deref(), Some("default"));
        assert!(result.outcome.is_success());
    }

    #[test]
    fn single_member_portfolio_honours_the_cancel_flag() {
        let (spec, sketch) = offset_task();
        let task = SynthesisTask::at(&spec, &sketch, 0);
        let config = SynthesisConfig {
            cancel: Some(Arc::new(AtomicBool::new(true))),
            ..SynthesisConfig::default()
        };
        let result = synthesize_portfolio_with(&task, &config, &[SolverConfig::default()]).unwrap();
        assert!(result.outcome.is_timeout());
        assert_eq!(result.winner, None);
    }

    #[test]
    fn single_member_portfolio_surfaces_validation_errors() {
        let mut b = ProgBuilder::new("spec");
        let a = b.input("a", 8);
        let spec = b.finish(a);
        let mut b = ProgBuilder::new("sketch");
        let x = b.input("x", 8);
        let sketch = b.finish(x);
        let task = SynthesisTask::at(&spec, &sketch, 0);
        let err = synthesize_portfolio_with(
            &task,
            &SynthesisConfig::default(),
            &[SolverConfig::default()],
        )
        .unwrap_err();
        assert!(matches!(err, SynthesisError::InputMismatch { .. }));
    }
}
