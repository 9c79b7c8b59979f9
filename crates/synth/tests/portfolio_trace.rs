//! Span attribution of the solver portfolio: every member's `portfolio-member`
//! span carries the caller's trace context, though it runs on a thread of its
//! own.
//!
//! Tracing is process-wide, so each test filters the shared sink by a context
//! id of its own.

use lr_ir::{BvOp, HoleDomain, Prog, ProgBuilder};
use lr_synth::portfolio::synthesize_portfolio_with;
use lr_synth::{SolverConfig, SynthesisConfig, SynthesisTask};

fn offset_task() -> (Prog, Prog) {
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

/// Runs the portfolio under an outer `caller` span stamped with `ctx`, and
/// returns the caller span's tid and the tids of the member spans.
fn traced_run(ctx: u64, solvers: &[SolverConfig]) -> (u64, Vec<u64>) {
    lr_trace::set_enabled(true);
    let (spec, sketch) = offset_task();
    let task = SynthesisTask::at(&spec, &sketch, 0);
    lr_trace::set_context(ctx);
    let caller = lr_trace::span("caller");
    let result = synthesize_portfolio_with(&task, &SynthesisConfig::default(), solvers).unwrap();
    drop(caller);
    lr_trace::set_context(0);
    assert!(result.outcome.is_success());
    let events: Vec<_> = lr_trace::snapshot_events().into_iter().filter(|e| e.ctx == ctx).collect();
    let caller_tid = events.iter().find(|e| e.name == "caller").expect("caller span").tid;
    let members = events.iter().filter(|e| e.name == "portfolio-member").map(|e| e.tid).collect();
    (caller_tid, members)
}

#[test]
fn a_four_member_race_attributes_every_member_to_the_caller() {
    let (caller, members) = traced_run(0xB0D6_E704, &SolverConfig::portfolio());
    assert_eq!(members.len(), 4);
    assert!(members.iter().all(|&tid| tid != caller), "members run on their own threads");
}
