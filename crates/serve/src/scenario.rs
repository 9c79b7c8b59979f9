//! Synthetic batch scenarios: deterministic workload generators for the batch
//! engine's tests and benchmarks.
//!
//! Two sources of jobs:
//!
//! * [`suite_jobs`] — the paper's §5.1 microbenchmarks (via
//!   `lakeroad::suite`), the *mappable* population a production queue would
//!   mostly carry.
//! * [`synthetic_jobs`] — random well-formed ℒlr programs from the same
//!   straight-line generator idea the `Prog::simplified` property suite uses,
//!   realized here as a seeded, dependency-free generator so batches are
//!   reproducible from a single `u64`. Random programs are overwhelmingly *not*
//!   single-DSP-mappable, which makes them the deadline/timeout population —
//!   exactly the traffic a serving scheduler must overlap rather than serialize.

use std::time::Duration;

use lakeroad::suite::suite_for;
use lakeroad::Template;
use lr_arch::{ArchName, Architecture};
use lr_bv::Rng;
use lr_ir::{BvOp, Prog, ProgBuilder};

use crate::scheduler::{BatchJob, TemplateChoice};

/// Width of every generated program (the narrow end of the paper's sweep keeps
/// the solver work small enough for batch-scale experiments).
pub const GEN_WIDTH: u32 = 8;

/// Generates a random *well-formed by construction* behavioral program over
/// inputs `a`, `b`, `c`: a straight line of operators over earlier nodes, with
/// occasional registers and comparisons feeding muxes. Deterministic in `seed`.
pub fn random_program(seed: u64, name: &str, instructions: usize) -> Prog {
    let mut rng = Rng::new(seed);
    let mut b = ProgBuilder::new(name);
    let mut wide: Vec<lr_ir::NodeId> = Vec::new();
    let mut one_bit: Vec<lr_ir::NodeId> = Vec::new();
    for input in ["a", "b", "c"] {
        wide.push(b.input(input, GEN_WIDTH));
    }
    for _ in 0..instructions.max(1) {
        let pick =
            |rng: &mut Rng, nodes: &[lr_ir::NodeId]| nodes[rng.below(nodes.len() as u64) as usize];
        match rng.below(10) {
            0 => {
                let v = rng.below(1 << GEN_WIDTH);
                wide.push(b.constant_u64(v, GEN_WIDTH));
            }
            1 => {
                let x = pick(&mut rng, &wide);
                let op = if rng.below(2) == 0 { BvOp::Not } else { BvOp::Neg };
                wide.push(b.op1(op, x));
            }
            2 => {
                let x = pick(&mut rng, &wide);
                wide.push(b.reg(x, GEN_WIDTH));
            }
            3 => {
                let x = pick(&mut rng, &wide);
                let y = pick(&mut rng, &wide);
                one_bit.push(b.op2(BvOp::Ult, x, y));
            }
            4 if !one_bit.is_empty() => {
                let c = pick(&mut rng, &one_bit);
                let t = pick(&mut rng, &wide);
                let e = pick(&mut rng, &wide);
                wide.push(b.mux(c, t, e));
            }
            n => {
                let x = pick(&mut rng, &wide);
                let y = pick(&mut rng, &wide);
                let op = match n % 6 {
                    0 => BvOp::Add,
                    1 => BvOp::Sub,
                    2 => BvOp::Mul,
                    3 => BvOp::And,
                    4 => BvOp::Or,
                    _ => BvOp::Xor,
                };
                wide.push(b.op2(op, x, y));
            }
        }
    }
    let root = *wide.last().expect("inputs guarantee at least one wide node");
    b.finish(root)
}

/// Jobs over the §5.1 microbenchmark suite of `arch` at width 8 (every shape and
/// stage count), with the named DSP template — the all-mappable population.
pub fn suite_jobs(arch: ArchName, limit: usize) -> Vec<BatchJob> {
    let architecture = Architecture::load(arch);
    suite_for(arch, [GEN_WIDTH].into_iter())
        .into_iter()
        .take(limit)
        .map(|bench| {
            BatchJob::new(
                bench.name.clone(),
                bench.build(),
                architecture.clone(),
                TemplateChoice::Named(Template::Dsp),
            )
        })
        .collect()
}

/// Budget-bound jobs: narrow multiplications posed against the LUT-based
/// multiplication template, whose hole space (per-LUT init bits plus ripple
/// wiring) is large enough that synthesis reliably exhausts a small budget
/// instead of finishing. These model the production queue's lost causes — the
/// requests a serving scheduler must *overlap* (their cost is wall-clock, not
/// useful work) rather than serialize. The Xilinx LUT sketch is deliberately
/// excluded: its solver calls are so coarse that a tight budget overshoots by
/// many seconds, which would put noise in the scaling curve.
pub fn grinder_jobs(budget: Duration) -> Vec<BatchJob> {
    let mut jobs = Vec::new();
    for (arch, width) in [
        (ArchName::Sofa, 6),
        (ArchName::IntelCyclone10Lp, 6),
        (ArchName::LatticeEcp5, 6),
        (ArchName::Sofa, 5),
        (ArchName::IntelCyclone10Lp, 5),
        (ArchName::LatticeEcp5, 5),
    ] {
        let name = format!("lutmul_w{width}_{arch}");
        let mut b = ProgBuilder::new(&name);
        let a = b.input("a", width);
        let x = b.input("b", width);
        let out = b.op2(BvOp::Mul, a, x);
        let spec = b.finish(out);
        let mut job = BatchJob::new(
            name,
            spec,
            Architecture::load(arch),
            TemplateChoice::Named(Template::Multiplication),
        );
        job.timeout = Some(budget);
        jobs.push(job);
    }
    jobs
}

/// `count` random-program jobs against `arch`, deterministic in `seed`. Most of
/// these are unmappable onto one DSP; give them a short `budget` so they model
/// the budget-bound tail of a production queue.
pub fn synthetic_jobs(
    seed: u64,
    count: usize,
    arch: ArchName,
    budget: Option<Duration>,
) -> Vec<BatchJob> {
    let architecture = Architecture::load(arch);
    let mut rng = Rng::new(seed);
    (0..count)
        .map(|i| {
            let program_seed = rng.next_u64();
            let instructions = 4 + rng.below(12) as usize;
            let name = format!("synthetic_{i:03}");
            let mut job = BatchJob::new(
                name.clone(),
                random_program(program_seed, &name, instructions),
                architecture.clone(),
                TemplateChoice::Named(Template::Dsp),
            );
            job.timeout = budget;
            job
        })
        .collect()
}

/// `n` jobs whose specs come from the HDL fuzz firehose: each job elaborates a
/// seeded `lr_hdl::fuzz` module (mixed widths, shifts, ternaries, selects,
/// registers — a far rougher population than [`random_program`]'s straight-line
/// IR), posed against a rotating set of architectures with the DSP template.
/// Deterministic in `seed`. Most of these are unmappable; pass a `budget` so
/// they model the budget-bound tail, exactly like [`synthetic_jobs`].
pub fn fuzz_jobs(seed: u64, n: usize, budget: Option<Duration>) -> Vec<BatchJob> {
    let archs = [ArchName::IntelCyclone10Lp, ArchName::LatticeEcp5, ArchName::XilinxUltraScalePlus];
    let mut rng = Rng::new(seed);
    (0..n)
        .map(|i| {
            let module_seed = rng.next_u64();
            let src = lr_hdl::fuzz::generate_module(module_seed);
            let spec =
                lr_hdl::parse_and_elaborate(&src).expect("fuzz modules elaborate by construction");
            let arch = archs[i % archs.len()];
            let mut job = BatchJob::new(
                format!("fuzz_{i:03}_{module_seed:016x}"),
                spec,
                Architecture::load(arch),
                TemplateChoice::Named(Template::Dsp),
            );
            job.timeout = budget;
            job
        })
        .collect()
}

/// `n` jobs whose specs come from the structural-netlist frontend: each job
/// generates a seeded random AIG (`lr_aig`), renders it as ASCII AIGER text,
/// and resolves it through `lakeroad::DesignSource` — the exact path a daemon
/// `netlist` request takes. The AIGs are small single-output combinational
/// functions of at most 4 inputs, so the Bitwise sketch maps every one onto
/// the rotating 4-LUT architectures: the all-mappable counterpart of
/// [`fuzz_jobs`]'s budget-bound population. Deterministic in `seed`.
pub fn netlist_jobs(seed: u64, n: usize, budget: Option<Duration>) -> Vec<BatchJob> {
    let archs = [ArchName::IntelCyclone10Lp, ArchName::LatticeEcp5];
    let mut rng = Rng::new(seed);
    (0..n)
        .map(|i| {
            let aig_seed = rng.next_u64();
            let config = lr_aig::GenConfig {
                inputs: 3 + (rng.below(2) as u32),
                latches: 0,
                ands: 5 + rng.below(8) as u32,
                outputs: 1,
            };
            let text = lr_aig::random_aig(aig_seed, &config).to_aag();
            let name = format!("netlist_{i:03}_{aig_seed:016x}");
            let arch = archs[i % archs.len()];
            let spec = lakeroad::DesignSource::NetlistInline { name: name.clone(), text }
                .resolve(arch)
                .expect("generated AIGER resolves by construction");
            let mut job = BatchJob::new(
                name,
                spec,
                Architecture::load(arch),
                TemplateChoice::Named(Template::Bitwise),
            );
            job.timeout = budget;
            job
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_programs_are_well_formed_and_deterministic() {
        for seed in [1u64, 7, 0xdead_beef, u64::MAX] {
            let p1 = random_program(seed, "g", 16);
            let p2 = random_program(seed, "g", 16);
            assert!(p1.well_formed().is_ok(), "seed {seed}: {:?}", p1.well_formed());
            assert!(p1.is_behavioral());
            assert_eq!(p1, p2, "seed {seed} must regenerate identically");
        }
        // Different seeds diverge (with overwhelming probability).
        assert_ne!(random_program(2, "g", 16), random_program(3, "g", 16));
    }

    #[test]
    fn zero_seed_does_not_degenerate() {
        let p = random_program(0, "z", 12);
        assert!(p.well_formed().is_ok());
        assert!(p.len() > 3);
    }

    #[test]
    fn suite_jobs_build_the_paper_population() {
        let jobs = suite_jobs(ArchName::IntelCyclone10Lp, 4);
        assert_eq!(jobs.len(), 4);
        for job in &jobs {
            assert!(job.spec.well_formed().is_ok());
            assert!(matches!(job.template, TemplateChoice::Named(Template::Dsp)));
        }
    }

    #[test]
    fn grinder_jobs_carry_their_budget() {
        let jobs = grinder_jobs(Duration::from_secs(2));
        assert_eq!(jobs.len(), 6);
        for job in &jobs {
            assert_eq!(job.timeout, Some(Duration::from_secs(2)));
            assert!(job.spec.well_formed().is_ok());
            assert!(matches!(job.template, TemplateChoice::Named(Template::Multiplication)));
        }
    }

    #[test]
    fn below_is_unbiased_and_in_range() {
        let mut rng = Rng::new(7);
        let mut counts = [0u32; 3];
        for _ in 0..3000 {
            let v = rng.below(3);
            assert!(v < 3);
            counts[v as usize] += 1;
        }
        for c in counts {
            // Loose uniformity bound: each bucket within ±30% of the mean
            // (the old modulo reduction stays inside this too — the bias it
            // introduces is small for tiny bounds — but the property the
            // widening multiply guarantees is worth pinning).
            assert!((700..=1300).contains(&c), "skewed bucket counts {counts:?}");
        }
    }

    #[test]
    fn fuzz_jobs_are_reproducible_and_well_formed() {
        let a = fuzz_jobs(11, 6, Some(Duration::from_secs(1)));
        let b = fuzz_jobs(11, 6, Some(Duration::from_secs(1)));
        assert_eq!(a.len(), 6);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.spec, y.spec);
            assert_eq!(x.name, y.name);
            assert_eq!(x.timeout, Some(Duration::from_secs(1)));
            assert!(x.spec.well_formed().is_ok());
        }
        // The population rotates architectures.
        assert_ne!(a[0].arch.name(), a[1].arch.name());
    }

    #[test]
    fn netlist_jobs_resolve_through_the_frontend_and_reproduce() {
        let a = netlist_jobs(0xA16, 4, Some(Duration::from_secs(2)));
        let b = netlist_jobs(0xA16, 4, Some(Duration::from_secs(2)));
        assert_eq!(a.len(), 4);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.spec, y.spec);
            assert_eq!(x.name, y.name);
            assert!(x.spec.well_formed().is_ok());
            // Small combinational functions: at most 4 free inputs, so the
            // Bitwise sketch fits the rotating 4-LUT architectures.
            assert!(x.spec.free_vars().len() <= 4);
            assert!(matches!(x.template, TemplateChoice::Named(Template::Bitwise)));
        }
        // The population rotates architectures.
        assert_ne!(a[0].arch.name(), a[1].arch.name());
    }

    #[test]
    fn synthetic_jobs_are_reproducible() {
        let a = synthetic_jobs(42, 6, ArchName::IntelCyclone10Lp, Some(Duration::from_secs(2)));
        let b = synthetic_jobs(42, 6, ArchName::IntelCyclone10Lp, Some(Duration::from_secs(2)));
        assert_eq!(a.len(), 6);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.spec, y.spec);
            assert_eq!(x.timeout, y.timeout);
        }
    }
}
