//! The equality-saturation experiment: measure what the `lr_egraph` subsystem
//! does across its three integration layers, and record it in a machine-readable
//! `BENCH_egraph.json` so the rewriting trajectory is tracked run over run.
//!
//! Three sections:
//!
//! 1. **Monster folds** — the PR-2 verification disequalities (DSP negate path,
//!    mirrored subtraction, carry-chain truncation) built in a *non-simplifying*
//!    pool and folded by saturation alone: fold verdict, node counts, iterations.
//! 2. **Spec canonicalization** — `Prog::saturated` over the sweep suites:
//!    program size before/after and saturation counters.
//! 3. **CEGIS ablation** — the DSP sweep synthesized with the e-graph pre-fold on
//!    and off (single solver, like `exp_cegis`): wall time, whether verification
//!    ever reached SAT, and the fold counters.

use std::time::Instant;

use lakeroad::suite::Microbenchmark;
use lr_arch::Architecture;
use lr_bv::BitVec;
use lr_egraph::rules::bv_rules;
use lr_egraph::{fold_term, Limits};
use lr_serve::Json;
use lr_smt::{TermId, TermPool};
use lr_synth::SynthesisConfig;

use crate::record::{fields, Record};
use crate::{synthesize_dsp, Scale};

/// Where the bench record is written (repo-relative).
pub const REPORT_PATH: &str = "BENCH_egraph.json";

/// One monster-disequality fold record.
#[derive(Debug, Clone)]
pub struct MonsterRecord {
    /// Which disequality.
    pub name: &'static str,
    /// Whether saturation alone folded it to constant false.
    pub folded: bool,
    /// Pool nodes reachable from the disequality before folding.
    pub input_nodes: usize,
    /// Nodes of the extracted term (1 when folded to a constant).
    pub output_nodes: usize,
    /// Saturation iterations.
    pub iterations: usize,
    /// E-nodes at the end of the run.
    pub enodes: usize,
    /// Wall-clock time of the fold.
    pub wall_ms: f64,
}

/// One spec-canonicalization record.
#[derive(Debug, Clone)]
pub struct SpecRecord {
    /// Architecture name.
    pub arch: String,
    /// Benchmark name.
    pub benchmark: String,
    /// Program nodes before canonicalization.
    pub nodes_before: usize,
    /// Program nodes after canonicalization.
    pub nodes_after: usize,
    /// Saturation iterations.
    pub iterations: usize,
    /// E-nodes at the end of the run.
    pub enodes: usize,
    /// E-classes at the end of the run.
    pub classes: usize,
    /// Wall-clock time of the pass.
    pub wall_ms: f64,
}

/// One CEGIS ablation record (one benchmark in one mode).
#[derive(Debug, Clone)]
pub struct EgraphCegisRun {
    /// Architecture name.
    pub arch: String,
    /// Benchmark name.
    pub benchmark: String,
    /// Whether the e-graph pre-fold was on.
    pub egraph: bool,
    /// `success` / `unsat` / `timeout`.
    pub verdict: &'static str,
    /// Measured wall-clock time.
    pub wall_ms: f64,
    /// Disequalities handed to the e-graph.
    pub egraph_attempts: usize,
    /// Of those, how many folded to false (no SAT).
    pub egraph_folds: usize,
    /// Whether verification ever reached the SAT solver.
    pub verification_used_sat: bool,
    /// SAT conflicts across the run.
    pub conflicts: u64,
}

/// The full experiment record.
#[derive(Debug, Clone)]
pub struct EgraphReport {
    /// The sweep scale.
    pub scale: Scale,
    /// Section 1: monster folds.
    pub monsters: Vec<MonsterRecord>,
    /// Section 2: spec canonicalization.
    pub specs: Vec<SpecRecord>,
    /// Section 3: CEGIS ablation, on/off interleaved per benchmark.
    pub cegis: Vec<EgraphCegisRun>,
}

impl EgraphReport {
    /// Whether every monster disequality folded by saturation alone — the
    /// acceptance gate this experiment exists to watch.
    pub fn all_monsters_fold(&self) -> bool {
        !self.monsters.is_empty() && self.monsters.iter().all(|m| m.folded)
    }

    /// Total CEGIS wall time of one mode, in milliseconds.
    pub fn cegis_total_ms(&self, egraph: bool) -> f64 {
        self.cegis.iter().filter(|r| r.egraph == egraph).map(|r| r.wall_ms).sum()
    }

    /// The bench record: every monster must fold (`invariants`) and the
    /// e-graph-on CEGIS runs may not fold fewer disequalities (`at_least`);
    /// the per-row detail and wall clocks are recorded only.
    pub fn record(&self) -> Record {
        let folds: usize = self.cegis.iter().filter(|r| r.egraph).map(|r| r.egraph_folds).sum();
        let monsters: Vec<Json> = self
            .monsters
            .iter()
            .map(|m| {
                fields! {
                    name: m.name, folded: m.folded, input_nodes: m.input_nodes,
                    output_nodes: m.output_nodes, iterations: m.iterations, enodes: m.enodes,
                    wall_ms: m.wall_ms,
                }
            })
            .collect();
        let specs: Vec<Json> = self
            .specs
            .iter()
            .map(|s| {
                fields! {
                    arch: s.arch, benchmark: s.benchmark, nodes_before: s.nodes_before,
                    nodes_after: s.nodes_after, iterations: s.iterations, enodes: s.enodes,
                    classes: s.classes, wall_ms: s.wall_ms,
                }
            })
            .collect();
        let cegis: Vec<Json> = self
            .cegis
            .iter()
            .map(|r| {
                fields! {
                    arch: r.arch, benchmark: r.benchmark, egraph: r.egraph, verdict: r.verdict,
                    wall_ms: r.wall_ms, egraph_attempts: r.egraph_attempts,
                    egraph_folds: r.egraph_folds, verification_used_sat: r.verification_used_sat,
                    conflicts: r.conflicts,
                }
            })
            .collect();
        Record::new(self.scale)
            .invariant("all_monsters_fold", self.all_monsters_fold())
            .at_least("egraph_folds", folds)
            .recorded("monsters", monsters)
            .recorded("spec_saturations", specs)
            .recorded("cegis_total_wall_ms_egraph", self.cegis_total_ms(true))
            .recorded("cegis_total_wall_ms_no_egraph", self.cegis_total_ms(false))
            .recorded("cegis", cegis)
    }

    /// Prints a human-readable summary.
    pub fn print_summary(&self) {
        println!("\n-- Equality saturation: monster disequalities (saturation alone) --");
        for m in &self.monsters {
            println!(
                "  {:26} {}  {} -> {} nodes, {} iters, {} e-nodes, {:.2} ms",
                m.name,
                if m.folded { "folds to false" } else { "NOT DECIDED  " },
                m.input_nodes,
                m.output_nodes,
                m.iterations,
                m.enodes,
                m.wall_ms,
            );
        }
        println!("\n-- Spec canonicalization (Prog::saturated over the sweep) --");
        for s in &self.specs {
            println!(
                "  {:44} {:>3} -> {:>3} nodes, {} iters, {:.2} ms",
                format!("{}/{}", s.arch, s.benchmark),
                s.nodes_before,
                s.nodes_after,
                s.iterations,
                s.wall_ms,
            );
        }
        println!("\n-- CEGIS with / without the e-graph pre-fold --");
        println!(
            "  {:44} {:>12} {:>12} {:>9} {:>7}",
            "benchmark", "egraph (ms)", "no-eg (ms)", "folds", "SAT?"
        );
        let mut i = 0;
        while i + 1 < self.cegis.len() {
            let (on, off) = (&self.cegis[i], &self.cegis[i + 1]);
            debug_assert!(on.egraph && !off.egraph);
            println!(
                "  {:44} {:>12.2} {:>12.2} {:>4}/{:<4} {:>7}",
                format!("{}/{}", on.arch, on.benchmark),
                on.wall_ms,
                off.wall_ms,
                on.egraph_folds,
                on.egraph_attempts,
                if on.verification_used_sat { "yes" } else { "no" },
            );
            i += 2;
        }
        println!(
            "  total: egraph {:.1} ms, no-egraph {:.1} ms",
            self.cegis_total_ms(true),
            self.cegis_total_ms(false)
        );
    }
}

/// Prints the summary and writes [`REPORT_PATH`].
pub fn report_and_write(report: &EgraphReport) {
    report.print_summary();
    report.record().save(REPORT_PATH);
}

/// Builds the three monster disequalities in a non-simplifying pool, so folding
/// them is saturation's work alone. Mirrors
/// `crates/egraph/tests/monster_disequalities.rs`.
fn monster_terms(pool: &mut TermPool) -> Vec<(&'static str, TermId)> {
    let a = pool.var("a", 8);
    let b = pool.var("b", 8);
    let c = pool.var("c", 8);
    let d = pool.var("d", 8);
    let zero = pool.zero(8);
    let mut out = Vec::new();

    // DSP negate path: 0 − ((a · (0 − b)) + 0xff + 0x01) vs a · b.
    let spec = pool.mul(a, b);
    let nb = pool.sub(zero, b);
    let prod = pool.mul(a, nb);
    let ff = pool.constant(BitVec::from_u64(0xff, 8));
    let one = pool.constant(BitVec::from_u64(1, 8));
    let t = pool.add(prod, ff);
    let t = pool.add(t, one);
    let cand = pool.sub(zero, t);
    out.push(("dsp-negate-path", pool.ne(spec, cand)));

    // Mirrored subtraction: d − (c · (b − a)) vs (a − b) · c + d.
    let amb = pool.sub(a, b);
    let prod = pool.mul(amb, c);
    let spec = pool.add(prod, d);
    let bma = pool.sub(b, a);
    let mirrored = pool.mul(c, bma);
    let cand = pool.sub(d, mirrored);
    out.push(("mirrored-subtraction", pool.ne(spec, cand)));

    // Carry-chain truncation: extract[7:0]((zext48(a)·zext48(b) + ~0) + 1) vs a·b.
    let spec = pool.mul(a, b);
    let wa = pool.zext(a, 48);
    let wb = pool.zext(b, 48);
    let wide = pool.mul(wa, wb);
    let ones = pool.all_ones(48);
    let one48 = pool.constant(BitVec::from_u64(1, 48));
    let t = pool.add(wide, ones);
    let t = pool.add(t, one48);
    let cand = pool.extract(t, 7, 0);
    out.push(("carry-chain-truncation", pool.ne(spec, cand)));
    out
}

fn run_monsters() -> Vec<MonsterRecord> {
    let mut pool = TermPool::without_simplification();
    let rules = bv_rules();
    monster_terms(&mut pool)
        .into_iter()
        .map(|(name, ne)| {
            let start = Instant::now();
            let (folded, report) = fold_term(&mut pool, ne, &rules, &Limits::verifier());
            let wall_ms = start.elapsed().as_secs_f64() * 1e3;
            let folded_false = pool.as_const(folded).map(|v| v.is_zero()).unwrap_or(false);
            MonsterRecord {
                name,
                folded: folded_false,
                input_nodes: report.input_nodes,
                output_nodes: report.output_nodes,
                iterations: report.stats.iterations,
                enodes: report.stats.enodes,
                wall_ms,
            }
        })
        .collect()
}

fn run_specs(scale: Scale) -> Vec<SpecRecord> {
    let mut out = Vec::new();
    for arch in Architecture::with_dsps() {
        for bench in scale.suite(arch.name()) {
            let spec = bench.build();
            let start = Instant::now();
            let outcome = spec.saturated_with_stats(&Limits::default());
            let wall_ms = start.elapsed().as_secs_f64() * 1e3;
            out.push(SpecRecord {
                arch: arch.name().to_string(),
                benchmark: bench.name.clone(),
                nodes_before: spec.len(),
                nodes_after: outcome.prog.len(),
                iterations: outcome.stats.iterations,
                enodes: outcome.stats.enodes,
                classes: outcome.stats.classes,
                wall_ms,
            });
        }
    }
    out
}

fn run_cegis_one(
    arch: &Architecture,
    bench: &Microbenchmark,
    scale: Scale,
    egraph: bool,
) -> Option<EgraphCegisRun> {
    let spec = bench.build();
    let spec = if egraph { spec.saturated() } else { spec };
    let config = SynthesisConfig {
        timeout: Some(scale.timeout(arch.name())),
        egraph,
        ..SynthesisConfig::default()
    };
    let (verdict, stats, wall_ms) = synthesize_dsp(arch, &spec, &config)?;
    Some(EgraphCegisRun {
        arch: arch.name().to_string(),
        benchmark: bench.name.clone(),
        egraph,
        verdict,
        wall_ms,
        egraph_attempts: stats.egraph_attempts,
        egraph_folds: stats.egraph_folds,
        verification_used_sat: stats.verification_used_sat,
        conflicts: stats.conflicts,
    })
}

fn run_cegis(scale: Scale) -> Vec<EgraphCegisRun> {
    let mut runs = Vec::new();
    for arch in Architecture::with_dsps() {
        for bench in scale.suite(arch.name()) {
            // Untimed warmup (allocator growth, page faults).
            let _ = run_cegis_one(&arch, &bench, scale, false);
            let pair: Vec<EgraphCegisRun> = [true, false]
                .into_iter()
                .filter_map(|mode| run_cegis_one(&arch, &bench, scale, mode))
                .collect();
            match pair.len() {
                2 => runs.extend(pair),
                0 => {}
                _ => eprintln!(
                    "warning: dropping unpaired egraph cegis runs for {}/{}",
                    arch.name(),
                    bench.name
                ),
            }
        }
    }
    runs
}

/// Runs the full experiment at `scale`.
pub fn run_egraph_experiment(scale: Scale) -> EgraphReport {
    EgraphReport {
        scale,
        monsters: run_monsters(),
        specs: run_specs(scale),
        cegis: run_cegis(scale),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monsters_fold_by_saturation_alone() {
        let monsters = run_monsters();
        assert_eq!(monsters.len(), 3);
        for m in &monsters {
            assert!(m.folded, "{} did not fold", m.name);
            assert_eq!(m.output_nodes, 1);
            assert!(m.input_nodes > 1);
        }
    }

    #[test]
    fn json_report_is_well_formed() {
        let report = EgraphReport {
            scale: Scale::Quick,
            monsters: vec![MonsterRecord {
                name: "dsp-negate-path",
                folded: true,
                input_nodes: 12,
                output_nodes: 1,
                iterations: 4,
                enodes: 90,
                wall_ms: 1.234_56,
            }],
            specs: vec![SpecRecord {
                arch: "intel_cyclone10lp".into(),
                benchmark: "mul_8b_0stage".into(),
                nodes_before: 4,
                nodes_after: 3,
                iterations: 3,
                enodes: 20,
                classes: 10,
                wall_ms: 0.4,
            }],
            cegis: vec![
                EgraphCegisRun {
                    arch: "intel_cyclone10lp".into(),
                    benchmark: "mul_8b_0stage".into(),
                    egraph: true,
                    verdict: "success",
                    wall_ms: 10.0,
                    egraph_attempts: 1,
                    egraph_folds: 1,
                    verification_used_sat: false,
                    conflicts: 5,
                },
                EgraphCegisRun {
                    arch: "intel_cyclone10lp".into(),
                    benchmark: "mul_8b_0stage".into(),
                    egraph: false,
                    verdict: "success",
                    wall_ms: 12.0,
                    egraph_attempts: 0,
                    egraph_folds: 0,
                    verification_used_sat: true,
                    conflicts: 40,
                },
            ],
        };
        let doc = Json::parse(&report.record().json().render_pretty()).unwrap();
        assert!(report.all_monsters_fold());
        assert_eq!(doc.get(&["invariants", "all_monsters_fold"]), Some(&Json::Bool(true)));
        // Only the e-graph-on run's folds count toward the gated total.
        assert_eq!(doc.get(&["at_least", "egraph_folds"]).and_then(Json::as_f64), Some(1.0));
        let total = doc.get(&["recorded", "cegis_total_wall_ms_egraph"]).and_then(Json::as_f64);
        assert_eq!(total, Some(10.0));
        // Recorded floats keep four decimals.
        let monsters = doc.get(&["recorded", "monsters"]).and_then(Json::as_arr).unwrap();
        assert_eq!(monsters[0].get(&["wall_ms"]).and_then(Json::as_f64), Some(1.2346));
    }
}
