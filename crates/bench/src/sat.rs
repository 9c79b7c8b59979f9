//! The SAT-core modernization experiment: run the e2e mapping tier through
//! synthesis twice — once with the modernized solver configuration (LBD-tiered
//! clause database + EMA restarts, the default) and once with the old-style one
//! (activity-only deletion + Luby restarts) — and record the deterministic solver
//! counters (conflicts, propagations, learnt/minimized literals, restarts, glue)
//! per benchmark in a machine-readable `BENCH_sat.json`.
//!
//! Like the CEGIS comparison, this uses a *single* solver configuration per run
//! (no portfolio, no threads), so every counter is reproducible bit-for-bit and
//! usable as a CI regression gate: the modernized configuration must not do more
//! search work than the legacy one on the same tier.

use lakeroad::suite::Microbenchmark;
use lr_arch::Architecture;
use lr_serve::Json;
use lr_smt::SolverConfig;
use lr_synth::SynthesisConfig;

use crate::record::{fields, Record};
use crate::{synthesize_dsp, Scale};

/// Where the bench record is written (repo-relative).
pub const REPORT_PATH: &str = "BENCH_sat.json";

/// The modernized configuration under test (the workspace default).
pub fn modern_config() -> SolverConfig {
    SolverConfig { name: "modern".into(), ..SolverConfig::default() }
}

/// The pre-modernization comparison point.
pub fn legacy_config() -> SolverConfig {
    SolverConfig { name: "legacy".into(), ..SolverConfig::legacy() }
}

/// One synthesis run's solver-counter record (one benchmark in one mode).
#[derive(Debug, Clone)]
pub struct SatRun {
    /// Architecture name.
    pub arch: String,
    /// Benchmark name.
    pub benchmark: String,
    /// `"modern"` or `"legacy"`.
    pub mode: &'static str,
    /// `success` / `unsat` / `timeout`.
    pub verdict: &'static str,
    /// Measured wall-clock time (informational; never gated on).
    pub wall_ms: f64,
    /// CEGIS iterations performed.
    pub iterations: usize,
    /// SAT conflicts across all checks of the run.
    pub conflicts: u64,
    /// SAT unit propagations across all checks of the run.
    pub propagations: u64,
    /// SAT restarts across all checks of the run.
    pub restarts: u64,
    /// Literals across stored learnt clauses (post-minimization).
    pub learnt_literals: u64,
    /// Literals removed by recursive clause minimization.
    pub minimized_literals: u64,
    /// Learnt clauses with glue ≤ 2 (the core-quality fraction).
    pub low_glue_clauses: u64,
    /// All learnt clauses stored.
    pub learnt_clauses: u64,
}

/// The full comparison: every benchmark of the tier in both modes.
#[derive(Debug, Clone)]
pub struct SatComparison {
    /// The sweep scale the comparison ran at.
    pub scale: Scale,
    /// Per-run records, modern and legacy interleaved per benchmark.
    pub runs: Vec<SatRun>,
}

impl SatComparison {
    fn total(&self, mode: &str, field: impl Fn(&SatRun) -> u64) -> u64 {
        self.runs.iter().filter(|r| r.mode == mode).map(field).sum()
    }

    /// Total conflicts of one mode.
    pub fn total_conflicts(&self, mode: &str) -> u64 {
        self.total(mode, |r| r.conflicts)
    }

    /// Total propagations of one mode.
    pub fn total_propagations(&self, mode: &str) -> u64 {
        self.total(mode, |r| r.propagations)
    }

    /// Total learnt literals of one mode.
    pub fn total_learnt_literals(&self, mode: &str) -> u64 {
        self.total(mode, |r| r.learnt_literals)
    }

    /// The acceptance gate: the modernized configuration must reduce total
    /// conflicts or total propagations on the tier (and both modes must agree on
    /// every verdict).
    ///
    /// # Errors
    /// Returns a description of every gate that failed.
    pub fn gates(&self) -> Result<(), String> {
        let mut failures = Vec::new();
        if self.runs.is_empty() {
            // An empty comparison must not pass vacuously: it means every
            // benchmark failed to produce a paired measurement.
            failures.push("no paired runs recorded — the sweep measured nothing".to_string());
        }
        let mut i = 0;
        while i + 1 < self.runs.len() {
            let (a, b) = (&self.runs[i], &self.runs[i + 1]);
            if a.benchmark == b.benchmark && a.mode != b.mode && a.verdict != b.verdict {
                failures.push(format!(
                    "verdict drift on {}/{}: modern={} legacy={}",
                    a.arch, a.benchmark, a.verdict, b.verdict
                ));
            }
            i += 2;
        }
        let (mc, lc) = (self.total_conflicts("modern"), self.total_conflicts("legacy"));
        let (mp, lp) = (self.total_propagations("modern"), self.total_propagations("legacy"));
        if mc > lc && mp > lp {
            failures.push(format!(
                "modern config does strictly more work: conflicts {mc} > {lc} and \
                 propagations {mp} > {lp}"
            ));
        }
        if failures.is_empty() {
            Ok(())
        } else {
            Err(failures.join("; "))
        }
    }

    /// The bench record: the modern configuration's search work (`at_most`)
    /// and the experiment's own gates (`invariants`); the legacy totals and
    /// per-run rows are recorded only.
    pub fn record(&self) -> Record {
        let rows: Vec<Json> = self
            .runs
            .iter()
            .map(|r| {
                fields! {
                    arch: r.arch, benchmark: r.benchmark, mode: r.mode, verdict: r.verdict,
                    wall_ms: r.wall_ms, iterations: r.iterations, conflicts: r.conflicts,
                    propagations: r.propagations, restarts: r.restarts,
                    learnt_literals: r.learnt_literals, minimized_literals: r.minimized_literals,
                    low_glue_clauses: r.low_glue_clauses, learnt_clauses: r.learnt_clauses,
                }
            })
            .collect();
        Record::new(self.scale)
            .invariant("gates_pass", self.gates().is_ok())
            .at_most("total_conflicts_modern", self.total_conflicts("modern"))
            .at_most("total_propagations_modern", self.total_propagations("modern"))
            .recorded("total_learnt_literals_modern", self.total_learnt_literals("modern"))
            .recorded(
                "total_minimized_literals_modern",
                self.total("modern", |r| r.minimized_literals),
            )
            .recorded("total_conflicts_legacy", self.total_conflicts("legacy"))
            .recorded("total_propagations_legacy", self.total_propagations("legacy"))
            .recorded("total_learnt_literals_legacy", self.total_learnt_literals("legacy"))
            .recorded("benchmarks", rows)
    }

    /// Prints a human-readable summary table.
    pub fn print_summary(&self) {
        println!(
            "\n-- CDCL modernization: tiered+EMA vs. activity+Luby ({:?} scale) --",
            self.scale
        );
        println!(
            "  {:44} {:>10} {:>10} {:>11} {:>11}",
            "benchmark", "mod cfl", "leg cfl", "mod props", "leg props"
        );
        let mut i = 0;
        while i + 1 < self.runs.len() {
            let (a, b) = (&self.runs[i], &self.runs[i + 1]);
            debug_assert!(a.mode == "modern" && b.mode == "legacy");
            println!(
                "  {:44} {:>10} {:>10} {:>11} {:>11}",
                format!("{}/{}", a.arch, a.benchmark),
                a.conflicts,
                b.conflicts,
                a.propagations,
                b.propagations
            );
            i += 2;
        }
        let minimized = self.total("modern", |r| r.minimized_literals);
        let learnt = self.total_learnt_literals("modern");
        println!(
            "  totals: conflicts {} vs {}, propagations {} vs {} (modern vs legacy)",
            self.total_conflicts("modern"),
            self.total_conflicts("legacy"),
            self.total_propagations("modern"),
            self.total_propagations("legacy"),
        );
        println!(
            "  modern clause quality: {} learnt literals, {} minimized away ({:.1}%), {} restarts",
            learnt,
            minimized,
            if learnt + minimized > 0 {
                100.0 * minimized as f64 / (learnt + minimized) as f64
            } else {
                0.0
            },
            self.total("modern", |r| r.restarts),
        );
    }
}

fn run_one(
    arch: &Architecture,
    bench: &Microbenchmark,
    scale: Scale,
    mode: &'static str,
    solver: SolverConfig,
) -> Option<SatRun> {
    let config = SynthesisConfig {
        solver,
        timeout: Some(scale.timeout(arch.name())),
        ..SynthesisConfig::default()
    };
    let (verdict, stats, wall_ms) = synthesize_dsp(arch, &bench.build(), &config)?;
    Some(SatRun {
        arch: arch.name().to_string(),
        benchmark: bench.name.clone(),
        mode,
        verdict,
        wall_ms,
        iterations: stats.iterations,
        conflicts: stats.conflicts,
        propagations: stats.propagations,
        restarts: stats.restarts,
        learnt_literals: stats.learnt_literals,
        minimized_literals: stats.minimized_literals,
        low_glue_clauses: stats.glue_histogram[0] + stats.glue_histogram[1],
        learnt_clauses: stats.glue_histogram.iter().sum(),
    })
}

/// Runs the comparison over the e2e mapping tier at `scale`: each benchmark once
/// under the modernized solver configuration, once under the old-style one.
pub fn run_sat_comparison(scale: Scale) -> SatComparison {
    let mut runs = Vec::new();
    for arch in Architecture::with_dsps() {
        for bench in scale.suite(arch.name()) {
            let pair: Vec<SatRun> = [("modern", modern_config()), ("legacy", legacy_config())]
                .into_iter()
                .filter_map(|(mode, cfg)| run_one(&arch, &bench, scale, mode, cfg))
                .collect();
            match pair.len() {
                2 => runs.extend(pair),
                0 => {}
                _ => eprintln!(
                    "warning: dropping unpaired sat runs for {}/{} (one mode failed)",
                    arch.name(),
                    bench.name
                ),
            }
        }
    }
    SatComparison { scale, runs }
}

/// Prints the human-readable summary, writes [`REPORT_PATH`], and evaluates the
/// acceptance gates.
///
/// # Errors
/// Returns the gate-failure description when a gate fails.
pub fn report_and_write(comparison: &SatComparison) -> Result<(), String> {
    comparison.print_summary();
    comparison.record().save(REPORT_PATH);
    comparison.gates()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(mode: &'static str, benchmark: &str, conflicts: u64, propagations: u64) -> SatRun {
        SatRun {
            arch: "intel_cyclone10lp".into(),
            benchmark: benchmark.into(),
            mode,
            verdict: "success",
            wall_ms: 1.0,
            iterations: 1,
            conflicts,
            propagations,
            restarts: 1,
            learnt_literals: 10,
            minimized_literals: 3,
            low_glue_clauses: 2,
            learnt_clauses: 4,
        }
    }

    #[test]
    fn gates_pass_when_modern_wins_either_axis() {
        let cmp = SatComparison {
            scale: Scale::Quick,
            runs: vec![run("modern", "b", 10, 2000), run("legacy", "b", 20, 1000)],
        };
        assert!(cmp.gates().is_ok(), "fewer conflicts suffices");
        let cmp = SatComparison {
            scale: Scale::Quick,
            runs: vec![run("modern", "b", 30, 500), run("legacy", "b", 20, 1000)],
        };
        assert!(cmp.gates().is_ok(), "fewer propagations suffices");
    }

    #[test]
    fn gates_fail_when_modern_is_strictly_worse() {
        let cmp = SatComparison {
            scale: Scale::Quick,
            runs: vec![run("modern", "b", 30, 2000), run("legacy", "b", 20, 1000)],
        };
        assert!(cmp.gates().is_err());
    }

    #[test]
    fn gates_fail_on_an_empty_comparison() {
        let cmp = SatComparison { scale: Scale::Quick, runs: Vec::new() };
        assert!(cmp.gates().unwrap_err().contains("measured nothing"));
    }

    #[test]
    fn gates_fail_on_verdict_drift() {
        let mut worse = run("legacy", "b", 20, 1000);
        worse.verdict = "unsat";
        let cmp =
            SatComparison { scale: Scale::Quick, runs: vec![run("modern", "b", 10, 500), worse] };
        assert!(cmp.gates().unwrap_err().contains("verdict drift"));
    }

    #[test]
    fn json_report_is_well_formed() {
        let cmp = SatComparison {
            scale: Scale::Quick,
            runs: vec![run("modern", "b", 10, 500), run("legacy", "b", 20, 1000)],
        };
        let doc = Json::parse(&cmp.record().json().render_pretty()).unwrap();
        let get = |path: &[&str]| doc.get(path).and_then(Json::as_f64);
        assert_eq!(get(&["at_most", "total_conflicts_modern"]), Some(10.0));
        assert_eq!(get(&["at_most", "total_propagations_modern"]), Some(500.0));
        assert_eq!(get(&["recorded", "total_conflicts_legacy"]), Some(20.0));
        assert_eq!(doc.get(&["invariants", "gates_pass"]), Some(&Json::Bool(true)));
        assert_eq!(doc.get(&["recorded", "benchmarks"]).and_then(Json::as_arr).unwrap().len(), 2);
    }

    #[test]
    fn comparison_runs_a_tiny_sweep() {
        let arch = Architecture::intel_cyclone10lp();
        let bench = &Scale::Quick.suite(arch.name())[0];
        let modern = run_one(&arch, bench, Scale::Quick, "modern", modern_config()).unwrap();
        let legacy = run_one(&arch, bench, Scale::Quick, "legacy", legacy_config()).unwrap();
        assert_eq!(modern.verdict, legacy.verdict);
        assert!(modern.propagations > 0 && legacy.propagations > 0);
    }
}
