//! The incremental-CEGIS comparison experiment: run every benchmark of the sweep
//! through synthesis twice — once with persistent solver state
//! (`SynthesisConfig::incremental`, the default) and once with the from-scratch
//! loop — and record per-benchmark wall time, iterations, and SAT conflicts in a
//! machine-readable `BENCH_cegis.json` so the performance trajectory of the
//! synthesis hot path is tracked run over run.
//!
//! Unlike the completeness sweep this uses a *single* solver configuration per run
//! (no portfolio): the point is to measure the CEGIS loop itself, not thread
//! scheduling noise.

use lakeroad::suite::Microbenchmark;
use lr_arch::Architecture;
use lr_serve::Json;
use lr_synth::SynthesisConfig;

use crate::record::{fields, Record};
use crate::{synthesize_dsp, Scale};

/// Where the bench record is written (repo-relative).
pub const REPORT_PATH: &str = "BENCH_cegis.json";

/// Prints the human-readable summary and writes [`REPORT_PATH`] — the shared tail
/// of the `exp_all` and `exp_cegis` drivers.
pub fn report_and_write(comparison: &CegisComparison) {
    comparison.print_summary();
    comparison.record().save(REPORT_PATH);
}

/// One synthesis run's record (one benchmark in one mode).
#[derive(Debug, Clone)]
pub struct CegisRun {
    /// Architecture name.
    pub arch: String,
    /// Benchmark name.
    pub benchmark: String,
    /// Whether solver state persisted across iterations.
    pub incremental: bool,
    /// `success` / `unsat` / `timeout`.
    pub verdict: &'static str,
    /// Measured wall-clock time.
    pub wall_ms: f64,
    /// CEGIS iterations performed.
    pub iterations: usize,
    /// SAT conflicts across all checks of the run.
    pub conflicts: u64,
    /// Example-equality constraints encoded (totalled over iterations).
    pub constraints_encoded: usize,
    /// Constraints re-encoded for already-seen examples (from-scratch overhead).
    pub constraints_reencoded: usize,
    /// Learnt clauses carried into synthesis checks (incremental reuse).
    pub learnt_clauses_reused: u64,
}

/// The full comparison: every benchmark in both modes.
#[derive(Debug, Clone)]
pub struct CegisComparison {
    /// The sweep scale the comparison ran at.
    pub scale: Scale,
    /// Per-run records, incremental and from-scratch interleaved per benchmark.
    pub runs: Vec<CegisRun>,
}

impl CegisComparison {
    /// Total wall time of one mode, in milliseconds.
    pub fn total_ms(&self, incremental: bool) -> f64 {
        self.runs.iter().filter(|r| r.incremental == incremental).map(|r| r.wall_ms).sum()
    }

    /// From-scratch total wall time divided by incremental total wall time.
    pub fn speedup(&self) -> f64 {
        let inc = self.total_ms(true);
        if inc <= 0.0 {
            return 1.0;
        }
        self.total_ms(false) / inc
    }

    /// The bench record: per-mode search work (`at_most`) and verdict tallies
    /// (`exact`); wall clocks and per-run rows are recorded only.
    pub fn record(&self) -> Record {
        let mut record = Record::new(self.scale);
        for (incremental, mode) in [(true, "incremental"), (false, "from_scratch")] {
            let runs = || self.runs.iter().filter(move |r| r.incremental == incremental);
            record = record
                .at_most(&format!("{mode}_conflicts"), runs().map(|r| r.conflicts).sum::<u64>())
                .at_most(
                    &format!("{mode}_iterations"),
                    runs().map(|r| r.iterations).sum::<usize>(),
                );
            for verdict in ["success", "unsat", "timeout"] {
                let tally = runs().filter(|r| r.verdict == verdict).count();
                record = record.exact(&format!("{mode}_{verdict}"), tally);
            }
        }
        let rows: Vec<Json> = self
            .runs
            .iter()
            .map(|r| {
                fields! {
                    arch: r.arch, benchmark: r.benchmark, incremental: r.incremental,
                    verdict: r.verdict, wall_ms: r.wall_ms, iterations: r.iterations,
                    conflicts: r.conflicts, constraints_encoded: r.constraints_encoded,
                    constraints_reencoded: r.constraints_reencoded,
                    learnt_clauses_reused: r.learnt_clauses_reused,
                }
            })
            .collect();
        record
            .recorded("total_wall_ms_incremental", self.total_ms(true))
            .recorded("total_wall_ms_from_scratch", self.total_ms(false))
            .recorded("speedup", self.speedup())
            .recorded("benchmarks", rows)
    }

    /// Prints a human-readable summary table.
    pub fn print_summary(&self) {
        println!("\n-- Incremental CEGIS vs. from-scratch ({:?} scale) --", self.scale);
        println!(
            "  {:44} {:>12} {:>12} {:>8}",
            "benchmark", "incr (ms)", "scratch (ms)", "speedup"
        );
        let mut i = 0;
        while i + 1 < self.runs.len() {
            let (a, b) = (&self.runs[i], &self.runs[i + 1]);
            debug_assert!(a.incremental && !b.incremental);
            let speedup = if a.wall_ms > 0.0 { b.wall_ms / a.wall_ms } else { 1.0 };
            println!(
                "  {:44} {:>12.2} {:>12.2} {:>7.2}x",
                format!("{}/{}", a.arch, a.benchmark),
                a.wall_ms,
                b.wall_ms,
                speedup
            );
            i += 2;
        }
        println!(
            "  total: incremental {:.1} ms, from-scratch {:.1} ms, speedup {:.2}x",
            self.total_ms(true),
            self.total_ms(false),
            self.speedup()
        );
    }
}

fn run_one(
    arch: &Architecture,
    bench: &Microbenchmark,
    scale: Scale,
    incremental: bool,
) -> Option<CegisRun> {
    let config = SynthesisConfig {
        timeout: Some(scale.timeout(arch.name())),
        incremental,
        ..SynthesisConfig::default()
    };
    let (verdict, stats, wall_ms) = synthesize_dsp(arch, &bench.build(), &config)?;
    Some(CegisRun {
        arch: arch.name().to_string(),
        benchmark: bench.name.clone(),
        incremental,
        verdict,
        wall_ms,
        iterations: stats.iterations,
        conflicts: stats.conflicts,
        constraints_encoded: stats.constraints_encoded,
        constraints_reencoded: stats.constraints_reencoded,
        learnt_clauses_reused: stats.learnt_clauses_reused,
    })
}

/// Runs the comparison over the DSP sweep at `scale`: each benchmark once
/// incrementally, once from scratch.
pub fn run_cegis_comparison(scale: Scale) -> CegisComparison {
    let mut runs = Vec::new();
    for arch in Architecture::with_dsps() {
        for bench in scale.suite(arch.name()) {
            // Untimed warmup so neither timed mode pays first-touch costs
            // (allocator growth, page faults, branch history).
            let _ = run_one(&arch, &bench, scale, false);
            let pair: Vec<CegisRun> = [true, false]
                .into_iter()
                .filter_map(|mode| run_one(&arch, &bench, scale, mode))
                .collect();
            // Keep records paired so consumers can diff benchmark-by-benchmark.
            // A benchmark with no sketch yields zero runs (expected); one run
            // means a mode errored out, which must not vanish from the record
            // silently.
            match pair.len() {
                2 => runs.extend(pair),
                0 => {}
                _ => eprintln!(
                    "warning: dropping unpaired cegis runs for {}/{} (one mode failed)",
                    arch.name(),
                    bench.name
                ),
            }
        }
    }
    CegisComparison { scale, runs }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_report_is_well_formed_and_paired() {
        let comparison = CegisComparison {
            scale: Scale::Quick,
            runs: vec![
                CegisRun {
                    arch: "intel_cyclone10lp".into(),
                    benchmark: "mul_8b_0stage".into(),
                    incremental: true,
                    verdict: "success",
                    wall_ms: 12.5,
                    iterations: 2,
                    conflicts: 34,
                    constraints_encoded: 8,
                    constraints_reencoded: 0,
                    learnt_clauses_reused: 20,
                },
                CegisRun {
                    arch: "intel_cyclone10lp".into(),
                    benchmark: "mul_8b_0stage".into(),
                    incremental: false,
                    verdict: "success",
                    wall_ms: 25.0,
                    iterations: 2,
                    conflicts: 60,
                    constraints_encoded: 12,
                    constraints_reencoded: 4,
                    learnt_clauses_reused: 0,
                },
            ],
        };
        let doc = Json::parse(&comparison.record().json().render_pretty()).unwrap();
        let get = |path: &[&str]| doc.get(path).and_then(Json::as_f64);
        assert_eq!(get(&["recorded", "speedup"]), Some(2.0));
        assert_eq!(get(&["at_most", "incremental_conflicts"]), Some(34.0));
        assert_eq!(get(&["at_most", "from_scratch_conflicts"]), Some(60.0));
        assert_eq!(get(&["exact", "incremental_success"]), Some(1.0));
        assert_eq!(get(&["exact", "from_scratch_timeout"]), Some(0.0));
        let rows = doc.get(&["recorded", "benchmarks"]).and_then(Json::as_arr).unwrap();
        assert_eq!(rows.len(), 2, "one row per run, paired");
        assert_eq!(rows[1].get(&["constraints_reencoded"]).and_then(Json::as_f64), Some(4.0));
    }

    #[test]
    fn comparison_runs_a_tiny_sweep() {
        // The Intel quick tier is a single benchmark; both modes must complete and
        // agree on the verdict.
        let arch = Architecture::intel_cyclone10lp();
        let bench = &Scale::Quick.suite(arch.name())[0];
        let inc = run_one(&arch, bench, Scale::Quick, true).unwrap();
        let scr = run_one(&arch, bench, Scale::Quick, false).unwrap();
        assert_eq!(inc.verdict, scr.verdict);
        assert_eq!(inc.constraints_reencoded, 0);
    }
}
