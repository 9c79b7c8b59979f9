//! The tracing-overhead experiment: prove that turning `lr_trace` on changes
//! **nothing** about what the synthesizer computes, and record what the spans
//! cost in wall time.
//!
//! Every benchmark of the DSP sweep runs twice through the same single-solver
//! CEGIS configuration (fixed seed, no timeout, no portfolio) — once with
//! tracing disabled, once enabled. The deterministic counters of the two runs
//! (verdict, iterations, examples, SAT conflicts/propagations, constraints
//! encoded) must be **bit-identical**: spans only observe the pipeline, they
//! must never steer it. The wall-clock overhead ratio is recorded but ungated —
//! it depends on the machine, and the identity gate is the one that matters.
//!
//! The traced pass must also actually produce spans: a run that reports zero
//! events (or loses one of the span names the CLI's stage summary is built on)
//! means the instrumentation quietly rotted, which is its own regression.

use std::collections::BTreeSet;

use lakeroad::suite::Microbenchmark;
use lr_arch::Architecture;
use lr_serve::Json;
use lr_synth::SynthesisConfig;

use crate::record::{fields, Record};
use crate::{synthesize_dsp, Scale};

/// Where the bench record is written (repo-relative).
pub const REPORT_PATH: &str = "BENCH_trace.json";

/// Span names the traced pass must emit at least once over the sweep. These are
/// the names `lakeroad --trace`'s stage summary and the batch per-job breakdown
/// aggregate by; losing one silently would blind the observability surface.
pub const REQUIRED_SPANS: [&str; 5] =
    ["cegis", "cegis-iteration", "synth-check", "verify-check", "sat-check"];

/// The deterministic counters of one synthesis run, in one tracing mode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceProbe {
    /// `success` / `unsat` / `timeout`.
    pub verdict: &'static str,
    /// CEGIS iterations performed.
    pub iterations: usize,
    /// Counterexamples accumulated (including seeds).
    pub examples: usize,
    /// SAT conflicts across all checks.
    pub conflicts: u64,
    /// SAT unit propagations across all checks.
    pub propagations: u64,
    /// Example-equality constraints encoded.
    pub constraints_encoded: usize,
}

/// One benchmark's untraced/traced pair.
#[derive(Debug, Clone)]
pub struct TraceRun {
    /// Architecture name.
    pub arch: String,
    /// Benchmark name.
    pub benchmark: String,
    /// Counters with tracing disabled.
    pub untraced: TraceProbe,
    /// Counters with tracing enabled.
    pub traced: TraceProbe,
    /// Untraced wall time (after warmup), milliseconds.
    pub untraced_wall_ms: f64,
    /// Traced wall time, milliseconds.
    pub traced_wall_ms: f64,
}

impl TraceRun {
    /// Whether the traced run reproduced the untraced counters exactly.
    pub fn identical(&self) -> bool {
        self.untraced == self.traced
    }
}

/// The full comparison: every benchmark of the sweep, both modes, plus the
/// span inventory of the traced pass.
#[derive(Debug, Clone)]
pub struct TraceComparison {
    /// The sweep scale.
    pub scale: Scale,
    /// Per-benchmark pairs.
    pub runs: Vec<TraceRun>,
    /// Span events recorded by the traced pass.
    pub traced_events: usize,
    /// Events lost to the bounded per-thread buffers (0 at every shipped scale).
    pub dropped_events: u64,
    /// [`REQUIRED_SPANS`] entries the traced pass never emitted.
    pub missing_spans: Vec<&'static str>,
}

impl TraceComparison {
    /// Benchmarks whose counters differed between modes.
    pub fn counter_mismatches(&self) -> usize {
        self.runs.iter().filter(|r| !r.identical()).count()
    }

    /// Total wall time of one mode, milliseconds.
    pub fn total_ms(&self, traced: bool) -> f64 {
        self.runs.iter().map(|r| if traced { r.traced_wall_ms } else { r.untraced_wall_ms }).sum()
    }

    /// Traced total wall time over untraced — the cost of observation.
    /// Recorded for the record, never gated.
    pub fn overhead_ratio(&self) -> f64 {
        let untraced = self.total_ms(false);
        if untraced <= 0.0 {
            return 1.0;
        }
        self.total_ms(true) / untraced
    }

    /// The experiment's own verdict: counters identical, spans present.
    pub fn gates_pass(&self) -> bool {
        !self.runs.is_empty()
            && self.counter_mismatches() == 0
            && self.traced_events > 0
            && self.missing_spans.is_empty()
    }

    /// The bench record: tracing must not perturb a counter and must record
    /// spans (`invariants`); the sweep's search work is `at_most`. Overhead
    /// and wall times are recorded only.
    pub fn record(&self) -> Record {
        let rows: Vec<Json> = self
            .runs
            .iter()
            .map(|r| {
                let u = &r.untraced;
                fields! {
                    arch: r.arch, benchmark: r.benchmark, verdict: u.verdict,
                    iterations: u.iterations, examples: u.examples, conflicts: u.conflicts,
                    propagations: u.propagations, constraints_encoded: u.constraints_encoded,
                    identical: r.identical(), untraced_wall_ms: r.untraced_wall_ms,
                    traced_wall_ms: r.traced_wall_ms,
                }
            })
            .collect();
        Record::new(self.scale)
            .invariant("gates_pass", self.gates_pass())
            .invariant("counter_mismatches_is_zero", self.counter_mismatches() == 0)
            .invariant("traced_events_nonzero", self.traced_events > 0)
            .at_most("conflicts", self.runs.iter().map(|r| r.untraced.conflicts).sum::<u64>())
            .at_most("iterations", self.runs.iter().map(|r| r.untraced.iterations).sum::<usize>())
            .recorded("untraced_total_ms", self.total_ms(false))
            .recorded("traced_total_ms", self.total_ms(true))
            .recorded("overhead_ratio", self.overhead_ratio())
            .recorded("traced_events", self.traced_events)
            .recorded("dropped_events", self.dropped_events)
            .recorded("counter_mismatches", self.counter_mismatches())
            .recorded("missing_spans", self.missing_spans.clone())
            .recorded("benchmarks", rows)
    }

    /// Prints a human-readable summary.
    pub fn print_summary(&self) {
        println!("\n-- Tracing overhead and identity ({:?} scale) --", self.scale);
        println!("  {:44} {:>12} {:>12} {:>10}", "benchmark", "off (ms)", "on (ms)", "identical");
        for r in &self.runs {
            println!(
                "  {:44} {:>12.2} {:>12.2} {:>10}",
                format!("{}/{}", r.arch, r.benchmark),
                r.untraced_wall_ms,
                r.traced_wall_ms,
                if r.identical() { "yes" } else { "NO" }
            );
        }
        println!(
            "  total: untraced {:.1} ms, traced {:.1} ms, overhead {:.2}x; \
             {} events recorded ({} dropped)",
            self.total_ms(false),
            self.total_ms(true),
            self.overhead_ratio(),
            self.traced_events,
            self.dropped_events
        );
        if !self.missing_spans.is_empty() {
            println!("  MISSING SPANS: {:?}", self.missing_spans);
        }
        println!("  gates: {}", if self.gates_pass() { "PASS" } else { "FAIL" });
    }
}

/// Prints the summary and writes [`REPORT_PATH`] — the shared tail of the
/// `exp_trace` driver.
pub fn report_and_write(comparison: &TraceComparison) {
    comparison.print_summary();
    comparison.record().save(REPORT_PATH);
}

fn run_one(arch: &Architecture, bench: &Microbenchmark) -> Option<(TraceProbe, f64)> {
    // No timeout: the identity gate needs counters that depend only on the
    // seed, never on the clock. The default iteration cap still bounds the run.
    let config = SynthesisConfig { timeout: None, ..SynthesisConfig::default() };
    let (verdict, stats, wall_ms) = synthesize_dsp(arch, &bench.build(), &config)?;
    Some((
        TraceProbe {
            verdict,
            iterations: stats.iterations,
            examples: stats.examples,
            conflicts: stats.conflicts,
            propagations: stats.propagations,
            constraints_encoded: stats.constraints_encoded,
        },
        wall_ms,
    ))
}

/// Runs the comparison over the DSP sweep at `scale`: each benchmark once with
/// tracing off, once with tracing on, then inventories the recorded spans.
pub fn run_trace_comparison(scale: Scale) -> TraceComparison {
    // Start from a clean slate: the identity gate measures *this* experiment's
    // runs, not whatever a previous consumer of the process-global tracer left
    // behind.
    lr_trace::set_enabled(false);
    lr_trace::flush();
    let _ = lr_trace::take_events();

    let mut runs = Vec::new();
    for arch in Architecture::with_dsps() {
        for bench in scale.suite(arch.name()) {
            // Untimed warmup so neither timed mode pays first-touch costs.
            let _ = run_one(&arch, &bench);
            let untraced = run_one(&arch, &bench);
            lr_trace::set_enabled(true);
            let traced = run_one(&arch, &bench);
            lr_trace::set_enabled(false);
            if let (Some((u, u_ms)), Some((t, t_ms))) = (untraced, traced) {
                runs.push(TraceRun {
                    arch: arch.name().to_string(),
                    benchmark: bench.name.clone(),
                    untraced: u,
                    traced: t,
                    untraced_wall_ms: u_ms,
                    traced_wall_ms: t_ms,
                });
            }
        }
    }

    lr_trace::flush();
    let events = lr_trace::take_events();
    let seen: BTreeSet<&str> = events.iter().map(|e| e.name).collect();
    let missing_spans: Vec<&'static str> =
        REQUIRED_SPANS.into_iter().filter(|name| !seen.contains(name)).collect();
    TraceComparison {
        scale,
        runs,
        traced_events: events.len(),
        dropped_events: lr_trace::dropped_events(),
        missing_spans,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn probe(conflicts: u64) -> TraceProbe {
        TraceProbe {
            verdict: "success",
            iterations: 2,
            examples: 5,
            conflicts,
            propagations: 400,
            constraints_encoded: 10,
        }
    }

    fn comparison(traced_conflicts: u64, traced_events: usize) -> TraceComparison {
        TraceComparison {
            scale: Scale::Quick,
            runs: vec![TraceRun {
                arch: "intel_cyclone10lp".into(),
                benchmark: "mul_w8_s0".into(),
                untraced: probe(34),
                traced: probe(traced_conflicts),
                untraced_wall_ms: 10.0,
                traced_wall_ms: 11.0,
            }],
            traced_events,
            dropped_events: 0,
            missing_spans: Vec::new(),
        }
    }

    #[test]
    fn identical_counters_pass_and_any_drift_fails() {
        let good = comparison(34, 120);
        assert_eq!(good.counter_mismatches(), 0);
        assert!(good.gates_pass());
        assert!((good.overhead_ratio() - 1.1).abs() < 1e-9);

        // One conflict of drift is a gate failure, not a tolerance question.
        let bad = comparison(35, 120);
        assert_eq!(bad.counter_mismatches(), 1);
        assert!(!bad.gates_pass());

        // A traced pass that recorded nothing means the spans rotted.
        let silent = comparison(34, 0);
        assert!(!silent.gates_pass());

        let mut blind = comparison(34, 120);
        blind.missing_spans.push("sat-check");
        assert!(!blind.gates_pass());
    }

    #[test]
    fn json_record_is_well_formed() {
        let doc = Json::parse(&comparison(34, 120).record().json().render_pretty()).unwrap();
        let get = |path: &[&str]| doc.get(path).and_then(Json::as_f64);
        assert_eq!(doc.get(&["invariants", "counter_mismatches_is_zero"]), Some(&Json::Bool(true)));
        assert_eq!(doc.get(&["invariants", "traced_events_nonzero"]), Some(&Json::Bool(true)));
        assert_eq!(get(&["at_most", "conflicts"]), Some(34.0));
        assert_eq!(get(&["recorded", "overhead_ratio"]), Some(1.1));
        assert_eq!(doc.get(&["recorded", "missing_spans"]), Some(&Json::Arr(Vec::new())));
        let rows = doc.get(&["recorded", "benchmarks"]).and_then(Json::as_arr).unwrap();
        assert_eq!(rows[0].get(&["identical"]), Some(&Json::Bool(true)));
    }

    #[test]
    fn a_tiny_sweep_reproduces_counters_under_tracing() {
        // The cheapest DSP benchmark, both modes, through the real pipeline.
        // Serialize against other tests of this crate that toggle the
        // process-global tracer: drive the toggles locally and tolerate
        // whatever the ambient enabled state is by comparing counters only.
        let arch = Architecture::intel_cyclone10lp();
        let bench = &Scale::Quick.suite(arch.name())[0];
        let (untraced, _) = run_one(&arch, bench).unwrap();
        lr_trace::set_enabled(true);
        let (traced, _) = run_one(&arch, bench).unwrap();
        lr_trace::set_enabled(false);
        assert_eq!(untraced, traced);
    }
}
