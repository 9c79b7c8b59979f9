//! The differential HDL fuzzing firehose (`exp_fuzz`).
//!
//! Drives `lr_hdl::fuzz` at experiment scale: hundreds-to-thousands of seeded
//! mini-Verilog modules through the three-layer oracle —
//!
//! 1. the generated source parses and elaborates,
//! 2. `emit_verilog` of the elaborated program re-parses and re-elaborates to
//!    an interpretation-equivalent program (round-trip closure), and
//! 3. for a bounded prefix of seeds, the design is posed to the mapping engine
//!    and any successful mapping's `lr_ir` interpretation must agree with the
//!    elaborated spec over the cache-replay cycle window.
//!
//! `BENCH_fuzz.json` records the tallies. The acceptance gates are
//! **zero-tolerance on mismatches**: every seed must clear layers 1–2, and
//! every successful mapping must agree with its spec. Mapping *verdict*
//! tallies (success/unsat/timeout, and errors split by [`MapError`] variant)
//! are recorded for drift-watching but not gated — they move with solver
//! timing.

use std::time::Duration;

use lakeroad::{map_design, pipeline_depth, MapConfig, MapError, MapOutcome, Template};
use lr_arch::Architecture;
use lr_hdl::fuzz::{check_seed, interp_equivalent};

use crate::record::{fields, gate_result, Record};
use crate::Scale;

/// Where the bench record is written (repo-relative).
pub const REPORT_PATH: &str = "BENCH_fuzz.json";

/// Random environments per equivalence check.
const ENVS: usize = 32;
/// Last cycle checked by the round-trip oracle (covers every register depth
/// the generator can produce, with slack).
const ROUNDTRIP_CYCLES: u32 = 6;

/// The record `exp_fuzz` writes to [`REPORT_PATH`].
#[derive(Debug, Clone)]
pub struct FuzzReport {
    /// Experiment scale.
    pub scale: Scale,
    /// Seeds pushed through the oracle (layer 1–2 population).
    pub seeds_run: usize,
    /// Seeds whose generated source parsed.
    pub parse_ok: usize,
    /// Seeds whose parsed module elaborated.
    pub elaborate_ok: usize,
    /// Seeds whose emitted Verilog round-tripped to an equivalent program.
    pub roundtrip_ok: usize,
    /// Seeds posed to the mapping engine (layer 3, bounded prefix).
    pub map_attempted: usize,
    /// Mapping successes (timing-dependent; recorded, not gated).
    pub map_success: usize,
    /// Unsat verdicts (timing-dependent; recorded, not gated).
    pub map_unsat: usize,
    /// Budget exhaustions (timing-dependent; recorded, not gated).
    pub map_timeout: usize,
    /// Mapping errors by [`MapError`] variant: sketch, synthesis, frontend
    /// (recorded, not gated).
    pub map_errors: [usize; 3],
    /// Successful mappings whose implementation agreed with the spec.
    pub map_agree: usize,
    /// Every oracle failure, verbatim (each one fails the gate).
    pub mismatches: Vec<String>,
}

impl FuzzReport {
    fn new(scale: Scale) -> FuzzReport {
        FuzzReport {
            scale,
            seeds_run: 0,
            parse_ok: 0,
            elaborate_ok: 0,
            roundtrip_ok: 0,
            map_attempted: 0,
            map_success: 0,
            map_unsat: 0,
            map_timeout: 0,
            map_errors: [0; 3],
            map_agree: 0,
            mismatches: Vec::new(),
        }
    }

    /// All mapping errors, whatever their variant.
    pub fn map_error(&self) -> usize {
        self.map_errors.iter().sum()
    }

    /// The failed acceptance gates; empty when the firehose ran clean.
    pub fn gate_failures(&self) -> Vec<String> {
        let mut failures = Vec::new();
        if self.parse_ok != self.seeds_run {
            failures.push(format!(
                "{} of {} generated modules failed to parse",
                self.seeds_run - self.parse_ok,
                self.seeds_run
            ));
        }
        if self.elaborate_ok != self.parse_ok {
            failures.push(format!(
                "{} parsed modules failed to elaborate",
                self.parse_ok - self.elaborate_ok
            ));
        }
        if self.roundtrip_ok != self.elaborate_ok {
            failures.push(format!(
                "{} elaborated designs failed round-trip closure",
                self.elaborate_ok - self.roundtrip_ok
            ));
        }
        if self.map_agree != self.map_success {
            failures.push(format!(
                "{} of {} successful mappings disagreed with their spec",
                self.map_success - self.map_agree,
                self.map_success
            ));
        }
        failures.extend(self.mismatches.iter().cloned());
        failures
    }

    /// The bench record: the generator and oracle are pure functions of the
    /// seed range, so the frontend counters are `exact`; mismatches are
    /// zero-tolerance `invariants`. Mapping tallies are timing-dependent and
    /// recorded only.
    pub fn record(&self) -> Record {
        let [sketch, synthesis, frontend] = self.map_errors;
        Record::new(self.scale)
            .invariant("gates_pass", self.gate_failures().is_empty())
            .invariant("mismatch_count_is_zero", self.mismatches.is_empty())
            .exact("seeds_run", self.seeds_run)
            .exact("parse_ok", self.parse_ok)
            .exact("elaborate_ok", self.elaborate_ok)
            .exact("roundtrip_ok", self.roundtrip_ok)
            .recorded("map_attempted", self.map_attempted)
            .recorded("map_success", self.map_success)
            .recorded("map_unsat", self.map_unsat)
            .recorded("map_timeout", self.map_timeout)
            .recorded("map_error", self.map_error())
            .recorded(
                "map_errors",
                fields! { sketch: sketch, synthesis: synthesis, frontend: frontend },
            )
            .recorded("map_agree", self.map_agree)
            .recorded("mismatch_count", self.mismatches.len())
            .recorded("mismatches", self.mismatches.clone())
    }

    /// Prints a human-readable summary.
    pub fn print_summary(&self) {
        println!("\n-- Fuzz firehose: {} seeds --", self.seeds_run);
        println!(
            "  frontend  {} parse, {} elaborate, {} round-trip",
            self.parse_ok, self.elaborate_ok, self.roundtrip_ok
        );
        println!(
            "  mapping   {} posed: {} success ({} agree), {} unsat, {} timeout, {} error \
             ({} sketch, {} synthesis, {} frontend)",
            self.map_attempted,
            self.map_success,
            self.map_agree,
            self.map_unsat,
            self.map_timeout,
            self.map_error(),
            self.map_errors[0],
            self.map_errors[1],
            self.map_errors[2],
        );
        println!("  mismatches: {}", self.mismatches.len());
        for m in self.mismatches.iter().take(5) {
            println!("    {m}");
        }
        for failure in self.gate_failures() {
            println!("  GATE FAILED: {failure}");
        }
    }
}

/// (seeds, layer-3 cap, per-mapping budget) for each scale. Quick keeps CI in
/// tens of seconds; the ISSUE floor is ≥ 200 seeds at `--quick`.
fn scale_params(scale: Scale) -> (u64, usize, Duration) {
    match scale {
        Scale::Quick => (200, 8, Duration::from_millis(1500)),
        Scale::Smoke => (1000, 24, Duration::from_secs(2)),
        Scale::Full => (5000, 96, Duration::from_secs(3)),
    }
}

/// Runs the firehose at `scale`.
pub fn run_fuzz_experiment(scale: Scale) -> FuzzReport {
    let (n_seeds, map_cap, budget) = scale_params(scale);
    let mut report = FuzzReport::new(scale);
    let archs = [Architecture::intel_cyclone10lp(), Architecture::lattice_ecp5()];
    let config = MapConfig { timeout: budget, ..MapConfig::default() };
    for seed in 0..n_seeds {
        let outcome = check_seed(seed, ENVS, ROUNDTRIP_CYCLES);
        report.seeds_run += 1;
        report.parse_ok += usize::from(outcome.parse_ok);
        report.elaborate_ok += usize::from(outcome.elaborate_ok);
        report.roundtrip_ok += usize::from(outcome.roundtrip_ok);
        if let Some(failure) = &outcome.failure {
            report.mismatches.push(failure.clone());
            continue;
        }
        // Layer 3: mapped-implementation agreement on a bounded prefix.
        if report.map_attempted >= map_cap {
            continue;
        }
        let Some(spec) = &outcome.spec else { continue };
        let arch = &archs[report.map_attempted % archs.len()];
        report.map_attempted += 1;
        match map_design(spec, Template::Dsp, arch, &config) {
            Ok(MapOutcome::Success(mapped)) => {
                report.map_success += 1;
                // The cache-replay convention: a mapped implementation owes
                // agreement from the spec's pipeline depth through the BMC
                // window (earlier cycles may differ while pipelines fill).
                let t = pipeline_depth(spec);
                match interp_equivalent(
                    spec,
                    &mapped.implementation,
                    seed,
                    ENVS,
                    t,
                    t + config.bmc_window,
                ) {
                    Ok(()) => report.map_agree += 1,
                    Err(e) => report.mismatches.push(format!(
                        "seed {seed} [{}]: mapped implementation disagrees with spec: {e}",
                        arch.name()
                    )),
                }
            }
            Ok(MapOutcome::Unsat { .. }) => report.map_unsat += 1,
            Ok(MapOutcome::Timeout { .. }) => report.map_timeout += 1,
            Err(e) => {
                let variant = match e {
                    MapError::Sketch(_) => 0,
                    MapError::Synthesis(_) => 1,
                    MapError::Frontend(_) => 2,
                };
                report.map_errors[variant] += 1;
            }
        }
    }
    report
}

/// Prints the summary, writes [`REPORT_PATH`], and reports gate failures.
///
/// # Errors
/// Returns the concatenated gate failures.
pub fn report_and_write(report: &FuzzReport) -> Result<(), String> {
    report.print_summary();
    report.record().save(REPORT_PATH);
    gate_result(report.gate_failures())
}

#[cfg(test)]
mod tests {
    use lr_serve::Json;

    use super::*;

    fn clean_report() -> FuzzReport {
        FuzzReport {
            scale: Scale::Quick,
            seeds_run: 10,
            parse_ok: 10,
            elaborate_ok: 10,
            roundtrip_ok: 10,
            map_attempted: 4,
            map_success: 2,
            map_unsat: 1,
            map_timeout: 1,
            map_errors: [0; 3],
            map_agree: 2,
            mismatches: Vec::new(),
        }
    }

    #[test]
    fn clean_runs_pass_the_gates() {
        let report = clean_report();
        assert!(report.gate_failures().is_empty());
        assert_eq!(
            report.record().json().get(&["invariants", "gates_pass"]),
            Some(&Json::Bool(true))
        );
    }

    #[test]
    fn any_mismatch_fails_the_gate() {
        let mut report = clean_report();
        report.mismatches.push("seed 7: round-trip mismatch: ...".to_string());
        report.roundtrip_ok = 9;
        let failures = report.gate_failures();
        assert_eq!(failures.len(), 2, "{failures:?}");
        let record = report.record().json();
        assert_eq!(record.get(&["invariants", "gates_pass"]), Some(&Json::Bool(false)));
        assert_eq!(record.get(&["invariants", "mismatch_count_is_zero"]), Some(&Json::Bool(false)));
    }

    #[test]
    fn disagreeing_mappings_fail_the_gate() {
        let mut report = clean_report();
        report.map_agree = 1;
        assert_eq!(report.gate_failures().len(), 1);
    }

    #[test]
    fn json_escaping_keeps_the_report_parseable() {
        let mut report = clean_report();
        let nasty = "quote \" backslash \\ newline \n done";
        report.mismatches.push(nasty.to_string());
        report.map_errors = [5, 1, 0];
        let doc = Json::parse(&report.record().json().render_pretty()).unwrap();
        let mismatches = doc.get(&["recorded", "mismatches"]).and_then(Json::as_arr).unwrap();
        assert_eq!(mismatches[0].as_str(), Some(nasty));
        // Every mapping error keeps its reason class.
        assert_eq!(doc.get(&["recorded", "map_error"]).and_then(Json::as_f64), Some(6.0));
        let sketch = doc.get(&["recorded", "map_errors", "sketch"]).and_then(Json::as_f64);
        assert_eq!(sketch, Some(5.0));
    }

    #[test]
    fn a_tiny_live_run_is_clean() {
        // 12 seeds, no mapping (cap 0 via the prefix bound being irrelevant at
        // this size): exercises the real pipeline without solver time.
        let mut report = FuzzReport::new(Scale::Quick);
        for seed in 0..12 {
            let outcome = lr_hdl::fuzz::check_seed(seed, 8, 4);
            report.seeds_run += 1;
            report.parse_ok += usize::from(outcome.parse_ok);
            report.elaborate_ok += usize::from(outcome.elaborate_ok);
            report.roundtrip_ok += usize::from(outcome.roundtrip_ok);
            if let Some(f) = outcome.failure {
                report.mismatches.push(f);
            }
        }
        assert!(report.gate_failures().is_empty(), "{:?}", report.gate_failures());
    }
}
