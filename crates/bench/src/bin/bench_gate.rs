//! The deterministic bench-regression gate.
//!
//! ```text
//! bench_gate [<baseline-dir>] [<fresh-dir>]
//! ```
//!
//! Compares every `BENCH_*.json` record in `<baseline-dir>` (default
//! `ci-baselines`) against the freshly emitted one of the same name in
//! `<fresh-dir>` (default `.`) and exits non-zero on any regression. Every
//! record has one schema: a `scale` and five sections, and the section a field
//! sits in the baseline is its rule — `exact` (must be equal), `at_most`
//! (within a 10% tolerance), `at_least` (must not drop), `invariants` (must be
//! true) and `recorded` (never compared; wall clocks live here). A gated field
//! missing from the fresh record fails. CI stashes the committed records into
//! the baseline directory before rerunning the sweeps, then runs this binary.

use std::path::Path;
use std::process::ExitCode;

use lr_bench::gate::run_gate;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") || args.len() > 2 {
        eprintln!("usage: bench_gate [<baseline-dir>] [<fresh-dir>]");
        return ExitCode::from(2);
    }
    let baseline_dir = args.first().map(String::as_str).unwrap_or("ci-baselines");
    let fresh_dir = args.get(1).map(String::as_str).unwrap_or(".");
    match run_gate(Path::new(baseline_dir), Path::new(fresh_dir)) {
        Ok(checked) => {
            if checked.is_empty() {
                eprintln!("bench_gate: no baselines found in `{baseline_dir}` — nothing gated");
            } else {
                println!(
                    "bench_gate: {} record(s) within tolerance of `{baseline_dir}`: {}",
                    checked.len(),
                    checked.join(", ")
                );
            }
            ExitCode::SUCCESS
        }
        Err(failures) => {
            eprintln!("bench_gate: {} regression(s) detected:", failures.len());
            for failure in failures {
                eprintln!("  - {failure}");
            }
            eprintln!(
                "(deterministic counters only; if this change is intentional, regenerate \
                 and commit the BENCH_*.json baselines)"
            );
            ExitCode::FAILURE
        }
    }
}
