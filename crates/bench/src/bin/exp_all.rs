//! Runs every experiment and prints every table/figure of the paper's evaluation.
//! Scale is selected with `--quick` (default), `--smoke`, or `--full`.
//!
//! The completeness sweeps run their independent mapping jobs on the `lr_serve`
//! work-stealing scheduler; `--jobs <N>` picks the worker count (default: the
//! machine's parallelism), which is also the sweep's whole thread budget: each
//! scheduled job runs one portfolio member. For jobs that finish within their
//! budget, verdicts, resources, and tallies are identical at any worker count —
//! per-job wall times are measured under whatever CPU contention the workers
//! create, and a job running close to its wall-clock budget can flip to a
//! timeout under that contention, so use `--jobs 1` for contention-free Figure 6
//! timings. Figure 7 and the portfolio paragraph come from a second sweep that
//! maps one benchmark at a time, so every run there races all four members, as
//! in the paper.

use lr_arch::Architecture;
use lr_bench::{
    cegis::{report_and_write, run_cegis_comparison},
    print_completeness, print_extensibility, print_histogram, print_portfolio,
    print_primitives_table, print_resources, run_all, run_portfolio_sweep, Scale,
};

fn main() {
    let scale = Scale::from_args();
    println!(
        "Lakeroad reproduction: full evaluation at {scale:?} scale ({} scheduler workers)",
        Scale::workers_from_args()
    );
    let results = run_all(scale);
    let races = run_portfolio_sweep(scale);
    // Both sweeps cover `Architecture::with_dsps()`, in its order.
    for ((name, arch_results), (_, arch_races)) in results.iter().zip(&races) {
        let arch = Architecture::load(*name);
        print_completeness(&arch, arch_results);
        print_histogram(&arch, arch_races, scale.timeout(*name));
        print_resources(&arch, arch_results);
    }
    print_portfolio(&races);
    print_primitives_table();
    print_extensibility();

    // Incremental-CEGIS perf tracking: rerun the sweep single-solver in both modes
    // and leave a machine-readable record next to the textual report.
    report_and_write(&run_cegis_comparison(scale));
}
