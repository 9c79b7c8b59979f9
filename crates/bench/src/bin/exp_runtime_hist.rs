//! Experiment E3 — Figure 7: histogram of Lakeroad synthesis runtimes per
//! architecture, with the timeout threshold marked. Benchmarks are mapped one
//! at a time, so every run races all four portfolio members, as in the paper.

use lr_arch::Architecture;
use lr_bench::{print_histogram, run_portfolio_sweep, Scale};

fn main() {
    let scale = Scale::from_args();
    println!("E3 (Figure 7): synthesis runtime histograms, {scale:?} scale");
    for (name, races) in run_portfolio_sweep(scale) {
        print_histogram(&Architecture::load(name), &races, scale.timeout(name));
    }
}
