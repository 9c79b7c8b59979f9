//! Experiment E5 — §5.1 solver portfolio: which portfolio member finished first for
//! each terminating Lakeroad run (the paper's Bitwuzla/STP/Yices2/cvc5 counts).
//! Benchmarks are mapped one at a time, so every run races all four members.

use lr_bench::{print_portfolio, run_portfolio_sweep, Scale};

fn main() {
    let scale = Scale::from_args();
    println!("E5: solver portfolio win counts, {scale:?} scale");
    print_portfolio(&run_portfolio_sweep(scale));
}
