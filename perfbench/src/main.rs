//! `perfbench`: the repository's end-to-end benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <dsp-suite|netlist-cold|daemon-mixed> \
//!     --seed <n> --seconds <s> --trace <0|1> [--scale full|tiny]
//! ```
//!
//! Every input is drawn from `--seed`. A run sets the workload up several
//! times (reporting the median as `setup_s`), then repeats passes over the
//! same inputs until `--seconds` have elapsed. Every output is checked by the
//! benchmark's own code, independently of the mapper (see [`check`]). The last
//! line of standard output is one JSON object:
//!
//! * `--trace 0` reports the end-to-end metrics of `BENCHMARK.json`;
//! * `--trace 1` runs one untraced and one traced pass over identical inputs,
//!   requires their verdicts and resources to agree, and reports the
//!   per-layer metrics: self times of the benchmark's own spans around each
//!   crate's public functions, work counters from the returned statistics,
//!   and the tracing overhead.
//!
//! Concurrency is sized for a 2-core machine: 2 scheduler workers, 2 daemon
//! workers, and 2 daemon clients.

mod check;
mod daemon;
mod dsp;
mod netlist;
mod span;
mod util;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use lr_serve::Json;

use util::{cpu_seconds, median, peak_rss_mb, quantile, FailClass, HeapSampler, Metrics, Pass};

/// Scheduler workers, daemon workers and daemon clients.
pub const WORKERS: usize = 2;

/// A run sets its workload up at least this many times, and keeps setting
/// it up until [`SETUP_BUDGET`] is spent (at most [`MAX_SETUPS`] times), so
/// that a set-up of a few milliseconds still has a steady median.
const SETUPS: usize = 3;
const MAX_SETUPS: usize = 50;
const SETUP_BUDGET: Duration = Duration::from_secs(1);

/// Input size: `Full` is the benchmark; `Tiny` keeps every code path at a
/// fraction of the cost, for the benchmark's own tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

#[derive(Debug, Clone)]
pub struct Config {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
}

/// What a workload hands back: set-up times, the measured passes, and for
/// traced runs the per-layer metrics and the traced pass.
pub struct Outcome {
    pub setup: Vec<Duration>,
    /// Untraced passes (with `--trace 1`, exactly one).
    pub passes: Vec<Pass>,
    /// With `--trace 1`: the traced pass over the same inputs as `passes[0]`.
    pub traced: Option<Pass>,
    /// With `--trace 1`: the workload's per-layer metrics.
    pub layers: Metrics,
    /// Digest of the seeded inputs, printed so determinism can be checked.
    pub inputs_digest: u64,
}

/// Every per-layer metric, with its unit. A traced run prints all of them;
/// layers a workload does not exercise read 0.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("lr_ir.saturate_ms", "ms"),
    ("lr_sketch.generate_ms", "ms"),
    ("lakeroad.emit_ms", "ms"),
    ("lakeroad.single_dsp_mappings", "count"),
    ("lr_synth.cegis_ms", "ms"),
    ("lr_synth.iterations", "count"),
    ("lr_synth.examples", "count"),
    ("lr_synth.egraph_folds", "count"),
    ("lr_synth.winner.bitblaze", "count"),
    ("lr_synth.winner.stipple", "count"),
    ("lr_synth.winner.yolanda", "count"),
    ("lr_synth.winner.cinqve", "count"),
    ("lr_synth.winner.other", "count"),
    ("lr_sat.conflicts", "count"),
    ("lr_sat.propagations", "count"),
    ("lr_serve.job_ms", "ms"),
    ("lr_serve.queue_wait_ms", "ms"),
    ("lr_serve.busy_fraction", "fraction"),
    ("lr_serve.steals", "count"),
    ("lakeroad.cache_hit_ratio", "fraction"),
    ("lakeroad.replay_ms", "ms"),
    ("lr_aig.parse_ms", "ms"),
    ("lr_aig.partition_ms", "ms"),
    ("lr_aig.cones", "count"),
    ("lr_aig.unique_cones", "count"),
    ("lr_aig.stitch_ms", "ms"),
    ("lr_aig.verify_ms", "ms"),
    ("lr_aig.verify_bits", "count"),
    ("lr_aig.logic_elements", "count"),
    ("lr_hdl.elaborate_ms", "ms"),
    ("lr_serve.daemon_server_ms_p50", "ms"),
    ("lr_serve.daemon_queue_wait_ms_p50", "ms"),
    ("lr_serve.daemon_transport_ms_p50", "ms"),
    ("lr_serve.daemon_rejected", "count"),
    ("trace.untraced_wall_s", "s"),
    ("trace.traced_wall_s", "s"),
    ("trace.overhead_s", "s"),
];

/// Sets a workload up repeatedly (see [`SETUPS`]), timing each set-up, and
/// keeps the last two states (a traced run needs two identical ones).
pub fn setups<S>(
    mut setup: impl FnMut() -> Result<S, String>,
) -> Result<(Vec<Duration>, Vec<S>), String> {
    let mut times: Vec<Duration> = Vec::new();
    let mut states = Vec::new();
    while times.len() < SETUPS
        || (times.iter().sum::<Duration>() < SETUP_BUDGET && times.len() < MAX_SETUPS)
    {
        let start = Instant::now();
        states.push(setup()?);
        times.push(start.elapsed());
        if states.len() > 2 {
            states.remove(0);
        }
    }
    Ok((times, states))
}

/// Runs passes until `seconds` have elapsed (at least one).
pub fn measure(
    seconds: f64,
    mut pass: impl FnMut(usize) -> Result<Pass, String>,
) -> Result<Vec<Pass>, String> {
    let start = Instant::now();
    let mut passes = Vec::new();
    loop {
        passes.push(pass(passes.len())?);
        if start.elapsed().as_secs_f64() >= seconds {
            return Ok(passes);
        }
    }
}

/// Times `f`, the process CPU it burns and the heap it holds, storing all
/// three into the pass.
pub fn timed_pass<T>(pass: &mut Pass, f: impl FnOnce() -> T) -> T {
    let sampler = HeapSampler::start();
    let (cpu0, start) = (cpu_seconds(), Instant::now());
    let out = f();
    pass.wall = start.elapsed();
    pass.cpu_s = cpu_seconds() - cpu0;
    pass.heap_p90_mb = sampler.stop();
    out
}

fn parse_args() -> Result<Config, String> {
    let mut config = Config {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        scale: Scale::Full,
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => config.workload = value()?.clone(),
            "--seed" => config.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                config.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                config.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                };
            }
            "--scale" => {
                config.scale = match value()?.as_str() {
                    "full" => Scale::Full,
                    "tiny" => Scale::Tiny,
                    other => return Err(format!("--scale takes full or tiny, not `{other}`")),
                };
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(config)
}

/// Folds the passes into the printed result.
fn report(config: &Config, outcome: &Outcome) -> (bool, usize, usize, Metrics) {
    let all: Vec<&Pass> = outcome.passes.iter().chain(&outcome.traced).collect();
    let attempted: usize = all.iter().map(|p| p.attempted).sum();
    let failures: Vec<&(FailClass, String)> = all.iter().flat_map(|p| &p.failures).collect();
    let mut correct = !failures.iter().any(|(class, _)| *class == FailClass::Mismatch);

    let classes: Vec<String> = FailClass::ALL
        .iter()
        .map(|c| format!("{}={}", c.name(), failures.iter().filter(|(f, _)| f == c).count()))
        .collect();
    println!("failures: {}", classes.join(" "));
    for (class, message) in failures.iter().take(20) {
        println!("  [{}] {message}", class.name());
    }
    println!("inputs digest: {:016x}", outcome.inputs_digest);
    println!("verdicts digest: {:016x}", outcome.passes[0].verdict_digest());

    let mut metrics = Metrics::default();
    if let Some(traced) = &outcome.traced {
        let untraced = &outcome.passes[0];
        if traced.verdicts != untraced.verdicts {
            correct = false;
            println!("traced and untraced verdicts differ");
            for (a, b) in
                untraced.verdicts.iter().zip(&traced.verdicts).filter(|(a, b)| a != b).take(5)
            {
                println!("  untraced `{a}` vs traced `{b}`");
            }
        }
        for &(name, unit) in LAYER_METRICS {
            let value = outcome.layers.0.get(name).map_or(0.0, |&(v, _)| v);
            metrics.set(name, value, unit);
        }
        let (u, t) = (untraced.wall.as_secs_f64(), traced.wall.as_secs_f64());
        metrics.set("trace.untraced_wall_s", u, "s");
        metrics.set("trace.traced_wall_s", t, "s");
        metrics.set("trace.overhead_s", t - u, "s");
        println!("tracing overhead: {:+.3} s ({:+.1}%)", t - u, 100.0 * (t - u) / u.max(1e-9));
    } else {
        let passes = &outcome.passes;
        let walls: Vec<f64> = passes.iter().map(|p| p.wall.as_secs_f64()).collect();
        let cpus: Vec<f64> = passes.iter().map(|p| p.cpu_s).collect();
        let setup: Vec<f64> = outcome.setup.iter().map(Duration::as_secs_f64).collect();
        let lat: Vec<f64> = passes.iter().flat_map(|p| p.latencies_ms.iter().copied()).collect();
        let mapped: usize = passes.iter().map(|p| p.mapped).sum();
        let cells: usize = passes.iter().map(|p| p.cells).sum();
        let ops: usize = passes.iter().map(|p| p.attempted).sum::<usize>().max(1);
        metrics.set("setup_s", median(&setup), "s");
        metrics.set("wall_s", median(&walls), "s");
        metrics.set("latency_p50_ms", quantile(&lat, 0.5), "ms");
        metrics.set("latency_p90_ms", quantile(&lat, 0.9), "ms");
        metrics.set("cpu_s", median(&cpus), "s");
        let heaps: Vec<f64> = passes.iter().map(|p| p.heap_p90_mb).collect();
        metrics.set("heap_p90_mb", median(&heaps), "MB");
        metrics.set("mapped_fraction", mapped as f64 / ops as f64, "fraction");
        metrics.set("cells_per_mapping", cells as f64 / mapped.max(1) as f64, "count");
        metrics.set("ok_fraction", 1.0 - failures.len() as f64 / ops as f64, "fraction");
        println!(
            "{}: seed {}, {} cores, {} passes of {:?} s, {} latency samples, peak RSS {:.1} MB",
            config.workload,
            config.seed,
            std::thread::available_parallelism().map_or(0, usize::from),
            passes.len(),
            walls.iter().map(|w| (w * 1e3).round() / 1e3).collect::<Vec<_>>(),
            lat.len(),
            peak_rss_mb()
        );
    }
    (correct, attempted.max(1), failures.len(), metrics)
}

fn render_result(correct: bool, attempted: usize, failed: usize, metrics: &Metrics) -> String {
    let metrics = metrics
        .0
        .iter()
        .map(|(name, &(value, unit))| {
            let value = if value.is_finite() { value } else { 0.0 };
            (name.clone(), Json::obj([("value", Json::num(value)), ("unit", Json::str(unit))]))
        })
        .collect();
    Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::num(attempted as f64)),
        ("failed", Json::num(failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ])
    .render()
}

fn main() -> ExitCode {
    let config = match parse_args() {
        Ok(config) => config,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match config.workload.as_str() {
        "dsp-suite" => dsp::run(&config),
        "netlist-cold" => netlist::run(&config),
        "daemon-mixed" => daemon::run(&config),
        other => Err(format!("unknown workload `{other}` (dsp-suite, netlist-cold, daemon-mixed)")),
    };
    match outcome {
        Ok(outcome) => {
            let (correct, attempted, failed, metrics) = report(&config, &outcome);
            println!("{}", render_result(correct, attempted, failed, &metrics));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
