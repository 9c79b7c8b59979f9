//! `dsp-suite`: the paper's headline experiment (§5.1, Figure 6) on a seeded,
//! stratified draw of the microbenchmark suites, mapped with `Template::Dsp`
//! through the batch scheduler with no cache.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use lakeroad::suite::{full_suite, Microbenchmark};
use lakeroad::{count_resources, generate_sketch, pipeline_depth, MapConfig, MapOutcome, Template};
use lr_arch::{ArchName, Architecture};
use lr_ir::Prog;
use lr_serve::scheduler::{run_batch, BatchJob, BatchOptions, JobResult, TemplateChoice};
use lr_synth::portfolio::synthesize_portfolio_with;
use lr_synth::{SolverConfig, SynthesisConfig, SynthesisOutcome, SynthesisTask};

use crate::span::{drain, span, timed};
use crate::util::{add_synthesis, fnv1a, ms, FailClass, Metrics, Pass, Rng};
use crate::{measure, setups, timed_pass, Config, Outcome, Scale, WORKERS};

/// Per-design synthesis budget: far above the slowest design (about 1 s), so
/// verdicts do not flip on a slower machine.
pub const TIMEOUT: Duration = Duration::from_secs(30);

/// Designs drawn per (shape, stages) cell of each architecture's suite.
const PER_CELL: [(ArchName, usize); 3] = [
    (ArchName::XilinxUltraScalePlus, 1),
    (ArchName::LatticeEcp5, 3),
    (ArchName::IntelCyclone10Lp, 11),
];

/// One drawn design, built once.
pub struct Design {
    pub bench: Microbenchmark,
    pub spec: Prog,
    pub arch: Architecture,
}

impl Design {
    pub fn label(&self) -> String {
        format!("{}@{}", self.bench.name, self.bench.architecture)
    }
}

/// The seeded draw: for every architecture, the suite's (shape, stages) cells
/// in a seeded order, each given `PER_CELL` widths dealt round-robin from a
/// seeded offset. Every width from 8 to 18 therefore appears equally often
/// (to within one) on every architecture whatever the seed, which keeps the
/// run's cost steady across seeds; the seed decides which shape meets which
/// width, and the signedness.
pub fn draw(seed: u64, scale: Scale) -> Vec<Microbenchmark> {
    let mut rng = Rng::stream(seed, "dsp-suite/draw");
    let mut out = Vec::new();
    for (arch, per_cell) in PER_CELL {
        let suite = full_suite(arch);
        let mut cells: Vec<(String, u32)> = Vec::new();
        for m in &suite {
            let cell = (format!("{:?}", m.shape), m.stages);
            if !cells.contains(&cell) {
                cells.push(cell);
            }
        }
        rng.shuffle(&mut cells);
        let offset = rng.below(11);
        for (i, (shape, stages)) in cells.iter().enumerate() {
            for k in 0..per_cell {
                let width = 8 + ((i * per_cell + k + offset) % 11) as u32;
                let signed = rng.below(2) == 1;
                let pick = suite.iter().find(|m| {
                    format!("{:?}", m.shape) == *shape
                        && m.stages == *stages
                        && m.width == width
                        && m.signed == signed
                });
                out.extend(pick.cloned());
            }
        }
    }
    if scale == Scale::Tiny {
        out.retain(|m| m.width <= 9);
        out.truncate(6);
    }
    out
}

pub fn build(benches: &[Microbenchmark]) -> Vec<Design> {
    benches
        .iter()
        .map(|b| Design {
            spec: b.build(),
            arch: Architecture::load(b.architecture),
            bench: b.clone(),
        })
        .collect()
}

pub fn map_config() -> MapConfig {
    MapConfig::default().with_timeout(TIMEOUT)
}

/// Scores one finished mapping into the pass: independent check, verdict
/// line, reason class on failure.
fn score(pass: &mut Pass, design: &Design, outcome: Result<&MapOutcome, &str>, seed: u64) {
    pass.attempted += 1;
    let label = design.label();
    let line = match outcome {
        Ok(MapOutcome::Success(m)) => {
            let r = m.resources;
            if let Err(e) = crate::check::equal_over_window(
                &design.spec,
                &m.implementation,
                map_config().bmc_window,
                seed,
            ) {
                pass.fail(FailClass::Mismatch, format!("{label}: {e}"));
            } else if r.is_single_dsp() {
                pass.mapped += 1;
                pass.cells += r.dsps + r.logic_elements;
            }
            format!("{label}: success dsp={} le={} reg={}", r.dsps, r.logic_elements, r.registers)
        }
        Ok(MapOutcome::Unsat { .. }) => format!("{label}: unsat"),
        Ok(MapOutcome::Timeout { .. }) => {
            pass.fail(FailClass::Timeout, format!("{label}: no verdict within {TIMEOUT:?}"));
            format!("{label}: timeout")
        }
        Err(e) => {
            pass.fail(FailClass::Error, format!("{label}: {e}"));
            format!("{label}: error")
        }
    };
    pass.verdicts.push(line);
}

/// The untraced pass: one batch through `lr_serve::run_batch`.
fn untraced_pass(designs: &[Design], seed: u64) -> Pass {
    let jobs: Vec<BatchJob> = designs
        .iter()
        .map(|d| {
            BatchJob::new(
                d.label(),
                d.spec.clone(),
                d.arch.clone(),
                TemplateChoice::Named(Template::Dsp),
            )
        })
        .collect();
    let options = BatchOptions::new(WORKERS, map_config());
    let mut pass = Pass::default();
    let run = timed_pass(&mut pass, || run_batch(&jobs, &options));
    for (record, design) in run.records.iter().zip(designs) {
        pass.latencies_ms.push(ms(record.elapsed));
        match &record.result {
            JobResult::Finished(outcome) => score(&mut pass, design, Ok(outcome), seed),
            JobResult::Error(e) => score(&mut pass, design, Err(e), seed),
            JobResult::DeadlineExpired | JobResult::Cancelled => {
                pass.attempted += 1;
                pass.fail(FailClass::Lost, format!("{}: never ran", design.label()));
                pass.verdicts.push(format!("{}: lost", design.label()));
            }
        }
    }
    pass
}

/// `lakeroad::map_design` step by step, with a span around each crate's
/// public function.
fn map_traced(design: &Design, config: &MapConfig) -> Result<MapOutcome, String> {
    let _sp = span("lakeroad.map");
    let spec = timed("lr_ir.saturate", || design.spec.saturated());
    let sketch =
        timed("lr_sketch.generate", || generate_sketch(Template::Dsp, &design.arch, &spec))
            .map_err(|e| format!("sketch generation failed: {e}"))?;
    let task = SynthesisTask::over_window(&spec, &sketch, pipeline_depth(&spec), config.bmc_window);
    let synth_config = SynthesisConfig {
        solver: SolverConfig::default(),
        max_iterations: config.max_iterations,
        timeout: Some(config.timeout),
        incremental: config.incremental,
        egraph: config.egraph,
        ..Default::default()
    };
    let result = timed("lr_synth.cegis", || {
        synthesize_portfolio_with(&task, &synth_config, &config.solvers)
    })
    .map_err(|e| format!("synthesis failed: {e}"))?;
    let winner = result.winner.clone();
    Ok(match result.outcome {
        SynthesisOutcome::Success(s) => timed("lakeroad.emit", || {
            let implementation =
                s.implementation.simplified().with_name(format!("{}_impl", spec.name()));
            let resources = count_resources(&implementation);
            let verilog = lr_hdl::emit_verilog(&implementation);
            MapOutcome::Success(Box::new(lakeroad::MappedDesign {
                implementation,
                verilog,
                resources,
                elapsed: s.stats.elapsed,
                winning_solver: winner,
                iterations: s.stats.iterations,
                from_cache: false,
                stats: s.stats,
            }))
        }),
        SynthesisOutcome::Unsat { stats } => MapOutcome::Unsat {
            elapsed: stats.elapsed,
            winning_solver: winner,
            from_cache: false,
            stats: Box::new(stats),
        },
        SynthesisOutcome::Timeout { stats } => {
            MapOutcome::Timeout { elapsed: stats.elapsed, stats: Box::new(stats) }
        }
    })
}

/// The traced pass: the same designs on [`WORKERS`] threads pulling from a
/// shared index, each mapped by [`map_traced`].
fn traced_pass(designs: &[Design], seed: u64, layers: &mut Metrics) -> Pass {
    let config = map_config();
    let next = AtomicUsize::new(0);
    type Mapped = (Result<MapOutcome, String>, Duration);
    let results: Mutex<Vec<Option<Mapped>>> = Mutex::new(designs.iter().map(|_| None).collect());
    let mut pass = Pass::default();
    drain();
    timed_pass(&mut pass, || {
        std::thread::scope(|scope| {
            for _ in 0..WORKERS {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(design) = designs.get(i) else { return };
                    let start = Instant::now();
                    let outcome = map_traced(design, &config);
                    results.lock().unwrap()[i] = Some((outcome, start.elapsed()));
                });
            }
        });
    });
    for (name, self_time) in drain() {
        layers.add(format!("{name}_ms"), ms(self_time), "ms");
    }
    for (slot, design) in results.into_inner().unwrap().into_iter().zip(designs) {
        let (outcome, elapsed) = slot.expect("every design is mapped");
        pass.latencies_ms.push(ms(elapsed));
        if let Ok(outcome) = &outcome {
            add_synthesis(layers, outcome.stats(), false);
        }
        score(&mut pass, design, outcome.as_ref().map_err(String::as_str), seed);
    }
    layers.set("lakeroad.single_dsp_mappings", pass.mapped as f64, "count");
    pass
}

pub fn run(config: &Config) -> Result<Outcome, String> {
    let seed = config.seed;
    let (setup, mut states) = setups(|| {
        let designs = build(&draw(seed, config.scale));
        if designs.is_empty() {
            return Err("the draw produced no designs".to_string());
        }
        Ok(designs)
    })?;
    let designs = states.pop().expect("at least one set-up");
    let digest = fnv1a(designs.iter().map(Design::label).collect::<Vec<_>>().join(",").as_bytes());
    print_mix(&designs);
    if config.trace {
        let mut layers = Metrics::default();
        let untraced = untraced_pass(&designs, seed);
        let traced = traced_pass(&designs, seed, &mut layers);
        return Ok(Outcome {
            setup,
            passes: vec![untraced],
            traced: Some(traced),
            layers,
            inputs_digest: digest,
        });
    }
    let passes = measure(config.seconds, |_| Ok(untraced_pass(&designs, seed)))?;
    let unsat: Vec<&str> =
        passes[0].verdicts.iter().filter_map(|v| v.strip_suffix(": unsat")).collect();
    println!("dsp-suite UNSAT verdicts ({}): {}", unsat.len(), unsat.join(" "));
    Ok(Outcome { setup, passes, traced: None, layers: Metrics::default(), inputs_digest: digest })
}

/// Prints the input properties an optimisation depends on: the architecture
/// and width mix.
fn print_mix(designs: &[Design]) {
    for arch in [ArchName::XilinxUltraScalePlus, ArchName::LatticeEcp5, ArchName::IntelCyclone10Lp]
    {
        let widths: Vec<u32> = designs
            .iter()
            .filter(|d| d.bench.architecture == arch)
            .map(|d| d.bench.width)
            .collect();
        let histogram: Vec<String> =
            (8..=18).map(|w| widths.iter().filter(|&&x| x == w).count().to_string()).collect();
        println!(
            "dsp-suite mix: {arch}: {} designs, widths 8..18 = [{}]",
            widths.len(),
            histogram.join(" ")
        );
    }
}
