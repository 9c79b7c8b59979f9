//! `netlist-cold`: the structural frontend. The committed AIG fixtures plus
//! seeded `random_aig` netlists are parsed and mapped by
//! `lr_serve::map_netlist` onto a 4-LUT device, each netlist with a fresh
//! `SynthCache`. A pass is hundreds of tiny Bitwise CEGIS jobs on the
//! scheduler, with cache writes and, for isomorphic cones, cache reads inside
//! the pass, then stitching and `verify_stitched`.

use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};

use lakeroad::{count_resources, MapConfig, MapOutcome};
use lr_aig::{
    parse_netlist, partition, random_aig, stitch, verify_stitched, Aig, ConeOptions, GenConfig,
};
use lr_arch::{ArchName, Architecture};
use lr_ir::Prog;
use lr_serve::scheduler::{run_batch, BatchOptions, JobRecord, JobResult};
use lr_serve::{cone_jobs, map_netlist, NetlistOptions, SynthCache};

use crate::span::{drain, timed};
use crate::util::{add_synthesis, fnv1a, ms, FailClass, Metrics, Pass, Rng};
use crate::{measure, setups, timed_pass, Config, Outcome, Scale, WORKERS};

const ARCH: ArchName = ArchName::IntelCyclone10Lp;

/// The committed fixtures, compiled in so the benchmark reads nothing at run
/// time.
const FIXTURES: [(&str, &[u8]); 3] = [
    ("c17.bench", include_bytes!("../../crates/bench/fixtures/aig/c17.bench")),
    ("rand_large.aag", include_bytes!("../../crates/bench/fixtures/aig/rand_large.aag")),
    ("rand_mid.aig", include_bytes!("../../crates/bench/fixtures/aig/rand_mid.aig")),
];

/// Seeded netlists added to the fixtures, all of one shape so only their
/// structure varies with the seed.
const GENERATED: usize = 2;
const GEN_SHAPE: GenConfig = GenConfig { inputs: 8, latches: 3, ands: 160, outputs: 6 };

/// One netlist as the benchmark feeds it in: its file name and bytes.
pub struct Source {
    pub name: String,
    pub bytes: Vec<u8>,
}

pub fn sources(seed: u64, scale: Scale) -> Vec<Source> {
    let mut rng = Rng::stream(seed, "netlist/generate");
    let mut out: Vec<Source> = FIXTURES
        .iter()
        .filter(|(name, _)| scale == Scale::Full || *name == "c17.bench")
        .map(|(name, bytes)| Source { name: name.to_string(), bytes: bytes.to_vec() })
        .collect();
    let (count, shape) = match scale {
        Scale::Full => (GENERATED, GEN_SHAPE),
        Scale::Tiny => (1, GenConfig { inputs: 5, latches: 2, ands: 24, outputs: 3 }),
    };
    for i in 0..count {
        let aig = random_aig(rng.next_u64(), &shape);
        out.push(Source { name: format!("gen{i}.aag"), bytes: aig.to_aag().into_bytes() });
    }
    out
}

fn parse(source: &Source) -> Result<Aig, String> {
    parse_netlist(&source.bytes, Some(&source.name))
        .map(|aig| aig.with_name(source.name.trim_end_matches(|c| c != '.').trim_end_matches('.')))
        .map_err(|e| format!("{}: {e}", source.name))
}

fn options(cache: &Arc<SynthCache>) -> NetlistOptions {
    let mut options = NetlistOptions::new(ARCH);
    options.workers = WORKERS;
    options.map = MapConfig::default().with_cache(Arc::<SynthCache>::clone(cache) as Arc<_>);
    options
}

/// Sorts a `map_netlist` error into a reason class.
fn classify(message: &str) -> FailClass {
    if message.contains("timeout") {
        FailClass::Timeout
    } else if message.contains("did not run") {
        FailClass::Lost
    } else if message.contains("disagrees") {
        FailClass::Mismatch
    } else {
        FailClass::Error
    }
}

/// One netlist's mapping: the parsed AIG, the stitched implementation and
/// the number of cones.
type Mapped = Result<(Aig, Prog, usize), String>;

/// Scores one netlist mapping: the benchmark's own simulation check, the
/// verdict line, and the reason class on failure.
fn score(pass: &mut Pass, source: &Source, mapped: Mapped, seed: u64) {
    pass.attempted += 1;
    let name = &source.name;
    let (aig, implementation, cones) = match mapped {
        Ok(mapped) => mapped,
        Err(e) => {
            pass.fail(classify(&e), format!("{name}: {e}"));
            pass.verdicts.push(format!("{name}: failed"));
            return;
        }
    };
    let r = count_resources(&implementation);
    match crate::check::netlist_matches(&aig, &implementation, seed) {
        Err(e) => pass.fail(FailClass::Mismatch, format!("{name}: {e}")),
        Ok(()) if r.registers != aig.num_latches() => pass.fail(
            FailClass::Mismatch,
            format!("{name}: {} register bits for {} latches", r.registers, aig.num_latches()),
        ),
        Ok(()) => {
            pass.mapped += 1;
            pass.cells += r.dsps + r.logic_elements;
        }
    }
    pass.verdicts
        .push(format!("{name}: mapped cones={cones} le={} reg={}", r.logic_elements, r.registers));
}

/// The untraced pass: parse and `map_netlist` each netlist.
fn untraced_pass(sources: &[Source], caches: &[Arc<SynthCache>], seed: u64) -> Pass {
    let mut pass = Pass::default();
    let mut mapped = Vec::new();
    let cone_latencies = Mutex::new(Vec::new());
    timed_pass(&mut pass, || {
        for (source, cache) in sources.iter().zip(caches) {
            let on_cone = |r: &JobRecord| cone_latencies.lock().unwrap().push(ms(r.elapsed));
            mapped.push(parse(source).and_then(|aig| {
                let report = map_netlist(&aig, &options(cache), on_cone)?;
                Ok((aig, report.implementation, report.cones))
            }));
        }
    });
    pass.latencies_ms = cone_latencies.into_inner().unwrap();
    for (source, mapped) in sources.iter().zip(mapped) {
        score(&mut pass, source, mapped, seed);
    }
    pass
}

/// `lr_serve::map_netlist` step by step, with a span around each crate's
/// public function and the scheduler's job records folded into `layers`.
fn map_traced(
    source: &Source,
    cache: &Arc<SynthCache>,
    layers: &mut Metrics,
    latencies: &mut Vec<f64>,
) -> Mapped {
    let aig = timed("lr_aig.parse", || parse(source))?;
    let options = options(cache);
    let arch = Architecture::load(options.arch_name);
    let cone_options =
        ConeOptions { max_leaves: arch.lut_size() as usize, max_ands: options.max_cone_ands };
    let part = timed("lr_aig.partition", || partition(&aig, &cone_options));
    let unique: BTreeSet<(u64, u64)> =
        part.cones.iter().map(|c| lakeroad::cache::spec_fingerprint(&c.spec)).collect();
    layers.add("lr_aig.cones", part.cones.len() as f64, "count");
    layers.add("lr_aig.unique_cones", unique.len() as f64, "count");

    let jobs = cone_jobs(&aig, &part, &arch);
    let run = timed("lr_serve.run_batch", || {
        run_batch(&jobs, &BatchOptions::new(options.workers, options.map.clone()))
    });
    let mut impls = Vec::with_capacity(run.records.len());
    let (mut busy, mut hits) = (0.0, 0);
    for record in &run.records {
        latencies.push(ms(record.elapsed));
        busy += ms(record.elapsed);
        layers.add("lr_serve.job_ms", ms(record.elapsed), "ms");
        layers.add(
            "lr_serve.queue_wait_ms",
            ms(record.completed_at.saturating_sub(record.elapsed)),
            "ms",
        );
        match &record.result {
            JobResult::Finished(outcome) => {
                add_synthesis(layers, outcome.stats(), true);
                if outcome.served_from_cache() {
                    hits += 1;
                    layers.add("lakeroad.replay_ms", ms(record.elapsed), "ms");
                }
                match outcome {
                    MapOutcome::Success(m) => impls.push(m.implementation.clone()),
                    MapOutcome::Unsat { .. } => {
                        return Err(format!("cone `{}` did not map: UNSAT", record.name))
                    }
                    MapOutcome::Timeout { .. } => {
                        return Err(format!("cone `{}` did not map: timeout", record.name))
                    }
                }
            }
            JobResult::Error(e) => return Err(format!("cone `{}` did not map: {e}", record.name)),
            JobResult::DeadlineExpired | JobResult::Cancelled => {
                return Err(format!("cone `{}` did not run", record.name));
            }
        }
    }
    layers.add("lr_serve.steals", run.steals as f64, "count");
    layers.add("bench.cone_jobs", run.records.len() as f64, "count");
    layers.add("bench.cache_hits", f64::from(hits), "count");
    layers.add("bench.busy_ms", busy, "ms");
    layers.add("bench.capacity_ms", ms(run.wall) * run.workers as f64, "ms");

    let implementation = timed("lr_aig.stitch", || stitch(&aig, &part, &impls));
    let verify = timed("lr_aig.verify", || {
        verify_stitched(
            &aig,
            &implementation,
            options.verify_seed,
            options.verify_environments,
            options.verify_cycles,
        )
    })?;
    if !verify.passed() {
        return Err(format!(
            "stitched design disagrees with the netlist: {} mismatched bits",
            verify.mismatches
        ));
    }
    layers.add(
        "lr_aig.verify_bits",
        (verify.environments * verify.cycles * aig.outputs().len()) as f64,
        "count",
    );
    timed("lakeroad.emit", || lr_hdl::emit_verilog(&implementation));
    Ok((aig, implementation, part.cones.len()))
}

fn traced_pass(
    sources: &[Source],
    caches: &[Arc<SynthCache>],
    seed: u64,
    layers: &mut Metrics,
) -> Pass {
    let mut pass = Pass::default();
    let mut mapped = Vec::new();
    let mut latencies = Vec::new();
    drain();
    timed_pass(&mut pass, || {
        for (source, cache) in sources.iter().zip(caches) {
            mapped.push(map_traced(source, cache, layers, &mut latencies));
        }
    });
    pass.latencies_ms = latencies;
    for (name, self_time) in drain() {
        layers.add(format!("{name}_ms"), ms(self_time), "ms");
    }
    for (source, mapped) in sources.iter().zip(mapped) {
        score(&mut pass, source, mapped, seed);
    }
    let get = |m: &Metrics, k: &str| m.0.get(k).map_or(0.0, |v| v.0);
    let jobs = get(layers, "bench.cone_jobs").max(1.0);
    layers.set("lakeroad.cache_hit_ratio", get(layers, "bench.cache_hits") / jobs, "fraction");
    layers.set(
        "lr_serve.busy_fraction",
        get(layers, "bench.busy_ms") / get(layers, "bench.capacity_ms").max(1e-9),
        "fraction",
    );
    layers.set("lr_aig.logic_elements", pass.cells as f64, "count");
    pass
}

/// A fresh, empty cache per netlist.
fn caches(sources: &[Source]) -> Vec<Arc<SynthCache>> {
    sources.iter().map(|_| Arc::new(SynthCache::new())).collect()
}

pub fn run(config: &Config) -> Result<Outcome, String> {
    let seed = config.seed;
    let (setup, mut states) = setups(|| Ok(sources(seed, config.scale)))?;
    let sources = states.pop().expect("at least one set-up");
    let digest = fnv1a(&sources.iter().flat_map(|s| s.bytes.iter().copied()).collect::<Vec<u8>>());
    print_mix(&sources);
    if config.trace {
        let mut layers = Metrics::default();
        let untraced = untraced_pass(&sources, &caches(&sources), seed);
        let traced = traced_pass(&sources, &caches(&sources), seed, &mut layers);
        return Ok(Outcome {
            setup,
            passes: vec![untraced],
            traced: Some(traced),
            layers,
            inputs_digest: digest,
        });
    }
    let passes = measure(config.seconds, |_| Ok(untraced_pass(&sources, &caches(&sources), seed)))?;
    Ok(Outcome { setup, passes, traced: None, layers: Metrics::default(), inputs_digest: digest })
}

/// Prints the input property an optimisation depends on: the share of unique
/// cones among all cones, per netlist.
fn print_mix(sources: &[Source]) {
    let arch = Architecture::load(ARCH);
    let cone_options = ConeOptions {
        max_leaves: arch.lut_size() as usize,
        max_ands: NetlistOptions::new(ARCH).max_cone_ands,
    };
    for source in sources {
        let Ok(aig) = parse(source) else { continue };
        let part = partition(&aig, &cone_options);
        let unique: BTreeSet<(u64, u64)> =
            part.cones.iter().map(|c| lakeroad::cache::spec_fingerprint(&c.spec)).collect();
        println!(
            "netlist mix: {}: {} ANDs, {} latches, {} cones, {} unique ({:.0}%)",
            source.name,
            aig.num_ands(),
            aig.num_latches(),
            part.cones.len(),
            unique.len(),
            100.0 * unique.len() as f64 / part.cones.len().max(1) as f64
        );
    }
}
