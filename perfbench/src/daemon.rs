//! `daemon-mixed`: a closed loop of two clients against an in-process
//! `lr_serve::Daemon` over TCP. Requests carry Verilog text made with
//! `lr_hdl::emit_verilog` from suite designs. Nine in ten repeat designs the
//! set-up pre-warmed (cache reads); one in ten is a design the daemon has not
//! seen (synthesis and a cache write). The median latency shows the hit path;
//! the tail shows the misses.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use lakeroad::suite::{full_suite, Microbenchmark};
use lr_arch::{ArchName, Architecture};
use lr_serve::{Daemon, DaemonClient, DaemonConfig, Json};

use crate::span::{drain, timed};
use crate::util::{fnv1a, median, ms, FailClass, Metrics, Pass, Rng};
use crate::{measure, setups, Config, Outcome, Scale, WORKERS};

/// Designs pre-warmed during set-up, per architecture.
const WARM: [(ArchName, usize); 3] = [
    (ArchName::XilinxUltraScalePlus, 6),
    (ArchName::LatticeEcp5, 4),
    (ArchName::IntelCyclone10Lp, 2),
];
/// Requests per pass, and how many of them are designs not seen before. One
/// in five rather than one in ten: with a tenth, the 90th percentile would
/// sit on the boundary between hits and misses and jump between the two;
/// with a fifth it is the median miss.
const REQUESTS: usize = 120;
const MISSES: usize = 24;
/// The daemon's cache capacity (its default); far above the distinct designs
/// a run sends, so nothing is evicted.
const CACHE_CAPACITY: usize = 4096;

/// One suite design as a request: its label, architecture and Verilog text.
#[derive(Clone)]
struct Request {
    label: String,
    arch: ArchName,
    bench: Microbenchmark,
    verilog: String,
}

impl Request {
    fn new(bench: &Microbenchmark) -> Request {
        Request {
            label: format!("{}@{}", bench.name, bench.architecture),
            arch: bench.architecture,
            verilog: lr_hdl::emit_verilog(&bench.build()),
            bench: bench.clone(),
        }
    }

    fn payload(&self, id: usize) -> String {
        let arch = match self.arch {
            ArchName::XilinxUltraScalePlus => "xilinx",
            ArchName::LatticeEcp5 => "lattice",
            ArchName::IntelCyclone10Lp => "intel",
            ArchName::Sofa => "sofa",
        };
        Json::obj([
            ("kind", Json::str("map")),
            ("id", Json::num(id as f64)),
            ("arch", Json::str(arch)),
            ("template", Json::str("dsp")),
            ("verilog", Json::str(self.verilog.as_str())),
        ])
        .render()
    }
}

/// The seeded design pools: the warm set, and the misses in the order
/// passes use them. Signed variants are left out, since they build the same
/// program as their unsigned twins and would hit the cache. Designs keep to
/// the 0-2 pipeline stages all three architectures offer, so every request
/// has a mapping and the mapped share does not swing with the seed; the DSP
/// suite workload covers the fourth Xilinx stage. Misses alternate between
/// Xilinx and Lattice and cycle through the widths 8-18, so a pass's
/// synthesis work is much the same whatever the seed.
fn pools(seed: u64, scale: Scale) -> (Vec<Microbenchmark>, Vec<Microbenchmark>) {
    let mut rng = Rng::stream(seed, "daemon/pools");
    let mut warm = Vec::new();
    // Unused designs by architecture (in `WARM` order) and width.
    let mut buckets: Vec<BTreeMap<u32, Vec<Microbenchmark>>> = vec![BTreeMap::new(); WARM.len()];
    for (a, (arch, count)) in WARM.into_iter().enumerate() {
        let mut suite: Vec<Microbenchmark> = full_suite(arch)
            .into_iter()
            .filter(|m| !m.signed && m.stages <= 2 && (scale == Scale::Full || m.width <= 9))
            .collect();
        rng.shuffle(&mut suite);
        let count = if scale == Scale::Full { count } else { 1 };
        for m in suite.split_off(count) {
            buckets[a].entry(m.width).or_default().push(m);
        }
        warm.extend(suite);
    }
    let widths = if scale == Scale::Full { 11 } else { 2 };
    let offset = rng.below(widths);
    let mut misses = Vec::new();
    for j in 0.. {
        let width = 8 + ((j / 2 + offset) % widths) as u32;
        let Some(bucket) = buckets[j % 2].get_mut(&width).filter(|b| !b.is_empty()) else { break };
        misses.push(bucket.remove(0));
    }
    (warm, misses)
}

/// The request schedule of pass `index`: picks from the warm set, with the
/// pass's own fresh designs at seeded positions.
fn schedule(
    seed: u64,
    index: usize,
    warm: &[Request],
    misses: &[Request],
    scale: Scale,
) -> Vec<Request> {
    let mut rng = Rng::stream(seed ^ index as u64, "daemon/schedule");
    let (total, fresh) = if scale == Scale::Full { (REQUESTS, MISSES) } else { (10, 1) };
    let mut out: Vec<Request> =
        (0..total - fresh).map(|_| warm[rng.below(warm.len())].clone()).collect();
    for miss in misses.iter().skip(index * fresh).take(fresh) {
        let at = rng.below(out.len() + 1);
        out.insert(at, miss.clone());
    }
    out
}

struct State {
    /// Always `Some` until the state drops, which drains the daemon.
    daemon: Option<Daemon>,
    /// Verdict line of every pre-warmed design, by label.
    warm_verdicts: BTreeMap<String, String>,
}

impl State {
    fn addr(&self) -> std::net::SocketAddr {
        self.daemon.as_ref().expect("the daemon runs until the state drops").local_addr()
    }
}

impl Drop for State {
    fn drop(&mut self) {
        if let Some(daemon) = self.daemon.take() {
            daemon.shutdown_and_wait();
        }
    }
}

/// Binds a daemon and pre-warms it with every warm design.
fn start(warm: &[Request]) -> Result<State, String> {
    let config = DaemonConfig {
        workers: WORKERS,
        map: crate::dsp::map_config(),
        cache_capacity: Some(CACHE_CAPACITY),
        ..DaemonConfig::default()
    };
    let daemon = Daemon::bind(config).map_err(|e| format!("binding the daemon: {e}"))?;
    // Owned by the state from here on, so an error below still drains it.
    let mut state = State { daemon: Some(daemon), warm_verdicts: BTreeMap::new() };
    let replies = closed_loop(state.addr(), warm)?;
    for (request, (response, _)) in warm.iter().zip(replies) {
        let response = response.map_err(|e| format!("pre-warming {}: {e}", request.label))?;
        if response.get(&["kind"]).and_then(Json::as_str) != Some("mapped") {
            return Err(format!("pre-warming {}: {}", request.label, response.render()));
        }
        state.warm_verdicts.insert(request.label.clone(), verdict_line(&response));
    }
    Ok(state)
}

type Reply = (Result<Json, String>, Duration);

/// Sends `requests` from [`WORKERS`] clients, each waiting for every reply
/// before its next request; request `i` goes to client `i % WORKERS`.
fn closed_loop(addr: std::net::SocketAddr, requests: &[Request]) -> Result<Vec<Reply>, String> {
    let mut clients = Vec::new();
    for _ in 0..WORKERS {
        clients.push(DaemonClient::connect(addr).map_err(|e| format!("connecting: {e}"))?);
    }
    let mut replies: Vec<Option<Reply>> = requests.iter().map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(c, mut client)| {
                scope.spawn(move || {
                    let mut mine = Vec::new();
                    for (i, request) in requests.iter().enumerate().skip(c).step_by(WORKERS) {
                        let start = Instant::now();
                        let response =
                            client.request(&request.payload(i)).map_err(|e| e.to_string());
                        mine.push((i, response, start.elapsed()));
                    }
                    mine
                })
            })
            .collect();
        for handle in handles {
            for (i, response, elapsed) in handle.join().expect("client thread") {
                replies[i] = Some((response, elapsed));
            }
        }
    });
    Ok(replies.into_iter().map(|r| r.expect("every request is sent")).collect())
}

fn num(doc: &Json, path: &[&str]) -> f64 {
    doc.get(path).and_then(Json::as_f64).unwrap_or(0.0)
}

/// The verdict and resources of a `mapped` response (not where it came from).
fn verdict_line(response: &Json) -> String {
    let verdict = response.get(&["verdict"]).and_then(Json::as_str).unwrap_or("?");
    match verdict {
        "success" => format!(
            "success dsp={} le={} reg={}",
            num(response, &["resources", "dsps"]),
            num(response, &["resources", "logic_elements"]),
            num(response, &["resources", "registers"])
        ),
        other => other.to_string(),
    }
}

/// Checks one request and its reply into the pass. `checked` holds the
/// re-elaboration check of each design, so it runs once per design.
fn score(
    pass: &mut Pass,
    state: &State,
    id: usize,
    request: &Request,
    reply: &Reply,
    checked: &mut BTreeMap<String, Result<(), String>>,
) {
    pass.attempted += 1;
    let label = &request.label;
    let response = match &reply.0 {
        Ok(response) => response,
        Err(e) => {
            pass.fail(FailClass::Lost, format!("{label}: {e}"));
            pass.verdicts.push(format!("{label}: lost"));
            return;
        }
    };
    let kind = response.get(&["kind"]).and_then(Json::as_str).unwrap_or("?");
    if kind != "mapped" || num(response, &["id"]) as usize != id {
        let class = match kind {
            "rejected" => FailClass::Rejected,
            "mapped" => FailClass::Lost,
            _ => FailClass::Error,
        };
        pass.fail(class, format!("{label}: {kind} reply {}", response.render()));
        pass.verdicts.push(format!("{label}: {kind}"));
        return;
    }
    let line = verdict_line(response);
    // The request text must elaborate to the suite design it was made from.
    let same = checked.entry(label.clone()).or_insert_with(|| {
        let elaborated =
            lr_hdl::parse_and_elaborate(&request.verilog).map_err(|e| e.to_string())?;
        crate::check::equal_over_window(&request.bench.build(), &elaborated, 2, 0)
    });
    if let Err(e) = same {
        pass.fail(
            FailClass::Mismatch,
            format!("{label}: request Verilog does not elaborate to the design: {e}"),
        );
    } else if state.warm_verdicts.get(label).is_some_and(|warm| *warm != line) {
        pass.fail(
            FailClass::Mismatch,
            format!("{label}: `{line}` differs from the pre-warm verdict"),
        );
    } else if line.starts_with("success") {
        let verilog = response.get(&["verilog"]).and_then(Json::as_str).unwrap_or("");
        let module = Architecture::load(request.arch).dsp_module().unwrap_or("?");
        let instances = verilog.lines().filter(|l| l.trim_start().starts_with(module)).count();
        if line == "success dsp=1 le=0 reg=0" && instances == 1 {
            pass.mapped += 1;
            pass.cells += 1;
        } else {
            pass.fail(
                FailClass::Mismatch,
                format!("{label}: `{line}` with {instances} {module} instances"),
            );
        }
    } else if line == "timeout" {
        pass.fail(FailClass::Timeout, format!("{label}: no verdict"));
    } else if line != "unsat" {
        pass.fail(FailClass::Error, format!("{label}: verdict `{line}`"));
    }
    pass.verdicts.push(format!("{label}: {line}"));
}

fn run_pass(
    state: &State,
    requests: &[Request],
    checked: &mut BTreeMap<String, Result<(), String>>,
) -> Result<(Pass, Vec<Reply>), String> {
    let mut pass = Pass::default();
    let replies = crate::timed_pass(&mut pass, || closed_loop(state.addr(), requests))?;
    for (i, (request, reply)) in requests.iter().zip(&replies).enumerate() {
        pass.latencies_ms.push(ms(reply.1));
        score(&mut pass, state, i, request, reply, checked);
    }
    Ok((pass, replies))
}

/// Per-layer metrics of a traced pass: the daemon's server time and the
/// rest of the round trip per request, its queue wait and rejections from
/// `stats`, cache replays, and the cost of elaborating each request text.
fn layers_of(state: &State, requests: &[Request], replies: &[Reply]) -> Result<Metrics, String> {
    let mut layers = Metrics::default();
    let (mut server, mut transport, mut hits) = (Vec::new(), Vec::new(), 0);
    for (response, rtt) in replies {
        let Ok(response) = response else { continue };
        let server_ms = num(response, &["elapsed_ms"]);
        server.push(server_ms);
        transport.push(ms(*rtt) - server_ms);
        if response.get(&["from_cache"]).and_then(Json::as_bool) == Some(true) {
            hits += 1;
            layers.add("lakeroad.replay_ms", server_ms, "ms");
        }
    }
    layers.set("lr_serve.daemon_server_ms_p50", median(&server), "ms");
    layers.set("lr_serve.daemon_transport_ms_p50", median(&transport), "ms");
    layers.set(
        "lakeroad.cache_hit_ratio",
        f64::from(hits) / replies.len().max(1) as f64,
        "fraction",
    );
    drain();
    for request in requests {
        timed("lr_hdl.elaborate", || lr_hdl::parse_and_elaborate(&request.verilog))
            .map_err(|e| e.to_string())?;
    }
    for (name, self_time) in drain() {
        layers.set(format!("{name}_ms"), ms(self_time), "ms");
    }
    let mut client = DaemonClient::connect(state.addr()).map_err(|e| e.to_string())?;
    let stats = client.request("{\"kind\":\"stats\"}").map_err(|e| e.to_string())?;
    layers.set(
        "lr_serve.daemon_queue_wait_ms_p50",
        num(&stats, &["latency", "queue_wait_us", "p50"]) / 1e3,
        "ms",
    );
    layers.set("lr_serve.daemon_rejected", num(&stats, &["requests", "rejected"]), "count");
    Ok(layers)
}

pub fn run(config: &Config) -> Result<Outcome, String> {
    let seed = config.seed;
    let (warm_benches, miss_benches) = pools(seed, config.scale);
    let warm: Vec<Request> = warm_benches.iter().map(Request::new).collect();
    let misses: Vec<Request> = miss_benches.iter().map(Request::new).collect();
    let (setup, states) = setups(|| start(&warm))?;
    let first = schedule(seed, 0, &warm, &misses, config.scale);
    let digest =
        fnv1a(first.iter().map(|r| r.label.as_str()).collect::<Vec<_>>().join(",").as_bytes());
    println!(
        "daemon-mixed mix: {} warm designs, {} of {} requests per pass are new designs, cache capacity {}",
        warm.len(),
        first.iter().filter(|r| !warm.iter().any(|w| w.label == r.label)).count(),
        first.len(),
        CACHE_CAPACITY
    );
    let mut checked = BTreeMap::new();
    let outcome = if config.trace {
        // Two daemons set up identically, so the traced pass starts from the
        // same cache state as the untraced one.
        let (untraced, _) = run_pass(&states[0], &first, &mut checked)?;
        let (traced, replies) = run_pass(&states[1], &first, &mut checked)?;
        let layers = layers_of(&states[1], &first, &replies)?;
        Outcome {
            setup,
            passes: vec![untraced],
            traced: Some(traced),
            layers,
            inputs_digest: digest,
        }
    } else {
        let state = states.last().expect("at least one set-up");
        let passes = measure(config.seconds, |index| {
            let requests = schedule(seed, index, &warm, &misses, config.scale);
            run_pass(state, &requests, &mut checked).map(|(pass, _)| pass)
        })?;
        Outcome { setup, passes, traced: None, layers: Metrics::default(), inputs_digest: digest }
    };
    Ok(outcome)
}
