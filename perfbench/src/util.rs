//! Small shared pieces: the seeded RNG, quantiles, process resource readings,
//! failure reason classes, and the per-pass tally every workload fills in.

use std::collections::BTreeMap;
use std::time::Duration;

/// SplitMix64: the one seeded generator every workload draws its inputs from.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one named purpose, so independent draws (design choice,
    /// stimulus, request order) do not shift each other when one changes.
    pub fn stream(seed: u64, purpose: &str) -> Rng {
        Rng(seed ^ fnv1a(purpose.as_bytes()))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound` (`bound > 0`).
    pub fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// FNV-1a, used for stream separation and for the input/verdict digests the
/// benchmark prints so runs can be compared for determinism.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// The `q`-quantile (0..=1) by linear interpolation; 0 for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// User plus system CPU time of this process so far, from `/proc/self/stat`.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields overall, in clock ticks (100 per second on Linux).
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(11) + ticks(12)) / 100.0
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Bytes the allocator has handed out and not taken back, over all arenas
/// (glibc `mallinfo2`: in-use chunks plus mmapped blocks).
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn heap_in_use() -> usize {
    #[repr(C)]
    struct Mallinfo2 {
        arena: usize,
        ordblks: usize,
        smblks: usize,
        hblks: usize,
        hblkhd: usize,
        usmblks: usize,
        fsmblks: usize,
        uordblks: usize,
        fordblks: usize,
        keepcost: usize,
    }
    extern "C" {
        fn mallinfo2() -> Mallinfo2;
    }
    // SAFETY: `mallinfo2` takes no arguments and only reads allocator state.
    let info = unsafe { mallinfo2() };
    info.uordblks + info.hblkhd
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn heap_in_use() -> usize {
    (peak_rss_mb() * 1024.0 * 1024.0) as usize
}

/// Samples the heap in use every 10 ms on a thread of its own. The metric
/// is the 90th percentile of the samples: the level the heap holds for the
/// busiest tenth of the pass. Neither peak RSS nor the sampled maximum is
/// steady enough to gate. glibc opens more malloc arenas as threads contend,
/// and the count depends on thread timing, so peak RSS swung by a third
/// between runs of the same inputs (capping the arenas steadied it but made
/// the mapper 40% slower). The maximum depends on which two jobs happen to
/// overlap. Peak RSS is still printed.
pub struct HeapSampler {
    stop: std::sync::Arc<std::sync::atomic::AtomicBool>,
    handle: std::thread::JoinHandle<Vec<f64>>,
}

impl HeapSampler {
    pub fn start() -> HeapSampler {
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let flag = std::sync::Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let mut samples = vec![heap_in_use() as f64];
            while !flag.load(std::sync::atomic::Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(10));
                samples.push(heap_in_use() as f64);
            }
            samples
        });
        HeapSampler { stop, handle }
    }

    /// Stops sampling and returns the 90th percentile in MiB.
    pub fn stop(self) -> f64 {
        self.stop.store(true, std::sync::atomic::Ordering::Relaxed);
        let samples = self.handle.join().expect("heap sampler");
        quantile(&samples, 0.9) / (1024.0 * 1024.0)
    }
}

/// Why an operation failed. UNSAT is not a class: it is a verdict on the DSP
/// suite and is reported as `Error` for a netlist cone, where it cannot
/// legitimately happen.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FailClass {
    /// The mapper ran out of budget.
    Timeout,
    /// The mapper reported an error (or an impossible verdict).
    Error,
    /// The daemon refused the request at admission.
    Rejected,
    /// A request or job never came back.
    Lost,
    /// The mapper's output disagreed with the benchmark's own check.
    Mismatch,
}

impl FailClass {
    pub const ALL: [FailClass; 5] = [
        FailClass::Timeout,
        FailClass::Error,
        FailClass::Rejected,
        FailClass::Lost,
        FailClass::Mismatch,
    ];

    pub fn name(self) -> &'static str {
        match self {
            FailClass::Timeout => "timeout",
            FailClass::Error => "error",
            FailClass::Rejected => "rejected",
            FailClass::Lost => "lost",
            FailClass::Mismatch => "mismatch",
        }
    }
}

/// What one pass over a workload's inputs produced.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Wall-clock time of the pass, excluding the benchmark's own checks.
    pub wall: Duration,
    /// Process CPU time (user plus system, all threads) over the same span.
    pub cpu_s: f64,
    /// Heap in use over the same span, 90th percentile, MiB (see
    /// [`HeapSampler`]).
    pub heap_p90_mb: f64,
    /// Per-operation latencies (design, netlist, or request), ms.
    pub latencies_ms: Vec<f64>,
    /// Operations attempted.
    pub attempted: usize,
    /// Failed operations with their reason class and a message.
    pub failures: Vec<(FailClass, String)>,
    /// Successful mappings that passed the benchmark's own check and reached
    /// the workload's target form (one DSP and nothing else on DSP workloads).
    pub mapped: usize,
    /// Primitives (DSPs plus logic elements) over those mappings.
    pub cells: usize,
    /// One line per operation: name, verdict and resources. Traced and
    /// untraced passes over the same inputs must agree on it.
    pub verdicts: Vec<String>,
}

impl Pass {
    pub fn fail(&mut self, class: FailClass, message: impl Into<String>) {
        self.failures.push((class, message.into()));
    }

    pub fn verdict_digest(&self) -> u64 {
        fnv1a(self.verdicts.join("\n").as_bytes())
    }
}

/// Named metric values with units, in insertion-independent order.
#[derive(Debug, Clone, Default)]
pub struct Metrics(pub BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.insert(name.into(), (value, unit));
    }

    pub fn add(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.entry(name.into()).or_insert((0.0, unit)).0 += value;
    }
}

/// Adds one synthesis run's work counters to the per-layer metrics. Runs
/// served from the cache did no synthesis and are skipped. `cegis_ms` is
/// taken from the statistics only when no span measured it.
pub fn add_synthesis(layers: &mut Metrics, stats: &lakeroad::SynthesisStats, with_elapsed: bool) {
    if stats.from_cache {
        return;
    }
    if with_elapsed {
        layers.add("lr_synth.cegis_ms", ms(stats.elapsed), "ms");
    }
    layers.add("lr_synth.iterations", stats.iterations as f64, "count");
    layers.add("lr_synth.examples", stats.examples as f64, "count");
    layers.add("lr_synth.egraph_folds", stats.egraph_folds as f64, "count");
    layers.add("lr_sat.conflicts", stats.conflicts as f64, "count");
    layers.add("lr_sat.propagations", stats.propagations as f64, "count");
    let winner = match stats.solver_name.as_str() {
        "bitblaze" => "lr_synth.winner.bitblaze",
        "stipple" => "lr_synth.winner.stipple",
        "yolanda" => "lr_synth.winner.yolanda",
        "cinqve" => "lr_synth.winner.cinqve",
        _ => "lr_synth.winner.other",
    };
    layers.add(winner, 1.0, "count");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn streams_are_seeded_and_separate() {
        let a: Vec<u64> = (0..4).map(|_| Rng::stream(7, "x").next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng::stream(7, "x").next_u64(), Rng::stream(7, "y").next_u64());
        assert_ne!(Rng::stream(7, "x").next_u64(), Rng::stream(8, "x").next_u64());
    }
}
