//! The daemon-serving experiment: N concurrent clients against an in-process
//! `lakeroad serve` daemon, cold then warm, recorded in `BENCH_daemon.json`.
//!
//! The daemon's value proposition is the *shared resident cache*: once any
//! client has paid for a verdict, every later client gets it warm. The
//! experiment drives that end to end over real TCP connections:
//!
//! 1. **Cold phase** — one client walks K distinct suite mappings so the
//!    shared cache is warmed by ordinary traffic (no preloading).
//! 2. **Warm phase** — N concurrent clients each request the same K mappings.
//!    Every one of the N×K verdicts must come from the cache, and the p50/p99
//!    response latencies (reported, not gated — wall clock) show what resident
//!    serving buys over cold synthesis.
//! 3. **Drain** — a graceful shutdown; the daemon's own accounting must show
//!    `accepted == completed` (zero lost jobs) and zero admission rejections
//!    for this in-bounds workload.
//!
//! The gates are deterministic counters: phase hit/store deltas come from the
//! daemon's `stats` request, the job accounting from the drain summary.

use std::time::Instant;

use lakeroad::suite::suite_for;
use lakeroad::MapConfig;
use lr_arch::ArchName;
use lr_serve::{Daemon, DaemonClient, DaemonConfig, DaemonSummary, Json};

use crate::record::{gate_result, Record};
use crate::Scale;

/// Where the bench record is written (repo-relative).
pub const REPORT_PATH: &str = "BENCH_daemon.json";

/// Cache totals as the daemon's `stats` request reports them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheTotals {
    /// Lookup hits since daemon start.
    pub hits: u64,
    /// Lookup misses.
    pub misses: u64,
    /// Stored verdicts.
    pub stores: u64,
    /// Capacity evictions.
    pub evictions: u64,
}

impl CacheTotals {
    fn from_stats(doc: &Json) -> CacheTotals {
        let n =
            |field| doc.get(&["cache", field]).and_then(Json::as_f64).unwrap_or_default() as u64;
        CacheTotals {
            hits: n("hits"),
            misses: n("misses"),
            stores: n("stores"),
            evictions: n("evictions"),
        }
    }
}

/// One phase's client-side observations.
#[derive(Debug, Clone)]
pub struct PhaseRecord {
    /// Phase wall-clock time.
    pub wall_ms: f64,
    /// Per-response latencies (request sent → response parsed), sorted.
    pub latencies_ms: Vec<f64>,
    /// Responses whose verdict was served from the shared cache.
    pub from_cache: u64,
    /// Per-request verdict letters (`s`/`u`/`t`/`e`), submission order. For
    /// the warm phase, one string per client.
    pub verdicts: Vec<String>,
}

impl PhaseRecord {
    /// The `q`-th latency percentile (phase must have responses).
    pub fn percentile_ms(&self, q: f64) -> f64 {
        let n = self.latencies_ms.len();
        let rank = ((n as f64 * q).ceil() as usize).clamp(1, n) - 1;
        self.latencies_ms[rank]
    }
}

/// The full experiment record.
#[derive(Debug, Clone)]
pub struct DaemonReport {
    /// The sweep scale.
    pub scale: Scale,
    /// Daemon worker threads.
    pub workers: usize,
    /// Concurrent clients in the warm phase.
    pub clients: u64,
    /// Distinct mappings each client requests.
    pub distinct: u64,
    /// Cold phase (one client, K distinct requests).
    pub cold: PhaseRecord,
    /// Warm phase (N clients × K requests).
    pub warm: PhaseRecord,
    /// Cache totals right after the cold phase.
    pub after_cold: CacheTotals,
    /// Cache totals right after the warm phase.
    pub after_warm: CacheTotals,
    /// The drain summary's accounting.
    pub accepted: u64,
    /// See [`DaemonReport::accepted`].
    pub completed: u64,
    /// Admission rejections (must be 0 for this in-bounds workload).
    pub rejected: u64,
    /// Cache entries resident at shutdown.
    pub cache_entries: u64,
}

impl DaemonReport {
    /// Warm-phase cache hits (stats delta over the phase).
    pub fn warm_hits(&self) -> u64 {
        self.after_warm.hits - self.after_cold.hits
    }

    /// Admitted jobs never answered; the drain guarantees 0.
    pub fn lost(&self) -> u64 {
        self.accepted - self.completed
    }

    /// The failed acceptance gates, empty when the experiment is healthy.
    pub fn gate_failures(&self) -> Vec<String> {
        let mut failures = Vec::new();
        let expected_warm = self.clients * self.distinct;
        if self.warm.from_cache != expected_warm {
            failures.push(format!(
                "only {} of {expected_warm} warm responses were served from the cache",
                self.warm.from_cache,
            ));
        }
        if self.warm_hits() != expected_warm || self.after_warm.misses != self.after_cold.misses {
            failures.push(format!(
                "warm phase was not 100% cache hits ({} hits / {} new misses, expected \
                 {expected_warm} / 0)",
                self.warm_hits(),
                self.after_warm.misses - self.after_cold.misses,
            ));
        }
        if self.lost() != 0 {
            failures.push(format!(
                "{} jobs were lost in the drain ({} accepted, {} completed)",
                self.lost(),
                self.accepted,
                self.completed,
            ));
        }
        if self.rejected != 0 {
            failures
                .push(format!("{} in-bounds requests were rejected at admission", self.rejected));
        }
        let expected_total = self.distinct + expected_warm;
        if self.accepted != expected_total {
            failures.push(format!(
                "accounting mismatch: {} accepted, expected {expected_total}",
                self.accepted
            ));
        }
        let cold = &self.cold.verdicts[0];
        if cold.chars().any(|c| c != 's') {
            failures.push(format!("cold verdicts are not all successes: {cold}"));
        }
        for (i, warm) in self.warm.verdicts.iter().enumerate() {
            if warm != cold {
                failures.push(format!(
                    "client {i}'s warm verdicts drifted from the cold ones ({warm} vs {cold})"
                ));
            }
        }
        failures
    }

    /// The bench record: the request and warm-hit accounting depends only on
    /// the scale's client/request shape, so it is `exact`; a graceful drain
    /// loses nothing and the workload is sized inside the admission bound
    /// (`invariants`). Latencies and wall clocks are recorded only.
    pub fn record(&self) -> Record {
        Record::new(self.scale)
            .invariant("gates_pass", self.gate_failures().is_empty())
            .invariant("lost_is_zero", self.lost() == 0)
            .invariant("rejected_is_zero", self.rejected == 0)
            .exact("accepted", self.accepted)
            .exact("completed", self.completed)
            .exact("warm_served", self.warm.from_cache)
            .exact("warm_hits", self.warm_hits())
            .exact("cold_misses", self.after_cold.misses)
            .recorded("workers", self.workers)
            .recorded("clients", self.clients)
            .recorded("distinct_requests", self.distinct)
            .recorded("rejected", self.rejected)
            .recorded("lost", self.lost())
            .recorded("cold_stores", self.after_cold.stores)
            .recorded("evictions", self.after_warm.evictions)
            .recorded("cache_entries", self.cache_entries)
            .recorded("cold_wall_ms", self.cold.wall_ms)
            .recorded("warm_wall_ms", self.warm.wall_ms)
            .recorded("warm_p50_ms", self.warm.percentile_ms(0.50))
            .recorded("warm_p99_ms", self.warm.percentile_ms(0.99))
            .recorded("verdicts_cold", self.cold.verdicts[0].as_str())
    }

    /// Prints a human-readable summary.
    pub fn print_summary(&self) {
        println!(
            "\n-- Daemon serving: {} distinct mappings, {} warm clients, {} workers --",
            self.distinct, self.clients, self.workers
        );
        println!(
            "  cold  {:8.1} ms  {} misses, {} stores  (p50 {:.1} ms)",
            self.cold.wall_ms,
            self.after_cold.misses,
            self.after_cold.stores,
            self.cold.percentile_ms(0.50),
        );
        println!(
            "  warm  {:8.1} ms  {} hits, {} served  (p50 {:.1} ms, p99 {:.1} ms)",
            self.warm.wall_ms,
            self.warm_hits(),
            self.warm.from_cache,
            self.warm.percentile_ms(0.50),
            self.warm.percentile_ms(0.99),
        );
        println!(
            "  drain: {} accepted / {} completed / {} rejected ({} lost), {} cache entries",
            self.accepted,
            self.completed,
            self.rejected,
            self.lost(),
            self.cache_entries,
        );
        for failure in self.gate_failures() {
            println!("  GATE FAILED: {failure}");
        }
    }
}

/// A `map` request for suite bench `bench` on the Intel DSP template.
pub(crate) fn request_payload(bench: &str, id: u64) -> String {
    format!(
        "{{\"kind\":\"map\",\"id\":{id},\"arch\":\"intel\",\"template\":\"dsp\",\
         \"bench\":\"{bench}\"}}"
    )
}

fn verdict_letter(doc: &Json) -> char {
    match doc.get(&["verdict"]).and_then(Json::as_str) {
        Some("success") => 's',
        Some("unsat") => 'u',
        Some("timeout") => 't',
        _ => 'e',
    }
}

/// One client's pass over the request list; returns (latencies, verdicts,
/// served-from-cache count).
fn run_client(addr: std::net::SocketAddr, benches: &[String]) -> (Vec<f64>, String, u64) {
    let mut client = DaemonClient::connect(addr).expect("daemon accepts connections");
    let mut latencies = Vec::with_capacity(benches.len());
    let mut verdicts = String::with_capacity(benches.len());
    let mut from_cache = 0u64;
    for (i, bench) in benches.iter().enumerate() {
        let start = Instant::now();
        let doc = client.request(&request_payload(bench, i as u64)).expect("daemon responds");
        latencies.push(start.elapsed().as_secs_f64() * 1e3);
        verdicts.push(verdict_letter(&doc));
        if doc.get(&["from_cache"]).and_then(Json::as_bool) == Some(true) {
            from_cache += 1;
        }
    }
    (latencies, verdicts, from_cache)
}

fn stats_totals(client: &mut DaemonClient) -> CacheTotals {
    let doc = client.request("{\"kind\":\"stats\"}").expect("stats responds");
    CacheTotals::from_stats(&doc)
}

/// Runs the full experiment at `scale` against a freshly bound daemon.
pub fn run_daemon_experiment(scale: Scale) -> DaemonReport {
    let (distinct, clients) = match scale {
        Scale::Quick => (6usize, 4u64),
        Scale::Smoke => (12, 6),
        Scale::Full => (24, 8),
    };
    let workers = 2;
    let benches: Vec<String> = suite_for(ArchName::IntelCyclone10Lp, [8u32].into_iter())
        .into_iter()
        .take(distinct)
        .map(|b| b.name)
        .collect();
    assert_eq!(benches.len(), distinct, "the suite has enough mappings at this scale");

    let config = DaemonConfig {
        workers,
        map: MapConfig::default().with_timeout(scale.timeout(ArchName::IntelCyclone10Lp)),
        ..DaemonConfig::default()
    };
    let daemon = Daemon::bind(config).expect("daemon binds an ephemeral port");
    let addr = daemon.local_addr();
    let mut observer = DaemonClient::connect(addr).expect("daemon accepts connections");

    // Cold: one client pays for every distinct verdict.
    let cold_start = Instant::now();
    let (mut latencies, verdicts, from_cache) = run_client(addr, &benches);
    let cold_wall = cold_start.elapsed();
    latencies.sort_by(f64::total_cmp);
    let cold = PhaseRecord {
        wall_ms: cold_wall.as_secs_f64() * 1e3,
        latencies_ms: latencies,
        from_cache,
        verdicts: vec![verdicts],
    };
    let after_cold = stats_totals(&mut observer);

    // Warm: N concurrent clients replay the same requests.
    let warm_start = Instant::now();
    let per_client: Vec<(Vec<f64>, String, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                let benches = &benches;
                scope.spawn(move || run_client(addr, benches))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread finishes")).collect()
    });
    let warm_wall = warm_start.elapsed();
    let mut latencies = Vec::new();
    let mut warm_verdicts = Vec::new();
    let mut warm_served = 0u64;
    for (client_latencies, verdicts, served) in per_client {
        latencies.extend(client_latencies);
        warm_verdicts.push(verdicts);
        warm_served += served;
    }
    latencies.sort_by(f64::total_cmp);
    let warm = PhaseRecord {
        wall_ms: warm_wall.as_secs_f64() * 1e3,
        latencies_ms: latencies,
        from_cache: warm_served,
        verdicts: warm_verdicts,
    };
    let after_warm = stats_totals(&mut observer);

    let summary: DaemonSummary = daemon.shutdown_and_wait();
    DaemonReport {
        scale,
        workers,
        clients,
        distinct: distinct as u64,
        cold,
        warm,
        after_cold,
        after_warm,
        accepted: summary.accepted,
        completed: summary.completed,
        rejected: summary.rejected,
        cache_entries: summary.cache_entries as u64,
    }
}

/// Prints the summary, writes [`REPORT_PATH`], and reports gate failures.
///
/// # Errors
/// Returns the joined gate failures.
pub fn report_and_write(report: &DaemonReport) -> Result<(), String> {
    report.print_summary();
    report.record().save(REPORT_PATH);
    gate_result(report.gate_failures())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> DaemonReport {
        DaemonReport {
            scale: Scale::Quick,
            workers: 2,
            clients: 4,
            distinct: 6,
            cold: PhaseRecord {
                wall_ms: 900.0,
                latencies_ms: vec![50.0; 6],
                from_cache: 2,
                verdicts: vec!["ssssss".into()],
            },
            warm: PhaseRecord {
                wall_ms: 60.0,
                latencies_ms: (1..=24).map(|i| i as f64).collect(),
                from_cache: 24,
                verdicts: vec!["ssssss".into(); 4],
            },
            after_cold: CacheTotals { hits: 2, misses: 4, stores: 4, evictions: 0 },
            after_warm: CacheTotals { hits: 26, misses: 4, stores: 4, evictions: 0 },
            accepted: 30,
            completed: 30,
            rejected: 0,
            cache_entries: 4,
        }
    }

    #[test]
    fn healthy_reports_pass_the_gates() {
        let report = sample_report();
        assert!(report.gate_failures().is_empty(), "{:?}", report.gate_failures());
        assert_eq!(report.warm_hits(), 24);
        assert_eq!(report.lost(), 0);
    }

    #[test]
    fn each_gate_trips() {
        let mut unserved = sample_report();
        unserved.warm.from_cache = 20;
        assert!(unserved.gate_failures().iter().any(|f| f.contains("served from the cache")));

        let mut missed = sample_report();
        missed.after_warm.misses += 2;
        assert!(missed.gate_failures().iter().any(|f| f.contains("100% cache hits")));

        let mut lost = sample_report();
        lost.completed -= 1;
        assert!(lost.gate_failures().iter().any(|f| f.contains("lost in the drain")));

        let mut bounced = sample_report();
        bounced.rejected = 3;
        assert!(bounced.gate_failures().iter().any(|f| f.contains("rejected at admission")));

        let mut miscounted = sample_report();
        miscounted.accepted += 1;
        miscounted.completed += 1;
        assert!(miscounted.gate_failures().iter().any(|f| f.contains("accounting mismatch")));

        let mut cold_fail = sample_report();
        cold_fail.cold.verdicts[0] = "ssssst".into();
        assert!(cold_fail.gate_failures().iter().any(|f| f.contains("not all successes")));

        let mut drift = sample_report();
        drift.warm.verdicts[2] = "sssssu".into();
        assert!(drift.gate_failures().iter().any(|f| f.contains("drifted")));
    }

    #[test]
    fn percentiles_pick_the_right_ranks() {
        let phase = PhaseRecord {
            wall_ms: 0.0,
            latencies_ms: (1..=100).map(|i| i as f64).collect(),
            from_cache: 0,
            verdicts: Vec::new(),
        };
        assert_eq!(phase.percentile_ms(0.50), 50.0);
        assert_eq!(phase.percentile_ms(0.99), 99.0);
        assert_eq!(phase.percentile_ms(1.0), 100.0);
    }

    #[test]
    fn json_report_is_well_formed() {
        let doc = Json::parse(&sample_report().record().json().render_pretty()).unwrap();
        assert_eq!(doc.get(&["invariants", "gates_pass"]), Some(&Json::Bool(true)));
        assert_eq!(doc.get(&["invariants", "lost_is_zero"]), Some(&Json::Bool(true)));
        assert_eq!(doc.get(&["exact", "warm_served"]).and_then(Json::as_f64), Some(24.0));
        assert_eq!(doc.get(&["recorded", "warm_p99_ms"]).and_then(Json::as_f64), Some(24.0));
    }
}
