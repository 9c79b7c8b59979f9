//! The batch-serving experiment: measure what `lr_serve` buys — scheduler
//! scaling over a mixed workload and cache effectiveness over a repeated one —
//! and record it in a machine-readable `BENCH_serve.json`.
//!
//! Two sections:
//!
//! 1. **Scaling curve** — one mixed batch (fast mappable microbenchmarks plus
//!    budget-bound "grinder" jobs, the population a production queue carries)
//!    run cold at 1, 2, and 4 workers. Grinders are wall-clock-bound (they
//!    burn their budget and time out whatever CPU share they get), so
//!    overlapping them is a structural win that holds even on a single core;
//!    on a multicore machine the compute-bound jobs parallelize on top.
//! 2. **Cache effectiveness** — an all-mappable batch run cold and then
//!    repeated against the same cache. The warm run must be served entirely
//!    from the cache (100% hit rate, every replay verified against the spec by
//!    interpretation), with identical verdicts and resource counts.
//!
//! The report doubles as the CI gate: [`ServeReport::gate_failures`] is
//! non-empty when the warm hit rate drops below 100%, when the warm verdicts
//! drift from the cold ones, or when 4 workers are not faster than 1.

use std::sync::Arc;
use std::time::Duration;

use lakeroad::{MapConfig, MapOutcome};
use lr_arch::ArchName;
use lr_serve::{
    fuzz_jobs, grinder_jobs, netlist_jobs, run_batch, suite_jobs, BatchJob, BatchOptions,
    BatchReport, BatchRun, CacheSnapshot, JobResult, Json, SynthCache,
};

use crate::record::{fields, gate_result, Record};
use crate::Scale;

/// Where the bench record is written (repo-relative).
pub const REPORT_PATH: &str = "BENCH_serve.json";

/// One point of the scaling curve: the mixed batch at one worker count.
#[derive(Debug, Clone)]
pub struct ScalingRun {
    /// Worker threads.
    pub workers: usize,
    /// Batch wall-clock time.
    pub wall_ms: f64,
    /// Jobs per second.
    pub throughput: f64,
    /// Successful mappings.
    pub successes: usize,
    /// UNSAT verdicts.
    pub unsats: usize,
    /// Budget exhaustions (the grinder population).
    pub timeouts: usize,
    /// Unposeable jobs.
    pub errors: usize,
    /// Jobs that migrated between workers.
    pub steals: u64,
}

/// One phase of the cache experiment (cold or warm).
#[derive(Debug, Clone)]
pub struct CachePhase {
    /// `"cold"` or `"warm"`.
    pub label: &'static str,
    /// Batch wall-clock time.
    pub wall_ms: f64,
    /// Cache counter deltas during the phase.
    pub cache: CacheSnapshot,
    /// Verdicts served from the cache (each one a verified replay).
    pub served: usize,
    /// Per-job verdict letters in submission order (`s`/`u`/`t`/`e`), the
    /// compact form the cold/warm and 1-vs-N comparisons diff.
    pub verdicts: String,
    /// DSP/LE/register triples of successful jobs, in submission order.
    pub resources: Vec<(usize, usize, usize)>,
}

/// The full experiment record.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// The sweep scale.
    pub scale: Scale,
    /// Jobs in the mixed scaling batch.
    pub scaling_jobs: usize,
    /// Section 1: the scaling curve, ascending worker counts.
    pub scaling: Vec<ScalingRun>,
    /// Section 2: cold then warm over the same cache.
    pub cold: CachePhase,
    /// See [`ServeReport::cold`].
    pub warm: CachePhase,
}

fn phase(label: &'static str, run: &BatchRun, cache: CacheSnapshot) -> CachePhase {
    let report = BatchReport::from_run(run, Some(cache));
    let verdicts: String = run
        .records
        .iter()
        .map(|r| match &r.result {
            JobResult::Finished(MapOutcome::Success(_)) => 's',
            JobResult::Finished(MapOutcome::Unsat { .. }) => 'u',
            JobResult::Finished(MapOutcome::Timeout { .. }) => 't',
            _ => 'e',
        })
        .collect();
    let resources = run
        .records
        .iter()
        .filter_map(|r| match &r.result {
            JobResult::Finished(MapOutcome::Success(m)) => {
                Some((m.resources.dsps, m.resources.logic_elements, m.resources.registers))
            }
            _ => None,
        })
        .collect();
    CachePhase {
        label,
        wall_ms: run.wall.as_secs_f64() * 1e3,
        cache,
        served: report.cache_served,
        verdicts,
        resources,
    }
}

impl ServeReport {
    /// Throughput at a worker count, if that point was measured.
    pub fn throughput_at(&self, workers: usize) -> Option<f64> {
        self.scaling.iter().find(|r| r.workers == workers).map(|r| r.throughput)
    }

    /// Cold-cache batch throughput speedup of 4 workers over 1.
    pub fn speedup_4v1(&self) -> Option<f64> {
        Some(self.throughput_at(4)? / self.throughput_at(1)?)
    }

    /// Warm-phase hit rate (fraction of lookups served).
    pub fn warm_hit_rate(&self) -> f64 {
        self.warm.cache.hit_rate()
    }

    /// The failed acceptance gates, empty when the experiment is healthy.
    pub fn gate_failures(&self) -> Vec<String> {
        let mut failures = Vec::new();
        if self.warm.cache.misses > 0 || self.warm.cache.hits == 0 {
            failures.push(format!(
                "warm-cache hit rate is {:.1}% ({} hits / {} misses), expected 100%",
                100.0 * self.warm_hit_rate(),
                self.warm.cache.hits,
                self.warm.cache.misses,
            ));
        }
        if self.warm.served != self.warm.verdicts.len() {
            failures.push(format!(
                "only {} of {} warm verdicts were served from the cache",
                self.warm.served,
                self.warm.verdicts.len(),
            ));
        }
        if self.warm.cache.invalidations > 0 {
            failures.push(format!(
                "{} warm replays failed verification",
                self.warm.cache.invalidations
            ));
        }
        if self.warm.verdicts != self.cold.verdicts || self.warm.resources != self.cold.resources {
            failures.push(format!(
                "warm verdicts/resources drifted from cold ones ({} vs {})",
                self.warm.verdicts, self.cold.verdicts,
            ));
        }
        match self.speedup_4v1() {
            Some(speedup) if speedup < 1.0 => {
                failures.push(format!("4-worker sweep is slower than 1-worker ({speedup:.2}x)"))
            }
            Some(_) => {}
            None => failures.push("scaling curve is missing the 1- or 4-worker point".into()),
        }
        failures
    }

    /// The bench record: the experiment's own gates (`invariants`) and the
    /// warm hit rate (`at_least`); the scaling curve and the cache phases are
    /// timing-dependent and recorded only.
    pub fn record(&self) -> Record {
        let scaling: Vec<Json> = self
            .scaling
            .iter()
            .map(|r| {
                fields! {
                    workers: r.workers, wall_ms: r.wall_ms, throughput_jobs_per_s: r.throughput,
                    successes: r.successes, unsats: r.unsats, timeouts: r.timeouts,
                    errors: r.errors, steals: r.steals,
                }
            })
            .collect();
        let cache: Vec<Json> = [&self.cold, &self.warm]
            .into_iter()
            .map(|p| {
                fields! {
                    phase: p.label, wall_ms: p.wall_ms, hits: p.cache.hits,
                    misses: p.cache.misses, stores: p.cache.stores,
                    invalidations: p.cache.invalidations, served: p.served, verdicts: p.verdicts,
                }
            })
            .collect();
        Record::new(self.scale)
            .invariant("gates_pass", self.gate_failures().is_empty())
            .at_least("warm_hit_rate", self.warm_hit_rate())
            .recorded("scaling_jobs", self.scaling_jobs)
            .recorded("speedup_4_workers_vs_1", self.speedup_4v1().unwrap_or(0.0))
            .recorded("scaling", scaling)
            .recorded("cache", cache)
    }

    /// Prints a human-readable summary.
    pub fn print_summary(&self) {
        println!("\n-- Batch scaling: mixed workload of {} jobs, cold cache --", self.scaling_jobs);
        for r in &self.scaling {
            println!(
                "  {} worker{}  {:8.1} ms  {:6.2} jobs/s  ({} success / {} unsat / {} timeout / {} error, {} steals)",
                r.workers,
                if r.workers == 1 { " " } else { "s" },
                r.wall_ms,
                r.throughput,
                r.successes,
                r.unsats,
                r.timeouts,
                r.errors,
                r.steals,
            );
        }
        if let Some(speedup) = self.speedup_4v1() {
            println!("  4-worker speedup over 1 worker: {speedup:.2}x");
        }
        println!("\n-- Cache effectiveness: identical batch, cold then warm --");
        for p in [&self.cold, &self.warm] {
            println!(
                "  {:4}  {:8.1} ms  {} hits / {} misses, {} stores, {} served, verdicts {}",
                p.label,
                p.wall_ms,
                p.cache.hits,
                p.cache.misses,
                p.cache.stores,
                p.served,
                p.verdicts,
            );
        }
        println!("  warm hit rate: {:.1}%", 100.0 * self.warm_hit_rate());
        for failure in self.gate_failures() {
            println!("  GATE FAILED: {failure}");
        }
    }
}

/// The mixed batch of the scaling section: fast mappable suite jobs,
/// wall-clock-bound grinders, a slice of the HDL fuzz population (elaborated
/// mini-Verilog designs, mostly unmappable — they ride on the grinder budget
/// and roughen the queue the scheduler must overlap), and a slice of the
/// structural-netlist population (random AIGER resolved through the
/// `DesignSource` frontend, all Bitwise-mappable).
fn scaling_batch(scale: Scale) -> Vec<BatchJob> {
    let (suite_limit, grind_budget, fuzz_count, netlist_count) = match scale {
        Scale::Quick => (6, Duration::from_secs(2), 3, 2),
        Scale::Smoke => (12, Duration::from_secs(3), 6, 4),
        Scale::Full => (24, Duration::from_secs(5), 12, 8),
    };
    let mut jobs = suite_jobs(ArchName::IntelCyclone10Lp, suite_limit);
    jobs.extend(grinder_jobs(grind_budget));
    jobs.extend(fuzz_jobs(0xF1_5E5E, fuzz_count, Some(grind_budget)));
    jobs.extend(netlist_jobs(0xA1_6E7, netlist_count, Some(grind_budget)));
    jobs
}

/// The all-mappable batch of the cache section.
fn cache_batch(scale: Scale) -> Vec<BatchJob> {
    let suite_limit = match scale {
        Scale::Quick => 6,
        Scale::Smoke => 18,
        Scale::Full => 36,
    };
    let mut jobs = suite_jobs(ArchName::IntelCyclone10Lp, suite_limit);
    jobs.extend(suite_jobs(ArchName::LatticeEcp5, suite_limit));
    jobs
}

fn options_with_cache(workers: usize, timeout: Duration, cache: &Arc<SynthCache>) -> BatchOptions {
    let shared: Arc<dyn lakeroad::MapCache> = Arc::<SynthCache>::clone(cache);
    let map = MapConfig::default().with_timeout(timeout).with_cache(shared);
    BatchOptions::new(workers, map)
}

/// Runs the full experiment at `scale`.
pub fn run_serve_experiment(scale: Scale) -> ServeReport {
    let timeout = scale.timeout(ArchName::IntelCyclone10Lp);

    // Section 1: scaling. Every worker count gets a fresh (cold) cache so runs
    // are independent; within one run the cache still collapses the suite's
    // canonical twins, exactly as a production cold start would.
    let jobs = scaling_batch(scale);
    let mut scaling = Vec::new();
    for workers in [1usize, 2, 4] {
        let cache = Arc::new(SynthCache::new());
        let run = run_batch(&jobs, &options_with_cache(workers, timeout, &cache));
        let report = BatchReport::from_run(&run, Some(cache.snapshot()));
        scaling.push(ScalingRun {
            workers,
            wall_ms: run.wall.as_secs_f64() * 1e3,
            throughput: report.throughput(),
            successes: report.successes,
            unsats: report.unsats,
            timeouts: report.timeouts,
            errors: report.errors,
            steals: run.steals,
        });
    }

    // Section 2: cache. One cache across both phases; the second, identical
    // batch must be served entirely warm.
    let jobs = cache_batch(scale);
    let cache = Arc::new(SynthCache::new());
    let before = cache.snapshot();
    let cold_run = run_batch(&jobs, &options_with_cache(2, timeout, &cache));
    let after_cold = cache.snapshot();
    let warm_run = run_batch(&jobs, &options_with_cache(2, timeout, &cache));
    let after_warm = cache.snapshot();

    ServeReport {
        scale,
        scaling_jobs: scaling_batch(scale).len(),
        scaling,
        cold: phase("cold", &cold_run, before.delta(&after_cold)),
        warm: phase("warm", &warm_run, after_cold.delta(&after_warm)),
    }
}

/// Prints the summary, writes [`REPORT_PATH`], and reports gate failures.
///
/// # Errors
/// Returns the joined gate failures.
pub fn report_and_write(report: &ServeReport) -> Result<(), String> {
    report.print_summary();
    report.record().save(REPORT_PATH);
    gate_result(report.gate_failures())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> ServeReport {
        let snap = |hits, misses, stores, invalidations| CacheSnapshot {
            hits,
            misses,
            stores,
            invalidations,
            evictions: 0,
        };
        ServeReport {
            scale: Scale::Quick,
            scaling_jobs: 12,
            scaling: vec![
                ScalingRun {
                    workers: 1,
                    wall_ms: 14_000.0,
                    throughput: 12.0 / 14.0,
                    successes: 6,
                    unsats: 0,
                    timeouts: 6,
                    errors: 0,
                    steals: 0,
                },
                ScalingRun {
                    workers: 4,
                    wall_ms: 5_000.0,
                    throughput: 12.0 / 5.0,
                    successes: 6,
                    unsats: 0,
                    timeouts: 6,
                    errors: 0,
                    steals: 3,
                },
            ],
            cold: CachePhase {
                label: "cold",
                wall_ms: 900.0,
                cache: snap(3, 9, 9, 0),
                served: 3,
                verdicts: "ssssssssssss".into(),
                resources: vec![(1, 0, 0); 12],
            },
            warm: CachePhase {
                label: "warm",
                wall_ms: 40.0,
                cache: snap(12, 0, 0, 0),
                served: 12,
                verdicts: "ssssssssssss".into(),
                resources: vec![(1, 0, 0); 12],
            },
        }
    }

    #[test]
    fn healthy_reports_pass_the_gates() {
        let report = sample_report();
        assert!(report.gate_failures().is_empty(), "{:?}", report.gate_failures());
        assert!((report.speedup_4v1().unwrap() - 2.8).abs() < 0.01);
        assert_eq!(report.warm_hit_rate(), 1.0);
    }

    #[test]
    fn each_gate_trips() {
        let mut miss = sample_report();
        miss.warm.cache.misses = 2;
        assert!(miss.gate_failures().iter().any(|f| f.contains("hit rate")));

        let mut unserved = sample_report();
        unserved.warm.served = 10;
        assert!(unserved.gate_failures().iter().any(|f| f.contains("served from the cache")));

        let mut stale = sample_report();
        stale.warm.cache.invalidations = 1;
        assert!(stale.gate_failures().iter().any(|f| f.contains("failed verification")));

        let mut drift = sample_report();
        drift.warm.verdicts = "sssssssssssu".into();
        assert!(drift.gate_failures().iter().any(|f| f.contains("drifted")));

        let mut slow = sample_report();
        slow.scaling[1].throughput = slow.scaling[0].throughput * 0.5;
        assert!(slow.gate_failures().iter().any(|f| f.contains("slower")));
    }

    #[test]
    fn json_report_is_well_formed() {
        let doc = Json::parse(&sample_report().record().json().render_pretty()).unwrap();
        assert_eq!(doc.get(&["invariants", "gates_pass"]), Some(&Json::Bool(true)));
        assert_eq!(doc.get(&["at_least", "warm_hit_rate"]).and_then(Json::as_f64), Some(1.0));
        let scaling = doc.get(&["recorded", "scaling"]).and_then(Json::as_arr).unwrap();
        assert_eq!(scaling[1].get(&["workers"]).and_then(Json::as_f64), Some(4.0));
    }
}
