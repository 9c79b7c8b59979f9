//! The benchmark's own tests, at the tiny scale: every workload is
//! deterministic in its seed, and a run prints every metric that
//! `BENCHMARK.json` names, with the unit it declares.

use std::process::Command;

use lr_serve::Json;

struct Run {
    lines: Vec<String>,
    result: Json,
}

impl Run {
    fn line(&self, prefix: &str) -> &str {
        self.lines
            .iter()
            .find(|l| l.starts_with(prefix))
            .unwrap_or_else(|| panic!("no `{prefix}` line"))
    }
}

fn run(workload: &str, seed: u64, trace: bool) -> Run {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string(), "--seconds", "0"])
        .args(["--trace", if trace { "1" } else { "0" }, "--scale", "tiny"])
        .output()
        .expect("run perfbench");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(out.status.success(), "{workload}: {}\n{stdout}", String::from_utf8_lossy(&out.stderr));
    let lines: Vec<String> = stdout.lines().map(str::to_string).collect();
    let result = Json::parse(lines.last().expect("a result line")).expect("the last line is JSON");
    Run { lines, result }
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = Json::parse(&std::fs::read_to_string(path).expect("read BENCHMARK.json"))
        .expect("valid JSON");
    doc.get(&[section])
        .and_then(Json::as_arr)
        .expect("a metric list")
        .iter()
        .map(|m| {
            let field =
                |k: &str| m.get(&[k]).and_then(Json::as_str).expect("name and unit").to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn check_result(workload: &str, run: &Run, section: &str) {
    let r = &run.result;
    assert_eq!(
        r.get(&["correct"]).and_then(Json::as_bool),
        Some(true),
        "{workload}: {}",
        run.lines.join("\n")
    );
    assert_eq!(r.get(&["failed"]).and_then(Json::as_f64), Some(0.0), "{workload}");
    assert!(r.get(&["attempted"]).and_then(Json::as_f64).is_some_and(|a| a >= 1.0), "{workload}");
    let Some(Json::Obj(metrics)) = r.get(&["metrics"]) else {
        panic!("{workload}: no metrics object")
    };
    let declared = declared(section);
    assert_eq!(metrics.len(), declared.len(), "{workload} {section}: {:?}", metrics.keys());
    for (name, unit) in declared {
        let metric = metrics.get(&name).unwrap_or_else(|| panic!("{workload}: `{name}` missing"));
        assert_eq!(
            metric.get(&["unit"]).and_then(Json::as_str),
            Some(unit.as_str()),
            "{workload}: `{name}`"
        );
        let value = metric.get(&["value"]).and_then(Json::as_f64).expect("a numeric value");
        assert!(value.is_finite(), "{workload}: `{name}` = {value}");
    }
}

fn check_workload(workload: &str) {
    let first = run(workload, 5, false);
    let again = run(workload, 5, false);
    let other = run(workload, 6, false);
    for prefix in ["inputs digest", "verdicts digest"] {
        assert_eq!(
            first.line(prefix),
            again.line(prefix),
            "{workload}: same seed, different {prefix}"
        );
    }
    assert_ne!(
        first.line("inputs digest"),
        other.line("inputs digest"),
        "{workload}: the seed changes nothing"
    );
    check_result(workload, &first, "end_to_end");

    let traced = run(workload, 5, true);
    assert_eq!(first.line("verdicts digest"), traced.line("verdicts digest"), "{workload}");
    check_result(workload, &traced, "per_layer");
}

#[test]
fn dsp_suite_is_seeded_and_reports_every_metric() {
    check_workload("dsp-suite");
}

#[test]
fn netlist_cold_is_seeded_and_reports_every_metric() {
    check_workload("netlist-cold");
}

#[test]
fn daemon_mixed_is_seeded_and_reports_every_metric() {
    check_workload("daemon-mixed");
}

#[test]
fn bad_arguments_exit_without_a_result() {
    for args in [&["--workload", "nope"][..], &["--trace", "2"], &["--seed"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(args)
            .output()
            .expect("run perfbench");
        assert!(!out.status.success(), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
