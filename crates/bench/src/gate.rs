//! The deterministic bench-regression gate: one comparator for every
//! `BENCH_*.json` [`Record`](crate::record::Record).
//!
//! CI regenerates the records on every run and compares each against its
//! committed baseline. The rule for a field is the section it sits in **in the
//! baseline** — so a fresh record cannot escape a rule by moving a field into a
//! weaker section — and a gated field missing from the fresh record fails:
//!
//! * `exact` — fresh must equal the baseline;
//! * `at_most` — fresh ≤ baseline × (1 + [`TOLERANCE`]) + [`ABSOLUTE_SLACK`];
//! * `at_least` — fresh ≥ baseline;
//! * `invariants` — fresh must be `true` (invariants only the fresh record
//!   carries must hold too);
//! * `recorded` — never compared. Wall clocks live here: they depend on the
//!   machine, and a gate that flakes with the weather teaches people to ignore
//!   it.
//!
//! The gated counters reproduce bit-for-bit because the sweeps that emit them
//! run a single solver configuration with fixed seeds. The tolerance lets an
//! intentional, reviewed behaviour change trip the gate only when it actually
//! regresses search work; improvements always pass (and should be followed by
//! a baseline refresh).

use std::path::Path;

use lr_serve::Json;

use crate::record::Section;

/// Relative headroom an `at_most` counter may grow by before the gate fails.
pub const TOLERANCE: f64 = 0.10;

/// Absolute slack added on top of the relative tolerance, so near-zero
/// baselines do not fail on noise.
pub const ABSOLUTE_SLACK: f64 = 100.0;

/// The fields of one section of `doc` (none if the section is absent).
fn fields(doc: &Json, section: Section) -> impl Iterator<Item = (&String, &Json)> {
    match doc.get(&[section.key()]) {
        Some(Json::Obj(map)) => Some(map.iter()),
        _ => None,
    }
    .into_iter()
    .flatten()
}

/// Why `fresh` breaks `section`'s rule against `baseline`, if it does.
fn violation(section: Section, baseline: &Json, fresh: Option<&Json>) -> Option<String> {
    let Some(fresh) = fresh else {
        return Some("is missing from the fresh record".to_string());
    };
    let numbers = || match (baseline.as_f64(), fresh.as_f64()) {
        (Some(b), Some(f)) => Ok((b, f)),
        _ => Err(format!("is not a number ({} vs baseline {})", fresh.render(), baseline.render())),
    };
    match section {
        Section::Exact => (fresh != baseline)
            .then(|| format!("changed: {} vs baseline {}", fresh.render(), baseline.render())),
        Section::AtMost => match numbers() {
            Err(e) => Some(e),
            Ok((b, f)) => {
                let limit = b * (1.0 + TOLERANCE) + ABSOLUTE_SLACK;
                (f > limit)
                    .then(|| format!("regressed: {f} exceeds baseline {b} (limit {limit:.0})"))
            }
        },
        Section::AtLeast => match numbers() {
            Err(e) => Some(e),
            Ok((b, f)) => (f < b).then(|| format!("regressed: {f} is below baseline {b}")),
        },
        Section::Invariants => {
            (fresh != &Json::Bool(true)).then(|| format!("does not hold ({})", fresh.render()))
        }
        Section::Recorded => None,
    }
}

/// Compares one fresh record against its baseline and returns every failure,
/// each prefixed with `file`. A scale mismatch is reported and nothing else is
/// compared. A baseline without a `scale` and all five sections fails: it
/// would otherwise gate nothing.
pub fn compare(file: &str, baseline: &Json, fresh: &Json) -> Vec<String> {
    let is_section = |s: Section| matches!(baseline.get(&[s.key()]), Some(Json::Obj(_)));
    let scale = |doc: &Json| doc.get(&["scale"]).and_then(Json::as_str).map(str::to_string);
    let (b, f) = (scale(baseline), scale(fresh));
    if b.is_none() || !Section::ALL.into_iter().all(is_section) {
        return vec![format!("{file}: baseline is not a bench record")];
    }
    if b != f {
        return vec![format!("{file}: scale mismatch (baseline {b:?}, fresh {f:?})")];
    }
    let mut failures = Vec::new();
    for section in Section::ALL.into_iter().filter(|&s| s != Section::Recorded) {
        for (key, value) in fields(baseline, section) {
            if let Some(why) = violation(section, value, fresh.get(&[section.key(), key])) {
                failures.push(format!("{file}: {}.{key} {why}", section.key()));
            }
        }
    }
    for (key, value) in fields(fresh, Section::Invariants) {
        if baseline.get(&[Section::Invariants.key(), key]).is_none() && value != &Json::Bool(true) {
            failures.push(format!("{file}: invariants.{key} does not hold ({})", value.render()));
        }
    }
    failures
}

fn read_record(path: &Path) -> Result<Json, String> {
    std::fs::read_to_string(path).map_err(|e| e.to_string()).and_then(|t| Json::parse(&t))
}

/// Compares every `BENCH_*.json` record in `baseline_dir` against its freshly
/// generated counterpart in `fresh_dir`, returning the files checked.
///
/// A record present in the baseline directory but missing from the fresh one is
/// a failure (the sweep that emits it did not run); a record absent from the
/// baseline directory is not gated (no baseline yet — commit one to arm the
/// gate).
///
/// # Errors
/// Returns every failure, one description per entry.
pub fn run_gate(baseline_dir: &Path, fresh_dir: &Path) -> Result<Vec<String>, Vec<String>> {
    let mut files: Vec<String> = std::fs::read_dir(baseline_dir)
        .into_iter()
        .flatten()
        .flatten()
        .filter_map(|entry| entry.file_name().into_string().ok())
        .filter(|name| name.starts_with("BENCH_") && name.ends_with(".json"))
        .collect();
    files.sort();
    let mut failures = Vec::new();
    for file in &files {
        match (read_record(&baseline_dir.join(file)), read_record(&fresh_dir.join(file))) {
            (Err(e), _) => failures.push(format!("{file}: unreadable baseline: {e}")),
            (_, Err(e)) => {
                failures.push(format!("{file}: fresh record missing or unreadable: {e}"))
            }
            (Ok(baseline), Ok(fresh)) => failures.extend(compare(file, &baseline, &fresh)),
        }
    }
    if failures.is_empty() {
        Ok(files)
    } else {
        Err(failures)
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;
    use crate::record::Section::{AtLeast, AtMost, Exact, Invariants};

    fn repo_file(file: &str) -> std::path::PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").join(file)
    }

    fn committed(file: &str) -> Json {
        let text =
            std::fs::read_to_string(repo_file(file)).unwrap_or_else(|e| panic!("{file}: {e}"));
        Json::parse(&text).unwrap_or_else(|e| panic!("{file}: {e}"))
    }

    /// A mutable handle on `doc[section]`.
    fn section<'a>(doc: &'a mut Json, section: &str) -> &'a mut BTreeMap<String, Json> {
        let Json::Obj(root) = doc else { panic!("not an object") };
        let Some(Json::Obj(fields)) = root.get_mut(section) else { panic!("no {section}") };
        fields
    }

    /// A mutable handle on `doc[section][key]`.
    fn field<'a>(doc: &'a mut Json, name: &str, key: &str) -> &'a mut Json {
        section(doc, name).get_mut(key).unwrap_or_else(|| panic!("no {name}.{key}"))
    }

    fn remove(doc: &mut Json, name: &str, key: &str) {
        section(doc, name).remove(key);
    }

    fn record(exact: u64, at_most: u64, at_least: f64, invariant: bool) -> Json {
        Json::parse(&format!(
            "{{\"scale\": \"Quick\", \"exact\": {{\"cones\": {exact}}}, \
             \"at_most\": {{\"conflicts\": {at_most}}}, \"at_least\": {{\"hit_rate\": {at_least}}}, \
             \"invariants\": {{\"gates_pass\": {invariant}}}, \
             \"recorded\": {{\"wall_ms\": 100.5, \"rows\": [{{\"n\": 1}}]}}}}"
        ))
        .unwrap()
    }

    fn gate(baseline: &Json, fresh: &Json) -> Vec<String> {
        compare("BENCH_x.json", baseline, fresh)
    }

    #[test]
    fn the_committed_baselines_parse() {
        // Every committed record is a bench record the gate can read.
        let dir = repo_file("");
        let mut seen = 0;
        for entry in std::fs::read_dir(&dir).unwrap().flatten() {
            let name = entry.file_name().into_string().unwrap();
            if name.starts_with("BENCH_") && name.ends_with(".json") {
                let doc = committed(&name);
                assert!(doc.get(&["scale"]).and_then(Json::as_str).is_some(), "{name}");
                for section in Section::ALL {
                    assert!(doc.get(&[section.key()]).is_some(), "{name} lacks {}", section.key());
                }
                seen += 1;
            }
        }
        assert_eq!(seen, 9, "one committed record per gated experiment");
    }

    #[test]
    fn exact_rule_fails_on_any_change() {
        let baseline = record(400, 1000, 1.0, true);
        assert!(gate(&baseline, &record(400, 1000, 1.0, true)).is_empty());
        for cones in [399, 401] {
            let failures = gate(&baseline, &record(cones, 1000, 1.0, true));
            assert!(failures.iter().any(|f| f.contains("exact.cones changed")), "{failures:?}");
        }
    }

    #[test]
    fn at_most_rule_fails_beyond_tolerance_and_passes_within_it() {
        let baseline = record(400, 10_000, 1.0, true);
        // +5% and any improvement: within tolerance.
        assert!(gate(&baseline, &record(400, 10_500, 1.0, true)).is_empty());
        assert!(gate(&baseline, &record(400, 5_000, 1.0, true)).is_empty());
        // The limit itself passes; one past it fails.
        let limit = (10_000.0 * (1.0 + TOLERANCE) + ABSOLUTE_SLACK) as u64;
        assert!(gate(&baseline, &record(400, limit, 1.0, true)).is_empty());
        let failures = gate(&baseline, &record(400, limit + 1, 1.0, true));
        assert!(failures.iter().any(|f| f.contains("at_most.conflicts regressed")), "{failures:?}");
    }

    #[test]
    fn at_least_rule_fails_below_the_baseline() {
        let baseline = record(400, 1000, 0.9, true);
        assert!(gate(&baseline, &record(400, 1000, 0.9, true)).is_empty());
        assert!(gate(&baseline, &record(400, 1000, 1.0, true)).is_empty());
        let failures = gate(&baseline, &record(400, 1000, 0.8999, true));
        assert!(failures.iter().any(|f| f.contains("at_least.hit_rate regressed")), "{failures:?}");
    }

    #[test]
    fn invariant_rule_fails_when_false() {
        let baseline = record(400, 1000, 1.0, true);
        let failures = gate(&baseline, &record(400, 1000, 1.0, false));
        assert!(failures.iter().any(|f| f.contains("invariants.gates_pass")), "{failures:?}");
        // An invariant only the fresh record carries must hold as well.
        let mut fresh = record(400, 1000, 1.0, true);
        section(&mut fresh, "invariants").insert("lost_is_zero".into(), Json::Bool(true));
        assert!(gate(&baseline, &fresh).is_empty());
        section(&mut fresh, "invariants").insert("lost_is_zero".into(), Json::Bool(false));
        assert!(gate(&baseline, &fresh).iter().any(|f| f.contains("invariants.lost_is_zero")));
    }

    #[test]
    fn wall_clock_fields_are_never_gated() {
        // The recorded section is free to move, grow, shrink or vanish.
        let baseline = record(400, 1000, 1.0, true);
        let mut fresh = record(400, 1000, 1.0, true);
        *field(&mut fresh, "recorded", "wall_ms") = Json::num(1e9);
        assert!(gate(&baseline, &fresh).is_empty());
        remove(&mut fresh, "recorded", "rows");
        assert!(gate(&baseline, &fresh).is_empty());
    }

    #[test]
    fn a_missing_gated_key_fails_in_every_section() {
        let baseline = record(400, 1000, 1.0, true);
        for (section, key) in [
            ("exact", "cones"),
            ("at_most", "conflicts"),
            ("at_least", "hit_rate"),
            ("invariants", "gates_pass"),
        ] {
            let mut fresh = baseline.clone();
            remove(&mut fresh, section, key);
            let failures = gate(&baseline, &fresh);
            assert_eq!(failures.len(), 1, "{section}.{key}: {failures:?}");
            assert!(failures[0].contains(&format!("{section}.{key} is missing")), "{failures:?}");
        }
    }

    #[test]
    fn fields_are_judged_by_their_baseline_section() {
        // Demoting a gated counter to `recorded` in the fresh record does not
        // demote its rule.
        let baseline = record(400, 1000, 1.0, true);
        let mut fresh = baseline.clone();
        remove(&mut fresh, "exact", "cones");
        section(&mut fresh, "recorded").insert("cones".into(), Json::num(400));
        assert!(gate(&baseline, &fresh).iter().any(|f| f.contains("exact.cones is missing")));
    }

    #[test]
    fn scale_mismatch_is_reported_not_compared() {
        let quick = record(400, 1000, 1.0, true);
        let Json::Obj(mut root) = record(1, 1_000_000, 0.0, false) else { unreachable!() };
        root.insert("scale".into(), Json::str("Full"));
        let failures = gate(&quick, &Json::Obj(root));
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("scale mismatch"));
    }

    #[test]
    fn a_baseline_without_sections_gates_nothing_and_fails() {
        // A flat record in the pre-section layout must not pass vacuously.
        let flat = Json::parse("{\"scale\": \"Quick\", \"gates_pass\": true}").unwrap();
        let failures = gate(&flat, &record(400, 1000, 1.0, true));
        assert_eq!(failures, ["BENCH_x.json: baseline is not a bench record"]);
    }

    /// Every field the per-file rules gated before records had sections, as
    /// (record, the rule it had, the fields that now carry it). Sums and
    /// tallies the old rules computed from row arrays are precomputed fields;
    /// `x == 0` checks are `x_is_zero` invariants.
    const PARENT_RULES: &[(&str, Section, &str)] = &[
        ("aig", Invariants, "gates_pass total_mismatches_is_zero warm_all_hits"),
        ("aig", Exact, "total_ands largest_fixture_ands total_cones unique_cones"),
        ("aig", Exact, "fixtures_covered_ands fixtures_max_leaves"),
        ("aig", Exact, "fixtures_logic_elements fixtures_registers"),
        ("cegis", AtMost, "incremental_conflicts incremental_iterations"),
        ("cegis", AtMost, "from_scratch_conflicts from_scratch_iterations"),
        ("cegis", Exact, "incremental_success incremental_unsat incremental_timeout"),
        ("cegis", Exact, "from_scratch_success from_scratch_unsat from_scratch_timeout"),
        ("daemon", Invariants, "gates_pass lost_is_zero rejected_is_zero"),
        ("daemon", Exact, "accepted completed warm_served warm_hits cold_misses"),
        ("egraph", Invariants, "all_monsters_fold"),
        ("egraph", AtLeast, "egraph_folds"),
        ("fuzz", Invariants, "gates_pass mismatch_count_is_zero"),
        ("fuzz", Exact, "seeds_run parse_ok elaborate_ok roundtrip_ok"),
        ("obs", Invariants, "gates_pass counter_mismatches_is_zero"),
        ("obs", Invariants, "metrics_errors_is_zero lost_is_zero"),
        ("obs", Exact, "accepted completed bundles_written records_retrieved"),
        ("sat", Invariants, "gates_pass"),
        ("sat", AtMost, "total_conflicts_modern total_propagations_modern"),
        ("serve", Invariants, "gates_pass"),
        ("serve", AtLeast, "warm_hit_rate"),
        ("trace", Invariants, "gates_pass counter_mismatches_is_zero traced_events_nonzero"),
        ("trace", AtMost, "conflicts iterations"),
    ];

    /// Whether a field in `found` is gated at least as strictly as `required`:
    /// the same section, or `exact` where a one-sided bound was required.
    fn at_least_as_strict(found: Section, required: Section) -> bool {
        found == required || (found == Exact && matches!(required, AtMost | AtLeast))
    }

    /// Checks the committed `BENCH_<record>.json` against [`PARENT_RULES`]:
    /// each field sits in a section at least as strict as its old rule,
    /// breaking the rule or dropping the field fails the gate, and no
    /// `recorded` field — wall clocks, latencies, overheads, timing-dependent
    /// tallies — is gated.
    fn assert_parent_rules_hold(record: &str) {
        let file = &format!("BENCH_{record}.json");
        let baseline = committed(file);
        assert!(
            compare(file, &baseline, &baseline).is_empty(),
            "{file} must gate clean against itself"
        );
        let rules = PARENT_RULES.iter().filter(|(name, ..)| *name == record);
        let keys = rules.flat_map(|&(_, rule, keys)| keys.split(' ').map(move |k| (k, rule)));
        let mut checked = 0;
        for (key, required) in keys {
            checked += 1;
            let found = Section::ALL
                .into_iter()
                .find(|s| baseline.get(&[s.key(), key]).is_some())
                .unwrap_or_else(|| panic!("{file}: {key} was dropped"));
            assert!(
                at_least_as_strict(found, required),
                "{file}: {key} moved from {} to the weaker {}",
                required.key(),
                found.key()
            );
            let mut broken = baseline.clone();
            let value = field(&mut broken, found.key(), key);
            *value = match required {
                Invariants => Json::Bool(false),
                AtLeast => Json::num(value.as_f64().unwrap() - 1.0),
                _ => Json::num(value.as_f64().unwrap() * 2.0 + 1000.0),
            };
            assert!(!compare(file, &baseline, &broken).is_empty(), "{file}: broken {key} passed");
            let mut dropped = baseline.clone();
            remove(&mut dropped, found.key(), key);
            assert!(!compare(file, &baseline, &dropped).is_empty(), "{file}: dropped {key} passed");
        }
        assert!(checked > 0, "{file} has no parent rules");
        let mut moved = baseline.clone();
        for value in section(&mut moved, "recorded").values_mut() {
            if let Some(n) = value.as_f64() {
                *value = Json::num(n * 100.0 + 1.0);
            }
        }
        assert!(compare(file, &baseline, &moved).is_empty(), "{file}: a recorded field is gated");
    }

    #[test]
    fn aig_rule_is_zero_tolerance_on_stitch_identity_and_cone_accounting() {
        assert_parent_rules_hold("aig");
    }

    #[test]
    fn cegis_rule_compares_per_mode_sums_and_verdicts() {
        assert_parent_rules_hold("cegis");
    }

    #[test]
    fn daemon_rule_pins_accounting_exactly_and_ignores_latency() {
        assert_parent_rules_hold("daemon");
    }

    #[test]
    fn egraph_rule_keeps_every_monster_folding_and_the_fold_count() {
        assert_parent_rules_hold("egraph");
    }

    #[test]
    fn fuzz_rule_is_zero_tolerance_on_mismatches_and_ignores_map_tallies() {
        assert_parent_rules_hold("fuzz");
    }

    #[test]
    fn obs_rule_is_zero_tolerance_on_identity_and_exposition() {
        assert_parent_rules_hold("obs");
    }

    #[test]
    fn sat_rule_fails_on_conflict_regression_and_passes_within_tolerance() {
        assert_parent_rules_hold("sat");
    }

    #[test]
    fn serve_rule_keeps_the_warm_hit_rate() {
        assert_parent_rules_hold("serve");
    }

    #[test]
    fn trace_rule_is_zero_tolerance_on_identity_and_ignores_overhead() {
        assert_parent_rules_hold("trace");
    }
}
