//! The one bench-record schema: every `BENCH_*.json` file is a [`Record`].
//!
//! A record is a `scale` string plus five sections, each an object of named
//! fields. The section a field sits in is the rule [`crate::gate`] applies to
//! it:
//!
//! * `exact` — deterministic counters a fresh run must reproduce exactly;
//! * `at_most` — search-work counters that may grow by at most
//!   [`TOLERANCE`](crate::gate::TOLERANCE) (plus a small absolute slack);
//! * `at_least` — quality counters that may not drop;
//! * `invariants` — booleans that must hold in every fresh run;
//! * `recorded` — never compared: wall clocks, per-row detail arrays and
//!   timing-dependent tallies.
//!
//! Sums and tallies the gate compares are computed once, by the experiment
//! that writes the record. Records render only through [`lr_serve::Json`],
//! one field or row per line so committed baselines stay line-diffable.

use std::collections::BTreeMap;

use lr_serve::Json;

use crate::Scale;

/// One of a record's five sections.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Section {
    /// Must equal the baseline.
    Exact,
    /// Must not exceed the baseline beyond the tolerance.
    AtMost,
    /// Must not fall below the baseline.
    AtLeast,
    /// Must be `true`.
    Invariants,
    /// Never compared.
    Recorded,
}

impl Section {
    /// Every section.
    pub(crate) const ALL: [Section; 5] =
        [Section::Exact, Section::AtMost, Section::AtLeast, Section::Invariants, Section::Recorded];

    /// The section's key in the rendered record.
    pub(crate) fn key(self) -> &'static str {
        match self {
            Section::Exact => "exact",
            Section::AtMost => "at_most",
            Section::AtLeast => "at_least",
            Section::Invariants => "invariants",
            Section::Recorded => "recorded",
        }
    }
}

/// A value a record can hold.
pub trait Field {
    /// The value as JSON.
    fn json(&self) -> Json;
}

impl Field for f64 {
    /// Rounded to four decimals: wall clocks and ratios carry no more signal
    /// than that, and the rounding keeps committed records diffable.
    fn json(&self) -> Json {
        Json::Num((self * 1e4).round() / 1e4)
    }
}

impl Field for u64 {
    fn json(&self) -> Json {
        Json::Num(*self as f64)
    }
}

impl Field for usize {
    fn json(&self) -> Json {
        Json::Num(*self as f64)
    }
}

impl Field for bool {
    fn json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl Field for &str {
    fn json(&self) -> Json {
        Json::str(*self)
    }
}

impl Field for String {
    fn json(&self) -> Json {
        Json::str(self.as_str())
    }
}

impl Field for Json {
    fn json(&self) -> Json {
        self.clone()
    }
}

impl<T: Field> Field for Vec<T> {
    fn json(&self) -> Json {
        Json::Arr(self.iter().map(Field::json).collect())
    }
}

/// A JSON object of [`Field`]s: `fields! { name: value, ... }`.
macro_rules! fields {
    ($($key:ident: $value:expr),* $(,)?) => {
        lr_serve::Json::obj([$((stringify!($key), $crate::record::Field::json(&$value))),*])
    };
}
pub(crate) use fields;

/// One experiment's bench record, built field by field.
#[derive(Debug, Clone)]
pub struct Record {
    scale: Scale,
    sections: BTreeMap<Section, BTreeMap<String, Json>>,
}

impl Record {
    /// An empty record at `scale`.
    pub fn new(scale: Scale) -> Record {
        Record { scale, sections: BTreeMap::new() }
    }

    fn with(mut self, section: Section, key: &str, value: impl Field) -> Record {
        self.sections.entry(section).or_default().insert(key.to_string(), value.json());
        self
    }

    /// Adds a counter that must reproduce exactly.
    pub fn exact(self, key: &str, value: impl Field) -> Record {
        self.with(Section::Exact, key, value)
    }

    /// Adds a counter that may grow only within the gate's tolerance.
    pub fn at_most(self, key: &str, value: impl Field) -> Record {
        self.with(Section::AtMost, key, value)
    }

    /// Adds a counter that may not drop.
    pub fn at_least(self, key: &str, value: impl Field) -> Record {
        self.with(Section::AtLeast, key, value)
    }

    /// Adds a condition every run must satisfy.
    pub fn invariant(self, key: &str, holds: bool) -> Record {
        self.with(Section::Invariants, key, holds)
    }

    /// Adds an ungated value.
    pub fn recorded(self, key: &str, value: impl Field) -> Record {
        self.with(Section::Recorded, key, value)
    }

    /// The record as JSON: `scale` plus all five sections (empty ones too).
    pub fn json(&self) -> Json {
        let mut doc =
            BTreeMap::from([("scale".to_string(), Json::str(format!("{:?}", self.scale)))]);
        for section in Section::ALL {
            let fields = self.sections.get(&section).cloned().unwrap_or_default();
            doc.insert(section.key().to_string(), Json::Obj(fields));
        }
        Json::Obj(doc)
    }

    /// Writes the record to `path` and reports where it went.
    pub fn save(&self, path: &str) {
        match std::fs::write(path, self.json().render_pretty()) {
            Ok(()) => println!("wrote {path}"),
            Err(e) => eprintln!("failed to write {path}: {e}"),
        }
    }
}

/// Joins an experiment's gate failures into the `Err` its `exp_*` binary exits on.
///
/// # Errors
/// Returns the failures, `; `-separated, when there are any.
pub fn gate_result(failures: Vec<String>) -> Result<(), String> {
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures.join("; "))
    }
}
