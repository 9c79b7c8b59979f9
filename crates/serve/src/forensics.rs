//! The flight recorder: per-request forensics records and post-mortem
//! bundles.
//!
//! A resident daemon's pathological requests — a CEGIS blow-up, an e-graph
//! that saturates without folding, a worker panic — are precisely the ones
//! whose evidence evaporates with the response. The [`FlightRecorder`] keeps
//! a bounded ring of [`RequestRecord`]s (identity, design hash, verdict,
//! latency split, solver counters, and the request's own span tree) for the
//! last N `map` requests, and *dumps* a record as an on-disk post-mortem
//! bundle when something went wrong:
//!
//! * the worker **panicked** (the scheduler's `catch_unwind` contains it and
//!   reports `panicked: ...`);
//! * the verdict was **unsat** or **timeout**;
//! * end-to-end latency breached the **slow-query threshold** (`--slow-ms`;
//!   a threshold of 0 dumps every request, which is what the integration
//!   tests and `exp_obs` use).
//!
//! A bundle is one JSONL file under `--forensics-dir`: line 1 is the record
//! header, each further line one span event. Files are written with the same
//! atomic discipline as the cache snapshot (unique tmp + `sync_all` +
//! `rename`) and rotated oldest-first so at most `--forensics-keep` bundles
//! exist. Draining writes a final `drain` bundle of the whole ring, so the
//! evidence of a crashing run's last requests survives the restart.
//!
//! Everything here is observation-only: the recorder never touches the
//! mapping configuration or the cache, so enabling it must not change any
//! deterministic synthesis counter (`exp_obs` gates exactly that).

use std::collections::VecDeque;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, SystemTime, UNIX_EPOCH};

use lr_trace::TraceEvent;

use crate::json::Json;

/// Flight-recorder configuration, carried on `DaemonConfig`.
#[derive(Debug, Clone, Default)]
pub struct ForensicsConfig {
    /// Bundle directory; `None` keeps the in-memory ring only.
    pub dir: Option<PathBuf>,
    /// Slow-query threshold; a completed request at or above it is dumped.
    /// `None` disables the slow trigger (panics/unsat/timeout still dump).
    pub slow: Option<Duration>,
    /// Maximum bundle files kept in `dir` (oldest-first rotation).
    pub keep: usize,
    /// Records retained in the in-memory ring.
    pub ring: usize,
}

impl ForensicsConfig {
    /// Whether any forensics surface is requested at all.
    pub fn active(&self) -> bool {
        self.dir.is_some() || self.slow.is_some()
    }
}

/// Everything the daemon knows about one completed `map` request.
#[derive(Debug, Clone)]
pub struct RequestRecord {
    /// Admission ticket (the job's queue sequence number).
    pub seq: u64,
    /// The request's correlation `id`, verbatim, when the client sent one.
    pub id: Option<Json>,
    /// Job display name.
    pub name: String,
    /// Design hash: the spec fingerprint rendered as a 32-hex-digit
    /// `CacheKey` — stable across runs, so post-mortems of the same design
    /// correlate.
    pub design: String,
    /// Target architecture (CLI name).
    pub arch: String,
    /// Template selection (`auto` or a template CLI name).
    pub template: String,
    /// Scheduling priority.
    pub priority: u8,
    /// Verdict label, matching the `mapped` response (`success`, `unsat`,
    /// `timeout`, `error`, `deadline_expired`, `cancelled`).
    pub verdict: &'static str,
    /// The error message for `error` verdicts.
    pub error: Option<String>,
    /// Whether the error was a contained worker panic.
    pub panicked: bool,
    /// Whether the verdict was served from the warm cache.
    pub from_cache: bool,
    /// Queue wait, µs.
    pub queue_wait_us: u64,
    /// Execution latency (worker pickup → response), µs.
    pub latency_us: u64,
    /// Milliseconds since daemon start when the record was made.
    pub completed_at_ms: u64,
    /// CEGIS iterations of this run (0 when not finished).
    pub iterations: u64,
    /// Counterexamples accumulated.
    pub examples: u64,
    /// SAT conflicts.
    pub conflicts: u64,
    /// SAT unit propagations.
    pub propagations: u64,
    /// SAT restarts.
    pub restarts: u64,
    /// The request's own span tree (events whose trace ctx matched the job).
    pub spans: Vec<TraceEvent>,
    /// Why this record was dumped as a bundle (`panic`, `unsat`, `timeout`,
    /// `slow`), or `None` for an unremarkable request.
    pub trigger: Option<&'static str>,
}

impl RequestRecord {
    /// The header fields, without the span tree — one bundle line, one list
    /// entry.
    pub fn header_json(&self) -> Json {
        Json::obj([
            ("seq", Json::num(self.seq as f64)),
            ("id", self.id.clone().unwrap_or(Json::Null)),
            ("name", Json::str(&self.name)),
            ("design", Json::str(&self.design)),
            ("arch", Json::str(&self.arch)),
            ("template", Json::str(&self.template)),
            ("priority", Json::num(f64::from(self.priority))),
            ("verdict", Json::str(self.verdict)),
            ("error", self.error.as_deref().map_or(Json::Null, Json::str)),
            ("panicked", Json::Bool(self.panicked)),
            ("from_cache", Json::Bool(self.from_cache)),
            ("queue_wait_us", Json::num(self.queue_wait_us as f64)),
            ("latency_us", Json::num(self.latency_us as f64)),
            ("completed_at_ms", Json::num(self.completed_at_ms as f64)),
            (
                "counters",
                Json::obj([
                    ("iterations", Json::num(self.iterations as f64)),
                    ("examples", Json::num(self.examples as f64)),
                    ("conflicts", Json::num(self.conflicts as f64)),
                    ("propagations", Json::num(self.propagations as f64)),
                    ("restarts", Json::num(self.restarts as f64)),
                ]),
            ),
            ("span_events", Json::num(self.spans.len() as f64)),
            ("trigger", self.trigger.map_or(Json::Null, Json::str)),
        ])
    }

    /// The full record: header plus the span tree as a Chrome trace-event
    /// document (what `{"kind":"forensics","id":...}` returns).
    pub fn full_json(&self) -> Json {
        let mut doc = self.header_json();
        if let Json::Obj(map) = &mut doc {
            map.insert("spans".to_string(), crate::tracefmt::chrome_trace(&self.spans));
        }
        doc
    }

    /// One bundle: the header line followed by one line per span event.
    fn to_jsonl(&self) -> String {
        let mut out = self.header_json().render();
        out.push('\n');
        for ev in &self.spans {
            out.push_str(&crate::tracefmt::event_json(ev).render());
            out.push('\n');
        }
        out
    }
}

/// The bounded ring of recent [`RequestRecord`]s plus the bundle writer.
pub struct FlightRecorder {
    config: ForensicsConfig,
    ring: Mutex<VecDeque<RequestRecord>>,
    /// Bundle files currently on disk, oldest first (rotation accounting).
    bundles: Mutex<VecDeque<PathBuf>>,
    bundles_written: AtomicU64,
    bundle_errors: AtomicU64,
    ticket: AtomicU64,
}

impl FlightRecorder {
    /// Builds the recorder; creates the bundle directory and adopts any
    /// bundles already in it (so rotation counts survive a restart).
    pub fn new(mut config: ForensicsConfig) -> FlightRecorder {
        config.keep = config.keep.max(1);
        config.ring = config.ring.max(1);
        let mut existing = Vec::new();
        if let Some(dir) = &config.dir {
            let _ = std::fs::create_dir_all(dir);
            if let Ok(entries) = std::fs::read_dir(dir) {
                for entry in entries.flatten() {
                    let path = entry.path();
                    if path.extension().is_some_and(|e| e == "jsonl") {
                        existing.push(path);
                    }
                }
            }
            // Bundle names start with a zero-padded timestamp, so the lexical
            // order is the chronological one.
            existing.sort();
        }
        FlightRecorder {
            config,
            ring: Mutex::new(VecDeque::new()),
            bundles: Mutex::new(existing.into()),
            bundles_written: AtomicU64::new(0),
            bundle_errors: AtomicU64::new(0),
            ticket: AtomicU64::new(0),
        }
    }

    /// The slow-query threshold, if one is set.
    pub fn slow_threshold(&self) -> Option<Duration> {
        self.config.slow
    }

    /// Whether span trees should be captured for records (they are the
    /// payload of every bundle, so capture whenever the recorder is active).
    pub fn wants_spans(&self) -> bool {
        true
    }

    /// Decides the record's dump trigger from its outcome. Panic wins over
    /// verdict, verdict over mere slowness.
    pub fn classify(&self, record: &RequestRecord) -> Option<&'static str> {
        if record.panicked {
            return Some("panic");
        }
        match record.verdict {
            "unsat" => return Some("unsat"),
            "timeout" => return Some("timeout"),
            _ => {}
        }
        let slow = self.config.slow?;
        let threshold_us = u64::try_from(slow.as_micros()).unwrap_or(u64::MAX);
        (record.latency_us >= threshold_us).then_some("slow")
    }

    /// Admits one record: classifies it, appends it to the bounded ring, and
    /// dumps a bundle when it triggered and a directory is configured.
    pub fn record(&self, mut record: RequestRecord) {
        record.trigger = self.classify(&record);
        if record.trigger.is_some() {
            let stem = format!("seq{:06}-{}", record.seq, record.trigger.unwrap_or("none"));
            self.write_bundle(&stem, std::slice::from_ref(&record));
        }
        let mut ring = self.ring.lock().unwrap();
        if ring.len() == self.config.ring {
            ring.pop_front();
        }
        ring.push_back(record);
    }

    /// Writes the whole ring as one `drain` bundle — the final forensics
    /// sync that rides along with the shutdown cache snapshot.
    pub fn final_sync(&self) {
        let ring = self.ring.lock().unwrap();
        if ring.is_empty() {
            return;
        }
        let records: Vec<RequestRecord> = ring.iter().cloned().collect();
        drop(ring);
        self.write_bundle("drain", &records);
    }

    /// Bundles successfully written by this recorder.
    pub fn bundles_written(&self) -> u64 {
        self.bundles_written.load(Ordering::Relaxed)
    }

    /// Bundle writes that failed (I/O errors; the daemon keeps serving).
    pub fn bundle_errors(&self) -> u64 {
        self.bundle_errors.load(Ordering::Relaxed)
    }

    /// Records currently retained in the ring.
    pub fn retained(&self) -> usize {
        self.ring.lock().unwrap().len()
    }

    /// The listing for `{"kind":"forensics"}`: newest-first record headers
    /// plus the bundle files on disk.
    pub fn list_json(&self) -> Json {
        let ring = self.ring.lock().unwrap();
        let records: Vec<Json> = ring.iter().rev().map(RequestRecord::header_json).collect();
        drop(ring);
        let bundles: Vec<Json> = self
            .bundles
            .lock()
            .unwrap()
            .iter()
            .filter_map(|p| p.file_name())
            .map(|n| Json::str(n.to_string_lossy()))
            .collect();
        Json::obj([
            ("records", Json::Arr(records)),
            ("bundles", Json::Arr(bundles)),
            ("bundles_written", Json::num(self.bundles_written() as f64)),
            ("bundle_errors", Json::num(self.bundle_errors() as f64)),
            (
                "dir",
                self.config.dir.as_ref().map_or(Json::Null, |d| Json::str(d.to_string_lossy())),
            ),
        ])
    }

    /// Fetches the newest retained record whose correlation id equals `id`.
    pub fn fetch(&self, id: &Json) -> Option<Json> {
        let ring = self.ring.lock().unwrap();
        ring.iter().rev().find(|r| r.id.as_ref() == Some(id)).map(RequestRecord::full_json)
    }

    /// Writes one bundle file atomically (unique tmp, `sync_all`, rename —
    /// the cache-snapshot discipline) and rotates the oldest bundles out.
    fn write_bundle(&self, stem: &str, records: &[RequestRecord]) {
        let Some(dir) = &self.config.dir else { return };
        let unix_ms = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX))
            .unwrap_or(0);
        let ticket = self.ticket.fetch_add(1, Ordering::Relaxed);
        // The zero-padded timestamp keys chronological rotation; the ticket
        // keeps names unique within one millisecond.
        let name = format!("{unix_ms:013}-{ticket:04}-{stem}.jsonl");
        let path = dir.join(&name);
        match self.write_atomic(dir, &path, records) {
            Ok(()) => {
                self.bundles_written.fetch_add(1, Ordering::Relaxed);
                let mut bundles = self.bundles.lock().unwrap();
                bundles.push_back(path);
                while bundles.len() > self.config.keep {
                    if let Some(oldest) = bundles.pop_front() {
                        let _ = std::fs::remove_file(oldest);
                    }
                }
            }
            Err(_) => {
                self.bundle_errors.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    fn write_atomic(
        &self,
        dir: &Path,
        path: &Path,
        records: &[RequestRecord],
    ) -> std::io::Result<()> {
        let tmp = dir.join(format!(
            "{}.{}.{}.tmp",
            path.file_name().map(|n| n.to_string_lossy().into_owned()).unwrap_or_default(),
            std::process::id(),
            self.ticket.fetch_add(1, Ordering::Relaxed),
        ));
        let result = (|| {
            let mut file = std::fs::File::create(&tmp)?;
            for record in records {
                file.write_all(record.to_jsonl().as_bytes())?;
            }
            file.sync_all()?;
            std::fs::rename(&tmp, path)
        })();
        if result.is_err() {
            let _ = std::fs::remove_file(&tmp);
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(seq: u64, verdict: &'static str, latency_us: u64) -> RequestRecord {
        RequestRecord {
            seq,
            id: Some(Json::num(seq as f64)),
            name: format!("job-{seq}"),
            design: "00112233445566778899aabbccddeeff".to_string(),
            arch: "intel".to_string(),
            template: "dsp".to_string(),
            priority: 0,
            verdict,
            error: None,
            panicked: false,
            from_cache: false,
            queue_wait_us: 10,
            latency_us,
            completed_at_ms: 5,
            iterations: 2,
            examples: 3,
            conflicts: 40,
            propagations: 500,
            restarts: 1,
            spans: vec![TraceEvent {
                name: "daemon-request",
                tid: 1,
                ctx: seq + 1,
                depth: 0,
                start_ns: 0,
                dur_ns: latency_us.saturating_mul(1_000),
                attrs: vec![("seq", seq)],
            }],
            trigger: None,
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("lr_forensics_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn classification_prefers_panic_then_verdict_then_slow() {
        let rec = FlightRecorder::new(ForensicsConfig {
            slow: Some(Duration::from_millis(100)),
            ..ForensicsConfig::default()
        });
        let mut panicked = sample(0, "error", 1);
        panicked.panicked = true;
        assert_eq!(rec.classify(&panicked), Some("panic"));
        assert_eq!(rec.classify(&sample(1, "unsat", 1)), Some("unsat"));
        assert_eq!(rec.classify(&sample(2, "timeout", 1)), Some("timeout"));
        assert_eq!(rec.classify(&sample(3, "success", 200_000)), Some("slow"));
        assert_eq!(rec.classify(&sample(4, "success", 10)), None);

        let no_slow = FlightRecorder::new(ForensicsConfig::default());
        assert_eq!(no_slow.classify(&sample(5, "success", u64::MAX)), None);
    }

    #[test]
    fn ring_is_bounded_and_fetch_finds_by_id() {
        let rec = FlightRecorder::new(ForensicsConfig { ring: 3, ..ForensicsConfig::default() });
        for seq in 0..5 {
            rec.record(sample(seq, "success", 10));
        }
        assert_eq!(rec.retained(), 3);
        assert!(rec.fetch(&Json::num(1.0)).is_none(), "evicted oldest-first");
        let found = rec.fetch(&Json::num(4.0)).expect("newest retained");
        assert_eq!(found.get(&["name"]).and_then(Json::as_str), Some("job-4"));
        assert!(found.get(&["spans", "traceEvents"]).and_then(Json::as_arr).is_some());
    }

    #[test]
    fn bundles_rotate_oldest_first_and_parse_as_jsonl() {
        let dir = temp_dir("rotate");
        let rec = FlightRecorder::new(ForensicsConfig {
            dir: Some(dir.clone()),
            slow: Some(Duration::ZERO),
            keep: 2,
            ring: 8,
        });
        for seq in 0..4 {
            rec.record(sample(seq, "success", 50));
        }
        assert_eq!(rec.bundles_written(), 4);
        let mut files: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        files.sort();
        assert_eq!(files.len(), 2, "rotation keeps only the newest: {files:?}");
        assert!(files[0].contains("seq000002") && files[1].contains("seq000003"), "{files:?}");
        for file in &files {
            let text = std::fs::read_to_string(dir.join(file)).unwrap();
            let lines: Vec<&str> = text.lines().collect();
            assert_eq!(lines.len(), 2, "header + one span line");
            let header = Json::parse(lines[0]).unwrap();
            assert_eq!(header.get(&["trigger"]).and_then(Json::as_str), Some("slow"));
            let span = Json::parse(lines[1]).unwrap();
            assert_eq!(span.get(&["name"]).and_then(Json::as_str), Some("daemon-request"));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn final_sync_writes_the_whole_ring() {
        let dir = temp_dir("final");
        let rec = FlightRecorder::new(ForensicsConfig {
            dir: Some(dir.clone()),
            keep: 8,
            ring: 8,
            ..ForensicsConfig::default()
        });
        rec.record(sample(0, "success", 10));
        rec.record(sample(1, "success", 10));
        assert_eq!(rec.bundles_written(), 0, "no trigger, no per-request bundle");
        rec.final_sync();
        assert_eq!(rec.bundles_written(), 1);
        let file = std::fs::read_dir(&dir).unwrap().flatten().next().unwrap().path();
        assert!(file.to_string_lossy().contains("drain"));
        let text = std::fs::read_to_string(&file).unwrap();
        assert_eq!(text.lines().count(), 4, "two records × (header + span)");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn listing_reports_records_and_bundles() {
        let dir = temp_dir("list");
        let rec = FlightRecorder::new(ForensicsConfig {
            dir: Some(dir.clone()),
            slow: Some(Duration::ZERO),
            keep: 4,
            ring: 4,
        });
        rec.record(sample(0, "unsat", 10));
        let listing = rec.list_json();
        assert_eq!(listing.get(&["bundles_written"]).and_then(Json::as_f64), Some(1.0));
        let records = listing.get(&["records"]).and_then(Json::as_arr).unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].get(&["verdict"]).and_then(Json::as_str), Some("unsat"));
        let bundles = listing.get(&["bundles"]).and_then(Json::as_arr).unwrap();
        assert_eq!(bundles.len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
