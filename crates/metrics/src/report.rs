//! Benchmark run records: the JSON-lines schema `benchdiff` consumes.
//!
//! Every bench binary (and `tricount count --json`) appends one
//! `tc-run-v2` object per run. A report file may interleave other
//! line kinds (e.g. the table records bench binaries also emit);
//! [`RunRecord::parse_jsonl`] picks out the run records and ignores
//! the rest, but still insists every line is valid JSON.
//!
//! A record has two halves. `counters` are deterministic — `benchdiff`
//! holds them exact. `timings_ns` holds one [`TimingStats`] object per
//! timing, `{mean, stddev, min, max, median, tries}` over the harness's
//! `--tries` repeats: carried for the reader, judged by nobody here.

use std::collections::BTreeMap;

use crate::json::{self, Value};
use crate::snapshot::{MetricValue, MetricsSnapshot};
use crate::stats::TimingStats;

/// Run-record schema tag; bump on breaking layout changes.
pub const RUN_SCHEMA: &str = "tc-run-v2";

/// One benchmark run: identity key, deterministic counters, and
/// noisy timings.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    /// Input graph name (e.g. `g500-s8`).
    pub dataset: String,
    /// Algorithm name (e.g. `2d`, `summa`, `aop1d`).
    pub algorithm: String,
    /// Number of ranks.
    pub ranks: u64,
    /// Free-form configuration discriminator (kernel flags, grid
    /// shape, …); runs only compare when it matches.
    pub config: String,
    /// Triangle count — the correctness anchor.
    pub triangles: u64,
    /// Deterministic quantities (ops, probes, bytes, tasks, …):
    /// `benchdiff` hard-fails on any drift.
    pub counters: BTreeMap<String, u64>,
    /// Wall-clock style measurements in nanoseconds, summarized over
    /// the harness's repeat tries. Never compared.
    pub timings_ns: BTreeMap<String, TimingStats>,
}

impl RunRecord {
    /// Distills a cluster-wide snapshot into a run record.
    ///
    /// The split into deterministic counters vs noisy timings follows
    /// the naming convention: anything whose name ends in `_ns` is a
    /// timing, everything else (ops, probes, bytes, tasks, sizes) is
    /// expected to be bit-identical across repeat runs. Counters are
    /// summed across ranks, gauges take the cluster maximum, and
    /// histograms contribute their `count`/`sum` projections — the
    /// sample count of a timing histogram is itself deterministic, so
    /// it lands with the counters while the summed nanoseconds join
    /// the timings.
    pub fn from_snapshot(
        dataset: &str,
        algorithm: &str,
        ranks: u64,
        config: &str,
        triangles: u64,
        snap: &MetricsSnapshot,
    ) -> Self {
        let mut counters = BTreeMap::new();
        let mut timings_ns = BTreeMap::new();
        // Reliability, serve, and adaptive-kernel counters are
        // present-and-zero by default: a chaos-off run proves the
        // transport was inert, an offline run proves the service layer
        // never ran, and a hash-only run proves no fast path engaged
        // (benchdiff hard-fails if any of them ever drifts from the
        // baseline's zero), rather than silently omitting the evidence.
        for name in crate::names::MPS_RELIABILITY
            .iter()
            .chain(crate::names::SERVE)
            .chain(crate::names::TCT_KERNEL)
        {
            counters.insert((*name).to_string(), 0);
        }
        for (name, value) in snap.merged() {
            match value {
                MetricValue::Counter(v) => {
                    if name.ends_with("_ns") {
                        timings_ns.insert(name, TimingStats::from_single(v));
                    } else {
                        counters.insert(name, v);
                    }
                }
                MetricValue::Gauge(v) => {
                    counters.insert(name, v);
                }
                MetricValue::Hist(h) => {
                    if name.ends_with("_ns") {
                        counters.insert(format!("{name}.count"), h.count());
                        timings_ns.insert(format!("{name}.sum"), TimingStats::from_single(h.sum()));
                    } else {
                        counters.insert(format!("{name}.count"), h.count());
                        counters.insert(format!("{name}.sum"), h.sum());
                    }
                }
            }
        }
        Self {
            dataset: dataset.to_string(),
            algorithm: algorithm.to_string(),
            ranks,
            config: config.to_string(),
            triangles,
            counters,
            timings_ns,
        }
    }

    /// Folds the per-try records of one measured run into a single
    /// `tc-run-v2` record: timings summarize across tries, while the
    /// identity fields, triangle count and every deterministic
    /// counter must agree exactly (a drift across tries of the same
    /// binary on the same input is a real nondeterminism bug, not
    /// noise — the error names the drifting quantity).
    pub fn aggregate(tries: &[RunRecord]) -> Result<RunRecord, String> {
        let first = tries.first().ok_or("no tries to aggregate")?;
        for r in &tries[1..] {
            if r.key() != first.key() {
                return Err(format!("tries mix run keys '{}' and '{}'", first.key(), r.key()));
            }
            if r.triangles != first.triangles {
                return Err(format!(
                    "triangle count drifted across tries ({} vs {})",
                    first.triangles, r.triangles
                ));
            }
            if r.counters != first.counters {
                let name = first
                    .counters
                    .iter()
                    .find(|(k, v)| r.counters.get(*k) != Some(v))
                    .map(|(k, _)| k.clone())
                    .or_else(|| {
                        r.counters.keys().find(|k| !first.counters.contains_key(*k)).cloned()
                    })
                    .unwrap_or_else(|| "<unknown>".into());
                return Err(format!("counter '{name}' drifted across tries"));
            }
        }
        let mut timings_ns = BTreeMap::new();
        let names: std::collections::BTreeSet<&String> =
            tries.iter().flat_map(|r| r.timings_ns.keys()).collect();
        for name in names {
            let parts: Vec<TimingStats> =
                tries.iter().filter_map(|r| r.timings_ns.get(name).copied()).collect();
            let pooled = TimingStats::pool(&parts)
                .ok_or_else(|| format!("timing '{name}' already summarizes several tries"))?;
            timings_ns.insert(name.clone(), pooled);
        }
        Ok(RunRecord { timings_ns, ..first.clone() })
    }

    /// The identity `benchdiff` matches runs by.
    pub fn key(&self) -> String {
        format!("{}/{}/p{}/{}", self.dataset, self.algorithm, self.ranks, self.config)
    }

    /// Serializes to one JSON line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push_str("{\"schema\":\"");
        out.push_str(RUN_SCHEMA);
        out.push_str("\",\"dataset\":\"");
        json::escape_into(&mut out, &self.dataset);
        out.push_str("\",\"algorithm\":\"");
        json::escape_into(&mut out, &self.algorithm);
        out.push_str("\",\"ranks\":");
        out.push_str(&self.ranks.to_string());
        out.push_str(",\"config\":\"");
        json::escape_into(&mut out, &self.config);
        out.push_str("\",\"triangles\":");
        out.push_str(&self.triangles.to_string());
        out.push_str(",\"counters\":{");
        let mut first = true;
        for (k, v) in &self.counters {
            if !first {
                out.push(',');
            }
            first = false;
            out.push('"');
            json::escape_into(&mut out, k);
            out.push_str(&format!("\":{v}"));
        }
        out.push_str("},\"timings_ns\":{");
        let mut first = true;
        for (k, s) in &self.timings_ns {
            if !first {
                out.push(',');
            }
            first = false;
            out.push('"');
            json::escape_into(&mut out, k);
            out.push_str("\":");
            write_timing(&mut out, s);
        }
        out.push_str("}}");
        out
    }

    /// Parses one already-parsed JSON object as a run record. The
    /// `counters` object is required: a row without one would diff as
    /// "nothing to compare" and pass.
    pub fn from_value(v: &Value) -> Result<RunRecord, String> {
        let want_str = |key: &str| -> Result<String, String> {
            v.get(key)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("run record missing string '{key}'"))
        };
        let want_u64 = |key: &str| -> Result<u64, String> {
            v.get(key)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("run record missing integer '{key}'"))
        };
        let mut counters = BTreeMap::new();
        let members = v
            .get("counters")
            .and_then(Value::as_obj)
            .ok_or("run record has no 'counters' object")?;
        for (k, val) in members {
            let n =
                val.as_u64().ok_or_else(|| format!("run record 'counters.{k}' is not a u64"))?;
            counters.insert(k.clone(), n);
        }
        let mut timings_ns = BTreeMap::new();
        if let Some(members) = v.get("timings_ns").and_then(Value::as_obj) {
            for (k, val) in members {
                timings_ns.insert(k.clone(), parse_timing(k, val)?);
            }
        }
        Ok(RunRecord {
            dataset: want_str("dataset")?,
            algorithm: want_str("algorithm")?,
            ranks: want_u64("ranks")?,
            config: want_str("config")?,
            triangles: want_u64("triangles")?,
            counters,
            timings_ns,
        })
    }

    /// Extracts all `tc-run-v2` records from a JSON-lines report.
    /// Lines with other schemas (or none) are skipped; malformed JSON
    /// is an error.
    pub fn parse_jsonl(text: &str) -> Result<Vec<RunRecord>, String> {
        let mut out = Vec::new();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let v = json::parse(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
            if v.get("schema").and_then(Value::as_str) == Some(RUN_SCHEMA) {
                out.push(Self::from_value(&v).map_err(|e| format!("line {}: {e}", lineno + 1))?);
            }
        }
        Ok(out)
    }
}

fn write_timing(out: &mut String, s: &TimingStats) {
    out.push_str(&format!(
        "{{\"mean\":{},\"stddev\":{},\"min\":{},\"max\":{},\"median\":{},\"tries\":{}}}",
        json::fmt_f64(s.mean),
        json::fmt_f64(s.stddev),
        s.min,
        s.max,
        s.median,
        s.tries
    ));
}

/// Parses one timing value (a stats object).
fn parse_timing(name: &str, val: &Value) -> Result<TimingStats, String> {
    let want_f64 = |key: &str| -> Result<f64, String> {
        val.get(key)
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("timing '{name}' missing number '{key}'"))
    };
    let want_u64 = |key: &str| -> Result<u64, String> {
        val.get(key)
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("timing '{name}' missing integer '{key}'"))
    };
    let tries = want_u64("tries")?;
    if tries == 0 {
        return Err(format!("timing '{name}' claims zero tries"));
    }
    Ok(TimingStats {
        mean: want_f64("mean")?,
        stddev: want_f64("stddev")?,
        min: want_u64("min")?,
        max: want_u64("max")?,
        median: want_u64("median")?,
        tries,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunRecord {
        RunRecord {
            dataset: "g500-s8".into(),
            algorithm: "2d".into(),
            ranks: 16,
            config: "default".into(),
            triangles: 12345,
            counters: [("tct.ops".to_string(), 777u64), ("mps.bytes_sent".to_string(), 4096)]
                .into_iter()
                .collect(),
            timings_ns: [(
                "tct.wall_ns".to_string(),
                TimingStats::from_samples(&[1_000_000, 1_100_000, 900_000]).unwrap(),
            )]
            .into_iter()
            .collect(),
        }
    }

    #[test]
    fn run_record_round_trips() {
        let rec = sample();
        let line = rec.to_json_line();
        assert!(line.contains("\"schema\":\"tc-run-v2\""));
        let back = RunRecord::parse_jsonl(&line).unwrap();
        assert_eq!(back, vec![rec]);
    }

    #[test]
    fn a_row_without_a_counters_object_is_a_parse_error() {
        let line = sample().to_json_line();
        let start = line.find("\"counters\"").unwrap();
        let end = line.find("\"timings_ns\"").unwrap();
        for broken in [r#""counters":[1,2],"#, r#""counters":7,"#, ""] {
            let bad = format!("{}{broken}{}", &line[..start], &line[end..]);
            let err = RunRecord::parse_jsonl(&bad).unwrap_err();
            assert!(err.contains("line 1") && err.contains("no 'counters' object"), "{err}");
        }
        // A bare number is not a timing, and a `tc-run-v1` line is a
        // foreign line like any other.
        let bare =
            line.replace("\"timings_ns\":{\"tct.wall_ns\":{", "\"timings_ns\":{\"x\":5,\"y\":{");
        assert!(RunRecord::parse_jsonl(&bare).unwrap_err().contains("timing 'x'"));
        let v1 = line.replace("tc-run-v2", "tc-run-v1");
        assert_eq!(RunRecord::parse_jsonl(&v1).unwrap(), vec![]);
    }

    #[test]
    fn key_includes_all_match_fields() {
        assert_eq!(sample().key(), "g500-s8/2d/p16/default");
    }

    #[test]
    fn from_snapshot_splits_timings_from_counters() {
        let mut snap = MetricsSnapshot::new();
        for rank in 0..2usize {
            snap.insert(rank, "tct.ops".into(), MetricValue::Counter(100));
            snap.insert(rank, "tct.wall_ns".into(), MetricValue::Counter(5_000));
            snap.insert(rank, "tct.hash_slots".into(), MetricValue::Gauge(64 * (rank as u64 + 1)));
            let mut bytes = crate::Log2Histogram::new();
            bytes.record(1024);
            snap.insert(rank, "tct.shift_bytes".into(), MetricValue::Hist(bytes));
            let mut lat = crate::Log2Histogram::new();
            lat.record(700);
            snap.insert(rank, "tct.shift_compute_ns".into(), MetricValue::Hist(lat));
        }
        let rec = RunRecord::from_snapshot("g500-s8", "2d", 2, "default", 9, &snap);
        assert_eq!(rec.key(), "g500-s8/2d/p2/default");
        assert_eq!(rec.counters.get("tct.ops"), Some(&200));
        assert_eq!(rec.counters.get("tct.hash_slots"), Some(&128), "gauge takes max");
        assert_eq!(rec.counters.get("tct.shift_bytes.count"), Some(&2));
        assert_eq!(rec.counters.get("tct.shift_bytes.sum"), Some(&2048));
        // A timing histogram's sample count is deterministic and joins
        // the counters; the summed nanoseconds stay a timing.
        assert_eq!(rec.counters.get("tct.shift_compute_ns.count"), Some(&2));
        assert_eq!(rec.timings_ns.get("tct.wall_ns"), Some(&TimingStats::from_single(10_000)));
        assert_eq!(
            rec.timings_ns.get("tct.shift_compute_ns.sum"),
            Some(&TimingStats::from_single(1400))
        );
        assert!(!rec.counters.contains_key("tct.wall_ns"));
        assert!(!rec.timings_ns.contains_key("tct.ops"));
    }

    #[test]
    fn aggregate_summarizes_timings_and_guards_determinism() {
        let mut tries = Vec::new();
        for wall in [100u64, 110, 90] {
            let mut r = sample();
            r.timings_ns =
                [("tct.wall_ns".to_string(), TimingStats::from_single(wall * 1_000_000))]
                    .into_iter()
                    .collect();
            tries.push(r);
        }
        let agg = RunRecord::aggregate(&tries).unwrap();
        let t = agg.timings_ns.get("tct.wall_ns").unwrap();
        assert_eq!(t.tries, 3);
        assert_eq!(t.median, 100 * 1_000_000);
        assert_eq!(t.min, 90 * 1_000_000);
        assert_eq!(t.max, 110 * 1_000_000);
        assert!((t.mean - 100.0 * 1e6).abs() < 1e-3);
        // Counter drift across tries is an error naming the counter.
        let mut bad = tries.clone();
        bad[1].counters.insert("tct.ops".into(), 778);
        let err = RunRecord::aggregate(&bad).unwrap_err();
        assert!(err.contains("tct.ops"), "{err}");
        // Triangle drift too.
        let mut bad = tries.clone();
        bad[2].triangles = 1;
        assert!(RunRecord::aggregate(&bad).unwrap_err().contains("triangle"));
        assert!(RunRecord::aggregate(&[]).is_err());
    }

    #[test]
    fn parse_jsonl_skips_foreign_lines_but_rejects_garbage() {
        let mixed = format!(
            "{}\n{{\"title\":\"Table 2\",\"columns\":[],\"rows\":[]}}\n\n{}\n",
            sample().to_json_line(),
            sample().to_json_line()
        );
        assert_eq!(RunRecord::parse_jsonl(&mixed).unwrap().len(), 2);
        assert!(RunRecord::parse_jsonl("not json\n").is_err());
    }
}
