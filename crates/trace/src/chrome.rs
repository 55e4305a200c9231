//! Chrome Trace Event Format export and validation.
//!
//! The emitted file is the JSON-object form of the
//! [Trace Event Format](https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU)
//! (`{"traceEvents": [...]}`) and opens directly in
//! <https://ui.perfetto.dev> or `chrome://tracing`. Ranks map to
//! threads of a single process (`pid` 0, `tid` = rank), so the viewer
//! shows one horizontal lane per rank; spans become complete events
//! (`ph: "X"`), instants become `ph: "i"`, and per-rank metadata
//! events name each lane `rank N`.
//!
//! Span CPU time is exported as an `args.cpu_us` member, so the wall
//! bar and the CPU cost are both visible when a slice is selected.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use crate::event::{ArgValue, EventKind};
use crate::session::Trace;
use tc_metrics::json::{self, escape_into, fmt_f64, Value};

/// Renders a finished trace as a Chrome-trace-event JSON document.
pub fn to_chrome_json(trace: &Trace) -> String {
    to_chrome_json_with_metadata(trace, &[])
}

/// [`to_chrome_json`] with extra top-level document members: each
/// `(key, value)` pair is embedded verbatim, so `value` must already
/// be serialized JSON. This is how producers attach sidecar data —
/// e.g. a `tc-metrics` snapshot under a `"tcMetrics"` key — without
/// this crate knowing their schema. Trace viewers ignore unknown
/// members, and [`validate`] only reads `traceEvents`.
pub fn to_chrome_json_with_metadata(trace: &Trace, metadata: &[(&str, &str)]) -> String {
    let mut out = String::with_capacity(256 + trace.events.len() * 128);
    out.push_str("{\"traceEvents\":[");
    let mut first = true;
    let mut sep = |out: &mut String| {
        if first {
            first = false;
        } else {
            out.push(',');
        }
        out.push_str("\n  ");
    };
    // Lane metadata: name the process and each rank's thread.
    sep(&mut out);
    out.push_str(
        "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":0,\"tid\":0,\
         \"args\":{\"name\":\"tc ranks\"}}",
    );
    for rank in trace.ranks() {
        sep(&mut out);
        let _ = write!(
            out,
            "{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":0,\"tid\":{rank},\
             \"args\":{{\"name\":\"rank {rank}\"}}}}"
        );
        // Sort lanes by rank rather than registration order.
        sep(&mut out);
        let _ = write!(
            out,
            "{{\"ph\":\"M\",\"name\":\"thread_sort_index\",\"pid\":0,\"tid\":{rank},\
             \"args\":{{\"sort_index\":{rank}}}}}"
        );
    }
    for ev in &trace.events {
        sep(&mut out);
        let ts_us = ev.ts_ns as f64 / 1e3;
        match ev.kind {
            EventKind::Span => {
                let dur_us = ev.dur_ns as f64 / 1e3;
                out.push_str("{\"ph\":\"X\",\"name\":");
                push_str_lit(&mut out, ev.name);
                out.push_str(",\"cat\":");
                push_str_lit(&mut out, ev.cat.as_str());
                let _ = write!(
                    out,
                    ",\"pid\":0,\"tid\":{tid},\"ts\":{ts},\"dur\":{dur},\"args\":{{\"cpu_us\":{cpu}",
                    tid = ev.rank,
                    ts = fmt_f64(ts_us),
                    dur = fmt_f64(dur_us),
                    cpu = fmt_f64(ev.cpu_ns as f64 / 1e3),
                );
                write_args(&mut out, &ev.args, false);
                out.push_str("}}");
            }
            EventKind::Instant => {
                out.push_str("{\"ph\":\"i\",\"s\":\"t\",\"name\":");
                push_str_lit(&mut out, ev.name);
                out.push_str(",\"cat\":");
                push_str_lit(&mut out, ev.cat.as_str());
                let _ = write!(
                    out,
                    ",\"pid\":0,\"tid\":{tid},\"ts\":{ts},\"args\":{{",
                    tid = ev.rank,
                    ts = fmt_f64(ts_us),
                );
                write_args(&mut out, &ev.args, true);
                out.push_str("}}");
            }
        }
    }
    let _ = write!(
        out,
        "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{{\"dropped_events\":{}}}",
        trace.dropped
    );
    for (key, value) in metadata {
        out.push(',');
        push_str_lit(&mut out, key);
        out.push(':');
        out.push_str(value);
    }
    out.push('}');
    out
}

fn write_args(out: &mut String, args: &[(&'static str, ArgValue)], mut first: bool) {
    for (k, v) in args {
        if !first {
            out.push(',');
        }
        first = false;
        push_str_lit(out, k);
        out.push(':');
        match v {
            ArgValue::U64(n) => {
                let _ = write!(out, "{n}");
            }
            ArgValue::F64(n) => out.push_str(&fmt_f64(*n)),
            ArgValue::Str(s) => push_str_lit(out, s),
        }
    }
}

/// Appends `s` as a JSON string literal, quotes included.
fn push_str_lit(out: &mut String, s: &str) {
    out.push('"');
    escape_into(out, s);
    out.push('"');
}

/// Writes [`to_chrome_json`] output to `path`.
pub fn write_chrome_json(trace: &Trace, path: &Path) -> std::io::Result<()> {
    write_chrome_json_with_metadata(trace, path, &[])
}

/// Writes [`to_chrome_json_with_metadata`] output to `path`.
pub fn write_chrome_json_with_metadata(
    trace: &Trace,
    path: &Path,
    metadata: &[(&str, &str)],
) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    std::fs::write(path, to_chrome_json_with_metadata(trace, metadata))
}

/// What [`validate`] found in a Chrome trace document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChromeSummary {
    /// Distinct rank lanes (`tid`s) that carry at least one span or
    /// instant, ascending.
    pub ranks: Vec<usize>,
    /// Complete (`ph: "X"`) events.
    pub spans: usize,
    /// Instant (`ph: "i"`) events.
    pub instants: usize,
    /// Span count per event name.
    pub spans_by_name: BTreeMap<String, usize>,
}

/// Parses `input` and checks it is structurally a Chrome trace-event
/// document this crate could have produced: a `traceEvents` array
/// whose members each have `ph`/`name`/`pid`/`tid`, with `ts` and
/// (for `"X"`) a non-negative `dur`. Returns a summary of the lanes
/// and events found.
pub fn validate(input: &str) -> Result<ChromeSummary, String> {
    let doc = json::parse(input)?;
    let events = doc
        .get("traceEvents")
        .ok_or("missing \"traceEvents\" member")?
        .as_arr()
        .ok_or("\"traceEvents\" is not an array")?;
    let mut summary =
        ChromeSummary { ranks: Vec::new(), spans: 0, instants: 0, spans_by_name: BTreeMap::new() };
    for (i, ev) in events.iter().enumerate() {
        if ev.as_obj().is_none() {
            return Err(format!("event {i} is not an object"));
        }
        let ph = ev
            .get("ph")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("event {i} has no \"ph\""))?;
        let name = ev
            .get("name")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("event {i} has no \"name\""))?;
        let tid = ev
            .get("tid")
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("event {i} has no numeric \"tid\""))?;
        if ev.get("pid").and_then(Value::as_f64).is_none() {
            return Err(format!("event {i} has no numeric \"pid\""));
        }
        if tid < 0.0 || tid.fract() != 0.0 {
            return Err(format!("event {i} has non-integral tid {tid}"));
        }
        match ph {
            "M" => {} // metadata carries no ts
            "X" => {
                let ts = ev
                    .get("ts")
                    .and_then(Value::as_f64)
                    .ok_or_else(|| format!("event {i} ({name}) has no numeric \"ts\""))?;
                let dur = ev
                    .get("dur")
                    .and_then(Value::as_f64)
                    .ok_or_else(|| format!("event {i} ({name}) has no numeric \"dur\""))?;
                if ts < 0.0 || dur < 0.0 {
                    return Err(format!("event {i} ({name}) has negative ts/dur"));
                }
                summary.spans += 1;
                *summary.spans_by_name.entry(name.to_string()).or_insert(0) += 1;
                summary.ranks.push(tid as usize);
            }
            "i" => {
                if ev.get("ts").and_then(Value::as_f64).is_none() {
                    return Err(format!("event {i} ({name}) has no numeric \"ts\""));
                }
                summary.instants += 1;
                summary.ranks.push(tid as usize);
            }
            other => return Err(format!("event {i} has unsupported ph {other:?}")),
        }
    }
    summary.ranks.sort_unstable();
    summary.ranks.dedup();
    if summary.spans == 0 && summary.instants == 0 {
        return Err("trace contains no span or instant events: the run recorded nothing. \
             This usually means the instrumented code ran before the TraceSession \
             began (the global enable atomic was still zero) or the session was \
             finished before any instrumented code executed"
            .into());
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Category, Event};

    fn ev(rank: usize, name: &'static str, kind: EventKind, ts: u64, dur: u64) -> Event {
        Event {
            rank,
            name,
            cat: Category::Phase,
            kind,
            ts_ns: ts,
            dur_ns: dur,
            cpu_ns: dur / 2,
            args: vec![("z", ArgValue::U64(1)), ("lbl", ArgValue::Str("a\"b".into()))],
        }
    }

    fn sample() -> Trace {
        Trace {
            events: vec![
                ev(0, "ppt", EventKind::Span, 100, 1_000),
                ev(1, "tct", EventKind::Span, 200, 2_000),
                ev(0, "mark", EventKind::Instant, 300, 0),
            ],
            dropped: 0,
        }
    }

    #[test]
    fn export_validates_and_summarizes() {
        let json = to_chrome_json(&sample());
        let summary = validate(&json).unwrap();
        assert_eq!(summary.ranks, vec![0, 1]);
        assert_eq!(summary.spans, 2);
        assert_eq!(summary.instants, 1);
        assert_eq!(summary.spans_by_name.get("ppt"), Some(&1));
    }

    #[test]
    fn export_is_well_formed_json_with_lane_metadata() {
        let json = to_chrome_json(&sample());
        let doc = json::parse(&json).unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let names: Vec<&str> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Value::as_str) == Some("M"))
            .filter_map(|e| e.get("args")?.get("name")?.as_str())
            .collect();
        assert!(names.contains(&"rank 0"), "{names:?}");
        assert!(names.contains(&"rank 1"), "{names:?}");
        // cpu_us rides along on spans.
        let span =
            events.iter().find(|e| e.get("ph").and_then(Value::as_str) == Some("X")).unwrap();
        assert!(span.get("args").unwrap().get("cpu_us").unwrap().as_f64().is_some());
    }

    #[test]
    fn empty_trace_is_a_hard_validation_error() {
        let json = to_chrome_json(&Trace { events: vec![], dropped: 0 });
        let err = validate(&json).unwrap_err();
        assert!(err.contains("enable atomic"), "{err}");
    }

    #[test]
    fn metadata_members_are_embedded_and_ignored_by_validate() {
        let snap = r#"{"schema":"tc-metrics-v1","ranks":[]}"#;
        let json = to_chrome_json_with_metadata(&sample(), &[("tcMetrics", snap)]);
        let doc = json::parse(&json).unwrap();
        assert_eq!(
            doc.get("tcMetrics").and_then(|m| m.get("schema")).and_then(Value::as_str),
            Some("tc-metrics-v1")
        );
        let summary = validate(&json).unwrap();
        assert_eq!(summary.spans, 2);
    }

    #[test]
    fn validate_rejects_malformed_documents() {
        assert!(validate("not json").is_err());
        assert!(validate("{}").is_err());
        assert!(validate(r#"{"traceEvents":{}}"#).is_err());
        assert!(validate(r#"{"traceEvents":[{"ph":"X"}]}"#).is_err());
        assert!(validate(
            r#"{"traceEvents":[{"ph":"X","name":"a","pid":0,"tid":0,"ts":-1,"dur":1}]}"#
        )
        .is_err());
    }
}
