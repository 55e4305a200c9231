//! What a run prints and keeps: the metric table for people, the one
//! JSON line the benchmark contract asks for, and the run artefact
//! with the recorded environment and every failure's stderr.

use std::fmt::Write as _;
use std::path::Path;
use std::process::Command;

use crate::stats::Summary;

/// One reported number: the value is the summary's median.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub summary: Summary,
}

impl Metric {
    pub fn new(name: &str, unit: &'static str, summary: Summary) -> Metric {
        Metric { name: name.to_string(), unit, summary }
    }

    pub fn value(&self) -> f64 {
        self.summary.median
    }
}

/// A failed operation, kept for the artefact.
#[derive(Debug, Clone)]
pub struct Failure {
    pub what: String,
    pub stderr: String,
}

/// The result of one workload run.
#[derive(Debug)]
pub struct Outcome {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub failures: Vec<Failure>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

fn json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A finite JSON number with all its digits.
fn json_number(v: f64) -> String {
    assert!(v.is_finite(), "metric value {v} is not a finite number");
    format!("{v}")
}

/// The contract's last stdout line: exactly `correct`, `attempted`,
/// `failed` and `metrics` (name → value and unit).
pub fn result_line(o: &Outcome) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        o.correct(),
        o.attempted.max(1),
        o.failed
    );
    for (i, m) in o.metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        json_string(&mut out, &m.name);
        let _ = write!(out, ": {{\"value\": {}, \"unit\": ", json_number(m.value()));
        json_string(&mut out, m.unit);
        out.push('}');
    }
    out.push_str("}}");
    out
}

/// The table for people: every metric by name with unit, median,
/// spread (interquartile distance over the median) and sample count.
pub fn table(o: &Outcome) -> String {
    let mut out = format!(
        "## {} (seed {}, {} s, {})\n{:<34} {:>8} {:>14} {:>8} {:>7} {:>14} {:>14}\n",
        o.workload,
        o.seed,
        o.seconds,
        if o.traced { "traced pass: per-layer" } else { "tracing off: end-to-end" },
        "metric",
        "unit",
        "median",
        "spread",
        "n",
        "min",
        "max"
    );
    for m in &o.metrics {
        let s = &m.summary;
        let _ = writeln!(
            out,
            "{:<34} {:>8} {:>14.6} {:>7.2}% {:>7} {:>14.6} {:>14.6}",
            m.name,
            m.unit,
            s.median,
            100.0 * s.spread(),
            s.n,
            s.min,
            s.max
        );
    }
    let _ = writeln!(
        out,
        "{:<34} {:>8} {:>14.6} {:>8} {:>7}   ({} failed of {} attempted)",
        "error_rate",
        "ratio",
        o.error_rate(),
        "",
        o.attempted,
        o.failed,
        o.attempted
    );
    out
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The recorded environment: commit (unknown outside a git checkout),
/// compiler and core count.
pub fn environment() -> Vec<(&'static str, String)> {
    vec![
        ("commit", command_line("git", &["rev-parse", "HEAD"])),
        ("rustc", command_line("rustc", &["-V"])),
        ("nproc", std::thread::available_parallelism().map_or(0, |p| p.get()).to_string()),
    ]
}

/// The run artefact: environment, seed, every metric with its summary,
/// and every failure with the stderr of the processes involved.
pub fn artefact(o: &Outcome, env: &[(&'static str, String)]) -> String {
    let mut out = String::from("{\"schema\": \"tc-benchmark-v1\", \"workload\": ");
    json_string(&mut out, o.workload);
    let _ = write!(
        out,
        ", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"env\": {{",
        o.seed,
        json_number(o.seconds),
        u8::from(o.traced)
    );
    for (i, (k, v)) in env.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        json_string(&mut out, k);
        out.push_str(": ");
        json_string(&mut out, v);
    }
    let _ = write!(
        out,
        "}}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"error_rate\": {}, \"metrics\": {{",
        o.correct(),
        o.attempted,
        o.failed,
        json_number(o.error_rate())
    );
    for (i, m) in o.metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        json_string(&mut out, &m.name);
        let s = &m.summary;
        let _ = write!(out, ": {{\"value\": {}, \"unit\": ", json_number(m.value()));
        json_string(&mut out, m.unit);
        let _ = write!(
            out,
            ", \"n\": {}, \"q1\": {}, \"q3\": {}, \"min\": {}, \"max\": {}, \"spread\": {}}}",
            s.n,
            json_number(s.q1),
            json_number(s.q3),
            json_number(s.min),
            json_number(s.max),
            json_number(s.spread())
        );
    }
    out.push_str("}, \"failures\": [");
    for (i, f) in o.failures.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str("{\"what\": ");
        json_string(&mut out, &f.what);
        out.push_str(", \"stderr\": ");
        json_string(&mut out, &f.stderr);
        out.push('}');
    }
    out.push_str("]}\n");
    out
}

pub fn write_artefact(
    dir: &Path,
    o: &Outcome,
    env: &[(&'static str, String)],
) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let name = format!("{}-seed{}-trace{}.json", o.workload, o.seed, u8::from(o.traced));
    std::fs::write(dir.join(name), artefact(o, env))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome() -> Outcome {
        Outcome {
            workload: "rmat-local",
            seed: 3,
            seconds: 10.0,
            traced: false,
            attempted: 9,
            failed: 0,
            metrics: vec![
                Metric::new("wall_s", "s", Summary::of(&[1.5, 1.25, 1.75])),
                Metric::new("setup_s", "s", Summary::single(0.8127)),
            ],
            failures: Vec::new(),
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        assert_eq!(
            result_line(&outcome()),
            "{\"correct\": true, \"attempted\": 9, \"failed\": 0, \"metrics\": {\
             \"wall_s\": {\"value\": 1.5, \"unit\": \"s\"}, \
             \"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}"
        );
        let mut bad = outcome();
        bad.failed = 2;
        assert!(
            result_line(&bad).starts_with("{\"correct\": false, \"attempted\": 9, \"failed\": 2,")
        );
        assert!((bad.error_rate() - 2.0 / 9.0).abs() < 1e-12);
    }

    #[test]
    fn artefact_records_environment_and_escapes_stderr() {
        let mut o = outcome();
        o.failed = 1;
        o.failures
            .push(Failure { what: "launch 3".into(), stderr: "line \"1\"\nline 2\t\\".into() });
        let text = artefact(&o, &[("commit", "abc".into()), ("nproc", "2".into())]);
        assert!(text.starts_with("{\"schema\": \"tc-benchmark-v1\", \"workload\": \"rmat-local\""));
        assert!(text.contains("\"env\": {\"commit\": \"abc\", \"nproc\": \"2\"}"));
        assert!(text.contains("\"seed\": 3, \"seconds\": 10, \"trace\": 0"));
        assert!(text.contains("\"stderr\": \"line \\\"1\\\"\\nline 2\\t\\\\\""));
        assert!(
            text.contains("\"wall_s\": {\"value\": 1.5, \"unit\": \"s\", \"n\": 3, \"q1\": 1.25")
        );
        assert!(text.ends_with("]}\n"));
    }

    #[test]
    fn table_names_every_metric_with_unit_spread_and_n() {
        let t = table(&outcome());
        let wall = t.lines().find(|l| l.starts_with("wall_s")).unwrap();
        assert!(
            wall.contains(" s ") && wall.contains("1.500000") && wall.contains("33.33%"),
            "{wall}"
        );
        assert!(t.lines().any(|l| l.starts_with("error_rate")));
    }
}
