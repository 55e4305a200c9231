//! `benchdiff`: noise-aware comparison of benchmark reports.
//!
//! Runs are matched by their `(dataset, algorithm, ranks, config)`
//! key. Two regimes apply:
//!
//! - **deterministic quantities** (triangle counts and every entry in
//!   `counters`: ops, probes, bytes, tasks, …) must match *exactly* —
//!   the generators are seeded and the kernels deterministic, so any
//!   drift is a real behavior change, not noise;
//! - **timings** with repeat tries on both sides get an effect-size
//!   verdict: a change only fails when the means are separated by
//!   more than `--sigmas` combined standard errors (Welch's t — the
//!   `mean ± k·se` intervals are disjoint) *and* the relative shift
//!   exceeds `--min-effect`. Single-shot rows (tries = 1, e.g. from a
//!   legacy `tc-run-v1` baseline) fall back to the fixed `--tol`
//!   band on medians, and sub-threshold durations are ignored
//!   entirely — wall clocks on shared CI runners are noisy.
//!
//! The driver ([`cli_main`]) backs both the `benchdiff` binary in
//! `tc-bench` and the `tricount benchdiff` subcommand. With
//! `--history` it also appends each blessed candidate's timing rows
//! to the per-commit trend log that `tricount perftrend` renders.

use std::collections::BTreeMap;

use crate::report::RunRecord;
use crate::stats::{self, TimingStats};

/// Comparison tunables.
#[derive(Debug, Clone)]
pub struct DiffOptions {
    /// Relative tolerance for timing regressions (0.25 = +25%) —
    /// the fallback rule for rows without spread (tries = 1).
    pub tolerance: f64,
    /// Skip timing comparison entirely (cross-machine baselines).
    pub deterministic_only: bool,
    /// Timings where both means are below this are never compared.
    pub min_timing_ns: u64,
    /// Effect-size rule: a shift must exceed this many combined
    /// standard errors (Welch's t) to count at all.
    pub sigmas: f64,
    /// Effect-size rule: and the relative mean shift must exceed this
    /// fraction (statistically significant but trivial shifts pass).
    pub min_effect: f64,
}

impl Default for DiffOptions {
    fn default() -> Self {
        Self {
            tolerance: 0.25,
            deterministic_only: false,
            min_timing_ns: 1_000_000,
            sigmas: 3.0,
            min_effect: 0.02,
        }
    }
}

/// Outcome of one comparison row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowStatus {
    Pass,
    /// Passed, and meaningfully faster than baseline.
    Improved,
    Fail,
}

impl RowStatus {
    fn label(self) -> &'static str {
        match self {
            RowStatus::Pass => "ok",
            RowStatus::Improved => "improved",
            RowStatus::Fail => "FAIL",
        }
    }
}

/// One comparison result line.
#[derive(Debug, Clone)]
pub struct DiffRow {
    pub key: String,
    pub metric: String,
    pub base: String,
    pub cand: String,
    pub status: RowStatus,
    pub note: String,
}

/// The full comparison outcome.
#[derive(Debug, Clone, Default)]
pub struct DiffReport {
    pub rows: Vec<DiffRow>,
    /// Keys present in both reports.
    pub compared: usize,
    /// Failing rows.
    pub failures: usize,
}

impl DiffReport {
    /// Overall verdict: no failures and at least one key compared.
    pub fn pass(&self) -> bool {
        self.failures == 0 && self.compared > 0
    }

    fn verdict(&self) -> &'static str {
        if self.pass() {
            "PASS"
        } else {
            "FAIL"
        }
    }

    /// Human-readable table plus verdict line.
    pub fn render(&self) -> String {
        let headers = ["run", "metric", "baseline", "candidate", "status", "note"];
        let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
        let cells: Vec<[String; 6]> = self
            .rows
            .iter()
            .map(|r| {
                [
                    r.key.clone(),
                    r.metric.clone(),
                    r.base.clone(),
                    r.cand.clone(),
                    r.status.label().to_string(),
                    r.note.clone(),
                ]
            })
            .collect();
        for row in &cells {
            for (w, c) in widths.iter_mut().zip(row.iter()) {
                *w = (*w).max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cols: &[&str], widths: &[usize]| -> String {
            let mut line = String::new();
            for (i, (c, w)) in cols.iter().zip(widths.iter()).enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                line.push_str(&format!("{c:<w$}"));
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &cells {
            let refs: Vec<&str> = row.iter().map(String::as_str).collect();
            out.push_str(&fmt_row(&refs, &widths));
            out.push('\n');
        }
        out.push_str(&format!(
            "benchdiff: {} ({} runs compared, {} failure{})\n",
            self.verdict(),
            self.compared,
            self.failures,
            if self.failures == 1 { "" } else { "s" }
        ));
        out
    }

    /// Machine-readable verdict document.
    pub fn verdict_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\"schema\":\"tc-benchdiff-v1\",\"verdict\":\"");
        out.push_str(self.verdict());
        out.push_str(&format!(
            "\",\"compared\":{},\"failures\":{},\"rows\":[",
            self.compared, self.failures
        ));
        let mut first = true;
        for r in self.rows.iter().filter(|r| r.status == RowStatus::Fail) {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str("{\"run\":\"");
            crate::json::escape_into(&mut out, &r.key);
            out.push_str("\",\"metric\":\"");
            crate::json::escape_into(&mut out, &r.metric);
            out.push_str("\",\"baseline\":\"");
            crate::json::escape_into(&mut out, &r.base);
            out.push_str("\",\"candidate\":\"");
            crate::json::escape_into(&mut out, &r.cand);
            out.push_str("\",\"note\":\"");
            crate::json::escape_into(&mut out, &r.note);
            out.push_str("\"}");
        }
        out.push_str("]}");
        out
    }
}

/// Groups records by run key, preserving repeat order.
fn group(records: &[RunRecord]) -> BTreeMap<String, Vec<&RunRecord>> {
    let mut out: BTreeMap<String, Vec<&RunRecord>> = BTreeMap::new();
    for r in records {
        out.entry(r.key()).or_default().push(r);
    }
    out
}

/// Pools the timing `name` across repeat records of one key, if any
/// repeat has it.
fn pooled_timing(repeats: &[&RunRecord], name: &str) -> Option<TimingStats> {
    let parts: Vec<TimingStats> =
        repeats.iter().filter_map(|r| r.timings_ns.get(name).copied()).collect();
    TimingStats::pool(&parts)
}

/// The timing verdict: effect size when both sides carry spread,
/// fixed relative band on medians otherwise.
fn timing_verdict(
    base: &TimingStats,
    cand: &TimingStats,
    opts: &DiffOptions,
) -> (RowStatus, String) {
    if let Some(t) = stats::welch_t(base, cand) {
        let rel = (cand.mean - base.mean) / base.mean.max(1.0);
        if t > opts.sigmas && rel > opts.min_effect {
            (
                RowStatus::Fail,
                format!("+{:.1}% slower (t={:.1} > {:.1}σ)", rel * 100.0, t, opts.sigmas),
            )
        } else if t < -opts.sigmas && rel < -opts.min_effect {
            (RowStatus::Improved, format!("{:.1}% (t={:.1})", rel * 100.0, t))
        } else {
            (RowStatus::Pass, format!("indistinguishable (t={t:.1})"))
        }
    } else {
        let (bm, cm) = (base.median, cand.median);
        let delta = (cm as f64 - bm as f64) / (bm.max(1) as f64);
        if delta > opts.tolerance {
            (
                RowStatus::Fail,
                format!("+{:.1}% exceeds ±{:.0}% tolerance", delta * 100.0, opts.tolerance * 100.0),
            )
        } else if delta < -opts.tolerance {
            (RowStatus::Improved, format!("{:.1}%", delta * 100.0))
        } else {
            (RowStatus::Pass, String::new())
        }
    }
}

/// Checks that every repeat of one key agrees on a deterministic
/// quantity; returns the agreed value or an error note.
fn agreed<'a, T: PartialEq + Copy + std::fmt::Display>(
    repeats: &[&'a RunRecord],
    get: impl Fn(&'a RunRecord) -> Option<T>,
) -> Result<Option<T>, String> {
    let mut found: Option<T> = None;
    for &r in repeats {
        match (found, get(r)) {
            (None, v) => found = v,
            (Some(a), Some(b)) if a != b => {
                return Err(format!("nondeterministic across repeats ({a} vs {b})"));
            }
            _ => {}
        }
    }
    Ok(found)
}

/// Compares `cand` against `base`.
pub fn diff_reports(base: &[RunRecord], cand: &[RunRecord], opts: &DiffOptions) -> DiffReport {
    let base_runs = group(base);
    let cand_runs = group(cand);
    let mut report = DiffReport::default();
    let mut push = |report: &mut DiffReport, row: DiffRow| {
        if row.status == RowStatus::Fail {
            report.failures += 1;
        }
        report.rows.push(row);
    };
    for (key, b) in &base_runs {
        let Some(c) = cand_runs.get(key) else {
            push(
                &mut report,
                DiffRow {
                    key: key.clone(),
                    metric: "<run>".into(),
                    base: "present".into(),
                    cand: "missing".into(),
                    status: RowStatus::Fail,
                    note: "run missing from candidate report".into(),
                },
            );
            continue;
        };
        report.compared += 1;
        let mut ok_counters = 0usize;
        let mut ok_timings = 0usize;

        // Triangle counts: the correctness anchor, exact.
        compare_exact(
            &mut report,
            &mut push,
            &mut ok_counters,
            key,
            "triangles",
            agreed(b, |r| Some(r.triangles)),
            agreed(c, |r| Some(r.triangles)),
        );

        // Deterministic counters: exact, and the candidate must still
        // report everything the baseline did.
        let mut names: Vec<&String> = b[0].counters.keys().collect();
        names.sort_unstable();
        for name in names {
            compare_exact(
                &mut report,
                &mut push,
                &mut ok_counters,
                key,
                name,
                agreed(b, |r| r.counters.get(name.as_str()).copied()),
                agreed(c, |r| r.counters.get(name.as_str()).copied()),
            );
        }

        // Timings: effect size (or the tolerance fallback).
        if !opts.deterministic_only {
            let mut tnames: Vec<&String> = b[0].timings_ns.keys().collect();
            tnames.sort_unstable();
            for name in tnames {
                let (Some(bs), Some(cs)) = (pooled_timing(b, name), pooled_timing(c, name)) else {
                    continue;
                };
                if bs.mean.max(cs.mean) < opts.min_timing_ns as f64 {
                    ok_timings += 1;
                    continue;
                }
                let (status, note) = timing_verdict(&bs, &cs, opts);
                if status == RowStatus::Pass {
                    ok_timings += 1;
                } else {
                    push(
                        &mut report,
                        DiffRow {
                            key: key.clone(),
                            metric: name.clone(),
                            base: bs.fmt_ms(),
                            cand: cs.fmt_ms(),
                            status,
                            note,
                        },
                    );
                }
            }
        }

        push(
            &mut report,
            DiffRow {
                key: key.clone(),
                metric: "<summary>".into(),
                base: String::new(),
                cand: String::new(),
                status: RowStatus::Pass,
                note: format!("{ok_counters} deterministic exact, {ok_timings} timings in band"),
            },
        );
    }
    for key in cand_runs.keys() {
        if !base_runs.contains_key(key) {
            report.rows.push(DiffRow {
                key: key.clone(),
                metric: "<run>".into(),
                base: "missing".into(),
                cand: "present".into(),
                status: RowStatus::Pass,
                note: "new run (not in baseline)".into(),
            });
        }
    }
    report
}

#[allow(clippy::too_many_arguments)]
fn compare_exact(
    report: &mut DiffReport,
    push: &mut impl FnMut(&mut DiffReport, DiffRow),
    ok_count: &mut usize,
    key: &str,
    name: &str,
    base: Result<Option<u64>, String>,
    cand: Result<Option<u64>, String>,
) {
    let fail = |b: String, c: String, note: String| DiffRow {
        key: key.to_string(),
        metric: name.to_string(),
        base: b,
        cand: c,
        status: RowStatus::Fail,
        note,
    };
    match (base, cand) {
        (Err(note), _) => push(report, fail("?".into(), String::new(), format!("baseline {note}"))),
        (_, Err(note)) => {
            push(report, fail(String::new(), "?".into(), format!("candidate {note}")))
        }
        (Ok(Some(b)), Ok(Some(c))) if b != c => {
            push(report, fail(b.to_string(), c.to_string(), "deterministic counter drift".into()))
        }
        (Ok(Some(_)), Ok(None)) => push(
            report,
            fail("present".into(), "missing".into(), "counter absent from candidate".into()),
        ),
        _ => *ok_count += 1,
    }
}

/// `--refresh`: the baseline text with exactly the counters `names`
/// set to the candidate's values — edited in place inside each row,
/// every other byte kept — and how many values changed. Refuses when
/// any *other* deterministic value differs (or a run is missing): a
/// refresh declares which counters an intentional change may move,
/// and everything else must still be bit-identical.
pub fn refresh_counters(
    base_text: &str,
    cand: &[RunRecord],
    names: &[String],
) -> Result<(String, usize), String> {
    let base = RunRecord::parse_jsonl(base_text)?;
    let exact = DiffOptions { deterministic_only: true, ..DiffOptions::default() };
    let stray: Vec<String> = diff_reports(&base, cand, &exact)
        .rows
        .iter()
        .filter(|r| r.status == RowStatus::Fail && !names.contains(&r.metric))
        .map(|r| format!("  {} {}: {} -> {} ({})", r.key, r.metric, r.base, r.cand, r.note))
        .collect();
    if !stray.is_empty() {
        return Err(format!("values outside --refresh differ:\n{}", stray.join("\n")));
    }
    let cand_runs = group(cand);
    let mut out = String::with_capacity(base_text.len());
    let mut changed = 0usize;
    for line in base_text.split_inclusive('\n') {
        let mut line = line.to_string();
        for rec in RunRecord::parse_jsonl(&line)? {
            let fresh = &cand_runs[&rec.key()];
            for name in names {
                let (Some(&old), Some(new)) =
                    (rec.counters.get(name), agreed(fresh, |r| r.counters.get(name).copied())?)
                else {
                    continue;
                };
                // Counter values are bare integers, so the key with
                // its old value and the delimiter after it occurs once.
                let hit = [',', '}'].into_iter().find_map(|end| {
                    let pat = format!("\"{name}\":{old}{end}");
                    line.find(&pat).map(|at| (at, pat.len(), end))
                });
                let (at, len, end) = hit.ok_or(format!("{}: cannot locate {name}", rec.key()))?;
                line.replace_range(at..at + len, &format!("\"{name}\":{new}{end}"));
                changed += usize::from(old != new);
            }
        }
        out.push_str(&line);
    }
    Ok((out, changed))
}

/// Command-line driver shared by the `benchdiff` binary and the
/// `tricount benchdiff` subcommand. `args` excludes the program /
/// subcommand name. Returns the process exit code.
pub fn cli_main(args: &[String]) -> i32 {
    let mut files: Vec<String> = Vec::new();
    let mut opts = DiffOptions::default();
    let mut verdict_json: Option<String> = None;
    let mut history: Option<String> = None;
    let mut commit: Option<String> = None;
    let mut date: Option<String> = None;
    let mut refresh: Option<Vec<String>> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--tol" | "--tolerance" => {
                let Some(v) = it.next().and_then(|s| s.parse::<f64>().ok()) else {
                    eprintln!("benchdiff: --tol needs a number (e.g. 0.25)");
                    return 2;
                };
                opts.tolerance = v;
            }
            "--min-timing-ms" => {
                let Some(v) = it.next().and_then(|s| s.parse::<f64>().ok()) else {
                    eprintln!("benchdiff: --min-timing-ms needs a number");
                    return 2;
                };
                opts.min_timing_ns = (v * 1e6) as u64;
            }
            "--sigmas" => {
                let Some(v) = it.next().and_then(|s| s.parse::<f64>().ok()).filter(|v| *v > 0.0)
                else {
                    eprintln!("benchdiff: --sigmas needs a positive number (e.g. 3)");
                    return 2;
                };
                opts.sigmas = v;
            }
            "--min-effect" => {
                let Some(v) = it.next().and_then(|s| s.parse::<f64>().ok()).filter(|v| *v >= 0.0)
                else {
                    eprintln!("benchdiff: --min-effect needs a non-negative fraction");
                    return 2;
                };
                opts.min_effect = v;
            }
            "--deterministic-only" => opts.deterministic_only = true,
            "--refresh" => {
                let Some(list) = it.next().filter(|l| !l.is_empty()) else {
                    eprintln!("benchdiff: --refresh needs a comma-separated counter list");
                    return 2;
                };
                refresh = Some(list.split(',').map(str::to_string).collect());
            }
            "--verdict-json" => {
                let Some(p) = it.next() else {
                    eprintln!("benchdiff: --verdict-json needs a path");
                    return 2;
                };
                verdict_json = Some(p.clone());
            }
            "--history" => {
                let Some(p) = it.next() else {
                    eprintln!("benchdiff: --history needs a path");
                    return 2;
                };
                history = Some(p.clone());
            }
            "--commit" => {
                let Some(p) = it.next() else {
                    eprintln!("benchdiff: --commit needs a revision id");
                    return 2;
                };
                commit = Some(p.clone());
            }
            "--date" => {
                let Some(p) = it.next() else {
                    eprintln!("benchdiff: --date needs an ISO date");
                    return 2;
                };
                date = Some(p.clone());
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return 0;
            }
            other if other.starts_with('-') => {
                eprintln!("benchdiff: unknown flag '{other}'\n{USAGE}");
                return 2;
            }
            path => files.push(path.to_string()),
        }
    }
    if files.len() < 2 {
        eprintln!("benchdiff: need a baseline and at least one candidate report\n{USAGE}");
        return 2;
    }
    let load = |path: &str| -> Result<Vec<RunRecord>, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        RunRecord::parse_jsonl(&text).map_err(|e| format!("{path}: {e}"))
    };
    let base = match load(&files[0]) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("benchdiff: {e}");
            return 2;
        }
    };
    let mut cand = Vec::new();
    for path in &files[1..] {
        match load(path) {
            Ok(r) => cand.extend(r),
            Err(e) => {
                eprintln!("benchdiff: {e}");
                return 2;
            }
        }
    }
    if base.is_empty() {
        eprintln!("benchdiff: baseline {} contains no run records", files[0]);
        return 2;
    }
    if history.is_some() && (commit.is_none() || date.is_none()) {
        eprintln!("benchdiff: --history requires --commit and --date");
        return 2;
    }
    if let Some(names) = refresh {
        let refreshed = std::fs::read_to_string(&files[0])
            .map_err(|e| format!("cannot read {}: {e}", files[0]))
            .and_then(|text| refresh_counters(&text, &cand, &names));
        return match refreshed.and_then(|(text, changed)| {
            std::fs::write(&files[0], text)
                .map(|()| changed)
                .map_err(|e| format!("cannot write {}: {e}", files[0]))
        }) {
            Ok(changed) => {
                println!("benchdiff: refreshed {changed} values of {names:?} in {}", files[0]);
                0
            }
            Err(e) => {
                eprintln!("benchdiff: {e}");
                1
            }
        };
    }
    let report = diff_reports(&base, &cand, &opts);
    print!("{}", report.render());
    if let Some(path) = verdict_json {
        if let Err(e) = std::fs::write(&path, report.verdict_json() + "\n") {
            eprintln!("benchdiff: cannot write {path}: {e}");
            return 2;
        }
    }
    if report.pass() {
        if let (Some(path), Some(commit), Some(date)) = (history, commit, date) {
            match crate::trend::append_history(&path, &cand, &commit, &date) {
                Ok(n) => println!("benchdiff: appended {n} history rows to {path}"),
                Err(e) => {
                    eprintln!("benchdiff: {e}");
                    return 2;
                }
            }
        }
        0
    } else {
        1
    }
}

const USAGE: &str = "usage: benchdiff <BASELINE.jsonl> <CANDIDATE.jsonl>... [options]

Compares benchmark run records (schema tc-run-v2, legacy tc-run-v1
accepted) matched by (dataset, algorithm, ranks, config).
Deterministic counters and triangle counts must match exactly.
Timings with repeat tries on both sides use an effect-size verdict
(Welch's t beyond --sigmas AND a relative shift beyond --min-effect);
single-shot rows fall back to the fixed --tol band on medians.

options:
  --tol <frac>            fallback timing tolerance for tries=1 rows
                          (default 0.25 = ±25%)
  --sigmas <k>            effect-size threshold in combined standard
                          errors (default 3)
  --min-effect <frac>     minimum relative shift that counts
                          (default 0.02 = 2%)
  --min-timing-ms <ms>    ignore timings below this (default 1.0)
  --deterministic-only    skip timing comparison (cross-machine)
  --refresh <a,b,...>     rewrite exactly these counters in BASELINE to
                          the candidate's values; exit 1, file untouched,
                          if any other deterministic value differs
  --verdict-json <path>   write machine-readable verdict
  --history <path>        on PASS, append candidate timing rows to
                          this trend log (requires --commit/--date)
  --commit <rev>          commit id recorded in history rows
  --date <iso>            ISO date recorded in history rows
";

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(dataset: &str, ops: u64, wall_ms: u64) -> RunRecord {
        RunRecord {
            dataset: dataset.into(),
            algorithm: "2d".into(),
            ranks: 16,
            config: "default".into(),
            triangles: 999,
            counters: [("tct.ops".to_string(), ops)].into_iter().collect(),
            timings_ns: [("tct.wall".to_string(), TimingStats::from_single(wall_ms * 1_000_000))]
                .into_iter()
                .collect(),
        }
    }

    /// One 5-try record whose wall timing summarizes `wall_ms`.
    fn rec_tries(dataset: &str, wall_ms: &[u64]) -> RunRecord {
        let ns: Vec<u64> = wall_ms.iter().map(|&m| m * 1_000_000).collect();
        let mut r = rec(dataset, 100, wall_ms[0]);
        r.timings_ns = [("tct.wall".to_string(), TimingStats::from_samples(&ns).unwrap())]
            .into_iter()
            .collect();
        r
    }

    #[test]
    fn identical_reports_pass() {
        let base = vec![rec("a", 100, 50), rec("b", 200, 80)];
        let report = diff_reports(&base, &base.clone(), &DiffOptions::default());
        assert!(report.pass(), "{}", report.render());
        assert_eq!(report.compared, 2);
    }

    #[test]
    fn counter_drift_fails_hard() {
        let base = vec![rec("a", 100, 50)];
        let mut cand = base.clone();
        cand[0].counters.insert("tct.ops".into(), 101);
        let report = diff_reports(&base, &cand, &DiffOptions::default());
        assert!(!report.pass());
        assert!(report.render().contains("deterministic counter drift"));
    }

    #[test]
    fn triangle_mismatch_fails_hard() {
        let base = vec![rec("a", 100, 50)];
        let mut cand = base.clone();
        cand[0].triangles = 998;
        let report = diff_reports(&base, &cand, &DiffOptions::default());
        assert!(!report.pass());
    }

    #[test]
    fn timing_regression_beyond_tolerance_fails() {
        let base = vec![rec("a", 100, 100)];
        let cand = vec![rec("a", 100, 140)];
        let report = diff_reports(&base, &cand, &DiffOptions::default());
        assert!(!report.pass(), "{}", report.render());
        assert!(report.render().contains("tolerance"));
        // Same inflation under --deterministic-only is ignored.
        let opts = DiffOptions { deterministic_only: true, ..DiffOptions::default() };
        assert!(diff_reports(&base, &cand, &opts).pass());
    }

    #[test]
    fn timing_within_tolerance_or_below_floor_passes() {
        let base = vec![rec("a", 100, 100)];
        let cand = vec![rec("a", 100, 110)];
        assert!(diff_reports(&base, &cand, &DiffOptions::default()).pass());
        // Sub-floor timings never compare, no matter the ratio.
        let base = vec![rec("a", 100, 0)];
        let cand = vec![rec("a", 100, 0)];
        assert!(diff_reports(&base, &cand, &DiffOptions::default()).pass());
    }

    #[test]
    fn timings_use_median_of_repeats() {
        // Candidate has one noisy outlier; medians still agree.
        let base = vec![rec("a", 100, 100), rec("a", 100, 102), rec("a", 100, 98)];
        let cand = vec![rec("a", 100, 101), rec("a", 100, 400), rec("a", 100, 99)];
        assert!(diff_reports(&base, &cand, &DiffOptions::default()).pass());
    }

    #[test]
    fn nondeterministic_repeats_fail() {
        let base = vec![rec("a", 100, 50)];
        let cand = vec![rec("a", 100, 50), rec("a", 101, 50)];
        let report = diff_reports(&base, &cand, &DiffOptions::default());
        assert!(!report.pass());
        assert!(report.render().contains("nondeterministic"));
    }

    #[test]
    fn missing_run_fails_and_new_run_notes() {
        let base = vec![rec("a", 100, 50)];
        let cand = vec![rec("b", 100, 50)];
        let report = diff_reports(&base, &cand, &DiffOptions::default());
        assert!(!report.pass());
        let text = report.render();
        assert!(text.contains("missing from candidate"), "{text}");
        assert!(text.contains("new run"), "{text}");
    }

    #[test]
    fn missing_counter_in_candidate_fails() {
        let base = vec![rec("a", 100, 50)];
        let mut cand = base.clone();
        cand[0].counters.clear();
        let report = diff_reports(&base, &cand, &DiffOptions::default());
        assert!(!report.pass());
        assert!(report.render().contains("absent from candidate"));
    }

    #[test]
    fn verdict_json_lists_failures() {
        let base = vec![rec("a", 100, 50)];
        let mut cand = base.clone();
        cand[0].counters.insert("tct.ops".into(), 7);
        let report = diff_reports(&base, &cand, &DiffOptions::default());
        let v = crate::json::parse(&report.verdict_json()).unwrap();
        assert_eq!(v.get("verdict").unwrap().as_str(), Some("FAIL"));
        assert_eq!(v.get("rows").unwrap().as_arr().unwrap().len(), 1);
    }

    #[test]
    fn empty_intersection_is_not_a_pass() {
        let report = diff_reports(&[], &[], &DiffOptions::default());
        assert!(!report.pass());
    }

    #[test]
    fn seeded_slowdown_fails_by_effect_size_at_five_tries() {
        let base = vec![rec_tries("a", &[100, 101, 99, 100, 100])];
        let cand = vec![rec_tries("a", &[200, 202, 198, 201, 199])];
        let report = diff_reports(&base, &cand, &DiffOptions::default());
        assert!(!report.pass(), "{}", report.render());
        assert!(report.render().contains("σ"), "{}", report.render());
        // The unperturbed re-run of the same suite passes.
        let rerun = vec![rec_tries("a", &[101, 100, 99, 102, 100])];
        let report = diff_reports(&base, &rerun, &DiffOptions::default());
        assert!(report.pass(), "{}", report.render());
    }

    #[test]
    fn noisy_but_equal_passes_where_fixed_band_fails() {
        // +30% mean shift, swamped by a ±24 ms spread: the effect-size
        // verdict keeps it (t ≈ 2.0 < 3σ)…
        let base = vec![rec_tries("a", &[70, 85, 100, 115, 130])];
        let cand = vec![rec_tries("a", &[100, 115, 130, 145, 160])];
        let report = diff_reports(&base, &cand, &DiffOptions::default());
        assert!(report.pass(), "{}", report.render());
        // …while the same medians as single shots trip the old fixed
        // ±25% band.
        let base1 = vec![rec("a", 100, 100)];
        let cand1 = vec![rec("a", 100, 130)];
        let report = diff_reports(&base1, &cand1, &DiffOptions::default());
        assert!(!report.pass(), "{}", report.render());
        assert!(report.render().contains("tolerance"));
    }

    #[test]
    fn tiny_but_significant_shifts_pass_min_effect() {
        // 1% shift with microscopic spread: t is huge but the effect
        // is below the 2% practical floor.
        let base = vec![rec_tries("a", &[1000, 1000, 1000, 1001, 999])];
        let cand = vec![rec_tries("a", &[1010, 1010, 1010, 1011, 1009])];
        let report = diff_reports(&base, &cand, &DiffOptions::default());
        assert!(report.pass(), "{}", report.render());
    }

    #[test]
    fn v1_baseline_diffs_against_v2_candidate() {
        let v1 = r#"{"schema":"tc-run-v1","dataset":"a","algorithm":"2d","ranks":16,"config":"default","triangles":999,"counters":{"tct.ops":100},"timings_ns":{"tct.wall":100000000}}"#;
        let base = RunRecord::parse_jsonl(v1).unwrap();
        // v1 row has no spread, so the tolerance band governs.
        let cand = vec![rec_tries("a", &[110, 111, 109, 110, 110])];
        assert!(diff_reports(&base, &cand, &DiffOptions::default()).pass());
        let cand = vec![rec_tries("a", &[140, 141, 139, 140, 140])];
        let report = diff_reports(&base, &cand, &DiffOptions::default());
        assert!(!report.pass(), "{}", report.render());
        assert!(report.render().contains("tolerance"));
    }

    /// Two baseline rows (one run repeated) and one candidate whose
    /// `bytes` and `ops` moved; `tasks` shares a prefix with neither.
    fn refresh_fixture() -> (String, Vec<RunRecord>) {
        let row = |bytes: u64, ops: u64, tasks: u64, wall: u64| {
            let mut r = rec("a", ops, wall);
            r.counters.insert("mps.bytes".into(), bytes);
            r.counters.insert("tct.tasks".into(), tasks);
            r
        };
        let base = format!(
            "{}\n{}\n",
            row(4800, 480, 48, 100).to_json_line(),
            row(4800, 480, 48, 120).to_json_line()
        );
        (base, vec![row(5200, 48, 48, 300)])
    }

    #[test]
    fn refresh_rewrites_exactly_the_named_counters() {
        let (base, cand) = refresh_fixture();
        let names = ["mps.bytes".to_string(), "tct.ops".to_string()];
        let (text, changed) = refresh_counters(&base, &cand, &names).unwrap();
        assert_eq!(changed, 4, "two counters in two rows");
        // Nothing but the two values moved: timings and order stay.
        assert_eq!(
            text,
            base.replace("\"mps.bytes\":4800", "\"mps.bytes\":5200")
                .replace("\"tct.ops\":480", "\"tct.ops\":48")
        );
        let exact = DiffOptions { deterministic_only: true, ..DiffOptions::default() };
        let refreshed = RunRecord::parse_jsonl(&text).unwrap();
        assert!(diff_reports(&refreshed, &cand, &exact).pass());
        // A second refresh finds nothing left to do.
        assert_eq!(refresh_counters(&text, &cand, &names).unwrap(), (text.clone(), 0));
    }

    #[test]
    fn refresh_refuses_when_an_undeclared_value_differs() {
        let (base, mut cand) = refresh_fixture();
        let err = refresh_counters(&base, &cand, &["mps.bytes".to_string()]).unwrap_err();
        assert!(err.contains("tct.ops") && err.contains("480 -> 48"), "{err}");
        cand[0].triangles += 1;
        let names = ["mps.bytes".to_string(), "tct.ops".to_string()];
        assert!(refresh_counters(&base, &cand, &names).unwrap_err().contains("triangles"));
        cand[0].dataset = "b".into();
        assert!(refresh_counters(&base, &cand, &names).unwrap_err().contains("<run>"));
    }
}
