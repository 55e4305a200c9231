//! `benchdiff`: exact comparison of benchmark reports.
//!
//! Runs are matched by their `(dataset, algorithm, ranks, config)`
//! key. Triangle counts and every entry in `counters` (ops, probes,
//! bytes, tasks, …) must match *exactly* — the generators are seeded
//! and the kernels deterministic, so any drift is a real behavior
//! change, not noise. `timings_ns` is not read: who judges time is
//! `benchmark/run.sh` on alternating pairs, and this gate owns the
//! counters of the paths that benchmark does not run (SUMMA, the 1D
//! baselines, the ablations).
//!
//! The driver ([`cli_main`]) backs the `tricount benchdiff` subcommand.

use std::collections::BTreeMap;

use crate::report::RunRecord;

/// Outcome of one comparison row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowStatus {
    Pass,
    Fail,
}

impl RowStatus {
    fn label(self) -> &'static str {
        match self {
            RowStatus::Pass => "ok",
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
            if self.pass() { "PASS" } else { "FAIL" },
            self.compared,
            self.failures,
            if self.failures == 1 { "" } else { "s" }
        ));
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
pub fn diff_reports(base: &[RunRecord], cand: &[RunRecord]) -> DiffReport {
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

        push(
            &mut report,
            DiffRow {
                key: key.clone(),
                metric: "<summary>".into(),
                base: String::new(),
                cand: String::new(),
                status: RowStatus::Pass,
                note: format!("{ok_counters} deterministic exact"),
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

/// Why a `--refresh` was not carried out. Either way the baseline is
/// left untouched.
#[derive(Debug, PartialEq, Eq)]
pub enum RefreshError {
    /// Names that are no counter of any baseline run (`triangles`,
    /// `<run>`, a typo): a malformed request, not a finding.
    UnknownCounters(Vec<String>),
    /// An undeclared value differs, a run is missing, or the baseline
    /// does not parse.
    Refused(String),
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
) -> Result<(String, usize), RefreshError> {
    use RefreshError::{Refused, UnknownCounters};
    let base = RunRecord::parse_jsonl(base_text).map_err(Refused)?;
    let unknown: Vec<String> = names
        .iter()
        .filter(|name| !base.iter().any(|r| r.counters.contains_key(*name)))
        .cloned()
        .collect();
    if !unknown.is_empty() {
        return Err(UnknownCounters(unknown));
    }
    let stray: Vec<String> = diff_reports(&base, cand)
        .rows
        .iter()
        .filter(|r| r.status == RowStatus::Fail && !names.contains(&r.metric))
        .map(|r| format!("  {} {}: {} -> {} ({})", r.key, r.metric, r.base, r.cand, r.note))
        .collect();
    if !stray.is_empty() {
        return Err(Refused(format!("values outside --refresh differ:\n{}", stray.join("\n"))));
    }
    let cand_runs = group(cand);
    let mut out = String::with_capacity(base_text.len());
    let mut changed = 0usize;
    for line in base_text.split_inclusive('\n') {
        let mut line = line.to_string();
        for rec in RunRecord::parse_jsonl(&line).map_err(Refused)? {
            let key = rec.key();
            let fresh = cand_runs
                .get(&key)
                .ok_or_else(|| Refused(format!("{key}: run missing from candidate report")))?;
            for name in names {
                let new = agreed(fresh, |r| r.counters.get(name).copied()).map_err(Refused)?;
                let (Some(&old), Some(new)) = (rec.counters.get(name), new) else {
                    continue;
                };
                // Counter values are bare integers, so the key with
                // its old value and the delimiter after it occurs once.
                let hit = [',', '}'].into_iter().find_map(|end| {
                    let pat = format!("\"{name}\":{old}{end}");
                    line.find(&pat).map(|at| (at, pat.len(), end))
                });
                let (at, len, end) =
                    hit.ok_or_else(|| Refused(format!("{key}: cannot locate {name}")))?;
                line.replace_range(at..at + len, &format!("\"{name}\":{new}{end}"));
                changed += usize::from(old != new);
            }
        }
        out.push_str(&line);
    }
    Ok((out, changed))
}

/// Command-line driver of the `tricount benchdiff` subcommand. `args`
/// excludes the program / subcommand name. Returns the process exit
/// code.
pub fn cli_main(args: &[String]) -> i32 {
    let mut files: Vec<&str> = Vec::new();
    let mut refresh: Option<Vec<String>> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--refresh" => {
                let Some(list) = it.next().filter(|l| !l.is_empty()) else {
                    eprintln!("benchdiff: --refresh needs a comma-separated counter list");
                    return 2;
                };
                refresh = Some(list.split(',').map(str::to_string).collect());
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return 0;
            }
            other if other.starts_with('-') => {
                eprintln!("benchdiff: unknown flag '{other}'\n{USAGE}");
                return 2;
            }
            path => files.push(path),
        }
    }
    if files.len() < 2 {
        eprintln!("benchdiff: need a baseline and at least one candidate report\n{USAGE}");
        return 2;
    }
    let load = |path: &str| -> Result<(String, Vec<RunRecord>), String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let runs = RunRecord::parse_jsonl(&text).map_err(|e| format!("{path}: {e}"))?;
        Ok((text, runs))
    };
    let mut loaded = Vec::new();
    for path in &files {
        match load(path) {
            Ok(l) => loaded.push(l),
            Err(e) => {
                eprintln!("benchdiff: {e}");
                return 2;
            }
        }
    }
    let (base_text, base) = loaded.remove(0);
    let cand: Vec<RunRecord> = loaded.into_iter().flat_map(|(_, runs)| runs).collect();
    if base.is_empty() {
        eprintln!("benchdiff: baseline {} contains no run records", files[0]);
        return 2;
    }
    let Some(names) = refresh else {
        let report = diff_reports(&base, &cand);
        print!("{}", report.render());
        return i32::from(!report.pass());
    };
    match refresh_counters(&base_text, &cand, &names) {
        Ok((text, changed)) => match std::fs::write(files[0], text) {
            Ok(()) => {
                println!("benchdiff: refreshed {changed} values of {names:?} in {}", files[0]);
                0
            }
            Err(e) => {
                eprintln!("benchdiff: cannot write {}: {e}", files[0]);
                1
            }
        },
        Err(RefreshError::UnknownCounters(unknown)) => {
            eprintln!(
                "benchdiff: --refresh names no counter of {}: {}",
                files[0],
                unknown.join(", ")
            );
            2
        }
        Err(RefreshError::Refused(why)) => {
            eprintln!("benchdiff: {why}");
            1
        }
    }
}

const USAGE: &str =
    "usage: tricount benchdiff <BASELINE.jsonl> <CANDIDATE.jsonl>... [--refresh a,b,...]

Compares benchmark run records (schema tc-run-v2) matched by
(dataset, algorithm, ranks, config). Triangle counts and every
deterministic counter must match exactly; timings are not compared.
Exit 0 = identical, 1 = drift, 2 = usage/parse error.

options:
  --refresh <a,b,...>     rewrite exactly these counters in BASELINE to
                          the candidate's values; exit 1, file untouched,
                          if any other deterministic value differs
";

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::TimingStats;

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

    #[test]
    fn identical_reports_pass() {
        let base = vec![rec("a", 100, 50), rec("b", 200, 80)];
        let report = diff_reports(&base, &base.clone());
        assert!(report.pass(), "{}", report.render());
        assert_eq!(report.compared, 2);
    }

    #[test]
    fn counter_drift_fails_hard() {
        let base = vec![rec("a", 100, 50)];
        let mut cand = base.clone();
        cand[0].counters.insert("tct.ops".into(), 101);
        let report = diff_reports(&base, &cand);
        assert!(!report.pass());
        assert!(report.render().contains("deterministic counter drift"));
    }

    #[test]
    fn triangle_mismatch_fails_hard() {
        let base = vec![rec("a", 100, 50)];
        let mut cand = base.clone();
        cand[0].triangles = 998;
        let report = diff_reports(&base, &cand);
        assert!(!report.pass());
    }

    #[test]
    fn timings_are_carried_not_judged() {
        // A 100× slower candidate, a timing only one side has, repeats
        // that disagree wildly: none of it is this gate's question.
        let base = vec![rec("a", 100, 100), rec("a", 100, 102)];
        let mut cand = vec![rec("a", 100, 10_000), rec("a", 100, 1)];
        cand[1].timings_ns.clear();
        let report = diff_reports(&base, &cand);
        assert!(report.pass(), "{}", report.render());
        assert!(report.render().contains("1 runs compared, 0 failures"));
    }

    #[test]
    fn nondeterministic_repeats_fail() {
        let base = vec![rec("a", 100, 50)];
        let cand = vec![rec("a", 100, 50), rec("a", 101, 50)];
        let report = diff_reports(&base, &cand);
        assert!(!report.pass());
        assert!(report.render().contains("nondeterministic"));
    }

    #[test]
    fn missing_run_fails_and_new_run_notes() {
        let base = vec![rec("a", 100, 50)];
        let cand = vec![rec("b", 100, 50)];
        let report = diff_reports(&base, &cand);
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
        let report = diff_reports(&base, &cand);
        assert!(!report.pass());
        assert!(report.render().contains("absent from candidate"));
    }

    #[test]
    fn empty_intersection_is_not_a_pass() {
        let report = diff_reports(&[], &[]);
        assert!(!report.pass());
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

    fn names(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn refresh_rewrites_exactly_the_named_counters() {
        let (base, cand) = refresh_fixture();
        let named = names(&["mps.bytes", "tct.ops"]);
        let (text, changed) = refresh_counters(&base, &cand, &named).unwrap();
        assert_eq!(changed, 4, "two counters in two rows");
        // Nothing but the two values moved: timings and order stay.
        assert_eq!(
            text,
            base.replace("\"mps.bytes\":4800", "\"mps.bytes\":5200")
                .replace("\"tct.ops\":480", "\"tct.ops\":48")
        );
        let refreshed = RunRecord::parse_jsonl(&text).unwrap();
        assert!(diff_reports(&refreshed, &cand).pass());
        // A second refresh finds nothing left to do.
        assert_eq!(refresh_counters(&text, &cand, &named).unwrap(), (text.clone(), 0));
    }

    #[test]
    fn refresh_refuses_when_an_undeclared_value_differs() {
        let (base, mut cand) = refresh_fixture();
        let refused =
            |cand: &[RunRecord], list: &[&str]| match refresh_counters(&base, cand, &names(list))
                .unwrap_err()
            {
                RefreshError::Refused(why) => why,
                other => panic!("{other:?}"),
            };
        let err = refused(&cand, &["mps.bytes"]);
        assert!(err.contains("tct.ops") && err.contains("480 -> 48"), "{err}");
        cand[0].triangles += 1;
        assert!(refused(&cand, &["mps.bytes", "tct.ops"]).contains("triangles"));
        cand[0].dataset = "b".into();
        assert!(refused(&cand, &["mps.bytes", "tct.ops"]).contains("<run>"));
    }

    #[test]
    fn refresh_names_must_be_counters_of_the_baseline() {
        // `triangles` and `<run>` are row labels of the diff, not
        // counters: naming them used to wave a differing triangle count
        // through ("refreshed 0 values") and to index a missing run.
        let (base, mut cand) = refresh_fixture();
        cand[0].triangles += 1;
        assert_eq!(
            refresh_counters(&base, &cand, &names(&["mps.bytes", "triangles", "tct.opz"])),
            Err(RefreshError::UnknownCounters(names(&["triangles", "tct.opz"])))
        );
        cand[0].dataset = "b".into();
        assert_eq!(
            refresh_counters(&base, &cand, &names(&["<run>"])),
            Err(RefreshError::UnknownCounters(names(&["<run>"])))
        );
        // Even a baseline that does count something called `<run>`
        // gets a refusal for the missing run, not an index panic.
        let odd = base.replace("tct.tasks", "<run>");
        match refresh_counters(&odd, &cand, &names(&["<run>"])) {
            Err(RefreshError::Refused(why)) => assert!(why.contains("missing from candidate")),
            other => panic!("{other:?}"),
        }
    }
}
