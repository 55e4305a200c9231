//! End-to-end check of the exact-counter gate on real reports: two
//! 5-try pipeline runs written by the bench harness (`RunScope`) diff
//! PASS, a drifted counter and a drifted triangle count FAIL, a
//! candidate whose every timing statistic is inflated 10× still PASSES
//! (timings are carried, not judged), and `--refresh` rewrites exactly
//! the counters it names.

use tc_bench::args::ExpArgs;
use tc_bench::RunScope;
use tc_metrics::diff::{diff_reports, refresh_counters};
use tc_metrics::RunRecord;

/// One 5-try run of the reference graph through the harness: the
/// report text it wrote and the records in it.
fn report(dir: &std::path::Path, name: &str, el: &tc_graph::EdgeList) -> (String, Vec<RunRecord>) {
    let path = dir.join(name);
    let args = ExpArgs {
        json: Some(path.to_string_lossy().into_owned()),
        tries: 5,
        warmup: 1,
        ..ExpArgs::default()
    };
    let rs = RunScope::new(&args, None, "rmat-s8");
    let r = rs.count_2d_default(el, 4);
    assert!(r.triangles > 0, "reference graph should contain triangles");
    let text = std::fs::read_to_string(&path).expect("report written");
    assert!(text.contains("\"schema\":\"tc-run-v2\""), "harness emits v2 records: {text}");
    let records = RunRecord::parse_jsonl(&text).expect("report parses");
    (text, records)
}

#[test]
fn five_try_runs_pass_and_seeded_regressions_fail() {
    let el = tc_gen::rmat(8, 8, tc_gen::RmatParams::GRAPH500, 7).simplify();
    let dir = std::env::temp_dir().join(format!("tc_benchdiff_e2e_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let (base_text, base) = report(&dir, "base.jsonl", &el);
    let (_, cand) = report(&dir, "cand.jsonl", &el);
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(base.len(), 1, "five tries aggregate into one record");
    assert_eq!(base[0].key(), cand[0].key(), "same run key across repeats");
    for s in base[0].timings_ns.values() {
        assert_eq!(s.tries, 5, "timings summarize all measured tries");
    }

    // Two honest runs differ in every timing and in nothing else.
    let rep = diff_reports(&base, &cand);
    assert!(rep.pass(), "identical pipeline runs must pass:\n{}", rep.render());

    // Timings are carried, not judged: every statistic of every timing
    // ten times slower is still the same program.
    let mut slow = cand.clone();
    for s in slow[0].timings_ns.values_mut() {
        s.mean *= 10.0;
        s.stddev *= 10.0;
        s.min *= 10;
        s.max *= 10;
        s.median *= 10;
    }
    let rep = diff_reports(&base, &slow);
    assert!(rep.pass(), "a 10x slower candidate must pass:\n{}", rep.render());

    // Seeded regressions: one deterministic counter off by one, and
    // the triangle count off by one.
    let (name, v) = {
        let (name, v) = cand[0].counters.iter().find(|(_, v)| **v > 0).expect("counters recorded");
        (name.clone(), *v)
    };
    let mut drifted = cand.clone();
    drifted[0].counters.insert(name.clone(), v + 1);
    let rep = diff_reports(&base, &drifted);
    assert!(!rep.pass() && rep.render().contains(&name), "{}", rep.render());
    let mut miscounted = cand.clone();
    miscounted[0].triangles += 1;
    let rep = diff_reports(&base, &miscounted);
    assert!(!rep.pass() && rep.render().contains("triangles"), "{}", rep.render());

    // `--refresh` blesses exactly the counter it names: that value
    // moves, every other byte of the baseline — timings included —
    // stays, and the refreshed baseline passes against the candidate.
    let named = [name.clone()];
    let (text, changed) = refresh_counters(&base_text, &drifted, &named).expect("refresh");
    assert_eq!(changed, 1);
    assert_eq!(
        text,
        base_text.replacen(&format!("\"{name}\":{v}"), &format!("\"{name}\":{}", v + 1), 1)
    );
    assert!(diff_reports(&RunRecord::parse_jsonl(&text).unwrap(), &drifted).pass());
    // With the triangle count off as well, nothing is rewritten.
    drifted[0].triangles += 1;
    assert!(refresh_counters(&base_text, &drifted, &named).is_err());
}
