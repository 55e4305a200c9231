//! End-to-end tracing acceptance tests: a 16-rank traced run exports
//! a valid Chrome trace with one lane per rank and spans for phases,
//! shifts, and collectives; the trace analyzer's critical paths agree
//! with the [`TcResult`] critical-path model; and with tracing
//! disabled the instrumented code paths record nothing at all.

use std::sync::Mutex;

use tc_core::{run, Request, TcConfig, TcResult};
use tc_gen::{rmat, RmatParams};
use tc_mps::{Launch, UniverseConfig};
use tc_trace::{analysis, chrome, names, TraceHandle, TraceSession};

/// The recorder gate is process-global, so tests that enable or probe
/// it must not overlap.
static TRACE_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    TRACE_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// The default Cannon count on `p` ranks, bound to `trace` if given.
fn count_traced(el: &tc_graph::EdgeList, p: usize, trace: Option<TraceHandle>) -> TcResult {
    let ucfg = UniverseConfig { trace, ..UniverseConfig::default() };
    run(Request::new(el, &TcConfig::default()), Launch::threads(p, &ucfg)).expect("run")
}

fn test_graph() -> tc_graph::EdgeList {
    rmat(9, 8, RmatParams::GRAPH500, 42).simplify()
}

#[test]
fn traced_16_rank_run_exports_valid_chrome_trace() {
    let _g = lock();
    let el = test_graph();
    let p = 16;
    let session = TraceSession::begin();
    let handle = session.handle();
    let result = count_traced(&el, p, Some(handle));
    let trace = session.finish();
    assert!(result.triangles > 0, "RMAT scale-9 graph should contain triangles");

    let dir = std::env::temp_dir().join(format!("tc_trace_test_{}", std::process::id()));
    let path = dir.join("run16.trace.json");
    chrome::write_chrome_json(&trace, &path).expect("write trace");
    let text = std::fs::read_to_string(&path).expect("read trace back");
    let summary = chrome::validate(&text).expect("exported trace must validate");
    std::fs::remove_dir_all(&dir).ok();

    // One lane per rank.
    assert_eq!(summary.ranks, (0..p).collect::<Vec<_>>(), "expected one lane per rank");

    // Phase spans: every rank records ppt and tct exactly once.
    assert_eq!(summary.spans_by_name.get(names::PHASE_PPT), Some(&p));
    assert_eq!(summary.spans_by_name.get(names::PHASE_TCT), Some(&p));

    // Shift spans: q = √p compute steps per rank, q-1 exchanges plus
    // the initial skew.
    let q = 4;
    assert_eq!(summary.spans_by_name.get(names::SHIFT_COMPUTE), Some(&(p * q)));
    assert_eq!(summary.spans_by_name.get(names::SHIFT_XCHG), Some(&(p * (q - 1))));
    assert_eq!(summary.spans_by_name.get(names::SKEW), Some(&p));

    // Collective spans: the pipeline uses barriers, reductions, and
    // personalized exchanges on every rank.
    for coll in ["barrier", "reduce", "bcast", "alltoallv"] {
        let n = summary.spans_by_name.get(coll).copied().unwrap_or(0);
        assert!(n >= p, "expected at least {p} {coll:?} spans, found {n}");
    }
    assert_eq!(trace.dropped, 0, "default capacity must not drop events on this run");
}

#[test]
fn analyzer_critical_path_agrees_with_metrics_model() {
    let _g = lock();
    let el = test_graph();
    let session = TraceSession::begin();
    let handle = session.handle();
    let result = count_traced(&el, 16, Some(handle));
    let trace = session.finish();
    let a = analysis::analyze(&trace).expect("non-empty trace analyzes");

    assert_eq!(a.ranks.len(), 16);
    assert_eq!(a.shifts.len(), 4, "q = 4 shifts on a 16-rank grid");

    // The phase spans sit strictly inside the CpuTimer boundaries the
    // metrics use, so the trace-derived critical path can only be
    // smaller — but never by more than scheduling noise. Allow a
    // generous absolute + relative band for loaded CI machines.
    let tol = |modeled: f64| 0.010 + 0.30 * modeled;

    let modeled_ppt = result.modeled_ppt_time().as_secs_f64();
    let traced_ppt = a.ppt_critical_path_s();
    assert!(
        (traced_ppt - modeled_ppt).abs() <= tol(modeled_ppt),
        "ppt critical path: traced {traced_ppt:.6}s vs modeled {modeled_ppt:.6}s"
    );

    let modeled_tct = result.modeled_tct_time().as_secs_f64();
    let traced_tct = a.tct_critical_path_s();
    assert!(
        (traced_tct - modeled_tct).abs() <= tol(modeled_tct),
        "tct critical path: traced {traced_tct:.6}s vs modeled {modeled_tct:.6}s"
    );

    // The per-shift maxima the analyzer reports are what
    // `modeled_tct_time` sums, so their sum must honour the same band.
    let shift_sum: f64 = a.shifts.iter().map(|s| s.max_compute_s).sum();
    assert!((shift_sum - traced_tct).abs() < 1e-9);

    // The report renders without panicking and names both phases.
    let report = a.report();
    assert!(report.contains(names::PHASE_PPT) && report.contains(names::PHASE_TCT));
}

#[test]
fn untraced_run_records_no_events() {
    let _g = lock();
    let el = test_graph();
    let before = tc_trace::events_recorded_total();
    let result = count_traced(&el, 4, None);
    assert!(result.triangles > 0);
    assert_eq!(
        tc_trace::events_recorded_total(),
        before,
        "instrumented paths must bypass the recorder when no session is active"
    );
    assert!(!tc_trace::enabled());
}
