//! Acceptance tests for the tc-metrics threading through the 2D
//! pipeline:
//!
//! 1. **Equivalence** — every deterministic quantity reported through
//!    the `tc-metrics` registry (ops, probes, tasks, bytes, triangle
//!    count) exactly equals the legacy [`RankMetrics`] value on a
//!    16-rank reference run, per rank and in aggregate.
//! 2. **Bypass** — with no session live, the instrumented code paths
//!    record nothing at all (the process-global probe counter does
//!    not move), so disabled metrics cost one relaxed atomic load.

use std::sync::Mutex;

use tc_core::TcConfig;
use tc_gen::{rmat, RmatParams};
use tc_metrics::names;
use tc_mps::UniverseConfig;

mod common;
use common::{cannon, PLAIN};

/// The recording gate is process-global, so tests that enable or
/// probe it must not overlap.
static METRICS_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    METRICS_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn test_graph() -> tc_graph::EdgeList {
    rmat(9, 8, RmatParams::GRAPH500, 42).simplify()
}

#[test]
fn deterministic_counters_equal_legacy_rank_metrics_on_16_ranks() {
    let _g = lock();
    let el = test_graph();
    let p = 16;

    let session = tc_metrics::MetricsSession::begin();
    let handle = session.handle();
    let obs = UniverseConfig { metrics: Some(handle), ..UniverseConfig::default() };
    let result = cannon(&el, p, &TcConfig::default(), &obs).expect("run");
    let snap = session.finish();

    assert_eq!(snap.ranks(), (0..p).collect::<Vec<_>>(), "one registry per rank");

    // Per-rank: every deterministic counter matches the RankMetrics
    // field it shadows, exactly.
    for (rank, m) in result.ranks.iter().enumerate() {
        let c = |name: &str| {
            snap.counter(rank, name).unwrap_or_else(|| panic!("rank {rank} missing {name}"))
        };
        assert_eq!(c(names::PPT_OPS), m.ppt_ops, "ppt_ops rank {rank}");
        assert_eq!(c(names::TCT_OPS), m.tct_ops, "tct_ops rank {rank}");
        assert_eq!(c(names::TCT_TASKS), m.tasks, "tasks rank {rank}");
        assert_eq!(c(names::TCT_PROBES), m.probes, "probes rank {rank}");
        assert_eq!(c(names::TCT_LOOKUPS), m.lookups, "lookups rank {rank}");
        assert_eq!(c(names::TCT_DIRECT_ROWS), m.direct_rows, "direct_rows rank {rank}");
        assert_eq!(c(names::TCT_PROBED_ROWS), m.probed_rows, "probed_rows rank {rank}");
        assert_eq!(c(names::TCT_TRIANGLES), m.local_triangles, "local_triangles rank {rank}");
        assert_eq!(c(names::MPS_BYTES_SENT), m.bytes_sent, "bytes_sent rank {rank}");
        // Per-shift compute times land in the histogram, one sample
        // per shift.
        let h = snap.hist(rank, names::SHIFT_COMPUTE_NS).expect("shift hist");
        assert_eq!(h.count(), m.shift_compute.len() as u64, "shift samples rank {rank}");
        // Phase timings are noisy, but the recorded value must be the
        // exact nanosecond count the legacy field holds.
        assert_eq!(c(names::PPT_WALL_NS), m.ppt.as_nanos() as u64, "ppt wall rank {rank}");
        assert_eq!(c(names::TCT_WALL_NS), m.tct.as_nanos() as u64, "tct wall rank {rank}");
    }

    // Aggregate: merged counters equal the TcResult totals the bench
    // tables print.
    let merged = snap.merged_counters();
    assert_eq!(merged[names::TCT_TASKS], result.total_tasks());
    assert_eq!(merged[names::TCT_PROBES], result.total_probes());
    assert_eq!(merged[names::TCT_LOOKUPS], result.total_lookups());
    assert_eq!(merged[names::TCT_TRIANGLES], result.triangles);
    assert_eq!(merged[names::MPS_BYTES_SENT], result.total_bytes_sent());
}

#[test]
fn disabled_metrics_record_nothing() {
    let _g = lock();
    let el = test_graph();
    let before = tc_metrics::values_recorded_total();
    assert!(!tc_metrics::enabled(), "no session may be live in this test");
    let result = cannon(&el, 16, &TcConfig::default(), &PLAIN).expect("run");
    assert!(result.triangles > 0);
    assert_eq!(
        tc_metrics::values_recorded_total(),
        before,
        "instrumentation must be fully bypassed when no session is live"
    );
}
