//! Overlapped vs synchronous operand pipeline equivalence.
//!
//! The zero-copy overlapped schedule (`TcConfig::overlap_shifts`, the
//! default) must be *observationally identical* to the synchronous
//! ablation schedule in everything except communication behavior:
//! triangle counts, task counts, probe/lookup statistics, and per-edge
//! supports all agree exactly, while the deterministic
//! `tct.shift_bytes_serialized` counter strictly drops (each operand is
//! serialized once at the skew instead of once per shift).

use std::sync::Mutex;

use proptest::prelude::*;
use tc_core::{SummaGrid, TcConfig};
use tc_gen::er::gnm;
use tc_gen::{rmat, RmatParams};
use tc_graph::EdgeList;
use tc_mps::UniverseConfig;

mod common;
use common::{cannon, cannon_per_edge, summa, PLAIN};

/// The metrics recording gate is process-global; tests that open a
/// session must not overlap.
static METRICS_LOCK: Mutex<()> = Mutex::new(());

fn mlock() -> std::sync::MutexGuard<'static, ()> {
    METRICS_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn overlap_cfg() -> TcConfig {
    TcConfig::default().with_overlap_shifts(true)
}

fn sync_cfg() -> TcConfig {
    TcConfig::default().with_overlap_shifts(false)
}

/// Runs both schedules on `el` at `p` ranks and asserts every
/// deterministic output matches.
fn assert_equivalent(el: &EdgeList, p: usize) {
    let a = cannon(el, p, &overlap_cfg(), &PLAIN).expect("overlap run");
    let b = cannon(el, p, &sync_cfg(), &PLAIN).expect("sync run");
    assert_eq!(a.triangles, b.triangles, "p={p}: triangles");
    assert_eq!(a.total_tasks(), b.total_tasks(), "p={p}: tasks");
    assert_eq!(a.total_probes(), b.total_probes(), "p={p}: probes");
    assert_eq!(a.total_lookups(), b.total_lookups(), "p={p}: lookups");
    for (rank, (ra, rb)) in a.ranks.iter().zip(&b.ranks).enumerate() {
        assert_eq!(ra.local_triangles, rb.local_triangles, "p={p} rank {rank}: local");
        assert_eq!(ra.tasks, rb.tasks, "p={p} rank {rank}: tasks");
        assert_eq!(ra.probes, rb.probes, "p={p} rank {rank}: probes");
        assert_eq!(ra.lookups, rb.lookups, "p={p} rank {rank}: lookups");
        assert_eq!(ra.direct_rows, rb.direct_rows, "p={p} rank {rank}: direct rows");
        assert_eq!(ra.probed_rows, rb.probed_rows, "p={p} rank {rank}: probed rows");
    }
}

#[test]
fn schedules_agree_on_rmat() {
    let el = rmat(8, 6, RmatParams::GRAPH500, 7).simplify();
    for p in [1usize, 4, 9, 16] {
        assert_equivalent(&el, p);
    }
}

#[test]
fn schedules_agree_on_erdos_renyi() {
    let el = gnm(300, 1800, 21).simplify();
    for p in [1usize, 4, 9, 16] {
        assert_equivalent(&el, p);
    }
}

#[test]
fn schedules_agree_per_edge() {
    // The per-edge path exercises count_shift_recording plus the
    // credit exchange on top of the pipeline; supports must match
    // vector for vector.
    let el = rmat(8, 5, RmatParams::GRAPH500, 33).simplify();
    for p in [1usize, 4, 9, 16] {
        let (ra, sa) = cannon_per_edge(&el, p, &overlap_cfg(), &PLAIN).expect("overlap");
        let (rb, sb) = cannon_per_edge(&el, p, &sync_cfg(), &PLAIN).expect("sync");
        assert_eq!(ra.triangles, rb.triangles, "p={p}");
        assert_eq!(sa, sb, "p={p}: per-edge supports diverged");
    }
}

#[test]
fn schedules_agree_on_summa() {
    let el = rmat(8, 6, RmatParams::GRAPH500, 11).simplify();
    for (pr, pc) in [(1, 1), (2, 2), (2, 3), (3, 3), (4, 2)] {
        let grid = SummaGrid::new(pr, pc);
        let a = summa(&el, grid, &overlap_cfg(), &PLAIN).expect("overlap");
        let b = summa(&el, grid, &sync_cfg(), &PLAIN).expect("sync");
        assert_eq!(a.triangles, b.triangles, "{pr}x{pc}: triangles");
        assert_eq!(a.total_tasks(), b.total_tasks(), "{pr}x{pc}: tasks");
        assert_eq!(a.total_probes(), b.total_probes(), "{pr}x{pc}: probes");
    }
}

/// Runs one configuration under a metrics session and returns
/// (triangles, tasks, serialized bytes).
fn measured_run(el: &EdgeList, p: usize, cfg: &TcConfig) -> (u64, u64, u64) {
    let session = tc_metrics::MetricsSession::begin();
    let handle = session.handle();
    let obs = UniverseConfig { metrics: Some(handle), ..UniverseConfig::default() };
    let r = cannon(el, p, cfg, &obs).expect("run");
    let snap = session.finish();
    let serialized: u64 = (0..p)
        .map(|rank| snap.counter(rank, tc_metrics::names::SHIFT_BYTES_SERIALIZED).unwrap_or(0))
        .sum();
    (r.triangles, r.total_tasks(), serialized)
}

#[test]
fn overlap_strictly_reduces_serialized_bytes() {
    let _g = mlock();
    let el = rmat(8, 6, RmatParams::GRAPH500, 5).simplify();
    for p in [4usize, 9, 16] {
        let (tri_a, tasks_a, ser_a) = measured_run(&el, p, &overlap_cfg());
        let (tri_b, tasks_b, ser_b) = measured_run(&el, p, &sync_cfg());
        assert_eq!(tri_a, tri_b, "p={p}: schedules disagree on triangles");
        assert_eq!(tasks_a, tasks_b, "p={p}: schedules disagree on tasks");
        // q > 1: the sync path re-serializes at every one of the q−1
        // extra shift steps; the overlapped path serializes at the
        // skew only.
        assert!(
            ser_a < ser_b,
            "p={p}: expected a strict serialized-bytes drop, got {ser_a} vs {ser_b}"
        );
        assert!(ser_a > 0, "p={p}: the skew still serializes");
    }
}

#[test]
fn single_rank_serializes_nothing() {
    let _g = mlock();
    let el = rmat(7, 4, RmatParams::GRAPH500, 3).simplify();
    for cfg in [overlap_cfg(), sync_cfg()] {
        let (_, _, ser) = measured_run(&el, 1, &cfg);
        assert_eq!(ser, 0, "q=1 moves no operands and must serialize none");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random small graphs, both generators' shapes, every square rank
    /// count: the two schedules must agree on the full deterministic
    /// output (counts, tasks, per-edge supports).
    #[test]
    fn schedules_agree_on_random_graphs(
        scale in 5u32..8,
        factor in 2usize..6,
        seed in 0u64..1_000,
        p_idx in 0usize..4,
        use_er in any::<bool>(),
    ) {
        let p = [1usize, 4, 9, 16][p_idx];
        let el = if use_er {
            let n = 1usize << scale;
            gnm(n, n * factor, seed).simplify()
        } else {
            rmat(scale, factor, RmatParams::GRAPH500, seed).simplify()
        };
        let a = cannon(&el, p, &overlap_cfg(), &PLAIN).expect("overlap run");
        let b = cannon(&el, p, &sync_cfg(), &PLAIN).expect("sync run");
        prop_assert_eq!(a.triangles, b.triangles);
        prop_assert_eq!(a.total_tasks(), b.total_tasks());
        prop_assert_eq!(a.total_probes(), b.total_probes());
        prop_assert_eq!(a.total_lookups(), b.total_lookups());

        let (ra, sa) = cannon_per_edge(&el, p, &overlap_cfg(), &PLAIN).expect("overlap per-edge");
        let (rb, sb) = cannon_per_edge(&el, p, &sync_cfg(), &PLAIN).expect("sync per-edge");
        prop_assert_eq!(ra.triangles, a.triangles);
        prop_assert_eq!(rb.triangles, b.triangles);
        prop_assert_eq!(sa, sb);
    }
}
