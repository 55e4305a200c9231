//! Kernel-strategy equivalence: every intersection strategy (auto,
//! merge, bitmap) must be *observationally identical* to the paper's
//! hash probe in everything but wall time — triangle counts, per-edge
//! supports, task counts, probe/lookup/row-mode statistics, all exactly
//! equal, on RMAT and Erdős–Rényi inputs (deformed with isolated
//! vertices and a maximum-degree hub), across every square rank count
//! and on rectangular SUMMA grids. Additionally, the `tct.kernel.*`
//! observability counters must partition the legacy lookup counter and
//! be present (and zero where a strategy never engages).

use std::sync::Mutex;

use proptest::prelude::*;
use tc_core::{
    try_count_per_edge, try_count_triangles, try_count_triangles_observed,
    try_count_triangles_summa, KernelStrategy, SummaGrid, TcConfig,
};
use tc_gen::er::gnm;
use tc_gen::{rmat, RmatParams};
use tc_graph::EdgeList;
use tc_mps::Observe;

/// The metrics recording gate is process-global; tests that open a
/// session must not overlap.
static METRICS_LOCK: Mutex<()> = Mutex::new(());

fn mlock() -> std::sync::MutexGuard<'static, ()> {
    METRICS_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

const STRATEGIES: [KernelStrategy; 4] =
    [KernelStrategy::Hash, KernelStrategy::Auto, KernelStrategy::Merge, KernelStrategy::Bitmap];

fn cfg_of(k: KernelStrategy) -> TcConfig {
    TcConfig::paper().with_kernel(k)
}

/// Adds `isolated` unreferenced vertices and, when `hub` is set, one
/// vertex adjacent to every original vertex (the maximum-degree case —
/// the row shape the bitmap strategy exists for).
fn deform(el: EdgeList, isolated: usize, hub: bool) -> EdgeList {
    let base = el.num_vertices;
    let mut edges = el.edges;
    let mut n = base + isolated;
    if hub {
        let h = n as u32;
        edges.extend((0..base as u32).map(|v| (v, h)));
        n += 1;
    }
    EdgeList::new(n, edges).simplify()
}

/// Runs every strategy on `el` at `p` ranks and asserts the full
/// deterministic output matches the hash oracle.
fn assert_strategies_equivalent(el: &EdgeList, p: usize) {
    let oracle = try_count_triangles(el, p, &cfg_of(KernelStrategy::Hash)).expect("hash run");
    for k in STRATEGIES {
        let r = try_count_triangles(el, p, &cfg_of(k)).expect("strategy run");
        assert_eq!(r.triangles, oracle.triangles, "{k} p={p}: triangles");
        assert_eq!(r.total_tasks(), oracle.total_tasks(), "{k} p={p}: tasks");
        assert_eq!(r.total_probes(), oracle.total_probes(), "{k} p={p}: probes");
        assert_eq!(r.total_lookups(), oracle.total_lookups(), "{k} p={p}: lookups");
        for (rank, (ra, rb)) in r.ranks.iter().zip(&oracle.ranks).enumerate() {
            assert_eq!(ra.local_triangles, rb.local_triangles, "{k} p={p} rank {rank}: local");
            assert_eq!(ra.tasks, rb.tasks, "{k} p={p} rank {rank}: tasks");
            assert_eq!(ra.probes, rb.probes, "{k} p={p} rank {rank}: probes");
            assert_eq!(ra.lookups, rb.lookups, "{k} p={p} rank {rank}: lookups");
            assert_eq!(ra.direct_rows, rb.direct_rows, "{k} p={p} rank {rank}: direct rows");
            assert_eq!(ra.probed_rows, rb.probed_rows, "{k} p={p} rank {rank}: probed rows");
        }
    }
}

#[test]
fn strategies_agree_on_rmat_with_hub() {
    let el = deform(rmat(8, 6, RmatParams::GRAPH500, 7).simplify(), 3, true);
    for p in [1usize, 4, 9, 16, 25] {
        assert_strategies_equivalent(&el, p);
    }
}

#[test]
fn strategies_agree_on_erdos_renyi() {
    let el = deform(gnm(300, 1800, 21).simplify(), 5, false);
    for p in [1usize, 4, 9, 16, 25] {
        assert_strategies_equivalent(&el, p);
    }
}

#[test]
fn strategies_agree_per_edge() {
    // Per-edge supports exercise count_shift_recording: the merge
    // visit path and the bitmap record loop must report exactly the
    // hits the hash loop reports.
    let el = deform(rmat(8, 5, RmatParams::GRAPH500, 33).simplify(), 2, true);
    for p in [1usize, 4, 9, 16, 25] {
        let (ro, so) = try_count_per_edge(&el, p, &cfg_of(KernelStrategy::Hash)).expect("hash");
        for k in STRATEGIES {
            let (r, s) = try_count_per_edge(&el, p, &cfg_of(k)).expect("strategy");
            assert_eq!(r.triangles, ro.triangles, "{k} p={p}");
            assert_eq!(s, so, "{k} p={p}: per-edge supports diverged");
        }
    }
}

#[test]
fn strategies_agree_on_summa() {
    // SUMMA hashes with stride 1 and contiguous panels — the other
    // transform regime for the bitmap/merge candidate computation.
    let el = deform(rmat(8, 6, RmatParams::GRAPH500, 11).simplify(), 4, true);
    for (pr, pc) in [(1, 1), (2, 2), (2, 3), (3, 3), (4, 2)] {
        let grid = SummaGrid::new(pr, pc);
        let o = try_count_triangles_summa(&el, grid, &cfg_of(KernelStrategy::Hash)).expect("hash");
        for k in STRATEGIES {
            let r = try_count_triangles_summa(&el, grid, &cfg_of(k)).expect("strategy");
            assert_eq!(r.triangles, o.triangles, "{k} {pr}x{pc}: triangles");
            assert_eq!(r.total_tasks(), o.total_tasks(), "{k} {pr}x{pc}: tasks");
            assert_eq!(r.total_probes(), o.total_probes(), "{k} {pr}x{pc}: probes");
            assert_eq!(r.total_lookups(), o.total_lookups(), "{k} {pr}x{pc}: lookups");
        }
    }
}

/// The deterministic face of one run: triangles and the five legacy
/// counters (tasks, probes, lookups, direct rows, probed rows) summed
/// over ranks.
type Pinned = (u64, [u64; 5]);

fn legacy_counters(r: &tc_core::TcResult) -> [u64; 5] {
    let sum = |f: fn(&tc_core::RankMetrics) -> u64| r.ranks.iter().map(f).sum::<u64>();
    [
        r.total_tasks(),
        r.total_probes(),
        r.total_lookups(),
        sum(|m| m.direct_rows),
        sum(|m| m.probed_rows),
    ]
}

fn supports_fingerprint(supports: &[tc_core::EdgeSupport]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for e in supports {
        for word in [u64::from(e.u), u64::from(e.v), e.support] {
            h = (h ^ word).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[test]
fn every_strategy_reproduces_the_pre_reciprocal_kernel() {
    // Golden values recorded from the commit *before* the division-free
    // kernel (hardware `/ q`, split stamp/key tables, per-key stat
    // updates) on this exact graph. The reciprocal, the packed slots,
    // the bulk-credited counters and the prefetch must not move a
    // single one of them, under any strategy, at any grid: p = 25
    // (q = 5) and the 2×3 SUMMA grid cover the odd strides, p = 4 and
    // 16 the powers of two, p = 1 and SUMMA's panels the stride 1.
    let el = deform(rmat(10, 8, RmatParams::GRAPH500, 7).simplify(), 3, true);
    // FNV-1a fingerprint of the per-edge supports — a property of the
    // graph, so one value for every grid.
    const SUPPORTS: u64 = 10712917625209599150;
    let cannon: [(usize, Pinned); 5] = [
        (1, (30100, [6049, 47, 43748, 297, 41])),
        (4, (30100, [10969, 31, 42668, 1060, 52])),
        (9, (30100, [14894, 128, 41670, 2090, 139])),
        (16, (30100, [18118, 58, 40865, 3517, 107])),
        (25, (30100, [20667, 6, 39848, 5223, 27])),
    ];
    let summa_2x3: Pinned = (30100, [6049, 66, 43767, 2148, 66]);

    for (p, want) in cannon {
        for k in STRATEGIES {
            let (r, s) = try_count_per_edge(&el, p, &cfg_of(k)).expect("per-edge run");
            assert_eq!((r.triangles, legacy_counters(&r)), want, "{k} p={p}: per-edge run");
            assert_eq!(supports_fingerprint(&s), SUPPORTS, "{k} p={p}: supports");
            let plain = try_count_triangles(&el, p, &cfg_of(k)).expect("count run");
            assert_eq!((plain.triangles, legacy_counters(&plain)), want, "{k} p={p}");
        }
    }
    for k in STRATEGIES {
        let r = try_count_triangles_summa(&el, SummaGrid::new(2, 3), &cfg_of(k)).expect("summa");
        assert_eq!((r.triangles, legacy_counters(&r)), summa_2x3, "{k} summa 2x3");
    }
}

/// Runs one strategy under a metrics session and returns (result,
/// summed kernel-counter map).
fn measured_run(el: &EdgeList, p: usize, k: KernelStrategy) -> (u64, u64, Vec<u64>) {
    let session = tc_metrics::MetricsSession::begin();
    let handle = session.handle();
    let obs = Observe { metrics: Some(&handle), ..Observe::none() };
    let r = try_count_triangles_observed(el, p, &cfg_of(k), obs).expect("run");
    let snap = session.finish();
    let sum = |name: &str| (0..p).map(|rank| snap.counter(rank, name).unwrap_or(0)).sum::<u64>();
    let kernel: Vec<u64> = tc_metrics::names::TCT_KERNEL.iter().map(|n| sum(n)).collect();
    (r.triangles, sum(tc_metrics::names::TCT_LOOKUPS), kernel)
}

#[test]
fn kernel_counters_partition_lookups_and_report_strategy_mix() {
    let _g = mlock();
    let el = deform(rmat(8, 6, RmatParams::GRAPH500, 5).simplify(), 0, true);
    let names = tc_metrics::names::TCT_KERNEL;
    let idx = |n: &str| names.iter().position(|&x| x == n).expect("kernel counter name");
    let (h_lk, m_lk, b_lk) = (
        idx(tc_metrics::names::TCT_KERNEL_HASH_LOOKUPS),
        idx(tc_metrics::names::TCT_KERNEL_MERGE_LOOKUPS),
        idx(tc_metrics::names::TCT_KERNEL_BITMAP_LOOKUPS),
    );
    for p in [1usize, 4, 9] {
        let mut triangles = Vec::new();
        for k in STRATEGIES {
            let (tri, lookups, kernel) = measured_run(&el, p, k);
            triangles.push(tri);
            // The strategy tallies partition the legacy counter exactly.
            assert_eq!(
                kernel[h_lk] + kernel[m_lk] + kernel[b_lk],
                lookups,
                "{k} p={p}: kernel lookup tallies must partition tct.lookups"
            );
            match k {
                KernelStrategy::Hash => {
                    assert_eq!(kernel[m_lk] + kernel[b_lk], 0, "p={p}: hash-only run");
                }
                KernelStrategy::Bitmap => {
                    assert!(
                        kernel[b_lk] > 0,
                        "p={p}: the hub graph must engage the bitmap strategy"
                    );
                }
                _ => {}
            }
        }
        assert!(triangles.windows(2).all(|w| w[0] == w[1]), "p={p}: counts diverged");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random graphs with random deformations, every square rank
    /// count: all strategies must agree with the hash oracle on the
    /// full deterministic output, including per-edge supports.
    #[test]
    fn strategies_agree_on_random_graphs(
        scale in 5u32..8,
        factor in 2usize..6,
        seed in 0u64..1_000,
        p_idx in 0usize..4,
        use_er in any::<bool>(),
        isolated in 0usize..6,
        hub in any::<bool>(),
    ) {
        let p = [1usize, 4, 9, 16][p_idx];
        let el = if use_er {
            let n = 1usize << scale;
            deform(gnm(n, n * factor, seed).simplify(), isolated, hub)
        } else {
            deform(rmat(scale, factor, RmatParams::GRAPH500, seed).simplify(), isolated, hub)
        };
        let oracle = try_count_triangles(&el, p, &cfg_of(KernelStrategy::Hash)).expect("hash");
        let (po, so) = try_count_per_edge(&el, p, &cfg_of(KernelStrategy::Hash)).expect("hash pe");
        prop_assert_eq!(po.triangles, oracle.triangles);
        for k in [KernelStrategy::Auto, KernelStrategy::Merge, KernelStrategy::Bitmap] {
            let r = try_count_triangles(&el, p, &cfg_of(k)).expect("strategy");
            prop_assert_eq!(r.triangles, oracle.triangles);
            prop_assert_eq!(r.total_tasks(), oracle.total_tasks());
            prop_assert_eq!(r.total_probes(), oracle.total_probes());
            prop_assert_eq!(r.total_lookups(), oracle.total_lookups());
            let (pr, s) = try_count_per_edge(&el, p, &cfg_of(k)).expect("strategy pe");
            prop_assert_eq!(pr.triangles, oracle.triangles);
            prop_assert_eq!(&s, &so);
        }
    }
}
