//! Kernel equivalence: the `auto` kernel (bit rows for the hash rows
//! whose direct attempt collides) must be *observationally identical*
//! to the paper's `hash` kernel in everything but probe steps and wall
//! time — triangle counts, per-edge supports, task counts,
//! lookup/insert/row-mode statistics, all exactly equal, rank by rank,
//! on RMAT and Erdős–Rényi inputs (deformed with isolated vertices and
//! a maximum-degree hub), across every square rank count and on
//! rectangular SUMMA grids. `probes` may only fall, and falls exactly
//! when some row collided. The `tct.kernel.*` tallies must partition
//! the legacy lookup counter and show which kernel ran.

use std::sync::Mutex;

use proptest::prelude::*;
use tc_core::{KernelStrategy, SummaGrid, TcConfig, TcResult};
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

const STRATEGIES: [KernelStrategy; 2] = [KernelStrategy::Hash, KernelStrategy::Auto];

fn cfg_of(k: KernelStrategy) -> TcConfig {
    TcConfig::default().with_kernel(k)
}

/// Adds `isolated` unreferenced vertices and, when `hub` is set, one
/// vertex adjacent to every original vertex (the maximum-degree case —
/// a row that is certain to collide in the direct map).
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

/// Asserts that an `auto` run matches the `hash` oracle rank by rank on
/// everything but probe steps, and that probe steps fell exactly when
/// a row collided (every collided row of these graphs fits the bit
/// arena, so `auto` never probes).
fn assert_same_but_probes(auto: &TcResult, hash: &TcResult, what: &str) {
    assert_eq!(auto.triangles, hash.triangles, "{what}: triangles");
    assert_eq!(auto.ranks.len(), hash.ranks.len(), "{what}: ranks");
    for (rank, (a, h)) in auto.ranks.iter().zip(&hash.ranks).enumerate() {
        assert_eq!(a.local_triangles, h.local_triangles, "{what} rank {rank}: local");
        assert_eq!(a.tasks, h.tasks, "{what} rank {rank}: tasks");
        assert_eq!(a.lookups, h.lookups, "{what} rank {rank}: lookups");
        assert_eq!(a.tct_ops - a.lookups, h.tct_ops - h.lookups, "{what} rank {rank}: inserts");
        assert_eq!(a.direct_rows, h.direct_rows, "{what} rank {rank}: direct rows");
        assert_eq!(a.probed_rows, h.probed_rows, "{what} rank {rank}: probed rows");
        assert!(a.probes <= h.probes, "{what} rank {rank}: probes rose");
        assert_eq!(a.probes, 0, "{what} rank {rank}: a bit row probed");
        if h.probed_rows == 0 {
            assert_eq!(h.probes, 0, "{what} rank {rank}: probes without a probed row");
        }
    }
}

/// Runs both kernels on `el` at `p` ranks and compares them.
fn assert_strategies_equivalent(el: &EdgeList, p: usize) {
    let hash = cannon(el, p, &cfg_of(KernelStrategy::Hash), &PLAIN).expect("hash run");
    let auto = cannon(el, p, &cfg_of(KernelStrategy::Auto), &PLAIN).expect("auto run");
    assert_same_but_probes(&auto, &hash, &format!("p={p}"));
    // Without direct hashing there is no collision to dispatch on:
    // `auto` is the paper's probing routine, probe for probe.
    let no_direct = |k| cfg_of(k).with_direct_hash(false);
    let hash = cannon(el, p, &no_direct(KernelStrategy::Hash), &PLAIN).expect("hash run");
    let auto = cannon(el, p, &no_direct(KernelStrategy::Auto), &PLAIN).expect("auto run");
    assert_eq!(legacy_counters(&auto), legacy_counters(&hash), "p={p}: no-direct-hash");
    assert_eq!(auto.triangles, hash.triangles, "p={p}: no-direct-hash");
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
    // Per-edge supports exercise count_shift_recording: the bit-row
    // record loop (vector hit mask walked from the high lane, then the
    // scalar tail) must report exactly the hits the hash loop reports.
    let el = deform(rmat(8, 5, RmatParams::GRAPH500, 33).simplify(), 2, true);
    for p in [1usize, 4, 9, 16, 25] {
        let (ro, so) =
            cannon_per_edge(&el, p, &cfg_of(KernelStrategy::Hash), &PLAIN).expect("hash");
        let (r, s) = cannon_per_edge(&el, p, &cfg_of(KernelStrategy::Auto), &PLAIN).expect("auto");
        assert_same_but_probes(&r, &ro, &format!("per-edge p={p}"));
        assert_eq!(s, so, "p={p}: per-edge supports diverged");
    }
}

#[test]
fn strategies_agree_on_summa() {
    // SUMMA hashes with stride 1 and contiguous panels — bit rows over
    // raw ids, rebased on each row's first key.
    let el = deform(rmat(8, 6, RmatParams::GRAPH500, 11).simplify(), 4, true);
    for (pr, pc) in [(1, 1), (2, 2), (2, 3), (3, 3), (4, 2)] {
        let grid = SummaGrid::new(pr, pc);
        let o = summa(&el, grid, &cfg_of(KernelStrategy::Hash), &PLAIN).expect("hash");
        let r = summa(&el, grid, &cfg_of(KernelStrategy::Auto), &PLAIN).expect("auto");
        assert_same_but_probes(&r, &o, &format!("summa {pr}x{pc}"));
    }
}

/// The deterministic face of one run: triangles and the five legacy
/// counters (tasks, probes, lookups, direct rows, probed rows) summed
/// over ranks.
type Pinned = (u64, [u64; 5]);

/// Index of `probes` in [`legacy_counters`].
const PROBES: usize = 1;

fn legacy_counters(r: &TcResult) -> [u64; 5] {
    let sum = |f: fn(&tc_core::RankMetrics) -> u64| r.ranks.iter().map(f).sum::<u64>();
    [
        r.total_tasks(),
        r.total_probes(),
        r.total_lookups(),
        sum(|m| m.direct_rows),
        sum(|m| m.probed_rows),
    ]
}

/// What a golden value looks like under `k`: `hash` reproduces all of
/// it; `auto` all but `probes`, which no bit row performs.
fn expected_under(k: KernelStrategy, (triangles, mut counters): Pinned) -> Pinned {
    if k == KernelStrategy::Auto {
        counters[PROBES] = 0;
    }
    (triangles, counters)
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
    // the bulk-credited counters, the prefetch and the split row load
    // must not move a single one of them under `hash`, at any grid:
    // p = 25 (q = 5) and the 2×3 SUMMA grid cover the odd strides,
    // p = 4 and 16 the powers of two, p = 1 and SUMMA's panels the
    // stride 1. `auto` reproduces all but `probes`.
    let el = deform(rmat(10, 8, RmatParams::GRAPH500, 7).simplify(), 3, true);
    // FNV-1a fingerprint of the per-edge supports — a property of the
    // graph, so one value for every grid and both kernels.
    const SUPPORTS: u64 = 10712917625209599150;
    let cannon: [(usize, Pinned); 5] = [
        (1, (30100, [6049, 47, 43748, 297, 41])),
        (4, (30100, [10969, 31, 42668, 1060, 52])),
        (9, (30100, [14894, 128, 41670, 2090, 139])),
        (16, (30100, [18118, 58, 40865, 3517, 107])),
        (25, (30100, [20667, 6, 39848, 5223, 27])),
    ];
    let summa_2x3: Pinned = (30100, [6049, 66, 43767, 2148, 66]);

    for k in STRATEGIES {
        for (p, golden) in cannon {
            let want = expected_under(k, golden);
            let (r, s) = cannon_per_edge(&el, p, &cfg_of(k), &PLAIN).expect("per-edge run");
            assert_eq!((r.triangles, legacy_counters(&r)), want, "{k} p={p}: per-edge run");
            assert_eq!(supports_fingerprint(&s), SUPPORTS, "{k} p={p}: supports");
            let plain = common::cannon(&el, p, &cfg_of(k), &PLAIN).expect("count run");
            assert_eq!((plain.triangles, legacy_counters(&plain)), want, "{k} p={p}");
        }
        let r = summa(&el, SummaGrid::new(2, 3), &cfg_of(k), &PLAIN).expect("summa");
        let want = expected_under(k, summa_2x3);
        assert_eq!((r.triangles, legacy_counters(&r)), want, "{k} summa 2x3");
    }
}

/// Runs one kernel under a metrics session and returns (triangles,
/// summed `tct.lookups`, summed kernel-counter values in
/// `names::TCT_KERNEL` order).
fn measured_run(el: &EdgeList, p: usize, k: KernelStrategy) -> (u64, u64, Vec<u64>) {
    let session = tc_metrics::MetricsSession::begin();
    let handle = session.handle();
    let obs = UniverseConfig { metrics: Some(handle), ..UniverseConfig::default() };
    let r = cannon(el, p, &cfg_of(k), &obs).expect("run");
    let snap = session.finish();
    let sum = |name: &str| (0..p).map(|rank| snap.counter(rank, name).unwrap_or(0)).sum::<u64>();
    let kernel: Vec<u64> = tc_metrics::names::TCT_KERNEL.iter().map(|n| sum(n)).collect();
    (r.triangles, sum(tc_metrics::names::TCT_LOOKUPS), kernel)
}

#[test]
fn kernel_counters_partition_lookups_and_report_strategy_mix() {
    use tc_metrics::names;
    let _g = mlock();
    let el = deform(rmat(8, 6, RmatParams::GRAPH500, 5).simplify(), 0, true);
    assert_eq!(names::TCT_KERNEL.len(), 6, "tct.kernel.* is six counters");
    let idx = |n: &str| names::TCT_KERNEL.iter().position(|&x| x == n).expect("kernel counter");
    let (h_lk, b_lk, b_rows, h_tasks, b_tasks) = (
        idx(names::TCT_KERNEL_HASH_LOOKUPS),
        idx(names::TCT_KERNEL_BITMAP_LOOKUPS),
        idx(names::TCT_KERNEL_BITMAP_ROWS),
        idx(names::TCT_KERNEL_HASH_TASKS),
        idx(names::TCT_KERNEL_BITMAP_TASKS),
    );
    for p in [1usize, 4, 9] {
        let (tri_h, lookups_h, hash) = measured_run(&el, p, KernelStrategy::Hash);
        let (tri_a, lookups_a, auto) = measured_run(&el, p, KernelStrategy::Auto);
        assert_eq!((tri_a, lookups_a), (tri_h, lookups_h), "p={p}");
        for (k, kernel, lookups) in [("hash", &hash, lookups_h), ("auto", &auto, lookups_a)] {
            assert_eq!(
                kernel[h_lk] + kernel[b_lk],
                lookups,
                "{k} p={p}: kernel lookup tallies must partition tct.lookups"
            );
        }
        assert_eq!(hash[b_lk] + hash[b_rows] + hash[b_tasks], 0, "p={p}: hash builds no bit row");
        assert!(auto[b_rows] > 0, "p={p}: the hub row must collide into a bit row");
        assert!(auto[b_lk] > 0 && auto[b_tasks] > 0, "p={p}: bit rows must serve tasks");
        assert_eq!(auto[h_tasks] + auto[b_tasks], hash[h_tasks], "p={p}: tasks move, none vanish");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random graphs with random deformations, every square rank
    /// count: `auto` must agree with the hash oracle on the full
    /// deterministic output, including per-edge supports.
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
        let oracle = cannon(&el, p, &cfg_of(KernelStrategy::Hash), &PLAIN).expect("hash");
        let (po, so) = cannon_per_edge(&el, p, &cfg_of(KernelStrategy::Hash), &PLAIN).expect("hash pe");
        prop_assert_eq!(po.triangles, oracle.triangles);
        let r = cannon(&el, p, &cfg_of(KernelStrategy::Auto), &PLAIN).expect("auto");
        assert_same_but_probes(&r, &oracle, "random graph");
        let (pr, s) = cannon_per_edge(&el, p, &cfg_of(KernelStrategy::Auto), &PLAIN).expect("auto pe");
        assert_same_but_probes(&pr, &po, "random graph, per edge");
        prop_assert_eq!(&s, &so);
    }
}
