//! Edge-case property tests of the per-shift intersection kernel: on
//! random RMAT and Erdős–Rényi graphs — deformed to include isolated
//! vertices and a maximum-degree hub — every combination of the
//! `doubly_sparse` and `reverse_early_break` optimizations, under both
//! kernels, must agree with the serial reference count, both
//! when driving [`count_shift`] directly on a single-rank block set and
//! through the full 2D pipeline.

use proptest::prelude::*;
use tc_baselines::serial;
use tc_core::blocks::SparseBlock;
use tc_core::count::count_shift;
use tc_core::intersect::KernelState;
use tc_core::{count_triangles, KernelStrategy, TcConfig};
use tc_gen::er::gnm;
use tc_gen::graph500;
use tc_graph::EdgeList;

/// All four on/off combinations of the two kernel optimizations, each
/// under both kernels.
fn kernel_configs() -> Vec<TcConfig> {
    let mut cfgs = Vec::new();
    for kernel in [KernelStrategy::Auto, KernelStrategy::Hash] {
        for (doubly_sparse, early_break) in
            [(true, true), (true, false), (false, true), (false, false)]
        {
            cfgs.push(
                TcConfig::default()
                    .with_kernel(kernel)
                    .with_doubly_sparse(doubly_sparse)
                    .with_reverse_early_break(early_break),
            );
        }
    }
    cfgs
}

/// Runs the kernel as a single rank (q = 1, one shift): the task block
/// holds one `(a, b)` task per edge `b < a`, and the upper adjacency
/// serves as both the hash and the probe operand.
fn kernel_count(el: &EdgeList, cfg: &TcConfig) -> u64 {
    let n = el.num_vertices.max(1);
    let mut u_pairs: Vec<(u32, u32)> = el.edges.clone();
    let mut p_pairs: Vec<(u32, u32)> = el.edges.clone();
    let mut t_pairs: Vec<(u32, u32)> = el.edges.iter().map(|&(u, v)| (v, u)).collect();
    let ublock = SparseBlock::from_pairs(n, 1, &mut u_pairs);
    let pblock = SparseBlock::from_pairs(n, 1, &mut p_pairs);
    let task = SparseBlock::from_pairs(n, 1, &mut t_pairs);
    let mut ks = KernelState::new(ublock.max_row_len(), 1);
    let mut tasks = 0u64;
    count_shift(&task, &ublock, &pblock, &mut ks, 1, cfg, &mut tasks)
}

/// Adds `isolated` unreferenced vertices and, when `hub` is set, one
/// vertex adjacent to every original vertex (the maximum-degree case).
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

fn check_all_kernel_configs(el: &EdgeList) {
    let expect = serial::count_default(el);
    for cfg in kernel_configs() {
        assert_eq!(kernel_count(el, &cfg), expect, "kernel cfg={cfg:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn rmat_graphs_agree_across_configs(
        scale in 4u32..8,
        seed in 0u64..1_000,
        isolated in 0usize..6,
        hub in any::<bool>(),
    ) {
        let el = deform(graph500(scale, seed).simplify(), isolated, hub);
        check_all_kernel_configs(&el);
    }

    #[test]
    fn er_graphs_agree_across_configs(
        n in 2usize..80,
        density in 0usize..4,
        seed in 0u64..1_000,
        isolated in 0usize..6,
        hub in any::<bool>(),
    ) {
        let m = n * (density + 1) / 2;
        let el = deform(gnm(n, m, seed), isolated, hub);
        check_all_kernel_configs(&el);
    }

    #[test]
    fn pipeline_matches_kernel_on_deformed_graphs(
        seed in 0u64..1_000,
        isolated in 0usize..6,
        hub in any::<bool>(),
    ) {
        // The same config grid through the full 2D pipeline on a
        // multi-rank grid, so block decomposition of the deformed
        // graphs is covered too.
        let el = deform(graph500(6, seed).simplify(), isolated, hub);
        let expect = serial::count_default(&el);
        for cfg in kernel_configs() {
            for p in [1usize, 4] {
                let r = count_triangles(&el, p, &cfg);
                prop_assert_eq!(r.triangles, expect, "pipeline cfg={:?} p={}", cfg, p);
            }
        }
    }
}

#[test]
fn star_graph_is_triangle_free_in_every_config() {
    // Pure hub: maximum-degree vertex, no triangles.
    let el = deform(EdgeList::empty(12), 0, true);
    check_all_kernel_configs(&el);
    assert_eq!(serial::count_default(&el), 0);
}

#[test]
fn all_vertices_isolated() {
    let el = EdgeList::empty(9);
    check_all_kernel_configs(&el);
}
