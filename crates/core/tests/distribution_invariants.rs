//! Structural invariants of the 2D decomposition, independent of the
//! triangle counts: conservation of edges across the redistribution,
//! block-placement laws, and the balance properties §5.1 argues for.

use tc_core::{count_triangles, TcConfig, TcResult};
use tc_gen::{graph500, Preset};
use tc_graph::EdgeList;

fn count_triangles_default(el: &EdgeList, p: usize) -> TcResult {
    count_triangles(el, p, &TcConfig::default())
}

#[test]
fn every_edge_becomes_exactly_one_task() {
    // Per-edge supports enumerate the tasks; their count must equal m
    // for every grid size.
    let el = graph500(9, 13).simplify();
    for p in [1usize, 4, 9, 25] {
        let (_, sup) = tc_core::count_per_edge(&el, p, &TcConfig::default());
        assert_eq!(sup.len(), el.num_edges(), "p={p}");
        // And they are exactly the input edges.
        let edges: Vec<(u32, u32)> = sup.iter().map(|e| (e.u, e.v)).collect();
        assert_eq!(edges, el.edges, "p={p}");
    }
}

#[test]
fn cyclic_distribution_balances_tasks() {
    // §5.1: "a cell-by-cell cyclic distribution will tend to assign a
    // similar number of non-zeros (tasks) ... to each processor."
    // The paper measured < 6 % imbalance on its inputs; allow slack
    // for our smaller graphs but require the same order.
    let el = Preset::G500 { scale: 13 }.build(3);
    for p in [16usize, 25] {
        let r = count_triangles_default(&el, p);
        let imb = r.task_imbalance();
        assert!(imb < 1.35, "p={p}: task imbalance {imb}");
    }
}

#[test]
fn degree_ordering_beats_natural_order_for_balance() {
    // The cyclic distribution's balance argument leans on the degree
    // ordering; with a graph whose natural labels are adversarial
    // (heavy vertices clustered at one end), the pipeline must still
    // balance because it reorders internally.
    let n: u32 = 4096;
    let mut edges = Vec::new();
    let mut x = 7u64;
    // Dense head: vertices 0..64 form a near-clique.
    for u in 0..64u32 {
        for v in u + 1..64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            if (x >> 33) % 3 != 0 {
                edges.push((u, v));
            }
        }
    }
    // Sparse tail ring.
    for u in 64..n {
        edges.push((u, (u + 1) % n));
    }
    let el = EdgeList::new(n as usize, edges).simplify();
    let r = count_triangles_default(&el, 16);
    assert!(r.task_imbalance() < 2.0, "imbalance {}", r.task_imbalance());
    let serial = tc_baselines::serial::count_default(&el);
    assert_eq!(r.triangles, serial);
}

#[test]
fn bytes_sent_scale_with_edges_not_quadratically() {
    // Preprocessing volume is O(m) per the §5.4 analysis; doubling the
    // scale (~2x the edges) must not 4x the bytes.
    let e1 = graph500(10, 5).simplify();
    let e2 = graph500(11, 5).simplify();
    let b1 = count_triangles_default(&e1, 16).total_bytes_sent() as f64;
    let b2 = count_triangles_default(&e2, 16).total_bytes_sent() as f64;
    let edge_ratio = e2.num_edges() as f64 / e1.num_edges() as f64;
    let byte_ratio = b2 / b1;
    assert!(
        byte_ratio < edge_ratio * 1.5,
        "bytes grew {byte_ratio:.2}x for {edge_ratio:.2}x edges"
    );
}

#[test]
fn shift_count_equals_grid_side() {
    let el = graph500(8, 1).simplify();
    for (p, q) in [(1usize, 1usize), (4, 2), (9, 3), (16, 4), (25, 5)] {
        let r = count_triangles_default(&el, p);
        for m in &r.ranks {
            assert_eq!(m.shift_compute.len(), q, "p={p}");
        }
    }
}

#[test]
fn unoptimized_configuration_does_more_work() {
    let el = graph500(10, 4).simplify();
    let opt = count_triangles(&el, 16, &TcConfig::default());
    let raw = count_triangles(&el, 16, &TcConfig::unoptimized());
    assert_eq!(opt.triangles, raw.triangles);
    assert!(opt.total_lookups() <= raw.total_lookups());
    // Direct-hash rows only exist in the optimized run.
    let opt_direct: u64 = opt.ranks.iter().map(|m| m.direct_rows).sum();
    let raw_direct: u64 = raw.ranks.iter().map(|m| m.direct_rows).sum();
    assert!(opt_direct > 0);
    assert_eq!(raw_direct, 0);
}

#[test]
fn single_rank_sends_only_self_messages() {
    // p = 1: the pipeline must not require any remote traffic (all
    // alltoallv payloads are self-deliveries, which cost no sends).
    let el = graph500(9, 2).simplify();
    let r = count_triangles_default(&el, 1);
    assert_eq!(r.total_bytes_sent(), 0);
    assert_eq!(r.triangles, tc_baselines::serial::count_default(&el));
}
