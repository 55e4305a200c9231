//! The core invariant: for every graph, every perfect-square rank
//! count, and every optimization configuration, the 2D distributed
//! count equals the serial reference count.

use tc_baselines::serial;
use tc_core::{count_triangles, Enumeration, TcConfig, TcResult};
use tc_gen::{graph500, rmat, RmatParams};
use tc_graph::EdgeList;

fn count_triangles_default(el: &EdgeList, p: usize) -> TcResult {
    count_triangles(el, p, &TcConfig::default())
}

fn check_all_grids(el: &EdgeList, expect: u64) {
    for p in [1usize, 4, 9, 16, 25] {
        let r = count_triangles_default(el, p);
        assert_eq!(r.triangles, expect, "p={p}");
        assert_eq!(r.num_ranks, p);
        assert_eq!(r.ranks.len(), p);
        // Local counts must sum to the global count.
        let local_sum: u64 = r.ranks.iter().map(|m| m.local_triangles).sum();
        assert_eq!(local_sum, expect, "p={p} local sum");
    }
}

#[test]
fn triangle_and_pendant() {
    let el = EdgeList::new(4, vec![(0, 1), (0, 2), (1, 2), (2, 3)]).simplify();
    assert_eq!(serial::count_default(&el), 1);
    check_all_grids(&el, 1);
}

#[test]
fn complete_graph_k8() {
    let mut edges = Vec::new();
    for u in 0..8u32 {
        for v in u + 1..8 {
            edges.push((u, v));
        }
    }
    let el = EdgeList::new(8, edges).simplify();
    // C(8,3) = 56 triangles.
    assert_eq!(serial::count_default(&el), 56);
    check_all_grids(&el, 56);
}

#[test]
fn triangle_free_bipartite() {
    let mut edges = Vec::new();
    for u in 0..6u32 {
        for v in 6..12u32 {
            edges.push((u, v));
        }
    }
    let el = EdgeList::new(12, edges).simplify();
    check_all_grids(&el, 0);
}

#[test]
fn empty_and_tiny_graphs() {
    check_all_grids(&EdgeList::empty(0), 0);
    check_all_grids(&EdgeList::empty(7), 0);
    let one_edge = EdgeList::new(2, vec![(0, 1)]).simplify();
    check_all_grids(&one_edge, 0);
    let tri = EdgeList::new(3, vec![(0, 1), (0, 2), (1, 2)]).simplify();
    check_all_grids(&tri, 1);
}

#[test]
fn fewer_vertices_than_ranks() {
    // 3 vertices on up to 25 ranks: most blocks are empty.
    let el = EdgeList::new(3, vec![(0, 1), (0, 2), (1, 2)]).simplify();
    check_all_grids(&el, 1);
}

#[test]
fn rmat_matches_serial() {
    let el = graph500(9, 123).simplify();
    let expect = serial::count_default(&el);
    assert!(expect > 0);
    check_all_grids(&el, expect);
}

#[test]
fn uniform_rmat_matches_serial() {
    let el = rmat(9, 8, RmatParams { a: 0.25, b: 0.25, c: 0.25 }, 77).simplify();
    let expect = serial::count_default(&el);
    check_all_grids(&el, expect);
}

#[test]
fn all_configurations_agree() {
    let el = graph500(8, 5).simplify();
    let expect = serial::count_default(&el);
    let configs = [
        TcConfig::default(),
        TcConfig::unoptimized(),
        TcConfig::default().with_enumeration(Enumeration::Ijk),
        TcConfig::default().with_doubly_sparse(false),
        TcConfig::default().with_direct_hash(false),
        TcConfig::default().with_reverse_early_break(false),
        TcConfig::unoptimized().with_enumeration(Enumeration::Ijk),
    ];
    for cfg in &configs {
        for p in [1usize, 4, 9, 16] {
            let r = count_triangles(&el, p, cfg);
            assert_eq!(r.triangles, expect, "cfg={cfg:?} p={p}");
        }
    }
}

#[test]
#[should_panic(expected = "perfect square")]
fn rejects_non_square_rank_count() {
    let el = EdgeList::new(3, vec![(0, 1)]).simplify();
    let _ = count_triangles_default(&el, 6);
}

#[test]
#[should_panic(expected = "simplified")]
fn rejects_unsimplified_input() {
    let el = EdgeList::new(3, vec![(1, 0)]);
    let _ = count_triangles_default(&el, 4);
}

#[test]
fn metrics_are_populated() {
    let el = graph500(8, 5).simplify();
    let r = count_triangles_default(&el, 9);
    assert!(r.ppt_time().as_nanos() > 0);
    assert!(r.tct_time().as_nanos() > 0);
    assert!(r.total_tasks() > 0);
    assert!(r.total_lookups() > 0);
    assert!(r.total_bytes_sent() > 0);
    assert!(r.task_imbalance() >= 1.0);
    for m in &r.ranks {
        assert_eq!(m.shift_compute.len(), 3, "q=3 shifts");
    }
    let (mx, avg, imb) = r.shift_imbalance();
    assert!(mx >= avg);
    assert!(imb >= 1.0);
}

#[test]
fn task_count_grows_with_ranks() {
    // The paper's Table 4: redundant work increases with the grid
    // side because adjacency fragments lose early-break opportunities.
    let el = graph500(10, 9).simplify();
    let t1 = count_triangles_default(&el, 1).total_tasks();
    let t16 = count_triangles_default(&el, 16).total_tasks();
    assert!(t16 >= t1, "t1={t1} t16={t16}");
}
