//! The root-scatter entry point must agree with the shared-input
//! pipeline on every graph and grid.

use tc_core::{count_triangles_default, count_triangles_from_root, TcConfig};
use tc_gen::graph500;
use tc_graph::EdgeList;

#[test]
fn matches_shared_input_pipeline() {
    let el = graph500(9, 3).simplify();
    for p in [1usize, 4, 9, 16] {
        let shared = count_triangles_default(&el, p);
        let rooted = count_triangles_from_root(&el, p, &TcConfig::default());
        assert_eq!(rooted.triangles, shared.triangles, "p={p}");
        assert_eq!(rooted.total_tasks(), shared.total_tasks(), "p={p}");
        // The scatter adds root-side bytes: at least the graph once.
        assert!(rooted.total_bytes_sent() >= shared.total_bytes_sent(), "p={p}");
    }
}

#[test]
fn degenerate_graphs() {
    for el in [
        EdgeList::empty(0),
        EdgeList::empty(5),
        EdgeList::new(3, vec![(0, 1), (0, 2), (1, 2)]).simplify(),
    ] {
        let r = count_triangles_from_root(&el, 4, &TcConfig::default());
        let s = count_triangles_default(&el, 4);
        assert_eq!(r.triangles, s.triangles);
    }
}

#[test]
fn works_with_all_optimizations_off() {
    let el = graph500(8, 8).simplify();
    let r = count_triangles_from_root(&el, 9, &TcConfig::unoptimized());
    assert_eq!(r.triangles, tc_baselines::serial::count_default(&el));
}
