//! Per-edge triangle support correctness: the distributed accumulation
//! (with its three-way credit exchange) must match the serial
//! support computation edge for edge.

use tc_core::{count_per_edge, Enumeration, TcConfig};
use tc_gen::graph500;
use tc_graph::truss;
use tc_graph::EdgeList;

fn check(el: &EdgeList, p: usize, cfg: &TcConfig) {
    let serial = truss::edge_supports(el).unwrap();
    let (r, sup) = count_per_edge(el, p, cfg);
    assert_eq!(sup.len(), el.num_edges(), "p={p}");
    let mut total3 = 0u64;
    for (e, (&(u, v), &s)) in sup.iter().zip(el.edges.iter().zip(&serial)) {
        assert_eq!((e.u, e.v), (u, v), "p={p}: edge order");
        assert_eq!(e.support, s, "p={p}: support of ({u},{v})");
        total3 += e.support;
    }
    // Each triangle contributes to exactly three edges.
    assert_eq!(total3, 3 * r.triangles, "p={p}");
}

#[test]
fn matches_serial_on_rmat() {
    let el = graph500(8, 5).simplify();
    for p in [1usize, 4, 9, 16] {
        check(&el, p, &TcConfig::default());
    }
}

#[test]
fn works_under_both_enumerations() {
    let el = graph500(7, 2).simplify();
    check(&el, 9, &TcConfig::default());
    check(&el, 9, &TcConfig::default().with_enumeration(Enumeration::Ijk));
    check(&el, 4, &TcConfig::unoptimized());
}

#[test]
fn handles_triangle_free_and_tiny_graphs() {
    let star = EdgeList::new(5, vec![(0, 1), (0, 2), (0, 3), (0, 4)]).simplify();
    check(&star, 4, &TcConfig::default());
    check(&EdgeList::new(2, vec![(0, 1)]).simplify(), 4, &TcConfig::default());
    let (_, sup) = count_per_edge(&EdgeList::empty(3), 4, &TcConfig::default());
    assert!(sup.is_empty());
}

#[test]
fn supports_feed_truss_decomposition() {
    // End-to-end: distributed supports equal the peeler's starting
    // supports, so trussness computed from either must agree.
    let el = graph500(8, 11).simplify();
    let (_, sup) = count_per_edge(&el, 9, &TcConfig::default());
    let d = truss::truss_decomposition(&el).unwrap();
    assert_eq!(d.edges.len(), sup.len());
    for (e, &t) in sup.iter().zip(&d.trussness) {
        assert!(u64::from(t) <= e.support + 2, "({},{})", e.u, e.v);
    }
}
