//! k-truss decomposition driven by distributed per-edge triangle
//! supports — the paper's §1 motivating application ("the computations
//! involved in triangle counting forms an important step in computing
//! the k-truss decomposition").
//!
//! The distributed 2D counter produces the initial per-edge supports;
//! the serial peeler turns them into trussness values. The example
//! verifies that the distributed supports match the serial reference
//! exactly before peeling.
//!
//! Run with: `cargo run --release --example ktruss`

use tc_core::{count_per_edge, TcConfig};
use tc_gen::graph500;
use tc_graph::truss;

fn main() {
    let graph = graph500(11, 42).simplify();
    println!("graph: {} vertices, {} edges", graph.num_vertices, graph.num_edges());

    // Distributed per-edge supports on a 3×3 grid.
    let (result, supports) = count_per_edge(&graph, 9, &TcConfig::default());
    println!("triangles: {}", result.triangles);
    assert_eq!(supports.len(), graph.num_edges());

    // Cross-check every edge's support against the serial reference.
    let serial = truss::edge_supports(&graph).expect("simplified above");
    for (edge_support, (&(u, v), &s)) in supports.iter().zip(graph.edges.iter().zip(&serial)) {
        assert_eq!((edge_support.u, edge_support.v), (u, v), "edge order");
        assert_eq!(edge_support.support, s, "support of ({u},{v})");
    }
    println!("distributed per-edge supports match the serial reference");

    // Peel to the full truss decomposition.
    let decomposition = truss::truss_decomposition(&graph).expect("simplified above");
    let kmax = decomposition.max_truss();
    println!("maximum trussness: {kmax}");
    for k in (3..=kmax).rev().take(5) {
        println!("  {k}-truss: {} edges", decomposition.truss_edges(k).len());
    }

    // Sanity: an edge's trussness never exceeds support + 2.
    for (e, d) in supports.iter().zip(&decomposition.trussness) {
        assert!(u64::from(*d) <= e.support + 2);
    }
    println!("trussness bounds verified");
}
