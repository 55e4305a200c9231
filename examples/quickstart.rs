//! Quickstart: generate a Graph500 RMAT graph, count its triangles on
//! a 3×3 rank grid with the 2D algorithm, and cross-check against the
//! serial reference.
//!
//! Run with: `cargo run --release --example quickstart`

use tc_core::{count_triangles, TcConfig};
use tc_gen::graph500;

fn main() {
    // A scale-12 Graph500 instance: 4096 vertices, ~64k edge samples.
    let graph = graph500(12, 42).simplify();
    println!("graph: {} vertices, {} edges", graph.num_vertices, graph.num_edges());

    // Count on 9 ranks (a 3×3 processor grid) with the paper's
    // default configuration.
    let result = count_triangles(&graph, 9, &TcConfig::default());
    println!("triangles (2D, 9 ranks) : {}", result.triangles);
    println!("  preprocessing time    : {:.2?}", result.ppt_time());
    println!("  counting time         : {:.2?}", result.tct_time());
    println!("  intersection tasks    : {}", result.total_tasks());
    println!("  bytes communicated    : {}", result.total_bytes_sent());

    // The serial map-based <j,i,k> kernel must agree exactly.
    let serial = tc_baselines::serial::count_default(&graph);
    println!("triangles (serial)      : {serial}");
    assert_eq!(result.triangles, serial);
    println!("counts agree");
}
