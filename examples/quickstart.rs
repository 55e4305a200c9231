//! Quickstart: generate a Graph500 RMAT graph, count its triangles on
//! a 3×3 rank grid with the 2D algorithm, cross-check against the
//! serial reference, then go through the one fallible entry point for
//! a rectangular grid.
//!
//! Run with: `cargo run --release --example quickstart`

use tc_core::{count_triangles, run, Request, SummaGrid, TcConfig};
use tc_gen::graph500;
use tc_mps::{Launch, UniverseConfig};

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

    // `count_triangles` is shorthand for `run`: a request (what to
    // count, with which algorithm) on a launch (where the ranks run).
    // Here: SUMMA on a 2×3 grid of threads; failures are typed errors.
    let (cfg, ucfg) = (TcConfig::default(), UniverseConfig::default());
    let request = Request::new(&graph, &cfg).summa(SummaGrid::new(2, 3));
    match run(request, Launch::threads(6, &ucfg)) {
        Ok(r) => println!("triangles (SUMMA, 2x3)  : {}", r.triangles),
        Err(e) => eprintln!("run failed: {e}"),
    }
    // Six ranks are not a square grid, and `run` says so up front.
    let err = run(Request::new(&graph, &cfg), Launch::threads(6, &ucfg)).unwrap_err();
    println!("cannon on 6 ranks       : {err}");
}
