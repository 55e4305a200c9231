//! A miniature strong-scaling study: the paper's Table 2 experiment
//! on one dataset, printing phase times, speedups, and where the time
//! goes (computation vs communication) as the grid grows.
//!
//! Run with: `cargo run --release --example scaling_study [scale]`

use tc_core::{count_triangles, TcConfig};
use tc_gen::graph500;

fn main() {
    let scale = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(13u32);
    let graph = graph500(scale, 42).simplify();
    println!("g500-s{scale}: {} vertices, {} edges\n", graph.num_vertices, graph.num_edges());
    println!(
        "{:>5} {:>5} {:>9} {:>9} {:>9} {:>8} {:>10} {:>10}",
        "ranks", "grid", "ppt(ms)", "tct(ms)", "total", "speedup", "tct-comm%", "tasks"
    );

    let mut base: Option<f64> = None;
    for p in [1usize, 4, 9, 16, 25, 36] {
        let r = count_triangles(&graph, p, &TcConfig::default());
        let total = r.overall_time().as_secs_f64();
        let b = *base.get_or_insert(total);
        let q = tc_mps::perfect_square_side(p).unwrap();
        println!(
            "{:>5} {:>5} {:>9.1} {:>9.1} {:>9.1} {:>8.2} {:>10.1} {:>10}",
            p,
            format!("{q}x{q}"),
            r.ppt_time().as_secs_f64() * 1e3,
            r.tct_time().as_secs_f64() * 1e3,
            total * 1e3,
            b / total,
            100.0 * r.tct_comm_fraction(),
            r.total_tasks(),
        );
    }
    println!("\n(speedup is relative to 1 rank; the paper's Table 2 uses 16 ranks as base)");
}
