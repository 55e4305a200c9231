//! Small-world clustering sweep — the classic Watts–Strogatz
//! experiment, with the triangle counts supplied by the paper's 2D
//! distributed algorithm.
//!
//! As the rewiring probability `beta` grows, the ring lattice's high
//! clustering collapses toward the random-graph level; the clustering
//! coefficient is `3·triangles / wedges`, so the distributed triangle
//! counter is the workhorse.
//!
//! Run with: `cargo run --release --example smallworld`

use tc_core::{count_triangles, TcConfig};
use tc_gen::watts_strogatz;
use tc_graph::{stats, Csr};

fn main() {
    let (n, k) = (1 << 13, 6);
    println!("Watts-Strogatz n={n}, k={k}, 16 ranks\n");
    println!("{:>6} {:>12} {:>14} {:>12}", "beta", "triangles", "transitivity", "tct(ms)");

    let mut lattice_transitivity = None;
    for beta in [0.0, 0.01, 0.05, 0.1, 0.3, 0.6, 1.0] {
        let el = watts_strogatz(n, k, beta, 42).simplify();
        let csr = Csr::from_edge_list(&el);
        let r = count_triangles(&el, 16, &TcConfig::default());
        let trans = stats::transitivity(&csr, r.triangles);
        lattice_transitivity.get_or_insert(trans);
        println!(
            "{:>6.2} {:>12} {:>14.5} {:>12.1}",
            beta,
            r.triangles,
            trans,
            r.tct_time().as_secs_f64() * 1e3
        );
    }
    let base = lattice_transitivity.unwrap();
    println!(
        "\nlattice transitivity {base:.3} (theory: 3(k-1)/(2(2k-1)) = {:.3})",
        3.0 * (k as f64 - 1.0) / (2.0 * (2.0 * k as f64 - 1.0))
    );
}
