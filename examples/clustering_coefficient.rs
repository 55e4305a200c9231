//! Network-science application: clustering coefficient and
//! transitivity of a social network — the paper's motivating use of
//! triangle counts ("used in computing the clustering coefficient and
//! the transitivity ratio of graphs", §1).
//!
//! Builds a preferential-attachment graph (twitter-like) and a uniform
//! random graph (friendster-like) of the same size, computes both
//! statistics for each, and shows the distributed count agreeing with
//! the per-vertex serial pipeline.
//!
//! Run with: `cargo run --release --example clustering_coefficient`

use tc_baselines::serial::per_vertex_counts;
use tc_core::{count_triangles, TcConfig};
use tc_gen::Preset;
use tc_graph::{stats, Csr};

fn analyze(name: &str, preset: Preset) {
    let el = preset.build(7);
    let csr = Csr::from_edge_list(&el);
    let (total, per_vertex) = per_vertex_counts(&el);
    let transitivity = stats::transitivity(&csr, total);
    let avg_clustering = stats::average_clustering(&csr, &per_vertex);

    // The distributed count must agree with the serial total.
    let dist = count_triangles(&el, 16, &TcConfig::default());
    assert_eq!(dist.triangles, total);

    println!("{name}");
    println!("  vertices            : {}", el.num_vertices);
    println!("  edges               : {}", el.num_edges());
    println!("  triangles           : {total}");
    println!("  wedges              : {}", stats::total_wedges(&csr));
    println!("  transitivity        : {transitivity:.5}");
    println!("  avg clustering coef : {avg_clustering:.5}");
    println!();
}

fn main() {
    // Same vertex budget, very different closure structure: the
    // skewed graph closes a far larger fraction of its wedges.
    analyze("twitter-like (preferential attachment)", Preset::TwitterLike { scale: 11 });
    analyze("friendster-like (uniform random)", Preset::FriendsterLike { scale: 11 });
}
