//! Watts–Strogatz small-world generator.
//!
//! The paper motivates triangle counting through clustering-coefficient
//! analyses of small-world networks (Watts & Strogatz, ref. \[24\]);
//! this generator produces that regime: a ring lattice (high
//! clustering) with a tunable rewiring probability `beta` that trades
//! clustering for short paths.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use tc_graph::edgelist::{EdgeList, VertexId};

/// Generates a Watts–Strogatz graph: `n` vertices on a ring, each
/// connected to its `k` nearest neighbours on each side, then every
/// edge's far endpoint rewired with probability `beta`.
///
/// # Panics
///
/// Panics if `k == 0`, `2k + 1 > n` (lattice would self-intersect),
/// or `beta` is outside `[0, 1]`.
pub fn watts_strogatz(n: usize, k: usize, beta: f64, seed: u64) -> EdgeList {
    assert!(k > 0, "each vertex needs at least one lattice neighbour");
    assert!(2 * k < n, "ring lattice needs n >= 2k + 1");
    assert!((0.0..=1.0).contains(&beta), "beta must be a probability");
    assert!(n <= u32::MAX as usize, "vertex count exceeds u32");
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x853c_49e6_748f_ea9b);
    let mut edges = Vec::with_capacity(n * k);
    for u in 0..n as u64 {
        for d in 1..=k as u64 {
            let v = (u + d) % n as u64;
            if rng.random::<f64>() < beta {
                // Rewire the far endpoint anywhere except u itself.
                let mut w = rng.random_range(0..n as u64 - 1);
                if w >= u {
                    w += 1;
                }
                edges.push((u as VertexId, w as VertexId));
            } else {
                edges.push((u as VertexId, v as VertexId));
            }
        }
    }
    EdgeList::new(n, edges)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn beta_zero_is_the_ring_lattice() {
        let el = watts_strogatz(20, 2, 0.0, 1).simplify();
        // Each vertex has exactly 2k = 4 neighbours.
        assert!(el.degrees().iter().all(|&d| d == 4));
        assert_eq!(el.num_edges(), 40);
    }

    #[test]
    fn lattice_has_high_clustering() {
        // k = 3 lattice: each vertex's neighbourhood is dense in
        // triangles; transitivity is 0.6 exactly for beta = 0.
        let el = watts_strogatz(100, 3, 0.0, 1).simplify();
        let csr = tc_graph::Csr::from_edge_list(&el);
        // Triangles per vertex on the ring: k(k-1) summed... verify
        // via wedge ratio instead of a closed form.
        let triangles: u64 = {
            // count closed wedges brute force on this small graph
            let mut t = 0u64;
            for u in 0..100u32 {
                let nu = csr.neighbors(u);
                for (i, &a) in nu.iter().enumerate() {
                    for &b in &nu[i + 1..] {
                        if csr.has_edge(a, b) {
                            t += 1;
                        }
                    }
                }
            }
            t / 3
        };
        let trans = tc_graph::stats::transitivity(&csr, triangles);
        assert!((trans - 0.6).abs() < 1e-9, "transitivity {trans}");
    }

    #[test]
    fn rewiring_lowers_clustering() {
        let count = |beta: f64| {
            let el = watts_strogatz(2000, 4, beta, 7).simplify();
            tc_baselines_free_count(&el)
        };
        let lattice = count(0.0);
        let random = count(1.0);
        assert!(lattice > 3 * random, "lattice {lattice} vs rewired {random}");
    }

    /// Tiny local counter to avoid a dev-dependency cycle with
    /// tc-baselines.
    fn tc_baselines_free_count(el: &EdgeList) -> u64 {
        let csr = tc_graph::Csr::from_edge_list(el);
        let mut t = 0u64;
        for (u, v) in csr.edges() {
            t += tc_graph::vset::sorted_intersection_count(csr.neighbors(u), csr.neighbors(v));
        }
        t / 3
    }

    #[test]
    fn deterministic_and_bounded() {
        let a = watts_strogatz(50, 2, 0.3, 9);
        assert_eq!(a, watts_strogatz(50, 2, 0.3, 9));
        assert!(a.edges.iter().all(|&(u, v)| u < 50 && v < 50 && u != v));
    }

    #[test]
    #[should_panic(expected = "n >= 2k + 1")]
    fn rejects_oversized_k() {
        watts_strogatz(5, 3, 0.0, 0);
    }
}
