//! Erdős–Rényi G(n, m) generator.
//!
//! Uniform random graphs have vanishing clustering, which makes them
//! the right stand-in for the paper's friendster input (1.8B edges but
//! only 191,716 triangles in the Graph Challenge edition): lots of
//! wedges, almost no closures.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use tc_graph::edgelist::{edge_threads, EdgeList, VertexId};

use crate::stream::draw_edges;

/// Samples `m` edges uniformly (with replacement) over `n` vertices;
/// self loops excluded at the source. Deterministic per seed. Edge `i`
/// owns draws `[2i, 2i + 2)` of the seed's stream, so the stream splits
/// across cores and the list is the same on any number of them.
pub fn gnm(n: usize, m: usize, seed: u64) -> EdgeList {
    gnm_on(n, m, seed, None)
}

/// [`gnm`] with its edges drawn on `threads` cores ([`edge_threads`]
/// when `None`).
fn gnm_on(n: usize, m: usize, seed: u64, threads: Option<usize>) -> EdgeList {
    assert!(n <= u32::MAX as usize, "vertex count exceeds u32");
    if n < 2 {
        return EdgeList::empty(n);
    }
    let rng = SmallRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
    let threads = threads.unwrap_or_else(|| edge_threads(m));
    let edges = draw_edges(m, 2, &rng, threads, |rng| {
        let u = rng.random_range(0..n as u64) as VertexId;
        let v = rng.random_range(0..n as u64 - 1) as VertexId;
        // Skipping `u` avoids self loops without rejection sampling.
        (u, v + VertexId::from(v >= u))
    });
    EdgeList::new(n, edges)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The sequential loop the split must reproduce.
    fn sequential_oracle(n: usize, m: usize, seed: u64) -> EdgeList {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
        let mut edges = Vec::with_capacity(m);
        for _ in 0..m {
            let u = rng.random_range(0..n as u64) as VertexId;
            let mut v = rng.random_range(0..n as u64 - 1) as VertexId;
            if v >= u {
                v += 1;
            }
            edges.push((u, v));
        }
        EdgeList::new(n, edges)
    }

    #[test]
    fn thread_count_never_changes_the_edges() {
        for (n, m) in [(2, 1), (3, 5), (1000, 7001)] {
            let want = sequential_oracle(n, m, 13);
            for threads in 1..=8 {
                assert_eq!(gnm_on(n, m, 13, Some(threads)), want, "n {n} m {m} {threads} threads");
            }
        }
    }

    #[test]
    fn respects_bounds_and_no_self_loops() {
        let el = gnm(100, 500, 9);
        assert_eq!(el.num_edges(), 500);
        assert!(el.edges.iter().all(|&(u, v)| u != v && u < 100 && v < 100));
    }

    #[test]
    fn deterministic_per_seed() {
        assert_eq!(gnm(64, 128, 5), gnm(64, 128, 5));
        assert_ne!(gnm(64, 128, 5), gnm(64, 128, 6));
    }

    #[test]
    fn tiny_graphs() {
        assert_eq!(gnm(0, 10, 1).num_edges(), 0);
        assert_eq!(gnm(1, 10, 1).num_edges(), 0);
        let el = gnm(2, 10, 1).simplify();
        assert_eq!(el.edges, vec![(0, 1)]);
    }

    #[test]
    fn degrees_are_roughly_uniform() {
        let el = gnm(1 << 10, 1 << 14, 3).simplify();
        let deg = el.degrees();
        let avg = deg.iter().map(|&d| d as f64).sum::<f64>() / deg.len() as f64;
        let max = *deg.iter().max().unwrap() as f64;
        // Poisson-ish: the max should stay within a small factor of the mean.
        assert!(max < avg * 4.0, "max {max} avg {avg}");
    }
}
