//! Distributed k-truss decomposition.
//!
//! The paper motivates its triangle-counting kernel as "an important
//! step in computing the k-truss decomposition of a graph" (§1); this
//! module closes that loop: a distributed-memory truss decomposition
//! running on the same message-passing substrate, with the triangle
//! supports computed by the same map-based set intersections.
//!
//! ## Algorithm
//!
//! AOP-style data placement (each rank owns a 1D block of the
//! degree-ordered vertices and replicates the adjacency of referenced
//! remote vertices once, up front), then level-by-level peeling with a
//! recompute-until-fixpoint inner loop:
//!
//! ```text
//! for k = 3, 4, … while edges remain alive:
//!   loop:
//!     recompute supports of alive owned edges (local intersections)
//!     dead := owned alive edges with support < k − 2
//!     if globally none: break        (fixpoint: survivors are ≥ k)
//!     mark dead, trussness = k − 1; broadcast deaths to every rank
//!     holding a copy of either endpoint's adjacency
//! ```
//!
//! The fixpoint formulation trades recomputation for simplicity and
//! obvious correctness (it needs no transactional decrement protocol);
//! supports are recomputed only for *alive* edges against *alive*
//! adjacencies, so the per-round cost shrinks as peeling progresses.
//! Results are validated against the serial bucket-queue peeler in
//! `tc_graph::truss`.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use tc_graph::edgelist::EdgeList;
use tc_graph::vset::VertexSet;
use tc_graph::Block1D;
use tc_mps::{MpsResult, Universe};

use crate::adjstore;

/// Result of a distributed truss decomposition.
#[derive(Debug, Clone)]
pub struct DtrussResult {
    /// Edges `(u, v)` with `u < v`, sorted — same order as the
    /// simplified input.
    pub edges: Vec<(u32, u32)>,
    /// Trussness per edge, parallel to `edges`.
    pub trussness: Vec<u32>,
    /// Maximum trussness.
    pub max_truss: u32,
    /// Peeling rounds executed (support recomputations).
    pub rounds: u32,
    /// Wall time of the whole decomposition (slowest rank).
    pub time: Duration,
}

/// Runs the distributed truss decomposition on `p` ranks. A crashed,
/// hung, or diverged rank surfaces as an [`tc_mps::MpsError`].
///
/// # Panics
///
/// Panics if `el` is not simplified.
pub fn truss_decomposition_dist(el: &EdgeList, p: usize) -> MpsResult<DtrussResult> {
    assert!(el.is_simple(), "truss decomposition needs a simplified graph");
    // Degree-ordering up front mirrors the counting pipeline and keeps
    // the per-edge intersection lists short.
    let (ordered, perm) = tc_graph::degree::relabel_by_degree(el.clone());
    let n = ordered.num_vertices;
    let csr = tc_graph::Csr::from_edge_list(&ordered);
    let block = Block1D::new(n, p);

    let outs = Universe::try_run(p, |comm| {
        let rank = comm.rank();
        let t0 = Instant::now();
        let (lo, hi) = block.range(rank);

        // ---- setup: local + ghost adjacency (AOP pattern) ----
        let store = adjstore::build_from_csr(comm, &csr, block)?;

        // Owned edges: (u, v) with u owned here, u < v.
        let mut owned: Vec<(u32, u32)> = Vec::new();
        for u in lo as u32..hi as u32 {
            for &v in store.neighbors(u) {
                if v > u {
                    owned.push((u, v));
                }
            }
        }
        let mut alive = vec![true; owned.len()];
        let mut trussness = vec![2u32; owned.len()];
        // Dead-edge flags for *all* edges this rank's intersections can
        // touch, keyed by (min, max).
        let mut dead_edges: std::collections::HashSet<(u32, u32)> =
            std::collections::HashSet::new();
        let edge_index: HashMap<(u32, u32), usize> =
            owned.iter().copied().enumerate().map(|(i, e)| (e, i)).collect();

        let max_deg = store.max_row_len();
        let mut set = VertexSet::with_capacity(max_deg);
        let mut rounds = 0u32;
        let mut k = 3u32;
        let mut alive_count = comm.allreduce_sum_u64(owned.len() as u64)?;

        while alive_count > 0 {
            loop {
                rounds += 1;
                // Recompute supports of alive owned edges against the
                // alive subgraph.
                let mut deaths: Vec<(u32, u32)> = Vec::new();
                for (i, &(u, v)) in owned.iter().enumerate() {
                    if !alive[i] {
                        continue;
                    }
                    // |N⁺(u) ∩ N⁺(v)| over alive edges: hash u's alive
                    // neighbours, probe with v's, checking that both
                    // wing edges are alive.
                    set.clear();
                    for &w in store.neighbors(u) {
                        if w != v && !dead_edges.contains(&(u.min(w), u.max(w))) {
                            set.insert(w);
                        }
                    }
                    let mut support = 0u32;
                    for &w in store.neighbors(v) {
                        if w != u && set.contains(w) && !dead_edges.contains(&(v.min(w), v.max(w)))
                        {
                            support += 1;
                        }
                    }
                    if support < k - 2 {
                        deaths.push((u, v));
                    }
                }
                // Fixpoint check across all ranks.
                let global_deaths = comm.allreduce_sum_u64(deaths.len() as u64)?;
                if global_deaths == 0 {
                    break;
                }
                // Apply and broadcast the deaths to every rank holding
                // a copy of either endpoint's adjacency.
                let mut sends: Vec<Vec<[u32; 2]>> = (0..p).map(|_| Vec::new()).collect();
                for &(u, v) in &deaths {
                    let i = edge_index[&(u, v)];
                    alive[i] = false;
                    trussness[i] = k - 1;
                    let mut stamp = vec![false; p];
                    for &w in store.neighbors(u).iter().chain(store.neighbors(v)) {
                        let dst = block.owner(w);
                        if !stamp[dst] {
                            stamp[dst] = true;
                            sends[dst].push([u, v]);
                        }
                    }
                    for dst in [block.owner(u), block.owner(v)] {
                        if !stamp[dst] {
                            stamp[dst] = true;
                            sends[dst].push([u, v]);
                        }
                    }
                }
                for msg in comm.alltoallv(&sends)? {
                    for [u, v] in msg {
                        dead_edges.insert((u, v));
                    }
                }
            }
            // Survivors of level k have trussness ≥ k.
            let mut survivors = 0u64;
            for (i, a) in alive.iter().enumerate() {
                if *a {
                    trussness[i] = k;
                    survivors += 1;
                }
            }
            alive_count = comm.allreduce_sum_u64(survivors)?;
            k += 1;
        }

        // Gather (edge, trussness) triples on rank 0.
        let triples: Vec<[u32; 3]> =
            owned.iter().zip(&trussness).map(|(&(u, v), &t)| [u, v, t]).collect();
        let gathered = comm.gatherv(0, &triples)?;
        Ok((gathered, rounds, t0.elapsed()))
    })?;

    // Translate back to input labels on the gathered result.
    let inv = tc_graph::degree::invert_permutation(&perm);
    let mut edges_trussness: Vec<((u32, u32), u32)> = Vec::with_capacity(el.num_edges());
    let mut rounds = 0;
    let mut time = Duration::ZERO;
    for (gathered, r, t) in outs {
        rounds = rounds.max(r);
        time = time.max(t);
        if let Some(parts) = gathered {
            for part in parts {
                for [u, v, tr] in part {
                    let (ou, ov) = (inv[u as usize], inv[v as usize]);
                    edges_trussness.push(((ou.min(ov), ou.max(ov)), tr));
                }
            }
        }
    }
    edges_trussness.sort_unstable_by_key(|&(e, _)| e);
    let (edges, trussness): (Vec<_>, Vec<_>) = edges_trussness.into_iter().unzip();
    let max_truss = trussness.iter().copied().max().unwrap_or(0);
    Ok(DtrussResult { edges, trussness, max_truss, rounds, time })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tc_graph::truss;

    fn check_matches_serial(el: &EdgeList, p: usize) {
        let serial = truss::truss_decomposition(el).unwrap();
        let dist = truss_decomposition_dist(el, p).unwrap();
        assert_eq!(dist.edges, serial.edges, "p={p}: edge sets differ");
        assert_eq!(dist.trussness, serial.trussness, "p={p}: trussness differs");
        assert_eq!(dist.max_truss, serial.max_truss());
    }

    #[test]
    fn k5_everywhere() {
        let mut edges = Vec::new();
        for u in 0..5u32 {
            for v in u + 1..5 {
                edges.push((u, v));
            }
        }
        let el = EdgeList::new(5, edges).simplify();
        for p in [1, 2, 4] {
            check_matches_serial(&el, p);
        }
    }

    #[test]
    fn mixed_structure() {
        // K4 + pendant triangle + tail (trussness levels 4, 3, 2).
        let el = EdgeList::new(
            8,
            vec![
                (0, 1),
                (0, 2),
                (0, 3),
                (1, 2),
                (1, 3),
                (2, 3), // K4
                (3, 4),
                (3, 5),
                (4, 5), // triangle
                (5, 6),
                (6, 7), // tail
            ],
        )
        .simplify();
        for p in [1, 3, 5] {
            check_matches_serial(&el, p);
        }
    }

    #[test]
    fn random_graphs_match_serial() {
        for seed in [1u64, 7, 23] {
            let el = tc_gen::graph500(7, seed).simplify();
            check_matches_serial(&el, 4);
        }
    }

    #[test]
    fn triangle_free_graph_is_all_twos() {
        let el = EdgeList::new(6, vec![(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]).simplify();
        let d = truss_decomposition_dist(&el, 3).unwrap();
        assert!(d.trussness.iter().all(|&t| t == 2));
        assert_eq!(d.max_truss, 2);
    }

    #[test]
    fn empty_graph() {
        let d = truss_decomposition_dist(&EdgeList::empty(4), 2).unwrap();
        assert!(d.edges.is_empty());
        assert_eq!(d.max_truss, 0);
    }
}
