//! k-core decomposition.
//!
//! The wedge-checking comparator (paper §4, Pearce et al.) opens with
//! a 2-core pass — "removes the vertices that cannot be a part of any
//! triangle". This module provides the general serial k-core
//! (degeneracy) decomposition: each vertex's *coreness* is the largest
//! `k` such that the vertex survives in the maximal subgraph of
//! minimum degree `k`. The 2-core special case is the serial reference
//! for the distributed peeling inside `tc_baselines::wedge`.
//!
//! Implementation: the classic O(n + m) bucket peeling of Matula &
//! Beck / Batagelj & Zaversnik.

use crate::csr::Csr;
use crate::edgelist::{EdgeList, VertexId};
use crate::error::GraphError;

/// Coreness per vertex.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoreDecomposition {
    /// `coreness[v]` of vertex `v`.
    pub coreness: Vec<u32>,
}

impl CoreDecomposition {
    /// The degeneracy of the graph (maximum coreness; 0 if empty).
    pub fn degeneracy(&self) -> u32 {
        self.coreness.iter().copied().max().unwrap_or(0)
    }

    /// Vertices of the k-core (coreness ≥ k).
    pub fn core_vertices(&self, k: u32) -> Vec<VertexId> {
        self.coreness
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c >= k)
            .map(|(v, _)| v as VertexId)
            .collect()
    }

    /// The induced subgraph on the k-core.
    pub fn core_subgraph(&self, el: &EdgeList, k: u32) -> EdgeList {
        debug_assert_eq!(self.coreness.len(), el.num_vertices);
        let edges = el
            .edges
            .iter()
            .copied()
            .filter(|&(u, v)| self.coreness[u as usize] >= k && self.coreness[v as usize] >= k)
            .collect();
        EdgeList::new(el.num_vertices, edges)
    }
}

/// Computes the core decomposition of a simplified graph in O(n + m).
/// A non-simplified input comes back as [`GraphError::NotSimple`];
/// degenerate but valid graphs — empty, edgeless, single-edge, stars,
/// disconnected — are `Ok`.
pub fn core_decomposition(el: &EdgeList) -> Result<CoreDecomposition, GraphError> {
    if !el.is_simple() {
        return Err(GraphError::NotSimple("core_decomposition"));
    }
    let csr = Csr::from_edge_list(el);
    let n = csr.num_vertices();
    if n == 0 {
        return Ok(CoreDecomposition { coreness: Vec::new() });
    }
    let mut deg: Vec<u32> = csr.degrees();
    let maxd = *deg.iter().max().unwrap() as usize;

    // Bucket sort vertices by degree.
    let mut bin = vec![0usize; maxd + 2];
    for &d in &deg {
        bin[d as usize + 1] += 1;
    }
    for i in 1..bin.len() {
        bin[i] += bin[i - 1];
    }
    let mut pos = vec![0usize; n]; // position of v in vert
    let mut vert = vec![0 as VertexId; n]; // vertices sorted by current degree
    {
        let mut cursor = bin[..maxd + 1].to_vec();
        for v in 0..n {
            let d = deg[v] as usize;
            pos[v] = cursor[d];
            vert[cursor[d]] = v as VertexId;
            cursor[d] += 1;
        }
    }
    // bin[d] = index of the first vertex with degree >= d.
    // (bin currently holds prefix ends shifted by one; rebuild starts.)
    let mut start = vec![0usize; maxd + 1];
    start[..(maxd + 1)].copy_from_slice(&bin[..(maxd + 1)]);

    let mut coreness = vec![0u32; n];
    for i in 0..n {
        let v = vert[i] as usize;
        coreness[v] = deg[v];
        for &w in csr.neighbors(v as u32) {
            let w = w as usize;
            if deg[w] > deg[v] {
                // Move w one bucket down: swap with the first vertex
                // of its current bucket.
                let dw = deg[w] as usize;
                let pw = pos[w];
                let pfirst = start[dw];
                let first = vert[pfirst] as usize;
                if first != w {
                    vert.swap(pw, pfirst);
                    pos[w] = pfirst;
                    pos[first] = pw;
                }
                start[dw] += 1;
                deg[w] -= 1;
            }
        }
    }
    Ok(CoreDecomposition { coreness })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clique_coreness_is_n_minus_one() {
        let mut edges = Vec::new();
        for u in 0..6u32 {
            for v in u + 1..6 {
                edges.push((u, v));
            }
        }
        let el = EdgeList::new(6, edges).simplify();
        let d = core_decomposition(&el).unwrap();
        assert!(d.coreness.iter().all(|&c| c == 5));
        assert_eq!(d.degeneracy(), 5);
    }

    #[test]
    fn path_is_a_1_core() {
        let el = EdgeList::new(5, vec![(0, 1), (1, 2), (2, 3), (3, 4)]).simplify();
        let d = core_decomposition(&el).unwrap();
        assert!(d.coreness.iter().all(|&c| c == 1));
    }

    #[test]
    fn triangle_with_tail() {
        // Triangle (2-core) with a pendant path.
        let el = EdgeList::new(6, vec![(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 5)]).simplify();
        let d = core_decomposition(&el).unwrap();
        assert_eq!(&d.coreness[0..3], &[2, 2, 2]);
        assert_eq!(&d.coreness[3..6], &[1, 1, 1]);
        assert_eq!(d.core_vertices(2), vec![0, 1, 2]);
        let sub = d.core_subgraph(&el, 2);
        assert_eq!(sub.num_edges(), 3);
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // v is a vertex id
    fn two_core_matches_iterative_peeling() {
        // Reference: repeatedly remove degree<2 vertices.
        let el = tc_generated();
        let d = core_decomposition(&el).unwrap();
        let mut alive = vec![true; el.num_vertices];
        let csr = Csr::from_edge_list(&el);
        loop {
            let mut changed = false;
            for v in 0..el.num_vertices {
                if alive[v] {
                    let deg =
                        csr.neighbors(v as u32).iter().filter(|&&w| alive[w as usize]).count();
                    if deg < 2 {
                        alive[v] = false;
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        for v in 0..el.num_vertices {
            assert_eq!(d.coreness[v] >= 2, alive[v], "vertex {v}");
        }
    }

    fn tc_generated() -> EdgeList {
        let mut edges = Vec::new();
        let mut x = 777u64;
        for u in 0..200u32 {
            for v in u + 1..200 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                if (x >> 33) % 40 == 0 {
                    edges.push((u, v));
                }
            }
        }
        EdgeList::new(200, edges).simplify()
    }

    #[test]
    fn empty_graphs() {
        assert_eq!(core_decomposition(&EdgeList::empty(0)).unwrap().degeneracy(), 0);
        let d = core_decomposition(&EdgeList::empty(4)).unwrap();
        assert_eq!(d.coreness, vec![0, 0, 0, 0]);
    }

    // Regression: degenerate inputs must come back Ok, never panic.

    #[test]
    fn try_variant_accepts_empty_single_edge_and_star() {
        assert_eq!(core_decomposition(&EdgeList::empty(0)).unwrap().degeneracy(), 0);
        let single = EdgeList::new(2, vec![(0, 1)]).simplify();
        assert_eq!(core_decomposition(&single).unwrap().coreness, vec![1, 1]);
        let star = EdgeList::new(5, (1..5).map(|v| (0, v)).collect()).simplify();
        let d = core_decomposition(&star).unwrap();
        assert_eq!(d.coreness, vec![1; 5], "stars are 1-cores everywhere");
        assert_eq!(d.degeneracy(), 1);
    }

    #[test]
    fn try_variant_accepts_disconnected_graph() {
        let el = EdgeList::new(7, vec![(0, 1), (0, 2), (1, 2), (5, 6)]).simplify();
        let d = core_decomposition(&el).unwrap();
        assert_eq!(&d.coreness[0..3], &[2, 2, 2]);
        assert_eq!(d.coreness[3], 0, "isolated vertex has coreness 0");
        assert_eq!(&d.coreness[5..7], &[1, 1]);
    }

    #[test]
    fn try_variant_rejects_unsimplified_input() {
        let dup = EdgeList::new(3, vec![(0, 1), (1, 0)]);
        assert!(!dup.is_simple());
        assert_eq!(
            core_decomposition(&dup).unwrap_err(),
            GraphError::NotSimple("core_decomposition")
        );
    }

    #[test]
    fn coreness_bounded_by_degree_and_monotone_in_k() {
        let el = tc_generated();
        let csr = Csr::from_edge_list(&el);
        let d = core_decomposition(&el).unwrap();
        for v in 0..el.num_vertices {
            assert!(d.coreness[v] as usize <= csr.degree(v as u32));
        }
        // k-core vertex sets are nested.
        let mut prev = d.core_vertices(0).len();
        for k in 1..=d.degeneracy() {
            let now = d.core_vertices(k).len();
            assert!(now <= prev);
            prev = now;
        }
    }
}
