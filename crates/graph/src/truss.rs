//! k-truss decomposition.
//!
//! "The computations involved in triangle counting forms an important
//! step in computing the k-truss decomposition of a graph" (paper §1).
//! This module is that downstream application: every edge is assigned
//! its *trussness* — the largest `k` such that the edge survives in
//! the k-truss (the maximal subgraph where every edge sits on at least
//! `k − 2` triangles).
//!
//! The implementation is the standard support-peeling algorithm:
//! compute per-edge triangle supports (exactly the quantity
//! `tc_core::count_per_edge` produces in distributed form), then
//! repeatedly remove the minimum-support edge, decrementing the
//! supports of the other two edges of each triangle it closed.

use std::collections::HashMap;

use crate::csr::Csr;
use crate::edgelist::{EdgeList, VertexId};
use crate::error::GraphError;

/// Trussness per edge, parallel to the (sorted) edge list of the
/// simplified input graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrussDecomposition {
    /// Edges `(u, v)` with `u < v`, sorted.
    pub edges: Vec<(VertexId, VertexId)>,
    /// `trussness[i]` of `edges[i]`; `2` means the edge closes no
    /// surviving triangle.
    pub trussness: Vec<u32>,
}

impl TrussDecomposition {
    /// The maximum trussness over all edges (`2` for triangle-free
    /// graphs, `0` if there are no edges).
    pub fn max_truss(&self) -> u32 {
        self.trussness.iter().copied().max().unwrap_or(0)
    }

    /// Edges of the k-truss subgraph (trussness ≥ k).
    pub fn truss_edges(&self, k: u32) -> Vec<(VertexId, VertexId)> {
        self.edges.iter().zip(&self.trussness).filter(|&(_, &t)| t >= k).map(|(&e, _)| e).collect()
    }

    /// Trussness of a specific edge, if present.
    pub fn trussness_of(&self, u: VertexId, v: VertexId) -> Option<u32> {
        let key = (u.min(v), u.max(v));
        self.edges.binary_search(&key).ok().map(|i| self.trussness[i])
    }
}

/// Computes the per-edge triangle supports of a simplified graph
/// (serial reference for `tc_core::count_per_edge`). A non-simplified
/// input comes back as [`GraphError::NotSimple`]; degenerate but valid
/// graphs — empty, edgeless, single-edge, stars — are `Ok`.
pub fn edge_supports(el: &EdgeList) -> Result<Vec<u64>, GraphError> {
    if !el.is_simple() {
        return Err(GraphError::NotSimple("edge_supports"));
    }
    let csr = Csr::from_edge_list(el);
    let idx: HashMap<(u32, u32), usize> =
        el.edges.iter().copied().enumerate().map(|(i, e)| (e, i)).collect();
    let mut sup = vec![0u64; el.edges.len()];
    for (i, &(u, v)) in el.edges.iter().enumerate() {
        // Intersect sorted adjacencies; count each triangle once by
        // requiring w > v (> u as well since u < v).
        let (mut a, mut b) = (csr.neighbors(u), csr.neighbors(v));
        // Skip to entries > v.
        let pa = a.partition_point(|&w| w <= v);
        let pb = b.partition_point(|&w| w <= v);
        a = &a[pa..];
        b = &b[pb..];
        let (mut x, mut y) = (0, 0);
        while x < a.len() && y < b.len() {
            match a[x].cmp(&b[y]) {
                std::cmp::Ordering::Less => x += 1,
                std::cmp::Ordering::Greater => y += 1,
                std::cmp::Ordering::Equal => {
                    let w = a[x];
                    sup[i] += 1;
                    sup[idx[&(u, w)]] += 1;
                    sup[idx[&(v, w)]] += 1;
                    x += 1;
                    y += 1;
                }
            }
        }
    }
    Ok(sup)
}

/// Runs the full truss decomposition. A non-simplified input comes
/// back as [`GraphError::NotSimple`]; degenerate but valid graphs —
/// empty, edgeless, single-edge, stars, disconnected — are `Ok`.
pub fn truss_decomposition(el: &EdgeList) -> Result<TrussDecomposition, GraphError> {
    let mut sup: Vec<u64> = edge_supports(el)?;
    let m = el.edges.len();
    let csr = Csr::from_edge_list(el);
    let idx: HashMap<(u32, u32), usize> =
        el.edges.iter().copied().enumerate().map(|(i, e)| (e, i)).collect();
    let mut alive = vec![true; m];
    let mut trussness = vec![2u32; m];

    // Bucket queue over supports (support < n, and only decreases).
    let max_sup = sup.iter().copied().max().unwrap_or(0) as usize;
    let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); max_sup + 1];
    for (i, &s) in sup.iter().enumerate() {
        buckets[s as usize].push(i);
    }

    let mut k = 2u32; // current truss level being peeled
    let mut processed = 0usize;
    let mut cursor = 0usize;
    while processed < m {
        // Find the lowest non-empty bucket (entries may be stale —
        // validated against `sup` on pop).
        while cursor < buckets.len() && buckets[cursor].is_empty() {
            cursor += 1;
        }
        let i = match buckets.get_mut(cursor).and_then(|b| b.pop()) {
            Some(i) => i,
            None => break,
        };
        if !alive[i] || sup[i] as usize != cursor {
            continue; // stale entry
        }
        // Peeling an edge with support s assigns trussness s + 2,
        // monotone in the peel order.
        k = k.max(cursor as u32 + 2);
        trussness[i] = k;
        alive[i] = false;
        processed += 1;

        // Decrement the supports of the companion edges of every
        // still-alive triangle through edge i.
        let (u, v) = el.edges[i];
        let (a, b) = (csr.neighbors(u), csr.neighbors(v));
        let (mut x, mut y) = (0, 0);
        while x < a.len() && y < b.len() {
            match a[x].cmp(&b[y]) {
                std::cmp::Ordering::Less => x += 1,
                std::cmp::Ordering::Greater => y += 1,
                std::cmp::Ordering::Equal => {
                    let w = a[x];
                    x += 1;
                    y += 1;
                    if w == u || w == v {
                        continue;
                    }
                    let e1 = idx[&(u.min(w), u.max(w))];
                    let e2 = idx[&(v.min(w), v.max(w))];
                    if alive[e1] && alive[e2] {
                        for &e in &[e1, e2] {
                            if sup[e] > 0 {
                                sup[e] -= 1;
                                let s = sup[e] as usize;
                                buckets[s].push(e);
                                cursor = cursor.min(s);
                            }
                        }
                    }
                }
            }
        }
    }
    Ok(TrussDecomposition { edges: el.edges.clone(), trussness })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(n: u32) -> EdgeList {
        let mut edges = Vec::new();
        for u in 0..n {
            for v in u + 1..n {
                edges.push((u, v));
            }
        }
        EdgeList::new(n as usize, edges).simplify()
    }

    #[test]
    fn complete_graph_is_a_kn_truss() {
        // Every edge of K5 sits on 3 triangles -> trussness 5.
        let d = truss_decomposition(&k(5)).unwrap();
        assert!(d.trussness.iter().all(|&t| t == 5));
        assert_eq!(d.max_truss(), 5);
        assert_eq!(d.truss_edges(5).len(), 10);
        assert!(d.truss_edges(6).is_empty());
    }

    #[test]
    fn triangle_is_a_3_truss() {
        let el = EdgeList::new(3, vec![(0, 1), (0, 2), (1, 2)]).simplify();
        let d = truss_decomposition(&el).unwrap();
        assert_eq!(d.trussness, vec![3, 3, 3]);
    }

    #[test]
    fn tree_edges_have_trussness_2() {
        let el = EdgeList::new(4, vec![(0, 1), (1, 2), (2, 3)]).simplify();
        let d = truss_decomposition(&el).unwrap();
        assert_eq!(d.trussness, vec![2, 2, 2]);
        assert_eq!(d.max_truss(), 2);
    }

    #[test]
    fn pendant_triangle_on_k4() {
        // K4 (trussness 4) plus a triangle hanging off vertex 3 via
        // vertices 4 and 5 (trussness 3).
        let mut edges = k(4).edges;
        edges.extend([(3, 4), (3, 5), (4, 5)]);
        let el = EdgeList::new(6, edges).simplify();
        let d = truss_decomposition(&el).unwrap();
        for &(u, v) in &k(4).edges {
            assert_eq!(d.trussness_of(u, v), Some(4), "({u},{v})");
        }
        assert_eq!(d.trussness_of(3, 4), Some(3));
        assert_eq!(d.trussness_of(4, 5), Some(3));
        assert_eq!(d.trussness_of(9, 9), None);
    }

    #[test]
    fn supports_match_triangle_incidence() {
        let el = k(4);
        let sup = edge_supports(&el).unwrap();
        // Every K4 edge closes 2 triangles.
        assert!(sup.iter().all(|&s| s == 2));
        // Sum of supports = 3 × triangle count (each triangle has 3 edges).
        assert_eq!(sup.iter().sum::<u64>(), 3 * 4);
    }

    #[test]
    fn empty_and_edgeless() {
        let d = truss_decomposition(&EdgeList::empty(5)).unwrap();
        assert_eq!(d.max_truss(), 0);
        assert!(d.edges.is_empty());
    }

    // Regression: degenerate inputs must come back Ok, never panic.

    #[test]
    fn try_variants_accept_empty_graph() {
        let el = EdgeList::empty(0);
        assert_eq!(edge_supports(&el), Ok(vec![]));
        let d = truss_decomposition(&el).unwrap();
        assert_eq!(d.max_truss(), 0);
    }

    #[test]
    fn try_variants_accept_single_edge() {
        let el = EdgeList::new(2, vec![(0, 1)]).simplify();
        assert_eq!(edge_supports(&el), Ok(vec![0]));
        let d = truss_decomposition(&el).unwrap();
        assert_eq!(d.trussness, vec![2]);
    }

    #[test]
    fn try_variants_accept_star_graph() {
        // A star closes no triangles: every edge has support 0 and
        // trussness 2.
        let star = EdgeList::new(6, (1..6).map(|v| (0, v)).collect()).simplify();
        assert_eq!(edge_supports(&star), Ok(vec![0; 5]));
        let d = truss_decomposition(&star).unwrap();
        assert_eq!(d.trussness, vec![2; 5]);
        assert_eq!(d.max_truss(), 2);
    }

    #[test]
    fn try_variants_accept_disconnected_graph() {
        // Two components: a triangle and a far-away single edge.
        let el = EdgeList::new(8, vec![(0, 1), (0, 2), (1, 2), (6, 7)]).simplify();
        let d = truss_decomposition(&el).unwrap();
        assert_eq!(d.trussness_of(0, 1), Some(3));
        assert_eq!(d.trussness_of(6, 7), Some(2));
    }

    #[test]
    fn try_variants_reject_unsimplified_input() {
        let dup = EdgeList::new(3, vec![(0, 1), (1, 0), (1, 2)]);
        assert!(!dup.is_simple());
        assert_eq!(edge_supports(&dup), Err(GraphError::NotSimple("edge_supports")));
        assert_eq!(truss_decomposition(&dup).unwrap_err(), GraphError::NotSimple("edge_supports"));
    }
}
