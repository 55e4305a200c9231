//! Edge-list representation and graph cleaning.
//!
//! All generators and readers produce an [`EdgeList`]; the paper's
//! pipeline assumes "undirected, simple" inputs (§6.1: "We converted
//! all the graph datasets to undirected, simple graphs"), which
//! [`EdgeList::simplify`] performs: drop self loops, canonicalize
//! direction, deduplicate.

/// Vertex identifier. `u32` covers every graph in the paper's testbed
/// (largest: 536M vertices) while halving memory traffic versus `u64`,
/// which matters for the communication-volume experiments.
pub type VertexId = u32;

/// A graph as a bag of edges plus an explicit vertex-count bound.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EdgeList {
    /// Number of vertices; all edge endpoints are `< num_vertices`.
    pub num_vertices: usize,
    /// Edge endpoints. Interpretation (directed / undirected,
    /// deduplicated or not) depends on the producing stage; after
    /// [`EdgeList::simplify`] each undirected edge appears exactly once
    /// as `(min, max)`.
    pub edges: Vec<(VertexId, VertexId)>,
}

impl EdgeList {
    /// Creates an edge list, validating endpoint bounds in debug builds.
    pub fn new(num_vertices: usize, edges: Vec<(VertexId, VertexId)>) -> Self {
        debug_assert!(edges
            .iter()
            .all(|&(u, v)| (u as usize) < num_vertices && (v as usize) < num_vertices));
        Self { num_vertices, edges }
    }

    /// An empty graph on `n` vertices.
    pub fn empty(num_vertices: usize) -> Self {
        Self { num_vertices, edges: Vec::new() }
    }

    /// Number of stored edge records (before simplification this may
    /// include duplicates and self loops).
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Converts to a simple undirected graph: removes self loops,
    /// stores each edge once as `(min, max)`, sorted, deduplicated.
    /// The sort runs on [`edge_threads`] cores.
    pub fn simplify(mut self) -> Self {
        self.edges.retain_mut(|e| {
            if e.0 > e.1 {
                *e = (e.1, e.0);
            }
            e.0 != e.1
        });
        let threads = edge_threads(self.edges.len());
        sort_on(&mut self.edges, threads);
        self.edges.dedup();
        self
    }

    /// Returns true if already in simplified canonical form.
    pub fn is_simple(&self) -> bool {
        self.edges.iter().all(|&(u, v)| u < v) && self.edges.windows(2).all(|w| w[0] < w[1])
    }

    /// Per-vertex degrees, counting each undirected edge at both
    /// endpoints. Requires a simplified list.
    pub fn degrees(&self) -> Vec<u32> {
        debug_assert!(self.is_simple());
        let mut d = vec![0u32; self.num_vertices];
        for &(u, v) in &self.edges {
            d[u as usize] += 1;
            d[v as usize] += 1;
        }
        d
    }

    /// Applies a vertex relabeling: vertex `v` becomes `perm[v]`.
    /// The result is re-canonicalized.
    pub fn relabel(self, perm: &[VertexId]) -> Self {
        assert_eq!(perm.len(), self.num_vertices, "permutation length mismatch");
        let n = self.num_vertices;
        let edges = self
            .edges
            .into_iter()
            .map(|(u, v)| {
                let (a, b) = (perm[u as usize], perm[v as usize]);
                if a <= b {
                    (a, b)
                } else {
                    (b, a)
                }
            })
            .collect();
        let mut out = Self { num_vertices: n, edges };
        out.edges.sort_unstable();
        out.edges.dedup();
        out
    }
}

/// Fewest edges worth a thread of their own in an edge-parallel pass
/// (a generator's draw, the sort in [`EdgeList::simplify`]). On a
/// 2-vCPU Xeon VM a spawn + join costs 25–90 µs and a stream jump
/// ≈ 12 µs: splitting g500-s12's 65 536 RMAT draws in two took the draw
/// from 2.7 to 1.6 ms, while splitting every input cost g500-s6 … s10
/// and friendster-like-8 … 11 40–110 µs more than it saved.
const MIN_EDGES_PER_THREAD: usize = 1 << 15;

/// Threads for an edge-parallel pass over `m` edges: one per core, but
/// none with fewer than 2¹⁵ edges (`MIN_EDGES_PER_THREAD`). Only the
/// schedule depends on it, never the result.
pub fn edge_threads(m: usize) -> usize {
    if m < 2 * MIN_EDGES_PER_THREAD {
        return 1;
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    cores.min(m / MIN_EDGES_PER_THREAD)
}

/// Sorts `edges` on `threads` cores: split at the median, sort the
/// halves concurrently, recursively.
fn sort_on(edges: &mut [(VertexId, VertexId)], threads: usize) {
    if threads < 2 || edges.len() < 2 {
        edges.sort_unstable();
        return;
    }
    let mid = edges.len() / 2;
    edges.select_nth_unstable(mid);
    let (lo, hi) = edges.split_at_mut(mid);
    std::thread::scope(|s| {
        s.spawn(|| sort_on(lo, threads / 2));
        sort_on(hi, threads - threads / 2);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_sort_matches_the_sequential_one() {
        let edges: Vec<(VertexId, VertexId)> =
            (0..10_000).map(|i| (i * 7919 % 31, i * 104_729 % 61)).collect();
        let mut want = edges.clone();
        want.sort_unstable();
        for threads in 1..=5 {
            let mut got = edges.clone();
            sort_on(&mut got, threads);
            assert_eq!(got, want, "{threads} threads");
        }
    }

    #[test]
    fn simplify_removes_loops_and_duplicates() {
        let el = EdgeList::new(5, vec![(1, 0), (0, 1), (2, 2), (3, 4), (4, 3), (0, 1)]);
        let s = el.simplify();
        assert_eq!(s.edges, vec![(0, 1), (3, 4)]);
        assert!(s.is_simple());
    }

    #[test]
    fn simplify_empty() {
        let s = EdgeList::empty(3).simplify();
        assert!(s.edges.is_empty());
        assert!(s.is_simple());
        assert_eq!(s.degrees(), vec![0, 0, 0]);
    }

    #[test]
    fn degrees_count_both_endpoints() {
        let s = EdgeList::new(4, vec![(0, 1), (0, 2), (0, 3), (1, 2)]).simplify();
        assert_eq!(s.degrees(), vec![3, 2, 2, 1]);
    }

    #[test]
    fn relabel_reverses_identity() {
        let s = EdgeList::new(4, vec![(0, 1), (1, 2), (2, 3)]).simplify();
        // Reverse permutation: v -> 3 - v.
        let perm: Vec<u32> = (0..4).rev().collect();
        let r = s.clone().relabel(&perm);
        assert_eq!(r.edges, vec![(0, 1), (1, 2), (2, 3)]);
        // Identity round trip.
        let id: Vec<u32> = (0..4).collect();
        assert_eq!(s.clone().relabel(&id), s);
    }

    #[test]
    fn is_simple_detects_disorder() {
        let el = EdgeList::new(3, vec![(1, 0)]);
        assert!(!el.is_simple());
        let el = EdgeList::new(3, vec![(0, 1), (0, 1)]);
        assert!(!el.is_simple());
    }
}
