//! Compressed sparse row (CSR) adjacency storage.
//!
//! The paper stores graphs "using compressed sparse row (CSR) format
//! prior to triangle counting" (§5). [`Csr`] is the symmetric
//! (full-adjacency) form; the upper/lower triangular splits used by
//! the 2D algorithm are built in `tc-core` from relabeled edge lists.

use crate::edgelist::{EdgeList, VertexId};

/// Immutable CSR adjacency structure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Csr {
    /// Row pointer array, length `n + 1`.
    xadj: Vec<usize>,
    /// Concatenated adjacency lists, length `2·|E|` for symmetric graphs.
    adjncy: Vec<VertexId>,
}

impl Csr {
    /// Builds the symmetric CSR of a simplified edge list; every
    /// adjacency list is sorted ascending. The caller guarantees
    /// [`EdgeList::is_simple`] (checked in debug builds only).
    pub fn from_edge_list(el: &EdgeList) -> Self {
        debug_assert!(el.is_simple(), "CSR requires a simplified edge list");
        let n = el.num_vertices;
        let mut deg = vec![0usize; n];
        for &(u, v) in &el.edges {
            deg[u as usize] += 1;
            deg[v as usize] += 1;
        }
        let mut xadj = Vec::with_capacity(n + 1);
        xadj.push(0usize);
        let mut acc = 0usize;
        for d in &deg {
            acc += d;
            xadj.push(acc);
        }
        let mut adjncy = vec![0 as VertexId; acc];
        let mut cursor = xadj[..n].to_vec();
        for &(u, v) in &el.edges {
            adjncy[cursor[u as usize]] = v;
            cursor[u as usize] += 1;
            adjncy[cursor[v as usize]] = u;
            cursor[v as usize] += 1;
        }
        // Row `x` fills ascending without a sort: in a canonical list
        // every record `(u, x)` precedes every record `(x, w)`, both
        // runs ascend, and `u < x < w`.
        debug_assert!(
            (0..n).all(|v| adjncy[xadj[v]..xadj[v + 1]].windows(2).all(|w| w[0] < w[1])),
            "rows of a canonical edge list come out sorted"
        );
        Self { xadj, adjncy }
    }

    /// Builds directly from raw arrays (used by tests and converters).
    ///
    /// # Panics
    ///
    /// Panics if the arrays are inconsistent.
    pub fn from_parts(xadj: Vec<usize>, adjncy: Vec<VertexId>) -> Self {
        assert!(!xadj.is_empty(), "xadj must have at least one entry");
        assert_eq!(*xadj.last().unwrap(), adjncy.len(), "xadj end must equal adjncy length");
        assert!(xadj.windows(2).all(|w| w[0] <= w[1]), "xadj must be non-decreasing");
        Self { xadj, adjncy }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.xadj.len() - 1
    }

    /// Total adjacency entries (2·|E| for symmetric graphs).
    pub fn num_entries(&self) -> usize {
        self.adjncy.len()
    }

    /// Number of undirected edges (assumes symmetric storage).
    pub fn num_edges(&self) -> usize {
        self.adjncy.len() / 2
    }

    /// Adjacency list of `v` (sorted ascending).
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        &self.adjncy[self.xadj[v as usize]..self.xadj[v as usize + 1]]
    }

    /// Degree of `v`.
    pub fn degree(&self, v: VertexId) -> usize {
        self.xadj[v as usize + 1] - self.xadj[v as usize]
    }

    /// All degrees.
    pub fn degrees(&self) -> Vec<u32> {
        (0..self.num_vertices()).map(|v| (self.xadj[v + 1] - self.xadj[v]) as u32).collect()
    }

    /// Maximum degree (0 for an empty graph).
    pub fn max_degree(&self) -> usize {
        (0..self.num_vertices()).map(|v| self.xadj[v + 1] - self.xadj[v]).max().unwrap_or(0)
    }

    /// Row pointer array.
    pub fn xadj(&self) -> &[usize] {
        &self.xadj
    }

    /// Adjacency array.
    pub fn adjncy(&self) -> &[VertexId] {
        &self.adjncy
    }

    /// Membership test via binary search (rows are sorted).
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Iterates `(u, v)` with `u < v` once per undirected edge.
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        (0..self.num_vertices() as VertexId).flat_map(move |u| {
            self.neighbors(u).iter().copied().filter(move |&v| u < v).map(move |v| (u, v))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle_plus_tail() -> Csr {
        // 0-1, 0-2, 1-2, 2-3
        Csr::from_edge_list(&EdgeList::new(4, vec![(0, 1), (0, 2), (1, 2), (2, 3)]).simplify())
    }

    #[test]
    fn builds_sorted_symmetric_rows() {
        let g = triangle_plus_tail();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert_eq!(g.neighbors(2), &[0, 1, 3]);
        assert_eq!(g.neighbors(3), &[2]);
    }

    #[test]
    fn degree_and_max_degree() {
        let g = triangle_plus_tail();
        assert_eq!(g.degree(2), 3);
        assert_eq!(g.max_degree(), 3);
        assert_eq!(g.degrees(), vec![2, 2, 3, 1]);
    }

    #[test]
    fn has_edge_binary_search() {
        let g = triangle_plus_tail();
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(3, 2));
        assert!(!g.has_edge(0, 3));
    }

    #[test]
    fn edges_iterator_yields_each_once() {
        let g = triangle_plus_tail();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(0, 1), (0, 2), (1, 2), (2, 3)]);
    }

    #[test]
    fn isolated_vertices_have_empty_rows() {
        let g = Csr::from_edge_list(&EdgeList::new(5, vec![(1, 3)]).simplify());
        assert_eq!(g.neighbors(0), &[] as &[u32]);
        assert_eq!(g.neighbors(4), &[] as &[u32]);
        assert_eq!(g.degree(1), 1);
    }

    #[test]
    fn empty_graph() {
        let g = Csr::from_edge_list(&EdgeList::empty(0));
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.max_degree(), 0);
    }

    #[test]
    #[should_panic(expected = "xadj end")]
    fn from_parts_validates() {
        let _ = Csr::from_parts(vec![0, 2], vec![1]);
    }
}
