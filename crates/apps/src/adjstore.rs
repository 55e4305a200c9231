//! Ghost replication (AOP-style placement) for the mutable
//! [`AdjStore`].
//!
//! The store itself lives in the graph substrate ([`tc_graph::adj`])
//! so that mutation-heavy consumers like the always-on analytics
//! service can use it without a dependency on the message-passing
//! layer. What is here is the communication-coupled part: the
//! personalized all-to-all of Arifuzzaman et al.'s AOP that pushes each
//! owned row to every rank holding one of its neighbours, delivered
//! into the store as ghost rows.

use tc_graph::{AdjStore, Block1D, Csr};
use tc_mps::{Comm, MpsResult};

/// Builds a ghost-replicated store from this rank's block of the
/// shared input CSR: one personalized all-to-all pushes each owned row
/// to every rank that holds one of its neighbours. A failed exchange
/// (a peer died or timed out) comes back as an error.
///
/// Wire format per destination: repeated `[v, len, row...]`. Declared
/// lengths come off the wire, so row materialization respects the
/// capped-preallocation discipline of [`tc_graph::adj::PREALLOC_CAP`].
pub fn build_from_csr(comm: &Comm, csr: &Csr, block: Block1D) -> MpsResult<AdjStore> {
    let p = comm.size();
    let rank = comm.rank();
    let (lo, hi) = block.range(rank);
    let mut sends: Vec<Vec<u32>> = (0..p).map(|_| Vec::new()).collect();
    let mut stamp = vec![usize::MAX; p];
    for v in lo as u32..hi as u32 {
        let row = csr.neighbors(v);
        for &w in row {
            let dst = block.owner(w);
            if dst != rank && stamp[dst] != v as usize {
                stamp[dst] = v as usize;
                let buf = &mut sends[dst];
                buf.push(v);
                buf.push(row.len() as u32);
                buf.extend_from_slice(row);
            }
        }
    }
    let recvd = comm.alltoallv(&sends)?;
    drop(sends);
    let mut store = AdjStore::from_csr_block(csr, lo, hi);
    for msg in &recvd {
        let mut at = 0;
        while at < msg.len() {
            let (v, len) = (msg[at], msg[at + 1] as usize);
            store.set_ghost(v, msg[at + 2..at + 2 + len].to_vec());
            at += 2 + len;
        }
    }
    Ok(store)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tc_graph::EdgeList;
    use tc_mps::Universe;

    #[test]
    fn ghosts_cover_all_referenced_vertices() {
        let el = tc_gen::graph500(7, 3).simplify();
        let csr = Csr::from_edge_list(&el);
        let n = csr.num_vertices();
        let p = 4;
        let block = Block1D::new(n, p);
        let ok = Universe::run(p, |comm| {
            let store = build_from_csr(comm, &csr, block).unwrap();
            let (lo, hi) = block.range(comm.rank());
            for v in lo as u32..hi as u32 {
                assert!(store.owns(v));
                for &w in csr.neighbors(v) {
                    // Every referenced vertex must be resolvable and
                    // agree with the global adjacency.
                    assert_eq!(store.neighbors(w), csr.neighbors(w), "vertex {w}");
                }
            }
            store.max_row_len() <= csr.max_degree()
        });
        assert!(ok.iter().all(|&b| b));
    }

    #[test]
    fn single_rank_has_no_ghosts() {
        let el = tc_gen::graph500(6, 1).simplify();
        let csr = Csr::from_edge_list(&el);
        let block = Block1D::new(csr.num_vertices(), 1);
        let ghost_entries =
            Universe::run(1, |comm| build_from_csr(comm, &csr, block).unwrap().ghost_entries());
        assert_eq!(ghost_entries, vec![0]);
    }

    #[test]
    #[should_panic(expected = "neither owned nor ghosted")]
    fn unreferenced_remote_vertex_panics() {
        // Two isolated cliques owned by different ranks: rank 0 never
        // references rank 1's vertices.
        let el = EdgeList::new(8, vec![(0, 1), (0, 2), (1, 2), (5, 6), (5, 7), (6, 7)]).simplify();
        let csr = Csr::from_edge_list(&el);
        let block = Block1D::new(8, 2);
        Universe::run(2, |comm| {
            let store = build_from_csr(comm, &csr, block).unwrap();
            if comm.rank() == 0 {
                let _ = store.neighbors(7);
            }
        });
    }

    #[test]
    fn replicated_store_accepts_mutation() {
        // The promoted store is mutable: a rank can apply edge churn
        // to its owned rows after replication.
        let el = EdgeList::new(6, vec![(0, 1), (1, 2), (3, 4)]).simplify();
        let csr = Csr::from_edge_list(&el);
        let block = Block1D::new(6, 2);
        let ok = Universe::run(2, |comm| {
            let mut store = build_from_csr(comm, &csr, block).unwrap();
            let (lo, _) = block.range(comm.rank());
            let u = lo as u32;
            let before = store.neighbors(u).len();
            store.insert(u, (u + 1) % 6).unwrap();
            store.neighbors(u).len() >= before
        });
        assert!(ok.iter().all(|&b| b));
    }
}
