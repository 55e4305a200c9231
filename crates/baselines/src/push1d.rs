//! 1D space-efficient push-based triangle counting (Arifuzzaman et
//! al.'s "Surrogate" approach).
//!
//! Only one copy of the graph exists across all ranks: each rank
//! stores the rows of its disjoint 1D block and nothing else. For
//! every intersection that needs a remote row, the row's *owner*
//! pushes it to the rank that needs it, and the receiver consumes each
//! pushed row immediately without retaining it — minimal memory, but
//! "this leads to high communication overheads" (§4), which is the
//! regime the paper's Table 6 comparison probes.

use std::time::Instant;

use tc_graph::edgelist::EdgeList;
use tc_graph::vset::VertexSet;
use tc_graph::Block1D;
use tc_metrics::names as mnames;
use tc_mps::{MpsResult, Universe, UniverseConfig};
use tc_trace::{names, Category};

use crate::aop1d::Dist1dResult;
use crate::serial::Oriented;

/// Runs the push-based counter on `p` in-process ranks bound to
/// `config`'s handles. Runtime failures come back as
/// [`tc_mps::MpsError`].
pub fn count_push1d(el: &EdgeList, p: usize, config: &UniverseConfig) -> MpsResult<Dist1dResult> {
    let g = Oriented::build(el);
    let n = g.num_vertices();
    let block = Block1D::new(n, p);

    let (outs, stats) = Universe::try_run_config(p, config, |comm| {
        let rank = comm.rank();
        let (lo, hi) = block.range(rank);

        // ---- push phase: same wire as AOP's setup, but receivers
        // will consume rather than store ----
        comm.barrier()?;
        let setup_span = tc_trace::span(names::BASE_SETUP, Category::Phase);
        let t0 = Instant::now();
        let mut sends: Vec<Vec<u32>> = (0..p).map(|_| Vec::new()).collect();
        let mut stamp = vec![usize::MAX; p];
        for i in lo as u32..hi as u32 {
            let ai = g.upper(i);
            for &j in ai {
                let dst = block.owner(j);
                if dst != rank && stamp[dst] != i as usize {
                    stamp[dst] = i as usize;
                    let buf = &mut sends[dst];
                    buf.push(i);
                    buf.push(ai.len() as u32);
                    buf.extend_from_slice(ai);
                }
            }
        }
        let recvd = comm.alltoallv(&sends)?;
        drop(sends);
        comm.barrier()?;
        drop(setup_span);
        let setup = t0.elapsed();
        tc_metrics::counter_add(mnames::BASE_SETUP_NS, setup.as_nanos() as u64);

        // ---- counting: local tasks + streamed remote rows ----
        let count_span = tc_trace::span(names::BASE_COUNT, Category::Phase);
        let t1 = Instant::now();
        let max_row = comm.allreduce_max_u64(
            (lo as u32..hi as u32).map(|v| g.upper(v).len()).max().unwrap_or(0) as u64,
        )? as usize;
        let mut set = VertexSet::with_capacity(max_row);
        let mut local = 0u64;

        // Tasks (j, i) with both endpoints owned: classic map reuse.
        for j in lo as u32..hi as u32 {
            let aj = g.upper(j);
            let lj = g.lower(j);
            if aj.is_empty() || lj.is_empty() {
                continue;
            }
            set.clear();
            set.insert_all(aj);
            for &i in lj {
                if block.owner(i) == rank {
                    local += set.count_hits(g.upper(i));
                }
            }
        }
        // Remote rows: hash each pushed A(i) once, probe with each
        // owned A(j) for j ∈ A(i); the row is dropped right after.
        for msg in &recvd {
            let mut at = 0;
            while at < msg.len() {
                let len = msg[at + 1] as usize;
                let ai = &msg[at + 2..at + 2 + len];
                set.clear();
                set.insert_all(ai);
                for &j in ai {
                    if block.owner(j) == rank {
                        local += set.count_hits(g.upper(j));
                    }
                }
                at += 2 + len;
            }
        }
        let triangles = comm.allreduce_sum_u64(local)?;
        comm.barrier()?;
        drop(count_span);
        let count = t1.elapsed();
        tc_metrics::counter_add(mnames::BASE_COUNT_NS, count.as_nanos() as u64);
        Ok((triangles, setup, count))
    })?;

    let triangles = outs[0].0;
    assert!(outs.iter().all(|o| o.0 == triangles));
    Ok(Dist1dResult {
        triangles,
        setup: outs.iter().map(|o| o.1).max().unwrap(),
        count: outs.iter().map(|o| o.2).max().unwrap(),
        bytes_sent: stats.iter().map(|s| s.bytes_sent).sum(),
        max_ghost_entries: 0, // nothing is retained — the point of the method
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serial::count_default;
    use tc_gen::graph500;

    fn count_push1d(el: &EdgeList, p: usize) -> Dist1dResult {
        super::count_push1d(el, p, &UniverseConfig::default()).expect("clean run")
    }

    #[test]
    fn matches_serial() {
        let el = graph500(8, 13).simplify();
        let expect = count_default(&el);
        for p in [1, 2, 4, 7] {
            assert_eq!(count_push1d(&el, p).triangles, expect, "p={p}");
        }
    }

    #[test]
    fn intersection_symmetry_still_counts_k_above_j() {
        // Probing A(j) against hashed A(i) counts |A(i) ∩ A(j)| — the
        // same quantity as the local orientation, just with the roles
        // swapped. A worked example: path + triangle combinations.
        let el = EdgeList::new(5, vec![(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (3, 4)]).simplify();
        let expect = count_default(&el);
        assert_eq!(expect, 2);
        for p in [2, 3, 5] {
            assert_eq!(count_push1d(&el, p).triangles, expect, "p={p}");
        }
    }

    #[test]
    fn empty_graph() {
        assert_eq!(count_push1d(&EdgeList::empty(9), 4).triangles, 0);
    }
}
