//! 1D communication-avoiding triangle counting with overlapping
//! partitions (Arifuzzaman et al., "AOP").
//!
//! Vertices are split into `p` disjoint 1D blocks of the
//! degree-ordered graph. In a *setup* phase each rank acquires, in
//! addition to its own rows, the upper adjacency of every vertex
//! referenced by its tasks (the "overlapping" ghost copies); after
//! that the counting phase runs with **zero communication** — the
//! defining trade: memory overhead for communication avoidance, which
//! is exactly what the paper contrasts its 2D decomposition against
//! (§4).

use std::collections::HashMap;
use std::time::{Duration, Instant};

use tc_graph::edgelist::EdgeList;
use tc_graph::vset::VertexSet;
use tc_graph::Block1D;
use tc_metrics::names as mnames;
use tc_mps::{MpsResult, Universe, UniverseConfig};
use tc_trace::{names, Category};

use crate::serial::Oriented;

/// Outcome of a 1D distributed run.
#[derive(Debug, Clone)]
pub struct Dist1dResult {
    /// Global triangle count.
    pub triangles: u64,
    /// Setup phase (ghost/push exchange) wall time: slowest rank.
    pub setup: Duration,
    /// Counting phase wall time: slowest rank.
    pub count: Duration,
    /// Total payload bytes sent across ranks.
    pub bytes_sent: u64,
    /// Peak per-rank ghost entries stored (the memory-overhead metric
    /// that motivates the space-efficient variant).
    pub max_ghost_entries: usize,
}

impl Dist1dResult {
    /// Setup + counting.
    pub fn total(&self) -> Duration {
        self.setup + self.count
    }
}

/// Runs AOP on `p` in-process ranks bound to `config`'s handles (each
/// rank records setup/count phase spans plus the substrate's comm
/// spans into its trace session, if any). Runtime failures come back
/// as [`tc_mps::MpsError`].
pub fn count_aop1d(el: &EdgeList, p: usize, config: &UniverseConfig) -> MpsResult<Dist1dResult> {
    let g = Oriented::build(el);
    let n = g.num_vertices();
    let block = Block1D::new(n, p);

    let (outs, stats) = Universe::try_run_config(p, config, |comm| {
        let rank = comm.rank();
        let (lo, hi) = block.range(rank);

        // ---- setup: replicate the rows my tasks reference ----
        comm.barrier()?;
        let setup_span = tc_trace::span(names::BASE_SETUP, Category::Phase);
        let t0 = Instant::now();
        // Task (j, i) lives at owner(j) and needs A(i): push A(i) to
        // the owners of every j ∈ A(i) (dedup per destination).
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
        let mut ghosts: HashMap<u32, Vec<u32>> = HashMap::new();
        for msg in &recvd {
            let mut at = 0;
            while at < msg.len() {
                let (v, len) = (msg[at], msg[at + 1] as usize);
                ghosts.insert(v, msg[at + 2..at + 2 + len].to_vec());
                at += 2 + len;
            }
        }
        drop(recvd);
        comm.barrier()?;
        drop(setup_span);
        let setup = t0.elapsed();
        tc_metrics::counter_add(mnames::BASE_SETUP_NS, setup.as_nanos() as u64);
        let ghost_entries: usize = ghosts.values().map(|v| v.len()).sum();
        tc_metrics::gauge_max(mnames::BASE_GHOST_ENTRIES, ghost_entries as u64);

        // ---- counting: purely local ----
        let count_span = tc_trace::span(names::BASE_COUNT, Category::Phase);
        let t1 = Instant::now();
        let cap = comm.allreduce_max_u64(g_max_row(&g, lo, hi) as u64)? as usize;
        let mut set = VertexSet::with_capacity(cap);
        let mut local = 0u64;
        for j in lo as u32..hi as u32 {
            let aj = g.upper(j);
            let lj = g.lower(j);
            if aj.is_empty() || lj.is_empty() {
                continue;
            }
            set.clear();
            set.insert_all(aj);
            for &i in lj {
                let ai: &[u32] = if block.owner(i) == rank {
                    g.upper(i)
                } else {
                    ghosts.get(&i).map(|v| v.as_slice()).unwrap_or(&[])
                };
                local += set.count_hits(ai);
            }
        }
        let triangles = comm.allreduce_sum_u64(local)?;
        comm.barrier()?;
        drop(count_span);
        let count = t1.elapsed();
        tc_metrics::counter_add(mnames::BASE_COUNT_NS, count.as_nanos() as u64);
        Ok((triangles, setup, count, ghost_entries))
    })?;

    let triangles = outs[0].0;
    assert!(outs.iter().all(|o| o.0 == triangles));
    Ok(Dist1dResult {
        triangles,
        setup: outs.iter().map(|o| o.1).max().unwrap(),
        count: outs.iter().map(|o| o.2).max().unwrap(),
        bytes_sent: stats.iter().map(|s| s.bytes_sent).sum(),
        max_ghost_entries: outs.iter().map(|o| o.3).max().unwrap(),
    })
}

fn g_max_row(g: &Oriented, lo: usize, hi: usize) -> usize {
    (lo as u32..hi as u32).map(|v| g.upper(v).len()).max().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serial::count_default;
    use tc_gen::graph500;

    fn count_aop1d(el: &EdgeList, p: usize) -> Dist1dResult {
        super::count_aop1d(el, p, &UniverseConfig::default()).expect("clean run")
    }

    #[test]
    fn matches_serial() {
        let el = graph500(8, 21).simplify();
        let expect = count_default(&el);
        for p in [1, 2, 3, 5, 8] {
            let r = count_aop1d(&el, p);
            assert_eq!(r.triangles, expect, "p={p}");
        }
    }

    #[test]
    fn single_rank_has_no_ghosts() {
        let el = graph500(7, 2).simplify();
        let r = count_aop1d(&el, 1);
        assert_eq!(r.max_ghost_entries, 0);
        assert_eq!(r.bytes_sent, 0, "p=1 sends nothing but the allreduce self-copy");
    }

    #[test]
    fn ghosts_grow_with_rank_count() {
        let el = graph500(9, 3).simplify();
        let g2 = count_aop1d(&el, 2).max_ghost_entries;
        let g8 = count_aop1d(&el, 8).max_ghost_entries;
        assert!(g2 > 0);
        assert!(g8 > 0);
    }

    #[test]
    fn tiny_graphs() {
        let el = EdgeList::new(3, vec![(0, 1), (0, 2), (1, 2)]).simplify();
        assert_eq!(count_aop1d(&el, 4).triangles, 1);
        assert_eq!(count_aop1d(&EdgeList::empty(5), 3).triangles, 0);
    }
}
