//! 1D blocked push-based triangle counting (after Kanewala et al.'s
//! OPT-PSP).
//!
//! Kanewala et al. also use a 1D decomposition and ship adjacency
//! lists to the ranks holding the adjacent vertices, but "in order to
//! curb the number of messages generated, they block vertices and
//! their adjacency lists and process them in blocks" (§4). This
//! implementation processes the task rows in `num_super_blocks`
//! rounds: each round pushes only the remote rows needed by that
//! round's tasks, counts, and discards — bounding peak memory at
//! roughly `pushed-volume / num_super_blocks` in exchange for more
//! synchronization rounds.

use std::time::{Duration, Instant};

use tc_graph::edgelist::EdgeList;
use tc_graph::vset::VertexSet;
use tc_graph::Block1D;
use tc_metrics::names as mnames;
use tc_mps::{MpsResult, Universe, UniverseConfig};
use tc_trace::{names, Category};

use crate::aop1d::Dist1dResult;
use crate::serial::Oriented;

/// Runs the blocked push counter on `p` in-process ranks bound to
/// `config`'s handles, with the given number of superblock rounds.
/// Runtime failures come back as [`tc_mps::MpsError`].
///
/// # Panics
///
/// Panics if `num_super_blocks == 0`.
pub fn count_psp1d(
    el: &EdgeList,
    p: usize,
    num_super_blocks: usize,
    config: &UniverseConfig,
) -> MpsResult<Dist1dResult> {
    assert!(num_super_blocks > 0, "need at least one superblock");
    let g = Oriented::build(el);
    let n = g.num_vertices();
    let block = Block1D::new(n, p);

    let (outs, stats) = Universe::try_run_config(p, config, |comm| {
        let rank = comm.rank();
        let (lo, hi) = block.range(rank);
        comm.barrier()?;
        let setup_span = tc_trace::span(names::BASE_SETUP, Category::Phase);
        let t0 = Instant::now();
        let max_row = comm.allreduce_max_u64(
            (lo as u32..hi as u32).map(|v| g.upper(v).len()).max().unwrap_or(0) as u64,
        )? as usize;
        let mut set = VertexSet::with_capacity(max_row);
        comm.barrier()?;
        drop(setup_span);
        let setup = t0.elapsed();
        tc_metrics::counter_add(mnames::BASE_SETUP_NS, setup.as_nanos() as u64);

        let count_span = tc_trace::span(names::BASE_COUNT, Category::Phase);
        let t1 = Instant::now();
        let mut local = 0u64;
        let mut peak_entries = 0usize;
        let sb_size = n.div_ceil(num_super_blocks).max(1);
        for sb in 0..num_super_blocks {
            let (jlo, jhi) = ((sb * sb_size) as u32, (((sb + 1) * sb_size).min(n)) as u32);
            // Push A(i) to owner(j) for tasks (j, i) with j in this
            // superblock and i owned here.
            let mut sends: Vec<Vec<u32>> = (0..p).map(|_| Vec::new()).collect();
            let mut stamp = vec![usize::MAX; p];
            for i in lo as u32..hi as u32 {
                let ai = g.upper(i);
                for &j in ai {
                    if j < jlo || j >= jhi {
                        continue;
                    }
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
            peak_entries = peak_entries.max(recvd.iter().map(|m| m.len()).sum::<usize>());

            // Index the received rows for this superblock.
            let mut idx: std::collections::HashMap<u32, (usize, usize, usize)> =
                std::collections::HashMap::new();
            for (src, msg) in recvd.iter().enumerate() {
                let mut at = 0;
                while at < msg.len() {
                    let (v, len) = (msg[at], msg[at + 1] as usize);
                    idx.insert(v, (src, at + 2, len));
                    at += 2 + len;
                }
            }
            // Count the tasks of this superblock with per-row map reuse.
            for j in jlo.max(lo as u32)..jhi.min(hi as u32) {
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
                        let &(src, at, len) = idx.get(&i).expect("pushed row present");
                        &recvd[src][at..at + len]
                    };
                    local += set.count_hits(ai);
                }
            }
        }
        let triangles = comm.allreduce_sum_u64(local)?;
        comm.barrier()?;
        drop(count_span);
        let count = t1.elapsed();
        tc_metrics::counter_add(mnames::BASE_COUNT_NS, count.as_nanos() as u64);
        tc_metrics::gauge_max(mnames::BASE_GHOST_ENTRIES, peak_entries as u64);
        Ok((triangles, setup, count, peak_entries))
    })?;

    let triangles = outs[0].0;
    assert!(outs.iter().all(|o| o.0 == triangles));
    Ok(Dist1dResult {
        triangles,
        setup: outs.iter().map(|o| o.1).max().unwrap_or(Duration::ZERO),
        count: outs.iter().map(|o| o.2).max().unwrap(),
        bytes_sent: stats.iter().map(|s| s.bytes_sent).sum(),
        max_ghost_entries: outs.iter().map(|o| o.3).max().unwrap(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serial::count_default;
    use tc_gen::graph500;

    fn count_psp1d(el: &EdgeList, p: usize, blocks: usize) -> Dist1dResult {
        super::count_psp1d(el, p, blocks, &UniverseConfig::default()).expect("clean run")
    }

    #[test]
    fn matches_serial_across_blockings() {
        let el = graph500(8, 31).simplify();
        let expect = count_default(&el);
        for p in [1, 2, 4, 6] {
            for blocks in [1, 2, 5, 16] {
                assert_eq!(count_psp1d(&el, p, blocks).triangles, expect, "p={p} blocks={blocks}");
            }
        }
    }

    #[test]
    fn more_blocks_lower_peak_memory() {
        let el = graph500(9, 8).simplify();
        let one = count_psp1d(&el, 4, 1).max_ghost_entries;
        let many = count_psp1d(&el, 4, 16).max_ghost_entries;
        assert!(many <= one, "blocked {many} > unblocked {one}");
        assert!(one > 0);
    }

    #[test]
    #[should_panic(expected = "superblock")]
    fn zero_blocks_rejected() {
        count_psp1d(&EdgeList::empty(1), 1, 0);
    }

    #[test]
    fn empty_graph() {
        assert_eq!(count_psp1d(&EdgeList::empty(4), 2, 3).triangles, 0);
    }
}
