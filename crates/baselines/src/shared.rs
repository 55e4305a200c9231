//! Shared-memory parallel triangle counting.
//!
//! The paper's own prior work (\[21\], Tom et al. HPEC'17) is the
//! shared-memory map-based ⟨j,i,k⟩ algorithm; this is that algorithm
//! parallelized over threads: the rows of `L` (outer `j` loop) are
//! dealt to threads in dynamic chunks, each thread keeps a private
//! intersection set, and the per-thread counts are summed. It serves
//! both as a comparison point and as the motivation for the
//! distributed version (§1: "shared-memory solutions are limited by
//! the amount of memory available in a single processor").

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use tc_graph::edgelist::EdgeList;
use tc_graph::vset::VertexSet;

use crate::serial::Oriented;

/// Rows handed to a thread at a time; small enough to balance skewed
/// rows, large enough to amortize the fetch.
const CHUNK: usize = 256;

/// Counts triangles with `num_threads` worker threads.
///
/// # Panics
///
/// Panics if `num_threads == 0`.
pub fn count_shared(el: &EdgeList, num_threads: usize) -> u64 {
    assert!(num_threads > 0, "need at least one thread");
    let g = Oriented::build(el);
    count_shared_oriented(&g, num_threads)
}

/// Same as [`count_shared`] on a pre-built orientation.
pub fn count_shared_oriented(g: &Oriented, num_threads: usize) -> u64 {
    let n = g.num_vertices();
    let cap = g.max_upper_degree();
    let next = AtomicUsize::new(0);
    let total = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for _ in 0..num_threads {
            scope.spawn(|| {
                let mut set = VertexSet::with_capacity(cap);
                let mut local = 0u64;
                loop {
                    let lo = next.fetch_add(CHUNK, Ordering::Relaxed);
                    if lo >= n {
                        break;
                    }
                    let hi = (lo + CHUNK).min(n);
                    for j in lo as u32..hi as u32 {
                        let aj = g.upper(j);
                        let lj = g.lower(j);
                        if aj.is_empty() || lj.is_empty() {
                            continue;
                        }
                        set.clear();
                        set.insert_all(aj);
                        for &i in lj {
                            local += set.count_hits(g.upper(i));
                        }
                    }
                }
                total.fetch_add(local, Ordering::Relaxed);
            });
        }
    });
    total.into_inner()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serial::count_default;

    fn random_graph(n: u32, keep_mod: u64) -> EdgeList {
        let mut edges = Vec::new();
        let mut x = 98765u64;
        for u in 0..n {
            for v in u + 1..n {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                if (x >> 33) % keep_mod == 0 {
                    edges.push((u, v));
                }
            }
        }
        EdgeList::new(n as usize, edges).simplify()
    }

    #[test]
    fn matches_serial_across_thread_counts() {
        let el = random_graph(120, 6);
        let expect = count_default(&el);
        assert!(expect > 0);
        for t in [1, 2, 3, 4, 8] {
            assert_eq!(count_shared(&el, t), expect, "threads={t}");
        }
    }

    #[test]
    fn empty_graph() {
        assert_eq!(count_shared(&EdgeList::empty(0), 4), 0);
        assert_eq!(count_shared(&EdgeList::empty(100), 4), 0);
    }

    #[test]
    fn more_threads_than_rows() {
        let el = EdgeList::new(3, vec![(0, 1), (0, 2), (1, 2)]).simplify();
        assert_eq!(count_shared(&el, 16), 1);
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_rejected() {
        count_shared(&EdgeList::empty(1), 0);
    }
}
