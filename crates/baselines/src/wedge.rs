//! Havoq-style distributed wedge-checking triangle counting (after
//! Pearce, HPEC'17).
//!
//! The pipeline the paper benchmarks against in Table 5:
//!
//! 1. **2-core decomposition** — iteratively peel vertices of degree
//!    < 2 ("removes the vertices that cannot be a part of any
//!    triangle", §4); distributed rounds of peel + neighbour
//!    decrement until a global fixed point.
//! 2. **Directed wedge counting** — orient the surviving graph by
//!    (degree, id); every vertex generates the wedges between pairs of
//!    its out-neighbours and queries the owner of the wedge endpoint
//!    for closure. Wedge volume is Σ d_out(v)², which is why skewed
//!    graphs make this approach lose to block set intersection — the
//!    effect Table 5 measures.
//!
//! Both phase times are reported separately, mirroring Havoq's
//! "2core time" and "directed wedge counting time" columns.

use std::time::{Duration, Instant};

use tc_graph::edgelist::EdgeList;
use tc_graph::{Block1D, Csr};
use tc_metrics::names as mnames;
use tc_mps::{MpsResult, Universe, UniverseConfig};
use tc_trace::{names, Category};

/// Outcome of a wedge-checking run.
#[derive(Debug, Clone)]
pub struct WedgeResult {
    /// Global triangle count.
    pub triangles: u64,
    /// 2-core peeling wall time (slowest rank).
    pub two_core: Duration,
    /// Wedge generation + closure checking wall time (slowest rank).
    pub wedge_count: Duration,
    /// Total wedges generated (= closure queries issued).
    pub wedges: u64,
    /// Vertices removed by the 2-core phase.
    pub peeled: u64,
    /// Total payload bytes sent.
    pub bytes_sent: u64,
}

impl WedgeResult {
    /// The Table 5 "total triangle counting time": 2core + wedge.
    pub fn total(&self) -> Duration {
        self.two_core + self.wedge_count
    }
}

/// Runs the wedge-checking pipeline on `p` in-process ranks bound to
/// `config`'s handles (in a trace the 2-core peeling records as the
/// setup phase, wedge checking as the count phase). Runtime failures
/// come back as [`tc_mps::MpsError`].
pub fn count_wedge(el: &EdgeList, p: usize, config: &UniverseConfig) -> MpsResult<WedgeResult> {
    let csr = Csr::from_edge_list(el);
    let n = csr.num_vertices();
    let block = Block1D::new(n, p);

    let (outs, stats) = Universe::try_run_config(p, config, |comm| {
        let rank = comm.rank();
        let (lo, hi) = block.range(rank);
        let cnt = hi - lo;

        // ---- phase 1: 2-core peeling ----
        comm.barrier()?;
        let setup_span = tc_trace::span(names::BASE_SETUP, Category::Phase);
        let t0 = Instant::now();
        let mut deg: Vec<u32> = (lo..hi).map(|v| csr.degree(v as u32) as u32).collect();
        let mut alive = vec![true; cnt];
        let mut peeled_local = 0u64;
        loop {
            // Peel local sub-2-core vertices and queue decrements.
            let mut sends: Vec<Vec<u32>> = (0..p).map(|_| Vec::new()).collect();
            let mut removed = 0u64;
            for li in 0..cnt {
                if alive[li] && deg[li] < 2 {
                    alive[li] = false;
                    removed += 1;
                    for &w in csr.neighbors((lo + li) as u32) {
                        sends[block.owner(w)].push(w);
                    }
                }
            }
            peeled_local += removed;
            if comm.allreduce_sum_u64(removed)? == 0 {
                break;
            }
            for msg in comm.alltoallv(&sends)? {
                for w in msg {
                    let li = w as usize - lo;
                    if alive[li] {
                        deg[li] = deg[li].saturating_sub(1);
                    }
                }
            }
        }
        comm.barrier()?;
        drop(setup_span);
        let two_core = t0.elapsed();
        tc_metrics::counter_add(mnames::BASE_SETUP_NS, two_core.as_nanos() as u64);

        // ---- phase 2: directed wedge counting ----
        let count_span = tc_trace::span(names::BASE_COUNT, Category::Phase);
        let t1 = Instant::now();
        // Orientation key: (post-peel degree, id). Each rank needs the
        // keys of its neighbours; owners push them (one pass, like
        // Havoq's degree exchange).
        let mut key_sends: Vec<Vec<[u32; 2]>> = (0..p).map(|_| Vec::new()).collect();
        let mut stamp = vec![usize::MAX; p];
        for li in 0..cnt {
            let v = (lo + li) as u32;
            let payload = [v, if alive[li] { deg[li] } else { u32::MAX }];
            for &w in csr.neighbors(v) {
                let dst = block.owner(w);
                if stamp[dst] != li {
                    stamp[dst] = li;
                    key_sends[dst].push(payload);
                }
            }
        }
        let key_msgs = comm.alltoallv(&key_sends)?;
        drop(key_sends);
        let mut nbr_key: std::collections::HashMap<u32, u32> = std::collections::HashMap::new();
        for msg in &key_msgs {
            for &[v, d] in msg {
                nbr_key.insert(v, d);
            }
        }
        drop(key_msgs);
        let key_of = |v: u32, d: u32| -> u64 { ((d as u64) << 32) | v as u64 };

        // Directed adjacency D(v) = alive neighbours with larger key.
        let mut directed: Vec<Vec<u32>> = vec![Vec::new(); cnt];
        for li in 0..cnt {
            if !alive[li] {
                continue;
            }
            let v = (lo + li) as u32;
            let kv = key_of(v, deg[li]);
            for &w in csr.neighbors(v) {
                let dw = *nbr_key.get(&w).expect("neighbour key pushed");
                if dw != u32::MAX && key_of(w, dw) > kv {
                    directed[li].push(w);
                }
            }
            directed[li].sort_unstable();
        }

        // Generate wedges (a, b): a, b ∈ D(v), key(a) < key(b); query
        // owner(a) whether b ∈ D(a).
        let mut wedge_sends: Vec<Vec<[u32; 2]>> = (0..p).map(|_| Vec::new()).collect();
        let mut wedges_local = 0u64;
        for d in &directed {
            for (ai, &a) in d.iter().enumerate() {
                for &b in &d[ai + 1..] {
                    // D(v) is id-sorted; order (a, b) by key for the query.
                    let ka = key_of(a, nbr_key[&a]);
                    let kb = key_of(b, nbr_key[&b]);
                    let (qa, qb) = if ka < kb { (a, b) } else { (b, a) };
                    wedge_sends[block.owner(qa)].push([qa, qb]);
                    wedges_local += 1;
                }
            }
        }
        let queries = comm.alltoallv(&wedge_sends)?;
        drop(wedge_sends);
        let mut local_triangles = 0u64;
        for msg in &queries {
            for &[a, b] in msg {
                if directed[a as usize - lo].binary_search(&b).is_ok() {
                    local_triangles += 1;
                }
            }
        }
        let triangles = comm.allreduce_sum_u64(local_triangles)?;
        let wedges = comm.allreduce_sum_u64(wedges_local)?;
        let peeled = comm.allreduce_sum_u64(peeled_local)?;
        comm.barrier()?;
        drop(count_span);
        let wedge_count = t1.elapsed();
        tc_metrics::counter_add(mnames::BASE_COUNT_NS, wedge_count.as_nanos() as u64);
        Ok((triangles, two_core, wedge_count, wedges, peeled))
    })?;

    let triangles = outs[0].0;
    assert!(outs.iter().all(|o| o.0 == triangles));
    Ok(WedgeResult {
        triangles,
        two_core: outs.iter().map(|o| o.1).max().unwrap(),
        wedge_count: outs.iter().map(|o| o.2).max().unwrap(),
        wedges: outs[0].3,
        peeled: outs[0].4,
        bytes_sent: stats.iter().map(|s| s.bytes_sent).sum(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serial::count_default;
    use tc_gen::graph500;

    fn count_wedge(el: &EdgeList, p: usize) -> WedgeResult {
        super::count_wedge(el, p, &UniverseConfig::default()).expect("clean run")
    }

    #[test]
    fn matches_serial() {
        let el = graph500(8, 17).simplify();
        let expect = count_default(&el);
        for p in [1, 2, 4, 7] {
            let r = count_wedge(&el, p);
            assert_eq!(r.triangles, expect, "p={p}");
        }
    }

    #[test]
    fn two_core_peels_trees_entirely() {
        // A path graph is fully peeled; zero wedges afterwards.
        let el = EdgeList::new(6, vec![(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]).simplify();
        let r = count_wedge(&el, 3);
        assert_eq!(r.triangles, 0);
        assert_eq!(r.peeled, 6);
        assert_eq!(r.wedges, 0);
    }

    #[test]
    fn pendant_vertices_do_not_break_counts() {
        // Triangle with a tail: tail is peeled, triangle survives.
        let el = EdgeList::new(5, vec![(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)]).simplify();
        let r = count_wedge(&el, 2);
        assert_eq!(r.triangles, 1);
        assert_eq!(r.peeled, 2);
    }

    #[test]
    fn wedge_volume_reflects_skew() {
        // Same edge budget: the skewed graph generates at least as
        // many wedges as the uniform one (Σ d² convexity) — the effect
        // behind twitter vs friendster in Table 5.
        let skewed = graph500(9, 4).simplify();
        let uniform = tc_gen::er::gnm(1 << 9, skewed.num_edges(), 4).simplify();
        let ws = count_wedge(&skewed, 4).wedges;
        let wu = count_wedge(&uniform, 4).wedges;
        assert!(ws > wu, "skewed {ws} <= uniform {wu}");
    }

    #[test]
    fn empty_graph() {
        let r = count_wedge(&EdgeList::empty(3), 2);
        assert_eq!(r.triangles, 0);
        assert_eq!(r.peeled, 3);
    }
}
