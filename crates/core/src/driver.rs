//! End-to-end driver: spawn the grid, preprocess, count, aggregate.
//!
//! Every pipeline comes in three flavors: a `try_*` function that
//! surfaces runtime failures (peer panics, receive timeouts, collective
//! mismatches) as [`tc_mps::MpsError`], a `*_observed` variant that
//! additionally binds rank threads to trace and/or metrics sessions
//! (see [`tc_mps::Observe`]), and a panicking wrapper with the
//! historical name. The older `*_traced` entry points remain and
//! forward to `*_observed` with metrics off. Nothing can hang: the
//! substrate guarantees every rank is woken and joined on failure.

use tc_graph::{Csr, EdgeList};
use tc_mps::{Comm, CommStats, MpsError, MpsResult, Observe, SocketConfig, Universe};
use tc_trace::{names, TraceHandle};

use crate::config::TcConfig;
use crate::metrics::{CommPhase, RankMetrics, TcResult};
use crate::preprocess::{preprocess_from, BlockInput, EdgeSource};

/// Turns an invalid-input verdict into a rank body's *value*: every
/// rank reaches it at the same program point, so the universe ends in
/// an orderly way (over sockets: drained, FIN exchanged) and each rank
/// keeps the typed error instead of racing its peers' aborts.
pub(crate) fn settle<T>(out: MpsResult<T>) -> MpsResult<MpsResult<T>> {
    match out {
        Err(e @ MpsError::InvalidInput { .. }) => Ok(Err(e)),
        other => other.map(Ok),
    }
}

/// Folds the per-rank outputs of an in-process run into one result.
pub(crate) fn fold_ranks(
    rank_outs: Vec<MpsResult<(u64, RankMetrics)>>,
    comm_stats: Vec<CommStats>,
) -> MpsResult<TcResult> {
    let mut ranks = Vec::with_capacity(rank_outs.len());
    let mut triangles = None;
    for (out, cs) in rank_outs.into_iter().zip(comm_stats) {
        let (t, mut m) = out?;
        assert_eq!(*triangles.get_or_insert(t), t, "ranks disagree on the reduced count");
        m.bytes_sent = cs.bytes_sent;
        ranks.push(m);
    }
    Ok(TcResult { triangles: triangles.unwrap_or(0), num_ranks: ranks.len(), ranks })
}

/// The aggregate-count rank body over an explicit per-rank input
/// source: this rank contributes its share of an `n`-vertex graph
/// (edge stripe, shared CSR window or materialized rows) and
/// participates in the full Cannon pipeline. Returns the globally
/// reduced triangle count (identical on every rank) and this rank's
/// metrics. Both fabric backends run this exact function — an
/// in-process rank thread and a socket-mesh rank process are
/// indistinguishable from here, which is what makes the
/// backend-conformance guarantee checkable.
///
/// This is also the recount oracle of long-lived services: a fleet
/// whose per-rank state is a mutable adjacency block can flatten it
/// into [`BlockInput::Owned`] and obtain the exact 2D count without
/// ever assembling the global graph anywhere.
pub fn count_rank_from(
    comm: &Comm,
    n: usize,
    input: &BlockInput<'_>,
    cfg: &TcConfig,
) -> MpsResult<(u64, RankMetrics)> {
    count_in(CommPhase::begin(comm, names::PHASE_PPT)?, comm, n, input, cfg)
}

/// [`count_rank_from`] inside an already-open preprocessing phase.
fn count_in(
    ppt: CommPhase<'_>,
    comm: &Comm,
    n: usize,
    input: &BlockInput<'_>,
    cfg: &TcConfig,
) -> MpsResult<(u64, RankMetrics)> {
    let mut metrics = RankMetrics::default();
    let prep = preprocess_from(comm, n, input, cfg)?;
    metrics.finish_ppt(ppt.finish()?, prep.ops);

    // ---- triangle counting phase ("tct") ----
    let phase = CommPhase::begin(comm, names::PHASE_TCT)?;
    let out = crate::cannon::cannon_count(comm, prep, cfg)?;
    metrics.finish_tct(phase.finish()?);

    metrics.record_kernel(&out.map_stats, &out.kernel_stats, out.tasks, out.local_triangles);
    metrics.record_shift_compute(out.shift_compute);
    Ok((out.triangles, metrics))
}

/// The per-rank body of the per-edge pipeline: aggregate count plus
/// per-task edge supports, gathered and translated on rank 0 (which is
/// the only rank whose `Option` comes back `Some`).
fn per_edge_rank(
    comm: &Comm,
    src: EdgeSource<'_>,
    cfg: &TcConfig,
) -> MpsResult<(u64, RankMetrics, Option<Vec<EdgeSupport>>)> {
    let n = src.num_vertices();
    let mut metrics = RankMetrics::default();

    let phase = CommPhase::begin(comm, names::PHASE_PPT)?;
    let prep = preprocess_from(comm, n, &BlockInput::Striped(src), cfg)?;
    let label_pairs: Vec<[u32; 2]> = prep.label_pairs.iter().map(|&(o, nl)| [o, nl]).collect();
    metrics.finish_ppt(phase.finish()?, prep.ops);

    let phase = CommPhase::begin(comm, names::PHASE_TCT)?;
    let out = crate::cannon::cannon_count_per_edge(comm, prep, cfg)?;
    metrics.finish_tct(phase.finish()?);

    metrics.record_kernel(&out.map_stats, &out.kernel_stats, out.tasks, out.local_triangles);
    metrics.record_shift_compute(out.shift_compute);

    // Gather label maps and per-task supports on rank 0 for the
    // translation back to input ids.
    let triples: Vec<[u32; 3]> = out
        .per_edge
        .expect("per-edge collection was requested")
        .into_iter()
        .map(|(a, b, s)| {
            debug_assert!(s <= u32::MAX as u64, "support exceeds u32");
            [a, b, s as u32]
        })
        .collect();
    let labels_at_root = comm.gatherv(0, &label_pairs)?;
    let triples_at_root = comm.gatherv(0, &triples)?;

    let supports = labels_at_root.map(|labels| {
        let mut old_of_new = vec![0u32; n];
        for msg in labels {
            for [old, new] in msg {
                old_of_new[new as usize] = old;
            }
        }
        let mut edges = Vec::new();
        for msg in triples_at_root.expect("root gathers both") {
            for [a, b, s] in msg {
                let (ou, ov) = (old_of_new[a as usize], old_of_new[b as usize]);
                let (u, v) = (ou.min(ov), ou.max(ov));
                edges.push(EdgeSupport { u, v, support: s as u64 });
            }
        }
        edges.sort_unstable_by_key(|e| (e.u, e.v));
        edges
    });
    Ok((out.triangles, metrics, supports))
}

/// Counts the triangles of `el` on `p` ranks with the 2D algorithm.
///
/// `p` must be a perfect square (the paper's `√p × √p` grid). The
/// graph is handed to the ranks as the paper's distributed input — its
/// canonical edge list striped across them, rank `r` taking records
/// `[m·r/p, m·(r+1)/p)` — and everything after that (validation,
/// cyclic redistribution, degree ordering, U/L split, 2D
/// redistribution, Cannon shifts, reduction) happens on the ranks and
/// over explicit messages.
///
/// # Panics
///
/// Panics if `p` is not a perfect square or `el` is not simplified.
pub fn count_triangles(el: &EdgeList, p: usize, cfg: &TcConfig) -> TcResult {
    match try_count_triangles(el, p, cfg) {
        Ok(r) => r,
        Err(e) => panic!("{e}"),
    }
}

/// Fallible [`count_triangles`]: runtime failures, and an input that
/// is not a simplified graph ([`MpsError::InvalidInput`]), come back
/// as [`tc_mps::MpsError`] instead of a panic.
pub fn try_count_triangles(el: &EdgeList, p: usize, cfg: &TcConfig) -> MpsResult<TcResult> {
    try_count_triangles_observed(el, p, cfg, Observe::none())
}

/// [`try_count_triangles`] with an optional trace session: when a
/// handle is supplied, every rank records phase, shift, and
/// communication spans into it.
pub fn try_count_triangles_traced(
    el: &EdgeList,
    p: usize,
    cfg: &TcConfig,
    trace: Option<&TraceHandle>,
) -> MpsResult<TcResult> {
    try_count_triangles_observed(el, p, cfg, Observe::trace(trace))
}

/// [`try_count_triangles`] with optional trace and metrics sessions,
/// over any striped source (`&EdgeList`, or a `.bin` the ranks read
/// their own slices of).
pub fn try_count_triangles_observed<'a>(
    src: impl Into<EdgeSource<'a>>,
    p: usize,
    cfg: &TcConfig,
    obs: Observe<'_>,
) -> MpsResult<TcResult> {
    assert!(tc_mps::perfect_square_side(p).is_some(), "rank count {p} is not a perfect square");
    let src = src.into();
    let input = BlockInput::Striped(src);
    let (rank_outs, comm_stats) = Universe::try_run_config(p, &obs.to_config(), |comm| {
        settle(count_rank_from(comm, src.num_vertices(), &input, cfg))
    })?;
    fold_ranks(rank_outs, comm_stats)
}

/// Counts triangles as **one rank of a multi-process universe**: this
/// process joins the socket mesh described by `sock` and runs exactly
/// the per-rank pipeline of [`try_count_triangles`] over it.
///
/// Every participating process must be launched with the same graph
/// and config, and reads only its own stripe of it. Returns the
/// globally reduced triangle count (identical on every rank) and this
/// rank's metrics; cross-rank aggregation is the launcher's job.
pub fn try_count_triangles_socket<'a>(
    src: impl Into<EdgeSource<'a>>,
    cfg: &TcConfig,
    sock: &SocketConfig,
) -> MpsResult<(u64, RankMetrics)> {
    let p = sock.peers.len();
    assert!(tc_mps::perfect_square_side(p).is_some(), "rank count {p} is not a perfect square");
    let src = src.into();
    let input = BlockInput::Striped(src);
    let (out, stats) = Universe::try_run_socket(sock, |comm| {
        settle(count_rank_from(comm, src.num_vertices(), &input, cfg))
    })?;
    let (triangles, mut metrics) = out?;
    metrics.bytes_sent = stats.bytes_sent;
    Ok((triangles, metrics))
}

/// Per-edge variant of [`try_count_triangles_socket`]: the support
/// list comes back `Some` only on rank 0 (which gathers and translates
/// it), mirroring the in-process pipeline's root-side aggregation.
pub fn try_count_per_edge_socket<'a>(
    src: impl Into<EdgeSource<'a>>,
    cfg: &TcConfig,
    sock: &SocketConfig,
) -> MpsResult<(u64, RankMetrics, Option<Vec<EdgeSupport>>)> {
    let p = sock.peers.len();
    assert!(tc_mps::perfect_square_side(p).is_some(), "rank count {p} is not a perfect square");
    let src = src.into();
    let (out, stats) =
        Universe::try_run_socket(sock, |comm| settle(per_edge_rank(comm, src, cfg)))?;
    let (triangles, mut metrics, supports) = out?;
    metrics.bytes_sent = stats.bytes_sent;
    Ok((triangles, metrics, supports))
}

/// Convenience wrapper with the paper's default configuration.
pub fn count_triangles_default(el: &EdgeList, p: usize) -> TcResult {
    count_triangles(el, p, &TcConfig::default())
}

/// Triangle support of one input edge (`u < v`, input labels).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeSupport {
    /// Smaller endpoint.
    pub u: u32,
    /// Larger endpoint.
    pub v: u32,
    /// Number of triangles containing the edge.
    pub support: u64,
}

/// Counts triangles *per edge* (the edge "support" that k-truss
/// decomposition and related analyses consume — one of the paper's §1
/// motivating applications), alongside the usual aggregate result.
///
/// Supports are accumulated shift-by-shift on each task's owner, then
/// gathered and translated back to input vertex labels. The returned
/// list covers every edge of the graph, sorted by `(u, v)`.
pub fn count_per_edge(el: &EdgeList, p: usize, cfg: &TcConfig) -> (TcResult, Vec<EdgeSupport>) {
    match try_count_per_edge(el, p, cfg) {
        Ok(r) => r,
        Err(e) => panic!("{e}"),
    }
}

/// Fallible [`count_per_edge`].
pub fn try_count_per_edge(
    el: &EdgeList,
    p: usize,
    cfg: &TcConfig,
) -> MpsResult<(TcResult, Vec<EdgeSupport>)> {
    try_count_per_edge_observed(el, p, cfg, Observe::none())
}

/// [`try_count_per_edge`] with an optional trace session.
pub fn try_count_per_edge_traced(
    el: &EdgeList,
    p: usize,
    cfg: &TcConfig,
    trace: Option<&TraceHandle>,
) -> MpsResult<(TcResult, Vec<EdgeSupport>)> {
    try_count_per_edge_observed(el, p, cfg, Observe::trace(trace))
}

/// [`try_count_per_edge`] with optional trace and metrics sessions.
pub fn try_count_per_edge_observed<'a>(
    src: impl Into<EdgeSource<'a>>,
    p: usize,
    cfg: &TcConfig,
    obs: Observe<'_>,
) -> MpsResult<(TcResult, Vec<EdgeSupport>)> {
    assert!(tc_mps::perfect_square_side(p).is_some(), "rank count {p} is not a perfect square");
    let src = src.into();
    let (rank_outs, comm_stats) = Universe::try_run_config(p, &obs.to_config(), |comm| {
        settle(per_edge_rank(comm, src, cfg))
    })?;
    let mut supports = None;
    let counts = rank_outs.into_iter().map(|out| {
        out.map(|(t, m, sup)| {
            supports = supports.take().or(sup);
            (t, m)
        })
    });
    let result = fold_ranks(counts.collect(), comm_stats)?;
    Ok((result, supports.expect("rank 0 produced the support list")))
}

/// Counts triangles when the whole graph initially lives on **rank 0**
/// (e.g. it was just loaded from disk there): rank 0 scatters the 1D
/// block rows to their owners, then the standard pipeline runs on the
/// physically distributed data.
///
/// The scatter is reported as part of the preprocessing phase — it
/// replaces the "graph is already distributed" assumption of §5.3
/// with an explicit distribution step.
pub fn count_triangles_from_root(el: &EdgeList, p: usize, cfg: &TcConfig) -> TcResult {
    match try_count_triangles_from_root(el, p, cfg) {
        Ok(r) => r,
        Err(e) => panic!("{e}"),
    }
}

/// Fallible [`count_triangles_from_root`].
pub fn try_count_triangles_from_root(
    el: &EdgeList,
    p: usize,
    cfg: &TcConfig,
) -> MpsResult<TcResult> {
    try_count_triangles_from_root_observed(el, p, cfg, Observe::none())
}

/// [`try_count_triangles_from_root`] with an optional trace session.
pub fn try_count_triangles_from_root_traced(
    el: &EdgeList,
    p: usize,
    cfg: &TcConfig,
    trace: Option<&TraceHandle>,
) -> MpsResult<TcResult> {
    try_count_triangles_from_root_observed(el, p, cfg, Observe::trace(trace))
}

/// [`try_count_triangles_from_root`] with optional trace and metrics
/// sessions.
pub fn try_count_triangles_from_root_observed(
    el: &EdgeList,
    p: usize,
    cfg: &TcConfig,
    obs: Observe<'_>,
) -> MpsResult<TcResult> {
    assert!(tc_mps::perfect_square_side(p).is_some(), "rank count {p} is not a perfect square");
    let n = el.num_vertices;
    // Only rank 0's closure touches this (the "graph on one node").
    let root_csr = Csr::from_edge_list(el);
    let block = tc_graph::Block1D::new(n, p);

    let (rank_outs, comm_stats) = Universe::try_run_config(p, &obs.to_config(), |comm| {
        let phase = CommPhase::begin(comm, names::PHASE_PPT)?;

        // Rank 0 carves its CSR into per-rank block streams:
        // [lo-local xadj..., adj...] — two sections per rank, framed as
        // one u32 stream: [num_rows, xadj..., adj...].
        let pieces: Option<Vec<Vec<u32>>> = (comm.rank() == 0).then(|| {
            (0..p)
                .map(|r| {
                    let (lo, hi) = block.range(r);
                    let mut buf = Vec::new();
                    buf.push((hi - lo) as u32);
                    let mut off = 0u32;
                    buf.push(0);
                    for v in lo..hi {
                        off += root_csr.degree(v as u32) as u32;
                        buf.push(off);
                    }
                    for v in lo..hi {
                        buf.extend_from_slice(root_csr.neighbors(v as u32));
                    }
                    buf
                })
                .collect()
        });
        let mine = comm.scatterv(0, pieces.as_deref())?;
        let rows = mine[0] as usize;
        let xadj = mine[1..2 + rows].to_vec();
        let adj = mine[2 + rows..].to_vec();
        let (lo, _) = block.range(comm.rank());
        let input = BlockInput::Owned { lo: lo as u32, xadj, adj };
        settle(count_in(phase, comm, n, &input, cfg))
    })?;
    fold_ranks(rank_outs, comm_stats)
}
