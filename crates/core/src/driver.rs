//! End-to-end driver: spawn the grid, preprocess, count, aggregate.
//!
//! There is one way in. A [`Request`] says *what* to count — the edge
//! source, Cannon or SUMMA, the [`TcConfig`], per-edge supports or not —
//! a [`tc_mps::Launch`] says *where* the ranks run and what they are
//! bound to (threads of this process under a `UniverseConfig` carrying
//! the deadline, trace, metrics and chaos handles, or this process as
//! one rank of a socket mesh), and [`run`] returns a [`TcResult`] or a
//! typed [`tc_mps::MpsError`]: peer panics, receive timeouts, collective
//! mismatches, a defective input, a launch that does not fit the grid.
//! Nothing can hang: the substrate guarantees every rank is woken and
//! joined on failure. [`count_triangles`] and [`count_per_edge`] are the
//! panicking in-process conveniences.

use tc_graph::EdgeList;
use tc_mps::{Comm, CommStats, Launch, MpsError, MpsResult, UniverseConfig};
use tc_trace::names;

use crate::config::TcConfig;
use crate::metrics::{CommPhase, EdgeSupport, RankMetrics, TcResult};
use crate::preprocess::{preprocess_from, BlockInput, EdgeSource};
use crate::summa::{summa_rank_from, SummaGrid};

/// Which grid algorithm evaluates the count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algorithm {
    /// The paper's Cannon shifts on a `√p × √p` grid (§5.1).
    Cannon,
    /// SUMMA broadcasts on a rectangular `pr × pc` grid.
    Summa(SummaGrid),
}

/// One counting run: what to count, how, and what to report.
#[derive(Debug, Clone, Copy)]
pub struct Request<'a> {
    /// The graph, as the stripes the ranks read (`&EdgeList`, or a
    /// `.bin` every rank reads its own slice of).
    pub source: EdgeSource<'a>,
    /// Cannon or SUMMA.
    pub algorithm: Algorithm,
    /// Kernel and pipeline configuration.
    pub config: &'a TcConfig,
    /// Also compute the triangle support of every edge (Cannon only).
    pub per_edge: bool,
}

impl<'a> Request<'a> {
    /// The aggregate count of `source` with the Cannon algorithm.
    pub fn new(source: impl Into<EdgeSource<'a>>, config: &'a TcConfig) -> Self {
        Self { source: source.into(), algorithm: Algorithm::Cannon, config, per_edge: false }
    }

    /// Counts with SUMMA on `grid` instead.
    pub fn summa(self, grid: SummaGrid) -> Self {
        Self { algorithm: Algorithm::Summa(grid), ..self }
    }

    /// Also computes per-edge supports.
    pub fn per_edge(self) -> Self {
        Self { per_edge: true, ..self }
    }

    /// Whether a universe of `ranks` ranks can run this request.
    fn check_geometry(&self, ranks: usize) -> MpsResult<()> {
        let misfit = |msg: String| Err(MpsError::Geometry { ranks, msg });
        match self.algorithm {
            Algorithm::Cannon if tc_mps::perfect_square_side(ranks).is_none_or(|q| q == 0) => {
                misfit("the Cannon grid needs a perfect square of ranks".into())
            }
            Algorithm::Summa(grid) if grid.size() != ranks => {
                misfit(format!("a {}x{} SUMMA grid has {} ranks", grid.pr, grid.pc, grid.size()))
            }
            Algorithm::Summa(_) if self.per_edge => {
                misfit("per-edge supports need the Cannon algorithm".into())
            }
            _ => Ok(()),
        }
    }
}

/// What one rank returns: the reduced count, its metrics and — on rank
/// 0 of a per-edge run — the support list.
type RankOut = (u64, RankMetrics, Option<Vec<EdgeSupport>>);

/// Runs `req` on the ranks `launch` describes.
///
/// The graph is handed to the ranks as the paper's distributed input —
/// its canonical edge list striped across them, rank `r` taking records
/// `[m·r/p, m·(r+1)/p)` — and everything after that (validation,
/// cyclic redistribution, degree ordering, U/L split, 2D
/// redistribution, shifts or panel broadcasts, reduction) happens on
/// the ranks and over explicit messages. Over sockets every
/// participating process must be launched with the same request.
///
/// The result covers the ranks *this process* ran: all `p` on threads,
/// one over sockets (cross-process aggregation is the launcher's job).
/// The geometry is checked first — Cannon needs a perfect-square rank
/// count, SUMMA a grid of exactly the launched size, per-edge supports
/// Cannon — so a misfit is an [`MpsError::Geometry`] before any thread
/// starts or socket is bound.
pub fn run(req: Request<'_>, launch: Launch<'_>) -> MpsResult<TcResult> {
    let p = launch.size();
    req.check_geometry(p)?;
    let Request { source, algorithm, config, per_edge } = req;
    let n = source.num_vertices();
    let input = BlockInput::Striped(source);
    let (outs, stats) = launch.run(|comm| {
        settle(match algorithm {
            Algorithm::Cannon => cannon_rank(comm, n, &input, config, per_edge),
            Algorithm::Summa(grid) => {
                summa_rank_from(comm, &grid, n, &input, config).map(|(t, m)| (t, m, None))
            }
        })
    })?;
    fold_ranks(p, outs, stats)
}

/// Turns an invalid-input verdict into a rank body's *value*: every
/// rank reaches it at the same program point, so the universe ends in
/// an orderly way (over sockets: drained, FIN exchanged) and each rank
/// keeps the typed error instead of racing its peers' aborts. For rank
/// bodies other than [`run`]'s that read a striped source.
pub fn settle<T>(out: MpsResult<T>) -> MpsResult<MpsResult<T>> {
    match out {
        Err(e @ MpsError::InvalidInput { .. }) => Ok(Err(e)),
        other => other.map(Ok),
    }
}

/// Folds the outputs of the ranks this process ran into one result.
fn fold_ranks(
    num_ranks: usize,
    rank_outs: Vec<MpsResult<RankOut>>,
    comm_stats: Vec<CommStats>,
) -> MpsResult<TcResult> {
    let mut ranks = Vec::with_capacity(rank_outs.len());
    let mut triangles = None;
    let mut supports = None;
    for (out, cs) in rank_outs.into_iter().zip(comm_stats) {
        let (t, mut m, sup) = out?;
        assert_eq!(*triangles.get_or_insert(t), t, "ranks disagree on the reduced count");
        m.bytes_sent = cs.bytes_sent;
        ranks.push(m);
        supports = supports.or(sup);
    }
    let triangles = triangles.expect("a launch runs at least one rank");
    Ok(TcResult { triangles, num_ranks, ranks, supports })
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
    cannon_rank(comm, n, input, cfg, false).map(|(t, m, _)| (t, m))
}

/// The Cannon rank body: preprocessing phase, counting phase and, when
/// `per_edge` is set, the gather of the per-task supports on rank 0.
fn cannon_rank(
    comm: &Comm,
    n: usize,
    input: &BlockInput<'_>,
    cfg: &TcConfig,
    per_edge: bool,
) -> MpsResult<RankOut> {
    let mut metrics = RankMetrics::default();

    let phase = CommPhase::begin(comm, names::PHASE_PPT)?;
    let mut prep = preprocess_from(comm, n, input, cfg)?;
    let label_pairs = std::mem::take(&mut prep.label_pairs);
    metrics.finish_ppt(phase.finish()?, prep.ops);

    // ---- triangle counting phase ("tct") ----
    let phase = CommPhase::begin(comm, names::PHASE_TCT)?;
    let out = if per_edge {
        crate::cannon::cannon_count_per_edge(comm, prep, cfg)?
    } else {
        crate::cannon::cannon_count(comm, prep, cfg)?
    };
    metrics.finish_tct(phase.finish()?);

    metrics.record_kernel(&out.map_stats, &out.kernel_stats, out.tasks, out.local_triangles);
    metrics.record_shift_compute(out.shift_compute);
    let supports = match out.per_edge {
        Some(triples) => gather_supports(comm, n, label_pairs, triples)?,
        None => None,
    };
    Ok((out.triangles, metrics, supports))
}

/// Gathers label maps and per-task supports on rank 0 and translates
/// them back to input ids there (`Some` on rank 0 only).
fn gather_supports(
    comm: &Comm,
    n: usize,
    label_pairs: Vec<(u32, u32)>,
    per_task: Vec<(u32, u32, u64)>,
) -> MpsResult<Option<Vec<EdgeSupport>>> {
    let label_pairs: Vec<[u32; 2]> = label_pairs.into_iter().map(|(o, nl)| [o, nl]).collect();
    let triples: Vec<[u32; 3]> = per_task
        .into_iter()
        .map(|(a, b, s)| {
            debug_assert!(s <= u32::MAX as u64, "support exceeds u32");
            [a, b, s as u32]
        })
        .collect();
    let labels_at_root = comm.gatherv(0, &label_pairs)?;
    let triples_at_root = comm.gatherv(0, &triples)?;

    Ok(labels_at_root.map(|labels| {
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
    }))
}

/// Counts the triangles of `el` on `p` in-process ranks with the 2D
/// Cannon algorithm: [`run`] with a default launch, for callers with no
/// recovery path.
///
/// # Panics
///
/// Panics if `p` is not a perfect square, `el` is not simplified, or
/// the run fails.
pub fn count_triangles(el: &EdgeList, p: usize, cfg: &TcConfig) -> TcResult {
    run_or_panic(Request::new(el, cfg), p)
}

fn run_or_panic(req: Request<'_>, p: usize) -> TcResult {
    run(req, Launch::threads(p, &UniverseConfig::default())).unwrap_or_else(|e| panic!("{e}"))
}

/// Counts triangles *per edge* (the edge "support" that k-truss
/// decomposition and related analyses consume — one of the paper's §1
/// motivating applications), alongside the usual aggregate result:
/// [`run`] on a per-edge [`Request`], panicking like [`count_triangles`].
///
/// Supports are accumulated shift-by-shift on each task's owner, then
/// gathered and translated back to input vertex labels. The returned
/// list covers every edge of the graph, sorted by `(u, v)`.
pub fn count_per_edge(el: &EdgeList, p: usize, cfg: &TcConfig) -> (TcResult, Vec<EdgeSupport>) {
    let mut result = run_or_panic(Request::new(el, cfg).per_edge(), p);
    let supports = result.supports.take().expect("rank 0 ran in this process");
    (result, supports)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tc_mps::SocketConfig;

    /// A launch that does not fit the request is a typed error before
    /// anything starts: the socket configs below name endpoints that
    /// are never bound (an attempt to would fail with an I/O error,
    /// not `Geometry`).
    #[test]
    fn misfit_launches_are_errors_not_panics() {
        let el = EdgeList::new(4, vec![(0, 1), (0, 2), (1, 2), (2, 3)]).simplify();
        let cfg = TcConfig::default();
        let peers = |p: usize| (0..p).map(|r| format!("/nonexistent-dir/r{r}.sock")).collect();
        let three = SocketConfig::new(0, peers(3));
        let four = SocketConfig::new(0, peers(4));
        let ucfg = UniverseConfig::default();
        let grid = SummaGrid::new(2, 2);

        let cases = [
            (Request::new(&el, &cfg), Launch::Socket(&three), 3),
            (Request::new(&el, &cfg), Launch::threads(6, &ucfg), 6),
            (Request::new(&el, &cfg), Launch::threads(0, &ucfg), 0),
            (Request::new(&el, &cfg).summa(grid), Launch::Socket(&three), 3),
            (Request::new(&el, &cfg).summa(grid), Launch::threads(6, &ucfg), 6),
            (Request::new(&el, &cfg).summa(grid).per_edge(), Launch::Socket(&four), 4),
        ];
        for (req, launch, p) in cases {
            match run(req, launch) {
                Err(MpsError::Geometry { ranks, .. }) => assert_eq!(ranks, p, "{req:?}"),
                other => panic!("{req:?} on {launch:?}: expected a geometry error, got {other:?}"),
            }
        }
    }
}
