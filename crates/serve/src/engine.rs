//! Per-rank incremental triangle-count engine.
//!
//! The engine owns a rank's 1D block of the evolving graph in a
//! mutable [`AdjStore`] and keeps the **global** triangle count
//! replicated on every rank. Cold start runs the full 2D kernel
//! (Cannon or SUMMA) over the input's stripes, the path `count` takes,
//! and builds the owned rows in one exchange; every subsequent update
//! batch adjusts the count *incrementally* — neighborhood
//! intersections of the touched endpoints only, never a recount.
//!
//! ## Delta algorithm
//!
//! A raw batch (replicated on all ranks) is first **normalized**: for
//! each distinct canonical edge the owner of its smaller endpoint
//! replays the ops in order against the pre-batch store and emits the
//! net effect — a net insert set `I` (absent before, present after)
//! and a net delete set `D` (present before, absent after). `I` and
//! `D` are allgathered so every rank sees both.
//!
//! Let `G0` be the graph before the batch and `G1 = G0 − D + I` the
//! graph after. Because `I ∩ G0 = ∅` and `D ∩ G1 = ∅`, a triangle of
//! `G0` containing a deleted edge cannot survive into `G1` and a
//! triangle of `G1` containing an inserted edge cannot have existed
//! in `G0`, so
//!
//! ```text
//! |T(G1)| = |T(G0)| + created − destroyed
//! ```
//!
//! with the two sides computed symmetrically by inclusion–exclusion
//! over how many batch edges each triangle contains (`j − C(j,2) +
//! C(j,3) = 1` for `j ∈ {1,2,3}`):
//!
//! ```text
//! destroyed = Σ_{e∈D} tri_G0(e) − pairs_G0(D) + triples(D)
//! created   = Σ_{e∈I} tri_G1(e) − pairs_G1(I) + triples(I)
//! ```
//!
//! * `tri_G(e=(u,v))` — common neighbours `|N(u) ∩ N(v)|`, evaluated
//!   at the owner of `u` after the owner of `v` pushes `N(v)` over an
//!   `alltoallv` (before applying `D`, after applying `I`);
//! * `pairs_G(S)` — unordered pairs `{e,f} ⊆ S` sharing a vertex
//!   whose closing third edge is present in `G`, checked by the owner
//!   of the third edge's smaller endpoint;
//! * `triples(S)` — triangles formed entirely of batch edges,
//!   computed from the replicated set on rank 0 alone.
//!
//! The three terms are summed with one 6-wide `allreduce`, so every
//! rank applies the same delta and the count stays replicated.

use std::collections::{HashMap, HashSet};
use std::path::Path;
use std::time::Instant;

use tc_core::recip::Reciprocal;
use tc_core::{count_rank_from, summa_rank_from, BlockInput, EdgeSource, SummaGrid, TcConfig};
use tc_graph::truss::truss_decomposition;
use tc_graph::{AdjStore, Block1D, Csr, EdgeList};
use tc_metrics::names as m;
use tc_mps::{bytes_from_vec, Comm, MpsError, MpsResult, PodArray};

use crate::wal::{decode_records, encode_records, CkptMeta, Durability, WalRecord};

/// Tag of the rows a `support`'s owners send rank 0.
const SUPPORT_TAG: u64 = (1 << 45) + 0x5E5;

/// Which offline 2D kernel backs cold starts (and the recount
/// oracle).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    /// Cannon-style shifts on a `√p × √p` grid.
    Cannon,
    /// SUMMA panels on a rectangular grid.
    Summa(SummaGrid),
}

/// One edge mutation in a raw update batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeOp {
    /// One endpoint.
    pub u: u32,
    /// The other endpoint.
    pub v: u32,
    /// `true` to insert the edge, `false` to delete it.
    pub insert: bool,
}

impl EdgeOp {
    /// An insert op.
    pub fn insert(u: u32, v: u32) -> Self {
        Self { u, v, insert: true }
    }

    /// A delete op.
    pub fn delete(u: u32, v: u32) -> Self {
        Self { u, v, insert: false }
    }

    /// Canonical `(min, max)` endpoints.
    pub fn canonical(&self) -> (u32, u32) {
        (self.u.min(self.v), self.u.max(self.v))
    }
}

/// What one applied batch did to the graph.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchOutcome {
    /// Net edges inserted (absent before, present after).
    pub inserted: u64,
    /// Net edges deleted (present before, absent after).
    pub deleted: u64,
    /// Triangles created by the net inserts.
    pub created: u64,
    /// Triangles destroyed by the net deletes.
    pub destroyed: u64,
    /// Global triangle count after the batch.
    pub triangles: u64,
}

/// Support query reply (rank 0 only).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SupportReply {
    /// Common-neighbour count of the two endpoints.
    pub support: u64,
    /// Whether the edge itself is currently present.
    pub present: bool,
}

/// Graph-level statistics, replicated by the collective.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatsReply {
    /// Global vertex count.
    pub vertices: u64,
    /// Global (undirected, simple) edge count.
    pub edges: u64,
    /// Global triangle count.
    pub triangles: u64,
    /// Update batches applied since cold start.
    pub batches: u64,
    /// Full 2D recounts executed (pinned to 1 after cold start).
    pub full_recounts: u64,
}

/// The per-rank engine: mutable owned block + replicated count.
#[derive(Debug)]
pub struct Engine {
    n: usize,
    block: Block1D,
    store: AdjStore,
    count: u64,
    algo: Algo,
    cfg: TcConfig,
    batches_applied: u64,
    full_recounts: u64,
    /// Replicated fingerprint of the global edge set, maintained
    /// incrementally from the net insert/delete lists.
    hash: u64,
    /// Rank-local durability (checkpoints + WAL); `None` outside
    /// supervised fleets.
    dur: Option<Durability>,
    /// Checkpoint cadence, in committed batches.
    ckpt_every: u64,
}

/// Mixing hash of one canonical edge, summed (wrapping) into the
/// global edge-set fingerprint. splitmix64 of the packed endpoints:
/// cheap, stateless, and the wrapping sum commutes, so every rank
/// arrives at the same fingerprint regardless of batch composition.
pub fn edge_fingerprint(u: u32, v: u32) -> u64 {
    let (a, b) = (u.min(v), u.max(v));
    let mut z = (((a as u64) << 32) | b as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// This rank's additive share of the global fingerprint: each edge
/// `(u, v)` with `u < v` is hashed exactly once, by the owner of `u`.
/// The wrapping allreduce-sum of the shares equals the fingerprint of
/// the whole edge set.
pub fn local_fingerprint(store: &AdjStore) -> u64 {
    let mut acc = 0u64;
    for (u, row) in store.owned_rows() {
        for &w in row {
            if w > u {
                acc = acc.wrapping_add(edge_fingerprint(u, w));
            }
        }
    }
    acc
}

/// `|a ∩ b|` for two sorted ascending slices.
fn intersect_sorted(a: &[u32], b: &[u32]) -> u64 {
    let (mut i, mut j, mut hits) = (0usize, 0usize, 0u64);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                hits += 1;
                i += 1;
                j += 1;
            }
        }
    }
    hits
}

/// If `e` and `f` share exactly one vertex, the canonical edge that
/// would close their triangle.
fn shared_third(e: (u32, u32), f: (u32, u32)) -> Option<(u32, u32)> {
    let (a, b) = e;
    let (c, d) = f;
    if e == f {
        return None;
    }
    let (x, y) = if a == c {
        (b, d)
    } else if a == d {
        (b, c)
    } else if b == c {
        (a, d)
    } else if b == d {
        (a, c)
    } else {
        return None;
    };
    Some((x.min(y), x.max(y)))
}

/// Triangles formed entirely of batch edges. Each such triangle is
/// discovered from all three of its edge pairs, hence the `/ 3`.
fn closed_triples(edges: &[(u32, u32)]) -> u64 {
    if edges.len() < 3 {
        return 0;
    }
    let set: HashSet<(u32, u32)> = edges.iter().copied().collect();
    let mut found = 0u64;
    for i in 0..edges.len() {
        for j in i + 1..edges.len() {
            if let Some(t) = shared_third(edges[i], edges[j]) {
                if set.contains(&t) {
                    found += 1;
                }
            }
        }
    }
    found / 3
}

/// Flattens per-rank allgatherv buffers of `[u, v]*` into pairs.
fn flat_pairs(bufs: Vec<Vec<u32>>) -> Vec<(u32, u32)> {
    bufs.concat().chunks_exact(2).map(|w| (w[0], w[1])).collect()
}

/// The full 2D count of an `n`-vertex input: the cold start, and the
/// recount oracle.
fn full_count(
    comm: &Comm,
    algo: Algo,
    n: usize,
    input: &BlockInput<'_>,
    cfg: &TcConfig,
) -> MpsResult<u64> {
    let (triangles, _metrics) = match algo {
        Algo::Cannon => count_rank_from(comm, n, input, cfg)?,
        Algo::Summa(grid) => summa_rank_from(comm, &grid, n, input, cfg)?,
    };
    if comm.rank() == 0 {
        tc_metrics::counter_add(m::SERVE_FULL_RECOUNTS, 1);
    }
    Ok(triangles)
}

/// This rank's rows of the graph `src` holds, in `block`, and its
/// additive share of the edge-set fingerprint. Collective: each rank
/// reads its stripe of `src` (a counting pass sizes the send buffers,
/// a second pass fills them) and sends both directions of every edge
/// to their owners in one zero-copy exchange. The fingerprint share
/// hashes the stripe's edges, each edge of the graph on exactly one
/// rank.
fn rows_from(comm: &Comm, src: EdgeSource<'_>, block: &Block1D) -> MpsResult<(AdjStore, u64)> {
    let (rank, p) = (comm.rank(), comm.size());
    let invalid = |e: tc_graph::io::IoError| MpsError::InvalidInput { rank, msg: e.to_string() };
    // `Block1D::owner` without its two divides per call. A block of
    // 2³² vertices has p = 1, where 2³² − 1 owns the same.
    let by_chunk = Reciprocal::new(block.chunk().clamp(1, u32::MAX as usize) as u32);
    let owner = |v: u32| (by_chunk.quotient(v) as usize).min(p - 1);
    let (mut counts, mut share) = (vec![0usize; p], 0u64);
    src.visit_stripe(rank, p, |u, v| {
        counts[owner(u)] += 1;
        counts[owner(v)] += 1;
        share = share.wrapping_add(edge_fingerprint(u, v));
    })
    .map_err(invalid)?;
    let mut sends: Vec<Vec<[u32; 2]>> = counts.into_iter().map(Vec::with_capacity).collect();
    src.visit_stripe(rank, p, |u, v| {
        sends[owner(u)].push([u, v]);
        sends[owner(v)].push([v, u]);
    })
    .map_err(invalid)?;
    let received = comm.alltoallv_bytes(sends.into_iter().map(bytes_from_vec).collect())?;
    let received: Vec<PodArray<[u32; 2]>> = received.into_iter().map(PodArray::new).collect();

    // The messages come in rank order, which is the order of the
    // canonical list, so row `v` fills ascending: its lower neighbours
    // `w` (edges `(w, v)`, sorted by `w`) before its upper ones.
    let (lo, hi) = block.range(rank);
    let mut degree = vec![0usize; hi - lo];
    for &[v, _] in received.iter().flat_map(|msg| msg.iter()) {
        degree[v as usize - lo] += 1;
    }
    let mut rows: Vec<Vec<u32>> = degree.into_iter().map(Vec::with_capacity).collect();
    for &[v, w] in received.iter().flat_map(|msg| msg.iter()) {
        rows[v as usize - lo].push(w);
    }
    Ok((AdjStore::from_sorted_rows(src.num_vertices(), lo, rows), share))
}

impl Engine {
    /// Builds a rank's engine from its stripe of `src` and runs the
    /// cold-start count (the one and only hot-path-free full count).
    /// No rank holds more of the graph than its stripe and its rows:
    /// the count takes the path of `tc_core::run`, the rows arrive in
    /// one exchange (`rows_from`), and the fingerprint is summed
    /// over the stripes by one allreduce. A defective source is the
    /// same [`MpsError::InvalidInput`] on every rank.
    pub fn cold_start_from(
        comm: &Comm,
        src: EdgeSource<'_>,
        algo: Algo,
        cfg: TcConfig,
    ) -> MpsResult<Engine> {
        let n = src.num_vertices();
        // The count goes first: it checks every record of every stripe
        // before anything else reads one, and its buffers are freed
        // before the rows are built.
        let count = full_count(comm, algo, n, &BlockInput::Striped(src), &cfg)?;
        let block = Block1D::new(n, comm.size());
        let (store, share) = rows_from(comm, src, &block)?;
        let hash = comm.allreduce(&[share], |a, b| *a = a.wrapping_add(*b))?[0];
        Ok(Engine {
            n,
            block,
            store,
            count,
            algo,
            cfg,
            batches_applied: 0,
            full_recounts: 1,
            hash,
            dur: None,
            ckpt_every: 0,
        })
    }

    /// [`Engine::cold_start_from`] the upper entries of a CSR every
    /// rank holds (each rank lists them all, then reads its stripe).
    pub fn cold_start(comm: &Comm, csr: &Csr, algo: Algo, cfg: TcConfig) -> MpsResult<Engine> {
        let el = EdgeList::new(csr.num_vertices(), csr.edges().collect());
        Engine::cold_start_from(comm, EdgeSource::List(&el), algo, cfg)
    }

    /// Builds or restores every rank's engine for one supervised-fleet
    /// session, leaving the fleet in a **consistent, committed** state:
    ///
    /// 1. each rank restores its newest readable checkpoint + WAL tail
    ///    (rank-local, no collectives);
    /// 2. if nobody has durable state, the fleet cold-starts and lays
    ///    down generation-0 checkpoints;
    /// 3. otherwise ranks without state (a process that died before
    ///    its first checkpoint) rebuild seq 0 from their stripes of
    ///    `src` — every rank takes part in that row exchange, and the
    ///    ranks that restored drop what they receive — the
    ///    most advanced rank broadcasts the WAL records laggards are
    ///    missing (the lists are global, so any rank's WAL bridges any
    ///    other's gap — and a batch interrupted mid-commit is settled
    ///    the same way: committed anywhere ⇒ committed everywhere),
    ///    every rank replays to the same seq, and takes the committed
    ///    count and fingerprint of that seq from the authority;
    /// 4. the replicated edge-set fingerprint is verified by a
    ///    wrapping allreduce — on any mismatch, or an unbridgeable
    ///    gap, the full 2D recount is the correctness oracle.
    ///
    /// Returns the engine plus whether this rank restored from disk.
    pub fn resume_or_cold_start(
        comm: &Comm,
        src: EdgeSource<'_>,
        algo: Algo,
        cfg: TcConfig,
        state_dir: &Path,
        ckpt_every: u64,
    ) -> MpsResult<(Engine, bool)> {
        let mut dur = Durability::open(state_dir)
            .unwrap_or_else(|e| panic!("cannot open state dir {}: {e}", state_dir.display()));
        let n = src.num_vertices();
        let block = Block1D::new(n, comm.size());
        let (lo, hi) = block.range(comm.rank());
        let restored = dur.restore().unwrap_or_else(|e| {
            panic!("cannot scan state dir {}: {e}", state_dir.display());
        });
        // A snapshot from a different fleet shape is another rank's
        // state; treat it as absent rather than corrupting the mesh.
        let restored = restored.filter(|r| r.store.range() == (lo as u32, hi as u32));

        let have = u64::from(restored.is_some());
        if comm.allreduce_sum_u64(have)? == 0 {
            let mut engine = Engine::cold_start_from(comm, src, algo, cfg)?;
            engine.attach_durability(dur, ckpt_every);
            return Ok((engine, false));
        }

        let (rebuilt, _share) = rows_from(comm, src, &block)?;
        let recovered = restored.is_some();
        let (store, meta) = match restored {
            Some(r) => {
                drop(rebuilt);
                (r.store, r.meta)
            }
            None => (rebuilt, CkptMeta { seq: 0, count: 0, hash: 0, recounts: 0 }),
        };
        let mut engine = Engine {
            n,
            block,
            store,
            count: meta.count,
            algo,
            cfg,
            batches_applied: meta.seq,
            full_recounts: meta.recounts,
            hash: meta.hash,
            dur: Some(dur),
            ckpt_every,
        };
        if !recovered {
            // A cold-rebuilt rank has no WAL generation yet; anchor
            // one at its seq-0 snapshot so the bridge records (and
            // every later batch) have a home. Superseded by the
            // re-anchor checkpoint once the bridge lands.
            engine.checkpoint_now();
        }

        // Settle every rank at the frontier: the lowest most-advanced
        // rank broadcasts the records past the slowest rank's seq.
        let seq_max = comm.allreduce_max_u64(meta.seq)?;
        let seq_min = comm.allreduce_min_u64(meta.seq)?;
        // A rank that restored reaches seq_max (a rebuilt one is at 0),
        // and only a restored rank knows its committed count.
        let authority_key =
            if recovered && meta.seq == seq_max { comm.rank() as u64 } else { u64::MAX };
        let authority = comm.allreduce_min_u64(authority_key)? as usize;
        let mut bridged = false;
        if seq_min < seq_max {
            let tail = if comm.rank() == authority {
                let recs = engine
                    .dur
                    .as_ref()
                    .expect("resync keeps durability attached")
                    .records_since(seq_min)
                    .unwrap_or_else(|e| panic!("cannot read WAL tail: {e}"));
                // The bridge must cover (seq_min, seq_max] without
                // holes; retention may have pruned too far back.
                let contiguous = recs.iter().zip(seq_min + 1..).all(|(r, want)| r.seq == want)
                    && recs.last().is_some_and(|r| r.seq == seq_max);
                encode_records(if contiguous { &recs } else { &[] })
            } else {
                Vec::new()
            };
            let tail = comm.bcast(authority, &tail)?;
            let records = decode_records(&tail);
            // An unbridgeable gap means a laggard's edges are simply
            // gone — no recount over inconsistent stores can invent
            // them. Die loudly; the supervisor's restart budget turns
            // repeated failures into a declared-dead fleet. In
            // practice the skew at rejoin is at most one batch (no
            // rank commits while a peer is down), far inside the
            // two-generation WAL retention.
            assert!(
                !records.is_empty(),
                "rank {}: WAL bridge for ({seq_min}, {seq_max}] is unavailable; \
                 durable state cannot be reconciled",
                comm.rank()
            );
            for rec in &records {
                engine.apply_committed(rec);
            }
            bridged = true;
        }

        // Every rank is at seq_max now. Replicate the authority's
        // committed state of it: the lifetime recount total (a rebuilt
        // rank starts at 0), and the count and fingerprint, which a
        // rank rebuilt at seq 0 with nothing to bridge does not know.
        let committed =
            comm.bcast(authority, &[engine.full_recounts, engine.count, engine.hash])?;
        (engine.full_recounts, engine.count, engine.hash) =
            (committed[0], committed[1], committed[2]);
        engine.verify_fingerprint(comm)?;
        if bridged || engine.batches_applied == 0 {
            // Laggards (and cold-rebuilt ranks, which have no WAL yet)
            // re-anchor with a fresh generation checkpoint.
            engine.checkpoint_now();
        }
        Ok((engine, recovered))
    }

    /// Attaches rank-local durability and lays down the generation
    /// checkpoint anchoring the WAL. `ckpt_every = 0` disables the
    /// periodic cadence (a checkpoint still anchors each generation).
    pub fn attach_durability(&mut self, dur: Durability, ckpt_every: u64) {
        self.dur = Some(dur);
        self.ckpt_every = ckpt_every;
        self.checkpoint_now();
    }

    /// Writes a checkpoint of the current committed state.
    ///
    /// # Panics
    ///
    /// Panics on a state-dir write failure — a supervised rank with a
    /// broken disk must die loudly, not serve undurable answers.
    fn checkpoint_now(&mut self) {
        let meta = CkptMeta {
            seq: self.batches_applied,
            count: self.count,
            hash: self.hash,
            recounts: self.full_recounts,
        };
        if let Some(dur) = self.dur.as_mut() {
            dur.checkpoint(&self.store, meta)
                .unwrap_or_else(|e| panic!("checkpoint at seq {} failed: {e}", meta.seq));
        }
    }

    /// Applies one already-committed batch bridged from another
    /// rank's WAL: net lists onto the store (edges with no owned
    /// endpoint are no-ops), committed counters verbatim, and an
    /// append to this rank's own WAL so the catch-up is durable.
    fn apply_committed(&mut self, rec: &WalRecord) {
        if rec.seq != self.batches_applied + 1 {
            return;
        }
        for &(u, v) in &rec.deletes {
            self.store.delete(u, v).expect("bridged delete is in range");
        }
        for &(u, v) in &rec.inserts {
            self.store.insert(u, v).expect("bridged insert is in range");
        }
        self.batches_applied = rec.seq;
        self.count = rec.count_after;
        self.hash = rec.hash_after;
        if let Some(dur) = self.dur.as_mut() {
            dur.append(rec).unwrap_or_else(|e| panic!("WAL append at seq {} failed: {e}", rec.seq));
        }
    }

    /// The edge-set fingerprint of the live stores (wrapping allreduce
    /// of the per-rank shares).
    fn live_hash(&self, comm: &Comm) -> MpsResult<u64> {
        Ok(comm.allreduce(&[local_fingerprint(&self.store)], |a, b| *a = a.wrapping_add(*b))?[0])
    }

    /// Compares the live fingerprint against the tracked one, which
    /// must be replicated: both sides are then the same on every rank,
    /// and so is the verdict. On a mismatch the full 2D recount settles
    /// the count and the hash is rebuilt — zero wrong answers even if
    /// replay went sideways.
    fn verify_fingerprint(&mut self, comm: &Comm) -> MpsResult<()> {
        let live = self.live_hash(comm)?;
        if live != self.hash {
            eprintln!(
                "rank {}: fingerprint mismatch after resync (live {live:#018x}, expected \
                 {:#018x}); falling back to a full 2D recount",
                comm.rank(),
                self.hash
            );
            self.recount(comm)?;
            self.hash = live;
            self.checkpoint_now();
        }
        Ok(())
    }

    /// Replicated fingerprint of the global edge set.
    pub fn fingerprint(&self) -> u64 {
        self.hash
    }

    /// Global triangle count (replicated; current as of the last
    /// applied batch).
    pub fn triangles(&self) -> u64 {
        self.count
    }

    /// Global vertex count.
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Update batches applied since cold start.
    pub fn batches_applied(&self) -> u64 {
        self.batches_applied
    }

    /// Full 2D recounts executed (1 after cold start; the incremental
    /// hot path never raises it).
    pub fn full_recounts(&self) -> u64 {
        self.full_recounts
    }

    /// This rank's mutable block store.
    pub fn store(&self) -> &AdjStore {
        &self.store
    }

    /// Runs the full 2D kernel over the current store — the
    /// correctness oracle and cold-start path, **not** part of batch
    /// application.
    pub fn recount(&mut self, comm: &Comm) -> MpsResult<u64> {
        let (lo, xadj, adj) = self.store.to_block_parts();
        let input = BlockInput::Owned { lo, xadj, adj };
        self.count = full_count(comm, self.algo, self.n, &input, &self.cfg)?;
        self.full_recounts += 1;
        Ok(self.count)
    }

    /// Applies one raw update batch. `ops` must be identical on every
    /// rank (the service sends it to every peer; tests replicate it).
    ///
    /// Ops whose canonical edge is a self-loop or out of range are
    /// ignored (the service layer rejects them before they get here).
    pub fn apply_batch(&mut self, comm: &Comm, ops: &[EdgeOp]) -> MpsResult<BatchOutcome> {
        let t0 = Instant::now();
        let me = comm.rank();

        // -- Normalize: net effect per edge, judged by its owner ------
        let mut order: Vec<(u32, u32)> = Vec::new();
        let mut state: HashMap<(u32, u32), (bool, bool)> = HashMap::new();
        for op in ops {
            let (u, v) = op.canonical();
            if u == v || v as usize >= self.n || self.block.owner(u) != me {
                continue;
            }
            let entry = state.entry((u, v)).or_insert_with(|| {
                order.push((u, v));
                let present = self.store.contains(u, v);
                (present, present)
            });
            entry.1 = op.insert;
        }
        let (mut my_ins, mut my_del) = (Vec::new(), Vec::new());
        for e in &order {
            let (before, after) = state[e];
            if before != after {
                let side = if after { &mut my_ins } else { &mut my_del };
                side.push(e.0);
                side.push(e.1);
            }
        }
        let inserts = flat_pairs(comm.allgatherv(&my_ins)?);
        let deletes = flat_pairs(comm.allgatherv(&my_del)?);

        // -- Destroyed side, against G0 (store still pre-batch) -------
        let (del_tri, del_pairs) = self.delta_side(comm, &deletes)?;
        let del_triples = if me == 0 { closed_triples(&deletes) } else { 0 };

        // -- Mutate ---------------------------------------------------
        for &(u, v) in &deletes {
            self.store.delete(u, v).expect("normalized delete is valid");
        }
        for &(u, v) in &inserts {
            self.store.insert(u, v).expect("normalized insert is valid");
        }

        // -- Created side, against G1 (store now post-batch) ----------
        let (ins_tri, ins_pairs) = self.delta_side(comm, &inserts)?;
        let ins_triples = if me == 0 { closed_triples(&inserts) } else { 0 };

        // -- Combine --------------------------------------------------
        let sums = comm.allreduce(
            &[del_tri, del_pairs, del_triples, ins_tri, ins_pairs, ins_triples],
            |a, b| *a += *b,
        )?;
        let destroyed = sums[0] - sums[1] + sums[2];
        let created = sums[3] - sums[4] + sums[5];
        self.count = self.count + created - destroyed;
        self.batches_applied += 1;
        for &(u, v) in &inserts {
            self.hash = self.hash.wrapping_add(edge_fingerprint(u, v));
        }
        for &(u, v) in &deletes {
            self.hash = self.hash.wrapping_sub(edge_fingerprint(u, v));
        }

        // Commit point for durability: the batch is in the WAL before
        // the frontend can acknowledge it to any client.
        if self.dur.is_some() {
            let rec = WalRecord {
                seq: self.batches_applied,
                count_after: self.count,
                hash_after: self.hash,
                inserts: inserts.clone(),
                deletes: deletes.clone(),
            };
            self.dur
                .as_mut()
                .expect("checked above")
                .append(&rec)
                .unwrap_or_else(|e| panic!("WAL append at seq {} failed: {e}", rec.seq));
            if self.ckpt_every > 0 && self.batches_applied % self.ckpt_every == 0 {
                self.checkpoint_now();
            }
        }

        if me == 0 {
            tc_metrics::counter_add(m::SERVE_BATCHES_APPLIED, 1);
            tc_metrics::counter_add(m::SERVE_EDGES_INSERTED, inserts.len() as u64);
            tc_metrics::counter_add(m::SERVE_EDGES_DELETED, deletes.len() as u64);
            tc_metrics::hist_record(m::SERVE_BATCH_SIZE, (inserts.len() + deletes.len()) as u64);
            tc_metrics::hist_record(m::SERVE_BATCH_APPLY_NS, t0.elapsed().as_nanos() as u64);
        }
        Ok(BatchOutcome {
            inserted: inserts.len() as u64,
            deleted: deletes.len() as u64,
            created,
            destroyed,
            triangles: self.count,
        })
    }

    /// One side of the delta: `Σ tri(e)` and the pair correction for
    /// the replicated edge set, against the **current** store state.
    /// Returns this rank's additive contributions.
    fn delta_side(&self, comm: &Comm, edges: &[(u32, u32)]) -> MpsResult<(u64, u64)> {
        let me = comm.rank();
        let p = comm.size();

        // Push N(v) from owner(v) to owner(u): both sides know the
        // replicated edge set, so no request round is needed. Wire
        // format per destination: repeated [v, len, row...].
        let mut sends: Vec<Vec<u32>> = vec![Vec::new(); p];
        let mut pushed: HashSet<(usize, u32)> = HashSet::new();
        for &(u, v) in edges {
            let (ou, ov) = (self.block.owner(u), self.block.owner(v));
            if ov == me && ou != me && pushed.insert((ou, v)) {
                let row = self.store.neighbors(v);
                let dst = &mut sends[ou];
                dst.push(v);
                dst.push(row.len() as u32);
                dst.extend_from_slice(row);
            }
        }
        let received = comm.alltoallv(&sends)?;
        let mut remote: HashMap<u32, Vec<u32>> = HashMap::new();
        for buf in received {
            let mut at = 0usize;
            while at < buf.len() {
                let v = buf[at];
                let len = buf[at + 1] as usize;
                remote.insert(v, buf[at + 2..at + 2 + len].to_vec());
                at += 2 + len;
            }
        }

        let mut tri = 0u64;
        let mut intersections = 0u64;
        for &(u, v) in edges {
            if self.block.owner(u) != me {
                continue;
            }
            let nu = self.store.neighbors(u);
            let nv: &[u32] = if self.block.owner(v) == me {
                self.store.neighbors(v)
            } else {
                remote.get(&v).map_or(&[], Vec::as_slice)
            };
            tri += intersect_sorted(nu, nv);
            intersections += 1;
        }
        tc_metrics::counter_add(m::SERVE_DELTA_INTERSECTIONS, intersections);

        // Pair correction: for every unordered pair of batch edges
        // sharing a vertex, the owner of the closing edge's smaller
        // endpoint checks its presence.
        let mut pairs = 0u64;
        for i in 0..edges.len() {
            for j in i + 1..edges.len() {
                if let Some((x, y)) = shared_third(edges[i], edges[j]) {
                    if self.block.owner(x) == me && self.store.contains(x, y) {
                        pairs += 1;
                    }
                }
            }
        }
        Ok((tri, pairs))
    }

    /// The ranks other than 0 that own `u` or `v`, each once, in
    /// `[u, v]` order: the peers a `support(u, v)` involves.
    pub fn support_peers(&self, u: u32, v: u32) -> impl Iterator<Item = usize> {
        let (ou, ov) = (self.block.owner(u), self.block.owner(v));
        [Some(ou), (ov != ou).then_some(ov)].into_iter().flatten().filter(|&o| o != 0)
    }

    /// Common-neighbour count of `(u, v)` in the current graph, on
    /// rank 0. Owner-routed, not collective: each of the
    /// [`Engine::support_peers`] sends rank 0 one `[len, row…]` per
    /// endpoint it owns; a rank owning neither returns `Ok(None)` at once.
    pub fn query_support(&self, comm: &Comm, u: u32, v: u32) -> MpsResult<Option<SupportReply>> {
        let me = comm.rank();
        let mut rows: Vec<u32> = Vec::new();
        if me != 0 {
            for w in [u, v].into_iter().filter(|&w| self.block.owner(w) == me) {
                let row = self.store.neighbors(w);
                rows.push(row.len() as u32);
                rows.extend_from_slice(row);
            }
            if !rows.is_empty() {
                comm.send(0, SUPPORT_TAG, &rows);
            }
            return Ok(None);
        }
        // The peers come in `[u, v]` order of first ownership, so their
        // messages back to back hold the remote rows in `[u, v]` order.
        for peer in self.support_peers(u, v) {
            rows.extend_from_slice(&comm.recv::<u32>(peer, SUPPORT_TAG)?);
        }
        let mut at = 0;
        let [nu, nv] = [u, v].map(|w| {
            if self.block.owner(w) == 0 {
                return self.store.neighbors(w);
            }
            let len = rows[at] as usize;
            at += 1 + len;
            &rows[at - len..at]
        });
        tc_metrics::counter_add(m::SERVE_QUERIES_SUPPORT, 1);
        Ok(Some(SupportReply {
            support: intersect_sorted(nu, nv),
            present: nu.binary_search(&v).is_ok(),
        }))
    }

    /// Edges of the `k`-truss of the current graph. Collective; the
    /// membership list materializes on rank 0 only.
    pub fn query_truss(&self, comm: &Comm, k: u32) -> MpsResult<Option<Vec<(u32, u32)>>> {
        // Each edge (u, v) with u < v is emitted exactly once, by the
        // owner of u.
        let mut mine: Vec<u32> = Vec::new();
        for (u, row) in self.store.owned_rows() {
            for &w in row {
                if w > u {
                    mine.push(u);
                    mine.push(w);
                }
            }
        }
        let Some(gathered) = comm.gatherv(0, &mine)? else {
            return Ok(None);
        };
        let edges = flat_pairs(gathered);
        let el = EdgeList::new(self.n, edges).simplify();
        let truss = truss_decomposition(&el).expect("store edges are simple");
        let members = truss
            .edges
            .iter()
            .zip(&truss.trussness)
            .filter(|&(_, &t)| t >= k)
            .map(|(&e, _)| e)
            .collect();
        tc_metrics::counter_add(m::SERVE_QUERIES_TRUSS, 1);
        Ok(Some(members))
    }

    /// Graph-level statistics. Collective; replicated on every rank.
    pub fn stats(&self, comm: &Comm) -> MpsResult<StatsReply> {
        let entries = comm.allreduce_sum_u64(self.store.owned_entries())?;
        if comm.rank() == 0 {
            tc_metrics::counter_add(m::SERVE_QUERIES_STATS, 1);
        }
        Ok(StatsReply {
            vertices: self.n as u64,
            edges: entries / 2,
            triangles: self.count,
            batches: self.batches_applied,
            full_recounts: self.full_recounts,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_third_identifies_the_closing_edge() {
        assert_eq!(shared_third((0, 1), (1, 2)), Some((0, 2)));
        assert_eq!(shared_third((0, 1), (0, 2)), Some((1, 2)));
        assert_eq!(shared_third((2, 5), (3, 5)), Some((2, 3)));
        assert_eq!(shared_third((0, 1), (2, 3)), None);
        assert_eq!(shared_third((0, 1), (0, 1)), None);
    }

    #[test]
    fn closed_triples_counts_batch_only_triangles() {
        assert_eq!(closed_triples(&[(0, 1), (1, 2), (0, 2)]), 1);
        assert_eq!(closed_triples(&[(0, 1), (1, 2), (2, 3)]), 0);
        // Two triangles sharing the edge (0, 1).
        assert_eq!(closed_triples(&[(0, 1), (1, 2), (0, 2), (1, 3), (0, 3)]), 2);
    }

    #[test]
    fn intersect_sorted_counts_common_entries() {
        assert_eq!(intersect_sorted(&[1, 3, 5, 7], &[2, 3, 5, 8]), 2);
        assert_eq!(intersect_sorted(&[], &[1, 2]), 0);
    }

    #[test]
    fn fingerprint_tracks_net_mutations_exactly() {
        let mut store = AdjStore::new(8, 0, 8);
        for (u, v) in [(0, 1), (1, 2), (0, 2), (3, 4)] {
            store.insert(u, v).unwrap();
        }
        let mut tracked = local_fingerprint(&store);
        store.insert(2, 5).unwrap();
        tracked = tracked.wrapping_add(edge_fingerprint(2, 5));
        store.delete(0, 1).unwrap();
        tracked = tracked.wrapping_sub(edge_fingerprint(0, 1));
        assert_eq!(tracked, local_fingerprint(&store));
        // Orientation-independent: (u, v) and (v, u) hash alike.
        assert_eq!(edge_fingerprint(3, 9), edge_fingerprint(9, 3));
        assert_ne!(edge_fingerprint(3, 9), edge_fingerprint(3, 8));
    }
}
