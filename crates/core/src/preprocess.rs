//! The distributed preprocessing phase (paper §5.3).
//!
//! Starting from the assumed input state — "the graph is initially
//! stored using a 1D distribution, in which each processor has n/p
//! vertices and its associated adjacency lists" — each rank performs:
//!
//! 1. **Initial cyclic redistribution**: vertices move to rank
//!    `v % p`, breaking up localized dense regions.
//! 2. **Degree ordering via distributed counting sort**: global max
//!    degree (allreduce), per-degree histogram, vector exclusive scan
//!    for cross-rank positions (the `dmax·log p` term of §5.4), local
//!    placement; then a push-based all-to-all that delivers
//!    `old → new` labels to every rank holding the vertex in an
//!    adjacency list.
//! 3. **U/L split**: with degree = label order, the split is a local
//!    label comparison per adjacency entry.
//! 4. **2D cyclic redistribution**: each upper entry `(v, k)` is sent
//!    to the owner of its `U` block and the owner of its `L` block on
//!    the `√p × √p` grid. The task block needs no exchange of its own:
//!    under ⟨j,i,k⟩ task `(k, v)` lives at `P(k mod q, v mod q)`,
//!    which is exactly where the `L` pair of the same edge goes, and
//!    under ⟨i,j,k⟩ it is the `U` block — so each rank derives its
//!    tasks from pairs it has already received.
//!
//! Every adjacency entry is touched a small constant number of times
//! (the §5.4 model charges `m/p + dmax·log p` simple operations) and
//! no payload is copied more than once: send buffers are sized by a
//! counting pass, filled in place and handed to the fabric without a
//! copy ([`tc_mps::bytes_from_vec`]); received buffers are read
//! through typed views ([`PodArray`]) and the blocks are built
//! straight from them.
//!
//! The initial Cannon *skew* is deliberately **not** done here — the
//! paper counts it in the triangle-counting phase (§5.1 "the initial
//! shifts of Cannon's algorithm"), and `cannon.rs` performs it.

use tc_graph::{Block1D, Csr, Cyclic1D, Cyclic2D};
use tc_mps::{bytes_from_vec, Comm, MpsResult, PodArray};

use crate::blocks::SparseBlock;
use crate::config::{Enumeration, TcConfig};
use crate::labels::LabelTable;
use crate::recip::Reciprocal;

/// Everything the counting phase needs, as produced on one rank.
#[derive(Debug)]
pub struct PrepOutput {
    /// Grid side `√p`.
    pub q: usize,
    /// This rank's grid row.
    pub x: usize,
    /// This rank's grid column.
    pub y: usize,
    /// Global vertex count.
    pub n: usize,
    /// Task block `C[L](x, y)` (or `C[U]` under ⟨i,j,k⟩): rows are the
    /// hash-side vertices (class `x`), columns the probe-side vertices
    /// (class `y`). One entry per graph edge, grid-wide.
    pub task: SparseBlock,
    /// Operand block `U(x, y)` — *unskewed*; `cannon` aligns it.
    pub ublock: SparseBlock,
    /// Operand block `L` holding entries `(k ≡ x, v ≡ y)` stored by
    /// probe vertex `v` — unskewed.
    pub lblock: SparseBlock,
    /// Global maximum operand-row length (sizes the intersection map).
    pub max_hash_row: usize,
    /// Preprocessing operation count (adjacency entries processed).
    pub ops: u64,
    /// `(old, new)` labels of this rank's cyclic-owned vertices
    /// (needed to translate per-edge results back to input ids).
    pub label_pairs: Vec<(u32, u32)>,
}

/// Result of the grid-agnostic front half of preprocessing (steps
/// 1–3): this rank's share of the *relabeled upper* adjacency entries.
#[derive(Debug)]
pub struct RelabeledEntries {
    /// Upper entries `(v, k)` with `v < k` in degree-order labels;
    /// across all ranks each graph edge appears exactly once.
    pub entries: Vec<(u32, u32)>,
    /// `(old, new)` labels of this rank's cyclic-owned vertices.
    pub label_pairs: Vec<(u32, u32)>,
    /// Operation count so far.
    pub ops: u64,
}

/// A rank's share of the input graph under the assumed 1D block
/// distribution: either a window into a shared pre-placed structure,
/// or rows that physically arrived at runtime (e.g. scattered from a
/// root rank that loaded the graph).
#[derive(Debug)]
pub enum BlockInput<'a> {
    /// Window into the shared immutable input CSR.
    Shared(&'a Csr),
    /// Materialized rows of the block `[lo, hi)`: `xadj` is local
    /// (length `hi - lo + 1`), `adj` the concatenated neighbours.
    Owned {
        /// First owned vertex.
        lo: u32,
        /// Local row pointers.
        xadj: Vec<u32>,
        /// Concatenated adjacency.
        adj: Vec<u32>,
    },
}

impl BlockInput<'_> {
    /// Adjacency of owned vertex `v`.
    pub fn neighbors(&self, v: u32) -> &[u32] {
        match self {
            BlockInput::Shared(csr) => csr.neighbors(v),
            BlockInput::Owned { lo, xadj, adj } => {
                let i = (v - lo) as usize;
                &adj[xadj[i] as usize..xadj[i + 1] as usize]
            }
        }
    }
}

/// One typed personalized all-to-all with a single copy end to end:
/// each send vector's storage *becomes* its message, and each received
/// message is read in place.
fn exchange<T: tc_mps::Pod>(comm: &Comm, sends: Vec<Vec<T>>) -> MpsResult<Vec<PodArray<T>>> {
    let received = comm.alltoallv_bytes(sends.into_iter().map(bytes_from_vec).collect())?;
    Ok(received.into_iter().map(PodArray::new).collect())
}

/// Every `(v, k)` pair of a received exchange, message by message.
fn pairs(msgs: &[PodArray<[u32; 2]>]) -> impl Iterator<Item = (u32, u32)> + '_ {
    msgs.iter().flat_map(|m| m.iter().map(|&[v, k]| (v, k)))
}

/// Steps 1–3 of §5.3 — initial cyclic redistribution, distributed
/// counting-sort relabeling, and the label push — shared by the Cannon
/// (square-grid) and SUMMA (rectangular-grid) back halves.
pub fn relabel_phase(comm: &Comm, global: &Csr) -> MpsResult<RelabeledEntries> {
    relabel_phase_from(comm, global.num_vertices(), &BlockInput::Shared(global))
}

/// [`relabel_phase`] over an explicit per-rank input source.
pub fn relabel_phase_from(
    comm: &Comm,
    n: usize,
    input: &BlockInput<'_>,
) -> MpsResult<RelabeledEntries> {
    let p = comm.size();
    let rank = comm.rank();
    let block = Block1D::new(n, p);
    let cyc = Cyclic1D::new(n, p);
    let by_p = Reciprocal::new(u32::try_from(p).expect("rank count fits in u32"));
    let mut ops: u64 = 0;

    // -- Step 1: initial cyclic redistribution --------------------------
    // Wire format per destination: repeated [v, deg, neighbors...].
    let redist_span = tc_trace::span(tc_trace::names::PREP_REDIST, tc_trace::Category::Phase);
    let (lo, hi) = block.range(rank);
    let mut words = vec![0usize; p];
    for v in lo..hi {
        words[cyc.owner(v as u32)] += 2 + input.neighbors(v as u32).len();
    }
    let mut sends: Vec<Vec<u32>> = words.iter().map(|&w| Vec::with_capacity(w)).collect();
    for v in lo..hi {
        let row = input.neighbors(v as u32);
        let buf = &mut sends[cyc.owner(v as u32)];
        buf.push(v as u32);
        buf.push(row.len() as u32);
        buf.extend_from_slice(row);
        ops += row.len() as u64 + 1;
    }
    let staged: usize = words.iter().sum::<usize>() * 4;
    let prep_mem = tc_metrics::MemScope::track(tc_metrics::names::MEM_PREP_STAGING, staged as u64);
    let received = exchange(comm, sends)?;
    drop(prep_mem);

    // Decode into one flat cyclic-local adjacency, indexed by v ÷ p.
    // Sources are block-ordered and each sends its vertices ascending,
    // so rows arrive in ascending local order and simply append.
    let local_cnt = cyc.count(rank);
    let received_words: usize = received.iter().map(|m| m.len()).sum();
    let mut xadj: Vec<u32> = Vec::with_capacity(local_cnt + 1);
    let mut adj: Vec<u32> = Vec::with_capacity(received_words.saturating_sub(2 * local_cnt));
    xadj.push(0);
    for msg in &received {
        let mut i = 0usize;
        while i < msg.len() {
            let v = msg[i];
            let deg = msg[i + 1] as usize;
            assert!(
                cyc.owner(v) == rank && cyc.local(v) == xadj.len() - 1,
                "rank {rank}: row of vertex {v} arrived out of cyclic-local order"
            );
            adj.extend_from_slice(&msg[i + 2..i + 2 + deg]);
            xadj.push(adj.len() as u32);
            ops += deg as u64;
            i += 2 + deg;
        }
    }
    assert_eq!(xadj.len(), local_cnt + 1, "rank {rank}: missing rows after redistribution");
    drop(received);
    let row = |i: usize| &adj[xadj[i] as usize..xadj[i + 1] as usize];
    let degree = |i: usize| (xadj[i + 1] - xadj[i]) as usize;
    drop(redist_span);

    // -- Step 2: distributed counting sort ------------------------------
    let sort_span = tc_trace::span(tc_trace::names::PREP_SORT, tc_trace::Category::Phase);
    let local_dmax = (0..local_cnt).map(degree).max().unwrap_or(0) as u64;
    let dmax = comm.allreduce_max_u64(local_dmax)? as usize;
    let mut hist = vec![0u64; dmax + 1];
    for i in 0..local_cnt {
        hist[degree(i)] += 1;
    }
    ops += local_cnt as u64;
    // Cross-rank offsets within each degree bucket, then global bucket
    // starts (the dmax-long prefix data of §5.4).
    let before_me = comm.exscan(&hist, 0u64, |a, b| *a += *b)?;
    let totals = comm.allreduce(&hist, |a, b| *a += *b)?;
    let mut start = vec![0u64; dmax + 2];
    for d in 0..=dmax {
        start[d + 1] = start[d] + totals[d];
    }
    ops += dmax as u64;
    let mut seen = vec![0u64; dmax + 1];
    let mut new_label = vec![0u32; local_cnt];
    for (i, label) in new_label.iter_mut().enumerate() {
        let d = degree(i);
        *label = (start[d] + before_me[d] + seen[d]) as u32;
        seen[d] += 1;
    }
    drop(seen);
    drop(sort_span);

    let label_span = tc_trace::span(tc_trace::names::PREP_LABELS, tc_trace::Category::Phase);
    // -- Step 2b: push old→new labels to every rank that references us --
    // Owner of u knows Adj(u); by symmetry each rank holding u in one
    // of its lists owns some w ∈ Adj(u), so pushing (u_old, u_new) to
    // the owners of u's neighbours covers exactly the demand set.
    let mut label_sends: Vec<Vec<[u32; 2]>> = (0..p).map(|_| Vec::new()).collect();
    let mut dest_stamp = vec![u32::MAX; p];
    for (i, &label) in new_label.iter().enumerate() {
        let pair = [cyc.global(rank, i), label];
        for &w in row(i) {
            let dst = by_p.div_rem(w).1 as usize;
            if dest_stamp[dst] != i as u32 {
                dest_stamp[dst] = i as u32;
                label_sends[dst].push(pair);
            }
        }
        ops += degree(i) as u64;
    }
    let label_msgs = exchange(comm, label_sends)?;
    let mut old_to_new = LabelTable::with_capacity(label_msgs.iter().map(|m| m.len()).sum());
    for msg in &label_msgs {
        for &[old, new] in msg.iter() {
            old_to_new.insert(old, new);
        }
    }
    drop(label_msgs);

    // -- Step 3b: U/L split in new labels -------------------------------
    // Emit each upper entry (v, k), v < k, exactly once grid-wide (the
    // owner of the smaller-label endpoint emits); across the grid
    // exactly half of all adjacency entries are upper.
    let mut entries = Vec::with_capacity(adj.len() / 2);
    let label_pairs: Vec<(u32, u32)> =
        (0..local_cnt).map(|i| (cyc.global(rank, i), new_label[i])).collect();
    for (i, &nv) in new_label.iter().enumerate() {
        for &w in row(i) {
            let nk = old_to_new
                .get(w)
                .unwrap_or_else(|| panic!("rank {rank}: no relabel entry for neighbour {w}"));
            if nv < nk {
                entries.push((nv, nk));
            }
        }
        ops += degree(i) as u64;
    }
    drop(label_span);
    Ok(RelabeledEntries { entries, label_pairs, ops })
}

/// Runs the full Cannon-grid preprocessing pipeline on this rank.
///
/// `global` is the shared, immutable input graph; the rank only reads
/// the rows of its own 1D block (simulating the pre-placed input), and
/// all cross-rank data flow goes through `comm`.
pub fn preprocess(comm: &Comm, global: &Csr, cfg: &TcConfig) -> MpsResult<PrepOutput> {
    preprocess_from(comm, global.num_vertices(), &BlockInput::Shared(global), cfg)
}

/// [`preprocess`] over an explicit per-rank input source.
pub fn preprocess_from(
    comm: &Comm,
    n: usize,
    input: &BlockInput<'_>,
    cfg: &TcConfig,
) -> MpsResult<PrepOutput> {
    let p = comm.size();
    let q = tc_mps::perfect_square_side(p).expect("rank count must be a perfect square");
    let grid2d = Cyclic2D::new(q);
    let by_q = Reciprocal::new(u32::try_from(q).expect("grid side fits in u32"));
    let RelabeledEntries { entries, label_pairs, mut ops } = relabel_phase_from(comm, n, input)?;

    let twod_span = tc_trace::span(tc_trace::names::PREP_2D, tc_trace::Category::Phase);
    // -- Step 4: 2D cyclic redistribution -------------------------------
    // Ship each upper entry (v, k) to the two grid cells that store it:
    //   U block U(v%q, k%q)        at P(v%q, k%q)
    //   L block L(k%q, v%q)        at P(k%q, v%q)  (stored by column v)
    // The task (a, b) — (k, v) under ⟨j,i,k⟩, (v, k) under ⟨i,j,k⟩ —
    // belongs at P(a%q, b%q), i.e. at the L cell resp. the U cell of
    // the same entry, so it travels with that pair for free.
    let cells = |nv: u32, nk: u32| {
        let (vx, vy) = (by_q.div_rem(nv).1 as usize, by_q.div_rem(nk).1 as usize);
        (q * vx + vy, q * vy + vx)
    };
    let mut u_count = vec![0usize; p];
    for &(nv, nk) in &entries {
        u_count[cells(nv, nk).0] += 1;
    }
    // An entry's L cell is the transpose of its U cell.
    let mut u_sends: Vec<Vec<[u32; 2]>> = u_count.iter().map(|&c| Vec::with_capacity(c)).collect();
    let mut l_sends: Vec<Vec<[u32; 2]>> =
        (0..p).map(|d| Vec::with_capacity(u_count[q * (d % q) + d / q])).collect();
    for &(nv, nk) in &entries {
        let (u_cell, l_cell) = cells(nv, nk);
        u_sends[u_cell].push([nv, nk]);
        l_sends[l_cell].push([nv, nk]);
    }
    ops += entries.len() as u64;
    let staged = 2 * entries.len() * std::mem::size_of::<[u32; 2]>();
    drop(entries);

    let prep_mem = tc_metrics::MemScope::track(tc_metrics::names::MEM_PREP_STAGING, staged as u64);
    let u_recv = exchange(comm, u_sends)?;
    let l_recv = exchange(comm, l_sends)?;
    drop(prep_mem);

    let x = comm.rank() / q;
    let y = comm.rank() % q;

    // U(x, y): rows are class x.
    let ublock = SparseBlock::from_pair_stream(grid2d.class_count(n, x), q, || pairs(&u_recv));
    ops += ublock.num_entries() as u64;
    drop(u_recv);

    // L(x, y) stored by probe vertex: rows are class y.
    let lblock = SparseBlock::from_pair_stream(grid2d.class_count(n, y), q, || pairs(&l_recv));
    ops += lblock.num_entries() as u64;
    drop(l_recv);

    // Task block: rows are the hash-side vertices, class x — every
    // L entry (v, k) read as task (k, v), or the U entries as they are.
    let task = match cfg.enumeration {
        Enumeration::Jik => lblock.transposed(q, y, grid2d.class_count(n, x)),
        Enumeration::Ijk => ublock.clone(),
    };
    ops += task.num_entries() as u64;

    let max_hash_row = comm.allreduce_max_u64(ublock.max_row_len() as u64)? as usize;
    drop(twod_span);

    Ok(PrepOutput { q, x, y, n, task, ublock, lblock, max_hash_row, ops, label_pairs })
}
