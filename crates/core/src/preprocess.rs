//! The distributed preprocessing phase (paper §5.3).
//!
//! The input state is an **edge list striped across the ranks**: rank
//! `r` holds records `[m·r/p, m·(r+1)/p)` of the canonical list (its
//! slice of the `.bin`, a sub-slice of an in-memory list, or the upper
//! entries of its 1D block of rows). From there each rank performs:
//!
//! 1. **Initial cyclic redistribution**: every edge `(u, v)` goes to
//!    the cyclic owners `u % p` and `v % p` of its endpoints. Owners
//!    never build an adjacency: one pass over the received edges
//!    yields the degrees of the owned vertices and, per owned vertex,
//!    the set of ranks that will need its label.
//! 2. **Degree ordering via distributed counting sort**: global max
//!    degree (allreduce), per-degree histogram, vector exclusive scan
//!    for cross-rank positions (the `dmax·log p` term of §5.4), local
//!    placement; then a push-based all-to-all that delivers
//!    `old → new` labels to the ranks that orient an edge of the
//!    vertex.
//! 3. **U/L split**: the owner of an edge's *first* endpoint looks up
//!    the one label it does not own and emits `(min, max)`, freeing
//!    each received step-1 message as soon as its edges are oriented.
//! 4. **2D cyclic redistribution**: each upper entry `(v, k)` is sent
//!    once, to the owner of its `U` block on the `√p × √p` grid, which
//!    builds `U(x, y)` straight into its single-blob layout (§5.2). The
//!    `L` block needs no exchange of its own: `L = Uᵀ`, so the `L(x, y)`
//!    that `P(x, y)` stores by probe vertex holds exactly the words of
//!    `U(y, x)`, and the two transpose ranks swap their `U` blobs in
//!    one point-to-point exchange (a diagonal rank's `L` is its own
//!    `U`). Nor does the task block: under ⟨j,i,k⟩ task `(k, v)` lives
//!    at `P(k mod q, v mod q)`, the cell of the `L` entry, so the task
//!    block is the transpose of the received `L`; under ⟨i,j,k⟩ it is
//!    the `U` block.
//!
//! Every edge is touched a small constant number of times (the §5.4
//! model charges `m/p + dmax·log p` simple operations) and no payload
//! is copied more than once: send buffers are sized by a counting
//! pass, filled in place and handed to the fabric without a copy
//! ([`tc_mps::bytes_from_vec`]); received buffers are read through
//! typed views ([`PodArray`]) and the blocks are built straight from
//! them. Each rank builds one operand block; both operands leave
//! preprocessing as the blobs the counting phase ships.
//!
//! The initial Cannon *skew* is deliberately **not** done here — the
//! paper counts it in the triangle-counting phase (§5.1 "the initial
//! shifts of Cannon's algorithm"), and `cannon.rs` performs it.

pub use tc_graph::io::EdgeSource;
use tc_graph::io::IoError;
use tc_graph::{Block1D, Csr, Cyclic1D, Cyclic2D};
use tc_mps::{bytes_from_vec, Comm, MpsError, MpsResult, PodArray};

use bytes::Bytes;

use crate::blocks::{BlockView, SparseBlock, SparseBlockRef};
use crate::config::{Enumeration, TcConfig};
use crate::labels::LabelTable;
use crate::recip::Reciprocal;
use crate::redist::{poison, route, unpack, Records};

/// Tag of the step-4 swap of `U` blobs between transpose ranks (kept
/// clear of the grid-shift and SUMMA regions).
const SWAP_TAG: u64 = (1 << 46) + 0x5A;

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
    /// Operand block `U(x, y)` as a [`SparseBlock::to_blob`] blob —
    /// *unskewed*; `cannon` aligns it.
    pub ublob: Bytes,
    /// Operand block `L` holding entries `(k ≡ x, v ≡ y)` stored by
    /// probe vertex `v`, as a blob — unskewed. It is the transpose
    /// rank's `U(y, x)` blob, shared rather than copied in-process.
    pub lblob: Bytes,
    /// Global maximum operand-row length (sizes the intersection map).
    pub max_hash_row: usize,
    /// Preprocessing operation count (edge records processed).
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

/// A rank's share of the input graph: its stripe of a shared edge
/// list, or its 1D block of rows — a window into a shared pre-placed
/// structure, or rows that physically arrived at runtime (e.g.
/// scattered from a root rank that loaded the graph). Of rows, the
/// rank contributes the entries `w > v`, so either way every edge is
/// held by exactly one rank.
#[derive(Debug)]
pub enum BlockInput<'a> {
    /// This rank's stripe of the whole edge list.
    Striped(EdgeSource<'a>),
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
    /// Adjacency of owned vertex `v` of a row-shaped input.
    fn row(&self, v: u32) -> &[u32] {
        match self {
            BlockInput::Striped(_) => unreachable!("an edge stripe has no rows"),
            BlockInput::Shared(csr) => csr.neighbors(v),
            BlockInput::Owned { lo, xadj, adj } => {
                let i = (v - lo) as usize;
                &adj[xadj[i] as usize..xadj[i + 1] as usize]
            }
        }
    }

    /// This rank's edges, routed to the cyclic owners of their
    /// endpoints — or what is wrong with its stripe of them.
    fn stage(&self, n: usize, rank: usize, by_p: Reciprocal) -> Result<Vec<Vec<[u32; 2]>>, String> {
        route(&Share { input: self, n, rank, p: by_p.divisor() as usize }, by_p)
    }
}

/// Rank `rank`'s share of an `n`-vertex input among `p`, as the records
/// step 1 routes: a stripe is read a chunk at a time and checked as it
/// goes, so neither pass holds the whole stripe beside the send
/// buffers; of rows, each entry `w > v` is a record.
struct Share<'s, 'a> {
    input: &'s BlockInput<'a>,
    n: usize,
    rank: usize,
    p: usize,
}

impl Records for Share<'_, '_> {
    fn walk(&self, mut f: impl FnMut(u32, u32)) -> Result<(), String> {
        let BlockInput::Striped(src) = self.input else {
            let (lo, hi) = Block1D::new(self.n, self.p).range(self.rank);
            for v in lo as u32..hi as u32 {
                self.input.row(v).iter().filter(|&&w| w > v).for_each(|&w| f(v, w));
            }
            return Ok(());
        };
        src.visit_stripe(self.rank, self.p, f).map_err(|e| match (src, e) {
            (EdgeSource::List(_), IoError::Corrupt { msg, .. }) => {
                format!("input must be a simplified undirected graph: {msg}")
            }
            (_, e) => e.to_string(),
        })
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
/// (square-grid) and SUMMA (rectangular-grid) back halves. A defective
/// input share ends the phase on **every** rank with the same
/// [`MpsError::InvalidInput`].
pub fn relabel_phase_from(
    comm: &Comm,
    n: usize,
    input: &BlockInput<'_>,
) -> MpsResult<RelabeledEntries> {
    let p = comm.size();
    let rank = comm.rank();
    let cyc = Cyclic1D::new(n, p);
    let by_p = Reciprocal::new(u32::try_from(p).expect("rank count fits in u32"));
    let mut ops: u64 = 0;

    // -- Step 1: initial cyclic redistribution --------------------------
    // A rank that cannot vouch for its share says so to everyone in
    // the same exchange, so all ranks stop here together.
    let redist_span = tc_trace::span(tc_trace::names::PREP_REDIST, tc_trace::Category::Phase);
    let sends = input.stage(n, rank, by_p).unwrap_or_else(|msg| vec![poison(&msg); p]);
    let staged: usize = sends.iter().map(|s| s.len() * 8).sum();
    ops += sends.iter().map(|s| s.len() as u64 - 1).sum::<u64>();
    let prep_mem = tc_metrics::MemScope::track(tc_metrics::names::MEM_PREP_STAGING, staged as u64);
    let received = exchange(comm, sends)?;
    drop(prep_mem);
    let mut mine = Vec::with_capacity(p);
    for (src, msg) in received.iter().enumerate() {
        mine.push(unpack(msg).map_err(|msg| MpsError::InvalidInput { rank: src, msg })?);
    }

    // Degrees of the owned vertices (indexed by v ÷ p; one spare slot
    // so that a neighbour's index is always in range), and for each
    // the ranks that hold one of its edges by the *first* endpoint:
    // they orient that edge and need this vertex's label.
    let local_cnt = cyc.count(rank);
    let mask_words = p.div_ceil(64);
    let mut degree = vec![0u32; local_cnt + 1];
    let mut wanted_by = vec![0u64; local_cnt * mask_words];
    for &(firsts, seconds) in &mine {
        for &[u, v] in firsts {
            let (lv, dv) = by_p.div_rem(v);
            degree[by_p.quotient(u) as usize] += 1;
            degree[lv as usize] += u32::from(dv as usize == rank);
        }
        for &[u, v] in seconds {
            let (lv, du) = (by_p.quotient(v) as usize, by_p.div_rem(u).1 as usize);
            degree[lv] += 1;
            wanted_by[lv * mask_words + du / 64] |= 1 << (du % 64);
        }
        ops += (firsts.len() + seconds.len()) as u64;
    }
    degree.truncate(local_cnt);
    drop(redist_span);

    // -- Step 2: distributed counting sort ------------------------------
    let sort_span = tc_trace::span(tc_trace::names::PREP_SORT, tc_trace::Category::Phase);
    let local_dmax = degree.iter().copied().max().unwrap_or(0) as u64;
    let dmax = comm.allreduce_max_u64(local_dmax)? as usize;
    let mut hist = vec![0u64; dmax + 1];
    for &d in &degree {
        hist[d as usize] += 1;
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
    for (label, &d) in new_label.iter_mut().zip(&degree) {
        let d = d as usize;
        *label = (start[d] + before_me[d] + seen[d]) as u32;
        seen[d] += 1;
    }
    drop((seen, degree));
    drop(sort_span);

    let label_span = tc_trace::span(tc_trace::names::PREP_LABELS, tc_trace::Category::Phase);
    // -- Step 2b: push old→new labels to the ranks that orient --------
    let mut label_sends: Vec<Vec<[u32; 2]>> = (0..p).map(|_| Vec::new()).collect();
    for (i, &label) in new_label.iter().enumerate() {
        let pair = [cyc.global(rank, i), label];
        for (w, &word) in wanted_by[i * mask_words..(i + 1) * mask_words].iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                label_sends[w * 64 + bits.trailing_zeros() as usize].push(pair);
                bits &= bits - 1;
                ops += 1;
            }
        }
    }
    drop(wanted_by);
    let label_msgs = exchange(comm, label_sends)?;
    let mut old_to_new = LabelTable::with_capacity(label_msgs.iter().map(|m| m.len()).sum());
    for msg in &label_msgs {
        for &[old, new] in msg.iter() {
            old_to_new.insert(old, new);
        }
    }
    drop(label_msgs);

    // -- Step 3: U/L split in new labels --------------------------------
    // The owner of an edge's first endpoint emits it, smaller label
    // first: each edge exactly once grid-wide. Each step-1 message is
    // freed as soon as its edges are oriented, so the entries never
    // sit beside the whole of step 1's input.
    let mut entries = Vec::with_capacity(mine.iter().map(|(firsts, _)| firsts.len()).sum());
    drop(mine);
    for msg in received {
        let (firsts, _) = unpack(&msg).expect("step 1 checked every message");
        for &[u, v] in firsts {
            let (lv, dv) = by_p.div_rem(v);
            let nu = new_label[by_p.quotient(u) as usize];
            let nv = if dv as usize == rank {
                new_label[lv as usize]
            } else {
                old_to_new
                    .get(v)
                    .unwrap_or_else(|| panic!("rank {rank}: no relabel entry for neighbour {v}"))
            };
            entries.push((nu.min(nv), nu.max(nv)));
        }
    }
    ops += entries.len() as u64;
    let label_pairs: Vec<(u32, u32)> =
        (0..local_cnt).map(|i| (cyc.global(rank, i), new_label[i])).collect();
    drop(label_span);
    Ok(RelabeledEntries { entries, label_pairs, ops })
}

/// Runs the full Cannon-grid preprocessing pipeline on this rank: it
/// reads only its own share of the input, and all cross-rank data flow
/// goes through `comm`.
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
    // Ship each upper entry (v, k) to the one grid cell whose U block
    // stores it: U(v%q, k%q) at P(v%q, k%q).
    let u_cell = |nv: u32, nk: u32| q * by_q.div_rem(nv).1 as usize + by_q.div_rem(nk).1 as usize;
    let mut u_count = vec![0usize; p];
    for &(nv, nk) in &entries {
        u_count[u_cell(nv, nk)] += 1;
    }
    let mut u_sends: Vec<Vec<[u32; 2]>> = u_count.iter().map(|&c| Vec::with_capacity(c)).collect();
    for &(nv, nk) in &entries {
        u_sends[u_cell(nv, nk)].push([nv, nk]);
    }
    ops += entries.len() as u64;
    let staged = entries.len() * std::mem::size_of::<[u32; 2]>();
    drop(entries);

    let prep_mem = tc_metrics::MemScope::track(tc_metrics::names::MEM_PREP_STAGING, staged as u64);
    let u_recv = exchange(comm, u_sends)?;
    drop(prep_mem);

    let x = comm.rank() / q;
    let y = comm.rank() % q;

    // U(x, y): rows are class x, built straight into its blob.
    let num_pairs = u_recv.iter().map(|m| m.len()).sum();
    let ublob = SparseBlock::blob_from_pair_stream(grid2d.class_count(n, x), q, num_pairs, || {
        pairs(&u_recv)
    });
    ops += num_pairs as u64;
    drop(u_recv);

    // L(x, y), stored by probe vertex (rows of class y, entries of class
    // x), holds the entries (v ≡ y, k ≡ x): exactly U(y, x). The
    // transpose rank's U blob therefore *is* this rank's L, and a
    // diagonal rank's L is its own U.
    let transpose_rank = y * q + x;
    let lblob = if transpose_rank == comm.rank() {
        ublob.clone()
    } else {
        comm.sendrecv_bytes(transpose_rank, SWAP_TAG, ublob.clone(), transpose_rank, SWAP_TAG)?
    };
    let lblock = SparseBlockRef::from_blob(&lblob);
    ops += lblock.num_entries() as u64;

    // Task block: rows are the hash-side vertices, class x — every
    // L entry (v, k) read as task (k, v), or the U entries as they are.
    let task = match cfg.enumeration {
        Enumeration::Jik => SparseBlock::transposed(&lblock, q, y, grid2d.class_count(n, x)),
        Enumeration::Ijk => SparseBlock::from_blob(ublob.clone()),
    };
    ops += task.num_entries() as u64;

    let local_max_row = SparseBlockRef::from_blob(&ublob).max_row_len();
    let max_hash_row = comm.allreduce_max_u64(local_max_row as u64)? as usize;
    drop(twod_span);

    Ok(PrepOutput { q, x, y, n, task, ublob, lblob, max_hash_row, ops, label_pairs })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tc_graph::io::{write_binary_edges_path, EdgeFile, CHUNK_RECORDS};
    use tc_graph::EdgeList;

    /// A file stripe is routed a chunk at a time; the step-1 messages
    /// must be those of the same stripe of the list, for stripes one
    /// record short of, exactly and one record past a chunk.
    #[test]
    fn file_stripes_stage_the_messages_of_list_stripes() {
        let path = std::env::temp_dir().join(format!("tc-stage-{}.bin", std::process::id()));
        for len in [CHUNK_RECORDS - 1, CHUNK_RECORDS, CHUNK_RECORDS + 1] {
            for p in [1usize, 4] {
                let m = (p * len) as u32;
                let edges: Vec<(u32, u32)> = (0..m).map(|i| (i / 3, i / 3 + 1 + i % 3)).collect();
                let el = EdgeList::new(m as usize / 3 + 4, edges);
                write_binary_edges_path(&el, &path).expect("write the .bin");
                let file = EdgeFile::open(&path).expect("reopen the .bin");
                let by_p = Reciprocal::new(p as u32);
                for rank in 0..p {
                    let stage = |src| BlockInput::Striped(src).stage(el.num_vertices, rank, by_p);
                    let list = stage(EdgeSource::List(&el)).expect("a clean list stripe");
                    let from_file = stage(EdgeSource::File(&file)).expect("a clean file stripe");
                    assert!(list == from_file, "stripes of {len} records, rank {rank} of {p}");
                }
            }
        }
        std::fs::remove_file(&path).expect("remove the .bin");
    }
}
