//! SUMMA-style triangle counting on rectangular processor grids.
//!
//! The paper's conclusion notes that the formulation "can be easily
//! extended to deal with rectangular processor grids using the SUMMA
//! algorithm" — this module is that extension. Instead of Cannon's
//! point-to-point shifts on a square grid, the inner dimension (the
//! triangle-closing vertices `k`) is cut into `K` contiguous panels;
//! at step `w` the owner column of `U`-panel `w` broadcasts it along
//! each grid row and the owner row of `L`-panel `w` broadcasts it down
//! each grid column, and every rank runs the same intersection kernel
//! as the Cannon path (`count::count_shift`).
//!
//! Tasks are distributed 2D-cyclically over the `pr × pc` grid exactly
//! as in the square formulation, so correctness rests on the same
//! partition argument: the panels partition the `k` axis, hence the
//! per-panel intersection counts sum to the exact per-edge count.

use std::time::Instant;

use bytes::Bytes;
use tc_metrics::{names as mnames, MemScope};
use tc_mps::{Comm, MpsResult, RecvRequest};

use crate::blocks::{SparseBlock, SparseBlockRef};
use crate::config::{Enumeration, TcConfig};
use crate::intersect::KernelState;
use crate::metrics::{CommPhase, RankMetrics};
use crate::preprocess::{relabel_phase_from, BlockInput};

/// Rectangular grid geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SummaGrid {
    /// Grid rows.
    pub pr: usize,
    /// Grid columns.
    pub pc: usize,
    /// Number of inner-dimension panels (`K`).
    pub panels: usize,
}

impl SummaGrid {
    /// A `pr × pc` grid with the default panel count `max(pr, pc)`.
    pub fn new(pr: usize, pc: usize) -> Self {
        assert!(pr > 0 && pc > 0, "grid dimensions must be positive");
        Self { pr, pc, panels: pr.max(pc) }
    }

    /// The most nearly square `pr × pc` grid (`pr ≤ pc`) of exactly `p`
    /// ranks: `pr` is the largest divisor of `p` not above `√p` —
    /// `1 × p` for a prime, `q × q` for a square. `p = 0` has no grid
    /// and gets `1 × 1`, which [`crate::run`] refuses for a 0-rank
    /// launch like any other misfit.
    pub fn near_square(p: usize) -> Self {
        let pr = (1..=p.isqrt()).rev().find(|d| p % d == 0).unwrap_or(1);
        Self::new(pr, (p / pr).max(1))
    }

    /// Overrides the panel count.
    pub fn with_panels(mut self, k: usize) -> Self {
        assert!(k > 0, "need at least one panel");
        self.panels = k;
        self
    }

    /// Total ranks.
    pub fn size(&self) -> usize {
        self.pr * self.pc
    }

    fn rank_of(&self, x: usize, y: usize) -> usize {
        x * self.pc + y
    }

    fn coords(&self, rank: usize) -> (usize, usize) {
        (rank / self.pc, rank % self.pc)
    }

    /// Panel index of inner vertex `k` for an `n`-vertex graph.
    fn panel_of(&self, k: u32, n: usize) -> usize {
        let width = n.div_ceil(self.panels).max(1);
        (k as usize / width).min(self.panels - 1)
    }

    /// Rows owned by grid-row class `x` (stride `pr`).
    fn row_count(&self, n: usize, x: usize) -> usize {
        if n == 0 {
            0
        } else {
            (n + self.pr - 1 - x) / self.pr
        }
    }

    /// Rows owned by grid-column class `y` (stride `pc`).
    fn col_count(&self, n: usize, y: usize) -> usize {
        if n == 0 {
            0
        } else {
            (n + self.pc - 1 - y) / self.pc
        }
    }
}

/// Reserved user-tag base for SUMMA broadcasts.
const SUMMA_TAG: u64 = (1 << 46) + 0x51;

/// Broadcasts `mine` (present on the root) within an explicit rank
/// group; linear fan-out is fine at grid-row/column sizes.
fn group_bcast(
    comm: &Comm,
    root: usize,
    members: &[usize],
    tag: u64,
    mine: Option<Bytes>,
) -> MpsResult<Bytes> {
    if comm.rank() == root {
        let data = mine.expect("root must hold the panel");
        for &m in members {
            if m != root {
                comm.send_bytes(m, tag, data.clone());
            }
        }
        Ok(data)
    } else {
        comm.recv_bytes(root, tag)
    }
}

/// A panel broadcast in flight: the root already holds the serialized
/// panel, every other group member holds its posted receive.
enum PendingPanel<'c> {
    Root(Bytes),
    Fetch(RecvRequest<'c>),
}

impl PendingPanel<'_> {
    fn finish(self) -> MpsResult<Bytes> {
        match self {
            PendingPanel::Root(b) => Ok(b),
            PendingPanel::Fetch(r) => r.wait(),
        }
    }
}

/// Nonblocking [`group_bcast`]: the root serializes the panel and
/// eagerly sends it to the group, receivers post the matching irecv;
/// either side completes in [`PendingPanel::finish`].
fn group_bcast_start<'c>(
    comm: &'c Comm,
    root: usize,
    members: &[usize],
    tag: u64,
    mine: Option<&SparseBlock>,
) -> PendingPanel<'c> {
    if comm.rank() == root {
        let data = mine.expect("root must hold the panel").to_blob();
        tc_metrics::counter_add(mnames::SHIFT_BYTES_SERIALIZED, data.len() as u64);
        for &m in members {
            if m != root {
                let _ = comm.isend_bytes(m, tag, data.clone());
            }
        }
        PendingPanel::Root(data)
    } else {
        PendingPanel::Fetch(comm.irecv_bytes(root, tag))
    }
}

/// Starts both broadcasts of panel step `w` (the `U` panel along the
/// grid row, the `L` panel down the grid column).
#[allow(clippy::too_many_arguments)] // internal glue over the grid geometry
fn start_panel_step<'c>(
    comm: &'c Comm,
    grid: &SummaGrid,
    x: usize,
    y: usize,
    row_members: &[usize],
    col_members: &[usize],
    w: usize,
    u_mine: Option<SparseBlock>,
    l_mine: Option<SparseBlock>,
) -> (PendingPanel<'c>, PendingPanel<'c>) {
    let u_root = grid.rank_of(x, w % grid.pc);
    let l_root = grid.rank_of(w % grid.pr, y);
    let tag = SUMMA_TAG + (w as u64) * 4;
    let pu = group_bcast_start(comm, u_root, row_members, tag, u_mine.as_ref());
    let pl = group_bcast_start(comm, l_root, col_members, tag + 1, l_mine.as_ref());
    (pu, pl)
}

/// The SUMMA rank body over an explicit per-rank input source: this
/// rank contributes its share of an `n`-vertex graph (edge stripe,
/// shared CSR window or materialized rows) and participates in the
/// full panel pipeline — in-process and over sockets alike. Returns
/// the globally reduced triangle count (identical on every rank) and
/// this rank's metrics — the rectangular-grid recount oracle
/// counterpart of [`crate::driver::count_rank_from`]. Panel steps
/// record the same `shift_compute` spans as Cannon shifts (`z` is the
/// panel index), so the trace analyzer treats both paths uniformly.
pub fn summa_rank_from(
    comm: &Comm,
    grid: &SummaGrid,
    n: usize,
    input: &BlockInput<'_>,
    cfg: &TcConfig,
) -> MpsResult<(u64, RankMetrics)> {
    let p = grid.size();
    {
        let mut metrics = RankMetrics::default();
        let (x, y) = grid.coords(comm.rank());

        // ---- preprocessing ----
        let phase = CommPhase::begin(comm, tc_trace::names::PHASE_PPT)?;
        let relabeled = relabel_phase_from(comm, n, input)?;
        let mut ops = relabeled.ops;

        // Route every upper entry to its task cell, U-panel owner, and
        // L-panel owner.
        let mut u_sends: Vec<Vec<[u32; 2]>> = (0..p).map(|_| Vec::new()).collect();
        let mut l_sends: Vec<Vec<[u32; 2]>> = (0..p).map(|_| Vec::new()).collect();
        let mut t_sends: Vec<Vec<[u32; 2]>> = (0..p).map(|_| Vec::new()).collect();
        for &(nv, nk) in &relabeled.entries {
            ops += 1;
            let w = grid.panel_of(nk, n);
            u_sends[grid.rank_of(nv as usize % grid.pr, w % grid.pc)].push([nv, nk]);
            l_sends[grid.rank_of(w % grid.pr, nv as usize % grid.pc)].push([nv, nk]);
            let (a_vert, b_vert) = match cfg.enumeration {
                Enumeration::Jik => (nk, nv),
                Enumeration::Ijk => (nv, nk),
            };
            t_sends[grid.rank_of(a_vert as usize % grid.pr, b_vert as usize % grid.pc)]
                .push([a_vert, b_vert]);
        }
        drop(relabeled);
        let staged: usize =
            [&u_sends, &l_sends, &t_sends].iter().flat_map(|s| s.iter()).map(|v| v.len() * 8).sum();
        let prep_mem = MemScope::track(mnames::MEM_PREP_STAGING, staged as u64);
        let u_recv = comm.alltoallv(&u_sends)?;
        drop(u_sends);
        let l_recv = comm.alltoallv(&l_sends)?;
        drop(l_sends);
        let t_recv = comm.alltoallv(&t_sends)?;
        drop(t_sends);
        drop(prep_mem);

        // Build this rank's panels, bucketed by panel index.
        let bucket = |msgs: Vec<Vec<[u32; 2]>>| -> Vec<Vec<(u32, u32)>> {
            let mut by_panel: Vec<Vec<(u32, u32)>> = vec![Vec::new(); grid.panels];
            for msg in msgs {
                for [v, k] in msg {
                    by_panel[grid.panel_of(k, n)].push((v, k));
                }
            }
            by_panel
        };
        let mut u_panels: Vec<Option<SparseBlock>> = vec![None; grid.panels];
        for (w, mut pairs) in bucket(u_recv).into_iter().enumerate() {
            if w % grid.pc == y {
                ops += pairs.len() as u64;
                u_panels[w] =
                    Some(SparseBlock::from_pairs(grid.row_count(n, x), grid.pr, &mut pairs));
            } else {
                debug_assert!(pairs.is_empty(), "panel routed to wrong owner");
            }
        }
        let mut l_panels: Vec<Option<SparseBlock>> = vec![None; grid.panels];
        for (w, mut pairs) in bucket(l_recv).into_iter().enumerate() {
            if w % grid.pr == x {
                ops += pairs.len() as u64;
                l_panels[w] =
                    Some(SparseBlock::from_pairs(grid.col_count(n, y), grid.pc, &mut pairs));
            } else {
                debug_assert!(pairs.is_empty(), "panel routed to wrong owner");
            }
        }
        let mut t_pairs: Vec<(u32, u32)> =
            t_recv.into_iter().flatten().map(|[a, b]| (a, b)).collect();
        ops += t_pairs.len() as u64;
        let task = SparseBlock::from_pairs(grid.row_count(n, x), grid.pr, &mut t_pairs);

        let local_max_row = u_panels.iter().flatten().map(|b| b.max_row_len()).max().unwrap_or(0);
        let max_hash_row = comm.allreduce_max_u64(local_max_row as u64)? as usize;
        metrics.finish_ppt(phase.finish()?, ops);

        // Resident panel storage held across the whole counting loop
        // (entries dominate; 8 bytes per (v, k) pair).
        let panel_bytes: usize =
            u_panels.iter().chain(l_panels.iter()).flatten().map(|b| b.num_entries() * 8).sum();
        let panel_mem = MemScope::track(mnames::MEM_SUMMA_PANELS, panel_bytes as u64);

        // ---- counting: K panel steps, row + column broadcasts ----
        let phase = CommPhase::begin(comm, tc_trace::names::PHASE_TCT)?;
        // Panels are contiguous in k, so the map hashes raw ids
        // (stride 1) rather than the Cannon path's `k ÷ q` transform.
        let mut ks = KernelState::new(max_hash_row, 1);
        let mut local = 0u64;
        let mut tasks = 0u64;
        let row_members: Vec<usize> = (0..grid.pc).map(|yy| grid.rank_of(x, yy)).collect();
        let col_members: Vec<usize> = (0..grid.pr).map(|xx| grid.rank_of(xx, y)).collect();
        let mut shift_compute = Vec::with_capacity(grid.panels);
        if cfg.overlap_shifts {
            // Zero-copy pipeline: each panel is serialized once (at
            // its root) and broadcast as a refcounted buffer; the
            // next step's broadcasts are posted before computing the
            // current step against borrowed views of the wire bytes.
            let mut cur = {
                let _xchg_span =
                    tc_trace::span(tc_trace::names::SHIFT_XCHG, tc_trace::Category::Shift)
                        .arg("z", 0u64);
                let (pu, pl) = start_panel_step(
                    comm,
                    grid,
                    x,
                    y,
                    &row_members,
                    &col_members,
                    0,
                    u_panels[0].take(),
                    l_panels[0].take(),
                );
                (pu.finish()?, pl.finish()?)
            };
            for w in 0..grid.panels {
                let step0 = tc_mps::CpuTimer::start();
                let next = (w + 1 < grid.panels).then(|| {
                    let step = start_panel_step(
                        comm,
                        grid,
                        x,
                        y,
                        &row_members,
                        &col_members,
                        w + 1,
                        u_panels[w + 1].take(),
                        l_panels[w + 1].take(),
                    );
                    (step, Instant::now())
                });
                let (u_blob, l_blob) = &cur;
                tc_metrics::hist_record(mnames::SHIFT_BYTES, u_blob.len() as u64);
                tc_metrics::hist_record(mnames::SHIFT_BYTES, l_blob.len() as u64);
                let tasks_before = tasks;
                let mut compute_span =
                    tc_trace::span(tc_trace::names::SHIFT_COMPUTE, tc_trace::Category::Shift)
                        .arg("z", w as u64);
                let hash_block = SparseBlockRef::from_blob(u_blob);
                let probe_block = SparseBlockRef::from_blob(l_blob);
                local += crate::count::count_shift(
                    &task,
                    &hash_block,
                    &probe_block,
                    &mut ks,
                    grid.pc,
                    cfg,
                    &mut tasks,
                );
                compute_span.record_arg("tasks", tasks - tasks_before);
                drop(compute_span);
                if let Some(((pu, pl), posted)) = next {
                    tc_metrics::hist_record(
                        mnames::SHIFT_OVERLAP_WINDOW_NS,
                        posted.elapsed().as_nanos() as u64,
                    );
                    let _xchg_span =
                        tc_trace::span(tc_trace::names::SHIFT_XCHG, tc_trace::Category::Shift)
                            .arg("z", (w + 1) as u64);
                    cur = (pu.finish()?, pl.finish()?);
                }
                shift_compute.push(step0.elapsed());
            }
        } else {
            // Synchronous ablation schedule: blocking broadcasts and
            // owned deserialized operands, one panel at a time.
            for w in 0..grid.panels {
                let step0 = tc_mps::CpuTimer::start();
                let u_root = grid.rank_of(x, w % grid.pc);
                let serialize = |b: SparseBlock| {
                    let blob = b.to_blob();
                    tc_metrics::counter_add(mnames::SHIFT_BYTES_SERIALIZED, blob.len() as u64);
                    blob
                };
                let xchg_span =
                    tc_trace::span(tc_trace::names::SHIFT_XCHG, tc_trace::Category::Shift)
                        .arg("z", w as u64);
                let u_blob = group_bcast(
                    comm,
                    u_root,
                    &row_members,
                    SUMMA_TAG + (w as u64) * 4,
                    u_panels[w].take().map(serialize),
                )?;
                let l_root = grid.rank_of(w % grid.pr, y);
                let l_blob = group_bcast(
                    comm,
                    l_root,
                    &col_members,
                    SUMMA_TAG + (w as u64) * 4 + 1,
                    l_panels[w].take().map(serialize),
                )?;
                drop(xchg_span);
                tc_metrics::hist_record(mnames::SHIFT_BYTES, u_blob.len() as u64);
                tc_metrics::hist_record(mnames::SHIFT_BYTES, l_blob.len() as u64);
                let tasks_before = tasks;
                let mut compute_span =
                    tc_trace::span(tc_trace::names::SHIFT_COMPUTE, tc_trace::Category::Shift)
                        .arg("z", w as u64);
                let hash_block = SparseBlock::from_blob(u_blob);
                let probe_block = SparseBlock::from_blob(l_blob);
                local += crate::count::count_shift(
                    &task,
                    &hash_block,
                    &probe_block,
                    &mut ks,
                    grid.pc,
                    cfg,
                    &mut tasks,
                );
                compute_span.record_arg("tasks", tasks - tasks_before);
                drop(compute_span);
                shift_compute.push(step0.elapsed());
            }
        }
        let triangles = comm.allreduce_sum_u64(local)?;
        drop(panel_mem);
        metrics.finish_tct(phase.finish()?);

        tc_metrics::gauge_max(mnames::HASH_SLOTS, ks.map.table_size() as u64);
        tc_metrics::gauge_max(mnames::HASH_MAX_ROW, max_hash_row as u64);
        tc_metrics::gauge_max(
            mnames::HASH_LOAD_PCT,
            (max_hash_row * 100 / ks.map.table_size().max(1)) as u64,
        );
        metrics.record_kernel(&ks.map.stats, &ks.stats, tasks, local);
        metrics.record_shift_compute(shift_compute);
        Ok((triangles, metrics))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_geometry() {
        let g = SummaGrid::new(2, 3);
        assert_eq!(g.size(), 6);
        assert_eq!(g.panels, 3);
        assert_eq!(g.coords(5), (1, 2));
        assert_eq!(g.rank_of(1, 2), 5);
        assert_eq!(g.with_panels(7).panels, 7);
    }

    #[test]
    fn near_square_picks_the_largest_divisor_below_the_root() {
        let dims = |p| {
            let g = SummaGrid::near_square(p);
            (g.pr, g.pc)
        };
        assert_eq!([dims(0), dims(1)], [(1, 1), (1, 1)]);
        assert_eq!([dims(2), dims(7), dims(13)], [(1, 2), (1, 7), (1, 13)]);
        assert_eq!([dims(6), dims(12), dims(15)], [(2, 3), (3, 4), (3, 5)]);
        assert_eq!([dims(4), dims(9), dims(64)], [(2, 2), (3, 3), (8, 8)]);
        for p in 1..200 {
            let g = SummaGrid::near_square(p);
            assert_eq!(g.size(), p);
            assert!(g.pr <= g.pc);
        }
    }

    #[test]
    fn panel_of_covers_range() {
        let g = SummaGrid::new(2, 2).with_panels(4);
        let n = 10;
        for k in 0..10u32 {
            let w = g.panel_of(k, n);
            assert!(w < 4, "k={k} w={w}");
        }
        assert_eq!(g.panel_of(0, n), 0);
        assert_eq!(g.panel_of(9, n), 3);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_zero_dim() {
        SummaGrid::new(0, 3);
    }
}
