//! Cannon-pattern orchestration of the counting phase (paper §5.1).
//!
//! The counting phase performs, in order:
//!
//! 1. the **initial skew**: `U(x, y)` moves left by `x` so that
//!    `P(x, y)` holds `U(x, (x+y) % q)`, and `L` moves up by `y` so
//!    that `P(x, y)` holds `L((x+y) % q, y)`;
//! 2. `q = √p` **compute steps**, each counting against the currently
//!    held operand pair (Eq. 6's term `z`), separated by single-step
//!    shifts (`U` left, `L` up), with operands travelling as single
//!    contiguous blobs;
//! 3. a final **global reduction** of the per-rank counts.

use std::time::{Duration, Instant};

use bytes::Bytes;
use tc_metrics::{names as mnames, MemScope};
use tc_mps::{Comm, Grid, MpsError, MpsResult};

use crate::blocks::{BlockView, SparseBlock, SparseBlockRef};
use crate::config::TcConfig;
use crate::count::count_shift;
use crate::intersect::{KernelState, KernelStats};
use crate::preprocess::PrepOutput;

/// Per-rank outcome of the counting phase.
#[derive(Debug)]
pub struct CountOutput {
    /// Global triangle count (identical on every rank after the
    /// reduction).
    pub triangles: u64,
    /// Triangles found by this rank's tasks.
    pub local_triangles: u64,
    /// Compute-only duration of each shift.
    pub shift_compute: Vec<Duration>,
    /// Tasks that performed at least one lookup (Table 4 metric).
    pub tasks: u64,
    /// Final intersection-map statistics.
    pub map_stats: crate::hashmap::MapStats,
    /// Adaptive-kernel dispatch tallies (`tct.kernel.*`).
    pub kernel_stats: KernelStats,
    /// When requested: `(a, b, support)` for every task of this rank,
    /// in degree-order labels, zero-support tasks included.
    pub per_edge: Option<Vec<(u32, u32, u64)>>,
}

/// Runs skew + shifts + reduction for one rank.
pub fn cannon_count(comm: &Comm, prep: PrepOutput, cfg: &TcConfig) -> MpsResult<CountOutput> {
    cannon_count_impl(comm, prep, cfg, false)
}

/// [`cannon_count`] that also accumulates per-edge triangle supports
/// (the per-task totals across all shifts).
pub fn cannon_count_per_edge(
    comm: &Comm,
    prep: PrepOutput,
    cfg: &TcConfig,
) -> MpsResult<CountOutput> {
    cannon_count_impl(comm, prep, cfg, true)
}

/// Records one exchange's payload sizes in the per-shift histogram.
fn note_exchange_bytes(u_blob: &Bytes, l_blob: &Bytes) {
    tc_metrics::hist_record(mnames::SHIFT_BYTES, u_blob.len() as u64);
    tc_metrics::hist_record(mnames::SHIFT_BYTES, l_blob.len() as u64);
}

/// The initial Cannon skew of the preprocessed operand blobs: `U(x, y)`
/// moves left by `x`, `L(x, y)` up by `y`. The blobs travel as they
/// came out of preprocessing; the one each rank wrote is its `U`, so
/// that is what the skew counts as serialized.
fn skew(
    grid: &Grid<'_>,
    x: usize,
    y: usize,
    u_blob: Bytes,
    l_blob: Bytes,
) -> MpsResult<(Bytes, Bytes)> {
    let q = grid.q();
    let _skew_span =
        tc_trace::span(tc_trace::names::SKEW, tc_trace::Category::Shift).arg("z", 0u64);
    note_exchange_bytes(&u_blob, &l_blob);
    tc_metrics::counter_add(mnames::SHIFT_BYTES_SERIALIZED, u_blob.len() as u64);
    let _staging = MemScope::track(mnames::MEM_SHIFT_STAGING, (u_blob.len() + l_blob.len()) as u64);
    let ub = grid.exchange_bytes(x, (y + q - x) % q, u_blob, x, (x + y) % q)?;
    let lb = grid.exchange_bytes((x + q - y) % q, y, l_blob, (x + y) % q, y)?;
    Ok((ub, lb))
}

/// One compute step against the current operand pair, shared by the
/// single-rank, overlapped, and synchronous schedules: spans, CPU
/// timing, and the owned/borrowed-generic kernel dispatch.
#[allow(clippy::too_many_arguments)] // internal glue mirroring count_shift
fn compute_step<H: BlockView, P: BlockView>(
    task: &SparseBlock,
    hash: &H,
    probe: &P,
    ks: &mut KernelState,
    q: usize,
    cfg: &TcConfig,
    z: usize,
    tasks: &mut u64,
    hits: &mut Option<Vec<(u32, u32)>>,
    shift_compute: &mut Vec<Duration>,
) -> u64 {
    let tasks_before = *tasks;
    let t0 = tc_mps::CpuTimer::start();
    let mut compute_span =
        tc_trace::span(tc_trace::names::SHIFT_COMPUTE, tc_trace::Category::Shift)
            .arg("z", z as u64);
    let found = match hits.as_mut() {
        None => count_shift(task, hash, probe, ks, q, cfg, tasks),
        Some(h) => crate::count::count_shift_recording(task, hash, probe, ks, q, cfg, tasks, {
            |idx, k| h.push((idx as u32, k))
        }),
    };
    compute_span.record_arg("tasks", *tasks - tasks_before);
    drop(compute_span);
    shift_compute.push(t0.elapsed());
    found
}

fn cannon_count_impl(
    comm: &Comm,
    mut prep: PrepOutput,
    cfg: &TcConfig,
    collect_per_edge: bool,
) -> MpsResult<CountOutput> {
    let grid = Grid::new(comm);
    let q = prep.q;
    debug_assert_eq!(grid.q(), q);
    let (x, y) = (prep.x, prep.y);
    // Preprocessing hands over both operands as blobs: this rank's U,
    // written in place, and its L, the transpose rank's U.
    let u_init = std::mem::take(&mut prep.ublob);
    let l_init = std::mem::take(&mut prep.lblob);

    let mut ks = KernelState::new(prep.max_hash_row, q);
    let mut local = 0u64;
    let mut tasks = 0u64;
    let mut shift_compute = Vec::with_capacity(q);
    // Per-edge mode records every (task entry, closing vertex k) hit.
    let mut hits: Option<Vec<(u32, u32)>> = collect_per_edge.then(Vec::new);

    if q == 1 {
        // Single grid cell: operands are aligned and never travel.
        local += compute_step(
            &prep.task,
            &SparseBlockRef::from_blob(&u_init),
            &SparseBlockRef::from_blob(&l_init),
            &mut ks,
            q,
            cfg,
            0,
            &mut tasks,
            &mut hits,
            &mut shift_compute,
        );
    } else if cfg.overlap_shifts {
        // Zero-copy pipeline: each operand was serialized exactly once,
        // by preprocessing. From then on the pair of blobs is the reusable
        // staging storage — the skew and every shift forward the
        // refcounted buffers verbatim (a clone is a refcount bump, not a
        // copy) and the kernel computes against borrowed views of the
        // wire bytes, so the steady-state loop allocates nothing.
        let (mut u_blob, mut l_blob) = skew(&grid, x, y, u_init, l_init)?;
        for z in 0..q {
            // Post the shift-(z+1) exchange before computing shift z,
            // so the transfer progresses under the compute.
            let pending = (z + 1 < q).then(|| {
                note_exchange_bytes(&u_blob, &l_blob);
                let left = grid.shift_left_start(u_blob.clone());
                let up = grid.shift_up_start(l_blob.clone());
                (left, up, Instant::now())
            });
            let _staging =
                MemScope::track(mnames::MEM_SHIFT_STAGING, (u_blob.len() + l_blob.len()) as u64);
            let hash = SparseBlockRef::from_blob(&u_blob);
            let probe = SparseBlockRef::from_blob(&l_blob);
            local += compute_step(
                &prep.task,
                &hash,
                &probe,
                &mut ks,
                q,
                cfg,
                z,
                &mut tasks,
                &mut hits,
                &mut shift_compute,
            );
            if let Some((left, up, posted)) = pending {
                tc_metrics::hist_record(
                    mnames::SHIFT_OVERLAP_WINDOW_NS,
                    posted.elapsed().as_nanos() as u64,
                );
                // Tag the exchange with the shift whose operands it
                // delivers; the span covers only the wait, which is
                // all that remains on the critical path.
                let _xchg_span =
                    tc_trace::span(tc_trace::names::SHIFT_XCHG, tc_trace::Category::Shift)
                        .arg("z", (z + 1) as u64);
                u_blob = left.wait()?;
                l_blob = up.wait()?;
            }
        }
    } else {
        // Synchronous ablation schedule: blocking sendrecv exchanges
        // and owned operands, paying a deserialize + reserialize per
        // shift. Counts and probe statistics are identical to the
        // overlapped path; only communication behavior differs.
        let (u_blob, l_blob) = skew(&grid, x, y, u_init, l_init)?;
        let (mut ublock, mut lblock) =
            (SparseBlock::from_blob(u_blob), SparseBlock::from_blob(l_blob));
        for z in 0..q {
            local += compute_step(
                &prep.task,
                &ublock,
                &lblock,
                &mut ks,
                q,
                cfg,
                z,
                &mut tasks,
                &mut hits,
                &mut shift_compute,
            );
            if z + 1 < q {
                // Tag the exchange with the shift whose operands it
                // delivers (matching the skew, which delivers shift 0's).
                let _xchg_span =
                    tc_trace::span(tc_trace::names::SHIFT_XCHG, tc_trace::Category::Shift)
                        .arg("z", (z + 1) as u64);
                let u_blob = ublock.to_blob();
                let l_blob = lblock.to_blob();
                note_exchange_bytes(&u_blob, &l_blob);
                tc_metrics::counter_add(
                    mnames::SHIFT_BYTES_SERIALIZED,
                    (u_blob.len() + l_blob.len()) as u64,
                );
                let _staging = MemScope::track(
                    mnames::MEM_SHIFT_STAGING,
                    (u_blob.len() + l_blob.len()) as u64,
                );
                ublock = SparseBlock::from_blob(grid.shift_left(u_blob)?);
                lblock = SparseBlock::from_blob(grid.shift_up(l_blob)?);
            }
        }
    }

    tc_metrics::gauge_max(mnames::HASH_SLOTS, ks.map.table_size() as u64);
    tc_metrics::gauge_max(mnames::HASH_MAX_ROW, prep.max_hash_row as u64);
    tc_metrics::gauge_max(
        mnames::HASH_LOAD_PCT,
        (prep.max_hash_row * 100 / ks.map.table_size().max(1)) as u64,
    );

    let triangles = comm.allreduce_sum_u64(local)?;
    let per_edge = match hits {
        Some(h) => Some(resolve_per_edge(comm, &prep, cfg, h, q)?),
        None => None,
    };
    Ok(CountOutput {
        triangles,
        local_triangles: local,
        shift_compute,
        tasks,
        map_stats: ks.map.stats,
        kernel_stats: ks.stats,
        per_edge,
    })
}

/// Turns the raw per-hit records into full per-edge supports.
///
/// A hit on task `(a, b)` with closing vertex `k` is one triangle
/// `{i, j, k}` (degree-order `i < j < k`); it contributes support to
/// all **three** edges, but only the `(i, j)` edge is a local task —
/// the `(i, k)` and `(j, k)` credits belong to tasks on other ranks
/// and are delivered with one personalized all-to-all.
fn resolve_per_edge(
    comm: &Comm,
    prep: &PrepOutput,
    cfg: &TcConfig,
    hits: Vec<(u32, u32)>,
    q: usize,
) -> MpsResult<Vec<(u32, u32, u64)>> {
    let p = comm.size();
    // Entry metadata: global (a, b) per task entry index, built once
    // and reused by the crediting loops and the final output pass.
    let mut entry_ab = vec![[0u32; 2]; prep.task.num_entries()];
    for &lr in prep.task.nonempty_rows() {
        let a = lr * q as u32 + prep.x as u32;
        let base = prep.task.row_start(lr as usize);
        for (pos, &b) in prep.task.row(lr as usize).iter().enumerate() {
            entry_ab[base + pos] = [a, b];
        }
    }

    // Task key of an edge (min, max): hash-side vertex first.
    let task_key = |lo: u32, hi: u32| -> (u32, u32) {
        match cfg.enumeration {
            crate::config::Enumeration::Jik => (hi, lo),
            crate::config::Enumeration::Ijk => (lo, hi),
        }
    };
    // Destination rank of the credit for edge (lo, hi).
    let credit_dst = |lo: u32, hi: u32| -> usize {
        let (ka, kb) = task_key(lo, hi);
        (ka as usize % q) * q + kb as usize % q
    };

    // Counting pass so every destination buffer is allocated exactly
    // once at its final size (each hit credits two remote-owned edges).
    let mut credit_counts = vec![0usize; p];
    for &(idx, k) in &hits {
        let [av, bv] = entry_ab[idx as usize];
        let (i, j) = (av.min(bv), av.max(bv));
        credit_counts[credit_dst(i, k)] += 1;
        credit_counts[credit_dst(j, k)] += 1;
    }
    let mut credit_sends: Vec<Vec<[u32; 2]>> =
        credit_counts.into_iter().map(Vec::with_capacity).collect();

    let mut supports = vec![0u64; prep.task.num_entries()];
    for (idx, k) in hits {
        supports[idx as usize] += 1;
        let [av, bv] = entry_ab[idx as usize];
        let (i, j) = (av.min(bv), av.max(bv));
        // k closes the triangle and is the largest label (operand rows
        // hold upper neighbours only).
        debug_assert!(k > j);
        for (lo, hi) in [(i, k), (j, k)] {
            let (ka, kb) = task_key(lo, hi);
            credit_sends[(ka as usize % q) * q + kb as usize % q].push([ka, kb]);
        }
    }
    for msg in comm.alltoallv(&credit_sends)? {
        for [ka, kb] in msg {
            let idx =
                prep.task.find_entry(ka as usize / q, kb).ok_or_else(|| MpsError::Protocol {
                    rank: comm.rank(),
                    msg: format!("credited edge ({ka},{kb}) has no local task"),
                })?;
            supports[idx] += 1;
        }
    }

    let mut out = Vec::with_capacity(supports.len());
    for (idx, s) in supports.into_iter().enumerate() {
        let [a, b] = entry_ab[idx];
        out.push((a, b, s));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tc_mps::Universe;

    /// A credit for an edge the receiving rank has no task for is an
    /// application-protocol violation and must surface as a typed
    /// error, not a panic inside the runtime.
    #[test]
    fn malformed_credit_is_a_protocol_error() {
        let out = Universe::run(1, |comm| {
            // Task (a=2, b=0) hits on k=3 (hash row A(2) = {3}, probe
            // row A(0) = {3}), so the per-edge pass credits edges
            // (0,3) and (2,3) — whose task entries (3,0) and (3,2) do
            // not exist in this deliberately incomplete task block.
            let task = SparseBlock::from_pairs(4, 1, &mut vec![(2u32, 0u32)]);
            let ublob = SparseBlock::from_pairs(4, 1, &mut vec![(2u32, 3u32)]).to_blob();
            let lblob = SparseBlock::from_pairs(4, 1, &mut vec![(0u32, 3u32)]).to_blob();
            let prep = crate::preprocess::PrepOutput {
                q: 1,
                x: 0,
                y: 0,
                n: 4,
                task,
                ublob,
                lblob,
                max_hash_row: 1,
                ops: 0,
                label_pairs: Vec::new(),
            };
            cannon_count_per_edge(comm, prep, &TcConfig::default())
        });
        match &out[0] {
            Err(MpsError::Protocol { rank, msg }) => {
                assert_eq!(*rank, 0);
                assert!(msg.contains("no local task"), "unexpected message: {msg}");
            }
            other => panic!("expected a protocol error, got {other:?}"),
        }
    }
}
