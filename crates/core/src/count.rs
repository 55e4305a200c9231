//! The per-shift map-based intersection kernel (paper §5.1–5.2), with
//! selectable intersection strategies.
//!
//! On each of the `√p` shifts a rank holds three blocks: its immobile
//! task block, the current hash-side operand (rows `A(a) ∩ {k ≡ w}`),
//! and the current probe-side operand (rows `A(b) ∩ {k ≡ w}`). For
//! every task `(a, b)` the kernel hashes row `a` (once per task row —
//! the map-reuse of [21]) and probes with row `b`; every hit is a
//! triangle `{b, a, k}` (⟨j,i,k⟩) counted exactly once grid-wide.
//!
//! ## Strategy dispatch
//!
//! The probe itself runs under one of three plans
//! ([`crate::config::KernelStrategy`]): the paper's **hash** probe, a
//! vectorized sorted-**merge** ([`crate::intersect`]), or packed
//! **bitmap** rows ([`crate::bitmap`]):
//!
//! - every row is still loaded into the map first, so the
//!   insert/row-mode counters are strategy-invariant;
//! - merge and bitmap only replace *direct-mode* probes — those cost
//!   zero probe steps each, so replacing them moves no deterministic
//!   counter; probing-mode (collision) rows always take the hash path;
//! - every plan hands the map its lookups in bulk
//!   ([`crate::hashmap::IntersectMap::credit`]): under the reverse
//!   early break the paper's loop looks up exactly the probe entries
//!   `≥ min(hash row)` — an ascending-row suffix — and without it the
//!   whole probe row, so merge and bitmap can compute the count
//!   without touching the table, and the hash plan counts what it
//!   physically did.
//!
//! Net effect: triangle counts, per-edge supports, and every legacy
//! deterministic counter are bit-identical across all strategies
//! (asserted by the `kernel_equivalence` suite).
//!
//! `auto` is *measured*, not assumed: a direct-mode lookup is one
//! reciprocal multiply, one AND, one load and one compare against an
//! L1-resident table, with no data-dependent branch, and on every
//! dataset × grid of the EXPERIMENTS.md sweep neither merge nor bitmap
//! beats that on the rows they are allowed to serve — both first pay a
//! binary search for the candidate span per task, merge then walks the
//! hash row as well, and the bitmap pays a build and a clear per row
//! for a test that costs what the direct probe costs. So `auto`
//! resolves every row to the hash plan and no task pays a candidate
//! search it cannot win back; `merge` and `bitmap` remain as forced
//! strategies for the equivalence suite and the CI dispatch gate.
//!
//! ## No divide, no dependent store, no cold row
//!
//! The hot loop executes no hardware divide: the transformed indices
//! `k ÷ q` (hash slot, bit index) and `b ÷ q` (probe row of a task) go
//! through precomputed [`Reciprocal`]s. A row's lookups run through a
//! [`RowProbe`] held in registers with the tallies in locals, flushed
//! once per row, so consecutive lookups share no store-to-load chain.
//! And each task prefetches the probe row `PREFETCH_AHEAD` tasks
//! ahead — the first touch of a probe row is otherwise a cache miss
//! on an address nothing but the task's `b` predicts.

use crate::blocks::{BlockView, SparseBlock};
use crate::config::{KernelStrategy, TcConfig};
use crate::hashmap::RowProbe;
use crate::intersect::{intersect_count, intersect_visit, KernelState, KernelStats};
use crate::recip::Reciprocal;

/// Look-ahead of the probe-row prefetch, in tasks. A task's probe row
/// sits at an address only its `b` knows, so the first touch of every
/// row is a cache miss the out-of-order window cannot hide behind a
/// ~30-lookup task; requesting the line a few tasks early overlaps it
/// with useful probes. Chosen by the sweep in EXPERIMENTS.md.
const PREFETCH_AHEAD: usize = 4;

/// Hints the cache line the task loop will touch first in `row`: the
/// tail under the reverse early break, the head otherwise. A no-op off
/// x86_64 and under `force-scalar`.
#[inline(always)]
fn prefetch_row(row: &[u32], from_tail: bool) {
    #[cfg(all(target_arch = "x86_64", not(feature = "force-scalar")))]
    if let Some(k) = if from_tail { row.last() } else { row.first() } {
        #[allow(unsafe_code)]
        // SAFETY: PREFETCHT0 is an architectural hint — it never
        // faults and changes no program-visible state — and SSE is
        // part of the x86_64 baseline. The address is a live `&u32`.
        unsafe {
            use core::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            _mm_prefetch::<_MM_HINT_T0>(std::ptr::from_ref(k).cast());
        }
    }
    #[cfg(not(all(target_arch = "x86_64", not(feature = "force-scalar"))))]
    let _ = (row, from_tail);
}

/// How one task row is served this shift.
#[derive(Clone, Copy, PartialEq, Eq)]
enum RowPlan {
    /// The paper's hash probe for every task of the row.
    Hash,
    /// Vectorized merge for every task of the row.
    Merge,
    /// One packed bit row, probed by every task of the row.
    Bitmap,
}

/// Counts the triangles contributed by one shift.
///
/// The operands are [`BlockView`]s, so the kernel runs equally against
/// owned [`SparseBlock`]s and borrowed
/// [`crate::blocks::SparseBlockRef`] views of received blobs.
///
/// `tasks_counter` is incremented once per task that performs at least
/// one membership test this shift — the quantity Table 4 reports as
/// "tasks that result in the map-based set intersection operation"
/// (strategy-invariant: the fast paths count the tests they absorb).
pub fn count_shift<H: BlockView, P: BlockView>(
    task: &SparseBlock,
    hash_block: &H,
    probe_block: &P,
    ks: &mut KernelState,
    q: usize,
    cfg: &TcConfig,
    tasks_counter: &mut u64,
) -> u64 {
    count_shift_impl::<H, P, false>(
        task,
        hash_block,
        probe_block,
        ks,
        q,
        cfg,
        tasks_counter,
        |_, _| {},
    )
}

/// [`count_shift`] that additionally reports every individual
/// triangle: `record(entry_index, k)` fires once per hit, where
/// `entry_index` is the position of the task in the block's entry
/// array and `k` the triangle-closing vertex. Accumulated across
/// shifts this yields the per-edge triangle support that k-truss-style
/// analyses consume (one of the paper's §1 motivating applications).
#[allow(clippy::too_many_arguments)] // mirrors count_shift plus the sink
pub fn count_shift_recording<H: BlockView, P: BlockView>(
    task: &SparseBlock,
    hash_block: &H,
    probe_block: &P,
    ks: &mut KernelState,
    q: usize,
    cfg: &TcConfig,
    tasks_counter: &mut u64,
    record: impl FnMut(usize, u32),
) -> u64 {
    count_shift_impl::<H, P, true>(task, hash_block, probe_block, ks, q, cfg, tasks_counter, record)
}

/// The paper's loop for one task (§5.2): look up the probe entries
/// `≥ floor`, walking the ascending row from its tail and breaking at
/// the first entry below the bound. Returns `(lookups, hits)`; the
/// caller owns both tallies, so the loop carries no memory dependency
/// from one lookup to the next.
#[inline(always)]
fn probe_task<const DIRECT: bool, const RECORD: bool>(
    probe: RowProbe<'_>,
    prow: &[u32],
    floor: u32,
    steps: &mut u64,
    mut hit: impl FnMut(u32),
) -> (u64, u64) {
    let (mut done, mut found) = (0u64, 0u64);
    for &k in prow.iter().rev() {
        if k < floor {
            break;
        }
        done += 1;
        let h = if DIRECT { probe.hit_direct(k) } else { probe.hit_probing(k, steps) };
        if RECORD && h {
            hit(k);
        }
        found += u64::from(h);
    }
    (done, found)
}

#[allow(clippy::too_many_arguments)]
fn count_shift_impl<H: BlockView, P: BlockView, const RECORD: bool>(
    task: &SparseBlock,
    hash_block: &H,
    probe_block: &P,
    ks: &mut KernelState,
    q: usize,
    cfg: &TcConfig,
    tasks_counter: &mut u64,
    mut record: impl FnMut(usize, u32),
) -> u64 {
    // Operand buffers are swapped between shifts; a fresh shift must
    // never replay a row cached at a recycled address.
    ks.map.invalidate_row_cache();
    let stride = ks.map.stride();
    // Task columns address probe rows by `b ÷ q`. Built once per shift
    // (the only divide in this function): under SUMMA `q` is the grid
    // width while the map hashes raw ids, so it is not the map's stride.
    let row_of = Reciprocal::new(u32::try_from(q).expect("grid side fits in u32"));
    let task_entries = task.entries();
    let early = cfg.reverse_early_break;
    let mut found = 0u64;

    let mut run_row = |la: usize| {
        let trow = task.row(la);
        if trow.is_empty() {
            return;
        }
        let hrow = hash_block.row(la);
        ks.map.load_row(hrow, cfg.direct_hash);
        let direct = ks.map.is_direct();
        // Entries of the hash row are ascending; anything below the
        // smallest can never hit (the §5.2 early-break bound). An
        // empty hash row degenerates to "break immediately"; with the
        // optimization off nothing is below the bound.
        let floor = if early { hrow.first().copied().unwrap_or(u32::MAX) } else { 0 };
        let row_base = task.row_start(la);

        // Row plan: `auto` is the hash plan (see the module doc). The
        // forced fast strategies require the collision-free direct
        // mode (their counter-exactness guarantee); probing rows and
        // empty rows stay on the hash path under every setting.
        let plan = if hrow.is_empty() || !direct {
            RowPlan::Hash
        } else {
            match cfg.kernel {
                KernelStrategy::Auto | KernelStrategy::Hash => RowPlan::Hash,
                KernelStrategy::Merge => RowPlan::Merge,
                KernelStrategy::Bitmap => RowPlan::Bitmap,
            }
        };
        // The row's tallies stay in locals for the whole task loop and
        // are flushed to the shared counters once, below.
        let mut tally = KernelStats::default();
        let (mut row_found, mut steps) = (0u64, 0u64);
        if plan == RowPlan::Bitmap {
            ks.bitmap.build(hrow, stride);
            tally.bitmap_rows = 1;
        }
        let probe = ks.map.probe();

        for (pos, &b) in trow.iter().enumerate() {
            if let Some(&ahead) = task_entries.get(row_base + pos + PREFETCH_AHEAD) {
                prefetch_row(probe_block.row(row_of.quotient(ahead) as usize), early);
            }
            let prow = probe_block.row(row_of.quotient(b) as usize);

            // The candidate span of the fast plans: the probe entries
            // the paper's loop would look up, i.e. the ascending
            // suffix ≥ floor. (The hash plan finds it by breaking.)
            let candidates = || &prow[prow.partition_point(|&k| k < floor)..];

            match plan {
                RowPlan::Hash => {
                    // Physical lookups against the loaded map.
                    let hit = |k| record(row_base + pos, k);
                    let (done, hits) = if direct {
                        probe_task::<true, RECORD>(probe, prow, floor, &mut steps, hit)
                    } else {
                        probe_task::<false, RECORD>(probe, prow, floor, &mut steps, hit)
                    };
                    tally.hash_tasks += u64::from(done > 0);
                    tally.hash_lookups += done;
                    row_found += hits;
                }
                RowPlan::Merge => {
                    let cand = candidates();
                    if cand.is_empty() {
                        continue;
                    }
                    tally.merge_tasks += 1;
                    tally.merge_lookups += cand.len() as u64;
                    row_found += if RECORD {
                        intersect_visit(hrow, cand, |k| record(row_base + pos, k))
                    } else {
                        intersect_count(hrow, cand)
                    };
                }
                RowPlan::Bitmap => {
                    let cand = candidates();
                    if cand.is_empty() {
                        continue;
                    }
                    tally.bitmap_tasks += 1;
                    tally.bitmap_lookups += cand.len() as u64;
                    for &k in cand {
                        let h = ks.bitmap.contains(k, stride);
                        if RECORD && h {
                            record(row_base + pos, k);
                        }
                        row_found += u64::from(h);
                    }
                }
            }
        }

        if plan == RowPlan::Bitmap {
            ks.bitmap.clear(hrow, stride);
        }
        // Every strategy hands the map the lookups the legacy loop
        // would have counted (merge and bitmap absorb theirs at zero
        // probe steps), so the deterministic counters cannot tell the
        // strategies apart.
        ks.map.credit(tally.hash_lookups + tally.merge_lookups + tally.bitmap_lookups, steps);
        *tasks_counter += tally.hash_tasks + tally.merge_tasks + tally.bitmap_tasks;
        ks.stats.merge_from(&tally);
        found += row_found;
    };

    if cfg.doubly_sparse {
        for &la in task.nonempty_rows() {
            run_row(la as usize);
        }
    } else {
        for la in 0..task.num_rows() {
            run_row(la);
        }
    }
    found
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TcConfig;

    /// Builds a single-rank (q = 1) scenario: every class is class 0,
    /// local row id == vertex id.
    fn single_rank_blocks() -> (SparseBlock, SparseBlock, SparseBlock) {
        // Graph: triangle 0-1-2 plus edge 2-3. Upper adjacency:
        // A(0) = {1, 2}, A(1) = {2}, A(2) = {3}.
        let a_entries = vec![(0u32, 1u32), (0, 2), (1, 2), (2, 3)];
        let n = 4;
        let mut u_pairs = a_entries.clone();
        let ublock = SparseBlock::from_pairs(n, 1, &mut u_pairs);
        let mut l_pairs = a_entries.clone();
        let lblock = SparseBlock::from_pairs(n, 1, &mut l_pairs);
        // ⟨j,i,k⟩ tasks: one per edge, (a, b) = (larger, smaller).
        let mut t_pairs = vec![(1u32, 0u32), (2, 0), (2, 1), (3, 2)];
        let task = SparseBlock::from_pairs(n, 1, &mut t_pairs);
        (task, ublock, lblock)
    }

    fn all_strategies() -> [KernelStrategy; 4] {
        [KernelStrategy::Auto, KernelStrategy::Hash, KernelStrategy::Merge, KernelStrategy::Bitmap]
    }

    #[test]
    fn counts_triangle_single_rank() {
        let (task, ub, lb) = single_rank_blocks();
        for base in [TcConfig::default(), TcConfig::unoptimized()] {
            for strategy in all_strategies() {
                let cfg = base.with_kernel(strategy);
                let mut ks = KernelState::new(ub.max_row_len(), 1);
                let mut tasks = 0u64;
                let c = count_shift(&task, &ub, &lb, &mut ks, 1, &cfg, &mut tasks);
                assert_eq!(c, 1, "{cfg:?}");
                assert!(tasks >= 1);
            }
        }
    }

    #[test]
    fn optimized_performs_fewer_lookups() {
        let (task, ub, lb) = single_rank_blocks();
        let run = |cfg: &TcConfig| {
            let mut ks = KernelState::new(ub.max_row_len(), 1);
            let mut tasks = 0u64;
            let c = count_shift(&task, &ub, &lb, &mut ks, 1, cfg, &mut tasks);
            (c, ks.map.stats.lookups)
        };
        let (c_opt, l_opt) = run(&TcConfig::default());
        let (c_raw, l_raw) = run(&TcConfig::unoptimized());
        assert_eq!(c_opt, c_raw);
        assert!(l_opt <= l_raw, "optimized {l_opt} > raw {l_raw}");
    }

    #[test]
    fn empty_blocks_count_zero() {
        let task = SparseBlock::empty(3);
        let ub = SparseBlock::empty(3);
        let lb = SparseBlock::empty(3);
        let mut ks = KernelState::new(0, 1);
        let mut tasks = 0;
        let c = count_shift(&task, &ub, &lb, &mut ks, 1, &TcConfig::default(), &mut tasks);
        assert_eq!(c, 0);
        assert_eq!(tasks, 0);
    }

    #[test]
    fn early_break_skips_empty_hash_rows() {
        // Task row exists but its hash row is empty: with the early
        // break no lookups happen; without it every probe entry is
        // looked up (and misses). Empty hash rows are served by the
        // hash plan under every strategy, so the pinned counts hold
        // across all of them.
        let mut t_pairs = vec![(0u32, 1u32)];
        let task = SparseBlock::from_pairs(2, 1, &mut t_pairs);
        let ub = SparseBlock::empty(2);
        let mut l_pairs = vec![(1u32, 5u32), (1, 6)];
        let lb = SparseBlock::from_pairs(2, 1, &mut l_pairs);

        for strategy in all_strategies() {
            let mut ks = KernelState::new(4, 1);
            let mut tasks = 0;
            let cfg = TcConfig::default().with_kernel(strategy);
            let c = count_shift(&task, &ub, &lb, &mut ks, 1, &cfg, &mut tasks);
            assert_eq!((c, tasks, ks.map.stats.lookups), (0, 0, 0), "{strategy:?}");

            let mut ks = KernelState::new(4, 1);
            let mut tasks = 0;
            let cfg = cfg.with_reverse_early_break(false);
            let c = count_shift(&task, &ub, &lb, &mut ks, 1, &cfg, &mut tasks);
            assert_eq!(c, 0, "{strategy:?}");
            assert_eq!(tasks, 1, "{strategy:?}");
            assert_eq!(ks.map.stats.lookups, 2, "{strategy:?}");
        }
    }

    #[test]
    fn strategies_agree_on_counts_and_deterministic_counters() {
        let (task, ub, lb) = single_rank_blocks();
        let run = |strategy: KernelStrategy, early: bool| {
            let cfg = TcConfig::default().with_kernel(strategy).with_reverse_early_break(early);
            let mut ks = KernelState::new(ub.max_row_len(), 1);
            let mut tasks = 0u64;
            let c = count_shift(&task, &ub, &lb, &mut ks, 1, &cfg, &mut tasks);
            (c, tasks, ks.map.stats, ks.stats)
        };
        for early in [true, false] {
            let (c0, t0, m0, _) = run(KernelStrategy::Hash, early);
            for strategy in all_strategies() {
                let (c, t, m, k) = run(strategy, early);
                assert_eq!(c, c0, "{strategy:?} early={early}");
                assert_eq!(t, t0, "{strategy:?} early={early}");
                assert_eq!(m, m0, "{strategy:?} early={early}: MapStats drifted");
                // The strategy lookup tallies partition the legacy counter.
                assert_eq!(
                    k.hash_lookups + k.merge_lookups + k.bitmap_lookups,
                    m.lookups,
                    "{strategy:?} early={early}"
                );
                assert_eq!(
                    k.hash_tasks + k.merge_tasks + k.bitmap_tasks,
                    t,
                    "{strategy:?} early={early}"
                );
            }
        }
    }

    #[test]
    fn forced_bitmap_materializes_rows_and_matches() {
        // A hub row (vertex 0 adjacent to everything) so the bitmap
        // path really engages even at small scale when forced.
        let n = 40u32;
        let mut u_pairs: Vec<(u32, u32)> = (1..n).map(|v| (0, v)).collect();
        u_pairs.extend((1..n - 1).map(|v| (v, v + 1)));
        let mut l_pairs = u_pairs.clone();
        let mut t_pairs: Vec<(u32, u32)> = u_pairs.iter().map(|&(u, v)| (v, u)).collect();
        let ub = SparseBlock::from_pairs(n as usize, 1, &mut u_pairs);
        let lb = SparseBlock::from_pairs(n as usize, 1, &mut l_pairs);
        let task = SparseBlock::from_pairs(n as usize, 1, &mut t_pairs);

        let run = |strategy: KernelStrategy| {
            let cfg = TcConfig::default().with_kernel(strategy);
            let mut ks = KernelState::new(ub.max_row_len(), 1);
            let mut tasks = 0u64;
            let c = count_shift(&task, &ub, &lb, &mut ks, 1, &cfg, &mut tasks);
            (c, tasks, ks.map.stats, ks.stats)
        };
        let (c_hash, t_hash, m_hash, k_hash) = run(KernelStrategy::Hash);
        let (c_bit, t_bit, m_bit, k_bit) = run(KernelStrategy::Bitmap);
        assert_eq!(c_bit, c_hash);
        assert_eq!(t_bit, t_hash);
        assert_eq!(m_bit, m_hash, "bitmap must not move the deterministic map stats");
        assert!(k_bit.bitmap_rows > 0, "forced bitmap must materialize rows");
        assert!(k_bit.bitmap_tasks > 0);
        assert!(
            k_bit.hash_lookups < k_hash.hash_lookups,
            "bitmap must absorb physical hash lookups: {} vs {}",
            k_bit.hash_lookups,
            k_hash.hash_lookups
        );
        assert_eq!(k_hash.bitmap_rows + k_hash.merge_tasks + k_hash.bitmap_tasks, 0);
    }
}
