//! The per-shift map-based intersection kernel (paper §5.1–5.2).
//!
//! On each of the `√p` shifts a rank holds three blocks: its immobile
//! task block, the current hash-side operand (rows `A(a) ∩ {k ≡ w}`),
//! and the current probe-side operand (rows `A(b) ∩ {k ≡ w}`). For
//! every task `(a, b)` the kernel hashes row `a` (once per task row —
//! the map-reuse of [21]) and probes with row `b`; every hit is a
//! triangle `{b, a, k}` (⟨j,i,k⟩) counted exactly once grid-wide.
//!
//! ## Two kernels, chosen per row by the collision
//!
//! Every hash row is first offered to the paper's direct map
//! ([`KernelState::load_row`]). What happens when that attempt
//! collides is the only difference between the two
//! [`crate::config::KernelStrategy`]s: **hash** re-inserts the row
//! with linear probing (the paper's routine, every §5.2 toggle, the
//! `tct.probes` of Tables 2–4); **auto** builds it into a packed bit
//! row ([`crate::bitmap`]) — the direct mode with the mask removed, so
//! it cannot collide — and tests it eight probe keys at a time. Rows
//! that load direct run the same loop under both.
//!
//! Either way a task looks up exactly the probe entries the paper's
//! loop would — under the reverse early break the ascending-row suffix
//! `≥ min(hash row)`, without it the whole probe row — and bit rows
//! credit the map with theirs ([`crate::hashmap::IntersectMap::credit`]).
//! So triangle counts, per-edge supports, `tasks`, `lookups`,
//! `inserts`, `direct_rows` and `probed_rows` are bit-identical across
//! the two (asserted by the `kernel_equivalence` suite); `auto` moves
//! only `tct.probes` — down, to zero unless a row is too wide for the
//! bit arena — and the `tct.kernel.*` tallies.
//!
//! ## No divide, no dependent store, no cold row
//!
//! The hot loop executes no hardware divide: the transformed indices
//! `k ÷ q` (hash slot, bit index) and `b ÷ q` (probe row of a task) go
//! through precomputed reciprocals ([`crate::recip`]). A row's lookups
//! run through a [`RowProbe`] or [`crate::bitmap::BitProbe`] held in
//! registers with the tallies in locals, flushed once per row, so
//! consecutive lookups share no store-to-load chain. And each task
//! prefetches the probe row `PREFETCH_AHEAD` tasks ahead — the first
//! touch of a probe row is otherwise a cache miss on an address
//! nothing but the task's `b` predicts.

use crate::blocks::{BlockView, SparseBlock};
use crate::config::TcConfig;
use crate::hashmap::RowProbe;
use crate::intersect::{KernelState, RowMode};
use crate::recip::Reciprocal;

/// Look-ahead of the probe-row prefetch, in tasks. A task's probe row
/// sits at an address only its `b` knows, so the first touch of every
/// row is a cache miss the out-of-order window cannot hide behind a
/// ~30-lookup task; requesting the line a few tasks early overlaps it
/// with useful probes. Chosen by the sweep in EXPERIMENTS.md.
const PREFETCH_AHEAD: usize = 4;

/// `u32` keys per 64-byte cache line.
#[cfg(all(target_arch = "x86_64", not(feature = "force-scalar")))]
const KEYS_PER_LINE: usize = 16;

/// Hints the two cache lines the task loop will touch first in `row`:
/// the tail line and the one before it under the reverse early break,
/// the first two otherwise — a task looks up ≈ 29 keys, about two
/// lines. A no-op off x86_64 and under `force-scalar`.
#[inline(always)]
fn prefetch_row(row: &[u32], from_tail: bool) {
    #[cfg(all(target_arch = "x86_64", not(feature = "force-scalar")))]
    if let Some(last) = row.len().checked_sub(1) {
        let (first, second) = if from_tail {
            (last, last.saturating_sub(KEYS_PER_LINE))
        } else {
            (0, KEYS_PER_LINE.min(last))
        };
        for at in [first, second] {
            #[allow(unsafe_code)]
            // SAFETY: PREFETCHT0 is an architectural hint — it never
            // faults and changes no program-visible state — and SSE is
            // part of the x86_64 baseline. The address is a live `&u32`.
            unsafe {
                use core::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
                _mm_prefetch::<_MM_HINT_T0>(std::ptr::from_ref(&row[at]).cast());
            }
        }
    }
    #[cfg(not(all(target_arch = "x86_64", not(feature = "force-scalar"))))]
    let _ = (row, from_tail);
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
/// (the same under both kernels: a bit row counts the tests it answers).
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
    if cfg.uses_bit_rows() {
        // One bit per local column of the hash operand covers every
        // row it can present on a square grid (class sizes differ by at
        // most one), so bit rows never grow the arena mid-shift; a
        // no-op once sized.
        ks.bits.reserve(hash_block.num_rows() + 1);
    }
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
        let mode = ks.load_row(hrow, cfg);
        // Entries of the hash row are ascending; anything below the
        // smallest can never hit (the §5.2 early-break bound). With
        // the optimization off nothing is below the bound.
        let floor = match hrow.first() {
            Some(&smallest) if early => smallest,
            // An empty hash row breaks every task at once — no vertex
            // id reaches a floor of `u32::MAX` — so the (counted) load
            // is all there is to do.
            None if early => return,
            _ => 0,
        };
        let row_base = task.row_start(la);
        let (map, bits) = (ks.map.probe(), ks.bits.probe());

        // The row's tallies stay in locals for the whole task loop and
        // are flushed to the shared counters once, below.
        let (mut row_tasks, mut row_lookups, mut row_found, mut steps) = (0u64, 0u64, 0u64, 0u64);
        for (pos, &b) in trow.iter().enumerate() {
            if let Some(&ahead) = task_entries.get(row_base + pos + PREFETCH_AHEAD) {
                prefetch_row(probe_block.row(row_of.quotient(ahead) as usize), early);
            }
            let prow = probe_block.row(row_of.quotient(b) as usize);
            let hit = |k| record(row_base + pos, k);
            let (done, hits) = match mode {
                RowMode::Direct => probe_task::<true, RECORD>(map, prow, floor, &mut steps, hit),
                RowMode::Probing => probe_task::<false, RECORD>(map, prow, floor, &mut steps, hit),
                RowMode::Bits => bits.count::<RECORD>(prow, floor, hit),
            };
            row_tasks += u64::from(done > 0);
            row_lookups += done;
            row_found += hits;
        }

        // Bit rows hand the map the lookups the paper's loop would have
        // counted (at zero probe steps), so `lookups` cannot tell the
        // kernels apart.
        ks.map.credit(row_lookups, steps);
        *tasks_counter += row_tasks;
        if mode == RowMode::Bits {
            ks.bits.clear(hrow);
            ks.stats.bitmap_tasks += row_tasks;
            ks.stats.bitmap_lookups += row_lookups;
        } else {
            ks.stats.hash_tasks += row_tasks;
            ks.stats.hash_lookups += row_lookups;
        }
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
    use crate::bitmap::MAX_SPAN_BITS;
    use crate::config::{KernelStrategy, TcConfig};
    use crate::hashmap::MapStats;
    use crate::intersect::KernelStats;

    /// A single-rank (q = 1) scenario from an upper-triangular edge
    /// list: every class is class 0, local row id == vertex id, one
    /// ⟨j,i,k⟩ task `(larger, smaller)` per edge, and the upper
    /// adjacency as both operands.
    fn blocks_of(n: usize, edges: &[(u32, u32)]) -> (SparseBlock, SparseBlock, SparseBlock) {
        let mut u_pairs = edges.to_vec();
        let mut l_pairs = edges.to_vec();
        let mut t_pairs: Vec<(u32, u32)> = edges.iter().map(|&(u, v)| (v, u)).collect();
        (
            SparseBlock::from_pairs(n, 1, &mut t_pairs),
            SparseBlock::from_pairs(n, 1, &mut u_pairs),
            SparseBlock::from_pairs(n, 1, &mut l_pairs),
        )
    }

    /// Triangle 0-1-2 plus edge 2-3: A(0) = {1, 2}, A(1) = {2},
    /// A(2) = {3}.
    fn single_rank_blocks() -> (SparseBlock, SparseBlock, SparseBlock) {
        blocks_of(4, &[(0, 1), (0, 2), (1, 2), (2, 3)])
    }

    const KERNELS: [KernelStrategy; 2] = [KernelStrategy::Auto, KernelStrategy::Hash];

    /// One shift at q = 1: (triangles, tasks, map stats, kernel tallies).
    fn run(
        (task, ub, lb): &(SparseBlock, SparseBlock, SparseBlock),
        cfg: &TcConfig,
    ) -> (u64, u64, MapStats, KernelStats) {
        let mut ks = KernelState::new(ub.max_row_len(), 1);
        let mut tasks = 0u64;
        let c = count_shift(task, ub, lb, &mut ks, 1, cfg, &mut tasks);
        (c, tasks, ks.map.stats, ks.stats)
    }

    #[test]
    fn counts_triangle_single_rank() {
        let blocks = single_rank_blocks();
        for base in [TcConfig::default(), TcConfig::unoptimized()] {
            for kernel in KERNELS {
                let cfg = base.with_kernel(kernel);
                let (c, tasks, ..) = run(&blocks, &cfg);
                assert_eq!(c, 1, "{cfg:?}");
                assert!(tasks >= 1);
            }
        }
    }

    #[test]
    fn optimized_performs_fewer_lookups() {
        let blocks = single_rank_blocks();
        let (c_opt, _, m_opt, _) = run(&blocks, &TcConfig::default());
        let (c_raw, _, m_raw, _) = run(&blocks, &TcConfig::unoptimized());
        assert_eq!(c_opt, c_raw);
        assert!(m_opt.lookups <= m_raw.lookups, "optimized {m_opt:?} > raw {m_raw:?}");
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
        // break the row returns before its task loop — no lookups, no
        // tasks, but the (empty) load is still counted as a direct
        // row; without it every probe entry is looked up (and misses).
        let mut t_pairs = vec![(0u32, 1u32)];
        let task = SparseBlock::from_pairs(2, 1, &mut t_pairs);
        let ub = SparseBlock::empty(2);
        let mut l_pairs = vec![(1u32, 5u32), (1, 6)];
        let lb = SparseBlock::from_pairs(2, 1, &mut l_pairs);
        let blocks = (task, ub, lb);

        for kernel in KERNELS {
            let cfg = TcConfig::default().with_kernel(kernel);
            let (c, tasks, m, k) = run(&blocks, &cfg);
            assert_eq!((c, tasks, m.lookups, m.direct_rows), (0, 0, 0, 1), "{kernel:?}");
            assert_eq!(k, KernelStats::default(), "{kernel:?}");

            let (c, tasks, m, _) = run(&blocks, &cfg.with_reverse_early_break(false));
            assert_eq!((c, tasks, m.lookups, m.direct_rows), (0, 1, 2, 1), "{kernel:?}");

            // With direct hashing off too the empty load is a probed row.
            let (c, tasks, m, _) = run(&blocks, &cfg.with_direct_hash(false));
            assert_eq!((c, tasks, m.lookups, m.probed_rows), (0, 0, 0, 1), "{kernel:?}");
        }
    }

    #[test]
    fn strategies_agree_on_counts_and_deterministic_counters() {
        let blocks = single_rank_blocks();
        for early in [true, false] {
            let of = |k| TcConfig::default().with_kernel(k).with_reverse_early_break(early);
            let (c0, t0, m0, _) = run(&blocks, &of(KernelStrategy::Hash));
            for kernel in KERNELS {
                let (c, t, m, k) = run(&blocks, &of(kernel));
                assert_eq!(c, c0, "{kernel:?} early={early}");
                assert_eq!(t, t0, "{kernel:?} early={early}");
                // No row of this graph collides: nothing at all moves.
                assert_eq!(m, m0, "{kernel:?} early={early}: MapStats drifted");
                // The lookup tallies partition the legacy counter.
                assert_eq!(k.hash_lookups + k.bitmap_lookups, m.lookups, "{kernel:?}");
                assert_eq!(k.hash_tasks + k.bitmap_tasks, t, "{kernel:?} early={early}");
            }
        }
    }

    /// A hub (vertex 0 adjacent to everything) over a path: the hub's
    /// row is longer than half the smallest table, so it must collide.
    fn hub_blocks(n: u32) -> (SparseBlock, SparseBlock, SparseBlock) {
        let mut edges: Vec<(u32, u32)> = (1..n).map(|v| (0, v)).collect();
        edges.extend((1..n - 1).map(|v| (v, v + 1)));
        blocks_of(n as usize, &edges)
    }

    #[test]
    fn collided_rows_become_bit_rows_and_match() {
        // Every vertex is adjacent to the later vertices 16, 32, …
        // away, and the table has 16 slots: every hash row with two or
        // more keys collides in the direct map.
        let n = 80u32;
        let edges: Vec<(u32, u32)> =
            (0..n).flat_map(|u| (u + 16..n).step_by(16).map(move |v| (u, v))).collect();
        let blocks = blocks_of(n as usize, &edges);
        let run_small = |kernel: KernelStrategy, early: bool| {
            let cfg = TcConfig::default().with_kernel(kernel).with_reverse_early_break(early);
            let mut ks = KernelState::new(3, 1);
            assert_eq!(ks.map.table_size(), 16);
            let mut tasks = 0u64;
            let c = count_shift(&blocks.0, &blocks.1, &blocks.2, &mut ks, 1, &cfg, &mut tasks);
            (c, tasks, ks.map.stats, ks.stats)
        };
        for early in [true, false] {
            let (c_hash, t_hash, m_hash, k_hash) = run_small(KernelStrategy::Hash, early);
            let (c_bit, t_bit, m_bit, k_bit) = run_small(KernelStrategy::Auto, early);
            assert_eq!(c_bit, c_hash);
            assert_eq!(t_bit, t_hash);
            assert!(m_hash.probed_rows > 0, "the scenario must collide");
            assert_eq!(
                m_bit,
                MapStats { probe_steps: 0, ..m_hash },
                "auto may move probe steps only, and bit rows take none"
            );
            assert_eq!(k_bit.bitmap_rows, m_hash.probed_rows, "every collided row is a bit row");
            assert!(k_bit.bitmap_tasks > 0 && k_bit.bitmap_lookups > 0);
            assert_eq!(k_bit.hash_lookups + k_bit.bitmap_lookups, k_hash.hash_lookups);
            assert_eq!(k_bit.hash_tasks + k_bit.bitmap_tasks, k_hash.hash_tasks);
            assert_eq!(k_hash.bitmap_rows + k_hash.bitmap_tasks + k_hash.bitmap_lookups, 0);
        }
    }

    #[test]
    fn hub_rows_count_exactly_under_both_kernels() {
        for n in [9u32, 40, 300] {
            let blocks = hub_blocks(n);
            // Every path edge (v, v+1) closes a triangle with the hub.
            let want = u64::from(n - 2);
            for kernel in KERNELS {
                for early in [true, false] {
                    let cfg =
                        TcConfig::default().with_kernel(kernel).with_reverse_early_break(early);
                    assert_eq!(run(&blocks, &cfg).0, want, "n={n} {kernel:?} early={early}");
                }
            }
        }
    }

    #[test]
    fn row_wider_than_the_span_bound_probes_and_counts_exactly() {
        // Hash row 0 collides in the direct map (16, 32 and 48 share a
        // slot of the 16-slot table) and spans more local columns than
        // a bit row may: `auto` must complete the paper's probing load
        // for it and still find both hits. Block rows are local ids,
        // columns global ones, so 64 rows carry the far key.
        let far = MAX_SPAN_BITS + 64;
        let mut t_pairs = vec![(0u32, 16u32), (0, 48)];
        let task = SparseBlock::from_pairs(64, 1, &mut t_pairs);
        let mut u_pairs = vec![(0u32, 16u32), (0, 32), (0, 48), (0, far)];
        let ub = SparseBlock::from_pairs(64, 1, &mut u_pairs);
        // Probe rows 16 and 48: one hit and one miss each.
        let mut l_pairs = vec![(16u32, 32u32), (16, 33), (48, far - 1), (48, far)];
        let lb = SparseBlock::from_pairs(64, 1, &mut l_pairs);
        let blocks = (task, ub, lb);

        let hash = run(&blocks, &TcConfig::default().with_kernel(KernelStrategy::Hash));
        let auto = run(&blocks, &TcConfig::default());
        assert_eq!(hash.0, 2);
        assert_eq!(hash.2.probed_rows, 1, "row 0 must collide");
        // Too wide for a bit row: auto is the hash kernel, probe for probe.
        assert_eq!(auto, hash);
        assert_eq!(auto.3.bitmap_rows, 0);
    }
}
