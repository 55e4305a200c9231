//! Sorted-set intersection kernels and the per-shift kernel state.
//!
//! The per-task set intersection at the heart of the count (`A(a) ∩
//! A(b)`, paper §5.1) admits three strategies:
//!
//! - **hash** — the paper's map probe ([`crate::hashmap::IntersectMap`]),
//!   the only strategy that works when a row loaded in probing mode;
//! - **merge** — a vectorized sorted-merge over the two ascending rows
//!   ([`intersect_count`]): SSE2 on `x86_64` (baseline, no target
//!   feature required), with a mandatory scalar fallback that is always
//!   compiled and takes over on other architectures or under the
//!   `force-scalar` feature;
//! - **bitmap** — packed `u64` bit rows for hub vertices
//!   ([`crate::bitmap::BitRow`]), built once per row load and probed by
//!   every task of the row.
//!
//! [`KernelState`] bundles the reusable state all three share across
//! the shifts of one rank, plus the [`KernelStats`] selection counters
//! behind the `tct.kernel.*` metrics.

use crate::bitmap::BitRow;
use crate::hashmap::IntersectMap;

/// Per-rank tallies of the adaptive kernel dispatch: how many tasks
/// each strategy served and how many membership tests it absorbed.
///
/// The strategy lookup tallies partition the legacy lookup counter
/// exactly: `hash_lookups + merge_lookups + bitmap_lookups ==
/// MapStats::lookups`, because the merge and bitmap paths credit the
/// map with the lookups the hash loop would have performed (the legacy
/// deterministic counters must not move when the strategy changes).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct KernelStats {
    /// Tasks served by the hash-probe strategy.
    pub hash_tasks: u64,
    /// Tasks served by the sorted-merge strategy.
    pub merge_tasks: u64,
    /// Tasks served by the bitmap strategy.
    pub bitmap_tasks: u64,
    /// Hash rows materialized into packed bit rows.
    pub bitmap_rows: u64,
    /// Membership tests physically performed by the hash probe.
    pub hash_lookups: u64,
    /// Membership tests absorbed by the merge strategy.
    pub merge_lookups: u64,
    /// Membership tests absorbed by the bitmap strategy.
    pub bitmap_lookups: u64,
}

impl KernelStats {
    /// Accumulates another tally (for cross-shift aggregation).
    pub fn merge_from(&mut self, o: &KernelStats) {
        self.hash_tasks += o.hash_tasks;
        self.merge_tasks += o.merge_tasks;
        self.bitmap_tasks += o.bitmap_tasks;
        self.bitmap_rows += o.bitmap_rows;
        self.hash_lookups += o.hash_lookups;
        self.merge_lookups += o.merge_lookups;
        self.bitmap_lookups += o.bitmap_lookups;
    }
}

/// The reusable intersection state of one rank: the hash map, the
/// bitmap arena, and the dispatch tallies. Created once before the
/// shift loop; both containers are grow-only, so steady-state shifts
/// allocate nothing.
#[derive(Debug)]
pub struct KernelState {
    /// The paper's map (always loaded — its row-mode statistics drive
    /// the dispatch and must stay exact across strategies).
    pub map: IntersectMap,
    /// Packed bit-row arena for hub rows.
    pub bitmap: BitRow,
    /// Dispatch tallies.
    pub stats: KernelStats,
}

impl KernelState {
    /// Sized like [`IntersectMap::new`]: `max_row_len` is the longest
    /// hash-side row, `q` the hash transform divisor (grid side).
    pub fn new(max_row_len: usize, q: usize) -> Self {
        Self {
            map: IntersectMap::new(max_row_len, q),
            bitmap: BitRow::new(),
            stats: KernelStats::default(),
        }
    }
}

/// Scalar two-pointer intersection count over two ascending,
/// duplicate-free slices. Always compiled — this is the mandatory
/// fallback the SIMD path tails into and non-x86 targets run outright.
pub fn intersect_count_scalar(a: &[u32], b: &[u32]) -> u64 {
    let (mut i, mut j, mut n) = (0usize, 0usize, 0u64);
    while i < a.len() && j < b.len() {
        let (x, y) = (a[i], b[j]);
        n += (x == y) as u64;
        i += (x <= y) as usize;
        j += (y <= x) as usize;
    }
    n
}

/// Intersection that *visits* every common element (ascending), for
/// the per-edge recording path. Returns the hit count.
pub fn intersect_visit(a: &[u32], b: &[u32], mut hit: impl FnMut(u32)) -> u64 {
    let (mut i, mut j, mut n) = (0usize, 0usize, 0u64);
    while i < a.len() && j < b.len() {
        let (x, y) = (a[i], b[j]);
        if x == y {
            hit(x);
            n += 1;
        }
        i += (x <= y) as usize;
        j += (y <= x) as usize;
    }
    n
}

/// SSE2 block intersection: compare a 4-lane block of `a` against all
/// four rotations of a 4-lane block of `b` (every pair compared once),
/// popcount the combined mask, and advance whichever block's maximum
/// is smaller. SSE2 is part of the `x86_64` baseline, so this compiles
/// and runs with no `target-feature` flags.
#[cfg(all(target_arch = "x86_64", not(feature = "force-scalar")))]
fn intersect_count_sse2(a: &[u32], b: &[u32]) -> u64 {
    #[allow(unsafe_code)]
    // SAFETY: SSE2 is unconditionally available on x86_64; all loads
    // are unaligned (`loadu`) and stay in-bounds because `i + 4 <=
    // a.len()` and `j + 4 <= b.len()` hold throughout the loop.
    unsafe {
        use core::arch::x86_64::*;
        let (mut i, mut j, mut n) = (0usize, 0usize, 0u64);
        let (a4, b4) = (a.len() & !3, b.len() & !3);
        while i < a4 && j < b4 {
            let va = _mm_loadu_si128(a.as_ptr().add(i).cast());
            let vb = _mm_loadu_si128(b.as_ptr().add(j).cast());
            let m0 = _mm_cmpeq_epi32(va, vb);
            let m1 = _mm_cmpeq_epi32(va, _mm_shuffle_epi32(vb, 0b00_11_10_01));
            let m2 = _mm_cmpeq_epi32(va, _mm_shuffle_epi32(vb, 0b01_00_11_10));
            let m3 = _mm_cmpeq_epi32(va, _mm_shuffle_epi32(vb, 0b10_01_00_11));
            let m = _mm_or_si128(_mm_or_si128(m0, m1), _mm_or_si128(m2, m3));
            n += (_mm_movemask_ps(_mm_castsi128_ps(m)) as u32).count_ones() as u64;
            let (amax, bmax) = (a[i + 3], b[j + 3]);
            // Elements beyond the smaller max cannot match the other
            // block, so its lanes are exhausted.
            i += if amax <= bmax { 4 } else { 0 };
            j += if bmax <= amax { 4 } else { 0 };
        }
        n + intersect_count_scalar(&a[i..], &b[j..])
    }
}

/// Counts `|a ∩ b|` over two ascending, duplicate-free slices,
/// vectorized where the target allows it.
#[inline]
pub fn intersect_count(a: &[u32], b: &[u32]) -> u64 {
    #[cfg(all(target_arch = "x86_64", not(feature = "force-scalar")))]
    {
        intersect_count_sse2(a, b)
    }
    #[cfg(not(all(target_arch = "x86_64", not(feature = "force-scalar"))))]
    {
        intersect_count_scalar(a, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic ascending duplicate-free set from a seeded LCG.
    fn pseudo_set(seed: u64, len: usize, gap: u32) -> Vec<u32> {
        let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).max(1);
        let mut v = Vec::with_capacity(len);
        let mut cur = 0u32;
        for _ in 0..len {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            cur = cur.saturating_add(1 + (x >> 33) as u32 % gap);
            v.push(cur);
        }
        v.dedup();
        v
    }

    fn oracle(a: &[u32], b: &[u32]) -> u64 {
        a.iter().filter(|x| b.binary_search(x).is_ok()).count() as u64
    }

    #[test]
    fn scalar_matches_oracle() {
        for seed in 0..20u64 {
            let a = pseudo_set(seed, 50, 5);
            let b = pseudo_set(seed + 100, 70, 3);
            assert_eq!(intersect_count_scalar(&a, &b), oracle(&a, &b), "seed {seed}");
        }
    }

    #[test]
    fn vectorized_matches_scalar_on_every_shape() {
        // Sweep lengths through every tail residue (0..4 on each side)
        // and several densities so both the block loop and the scalar
        // tail are exercised.
        for seed in 0..8u64 {
            for la in [0usize, 1, 3, 4, 5, 8, 17, 64, 200] {
                for lb in [0usize, 2, 4, 7, 16, 33, 129] {
                    let a = pseudo_set(seed, la, 4);
                    let b = pseudo_set(seed.wrapping_add(7), lb, 6);
                    assert_eq!(
                        intersect_count(&a, &b),
                        intersect_count_scalar(&a, &b),
                        "seed {seed} la {la} lb {lb}"
                    );
                }
            }
        }
    }

    #[test]
    fn visit_reports_exactly_the_common_elements() {
        let a = [1u32, 3, 5, 9, 12, 40];
        let b = [2u32, 3, 9, 13, 40, 41];
        let mut hits = Vec::new();
        let n = intersect_visit(&a, &b, |k| hits.push(k));
        assert_eq!(n, 3);
        assert_eq!(hits, vec![3, 9, 40]);
    }

    #[test]
    fn identical_and_disjoint_sets() {
        let a: Vec<u32> = (0..100).map(|i| i * 2).collect();
        let b: Vec<u32> = (0..100).map(|i| i * 2 + 1).collect();
        assert_eq!(intersect_count(&a, &a), 100);
        assert_eq!(intersect_count(&a, &b), 0);
        assert_eq!(intersect_count(&a, &[]), 0);
        assert_eq!(intersect_count(&[], &b), 0);
    }

    #[test]
    fn kernel_state_constructs_empty() {
        let ks = KernelState::new(8, 3);
        assert_eq!(ks.stats, KernelStats::default());
        assert_eq!(ks.map.stride().divisor(), 3);
    }

    #[test]
    fn stats_merge_accumulates() {
        let mut a = KernelStats { hash_tasks: 1, merge_lookups: 5, ..Default::default() };
        let b = KernelStats { hash_tasks: 2, bitmap_rows: 3, ..Default::default() };
        a.merge_from(&b);
        assert_eq!(a.hash_tasks, 3);
        assert_eq!(a.bitmap_rows, 3);
        assert_eq!(a.merge_lookups, 5);
    }
}
