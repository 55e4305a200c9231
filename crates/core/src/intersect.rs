//! The per-shift kernel state, and the sorted-set intersection
//! primitive.
//!
//! The per-task set intersection at the heart of the count (`A(a) ∩
//! A(b)`, paper §5.1) is answered by one of two kernels
//! ([`crate::config::KernelStrategy`]):
//!
//! - **hash** — the paper's map ([`crate::hashmap::IntersectMap`]):
//!   direct mode for rows that load without a collision, linear
//!   probing for the rest;
//! - **auto** — the same direct mode, but a row whose direct attempt
//!   collides is built into a packed bit row
//!   ([`crate::bitmap::BitRow`]) instead of being probed.
//!
//! [`KernelState`] bundles the reusable state both share across the
//! shifts of one rank and makes the per-row choice
//! ([`KernelState::load_row`]); [`KernelStats`] are the tallies behind
//! the `tct.kernel.*` metrics.
//!
//! [`intersect_count`] — a vectorized merge of two sorted rows — is no
//! longer part of either kernel: forcing it onto the probing-mode rows
//! measured slower than probing them (EXPERIMENTS.md, "Bit rows and
//! the vector probe"). It stays public and unchanged because the repo
//! benchmark's probe links it (`core.intersect.pairs_per_s`); removing
//! it is left to a later `benchmark` PR.

use crate::bitmap::BitRow;
use crate::config::TcConfig;
use crate::hashmap::IntersectMap;

/// Per-rank tallies of which structure served the tasks and their
/// membership tests.
///
/// The lookup tallies partition the legacy lookup counter exactly:
/// `hash_lookups + bitmap_lookups == MapStats::lookups`, because bit
/// rows credit the map with the lookups the paper's loop would have
/// performed.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct KernelStats {
    /// Tasks served by the map (direct or probing mode).
    pub hash_tasks: u64,
    /// Tasks served by a bit row.
    pub bitmap_tasks: u64,
    /// Hash rows built into packed bit rows.
    pub bitmap_rows: u64,
    /// Membership tests physically performed against the map.
    pub hash_lookups: u64,
    /// Membership tests answered by a bit row.
    pub bitmap_lookups: u64,
}

/// Which structure answers membership tests for the loaded hash row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowMode {
    /// The map's collision-free direct mode (§5.2).
    Direct,
    /// The map's linear-probing mode.
    Probing,
    /// A packed bit row; the caller must
    /// [`BitRow::clear`] it with the same row when done.
    Bits,
}

/// The reusable intersection state of one rank: the hash map, the
/// bit-row arena, and the tallies. Created once before the shift loop;
/// both containers are grow-only, so steady-state shifts allocate
/// nothing.
#[derive(Debug)]
pub struct KernelState {
    /// The paper's map. Every row is offered to it first, so its
    /// row-mode statistics are the same under both kernels.
    pub map: IntersectMap,
    /// Packed bit-row arena for rows that collide in the map.
    pub bits: BitRow,
    /// Tallies.
    pub stats: KernelStats,
}

impl KernelState {
    /// Sized like [`IntersectMap::new`]: `max_row_len` is the longest
    /// hash-side row, `q` the hash transform divisor (grid side).
    pub fn new(max_row_len: usize, q: usize) -> Self {
        let stride = u32::try_from(q.max(1)).expect("grid side fits in u32");
        Self {
            map: IntersectMap::new(max_row_len, q),
            bits: BitRow::new(stride),
            stats: KernelStats::default(),
        }
    }

    /// Loads one hash row and says what will answer its lookups.
    ///
    /// Under [`KernelStrategy::Hash`] — and under `auto` when
    /// `direct_hash` is off, so the `--no-direct-hash` ablation keeps
    /// measuring the paper's probing routine — this is
    /// [`IntersectMap::load_row`]. Under `auto` the row is offered to
    /// the direct mode exactly the same way, and the *collision* is
    /// the dispatch: a row that collides is built into a bit row
    /// rather than re-inserted with linear probing. Only a row the bit
    /// arena refuses (wider than [`crate::bitmap::MAX_SPAN_BITS`])
    /// completes the probing load. `inserts`, `direct_rows` and
    /// `probed_rows` therefore count the same under both kernels;
    /// `probe_steps` can only fall.
    pub fn load_row(&mut self, row: &[u32], cfg: &TcConfig) -> RowMode {
        if !cfg.uses_bit_rows() {
            self.map.load_row(row, cfg.direct_hash);
            return if self.map.is_direct() { RowMode::Direct } else { RowMode::Probing };
        }
        if self.map.load_direct(row) {
            RowMode::Direct
        } else if self.bits.build(row) {
            self.stats.bitmap_rows += 1;
            RowMode::Bits
        } else {
            self.map.load_probing(row);
            RowMode::Probing
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
///
/// Not called by the counting kernel any more (see the module doc);
/// kept public and unchanged because `benchmark/probe` pins it, until
/// a `benchmark` PR re-points the probe.
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
        assert_eq!(ks.map.stats, crate::hashmap::MapStats::default());
    }

    #[test]
    fn collision_is_the_dispatch() {
        use crate::config::KernelStrategy;
        let mut ks = KernelState::new(4, 1);
        let size = ks.map.table_size() as u32;
        let auto = TcConfig::default();
        let hash = auto.with_kernel(KernelStrategy::Hash);
        let clean = [1u32, 2, 3];
        let colliding = [0, size, 2 * size];
        let too_wide = [0, size, u32::MAX];

        assert_eq!(ks.load_row(&clean, &auto), RowMode::Direct);
        assert_eq!(ks.load_row(&[], &auto), RowMode::Direct);
        assert_eq!(ks.load_row(&colliding, &auto), RowMode::Bits);
        assert!(ks.bits.probe().contains(size) && !ks.bits.probe().contains(1));
        ks.bits.clear(&colliding);
        // Counted as a probed row, never probed.
        assert_eq!((ks.map.stats.probed_rows, ks.map.stats.probe_steps), (1, 0));
        assert_eq!(ks.stats.bitmap_rows, 1);

        // A span the arena refuses completes the paper's probing load.
        assert_eq!(ks.load_row(&too_wide, &auto), RowMode::Probing);
        assert!(ks.map.contains(u32::MAX) && !ks.map.contains(7));
        assert_eq!(ks.stats.bitmap_rows, 1);

        // `hash`, and `auto` without direct hashing, never build bits.
        assert_eq!(ks.load_row(&colliding, &hash), RowMode::Probing);
        assert_eq!(ks.load_row(&colliding, &auto.with_direct_hash(false)), RowMode::Probing);
        assert_eq!(ks.load_row(&clean, &auto.with_direct_hash(false)), RowMode::Probing);
        assert_eq!(ks.stats.bitmap_rows, 1);
    }
}
