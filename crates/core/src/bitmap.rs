//! Packed bit rows: the paper's direct mode with the mask removed.
//!
//! §5.2 hashes a short row "by a direct bitwise AND without involving
//! any probing": slot `(k ÷ q) & mask`. The AND is what can collide. A
//! [`BitRow`] keeps the transformed index `k ÷ q` whole — one *bit* per
//! local column between the row's first and last key — so it cannot
//! collide, and a membership test is a subtract, a shift, a multiply
//! and a bit test against a row that is a few cache lines long. The
//! kernel builds one for exactly the rows whose direct attempt
//! collided ([`crate::intersect::KernelState::load_row`]).
//!
//! ## Exact division
//!
//! Every key a shift can present shares `k mod q = w` (the cyclic
//! split), so the probe divides by [`ExactDiv`]: `k ÷ q =
//! ((k − w) >> s) · o⁻¹ mod 2³²` for `q = 2ˢ·o` — 32-bit arithmetic
//! only, which is what makes the vector step possible. [`BitRow::build`]
//! divides with the general [`Reciprocal`] instead and *checks* every
//! key's class, so a row that breaks the precondition is refused, not
//! mis-indexed. Probe keys are trusted to be of the row's class, as the
//! shift schedule guarantees; a foreign key reads an in-span bit or
//! none, never memory outside the row.
//!
//! ## The vector step
//!
//! [`BitProbe::count`] walks a probe row from its tail like the
//! paper's loop (§5.2 reverse early break). Where AVX2 is present it
//! takes eight keys per step: one unaligned load, an unsigned
//! `k ≥ floor` mask, the exact division (one `vpmulld`), the span
//! check, a *masked* gather of the 32-bit words — only lanes that are
//! above the floor and inside the span are read — a variable shift
//! that moves each lane's bit into the sign position, and two
//! `movemask` + `popcnt` for lookups and hits. It stops at the first
//! vector with a lane below the floor and leaves the last `< 8` keys
//! to the scalar loop, which is also the whole implementation off
//! x86_64, without AVX2 and under `force-scalar`.
//!
//! ## Arena
//!
//! The backing words are grow-only, capped at [`MAX_SPAN_BITS`], and
//! cleared by re-walking the row that set them, so steady-state shift
//! loops stay allocation-free — the contract `tests/zero_alloc.rs`
//! proves with a counting allocator.

use crate::recip::{ExactDiv, Reciprocal};

/// Widest row, in local columns from first to last key, that is built
/// into a bit row; a wider one keeps the probing map. The bound is set
/// by memory, not by a measured crossover: 2²² bits is a 512 KB arena,
/// inside a per-core L2, and it is what keeps a `u32`-wide span from
/// ever allocating 512 MB. Nothing on the size ladder in
/// EXPERIMENTS.md comes near it — the widest collided row spans
/// 138 241 columns at g500-s20/p4 and 219 402 at g500-s21/p4, and bit
/// rows are ahead of linear probing on both.
pub const MAX_SPAN_BITS: u32 = 1 << 22;

/// A reusable packed bit row over the local-column space of one
/// operand-block row.
#[derive(Debug)]
pub struct BitRow {
    /// Backing words; grow-only, never longer than `MAX_SPAN_BITS / 32`.
    words: Vec<u32>,
    /// `k mod q` of the loaded row.
    class: u32,
    /// `k ÷ q` of the loaded row's first key: bit 0 of the row.
    base: u32,
    /// Bits from the first to the last key of the loaded row, 0 when
    /// none is loaded. Invariant: `span ≤ 32 · words.len()` — the
    /// gather in the vector step relies on it.
    span: u32,
    /// The hash transform divisor `q`: general form for building and
    /// clearing, exact form for probing.
    stride: Reciprocal,
    div: ExactDiv,
    /// Whether the vector step may run (AVX2 and POPCNT detected).
    #[cfg(all(target_arch = "x86_64", not(feature = "force-scalar")))]
    vector: bool,
}

impl BitRow {
    /// An empty arena over local columns `k ÷ q` (no allocation until
    /// [`BitRow::reserve`] or the first build). Detects the vector
    /// unit once, here.
    pub fn new(q: u32) -> Self {
        Self {
            words: Vec::new(),
            class: 0,
            base: 0,
            span: 0,
            stride: Reciprocal::new(q),
            div: ExactDiv::new(q),
            #[cfg(all(target_arch = "x86_64", not(feature = "force-scalar")))]
            vector: is_x86_feature_detected!("avx2") && is_x86_feature_detected!("popcnt"),
        }
    }

    /// Grows the arena to hold rows spanning `bits` local columns
    /// (capped at [`MAX_SPAN_BITS`]), so builds up to that span do not
    /// allocate.
    pub fn reserve(&mut self, bits: usize) {
        let words = bits.min(MAX_SPAN_BITS as usize).div_ceil(32);
        if words > self.words.len() {
            self.words.resize(words, 0);
        }
    }

    /// Packs `row` (ascending, non-empty) into the arena. Returns
    /// `false`, leaving the arena clear, if the row spans more than
    /// [`MAX_SPAN_BITS`] local columns or its keys do not share one
    /// `k mod q`.
    pub fn build(&mut self, row: &[u32]) -> bool {
        let stride = self.stride;
        debug_assert!(self.span == 0, "bit row built over an uncleared one");
        let (Some(&first), Some(&last)) = (row.first(), row.last()) else {
            return false;
        };
        let (base, class) = stride.div_rem(first);
        // Ascending keys: `last ÷ q ≥ base` (a descending pair wraps to
        // a span that is refused); `+ 1` is done in u64.
        let span = u64::from(stride.quotient(last).wrapping_sub(base)) + 1;
        if span > u64::from(MAX_SPAN_BITS) {
            return false;
        }
        self.reserve(span as usize);
        (self.class, self.base, self.span) = (class, base, span as u32);
        for (at, &k) in row.iter().enumerate() {
            let (t, r) = stride.div_rem(k);
            let idx = t.wrapping_sub(base);
            if r != class || idx >= self.span {
                // Not one congruence class (or not ascending): undo.
                self.clear(&row[..at]);
                return false;
            }
            self.words[(idx >> 5) as usize] |= 1 << (idx & 31);
        }
        true
    }

    /// Zeroes exactly the words `row` set, leaving the arena ready for
    /// the next build without touching untouched capacity.
    pub fn clear(&mut self, row: &[u32]) {
        for &k in row {
            let idx = self.stride.quotient(k) - self.base;
            self.words[(idx >> 5) as usize] = 0;
        }
        self.span = 0;
    }

    /// A lookup handle on the loaded row.
    #[inline]
    pub fn probe(&self) -> BitProbe<'_> {
        // The bound the vector gather relies on, re-established where
        // the handle is made.
        assert!(self.span as usize <= 32 * self.words.len());
        BitProbe {
            words: &self.words,
            class: self.class,
            base: self.base,
            span: self.span,
            div: self.div,
            #[cfg(all(target_arch = "x86_64", not(feature = "force-scalar")))]
            vector: self.vector,
        }
    }
}

/// A read-only handle on the loaded bit row for a burst of lookups —
/// the bit-row counterpart of [`crate::hashmap::RowProbe`]: everything
/// a lookup needs sits in the handle, and the caller owns the tallies.
#[derive(Debug, Clone, Copy)]
pub struct BitProbe<'a> {
    words: &'a [u32],
    class: u32,
    base: u32,
    /// `≤ 32 · words.len()` (asserted in [`BitRow::probe`]).
    span: u32,
    div: ExactDiv,
    #[cfg(all(target_arch = "x86_64", not(feature = "force-scalar")))]
    vector: bool,
}

impl BitProbe<'_> {
    /// Membership test for a key of the row's congruence class.
    ///
    /// `k ÷ q − base` wraps to at least `2³² − base ≥ span` for a key
    /// below the row's first (because `base + span ≤ 2³²`), so one
    /// unsigned compare rejects both sides of the span.
    #[inline(always)]
    pub fn contains(&self, key: u32) -> bool {
        let idx = self.div.quotient(key.wrapping_sub(self.class)).wrapping_sub(self.base);
        idx < self.span && self.words[(idx >> 5) as usize] >> (idx & 31) & 1 != 0
    }

    /// The paper's loop for one task against a bit row: looks up the
    /// entries of the ascending `prow` that are `≥ floor`, from the
    /// tail, and stops at the first one below. Returns `(lookups,
    /// hits)`; with `RECORD`, `hit(k)` fires once per hit in lookup
    /// order (descending `k`).
    #[inline]
    pub fn count<const RECORD: bool>(
        &self,
        prow: &[u32],
        floor: u32,
        mut hit: impl FnMut(u32),
    ) -> (u64, u64) {
        #[cfg(all(target_arch = "x86_64", not(feature = "force-scalar")))]
        if self.vector && prow.len() >= 8 {
            #[allow(unsafe_code)]
            // SAFETY: `vector` is set only by `BitRow::new` after
            // detecting AVX2 and POPCNT on the running CPU.
            return unsafe { self.count_avx2::<RECORD>(prow, floor, hit) };
        }
        self.count_scalar::<RECORD>(prow, floor, &mut hit)
    }

    #[inline(always)]
    fn count_scalar<const RECORD: bool>(
        &self,
        prow: &[u32],
        floor: u32,
        hit: &mut impl FnMut(u32),
    ) -> (u64, u64) {
        let (mut done, mut found) = (0u64, 0u64);
        for &k in prow.iter().rev() {
            if k < floor {
                break;
            }
            done += 1;
            let h = self.contains(k);
            if RECORD && h {
                hit(k);
            }
            found += u64::from(h);
        }
        (done, found)
    }

    /// [`BitProbe::count_scalar`], eight keys per step.
    ///
    /// # Safety
    ///
    /// The running CPU must support AVX2 and POPCNT.
    #[cfg(all(target_arch = "x86_64", not(feature = "force-scalar")))]
    #[allow(unsafe_code)]
    #[target_feature(enable = "avx2,popcnt")]
    unsafe fn count_avx2<const RECORD: bool>(
        &self,
        prow: &[u32],
        floor: u32,
        mut hit: impl FnMut(u32),
    ) -> (u64, u64) {
        use core::arch::x86_64::*;
        let floor_v = _mm256_set1_epi32(floor as i32);
        let class_v = _mm256_set1_epi32(self.class as i32);
        let base_v = _mm256_set1_epi32(self.base as i32);
        let inverse_v = _mm256_set1_epi32(self.div.inverse() as i32);
        let shift_v = _mm_cvtsi32_si128(self.div.shift() as i32);
        let span_v = _mm256_set1_epi32(self.span as i32);
        let thirty_one = _mm256_set1_epi32(31);
        let (mut done, mut found) = (0u64, 0u64);
        let mut end = prow.len();
        while end >= 8 {
            // SAFETY: `end − 8 .. end` lies inside `prow`; the load is
            // unaligned.
            let keys = unsafe { _mm256_loadu_si256(prow.as_ptr().add(end - 8).cast()) };
            // AVX2 compares are signed; `max(k, floor) == k` is the
            // unsigned `k ≥ floor`.
            let above = _mm256_cmpeq_epi32(_mm256_max_epu32(keys, floor_v), keys);
            let above_bits = _mm256_movemask_ps(_mm256_castsi256_ps(above)) as u32;
            let quotient = _mm256_mullo_epi32(
                _mm256_srl_epi32(_mm256_sub_epi32(keys, class_v), shift_v),
                inverse_v,
            );
            let idx = _mm256_sub_epi32(quotient, base_v);
            // `min(idx, span) == span` is the unsigned `idx ≥ span`.
            let outside = _mm256_cmpeq_epi32(_mm256_min_epu32(idx, span_v), span_v);
            let active = _mm256_andnot_si256(outside, above);
            // SAFETY: a masked gather reads memory only for lanes whose
            // mask sign bit is set; those lanes have `idx < span ≤
            // 32 · words.len()`, so word `idx >> 5` is inside `words`.
            let words = unsafe {
                _mm256_mask_i32gather_epi32::<4>(
                    _mm256_setzero_si256(),
                    self.words.as_ptr().cast(),
                    _mm256_srli_epi32::<5>(idx),
                    active,
                )
            };
            // Bit `idx & 31` of each word into the sign position;
            // inactive lanes gathered 0.
            let to_sign = _mm256_sub_epi32(thirty_one, _mm256_and_si256(idx, thirty_one));
            let hits = _mm256_sllv_epi32(words, to_sign);
            let mut hit_bits = _mm256_movemask_ps(_mm256_castsi256_ps(hits)) as u32;
            done += u64::from(above_bits.count_ones());
            found += u64::from(hit_bits.count_ones());
            if RECORD {
                // High lane first: the scalar loop's descending order.
                while hit_bits != 0 {
                    let lane = 31 - hit_bits.leading_zeros() as usize;
                    hit(prow[end - 8 + lane]);
                    hit_bits &= !(1 << lane);
                }
            }
            if above_bits != 0xff {
                // A lane fell below the floor: the early break.
                return (done, found);
            }
            end -= 8;
        }
        let (tail_done, tail_found) = self.count_scalar::<RECORD>(&prow[..end], floor, &mut hit);
        (done + tail_done, found + tail_found)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn membership_matches_row() {
        let mut b = BitRow::new(3);
        let row = [3, 9, 21, 300];
        assert!(b.build(&row));
        for &k in &row {
            assert!(b.probe().contains(k), "key {k}");
        }
        assert!(!b.probe().contains(6));
        assert!(!b.probe().contains(0)); // below base
        assert!(!b.probe().contains(3000)); // beyond span
    }

    #[test]
    fn clear_resets_for_reuse() {
        let mut b = BitRow::new(1);
        assert!(b.build(&[0, 64, 128]));
        b.clear(&[0, 64, 128]);
        assert!(!b.probe().contains(0));
        assert!(b.build(&[65]));
        assert!(b.probe().contains(65));
        assert!(!b.probe().contains(64)); // not leaked from the first build
    }

    #[test]
    fn arena_is_grow_only() {
        let mut b = BitRow::new(1);
        assert!(b.build(&[0, 1000]));
        let cap = b.words.len();
        b.clear(&[0, 1000]);
        assert!(b.build(&[5]));
        assert_eq!(b.words.len(), cap, "smaller rows must not shrink the arena");
        assert!(b.probe().contains(5));
        b.clear(&[5]);
        b.reserve(usize::MAX);
        assert_eq!(b.words.len(), MAX_SPAN_BITS as usize / 32, "reserve is capped");
    }

    #[test]
    fn stride_transform_distinguishes_classes() {
        // Keys 1, 4, 7 with stride 3 are local columns 0, 1, 2 of class 1.
        let mut b = BitRow::new(3);
        assert!(b.build(&[1, 4, 7]));
        let p = b.probe();
        assert!(p.contains(1) && p.contains(4) && p.contains(7));
        assert!(!p.contains(10) && !p.contains(10000));
        b.clear(&[1, 4, 7]);
        // A row that mixes classes is refused and leaves nothing behind.
        assert!(!b.build(&[1, 4, 8]));
        assert!(b.words.iter().all(|&w| w == 0));
        assert_eq!(b.span, 0);
    }

    /// Fixed-seed LCG; the high bits of each step.
    fn lcg(x: &mut u64) -> u32 {
        *x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (*x >> 33) as u32
    }

    /// `len` distinct ascending keys of class `w` mod `q`, local
    /// columns drawn from `[lo, lo + width)`.
    fn class_row(x: &mut u64, q: u32, w: u32, lo: u32, width: u32, len: usize) -> Vec<u32> {
        let mut cols: Vec<u32> = (0..len).map(|_| lo + lcg(x) % width).collect();
        cols.sort_unstable();
        cols.dedup();
        cols.into_iter().map(|t| t * q + w).collect()
    }

    #[test]
    fn vector_probe_equals_scalar_probe_and_the_paper_loop() {
        // One arena per stride, reused (build → probe → clear) across
        // every row: lengths through every residue mod 8 including
        // < 8, floors below / inside / above the row, probe keys on
        // both sides of the base and of the span, and a band of local
        // columns whose keys are ≥ 2³¹ (the compares must be unsigned).
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for q in [1u32, 2, 3, 5, 6, 8, 12] {
            let mut arena = BitRow::new(q);
            for w in 0..q {
                // Local-column bands: near zero, and straddling the
                // sign bit of the key (t·q + w crosses 2³¹ mid-band).
                for lo in [0u32, 1000, (1 << 31) / q - 300] {
                    for round in 0..24usize {
                        let hrow = class_row(&mut x, q, w, lo + 200, 400, 1 + round * 3);
                        assert!(arena.build(&hrow), "q={q} w={w} lo={lo}");
                        let bits = arena.probe();
                        let plen = [0, 1, 5, 7, 8, 9, 15, 16, 17, 23, 31, 40, 64, 77][round % 14];
                        let prow = class_row(&mut x, q, w, lo, 800, plen);
                        let floors = [
                            0,
                            hrow[0],
                            hrow[hrow.len() / 2],
                            *hrow.last().unwrap(),
                            hrow.last().unwrap() + q,
                            prow.first().copied().unwrap_or(0),
                            prow.get(prow.len() / 2).copied().unwrap_or(7),
                            u32::MAX,
                        ];
                        for floor in floors {
                            let looked_up: Vec<u32> =
                                prow.iter().rev().copied().take_while(|&k| k >= floor).collect();
                            let want_hits: Vec<u32> = looked_up
                                .iter()
                                .copied()
                                .filter(|k| hrow.binary_search(k).is_ok())
                                .collect();
                            let want = (looked_up.len() as u64, want_hits.len() as u64);
                            let ctx = format!("q={q} w={w} lo={lo} floor={floor} prow={prow:?}");

                            let mut seen = Vec::new();
                            let got = bits.count::<true>(&prow, floor, |k| seen.push(k));
                            assert_eq!((got, &seen), (want, &want_hits), "dispatch {ctx}");
                            assert_eq!(bits.count::<false>(&prow, floor, |_| {}), want, "{ctx}");

                            let mut seen = Vec::new();
                            let got =
                                bits.count_scalar::<true>(&prow, floor, &mut |k| seen.push(k));
                            assert_eq!((got, &seen), (want, &want_hits), "scalar {ctx}");
                        }
                        arena.clear(&hrow);
                        assert!(arena.words.iter().all(|&w| w == 0), "clear left bits behind");
                    }
                }
            }
        }
    }

    #[test]
    fn rows_wider_than_the_span_bound_are_refused() {
        let mut b = BitRow::new(1);
        assert!(!b.build(&[]));
        assert!(!b.build(&[0, MAX_SPAN_BITS]));
        assert!(!b.build(&[5, u32::MAX]));
        assert!(b.words.is_empty(), "a refused row must not allocate");
        let widest = [7, 7 + MAX_SPAN_BITS - 1];
        assert!(b.build(&widest));
        assert!(b.probe().contains(widest[1]));
        assert!(!b.probe().contains(widest[1] + 1));
        // The same bound counts local columns, not ids, under a stride.
        assert!(BitRow::new(5).build(&[2, 2 + 5 * (MAX_SPAN_BITS - 1)]));
        assert!(!BitRow::new(5).build(&[2, 2 + 5 * MAX_SPAN_BITS]));
    }
}
