//! Packed bit rows for hub-vertex intersection.
//!
//! On skewed (twitter-like) blocks a handful of hub rows dominate the
//! per-shift work: the same long hash row is probed by many tasks.
//! Materializing such a row once per load into a packed `u64` bit row
//! indexed by *local column* (`k ÷ q`, the same transformed index the
//! hash uses) turns every membership test into a reciprocal multiply,
//! a shift and an AND — no probe chain, no stat read-modify-write per
//! key, and no hardware divide: `k ÷ q` goes through the map's
//! precomputed [`Reciprocal`], in `build`, `contains` and `clear` alike.
//!
//! [`BitRow`] is a grow-only arena: the backing word vector only ever
//! expands, and clearing zeroes exactly the words the current row
//! touched (by re-walking the row's entries), so steady-state shift
//! loops stay allocation-free once warm — the same contract the
//! zero-copy operand pipeline proves with a counting allocator.

use crate::recip::Reciprocal;

/// A reusable packed bit row over the local-column space of one
/// operand-block row.
#[derive(Debug, Default)]
pub struct BitRow {
    /// Backing words; grow-only.
    words: Vec<u64>,
    /// Local-column index of the first entry of the loaded row — bit 0
    /// of the row maps to this column.
    base: u32,
    /// Words spanned by the loaded row (bounds for [`BitRow::contains`]).
    span_words: usize,
}

impl BitRow {
    /// An empty arena (no allocation until the first build).
    pub fn new() -> Self {
        Self::default()
    }

    /// Words the row `[first..=last]` (local columns) spans.
    #[inline]
    fn span(first: u32, last: u32) -> usize {
        (last - first) as usize / 64 + 1 // constant divisor: a shift
    }

    /// Packs `row` (sorted ascending, non-empty) into the arena.
    /// `stride` is the hash transform divisor (the grid side `q` the
    /// paired [`crate::hashmap::IntersectMap`] hashes with).
    pub fn build(&mut self, row: &[u32], stride: Reciprocal) {
        debug_assert!(!row.is_empty(), "bitmap build needs a non-empty row");
        let first = stride.quotient(row[0]);
        let last = stride.quotient(row[row.len() - 1]);
        self.base = first;
        self.span_words = Self::span(first, last);
        if self.span_words > self.words.len() {
            self.words.resize(self.span_words, 0);
        }
        for &k in row {
            let idx = (stride.quotient(k) - first) as usize;
            self.words[idx >> 6] |= 1u64 << (idx & 63);
        }
    }

    /// Membership test against the packed row. Keys below the base or
    /// beyond the span fail the bounds check and report absent.
    #[inline]
    pub fn contains(&self, key: u32, stride: Reciprocal) -> bool {
        let idx = stride.quotient(key).wrapping_sub(self.base) as usize;
        let w = idx >> 6;
        w < self.span_words && self.words[w] & (1u64 << (idx & 63)) != 0
    }

    /// Zeroes exactly the words `row` set, leaving the arena ready for
    /// the next build without touching untouched capacity.
    pub fn clear(&mut self, row: &[u32], stride: Reciprocal) {
        for &k in row {
            let idx = (stride.quotient(k) - self.base) as usize;
            self.words[idx >> 6] = 0;
        }
        self.span_words = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn by(stride: u32) -> Reciprocal {
        Reciprocal::new(stride)
    }

    #[test]
    fn membership_matches_row() {
        let mut b = BitRow::new();
        let row = [3, 9, 21, 300];
        b.build(&row, by(3));
        for &k in &row {
            assert!(b.contains(k, by(3)), "key {k}");
        }
        assert!(!b.contains(6, by(3)));
        assert!(!b.contains(0, by(3))); // below base
        assert!(!b.contains(3000, by(3))); // beyond span
    }

    #[test]
    fn clear_resets_for_reuse() {
        let mut b = BitRow::new();
        b.build(&[0, 64, 128], by(1));
        b.clear(&[0, 64, 128], by(1));
        assert!(!b.contains(0, by(1)));
        b.build(&[65], by(1));
        assert!(b.contains(65, by(1)));
        assert!(!b.contains(64, by(1))); // not leaked from the first build
    }

    #[test]
    fn arena_is_grow_only() {
        let mut b = BitRow::new();
        b.build(&[0, 1000], by(1));
        let cap = b.words.len();
        b.clear(&[0, 1000], by(1));
        b.build(&[5], by(1));
        assert_eq!(b.words.len(), cap, "smaller rows must not shrink the arena");
        assert!(b.contains(5, by(1)));
    }

    #[test]
    fn stride_transform_distinguishes_classes() {
        // Keys 1, 4, 7 with stride 3 are local columns 0, 1, 2.
        let mut b = BitRow::new();
        b.build(&[1, 4, 7], by(3));
        assert!(b.contains(1, by(3)) && b.contains(4, by(3)) && b.contains(7, by(3)));
        // 2/3 == 0 == 1/3: the bitmap (like the direct hash) resolves
        // only the transformed index — callers feed it keys of the
        // row's own congruence class, as the shift schedule guarantees.
        assert!(!b.contains(10000, by(3)));
    }
}
