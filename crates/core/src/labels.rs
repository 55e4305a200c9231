//! The `old → new` label table of the relabeling step (paper §5.3).
//!
//! After the degree sort every rank receives one `(old, new)` pair for
//! each vertex that occurs in its adjacency lists, then translates
//! every adjacency entry through that mapping — `m/p` lookups, the
//! single hottest loop of preprocessing. The §5.4 model charges one
//! simple operation per entry, so the table is built for exactly that
//! access pattern: `u32` keys, `u32` values, filled once, then only
//! read.
//!
//! It is an open-addressing table with linear probing over packed
//! `u64` slots (`key << 32 | value`), a multiplicative hash, and a
//! power-of-two capacity of at least twice the number of pairs — so a
//! lookup is one multiply, one shift and, nearly always, one cache
//! line. Memory stays proportional to the labels *received* (16 bytes
//! per label at most); there is no `O(n)` per-rank array, which would
//! break the `m/p`-memory scaling the 2D algorithm exists for.

/// Slot content meaning "no pair stored here". It decodes to
/// `(u32::MAX, u32::MAX)`, which is why that one *value* is reserved
/// (labels are `< n ≤ u32::MAX`, so it never occurs); the key
/// `u32::MAX` itself is fine.
const EMPTY: u64 = u64::MAX;

/// Fibonacci-hashing multiplier, `⌊2⁶⁴ / φ⌋` (odd).
const MULTIPLIER: u64 = 0x9E37_79B9_7F4A_7C15;

/// A fill-once `u32 → u32` map.
#[derive(Debug, Clone)]
pub struct LabelTable {
    slots: Vec<u64>,
    /// `64 − log₂(capacity)`: the hash keeps the product's top bits.
    shift: u32,
    len: usize,
}

impl LabelTable {
    /// A table with room for `pairs` distinct keys: the capacity is
    /// the smallest power of two `≥ 2 · pairs` (and `≥ 2`), so the
    /// load factor never exceeds one half and every probe sequence
    /// ends at an empty slot.
    pub fn with_capacity(pairs: usize) -> Self {
        let capacity = pairs.saturating_mul(2).max(2).next_power_of_two();
        Self { slots: vec![EMPTY; capacity], shift: 64 - capacity.trailing_zeros(), len: 0 }
    }

    /// Number of slots.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Number of distinct keys stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no key is stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline(always)]
    fn home(&self, key: u32) -> usize {
        (u64::from(key).wrapping_mul(MULTIPLIER) >> self.shift) as usize
    }

    /// Stores `key → value`, replacing an earlier value for `key`.
    ///
    /// # Panics
    ///
    /// Panics if `value` is the reserved `u32::MAX`, or if the insert
    /// would push the table past the half-full bound it was sized for.
    pub fn insert(&mut self, key: u32, value: u32) {
        assert!(value != u32::MAX, "label value u32::MAX is reserved");
        let mask = self.slots.len() - 1;
        let mut i = self.home(key);
        loop {
            let slot = self.slots[i];
            if slot == EMPTY {
                assert!(
                    (self.len + 1) * 2 <= self.slots.len(),
                    "label table sized for {} pairs is full",
                    self.slots.len() / 2
                );
                self.len += 1;
                break;
            }
            if (slot >> 32) as u32 == key {
                break;
            }
            i = (i + 1) & mask;
        }
        self.slots[i] = u64::from(key) << 32 | u64::from(value);
    }

    /// The value stored for `key`, if any.
    #[inline]
    pub fn get(&self, key: u32) -> Option<u32> {
        let mask = self.slots.len() - 1;
        let mut i = self.home(key);
        loop {
            let slot = self.slots[i];
            if slot == EMPTY {
                return None;
            }
            if (slot >> 32) as u32 == key {
                return Some(slot as u32);
            }
            i = (i + 1) & mask;
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use proptest::prelude::*;

    use super::*;

    /// Replays `pairs` into both maps and checks every inserted key,
    /// plus `absent`, reads back identically.
    fn check_against_std(pairs: &[(u32, u32)], absent: &[u32]) {
        let mut reference: HashMap<u32, u32> = HashMap::new();
        let mut table = LabelTable::with_capacity(pairs.len());
        for &(k, v) in pairs {
            reference.insert(k, v);
            table.insert(k, v);
            assert_eq!(table.len(), reference.len());
        }
        assert!(table.capacity().is_power_of_two());
        assert!(table.capacity() >= 2 * pairs.len());
        for &(k, _) in pairs {
            assert_eq!(table.get(k), reference.get(&k).copied(), "key {k}");
        }
        for &k in absent {
            assert_eq!(table.get(k), reference.get(&k).copied(), "absent key {k}");
        }
    }

    #[test]
    fn empty_table_finds_nothing() {
        let t = LabelTable::with_capacity(0);
        assert!(t.is_empty());
        assert_eq!(t.capacity(), 2);
        for k in [0, 1, 7, u32::MAX] {
            assert_eq!(t.get(k), None);
        }
    }

    #[test]
    fn extreme_keys_are_ordinary_keys() {
        check_against_std(&[(0, 5), (u32::MAX, 0), (u32::MAX - 1, 9), (1, u32::MAX - 1)], &[2, 3]);
        // Key u32::MAX shares its high half with the EMPTY pattern;
        // it must still miss cleanly when absent.
        let mut t = LabelTable::with_capacity(4);
        t.insert(0, 0);
        assert_eq!(t.get(u32::MAX), None);
        t.insert(u32::MAX, 0);
        assert_eq!(t.get(u32::MAX), Some(0));
        assert_eq!(t.get(0), Some(0));
    }

    #[test]
    fn reinsert_replaces_without_growing() {
        let mut t = LabelTable::with_capacity(2);
        t.insert(9, 1);
        t.insert(9, 2);
        t.insert(4, 3);
        t.insert(9, 4);
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(9), Some(4));
        assert_eq!(t.get(4), Some(3));
    }

    #[test]
    fn capacity_sits_exactly_on_the_two_times_boundary() {
        for (pairs, capacity) in [(0, 2), (1, 2), (2, 4), (4, 8), (5, 16), (8, 16), (9, 32)] {
            let mut t = LabelTable::with_capacity(pairs);
            assert_eq!(t.capacity(), capacity, "{pairs} pairs");
            // Filling to the declared size works and stays findable.
            for k in 0..pairs as u32 {
                t.insert(k.wrapping_mul(0x0101_0101), k);
            }
            for k in 0..pairs as u32 {
                assert_eq!(t.get(k.wrapping_mul(0x0101_0101)), Some(k));
            }
        }
    }

    #[test]
    #[should_panic(expected = "is full")]
    fn overfilling_is_rejected_not_looped() {
        let mut t = LabelTable::with_capacity(1); // capacity 2: one key
        t.insert(1, 1);
        t.insert(2, 2);
    }

    #[test]
    #[should_panic(expected = "reserved")]
    fn reserved_value_is_rejected() {
        LabelTable::with_capacity(1).insert(0, u32::MAX);
    }

    /// The first `want` keys that share key 0's home slot.
    fn colliding_keys(table: &LabelTable, want: usize) -> Vec<u32> {
        let home = table.home(0);
        (0u32..).filter(|&k| table.home(k) == home).take(want).collect()
    }

    #[test]
    fn keys_that_all_collide_probe_linearly_and_wrap() {
        let probe = LabelTable::with_capacity(64);
        let keys = colliding_keys(&probe, 64);
        let pairs: Vec<(u32, u32)> = keys.iter().map(|&k| (k, k ^ 0x5555)).collect();
        // A home slot near the end forces the probe sequence to wrap.
        let last = (0u32..).find(|&k| probe.home(k) == probe.capacity() - 1).expect("some key");
        let wrapping: Vec<u32> =
            (0u32..).filter(|&k| probe.home(k) == probe.home(last)).take(8).collect();
        let mut all = pairs.clone();
        all.truncate(56);
        all.extend(wrapping.iter().map(|&k| (k, 1)));
        check_against_std(&all, &[keys[63], u32::MAX]);
        check_against_std(&pairs, &[last]);
    }

    proptest! {
        #[test]
        fn agrees_with_std_hashmap(
            pairs in proptest::collection::vec((any::<u32>(), 0u32..u32::MAX), 0..300),
            narrow in proptest::collection::vec((0u32..64, 0u32..1000), 0..200),
            absent in proptest::collection::vec(any::<u32>(), 0..50),
        ) {
            check_against_std(&pairs, &absent);
            // A narrow key range forces duplicates (re-inserts).
            check_against_std(&narrow, &absent);
        }
    }
}
