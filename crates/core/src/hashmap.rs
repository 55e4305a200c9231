//! The map-based intersection hash table, with the paper's
//! collision-free fast path.
//!
//! §5.2 "Modifying the hashing routine for sparser vertices": under
//! the 2D decomposition the rows being hashed are ~`√p` times shorter,
//! so "even with a moderately sized hashmap, the number of collisions
//! will tend to be smaller", and short rows can be "hashed by
//! performing a direct bitwise AND operation without involving any
//! probing".
//!
//! [`IntersectMap`] implements both modes. A row load first *attempts*
//! the direct mode — slot `= (k ÷ q) & mask`, no probe chain — and
//! verifies collision-freeness during insertion (the verification is
//! what makes the heuristic safe); if any two keys of the row collide
//! it falls back to multiplicative hashing with linear probing for
//! that row. Probe steps, lookups, and mode choices are all counted,
//! feeding the paper's probe-rate analysis (§7.1) and the §7.3
//! ablation. The two halves are also callable apart
//! ([`IntersectMap::load_direct`], [`IntersectMap::load_probing`]):
//! the `auto` kernel serves a collided row from a bit row
//! ([`crate::bitmap`]) instead of probing.
//!
//! The transformed index `k ÷ q` is computed with a precomputed
//! [`Reciprocal`] (one widening multiply), never a hardware divide: `q`
//! is a runtime value, so a plain `/ q` compiles to a `div` that costs
//! more than the L1-resident table access it addresses.

use crate::recip::Reciprocal;

/// Counters accumulated across the lifetime of a map.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct MapStats {
    /// Rows loaded in the direct (bitwise-AND) mode.
    pub direct_rows: u64,
    /// Rows loaded in the probing mode.
    pub probed_rows: u64,
    /// Keys inserted (either mode).
    pub inserts: u64,
    /// Lookups performed.
    pub lookups: u64,
    /// Extra probe steps beyond the home slot (inserts + lookups).
    pub probe_steps: u64,
    /// Row loads satisfied from the still-loaded table because the
    /// caller re-presented the identical row (see
    /// [`IntersectMap::load_row`]). Replayed loads bump the other
    /// counters exactly as a fresh load would, so this is purely
    /// additive observability.
    pub reused_rows: u64,
}

const HASH_MULT: u32 = 0x9e37_79b1;

/// Packs a table slot: the generation stamp in the high half, the key
/// in the low half, so one load answers "occupied this generation, by
/// this key?".
#[inline(always)]
fn slot_of(generation: u32, key: u32) -> u64 {
    u64::from(generation) << 32 | u64::from(key)
}

/// Reusable hash set over the column entries of one operand-block row.
#[derive(Debug)]
pub struct IntersectMap {
    /// `stamp << 32 | key` per slot; a slot is live iff its stamp is
    /// the current generation (generation 0 is never live).
    slots: Vec<u64>,
    generation: u32,
    mask: u32,
    shift: u32,
    /// Reciprocal of the grid side `q`; keys within a block share
    /// `k % q`, so hashing uses the transformed index `k ÷ q`.
    stride: Reciprocal,
    /// Mode of the currently loaded row.
    direct: bool,
    /// Identity of the currently loaded row — `(ptr, len, allow_direct)`
    /// — plus the stat deltas its load produced, so an identical
    /// consecutive load can be skipped and replayed. `None` whenever
    /// the table contents can no longer be trusted to match (growth,
    /// generation wrap, or an explicit cross-shift invalidation).
    loaded: Option<LoadedRow>,
    /// Lifetime counters.
    pub stats: MapStats,
}

/// A read-only handle on the currently loaded row for a burst of
/// lookups ([`IntersectMap::probe`]). Everything a lookup needs is
/// copied into the handle, so the per-shift kernel keeps it in
/// registers across a task instead of re-reading the map — and the
/// caller, not the handle, owns the counters: lookups and probe steps
/// performed through it are handed back in bulk with
/// [`IntersectMap::credit`], which keeps [`MapStats`] bit-identical to
/// one [`IntersectMap::contains`] call per key.
#[derive(Debug, Clone, Copy)]
pub struct RowProbe<'a> {
    slots: &'a [u64],
    generation: u32,
    mask: u32,
    shift: u32,
    stride: Reciprocal,
}

impl RowProbe<'_> {
    /// Home slot of `key` in the direct mode: the transformed index
    /// under the table mask, no hashing.
    #[inline(always)]
    fn direct_slot(&self, key: u32) -> u32 {
        self.stride.quotient(key) & self.mask
    }

    /// Home slot of `key` in the probing mode (multiplicative hash of
    /// the transformed index).
    #[inline(always)]
    fn hash_slot(&self, key: u32) -> u32 {
        self.stride.quotient(key).wrapping_mul(HASH_MULT) >> self.shift
    }

    /// Membership test for a row loaded in the direct mode: one
    /// reciprocal multiply, one AND, one load, one compare.
    #[inline(always)]
    pub fn hit_direct(&self, key: u32) -> bool {
        self.slots[self.direct_slot(key) as usize] == slot_of(self.generation, key)
    }

    /// Membership test for a row loaded in the probing mode; adds the
    /// extra probe steps it walks to `steps`.
    ///
    /// With `x = slot ^ (generation, key)`, the high half of `x` is zero
    /// iff the slot is live and the low half iff it holds `key`; the
    /// chain walk continues only past a live slot holding another key,
    /// `0 < x < 2³²` — one compare, rarely true, so it predicts well —
    /// and hit-versus-miss is read off the stopping slot as `x == 0`
    /// instead of a second, data-dependent branch.
    #[inline(always)]
    pub fn hit_probing(&self, key: u32, steps: &mut u64) -> bool {
        let want = slot_of(self.generation, key);
        let mut s = self.hash_slot(key);
        loop {
            let x = self.slots[s as usize] ^ want;
            if x.wrapping_sub(1) >= u64::from(u32::MAX) {
                return x == 0;
            }
            *steps += 1;
            s = (s + 1) & self.mask;
        }
    }
}

/// Cache key + replay record of the last [`IntersectMap::load_row`].
#[derive(Debug, Clone, Copy)]
struct LoadedRow {
    ptr: usize,
    len: usize,
    allow_direct: bool,
    direct: bool,
    /// Probe steps the original (probing-mode) load charged.
    insert_probe_steps: u64,
}

impl IntersectMap {
    /// Creates a map sized for rows of up to `max_row_len` entries
    /// (table = next power of two ≥ 2·max, minimum 16).
    pub fn new(max_row_len: usize, q: usize) -> Self {
        let size = (2 * max_row_len).next_power_of_two().max(16);
        Self {
            slots: vec![0; size],
            generation: 0,
            mask: (size - 1) as u32,
            shift: 32 - size.trailing_zeros(),
            // The map's one hardware divide, at construction.
            stride: Reciprocal::new(u32::try_from(q.max(1)).expect("grid side fits in u32")),
            direct: false,
            loaded: None,
            stats: MapStats::default(),
        }
    }

    /// Table size.
    pub fn table_size(&self) -> usize {
        self.slots.len()
    }

    /// Drops the consecutive-load cache. Must be called between shifts:
    /// operand buffers are swapped, so a new row at a recycled address
    /// must not replay as the old one.
    pub fn invalidate_row_cache(&mut self) {
        self.loaded = None;
    }

    /// Credits `lookups` membership tests and `probe_steps` extra probe
    /// steps without touching the table: what a [`RowProbe`] burst
    /// physically performed, or what a bit row (always zero steps)
    /// answered in the map's place. Either way `lookups` ends up
    /// exactly where one [`IntersectMap::contains`] per key would have
    /// left it.
    #[inline]
    pub fn credit(&mut self, lookups: u64, probe_steps: u64) {
        self.stats.lookups += lookups;
        self.stats.probe_steps += probe_steps;
    }

    /// A lookup handle on the currently loaded row; pair it with
    /// [`IntersectMap::is_direct`] to pick the matching test.
    #[inline]
    pub fn probe(&self) -> RowProbe<'_> {
        RowProbe {
            slots: &self.slots,
            generation: self.generation,
            mask: self.mask,
            shift: self.shift,
            stride: self.stride,
        }
    }

    /// Grows the table so a `row_len`-entry row loads at ≤ 50%
    /// occupancy, restoring the constructor's sizing invariant when a
    /// caller under-estimated `max_row_len`. The probe loops terminate
    /// only because empty slots exist; without this, a row longer than
    /// the table would spin forever in release builds.
    fn reserve_row(&mut self, row_len: usize) {
        if 2 * row_len <= self.slots.len() {
            return;
        }
        let size = (2 * row_len).next_power_of_two();
        self.slots = vec![0; size];
        self.generation = 0;
        self.mask = (size - 1) as u32;
        self.shift = 32 - size.trailing_zeros();
        self.loaded = None;
    }

    #[inline]
    fn bump_generation(&mut self) {
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            self.slots.fill(0);
            self.generation = 1;
            self.loaded = None;
        }
    }

    #[inline]
    fn direct_slot(&self, key: u32) -> u32 {
        self.probe().direct_slot(key)
    }

    #[inline]
    fn hash_slot(&self, key: u32) -> u32 {
        self.probe().hash_slot(key)
    }

    /// Replays a cached load of the identical row, if `loaded` holds
    /// one that `accept`s: bumps the counters exactly as a fresh load
    /// would and counts one [`MapStats::reused_rows`].
    fn replay(&mut self, row: &[u32], accept: impl Fn(&LoadedRow) -> bool) -> bool {
        let Some(c) = self.loaded else { return false };
        if c.ptr != row.as_ptr() as usize || c.len != row.len() || !accept(&c) {
            return false;
        }
        self.stats.inserts += row.len() as u64;
        if c.direct {
            self.stats.direct_rows += 1;
        } else {
            self.stats.probed_rows += 1;
            self.stats.probe_steps += c.insert_probe_steps;
        }
        self.stats.reused_rows += 1;
        self.direct = c.direct;
        true
    }

    /// Loads `row` into the map, choosing the mode — the paper's
    /// routine in full.
    ///
    /// With `allow_direct` (the paper's optimization enabled) and a row
    /// that fits the table, insertion first tries the direct slot
    /// assignment; on the first observed collision the row is reloaded
    /// in probing mode. With `allow_direct == false` every row uses
    /// probing (the ablation's "unmodified hashing routine").
    ///
    /// Consecutive loads of the *identical* row (same slice identity
    /// and mode — rows are immutable within a shift) skip the table
    /// rebuild: the contents are still loaded under the live
    /// generation, so the load is replayed by bumping the stat
    /// counters exactly as a fresh load would and counting one
    /// [`MapStats::reused_rows`]. Callers must
    /// [`IntersectMap::invalidate_row_cache`] when row storage may be
    /// recycled (between shifts).
    pub fn load_row(&mut self, row: &[u32], allow_direct: bool) {
        if self.replay(row, |c| c.allow_direct == allow_direct) {
            return;
        }
        if allow_direct {
            if self.insert_direct(row) {
                return;
            }
        } else {
            self.reserve_row(row.len());
            self.stats.inserts += row.len() as u64;
            self.stats.probed_rows += 1;
        }
        self.insert_probing(row, allow_direct);
    }

    /// The direct half of [`IntersectMap::load_row`]: offers `row` to
    /// the collision-free mode only. `true` means it loaded (and
    /// counted) exactly as `load_row(row, true)` would have. `false`
    /// means two keys collided: the row is counted as a probed row
    /// (`inserts`, `probed_rows` — what `load_row` counts before it
    /// starts probing) but the table holds nothing usable until
    /// [`IntersectMap::load_probing`] completes the load. A consecutive
    /// identical load replays like `load_row`'s, for direct rows.
    pub fn load_direct(&mut self, row: &[u32]) -> bool {
        self.replay(row, |c| c.allow_direct && c.direct) || self.insert_direct(row)
    }

    /// Completes a [`IntersectMap::load_direct`] that returned `false`
    /// with the paper's linear-probing insertion; the pair leaves the
    /// map and its counters exactly where `load_row(row, true)` would.
    pub fn load_probing(&mut self, row: &[u32]) {
        self.insert_probing(row, true);
    }

    /// One direct-mode insertion attempt, counted.
    fn insert_direct(&mut self, row: &[u32]) -> bool {
        self.reserve_row(row.len());
        self.stats.inserts += row.len() as u64;
        self.bump_generation();
        for &k in row {
            let s = self.direct_slot(k) as usize;
            if (self.slots[s] >> 32) as u32 == self.generation {
                self.direct = false;
                self.stats.probed_rows += 1;
                self.loaded = None;
                return false;
            }
            self.slots[s] = slot_of(self.generation, k);
        }
        self.direct = true;
        self.stats.direct_rows += 1;
        self.loaded = Some(LoadedRow {
            ptr: row.as_ptr() as usize,
            len: row.len(),
            allow_direct: true,
            direct: true,
            insert_probe_steps: 0,
        });
        true
    }

    /// The probing-mode insertion of a row already counted in
    /// `inserts` and `probed_rows`.
    fn insert_probing(&mut self, row: &[u32], allow_direct: bool) {
        self.bump_generation();
        self.direct = false;
        let steps_before = self.stats.probe_steps;
        for &k in row {
            let mut s = self.hash_slot(k);
            while (self.slots[s as usize] >> 32) as u32 == self.generation {
                debug_assert_ne!(self.slots[s as usize] as u32, k, "duplicate key in operand row");
                self.stats.probe_steps += 1;
                s = (s + 1) & self.mask;
            }
            self.slots[s as usize] = slot_of(self.generation, k);
        }
        self.loaded = Some(LoadedRow {
            ptr: row.as_ptr() as usize,
            len: row.len(),
            allow_direct,
            direct: false,
            insert_probe_steps: self.stats.probe_steps - steps_before,
        });
    }

    /// Whether the current row is served by the direct fast path.
    pub fn is_direct(&self) -> bool {
        self.direct
    }

    /// Membership test against the currently loaded row.
    #[inline]
    pub fn contains(&mut self, key: u32) -> bool {
        let mut steps = 0;
        let probe = self.probe();
        let hit =
            if self.direct { probe.hit_direct(key) } else { probe.hit_probing(key, &mut steps) };
        self.credit(1, steps);
        hit
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direct_mode_engages_for_collision_free_rows() {
        let mut m = IntersectMap::new(8, 3);
        // Entries of a block with q=3, class 1: 1, 4, 7, 10 — local
        // indices 0..3, all distinct under the mask.
        m.load_row(&[1, 4, 7, 10], true);
        assert!(m.is_direct());
        assert!(m.contains(4));
        assert!(m.contains(10));
        assert!(!m.contains(13));
        assert_eq!(m.stats.direct_rows, 1);
        assert_eq!(m.stats.probed_rows, 0);
        assert_eq!(m.stats.probe_steps, 0);
    }

    #[test]
    fn colliding_row_falls_back_to_probing() {
        let mut m = IntersectMap::new(4, 1);
        let size = m.table_size() as u32;
        // Keys size apart collide in the direct slot.
        let row = [0, size, 2 * size];
        m.load_row(&row, true);
        assert!(!m.is_direct());
        for &k in &row {
            assert!(m.contains(k));
        }
        assert!(!m.contains(7 * size + 1));
        assert_eq!(m.stats.probed_rows, 1);
    }

    #[test]
    fn disabled_direct_always_probes() {
        let mut m = IntersectMap::new(8, 3);
        m.load_row(&[1, 4, 7], false);
        assert!(!m.is_direct());
        assert!(m.contains(1) && m.contains(4) && m.contains(7));
        assert_eq!(m.stats.direct_rows, 0);
    }

    #[test]
    fn reload_resets_contents() {
        let mut m = IntersectMap::new(4, 1);
        m.load_row(&[1, 2, 3], true);
        m.load_row(&[10, 20], true);
        assert!(!m.contains(1));
        assert!(m.contains(10));
    }

    #[test]
    fn generation_wrap_hard_resets() {
        let mut m = IntersectMap::new(2, 1);
        m.generation = u32::MAX - 1;
        m.load_row(&[5], true);
        m.load_row(&[6], true); // wraps inside bump
        assert!(!m.contains(5));
        assert!(m.contains(6));
    }

    #[test]
    fn probe_steps_counted_under_forced_collisions() {
        let mut m = IntersectMap::new(4, 1);
        // Find two keys that genuinely collide under the
        // multiplicative hash, then verify the probe counter moves.
        let target = m.hash_slot(1);
        let other = (2..10_000u32).find(|&k| m.hash_slot(k) == target).expect("collision");
        m.load_row(&[1, other], false);
        assert!(m.stats.probe_steps > 0);
        assert!(m.contains(1) && m.contains(other));
        let before = m.stats.lookups;
        m.contains(1);
        assert_eq!(m.stats.lookups, before + 1);
    }

    #[test]
    fn oversized_row_grows_table_instead_of_spinning() {
        // Regression: a row longer than the table used to pass only a
        // debug_assert; in release builds the probing loop then had no
        // empty slot to stop at and spun forever.
        let mut m = IntersectMap::new(4, 1);
        let row: Vec<u32> = (0..m.table_size() as u32 + 5).collect();
        for allow_direct in [true, false] {
            m.load_row(&row, allow_direct);
            assert!(m.table_size() >= 2 * row.len());
            for &k in &row {
                assert!(m.contains(k), "key {k} lost after growth");
            }
            assert!(!m.contains(row.len() as u32 + 7));
        }
    }

    #[test]
    fn growth_preserves_q_transform() {
        // After growing, direct mode still hashes k ÷ q correctly.
        let mut m = IntersectMap::new(2, 3);
        let row: Vec<u32> = (0..40).map(|i| 1 + 3 * i).collect();
        m.load_row(&row, true);
        assert!(m.is_direct());
        assert!(m.contains(1) && m.contains(118));
        assert!(!m.contains(121));
    }

    #[test]
    fn empty_row_load() {
        let mut m = IntersectMap::new(0, 2);
        m.load_row(&[], true);
        assert!(m.is_direct());
        assert!(!m.contains(0));
    }

    #[test]
    fn consecutive_identical_loads_replay_stats_exactly() {
        // Regression (adaptive-kernel PR): re-presenting the identical
        // row must skip the rebuild yet leave every legacy counter
        // exactly as two fresh loads would — the counted reuse is what
        // lets `auto` dispatch trust per-row amortization.
        let row = vec![1u32, 4, 7, 10];
        let mut twice = IntersectMap::new(8, 3);
        twice.load_row(&row, true);
        twice.load_row(&row, true);
        let mut fresh = IntersectMap::new(8, 3);
        fresh.load_row(&row, true);
        let once = fresh.stats;
        assert_eq!(twice.stats.reused_rows, 1);
        assert_eq!(twice.stats.inserts, 2 * once.inserts);
        assert_eq!(twice.stats.direct_rows, 2 * once.direct_rows);
        assert_eq!(twice.stats.probed_rows, 0);
        assert!(twice.is_direct());
        assert!(twice.contains(7), "replayed load must leave the row queryable");
        assert!(!twice.contains(13));

        // An explicit invalidation (the between-shifts contract) forces
        // a genuine reload.
        twice.invalidate_row_cache();
        twice.load_row(&row, true);
        assert_eq!(twice.stats.reused_rows, 1);
        assert_eq!(twice.stats.direct_rows, 3);
    }

    #[test]
    fn probing_replay_recharges_insert_probe_steps() {
        let mut m = IntersectMap::new(4, 1);
        let target = m.hash_slot(1);
        let other = (2..10_000u32).find(|&k| m.hash_slot(k) == target).expect("collision");
        let row = vec![1, other];
        m.load_row(&row, false);
        let once = m.stats;
        assert!(once.probe_steps > 0);
        m.load_row(&row, false);
        assert_eq!(m.stats.reused_rows, 1);
        assert_eq!(m.stats.probed_rows, 2 * once.probed_rows);
        assert_eq!(m.stats.probe_steps, 2 * once.probe_steps);
        assert_eq!(m.stats.inserts, 2 * once.inserts);
        assert!(m.contains(1) && m.contains(other));
    }

    #[test]
    fn mode_change_defeats_the_reuse_cache() {
        let row = vec![1u32, 4, 7];
        let mut m = IntersectMap::new(8, 3);
        m.load_row(&row, true);
        m.load_row(&row, false); // same slice, different mode: reload
        assert_eq!(m.stats.reused_rows, 0);
        assert_eq!(m.stats.direct_rows, 1);
        assert_eq!(m.stats.probed_rows, 1);
        assert!(!m.is_direct());
    }

    #[test]
    fn different_row_at_same_length_reloads() {
        let a = vec![1u32, 4, 7];
        let b = vec![10u32, 13, 16];
        let mut m = IntersectMap::new(8, 3);
        m.load_row(&a, true);
        m.load_row(&b, true);
        assert_eq!(m.stats.reused_rows, 0);
        assert!(m.contains(10) && !m.contains(1));
    }

    #[test]
    fn split_load_equals_the_whole_routine() {
        // load_direct (+ load_probing on a collision) must leave the
        // table and every counter where load_row(row, true) does.
        let size = IntersectMap::new(4, 1).table_size() as u32;
        let clean = vec![1u32, 2, 3];
        let colliding = vec![0, size, 2 * size];
        for row in [&clean, &colliding, &Vec::new()] {
            let mut whole = IntersectMap::new(4, 1);
            whole.load_row(row, true);
            let mut split = IntersectMap::new(4, 1);
            let direct = split.load_direct(row);
            assert_eq!(direct, whole.is_direct());
            if !direct {
                // What a bit row takes over from: counted, not probed.
                assert_eq!(split.stats.probed_rows, 1);
                assert_eq!(split.stats.inserts, row.len() as u64);
                assert_eq!(split.stats.probe_steps, 0);
                split.load_probing(row);
            }
            assert_eq!(split.stats, whole.stats);
            assert_eq!(split.is_direct(), whole.is_direct());
            for k in 0..4 * size {
                assert_eq!(split.contains(k), row.contains(&k), "key {k}");
            }
        }
        // Direct rows replay through load_direct as through load_row.
        let mut m = IntersectMap::new(4, 1);
        assert!(m.load_direct(&clean) && m.load_direct(&clean));
        assert_eq!((m.stats.reused_rows, m.stats.direct_rows, m.stats.inserts), (1, 2, 6));
    }

    #[test]
    fn credited_lookups_count_without_probing() {
        let mut m = IntersectMap::new(8, 1);
        m.load_row(&[1, 2], true);
        m.credit(5, 0);
        assert_eq!(m.stats.lookups, 5);
        assert_eq!(m.stats.probe_steps, 0);
        m.contains(1);
        assert_eq!(m.stats.lookups, 6);
    }
}
