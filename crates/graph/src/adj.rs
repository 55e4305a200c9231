//! Mutable per-rank adjacency storage (owned block + ghost rows).
//!
//! The communication-avoiding data placement of Arifuzzaman et al.'s
//! AOP — each rank stores its 1D block of vertices plus the adjacency
//! lists of remote vertices its edges reference — promoted from
//! `tc-apps` into the graph substrate and made **mutable**: the
//! always-on analytics service (`tc-serve`) applies streams of edge
//! inserts and deletes against this store, so rows are owned sorted
//! vectors rather than borrowed windows into an immutable CSR.
//!
//! The store is communication-free by construction; fabrics that need
//! ghost replication build it with their own exchange (see
//! `tc_apps::adjstore::build_from_csr`) and feed the received rows
//! in through [`AdjStore::set_ghost`].

use std::collections::HashMap;
use std::io::{BufReader, BufWriter, Read, Write};

use crate::csr::Csr;
use crate::edgelist::VertexId;
use crate::error::GraphError;
use crate::io::{read_fully, Crc32c, IoError};

/// Preallocation cap (entries), consistent with the hardened readers
/// in [`crate::io`]: sizes declared by untrusted inputs (wire frames,
/// file headers) never reserve more than this up front.
pub const PREALLOC_CAP: usize = 1 << 20;

/// Magic tag of the versioned binary snapshot ("TCADJSNP").
pub const SNAPSHOT_MAGIC: u64 = 0x5443_4144_4A53_4E50;

/// Current snapshot format version; bump on layout changes so an old
/// binary refuses a new checkpoint with a typed error instead of
/// misreading it.
pub const SNAPSHOT_VERSION: u32 = 1;

/// Per-rank mutable adjacency: owned rows for the block `[lo, hi)`
/// plus ghost rows replicated from remote owners.
#[derive(Debug, Clone)]
pub struct AdjStore {
    n: usize,
    lo: u32,
    hi: u32,
    rows: Vec<Vec<VertexId>>,
    ghosts: HashMap<VertexId, Vec<VertexId>>,
}

/// Inserts `x` into the sorted row, returning whether it was absent.
fn sorted_insert(row: &mut Vec<VertexId>, x: VertexId) -> bool {
    match row.binary_search(&x) {
        Ok(_) => false,
        Err(at) => {
            row.insert(at, x);
            true
        }
    }
}

/// Removes `x` from the sorted row, returning whether it was present.
fn sorted_remove(row: &mut Vec<VertexId>, x: VertexId) -> bool {
    match row.binary_search(&x) {
        Ok(at) => {
            row.remove(at);
            true
        }
        Err(_) => false,
    }
}

impl AdjStore {
    /// An empty store owning the vertex block `[lo, hi)` of an
    /// `n`-vertex graph.
    ///
    /// # Panics
    ///
    /// Panics if the block is not a sub-range of `0..n`.
    pub fn new(n: usize, lo: usize, hi: usize) -> Self {
        assert!(lo <= hi && hi <= n, "block [{lo}, {hi}) is not a sub-range of 0..{n}");
        let mut rows = Vec::with_capacity((hi - lo).min(PREALLOC_CAP));
        rows.resize_with(hi - lo, Vec::new);
        Self { n, lo: lo as u32, hi: hi as u32, rows, ghosts: HashMap::new() }
    }

    /// Builds the store owning the block `[lo, lo + rows.len())` of an
    /// `n`-vertex graph from its rows, which it takes as they are.
    ///
    /// # Panics
    ///
    /// Panics if the block is not a sub-range of `0..n`, or a row is
    /// not strictly ascending, holds an id `>= n` or its own vertex.
    pub fn from_sorted_rows(n: usize, lo: usize, rows: Vec<Vec<VertexId>>) -> Self {
        let hi = lo + rows.len();
        assert!(hi <= n, "block [{lo}, {hi}) is not a sub-range of 0..{n}");
        for (v, row) in (lo as VertexId..).zip(&rows) {
            let sorted = row.windows(2).all(|w| w[0] < w[1]);
            let simple = row.last().is_none_or(|&w| (w as usize) < n) && !row.contains(&v);
            assert!(sorted && simple, "row {v} is not a sorted simple adjacency: {row:?}");
        }
        Self { n, lo: lo as u32, hi: hi as u32, rows, ghosts: HashMap::new() }
    }

    /// Builds the store from this rank's block rows of a global CSR
    /// (rows are copied — the store owns and may mutate them).
    pub fn from_csr_block(csr: &Csr, lo: usize, hi: usize) -> Self {
        let mut store = Self::new(csr.num_vertices(), lo, hi);
        for v in lo..hi {
            store.rows[v - lo] = csr.neighbors(v as u32).to_vec();
        }
        store
    }

    /// Global vertex count.
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// The owned block `[lo, hi)`.
    pub fn range(&self) -> (u32, u32) {
        (self.lo, self.hi)
    }

    /// Whether `v` is owned by this rank.
    pub fn owns(&self, v: VertexId) -> bool {
        v >= self.lo && v < self.hi
    }

    fn check_edge(&self, u: VertexId, v: VertexId) -> Result<(), GraphError> {
        for x in [u, v] {
            if x as usize >= self.n {
                return Err(GraphError::VertexOutOfRange { v: x, n: self.n });
            }
        }
        if u == v {
            return Err(GraphError::SelfLoop(u));
        }
        Ok(())
    }

    /// Inserts the undirected edge `(u, v)` into every owned endpoint
    /// row. Returns `true` if the edge was absent (judged from the
    /// first owned endpoint); endpoints this rank does not own are
    /// untouched. Ghost rows are deliberately **not** updated — the
    /// service refreshes ghosts by re-exchanging rows when it needs
    /// remote adjacency.
    pub fn insert(&mut self, u: VertexId, v: VertexId) -> Result<bool, GraphError> {
        self.check_edge(u, v)?;
        let mut changed = None;
        for (a, b) in [(u, v), (v, u)] {
            if self.owns(a) {
                let was_new = sorted_insert(&mut self.rows[(a - self.lo) as usize], b);
                changed.get_or_insert(was_new);
            }
        }
        Ok(changed.unwrap_or(false))
    }

    /// Deletes the undirected edge `(u, v)` from every owned endpoint
    /// row. Returns `true` if the edge was present (judged from the
    /// first owned endpoint).
    pub fn delete(&mut self, u: VertexId, v: VertexId) -> Result<bool, GraphError> {
        self.check_edge(u, v)?;
        let mut changed = None;
        for (a, b) in [(u, v), (v, u)] {
            if self.owns(a) {
                let was_there = sorted_remove(&mut self.rows[(a - self.lo) as usize], b);
                changed.get_or_insert(was_there);
            }
        }
        Ok(changed.unwrap_or(false))
    }

    /// Whether the edge `(u, v)` is present, judged from whichever
    /// endpoint this rank can resolve (owned or ghost).
    ///
    /// # Panics
    ///
    /// Panics if neither endpoint is owned or ghosted — membership of
    /// such an edge is unknowable locally, and answering `false` would
    /// silently corrupt a computation.
    pub fn contains(&self, u: VertexId, v: VertexId) -> bool {
        if let Some(row) = self.get(u) {
            row.binary_search(&v).is_ok()
        } else if let Some(row) = self.get(v) {
            row.binary_search(&u).is_ok()
        } else {
            panic!("edge ({u}, {v}): neither endpoint is owned or ghosted")
        }
    }

    /// Sorted full adjacency of `v` — owned or ghost.
    ///
    /// # Panics
    ///
    /// Panics if `v` is remote and was never ghosted (such a vertex
    /// cannot appear in this rank's computations); use
    /// [`AdjStore::get`] for the non-panicking lookup.
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        self.get(v).unwrap_or_else(|| panic!("vertex {v} is neither owned nor ghosted"))
    }

    /// Sorted full adjacency of `v` if this rank can resolve it.
    pub fn get(&self, v: VertexId) -> Option<&[VertexId]> {
        if self.owns(v) {
            Some(self.rows[(v - self.lo) as usize].as_slice())
        } else {
            self.ghosts.get(&v).map(Vec::as_slice)
        }
    }

    /// Installs (or replaces) the ghost row of remote vertex `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is owned — owned rows are mutated through
    /// [`AdjStore::insert`]/[`AdjStore::delete`], never shadowed.
    pub fn set_ghost(&mut self, v: VertexId, row: Vec<VertexId>) {
        assert!(!self.owns(v), "vertex {v} is owned; set_ghost is for remote rows");
        debug_assert!(row.windows(2).all(|w| w[0] < w[1]), "ghost row must be sorted");
        self.ghosts.insert(v, row);
    }

    /// Drops every ghost row (e.g. after a mutation epoch made them
    /// stale).
    pub fn clear_ghosts(&mut self) {
        self.ghosts.clear();
    }

    /// Longest resolvable row (sizes intersection sets).
    pub fn max_row_len(&self) -> usize {
        let owned = self.rows.iter().map(Vec::len).max().unwrap_or(0);
        let ghost = self.ghosts.values().map(Vec::len).max().unwrap_or(0);
        owned.max(ghost)
    }

    /// Total ghost entries replicated (the memory-overhead metric).
    pub fn ghost_entries(&self) -> usize {
        self.ghosts.values().map(Vec::len).sum()
    }

    /// Total entries across owned rows. Summed over ranks of a
    /// partition this is exactly `2m` (each edge appears in both
    /// endpoint rows).
    pub fn owned_entries(&self) -> u64 {
        self.rows.iter().map(|r| r.len() as u64).sum()
    }

    /// Iterates the owned rows as `(vertex, sorted adjacency)`.
    pub fn owned_rows(&self) -> impl Iterator<Item = (VertexId, &[VertexId])> + '_ {
        self.rows.iter().enumerate().map(|(i, r)| (self.lo + i as u32, r.as_slice()))
    }

    /// Writes a versioned binary snapshot of the owned block: magic,
    /// version, shape header, every owned row, and a trailing CRC32c
    /// over everything before it. Ghost rows are deliberately excluded
    /// — they are derived state, rebuilt by re-exchanging rows after a
    /// restore.
    pub fn write_snapshot(&self, writer: impl Write) -> crate::io::Result<()> {
        let mut w = BufWriter::new(writer);
        let mut crc = Crc32c::new();
        let mut header = Vec::with_capacity(28);
        header.extend_from_slice(&SNAPSHOT_MAGIC.to_le_bytes());
        header.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        header.extend_from_slice(&(self.n as u64).to_le_bytes());
        header.extend_from_slice(&self.lo.to_le_bytes());
        header.extend_from_slice(&self.hi.to_le_bytes());
        crc.update(&header);
        w.write_all(&header)?;
        let mut buf = Vec::new();
        for row in &self.rows {
            buf.clear();
            buf.extend_from_slice(&(row.len() as u32).to_le_bytes());
            for &x in row {
                buf.extend_from_slice(&x.to_le_bytes());
            }
            crc.update(&buf);
            w.write_all(&buf)?;
        }
        w.write_all(&crc.finish().to_le_bytes())?;
        w.flush()?;
        Ok(())
    }

    /// Reads a snapshot written by [`AdjStore::write_snapshot`].
    ///
    /// Every structural defect — bad magic, unknown version, an
    /// impossible shape, truncation anywhere, an unsorted or
    /// out-of-range row, a checksum mismatch — is a typed
    /// [`IoError::Corrupt`] carrying the byte offset, so a torn or
    /// bit-rotted checkpoint can never restore silently wrong
    /// adjacency. The declared sizes are never trusted for the
    /// allocation (capped at [`PREALLOC_CAP`] up front).
    pub fn read_snapshot(reader: impl Read) -> crate::io::Result<Self> {
        let mut r = BufReader::new(reader);
        let mut crc = Crc32c::new();
        let mut buf8 = [0u8; 8];
        let mut buf4 = [0u8; 4];
        read_fully(&mut r, &mut buf8, 0, || "8-byte snapshot magic".into())?;
        let magic = u64::from_le_bytes(buf8);
        if magic != SNAPSHOT_MAGIC {
            return Err(IoError::Corrupt {
                msg: format!("bad snapshot magic {magic:#018x} (expected {SNAPSHOT_MAGIC:#018x})"),
                offset: 0,
            });
        }
        crc.update(&buf8);
        read_fully(&mut r, &mut buf4, 8, || "snapshot version".into())?;
        let version = u32::from_le_bytes(buf4);
        if version != SNAPSHOT_VERSION {
            return Err(IoError::Corrupt {
                msg: format!("unknown snapshot version {version} (expected {SNAPSHOT_VERSION})"),
                offset: 8,
            });
        }
        crc.update(&buf4);
        read_fully(&mut r, &mut buf8, 12, || "vertex-count header".into())?;
        let n64 = u64::from_le_bytes(buf8);
        if n64 > u64::from(u32::MAX) + 1 {
            return Err(IoError::Corrupt {
                msg: format!("vertex count {n64} exceeds the u32 id space"),
                offset: 12,
            });
        }
        crc.update(&buf8);
        let n = n64 as usize;
        read_fully(&mut r, &mut buf4, 20, || "block lower bound".into())?;
        let lo = u32::from_le_bytes(buf4);
        crc.update(&buf4);
        read_fully(&mut r, &mut buf4, 24, || "block upper bound".into())?;
        let hi = u32::from_le_bytes(buf4);
        crc.update(&buf4);
        if lo > hi || hi as usize > n {
            return Err(IoError::Corrupt {
                msg: format!("block [{lo}, {hi}) is not a sub-range of 0..{n}"),
                offset: 20,
            });
        }
        let mut store = Self::new(n, lo as usize, hi as usize);
        let mut off = 28u64;
        for i in 0..(hi - lo) as usize {
            read_fully(&mut r, &mut buf4, off, || format!("length of row {i}"))?;
            let len = u32::from_le_bytes(buf4) as usize;
            crc.update(&buf4);
            off += 4;
            if len >= n.max(1) {
                return Err(IoError::Corrupt {
                    msg: format!("row {i}: length {len} is impossible in an {n}-vertex graph"),
                    offset: off - 4,
                });
            }
            let mut row = Vec::with_capacity(len.min(PREALLOC_CAP));
            let mut prev: Option<u32> = None;
            for j in 0..len {
                read_fully(&mut r, &mut buf4, off, || format!("entry {j} of row {i}"))?;
                let x = u32::from_le_bytes(buf4);
                crc.update(&buf4);
                if x as usize >= n {
                    return Err(IoError::Corrupt {
                        msg: format!("row {i}: neighbor {x} out of range (n = {n})"),
                        offset: off,
                    });
                }
                if prev.is_some_and(|p| p >= x) {
                    return Err(IoError::Corrupt {
                        msg: format!("row {i}: entries not strictly increasing at {x}"),
                        offset: off,
                    });
                }
                prev = Some(x);
                row.push(x);
                off += 4;
            }
            store.rows[i] = row;
        }
        read_fully(&mut r, &mut buf4, off, || "trailing checksum".into())?;
        let stored = u32::from_le_bytes(buf4);
        let computed = crc.finish();
        if stored != computed {
            return Err(IoError::Corrupt {
                msg: format!(
                    "checksum mismatch (stored {stored:#010x}, computed {computed:#010x})"
                ),
                offset: off,
            });
        }
        Ok(store)
    }

    /// Flattens the owned block into `(lo, local xadj, adj)` — the
    /// materialized-rows shape distributed pipelines consume (e.g.
    /// `tc_core::preprocess::BlockInput::Owned`).
    pub fn to_block_parts(&self) -> (u32, Vec<u32>, Vec<u32>) {
        let total: usize = self.rows.iter().map(Vec::len).sum();
        let mut xadj = Vec::with_capacity((self.rows.len() + 1).min(PREALLOC_CAP));
        let mut adj = Vec::with_capacity(total.min(PREALLOC_CAP));
        xadj.push(0u32);
        let mut off = 0u32;
        for row in &self.rows {
            off += row.len() as u32;
            xadj.push(off);
            adj.extend_from_slice(row);
        }
        (self.lo, xadj, adj)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edgelist::EdgeList;

    fn triangle_store() -> AdjStore {
        // Triangle 0-1-2 plus pendant edge 2-3, whole graph owned.
        let el = EdgeList::new(4, vec![(0, 1), (0, 2), (1, 2), (2, 3)]).simplify();
        AdjStore::from_csr_block(&Csr::from_edge_list(&el), 0, 4)
    }

    #[test]
    fn from_csr_block_copies_rows() {
        let store = triangle_store();
        assert_eq!(store.neighbors(0), &[1, 2]);
        assert_eq!(store.neighbors(2), &[0, 1, 3]);
        assert_eq!(store.max_row_len(), 3);
        assert_eq!(store.owned_entries(), 8);
        assert!(store.contains(0, 1));
        assert!(!store.contains(0, 3));
    }

    #[test]
    fn from_sorted_rows_takes_the_rows_of_a_block() {
        let csr = Csr::from_edge_list(&EdgeList::new(5, vec![(0, 1), (1, 2), (1, 3), (3, 4)]));
        let rows: Vec<Vec<u32>> = (1..4).map(|v| csr.neighbors(v).to_vec()).collect();
        let store = AdjStore::from_sorted_rows(5, 1, rows);
        assert_eq!(store.range(), (1, 4));
        let oracle = AdjStore::from_csr_block(&csr, 1, 4);
        assert!(store.owned_rows().eq(oracle.owned_rows()));
        for bad in [vec![2, 0], vec![0, 0], vec![1], vec![5]] {
            let rows = vec![bad.clone(), vec![], vec![]];
            let built = std::panic::catch_unwind(|| AdjStore::from_sorted_rows(5, 1, rows));
            assert!(built.is_err(), "row {bad:?} was accepted for vertex 1");
        }
    }

    #[test]
    fn insert_and_delete_round_trip() {
        let mut store = triangle_store();
        assert_eq!(store.insert(0, 3), Ok(true));
        assert!(store.contains(0, 3));
        assert_eq!(store.neighbors(3), &[0, 2]);
        assert_eq!(store.insert(0, 3), Ok(false), "duplicate insert is a no-op");
        assert_eq!(store.delete(0, 3), Ok(true));
        assert_eq!(store.delete(0, 3), Ok(false), "double delete is a no-op");
        assert_eq!(store.neighbors(3), &[2]);
        // Rows stay sorted through arbitrary churn.
        assert_eq!(store.insert(3, 1), Ok(true));
        assert_eq!(store.neighbors(3), &[1, 2]);
    }

    #[test]
    fn typed_errors_on_bad_edges() {
        let mut store = triangle_store();
        assert_eq!(store.insert(0, 9), Err(GraphError::VertexOutOfRange { v: 9, n: 4 }));
        assert_eq!(store.delete(9, 0), Err(GraphError::VertexOutOfRange { v: 9, n: 4 }));
        assert_eq!(store.insert(2, 2), Err(GraphError::SelfLoop(2)));
    }

    #[test]
    fn partial_ownership_touches_only_owned_rows() {
        let el = EdgeList::new(4, vec![(0, 1), (0, 2), (1, 2), (2, 3)]).simplify();
        let csr = Csr::from_edge_list(&el);
        // This rank owns only [0, 2).
        let mut store = AdjStore::from_csr_block(&csr, 0, 2);
        assert!(store.owns(1) && !store.owns(2));
        assert_eq!(store.insert(1, 3), Ok(true));
        assert_eq!(store.neighbors(1), &[0, 2, 3]);
        assert_eq!(store.get(3), None, "remote endpoint row untouched");
        assert_eq!(store.insert(2, 3), Ok(false), "fully remote edge is a local no-op");
    }

    #[test]
    fn ghosts_resolve_and_clear() {
        let mut store = AdjStore::new(6, 0, 3);
        store.set_ghost(4, vec![0, 5]);
        assert_eq!(store.neighbors(4), &[0, 5]);
        assert_eq!(store.ghost_entries(), 2);
        assert_eq!(store.max_row_len(), 2);
        assert!(!store.contains(4, 3));
        store.clear_ghosts();
        assert_eq!(store.get(4), None);
    }

    #[test]
    #[should_panic(expected = "neither owned nor ghosted")]
    fn unknown_remote_vertex_panics() {
        triangle_store();
        let store = AdjStore::new(8, 0, 4);
        let _ = store.neighbors(7);
    }

    #[test]
    #[should_panic(expected = "neither endpoint is owned or ghosted")]
    fn contains_refuses_to_guess() {
        let store = AdjStore::new(8, 0, 4);
        let _ = store.contains(6, 7);
    }

    fn snapshot_bytes(store: &AdjStore) -> Vec<u8> {
        let mut bytes = Vec::new();
        store.write_snapshot(&mut bytes).unwrap();
        bytes
    }

    #[test]
    fn snapshot_round_trip_is_bit_identical() {
        let mut store = triangle_store();
        store.insert(1, 3).unwrap();
        let bytes = snapshot_bytes(&store);
        let back = AdjStore::read_snapshot(bytes.as_slice()).unwrap();
        assert_eq!(back.num_vertices(), store.num_vertices());
        assert_eq!(back.range(), store.range());
        for (v, row) in store.owned_rows() {
            assert_eq!(back.neighbors(v), row);
        }
        // Re-snapshotting the restored store yields the same bytes.
        assert_eq!(snapshot_bytes(&back), bytes);
    }

    #[test]
    fn snapshot_excludes_ghosts() {
        let mut store = AdjStore::new(6, 0, 3);
        store.insert(0, 2).unwrap();
        store.set_ghost(4, vec![0, 5]);
        let back = AdjStore::read_snapshot(snapshot_bytes(&store).as_slice()).unwrap();
        assert_eq!(back.get(4), None, "ghosts are derived state, not persisted");
        assert_eq!(back.neighbors(0), &[2]);
    }

    #[test]
    fn snapshot_rejects_truncation_at_every_prefix() {
        let bytes = snapshot_bytes(&triangle_store());
        for cut in 0..bytes.len() {
            match AdjStore::read_snapshot(&bytes[..cut]) {
                Err(IoError::Corrupt { .. }) => {}
                other => panic!("prefix {cut}/{}: expected Corrupt, got {other:?}", bytes.len()),
            }
        }
    }

    #[test]
    fn snapshot_rejects_bit_rot_via_checksum() {
        let good = snapshot_bytes(&triangle_store());
        // Flip one bit somewhere in a row payload (past the header, so
        // the structural checks may pass and the CRC must catch it).
        let mut bad = good.clone();
        let at = bad.len() - 6;
        bad[at] ^= 0x10;
        match AdjStore::read_snapshot(bad.as_slice()) {
            Err(IoError::Corrupt { msg, .. }) => {
                assert!(
                    msg.contains("checksum") || msg.contains("range") || msg.contains("increasing"),
                    "{msg}"
                );
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn snapshot_rejects_bad_magic_and_version() {
        let good = snapshot_bytes(&triangle_store());
        let mut bad = good.clone();
        bad[0] ^= 0xff;
        match AdjStore::read_snapshot(bad.as_slice()) {
            Err(IoError::Corrupt { msg, offset: 0 }) => assert!(msg.contains("magic"), "{msg}"),
            other => panic!("expected Corrupt at 0, got {other:?}"),
        }
        let mut bad = good;
        bad[8] = 99;
        match AdjStore::read_snapshot(bad.as_slice()) {
            Err(IoError::Corrupt { msg, offset: 8 }) => assert!(msg.contains("version"), "{msg}"),
            other => panic!("expected Corrupt at 8, got {other:?}"),
        }
    }

    #[test]
    fn to_block_parts_round_trips() {
        let store = triangle_store();
        let (lo, xadj, adj) = store.to_block_parts();
        assert_eq!(lo, 0);
        assert_eq!(xadj, vec![0, 2, 4, 7, 8]);
        assert_eq!(adj, vec![1, 2, 0, 2, 0, 1, 3, 2]);
    }
}
