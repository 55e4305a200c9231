//! Rank-local durability: checkpoints + write-ahead log.
//!
//! Each rank of a supervised fleet persists its share of the evolving
//! graph under its own directory so a crashed-and-respawned process
//! can rejoin **without** a full 2D recount:
//!
//! - `ckpt-<seq>.bin` — a generation checkpoint: a CRC-guarded meta
//!   header (committed batch seq, global triangle count, global
//!   edge-set fingerprint, cumulative recounts) followed by the
//!   [`AdjStore`] snapshot, which carries its own trailing CRC32c.
//!   Written to a temp file and atomically renamed, so a crash
//!   mid-checkpoint can never shadow the previous good generation.
//! - `wal-<seq>.bin` — the write-ahead log of that generation: one
//!   CRC-framed record per committed batch carrying the **global**
//!   net insert/delete lists (replicated by the engine's exchange,
//!   so any rank's WAL can bridge any other rank's gap) plus the
//!   count and fingerprint after the batch.
//!
//! Restore walks checkpoints newest-first, skipping any that fail
//! their CRC or structural checks ([`IoError::Corrupt`]) in favor of
//! the previous generation, then replays every retained WAL record
//! past the checkpoint's seq. A torn record at the tail of a WAL —
//! the expected shape of a crash mid-append — ends replay silently;
//! the file is truncated back to its last whole record before new
//! appends continue. The two newest generations are retained, older
//! ones pruned at checkpoint time.

use std::fs::{self, File, OpenOptions};
use std::io::{self, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use tc_graph::io::{crc32c, IoError};
use tc_graph::AdjStore;

/// First 8 bytes of a checkpoint file (`b"TCCKPT01"` as LE `u64`).
pub const CKPT_MAGIC: u64 = 0x3130_5450_4B43_4354;
/// Checkpoint format version.
pub const CKPT_VERSION: u32 = 1;
/// Checkpoint meta header length: magic + version + seq + count +
/// hash + recounts + CRC.
const CKPT_META_LEN: usize = 8 + 4 + 8 + 8 + 8 + 8 + 4;
/// Hard ceiling on a single WAL record's payload, far above any
/// realistic batch but low enough that a corrupt length prefix can
/// never drive a huge allocation.
const WAL_RECORD_CAP: u32 = 1 << 28;

/// One committed batch, as persisted and as bridged between ranks
/// during resync. The insert/delete lists are the engine's **global**
/// net lists, so replaying a record is valid on every rank (edges
/// with no locally-owned endpoint are no-ops in the store).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    /// Batch sequence number (1-based; seq `k` is the `k`-th batch).
    pub seq: u64,
    /// Global triangle count after this batch.
    pub count_after: u64,
    /// Global edge-set fingerprint after this batch.
    pub hash_after: u64,
    /// Net inserted canonical edges.
    pub inserts: Vec<(u32, u32)>,
    /// Net deleted canonical edges.
    pub deletes: Vec<(u32, u32)>,
}

/// The meta header of a checkpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CkptMeta {
    /// Committed batch seq the snapshot reflects.
    pub seq: u64,
    /// Global triangle count at `seq`.
    pub count: u64,
    /// Global edge-set fingerprint at `seq`.
    pub hash: u64,
    /// Cumulative full 2D recounts at checkpoint time (so a respawned
    /// rank keeps reporting the true lifetime total).
    pub recounts: u64,
}

/// A successfully restored rank state: the newest readable checkpoint
/// plus every whole WAL record after it.
#[derive(Debug)]
pub struct Restored {
    /// The rank's block store as of `meta.seq`.
    pub store: AdjStore,
    /// Position in the batch stream (updated past the checkpoint by
    /// WAL replay).
    pub meta: CkptMeta,
}

/// A rank's durability manager: owns the state directory, the open
/// WAL writer, and the checkpoint/prune cycle.
#[derive(Debug)]
pub struct Durability {
    dir: PathBuf,
    wal: Option<BufWriter<File>>,
    wal_base: u64,
}

impl Durability {
    /// Opens (creating if needed) the state directory for one rank.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Durability> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(Durability { dir, wal: None, wal_base: 0 })
    }

    /// The managed directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn ckpt_path(&self, seq: u64) -> PathBuf {
        self.dir.join(format!("ckpt-{seq}.bin"))
    }

    fn wal_path(&self, base: u64) -> PathBuf {
        self.dir.join(format!("wal-{base}.bin"))
    }

    /// Sorted ascending `<num>` of every `<prefix><num>.bin` file.
    fn generations(&self, prefix: &str) -> io::Result<Vec<u64>> {
        let mut out = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let name = entry?.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(num) = name.strip_prefix(prefix).and_then(|r| r.strip_suffix(".bin")) {
                if let Ok(seq) = num.parse::<u64>() {
                    out.push(seq);
                }
            }
        }
        out.sort_unstable();
        Ok(out)
    }

    /// Writes a checkpoint at `seq` (temp file + atomic rename),
    /// opens a fresh WAL for the new generation, and prunes all but
    /// the two newest generations.
    pub fn checkpoint(&mut self, store: &AdjStore, meta: CkptMeta) -> tc_graph::io::Result<()> {
        let tmp = self.dir.join("ckpt.tmp");
        {
            let mut w = BufWriter::new(File::create(&tmp)?);
            let mut head = Vec::with_capacity(CKPT_META_LEN);
            head.extend_from_slice(&CKPT_MAGIC.to_le_bytes());
            head.extend_from_slice(&CKPT_VERSION.to_le_bytes());
            head.extend_from_slice(&meta.seq.to_le_bytes());
            head.extend_from_slice(&meta.count.to_le_bytes());
            head.extend_from_slice(&meta.hash.to_le_bytes());
            head.extend_from_slice(&meta.recounts.to_le_bytes());
            let crc = crc32c(&head);
            head.extend_from_slice(&crc.to_le_bytes());
            w.write_all(&head)?;
            store.write_snapshot(&mut w)?;
            w.flush()?;
            w.get_ref().sync_all()?;
        }
        fs::rename(&tmp, self.ckpt_path(meta.seq))?;
        let wal = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(self.wal_path(meta.seq))?;
        self.wal = Some(BufWriter::new(wal));
        self.wal_base = meta.seq;
        self.prune()?;
        Ok(())
    }

    /// Drops every generation older than the two newest checkpoints.
    fn prune(&self) -> io::Result<()> {
        let ckpts = self.generations("ckpt-")?;
        if ckpts.len() <= 2 {
            return Ok(());
        }
        let keep_from = ckpts[ckpts.len() - 2];
        for seq in &ckpts[..ckpts.len() - 2] {
            let _ = fs::remove_file(self.ckpt_path(*seq));
        }
        for base in self.generations("wal-")? {
            if base < keep_from {
                let _ = fs::remove_file(self.wal_path(base));
            }
        }
        Ok(())
    }

    /// Appends one committed batch to the open WAL and flushes it.
    ///
    /// # Panics
    ///
    /// Panics if no WAL is open — [`Durability::checkpoint`] or
    /// [`Durability::restore`] must have established a generation.
    pub fn append(&mut self, rec: &WalRecord) -> io::Result<()> {
        let w = self.wal.as_mut().expect("no open WAL generation; checkpoint first");
        let payload = encode_payload(rec);
        w.write_all(&(payload.len() as u32).to_le_bytes())?;
        w.write_all(&payload)?;
        w.write_all(&crc32c(&payload).to_le_bytes())?;
        w.flush()
    }

    /// Reads one checkpoint file: meta header (CRC-guarded) plus the
    /// embedded store snapshot. Every structural defect — bad magic,
    /// bad version, truncation, checksum mismatch in either layer —
    /// is a typed [`IoError::Corrupt`] naming the byte offset.
    pub fn read_checkpoint(path: &Path) -> tc_graph::io::Result<Restored> {
        let mut r = BufReader::new(File::open(path)?);
        let mut head = [0u8; CKPT_META_LEN];
        r.read_exact(&mut head).map_err(|e| {
            if e.kind() == io::ErrorKind::UnexpectedEof {
                IoError::Corrupt { msg: "truncated checkpoint meta header".into(), offset: 0 }
            } else {
                IoError::Io(e)
            }
        })?;
        let magic = u64::from_le_bytes(head[0..8].try_into().expect("8 bytes"));
        if magic != CKPT_MAGIC {
            return Err(IoError::Corrupt {
                msg: format!("bad checkpoint magic {magic:#018x}"),
                offset: 0,
            });
        }
        let version = u32::from_le_bytes(head[8..12].try_into().expect("4 bytes"));
        if version != CKPT_VERSION {
            return Err(IoError::Corrupt {
                msg: format!("unsupported checkpoint version {version}"),
                offset: 8,
            });
        }
        let stored_crc = u32::from_le_bytes(head[44..48].try_into().expect("4 bytes"));
        let computed = crc32c(&head[..44]);
        if stored_crc != computed {
            return Err(IoError::Corrupt {
                msg: format!(
                    "checkpoint meta checksum mismatch (stored {stored_crc:#010x}, computed {computed:#010x})"
                ),
                offset: 44,
            });
        }
        let meta = CkptMeta {
            seq: u64::from_le_bytes(head[12..20].try_into().expect("8 bytes")),
            count: u64::from_le_bytes(head[20..28].try_into().expect("8 bytes")),
            hash: u64::from_le_bytes(head[28..36].try_into().expect("8 bytes")),
            recounts: u64::from_le_bytes(head[36..44].try_into().expect("8 bytes")),
        };
        let store = AdjStore::read_snapshot(&mut r)?;
        Ok(Restored { store, meta })
    }

    /// Restores the newest readable generation: walks checkpoints
    /// newest-first (a corrupt one is reported on stderr and skipped
    /// in favor of the previous generation), replays every whole WAL
    /// record past the chosen seq, and re-opens the newest WAL for
    /// appending — truncated back past any torn tail record.
    ///
    /// `Ok(None)` means no durable state exists (cold start).
    pub fn restore(&mut self) -> io::Result<Option<Restored>> {
        let mut ckpts = self.generations("ckpt-")?;
        ckpts.reverse();
        let mut chosen = None;
        for seq in ckpts {
            match Self::read_checkpoint(&self.ckpt_path(seq)) {
                Ok(r) => {
                    chosen = Some(r);
                    break;
                }
                Err(e) => {
                    eprintln!(
                        "durability: checkpoint {} unusable ({e}); falling back a generation",
                        self.ckpt_path(seq).display()
                    );
                }
            }
        }
        let Some(mut restored) = chosen else { return Ok(None) };

        let mut bases = self.generations("wal-")?;
        bases.retain(|&b| b >= restored.meta.seq);
        let mut last: Option<(u64, u64)> = None;
        for &base in &bases {
            let (records, valid_len) = read_wal(&self.wal_path(base))?;
            for rec in records {
                apply_record(&mut restored, &rec);
            }
            last = Some((base, valid_len));
        }

        // Continue appending where the newest generation left off.
        let (base, valid_len) = match last {
            Some(x) => x,
            None => (restored.meta.seq, 0),
        };
        let mut wal = OpenOptions::new()
            .create(true)
            .write(true)
            .read(true)
            .truncate(false)
            .open(self.wal_path(base))?;
        wal.set_len(valid_len)?;
        wal.seek(SeekFrom::End(0))?;
        self.wal = Some(BufWriter::new(wal));
        self.wal_base = base;
        Ok(Some(restored))
    }

    /// Every retained WAL record with `seq > after`, in seq order —
    /// the bridge an up-to-date rank broadcasts so laggards can catch
    /// up during fleet resync.
    pub fn records_since(&self, after: u64) -> io::Result<Vec<WalRecord>> {
        let mut out: Vec<WalRecord> = Vec::new();
        for base in self.generations("wal-")? {
            let (records, _) = read_wal(&self.wal_path(base))?;
            for rec in records {
                if rec.seq > after && out.last().is_none_or(|l| rec.seq > l.seq) {
                    out.push(rec);
                }
            }
        }
        Ok(out)
    }
}

/// Replays one record onto a restored state: net deletes, then net
/// inserts (mirroring the engine), then the committed counters.
/// Records at or before the current seq are skipped (generations
/// overlap after a fallback); a gap in the stream stops replay at the
/// last contiguous record.
fn apply_record(restored: &mut Restored, rec: &WalRecord) {
    if rec.seq <= restored.meta.seq || rec.seq != restored.meta.seq + 1 {
        return;
    }
    for &(u, v) in &rec.deletes {
        restored.store.delete(u, v).expect("WAL delete is in range");
    }
    for &(u, v) in &rec.inserts {
        restored.store.insert(u, v).expect("WAL insert is in range");
    }
    restored.meta.seq = rec.seq;
    restored.meta.count = rec.count_after;
    restored.meta.hash = rec.hash_after;
}

fn encode_payload(rec: &WalRecord) -> Vec<u8> {
    let mut out = Vec::with_capacity(28 + 8 * (rec.inserts.len() + rec.deletes.len()));
    out.extend_from_slice(&rec.seq.to_le_bytes());
    out.extend_from_slice(&rec.count_after.to_le_bytes());
    out.extend_from_slice(&rec.hash_after.to_le_bytes());
    out.extend_from_slice(&(rec.inserts.len() as u32).to_le_bytes());
    out.extend_from_slice(&(rec.deletes.len() as u32).to_le_bytes());
    for &(u, v) in rec.inserts.iter().chain(&rec.deletes) {
        out.extend_from_slice(&u.to_le_bytes());
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

fn decode_payload(payload: &[u8]) -> Option<WalRecord> {
    if payload.len() < 28 {
        return None;
    }
    let seq = u64::from_le_bytes(payload[0..8].try_into().ok()?);
    let count_after = u64::from_le_bytes(payload[8..16].try_into().ok()?);
    let hash_after = u64::from_le_bytes(payload[16..24].try_into().ok()?);
    let n_ins = u32::from_le_bytes(payload[24..28].try_into().ok()?) as usize;
    let n_del = u32::from_le_bytes(payload[28..32].try_into().ok()?) as usize;
    if payload.len() != 32 + 8 * (n_ins + n_del) {
        return None;
    }
    let mut pairs = payload[32..].chunks_exact(8).map(|w| {
        (
            u32::from_le_bytes(w[0..4].try_into().expect("4 bytes")),
            u32::from_le_bytes(w[4..8].try_into().expect("4 bytes")),
        )
    });
    let inserts = pairs.by_ref().take(n_ins).collect();
    let deletes = pairs.collect();
    Some(WalRecord { seq, count_after, hash_after, inserts, deletes })
}

/// Reads every whole record of one WAL file. Returns the records and
/// the byte length of the valid prefix — anything past it (a torn
/// length word, short payload, or checksum mismatch: the footprint of
/// a crash mid-append) is dropped.
fn read_wal(path: &Path) -> io::Result<(Vec<WalRecord>, u64)> {
    let data = match fs::read(path) {
        Ok(d) => d,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok((Vec::new(), 0)),
        Err(e) => return Err(e),
    };
    let mut records = Vec::new();
    let mut at = 0usize;
    while let Some(len_bytes) = data.get(at..at + 4) {
        let len = u32::from_le_bytes(len_bytes.try_into().expect("4 bytes"));
        if len > WAL_RECORD_CAP {
            break;
        }
        let body_end = at + 4 + len as usize;
        let Some(payload) = data.get(at + 4..body_end) else { break };
        let Some(crc_bytes) = data.get(body_end..body_end + 4) else { break };
        let stored = u32::from_le_bytes(crc_bytes.try_into().expect("4 bytes"));
        if stored != crc32c(payload) {
            break;
        }
        let Some(rec) = decode_payload(payload) else { break };
        records.push(rec);
        at = body_end + 4;
    }
    Ok((records, at as u64))
}

/// Packs records into a `u32` stream for a fleet broadcast.
pub fn encode_records(recs: &[WalRecord]) -> Vec<u32> {
    let mut out = vec![recs.len() as u32];
    for rec in recs {
        for word in [rec.seq, rec.count_after, rec.hash_after] {
            out.push(word as u32);
            out.push((word >> 32) as u32);
        }
        out.push(rec.inserts.len() as u32);
        out.push(rec.deletes.len() as u32);
        for &(u, v) in rec.inserts.iter().chain(&rec.deletes) {
            out.push(u);
            out.push(v);
        }
    }
    out
}

/// Unpacks a [`encode_records`] stream.
///
/// # Panics
///
/// Panics on a malformed stream — the encoder is the only producer,
/// and the transport below it is CRC-framed.
pub fn decode_records(words: &[u32]) -> Vec<WalRecord> {
    let mut at = 1usize;
    let n = words[0] as usize;
    let mut out = Vec::with_capacity(n.min(tc_graph::adj::PREALLOC_CAP));
    let u64_at = |at: &mut usize| {
        let lo = words[*at] as u64;
        let hi = words[*at + 1] as u64;
        *at += 2;
        lo | (hi << 32)
    };
    for _ in 0..n {
        let seq = u64_at(&mut at);
        let count_after = u64_at(&mut at);
        let hash_after = u64_at(&mut at);
        let n_ins = words[at] as usize;
        let n_del = words[at + 1] as usize;
        at += 2;
        let mut pairs = Vec::with_capacity((n_ins + n_del).min(tc_graph::adj::PREALLOC_CAP));
        for _ in 0..n_ins + n_del {
            pairs.push((words[at], words[at + 1]));
            at += 2;
        }
        let deletes = pairs.split_off(n_ins);
        out.push(WalRecord { seq, count_after, hash_after, inserts: pairs, deletes });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store_with(n: usize, edges: &[(u32, u32)]) -> AdjStore {
        let mut s = AdjStore::new(n, 0, n);
        for &(u, v) in edges {
            s.insert(u, v).unwrap();
        }
        s
    }

    fn rec(seq: u64, inserts: &[(u32, u32)], deletes: &[(u32, u32)]) -> WalRecord {
        WalRecord {
            seq,
            count_after: 10 + seq,
            hash_after: 0xABCD ^ seq,
            inserts: inserts.to_vec(),
            deletes: deletes.to_vec(),
        }
    }

    #[test]
    fn checkpoint_and_wal_round_trip() {
        let dir = std::env::temp_dir().join(format!("tc-wal-rt-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let mut dur = Durability::open(&dir).unwrap();
        let store = store_with(6, &[(0, 1), (1, 2), (0, 2)]);
        dur.checkpoint(&store, CkptMeta { seq: 0, count: 1, hash: 77, recounts: 1 }).unwrap();
        dur.append(&rec(1, &[(2, 3)], &[])).unwrap();
        dur.append(&rec(2, &[(3, 4)], &[(0, 1)])).unwrap();

        let mut dur2 = Durability::open(&dir).unwrap();
        let restored = dur2.restore().unwrap().expect("state exists");
        assert_eq!(restored.meta.seq, 2);
        assert_eq!(restored.meta.count, 12);
        assert_eq!(restored.meta.recounts, 1);
        assert!(restored.store.contains(2, 3));
        assert!(restored.store.contains(3, 4));
        assert!(!restored.store.contains(0, 1));
        // The reopened WAL keeps accepting appends.
        dur2.append(&rec(3, &[(0, 1)], &[])).unwrap();
        let tail = dur2.records_since(2).unwrap();
        assert_eq!(tail.len(), 1);
        assert_eq!(tail[0].seq, 3);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_wal_tail_is_dropped_and_truncated() {
        let dir = std::env::temp_dir().join(format!("tc-wal-torn-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let mut dur = Durability::open(&dir).unwrap();
        let store = store_with(6, &[(0, 1)]);
        dur.checkpoint(&store, CkptMeta { seq: 0, count: 0, hash: 1, recounts: 1 }).unwrap();
        dur.append(&rec(1, &[(1, 2)], &[])).unwrap();
        dur.append(&rec(2, &[(2, 3)], &[])).unwrap();
        drop(dur);
        // Tear the last record mid-payload, as a crash mid-append would.
        let wal = dir.join("wal-0.bin");
        let bytes = fs::read(&wal).unwrap();
        fs::write(&wal, &bytes[..bytes.len() - 3]).unwrap();

        let mut dur = Durability::open(&dir).unwrap();
        let restored = dur.restore().unwrap().expect("state exists");
        assert_eq!(restored.meta.seq, 1, "torn record must not be replayed");
        assert!(restored.store.contains(1, 2));
        assert!(!restored.store.contains(2, 3));
        // New appends land after the truncated prefix and stay readable.
        dur.append(&rec(2, &[(4, 5)], &[])).unwrap();
        let tail = dur.records_since(0).unwrap();
        assert_eq!(tail.iter().map(|r| r.seq).collect::<Vec<_>>(), vec![1, 2]);
        assert_eq!(tail[1].inserts, vec![(4, 5)]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_checkpoint_is_typed_and_falls_back_a_generation() {
        let dir = std::env::temp_dir().join(format!("tc-wal-corrupt-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let mut dur = Durability::open(&dir).unwrap();
        let store = store_with(6, &[(0, 1)]);
        dur.checkpoint(&store, CkptMeta { seq: 0, count: 0, hash: 1, recounts: 1 }).unwrap();
        dur.append(&rec(1, &[(1, 2)], &[])).unwrap();
        let mut store2 = store_with(6, &[(0, 1)]);
        store2.insert(1, 2).unwrap();
        dur.checkpoint(&store2, CkptMeta { seq: 1, count: 0, hash: 2, recounts: 1 }).unwrap();
        drop(dur);

        // Flip a byte inside the newest checkpoint's snapshot body.
        let newest = dir.join("ckpt-1.bin");
        let mut bytes = fs::read(&newest).unwrap();
        let at = bytes.len() - 10;
        bytes[at] ^= 0xFF;
        fs::write(&newest, &bytes).unwrap();
        let err = Durability::read_checkpoint(&newest).unwrap_err();
        assert!(
            matches!(err, IoError::Corrupt { .. }),
            "flipped snapshot byte must surface as Corrupt, got {err:?}"
        );

        // restore() skips the bad generation and replays the previous
        // one's WAL to the same logical state.
        let mut dur = Durability::open(&dir).unwrap();
        let restored = dur.restore().unwrap().expect("previous generation survives");
        assert_eq!(restored.meta.seq, 1);
        assert_eq!(restored.meta.hash, 0xABCD ^ 1, "WAL replay carries the record's hash");
        assert!(restored.store.contains(1, 2));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_checkpoint_meta_is_corrupt() {
        let dir = std::env::temp_dir().join(format!("tc-wal-shortmeta-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ckpt-0.bin");
        fs::write(&path, [0u8; 10]).unwrap();
        let err = Durability::read_checkpoint(&path).unwrap_err();
        assert!(matches!(err, IoError::Corrupt { offset: 0, .. }), "got {err:?}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn prune_keeps_the_two_newest_generations() {
        let dir = std::env::temp_dir().join(format!("tc-wal-prune-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let mut dur = Durability::open(&dir).unwrap();
        let store = store_with(4, &[(0, 1)]);
        for seq in [0, 5, 9] {
            dur.checkpoint(&store, CkptMeta { seq, count: 0, hash: 0, recounts: 1 }).unwrap();
        }
        assert!(!dir.join("ckpt-0.bin").exists());
        assert!(!dir.join("wal-0.bin").exists());
        assert!(dir.join("ckpt-5.bin").exists());
        assert!(dir.join("ckpt-9.bin").exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn record_streams_round_trip_the_broadcast_encoding() {
        let recs =
            vec![rec(1, &[(0, 1), (2, 3)], &[(4, 5)]), rec(2, &[], &[(0, 1)]), rec(3, &[], &[])];
        assert_eq!(decode_records(&encode_records(&recs)), recs);
        assert_eq!(decode_records(&encode_records(&[])), Vec::<WalRecord>::new());
    }
}
