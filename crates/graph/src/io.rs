//! Graph input/output.
//!
//! Three interchange formats:
//!
//! - **Text edge list** — one `u v` pair per line, `#`/`%` comments.
//! - **Binary edge list** — little-endian `u64 n, u64 m` header
//!   followed by `m` pairs of `u32`; the format used by the workload
//!   cache in `tc-bench` so large synthetic graphs are generated once.
//! - **Matrix Market** (`%%MatrixMarket matrix coordinate pattern
//!   general|symmetric`) — the format most public graph repositories
//!   (SuiteSparse, Graph Challenge — the paper's twitter/friendster
//!   sources) distribute.

use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

use crate::edgelist::{EdgeList, VertexId};

/// Errors raised by the readers.
#[derive(Debug)]
pub enum IoError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Structurally invalid content (message, 1-based line if known).
    Parse(String, Option<usize>),
    /// Structurally invalid binary content; `offset` is the absolute
    /// byte position of the offending (or missing) bytes.
    Corrupt {
        /// What is wrong with the bytes at `offset`.
        msg: String,
        /// Absolute byte offset from the start of the stream.
        offset: u64,
    },
}

impl From<io::Error> for IoError {
    fn from(e: io::Error) -> Self {
        IoError::Io(e)
    }
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "i/o error: {e}"),
            IoError::Parse(msg, Some(line)) => write!(f, "parse error at line {line}: {msg}"),
            IoError::Parse(msg, None) => write!(f, "parse error: {msg}"),
            IoError::Corrupt { msg, offset } => {
                write!(f, "corrupt binary at byte {offset}: {msg}")
            }
        }
    }
}

impl std::error::Error for IoError {}

/// Hard ceiling on the edge-record count a reader accepts from an
/// untrusted header (duplicates included). Far above any real graph,
/// but low enough that `records × 8` bytes can never overflow the
/// address computations downstream.
pub const MAX_EDGE_RECORDS: u64 = (usize::MAX / 32) as u64;

/// Result alias for this module.
pub type Result<T> = std::result::Result<T, IoError>;

fn parse_pair(line: &str, lineno: usize) -> Result<Option<(u64, u64)>> {
    let t = line.trim();
    if t.is_empty() || t.starts_with('#') || t.starts_with('%') {
        return Ok(None);
    }
    let mut it = t.split_whitespace();
    let a =
        it.next().ok_or_else(|| IoError::Parse("missing first endpoint".into(), Some(lineno)))?;
    let b =
        it.next().ok_or_else(|| IoError::Parse("missing second endpoint".into(), Some(lineno)))?;
    let a: u64 =
        a.parse().map_err(|_| IoError::Parse(format!("bad vertex id {a:?}"), Some(lineno)))?;
    let b: u64 =
        b.parse().map_err(|_| IoError::Parse(format!("bad vertex id {b:?}"), Some(lineno)))?;
    Ok(Some((a, b)))
}

/// Reads a text edge list; vertex count is `max id + 1`.
pub fn read_text_edges(reader: impl Read) -> Result<EdgeList> {
    let mut edges: Vec<(VertexId, VertexId)> = Vec::new();
    let mut max_id: u64 = 0;
    let mut r = BufReader::new(reader);
    let mut line = String::new();
    let mut lineno = 0usize;
    loop {
        line.clear();
        if r.read_line(&mut line)? == 0 {
            break;
        }
        lineno += 1;
        if let Some((a, b)) = parse_pair(&line, lineno)? {
            if a > u32::MAX as u64 || b > u32::MAX as u64 {
                return Err(IoError::Parse("vertex id exceeds u32".into(), Some(lineno)));
            }
            max_id = max_id.max(a).max(b);
            edges.push((a as VertexId, b as VertexId));
        }
    }
    let n = if edges.is_empty() { 0 } else { max_id as usize + 1 };
    Ok(EdgeList::new(n, edges))
}

/// Reads a text edge-list file.
pub fn read_text_edges_path(path: impl AsRef<Path>) -> Result<EdgeList> {
    read_text_edges(File::open(path)?)
}

/// Writes a simplified edge list as text (`# n m` header comment).
pub fn write_text_edges(el: &EdgeList, writer: impl Write) -> Result<()> {
    let mut w = BufWriter::new(writer);
    writeln!(w, "# vertices {} edges {}", el.num_vertices, el.num_edges())?;
    for &(u, v) in &el.edges {
        writeln!(w, "{u} {v}")?;
    }
    w.flush()?;
    Ok(())
}

const BIN_MAGIC: u64 = 0x5443_4247_5241_5048; // "TCBGRAPH"

/// Writes the compact binary format, encoded 64 KiB at a time into one
/// reused buffer, one `write_all` per chunk.
pub fn write_binary_edges(el: &EdgeList, mut writer: impl Write) -> Result<()> {
    let chunk = 8 * CHUNK_RECORDS;
    let mut buf = Vec::with_capacity(chunk + BIN_HEADER as usize);
    for word in [BIN_MAGIC, el.num_vertices as u64, el.edges.len() as u64] {
        buf.extend_from_slice(&word.to_le_bytes());
    }
    for &(u, v) in &el.edges {
        buf.extend_from_slice(&u.to_le_bytes());
        buf.extend_from_slice(&v.to_le_bytes());
        if buf.len() >= chunk {
            writer.write_all(&buf)?;
            buf.clear();
        }
    }
    writer.write_all(&buf)?;
    writer.flush()?;
    Ok(())
}

/// Writes the binary format to a file path.
pub fn write_binary_edges_path(el: &EdgeList, path: impl AsRef<Path>) -> Result<()> {
    write_binary_edges(el, File::create(path)?)
}

/// Reads `buf.len()` bytes starting at absolute offset `offset`,
/// turning a short read into a [`IoError::Corrupt`] that names what
/// was expected there. Shared by every hardened binary reader in the
/// crate (edge lists here, adjacency snapshots in [`crate::adj`]).
pub(crate) fn read_fully(
    r: &mut impl Read,
    buf: &mut [u8],
    offset: u64,
    what: impl FnOnce() -> String,
) -> Result<()> {
    r.read_exact(buf).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            IoError::Corrupt { msg: format!("truncated: {} missing", what()), offset }
        } else {
            IoError::Io(e)
        }
    })
}

/// Streaming CRC32c (Castagnoli), the one checksum of the tree: binary
/// snapshots in [`crate::adj`], the serve WAL, the generator goldens
/// and the `tc-mps` wire frames.
#[derive(Debug, Clone, Default)]
pub struct Crc32c(u32);

impl Crc32c {
    /// A fresh checksum state.
    pub fn new() -> Self {
        Self(0)
    }

    /// Folds `data` into the running checksum.
    pub fn update(&mut self, data: &[u8]) {
        let reg = !self.0;
        self.0 = !update_hw(reg, data).unwrap_or_else(|| update_table(reg, data));
    }

    /// The checksum of everything folded in so far.
    pub fn finish(&self) -> u32 {
        self.0
    }
}

/// CRC32c of one slice.
pub fn crc32c(data: &[u8]) -> u32 {
    let mut c = Crc32c::new();
    c.update(data);
    c.finish()
}

/// The byte-at-a-time fold: the fallback, and the tests' reference.
fn update_table(mut crc: u32, data: &[u8]) -> u32 {
    for &byte in data {
        crc = (crc >> 8) ^ CRC32C_TABLE[((crc ^ byte as u32) & 0xff) as usize];
    }
    crc
}

/// The fold, eight bytes per `crc32` instruction (`None` without SSE4.2).
/// Debug builds check every input of at most 4 KiB against the table.
fn update_hw(crc: u32, data: &[u8]) -> Option<u32> {
    #[cfg(target_arch = "x86_64")]
    if std::is_x86_feature_detected!("sse4.2") {
        // SAFETY: `update_sse42` needs SSE4.2 and nothing else, and the
        // line above found it on this CPU.
        let folded = unsafe { update_sse42(crc, data) };
        debug_assert!(data.len() > 4096 || folded == update_table(crc, data));
        return Some(folded);
    }
    let _ = (crc, data);
    None
}

/// # Safety
///
/// The CPU must support SSE4.2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
unsafe fn update_sse42(crc: u32, data: &[u8]) -> u32 {
    let mut words = data.chunks_exact(8);
    let mut c = u64::from(crc);
    for word in &mut words {
        let word = u64::from_le_bytes(word.try_into().expect("chunks of eight bytes"));
        c = std::arch::x86_64::_mm_crc32_u64(c, word);
    }
    // The instruction keeps the register in the low 32 bits.
    update_table(c as u32, words.remainder())
}

/// The byte table of the reflected Castagnoli polynomial.
const CRC32C_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0x82F6_3B78 } else { crc >> 1 };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// Byte length of the binary header (magic, `n`, `m`).
const BIN_HEADER: u64 = 24;

/// Records per `read` of the binary readers (stripes of
/// [`EdgeSource::visit_stripe`] included) and per `write` of the writer
/// (64 KiB).
pub const CHUNK_RECORDS: usize = 8192;

/// Reads and checks the 24-byte binary header, returning `(n, m)`.
fn read_binary_header(r: &mut impl Read) -> Result<(usize, usize)> {
    let mut buf8 = [0u8; 8];
    read_fully(r, &mut buf8, 0, || "8-byte magic".into())?;
    let magic = u64::from_le_bytes(buf8);
    if magic != BIN_MAGIC {
        return Err(IoError::Corrupt {
            msg: format!("bad magic {magic:#018x} (expected {BIN_MAGIC:#018x})"),
            offset: 0,
        });
    }
    read_fully(r, &mut buf8, 8, || "vertex-count header".into())?;
    let n64 = u64::from_le_bytes(buf8);
    if n64 > u64::from(u32::MAX) + 1 {
        return Err(IoError::Corrupt {
            msg: format!("vertex count {n64} exceeds the u32 id space"),
            offset: 8,
        });
    }
    read_fully(r, &mut buf8, 16, || "edge-count header".into())?;
    let m64 = u64::from_le_bytes(buf8);
    if m64 > MAX_EDGE_RECORDS {
        return Err(IoError::Corrupt {
            msg: format!(
                "edge count {m64} overflows the record limit {MAX_EDGE_RECORDS} \
                 (duplicates included)"
            ),
            offset: 16,
        });
    }
    Ok((n64 as usize, m64 as usize))
}

/// The truncation error of a stream that ends `have` bytes into the
/// records of an `m`-edge file: names the first incomplete edge and
/// the offset of its first missing endpoint.
fn truncated_at(have: u64, m: usize) -> IoError {
    let edge = have / 8;
    let offset = BIN_HEADER + edge * 8 + if have % 8 >= 4 { 4 } else { 0 };
    IoError::Corrupt { msg: format!("truncated: edge {edge} of {m} missing"), offset }
}

/// Appends records `[first, first + count)` of an `m`-edge, `n`-vertex
/// binary stream positioned at record `first` to `out`, 64 KiB per
/// read. Truncation and endpoints `>= n` are typed errors naming the
/// edge and its byte offset, reported in stream order.
fn decode_records(
    mut r: impl Read,
    first: usize,
    count: usize,
    (n, m): (usize, usize),
    out: &mut Vec<(VertexId, VertexId)>,
) -> Result<()> {
    let mut chunk = vec![0u8; 8 * count.min(CHUNK_RECORDS)];
    let mut at = first;
    while at < first + count {
        let want = 8 * (first + count - at).min(CHUNK_RECORDS);
        let got = fill(&mut r, &mut chunk[..want])?;
        for (i, rec) in chunk[..got].chunks_exact(8).enumerate() {
            let (u, v) = record(rec);
            if u as usize >= n || v as usize >= n {
                let msg = canonical_defect(at + i, None, (u, v), n);
                return Err(IoError::Corrupt { msg, offset: record_offset(at + i) });
            }
            out.push((u, v));
        }
        if got < want {
            return Err(truncated_at(8 * at as u64 + got as u64, m));
        }
        at += want / 8;
    }
    Ok(())
}

/// Reads into `buf` until it is full or the stream ends, returning the
/// byte count read.
fn fill(r: &mut impl Read, buf: &mut [u8]) -> Result<usize> {
    let mut got = 0;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) => break,
            Ok(k) => got += k,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(IoError::Io(e)),
        }
    }
    Ok(got)
}

/// The endpoints of one 8-byte record.
fn record(rec: &[u8]) -> (VertexId, VertexId) {
    let half = |h: &[u8]| u32::from_le_bytes(h.try_into().expect("4-byte half"));
    (half(&rec[..4]), half(&rec[4..]))
}

/// Reads the compact binary format.
///
/// Every structural defect — truncation (at the header or mid-edge),
/// a vertex count outside the u32 id space, an edge count that could
/// not fit in memory, an endpoint `>= n` — is a typed
/// [`IoError::Corrupt`] carrying the byte offset and, for per-edge
/// defects, the edge index. The header's edge count is never trusted
/// for the allocation, so a hostile 16-byte file cannot reserve
/// gigabytes before its first record fails to parse.
pub fn read_binary_edges(mut reader: impl Read) -> Result<EdgeList> {
    let (n, m) = read_binary_header(&mut reader)?;
    let mut edges = Vec::with_capacity(m.min(1 << 20));
    decode_records(reader, 0, m, (n, m), &mut edges)?;
    Ok(EdgeList::new(n, edges))
}

/// Reads the binary format from a file path.
pub fn read_binary_edges_path(path: impl AsRef<Path>) -> Result<EdgeList> {
    read_binary_edges(File::open(path)?)
}

/// Byte offset of edge record `index` in the binary format.
fn record_offset(index: usize) -> u64 {
    BIN_HEADER + 8 * index as u64
}

/// What makes record `index` of an edge list — `cur`, preceded by
/// `prev` — break the canonical form `u < v < n`, strictly ascending.
/// Call it only for a record that does.
fn canonical_defect(
    index: usize,
    prev: Option<(VertexId, VertexId)>,
    cur: (VertexId, VertexId),
    n: usize,
) -> String {
    let (u, v) = cur;
    if u as usize >= n || v as usize >= n {
        let bad = if u as usize >= n { u } else { v };
        format!("edge {index}: endpoint {bad} out of range (n = {n})")
    } else if u == v {
        format!("edge {index}: self-loop ({u}, {v})")
    } else if u > v {
        format!("edge {index}: descending pair ({u}, {v}), want (min, max)")
    } else if prev == Some(cur) {
        format!("edge {index}: duplicate of the edge before it, ({u}, {v})")
    } else {
        let (pu, pv) =
            prev.expect("an in-range ascending pair is only wrong against its predecessor");
        format!("edge {index}: ({u}, {v}) follows ({pu}, {pv}), want strictly ascending")
    }
}

/// A `.bin` edge list opened for sliced reads: the header is parsed
/// and checked against the file's length once, after which any number
/// of threads (or processes, each with its own handle) read disjoint
/// record ranges with positioned reads and never the whole file.
#[derive(Debug)]
pub struct EdgeFile {
    file: File,
    n: usize,
    m: usize,
}

/// `Read` over a file from a fixed position that leaves the shared
/// cursor alone, so concurrent slices of one handle do not race.
struct ReadAt<'a> {
    file: &'a File,
    pos: u64,
}

impl Read for ReadAt<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let k = std::os::unix::fs::FileExt::read_at(self.file, buf, self.pos)?;
        self.pos += k as u64;
        Ok(k)
    }
}

impl EdgeFile {
    /// Opens `path` and validates its header with the errors of
    /// [`read_binary_edges`]; a file shorter or longer than the
    /// `24 + 8·m` bytes its header announces is rejected here, so a
    /// slice can later be sized from `m` without trusting it.
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        let mut file = File::open(path)?;
        let (n, m) = read_binary_header(&mut file)?;
        let len = file.metadata()?.len();
        let want = record_offset(m);
        if len < want {
            return Err(truncated_at(len.saturating_sub(BIN_HEADER), m));
        }
        if len > want {
            return Err(IoError::Corrupt {
                msg: format!("{} bytes after the last of {m} edges", len - want),
                offset: want,
            });
        }
        Ok(Self { file, n, m })
    }

    /// Vertex count from the header.
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Edge-record count from the header.
    pub fn num_edges(&self) -> usize {
        self.m
    }

    /// Reads records `[lo, hi)`, checking every endpoint against `n`.
    ///
    /// # Panics
    ///
    /// Panics unless `lo <= hi <= m`.
    pub fn read_records(&self, lo: usize, hi: usize) -> Result<Vec<(VertexId, VertexId)>> {
        assert!(lo <= hi && hi <= self.m, "records [{lo}, {hi}) outside 0..{}", self.m);
        let mut out = Vec::with_capacity(hi - lo);
        let at = ReadAt { file: &self.file, pos: record_offset(lo) };
        decode_records(at, lo, hi - lo, (self.n, self.m), &mut out)?;
        Ok(out)
    }
}

/// A whole graph as a canonical edge list (`u < v < n`, strictly
/// ascending) that `p` readers take in stripes: reader `r` gets
/// records `[m·r/p, m·(r+1)/p)` and touches nothing else.
#[derive(Debug, Clone, Copy)]
pub enum EdgeSource<'a> {
    /// In memory; a stripe is a borrowed sub-slice.
    List(&'a EdgeList),
    /// A `.bin` file; a stripe is one positioned read.
    File(&'a EdgeFile),
}

impl<'a> From<&'a EdgeList> for EdgeSource<'a> {
    fn from(el: &'a EdgeList) -> Self {
        EdgeSource::List(el)
    }
}

impl<'a> From<&'a EdgeFile> for EdgeSource<'a> {
    fn from(file: &'a EdgeFile) -> Self {
        EdgeSource::File(file)
    }
}

impl<'a> EdgeSource<'a> {
    /// Global vertex count.
    pub fn num_vertices(&self) -> usize {
        match self {
            EdgeSource::List(el) => el.num_vertices,
            EdgeSource::File(file) => file.n,
        }
    }

    /// Edge-record count.
    pub fn num_edges(&self) -> usize {
        match self {
            EdgeSource::List(el) => el.edges.len(),
            EdgeSource::File(file) => file.m,
        }
    }

    /// Walks stripe `rank` of `p` in order, checking each record against
    /// the canonical form before `visit` sees it — against the record
    /// before it too, across the stripe's start included, so that `p`
    /// clean stripes make a clean list. A file stripe is read
    /// [`CHUNK_RECORDS`] records at a time into one buffer, so no
    /// caller holds a whole stripe; a list stripe is walked in place. A
    /// defect is an [`IoError::Corrupt`] naming the record and the byte
    /// offset it has (for a list: would have) in the binary format; the
    /// records before it have been visited.
    pub fn visit_stripe(
        &self,
        rank: usize,
        p: usize,
        mut visit: impl FnMut(VertexId, VertexId),
    ) -> Result<()> {
        let (n, m) = (self.num_vertices(), self.num_edges());
        let cut = |r: usize| (m as u128 * r as u128 / p as u128) as usize;
        let (lo, hi) = (cut(rank), cut(rank + 1));
        let mut prev = match *self {
            EdgeSource::List(el) => lo.checked_sub(1).map(|i| el.edges[i]),
            EdgeSource::File(file) if lo > 0 => file.read_records(lo - 1, lo)?.pop(),
            EdgeSource::File(_) => None,
        };
        // `prev < Some(rec)` holds for any record when `prev` is `None`.
        let canonical = |prev: Option<(VertexId, VertexId)>, (u, v): (VertexId, VertexId)| {
            u < v && (v as usize) < n && prev < Some((u, v))
        };
        let defect = |index: usize, prev, rec| IoError::Corrupt {
            msg: canonical_defect(index, prev, rec, n),
            offset: record_offset(index),
        };
        match *self {
            EdgeSource::List(el) => {
                for (i, &rec) in (lo..).zip(&el.edges[lo..hi]) {
                    if !canonical(prev, rec) {
                        return Err(defect(i, prev, rec));
                    }
                    prev = Some(rec);
                    visit(rec.0, rec.1);
                }
            }
            EdgeSource::File(file) => {
                let mut at = ReadAt { file: &file.file, pos: record_offset(lo) };
                let mut chunk = vec![0u8; 8 * (hi - lo).min(CHUNK_RECORDS)];
                for first in (lo..hi).step_by(CHUNK_RECORDS) {
                    let want = 8 * (hi.min(first + CHUNK_RECORDS) - first);
                    let got = fill(&mut at, &mut chunk[..want])?;
                    for (i, rec) in (first..).zip(chunk[..got].chunks_exact(8)) {
                        let rec = record(rec);
                        if !canonical(prev, rec) {
                            return Err(defect(i, prev, rec));
                        }
                        prev = Some(rec);
                        visit(rec.0, rec.1);
                    }
                    if got < want {
                        return Err(truncated_at(8 * first as u64 + got as u64, m));
                    }
                }
            }
        }
        Ok(())
    }
}

/// Reads a Matrix Market coordinate-pattern file (1-based indices;
/// `general` or `symmetric`). Entry values, if present, are ignored
/// (pattern semantics), matching how graph repositories ship adjacency
/// matrices.
pub fn read_matrix_market(reader: impl Read) -> Result<EdgeList> {
    let mut r = BufReader::new(reader);
    let mut line = String::new();
    if r.read_line(&mut line)? == 0 {
        return Err(IoError::Parse("empty file".into(), Some(1)));
    }
    let header = line.trim().to_ascii_lowercase();
    if !header.starts_with("%%matrixmarket") {
        return Err(IoError::Parse("missing MatrixMarket banner".into(), Some(1)));
    }
    if !header.contains("coordinate") {
        return Err(IoError::Parse("only coordinate format supported".into(), Some(1)));
    }
    if !(header.contains("general") || header.contains("symmetric")) {
        return Err(IoError::Parse("only general/symmetric symmetry supported".into(), Some(1)));
    }

    // Skip comments to the size line.
    let mut lineno = 1usize;
    let (rows, cols, nnz) = loop {
        line.clear();
        if r.read_line(&mut line)? == 0 {
            return Err(IoError::Parse("missing size line".into(), Some(lineno)));
        }
        lineno += 1;
        let t = line.trim();
        if t.is_empty() || t.starts_with('%') {
            continue;
        }
        let parts: Vec<u64> = t
            .split_whitespace()
            .map(|s| {
                s.parse::<u64>()
                    .map_err(|_| IoError::Parse(format!("bad size field {s:?}"), Some(lineno)))
            })
            .collect::<Result<_>>()?;
        if parts.len() != 3 {
            return Err(IoError::Parse("size line needs 3 fields".into(), Some(lineno)));
        }
        break (parts[0], parts[1], parts[2]);
    };
    if rows != cols {
        return Err(IoError::Parse("adjacency matrix must be square".into(), Some(lineno)));
    }
    if nnz > MAX_EDGE_RECORDS {
        return Err(IoError::Parse(
            format!("entry count {nnz} overflows the record limit {MAX_EDGE_RECORDS}"),
            Some(lineno),
        ));
    }
    let n = rows as usize;
    // Entries arrive one text line each; trust actual lines, not the
    // header, for the allocation.
    let mut edges = Vec::with_capacity((nnz as usize).min(1 << 20));
    let mut seen = 0u64;
    while seen < nnz {
        line.clear();
        if r.read_line(&mut line)? == 0 {
            return Err(IoError::Parse(
                format!("expected {nnz} entries, found {seen}"),
                Some(lineno),
            ));
        }
        lineno += 1;
        if let Some((a, b)) = parse_pair(&line, lineno)? {
            if a == 0 || b == 0 || a > rows || b > cols {
                return Err(IoError::Parse("index out of range (1-based)".into(), Some(lineno)));
            }
            edges.push(((a - 1) as VertexId, (b - 1) as VertexId));
            seen += 1;
        }
    }
    Ok(EdgeList::new(n, edges))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_roundtrip() {
        let el = EdgeList::new(5, vec![(0, 1), (2, 4), (1, 3)]).simplify();
        let mut buf = Vec::new();
        write_text_edges(&el, &mut buf).unwrap();
        let back = read_text_edges(&buf[..]).unwrap().simplify();
        assert_eq!(back, el);
    }

    #[test]
    fn text_skips_comments_and_blank_lines() {
        let src = "# comment\n\n0 1\n% more\n1 2\n";
        let el = read_text_edges(src.as_bytes()).unwrap();
        assert_eq!(el.edges, vec![(0, 1), (1, 2)]);
        assert_eq!(el.num_vertices, 3);
    }

    #[test]
    fn text_reports_bad_line() {
        let src = "0 1\nfoo bar\n";
        let err = read_text_edges(src.as_bytes()).unwrap_err();
        assert!(matches!(err, IoError::Parse(_, Some(2))));
    }

    #[test]
    fn binary_roundtrip() {
        let el = EdgeList::new(100, vec![(0, 99), (50, 51), (2, 3)]).simplify();
        let mut buf = Vec::new();
        write_binary_edges(&el, &mut buf).unwrap();
        let back = read_binary_edges(&buf[..]).unwrap();
        assert_eq!(back, el);
    }

    #[test]
    fn binary_rejects_corruption() {
        let el = EdgeList::new(4, vec![(0, 1)]);
        let mut buf = Vec::new();
        write_binary_edges(&el, &mut buf).unwrap();
        buf[0] ^= 0xff;
        assert!(read_binary_edges(&buf[..]).is_err());
    }

    #[test]
    fn binary_rejects_out_of_range_endpoint() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&super::BIN_MAGIC.to_le_bytes());
        buf.extend_from_slice(&2u64.to_le_bytes()); // n = 2
        buf.extend_from_slice(&1u64.to_le_bytes()); // m = 1
        buf.extend_from_slice(&0u32.to_le_bytes());
        buf.extend_from_slice(&7u32.to_le_bytes()); // 7 >= n
        match read_binary_edges(&buf[..]).unwrap_err() {
            IoError::Corrupt { msg, offset } => {
                assert_eq!(offset, 24, "offset of the bad edge record");
                assert!(msg.contains("edge 0"), "{msg}");
                assert!(msg.contains('7'), "{msg}");
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn binary_truncated_header_reports_offset() {
        let el = EdgeList::new(4, vec![(0, 1)]);
        let mut buf = Vec::new();
        write_binary_edges(&el, &mut buf).unwrap();
        buf.truncate(20); // mid edge-count field
        match read_binary_edges(&buf[..]).unwrap_err() {
            IoError::Corrupt { msg, offset } => {
                assert_eq!(offset, 16);
                assert!(msg.contains("edge-count header"), "{msg}");
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn binary_truncated_mid_stream_reports_edge_and_offset() {
        let el = EdgeList::new(10, vec![(0, 1), (2, 3), (4, 5)]);
        let mut buf = Vec::new();
        write_binary_edges(&el, &mut buf).unwrap();
        buf.truncate(buf.len() - 2); // lose half of the last endpoint
        match read_binary_edges(&buf[..]).unwrap_err() {
            IoError::Corrupt { msg, offset } => {
                assert_eq!(offset, 24 + 2 * 8 + 4, "offset of the missing endpoint");
                assert!(msg.contains("edge 2 of 3"), "{msg}");
                assert!(msg.contains("truncated"), "{msg}");
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn binary_rejects_overflowing_edge_count_before_allocating() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&super::BIN_MAGIC.to_le_bytes());
        buf.extend_from_slice(&4u64.to_le_bytes());
        buf.extend_from_slice(&u64::MAX.to_le_bytes()); // absurd m
        match read_binary_edges(&buf[..]).unwrap_err() {
            IoError::Corrupt { msg, offset } => {
                assert_eq!(offset, 16);
                assert!(msg.contains("edge count"), "{msg}");
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn binary_huge_plausible_edge_count_does_not_preallocate() {
        // Claims 2^40 edges but carries none: must fail on truncation
        // at edge 0 without first reserving 8 TiB for the header's m.
        let mut buf = Vec::new();
        buf.extend_from_slice(&super::BIN_MAGIC.to_le_bytes());
        buf.extend_from_slice(&4u64.to_le_bytes());
        buf.extend_from_slice(&(1u64 << 40).to_le_bytes());
        match read_binary_edges(&buf[..]).unwrap_err() {
            IoError::Corrupt { msg, offset } => {
                assert_eq!(offset, 24);
                assert!(msg.contains("edge 0"), "{msg}");
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn binary_rejects_vertex_count_beyond_u32() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&super::BIN_MAGIC.to_le_bytes());
        buf.extend_from_slice(&u64::MAX.to_le_bytes());
        buf.extend_from_slice(&0u64.to_le_bytes());
        match read_binary_edges(&buf[..]).unwrap_err() {
            IoError::Corrupt { msg, offset } => {
                assert_eq!(offset, 8);
                assert!(msg.contains("vertex count"), "{msg}");
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    /// The `.bin` bytes of `n` vertices and `records`, unchecked.
    fn bin(n: u64, records: &[(u32, u32)]) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.extend_from_slice(&super::BIN_MAGIC.to_le_bytes());
        buf.extend_from_slice(&n.to_le_bytes());
        buf.extend_from_slice(&(records.len() as u64).to_le_bytes());
        for &(u, v) in records {
            buf.extend_from_slice(&u.to_le_bytes());
            buf.extend_from_slice(&v.to_le_bytes());
        }
        buf
    }

    /// `bytes` as a file in the temp directory, opened for slicing.
    fn open_bytes(name: &str, bytes: &[u8]) -> Result<EdgeFile> {
        let path = std::env::temp_dir().join(format!("tc-io-{}-{name}.bin", std::process::id()));
        std::fs::write(&path, bytes).unwrap();
        let opened = EdgeFile::open(&path);
        std::fs::remove_file(&path).unwrap();
        opened
    }

    fn corrupt(e: IoError) -> (String, u64) {
        match e {
            IoError::Corrupt { msg, offset } => (msg, offset),
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn binary_reader_crosses_chunk_boundaries() {
        // Three chunks and a bit; the whole-file reader and every
        // slice agree with the list that was written.
        let m = 2 * CHUNK_RECORDS + 77;
        let records: Vec<(u32, u32)> = (0..m as u32).map(|i| (i / 3, i / 3 + 1 + i % 3)).collect();
        let bytes = bin(1 << 20, &records);
        assert_eq!(read_binary_edges(&bytes[..]).unwrap().edges, records);
        let file = open_bytes("chunks", &bytes).unwrap();
        assert_eq!((file.num_vertices(), file.num_edges()), (1 << 20, m));
        for (lo, hi) in [(0, m), (0, 0), (m, m), (1, CHUNK_RECORDS), (CHUNK_RECORDS - 1, m - 1)] {
            assert_eq!(file.read_records(lo, hi).unwrap(), records[lo..hi], "[{lo}, {hi})");
        }
        // A bad endpoint and a truncation beyond the first chunk keep
        // their edge index and byte offset in both readers.
        let bad = CHUNK_RECORDS + 5;
        let mut wrong = bytes.clone();
        wrong[24 + 8 * bad + 4..][..4].copy_from_slice(&u32::MAX.to_le_bytes());
        let want = (
            format!("edge {bad}: endpoint {} out of range (n = 1048576)", u32::MAX),
            24 + 8 * bad as u64,
        );
        assert_eq!(corrupt(read_binary_edges(&wrong[..]).unwrap_err()), want);
        let sliced = open_bytes("bad-endpoint", &wrong).unwrap();
        assert_eq!(corrupt(sliced.read_records(bad - 2, bad + 2).unwrap_err()), want);
        assert!(sliced.read_records(0, bad).is_ok(), "slices before the defect are clean");
        let cut = 24 + 8 * (m - 9) + 5;
        let want =
            (format!("truncated: edge {} of {m} missing", m - 9), 24 + 8 * (m as u64 - 9) + 4);
        assert_eq!(corrupt(read_binary_edges(&bytes[..cut]).unwrap_err()), want);
        assert_eq!(corrupt(open_bytes("cut", &bytes[..cut]).unwrap_err()), want);
    }

    /// Every record `visit_stripe` visits, in order.
    fn visited(src: EdgeSource<'_>, rank: usize, p: usize) -> Result<Vec<(u32, u32)>> {
        let mut records = Vec::new();
        src.visit_stripe(rank, p, |u, v| records.push((u, v)))?;
        Ok(records)
    }

    #[test]
    fn file_stripes_are_visited_like_list_stripes() {
        // Two stripes of CHUNK - 1, CHUNK and CHUNK + 1 records each.
        for len in [CHUNK_RECORDS - 1, CHUNK_RECORDS, CHUNK_RECORDS + 1] {
            let m = 2 * len;
            let edges: Vec<(u32, u32)> =
                (0..m as u32).map(|i| (i / 3, i / 3 + 1 + i % 3)).collect();
            let n = m / 3 + 4;
            let el = EdgeList { num_vertices: n, edges: edges.clone() };
            let file = open_bytes("visit", &bin(n as u64, &edges)).unwrap();
            for rank in 0..2 {
                let (list, file) = (EdgeSource::List(&el), EdgeSource::File(&file));
                let stripe = &edges[rank * len..(rank + 1) * len];
                assert_eq!(visited(file, rank, 2).unwrap(), stripe, "len {len} rank {rank}");
                assert_eq!(visited(list, rank, 2).unwrap(), stripe, "len {len} rank {rank}");
            }

            // A defect on the first record of stripe 1 (checked against
            // stripe 0's last record) and, for the longer stripes, on the
            // first record of stripe 0's second chunk: both sources name
            // the same record at the same offset.
            let mut firsts = vec![len];
            firsts.extend((len > CHUNK_RECORDS).then_some(CHUNK_RECORDS));
            for at in firsts {
                let (pu, pv) = edges[at - 1];
                for record in [(pu, pv), (pu, pu), (pv, pu), (pu, n as u32), (pu - 1, pv)] {
                    let mut bad = edges.clone();
                    bad[at] = record;
                    let el = EdgeList { num_vertices: n, edges: bad.clone() };
                    let file = open_bytes("visit-bad", &bin(n as u64, &bad)).unwrap();
                    let rank = at / len;
                    let list = corrupt(visited(EdgeSource::List(&el), rank, 2).unwrap_err());
                    let from_file = corrupt(visited(EdgeSource::File(&file), rank, 2).unwrap_err());
                    assert_eq!(list, from_file, "record {at} = {record:?}");
                    assert_eq!(list.1, record_offset(at), "{}", list.0);
                    assert!(list.0.starts_with(&format!("edge {at}: ")), "{}", list.0);
                }
            }
        }
    }

    #[test]
    fn edge_file_checks_the_length_against_the_header() {
        let bytes = bin(4, &[(0, 1), (1, 2), (2, 3)]);
        let file = open_bytes("exact", &bytes).unwrap();
        assert_eq!(file.read_records(1, 3).unwrap(), [(1, 2), (2, 3)]);
        let empty = open_bytes("empty", &bin(7, &[])).unwrap();
        assert_eq!((empty.num_vertices(), empty.num_edges()), (7, 0));
        assert_eq!(empty.read_records(0, 0).unwrap(), []);

        // Longer than 24 + 8m: rejected at the first surplus byte.
        let mut long = bytes.clone();
        long.extend_from_slice(&[0; 11]);
        let (msg, offset) = corrupt(open_bytes("long", &long).unwrap_err());
        assert_eq!(offset, 48);
        assert!(msg.contains("11 bytes after the last of 3 edges"), "{msg}");
        // Shorter: the first incomplete edge, like the whole-file reader.
        let (msg, offset) = corrupt(open_bytes("short", &bytes[..24 + 8 + 2]).unwrap_err());
        assert_eq!((msg.as_str(), offset), ("truncated: edge 1 of 3 missing", 32));
        // Header defects keep their messages and offsets 0 / 8 / 16.
        for (cut, what, offset) in
            [(3, "magic", 0), (12, "vertex-count", 8), (20, "edge-count", 16)]
        {
            let (msg, at) = corrupt(open_bytes("header", &bytes[..cut]).unwrap_err());
            assert!(msg.contains(what) && at == offset, "{msg} at {at}");
        }
        // A header that promises 2^40 edges of an empty file fails on
        // the length check; nothing is allocated from `m`.
        let mut huge = bin(4, &[]);
        huge[16..24].copy_from_slice(&(1u64 << 40).to_le_bytes());
        let (msg, offset) = corrupt(open_bytes("huge", &huge).unwrap_err());
        assert_eq!((msg.as_str(), offset), ("truncated: edge 0 of 1099511627776 missing", 24));
    }

    #[test]
    fn canonical_defects_are_named() {
        for (prev, cur, want) in [
            (None, (0, 9), "edge 5: endpoint 9 out of range (n = 4)"),
            (Some((0, 1)), (2, 2), "edge 5: self-loop (2, 2)"),
            (Some((0, 1)), (3, 1), "edge 5: descending pair (3, 1), want (min, max)"),
            (Some((1, 2)), (1, 2), "edge 5: duplicate of the edge before it, (1, 2)"),
            (Some((1, 3)), (1, 2), "edge 5: (1, 2) follows (1, 3), want strictly ascending"),
        ] {
            assert_eq!(canonical_defect(5, prev, cur, 4), want);
        }
        assert_eq!(record_offset(5), 64);
    }

    #[test]
    fn corrupt_error_display_names_the_offset() {
        let e = IoError::Corrupt { msg: "truncated: edge 2 of 3 missing".into(), offset: 44 };
        let s = e.to_string();
        assert!(s.contains("byte 44"), "{s}");
        assert!(s.contains("edge 2 of 3"), "{s}");
    }

    #[test]
    fn matrix_market_symmetric() {
        let src = "%%MatrixMarket matrix coordinate pattern symmetric\n\
                   % triangle\n\
                   3 3 3\n\
                   2 1\n3 1\n3 2\n";
        let el = read_matrix_market(src.as_bytes()).unwrap().simplify();
        assert_eq!(el.num_vertices, 3);
        assert_eq!(el.edges, vec![(0, 1), (0, 2), (1, 2)]);
    }

    #[test]
    fn matrix_market_general_with_values_field() {
        let src = "%%MatrixMarket matrix coordinate pattern general\n\
                   2 2 2\n\
                   1 2 1.0\n2 1 1.0\n";
        let el = read_matrix_market(src.as_bytes()).unwrap().simplify();
        assert_eq!(el.edges, vec![(0, 1)]);
    }

    #[test]
    fn matrix_market_rejects_rectangular() {
        let src = "%%MatrixMarket matrix coordinate pattern general\n2 3 1\n1 2\n";
        assert!(read_matrix_market(src.as_bytes()).is_err());
    }

    #[test]
    fn matrix_market_rejects_zero_index() {
        let src = "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n0 1\n";
        assert!(read_matrix_market(src.as_bytes()).is_err());
    }

    #[test]
    fn matrix_market_rejects_truncated() {
        let src = "%%MatrixMarket matrix coordinate pattern general\n2 2 5\n1 2\n";
        assert!(read_matrix_market(src.as_bytes()).is_err());
    }

    #[test]
    fn crc32c_known_answer_and_streaming() {
        // The canonical CRC32c check value.
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
        assert_eq!(crc32c(b""), 0);
        let mut c = Crc32c::new();
        c.update(b"1234");
        c.update(b"56789");
        assert_eq!(c.finish(), 0xE306_9283, "streaming matches one-shot");
    }

    /// Deterministic, aperiodic test bytes.
    fn crc_pattern(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i * 167 + 13) as u8 ^ (i >> 8) as u8).collect()
    }

    /// Values recorded with the byte-table implementation before the
    /// `crc32` instruction path existed: whatever path this host takes
    /// must reproduce them.
    #[test]
    fn crc32c_matches_values_recorded_with_the_table() {
        const LENS_0_TO_64: [u32; 65] = [
            0x00000000, 0xED551F82, 0x44D2A817, 0x5E015395, 0x1441CAFE, 0xD786ACA3, 0xB294497C,
            0x49B0575B, 0xA448D1DE, 0x59F84CAC, 0x135FB6A1, 0x83B635A1, 0x59DFB248, 0x88DDE289,
            0xA09E0DB0, 0x9E660D6F, 0x98449C59, 0xB5C20E0C, 0xF8AC474E, 0xE582D072, 0x5298D181,
            0x4A5E6F58, 0x4A46A9E6, 0x22AAAD83, 0x6F818E57, 0x50190A32, 0x9F93661E, 0xFD944B8B,
            0x8056CAC7, 0xE6F41E64, 0x8D709488, 0x96648041, 0x8621533A, 0x55E2F742, 0xA75AB7E5,
            0x2D71576A, 0x5A7F41B1, 0xE81D3D6E, 0xAFC82B98, 0x4DBABAE2, 0x8DDBDA2C, 0x2A425347,
            0x49288141, 0x83EC4296, 0x9D4B4BBB, 0x489A642F, 0xC784B062, 0x8C540850, 0x976048AB,
            0x8725BB84, 0xD00C4D92, 0x1AFCCD61, 0x71D415D9, 0x72B1099A, 0x090E83D1, 0xE67D462D,
            0x8246FB27, 0x01D11794, 0x7AEE6F2F, 0xDCC9542A, 0xF0EA2FA3, 0x211E359E, 0x3586B730,
            0x4D20F47E, 0x89CCF1B9,
        ];
        for (n, &want) in LENS_0_TO_64.iter().enumerate() {
            assert_eq!(crc32c(&crc_pattern(n)), want, "{n} bytes");
        }
        for (n, want) in [(100, 0x806E2952), (4095, 0xBE178C79), (4099, 0xB63259C7)] {
            assert_eq!(crc32c(&crc_pattern(n)), want, "{n} bytes");
        }
        // Unaligned starts: 4095 bytes from offsets 1..=7 of one buffer.
        let data = crc_pattern(4200);
        let at_offsets =
            [0x369C6F61, 0x72A3DD2C, 0xF28908D2, 0x83707BFF, 0xCF1F3763, 0x096C36D9, 0xAC7B1BD0];
        for (off, want) in (1..=7).zip(at_offsets) {
            assert_eq!(crc32c(&data[off..off + 4095]), want, "offset {off}");
        }
        // Streaming: split anywhere, same value.
        let b = crc_pattern(100);
        for k in 0..=b.len() {
            let mut c = Crc32c::new();
            c.update(&b[..k]);
            c.update(&b[k..]);
            assert_eq!(c.finish(), 0x806E2952, "split at {k}");
        }
    }

    proptest::proptest! {
        /// The instruction path folds every input, from every register
        /// value, exactly as the table does (on a host without SSE4.2
        /// there is only the table, and nothing to compare).
        #[test]
        fn the_crc32_instruction_equals_the_table(
            bytes in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..600),
            split in 0usize..600,
            start in proptest::prelude::any::<u32>(),
        ) {
            let split = split.min(bytes.len());
            if let Some(whole) = update_hw(start, &bytes) {
                proptest::prop_assert_eq!(whole, update_table(start, &bytes));
                let first = update_hw(start, &bytes[..split]).unwrap();
                proptest::prop_assert_eq!(update_hw(first, &bytes[split..]), Some(whole));
            }
        }
    }
}
