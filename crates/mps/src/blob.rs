//! Single-allocation ("blob") serialization of multi-array structures.
//!
//! The paper's §5.2 notes that serializing a sparse-matrix block field
//! by field costs measurable time per shift, and instead keeps "all of
//! the information for a sparse matrix as a single blob" from which
//! the individual arrays are carved. This module implements exactly
//! that: a blob is one contiguous buffer holding a tiny header (magic,
//! section count, section byte lengths) followed by the section
//! payloads, each padded to 8 bytes so typed views stay aligned.
//!
//! Encoding allocates once; decoding is zero-copy (sections are
//! sub-slices of the received [`Bytes`] buffer).

use bytes::Bytes;

use crate::pod::{bytes_from_vec, bytes_of, Pod, PodArray};

const MAGIC: u64 = 0x7452_6942_6c6f_6231; // "tRiBblob1"

fn pad8(n: usize) -> usize {
    (n + 7) & !7
}

/// Builds a blob from typed sections with a single allocation.
#[derive(Debug, Default)]
pub struct BlobBuilder<'a> {
    sections: Vec<&'a [u8]>,
}

impl<'a> BlobBuilder<'a> {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a typed slice as the next section.
    pub fn push<T: Pod>(&mut self, data: &'a [T]) -> &mut Self {
        self.sections.push(bytes_of(data));
        self
    }

    /// Serializes all sections into one contiguous buffer.
    pub fn finish(&self) -> Bytes {
        let n = self.sections.len();
        let header_len = 8 * (2 + n);
        let total: usize = header_len + self.sections.iter().map(|s| pad8(s.len())).sum::<usize>();
        let mut buf = Vec::<u8>::with_capacity(total);
        buf.extend_from_slice(&MAGIC.to_le_bytes());
        buf.extend_from_slice(&(n as u64).to_le_bytes());
        for s in &self.sections {
            buf.extend_from_slice(&(s.len() as u64).to_le_bytes());
        }
        for s in &self.sections {
            buf.extend_from_slice(s);
            buf.resize(pad8(buf.len()), 0);
        }
        debug_assert_eq!(buf.len(), total);
        Bytes::from(buf)
    }
}

/// Builds a blob of three `u32` sections in place, in one zeroed
/// allocation and with no staging copy.
///
/// `fill` receives the three sections, `caps[i]` elements each, and
/// returns how many elements of the *last* one it used: only the last
/// section may end up shorter than its capacity (its unused tail is
/// cut off). The result is byte for byte what [`BlobBuilder`] makes of
/// the same three arrays.
///
/// # Panics
///
/// Panics if `fill` reports more elements than the last section holds.
pub fn blob3_u32_in_place(caps: [usize; 3], fill: impl FnOnce([&mut [u32]; 3]) -> usize) -> Bytes {
    const HEADER_WORDS: usize = 2 + 3;
    let words = |n: usize| pad8(4 * n) / 8;
    let mut buf = vec![0u64; HEADER_WORDS + caps.iter().map(|&c| words(c)).sum::<usize>()];
    let (head, body) = buf.split_at_mut(HEADER_WORDS);
    // SAFETY: `u32` has no padding and every bit pattern is valid, and
    // a `u64` buffer is aligned for `u32`, so the body is exactly
    // `2 · body.len()` initialized `u32`s borrowed for this scope only.
    let body =
        unsafe { std::slice::from_raw_parts_mut(body.as_mut_ptr().cast::<u32>(), 2 * body.len()) };
    let (s0, rest) = body.split_at_mut(2 * words(caps[0]));
    let (s1, s2) = rest.split_at_mut(2 * words(caps[1]));
    let last = fill([&mut s0[..caps[0]], &mut s1[..caps[1]], &mut s2[..caps[2]]]);
    assert!(last <= caps[2], "blob3_u32_in_place: {last} elements filled into {}", caps[2]);
    let lens = [caps[0], caps[1], last].map(|n| 4 * n as u64);
    head.copy_from_slice(&[MAGIC, 3, lens[0], lens[1], lens[2]].map(u64::to_le));
    buf.truncate(HEADER_WORDS + words(caps[0]) + words(caps[1]) + words(last));
    bytes_from_vec(buf)
}

/// Carves a 3-section blob into its raw section buffers without heap
/// allocation.
///
/// [`BlobReader`] builds its section table on the heap; this
/// fixed-arity variant exists for zero-allocation receive paths
/// (borrowed operand views in the shift loop). The returned buffers
/// are refcounted sub-slices of `data`.
///
/// # Panics
///
/// Panics on a malformed buffer or a section count other than 3, like
/// [`BlobReader::new`].
pub fn blob_sections3(data: &Bytes) -> [Bytes; 3] {
    let read_u64 = |at: usize| -> u64 {
        let mut b = [0u8; 8];
        b.copy_from_slice(&data[at..at + 8]);
        u64::from_le_bytes(b)
    };
    assert!(data.len() >= 16, "blob shorter than its fixed header");
    assert_eq!(read_u64(0), MAGIC, "blob magic mismatch");
    assert_eq!(read_u64(8), 3, "expected a 3-section blob");
    let header_len = 8 * (2 + 3);
    assert!(data.len() >= header_len, "blob truncated inside section table");
    let mut out = [Bytes::new(), Bytes::new(), Bytes::new()];
    let mut off = header_len;
    for (i, slot) in out.iter_mut().enumerate() {
        let len = read_u64(16 + 8 * i) as usize;
        assert!(off + len <= data.len(), "blob truncated inside section {i}");
        *slot = data.slice(off..off + len);
        off += pad8(len);
    }
    out
}

/// Zero-copy view over a received blob.
#[derive(Debug, Clone)]
pub struct BlobReader {
    data: Bytes,
    /// (offset, byte length) per section.
    sections: Vec<(usize, usize)>,
}

impl BlobReader {
    /// Parses the header of `data`.
    ///
    /// # Panics
    ///
    /// Panics on a malformed buffer (wrong magic, truncated header or
    /// payload) — blobs only travel between ranks of the same process,
    /// so corruption is a logic error, not an I/O condition.
    pub fn new(data: Bytes) -> Self {
        let read_u64 = |at: usize| -> u64 {
            let mut b = [0u8; 8];
            b.copy_from_slice(&data[at..at + 8]);
            u64::from_le_bytes(b)
        };
        assert!(data.len() >= 16, "blob shorter than its fixed header");
        assert_eq!(read_u64(0), MAGIC, "blob magic mismatch");
        let n = read_u64(8) as usize;
        let header_len = 8 * (2 + n);
        assert!(data.len() >= header_len, "blob truncated inside section table");
        let mut sections = Vec::with_capacity(n);
        let mut off = header_len;
        for i in 0..n {
            let len = read_u64(16 + 8 * i) as usize;
            assert!(off + len <= data.len(), "blob truncated inside section {i}");
            sections.push((off, len));
            off += pad8(len);
        }
        Self { data, sections }
    }

    /// Number of sections.
    pub fn num_sections(&self) -> usize {
        self.sections.len()
    }

    /// Raw bytes of section `idx` (zero-copy slice of the blob).
    pub fn bytes(&self, idx: usize) -> Bytes {
        let (off, len) = self.sections[idx];
        self.data.slice(off..off + len)
    }

    /// Typed view of section `idx`.
    pub fn typed<T: Pod>(&self, idx: usize) -> PodArray<T> {
        PodArray::new(self.bytes(idx))
    }

    /// Total size of the underlying buffer in bytes.
    pub fn total_len(&self) -> usize {
        self.data.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_three_sections() {
        let a: Vec<u64> = vec![1, 2, 3];
        let b: Vec<u32> = vec![10, 20, 30, 40, 50];
        let c: Vec<u32> = vec![];
        let blob = BlobBuilder::new().push(&a).push(&b).push(&c).finish();
        let r = BlobReader::new(blob);
        assert_eq!(r.num_sections(), 3);
        assert_eq!(r.typed::<u64>(0).as_slice(), a.as_slice());
        assert_eq!(r.typed::<u32>(1).as_slice(), b.as_slice());
        assert!(r.typed::<u32>(2).is_empty());
    }

    #[test]
    fn sections_are_aligned_for_zero_copy() {
        // Odd-length u8 section followed by u64 data still decodes.
        let a: Vec<u8> = vec![1, 2, 3];
        let b: Vec<u64> = vec![0xdead_beef_cafe_f00d];
        let blob = BlobBuilder::new().push(&a).push(&b).finish();
        let r = BlobReader::new(blob);
        assert_eq!(r.typed::<u8>(0).as_slice(), a.as_slice());
        assert_eq!(r.typed::<u64>(1).as_slice(), b.as_slice());
    }

    #[test]
    fn sections3_agrees_with_reader() {
        let a: Vec<u32> = (0..7).collect();
        let b: Vec<u32> = vec![42];
        let c: Vec<u32> = vec![];
        let blob = BlobBuilder::new().push(&a).push(&b).push(&c).finish();
        let r = BlobReader::new(blob.clone());
        let s = blob_sections3(&blob);
        for (i, section) in s.iter().enumerate() {
            assert_eq!(&section[..], &r.bytes(i)[..], "section {i}");
        }
    }

    #[test]
    #[should_panic(expected = "3-section")]
    fn sections3_rejects_other_arity() {
        let a: Vec<u32> = vec![1];
        let blob = BlobBuilder::new().push(&a).finish();
        let _ = blob_sections3(&blob);
    }

    #[test]
    fn in_place_blob_matches_the_builder() {
        let (a, b, c): (Vec<u32>, Vec<u32>, Vec<u32>) = ((0..5).collect(), vec![9, 8], vec![7]);
        let blob = blob3_u32_in_place([5, 2, 4], |[s0, s1, s2]| {
            s0.copy_from_slice(&a);
            s1.copy_from_slice(&b);
            s2[0] = 7;
            1
        });
        assert_eq!(blob, BlobBuilder::new().push(&a).push(&b).push(&c).finish());
        let empty: &[u32] = &[];
        let blob = blob3_u32_in_place([1, 0, 3], |[s0, _, _]| {
            s0[0] = 0;
            0
        });
        assert_eq!(blob, BlobBuilder::new().push(&[0u32]).push(empty).push(empty).finish());
    }

    #[test]
    fn empty_blob() {
        let blob = BlobBuilder::new().finish();
        let r = BlobReader::new(blob);
        assert_eq!(r.num_sections(), 0);
    }

    #[test]
    #[should_panic(expected = "magic mismatch")]
    fn rejects_garbage() {
        let _ = BlobReader::new(Bytes::from(vec![0u8; 32]));
    }

    #[test]
    #[should_panic(expected = "truncated")]
    fn rejects_truncated_payload() {
        let a: Vec<u64> = vec![1, 2, 3, 4];
        let blob = BlobBuilder::new().push(&a).finish();
        let cut = blob.slice(0..blob.len() - 8);
        let _ = BlobReader::new(cut);
    }

    #[test]
    fn single_allocation_estimate_matches() {
        let a: Vec<u32> = (0..1000).collect();
        let blob = BlobBuilder::new().push(&a).finish();
        // header (2+1)*8 + padded payload 4000
        assert_eq!(blob.len(), 24 + 4000);
    }
}
