//! Per-processor sparse blocks of the 2D decomposition.
//!
//! Three block kinds live on each rank `P(x, y)` of the `q × q` grid
//! (`q = √p`):
//!
//! - the **task block** — the non-zeros of `L` (for ⟨j,i,k⟩) or `U`
//!   (for ⟨i,j,k⟩) that fall in this rank's 2D-cyclic cell; one task
//!   per edge of the graph, never moves;
//! - the **hash-side operand** `U(x, w)` — rows `v ≡ x`, columns
//!   `k ≡ w` of the upper adjacency; travels *left* along the grid row;
//! - the **probe-side operand** `L(w, y)` (stored column-accessible,
//!   i.e. as rows `v ≡ y` with entries `k ≡ w` of the upper
//!   adjacency); travels *up* the grid column.
//!
//! Blocks keep a *full* row-pointer array indexed by the transformed
//! index `v ÷ q` (paper: "the adjacency list of a vertex vᵢ is
//! accessed using the transformed index vᵢ ÷ √p") **plus** a list of
//! non-empty rows for the doubly-sparse traversal of §5.2.

use tc_mps::{blob3_u32_in_place, blob_sections3, BlobBuilder, BlobReader, PodArray};

use crate::recip::Reciprocal;

/// Read-only access shared by owned blocks and borrowed blob views,
/// so the count kernels run against either without materializing a
/// pass-through operand.
pub trait BlockView {
    /// Number of rows (empty ones included).
    fn num_rows(&self) -> usize;
    /// Number of stored entries.
    fn num_entries(&self) -> usize;
    /// Entries of local row `lr`, sorted ascending.
    fn row(&self, lr: usize) -> &[u32];
    /// Entry-array offset of local row `lr`.
    fn row_start(&self, lr: usize) -> usize;
    /// Local ids of non-empty rows, ascending.
    fn nonempty_rows(&self) -> &[u32];

    /// Length of the longest row.
    fn max_row_len(&self) -> usize {
        self.nonempty_rows().iter().map(|&lr| self.row(lr as usize).len()).max().unwrap_or(0)
    }

    /// Absolute entry index of column `col` in local row `lr`, if
    /// present (rows are sorted, so this is a binary search).
    fn find_entry(&self, lr: usize, col: u32) -> Option<usize> {
        self.row(lr).binary_search(&col).ok().map(|pos| self.row_start(lr) + pos)
    }
}

/// Pass one of the counting sort behind every block built from pairs:
/// counts a `(row_global, col_global)` stream by local row
/// `row_global ÷ q` into `xadj` (zeroed, `num_rows + 1` long), turns
/// the counts into row pointers and returns the number of pairs.
fn count_rows(
    by_q: Reciprocal,
    xadj: &mut [u32],
    pairs: impl Iterator<Item = (u32, u32)>,
) -> usize {
    let num_rows = xadj.len() - 1;
    pairs.for_each(|(r, _)| {
        let lr = by_q.quotient(r) as usize;
        debug_assert!(lr < num_rows, "row {r} out of class range");
        xadj[lr + 1] += 1;
    });
    for i in 1..xadj.len() {
        xadj[i] += xadj[i - 1];
    }
    xadj[num_rows] as usize
}

/// Pass two: places the columns of the same stream at the row pointers
/// [`count_rows`] left in `xadj`, then sorts each row. `xadj` ends as
/// it started.
fn place_rows(
    by_q: Reciprocal,
    xadj: &mut [u32],
    cols: &mut [u32],
    pairs: impl Iterator<Item = (u32, u32)>,
) {
    // `xadj[lr]` is row lr's cursor: once every pair is placed it has
    // advanced to row lr + 1's start, so a shift by one slot turns the
    // cursors back into row pointers.
    pairs.for_each(|(r, c)| {
        let at = &mut xadj[by_q.quotient(r) as usize];
        cols[*at as usize] = c;
        *at += 1;
    });
    let num_rows = xadj.len() - 1;
    xadj.copy_within(0..num_rows, 1);
    xadj[0] = 0;
    for lr in 0..num_rows {
        cols[xadj[lr] as usize..xadj[lr + 1] as usize].sort_unstable();
    }
}

/// Local ids of the non-empty rows of row pointers `xadj`, ascending.
fn nonempty_rows_of(xadj: &[u32]) -> impl Iterator<Item = u32> + '_ {
    xadj.windows(2).enumerate().filter(|(_, w)| w[1] > w[0]).map(|(r, _)| r as u32)
}

/// A CSR-like sparse block with full row indexing and a non-empty row
/// list. Row ids are *local* (global ÷ q); column ids are *global*.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SparseBlock {
    /// Full row-pointer array, length `num_rows + 1`.
    xadj: Vec<u32>,
    /// Column entries (global vertex ids), sorted ascending per row.
    cols: Vec<u32>,
    /// Local ids of non-empty rows, ascending (the DCSR index).
    nonempty: Vec<u32>,
}

impl SparseBlock {
    /// Builds a block from `(row_global, col_global)` pairs.
    ///
    /// `q` is the grid side, `num_rows` the row count of the block's
    /// vertex class (`Cyclic2D::class_count`). Rows are addressed by
    /// `row_global ÷ q`; pairs may arrive in any order.
    pub fn from_pairs(num_rows: usize, q: usize, pairs: &mut Vec<(u32, u32)>) -> Self {
        let block = Self::from_pair_stream(num_rows, q, || pairs.iter().copied());
        pairs.clear(); // signal consumption; callers reuse the buffer
        block
    }

    /// [`SparseBlock::from_pairs`] over a replayable pair stream, so a
    /// block can be built straight from received messages without
    /// first collecting them: `pairs()` is called twice — once to
    /// count the rows, once to place the columns (a counting sort by
    /// local row), after which each row's columns are sorted.
    pub fn from_pair_stream<I>(num_rows: usize, q: usize, pairs: impl Fn() -> I) -> Self
    where
        I: Iterator<Item = (u32, u32)>,
    {
        let by_q = Reciprocal::new(u32::try_from(q).expect("grid side fits in u32"));
        let mut xadj = vec![0u32; num_rows + 1];
        let mut cols = vec![0u32; count_rows(by_q, &mut xadj, pairs())];
        place_rows(by_q, &mut xadj, &mut cols, pairs());
        let nonempty = nonempty_rows_of(&xadj).collect();
        Self { xadj, cols, nonempty }
    }

    /// The blob ([`SparseBlock::to_blob`]) of the block
    /// [`SparseBlock::from_pair_stream`] would build from the same
    /// `num_pairs` pairs, written in place: one allocation, no owned
    /// block and no serialization copy.
    pub fn blob_from_pair_stream<I>(
        num_rows: usize,
        q: usize,
        num_pairs: usize,
        pairs: impl Fn() -> I,
    ) -> bytes::Bytes
    where
        I: Iterator<Item = (u32, u32)>,
    {
        let by_q = Reciprocal::new(u32::try_from(q).expect("grid side fits in u32"));
        let caps = [num_rows + 1, num_pairs, num_rows.min(num_pairs)];
        blob3_u32_in_place(caps, |[xadj, cols, nonempty]| {
            let counted = count_rows(by_q, xadj, pairs());
            assert_eq!(counted, num_pairs, "the pair stream does not hold num_pairs pairs");
            place_rows(by_q, xadj, cols, pairs());
            nonempty.iter_mut().zip(nonempty_rows_of(xadj)).map(|(slot, lr)| *slot = lr).count()
        })
    }

    /// The transpose of `block`, as a block of the crossing class.
    ///
    /// `block` holds rows of vertex class `class` (row `lr` is vertex
    /// `lr·q + class`); the result has `num_rows` rows addressed by
    /// `col ÷ q` and stores, per former column, the former row
    /// vertices. Rows are read in ascending order, so every output row
    /// comes out of the counting sort already sorted.
    pub fn transposed(block: &impl BlockView, q: usize, class: usize, num_rows: usize) -> Self {
        Self::from_pair_stream(num_rows, q, || {
            block.nonempty_rows().iter().flat_map(move |&lr| {
                let vertex = lr * q as u32 + class as u32;
                block.row(lr as usize).iter().map(move |&c| (c, vertex))
            })
        })
    }

    /// An empty block with `num_rows` rows.
    pub fn empty(num_rows: usize) -> Self {
        Self { xadj: vec![0; num_rows + 1], cols: Vec::new(), nonempty: Vec::new() }
    }

    /// Number of rows (empty ones included).
    pub fn num_rows(&self) -> usize {
        self.xadj.len() - 1
    }

    /// Number of stored entries.
    pub fn num_entries(&self) -> usize {
        self.cols.len()
    }

    /// Entries of local row `lr`, sorted ascending (O(1) access via the
    /// full row pointer — the "indexing scheme used to avoid
    /// maintaining offsets").
    #[inline]
    pub fn row(&self, lr: usize) -> &[u32] {
        &self.cols[self.xadj[lr] as usize..self.xadj[lr + 1] as usize]
    }

    /// Entry-array offset of local row `lr` (pairs with
    /// [`SparseBlock::row`] to give absolute entry indices).
    #[inline]
    pub fn row_start(&self, lr: usize) -> usize {
        self.xadj[lr] as usize
    }

    /// Absolute entry index of column `col` in local row `lr`, if
    /// present (rows are sorted, so this is a binary search).
    pub fn find_entry(&self, lr: usize, col: u32) -> Option<usize> {
        self.row(lr).binary_search(&col).ok().map(|pos| self.row_start(lr) + pos)
    }

    /// Every stored entry in row order: the concatenation of all rows,
    /// so index `row_start(lr) + pos` is entry `pos` of row `lr` and
    /// `+ d` is the entry `d` tasks later, across row boundaries.
    #[inline]
    pub fn entries(&self) -> &[u32] {
        &self.cols
    }

    /// Local ids of non-empty rows.
    pub fn nonempty_rows(&self) -> &[u32] {
        &self.nonempty
    }

    /// Length of the longest row.
    pub fn max_row_len(&self) -> usize {
        self.nonempty
            .iter()
            .map(|&lr| (self.xadj[lr as usize + 1] - self.xadj[lr as usize]) as usize)
            .max()
            .unwrap_or(0)
    }

    /// Serializes into a single contiguous buffer (paper §5.2:
    /// "allocate the memory associated with all of the information for
    /// a sparse matrix as a single blob").
    pub fn to_blob(&self) -> bytes::Bytes {
        BlobBuilder::new().push(&self.xadj).push(&self.cols).push(&self.nonempty).finish()
    }

    /// Deserializes a buffer produced by [`SparseBlock::to_blob`].
    pub fn from_blob(data: bytes::Bytes) -> Self {
        let r = BlobReader::new(data);
        assert_eq!(r.num_sections(), 3, "operand blob must have 3 sections");
        Self {
            xadj: r.typed::<u32>(0).into_vec(),
            cols: r.typed::<u32>(1).into_vec(),
            nonempty: r.typed::<u32>(2).into_vec(),
        }
    }
}

impl BlockView for SparseBlock {
    fn num_rows(&self) -> usize {
        SparseBlock::num_rows(self)
    }

    fn num_entries(&self) -> usize {
        SparseBlock::num_entries(self)
    }

    #[inline]
    fn row(&self, lr: usize) -> &[u32] {
        SparseBlock::row(self, lr)
    }

    #[inline]
    fn row_start(&self, lr: usize) -> usize {
        SparseBlock::row_start(self, lr)
    }

    fn nonempty_rows(&self) -> &[u32] {
        SparseBlock::nonempty_rows(self)
    }

    fn max_row_len(&self) -> usize {
        SparseBlock::max_row_len(self)
    }

    fn find_entry(&self, lr: usize, col: u32) -> Option<usize> {
        SparseBlock::find_entry(self, lr, col)
    }
}

/// A borrowed block: the three arrays of a [`SparseBlock`] read
/// directly out of a received blob, with no deserialization copy.
///
/// The view co-owns the underlying buffer (refcounted), so a block
/// that merely passes through a rank on its way around the grid is
/// never materialized — the rank computes against the wire bytes and
/// forwards the very same buffer to its neighbour.
#[derive(Debug)]
pub struct SparseBlockRef {
    xadj: PodArray<u32>,
    cols: PodArray<u32>,
    nonempty: PodArray<u32>,
}

impl SparseBlockRef {
    /// Wraps a buffer produced by [`SparseBlock::to_blob`].
    ///
    /// Allocation-free on the hot path: the fixed 3-section header is
    /// parsed inline and each array is a typed view over its section
    /// (sections are 8-byte aligned within the blob, so the views are
    /// zero-copy whenever the allocator returned an 8-aligned buffer —
    /// which it does in practice).
    pub fn from_blob(data: &bytes::Bytes) -> Self {
        let [xadj, cols, nonempty] = blob_sections3(data);
        Self {
            xadj: PodArray::new(xadj),
            cols: PodArray::new(cols),
            nonempty: PodArray::new(nonempty),
        }
    }
}

impl BlockView for SparseBlockRef {
    fn num_rows(&self) -> usize {
        self.xadj.len() - 1
    }

    fn num_entries(&self) -> usize {
        self.cols.len()
    }

    #[inline]
    fn row(&self, lr: usize) -> &[u32] {
        let xadj = self.xadj.as_slice();
        &self.cols.as_slice()[xadj[lr] as usize..xadj[lr + 1] as usize]
    }

    #[inline]
    fn row_start(&self, lr: usize) -> usize {
        self.xadj.as_slice()[lr] as usize
    }

    fn nonempty_rows(&self) -> &[u32] {
        self.nonempty.as_slice()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_strided_rows() {
        // q = 3, class 1 (rows 1, 4, 7, ...), num_rows = 3.
        let mut pairs = vec![(4, 9), (1, 5), (4, 3), (7, 2), (1, 0)];
        let b = SparseBlock::from_pairs(3, 3, &mut pairs);
        assert!(pairs.is_empty());
        assert_eq!(b.num_rows(), 3);
        assert_eq!(b.row(0), &[0, 5]); // global row 1
        assert_eq!(b.row(1), &[3, 9]); // global row 4
        assert_eq!(b.row(2), &[2]); // global row 7
        assert_eq!(b.nonempty_rows(), &[0, 1, 2]);
        assert_eq!(b.max_row_len(), 2);
    }

    #[test]
    fn pair_stream_is_replayed_not_collected() {
        // Two "messages", one of them read transposed — the shape the
        // preprocessing hands over.
        let msgs: [&[[u32; 2]]; 2] = [&[[4, 9], [1, 5]], &[[4, 3], [7, 2], [1, 0]]];
        let stream = || msgs.iter().flat_map(|m| m.iter().map(|&[r, c]| (r, c)));
        let b = SparseBlock::from_pair_stream(3, 3, stream);
        let mut pairs: Vec<(u32, u32)> = stream().collect();
        assert_eq!(b, SparseBlock::from_pairs(3, 3, &mut pairs));
    }

    #[test]
    fn transpose_matches_a_build_from_swapped_pairs() {
        // Class-1 rows of a q = 3 grid (vertices 1, 4, 7), columns of
        // any class-0 vertex (0, 3, 9) — one crossing class, as in the
        // L block a task block is derived from.
        let pairs = vec![(4u32, 9u32), (1, 3), (4, 3), (7, 0), (1, 0), (7, 9)];
        let block = SparseBlock::from_pairs(3, 3, &mut pairs.clone());
        let mut swapped: Vec<(u32, u32)> = pairs.iter().map(|&(r, c)| (c, r)).collect();
        let expect = SparseBlock::from_pairs(4, 3, &mut swapped);
        assert_eq!(SparseBlock::transposed(&block, 3, 1, 4), expect);
        assert_eq!(expect.row(0), &[1, 7]); // vertex 0
        assert_eq!(expect.row(1), &[1, 4]); // vertex 3
        assert_eq!(expect.nonempty_rows(), &[0, 1, 3]);
        assert_eq!(SparseBlock::transposed(&SparseBlock::empty(5), 2, 0, 3), SparseBlock::empty(3));
    }

    #[test]
    fn nonempty_index_skips_holes() {
        // Rows 0 and 2 of 4 are empty.
        let mut pairs = vec![(2, 1), (6, 4)]; // q=2, class 0: rows 0,2,4,6
        let b = SparseBlock::from_pairs(4, 2, &mut pairs);
        assert_eq!(b.nonempty_rows(), &[1, 3]);
        assert_eq!(b.row(0), &[] as &[u32]);
        assert_eq!(b.row(1), &[1]);
        assert_eq!(b.num_entries(), 2);
    }

    #[test]
    fn empty_block() {
        let b = SparseBlock::empty(5);
        assert_eq!(b.num_rows(), 5);
        assert_eq!(b.num_entries(), 0);
        assert!(b.nonempty_rows().is_empty());
        assert_eq!(b.max_row_len(), 0);
    }

    #[test]
    fn blob_roundtrip() {
        let mut pairs = vec![(0, 7), (3, 1), (3, 2), (9, 9)];
        let b = SparseBlock::from_pairs(4, 3, &mut pairs);
        let back = SparseBlock::from_blob(b.to_blob());
        assert_eq!(back, b);
    }

    #[test]
    fn blob_roundtrip_empty() {
        let b = SparseBlock::empty(0);
        assert_eq!(SparseBlock::from_blob(b.to_blob()), b);
    }

    #[test]
    fn borrowed_view_agrees_with_owned_block() {
        let mut pairs = vec![(0u32, 7u32), (3, 1), (3, 2), (9, 9), (9, 3)];
        let b = SparseBlock::from_pairs(4, 3, &mut pairs);
        let blob = b.to_blob();
        let v = SparseBlockRef::from_blob(&blob);
        assert_eq!(BlockView::num_rows(&v), b.num_rows());
        assert_eq!(BlockView::num_entries(&v), b.num_entries());
        assert_eq!(BlockView::nonempty_rows(&v), b.nonempty_rows());
        assert_eq!(BlockView::max_row_len(&v), b.max_row_len());
        for lr in 0..b.num_rows() {
            assert_eq!(BlockView::row(&v, lr), b.row(lr), "row {lr}");
            assert_eq!(BlockView::row_start(&v, lr), b.row_start(lr));
        }
        assert_eq!(BlockView::find_entry(&v, 3, 2), b.find_entry(3, 2));
        assert_eq!(BlockView::find_entry(&v, 0, 42), None);
    }

    #[test]
    fn borrowed_view_of_empty_block() {
        let b = SparseBlock::empty(2);
        let blob = b.to_blob();
        let v = SparseBlockRef::from_blob(&blob);
        assert_eq!(BlockView::num_rows(&v), 2);
        assert_eq!(BlockView::num_entries(&v), 0);
        assert!(BlockView::nonempty_rows(&v).is_empty());
        assert_eq!(BlockView::max_row_len(&v), 0);
    }

    #[test]
    fn duplicate_columns_are_kept_sorted() {
        // The pipeline never produces duplicates, but the container
        // itself must not lose or reorder them.
        let mut pairs = vec![(0, 5), (0, 5), (0, 1)];
        let b = SparseBlock::from_pairs(1, 1, &mut pairs);
        assert_eq!(b.row(0), &[1, 5, 5]);
    }
}
