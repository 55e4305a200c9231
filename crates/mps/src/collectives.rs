//! Collective operations built on point-to-point messages.
//!
//! The algorithms are the textbook ones an MPI implementation would
//! use: dissemination barrier, binomial-tree broadcast and reduce,
//! recursive-doubling (Hillis–Steele) scans, and pairwise exchange for
//! the personalized all-to-all. Every collective must be called by all
//! ranks in the same order; a per-`Comm` sequence number embedded in
//! the internal tag enforces matching between concurrent collectives
//! and user traffic, and a crossed sequence (two ranks in *different*
//! collectives at the same position) surfaces as
//! [`MpsError::CollectiveMismatch`] instead of a hang or garbage
//! decode. In debug builds every typed payload additionally carries an
//! element-size stamp, so calling e.g. `allreduce::<u32>` against
//! `allreduce::<u64>` is caught even though the tags agree.

use bytes::Bytes;

use crate::comm::{coll_op_name, Comm, COLL_SEQ_MASK};
use crate::error::{MpsError, MpsResult};
use crate::pod::{bytes_of, vec_from_bytes, Pod};

const OP_BARRIER: u64 = 1;
const OP_BCAST: u64 = 2;
const OP_REDUCE: u64 = 3;
const OP_SCAN: u64 = 4;
const OP_GATHER: u64 = 5;
const OP_ALLTOALL: u64 = 6;
const OP_ALLGATHER: u64 = 7;
const OP_SCATTER: u64 = 8;

/// Serializes a typed collective payload. Debug builds prepend the
/// element size so type mismatches across ranks are detectable.
fn coll_encode<T: Pod>(data: &[T]) -> Bytes {
    let body = bytes_of(data);
    if cfg!(debug_assertions) {
        let mut buf = Vec::with_capacity(8 + body.len());
        buf.extend_from_slice(&(std::mem::size_of::<T>() as u64).to_le_bytes());
        buf.extend_from_slice(body);
        Bytes::from(buf)
    } else {
        Bytes::from(body.to_vec())
    }
}

impl Comm {
    /// Decodes a typed collective payload, checking the debug stamp.
    fn coll_decode<T: Pod>(&self, src: usize, tag: u64, raw: &Bytes) -> MpsResult<Vec<T>> {
        let body = if cfg!(debug_assertions) {
            assert!(raw.len() >= 8, "collective payload shorter than its debug stamp");
            let mut stamp = [0u8; 8];
            stamp.copy_from_slice(&raw[..8]);
            let elem = u64::from_le_bytes(stamp);
            if elem != std::mem::size_of::<T>() as u64 {
                return Err(MpsError::CollectiveMismatch {
                    rank: self.rank(),
                    peer: src,
                    expected: format!(
                        "{} (seq {}) with {}-byte elements",
                        coll_op_name(tag),
                        tag & COLL_SEQ_MASK,
                        std::mem::size_of::<T>()
                    ),
                    got: format!(
                        "{} (seq {}) with {elem}-byte elements",
                        coll_op_name(tag),
                        tag & COLL_SEQ_MASK
                    ),
                });
            }
            raw.slice(8..)
        } else {
            raw.clone()
        };
        Ok(vec_from_bytes(&body))
    }

    /// Typed receive inside a collective: recv + stamped decode.
    fn coll_recv<T: Pod>(&self, src: usize, tag: u64) -> MpsResult<Vec<T>> {
        let raw = self.recv_internal(src, tag)?;
        self.coll_decode(src, tag, &raw)
    }

    /// Blocks until every rank has entered the barrier.
    ///
    /// Dissemination algorithm: ⌈log₂ p⌉ rounds, in round `r` rank `i`
    /// signals `i + 2^r` and waits for `i - 2^r` (mod p).
    pub fn barrier(&self) -> MpsResult<()> {
        let p = self.size();
        if p == 1 {
            return Ok(());
        }
        let base = self.next_coll_tag(OP_BARRIER);
        let _tspan = self.coll_span(base);
        let mut round = 0u64;
        let mut d = 1usize;
        while d < p {
            let to = (self.rank() + d) % p;
            let from = (self.rank() + p - d) % p;
            self.send_internal(to, base + (round << 40), Bytes::new());
            let _ = self.recv_internal(from, base + (round << 40))?;
            d <<= 1;
            round += 1;
        }
        Ok(())
    }

    /// Broadcasts `data` from `root` to all ranks; every rank returns
    /// the broadcast value. Binomial tree, ⌈log₂ p⌉ message hops deep.
    pub fn bcast<T: Pod>(&self, root: usize, data: &[T]) -> MpsResult<Vec<T>> {
        assert!(root < self.size(), "bcast root {root} out of range");
        let p = self.size();
        let tag = self.next_coll_tag(OP_BCAST);
        let _tspan = self.coll_span(tag);
        if p == 1 {
            return Ok(data.to_vec());
        }
        let rel = (self.rank() + p - root) % p;

        let mut buf: Option<Vec<T>> = if rel == 0 { Some(data.to_vec()) } else { None };
        // Receive phase: the lowest set bit of `rel` identifies the parent.
        let mut mask = 1usize;
        while mask < p {
            if rel & mask != 0 {
                let parent = (rel - mask + root) % p;
                buf = Some(self.coll_recv(parent, tag)?);
                break;
            }
            mask <<= 1;
        }
        if rel == 0 {
            mask = p.next_power_of_two();
        }
        // Send phase: forward to children at offsets below the bit on
        // which this rank received (all bits for the root).
        let payload = buf.expect("bcast buffer present after receive phase");
        let raw = coll_encode(&payload);
        let mut mask = mask >> 1;
        while mask > 0 {
            if rel + mask < p {
                let child = (rel + mask + root) % p;
                self.send_internal(child, tag, raw.clone());
            }
            mask >>= 1;
        }
        Ok(payload)
    }

    /// Broadcasts a single value from `root`.
    pub fn bcast_val<T: Pod>(&self, root: usize, value: T) -> MpsResult<T> {
        Ok(self.bcast(root, std::slice::from_ref(&value))?[0])
    }

    /// Element-wise reduction to `root`; returns `Some(result)` on the
    /// root and `None` elsewhere. All ranks must pass equal-length
    /// slices. Binomial tree.
    pub fn reduce<T: Pod>(
        &self,
        root: usize,
        data: &[T],
        op: impl Fn(&mut T, &T),
    ) -> MpsResult<Option<Vec<T>>> {
        assert!(root < self.size(), "reduce root {root} out of range");
        let p = self.size();
        let tag = self.next_coll_tag(OP_REDUCE);
        let _tspan = self.coll_span(tag);
        let rel = (self.rank() + p - root) % p;
        let mut acc = data.to_vec();

        let mut mask = 1usize;
        while mask < p {
            if rel & mask != 0 {
                let parent = (rel - mask + root) % p;
                self.send_internal(parent, tag, coll_encode(&acc));
                return Ok(None);
            }
            if rel + mask < p {
                let child = (rel + mask + root) % p;
                let theirs: Vec<T> = self.coll_recv(child, tag)?;
                assert_eq!(theirs.len(), acc.len(), "reduce length mismatch across ranks");
                for (a, b) in acc.iter_mut().zip(theirs.iter()) {
                    op(a, b);
                }
            }
            mask <<= 1;
        }
        Ok(Some(acc))
    }

    /// Element-wise reduction delivered to every rank
    /// (reduce-to-0 + broadcast).
    pub fn allreduce<T: Pod>(&self, data: &[T], op: impl Fn(&mut T, &T)) -> MpsResult<Vec<T>> {
        match self.reduce(0, data, op)? {
            Some(v) => self.bcast(0, &v),
            None => self.bcast(0, &[]),
        }
    }

    /// Sum-allreduce of one `u64`.
    pub fn allreduce_sum_u64(&self, v: u64) -> MpsResult<u64> {
        Ok(self.allreduce(&[v], |a, b| *a += *b)?[0])
    }

    /// Max-allreduce of one `u64`.
    pub fn allreduce_max_u64(&self, v: u64) -> MpsResult<u64> {
        Ok(self.allreduce(&[v], |a, b| *a = (*a).max(*b))?[0])
    }

    /// Min-allreduce of one `u64`.
    pub fn allreduce_min_u64(&self, v: u64) -> MpsResult<u64> {
        Ok(self.allreduce(&[v], |a, b| *a = (*a).min(*b))?[0])
    }

    /// Sum-allreduce of one `f64`.
    pub fn allreduce_sum_f64(&self, v: f64) -> MpsResult<f64> {
        Ok(self.allreduce(&[v], |a, b| *a += *b)?[0])
    }

    /// Element-wise *inclusive* prefix scan: rank `i` receives
    /// `data₀ op data₁ op … op dataᵢ`. Recursive doubling,
    /// ⌈log₂ p⌉ rounds (the `dmax · log p` term of the paper's
    /// preprocessing cost model comes from this primitive applied to
    /// degree histograms).
    pub fn scan<T: Pod>(&self, data: &[T], op: impl Fn(&mut T, &T)) -> MpsResult<Vec<T>> {
        let p = self.size();
        let tag = self.next_coll_tag(OP_SCAN);
        let _tspan = self.coll_span(tag);
        let mut acc = data.to_vec();
        let mut d = 1usize;
        let mut round = 0u64;
        while d < p {
            let rtag = tag + (round << 40);
            if self.rank() + d < p {
                self.send_internal(self.rank() + d, rtag, coll_encode(&acc));
            }
            if self.rank() >= d {
                let theirs: Vec<T> = self.coll_recv(self.rank() - d, rtag)?;
                assert_eq!(theirs.len(), acc.len(), "scan length mismatch across ranks");
                // Received window precedes ours: fold it in on the left.
                let mut merged = theirs;
                for (m, a) in merged.iter_mut().zip(acc.iter()) {
                    op(m, a);
                }
                acc = merged;
            }
            d <<= 1;
            round += 1;
        }
        Ok(acc)
    }

    /// Element-wise *exclusive* prefix scan; rank 0 receives
    /// `identity` in every position.
    pub fn exscan<T: Pod>(
        &self,
        data: &[T],
        identity: T,
        op: impl Fn(&mut T, &T),
    ) -> MpsResult<Vec<T>> {
        let inclusive = self.scan(data, op)?;
        let p = self.size();
        let tag = self.next_coll_tag(OP_SCAN);
        let _tspan = self.coll_span(tag);
        if self.rank() + 1 < p {
            self.send_internal(self.rank() + 1, tag, coll_encode(&inclusive));
        }
        if self.rank() == 0 {
            Ok(vec![identity; data.len()])
        } else {
            self.coll_recv(self.rank() - 1, tag)
        }
    }

    /// Exclusive prefix sum of one `u64` (rank 0 gets 0).
    pub fn exscan_sum_u64(&self, v: u64) -> MpsResult<u64> {
        Ok(self.exscan(&[v], 0, |a, b| *a += *b)?[0])
    }

    /// Gathers variable-length contributions on `root`; returns
    /// `Some(per-rank vectors)` on the root, `None` elsewhere.
    pub fn gatherv<T: Pod>(&self, root: usize, data: &[T]) -> MpsResult<Option<Vec<Vec<T>>>> {
        assert!(root < self.size(), "gatherv root {root} out of range");
        let tag = self.next_coll_tag(OP_GATHER);
        let _tspan = self.coll_span(tag);
        if self.rank() != root {
            self.send_internal(root, tag, coll_encode(data));
            return Ok(None);
        }
        let mut out = Vec::with_capacity(self.size());
        for src in 0..self.size() {
            if src == root {
                out.push(data.to_vec());
            } else {
                out.push(self.coll_recv(src, tag)?);
            }
        }
        Ok(Some(out))
    }

    /// Gathers variable-length contributions on every rank.
    #[allow(clippy::needless_range_loop)] // src doubles as the peer rank id
    pub fn allgatherv<T: Pod>(&self, data: &[T]) -> MpsResult<Vec<Vec<T>>> {
        let tag = self.next_coll_tag(OP_ALLGATHER);
        let _tspan = self.coll_span(tag);
        for dst in 0..self.size() {
            if dst != self.rank() {
                self.send_internal(dst, tag, coll_encode(data));
            }
        }
        let mut out = Vec::with_capacity(self.size());
        for src in 0..self.size() {
            if src == self.rank() {
                out.push(data.to_vec());
            } else {
                out.push(self.coll_recv(src, tag)?);
            }
        }
        Ok(out)
    }

    /// Personalized all-to-all: `sends[d]` goes to rank `d`; the result
    /// holds what each source rank sent here (`result[s]` from rank `s`).
    ///
    /// Implemented as `p` point-to-point sends and receives — the
    /// message structure behind the paper's `p + m/p` preprocessing
    /// communication bound. The *copies* are this convenience API's
    /// own, not the model's: each payload is copied once into its
    /// message on the send side and once out of it into the returned
    /// vector. Bulk exchanges that should not pay for either build
    /// their buffers in place, hand them over with
    /// [`crate::bytes_from_vec`] + [`Comm::alltoallv_bytes`] and read
    /// the result through [`crate::PodArray`] views, as the
    /// preprocessing pipeline does.
    pub fn alltoallv<T: Pod>(&self, sends: &[Vec<T>]) -> MpsResult<Vec<Vec<T>>> {
        assert_eq!(
            sends.len(),
            self.size(),
            "alltoallv needs exactly one buffer per destination rank"
        );
        let tag = self.next_coll_tag(OP_ALLTOALL);
        let _tspan = self.coll_span(tag);
        // Stagger destinations so all ranks don't hammer rank 0 first.
        for k in 0..self.size() {
            let dst = (self.rank() + k) % self.size();
            if dst != self.rank() {
                self.send_internal(dst, tag, coll_encode(&sends[dst]));
            }
        }
        let mut out: Vec<Vec<T>> = (0..self.size()).map(|_| Vec::new()).collect();
        out[self.rank()] = sends[self.rank()].clone();
        for k in 0..self.size() {
            let src = (self.rank() + self.size() - k) % self.size();
            if src != self.rank() {
                out[src] = self.coll_recv(src, tag)?;
            }
        }
        Ok(out)
    }

    /// Byte-level personalized all-to-all (used for pre-serialized blobs).
    ///
    /// No debug element stamp: payloads are raw bytes by contract, so
    /// pair it only with itself across ranks.
    #[allow(clippy::needless_range_loop)] // src doubles as the peer rank id
    pub fn alltoallv_bytes(&self, sends: Vec<Bytes>) -> MpsResult<Vec<Bytes>> {
        assert_eq!(
            sends.len(),
            self.size(),
            "alltoallv needs exactly one buffer per destination rank"
        );
        let tag = self.next_coll_tag(OP_ALLTOALL);
        let _tspan = self.coll_span(tag);
        let mut out: Vec<Bytes> = vec![Bytes::new(); self.size()];
        for (dst, buf) in sends.into_iter().enumerate() {
            if dst == self.rank() {
                out[dst] = buf;
            } else {
                self.send_internal(dst, tag, buf);
            }
        }
        for src in 0..self.size() {
            if src != self.rank() {
                out[src] = self.recv_internal(src, tag)?;
            }
        }
        Ok(out)
    }

    /// Personalized scatter from `root`: the root supplies one buffer
    /// per rank (`Some(buffers)`), everyone else passes `None`; each
    /// rank returns its own piece.
    ///
    /// # Panics
    ///
    /// Panics if the root's buffer count differs from the rank count,
    /// or if a non-root passes `Some`.
    pub fn scatterv<T: Pod>(&self, root: usize, data: Option<&[Vec<T>]>) -> MpsResult<Vec<T>> {
        assert!(root < self.size(), "scatterv root {root} out of range");
        let tag = self.next_coll_tag(OP_SCATTER);
        let _tspan = self.coll_span(tag);
        if self.rank() == root {
            let bufs = data.expect("root must supply the scatter buffers");
            assert_eq!(bufs.len(), self.size(), "need one scatter buffer per rank");
            for (dst, buf) in bufs.iter().enumerate() {
                if dst != root {
                    self.send_internal(dst, tag, coll_encode(buf));
                }
            }
            Ok(bufs[root].clone())
        } else {
            assert!(data.is_none(), "only the root supplies scatter buffers");
            self.coll_recv(root, tag)
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::universe::Universe;

    #[test]
    fn barrier_many_times() {
        Universe::run(8, |c| {
            for _ in 0..50 {
                c.barrier().unwrap();
            }
        });
    }

    #[test]
    fn barrier_orders_side_effects() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let before = AtomicUsize::new(0);
        let after = AtomicUsize::new(0);
        Universe::run(6, |c| {
            before.fetch_add(1, Ordering::SeqCst);
            c.barrier().unwrap();
            // Everyone must have incremented `before` by now.
            assert_eq!(before.load(Ordering::SeqCst), 6);
            after.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(after.load(Ordering::SeqCst), 6);
    }

    #[test]
    fn bcast_from_every_root() {
        for p in [1usize, 2, 3, 5, 8, 13] {
            for root in 0..p {
                let out = Universe::run(p, |c| {
                    let data: Vec<u32> =
                        if c.rank() == root { vec![7, 8, 9, root as u32] } else { Vec::new() };
                    c.bcast(root, &data).unwrap()
                });
                for v in out {
                    assert_eq!(v, vec![7, 8, 9, root as u32], "p={p} root={root}");
                }
            }
        }
    }

    #[test]
    fn bcast_val_scalar() {
        let out =
            Universe::run(7, |c| c.bcast_val(3, if c.rank() == 3 { 99u64 } else { 0 }).unwrap());
        assert!(out.iter().all(|&v| v == 99));
    }

    #[test]
    fn reduce_sum_to_each_root() {
        for p in [1usize, 4, 7] {
            for root in 0..p {
                let out = Universe::run(p, |c| {
                    c.reduce(root, &[c.rank() as u64, 1u64], |a, b| *a += *b).unwrap()
                });
                let expect: u64 = (0..p as u64).sum();
                for (r, v) in out.iter().enumerate() {
                    if r == root {
                        assert_eq!(v.as_deref(), Some(&[expect, p as u64][..]));
                    } else {
                        assert!(v.is_none());
                    }
                }
            }
        }
    }

    #[test]
    fn allreduce_scalar_helpers() {
        let out = Universe::run(9, |c| {
            let r = c.rank() as u64;
            (
                c.allreduce_sum_u64(r).unwrap(),
                c.allreduce_max_u64(r).unwrap(),
                c.allreduce_min_u64(r + 3).unwrap(),
                c.allreduce_sum_f64(0.5).unwrap(),
            )
        });
        for (s, mx, mn, f) in out {
            assert_eq!(s, 36);
            assert_eq!(mx, 8);
            assert_eq!(mn, 3);
            assert!((f - 4.5).abs() < 1e-12);
        }
    }

    #[test]
    fn scan_inclusive_prefix_sums() {
        for p in [1usize, 2, 3, 6, 11] {
            let out =
                Universe::run(p, |c| c.scan(&[c.rank() as u64 + 1], |a, b| *a += *b).unwrap());
            for (r, v) in out.iter().enumerate() {
                let expect: u64 = (1..=r as u64 + 1).sum();
                assert_eq!(v[0], expect, "p={p} rank={r}");
            }
        }
    }

    #[test]
    fn scan_is_ordered_not_commutative_safe() {
        // 2x2 matrix product (associative, non-commutative) checks
        // operand ordering: the scan must multiply strictly in rank
        // order. Entries mod a prime to avoid overflow.
        const P: u64 = 1_000_000_007;
        fn matmul(a: &mut [u64; 4], b: &[u64; 4]) {
            let m = [
                (a[0] * b[0] + a[1] * b[2]) % P,
                (a[0] * b[1] + a[1] * b[3]) % P,
                (a[2] * b[0] + a[3] * b[2]) % P,
                (a[2] * b[1] + a[3] * b[3]) % P,
            ];
            *a = m;
        }
        let mats: Vec<[u64; 4]> = (0..7u64).map(|r| [r + 1, r + 2, r * r + 3, 1]).collect();
        let out = Universe::run(7, |c| c.scan(&[mats[c.rank()]], matmul).unwrap());
        let mut expect = [1u64, 0, 0, 1];
        for (r, v) in out.iter().enumerate() {
            matmul(&mut expect, &mats[r]);
            assert_eq!(v[0], expect, "rank {r}");
        }
    }

    #[test]
    fn exscan_vector_elementwise() {
        let out =
            Universe::run(6, |c| c.exscan(&[1u64, c.rank() as u64], 0, |a, b| *a += *b).unwrap());
        for (r, v) in out.iter().enumerate() {
            assert_eq!(v[0], r as u64);
            let expect: u64 = (0..r as u64).sum();
            assert_eq!(v[1], expect);
        }
    }

    #[test]
    fn exscan_sum_scalar() {
        let out = Universe::run(8, |c| c.exscan_sum_u64(2).unwrap());
        assert_eq!(out, vec![0, 2, 4, 6, 8, 10, 12, 14]);
    }

    #[test]
    fn gatherv_collects_ragged() {
        let out = Universe::run(5, |c| {
            let mine: Vec<u32> = (0..c.rank() as u32).collect();
            c.gatherv(2, &mine).unwrap()
        });
        for (r, v) in out.iter().enumerate() {
            if r == 2 {
                let g = v.as_ref().unwrap();
                for (src, part) in g.iter().enumerate() {
                    assert_eq!(part, &(0..src as u32).collect::<Vec<_>>());
                }
            } else {
                assert!(v.is_none());
            }
        }
    }

    #[test]
    fn allgatherv_everyone_sees_everything() {
        let out =
            Universe::run(4, |c| c.allgatherv(&[c.rank() as u64 * 10, c.rank() as u64]).unwrap());
        for v in out {
            assert_eq!(v.len(), 4);
            for (src, part) in v.iter().enumerate() {
                assert_eq!(part, &vec![src as u64 * 10, src as u64]);
            }
        }
    }

    #[test]
    fn alltoallv_personalized_exchange() {
        let p = 6;
        let out = Universe::run(p, |c| {
            // Rank s sends [s*10+d; d+1] to rank d.
            let sends: Vec<Vec<u32>> =
                (0..p).map(|d| vec![(c.rank() * 10 + d) as u32; d + 1]).collect();
            c.alltoallv(&sends).unwrap()
        });
        for (d, recvd) in out.iter().enumerate() {
            for (s, part) in recvd.iter().enumerate() {
                assert_eq!(part, &vec![(s * 10 + d) as u32; d + 1], "d={d} s={s}");
            }
        }
    }

    #[test]
    fn alltoallv_bytes_roundtrip() {
        use bytes::Bytes;
        let out = Universe::run(3, |c| {
            let sends: Vec<Bytes> =
                (0..3).map(|d| Bytes::from(vec![c.rank() as u8, d as u8])).collect();
            c.alltoallv_bytes(sends).unwrap()
        });
        for (d, recvd) in out.iter().enumerate() {
            for (s, b) in recvd.iter().enumerate() {
                assert_eq!(&b[..], &[s as u8, d as u8]);
            }
        }
    }

    #[test]
    fn mixed_collectives_and_p2p_do_not_cross_match() {
        // Interleave user traffic with collectives to exercise tag
        // separation and the pending queue.
        let out = Universe::run(4, |c| {
            let next = (c.rank() + 1) % 4;
            let prev = (c.rank() + 3) % 4;
            c.send_val::<u64>(next, 42, c.rank() as u64);
            let s1 = c.allreduce_sum_u64(1).unwrap();
            let from_prev = c.recv_val::<u64>(prev, 42).unwrap();
            c.barrier().unwrap();
            let s2 = c.allreduce_sum_u64(from_prev).unwrap();
            (s1, s2)
        });
        for (s1, s2) in out {
            assert_eq!(s1, 4);
            assert_eq!(s2, 1 + 2 + 3);
        }
    }

    #[test]
    fn scatterv_delivers_per_rank_pieces() {
        for p in [1usize, 2, 5, 8] {
            for root in [0, p - 1] {
                let out = Universe::run(p, |c| {
                    let data: Option<Vec<Vec<u32>>> =
                        (c.rank() == root).then(|| (0..p).map(|d| vec![d as u32; d + 1]).collect());
                    c.scatterv(root, data.as_deref()).unwrap()
                });
                for (r, v) in out.iter().enumerate() {
                    assert_eq!(v, &vec![r as u32; r + 1], "p={p} root={root} rank={r}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "one scatter buffer per rank")]
    fn scatterv_rejects_wrong_buffer_count() {
        Universe::run(2, |c| {
            let data: Option<Vec<Vec<u32>>> = (c.rank() == 0).then(|| vec![vec![1u32]]);
            c.scatterv(0, data.as_deref()).unwrap()
        });
    }

    #[test]
    fn scatterv_then_gatherv_roundtrip() {
        let p = 6;
        let out = Universe::run(p, |c| {
            let data: Option<Vec<Vec<u64>>> =
                (c.rank() == 2).then(|| (0..p).map(|d| vec![d as u64 * 7]).collect());
            let mine = c.scatterv(2, data.as_deref()).unwrap();
            c.gatherv(2, &mine).unwrap()
        });
        let g = out[2].as_ref().unwrap();
        for (d, part) in g.iter().enumerate() {
            assert_eq!(part, &vec![d as u64 * 7]);
        }
    }
}
