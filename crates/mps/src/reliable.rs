//! Reliable, exactly-once, in-order delivery over a lossy frame sink.
//!
//! Every point-to-point payload travels inside a *frame*: a 24-byte
//! header (per-link sequence number, the application tag, payload
//! length, CRC32c) plus the payload. The receiver re-derives the
//! sender's order from the sequence numbers:
//!
//! - **corruption** (truncate/bit-flip) is caught by the length field
//!   and checksum — a damaged frame is counted and discarded, and the
//!   gap recovered like a drop;
//! - **duplicates** (injected, or byproducts of retransmission) are
//!   discarded by comparing against the next expected sequence number;
//! - **reordering** parks early frames in a bounded buffer until the
//!   gap closes;
//! - **loss** is repaired by receiver-driven NACK/retransmit with
//!   exponential backoff: every sent frame stays in a shared per-link
//!   retransmit window until the receiver's cumulative ack passes it,
//!   so recovery needs no cooperation from the (possibly blocked)
//!   sender thread. After `max_retries` fruitless rounds the receive
//!   fails with [`crate::MpsError::DeliveryFailed`] instead of
//!   hanging.
//!
//! The engine is fabric-agnostic and exists only while a [`FaultPlan`]
//! is installed: frames leave through a [`FrameSink`], which the
//! in-process backend implements as a mailbox push and the socket
//! backend as a queued wire write. Either way frames get "lost" only
//! when the plan injects faults. The window prune is driven by the ack
//! watermark the receiver publishes, so memory per link is bounded by
//! the amount genuinely in flight plus the reorder-buffer cap.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use bytes::Bytes;
use tc_graph::io::Crc32c;

use crate::chaos::{Corruption, FaultPlan};
use crate::error::{MpsError, MpsResult};
use crate::fabric::{lock_recover, Packet};
use crate::stats::{ReliabilityStats, SharedReliabilityStats};

/// Tag marking transport frames in a mailbox. Bit 63 is clear (so a
/// frame is never mistaken for a collective packet) and the value sits
/// far above [`crate::MAX_USER_TAG`], so it cannot collide with
/// application traffic either.
pub(crate) const TRANSPORT_TAG: u64 = (1 << 62) | 0xF8A3;

/// Tag of a *nothing-to-recover* notice: a remote sender's answer to a
/// NACK that found no frame at or above the requested sequence. The
/// payload is the 8-byte requested sequence number. Only the socket
/// backend produces these (the in-process backend resolves the same
/// question synchronously against the shared window).
pub(crate) const TRANSPORT_NOTHING_TAG: u64 = (1 << 62) | 0xF8A4;

/// Frame header size: seq (8) + inner tag (8) + payload len (4) + CRC32c (4).
pub(crate) const FRAME_HEADER: usize = 24;

/// Largest payload one frame can carry (the header's length field is
/// 32 bits). Larger sends fail with a typed [`MpsError::Protocol`].
pub(crate) const MAX_FRAME_PAYLOAD: usize = u32::MAX as usize;

/// Out-of-order frames parked per link before the newest-seq ones are
/// shed (they are recovered by retransmission once the gap closes).
const REORDER_CAP: usize = 64;

/// Where encoded frames go once the transport is done with them. The
/// implementation decides what a "wire" is: the in-process fabric
/// pushes into the destination's mailbox, the socket fabric writes to
/// the peer's stream.
pub(crate) trait FrameSink: Sync {
    /// Puts one encoded frame of the link `src → dst` on the wire.
    /// Must not block on the receiving rank's progress.
    fn deliver_frame(&self, src: usize, dst: usize, frame: Bytes);
}

/// Rejects payloads that cannot be framed (length field is u32).
/// Called on the send path *before* a sequence number is consumed, so
/// a rejected payload perturbs nothing.
pub(crate) fn check_frame_len(rank: usize, len: usize) -> MpsResult<()> {
    if len > MAX_FRAME_PAYLOAD {
        return Err(MpsError::Protocol {
            rank,
            msg: format!(
                "payload of {len} bytes exceeds the frame limit of {MAX_FRAME_PAYLOAD} bytes"
            ),
        });
    }
    Ok(())
}

/// The header of one frame: seq, tag and payload length, then the
/// CRC32c streamed over those 20 bytes and the payload. The payload
/// fits the length field ([`check_frame_len`]).
pub(crate) fn frame_header(seq: u64, tag: u64, payload: &[u8]) -> [u8; FRAME_HEADER] {
    let mut h = [0u8; FRAME_HEADER];
    h[..8].copy_from_slice(&seq.to_le_bytes());
    h[8..16].copy_from_slice(&tag.to_le_bytes());
    h[16..20].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    let mut crc = Crc32c::new();
    crc.update(&h[..20]);
    crc.update(payload);
    h[20..].copy_from_slice(&crc.finish().to_le_bytes());
    h
}

/// Encodes one frame: header followed by the payload. Fails with a
/// typed error (never panics) when the payload exceeds
/// [`MAX_FRAME_PAYLOAD`]; `src` names the sending rank in that error.
pub(crate) fn encode_frame(src: usize, seq: u64, tag: u64, payload: &Bytes) -> MpsResult<Bytes> {
    check_frame_len(src, payload.len())?;
    let frame = [&frame_header(seq, tag, payload.as_slice())[..], payload.as_slice()].concat();
    Ok(Bytes::from(frame))
}

/// Verifies a frame where it lies and returns its seq, tag and
/// payload; `None` means the frame is damaged (truncated, extended, or
/// bit-flipped) and must be treated as lost.
pub(crate) fn check_frame(b: &[u8]) -> Option<(u64, u64, &[u8])> {
    let (head, payload) = b.split_at_checked(FRAME_HEADER)?;
    let seq = u64::from_le_bytes(head[..8].try_into().unwrap());
    let tag = u64::from_le_bytes(head[8..16].try_into().unwrap());
    // Rebuilding the header checks the length field and the CRC at once.
    let intact = payload.len() <= MAX_FRAME_PAYLOAD && frame_header(seq, tag, payload) == *head;
    intact.then_some((seq, tag, payload))
}

/// [`check_frame`] on a frame held in a [`Bytes`].
pub(crate) fn decode_frame(frame: &Bytes) -> Option<(u64, u64, Bytes)> {
    let (seq, tag, _) = check_frame(frame.as_slice())?;
    // The payload view shares the frame allocation; the 24-byte header
    // keeps it 8-byte aligned, so typed decoding stays zero-copy.
    Some((seq, tag, frame.slice(FRAME_HEADER..)))
}

/// Applies a wire-level corruption to a copy of `frame`.
fn corrupt_frame(frame: &Bytes, c: Corruption) -> Bytes {
    let mut v = frame.to_vec();
    match c {
        Corruption::Truncate(entropy) => {
            v.truncate((entropy % v.len().max(1) as u64) as usize);
        }
        Corruption::BitFlip(entropy) => {
            let bit = entropy % (v.len() as u64 * 8);
            v[(bit / 8) as usize] ^= 1 << (bit % 8);
        }
    }
    Bytes::from(v)
}

/// Sender-side retransmit window of one directed link.
#[derive(Debug, Default)]
struct SendWindow {
    /// Sequence number of the next frame sent on this link.
    next_seq: u64,
    /// Unacked frames, ascending by sequence number.
    frames: VecDeque<(u64, Bytes)>,
}

/// The shared reliable-delivery engine of one universe (or, on the
/// socket fabric, of one rank process). Both fabrics build it only
/// when a [`FaultPlan`] is installed.
pub(crate) struct Transport {
    plan: FaultPlan,
    size: usize,
    /// Per-link retransmit windows, indexed `src * size + dst`.
    windows: Vec<Mutex<SendWindow>>,
    /// Per-link cumulative acks: the receiver's next expected sequence
    /// number, published so the *sender* can prune its window.
    acked: Vec<AtomicU64>,
    /// Frames held back by reorder injection, flushed by the link's
    /// next transmission (or by recovery/finish).
    held: Vec<Mutex<Vec<Bytes>>>,
    /// Per-rank reliability counters (sender-side events land on the
    /// sending rank, receiver-side events on the receiving rank).
    stats: Vec<SharedReliabilityStats>,
}

impl Transport {
    pub(crate) fn new(size: usize, plan: FaultPlan) -> Self {
        Self {
            plan,
            size,
            windows: (0..size * size).map(|_| Mutex::new(SendWindow::default())).collect(),
            acked: (0..size * size).map(|_| AtomicU64::new(0)).collect(),
            held: (0..size * size).map(|_| Mutex::new(Vec::new())).collect(),
            stats: (0..size).map(|_| SharedReliabilityStats::default()).collect(),
        }
    }

    pub(crate) fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    pub(crate) fn stats(&self, rank: usize) -> ReliabilityStats {
        self.stats[rank].snapshot()
    }

    fn link(&self, src: usize, dst: usize) -> usize {
        src * self.size + dst
    }

    /// Sends one application payload over the lossy link: frames it,
    /// appends it to the retransmit window (pruning everything the
    /// receiver has acked), and transmits subject to the fault plan.
    /// An over-long payload fails *before* consuming a sequence
    /// number, so the link stays usable after the error.
    pub(crate) fn send(
        &self,
        sink: &dyn FrameSink,
        src: usize,
        dst: usize,
        tag: u64,
        payload: Bytes,
    ) -> MpsResult<()> {
        check_frame_len(src, payload.len())?;
        let l = self.link(src, dst);
        let (seq, frame) = {
            let mut w = lock_recover(&self.windows[l]);
            let acked = self.acked[l].load(Ordering::Acquire);
            while w.frames.front().is_some_and(|(s, _)| *s < acked) {
                w.frames.pop_front();
            }
            let seq = w.next_seq;
            let frame = encode_frame(src, seq, tag, &payload)?;
            w.next_seq += 1;
            w.frames.push_back((seq, frame.clone()));
            (seq, frame)
        };
        self.stats[src].frames_sent.fetch_add(1, Ordering::Relaxed);
        self.transmit(sink, src, dst, seq, &frame, 0);
        Ok(())
    }

    /// Puts one frame on the wire, applying the plan's decision for
    /// `attempt`. Never blocks on the receiver; an injected delay
    /// stalls the calling thread only.
    fn transmit(
        &self,
        sink: &dyn FrameSink,
        src: usize,
        dst: usize,
        seq: u64,
        frame: &Bytes,
        attempt: u32,
    ) {
        let d = self.plan.decide(src, dst, seq, attempt);
        let st = &self.stats[src];
        if let Some(delay) = d.delay {
            st.injected_delays.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(delay);
        }
        if d.drop {
            st.injected_drops.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let wire = match d.corrupt {
            Some(c) => {
                st.injected_corruptions.fetch_add(1, Ordering::Relaxed);
                corrupt_frame(frame, c)
            }
            None => frame.clone(),
        };
        if d.duplicate {
            st.injected_dups.fetch_add(1, Ordering::Relaxed);
            sink.deliver_frame(src, dst, wire.clone());
        }
        if d.reorder {
            st.injected_reorders.fetch_add(1, Ordering::Relaxed);
            lock_recover(&self.held[self.link(src, dst)]).push(wire);
            return;
        }
        sink.deliver_frame(src, dst, wire);
        // Any frame held back on this link is now "later than" a newer
        // frame — deliver it out of order, as the injection intended.
        self.flush_held(sink, src, dst);
    }

    fn flush_held(&self, sink: &dyn FrameSink, src: usize, dst: usize) -> usize {
        let held = {
            let mut h = lock_recover(&self.held[self.link(src, dst)]);
            std::mem::take(&mut *h)
        };
        let n = held.len();
        for frame in held {
            sink.deliver_frame(src, dst, frame);
        }
        n
    }

    /// Receiver-driven recovery: re-deliver every unacked frame of
    /// `src → dst` with sequence ≥ `from_seq` (flushing held-back
    /// frames first). Returns how many frames went back on the wire —
    /// zero means the sender has not produced `from_seq` yet, which is
    /// patience territory, not retry territory.
    pub(crate) fn retransmit_from(
        &self,
        sink: &dyn FrameSink,
        src: usize,
        dst: usize,
        from_seq: u64,
        attempt: u32,
    ) -> usize {
        let mut n = self.flush_held(sink, src, dst);
        let frames: Vec<(u64, Bytes)> = {
            let w = lock_recover(&self.windows[self.link(src, dst)]);
            w.frames.iter().filter(|(s, _)| *s >= from_seq).cloned().collect()
        };
        for (seq, frame) in frames {
            self.stats[src].retransmits.fetch_add(1, Ordering::Relaxed);
            tc_trace::instant_with(tc_trace::names::RETRANSMIT, tc_trace::Category::Comm, || {
                vec![("src", src.into()), ("seq", seq.into()), ("attempt", attempt.into())]
            });
            self.transmit(sink, src, dst, seq, &frame, attempt);
            n += 1;
        }
        n
    }

    /// Publishes the receiver's cumulative ack for `src → dst`, which
    /// lets the sender prune its retransmit window on its next send.
    pub(crate) fn ack(&self, src: usize, dst: usize, next_seq: u64) {
        self.acked[self.link(src, dst)].fetch_max(next_seq, Ordering::AcqRel);
    }

    /// Counts one receiver-driven recovery round on `rank`.
    pub(crate) fn note_nack(&self, rank: usize) {
        self.stats[rank].nacks.fetch_add(1, Ordering::Relaxed);
    }

    /// Delivers every held-back frame originating at `rank` (called
    /// when the rank finishes, so reorder holdbacks cannot outlive
    /// their sender).
    pub(crate) fn flush_rank(&self, sink: &dyn FrameSink, rank: usize) {
        for dst in 0..self.size {
            self.flush_held(sink, rank, dst);
        }
    }

    /// Whether every frame `src` ever sent has been acked by its
    /// receiver and no holdback is pending — i.e. the rank can
    /// disconnect without stranding in-flight data. A finishing socket
    /// rank waits for this before it announces FIN.
    pub(crate) fn outbound_drained(&self, src: usize) -> bool {
        for dst in 0..self.size {
            let l = self.link(src, dst);
            if !lock_recover(&self.held[l]).is_empty() {
                return false;
            }
            let acked = self.acked[l].load(Ordering::Acquire);
            if lock_recover(&self.windows[l]).frames.iter().any(|(s, _)| *s >= acked) {
                return false;
            }
        }
        true
    }
}

impl std::fmt::Debug for Transport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Transport")
            .field("size", &self.size)
            .field("plan", &self.plan)
            .finish_non_exhaustive()
    }
}

/// Receiver-side state of one inbound link (owned by the receiving
/// rank's [`crate::Comm`], allocated only when a transport exists).
#[derive(Debug)]
pub(crate) struct LinkRx {
    /// Next sequence number this receiver will accept.
    pub next_seq: u64,
    /// Out-of-order frames parked until the gap closes, keyed by seq.
    parked: BTreeMap<u64, (u64, Bytes)>,
    /// Recovery rounds driven for the current gap (reset on progress).
    pub attempts: u32,
    /// When the next recovery round for this link is due.
    pub nack_at: Option<Instant>,
    /// A damaged frame was seen since the last accepted one: evidence
    /// that something is missing even if the parked buffer is empty.
    corrupt_evidence: bool,
}

impl LinkRx {
    fn new() -> Self {
        Self {
            next_seq: 0,
            parked: BTreeMap::new(),
            attempts: 0,
            nack_at: None,
            corrupt_evidence: false,
        }
    }

    /// Whether something is demonstrably missing on this link.
    pub(crate) fn has_gap_evidence(&self) -> bool {
        self.corrupt_evidence || !self.parked.is_empty()
    }

    /// A recovery round found nothing at or above `next_seq` in the
    /// retransmit window. Every genuinely missing frame would still be
    /// there (frames are only pruned below the receiver's own ack), so
    /// this proves there is no gap: any corruption seen must have been
    /// a stale duplicate. Reset the budget and re-arm patience.
    pub(crate) fn note_nothing_to_recover(&mut self, rearm: Instant) {
        debug_assert!(self.parked.is_empty(), "parked frames imply unacked window entries");
        self.attempts = 0;
        self.corrupt_evidence = false;
        self.nack_at = Some(rearm);
    }
}

/// All inbound-link state of one receiving rank.
#[derive(Debug)]
pub(crate) struct RxState {
    links: Vec<LinkRx>,
}

impl RxState {
    pub(crate) fn new(size: usize) -> Self {
        Self { links: (0..size).map(|_| LinkRx::new()).collect() }
    }

    pub(crate) fn link(&mut self, src: usize) -> &mut LinkRx {
        &mut self.links[src]
    }

    pub(crate) fn links(&mut self) -> impl Iterator<Item = (usize, &mut LinkRx)> {
        self.links.iter_mut().enumerate()
    }

    /// Ingests one raw frame arriving at `rank`, appending every
    /// application packet it releases (the frame itself plus any parked
    /// successors it unblocks) to `out` in sequence order. Cumulative
    /// ack progress is published through `ack` (with the new
    /// next-expected sequence number), so the caller decides whether
    /// that is a shared-memory store or a wire message.
    pub(crate) fn ingest(
        &mut self,
        transport: &Transport,
        rank: usize,
        src: usize,
        frame: &Bytes,
        out: &mut Vec<Packet>,
        ack: &mut dyn FnMut(u64),
    ) {
        let st = &transport.stats[rank];
        let link = &mut self.links[src];
        let Some((seq, tag, payload)) = decode_frame(frame) else {
            st.corrupt_frames.fetch_add(1, Ordering::Relaxed);
            tc_trace::instant_with(
                tc_trace::names::FRAME_CORRUPT,
                tc_trace::Category::Comm,
                || vec![("src", src.into()), ("bytes", frame.len().into())],
            );
            link.corrupt_evidence = true;
            // Recover promptly: a damaged frame is hard evidence of a
            // gap, no need to wait out a patience period.
            link.nack_at.get_or_insert_with(Instant::now);
            return;
        };
        if seq < link.next_seq {
            st.dup_frames.fetch_add(1, Ordering::Relaxed);
            return;
        }
        if seq > link.next_seq {
            if link.parked.insert(seq, (tag, payload)).is_some() {
                st.dup_frames.fetch_add(1, Ordering::Relaxed);
            } else {
                st.reordered_frames.fetch_add(1, Ordering::Relaxed);
                st.reorder_depth_max.fetch_max(link.parked.len() as u64, Ordering::Relaxed);
                // Bounded memory: shed the newest frames beyond the
                // cap. The shed frames are only recoverable by
                // retransmission, so the drop must not stay invisible
                // until a patience timer fires — count it and make the
                // link's recovery round due *now*, which re-requests
                // everything from the gap up through the evicted
                // sequence numbers.
                let mut evicted = 0u64;
                while link.parked.len() > REORDER_CAP {
                    let last = *link.parked.keys().next_back().expect("non-empty");
                    link.parked.remove(&last);
                    evicted += 1;
                }
                if evicted > 0 {
                    st.reorder_evicted.fetch_add(evicted, Ordering::Relaxed);
                    link.nack_at = Some(Instant::now());
                }
            }
            link.nack_at.get_or_insert_with(|| Instant::now() + transport.plan.nack_base());
            return;
        }
        // In-order frame: accept it and drain the parked run behind it.
        out.push(Packet { src, tag, data: payload });
        link.next_seq += 1;
        while let Some((tag, payload)) = link.parked.remove(&link.next_seq) {
            out.push(Packet { src, tag, data: payload });
            link.next_seq += 1;
        }
        link.attempts = 0;
        link.nack_at = None;
        link.corrupt_evidence = false;
        ack(link.next_seq);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use tc_graph::io::crc32c;

    /// Test sink that records delivered frames.
    struct VecSink(Mutex<Vec<(usize, usize, Bytes)>>);

    impl VecSink {
        fn new() -> Self {
            Self(Mutex::new(Vec::new()))
        }

        fn delivered(&self) -> usize {
            self.0.lock().unwrap().len()
        }
    }

    impl FrameSink for VecSink {
        fn deliver_frame(&self, src: usize, dst: usize, frame: Bytes) {
            self.0.lock().unwrap().push((src, dst, frame));
        }
    }

    fn frame(seq: u64, tag: u64, payload: Vec<u8>) -> Bytes {
        encode_frame(0, seq, tag, &Bytes::from(payload)).expect("small payload")
    }

    #[test]
    fn crc32c_known_answer() {
        // Frames use the workspace's one CRC32c: its canonical check value.
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
        assert_eq!(crc32c(b""), 0);
    }

    #[test]
    fn crc_pair_matches_concatenation() {
        // Streamed over header and payload, the header's CRC is the
        // CRC32c of the frame with the CRC field left out.
        let f = frame(5, 9, b"header and payload".to_vec());
        let b = f.as_slice();
        let joined = [&b[..20], &b[FRAME_HEADER..]].concat();
        assert_eq!(u32::from_le_bytes(b[20..24].try_into().unwrap()), crc32c(&joined));
    }

    #[test]
    fn frame_roundtrip() {
        let payload = Bytes::from((0u8..200).collect::<Vec<u8>>());
        let f = encode_frame(0, 7, 0x1234, &payload).expect("valid length");
        let (seq, tag, p) = decode_frame(&f).expect("valid frame");
        assert_eq!((seq, tag), (7, 0x1234));
        assert_eq!(p, payload);
        // Zero-copy: the payload view aliases the frame allocation and
        // stays 8-byte aligned for typed decoding.
        assert_eq!(p.as_ptr() as usize, f.as_ptr() as usize + FRAME_HEADER);
        assert_eq!(p.as_ptr() as usize % 8, 0);
    }

    #[test]
    fn empty_payload_roundtrip() {
        let f = frame(0, 1, vec![]);
        let (seq, tag, p) = decode_frame(&f).expect("valid frame");
        assert_eq!((seq, tag, p.len()), (0, 1, 0));
    }

    #[test]
    fn oversized_payload_is_a_typed_error() {
        // Boundary check without allocating 4 GiB: the length check is
        // the exact guard `encode_frame` and `Transport::send` apply.
        assert!(check_frame_len(3, MAX_FRAME_PAYLOAD).is_ok());
        match check_frame_len(3, MAX_FRAME_PAYLOAD + 1) {
            Err(MpsError::Protocol { rank, msg }) => {
                assert_eq!(rank, 3);
                assert!(msg.contains("exceeds the frame limit"), "{msg}");
            }
            other => panic!("expected a Protocol error, got {other:?}"),
        }
    }

    #[test]
    fn every_truncation_is_detected() {
        let f = frame(3, 9, vec![5u8; 64]);
        for keep in 0..f.len() {
            let cut = Bytes::from(f.as_slice()[..keep].to_vec());
            assert!(decode_frame(&cut).is_none(), "truncation to {keep} bytes undetected");
        }
    }

    #[test]
    fn every_single_bitflip_is_detected() {
        let f = frame(11, 42, vec![0xAB; 32]);
        for bit in 0..f.len() * 8 {
            let flipped = corrupt_frame(&f, Corruption::BitFlip(bit as u64));
            assert!(decode_frame(&flipped).is_none(), "bit {bit} flip undetected");
        }
    }

    #[test]
    fn rx_reorders_dedups_and_acks() {
        let plan = FaultPlan::new(0);
        let transport = Transport::new(2, plan);
        let mut rx = RxState::new(2);
        let mk = |seq: u64| frame(seq, 100 + seq, vec![seq as u8]);
        let mut out = Vec::new();
        let mut acked = 0u64;
        // 2, 0, 2 (dup), 1 → released as 0, 1, 2 exactly once.
        for seq in [2, 0, 2, 1] {
            rx.ingest(&transport, 1, 0, &mk(seq), &mut out, &mut |n| acked = n);
        }
        let tags: Vec<u64> = out.iter().map(|p| p.tag).collect();
        assert_eq!(tags, vec![100, 101, 102]);
        let st = transport.stats(1);
        assert_eq!(st.dup_frames, 1);
        assert_eq!(st.reordered_frames, 1);
        assert_eq!(acked, 3, "cumulative ack published through the callback");
        assert!(!rx.link(0).has_gap_evidence());
    }

    #[test]
    fn rx_parks_bounded() {
        let transport = Transport::new(2, FaultPlan::new(0));
        let mut rx = RxState::new(2);
        let mut out = Vec::new();
        for seq in 1..(REORDER_CAP as u64 + 40) {
            let f = frame(seq, seq, vec![]);
            rx.ingest(&transport, 1, 0, &f, &mut out, &mut |_| {});
        }
        assert!(out.is_empty(), "gap at 0 never closed");
        assert!(rx.link(0).parked.len() <= REORDER_CAP);
        assert!(rx.link(0).has_gap_evidence());
    }

    #[test]
    fn reorder_eviction_is_counted_and_nacks_immediately() {
        let transport = Transport::new(2, FaultPlan::new(0));
        let mut rx = RxState::new(2);
        let mut out = Vec::new();
        // Park exactly up to the cap (seqs 1..=CAP; 0 is the gap): no
        // eviction yet, and the recovery timer sits a patience period
        // in the future.
        for seq in 1..=(REORDER_CAP as u64) {
            rx.ingest(&transport, 1, 0, &frame(seq, seq, vec![]), &mut out, &mut |_| {});
        }
        assert_eq!(transport.stats(1).reorder_evicted, 0);
        let patience = rx.link(0).nack_at.expect("armed");
        assert!(patience > Instant::now(), "no eviction → patience timer");
        // One more parked frame overflows the buffer.
        let before = Instant::now();
        rx.ingest(
            &transport,
            1,
            0,
            &frame(REORDER_CAP as u64 + 1, 7, vec![]),
            &mut out,
            &mut |_| {},
        );
        assert_eq!(transport.stats(1).reorder_evicted, 1, "eviction must be counted");
        let due = rx.link(0).nack_at.expect("armed");
        assert!(due <= Instant::now() && due >= before, "eviction must make recovery due now");
        assert!(rx.link(0).parked.len() <= REORDER_CAP);
    }

    #[test]
    fn corrupt_frame_flags_gap_evidence() {
        let transport = Transport::new(2, FaultPlan::new(0));
        let mut rx = RxState::new(2);
        let mut out = Vec::new();
        let f = frame(0, 7, vec![1, 2, 3]);
        rx.ingest(
            &transport,
            1,
            0,
            &corrupt_frame(&f, Corruption::BitFlip(13)),
            &mut out,
            &mut |_| {},
        );
        assert!(out.is_empty());
        assert!(rx.link(0).has_gap_evidence());
        assert_eq!(transport.stats(1).corrupt_frames, 1);
        // The pristine retransmission still gets through.
        rx.ingest(&transport, 1, 0, &f, &mut out, &mut |_| {});
        assert_eq!(out.len(), 1);
        assert!(!rx.link(0).has_gap_evidence());
    }

    #[test]
    fn send_and_recovery_survive_poisoned_locks() {
        // A rank thread that panics while holding transport locks must
        // not turn every surviving rank's send into a poisoned-lock
        // panic: the orderly PeerFailed path depends on survivors
        // still being able to transmit and recover.
        let t = Arc::new(Transport::new(2, FaultPlan::new(0)));
        let t2 = Arc::clone(&t);
        let _ = std::thread::spawn(move || {
            let _w = t2.windows[1].lock().unwrap(); // link 0→1
            let _h = t2.held[1].lock().unwrap();
            panic!("rank dies mid-send");
        })
        .join();
        assert!(t.windows[1].is_poisoned() && t.held[1].is_poisoned());
        let sink = VecSink::new();
        t.send(&sink, 0, 1, 7, Bytes::from(vec![1, 2, 3])).expect("send survives poison");
        assert_eq!(sink.delivered(), 1);
        assert_eq!(t.retransmit_from(&sink, 0, 1, 0, 1), 1, "recovery survives poison");
        assert!(!t.outbound_drained(0));
        t.ack(0, 1, 1);
        assert!(t.outbound_drained(0));
    }

    #[test]
    fn outbound_drained_tracks_acks_and_holdbacks() {
        let t = Transport::new(2, FaultPlan::new(0));
        let sink = VecSink::new();
        assert!(t.outbound_drained(0), "nothing sent yet");
        t.send(&sink, 0, 1, 1, Bytes::from(vec![1])).unwrap();
        t.send(&sink, 0, 1, 2, Bytes::from(vec![2])).unwrap();
        assert!(!t.outbound_drained(0));
        t.ack(0, 1, 1);
        assert!(!t.outbound_drained(0), "one frame still unacked");
        t.ack(0, 1, 2);
        assert!(t.outbound_drained(0));
        assert!(t.outbound_drained(1), "the idle rank is trivially drained");
    }
}
