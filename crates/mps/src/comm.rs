//! Point-to-point communication between ranks.
//!
//! Sends never block: they enqueue the message in the destination's
//! mailbox (the MPI analogue is buffered/eager mode; the algorithms in
//! this workspace only ever exchange messages that both sides expect,
//! so no rendezvous protocol is needed). Receives block until a
//! message with the requested `(source, tag)` arrives; out-of-order
//! messages are parked in a per-source pending queue so tag matching
//! is exact.
//!
//! Receives cannot hang the process: if a peer panics the receive
//! returns [`MpsError::PeerFailed`]; if no matching message arrives
//! within the universe's deadline it returns [`MpsError::Timeout`]
//! together with a dump of what every rank was doing; and a collective
//! packet crossing a *different* collective at the same program point
//! returns [`MpsError::CollectiveMismatch`].

use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

use bytes::Bytes;

use crate::error::{MpsError, MpsResult};
use crate::fabric::{AwaitOutcome, BlockedOp, Fabric, Packet, Recovery};
use crate::pod::{bytes_of, Pod, PodArray};
use crate::reliable::{RxState, TRANSPORT_NOTHING_TAG, TRANSPORT_TAG};
use crate::stats::{CommStats, ReliabilityStats, Timings};

/// Highest bit reserved for internal (collective) traffic; user tags
/// must stay below this.
pub const MAX_USER_TAG: u64 = 1 << 48;

/// Internal-tag layout: `[63]` internal flag, `[62:56]` collective op,
/// `[55:40]` round, `[39:0]` sequence number.
pub(crate) const COLL_SEQ_MASK: u64 = (1 << 40) - 1;
const COLL_OP_SHIFT: u32 = 56;
const COLL_OP_MASK: u64 = 0x7f;

/// Human name of the collective op encoded in an internal tag.
pub(crate) fn coll_op_name(tag: u64) -> &'static str {
    match (tag >> COLL_OP_SHIFT) & COLL_OP_MASK {
        1 => "barrier",
        2 => "bcast",
        3 => "reduce",
        4 => "scan",
        5 => "gatherv",
        6 => "alltoallv",
        7 => "allgatherv",
        8 => "scatterv",
        _ => "collective",
    }
}

/// Blocked-op label for a tag: the collective name for internal tags,
/// a generic label for user traffic.
fn op_label(tag: u64) -> &'static str {
    if tag & (1 << 63) != 0 {
        coll_op_name(tag)
    } else {
        "recv"
    }
}

/// The error a receive returns when the universe recorded `fail`: a
/// recoverable connection loss stays typed `PeerDown` all the way out,
/// so session loops can tell "rejoin at the next epoch" apart from a
/// genuine peer failure.
fn peer_error(fail: crate::fabric::Failure) -> MpsError {
    match fail.error {
        MpsError::PeerDown { rank } => MpsError::PeerDown { rank },
        _ => MpsError::PeerFailed { rank: fail.rank, msg: fail.brief() },
    }
}

/// Describes an internal tag for mismatch reports.
fn describe_coll(tag: u64) -> String {
    format!("{} (seq {})", coll_op_name(tag), tag & COLL_SEQ_MASK)
}

/// One rank's endpoint of the communicator.
///
/// A `Comm` is owned by exactly one thread (the rank it represents)
/// and is handed to the rank body by [`crate::Universe::run`].
pub struct Comm {
    rank: usize,
    size: usize,
    fabric: Arc<dyn Fabric>,
    /// Messages received from `s` whose tag didn't match a recv call.
    pending: Vec<RefCell<VecDeque<Packet>>>,
    /// Reliable-delivery receive state (sequence tracking, reorder
    /// buffers, recovery timers); `None` unless the universe has a
    /// [`crate::FaultPlan`], so the chaos-off path allocates nothing.
    rx: Option<RefCell<RxState>>,
    /// Monotone sequence number shared by all collective calls; every
    /// rank executes collectives in the same order, so equal sequence
    /// numbers identify the same logical operation.
    pub(crate) coll_seq: std::cell::Cell<u64>,
    /// Named phase timers for user code.
    pub timings: Timings,
}

impl Comm {
    pub(crate) fn new(rank: usize, size: usize, fabric: Arc<dyn Fabric>) -> Self {
        debug_assert_eq!(size, fabric.size(), "communicator and fabric disagree on universe size");
        let pending = (0..size).map(|_| RefCell::new(VecDeque::new())).collect();
        let rx = fabric.transport().map(|_| RefCell::new(RxState::new(size)));
        Self {
            rank,
            size,
            fabric,
            pending,
            rx,
            coll_seq: std::cell::Cell::new(0),
            timings: Timings::new(),
        }
    }

    /// This rank's id in `0..size()`.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the universe.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Which fabric backend carries this communicator's traffic:
    /// `"local"` (threads in one process) or `"socket"` (one process
    /// per rank over Unix-domain/TCP sockets).
    pub fn backend(&self) -> &'static str {
        self.fabric.backend()
    }

    /// Snapshot of the communication counters so far.
    pub fn stats(&self) -> CommStats {
        self.fabric.shared_stats(self.rank).snapshot()
    }

    /// Snapshot of this rank's reliable-delivery counters, or `None`
    /// when no [`crate::FaultPlan`] is installed (the transport — and
    /// therefore every counter — does not exist on the chaos-off path).
    pub fn reliability_stats(&self) -> Option<ReliabilityStats> {
        self.fabric.transport().map(|t| t.stats(self.rank))
    }

    /// Number of collective operations this rank has entered so far.
    pub fn collective_calls(&self) -> u64 {
        self.coll_seq.get()
    }

    fn debug_assert_user_tag(tag: u64) {
        debug_assert!(tag < MAX_USER_TAG, "user tag {tag:#x} collides with reserved space");
    }

    /// Sends a pre-assembled byte buffer to `dst`. Never blocks.
    ///
    /// # Panics
    ///
    /// Panics if `dst` is out of range.
    pub fn send_bytes(&self, dst: usize, tag: u64, data: Bytes) {
        Self::debug_assert_user_tag(tag);
        self.send_internal(dst, tag, data);
    }

    pub(crate) fn send_internal(&self, dst: usize, tag: u64, data: Bytes) {
        assert!(dst < self.size, "send to rank {dst} but universe has {} ranks", self.size);
        let t0 = Instant::now();
        let nbytes = data.len() as u64;
        // Collective-internal traffic is summarized by the collective's
        // own span; only user sends get their own event.
        if tag & (1 << 63) == 0 {
            tc_trace::instant_with(tc_trace::names::SEND, tc_trace::Category::Comm, || {
                vec![("dst", dst.into()), ("tag", tag.into()), ("bytes", nbytes.into())]
            });
        }
        // The backend decides how the payload travels: the in-process
        // fabric is a mailbox push (framed only under chaos), the
        // socket fabric always frames onto the wire.
        self.fabric.send(self.rank, dst, tag, data);
        let st = self.fabric.shared_stats(self.rank);
        st.bytes_sent.fetch_add(nbytes, std::sync::atomic::Ordering::Relaxed);
        st.msgs_sent.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        st.send_ns.fetch_add(t0.elapsed().as_nanos() as u64, std::sync::atomic::Ordering::Relaxed);
    }

    /// Sends a typed slice to `dst` (copies it into the message buffer).
    pub fn send<T: Pod>(&self, dst: usize, tag: u64, data: &[T]) {
        self.send_bytes(dst, tag, Bytes::from(bytes_of(data).to_vec()));
    }

    /// Sends a single value to `dst`.
    pub fn send_val<T: Pod>(&self, dst: usize, tag: u64, value: T) {
        self.send(dst, tag, std::slice::from_ref(&value));
    }

    /// Receives the next message from `src` carrying `tag`.
    ///
    /// Blocks until the message arrives, but never forever: see the
    /// module docs for the failure modes.
    ///
    /// # Panics
    ///
    /// Panics if `src` is out of range.
    pub fn recv_bytes(&self, src: usize, tag: u64) -> MpsResult<Bytes> {
        Self::debug_assert_user_tag(tag);
        self.recv_internal(src, tag)
    }

    pub(crate) fn recv_internal(&self, src: usize, tag: u64) -> MpsResult<Bytes> {
        self.recv_labeled(src, tag, op_label(tag))
    }

    /// The blocking matching loop behind both [`Comm::recv_bytes`] and
    /// [`RecvRequest::wait`]; `op` names the operation in blocked-state
    /// dumps and timeout errors.
    fn recv_labeled(&self, src: usize, tag: u64, op: &'static str) -> MpsResult<Bytes> {
        assert!(src < self.size, "recv from rank {src} but universe has {} ranks", self.size);
        let t0 = Instant::now();
        // User receives get a span (wall − CPU inside it is the
        // blocked time); collective-internal receives are covered by
        // the collective's own span instead, so blocked time is never
        // attributed twice.
        let mut tspan = (tag & (1 << 63) == 0).then(|| {
            tc_trace::span(tc_trace::names::RECV, tc_trace::Category::Comm)
                .arg("src", src)
                .arg("tag", tag)
        });

        // First drain anything already parked for this source (on the
        // reliable path frames are decoded at ingest, so `pending`
        // holds ordinary application packets there too).
        let parked = {
            let mut pending = self.pending[src].borrow_mut();
            match pending.iter().position(|p| p.tag == tag) {
                Some(pos) => Some(Ok(pending.remove(pos).expect("position just found"))),
                None => self.detect_mismatch(src, tag, pending.iter()).map(Err),
            }
        };
        let result = parked.unwrap_or_else(|| {
            self.fabric.set_blocked(self.rank, Some(BlockedOp { src, tag, op, since: t0 }));
            let result = self.await_packet(src, tag, op, t0);
            self.fabric.set_blocked(self.rank, None);
            result
        });
        let pkt = result?;
        self.note_recv(&pkt, t0);
        if let Some(s) = &mut tspan {
            s.record_arg("bytes", pkt.data.len());
        }
        Ok(pkt.data)
    }

    /// Waits for the message in the mailbox. Over a chaotic fabric
    /// packets arrive as transport frames (checksummed, sequenced) and
    /// the wait is sliced so the receiver can drive NACK/retransmit
    /// recovery between waits, which adds one failure mode to the
    /// un-hangable set: [`MpsError::DeliveryFailed`] when a link's
    /// retransmit budget is exhausted.
    fn await_packet(
        &self,
        src: usize,
        tag: u64,
        op: &'static str,
        t0: Instant,
    ) -> MpsResult<Packet> {
        let reliable = self.rx.is_some();
        let deadline = t0 + self.fabric.timeout();
        loop {
            let slice = reliable.then(|| self.arm_recovery(src));
            let outcome =
                self.fabric.await_match_until(self.rank, src, deadline, slice, &mut |q| {
                    if reliable {
                        self.match_reliable(q, src, tag)
                    } else {
                        self.match_plain(q, src, tag)
                    }
                });
            match outcome {
                AwaitOutcome::Matched(result) => return result,
                AwaitOutcome::Failed(fail) => return Err(peer_error(fail)),
                AwaitOutcome::SourceFinished => {
                    // Over a chaotic fabric the sender's unacked frames
                    // are still in the shared retransmit window — recover
                    // them without its cooperation. Only when nothing is
                    // left to recover is the message truly impossible.
                    if !reliable || self.drive_recovery(src, true)? == 0 {
                        return Err(MpsError::PeerFailed {
                            rank: src,
                            msg: format!("terminated before sending tag {tag:#x}"),
                        });
                    }
                }
                AwaitOutcome::TimedOut => return Err(self.timed_out(src, tag, op, t0)),
                AwaitOutcome::SliceExpired => {
                    self.drive_recovery(src, false)?;
                }
            }
        }
    }

    /// Mailbox matcher of the plain path: drains the mailbox into the
    /// per-source pending queues, stopping if the wanted packet shows up.
    fn match_plain(
        &self,
        queue: &mut VecDeque<Packet>,
        src: usize,
        tag: u64,
    ) -> Option<MpsResult<Packet>> {
        while let Some(pkt) = queue.pop_front() {
            if pkt.src == src && pkt.tag == tag {
                return Some(Ok(pkt));
            }
            if pkt.src == src {
                if let Some(err) = self.detect_mismatch(src, tag, std::iter::once(&pkt)) {
                    return Some(Err(err));
                }
            }
            self.pending[pkt.src].borrow_mut().push_back(pkt);
        }
        None
    }

    /// The typed timeout of a receive that waited since `t0`. The
    /// report is taken while this rank's blocked-op slot is still set,
    /// so it always shows at least one blocked line, and the timeout is
    /// recorded as the universe's failure here, at detection: the peers
    /// it unblocks (and any rank finishing because of them) can only
    /// cascade *after* it, so the first fault detected is the one the
    /// universe reports.
    fn timed_out(&self, src: usize, tag: u64, op: &'static str, t0: Instant) -> MpsError {
        let err = MpsError::Timeout {
            rank: self.rank,
            src,
            op,
            tag,
            waited: t0.elapsed(),
            report: self.fabric.dump(),
        };
        self.fabric.record_failure(self.rank, err.clone());
        err
    }

    /// Mailbox matcher of the reliable path: transport frames are
    /// ingested (verified, deduplicated, re-ordered); every released
    /// application packet then flows through the ordinary matching
    /// rules — match, mismatch-detect, or park.
    fn match_reliable(
        &self,
        queue: &mut VecDeque<Packet>,
        src: usize,
        tag: u64,
    ) -> Option<MpsResult<Packet>> {
        let transport = self.fabric.transport().expect("reliable matcher requires a transport");
        let mut rx = self.rx.as_ref().expect("reliable matcher requires rx state").borrow_mut();
        let mut found: Option<MpsResult<Packet>> = None;
        let mut released: Vec<Packet> = Vec::new();
        while found.is_none() {
            let Some(pkt) = queue.pop_front() else { break };
            released.clear();
            if pkt.tag == TRANSPORT_TAG {
                let (psrc, rank) = (pkt.src, self.rank);
                rx.ingest(
                    transport,
                    rank,
                    psrc,
                    &pkt.data,
                    &mut released,
                    // Progress publication goes through the fabric: a
                    // shared-memory store in-process, an ACK message on
                    // the wire for a remote sender.
                    &mut |next_seq| self.fabric.publish_ack(psrc, rank, next_seq),
                );
            } else if pkt.tag == TRANSPORT_NOTHING_TAG {
                // A remote sender answered a NACK with "nothing at or
                // above that sequence": if the link still looks exactly
                // like it did when we asked (same expected seq, no gap
                // evidence), treat it like the in-process zero-resend
                // case — reset the budget and re-arm patience.
                if pkt.data.len() == 8 {
                    let from_seq = u64::from_le_bytes(pkt.data.as_slice().try_into().unwrap());
                    let link = rx.link(pkt.src);
                    if link.next_seq == from_seq && !link.has_gap_evidence() {
                        link.note_nothing_to_recover(Instant::now() + transport.plan().nack_base());
                    }
                }
            } else {
                released.push(pkt);
            }
            for lp in released.drain(..) {
                if found.is_none() && lp.src == src && lp.tag == tag {
                    found = Some(Ok(lp));
                    continue;
                }
                if found.is_none() && lp.src == src {
                    if let Some(err) = self.detect_mismatch(src, tag, std::iter::once(&lp)) {
                        found = Some(Err(err));
                        continue;
                    }
                }
                self.pending[lp.src].borrow_mut().push_back(lp);
            }
        }
        found
    }

    /// Makes sure the link we are blocked on has a recovery timer and
    /// returns the earliest timer over all inbound links — the slice
    /// deadline of the next wait.
    fn arm_recovery(&self, blocked_src: usize) -> Instant {
        let transport = self.fabric.transport().expect("recovery requires a transport");
        let mut rx = self.rx.as_ref().expect("recovery requires rx state").borrow_mut();
        let now = Instant::now();
        let mut earliest =
            *rx.link(blocked_src).nack_at.get_or_insert(now + transport.plan().nack_base());
        for (_, link) in rx.links() {
            if let Some(t) = link.nack_at {
                earliest = earliest.min(t);
            }
        }
        earliest
    }

    /// Runs one recovery round over every link whose timer is due
    /// (`force` makes `blocked_src` due unconditionally — used when
    /// its sender has terminated). Each round re-requests everything
    /// from the link's next expected sequence number; a round that
    /// finds nothing to resend *and* no evidence of a gap is patience,
    /// not a retry, and does not consume budget. Returns the number of
    /// frames recovered for `blocked_src`, or
    /// [`MpsError::DeliveryFailed`] once a link exhausts its budget.
    fn drive_recovery(&self, blocked_src: usize, force: bool) -> MpsResult<usize> {
        let transport = self.fabric.transport().expect("recovery requires a transport");
        let mut rx = self.rx.as_ref().expect("recovery requires rx state").borrow_mut();
        let now = Instant::now();
        let mut recovered_for_blocked = 0;
        for (l, link) in rx.links() {
            let due = (force && l == blocked_src) || link.nack_at.is_some_and(|t| now >= t);
            if !due {
                continue;
            }
            if link.attempts >= transport.plan().max_retries() {
                return Err(MpsError::DeliveryFailed {
                    src: l,
                    dst: self.rank,
                    seq: link.next_seq,
                    attempts: link.attempts,
                });
            }
            let attempt = link.attempts + 1;
            let resent = match self.fabric.recover(l, self.rank, link.next_seq, attempt) {
                Recovery::Resent(0) => {
                    // The sender has not produced this frame yet (e.g.
                    // it is mid-compute): keep waiting without burning
                    // budget.
                    link.note_nothing_to_recover(now + transport.plan().nack_base());
                    0
                }
                Recovery::Resent(n) => n,
                // The request went on the wire; whether anything comes
                // back is unknown yet, so count it as pending progress
                // (a nothing-to-recover reply resets the budget).
                Recovery::Requested => 1,
            };
            if resent > 0 {
                link.attempts = attempt;
                transport.note_nack(self.rank);
                link.nack_at = Some(now + transport.plan().backoff(l, self.rank, attempt));
            }
            if l == blocked_src {
                recovered_for_blocked = resent;
            }
        }
        Ok(recovered_for_blocked)
    }

    /// Flags a packet from `src` that belongs to a *different*
    /// collective at the same sequence position as the awaited tag —
    /// i.e. the two ranks diverged in their collective call sequence.
    fn detect_mismatch<'p>(
        &self,
        src: usize,
        awaited: u64,
        pkts: impl Iterator<Item = &'p Packet>,
    ) -> Option<MpsError> {
        if awaited & (1 << 63) == 0 {
            return None;
        }
        for pkt in pkts {
            if pkt.tag & (1 << 63) != 0
                && pkt.tag != awaited
                && pkt.tag & COLL_SEQ_MASK == awaited & COLL_SEQ_MASK
            {
                return Some(MpsError::CollectiveMismatch {
                    rank: self.rank,
                    peer: src,
                    expected: describe_coll(awaited),
                    got: describe_coll(pkt.tag),
                });
            }
        }
        None
    }

    fn note_recv(&self, pkt: &Packet, t0: Instant) {
        let st = self.fabric.shared_stats(self.rank);
        st.bytes_recv.fetch_add(pkt.data.len() as u64, std::sync::atomic::Ordering::Relaxed);
        st.msgs_recv.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        st.recv_ns.fetch_add(t0.elapsed().as_nanos() as u64, std::sync::atomic::Ordering::Relaxed);
    }

    /// Receives a typed array from `src`.
    pub fn recv<T: Pod>(&self, src: usize, tag: u64) -> MpsResult<PodArray<T>> {
        Ok(PodArray::new(self.recv_bytes(src, tag)?))
    }

    /// Receives a single value from `src`.
    ///
    /// # Panics
    ///
    /// Panics if the arriving message does not contain exactly one `T`.
    pub fn recv_val<T: Pod>(&self, src: usize, tag: u64) -> MpsResult<T> {
        let arr = self.recv::<T>(src, tag)?;
        assert_eq!(arr.len(), 1, "recv_val expected exactly one element, got {}", arr.len());
        Ok(arr.as_slice()[0])
    }

    /// Nonblocking send: enqueues `data` for `dst` and returns a
    /// request handle.
    ///
    /// Sends are buffered (they complete at post time), so the handle
    /// exists for API symmetry with [`Comm::irecv_bytes`]; its
    /// [`SendRequest::wait`] never fails.
    pub fn isend_bytes(&self, dst: usize, tag: u64, data: Bytes) -> SendRequest {
        self.send_bytes(dst, tag, data);
        SendRequest { _completed: () }
    }

    /// Posts a nonblocking receive for the next message from `src`
    /// carrying `tag` and returns the in-flight request.
    ///
    /// The actual matching happens in [`RecvRequest::wait`]; until then
    /// the message (if already delivered) stays parked in the mailbox.
    /// The deadline clock (`MPS_RECV_TIMEOUT_MS`) starts at the wait,
    /// not at the post — a long compute phase between post and wait is
    /// not a hang. Dropping the request without waiting leaves any
    /// matching packet parked; with unique tags that is harmless.
    ///
    /// # Panics
    ///
    /// Panics if `src` is out of range.
    pub fn irecv_bytes(&self, src: usize, tag: u64) -> RecvRequest<'_> {
        Self::debug_assert_user_tag(tag);
        assert!(src < self.size, "irecv from rank {src} but universe has {} ranks", self.size);
        RecvRequest { comm: self, src, tag }
    }

    /// Combined send + receive, the safe way to exchange with a peer
    /// (never deadlocks because sends are buffered).
    pub fn sendrecv_bytes(
        &self,
        dst: usize,
        send_tag: u64,
        data: Bytes,
        src: usize,
        recv_tag: u64,
    ) -> MpsResult<Bytes> {
        self.send_bytes(dst, send_tag, data);
        self.recv_bytes(src, recv_tag)
    }

    /// Typed [`Comm::sendrecv_bytes`].
    pub fn sendrecv<T: Pod>(
        &self,
        dst: usize,
        send_tag: u64,
        data: &[T],
        src: usize,
        recv_tag: u64,
    ) -> MpsResult<PodArray<T>> {
        self.send(dst, send_tag, data);
        self.recv(src, recv_tag)
    }

    /// Allocates a fresh block of internal tags for a collective call.
    pub(crate) fn next_coll_tag(&self, op: u64) -> u64 {
        let seq = self.coll_seq.get();
        self.coll_seq.set(seq + 1);
        // Layout: [63] internal flag | [62:56] op | [55:0] sequence.
        (1 << 63) | (op << COLL_OP_SHIFT) | seq
    }

    /// Span covering one collective call, named after the op encoded
    /// in `tag` and stamped with the collective sequence number, so a
    /// trace shows which logical collective every rank was inside.
    pub(crate) fn coll_span(&self, tag: u64) -> tc_trace::Span {
        tc_trace::span(coll_op_name(tag), tc_trace::Category::Collective)
            .arg("seq", tag & COLL_SEQ_MASK)
    }
}

/// Handle of a posted nonblocking send.
///
/// Sends complete at post time (buffered mode), so this is evidence
/// that the send happened; [`SendRequest::wait`] is a no-op kept for
/// symmetry with MPI's request model.
#[must_use = "a send request should be waited (or explicitly discarded)"]
#[derive(Debug)]
pub struct SendRequest {
    _completed: (),
}

impl SendRequest {
    /// Completes the send. Never fails: the payload was buffered into
    /// the destination mailbox when the request was posted.
    pub fn wait(self) -> MpsResult<()> {
        Ok(())
    }
}

/// An in-flight nonblocking receive posted by [`Comm::irecv_bytes`].
///
/// The request carries the full un-hangable machinery of a blocking
/// receive, deferred to [`RecvRequest::wait`]: the deadline, the
/// first-failure slot, collective-mismatch detection, and registration
/// in the per-rank blocked-state dump (as op `"irecv"`).
#[must_use = "an irecv does nothing until waited"]
#[derive(Debug)]
pub struct RecvRequest<'a> {
    comm: &'a Comm,
    src: usize,
    tag: u64,
}

impl RecvRequest<'_> {
    /// The source rank this request is matching against.
    pub fn src(&self) -> usize {
        self.src
    }

    /// The tag this request is matching against.
    pub fn tag(&self) -> u64 {
        self.tag
    }

    /// Blocks until the matching message arrives and returns its
    /// payload, with the same failure modes as [`Comm::recv_bytes`].
    pub fn wait(self) -> MpsResult<Bytes> {
        self.comm.recv_labeled(self.src, self.tag, "irecv")
    }
}

/// Waits on a batch of receive requests, returning their payloads in
/// request order. The first failure aborts the batch (remaining
/// requests are dropped; their packets stay parked, which is harmless
/// under the unique-tag discipline all callers here follow).
pub fn waitall<'a>(reqs: impl IntoIterator<Item = RecvRequest<'a>>) -> MpsResult<Vec<Bytes>> {
    reqs.into_iter().map(RecvRequest::wait).collect()
}

impl std::fmt::Debug for Comm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Comm")
            .field("rank", &self.rank)
            .field("size", &self.size)
            .finish_non_exhaustive()
    }
}
