//! The communication-fabric abstraction shared by every backend.
//!
//! A [`Fabric`] is what one universe's ranks talk *through*: it owns
//! message delivery, the first-failure slot, finished flags, the
//! blocked-op registry behind timeout diagnostics, and the hooks of
//! the reliable-delivery protocol (ack publication and receiver-driven
//! recovery). Two backends implement it:
//!
//! - [`crate::fabric_local`] — the in-process backend: one mailbox per
//!   rank behind shared memory and zero-copy delivery, so the chaos-off
//!   hot path stays allocation-free;
//! - [`crate::fabric_socket`] — the multi-process backend over
//!   Unix-domain or TCP sockets: one I/O thread per process, every
//!   payload a sequenced, checksummed frame on the wire.
//!
//! Both run the reliable transport only when a fault plan is
//! installed: without one, nothing loses or reorders a message.
//!
//! [`crate::Comm`] holds an `Arc<dyn Fabric>`, so every point-to-point
//! and collective algorithm is backend-generic by construction.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use bytes::Bytes;

use crate::error::{MpsError, MpsResult};
use crate::reliable::Transport;
use crate::stats::SharedStats;

/// Locks `m`, recovering the guarded data if a panicking thread
/// poisoned the mutex. The runtime's shared structures (mailboxes,
/// retransmit windows, holdback buffers) are kept consistent by the
/// protocol itself — worst case a frame is delivered or retransmitted
/// twice, which the receiver's dedup absorbs — so an orderly
/// [`MpsError::PeerFailed`] on the survivors must never be converted
/// into an opaque poisoned-lock panic.
pub(crate) fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A single in-flight message.
#[derive(Debug)]
pub(crate) struct Packet {
    pub src: usize,
    pub tag: u64,
    pub data: Bytes,
}

/// The first rank failure observed in the universe.
#[derive(Debug, Clone)]
pub(crate) struct Failure {
    pub rank: usize,
    pub error: MpsError,
}

impl Failure {
    /// One-line description for peers' `PeerFailed` errors (drops the
    /// multi-line diagnostic report of a timeout).
    pub(crate) fn brief(&self) -> String {
        match &self.error {
            MpsError::PeerFailed { msg, .. } => msg.clone(),
            MpsError::Timeout { src, op, waited, .. } => {
                format!("{op} from rank {src} timed out after {waited:.1?}")
            }
            e @ (MpsError::CollectiveMismatch { .. }
            | MpsError::Protocol { .. }
            | MpsError::InvalidInput { .. }
            | MpsError::Geometry { .. }
            | MpsError::PeerDown { .. }
            | MpsError::DeliveryFailed { .. }) => e.to_string(),
        }
    }
}

/// What a rank is currently blocked waiting for.
#[derive(Debug, Clone)]
pub(crate) struct BlockedOp {
    pub src: usize,
    pub tag: u64,
    pub op: &'static str,
    pub since: Instant,
}

/// One rank's inbound message queue (mutex + condvar, so a failure can
/// wake *every* blocked receiver, which per-pair channels cannot).
pub(crate) struct Mailbox {
    pub(crate) queue: Mutex<VecDeque<Packet>>,
    pub(crate) arrived: Condvar,
}

/// Packets a mailbox holds before its queue first grows. A sender
/// pushes into the receiver's queue, so growth allocates on the
/// sender's thread, in whatever step the receiver happens to lag. A
/// rank of a q × q shift ring runs at most q − 1 steps ahead of its
/// neighbours, so this covers the steady shift loop's backlog for any
/// grid up to 16 × 16 and keeps it allocation-free (`zero_alloc.rs`).
const MAILBOX_PRESIZE: usize = 64;

impl Default for Mailbox {
    fn default() -> Self {
        Self {
            queue: Mutex::new(VecDeque::with_capacity(MAILBOX_PRESIZE)),
            arrived: Condvar::new(),
        }
    }
}

impl Mailbox {
    /// Enqueues `pkt` and wakes every waiter. Never blocks.
    pub(crate) fn push(&self, pkt: Packet) {
        lock_recover(&self.queue).push_back(pkt);
        self.arrived.notify_all();
    }

    /// Number of undrained packets (diagnostics only).
    pub(crate) fn backlog(&self) -> usize {
        lock_recover(&self.queue).len()
    }

    /// The matching wait loop shared by both backends: runs `matcher`
    /// over the queue until it yields, a failure is observed, the
    /// source finishes with no matching message in flight, or a
    /// deadline passes. `failure` and `src_finished` are backend
    /// predicates evaluated under the queue lock, exactly like the
    /// pre-trait fabric did.
    pub(crate) fn await_match_until(
        &self,
        deadline: Instant,
        slice: Option<Instant>,
        failure: impl Fn() -> Option<Failure>,
        src_finished: impl Fn() -> bool,
        matcher: Matcher<'_>,
    ) -> AwaitOutcome {
        let mut queue = lock_recover(&self.queue);
        loop {
            if let Some(hit) = matcher(&mut queue) {
                return AwaitOutcome::Matched(hit);
            }
            if let Some(fail) = failure() {
                return AwaitOutcome::Failed(fail);
            }
            // The matcher just drained the queue without a hit, so if
            // the source has terminated the message can never arrive.
            if src_finished() {
                return AwaitOutcome::SourceFinished;
            }
            let now = Instant::now();
            if now >= deadline {
                return AwaitOutcome::TimedOut;
            }
            if slice.is_some_and(|s| now >= s) {
                return AwaitOutcome::SliceExpired;
            }
            let wake = slice.map_or(deadline, |s| s.min(deadline));
            queue = self
                .arrived
                .wait_timeout(queue, wake - now)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
    }
}

/// The mailbox matcher type: drains packets it does not want into
/// caller-owned storage and returns `Some` on a match (or an error of
/// its own, e.g. a collective mismatch). The concrete `FnMut` lives in
/// [`crate::Comm`]; the trait object keeps [`Fabric`] object-safe.
pub(crate) type Matcher<'m> = &'m mut dyn FnMut(&mut VecDeque<Packet>) -> Option<MpsResult<Packet>>;

/// Result of [`Fabric::await_match_until`].
pub(crate) enum AwaitOutcome {
    Matched(MpsResult<Packet>),
    Failed(Failure),
    SourceFinished,
    TimedOut,
    /// Only from [`Fabric::await_match_until`] with a slice deadline:
    /// the slice (not the overall deadline) expired.
    SliceExpired,
}

/// How a backend satisfied one receiver-driven recovery request.
pub(crate) enum Recovery {
    /// `n` frames were re-delivered synchronously out of a locally
    /// reachable retransmit window (`0` means the sender has produced
    /// nothing at or above the requested sequence — patience, not
    /// retry).
    Resent(usize),
    /// The request went on the wire to the remote sender (a socket
    /// NACK); frames — or a nothing-to-recover notice — arrive
    /// asynchronously through the mailbox.
    Requested,
}

/// Runtime state shared by every rank of one universe, behind one of
/// the two backends. All methods are callable from any rank thread.
pub(crate) trait Fabric: Send + Sync {
    /// Number of ranks in the universe.
    fn size(&self) -> usize;

    /// The receive deadline of this universe.
    fn timeout(&self) -> Duration;

    /// Static backend name (`"local"` / `"socket"`), for diagnostics.
    fn backend(&self) -> &'static str;

    /// The reliable-delivery engine, when one is live: only when a
    /// fault plan is installed, on either backend.
    fn transport(&self) -> Option<&Transport>;

    /// The atomic counter block of `rank`. Backends that only hold
    /// local state (sockets) serve their own rank.
    fn shared_stats(&self, rank: usize) -> &SharedStats;

    /// Sends one application payload from the local rank `src` to
    /// `dst`, framing/transporting as the backend requires. Never
    /// blocks on the receiver; a send-side protocol error (e.g. an
    /// oversized frame) is recorded as the universe failure.
    fn send(&self, src: usize, dst: usize, tag: u64, data: Bytes);

    /// Runs `matcher` over `rank`'s mailbox until it yields, the
    /// deadline passes, a failure is recorded, or `src` finishes
    /// without a matching message in flight. When `slice` expires
    /// first the wait returns [`AwaitOutcome::SliceExpired`] so the
    /// caller can drive reliable-delivery recovery and re-enter.
    fn await_match_until(
        &self,
        rank: usize,
        src: usize,
        deadline: Instant,
        slice: Option<Instant>,
        matcher: Matcher<'_>,
    ) -> AwaitOutcome;

    /// Records the first failure and wakes every blocked rank. Later
    /// failures (cascades of the first) are dropped.
    fn record_failure(&self, rank: usize, error: MpsError);

    /// The first failure observed, if any.
    fn failure(&self) -> Option<Failure>;

    /// Marks `rank` as cleanly terminated and wakes receivers, so a
    /// rank waiting on a message this one will never send fails fast
    /// instead of running out the timeout.
    fn mark_finished(&self, rank: usize);

    fn is_finished(&self, rank: usize) -> bool;

    fn set_blocked(&self, rank: usize, op: Option<BlockedOp>);

    /// Publishes the receiver's cumulative ack for the link
    /// `src → dst` (`dst` is the calling rank), so the sender can
    /// prune its retransmit window.
    fn publish_ack(&self, src: usize, dst: usize, next_seq: u64);

    /// Receiver-driven recovery for the link `src → dst`: re-request
    /// everything with sequence ≥ `from_seq`.
    fn recover(&self, src: usize, dst: usize, from_seq: u64, attempt: u32) -> Recovery;

    /// One-line-per-rank snapshot of the universe, for timeout reports.
    fn dump(&self) -> String;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lock_recover_survives_poison() {
        let m = std::sync::Arc::new(Mutex::new(7u32));
        let m2 = std::sync::Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock().unwrap();
            panic!("poison the lock");
        })
        .join();
        assert!(m.is_poisoned());
        assert_eq!(*lock_recover(&m), 7);
        *lock_recover(&m) = 8;
        assert_eq!(*lock_recover(&m), 8);
    }

    #[test]
    fn mailbox_push_and_backlog() {
        let mb = Mailbox::default();
        mb.push(Packet { src: 0, tag: 1, data: Bytes::new() });
        mb.push(Packet { src: 1, tag: 2, data: Bytes::new() });
        assert_eq!(mb.backlog(), 2);
    }
}
