//! The in-process fabric backend: every rank is a thread, delivery is
//! a mailbox push behind shared memory.
//!
//! This backend keeps the pre-trait fast path intact: with no
//! [`crate::FaultPlan`] installed there is no transport, sends are a
//! single `VecDeque` push of an `Arc`-backed buffer, and the steady
//! state stays allocation-free (`zero_alloc.rs` pins this). With a
//! fault plan, the PR 5 reliable transport wraps every payload in a
//! checksummed, sequenced frame and the chaos machinery exercises the
//! full recovery protocol.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use bytes::Bytes;

use crate::error::MpsError;
use crate::fabric::{
    lock_recover, AwaitOutcome, BlockedOp, Fabric, Failure, Mailbox, Matcher, Packet, Recovery,
};
use crate::reliable::{FrameSink, Transport, TRANSPORT_TAG};
use crate::stats::SharedStats;

/// Runtime state shared by every rank thread of one in-process
/// universe.
pub(crate) struct LocalFabric {
    size: usize,
    mailboxes: Vec<Mailbox>,
    failure: Mutex<Option<Failure>>,
    finished: Vec<AtomicBool>,
    blocked: Vec<Mutex<Option<BlockedOp>>>,
    stats: Vec<SharedStats>,
    timeout: Duration,
    trace: Option<tc_trace::TraceHandle>,
    /// Reliable-delivery engine; present only when a
    /// [`crate::FaultPlan`] is installed, so the chaos-off hot path is
    /// byte-for-byte the pre-transport one.
    transport: Option<Transport>,
}

impl LocalFabric {
    pub(crate) fn new(
        size: usize,
        timeout: Duration,
        trace: Option<tc_trace::TraceHandle>,
        transport: Option<Transport>,
    ) -> Self {
        Self {
            size,
            mailboxes: (0..size).map(|_| Mailbox::default()).collect(),
            failure: Mutex::new(None),
            finished: (0..size).map(|_| AtomicBool::new(false)).collect(),
            blocked: (0..size).map(|_| Mutex::new(None)).collect(),
            stats: (0..size).map(|_| SharedStats::default()).collect(),
            timeout,
            trace,
            transport,
        }
    }

    /// How many of each rank's most recent trace events a timeout
    /// report includes.
    const DUMP_TRACE_EVENTS: usize = 8;
}

impl FrameSink for LocalFabric {
    fn deliver_frame(&self, src: usize, dst: usize, frame: Bytes) {
        self.mailboxes[dst].push(Packet { src, tag: TRANSPORT_TAG, data: frame });
    }
}

impl Fabric for LocalFabric {
    fn size(&self) -> usize {
        self.size
    }

    fn timeout(&self) -> Duration {
        self.timeout
    }

    fn backend(&self) -> &'static str {
        "local"
    }

    fn transport(&self) -> Option<&Transport> {
        self.transport.as_ref()
    }

    fn shared_stats(&self, rank: usize) -> &SharedStats {
        &self.stats[rank]
    }

    fn send(&self, src: usize, dst: usize, tag: u64, data: Bytes) {
        // Without a transport this is the pre-transport send,
        // allocation-free in steady state.
        match &self.transport {
            Some(t) => {
                if let Err(e) = t.send(self, src, dst, tag, data) {
                    self.record_failure(src, e);
                }
            }
            None => self.mailboxes[dst].push(Packet { src, tag, data }),
        }
    }

    fn await_match_until(
        &self,
        rank: usize,
        src: usize,
        deadline: std::time::Instant,
        slice: Option<std::time::Instant>,
        matcher: Matcher<'_>,
    ) -> AwaitOutcome {
        self.mailboxes[rank].await_match_until(
            deadline,
            slice,
            || self.failure(),
            || self.is_finished(src),
            matcher,
        )
    }

    fn record_failure(&self, rank: usize, error: MpsError) {
        {
            let mut slot = lock_recover(&self.failure);
            if slot.is_none() {
                *slot = Some(Failure { rank, error });
            }
        }
        for mb in &self.mailboxes {
            mb.arrived.notify_all();
        }
    }

    fn failure(&self) -> Option<Failure> {
        lock_recover(&self.failure).clone()
    }

    fn mark_finished(&self, rank: usize) {
        // A finishing rank first releases any frames the fault plan was
        // holding back, so a reordered frame cannot be stranded behind
        // a sender that will never transmit again.
        if let Some(t) = &self.transport {
            t.flush_rank(self, rank);
        }
        self.finished[rank].store(true, Ordering::SeqCst);
        for mb in &self.mailboxes {
            mb.arrived.notify_all();
        }
    }

    fn is_finished(&self, rank: usize) -> bool {
        self.finished[rank].load(Ordering::SeqCst)
    }

    fn set_blocked(&self, rank: usize, op: Option<BlockedOp>) {
        *lock_recover(&self.blocked[rank]) = op;
    }

    fn publish_ack(&self, src: usize, dst: usize, next_seq: u64) {
        if let Some(t) = &self.transport {
            t.ack(src, dst, next_seq);
        }
    }

    fn recover(&self, src: usize, dst: usize, from_seq: u64, attempt: u32) -> Recovery {
        match &self.transport {
            Some(t) => Recovery::Resent(t.retransmit_from(self, src, dst, from_seq, attempt)),
            None => Recovery::Resent(0),
        }
    }

    fn dump(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for r in 0..self.size {
            let state = if self.is_finished(r) {
                "finished".to_string()
            } else {
                match lock_recover(&self.blocked[r]).as_ref() {
                    Some(b) => format!(
                        "blocked in {} from rank {} (tag {:#x}) for {:.1?}",
                        b.op,
                        b.src,
                        b.tag,
                        b.since.elapsed()
                    ),
                    None => "running".to_string(),
                }
            };
            let s = self.stats[r].snapshot();
            let inflight = self.mailboxes[r].backlog();
            let _ = writeln!(
                out,
                "  rank {r}: {state}; sent {} msgs / {} B, recvd {} msgs / {} B, \
                 {inflight} undrained",
                s.msgs_sent, s.bytes_sent, s.msgs_recv, s.bytes_recv
            );
            // With tracing live, each rank's recent events say *what*
            // it was doing on the way into the hang.
            if let Some(trace) = &self.trace {
                for line in trace.recent(r, Self::DUMP_TRACE_EVENTS) {
                    let _ = writeln!(out, "    {line}");
                }
            }
        }
        out
    }
}
