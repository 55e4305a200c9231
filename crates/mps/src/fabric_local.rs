//! The in-process fabric backend: every rank is a thread, delivery is
//! a mailbox push behind shared memory.
//!
//! A send is a single `VecDeque` push of an `Arc`-backed buffer, and
//! the steady state stays allocation-free (`zero_alloc.rs` pins this).
//! A [`crate::FaultPlan`] adds only seeded sender-side delays.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use bytes::Bytes;

use crate::chaos::Chaos;
use crate::error::MpsError;
use crate::fabric::{
    lock_recover, AwaitOutcome, BlockedOp, Fabric, Failure, Mailbox, Matcher, Packet,
};
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
    /// The installed fault plan's delays, if any.
    chaos: Option<Chaos>,
}

impl LocalFabric {
    pub(crate) fn new(
        size: usize,
        timeout: Duration,
        trace: Option<tc_trace::TraceHandle>,
        chaos: Option<Chaos>,
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
            chaos,
        }
    }

    /// How many of each rank's most recent trace events a timeout
    /// report includes.
    const DUMP_TRACE_EVENTS: usize = 8;
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

    fn shared_stats(&self, rank: usize) -> &SharedStats {
        &self.stats[rank]
    }

    fn send(&self, src: usize, dst: usize, tag: u64, data: Bytes) {
        if let Some(chaos) = &self.chaos {
            chaos.before_send(src, dst);
        }
        self.mailboxes[dst].push(Packet { src, tag, data });
    }

    fn await_match_until(
        &self,
        rank: usize,
        src: usize,
        deadline: std::time::Instant,
        matcher: Matcher<'_>,
    ) -> AwaitOutcome {
        self.mailboxes[rank].await_match_until(
            deadline,
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
