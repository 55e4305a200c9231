//! Per-rank instrumentation.
//!
//! Communication time, byte volume, and message counts are the raw
//! material for the paper's Figure 3 (communication fraction) and the
//! cost analysis of §5.4, so every send/recv on a [`crate::Comm`]
//! feeds the counters here. User code can additionally record named
//! phase timers (preprocessing, per-shift compute, …) through
//! [`Timings`].

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Communication counters for one rank.
///
/// All fields are cumulative over the rank's lifetime.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct CommStats {
    /// Payload bytes passed to `send*`.
    pub bytes_sent: u64,
    /// Messages passed to `send*`.
    pub msgs_sent: u64,
    /// Payload bytes returned by `recv*`.
    pub bytes_recv: u64,
    /// Messages returned by `recv*`.
    pub msgs_recv: u64,
    /// Nanoseconds spent inside `send*` (serialization + enqueue).
    pub send_ns: u64,
    /// Nanoseconds spent blocked inside `recv*`.
    pub recv_ns: u64,
}

impl CommStats {
    /// Total time attributed to communication.
    pub fn comm_time(&self) -> Duration {
        Duration::from_nanos(self.send_ns + self.recv_ns)
    }

    /// Element-wise sum, used when aggregating over ranks.
    pub fn merge(&mut self, other: &CommStats) {
        self.bytes_sent += other.bytes_sent;
        self.msgs_sent += other.msgs_sent;
        self.bytes_recv += other.bytes_recv;
        self.msgs_recv += other.msgs_recv;
        self.send_ns += other.send_ns;
        self.recv_ns += other.recv_ns;
    }
}

/// Counter block for one rank, written by that rank's thread but
/// readable from any thread (relaxed atomics), so a rank assembling a
/// timeout report can snapshot every peer's counters.
#[derive(Debug, Default)]
pub(crate) struct SharedStats {
    pub bytes_sent: AtomicU64,
    pub msgs_sent: AtomicU64,
    pub bytes_recv: AtomicU64,
    pub msgs_recv: AtomicU64,
    pub send_ns: AtomicU64,
    pub recv_ns: AtomicU64,
}

impl SharedStats {
    pub(crate) fn snapshot(&self) -> CommStats {
        CommStats {
            bytes_sent: self.bytes_sent.load(Ordering::Relaxed),
            msgs_sent: self.msgs_sent.load(Ordering::Relaxed),
            bytes_recv: self.bytes_recv.load(Ordering::Relaxed),
            msgs_recv: self.msgs_recv.load(Ordering::Relaxed),
            send_ns: self.send_ns.load(Ordering::Relaxed),
            recv_ns: self.recv_ns.load(Ordering::Relaxed),
        }
    }
}

/// A stopwatch that adds its elapsed time to a named phase on drop.
pub struct PhaseGuard<'a> {
    timings: &'a Timings,
    name: &'static str,
    start: Instant,
}

impl Drop for PhaseGuard<'_> {
    fn drop(&mut self) {
        self.timings.add(self.name, self.start.elapsed());
    }
}

/// Named wall-clock phase accumulators for one rank.
///
/// Single-threaded by construction (each rank owns its own), hence the
/// plain `Cell`-free interior mutability via `RefCell`.
#[derive(Debug, Default)]
pub struct Timings {
    phases: std::cell::RefCell<BTreeMap<&'static str, u64>>,
}

impl Timings {
    /// Creates an empty set of accumulators.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `d` to phase `name`.
    pub fn add(&self, name: &'static str, d: Duration) {
        *self.phases.borrow_mut().entry(name).or_insert(0) += d.as_nanos() as u64;
    }

    /// Starts a guard that records into `name` when dropped.
    pub fn phase(&self, name: &'static str) -> PhaseGuard<'_> {
        PhaseGuard { timings: self, name, start: Instant::now() }
    }

    /// Times `f` and attributes the elapsed time to `name`.
    pub fn time<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let _g = self.phase(name);
        f()
    }

    /// Accumulated time of one phase.
    pub fn get(&self, name: &str) -> Duration {
        Duration::from_nanos(self.phases.borrow().get(name).copied().unwrap_or(0))
    }

    /// Snapshot of all phases, in name order.
    pub fn snapshot(&self) -> Vec<(&'static str, Duration)> {
        self.phases.borrow().iter().map(|(k, v)| (*k, Duration::from_nanos(*v))).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comm_stats_merge() {
        let mut a = CommStats { bytes_sent: 10, msgs_sent: 1, ..Default::default() };
        let b = CommStats { bytes_sent: 5, msgs_recv: 2, recv_ns: 100, ..Default::default() };
        a.merge(&b);
        assert_eq!(a.bytes_sent, 15);
        assert_eq!(a.msgs_sent, 1);
        assert_eq!(a.msgs_recv, 2);
        assert_eq!(a.comm_time(), Duration::from_nanos(100));
    }

    #[test]
    fn timings_accumulate() {
        let t = Timings::new();
        t.add("ppt", Duration::from_millis(2));
        t.add("ppt", Duration::from_millis(3));
        t.add("tct", Duration::from_millis(1));
        assert_eq!(t.get("ppt"), Duration::from_millis(5));
        assert_eq!(t.get("tct"), Duration::from_millis(1));
        assert_eq!(t.get("missing"), Duration::ZERO);
        let snap = t.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].0, "ppt");
    }

    #[test]
    fn phase_guard_records_nonzero() {
        let t = Timings::new();
        {
            let _g = t.phase("work");
            std::hint::black_box((0..1000).sum::<u64>());
        }
        assert!(t.get("work") > Duration::ZERO);
    }

    #[test]
    fn time_returns_value() {
        let t = Timings::new();
        let v = t.time("f", || 42);
        assert_eq!(v, 42);
        assert!(t.get("f") > Duration::ZERO);
    }

    #[test]
    fn merge_is_commutative_and_identity_on_default() {
        let a = CommStats {
            bytes_sent: 10,
            msgs_sent: 1,
            bytes_recv: 7,
            msgs_recv: 3,
            send_ns: 40,
            recv_ns: 60,
        };
        let b = CommStats {
            bytes_sent: 2,
            msgs_sent: 5,
            bytes_recv: 1,
            msgs_recv: 0,
            send_ns: 10,
            recv_ns: 0,
        };
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba, "merge order must not matter");
        let mut with_zero = a.clone();
        with_zero.merge(&CommStats::default());
        assert_eq!(with_zero, a, "default is the merge identity");
        assert_eq!(ab.comm_time(), Duration::from_nanos(110));
    }

    #[test]
    fn merge_fold_over_many_ranks_matches_fieldwise_sums() {
        let per_rank: Vec<CommStats> = (0..8u64)
            .map(|r| CommStats {
                bytes_sent: r * 100,
                msgs_sent: r,
                bytes_recv: r * 50,
                msgs_recv: r * 2,
                send_ns: r * 7,
                recv_ns: r * 11,
            })
            .collect();
        let mut total = CommStats::default();
        for s in &per_rank {
            total.merge(s);
        }
        let sum: u64 = (0..8).sum();
        assert_eq!(total.bytes_sent, sum * 100);
        assert_eq!(total.msgs_recv, sum * 2);
        assert_eq!(total.comm_time(), Duration::from_nanos(sum * 18));
    }

    #[test]
    fn shared_stats_snapshot_reflects_stores() {
        let s = SharedStats::default();
        s.bytes_sent.store(33, Ordering::Relaxed);
        s.recv_ns.store(44, Ordering::Relaxed);
        let snap = s.snapshot();
        assert_eq!(snap.bytes_sent, 33);
        assert_eq!(snap.recv_ns, 44);
        assert_eq!(snap.msgs_sent, 0);
    }

    #[test]
    fn nested_phase_guards_attribute_to_both_phases() {
        let t = Timings::new();
        {
            let _outer = t.phase("outer");
            {
                let _inner = t.phase("inner");
                std::thread::sleep(Duration::from_millis(2));
            }
        }
        assert!(t.get("inner") > Duration::ZERO);
        assert!(t.get("outer") >= t.get("inner"), "outer encloses inner");
    }
}
