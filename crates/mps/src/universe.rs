//! Rank spawning and joining.
//!
//! [`Universe::run`] is the `mpirun` of this substrate: it spawns one
//! OS thread per rank, wires the shared mailbox fabric, runs the rank
//! body, and joins. Each rank owns disjoint state — the body only
//! receives its own [`Comm`] — so algorithms written against this API
//! port directly to a real MPI backend.
//!
//! ## Failure semantics
//!
//! A rank body that panics or (in the `try_` variants) returns an
//! error is recorded in the shared fabric and wakes every peer blocked
//! in a receive or collective; those peers observe
//! [`MpsError::PeerFailed`]. The universe therefore always joins:
//! [`Universe::try_run`] returns the *first* failure, and
//! [`Universe::run`] panics with it — neither ever hangs on a dead
//! peer.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Duration;

use crate::chaos::FaultPlan;
use crate::comm::Comm;
use crate::error::{MpsError, MpsResult};
use crate::fabric::Fabric;
use crate::fabric_local::LocalFabric;
use crate::fabric_socket::{SocketFabric, WireStats};
use crate::reliable::Transport;
use crate::stats::{CommStats, ReliabilityStats};

/// Environment variable overriding the default receive deadline, in
/// milliseconds.
pub const RECV_TIMEOUT_ENV: &str = "MPS_RECV_TIMEOUT_MS";

/// This process's rank index for the socket backend
/// ([`SocketConfig::from_env`]).
pub const FABRIC_RANK_ENV: &str = "MPS_FABRIC_RANK";

/// Comma-separated endpoint list (one per rank, rank order) for the
/// socket backend: Unix paths (`unix:/tmp/r0.sock` or any value
/// containing `/`) or TCP `host:port` pairs.
pub const FABRIC_PEERS_ENV: &str = "MPS_FABRIC_PEERS";

/// Epoch tag every handshake must agree on, so a stale process from a
/// previous launch cannot join the universe. Defaults to 0.
pub const FABRIC_EPOCH_ENV: &str = "MPS_FABRIC_EPOCH";

/// Per-connection handshake budget in milliseconds for the socket
/// backend's accept loop, so a stalled or half-open dialer cannot
/// wedge the listener forever. Defaults to 10 s.
pub const HANDSHAKE_TIMEOUT_MS_ENV: &str = "MPS_HANDSHAKE_TIMEOUT_MS";

const DEFAULT_RECV_TIMEOUT: Duration = Duration::from_secs(60);

const DEFAULT_HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(10);

/// The one strict parser behind every `MPS_*` environment knob
/// (`MPS_RECV_TIMEOUT_MS`, the `MPS_CHAOS_*` family, and the
/// `MPS_SERVE_*` family consumed by `tc-serve`): returns `None` when
/// `name` is unset, the parsed value when it parses after trimming,
/// and otherwise panics **loudly at universe construction**, naming
/// the offending variable and echoing its value — a mistyped knob in
/// CI must never masquerade as a configured one.
pub fn strict_env<T: std::str::FromStr>(name: &str, what: &str) -> Option<T>
where
    T::Err: std::fmt::Display,
{
    match std::env::var(name) {
        Ok(raw) => match raw.trim().parse::<T>() {
            Ok(v) => Some(v),
            Err(e) => {
                panic!("{name}={raw:?} is not a valid {what} ({e}); unset it or set a valid value")
            }
        },
        Err(std::env::VarError::NotPresent) => None,
        Err(e) => panic!("{name} is set but unreadable: {e}"),
    }
}

/// Tunables of one universe.
#[derive(Debug, Clone, Default)]
pub struct UniverseConfig {
    /// How long a receive (or collective step) may block before it
    /// gives up with [`MpsError::Timeout`]. `None` means the default
    /// of 60 s, overridable through [`RECV_TIMEOUT_ENV`].
    ///
    /// # Panics (at universe construction)
    ///
    /// When this is `None` and [`RECV_TIMEOUT_ENV`] is set to
    /// something that does not parse as a `u64` millisecond count,
    /// universe construction panics loudly instead of silently
    /// running with the default — a mistyped deadline in CI must not
    /// masquerade as a configured one.
    pub recv_timeout: Option<Duration>,
    /// When set, every rank thread binds itself to this trace session
    /// for its lifetime, and the fabric enriches timeout reports with
    /// each rank's most recent trace events.
    pub trace: Option<tc_trace::TraceHandle>,
    /// When set, every rank thread binds itself to this metrics
    /// session for its lifetime, and the universe feeds each rank's
    /// communication counters (bytes/messages/blocked time and the
    /// collective call count) into the registry when the rank body
    /// finishes — the registry view is derived from the same
    /// `SharedStats` the timeout diagnostics read, not a second set
    /// of increment sites.
    pub metrics: Option<tc_metrics::MetricsHandle>,
    /// When set, the universe runs the reliable-delivery transport and
    /// injects the plan's faults. `None` means "ask the environment":
    /// any set `MPS_CHAOS_*` variable activates
    /// [`FaultPlan::from_env`]; with none set, the universe runs the
    /// pre-transport zero-overhead path.
    pub chaos: Option<FaultPlan>,
}

impl UniverseConfig {
    /// A config with an explicit receive deadline and no tracing.
    pub fn with_timeout(recv_timeout: Duration) -> Self {
        Self { recv_timeout: Some(recv_timeout), ..Self::default() }
    }

    /// The effective receive deadline: the explicit value if set,
    /// otherwise [`RECV_TIMEOUT_ENV`] (which must parse — see the
    /// field docs), otherwise 60 s.
    pub fn effective_recv_timeout(&self) -> Duration {
        if let Some(t) = self.recv_timeout {
            return t;
        }
        strict_env::<u64>(RECV_TIMEOUT_ENV, "millisecond count")
            .map_or(DEFAULT_RECV_TIMEOUT, Duration::from_millis)
    }

    /// The effective fault plan: the explicit value if set, otherwise
    /// whatever the `MPS_CHAOS_*` environment family describes (which
    /// must parse strictly — see [`FaultPlan::from_env`]), otherwise
    /// none (transport off).
    pub fn effective_chaos(&self) -> Option<FaultPlan> {
        self.chaos.clone().or_else(FaultPlan::from_env)
    }
}

/// Entry point for running a fixed-size group of ranks.
pub struct Universe;

impl Universe {
    /// Runs `f` on `size` ranks and returns each rank's result,
    /// indexed by rank.
    ///
    /// # Panics
    ///
    /// Panics if `size == 0` or if any rank fails (panic or
    /// communication error) — but never hangs: surviving ranks are
    /// woken and joined first.
    pub fn run<T, F>(size: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(&Comm) -> T + Sync,
    {
        match Self::try_run(size, |c| Ok(f(c))) {
            Ok(outs) => outs,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible variant of [`Universe::run`]: the body returns a
    /// `Result`, and the universe returns the first failure (body
    /// error or panic) after every rank has been joined.
    pub fn try_run<T, F>(size: usize, f: F) -> MpsResult<Vec<T>>
    where
        T: Send,
        F: Fn(&Comm) -> MpsResult<T> + Sync,
    {
        Ok(Self::try_run_config(size, &UniverseConfig::default(), f)?.0)
    }

    /// [`Universe::try_run`] with explicit tunables (deadline, trace
    /// and metrics sessions, fault plan), additionally returning each
    /// rank's communication counters.
    pub fn try_run_config<T, F>(
        size: usize,
        config: &UniverseConfig,
        f: F,
    ) -> MpsResult<(Vec<T>, Vec<CommStats>)>
    where
        T: Send,
        F: Fn(&Comm) -> MpsResult<T> + Sync,
    {
        assert!(size > 0, "universe must have at least one rank");
        let timeout = config.effective_recv_timeout();
        let transport = config.effective_chaos().map(|plan| Transport::new(size, plan));
        let fabric: Arc<dyn Fabric> =
            Arc::new(LocalFabric::new(size, timeout, config.trace.clone(), transport));

        let f = &f;
        let trace = &config.trace;
        let metrics = &config.metrics;
        let mut results: Vec<Option<(T, CommStats)>> = (0..size).map(|_| None).collect();
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(size);
            for rank in 0..size {
                let fabric = Arc::clone(&fabric);
                handles.push(scope.spawn(move || {
                    let _trace_guard = trace.as_ref().map(|h| h.register_rank(rank));
                    let _metrics_guard = metrics.as_ref().map(|h| h.register_rank(rank));
                    let comm = Comm::new(rank, size, Arc::clone(&fabric));
                    let out = catch_unwind(AssertUnwindSafe(|| f(&comm)));
                    let stats = comm.stats();
                    feed_comm_metrics(&stats, comm.collective_calls());
                    if let Some(rel) = comm.reliability_stats() {
                        feed_reliability_metrics(&rel);
                    }
                    match out {
                        Ok(Ok(value)) => {
                            fabric.mark_finished(rank);
                            Some((value, stats))
                        }
                        Ok(Err(err)) => {
                            // A body error unblocks peers like a panic
                            // does; only the first failure is kept.
                            fabric.record_failure(rank, err);
                            fabric.mark_finished(rank);
                            None
                        }
                        Err(payload) => {
                            let msg = panic_message(&*payload);
                            fabric.record_failure(rank, MpsError::PeerFailed { rank, msg });
                            fabric.mark_finished(rank);
                            None
                        }
                    }
                }));
            }
            for (rank, h) in handles.into_iter().enumerate() {
                // The body is wrapped in catch_unwind, so join itself
                // cannot fail.
                if let Ok(Some(pair)) = h.join() {
                    results[rank] = Some(pair);
                }
            }
        });

        if let Some(fail) = fabric.failure() {
            return Err(fail.error);
        }
        let mut outs = Vec::with_capacity(size);
        let mut stats = Vec::with_capacity(size);
        for slot in results {
            let (out, st) = slot.expect("every rank succeeded");
            outs.push(out);
            stats.push(st);
        }
        Ok((outs, stats))
    }
}

/// Mirrors one rank's communication counters into the live metrics
/// registry (no-op unless a session is live and this thread is bound
/// to a rank). The counters come from the same `SharedStats` block
/// the timeout diagnostics read — the registry is a derived view,
/// not parallel bookkeeping.
fn feed_comm_metrics(stats: &CommStats, collective_calls: u64) {
    use tc_metrics::names as m;
    tc_metrics::counter_add(m::MPS_BYTES_SENT, stats.bytes_sent);
    tc_metrics::counter_add(m::MPS_MSGS_SENT, stats.msgs_sent);
    tc_metrics::counter_add(m::MPS_BYTES_RECV, stats.bytes_recv);
    tc_metrics::counter_add(m::MPS_MSGS_RECV, stats.msgs_recv);
    tc_metrics::counter_add(m::MPS_SEND_NS, stats.send_ns);
    tc_metrics::counter_add(m::MPS_RECV_NS, stats.recv_ns);
    tc_metrics::counter_add(m::MPS_COLLECTIVES, collective_calls);
}

/// Mirrors one rank's reliable-delivery counters into the live metrics
/// registry. In-process it runs only when a transport was live (a
/// [`FaultPlan`] was installed), and the bench-baseline gate turns the
/// absence into a present-and-zero assertion via the registry's zero
/// defaults; a socket rank always records them, zero without a plan.
fn feed_reliability_metrics(rel: &ReliabilityStats) {
    use tc_metrics::names as m;
    tc_metrics::counter_add(m::MPS_REL_FRAMES_SENT, rel.frames_sent);
    tc_metrics::counter_add(m::MPS_REL_RETRANSMITS, rel.retransmits);
    tc_metrics::counter_add(m::MPS_REL_NACKS, rel.nacks);
    tc_metrics::counter_add(m::MPS_REL_CORRUPT_FRAMES, rel.corrupt_frames);
    tc_metrics::counter_add(m::MPS_REL_DUP_FRAMES, rel.dup_frames);
    tc_metrics::counter_add(m::MPS_REL_REORDERED_FRAMES, rel.reordered_frames);
    tc_metrics::counter_add(m::MPS_REL_REORDER_DEPTH_MAX, rel.reorder_depth_max);
    tc_metrics::counter_add(m::MPS_REL_REORDER_EVICTED, rel.reorder_evicted);
    tc_metrics::counter_add(m::MPS_REL_INJECTED_DROPS, rel.injected_drops);
    tc_metrics::counter_add(m::MPS_REL_INJECTED_DUPS, rel.injected_dups);
    tc_metrics::counter_add(m::MPS_REL_INJECTED_REORDERS, rel.injected_reorders);
    tc_metrics::counter_add(m::MPS_REL_INJECTED_DELAYS, rel.injected_delays);
    tc_metrics::counter_add(m::MPS_REL_INJECTED_CORRUPTIONS, rel.injected_corruptions);
}

/// Mirrors one rank's socket-wire counters into the live metrics
/// registry. Only socket-backed runs produce these (`mps.fabric.*`);
/// in-process runs never touch them, so baselines are unaffected.
fn feed_wire_metrics(w: &WireStats) {
    use tc_metrics::names as m;
    tc_metrics::counter_add(m::MPS_FABRIC_CONNECTS, w.connects);
    tc_metrics::counter_add(m::MPS_FABRIC_ACCEPTS, w.accepts);
    tc_metrics::counter_add(m::MPS_FABRIC_HANDSHAKES, w.handshakes);
    tc_metrics::counter_add(m::MPS_FABRIC_WIRE_MSGS_SENT, w.msgs_sent);
    tc_metrics::counter_add(m::MPS_FABRIC_WIRE_BYTES_SENT, w.bytes_sent);
    tc_metrics::counter_add(m::MPS_FABRIC_WIRE_MSGS_RECV, w.msgs_recv);
    tc_metrics::counter_add(m::MPS_FABRIC_WIRE_BYTES_RECV, w.bytes_recv);
    tc_metrics::counter_add(m::MPS_FABRIC_ACKS_SENT, w.acks_sent);
    tc_metrics::counter_add(m::MPS_FABRIC_NACKS_SENT, w.nacks_sent);
    tc_metrics::counter_add(m::MPS_FABRIC_IO_CPU_NS, w.io_cpu_ns);
}

/// Configuration of one rank *process* of a socket-backed universe.
///
/// Unlike [`UniverseConfig`], which describes a whole in-process
/// universe, a `SocketConfig` describes this process's slice of a
/// multi-process one: its rank, every rank's endpoint, and the launch
/// epoch all processes must agree on.
#[derive(Debug, Clone)]
pub struct SocketConfig {
    /// This process's rank (an index into `peers`).
    pub rank: usize,
    /// One endpoint per rank, in rank order: `unix:/path/sock` (or any
    /// string containing `/`) for Unix-domain sockets, `host:port` for
    /// TCP. Rank `r` binds and listens on `peers[r]`.
    pub peers: Vec<String>,
    /// Launch epoch: handshakes reject peers from a different epoch,
    /// so a stale process of a previous run cannot join.
    pub epoch: u64,
    /// Recoverable mode: a peer's lost connection surfaces as
    /// [`MpsError::PeerDown`] (a supervisor may respawn the rank and
    /// every survivor rejoin at a bumped epoch) instead of the fatal
    /// [`MpsError::PeerFailed`]. Off by default — batch runs should
    /// die loudly.
    pub recoverable: bool,
    /// Per-connection handshake budget for the accept loop. `None`
    /// means [`HANDSHAKE_TIMEOUT_MS_ENV`] or the 10 s default.
    pub handshake_timeout: Option<Duration>,
    /// The per-universe tunables (deadline, trace, metrics, chaos).
    /// A chaos plan here injects faults into the *socket* wire layer.
    pub universe: UniverseConfig,
}

impl SocketConfig {
    /// A config with epoch 0 and default universe tunables.
    pub fn new(rank: usize, peers: Vec<String>) -> Self {
        Self {
            rank,
            peers,
            epoch: 0,
            recoverable: false,
            handshake_timeout: None,
            universe: UniverseConfig::default(),
        }
    }

    /// The handshake budget one inbound connection may consume before
    /// the accept loop drops it and moves on: the explicit field wins,
    /// then [`HANDSHAKE_TIMEOUT_MS_ENV`], then 10 s.
    ///
    /// # Panics (at universe construction)
    ///
    /// When the field is `None` and the environment variable is set to
    /// something that does not parse as a `u64` millisecond count.
    pub fn effective_handshake_timeout(&self) -> Duration {
        self.handshake_timeout.unwrap_or_else(|| {
            strict_env::<u64>(HANDSHAKE_TIMEOUT_MS_ENV, "millisecond count")
                .map_or(DEFAULT_HANDSHAKE_TIMEOUT, Duration::from_millis)
        })
    }

    /// Builds a config from the `MPS_FABRIC_*` environment family, or
    /// `None` when neither [`FABRIC_RANK_ENV`] nor [`FABRIC_PEERS_ENV`]
    /// is set.
    ///
    /// # Panics
    ///
    /// Panics (naming the variable) when only one of the two required
    /// variables is set, when either does not parse strictly, or when
    /// the rank is out of range of the peer list.
    pub fn from_env() -> Option<Self> {
        let rank = strict_env::<usize>(FABRIC_RANK_ENV, "rank index");
        let peers = strict_env::<String>(FABRIC_PEERS_ENV, "endpoint list");
        let (rank, peers) = match (rank, peers) {
            (Some(r), Some(p)) => (r, p),
            (None, None) => return None,
            (Some(_), None) => {
                panic!("{FABRIC_RANK_ENV} is set but {FABRIC_PEERS_ENV} is not")
            }
            (None, Some(_)) => {
                panic!("{FABRIC_PEERS_ENV} is set but {FABRIC_RANK_ENV} is not")
            }
        };
        let peers: Vec<String> =
            peers.split(',').map(|s| s.trim().to_string()).filter(|s| !s.is_empty()).collect();
        assert!(
            rank < peers.len(),
            "{FABRIC_RANK_ENV}={rank} is out of range of the {} endpoints in {FABRIC_PEERS_ENV}",
            peers.len()
        );
        let epoch = strict_env::<u64>(FABRIC_EPOCH_ENV, "unsigned integer epoch").unwrap_or(0);
        Some(Self {
            rank,
            peers,
            epoch,
            recoverable: false,
            handshake_timeout: None,
            universe: UniverseConfig::default(),
        })
    }
}

impl Universe {
    /// Runs this process's rank body of a multi-process, socket-backed
    /// universe: binds/connects to every peer per `config`, runs `f`
    /// on the resulting [`Comm`], and performs the orderly shutdown
    /// (FIN exchange, queued writes, teardown). Returns the body's
    /// value and this rank's communication counters, or the universe's
    /// first failure — exactly the contract one rank of
    /// [`Universe::try_run_config`] sees from the inside.
    pub fn try_run_socket<T, F>(config: &SocketConfig, f: F) -> MpsResult<(T, CommStats)>
    where
        F: FnOnce(&Comm) -> MpsResult<T>,
    {
        let rank = config.rank;
        let size = config.peers.len();
        assert!(size > 0, "universe must have at least one rank");
        assert!(rank < size, "rank {rank} out of range of {size} endpoints");
        let _trace_guard = config.universe.trace.as_ref().map(|h| h.register_rank(rank));
        let _metrics_guard = config.universe.metrics.as_ref().map(|h| h.register_rank(rank));
        let fabric = SocketFabric::connect(config)?;
        let comm = Comm::new(rank, size, Arc::clone(&fabric) as Arc<dyn Fabric>);
        let out = catch_unwind(AssertUnwindSafe(|| f(&comm)));
        let stats = comm.stats();
        feed_comm_metrics(&stats, comm.collective_calls());
        feed_reliability_metrics(&comm.reliability_stats().unwrap_or_default());
        let value = match out {
            Ok(Ok(value)) => Some(value),
            Ok(Err(err)) => {
                fabric.record_failure(rank, err);
                None
            }
            Err(payload) => {
                let msg = panic_message(&*payload);
                fabric.record_failure(rank, MpsError::PeerFailed { rank, msg });
                None
            }
        };
        // Orderly shutdown: announce FIN behind everything sent, wait
        // for every peer's FIN (or the first failure), then write out
        // what is still queued and tear the connections down.
        fabric.mark_finished(rank);
        fabric.await_peers();
        feed_wire_metrics(&fabric.shutdown());
        if let Some(fail) = fabric.failure() {
            return Err(fail.error);
        }
        let value = value.expect("a missing value implies a recorded failure");
        Ok((value, stats))
    }
}

/// Where the ranks of one universe run and what they are bound to —
/// the one decision every distributed entry point takes from its
/// caller: all of them as threads of this process under a
/// [`UniverseConfig`], or this process as one rank of a socket mesh.
#[derive(Debug, Clone, Copy)]
pub enum Launch<'a> {
    /// Every rank is a thread of this process.
    Threads {
        /// Rank count.
        ranks: usize,
        /// Deadline and the handles the rank threads bind to.
        config: &'a UniverseConfig,
    },
    /// This process is one rank of a multi-process socket universe.
    Socket(&'a SocketConfig),
}

impl<'a> Launch<'a> {
    /// `ranks` in-process rank threads under `config`.
    pub fn threads(ranks: usize, config: &'a UniverseConfig) -> Self {
        Launch::Threads { ranks, config }
    }

    /// Rank count of the whole universe (not only of this process).
    pub fn size(&self) -> usize {
        match self {
            Launch::Threads { ranks, .. } => *ranks,
            Launch::Socket(sock) => sock.peers.len(),
        }
    }

    /// Runs `f` on every rank this process hosts — all of them on
    /// threads, one over sockets — and returns their outputs and
    /// communication counters in rank order, or the universe's first
    /// failure.
    pub fn run<T, F>(&self, f: F) -> MpsResult<(Vec<T>, Vec<CommStats>)>
    where
        T: Send,
        F: Fn(&Comm) -> MpsResult<T> + Sync,
    {
        match *self {
            Launch::Threads { ranks, config } => Universe::try_run_config(ranks, config, f),
            Launch::Socket(sock) => {
                let (out, stats) = Universe::try_run_socket(sock, f)?;
                Ok((vec![out], vec![stats]))
            }
        }
    }
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranks_see_correct_identity() {
        let out = Universe::run(5, |c| (c.rank(), c.size()));
        assert_eq!(out, vec![(0, 5), (1, 5), (2, 5), (3, 5), (4, 5)]);
    }

    #[test]
    fn single_rank_universe() {
        let out = Universe::run(1, |c| c.rank());
        assert_eq!(out, vec![0]);
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zero_ranks_panics() {
        let _ = Universe::run(0, |c| c.rank());
    }

    #[test]
    fn ring_pass() {
        // Each rank sends its id to the next rank and reports what it got.
        let out = Universe::run(7, |c| {
            let next = (c.rank() + 1) % c.size();
            let prev = (c.rank() + c.size() - 1) % c.size();
            c.send_val::<u64>(next, 7, c.rank() as u64);
            c.recv_val::<u64>(prev, 7).unwrap()
        });
        for (r, got) in out.iter().enumerate() {
            assert_eq!(*got as usize, (r + 7 - 1) % 7);
        }
    }

    #[test]
    fn tag_matching_out_of_order() {
        // Rank 0 sends tag 2 then tag 1; rank 1 receives tag 1 first.
        let out = Universe::run(2, |c| {
            if c.rank() == 0 {
                c.send_val::<u32>(1, 2, 222);
                c.send_val::<u32>(1, 1, 111);
                0
            } else {
                let first = c.recv_val::<u32>(0, 1).unwrap();
                let second = c.recv_val::<u32>(0, 2).unwrap();
                assert_eq!((first, second), (111, 222));
                1
            }
        });
        assert_eq!(out, vec![0, 1]);
    }

    #[test]
    fn fifo_within_same_tag() {
        let out = Universe::run(2, |c| {
            if c.rank() == 0 {
                for i in 0..100u32 {
                    c.send_val::<u32>(1, 3, i);
                }
                Vec::new()
            } else {
                (0..100).map(|_| c.recv_val::<u32>(0, 3).unwrap()).collect::<Vec<u32>>()
            }
        });
        assert_eq!(out[1], (0..100).collect::<Vec<u32>>());
    }

    #[test]
    fn self_send_works() {
        let out = Universe::run(3, |c| {
            c.send(c.rank(), 9, &[1u64, 2, 3]);
            c.recv::<u64>(c.rank(), 9).unwrap().into_vec()
        });
        for v in out {
            assert_eq!(v, vec![1, 2, 3]);
        }
    }

    #[test]
    fn stats_count_bytes_and_messages() {
        let (_, stats) = Universe::try_run_config(2, &UniverseConfig::default(), |c| {
            if c.rank() == 0 {
                c.send(1, 1, &[0u32; 16]);
            } else {
                let _ = c.recv::<u32>(0, 1)?;
            }
            Ok(())
        })
        .unwrap();
        assert_eq!(stats[0].bytes_sent, 64);
        assert_eq!(stats[0].msgs_sent, 1);
        assert_eq!(stats[1].bytes_recv, 64);
        assert_eq!(stats[1].msgs_recv, 1);
        assert_eq!(stats[1].bytes_sent, 0);
    }

    #[test]
    fn sendrecv_exchanges_between_pair() {
        let out = Universe::run(2, |c| {
            let peer = 1 - c.rank();
            let mine = [c.rank() as u32 * 10];
            c.sendrecv::<u32>(peer, 5, &mine, peer, 5).unwrap().as_slice()[0]
        });
        assert_eq!(out, vec![10, 0]);
    }

    #[test]
    fn many_ranks_all_to_all_manual() {
        let p = 9;
        let out = Universe::run(p, |c| {
            for d in 0..p {
                c.send_val::<u64>(d, 11, (c.rank() * 100 + d) as u64);
            }
            let mut sum = 0u64;
            for s in 0..p {
                sum += c.recv_val::<u64>(s, 11).unwrap();
            }
            sum
        });
        for (r, s) in out.iter().enumerate() {
            let expect: u64 = (0..p).map(|src| (src * 100 + r) as u64).sum();
            assert_eq!(*s, expect);
        }
    }

    #[test]
    fn try_run_collects_results() {
        let out = Universe::try_run(4, |c| c.allreduce_sum_u64(c.rank() as u64)).unwrap();
        assert_eq!(out, vec![6, 6, 6, 6]);
    }

    #[test]
    fn try_run_surfaces_body_error() {
        let err = Universe::try_run(3, |c| {
            if c.rank() == 1 {
                Err(MpsError::PeerFailed { rank: 1, msg: "synthetic".into() })
            } else {
                c.barrier()
            }
        })
        .unwrap_err();
        match err {
            MpsError::PeerFailed { rank, msg } => {
                assert_eq!(rank, 1);
                assert!(msg.contains("synthetic"), "{msg}");
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "deliberate rank panic")]
    fn run_propagates_panic_without_hanging() {
        // Rank 2 panics while everyone else enters a barrier; the
        // barrier participants must be woken, not deadlocked.
        let _ = Universe::run(4, |c| {
            if c.rank() == 2 {
                panic!("deliberate rank panic");
            }
            let _ = c.barrier();
        });
    }

    #[test]
    fn crossed_recvs_time_out_with_report() {
        // Both ranks wait for a message the other never sends: a real
        // deadlock under the old semantics. Both must time out; the
        // universe returns the first expiry as a typed Timeout.
        let cfg = UniverseConfig::with_timeout(Duration::from_millis(250));
        let err = Universe::try_run_config(2, &cfg, |c| {
            let peer = 1 - c.rank();
            c.recv_val::<u64>(peer, 99)
        })
        .unwrap_err();
        match err {
            MpsError::Timeout { rank, src, op, report, .. } => {
                assert_eq!(src, 1 - rank);
                assert_eq!(op, "recv");
                assert!(report.contains("rank 0:"), "{report}");
                assert!(report.contains("rank 1:"), "{report}");
            }
            other => panic!("expected timeout, got {other:?}"),
        }
    }

    #[test]
    fn metrics_feed_mirrors_comm_stats_exactly() {
        let session = tc_metrics::MetricsSession::begin();
        let cfg = UniverseConfig { metrics: Some(session.handle()), ..UniverseConfig::default() };
        let (_, stats) = Universe::try_run_config(4, &cfg, |c| {
            let next = (c.rank() + 1) % c.size();
            let prev = (c.rank() + c.size() - 1) % c.size();
            c.send(next, 3, &[c.rank() as u64; 8]);
            let _ = c.recv::<u64>(prev, 3)?;
            c.barrier()?;
            c.allreduce_sum_u64(1)
        })
        .unwrap();
        let snap = session.finish();
        use tc_metrics::names as m;
        assert_eq!(snap.ranks(), vec![0, 1, 2, 3]);
        for (rank, cs) in stats.iter().enumerate() {
            assert_eq!(snap.counter(rank, m::MPS_BYTES_SENT), Some(cs.bytes_sent));
            assert_eq!(snap.counter(rank, m::MPS_MSGS_SENT), Some(cs.msgs_sent));
            assert_eq!(snap.counter(rank, m::MPS_BYTES_RECV), Some(cs.bytes_recv));
            assert_eq!(snap.counter(rank, m::MPS_MSGS_RECV), Some(cs.msgs_recv));
            // Every rank enters the same collective sequence (barrier
            // + allreduce, however many internal steps that takes).
            let colls = snap.counter(rank, m::MPS_COLLECTIVES).unwrap();
            assert!(colls >= 2, "rank {rank}: {colls}");
            assert_eq!(Some(colls), snap.counter(0, m::MPS_COLLECTIVES));
        }
        let total: u64 = stats.iter().map(|s| s.bytes_sent).sum();
        assert_eq!(snap.counter_total(m::MPS_BYTES_SENT), Some(total));
    }

    #[test]
    fn recv_from_cleanly_finished_peer_fails_fast() {
        // Rank 0 finishes without sending; rank 1's receive must fail
        // promptly (not wait out the full deadline).
        let cfg = UniverseConfig::with_timeout(Duration::from_secs(30));
        let t0 = std::time::Instant::now();
        let err = Universe::try_run_config(2, &cfg, |c| {
            if c.rank() == 0 {
                Ok(0u64)
            } else {
                c.recv_val::<u64>(0, 1)
            }
        })
        .unwrap_err();
        assert!(t0.elapsed() < Duration::from_secs(10));
        match err {
            MpsError::PeerFailed { rank, msg } => {
                assert_eq!(rank, 0);
                assert!(msg.contains("terminated"), "{msg}");
            }
            other => panic!("expected peer failure, got {other:?}"),
        }
    }
}
