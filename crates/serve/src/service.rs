//! The long-lived service loop.
//!
//! Every rank calls [`serve_rank`] inside a universe body (threads on
//! `LocalFabric`, one OS process per rank on `SocketFabric`). Rank 0
//! doubles as the **frontend**: it binds a Unix-domain listener at
//! the configured path, and its own service thread polls the listener
//! and every client connection, admits line-delimited JSON requests
//! into a bounded queue, and writes each reply back itself (the
//! private `front` module). Peers sit in a command loop fed by rank 0.
//!
//! ## Fleet protocol
//!
//! Rank 0 sends each peer a point-to-point stream of `u32` opcodes,
//! delivered in order. A fleet-wide command (`tick`, `apply`, `truss`,
//! `stats`, `metrics`, `shutdown`) goes to every peer, followed by the
//! matching collective phase of [`Engine`]. A `support(u, v)` goes
//! only to the peers that own `u` or `v`, which send their rows
//! straight back ([`Engine::query_support`]); the rest never wake.
//! Only fleet-wide commands reset the heartbeat clock: when `tick_ms`
//! (default 5 s) passes without one, every peer gets a tick, so none
//! trips the fabric's receive deadline. See DESIGN.md §13.
//!
//! ## Coalescing and the read barrier
//!
//! Update requests are acknowledged immediately and buffered; the
//! buffer is applied as one batch when it reaches `max_batch` ops,
//! when the oldest buffered op is `flush_ms` old, on an explicit
//! `flush`, at shutdown — or when a read query (`count`, `support`,
//! `truss`, `stats`) arrives, which guarantees read-your-writes.
//!
//! ## Admission control
//!
//! At most `queue` requests may be in flight, that is admitted and
//! not yet answered. A connection has at most one request in flight
//! and is not read until its reply has left, so the cap bites when
//! more than `queue` connections ask at once. Excess requests are
//! rejected immediately with the typed `over_capacity` error and
//! counted in `serve.rejected_queries` on rank 0's metrics lane.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use tc_core::{EdgeSource, TcConfig};
use tc_metrics::names as m;
use tc_metrics::{MetricsHandle, MetricsSnapshot};
use tc_mps::{strict_env, Comm, MpsError, MpsResult, SocketConfig, Universe};

use crate::engine::{Algo, EdgeOp, Engine};
use crate::front::Front;
use crate::proto::{self, Request};
use crate::supervisor::read_epoch;

/// `MPS_SERVE_*`: coalescing flush interval (milliseconds).
pub const SERVE_FLUSH_MS_ENV: &str = "MPS_SERVE_FLUSH_MS";
/// `MPS_SERVE_*`: coalescing batch-size flush threshold (ops).
pub const SERVE_MAX_BATCH_ENV: &str = "MPS_SERVE_MAX_BATCH";
/// `MPS_SERVE_*`: admission-control queue capacity (requests).
pub const SERVE_QUEUE_ENV: &str = "MPS_SERVE_QUEUE";
/// `MPS_SERVE_*`: idle heartbeat interval (milliseconds).
pub const SERVE_TICK_MS_ENV: &str = "MPS_SERVE_TICK_MS";
/// `MPS_SERVE_*`: fleet checkpoint cadence (committed batches).
pub const SERVE_CKPT_EVERY_ENV: &str = "MPS_SERVE_CKPT_EVERY";
/// `MPS_SERVE_*`: how long a survivor waits for the supervisor to
/// bump the fleet epoch before giving the crash up as fatal (ms).
pub const SERVE_REJOIN_WAIT_MS_ENV: &str = "MPS_SERVE_REJOIN_WAIT_MS";

/// Tag of rank 0's opcode stream to each peer.
const CMD_TAG: u64 = (1 << 45) + 0x5E0;

// Fleet opcodes, sent by rank 0 on `CMD_TAG`.
const OP_TICK: u32 = 1;
const OP_APPLY: u32 = 2;
const OP_SUPPORT: u32 = 3;
const OP_TRUSS: u32 = 4;
const OP_STATS: u32 = 5;
const OP_METRICS: u32 = 6;
const OP_SHUTDOWN: u32 = 7;

/// Service tunables. Construct with [`ServeConfig::new`], then let
/// the environment override individual knobs via
/// [`ServeConfig::env_overrides`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Unix-socket path the frontend listens on.
    pub listen: PathBuf,
    /// Offline kernel for cold start (and recount oracles).
    pub algo: Algo,
    /// Kernel tunables for the cold-start count.
    pub tc: TcConfig,
    /// Apply the pending buffer once it holds this many ops.
    pub max_batch: usize,
    /// Apply the pending buffer once its oldest op is this old.
    pub flush_ms: u64,
    /// Admission control: max requests in flight, i.e. admitted by the
    /// frontend and not yet answered.
    pub queue: usize,
    /// Idle heartbeat interval keeping peers inside their receive
    /// deadline.
    pub tick_ms: u64,
    /// Live registry handle backing the `metrics` query; `None`
    /// serves an empty exposition.
    pub metrics: Option<MetricsHandle>,
}

impl ServeConfig {
    /// Defaults: Cannon kernel, 256-op batches, 50 ms flush, 64
    /// queued requests, 5 s ticks.
    pub fn new(listen: PathBuf) -> Self {
        Self {
            listen,
            algo: Algo::Cannon,
            tc: TcConfig::default(),
            max_batch: 256,
            flush_ms: 50,
            queue: 64,
            tick_ms: 5_000,
            metrics: None,
        }
    }

    /// Applies the `MPS_SERVE_*` environment family on top of the
    /// current values. Malformed values panic loudly (strict-env
    /// discipline); unset variables change nothing.
    pub fn env_overrides(mut self) -> Self {
        if let Some(v) = strict_env::<u64>(SERVE_FLUSH_MS_ENV, "millisecond count") {
            self.flush_ms = v;
        }
        if let Some(v) = strict_env::<usize>(SERVE_MAX_BATCH_ENV, "op count") {
            self.max_batch = v.max(1);
        }
        if let Some(v) = strict_env::<usize>(SERVE_QUEUE_ENV, "request count") {
            self.queue = v.max(1);
        }
        if let Some(v) = strict_env::<u64>(SERVE_TICK_MS_ENV, "millisecond count") {
            self.tick_ms = v.max(1);
        }
        self
    }
}

/// Supervised-fleet tunables on top of [`ServeConfig`].
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Fleet state directory: the epoch file, per-rank durability
    /// subdirectories, and (under a supervisor) logs and pid files.
    pub state_dir: PathBuf,
    /// Checkpoint cadence in committed batches (the WAL is truncated
    /// at each checkpoint; smaller means faster restores, more
    /// snapshot writes). 0 disables the periodic cadence.
    pub ckpt_every: u64,
    /// How long a survivor waits for the supervisor to bump the
    /// epoch after a peer crash before declaring the fleet dead.
    pub rejoin_wait_ms: u64,
    /// The `retry_after_ms` hint degraded replies carry.
    pub degraded_retry_ms: u64,
}

impl FleetConfig {
    /// Defaults: checkpoint every 64 batches, wait up to 60 s for a
    /// respawn, hint clients to retry after 500 ms.
    pub fn new(state_dir: PathBuf) -> Self {
        Self { state_dir, ckpt_every: 64, rejoin_wait_ms: 60_000, degraded_retry_ms: 500 }
    }

    /// Applies the `MPS_SERVE_*` fleet knobs on top of the current
    /// values (strict-env discipline: malformed values panic).
    pub fn env_overrides(mut self) -> Self {
        if let Some(v) = strict_env::<u64>(SERVE_CKPT_EVERY_ENV, "batch count") {
            self.ckpt_every = v;
        }
        if let Some(v) = strict_env::<u64>(SERVE_REJOIN_WAIT_MS_ENV, "millisecond count") {
            self.rejoin_wait_ms = v.max(1);
        }
        self
    }
}

/// What the service did over its lifetime (rank 0; peers report
/// zeros except the final count).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeReport {
    /// Update batches applied.
    pub batches: u64,
    /// Read queries answered.
    pub queries: u64,
    /// Requests rejected by admission control.
    pub rejected: u64,
    /// Final global triangle count.
    pub triangles: u64,
    /// Full recounts executed (cold start only on the hot path).
    pub full_recounts: u64,
}

/// How long the service waits for the `shutdown` reply to reach its
/// socket before returning anyway (a client that stopped reading must
/// not wedge the fleet's shutdown).
const SHUTDOWN_REPLY_WAIT: Duration = Duration::from_secs(5);

/// Runs this rank's half of the service until a `shutdown` request
/// lands. Collective: every rank of the universe must call it with
/// the same source and configuration; each rank reads only its stripe
/// of `src` ([`Engine::cold_start_from`]). A defective source is the
/// same [`MpsError::InvalidInput`] on every rank, before rank 0 binds
/// its listener.
pub fn serve_rank(comm: &Comm, src: EdgeSource<'_>, cfg: &ServeConfig) -> MpsResult<ServeReport> {
    let mut engine = Engine::cold_start_from(comm, src, cfg.algo, cfg.tc)?;
    if comm.rank() != 0 {
        return peer_loop(comm, &mut engine, cfg);
    }
    let mut fs = front_bind(cfg);
    let res = frontend_session(comm, &mut engine, cfg, &mut fs);
    let report = front_teardown(fs, &cfg.listen);
    res.map(|()| report)
}

/// How one degraded window ended.
enum DegradedEnd {
    /// The supervisor bumped the epoch: rejoin the fleet.
    Rejoin,
    /// A client asked for shutdown while degraded.
    Shutdown,
    /// No respawn arrived inside the rejoin budget.
    GaveUp,
}

/// Serves clients from rank 0 alone while a peer rank is down:
/// `count` answers from the last committed state when no writes are
/// buffered, updates queue into the (bounded) coalescing buffer, and
/// everything needing a collective gets the typed `degraded` reply
/// with a retry-after hint — a request never hangs on a dead rank.
fn degraded_serve(
    fs: &mut FrontState,
    cfg: &ServeConfig,
    fleet: &FleetConfig,
    last_epoch: u64,
    down_rank: usize,
) -> DegradedEnd {
    // The degraded loop runs outside any universe, so it binds rank 0's
    // metrics lane itself.
    let _lane = cfg.metrics.as_ref().map(|h| h.register_rank(0));
    let deadline = Instant::now() + Duration::from_millis(fleet.rejoin_wait_ms);
    // While nothing can flush, the buffer is capped at a full
    // admission queue's worth of maximal batches.
    let buffer_cap = cfg.max_batch.saturating_mul(cfg.queue).max(cfg.max_batch);
    loop {
        if read_epoch(&fleet.state_dir) > last_epoch {
            return DegradedEnd::Rejoin;
        }
        if Instant::now() >= deadline {
            return DegradedEnd::GaveUp;
        }
        let Some((conn, req)) = fs.front.pop(Duration::from_millis(50)) else {
            continue;
        };
        let reply = match req {
            // The committed count is replicated and rank-0-local; it
            // is exact as long as no writes are waiting on the fleet.
            Request::Count if fs.pending.is_empty() => {
                fs.report.queries += 1;
                tc_metrics::counter_add(m::SERVE_QUERIES_COUNT, 1);
                proto::ok_count(fs.report.triangles)
            }
            Request::Update { ref insert, ref delete } => {
                match fs.buffer_update(insert, delete, buffer_cap) {
                    Err(line) => line,
                    Ok(queued) => {
                        tc_metrics::counter_add(m::SERVE_DEGRADED_UPDATES, queued as u64);
                        proto::ok_queued(queued, fs.pending.len())
                    }
                }
            }
            Request::Shutdown => {
                fs.front.reply_and_drain(conn, &proto::ok_shutdown(), SHUTDOWN_REPLY_WAIT);
                return DegradedEnd::Shutdown;
            }
            // Everything else needs the whole fleet.
            _ => {
                fs.report.queries += 1;
                tc_metrics::counter_add(m::SERVE_DEGRADED_QUERIES, 1);
                proto::degraded_line(down_rank, fleet.degraded_retry_ms)
            }
        };
        fs.front.reply(conn, &reply);
    }
}

/// Blocks until the epoch file exceeds `last` (the supervisor bumped
/// it for a respawn) or the budget runs out.
fn wait_for_epoch_bump(state_dir: &Path, last: u64, wait_ms: u64) -> bool {
    let deadline = Instant::now() + Duration::from_millis(wait_ms);
    while Instant::now() < deadline {
        if read_epoch(state_dir) > last {
            return true;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    false
}

/// Runs this rank of a **supervised, crash-recoverable** fleet: an
/// outer loop of socket-fabric sessions, one per fleet epoch.
///
/// Every session starts from durable state
/// ([`Engine::resume_or_cold_start`]): checkpoint + WAL replay, a
/// cross-rank resync to the committed frontier, and a fingerprint
/// allreduce guarding against divergence. When a peer process dies,
/// the session ends with [`MpsError::PeerDown`]; rank 0 keeps its
/// listener and serves degraded replies while waiting for the
/// supervisor to bump the epoch file, peers just wait, and everyone
/// reconnects at the new epoch. A clean `shutdown` ends the loop.
pub fn serve_fleet(
    src: EdgeSource<'_>,
    cfg: &ServeConfig,
    sock: &SocketConfig,
    fleet: &FleetConfig,
) -> MpsResult<ServeReport> {
    let rank = sock.rank;
    let rank_dir = fleet.state_dir.join(format!("rank-{rank}"));
    let mut fs = (rank == 0).then(|| front_bind(cfg));
    if let Some(f) = fs.as_mut() {
        f.degraded_retry_ms = fleet.degraded_retry_ms;
    }
    loop {
        let epoch = read_epoch(&fleet.state_dir).max(sock.epoch);
        let mut sc = sock.clone();
        sc.epoch = epoch;
        sc.recoverable = true;
        let session_fs = &mut fs;
        let result = Universe::try_run_socket(&sc, |comm| {
            let resumed = Engine::resume_or_cold_start(
                comm,
                src,
                cfg.algo,
                cfg.tc,
                &rank_dir,
                fleet.ckpt_every,
            );
            let (mut engine, recovered) = match tc_core::settle(resumed)? {
                Ok(resumed) => resumed,
                Err(invalid) => return Ok(Err(invalid)),
            };
            if recovered && epoch > 0 {
                tc_metrics::counter_add(m::SERVE_RECOVERIES, 1);
            }
            if let Some(fs) = session_fs.as_mut() {
                if epoch > sock.epoch {
                    fs.recoveries += 1;
                }
                frontend_session(comm, &mut engine, cfg, fs)?;
                Ok(Ok(ServeReport::default()))
            } else {
                peer_loop(comm, &mut engine, cfg).map(Ok)
            }
        });
        match result {
            // A defective source: every rank stops alike, and no
            // respawn can mend the input.
            Ok((Err(invalid), _stats)) => {
                if let Some(f) = fs.take() {
                    front_teardown(f, &cfg.listen);
                }
                return Err(invalid);
            }
            Ok((Ok(peer_report), _stats)) => {
                return Ok(match fs.take() {
                    Some(f) => front_teardown(f, &cfg.listen),
                    None => peer_report,
                });
            }
            Err(MpsError::PeerDown { rank: down }) => {
                eprintln!(
                    "rank {rank}: peer rank {down} is down (epoch {epoch}); awaiting supervised respawn"
                );
                if let Some(f) = fs.as_mut() {
                    match degraded_serve(f, cfg, fleet, epoch, down) {
                        DegradedEnd::Rejoin => continue,
                        DegradedEnd::Shutdown => {
                            return Ok(front_teardown(
                                fs.take().expect("frontend state exists"),
                                &cfg.listen,
                            ));
                        }
                        DegradedEnd::GaveUp => {
                            front_teardown(fs.take().expect("frontend state exists"), &cfg.listen);
                            return Err(MpsError::PeerDown { rank: down });
                        }
                    }
                } else if wait_for_epoch_bump(&fleet.state_dir, epoch, fleet.rejoin_wait_ms) {
                    continue;
                } else {
                    return Err(MpsError::PeerDown { rank: down });
                }
            }
            Err(e) => {
                // A second crash can race the reconnect handshake: if
                // the supervisor moved the epoch on while this session
                // was forming, retry at the newer epoch instead of
                // dying on the stale one.
                if read_epoch(&fleet.state_dir) > epoch {
                    eprintln!("rank {rank}: session at epoch {epoch} superseded ({e}); rejoining");
                    continue;
                }
                if let Some(f) = fs.take() {
                    front_teardown(f, &cfg.listen);
                }
                return Err(e);
            }
        }
    }
}

/// Peer ranks: receive rank 0's commands in order, run this rank's
/// half of each.
fn peer_loop(comm: &Comm, engine: &mut Engine, cfg: &ServeConfig) -> MpsResult<ServeReport> {
    loop {
        match decode_cmd(comm.rank(), &comm.recv::<u32>(0, CMD_TAG)?)? {
            Cmd::Tick => {}
            Cmd::Apply(ops) => engine.apply_batch(comm, &ops).map(drop)?,
            Cmd::Support(u, v) => engine.query_support(comm, u, v).map(drop)?,
            Cmd::Truss(k) => engine.query_truss(comm, k).map(drop)?,
            Cmd::Stats => engine.stats(comm).map(drop)?,
            Cmd::Metrics => collect_metrics(comm, cfg.metrics.as_ref()).map(drop)?,
            Cmd::Shutdown => break,
        }
    }
    Ok(ServeReport { triangles: engine.triangles(), ..ServeReport::default() })
}

/// One decoded fleet command.
#[derive(Debug, PartialEq)]
enum Cmd {
    Tick,
    Apply(Vec<EdgeOp>),
    Support(u32, u32),
    Truss(u32),
    Stats,
    Metrics,
    Shutdown,
}

/// Decodes one opcode message. An unknown opcode, or a payload of the
/// wrong length for its opcode, is a typed protocol error on `rank`.
fn decode_cmd(rank: usize, msg: &[u32]) -> MpsResult<Cmd> {
    Ok(match msg {
        [OP_TICK] => Cmd::Tick,
        [OP_APPLY, k, ops @ ..] if ops.len() as u64 == 3 * u64::from(*k) => Cmd::Apply(
            ops.chunks_exact(3).map(|w| EdgeOp { u: w[0], v: w[1], insert: w[2] != 0 }).collect(),
        ),
        &[OP_SUPPORT, u, v] => Cmd::Support(u, v),
        &[OP_TRUSS, k] => Cmd::Truss(k),
        [OP_STATS] => Cmd::Stats,
        [OP_METRICS] => Cmd::Metrics,
        [OP_SHUTDOWN] => Cmd::Shutdown,
        _ => {
            let op = msg.first().map_or_else(|| "none".to_string(), u32::to_string);
            let msg = format!("undecodable fleet command: opcode {op}, length {}", msg.len());
            return Err(MpsError::Protocol { rank, msg });
        }
    })
}

/// The `OP_APPLY` command carrying `ops`.
fn apply_cmd(ops: &[EdgeOp]) -> Vec<u32> {
    let words = ops.iter().flat_map(|op| [op.u, op.v, u32::from(op.insert)]);
    [OP_APPLY, ops.len() as u32].into_iter().chain(words).collect()
}

/// Sends one fleet-wide command to every peer. Only these reset the
/// heartbeat clock: a `support` wakes its owners alone, so it must
/// not postpone the tick the other peers' receive deadlines rely on.
fn fleet_cmd(comm: &Comm, msg: &[u32], last_fleet_cmd: &mut Instant) {
    for peer in 1..comm.size() {
        comm.send(peer, CMD_TAG, msg);
    }
    *last_fleet_cmd = Instant::now();
}

/// Gathers every process's live registry snapshot to rank 0 and
/// renders one merged Prometheus exposition. On the in-process
/// fabric all ranks share one registry, so the merge is idempotent;
/// on the socket fabric each process contributes its own lane.
fn collect_metrics(comm: &Comm, metrics: Option<&MetricsHandle>) -> MpsResult<Option<String>> {
    let local = metrics.map(|h| h.snapshot().to_json()).unwrap_or_default();
    let Some(gathered) = comm.gatherv(0, local.as_bytes())? else {
        return Ok(None);
    };
    let mut merged = MetricsSnapshot::new();
    for buf in gathered {
        if buf.is_empty() {
            continue;
        }
        let text = std::str::from_utf8(&buf).expect("snapshot JSON is UTF-8");
        let snap = MetricsSnapshot::from_json(text).expect("snapshot JSON round-trips");
        for rank in snap.ranks() {
            for (name, value) in snap.rank(rank).expect("listed rank exists") {
                merged.insert(rank, name.clone(), value.clone());
            }
        }
    }
    Ok(Some(tc_metrics::prometheus::to_prometheus(&merged)))
}

/// Distills the live per-op latency histograms into the `stats`
/// reply's summary. Every op is present — and zero — even before its
/// first query (the frontend pre-seeds the histograms).
fn query_latency_summary(
    metrics: Option<&MetricsHandle>,
) -> Vec<(&'static str, proto::LatencyStat)> {
    let merged = metrics.map(|h| h.snapshot().merged()).unwrap_or_default();
    [
        ("count", m::SERVE_QUERY_LATENCY_COUNT_NS),
        ("support", m::SERVE_QUERY_LATENCY_SUPPORT_NS),
        ("truss", m::SERVE_QUERY_LATENCY_TRUSS_NS),
        ("stats", m::SERVE_QUERY_LATENCY_STATS_NS),
    ]
    .into_iter()
    .map(|(op, name)| {
        let stat = match merged.get(name) {
            Some(tc_metrics::MetricValue::Hist(h)) => proto::LatencyStat {
                count: h.count(),
                p50: h.quantile_bounds(0.5).unwrap_or((0, 0)),
                p99: h.quantile_bounds(0.99).unwrap_or((0, 0)),
            },
            _ => proto::LatencyStat::default(),
        };
        (op, stat)
    })
    .collect()
}

/// The frontend state that must **outlive** one fleet session: the
/// listener and its client connections (bound once, so they survive
/// a rank crash), the coalescing buffer (ops accepted while degraded
/// apply after the rejoin), and the running report. `triangles` in
/// the report is only updated at a commit point, so degraded `count`
/// reads can answer from it.
struct FrontState {
    front: Front,
    pending: Vec<EdgeOp>,
    oldest: Option<Instant>,
    report: ServeReport,
    /// Rank-crash rejoins this frontend has survived.
    recoveries: u64,
    /// Vertex count, cached so degraded-mode validation needs no
    /// engine.
    vertices: usize,
    /// Retry hint (ms) stamped on `degraded` replies, including the
    /// in-flight request that first observed the crash.
    degraded_retry_ms: u64,
}

impl FrontState {
    /// Validates an update and appends it to the coalescing buffer —
    /// deletes after inserts, so they win within one request — unless
    /// the buffer would pass `cap` ops. Returns the ops queued, or the
    /// error reply.
    fn buffer_update(
        &mut self,
        ins: &[(u32, u32)],
        del: &[(u32, u32)],
        cap: usize,
    ) -> Result<usize, String> {
        validate_edges(self.vertices, ins.iter().chain(del))
            .map_err(|detail| proto::error_line(proto::ERR_BAD_REQUEST, &detail))?;
        let queued = ins.len() + del.len();
        if self.pending.len() + queued > cap {
            return Err(proto::error_line(proto::ERR_OVER_CAPACITY, "degraded buffer is full"));
        }
        self.pending.extend(ins.iter().map(|&(u, v)| EdgeOp::insert(u, v)));
        self.pending.extend(del.iter().map(|&(u, v)| EdgeOp::delete(u, v)));
        self.oldest.get_or_insert_with(Instant::now);
        Ok(queued)
    }
}

/// Binds the listener.
fn front_bind(cfg: &ServeConfig) -> FrontState {
    // Pre-seed the per-op latency histograms so exports and the
    // `stats` reply show every op from the first snapshot on.
    for &name in m::SERVE_QUERY_LATENCY {
        tc_metrics::hist_touch(name);
    }
    FrontState {
        front: Front::bind(&cfg.listen, cfg.queue),
        pending: Vec::new(),
        oldest: None,
        report: ServeReport::default(),
        recoveries: 0,
        vertices: 0,
        degraded_retry_ms: 500,
    }
}

/// Stops admission, answers what is still in flight, reclaims the
/// socket path, and hands back the lifetime report.
fn front_teardown(fs: FrontState, listen: &Path) -> ServeReport {
    let report = ServeReport { rejected: fs.front.rejected, ..fs.report };
    fs.front.close();
    let _ = std::fs::remove_file(listen);
    report
}

/// One session of the rank-0 service loop over an established
/// communicator. Returns `Ok(())` when a `shutdown` request ended
/// the service; a peer crash surfaces as `Err(MpsError::PeerDown)`
/// with the frontend state intact for degraded serving.
fn frontend_session(
    comm: &Comm,
    engine: &mut Engine,
    cfg: &ServeConfig,
    fs: &mut FrontState,
) -> MpsResult<()> {
    fs.vertices = engine.num_vertices();
    fs.report.triangles = engine.triangles();
    fs.report.full_recounts = engine.full_recounts();
    let flush_after = Duration::from_millis(cfg.flush_ms);
    let tick_after = Duration::from_millis(cfg.tick_ms);
    let mut last_fleet_cmd = Instant::now();

    loop {
        // Aged-buffer and heartbeat deadlines are checked every turn,
        // busy or idle: a sustained stream of queries that reach no or
        // only some peers (`count`, `support`) must neither starve the
        // rest of heartbeats nor let the coalescing buffer age unapplied.
        if fs.oldest.is_some_and(|t| Instant::now() >= t + flush_after) {
            flush_buffer(comm, engine, fs, &mut last_fleet_cmd)?;
        }
        if Instant::now() >= last_fleet_cmd + tick_after {
            fleet_cmd(comm, &[OP_TICK], &mut last_fleet_cmd);
        }

        let tick_at = last_fleet_cmd + tick_after;
        let deadline = fs.oldest.map_or(tick_at, |t| tick_at.min(t + flush_after));
        let Some((conn, req)) = fs.front.pop(deadline.saturating_duration_since(Instant::now()))
        else {
            continue;
        };

        // Per-query latency: reads are timed from dequeue to reply
        // construction (includes the read barrier and the collective).
        let latency_hist = match &req {
            Request::Count => Some(m::SERVE_QUERY_LATENCY_COUNT_NS),
            Request::Support { .. } => Some(m::SERVE_QUERY_LATENCY_SUPPORT_NS),
            Request::Truss { .. } => Some(m::SERVE_QUERY_LATENCY_TRUSS_NS),
            Request::Stats | Request::Metrics => Some(m::SERVE_QUERY_LATENCY_STATS_NS),
            Request::Update { .. } | Request::Flush | Request::Shutdown => None,
        };
        let query_started = Instant::now();

        // `None` means a clean shutdown ended the session. Errors are
        // answered below before they propagate: the request that first
        // observes a crash still gets a typed reply — never a hang.
        let outcome = (|| -> MpsResult<Option<String>> {
            Ok(Some(match req {
                Request::Update { insert, delete } => {
                    match fs.buffer_update(&insert, &delete, usize::MAX) {
                        Err(line) => line,
                        Ok(queued) => {
                            let depth = fs.pending.len();
                            if depth >= cfg.max_batch {
                                flush_buffer(comm, engine, fs, &mut last_fleet_cmd)?;
                            }
                            proto::ok_queued(queued, depth.min(fs.pending.len()))
                        }
                    }
                }
                Request::Flush => {
                    let applied = flush_buffer(comm, engine, fs, &mut last_fleet_cmd)?;
                    proto::ok_applied(applied, engine.triangles())
                }
                Request::Count => {
                    flush_buffer(comm, engine, fs, &mut last_fleet_cmd)?;
                    fs.report.queries += 1;
                    tc_metrics::counter_add(m::SERVE_QUERIES_COUNT, 1);
                    proto::ok_count(engine.triangles())
                }
                Request::Support { u, v } => match validate_edges(fs.vertices, [(u, v)].iter()) {
                    Err(detail) => proto::error_line(proto::ERR_BAD_REQUEST, &detail),
                    Ok(()) => {
                        flush_buffer(comm, engine, fs, &mut last_fleet_cmd)?;
                        for peer in engine.support_peers(u, v) {
                            comm.send(peer, CMD_TAG, &[OP_SUPPORT, u, v]);
                        }
                        let r = engine.query_support(comm, u, v)?.expect("rank 0 gets the reply");
                        fs.report.queries += 1;
                        proto::ok_support(r.support, r.present)
                    }
                },
                Request::Truss { k } => {
                    flush_buffer(comm, engine, fs, &mut last_fleet_cmd)?;
                    fleet_cmd(comm, &[OP_TRUSS, k], &mut last_fleet_cmd);
                    let members = engine.query_truss(comm, k)?.expect("rank 0 gets the reply");
                    fs.report.queries += 1;
                    proto::ok_truss(k, &members)
                }
                Request::Stats => {
                    flush_buffer(comm, engine, fs, &mut last_fleet_cmd)?;
                    fleet_cmd(comm, &[OP_STATS], &mut last_fleet_cmd);
                    let s = engine.stats(comm)?;
                    fs.report.queries += 1;
                    proto::ok_stats(
                        &s,
                        fs.pending.len(),
                        fs.recoveries,
                        &query_latency_summary(cfg.metrics.as_ref()),
                    )
                }
                Request::Metrics => {
                    fleet_cmd(comm, &[OP_METRICS], &mut last_fleet_cmd);
                    let text = collect_metrics(comm, cfg.metrics.as_ref())?
                        .expect("rank 0 gets the exposition");
                    fs.report.queries += 1;
                    tc_metrics::counter_add(m::SERVE_QUERIES_STATS, 1);
                    proto::ok_metrics(&text)
                }
                Request::Shutdown => {
                    flush_buffer(comm, engine, fs, &mut last_fleet_cmd)?;
                    fleet_cmd(comm, &[OP_SHUTDOWN], &mut last_fleet_cmd);
                    return Ok(None);
                }
            }))
        })();

        let reply = match outcome {
            Ok(Some(reply)) => reply,
            Ok(None) => {
                fs.front.reply_and_drain(conn, &proto::ok_shutdown(), SHUTDOWN_REPLY_WAIT);
                fs.report.triangles = engine.triangles();
                fs.report.full_recounts = engine.full_recounts();
                return Ok(());
            }
            Err(e) => {
                let line = match &e {
                    MpsError::PeerDown { rank } => {
                        tc_metrics::counter_add(m::SERVE_DEGRADED_QUERIES, 1);
                        proto::degraded_line(*rank, fs.degraded_retry_ms)
                    }
                    // Any other error ends the session: answered, not dropped.
                    _ => proto::error_line(proto::ERR_SHUTTING_DOWN, ""),
                };
                fs.front.reply(conn, &line);
                return Err(e);
            }
        };
        if let Some(name) = latency_hist {
            tc_metrics::hist_record(name, query_started.elapsed().as_nanos() as u64);
        }
        fs.front.reply(conn, &reply);
    }
}

/// Sends every peer the coalesced buffer and applies it as one batch.
/// Returns the number of batches applied (0 when the buffer was
/// empty — no fleet command is issued for nothing).
fn flush_buffer(
    comm: &Comm,
    engine: &mut Engine,
    fs: &mut FrontState,
    last_fleet_cmd: &mut Instant,
) -> MpsResult<u64> {
    if fs.pending.is_empty() {
        return Ok(0);
    }
    let ops = std::mem::take(&mut fs.pending);
    fs.oldest = None;
    fleet_cmd(comm, &apply_cmd(&ops), last_fleet_cmd);
    match engine.apply_batch(comm, &ops) {
        Ok(_) => {
            fs.report.batches += 1;
            fs.report.triangles = engine.triangles();
            Ok(1)
        }
        Err(e) => {
            // A crash interrupted the batch. Put the ops back: after
            // the rejoin they re-apply, and if the batch already
            // committed anywhere (resync settles that) the net-effect
            // normalization makes the re-apply a no-op — exactly-once
            // either way.
            fs.pending = ops;
            fs.oldest = Some(Instant::now());
            Err(e)
        }
    }
}

/// Rejects pairs that cannot name an edge of this graph.
fn validate_edges<'a>(n: usize, edges: impl Iterator<Item = &'a (u32, u32)>) -> Result<(), String> {
    for &(u, v) in edges {
        if u == v {
            return Err(format!("self-loop ({u}, {v})"));
        }
        if u as usize >= n || v as usize >= n {
            return Err(format!("edge ({u}, {v}) out of range for {n} vertices"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ops_round_trip_through_the_wire_encoding() {
        let ops = vec![EdgeOp::insert(3, 7), EdgeOp::delete(1, 2), EdgeOp::insert(0, 9)];
        assert_eq!(decode_cmd(1, &apply_cmd(&ops)), Ok(Cmd::Apply(ops)));
    }

    /// An unknown opcode, a truncated `OP_APPLY` and an `OP_SUPPORT`
    /// missing `v` are typed protocol errors naming opcode and length.
    #[test]
    fn undecodable_commands_are_protocol_errors() {
        let mut apply = apply_cmd(&[EdgeOp::insert(3, 7), EdgeOp::delete(1, 2)]);
        apply.pop();
        for (words, what) in [
            (&[99, 1][..], "opcode 99, length 2"),
            (&[], "opcode none, length 0"),
            (&apply, "opcode 2, length 7"),
            (&[OP_APPLY], "opcode 2, length 1"),
            (&[OP_SUPPORT, 4], "opcode 3, length 2"),
        ] {
            let msg = format!("undecodable fleet command: {what}");
            assert_eq!(decode_cmd(2, words), Err(MpsError::Protocol { rank: 2, msg }));
        }
        assert_eq!(decode_cmd(2, &[OP_SUPPORT, 4, 5]), Ok(Cmd::Support(4, 5)));
    }

    #[test]
    fn validate_edges_spots_bad_pairs() {
        assert!(validate_edges(10, [(0u32, 1u32)].iter()).is_ok());
        assert!(validate_edges(10, [(3u32, 3u32)].iter()).is_err());
        assert!(validate_edges(10, [(0u32, 10u32)].iter()).is_err());
    }
}
