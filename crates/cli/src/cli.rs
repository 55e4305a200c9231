//! Argument parsing and command dispatch for `tricount`.

use std::path::PathBuf;

use tc_core::{Enumeration, KernelStrategy, SummaGrid, TcConfig};
use tc_gen::Preset;

/// Which counting algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algorithm {
    /// The paper's 2D Cannon-grid algorithm (default).
    TwoD,
    /// SUMMA on a rectangular grid.
    Summa,
    /// Serial map-based ⟨j,i,k⟩.
    Serial,
    /// Shared-memory threads.
    Shared,
    /// 1D overlapping partitions (AOP).
    Aop,
    /// 1D space-efficient push (Surrogate).
    Push,
    /// 1D blocked push (OPT-PSP).
    Psp,
    /// Havoq-style wedge checking.
    Wedge,
}

impl Algorithm {
    /// Parses the `--algorithm` value.
    pub fn parse(s: &str) -> Result<Self, String> {
        Ok(match s {
            "2d" => Algorithm::TwoD,
            "summa" => Algorithm::Summa,
            "serial" => Algorithm::Serial,
            "shared" => Algorithm::Shared,
            "aop" => Algorithm::Aop,
            "push" => Algorithm::Push,
            "psp" => Algorithm::Psp,
            "wedge" => Algorithm::Wedge,
            other => return Err(format!("unknown algorithm {other:?}")),
        })
    }
}

/// The source of the input graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Input {
    /// Read from a file (format by extension: .mtx, .bin, else text).
    File(PathBuf),
    /// Generate a named preset in-process.
    Preset(Preset),
}

/// A parsed `tricount` invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Count triangles.
    Count {
        /// Where the graph comes from.
        input: Input,
        /// Algorithm selection.
        algorithm: Algorithm,
        /// Rank / thread count.
        ranks: usize,
        /// SUMMA grid (when `algorithm == Summa`).
        grid: Option<(usize, usize)>,
        /// Optimization configuration for the 2D paths.
        config: TcConfig,
        /// Generator seed for preset inputs.
        seed: u64,
        /// Also print clustering statistics.
        stats: bool,
        /// When set, record a per-rank execution trace and write it to
        /// this path as Chrome trace-event JSON.
        trace: Option<PathBuf>,
        /// When set, record a per-rank metrics snapshot and write it
        /// to this path as schema-versioned JSON (also embedded in the
        /// trace export when `--trace` is given too).
        metrics: Option<PathBuf>,
        /// When set, run over a deliberately slow fabric: a
        /// [`tc_mps::FaultPlan`] with this seed delays sends on every
        /// link. The count must still be exact.
        chaos: Option<u64>,
    },
    /// Run as one rank of a multi-process socket universe.
    ServeRank {
        /// Where the graph comes from (must be identical across all
        /// participating processes).
        input: Input,
        /// This process's rank; `None` falls back to `MPS_FABRIC_RANK`.
        rank: Option<usize>,
        /// Comma-separated endpoint list, one per rank in rank order;
        /// `None` falls back to `MPS_FABRIC_PEERS`.
        peers: Option<String>,
        /// Launch epoch for the handshake; `None` falls back to
        /// `MPS_FABRIC_EPOCH` (default 0).
        epoch: Option<u64>,
        /// Algorithm selection (only `2d` and `summa` are distributed
        /// over sockets).
        algorithm: Algorithm,
        /// SUMMA grid (when `algorithm == Summa`).
        grid: Option<(usize, usize)>,
        /// Optimization configuration.
        config: TcConfig,
        /// Generator seed for preset inputs.
        seed: u64,
        /// Chaos seed: this process's sends are delayed by a seeded
        /// [`tc_mps::FaultPlan`].
        chaos: Option<u64>,
        /// When set, write this rank's metrics snapshot here.
        metrics: Option<PathBuf>,
        /// When set, record this rank's execution trace (including the
        /// fabric connect/handshake spans) as Chrome trace-event JSON.
        trace: Option<PathBuf>,
    },
    /// Run the always-on analytics service (`tc-serve`).
    Serve {
        /// Where the graph comes from.
        input: Input,
        /// Unix-socket path the rank-0 frontend listens on.
        listen: PathBuf,
        /// In-process rank count (local mode; ignored when this
        /// process is one rank of a socket fleet).
        ranks: usize,
        /// This process's rank in a socket fleet; `None` (with no
        /// `MPS_FABRIC_*` environment) means local mode.
        rank: Option<usize>,
        /// Comma-separated endpoint list for the socket fleet.
        peers: Option<String>,
        /// Launch epoch for the socket handshake.
        epoch: Option<u64>,
        /// Cold-start/oracle kernel (only `2d` and `summa` serve).
        algorithm: Algorithm,
        /// SUMMA grid (when `algorithm == Summa`).
        grid: Option<(usize, usize)>,
        /// Kernel tunables for cold start and recounts.
        config: TcConfig,
        /// Generator seed for preset inputs.
        seed: u64,
        /// Chaos seed: a deterministic uniform fault plan on every
        /// link — the service must stay exact regardless.
        chaos: Option<u64>,
        /// When set, write the final metrics snapshot here on exit.
        metrics: Option<PathBuf>,
        /// When set, rank 0 appends one `tc-run-v2` record here on
        /// exit, distilled from the service-lifetime metrics session.
        json: Option<PathBuf>,
        /// Coalescing flush interval override (`MPS_SERVE_FLUSH_MS`).
        flush_ms: Option<u64>,
        /// Batch-size flush threshold override (`MPS_SERVE_MAX_BATCH`).
        max_batch: Option<usize>,
        /// Admission-queue capacity override (`MPS_SERVE_QUEUE`).
        queue: Option<usize>,
        /// Idle heartbeat interval override (`MPS_SERVE_TICK_MS`).
        tick_ms: Option<u64>,
        /// When set, run crash-recoverable: rank-local checkpoints +
        /// WAL under this directory, epoch rejoin after peer crashes,
        /// degraded-mode serving on rank 0. Requires socket mode.
        state_dir: Option<PathBuf>,
    },
    /// Supervise a crash-recoverable multi-process serve fleet.
    Supervise {
        /// The graph argument, passed through verbatim to each rank's
        /// `serve` child process.
        input: String,
        /// Unix-socket path the rank-0 frontend listens on.
        listen: PathBuf,
        /// Fleet state directory (epoch file, per-rank durability,
        /// logs, pid files). Fabric endpoints live here too.
        state_dir: PathBuf,
        /// Fleet size.
        ranks: usize,
        /// Total crash budget before the fleet is declared dead.
        max_restarts: u32,
        /// Base of the exponential respawn backoff, in ms.
        backoff_ms: u64,
        /// Extra flags after `--`, passed through to every rank's
        /// `serve` command (e.g. `--algorithm summa --seed 7`).
        passthrough: Vec<String>,
    },
    /// Send one request to a running service and print the reply.
    Query {
        /// The service's listen socket.
        socket: PathBuf,
        /// The serialized request line to send.
        request: String,
        /// How long to retry connecting while the service cold-starts.
        timeout_ms: u64,
    },
    /// Generate a preset and write it to a file.
    Generate {
        /// The preset to build.
        preset: Preset,
        /// Generator seed.
        seed: u64,
        /// Output path (.bin or text by extension).
        output: PathBuf,
    },
    /// Print basic facts about a graph.
    Info {
        /// Where the graph comes from.
        input: Input,
    },
    /// k-truss decomposition (distributed peeling).
    Truss {
        /// Where the graph comes from.
        input: Input,
        /// Rank count.
        ranks: usize,
        /// Generator seed for preset inputs.
        seed: u64,
    },
    /// Validate a Chrome trace-event file produced by `--trace` and
    /// print a summary of its lanes and spans.
    TraceCheck {
        /// The trace file to check.
        file: PathBuf,
    },
    /// Compare bench JSON-lines reports and fail on any drift in a
    /// deterministic value (passthrough to `tc_metrics::diff::cli_main`).
    BenchDiff {
        /// Raw arguments forwarded to the diff driver.
        args: Vec<String>,
    },
    /// Print usage.
    Help,
}

/// Usage text.
pub const USAGE: &str = "\
tricount — distributed-memory triangle counting (Tom & Karypis, ICPP 2019)

USAGE:
  tricount count  <FILE|PRESET> [--algorithm 2d|summa|serial|shared|aop|push|psp|wedge]
                  [--ranks N] [--grid RxC] [--seed S] [--stats]
                  [--enumeration jik|ijk] [--no-doubly-sparse] [--no-direct-hash]
                  [--no-early-break] [--no-overlap] [--kernel auto|hash]
                  [--trace FILE] [--metrics FILE] [--chaos SEED]
  tricount serve-rank <FILE|PRESET> [--rank N --peers EP0,EP1,...] [--epoch E]
                  [--algorithm 2d|summa] [--grid RxC] [--seed S] [--chaos SEED]
                  [--metrics FILE] [--trace FILE] [--enumeration jik|ijk]
                  [--no-doubly-sparse] [--no-direct-hash] [--no-early-break]
                  [--no-overlap] [--kernel auto|hash]
  tricount serve  <FILE|PRESET> --listen SOCK [--ranks N] [--rank N --peers EP0,...]
                  [--epoch E] [--state-dir DIR] [--algorithm 2d|summa] [--grid RxC]
                  [--seed S] [--chaos SEED] [--metrics FILE] [--json FILE]
                  [--flush-ms MS] [--max-batch N] [--queue N] [--tick-ms MS]
                  [--enumeration jik|ijk] [--no-doubly-sparse] [--no-direct-hash]
                  [--no-early-break] [--no-overlap] [--kernel auto|hash]
  tricount supervise <FILE|PRESET> --listen SOCK --state-dir DIR [--ranks N]
                  [--max-restarts N] [--backoff-ms MS] [-- SERVE-FLAGS...]
  tricount query  <SOCK> count|stats|metrics|flush|shutdown [--timeout-ms MS]
  tricount query  <SOCK> support <U> <V> | truss <K> [--timeout-ms MS]
  tricount query  <SOCK> update [--insert U:V,...] [--delete U:V,...]
  tricount query  <SOCK> raw '<JSON LINE>'
  tricount generate <PRESET> --out FILE [--seed S]
  tricount info   <FILE|PRESET>
  tricount truss  <FILE|PRESET> [--ranks N] [--seed S]
  tricount tracecheck <FILE>
  tricount benchdiff <BASELINE.json> <CANDIDATE.json>... [--refresh COUNTER,...]
  tricount help

PRESETs: g500-sN, twitter-like-N, friendster-like-N (N = log2 vertices).
FILE formats: .mtx (Matrix Market), .bin (tricount binary), other (text edge list).
--trace FILE records one lane per rank (phases, shifts, collectives) as
Chrome trace-event JSON; open in Perfetto (ui.perfetto.dev) or
chrome://tracing, or inspect with `tricount tracecheck FILE`.
--metrics FILE writes the per-rank tc-metrics snapshot (counters, gauges,
histograms) as schema-versioned JSON; with --trace it is also embedded in
the trace document under \"tcMetrics\".
--kernel picks the per-shift intersection kernel of the 2D/SUMMA count.
Both offer every hash row to the paper's collision-free direct map; auto
(default) builds a row whose direct attempt collides into a packed bit
row and probes it eight keys at a time where AVX2 exists, hash re-inserts
it with linear probing — the paper's kernel in full, whose probe counts
Tables 2-4 report. Counts, per-edge supports and every deterministic
counter but tct.probes and tct.kernel.* are identical under both. The
TC_KERNEL environment variable supplies the default (strict parse: an
invalid value aborts at startup, like the MPS_* family); an explicit
--kernel flag wins over it.
--chaos SEED runs the distributed algorithms with seeded, deterministic
sender-side delays on every link; the count must not change. The
MPS_CHAOS_* environment family configures finer-grained plans (delay
probability and bound, a link list, a process crash point).
serve-rank runs this process as ONE rank of a multi-process universe
over Unix-domain or TCP sockets: every rank is its own OS process,
started with the same input and flags (a .bin input must be canonical:
each process reads only its own slice). Endpoints are Unix socket paths
(contain '/' or use a 'unix:' prefix) or TCP host:port pairs; rank r
listens on the r-th entry. --rank/--peers/--epoch fall back to the
MPS_FABRIC_RANK / MPS_FABRIC_PEERS / MPS_FABRIC_EPOCH environment
variables. Every payload crosses as a sequenced, CRC32c-checked frame; a
gap or a damaged frame ends the run with an error.
serve keeps a rank fleet alive behind a Unix-socket frontend: load the
graph once, count it cold with the 2D kernel, then answer count /
support / truss / stats / metrics queries and absorb insert/delete
batches incrementally (touched-neighborhood intersections only — never
a hot-path recount). Without --rank/--peers (and with no MPS_FABRIC_*
environment) the fleet is --ranks in-process threads; otherwise this
process is ONE rank of a multi-process socket fleet and only rank 0
binds --listen. The MPS_SERVE_{FLUSH_MS,MAX_BATCH,QUEUE,TICK_MS}
environment family seeds the knobs; explicit flags win. With --json,
rank 0 appends one tc-run-v2 record at shutdown (the sustained-workload
analogue of the bench binaries' reports — serve.* counters nonzero,
full_recounts pinned at the cold start).
serve --state-dir DIR makes a socket fleet crash-recoverable: each rank
checkpoints its adjacency block (CRC-checked snapshots, two generations
kept) and write-ahead-logs every committed batch under DIR/rank-N; after
a crash the respawned rank restores checkpoint + WAL, laggards are
bridged from a peer's WAL tail, and an edge-set fingerprint allreduce
verifies the rejoin before serving resumes. While a peer is down rank 0
keeps answering: reads of clean state succeed, writes queue in a bounded
buffer, everything else gets a typed {\"error\":\"degraded\"} reply with a
retry_after_ms hint — never a hang. MPS_SERVE_CKPT_EVERY and
MPS_SERVE_REJOIN_WAIT_MS tune the cadence and the rejoin deadline.
supervise runs that fleet for you: it spawns one serve process per rank
(endpoints DIR/fab-N.sock, logs DIR/rank-N.log, pids DIR/rank-N.pid),
watches them, and respawns any crashed non-zero rank at a bumped epoch
with exponential backoff, up to --max-restarts total crashes before
declaring the fleet dead with a loud nonzero exit. Flags after -- pass
through to every rank's serve command.
query speaks the service's line-delimited JSON protocol: it prints the
raw reply line and exits 0 when the reply says ok, 4 when the service
is degraded (a rank is down; retry after the hinted delay), and 1 on
any other error reply (e.g. the typed over_capacity admission
rejection).
benchdiff compares tc-run-v2 reports produced by the bench binaries'
--json flag: triangle counts and deterministic counters must be exact.
The timings in a report are carried, not judged (wall time is judged by
benchmark/run.sh on alternating pairs). --refresh rewrites exactly the
named counters of the baseline to the candidate's values and refuses if
any other deterministic value differs. Exit 0 = pass, 1 = drift,
2 = usage/parse error.

EXIT CODES: 0 success, 1 runtime failure, 2 usage/parse error,
3 invalid input graph (truncated/corrupt/out-of-range), 4 degraded
service reply (query only; retry after the hinted delay).
";

/// Parses a `U:V,U:V,...` edge list (the `query update` wire form).
fn parse_edge_csv(s: &str) -> Result<Vec<(u32, u32)>, String> {
    s.split(',')
        .filter(|t| !t.trim().is_empty())
        .map(|t| {
            let (u, v) =
                t.trim().split_once(':').ok_or(format!("edge {t:?} must look like U:V"))?;
            Ok((
                u.parse().map_err(|e| format!("bad vertex in {t:?}: {e}"))?,
                v.parse().map_err(|e| format!("bad vertex in {t:?}: {e}"))?,
            ))
        })
        .collect()
}

fn parse_input(s: &str) -> Result<Input, String> {
    Ok(match Preset::lookup(s)? {
        Some(p) => Input::Preset(p),
        None => Input::File(PathBuf::from(s)),
    })
}

/// Parses an argument vector (without the program name), with an
/// environment-supplied kernel-strategy default (`TC_KERNEL`, resolved
/// by the caller so parsing stays pure): it seeds the config of the
/// counting commands, and an explicit `--kernel` flag overrides it.
pub fn parse_with_env(
    args: &[String],
    env_kernel: Option<KernelStrategy>,
) -> Result<Command, String> {
    // `--help` or `-h` anywhere asks for the usage, whatever else the
    // line holds: no flag parser below may read it as a value.
    if args.iter().any(|a| a == "--help" || a == "-h") {
        return Ok(Command::Help);
    }
    let mut it = args.iter();
    let cmd = match it.next() {
        None => return Ok(Command::Help),
        Some(c) => c.as_str(),
    };
    match cmd {
        "help" => Ok(Command::Help),
        "info" => {
            let input = it.next().ok_or("info needs an input")?;
            Ok(Command::Info { input: parse_input(input)? })
        }
        "truss" => {
            let input = parse_input(it.next().ok_or("truss needs an input")?)?;
            let mut ranks = 4usize;
            let mut seed = tc_gen::DEFAULT_SEED;
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--ranks" => {
                        ranks = it
                            .next()
                            .ok_or("--ranks needs a value")?
                            .parse()
                            .map_err(|e| format!("bad ranks: {e}"))?;
                    }
                    "--seed" => {
                        seed = it
                            .next()
                            .ok_or("--seed needs a value")?
                            .parse()
                            .map_err(|e| format!("bad seed: {e}"))?;
                    }
                    other => return Err(format!("unknown flag {other:?}")),
                }
            }
            Ok(Command::Truss { input, ranks, seed })
        }
        "benchdiff" => Ok(Command::BenchDiff { args: it.cloned().collect() }),
        "serve-rank" => {
            let input = parse_input(it.next().ok_or("serve-rank needs an input")?)?;
            let mut rank = None;
            let mut peers = None;
            let mut epoch = None;
            let mut algorithm = Algorithm::TwoD;
            let mut grid = None;
            let mut config = TcConfig::default();
            if let Some(k) = env_kernel {
                config.kernel = k;
            }
            let mut seed = tc_gen::DEFAULT_SEED;
            let mut chaos = None;
            let mut metrics = None;
            let mut trace = None;
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--rank" => {
                        rank = Some(
                            it.next()
                                .ok_or("--rank needs a value")?
                                .parse()
                                .map_err(|e| format!("bad rank: {e}"))?,
                        );
                    }
                    "--peers" => peers = Some(it.next().ok_or("--peers needs a list")?.clone()),
                    "--epoch" => {
                        epoch = Some(
                            it.next()
                                .ok_or("--epoch needs a value")?
                                .parse()
                                .map_err(|e| format!("bad epoch: {e}"))?,
                        );
                    }
                    "--algorithm" => {
                        algorithm =
                            Algorithm::parse(it.next().ok_or("--algorithm needs a value")?)?;
                    }
                    "--grid" => {
                        let v = it.next().ok_or("--grid needs RxC")?;
                        let (r, c) = v.split_once('x').ok_or("grid must look like 3x4")?;
                        grid = Some((
                            r.parse().map_err(|e| format!("bad grid rows: {e}"))?,
                            c.parse().map_err(|e| format!("bad grid cols: {e}"))?,
                        ));
                    }
                    "--seed" => {
                        seed = it
                            .next()
                            .ok_or("--seed needs a value")?
                            .parse()
                            .map_err(|e| format!("bad seed: {e}"))?;
                    }
                    "--chaos" => {
                        chaos = Some(
                            it.next()
                                .ok_or("--chaos needs a seed")?
                                .parse()
                                .map_err(|e| format!("bad chaos seed: {e}"))?,
                        );
                    }
                    "--metrics" => {
                        metrics = Some(PathBuf::from(it.next().ok_or("--metrics needs a path")?))
                    }
                    "--trace" => {
                        trace = Some(PathBuf::from(it.next().ok_or("--trace needs a path")?))
                    }
                    "--enumeration" => {
                        config.enumeration =
                            match it.next().ok_or("--enumeration needs a value")?.as_str() {
                                "jik" => Enumeration::Jik,
                                "ijk" => Enumeration::Ijk,
                                other => return Err(format!("unknown enumeration {other:?}")),
                            };
                    }
                    "--no-doubly-sparse" => config.doubly_sparse = false,
                    "--no-direct-hash" => config.direct_hash = false,
                    "--no-early-break" => config.reverse_early_break = false,
                    "--no-overlap" => config.overlap_shifts = false,
                    "--kernel" => {
                        config.kernel =
                            it.next().ok_or("--kernel needs a value (auto|hash)")?.parse()?;
                    }
                    other => return Err(format!("unknown flag {other:?}")),
                }
            }
            if rank.is_some() != peers.is_some() {
                return Err("serve-rank needs both --rank and --peers (or neither, with the \
                            MPS_FABRIC_* environment set)"
                    .into());
            }
            if !matches!(algorithm, Algorithm::TwoD | Algorithm::Summa) {
                return Err("serve-rank supports only the socket-distributed algorithms \
                            (2d, summa)"
                    .into());
            }
            Ok(Command::ServeRank {
                input,
                rank,
                peers,
                epoch,
                algorithm,
                grid,
                config,
                seed,
                chaos,
                metrics,
                trace,
            })
        }
        "serve" => {
            let input = parse_input(it.next().ok_or("serve needs an input")?)?;
            let mut listen = None;
            let mut ranks = 4usize;
            let mut rank = None;
            let mut peers = None;
            let mut epoch = None;
            let mut algorithm = Algorithm::TwoD;
            let mut grid = None;
            let mut config = TcConfig::default();
            if let Some(k) = env_kernel {
                config.kernel = k;
            }
            let mut seed = tc_gen::DEFAULT_SEED;
            let mut chaos = None;
            let mut metrics = None;
            let mut json = None;
            let mut flush_ms = None;
            let mut max_batch = None;
            let mut queue = None;
            let mut tick_ms = None;
            let mut state_dir = None;
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--listen" => {
                        listen = Some(PathBuf::from(it.next().ok_or("--listen needs a path")?))
                    }
                    "--state-dir" => {
                        state_dir =
                            Some(PathBuf::from(it.next().ok_or("--state-dir needs a path")?))
                    }
                    "--ranks" => {
                        ranks = it
                            .next()
                            .ok_or("--ranks needs a value")?
                            .parse()
                            .map_err(|e| format!("bad ranks: {e}"))?;
                    }
                    "--rank" => {
                        rank = Some(
                            it.next()
                                .ok_or("--rank needs a value")?
                                .parse()
                                .map_err(|e| format!("bad rank: {e}"))?,
                        );
                    }
                    "--peers" => peers = Some(it.next().ok_or("--peers needs a list")?.clone()),
                    "--epoch" => {
                        epoch = Some(
                            it.next()
                                .ok_or("--epoch needs a value")?
                                .parse()
                                .map_err(|e| format!("bad epoch: {e}"))?,
                        );
                    }
                    "--algorithm" => {
                        algorithm =
                            Algorithm::parse(it.next().ok_or("--algorithm needs a value")?)?;
                    }
                    "--grid" => {
                        let v = it.next().ok_or("--grid needs RxC")?;
                        let (r, c) = v.split_once('x').ok_or("grid must look like 3x4")?;
                        grid = Some((
                            r.parse().map_err(|e| format!("bad grid rows: {e}"))?,
                            c.parse().map_err(|e| format!("bad grid cols: {e}"))?,
                        ));
                    }
                    "--seed" => {
                        seed = it
                            .next()
                            .ok_or("--seed needs a value")?
                            .parse()
                            .map_err(|e| format!("bad seed: {e}"))?;
                    }
                    "--chaos" => {
                        chaos = Some(
                            it.next()
                                .ok_or("--chaos needs a seed")?
                                .parse()
                                .map_err(|e| format!("bad chaos seed: {e}"))?,
                        );
                    }
                    "--metrics" => {
                        metrics = Some(PathBuf::from(it.next().ok_or("--metrics needs a path")?))
                    }
                    "--json" => json = Some(PathBuf::from(it.next().ok_or("--json needs a path")?)),
                    "--flush-ms" => {
                        flush_ms = Some(
                            it.next()
                                .ok_or("--flush-ms needs a value")?
                                .parse()
                                .map_err(|e| format!("bad flush interval: {e}"))?,
                        );
                    }
                    "--max-batch" => {
                        max_batch = Some(
                            it.next()
                                .ok_or("--max-batch needs a value")?
                                .parse()
                                .map_err(|e| format!("bad batch threshold: {e}"))?,
                        );
                    }
                    "--queue" => {
                        queue = Some(
                            it.next()
                                .ok_or("--queue needs a value")?
                                .parse()
                                .map_err(|e| format!("bad queue capacity: {e}"))?,
                        );
                    }
                    "--tick-ms" => {
                        tick_ms = Some(
                            it.next()
                                .ok_or("--tick-ms needs a value")?
                                .parse()
                                .map_err(|e| format!("bad tick interval: {e}"))?,
                        );
                    }
                    "--enumeration" => {
                        config.enumeration =
                            match it.next().ok_or("--enumeration needs a value")?.as_str() {
                                "jik" => Enumeration::Jik,
                                "ijk" => Enumeration::Ijk,
                                other => return Err(format!("unknown enumeration {other:?}")),
                            };
                    }
                    "--no-doubly-sparse" => config.doubly_sparse = false,
                    "--no-direct-hash" => config.direct_hash = false,
                    "--no-early-break" => config.reverse_early_break = false,
                    "--no-overlap" => config.overlap_shifts = false,
                    "--kernel" => {
                        config.kernel =
                            it.next().ok_or("--kernel needs a value (auto|hash)")?.parse()?;
                    }
                    other => return Err(format!("unknown flag {other:?}")),
                }
            }
            if rank.is_some() != peers.is_some() {
                return Err("serve needs both --rank and --peers for socket mode (or \
                            neither, with the MPS_FABRIC_* environment or local --ranks)"
                    .into());
            }
            if !matches!(algorithm, Algorithm::TwoD | Algorithm::Summa) {
                return Err("serve supports only the fleet algorithms (2d, summa)".into());
            }
            Ok(Command::Serve {
                input,
                listen: listen.ok_or("serve requires --listen SOCK")?,
                ranks,
                rank,
                peers,
                epoch,
                algorithm,
                grid,
                config,
                seed,
                chaos,
                metrics,
                json,
                flush_ms,
                max_batch,
                queue,
                tick_ms,
                state_dir,
            })
        }
        "supervise" => {
            let input = it.next().ok_or("supervise needs an input")?.clone();
            let mut listen = None;
            let mut state_dir = None;
            let mut ranks = 4usize;
            let mut max_restarts = 8u32;
            let mut backoff_ms = 100u64;
            let mut passthrough = Vec::new();
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--listen" => {
                        listen = Some(PathBuf::from(it.next().ok_or("--listen needs a path")?))
                    }
                    "--state-dir" => {
                        state_dir =
                            Some(PathBuf::from(it.next().ok_or("--state-dir needs a path")?))
                    }
                    "--ranks" => {
                        ranks = it
                            .next()
                            .ok_or("--ranks needs a value")?
                            .parse()
                            .map_err(|e| format!("bad ranks: {e}"))?;
                    }
                    "--max-restarts" => {
                        max_restarts = it
                            .next()
                            .ok_or("--max-restarts needs a value")?
                            .parse()
                            .map_err(|e| format!("bad restart budget: {e}"))?;
                    }
                    "--backoff-ms" => {
                        backoff_ms = it
                            .next()
                            .ok_or("--backoff-ms needs a value")?
                            .parse()
                            .map_err(|e| format!("bad backoff: {e}"))?;
                    }
                    "--" => {
                        passthrough = it.cloned().collect();
                        break;
                    }
                    other => return Err(format!("unknown flag {other:?}")),
                }
            }
            if ranks == 0 {
                return Err("supervise needs at least one rank".into());
            }
            Ok(Command::Supervise {
                input,
                listen: listen.ok_or("supervise requires --listen SOCK")?,
                state_dir: state_dir.ok_or("supervise requires --state-dir DIR")?,
                ranks,
                max_restarts,
                backoff_ms,
                passthrough,
            })
        }
        "query" => {
            let socket = PathBuf::from(it.next().ok_or("query needs a socket path")?);
            let op = it
                .next()
                .ok_or(
                    "query needs an operation: count|support|truss|stats|metrics|\
                     update|flush|shutdown|raw",
                )?
                .as_str();
            use tc_serve::proto::{request_line, Request};
            let mut request = match op {
                "count" => request_line(&Request::Count),
                "stats" => request_line(&Request::Stats),
                "metrics" => request_line(&Request::Metrics),
                "flush" => request_line(&Request::Flush),
                "shutdown" => request_line(&Request::Shutdown),
                "support" => {
                    let u = it
                        .next()
                        .ok_or("query support needs <U> <V>")?
                        .parse()
                        .map_err(|e| format!("bad vertex <U>: {e}"))?;
                    let v = it
                        .next()
                        .ok_or("query support needs <U> <V>")?
                        .parse()
                        .map_err(|e| format!("bad vertex <V>: {e}"))?;
                    request_line(&Request::Support { u, v })
                }
                "truss" => {
                    let k = it
                        .next()
                        .ok_or("query truss needs <K>")?
                        .parse()
                        .map_err(|e| format!("bad truss <K>: {e}"))?;
                    request_line(&Request::Truss { k })
                }
                "update" => String::new(), // built from --insert/--delete below
                "raw" => it.next().ok_or("query raw needs a JSON line")?.clone(),
                other => return Err(format!("unknown query operation {other:?}")),
            };
            let mut timeout_ms = 10_000u64;
            let mut insert = Vec::new();
            let mut delete = Vec::new();
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--timeout-ms" => {
                        timeout_ms = it
                            .next()
                            .ok_or("--timeout-ms needs a value")?
                            .parse()
                            .map_err(|e| format!("bad timeout: {e}"))?;
                    }
                    "--insert" if op == "update" => {
                        insert.extend(parse_edge_csv(it.next().ok_or("--insert needs U:V,...")?)?)
                    }
                    "--delete" if op == "update" => {
                        delete.extend(parse_edge_csv(it.next().ok_or("--delete needs U:V,...")?)?)
                    }
                    other => return Err(format!("unknown flag {other:?}")),
                }
            }
            if op == "update" {
                if insert.is_empty() && delete.is_empty() {
                    return Err("query update needs --insert and/or --delete edges".into());
                }
                request = request_line(&Request::Update { insert, delete });
            }
            Ok(Command::Query { socket, request, timeout_ms })
        }
        "tracecheck" => {
            let file = PathBuf::from(it.next().ok_or("tracecheck needs a trace file")?);
            if let Some(extra) = it.next() {
                return Err(format!("unexpected argument {extra:?}"));
            }
            Ok(Command::TraceCheck { file })
        }
        "generate" => {
            let name = it.next().ok_or("generate needs a preset")?;
            let preset = Preset::lookup(name)?.ok_or_else(|| format!("unknown preset {name:?}"))?;
            let mut seed = tc_gen::DEFAULT_SEED;
            let mut output = None;
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--seed" => {
                        seed = it
                            .next()
                            .ok_or("--seed needs a value")?
                            .parse()
                            .map_err(|e| format!("bad seed: {e}"))?;
                    }
                    "--out" => output = Some(PathBuf::from(it.next().ok_or("--out needs a path")?)),
                    other => return Err(format!("unknown flag {other:?}")),
                }
            }
            Ok(Command::Generate {
                preset,
                seed,
                output: output.ok_or("generate requires --out FILE")?,
            })
        }
        "count" => {
            let input = parse_input(it.next().ok_or("count needs an input")?)?;
            let mut algorithm = Algorithm::TwoD;
            let mut ranks = 4usize;
            let mut grid = None;
            let mut config = TcConfig::default();
            if let Some(k) = env_kernel {
                config.kernel = k;
            }
            let mut seed = tc_gen::DEFAULT_SEED;
            let mut stats = false;
            let mut trace = None;
            let mut metrics = None;
            let mut chaos = None;
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--algorithm" => {
                        algorithm =
                            Algorithm::parse(it.next().ok_or("--algorithm needs a value")?)?;
                    }
                    "--ranks" => {
                        ranks = it
                            .next()
                            .ok_or("--ranks needs a value")?
                            .parse()
                            .map_err(|e| format!("bad ranks: {e}"))?;
                    }
                    "--grid" => {
                        let v = it.next().ok_or("--grid needs RxC")?;
                        let (r, c) = v.split_once('x').ok_or("grid must look like 3x4")?;
                        grid = Some((
                            r.parse().map_err(|e| format!("bad grid rows: {e}"))?,
                            c.parse().map_err(|e| format!("bad grid cols: {e}"))?,
                        ));
                    }
                    "--seed" => {
                        seed = it
                            .next()
                            .ok_or("--seed needs a value")?
                            .parse()
                            .map_err(|e| format!("bad seed: {e}"))?;
                    }
                    "--enumeration" => {
                        config.enumeration =
                            match it.next().ok_or("--enumeration needs a value")?.as_str() {
                                "jik" => Enumeration::Jik,
                                "ijk" => Enumeration::Ijk,
                                other => return Err(format!("unknown enumeration {other:?}")),
                            };
                    }
                    "--no-doubly-sparse" => config.doubly_sparse = false,
                    "--no-direct-hash" => config.direct_hash = false,
                    "--no-early-break" => config.reverse_early_break = false,
                    "--no-overlap" => config.overlap_shifts = false,
                    "--kernel" => {
                        config.kernel =
                            it.next().ok_or("--kernel needs a value (auto|hash)")?.parse()?;
                    }
                    "--stats" => stats = true,
                    "--trace" => {
                        trace = Some(PathBuf::from(it.next().ok_or("--trace needs a path")?))
                    }
                    "--metrics" => {
                        metrics = Some(PathBuf::from(it.next().ok_or("--metrics needs a path")?))
                    }
                    "--chaos" => {
                        chaos = Some(
                            it.next()
                                .ok_or("--chaos needs a seed")?
                                .parse()
                                .map_err(|e| format!("bad chaos seed: {e}"))?,
                        )
                    }
                    other => return Err(format!("unknown flag {other:?}")),
                }
            }
            if algorithm == Algorithm::TwoD && tc_mps::perfect_square_side(ranks).is_none() {
                return Err(format!(
                    "the 2d algorithm needs a perfect-square rank count, got {ranks} \
                     (use --algorithm summa --grid RxC for rectangles)"
                ));
            }
            if algorithm == Algorithm::Summa && grid.is_none() {
                let g = SummaGrid::near_square(ranks);
                grid = Some((g.pr, g.pc));
            }
            if trace.is_some() && matches!(algorithm, Algorithm::Serial | Algorithm::Shared) {
                return Err(
                    "--trace needs a distributed algorithm (2d, summa, aop, push, psp, wedge)"
                        .into(),
                );
            }
            if metrics.is_some() && matches!(algorithm, Algorithm::Serial | Algorithm::Shared) {
                return Err(
                    "--metrics needs a distributed algorithm (2d, summa, aop, push, psp, wedge)"
                        .into(),
                );
            }
            if chaos.is_some() && matches!(algorithm, Algorithm::Serial | Algorithm::Shared) {
                return Err(
                    "--chaos needs a distributed algorithm (2d, summa, aop, push, psp, wedge)"
                        .into(),
                );
            }
            Ok(Command::Count {
                input,
                algorithm,
                ranks,
                grid,
                config,
                seed,
                stats,
                trace,
                metrics,
                chaos,
            })
        }
        other => Err(format!("unknown command {other:?}")),
    }
}

/// Builds a [`SummaGrid`] from the parsed pair.
pub fn summa_grid(grid: (usize, usize)) -> SummaGrid {
    SummaGrid::new(grid.0, grid.1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(args: &[&str]) -> Result<Command, String> {
        parse_with_env(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>(), None)
    }

    #[test]
    fn empty_is_help() {
        assert_eq!(p(&[]).unwrap(), Command::Help);
        assert_eq!(p(&["help"]).unwrap(), Command::Help);
    }

    #[test]
    fn count_defaults() {
        match p(&["count", "g500-s10"]).unwrap() {
            Command::Count { input, algorithm, ranks, config, stats, .. } => {
                assert_eq!(input, Input::Preset(Preset::G500 { scale: 10 }));
                assert_eq!(algorithm, Algorithm::TwoD);
                assert_eq!(ranks, 4);
                assert_eq!(config, TcConfig::default());
                assert!(!stats);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn count_full_flags() {
        match p(&[
            "count",
            "graph.mtx",
            "--algorithm",
            "summa",
            "--grid",
            "2x3",
            "--seed",
            "9",
            "--no-direct-hash",
            "--no-overlap",
            "--enumeration",
            "ijk",
            "--stats",
        ])
        .unwrap()
        {
            Command::Count { input, algorithm, grid, config, seed, stats, .. } => {
                assert_eq!(input, Input::File(PathBuf::from("graph.mtx")));
                assert_eq!(algorithm, Algorithm::Summa);
                assert_eq!(grid, Some((2, 3)));
                assert!(!config.direct_hash);
                assert!(!config.overlap_shifts);
                assert_eq!(config.enumeration, Enumeration::Ijk);
                assert_eq!(seed, 9);
                assert!(stats);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn summa_grid_derived_from_ranks() {
        match p(&["count", "g500-s8", "--algorithm", "summa", "--ranks", "12"]).unwrap() {
            Command::Count { grid, .. } => assert_eq!(grid, Some((3, 4))),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn rejects_non_square_2d() {
        assert!(p(&["count", "g500-s8", "--ranks", "6"]).is_err());
    }

    #[test]
    fn generate_requires_out() {
        assert!(p(&["generate", "g500-s8"]).is_err());
        match p(&["generate", "g500-s8", "--out", "/tmp/x.bin", "--seed", "3"]).unwrap() {
            Command::Generate { preset, seed, output } => {
                assert_eq!(preset, Preset::G500 { scale: 8 });
                assert_eq!(seed, 3);
                assert_eq!(output, PathBuf::from("/tmp/x.bin"));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn truss_parses() {
        match p(&["truss", "g500-s8", "--ranks", "3"]).unwrap() {
            Command::Truss { ranks, .. } => assert_eq!(ranks, 3),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn trace_flag_parses_and_rejects_local_algorithms() {
        match p(&["count", "g500-s8", "--trace", "/tmp/t.json"]).unwrap() {
            Command::Count { trace, .. } => {
                assert_eq!(trace, Some(PathBuf::from("/tmp/t.json")))
            }
            other => panic!("{other:?}"),
        }
        assert!(p(&["count", "g500-s8", "--algorithm", "serial", "--trace", "t.json"]).is_err());
        assert!(p(&["count", "g500-s8", "--trace"]).is_err());
    }

    #[test]
    fn metrics_flag_parses_and_rejects_local_algorithms() {
        match p(&["count", "g500-s8", "--metrics", "/tmp/m.json"]).unwrap() {
            Command::Count { metrics, .. } => {
                assert_eq!(metrics, Some(PathBuf::from("/tmp/m.json")))
            }
            other => panic!("{other:?}"),
        }
        assert!(p(&["count", "g500-s8", "--algorithm", "shared", "--metrics", "m.json"]).is_err());
        assert!(p(&["count", "g500-s8", "--metrics"]).is_err());
    }

    #[test]
    fn chaos_flag_parses_and_rejects_local_algorithms() {
        match p(&["count", "g500-s8", "--chaos", "42"]).unwrap() {
            Command::Count { chaos, .. } => assert_eq!(chaos, Some(42)),
            other => panic!("{other:?}"),
        }
        match p(&["count", "g500-s8"]).unwrap() {
            Command::Count { chaos, .. } => assert_eq!(chaos, None),
            other => panic!("{other:?}"),
        }
        assert!(p(&["count", "g500-s8", "--algorithm", "serial", "--chaos", "1"]).is_err());
        assert!(p(&["count", "g500-s8", "--chaos"]).is_err());
        assert!(p(&["count", "g500-s8", "--chaos", "soon"]).is_err());
    }

    #[test]
    fn serve_rank_parses() {
        match p(&[
            "serve-rank",
            "g500-s6",
            "--rank",
            "3",
            "--peers",
            "/tmp/a,/tmp/b,/tmp/c,/tmp/d",
            "--epoch",
            "5",
            "--chaos",
            "42",
            "--trace",
            "/tmp/r3.trace.json",
        ])
        .unwrap()
        {
            Command::ServeRank { rank, peers, epoch, algorithm, chaos, trace, .. } => {
                assert_eq!(rank, Some(3));
                assert_eq!(peers.as_deref(), Some("/tmp/a,/tmp/b,/tmp/c,/tmp/d"));
                assert_eq!(epoch, Some(5));
                assert_eq!(algorithm, Algorithm::TwoD);
                assert_eq!(chaos, Some(42));
                assert_eq!(trace, Some(PathBuf::from("/tmp/r3.trace.json")));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn serve_rank_env_fallback_needs_neither_flag() {
        // Neither --rank nor --peers: deferred to the MPS_FABRIC_* env.
        match p(&["serve-rank", "g500-s6"]).unwrap() {
            Command::ServeRank { rank, peers, .. } => {
                assert_eq!(rank, None);
                assert_eq!(peers, None);
            }
            other => panic!("{other:?}"),
        }
        // One without the other is a usage error.
        assert!(p(&["serve-rank", "g500-s6", "--rank", "0"]).is_err());
        assert!(p(&["serve-rank", "g500-s6", "--peers", "/tmp/a"]).is_err());
    }

    #[test]
    fn serve_rank_rejects_local_algorithms() {
        assert!(p(&["serve-rank", "g500-s6", "--algorithm", "serial"]).is_err());
        assert!(p(&["serve-rank", "g500-s6", "--algorithm", "aop"]).is_err());
        assert!(p(&["serve-rank", "g500-s6", "--algorithm", "summa", "--grid", "2x3"]).is_ok());
    }

    #[test]
    fn serve_parses_full_flags() {
        match p(&[
            "serve",
            "g500-s6",
            "--listen",
            "/tmp/tc.sock",
            "--ranks",
            "9",
            "--flush-ms",
            "20",
            "--max-batch",
            "128",
            "--queue",
            "8",
            "--tick-ms",
            "500",
            "--chaos",
            "7",
            "--metrics",
            "/tmp/m.json",
            "--json",
            "/tmp/r.json",
        ])
        .unwrap()
        {
            Command::Serve {
                listen,
                ranks,
                rank,
                algorithm,
                flush_ms,
                max_batch,
                queue,
                tick_ms,
                chaos,
                metrics,
                json,
                ..
            } => {
                assert_eq!(listen, PathBuf::from("/tmp/tc.sock"));
                assert_eq!(ranks, 9);
                assert_eq!(rank, None);
                assert_eq!(algorithm, Algorithm::TwoD);
                assert_eq!(flush_ms, Some(20));
                assert_eq!(max_batch, Some(128));
                assert_eq!(queue, Some(8));
                assert_eq!(tick_ms, Some(500));
                assert_eq!(chaos, Some(7));
                assert_eq!(metrics, Some(PathBuf::from("/tmp/m.json")));
                assert_eq!(json, Some(PathBuf::from("/tmp/r.json")));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn serve_requires_listen_and_fleet_algorithms() {
        assert!(p(&["serve", "g500-s6"]).is_err());
        assert!(p(&["serve", "g500-s6", "--listen", "/tmp/a", "--algorithm", "serial"]).is_err());
        assert!(p(&["serve", "g500-s6", "--listen", "/tmp/a", "--rank", "0"]).is_err());
        assert!(p(&[
            "serve",
            "g500-s6",
            "--listen",
            "/tmp/a",
            "--rank",
            "0",
            "--peers",
            "/tmp/p0,/tmp/p1",
        ])
        .is_ok());
    }

    #[test]
    fn serve_state_dir_parses() {
        match p(&["serve", "g500-s6", "--listen", "/tmp/a", "--state-dir", "/tmp/fleet"]).unwrap() {
            Command::Serve { state_dir, .. } => {
                assert_eq!(state_dir, Some(PathBuf::from("/tmp/fleet")))
            }
            other => panic!("{other:?}"),
        }
        match p(&["serve", "g500-s6", "--listen", "/tmp/a"]).unwrap() {
            Command::Serve { state_dir, .. } => assert_eq!(state_dir, None),
            other => panic!("{other:?}"),
        }
        assert!(p(&["serve", "g500-s6", "--listen", "/tmp/a", "--state-dir"]).is_err());
    }

    #[test]
    fn supervise_parses_with_passthrough() {
        match p(&[
            "supervise",
            "g500-s6",
            "--listen",
            "/tmp/tc.sock",
            "--state-dir",
            "/tmp/fleet",
            "--ranks",
            "9",
            "--max-restarts",
            "3",
            "--backoff-ms",
            "50",
            "--",
            "--algorithm",
            "summa",
            "--seed",
            "7",
        ])
        .unwrap()
        {
            Command::Supervise {
                input,
                listen,
                state_dir,
                ranks,
                max_restarts,
                backoff_ms,
                passthrough,
            } => {
                assert_eq!(input, "g500-s6");
                assert_eq!(listen, PathBuf::from("/tmp/tc.sock"));
                assert_eq!(state_dir, PathBuf::from("/tmp/fleet"));
                assert_eq!(ranks, 9);
                assert_eq!(max_restarts, 3);
                assert_eq!(backoff_ms, 50);
                assert_eq!(passthrough, vec!["--algorithm", "summa", "--seed", "7"]);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn supervise_requires_listen_state_dir_and_ranks() {
        assert!(p(&["supervise", "g500-s6", "--state-dir", "/tmp/f"]).is_err());
        assert!(p(&["supervise", "g500-s6", "--listen", "/tmp/a"]).is_err());
        assert!(p(&[
            "supervise",
            "g500-s6",
            "--listen",
            "/tmp/a",
            "--state-dir",
            "/tmp/f",
            "--ranks",
            "0",
        ])
        .is_err());
        // Unknown flags before `--` are rejected; after it they pass.
        assert!(p(&[
            "supervise",
            "g500-s6",
            "--listen",
            "/tmp/a",
            "--state-dir",
            "/tmp/f",
            "--bogus",
        ])
        .is_err());
        assert!(p(&[
            "supervise",
            "g500-s6",
            "--listen",
            "/tmp/a",
            "--state-dir",
            "/tmp/f",
            "--",
            "--bogus",
        ])
        .is_ok());
    }

    #[test]
    fn query_builds_protocol_lines() {
        match p(&["query", "/tmp/tc.sock", "count"]).unwrap() {
            Command::Query { socket, request, timeout_ms } => {
                assert_eq!(socket, PathBuf::from("/tmp/tc.sock"));
                assert_eq!(request, "{\"op\":\"count\"}");
                assert_eq!(timeout_ms, 10_000);
            }
            other => panic!("{other:?}"),
        }
        match p(&["query", "/tmp/tc.sock", "support", "3", "9", "--timeout-ms", "50"]).unwrap() {
            Command::Query { request, timeout_ms, .. } => {
                assert_eq!(request, "{\"op\":\"support\",\"u\":3,\"v\":9}");
                assert_eq!(timeout_ms, 50);
            }
            other => panic!("{other:?}"),
        }
        match p(&["query", "/tmp/tc.sock", "truss", "4"]).unwrap() {
            Command::Query { request, .. } => {
                assert_eq!(request, "{\"op\":\"truss\",\"k\":4}")
            }
            other => panic!("{other:?}"),
        }
        match p(&["query", "/tmp/tc.sock", "update", "--insert", "1:2,3:4", "--delete", "5:6"])
            .unwrap()
        {
            Command::Query { request, .. } => {
                assert_eq!(
                    request,
                    "{\"op\":\"update\",\"insert\":[[1,2],[3,4]],\"delete\":[[5,6]]}"
                )
            }
            other => panic!("{other:?}"),
        }
        match p(&["query", "/tmp/tc.sock", "raw", "{\"op\":\"stats\"}"]).unwrap() {
            Command::Query { request, .. } => assert_eq!(request, "{\"op\":\"stats\"}"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn query_rejects_malformed_invocations() {
        assert!(p(&["query", "/tmp/tc.sock"]).is_err());
        assert!(p(&["query", "/tmp/tc.sock", "warp"]).is_err());
        assert!(p(&["query", "/tmp/tc.sock", "support", "3"]).is_err());
        assert!(p(&["query", "/tmp/tc.sock", "update"]).is_err());
        assert!(p(&["query", "/tmp/tc.sock", "update", "--insert", "1-2"]).is_err());
        // --insert belongs to update only.
        assert!(p(&["query", "/tmp/tc.sock", "count", "--insert", "1:2"]).is_err());
    }

    #[test]
    fn benchdiff_passes_raw_args_through() {
        match p(&["benchdiff", "base.json", "cand.json", "--refresh", "a,b"]).unwrap() {
            Command::BenchDiff { args } => {
                assert_eq!(args, vec!["base.json", "cand.json", "--refresh", "a,b"])
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn tracecheck_parses() {
        match p(&["tracecheck", "run.json"]).unwrap() {
            Command::TraceCheck { file } => assert_eq!(file, PathBuf::from("run.json")),
            other => panic!("{other:?}"),
        }
        assert!(p(&["tracecheck"]).is_err());
        assert!(p(&["tracecheck", "a", "b"]).is_err());
    }

    #[test]
    fn kernel_flag_parses_on_all_counting_commands() {
        match p(&["count", "g500-s8", "--kernel", "hash"]).unwrap() {
            Command::Count { config, .. } => assert_eq!(config.kernel, KernelStrategy::Hash),
            other => panic!("{other:?}"),
        }
        match p(&["serve-rank", "g500-s6", "--kernel", "auto"]).unwrap() {
            Command::ServeRank { config, .. } => assert_eq!(config.kernel, KernelStrategy::Auto),
            other => panic!("{other:?}"),
        }
        match p(&["serve", "g500-s6", "--listen", "/tmp/a", "--kernel", "hash"]).unwrap() {
            Command::Serve { config, .. } => assert_eq!(config.kernel, KernelStrategy::Hash),
            other => panic!("{other:?}"),
        }
        // Default without flag or env: auto.
        match p(&["count", "g500-s8"]).unwrap() {
            Command::Count { config, .. } => assert_eq!(config.kernel, KernelStrategy::Auto),
            other => panic!("{other:?}"),
        }
        assert!(p(&["count", "g500-s8", "--kernel"]).is_err());
        for gone in ["merge", "bitmap", "simd"] {
            assert!(p(&["count", "g500-s8", "--kernel", gone]).is_err(), "{gone}");
        }
        assert!(p(&["count", "g500-s8", "--kernel", "Hash"]).is_err(), "strict: no case folding");
    }

    #[test]
    fn kernel_env_seeds_default_and_flag_wins() {
        let pe = |args: &[&str], env: Option<KernelStrategy>| {
            parse_with_env(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>(), env)
        };
        // Env alone sets the strategy.
        match pe(&["count", "g500-s8"], Some(KernelStrategy::Hash)).unwrap() {
            Command::Count { config, .. } => assert_eq!(config.kernel, KernelStrategy::Hash),
            other => panic!("{other:?}"),
        }
        // An explicit flag overrides the env default.
        match pe(&["count", "g500-s8", "--kernel", "auto"], Some(KernelStrategy::Hash)).unwrap() {
            Command::Count { config, .. } => assert_eq!(config.kernel, KernelStrategy::Auto),
            other => panic!("{other:?}"),
        }
        // The env seed reaches the service commands too.
        match pe(&["serve-rank", "g500-s6"], Some(KernelStrategy::Hash)).unwrap() {
            Command::ServeRank { config, .. } => assert_eq!(config.kernel, KernelStrategy::Hash),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn rejects_unknowns() {
        assert!(p(&["count", "g500-s8", "--bogus"]).is_err());
        assert!(p(&["count", "g500-s8", "--algorithm", "magic"]).is_err());
        assert!(p(&["frobnicate"]).is_err());
        assert!(p(&["generate", "not-a-preset", "--out", "x"]).is_err());
    }
}
