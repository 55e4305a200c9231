//! The five workloads: set-up from the seed, the end-to-end
//! measurement with tracing off, and the oracles every result is held
//! against. Everything here sees the program only as a binary and a
//! socket.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use crate::graph::{self, Adj, Graph};
use crate::proc::{self, Exit, Group};
use crate::report::{Failure, Metric};
use crate::script::{self, Op, Request};
use crate::serve::{self, Client, LoopOutcome};
use crate::stats::{self, Summary};

/// A launch that has not ended after this long is killed and counted
/// as failed.
const LAUNCH_TIMEOUT: Duration = Duration::from_secs(60);
/// The whole run stays inside the contract's 180 s even when launches
/// time out: past this point nothing new is started.
const RUN_BUDGET: Duration = Duration::from_secs(150);
/// Set-up is repeated so that `setup_s` is a median.
const SETUP_REPEATS: usize = 3;
/// Timed launches of a count workload, at least.
const MIN_LAUNCHES: usize = 3;
/// Failed launches after which a count workload stops measuring: two
/// timeouts fit the run's budget, a third would not.
const MAX_FAILED_LAUNCHES: usize = 2;
/// Launch → first `count` reply → `shutdown` cycles of a serve workload.
const COLD_CYCLES: usize = 5;
/// Client connections of the closed loop (the machine has two cores).
pub const CONNECTIONS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `tricount count FILE --ranks P`: ranks are threads.
    Count,
    /// `P × tricount serve-rank FILE`: ranks are processes over Unix sockets.
    Socket,
    /// `tricount serve` under the read script.
    ServeRead,
    /// `tricount serve` under the write script.
    ServeWrite,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub preset: &'static str,
    pub ranks: usize,
    pub kind: Kind,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload { name: "rmat-local", preset: "g500-s18", ranks: 4, kind: Kind::Count },
    Workload { name: "er-wide", preset: "friendster-like-18", ranks: 64, kind: Kind::Count },
    // Sized far below the other workloads: at the seed commit the socket
    // fabric stalls on large frames (see README.md, "rmat-socket").
    Workload { name: "rmat-socket", preset: "g500-s12", ranks: 4, kind: Kind::Socket },
    Workload { name: "serve-read", preset: "g500-s16", ranks: 4, kind: Kind::ServeRead },
    Workload { name: "serve-write", preset: "g500-s16", ranks: 4, kind: Kind::ServeWrite },
];

impl Workload {
    pub fn is_serve(&self) -> bool {
        matches!(self.kind, Kind::ServeRead | Kind::ServeWrite)
    }
}

/// Paths, the time budget, and the failure ledger of one run.
pub struct Ctx {
    pub tricount: PathBuf,
    pub probe: PathBuf,
    /// Scratch directory of this run (graph, sockets, stderr files).
    pub dir: PathBuf,
    pub seed: u64,
    pub seconds: f64,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<Failure>,
    /// Every CPU this process may use: where commands run.
    pub all_cpus: u64,
    /// Where a serve fleet runs, and where its clients run. The load
    /// generator gets the highest CPU to itself and the fleet the rest,
    /// so that the clients' own work and wake-ups neither take the
    /// fleet's cycles nor bounce its threads between cores; with one
    /// CPU both sets are that CPU.
    pub fleet_cpus: u64,
    pub client_cpus: u64,
    run_deadline: Instant,
    next_log: usize,
}

impl Ctx {
    /// `all_cpus` is what [`proc::allowed_cpus`] said when the process
    /// started, before any thread was pinned.
    pub fn new(
        tricount: PathBuf,
        probe: PathBuf,
        dir: PathBuf,
        seed: u64,
        seconds: f64,
        all_cpus: u64,
    ) -> Ctx {
        let (fleet_cpus, client_cpus) = if all_cpus.count_ones() >= 2 {
            let top = 1u64 << (63 - all_cpus.leading_zeros());
            (all_cpus & !top, top)
        } else {
            (all_cpus, all_cpus)
        };
        Ctx {
            tricount,
            probe,
            dir,
            seed,
            seconds,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            all_cpus,
            fleet_cpus,
            client_cpus,
            run_deadline: Instant::now() + RUN_BUDGET,
            next_log: 0,
        }
    }

    /// When a launch started now must have ended.
    pub fn launch_deadline(&self) -> Instant {
        (Instant::now() + LAUNCH_TIMEOUT).min(self.run_deadline)
    }

    pub fn out_of_time(&self) -> bool {
        Instant::now() >= self.run_deadline
    }

    /// A fresh stem for one launch's stderr files.
    pub fn log_stem(&mut self, what: &str) -> PathBuf {
        self.next_log += 1;
        self.dir.join(format!("{:03}-{what}", self.next_log))
    }

    /// Counts `n` failed operations and keeps the evidence.
    pub fn fail(&mut self, n: u64, what: String, exits: &[Exit]) {
        self.failed += n;
        let stderr: Vec<String> = exits.iter().map(Exit::stderr_tail).collect();
        eprintln!("FAILED: {what}");
        if self.failures.len() < 32 {
            self.failures.push(Failure { what, stderr: stderr.join("\n---\n") });
        }
    }
}

/// What set-up leaves for the measurement.
pub struct Setup {
    pub graph_path: PathBuf,
    pub graph: Graph,
    /// The oracle: triangles of the generated graph, counted by the
    /// harness's own counter.
    pub triangles: u64,
    /// One request script per connection (serve workloads).
    pub scripts: Vec<Vec<Request>>,
}

fn strings(args: &[&str]) -> Vec<String> {
    args.iter().map(|s| s.to_string()).collect()
}

fn path_arg(p: &Path) -> String {
    p.display().to_string()
}

/// Generates the graph from the seed with the program's own generator,
/// reads it back, counts its triangles independently, and builds the
/// request scripts with the answers they must get.
pub fn setup_once(ctx: &mut Ctx, w: &Workload) -> Result<Setup, String> {
    let graph_path = ctx.dir.join(format!("{}.bin", w.preset));
    let stem = ctx.log_stem("generate");
    let args = [
        strings(&["generate", w.preset, "--out"]),
        vec![path_arg(&graph_path), "--seed".to_string(), ctx.seed.to_string()],
    ]
    .concat();
    let exit = proc::run_once(&ctx.tricount, &args, &stem, LAUNCH_TIMEOUT, ctx.all_cpus);
    if !exit.ok {
        return Err(format!("tricount generate {} failed: {}", w.preset, exit.stderr_tail()));
    }
    let graph =
        graph::read_bin(&graph_path).map_err(|e| format!("{}: {e}", graph_path.display()))?;
    let triangles = graph::count_triangles(&graph);
    let scripts = match w.kind {
        Kind::Count | Kind::Socket => Vec::new(),
        Kind::ServeRead => {
            let adj = Adj::undirected(&graph);
            (0..CONNECTIONS)
                .map(|c| script::read_script(ctx.seed, c, &graph, &adj, triangles))
                .collect()
        }
        Kind::ServeWrite => (0..CONNECTIONS)
            .map(|c| script::write_script(ctx.seed, c, CONNECTIONS, &graph))
            .collect(),
    };
    Ok(Setup { graph_path, graph, triangles, scripts })
}

/// Runs set-up [`SETUP_REPEATS`] times; `setup_s` is the median.
pub fn setup_timed(ctx: &mut Ctx, w: &Workload) -> Result<(Setup, Summary), String> {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        last = Some(setup_once(ctx, w)?);
        times.push(t.elapsed().as_secs_f64());
    }
    Ok((last.expect("at least one set-up ran"), Summary::of(&times)))
}

/// One timed whole-command launch.
#[derive(Debug, Clone, Copy)]
pub struct Launch {
    /// Spawn of the first process → exit of the last.
    pub wall: f64,
    /// Spawn → the first process printed its `triangles` line.
    pub result_at: f64,
    /// Largest peak resident set among the launch's processes.
    pub peak_rss_kib: u64,
}

/// The arguments of each process of one count launch. `extra(rank)`
/// adds per-process flags (the traced pass's `--metrics FILE`).
fn count_args(
    kind: Kind,
    ranks: usize,
    graph_path: &Path,
    stem: &Path,
    extra: &dyn Fn(usize) -> Vec<String>,
) -> Vec<Vec<String>> {
    match kind {
        Kind::Socket => {
            // Relative paths keep the endpoints under the 108-byte
            // limit of a Unix socket address wherever the checkout is.
            let peers: Vec<String> =
                (0..ranks).map(|r| format!("{}-r{r}.sock", stem.display())).collect();
            for p in &peers {
                let _ = std::fs::remove_file(p);
            }
            (0..ranks)
                .map(|r| {
                    let mut a = strings(&["serve-rank", &path_arg(graph_path), "--rank"]);
                    a.extend([r.to_string(), "--peers".to_string(), peers.join(",")]);
                    a.extend(extra(r));
                    a
                })
                .collect()
        }
        _ => {
            let mut a = strings(&["count", &path_arg(graph_path), "--ranks", &ranks.to_string()]);
            a.extend(extra(0));
            vec![a]
        }
    }
}

/// Launches the count command (threads or socket processes), waits for
/// every process, and checks every printed count against the oracle.
/// A failure is accounted in `ctx` and returns `None`.
pub fn launch_count(
    ctx: &mut Ctx,
    kind: Kind,
    ranks: usize,
    setup: &Setup,
    extra: &dyn Fn(usize) -> Vec<String>,
) -> Option<Launch> {
    ctx.attempted += 1;
    if ctx.out_of_time() {
        ctx.fail(1, "launch skipped: the run is out of time".into(), &[]);
        return None;
    }
    let stem = ctx.log_stem("launch");
    let args = count_args(kind, ranks, &setup.graph_path, &stem, extra);
    let deadline = ctx.launch_deadline();
    let exits = match Group::spawn(&ctx.tricount, &args, &stem, "triangles", ctx.all_cpus) {
        Ok(group) => group.wait(deadline),
        Err(e) => {
            ctx.fail(1, format!("cannot spawn {}: {e}", ctx.tricount.display()), &[]);
            return None;
        }
    };
    for (r, exit) in exits.iter().enumerate() {
        let problem = if exit.timed_out {
            Some("timed out and was killed".to_string())
        } else if !exit.ok {
            Some("exited with an error".to_string())
        } else {
            match exit.stdout_field("triangles").map(str::parse::<u64>) {
                Some(Ok(t)) if t == setup.triangles => None,
                other => {
                    Some(format!("printed triangles {other:?}, oracle says {}", setup.triangles))
                }
            }
        };
        if let Some(problem) = problem {
            ctx.fail(1, format!("{} process {r} of {}: {problem}", args[r][0], args.len()), &exits);
            return None;
        }
    }
    Some(Launch {
        wall: exits.iter().map(|e| e.wall).max().expect("one process at least").as_secs_f64(),
        result_at: exits
            .iter()
            .filter_map(|e| e.result_at)
            .min()
            .expect("every process printed its count")
            .as_secs_f64(),
        peak_rss_kib: exits.iter().map(|e| e.peak_rss_kib).max().expect("one process at least"),
    })
}

pub fn no_extra(_rank: usize) -> Vec<String> {
    Vec::new()
}

fn kib_to_mb(kib: f64) -> f64 {
    kib / 1024.0
}

/// The end-to-end metrics, (name, unit), in report order. Every
/// workload reports all of them.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cold_start_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_per_s", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
];

fn end_to_end(summaries: [Summary; 7]) -> Vec<Metric> {
    END_TO_END.iter().zip(summaries).map(|((name, unit), s)| Metric::new(name, unit, s)).collect()
}

/// Count workloads: one warm-up launch, then timed launches until the
/// measuring time is spent. A failed launch is counted and skipped; the
/// run goes on with the next one until [`MAX_FAILED_LAUNCHES`] is hit.
pub fn measure_count(
    ctx: &mut Ctx,
    w: &Workload,
    setup: &Setup,
    setup_s: Summary,
) -> Option<Vec<Metric>> {
    let mut failed = usize::from(launch_count(ctx, w.kind, w.ranks, setup, &no_extra).is_none());
    let started = Instant::now();
    let mut launches = Vec::new();
    while (launches.len() < MIN_LAUNCHES || started.elapsed().as_secs_f64() < ctx.seconds)
        && failed < MAX_FAILED_LAUNCHES
    {
        match launch_count(ctx, w.kind, w.ranks, setup, &no_extra) {
            Some(launch) => launches.push(launch),
            None => failed += 1,
        }
    }
    if launches.is_empty() {
        return None;
    }
    let wall: Vec<f64> = launches.iter().map(|l| l.wall).collect();
    let cold: Vec<f64> = launches.iter().map(|l| l.result_at).collect();
    let rss: Vec<f64> = launches.iter().map(|l| kib_to_mb(l.peak_rss_kib as f64)).collect();
    // An operation is a launch: rate over the time the launches took,
    // median and tail of the launch times as the latency percentiles.
    let launch_us = stats::sorted(wall.iter().map(|s| s * 1e6).collect());
    let tail = stats::tail(&launch_us);
    let latency_us = Summary::of(&launch_us);
    Some(end_to_end([
        setup_s,
        Summary::of(&wall),
        Summary::of(&cold),
        Summary::of(&rss),
        Summary::single(wall.len() as f64 / wall.iter().sum::<f64>()),
        latency_us,
        Summary { median: tail, q1: tail, q3: tail, ..latency_us },
    ]))
}

/// A running `tricount serve` fleet (one process, ranks are threads).
pub struct Fleet {
    group: Group,
    pub sock: PathBuf,
}

fn spawn_fleet(
    ctx: &mut Ctx,
    setup: &Setup,
    ranks: usize,
    extra: &[String],
) -> std::io::Result<Fleet> {
    let stem = ctx.log_stem("serve");
    let sock = PathBuf::from(format!("{}.sock", stem.display()));
    let _ = std::fs::remove_file(&sock);
    let mut args = strings(&["serve", &path_arg(&setup.graph_path), "--listen", &path_arg(&sock)]);
    args.extend(["--ranks".to_string(), ranks.to_string()]);
    args.extend_from_slice(extra);
    let group = Group::spawn(&ctx.tricount, &[args], &stem, "triangles", ctx.fleet_cpus)?;
    Ok(Fleet { group, sock })
}

impl Fleet {
    pub fn started(&self) -> Instant {
        self.group.started()
    }

    /// Sends `shutdown`, waits for the process, and checks that it left
    /// cleanly having recounted exactly once (the cold start). The
    /// fleet is judged by how it exits, not by the reply: at the seed
    /// commit the process sometimes ends before its connection thread
    /// has written `{"ok":true,"stopping":true}` (seen in about 1 of
    /// 700 shutdowns), and the client then reads end-of-file instead.
    pub fn shutdown(self, ctx: &mut Ctx, client: &mut Client) -> Option<Exit> {
        ctx.attempted += 1;
        let refused = match client.request("{\"op\":\"shutdown\"}\n") {
            Ok(reply) if !serve::is_ok(reply) => Some(reply.to_string()),
            _ => None,
        };
        let exit = self.group.wait(ctx.launch_deadline()).remove(0);
        let problem = if let Some(reply) = refused {
            Some(format!("shutdown refused: {reply}"))
        } else if exit.timed_out {
            Some("fleet did not exit after shutdown; killed".to_string())
        } else if !exit.ok {
            Some("fleet exited with an error".to_string())
        } else if exit.stdout_field("full recounts") != Some("1") {
            Some(format!(
                "fleet reports full recounts {:?}, want 1",
                exit.stdout_field("full recounts")
            ))
        } else {
            None
        };
        match problem {
            Some(p) => {
                ctx.fail(1, p, std::slice::from_ref(&exit));
                None
            }
            None => Some(exit),
        }
    }

    /// Kills the fleet after a failure and keeps its stderr.
    pub fn abandon(self, ctx: &mut Ctx, what: String) {
        let exits = self.group.wait(Instant::now());
        ctx.fail(1, what, &exits);
    }
}

/// Starts a fleet on the fleet's CPUs and waits for its first correct
/// `count` reply; from here on this thread, and the client threads it
/// starts, stay on the clients' CPU. Returns the fleet, a connected
/// client, and the cold-start time.
pub fn start_fleet(
    ctx: &mut Ctx,
    setup: &Setup,
    ranks: usize,
    extra: &[String],
) -> Option<(Fleet, Client, f64)> {
    ctx.attempted += 1;
    if ctx.out_of_time() {
        ctx.fail(1, "fleet not started: the run is out of time".into(), &[]);
        return None;
    }
    proc::pin_current_thread(ctx.client_cpus);
    let fleet = match spawn_fleet(ctx, setup, ranks, extra) {
        Ok(f) => f,
        Err(e) => {
            ctx.fail(1, format!("cannot spawn {}: {e}", ctx.tricount.display()), &[]);
            return None;
        }
    };
    let mut client = match Client::connect_retry(&fleet.sock, ctx.launch_deadline()) {
        Ok(c) => c,
        Err(e) => {
            fleet.abandon(ctx, format!("no frontend to connect to: {e}"));
            return None;
        }
    };
    let reply = client.request("{\"op\":\"count\"}\n").map(|r| r.to_string());
    let cold = fleet.started().elapsed().as_secs_f64();
    match reply {
        Ok(r) if serve::field_u64(&r, "triangles") == Some(setup.triangles) && serve::is_ok(&r) => {
            Some((fleet, client, cold))
        }
        other => {
            fleet.abandon(
                ctx,
                format!("first count replied {other:?}, oracle says {}", setup.triangles),
            );
            None
        }
    }
}

/// What the closed loops of one fleet did.
pub struct Loops {
    /// One outcome per connection.
    pub outcomes: Vec<LoopOutcome>,
    /// First request → last reply, seconds.
    pub busy_s: f64,
}

impl Loops {
    /// Requests each connection sent.
    pub fn sent(&self) -> Vec<usize> {
        self.outcomes.iter().map(|o| o.sent).collect()
    }

    /// Client-observed latencies (µs, ascending) of the answered
    /// requests, of one kind or of all.
    pub fn latencies_us(&self, op: Option<Op>) -> Vec<f64> {
        stats::sorted(
            self.outcomes
                .iter()
                .flat_map(|o| o.latencies.iter())
                .filter(|(kind, _)| op.is_none_or(|op| *kind == op as u8))
                .map(|&(_, ns)| ns as f64 / 1e3)
                .collect(),
        )
    }
}

impl Fleet {
    /// One closed loop per script, side by side, for `seconds` (or for
    /// exactly `limit` requests each); the requests go into the ledger.
    /// Gives the fleet back unless the connections could not be opened.
    pub fn drive(
        self,
        ctx: &mut Ctx,
        scripts: &[Vec<Request>],
        seconds: f64,
        limit: Option<usize>,
    ) -> Option<(Fleet, Loops)> {
        let mut clients = Vec::new();
        for _ in scripts {
            match Client::connect_retry(&self.sock, ctx.launch_deadline()) {
                Ok(client) => clients.push(client),
                Err(e) => {
                    self.abandon(ctx, format!("cannot open the client connections: {e}"));
                    return None;
                }
            }
        }
        let started = Instant::now();
        let until = started + Duration::from_secs_f64(seconds);
        let outcomes: Vec<LoopOutcome> = std::thread::scope(|scope| {
            let workers: Vec<_> = clients
                .iter_mut()
                .zip(scripts)
                .map(|(client, script)| {
                    scope.spawn(move || serve::closed_loop(client, script, until, limit))
                })
                .collect();
            workers.into_iter().map(|w| w.join().expect("client thread panicked")).collect()
        });
        let busy_s = started.elapsed().as_secs_f64();
        for o in &outcomes {
            ctx.attempted += o.sent as u64;
            if o.failed > 0 {
                let what = format!("{} of {} requests failed: {:?}", o.failed, o.sent, o.failures);
                ctx.fail(o.failed as u64, what, &[]);
            }
        }
        Some((self, Loops { outcomes, busy_s }))
    }
}

/// A fleet's replies to a final `count` and `stats`, taken right after
/// the loop; [`FinalState::check`] holds them against the oracle once
/// the fleet is gone, so the oracle's own work is not in the fleet's
/// wall time.
pub struct FinalState(Vec<(&'static str, std::io::Result<String>)>);

impl FinalState {
    pub fn ask(client: &mut Client) -> FinalState {
        FinalState(
            ["{\"op\":\"count\"}\n", "{\"op\":\"stats\"}\n"]
                .into_iter()
                .map(|line| (line, client.request(line).map(|r| r.to_string())))
                .collect(),
        )
    }

    /// `stats` must show one full recount and the right edge count,
    /// `count` the oracle's triangles. When the scripts mutate the
    /// graph the oracle is an offline recount of the graph their
    /// executed prefixes (`sent`) leave behind.
    pub fn check(
        self,
        ctx: &mut Ctx,
        g: &Graph,
        triangles: u64,
        scripts: &[Vec<Request>],
        sent: &[usize],
    ) {
        let mutates = scripts.iter().flatten().any(|r| !r.edits.is_empty());
        let (edges, triangles) = if mutates {
            let after = script::replay(g, scripts, sent);
            (after.edges.len() as u64, graph::count_triangles(&after))
        } else {
            (g.edges.len() as u64, triangles)
        };
        let wanted = [
            vec![("triangles", triangles)],
            vec![("triangles", triangles), ("edges", edges), ("full_recounts", 1)],
        ];
        for ((line, reply), fields) in self.0.into_iter().zip(wanted) {
            ctx.attempted += 1;
            match reply {
                Ok(r)
                    if serve::is_ok(&r)
                        && fields.iter().all(|&(k, v)| serve::field_u64(&r, k) == Some(v)) => {}
                other => ctx.fail(
                    1,
                    format!("final {} replied {other:?}, want {fields:?}", line.trim_end()),
                    &[],
                ),
            }
        }
    }
}

/// Serve workloads: [`COLD_CYCLES`] launch → first `count` reply →
/// `shutdown` cycles, then one fleet under the scripted closed loop for
/// the whole measuring time (throughput wanders over seconds with 7
/// threads and 2 clients on 2 cores; one long window averages that
/// better than several short ones), then the final-state check.
/// `wall_s` is that fleet's whole life, spawn → exit, as on the count
/// workloads: it holds the measuring window, so it moves only when
/// start-up or teardown change by a large share of a second.
pub fn measure_serve(
    ctx: &mut Ctx,
    w: &Workload,
    setup: &Setup,
    setup_s: Summary,
) -> Option<Vec<Metric>> {
    let mut cold = Vec::new();
    for _ in 0..COLD_CYCLES {
        let (fleet, mut client, cold_s) = start_fleet(ctx, setup, w.ranks, &[])?;
        fleet.shutdown(ctx, &mut client)?;
        cold.push(cold_s);
    }
    let (fleet, mut client, _) = start_fleet(ctx, setup, w.ranks, &[])?;
    let (fleet, loops) = fleet.drive(ctx, &setup.scripts, ctx.seconds, None)?;
    let final_state = FinalState::ask(&mut client);
    let exit = fleet.shutdown(ctx, &mut client)?;
    final_state.check(ctx, &setup.graph, setup.triangles, &setup.scripts, &loops.sent());
    let latency_us = loops.latencies_us(None);
    if latency_us.is_empty() {
        return None;
    }
    let p99 = stats::tail(&latency_us);
    let latency_us = Summary::of(&latency_us);
    Some(end_to_end([
        setup_s,
        Summary::single(exit.wall.as_secs_f64()),
        Summary::of(&cold),
        Summary::single(kib_to_mb(exit.peak_rss_kib as f64)),
        Summary::single(latency_us.n as f64 / loops.busy_s),
        latency_us,
        Summary { median: p99, q1: p99, q3: p99, ..latency_us },
    ]))
}
