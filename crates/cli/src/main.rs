//! `tricount` — command-line triangle counting.
//!
//! A thin front end over the workspace: load or generate a graph, run
//! any of the eight counting algorithms, print counts, phase times,
//! and (optionally) clustering statistics.

mod cli;

use std::time::Instant;

use cli::{Algorithm, Command, Input, USAGE};
use tc_core::{EdgeSource, SummaGrid};
use tc_graph::io::EdgeFile;
use tc_graph::{io, Csr, EdgeList};

/// Per-send delay probability installed by `--chaos SEED` on every link.
const CHAOS_P: f64 = 0.05;

/// The fault plan of `--chaos SEED`: seeded sender-side delays on every
/// link, announced on stderr.
fn chaos_plan(seed: Option<u64>) -> Option<tc_mps::FaultPlan> {
    seed.map(|seed| {
        eprintln!("# chaos: seed {seed}, delay p={CHAOS_P} on every link");
        tc_mps::FaultPlan::uniform(seed, CHAOS_P)
    })
}

/// Why a command failed, mapped to distinct process exit codes so
/// scripted callers can tell a bad input graph (3) from a runtime
/// failure (1) or a usage error (2).
enum AppError {
    /// The input graph was unreadable or structurally invalid.
    Input(String),
    /// The arguments parse but ask for something that cannot run.
    Usage(String),
    /// Anything else that went wrong while running the command.
    Run(String),
}

impl From<String> for AppError {
    fn from(msg: String) -> Self {
        AppError::Run(msg)
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // A knob of the removed frame-fault family is a usage error, never
    // silently ignored.
    if let Some(msg) = tc_mps::FaultPlan::removed_env_error() {
        eprintln!("error: {msg}");
        std::process::exit(2);
    }
    // TC_KERNEL seeds the kernel-strategy default (strict parse: an
    // invalid value panics here, before any work); --kernel overrides.
    match cli::parse_with_env(&args, tc_core::KernelStrategy::from_env()) {
        Ok(cmd) => match run(cmd) {
            Ok(()) => {}
            Err(AppError::Input(msg)) => {
                eprintln!("input error: {msg}");
                std::process::exit(3);
            }
            Err(AppError::Usage(msg)) => {
                eprintln!("error: {msg}");
                std::process::exit(2);
            }
            Err(AppError::Run(msg)) => {
                eprintln!("error: {msg}");
                std::process::exit(1);
            }
        },
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            std::process::exit(2);
        }
    }
}

fn load(input: &Input, seed: u64) -> Result<EdgeList, AppError> {
    match input {
        Input::Preset(p) => {
            eprintln!("# generating {}", p.name());
            Ok(p.build(seed))
        }
        Input::File(path) => {
            let ctx =
                |e: &dyn std::fmt::Display| AppError::Input(format!("{}: {e}", path.display()));
            let ext = path.extension().and_then(|e| e.to_str()).unwrap_or("");
            let el = match ext {
                "mtx" => io::read_matrix_market(std::fs::File::open(path).map_err(|e| ctx(&e))?),
                "bin" => io::read_binary_edges_path(path),
                _ => io::read_text_edges_path(path),
            }
            .map_err(|e| ctx(&e))?;
            // Canonical files (everything `generate` writes) skip the
            // re-sort: `simplify` is the identity on a simple list.
            Ok(if el.is_simple() { el } else { el.simplify() })
        }
    }
}

/// The path of an input that is a binary edge list.
fn bin_path(input: &Input) -> Option<&std::path::Path> {
    match input {
        Input::File(path) if path.extension().is_some_and(|e| e == "bin") => Some(path),
        _ => None,
    }
}

/// A graph as the distributed 2D paths take it: a `.bin` of which
/// every rank reads only its own stripe, or a loaded list.
enum Graph {
    File(EdgeFile),
    List(EdgeList),
}

impl Graph {
    /// The input of `count`: a `.bin` whose header checks out is left
    /// on disk for the striped algorithms; everything else is loaded.
    fn open(input: &Input, seed: u64, algorithm: Algorithm) -> Result<Self, AppError> {
        let striped = matches!(algorithm, Algorithm::TwoD | Algorithm::Summa);
        match bin_path(input).filter(|_| striped).and_then(|path| EdgeFile::open(path).ok()) {
            Some(file) => Ok(Graph::File(file)),
            None => load(input, seed).map(Graph::List),
        }
    }

    /// The input of the multi-rank paths that never hold a `.bin`
    /// whole (`serve-rank`, `serve`): a `.bin` is opened for its
    /// stripes, everything else is loaded.
    fn striped(input: &Input, seed: u64) -> Result<Self, AppError> {
        match bin_path(input) {
            Some(path) => EdgeFile::open(path)
                .map(Graph::File)
                .map_err(|e| AppError::Input(format!("{}: {e}", path.display()))),
            None => load(input, seed).map(Graph::List),
        }
    }

    fn source(&self) -> EdgeSource<'_> {
        match self {
            Graph::File(file) => file.into(),
            Graph::List(el) => el.into(),
        }
    }

    /// `(vertices, edge records)`, from the header or the list.
    fn size(&self) -> (usize, usize) {
        match self {
            Graph::File(file) => (file.num_vertices(), file.num_edges()),
            Graph::List(el) => (el.num_vertices, el.num_edges()),
        }
    }

    /// The loaded list a non-striped algorithm needs.
    fn list(&self) -> &EdgeList {
        match self {
            Graph::List(el) => el,
            Graph::File(_) => unreachable!("only the striped algorithms leave the file on disk"),
        }
    }
}

/// A failed distributed run: a defective input is the caller's (exit
/// 3, naming the file), so is a rank count the algorithm cannot use
/// (exit 2), anything else the runtime's.
fn run_error(input: &Input, e: tc_mps::MpsError) -> AppError {
    match (e, input) {
        (tc_mps::MpsError::InvalidInput { msg, .. }, Input::File(path)) => {
            AppError::Input(format!("{}: {msg}", path.display()))
        }
        (e @ tc_mps::MpsError::Geometry { .. }, _) => AppError::Usage(e.to_string()),
        (e, _) => AppError::Run(e.to_string()),
    }
}

/// The 2D algorithm a command line names: Cannon, or SUMMA on `--grid`
/// (by default the near-square grid of `p` ranks).
fn algorithm_2d(
    algorithm: Algorithm,
    grid: Option<(usize, usize)>,
    p: usize,
) -> tc_core::Algorithm {
    match algorithm {
        Algorithm::Summa => tc_core::Algorithm::Summa(
            grid.map_or_else(|| SummaGrid::near_square(p), cli::summa_grid),
        ),
        _ => tc_core::Algorithm::Cannon,
    }
}

/// Counts `graph` on the ranks of `launch` and prints the phase lines
/// `count` and `serve-rank` share.
fn count_2d(
    graph: &Graph,
    algorithm: tc_core::Algorithm,
    config: &tc_core::TcConfig,
    launch: tc_mps::Launch<'_>,
) -> Result<u64, tc_mps::MpsError> {
    let req = tc_core::Request { algorithm, ..tc_core::Request::new(graph.source(), config) };
    let r = tc_core::run(req, launch)?;
    if let tc_core::Algorithm::Summa(g) = algorithm {
        println!("grid          : {}x{} ({} panels)", g.pr, g.pc, g.panels);
    }
    println!("preprocessing : {:.3?}", r.ppt_time());
    println!("counting      : {:.3?}", r.tct_time());
    if algorithm == tc_core::Algorithm::Cannon {
        println!("tasks         : {}", r.total_tasks());
        println!("bytes sent    : {}", r.total_bytes_sent());
    }
    Ok(r.triangles)
}

fn run(cmd: Command) -> Result<(), AppError> {
    match cmd {
        Command::Help => {
            print!("{USAGE}");
            Ok(())
        }
        Command::Truss { input, ranks, seed } => {
            let el = load(&input, seed)?;
            eprintln!("# {} vertices, {} edges", el.num_vertices, el.num_edges());
            let d = tc_apps::truss_decomposition_dist(&el, ranks).map_err(|e| e.to_string())?;
            println!("max trussness : {}", d.max_truss);
            println!("peel rounds   : {}", d.rounds);
            println!("time          : {:.3?}", d.time);
            let mut hist = vec![0usize; d.max_truss as usize + 1];
            for &t in &d.trussness {
                hist[t as usize] += 1;
            }
            for (k, c) in hist.iter().enumerate().skip(2) {
                if *c > 0 {
                    println!("  trussness {k:>3}: {c} edges");
                }
            }
            Ok(())
        }
        Command::Info { input } => {
            let el = load(&input, tc_gen::DEFAULT_SEED)?;
            let csr = Csr::from_edge_list(&el);
            println!("vertices      : {}", el.num_vertices);
            println!("edges         : {}", el.num_edges());
            println!("max degree    : {}", csr.max_degree());
            println!("avg degree    : {:.2}", tc_graph::stats::average_degree(&csr));
            println!("wedges        : {}", tc_graph::stats::total_wedges(&csr));
            Ok(())
        }
        Command::Generate { preset, seed, output } => {
            let el = preset.build(seed);
            let ext = output.extension().and_then(|e| e.to_str()).unwrap_or("");
            if ext == "bin" {
                io::write_binary_edges_path(&el, &output).map_err(|e| e.to_string())?;
            } else {
                io::write_text_edges(
                    &el,
                    std::fs::File::create(&output).map_err(|e| e.to_string())?,
                )
                .map_err(|e| e.to_string())?;
            }
            println!(
                "wrote {} ({} vertices, {} edges)",
                output.display(),
                el.num_vertices,
                el.num_edges()
            );
            Ok(())
        }
        Command::Count {
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
        } => {
            let count_once = |graph: &Graph| -> Result<(), AppError> {
                let (n, m) = graph.size();
                eprintln!("# {n} vertices, {m} edges");
                let session = trace.as_ref().map(|_| tc_trace::TraceSession::begin());
                let handle = session.as_ref().map(|s| s.handle());
                let msession = metrics.as_ref().map(|_| tc_metrics::MetricsSession::begin());
                let mhandle = msession.as_ref().map(|s| s.handle());
                let ucfg = tc_mps::UniverseConfig {
                    trace: handle,
                    metrics: mhandle,
                    chaos: chaos_plan(chaos),
                    ..Default::default()
                };
                let t0 = Instant::now();
                let triangles = match algorithm {
                    Algorithm::TwoD | Algorithm::Summa => {
                        // A SUMMA grid names its own rank count.
                        let algo = algorithm_2d(algorithm, grid, ranks);
                        let p = match algo {
                            tc_core::Algorithm::Summa(g) => g.size(),
                            tc_core::Algorithm::Cannon => ranks,
                        };
                        count_2d(graph, algo, &config, tc_mps::Launch::threads(p, &ucfg))
                            .map_err(|e| run_error(&input, e))?
                    }
                    Algorithm::Serial => tc_baselines::serial::count_default(graph.list()),
                    Algorithm::Shared => tc_baselines::count_shared(graph.list(), ranks),
                    Algorithm::Aop => {
                        let r = tc_baselines::count_aop1d(graph.list(), ranks, &ucfg)
                            .map_err(|e| e.to_string())?;
                        println!("setup         : {:.3?}", r.setup);
                        println!("counting      : {:.3?}", r.count);
                        println!("ghost entries : {}", r.max_ghost_entries);
                        r.triangles
                    }
                    Algorithm::Push => {
                        tc_baselines::count_push1d(graph.list(), ranks, &ucfg)
                            .map_err(|e| e.to_string())?
                            .triangles
                    }
                    Algorithm::Psp => {
                        tc_baselines::count_psp1d(graph.list(), ranks, 8, &ucfg)
                            .map_err(|e| e.to_string())?
                            .triangles
                    }
                    Algorithm::Wedge => {
                        let r = tc_baselines::count_wedge(graph.list(), ranks, &ucfg)
                            .map_err(|e| e.to_string())?;
                        println!("2-core        : {:.3?} ({} peeled)", r.two_core, r.peeled);
                        println!("wedge check   : {:.3?} ({} wedges)", r.wedge_count, r.wedges);
                        r.triangles
                    }
                };
                println!("total time    : {:.3?}", t0.elapsed());
                println!("triangles     : {triangles}");
                if stats {
                    let loaded;
                    let el = match graph {
                        Graph::List(el) => el,
                        Graph::File(_) => {
                            loaded = load(&input, seed)?;
                            &loaded
                        }
                    };
                    let csr = Csr::from_edge_list(el);
                    println!(
                        "transitivity  : {:.6}",
                        tc_graph::stats::transitivity(&csr, triangles)
                    );
                }
                let snapshot = msession.map(|s| s.finish());
                if let (Some(snap), Some(path)) = (&snapshot, &metrics) {
                    std::fs::write(path, format!("{}\n", snap.to_json()))
                        .map_err(|e| format!("{}: {e}", path.display()))?;
                    eprintln!(
                        "# metrics: {} rank registries -> {}",
                        snap.ranks().len(),
                        path.display()
                    );
                }
                if let (Some(session), Some(path)) = (session, &trace) {
                    let tr = session.finish();
                    let snap_json = snapshot.as_ref().map(|s| s.to_json());
                    let meta: Vec<(&str, &str)> =
                        snap_json.iter().map(|j| ("tcMetrics", j.as_str())).collect();
                    tc_trace::chrome::write_chrome_json_with_metadata(&tr, path, &meta)
                        .map_err(|e| format!("{}: {e}", path.display()))?;
                    let analysis = tc_trace::analysis::analyze(&tr)
                        .map_err(|e| format!("{}: {e}", path.display()))?;
                    eprintln!(
                        "# trace: {} events ({} dropped) -> {}",
                        tr.events.len(),
                        tr.dropped,
                        path.display()
                    );
                    eprint!("{}", analysis.report());
                }
                Ok(())
            };
            let graph = Graph::open(&input, seed, algorithm)?;
            match (count_once(&graph), &graph) {
                // The ranks found the file's records not canonical
                // (before anything was counted or printed): count the
                // graph it simplifies to instead.
                (Err(AppError::Input(why)), Graph::File(_)) => {
                    eprintln!("# not a canonical edge list ({why}); loading and simplifying it");
                    count_once(&Graph::List(load(&input, seed)?))
                }
                (outcome, _) => outcome,
            }
        }
        Command::ServeRank {
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
        } => {
            // A `.bin` must be canonical here: each process reads only
            // its own stripe, so there is nobody to simplify the whole.
            let graph = Graph::striped(&input, seed)?;
            // Flags win; otherwise the MPS_FABRIC_* environment names
            // this process's place in the mesh.
            let mut sock = match (rank, peers) {
                (Some(rank), Some(peers)) => {
                    let peers: Vec<String> = peers
                        .split(',')
                        .map(|s| s.trim().to_string())
                        .filter(|s| !s.is_empty())
                        .collect();
                    if rank >= peers.len() {
                        return Err(AppError::Run(format!(
                            "--rank {rank} is out of range of the {} endpoints in --peers",
                            peers.len()
                        )));
                    }
                    let mut sock = tc_mps::SocketConfig::new(rank, peers);
                    sock.epoch = epoch.unwrap_or(0);
                    sock
                }
                _ => {
                    let mut sock = tc_mps::SocketConfig::from_env().ok_or_else(|| {
                        AppError::Run(format!(
                            "serve-rank needs --rank/--peers or the {}/{} environment",
                            tc_mps::FABRIC_RANK_ENV,
                            tc_mps::FABRIC_PEERS_ENV
                        ))
                    })?;
                    if let Some(e) = epoch {
                        sock.epoch = e;
                    }
                    sock
                }
            };
            let p = sock.peers.len();
            let (n, m) = graph.size();
            eprintln!("# rank {}/{p}: {n} vertices, {m} edges", sock.rank);
            let msession = metrics.as_ref().map(|_| tc_metrics::MetricsSession::begin());
            sock.universe.metrics = msession.as_ref().map(|s| s.handle());
            let tsession = trace.as_ref().map(|_| tc_trace::TraceSession::begin());
            sock.universe.trace = tsession.as_ref().map(|s| s.handle());
            sock.universe.chaos = chaos_plan(chaos);
            let t0 = Instant::now();
            let algo = algorithm_2d(algorithm, grid, p);
            let triangles = count_2d(&graph, algo, &config, tc_mps::Launch::Socket(&sock))
                .map_err(|e| run_error(&input, e))?;
            println!("rank          : {}/{p}", sock.rank);
            println!("total time    : {:.3?}", t0.elapsed());
            println!("triangles     : {triangles}");
            if let (Some(session), Some(path)) = (msession, &metrics) {
                let snap = session.finish();
                std::fs::write(path, format!("{}\n", snap.to_json()))
                    .map_err(|e| format!("{}: {e}", path.display()))?;
                eprintln!("# metrics: rank {} -> {}", sock.rank, path.display());
            }
            if let (Some(session), Some(path)) = (tsession, &trace) {
                // One lane: this process's rank (fabric connect and
                // handshake spans included).
                let tr = session.finish();
                tc_trace::chrome::write_chrome_json(&tr, path)
                    .map_err(|e| format!("{}: {e}", path.display()))?;
                eprintln!(
                    "# trace: rank {}, {} events ({} dropped) -> {}",
                    sock.rank,
                    tr.events.len(),
                    tr.dropped,
                    path.display()
                );
            }
            Ok(())
        }
        Command::Serve {
            input,
            listen,
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
        } => {
            // A `.bin` is served from its stripes: no rank, and over
            // sockets no process, holds the whole graph.
            let graph = Graph::striped(&input, seed)?;
            // A crash-recoverable fleet (--state-dir) always meters:
            // the rejoin/degraded counters are its observability
            // surface, and the `metrics` query would otherwise serve
            // an empty exposition.
            let msession = (metrics.is_some() || json.is_some() || state_dir.is_some())
                .then(tc_metrics::MetricsSession::begin);
            let mhandle = msession.as_ref().map(|s| s.handle());
            let plan = chaos_plan(chaos);
            // Socket mode iff --rank/--peers or the MPS_FABRIC_*
            // environment names this process's place in a fleet;
            // otherwise --ranks in-process threads.
            let sock = match (rank, peers) {
                (Some(rank), Some(peers)) => {
                    let peers: Vec<String> = peers
                        .split(',')
                        .map(|s| s.trim().to_string())
                        .filter(|s| !s.is_empty())
                        .collect();
                    if rank >= peers.len() {
                        return Err(AppError::Run(format!(
                            "--rank {rank} is out of range of the {} endpoints in --peers",
                            peers.len()
                        )));
                    }
                    Some(tc_mps::SocketConfig::new(rank, peers))
                }
                _ => tc_mps::SocketConfig::from_env(),
            };
            let p = sock.as_ref().map(|s| s.peers.len()).unwrap_or(ranks);
            let algo = match algorithm_2d(algorithm, grid, p) {
                tc_core::Algorithm::Cannon if tc_mps::perfect_square_side(p).is_none() => {
                    return Err(AppError::Run(format!(
                        "the 2d kernel needs a perfect-square fleet, got {p} ranks \
                         (use --algorithm summa --grid RxC for rectangles)"
                    )));
                }
                tc_core::Algorithm::Cannon => tc_serve::Algo::Cannon,
                tc_core::Algorithm::Summa(g) => tc_serve::Algo::Summa(g),
            };
            let mut scfg = tc_serve::ServeConfig::new(listen).env_overrides();
            scfg.algo = algo;
            scfg.tc = config;
            scfg.metrics = mhandle.clone();
            if let Some(v) = flush_ms {
                scfg.flush_ms = v;
            }
            if let Some(v) = max_batch {
                scfg.max_batch = v.max(1);
            }
            if let Some(v) = queue {
                scfg.queue = v.max(1);
            }
            if let Some(v) = tick_ms {
                scfg.tick_ms = v.max(1);
            }
            // One fleet rank per rank the launch runs here; rank 0's
            // (or this process's only) report is the one to print. A
            // defective `.bin` stops every rank alike (exit 3).
            let serve_on = |graph: &Graph, launch: tc_mps::Launch<'_>| {
                let (n, m) = graph.size();
                eprintln!("# serving {n} vertices, {m} edges");
                let body = |comm: &tc_mps::Comm| {
                    tc_core::settle(tc_serve::serve_rank(comm, graph.source(), &scfg))
                };
                let (mut reports, _stats) = launch.run(body).map_err(|e| run_error(&input, e))?;
                reports.swap_remove(0).map_err(|e| run_error(&input, e))
            };
            let ucfg =
                tc_mps::UniverseConfig { metrics: mhandle, chaos: plan, ..Default::default() };
            let (my_rank, report) = match sock {
                Some(mut sock) => {
                    if let Some(e) = epoch {
                        sock.epoch = e;
                    }
                    sock.universe = ucfg;
                    if sock.rank == 0 {
                        eprintln!("# rank 0/{p}: frontend on {}", scfg.listen.display());
                    } else {
                        eprintln!("# rank {}/{p}: peer loop", sock.rank);
                    }
                    let report = match &state_dir {
                        Some(dir) => {
                            // Crash-recoverable fleet: rank-local
                            // durability, epoch rejoin, degraded mode.
                            let fleet = tc_serve::FleetConfig::new(dir.clone()).env_overrides();
                            let (n, m) = graph.size();
                            eprintln!("# serving {n} vertices, {m} edges");
                            tc_serve::serve_fleet(graph.source(), &scfg, &sock, &fleet)
                                .map_err(|e| run_error(&input, e))?
                        }
                        None => serve_on(&graph, tc_mps::Launch::Socket(&sock))?,
                    };
                    (sock.rank, report)
                }
                None if state_dir.is_some() => {
                    return Err(AppError::Run(
                        "--state-dir needs socket mode (give --rank/--peers or run under \
                         `tricount supervise`); in-process fleets share one address space \
                         and cannot lose a single rank"
                            .into(),
                    ));
                }
                None => {
                    eprintln!("# frontend on {} over {p} in-process ranks", scfg.listen.display());
                    let threads = tc_mps::Launch::threads(p, &ucfg);
                    let report = match (serve_on(&graph, threads), &graph) {
                        // The ranks found the file's records not
                        // canonical (before the listener was bound):
                        // serve the graph it simplifies to, as `count`
                        // counts it.
                        (Err(AppError::Input(why)), Graph::File(_)) => {
                            eprintln!(
                                "# not a canonical edge list ({why}); loading and simplifying it"
                            );
                            serve_on(&Graph::List(load(&input, seed)?), threads)?
                        }
                        (outcome, _) => outcome?,
                    };
                    (0, report)
                }
            };
            // Peers report zeros for the frontend tallies; every rank
            // reports the (replicated) final count.
            if my_rank == 0 {
                println!("batches       : {}", report.batches);
                println!("queries       : {}", report.queries);
                println!("rejected      : {}", report.rejected);
                println!("full recounts : {}", report.full_recounts);
            }
            println!("rank          : {my_rank}/{p}");
            println!("triangles     : {}", report.triangles);
            if let Some(session) = msession {
                let snap = session.finish();
                if let Some(path) = &metrics {
                    std::fs::write(path, format!("{}\n", snap.to_json()))
                        .map_err(|e| format!("{}: {e}", path.display()))?;
                    eprintln!(
                        "# metrics: {} rank registries -> {}",
                        snap.ranks().len(),
                        path.display()
                    );
                }
                // The sustained-workload analogue of a bench run: one
                // tc-run-v2 line keyed by `<dataset>/<algo>/pN/serve`,
                // comparable with `tricount benchdiff`. Only rank 0
                // writes it (in socket mode the snapshot holds this
                // process's registry; the frontend tallies live there).
                if let (0, Some(path)) = (my_rank, &json) {
                    let dataset = match &input {
                        Input::Preset(pr) => pr.name(),
                        Input::File(f) => {
                            f.file_stem().and_then(|s| s.to_str()).unwrap_or("file").to_string()
                        }
                    };
                    let algo_name = match algorithm {
                        Algorithm::Summa => "summa",
                        _ => "2d-cannon",
                    };
                    let rec = tc_metrics::RunRecord::from_snapshot(
                        &dataset,
                        algo_name,
                        p as u64,
                        "serve",
                        report.triangles,
                        &snap,
                    );
                    use std::io::Write as _;
                    std::fs::OpenOptions::new()
                        .create(true)
                        .append(true)
                        .open(path)
                        .and_then(|mut f| writeln!(f, "{}", rec.to_json_line()))
                        .map_err(|e| format!("{}: {e}", path.display()))?;
                    eprintln!("# run record: {} -> {}", rec.key(), path.display());
                }
            }
            Ok(())
        }
        Command::Supervise {
            input,
            listen,
            state_dir,
            ranks,
            max_restarts,
            backoff_ms,
            passthrough,
        } => {
            let program =
                std::env::current_exe().map_err(|e| format!("cannot locate my own binary: {e}"))?;
            let peers = tc_serve::supervisor::fleet_endpoints(&state_dir, ranks).join(",");
            let mut serve_args = vec![
                "serve".to_string(),
                input,
                "--listen".to_string(),
                listen.display().to_string(),
                "--state-dir".to_string(),
                state_dir.display().to_string(),
                "--peers".to_string(),
                peers,
            ];
            serve_args.extend(passthrough);
            let cfg = tc_serve::SupervisorConfig {
                program,
                serve_args,
                state_dir,
                ranks,
                max_restarts,
                backoff_base_ms: backoff_ms,
                backoff_cap_ms: backoff_ms.saturating_mul(64).max(backoff_ms),
            };
            eprintln!(
                "# supervising {ranks} ranks under {} (restart budget {max_restarts})",
                cfg.state_dir.display()
            );
            match tc_serve::supervise(&cfg).map_err(|e| format!("supervisor: {e}"))? {
                tc_serve::SuperviseOutcome::FrontendExited(0) => Ok(()),
                tc_serve::SuperviseOutcome::FrontendExited(code) => {
                    Err(AppError::Run(format!("rank 0 exited with code {code}")))
                }
                tc_serve::SuperviseOutcome::BudgetExhausted { rank, restarts } => {
                    Err(AppError::Run(format!(
                        "fleet dead: rank {rank} crashed past the restart budget \
                         ({restarts} crashes, budget {max_restarts})"
                    )))
                }
            }
        }
        Command::Query { socket, request, timeout_ms } => {
            let mut client = tc_serve::Client::connect_retry(
                &socket,
                std::time::Duration::from_millis(timeout_ms),
            )
            .map_err(|e| format!("{}: {e}", socket.display()))?;
            let reply = client.request_raw(&request).map_err(|e| e.to_string())?;
            println!("{reply}");
            let v = tc_metrics::json::parse(&reply).ok();
            let ok = v
                .as_ref()
                .is_some_and(|v| matches!(v.get("ok"), Some(tc_metrics::json::Value::Bool(true))));
            if ok {
                return Ok(());
            }
            // A degraded reply is an availability signal, not a
            // protocol failure: its own exit code lets scripted
            // callers branch on "retry later" without parsing JSON.
            let degraded = v.as_ref().is_some_and(|v| {
                v.get("error").and_then(tc_metrics::json::Value::as_str)
                    == Some(tc_serve::proto::ERR_DEGRADED)
            });
            if degraded {
                std::process::exit(4);
            }
            Err(AppError::Run("the service replied with an error (reply above)".into()))
        }
        Command::BenchDiff { args } => {
            std::process::exit(tc_metrics::diff::cli_main(&args));
        }
        Command::TraceCheck { file } => {
            let text =
                std::fs::read_to_string(&file).map_err(|e| format!("{}: {e}", file.display()))?;
            let summary = tc_trace::chrome::validate(&text)
                .map_err(|e| format!("{}: invalid trace: {e}", file.display()))?;
            println!("lanes   : {} ranks {:?}", summary.ranks.len(), summary.ranks);
            println!("spans   : {}", summary.spans);
            println!("instants: {}", summary.instants);
            for (name, n) in &summary.spans_by_name {
                println!("  {name:<18} {n}");
            }
            Ok(())
        }
    }
}
