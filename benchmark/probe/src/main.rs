//! Per-layer probes for the traced pass of the repo benchmark.
//!
//! This binary is the only part of the harness that links the repo's
//! crates. It records its own spans around calls into each layer's
//! *public* functions — the pinned surface listed in
//! `benchmark/README.md` — and prints one line per metric:
//!
//! ```text
//! metric <name> <unit> <value>
//! ```
//!
//! `layers` runs every probe on one workload's graph; `socket-child`
//! is this binary re-executed as one rank of a two-process socket
//! universe.

mod comm;
mod engine;

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use tc_core::cannon::cannon_count;
use tc_core::intersect::intersect_count;
use tc_core::preprocess::{preprocess_from, BlockInput};
use tc_core::TcConfig;
use tc_gen::Preset;
use tc_graph::io::read_binary_edges_path;
use tc_graph::{Csr, EdgeList};
use tc_mps::{thread_cpu_now, Comm, CommStats, MpsResult, Universe, UniverseConfig};

/// Prints one metric line.
pub fn emit(name: &str, unit: &str, value: f64) {
    println!("metric {name} {unit} {value}");
}

pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

pub fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(|a, b| a.partial_cmp(b).expect("durations are never NaN"));
    v[v.len() / 2]
}

/// splitmix64, so that sampled rows and ops are a function of the seed.
pub struct Rng(pub u64);

impl Rng {
    pub fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) % n as u64) as usize
    }
}

/// What one rank saw of one phase: the harness's span around the call
/// plus the communicator's own counters across it.
#[derive(Debug, Clone, Copy, Default)]
struct Phase {
    wall: Duration,
    cpu: Duration,
    blocked_ns: u64,
    msgs: u64,
    bytes: u64,
}

struct PhaseSpan {
    wall: Instant,
    cpu: Duration,
    stats: CommStats,
}

impl PhaseSpan {
    /// Ranks enter a phase together, as they do in the program (its
    /// phases start at a barrier), so a rank's wall time does not
    /// include waiting for a late starter of the phase before.
    fn begin(comm: &Comm) -> MpsResult<PhaseSpan> {
        comm.barrier()?;
        Ok(PhaseSpan { wall: Instant::now(), cpu: thread_cpu_now(), stats: comm.stats() })
    }

    fn end(self, comm: &Comm) -> Phase {
        let after = comm.stats();
        Phase {
            wall: self.wall.elapsed(),
            cpu: thread_cpu_now().saturating_sub(self.cpu),
            blocked_ns: after.recv_ns - self.stats.recv_ns,
            msgs: after.msgs_sent - self.stats.msgs_sent,
            bytes: after.bytes_sent - self.stats.bytes_sent,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct RankRun {
    prep: Phase,
    cannon: Phase,
    triangles: u64,
    tasks: u64,
    probes: u64,
    lookups: u64,
}

/// The program's per-rank pipeline — preprocess, then Cannon counting —
/// with a span and counter deltas around each of the two public calls.
fn run_phases(csr: &Csr, p: usize) -> Vec<RankRun> {
    let cfg = TcConfig::default();
    let (ranks, _) = Universe::try_run_config(p, &UniverseConfig::default(), |comm| {
        let span = PhaseSpan::begin(comm)?;
        let prep = preprocess_from(comm, csr.num_vertices(), &BlockInput::Shared(csr), &cfg)?;
        let prep_phase = span.end(comm);
        let span = PhaseSpan::begin(comm)?;
        let out = cannon_count(comm, prep, &cfg)?;
        Ok(RankRun {
            prep: prep_phase,
            cannon: span.end(comm),
            triangles: out.triangles,
            tasks: out.tasks,
            probes: out.map_stats.probe_steps,
            lookups: out.map_stats.lookups,
        })
    })
    .unwrap_or_else(|e| fail(&format!("the {p}-rank pipeline failed: {e}")));
    ranks
}

fn emit_phase(prefix: &str, phases: &[Phase]) {
    let max = |f: fn(&Phase) -> f64| phases.iter().map(f).fold(0.0, f64::max);
    emit(&format!("{prefix}.wall_s"), "s", max(|p| p.wall.as_secs_f64()));
    emit(&format!("{prefix}.cpu_s"), "s", max(|p| p.cpu.as_secs_f64()));
    emit(&format!("{prefix}.blocked_s"), "s", max(|p| p.blocked_ns as f64 / 1e9));
    emit(&format!("{prefix}.msgs"), "count", phases.iter().map(|p| p.msgs).sum::<u64>() as f64);
    emit(&format!("{prefix}.bytes"), "bytes", phases.iter().map(|p| p.bytes).sum::<u64>() as f64);
}

/// `core.*`: the pipeline at the workload's rank count (run twice: the
/// first run warms the allocator and must agree with the second on
/// every count), the kernel alone at one rank, and the intersection
/// primitive over sampled adjacency-row pairs.
fn core_probes(csr: &Csr, el: &EdgeList, p: usize, seed: u64) -> u64 {
    let warm = run_phases(csr, p);
    let ranks = run_phases(csr, p);
    let exact = |r: &[RankRun]| -> Vec<[u64; 6]> {
        r.iter()
            .map(|r| {
                [
                    r.triangles,
                    r.tasks,
                    r.probes,
                    r.lookups,
                    r.prep.msgs + r.cannon.msgs,
                    r.prep.bytes + r.cannon.bytes,
                ]
            })
            .collect()
    };
    if exact(&warm) != exact(&ranks) {
        fail("two runs of the same pipeline disagree on a deterministic count");
    }
    let triangles = ranks[0].triangles;
    emit_phase("core.preprocess", &ranks.iter().map(|r| r.prep).collect::<Vec<_>>());
    let cannon: Vec<Phase> = ranks.iter().map(|r| r.cannon).collect();
    emit_phase("core.cannon", &cannon);
    let cpu: Vec<f64> = cannon.iter().map(|p| p.cpu.as_secs_f64()).collect();
    let mean = cpu.iter().sum::<f64>() / cpu.len() as f64;
    emit(
        "core.cannon.imbalance",
        "ratio",
        cpu.iter().cloned().fold(0.0, f64::max) / mean.max(1e-9),
    );
    emit("core.count.tasks", "count", ranks.iter().map(|r| r.tasks).sum::<u64>() as f64);
    emit("core.count.probes", "count", ranks.iter().map(|r| r.probes).sum::<u64>() as f64);
    emit("core.count.lookups", "count", ranks.iter().map(|r| r.lookups).sum::<u64>() as f64);

    // The kernel with zero messages.
    let alone = run_phases(csr, 1);
    if alone[0].triangles != triangles {
        fail("the 1-rank and p-rank pipelines disagree on the triangle count");
    }
    emit("core.count.p1_s", "s", alone[0].cannon.wall.as_secs_f64());

    // The intersection primitive on rows of this graph: endpoints of
    // sampled edges, so hub rows weigh as they do in the kernel.
    const PAIRS: usize = 100_000;
    let mut rng = Rng(seed ^ 0x1a7e_75ec);
    let pairs: Vec<(u32, u32)> = (0..PAIRS).map(|_| el.edges[rng.below(el.edges.len())]).collect();
    let (hits, secs) = timed(|| {
        pairs
            .iter()
            .map(|&(u, v)| {
                intersect_count(black_box(csr.neighbors(u)), black_box(csr.neighbors(v)))
            })
            .sum::<u64>()
    });
    black_box(hits);
    emit("core.intersect.pairs_per_s", "1/s", PAIRS as f64 / secs);
    triangles
}

pub fn fail(msg: &str) -> ! {
    eprintln!("tc-benchmark-probe: {msg}");
    std::process::exit(1);
}

struct Args {
    graph: PathBuf,
    preset: String,
    seed: u64,
    ranks: usize,
    dir: PathBuf,
}

fn parse_layers(argv: &[String]) -> Result<Args, String> {
    let mut it = argv.iter();
    let (mut graph, mut preset, mut seed, mut ranks, mut dir) = (None, None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--graph" => graph = Some(PathBuf::from(value)),
            "--preset" => preset = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes a whole number")?),
            "--ranks" => ranks = Some(value.parse().map_err(|_| "--ranks takes a whole number")?),
            "--dir" => dir = Some(PathBuf::from(value)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        graph: graph.ok_or("--graph is required")?,
        preset: preset.ok_or("--preset is required")?,
        seed: seed.ok_or("--seed is required")?,
        ranks: ranks.ok_or("--ranks is required")?,
        dir: dir.ok_or("--dir is required")?,
    })
}

fn layers(args: &Args) {
    // gen, graph: how the serial head of every command is spent.
    let preset = Preset::parse(&args.preset).unwrap_or_else(|| fail("unknown preset"));
    let (generated, secs) = timed(|| preset.build(args.seed));
    emit("gen.build_s", "s", secs);
    let (el, secs) = timed(|| read_binary_edges_path(&args.graph));
    let el = el.unwrap_or_else(|e| fail(&format!("{}: {e}", args.graph.display())));
    let file_mb = std::fs::metadata(&args.graph).map_or(0.0, |m| m.len() as f64 / 1e6);
    emit("graph.io_read_s", "s", secs);
    emit("graph.io_read_mb_per_s", "MB/s", file_mb / secs);
    if el != generated {
        fail("the graph file is not what the preset builds from this seed");
    }
    drop(generated);
    let (csr, secs) = timed(|| Csr::from_edge_list(&el));
    emit("graph.csr_build_s", "s", secs);

    let triangles = core_probes(&csr, &el, args.ranks, args.seed);

    // The plain single-thread reference on the same graph.
    let (serial, secs) = timed(|| tc_baselines::serial::count_default(&el));
    emit("baselines.serial_s", "s", secs);
    if serial != triangles {
        fail("the serial baseline and the 2D pipeline disagree on the triangle count");
    }

    comm::local_probes();
    comm::socket_probes(&args.dir);
    engine::probes(&csr, &el, triangles, args.seed);
    println!("check triangles {triangles}");
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let usage = "usage: tc-benchmark-probe layers --graph FILE --preset NAME --seed N --ranks P --dir SCRATCH";
    match argv.first().map(String::as_str) {
        Some("layers") => match parse_layers(&argv[1..]) {
            Ok(args) => layers(&args),
            Err(e) => fail(&format!("{e}\n{usage}")),
        },
        Some("socket-child") => comm::socket_child(&argv[1..]),
        _ => fail(usage),
    }
}

/// Scratch file path helper shared by the probes.
pub fn scratch(dir: &Path, name: &str) -> String {
    dir.join(name).display().to_string()
}
