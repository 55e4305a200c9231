//! Backend-conformance suite: one request must be *indistinguishable*
//! wherever its ranks run and whatever they read — rank threads or a
//! multi-process socket mesh, a list stripe or a `.bin` stripe: exact
//! triangle counts against the serial oracle, identical per-edge
//! supports, and identical per-rank deterministic counters (tasks,
//! probes, lookups, ops, logical bytes) — including under the PR 5
//! chaos soak shapes at 16 ranks.
//!
//! Each socket "process" is simulated by a thread holding its own
//! `SocketConfig`; all communication crosses real Unix-domain sockets.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use tc_core::{run, Algorithm, EdgeSupport, RankMetrics, Request, SummaGrid, TcConfig, TcResult};
use tc_gen::graph500;
use tc_graph::{truss, EdgeList};
use tc_mps::{FaultKind, FaultPlan, Launch, LinkFaults, SocketConfig, UniverseConfig};

mod common;
use common::TempBin;

static NEXT_MESH: AtomicUsize = AtomicUsize::new(0);

fn unix_endpoints(p: usize) -> Vec<String> {
    let mesh = NEXT_MESH.fetch_add(1, Ordering::Relaxed);
    let pid = std::process::id();
    (0..p)
        .map(|r| {
            std::env::temp_dir()
                .join(format!("tcc-{pid}-{mesh}-{r}.sock"))
                .to_string_lossy()
                .into_owned()
        })
        .collect()
}

fn universe_cfg(chaos: Option<&FaultPlan>) -> UniverseConfig {
    UniverseConfig {
        recv_timeout: Some(Duration::from_secs(60)),
        chaos: chaos.cloned(),
        ..UniverseConfig::default()
    }
}

/// The configs of the `p` processes of a fresh Unix-socket mesh.
fn mesh(p: usize, chaos: Option<&FaultPlan>) -> Vec<SocketConfig> {
    let peers = unix_endpoints(p);
    (0..p)
        .map(|rank| SocketConfig {
            universe: universe_cfg(chaos),
            ..SocketConfig::new(rank, peers.clone())
        })
        .collect()
}

/// Runs `req` on the launches that together make up one universe — a
/// single `Threads` launch, or one `Socket` launch per rank, each
/// "process" a thread here — and stitches what they got, in order.
fn run_universe(req: Request<'_>, launches: &[Launch<'_>]) -> Outcome {
    let results = std::thread::scope(|s| {
        let handles: Vec<_> =
            launches.iter().map(|&launch| s.spawn(move || run(req, launch))).collect();
        let joined = handles.into_iter().enumerate().map(|(i, h)| {
            h.join()
                .expect("process thread panicked")
                .unwrap_or_else(|e| panic!("process {i}: {e}"))
        });
        joined.collect()
    });
    outcome(results)
}

/// Every deterministic per-rank quantity two runs must agree on.
/// Timings are excluded (wall/CPU time is not deterministic); logical
/// communication bytes are included — both backends run the same
/// message sequence, and the socket framing must not leak into the
/// logical counters.
fn rank_fingerprint(m: &RankMetrics) -> [u64; 9] {
    [
        m.tasks,
        m.probes,
        m.lookups,
        m.direct_rows,
        m.probed_rows,
        m.ppt_ops,
        m.tct_ops,
        m.local_triangles,
        m.bytes_sent,
    ]
}

/// What a whole universe produced, whichever processes held it.
#[derive(Debug, PartialEq)]
struct Outcome {
    triangles: u64,
    ranks: Vec<[u64; 9]>,
    supports: Option<Vec<EdgeSupport>>,
}

/// Stitches per-process results (rank order) into one outcome: every
/// process reports the same count, only the one that ran rank 0 holds
/// the supports.
fn outcome(results: Vec<TcResult>) -> Outcome {
    let (triangles, p) = (results[0].triangles, results[0].num_ranks);
    let mut ranks = Vec::with_capacity(p);
    let mut supports = None;
    for (i, r) in results.into_iter().enumerate() {
        assert_eq!(r.triangles, triangles, "process {i}: triangle counts diverged");
        assert_eq!(r.num_ranks, p);
        assert!(i == 0 || r.supports.is_none(), "only rank 0's process holds the supports");
        ranks.extend(r.ranks.iter().map(rank_fingerprint));
        supports = supports.or(r.supports);
    }
    assert_eq!(ranks.len(), p, "every rank reported exactly once");
    Outcome { triangles, ranks, supports }
}

/// `algorithm` on `p` ranks (with per-edge supports if asked) agrees
/// with the serial oracle and with itself over {threads, Unix-socket
/// mesh} × {list, file}.
fn conforms(el: &EdgeList, algorithm: Algorithm, p: usize, per_edge: bool) {
    let cfg = TcConfig::default();
    let bin = TempBin::new(el);
    let oracle = tc_baselines::serial::count_default(el);
    let oracle_supports: Option<Vec<EdgeSupport>> = per_edge.then(|| {
        let supports = truss::edge_supports(el).expect("simple graph");
        let edge = |(&(u, v), support)| EdgeSupport { u, v, support };
        el.edges.iter().zip(supports).map(edge).collect()
    });
    let universe = universe_cfg(None);
    let mut reference: Option<Outcome> = None;
    for (source, from) in
        [(Request::new(el, &cfg), "list"), (Request::new(&bin.file, &cfg), "file")]
    {
        let req = Request { algorithm, per_edge, ..source };
        let socks = mesh(p, None);
        let universes: [(&str, Vec<Launch<'_>>); 2] = [
            ("threads", vec![Launch::threads(p, &universe)]),
            ("a unix mesh", socks.iter().map(Launch::Socket).collect()),
        ];
        for (place, launches) in &universes {
            let got = run_universe(req, launches);
            let what = format!("{algorithm:?} p={p} per_edge={per_edge} {from} on {place}");
            assert_eq!(got.ranks.len(), p, "{what}");
            assert_eq!(got.triangles, oracle, "{what}: count differs from the serial oracle");
            assert_eq!(got.supports, oracle_supports, "{what}: supports differ from the oracle");
            match &reference {
                None => reference = Some(got),
                Some(first) => assert_eq!(&got, first, "{what}: differs from the list on threads"),
            }
        }
    }
}

fn small_graph() -> EdgeList {
    graph500(5, 7).simplify()
}

fn soak_graph() -> EdgeList {
    graph500(6, 42).simplify()
}

#[test]
fn cannon_4_ranks_conforms() {
    conforms(&small_graph(), Algorithm::Cannon, 4, false);
}

#[test]
fn cannon_9_ranks_conforms() {
    conforms(&small_graph(), Algorithm::Cannon, 9, false);
}

#[test]
fn cannon_16_ranks_conforms() {
    conforms(&soak_graph(), Algorithm::Cannon, 16, false);
}

#[test]
fn per_edge_supports_conform() {
    for p in [4, 9] {
        conforms(&small_graph(), Algorithm::Cannon, p, true);
    }
}

#[test]
fn summa_rectangular_grid_conforms() {
    conforms(&small_graph(), Algorithm::Summa(SummaGrid::new(2, 3)), 6, false);
}

/// The PR 5 chaos-soak shapes, run over the socket wire at 16 ranks:
/// injected drops/reorders/duplicates on the *socket* transport must
/// be masked with exact counts and unchanged deterministic counters.
#[test]
fn chaos_soak_shapes_conform_at_16_ranks() {
    let el = soak_graph();
    let cfg = TcConfig::default();
    let req = Request::new(&el, &cfg);
    let reference = run_universe(req, &[Launch::threads(16, &universe_cfg(None))]);
    for kind in [FaultKind::Drop, FaultKind::Reorder, FaultKind::Duplicate] {
        for seed in [11u64, 33] {
            let prob = if kind == FaultKind::Drop { 0.1 } else { 0.2 };
            let mut faults = LinkFaults::only(kind, prob);
            faults.delay_max = Duration::from_micros(30);
            let plan = FaultPlan::new(seed).with_default(faults);
            let socks = mesh(16, Some(&plan));
            let launches: Vec<_> = socks.iter().map(Launch::Socket).collect();
            let got = run_universe(req, &launches);
            assert_eq!(got, reference, "{kind:?} seed {seed}: chaos leaked into the outcome");
        }
    }
}
