//! Backend-conformance suite: the same counting pipelines on the
//! in-process fabric and on the multi-process socket fabric must be
//! *indistinguishable* — exact triangle counts, identical per-edge
//! supports, and identical per-rank deterministic counters (tasks,
//! probes, lookups, ops, logical bytes) — including under the PR 5
//! chaos soak shapes at 16 ranks.
//!
//! Each socket "process" is simulated by a thread holding its own
//! `SocketConfig`; all communication crosses real Unix-domain sockets.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use tc_core::{
    try_count_per_edge, try_count_per_edge_socket, try_count_triangles, try_count_triangles_socket,
    try_count_triangles_summa, try_count_triangles_summa_socket, EdgeSupport, RankMetrics,
    SummaGrid, TcConfig,
};
use tc_gen::graph500;
use tc_graph::EdgeList;
use tc_mps::{FaultKind, FaultPlan, LinkFaults, MpsResult, SocketConfig, UniverseConfig};

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

fn socket_cfg(rank: usize, peers: &[String], chaos: Option<&FaultPlan>) -> SocketConfig {
    SocketConfig {
        universe: UniverseConfig {
            recv_timeout: Some(Duration::from_secs(60)),
            chaos: chaos.cloned(),
            ..UniverseConfig::default()
        },
        ..SocketConfig::new(rank, peers.to_vec())
    }
}

/// Runs `f(rank_config)` once per rank, each on its own thread, and
/// returns the per-rank results in rank order.
fn run_mesh<T: Send>(
    p: usize,
    chaos: Option<&FaultPlan>,
    f: impl Fn(&SocketConfig) -> MpsResult<T> + Sync,
) -> Vec<T> {
    let peers = unix_endpoints(p);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..p)
            .map(|rank| {
                let (f, peers) = (&f, &peers);
                s.spawn(move || f(&socket_cfg(rank, peers, chaos)))
            })
            .collect();
        handles
            .into_iter()
            .enumerate()
            .map(|(rank, h)| {
                h.join()
                    .expect("rank thread panicked")
                    .unwrap_or_else(|e| panic!("rank {rank}: {e}"))
            })
            .collect()
    })
}

/// Every deterministic per-rank quantity two backends must agree on.
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

fn small_graph() -> EdgeList {
    graph500(5, 7).simplify()
}

fn soak_graph() -> EdgeList {
    graph500(6, 42).simplify()
}

#[test]
fn cannon_4_ranks_conforms() {
    let el = small_graph();
    let cfg = TcConfig::default();
    let reference = try_count_triangles(&el, 4, &cfg).expect("in-process run");
    assert!(reference.triangles > 0);
    let socket = run_mesh(4, None, |sock| try_count_triangles_socket(&el, &cfg, sock));
    for (rank, (t, m)) in socket.into_iter().enumerate() {
        assert_eq!(t, reference.triangles, "rank {rank}: triangle counts diverged");
        assert_eq!(
            rank_fingerprint(&m),
            rank_fingerprint(&reference.ranks[rank]),
            "rank {rank}: deterministic counters diverged across backends"
        );
    }
}

#[test]
fn cannon_16_ranks_conforms() {
    let el = soak_graph();
    let cfg = TcConfig::default();
    let reference = try_count_triangles(&el, 16, &cfg).expect("in-process run");
    let socket = run_mesh(16, None, |sock| try_count_triangles_socket(&el, &cfg, sock));
    for (rank, (t, m)) in socket.into_iter().enumerate() {
        assert_eq!(t, reference.triangles, "rank {rank}: triangle counts diverged");
        assert_eq!(
            rank_fingerprint(&m),
            rank_fingerprint(&reference.ranks[rank]),
            "rank {rank}: deterministic counters diverged across backends"
        );
    }
}

#[test]
fn per_edge_supports_conform() {
    let el = small_graph();
    let cfg = TcConfig::default();
    let (reference, ref_supports) = try_count_per_edge(&el, 4, &cfg).expect("in-process run");
    let socket = run_mesh(4, None, |sock| try_count_per_edge_socket(&el, &cfg, sock));
    let mut root_supports: Option<Vec<EdgeSupport>> = None;
    for (rank, (t, m, sup)) in socket.into_iter().enumerate() {
        assert_eq!(t, reference.triangles, "rank {rank}: triangle counts diverged");
        assert_eq!(rank_fingerprint(&m), rank_fingerprint(&reference.ranks[rank]));
        if rank == 0 {
            root_supports = Some(sup.expect("rank 0 gathers the supports"));
        } else {
            assert!(sup.is_none(), "only rank 0 should hold the support list");
        }
    }
    assert_eq!(
        root_supports.expect("rank 0 ran"),
        ref_supports,
        "per-edge supports diverged across backends"
    );
}

#[test]
fn summa_rectangular_grid_conforms() {
    let el = small_graph();
    let cfg = TcConfig::default();
    let grid = SummaGrid::new(2, 3);
    let reference = try_count_triangles_summa(&el, grid, &cfg).expect("in-process run");
    let socket =
        run_mesh(grid.size(), None, |sock| try_count_triangles_summa_socket(&el, grid, &cfg, sock));
    for (rank, (t, m)) in socket.into_iter().enumerate() {
        assert_eq!(t, reference.triangles, "rank {rank}: triangle counts diverged");
        assert_eq!(
            rank_fingerprint(&m),
            rank_fingerprint(&reference.ranks[rank]),
            "rank {rank}: deterministic counters diverged across backends"
        );
    }
}

/// The PR 5 chaos-soak shapes, run over the socket wire at 16 ranks:
/// injected drops/reorders/duplicates on the *socket* transport must
/// be masked with exact counts and unchanged deterministic counters.
#[test]
fn chaos_soak_shapes_conform_at_16_ranks() {
    let el = soak_graph();
    let cfg = TcConfig::default();
    let reference = try_count_triangles(&el, 16, &cfg).expect("clean in-process run");
    for kind in [FaultKind::Drop, FaultKind::Reorder, FaultKind::Duplicate] {
        for seed in [11u64, 33] {
            let prob = if kind == FaultKind::Drop { 0.1 } else { 0.2 };
            let mut faults = LinkFaults::only(kind, prob);
            faults.delay_max = Duration::from_micros(30);
            let plan = FaultPlan::new(seed).with_default(faults);
            let socket =
                run_mesh(16, Some(&plan), |sock| try_count_triangles_socket(&el, &cfg, sock));
            for (rank, (t, m)) in socket.into_iter().enumerate() {
                assert_eq!(
                    t, reference.triangles,
                    "{kind:?} seed {seed} rank {rank}: chaos changed the count"
                );
                assert_eq!(
                    rank_fingerprint(&m),
                    rank_fingerprint(&reference.ranks[rank]),
                    "{kind:?} seed {seed} rank {rank}: chaos leaked into the counters"
                );
            }
        }
    }
}
