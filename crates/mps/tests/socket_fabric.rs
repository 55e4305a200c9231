//! End-to-end tests of the multi-process socket fabric backend.
//!
//! Each test stands in for a process mesh with one thread per rank,
//! every rank holding its own [`tc_mps::SocketConfig`] and talking to
//! its peers exclusively through real Unix-domain (or TCP) sockets —
//! no shared memory beyond the test harness collecting results. The
//! same workloads the in-process backend runs must produce identical
//! values, identical logical communication counters, and the same
//! typed failures.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use tc_mps::{CommStats, FaultPlan, MpsError, MpsResult, SocketConfig, Universe, UniverseConfig};

static NEXT_MESH: AtomicUsize = AtomicUsize::new(0);

/// One endpoint per rank in a fresh, collision-free namespace. Unix
/// socket paths must stay short (the kernel caps `sun_path` around
/// 108 bytes), so the names are deliberately terse.
fn unix_endpoints(p: usize) -> Vec<String> {
    let mesh = NEXT_MESH.fetch_add(1, Ordering::Relaxed);
    let pid = std::process::id();
    (0..p)
        .map(|r| {
            std::env::temp_dir()
                .join(format!("tcm-{pid}-{mesh}-{r}.sock"))
                .to_string_lossy()
                .into_owned()
        })
        .collect()
}

/// Runs `f` as a `p`-rank socket universe, one thread per rank, and
/// returns every rank's result.
fn run_mesh<T, F>(
    peers: Vec<String>,
    cfg: impl Fn(usize) -> SocketConfig + Sync,
    f: F,
) -> Vec<MpsResult<(T, CommStats)>>
where
    T: Send,
    F: Fn(&tc_mps::Comm) -> MpsResult<T> + Sync,
{
    let p = peers.len();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..p)
            .map(|rank| {
                let cfg = &cfg;
                let f = &f;
                s.spawn(move || Universe::try_run_socket(&cfg(rank), f))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("rank thread panicked")).collect()
    })
}

fn short_timeout() -> UniverseConfig {
    UniverseConfig { recv_timeout: Some(Duration::from_secs(30)), ..UniverseConfig::default() }
}

/// The mixed point-to-point/collective workload from the chaos suite:
/// pipelined ring traffic, an allreduce, a barrier, and an all-to-all
/// fan that exercises every directed link (self included).
fn workload(c: &tc_mps::Comm) -> Result<u64, MpsError> {
    let p = c.size();
    let next = (c.rank() + 1) % p;
    let prev = (c.rank() + p - 1) % p;
    for round in 0..20u64 {
        c.send_val::<u64>(next, round, c.rank() as u64 * 1000 + round);
    }
    let mut acc = 0u64;
    for round in 0..20u64 {
        let v = c.recv_val::<u64>(prev, round)?;
        assert_eq!(v, prev as u64 * 1000 + round);
        acc += v;
    }
    let total = c.allreduce_sum_u64(c.rank() as u64)?;
    assert_eq!(total, (p * (p - 1) / 2) as u64);
    c.barrier()?;
    for d in 0..p {
        c.send_val::<u64>(d, 100 + c.rank() as u64, (c.rank() * p + d) as u64);
    }
    for s in 0..p {
        let v = c.recv_val::<u64>(s, 100 + s as u64)?;
        assert_eq!(v, (s * p + c.rank()) as u64);
        acc += v;
    }
    Ok(acc + total)
}

#[test]
fn unix_mesh_matches_in_process_results() {
    let p = 4;
    let in_process = Universe::try_run(p, workload).expect("in-process run");
    let peers = unix_endpoints(p);
    let results = run_mesh(
        peers.clone(),
        |rank| SocketConfig { universe: short_timeout(), ..SocketConfig::new(rank, peers.clone()) },
        workload,
    );
    for (rank, res) in results.into_iter().enumerate() {
        let (value, _stats) = res.unwrap_or_else(|e| panic!("rank {rank}: {e}"));
        assert_eq!(value, in_process[rank], "rank {rank} diverged from the in-process backend");
    }
}

#[test]
fn backend_name_is_socket() {
    let peers = unix_endpoints(2);
    let results = run_mesh(
        peers.clone(),
        |rank| SocketConfig { universe: short_timeout(), ..SocketConfig::new(rank, peers.clone()) },
        |c| {
            assert_eq!(c.backend(), "socket");
            c.barrier()?;
            Ok(())
        },
    );
    assert!(results.into_iter().all(|r| r.is_ok()));
}

#[test]
fn tag_matching_is_out_of_order_across_the_wire() {
    let peers = unix_endpoints(2);
    let results = run_mesh(
        peers.clone(),
        |rank| SocketConfig { universe: short_timeout(), ..SocketConfig::new(rank, peers.clone()) },
        |c| {
            let other = 1 - c.rank();
            // Send tags in one order, receive them in the other: matching
            // must hold even though the wire delivers strictly in order.
            c.send_val::<u64>(other, 7, 70);
            c.send_val::<u64>(other, 8, 80);
            let hi = c.recv_val::<u64>(other, 8)?;
            let lo = c.recv_val::<u64>(other, 7)?;
            Ok((lo, hi))
        },
    );
    for res in results {
        assert_eq!(res.unwrap().0, (70, 80));
    }
}

#[test]
fn sixteen_ranks_over_unix_sockets() {
    let p = 16;
    let in_process = Universe::try_run(p, workload).expect("in-process run");
    let peers = unix_endpoints(p);
    let results = run_mesh(
        peers.clone(),
        |rank| SocketConfig { universe: short_timeout(), ..SocketConfig::new(rank, peers.clone()) },
        workload,
    );
    for (rank, res) in results.into_iter().enumerate() {
        let (value, stats) = res.unwrap_or_else(|e| panic!("rank {rank}: {e}"));
        assert_eq!(value, in_process[rank]);
        assert!(stats.msgs_sent > 0 && stats.msgs_recv > 0);
    }
}

#[test]
fn tcp_mesh_smoke() {
    // Discover two free ports, then hand them to the mesh. The gap
    // between dropping the probe listener and the fabric rebinding is
    // a real (tiny) race; an occupied port fails loudly, not silently.
    let peers: Vec<String> = (0..2)
        .map(|_| {
            let probe = std::net::TcpListener::bind("127.0.0.1:0").expect("probe bind");
            let addr = probe.local_addr().expect("probe addr");
            format!("127.0.0.1:{}", addr.port())
        })
        .collect();
    let results = run_mesh(
        peers.clone(),
        |rank| SocketConfig { universe: short_timeout(), ..SocketConfig::new(rank, peers.clone()) },
        workload,
    );
    let in_process = Universe::try_run(2, workload).expect("in-process run");
    for (rank, res) in results.into_iter().enumerate() {
        assert_eq!(res.unwrap_or_else(|e| panic!("rank {rank}: {e}")).0, in_process[rank]);
    }
}

#[test]
fn rank_error_fails_every_peer() {
    let p = 4;
    let peers = unix_endpoints(p);
    let results = run_mesh(
        peers.clone(),
        |rank| SocketConfig { universe: short_timeout(), ..SocketConfig::new(rank, peers.clone()) },
        |c| -> MpsResult<u64> {
            if c.rank() == 2 {
                return Err(MpsError::Protocol { rank: 2, msg: "synthetic failure".into() });
            }
            // Everyone else blocks on traffic that will never come; the
            // relayed failure must wake them with a typed error, not a
            // deadline expiry.
            let v = c.recv_val::<u64>(2, 42)?;
            Ok(v)
        },
    );
    for (rank, res) in results.into_iter().enumerate() {
        let err = res.expect_err("every rank must observe the failure");
        match (rank, err) {
            (2, MpsError::Protocol { rank: 2, .. }) => {}
            (_, MpsError::PeerFailed { .. } | MpsError::Protocol { .. }) => {}
            (r, other) => panic!("rank {r}: unexpected error {other:?}"),
        }
    }
}

#[test]
fn epoch_mismatch_is_rejected_at_handshake() {
    let peers = unix_endpoints(2);
    let results = run_mesh(
        peers.clone(),
        |rank| SocketConfig {
            epoch: rank as u64, // ranks disagree on the launch epoch
            universe: short_timeout(),
            ..SocketConfig::new(rank, peers.clone())
        },
        |c| {
            c.barrier()?;
            Ok(())
        },
    );
    for res in results {
        assert!(
            matches!(res, Err(MpsError::Protocol { .. })),
            "a cross-epoch connection must be refused before any traffic"
        );
    }
}

#[test]
fn chaos_over_sockets_is_masked() {
    let p = 4;
    let clean = Universe::try_run(p, workload).expect("clean run");
    for seed in [1u64, 7, 42] {
        let peers = unix_endpoints(p);
        let results = run_mesh(
            peers.clone(),
            |rank| SocketConfig {
                universe: UniverseConfig {
                    recv_timeout: Some(Duration::from_secs(30)),
                    chaos: Some(FaultPlan::uniform(seed, 0.05)),
                    ..UniverseConfig::default()
                },
                ..SocketConfig::new(rank, peers.clone())
            },
            workload,
        );
        for (rank, res) in results.into_iter().enumerate() {
            let (value, _) = res.unwrap_or_else(|e| panic!("seed {seed} rank {rank}: {e}"));
            assert_eq!(value, clean[rank], "seed {seed}: chaos changed rank {rank}'s result");
        }
    }
}

#[test]
fn socket_config_from_env_roundtrip() {
    // This is the only test in the binary that touches these env vars,
    // and no other test reads them, so no cross-test race.
    assert!(SocketConfig::from_env().is_none(), "unset env must mean no socket config");
    std::env::set_var(tc_mps::FABRIC_RANK_ENV, "1");
    std::env::set_var(tc_mps::FABRIC_PEERS_ENV, " /tmp/a.sock , /tmp/b.sock ,/tmp/c.sock");
    std::env::set_var(tc_mps::FABRIC_EPOCH_ENV, "9");
    let cfg = SocketConfig::from_env().expect("both required vars are set");
    assert_eq!(cfg.rank, 1);
    assert_eq!(cfg.peers, vec!["/tmp/a.sock", "/tmp/b.sock", "/tmp/c.sock"]);
    assert_eq!(cfg.epoch, 9);
    std::env::remove_var(tc_mps::FABRIC_RANK_ENV);
    std::env::remove_var(tc_mps::FABRIC_PEERS_ENV);
    std::env::remove_var(tc_mps::FABRIC_EPOCH_ENV);
}

/// Regression: a dialer that connects and then says nothing must not
/// wedge the accept loop. Rank 0 gets a silent connection strictly
/// before the real peer dials (rank 1 is held back until the saboteur
/// owns a connection, so the race is deterministic); with a
/// per-connection handshake deadline the saboteur is dropped and the
/// mesh still forms.
#[test]
fn stalled_dialer_cannot_wedge_the_accept_loop() {
    let peers = unix_endpoints(2);
    let ep0 = peers[0].clone();
    let saboteur_in = std::sync::atomic::AtomicBool::new(false);
    let cfg = |rank: usize| {
        let mut cfg = SocketConfig::new(rank, peers.clone());
        cfg.universe = short_timeout();
        cfg.handshake_timeout = Some(Duration::from_millis(200));
        cfg
    };
    let results = std::thread::scope(|s| {
        let rank0 = s.spawn(|| Universe::try_run_socket(&cfg(0), workload));
        // The saboteur: connect to rank 0 the moment it binds, then
        // hold the socket open without a single handshake byte.
        let saboteur_in = &saboteur_in;
        let saboteur = s.spawn(move || {
            let deadline = std::time::Instant::now() + Duration::from_secs(10);
            loop {
                match std::os::unix::net::UnixStream::connect(&ep0) {
                    Ok(stream) => {
                        saboteur_in.store(true, Ordering::SeqCst);
                        // Outlive the 200 ms handshake budget by far.
                        std::thread::sleep(Duration::from_millis(1200));
                        drop(stream);
                        return true;
                    }
                    Err(_) if std::time::Instant::now() < deadline => {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    Err(_) => return false,
                }
            }
        });
        let rank1 = s.spawn(|| {
            let deadline = std::time::Instant::now() + Duration::from_secs(10);
            while !saboteur_in.load(Ordering::SeqCst) {
                assert!(std::time::Instant::now() < deadline, "saboteur never connected");
                std::thread::sleep(Duration::from_millis(1));
            }
            Universe::try_run_socket(&cfg(1), workload)
        });
        assert!(saboteur.join().expect("saboteur thread"), "saboteur never got a connection");
        vec![rank0.join().expect("rank 0 thread"), rank1.join().expect("rank 1 thread")]
    });
    let in_process = Universe::try_run(2, workload).expect("in-process reference");
    for (rank, res) in results.into_iter().enumerate() {
        let (value, _stats) = res.unwrap_or_else(|e| panic!("rank {rank} failed: {e}"));
        assert_eq!(value, in_process[rank], "rank {rank} workload value");
    }
}

#[test]
fn a_mixed_universe_is_rejected_at_handshake() {
    // Rank 0 runs the reliable layer (a fault plan), rank 1 does not:
    // their frames would mean different things, so neither may start.
    let peers = unix_endpoints(2);
    let results = run_mesh(
        peers.clone(),
        |rank| SocketConfig {
            universe: UniverseConfig {
                recv_timeout: Some(Duration::from_secs(30)),
                chaos: (rank == 0).then(|| FaultPlan::new(5)),
                ..UniverseConfig::default()
            },
            ..SocketConfig::new(rank, peers.clone())
        },
        |c| c.barrier(),
    );
    for res in results {
        match res {
            Err(MpsError::Protocol { msg, .. }) => {
                assert!(msg.contains("reliable-layer mismatch"), "{msg}")
            }
            other => panic!("a mixed universe must be refused at the handshake: {other:?}"),
        }
    }
}

#[test]
fn a_planned_crash_spares_a_respawned_rank() {
    // A supervisor respawns a crashed rank at a bumped epoch with the
    // launch's environment, crash point included. It must neither
    // crash again (this test process would abort) nor disagree with
    // its survivors about the reliable layer.
    let p = 2;
    let clean = Universe::try_run(p, workload).expect("clean run");
    let peers = unix_endpoints(p);
    let results = run_mesh(
        peers.clone(),
        |rank| SocketConfig {
            epoch: 1,
            recoverable: true,
            universe: UniverseConfig {
                recv_timeout: Some(Duration::from_secs(30)),
                chaos: Some(FaultPlan::new(3).crash_at(1, 1)),
                ..UniverseConfig::default()
            },
            ..SocketConfig::new(rank, peers.clone())
        },
        workload,
    );
    for (rank, res) in results.into_iter().enumerate() {
        let (value, _) = res.unwrap_or_else(|e| panic!("rank {rank}: {e}"));
        assert_eq!(value, clean[rank]);
    }
}

#[test]
fn the_io_thread_cpu_is_counted_on_sockets_only() {
    // Each socket rank records what its I/O thread spent on the wire;
    // an in-process universe has no such thread and no such counter,
    // so its snapshots stay comparable with the checked-in baselines.
    use tc_metrics::names::MPS_FABRIC_IO_CPU_NS;
    let session = tc_metrics::MetricsSession::begin();
    let peers = unix_endpoints(2);
    let results = run_mesh(
        peers.clone(),
        |rank| SocketConfig {
            universe: UniverseConfig { metrics: Some(session.handle()), ..short_timeout() },
            ..SocketConfig::new(rank, peers.clone())
        },
        workload,
    );
    for (rank, res) in results.into_iter().enumerate() {
        res.unwrap_or_else(|e| panic!("rank {rank}: {e}"));
    }
    let snap = session.finish();
    for rank in 0..2 {
        let cpu = snap.counter(rank, MPS_FABRIC_IO_CPU_NS);
        assert!(cpu.is_some_and(|ns| ns > 0), "rank {rank}: {MPS_FABRIC_IO_CPU_NS} = {cpu:?}");
    }

    let session = tc_metrics::MetricsSession::begin();
    let cfg = UniverseConfig { metrics: Some(session.handle()), ..short_timeout() };
    Universe::try_run_config(2, &cfg, workload).expect("in-process run");
    let snap = session.finish();
    assert_eq!(snap.ranks(), vec![0, 1]);
    for rank in 0..2 {
        assert_eq!(snap.counter(rank, MPS_FABRIC_IO_CPU_NS), None, "rank {rank}");
    }
}
