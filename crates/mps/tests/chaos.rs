//! End-to-end tests of the delayed fabric: seeded sender-side delays
//! reshape when messages arrive, so every receive, collective and
//! request interleaves differently from a clean run — and results,
//! logical communication counters and every un-hangable guarantee of
//! the runtime must not change.

use std::time::Duration;

use tc_metrics::names::MPS_REL_INJECTED_DELAYS;
use tc_mps::{FaultPlan, MpsError, Universe, UniverseConfig};

/// A config with `plan` installed and a deadline short enough for CI.
fn chaos_cfg(plan: FaultPlan) -> UniverseConfig {
    UniverseConfig {
        recv_timeout: Some(Duration::from_secs(30)),
        chaos: Some(plan),
        ..UniverseConfig::default()
    }
}

/// Delays on every send with probability `p`, at most `max_us` each.
fn delays(seed: u64, p: f64, max_us: u64) -> FaultPlan {
    FaultPlan::new(seed).with_delay(p, Duration::from_micros(max_us))
}

/// Ring exchange + allreduce + alltoallv-style manual exchange: the
/// mixed point-to-point/collective workload every plan test runs.
fn workload(c: &tc_mps::Comm) -> Result<u64, MpsError> {
    let p = c.size();
    let next = (c.rank() + 1) % p;
    let prev = (c.rank() + p - 1) % p;
    // Pipelined ring traffic: enough messages in flight for delays to
    // interleave them with the collectives below.
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
    // All-to-all point-to-point fan: stresses every directed link.
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

/// Runs `workload` on `p` ranks under `plan` with a metrics session and
/// returns the results and each rank's `mps.rel.injected_delays`.
fn run_counted(p: usize, plan: FaultPlan) -> (Vec<u64>, Vec<u64>) {
    let session = tc_metrics::MetricsSession::begin();
    let cfg = UniverseConfig { metrics: Some(session.handle()), ..chaos_cfg(plan) };
    let out = Universe::try_run_config(p, &cfg, workload).expect("delayed run").0;
    let snap = session.finish();
    let delays = (0..p).map(|r| snap.counter(r, MPS_REL_INJECTED_DELAYS).unwrap_or(0)).collect();
    (out, delays)
}

#[test]
fn every_fault_mode_is_masked_across_seeds() {
    // The one injected mode in three shapes: frequent short delays,
    // rare long ones, and delays on half of the ring's links only.
    let p = 8;
    let clean = Universe::try_run(p, workload).expect("clean run");
    let ring: Vec<(usize, usize)> = (0..p).step_by(2).map(|r| (r, (r + 1) % p)).collect();
    for seed in [1u64, 2, 3, 4, 5] {
        for (shape, plan) in [
            ("frequent", delays(seed, 0.35, 50)),
            ("rare-long", delays(seed, 0.05, 2000)),
            ("half-ring", delays(seed, 0.8, 100).with_restrict(ring.clone())),
        ] {
            let out = Universe::try_run_config(p, &chaos_cfg(plan), workload)
                .unwrap_or_else(|e| panic!("{shape} seed {seed}: {e}"));
            assert_eq!(out.0, clean, "{shape} seed {seed}");
        }
    }
}

#[test]
fn all_modes_at_once_with_logical_stats_identical_to_clean() {
    let p = 8;
    let (clean_out, clean_stats) =
        Universe::try_run_config(p, &UniverseConfig::default(), workload).expect("clean");
    let cfg = chaos_cfg(delays(0xDECAF, 0.3, 50).crash_at(3, 1));
    let (out, stats) = Universe::try_run_config(p, &cfg, workload).expect("delayed");
    assert_eq!(out, clean_out);
    // Delays are invisible to the logical counters: same messages,
    // same payload bytes. (The crash point is for socket processes
    // only; in-process it must change nothing.)
    for (rank, (c, ch)) in clean_stats.iter().zip(&stats).enumerate() {
        assert_eq!(c.msgs_sent, ch.msgs_sent, "rank {rank}");
        assert_eq!(c.bytes_sent, ch.bytes_sent, "rank {rank}");
        assert_eq!(c.msgs_recv, ch.msgs_recv, "rank {rank}");
        assert_eq!(c.bytes_recv, ch.bytes_recv, "rank {rank}");
    }
}

#[test]
fn reliability_stats_surface_injected_faults() {
    let (_, delays) = run_counted(4, delays(7, 0.3, 20));
    assert!(delays.iter().all(|&d| d > 0), "every rank delayed some sends: {delays:?}");
    // A plan restricted to one link delays only its sender.
    let one_link = FaultPlan::new(7).with_delay(1.0, Duration::from_micros(5));
    let (_, delays) = run_counted(4, one_link.with_restrict(vec![(2, 3)]));
    assert!(delays[2] > 0 && delays.iter().enumerate().all(|(r, &d)| r == 2 || d == 0));
}

#[test]
fn chaos_off_reports_no_reliability_stats() {
    let session = tc_metrics::MetricsSession::begin();
    let cfg = UniverseConfig { metrics: Some(session.handle()), ..UniverseConfig::default() };
    Universe::try_run_config(3, &cfg, workload).expect("clean");
    let snap = session.finish();
    for rank in 0..3 {
        assert_eq!(snap.counter(rank, MPS_REL_INJECTED_DELAYS), None, "rank {rank}");
    }
}

/// A receive deadline of 100 ms, and every send on `src → dst` delayed
/// by up to a second: under seed 1 the first sends of the links 0 → 1
/// and 2 → 3 each sleep longer than the deadline (763 and 861 ms), so
/// the link is dead for the receiver.
fn stalled_link(src: usize, dst: usize) -> UniverseConfig {
    UniverseConfig {
        recv_timeout: Some(Duration::from_millis(100)),
        chaos: Some(delays(1, 1.0, 1_000_000).with_restrict(vec![(src, dst)])),
        ..UniverseConfig::default()
    }
}

#[test]
fn unrecoverable_link_fails_typed_not_hanging() {
    // A stalled link is the fault model's "wedged peer": the receiver
    // fails with a typed Timeout naming the link, not a hang.
    let t0 = std::time::Instant::now();
    let err = Universe::try_run_config(2, &stalled_link(0, 1), |c| {
        if c.rank() == 0 {
            c.send_val::<u64>(1, 5, 42);
            Ok(0)
        } else {
            c.recv_val::<u64>(0, 5)
        }
    })
    .expect_err("the stalled link must surface");
    assert!(t0.elapsed() < Duration::from_secs(5), "failed fast: {:?}", t0.elapsed());
    match err {
        MpsError::Timeout { rank, src, tag, report, .. } => {
            assert_eq!((rank, src, tag), (1, 0, 5));
            assert!(report.contains("rank 1: blocked in recv from rank 0"), "{report}");
        }
        other => panic!("expected a Timeout, got {other}"),
    }
}

#[test]
fn every_rank_unblocks_after_delivery_failure() {
    // All peers sit in a barrier while the stalled link times out; each
    // rank must come back with a typed error, not hang.
    let outcomes = std::sync::Mutex::new(Vec::new());
    let _ = Universe::try_run_config(8, &stalled_link(2, 3), |c| {
        if c.rank() == 2 {
            c.send_val::<u64>(3, 9, 1);
        }
        let r: Result<(), MpsError> =
            if c.rank() == 3 { c.recv_val::<u64>(2, 9).map(|_| ()) } else { c.barrier() };
        outcomes.lock().unwrap().push((c.rank(), r.is_err()));
        r
    });
    let seen = outcomes.into_inner().unwrap();
    assert_eq!(seen.len(), 8, "every rank returned");
    assert!(seen.iter().all(|(_, is_err)| *is_err), "every rank observed the failure: {seen:?}");
}

#[test]
fn peer_panic_propagates_under_chaos() {
    let cfg = chaos_cfg(delays(21, 0.2, 20));
    let err = Universe::try_run_config(4, &cfg, |c| {
        if c.rank() == 2 {
            panic!("chaotic casualty");
        }
        c.barrier()
    })
    .expect_err("panic must surface");
    match err {
        MpsError::PeerFailed { rank, msg } => {
            assert_eq!(rank, 2);
            assert!(msg.contains("chaotic casualty"), "{msg}");
        }
        other => panic!("expected PeerFailed, got {other}"),
    }
}

#[test]
fn collective_mismatch_detected_under_chaos() {
    let cfg = chaos_cfg(delays(17, 0.5, 200));
    let err = Universe::try_run_config(2, &cfg, |c| {
        if c.rank() == 0 {
            c.barrier()
        } else {
            c.allreduce_sum_u64(1).map(|_| ())
        }
    })
    .expect_err("crossed collectives must be caught");
    let all = err.to_string();
    assert!(
        all.contains("mismatch") || all.contains("failed"),
        "typed cross-collective failure, got: {all}"
    );
}

#[test]
fn nonblocking_requests_survive_chaos() {
    let p = 6;
    let cfg = chaos_cfg(delays(31, 0.25, 30));
    let out = Universe::try_run_config(p, &cfg, |c| {
        let next = (c.rank() + 1) % p;
        let prev = (c.rank() + p - 1) % p;
        let sends: Vec<_> = (0..10u64)
            .map(|i| c.isend_bytes(next, i, bytes::Bytes::from(vec![i as u8; 128])))
            .collect();
        let recvs: Vec<_> = (0..10u64).map(|i| c.irecv_bytes(prev, i)).collect();
        let bufs = tc_mps::waitall(recvs)?;
        for s in sends {
            s.wait()?;
        }
        Ok(bufs.iter().map(|b| b.len()).sum::<usize>())
    })
    .expect("delayed nonblocking run")
    .0;
    assert!(out.iter().all(|n| *n == 1280));
}

#[test]
fn grid_shifts_work_under_chaos() {
    let p = 16;
    let cfg = chaos_cfg(delays(13, 0.2, 20));
    let out = Universe::try_run_config(p, &cfg, |c| {
        let grid = tc_mps::Grid::new(c);
        let mut val = vec![c.rank() as u64];
        // A full row rotation returns every payload home.
        for _ in 0..grid.q() {
            let bytes =
                grid.shift_left(bytes::Bytes::from(tc_mps::pod::bytes_of(&val).to_vec()))?;
            val = tc_mps::pod::vec_from_bytes::<u64>(bytes.as_slice());
        }
        Ok(val[0])
    })
    .expect("delayed grid run")
    .0;
    for (rank, v) in out.iter().enumerate() {
        assert_eq!(*v, rank as u64, "row rotation must return home");
    }
}

#[test]
fn same_seed_same_injection_counts() {
    // Whether a send sleeps depends only on (seed, link, n-th send on
    // the link), so each rank's delay count replays exactly.
    let (a, b) = (run_counted(4, delays(0xFEED, 0.3, 10)), run_counted(4, delays(0xFEED, 0.3, 10)));
    assert_eq!(a, b, "seeded delays replay");
    assert!(a.1.iter().sum::<u64>() > 0);
    assert_ne!(run_counted(4, delays(0xBEEF, 0.3, 10)).1, a.1, "the seed matters");
}
