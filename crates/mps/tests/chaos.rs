//! End-to-end tests of the chaotic fabric: the reliable-delivery
//! transport must mask every injected fault mode (delay, drop,
//! duplicate, reorder, truncate, bit-flip) transparently — same
//! results, same logical communication counters as a clean run — and
//! must keep every un-hangable guarantee of the runtime while doing it.

use std::time::Duration;

use tc_mps::{FaultKind, FaultPlan, LinkFaults, MpsError, Universe, UniverseConfig};

/// A config with `plan` installed and a deadline short enough for CI.
fn chaos_cfg(plan: FaultPlan) -> UniverseConfig {
    UniverseConfig {
        recv_timeout: Some(Duration::from_secs(30)),
        chaos: Some(plan),
        ..UniverseConfig::default()
    }
}

/// Ring exchange + allreduce + alltoallv-style manual exchange: the
/// mixed point-to-point/collective workload every mode test runs.
fn workload(c: &tc_mps::Comm) -> Result<u64, MpsError> {
    let p = c.size();
    let next = (c.rank() + 1) % p;
    let prev = (c.rank() + p - 1) % p;
    // Pipelined ring traffic: enough frames in flight for reordering
    // and duplication to actually interleave.
    for round in 0..20u64 {
        c.send_val::<u64>(next, round, c.rank() as u64 * 1000 + round);
    }
    let mut acc = 0u64;
    for round in 0..20u64 {
        let v = c.recv_val::<u64>(prev, round)?;
        assert_eq!(v, prev as u64 * 1000 + round);
        acc += v;
    }
    // Collectives must cross the same transport.
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

#[test]
fn every_fault_mode_is_masked_across_seeds() {
    let p = 8;
    let clean = Universe::try_run(p, workload).expect("clean run");
    for kind in FaultKind::ALL {
        // Probabilities high enough to fire constantly, low enough for
        // p < 1 convergence.
        let prob = match kind {
            FaultKind::Drop => 0.25,
            _ => 0.35,
        };
        for seed in [1u64, 2, 3, 4, 5] {
            let mut faults = LinkFaults::only(kind, prob);
            faults.delay_max = Duration::from_micros(50);
            let plan = FaultPlan::new(seed).with_default(faults);
            let cfg = chaos_cfg(plan);
            let out = Universe::try_run_config(p, &cfg, workload)
                .unwrap_or_else(|e| panic!("mode {} seed {seed}: {e}", kind.name()));
            assert_eq!(out.0, clean, "mode {} seed {seed}", kind.name());
        }
    }
}

#[test]
fn all_modes_at_once_with_logical_stats_identical_to_clean() {
    let p = 8;
    let (clean_out, clean_stats) =
        Universe::try_run_config(p, &UniverseConfig::default(), workload).expect("clean");
    let cfg = chaos_cfg(FaultPlan::uniform(0xDECAF, 0.15).with_default(LinkFaults {
        delay_max: Duration::from_micros(50),
        ..LinkFaults::uniform(0.15)
    }));
    let (out, stats) = Universe::try_run_config(p, &cfg, workload).expect("chaotic");
    assert_eq!(out, clean_out);
    // The transport is invisible to the logical counters: same
    // messages, same payload bytes, regardless of what the wire did.
    for (rank, (c, ch)) in clean_stats.iter().zip(&stats).enumerate() {
        assert_eq!(c.msgs_sent, ch.msgs_sent, "rank {rank}");
        assert_eq!(c.bytes_sent, ch.bytes_sent, "rank {rank}");
        assert_eq!(c.msgs_recv, ch.msgs_recv, "rank {rank}");
        assert_eq!(c.bytes_recv, ch.bytes_recv, "rank {rank}");
    }
}

#[test]
fn reliability_stats_surface_injected_faults() {
    let p = 4;
    let cfg = chaos_cfg(FaultPlan::uniform(7, 0.3).with_default(LinkFaults {
        delay_max: Duration::from_micros(20),
        ..LinkFaults::uniform(0.3)
    }));
    let totals = Universe::try_run_config(p, &cfg, |c| {
        workload(c)?;
        Ok(c.reliability_stats().expect("transport is live"))
    })
    .expect("chaotic run")
    .0
    .into_iter()
    .fold(tc_mps::ReliabilityStats::default(), |mut acc, s| {
        acc.merge(&s);
        acc
    });
    assert!(totals.frames_sent > 0);
    assert!(totals.injected_drops > 0, "{totals:?}");
    assert!(totals.injected_dups > 0, "{totals:?}");
    assert!(totals.injected_reorders > 0, "{totals:?}");
    assert!(totals.injected_corruptions > 0, "{totals:?}");
    assert!(totals.retransmits > 0, "drops must be repaired: {totals:?}");
    assert!(totals.corrupt_frames > 0, "corruptions must be caught: {totals:?}");
}

#[test]
fn chaos_off_reports_no_reliability_stats() {
    let out = Universe::try_run(3, |c| Ok(c.reliability_stats())).expect("clean");
    assert!(out.iter().all(Option::is_none), "no transport without a plan");
}

#[test]
fn unrecoverable_link_fails_typed_not_hanging() {
    // Rank 0 → rank 1 drops every frame, original and retransmit: no
    // retry budget can mask it. The receive must fail with
    // DeliveryFailed naming the link, within the deadline.
    let plan = FaultPlan::new(99)
        .with_default(LinkFaults::none())
        .with_link(0, 1, LinkFaults::only(FaultKind::Drop, 1.0))
        .with_max_retries(4)
        .with_nack_backoff(Duration::from_millis(1), Duration::from_millis(5));
    let cfg = chaos_cfg(plan);
    let t0 = std::time::Instant::now();
    let err = Universe::try_run_config(4, &cfg, |c| {
        if c.rank() == 0 {
            c.send_val::<u64>(1, 5, 42);
        }
        if c.rank() == 1 {
            c.recv_val::<u64>(0, 5)?;
        }
        c.barrier()
    })
    .expect_err("the dead link must surface");
    assert!(t0.elapsed() < Duration::from_secs(20), "failed fast, not by timeout");
    match err {
        MpsError::DeliveryFailed { src, dst, seq, attempts } => {
            assert_eq!((src, dst, seq), (0, 1, 0));
            assert!(attempts >= 4, "budget exhausted: {attempts}");
        }
        // Rank 1's failure may reach the joiner as a peer's view of it.
        MpsError::PeerFailed { msg, .. } => {
            assert!(msg.contains("delivery from rank 0 failed"), "{msg}");
        }
        other => panic!("expected DeliveryFailed, got {other}"),
    }
}

#[test]
fn every_rank_unblocks_after_delivery_failure() {
    // All peers sit in a barrier while the dead link is discovered;
    // each rank must come back with a typed error, not hang.
    let plan = FaultPlan::new(5)
        .with_default(LinkFaults::none())
        .with_link(2, 3, LinkFaults::only(FaultKind::Drop, 1.0))
        .with_max_retries(3)
        .with_nack_backoff(Duration::from_millis(1), Duration::from_millis(4));
    let cfg = chaos_cfg(plan);
    let outcomes = std::sync::Mutex::new(Vec::new());
    let _ = Universe::try_run_config(8, &cfg, |c| {
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
    let cfg = chaos_cfg(FaultPlan::uniform(21, 0.2).with_default(LinkFaults {
        delay_max: Duration::from_micros(20),
        ..LinkFaults::uniform(0.2)
    }));
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
    let cfg = chaos_cfg(FaultPlan::new(17)); // transport on, no faults
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
    let cfg = chaos_cfg(FaultPlan::uniform(31, 0.25).with_default(LinkFaults {
        delay_max: Duration::from_micros(30),
        ..LinkFaults::uniform(0.25)
    }));
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
    .expect("chaotic nonblocking run")
    .0;
    assert!(out.iter().all(|n| *n == 1280));
}

#[test]
fn grid_shifts_work_under_chaos() {
    let p = 16;
    let cfg = chaos_cfg(FaultPlan::uniform(13, 0.2).with_default(LinkFaults {
        delay_max: Duration::from_micros(20),
        ..LinkFaults::uniform(0.2)
    }));
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
    .expect("chaotic grid run")
    .0;
    for (rank, v) in out.iter().enumerate() {
        assert_eq!(*v, rank as u64, "row rotation must return home");
    }
}

#[test]
fn same_seed_same_injection_counts() {
    let p = 4;
    let run = || {
        let cfg = chaos_cfg(FaultPlan::uniform(0xFEED, 0.3).with_default(LinkFaults {
            delay_max: Duration::from_micros(10),
            ..LinkFaults::uniform(0.3)
        }));
        Universe::try_run_config(p, &cfg, |c| {
            let next = (c.rank() + 1) % p;
            let prev = (c.rank() + p - 1) % p;
            for i in 0..50u64 {
                c.send_val::<u64>(next, i, i);
            }
            for i in 0..50u64 {
                c.recv_val::<u64>(prev, i)?;
            }
            Ok(c.reliability_stats().unwrap())
        })
        .expect("chaotic run")
        .0
    };
    let (a, b) = (run(), run());
    // Send-side decisions depend only on (seed, link, seq, attempt=0),
    // so first-transmission injection counts replay exactly.
    let first_tx = |stats: &[tc_mps::ReliabilityStats]| -> (u64, u64) {
        let dups: u64 = stats.iter().map(|s| s.injected_dups).sum();
        let reorders: u64 = stats.iter().map(|s| s.injected_reorders).sum();
        (dups, reorders)
    };
    assert_eq!(first_tx(&a), first_tx(&b), "seeded injections replay");
}
