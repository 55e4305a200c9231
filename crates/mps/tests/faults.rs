//! Fault-injection tests: the runtime must never hang. A panic in any
//! phase of a Cannon-style pipeline surfaces as [`MpsError::PeerFailed`]
//! on every peer (demonstrated by the universe joining promptly), a
//! silently wedged rank surfaces as [`MpsError::Timeout`] with a
//! per-rank diagnostic report, and ranks that diverge in their
//! collective call sequence surface as
//! [`MpsError::CollectiveMismatch`].

use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use bytes::Bytes;
use tc_mps::{Comm, Grid, MpsError, MpsResult, Universe, UniverseConfig};

/// Phases of the miniature pipeline below, in execution order
/// (`shift-*` entries assume the 3×3 grid used by the tests).
const PHASES: &[&str] = &["preprocess", "skew", "shift-0", "shift-1", "shift-2", "final-allreduce"];

/// A scaled-down version of the paper's pipeline: distribute "edges"
/// (alltoallv + allreduce), skew blocks (grid exchange), `q` rounds of
/// `shift_left`/`shift_up` with a local accumulation, and a final
/// allreduce. Panics at `fail_phase` when this rank is `fail_rank`.
fn mini_cannon(c: &Comm, fail_phase: Option<&str>, fail_rank: usize) -> MpsResult<u64> {
    let p = c.size();
    let boom = |phase: &str| {
        if fail_phase == Some(phase) && c.rank() == fail_rank {
            panic!("injected failure in {phase}");
        }
    };

    // Preprocessing stand-in: personalized exchange + global count.
    boom("preprocess");
    let sends: Vec<Vec<u64>> = (0..p).map(|d| vec![(c.rank() * p + d) as u64; 4]).collect();
    let received = c.alltoallv(&sends)?;
    let local: u64 = received.iter().map(|v| v.len() as u64).sum();
    let total = c.allreduce_sum_u64(local)?;
    assert_eq!(total, (p * p * 4) as u64);

    // Initial Cannon skew along rows.
    let g = Grid::new(c);
    let q = g.q();
    boom("skew");
    let dst_col = (g.col() + q - g.row()) % q;
    let src_col = (g.col() + g.row()) % q;
    let mut block =
        g.exchange_bytes(g.row(), dst_col, Bytes::from(vec![c.rank() as u8]), g.row(), src_col)?;

    // q shift rounds, each moving a U block left and an L block up.
    let mut partial = 0u64;
    for s in 0..q {
        boom(&format!("shift-{s}"));
        block = g.shift_left(block)?;
        let lblock = g.shift_up(Bytes::from(vec![block[0]]))?;
        partial += block[0] as u64 + lblock[0] as u64;
    }

    boom("final-allreduce");
    c.allreduce_sum_u64(partial)
}

#[test]
fn healthy_pipeline_is_deterministic() {
    let a = Universe::try_run(9, |c| mini_cannon(c, None, 0)).unwrap();
    let b = Universe::try_run(9, |c| mini_cannon(c, None, 0)).unwrap();
    assert_eq!(a, b);
    // Allreduced, so every rank reports the same total.
    assert!(a.windows(2).all(|w| w[0] == w[1]));
}

#[test]
fn panic_at_every_phase_unblocks_all_peers() {
    let p = 9;
    // A short deadline bounds the damage if propagation were broken:
    // the elapsed-time assertion below would then see ~10 s, not 60 s.
    let cfg = UniverseConfig::with_timeout(Duration::from_secs(10));
    for (i, phase) in PHASES.iter().enumerate() {
        let fail_rank = i % p;
        let t0 = Instant::now();
        let err = Universe::try_run_config(p, &cfg, |c| mini_cannon(c, Some(phase), fail_rank))
            .unwrap_err();
        // try_run only returns once every rank has been joined, so a
        // prompt return proves all peers were unblocked.
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "phase {phase}: universe took {:?} to unwind",
            t0.elapsed()
        );
        match err {
            MpsError::PeerFailed { rank, msg } => {
                assert_eq!(rank, fail_rank, "phase {phase}");
                assert!(
                    msg.contains(&format!("injected failure in {phase}")),
                    "phase {phase}: unexpected message {msg:?}"
                );
            }
            other => panic!("phase {phase}: expected PeerFailed, got {other}"),
        }
    }
}

#[test]
fn wedged_rank_surfaces_as_timeout_with_report() {
    // Rank 3 neither crashes nor participates — the failure mode a
    // hung remote process would show. Peers must give up at the
    // deadline and the report must cover every rank.
    //
    // The wedge is event-driven, not a sleep: rank 3 stays out of
    // every operation until the first peer has hit its deadline and
    // aborted, however long the scheduler takes to get there, so the
    // test asserts nothing about elapsed time and cannot lose a race
    // under load.
    let cfg = UniverseConfig::with_timeout(Duration::from_millis(300));
    let aborted = (Mutex::new(false), Condvar::new());
    let err = Universe::try_run_config(4, &cfg, |c| {
        let (flag, signal) = &aborted;
        if c.rank() == 3 {
            let mut gave_up = flag.lock().expect("abort flag");
            while !*gave_up {
                gave_up = signal.wait(gave_up).expect("abort flag");
            }
            return Ok(0);
        }
        let out = c.allreduce_sum_u64(1);
        *flag.lock().expect("abort flag") = true;
        signal.notify_all();
        out
    })
    .unwrap_err();
    match err {
        MpsError::Timeout { report, .. } => {
            for r in 0..4 {
                assert!(report.contains(&format!("rank {r}:")), "missing rank {r} in:\n{report}");
            }
            assert!(report.contains("blocked in"), "no blocked-op line in:\n{report}");
        }
        other => panic!("expected Timeout, got {other}"),
    }
}

#[test]
fn diverged_collective_sequence_is_reported() {
    // Rank 0 enters a barrier while rank 1 enters an allreduce: a
    // textbook collective mismatch. Must abort with a report naming
    // both operations, not hang or decode garbage.
    let err = Universe::try_run(2, |c| {
        if c.rank() == 0 {
            c.barrier()?;
            Ok(0)
        } else {
            c.allreduce_sum_u64(1)
        }
    })
    .unwrap_err();
    match err {
        MpsError::CollectiveMismatch { expected, got, .. } => {
            assert!(expected.contains("barrier"), "{expected}");
            assert!(got.contains("reduce"), "{got}");
        }
        other => panic!("expected CollectiveMismatch, got {other}"),
    }
}

#[cfg(debug_assertions)]
#[test]
fn mismatched_payload_type_is_reported() {
    // Same collective, different element types: the tags agree, so
    // only the debug-build payload stamp can catch this.
    let err = Universe::try_run(2, |c| {
        if c.rank() == 0 {
            Ok(c.allreduce(&[1u32], |a, b| *a += *b)?[0] as u64)
        } else {
            Ok(c.allreduce(&[1u64], |a, b| *a += *b)?[0])
        }
    })
    .unwrap_err();
    match err {
        MpsError::CollectiveMismatch { expected, got, .. } => {
            assert!(expected.contains("4-byte"), "{expected}");
            assert!(got.contains("8-byte"), "{got}");
        }
        other => panic!("expected CollectiveMismatch, got {other}"),
    }
}

#[test]
fn peer_panic_fails_outstanding_irecv() {
    // Rank 0 posts an irecv and computes before waiting (the
    // overlapped-shift pattern); its peer dies in the overlap window.
    // The wait must surface PeerFailed promptly, not run out the clock.
    let cfg = UniverseConfig::with_timeout(Duration::from_secs(10));
    let t0 = Instant::now();
    let err = Universe::try_run_config(2, &cfg, |c| {
        if c.rank() == 0 {
            let req = c.irecv_bytes(1, 7);
            req.wait().map(|b| b.len() as u64)
        } else {
            panic!("injected failure with a request in flight");
        }
    })
    .unwrap_err();
    assert!(t0.elapsed() < Duration::from_secs(5), "unwind took {:?}", t0.elapsed());
    match err {
        MpsError::PeerFailed { rank, msg } => {
            assert_eq!(rank, 1);
            assert!(msg.contains("request in flight"), "{msg}");
        }
        other => panic!("expected PeerFailed, got {other}"),
    }
}

#[test]
fn irecv_wait_times_out_with_report() {
    // The deadline applies to the wait, and the blocked-op line in the
    // diagnostic dump names the nonblocking receive.
    let cfg = UniverseConfig::with_timeout(Duration::from_millis(300));
    let err = Universe::try_run_config(2, &cfg, |c| {
        if c.rank() == 0 {
            let req = c.irecv_bytes(1, 9);
            req.wait().map(|b| b.len() as u64)
        } else {
            // Stays alive (so no fail-fast on termination) but never
            // sends — the wedged-peer case for a posted receive.
            std::thread::sleep(Duration::from_millis(1200));
            Ok(0)
        }
    })
    .unwrap_err();
    let text = err.to_string();
    match err {
        MpsError::Timeout { op, report, .. } => {
            assert_eq!(op, "irecv");
            // The dump covers every rank and is taken before the waiter
            // clears its own blocked slot.
            assert!(report.contains("rank 0:") && report.contains("rank 1:"), "{report}");
            assert!(report.contains("rank 0: blocked in irecv from rank 1"), "{report}");
            assert!(text.contains("irecv"), "op missing from rendering: {text}");
        }
        other => panic!("expected Timeout, got {other}"),
    }
}

#[test]
fn unwaited_request_parks_harmlessly() {
    // Dropping a request without waiting leaves its packet parked
    // under a unique tag; later traffic and collectives on the same
    // channel must be unaffected.
    let out = Universe::try_run(4, |c| {
        let g = Grid::new(c);
        let dropped = g.shift_left_start(Bytes::from(vec![c.rank() as u8]));
        drop(dropped);
        let followup = g.shift_left(Bytes::from(vec![c.rank() as u8 + 10]))?;
        let sum = c.allreduce_sum_u64(followup[0] as u64)?;
        Ok(sum)
    })
    .unwrap();
    // Every rank received its right neighbour's follow-up payload.
    assert!(out.windows(2).all(|w| w[0] == w[1]));
    assert_eq!(out[0], (0..4).sum::<u64>() + 4 * 10);
}

#[test]
fn collective_mismatch_with_outstanding_request_is_detected() {
    // A rank diverging into the wrong collective while another has an
    // un-waited request posted: mismatch detection must still win.
    let err = Universe::try_run(2, |c| {
        if c.rank() == 0 {
            let _pending = c.irecv_bytes(1, 11);
            c.barrier()?;
            Ok(0)
        } else {
            c.allreduce_sum_u64(1)
        }
    })
    .unwrap_err();
    match err {
        MpsError::CollectiveMismatch { expected, got, .. } => {
            assert!(expected.contains("barrier") || got.contains("barrier"), "{expected} / {got}");
        }
        other => panic!("expected CollectiveMismatch, got {other}"),
    }
}

#[test]
fn failure_in_one_universe_does_not_poison_the_next() {
    for round in 0..3 {
        let err = Universe::try_run(4, |c| mini_cannon(c, Some("shift-1"), round % 4)).unwrap_err();
        assert!(matches!(err, MpsError::PeerFailed { .. }));
        let ok = Universe::try_run(4, |c| mini_cannon(c, None, 0)).unwrap();
        assert!(ok.windows(2).all(|w| w[0] == w[1]));
    }
}

#[test]
fn error_display_is_informative() {
    let cfg = UniverseConfig::with_timeout(Duration::from_millis(200));
    let err = Universe::try_run_config(2, &cfg, |c| {
        let peer = 1 - c.rank();
        c.recv_val::<u64>(peer, 7)
    })
    .unwrap_err();
    let text = err.to_string();
    assert!(text.contains("timed out"), "{text}");
    assert!(text.contains("tag 0x7"), "{text}");
}
