//! Chaos soak: the full 2D algorithms on a 16-rank grid with the
//! fabric actively misbehaving under every fault mode and multiple
//! seeds. The reliable-delivery transport must make the chaos
//! invisible — exact triangle counts, identical per-edge supports, and
//! unchanged deterministic kernel counters versus a clean run — and an
//! unmaskable dead link must surface as a typed error within the
//! deadline instead of a hang.

use std::time::Duration;

use tc_core::{SummaGrid, TcConfig, TcResult};
use tc_gen::graph500;
use tc_graph::EdgeList;
use tc_mps::{FaultKind, FaultPlan, LinkFaults, MpsError, UniverseConfig};

mod common;
use common::{cannon, cannon_per_edge, summa, PLAIN};

const P: usize = 16;

fn soak_graph(seed: u64) -> EdgeList {
    graph500(6, seed).simplify()
}

/// The deterministic fingerprint of one run: count plus the kernel
/// quantities the paper's tables are built on.
fn fingerprint(r: &TcResult) -> (u64, u64, u64) {
    (r.triangles, r.total_tasks(), r.total_probes())
}

fn mode_plan(kind: FaultKind, seed: u64) -> FaultPlan {
    // High enough to fire on most links every run, low enough that
    // retransmits converge quickly in a debug-build test.
    let prob = if kind == FaultKind::Drop { 0.2 } else { 0.3 };
    let mut faults = LinkFaults::only(kind, prob);
    faults.delay_max = Duration::from_micros(30);
    FaultPlan::new(seed).with_default(faults)
}

#[test]
fn cannon_16_ranks_exact_under_every_mode_and_seed() {
    let el = soak_graph(42);
    let cfg = TcConfig::default();
    let clean = cannon(&el, P, &cfg, &PLAIN).expect("clean");
    assert!(clean.triangles > 0, "soak graph must actually have triangles");
    for kind in FaultKind::ALL {
        for seed in [11u64, 22, 33, 44, 55] {
            let plan = mode_plan(kind, seed);
            let obs = UniverseConfig { chaos: Some(plan), ..UniverseConfig::default() };
            let r = cannon(&el, P, &cfg, &obs)
                .unwrap_or_else(|e| panic!("cannon mode {} seed {seed}: {e}", kind.name()));
            assert_eq!(
                fingerprint(&r),
                fingerprint(&clean),
                "cannon mode {} seed {seed}",
                kind.name()
            );
        }
    }
}

#[test]
fn summa_16_ranks_exact_under_every_mode_and_seed() {
    let el = soak_graph(43);
    let cfg = TcConfig::default();
    let grid = SummaGrid::new(4, 4);
    let clean = summa(&el, grid, &cfg, &PLAIN).expect("clean");
    assert!(clean.triangles > 0);
    for kind in FaultKind::ALL {
        for seed in [7u64, 14, 21, 28, 35] {
            let plan = mode_plan(kind, seed);
            let obs = UniverseConfig { chaos: Some(plan), ..UniverseConfig::default() };
            let r = summa(&el, grid, &cfg, &obs)
                .unwrap_or_else(|e| panic!("summa mode {} seed {seed}: {e}", kind.name()));
            assert_eq!(
                fingerprint(&r),
                fingerprint(&clean),
                "summa mode {} seed {seed}",
                kind.name()
            );
        }
    }
}

#[test]
fn per_edge_supports_identical_under_combined_chaos() {
    let el = soak_graph(44);
    let cfg = TcConfig::default();
    let (clean_r, clean_sup) = cannon_per_edge(&el, P, &cfg, &PLAIN).expect("clean");
    for seed in [3u64, 5, 8] {
        let plan = FaultPlan::new(seed).with_default(LinkFaults {
            delay_max: Duration::from_micros(20),
            ..LinkFaults::uniform(0.15)
        });
        let obs = UniverseConfig { chaos: Some(plan), ..UniverseConfig::default() };
        let (r, sup) = cannon_per_edge(&el, P, &cfg, &obs)
            .unwrap_or_else(|e| panic!("per-edge seed {seed}: {e}"));
        assert_eq!(fingerprint(&r), fingerprint(&clean_r), "seed {seed}");
        assert_eq!(sup, clean_sup, "seed {seed}: per-edge supports must match exactly");
    }
}

#[test]
fn dead_link_fails_typed_within_deadline_on_cannon() {
    let el = soak_graph(45);
    let cfg = TcConfig::default();
    // Every frame rank 0 sends to rank 1 is lost, original and
    // retransmit alike: no budget masks it.
    let plan = FaultPlan::new(1)
        .with_default(LinkFaults::none())
        .with_link(0, 1, LinkFaults::only(FaultKind::Drop, 1.0))
        .with_max_retries(4)
        .with_nack_backoff(Duration::from_millis(1), Duration::from_millis(5));
    let obs = UniverseConfig { chaos: Some(plan), ..UniverseConfig::default() };
    let t0 = std::time::Instant::now();
    let err = cannon(&el, P, &cfg, &obs).expect_err("a fully dead link cannot be masked");
    assert!(
        t0.elapsed() < Duration::from_secs(30),
        "typed failure, not a timeout: {:?}",
        t0.elapsed()
    );
    match &err {
        MpsError::DeliveryFailed { src, dst, .. } => {
            assert_eq!((*src, *dst), (0, 1), "{err}");
        }
        MpsError::PeerFailed { msg, .. } => {
            assert!(msg.contains("delivery from rank 0 failed"), "{err}");
        }
        other => panic!("expected DeliveryFailed (or a peer's view of it), got {other}"),
    }
}
