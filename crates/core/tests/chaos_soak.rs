//! Chaos soak: the full 2D algorithms on a 16-rank grid with seeded
//! sender-side delays in several shapes and multiple seeds. The delays
//! reorder arrivals across links, shifts and collectives; the result
//! must not notice — exact triangle counts, identical per-edge
//! supports, and unchanged deterministic kernel counters versus a
//! clean run.

use std::time::Duration;

use tc_core::{SummaGrid, TcConfig, TcResult};
use tc_gen::graph500;
use tc_graph::EdgeList;
use tc_mps::{FaultPlan, UniverseConfig};

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

/// The delay shapes every soak runs: frequent short delays on every
/// link, rare long ones, and delays on rank 0's outbound links only
/// (one slow sender that every collective and shift must wait for).
const MODES: [&str; 3] = ["frequent", "rare-long", "slow-rank-0"];

fn mode_plan(mode: &str, seed: u64) -> FaultPlan {
    let plan = FaultPlan::new(seed);
    match mode {
        "frequent" => plan.with_delay(0.3, Duration::from_micros(30)),
        "rare-long" => plan.with_delay(0.02, Duration::from_micros(2000)),
        _ => plan
            .with_delay(0.5, Duration::from_micros(200))
            .with_restrict((1..P).map(|d| (0, d)).collect()),
    }
}

#[test]
fn cannon_16_ranks_exact_under_every_mode_and_seed() {
    let el = soak_graph(42);
    let cfg = TcConfig::default();
    let clean = cannon(&el, P, &cfg, &PLAIN).expect("clean");
    assert!(clean.triangles > 0, "soak graph must actually have triangles");
    for mode in MODES {
        for seed in [11u64, 22, 33, 44, 55] {
            let obs = UniverseConfig { chaos: Some(mode_plan(mode, seed)), ..Default::default() };
            let r = cannon(&el, P, &cfg, &obs)
                .unwrap_or_else(|e| panic!("cannon mode {mode} seed {seed}: {e}"));
            assert_eq!(fingerprint(&r), fingerprint(&clean), "cannon mode {mode} seed {seed}");
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
    for mode in MODES {
        for seed in [7u64, 14, 21, 28, 35] {
            let obs = UniverseConfig { chaos: Some(mode_plan(mode, seed)), ..Default::default() };
            let r = summa(&el, grid, &cfg, &obs)
                .unwrap_or_else(|e| panic!("summa mode {mode} seed {seed}: {e}"));
            assert_eq!(fingerprint(&r), fingerprint(&clean), "summa mode {mode} seed {seed}");
        }
    }
}

#[test]
fn per_edge_supports_identical_under_combined_chaos() {
    let el = soak_graph(44);
    let cfg = TcConfig::default();
    let (clean_r, clean_sup) = cannon_per_edge(&el, P, &cfg, &PLAIN).expect("clean");
    for seed in [3u64, 5, 8] {
        let plan = FaultPlan::new(seed).with_delay(0.15, Duration::from_micros(20));
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
    // Every send rank 0 makes to rank 1 sleeps up to a second against a
    // 300 ms receive deadline: under seed 1 the first three sleep 763,
    // 773 and 931 ms, so the link is dead for rank 1 and the run must
    // end in a typed Timeout, not a hang.
    let plan =
        FaultPlan::new(1).with_delay(1.0, Duration::from_secs(1)).with_restrict(vec![(0, 1)]);
    let obs = UniverseConfig {
        recv_timeout: Some(Duration::from_millis(300)),
        chaos: Some(plan),
        ..UniverseConfig::default()
    };
    let t0 = std::time::Instant::now();
    let err = cannon(&el, P, &cfg, &obs).expect_err("a dead link cannot finish the count");
    assert!(
        t0.elapsed() < Duration::from_secs(30),
        "typed failure within the deadline: {:?}",
        t0.elapsed()
    );
    assert!(matches!(err, tc_mps::MpsError::Timeout { .. }), "expected a Timeout, got {err}");
}
