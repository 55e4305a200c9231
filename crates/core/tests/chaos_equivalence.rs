//! Chaos-on ≡ chaos-off: property tests over random graphs and random
//! fault plans, plus the bypass proof that an unchaosed run records no
//! reliability activity at all.

use std::time::Duration;

use proptest::prelude::*;
use tc_core::{TcConfig, TcResult};
use tc_gen::er::gnm;
use tc_gen::graph500;
use tc_graph::EdgeList;
use tc_mps::{FaultPlan, LinkFaults, UniverseConfig};

mod common;
use common::{cannon, cannon_per_edge, PLAIN};

fn fingerprint(r: &TcResult) -> (u64, u64, u64) {
    (r.triangles, r.total_tasks(), r.total_probes())
}

/// A random plan with drop + duplicate + reorder live (the three modes
/// that reshape the frame stream rather than just damaging bytes).
fn random_plan(seed: u64, drop: f64, dup: f64, reorder: f64) -> FaultPlan {
    FaultPlan::new(seed).with_default(LinkFaults {
        drop,
        duplicate: dup,
        reorder,
        ..LinkFaults::none()
    })
}

proptest! {
    // Every case runs two full 9-rank distributed counts; keep the
    // case count CI-sized.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn counts_and_kernel_totals_invariant_under_chaos(
        gseed in 0u64..1000,
        rmat in any::<bool>(),
        pseed in 0u64..1000,
        drop_milli in 0u32..300,
        dup_milli in 0u32..300,
        reorder_milli in 0u32..300,
    ) {
        let el: EdgeList = if rmat {
            graph500(5, gseed).simplify()
        } else {
            gnm(48, 160, gseed).simplify()
        };
        let cfg = TcConfig::default();
        let clean = cannon(&el, 9, &cfg, &PLAIN).unwrap();
        let plan = random_plan(
            pseed,
            f64::from(drop_milli) / 1000.0,
            f64::from(dup_milli) / 1000.0,
            f64::from(reorder_milli) / 1000.0,
        );
        let obs = UniverseConfig { chaos: Some(plan), ..UniverseConfig::default() };
        let chaotic = cannon(&el, 9, &cfg, &obs).unwrap();
        prop_assert_eq!(fingerprint(&chaotic), fingerprint(&clean));
    }

    #[test]
    fn per_edge_supports_invariant_under_chaos(
        gseed in 0u64..1000,
        pseed in 0u64..1000,
        drop_milli in 0u32..250,
        reorder_milli in 0u32..250,
    ) {
        let el = gnm(40, 140, gseed).simplify();
        let cfg = TcConfig::default();
        let (clean_r, clean_sup) =
            cannon_per_edge(&el, 4, &cfg, &PLAIN).unwrap();
        let plan = random_plan(
            pseed,
            f64::from(drop_milli) / 1000.0,
            0.1,
            f64::from(reorder_milli) / 1000.0,
        );
        let obs = UniverseConfig { chaos: Some(plan), ..UniverseConfig::default() };
        let (r, sup) = cannon_per_edge(&el, 4, &cfg, &obs).unwrap();
        prop_assert_eq!(fingerprint(&r), fingerprint(&clean_r));
        prop_assert_eq!(sup, clean_sup);
    }
}

/// With no plan installed, the transport must not merely stay quiet —
/// it must not exist: no rank records a single reliability counter,
/// and per-rank reliability stats are absent.
#[test]
fn chaos_off_records_zero_reliability_activity() {
    let el = graph500(6, 9).simplify();
    let session = tc_metrics::MetricsSession::begin();
    let handle = session.handle();
    let obs = UniverseConfig { metrics: Some(handle), ..UniverseConfig::default() };
    let r = cannon(&el, 16, &TcConfig::default(), &obs).expect("clean run");
    assert!(r.triangles > 0);
    let snap = session.finish();
    assert_eq!(snap.ranks().len(), 16);
    for rank in snap.ranks() {
        for name in tc_metrics::names::MPS_RELIABILITY {
            assert_eq!(
                snap.counter(rank, name),
                None,
                "rank {rank} recorded {name} without a transport"
            );
        }
    }
    // The bench-record layer is where present-and-zero is proven: the
    // counters appear with an explicit 0 even though nothing recorded.
    let rec = tc_metrics::RunRecord::from_snapshot("t", "2d", 16, "c", r.triangles, &snap);
    for name in tc_metrics::names::MPS_RELIABILITY {
        assert_eq!(rec.counters.get(*name), Some(&0u64), "{name} present-and-zero");
    }
}

/// The delay knob alone (no stream reshaping) must also be invisible —
/// a cheap smoke for the one mode the proptest above leaves out.
#[test]
fn pure_delay_chaos_is_invisible() {
    let el = gnm(48, 180, 77).simplify();
    let cfg = TcConfig::default();
    let clean = cannon(&el, 9, &cfg, &PLAIN).unwrap();
    let plan = FaultPlan::new(5).with_default(LinkFaults {
        delay: 0.5,
        delay_max: Duration::from_micros(40),
        ..LinkFaults::none()
    });
    let obs = UniverseConfig { chaos: Some(plan), ..UniverseConfig::default() };
    let chaotic = cannon(&el, 9, &cfg, &obs).unwrap();
    assert_eq!(fingerprint(&chaotic), fingerprint(&clean));
}
