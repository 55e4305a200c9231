//! Property-based tests over random graphs: the master correctness
//! invariant (all implementations agree), plus structural invariants
//! of the pipeline stages.

use proptest::collection::vec;
use proptest::prelude::*;
use tc_baselines::serial;
use tc_baselines::{count_aop1d, count_push1d, count_shared, count_wedge};
use tc_core::{count_triangles, Enumeration, TcConfig};
use tc_graph::{degree, Csr, EdgeList};
use tc_mps::UniverseConfig;

/// Arbitrary simple graphs: up to ~60 vertices, arbitrary edge picks
/// (duplicates and self loops generated on purpose — `simplify` must
/// handle them).
fn arb_graph() -> impl Strategy<Value = EdgeList> {
    (2usize..60).prop_flat_map(|n| {
        vec((0..n as u32, 0..n as u32), 0..200)
            .prop_map(move |edges| EdgeList::new(n, edges).simplify())
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn distributed_2d_matches_serial(el in arb_graph(), p in prop::sample::select(vec![1usize, 4, 9, 16])) {
        let expect = serial::count_default(&el);
        prop_assert_eq!(count_triangles(&el, p, &TcConfig::default()).triangles, expect);
    }

    #[test]
    fn all_2d_configs_match(el in arb_graph()) {
        let expect = serial::count_default(&el);
        let cfgs = [
            TcConfig::default(),
            TcConfig::paper(),
            TcConfig::unoptimized(),
            TcConfig::paper().with_enumeration(Enumeration::Ijk),
            TcConfig::paper().with_direct_hash(false),
        ];
        for cfg in &cfgs {
            prop_assert_eq!(count_triangles(&el, 9, cfg).triangles, expect);
        }
    }

    #[test]
    fn baselines_match_serial(el in arb_graph(), p in 1usize..6) {
        let expect = serial::count_default(&el);
        let ucfg = UniverseConfig::default();
        prop_assert_eq!(count_aop1d(&el, p, &ucfg).unwrap().triangles, expect);
        prop_assert_eq!(count_push1d(&el, p, &ucfg).unwrap().triangles, expect);
        prop_assert_eq!(count_wedge(&el, p, &ucfg).unwrap().triangles, expect);
        prop_assert_eq!(count_shared(&el, 3), expect);
    }

    #[test]
    fn serial_variants_agree(el in arb_graph()) {
        use serial::{count, Enumeration as E, Intersection as I};
        let reference = count(&el, E::Ijk, I::List);
        prop_assert_eq!(count(&el, E::Ijk, I::Map), reference);
        prop_assert_eq!(count(&el, E::Jik, I::List), reference);
        prop_assert_eq!(count(&el, E::Jik, I::Map), reference);
    }

    #[test]
    fn triangle_count_bounded_by_wedges(el in arb_graph()) {
        let csr = Csr::from_edge_list(&el);
        let triangles = serial::count_default(&el);
        // Each triangle closes three wedges.
        prop_assert!(3 * triangles <= tc_graph::stats::total_wedges(&csr));
    }

    #[test]
    fn degree_relabel_preserves_count(el in arb_graph()) {
        let expect = serial::count_default(&el);
        let (relabeled, _) = degree::relabel_by_degree(el);
        prop_assert_eq!(serial::count_default(&relabeled), expect);
    }

    #[test]
    fn per_vertex_counts_sum_to_three_times_total(el in arb_graph()) {
        let (total, per) = serial::per_vertex_counts(&el);
        prop_assert_eq!(per.iter().sum::<u64>(), 3 * total);
    }

    #[test]
    fn adding_an_edge_never_decreases_triangles(el in arb_graph(), a in 0u32..60, b in 0u32..60) {
        let n = el.num_vertices as u32;
        prop_assume!(n >= 2);
        let (a, b) = (a % n, b % n);
        prop_assume!(a != b);
        let before = serial::count_default(&el);
        let mut edges = el.edges.clone();
        edges.push((a.min(b), a.max(b)));
        let after = serial::count_default(&EdgeList::new(el.num_vertices, edges).simplify());
        prop_assert!(after >= before);
    }
}
