//! Cross-algorithm agreement: every triangle-counting implementation
//! in the workspace — serial (4 variants), shared-memory, the 2D
//! algorithm (all configurations), and the four distributed baselines
//! — must produce identical counts on identical graphs.

use tc_baselines::serial::{count, count_default, Enumeration, Intersection};
use tc_baselines::{count_aop1d, count_psp1d, count_push1d, count_shared, count_wedge};
use tc_core::{count_triangles, TcConfig};
use tc_gen::{graph500, Preset};
use tc_graph::EdgeList;
use tc_mps::UniverseConfig;

fn check_everything(el: &EdgeList, label: &str) {
    let expect = count_default(el);
    // Serial variants.
    for (e, m) in [
        (Enumeration::Ijk, Intersection::List),
        (Enumeration::Ijk, Intersection::Map),
        (Enumeration::Jik, Intersection::List),
        (Enumeration::Jik, Intersection::Map),
    ] {
        assert_eq!(count(el, e, m), expect, "{label}: serial {e:?}/{m:?}");
    }
    // Shared-memory.
    assert_eq!(count_shared(el, 4), expect, "{label}: shared");
    // 2D distributed.
    for p in [1, 4, 9, 16] {
        let got = count_triangles(el, p, &TcConfig::default()).triangles;
        assert_eq!(got, expect, "{label}: 2d p={p}");
    }
    // 1D distributed baselines.
    let ucfg = UniverseConfig::default();
    for p in [1, 3, 5] {
        assert_eq!(count_aop1d(el, p, &ucfg).unwrap().triangles, expect, "{label}: aop p={p}");
        assert_eq!(count_push1d(el, p, &ucfg).unwrap().triangles, expect, "{label}: push p={p}");
        assert_eq!(count_psp1d(el, p, 4, &ucfg).unwrap().triangles, expect, "{label}: psp p={p}");
        assert_eq!(count_wedge(el, p, &ucfg).unwrap().triangles, expect, "{label}: wedge p={p}");
    }
}

#[test]
fn g500_small() {
    check_everything(&graph500(8, 1).simplify(), "g500-s8");
}

#[test]
fn twitter_like_preset() {
    check_everything(&Preset::TwitterLike { scale: 9 }.build(2), "twitter-like-9");
}

#[test]
fn friendster_like_preset() {
    check_everything(&Preset::FriendsterLike { scale: 9 }.build(3), "friendster-like-9");
}

#[test]
fn pathological_structures() {
    // Complete graph K10: C(10,3) = 120.
    let mut edges = Vec::new();
    for u in 0..10u32 {
        for v in u + 1..10 {
            edges.push((u, v));
        }
    }
    let k10 = EdgeList::new(10, edges).simplify();
    assert_eq!(count_default(&k10), 120);
    check_everything(&k10, "K10");

    // Star (no triangles) with a far-away triangle appended.
    let mut edges: Vec<(u32, u32)> = (1..30u32).map(|v| (0, v)).collect();
    edges.extend([(30, 31), (30, 32), (31, 32)]);
    let star_plus = EdgeList::new(33, edges).simplify();
    assert_eq!(count_default(&star_plus), 1);
    check_everything(&star_plus, "star+triangle");
}

#[test]
fn disconnected_components() {
    // Three disjoint triangles spread far apart in the id space.
    let edges = vec![
        (0, 1),
        (0, 2),
        (1, 2),
        (100, 101),
        (100, 102),
        (101, 102),
        (200, 201),
        (200, 202),
        (201, 202),
    ];
    let el = EdgeList::new(203, edges).simplify();
    assert_eq!(count_default(&el), 3);
    check_everything(&el, "three-triangles");
}
