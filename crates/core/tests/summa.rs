//! SUMMA (rectangular-grid) correctness: must match the serial
//! reference and the Cannon path on every grid shape and panel count.

use tc_baselines::serial;
use tc_core::{count_triangles, Enumeration, SummaGrid, TcConfig, TcResult};
use tc_gen::graph500;
use tc_graph::EdgeList;

mod common;

fn count_triangles_summa(el: &EdgeList, grid: SummaGrid, cfg: &TcConfig) -> TcResult {
    common::summa(el, grid, cfg, &common::PLAIN).expect("clean run")
}

#[test]
fn rectangular_grids_match_serial() {
    let el = graph500(9, 11).simplify();
    let expect = serial::count_default(&el);
    assert!(expect > 0);
    for (pr, pc) in [(1, 1), (1, 4), (4, 1), (2, 3), (3, 2), (2, 2), (3, 5), (4, 4)] {
        let r = count_triangles_summa(&el, SummaGrid::new(pr, pc), &TcConfig::default());
        assert_eq!(r.triangles, expect, "grid {pr}x{pc}");
        assert_eq!(r.num_ranks, pr * pc);
        let sum: u64 = r.ranks.iter().map(|m| m.local_triangles).sum();
        assert_eq!(sum, expect, "grid {pr}x{pc} local sum");
    }
}

#[test]
fn panel_counts_do_not_change_the_answer() {
    let el = graph500(8, 3).simplify();
    let expect = serial::count_default(&el);
    for k in [1usize, 2, 3, 7, 16, 64] {
        let r =
            count_triangles_summa(&el, SummaGrid::new(2, 3).with_panels(k), &TcConfig::default());
        assert_eq!(r.triangles, expect, "panels={k}");
        // One compute step per panel.
        assert!(r.ranks.iter().all(|m| m.shift_compute.len() == k));
    }
}

#[test]
fn summa_square_agrees_with_cannon() {
    let el = graph500(9, 5).simplify();
    let cannon = count_triangles(&el, 9, &TcConfig::default());
    let summa = count_triangles_summa(&el, SummaGrid::new(3, 3), &TcConfig::default());
    assert_eq!(cannon.triangles, summa.triangles);
}

#[test]
fn all_configs_work_on_rectangles() {
    let el = graph500(8, 9).simplify();
    let expect = serial::count_default(&el);
    for cfg in [
        TcConfig::default(),
        TcConfig::unoptimized(),
        TcConfig::default().with_enumeration(Enumeration::Ijk),
        TcConfig::default().with_direct_hash(false),
    ] {
        let r = count_triangles_summa(&el, SummaGrid::new(2, 4), &cfg);
        assert_eq!(r.triangles, expect, "{cfg:?}");
    }
}

#[test]
fn degenerate_graphs() {
    let grid = SummaGrid::new(3, 2);
    assert_eq!(count_triangles_summa(&EdgeList::empty(0), grid, &TcConfig::default()).triangles, 0);
    assert_eq!(
        count_triangles_summa(&EdgeList::empty(10), grid, &TcConfig::default()).triangles,
        0
    );
    let tri = EdgeList::new(3, vec![(0, 1), (0, 2), (1, 2)]).simplify();
    assert_eq!(count_triangles_summa(&tri, grid, &TcConfig::default()).triangles, 1);
}

#[test]
fn tall_and_wide_grids_balance_tasks() {
    let el = graph500(10, 7).simplify();
    for (pr, pc) in [(1, 8), (8, 1), (2, 4), (4, 2)] {
        let r = count_triangles_summa(&el, SummaGrid::new(pr, pc), &TcConfig::default());
        // Cyclic task distribution should stay within a reasonable
        // imbalance bound even on skewed shapes.
        assert!(r.task_imbalance() < 2.0, "{pr}x{pc}: {}", r.task_imbalance());
    }
}
