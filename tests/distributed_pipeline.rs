//! Integration tests of the full distributed pipeline: metrics
//! consistency, I/O → count workflows, determinism, and the
//! qualitative behaviours the paper's evaluation reports.

use tc_core::{count_triangles, TcConfig, TcResult};
use tc_gen::{graph500, Preset};
use tc_graph::{io, EdgeList};

fn count_triangles_default(el: &EdgeList, p: usize) -> TcResult {
    count_triangles(el, p, &TcConfig::default())
}

#[test]
fn determinism_across_repeated_runs() {
    let el = graph500(10, 4).simplify();
    let a = count_triangles_default(&el, 9);
    let b = count_triangles_default(&el, 9);
    assert_eq!(a.triangles, b.triangles);
    // Structural metrics (not wall times) must be bit-identical.
    assert_eq!(a.total_tasks(), b.total_tasks());
    assert_eq!(a.total_lookups(), b.total_lookups());
    assert_eq!(a.total_bytes_sent(), b.total_bytes_sent());
    for (ma, mb) in a.ranks.iter().zip(&b.ranks) {
        assert_eq!(ma.local_triangles, mb.local_triangles);
        assert_eq!(ma.tasks, mb.tasks);
    }
}

#[test]
fn io_roundtrip_feeds_distributed_count() {
    let el = graph500(9, 8).simplify();
    let dir = std::env::temp_dir().join(format!("tc-it-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("g.bin");
    io::write_binary_edges_path(&el, &path).unwrap();
    let back = io::read_binary_edges_path(&path).unwrap();
    assert_eq!(back, el);
    let r = count_triangles_default(&back, 4);
    assert_eq!(r.triangles, tc_baselines::serial::count_default(&el));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn matrix_market_to_count() {
    // A K4 as a symmetric Matrix Market pattern.
    let mm = "%%MatrixMarket matrix coordinate pattern symmetric\n\
              4 4 6\n2 1\n3 1\n4 1\n3 2\n4 2\n4 3\n";
    let el = io::read_matrix_market(mm.as_bytes()).unwrap().simplify();
    let r = count_triangles_default(&el, 4);
    assert_eq!(r.triangles, 4);
}

#[test]
fn local_counts_partition_the_total() {
    let el = Preset::TwitterLike { scale: 9 }.build(5);
    for p in [4usize, 16, 25] {
        let r = count_triangles_default(&el, p);
        let sum: u64 = r.ranks.iter().map(|m| m.local_triangles).sum();
        assert_eq!(sum, r.triangles, "p={p}");
    }
}

#[test]
fn probe_rate_reflects_graph_shape() {
    // §7.1: twitter has ~68 % more probes than friendster. The same
    // qualitative ordering must hold for the stand-ins: the skewed
    // graph performs more lookups per edge than the uniform one.
    let tw = Preset::TwitterLike { scale: 10 }.build(6);
    let fr = Preset::FriendsterLike { scale: 10 }.build(6);
    let rt = count_triangles_default(&tw, 16);
    let rf = count_triangles_default(&fr, 16);
    let per_edge_t = rt.total_lookups() as f64 / tw.num_edges() as f64;
    let per_edge_f = rf.total_lookups() as f64 / fr.num_edges() as f64;
    assert!(
        per_edge_t > per_edge_f,
        "lookups/edge: twitter-like {per_edge_t:.2} <= friendster-like {per_edge_f:.2}"
    );
}

#[test]
fn task_counts_grow_with_grid_like_table4() {
    let el = graph500(11, 9).simplify();
    let t16 = count_triangles_default(&el, 16).total_tasks();
    let t25 = count_triangles_default(&el, 25).total_tasks();
    let t36 = count_triangles_default(&el, 36).total_tasks();
    assert!(t25 >= t16, "16→25: {t16} → {t25}");
    assert!(t36 >= t25, "25→36: {t25} → {t36}");
}

#[test]
fn direct_hash_rows_dominate_when_enabled() {
    // The 2D blocks are sparse, so most rows should take the
    // collision-free fast path — that's the premise of the §5.2
    // optimization.
    let el = graph500(10, 3).simplify();
    let r = count_triangles(&el, 16, &TcConfig::paper());
    let direct: u64 = r.ranks.iter().map(|m| m.direct_rows).sum();
    let probed: u64 = r.ranks.iter().map(|m| m.probed_rows).sum();
    assert!(direct > probed, "direct {direct} <= probed {probed}");

    let r2 = count_triangles(&el, 16, &TcConfig::paper().with_direct_hash(false));
    let direct2: u64 = r2.ranks.iter().map(|m| m.direct_rows).sum();
    assert_eq!(direct2, 0);
}

#[test]
fn early_break_reduces_lookups() {
    let el = graph500(10, 3).simplify();
    let with = count_triangles(&el, 9, &TcConfig::paper());
    let without = count_triangles(&el, 9, &TcConfig::paper().with_reverse_early_break(false));
    assert_eq!(with.triangles, without.triangles);
    assert!(
        with.total_lookups() < without.total_lookups(),
        "early break did not reduce lookups: {} vs {}",
        with.total_lookups(),
        without.total_lookups()
    );
}

#[test]
fn communication_volume_grows_with_ranks() {
    // More ranks → more block fragmentation → more total bytes on the
    // wire (the paper's Fig. 3 driver).
    let el = graph500(10, 2).simplify();
    let b4 = count_triangles_default(&el, 4).total_bytes_sent();
    let b25 = count_triangles_default(&el, 25).total_bytes_sent();
    assert!(b25 > b4, "bytes: p=4 {b4} >= p=25 {b25}");
}
