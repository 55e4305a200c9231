//! Intersection-kernel micro-benchmarks: the per-shift kernel under
//! each [`tc_core::KernelStrategy`] across a density × skew sweep,
//! against both owned [`SparseBlock`]s and borrowed [`SparseBlockRef`]
//! views (the zero-copy pipeline's operand form), plus the two
//! membership structures on identical inputs: the packed bit row
//! (build, probe every candidate — eight at a time where AVX2 exists —
//! clear) and the map (load the row, probe every candidate, in
//! whichever of direct and probing mode the row gets).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use tc_core::bitmap::BitRow;
use tc_core::blocks::{BlockView, SparseBlock, SparseBlockRef};
use tc_core::count::count_shift;
use tc_core::hashmap::IntersectMap;
use tc_core::intersect::KernelState;
use tc_core::{KernelStrategy, TcConfig};
use tc_gen::{er::gnm, graph500};
use tc_graph::EdgeList;

/// Single-rank (q = 1) block set from an edge list: one `(a, b)` task
/// per edge, upper adjacency as both operands (kernel_edge_cases'
/// harness shape).
fn blocks_of(el: &EdgeList) -> (SparseBlock, SparseBlock, SparseBlock) {
    let n = el.num_vertices.max(1);
    let mut u_pairs = el.edges.clone();
    let mut p_pairs = el.edges.clone();
    let mut t_pairs: Vec<(u32, u32)> = el.edges.iter().map(|&(u, v)| (v, u)).collect();
    (
        SparseBlock::from_pairs(n, 1, &mut t_pairs),
        SparseBlock::from_pairs(n, 1, &mut u_pairs),
        SparseBlock::from_pairs(n, 1, &mut p_pairs),
    )
}

const STRATEGIES: [(&str, KernelStrategy); 2] =
    [("auto", KernelStrategy::Auto), ("hash", KernelStrategy::Hash)];

fn bench_strategies(c: &mut Criterion) {
    // Skew sweep: RMAT (heavy hubs) vs Erdős–Rényi (uniform degrees)
    // at sparse and dense edge factors.
    let cases: Vec<(&str, EdgeList)> = vec![
        ("rmat_s9", graph500(9, 42).simplify()),
        ("er_sparse", gnm(512, 2048, 42)),
        ("er_dense", gnm(512, 16384, 42)),
    ];
    for (name, el) in &cases {
        let (task, ub, pb) = blocks_of(el);
        let mut group = c.benchmark_group(format!("count_shift_{name}"));
        for (sname, strategy) in STRATEGIES {
            let cfg = TcConfig::default().with_kernel(strategy);
            group.bench_function(format!("owned_{sname}"), |b| {
                let mut ks = KernelState::new(ub.max_row_len(), 1);
                b.iter(|| {
                    let mut tasks = 0u64;
                    count_shift(black_box(&task), &ub, &pb, &mut ks, 1, &cfg, &mut tasks)
                });
            });
            // Borrowed views of wire bytes: the steady-state operand
            // form of the overlapped pipeline.
            let (ub_blob, pb_blob) = (ub.to_blob(), pb.to_blob());
            group.bench_function(format!("borrowed_{sname}"), |b| {
                let hash = SparseBlockRef::from_blob(&ub_blob);
                let probe = SparseBlockRef::from_blob(&pb_blob);
                let mut ks = KernelState::new(hash.max_row_len(), 1);
                b.iter(|| {
                    let mut tasks = 0u64;
                    count_shift(black_box(&task), &hash, &probe, &mut ks, 1, &cfg, &mut tasks)
                });
            });
        }
        group.finish();
    }
}

/// Ascending duplicate-free row of `len` keys: `gap = Some(g)` spaces
/// them evenly (offset by `phase`), `None` draws gaps of 1..=32 from a
/// seeded LCG.
fn primitive_row(len: usize, gap: Option<u32>, phase: u32) -> Vec<u32> {
    let mut x = 0x9e37_79b9_7f4a_7c15u64 ^ u64::from(phase);
    let mut cur = phase;
    (0..len)
        .map(|_| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            cur += gap.unwrap_or(1 + (x >> 33) as u32 % 32);
            cur
        })
        .collect()
}

fn bench_intersect_primitives(c: &mut Criterion) {
    let mut group = c.benchmark_group("intersect_primitive");
    // Evenly spaced rows load in the map's collision-free direct mode;
    // randomly spaced ones collide once they are long enough and load
    // in probing mode (the probe row's name says which it got), so the
    // probe rows below cover both lookup loops.
    for (dname, gap) in [("even", Some(2u32)), ("random", None)] {
        for len in [16usize, 128, 1024] {
            let a = primitive_row(len, gap, 0);
            let b = primitive_row(len, gap, 1);
            group.bench_function(format!("bitmap_{dname}_len{len}"), |bch| {
                let mut bits = BitRow::new(1);
                bch.iter(|| {
                    assert!(bits.build(black_box(&a)));
                    let (_, hits) = bits.probe().count::<false>(black_box(&b), 0, |_| {});
                    bits.clear(&a);
                    hits
                });
            });
            let mut map = IntersectMap::new(len, 1);
            map.load_row(&a, true);
            let mode = if map.is_direct() { "direct" } else { "probing" };
            group.bench_function(format!("probe_{mode}_{dname}_len{len}"), |bch| {
                bch.iter(|| {
                    // A real load every iteration, not a replay of the
                    // consecutive-row cache.
                    map.invalidate_row_cache();
                    map.load_row(black_box(&a), true);
                    let (probe, mut steps) = (map.probe(), 0u64);
                    let hits: u64 = if map.is_direct() {
                        black_box(&b).iter().map(|&k| u64::from(probe.hit_direct(k))).sum()
                    } else {
                        let probing = |&k| u64::from(probe.hit_probing(k, &mut steps));
                        black_box(&b).iter().map(probing).sum()
                    };
                    map.credit(b.len() as u64, steps);
                    hits
                });
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_strategies, bench_intersect_primitives);
criterion_main!(benches);
