//! End-to-end 2D triangle counting benchmarks: full runs across grid
//! sizes and the §7.3 ablation variants, Criterion-tracked so kernel
//! regressions are caught.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use tc_core::{count_triangles, Enumeration, TcConfig};
use tc_gen::graph500;

fn bench_grids(c: &mut Criterion) {
    let el = graph500(12, 42).simplify();
    let mut group = c.benchmark_group("tc2d_g500_s12");
    group.sample_size(10);
    for p in [1usize, 4, 9, 16] {
        group.bench_with_input(BenchmarkId::new("ranks", p), &p, |b, &p| {
            b.iter(|| count_triangles(black_box(&el), p, &TcConfig::paper()).triangles);
        });
    }
    group.finish();
}

fn bench_ablation(c: &mut Criterion) {
    let el = graph500(12, 42).simplify();
    let mut group = c.benchmark_group("tc2d_ablation_p9");
    group.sample_size(10);
    let variants: &[(&str, TcConfig)] = &[
        ("paper", TcConfig::paper()),
        ("no_doubly_sparse", TcConfig::paper().with_doubly_sparse(false)),
        ("no_direct_hash", TcConfig::paper().with_direct_hash(false)),
        ("no_early_break", TcConfig::paper().with_reverse_early_break(false)),
        ("ijk", TcConfig::paper().with_enumeration(Enumeration::Ijk)),
        ("unoptimized", TcConfig::unoptimized()),
    ];
    for (name, cfg) in variants {
        group.bench_function(*name, |b| {
            b.iter(|| count_triangles(black_box(&el), 9, cfg).triangles);
        });
    }
    group.finish();
}

fn bench_baselines(c: &mut Criterion) {
    let el = graph500(12, 42).simplify();
    let ucfg = tc_mps::UniverseConfig::default();
    let mut group = c.benchmark_group("algorithms_p4_g500_s12");
    group.sample_size(10);
    group.bench_function("ours_2d", |b| {
        b.iter(|| count_triangles(black_box(&el), 4, &TcConfig::paper()).triangles);
    });
    group.bench_function("aop_1d", |b| {
        b.iter(|| tc_baselines::count_aop1d(black_box(&el), 4, &ucfg).unwrap().triangles);
    });
    group.bench_function("push_1d", |b| {
        b.iter(|| tc_baselines::count_push1d(black_box(&el), 4, &ucfg).unwrap().triangles);
    });
    group.bench_function("psp_1d", |b| {
        b.iter(|| tc_baselines::count_psp1d(black_box(&el), 4, 8, &ucfg).unwrap().triangles);
    });
    group.bench_function("wedge", |b| {
        b.iter(|| tc_baselines::count_wedge(black_box(&el), 4, &ucfg).unwrap().triangles);
    });
    group.bench_function("serial", |b| {
        b.iter(|| tc_baselines::serial::count_default(black_box(&el)));
    });
    group.finish();
}

criterion_group!(benches, bench_grids, bench_ablation, bench_baselines);
criterion_main!(benches);
