//! Where §5.3 preprocessing spends a rank's CPU, stage by stage, and
//! what the label table buys over `std::collections::HashMap`.
//!
//! The pipeline already brackets its four stages with trace spans
//! (`cyclic_redistribute`, `degree_sort`, `label_push`,
//! `redistribute_2d`), each carrying the thread-CPU time spent inside
//! it, so the per-stage rows are read off a trace of the real
//! `preprocess_from` rather than off a re-implementation: for every
//! try, the slowest rank's CPU per stage; over the tries, the median.
//! `-- --test` runs everything once (CI smoke mode).

use std::collections::HashMap;
use std::hint::black_box;

use criterion::{criterion_group, Criterion};
use tc_core::labels::LabelTable;
use tc_core::preprocess::{preprocess_from, BlockInput};
use tc_core::TcConfig;
use tc_gen::graph500;
use tc_graph::Csr;
use tc_mps::{Universe, UniverseConfig};
use tc_trace::names::{PREP_2D, PREP_LABELS, PREP_REDIST, PREP_SORT};
use tc_trace::TraceSession;

const STAGES: [(&str, &str); 4] =
    [("redistribute", PREP_REDIST), ("sort", PREP_SORT), ("labels", PREP_LABELS), ("2d", PREP_2D)];

/// One traced run: the slowest rank's CPU nanoseconds per stage.
fn traced_run(csr: &Csr, p: usize) -> [u64; 4] {
    let session = TraceSession::begin();
    let config = UniverseConfig { trace: Some(session.handle()), ..UniverseConfig::default() };
    Universe::try_run_config(p, &config, |comm| {
        let input = BlockInput::Shared(csr);
        preprocess_from(comm, csr.num_vertices(), &input, &TcConfig::paper()).map(|prep| prep.ops)
    })
    .expect("preprocessing");
    let trace = session.finish();
    assert_eq!(trace.dropped, 0, "trace ring overflowed");
    STAGES.map(|(_, span)| {
        let per_rank: Vec<u64> =
            trace.events.iter().filter(|e| e.name == span).map(|e| e.cpu_ns).collect();
        assert_eq!(per_rank.len(), p, "one {span} span per rank");
        per_rank.into_iter().max().unwrap_or(0)
    })
}

fn stage_rows() {
    // Same switch criterion's own rows honour.
    let tries = if std::env::args().any(|a| a == "--test") { 1 } else { 9 };
    let csr = Csr::from_edge_list(&graph500(14, 42).simplify());
    eprintln!("group preprocess_stages (g500-s14, slowest rank's CPU, median of {tries})");
    for p in [4usize, 16] {
        let mut runs: Vec<[u64; 4]> = (0..tries).map(|_| traced_run(&csr, p)).collect();
        for (i, (stage, _)) in STAGES.iter().enumerate() {
            runs.sort_by_key(|r| r[i]);
            let median = runs[runs.len() / 2][i];
            eprintln!("  preprocess_stages/{stage}_p{p}: median {:.3} ms", median as f64 / 1e6);
        }
    }
}

/// The relabel loop in isolation: fill with `labels` pairs, then
/// translate an adjacency-sized stream of keys.
fn bench_label_table(c: &mut Criterion) {
    const LABELS: u32 = 1 << 16;
    const LOOKUPS: usize = 1 << 20;
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let keys: Vec<u32> = (0..LOOKUPS)
        .map(|_| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((x >> 33) as u32) % LABELS
        })
        .collect();
    let mut group = c.benchmark_group("label_table_vs_hashmap");
    group.sample_size(10);
    group.bench_function("label_table", |b| {
        b.iter(|| {
            let mut t = LabelTable::with_capacity(LABELS as usize);
            for k in 0..LABELS {
                t.insert(k, LABELS - k);
            }
            black_box(&keys).iter().map(|&k| u64::from(t.get(k).expect("present"))).sum::<u64>()
        });
    });
    group.bench_function("std_hashmap", |b| {
        b.iter(|| {
            let mut t: HashMap<u32, u32> = HashMap::with_capacity(LABELS as usize);
            for k in 0..LABELS {
                t.insert(k, LABELS - k);
            }
            black_box(&keys).iter().map(|&k| u64::from(t[&k])).sum::<u64>()
        });
    });
    group.finish();
}

criterion_group!(benches, bench_label_table);

fn main() {
    stage_rows();
    benches();
}
