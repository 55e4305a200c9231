//! The four shapes a rank's input share comes in — a stripe of an
//! in-memory edge list, a stripe of a `.bin` file, a window into a
//! shared CSR, materialized rows — must be indistinguishable after
//! preprocessing, and everything counted from them must agree with
//! the serial oracle: on graphs with fewer edges than ranks (empty
//! stripes), fewer vertices than ranks, isolated vertices and a hub
//! row, on Cannon and SUMMA grids, under both enumerations.

use proptest::prelude::*;
use tc_core::preprocess::{preprocess_from, BlockInput, EdgeSource, PrepOutput};
use tc_core::{summa_rank_from, Enumeration, SummaGrid, TcConfig};
use tc_gen::er::gnm;
use tc_gen::{rmat, RmatParams};
use tc_graph::io::EdgeFile;
use tc_graph::{truss, Block1D, Csr, EdgeList};
use tc_mps::Universe;

mod common;
use common::{cannon, cannon_per_edge, summa, TempBin, PLAIN};

/// One rank's input in each of the four shapes, in a fixed order.
fn shares<'a>(
    el: &'a EdgeList,
    csr: &'a Csr,
    file: &'a EdgeFile,
    p: usize,
    rank: usize,
) -> [BlockInput<'a>; 4] {
    let (lo, hi) = Block1D::new(csr.num_vertices(), p).range(rank);
    let mut xadj = vec![0u32];
    let mut adj = Vec::new();
    for v in lo..hi {
        adj.extend_from_slice(csr.neighbors(v as u32));
        xadj.push(adj.len() as u32);
    }
    [
        BlockInput::Striped(EdgeSource::List(el)),
        BlockInput::Striped(EdgeSource::File(file)),
        BlockInput::Shared(csr),
        BlockInput::Owned { lo: lo as u32, xadj, adj },
    ]
}

/// Everything of a [`PrepOutput`] but the `ops` tally.
fn digest(prep: PrepOutput) -> impl PartialEq + std::fmt::Debug {
    let PrepOutput { q, x, y, n, task, ublob, lblob, max_hash_row, label_pairs, ops: _ } = prep;
    (q, x, y, n, task, ublob, lblob, max_hash_row, label_pairs)
}

/// RMAT or ER, optionally with a vertex adjacent to all others and
/// with trailing vertices nobody references.
fn graphs() -> impl Strategy<Value = EdgeList> {
    let base = (any::<bool>(), 2u32..6, 1usize..6, 1usize..40, 0usize..60, any::<u64>()).prop_map(
        |(skewed, scale, edge_factor, n, m, seed)| {
            if skewed {
                rmat(scale, edge_factor, RmatParams::GRAPH500, seed)
            } else {
                gnm(n, m, seed)
            }
        },
    );
    (base, any::<bool>(), 0usize..20).prop_map(|(el, hub, isolated)| {
        let mut n = el.num_vertices;
        let mut edges = el.edges;
        if hub {
            edges.extend((0..n as u32).map(|v| (v, n as u32)));
            n += 1;
        }
        EdgeList::new(n + isolated, edges).simplify()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_source_preprocesses_alike_and_counts_like_the_oracle(
        el in graphs(),
        p in prop::sample::select(vec![1usize, 4, 9, 16]),
        ijk in any::<bool>(),
    ) {
        let enumeration = if ijk { Enumeration::Ijk } else { Enumeration::Jik };
        let cfg = TcConfig::default().with_enumeration(enumeration);
        let csr = Csr::from_edge_list(&el);
        let bin = TempBin::new(&el);
        let n = el.num_vertices;

        let per_rank = Universe::run(p, |comm| {
            shares(&el, &csr, &bin.file, p, comm.rank())
                .map(|input| digest(preprocess_from(comm, n, &input, &cfg).expect("prep")))
        });
        for (rank, [list, file, shared, owned]) in per_rank.iter().enumerate() {
            prop_assert!(list == file, "rank {} of {}: list vs file stripe", rank, p);
            prop_assert!(list == shared, "rank {} of {}: list stripe vs shared rows", rank, p);
            prop_assert!(list == owned, "rank {} of {}: list stripe vs owned rows", rank, p);
        }

        let oracle = tc_baselines::serial::count_default(&el);
        let supports = truss::edge_supports(&el).unwrap();
        let from_list = cannon(&el, p, &cfg, &PLAIN).expect("list");
        let from_file =
            cannon(&bin.file, p, &cfg, &PLAIN).expect("file");
        prop_assert_eq!(from_list.triangles, oracle);
        prop_assert_eq!(from_file.triangles, oracle);
        let (counted, per_edge) =
            cannon_per_edge(&bin.file, p, &cfg, &PLAIN).expect("per edge");
        prop_assert_eq!(counted.triangles, oracle);
        prop_assert_eq!(per_edge.len(), el.num_edges());
        for (got, (&(u, v), &support)) in per_edge.iter().zip(el.edges.iter().zip(&supports)) {
            prop_assert_eq!((got.u, got.v, got.support), (u, v, support));
        }
    }

    #[test]
    fn every_source_counts_alike_on_summa_grids(
        el in graphs(),
        shape in prop::sample::select(vec![(1usize, 1usize), (2, 2), (2, 3), (3, 1), (4, 4)]),
        ijk in any::<bool>(),
    ) {
        let enumeration = if ijk { Enumeration::Ijk } else { Enumeration::Jik };
        let cfg = TcConfig::default().with_enumeration(enumeration);
        let grid = SummaGrid::new(shape.0, shape.1);
        let csr = Csr::from_edge_list(&el);
        let bin = TempBin::new(&el);
        let n = el.num_vertices;
        let oracle = tc_baselines::serial::count_default(&el);

        let per_rank = Universe::run(grid.size(), |comm| {
            shares(&el, &csr, &bin.file, grid.size(), comm.rank())
                .map(|input| summa_rank_from(comm, &grid, n, &input, &cfg).expect("summa").0)
        });
        for counts in per_rank {
            prop_assert_eq!(counts, [oracle; 4]);
        }
    }
}

/// Every defect the canonical form forbids, placed on the last record
/// of one stripe and on the first of the next (where only the record
/// *before* the stripe can expose a duplicate or a descent): all ranks
/// must stop with the same typed error naming the record — and, for a
/// file, its byte offset — on Cannon and SUMMA alike.
#[test]
fn defects_on_a_stripe_boundary_stop_every_rank_with_one_typed_error() {
    use tc_mps::MpsError;
    let clean: Vec<(u32, u32)> = (0..16).map(|i| (i / 2, 9 + i % 2 + i / 4)).collect();
    assert!(EdgeList::new(14, clean.clone()).is_simple());
    let cfg = TcConfig::default();
    // Stripes of 16 records on 4 ranks are [0,4) [4,8) [8,12) [12,16).
    for at in [7usize, 8] {
        let defects = [
            ((clean[at].0, clean[at].0), "self-loop"),
            (clean[at - 1], "duplicate of the edge before it"),
            ((clean[at].1, clean[at].0), "descending pair"),
            ((clean[at - 1].0, clean[at - 1].1 - 1), "want strictly ascending"),
            ((clean[at].0, 14), "endpoint 14 out of range (n = 14)"),
        ];
        for (record, what) in defects {
            let mut edges = clean.clone();
            edges[at] = record;
            let el = EdgeList { num_vertices: 14, edges };
            let bin = TempBin::new(&el);
            let grid = SummaGrid::new(2, 2);
            let runs = [
                cannon(&bin.file, 4, &cfg, &PLAIN),
                summa(&bin.file, grid, &cfg, &PLAIN),
                cannon(&el, 4, &cfg, &PLAIN),
            ];
            for (run, from_file) in runs.into_iter().zip([true, true, false]) {
                let Err(MpsError::InvalidInput { rank, msg }) = run else {
                    panic!("record {at} = {record:?} ({what}) was not refused: {run:?}");
                };
                assert_eq!(rank, at / 4, "{msg}");
                assert!(msg.contains(&format!("edge {at}: ")) && msg.contains(what), "{msg}");
                let origin = if from_file {
                    format!("corrupt binary at byte {}", 24 + 8 * at)
                } else {
                    "input must be a simplified undirected graph".to_string()
                };
                assert!(msg.contains(&origin), "{msg}");
            }
        }
    }
}
