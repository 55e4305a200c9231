//! Bit-for-bit pin of the §5.3 preprocessing output.
//!
//! The fingerprints below were recorded on the commit *before* the
//! edge-striped front half (the pipeline that redistributed adjacency
//! rows); every later pipeline must reproduce them exactly — labels,
//! all three blocks and `max_hash_row`, everything but the `ops`
//! tally, which counts the work a front half chooses to do — for both
//! enumerations and all four input sources. A mismatch prints the full
//! actual table so a *deliberate* change of the preprocessing output
//! can re-pin it.

use tc_core::blocks::{BlockView, SparseBlock, SparseBlockRef};
use tc_core::preprocess::{preprocess_from, BlockInput, EdgeSource, PrepOutput};
use tc_core::{Enumeration, SummaGrid, TcConfig};
use tc_gen::er::gnm;
use tc_gen::{rmat, RmatParams};
use tc_graph::io::{write_binary_edges_path, EdgeFile};
use tc_graph::{Block1D, Csr, EdgeList};
use tc_mps::Universe;

mod common;

/// FNV-1a over a stream of `u64` words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn words(&mut self, ws: &[u32]) {
        self.word(ws.len() as u64);
        for &w in ws {
            self.word(u64::from(w));
        }
    }

    /// The row starts, the entries in row order and the non-empty row
    /// index of a block, whether owned or a view of its blob.
    fn block(&mut self, b: &impl BlockView) {
        self.word(b.num_rows() as u64);
        for lr in 0..b.num_rows() {
            self.word(b.row_start(lr) as u64);
        }
        self.word(b.num_entries() as u64);
        for lr in 0..b.num_rows() {
            for &w in b.row(lr) {
                self.word(u64::from(w));
            }
        }
        self.words(b.nonempty_rows());
    }
}

fn fingerprint(prep: &PrepOutput) -> u64 {
    let mut h = Fnv::new();
    for w in [prep.q, prep.x, prep.y, prep.n, prep.max_hash_row] {
        h.word(w as u64);
    }
    h.block(&prep.task);
    h.block(&SparseBlockRef::from_blob(&prep.ublob));
    h.block(&SparseBlockRef::from_blob(&prep.lblob));
    h.word(prep.label_pairs.len() as u64);
    for &(old, new) in &prep.label_pairs {
        h.word(u64::from(old) << 32 | u64::from(new));
    }
    h.0
}

/// rmat(10, 8) plus one vertex adjacent to every other (the
/// maximum-degree row).
fn rmat_with_hub() -> EdgeList {
    let el = rmat(10, 8, RmatParams::GRAPH500, 7);
    let hub = el.num_vertices as u32;
    let mut edges = el.edges;
    edges.extend((0..hub).map(|v| (v, hub)));
    EdgeList::new(hub as usize + 1, edges).simplify()
}

/// The four shapes a rank's share of the input comes in.
#[derive(Debug, Clone, Copy)]
enum Source<'a> {
    Shared,
    Owned,
    ListStripe,
    FileStripe(&'a EdgeFile),
}

/// Folds the per-rank fingerprints of one `(graph, p, enumeration,
/// input source)` run, in rank order.
fn run(el: &EdgeList, csr: &Csr, p: usize, enumeration: Enumeration, source: Source<'_>) -> u64 {
    let n = csr.num_vertices();
    let cfg = TcConfig::paper().with_enumeration(enumeration);
    let per_rank = Universe::run(p, |comm| {
        let input = match source {
            Source::Shared => BlockInput::Shared(csr),
            Source::Owned => {
                let (lo, hi) = Block1D::new(n, p).range(comm.rank());
                let mut xadj = vec![0u32];
                let mut adj = Vec::new();
                for v in lo..hi {
                    adj.extend_from_slice(csr.neighbors(v as u32));
                    xadj.push(adj.len() as u32);
                }
                BlockInput::Owned { lo: lo as u32, xadj, adj }
            }
            Source::ListStripe => BlockInput::Striped(EdgeSource::List(el)),
            Source::FileStripe(file) => BlockInput::Striped(EdgeSource::File(file)),
        };
        fingerprint(&preprocess_from(comm, n, &input, &cfg).expect("preprocessing"))
    });
    let mut h = Fnv::new();
    for f in per_rank {
        h.word(f);
    }
    h.0
}

const RANKS: [usize; 5] = [1, 4, 9, 16, 25];
const ENUMERATIONS: [Enumeration; 2] = [Enumeration::Jik, Enumeration::Ijk];

/// `[graph][p][enumeration]`, graphs in the order rmat+hub, ER.
const PINNED: [[[u64; 2]; 5]; 2] = [
    [
        [0x1beb_49c3_dec0_b6c5, 0xa008_f0d2_1f0c_cb44],
        [0x69df_fa5e_6f66_7af5, 0x2e9c_4f6a_e223_2563],
        [0x793c_ceb2_3749_6844, 0x4f9f_2000_5558_c52c],
        [0xdc97_9007_e751_acbd, 0x239a_679a_e12b_3718],
        [0xb913_3aa8_97d0_0b9f, 0x7ca8_104d_503f_8e19],
    ],
    [
        [0xac72_fb9b_a0dd_de09, 0xe828_3534_852f_b046],
        [0x5b9e_ca47_324f_065e, 0xad3a_d457_fd22_f052],
        [0x6b9d_24e0_c448_7b09, 0xa2cc_8ca3_172a_8ae1],
        [0x08f1_8191_e5b4_b8a4, 0x6dfd_da4c_ffde_cd15],
        [0x3190_778d_3eaf_5fa3, 0x8895_d349_ea99_735d],
    ],
];

#[test]
fn preprocessing_output_is_bit_identical_to_the_recorded_pipeline() {
    let graphs = [rmat_with_hub(), gnm(700, 4200, 11).simplify()];
    let mut actual = [[[0u64; 2]; 5]; 2];
    for (g, el) in graphs.iter().enumerate() {
        let csr = Csr::from_edge_list(el);
        let path =
            std::env::temp_dir().join(format!("tc-fingerprint-{}-{g}.bin", std::process::id()));
        write_binary_edges_path(el, &path).expect("write the .bin");
        let file = EdgeFile::open(&path).expect("reopen the .bin");
        for (i, &p) in RANKS.iter().enumerate() {
            for (e, &enumeration) in ENUMERATIONS.iter().enumerate() {
                let shared = run(el, &csr, p, enumeration, Source::Shared);
                for other in [Source::Owned, Source::ListStripe, Source::FileStripe(&file)] {
                    let got = run(el, &csr, p, enumeration, other);
                    assert_eq!(shared, got, "graph {g} p={p} {enumeration:?}: Shared vs {other:?}");
                }
                actual[g][i][e] = shared;
            }
        }
        std::fs::remove_file(&path).expect("remove the .bin");
    }
    assert!(actual == PINNED, "fingerprints moved; actual table:\n{actual:#x?}");
}

/// `(triangles, tasks, ppt ops)` per `(graph, enumeration)`. SUMMA
/// keeps its own three-way 2D exchange, so tasks and ops pin the
/// shared relabel phase it starts from as well. Triangles and tasks
/// are those of the row-redistributing pipeline; `ops` was re-pinned
/// with the edge-striped front half (93070 and 51584 before it).
const PINNED_SUMMA: [(u64, u64, u64); 4] =
    [(30100, 6049, 70055), (30100, 6050, 70055), (271, 3515, 39004), (271, 4643, 39004)];

#[test]
fn summa_2x3_counts_are_pinned() {
    let grid = SummaGrid::new(2, 3);
    let actual: Vec<(u64, u64, u64)> = [rmat_with_hub(), gnm(700, 4200, 11).simplify()]
        .iter()
        .flat_map(|el| {
            ENUMERATIONS.map(|e| {
                let cfg = TcConfig::paper().with_enumeration(e);
                let r = common::summa(el, grid, &cfg, &common::PLAIN).expect("summa");
                let ops = r.ranks.iter().map(|m| m.ppt_ops).sum();
                (r.triangles, r.total_tasks(), ops)
            })
        })
        .collect();
    assert_eq!(actual, PINNED_SUMMA, "actual: {actual:?}");
}

/// Runs preprocessing at `p` ranks and checks what must hold on any
/// graph: the labels are a permutation that orders vertices by degree,
/// every edge is stored exactly once in each of the three block kinds,
/// and the count that follows agrees with the serial reference.
fn check_pipeline_invariants(el: &EdgeList, p: usize) {
    let csr = Csr::from_edge_list(el);
    let n = csr.num_vertices();
    for enumeration in ENUMERATIONS {
        let cfg = TcConfig::paper().with_enumeration(enumeration);
        let per_rank = Universe::run(p, |comm| {
            let prep = preprocess_from(comm, n, &BlockInput::Shared(&csr), &cfg).expect("prep");
            let sizes = [
                prep.task.num_entries(),
                SparseBlockRef::from_blob(&prep.ublob).num_entries(),
                SparseBlockRef::from_blob(&prep.lblob).num_entries(),
            ];
            (prep.label_pairs, sizes)
        });
        let mut new_of = vec![u32::MAX; n];
        let mut sizes = [0usize; 3];
        for (rank, (labels, s)) in per_rank.into_iter().enumerate() {
            for (old, new) in labels {
                assert_eq!(old as usize % p, rank, "vertex {old} labelled by a non-owner");
                assert_eq!(new_of[old as usize], u32::MAX, "vertex {old} labelled twice");
                new_of[old as usize] = new;
            }
            for (total, part) in sizes.iter_mut().zip(s) {
                *total += part;
            }
        }
        let mut seen = vec![false; n];
        for &new in &new_of {
            assert!(!std::mem::replace(&mut seen[new as usize], true), "label {new} reused");
        }
        for (u, v) in csr.edges() {
            let by_degree = csr.degree(u).cmp(&csr.degree(v));
            let by_label = new_of[u as usize].cmp(&new_of[v as usize]);
            assert!(by_degree == by_label || by_degree.is_eq(), "labels must follow degree order");
        }
        assert_eq!(sizes, [el.num_edges(); 3], "p={p} {enumeration:?}: edges per block kind");
        let counted = common::cannon(el, p, &cfg, &common::PLAIN).expect("count").triangles;
        assert_eq!(counted, tc_baselines::serial::count_default(el), "p={p} {enumeration:?}");
    }
}

#[test]
fn edge_cases_at_sixteen_ranks() {
    let hub_and_isolated = {
        // Vertex 0 adjacent to 1..=40 (the hub), a triangle among its
        // neighbours, and 23 vertices nobody references.
        let mut edges: Vec<(u32, u32)> = (1..=40).map(|v| (0, v)).collect();
        edges.extend([(1, 2), (2, 3), (1, 3)]);
        EdgeList::new(64, edges).simplify()
    };
    for el in [
        EdgeList::empty(0),                                        // the empty graph
        EdgeList::empty(5),                                        // n < p, no edges
        EdgeList::new(3, vec![(0, 1), (0, 2), (1, 2)]).simplify(), // n < p: 13 ranks own nothing
        EdgeList::new(17, vec![(0, 16), (3, 16)]).simplify(),      // one rank owns two vertices
        hub_and_isolated,
    ] {
        check_pipeline_invariants(&el, 16);
        check_pipeline_invariants(&el, 1);
    }
}

/// `L = Uᵀ`: the `L(x, y)` blob every rank ends preprocessing with is,
/// byte for byte, the `U(y, x)` blob of its transpose rank, and both
/// are exactly what [`SparseBlock::to_blob`] makes of the block they
/// hold.
fn check_l_is_transpose_u(el: &EdgeList, p: usize) {
    let csr = Csr::from_edge_list(el);
    let n = csr.num_vertices();
    let q = tc_mps::perfect_square_side(p).expect("square rank count");
    for enumeration in ENUMERATIONS {
        let cfg = TcConfig::paper().with_enumeration(enumeration);
        let blobs = Universe::run(p, |comm| {
            let input = BlockInput::Striped(EdgeSource::List(el));
            let prep = preprocess_from(comm, n, &input, &cfg).expect("prep");
            (prep.ublob, prep.lblob)
        });
        for (rank, (ublob, lblob)) in blobs.iter().enumerate() {
            let (x, y) = (rank / q, rank % q);
            let transpose_u = &blobs[y * q + x].0;
            assert_eq!(lblob, transpose_u, "p={p} {enumeration:?}: L({x}, {y}) != U({y}, {x})");
            for blob in [ublob, lblob] {
                let roundtrip = SparseBlock::from_blob(blob.clone()).to_blob();
                assert_eq!(blob, &roundtrip, "p={p} rank {rank}: not the to_blob layout");
            }
        }
    }
}

#[test]
fn l_blocks_are_the_transpose_ranks_u_blobs() {
    let few_vertices = EdgeList::new(3, vec![(0, 1), (0, 2), (1, 2)]).simplify();
    for el in [rmat_with_hub(), few_vertices, EdgeList::empty(5)] {
        for p in RANKS {
            check_l_is_transpose_u(&el, p);
        }
    }
}
