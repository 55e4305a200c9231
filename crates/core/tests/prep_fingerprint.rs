//! Bit-for-bit pin of the §5.3 preprocessing output.
//!
//! The fingerprints below were recorded on the commit *before* the
//! one-copy preprocessing rewrite (flat adjacency, label table, task
//! block derived from `L`); every later pipeline must reproduce them
//! exactly — labels, all three blocks, `max_hash_row` and the `ops`
//! count — for both enumerations and both input sources. A mismatch
//! prints the full actual table so a *deliberate* change of the
//! preprocessing output can re-pin it.

use tc_core::blocks::SparseBlock;
use tc_core::preprocess::{preprocess_from, BlockInput, PrepOutput};
use tc_core::{count_triangles_summa, Enumeration, SummaGrid, TcConfig};
use tc_gen::er::gnm;
use tc_gen::{rmat, RmatParams};
use tc_graph::{Block1D, Csr, EdgeList};
use tc_mps::Universe;

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

    fn block(&mut self, b: &SparseBlock) {
        self.word(b.num_rows() as u64);
        for lr in 0..b.num_rows() {
            self.word(b.row_start(lr) as u64);
        }
        self.words(b.entries());
        self.words(b.nonempty_rows());
    }
}

fn fingerprint(prep: &PrepOutput) -> u64 {
    let mut h = Fnv::new();
    for w in [prep.q, prep.x, prep.y, prep.n, prep.max_hash_row] {
        h.word(w as u64);
    }
    h.word(prep.ops);
    h.block(&prep.task);
    h.block(&prep.ublock);
    h.block(&prep.lblock);
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

/// Folds the per-rank fingerprints of one `(graph, p, enumeration,
/// input source)` run, in rank order.
fn run(csr: &Csr, p: usize, enumeration: Enumeration, owned: bool) -> u64 {
    let n = csr.num_vertices();
    let cfg = TcConfig::paper().with_enumeration(enumeration);
    let per_rank = Universe::run(p, |comm| {
        let prep = if owned {
            let (lo, hi) = Block1D::new(n, p).range(comm.rank());
            let mut xadj = vec![0u32];
            let mut adj = Vec::new();
            for v in lo..hi {
                adj.extend_from_slice(csr.neighbors(v as u32));
                xadj.push(adj.len() as u32);
            }
            let input = BlockInput::Owned { lo: lo as u32, xadj, adj };
            preprocess_from(comm, n, &input, &cfg)
        } else {
            preprocess_from(comm, n, &BlockInput::Shared(csr), &cfg)
        };
        fingerprint(&prep.expect("preprocessing"))
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
        [0x127f_9ff9_f818_ab84, 0x1a6f_2447_a4e9_aa55],
        [0xa7d1_ef00_726d_89e2, 0x3449_5558_1ec9_076a],
        [0x94f1_f094_7058_188f, 0x35ab_f562_ca69_bb16],
        [0x7d15_b61d_a6f6_02ce, 0x95f8_b815_a295_33eb],
        [0x83fc_5a87_3c11_b551, 0x3372_36b7_bbda_dff7],
    ],
    [
        [0x77ca_1b69_b1c5_e845, 0xba03_ca91_0892_00e5],
        [0x43ac_6d51_fab5_f845, 0x96bc_0d2e_3f34_d052],
        [0x9963_b657_2216_ec47, 0x5779_6ac4_e6cb_a56a],
        [0xe112_d17f_5243_69f4, 0x2edc_623c_023a_842c],
        [0xf111_234f_c120_02b5, 0x50b8_e8ad_b4dd_5958],
    ],
];

#[test]
fn preprocessing_output_is_bit_identical_to_the_recorded_pipeline() {
    let graphs = [rmat_with_hub(), gnm(700, 4200, 11).simplify()];
    let mut actual = [[[0u64; 2]; 5]; 2];
    for (g, el) in graphs.iter().enumerate() {
        let csr = Csr::from_edge_list(el);
        for (i, &p) in RANKS.iter().enumerate() {
            for (e, &enumeration) in ENUMERATIONS.iter().enumerate() {
                let shared = run(&csr, p, enumeration, false);
                let owned = run(&csr, p, enumeration, true);
                assert_eq!(shared, owned, "graph {g} p={p} {enumeration:?}: Shared vs Owned");
                actual[g][i][e] = shared;
            }
        }
    }
    assert!(actual == PINNED, "fingerprints moved; actual table:\n{actual:#x?}");
}

/// `(triangles, tasks, ppt ops)` per `(graph, enumeration)`. SUMMA
/// keeps its own three-way 2D exchange, so tasks and ops pin the
/// shared relabel phase it starts from as well.
const PINNED_SUMMA: [(u64, u64, u64); 4] =
    [(30100, 6049, 93070), (30100, 6050, 93070), (271, 3515, 51584), (271, 4643, 51584)];

#[test]
fn summa_2x3_counts_are_pinned() {
    let grid = SummaGrid::new(2, 3);
    let actual: Vec<(u64, u64, u64)> = [rmat_with_hub(), gnm(700, 4200, 11).simplify()]
        .iter()
        .flat_map(|el| {
            ENUMERATIONS.map(|e| {
                let r = count_triangles_summa(el, grid, &TcConfig::paper().with_enumeration(e));
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
            let sizes =
                [prep.task.num_entries(), prep.ublock.num_entries(), prep.lblock.num_entries()];
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
        let counted = tc_core::try_count_triangles(el, p, &cfg).expect("count").triangles;
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
