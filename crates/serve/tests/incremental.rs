//! Property tests: the incremental delta path is exactly equivalent
//! to a fresh 2D recount — maintained count and per-edge supports —
//! after every batch, under both the Cannon and SUMMA oracles and
//! across fleet sizes p ∈ {1, 4, 16}.

use std::collections::{BTreeSet, HashMap};

use proptest::collection::vec;
use proptest::prelude::*;
use tc_core::{count_per_edge, EdgeSource, Request, SummaGrid, TcConfig};
use tc_graph::io::{write_binary_edges_path, EdgeFile};
use tc_graph::{AdjStore, Block1D, Csr, EdgeList};
use tc_mps::{Launch, Universe, UniverseConfig};
use tc_serve::engine::local_fingerprint;
use tc_serve::{Algo, EdgeOp, Engine};

/// Reference model: a canonical edge set mutated op by op.
fn apply_ref(edges: &mut BTreeSet<(u32, u32)>, ops: &[EdgeOp]) {
    for op in ops {
        let (u, v) = op.canonical();
        if u == v {
            continue;
        }
        if op.insert {
            edges.insert((u, v));
        } else {
            edges.remove(&(u, v));
        }
    }
}

fn ref_edge_list(n: usize, edges: &BTreeSet<(u32, u32)>) -> EdgeList {
    EdgeList::new(n, edges.iter().copied().collect()).simplify()
}

/// Runs cold start + the batch sequence on `p` ranks, asserting after
/// every batch that the maintained count equals a fresh 2D recount.
/// Returns rank 0's per-edge supports for `probe_edges` plus the
/// final maintained count.
fn run_case(
    el: &EdgeList,
    batches: &[Vec<EdgeOp>],
    probe_edges: &[(u32, u32)],
    p: usize,
    algo: Algo,
) -> (u64, Vec<(u64, bool)>) {
    let out = Universe::try_run_config(p, &UniverseConfig::default(), |comm| {
        let mut engine = Engine::cold_start_from(comm, el.into(), algo, TcConfig::default())?;
        for batch in batches {
            let outcome = engine.apply_batch(comm, batch)?;
            let oracle = engine.recount(comm)?;
            assert_eq!(
                outcome.triangles, oracle,
                "incremental count drifted from the 2D recount (algo {algo:?}, p {p})"
            );
        }
        assert_eq!(engine.batches_applied(), batches.len() as u64);
        let mut supports = Vec::new();
        for &(u, v) in probe_edges {
            let reply = engine.query_support(comm, u, v)?;
            if comm.rank() == 0 {
                let r = reply.expect("rank 0 gets the support reply");
                supports.push((r.support, r.present));
            }
        }
        Ok((engine.triangles(), supports))
    })
    .expect("universe run");
    out.0.into_iter().next().expect("rank 0 result")
}

/// End-state oracle: per-edge supports from the offline 2D per-edge
/// kernel over the reference final graph.
fn oracle_supports(el: &EdgeList, p: usize) -> HashMap<(u32, u32), u64> {
    let (_result, supports) = count_per_edge(el, p, &TcConfig::default());
    supports.into_iter().map(|s| ((s.u, s.v), s.support)).collect()
}

/// Common-neighbour count in the reference graph (defined for absent
/// pairs too, unlike the per-edge oracle).
fn ref_support(el: &EdgeList, u: u32, v: u32) -> u64 {
    let csr = Csr::from_edge_list(el);
    let (nu, nv) = (csr.neighbors(u), csr.neighbors(v));
    nu.iter().filter(|w| nv.binary_search(w).is_ok()).count() as u64
}

fn arb_batches(n: u32) -> impl Strategy<Value = Vec<Vec<EdgeOp>>> {
    vec(vec((0..n, 0..n, any::<bool>()), 0..16), 1..5).prop_map(|raw| {
        raw.into_iter()
            .map(|batch| batch.into_iter().map(|(u, v, insert)| EdgeOp { u, v, insert }).collect())
            .collect()
    })
}

fn arb_case() -> impl Strategy<Value = (EdgeList, Vec<Vec<EdgeOp>>)> {
    (6usize..28, any::<u64>()).prop_flat_map(|(n, seed)| {
        let m = n * 2;
        arb_batches(n as u32)
            .prop_map(move |batches| (tc_gen::er::gnm(n, m, seed).simplify(), batches))
    })
}

/// Drives one (graph, batches, p, algo) combination end to end:
/// per-batch recount equivalence inside the universe, then final
/// supports against both the reference model and the offline 2D
/// per-edge kernel.
fn check(el: &EdgeList, batches: &[Vec<EdgeOp>], p: usize, algo: Algo) {
    let n = el.num_vertices;
    let mut reference: BTreeSet<(u32, u32)> = el.edges.iter().copied().collect();
    for batch in batches {
        apply_ref(&mut reference, batch);
    }
    let final_el = ref_edge_list(n, &reference);

    // Probe the first few surviving edges plus a couple of pairs that
    // may be absent.
    let mut probes: Vec<(u32, u32)> = reference.iter().copied().take(8).collect();
    if n >= 2 {
        probes.push((0, (n - 1) as u32));
        probes.push((0, 1));
    }

    let (count, supports) = run_case(el, batches, &probes, p, algo);
    let expected = oracle_supports(&final_el, p);
    let expected_count: u64 = expected.values().sum::<u64>() / 3;
    assert_eq!(count, expected_count, "final count vs per-edge oracle (p {p}, {algo:?})");

    for (&(u, v), &(support, present)) in probes.iter().zip(&supports) {
        assert_eq!(present, reference.contains(&(u.min(v), u.max(v))), "presence of ({u}, {v})");
        assert_eq!(support, ref_support(&final_el, u, v), "support of ({u}, {v})");
        if present {
            assert_eq!(
                support,
                expected[&(u.min(v), u.max(v))],
                "support of present edge ({u}, {v}) vs 2D per-edge oracle"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn incremental_matches_recount_cannon_p1(case in arb_case()) {
        let (el, batches) = case;
        check(&el, &batches, 1, Algo::Cannon);
    }

    #[test]
    fn incremental_matches_recount_cannon_p4(case in arb_case()) {
        let (el, batches) = case;
        check(&el, &batches, 4, Algo::Cannon);
    }

    #[test]
    fn incremental_matches_recount_summa_p4(case in arb_case()) {
        let (el, batches) = case;
        check(&el, &batches, 4, Algo::Summa(SummaGrid::new(2, 2)));
    }
}

/// Deterministic batch stream derived from a graph: delete every
/// third edge, re-insert half of the deleted ones, weave in fresh
/// edges — exercising inserts and deletes that interact (shared
/// endpoints, batch-only triangles).
fn scripted_batches(el: &EdgeList, batch_len: usize) -> Vec<Vec<EdgeOp>> {
    let n = el.num_vertices as u32;
    let mut ops: Vec<EdgeOp> = Vec::new();
    for (i, &(u, v)) in el.edges.iter().enumerate() {
        match i % 3 {
            0 => {
                ops.push(EdgeOp::delete(u, v));
                if i % 6 == 0 {
                    ops.push(EdgeOp::insert(u, v));
                }
            }
            1 => {
                let w = (u + v) % n;
                if w != u && w != v {
                    ops.push(EdgeOp::insert(u.min(w), u.max(w)));
                    ops.push(EdgeOp::insert(v.min(w), v.max(w)));
                }
            }
            _ => {}
        }
    }
    ops.chunks(batch_len.max(1)).map(<[EdgeOp]>::to_vec).collect()
}

#[test]
fn incremental_matches_recount_rmat_p16_cannon() {
    let el = tc_gen::rmat(5, 8, tc_gen::RmatParams::GRAPH500, 42).simplify();
    let batches = scripted_batches(&el, 24);
    assert!(batches.len() >= 4, "scripted stream produced too few batches");
    check(&el, &batches, 16, Algo::Cannon);
}

#[test]
fn incremental_matches_recount_rmat_p16_summa() {
    let el = tc_gen::rmat(5, 8, tc_gen::RmatParams::GRAPH500, 7).simplify();
    let batches = scripted_batches(&el, 24);
    check(&el, &batches, 16, Algo::Summa(SummaGrid::new(4, 4)));
}

#[test]
fn full_recounts_stay_pinned_without_oracle_calls() {
    let el = tc_gen::er::gnm(20, 60, 9).simplify();
    let batches = scripted_batches(&el, 16);
    let counts = Universe::try_run_config(4, &UniverseConfig::default(), |comm| {
        let mut engine =
            Engine::cold_start_from(comm, (&el).into(), Algo::Cannon, TcConfig::default())?;
        for batch in &batches {
            engine.apply_batch(comm, batch)?;
        }
        // The hot path must never recount: cold start is the only one.
        assert_eq!(engine.full_recounts(), 1);
        Ok(engine.triangles())
    })
    .expect("universe run");
    let mut reference: BTreeSet<(u32, u32)> = el.edges.iter().copied().collect();
    for batch in &batches {
        apply_ref(&mut reference, batch);
    }
    let final_el = ref_edge_list(20, &reference);
    let expected = tc_core::count_triangles(&final_el, 4, &TcConfig::default()).triangles;
    assert!(counts.0.iter().all(|&c| c == expected), "replicated count wrong on some rank");
}

/// `support` is owner-routed: rank 0 hears from exactly the other
/// owners of `u` and `v`, one message each; every other rank stays
/// silent, and nobody enters a collective.
#[test]
fn support_traffic_is_owner_routed() {
    let n = 40;
    let el = tc_gen::er::gnm(n, 200, 13).simplify();
    let block = Block1D::new(n, 4);
    let lo = |r: usize| block.range(r).0 as u32;
    // (u, v) and the ranks other than 0 that own an endpoint.
    let cases: [((u32, u32), &[usize]); 5] = [
        ((lo(0), lo(0) + 1), &[]),
        ((lo(0), lo(1)), &[1]),
        ((lo(1), lo(1) + 1), &[1]),
        ((lo(1), lo(2)), &[1, 2]),
        ((lo(3), lo(0) + 2), &[3]),
    ];
    let (replies, _) = Universe::try_run_config(4, &UniverseConfig::default(), |comm| {
        let engine =
            Engine::cold_start_from(comm, (&el).into(), Algo::Cannon, TcConfig::default())?;
        let me = comm.rank();
        let mut replies = Vec::new();
        for &((u, v), peers) in &cases {
            assert_eq!(engine.support_peers(u, v).collect::<Vec<_>>(), peers);
            let (before, colls) = (comm.stats(), comm.collective_calls());
            let reply = engine.query_support(comm, u, v)?;
            let after = comm.stats();
            let (sent, recvd) =
                if me == 0 { (0, peers.len() as u64) } else { (u64::from(peers.contains(&me)), 0) };
            assert_eq!(after.msgs_sent - before.msgs_sent, sent, "rank {me}, ({u}, {v}) sent");
            assert_eq!(after.msgs_recv - before.msgs_recv, recvd, "rank {me}, ({u}, {v}) recvd");
            assert_eq!(comm.collective_calls(), colls, "rank {me} entered a collective");
            assert_eq!(reply.is_some(), me == 0);
            replies.extend(reply);
        }
        Ok(replies)
    })
    .expect("universe run");
    let edges: BTreeSet<(u32, u32)> = el.edges.iter().copied().collect();
    for (&((u, v), _), r) in cases.iter().zip(&replies[0]) {
        assert_eq!(r.support, ref_support(&el, u, v), "support of ({u}, {v})");
        assert_eq!(r.present, edges.contains(&(u.min(v), u.max(v))), "presence of ({u}, {v})");
    }
}

/// The cold start runs the §5.3 preprocessing over the source's
/// stripes; its count was recorded before the one-copy preprocessing
/// rewrite and must never move — from a list, a `.bin`, or a CSR
/// through [`Engine::cold_start`].
#[test]
fn cold_start_count_is_pinned() {
    let el = tc_gen::rmat(10, 8, tc_gen::RmatParams::GRAPH500, 7).simplify();
    let csr = Csr::from_edge_list(&el);
    let bin = TempBin::new(&el);
    for (p, algo) in [(4, Algo::Cannon), (16, Algo::Cannon), (6, Algo::Summa(SummaGrid::new(2, 3)))]
    {
        let counts = Universe::try_run_config(p, &UniverseConfig::default(), |comm| {
            let cfg = TcConfig::default();
            let mut counts = Vec::new();
            for engine in [
                Engine::cold_start(comm, &csr, algo, cfg)?,
                Engine::cold_start_from(comm, (&el).into(), algo, cfg)?,
                Engine::cold_start_from(comm, (&bin.file).into(), algo, cfg)?,
            ] {
                assert_eq!(engine.full_recounts(), 1);
                counts.push(engine.triangles());
            }
            Ok(counts)
        })
        .expect("universe run");
        assert!(counts.0.iter().flatten().all(|&c| c == 24051), "p={p} {algo:?}: {:?}", counts.0);
    }
}

/// A `.bin` of a list in the temp directory, removed on drop.
struct TempBin {
    path: std::path::PathBuf,
    file: EdgeFile,
}

impl TempBin {
    fn new(el: &EdgeList) -> Self {
        static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let seq = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let path = std::env::temp_dir()
            .join(format!("tc-serve-incremental-{}-{seq}.bin", std::process::id()));
        write_binary_edges_path(el, &path).expect("write the .bin");
        let file = EdgeFile::open(&path).expect("reopen the .bin");
        Self { path, file }
    }
}

impl Drop for TempBin {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// The cold start from stripes builds what the CSR construction did:
/// on p ∈ {1, 4, 9} under Cannon and on a 2×3 SUMMA grid, from a list
/// and from a `.bin`, every rank's count is `tc_core::run`'s on the
/// same source, its owned rows are `AdjStore::from_csr_block`'s, and
/// the fingerprint summed over the stripes is the allreduce of the
/// built stores' shares.
#[test]
fn cold_start_from_equals_the_old_construction() {
    let hub_and_isolated = {
        let mut edges: Vec<(u32, u32)> = (1..=30).map(|v| (0, v)).collect();
        edges.extend([(1, 2), (2, 3), (1, 3), (40, 41)]);
        EdgeList::new(50, edges).simplify()
    };
    let graphs = [
        tc_gen::rmat(8, 8, tc_gen::RmatParams::GRAPH500, 3).simplify(),
        tc_gen::er::gnm(60, 300, 5).simplify(),
        hub_and_isolated,
        EdgeList::new(12, vec![(0, 1), (1, 2), (0, 2)]).simplify(), // fewer edges than ranks
    ];
    let runs = [
        (1, Algo::Cannon),
        (4, Algo::Cannon),
        (9, Algo::Cannon),
        (6, Algo::Summa(SummaGrid::new(2, 3))),
    ];
    for (g, el) in graphs.iter().enumerate() {
        let csr = Csr::from_edge_list(el);
        let bin = TempBin::new(el);
        let cfg = TcConfig::default();
        for src in [EdgeSource::List(el), EdgeSource::File(&bin.file)] {
            for (p, algo) in runs {
                let req = match algo {
                    Algo::Cannon => Request::new(src, &cfg),
                    Algo::Summa(grid) => Request::new(src, &cfg).summa(grid),
                };
                let ucfg = UniverseConfig::default();
                let want = tc_core::run(req, Launch::threads(p, &ucfg)).expect("run").triangles;
                let block = Block1D::new(el.num_vertices, p);
                let (ranks, _) = Universe::try_run_config(p, &ucfg, |comm| {
                    let engine = Engine::cold_start_from(comm, src, algo, cfg)?;
                    let (lo, hi) = block.range(comm.rank());
                    let oracle = AdjStore::from_csr_block(&csr, lo, hi);
                    let what = format!("graph {g}, {src:?}, p={p} {algo:?}, rank {}", comm.rank());
                    assert_eq!(engine.store().range(), oracle.range(), "{what}");
                    assert!(engine.store().owned_rows().eq(oracle.owned_rows()), "{what}: rows");
                    let shares = [local_fingerprint(engine.store())];
                    let built = comm.allreduce(&shares, |a, b| *a = a.wrapping_add(*b))?[0];
                    assert_eq!(engine.fingerprint(), built, "{what}: fingerprint");
                    Ok(engine.triangles())
                })
                .expect("universe run");
                assert!(ranks.iter().all(|&t| t == want), "graph {g} p={p} {algo:?}: {ranks:?}");
            }
        }
    }
}
