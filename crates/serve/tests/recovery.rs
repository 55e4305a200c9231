//! Crash-recovery fidelity: checkpoint + WAL replay must reproduce
//! the pre-crash engine **bit-identically** — same adjacency
//! snapshot bytes, same count, same edge-set fingerprint — for
//! random batch streams interrupted after every prefix, for WAL
//! files torn at every byte boundary, and for a multi-rank fleet
//! where one rank's durable state is wiped entirely (rebuilt from its
//! stripe of the source, then bridged by a peer's WAL).

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use proptest::collection::vec;
use proptest::prelude::*;
use tc_core::{EdgeSource, TcConfig};
use tc_graph::io::{write_binary_edges_path, EdgeFile};
use tc_graph::EdgeList;
use tc_mps::{Universe, UniverseConfig};
use tc_serve::{Algo, Durability, EdgeOp, Engine};

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

/// A fresh scratch directory (unique per test process and call).
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "tc-recovery-{tag}-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// What one engine state looks like from the outside: everything the
/// recovery path promises to reproduce.
#[derive(Debug, Clone, PartialEq, Eq)]
struct StateView {
    seq: u64,
    count: u64,
    fingerprint: u64,
    snapshot: Vec<u8>,
}

fn view(engine: &Engine) -> StateView {
    let mut snapshot = Vec::new();
    engine.store().write_snapshot(&mut snapshot).expect("snapshot to memory");
    StateView {
        seq: engine.batches_applied(),
        count: engine.triangles(),
        fingerprint: engine.fingerprint(),
        snapshot,
    }
}

/// Reference run: cold start (no durability), apply batch by batch,
/// capture the state view after every prefix (index k = k batches).
fn reference_states(el: &EdgeList, batches: &[Vec<EdgeOp>]) -> Vec<StateView> {
    let out = Universe::try_run_config(1, &UniverseConfig::default(), |comm| {
        let mut engine =
            Engine::cold_start_from(comm, el.into(), Algo::Cannon, TcConfig::default())?;
        let mut states = vec![view(&engine)];
        for batch in batches {
            engine.apply_batch(comm, batch)?;
            states.push(view(&engine));
        }
        Ok(states)
    })
    .expect("reference universe");
    out.0.into_iter().next().expect("rank 0 states")
}

/// Durable run: resume-or-cold-start in `dir`, apply `batches`,
/// return the final view plus whether the rank restored from disk.
fn durable_run(
    el: &EdgeList,
    batches: &[Vec<EdgeOp>],
    dir: &Path,
    ckpt_every: u64,
) -> (StateView, bool) {
    let out = Universe::try_run_config(1, &UniverseConfig::default(), |comm| {
        let (mut engine, recovered) = Engine::resume_or_cold_start(
            comm,
            el.into(),
            Algo::Cannon,
            TcConfig::default(),
            dir,
            ckpt_every,
        )?;
        for batch in batches {
            engine.apply_batch(comm, batch)?;
        }
        Ok((view(&engine), recovered))
    })
    .expect("durable universe");
    out.0.into_iter().next().expect("rank 0 view")
}

fn arb_case() -> impl Strategy<Value = (EdgeList, Vec<Vec<EdgeOp>>)> {
    (8usize..24, any::<u64>()).prop_flat_map(|(n, seed)| {
        let m = n * 2;
        vec(vec((0..n as u32, 0..n as u32, any::<bool>()), 1..10), 1..5).prop_map(move |raw| {
            let batches = raw
                .into_iter()
                .map(|b| b.into_iter().map(|(u, v, insert)| EdgeOp { u, v, insert }).collect())
                .collect();
            (tc_gen::er::gnm(n, m, seed).simplify(), batches)
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Interrupt the stream after every prefix k: a process that
    /// committed exactly k batches and died must come back as the
    /// reference engine after k batches — same snapshot bytes, same
    /// count, same fingerprint — and keep producing identical states
    /// for the remaining batches.
    #[test]
    fn replay_is_bit_identical_at_every_prefix(case in arb_case()) {
        let (el, batches) = case;
        let reference = reference_states(&el, &batches);

        for k in 0..=batches.len() {
            let dir = scratch("prefix");
            // Life before the crash: cold start + k committed batches.
            let (before, recovered) = durable_run(&el, &batches[..k], &dir, 0);
            prop_assert!(!recovered, "an empty state dir must cold-start");
            prop_assert_eq!(&before, &reference[k], "pre-crash state at k = {}", k);

            // The respawn: restore and finish the stream.
            let (after, recovered) = durable_run(&el, &batches[k..], &dir, 0);
            prop_assert!(recovered, "a populated state dir must restore");
            prop_assert_eq!(
                &after,
                reference.last().unwrap(),
                "post-recovery final state (interrupted at k = {})",
                k
            );
            let _ = fs::remove_dir_all(&dir);
        }
    }
}

/// Tear the WAL at every byte boundary: the restore must come back
/// at the longest intact record prefix, bit-identical to the
/// reference state of that seq — never a panic, never a corrupted
/// store, never a state beyond what the intact records cover.
#[test]
fn torn_wal_restores_the_longest_intact_prefix() {
    let el = tc_gen::er::gnm(20, 40, 11).simplify();
    let batches: Vec<Vec<EdgeOp>> = (0..5u32)
        .map(|b| {
            (0..6u32)
                .map(|i| {
                    let u = (b * 6 + i) % 20;
                    let v = (u + 1 + b) % 20;
                    EdgeOp { u, v, insert: (b + i) % 3 != 0 }
                })
                .collect()
        })
        .collect();
    let reference = reference_states(&el, &batches);

    let dir = scratch("torn-src");
    durable_run(&el, &batches, &dir, 0);
    let wal = dir.join("wal-0.bin");
    let bytes = fs::read(&wal).expect("the run left a WAL");
    assert!(bytes.len() > 100, "WAL too small to be a meaningful tear target");

    for cut in 0..=bytes.len() {
        let dir2 = scratch("torn-cut");
        fs::create_dir_all(&dir2).unwrap();
        for entry in fs::read_dir(&dir).unwrap() {
            let entry = entry.unwrap();
            fs::copy(entry.path(), dir2.join(entry.file_name())).unwrap();
        }
        fs::write(dir2.join("wal-0.bin"), &bytes[..cut]).unwrap();

        let mut dur = Durability::open(&dir2).expect("open torn dir");
        let restored = dur.restore().expect("restore").expect("generation 0 survives any tear");
        let k = restored.meta.seq as usize;
        assert!(k <= batches.len(), "cut {cut}: seq {k} beyond the stream");
        let expect = &reference[k];
        assert_eq!(restored.meta.count, expect.count, "cut {cut}: count at seq {k}");
        assert_eq!(restored.meta.hash, expect.fingerprint, "cut {cut}: fingerprint at seq {k}");
        let mut snap = Vec::new();
        restored.store.write_snapshot(&mut snap).unwrap();
        assert_eq!(snap, expect.snapshot, "cut {cut}: snapshot bytes at seq {k}");
        let _ = fs::remove_dir_all(&dir2);
    }
    let _ = fs::remove_dir_all(&dir);
}

/// The `.bin` of `el` in `dir`, opened for its stripes.
fn edge_file(el: &EdgeList, dir: &Path) -> EdgeFile {
    fs::create_dir_all(dir).expect("create the scratch dir");
    let path = dir.join("graph.bin");
    write_binary_edges_path(el, &path).expect("write the .bin");
    EdgeFile::open(&path).expect("reopen the .bin")
}

/// One life of a 4-rank durable fleet over `src`: resume or cold-start
/// every rank in `dirs`, check the ranks that restored, apply
/// `batches`; returns each rank's `(count, fingerprint, recounts)`.
fn fleet_life(
    src: EdgeSource<'_>,
    dirs: &[PathBuf],
    restored: &[bool],
    batches: &[Vec<EdgeOp>],
) -> Vec<(u64, u64, u64)> {
    let out = Universe::try_run_config(dirs.len(), &UniverseConfig::default(), |comm| {
        let (mut engine, recovered) = Engine::resume_or_cold_start(
            comm,
            src,
            Algo::Cannon,
            TcConfig::default(),
            &dirs[comm.rank()],
            0,
        )?;
        assert_eq!(recovered, restored[comm.rank()], "rank {} restored", comm.rank());
        for batch in batches {
            engine.apply_batch(comm, batch)?;
        }
        Ok((engine.triangles(), engine.fingerprint(), engine.full_recounts()))
    });
    out.expect("fleet life").0
}

/// The WAL-bridge path: wipe one rank's durable state entirely; on
/// resume it rebuilds seq 0 from its stripe of the `.bin` (no rank
/// builds a CSR) and a surviving peer's WAL tail bridges it to the
/// fleet's seq — verified by the fingerprint allreduce, with
/// `full_recounts` still pinned at the cold start's 1.
#[test]
fn fleet_bridges_a_wiped_rank_from_a_peer_wal() {
    let el = tc_gen::er::gnm(40, 120, 7).simplify();
    let base = scratch("fleet");
    let file = edge_file(&el, &base);
    let batches: Vec<Vec<EdgeOp>> = (0..4u32)
        .map(|b| {
            (0..8u32)
                .map(|i| {
                    let u = (b * 8 + i * 3) % 40;
                    let v = (u + 2 + b) % 40;
                    EdgeOp { u, v, insert: (b + i) % 4 != 0 }
                })
                .collect()
        })
        .collect();
    let p = 4usize;

    // First life: cold start, commit the stream.
    let dirs: Vec<PathBuf> = (0..p).map(|r| base.join(format!("rank-{r}"))).collect();
    let first = fleet_life((&file).into(), &dirs, &[false; 4], &batches);
    let (count, fingerprint, _) = first[0];
    assert!(first.iter().all(|&s| s == (count, fingerprint, 1)), "first life: {first:?}");

    // The crash: rank 2 loses its checkpoint and WAL outright.
    fs::remove_dir_all(&dirs[2]).expect("wipe rank 2");

    // Second life: survivors restore, rank 2 is rebuilt from its
    // stripe and bridged, and the fleet keeps serving correct
    // incremental answers.
    let out = Universe::try_run_config(p, &UniverseConfig::default(), |comm| {
        let (mut engine, recovered) = Engine::resume_or_cold_start(
            comm,
            (&file).into(),
            Algo::Cannon,
            TcConfig::default(),
            &dirs[comm.rank()],
            0,
        )?;
        assert_eq!(recovered, comm.rank() != 2, "only the wiped rank cold-rebuilds");
        assert_eq!(engine.triangles(), count, "bridged fleet count");
        assert_eq!(engine.fingerprint(), fingerprint, "bridged fleet fingerprint");
        assert_eq!(engine.full_recounts(), 1, "recovery must not recount");

        // Post-recovery batch: the incremental path still matches
        // the full 2D oracle.
        let batch: Vec<EdgeOp> =
            (0..10u32).map(|i| EdgeOp { u: i, v: (i + 5) % 40, insert: i % 2 == 0 }).collect();
        let outcome = engine.apply_batch(comm, &batch)?;
        let oracle = engine.recount(comm)?;
        assert_eq!(outcome.triangles, oracle, "post-recovery incremental vs recount");
        Ok(())
    })
    .expect("second life");
    assert_eq!(out.0.len(), p);
    let _ = fs::remove_dir_all(&base);
}

/// A rank wiped before the fleet committed any batch has nothing to be
/// bridged by: it rebuilds seq 0 from its stripe and takes the
/// committed count and fingerprint of seq 0 from a peer. Every rank
/// must agree on the verdict of the fingerprint check (a rank that
/// entered the recount alone would wait on its peers forever), and no
/// rank recounts.
#[test]
fn fleet_rebuilds_a_rank_wiped_before_any_batch() {
    let el = tc_gen::er::gnm(40, 120, 9).simplify();
    let base = scratch("fleet-seq0");
    let p = 4usize;
    let dirs: Vec<PathBuf> = (0..p).map(|r| base.join(format!("rank-{r}"))).collect();
    let first = fleet_life((&el).into(), &dirs, &[false; 4], &[]);
    let (count, fingerprint, _) = first[0];
    assert_eq!(count, brute_force_triangles(&el), "cold-start count");
    for wiped in [2usize, 0] {
        fs::remove_dir_all(&dirs[wiped]).expect("wipe a rank");
        let restored: Vec<bool> = (0..p).map(|r| r != wiped).collect();
        let again = fleet_life((&el).into(), &dirs, &restored, &[]);
        assert!(
            again.iter().all(|&s| s == (count, fingerprint, 1)),
            "rank {wiped} wiped at seq 0: {again:?}"
        );
        // The rebuilt rank's re-anchored checkpoint restores like any.
        let third = fleet_life((&el).into(), &dirs, &[true; 4], &[]);
        assert!(third.iter().all(|&s| s == (count, fingerprint, 1)), "{third:?}");
    }
    let _ = fs::remove_dir_all(&base);
}

/// Triangles of a simple graph by brute force over its edge set.
fn brute_force_triangles(el: &EdgeList) -> u64 {
    let edges: BTreeSet<(u32, u32)> = el.edges.iter().copied().collect();
    let mut t = 0;
    for &(u, v) in &edges {
        for w in v + 1..el.num_vertices as u32 {
            t += u64::from(edges.contains(&(u, w)) && edges.contains(&(v, w)));
        }
    }
    t
}

/// Sanity on the reference model itself: the stream's net effect is
/// what the engine sees (guards the test against degenerate streams
/// whose batches cancel to nothing).
#[test]
fn scripted_streams_are_not_degenerate() {
    let el = tc_gen::er::gnm(20, 40, 11).simplify();
    let before: BTreeSet<(u32, u32)> = el.edges.iter().copied().collect();
    let batches: Vec<Vec<EdgeOp>> = (0..5u32)
        .map(|b| {
            (0..6u32)
                .map(|i| {
                    let u = (b * 6 + i) % 20;
                    let v = (u + 1 + b) % 20;
                    EdgeOp { u, v, insert: (b + i) % 3 != 0 }
                })
                .collect()
        })
        .collect();
    let states = reference_states(&el, &batches);
    assert_eq!(states.len(), batches.len() + 1);
    let distinct: BTreeSet<u64> = states.iter().map(|s| s.fingerprint).collect();
    assert!(distinct.len() > 1, "the stream must actually change the edge set");
    assert!(!before.is_empty());
}
