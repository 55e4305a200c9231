//! `serve.engine.*` probes: the serving engine without its frontend —
//! cold start, one 8-op update batch, one support query — on four
//! in-process ranks, the fleet shape of the serve workloads.

use std::time::Instant;

use tc_core::TcConfig;
use tc_graph::{Csr, EdgeList};
use tc_mps::{Universe, UniverseConfig};
use tc_serve::engine::{Algo, EdgeOp, Engine};

use crate::{emit, fail, median, Rng};

const RANKS: usize = 4;
const BATCHES: usize = 200;
const OPS_PER_BATCH: usize = 8;
const QUERIES: usize = 500;

pub fn probes(csr: &Csr, el: &EdgeList, triangles: u64, seed: u64) {
    // Every rank applies the same batches and asks the same queries, as
    // the service's broadcast guarantees. A batch deletes or re-inserts
    // sampled existing edges, so deltas are real intersections.
    let mut rng = Rng(seed ^ 0xe6_91e5);
    let batches: Vec<Vec<EdgeOp>> = (0..BATCHES)
        .map(|_| {
            (0..OPS_PER_BATCH)
                .map(|_| {
                    let (u, v) = el.edges[rng.below(el.edges.len())];
                    EdgeOp { u, v, insert: rng.below(2) == 0 }
                })
                .collect()
        })
        .collect();
    let queries: Vec<(u32, u32)> =
        (0..QUERIES).map(|_| el.edges[rng.below(el.edges.len())]).collect();

    let (ranks, _) = Universe::try_run_config(RANKS, &UniverseConfig::default(), |comm| {
        comm.barrier()?;
        let t = Instant::now();
        let mut engine = Engine::cold_start(comm, csr, Algo::Cannon, TcConfig::default())?;
        let cold_s = t.elapsed().as_secs_f64();
        let cold_triangles = engine.triangles();
        let mut batch_us = Vec::with_capacity(BATCHES);
        for ops in &batches {
            let t = Instant::now();
            engine.apply_batch(comm, ops)?;
            batch_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
        let mut query_us = Vec::with_capacity(QUERIES);
        for &(u, v) in &queries {
            let t = Instant::now();
            engine.query_support(comm, u, v)?;
            query_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
        Ok((cold_s, cold_triangles, batch_us, query_us))
    })
    .unwrap_or_else(|e| fail(&format!("the engine probe failed: {e}")));

    if ranks.iter().any(|r| r.1 != triangles) {
        fail("the engine's cold start disagrees with the pipeline on the triangle count");
    }
    emit("serve.engine.cold_start_s", "s", ranks.iter().map(|r| r.0).fold(0.0, f64::max));
    // Rank 0 drives the service loop, so its view is what a request waits for.
    emit("serve.engine.apply_batch_us", "us", median(ranks[0].2.clone()));
    emit("serve.engine.support_us", "us", median(ranks[0].3.clone()));
}
