//! A generator's random stream, split across cores.
//!
//! RMAT and G(n, m) give every edge a fixed-width slice of draws
//! (`2 · scale` and 2), so edge `i` depends only on the stream position
//! `width · i`. [`draw_edges`] hands each core a contiguous run of edges
//! and a copy of the stream jumped to that run's first draw with
//! [`SmallRng::advance`]; the result is the sequential stream's, byte
//! for byte, on any number of cores.

use rand::rngs::SmallRng;
use tc_graph::edgelist::VertexId;

/// Draws `m` edges on `threads` cores: edge `i` is `edge` applied to
/// `rng` advanced by `width · i` draws, and `edge` must consume exactly
/// `width` draws.
pub(crate) fn draw_edges<F>(
    m: usize,
    width: u64,
    rng: &SmallRng,
    threads: usize,
    edge: F,
) -> Vec<(VertexId, VertexId)>
where
    F: Fn(&mut SmallRng) -> (VertexId, VertexId) + Sync,
{
    let mut edges = vec![(0, 0); m];
    let per = m.div_ceil(threads.max(1)).max(1);
    let fill = |first: usize, out: &mut [(VertexId, VertexId)]| {
        let mut rng = rng.clone();
        rng.advance(width * first as u64);
        out.iter_mut().for_each(|e| *e = edge(&mut rng));
    };
    let fill = &fill;
    std::thread::scope(|s| {
        let mut chunks = edges.chunks_mut(per).enumerate();
        let head = chunks.next();
        for (i, out) in chunks {
            s.spawn(move || fill(i * per, out));
        }
        if let Some((_, out)) = head {
            fill(0, out);
        }
    });
    edges
}
