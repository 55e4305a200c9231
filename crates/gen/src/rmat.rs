//! Graph500-style RMAT (recursive-matrix / Kronecker) generator.
//!
//! The paper's synthetic inputs g500-s26 … g500-s29 "were generated
//! using the graph500 generator … these follow the RMAT graph
//! specifications" (§6.1). This is that generator: `2^scale` vertices,
//! `edgefactor · 2^scale` edge samples, each sample drawn by `scale`
//! recursive quadrant choices with probabilities `(a, b, c, d)`;
//! Graph500 fixes `(0.57, 0.19, 0.19, 0.05)`.

use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};
use tc_graph::edgelist::{edge_threads, EdgeList, VertexId};

use crate::stream::draw_edges;

/// RMAT quadrant probabilities.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RmatParams {
    /// Probability of the top-left quadrant.
    pub a: f64,
    /// Probability of the top-right quadrant.
    pub b: f64,
    /// Probability of the bottom-left quadrant.
    pub c: f64,
}

impl RmatParams {
    /// Graph500 reference parameters (d = 0.05 implied).
    pub const GRAPH500: RmatParams = RmatParams { a: 0.57, b: 0.19, c: 0.19 };

    /// Implied bottom-right probability.
    pub fn d(&self) -> f64 {
        1.0 - self.a - self.b - self.c
    }

    /// Validates that the probabilities form a distribution.
    pub fn validate(&self) {
        assert!(
            self.a > 0.0 && self.b >= 0.0 && self.c >= 0.0 && self.d() >= -1e-12,
            "RMAT probabilities must be non-negative and sum to at most 1"
        );
    }
}

/// Generates a raw RMAT edge list (duplicates and self loops included,
/// as emitted by the reference generator; callers `simplify()`).
///
/// Deterministic for a given `(scale, edge_factor, params, seed)`.
/// Edge `i` owns draws `[2·scale·i, 2·scale·(i + 1))` of the seed's
/// stream, so the stream splits across cores and the list is the same
/// on any number of them.
pub fn rmat(scale: u32, edge_factor: usize, params: RmatParams, seed: u64) -> EdgeList {
    rmat_on(scale, edge_factor, params, seed, None)
}

/// [`rmat`] with its edges drawn on `threads` cores ([`edge_threads`]
/// when `None`).
fn rmat_on(
    scale: u32,
    edge_factor: usize,
    params: RmatParams,
    seed: u64,
    threads: Option<usize>,
) -> EdgeList {
    params.validate();
    assert!(scale <= 31, "scale {scale} would overflow u32 vertex ids");
    let n = 1usize << scale;
    let m = edge_factor * n;
    let threads = threads.unwrap_or_else(|| edge_threads(m));
    let rng = SmallRng::seed_from_u64(seed ^ 0x5bd1_e995_9e37_79b9);
    let ab = params.a + params.b;
    let a_norm_top = if ab > 0.0 { params.a / ab } else { 0.0 };
    let cd = params.c + params.d();
    let c_norm_bottom = if cd > 0.0 { params.c / cd } else { 0.0 };
    let top_below = below(ab);
    let left_below = [below(c_norm_bottom), below(a_norm_top)];

    let edges = draw_edges(m, 2 * u64::from(scale), &rng, threads, |rng| {
        let (mut u, mut v): (VertexId, VertexId) = (0, 0);
        for _ in 0..scale {
            // First the top/bottom half (row bit), then left/right
            // (column bit) conditioned on it: two draws per level.
            let top = rng.next_u64() >> 11 < top_below;
            let left = rng.next_u64() >> 11 < left_below[usize::from(top)];
            u = u << 1 | VertexId::from(!top);
            v = v << 1 | VertexId::from(!left);
        }
        (u, v)
    });
    EdgeList::new(n, edges)
}

/// The integer form of the uniform test `draw < p`. A draw is
/// `k · 2^-53` for the top 53 bits `k` of a `u64`, exactly, so
/// `k · 2^-53 < p` holds iff `k < ⌈p · 2^53⌉`; the saturating cast
/// keeps `p ≤ 0` (never) and `p ≥ 1` (always) right.
fn below(p: f64) -> u64 {
    (p * (1u64 << 53) as f64).ceil() as u64
}

/// Graph500 preset: RMAT with the reference parameters and the
/// standard edge factor 16 (the paper's g500-sNN inputs).
pub fn graph500(scale: u32, seed: u64) -> EdgeList {
    rmat(scale, 16, RmatParams::GRAPH500, seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    /// The generator as first written: one sequential stream, an `f64`
    /// per draw and a branch per level. The integer loop must match it
    /// edge for edge.
    fn float_oracle(scale: u32, edge_factor: usize, params: RmatParams, seed: u64) -> EdgeList {
        let n = 1usize << scale;
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x5bd1_e995_9e37_79b9);
        let ab = params.a + params.b;
        let a_norm_top = if ab > 0.0 { params.a / ab } else { 0.0 };
        let cd = params.c + params.d();
        let c_norm_bottom = if cd > 0.0 { params.c / cd } else { 0.0 };
        let mut edges = Vec::with_capacity(edge_factor * n);
        for _ in 0..edge_factor * n {
            let (mut u, mut v) = (0u64, 0u64);
            for _ in 0..scale {
                u <<= 1;
                v <<= 1;
                let top = rng.random::<f64>() < ab;
                let left = if top {
                    rng.random::<f64>() < a_norm_top
                } else {
                    rng.random::<f64>() < c_norm_bottom
                };
                if !top {
                    u |= 1;
                }
                if !left {
                    v |= 1;
                }
            }
            edges.push((u as VertexId, v as VertexId));
        }
        EdgeList::new(n, edges)
    }

    /// Graph500, uniform (thresholds `p · 2^53` that are integers) and
    /// degenerate (`a = 1`: thresholds 0 and 2^53, `c + d ≤ 0`).
    const PARAMS: [RmatParams; 3] = [
        RmatParams::GRAPH500,
        RmatParams { a: 0.25, b: 0.25, c: 0.25 },
        RmatParams { a: 1.0, b: 0.0, c: 0.0 },
    ];

    #[test]
    fn integer_draw_matches_the_float_loop() {
        for params in PARAMS {
            for scale in 0..=12 {
                let want = float_oracle(scale, 4, params, 42);
                assert_eq!(rmat_on(scale, 4, params, 42, Some(3)), want, "{params:?} s{scale}");
            }
        }
    }

    #[test]
    fn thread_count_never_changes_the_edges() {
        for params in PARAMS {
            for (scale, edge_factor) in [(0, 1), (2, 1), (9, 3)] {
                let one = rmat_on(scale, edge_factor, params, 7, Some(1));
                for threads in 2..=8 {
                    let got = rmat_on(scale, edge_factor, params, 7, Some(threads));
                    assert_eq!(got, one, "{params:?} s{scale} ef{edge_factor} {threads} threads");
                }
            }
        }
    }

    #[test]
    fn below_is_the_float_comparison() {
        let ps = [0.0, 0.05, 0.19, 0.25, 0.5, 0.57 / 0.76, 0.76, 1.0, 1.5, -0.1];
        let mut rng = SmallRng::seed_from_u64(3);
        let ks = (0..1000).map(|_| rng.next_u64() >> 11);
        for k in ks.chain([0, 1, (1 << 52) - 1, 1 << 52, (1 << 53) - 1]) {
            for p in ps {
                let edge = (p * (1u64 << 53) as f64) as u64;
                for k in [k, edge.saturating_sub(1), edge, edge + 1].map(|k| k.min((1 << 53) - 1)) {
                    let float = (k as f64) * (1.0 / (1u64 << 53) as f64) < p;
                    assert_eq!(k < below(p), float, "k {k} p {p}");
                }
            }
        }
    }

    #[test]
    fn produces_requested_volume() {
        let el = rmat(8, 4, RmatParams::GRAPH500, 1);
        assert_eq!(el.num_vertices, 256);
        assert_eq!(el.num_edges(), 1024);
        assert!(el.edges.iter().all(|&(u, v)| u < 256 && v < 256));
    }

    #[test]
    fn deterministic_per_seed() {
        let a = rmat(6, 8, RmatParams::GRAPH500, 42);
        let b = rmat(6, 8, RmatParams::GRAPH500, 42);
        let c = rmat(6, 8, RmatParams::GRAPH500, 43);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn skew_produces_heavy_head() {
        // With Graph500 params, low-id vertices should be much hotter
        // than high-id ones after simplification.
        let el = graph500(10, 7).simplify();
        let deg = el.degrees();
        let n = deg.len();
        let head: u64 = deg[..n / 8].iter().map(|&d| d as u64).sum();
        let tail: u64 = deg[7 * n / 8..].iter().map(|&d| d as u64).sum();
        assert!(head > tail * 4, "head {head} tail {tail}");
    }

    #[test]
    fn uniform_params_are_balanced() {
        let p = RmatParams { a: 0.25, b: 0.25, c: 0.25 };
        let el = rmat(10, 8, p, 3).simplify();
        let deg = el.degrees();
        let n = deg.len();
        let head: u64 = deg[..n / 2].iter().map(|&d| d as u64).sum();
        let tail: u64 = deg[n / 2..].iter().map(|&d| d as u64).sum();
        let ratio = head as f64 / tail.max(1) as f64;
        assert!(ratio > 0.8 && ratio < 1.25, "ratio {ratio}");
    }

    #[test]
    #[should_panic(expected = "probabilities")]
    fn rejects_bad_params() {
        rmat(4, 1, RmatParams { a: 0.9, b: 0.9, c: 0.9 }, 0);
    }

    #[test]
    fn scale_zero_is_single_vertex() {
        let el = rmat(0, 4, RmatParams::GRAPH500, 0);
        assert_eq!(el.num_vertices, 1);
        // All samples are (0,0) self loops; simplification empties it.
        assert_eq!(el.simplify().num_edges(), 0);
    }
}
