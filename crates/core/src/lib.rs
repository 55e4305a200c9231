//! # tc-core — 2D parallel triangle counting
//!
//! A from-scratch implementation of the distributed-memory triangle
//! counting algorithm of Tom & Karypis (ICPP 2019): the computation
//! `C[L] = U·L` restricted to the non-zeros of `L` is decomposed
//! 2D-cyclically over a `√p × √p` processor grid and evaluated with
//! Cannon-style shifts, using map-based ⟨j,i,k⟩ set intersections with
//! the paper's three sparsity optimizations (collision-free direct
//! hashing, doubly-sparse traversal, reverse early break).
//!
//! ## Quickstart
//!
//! ```
//! use tc_core::{count_triangles_default};
//! use tc_graph::EdgeList;
//!
//! // A triangle plus a pendant edge, counted on a 2×2 grid.
//! let el = EdgeList::new(4, vec![(0, 1), (0, 2), (1, 2), (2, 3)]).simplify();
//! let result = count_triangles_default(&el, 4);
//! assert_eq!(result.triangles, 1);
//! ```
//!
//! The returned [`TcResult`] carries the per-rank measurements behind
//! every table and figure of the paper's evaluation (phase times,
//! per-shift compute times, task/probe counts, communication volume).

#![warn(missing_docs)]

pub mod bitmap;
pub mod blocks;
pub mod cannon;
pub mod config;
pub mod count;
pub mod driver;
pub mod hashmap;
pub mod intersect;
pub mod labels;
pub mod metrics;
pub mod preprocess;
pub mod recip;
mod redist;
pub mod summa;

pub use config::{Enumeration, KernelStrategy, TcConfig};
pub use driver::{
    count_per_edge, count_rank_from, count_triangles, count_triangles_default,
    count_triangles_from_root, try_count_per_edge, try_count_per_edge_observed,
    try_count_per_edge_socket, try_count_per_edge_traced, try_count_triangles,
    try_count_triangles_from_root, try_count_triangles_from_root_observed,
    try_count_triangles_from_root_traced, try_count_triangles_observed, try_count_triangles_socket,
    try_count_triangles_traced, EdgeSupport,
};
pub use intersect::{KernelState, KernelStats};
pub use metrics::{CommPhase, PhaseSample, RankMetrics, TcResult};
pub use preprocess::{BlockInput, EdgeSource};
pub use summa::{
    count_triangles_summa, summa_rank_from, try_count_triangles_summa,
    try_count_triangles_summa_observed, try_count_triangles_summa_socket,
    try_count_triangles_summa_traced, SummaGrid,
};
