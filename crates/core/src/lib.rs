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
//! use tc_core::{count_triangles, TcConfig};
//! use tc_graph::EdgeList;
//!
//! // A triangle plus a pendant edge, counted on a 2×2 grid.
//! let el = EdgeList::new(4, vec![(0, 1), (0, 2), (1, 2), (2, 3)]).simplify();
//! let result = count_triangles(&el, 4, &TcConfig::default());
//! assert_eq!(result.triangles, 1);
//! ```
//!
//! [`count_triangles`] is the panicking shorthand for the one entry
//! point, [`run`]: a [`Request`] (edge source, [`Algorithm`], config,
//! per-edge supports or not) on a [`tc_mps::Launch`] (rank threads
//! under a `UniverseConfig`, or this process's place in a socket mesh),
//! with every failure a typed [`tc_mps::MpsError`]:
//!
//! ```
//! use tc_core::{run, Request, SummaGrid, TcConfig};
//! use tc_graph::EdgeList;
//! use tc_mps::{Launch, UniverseConfig};
//!
//! let el = EdgeList::new(4, vec![(0, 1), (0, 2), (1, 2), (2, 3)]).simplify();
//! let (cfg, ucfg) = (TcConfig::default(), UniverseConfig::default());
//! let req = Request::new(&el, &cfg).summa(SummaGrid::new(2, 3));
//! assert_eq!(run(req, Launch::threads(6, &ucfg)).unwrap().triangles, 1);
//! // A grid that is not the launched rank count is an error, not a panic.
//! assert!(run(req, Launch::threads(4, &ucfg)).is_err());
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
    count_per_edge, count_rank_from, count_triangles, run, settle, Algorithm, Request,
};
pub use intersect::{KernelState, KernelStats};
pub use metrics::{CommPhase, EdgeSupport, PhaseSample, RankMetrics, TcResult};
pub use preprocess::{BlockInput, EdgeSource};
pub use summa::{summa_rank_from, SummaGrid};
