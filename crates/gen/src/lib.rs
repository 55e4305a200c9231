//! # tc-gen — synthetic workload generators
//!
//! Deterministic generators for the triangle-counting testbed:
//!
//! - [`rmat`] — Graph500 RMAT/Kronecker (the paper's g500-sNN inputs).
//! - [`er`] — Erdős–Rényi G(n, m) (friendster stand-in).
//! - [`ba`] — Barabási–Albert preferential attachment (twitter stand-in).
//! - [`presets`] — named Table 1 datasets at configurable scale.

#![warn(missing_docs)]

pub mod ba;
pub mod er;
pub mod presets;
pub mod rmat;
mod stream;
pub mod ws;

pub use presets::{table1_testbed, Preset, DEFAULT_SEED, MAX_SCALE};
pub use rmat::{graph500, rmat, RmatParams};
pub use ws::watts_strogatz;
