//! # tc-apps — distributed applications on the counting substrate
//!
//! The paper's §1 motivates triangle counting as the inner kernel of
//! larger analytics; this crate builds those analytics on the same
//! message-passing substrate:
//!
//! - [`adjstore`] — reusable ghost-replicated (AOP-style) adjacency
//!   placement.
//! - [`dtruss`] — distributed k-truss decomposition via level peeling
//!   with recompute-until-fixpoint rounds, validated against the
//!   serial bucket-queue peeler.

#![warn(missing_docs)]

pub mod adjstore;
pub mod dtruss;

pub use dtruss::{truss_decomposition_dist, DtrussResult};
