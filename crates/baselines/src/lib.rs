//! # tc-baselines — comparator algorithms
//!
//! Every algorithm the paper measures against, re-implemented on the
//! same substrates so comparisons are apples-to-apples:
//!
//! - [`serial`] — the §3.1 reference kernels (list/map × ⟨i,j,k⟩/⟨j,i,k⟩).
//! - [`shared`] — multithreaded shared-memory map-based counting
//!   (the paper's own prior work, ref. [21]).
//! - [`aop1d`] — 1D communication-avoiding counting with overlapping
//!   partitions (Arifuzzaman et al., "AOP").
//! - [`push1d`] — 1D space-efficient push-based counting
//!   (Arifuzzaman et al., "Surrogate").
//! - [`psp1d`] — 1D blocked push-based counting (Kanewala et al.,
//!   "OPT-PSP").
//! - [`wedge`] — Havoq-style 2-core + directed-wedge closure checking
//!   (Pearce et al.).

#![warn(missing_docs)]

pub mod aop1d;
pub mod psp1d;
pub mod push1d;
pub mod serial;
pub mod shared;
pub mod wedge;

pub use aop1d::{count_aop1d, Dist1dResult};
pub use psp1d::count_psp1d;
pub use push1d::count_push1d;
pub use shared::count_shared;
pub use wedge::{count_wedge, WedgeResult};
