//! # tc-serve — always-on triangle analytics service
//!
//! A long-lived server over the 2D counting substrate: load a graph
//! once, keep a rank fleet alive (threads on `LocalFabric`, OS
//! processes on `SocketFabric`), answer analytic queries and absorb
//! streams of edge inserts/deletes **incrementally** — each batch
//! adjusts the triangle count via neighborhood intersections of the
//! touched endpoints only, never a full recount. The full 2D kernel
//! survives as the cold-start path and correctness oracle
//! ([`Engine::recount`]).
//!
//! The crate splits into these layers:
//!
//! - [`engine`] — the per-rank incremental state machine
//!   ([`Engine`]): mutable [`tc_graph::AdjStore`] block, replicated
//!   count, the normalize/intersect/correct delta algorithm, and the
//!   query kernels (owner-routed `support`, collective `truss` and
//!   `stats`);
//! - [`proto`] — the line-delimited JSON request protocol and its
//!   typed error vocabulary;
//! - [`service`] — the rank-0 service loop (bounded admission, batch
//!   coalescing, heartbeat ticks) over a private `front` module that
//!   polls the Unix-socket listener and every client from rank 0's own
//!   thread, and the peer command loop, entered through [`serve_rank`];
//!   the crash-recoverable [`serve_fleet`] adds degraded-mode serving
//!   and epoch rejoin;
//! - [`client`] — a minimal blocking [`Client`] for CLIs and tests;
//! - [`wal`] — rank-local durability: versioned CRC-checked
//!   checkpoints of the adjacency block plus a write-ahead log of
//!   committed batches ([`Durability`]);
//! - [`supervisor`] — the process supervisor behind
//!   `tricount supervise`: spawn a per-rank fleet, respawn crashed
//!   ranks at a bumped epoch under a bounded restart budget.

#![warn(missing_docs)]

pub mod client;
pub mod engine;
mod front;
pub mod proto;
pub mod service;
pub mod supervisor;
pub mod wal;

pub use client::Client;
pub use engine::{
    edge_fingerprint, local_fingerprint, Algo, BatchOutcome, EdgeOp, Engine, StatsReply,
    SupportReply,
};
pub use proto::Request;
pub use service::{serve_fleet, serve_rank, FleetConfig, ServeConfig, ServeReport};
pub use supervisor::{supervise, SuperviseOutcome, SupervisorConfig};
pub use wal::{CkptMeta, Durability, WalRecord};
