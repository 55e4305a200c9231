//! # tc-mps — message-passing substrate
//!
//! A stand-in for MPI used by the triangle-counting workspace, with a
//! pluggable fabric: by default each *rank* is an OS thread with
//! private state exchanging typed messages through per-rank mailboxes
//! ([`Universe::run`]), or each rank is its own **OS process**
//! connected over Unix-domain/TCP sockets
//! ([`Universe::try_run_socket`] + [`SocketConfig`]). Either way,
//! ranks run the usual collective algorithms (dissemination barrier,
//! binomial broadcast/reduce, recursive-doubling scans, pairwise
//! personalized all-to-all) over the same communicator code.
//!
//! The runtime is designed to be *un-hangable*: a panicking rank wakes
//! every peer with [`MpsError::PeerFailed`], blocked receives give up
//! after a configurable deadline ([`MpsError::Timeout`], env var
//! [`RECV_TIMEOUT_ENV`]) with a dump of what every rank was doing, and
//! ranks that diverge in their collective call sequence are caught by
//! [`MpsError::CollectiveMismatch`] instead of deadlocking or decoding
//! garbage.
//!
//! The public surface mirrors the subset of MPI that the ICPP 2019
//! paper's algorithm needs:
//!
//! - [`Universe::run`] — `mpirun` analogue: spawn `p` ranks, join.
//!   [`Universe::try_run`] is the fallible variant whose rank bodies
//!   propagate [`MpsError`]s instead of panicking.
//! - [`Comm`] — point-to-point `send`/`recv` with tag matching plus
//!   collectives as methods; nonblocking `isend`/`irecv` return
//!   request handles ([`SendRequest`]/[`RecvRequest`]) whose waits
//!   keep every un-hangable guarantee.
//! - [`Grid`] — `√p × √p` process grid with Cannon-style
//!   `shift_left`/`shift_up` (plus `*_start` nonblocking variants
//!   that overlap the transfer with compute).
//! - [`BlobBuilder`]/[`BlobReader`] — single-allocation serialization
//!   of sparse blocks (paper §5.2 "reducing overheads associated with
//!   communication").
//! - [`CommStats`]/[`Timings`] — per-rank bytes/messages/blocked-time
//!   instrumentation behind the paper's Figure 3 and §5.4 analysis.
//! - [`FaultPlan`] — deterministic chaos injection: installing a plan
//!   (via [`UniverseConfig`]`::chaos` or the strictly parsed
//!   `MPS_CHAOS_*` env family) makes senders sleep on seeded sends and,
//!   over sockets, can abort one rank's process at a chosen send. The
//!   fabrics never lose, duplicate or reorder a message, so there is no
//!   retransmission layer to exercise: the faults left are a crash
//!   (supervisor + rejoin), a stall (deadlines) and a damaged socket
//!   stream (per-frame sequence number + CRC32c → [`MpsError::Protocol`]).
//!   With no plan installed a send pays one `Option` check.
//!
//! ## Example
//!
//! ```
//! use tc_mps::Universe;
//!
//! // Sum rank ids with an allreduce across 4 ranks.
//! let sums = Universe::run(4, |comm| comm.allreduce_sum_u64(comm.rank() as u64).unwrap());
//! assert_eq!(sums, vec![6, 6, 6, 6]);
//! ```

#![warn(missing_docs)]

mod blob;
mod chaos;
mod collectives;
mod comm;
mod error;
mod fabric;
mod fabric_local;
mod fabric_socket;
mod grid;
pub mod pod;
pub mod poll;
mod stats;
mod universe;

pub use blob::{blob_sections3, BlobBuilder, BlobReader};
pub use chaos::{
    FaultPlan, CHAOS_CRASH_AT_ENV, CHAOS_CRASH_RANK_ENV, CHAOS_DELAY_ENV, CHAOS_DELAY_MAX_US_ENV,
    CHAOS_ENV_VARS, CHAOS_LINKS_ENV, CHAOS_REMOVED_ENV_VARS, CHAOS_SEED_ENV,
};
pub use comm::{waitall, Comm, RecvRequest, SendRequest, MAX_USER_TAG};
pub use error::{MpsError, MpsResult};
pub use grid::{perfect_square_side, Grid};
pub use pod::{bytes_from_vec, Pod, PodArray};
pub use stats::{CommStats, PhaseGuard, Timings};
pub use tc_trace::{thread_cpu_now, CpuTimer};
pub use universe::{
    strict_env, Launch, SocketConfig, Universe, UniverseConfig, FABRIC_EPOCH_ENV, FABRIC_PEERS_ENV,
    FABRIC_RANK_ENV, HANDSHAKE_TIMEOUT_MS_ENV, RECV_TIMEOUT_ENV,
};
