//! # tc-trace — per-rank event tracing
//!
//! A low-overhead span/event recorder for the triangle-counting
//! workspace, plus two consumers:
//!
//! - [`chrome`] — a Chrome-trace-event JSON exporter, so any traced
//!   run opens in [Perfetto](https://ui.perfetto.dev) or
//!   `chrome://tracing` with one lane per rank;
//! - [`analysis`] — a trace analyzer that computes the per-phase
//!   critical path, per-shift compute/communication breakdown, and
//!   blocked-time attribution directly from recorded spans, so the
//!   critical-path *model* in `tc_core::TcResult::modeled_*` can be
//!   audited against what the ranks actually did.
//!
//! ## Recording model
//!
//! Tracing is **off by default** and gated by a single relaxed atomic
//! load ([`enabled`]): when no [`TraceSession`] is live, every
//! instrumentation point returns immediately without reading a clock
//! or touching a thread-local. A session hands out a cloneable
//! [`TraceHandle`]; rank threads bind themselves to the session with
//! [`TraceHandle::register_rank`] (the `tc-mps` universe does this
//! automatically when its config carries a handle), after which
//! [`span`] and [`instant_with`] record into that rank's bounded ring
//! buffer. Rings are individually lockable from *other* threads too,
//! which is what lets a timing-out rank include every peer's last few
//! trace events in its diagnostic report.
//!
//! Spans capture both the monotonic wall clock and the calling
//! thread's CPU clock (`CLOCK_THREAD_CPUTIME_ID`), because on an
//! oversubscribed host (more ranks than cores) wall durations measure
//! the scheduler while CPU durations keep measuring the work — the
//! same substitution `tc_core`'s critical-path model makes.
//!
//! ## Example
//!
//! ```
//! use tc_trace::{span, Category, TraceSession};
//!
//! let session = TraceSession::begin();
//! let handle = session.handle();
//! {
//!     let _rank = handle.register_rank(0);
//!     let _s = span("work", Category::Phase).arg("items", 3u64);
//! } // span recorded when dropped
//! let trace = session.finish();
//! assert_eq!(trace.events.len(), 1);
//! let json = tc_trace::chrome::to_chrome_json(&trace);
//! tc_trace::chrome::validate(&json).unwrap();
//! ```

#![warn(missing_docs)]

pub mod analysis;
pub mod chrome;
mod clock;
mod event;
mod session;

pub use clock::{thread_cpu_now, CpuTimer};
pub use event::{ArgValue, Category, Event, EventKind};
pub use session::{
    enabled, events_recorded_total, instant_with, span, RankGuard, Span, Trace, TraceConfig,
    TraceHandle, TraceSession,
};

/// Canonical span/event names shared by the instrumentation sites and
/// the [`analysis`] module, so the two cannot drift apart.
pub mod names {
    /// Preprocessing phase (paper "ppt").
    pub const PHASE_PPT: &str = "ppt";
    /// Triangle-counting phase (paper "tct").
    pub const PHASE_TCT: &str = "tct";
    /// Compute part of one Cannon shift / SUMMA panel (arg `z`).
    pub const SHIFT_COMPUTE: &str = "shift_compute";
    /// Operand movement between two shifts / panels (arg `z`).
    pub const SHIFT_XCHG: &str = "shift_xchg";
    /// The initial Cannon skew exchange.
    pub const SKEW: &str = "skew";
    /// A blocking point-to-point receive.
    pub const RECV: &str = "recv";
    /// A (buffered, non-blocking) point-to-point send.
    pub const SEND: &str = "send";
    /// Preprocessing step 1: initial cyclic redistribution.
    pub const PREP_REDIST: &str = "cyclic_redistribute";
    /// Preprocessing step 2: distributed counting sort.
    pub const PREP_SORT: &str = "degree_sort";
    /// Preprocessing step 2b: old→new label push.
    pub const PREP_LABELS: &str = "label_push";
    /// Preprocessing step 4: 2D redistribution of U/L/task entries.
    pub const PREP_2D: &str = "redistribute_2d";
    /// Baseline setup phase (ghost exchange, 2-core peel, …).
    pub const BASE_SETUP: &str = "setup";
    /// Baseline counting phase.
    pub const BASE_COUNT: &str = "count";
    /// Socket fabric mesh setup: bind, dial lower ranks, accept higher
    /// ranks (span; args carry rank and universe size).
    pub const FABRIC_CONNECT: &str = "fabric_connect";
    /// Socket fabric hello exchange on one fresh connection (span;
    /// args carry the local rank).
    pub const FABRIC_HANDSHAKE: &str = "fabric_handshake";
}
