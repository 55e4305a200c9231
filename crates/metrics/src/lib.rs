//! # tc-metrics — per-rank metrics registry and exact-counter gate
//!
//! The quantitative companion to `tc-trace`: where tracing records
//! *when* things happened, this crate records *how much* — operation
//! counts, probe counts, communicated bytes, task counts, buffer
//! high-water marks — the architecture-independent quantities the
//! paper's evaluation (Tables 1–5) is built on.
//!
//! Zero dependencies, and the instrumentation discipline `tc-trace`
//! shares:
//!
//! - when no [`MetricsSession`] is live, every instrumentation point
//!   costs exactly one relaxed atomic load ([`enabled`]);
//! - threads record only after being bound to a rank via
//!   [`MetricsHandle::register_rank`], so concurrent universes in one
//!   test process cannot contaminate each other;
//! - a finished session drains into a [`MetricsSnapshot`] with two
//!   exporters: a schema-versioned JSON document
//!   ([`MetricsSnapshot::to_json`]) and a Prometheus-style text
//!   exposition ([`prometheus::to_prometheus`]).
//!
//! On top of the registry sit benchmark [`report::RunRecord`]s
//! (JSON-lines, one per run) and the [`diff`] engine (`benchdiff`),
//! which holds triangle counts and deterministic counters exact and
//! leaves wall time to `benchmark/run.sh`. [`json`] is the one JSON
//! codec of the workspace.

pub mod diff;
pub mod histogram;
pub mod json;
pub mod mem;
pub mod prometheus;
pub mod registry;
pub mod report;
pub mod snapshot;
pub mod stats;

pub use histogram::Log2Histogram;
pub use mem::MemScope;
pub use registry::{
    counter_add, enabled, gauge_max, gauge_set, hist_record, hist_touch, values_recorded_total,
    MetricsHandle, MetricsSession, RankGuard,
};
pub use report::RunRecord;
pub use snapshot::{MetricValue, MetricsSnapshot};
pub use stats::{TimingStats, Welford};

/// Well-known metric names, shared by every instrumented layer so
/// exporters, tests and docs agree on spelling.
pub mod names {
    // mps runtime (fed natively by `tc_mps::Universe`).
    pub const MPS_BYTES_SENT: &str = "mps.bytes_sent";
    pub const MPS_MSGS_SENT: &str = "mps.msgs_sent";
    pub const MPS_BYTES_RECV: &str = "mps.bytes_recv";
    pub const MPS_MSGS_RECV: &str = "mps.msgs_recv";
    pub const MPS_SEND_NS: &str = "mps.send_ns";
    pub const MPS_RECV_NS: &str = "mps.recv_ns";
    pub const MPS_COLLECTIVES: &str = "mps.collectives";

    /// Sends a fault plan delayed (fed by `tc_mps` on the sending
    /// rank; every socket rank records it, zero without a plan).
    pub const MPS_REL_INJECTED_DELAYS: &str = "mps.rel.injected_delays";
    /// Per-link sequence-state resets performed when a surviving rank
    /// reconnects at a bumped epoch (one per peer link). Zero unless a
    /// rank crashed and the fleet rejoined.
    pub const MPS_REL_EPOCH_RESETS: &str = "mps.rel.epoch_resets";

    /// The injected-fault and crash-recovery counters. Benchmark
    /// records default each of these to zero so a clean (chaos-off,
    /// crash-free) run *proves* nothing was injected and no rank
    /// rejoined — the counters are present and zero, not merely absent.
    pub const MPS_RELIABILITY: &[&str] =
        &[MPS_REL_INJECTED_DELAYS, MPS_REL_EPOCH_RESETS, MPS_FABRIC_REJOINS];

    // Socket fabric wire counters (fed by `tc_mps` only on the
    // multi-process socket backend; zero/absent on in-process runs).
    pub const MPS_FABRIC_CONNECTS: &str = "mps.fabric.connects";
    pub const MPS_FABRIC_ACCEPTS: &str = "mps.fabric.accepts";
    pub const MPS_FABRIC_HANDSHAKES: &str = "mps.fabric.handshakes";
    pub const MPS_FABRIC_WIRE_MSGS_SENT: &str = "mps.fabric.wire_msgs_sent";
    pub const MPS_FABRIC_WIRE_BYTES_SENT: &str = "mps.fabric.wire_bytes_sent";
    pub const MPS_FABRIC_WIRE_MSGS_RECV: &str = "mps.fabric.wire_msgs_recv";
    pub const MPS_FABRIC_WIRE_BYTES_RECV: &str = "mps.fabric.wire_bytes_recv";
    /// CPU time of the process's socket I/O thread, the wire work that
    /// runs beside the rank thread (absent on in-process runs).
    pub const MPS_FABRIC_IO_CPU_NS: &str = "mps.fabric.io_cpu_ns";
    /// Fleet rejoins: a surviving rank reconnected its socket fabric at
    /// a bumped epoch after a peer crashed. Zero in crash-free runs.
    pub const MPS_FABRIC_REJOINS: &str = "mps.fabric.rejoins";

    // Phase timings (per rank, nanoseconds).
    pub const PPT_WALL_NS: &str = "ppt.wall_ns";
    pub const PPT_CPU_NS: &str = "ppt.cpu_ns";
    pub const PPT_COMM_NS: &str = "ppt.comm_ns";
    pub const TCT_WALL_NS: &str = "tct.wall_ns";
    pub const TCT_CPU_NS: &str = "tct.cpu_ns";
    pub const TCT_COMM_NS: &str = "tct.comm_ns";

    // Deterministic kernel quantities (paper Tables 3–4).
    pub const PPT_OPS: &str = "ppt.ops";
    pub const TCT_OPS: &str = "tct.ops";
    pub const TCT_TASKS: &str = "tct.tasks";
    pub const TCT_PROBES: &str = "tct.probes";
    pub const TCT_LOOKUPS: &str = "tct.lookups";
    pub const TCT_DIRECT_ROWS: &str = "tct.direct_rows";
    pub const TCT_PROBED_ROWS: &str = "tct.probed_rows";
    pub const TCT_TRIANGLES: &str = "tct.triangles";

    // Which structure served the tasks — the hash map or a bit row
    // (deterministic: the choice is a pure function of the rows). The
    // `*_lookups` tallies partition `tct.lookups` exactly.
    pub const TCT_KERNEL_HASH_TASKS: &str = "tct.kernel.hash_tasks";
    pub const TCT_KERNEL_BITMAP_TASKS: &str = "tct.kernel.bitmap_tasks";
    pub const TCT_KERNEL_BITMAP_ROWS: &str = "tct.kernel.bitmap_rows";
    pub const TCT_KERNEL_HASH_LOOKUPS: &str = "tct.kernel.hash_lookups";
    pub const TCT_KERNEL_BITMAP_LOOKUPS: &str = "tct.kernel.bitmap_lookups";
    /// Task-row loads served by the map's consecutive-row reuse cache.
    pub const TCT_KERNEL_MAP_REUSES: &str = "tct.kernel.map_reuses";

    /// Every kernel-dispatch counter. Counting runs pre-seed all of
    /// these to zero (present-and-zero, like [`MPS_RELIABILITY`]), so
    /// a row produced under `--kernel hash` still *proves* no bit row
    /// was built rather than silently omitting the family.
    pub const TCT_KERNEL: &[&str] = &[
        TCT_KERNEL_HASH_TASKS,
        TCT_KERNEL_BITMAP_TASKS,
        TCT_KERNEL_BITMAP_ROWS,
        TCT_KERNEL_HASH_LOOKUPS,
        TCT_KERNEL_BITMAP_LOOKUPS,
        TCT_KERNEL_MAP_REUSES,
    ];

    // Per-shift distributions and hash-table shape.
    pub const SHIFT_BYTES: &str = "tct.shift_bytes";
    pub const SHIFT_COMPUTE_NS: &str = "tct.shift_compute_ns";
    /// Bytes of operand blobs serialized for the counting phase.
    /// Deterministic: the zero-copy pipeline serializes each operand
    /// once instead of once per shift — Cannon's `U` blob, written by
    /// preprocessing and counted at the skew (`L` is the transpose
    /// rank's `U`), SUMMA's panel at its root — so this counter is the
    /// before/after of the optimization.
    pub const SHIFT_BYTES_SERIALIZED: &str = "tct.shift_bytes_serialized";
    /// Wall time between posting a shift exchange and starting to wait
    /// on it — the window in which the transfer ran under compute.
    pub const SHIFT_OVERLAP_WINDOW_NS: &str = "tct.shift_overlap_window_ns";
    pub const HASH_SLOTS: &str = "tct.hash_slots";
    pub const HASH_MAX_ROW: &str = "tct.hash_max_row";
    pub const HASH_LOAD_PCT: &str = "tct.hash_load_pct";

    // High-water memory scopes (bytes).
    pub const MEM_PREP_STAGING: &str = "mem.prep_staging";
    pub const MEM_SHIFT_STAGING: &str = "mem.shift_staging";
    pub const MEM_SUMMA_PANELS: &str = "mem.summa_panels";

    // 1D baseline phases.
    pub const BASE_SETUP_NS: &str = "base.setup_ns";
    pub const BASE_COUNT_NS: &str = "base.count_ns";
    pub const BASE_GHOST_ENTRIES: &str = "base.ghost_entries";

    // Always-on analytics service (`tc-serve`).
    /// Update batches applied through the incremental delta path.
    pub const SERVE_BATCHES_APPLIED: &str = "serve.batches_applied";
    /// Net edge inserts applied (after batch normalization).
    pub const SERVE_EDGES_INSERTED: &str = "serve.edges_inserted";
    /// Net edge deletes applied (after batch normalization).
    pub const SERVE_EDGES_DELETED: &str = "serve.edges_deleted";
    /// Neighborhood intersections evaluated by the delta kernel.
    pub const SERVE_DELTA_INTERSECTIONS: &str = "serve.delta_intersections";
    /// `count` queries answered.
    pub const SERVE_QUERIES_COUNT: &str = "serve.queries_count";
    /// `support` queries answered.
    pub const SERVE_QUERIES_SUPPORT: &str = "serve.queries_support";
    /// `truss` queries answered.
    pub const SERVE_QUERIES_TRUSS: &str = "serve.queries_truss";
    /// `stats`/`metrics` queries answered.
    pub const SERVE_QUERIES_STATS: &str = "serve.queries_stats";
    /// Requests rejected by admission control (typed `over_capacity`).
    pub const SERVE_REJECTED_QUERIES: &str = "serve.rejected_queries";
    /// Full 2D recounts executed. Pinned to the cold-start value in
    /// steady state — the incremental path must never fall back to a
    /// recount on the hot path.
    pub const SERVE_FULL_RECOUNTS: &str = "serve.full_recounts";
    /// Queries answered with a typed `degraded` reply because a peer
    /// rank was down. Zero in crash-free runs.
    pub const SERVE_DEGRADED_QUERIES: &str = "serve.degraded_queries";
    /// Update batches buffered (or rejected) while a peer rank was
    /// down instead of being applied immediately. Zero in crash-free
    /// runs.
    pub const SERVE_DEGRADED_UPDATES: &str = "serve.degraded_updates";
    /// Rank recoveries completed: a respawned or surviving rank
    /// restored durable state and passed the fingerprint check at a
    /// bumped epoch. Zero in crash-free runs.
    pub const SERVE_RECOVERIES: &str = "serve.recoveries";
    /// Normalized batch size distribution (net ops per applied batch).
    pub const SERVE_BATCH_SIZE: &str = "serve.batch_size";
    /// Batch apply latency distribution (nanoseconds).
    pub const SERVE_BATCH_APPLY_NS: &str = "serve.batch_apply_ns";

    // Per-query latency distributions (nanoseconds), one per query
    // op. Pre-seeded by the service frontend so exports show every op
    // at zero even before its first query — see [`SERVE_QUERY_LATENCY`].
    pub const SERVE_QUERY_LATENCY_COUNT_NS: &str = "serve.query_latency.count_ns";
    pub const SERVE_QUERY_LATENCY_SUPPORT_NS: &str = "serve.query_latency.support_ns";
    pub const SERVE_QUERY_LATENCY_TRUSS_NS: &str = "serve.query_latency.truss_ns";
    pub const SERVE_QUERY_LATENCY_STATS_NS: &str = "serve.query_latency.stats_ns";

    /// Every per-query latency histogram the service records.
    pub const SERVE_QUERY_LATENCY: &[&str] = &[
        SERVE_QUERY_LATENCY_COUNT_NS,
        SERVE_QUERY_LATENCY_SUPPORT_NS,
        SERVE_QUERY_LATENCY_TRUSS_NS,
        SERVE_QUERY_LATENCY_STATS_NS,
    ];

    /// Every deterministic `serve.*` counter, plus the `.count`
    /// projections of the service histograms (batch size and the
    /// per-op query latencies). Benchmark records default each of
    /// these to zero so an offline (batch) run *proves* the service
    /// layer stayed out of the way, and service runs always report
    /// the full family — present-and-zero, not absent.
    pub const SERVE: &[&str] = &[
        SERVE_BATCHES_APPLIED,
        SERVE_EDGES_INSERTED,
        SERVE_EDGES_DELETED,
        SERVE_DELTA_INTERSECTIONS,
        SERVE_QUERIES_COUNT,
        SERVE_QUERIES_SUPPORT,
        SERVE_QUERIES_TRUSS,
        SERVE_QUERIES_STATS,
        SERVE_REJECTED_QUERIES,
        SERVE_FULL_RECOUNTS,
        SERVE_DEGRADED_QUERIES,
        SERVE_DEGRADED_UPDATES,
        SERVE_RECOVERIES,
        "serve.batch_size.count",
        "serve.batch_size.sum",
        "serve.query_latency.count_ns.count",
        "serve.query_latency.support_ns.count",
        "serve.query_latency.truss_ns.count",
        "serve.query_latency.stats_ns.count",
    ];
}
