//! Per-rank and aggregate measurements.
//!
//! The evaluation section of the paper is built from a small set of
//! per-rank quantities — phase wall times (Table 2 / Fig. 1), per-shift
//! compute times (Table 3), map-intersection task counts (Table 4),
//! operation counts (Fig. 2), communication time and volume (Fig. 3),
//! and hash-probe counts (§7.1). [`RankMetrics`] carries all of them;
//! [`TcResult`] aggregates across ranks the way the paper does
//! (phase time = slowest rank, counts summed).

use std::time::{Duration, Instant};

use tc_metrics::names as mnames;
use tc_mps::{Comm, CommStats, CpuTimer, MpsResult};

use crate::hashmap::MapStats;

/// Everything one rank measured during a run.
#[derive(Debug, Clone, Default)]
pub struct RankMetrics {
    /// Preprocessing wall time ("ppt").
    pub ppt: Duration,
    /// Triangle-counting wall time ("tct").
    pub tct: Duration,
    /// CPU time this rank's thread spent in preprocessing. On an
    /// oversubscribed host (ranks > cores) this, not wall time, still
    /// measures the rank's work — see [`TcResult::modeled_ppt_time`].
    pub ppt_cpu: Duration,
    /// CPU time this rank's thread spent in the counting phase.
    pub tct_cpu: Duration,
    /// Compute-only *CPU* time of each of the √p shifts (excludes the
    /// shift communication) — Table 3's per-shift load-imbalance data,
    /// and the raw material of the critical-path speedup model.
    pub shift_compute: Vec<Duration>,
    /// Tasks that resulted in a map-based set intersection (Table 4).
    pub tasks: u64,
    /// Hash-probe steps beyond the home slot (§7.1's probe metric).
    pub probes: u64,
    /// Hash lookups performed.
    pub lookups: u64,
    /// Rows loaded into the intersection map via the direct fast path.
    pub direct_rows: u64,
    /// Rows loaded via probing.
    pub probed_rows: u64,
    /// Preprocessing operation count (adjacency entries processed) —
    /// the numerator of Fig. 2's ppt kOps/s.
    pub ppt_ops: u64,
    /// Counting-phase operation count (hash inserts + lookups) —
    /// Fig. 2's tct kOps/s numerator.
    pub tct_ops: u64,
    /// Time inside communication calls during preprocessing.
    pub ppt_comm: Duration,
    /// Time inside communication calls during counting.
    pub tct_comm: Duration,
    /// Payload bytes this rank sent over the whole run.
    pub bytes_sent: u64,
    /// Triangles found by this rank's tasks.
    pub local_triangles: u64,
}

impl RankMetrics {
    /// Communication-time delta between two [`CommStats`] snapshots.
    pub fn comm_delta(before: &CommStats, after: &CommStats) -> Duration {
        Duration::from_nanos(
            (after.send_ns + after.recv_ns).saturating_sub(before.send_ns + before.recv_ns),
        )
    }

    /// Applies a finished preprocessing phase sample plus its op
    /// count, mirroring both into the live metrics registry.
    pub fn finish_ppt(&mut self, sample: PhaseSample, ops: u64) {
        self.ppt = sample.wall;
        self.ppt_cpu = sample.cpu;
        self.ppt_comm = sample.comm;
        self.ppt_ops = ops;
        tc_metrics::counter_add(mnames::PPT_WALL_NS, sample.wall.as_nanos() as u64);
        tc_metrics::counter_add(mnames::PPT_CPU_NS, sample.cpu.as_nanos() as u64);
        tc_metrics::counter_add(mnames::PPT_COMM_NS, sample.comm.as_nanos() as u64);
        tc_metrics::counter_add(mnames::PPT_OPS, ops);
    }

    /// Applies a finished counting phase sample, mirroring it into
    /// the live metrics registry.
    pub fn finish_tct(&mut self, sample: PhaseSample) {
        self.tct = sample.wall;
        self.tct_cpu = sample.cpu;
        self.tct_comm = sample.comm;
        tc_metrics::counter_add(mnames::TCT_WALL_NS, sample.wall.as_nanos() as u64);
        tc_metrics::counter_add(mnames::TCT_CPU_NS, sample.cpu.as_nanos() as u64);
        tc_metrics::counter_add(mnames::TCT_COMM_NS, sample.comm.as_nanos() as u64);
    }

    /// Records the intersection-kernel outcome (map statistics,
    /// map-versus-bit-row tallies, task count, locally found triangles)
    /// into both this struct and the live metrics registry — one write
    /// path for both views, so the deterministic counters cannot
    /// diverge.
    pub fn record_kernel(
        &mut self,
        stats: &MapStats,
        kernel: &crate::intersect::KernelStats,
        tasks: u64,
        local_triangles: u64,
    ) {
        self.tasks = tasks;
        self.probes = stats.probe_steps;
        self.lookups = stats.lookups;
        self.direct_rows = stats.direct_rows;
        self.probed_rows = stats.probed_rows;
        self.tct_ops = stats.lookups + stats.inserts;
        self.local_triangles = local_triangles;
        tc_metrics::counter_add(mnames::TCT_TASKS, tasks);
        tc_metrics::counter_add(mnames::TCT_PROBES, stats.probe_steps);
        tc_metrics::counter_add(mnames::TCT_LOOKUPS, stats.lookups);
        tc_metrics::counter_add(mnames::TCT_DIRECT_ROWS, stats.direct_rows);
        tc_metrics::counter_add(mnames::TCT_PROBED_ROWS, stats.probed_rows);
        tc_metrics::counter_add(mnames::TCT_OPS, self.tct_ops);
        tc_metrics::counter_add(mnames::TCT_TRIANGLES, local_triangles);
        // Which structure served how many tasks/lookups: the map or
        // a bit row. Of the legacy counters above only `probes` may
        // differ between the two kernels.
        tc_metrics::counter_add(mnames::TCT_KERNEL_HASH_TASKS, kernel.hash_tasks);
        tc_metrics::counter_add(mnames::TCT_KERNEL_BITMAP_TASKS, kernel.bitmap_tasks);
        tc_metrics::counter_add(mnames::TCT_KERNEL_BITMAP_ROWS, kernel.bitmap_rows);
        tc_metrics::counter_add(mnames::TCT_KERNEL_HASH_LOOKUPS, kernel.hash_lookups);
        tc_metrics::counter_add(mnames::TCT_KERNEL_BITMAP_LOOKUPS, kernel.bitmap_lookups);
        tc_metrics::counter_add(mnames::TCT_KERNEL_MAP_REUSES, stats.reused_rows);
    }

    /// Stores the per-shift compute durations, feeding each sample
    /// into the registry's shift-compute histogram.
    pub fn record_shift_compute(&mut self, shifts: Vec<Duration>) {
        if tc_metrics::enabled() {
            for d in &shifts {
                tc_metrics::hist_record(mnames::SHIFT_COMPUTE_NS, d.as_nanos() as u64);
            }
        }
        self.shift_compute = shifts;
    }
}

/// Measurements of one barrier-delimited pipeline phase.
#[derive(Debug, Clone, Copy)]
pub struct PhaseSample {
    /// Barrier-to-barrier wall time.
    pub wall: Duration,
    /// CPU time of this rank's thread inside the phase.
    pub cpu: Duration,
    /// Time inside communication calls during the phase.
    pub comm: Duration,
}

/// Phase-scoped measurement guard: brackets a pipeline phase with
/// entry/exit barriers and captures wall time, thread CPU time, the
/// communication-time delta, and a trace span — the scaffolding that
/// used to be hand-copied around every `ppt`/`tct` block in
/// `driver.rs` and `summa.rs`.
///
/// Usage: [`CommPhase::begin`] before the phase body,
/// [`CommPhase::finish`] after it; feed the returned [`PhaseSample`]
/// to [`RankMetrics::finish_ppt`] / [`RankMetrics::finish_tct`].
#[derive(Debug)]
pub struct CommPhase<'a> {
    comm: &'a Comm,
    t0: Instant,
    cpu: CpuTimer,
    stats0: CommStats,
    span: tc_trace::Span,
}

impl<'a> CommPhase<'a> {
    /// Synchronizes on a barrier and starts the phase clocks and a
    /// phase-category trace span named `trace_name`.
    pub fn begin(comm: &'a Comm, trace_name: &'static str) -> MpsResult<Self> {
        comm.barrier()?;
        let stats0 = comm.stats();
        Ok(Self {
            comm,
            t0: Instant::now(),
            cpu: CpuTimer::start(),
            stats0,
            span: tc_trace::span(trace_name, tc_trace::Category::Phase),
        })
    }

    /// Closes the span, stops the CPU clock, synchronizes on the exit
    /// barrier (wall time includes the stragglers, CPU time does
    /// not), and returns the sample.
    pub fn finish(self) -> MpsResult<PhaseSample> {
        let Self { comm, t0, cpu, stats0, span } = self;
        drop(span);
        let cpu = cpu.elapsed();
        comm.barrier()?;
        let wall = t0.elapsed();
        let stats1 = comm.stats();
        let comm_time = RankMetrics::comm_delta(&stats0, &stats1);
        Ok(PhaseSample { wall, cpu, comm: comm_time })
    }
}

/// Triangle support of one input edge (`u < v`, input labels).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeSupport {
    /// Smaller endpoint.
    pub u: u32,
    /// Larger endpoint.
    pub v: u32,
    /// Number of triangles containing the edge.
    pub support: u64,
}

/// Result of a distributed triangle-counting run.
#[derive(Debug, Clone)]
pub struct TcResult {
    /// Total number of unique triangles.
    pub triangles: u64,
    /// Rank count `p` of the whole universe.
    pub num_ranks: usize,
    /// Measurements of the ranks this process ran, in rank order: all
    /// `p` of an in-process launch, one of a socket launch — the
    /// aggregates below then describe that one rank.
    pub ranks: Vec<RankMetrics>,
    /// Support of every edge, sorted by `(u, v)`: `Some` after a
    /// per-edge run where rank 0 (which gathers the list) ran.
    pub supports: Option<Vec<EdgeSupport>>,
}

impl TcResult {
    /// Preprocessing time: slowest rank (the paper reports phase wall
    /// clock, which is gated by the slowest rank).
    pub fn ppt_time(&self) -> Duration {
        self.ranks.iter().map(|r| r.ppt).max().unwrap_or_default()
    }

    /// Triangle-counting time: slowest rank.
    pub fn tct_time(&self) -> Duration {
        self.ranks.iter().map(|r| r.tct).max().unwrap_or_default()
    }

    /// Overall runtime (ppt + tct, per the paper's Table 2 columns).
    pub fn overall_time(&self) -> Duration {
        self.ppt_time() + self.tct_time()
    }

    /// Critical-path *model* of the preprocessing time: the slowest
    /// rank's CPU time. On a real cluster (one core per rank) this is
    /// what the phase's wall time would be, up to communication
    /// latency; on an oversubscribed single machine it is the only
    /// meaningful scaling metric, because wall time just measures the
    /// scheduler. DESIGN.md §1 discusses this substitution.
    pub fn modeled_ppt_time(&self) -> Duration {
        self.ranks.iter().map(|r| r.ppt_cpu).max().unwrap_or_default()
    }

    /// Critical-path model of the counting time: per shift, the
    /// slowest rank's compute CPU time, summed over shifts (the shifts
    /// are globally synchronized by the operand exchange).
    pub fn modeled_tct_time(&self) -> Duration {
        self.shift_imbalance().0
    }

    /// Modeled overall runtime.
    pub fn modeled_overall_time(&self) -> Duration {
        self.modeled_ppt_time() + self.modeled_tct_time()
    }

    /// Total map-based intersection tasks across ranks (Table 4).
    pub fn total_tasks(&self) -> u64 {
        self.ranks.iter().map(|r| r.tasks).sum()
    }

    /// Total probe steps across ranks (§7.1).
    pub fn total_probes(&self) -> u64 {
        self.ranks.iter().map(|r| r.probes).sum()
    }

    /// Total lookups across ranks.
    pub fn total_lookups(&self) -> u64 {
        self.ranks.iter().map(|r| r.lookups).sum()
    }

    /// Total payload bytes moved.
    pub fn total_bytes_sent(&self) -> u64 {
        self.ranks.iter().map(|r| r.bytes_sent).sum()
    }

    /// Aggregate preprocessing operation rate in kOps/s (Fig. 2).
    pub fn ppt_kops_per_sec(&self) -> f64 {
        let ops: u64 = self.ranks.iter().map(|r| r.ppt_ops).sum();
        let t = self.ppt_time().as_secs_f64();
        if t == 0.0 {
            0.0
        } else {
            ops as f64 / t / 1e3
        }
    }

    /// Aggregate counting operation rate in kOps/s (Fig. 2).
    pub fn tct_kops_per_sec(&self) -> f64 {
        let ops: u64 = self.ranks.iter().map(|r| r.tct_ops).sum();
        let t = self.tct_time().as_secs_f64();
        if t == 0.0 {
            0.0
        } else {
            ops as f64 / t / 1e3
        }
    }

    /// Fraction of preprocessing time spent communicating (Fig. 3):
    /// summed comm time over summed phase time.
    pub fn ppt_comm_fraction(&self) -> f64 {
        let comm: f64 = self.ranks.iter().map(|r| r.ppt_comm.as_secs_f64()).sum();
        let total: f64 = self.ranks.iter().map(|r| r.ppt.as_secs_f64()).sum();
        if total == 0.0 {
            0.0
        } else {
            comm / total
        }
    }

    /// Fraction of counting time spent communicating (Fig. 3).
    pub fn tct_comm_fraction(&self) -> f64 {
        let comm: f64 = self.ranks.iter().map(|r| r.tct_comm.as_secs_f64()).sum();
        let total: f64 = self.ranks.iter().map(|r| r.tct.as_secs_f64()).sum();
        if total == 0.0 {
            0.0
        } else {
            comm / total
        }
    }

    /// Table 3's per-shift compute statistics: `(Σ_shift max_rank,
    /// Σ_shift mean_rank, imbalance = max/mean)`.
    pub fn shift_imbalance(&self) -> (Duration, Duration, f64) {
        let shifts = self.ranks.iter().map(|r| r.shift_compute.len()).max().unwrap_or(0);
        let mut max_total = Duration::ZERO;
        let mut avg_total = Duration::ZERO;
        for s in 0..shifts {
            let times: Vec<Duration> = self
                .ranks
                .iter()
                .map(|r| r.shift_compute.get(s).copied().unwrap_or_default())
                .collect();
            let mx = times.iter().max().copied().unwrap_or_default();
            let sum: Duration = times.iter().sum();
            max_total += mx;
            avg_total += sum / self.ranks.len().max(1) as u32;
        }
        let imb = if avg_total.is_zero() {
            1.0
        } else {
            max_total.as_secs_f64() / avg_total.as_secs_f64()
        };
        (max_total, avg_total, imb)
    }

    /// Load imbalance of *task placement* (§7.2 "we count the number
    /// of non-zero tasks associated with each rank"): max/mean of
    /// per-rank task counts.
    pub fn task_imbalance(&self) -> f64 {
        let max = self.ranks.iter().map(|r| r.tasks).max().unwrap_or(0) as f64;
        let sum: u64 = self.ranks.iter().map(|r| r.tasks).sum();
        if sum == 0 {
            1.0
        } else {
            max / (sum as f64 / self.ranks.len() as f64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(ppt_ms: u64, tct_ms: u64, tasks: u64) -> RankMetrics {
        RankMetrics {
            ppt: Duration::from_millis(ppt_ms),
            tct: Duration::from_millis(tct_ms),
            tasks,
            ..Default::default()
        }
    }

    fn result(ranks: Vec<RankMetrics>) -> TcResult {
        TcResult { triangles: 0, num_ranks: ranks.len(), ranks, supports: None }
    }

    #[test]
    fn phase_times_take_slowest_rank() {
        let r = result(vec![mk(10, 5, 3), mk(7, 9, 5)]);
        assert_eq!(r.ppt_time(), Duration::from_millis(10));
        assert_eq!(r.tct_time(), Duration::from_millis(9));
        assert_eq!(r.overall_time(), Duration::from_millis(19));
        assert_eq!(r.total_tasks(), 8);
    }

    #[test]
    fn task_imbalance_max_over_mean() {
        let r = result(vec![mk(0, 0, 30), mk(0, 0, 10)]);
        assert!((r.task_imbalance() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn shift_imbalance_sums_per_shift_maxima() {
        let mut a = mk(0, 0, 0);
        a.shift_compute = vec![Duration::from_millis(4), Duration::from_millis(2)];
        let mut b = mk(0, 0, 0);
        b.shift_compute = vec![Duration::from_millis(2), Duration::from_millis(6)];
        let r = result(vec![a, b]);
        let (mx, avg, imb) = r.shift_imbalance();
        assert_eq!(mx, Duration::from_millis(10));
        assert_eq!(avg, Duration::from_millis(7));
        assert!((imb - 10.0 / 7.0).abs() < 1e-9);
    }

    #[test]
    fn comm_fraction_bounds() {
        let mut a = mk(10, 10, 0);
        a.ppt_comm = Duration::from_millis(5);
        a.tct_comm = Duration::from_millis(0);
        let r = result(vec![a]);
        assert!((r.ppt_comm_fraction() - 0.5).abs() < 1e-9);
        assert_eq!(r.tct_comm_fraction(), 0.0);
    }

    #[test]
    fn rates_handle_zero_time() {
        let r = result(vec![RankMetrics::default()]);
        assert_eq!(r.ppt_kops_per_sec(), 0.0);
        assert_eq!(r.tct_kops_per_sec(), 0.0);
    }

    #[test]
    fn aggregates_are_rank_order_invariant() {
        let mut a = mk(10, 5, 3);
        a.ppt_cpu = Duration::from_millis(8);
        a.shift_compute = vec![Duration::from_millis(4), Duration::from_millis(1)];
        a.bytes_sent = 100;
        let mut b = mk(7, 9, 5);
        b.ppt_cpu = Duration::from_millis(6);
        b.shift_compute = vec![Duration::from_millis(2), Duration::from_millis(6)];
        b.bytes_sent = 50;
        let fwd = result(vec![a.clone(), b.clone()]);
        let rev = result(vec![b, a]);
        assert_eq!(fwd.ppt_time(), rev.ppt_time());
        assert_eq!(fwd.tct_time(), rev.tct_time());
        assert_eq!(fwd.modeled_ppt_time(), rev.modeled_ppt_time());
        assert_eq!(fwd.modeled_tct_time(), rev.modeled_tct_time());
        assert_eq!(fwd.total_tasks(), rev.total_tasks());
        assert_eq!(fwd.total_bytes_sent(), rev.total_bytes_sent());
        assert_eq!(fwd.shift_imbalance(), rev.shift_imbalance());
    }

    #[test]
    fn modeled_phase_times_pick_the_slowest_rank_per_phase() {
        // Wall and CPU maxima deliberately land on *different* ranks:
        // rank 0 has the longest wall clock, rank 1 the most CPU.
        let mut a = mk(20, 2, 0);
        a.ppt_cpu = Duration::from_millis(3);
        a.tct_cpu = Duration::from_millis(1);
        let mut b = mk(5, 2, 0);
        b.ppt_cpu = Duration::from_millis(12);
        b.tct_cpu = Duration::from_millis(2);
        let r = result(vec![a, b]);
        assert_eq!(r.ppt_time(), Duration::from_millis(20));
        assert_eq!(r.modeled_ppt_time(), Duration::from_millis(12));
        assert_eq!(r.modeled_overall_time(), r.modeled_ppt_time() + r.modeled_tct_time());
    }

    #[test]
    fn modeled_tct_matches_shift_imbalance_sum() {
        let mut a = mk(0, 0, 0);
        a.shift_compute = vec![Duration::from_millis(4), Duration::from_millis(2)];
        let mut b = mk(0, 0, 0);
        b.shift_compute = vec![Duration::from_millis(2), Duration::from_millis(6)];
        let r = result(vec![a, b]);
        assert_eq!(r.modeled_tct_time(), r.shift_imbalance().0);
        assert_eq!(r.modeled_tct_time(), Duration::from_millis(10));
    }

    #[test]
    fn shift_imbalance_handles_empty_and_ragged_shift_lists() {
        // No ranks at all.
        let empty = result(vec![]);
        let (mx, avg, imb) = empty.shift_imbalance();
        assert_eq!(mx, Duration::ZERO);
        assert_eq!(avg, Duration::ZERO);
        assert_eq!(imb, 1.0);
        assert_eq!(empty.modeled_tct_time(), Duration::ZERO);

        // Ranks present but no shifts recorded (e.g. a failed run).
        let noshift = result(vec![mk(1, 1, 0), mk(1, 1, 0)]);
        assert_eq!(noshift.shift_imbalance().0, Duration::ZERO);

        // Ragged lists: a rank with fewer entries contributes zero to
        // the missing shifts instead of panicking.
        let mut a = mk(0, 0, 0);
        a.shift_compute = vec![Duration::from_millis(3)];
        let mut b = mk(0, 0, 0);
        b.shift_compute = vec![Duration::from_millis(1), Duration::from_millis(5)];
        let r = result(vec![a, b]);
        assert_eq!(r.shift_imbalance().0, Duration::from_millis(8));
    }

    #[test]
    fn comm_delta_is_monotone_and_saturating() {
        use tc_mps::CommStats;
        let before = CommStats { send_ns: 100, recv_ns: 50, ..Default::default() };
        let after = CommStats { send_ns: 300, recv_ns: 250, ..Default::default() };
        assert_eq!(RankMetrics::comm_delta(&before, &after), Duration::from_nanos(400));
        // Reversed snapshots saturate to zero rather than underflowing.
        assert_eq!(RankMetrics::comm_delta(&after, &before), Duration::ZERO);
    }
}
