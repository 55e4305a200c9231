//! Per-thread CPU clocks.
//!
//! When more ranks than cores share a machine, per-rank *wall* times
//! measure scheduler interleaving, not algorithmic work. Per-thread
//! CPU time keeps measuring the work itself; every span records both
//! clocks so the critical-path analysis can choose the right one.
//!
//! This is the workspace's single implementation of the thread CPU
//! clock; `tc_mps` re-exports [`thread_cpu_now`] and [`CpuTimer`] from
//! its crate root.

use std::time::Duration;

/// CPU time consumed by the calling thread since it started.
///
/// Linux uses `CLOCK_THREAD_CPUTIME_ID`; other platforms fall back to
/// a monotonic wall clock, which keeps the API total but degrades the
/// model — all supported CI targets are Linux.
pub fn thread_cpu_now() -> Duration {
    #[cfg(target_os = "linux")]
    {
        // Declared inline rather than through the `libc` crate so the
        // workspace builds without registry access.
        #[repr(C)]
        struct Timespec {
            tv_sec: i64,
            tv_nsec: i64,
        }
        const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
        extern "C" {
            fn clock_gettime(clockid: i32, tp: *mut Timespec) -> i32;
        }
        let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
        // SAFETY: ts is a valid out-pointer; the clock id is a constant
        // the kernel accepts for any live thread.
        let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
        assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
        Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
    }
    #[cfg(not(target_os = "linux"))]
    {
        // Fallback: monotonic wall clock (documented degradation).
        use std::sync::OnceLock;
        use std::time::Instant;
        static START: OnceLock<Instant> = OnceLock::new();
        START.get_or_init(Instant::now).elapsed()
    }
}

/// A stopwatch over the calling thread's CPU clock.
#[derive(Debug, Clone, Copy)]
pub struct CpuTimer {
    start: Duration,
}

impl CpuTimer {
    /// Starts the stopwatch.
    pub fn start() -> Self {
        Self { start: thread_cpu_now() }
    }

    /// CPU time consumed by this thread since [`CpuTimer::start`].
    pub fn elapsed(&self) -> Duration {
        thread_cpu_now().saturating_sub(self.start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clock_advances_under_compute() {
        let t = CpuTimer::start();
        let mut acc = 0u64;
        for i in 0..2_000_000u64 {
            acc = acc.wrapping_add(i).rotate_left(7);
        }
        std::hint::black_box(acc);
        assert!(t.elapsed() > Duration::ZERO);
    }

    #[test]
    fn cpu_clock_ignores_sleep() {
        // Sleeping burns (almost) no CPU: the CPU delta must be far
        // smaller than the wall delta.
        let cpu = CpuTimer::start();
        let wall = std::time::Instant::now();
        std::thread::sleep(Duration::from_millis(60));
        let cpu_d = cpu.elapsed();
        let wall_d = wall.elapsed();
        assert!(wall_d >= Duration::from_millis(55));
        assert!(cpu_d < wall_d / 4, "cpu {cpu_d:?} wall {wall_d:?}");
    }

    #[test]
    fn per_thread_isolation() {
        // A busy sibling thread must not advance this thread's clock.
        let t = CpuTimer::start();
        let before = t.elapsed();
        std::thread::scope(|s| {
            s.spawn(|| {
                let mut acc = 1u64;
                for i in 1..1_000_000u64 {
                    acc = acc.wrapping_mul(i | 1);
                }
                std::hint::black_box(acc);
            });
        });
        let after = t.elapsed();
        // Our own delta should be tiny (just the join bookkeeping).
        assert!(after - before < Duration::from_millis(50));
    }
}
