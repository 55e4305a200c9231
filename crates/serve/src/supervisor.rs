//! The fleet supervisor: spawn, watch, respawn.
//!
//! One supervisor process owns a fleet of per-rank `serve` child
//! processes connected over the socket fabric. It is the only writer
//! of the fleet **epoch file** (`<state_dir>/epoch`): before every
//! (re)spawn it atomically bumps the epoch, which is the signal
//! survivors poll to leave degraded mode and rejoin at the new
//! handshake epoch ([`crate::service::serve_fleet`]).
//!
//! Policy:
//!
//! - rank 0 exiting ends the fleet (cleanly after a `shutdown`
//!   request, or loudly with its exit code) — the frontend owns the
//!   client socket, so there is nothing left to serve;
//! - a non-zero rank exiting **cleanly** (code 0) is shutdown in
//!   progress, not a crash;
//! - a non-zero rank dying is charged against a bounded restart
//!   budget; within budget the rank is respawned with the same rank
//!   id at the bumped epoch after an exponential backoff with
//!   deterministic jitter, past it the whole fleet is killed and the
//!   fleet declared dead — loudly, never silently;
//! - every child, respawned or not, gets the same arguments and
//!   environment. An injected `MPS_CHAOS_CRASH_*` process crash fires
//!   in the launch epoch only (`tc_mps::FaultPlan::crash_at`), so it
//!   fires exactly once instead of turning into a crash loop, and the
//!   respawn runs the same fault plan as the survivors it rejoins (kill
//!   the respawn by hand — or exhaust the budget with `--max-restarts 0`
//!   — to test the loud path).
//!
//! Each child's stdout/stderr is appended to
//! `<state_dir>/rank-<r>.log` and its pid recorded in
//! `<state_dir>/rank-<r>.pid`, so harnesses (and the CI crash job)
//! can SIGKILL a chosen rank and postmortems have per-rank logs.

use std::fs::{self, OpenOptions};
use std::io;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Name of the fleet epoch file inside the state directory.
pub const EPOCH_FILE: &str = "epoch";

/// Reads the fleet epoch (0 when the file does not exist yet).
///
/// # Panics
///
/// Panics on unreadable or malformed content — a scribbled-over
/// epoch file means the fleet's coordination substrate is gone.
pub fn read_epoch(state_dir: &Path) -> u64 {
    let path = state_dir.join(EPOCH_FILE);
    match fs::read_to_string(&path) {
        Ok(text) => text.trim().parse::<u64>().unwrap_or_else(|_| {
            panic!("epoch file {} holds {:?}, not a u64", path.display(), text)
        }),
        Err(e) if e.kind() == io::ErrorKind::NotFound => 0,
        Err(e) => panic!("cannot read epoch file {}: {e}", path.display()),
    }
}

/// Atomically (temp file + rename) publishes a new fleet epoch.
pub fn write_epoch(state_dir: &Path, epoch: u64) -> io::Result<()> {
    let tmp = state_dir.join("epoch.tmp");
    fs::write(&tmp, format!("{epoch}\n"))?;
    fs::rename(tmp, state_dir.join(EPOCH_FILE))
}

/// What to launch and how hard to try keeping it alive.
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// The binary to spawn (normally `std::env::current_exe()`).
    pub program: PathBuf,
    /// Arguments of the per-rank serve command, **without** `--rank`
    /// (the supervisor appends it). Must include `--state-dir` and
    /// `--peers` so children find the fleet.
    pub serve_args: Vec<String>,
    /// Fleet state directory (epoch file, logs, pid files).
    pub state_dir: PathBuf,
    /// Fleet size.
    pub ranks: usize,
    /// Total crash budget across the fleet's lifetime; the
    /// `max_restarts + 1`-th crash declares the fleet dead.
    pub max_restarts: u32,
    /// Base of the exponential respawn backoff.
    pub backoff_base_ms: u64,
    /// Ceiling of the respawn backoff.
    pub backoff_cap_ms: u64,
}

/// How a supervised fleet ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SuperviseOutcome {
    /// Rank 0 exited; the fleet was torn down. Carries rank 0's exit
    /// code (0 after a clean `shutdown`).
    FrontendExited(i32),
    /// The restart budget ran out on yet another crash of `rank`.
    BudgetExhausted {
        /// The rank whose death overflowed the budget.
        rank: usize,
        /// Crashes absorbed before giving up.
        restarts: u32,
    },
}

/// The endpoint list a supervised fleet uses: one Unix socket per
/// rank inside the state directory.
pub fn fleet_endpoints(state_dir: &Path, ranks: usize) -> Vec<String> {
    (0..ranks).map(|r| state_dir.join(format!("fab-{r}.sock")).display().to_string()).collect()
}

/// splitmix64 — deterministic jitter so respawns of a thundering
/// fleet don't synchronize, without any time-seeded randomness.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Exponential backoff with deterministic jitter for the `nth`
/// (1-based) restart.
fn backoff(cfg: &SupervisorConfig, nth: u32) -> Duration {
    let base = cfg.backoff_base_ms.max(1);
    let exp = base.saturating_mul(1u64 << (nth - 1).min(16)).min(cfg.backoff_cap_ms.max(base));
    let jitter = splitmix64(nth as u64) % (base / 2 + 1);
    Duration::from_millis(exp + jitter)
}

struct Slot {
    child: Option<Child>,
}

fn spawn_rank(cfg: &SupervisorConfig, rank: usize) -> io::Result<Child> {
    let log = OpenOptions::new()
        .create(true)
        .append(true)
        .open(cfg.state_dir.join(format!("rank-{rank}.log")))?;
    let mut cmd = Command::new(&cfg.program);
    cmd.args(&cfg.serve_args)
        .arg("--rank")
        .arg(rank.to_string())
        .stdin(Stdio::null())
        .stdout(Stdio::from(log.try_clone()?))
        .stderr(Stdio::from(log));
    let child = cmd.spawn()?;
    fs::write(cfg.state_dir.join(format!("rank-{rank}.pid")), format!("{}\n", child.id()))?;
    Ok(child)
}

fn kill_all(slots: &mut [Slot]) {
    for slot in slots.iter_mut() {
        if let Some(child) = slot.child.as_mut() {
            let _ = child.kill();
            let _ = child.wait();
        }
        slot.child = None;
    }
}

/// Runs the fleet until rank 0 exits or the restart budget is gone.
pub fn supervise(cfg: &SupervisorConfig) -> io::Result<SuperviseOutcome> {
    assert!(cfg.ranks >= 1, "a fleet needs at least one rank");
    fs::create_dir_all(&cfg.state_dir)?;
    // Clear stale fabric sockets from a previous fleet so children
    // can rebind.
    for ep in fleet_endpoints(&cfg.state_dir, cfg.ranks) {
        let _ = fs::remove_file(&ep);
    }
    write_epoch(&cfg.state_dir, 0)?;

    let mut slots: Vec<Slot> = Vec::with_capacity(cfg.ranks);
    for rank in 0..cfg.ranks {
        slots.push(Slot { child: Some(spawn_rank(cfg, rank)?) });
    }
    let mut epoch = 0u64;
    let mut restarts = 0u32;

    loop {
        for rank in 0..cfg.ranks {
            let status = match slots[rank].child.as_mut() {
                Some(child) => child.try_wait()?,
                None => None,
            };
            let Some(status) = status else { continue };
            slots[rank].child = None;

            if rank == 0 {
                // The frontend is gone; the fleet is over either way.
                let code = status.code().unwrap_or(1);
                kill_all(&mut slots);
                return Ok(SuperviseOutcome::FrontendExited(code));
            }
            if status.success() {
                // Clean exit: shutdown is propagating through the
                // fleet; rank 0 will follow.
                continue;
            }

            restarts += 1;
            if restarts > cfg.max_restarts {
                eprintln!(
                    "supervisor: rank {rank} died ({status}) and the restart budget \
                     ({}) is exhausted; declaring the fleet dead",
                    cfg.max_restarts
                );
                kill_all(&mut slots);
                return Ok(SuperviseOutcome::BudgetExhausted { rank, restarts });
            }
            epoch += 1;
            let pause = backoff(cfg, restarts);
            eprintln!(
                "supervisor: rank {rank} died ({status}); respawn {restarts}/{} at epoch \
                 {epoch} after {pause:?}",
                cfg.max_restarts
            );
            std::thread::sleep(pause);
            // Publish the epoch only now, after the backoff: rank 0
            // keeps serving degraded replies through the whole pause
            // and starts reconnecting when the respawn is imminent.
            // The epoch must land before the spawn so the new child
            // never reads the stale value.
            write_epoch(&cfg.state_dir, epoch)?;
            slots[rank].child = Some(spawn_rank(cfg, rank)?);
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// Convenience for harnesses: the pid recorded for `rank`, if any.
pub fn read_pid(state_dir: &Path, rank: usize) -> Option<u32> {
    fs::read_to_string(state_dir.join(format!("rank-{rank}.pid")))
        .ok()
        .and_then(|s| s.trim().parse().ok())
}

/// Blocks until `rank`'s recorded pid changes away from `old` (a
/// respawn happened) or the deadline passes. Test/harness helper.
pub fn wait_for_respawn(state_dir: &Path, rank: usize, old: u32, timeout: Duration) -> bool {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if read_pid(state_dir, rank).is_some_and(|p| p != old) {
            return true;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_file_round_trips_and_defaults_to_zero() {
        let dir = std::env::temp_dir().join(format!("tc-sup-epoch-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        assert_eq!(read_epoch(&dir), 0);
        write_epoch(&dir, 7).unwrap();
        assert_eq!(read_epoch(&dir), 7);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn backoff_grows_exponentially_and_caps() {
        let cfg = SupervisorConfig {
            program: PathBuf::from("true"),
            serve_args: vec![],
            state_dir: PathBuf::from("/tmp"),
            ranks: 2,
            max_restarts: 8,
            backoff_base_ms: 100,
            backoff_cap_ms: 800,
        };
        let b1 = backoff(&cfg, 1).as_millis() as u64;
        let b2 = backoff(&cfg, 2).as_millis() as u64;
        let b5 = backoff(&cfg, 5).as_millis() as u64;
        assert!((100..=150).contains(&b1), "b1 = {b1}");
        assert!((200..=250).contains(&b2), "b2 = {b2}");
        assert!((800..=850).contains(&b5), "cap applies, b5 = {b5}");
        // Deterministic: same inputs, same jitter.
        assert_eq!(backoff(&cfg, 3), backoff(&cfg, 3));
    }

    #[test]
    fn fleet_endpoints_are_per_rank_sockets() {
        let eps = fleet_endpoints(Path::new("/tmp/fleet"), 3);
        assert_eq!(eps.len(), 3);
        assert!(eps[2].ends_with("fab-2.sock"));
        assert!(eps[0].contains('/'), "endpoint must parse as a Unix socket path");
    }
}
