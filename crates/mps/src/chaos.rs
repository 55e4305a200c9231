//! Deterministic fault injection ("chaos") for the fabric.
//!
//! The faults a run can really meet are a crashed process, a stalled or
//! slow peer, a lost link and a damaged stream: a mailbox, a Unix stream
//! or a TCP stream never drops, duplicates or reorders a message (DESIGN
//! §7). A [`FaultPlan`] injects the two that need no outside help:
//!
//! - **delays** — the sender sleeps before a send. Whether the n-th send
//!   of the link `src → dst` sleeps, and for how long, is a pure function
//!   of `(seed, src, dst, n)`, so a failing run replays exactly under the
//!   same seed and chaos tests are ordinary deterministic tests;
//! - **a crash** — one rank's process aborts at its n-th send (the socket
//!   backend only), the fault behind the supervisor's recovery drills.
//!
//! Plans come from code ([`FaultPlan::uniform`], [`FaultPlan::with_delay`])
//! or from the strictly parsed `MPS_CHAOS_*` environment family
//! ([`FaultPlan::from_env`]).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::fabric::lock_recover;
use crate::universe::strict_env;

/// Environment variable seeding [`FaultPlan::from_env`].
pub const CHAOS_SEED_ENV: &str = "MPS_CHAOS_SEED";
/// Per-send delay probability (`0.0..=1.0`) for [`FaultPlan::from_env`].
pub const CHAOS_DELAY_ENV: &str = "MPS_CHAOS_DELAY";
/// Upper bound of an injected delay, in microseconds.
pub const CHAOS_DELAY_MAX_US_ENV: &str = "MPS_CHAOS_DELAY_MAX_US";
/// Restricts env-configured delays to a link list (`"0->1,2->3"`).
pub const CHAOS_LINKS_ENV: &str = "MPS_CHAOS_LINKS";
/// Rank to crash for [`FaultPlan::from_env`] (paired with
/// [`CHAOS_CRASH_AT_ENV`]): that rank's process aborts at its nth
/// send, simulating a SIGKILL at a deterministic point.
pub const CHAOS_CRASH_RANK_ENV: &str = "MPS_CHAOS_CRASH_RANK";
/// 1-based send ordinal at which [`CHAOS_CRASH_RANK_ENV`]'s process
/// aborts (paired; setting only one of the two is an error).
pub const CHAOS_CRASH_AT_ENV: &str = "MPS_CHAOS_CRASH_AT";

/// Every variable of the `MPS_CHAOS_*` family (setting any of them
/// activates [`FaultPlan::from_env`]).
pub const CHAOS_ENV_VARS: &[&str] = &[
    CHAOS_SEED_ENV,
    CHAOS_DELAY_ENV,
    CHAOS_DELAY_MAX_US_ENV,
    CHAOS_LINKS_ENV,
    CHAOS_CRASH_RANK_ENV,
    CHAOS_CRASH_AT_ENV,
];

/// The frame-fault knobs of the retired reliable-delivery layer. Nothing
/// reads them any more, so setting one is refused by name
/// ([`FaultPlan::removed_env_error`]) rather than silently ignored.
pub const CHAOS_REMOVED_ENV_VARS: &[&str] = &[
    "MPS_CHAOS_DROP",
    "MPS_CHAOS_DUPLICATE",
    "MPS_CHAOS_REORDER",
    "MPS_CHAOS_TRUNCATE",
    "MPS_CHAOS_BITFLIP",
    "MPS_CHAOS_MAX_RETRIES",
];

/// Default upper bound of one injected delay.
const DEFAULT_DELAY_MAX: Duration = Duration::from_micros(200);

/// A seeded, deterministic description of how the fabric misbehaves:
/// per-send delays on some or all links, and an optional process crash.
///
/// The plan is installed through [`crate::UniverseConfig`]`::chaos`.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    /// Probability that one send sleeps first.
    delay: f64,
    /// Upper bound of one sleep.
    delay_max: Duration,
    /// When set, only these directed links are delayed.
    links: Option<Vec<(usize, usize)>>,
    crash: Option<(usize, u64)>,
}

impl FaultPlan {
    /// A plan with the given seed that injects nothing (until delays or
    /// a crash point are added).
    pub fn new(seed: u64) -> Self {
        Self { seed, delay: 0.0, delay_max: DEFAULT_DELAY_MAX, links: None, crash: None }
    }

    /// Every send on every link sleeps with probability `p`, for at most
    /// the default 200 µs.
    pub fn uniform(seed: u64, p: f64) -> Self {
        Self::new(seed).with_delay(p, DEFAULT_DELAY_MAX)
    }

    /// Sets the per-send delay probability `p` and the longest delay.
    ///
    /// # Panics
    ///
    /// Panics when `p` is not a probability or `max` is zero.
    pub fn with_delay(mut self, p: f64, max: Duration) -> Self {
        assert!((0.0..=1.0).contains(&p), "FaultPlan: delay probability {p} outside 0.0..=1.0");
        assert!(max > Duration::ZERO, "FaultPlan: the delay bound must be positive");
        self.delay = p;
        self.delay_max = max;
        self
    }

    /// Restricts the delays to the listed directed links; every other
    /// link behaves perfectly.
    pub fn with_restrict(mut self, links: Vec<(usize, usize)>) -> Self {
        self.links = Some(links);
        self
    }

    /// Crashes rank `rank`'s *process* (`std::process::abort`) at its
    /// `nth` send (1-based) — the process-level fault behind
    /// crash-recovery tests, with the same seeded-determinism
    /// discipline as the delays. Only the multi-process socket backend
    /// acts on it, and only in the launch epoch (0): a rank respawned at
    /// a bumped epoch keeps the same plan and does not crash again.
    pub fn crash_at(mut self, rank: usize, nth: u64) -> Self {
        assert!(nth > 0, "crash_at: the send ordinal is 1-based, 0 never fires");
        self.crash = Some((rank, nth));
        self
    }

    /// The `(rank, nth_send)` process-crash point, if one is planned.
    pub fn crash_point(&self) -> Option<(usize, u64)> {
        self.crash
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The delay probability of one send on the directed link `src → dst`.
    pub fn delay_probability(&self, src: usize, dst: usize) -> f64 {
        match &self.links {
            Some(allow) if !allow.contains(&(src, dst)) => 0.0,
            _ => self.delay,
        }
    }

    /// How long the `nth` (0-based) send on `src → dst` sleeps first, if
    /// at all: a pure function of `(seed, src, dst, nth)`.
    pub(crate) fn delay(&self, src: usize, dst: usize, nth: u64) -> Option<Duration> {
        let p = self.delay_probability(src, dst);
        let roll = |salt: u64| self.rand(src, dst, nth, salt);
        (p > 0.0 && uniform01(roll(1)) < p).then(|| {
            let span = self.delay_max.as_micros().max(1) as u64;
            Duration::from_micros(roll(2) % span + 1)
        })
    }

    fn rand(&self, src: usize, dst: usize, nth: u64, salt: u64) -> u64 {
        let mut h = self.seed ^ 0x9e37_79b9_7f4a_7c15;
        for v in [src as u64, dst as u64, nth, salt] {
            h = splitmix64(h ^ v.wrapping_mul(0xff51_afd7_ed55_8ccd));
        }
        h
    }

    /// The error for a set variable of [`CHAOS_REMOVED_ENV_VARS`], naming
    /// it, or `None` when none is set. [`FaultPlan::from_env`] panics with
    /// it; the CLI checks it up front and exits with a usage error.
    pub fn removed_env_error() -> Option<String> {
        let name = CHAOS_REMOVED_ENV_VARS.iter().find(|v| std::env::var_os(v).is_some())?;
        Some(format!(
            "{name} is no longer supported: the fabric injects only seeded delays \
             ({CHAOS_DELAY_ENV}) and process crashes ({CHAOS_CRASH_RANK_ENV}/{CHAOS_CRASH_AT_ENV}); \
             unset it"
        ))
    }

    /// Builds a plan from the `MPS_CHAOS_*` environment family, or
    /// `None` when no variable of the family is set.
    ///
    /// # Panics
    ///
    /// Panics (naming the offending variable) when a variable of
    /// [`CHAOS_REMOVED_ENV_VARS`] is set, or when any set variable does
    /// not parse strictly: the probability must be a finite float in
    /// `0.0..=1.0`, counts unsigned integers, and [`CHAOS_LINKS_ENV`] a
    /// comma-separated `src->dst` list.
    pub fn from_env() -> Option<Self> {
        if let Some(msg) = Self::removed_env_error() {
            panic!("{msg}");
        }
        if !CHAOS_ENV_VARS.iter().any(|v| std::env::var_os(v).is_some()) {
            return None;
        }
        let seed = strict_env::<u64>(CHAOS_SEED_ENV, "unsigned integer seed").unwrap_or(0xC4A05);
        let mut plan = Self::new(seed);
        let p = strict_env::<f64>(CHAOS_DELAY_ENV, "probability").unwrap_or(0.0);
        assert!(
            (0.0..=1.0).contains(&p),
            "{CHAOS_DELAY_ENV}={p} is not a probability in 0.0..=1.0"
        );
        let max = strict_env::<u64>(CHAOS_DELAY_MAX_US_ENV, "microsecond count").map_or(
            DEFAULT_DELAY_MAX,
            |us| {
                assert!(us > 0, "{CHAOS_DELAY_MAX_US_ENV}=0: the delay bound must be positive");
                Duration::from_micros(us)
            },
        );
        plan = plan.with_delay(p, max);
        if let Some(spec) = strict_env::<String>(CHAOS_LINKS_ENV, "link list") {
            plan = plan.with_restrict(parse_links(&spec));
        }
        let crash_rank = strict_env::<usize>(CHAOS_CRASH_RANK_ENV, "rank index");
        let crash_at = strict_env::<u64>(CHAOS_CRASH_AT_ENV, "1-based send ordinal");
        match (crash_rank, crash_at) {
            (Some(rank), Some(nth)) => {
                assert!(nth > 0, "{CHAOS_CRASH_AT_ENV}=0: the send ordinal is 1-based");
                plan = plan.crash_at(rank, nth);
            }
            (None, None) => {}
            (Some(_), None) => {
                panic!("{CHAOS_CRASH_RANK_ENV} is set but {CHAOS_CRASH_AT_ENV} is not")
            }
            (None, Some(_)) => {
                panic!("{CHAOS_CRASH_AT_ENV} is set but {CHAOS_CRASH_RANK_ENV} is not")
            }
        }
        Some(plan)
    }
}

/// A plan installed on a fabric, with the per-link send counters its
/// delay decisions are keyed by. Fabrics hold it only under a plan, so
/// the clean send path pays one `Option` check.
pub(crate) struct Chaos {
    plan: FaultPlan,
    size: usize,
    /// Sends so far per directed link, indexed `src * size + dst`.
    sends: Vec<AtomicU64>,
    /// Per rank, the injected delay it is asleep in, if any: the link's
    /// destination and when the sleep ends.
    asleep: Vec<Mutex<Option<(usize, Instant)>>>,
}

impl Chaos {
    pub(crate) fn new(plan: FaultPlan, size: usize) -> Self {
        Self {
            plan,
            size,
            sends: (0..size * size).map(|_| AtomicU64::new(0)).collect(),
            asleep: (0..size).map(|_| Mutex::new(None)).collect(),
        }
    }

    /// Called by the sending rank before each send on `src → dst`: sleeps
    /// when the plan delays this send, and counts it as
    /// `mps.rel.injected_delays` of the sending rank.
    pub(crate) fn before_send(&self, src: usize, dst: usize) {
        let nth = self.sends[src * self.size + dst].fetch_add(1, Ordering::Relaxed);
        if let Some(d) = self.plan.delay(src, dst, nth) {
            tc_metrics::counter_add(tc_metrics::names::MPS_REL_INJECTED_DELAYS, 1);
            *lock_recover(&self.asleep[src]) = Some((dst, Instant::now() + d));
            std::thread::sleep(d);
            *lock_recover(&self.asleep[src]) = None;
        }
    }

    /// The state line of a timeout dump for `rank` while it sleeps in an
    /// injected delay, or `None` when it does not.
    pub(crate) fn sleep_state(&self, rank: usize) -> Option<String> {
        let (dst, until) = (*lock_recover(&self.asleep[rank]))?;
        let left = until.saturating_duration_since(Instant::now());
        Some(format!("asleep in an injected delay on link {rank}→{dst} ({left:.1?} left)"))
    }
}

/// Parses a `"0->1,2->3"` directed-link list.
///
/// # Panics
///
/// Panics naming [`CHAOS_LINKS_ENV`] on any malformed entry.
fn parse_links(spec: &str) -> Vec<(usize, usize)> {
    spec.split(',')
        .map(|entry| {
            let entry = entry.trim();
            let bad = || -> ! {
                panic!(
                    "{CHAOS_LINKS_ENV}: bad link {entry:?} (expected \"src->dst\", e.g. \"0->1\")"
                )
            };
            let (s, d) = entry.split_once("->").unwrap_or_else(|| bad());
            let s = s.trim().parse::<usize>().unwrap_or_else(|_| bad());
            let d = d.trim().parse::<usize>().unwrap_or_else(|_| bad());
            (s, d)
        })
        .collect()
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Maps a hash to `[0, 1)`.
fn uniform01(r: u64) -> f64 {
    (r >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The delays of the first 200 sends on `src → dst`.
    fn delays(plan: &FaultPlan, src: usize, dst: usize) -> Vec<Option<Duration>> {
        (0..200).map(|nth| plan.delay(src, dst, nth)).collect()
    }

    #[test]
    fn decisions_are_deterministic() {
        let plan = FaultPlan::uniform(42, 0.3);
        assert_eq!(delays(&plan, 1, 2), delays(&plan.clone(), 1, 2));
        let bound = Duration::from_micros(200);
        assert!(delays(&plan, 1, 2).iter().flatten().all(|d| *d > Duration::ZERO && *d <= bound));
    }

    #[test]
    fn decisions_vary_with_every_coordinate() {
        // Probability ½: 200 decisions differing in one coordinate
        // collide with probability ≈ 2⁻²⁰⁰.
        let base = delays(&FaultPlan::uniform(7, 0.5), 0, 1);
        assert_ne!(base, delays(&FaultPlan::uniform(7, 0.5), 1, 0), "direction must matter");
        assert_ne!(base, delays(&FaultPlan::uniform(7, 0.5), 0, 2), "destination must matter");
        assert_ne!(base, delays(&FaultPlan::uniform(8, 0.5), 0, 1), "seed must matter");
        let shifted: Vec<_> =
            (1..201).map(|nth| FaultPlan::uniform(7, 0.5).delay(0, 1, nth)).collect();
        assert_ne!(base, shifted, "the send ordinal must matter");
    }

    #[test]
    fn probabilities_are_respected_roughly() {
        let plan = FaultPlan::uniform(3, 0.2);
        let hits = (0..10_000).filter(|&n| plan.delay(0, 1, n).is_some()).count();
        assert!((1500..2500).contains(&hits), "≈20% expected, got {hits}/10000");
        // And a zero probability never fires.
        assert!((0..10_000).all(|n| FaultPlan::new(3).delay(0, 1, n).is_none()));
    }

    #[test]
    fn link_overrides_and_restriction() {
        let plan = FaultPlan::uniform(1, 0.5).with_restrict(vec![(0, 1), (2, 3)]);
        assert_eq!(plan.delay_probability(2, 3), 0.5, "restricted link keeps the delays");
        assert_eq!(plan.delay_probability(1, 0), 0.0, "unlisted link is healthy");
        assert!((0..1000).all(|n| plan.delay(1, 0, n).is_none()));
    }

    #[test]
    #[should_panic(expected = "outside 0.0..=1.0")]
    fn out_of_range_probability_rejected() {
        let _ = FaultPlan::uniform(0, 1.5);
    }

    #[test]
    fn crash_plan_is_carried() {
        let plan = FaultPlan::new(9).crash_at(3, 17);
        assert_eq!(plan.crash_point(), Some((3, 17)));
        assert_eq!(FaultPlan::new(9).crash_point(), None);
    }

    #[test]
    #[should_panic(expected = "1-based")]
    fn crash_at_zero_rejected() {
        let _ = FaultPlan::new(0).crash_at(1, 0);
    }

    #[test]
    fn a_timeout_dump_names_the_rank_asleep_in_an_injected_delay() {
        // Every send sleeps, for up to a second. The seed is chosen
        // through the plan itself, so the first send on 0 → 1 surely
        // sleeps far past rank 1's 100 ms receive deadline.
        let plan = (0..)
            .map(|seed| FaultPlan::new(seed).with_delay(1.0, Duration::from_secs(1)))
            .find(|plan| plan.delay(0, 1, 0).is_some_and(|d| d >= Duration::from_millis(800)))
            .expect("some seed sleeps long");
        let cfg = crate::UniverseConfig {
            recv_timeout: Some(Duration::from_millis(100)),
            chaos: Some(plan),
            ..crate::UniverseConfig::default()
        };
        let err = crate::Universe::try_run_config(2, &cfg, |c| {
            if c.rank() == 0 {
                c.send_val::<u64>(1, 5, 42);
                Ok(0)
            } else {
                c.recv_val::<u64>(0, 5)
            }
        })
        .expect_err("the receive must time out");
        match err {
            crate::MpsError::Timeout { report, .. } => {
                let line = report.lines().find(|l| l.contains("rank 0:")).unwrap_or_default();
                assert!(line.contains("asleep in an injected delay on link 0→1 ("), "{report}");
                assert!(line.contains(" left)"), "{report}");
            }
            other => panic!("expected a Timeout, got {other}"),
        }
    }

    #[test]
    fn parse_links_accepts_list_with_spaces() {
        assert_eq!(parse_links("0->1, 4 -> 2"), vec![(0, 1), (4, 2)]);
    }

    #[test]
    #[should_panic(expected = "MPS_CHAOS_LINKS")]
    fn parse_links_rejects_garbage() {
        let _ = parse_links("0->1,zap");
    }
}
