//! Deterministic fault injection ("chaos") for the fabric.
//!
//! A [`FaultPlan`] installed at universe construction makes selected
//! links misbehave: frames can be delayed, dropped, duplicated,
//! reordered, truncated, or bit-flipped. Every decision is a pure
//! function of `(seed, src, dst, seq, attempt)`, so a failing run
//! replays *exactly* under the same seed — chaos tests are ordinary
//! deterministic tests.
//!
//! Faults apply to transport *frames* (below the reliable-delivery
//! layer in [`crate::reliable`]), never to application payloads
//! directly: the delivery protocol must mask every injected fault or
//! surface a typed [`crate::MpsError::DeliveryFailed`].
//!
//! Plans come from code ([`FaultPlan::uniform`], [`FaultPlan::with_link`])
//! or from the strictly parsed `MPS_CHAOS_*` environment family
//! ([`FaultPlan::from_env`]).

use std::time::Duration;

use crate::universe::strict_env;

/// Environment variable seeding [`FaultPlan::from_env`].
pub const CHAOS_SEED_ENV: &str = "MPS_CHAOS_SEED";
/// Frame drop probability (`0.0..=1.0`) for [`FaultPlan::from_env`].
pub const CHAOS_DROP_ENV: &str = "MPS_CHAOS_DROP";
/// Frame duplication probability for [`FaultPlan::from_env`].
pub const CHAOS_DUPLICATE_ENV: &str = "MPS_CHAOS_DUPLICATE";
/// Frame reorder (holdback) probability for [`FaultPlan::from_env`].
pub const CHAOS_REORDER_ENV: &str = "MPS_CHAOS_REORDER";
/// Frame delay probability for [`FaultPlan::from_env`].
pub const CHAOS_DELAY_ENV: &str = "MPS_CHAOS_DELAY";
/// Frame truncation probability for [`FaultPlan::from_env`].
pub const CHAOS_TRUNCATE_ENV: &str = "MPS_CHAOS_TRUNCATE";
/// Single-bit corruption probability for [`FaultPlan::from_env`].
pub const CHAOS_BITFLIP_ENV: &str = "MPS_CHAOS_BITFLIP";
/// Upper bound of an injected delay, in microseconds.
pub const CHAOS_DELAY_MAX_US_ENV: &str = "MPS_CHAOS_DELAY_MAX_US";
/// Retransmit budget per missing frame before
/// [`crate::MpsError::DeliveryFailed`].
pub const CHAOS_MAX_RETRIES_ENV: &str = "MPS_CHAOS_MAX_RETRIES";
/// Restricts env-configured faults to a link list (`"0->1,2->3"`).
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
    CHAOS_DROP_ENV,
    CHAOS_DUPLICATE_ENV,
    CHAOS_REORDER_ENV,
    CHAOS_DELAY_ENV,
    CHAOS_TRUNCATE_ENV,
    CHAOS_BITFLIP_ENV,
    CHAOS_DELAY_MAX_US_ENV,
    CHAOS_MAX_RETRIES_ENV,
    CHAOS_LINKS_ENV,
    CHAOS_CRASH_RANK_ENV,
    CHAOS_CRASH_AT_ENV,
];

/// One fault mode a link can exhibit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The frame is delivered late (the sender stalls briefly).
    Delay,
    /// The frame is never delivered.
    Drop,
    /// The frame is delivered twice.
    Duplicate,
    /// The frame is held back and delivered after a later frame.
    Reorder,
    /// The frame is cut short on the wire (detected by length/CRC).
    Truncate,
    /// One bit of the frame is flipped on the wire (detected by CRC).
    BitFlip,
}

impl FaultKind {
    /// All fault modes, in a fixed order (soak suites iterate this).
    pub const ALL: [FaultKind; 6] = [
        FaultKind::Delay,
        FaultKind::Drop,
        FaultKind::Duplicate,
        FaultKind::Reorder,
        FaultKind::Truncate,
        FaultKind::BitFlip,
    ];

    /// Stable lowercase name (used in test labels and trace args).
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::Delay => "delay",
            FaultKind::Drop => "drop",
            FaultKind::Duplicate => "duplicate",
            FaultKind::Reorder => "reorder",
            FaultKind::Truncate => "truncate",
            FaultKind::BitFlip => "bitflip",
        }
    }
}

/// Per-link fault probabilities (each independently in `0.0..=1.0`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkFaults {
    /// Probability a frame is delayed before delivery.
    pub delay: f64,
    /// Probability a frame is dropped.
    pub drop: f64,
    /// Probability a frame is delivered twice.
    pub duplicate: f64,
    /// Probability a frame is held back behind the next frame.
    pub reorder: f64,
    /// Probability a frame is truncated on the wire.
    pub truncate: f64,
    /// Probability one bit of a frame is flipped on the wire.
    pub bitflip: f64,
    /// Upper bound of an injected delay.
    pub delay_max: Duration,
}

impl Default for LinkFaults {
    fn default() -> Self {
        Self::none()
    }
}

impl LinkFaults {
    /// A perfectly healthy link.
    pub fn none() -> Self {
        Self {
            delay: 0.0,
            drop: 0.0,
            duplicate: 0.0,
            reorder: 0.0,
            truncate: 0.0,
            bitflip: 0.0,
            delay_max: Duration::from_micros(200),
        }
    }

    /// Every fault mode at probability `p`.
    pub fn uniform(p: f64) -> Self {
        Self {
            delay: p,
            drop: p,
            duplicate: p,
            reorder: p,
            truncate: p,
            bitflip: p,
            ..Self::none()
        }
    }

    /// Only `kind` at probability `p`, all other modes off.
    pub fn only(kind: FaultKind, p: f64) -> Self {
        let mut f = Self::none();
        match kind {
            FaultKind::Delay => f.delay = p,
            FaultKind::Drop => f.drop = p,
            FaultKind::Duplicate => f.duplicate = p,
            FaultKind::Reorder => f.reorder = p,
            FaultKind::Truncate => f.truncate = p,
            FaultKind::BitFlip => f.bitflip = p,
        }
        f
    }

    /// Whether every probability is zero (the link behaves perfectly).
    pub fn is_none(&self) -> bool {
        self.delay == 0.0
            && self.drop == 0.0
            && self.duplicate == 0.0
            && self.reorder == 0.0
            && self.truncate == 0.0
            && self.bitflip == 0.0
    }

    fn validate(&self, what: &str) {
        for (name, p) in [
            ("delay", self.delay),
            ("drop", self.drop),
            ("duplicate", self.duplicate),
            ("reorder", self.reorder),
            ("truncate", self.truncate),
            ("bitflip", self.bitflip),
        ] {
            assert!(
                (0.0..=1.0).contains(&p) && p.is_finite(),
                "{what}: {name} probability {p} outside 0.0..=1.0"
            );
        }
    }
}

/// A seeded, deterministic description of how the fabric misbehaves.
///
/// The plan is installed through [`crate::UniverseConfig`]`::chaos` and
/// activates the reliable-delivery transport for the whole universe.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    default: LinkFaults,
    links: Vec<(usize, usize, LinkFaults)>,
    restrict: Option<Vec<(usize, usize)>>,
    max_retries: u32,
    nack_base: Duration,
    nack_cap: Duration,
    crash: Option<(usize, u64)>,
}

impl FaultPlan {
    /// A plan with the given seed and no faults anywhere (still runs
    /// the full reliable-delivery protocol — useful for overhead and
    /// protocol tests).
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            default: LinkFaults::none(),
            links: Vec::new(),
            restrict: None,
            max_retries: 16,
            nack_base: Duration::from_millis(1),
            nack_cap: Duration::from_millis(100),
            crash: None,
        }
    }

    /// Every link exhibits every fault mode at probability `p`.
    pub fn uniform(seed: u64, p: f64) -> Self {
        Self::new(seed).with_default(LinkFaults::uniform(p))
    }

    /// Sets the fault probabilities every link inherits.
    pub fn with_default(mut self, faults: LinkFaults) -> Self {
        faults.validate("FaultPlan default");
        self.default = faults;
        self
    }

    /// Overrides the faults of one directed link `src → dst`.
    pub fn with_link(mut self, src: usize, dst: usize, faults: LinkFaults) -> Self {
        faults.validate("FaultPlan link");
        self.links.retain(|(s, d, _)| (*s, *d) != (src, dst));
        self.links.push((src, dst, faults));
        self
    }

    /// Restricts the *default* faults to the listed directed links;
    /// links outside the list (and without an explicit
    /// [`FaultPlan::with_link`] entry) behave perfectly.
    pub fn with_restrict(mut self, links: Vec<(usize, usize)>) -> Self {
        self.restrict = Some(links);
        self
    }

    /// Sets how many times a missing frame is re-requested before the
    /// receive fails with [`crate::MpsError::DeliveryFailed`].
    pub fn with_max_retries(mut self, retries: u32) -> Self {
        self.max_retries = retries;
        self
    }

    /// Sets the base (first) NACK backoff delay; later attempts double
    /// it up to `cap`.
    pub fn with_nack_backoff(mut self, base: Duration, cap: Duration) -> Self {
        assert!(base > Duration::ZERO, "NACK base backoff must be positive");
        self.nack_base = base;
        self.nack_cap = cap.max(base);
        self
    }

    /// Crashes rank `rank`'s *process* (`std::process::abort`) at its
    /// `nth` send (1-based) — the process-level fault behind
    /// crash-recovery tests: the same seeded-determinism discipline as
    /// link faults, but the fault is a SIGABRT instead of a lost frame.
    /// Only the multi-process socket backend acts on it, and only in
    /// the launch epoch (0): a rank respawned at a bumped epoch keeps
    /// the same plan, so it agrees with its survivors on the reliable
    /// layer, and does not crash again.
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

    /// The retransmit budget per missing frame.
    pub fn max_retries(&self) -> u32 {
        self.max_retries
    }

    pub(crate) fn nack_base(&self) -> Duration {
        self.nack_base
    }

    /// The faults of the directed link `src → dst`.
    pub fn faults_for(&self, src: usize, dst: usize) -> LinkFaults {
        if let Some((_, _, f)) = self.links.iter().find(|(s, d, _)| (*s, *d) == (src, dst)) {
            return *f;
        }
        if let Some(allow) = &self.restrict {
            if !allow.contains(&(src, dst)) {
                return LinkFaults::none();
            }
        }
        self.default
    }

    /// Deterministic fault decision for transmission `attempt` of
    /// frame `seq` on `src → dst`. Retransmissions (`attempt > 0`)
    /// can still be delayed, dropped, or corrupted — a lossy link stays
    /// lossy — but are never duplicated or held back, so a link with
    /// loss probability < 1 always converges.
    pub(crate) fn decide(&self, src: usize, dst: usize, seq: u64, attempt: u32) -> Decision {
        let f = self.faults_for(src, dst);
        let roll = |salt: u64| self.rand(src, dst, seq, attempt, salt);
        let hit = |p: f64, salt: u64| p > 0.0 && uniform01(roll(salt)) < p;
        let delay = hit(f.delay, 1).then(|| {
            let span = f.delay_max.as_micros().max(1) as u64;
            Duration::from_micros(roll(2) % span + 1)
        });
        let corrupt = if hit(f.truncate, 3) {
            Some(Corruption::Truncate(roll(4)))
        } else if hit(f.bitflip, 5) {
            Some(Corruption::BitFlip(roll(6)))
        } else {
            None
        };
        Decision {
            delay,
            drop: hit(f.drop, 7),
            duplicate: attempt == 0 && hit(f.duplicate, 8),
            reorder: attempt == 0 && hit(f.reorder, 9),
            corrupt,
        }
    }

    /// How long the receiver waits before (re-)requesting a missing
    /// frame: exponential in the attempt number, capped, with a small
    /// deterministic jitter so lock-stepped ranks do not NACK in phase.
    pub(crate) fn backoff(&self, src: usize, dst: usize, attempt: u32) -> Duration {
        let base_ns = self.nack_base.as_nanos() as u64;
        let cap_ns = self.nack_cap.as_nanos() as u64;
        let exp = base_ns.saturating_mul(1u64 << attempt.min(20)).min(cap_ns).max(1);
        let jitter = self.rand(src, dst, 0, attempt, 10) % (exp / 4 + 1);
        Duration::from_nanos(exp + jitter)
    }

    fn rand(&self, src: usize, dst: usize, seq: u64, attempt: u32, salt: u64) -> u64 {
        let mut h = self.seed ^ 0x9e37_79b9_7f4a_7c15;
        for v in [src as u64, dst as u64, seq, attempt as u64, salt] {
            h = splitmix64(h ^ v.wrapping_mul(0xff51_afd7_ed55_8ccd));
        }
        h
    }

    /// Builds a plan from the `MPS_CHAOS_*` environment family, or
    /// `None` when no variable of the family is set.
    ///
    /// # Panics
    ///
    /// Panics (naming the offending variable) when any set variable
    /// does not parse strictly: probabilities must be finite floats in
    /// `0.0..=1.0`, counts unsigned integers, and
    /// [`CHAOS_LINKS_ENV`] a comma-separated `src->dst` list.
    pub fn from_env() -> Option<Self> {
        if !CHAOS_ENV_VARS.iter().any(|v| std::env::var_os(v).is_some()) {
            return None;
        }
        let seed = strict_env::<u64>(CHAOS_SEED_ENV, "unsigned integer seed").unwrap_or(0xC4A05);
        let mut plan = Self::new(seed);
        let prob = |name: &str| -> Option<f64> {
            let p = strict_env::<f64>(name, "probability")?;
            assert!(
                (0.0..=1.0).contains(&p) && p.is_finite(),
                "{name}={p} is not a probability in 0.0..=1.0"
            );
            Some(p)
        };
        let mut f = LinkFaults::none();
        if let Some(p) = prob(CHAOS_DROP_ENV) {
            f.drop = p;
        }
        if let Some(p) = prob(CHAOS_DUPLICATE_ENV) {
            f.duplicate = p;
        }
        if let Some(p) = prob(CHAOS_REORDER_ENV) {
            f.reorder = p;
        }
        if let Some(p) = prob(CHAOS_DELAY_ENV) {
            f.delay = p;
        }
        if let Some(p) = prob(CHAOS_TRUNCATE_ENV) {
            f.truncate = p;
        }
        if let Some(p) = prob(CHAOS_BITFLIP_ENV) {
            f.bitflip = p;
        }
        if let Some(us) = strict_env::<u64>(CHAOS_DELAY_MAX_US_ENV, "microsecond count") {
            assert!(us > 0, "{CHAOS_DELAY_MAX_US_ENV}=0: the delay bound must be positive");
            f.delay_max = Duration::from_micros(us);
        }
        plan = plan.with_default(f);
        if let Some(r) = strict_env::<u32>(CHAOS_MAX_RETRIES_ENV, "retry count") {
            plan = plan.with_max_retries(r);
        }
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

/// What [`FaultPlan::decide`] chose for one frame transmission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Decision {
    /// Stall the sender this long before delivering.
    pub delay: Option<Duration>,
    /// Do not deliver the frame at all.
    pub drop: bool,
    /// Deliver the frame twice.
    pub duplicate: bool,
    /// Hold the frame back and deliver it after the link's next frame.
    pub reorder: bool,
    /// Corrupt the delivered copy (the retransmit window keeps the
    /// pristine frame).
    pub corrupt: Option<Corruption>,
}

/// A wire-level corruption, parameterized by raw entropy resolved
/// against the concrete frame length at application time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Corruption {
    /// Keep only `entropy % len` leading bytes.
    Truncate(u64),
    /// Flip bit `entropy % (len * 8)`.
    BitFlip(u64),
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

    #[test]
    fn decisions_are_deterministic() {
        let plan = FaultPlan::uniform(42, 0.3);
        for seq in 0..200 {
            for attempt in 0..3 {
                let a = plan.decide(1, 2, seq, attempt);
                let b = plan.decide(1, 2, seq, attempt);
                assert_eq!(a, b, "seq {seq} attempt {attempt}");
            }
        }
    }

    #[test]
    fn decisions_vary_with_every_coordinate() {
        // Probability ½ per mode: 200 decisions differing in one
        // coordinate collide with probability ≈ 2⁻²⁰⁰ per pair.
        let plan = FaultPlan::uniform(7, 0.5);
        let fingerprint = |src, dst, seed_off: u64| -> Vec<Decision> {
            let p = FaultPlan::uniform(7 + seed_off, 0.5);
            (0..200).map(|seq| p.decide(src, dst, seq, 0)).collect()
        };
        let base = fingerprint(0, 1, 0);
        assert_ne!(base, fingerprint(1, 0, 0), "direction must matter");
        assert_ne!(base, fingerprint(0, 2, 0), "destination must matter");
        assert_ne!(base, fingerprint(0, 1, 1), "seed must matter");
        let per_attempt: Vec<bool> = (0..200).map(|s| plan.decide(0, 1, s, 1).drop).collect();
        let first: Vec<bool> = (0..200).map(|s| plan.decide(0, 1, s, 0).drop).collect();
        assert_ne!(per_attempt, first, "attempt must matter");
    }

    #[test]
    fn probabilities_are_respected_roughly() {
        let plan = FaultPlan::new(3).with_default(LinkFaults::only(FaultKind::Drop, 0.2));
        let drops = (0..10_000).filter(|&s| plan.decide(0, 1, s, 0).drop).count();
        assert!((1500..2500).contains(&drops), "≈20% expected, got {drops}/10000");
        // And a zero-probability mode never fires.
        assert!((0..10_000).all(|s| !plan.decide(0, 1, s, 0).duplicate));
    }

    #[test]
    fn retransmissions_are_never_duplicated_or_reordered() {
        let plan = FaultPlan::uniform(11, 1.0);
        let d = plan.decide(2, 3, 5, 1);
        assert!(!d.duplicate && !d.reorder);
        assert!(d.drop, "drop still applies to retransmits");
    }

    #[test]
    fn link_overrides_and_restriction() {
        let plan = FaultPlan::uniform(1, 0.5)
            .with_link(0, 1, LinkFaults::none())
            .with_restrict(vec![(0, 1), (2, 3)]);
        assert!(plan.faults_for(0, 1).is_none(), "explicit override wins");
        assert_eq!(plan.faults_for(2, 3).drop, 0.5, "restricted link keeps defaults");
        assert!(plan.faults_for(1, 0).is_none(), "unlisted link is healthy");
    }

    #[test]
    fn backoff_grows_and_caps() {
        let plan =
            FaultPlan::new(0).with_nack_backoff(Duration::from_millis(1), Duration::from_millis(8));
        let b1 = plan.backoff(0, 1, 0);
        let b4 = plan.backoff(0, 1, 3);
        let b20 = plan.backoff(0, 1, 20);
        assert!(b1 >= Duration::from_millis(1));
        assert!(b4 > b1, "backoff must grow: {b1:?} vs {b4:?}");
        assert!(b20 <= Duration::from_millis(10), "cap (plus jitter) holds: {b20:?}");
    }

    #[test]
    #[should_panic(expected = "outside 0.0..=1.0")]
    fn out_of_range_probability_rejected() {
        let _ = FaultPlan::new(0).with_default(LinkFaults::uniform(1.5));
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
    fn parse_links_accepts_list_with_spaces() {
        assert_eq!(parse_links("0->1, 4 -> 2"), vec![(0, 1), (4, 2)]);
    }

    #[test]
    #[should_panic(expected = "MPS_CHAOS_LINKS")]
    fn parse_links_rejects_garbage() {
        let _ = parse_links("0->1,zap");
    }
}
