//! Strict parsing of the `MPS_*` environment family
//! (`MPS_RECV_TIMEOUT_MS` and every `MPS_CHAOS_*` knob): valid values
//! configure, garbage panics loudly at universe construction naming
//! the offending variable.
//!
//! These tests mutate the process environment, so they live in their
//! own integration-test binary (cargo runs each test binary in its own
//! process) and are serialized behind one lock — they must never share
//! a process with tests that construct default-configured universes.

use std::sync::Mutex;
use std::time::Duration;

use tc_mps::{
    FaultPlan, Universe, UniverseConfig, CHAOS_CRASH_AT_ENV, CHAOS_CRASH_RANK_ENV, CHAOS_DELAY_ENV,
    CHAOS_DELAY_MAX_US_ENV, CHAOS_ENV_VARS, CHAOS_LINKS_ENV, CHAOS_REMOVED_ENV_VARS,
    CHAOS_SEED_ENV, RECV_TIMEOUT_ENV,
};

static ENV_LOCK: Mutex<()> = Mutex::new(());

/// Runs `f` with the given `(name, value)` pairs set (and every other
/// variable of the `MPS_*` family unset), restoring the previous state
/// afterwards.
fn with_vars<R>(vars: &[(&str, &str)], f: impl FnOnce() -> R) -> R {
    let _g = ENV_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let all: Vec<&str> = CHAOS_ENV_VARS
        .iter()
        .chain(CHAOS_REMOVED_ENV_VARS)
        .copied()
        .chain(std::iter::once(RECV_TIMEOUT_ENV))
        .collect();
    let prev: Vec<(&str, Option<String>)> =
        all.iter().map(|n| (*n, std::env::var(n).ok())).collect();
    // The lock serializes all mutation of these variables within this
    // test binary; no other thread reads the environment here.
    for n in &all {
        std::env::remove_var(n);
    }
    for (n, v) in vars {
        std::env::set_var(n, v);
    }
    let out = f();
    for (n, v) in prev {
        match v {
            Some(v) => std::env::set_var(n, v),
            None => std::env::remove_var(n),
        }
    }
    out
}

fn with_env<R>(value: Option<&str>, f: impl FnOnce() -> R) -> R {
    match value {
        Some(v) => with_vars(&[(RECV_TIMEOUT_ENV, v)], f),
        None => with_vars(&[], f),
    }
}

/// Extracts the panic message of a caught unwind payload.
fn panic_msg(err: Box<dyn std::any::Any + Send>) -> String {
    err.downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default()
}

#[test]
fn valid_env_value_is_used() {
    with_env(Some("1234"), || {
        let cfg = UniverseConfig::default();
        assert_eq!(cfg.effective_recv_timeout(), Duration::from_millis(1234));
    });
}

#[test]
fn env_value_is_trimmed() {
    with_env(Some(" 500 \n"), || {
        let cfg = UniverseConfig::default();
        assert_eq!(cfg.effective_recv_timeout(), Duration::from_millis(500));
    });
}

#[test]
fn missing_env_falls_back_to_default() {
    with_env(None, || {
        let cfg = UniverseConfig::default();
        assert_eq!(cfg.effective_recv_timeout(), Duration::from_secs(60));
    });
}

#[test]
fn explicit_timeout_ignores_env() {
    with_env(Some("not-a-number"), || {
        let cfg = UniverseConfig::with_timeout(Duration::from_millis(250));
        assert_eq!(cfg.effective_recv_timeout(), Duration::from_millis(250));
    });
}

#[test]
fn garbage_env_value_panics_loudly_at_universe_construction() {
    with_env(Some("sixty-seconds"), || {
        let err = std::panic::catch_unwind(|| {
            let _ = Universe::try_run(1, |c| Ok(c.rank()));
        })
        .expect_err("universe construction must panic on unparseable timeout");
        let msg = panic_msg(err);
        assert!(msg.contains(RECV_TIMEOUT_ENV), "panic names the variable: {msg}");
        assert!(msg.contains("sixty-seconds"), "panic echoes the bad value: {msg}");
    });
}

#[test]
fn negative_and_overflow_values_panic() {
    for bad in ["-5", "1e9", "18446744073709551616"] {
        with_env(Some(bad), || {
            let r = std::panic::catch_unwind(|| UniverseConfig::default().effective_recv_timeout());
            assert!(r.is_err(), "{bad:?} must be rejected");
        });
    }
}

#[test]
fn no_chaos_vars_means_no_plan() {
    with_vars(&[], || {
        assert!(FaultPlan::from_env().is_none());
        assert!(UniverseConfig::default().effective_chaos().is_none());
    });
}

#[test]
fn chaos_env_builds_a_plan() {
    with_vars(
        &[
            (CHAOS_SEED_ENV, "77"),
            (CHAOS_DELAY_ENV, "0.25"),
            (CHAOS_DELAY_MAX_US_ENV, "50"),
            (CHAOS_LINKS_ENV, "0->1, 2->3"),
            (CHAOS_CRASH_RANK_ENV, "2"),
            (CHAOS_CRASH_AT_ENV, "5"),
        ],
        || {
            let plan = FaultPlan::from_env().expect("set vars activate a plan");
            let want = FaultPlan::new(77)
                .with_delay(0.25, Duration::from_micros(50))
                .with_restrict(vec![(0, 1), (2, 3)])
                .crash_at(2, 5);
            assert_eq!(plan, want);
            assert_eq!(plan.delay_probability(2, 3), 0.25);
            assert_eq!(plan.delay_probability(1, 0), 0.0, "unlisted link stays healthy");
        },
    );
}

#[test]
fn chaos_env_actually_runs_the_transport() {
    // An env-configured plan reaches the fabric's send path: every send
    // sleeps and is counted on its sender.
    with_vars(
        &[(CHAOS_SEED_ENV, "3"), (CHAOS_DELAY_ENV, "1.0"), (CHAOS_DELAY_MAX_US_ENV, "5")],
        || {
            let session = tc_metrics::MetricsSession::begin();
            let cfg =
                UniverseConfig { metrics: Some(session.handle()), ..UniverseConfig::default() };
            Universe::try_run_config(2, &cfg, |c| {
                let peer = 1 - c.rank();
                c.send_val::<u64>(peer, 1, c.rank() as u64);
                c.recv_val::<u64>(peer, 1)
            })
            .expect("env-configured chaos run");
            let snap = session.finish();
            for rank in 0..2 {
                let delays = snap.counter(rank, tc_metrics::names::MPS_REL_INJECTED_DELAYS);
                assert_eq!(delays, Some(1), "rank {rank}'s one send was delayed");
            }
        },
    );
}

#[test]
fn explicit_plan_overrides_env() {
    with_vars(&[(CHAOS_DELAY_ENV, "not-a-probability")], || {
        // An explicit plan short-circuits env parsing entirely.
        let cfg = UniverseConfig { chaos: Some(FaultPlan::new(1)), ..UniverseConfig::default() };
        assert_eq!(cfg.effective_chaos().expect("explicit plan").seed(), 1);
    });
}

#[test]
fn every_chaos_var_rejects_garbage_loudly() {
    let garbage: &[(&str, &str)] = &[
        (CHAOS_SEED_ENV, "lucky"),
        (CHAOS_DELAY_ENV, "NaN"),
        (CHAOS_DELAY_ENV, "1.5"),
        (CHAOS_DELAY_ENV, "-0.1"),
        (CHAOS_DELAY_ENV, "inf"),
        (CHAOS_DELAY_MAX_US_ENV, "0"),
        (CHAOS_DELAY_MAX_US_ENV, "soon"),
        (CHAOS_LINKS_ENV, "0->1,zap"),
        (CHAOS_CRASH_RANK_ENV, "first"),
        (CHAOS_CRASH_AT_ENV, "-1"),
    ];
    for (name, value) in garbage {
        with_vars(&[(name, value)], || {
            let err = match std::panic::catch_unwind(|| {
                let _ = Universe::try_run(1, |c| Ok(c.rank()));
            }) {
                Ok(_) => panic!("{name}={value:?} must panic at construction"),
                Err(e) => e,
            };
            let msg = panic_msg(err);
            assert!(msg.contains(name), "panic names {name}: {msg}");
        });
    }
}

#[test]
fn every_removed_chaos_var_is_refused_by_name() {
    // The frame-fault knobs of the deleted reliable layer are errors,
    // even with a valid value, never silently ignored.
    for name in CHAOS_REMOVED_ENV_VARS {
        with_vars(&[(name, "0.5")], || {
            let msg = FaultPlan::removed_env_error().expect("a removed variable is set");
            assert!(msg.contains(name), "{msg}");
            let err = std::panic::catch_unwind(|| {
                let _ = Universe::try_run(1, |c| Ok(c.rank()));
            })
            .expect_err("construction must refuse it");
            assert!(panic_msg(err).contains(name));
        });
    }
    with_vars(&[], || assert_eq!(FaultPlan::removed_env_error(), None));
}
