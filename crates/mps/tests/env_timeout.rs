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
    FaultPlan, Universe, UniverseConfig, CHAOS_DROP_ENV, CHAOS_ENV_VARS, CHAOS_LINKS_ENV,
    CHAOS_MAX_RETRIES_ENV, CHAOS_SEED_ENV, RECV_TIMEOUT_ENV,
};

static ENV_LOCK: Mutex<()> = Mutex::new(());

/// Runs `f` with the given `(name, value)` pairs set (and every other
/// variable of the `MPS_*` family unset), restoring the previous state
/// afterwards.
fn with_vars<R>(vars: &[(&str, &str)], f: impl FnOnce() -> R) -> R {
    let _g = ENV_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let all: Vec<&str> =
        CHAOS_ENV_VARS.iter().copied().chain(std::iter::once(RECV_TIMEOUT_ENV)).collect();
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
            (CHAOS_DROP_ENV, "0.25"),
            (CHAOS_MAX_RETRIES_ENV, "9"),
            (CHAOS_LINKS_ENV, "0->1, 2->3"),
        ],
        || {
            let plan = FaultPlan::from_env().expect("set vars activate a plan");
            assert_eq!(plan.seed(), 77);
            assert_eq!(plan.max_retries(), 9);
            assert_eq!(plan.faults_for(0, 1).drop, 0.25);
            assert_eq!(plan.faults_for(2, 3).drop, 0.25);
            assert!(plan.faults_for(1, 0).is_none(), "unlisted link stays healthy");
        },
    );
}

#[test]
fn chaos_env_actually_runs_the_transport() {
    with_vars(&[(CHAOS_SEED_ENV, "3")], || {
        let out = Universe::try_run(2, |c| {
            let peer = 1 - c.rank();
            c.send_val::<u64>(peer, 1, c.rank() as u64);
            c.recv_val::<u64>(peer, 1)?;
            Ok(c.reliability_stats().is_some())
        })
        .expect("env-configured chaos run");
        assert_eq!(out, vec![true, true], "transport must be live");
    });
}

#[test]
fn explicit_plan_overrides_env() {
    with_vars(&[(CHAOS_DROP_ENV, "not-a-probability")], || {
        // An explicit plan short-circuits env parsing entirely.
        let cfg = UniverseConfig { chaos: Some(FaultPlan::new(1)), ..UniverseConfig::default() };
        assert_eq!(cfg.effective_chaos().expect("explicit plan").seed(), 1);
    });
}

#[test]
fn every_chaos_var_rejects_garbage_loudly() {
    let garbage: &[(&str, &str)] = &[
        (CHAOS_SEED_ENV, "lucky"),
        (CHAOS_DROP_ENV, "often"),
        ("MPS_CHAOS_DUPLICATE", "1.5"),
        ("MPS_CHAOS_REORDER", "-0.1"),
        ("MPS_CHAOS_DELAY", "NaN"),
        ("MPS_CHAOS_TRUNCATE", "yes"),
        ("MPS_CHAOS_BITFLIP", "inf"),
        ("MPS_CHAOS_DELAY_MAX_US", "0"),
        (CHAOS_MAX_RETRIES_ENV, "-1"),
        (CHAOS_LINKS_ENV, "0->1,zap"),
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
