//! Property tests for the log₂ histogram, the Welford accumulator and
//! the exporters: recording is order- and partition-invariant,
//! quantile estimates bound the true quantile within one bucket,
//! Welford statistics agree with the naive two-pass formulas, and the
//! Prometheus exposition is a pure function of the JSON snapshot
//! (round-tripping the snapshot through its parser reproduces the
//! exposition byte-for-byte).

use proptest::prelude::*;
use tc_metrics::{histogram, Log2Histogram, MetricValue, MetricsSnapshot, TimingStats, Welford};

fn recorded(samples: &[u64]) -> Log2Histogram {
    let mut h = Log2Histogram::new();
    for &v in samples {
        h.record(v);
    }
    h
}

proptest! {
    /// A histogram is a multiset summary: any permutation of the
    /// sample stream produces the identical histogram.
    #[test]
    fn record_is_order_invariant(
        samples in proptest::collection::vec(any::<u64>(), 0..200),
        seed in any::<u64>(),
    ) {
        let mut shuffled = samples.clone();
        // Fisher–Yates with a splitmix-style LCG (no rand dep needed).
        let mut state = seed;
        for i in (1..shuffled.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let j = (state >> 33) as usize % (i + 1);
            shuffled.swap(i, j);
        }
        prop_assert_eq!(recorded(&samples), recorded(&shuffled));
    }

    /// Splitting the samples at any point, recording each half into
    /// its own histogram, and merging equals recording everything
    /// into one histogram.
    #[test]
    fn merge_is_partition_invariant(
        samples in proptest::collection::vec(any::<u64>(), 0..200),
        cut_raw in any::<u64>(),
    ) {
        let cut = cut_raw as usize % (samples.len() + 1);
        let mut left = recorded(&samples[..cut]);
        let right = recorded(&samples[cut..]);
        left.merge(&right);
        prop_assert_eq!(left, recorded(&samples));
    }

    /// `quantile_bounds(q)` brackets the true q-quantile of the
    /// recorded multiset, and the bracket is a single log₂ bucket.
    #[test]
    fn quantile_bounds_contain_true_quantile(
        samples in proptest::collection::vec(any::<u64>(), 1..200),
        q_pm in 0u32..1001,
    ) {
        let q = q_pm as f64 / 1000.0;
        let h = recorded(&samples);
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        let idx = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len()) - 1;
        let truth = sorted[idx];
        let (lo, hi) = h.quantile_bounds(q).expect("non-empty histogram");
        prop_assert!(lo <= truth && truth <= hi, "{lo} <= {truth} <= {hi} (q={q})");
        let (blo, bhi) = histogram::bucket_bounds(histogram::bucket_index(truth));
        prop_assert!(lo >= blo && hi <= bhi, "bracket wider than one bucket");
    }

    /// Welford accumulation agrees with the naive two-pass mean and
    /// sample variance on small inputs (timing-magnitude samples, up
    /// to ~17 minutes in nanoseconds).
    #[test]
    fn welford_agrees_with_naive_two_pass(
        samples in proptest::collection::vec(0u64..1_000_000_000_000, 1..100),
    ) {
        let mut w = Welford::new();
        for &s in &samples {
            w.push(s as f64);
        }
        let n = samples.len() as f64;
        let mean = samples.iter().map(|&s| s as f64).sum::<f64>() / n;
        let var = if samples.len() < 2 {
            0.0
        } else {
            samples.iter().map(|&s| (s as f64 - mean).powi(2)).sum::<f64>() / (n - 1.0)
        };
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-6 * a.abs().max(b.abs()).max(1.0);
        prop_assert_eq!(w.count(), samples.len() as u64);
        prop_assert!(close(w.mean(), mean), "mean {} vs {}", w.mean(), mean);
        prop_assert!(close(w.variance(), var), "var {} vs {}", w.variance(), var);
    }

    /// Pooling per-try (single-shot) summaries is exactly the summary
    /// of the sample stream, in any order — median included.
    #[test]
    fn timing_stats_pool_matches_flat_summary(
        samples in proptest::collection::vec(0u64..1_000_000_000_000, 1..60),
    ) {
        let parts: Vec<TimingStats> = samples.iter().map(|&s| TimingStats::from_single(s)).collect();
        let pooled = TimingStats::pool(&parts).unwrap();
        prop_assert_eq!(pooled, TimingStats::from_samples(&samples).unwrap());
        let reversed: Vec<TimingStats> = parts.iter().rev().copied().collect();
        let back = TimingStats::pool(&reversed).unwrap();
        prop_assert_eq!(
            (back.min, back.max, back.median, back.tries),
            (pooled.min, pooled.max, pooled.median, pooled.tries)
        );
    }

    /// Aggregates stay exact no matter what was recorded.
    #[test]
    fn aggregates_are_exact(samples in proptest::collection::vec(any::<u64>(), 0..200)) {
        let h = recorded(&samples);
        prop_assert_eq!(h.count(), samples.len() as u64);
        let mut sum = 0u64;
        for &v in &samples {
            sum = sum.saturating_add(v); // sum saturates, mirroring record()
        }
        prop_assert_eq!(h.sum(), sum);
        prop_assert_eq!(h.min(), samples.iter().copied().min());
        prop_assert_eq!(h.max(), samples.iter().copied().max());
    }
}

#[test]
fn empty_and_single_sample_edge_cases_do_not_panic() {
    let empty = Log2Histogram::new();
    assert_eq!(empty.count(), 0);
    assert_eq!(empty.quantile(0.5), None);
    assert_eq!(empty.quantile_bounds(0.0), None);
    assert_eq!(empty.min(), None);
    assert_eq!(empty.mean(), None);

    for v in [0u64, 1, 2, u64::MAX] {
        let mut h = Log2Histogram::new();
        h.record(v);
        for q in [0.0, 0.5, 1.0] {
            let (lo, hi) = h.quantile_bounds(q).expect("single sample");
            assert!(lo <= v && v <= hi, "{lo} <= {v} <= {hi}");
        }
        assert_eq!(h.min(), Some(v));
        assert_eq!(h.max(), Some(v));
    }
}

/// The Prometheus exposition carries no information beyond the JSON
/// snapshot: parsing the snapshot back and re-rendering reproduces
/// the exposition exactly.
#[test]
fn prometheus_exposition_round_trips_through_json_snapshot() {
    let mut snap = MetricsSnapshot::new();
    let mut h = Log2Histogram::new();
    for v in [1u64, 7, 7, 300, 40_000] {
        h.record(v);
    }
    for rank in 0..3usize {
        snap.insert(rank, "tct.ops".into(), MetricValue::Counter(100 + rank as u64));
        snap.insert(rank, "hash.slots".into(), MetricValue::Gauge(1 << (10 + rank)));
        snap.insert(rank, "shift.bytes".into(), MetricValue::Hist(h.clone()));
    }
    let exposition = tc_metrics::prometheus::to_prometheus(&snap);
    assert!(exposition.contains("tct_ops"), "{exposition}");

    let parsed = MetricsSnapshot::from_json(&snap.to_json()).expect("snapshot parses");
    assert_eq!(parsed, snap);
    assert_eq!(tc_metrics::prometheus::to_prometheus(&parsed), exposition);
}
