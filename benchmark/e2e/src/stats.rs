//! Order statistics for the report: median, quartiles, percentiles.
//!
//! `quartiles` follows Python's `statistics.quantiles(values, n=4)`
//! (the exclusive method), so the spread this harness prints is the
//! number the benchmark driver computes from the same values.

/// Returns the values sorted ascending. Panics on NaN: every sample is
/// a measured duration or count.
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    v
}

/// Median of an ascending slice (mean of the middle pair when even).
pub fn median(sorted: &[f64]) -> f64 {
    assert!(!sorted.is_empty(), "median of no samples");
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// First quartile, median and third quartile of an ascending slice,
/// by Python's exclusive method. One sample is its own quartiles.
pub fn quartiles(sorted: &[f64]) -> (f64, f64, f64) {
    assert!(!sorted.is_empty(), "quartiles of no samples");
    let n = sorted.len();
    if n == 1 {
        return (sorted[0], sorted[0], sorted[0]);
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Nearest-rank percentile (`p` in 0..=1) of an ascending slice: the
/// smallest sample with at least `p` of the samples at or below it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The tail latency the report calls p99, chosen so that at least ten
/// samples lie beyond it: the 99th percentile of 1000 samples or more,
/// the 90th of 100 or more, and the slowest sample of fewer.
pub fn tail(sorted: &[f64]) -> f64 {
    match sorted.len() {
        1000.. => percentile(sorted, 0.99),
        100.. => percentile(sorted, 0.90),
        _ => percentile(sorted, 1.0),
    }
}

/// What the report prints beside every metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub max: f64,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Summary {
        let s = sorted(samples.to_vec());
        let (q1, median, q3) = quartiles(&s);
        Summary { n: s.len(), median, q1, q3, min: s[0], max: s[s.len() - 1] }
    }

    /// A metric that is one number (a rate over the whole run).
    pub fn single(value: f64) -> Summary {
        Summary::of(&[value])
    }

    /// Interquartile distance as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[1.0, 2.0, 9.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 4.0, 9.0]), 3.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[1.0, 2.0, 4.0, 8.0, 16.0]), (1.5, 4.0, 12.0));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), (7.5, 15.0, 22.5));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 0.5), 50.0);
        assert_eq!(percentile(&hundred, 0.99), 99.0);
        assert_eq!(percentile(&hundred, 1.0), 100.0);
        // Fewer than 100 samples: p99 is the slowest one.
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.99), 5.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.0), 1.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let upto = |n: u32| (1..=n).map(f64::from).collect::<Vec<_>>();
        assert_eq!(tail(&upto(7)), 7.0);
        assert_eq!(tail(&upto(99)), 99.0);
        assert_eq!(tail(&upto(100)), 90.0);
        assert_eq!(tail(&upto(270)), 243.0);
        assert_eq!(tail(&upto(1000)), 990.0);
        assert_eq!(tail(&upto(100_000)), 99_000.0);
    }

    #[test]
    fn summary_spread_is_iqr_over_median() {
        let s = Summary::of(&[4.0, 1.0, 2.0, 3.0, 5.0]);
        assert_eq!((s.n, s.min, s.max, s.median), (5, 1.0, 5.0, 3.0));
        assert_eq!((s.q1, s.q3), (1.5, 4.5));
        assert_eq!(s.spread(), 1.0);
        assert_eq!(Summary::single(2.5).spread(), 0.0);
    }
}
