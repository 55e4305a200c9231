//! Exact division of `u32` by a runtime-invariant divisor without a
//! hardware divide.
//!
//! The kernel addresses everything by the paper's *transformed index*
//! `v ÷ √p` (§5.2). The divisor is fixed for the lifetime of a
//! [`crate::intersect::KernelState`] (the grid side `q`, or 1 for
//! SUMMA panels), but it is a runtime value, so the compiler emits a
//! `div` for every `/ q` — once per hash slot, bit index and probe-row
//! lookup, hundreds of millions of times per count. A [`Reciprocal`]
//! pays one divide at construction and answers every later division
//! with an add, one widening multiply and the high half of the product.
//!
//! The scheme is the round-down reciprocal: with `m = ⌊(2⁶⁴ − 1) / d⌋`,
//! `⌊n / d⌋ = ⌊m · (n + 1) / 2⁶⁴⌋` for **every** `n, d` in `u32` with
//! `d ≥ 1`. Write `2⁶⁴ = m'·d + r` with `0 ≤ r < d`. When `d` does not
//! divide `2⁶⁴`, `m = m'` and `m(n+1)/2⁶⁴ = (n+1)/d − r(n+1)/(d·2⁶⁴)`;
//! the error term is positive and below `1/d` because
//! `r(n+1) < 2³²·2³² = 2⁶⁴`, so the value stays inside
//! `[⌊n/d⌋, ⌊n/d⌋ + 1)`. When `d` is a power of two (including 1),
//! `m = 2⁶⁴/d − 1` and the error term `(n+1)/2⁶⁴ ≤ 2⁻³²` is again
//! positive and at most `1/d` (as `d ≤ 2³¹`), with equality impossible
//! at the lower edge — the same bracket. The `+ 1` on the dividend is
//! what lets `d = 1` work, which the more common round-up form
//! (`m = ⌊2⁶⁴/d⌋ + 1`) cannot represent in 64 bits.

/// A precomputed exact reciprocal of a non-zero `u32` divisor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reciprocal {
    magic: u64,
    divisor: u32,
}

impl Reciprocal {
    /// Precomputes the reciprocal of `divisor` — the only hardware
    /// divide this type ever executes.
    ///
    /// # Panics
    ///
    /// Panics if `divisor` is zero.
    pub fn new(divisor: u32) -> Self {
        assert!(divisor != 0, "reciprocal of zero");
        Self { magic: u64::MAX / u64::from(divisor), divisor }
    }

    /// `n / divisor`, exactly, for every `n`.
    #[inline(always)]
    pub fn quotient(self, n: u32) -> u32 {
        ((u128::from(self.magic) * (u128::from(n) + 1)) >> 64) as u32
    }

    /// `(n / divisor, n % divisor)`, exactly, for every `n`.
    #[inline(always)]
    pub fn div_rem(self, n: u32) -> (u32, u32) {
        let quotient = self.quotient(n);
        (quotient, n - quotient * self.divisor)
    }

    /// The divisor this reciprocal stands for.
    pub fn divisor(self) -> u32 {
        self.divisor
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn divisors() -> impl Iterator<Item = u32> {
        (1..=1024).chain([(1 << 31) - 1, 1 << 31, (1 << 31) + 1, u32::MAX])
    }

    #[test]
    fn matches_hardware_divide_on_boundary_dividends() {
        for d in divisors() {
            let r = Reciprocal::new(d);
            assert_eq!(r.divisor(), d);
            let boundary = [
                0,
                1,
                d - 1,
                d,
                d.wrapping_add(1),
                (1 << 31) - 1,
                (1 << 31) + 1,
                u32::MAX - 1,
                u32::MAX,
            ];
            for n in boundary {
                assert_eq!(r.quotient(n), n / d, "{n} / {d}");
                assert_eq!(r.div_rem(n), (n / d, n % d), "{n} divrem {d}");
            }
            // Every multiple boundary in reach: the round-down scheme
            // is tightest exactly at n = k·d − 1 and n = k·d.
            for k in [2u64, 3, 1000, u64::from(u32::MAX / d)] {
                let kd = (k * u64::from(d)).min(u64::from(u32::MAX)) as u32;
                for n in [kd - 1, kd] {
                    assert_eq!(r.quotient(n), n / d, "{n} / {d}");
                }
            }
        }
    }

    #[test]
    fn matches_hardware_divide_on_seeded_random_dividends() {
        // 1 M dividends from a fixed-seed LCG, each checked against a
        // rotating divisor (every divisor sees ~1000 of them).
        let ds: Vec<Reciprocal> = divisors().map(Reciprocal::new).collect();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for i in 0..1_000_000usize {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let n = (x >> 32) as u32;
            let r = ds[i % ds.len()];
            assert_eq!(r.quotient(n), n / r.divisor(), "{n} / {}", r.divisor());
        }
    }

    #[test]
    #[should_panic(expected = "reciprocal of zero")]
    fn zero_divisor_is_rejected() {
        let _ = Reciprocal::new(0);
    }
}
