//! Exact division of `u32` by a runtime-invariant divisor without a
//! hardware divide: [`Reciprocal`] for any dividend, [`ExactDiv`] for
//! dividends known to be multiples (32-bit arithmetic only, so a
//! vector lane can do it).
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

/// Division of *multiples* of a non-zero `u32` divisor: one shift and
/// one 32-bit multiply, which is what lets the vector bit probe
/// ([`crate::bitmap`]) divide eight keys with a single `vpmulld`.
///
/// Every key of a shift's operands shares `k mod q = w` (the cyclic
/// split), so `k − w` is a multiple of `q`. Write `q = 2ˢ·o` with `o`
/// odd; `o` has an inverse modulo 2³², and for a multiple `m = q·t`
/// `(m >> s) · o⁻¹ ≡ o·t·o⁻¹ ≡ t (mod 2³²)` — exactly `t`, because
/// `t < 2³²`. Unlike [`Reciprocal`] this is *only* correct on
/// multiples; a non-multiple yields an unrelated number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExactDiv {
    shift: u32,
    inverse: u32,
}

impl ExactDiv {
    /// Precomputes `s` and `o⁻¹ mod 2³²` for `divisor = 2ˢ·o`.
    ///
    /// # Panics
    ///
    /// Panics if `divisor` is zero.
    pub fn new(divisor: u32) -> Self {
        assert!(divisor != 0, "exact division by zero");
        let shift = divisor.trailing_zeros();
        let odd = divisor >> shift;
        // Newton's iteration on the 2-adic inverse: `o·o ≡ 1 (mod 8)`
        // for every odd `o`, so `o` is its own inverse to 3 bits, and
        // each step doubles the number of correct low bits
        // (3 → 6 → 12 → 24 → 48 ≥ 32).
        let mut inverse = odd;
        for _ in 0..4 {
            inverse = inverse.wrapping_mul(2u32.wrapping_sub(odd.wrapping_mul(inverse)));
        }
        Self { shift, inverse }
    }

    /// `multiple / divisor`, exactly, for every multiple of the divisor.
    #[inline(always)]
    pub fn quotient(self, multiple: u32) -> u32 {
        (multiple >> self.shift).wrapping_mul(self.inverse)
    }

    /// The shift count `s` of `divisor = 2ˢ·o`.
    #[inline(always)]
    pub fn shift(self) -> u32 {
        self.shift
    }

    /// `o⁻¹ mod 2³²` for `divisor = 2ˢ·o`.
    #[inline(always)]
    pub fn inverse(self) -> u32 {
        self.inverse
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
    fn exact_division_inverts_every_multiple_in_reach() {
        for q in 1..=1024u32 {
            let e = ExactDiv::new(q);
            assert_eq!(q, (q >> e.shift()) << e.shift(), "shift of {q}");
            assert_eq!((q >> e.shift()).wrapping_mul(e.inverse()), 1, "inverse of {q}");
            let top = u32::MAX / q;
            // Both ends of the quotient range, the sign-bit boundary of
            // the dividend, and a spread of quotients in between.
            let around_sign_bit = (1u32 << 31) / q;
            let spread = (0..64).map(|i| (u64::from(top) * i / 63) as u32);
            let quotients = [0, 1, 2, top.saturating_sub(1), top]
                .into_iter()
                .chain([around_sign_bit, (around_sign_bit + 1).min(top)])
                .chain(spread);
            for t in quotients {
                assert_eq!(e.quotient(t * q), t, "{} / {q}", t * q);
            }
        }
    }

    #[test]
    #[should_panic(expected = "exact division by zero")]
    fn exact_division_rejects_zero() {
        let _ = ExactDiv::new(0);
    }

    #[test]
    #[should_panic(expected = "reciprocal of zero")]
    fn zero_divisor_is_rejected() {
        let _ = Reciprocal::new(0);
    }
}
