//! Minimal workspace-local implementation of the `rand` 0.9 API
//! surface this repository uses.
//!
//! The build environment has no access to crates.io, so the graph
//! generators run on this vendored subset: [`SmallRng`] is
//! xoshiro256** seeded through SplitMix64 — fast, high-quality, and
//! fully deterministic per seed (the only property the generator tests
//! rely on; the streams do not match upstream `rand`).
//!
//! One extension beyond upstream: [`SmallRng::advance`] jumps a stream
//! forward by any number of draws in O(log k). The graph generators
//! give each edge a fixed-width slice of draws (2·scale for RMAT, 2 for
//! G(n, m)), so edge `i` starts at draw `width · i` and a stream splits
//! into per-core chunks whose concatenation is the sequential stream.

pub mod rngs {
    /// A small, fast PRNG (xoshiro256**).
    #[derive(Debug, Clone)]
    pub struct SmallRng {
        pub(crate) s: [u64; 4],
    }
}

use rngs::SmallRng;

/// A polynomial over GF(2) of degree < 256: bit `i % 64` of word
/// `i / 64` is the coefficient of `x^i`.
type Poly = [u64; 4];

/// Characteristic polynomial `P` of the xoshiro256 state transition
/// `T`, without its leading `x^256`. Cayley–Hamilton gives `P(T) = 0`,
/// so `T^k = (x^k mod P)(T)`. Derived by Berlekamp–Massey from 512
/// output bits; the `charpoly_*` test re-derives it.
const CHARPOLY: Poly =
    [0x9d11_6f2b_b0f0_f001, 0x0280_002b_cefd_1a5e, 0x04b4_edcf_2625_9f85, 0x0003_c03c_3f3e_cb19];

fn bit(p: &Poly, i: usize) -> bool {
    p[i / 64] >> (i % 64) & 1 == 1
}

fn xor(a: &mut Poly, b: &Poly) {
    a.iter_mut().zip(b).for_each(|(a, b)| *a ^= b);
}

/// `a · x mod P`.
fn mul_x(a: Poly) -> Poly {
    let mut r = [a[0] << 1, a[1] << 1 | a[0] >> 63, a[2] << 1 | a[1] >> 63, a[3] << 1 | a[2] >> 63];
    if a[3] >> 63 == 1 {
        xor(&mut r, &CHARPOLY);
    }
    r
}

/// `a · b mod P`, Horner over the bits of `b` from the top.
fn mul_mod(a: &Poly, b: &Poly) -> Poly {
    let mut r = [0; 4];
    for i in (0..256).rev() {
        r = mul_x(r);
        if bit(b, i) {
            xor(&mut r, a);
        }
    }
    r
}

/// `x^k mod P`, square-and-multiply over the bits of `k`.
fn x_pow_mod(k: u64) -> Poly {
    let mut r = [1, 0, 0, 0];
    for b in (0..u64::BITS - k.leading_zeros()).rev() {
        r = mul_mod(&r, &r);
        if k >> b & 1 == 1 {
            r = mul_x(r);
        }
    }
    r
}

impl SmallRng {
    /// The linear state transition (xoshiro256 without its `**`
    /// output scrambler).
    fn step(&mut self) {
        let s = &mut self.s;
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
    }

    /// Jumps the stream forward by `k` draws: afterwards the generator
    /// is where `k` calls to `next_u64` would have left it. Costs
    /// O(log k) products of degree-256 polynomials plus 256 steps:
    /// ≈ 12 µs for `k` ≈ 7.5·10⁷ and ≈ 100 µs for `u64::MAX` on a
    /// 2-vCPU Xeon VM.
    pub fn advance(&mut self, k: u64) {
        let jump = x_pow_mod(k);
        let mut acc = [0u64; 4];
        for i in 0..256 {
            if bit(&jump, i) {
                xor(&mut acc, &self.s);
            }
            self.step();
        }
        self.s = acc;
    }
}

/// Types constructible from a seed.
pub trait SeedableRng: Sized {
    /// Creates an RNG from a `u64` seed (SplitMix64 expansion).
    fn seed_from_u64(seed: u64) -> Self;
}

impl SeedableRng for SmallRng {
    fn seed_from_u64(seed: u64) -> Self {
        // SplitMix64 to fill the state, as the xoshiro authors
        // recommend; avoids the all-zero state for every seed.
        let mut x = seed;
        let mut next = move || {
            x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        SmallRng { s: [next(), next(), next(), next()] }
    }
}

/// The raw generator interface.
pub trait RngCore {
    /// Next 64 random bits.
    fn next_u64(&mut self) -> u64;

    /// Next 32 random bits.
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

impl RngCore for SmallRng {
    fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        self.step();
        result
    }
}

/// Values samplable uniformly from the full domain (`rng.random()`).
pub trait Standard: Sized {
    /// Draws one value.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for f64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 uniform mantissa bits in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

impl Standard for bool {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

macro_rules! impl_standard_int {
    ($($t:ty),*) => {$(
        impl Standard for $t {
            fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Integer types usable with `random_range`.
pub trait UniformInt: Copy + PartialOrd {
    /// Uniform draw from `[lo, hi)`.
    fn sample_range<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self;
}

macro_rules! impl_uniform_int {
    ($($t:ty),*) => {$(
        impl UniformInt for $t {
            fn sample_range<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self {
                assert!(lo < hi, "empty random_range");
                let span = (hi as u128).wrapping_sub(lo as u128) as u64;
                // Lemire-style widening multiply; the tiny modulo bias
                // of the plain multiply is irrelevant for test graphs.
                let hi64 = ((rng.next_u64() as u128 * span as u128) >> 64) as u64;
                lo.wrapping_add(hi64 as $t)
            }
        }
    )*};
}
impl_uniform_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// The user-facing sampling interface (auto-implemented for any core
/// generator).
pub trait Rng: RngCore {
    /// Draws a value of `T` from its standard distribution.
    fn random<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    /// Draws uniformly from `range` (half-open).
    fn random_range<T: UniformInt>(&mut self, range: std::ops::Range<T>) -> T {
        T::sample_range(self, range.start, range.end)
    }

    /// Returns `true` with probability `p`.
    fn random_bool(&mut self, p: f64) -> bool {
        self.random::<f64>() < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = SmallRng::seed_from_u64(7);
        let mut b = SmallRng::seed_from_u64(7);
        let mut c = SmallRng::seed_from_u64(8);
        let va: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        let vc: Vec<u64> = (0..8).map(|_| c.next_u64()).collect();
        assert_eq!(va, vb);
        assert_ne!(va, vc);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = SmallRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let x: f64 = r.random();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn range_respects_bounds_and_covers() {
        let mut r = SmallRng::seed_from_u64(3);
        let mut seen = [false; 10];
        for _ in 0..10_000 {
            let v = r.random_range(0usize..10);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "all buckets hit: {seen:?}");
        for _ in 0..1000 {
            let v = r.random_range(5u64..7);
            assert!((5..7).contains(&v));
        }
    }

    fn stepped(rng: &SmallRng, k: u64) -> SmallRng {
        let mut r = rng.clone();
        for _ in 0..k {
            r.next_u64();
        }
        r
    }

    fn advanced(rng: &SmallRng, k: u64) -> SmallRng {
        let mut r = rng.clone();
        r.advance(k);
        r
    }

    #[test]
    fn advance_equals_stepping() {
        let rng = SmallRng::seed_from_u64(11);
        let mut pick = SmallRng::seed_from_u64(12);
        let random = (0..16).map(|_| pick.random_range(0..1u64 << 16));
        for k in [0, 1, 2, 63, 64, 65, (1 << 20) + 3].into_iter().chain(random) {
            assert_eq!(advanced(&rng, k).s, stepped(&rng, k).s, "k = {k}");
        }
    }

    #[test]
    fn advances_compose() {
        let rng = SmallRng::seed_from_u64(5);
        let mut pick = SmallRng::seed_from_u64(6);
        for _ in 0..16 {
            let (a, b) = (pick.random_range(0..1u64 << 40), pick.random_range(0..1u64 << 40));
            let mut r = advanced(&rng, a);
            r.advance(b);
            assert_eq!(r.s, advanced(&rng, a + b).s, "a = {a}, b = {b}");
        }
    }

    /// Berlekamp–Massey over 512 bits of the low state bit yields the
    /// minimal polynomial of that sequence; `P` is primitive, so it is
    /// `P` itself.
    #[test]
    fn charpoly_is_the_minimal_polynomial_of_the_stream() {
        let mut rng = SmallRng::seed_from_u64(1);
        let seq: Vec<bool> = (0..512)
            .map(|_| {
                let b = rng.s[0] & 1 == 1;
                rng.step();
                b
            })
            .collect();
        let (mut c, mut prev) = (vec![false; 513], vec![false; 513]);
        (c[0], prev[0]) = (true, true);
        let (mut len, mut gap) = (0, 1);
        for i in 0..seq.len() {
            let d = (1..=len).fold(seq[i], |d, j| d ^ (c[j] & seq[i - j]));
            if !d {
                gap += 1;
                continue;
            }
            let before = c.clone();
            for j in 0..=512 - gap {
                c[j + gap] ^= prev[j];
            }
            if 2 * len <= i {
                len = i + 1 - len;
                prev = before;
                gap = 1;
            } else {
                gap += 1;
            }
        }
        assert_eq!(len, 256);
        // P(x) = x^256 · C(1/x).
        let mut p = [0u64; 4];
        for i in (0..256).filter(|&i| c[256 - i]) {
            p[i / 64] |= 1 << (i % 64);
        }
        assert_eq!(p, CHARPOLY);
    }

    /// The xoshiro256 authors' published `jump()` polynomial is
    /// `x^(2^128) mod P`.
    #[test]
    fn charpoly_reproduces_the_published_jump() {
        let mut r = [2, 0, 0, 0];
        for _ in 0..128 {
            r = mul_mod(&r, &r);
        }
        assert_eq!(
            r,
            [
                0x180e_c6d3_3cfd_0aba,
                0xd5a6_1266_f0c9_392c,
                0xa958_2618_e03f_c9aa,
                0x39ab_dc45_29b1_661c
            ]
        );
    }

    #[test]
    fn zero_seed_is_not_degenerate() {
        let mut r = SmallRng::seed_from_u64(0);
        let draws: Vec<u64> = (0..4).map(|_| r.next_u64()).collect();
        assert!(draws.iter().any(|&x| x != 0));
    }
}
