//! Minimal, deterministic, dependency-free stand-in for the `rand` crate.
//!
//! The build environment is fully offline, so the workspace vendors the tiny
//! slice of the `rand` 0.9 API its dataset generators actually use:
//!
//! * [`rngs::StdRng`] — here a xoshiro256++ generator seeded via SplitMix64,
//! * [`SeedableRng::seed_from_u64`],
//! * [`RngExt::random_range`] over integer and `f64` ranges,
//! * [`RngExt::random_bool`].
//!
//! Determinism is part of the contract: the same seed must produce the same
//! value stream on every platform and in every run, because the synthetic
//! datasets (and therefore every number in the experiment harness) are
//! derived from it. The stream is NOT compatible with the real `rand`
//! crate's `StdRng` — only the API shape is.

#![forbid(unsafe_code)]

use std::ops::{Range, RangeInclusive};

pub mod rngs;

pub use rngs::StdRng;

/// The raw 64-bit generator interface.
pub trait RngCore {
    /// Returns the next 64 uniformly distributed bits.
    fn next_u64(&mut self) -> u64;
}

/// Construction from a 64-bit seed.
pub trait SeedableRng: Sized {
    /// Builds a generator whose stream is fully determined by `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Convenience sampling methods, mirroring `rand::Rng`.
pub trait RngExt: RngCore + Sized {
    /// Samples uniformly from `range` (half-open or inclusive; integers or
    /// `f64`). Panics on an empty range.
    fn random_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample_from(self)
    }

    /// Returns `true` with probability `p`. Panics unless `0 ≤ p ≤ 1`.
    fn random_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability {p} outside [0, 1]");
        // 53 significant bits, the full precision of an f64 in [0, 1).
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        unit < p
    }
}

impl<T: RngCore> RngExt for T {}

/// A range that knows how to sample itself uniformly.
pub trait SampleRange<T> {
    /// Draws one uniform sample from the range.
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

/// Types a range can sample uniformly. The blanket [`SampleRange`] impls
/// below hang off this trait so that an integer-literal range like `0..5`
/// unifies with a single impl and normal integer fallback applies.
pub trait SampleUniform: Copy + PartialOrd {
    /// Uniform sample from `[start, end)` or `[start, end]`.
    fn sample_in<R: RngCore + ?Sized>(rng: &mut R, start: Self, end: Self, inclusive: bool)
        -> Self;
}

/// Uniform draw from `[0, span)` by widening to 128 bits — the modulo bias
/// is at most 2⁻⁶⁴ per draw, far below anything the generators can observe.
fn below<R: RngCore + ?Sized>(rng: &mut R, span: u128) -> u128 {
    debug_assert!(span > 0);
    u128::from(rng.next_u64()) % span
}

macro_rules! impl_int_sample_uniform {
    ($($t:ty),* $(,)?) => {$(
        impl SampleUniform for $t {
            fn sample_in<R: RngCore + ?Sized>(
                rng: &mut R,
                start: Self,
                end: Self,
                inclusive: bool,
            ) -> Self {
                let span = (end as i128 - start as i128) as u128 + u128::from(inclusive);
                assert!(span > 0, "cannot sample from empty range");
                (start as i128 + below(rng, span) as i128) as $t
            }
        }
    )*};
}

impl_int_sample_uniform!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl SampleUniform for f64 {
    fn sample_in<R: RngCore + ?Sized>(
        rng: &mut R,
        start: Self,
        end: Self,
        inclusive: bool,
    ) -> Self {
        let bits = rng.next_u64() >> 11; // 53 significant bits
        if inclusive {
            assert!(start <= end, "cannot sample from empty range");
            // unit in [0, 1]: both endpoints attainable, degenerate
            // start..=start is valid and returns start.
            let unit = bits as f64 / ((1u64 << 53) - 1) as f64;
            start + unit * (end - start)
        } else {
            assert!(start < end, "cannot sample from empty range");
            let unit = bits as f64 / (1u64 << 53) as f64; // [0, 1)
            start + unit * (end - start)
        }
    }
}

impl<T: SampleUniform> SampleRange<T> for Range<T> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        assert!(self.start < self.end, "cannot sample from empty range");
        T::sample_in(rng, self.start, self.end, false)
    }
}

impl<T: SampleUniform> SampleRange<T> for RangeInclusive<T> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        assert!(self.start() <= self.end(), "cannot sample from empty range");
        T::sample_in(rng, *self.start(), *self.end(), true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(2);
        let same = (0..16).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..1000 {
            let v = rng.random_range(10..20u32);
            assert!((10..20).contains(&v));
            let w = rng.random_range(3..=5usize);
            assert!((3..=5).contains(&w));
            let x = rng.random_range(-4..4i32);
            assert!((-4..4).contains(&x));
            let f = rng.random_range(0.25..0.75);
            assert!((0.25..0.75).contains(&f));
        }
    }

    #[test]
    fn inclusive_f64_ranges_are_valid() {
        let mut rng = StdRng::seed_from_u64(9);
        // Degenerate inclusive range is valid and returns its only value.
        assert_eq!(rng.random_range(0.5..=0.5), 0.5);
        for _ in 0..1000 {
            let f = rng.random_range(0.25..=0.75);
            assert!((0.25..=0.75).contains(&f));
        }
    }

    #[test]
    fn range_covers_every_value() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut seen = [false; 5];
        for _ in 0..200 {
            seen[rng.random_range(0..5usize)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn bool_probability_is_roughly_respected() {
        let mut rng = StdRng::seed_from_u64(11);
        let heads = (0..10_000).filter(|_| rng.random_bool(0.3)).count();
        assert!((2_600..3_400).contains(&heads), "got {heads}");
        assert!(!rng.random_bool(0.0));
        assert!(rng.random_bool(1.0));
    }
}
