//! Offline stand-in for the `rand` crate.
//!
//! The build environment has no registry access, so the workspace vendors a
//! minimal deterministic PRNG with the exact API surface the repo consumes:
//! `StdRng`, `SeedableRng::seed_from_u64`, `Rng::{gen, gen_range, gen_bool}`
//! and `seq::SliceRandom::{shuffle, choose}`. The generator is xoshiro256++
//! seeded through SplitMix64 — statistically strong enough for the sampling
//! and Zipf quality tests, and fully deterministic for reproducibility.

#![forbid(unsafe_code)]

use std::ops::{Range, RangeInclusive};

/// Seedable generators (subset of `rand::SeedableRng`).
pub trait SeedableRng: Sized {
    fn seed_from_u64(seed: u64) -> Self;
}

/// The user-facing generator trait (subset of `rand::Rng`).
pub trait Rng {
    fn next_u64(&mut self) -> u64;

    /// Uniform f64 in [0, 1) using the top 53 bits.
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    fn gen<T: Standard>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample(self)
    }

    fn gen_range<T, R>(&mut self, range: R) -> T
    where
        Self: Sized,
        R: SampleRange<T>,
    {
        range.sample_from(self)
    }

    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        self.next_f64() < p
    }
}

impl<R: Rng + ?Sized> Rng for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Types samplable uniformly over their whole domain (`rand`'s `Standard`).
pub trait Standard: Sized {
    fn sample<R: Rng>(rng: &mut R) -> Self;
}

impl Standard for f64 {
    fn sample<R: Rng>(rng: &mut R) -> Self {
        rng.next_f64()
    }
}

impl Standard for u64 {
    fn sample<R: Rng>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Standard for u32 {
    fn sample<R: Rng>(rng: &mut R) -> Self {
        (rng.next_u64() >> 32) as u32
    }
}

impl Standard for bool {
    fn sample<R: Rng>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

/// Types with uniform sampling over a half-open or inclusive interval
/// (`rand`'s `SampleUniform`, collapsed to one method).
pub trait SampleUniform: Sized {
    /// Uniform draw from `[lo, hi)` when `inclusive` is false, `[lo, hi]`
    /// when true. Panics on an empty interval.
    fn sample_uniform<R: Rng + ?Sized>(rng: &mut R, lo: Self, hi: Self, inclusive: bool) -> Self;
}

macro_rules! impl_sample_uniform_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_uniform<R: Rng + ?Sized>(rng: &mut R, lo: Self, hi: Self, inclusive: bool) -> Self {
                let span = (hi as i128 - lo as i128) + if inclusive { 1 } else { 0 };
                assert!(span > 0, "cannot sample empty range");
                let v = (rng.next_u64() as u128) % span as u128;
                (lo as i128 + v as i128) as $t
            }
        }
    )*};
}

impl_sample_uniform_int!(i8, i16, i32, i64, u8, u16, u32, u64, usize, isize);

impl SampleUniform for f64 {
    fn sample_uniform<R: Rng + ?Sized>(rng: &mut R, lo: Self, hi: Self, inclusive: bool) -> Self {
        assert!(
            if inclusive { lo <= hi } else { lo < hi },
            "cannot sample empty range"
        );
        lo + rng.next_f64() * (hi - lo)
    }
}

/// Ranges samplable by `gen_range` (`rand`'s `SampleRange`). The single
/// generic impl per range shape lets integer-literal inference flow through
/// `gen_range(0..100)` exactly as with the real crate.
pub trait SampleRange<T> {
    fn sample_from<R: Rng>(self, rng: &mut R) -> T;
}

impl<T: SampleUniform> SampleRange<T> for Range<T> {
    fn sample_from<R: Rng>(self, rng: &mut R) -> T {
        T::sample_uniform(rng, self.start, self.end, false)
    }
}

impl<T: SampleUniform + Copy> SampleRange<T> for RangeInclusive<T> {
    fn sample_from<R: Rng>(self, rng: &mut R) -> T {
        T::sample_uniform(rng, *self.start(), *self.end(), true)
    }
}

pub mod rngs {
    use super::{Rng, SeedableRng};

    /// xoshiro256++ — the workspace's `StdRng`.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut sm = seed;
            StdRng {
                s: [
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                ],
            }
        }
    }

    impl Rng for StdRng {
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }
    }
}

pub mod seq {
    use super::Rng;

    /// Subset of `rand::seq::SliceRandom`.
    pub trait SliceRandom {
        type Item;
        fn shuffle<R: Rng>(&mut self, rng: &mut R);
        fn choose<R: Rng>(&self, rng: &mut R) -> Option<&Self::Item>;
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        /// Fisher–Yates.
        fn shuffle<R: Rng>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = (rng.next_u64() % (i as u64 + 1)) as usize;
                self.swap(i, j);
            }
        }

        fn choose<R: Rng>(&self, rng: &mut R) -> Option<&T> {
            if self.is_empty() {
                None
            } else {
                self.get((rng.next_u64() % self.len() as u64) as usize)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::seq::SliceRandom;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = StdRng::seed_from_u64(43);
        assert_ne!(StdRng::seed_from_u64(42).next_u64(), c.next_u64());
    }

    #[test]
    fn gen_range_bounds_hold() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let v: i64 = rng.gen_range(-50i64..50);
            assert!((-50..50).contains(&v));
            let u: usize = rng.gen_range(1..=3usize);
            assert!((1..=3).contains(&u));
            let f: f64 = rng.gen_range(0.0..=4.0);
            assert!((0.0..=4.0).contains(&f));
        }
    }

    #[test]
    fn uniform_f64_mean_near_half() {
        let mut rng = StdRng::seed_from_u64(7);
        let n = 100_000;
        let sum: f64 = (0..n).map(|_| rng.gen::<f64>()).sum();
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean={mean}");
    }

    #[test]
    fn gen_bool_frequency() {
        let mut rng = StdRng::seed_from_u64(9);
        let hits = (0..100_000).filter(|_| rng.gen_bool(0.3)).count();
        let rate = hits as f64 / 100_000.0;
        assert!((rate - 0.3).abs() < 0.01, "rate={rate}");
    }

    #[test]
    fn shuffle_is_permutation_and_choose_in_slice() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut v: Vec<i32> = (0..100).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert!(v.as_slice().choose(&mut rng).is_some());
        let empty: &[i32] = &[];
        assert!(empty.choose(&mut rng).is_none());
    }
}
