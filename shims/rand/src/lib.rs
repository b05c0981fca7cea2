//! Minimal, dependency-free stand-in for the `rand` 0.8 API surface this
//! workspace uses, vendored so the build needs no registry access.
//!
//! Provides `rngs::SmallRng` (xoshiro256++ seeded via splitmix64, the same
//! construction rand's `SmallRng` uses on 64-bit targets), the `Rng` /
//! `SeedableRng` traits, and `gen` / `gen_range` / `gen_bool`.
//!
//! The stream is deterministic for a given seed but is NOT bit-compatible
//! with upstream `rand`; everything in this repo that depends on random
//! values derives its expectations from the same stream, so only internal
//! determinism matters.

pub mod rngs {
    /// Splitmix64: used to expand a 64-bit seed into xoshiro state.
    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    /// A small, fast, non-cryptographic PRNG (xoshiro256++).
    #[derive(Debug, Clone)]
    pub struct SmallRng {
        s: [u64; 4],
    }

    impl SmallRng {
        pub(crate) fn from_u64(seed: u64) -> SmallRng {
            let mut sm = seed;
            let s = [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ];
            SmallRng { s }
        }
    }

    impl crate::RngCore for SmallRng {
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

/// Core source of randomness: a 64-bit generator.
pub trait RngCore {
    fn next_u64(&mut self) -> u64;
}

/// Types samplable uniformly over their whole domain (the `Standard`
/// distribution in upstream rand).
pub trait Standard: Sized {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
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

impl Standard for bool {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Standard for f64 {
    /// Uniform in [0, 1) with 53 bits of precision.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }
}

/// Ranges that can produce a uniform sample (`gen_range` argument).
pub trait SampleRange<T> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! impl_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "gen_range: empty range");
                let span = (self.end as u128).wrapping_sub(self.start as u128) as u64;
                self.start.wrapping_add((rng.next_u64() % span) as $t)
            }
        }
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "gen_range: empty range");
                let span = (hi as u128).wrapping_sub(lo as u128).wrapping_add(1) as u64;
                if span == 0 {
                    // Full-domain 64-bit range.
                    return rng.next_u64() as $t;
                }
                lo.wrapping_add((rng.next_u64() % span) as $t)
            }
        }
    )*};
}
impl_sample_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// User-facing convenience methods, blanket-implemented for every RngCore.
pub trait Rng: RngCore {
    fn gen<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    fn gen_range<T, Rr: SampleRange<T>>(&mut self, range: Rr) -> T {
        range.sample_from(self)
    }

    fn gen_bool(&mut self, p: f64) -> bool {
        debug_assert!((0.0..=1.0).contains(&p));
        f64::sample(self) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Seedable construction (only the `seed_from_u64` entry point is used
/// in this workspace).
pub trait SeedableRng: Sized {
    fn seed_from_u64(state: u64) -> Self;
}

impl SeedableRng for rngs::SmallRng {
    fn seed_from_u64(state: u64) -> Self {
        rngs::SmallRng::from_u64(state)
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::SmallRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_for_seed() {
        let mut a = SmallRng::seed_from_u64(42);
        let mut b = SmallRng::seed_from_u64(42);
        for _ in 0..64 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
        let mut c = SmallRng::seed_from_u64(43);
        assert_ne!(a.gen::<u64>(), c.gen::<u64>());
    }

    #[test]
    fn ranges_and_floats_in_bounds() {
        let mut r = SmallRng::seed_from_u64(7);
        for _ in 0..1000 {
            let v = r.gen_range(10u64..20);
            assert!((10..20).contains(&v));
            let w = r.gen_range(-5i64..=5);
            assert!((-5..=5).contains(&w));
            let f: f64 = r.gen();
            assert!((0.0..1.0).contains(&f));
        }
        // gen_bool extremes.
        assert!(!r.gen_bool(0.0));
        assert!(r.gen_bool(1.0));
    }
}
