//! Std-only stand-in for the subset of `rand` 0.8 that `relsql::notify`'s
//! fault-injecting sink uses: `StdRng::seed_from_u64`, `gen::<f64>()` and
//! `gen_range(a..b)`. The stream differs from the published crate's; the
//! benchmark never installs that sink.

use std::ops::Range;

pub trait SeedableRng: Sized {
    fn seed_from_u64(seed: u64) -> Self;
}

pub trait RngCore {
    fn next_u64(&mut self) -> u64;
}

/// A type `Rng::gen` can produce.
pub trait Standard: Sized {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for f64 {
    /// Uniform in `[0, 1)` from the top 53 bits.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
        (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A range `Rng::gen_range` can draw from.
pub trait SampleRange<T> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl SampleRange<usize> for Range<usize> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> usize {
        assert!(self.start < self.end, "cannot sample empty range");
        self.start + (rng.next_u64() % (self.end - self.start) as u64) as usize
    }
}

pub trait Rng: RngCore {
    fn gen<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_from(self)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

pub mod rngs {
    /// SplitMix64.
    #[derive(Debug, Clone)]
    pub struct StdRng(u64);

    impl super::SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            StdRng(seed)
        }
    }

    impl super::RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }
}
