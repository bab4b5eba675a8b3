//! Offline stand-in for the `rand` crate (0.8-era API surface).
//!
//! The build environment has no crates.io access, so this shim provides the
//! subset of `rand` the workspace uses — `Rng::gen`, `gen_range`, `gen_bool`,
//! `SeedableRng::seed_from_u64`, `StdRng`, and `seq::SliceRandom::shuffle` —
//! backed by a deterministic xoshiro256** generator seeded via SplitMix64.
//! Streams are reproducible across runs and platforms, which is all the
//! reproduction needs (seeds select *a* fixed pseudo-random channel, not a
//! bitwise-compatible `rand` stream).

use std::ops::{Range, RangeInclusive};

/// Low-level uniform bit source, mirroring `rand_core::RngCore`.
pub trait RngCore {
    /// Returns the next 64 uniformly distributed bits.
    fn next_u64(&mut self) -> u64;

    /// Returns the next 32 uniformly distributed bits.
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Fills `dest` with random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let bytes = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Deterministic seeding, mirroring `rand::SeedableRng`.
pub trait SeedableRng: Sized {
    /// Seed type (32 bytes for all generators in this shim).
    type Seed: Default + AsMut<[u8]>;

    /// Constructs the generator from a full seed.
    fn from_seed(seed: Self::Seed) -> Self;

    /// Constructs the generator from a `u64`, expanding it with SplitMix64.
    fn seed_from_u64(state: u64) -> Self {
        let mut seed = Self::Seed::default();
        let mut sm = SplitMix64(state);
        for chunk in seed.as_mut().chunks_mut(8) {
            let bytes = sm.next().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
        Self::from_seed(seed)
    }
}

/// High-level sampling helpers, mirroring `rand::Rng`.
pub trait Rng: RngCore {
    /// Samples a value of a type with a canonical uniform distribution.
    fn gen<T: Random>(&mut self) -> T
    where
        Self: Sized,
    {
        T::random(self)
    }

    /// Samples uniformly from a half-open or inclusive range.
    ///
    /// # Panics
    /// Panics if the range is empty.
    fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T
    where
        Self: Sized,
    {
        range.sample_from(self)
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        f64::random(self) < p.clamp(0.0, 1.0)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Types with a canonical uniform distribution for [`Rng::gen`].
pub trait Random {
    /// Draws one value from `rng`.
    fn random<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Random for bool {
    fn random<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Random for u64 {
    fn random<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Random for u32 {
    fn random<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u32()
    }
}

impl Random for f64 {
    /// Uniform in `[0, 1)` with 53 bits of precision.
    fn random<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Random for f32 {
    /// Uniform in `[0, 1)` with 24 bits of precision.
    fn random<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

/// Ranges that [`Rng::gen_range`] can sample from.
pub trait SampleRange<T> {
    /// Draws one value uniformly from the range.
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! float_range {
    ($($t:ty),*) => {
        $(
            impl SampleRange<$t> for Range<$t> {
                fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                    assert!(self.start < self.end, "cannot sample empty range");
                    let unit = <$t as Random>::random(rng);
                    self.start + unit * (self.end - self.start)
                }
            }
            impl SampleRange<$t> for RangeInclusive<$t> {
                fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "cannot sample empty range");
                    let unit = <$t as Random>::random(rng);
                    lo + unit * (hi - lo)
                }
            }
        )*
    };
}

float_range!(f32, f64);

macro_rules! int_range {
    ($($t:ty),*) => {
        $(
            impl SampleRange<$t> for Range<$t> {
                fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                    assert!(self.start < self.end, "cannot sample empty range");
                    let span = (self.end as i128 - self.start as i128) as u64;
                    let offset = uniform_u64_below(rng, span);
                    (self.start as i128 + offset as i128) as $t
                }
            }
            impl SampleRange<$t> for RangeInclusive<$t> {
                fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "cannot sample empty range");
                    // A full-width range holds 2^64 values: every `u64` is
                    // an offset, and there is no bound to reject against.
                    let offset = match ((hi as i128 - lo as i128) as u64).checked_add(1) {
                        Some(span) => uniform_u64_below(rng, span),
                        None => rng.next_u64(),
                    };
                    (lo as i128 + offset as i128) as $t
                }
            }
        )*
    };
}

int_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Uniform integer in `[0, bound)` via Lemire's multiply-shift rejection method
/// (no modulo bias).
fn uniform_u64_below<R: RngCore + ?Sized>(rng: &mut R, bound: u64) -> u64 {
    debug_assert!(bound > 0);
    if bound == 1 {
        return 0;
    }
    let threshold = bound.wrapping_neg() % bound;
    loop {
        let m = u128::from(rng.next_u64()) * u128::from(bound);
        if (m as u64) >= threshold {
            return (m >> 64) as u64;
        }
    }
}

/// SplitMix64 — used to expand `u64` seeds into full generator state.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// xoshiro256** core shared by [`StdRng`] and `rand_chacha`'s re-exported types.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Xoshiro256 {
    s: [u64; 4],
}

impl Xoshiro256 {
    fn from_seed_bytes(seed: [u8; 32]) -> Self {
        let mut s = [0u64; 4];
        for (i, chunk) in seed.chunks(8).enumerate() {
            s[i] = u64::from_le_bytes(chunk.try_into().unwrap());
        }
        // An all-zero state is the one degenerate fixed point; nudge it.
        if s.iter().all(|&w| w == 0) {
            s = [0x9E37_79B9_7F4A_7C15, 1, 2, 3];
        }
        Self { s }
    }
}

impl RngCore for Xoshiro256 {
    fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
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

macro_rules! named_rng {
    ($(#[$meta:meta])* $name:ident, $domain:expr) => {
        $(#[$meta])*
        #[derive(Debug, Clone, PartialEq, Eq)]
        pub struct $name(Xoshiro256);

        impl SeedableRng for $name {
            type Seed = [u8; 32];

            fn from_seed(mut seed: Self::Seed) -> Self {
                // Mix a per-type domain tag into the seed so differently named
                // generators with the same seed produce distinct streams.
                for (b, d) in seed.iter_mut().zip($domain.iter().cycle()) {
                    *b ^= *d;
                }
                Self(Xoshiro256::from_seed_bytes(seed))
            }
        }

        impl RngCore for $name {
            fn next_u64(&mut self) -> u64 {
                self.0.next_u64()
            }
        }
    };
}

named_rng!(
    /// The default deterministic generator (stands in for `rand::rngs::StdRng`).
    StdRng,
    b"stdrng__"
);
named_rng!(
    /// Stand-in for `rand_chacha::ChaCha8Rng` (re-exported by the `rand_chacha` shim).
    ChaCha8Core,
    b"chacha8_"
);
named_rng!(
    /// Stand-in for `rand_chacha::ChaCha20Rng`.
    ChaCha20Core,
    b"chacha20"
);

/// Namespace mirroring `rand::rngs`.
pub mod rngs {
    pub use crate::StdRng;
}

/// Sequence-related helpers, mirroring `rand::seq`.
pub mod seq {
    use crate::{Rng, RngCore};

    /// Slice shuffling, mirroring `rand::seq::SliceRandom`.
    pub trait SliceRandom {
        /// Element type of the slice.
        type Item;

        /// Shuffles the slice in place (Fisher–Yates).
        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R);

        /// Returns a uniformly chosen element, or `None` for an empty slice.
        fn choose<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<&Self::Item>;
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = uniform_index(rng, i + 1);
                self.swap(i, j);
            }
        }

        fn choose<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<&T> {
            if self.is_empty() {
                None
            } else {
                Some(&self[uniform_index(rng, self.len())])
            }
        }
    }

    fn uniform_index<R: RngCore + ?Sized>(rng: &mut R, bound: usize) -> usize {
        crate::uniform_u64_below(rng, bound as u64) as usize
    }
}

/// Common imports, mirroring `rand::prelude`.
pub mod prelude {
    pub use crate::seq::SliceRandom;
    pub use crate::{Random, Rng, RngCore, SeedableRng, StdRng};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_streams() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..16 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = StdRng::seed_from_u64(43);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn float_ranges_stay_in_bounds() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            let x: f64 = rng.gen_range(-1.0..1.0);
            assert!((-1.0..1.0).contains(&x));
            let y: f32 = rng.gen_range(0.5f32..2.0);
            assert!((0.5..2.0).contains(&y));
        }
    }

    #[test]
    fn int_ranges_cover_bounds() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut seen = [false; 5];
        for _ in 0..500 {
            seen[rng.gen_range(0usize..5)] = true;
        }
        assert!(seen.iter().all(|&s| s));
        for _ in 0..100 {
            let v = rng.gen_range(3u8..=5);
            assert!((3..=5).contains(&v));
        }
    }

    #[test]
    fn inclusive_ranges_draw_up_to_the_full_width() {
        let mut rng = StdRng::seed_from_u64(11);
        for (lo, hi) in [(0, u64::MAX), (1, u64::MAX), (u64::MAX, u64::MAX)] {
            for _ in 0..64 {
                assert!((lo..=hi).contains(&rng.gen_range(lo..=hi)), "{lo}..={hi}");
            }
        }
        let _any: i64 = rng.gen_range(i64::MIN..=i64::MAX);
        // The full width is the generator's next word; one value short of it
        // is still the bounded draw it always was.
        let mut bounded = rng.clone();
        assert_eq!(rng.gen_range(0..=u64::MAX), bounded.next_u64());
        for _ in 0..64 {
            assert_eq!(
                rng.gen_range(0..=u64::MAX - 1),
                bounded.gen_range(0..u64::MAX)
            );
        }
    }

    #[test]
    fn gen_bool_extremes() {
        let mut rng = StdRng::seed_from_u64(11);
        assert!((0..50).all(|_| !rng.gen_bool(0.0)));
        assert!((0..50).all(|_| rng.gen_bool(1.0)));
    }

    #[test]
    fn shuffle_is_permutation() {
        use crate::seq::SliceRandom;
        let mut rng = StdRng::seed_from_u64(13);
        let mut v: Vec<usize> = (0..32).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..32).collect::<Vec<_>>());
    }

    #[test]
    fn named_rngs_have_distinct_streams() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = ChaCha8Core::seed_from_u64(1);
        assert_ne!(a.next_u64(), b.next_u64());
    }
}
