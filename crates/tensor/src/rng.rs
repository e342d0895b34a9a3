//! Seedable xoshiro256++ pseudo-random number generator.
//!
//! The distributed simulations in this workspace must be *bit-reproducible*:
//! every parameter tensor is drawn, element by element in row-major order,
//! from a stream that is a pure function of (experiment seed, parameter id)
//! alone, so the serial reference and the 1D/2D partitioned models start
//! from literally identical weights whatever the device count. A device
//! that holds only a block of a tensor draws its own elements from that
//! stream and steps over the others ([`Rng::skip_normals`]). Rather than
//! depending on `rand`'s evolving API for that core guarantee, we carry a
//! ~60-line implementation of xoshiro256++ (public-domain algorithm by
//! Blackman & Vigna) seeded through SplitMix64.

/// xoshiro256++ generator.
#[derive(Clone, Debug)]
pub struct Rng {
    s: [u64; 4],
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

impl Rng {
    /// Creates a generator from a 64-bit seed (expanded via SplitMix64).
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Rng { s }
    }

    /// Derives an independent stream from this seed and a stream id.
    ///
    /// Used to give each parameter its own deterministic stream:
    /// `Rng::new(seed).stream(param_id)`.
    pub fn stream(&self, id: u64) -> Self {
        // Mix the id into the state through SplitMix64 so that nearby ids
        // produce uncorrelated streams.
        let mut sm = self.s[0] ^ id.wrapping_mul(0xD1342543DE82EF95);
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Rng { s }
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
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

    /// Uniform `f32` in `[0, 1)`.
    pub fn uniform(&mut self) -> f32 {
        // 24 high bits -> mantissa-exact uniform in [0,1).
        (self.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }

    /// Standard normal sample via Box–Muller.
    pub fn normal(&mut self) -> f32 {
        // Avoid ln(0) by nudging u1 away from zero.
        let u1 = (self.uniform() as f64).max(1e-12);
        let u2 = self.uniform() as f64;
        ((-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()) as f32
    }

    /// Advances the generator past `n` [`Rng::normal`] draws without
    /// computing them: two raw outputs each, no Box–Muller.
    pub fn skip_normals(&mut self, n: usize) {
        for _ in 0..2 * n {
            self.next_u64();
        }
    }

    /// Uniform integer in `[0, bound)`.
    pub fn below(&mut self, bound: usize) -> usize {
        assert!(bound > 0, "bound must be positive");
        (self.next_u64() % bound as u64) as usize
    }

    /// Fills a slice with standard-normal samples scaled by `std`.
    pub fn fill_normal(&mut self, out: &mut [f32], std: f32) {
        for v in out {
            *v = self.normal() * std;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Rng::new(1);
        let mut b = Rng::new(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn streams_are_independent_and_deterministic() {
        let base = Rng::new(7);
        let mut s1 = base.stream(1);
        let mut s1b = base.stream(1);
        let mut s2 = base.stream(2);
        assert_eq!(s1.next_u64(), s1b.next_u64());
        assert_ne!(s1.next_u64(), s2.next_u64());
    }

    #[test]
    fn uniform_in_unit_interval() {
        let mut r = Rng::new(3);
        for _ in 0..10_000 {
            let u = r.uniform();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn uniform_mean_is_about_half() {
        let mut r = Rng::new(11);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| r.uniform() as f64).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean={mean}");
    }

    #[test]
    fn normal_moments() {
        let mut r = Rng::new(5);
        let n = 100_000;
        let samples: Vec<f64> = (0..n).map(|_| r.normal() as f64).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean={mean}");
        assert!((var - 1.0).abs() < 0.03, "var={var}");
    }

    #[test]
    fn skipping_normals_lands_on_the_next_draw() {
        for n in [0usize, 1, 7] {
            let mut drawn = Rng::new(13).stream(4);
            let want: Vec<u32> = (0..=n).map(|_| drawn.normal().to_bits()).collect();
            let mut skipped = Rng::new(13).stream(4);
            skipped.skip_normals(n);
            assert_eq!(skipped.normal().to_bits(), want[n], "n={n}");
        }
    }

    #[test]
    fn below_stays_in_range() {
        let mut r = Rng::new(9);
        for _ in 0..1000 {
            assert!(r.below(7) < 7);
        }
    }
}
