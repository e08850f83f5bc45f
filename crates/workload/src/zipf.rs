//! Seeded Zipf(θ) popularity sampling over a finite corpus.
//!
//! Rank `r` (0-based) carries probability mass proportional to
//! `(r + 1)^-θ`. θ = 0 degenerates to the uniform distribution; θ = 1 is
//! the classic Zipf head-heavy skew where the first few ranks dominate.
//! Sampling inverts the precomputed CDF with a binary search on one
//! 53-bit uniform draw, so a sample costs one `next_u64` plus
//! `O(log n)` — and, crucially for the workload determinism contract,
//! consumes *exactly one* RNG word regardless of the outcome.

use lcs_api::{LcsError, LcsResult};
use rand::RngCore;

/// Converts one RNG word into a uniform `f64` in `[0, 1)` using 53
/// mantissa bits — the same construction the vendored `rand` uses for
/// `gen_bool`, kept here so trace generation never depends on float
/// distribution code we do not vendor.
pub(crate) fn unit_f64<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
    (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// A precomputed Zipf(θ) distribution over ranks `0..n`.
#[derive(Debug, Clone, PartialEq)]
pub struct ZipfSampler {
    /// `cum[r]` — cumulative probability of ranks `0..=r`; `cum[n-1] == 1`.
    cum: Vec<f64>,
    theta: f64,
}

impl ZipfSampler {
    /// Precomputes the distribution over `n` ranks with skew `theta`.
    ///
    /// # Errors
    ///
    /// [`LcsError::Config`] if `n == 0` or `theta` is negative or
    /// non-finite — an empty or ill-skewed corpus can never be sampled.
    pub fn new(n: usize, theta: f64) -> LcsResult<ZipfSampler> {
        if n == 0 {
            return Err(LcsError::Config {
                reason: "Zipf sampler needs a nonempty corpus (n = 0)".to_string(),
            });
        }
        if !theta.is_finite() || theta < 0.0 {
            return Err(LcsError::Config {
                reason: format!("Zipf skew must be finite and >= 0, got {theta}"),
            });
        }
        let mut cum = Vec::with_capacity(n);
        let mut total = 0.0;
        for rank in 0..n {
            total += ((rank + 1) as f64).powf(-theta);
            cum.push(total);
        }
        for c in &mut cum {
            *c /= total;
        }
        // Pin the last entry to exactly 1.0 so no uniform draw can fall
        // past the end regardless of rounding.
        *cum.last_mut().expect("n >= 1") = 1.0;
        Ok(ZipfSampler { cum, theta })
    }

    /// Number of ranks in the distribution.
    pub fn len(&self) -> usize {
        self.cum.len()
    }

    /// Always `false`: construction rejects `n == 0`.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The skew parameter this sampler was built with.
    pub fn theta(&self) -> f64 {
        self.theta
    }

    /// The analytic probability mass of `rank` (0-based).
    ///
    /// # Panics
    ///
    /// Panics if `rank >= self.len()`.
    pub fn mass(&self, rank: usize) -> f64 {
        if rank == 0 {
            self.cum[0]
        } else {
            self.cum[rank] - self.cum[rank - 1]
        }
    }

    /// Draws one rank, consuming exactly one `next_u64` from `rng`.
    pub fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> usize {
        let u = unit_f64(rng);
        // First rank whose cumulative mass exceeds the draw. u < 1.0 and
        // cum ends at exactly 1.0, so the partition point is always a
        // valid rank; min() guards the impossible rounding edge anyway.
        self.cum
            .partition_point(|&c| c <= u)
            .min(self.cum.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn rejects_empty_and_bad_theta() {
        assert!(matches!(
            ZipfSampler::new(0, 1.0),
            Err(LcsError::Config { .. })
        ));
        assert!(matches!(
            ZipfSampler::new(5, -0.1),
            Err(LcsError::Config { .. })
        ));
        assert!(matches!(
            ZipfSampler::new(5, f64::NAN),
            Err(LcsError::Config { .. })
        ));
    }

    #[test]
    fn masses_sum_to_one_and_are_rank_ordered() {
        for theta in [0.0, 0.5, 1.0, 2.0] {
            let z = ZipfSampler::new(9, theta).unwrap();
            let total: f64 = (0..z.len()).map(|r| z.mass(r)).sum();
            assert!((total - 1.0).abs() < 1e-12, "theta={theta}: sum={total}");
            for r in 1..z.len() {
                assert!(
                    z.mass(r - 1) >= z.mass(r) - 1e-12,
                    "theta={theta}: mass must be non-increasing in rank"
                );
            }
        }
    }

    #[test]
    fn theta_zero_is_uniform() {
        let z = ZipfSampler::new(7, 0.0).unwrap();
        for r in 0..7 {
            assert!((z.mass(r) - 1.0 / 7.0).abs() < 1e-12);
        }
    }

    #[test]
    fn samples_stay_in_range_and_are_deterministic() {
        let z = ZipfSampler::new(11, 1.0).unwrap();
        let mut a = ChaCha8Rng::seed_from_u64(3);
        let mut b = ChaCha8Rng::seed_from_u64(3);
        for _ in 0..500 {
            let x = z.sample(&mut a);
            assert!(x < 11);
            assert_eq!(x, z.sample(&mut b));
        }
    }

    #[test]
    fn single_rank_always_samples_zero() {
        let z = ZipfSampler::new(1, 1.0).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        for _ in 0..50 {
            assert_eq!(z.sample(&mut rng), 0);
        }
        assert!(!z.is_empty());
        assert_eq!(z.len(), 1);
    }
}
