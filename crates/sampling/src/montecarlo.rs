//! Strawman Monte-Carlo sampler (§3.2.1).
//!
//! One uniform draw per component per round: if `r < p` the component is
//! failed in that round. This is the approach the state-of-the-art INDaaS
//! system uses, and the baseline that Figure 7 compares dagger sampling
//! against. With `C` components and `X` rounds it performs `C × X` draws,
//! which is what makes it "unsuitable ... especially in large data
//! centers".

use crate::rng::Rng;
use crate::state::BitMatrix;
use crate::Sampler;

/// Monte-Carlo failure-state generator.
#[derive(Clone, Debug)]
pub struct MonteCarloSampler {
    rng: Rng,
}

impl MonteCarloSampler {
    /// Creates a sampler with the given seed.
    pub fn seeded(seed: u64) -> Self {
        MonteCarloSampler { rng: Rng::new(seed) }
    }

    /// Creates a sampler from an existing stream (used by parallel workers).
    pub fn from_rng(rng: Rng) -> Self {
        MonteCarloSampler { rng }
    }

    /// Samples the first `rounds` rounds of `matrix`, overwriting one row
    /// per probability; rows past those are left as they are. The draws of
    /// later rounds only advance the stream, so every draw made is the one
    /// a full-width sample makes, and the stream ends in the same state.
    ///
    /// # Panics
    /// Panics if the matrix has fewer rows than `probs` or fewer than
    /// `rounds` rounds.
    pub fn sample_prefix(&mut self, probs: &[f64], matrix: &mut BitMatrix, rounds: usize) {
        assert!(probs.len() <= matrix.components(), "matrix has fewer rows than events");
        assert!(rounds <= matrix.rounds(), "{rounds} rounds exceed the matrix");
        let unchecked = matrix.rounds() - rounds;
        for (c, &p) in probs.iter().enumerate() {
            debug_assert!((0.0..=1.0).contains(&p), "p={p} out of range");
            matrix.row_words_mut(c).fill(0);
            if p <= 0.0 {
                continue;
            }
            for round in 0..rounds {
                if self.rng.next_f64() < p {
                    matrix.set(c, round);
                }
            }
            self.rng.skip(unchecked);
        }
    }
}

impl Sampler for MonteCarloSampler {
    fn sample_into(&mut self, probs: &[f64], matrix: &mut BitMatrix) {
        assert_eq!(
            probs.len(),
            matrix.components(),
            "probability vector and matrix disagree on component count"
        );
        self.sample_prefix(probs, matrix, matrix.rounds());
    }

    fn name(&self) -> &'static str {
        "monte-carlo"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_probability_never_fails() {
        let mut s = MonteCarloSampler::seeded(1);
        let mut m = BitMatrix::new(1, 10_000);
        s.sample_into(&[0.0], &mut m);
        assert_eq!(m.total_failures(), 0);
    }

    #[test]
    fn unit_probability_always_fails() {
        let mut s = MonteCarloSampler::seeded(1);
        let mut m = BitMatrix::new(1, 1_000);
        s.sample_into(&[1.0], &mut m);
        assert_eq!(m.total_failures(), 1_000);
    }

    #[test]
    fn empirical_rate_tracks_probability() {
        let mut s = MonteCarloSampler::seeded(99);
        let mut m = BitMatrix::new(2, 100_000);
        s.sample_into(&[0.01, 0.25], &mut m);
        let f0 = m.row(0).count_ones() as f64 / 100_000.0;
        let f1 = m.row(1).count_ones() as f64 / 100_000.0;
        assert!((f0 - 0.01).abs() < 0.002, "f0={f0}");
        assert!((f1 - 0.25).abs() < 0.01, "f1={f1}");
    }

    #[test]
    fn deterministic_per_seed() {
        let mut m1 = BitMatrix::new(3, 512);
        let mut m2 = BitMatrix::new(3, 512);
        MonteCarloSampler::seeded(5).sample_into(&[0.1, 0.5, 0.9], &mut m1);
        MonteCarloSampler::seeded(5).sample_into(&[0.1, 0.5, 0.9], &mut m2);
        assert_eq!(m1, m2);
    }

    #[test]
    fn resampling_overwrites_previous_states() {
        let mut s = MonteCarloSampler::seeded(7);
        let mut m = BitMatrix::new(1, 1_000);
        s.sample_into(&[1.0], &mut m);
        s.sample_into(&[0.0], &mut m);
        assert_eq!(m.total_failures(), 0);
    }

    #[test]
    fn prefix_matches_full_sample_and_stream() {
        let probs = [0.1, 0.0, 0.5];
        let mut full = BitMatrix::new(3, 700);
        let mut full_sampler = MonteCarloSampler::seeded(8);
        full_sampler.sample_into(&probs, &mut full);
        for rounds in [0usize, 1, 256, 699, 700] {
            let mut prefix = BitMatrix::new(3, 700);
            prefix.set(0, 699); // stale, overwritten
            let mut sampler = MonteCarloSampler::seeded(8);
            sampler.sample_prefix(&probs, &mut prefix, rounds);
            for c in 0..3 {
                for r in 0..700 {
                    let want = r < rounds && full.get(c, r);
                    assert_eq!(prefix.get(c, r), want, "{rounds}: row {c} round {r}");
                }
            }
            assert_eq!(sampler.rng.next_u64(), full_sampler.rng.clone().next_u64(), "{rounds}");
        }
    }

    #[test]
    #[should_panic(expected = "component count")]
    fn shape_mismatch_panics() {
        let mut s = MonteCarloSampler::seeded(1);
        let mut m = BitMatrix::new(2, 10);
        s.sample_into(&[0.5], &mut m);
    }
}
