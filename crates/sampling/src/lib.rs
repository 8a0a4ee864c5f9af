#![warn(missing_docs)]

//! # recloud-sampling
//!
//! Failure-state sampling and statistics substrate for the reCloud
//! reproduction.
//!
//! The paper assesses a deployment plan by generating failure states for
//! every infrastructure component over many rounds and counting the rounds
//! in which the plan survives (§3.2). This crate owns everything up to (but
//! not including) the route-and-check step:
//!
//! * a deterministic, seedable random generator built from scratch
//!   (SplitMix64 seeding + Xoshiro256++ stream, plus Box–Muller normals) —
//!   [`rng`];
//! * dense failure-state storage as bit matrices — [`state`];
//! * the strawman **Monte-Carlo sampler** used by INDaaS (§3.2.1) —
//!   [`montecarlo`];
//! * the original **dagger sampler** (§3.2.2, Fig 3) — [`dagger`];
//! * the **extended dagger sampler** that resets all dagger cycles at the
//!   end of the longest cycle (Fig 4) — [`extended`];
//! * reliability estimation with the paper's conservative variance and the
//!   95% confidence-interval width, Eqs (1)–(3) — [`estimator`].
//!
//! Every sampler implements the [`Sampler`] trait so that assessment code
//! can swap Monte-Carlo for dagger sampling with one constructor change —
//! which is precisely the reCloud-vs-INDaaS comparison of Figure 7.
//!
//! Being the workspace's foundation crate (std-only, no dependencies), it
//! also hosts the hermetic-build substrates that replaced the former
//! external crates:
//!
//! * [`sync`] — MPMC unbounded channel + scoped worker pool (was
//!   `crossbeam::channel`);
//! * [`wire`] — `Bytes`/`ByteWriter`/`ByteReader` byte buffers (was
//!   `bytes`);
//! * [`proptest`] — a seeded `forall` property-test runner (was the
//!   `proptest` crate).

pub mod dagger;
pub mod estimator;
pub mod extended;
pub mod montecarlo;
pub mod proptest;
pub mod rng;
pub mod state;
pub mod sync;
pub mod wide;
pub mod wire;

pub use dagger::DaggerCycle;
pub use estimator::{ReliabilityEstimate, ResultAccumulator};
pub use extended::{DaggerSchedule, ExtendedDaggerSampler};
pub use montecarlo::MonteCarloSampler;
pub use rng::{derive_seed, normal_probability, Rng};
pub use state::{BitMatrix, BitRow};
pub use wide::WideWord;

/// A failure-state generator: fills a component × round bit matrix where a
/// set bit means "failed in that round".
///
/// Implementations must be deterministic for a given seed and must preserve
/// the defining statistical property: across many rounds, component `i`
/// fails in a fraction `p[i]` of rounds in expectation.
pub trait Sampler {
    /// Generates failure states for all components over `matrix.rounds()`
    /// rounds, overwriting `matrix`. `probs[i]` is component `i`'s failure
    /// probability; the matrix must have exactly `probs.len()` rows.
    fn sample_into(&mut self, probs: &[f64], matrix: &mut BitMatrix);

    /// Human-readable name for reports ("monte-carlo" / "dagger").
    fn name(&self) -> &'static str;
}

#[cfg(test)]
mod trait_tests {
    use super::*;

    /// Shared statistical check: the empirical failure fraction of every
    /// component must approach its probability.
    fn check_unbiased(sampler: &mut dyn Sampler, probs: &[f64], rounds: usize, tol: f64) {
        let mut m = BitMatrix::new(probs.len(), rounds);
        sampler.sample_into(probs, &mut m);
        for (i, &p) in probs.iter().enumerate() {
            let fails = m.row(i).count_ones();
            let frac = fails as f64 / rounds as f64;
            assert!(
                (frac - p).abs() < tol,
                "{}: component {i} p={p} measured {frac} (tol {tol})",
                sampler.name()
            );
        }
    }

    #[test]
    fn both_samplers_are_unbiased() {
        let probs = [0.01, 0.3, 0.008, 0.17, 0.5];
        check_unbiased(&mut MonteCarloSampler::seeded(11), &probs, 200_000, 0.01);
        check_unbiased(&mut ExtendedDaggerSampler::seeded(11), &probs, 200_000, 0.01);
    }
}
