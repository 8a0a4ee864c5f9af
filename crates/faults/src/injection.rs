//! FIFL-style fault injection (§2.1 cites fault injection as one way to
//! obtain software failure behaviour; we also use it for deterministic
//! what-if analyses and tests).
//!
//! An injector post-processes a sampled state matrix: chosen components are
//! forced failed (in all rounds or a round range) or forced alive. Applied
//! *before* fault-tree collapsing, so forcing a power supply down exercises
//! the full correlated-failure path — e.g. "what happens to this deployment
//! plan if power supply 3 browns out?"

use recloud_sampling::{BitMatrix, WideWord};
use recloud_topology::ComponentId;
use std::ops::Range;

#[derive(Clone, Debug, PartialEq, Eq)]
enum Injection {
    FailAll(ComponentId),
    FailRange(ComponentId, Range<usize>),
    ReviveAll(ComponentId),
}

/// A reusable list of forced component states.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultInjector {
    injections: Vec<Injection>,
}

impl FaultInjector {
    /// No injections.
    pub fn new() -> Self {
        Self::default()
    }

    /// Forces a component failed in every round.
    pub fn fail(&mut self, c: ComponentId) -> &mut Self {
        self.injections.push(Injection::FailAll(c));
        self
    }

    /// Forces a component failed in a round range (half-open).
    pub fn fail_rounds(&mut self, c: ComponentId, rounds: Range<usize>) -> &mut Self {
        self.injections.push(Injection::FailRange(c, rounds));
        self
    }

    /// Forces a component alive in every round (masking sampled failures).
    pub fn revive(&mut self, c: ComponentId) -> &mut Self {
        self.injections.push(Injection::ReviveAll(c));
        self
    }

    /// Number of registered injections.
    pub fn len(&self) -> usize {
        self.injections.len()
    }

    /// True if nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.injections.is_empty()
    }

    /// Applies all injections to a raw sampled matrix, in registration
    /// order (later injections win on conflict).
    pub fn apply(&self, matrix: &mut BitMatrix) {
        for inj in &self.injections {
            match inj {
                Injection::FailAll(c) => {
                    for ww in 0..matrix.wide_words_per_row() {
                        matrix.set_wide_word(c.index(), ww, WideWord::ONES);
                    }
                }
                Injection::FailRange(c, range) => {
                    for r in range.clone() {
                        if r < matrix.rounds() {
                            matrix.set(c.index(), r);
                        }
                    }
                }
                Injection::ReviveAll(c) => {
                    for ww in 0..matrix.wide_words_per_row() {
                        matrix.set_wide_word(c.index(), ww, WideWord::ZERO);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fail_all_sets_every_round() {
        let mut m = BitMatrix::new(2, 130);
        let mut inj = FaultInjector::new();
        inj.fail(ComponentId(1));
        inj.apply(&mut m);
        assert_eq!(m.row(1).count_ones(), 130);
        assert_eq!(m.row(0).count_ones(), 0);
    }

    #[test]
    fn fail_range_is_half_open_and_clamped() {
        let mut m = BitMatrix::new(1, 10);
        let mut inj = FaultInjector::new();
        inj.fail_rounds(ComponentId(0), 3..7);
        inj.fail_rounds(ComponentId(0), 9..25);
        inj.apply(&mut m);
        let failed: Vec<usize> = (0..10).filter(|&r| m.get(0, r)).collect();
        assert_eq!(failed, vec![3, 4, 5, 6, 9]);
    }

    #[test]
    fn revive_masks_previous_failures() {
        let mut m = BitMatrix::new(1, 64);
        m.set(0, 5);
        m.set(0, 50);
        let mut inj = FaultInjector::new();
        inj.revive(ComponentId(0));
        inj.apply(&mut m);
        assert_eq!(m.total_failures(), 0);
    }

    #[test]
    fn later_injection_wins() {
        let mut m = BitMatrix::new(1, 16);
        let mut inj = FaultInjector::new();
        inj.fail(ComponentId(0)).revive(ComponentId(0));
        inj.apply(&mut m);
        assert_eq!(m.total_failures(), 0);

        let mut m2 = BitMatrix::new(1, 16);
        let mut inj2 = FaultInjector::new();
        inj2.revive(ComponentId(0)).fail(ComponentId(0));
        inj2.apply(&mut m2);
        assert_eq!(m2.total_failures(), 16);
    }

    #[test]
    fn word_writes_respect_round_boundary() {
        // 70 rounds: the only wide word has 70 valid lanes; fail-all must
        // not corrupt counts past the boundary.
        let mut m = BitMatrix::new(1, 70);
        let mut inj = FaultInjector::new();
        inj.fail(ComponentId(0));
        inj.apply(&mut m);
        assert_eq!(m.total_failures(), 70);
    }
}
