//! Extended dagger sampling (§3.2.2, Fig 4).
//!
//! A real data center mixes components with different failure probabilities
//! and therefore different dagger cycle lengths. The extension (following
//! Rios et al. [63], as the paper does) runs the *original* dagger sampler
//! independently per component, concatenating each component's cycles, and
//! **resets every component's cycle at the end of the longest dagger
//! cycle** `s_max = max_i ⌊1/p_i⌋`. Cycles cut off by the reset are simply
//! truncated; a failure drawn into a discarded round is dropped. Every
//! surviving round is still covered by exactly one subinterval of mass
//! `p_i`, so the per-round failure fraction remains `p_i` — no bias.
//!
//! Where the cycles fall depends only on the probabilities and the round
//! count, so a [`DaggerSchedule`] computes it once: each event's
//! [`DaggerCycle`], and for each cycle length the flat list of sub-cycle
//! windows (one per draw) that a matrix of that many rounds is cut into.
//! Sampling then walks each event's window list, one draw per window, and
//! sets bits without branching. The assessor keeps one schedule per fault
//! model and reuses it for every chunk.

use crate::dagger::DaggerCycle;
use crate::rng::Rng;
use crate::state::BitMatrix;
use crate::Sampler;

/// Extended dagger failure-state generator.
#[derive(Clone, Debug)]
pub struct ExtendedDaggerSampler {
    rng: Rng,
}

/// The draw plan of extended dagger sampling for one probability vector
/// and one round count, in draw order: events in row order; per event,
/// macro-cycle blocks in order and the event's own cycles within a block in
/// order. Samples are the same whether the plan is built per call or kept.
#[derive(Clone, Debug, Default)]
pub struct DaggerSchedule {
    rounds: usize,
    macro_cycle: usize,
    /// Per event (matrix row): its cycle, `None` for an event that cannot
    /// fail, and its range of `windows`.
    events: Vec<ScheduledEvent>,
    /// The windows of every distinct cycle length, list after list.
    windows: Vec<Window>,
    /// Range of `windows` per cycle length, indexed by the length; `(0, 0)`
    /// until that length's list exists. Kept to reuse its storage.
    by_len: Vec<(u32, u32)>,
}

#[derive(Clone, Copy, Debug)]
struct ScheduledEvent {
    cycle: Option<DaggerCycle>,
    windows: (u32, u32),
}

/// One draw's rounds: the draw's cycle starts at `start` and keeps its
/// first `len` rounds (fewer than the cycle length when the macro-cycle
/// reset or the matrix end truncates it).
#[derive(Clone, Copy, Debug)]
struct Window {
    start: u32,
    len: u32,
}

impl DaggerSchedule {
    /// The schedule for sampling `probs` over `rounds` rounds.
    pub fn new(probs: &[f64], rounds: usize) -> Self {
        let mut schedule = DaggerSchedule::default();
        schedule.rebuild(probs, |_| rounds);
        schedule
    }

    /// Rebuilds in place for a new probability vector, reusing storage.
    /// `width` maps the macro-cycle to the round count to plan for, so a
    /// caller can align its chunk width to the cycles without a second
    /// pass over the probabilities.
    ///
    /// # Panics
    /// Panics if a probability exceeds 1 or the round count does not fit
    /// in a `u32`.
    pub fn rebuild(&mut self, probs: &[f64], width: impl FnOnce(usize) -> usize) {
        self.events.clear();
        self.events.reserve(probs.len());
        let mut macro_cycle = 1;
        for &p in probs {
            debug_assert!((0.0..=1.0).contains(&p), "p={p} out of range");
            let cycle = (p > 0.0).then(|| DaggerCycle::new(p));
            macro_cycle = macro_cycle.max(cycle.map_or(0, |c| c.s as usize));
            self.events.push(ScheduledEvent { cycle, windows: (0, 0) });
        }
        self.macro_cycle = macro_cycle;
        self.rounds = width(macro_cycle);
        let rounds = u32::try_from(self.rounds).expect("round count fits in u32");
        let s_max = macro_cycle as u32;
        self.windows.clear();
        self.by_len.clear();
        self.by_len.resize(macro_cycle + 1, (0, 0));
        for event in &mut self.events {
            let Some(DaggerCycle { s, .. }) = event.cycle else { continue };
            let range = &mut self.by_len[s as usize];
            if range.0 == range.1 && rounds > 0 {
                let first = range_end(&self.windows);
                for block in (0..rounds).step_by(s_max as usize) {
                    let block_len = s_max.min(rounds - block);
                    for sub in (0..block_len).step_by(s as usize) {
                        self.windows
                            .push(Window { start: block + sub, len: s.min(block_len - sub) });
                    }
                }
                *range = (first, range_end(&self.windows));
            }
            event.windows = *range;
        }
    }

    /// Rounds planned for.
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// The longest dagger cycle among events that can fail (1 if none can).
    pub fn macro_cycle(&self) -> usize {
        self.macro_cycle
    }

    /// Number of events (matrix rows) planned for.
    pub fn events(&self) -> usize {
        self.events.len()
    }
}

fn range_end(windows: &[Window]) -> u32 {
    u32::try_from(windows.len()).expect("window count fits in u32")
}

impl ExtendedDaggerSampler {
    /// Creates a sampler with the given seed.
    pub fn seeded(seed: u64) -> Self {
        ExtendedDaggerSampler { rng: Rng::new(seed) }
    }

    /// Creates a sampler from an existing stream (used by parallel workers).
    pub fn from_rng(rng: Rng) -> Self {
        ExtendedDaggerSampler { rng }
    }

    /// The macro-cycle length for a probability vector: the longest dagger
    /// cycle among components that can fail. Returns 1 if nothing can fail.
    pub fn macro_cycle(probs: &[f64]) -> usize {
        probs
            .iter()
            .filter(|&&p| p > 0.0)
            .map(|&p| DaggerCycle::new(p).s as usize)
            .max()
            .unwrap_or(1)
    }

    /// Expected number of uniform draws per component per round — the
    /// efficiency headline of Fig 7. For Monte-Carlo this is 1.0.
    pub fn draws_per_component_round(probs: &[f64]) -> f64 {
        let s_max = Self::macro_cycle(probs) as f64;
        if probs.is_empty() {
            return 0.0;
        }
        let total: f64 = probs
            .iter()
            .map(|&p| {
                if p <= 0.0 {
                    0.0
                } else {
                    let s = DaggerCycle::new(p).s as f64;
                    (s_max / s).ceil() / s_max
                }
            })
            .sum();
        total / probs.len() as f64
    }

    /// Samples the first `rounds` rounds of `matrix` along a prebuilt
    /// schedule, overwriting one row per scheduled event; rows past those
    /// are left as they are. A draw whose window starts at or past
    /// `rounds` only advances the stream, so every draw made is the one a
    /// full-width sample makes, and the stream ends in the same state.
    /// With `rounds = matrix.rounds()` and as many rows as events this is
    /// [`Sampler::sample_into`] with the probabilities the schedule was
    /// built from.
    ///
    /// # Panics
    /// Panics if the matrix has fewer rows than the schedule has events,
    /// another round count, or fewer than `rounds` rounds.
    pub fn sample_scheduled(
        &mut self,
        schedule: &DaggerSchedule,
        matrix: &mut BitMatrix,
        rounds: usize,
    ) {
        assert!(schedule.events() <= matrix.components(), "matrix has fewer rows than events");
        assert_eq!(schedule.rounds(), matrix.rounds(), "schedule and matrix disagree on rounds");
        assert!(rounds <= matrix.rounds(), "{rounds} rounds exceed the matrix");
        // `rounds` fits in u32: the schedule's round count does.
        let limit = rounds as u32;
        for (c, event) in schedule.events.iter().enumerate() {
            let row = matrix.row_words_mut(c);
            row.fill(0);
            let Some(cycle) = event.cycle else { continue };
            let (first, end) = event.windows;
            let windows = &schedule.windows[first as usize..end as usize];
            let drawn = windows.partition_point(|w| w.start < limit);
            draw_windows(&mut self.rng, cycle, &windows[..drawn], row);
            self.rng.skip(windows.len() - drawn);
        }
    }
}

/// One event's draws, one per window, into its row. A draw past its
/// window (the cycle's remainder, or a round the truncation discarded,
/// Fig 4) ORs in a zero bit, so the loop has no branch but its own.
#[inline(always)]
fn draw_windows(stream: &mut Rng, cycle: DaggerCycle, windows: &[Window], row: &mut [u64]) {
    // A local copy keeps the stream in registers; through the reference
    // it would be stored back after every draw.
    let mut rng = stream.clone();
    for w in windows {
        let offset = cycle.draw(&mut rng);
        let hit = offset < w.len;
        let round = w.start + offset.min(w.len - 1);
        row[(round / 64) as usize] |= u64::from(hit) << (round % 64);
    }
    *stream = rng;
}

impl Sampler for ExtendedDaggerSampler {
    fn sample_into(&mut self, probs: &[f64], matrix: &mut BitMatrix) {
        assert_eq!(
            probs.len(),
            matrix.components(),
            "probability vector and matrix disagree on component count"
        );
        let schedule = DaggerSchedule::new(probs, matrix.rounds());
        self.sample_scheduled(&schedule, matrix, matrix.rounds());
    }

    fn name(&self) -> &'static str {
        "dagger"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn macro_cycle_is_longest_cycle() {
        // p = 0.008 -> s = 125; p = 0.01 -> s = 100; p = 0.3 -> s = 3.
        assert_eq!(ExtendedDaggerSampler::macro_cycle(&[0.01, 0.008, 0.3]), 125);
        assert_eq!(ExtendedDaggerSampler::macro_cycle(&[0.5]), 2);
        assert_eq!(ExtendedDaggerSampler::macro_cycle(&[0.0]), 1);
        assert_eq!(ExtendedDaggerSampler::macro_cycle(&[]), 1);
    }

    #[test]
    fn at_most_one_failure_per_own_cycle() {
        // Dagger property: within any aligned own-cycle window the
        // component fails at most once.
        let p = 0.2; // s = 5
        let mut sampler = ExtendedDaggerSampler::seeded(3);
        let mut m = BitMatrix::new(1, 10_000);
        sampler.sample_into(&[p], &mut m);
        let row = m.row(0);
        for w in (0..10_000).step_by(5) {
            let fails: usize = (w..(w + 5).min(10_000)).filter(|&r| row.get(r)).count();
            assert!(fails <= 1, "window at {w} had {fails} failures");
        }
    }

    #[test]
    fn single_component_rate_is_p() {
        let mut sampler = ExtendedDaggerSampler::seeded(4);
        let mut m = BitMatrix::new(1, 500_000);
        sampler.sample_into(&[0.01], &mut m);
        let frac = m.row(0).count_ones() as f64 / 500_000.0;
        assert!((frac - 0.01).abs() < 0.001, "rate {frac}");
    }

    #[test]
    fn mixed_probabilities_stay_unbiased_under_truncation() {
        // Components with s = 100 and s = 125: the s = 100 component gets
        // truncated at every macro boundary; its rate must remain p.
        let probs = [0.01, 0.008];
        let mut sampler = ExtendedDaggerSampler::seeded(5);
        let rounds = 1_000_000;
        let mut m = BitMatrix::new(2, rounds);
        sampler.sample_into(&probs, &mut m);
        for (i, &p) in probs.iter().enumerate() {
            let frac = m.row(i).count_ones() as f64 / rounds as f64;
            assert!((frac - p).abs() < 0.0008, "component {i}: rate {frac} vs p={p}");
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let probs = [0.01, 0.3, 0.07];
        let mut m1 = BitMatrix::new(3, 4_096);
        let mut m2 = BitMatrix::new(3, 4_096);
        ExtendedDaggerSampler::seeded(9).sample_into(&probs, &mut m1);
        ExtendedDaggerSampler::seeded(9).sample_into(&probs, &mut m2);
        assert_eq!(m1, m2);
    }

    #[test]
    fn draw_count_headline_matches_intuition() {
        // All components at p = 0.01: one draw covers 100 rounds.
        let d = ExtendedDaggerSampler::draws_per_component_round(&[0.01; 8]);
        assert!((d - 0.01).abs() < 1e-12, "{d}");
        // Monte-Carlo equivalent would be 1.0; mixed case sits in between.
        let d2 = ExtendedDaggerSampler::draws_per_component_round(&[0.5, 0.01]);
        assert!(d2 > 0.01 && d2 < 1.0, "{d2}");
    }

    #[test]
    fn kept_schedule_matches_per_call_sampling() {
        // Rebuilt in place over a schedule of another shape, for a width
        // that truncates the last macro-cycle block.
        let probs = [0.01, 0.3, 0.0, 0.07, 0.008, 1.0];
        let mut schedule = DaggerSchedule::new(&[0.5, 0.002, 0.1], 9_000);
        schedule.rebuild(&probs, |s_max| s_max * 3 + 17);
        assert_eq!((schedule.macro_cycle(), schedule.rounds(), schedule.events()), (125, 392, 6));
        let mut kept = BitMatrix::new(probs.len(), schedule.rounds());
        let mut per_call = BitMatrix::new(probs.len(), schedule.rounds());
        for seed in 0..4 {
            ExtendedDaggerSampler::seeded(seed).sample_scheduled(&schedule, &mut kept, 392);
            ExtendedDaggerSampler::seeded(seed).sample_into(&probs, &mut per_call);
            assert_eq!(kept, per_call, "seed {seed}");
        }
        assert_eq!(kept.row(2).count_ones(), 0, "p = 0 never fails");
        assert_eq!(kept.row(5).count_ones(), 392, "p = 1 always fails");
    }

    /// Sampling only a prefix of the rounds gives the full sample's bits
    /// in those rounds, draws nothing whose window starts later, and
    /// leaves the stream where the full sample does. Rows past the
    /// schedule's events are left alone.
    #[test]
    fn prefix_matches_full_sample_and_stream() {
        let probs = [0.01, 0.3, 0.0, 0.07, 0.008, 1.0];
        let schedule = DaggerSchedule::new(&probs, 2_816);
        let mut full = BitMatrix::new(probs.len(), 2_816);
        let mut full_rng = ExtendedDaggerSampler::seeded(7);
        full_rng.sample_scheduled(&schedule, &mut full, 2_816);
        for rounds in [0usize, 1, 125, 126, 1_552, 2_815, 2_816] {
            let mut prefix = BitMatrix::new(probs.len() + 1, 2_816);
            prefix.set(probs.len(), 3); // a spare row, kept as it is
            for c in 0..probs.len() {
                prefix.set(c, 2_000); // stale bits, overwritten
            }
            let mut sampler = ExtendedDaggerSampler::seeded(7);
            sampler.sample_scheduled(&schedule, &mut prefix, rounds);
            assert!(prefix.get(probs.len(), 3), "spare row kept");
            for c in 0..probs.len() {
                for r in 0..rounds {
                    assert_eq!(prefix.get(c, r), full.get(c, r), "{rounds}: event {c} round {r}");
                }
                // Bits past the prefix come only from windows starting
                // inside it: at most one cycle (< 125 rounds) further.
                let late = (rounds + 125..2_816).filter(|&r| prefix.get(c, r)).count();
                assert_eq!(late, 0, "{rounds}: event {c} drew past its windows");
            }
            assert_eq!(
                sampler.rng.next_u64(),
                full_rng.rng.clone().next_u64(),
                "{rounds}: the stream ends where the full sample's does"
            );
        }
    }

    #[test]
    fn zero_rounds_is_a_noop() {
        let mut sampler = ExtendedDaggerSampler::seeded(1);
        let mut m = BitMatrix::new(2, 0);
        sampler.sample_into(&[0.5, 0.5], &mut m);
        assert_eq!(m.total_failures(), 0);
    }

    #[test]
    fn high_probability_components_fail_every_cycle() {
        // p = 1.0 -> s = 1, fails in every round.
        let mut sampler = ExtendedDaggerSampler::seeded(2);
        let mut m = BitMatrix::new(1, 1_000);
        sampler.sample_into(&[1.0], &mut m);
        assert_eq!(m.total_failures(), 1_000);
    }
}
