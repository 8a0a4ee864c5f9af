#![warn(missing_docs)]

//! # recloud-routing
//!
//! The "route-and-check" step of reliability assessment (§3.2.1, Fig 2):
//! given the *effective* (fault-tree-collapsed) failure states of one
//! sampling round, decide which application hosts are reachable from the
//! border switches and which host pairs can reach each other.
//!
//! Three routers implement the [`Router`] trait:
//!
//! * [`fattree::FatTreeRouter`] — an analytic emulation of fat-tree
//!   up/down (valley-free) routing: per round it digests the switch tiers
//!   into core-group / border / per-pod aggregation masks, after which
//!   every reachability query is O(1) bit algebra. This is what makes
//!   10⁴-round assessment of a 27K-host data center take milliseconds.
//! * [`updown::UpDownRouter`] — protocol-faithful valley-free BFS driven
//!   by a hierarchy-level function. Same verdicts as the analytic router
//!   (property-tested against it), works on any leveled topology; used as
//!   the reference implementation and for leveled non-fat-tree fabrics.
//! * [`generic::GenericRouter`] — plain BFS over the alive subgraph:
//!   *physical* reachability, an upper bound on what any routing protocol
//!   can deliver. This is the right model for topologies routed by
//!   shortest-path/ECMP over arbitrary graphs (e.g. Jellyfish), and it
//!   honors per-cable link components.
//!
//! Swapping routers is the paper's "to work with another architecture,
//! only change this step's routing protocol" (§3.2.1). Per-round *context
//! setup* is an explicit step ([`Router::begin_round`]) because §4.2.3
//! attributes most of the per-plan cost to it.

pub mod explain;
pub mod fattree;
pub mod generic;
pub mod updown;

pub use explain::{explain_unreachable, Unreachable};
pub use fattree::FatTreeRouter;
pub use generic::GenericRouter;
pub use updown::UpDownRouter;

use recloud_sampling::{BitMatrix, WideWord};
use recloud_topology::{ComponentId, Topology, TopologyKind};

/// Reachability oracle for one sampling round — or, through the wide API,
/// for 256 rounds at a time.
///
/// Scalar protocol: call [`Router::begin_round`] with the collapsed state
/// matrix and a round index, then issue queries *against the same matrix
/// and round*. The matrix is passed by reference on every call so routers
/// can read states lazily without copying a 30K-component column per round.
/// The scalar path is the oracle every batched answer is tested against.
///
/// Wide protocol (the 256-lane kernel): call [`Router::begin_wide`] with a
/// wide-word index `ww`, then issue [`Router::external_reach_wide`] /
/// [`Router::connects_wide`] queries for the same `(states, ww)`. Lane `r`
/// of a result is the verdict for round `256·ww + r`, bit-identical to the
/// scalar query on that round. Lanes beyond the matrix's round count are
/// unspecified — callers mask with [`BitMatrix::wide_mask`]. The defaults
/// screen with [`Router::screen_wide`] and run the scalar query on dirty
/// lanes only, so every router gets the wide API for free; routers with
/// closed-form reachability answer it natively in 256-lane bit algebra.
///
/// Both protocols share router scratch: interleaving them is allowed only
/// by re-issuing the relevant `begin_*` call first.
pub trait Router {
    /// Installs the failure states of one round (the per-round context
    /// setup). `states` must be the *collapsed* matrix: one row per
    /// topology component, correlated failures already folded in.
    fn begin_round(&mut self, states: &BitMatrix, round: usize);

    /// True if `host` is alive and reachable from any border switch that
    /// itself peers with the external world (Fig 2's definition of an
    /// alive instance).
    fn external_reaches(&mut self, states: &BitMatrix, host: ComponentId) -> bool;

    /// True if alive hosts `a` and `b` can reach each other through alive
    /// network components (Fig 6's cross-component connectivity check).
    /// `connects(h, h)` is true iff `h` itself is alive.
    fn connects(&mut self, states: &BitMatrix, a: ComponentId, b: ComponentId) -> bool;

    /// Human-readable router name for reports.
    fn name(&self) -> &'static str;

    /// All-alive-world verdict of [`Router::external_reaches`] — what a
    /// screened-out (clean) round resolves to. The default derives it from
    /// a 1-round all-alive matrix through the scalar path; routers
    /// override to serve it from a topology-static cache. Clobbers scalar
    /// per-round context.
    fn baseline_external(&mut self, states: &BitMatrix, host: ComponentId) -> bool {
        let alive = BitMatrix::new(states.components(), 1);
        self.begin_round(&alive, 0);
        self.external_reaches(&alive, host)
    }

    /// All-alive-world verdict of [`Router::connects`]; same contract as
    /// [`Router::baseline_external`].
    fn baseline_connects(&mut self, states: &BitMatrix, a: ComponentId, b: ComponentId) -> bool {
        let alive = BitMatrix::new(states.components(), 1);
        self.begin_round(&alive, 0);
        self.connects(&alive, a, b)
    }

    /// Installs the context for the 256 rounds of wide word `wide` (the
    /// batched analogue of [`Router::begin_round`]). The default is a
    /// no-op: the screened default queries re-issue
    /// [`Router::begin_round`] per dirty lane.
    fn begin_wide(&mut self, _states: &BitMatrix, _wide: usize) {}

    /// True when the wide queries are answered natively in 256-lane bit
    /// algebra rather than by the screen-then-scalar default.
    fn wide_native(&self) -> bool {
        false
    }

    /// Screen mask for wide word `wide`: lane r **clear** proves that
    /// round `256·wide + r`'s verdicts equal the all-alive baseline, so the
    /// round can skip routing entirely. The default — OR of every
    /// component row, i.e. "anything failed at all" — is correct for every
    /// router because verdicts are a pure function of the round's states.
    fn screen_wide(&mut self, states: &BitMatrix, wide: usize) -> WideWord {
        states.any_failed_wide(wide)
    }

    /// 256-round batched [`Router::external_reaches`]: lane r of the
    /// result is the verdict for round `256·wide + r`. The default runs
    /// [`screen_then_scalar`]: clean lanes take
    /// [`Router::baseline_external`], dirty lanes the scalar query.
    /// Clobbers scalar per-round context.
    fn external_reach_wide(
        &mut self,
        states: &BitMatrix,
        host: ComponentId,
        wide: usize,
    ) -> WideWord {
        let valid = states.wide_mask(wide);
        let baseline = |r: &mut Self| r.baseline_external(states, host);
        screen_then_scalar(self, states, wide, valid, baseline, |r, _| {
            r.external_reaches(states, host)
        })
    }

    /// 256-round batched [`Router::connects`]; same contract and default
    /// strategy as [`Router::external_reach_wide`].
    fn connects_wide(
        &mut self,
        states: &BitMatrix,
        a: ComponentId,
        b: ComponentId,
        wide: usize,
    ) -> WideWord {
        let valid = states.wide_mask(wide);
        let baseline = |r: &mut Self| r.baseline_connects(states, a, b);
        screen_then_scalar(self, states, wide, valid, baseline, |r, _| r.connects(states, a, b))
    }
}

/// Screen-then-scalar evaluation of the `valid` lanes of wide word `wide`:
/// lanes the router's [`Router::screen_wide`] proves clean take the
/// all-alive `baseline` verdict (computed only if some lane is clean);
/// every dirty lane pays one [`Router::begin_round`] plus `verdict(router,
/// round)`. Lanes outside `valid` are zero. This is the fallback behind the
/// default wide queries and the checker's non-native path.
pub fn screen_then_scalar<R: Router + ?Sized>(
    router: &mut R,
    states: &BitMatrix,
    wide: usize,
    valid: WideWord,
    baseline: impl FnOnce(&mut R) -> bool,
    mut verdict: impl FnMut(&mut R, usize) -> bool,
) -> WideWord {
    let dirty = router.screen_wide(states, wide) & valid;
    let mut out = WideWord::ZERO;
    if dirty != valid && baseline(router) {
        out = valid & !dirty;
    }
    for lane in dirty.iter_ones() {
        let round = wide * WideWord::LANES + lane;
        router.begin_round(states, round);
        if verdict(router, round) {
            out.set_lane(lane);
        }
    }
    out
}

/// Picks the best router for a topology: analytic for fat-trees, generic
/// BFS for everything else.
pub fn make_router(topology: &Topology) -> Box<dyn Router + Send> {
    match topology.topology_kind() {
        TopologyKind::FatTree(_) => Box::new(FatTreeRouter::new(topology)),
        _ => Box::new(GenericRouter::new(topology)),
    }
}

#[cfg(test)]
mod agreement_tests {
    use super::*;
    use recloud_sampling::{ExtendedDaggerSampler, Rng, Sampler};
    use recloud_topology::{ComponentKind, FatTreeParams};

    fn random_states(t: &Topology, rounds: usize, p: f64, seed: u64) -> BitMatrix {
        let mut states = BitMatrix::new(t.num_components(), rounds);
        let probs: Vec<f64> = t
            .components()
            .iter()
            .map(|c| if c.kind == ComponentKind::External { 0.0 } else { p })
            .collect();
        ExtendedDaggerSampler::seeded(seed).sample_into(&probs, &mut states);
        states
    }

    /// The analytic router must agree with the valley-free reference BFS
    /// on every query — the key cross-validation of the analytic shortcut.
    #[test]
    fn analytic_agrees_with_updown_reference() {
        let t = FatTreeParams::new(6).build();
        let rounds = 400;
        let states = random_states(&t, rounds, 0.12, 77);
        let mut fast = FatTreeRouter::new(&t);
        let mut reference = UpDownRouter::for_fat_tree(&t);
        let mut rng = Rng::new(5);
        let hosts = t.hosts();
        for round in 0..rounds {
            fast.begin_round(&states, round);
            reference.begin_round(&states, round);
            for _ in 0..10 {
                let h = hosts[rng.next_below(hosts.len())];
                assert_eq!(
                    fast.external_reaches(&states, h),
                    reference.external_reaches(&states, h),
                    "round {round} host {h}"
                );
                let h2 = hosts[rng.next_below(hosts.len())];
                assert_eq!(
                    fast.connects(&states, h, h2),
                    reference.connects(&states, h, h2),
                    "round {round} pair {h}-{h2}"
                );
            }
        }
    }

    /// Physical reachability (generic BFS) upper-bounds valley-free
    /// reachability: whenever the protocol router says reachable, so must
    /// the physical one.
    #[test]
    fn physical_reachability_upper_bounds_protocol() {
        let t = FatTreeParams::new(4).build();
        let rounds = 300;
        let states = random_states(&t, rounds, 0.2, 13);
        let mut fast = FatTreeRouter::new(&t);
        let mut phys = GenericRouter::new(&t);
        for round in 0..rounds {
            fast.begin_round(&states, round);
            phys.begin_round(&states, round);
            for &h in t.hosts() {
                if fast.external_reaches(&states, h) {
                    assert!(phys.external_reaches(&states, h), "round {round} host {h}");
                }
            }
        }
    }

    /// Every router's wide API must agree lane-for-lane with its own scalar
    /// verdicts — native 256-lane algebra (analytic) and the
    /// screen-then-scalar default (reference BFS routers) alike — at
    /// 255/256/257 rounds and across a full wide word plus a ragged tail.
    #[test]
    fn wide_api_agrees_with_scalar_for_every_router() {
        let t = FatTreeParams::new(4).build();
        let hosts = t.hosts();
        let probes: Vec<_> = hosts.iter().step_by(5).copied().collect();
        // Dense and sparse failures, so both dirty lanes (scalar fallback)
        // and clean lanes (all-alive baseline) carry weight.
        for (rounds, p, seed) in
            [(255usize, 0.08, 3u64), (256, 0.005, 5), (257, 0.08, 8), (300, 0.01, 21)]
        {
            let states = random_states(&t, rounds, p, seed);
            let routers: Vec<Box<dyn Router>> = vec![
                Box::new(FatTreeRouter::new(&t)),
                Box::new(UpDownRouter::for_fat_tree(&t)),
                Box::new(GenericRouter::new(&t)),
            ];
            for mut r in routers {
                let name = r.name();
                for ww in 0..states.wide_words_per_row() {
                    let mask = states.wide_mask(ww);
                    r.begin_wide(&states, ww);
                    let reach: Vec<WideWord> = probes
                        .iter()
                        .map(|&h| r.external_reach_wide(&states, h, ww) & mask)
                        .collect();
                    r.begin_wide(&states, ww);
                    let conn: Vec<WideWord> = probes
                        .iter()
                        .map(|&h| r.connects_wide(&states, probes[0], h, ww) & mask)
                        .collect();
                    for lane in 0..states.rounds_in_wide(ww) {
                        let round = ww * WideWord::LANES + lane;
                        r.begin_round(&states, round);
                        for (i, &h) in probes.iter().enumerate() {
                            assert_eq!(
                                reach[i].bit(lane),
                                r.external_reaches(&states, h),
                                "{name}: external rounds={rounds} round {round} host {h}"
                            );
                            assert_eq!(
                                conn[i].bit(lane),
                                r.connects(&states, probes[0], h),
                                "{name}: connects rounds={rounds} round {round} host {h}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn only_analytic_router_is_wide_native() {
        let t = FatTreeParams::new(4).build();
        assert!(FatTreeRouter::new(&t).wide_native());
        assert!(!UpDownRouter::for_fat_tree(&t).wide_native());
        assert!(!GenericRouter::new(&t).wide_native());
    }

    /// The screen mask may only clear a lane when the round is genuinely
    /// all-alive; set lanes are allowed to be conservative.
    #[test]
    fn screen_wide_is_sound() {
        let t = FatTreeParams::new(4).build();
        let rounds = 300;
        let states = random_states(&t, rounds, 0.002, 9);
        let mut r = GenericRouter::new(&t);
        let mut clean = 0;
        for ww in 0..states.wide_words_per_row() {
            let screen = r.screen_wide(&states, ww);
            for lane in 0..states.rounds_in_wide(ww) {
                if !screen.bit(lane) {
                    clean += 1;
                    let round = ww * WideWord::LANES + lane;
                    for c in 0..states.components() {
                        assert!(!states.get(c, round), "clean round {round} has a failure");
                    }
                }
            }
        }
        assert!(clean > 0, "no clean round to check");
    }

    #[test]
    fn make_router_picks_analytic_for_fat_tree() {
        let t = FatTreeParams::new(4).build();
        assert_eq!(make_router(&t).name(), "fat-tree-analytic");
        let ls = recloud_topology::LeafSpineParams::new(2, 2, 2).build();
        assert_eq!(make_router(&ls).name(), "generic-bfs");
    }
}
