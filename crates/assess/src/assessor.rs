//! The single-threaded assessment engine.
//!
//! [`Assessor`] wires the full §3.2 pipeline together and reports, besides
//! the reliability estimate, a per-stage timing breakdown — the quantities
//! behind Figures 7 (sampling time), 10 and 11 (evolve+assess time per
//! plan).
//!
//! Rounds are processed in chunks aligned to the extended-dagger
//! macro-cycle so each chunk's table stays small regardless of the total
//! round count; the same chunk layout is used by the parallel engine so
//! serial and parallel assessments are bit-identical.

use crate::check::StructureChecker;
use crate::driver::{AssessmentDriver, PartialEstimate};
use crate::fill::{fill_in_order, FillJob, Filled, LaneGrant, Slot, PARALLEL_MIN_TABLE_BITS};
use recloud_apps::{ApplicationSpec, DeploymentPlan};
use recloud_faults::{FaultInjector, FaultModel, ProbabilityConfig};
use recloud_obs::{Counter, Gauge, Histogram};
use recloud_routing::{make_router, Router};
use recloud_sampling::{
    BitMatrix, DaggerSchedule, ReliabilityEstimate, ResultAccumulator, WideWord,
};
use recloud_topology::Topology;
use std::ops::ControlFlow;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which failure-state generator to use.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SamplerKind {
    /// Extended dagger sampling (§3.2.2) — reCloud's engine.
    ExtendedDagger,
    /// Monte-Carlo sampling (§3.2.1) — the INDaaS baseline.
    MonteCarlo,
}

impl SamplerKind {
    /// Sampler name as reported in assessments.
    pub fn name(self) -> &'static str {
        match self {
            SamplerKind::ExtendedDagger => "dagger",
            SamplerKind::MonteCarlo => "monte-carlo",
        }
    }
}

/// Per-stage time breakdown of one assessment.
///
/// Stage durations are CPU time summed over every chunk, whichever thread
/// ran it: a cold drive fills chunk tables on several lanes at once, and
/// [`crate::ParallelAssessor`] runs chunks on its workers, so the stages
/// may add up to more than `total`, which is the caller's wall clock.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Timings {
    /// Failure-state generation (the Fig 7 quantity).
    pub sampling: Duration,
    /// Fault-tree collapsing (§3.2.3 reasoning + filtering).
    pub collapse: Duration,
    /// Route-and-check over all rounds, including per-round context setup.
    pub check: Duration,
    /// End-to-end wall clock, including scratch management.
    pub total: Duration,
}

impl Timings {
    /// Accumulates another breakdown (used when merging chunks).
    pub fn merge(&mut self, other: &Timings) {
        self.sampling += other.sampling;
        self.collapse += other.collapse;
        self.check += other.check;
        self.total += other.total;
    }
}

/// The result of assessing one deployment plan.
#[derive(Clone, Copy, Debug)]
pub struct Assessment {
    /// Reliability score with conservative variance (Eqs 1–2); call
    /// [`ReliabilityEstimate::ciw95`] for the Eq 3 error bound.
    pub estimate: ReliabilityEstimate,
    /// Per-stage timings.
    pub timings: Timings,
    /// Which sampler produced the states.
    pub sampler: &'static str,
}

/// Result of [`Assessor::drive`]: the assessment over however many
/// rounds actually ran, plus whether the full layout was executed.
#[derive(Clone, Copy, Debug)]
pub struct DrivenAssessment {
    /// The assessment over the rounds executed (all of them when
    /// `completed`, a prefix when the drive stopped early).
    pub assessment: Assessment,
    /// True when every chunk in the layout ran; false after an early
    /// stop (target CIW reached or the partial callback broke).
    pub completed: bool,
}

/// Reusable assessment engine for one (topology, fault model) pair.
///
/// Construction builds the router and the draw schedule. The first drive
/// creates one table slot per chunk; each fresh chunk is sampled,
/// injected and collapsed in its slot, on whichever lane fills it. Every
/// later drive — on a new seed, a reseeded model or a cached table —
/// reuses the slots, so a warm engine assesses N plans without
/// allocating anything table-sized: only the per-plan
/// [`StructureChecker`] and the drive's small chunk bookkeeping.
pub struct Assessor {
    topology: Topology,
    model: FaultModel,
    kind: SamplerKind,
    router: Box<dyn Router + Send>,
    /// The model's extended-dagger draw plan for one chunk, rebuilt in
    /// place by `reseed`. Its round count is the chunk width: aligned to
    /// the dagger macro-cycle, then rounded up to the kernel lane width
    /// (256), and identical for serial and parallel execution.
    schedule: DaggerSchedule,
    /// Collapsed tables, one slot per chunk: fresh chunks are sampled and
    /// collapsed in them and route-and-check reads them in place.
    tables: TableCache,
    /// Optional fault injection applied to every sampled chunk before
    /// fault-tree collapsing — forced failures flow through the full
    /// correlated-failure path (what-if analyses, sensitivity reports).
    injector: Option<FaultInjector>,
    /// Route-and-check path: the 256-lane wide kernel (default) or the
    /// scalar one. Both are bit-identical; the scalar path is the test
    /// oracle and the benchmark reference.
    batched: bool,
    /// Cached global-registry instrument handles (stage histograms,
    /// rounds counter, cache_bytes gauge).
    obs: AssessInstruments,
}

/// The collapsed failure-state tables, one slot per chunk index. Slot `i`
/// holds chunk `i`'s table of `master_seed` for the rounds it records,
/// which lets common-random-number searches (which assess every plan on
/// the same table, §3.3) skip sampling and collapsing after the first
/// plan; the failure-state table does not depend on the plan (§3.2.1),
/// so this is a pure cache. A tail chunk is filled only for the rounds
/// its drive checks, so a later drive that needs more of it refills it.
/// Slots holding no rounds are storage the next fresh chunks fill,
/// reshaped in place when the chunk width changed.
#[derive(Default)]
struct TableCache {
    master_seed: u64,
    slots: Vec<Slot>,
}

impl TableCache {
    /// How many leading chunks of `layout` hold their rounds of `seed`.
    fn held(&self, seed: u64, layout: &[(u32, usize)]) -> usize {
        if seed != self.master_seed {
            return 0;
        }
        layout.iter().zip(&self.slots).take_while(|(&(_, n), slot)| slot.rounds >= n).count()
    }

    /// Drops every cached table.
    fn invalidate(&mut self) {
        for slot in &mut self.slots {
            slot.rounds = 0;
        }
    }

    /// Bytes of the cached tables.
    fn bytes(&self) -> usize {
        self.slots.iter().filter(|s| s.rounds > 0).map(|s| s.table.bytes()).sum()
    }

    /// The first `chunks` slots, creating missing ones shaped
    /// `rows × rounds`; fills reshape older ones in place.
    fn slots(&mut self, chunks: usize, rows: usize, rounds: usize) -> &mut [Slot] {
        while self.slots.len() < chunks {
            self.slots.push(Slot { table: BitMatrix::new(rows, rounds), rounds: 0 });
        }
        &mut self.slots[..chunks]
    }
}

/// Cached handles into the process-wide [`recloud_obs::global()`]
/// registry. Registration happens once per engine (here); the record
/// calls are lock- and allocation-free. Per-*chunk* recording (stage
/// histograms, rounds counter) lives in the [`AssessmentDriver`] — one
/// state machine feeds every path — leaving only the per-assessment
/// instruments here. Rounds-per-second is derived by readers as
/// `assess.rounds_total / (assess.total_us.sum / 1e6)`.
struct AssessInstruments {
    /// Per-assessment end-to-end time (µs).
    total_us: Arc<Histogram>,
    /// Completed assessments.
    assessments_total: Arc<Counter>,
    /// Current collapsed-table cache footprint of the newest engine.
    cache_bytes: Arc<Gauge>,
    /// Current chunk storage (every table slot, cached or awaiting reuse)
    /// of the newest engine.
    arena_bytes: Arc<Gauge>,
    /// Helper lanes granted to cold drives: whether misses ran wide.
    fill_helpers_total: Arc<Counter>,
}

impl AssessInstruments {
    fn from_global() -> Self {
        let registry = recloud_obs::global();
        AssessInstruments {
            total_us: registry.histogram("assess.total_us"),
            assessments_total: registry.counter("assess.assessments_total"),
            cache_bytes: registry.gauge("assess.cache_bytes"),
            arena_bytes: registry.gauge("assess.arena_bytes"),
            fill_helpers_total: registry.counter("assess.fill_helpers_total"),
        }
    }
}

impl Assessor {
    /// Target chunk size in rounds before alignment. Chosen so a
    /// Large-scale chunk table stays around ~10 MB while chunks remain
    /// numerous enough for 4-way parallel speedup at 10⁴ rounds. The
    /// actual chunk width rounds this up to a dagger macro-cycle multiple
    /// and then to the kernel lane width (256), so full chunks decompose
    /// into whole wide words; extended-dagger truncation at chunk
    /// boundaries is bias-free, so the extra lane-alignment rounds are
    /// statistically harmless.
    const TARGET_CHUNK: usize = 2_500;

    /// The chunk width for a macro-cycle: macro-cycle aligned, then
    /// lane-width aligned.
    pub(crate) fn chunk_width(s_max: usize) -> usize {
        (Self::TARGET_CHUNK.div_ceil(s_max) * s_max).next_multiple_of(WideWord::LANES)
    }

    /// Creates a dagger-based assessor (reCloud's default).
    pub fn new(topology: &Topology, model: FaultModel) -> Self {
        Self::with_sampler(topology, model, SamplerKind::ExtendedDagger)
    }

    /// Creates an assessor with an explicit sampler choice.
    pub fn with_sampler(topology: &Topology, model: FaultModel, kind: SamplerKind) -> Self {
        let mut schedule = DaggerSchedule::default();
        schedule.rebuild(model.probs(), Self::chunk_width);
        Assessor {
            topology: topology.clone(),
            model,
            kind,
            router: make_router(topology),
            schedule,
            tables: TableCache::default(),
            injector: None,
            batched: true,
            obs: AssessInstruments::from_global(),
        }
    }

    /// Installs (or clears) a fault injector applied to every sampled
    /// chunk. Invalidates the table cache.
    pub fn set_injector(&mut self, injector: Option<FaultInjector>) {
        self.injector = injector;
        self.tables.invalidate();
    }

    /// Replaces the fault model, keeping the topology, router and chunk
    /// storage (reshaped in place by the next chunks if the chunk width or
    /// event count changed).
    ///
    /// This is what lets a long-running server reuse one engine across
    /// requests with different model seeds: router construction (the
    /// expensive part at large scales) happens once per (topology, worker),
    /// while each reseed only swaps probability tables. Assessments after a
    /// reseed are bit-identical to a freshly constructed engine with the
    /// same model; the table cache is invalidated because cached tables
    /// were sampled under the previous model.
    ///
    /// # Panics
    /// Panics if `model` was built for a different topology (component
    /// count mismatch).
    pub fn reseed(&mut self, model: FaultModel) {
        assert_eq!(
            model.num_topology_components(),
            self.topology.num_components(),
            "model was built for a different topology"
        );
        self.model = model;
        self.probabilities_changed();
    }

    /// Redraws the model's probabilities from `config` under `seed` in
    /// place ([`FaultModel::reassign`]), keeping its dependency trees and
    /// their compiled program, which depend on the topology alone. For a
    /// `paper_default` engine, `reassign(&ProbabilityConfig::PaperDefault,
    /// s)` equals `reseed(FaultModel::paper_default(topology, s))` bit for
    /// bit without rebuilding a tree per component.
    pub fn reassign(&mut self, config: &ProbabilityConfig, seed: u64) {
        self.model.reassign(&self.topology, config, seed);
        self.probabilities_changed();
    }

    /// Replans the draws for the model's probabilities and drops the
    /// table cache, sampled under the previous ones.
    fn probabilities_changed(&mut self) {
        self.schedule.rebuild(self.model.probs(), Self::chunk_width);
        self.tables.invalidate();
    }

    /// Selects the batched (wide, 256-rounds-per-operation) or scalar
    /// route-and-check path. Both produce bit-identical assessments; the
    /// scalar path exists for equivalence tests and benchmarking.
    pub fn set_batched(&mut self, batched: bool) {
        self.batched = batched;
    }

    /// True when the batched (256-lane) route-and-check path is active.
    pub fn batched(&self) -> bool {
        self.batched
    }

    /// Bytes of all reusable chunk storage: every table slot, cached or
    /// awaiting reuse. Fresh chunks are sampled into their slots, so no
    /// other chunk-sized matrix exists. Exported as the
    /// `assess.arena_bytes` gauge.
    pub fn arena_bytes(&self) -> usize {
        self.tables.slots.iter().map(|s| s.table.bytes()).sum()
    }

    /// Bytes held by the valid cached collapsed failure-state tables of the
    /// current master seed (one per chunk assessed). Searches assess
    /// thousands of plans against one cached table; this keeps that
    /// footprint observable so it cannot silently balloon.
    pub fn cache_bytes(&self) -> usize {
        self.tables.bytes()
    }

    /// Routes and checks the first `rounds` columns of `table`, feeding
    /// verdicts into `acc` — the shared inner loop of the fresh and
    /// cached-table paths, in both scalar and batched flavors.
    fn route_and_check(
        router: &mut dyn Router,
        batched: bool,
        checker: &mut StructureChecker,
        table: &BitMatrix,
        rounds: usize,
        acc: &mut ResultAccumulator,
    ) {
        if batched {
            for ww in 0..rounds.div_ceil(WideWord::LANES) {
                let n = (rounds - ww * WideWord::LANES).min(WideWord::LANES);
                router.begin_wide(table, ww);
                let mask = checker.wide_reliable(router, table, ww, n);
                acc.push_wide(mask, n as u32);
            }
        } else {
            for round in 0..rounds {
                router.begin_round(table, round);
                let ok = checker.round_reliable(router, table, round);
                acc.push(ok);
            }
        }
    }

    /// The chunk layout for a round count: (chunk index, rounds in chunk).
    /// Shared with the parallel engine so results are execution-identical.
    pub fn chunk_layout(&self, rounds: usize) -> Vec<(u32, usize)> {
        Self::layout(self.schedule.rounds(), rounds)
    }

    /// `rounds` cut into chunks of `chunk_rounds` (the last one shorter).
    pub(crate) fn layout(chunk_rounds: usize, rounds: usize) -> Vec<(u32, usize)> {
        let mut out = Vec::new();
        let mut remaining = rounds;
        let mut idx = 0u32;
        while remaining > 0 {
            let n = remaining.min(chunk_rounds);
            out.push((idx, n));
            remaining -= n;
            idx += 1;
        }
        out
    }

    /// Derives the per-chunk sampler seed from the master seed; chunk
    /// streams are independent, so any chunk-to-worker mapping yields the
    /// same result list. Delegates to the system-wide
    /// [`recloud_sampling::derive_seed`] rule (chunk index as the stream).
    pub fn chunk_seed(master_seed: u64, chunk: u32) -> u64 {
        recloud_sampling::derive_seed(master_seed, chunk as u64)
    }

    /// The fault model in use.
    pub fn model(&self) -> &FaultModel {
        &self.model
    }

    /// The topology in use.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Name of the configured sampler.
    pub fn sampler_name(&self) -> &'static str {
        self.kind.name()
    }

    /// Runs one chunk of rounds, feeding verdicts into `acc`. Exposed for
    /// the parallel engine's workers. The chunk is filled in the first
    /// table slot, so no cached table survives it.
    pub fn run_chunk(
        &mut self,
        checker: &mut StructureChecker,
        chunk_seed: u64,
        rounds: usize,
        acc: &mut ResultAccumulator,
    ) -> Timings {
        let width = self.schedule.rounds();
        assert!(rounds <= width, "chunk exceeds the chunk width");
        self.tables.invalidate();
        let job = FillJob {
            kind: self.kind,
            schedule: &self.schedule,
            model: &self.model,
            injector: self.injector.as_ref(),
        };
        let table = &mut self.tables.slots(1, self.model.table_rows(), width)[0].table;
        let filled = job.fill(chunk_seed, table, rounds);
        let t_check = Instant::now();
        Self::route_and_check(self.router.as_mut(), self.batched, checker, table, rounds, acc);
        // Per-chunk observability is recorded by the AssessmentDriver when
        // this chunk's result is fed back — one recording site for the
        // serial, cached-table, and parallel paths alike.
        Timings {
            sampling: filled.sampling,
            collapse: filled.collapse,
            check: t_check.elapsed(),
            total: filled.started.elapsed(),
        }
    }

    /// Assesses one deployment plan over `rounds` route-and-check rounds
    /// (§4.1 default: 10⁴). Deterministic for a given seed.
    ///
    /// Repeated calls with the same `seed` reuse the cached collapsed
    /// failure-state table (the table is plan-independent), paying only
    /// the route-and-check cost — the fast path of common-random-number
    /// searches.
    ///
    /// Thin consumer of [`Assessor::drive`]: runs the full layout with no
    /// stopping rule.
    pub fn assess(
        &mut self,
        spec: &ApplicationSpec,
        plan: &DeploymentPlan,
        rounds: usize,
        seed: u64,
    ) -> Assessment {
        self.drive(spec, plan, rounds, seed, None, &mut |_| ControlFlow::Continue(())).assessment
    }

    /// Runs the [`AssessmentDriver`] over `rounds` and yields a
    /// [`PartialEstimate`] to `on_partial` after every chunk. The drive
    /// stops early when the callback breaks or when `target_ciw` is
    /// reached (the driver's `stop_hint`); the returned assessment then
    /// covers exactly the rounds executed so far and `completed` is
    /// false. Completed drives are bit-identical to the pre-driver
    /// chunk loops for any seed.
    ///
    /// Cached chunk tables are route-and-checked in place. The chunks
    /// from the first one not cached on are filled (sample, inject,
    /// collapse, each in its slot) on this thread plus one helper thread
    /// per fill lane the drive is granted, when its tables are large
    /// enough for a helper to pay off; route-and-check stays on this
    /// thread in chunk order, so partials and early stops mean the same on
    /// any number of lanes.
    ///
    /// # Panics
    /// Panics if `rounds` is zero.
    pub fn drive(
        &mut self,
        spec: &ApplicationSpec,
        plan: &DeploymentPlan,
        rounds: usize,
        seed: u64,
        target_ciw: Option<f64>,
        on_partial: &mut dyn FnMut(&PartialEstimate) -> ControlFlow<()>,
    ) -> DrivenAssessment {
        self.drive_on(spec, plan, rounds, seed, target_ciw, on_partial, None)
    }

    /// [`Assessor::drive`], filling cold chunks on exactly `lanes` lanes
    /// when given one (whatever the table size and the host), else on
    /// the lanes the process-wide count grants.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn drive_on(
        &mut self,
        spec: &ApplicationSpec,
        plan: &DeploymentPlan,
        rounds: usize,
        seed: u64,
        target_ciw: Option<f64>,
        on_partial: &mut dyn FnMut(&PartialEstimate) -> ControlFlow<()>,
        lanes: Option<usize>,
    ) -> DrivenAssessment {
        assert!(rounds > 0, "cannot assess over zero rounds");
        let mut checker = StructureChecker::new(spec, plan);
        let layout = self.chunk_layout(rounds);
        let mut driver = AssessmentDriver::new(layout.clone(), seed, target_ciw);
        let t0 = Instant::now();
        let held = self.tables.held(seed, &layout);
        let Assessor { kind, router, schedule, model, injector, tables, batched, obs, .. } = self;
        // Checks chunk tables in order and feeds the driver; breaks once
        // the drive must stop.
        let mut check = |table: &BitMatrix, filled: Filled| {
            let task = driver.next_task().expect("one task per chunk, in order");
            let mut local = ResultAccumulator::new();
            let t_check = Instant::now();
            Self::route_and_check(
                router.as_mut(),
                *batched,
                &mut checker,
                table,
                task.rounds,
                &mut local,
            );
            let check = t_check.elapsed();
            let timings = Timings {
                sampling: filled.sampling,
                collapse: filled.collapse,
                check,
                total: filled.sampling + filled.collapse + check,
            };
            let partial = driver.feed(
                task.chunk,
                local.rounds(),
                local.successes(),
                &timings,
                filled.started,
            );
            let flow = on_partial(&partial);
            if partial.stop_hint {
                ControlFlow::Break(())
            } else {
                flow
            }
        };
        let cached = tables.slots[..held].iter().try_for_each(|slot| {
            let started = Instant::now();
            check(
                &slot.table,
                Filled { started, sampling: Duration::ZERO, collapse: Duration::ZERO },
            )
        });
        let to_fill = layout.len() - held;
        if cached.is_continue() && to_fill > 0 {
            let (components, width) = (model.num_topology_components(), schedule.rounds());
            let grant = match lanes {
                Some(lanes) => Some(LaneGrant::exactly(lanes)),
                None if components * width >= PARALLEL_MIN_TABLE_BITS => {
                    Some(LaneGrant::acquire(to_fill - 1))
                }
                None => None,
            };
            let helpers = grant.as_ref().map_or(0, LaneGrant::helpers).min(to_fill - 1);
            obs.fill_helpers_total.add(helpers as u64);
            let job = FillJob { kind: *kind, schedule, model, injector: injector.as_ref() };
            // Every filled slot keeps its table of `seed`, also after an
            // early stop: tables are deterministic per (seed, chunk,
            // rounds), and a later drive reuses only the slots that hold
            // the rounds it needs.
            if tables.master_seed != seed {
                tables.invalidate();
                tables.master_seed = seed;
            }
            let slots = tables.slots(layout.len(), model.table_rows(), width);
            fill_in_order(&job, seed, &layout[held..], &mut slots[held..], helpers, &mut check);
        }
        driver.set_total(t0.elapsed());
        self.obs.total_us.record(driver.timings().total.as_micros() as u64);
        self.obs.assessments_total.inc();
        self.obs.cache_bytes.set(self.cache_bytes() as i64);
        self.obs.arena_bytes.set(self.arena_bytes() as i64);
        DrivenAssessment {
            assessment: Assessment {
                estimate: driver.estimate(),
                timings: driver.timings(),
                sampler: self.kind.name(),
            },
            completed: driver.is_complete(),
        }
    }

    /// Measures pure failure-state generation over `rounds` rounds — the
    /// Figure 7 microbenchmark (no collapsing, no routing). It samples
    /// into the first table slot, so no cached table survives it.
    pub fn sampling_time(&mut self, rounds: usize, seed: u64) -> Duration {
        let t0 = Instant::now();
        let layout = self.chunk_layout(rounds);
        self.tables.invalidate();
        let (rows, width) = (self.model.table_rows(), self.schedule.rounds());
        let table = &mut self.tables.slots(1, rows, width)[0].table;
        let job = FillJob {
            kind: self.kind,
            schedule: &self.schedule,
            model: &self.model,
            injector: None,
        };
        for (chunk, n) in layout {
            job.sample(Self::chunk_seed(seed, chunk), table, n);
        }
        t0.elapsed()
    }
}

/// Convenience: dagger-assess a plan once without keeping an engine.
pub fn assess_once(
    topology: &Topology,
    model: FaultModel,
    spec: &ApplicationSpec,
    plan: &DeploymentPlan,
    rounds: usize,
    seed: u64,
) -> Assessment {
    Assessor::new(topology, model).assess(spec, plan, rounds, seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ParallelAssessor;
    use recloud_sampling::Rng;
    use recloud_topology::FatTreeParams;

    fn setup(kind: SamplerKind) -> (Topology, Assessor, ApplicationSpec) {
        let t = FatTreeParams::new(4).build();
        let model = FaultModel::paper_default(&t, 11);
        let a = Assessor::with_sampler(&t, model, kind);
        (t, a, ApplicationSpec::k_of_n(1, 2))
    }

    #[test]
    fn deterministic_per_seed() {
        let (t, mut a, spec) = setup(SamplerKind::ExtendedDagger);
        let mut rng = Rng::new(5);
        let plan = DeploymentPlan::random(&spec, t.hosts(), &mut rng);
        let r1 = a.assess(&spec, &plan, 3_000, 42);
        let r2 = a.assess(&spec, &plan, 3_000, 42);
        assert_eq!(r1.estimate.score, r2.estimate.score);
        let r3 = a.assess(&spec, &plan, 3_000, 43);
        // Different seed: almost surely a (slightly) different score.
        assert_ne!(
            (r1.estimate.successes, r1.estimate.rounds),
            (r3.estimate.successes + 1, 0),
            "sanity"
        );
    }

    #[test]
    fn dagger_and_monte_carlo_agree_statistically() {
        let (t, mut dagger, spec) = setup(SamplerKind::ExtendedDagger);
        let model = FaultModel::paper_default(&t, 11);
        let mut mc = Assessor::with_sampler(&t, model, SamplerKind::MonteCarlo);
        let mut rng = Rng::new(7);
        let plan = DeploymentPlan::random(&spec, t.hosts(), &mut rng);
        let rd = dagger.assess(&spec, &plan, 40_000, 1);
        let rm = mc.assess(&spec, &plan, 40_000, 1);
        let gap = (rd.estimate.score - rm.estimate.score).abs();
        let bound = rd.estimate.ciw95() + rm.estimate.ciw95();
        assert!(gap <= bound.max(0.005), "gap {gap} exceeds bound {bound}");
        assert_eq!(rd.sampler, "dagger");
        assert_eq!(rm.sampler, "monte-carlo");
    }

    #[test]
    fn all_reliable_when_nothing_fails() {
        let t = FatTreeParams::new(4).build();
        let model = FaultModel::new(&t, &ProbabilityConfig::Uniform(0.0), 0);
        let mut a = Assessor::new(&t, model);
        let spec = ApplicationSpec::k_of_n(2, 2);
        let mut rng = Rng::new(2);
        let plan = DeploymentPlan::random(&spec, t.hosts(), &mut rng);
        let r = a.assess(&spec, &plan, 500, 0);
        assert_eq!(r.estimate.score, 1.0);
        assert_eq!(r.estimate.ciw95(), 0.0);
    }

    #[test]
    fn all_unreliable_when_hosts_always_fail() {
        let t = FatTreeParams::new(4).build();
        let model = FaultModel::new(
            &t,
            &ProbabilityConfig::PerKind {
                table: vec![(recloud_topology::ComponentKind::Host, 1.0)],
                default: 0.0,
            },
            0,
        );
        let mut a = Assessor::new(&t, model);
        let spec = ApplicationSpec::k_of_n(1, 3);
        let mut rng = Rng::new(3);
        let plan = DeploymentPlan::random(&spec, t.hosts(), &mut rng);
        let r = a.assess(&spec, &plan, 300, 0);
        assert_eq!(r.estimate.score, 0.0);
    }

    #[test]
    fn chunk_layout_covers_rounds_exactly() {
        let (_t, a, _spec) = setup(SamplerKind::ExtendedDagger);
        for rounds in [1usize, 100, 2_500, 10_000, 99_999] {
            let layout = a.chunk_layout(rounds);
            let total: usize = layout.iter().map(|(_, n)| n).sum();
            assert_eq!(total, rounds);
            for (i, (idx, n)) in layout.iter().enumerate() {
                assert_eq!(*idx as usize, i);
                assert!(*n > 0);
            }
        }
    }

    #[test]
    fn chunk_seeds_are_distinct() {
        let seeds: Vec<u64> = (0..64).map(|c| Assessor::chunk_seed(99, c)).collect();
        let mut dedup = seeds.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), seeds.len());
    }

    #[test]
    fn timings_are_populated() {
        let (t, mut a, spec) = setup(SamplerKind::ExtendedDagger);
        let mut rng = Rng::new(9);
        let plan = DeploymentPlan::random(&spec, t.hosts(), &mut rng);
        let r = a.assess(&spec, &plan, 2_000, 0);
        assert!(r.timings.total >= r.timings.check);
        assert!(r.timings.total > Duration::ZERO);
        assert_eq!(r.estimate.rounds, 2_000);
    }

    #[test]
    fn power_dependency_lowers_reliability() {
        // The same plan must score strictly lower with power trees than
        // with the trees stripped, because power adds correlated failures.
        let t = FatTreeParams::new(4).build();
        let with = FaultModel::paper_default(&t, 11);
        let without = FaultModel::new(&t, &ProbabilityConfig::PaperDefault, 11);
        let spec = ApplicationSpec::k_of_n(2, 2);
        let mut rng = Rng::new(4);
        let plan = DeploymentPlan::random(&spec, t.hosts(), &mut rng);
        let r_with = Assessor::new(&t, with).assess(&spec, &plan, 30_000, 5);
        let r_without = Assessor::new(&t, without).assess(&spec, &plan, 30_000, 5);
        assert!(
            r_with.estimate.score < r_without.estimate.score,
            "correlated failures must hurt: {} vs {}",
            r_with.estimate.score,
            r_without.estimate.score
        );
    }

    #[test]
    fn table_cache_is_transparent() {
        // Same seed twice: second call hits the cache and must return the
        // exact same counts; a different plan on the cached table must
        // also match a fresh engine's result for that (plan, seed).
        let (t, mut a, spec) = setup(SamplerKind::ExtendedDagger);
        let mut rng = Rng::new(12);
        let plan1 = DeploymentPlan::random(&spec, t.hosts(), &mut rng);
        let plan2 = DeploymentPlan::random(&spec, t.hosts(), &mut rng);

        let r1 = a.assess(&spec, &plan1, 6_000, 77);
        let r1_cached = a.assess(&spec, &plan1, 6_000, 77);
        assert_eq!(r1.estimate.successes, r1_cached.estimate.successes);
        // Cached call skipped sampling entirely.
        assert_eq!(r1_cached.timings.sampling, Duration::ZERO);

        let r2_cached = a.assess(&spec, &plan2, 6_000, 77);
        let model = FaultModel::paper_default(&t, 11);
        let mut fresh = Assessor::new(&t, model);
        let r2_fresh = fresh.assess(&spec, &plan2, 6_000, 77);
        assert_eq!(r2_cached.estimate.successes, r2_fresh.estimate.successes);

        // A different seed invalidates the cache (and still works).
        let r3 = a.assess(&spec, &plan1, 6_000, 78);
        assert!(r3.timings.sampling > Duration::ZERO);
    }

    #[test]
    fn cache_supports_shorter_followup_requests() {
        let (t, mut a, spec) = setup(SamplerKind::ExtendedDagger);
        let mut rng = Rng::new(3);
        let plan = DeploymentPlan::random(&spec, t.hosts(), &mut rng);
        let full = a.assess(&spec, &plan, 9_000, 5);
        let prefix = a.assess(&spec, &plan, 4_000, 5);
        // The shorter run is a prefix of the longer one's result list.
        assert!(prefix.estimate.successes <= full.estimate.successes);
        assert_eq!(prefix.estimate.rounds, 4_000);
    }

    /// The kernel invariant: the batched (256-lane) and scalar paths produce
    /// bit-identical assessments (same successes, same rounds) across specs
    /// (simple and complex) and 64/256-lane boundary round counts, on both
    /// the fresh and the cached-table paths.
    #[test]
    fn batched_equals_scalar_bit_for_bit() {
        let t = FatTreeParams::new(4).build();
        let specs = [
            ApplicationSpec::k_of_n(1, 2),
            ApplicationSpec::k_of_n(3, 5),
            ApplicationSpec::layered(&[(2, 3), (1, 2)]),
        ];
        for (si, spec) in specs.iter().enumerate() {
            let mut rng = Rng::new(40 + si as u64);
            let plan = DeploymentPlan::random(spec, t.hosts(), &mut rng);
            for rounds in [63usize, 64, 65, 255, 256, 257, 2_500, 2_563] {
                let model = FaultModel::paper_default(&t, 11);
                let mut scalar = Assessor::new(&t, model.clone());
                scalar.set_batched(false);
                assert!(!scalar.batched());
                let mut wide = Assessor::new(&t, model);
                assert!(wide.batched());
                let rs = scalar.assess(spec, &plan, rounds, 9);
                let rb = wide.assess(spec, &plan, rounds, 9);
                assert_eq!(
                    (rs.estimate.successes, rs.estimate.rounds),
                    (rb.estimate.successes, rb.estimate.rounds),
                    "spec {si} rounds {rounds} fresh"
                );
                // Cached-table path (second assess with the same seed).
                let rs2 = scalar.assess(spec, &plan, rounds, 9);
                let rb2 = wide.assess(spec, &plan, rounds, 9);
                assert_eq!(rs2.estimate.successes, rb2.estimate.successes);
                assert_eq!(rb.estimate.successes, rb2.estimate.successes);
            }
        }
    }

    /// Batched and scalar must also agree under a generic (non-wide-native)
    /// router, where the screened round-major fallback carries the load.
    #[test]
    fn batched_equals_scalar_on_generic_router() {
        let t = recloud_topology::LeafSpineParams::new(3, 4, 3).border_spines(2).build();
        let model = FaultModel::paper_default(&t, 7);
        let spec = ApplicationSpec::k_of_n(2, 4);
        let mut rng = Rng::new(15);
        let plan = DeploymentPlan::random(&spec, t.hosts(), &mut rng);
        let mut scalar = Assessor::new(&t, model.clone());
        scalar.set_batched(false);
        let mut batched = Assessor::new(&t, model);
        for rounds in [65usize, 4_000] {
            let rs = scalar.assess(&spec, &plan, rounds, 3);
            let rb = batched.assess(&spec, &plan, rounds, 3);
            assert_eq!(
                (rs.estimate.successes, rs.estimate.rounds),
                (rb.estimate.successes, rb.estimate.rounds),
                "rounds {rounds}"
            );
        }
    }

    #[test]
    fn cache_bytes_accounts_every_chunk() {
        let (t, mut a, spec) = setup(SamplerKind::ExtendedDagger);
        assert_eq!(a.cache_bytes(), 0, "no cache before the first assessment");
        let mut rng = Rng::new(21);
        let plan = DeploymentPlan::random(&spec, t.hosts(), &mut rng);
        let rounds = 6_000;
        a.assess(&spec, &plan, rounds, 5);
        let layout = a.chunk_layout(rounds);
        // One collapsed table slot per chunk: components × chunk words.
        let per_chunk = t.num_components() * a.schedule.rounds().div_ceil(64) * 8;
        assert_eq!(a.cache_bytes(), layout.len() * per_chunk);
        // Pin the absolute footprint so searches can't silently balloon:
        // k=4 fat-tree = 36 components, chunk = 2560 rounds = 40 words
        // (already a wide-word multiple, so no padding).
        assert_eq!(a.cache_bytes(), 3 * 36 * 40 * 8);
        a.set_injector(None); // invalidates the cache
        assert_eq!(a.cache_bytes(), 0);
    }

    /// The serving-layer invariant: a reseeded engine is indistinguishable
    /// from a freshly built one — same counts, bit-identical score — and
    /// reseeding drops the (now stale) table cache.
    #[test]
    fn reseed_matches_fresh_engine_bit_for_bit() {
        let t = FatTreeParams::new(4).build();
        let spec = ApplicationSpec::k_of_n(2, 3);
        let mut rng = Rng::new(31);
        let plan = DeploymentPlan::random(&spec, t.hosts(), &mut rng);
        let mut reused = Assessor::new(&t, FaultModel::paper_default(&t, 11));
        reused.assess(&spec, &plan, 3_000, 11);
        assert!(reused.cache_bytes() > 0, "first assessment populates the table cache");
        for seed in [12u64, 13, 11] {
            reused.reseed(FaultModel::paper_default(&t, seed));
            assert_eq!(reused.cache_bytes(), 0, "reseed must drop the stale table cache");
            let r = reused.assess(&spec, &plan, 3_000, seed);
            let mut fresh = Assessor::new(&t, FaultModel::paper_default(&t, seed));
            let f = fresh.assess(&spec, &plan, 3_000, seed);
            assert_eq!(r.estimate.score.to_bits(), f.estimate.score.to_bits(), "seed {seed}");
            assert_eq!(r.estimate.successes, f.estimate.successes);
            assert_eq!(r.estimate.rounds, f.estimate.rounds);
        }
    }

    #[test]
    #[should_panic(expected = "different topology")]
    fn reseed_rejects_foreign_model() {
        let t4 = FatTreeParams::new(4).build();
        let t6 = FatTreeParams::new(6).build();
        let mut a = Assessor::new(&t4, FaultModel::paper_default(&t4, 1));
        a.reseed(FaultModel::paper_default(&t6, 1));
    }

    #[test]
    fn chunk_seed_is_the_shared_derivation_rule() {
        for (master, chunk) in [(0u64, 0u32), (1, 1), (99, 63), (u64::MAX, 7)] {
            assert_eq!(
                Assessor::chunk_seed(master, chunk),
                recloud_sampling::derive_seed(master, chunk as u64)
            );
        }
    }

    /// Assessments record stage timings, round counts and the cache
    /// footprint into the process-global registry. Other tests share
    /// that registry and run in parallel, so assertions are on *deltas
    /// at least as large as this test's own contribution* — concurrent
    /// recording only increases them.
    #[test]
    fn assessments_record_into_the_global_registry() {
        let before = recloud_obs::global().snapshot();
        let (t, mut a, spec) = setup(SamplerKind::ExtendedDagger);
        let mut rng = Rng::new(77);
        let plan = DeploymentPlan::random(&spec, t.hosts(), &mut rng);
        let rounds = 4_000usize;
        a.assess(&spec, &plan, rounds, 8); // fresh: sampling + collapse + check
        a.assess(&spec, &plan, rounds, 8); // cached table: check only
        let after = recloud_obs::global().snapshot();

        let delta =
            |name: &str| after.counter(name).unwrap_or(0) - before.counter(name).unwrap_or(0);
        assert!(delta("assess.rounds_total") >= 2 * rounds as u64);
        assert!(delta("assess.assessments_total") >= 2);
        let chunks = a.chunk_layout(rounds).len() as u64;
        let hist_delta = |name: &str| {
            after.histogram(name).map_or(0, |h| h.count)
                - before.histogram(name).map_or(0, |h| h.count)
        };
        assert!(hist_delta("assess.sampling_us") >= chunks, "fresh path samples per chunk");
        assert!(hist_delta("assess.check_us") >= 2 * chunks, "both paths check per chunk");
        assert!(hist_delta("assess.total_us") >= 2);
        assert!(after.gauge("assess.cache_bytes").is_some(), "cache footprint gauge registered");
    }

    /// An engine whose tables are above the parallel-fill floor (a k = 12
    /// fat tree: ~620 components × ~2 600-round chunks), with a fault
    /// injector; the scalar checker when `batched` is false.
    fn wide_engine(t: &Topology, batched: bool) -> Assessor {
        let mut a = Assessor::new(t, FaultModel::paper_default(t, 23));
        let mut injector = FaultInjector::new();
        injector.fail(t.power_supplies()[1]).fail_rounds(t.hosts()[5], 100..900);
        a.set_injector(Some(injector));
        a.set_batched(batched);
        a
    }

    fn drive_lanes(
        a: &mut Assessor,
        spec: &ApplicationSpec,
        plan: &DeploymentPlan,
        rounds: usize,
        lanes: usize,
        stop_after: Option<u32>,
    ) -> DrivenAssessment {
        a.drive_on(
            spec,
            plan,
            rounds,
            404,
            None,
            &mut |p| match stop_after {
                Some(chunk) if p.chunk == chunk => ControlFlow::Break(()),
                _ => ControlFlow::Continue(()),
            },
            Some(lanes),
        )
    }

    fn counts(d: &DrivenAssessment) -> (u64, u64, u64) {
        let e = d.assessment.estimate;
        (e.successes, e.rounds, e.score.to_bits())
    }

    /// Filling cold chunks on 1, 2 or 3 lanes changes no bit: fresh and
    /// cached drives equal the serial scalar oracle, over a layout with a
    /// short tail chunk and an injector applied before every collapse.
    #[test]
    fn lanes_equal_the_serial_scalar_oracle() {
        let t = FatTreeParams::new(12).build();
        let spec = ApplicationSpec::k_of_n(3, 5);
        let plan = DeploymentPlan::random(&spec, t.hosts(), &mut Rng::new(17));
        let mut oracle = wide_engine(&t, false);
        let rounds = 3 * oracle.schedule.rounds() + 700;
        assert!(
            t.num_components() * oracle.schedule.rounds() >= PARALLEL_MIN_TABLE_BITS,
            "the model must be above the parallel-fill floor"
        );
        assert_eq!(oracle.chunk_layout(rounds).len(), 4);
        assert_eq!(oracle.chunk_layout(rounds)[3].1, 700, "a tail chunk");
        let want = counts(&drive_lanes(&mut oracle, &spec, &plan, rounds, 1, None));
        let helpers = || recloud_obs::global().snapshot().counter("assess.fill_helpers_total");
        let before = helpers().unwrap_or(0);
        for lanes in [1, 2, 3] {
            let mut a = wide_engine(&t, true);
            let fresh = drive_lanes(&mut a, &spec, &plan, rounds, lanes, None);
            assert!(fresh.completed);
            assert_eq!(counts(&fresh), want, "{lanes} lanes, fresh");
            assert!(fresh.assessment.timings.sampling > Duration::ZERO);
            let cached = drive_lanes(&mut a, &spec, &plan, rounds, lanes, None);
            assert_eq!(counts(&cached), want, "{lanes} lanes, cached");
            assert_eq!(cached.assessment.timings.sampling, Duration::ZERO, "served from the cache");
        }
        // Other tests share the registry and only add to it.
        assert!(helpers().unwrap_or(0) - before > 2, "granted helpers are counted");
    }

    /// A cancel after chunk 0 covers exactly chunk 0's rounds on any lane
    /// count; every chunk filled meanwhile is cached with the rounds it
    /// holds, so same-seed follow-ups still equal the oracle bit for bit.
    #[test]
    fn early_stop_on_lanes_keeps_every_filled_slot() {
        let t = FatTreeParams::new(12).build();
        let spec = ApplicationSpec::k_of_n(2, 4);
        let plan = DeploymentPlan::random(&spec, t.hosts(), &mut Rng::new(5));
        let mut oracle = wide_engine(&t, false);
        let rounds = 3 * oracle.schedule.rounds() + 700;
        let first = oracle.chunk_layout(rounds)[0].1 as u64;
        let want_first = counts(&drive_lanes(&mut oracle, &spec, &plan, first as usize, 1, None));
        let want = counts(&drive_lanes(&mut oracle, &spec, &plan, rounds, 1, None));
        for lanes in [1, 2, 3] {
            let mut a = wide_engine(&t, true);
            let cut = drive_lanes(&mut a, &spec, &plan, rounds, lanes, Some(0));
            assert!(!cut.completed);
            assert_eq!(cut.assessment.estimate.rounds, first, "{lanes} lanes: chunk 0 only");
            assert_eq!(counts(&cut), want_first, "{lanes} lanes");
            assert!(a.tables.slots[0].rounds > 0, "{lanes} lanes: the checked chunk is cached");
            for (i, (got, want)) in a.tables.slots.iter().zip(&oracle.tables.slots).enumerate() {
                if got.rounds > 0 {
                    assert_eq!(got.rounds, want.rounds, "{lanes} lanes: chunk {i}'s rounds");
                    assert_eq!(got.table, want.table, "{lanes} lanes: chunk {i}'s table");
                }
            }
            let prefix = drive_lanes(&mut a, &spec, &plan, first as usize, lanes, None);
            assert_eq!(counts(&prefix), want_first, "{lanes} lanes, cached prefix");
            assert_eq!(prefix.assessment.timings.sampling, Duration::ZERO);
            let full = drive_lanes(&mut a, &spec, &plan, rounds, lanes, None);
            assert_eq!(counts(&full), want, "{lanes} lanes, follow-up");
            let again = drive_lanes(&mut a, &spec, &plan, rounds, lanes, None);
            assert_eq!(counts(&again), want, "{lanes} lanes, cached follow-up");
        }
    }

    /// A model whose 200-round dagger cycles make 2 816-round chunks, and a
    /// plan that fails in a few percent of rounds: 10 000 and 11 000
    /// rounds are both three full chunks and a tail.
    fn tail_engine(t: &Topology) -> Assessor {
        let mut model = FaultModel::new(t, &ProbabilityConfig::Uniform(0.005), 0);
        model.attach_power_dependencies(t);
        Assessor::new(t, model)
    }

    /// A tail chunk is filled only for the rounds its drive checks. On one
    /// engine, a longer same-seed drive refills the partial tail, a
    /// shorter one reuses it, and every answer equals a fresh engine's —
    /// on one and two lanes, after an early stop that may leave the tail
    /// filled past the break, and on the parallel engine.
    #[test]
    fn partial_tails_are_refilled_bit_for_bit() {
        let t = FatTreeParams::new(4).build();
        let spec = ApplicationSpec::k_of_n(5, 5);
        let plan = DeploymentPlan::random(&spec, t.hosts(), &mut Rng::new(8));
        let probe = tail_engine(&t);
        assert_eq!(probe.schedule.rounds(), 2_816);
        assert_eq!(probe.chunk_layout(10_000)[3], (3, 1_552));
        assert_eq!(probe.chunk_layout(11_000)[3], (3, 2_552));
        let fresh = |rounds: usize| {
            counts(&drive_lanes(&mut tail_engine(&t), &spec, &plan, rounds, 1, None))
        };
        let want: Vec<_> = [10_000, 11_000, 9_000].map(fresh).into();
        assert_ne!(want[0], want[1]);
        let parallel = ParallelAssessor::new(&t, tail_engine(&t).model.clone(), 2);
        for (&rounds, want) in [10_000, 11_000, 9_000].iter().zip(&want) {
            let p = parallel.assess(&spec, &plan, rounds, 404).estimate;
            assert_eq!((p.successes, p.rounds, p.score.to_bits()), *want, "parallel, {rounds}");
        }
        for lanes in [1, 2] {
            let mut a = tail_engine(&t);
            let mut sampled = Vec::new();
            for (&rounds, want) in [10_000, 11_000, 9_000].iter().zip(&want) {
                let d = drive_lanes(&mut a, &spec, &plan, rounds, lanes, None);
                assert_eq!(counts(&d), *want, "{lanes} lanes, {rounds} rounds");
                sampled.push(d.assessment.timings.sampling > Duration::ZERO);
            }
            assert_eq!(sampled, [true, true, false], "{lanes} lanes: refill, then reuse");
            assert_eq!(a.tables.slots[3].rounds, 2_552, "{lanes} lanes: the refilled tail");

            // Stopped after chunk 2: a helper may have filled the
            // 1 552-round tail meanwhile, which 11 000 rounds must refill.
            let mut a = tail_engine(&t);
            let cut = drive_lanes(&mut a, &spec, &plan, 10_000, lanes, Some(2));
            assert_eq!(cut.assessment.estimate.rounds, 3 * 2_816, "{lanes} lanes");
            assert!(matches!(a.tables.slots[3].rounds, 0 | 1_552), "{lanes} lanes");
            for (&rounds, want) in [11_000, 10_000, 9_000].iter().zip([want[1], want[0], want[2]]) {
                let d = drive_lanes(&mut a, &spec, &plan, rounds, lanes, None);
                assert_eq!(counts(&d), want, "{lanes} lanes after a stop, {rounds} rounds");
            }
        }
    }

    /// Redrawing only the probabilities matches a freshly built engine.
    #[test]
    fn reassign_matches_fresh_engine_bit_for_bit() {
        let t = FatTreeParams::new(4).build();
        let spec = ApplicationSpec::k_of_n(2, 3);
        let plan = DeploymentPlan::random(&spec, t.hosts(), &mut Rng::new(31));
        let mut reused = Assessor::new(&t, FaultModel::paper_default(&t, 11));
        reused.assess(&spec, &plan, 3_000, 11);
        for seed in [12u64, 13, 11] {
            reused.reassign(&ProbabilityConfig::PaperDefault, seed);
            assert_eq!(reused.cache_bytes(), 0, "reassign must drop the stale table cache");
            let r = reused.assess(&spec, &plan, 3_000, seed);
            let f = assess_once(&t, FaultModel::paper_default(&t, seed), &spec, &plan, 3_000, seed);
            assert_eq!(r.estimate.score.to_bits(), f.estimate.score.to_bits(), "seed {seed}");
            assert_eq!(
                (r.estimate.successes, r.estimate.rounds),
                (f.estimate.successes, f.estimate.rounds)
            );
        }
    }

    #[test]
    #[should_panic(expected = "zero rounds")]
    fn zero_rounds_rejected() {
        let (t, mut a, spec) = setup(SamplerKind::ExtendedDagger);
        let mut rng = Rng::new(1);
        let plan = DeploymentPlan::random(&spec, t.hosts(), &mut rng);
        a.assess(&spec, &plan, 0, 0);
    }
}
