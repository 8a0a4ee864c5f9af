//! The in-process oracle every served answer is checked against: the
//! same preset, seed, plan and rounds through `Assessor::assess`, and the
//! same search through `ParallelSearcher::search` under
//! `engine::stream_search_config`. Answers must match bit for bit.

use crate::gen::SEARCH_CHAINS;
use recloud_apps::ApplicationSpec;
use recloud_assess::{Assessor, SamplerKind};
use recloud_faults::FaultModel;
use recloud_search::{ParallelSearchConfig, ParallelSearcher, ReliabilityObjective};
use recloud_server::engine::{build_plan, spec_for, stream_search_config};
use recloud_server::protocol::{AssessRequest, AssessResponse, SearchRequest, SearchResponse};
use recloud_topology::Topology;

pub struct Oracle {
    topology: Topology,
    assessor: Assessor,
    seed: u64,
}

impl Oracle {
    pub fn new(topology: Topology) -> Oracle {
        let seed = 0;
        let model = FaultModel::paper_default(&topology, seed);
        let assessor = Assessor::with_sampler(&topology, model, SamplerKind::ExtendedDagger);
        Oracle { topology, assessor, seed }
    }

    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The engine, reseeded to `seed` as the daemon's engine pool does.
    pub fn assessor(&mut self, seed: u64) -> &mut Assessor {
        if self.seed != seed {
            self.reseed(seed);
        }
        &mut self.assessor
    }

    /// The engine at whatever seed it last served.
    pub fn engine(&mut self) -> &mut Assessor {
        &mut self.assessor
    }

    /// Swaps the engine's fault model for `seed`'s unconditionally.
    pub fn reseed(&mut self, seed: u64) {
        self.assessor.reseed(FaultModel::paper_default(&self.topology, seed));
        self.seed = seed;
    }

    /// The answer the daemon must give for `req`.
    pub fn assess(&mut self, req: &AssessRequest) -> AssessResponse {
        let spec = spec_for(req.k, req.n, req.assignments.len());
        let plan = build_plan(&spec, &req.assignments).expect("generated plans are valid");
        let a = self.assessor(req.seed).assess(&spec, &plan, req.rounds as usize, req.seed);
        AssessResponse {
            score: a.estimate.score,
            variance: a.estimate.variance,
            rounds: a.estimate.rounds,
            successes: a.estimate.successes,
            cached: false,
        }
    }

    /// Checks a served assessment bit for bit.
    pub fn check_assess(
        &mut self,
        req: &AssessRequest,
        got: &AssessResponse,
    ) -> Result<(), String> {
        let want = self.assess(req);
        if same_assess(&want, got) {
            Ok(())
        } else {
            Err(format!(
                "seed {} plan {:?}: served {got:?}, in-process {want:?}",
                req.seed, req.assignments
            ))
        }
    }

    /// Checks a served `SearchStream` final frame bit for bit.
    pub fn check_search(
        &self,
        req: &SearchRequest,
        iters: u32,
        got: &SearchResponse,
    ) -> Result<(), String> {
        let want = self.search(req, iters);
        if same_search(&want, got) {
            Ok(())
        } else {
            Err(format!("search seed {}: served {got:?}, in-process {want:?}", req.seed))
        }
    }

    /// The search the daemon runs for a `SearchStream` request.
    pub fn search(&self, req: &SearchRequest, iters: u32) -> SearchResponse {
        let spec = ApplicationSpec::k_of_n(req.k, req.n);
        let model = FaultModel::paper_default(&self.topology, req.seed);
        let searcher =
            ParallelSearcher::with_sampler(&self.topology, model, SamplerKind::ExtendedDagger);
        let config =
            ParallelSearchConfig::new(SEARCH_CHAINS as usize, stream_search_config(req, iters));
        let outcome = searcher.search(&spec, &ReliabilityObjective, &config, None, None);
        SearchResponse {
            reliability: outcome.best.best_reliability,
            ciw95: outcome.best.best_ciw95,
            plans_assessed: outcome.combined.plans_assessed as u64,
            hosts: outcome.best.best_plan.hosts_of(0).iter().map(|h| h.index() as u32).collect(),
        }
    }
}

/// Bit-for-bit equality of two search answers.
pub fn same_search(a: &SearchResponse, b: &SearchResponse) -> bool {
    a.reliability.to_bits() == b.reliability.to_bits()
        && a.ciw95.to_bits() == b.ciw95.to_bits()
        && a.plans_assessed == b.plans_assessed
        && a.hosts == b.hosts
}

/// Bit-for-bit equality of the determining fields (`cached` is transient).
pub fn same_assess(a: &AssessResponse, b: &AssessResponse) -> bool {
    a.score.to_bits() == b.score.to_bits()
        && a.variance.to_bits() == b.variance.to_bits()
        && a.rounds == b.rounds
        && a.successes == b.successes
}
