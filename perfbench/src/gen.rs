//! Seeded workload generation. Every request, plan and arrival time is a
//! pure function of the workload seed, a stream id (one per phase) and an
//! index, so the same `--seed` replays the same bytes and the daemon sees
//! only the generated requests.

use recloud_sampling::{derive_seed, Rng};
use recloud_server::protocol::{AssessRequest, Preset, Request, SearchRequest};

/// The paper's four K-of-N settings (§4.1).
pub const SETTINGS: [(u32, u32); 4] = [(1, 2), (2, 3), (4, 5), (8, 10)];
/// Route-and-check rounds per assessment (the paper's 10⁴).
pub const ROUNDS: u32 = 10_000;
/// The daemon's result-cache capacity (its default).
pub const CACHE_CAPACITY: usize = 4_096;
/// `assess-warm` draws plans from a pool four times the cache.
pub const WARM_POOL: usize = 4 * CACHE_CAPACITY;
/// Zipf exponent of the `assess-warm` plan popularity.
pub const ZIPF_S: f64 = 1.0;
/// One in this many `assess-cold` requests goes as `AssessStream`.
pub const STREAM_EVERY: usize = 4;
/// Annealing chains per `search` request.
pub const SEARCH_CHAINS: u32 = 2;
/// Per-chain iterations of one `search` request (about 1 s of work).
pub const SEARCH_ITERS: u32 = 20_000;

/// Stream ids: each phase draws from its own stream so no two phases of
/// one run share a request.
pub mod streams {
    pub const SETUP: u64 = 1;
    pub const FIXED: u64 = 2;
    pub const TRACED: u64 = 3;
    /// Probe `k` of the rate search uses `PROBE + k`.
    pub const PROBE: u64 = 100;
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    AssessCold,
    AssessWarm,
    Search,
}

impl Kind {
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "assess-cold" => Some(Kind::AssessCold),
            "assess-warm" => Some(Kind::AssessWarm),
            "search" => Some(Kind::Search),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::AssessCold => "assess-cold",
            Kind::AssessWarm => "assess-warm",
            Kind::Search => "search",
        }
    }
}

/// One generated request.
#[derive(Clone, Debug, PartialEq)]
pub enum Item {
    /// An assessment; `stream` sends it as `AssessStream` at cadence 1.
    Assess { req: AssessRequest, stream: bool },
    /// A `SearchStream` with [`SEARCH_CHAINS`] chains × [`SEARCH_ITERS`].
    Search { req: SearchRequest },
}

impl Item {
    /// The wire request this item sends.
    pub fn request(&self) -> Request {
        match self {
            Item::Assess { req, stream: false } => Request::AssessPlan(req.clone()),
            Item::Assess { req, stream: true } => {
                Request::AssessStream { req: req.clone(), cadence: 1 }
            }
            Item::Search { req } => {
                Request::SearchStream { req: *req, workers: SEARCH_CHAINS, iters: SEARCH_ITERS }
            }
        }
    }
}

/// The request generator of one workload and seed.
pub struct Gen {
    kind: Kind,
    seed: u64,
    hosts: Vec<u32>,
    /// Cumulative Zipf weights over the warm pool (empty otherwise).
    zipf_cdf: Vec<f64>,
}

impl Gen {
    /// `hosts` are the Medium topology's host ids.
    pub fn new(kind: Kind, seed: u64, hosts: Vec<u32>) -> Gen {
        let zipf_cdf = if kind == Kind::AssessWarm {
            let mut acc = 0.0;
            let mut cdf: Vec<f64> = (0..WARM_POOL)
                .map(|r| {
                    acc += 1.0 / ((r + 1) as f64).powf(ZIPF_S);
                    acc
                })
                .collect();
            let total = acc;
            cdf.iter_mut().for_each(|c| *c /= total);
            cdf
        } else {
            Vec::new()
        };
        Gen { kind, seed, hosts, zipf_cdf }
    }

    /// The master seed every `assess-warm` request shares.
    pub fn warm_seed(&self) -> u64 {
        derive_seed(self.seed, 0x5741_524d)
    }

    fn rng(&self, stream: u64, index: u64) -> Rng {
        Rng::new(derive_seed(derive_seed(self.seed, stream), index))
    }

    /// `n` distinct random hosts for setting `(k, n)`.
    fn plan(&self, rng: &mut Rng) -> (u32, u32, Vec<u32>) {
        let (k, n) = SETTINGS[rng.next_below(SETTINGS.len())];
        let mut hosts: Vec<u32> = Vec::with_capacity(n as usize);
        while hosts.len() < n as usize {
            let h = self.hosts[rng.next_below(self.hosts.len())];
            if !hosts.contains(&h) {
                hosts.push(h);
            }
        }
        (k, n, hosts)
    }

    fn assess_request(seed: u64, (k, n, hosts): (u32, u32, Vec<u32>)) -> AssessRequest {
        AssessRequest {
            preset: Preset::Medium,
            rounds: ROUNDS,
            seed,
            k,
            n,
            assignments: vec![hosts],
        }
    }

    /// Plan `rank` of the warm pool (fixed per workload seed).
    pub fn pool_request(&self, rank: usize) -> AssessRequest {
        let mut rng = self.rng(0x504f_4f4c, rank as u64);
        Self::assess_request(self.warm_seed(), self.plan(&mut rng))
    }

    /// Set-up request `index`: a plan from the set-up stream at one seed
    /// shared by all set-up requests, so every worker that serves one
    /// samples that seed's table exactly once. For `assess-warm` it is
    /// the shared workload seed, which leaves every worker's table warm.
    pub fn setup_request(&self, index: u64) -> AssessRequest {
        let mut rng = self.rng(streams::SETUP, index);
        let seed = match self.kind {
            Kind::AssessWarm => self.warm_seed(),
            _ => derive_seed(self.seed, streams::SETUP),
        };
        Self::assess_request(seed, self.plan(&mut rng))
    }

    /// Request `index` of phase stream `stream`.
    pub fn item(&self, stream: u64, index: u64) -> Item {
        let mut rng = self.rng(stream, index);
        match self.kind {
            Kind::AssessCold => {
                let seed = rng.next_u64();
                let stream = rng.next_below(STREAM_EVERY) == 0;
                Item::Assess { req: Self::assess_request(seed, self.plan(&mut rng)), stream }
            }
            Kind::AssessWarm => {
                let u = rng.next_f64();
                let rank = self.zipf_cdf.partition_point(|&c| c < u).min(WARM_POOL - 1);
                Item::Assess { req: self.pool_request(rank), stream: false }
            }
            Kind::Search => {
                // Settings cycle in a fixed order, so every run holds the
                // same mix of search sizes.
                let seed = rng.next_u64();
                let (k, n) = SETTINGS[index as usize % SETTINGS.len()];
                Item::Search {
                    req: SearchRequest {
                        preset: Preset::Medium,
                        rounds: ROUNDS,
                        seed,
                        k,
                        n,
                        budget_ms: 0,
                    },
                }
            }
        }
    }

    /// Seeded Poisson arrival offsets (ns from phase start) for `n`
    /// requests at `rate` per second.
    pub fn poisson_offsets(&self, stream: u64, rate: f64, n: usize) -> Vec<u64> {
        let mut rng = self.rng(stream ^ 0xA117E, n as u64);
        let mut t = 0.0f64;
        (0..n)
            .map(|_| {
                t += -(1.0 - rng.next_f64()).ln() / rate;
                (t * 1e9) as u64
            })
            .collect()
    }

    /// A deterministic sample of `count` indices below `n`.
    pub fn sample_indices(&self, stream: u64, n: usize, count: usize) -> Vec<usize> {
        let mut rng = self.rng(stream ^ 0x5A391E, n as u64);
        let mut picked: Vec<usize> = Vec::new();
        while picked.len() < count.min(n) {
            let i = rng.next_below(n);
            if !picked.contains(&i) {
                picked.push(i);
            }
        }
        picked.sort_unstable();
        picked
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hosts() -> Vec<u32> {
        (1000..4312).collect()
    }

    /// The encoded request stream of a phase, frame after frame, plus its
    /// arrival schedule.
    fn stream_bytes(kind: Kind, seed: u64) -> Vec<u8> {
        let g = Gen::new(kind, seed, hosts());
        let mut out = Vec::new();
        for i in 0..200 {
            out.extend_from_slice(&g.item(streams::FIXED, i).request().encode());
        }
        for t in g.poisson_offsets(streams::FIXED, 60.0, 200) {
            out.extend_from_slice(&t.to_le_bytes());
        }
        out
    }

    #[test]
    fn same_seed_gives_a_byte_identical_request_stream() {
        for kind in [Kind::AssessCold, Kind::AssessWarm, Kind::Search] {
            assert_eq!(stream_bytes(kind, 7), stream_bytes(kind, 7), "{kind:?}");
        }
    }

    #[test]
    fn different_seed_changes_the_request_stream() {
        for kind in [Kind::AssessCold, Kind::AssessWarm, Kind::Search] {
            assert_ne!(stream_bytes(kind, 7), stream_bytes(kind, 8), "{kind:?}");
        }
    }

    #[test]
    fn phases_draw_distinct_requests() {
        let g = Gen::new(Kind::AssessCold, 3, hosts());
        assert_ne!(g.item(streams::FIXED, 0), g.item(streams::TRACED, 0));
        assert_ne!(g.item(streams::PROBE, 0), g.item(streams::PROBE + 1, 0));
    }

    #[test]
    fn plans_use_distinct_hosts_and_paper_settings() {
        for kind in [Kind::AssessCold, Kind::AssessWarm] {
            let g = Gen::new(kind, 11, hosts());
            for i in 0..500 {
                let Item::Assess { req, .. } = g.item(streams::FIXED, i) else { unreachable!() };
                assert!(SETTINGS.contains(&(req.k, req.n)));
                let mut h = req.assignments[0].clone();
                h.sort_unstable();
                h.dedup();
                assert_eq!(h.len(), req.n as usize);
            }
        }
    }

    #[test]
    fn warm_plans_are_skewed_and_share_one_seed() {
        let g = Gen::new(Kind::AssessWarm, 5, hosts());
        let items: Vec<AssessRequest> = (0..4000)
            .map(|i| match g.item(streams::FIXED, i) {
                Item::Assess { req, .. } => req,
                _ => unreachable!(),
            })
            .collect();
        assert!(items.iter().all(|r| r.seed == g.warm_seed()));
        let top = items.iter().filter(|r| **r == g.pool_request(0)).count();
        assert!(top > 4000 / 20, "rank 0 drawn only {top} times");
    }

    #[test]
    fn poisson_schedule_has_the_asked_rate() {
        let g = Gen::new(Kind::AssessCold, 1, hosts());
        let t = g.poisson_offsets(streams::FIXED, 100.0, 20_000);
        let rate = 20_000.0 / (*t.last().unwrap() as f64 / 1e9);
        assert!((rate - 100.0).abs() < 3.0, "rate {rate}");
        assert!(t.windows(2).all(|w| w[0] <= w[1]));
    }
}
