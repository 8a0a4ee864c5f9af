//! Served-placement benchmark for the reCloud daemon.
//!
//! One process per workload drives an in-process `recloud_server::Server`
//! (2 workers, durable store on a fresh directory, default 4 096-entry
//! result cache) through the public `Client`, with at most 2 generator
//! threads and 2 connections. Workloads (see `README.md` for why each
//! was chosen, which are in `BENCHMARK.json`, and the metrics):
//!
//! * `assess-cold` — open loop, Poisson arrivals at 40 req/s, a fresh seed
//!   per request (1 in 4 as `AssessStream` at cadence 1): every request
//!   misses the result cache and the worker's failure-state table.
//! * `assess-warm` — open loop at 2 000 req/s, one shared seed, plans
//!   drawn Zipf(1) from a pool of 16 384 (4× the cache): hits beside
//!   misses that reuse the worker's sampled table.
//! * `search` — closed loop, one connection, back-to-back `SearchStream`
//!   requests (2 chains × 20 000 iterations, fresh seed each, the four
//!   K-of-N settings in turn).
//!
//! Usage:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload assess-cold --seed 1 --seconds 25 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the
//! per-layer attribution instead and writes a Chrome trace-event file to
//! `.bench_out/`. The last stdout line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. Any wrong answer,
//! failed request or failed workload self-check exits 1.

mod gen;
mod host;
mod layers;
mod load;
mod slo;
mod stats;
mod verify;

use gen::{streams, Gen, Item, Kind, CACHE_CAPACITY, SEARCH_ITERS};
use load::{Answer, Sample};
use recloud_server::protocol::AssessRequest;
use recloud_server::{Client, Server, ServerConfig};
use recloud_topology::Scale;
use std::collections::HashMap;
use std::net::SocketAddr;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Daemon worker threads.
const WORKERS: usize = 2;
/// Generator threads = connections; no more than the 2 CPUs the benchmark
/// is sized for.
const CONNECTIONS: usize = 2;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 25;
/// Minimum samples of a latency phase, so p99 has ten beyond it.
const MIN_SAMPLES: usize = 1_000;
/// The fixed-rate phase is judged in up to this many windows.
const WINDOWS: usize = 5;
/// Resolution of the `slo_rps` rate search (finer than its 0.2 bound).
const SLO_RESOLUTION: f64 = 0.05;
/// Upward step of the rate search before it bisects.
const SLO_STEP: f64 = 2.0;
const SLO_MAX_PROBES: usize = 9;
/// Seconds of offered load per rate-search probe (at least
/// [`MIN_SAMPLES`] requests).
const SLO_PROBE_SECONDS: f64 = 2.0;
/// No rate-search probe starts after this long, so a slow host cannot
/// push a traced run past its time limit.
const SLO_BUDGET: Duration = Duration::from_secs(60);
/// Served cold answers re-checked against the in-process oracle per run.
const COLD_CHECKS: usize = 24;
/// Distinct warm answers re-checked per run (each ~40 µs in process).
const WARM_CHECKS: usize = 3_000;

/// Fixed offered rate and tail-latency limit of an open-loop workload.
/// The rates sit well under what the daemon serves on a 2-vCPU VM even
/// while the hypervisor steals a quarter of the CPU (cold ~55–95 req/s,
/// warm ~5 000–25 000 req/s measured), so the latency metrics measure
/// service, not an overloaded queue.
#[derive(Clone, Copy)]
pub struct Profile {
    pub rate: f64,
    pub limit_ms: f64,
}

pub fn profile(kind: Kind) -> Profile {
    match kind {
        Kind::AssessCold => Profile { rate: 40.0, limit_ms: 100.0 },
        // 20 ms, not the 5 ms first proposed: on a 2-vCPU VM a `Ping`
        // alone sees a 2.5–4 ms p99 at this rate (scheduler and steal
        // stalls), so 5 ms would measure the host, not the daemon.
        Kind::AssessWarm => Profile { rate: 2_000.0, limit_ms: 20.0 },
        // Closed loop: no offered rate; the limit is never binding.
        Kind::Search => Profile { rate: 0.0, limit_ms: f64::INFINITY },
    }
}

pub struct Args {
    pub kind: Kind,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut kind = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(value).ok_or_else(|| format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(value.parse::<u64>().map_err(|e| format!("--seconds: {e}"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.unwrap_or(15);
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required (assess-cold, assess-warm, search)")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// One named metric of the final JSON line.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything a run reports.
#[derive(Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    pub lines: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    /// Wrong answers and failed self-checks; any makes the run incorrect.
    pub errors: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    pub fn line(&mut self, line: impl Into<String>) {
        self.lines.push(line.into());
    }

    /// Counts a phase's requests; failures (errors and `Busy`) count in
    /// `failed`.
    pub fn count(&mut self, samples: &[Sample]) {
        self.attempted += samples.len() as u64;
        self.failed += samples.iter().filter(|s| s.reply.answer.is_err()).count() as u64;
    }
}

/// Binds a daemon on a fresh store directory, serves it on a scoped
/// thread while `body` runs, then shuts it down and joins it — also when
/// `body` panics, so a failing run never leaves the daemon behind.
fn with_daemon<R>(store: &Path, body: impl FnOnce(SocketAddr) -> R) -> R {
    let _ = std::fs::remove_dir_all(store);
    let config = ServerConfig {
        workers: WORKERS,
        cache_capacity: CACHE_CAPACITY,
        store_dir: Some(store.to_path_buf()),
        ..ServerConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", config).expect("bind the daemon");
    let addr = server.local_addr();
    let result = std::thread::scope(|scope| {
        let daemon = scope.spawn(|| server.run());
        let result = catch_unwind(AssertUnwindSafe(|| body(addr)));
        let stopped = Client::connect(addr).and_then(|mut c| c.shutdown());
        if let Err(e) = stopped {
            server.begin_shutdown();
            eprintln!("warning: shutdown frame failed ({e}); stopped the daemon directly");
        }
        daemon.join().expect("daemon thread panicked");
        result
    });
    let _ = std::fs::remove_dir_all(store);
    result.unwrap_or_else(|panic| resume_unwind(panic))
}

/// Chunks the assess layer sampled and checked so far, process-wide.
pub fn chunk_counts() -> (u64, u64) {
    let snap = recloud_obs::global().snapshot();
    let count = |name: &str| snap.histogram(name).map_or(0, |h| h.count);
    (count("assess.sampling_us"), count("assess.check_us"))
}

/// Makes every worker's Medium engine warm: sends one set-up request per
/// connection concurrently, round after round, until the workers have
/// sampled the set-up seed's table once each (an engine builds on its
/// worker's first request, so both workers have then answered).
fn warm_workers(addr: SocketAddr, gen: &Gen, chunks_per_assessment: u64) {
    let (sampled_before, _) = chunk_counts();
    let mut clients: Vec<Client> =
        (0..CONNECTIONS).map(|_| Client::connect(addr).expect("connect to the daemon")).collect();
    for round in 0..64u64 {
        std::thread::scope(|scope| {
            for (c, client) in clients.iter_mut().enumerate() {
                let req = gen.setup_request(round * CONNECTIONS as u64 + c as u64);
                scope.spawn(move || client.assess(req).expect("set-up request"));
            }
        });
        let (sampled, _) = chunk_counts();
        if sampled - sampled_before >= WORKERS as u64 * chunks_per_assessment {
            return;
        }
    }
    panic!("set-up could not reach every worker");
}

/// State the measured part of a run needs from set-up.
pub struct Bench<'a> {
    pub args: &'a Args,
    pub gen: &'a Gen,
    pub oracle: &'a mut verify::Oracle,
    pub addr: SocketAddr,
    pub out_dir: &'a Path,
}

fn run(args: &Args, out_dir: &Path) -> Report {
    let ticks = host::cpu_ticks();
    let mut setups = Vec::new();
    for rep in 0..SETUP_REPS {
        let t0 = Instant::now();
        let topology = Scale::Medium.build();
        let hosts: Vec<u32> = topology.hosts().iter().map(|h| h.index() as u32).collect();
        let gen = Gen::new(args.kind, args.seed, hosts);
        let mut oracle = verify::Oracle::new(topology);
        let chunks = oracle.assessor(0).chunk_layout(gen::ROUNDS as usize).len() as u64;
        let store = out_dir.join(format!("store-{}-{}-{rep}", args.kind.name(), args.seed));
        let last = rep + 1 == SETUP_REPS;
        let report = with_daemon(&store, |addr| {
            warm_workers(addr, &gen, chunks);
            setups.push(t0.elapsed().as_secs_f64());
            if !last {
                return None;
            }
            let mut bench = Bench { args, gen: &gen, oracle: &mut oracle, addr, out_dir };
            Some(if args.trace {
                layers::run(&mut bench)
            } else if args.kind == Kind::Search {
                run_search(&mut bench)
            } else {
                run_assess(&mut bench)
            })
        });
        if let Some(mut report) = report {
            let (steal, total) = host::cpu_ticks();
            report.line(format!(
                "host: cpu steal {} over the run, available_parallelism {}",
                stats::Ratio::new((steal - ticks.0) as f64, (total - ticks.1) as f64),
                std::thread::available_parallelism().map_or(0, |n| n.get())
            ));
            let setup_s = stats::median(&stats::sorted(&setups));
            report.lines.insert(
                0,
                format!("setup: median {setup_s:.4} s over {SETUP_REPS} set-ups {setups:.4?}"),
            );
            if !args.trace {
                report.metrics.insert(0, Metric { name: "setup_s", value: setup_s, unit: "s" });
            }
            return report;
        }
    }
    unreachable!("the last set-up returns a report")
}

/// Counters read before and after the measured window.
pub struct Window {
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_evictions: u64,
    pub busy: u64,
    pub store_appended: u64,
    pub store_compactions: u64,
    pub symmetry_skips: u64,
    pub plans_assessed: u64,
    pub sampled_chunks: u64,
    pub checked_chunks: u64,
}

impl Window {
    pub fn read(addr: SocketAddr) -> Window {
        let mut client = Client::connect(addr).expect("connect to the daemon");
        let m = client.metrics(0).expect("metrics dump").snapshot;
        let c = |name: &str| m.counter(name).unwrap_or(0);
        let (sampled_chunks, checked_chunks) = chunk_counts();
        Window {
            cache_hits: c("server.cache_hits_total"),
            cache_misses: c("server.cache_misses_total"),
            cache_evictions: c("server.cache_evictions_total"),
            busy: c("server.busy_total"),
            store_appended: c("store.appended_total"),
            store_compactions: c("store.compactions_total"),
            symmetry_skips: c("search.symmetry_skips_total"),
            plans_assessed: c("search.plans_assessed_total"),
            sampled_chunks,
            checked_chunks,
        }
    }

    /// `later - self`, field by field.
    pub fn delta(&self, later: &Window) -> Window {
        Window {
            cache_hits: later.cache_hits - self.cache_hits,
            cache_misses: later.cache_misses - self.cache_misses,
            cache_evictions: later.cache_evictions - self.cache_evictions,
            busy: later.busy - self.busy,
            store_appended: later.store_appended - self.store_appended,
            store_compactions: later.store_compactions - self.store_compactions,
            symmetry_skips: later.symmetry_skips - self.symmetry_skips,
            plans_assessed: later.plans_assessed - self.plans_assessed,
            sampled_chunks: later.sampled_chunks - self.sampled_chunks,
            checked_chunks: later.checked_chunks - self.checked_chunks,
        }
    }
}

/// A phase's requests and the samples they produced.
pub type Phase = (Vec<Item>, Vec<Sample>);

/// Runs `n` requests of phase `stream` open-loop at `rate`.
pub fn open_phase(b: &Bench, stream: u64, rate: f64, n: usize) -> Phase {
    let items: Vec<Item> = (0..n as u64).map(|i| b.gen.item(stream, i)).collect();
    let offsets = b.gen.poisson_offsets(stream, rate, n);
    let samples = load::open_loop(b.addr, &offsets, CONNECTIONS, &|c, i| load::send(c, &items[i]));
    (items, samples)
}

/// Requests a phase at `rate` sends: `seconds` worth, at least
/// [`MIN_SAMPLES`].
pub fn phase_len(rate: f64, seconds: f64) -> usize {
    ((rate * seconds) as usize).max(MIN_SAMPLES)
}

pub fn verdict(samples: &[Sample], limit_ms: f64) -> slo::Verdict {
    let latency: Vec<Option<f64>> =
        samples.iter().map(|s| s.reply.answer.as_ref().ok().map(|_| s.latency_us / 1e3)).collect();
    let lateness: Vec<f64> = samples.iter().map(|s| s.lateness_us / 1e3).collect();
    slo::judge(&latency, &lateness, limit_ms)
}

/// Median and tail of the sample latencies, ms, with the tail's
/// percentile and the sample count.
/// Below 20 samples the tail percentile would sit under the median; the
/// maximum is reported instead (as p100).
pub fn latency_summary(samples: &[Sample], of: impl Fn(&Sample) -> f64) -> (f64, f64, f64, usize) {
    let ok: Vec<f64> =
        samples.iter().filter(|s| s.reply.answer.is_ok()).map(|s| of(s) / 1e3).collect();
    let sorted = stats::sorted(&ok);
    let Some(&max) = sorted.last() else { return (0.0, 0.0, 0.0, 0) };
    let (q, tail) = match stats::tail(&sorted) {
        Some(t) if sorted.len() >= 20 => t,
        _ => (1.0, max),
    };
    (stats::median(&sorted), tail, q, sorted.len())
}

/// Mean of `of` over each consecutive round of the four K-of-N settings
/// (the `search` request mix), µs.
pub fn round_means(samples: &[Sample], of: impl Fn(&Sample) -> f64) -> Vec<f64> {
    samples
        .chunks_exact(gen::SETTINGS.len())
        .map(|round| stats::mean(&round.iter().map(&of).collect::<Vec<_>>()))
        .collect()
}

/// Median and tail latency from due time as the medians over up to
/// [`WINDOWS`] consecutive windows of at least [`MIN_SAMPLES`] requests
/// each, so a stall confined to one window moves neither. Returns
/// `(p50, tail, q, samples per window, window p50s, window tails)`.
pub fn windowed_latency(samples: &[Sample]) -> (f64, f64, f64, usize, Vec<f64>, Vec<f64>) {
    let windows = (samples.len() / MIN_SAMPLES).clamp(1, WINDOWS);
    let per = samples.len() / windows;
    let (mut p50s, mut tails, mut q) = (Vec::new(), Vec::new(), 0.0);
    for w in samples.chunks(per).take(windows) {
        let (p50, tail, wq, _) = latency_summary(w, |s| s.latency_us);
        p50s.push(p50);
        tails.push(tail);
        q = wq;
    }
    let (p50, tail) = (stats::median(&stats::sorted(&p50s)), stats::median(&stats::sorted(&tails)));
    (p50, tail, q, per, p50s, tails)
}

/// Checks served assessments: every answer for one request must equal
/// the first answer computed for it (so every cache hit equals its
/// first computed answer), and `sample` of the distinct requests must
/// equal the in-process oracle bit for bit. Done outside timed windows.
pub fn check_assessments(
    b: &mut Bench,
    served: &[(&AssessRequest, &Sample)],
    sample: usize,
    report: &mut Report,
) {
    type Key<'a> = (u64, u32, u32, &'a Vec<Vec<u32>>);
    let mut first: HashMap<Key, &recloud_server::protocol::AssessResponse> = HashMap::new();
    let mut distinct = Vec::new();
    for (req, s) in served {
        let Ok(Answer::Assess(got)) = &s.reply.answer else { continue };
        let key = (req.seed, req.k, req.n, &req.assignments);
        match first.get(&key) {
            Some(want) if !verify::same_assess(want, got) => report
                .errors
                .push(format!("request {} answered {got:?}, earlier {want:?}", s.index)),
            Some(_) => {}
            None => {
                first.insert(key, got);
                distinct.push((*req, got));
            }
        }
    }
    let picks = b.gen.sample_indices(streams::FIXED, distinct.len(), sample);
    for &i in &picks {
        let (req, got) = distinct[i];
        if let Err(e) = b.oracle.check_assess(req, got) {
            report.errors.push(e);
        }
    }
    report.line(format!(
        "verified: {} of {} distinct answers bit-identical to in-process Assessor::assess; \
         {} repeats equal their first answer",
        picks.len(),
        distinct.len(),
        served.len() - distinct.len()
    ));
}

fn lateness_line(name: &str, samples: &[Sample]) -> String {
    let late = stats::sorted(&samples.iter().map(|s| s.lateness_us).collect::<Vec<_>>());
    let (q, tail) = stats::tail(&late).unwrap_or((1.0, *late.last().unwrap_or(&0.0)));
    format!(
        "{name}: generator lateness p50 {:.1} us, p{:.1} {:.1} us, max {:.1} us (n={})",
        stats::median(&late),
        q * 100.0,
        tail,
        late.last().unwrap_or(&0.0),
        late.len()
    )
}

/// The `slo_rps` rate search, starting from an already-judged phase at
/// the workload's fixed rate. Each probe is an open-loop phase of its
/// own of at least [`MIN_SAMPLES`] requests. Returns the rate and every
/// probe's requests and samples, for verification.
pub fn slo_search(b: &Bench, known: &[Sample], report: &mut Report) -> (f64, Vec<Phase>) {
    let p = profile(b.args.kind);
    let mut probe_samples: Vec<Phase> = Vec::new();
    let deadline = Instant::now() + SLO_BUDGET;
    let mut probe = |rate: f64| {
        if Instant::now() >= deadline {
            return None;
        }
        let stream = streams::PROBE + probe_samples.len() as u64;
        let (items, samples) = open_phase(b, stream, rate, phase_len(rate, SLO_PROBE_SECONDS));
        let v = verdict(&samples, p.limit_ms);
        probe_samples.push((items, samples));
        Some(v)
    };
    let known = slo::Probe { rate: p.rate, verdict: verdict(known, p.limit_ms) };
    let (slo_rps, probes) =
        slo::rate_search(known, SLO_STEP, SLO_RESOLUTION, SLO_MAX_PROBES, &mut probe);
    for pr in &probes {
        report.line(format!(
            "  probe {:.1} req/s: p{:.1} {:.3} ms, backlog growth {:.3} ms -> {}",
            pr.rate,
            pr.verdict.q * 100.0,
            pr.verdict.tail_ms,
            pr.verdict.backlog_growth_ms,
            if pr.verdict.passed { "pass" } else { "miss" }
        ));
    }
    report.line(format!(
        "slo_rps {slo_rps:.2} req/s: highest rate with tail <= {} ms and no growing backlog \
         ({} probes from {} req/s, resolution {:.0}%)",
        p.limit_ms,
        probes.len(),
        p.rate,
        SLO_RESOLUTION * 100.0
    ));
    for (_, s) in &probe_samples {
        report.count(s);
    }
    (slo_rps, probe_samples)
}

/// Each served assessment with the request it answered.
pub fn assess_pairs<'a>(
    phases: &[(&'a [Item], &'a [Sample])],
) -> Vec<(&'a AssessRequest, &'a Sample)> {
    let mut out = Vec::new();
    for (items, samples) in phases {
        for s in samples.iter() {
            if let Item::Assess { req, .. } = &items[s.index] {
                out.push((req, s));
            }
        }
    }
    out
}

/// `assess-cold` and `assess-warm`: a fixed-rate phase for the latency
/// metrics, then answer verification and the workload's self-checks.
fn run_assess(b: &mut Bench) -> Report {
    let mut report = Report::default();
    let p = profile(b.args.kind);
    let seconds = b.args.seconds as f64;
    let before = Window::read(b.addr);

    let (fixed_items, fixed) = open_phase(b, streams::FIXED, p.rate, phase_len(p.rate, seconds));
    report.count(&fixed);
    let (p50, tail, q, n, p50s, tails) = windowed_latency(&fixed);
    let fixed_verdict = verdict(&fixed, p.limit_ms);
    report.line(format!(
        "fixed rate {:.0} req/s: latency from due p50 {p50:.4} ms, p{:.1} {tail:.4} ms (medians \
         over {} windows of n={n}: p50s {p50s:.4?}, tails {tails:.4?}), limit {} ms {}",
        p.rate,
        q * 100.0,
        p50s.len(),
        p.limit_ms,
        if fixed_verdict.passed { "met" } else { "missed" }
    ));
    report.line(lateness_line("fixed rate", &fixed));
    report.metric("latency_p50_ms", p50, "ms");

    let w = before.delta(&Window::read(b.addr));
    report.line(host::memory_line());

    // Verification and self-checks, outside the timed windows.
    let served = assess_pairs(&[(&fixed_items, &fixed)]);
    let checks = if b.args.kind == Kind::AssessCold { COLD_CHECKS } else { WARM_CHECKS };
    check_assessments(b, &served, checks, &mut report);
    let hits = stats::Ratio::new(w.cache_hits as f64, (w.cache_hits + w.cache_misses) as f64);
    let reuse = stats::Ratio::new(
        w.checked_chunks as f64 - w.sampled_chunks as f64,
        w.checked_chunks as f64,
    );
    report.line(format!(
        "self-check: cache hit ratio {hits}, table reuse ratio {reuse} (reused/assessed chunks), \
         sampled chunks {}",
        w.sampled_chunks
    ));
    match b.args.kind {
        Kind::AssessCold if w.cache_hits != 0 || w.sampled_chunks != w.checked_chunks => {
            report.errors.push(format!(
                "assess-cold must miss every cache: {} cache hits, {} of {} chunks reused",
                w.cache_hits,
                w.checked_chunks - w.sampled_chunks,
                w.checked_chunks
            ))
        }
        Kind::AssessWarm if w.sampled_chunks != 0 => report
            .errors
            .push(format!("assess-warm sampled {} chunks after set-up", w.sampled_chunks)),
        _ => {}
    }
    if b.args.kind == Kind::AssessWarm {
        report.line(ping_calibration(b));
    }
    report
}

/// `Ping`-only open loop at the `assess-warm` rate: the generator's own
/// latency floor and lateness, so a serving-layer gain is not capped by
/// the generator unseen.
fn ping_calibration(b: &Bench) -> String {
    let rate = profile(Kind::AssessWarm).rate;
    let n = phase_len(rate, 1.0);
    let offsets = b.gen.poisson_offsets(0xCA11, rate, n);
    let samples = load::open_loop(b.addr, &offsets, CONNECTIONS, &|c, i| {
        let answer = c.ping(i as u64).map(|_| Answer::Pong).map_err(|e| e.to_string());
        load::Reply { answer, replied: Instant::now(), streamed: 0, spans: Vec::new() }
    });
    let (p50, tail, q, n) = latency_summary(&samples, |s| s.latency_us);
    format!(
        "ping calibration at {rate:.0} req/s: latency from due p50 {:.1} us, p{:.1} {:.1} us \
         (n={n}); {}",
        p50 * 1e3,
        q * 100.0,
        tail * 1e3,
        lateness_line("ping", &samples)
    )
}

/// `search`: back-to-back `SearchStream` requests on one connection for
/// the run's window; one seeded search is recomputed in process.
fn run_search(b: &mut Bench) -> Report {
    let mut report = Report::default();
    let before = Window::read(b.addr);
    let mut items = Vec::new();
    let gen = b.gen;
    let window = Duration::from_secs(b.args.seconds);
    let started = Instant::now();
    let samples = load::closed_loop(b.addr, window, 8, gen::SETTINGS.len(), &mut |client, i| {
        let item = gen.item(streams::FIXED, i as u64);
        let reply = load::send(client, &item);
        items.push(item);
        reply
    });
    let wall = started.elapsed().as_secs_f64();
    let w = before.delta(&Window::read(b.addr));
    let memory = host::memory_line();
    report.count(&samples);
    let rounds = round_means(&samples, |s| s.latency_us / 1e3);
    let sorted_rounds = stats::sorted(&rounds);
    let round_p50 = stats::median(&sorted_rounds);
    let (p50, tail, q, n) = latency_summary(&samples, |s| s.latency_us);
    let plans: u64 = samples
        .iter()
        .filter_map(|s| match &s.reply.answer {
            Ok(Answer::Search(r)) => Some(r.plans_assessed),
            _ => None,
        })
        .sum();
    let busy_s: f64 = samples.iter().map(|s| s.service_us / 1e6).sum();
    report.line(format!(
        "search_s {:.4} s: median over {} rounds of the mean search time of each round of the \
         four settings (max {:.4} s); per search p50 {:.4} s, p{:.1} {:.4} s (n={n})",
        round_p50 / 1e3,
        rounds.len(),
        sorted_rounds.last().copied().unwrap_or(0.0) / 1e3,
        p50 / 1e3,
        q * 100.0,
        tail / 1e3,
    ));
    report.line(format!(
        "plans_per_s {:.1} ({plans} plans / {busy_s:.3} s); {:.1} SearchEvent frames per search",
        plans as f64 / busy_s,
        stats::mean(&samples.iter().map(|s| s.reply.streamed as f64).collect::<Vec<_>>())
    ));
    for (k, (kk, nn)) in gen::SETTINGS.iter().enumerate() {
        let per: Vec<f64> = samples
            .iter()
            .filter(|s| s.index % gen::SETTINGS.len() == k)
            .map(|s| s.latency_us / 1e6)
            .collect();
        report.line(format!("  {kk}-of-{nn} searches: {per:.3?} s"));
    }
    report.line(format!(
        "symmetry skip ratio {} (skips/(skips+assessed))",
        stats::Ratio::new(w.symmetry_skips as f64, (w.symmetry_skips + w.plans_assessed) as f64)
    ));
    report.metric("latency_p50_ms", round_p50, "ms");
    report.line(memory);
    report.line(format!(
        "{:.4} searches/s completed by one closed-loop tenant",
        samples.len() as f64 / wall
    ));

    let pick = b.gen.sample_indices(streams::FIXED, samples.len(), 1)[0];
    if let (Item::Search { req }, Ok(Answer::Search(got))) =
        (&items[pick], &samples[pick].reply.answer)
    {
        match b.oracle.check_search(req, SEARCH_ITERS, got) {
            Ok(()) => report.line(format!(
                "verified: search {pick} bit-identical to in-process ParallelSearcher::search"
            )),
            Err(e) => report.errors.push(e),
        }
    }
    report
}

fn json_line(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, finite(m.value), m.unit)
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.errors.is_empty() && report.failed == 0,
        report.attempted.max(1),
        report.failed,
        metrics.join(", ")
    )
}

/// JSON has no infinities; an unmeasurable value reads as a large one.
fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        f64::MAX
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: --workload <assess-cold|assess-warm|search> --seed <n> --seconds <s> \
                 --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let out_dir = PathBuf::from(".bench_out");
    std::fs::create_dir_all(&out_dir).expect("create .bench_out");
    let report = host::with_awake_cpus(|| run(&args, &out_dir));
    println!("workload {} seed {} ({} s window)", args.kind.name(), args.seed, args.seconds);
    for line in &report.lines {
        println!("  {line}");
    }
    for m in &report.metrics {
        println!("  {} = {} {}", m.name, m.value, m.unit);
    }
    println!(
        "  failed_frac {} (errors + busy + wrong answers / attempted)",
        stats::Ratio::new(
            (report.failed + report.errors.len() as u64) as f64,
            report.attempted as f64
        )
    );
    for e in &report.errors {
        println!("  WRONG: {e}");
    }
    println!("{}", json_line(&report));
    if report.errors.is_empty() && report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
