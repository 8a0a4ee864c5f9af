//! The traced run (`--trace 1`): per-layer metrics on the workload's own
//! generated inputs, and the blocking-path attribution of the end-to-end
//! median.
//!
//! The daemon serves an untraced phase (counters, and the untraced
//! latency the trace overhead is measured against) and then a traced
//! phase whose requests arm the daemon's existing tracing with a
//! `TraceContext` frame and fetch the spans back with `TraceDump`
//! (`queue.wait`, `worker.exec`). Then each layer's public functions are
//! timed in process on the same inputs, each call under a span the
//! benchmark records itself. All spans stay in memory and are written as
//! one Chrome trace-event file when the run ends.

use crate::gen::{streams, Item, Kind, CACHE_CAPACITY, ROUNDS, SEARCH_CHAINS, SEARCH_ITERS};
use crate::load::{self, Answer, Sample};
use crate::stats::{self, Ratio};
use crate::{profile, Bench, Report, Window};
use recloud_assess::{assessment_key, Assessor, Timings};
use recloud_faults::FaultModel;
use recloud_sampling::{derive_seed, BitMatrix, ExtendedDaggerSampler, Sampler};
use recloud_server::engine::{build_plan, shape_for, spec_for};
use recloud_server::protocol::{
    AssessRequest, AssessResponse, PartialResponse, Request, Response, SearchEventResponse,
    SearchRequest, SearchResponse, TraceSpan,
};
use recloud_server::ResultCache;
use recloud_store::{Entry, Op, Store, StoreConfig};
use std::io::Write;
use std::ops::ControlFlow;
use std::path::Path;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// Trace ids of traced requests start here (request `i` is `BASE + i`).
const TRACE_BASE: u64 = 1 << 40;
/// Trace id of the benchmark's in-process layer timings.
const LAYER_TRACE: u64 = 1;
/// The client-side span every traced request's server spans hang under
/// (client ids start at `recloud_obs::trace::CLIENT_ID_BASE`).
const CLIENT_SPAN: u32 = recloud_obs::trace::CLIENT_ID_BASE + 1;
/// Inputs each in-process layer timing replays, at most.
const LAYER_INPUTS: usize = 2_000;
/// Traced requests whose spans go to the Chrome trace file, at most.
const TRACED_KEPT: usize = 2_000;
/// In-process layer-call spans kept for the Chrome trace file, at most.
const LAYER_SPANS_KEPT: usize = 20_000;
/// Cold inputs replayed through `Assessor::drive` (each ~10 ms).
const COLD_DRIVES: usize = 32;

/// One span: a call into a layer, or a daemon stage.
struct Span {
    trace: u64,
    id: u32,
    parent: u32,
    name: String,
    start_us: u64,
    end_us: u64,
}

/// In-memory span store, written out once at the end of the run.
struct Recorder {
    epoch: Instant,
    epoch_unix_us: u64,
    spans: Vec<Span>,
    next_id: u32,
}

impl Recorder {
    fn new() -> Recorder {
        let unix = SystemTime::now().duration_since(UNIX_EPOCH).expect("clock after 1970");
        Recorder {
            epoch: Instant::now(),
            epoch_unix_us: unix.as_micros() as u64,
            spans: Vec::new(),
            next_id: CLIENT_SPAN + 1,
        }
    }

    fn unix_us(&self, t: Instant) -> u64 {
        self.epoch_unix_us + (t - self.epoch).as_micros() as u64
    }

    /// Runs `f` under a span `name` of the layer-timing trace; returns
    /// its result and its duration in µs.
    fn time<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> (R, f64) {
        let start = Instant::now();
        let r = std::hint::black_box(f());
        let end = Instant::now();
        self.next_id += 1;
        if self.next_id - CLIENT_SPAN > LAYER_SPANS_KEPT as u32 {
            return (r, load::us(end - start));
        }
        self.spans.push(Span {
            trace: LAYER_TRACE,
            id: self.next_id,
            parent: 0,
            name: name.to_string(),
            start_us: self.unix_us(start),
            end_us: self.unix_us(end),
        });
        (r, load::us(end - start))
    }

    /// A traced request: the client span plus the daemon's spans.
    fn request(&mut self, trace: u64, sample: &Sample) {
        let end = self.unix_us(sample.reply.replied);
        let start = end.saturating_sub(sample.service_us as u64);
        self.spans.push(Span {
            trace,
            id: CLIENT_SPAN,
            parent: 0,
            name: "client.request".into(),
            start_us: start,
            end_us: end,
        });
        for s in &sample.reply.spans {
            self.spans.push(Span {
                trace,
                id: s.id,
                parent: s.parent,
                name: s.kind.clone(),
                start_us: s.start_us,
                end_us: s.end_us.max(s.start_us),
            });
        }
    }

    /// Chrome trace-event JSON: one complete (`X`) event per span, one
    /// row per trace, ids and parents in `args`.
    fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        let t0 = self.spans.iter().map(|s| s.start_us).min().unwrap_or(0);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{{\"traceEvents\": [")?;
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"name\": \"{}\", \"ph\": \"X\", \"ts\": {}, \"dur\": {}, \"pid\": 1, \
                 \"tid\": {}, \"args\": {{\"trace\": {}, \"span\": {}, \"parent\": {}}}}}{}",
                s.name,
                s.start_us - t0,
                s.end_us - s.start_us,
                s.trace,
                s.trace,
                s.id,
                s.parent,
                if i + 1 < self.spans.len() { "," } else { "" }
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}

fn span_us(spans: &[TraceSpan], kind: &str) -> Option<f64> {
    spans
        .iter()
        .find(|s| s.kind == kind && s.end_us >= s.start_us)
        .map(|s| (s.end_us - s.start_us) as f64)
}

/// Sends `item` with the daemon's tracing armed, then fetches the trace.
fn traced_send(client: &mut recloud_server::Client, item: &Item, trace: u64) -> load::Reply {
    if let Err(e) = client.set_trace(trace, CLIENT_SPAN) {
        return load::Reply {
            answer: Err(e.to_string()),
            replied: Instant::now(),
            streamed: 0,
            spans: Vec::new(),
        };
    }
    let mut reply = load::send(client, item);
    match client.trace_dump(trace) {
        Ok(t) => reply.spans = t.spans,
        Err(e) => reply.answer = Err(format!("trace dump: {e}")),
    }
    reply
}

/// An assessment input of the in-process layer timings.
struct Input {
    req: AssessRequest,
    answer: AssessResponse,
}

/// Per-layer figures; names follow `BENCHMARK.json`'s `per_layer`.
#[derive(Default)]
struct Layers {
    codec_us: f64,
    bytes_per_req: f64,
    lookup_us: f64,
    append_us: f64,
    reseed_us: f64,
    sampling_us: f64,
    collapse_us: f64,
    check_us: f64,
    check_rounds_per_s: f64,
    total_us: f64,
    unattributed: Ratio,
    assess_other_us: f64,
    table_cache_bytes: f64,
    search_us_per_plan: f64,
    search_plans: f64,
    search_wall_us: f64,
    /// Per `Assessor::drive`: sampling, collapse and check µs from the
    /// returned `Timings`.
    drive_stages: [f64; 3],
    /// Per search, on the critical path (÷ chains): sampling, collapse
    /// and check µs from the assess layer's stage histograms.
    search_stages: [f64; 3],
    /// Symmetry skips ÷ (skips + plans assessed) of the timed searches.
    symmetry: Ratio,
}

pub fn run(b: &mut Bench) -> Report {
    let mut report = Report::default();
    let mut rec = Recorder::new();
    let kind = b.args.kind;
    let seconds = b.args.seconds as f64;

    // Untraced phase, then traced phase, on distinct requests.
    let before = Window::read(b.addr);
    let started = Instant::now();
    let (untraced_items, untraced) = phase(b, streams::FIXED, seconds / 2.0, false);
    let untraced_wall = started.elapsed().as_secs_f64();
    let w = before.delta(&Window::read(b.addr));
    // Capacity: the rate search for the open-loop workloads; for the
    // closed `search` loop, the searches one tenant completes per second.
    let (slo_rps, probes) = if kind == Kind::Search {
        (untraced.len() as f64 / untraced_wall, Vec::new())
    } else {
        crate::slo_search(b, &untraced, &mut report)
    };
    let (traced_items, traced) = phase(b, streams::TRACED, seconds / 2.0, true);
    report.count(&untraced);
    report.count(&traced);
    for s in traced.iter().take(TRACED_KEPT) {
        rec.request(TRACE_BASE + s.index as u64, s);
    }

    // Served-answer checks (as in the untraced run) on both phases.
    let mut phases: Vec<(&[Item], &[Sample])> =
        vec![(&untraced_items, &untraced), (&traced_items, &traced)];
    phases.extend(probes.iter().map(|(i, s)| (i.as_slice(), s.as_slice())));
    let served = crate::assess_pairs(&phases);
    if !served.is_empty() {
        let checks = if kind == Kind::AssessCold { 8 } else { 500 };
        crate::check_assessments(b, &served, checks, &mut report);
    }

    // Daemon-side stages from the traced requests.
    let queue: Vec<f64> =
        traced.iter().filter_map(|s| span_us(&s.reply.spans, "queue.wait")).collect();
    let queue_sorted = stats::sorted(&queue);
    let (queue_p50, queue_tail) = if queue_sorted.is_empty() {
        (0.0, 0.0)
    } else {
        let max = *queue_sorted.last().expect("non-empty");
        let tail = stats::tail(&queue_sorted).filter(|_| queue_sorted.len() >= 20);
        (stats::median(&queue_sorted), tail.map_or(max, |t| t.1))
    };
    let unattributed_server: Vec<f64> = traced
        .iter()
        .filter(|s| s.reply.answer.is_ok())
        .map(|s| {
            let exec = span_us(&s.reply.spans, "worker.exec").unwrap_or(0.0);
            let wait = span_us(&s.reply.spans, "queue.wait").unwrap_or(0.0);
            s.service_us - exec - wait
        })
        .collect();
    let server_unattributed_us = stats::median(&stats::sorted(&unattributed_server));

    // Trace overhead: service latency (send → final frame) traced vs not;
    // for `search`, per round of the four settings.
    let service = |s: &[Sample]| {
        if kind == Kind::Search {
            stats::median(&stats::sorted(&crate::round_means(s, |x| x.service_us))) / 1e3
        } else {
            crate::latency_summary(s, |x| x.service_us).0
        }
    };
    let (untraced_service, traced_service) = (service(&untraced), service(&traced));
    let overhead_pct = (traced_service - untraced_service) / untraced_service * 100.0;

    // In-process layer timings on the workload's own inputs.
    let inputs = inputs(b, &untraced_items, &untraced, &traced_items, &traced);
    let mut l = Layers::default();
    codec(&mut rec, &untraced_items, &untraced, &mut l);
    let ops = cache_replay(&mut rec, &inputs, &mut l);
    store_replay(&mut rec, b.out_dir, &ops, &mut l);
    engine_and_assess(&mut rec, b, &inputs, &mut l);
    search_layer(&mut rec, b, &inputs, &traced_items, &traced, &mut l, &mut report);

    let hits = Ratio::new(w.cache_hits as f64, (w.cache_hits + w.cache_misses) as f64);
    let reuse =
        Ratio::new(w.checked_chunks as f64 - w.sampled_chunks as f64, w.checked_chunks as f64);
    let skips = l.symmetry;
    let event_frames = if kind == Kind::Search {
        stats::mean(&untraced.iter().map(|s| s.reply.streamed as f64).collect::<Vec<_>>())
    } else {
        0.0
    };

    let m = &mut report;
    m.metric("protocol.codec_us", l.codec_us, "us");
    m.metric("protocol.bytes_per_req", l.bytes_per_req, "bytes");
    m.metric("cache.lookup_us", l.lookup_us, "us");
    m.metric("cache.hit_ratio", hits.value(), "ratio");
    m.metric("cache.evictions", w.cache_evictions as f64, "count");
    m.metric("queue.wait_p50_us", queue_p50, "us");
    m.metric("queue.wait_p99_us", queue_tail, "us");
    m.metric("server.busy", w.busy as f64, "count");
    m.metric("server.unattributed_us", server_unattributed_us, "us");
    m.metric("engine.reseed_us", l.reseed_us, "us");
    m.metric("engine.table_reuse_ratio", reuse.value(), "ratio");
    m.metric("sampling.us_per_chunk", l.sampling_us, "us");
    m.metric("collapse.us_per_chunk", l.collapse_us, "us");
    m.metric("check.us_per_chunk", l.check_us, "us");
    m.metric("check.rounds_per_s", l.check_rounds_per_s, "1/s");
    m.metric("assess.total_us", l.total_us, "us");
    m.metric("assess.unattributed_frac", l.unattributed.value(), "ratio");
    m.metric("assess.table_cache_bytes", l.table_cache_bytes, "bytes");
    m.metric("store.append_us", l.append_us, "us");
    m.metric("store.appends", w.store_appended as f64, "count");
    m.metric("store.compactions", w.store_compactions as f64, "count");
    m.metric("search.us_per_plan", l.search_us_per_plan, "us");
    m.metric("search.plans_assessed", l.search_plans, "count");
    m.metric("search.symmetry_skip_ratio", skips.value(), "ratio");
    m.metric("search.event_frames", event_frames, "count");
    m.metric("obs.trace_overhead_pct", overhead_pct, "%");
    m.metric("slo_rps", slo_rps, "1/s");

    report.line(format!("cache.hit_ratio {hits} (hits/lookups)"));
    report.line(format!("engine.table_reuse_ratio {reuse} (reused/assessed chunks)"));
    report
        .line(format!("assess.unattributed_frac {} (us outside stages/drive us)", l.unattributed));
    report.line(format!("search.symmetry_skip_ratio {skips} (skips/(skips+assessed))"));
    report.line(format!(
        "obs.trace_overhead_pct {overhead_pct:.2}% (service p50 traced {traced_service:.4} ms vs \
         untraced {untraced_service:.4} ms)"
    ));

    // Blocking-path attribution of the untraced end-to-end median: the
    // daemon's own spans for the serving layers, and the in-process
    // layer timings scaled by how often each layer ran per request.
    let e2e = if kind == Kind::Search {
        stats::median(&stats::sorted(&crate::round_means(&untraced, |s| s.latency_us)))
    } else {
        crate::latency_summary(&untraced, |s| s.latency_us).0 * 1e3
    };
    let path: Vec<(&str, f64)> = if kind == Kind::Search {
        vec![
            ("server.protocol", l.codec_us),
            ("sampling", l.search_stages[0]),
            ("faults (collapse)", l.search_stages[1]),
            ("routing (check)", l.search_stages[2]),
            (
                "search (annealing, symmetry)",
                l.search_wall_us - l.search_stages.iter().sum::<f64>(),
            ),
        ]
    } else {
        // The traced requests around the median (45th–55th percentile of
        // latency), split by their daemon spans; the worker's share is
        // split further by the in-process layer costs.
        let mut ok: Vec<&Sample> = traced.iter().filter(|s| s.reply.answer.is_ok()).collect();
        ok.sort_by(|a, b| a.latency_us.total_cmp(&b.latency_us));
        let band = &ok[ok.len() * 45 / 100..(ok.len() * 55 / 100).max(ok.len() * 45 / 100 + 1)];
        let mean = |f: &dyn Fn(&Sample) -> f64| {
            stats::mean(&band.iter().map(|s| f(s)).collect::<Vec<_>>())
        };
        let exec = |s: &Sample| span_us(&s.reply.spans, "worker.exec").unwrap_or(0.0);
        let wait = |s: &Sample| span_us(&s.reply.spans, "queue.wait").unwrap_or(0.0);
        let worked = mean(&|s| (exec(s) > 0.0) as u8 as f64);
        let reseed = if kind == Kind::AssessCold { l.reseed_us * worked } else { 0.0 };
        let stages: Vec<f64> = l.drive_stages.iter().map(|x| x * worked).collect();
        let other = l.assess_other_us * worked;
        let appends_per_miss = w.store_appended as f64 / w.cache_misses.max(1) as f64;
        let store = l.append_us * appends_per_miss * worked;
        let worker_rest = mean(&exec) - reseed - stages.iter().sum::<f64>() - other - store;
        vec![
            ("load (generator wait)", mean(&|s| s.lateness_us)),
            (
                "server.reactor (socket, frames)",
                mean(&|s| s.service_us - exec(s) - wait(s)) - l.codec_us - l.lookup_us,
            ),
            ("server.protocol", l.codec_us),
            ("server.cache", l.lookup_us),
            ("server (queue.wait)", mean(&wait)),
            ("server.engine (reseed)", reseed),
            ("sampling", stages[0]),
            ("faults (collapse)", stages[1]),
            ("routing (check)", stages[2]),
            ("assess (outside stages)", other),
            ("store", store),
            ("server (rest of worker.exec)", worker_rest),
        ]
    };
    report.line(format!(
        "blocking path of the untraced end-to-end median {e2e:.1} us (self time per request, us \
         and share):"
    ));
    let mut attributed = 0.0;
    for (layer, us) in &path {
        attributed += us;
        report.line(format!("  {layer:<32} {us:>12.2}  {:>7.2}%", us / e2e * 100.0));
    }
    let rest = e2e - attributed;
    report.line(format!(
        "  {:<32} {rest:>12.2}  {:>7.2}%  (median - sum of the above)",
        "unattributed",
        rest / e2e * 100.0
    ));

    let path = b.out_dir.join(format!("trace-{}-{}.json", kind.name(), b.args.seed));
    match rec.write_chrome(&path) {
        Ok(()) => {
            report.line(format!("chrome trace: {} ({} spans)", path.display(), rec.spans.len()))
        }
        Err(e) => report.errors.push(format!("writing {}: {e}", path.display())),
    }
    report
}

/// One phase of the traced run: open loop at the workload's rate, or the
/// closed search loop; `traced` arms the daemon's tracing per request.
fn phase(b: &Bench, stream: u64, seconds: f64, traced: bool) -> crate::Phase {
    let kind = b.args.kind;
    if kind == Kind::Search {
        let mut items = Vec::new();
        let window = std::time::Duration::from_secs_f64(seconds);
        let rounds = crate::gen::SETTINGS.len();
        let samples = load::closed_loop(b.addr, window, rounds, rounds, &mut |c, i| {
            let item = b.gen.item(stream, i as u64);
            let reply = if traced {
                traced_send(c, &item, TRACE_BASE + i as u64)
            } else {
                load::send(c, &item)
            };
            items.push(item);
            reply
        });
        return (items, samples);
    }
    let rate = profile(kind).rate;
    let n = crate::phase_len(rate, seconds);
    let items: Vec<Item> = (0..n as u64).map(|i| b.gen.item(stream, i)).collect();
    let offsets = b.gen.poisson_offsets(stream, rate, n);
    let samples = load::open_loop(b.addr, &offsets, crate::CONNECTIONS, &|c, i| {
        if traced {
            traced_send(c, &items[i], TRACE_BASE + i as u64)
        } else {
            load::send(c, &items[i])
        }
    });
    (items, samples)
}

/// The workload's assessment inputs in arrival order: its requests with
/// their served answers, or for `search` each search's final plan at the
/// search's seed.
fn inputs(
    b: &Bench,
    untraced_items: &[Item],
    untraced: &[Sample],
    traced_items: &[Item],
    traced: &[Sample],
) -> Vec<Input> {
    let mut out = Vec::new();
    let pairs = untraced.iter().map(|s| (&untraced_items[s.index], s));
    let pairs = pairs.chain(traced.iter().map(|s| (&traced_items[s.index], s)));
    for (item, s) in pairs {
        match (item, &s.reply.answer) {
            (Item::Assess { req, .. }, Ok(Answer::Assess(a))) => {
                out.push(Input { req: req.clone(), answer: *a })
            }
            (Item::Search { req }, Ok(Answer::Search(r))) => {
                let req = AssessRequest {
                    preset: req.preset,
                    rounds: req.rounds,
                    seed: req.seed,
                    k: req.k,
                    n: req.n,
                    assignments: vec![r.hosts.clone()],
                };
                let answer = AssessResponse {
                    score: r.reliability,
                    variance: 0.0,
                    rounds: req.rounds as u64,
                    successes: 0,
                    cached: false,
                };
                out.push(Input { req, answer });
            }
            _ => {}
        }
    }
    assert!(!out.is_empty() || b.args.kind == Kind::Search, "no served inputs");
    out
}

/// `Request`/`Response` encode + decode of each request's own frames.
fn codec(rec: &mut Recorder, items: &[Item], samples: &[Sample], l: &mut Layers) {
    let mut total_us = 0.0;
    let mut bytes = 0usize;
    let mut n = 0usize;
    for s in samples.iter().take(LAYER_INPUTS) {
        let Ok(answer) = &s.reply.answer else { continue };
        let mut frames = vec![];
        let final_frame = match answer {
            Answer::Assess(a) => {
                let p = PartialResponse {
                    rounds_done: a.rounds / 2,
                    rounds_total: a.rounds,
                    score: a.score,
                    ciw: a.variance.sqrt(),
                };
                frames.extend((0..s.reply.streamed).map(|_| Response::Partial(p)));
                Response::Assess(*a)
            }
            Answer::Search(r) => {
                let e = SearchEventResponse {
                    chain: 1,
                    iteration: 1_000,
                    elapsed_us: 1_000,
                    measure: r.reliability,
                    reliability: r.reliability,
                    temperature: 0.5,
                };
                frames.extend((0..s.reply.streamed).map(|_| Response::SearchEvent(e)));
                Response::Search(r.clone())
            }
            Answer::Pong => continue,
        };
        frames.push(final_frame);
        let request = items[s.index].request();
        let ((), us) = rec.time("protocol.codec", || {
            let wire = request.encode();
            bytes += wire.len();
            Request::decode(wire).expect("own request frame decodes");
            for f in &frames {
                let wire = f.encode();
                bytes += wire.len();
                Response::decode(wire).expect("own response frame decodes");
            }
        });
        total_us += us;
        n += 1;
    }
    l.codec_us = total_us / n.max(1) as f64;
    l.bytes_per_req = bytes as f64 / n.max(1) as f64;
}

/// `assessment_key` + `ResultCache::get`/`insert` replayed on the key
/// stream; returns the Put/Evict stream the daemon's store would see.
fn cache_replay(rec: &mut Recorder, inputs: &[Input], l: &mut Layers) -> Vec<Op> {
    let mut cache = ResultCache::new(CACHE_CAPACITY);
    let mut ops = Vec::new();
    let mut total = 0.0;
    for input in inputs {
        let r = &input.req;
        let spec = spec_for(r.k, r.n, 1);
        let plan = build_plan(&spec, &r.assignments).expect("generated plans are valid");
        let (evicted, us) = rec.time("cache.lookup", || {
            let key = assessment_key(
                r.preset.tag(),
                &shape_for(r.k, r.n, 1),
                &plan,
                r.rounds as u64,
                r.seed,
            );
            match cache.get(key) {
                Some(_) => None,
                None => Some((key, cache.insert(key, input.answer))),
            }
        });
        total += us;
        if let Some((key, victim)) = evicted {
            let a = &input.answer;
            ops.push(Op::Put(Entry {
                key,
                score: a.score,
                variance: a.variance,
                rounds: a.rounds,
                successes: a.successes,
            }));
            ops.extend(victim.map(Op::Evict));
        }
    }
    l.lookup_us = total / inputs.len().max(1) as f64;
    ops
}

/// `Store::append` of the Put/Evict stream on a fresh directory.
fn store_replay(rec: &mut Recorder, out_dir: &Path, ops: &[Op], l: &mut Layers) {
    let dir = out_dir.join(format!("layer-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (mut store, _) = Store::open(&dir, StoreConfig::default()).expect("open a fresh store");
    let mut total = 0.0;
    for op in ops.iter().take(LAYER_INPUTS * 2) {
        let (r, us) = rec.time("store.append", || store.append(op));
        r.expect("store append");
        total += us;
    }
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
    l.append_us = total / ops.len().clamp(1, LAYER_INPUTS * 2) as f64;
}

/// Engine reseed, sampler, collapse, check and whole-drive timings.
fn engine_and_assess(rec: &mut Recorder, b: &mut Bench, inputs: &[Input], l: &mut Layers) {
    let layout = b.oracle.engine().chunk_layout(ROUNDS as usize);
    let (chunk_rounds, chunks) = (layout[0].1, layout.len());

    // Fresh seeds: the workload's own when they differ, else derived.
    let mut seeds: Vec<u64> = Vec::new();
    for input in inputs {
        if seeds.len() < 8 && !seeds.contains(&input.req.seed) {
            seeds.push(input.req.seed);
        }
    }
    let mut j = 0;
    while seeds.len() < 8 {
        seeds.push(derive_seed(b.args.seed, 0xF5E5 + j));
        j += 1;
    }

    let reseeds: Vec<f64> =
        seeds.iter().map(|&seed| rec.time("engine.reseed", || b.oracle.reseed(seed)).1).collect();
    l.reseed_us = stats::mean(&reseeds);

    // Matrices allocated once and reused, as the assessor's arena is.
    let topology = b.oracle.topology().clone();
    let (mut sample_us, mut collapse_us) = (Vec::new(), Vec::new());
    let shape = FaultModel::paper_default(&topology, seeds[0]);
    let mut raw = BitMatrix::new(shape.num_events(), chunk_rounds);
    let mut collapsed = BitMatrix::new(shape.num_topology_components(), chunk_rounds);
    for &seed in seeds.iter().take(4) {
        let model = FaultModel::paper_default(&topology, seed);
        for c in 0..chunks as u32 {
            let mut sampler = ExtendedDaggerSampler::seeded(Assessor::chunk_seed(seed, c));
            sample_us.push(
                rec.time("sampling.sample_into", || sampler.sample_into(model.probs(), &mut raw)).1,
            );
            collapse_us.push(
                rec.time("faults.collapse_into", || model.collapse_into(&raw, &mut collapsed)).1,
            );
        }
    }
    l.sampling_us = stats::mean(&sample_us);
    l.collapse_us = stats::mean(&collapse_us);

    // Check on an already-sampled seed: the second assessment of a plan.
    let (mut check_s, mut check_rounds) = (0.0, 0u64);
    let mut check_chunks = 0usize;
    for input in inputs.iter().take(8) {
        let r = &input.req;
        let spec = spec_for(r.k, r.n, 1);
        let plan = build_plan(&spec, &r.assignments).expect("generated plans are valid");
        let assessor = b.oracle.assessor(r.seed);
        assessor.assess(&spec, &plan, r.rounds as usize, r.seed);
        let (a, _) =
            rec.time("routing.check", || assessor.assess(&spec, &plan, r.rounds as usize, r.seed));
        check_s += a.timings.check.as_secs_f64();
        check_rounds += a.estimate.rounds;
        check_chunks += chunks;
    }
    l.check_us = check_s * 1e6 / check_chunks.max(1) as f64;
    l.check_rounds_per_s = check_rounds as f64 / check_s.max(1e-9);

    // Whole drives in arrival order, reseeding as the engine pool does.
    let drives = if b.args.kind == Kind::AssessCold { COLD_DRIVES } else { LAYER_INPUTS };
    let mut sum = Timings::default();
    let mut wall = 0.0;
    let mut n = 0usize;
    for input in inputs.iter().take(drives) {
        let r = &input.req;
        let spec = spec_for(r.k, r.n, 1);
        let plan = build_plan(&spec, &r.assignments).expect("generated plans are valid");
        let assessor = b.oracle.assessor(r.seed);
        let (d, us) = rec.time("assess.drive", || {
            assessor.drive(&spec, &plan, r.rounds as usize, r.seed, None, &mut |_| {
                ControlFlow::Continue(())
            })
        });
        sum.merge(&d.assessment.timings);
        wall += us;
        n += 1;
        l.table_cache_bytes = assessor.cache_bytes() as f64;
    }
    let total = sum.total.as_secs_f64() * 1e6;
    let stages = (sum.sampling + sum.collapse + sum.check).as_secs_f64() * 1e6;
    let per_drive = |d: std::time::Duration| d.as_secs_f64() * 1e6 / n.max(1) as f64;
    l.total_us = wall / n.max(1) as f64;
    l.unattributed = Ratio::new(total - stages, total);
    l.assess_other_us = (total - stages) / n.max(1) as f64;
    l.drive_stages = [per_drive(sum.sampling), per_drive(sum.collapse), per_drive(sum.check)];
}

/// `ParallelSearcher::search` under `stream_search_config`: for `search`,
/// the first round of the traced searches (one per setting), each of
/// which must also equal the daemon's answer bit for bit; otherwise one
/// 200-iteration search from the workload's first input.
fn search_layer(
    rec: &mut Recorder,
    b: &mut Bench,
    inputs: &[Input],
    items: &[Item],
    samples: &[Sample],
    l: &mut Layers,
    report: &mut Report,
) {
    let mut runs: Vec<(SearchRequest, u32, Option<&SearchResponse>)> = Vec::new();
    for s in samples.iter().take(crate::gen::SETTINGS.len()) {
        if let (Item::Search { req }, Ok(Answer::Search(got))) = (&items[s.index], &s.reply.answer)
        {
            runs.push((*req, SEARCH_ITERS, Some(got)));
        }
    }
    if runs.is_empty() {
        let r = &inputs[0].req;
        let req = SearchRequest {
            preset: r.preset,
            rounds: r.rounds,
            seed: r.seed,
            k: r.k,
            n: r.n,
            budget_ms: 0,
        };
        runs.push((req, 200, None));
    }
    let stage_sums = || {
        let snap = recloud_obs::global().snapshot();
        let sum = |name: &str| snap.histogram(name).map_or(0.0, |h| h.sum as f64);
        let count = |name: &str| snap.counter(name).unwrap_or(0) as f64;
        [
            sum("assess.sampling_us"),
            sum("assess.collapse_us"),
            sum("assess.check_us"),
            count("search.symmetry_skips_total"),
            count("search.plans_assessed_total"),
        ]
    };
    let before = stage_sums();
    let (mut wall, mut plans) = (0.0, 0.0);
    for (req, iters, served) in &runs {
        let (outcome, us) = rec.time("search.parallel", || b.oracle.search(req, *iters));
        wall += us;
        plans += outcome.plans_assessed as f64;
        if let Some(got) = served {
            if !crate::verify::same_search(&outcome, got) {
                report.errors.push(format!(
                    "search seed {}: served {got:?}, in-process {outcome:?}",
                    req.seed
                ));
            }
        }
    }
    let after = stage_sums();
    let per_search = (runs.len() * SEARCH_CHAINS as usize) as f64;
    l.search_stages = [0, 1, 2].map(|i| (after[i] - before[i]) / per_search);
    let skips = after[3] - before[3];
    l.symmetry = Ratio::new(skips, skips + after[4] - before[4]);
    l.search_plans = plans / runs.len() as f64;
    l.search_us_per_plan = wall / plans.max(1.0);
    l.search_wall_us = wall / runs.len() as f64;
}
