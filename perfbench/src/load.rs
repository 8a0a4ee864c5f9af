//! Load generators over the public `Client`: an open loop that times every
//! request from when it was due, and a closed loop for one tenant that
//! waits for each reply.

use crate::gen::Item;
use recloud_server::protocol::{AssessResponse, SearchResponse, TraceSpan};
use recloud_server::Client;
use std::net::SocketAddr;
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// A served answer.
#[derive(Clone, Debug, PartialEq)]
pub enum Answer {
    Assess(AssessResponse),
    Search(SearchResponse),
    Pong,
}

/// What one request produced.
#[derive(Clone, Debug)]
pub struct Reply {
    /// The answer, or why there was none (`Busy` and errors alike).
    pub answer: Result<Answer, String>,
    /// When the final frame arrived.
    pub replied: Instant,
    /// `Partial` or `SearchEvent` frames received before the final one.
    pub streamed: u32,
    /// Server spans of a traced request.
    pub spans: Vec<TraceSpan>,
}

/// One timed request.
#[derive(Clone, Debug)]
pub struct Sample {
    pub index: usize,
    /// Due (open loop) or send (closed loop) time → final frame, µs.
    pub latency_us: f64,
    /// Send time − due time, µs: how late the generator ran.
    pub lateness_us: f64,
    /// Send time → final frame, µs.
    pub service_us: f64,
    pub reply: Reply,
}

/// Sends one item and waits for its final frame.
pub fn send(client: &mut Client, item: &Item) -> Reply {
    let mut streamed = 0u32;
    let answer = match item {
        Item::Assess { req, stream: false } => client.assess(req.clone()).map(Answer::Assess),
        Item::Assess { req, stream: true } => client
            .assess_streaming(req.clone(), 1, |_| {
                streamed += 1;
                ControlFlow::Continue(())
            })
            .map(|(a, _)| Answer::Assess(a)),
        Item::Search { req } => client
            .search_streaming(*req, crate::gen::SEARCH_CHAINS, crate::gen::SEARCH_ITERS, |_| {
                streamed += 1
            })
            .map(Answer::Search),
    };
    Reply {
        answer: answer.map_err(|e| e.to_string()),
        replied: Instant::now(),
        streamed,
        spans: Vec::new(),
    }
}

/// Sets this thread's timer slack to 1 ns so a sleep ends at its
/// deadline instead of up to 50 µs later (Linux's default slack), which
/// would otherwise show as generator lateness at thousands of requests
/// per second.
fn tighten_timer_slack() {
    #[cfg(target_os = "linux")]
    {
        extern "C" {
            fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
        }
        const PR_SET_TIMERSLACK: i32 = 29;
        // SAFETY: PR_SET_TIMERSLACK takes one integer argument and only
        // changes the calling thread's timer slack; no memory is passed.
        unsafe {
            prctl(PR_SET_TIMERSLACK, 1, 0, 0, 0);
        }
    }
}

fn sleep_until(deadline: Instant) {
    let now = Instant::now();
    if deadline > now {
        std::thread::sleep(deadline - now);
    }
}

/// Open loop: request `i` is due at `offsets_ns[i]` after the start and is
/// sent by whichever of the `connections` generator threads is free
/// first (one connection each). Latency counts from the due time, so a
/// stall in the daemon or the generator delays every later request's
/// clock too. `exchange(client, i)` sends request `i` and returns its
/// reply.
pub fn open_loop(
    addr: SocketAddr,
    offsets_ns: &[u64],
    connections: usize,
    exchange: &(dyn Fn(&mut Client, usize) -> Reply + Sync),
) -> Vec<Sample> {
    let next = AtomicUsize::new(0);
    let out = Mutex::new(Vec::with_capacity(offsets_ns.len()));
    let mut clients: Vec<Client> = (0..connections)
        .map(|_| {
            let mut c = Client::connect(addr).expect("connect to the daemon");
            c.set_timeout(Some(Duration::from_secs(60))).expect("set client timeout");
            c
        })
        .collect();
    let start = Instant::now() + Duration::from_millis(5);
    std::thread::scope(|scope| {
        for client in clients.iter_mut() {
            let (next, out) = (&next, &out);
            scope.spawn(move || {
                tighten_timer_slack();
                let mut local = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= offsets_ns.len() {
                        break;
                    }
                    let due = start + Duration::from_nanos(offsets_ns[i]);
                    sleep_until(due);
                    let sent = Instant::now();
                    let reply = exchange(client, i);
                    local.push(Sample {
                        index: i,
                        latency_us: us(reply.replied - due),
                        lateness_us: us(sent - due),
                        service_us: us(reply.replied - sent),
                        reply,
                    });
                }
                out.lock().expect("no generator thread panics holding the lock").extend(local);
            });
        }
    });
    let mut samples = out.into_inner().expect("generator threads joined");
    samples.sort_by_key(|s| s.index);
    samples
}

/// Closed loop on one connection: sends request `i` as soon as reply
/// `i - 1` arrives, for at least `min` requests and `window`, stopping
/// on a multiple of `round` requests so every run holds whole rounds of
/// the workload's request mix.
pub fn closed_loop(
    addr: SocketAddr,
    window: Duration,
    min: usize,
    round: usize,
    exchange: &mut dyn FnMut(&mut Client, usize) -> Reply,
) -> Vec<Sample> {
    let mut client = Client::connect(addr).expect("connect to the daemon");
    client.set_timeout(Some(Duration::from_secs(60))).expect("set client timeout");
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() % round != 0 || samples.len() < min || start.elapsed() < window {
        let sent = Instant::now();
        let reply = exchange(&mut client, samples.len());
        let service = us(reply.replied - sent);
        samples.push(Sample {
            index: samples.len(),
            latency_us: service,
            lateness_us: 0.0,
            service_us: service,
            reply,
        });
    }
    samples
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}
