//! The `recloud-server` binary wire protocol.
//!
//! Every message crosses the socket as a *length-prefixed frame*:
//!
//! ```text
//! transport := len:u32 payload        (len = payload bytes, LE)
//! payload   := magic:u32 ("RCS1") kind:u8 body
//! ```
//!
//! Request kinds (client → server):
//!
//! | kind | frame            | body |
//! |------|------------------|------|
//! | 0x01 | Ping             | `token:u64` |
//! | 0x02 | AssessPlan       | `preset:u8 rounds:u32 seed:u64 k:u32 n:u32 n_layers:u32 { n_hosts:u32 host:u32… }…` |
//! | 0x03 | SearchPlacement  | `preset:u8 rounds:u32 seed:u64 k:u32 n:u32 budget_ms:u32` |
//! | 0x04 | ComparePlans     | `preset:u8 rounds:u32 seed:u64 k:u32 n:u32 n_plans:u32 { n_hosts:u32 host:u32… }…` |
//! | 0x05 | *(retired)*      | rejected as an unknown kind |
//! | 0x06 | Shutdown         | (empty) |
//! | 0x07 | MetricsDump      | `journal_tail:u32` |
//! | 0x08 | AssessStream     | AssessPlan body, then `cadence:u32` (partial every `cadence` chunks) |
//! | 0x09 | AssessCancel     | (empty; only meaningful mid-stream) |
//! | 0x0A | SearchStream     | SearchPlacement body, then `workers:u32 iters:u32` |
//! | 0x0B | CacheSync        | `max_entries:u32` |
//! | 0x0C | TraceDump        | `trace_id:u64` (0 = most recently finished trace) |
//! | 0x0D | TraceContext     | `trace_id:u64 parent_span:u32` (fire-and-forget; no response) |
//! | 0x0E | TraceUpload      | `trace_id:u64 n:u32 { id:u32 parent:u32 kind:str start_us:u64 end_us:u64 v0:u64 v1:u64 }…` (fire-and-forget) |
//! | 0x0F | Hello            | `tenant:str` (`len:u16 utf8…`) |
//!
//! Response kinds (server → client):
//!
//! | kind | frame        | body |
//! |------|--------------|------|
//! | 0x81 | Pong         | `token:u64` |
//! | 0x82 | AssessResult | `score:f64 variance:f64 rounds:u64 successes:u64 cached:u8` |
//! | 0x83 | SearchResult | `reliability:f64 ciw95:f64 plans_assessed:u64 n_hosts:u32 host:u32…` |
//! | 0x84 | CompareResult| `n:u32 { input_index:u32 score:f64 ciw95:f64 tied:u8 }…` |
//! | 0x85 | *(retired)*  | rejected as an unknown kind |
//! | 0x86 | Busy         | `queued:u32 capacity:u32` |
//! | 0x87 | Error        | `code:u8 msg_len:u16 msg:utf8…` |
//! | 0x88 | ShutdownAck  | `completed:u64` |
//! | 0x89 | MetricsResult| serialized instrument snapshot + journal tail (see [`MetricsResponse`]) |
//! | 0x8A | Partial      | `rounds_done:u64 rounds_total:u64 score:f64 ciw:f64` |
//! | 0x8B | SearchEvent  | `chain:u32 iteration:u64 elapsed_us:u64 measure:f64 reliability:f64 temperature:f64` |
//! | 0x8C | CacheSegment | `n:u32 { key_lo:u64 key_hi:u64 score:f64 variance:f64 rounds:u64 successes:u64 }…` |
//! | 0x8D | TraceResult  | `trace_id:u64 dropped:u64 n:u32 { span… }…` (span layout as TraceUpload) |
//! | 0x8E | HelloAck     | `tenant:str` (the tenant the connection is now attributed to) |
//!
//! An AssessStream exchange is: client sends 0x08, server emits zero or
//! more 0x8A Partial frames (one every `cadence` fed chunks) and finishes
//! with a 0x82 AssessResult that is **bit-identical** to what the plain
//! AssessPlan request would have returned for the same arguments. The
//! client may send 0x09 AssessCancel at any point mid-stream; the server
//! stops feeding chunks and still sends the final 0x82 covering the rounds
//! done so far. An AssessCancel outside a stream is a silent no-op.
//!
//! A SearchStream exchange runs the population-based parallel annealer
//! (`workers` chains) server-side: the server emits one 0x8B SearchEvent
//! per best-plan improvement in any chain (`anneal.best` trajectory
//! points: iteration, wall-clock offset, measure, reliability,
//! temperature) and finishes with a 0x83 SearchResult. With `iters > 0`
//! the search runs a deterministic iteration budget per chain and the
//! final frame is a pure function of (seed, workers, iters) — identical
//! to a non-streamed parallel search with the same configuration;
//! `iters = 0` falls back to the wall-clock `budget_ms`. AssessCancel
//! mid-stream is accepted and ignored (a search cannot stop early
//! without changing its answer).
//!
//! All integers little-endian; `f64` as IEEE-754 bits — the same
//! conventions as the parallel engine's RCW1 codec, so a reliability score
//! crosses the wire bit-exactly and a served assessment can be compared
//! bit-for-bit against a local one. Decoders are checked by construction:
//! truncation on any prefix, wrong magic and unknown kinds surface as
//! [`ProtoError`]s, never panics — hostile bytes are an expected input for
//! a network daemon.
//!
//! A CacheSync exchange is one shot: the requester (typically a freshly
//! started daemon told `--peer <addr>`) asks for up to `max_entries`
//! cache entries and the server answers with a single 0x8C CacheSegment
//! carrying its most-recently-used entries, fingerprint included, so
//! the requester can adopt whatever it is missing. Entries travel
//! without the transient `cached` flag — the fingerprint *is* the
//! identity, and the assessment fields cross bit-exactly like every
//! other f64 on this wire.
//!
//! Tracing rides on three frames. A client that wants its request traced
//! sends 0x0D TraceContext first — fire-and-forget, no response — naming
//! the trace id and the client-side span the server's work should hang
//! under; the connection's next request is then recorded as a span tree
//! (queue wait, cache lookup, worker execution, per-chunk kernel spans,
//! store append). After the response, the client may send 0x0E
//! TraceUpload (also fire-and-forget) to contribute its own completed
//! spans — connect, request, per-Partial — which the server absorbs into
//! the same tree and marks the trace finished. Anyone can then fetch the
//! assembled tree with 0x0C TraceDump (`trace_id` 0 means "the most
//! recently finished trace") and gets one 0x8D TraceResult back.
//!
//! A Hello frame names the tenant the connection's subsequent requests
//! belong to: the server validates the id (non-empty, at most
//! [`MAX_TENANT_LEN`] bytes, `[A-Za-z0-9._-]` only — tenant ids embed
//! into instrument names), answers with 0x8E HelloAck, and from then on
//! attributes the connection's work to per-tenant
//! `tenant.<id>.{requests_total,busy_total,latency_us}` series and the
//! per-tenant admission budget (`recloud serve --tenant-budget N`). A
//! connection that never says Hello serves under the `default` tenant —
//! Hello is strictly opt-in, and a later Hello re-homes the connection
//! (mid-stream it is a protocol error like any other non-cancel frame).
//!
//! MetricsDump was added after Shutdown (0x06) and Busy (0x86) already
//! occupied the original kind proposal, so it takes the next free pair
//! (0x07 request / 0x89 response) — existing frames keep their kinds
//! and wire layout, byte for byte.

use recloud::wire::{ByteReader, ByteWriter, Bytes};
use recloud_topology::Scale;
use std::fmt;
use std::io::{Read, Write};

/// Payload magic, spelling "RCS1" (reCloud Serve v1).
pub const MAGIC: u32 = 0x5243_5331;
/// Magic (4) + kind (1).
pub const HEADER_LEN: usize = 5;
/// Upper bound on a payload; a larger length prefix is rejected before any
/// allocation happens (hostile clients cannot make the server reserve
/// gigabytes with four bytes).
pub const MAX_FRAME_LEN: usize = 1 << 20;
/// Upper bound on rounds per request (admission-time sanity, ~100× the
/// paper's §4.1 default).
pub const MAX_ROUNDS: u32 = 1_000_000;
/// Upper bound on application layers per request.
pub const MAX_LAYERS: u32 = 16;
/// Upper bound on instances per layer.
pub const MAX_INSTANCES: u32 = 1_024;
/// Upper bound on candidate plans per ComparePlans request.
pub const MAX_PLANS: u32 = 64;
/// Upper bound on parallel annealing chains per SearchStream request.
pub const MAX_SEARCH_CHAINS: u32 = 64;
/// Upper bound on per-chain iterations per SearchStream request.
pub const MAX_SEARCH_ITERS: u32 = 1_000_000;
/// Upper bound on entries per CacheSync request — sized so a maximal
/// CacheSegment (48 bytes per entry) stays well under [`MAX_FRAME_LEN`].
pub const MAX_SYNC_ENTRIES: u32 = 16_384;
/// Upper bound on spans per TraceUpload / TraceResult frame — covers the
/// tracer's per-trace capacity from both id bases with room to spare
/// while keeping a maximal frame well under [`MAX_FRAME_LEN`].
pub const MAX_TRACE_SPANS: u32 = 2_048;
/// Upper bound on a tenant id's byte length — tenant ids embed into
/// instrument names (`tenant.<id>.requests_total`), so they stay short
/// and charset-restricted.
pub const MAX_TENANT_LEN: usize = 64;
/// The tenant a connection serves under until (unless) it says Hello.
pub const DEFAULT_TENANT: &str = "default";

/// Decode failure. Any of these on a live connection is a protocol error:
/// the server answers with an [`Response::Error`] frame and drops the
/// connection.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProtoError {
    /// Frame shorter than its declared layout.
    Truncated,
    /// Magic mismatch — the peer is not speaking RCS1.
    BadMagic(u32),
    /// Unknown frame kind.
    BadKind(u8),
    /// Unknown topology preset tag.
    BadPreset(u8),
    /// Error-frame message was not UTF-8.
    BadString,
    /// Payload had trailing bytes after a complete frame.
    TrailingBytes(usize),
    /// Histogram bucket index outside the fixed 64-bucket layout.
    BadBucket(u8),
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::Truncated => write!(f, "truncated frame"),
            ProtoError::BadMagic(m) => write!(f, "bad magic 0x{m:08x}"),
            ProtoError::BadKind(k) => write!(f, "bad frame kind 0x{k:02x}"),
            ProtoError::BadPreset(p) => write!(f, "unknown topology preset {p}"),
            ProtoError::BadString => write!(f, "error message is not UTF-8"),
            ProtoError::TrailingBytes(n) => write!(f, "{n} trailing bytes after frame"),
            ProtoError::BadBucket(b) => write!(f, "histogram bucket {b} out of range"),
        }
    }
}

impl std::error::Error for ProtoError {}

/// Topology preset tags carried on the wire (the four Table 2 scales,
/// plus the extrapolated XL stress scale).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Preset {
    /// k = 8 fat-tree, 112 hosts.
    Tiny = 0,
    /// k = 16 fat-tree, 960 hosts.
    Small = 1,
    /// k = 24 fat-tree, 3 312 hosts.
    Medium = 2,
    /// k = 48 fat-tree, 27 072 hosts.
    Large = 3,
    /// k = 64 fat-tree, 64 512 hosts (beyond Table 2).
    Xl = 4,
}

impl Preset {
    /// The corresponding topology scale.
    pub fn scale(self) -> Scale {
        match self {
            Preset::Tiny => Scale::Tiny,
            Preset::Small => Scale::Small,
            Preset::Medium => Scale::Medium,
            Preset::Large => Scale::Large,
            Preset::Xl => Scale::Xl,
        }
    }

    /// Wire tag of this preset.
    pub fn tag(self) -> u8 {
        self as u8
    }

    /// Parses a wire tag.
    pub fn from_tag(tag: u8) -> Result<Preset, ProtoError> {
        match tag {
            0 => Ok(Preset::Tiny),
            1 => Ok(Preset::Small),
            2 => Ok(Preset::Medium),
            3 => Ok(Preset::Large),
            4 => Ok(Preset::Xl),
            other => Err(ProtoError::BadPreset(other)),
        }
    }

    /// Parses a CLI-style name ("tiny" | "small" | "medium" | "large" |
    /// "xl").
    pub fn from_name(name: &str) -> Option<Preset> {
        match name {
            "tiny" => Some(Preset::Tiny),
            "small" => Some(Preset::Small),
            "medium" => Some(Preset::Medium),
            "large" => Some(Preset::Large),
            "xl" => Some(Preset::Xl),
            _ => None,
        }
    }
}

/// An AssessPlan request: score one explicit deployment plan.
///
/// `assignments` holds one host list per application layer; a single layer
/// means the plain K-of-N spec, more mean [`ApplicationSpec::layered`]
/// with `(k, n)` per layer (`recloud_apps::ApplicationSpec`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AssessRequest {
    /// Topology preset the plan refers to.
    pub preset: Preset,
    /// Route-and-check rounds.
    pub rounds: u32,
    /// Master seed: fault model + sampling, exactly as the CLI path.
    pub seed: u64,
    /// Per-layer requirement K.
    pub k: u32,
    /// Per-layer instance count N.
    pub n: u32,
    /// Raw host ids, one `Vec` per layer, each of length `n`.
    pub assignments: Vec<Vec<u32>>,
}

/// A SearchPlacement request: run the annealing search server-side.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SearchRequest {
    /// Topology preset to place into.
    pub preset: Preset,
    /// Route-and-check rounds per assessed candidate.
    pub rounds: u32,
    /// Master seed.
    pub seed: u64,
    /// Requirement K.
    pub k: u32,
    /// Instance count N.
    pub n: u32,
    /// Search budget in milliseconds.
    pub budget_ms: u32,
}

/// A ComparePlans request: rank candidate K-of-N plans with error bounds.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CompareRequest {
    /// Topology preset the plans refer to.
    pub preset: Preset,
    /// Route-and-check rounds per candidate.
    pub rounds: u32,
    /// Master seed (per-candidate seeds derive from it).
    pub seed: u64,
    /// Requirement K.
    pub k: u32,
    /// Instance count N.
    pub n: u32,
    /// Candidate plans, each `n` raw host ids.
    pub plans: Vec<Vec<u32>>,
}

/// A client → server frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Liveness probe; echoed back in [`Response::Pong`].
    Ping {
        /// Opaque token the server echoes.
        token: u64,
    },
    /// Assess one plan.
    AssessPlan(AssessRequest),
    /// Search for a plan.
    SearchPlacement(SearchRequest),
    /// Rank candidate plans.
    ComparePlans(CompareRequest),
    /// Drain in-flight jobs and exit.
    Shutdown,
    /// Read the full instrument snapshot (counters, gauges, latency
    /// histograms) plus the newest journal events.
    MetricsDump {
        /// How many of the newest journal events to include (0 = none).
        journal_tail: u32,
    },
    /// Assess one plan, streaming [`Response::Partial`] running estimates
    /// while the chunks accumulate; finishes with a [`Response::Assess`]
    /// bit-identical to the plain [`Request::AssessPlan`] answer.
    AssessStream {
        /// The underlying assessment, exactly as AssessPlan carries it.
        req: AssessRequest,
        /// Emit one Partial every `cadence` fed chunks (>= 1).
        cadence: u32,
    },
    /// Cancel the in-flight stream on this connection: the server stops
    /// feeding chunks and sends the final Assess frame over the rounds
    /// done so far. Outside a stream this is a silent no-op (no response).
    AssessCancel,
    /// Search for a plan with the population-based parallel annealer,
    /// streaming [`Response::SearchEvent`] best-plan improvements as they
    /// happen; finishes with a [`Response::Search`] carrying the winning
    /// chain's outcome.
    SearchStream {
        /// The underlying search, exactly as SearchPlacement carries it.
        req: SearchRequest,
        /// Annealing chains to run concurrently (>= 1).
        workers: u32,
        /// Per-chain iteration budget. Nonzero makes the search a pure
        /// function of (seed, workers, iters); 0 falls back to the
        /// wall-clock `budget_ms`.
        iters: u32,
    },
    /// Pull up to `max_entries` of the peer's most-recently-used cache
    /// entries as one [`Response::CacheSegment`] — the fleet
    /// warm-start path (`recloud serve --peer`).
    CacheSync {
        /// Entry budget, `1..=`[`MAX_SYNC_ENTRIES`].
        max_entries: u32,
    },
    /// Fetch a finished trace's span tree as one [`Response::Trace`].
    TraceDump {
        /// The trace to fetch; 0 asks for the most recently finished one.
        trace_id: u64,
    },
    /// Arm tracing for this connection's next request (fire-and-forget —
    /// the server sends no response). The server's request span will be
    /// parented under the client's `parent_span`.
    TraceContext {
        /// Nonzero trace id chosen by the client.
        trace_id: u64,
        /// Client-side span to parent the server's work under (0 = root).
        parent_span: u32,
    },
    /// Contribute the client's completed spans to a trace and mark it
    /// finished (fire-and-forget — the server sends no response).
    TraceUpload {
        /// The trace the spans belong to.
        trace_id: u64,
        /// Completed client-side spans, ids from the client's base.
        spans: Vec<TraceSpan>,
    },
    /// Name the tenant this connection's subsequent requests belong to;
    /// answered with [`Response::HelloAck`]. Connections that never say
    /// Hello serve under [`DEFAULT_TENANT`].
    Hello {
        /// Tenant id: non-empty, at most [`MAX_TENANT_LEN`] bytes of
        /// `[A-Za-z0-9._-]` (it embeds into instrument names).
        tenant: String,
    },
}

/// One span on the wire (inside [`Request::TraceUpload`] and
/// [`Response::Trace`]): the tracer's record with the stage name carried
/// as a length-prefixed string.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceSpan {
    /// Span id, unique within the trace; never 0.
    pub id: u32,
    /// Parent span id; 0 marks a root span.
    pub parent: u32,
    /// Stage name, e.g. `"queue.wait"` or `"assess.chunk"`.
    pub kind: String,
    /// Absolute start, microseconds since the Unix epoch.
    pub start_us: u64,
    /// Absolute end; 0 if the span never closed.
    pub end_us: u64,
    /// First kind-specific tag (e.g. rounds for `assess.chunk`).
    pub v0: u64,
    /// Second kind-specific tag (e.g. chunk index).
    pub v1: u64,
}

fn put_trace_spans(w: &mut ByteWriter, spans: &[TraceSpan]) {
    w.put_u32_le(spans.len() as u32);
    for s in spans {
        w.put_u32_le(s.id);
        w.put_u32_le(s.parent);
        put_str(w, &s.kind);
        w.put_u64_le(s.start_us);
        w.put_u64_le(s.end_us);
        w.put_u64_le(s.v0);
        w.put_u64_le(s.v1);
    }
}

fn get_trace_spans(r: &mut ByteReader) -> Result<Vec<TraceSpan>, ProtoError> {
    let n = r.get_u32_le().ok_or(ProtoError::Truncated)? as usize;
    let mut spans = Vec::with_capacity(n.min(MAX_TRACE_SPANS as usize));
    for _ in 0..n {
        spans.push(TraceSpan {
            id: r.get_u32_le().ok_or(ProtoError::Truncated)?,
            parent: r.get_u32_le().ok_or(ProtoError::Truncated)?,
            kind: get_str(r)?,
            start_us: r.get_u64_le().ok_or(ProtoError::Truncated)?,
            end_us: r.get_u64_le().ok_or(ProtoError::Truncated)?,
            v0: r.get_u64_le().ok_or(ProtoError::Truncated)?,
            v1: r.get_u64_le().ok_or(ProtoError::Truncated)?,
        });
    }
    Ok(spans)
}

fn trace_spans_len(spans: &[TraceSpan]) -> usize {
    4 + spans.iter().map(|s| 4 + 4 + 2 + s.kind.len() + 4 * 8).sum::<usize>()
}

/// Error codes carried in [`Response::Error`] frames.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// Bytes that do not decode as an RCS1 request.
    Malformed = 1,
    /// A well-formed request with invalid contents (bad host id, k > n…).
    Invalid = 2,
    /// Length prefix above [`MAX_FRAME_LEN`].
    Oversized = 3,
    /// The server failed internally (worker pool gone).
    Internal = 4,
}

impl ErrorCode {
    fn from_u8(v: u8) -> Result<ErrorCode, ProtoError> {
        match v {
            1 => Ok(ErrorCode::Malformed),
            2 => Ok(ErrorCode::Invalid),
            3 => Ok(ErrorCode::Oversized),
            4 => Ok(ErrorCode::Internal),
            other => Err(ProtoError::BadKind(other)),
        }
    }
}

/// The assessment answer: the estimate's determining fields, bit-exact.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AssessResponse {
    /// Reliability score (Eq 1).
    pub score: f64,
    /// Conservative variance (Eq 2).
    pub variance: f64,
    /// Rounds checked.
    pub rounds: u64,
    /// Rounds in which the plan was reliable.
    pub successes: u64,
    /// True when served from the result cache.
    pub cached: bool,
}

/// The search answer.
#[derive(Clone, Debug, PartialEq)]
pub struct SearchResponse {
    /// Assessed reliability of the chosen plan.
    pub reliability: f64,
    /// 95% confidence-interval width.
    pub ciw95: f64,
    /// Plans assessed during the search.
    pub plans_assessed: u64,
    /// Raw host ids of the chosen plan (single K-of-N component).
    pub hosts: Vec<u32>,
}

/// One ranked candidate in a [`CompareResponse`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CompareEntry {
    /// Position of the plan in the request's list.
    pub input_index: u32,
    /// Reliability score.
    pub score: f64,
    /// 95% confidence-interval width.
    pub ciw95: f64,
    /// Statistically indistinguishable from the winner.
    pub tied_with_best: bool,
}

/// The comparison answer, best plan first.
#[derive(Clone, Debug, PartialEq)]
pub struct CompareResponse {
    /// Candidates sorted by descending reliability.
    pub ranking: Vec<CompareEntry>,
}

/// A running estimate mid-stream: the (R, CIW) pair of Eqs 1 and 3 over
/// the rounds fed so far. `rounds_done` is monotonically nondecreasing
/// across the partials of one stream.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PartialResponse {
    /// Rounds accumulated so far.
    pub rounds_done: u64,
    /// Rounds the full request would run.
    pub rounds_total: u64,
    /// Running reliability estimate R (Eq 1).
    pub score: f64,
    /// Running 95% confidence-interval width (Eq 3).
    pub ciw: f64,
}

/// One best-plan improvement inside a streamed parallel search: a
/// trajectory point from whichever chain just raised its own best, tagged
/// with the chain index. `iteration` counts plans assessed by that chain.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SearchEventResponse {
    /// Which annealing chain improved (0-based).
    pub chain: u32,
    /// Plans assessed by that chain when the improvement landed.
    pub iteration: u64,
    /// Microseconds since that chain's search started.
    pub elapsed_us: u64,
    /// The new best objective measure M (Eq 7).
    pub measure: f64,
    /// The new best plan's reliability R (Eq 1).
    pub reliability: f64,
    /// The temperature t (Eq 6) at the improvement.
    pub temperature: f64,
}

/// One cache entry in flight inside a [`CacheSegmentResponse`]: the
/// assessment fingerprint plus the determining [`AssessResponse`]
/// fields (the transient `cached` flag never travels).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CacheEntry {
    /// Assessment fingerprint (`recloud_assess::assessment_key`).
    pub key: u128,
    /// Reliability score (Eq 1).
    pub score: f64,
    /// Conservative variance (Eq 2).
    pub variance: f64,
    /// Rounds checked.
    pub rounds: u64,
    /// Rounds in which the plan was reliable.
    pub successes: u64,
}

/// The CacheSync answer: the peer's most-recently-used cache entries,
/// newest first, at most the request's `max_entries`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CacheSegmentResponse {
    /// Cache entries, most recently used first.
    pub entries: Vec<CacheEntry>,
}

/// The TraceDump answer: one trace's assembled span tree.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceResponse {
    /// The trace the spans belong to; 0 when no such trace exists (the
    /// id was never begun, was evicted, or nothing has finished yet).
    pub trace_id: u64,
    /// Spans dropped past the tracer's per-trace capacity.
    pub dropped: u64,
    /// Spans in record order (parents precede children per process, but
    /// absorbed client spans may follow server spans that reference them).
    pub spans: Vec<TraceSpan>,
}

/// The MetricsDump answer: a merged snapshot of the server's private
/// registry and the process-global one (assess/search instruments),
/// plus up to `journal_tail` of the newest journal events.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsResponse {
    /// Every registered instrument, sorted by name.
    pub snapshot: recloud_obs::MetricsSnapshot,
    /// Newest journal events, oldest first.
    pub events: Vec<recloud_obs::Event>,
}

/// A server → client frame.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// Ping echo.
    Pong {
        /// The request's token.
        token: u64,
    },
    /// Assessment result.
    Assess(AssessResponse),
    /// Search result.
    Search(SearchResponse),
    /// Comparison result.
    Compare(CompareResponse),
    /// Admission control rejected the request; retry later.
    Busy {
        /// Jobs queued at rejection time.
        queued: u32,
        /// The queue capacity.
        capacity: u32,
    },
    /// The request failed; the connection will be dropped for protocol
    /// errors and kept for semantic ones.
    Error {
        /// Machine-readable cause.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
    /// Shutdown acknowledged; the server drains and exits.
    ShutdownAck {
        /// Jobs completed over the server's lifetime.
        completed: u64,
    },
    /// Instrument snapshot + journal tail.
    Metrics(MetricsResponse),
    /// A mid-stream running estimate; only appears between an
    /// AssessStream request and its final [`Response::Assess`].
    Partial(PartialResponse),
    /// A best-plan improvement; only appears between a SearchStream
    /// request and its final [`Response::Search`].
    SearchEvent(SearchEventResponse),
    /// A batch of cache entries answering a [`Request::CacheSync`].
    CacheSegment(CacheSegmentResponse),
    /// A trace's span tree answering a [`Request::TraceDump`].
    Trace(TraceResponse),
    /// Acknowledges a [`Request::Hello`], echoing the tenant the
    /// connection is now attributed to.
    HelloAck {
        /// The accepted tenant id.
        tenant: String,
    },
}

fn put_header(w: &mut ByteWriter, kind: u8) {
    w.put_u32_le(MAGIC);
    w.put_u8(kind);
}

fn read_header(r: &mut ByteReader) -> Result<u8, ProtoError> {
    let magic = r.get_u32_le().ok_or(ProtoError::Truncated)?;
    if magic != MAGIC {
        return Err(ProtoError::BadMagic(magic));
    }
    r.get_u8().ok_or(ProtoError::Truncated)
}

fn put_host_lists(w: &mut ByteWriter, lists: &[Vec<u32>]) {
    w.put_u32_le(lists.len() as u32);
    for list in lists {
        w.put_u32_le(list.len() as u32);
        for &h in list {
            w.put_u32_le(h);
        }
    }
}

fn get_host_lists(r: &mut ByteReader) -> Result<Vec<Vec<u32>>, ProtoError> {
    let n_lists = r.get_u32_le().ok_or(ProtoError::Truncated)? as usize;
    let mut lists = Vec::with_capacity(n_lists.min(1 << 10));
    for _ in 0..n_lists {
        let n = r.get_u32_le().ok_or(ProtoError::Truncated)? as usize;
        if r.remaining() < 4 * n {
            return Err(ProtoError::Truncated);
        }
        lists.push((0..n).map(|_| r.get_u32_le().unwrap()).collect());
    }
    Ok(lists)
}

fn host_lists_len(lists: &[Vec<u32>]) -> usize {
    4 + lists.iter().map(|l| 4 + 4 * l.len()).sum::<usize>()
}

/// Writes a length-prefixed UTF-8 string (`len:u16 bytes…`), truncating
/// at `u16::MAX` bytes like the Error-frame message.
fn put_str(w: &mut ByteWriter, s: &str) {
    let bytes = s.as_bytes();
    let bytes = &bytes[..bytes.len().min(u16::MAX as usize)];
    w.put_u16_le(bytes.len() as u16);
    w.put_slice(bytes);
}

fn get_str(r: &mut ByteReader) -> Result<String, ProtoError> {
    let len = r.get_u16_le().ok_or(ProtoError::Truncated)? as usize;
    let bytes = r.get_bytes(len).ok_or(ProtoError::Truncated)?;
    Ok(std::str::from_utf8(bytes.as_slice()).map_err(|_| ProtoError::BadString)?.to_string())
}

/// Encodes a [`MetricsResponse`] body: counters, gauges, histograms
/// (sparse non-zero buckets only), then journal events. Layout:
///
/// ```text
/// n_counters:u32 { name:str total:u64 }…
/// n_gauges:u32   { name:str value:i64 }…
/// n_hists:u32    { name:str count:u64 sum:u64 max:u64
///                  n_buckets:u8 { bucket:u8 count:u64 }… }…
/// n_events:u32   { seq:u64 ts_us:u64 thread:u64 kind:str
///                  v0:u64 v1:u64 f0:f64 f1:f64 }…
/// str := len:u16 utf8…
/// ```
fn put_metrics(w: &mut ByteWriter, m: &MetricsResponse) {
    w.put_u32_le(m.snapshot.counters.len() as u32);
    for (name, v) in &m.snapshot.counters {
        put_str(w, name);
        w.put_u64_le(*v);
    }
    w.put_u32_le(m.snapshot.gauges.len() as u32);
    for (name, v) in &m.snapshot.gauges {
        put_str(w, name);
        w.put_u64_le(*v as u64);
    }
    w.put_u32_le(m.snapshot.histograms.len() as u32);
    for (name, h) in &m.snapshot.histograms {
        put_str(w, name);
        w.put_u64_le(h.count);
        w.put_u64_le(h.sum);
        w.put_u64_le(h.max);
        let nonzero: Vec<(usize, u64)> =
            h.buckets.iter().copied().enumerate().filter(|&(_, c)| c != 0).collect();
        w.put_u8(nonzero.len() as u8);
        for (bucket, count) in nonzero {
            w.put_u8(bucket as u8);
            w.put_u64_le(count);
        }
    }
    w.put_u32_le(m.events.len() as u32);
    for e in &m.events {
        w.put_u64_le(e.seq);
        w.put_u64_le(e.ts_micros);
        w.put_u64_le(e.thread);
        put_str(w, &e.kind);
        w.put_u64_le(e.v0);
        w.put_u64_le(e.v1);
        w.put_f64_le(e.f0);
        w.put_f64_le(e.f1);
    }
}

fn get_metrics(r: &mut ByteReader) -> Result<MetricsResponse, ProtoError> {
    let mut snapshot = recloud_obs::MetricsSnapshot::default();
    let n = r.get_u32_le().ok_or(ProtoError::Truncated)? as usize;
    snapshot.counters.reserve(n.min(1 << 10));
    for _ in 0..n {
        let name = get_str(r)?;
        let v = r.get_u64_le().ok_or(ProtoError::Truncated)?;
        snapshot.counters.push((name, v));
    }
    let n = r.get_u32_le().ok_or(ProtoError::Truncated)? as usize;
    snapshot.gauges.reserve(n.min(1 << 10));
    for _ in 0..n {
        let name = get_str(r)?;
        let v = r.get_u64_le().ok_or(ProtoError::Truncated)? as i64;
        snapshot.gauges.push((name, v));
    }
    let n = r.get_u32_le().ok_or(ProtoError::Truncated)? as usize;
    snapshot.histograms.reserve(n.min(1 << 10));
    for _ in 0..n {
        let name = get_str(r)?;
        let mut h = recloud_obs::HistogramSnapshot {
            count: r.get_u64_le().ok_or(ProtoError::Truncated)?,
            sum: r.get_u64_le().ok_or(ProtoError::Truncated)?,
            max: r.get_u64_le().ok_or(ProtoError::Truncated)?,
            ..Default::default()
        };
        let n_buckets = r.get_u8().ok_or(ProtoError::Truncated)? as usize;
        for _ in 0..n_buckets {
            let bucket = r.get_u8().ok_or(ProtoError::Truncated)?;
            let count = r.get_u64_le().ok_or(ProtoError::Truncated)?;
            *h.buckets.get_mut(bucket as usize).ok_or(ProtoError::BadBucket(bucket))? = count;
        }
        snapshot.histograms.push((name, h));
    }
    let n = r.get_u32_le().ok_or(ProtoError::Truncated)? as usize;
    let mut events = Vec::with_capacity(n.min(1 << 12));
    for _ in 0..n {
        let seq = r.get_u64_le().ok_or(ProtoError::Truncated)?;
        let ts_micros = r.get_u64_le().ok_or(ProtoError::Truncated)?;
        let thread = r.get_u64_le().ok_or(ProtoError::Truncated)?;
        let kind = get_str(r)?;
        events.push(recloud_obs::Event {
            seq,
            ts_micros,
            thread,
            kind,
            v0: r.get_u64_le().ok_or(ProtoError::Truncated)?,
            v1: r.get_u64_le().ok_or(ProtoError::Truncated)?,
            f0: r.get_f64_le().ok_or(ProtoError::Truncated)?,
            f1: r.get_f64_le().ok_or(ProtoError::Truncated)?,
        });
    }
    Ok(MetricsResponse { snapshot, events })
}

fn finish(r: &ByteReader) -> Result<(), ProtoError> {
    if r.is_exhausted() {
        Ok(())
    } else {
        Err(ProtoError::TrailingBytes(r.remaining()))
    }
}

impl Request {
    /// Encodes the request payload (without the transport length prefix)
    /// in a single allocation.
    pub fn encode(&self) -> Bytes {
        match self {
            Request::Ping { token } => {
                let mut w = ByteWriter::with_capacity(HEADER_LEN + 8);
                put_header(&mut w, 0x01);
                w.put_u64_le(*token);
                w.freeze()
            }
            Request::AssessPlan(a) => {
                let mut w = ByteWriter::with_capacity(
                    HEADER_LEN + 1 + 4 + 8 + 4 + 4 + host_lists_len(&a.assignments),
                );
                put_header(&mut w, 0x02);
                w.put_u8(a.preset.tag());
                w.put_u32_le(a.rounds);
                w.put_u64_le(a.seed);
                w.put_u32_le(a.k);
                w.put_u32_le(a.n);
                put_host_lists(&mut w, &a.assignments);
                w.freeze()
            }
            Request::SearchPlacement(s) => {
                let mut w = ByteWriter::with_capacity(HEADER_LEN + 1 + 4 + 8 + 4 + 4 + 4);
                put_header(&mut w, 0x03);
                w.put_u8(s.preset.tag());
                w.put_u32_le(s.rounds);
                w.put_u64_le(s.seed);
                w.put_u32_le(s.k);
                w.put_u32_le(s.n);
                w.put_u32_le(s.budget_ms);
                w.freeze()
            }
            Request::ComparePlans(c) => {
                let mut w = ByteWriter::with_capacity(
                    HEADER_LEN + 1 + 4 + 8 + 4 + 4 + host_lists_len(&c.plans),
                );
                put_header(&mut w, 0x04);
                w.put_u8(c.preset.tag());
                w.put_u32_le(c.rounds);
                w.put_u64_le(c.seed);
                w.put_u32_le(c.k);
                w.put_u32_le(c.n);
                put_host_lists(&mut w, &c.plans);
                w.freeze()
            }
            Request::Shutdown => {
                let mut w = ByteWriter::with_capacity(HEADER_LEN);
                put_header(&mut w, 0x06);
                w.freeze()
            }
            Request::MetricsDump { journal_tail } => {
                let mut w = ByteWriter::with_capacity(HEADER_LEN + 4);
                put_header(&mut w, 0x07);
                w.put_u32_le(*journal_tail);
                w.freeze()
            }
            Request::AssessStream { req: a, cadence } => {
                let mut w = ByteWriter::with_capacity(
                    HEADER_LEN + 1 + 4 + 8 + 4 + 4 + host_lists_len(&a.assignments) + 4,
                );
                put_header(&mut w, 0x08);
                w.put_u8(a.preset.tag());
                w.put_u32_le(a.rounds);
                w.put_u64_le(a.seed);
                w.put_u32_le(a.k);
                w.put_u32_le(a.n);
                put_host_lists(&mut w, &a.assignments);
                w.put_u32_le(*cadence);
                w.freeze()
            }
            Request::AssessCancel => {
                let mut w = ByteWriter::with_capacity(HEADER_LEN);
                put_header(&mut w, 0x09);
                w.freeze()
            }
            Request::SearchStream { req: s, workers, iters } => {
                let mut w = ByteWriter::with_capacity(HEADER_LEN + 1 + 4 + 8 + 4 + 4 + 4 + 4 + 4);
                put_header(&mut w, 0x0A);
                w.put_u8(s.preset.tag());
                w.put_u32_le(s.rounds);
                w.put_u64_le(s.seed);
                w.put_u32_le(s.k);
                w.put_u32_le(s.n);
                w.put_u32_le(s.budget_ms);
                w.put_u32_le(*workers);
                w.put_u32_le(*iters);
                w.freeze()
            }
            Request::CacheSync { max_entries } => {
                let mut w = ByteWriter::with_capacity(HEADER_LEN + 4);
                put_header(&mut w, 0x0B);
                w.put_u32_le(*max_entries);
                w.freeze()
            }
            Request::TraceDump { trace_id } => {
                let mut w = ByteWriter::with_capacity(HEADER_LEN + 8);
                put_header(&mut w, 0x0C);
                w.put_u64_le(*trace_id);
                w.freeze()
            }
            Request::TraceContext { trace_id, parent_span } => {
                let mut w = ByteWriter::with_capacity(HEADER_LEN + 8 + 4);
                put_header(&mut w, 0x0D);
                w.put_u64_le(*trace_id);
                w.put_u32_le(*parent_span);
                w.freeze()
            }
            Request::TraceUpload { trace_id, spans } => {
                let mut w = ByteWriter::with_capacity(HEADER_LEN + 8 + trace_spans_len(spans));
                put_header(&mut w, 0x0E);
                w.put_u64_le(*trace_id);
                put_trace_spans(&mut w, spans);
                w.freeze()
            }
            Request::Hello { tenant } => {
                let mut w = ByteWriter::with_capacity(HEADER_LEN + 2 + tenant.len());
                put_header(&mut w, 0x0F);
                put_str(&mut w, tenant);
                w.freeze()
            }
        }
    }

    /// Decodes a request payload, rejecting truncation, bad magic,
    /// unknown kinds and trailing bytes.
    pub fn decode(buf: Bytes) -> Result<Request, ProtoError> {
        let mut r = ByteReader::new(buf);
        let kind = read_header(&mut r)?;
        let req = match kind {
            0x01 => Request::Ping { token: r.get_u64_le().ok_or(ProtoError::Truncated)? },
            0x02 => Request::AssessPlan(AssessRequest {
                preset: Preset::from_tag(r.get_u8().ok_or(ProtoError::Truncated)?)?,
                rounds: r.get_u32_le().ok_or(ProtoError::Truncated)?,
                seed: r.get_u64_le().ok_or(ProtoError::Truncated)?,
                k: r.get_u32_le().ok_or(ProtoError::Truncated)?,
                n: r.get_u32_le().ok_or(ProtoError::Truncated)?,
                assignments: get_host_lists(&mut r)?,
            }),
            0x03 => Request::SearchPlacement(SearchRequest {
                preset: Preset::from_tag(r.get_u8().ok_or(ProtoError::Truncated)?)?,
                rounds: r.get_u32_le().ok_or(ProtoError::Truncated)?,
                seed: r.get_u64_le().ok_or(ProtoError::Truncated)?,
                k: r.get_u32_le().ok_or(ProtoError::Truncated)?,
                n: r.get_u32_le().ok_or(ProtoError::Truncated)?,
                budget_ms: r.get_u32_le().ok_or(ProtoError::Truncated)?,
            }),
            0x04 => Request::ComparePlans(CompareRequest {
                preset: Preset::from_tag(r.get_u8().ok_or(ProtoError::Truncated)?)?,
                rounds: r.get_u32_le().ok_or(ProtoError::Truncated)?,
                seed: r.get_u64_le().ok_or(ProtoError::Truncated)?,
                k: r.get_u32_le().ok_or(ProtoError::Truncated)?,
                n: r.get_u32_le().ok_or(ProtoError::Truncated)?,
                plans: get_host_lists(&mut r)?,
            }),
            0x06 => Request::Shutdown,
            0x07 => {
                Request::MetricsDump { journal_tail: r.get_u32_le().ok_or(ProtoError::Truncated)? }
            }
            0x08 => Request::AssessStream {
                req: AssessRequest {
                    preset: Preset::from_tag(r.get_u8().ok_or(ProtoError::Truncated)?)?,
                    rounds: r.get_u32_le().ok_or(ProtoError::Truncated)?,
                    seed: r.get_u64_le().ok_or(ProtoError::Truncated)?,
                    k: r.get_u32_le().ok_or(ProtoError::Truncated)?,
                    n: r.get_u32_le().ok_or(ProtoError::Truncated)?,
                    assignments: get_host_lists(&mut r)?,
                },
                cadence: r.get_u32_le().ok_or(ProtoError::Truncated)?,
            },
            0x09 => Request::AssessCancel,
            0x0A => Request::SearchStream {
                req: SearchRequest {
                    preset: Preset::from_tag(r.get_u8().ok_or(ProtoError::Truncated)?)?,
                    rounds: r.get_u32_le().ok_or(ProtoError::Truncated)?,
                    seed: r.get_u64_le().ok_or(ProtoError::Truncated)?,
                    k: r.get_u32_le().ok_or(ProtoError::Truncated)?,
                    n: r.get_u32_le().ok_or(ProtoError::Truncated)?,
                    budget_ms: r.get_u32_le().ok_or(ProtoError::Truncated)?,
                },
                workers: r.get_u32_le().ok_or(ProtoError::Truncated)?,
                iters: r.get_u32_le().ok_or(ProtoError::Truncated)?,
            },
            0x0B => {
                Request::CacheSync { max_entries: r.get_u32_le().ok_or(ProtoError::Truncated)? }
            }
            0x0C => Request::TraceDump { trace_id: r.get_u64_le().ok_or(ProtoError::Truncated)? },
            0x0D => Request::TraceContext {
                trace_id: r.get_u64_le().ok_or(ProtoError::Truncated)?,
                parent_span: r.get_u32_le().ok_or(ProtoError::Truncated)?,
            },
            0x0E => Request::TraceUpload {
                trace_id: r.get_u64_le().ok_or(ProtoError::Truncated)?,
                spans: get_trace_spans(&mut r)?,
            },
            0x0F => Request::Hello { tenant: get_str(&mut r)? },
            other => return Err(ProtoError::BadKind(other)),
        };
        finish(&r)?;
        Ok(req)
    }
}

impl Response {
    /// Encodes the response payload (without the transport length prefix)
    /// in a single allocation.
    pub fn encode(&self) -> Bytes {
        match self {
            Response::Pong { token } => {
                let mut w = ByteWriter::with_capacity(HEADER_LEN + 8);
                put_header(&mut w, 0x81);
                w.put_u64_le(*token);
                w.freeze()
            }
            Response::Assess(a) => {
                let mut w = ByteWriter::with_capacity(HEADER_LEN + 8 + 8 + 8 + 8 + 1);
                put_header(&mut w, 0x82);
                w.put_f64_le(a.score);
                w.put_f64_le(a.variance);
                w.put_u64_le(a.rounds);
                w.put_u64_le(a.successes);
                w.put_u8(a.cached as u8);
                w.freeze()
            }
            Response::Search(s) => {
                let mut w =
                    ByteWriter::with_capacity(HEADER_LEN + 8 + 8 + 8 + 4 + 4 * s.hosts.len());
                put_header(&mut w, 0x83);
                w.put_f64_le(s.reliability);
                w.put_f64_le(s.ciw95);
                w.put_u64_le(s.plans_assessed);
                w.put_u32_le(s.hosts.len() as u32);
                for &h in &s.hosts {
                    w.put_u32_le(h);
                }
                w.freeze()
            }
            Response::Compare(c) => {
                let mut w = ByteWriter::with_capacity(HEADER_LEN + 4 + 21 * c.ranking.len());
                put_header(&mut w, 0x84);
                w.put_u32_le(c.ranking.len() as u32);
                for e in &c.ranking {
                    w.put_u32_le(e.input_index);
                    w.put_f64_le(e.score);
                    w.put_f64_le(e.ciw95);
                    w.put_u8(e.tied_with_best as u8);
                }
                w.freeze()
            }
            Response::Busy { queued, capacity } => {
                let mut w = ByteWriter::with_capacity(HEADER_LEN + 4 + 4);
                put_header(&mut w, 0x86);
                w.put_u32_le(*queued);
                w.put_u32_le(*capacity);
                w.freeze()
            }
            Response::Error { code, message } => {
                let msg = message.as_bytes();
                let msg = &msg[..msg.len().min(u16::MAX as usize)];
                let mut w = ByteWriter::with_capacity(HEADER_LEN + 1 + 2 + msg.len());
                put_header(&mut w, 0x87);
                w.put_u8(*code as u8);
                w.put_u16_le(msg.len() as u16);
                w.put_slice(msg);
                w.freeze()
            }
            Response::ShutdownAck { completed } => {
                let mut w = ByteWriter::with_capacity(HEADER_LEN + 8);
                put_header(&mut w, 0x88);
                w.put_u64_le(*completed);
                w.freeze()
            }
            Response::Metrics(m) => {
                let mut w = ByteWriter::with_capacity(HEADER_LEN + 512);
                put_header(&mut w, 0x89);
                put_metrics(&mut w, m);
                w.freeze()
            }
            Response::Partial(p) => {
                let mut w = ByteWriter::with_capacity(HEADER_LEN + 8 + 8 + 8 + 8);
                put_header(&mut w, 0x8A);
                w.put_u64_le(p.rounds_done);
                w.put_u64_le(p.rounds_total);
                w.put_f64_le(p.score);
                w.put_f64_le(p.ciw);
                w.freeze()
            }
            Response::SearchEvent(e) => {
                let mut w = ByteWriter::with_capacity(HEADER_LEN + 4 + 8 + 8 + 8 + 8 + 8);
                put_header(&mut w, 0x8B);
                w.put_u32_le(e.chain);
                w.put_u64_le(e.iteration);
                w.put_u64_le(e.elapsed_us);
                w.put_f64_le(e.measure);
                w.put_f64_le(e.reliability);
                w.put_f64_le(e.temperature);
                w.freeze()
            }
            Response::CacheSegment(c) => {
                let mut w = ByteWriter::with_capacity(HEADER_LEN + 4 + 48 * c.entries.len());
                put_header(&mut w, 0x8C);
                w.put_u32_le(c.entries.len() as u32);
                for e in &c.entries {
                    w.put_u64_le(e.key as u64);
                    w.put_u64_le((e.key >> 64) as u64);
                    w.put_f64_le(e.score);
                    w.put_f64_le(e.variance);
                    w.put_u64_le(e.rounds);
                    w.put_u64_le(e.successes);
                }
                w.freeze()
            }
            Response::Trace(t) => {
                let mut w =
                    ByteWriter::with_capacity(HEADER_LEN + 8 + 8 + trace_spans_len(&t.spans));
                put_header(&mut w, 0x8D);
                w.put_u64_le(t.trace_id);
                w.put_u64_le(t.dropped);
                put_trace_spans(&mut w, &t.spans);
                w.freeze()
            }
            Response::HelloAck { tenant } => {
                let mut w = ByteWriter::with_capacity(HEADER_LEN + 2 + tenant.len());
                put_header(&mut w, 0x8E);
                put_str(&mut w, tenant);
                w.freeze()
            }
        }
    }

    /// Decodes a response payload.
    pub fn decode(buf: Bytes) -> Result<Response, ProtoError> {
        let mut r = ByteReader::new(buf);
        let kind = read_header(&mut r)?;
        let resp = match kind {
            0x81 => Response::Pong { token: r.get_u64_le().ok_or(ProtoError::Truncated)? },
            0x82 => Response::Assess(AssessResponse {
                score: r.get_f64_le().ok_or(ProtoError::Truncated)?,
                variance: r.get_f64_le().ok_or(ProtoError::Truncated)?,
                rounds: r.get_u64_le().ok_or(ProtoError::Truncated)?,
                successes: r.get_u64_le().ok_or(ProtoError::Truncated)?,
                cached: r.get_u8().ok_or(ProtoError::Truncated)? != 0,
            }),
            0x83 => {
                let reliability = r.get_f64_le().ok_or(ProtoError::Truncated)?;
                let ciw95 = r.get_f64_le().ok_or(ProtoError::Truncated)?;
                let plans_assessed = r.get_u64_le().ok_or(ProtoError::Truncated)?;
                let n = r.get_u32_le().ok_or(ProtoError::Truncated)? as usize;
                if r.remaining() < 4 * n {
                    return Err(ProtoError::Truncated);
                }
                let hosts = (0..n).map(|_| r.get_u32_le().unwrap()).collect();
                Response::Search(SearchResponse { reliability, ciw95, plans_assessed, hosts })
            }
            0x84 => {
                let n = r.get_u32_le().ok_or(ProtoError::Truncated)? as usize;
                let mut ranking = Vec::with_capacity(n.min(1 << 10));
                for _ in 0..n {
                    ranking.push(CompareEntry {
                        input_index: r.get_u32_le().ok_or(ProtoError::Truncated)?,
                        score: r.get_f64_le().ok_or(ProtoError::Truncated)?,
                        ciw95: r.get_f64_le().ok_or(ProtoError::Truncated)?,
                        tied_with_best: r.get_u8().ok_or(ProtoError::Truncated)? != 0,
                    });
                }
                Response::Compare(CompareResponse { ranking })
            }
            0x86 => Response::Busy {
                queued: r.get_u32_le().ok_or(ProtoError::Truncated)?,
                capacity: r.get_u32_le().ok_or(ProtoError::Truncated)?,
            },
            0x87 => {
                let code = ErrorCode::from_u8(r.get_u8().ok_or(ProtoError::Truncated)?)?;
                let len = r.get_u16_le().ok_or(ProtoError::Truncated)? as usize;
                let bytes = r.get_bytes(len).ok_or(ProtoError::Truncated)?;
                let message = std::str::from_utf8(bytes.as_slice())
                    .map_err(|_| ProtoError::BadString)?
                    .to_string();
                Response::Error { code, message }
            }
            0x88 => {
                Response::ShutdownAck { completed: r.get_u64_le().ok_or(ProtoError::Truncated)? }
            }
            0x89 => Response::Metrics(get_metrics(&mut r)?),
            0x8A => Response::Partial(PartialResponse {
                rounds_done: r.get_u64_le().ok_or(ProtoError::Truncated)?,
                rounds_total: r.get_u64_le().ok_or(ProtoError::Truncated)?,
                score: r.get_f64_le().ok_or(ProtoError::Truncated)?,
                ciw: r.get_f64_le().ok_or(ProtoError::Truncated)?,
            }),
            0x8B => Response::SearchEvent(SearchEventResponse {
                chain: r.get_u32_le().ok_or(ProtoError::Truncated)?,
                iteration: r.get_u64_le().ok_or(ProtoError::Truncated)?,
                elapsed_us: r.get_u64_le().ok_or(ProtoError::Truncated)?,
                measure: r.get_f64_le().ok_or(ProtoError::Truncated)?,
                reliability: r.get_f64_le().ok_or(ProtoError::Truncated)?,
                temperature: r.get_f64_le().ok_or(ProtoError::Truncated)?,
            }),
            0x8C => {
                let n = r.get_u32_le().ok_or(ProtoError::Truncated)? as usize;
                if r.remaining() < 48 * n {
                    return Err(ProtoError::Truncated);
                }
                let mut entries = Vec::with_capacity(n);
                for _ in 0..n {
                    let key_lo = r.get_u64_le().unwrap();
                    let key_hi = r.get_u64_le().unwrap();
                    entries.push(CacheEntry {
                        key: u128::from(key_lo) | (u128::from(key_hi) << 64),
                        score: r.get_f64_le().unwrap(),
                        variance: r.get_f64_le().unwrap(),
                        rounds: r.get_u64_le().unwrap(),
                        successes: r.get_u64_le().unwrap(),
                    });
                }
                Response::CacheSegment(CacheSegmentResponse { entries })
            }
            0x8D => Response::Trace(TraceResponse {
                trace_id: r.get_u64_le().ok_or(ProtoError::Truncated)?,
                dropped: r.get_u64_le().ok_or(ProtoError::Truncated)?,
                spans: get_trace_spans(&mut r)?,
            }),
            0x8E => Response::HelloAck { tenant: get_str(&mut r)? },
            other => return Err(ProtoError::BadKind(other)),
        };
        finish(&r)?;
        Ok(resp)
    }
}

/// Writes one transport frame (length prefix + payload) and flushes.
pub fn write_frame(stream: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
    debug_assert!(payload.len() <= MAX_FRAME_LEN);
    let mut buf = Vec::with_capacity(4 + payload.len());
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(payload);
    stream.write_all(&buf)?;
    stream.flush()
}

/// Blocking read of one transport frame. Returns `Ok(None)` on a clean
/// EOF at a frame boundary; an oversized length prefix is an
/// `InvalidData` error (and no allocation happens).
pub fn read_frame(stream: &mut impl Read) -> std::io::Result<Option<Vec<u8>>> {
    let mut prefix = [0u8; 4];
    match stream.read_exact(&mut prefix) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_le_bytes(prefix) as usize;
    if len > MAX_FRAME_LEN {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds {MAX_FRAME_LEN}"),
        ));
    }
    let mut payload = vec![0u8; len];
    stream.read_exact(&mut payload)?;
    Ok(Some(payload))
}

/// Semantic validation shared by server admission and clients: bounds that
/// do not need the topology. Host-id validity is checked worker-side where
/// the topology lives.
pub fn validate_shape(req: &Request) -> Result<(), String> {
    let check_spec = |k: u32, n: u32, rounds: u32| -> Result<(), String> {
        if k == 0 || k > n {
            return Err(format!("need 1 <= k <= n (got k={k}, n={n})"));
        }
        if n > MAX_INSTANCES {
            return Err(format!("n={n} exceeds the {MAX_INSTANCES}-instance limit"));
        }
        if rounds == 0 || rounds > MAX_ROUNDS {
            return Err(format!("rounds must be in 1..={MAX_ROUNDS} (got {rounds})"));
        }
        Ok(())
    };
    let check_assess = |a: &AssessRequest| -> Result<(), String> {
        check_spec(a.k, a.n, a.rounds)?;
        if a.assignments.is_empty() || a.assignments.len() > MAX_LAYERS as usize {
            return Err(format!("need 1..={MAX_LAYERS} layers (got {})", a.assignments.len()));
        }
        for (i, layer) in a.assignments.iter().enumerate() {
            if layer.len() != a.n as usize {
                return Err(format!("layer {i} assigns {} hosts but n={}", layer.len(), a.n));
            }
        }
        Ok(())
    };
    match req {
        Request::Ping { .. }
        | Request::Shutdown
        | Request::MetricsDump { .. }
        | Request::AssessCancel
        | Request::TraceDump { .. } => Ok(()),
        Request::TraceContext { trace_id, .. } => {
            if *trace_id == 0 {
                return Err("trace id 0 is reserved for \"no trace\"".to_string());
            }
            Ok(())
        }
        Request::TraceUpload { trace_id, spans } => {
            if *trace_id == 0 {
                return Err("trace id 0 is reserved for \"no trace\"".to_string());
            }
            if spans.len() > MAX_TRACE_SPANS as usize {
                return Err(format!(
                    "need at most {MAX_TRACE_SPANS} uploaded spans (got {})",
                    spans.len()
                ));
            }
            Ok(())
        }
        Request::Hello { tenant } => {
            if tenant.is_empty() {
                return Err("tenant id must not be empty".to_string());
            }
            if tenant.len() > MAX_TENANT_LEN {
                return Err(format!(
                    "tenant id exceeds {MAX_TENANT_LEN} bytes (got {})",
                    tenant.len()
                ));
            }
            if let Some(c) = tenant
                .chars()
                .find(|c| !(c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.')))
            {
                return Err(format!("tenant id may only contain [A-Za-z0-9._-] (got {c:?})"));
            }
            Ok(())
        }
        Request::AssessPlan(a) => check_assess(a),
        Request::AssessStream { req: a, cadence } => {
            check_assess(a)?;
            if *cadence == 0 {
                return Err("stream cadence must be at least 1 chunk".to_string());
            }
            Ok(())
        }
        Request::SearchPlacement(s) => check_spec(s.k, s.n, s.rounds),
        Request::SearchStream { req: s, workers, iters } => {
            check_spec(s.k, s.n, s.rounds)?;
            if *workers == 0 || *workers > MAX_SEARCH_CHAINS {
                return Err(format!("need 1..={MAX_SEARCH_CHAINS} search chains (got {workers})"));
            }
            if *iters > MAX_SEARCH_ITERS {
                return Err(format!("iters={iters} exceeds the {MAX_SEARCH_ITERS} limit"));
            }
            if *iters == 0 && s.budget_ms == 0 {
                return Err("need a budget: iters > 0 or budget_ms > 0".to_string());
            }
            Ok(())
        }
        Request::CacheSync { max_entries } => {
            if *max_entries == 0 || *max_entries > MAX_SYNC_ENTRIES {
                return Err(format!(
                    "need 1..={MAX_SYNC_ENTRIES} sync entries (got {max_entries})"
                ));
            }
            Ok(())
        }
        Request::ComparePlans(c) => {
            check_spec(c.k, c.n, c.rounds)?;
            if c.plans.is_empty() || c.plans.len() > MAX_PLANS as usize {
                return Err(format!(
                    "need 1..={MAX_PLANS} candidate plans (got {})",
                    c.plans.len()
                ));
            }
            for (i, plan) in c.plans.iter().enumerate() {
                if plan.len() != c.n as usize {
                    return Err(format!("plan {i} assigns {} hosts but n={}", plan.len(), c.n));
                }
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_requests() -> Vec<Request> {
        vec![
            Request::Ping { token: u64::MAX },
            Request::AssessPlan(AssessRequest {
                preset: Preset::Tiny,
                rounds: 10_000,
                seed: 42,
                k: 2,
                n: 3,
                assignments: vec![vec![72, 73, 74]],
            }),
            Request::AssessPlan(AssessRequest {
                preset: Preset::Large,
                rounds: 1,
                seed: 0,
                k: 1,
                n: 2,
                assignments: vec![vec![72, 73], vec![80, 81]],
            }),
            Request::SearchPlacement(SearchRequest {
                preset: Preset::Small,
                rounds: 5_000,
                seed: 7,
                k: 4,
                n: 5,
                budget_ms: 2_000,
            }),
            Request::ComparePlans(CompareRequest {
                preset: Preset::Medium,
                rounds: 1_000,
                seed: 9,
                k: 1,
                n: 2,
                plans: vec![vec![72, 73], vec![74, 75], vec![76, 77]],
            }),
            Request::Shutdown,
            Request::MetricsDump { journal_tail: 0 },
            Request::MetricsDump { journal_tail: 256 },
            Request::AssessStream {
                req: AssessRequest {
                    preset: Preset::Tiny,
                    rounds: 50_000,
                    seed: 11,
                    k: 2,
                    n: 3,
                    assignments: vec![vec![72, 73, 74]],
                },
                cadence: 4,
            },
            Request::AssessCancel,
            Request::SearchStream {
                req: SearchRequest {
                    preset: Preset::Tiny,
                    rounds: 2_000,
                    seed: 13,
                    k: 2,
                    n: 3,
                    budget_ms: 0,
                },
                workers: 4,
                iters: 150,
            },
            Request::CacheSync { max_entries: 1 },
            Request::CacheSync { max_entries: MAX_SYNC_ENTRIES },
            Request::TraceDump { trace_id: 0 },
            Request::TraceDump { trace_id: u64::MAX },
            Request::TraceContext { trace_id: 0xDEAD_BEEF, parent_span: 1 << 20 },
            Request::TraceUpload { trace_id: 1, spans: vec![] },
            Request::TraceUpload { trace_id: 2, spans: sample_trace_spans() },
            Request::Hello { tenant: "default".into() },
            Request::Hello { tenant: "team-a.prod_01".into() },
        ]
    }

    fn sample_trace_spans() -> Vec<TraceSpan> {
        vec![
            TraceSpan {
                id: (1 << 20) + 1,
                parent: 0,
                kind: "client.request".into(),
                start_us: 1_700_000_000_000_000,
                end_us: 1_700_000_000_250_000,
                v0: 0,
                v1: 0,
            },
            TraceSpan {
                id: (1 << 20) + 2,
                parent: (1 << 20) + 1,
                kind: "client.connect".into(),
                start_us: 1_700_000_000_000_100,
                end_us: 0,
                v0: u64::MAX,
                v1: 7,
            },
        ]
    }

    fn sample_metrics() -> MetricsResponse {
        let mut hist = recloud_obs::HistogramSnapshot {
            count: 3,
            sum: 1_234,
            max: 1_000,
            ..Default::default()
        };
        hist.buckets[0] = 1;
        hist.buckets[9] = 2;
        MetricsResponse {
            snapshot: recloud_obs::MetricsSnapshot {
                counters: vec![
                    ("server.cache_hits".into(), 40),
                    ("server.requests_total".into(), 100),
                ],
                gauges: vec![("server.queue_depth".into(), -1), ("x".into(), i64::MAX)],
                histograms: vec![("server.latency_us.assess".into(), hist)],
            },
            events: vec![recloud_obs::Event {
                seq: 7,
                ts_micros: 1_700_000_000_000_000,
                thread: 3,
                kind: "anneal.best".into(),
                v0: 14,
                v1: 0,
                f0: 0.998,
                f1: 0.25,
            }],
        }
    }

    fn sample_responses() -> Vec<Response> {
        vec![
            Response::Pong { token: 17 },
            Response::Assess(AssessResponse {
                score: 0.987_654_321,
                variance: 1.5e-6,
                rounds: 10_000,
                successes: 9_876,
                cached: true,
            }),
            Response::Search(SearchResponse {
                reliability: 0.9999,
                ciw95: 2e-4,
                plans_assessed: 12_345,
                hosts: vec![72, 99, 104],
            }),
            Response::Compare(CompareResponse {
                ranking: vec![
                    CompareEntry { input_index: 1, score: 0.99, ciw95: 1e-3, tied_with_best: true },
                    CompareEntry {
                        input_index: 0,
                        score: 0.95,
                        ciw95: 2e-3,
                        tied_with_best: false,
                    },
                ],
            }),
            Response::Busy { queued: 64, capacity: 64 },
            Response::Error { code: ErrorCode::Invalid, message: "id 9999 is not a host".into() },
            Response::Error { code: ErrorCode::Oversized, message: String::new() },
            Response::ShutdownAck { completed: 314 },
            Response::Metrics(sample_metrics()),
            Response::Metrics(MetricsResponse::default()),
            Response::Partial(PartialResponse {
                rounds_done: 5_040,
                rounds_total: 50_400,
                score: 0.991_5,
                ciw: 0.012_3,
            }),
            Response::SearchEvent(SearchEventResponse {
                chain: 2,
                iteration: 37,
                elapsed_us: 12_345,
                measure: 0.999_25,
                reliability: 0.999_25,
                temperature: 0.75,
            }),
            Response::CacheSegment(CacheSegmentResponse {
                entries: vec![
                    CacheEntry {
                        key: u128::MAX,
                        score: 0.999_75,
                        variance: 3.2e-7,
                        rounds: 50_000,
                        successes: 49_987,
                    },
                    CacheEntry { key: 1, score: 0.0, variance: 0.0, rounds: 1, successes: 0 },
                ],
            }),
            Response::CacheSegment(CacheSegmentResponse::default()),
            Response::Trace(TraceResponse {
                trace_id: 42,
                dropped: 3,
                spans: sample_trace_spans(),
            }),
            Response::Trace(TraceResponse::default()),
            Response::HelloAck { tenant: "default".into() },
            Response::HelloAck { tenant: "team-a.prod_01".into() },
        ]
    }

    /// Satellite: every request/response frame round-trips bit-identically
    /// — the decoded value re-encodes to the exact same bytes.
    #[test]
    fn every_frame_roundtrips_bit_identically() {
        for req in sample_requests() {
            let bytes = req.encode();
            let back = Request::decode(bytes.clone()).unwrap();
            assert_eq!(back, req);
            assert_eq!(back.encode(), bytes, "re-encode must be byte-identical: {req:?}");
        }
        for resp in sample_responses() {
            let bytes = resp.encode();
            let back = Response::decode(bytes.clone()).unwrap();
            assert_eq!(back, resp);
            assert_eq!(back.encode(), bytes, "re-encode must be byte-identical: {resp:?}");
        }
    }

    /// Satellite: every strict prefix of every frame is rejected as
    /// Truncated (or another ProtoError), never a panic — extending the
    /// PR 1 truncation guarantee to the server codec.
    #[test]
    fn every_prefix_cut_is_rejected() {
        for req in sample_requests() {
            let whole = req.encode();
            for cut in 0..whole.len() {
                assert!(
                    Request::decode(whole.slice(..cut)).is_err(),
                    "{req:?} cut={cut} must not decode"
                );
            }
        }
        for resp in sample_responses() {
            let whole = resp.encode();
            for cut in 0..whole.len() {
                assert!(
                    Response::decode(whole.slice(..cut)).is_err(),
                    "{resp:?} cut={cut} must not decode"
                );
            }
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut w = ByteWriter::new();
        w.put_slice(&Request::Shutdown.encode());
        w.put_u8(0);
        assert_eq!(Request::decode(w.freeze()), Err(ProtoError::TrailingBytes(1)));
    }

    #[test]
    fn bad_magic_and_kind_are_rejected() {
        let mut w = ByteWriter::new();
        w.put_u32_le(0xDEAD_BEEF);
        w.put_u8(0x01);
        w.put_u64_le(0);
        assert_eq!(Request::decode(w.freeze()), Err(ProtoError::BadMagic(0xDEAD_BEEF)));

        let mut w = ByteWriter::new();
        put_header(&mut w, 0x7F);
        assert_eq!(Request::decode(w.freeze()), Err(ProtoError::BadKind(0x7F)));
        let mut w = ByteWriter::new();
        put_header(&mut w, 0x02);
        w.put_u8(9); // preset tag 9 does not exist
        w.put_u32_le(1);
        w.put_u64_le(1);
        w.put_u32_le(1);
        w.put_u32_le(1);
        w.put_u32_le(0);
        assert_eq!(Request::decode(w.freeze()), Err(ProtoError::BadPreset(9)));
    }

    #[test]
    fn request_kind_cannot_decode_as_response() {
        let ping = Request::Ping { token: 1 }.encode();
        assert_eq!(Response::decode(ping), Err(ProtoError::BadKind(0x01)));
        let pong = Response::Pong { token: 1 }.encode();
        assert_eq!(Request::decode(pong), Err(ProtoError::BadKind(0x81)));
    }

    #[test]
    fn error_frame_truncates_overlong_messages() {
        let long = "x".repeat(100_000);
        let resp = Response::Error { code: ErrorCode::Internal, message: long };
        let decoded = Response::decode(resp.encode()).unwrap();
        match decoded {
            Response::Error { message, .. } => assert_eq!(message.len(), u16::MAX as usize),
            other => panic!("wrong frame {other:?}"),
        }
    }

    #[test]
    fn frame_transport_roundtrip_and_clean_eof() {
        let payload = Request::Ping { token: 3 }.encode();
        let mut wire = Vec::new();
        write_frame(&mut wire, &payload).unwrap();
        assert_eq!(&wire[..4], &(payload.len() as u32).to_le_bytes());
        let mut cursor = std::io::Cursor::new(wire);
        let got = read_frame(&mut cursor).unwrap().unwrap();
        assert_eq!(got, payload.as_slice());
        assert_eq!(read_frame(&mut cursor).unwrap(), None, "clean EOF at boundary");
    }

    #[test]
    fn oversized_length_prefix_is_invalid_data_without_allocation() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&u32::MAX.to_le_bytes());
        wire.extend_from_slice(&[0; 8]);
        let err = read_frame(&mut std::io::Cursor::new(wire)).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn half_written_frame_is_unexpected_eof() {
        let payload = Request::Shutdown.encode();
        let mut wire = Vec::new();
        write_frame(&mut wire, &payload).unwrap();
        wire.truncate(wire.len() - 2);
        let err = read_frame(&mut std::io::Cursor::new(wire)).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn shape_validation_catches_bad_requests() {
        let ok = Request::AssessPlan(AssessRequest {
            preset: Preset::Tiny,
            rounds: 100,
            seed: 1,
            k: 1,
            n: 2,
            assignments: vec![vec![72, 73]],
        });
        assert!(validate_shape(&ok).is_ok());
        let mut bad_k = ok.clone();
        if let Request::AssessPlan(a) = &mut bad_k {
            a.k = 3;
        }
        assert!(validate_shape(&bad_k).unwrap_err().contains("k <= n"));
        let mut bad_rounds = ok.clone();
        if let Request::AssessPlan(a) = &mut bad_rounds {
            a.rounds = 0;
        }
        assert!(validate_shape(&bad_rounds).unwrap_err().contains("rounds"));
        let mut bad_layer = ok.clone();
        if let Request::AssessPlan(a) = &mut bad_layer {
            a.assignments = vec![vec![72]];
        }
        assert!(validate_shape(&bad_layer).unwrap_err().contains("hosts but n="));
        let empty_compare = Request::ComparePlans(CompareRequest {
            preset: Preset::Tiny,
            rounds: 10,
            seed: 0,
            k: 1,
            n: 1,
            plans: vec![],
        });
        assert!(validate_shape(&empty_compare).unwrap_err().contains("candidate plans"));
        // Streaming: the AssessPlan rules carry over and cadence 0 is out.
        let Request::AssessPlan(a) = ok else { unreachable!() };
        let stream = Request::AssessStream { req: a.clone(), cadence: 1 };
        assert!(validate_shape(&stream).is_ok());
        let bad_cadence = Request::AssessStream { req: a.clone(), cadence: 0 };
        assert!(validate_shape(&bad_cadence).unwrap_err().contains("cadence"));
        let mut bad_k = a;
        bad_k.k = 3;
        let bad_stream = Request::AssessStream { req: bad_k, cadence: 1 };
        assert!(validate_shape(&bad_stream).unwrap_err().contains("k <= n"));
        assert!(validate_shape(&Request::AssessCancel).is_ok());
        // SearchStream: chain count and budget shape are admission-checked.
        let s =
            SearchRequest { preset: Preset::Tiny, rounds: 100, seed: 1, k: 2, n: 3, budget_ms: 0 };
        let ok_stream = Request::SearchStream { req: s, workers: 4, iters: 50 };
        assert!(validate_shape(&ok_stream).is_ok());
        let no_chains = Request::SearchStream { req: s, workers: 0, iters: 50 };
        assert!(validate_shape(&no_chains).unwrap_err().contains("search chains"));
        let too_many = Request::SearchStream { req: s, workers: MAX_SEARCH_CHAINS + 1, iters: 50 };
        assert!(validate_shape(&too_many).unwrap_err().contains("search chains"));
        let no_budget = Request::SearchStream { req: s, workers: 1, iters: 0 };
        assert!(validate_shape(&no_budget).unwrap_err().contains("budget"));
        let wall_clock_ok = Request::SearchStream {
            req: SearchRequest { budget_ms: 25, ..s },
            workers: 1,
            iters: 0,
        };
        assert!(validate_shape(&wall_clock_ok).is_ok());
        let bad_spec =
            Request::SearchStream { req: SearchRequest { k: 4, ..s }, workers: 1, iters: 50 };
        assert!(validate_shape(&bad_spec).unwrap_err().contains("k <= n"));
        // CacheSync: the entry budget is admission-checked.
        assert!(validate_shape(&Request::CacheSync { max_entries: 1 }).is_ok());
        assert!(validate_shape(&Request::CacheSync { max_entries: MAX_SYNC_ENTRIES }).is_ok());
        let no_entries = Request::CacheSync { max_entries: 0 };
        assert!(validate_shape(&no_entries).unwrap_err().contains("sync entries"));
        let too_greedy = Request::CacheSync { max_entries: MAX_SYNC_ENTRIES + 1 };
        assert!(validate_shape(&too_greedy).unwrap_err().contains("sync entries"));
        // Tracing: id 0 is reserved, upload span counts are bounded.
        assert!(validate_shape(&Request::TraceDump { trace_id: 0 }).is_ok());
        assert!(validate_shape(&Request::TraceContext { trace_id: 5, parent_span: 0 }).is_ok());
        let zero_ctx = Request::TraceContext { trace_id: 0, parent_span: 1 };
        assert!(validate_shape(&zero_ctx).unwrap_err().contains("trace id 0"));
        assert!(validate_shape(&Request::TraceUpload { trace_id: 5, spans: vec![] }).is_ok());
        let zero_upload = Request::TraceUpload { trace_id: 0, spans: vec![] };
        assert!(validate_shape(&zero_upload).unwrap_err().contains("trace id 0"));
        let span = sample_trace_spans().remove(0);
        let flood =
            Request::TraceUpload { trace_id: 5, spans: vec![span; MAX_TRACE_SPANS as usize + 1] };
        assert!(validate_shape(&flood).unwrap_err().contains("uploaded spans"));
        // Hello: tenant ids are bounded and charset-restricted (they
        // embed into instrument names).
        assert!(validate_shape(&Request::Hello { tenant: "team-a.prod_01".into() }).is_ok());
        assert!(validate_shape(&Request::Hello { tenant: "x".repeat(MAX_TENANT_LEN) }).is_ok());
        let empty = Request::Hello { tenant: String::new() };
        assert!(validate_shape(&empty).unwrap_err().contains("empty"));
        let long = Request::Hello { tenant: "x".repeat(MAX_TENANT_LEN + 1) };
        assert!(validate_shape(&long).unwrap_err().contains("exceeds"));
        for bad in ["a b", "a/b", "a\nb", "tenant!", "é"] {
            let req = Request::Hello { tenant: bad.into() };
            assert!(
                validate_shape(&req).unwrap_err().contains("A-Za-z0-9"),
                "{bad:?} must be rejected"
            );
        }
    }

    /// The retired Stats kinds (0x05 request, 0x85 response) decode
    /// exactly as any other unknown kind does.
    #[test]
    fn retired_stats_kinds_are_rejected_as_unknown() {
        for kind in [0x05u8, 0x85] {
            let mut w = ByteWriter::new();
            put_header(&mut w, kind);
            let frame = w.freeze();
            assert_eq!(Request::decode(frame.clone()), Err(ProtoError::BadKind(kind)));
            assert_eq!(Response::decode(frame), Err(ProtoError::BadKind(kind)));
        }
    }

    /// MetricsDump request and MetricsResult response round-trip, and the
    /// re-encode is byte-identical.
    #[test]
    fn metrics_dump_frames_roundtrip() {
        let dump = Request::MetricsDump { journal_tail: 64 };
        assert_eq!(Request::decode(dump.encode()).unwrap(), dump);
        let metrics = Response::Metrics(sample_metrics());
        let bytes = metrics.encode();
        let back = Response::decode(bytes.clone()).unwrap();
        assert_eq!(back, metrics);
        assert_eq!(back.encode(), bytes, "re-encode must be byte-identical");
        // Sparse bucket encoding reconstructs the full 64-bucket layout.
        let Response::Metrics(m) = back else { unreachable!() };
        let h = m.snapshot.histogram("server.latency_us.assess").unwrap();
        assert_eq!(h.buckets[9], 2);
        assert_eq!(h.buckets.iter().sum::<u64>(), 3);
        assert_eq!(h.p50(), 1_000, "p50 bucket upper bound clamps to max");
    }

    #[test]
    fn metrics_bad_bucket_index_is_rejected() {
        let mut m = sample_metrics();
        m.snapshot.histograms[0].1.buckets = [0; 64];
        let good = Response::Metrics(m).encode();
        // Find the sparse-bucket region: re-encode with a hand-built
        // frame instead — simpler: corrupt via encode of a valid frame
        // is brittle, so build the body directly.
        drop(good);
        let mut w = ByteWriter::new();
        put_header(&mut w, 0x89);
        w.put_u32_le(0); // counters
        w.put_u32_le(0); // gauges
        w.put_u32_le(1); // one histogram
        put_str(&mut w, "h");
        w.put_u64_le(1); // count
        w.put_u64_le(1); // sum
        w.put_u64_le(1); // max
        w.put_u8(1); // one sparse bucket
        w.put_u8(64); // out of range
        w.put_u64_le(1);
        w.put_u32_le(0); // events
        assert_eq!(Response::decode(w.freeze()), Err(ProtoError::BadBucket(64)));
    }

    #[test]
    fn preset_names_and_tags_roundtrip() {
        for p in [Preset::Tiny, Preset::Small, Preset::Medium, Preset::Large, Preset::Xl] {
            assert_eq!(Preset::from_tag(p.tag()).unwrap(), p);
        }
        assert_eq!(Preset::from_name("tiny"), Some(Preset::Tiny));
        assert_eq!(Preset::from_name("xl"), Some(Preset::Xl));
        assert_eq!(Preset::from_name("nowhere"), None);
        assert!(Preset::from_tag(7).is_err());
    }
}
