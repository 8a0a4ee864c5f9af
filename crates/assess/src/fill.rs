//! Filling chunk tables on idle cores.
//!
//! A cold drive fills one table per chunk and route-and-checks it. A fill
//! is one pass over the chunk's table slot: sample the events straight
//! into it, apply the injector there, and collapse in place
//! ([`FaultModel::collapse_in_place`]); no raw matrix is kept. Only the
//! chunk's checked rounds are sampled: later draws just advance the
//! stream, so the slot records how many rounds it holds.
//!
//! Chunk seeds are independent (§3.2.1), so the fills may run on any
//! thread in any order without changing a bit; only the check must see
//! chunks in order, so that partial estimates, the driver's `stop_hint`
//! and a stream's cancel keep their per-chunk meaning. [`fill_in_order`]
//! therefore fills on the calling thread plus one scoped helper per
//! granted lane, and hands the tables to the caller strictly in chunk
//! order.
//!
//! Helper lanes come from one process-wide count of filling threads,
//! capped at the host's available parallelism: a helper is added only
//! while a lane is free, so two workers that miss at once (or the chains
//! of a parallel search) fill serially instead of oversubscribing the
//! host.

use crate::assessor::{Assessor, SamplerKind};
use recloud_faults::{FaultInjector, FaultModel};
use recloud_sampling::{BitMatrix, DaggerSchedule, ExtendedDaggerSampler, MonteCarloSampler};
use std::num::NonZeroUsize;
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Collapsed tables of fewer bits than this fill serially: starting and
/// joining a helper costs about 0.1 ms, as much as filling a 1 Mbit
/// table. Cold 10⁴-round drives on a 2-vCPU VM, serial vs two lanes:
/// k = 8 fat tree (Tiny, 0.5 Mbit per chunk) 0.17 vs 0.25 ms, k = 10
/// (1.0 Mbit) 0.30 ms both, k = 12 (1.6 Mbit) 0.56–0.62 vs 0.40–0.43 ms.
pub(crate) const PARALLEL_MIN_TABLE_BITS: usize = 1 << 20;

/// Threads currently filling tables, process-wide: each filling drive's
/// own thread plus its helpers. A plain statistic of the lanes in use; it
/// publishes no other data, so `Relaxed` suffices.
static FILL_LANES: AtomicUsize = AtomicUsize::new(0);

/// Lanes the host can run at once.
fn host_lanes() -> usize {
    static HOST: OnceLock<usize> = OnceLock::new();
    *HOST.get_or_init(|| std::thread::available_parallelism().map_or(1, NonZeroUsize::get))
}

/// The fill lanes one drive holds: its own thread plus its helpers.
/// Dropping it frees them.
pub(crate) struct LaneGrant {
    held: usize,
}

impl LaneGrant {
    /// The caller's lane, which it always takes (it fills either way),
    /// plus up to `helpers` more while fewer than the host's lanes fill.
    pub(crate) fn acquire(helpers: usize) -> Self {
        FILL_LANES.fetch_add(1, Ordering::Relaxed);
        let cap = host_lanes();
        let mut held = 1;
        while held <= helpers
            && FILL_LANES
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| (n < cap).then_some(n + 1))
                .is_ok()
        {
            held += 1;
        }
        LaneGrant { held }
    }

    /// Exactly `lanes` lanes whatever the host: the equivalence tests'
    /// entry point. Still counted, so concurrent grants see them.
    pub(crate) fn exactly(lanes: usize) -> Self {
        assert!(lanes >= 1, "a drive fills on at least its own lane");
        FILL_LANES.fetch_add(lanes, Ordering::Relaxed);
        LaneGrant { held: lanes }
    }

    /// Granted lanes beside the caller's.
    pub(crate) fn helpers(&self) -> usize {
        self.held - 1
    }
}

impl Drop for LaneGrant {
    fn drop(&mut self) {
        FILL_LANES.fetch_sub(self.held, Ordering::Relaxed);
    }
}

/// One chunk's table slot and how many of its leading rounds hold the
/// chunk's collapsed states (0 for none). Past those, the table may hold
/// anything.
pub(crate) struct Slot {
    pub table: BitMatrix,
    pub rounds: usize,
}

/// How one chunk's table was filled.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Filled {
    /// When the fill started, on whichever lane ran it.
    pub started: Instant,
    pub sampling: Duration,
    pub collapse: Duration,
}

/// Everything a lane needs to fill chunk tables of one seed.
pub(crate) struct FillJob<'a> {
    pub kind: SamplerKind,
    pub schedule: &'a DaggerSchedule,
    pub model: &'a FaultModel,
    pub injector: Option<&'a FaultInjector>,
}

impl FillJob<'_> {
    /// Fills `table` with the collapsed states of the first `rounds`
    /// rounds of the chunk sampled under `chunk_seed`: samples into it,
    /// applies the injector and collapses in place. Afterwards it has one
    /// row per topology component and the chunk width; past `rounds` it
    /// holds partial states no check reads.
    pub(crate) fn fill(&self, chunk_seed: u64, table: &mut BitMatrix, rounds: usize) -> Filled {
        let started = Instant::now();
        self.sample(chunk_seed, table, rounds);
        if let Some(injector) = self.injector {
            injector.apply(table);
        }
        let sampling = started.elapsed();
        let t_collapse = Instant::now();
        self.model.collapse_in_place(table);
        Filled { started, sampling, collapse: t_collapse.elapsed() }
    }

    /// Samples the first `rounds` rounds of a chunk's event states under
    /// `chunk_seed` into `table`, first shaped in place to the model's
    /// [`FaultModel::table_rows`] × the chunk width.
    pub(crate) fn sample(&self, chunk_seed: u64, table: &mut BitMatrix, rounds: usize) {
        let (rows, width) = (self.model.table_rows(), self.schedule.rounds());
        if table.rounds() == width {
            table.resize_rows(rows);
        } else {
            table.reshape(rows, width);
        }
        match self.kind {
            SamplerKind::ExtendedDagger => ExtendedDaggerSampler::seeded(chunk_seed)
                .sample_scheduled(self.schedule, table, rounds),
            SamplerKind::MonteCarlo => MonteCarloSampler::seeded(chunk_seed).sample_prefix(
                self.model.probs(),
                table,
                rounds,
            ),
        }
    }
}

/// Fills `slots[i]` with the table of chunk `chunks[i] = (index, rounds)`
/// of `master_seed` for those rounds and hands it to `visit`, in order on
/// the calling thread, until `visit` breaks or every chunk was visited.
/// The caller fills alongside `helpers` scoped helper threads. Chunks are
/// claimed in order, and the caller fills the next unclaimed chunk
/// whenever the one it must visit next is still being filled elsewhere.
/// After a break, helpers finish the chunk they hold and claim no more.
///
/// Every filled slot records its rounds, the visited ones and any filled
/// past the break; a slot being filled records none, so a panicking lane
/// leaves no half-written table behind as valid.
pub(crate) fn fill_in_order(
    job: &FillJob<'_>,
    master_seed: u64,
    chunks: &[(u32, usize)],
    slots: &mut [Slot],
    helpers: usize,
    visit: &mut dyn FnMut(&BitMatrix, Filled) -> ControlFlow<()>,
) {
    let queue = Mutex::new(chunks.iter().zip(slots.iter_mut()).enumerate());
    let claim = || queue.lock().expect("no lane panics while claiming a chunk").next();
    let fill = |&(chunk, rounds): &(u32, usize), slot: &mut Slot| {
        slot.rounds = 0;
        let filled = job.fill(Assessor::chunk_seed(master_seed, chunk), &mut slot.table, rounds);
        slot.rounds = rounds;
        filled
    };
    let stop = AtomicBool::new(false);
    let (done_tx, done_rx) = mpsc::channel();
    let mut done: Vec<Option<(&BitMatrix, Filled)>> = vec![None; chunks.len()];
    std::thread::scope(|scope| {
        for _ in 0..helpers {
            let done_tx = done_tx.clone();
            let (claim, fill, stop) = (&claim, &fill, &stop);
            scope.spawn(move || {
                // Sleep first, so the scheduler runs this thread as a
                // waking one rather than a new one. On EEVDF kernels a new
                // thread that shares its CPU with an idle-priority task
                // can lose a whole tick (4 ms at 250 Hz) to that task
                // once its first half-slice is spent, and the join waits
                // it out; a waking thread preempts such a task instead.
                // Spawn and join on a 2-vCPU VM with an idle-priority
                // spinner per CPU: p90 5.3 → 1.4 ms; without spinners the
                // sleep costs ~0.06 ms.
                std::thread::sleep(Duration::from_micros(1));
                // `stop` is a hint that publishes no data: a helper that
                // misses it fills one more chunk, which the drive caches.
                while !stop.load(Ordering::Relaxed) {
                    let Some((i, (chunk, slot))) = claim() else { break };
                    let filled = fill(chunk, slot);
                    if done_tx.send((i, &slot.table, filled)).is_err() {
                        break;
                    }
                }
            });
        }
        drop(done_tx);
        for next in 0..chunks.len() {
            let (table, filled) = loop {
                for (i, table, filled) in done_rx.try_iter() {
                    done[i] = Some((table, filled));
                }
                if let Some(ready) = done[next].take() {
                    break ready;
                }
                if let Some((i, (chunk, slot))) = claim() {
                    let filled = fill(chunk, slot);
                    done[i] = Some((&slot.table, filled));
                    continue;
                }
                // Chunk `next` is on a helper; wait for any helper's fill.
                // A helper that panicked dropped its sender, so this
                // cannot wait forever: once every helper is gone it fails,
                // and the scope then re-raises the helper's panic.
                let (i, table, filled) = done_rx.recv().expect("a fill lane panicked");
                done[i] = Some((table, filled));
            };
            if visit(table, filled).is_break() {
                // Each helper finishes its chunk and exits.
                stop.store(true, Ordering::Relaxed);
                return;
            }
        }
    })
}
