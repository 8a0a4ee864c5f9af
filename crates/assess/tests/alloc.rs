//! Arena guard: the steady-state chunk loop — sample into a table slot,
//! collapse it in place, wide route-and-check — must be allocation-free,
//! and a warm engine's drives must allocate nothing table-sized. After the
//! first chunk warms every scratch buffer (table slots on first use, the
//! checker's bit-sliced counters, the router's wide scratch), later chunks
//! only write into memory that already exists, and later drives fill the
//! table slots the previous seed left behind — on the caller's thread or
//! on helper threads, which need no scratch of their own. The slots are
//! the engine's whole chunk storage (`arena_bytes`). A counting global
//! allocator proves it, so the hot path cannot silently regress back to
//! per-chunk allocation or per-drive table copies.

use recloud_apps::{ApplicationSpec, DeploymentPlan};
use recloud_assess::{Assessor, StructureChecker};
use recloud_faults::{FaultModel, ProbabilityConfig};
use recloud_sampling::{ResultAccumulator, Rng};
use recloud_topology::{FatTreeParams, Topology};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

struct CountingAlloc;

// Per-thread allocation count and largest allocation (const-initialized,
// no-Drop payloads, so reading them inside the allocator neither
// allocates nor recurses). Only the measuring thread's allocations must
// count — the libtest harness allocates on other threads concurrently.
thread_local! {
    static TL_ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static TL_LARGEST: Cell<usize> = const { Cell::new(0) };
}

// Largest allocation on any thread, for drives that fill on helper
// threads. The tests take `SERIAL`, so no other test's set-up pollutes it.
static LARGEST_ANYWHERE: AtomicUsize = AtomicUsize::new(0);
static SERIAL: Mutex<()> = Mutex::new(());

fn record(size: usize) {
    TL_ALLOCATIONS.with(|c| c.set(c.get() + 1));
    TL_LARGEST.with(|c| c.set(c.get().max(size)));
    LARGEST_ANYWHERE.fetch_max(size, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = TL_ALLOCATIONS.with(Cell::get);
    f();
    TL_ALLOCATIONS.with(Cell::get) - before
}

/// The largest single allocation `f` makes on this thread (0 for none).
fn largest_allocation_during(f: impl FnOnce()) -> usize {
    TL_LARGEST.with(|c| c.set(0));
    f();
    TL_LARGEST.with(Cell::get)
}

/// The largest single allocation on any thread while `f` runs.
fn largest_allocation_anywhere(f: impl FnOnce()) -> usize {
    LARGEST_ANYWHERE.store(0, Ordering::Relaxed);
    f();
    LARGEST_ANYWHERE.load(Ordering::Relaxed)
}

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[test]
fn wide_chunk_loop_does_not_allocate() {
    let _serial = serial();
    let t = FatTreeParams::new(4).build();
    let model = FaultModel::paper_default(&t, 11);
    let spec = ApplicationSpec::k_of_n(2, 4);
    let mut rng = Rng::new(6);
    let plan = DeploymentPlan::random(&spec, t.hosts(), &mut rng);

    // Setup may allocate — that is the point of the arena: construction
    // sizes every scratch buffer once.
    let mut engine = Assessor::new(&t, model);
    let mut checker = StructureChecker::new(&spec, &plan);
    let mut acc = ResultAccumulator::new();
    // Warm-up chunk: first use grows the checker's bit-sliced K-of-N
    // counters and fills the router's lazy per-pod scratch.
    engine.run_chunk(&mut checker, Assessor::chunk_seed(42, 0), 2_000, &mut acc);

    // Steady state: full and short-tail chunks alike must not allocate.
    for (chunk, rounds) in [(1u32, 2_000usize), (2, 257), (3, 63)] {
        let allocs = allocations_during(|| {
            engine.run_chunk(&mut checker, Assessor::chunk_seed(42, chunk), rounds, &mut acc);
        });
        assert_eq!(allocs, 0, "chunk of {rounds} rounds allocated {allocs} times");
    }
    assert!(acc.rounds() > 0, "the counted chunks really ran");
}

/// A power-dependent model whose probabilities are all `p`: the chunk
/// width follows the dagger cycle ⌊1/p⌋.
fn uniform_model(t: &Topology, p: f64) -> FaultModel {
    let mut m = FaultModel::new(t, &ProbabilityConfig::Uniform(p), 0);
    m.attach_power_dependencies(t);
    m
}

#[test]
fn warm_drives_allocate_no_table() {
    let _serial = serial();
    let t = FatTreeParams::new(4).build();
    let spec = ApplicationSpec::k_of_n(2, 4);
    let mut rng = Rng::new(6);
    let plan = DeploymentPlan::random(&spec, t.hosts(), &mut rng);
    let rounds = 6_000;

    // Warm-up: the first drive creates one table slot per chunk. Cycles of
    // ⌊1/0.0045⌋ = 222 rounds make 2 816-round chunks.
    let mut engine = Assessor::new(&t, uniform_model(&t, 0.0045));
    engine.assess(&spec, &plan, rounds, 1);
    let chunks = engine.chunk_layout(rounds).len();
    let table = engine.cache_bytes() / chunks;
    assert_eq!(table, t.num_components() * (2_816 / 64) * 8);
    assert_eq!(engine.arena_bytes(), chunks * table, "the table slots are all the storage");

    let drive = |engine: &mut Assessor, seed: u64| {
        largest_allocation_during(|| {
            let a = engine.assess(&spec, &plan, rounds, seed);
            assert_eq!(a.estimate.rounds, rounds as u64);
        })
    };
    // A new seed (cold path: sample and collapse in the recycled slots)
    // and a repeat of it (cached path: check the slots in place).
    for (seed, path) in [(2u64, "cold"), (2, "cached")] {
        let largest = drive(&mut engine, seed);
        assert!(largest < table, "{path} drive allocated {largest} bytes (a table is {table})");
    }
    // 6 000 rounds end in a 368-round tail; 8 000 in a 2 368-round one,
    // which refills the tail slot.
    let largest = largest_allocation_during(|| {
        let a = engine.assess(&spec, &plan, 8_000, 2);
        assert_eq!(a.estimate.rounds, 8_000);
        assert!(a.timings.sampling > std::time::Duration::ZERO, "the tail was refilled");
    });
    assert!(largest < table, "tail refill allocated {largest} bytes (a table is {table})");
    assert_eq!(engine.arena_bytes(), chunks * table);

    // A reseeded model with ⌊1/0.01⌋ = 100-round cycles: 2 560-round
    // chunks, so every slot is reshaped in place within its capacity.
    let narrower = uniform_model(&t, 0.01);
    let largest = largest_allocation_during(|| engine.reseed(narrower));
    assert!(largest < table, "reseed allocated {largest} bytes (a table is {table})");
    let largest = drive(&mut engine, 3);
    assert!(largest < table, "reshaping drive allocated {largest} bytes (a table is {table})");
    assert_eq!(engine.cache_bytes(), chunks * t.num_components() * (2_560 / 64) * 8);
}

/// Above the parallel-fill floor (a k = 12 fat tree: ~620 components ×
/// ~2 800-round chunks), a cold drive may fill on helper threads. They
/// fill the engine's slots directly, so after a warm-up no thread
/// allocates anything table-sized: not on a new seed, not on a cached
/// table, not on a tail refill, not after a probabilities-only reseed.
#[test]
fn warm_wide_drives_allocate_no_table_on_any_thread() {
    let _serial = serial();
    let t = FatTreeParams::new(12).build();
    let spec = ApplicationSpec::k_of_n(3, 5);
    let mut rng = Rng::new(9);
    let plan = DeploymentPlan::random(&spec, t.hosts(), &mut rng);
    let rounds = 10_000;

    let mut engine = Assessor::new(&t, FaultModel::paper_default(&t, 11));
    engine.assess(&spec, &plan, rounds, 1);
    let chunks = engine.chunk_layout(rounds).len();
    assert!(chunks >= 2, "several chunks to fill");
    let table = engine.cache_bytes() / chunks;
    assert!(table * 8 >= 1 << 20, "a {table}-byte table is below the parallel-fill floor");

    let drive = |engine: &mut Assessor, seed: u64| {
        largest_allocation_anywhere(|| {
            let a = engine.assess(&spec, &plan, rounds, seed);
            assert_eq!(a.estimate.rounds, rounds as u64);
        })
    };
    for (seed, path) in [(2u64, "cold"), (2, "cached")] {
        let largest = drive(&mut engine, seed);
        assert!(largest < table, "{path} drive allocated {largest} bytes (a table is {table})");
    }
    // As many chunks, the last one now full: the partial tail is refilled.
    let width = engine.chunk_layout(rounds)[0].1;
    let refill = chunks * width;
    assert!(refill > rounds && engine.chunk_layout(refill).len() == chunks);
    let largest = largest_allocation_anywhere(|| {
        engine.assess(&spec, &plan, refill, 2);
    });
    assert!(largest < table, "tail refill allocated {largest} bytes (a table is {table})");
    assert_eq!(engine.arena_bytes(), chunks * table, "no chunk storage beside the slots");
    let largest = largest_allocation_anywhere(|| {
        engine.reassign(&ProbabilityConfig::PaperDefault, 3);
    });
    assert!(largest < table, "reassign allocated {largest} bytes (a table is {table})");
    let largest = drive(&mut engine, 3);
    assert!(largest < table, "reassigned drive allocated {largest} bytes (a table is {table})");
}
