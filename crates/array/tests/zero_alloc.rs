//! Proof that the healthy `read_into` and `write_batch_into` paths are
//! allocation-free: a counting global allocator wraps the system
//! allocator, and neither a full sequential scan of a healthy array nor
//! a warm batch of single-unit read-modify-writes may allocate at all —
//! zero heap allocations per unit, as the zero-copy contract promises.
//!
//! This file is its own test binary (one `#[global_allocator]` per
//! binary) and deliberately contains a single test so no concurrent
//! test can perturb the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use pddl_array::{DeclusteredArray, WriteScratch};
use pddl_core::Pddl;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Only the test thread counts: the libtest harness thread can
    /// allocate concurrently (e.g. the mpsc park path the first time
    /// it blocks, which only happens on a loaded machine) and must not
    /// pollute the proof.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn counting() -> bool {
    COUNTING.try_with(Cell::get).unwrap_or(false)
}

struct CountingAllocator;

// SAFETY: delegates verbatim to `System`; the counter has no effect on
// the returned memory.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if counting() {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if counting() {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if counting() {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

#[test]
fn healthy_read_into_and_write_batch_into_make_zero_allocations() {
    COUNTING.with(|c| c.set(true));
    const UNIT: usize = 64;
    let a = DeclusteredArray::new(Box::new(Pddl::new(7, 3).unwrap()), UNIT, 2).unwrap();
    let cap = a.capacity_units();
    let data: Vec<u8> = (0..UNIT * cap as usize).map(|i| i as u8).collect();
    a.write(0, &data).unwrap();

    let mut whole = vec![0u8; UNIT * cap as usize];
    let mut unit = vec![0u8; UNIT];
    // Warm-up: fault in any lazily-allocated state (lock poisons,
    // hash-map internals) before counting.
    a.read_into(0, &mut whole).unwrap();

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    a.read_into(0, &mut whole).unwrap();
    for logical in 0..cap {
        a.read_into(logical, &mut unit).unwrap();
    }
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    assert_eq!(
        after - before,
        0,
        "healthy read_into allocated on a {cap}-unit scan"
    );
    assert_eq!(whole, data);

    // 16 single-unit writes, each on its own stripe, so every stripe
    // takes the healthy read-modify-write path.
    let mut stripes = Vec::new();
    let mut starts = Vec::new();
    for logical in 0..cap {
        let (stripe, _) = a.layout().locate(logical);
        if !stripes.contains(&stripe) {
            stripes.push(stripe);
            starts.push(logical);
        }
    }
    starts.truncate(16);
    assert_eq!(starts.len(), 16, "too few stripes for the batch");
    let fresh = vec![0x5au8; UNIT];
    let ops: Vec<(u64, &[u8])> = starts.iter().map(|&s| (s, &fresh[..])).collect();
    let mut scratch = WriteScratch::default();
    // Warm-up: grows the scratch and the intent journal to the batch.
    assert!(a
        .write_batch_into(&ops, &mut scratch)
        .iter()
        .all(Result::is_ok));

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for _ in 0..8 {
        let results = a.write_batch_into(&ops, &mut scratch);
        assert!(results.len() == 16 && results.iter().all(Result::is_ok));
    }
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    assert_eq!(
        after - before,
        0,
        "healthy write_batch_into allocated on a 16-op batch"
    );
    for &s in &starts {
        a.read_into(s, &mut unit).unwrap();
        assert_eq!(unit, fresh);
    }
    assert!(a.scrub().unwrap().is_empty(), "parity diverged");
}
