//! Proof that the sharded runtime's healthy READ path is lock-free and
//! allocation-free end to end: a counting global allocator wraps the
//! system allocator, and [`pddl_server::engine::lock_acquisitions`]
//! counts every mutex/rwlock acquisition made through the engine's
//! lock helpers. Driving the exact per-shard execution sequence —
//! `prepare` → `begin_access` → `shard_read` → `end_access` —
//! over a healthy array must move neither counter.
//!
//! This file is its own test binary (one `#[global_allocator]` per
//! process) and deliberately contains a single test so no concurrent
//! test can perturb either counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use pddl_array::{DeclusteredArray, WriteScratch};
use pddl_core::Pddl;
use pddl_server::engine::{lock_acquisitions, Engine};
use pddl_server::wire::{Op, Request, Status};

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

fn read_req(offset: u64, length: u32) -> Request {
    Request {
        id: 1,
        op: Op::Read,
        volume: 0,
        offset,
        length,
        payload: Vec::new(),
    }
}

/// The healthy READ sequence a shard thread runs per request, minus
/// the socket: resolve, bracket, copy, close. Asserts the data made it.
fn serve_one_read(engine: &Engine, offset: u64, out: &mut [u8]) {
    let req = read_req(offset, (out.len() / engine.unit_bytes()) as u32);
    let (resolved, bytes) = engine.prepare(&req).expect("healthy resolve");
    assert_eq!(bytes, out.len());
    let span = engine.begin_access();
    let mut at = 0usize;
    for seg in resolved.segments.iter() {
        let len = seg.units as usize * engine.unit_bytes();
        engine
            .shard_read(seg.phys, &mut out[at..at + len])
            .expect("healthy read");
        at += len;
    }
    resolved.stats.reads.fetch_add(1, Ordering::Relaxed);
    resolved
        .stats
        .bytes_read
        .fetch_add(bytes as u64, Ordering::Relaxed);
    engine.end_access(span, &req, Status::Ok, bytes, 0);
}

#[test]
fn healthy_shard_read_takes_no_locks_and_makes_no_allocations() {
    COUNTING.with(|c| c.set(true));
    const UNIT: usize = 64;
    let array = DeclusteredArray::new(Box::new(Pddl::new(7, 3).unwrap()), UNIT, 4).unwrap();
    let engine = Arc::new(Engine::new(array));
    // Capacity of Pddl(7,3) × 4 periods: 4 × 28 data units.
    let cap = 112u64;

    // Seed data so reads return something checkable.
    let unit_pattern: Vec<u8> = (0..UNIT).map(|i| i as u8).collect();
    let mut scratch = WriteScratch::default();
    for logical in 0..cap {
        let req = Request {
            id: 0,
            op: Op::Write,
            volume: 0,
            offset: logical,
            length: 1,
            payload: unit_pattern.clone(),
        };
        let (resolved, _) = engine.prepare(&req).unwrap();
        for seg in resolved.segments.iter() {
            let ops = [(seg.phys, &unit_pattern[..])];
            engine.shard_write_batch_into(&ops, &mut scratch)[0]
                .clone()
                .unwrap();
        }
    }

    // Warm-up: fault in lazily-allocated state (telemetry ring slots,
    // histogram buckets, flight-recorder capacity) before counting.
    let mut single = vec![0u8; UNIT];
    let mut multi = vec![0u8; 4 * UNIT];
    serve_one_read(&engine, 0, &mut single);
    serve_one_read(&engine, 8, &mut multi);

    let locks_before = lock_acquisitions();
    let allocs_before = ALLOCATIONS.load(Ordering::SeqCst);
    for logical in 0..cap {
        serve_one_read(&engine, logical, &mut single);
        assert_eq!(single, unit_pattern);
    }
    for logical in (0..cap - 4).step_by(7) {
        serve_one_read(&engine, logical, &mut multi);
    }
    let allocs_after = ALLOCATIONS.load(Ordering::SeqCst);
    let locks_after = lock_acquisitions();

    assert_eq!(
        locks_after - locks_before,
        0,
        "healthy shard READ path acquired an engine lock"
    );
    assert_eq!(
        allocs_after - allocs_before,
        0,
        "healthy shard READ path allocated"
    );
}
