//! Proof that reconstruction is allocation-free once warm, at `c = 1`:
//! a counting global allocator wraps the system allocator, and neither
//! a sequential `read_into` scan of an array with a failed disk, nor a
//! batch of writes to it, nor a batch of `rebuild_step` — spare
//! rebuild, copy-back from spare space, copy-back by reconstruction —
//! may allocate at all.
//!
//! This file is its own test binary (one `#[global_allocator]` per
//! binary) and deliberately contains a single test so no concurrent
//! test can perturb the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use pddl_array::{DeclusteredArray, RebuildTicket, WriteScratch};
use pddl_core::Pddl;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Only the test thread counts: the libtest harness thread can
    /// allocate concurrently and must not pollute the proof.
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

const BATCH: u64 = 4;

/// Allocations made by the batches of `ticket` that leave it unfinished,
/// after one warm-up batch; the finishing batch (which flips the disk's
/// state) runs uncounted.
fn step_allocations(a: &DeclusteredArray, ticket: &mut RebuildTicket) -> u64 {
    a.rebuild_step(ticket, BATCH).unwrap();
    let mut made = 0;
    while ticket.pending_stripes().len() as u64 > BATCH {
        let before = ALLOCATIONS.load(Ordering::SeqCst);
        a.rebuild_step(ticket, BATCH).unwrap();
        made += ALLOCATIONS.load(Ordering::SeqCst) - before;
    }
    assert!(a.rebuild_step(ticket, u64::MAX).unwrap().done);
    made
}

#[test]
fn degraded_read_into_and_rebuild_steps_make_zero_allocations() {
    COUNTING.with(|c| c.set(true));
    const UNIT: usize = 64;
    let a = DeclusteredArray::new(Box::new(Pddl::new(7, 3).unwrap()), UNIT, 2).unwrap();
    let cap = a.capacity_units();
    let data: Vec<u8> = (0..UNIT * cap as usize).map(|i| (i * 7) as u8).collect();
    a.write(0, &data).unwrap();
    a.fail_disk(0).unwrap();

    let mut whole = vec![0u8; UNIT * cap as usize];
    let mut unit = vec![0u8; UNIT];
    // Warm-up: grows the array's degraded-read buffers.
    a.read_into(0, &mut whole).unwrap();
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    a.read_into(0, &mut whole).unwrap();
    for logical in 0..cap {
        a.read_into(logical, &mut unit).unwrap();
        assert_eq!(
            unit,
            data[logical as usize * UNIT..][..UNIT],
            "unit {logical}"
        );
    }
    let made = ALLOCATIONS.load(Ordering::SeqCst) - before;
    assert_eq!(made, 0, "degraded read_into allocated on a {cap}-unit scan");
    assert_eq!(whole, data);
    assert!(a.degraded_reads() > 0, "the scan never reconstructed");

    // 16 single-unit writes, each on its own stripe: a written unit on
    // the failed disk takes reconstruct-write, a stripe that lost
    // another unit read-modify-write.
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
    let fresh = vec![0xa5u8; UNIT];
    let ops: Vec<(u64, &[u8])> = starts.iter().map(|&s| (s, &fresh[..])).collect();
    let mut scratch = WriteScratch::default();
    // Warm-up: grows the scratch and the intent journal to the batch.
    assert!(a
        .write_batch_into(&ops, &mut scratch)
        .iter()
        .all(Result::is_ok));
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for _ in 0..4 {
        assert!(a
            .write_batch_into(&ops, &mut scratch)
            .iter()
            .all(Result::is_ok));
    }
    let made = ALLOCATIONS.load(Ordering::SeqCst) - before;
    assert_eq!(made, 0, "degraded write_batch_into allocated");
    let mut data = data;
    for &s in &starts {
        data[s as usize * UNIT..][..UNIT].copy_from_slice(&fresh);
    }

    let mut spare = a.begin_rebuild(0).unwrap();
    let made = step_allocations(&a, &mut spare);
    assert_eq!(made, 0, "spare rebuild_step allocated");
    let mut copy_back = a.begin_copy_back(0).unwrap();
    let made = step_allocations(&a, &mut copy_back);
    assert_eq!(
        made, 0,
        "copy-back rebuild_step allocated (from spare space)"
    );
    a.fail_disk(1).unwrap();
    let mut reconstruct = a.begin_copy_back(1).unwrap();
    let made = step_allocations(&a, &mut reconstruct);
    assert_eq!(
        made, 0,
        "copy-back rebuild_step allocated (by reconstruction)"
    );

    assert!(a.failed_disks().is_empty());
    assert_eq!(a.read(0, cap).unwrap(), data);
    assert!(a.scrub().unwrap().is_empty(), "parity diverged");
}
