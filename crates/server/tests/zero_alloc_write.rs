//! Proof that the sharded runtime's healthy WRITE path is
//! allocation-free once warm: a counting global allocator wraps the
//! system allocator, and the exact per-tick sequence a shard runs for
//! pipelined WRITEs — `RequestReader::poll` → `prepare` →
//! `begin_access` → one `shard_write_batch_into` with the shard's
//! scratch → `end_access` → `RequestReader::recycle` — must not
//! allocate at all after one warm-up tick.
//!
//! Three readers stand for three connections, each with 8 pipelined
//! single-unit WRITE frames in its socket. Every unit sits on its own
//! stripe, so each stripe of the batch takes the healthy
//! read-modify-write path.
//!
//! This file is its own test binary (one `#[global_allocator]` per
//! process) and deliberately contains a single test so no concurrent
//! test can perturb the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::Cursor;
use std::sync::atomic::{AtomicU64, Ordering};

use pddl_array::{DeclusteredArray, WriteScratch};
use pddl_core::Pddl;
use pddl_server::engine::{AccessSpan, Engine};
use pddl_server::wire::{self, Op, Request, RequestReader, Status};
use pddl_volume::Resolved;

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

const UNIT: usize = 64;
const READERS: usize = 3;
const DEPTH: usize = 8;
const OPS: usize = READERS * DEPTH;

/// Buffers one tick reuses: the decoded requests, what they resolved
/// to, their open access spans, and the shard's write scratch.
struct Tick {
    reqs: Vec<Request>,
    resolved: Vec<Resolved>,
    spans: Vec<AccessSpan>,
    scratch: WriteScratch,
}

/// One shard tick over every reader's queued frames: decode, resolve,
/// open the spans, commit all WRITEs as one batch, close the spans and
/// hand each payload back to the reader that filled it.
fn tick(
    engine: &Engine,
    readers: &mut [RequestReader],
    sockets: &mut [Cursor<Vec<u8>>],
    t: &mut Tick,
) {
    for (reader, socket) in readers.iter_mut().zip(sockets.iter_mut()) {
        socket.set_position(0);
        for _ in 0..DEPTH {
            let req = reader.poll(socket).expect("valid frame").expect("a frame");
            t.resolved
                .push(engine.prepare(&req).expect("healthy resolve").0);
            t.spans.push(engine.begin_access());
            t.reqs.push(req);
        }
    }
    let ops: [(u64, &[u8]); OPS] =
        std::array::from_fn(|i| (t.resolved[i].segments[0].phys, &t.reqs[i].payload[..]));
    let results = engine.shard_write_batch_into(&ops, &mut t.scratch);
    assert!(results.len() == OPS && results.iter().all(Result::is_ok));
    for (i, (span, mut req)) in t.spans.drain(..).zip(t.reqs.drain(..)).enumerate() {
        engine.end_access(span, &req, Status::Ok, 0, 0);
        readers[i / DEPTH].recycle(std::mem::take(&mut req.payload));
    }
    t.resolved.clear();
}

#[test]
fn healthy_pipelined_write_ticks_make_no_allocations() {
    COUNTING.with(|c| c.set(true));
    let array = DeclusteredArray::new(Box::new(Pddl::new(7, 3).unwrap()), UNIT, 4).unwrap();
    let engine = Engine::new(array);
    let cap = engine.volume_info().capacity_units;

    // One unit per stripe (volume 0 maps a unit to the same physical
    // unit of the array), OPS of them.
    let mut stripes = Vec::new();
    let mut units = Vec::new();
    for logical in 0..cap {
        let stripe = engine.stripe_of(logical);
        if !stripes.contains(&stripe) {
            stripes.push(stripe);
            units.push(logical);
        }
    }
    units.truncate(OPS);
    assert_eq!(units.len(), OPS, "too few stripes");

    // Each reader's socket: DEPTH pipelined single-unit WRITE frames.
    let fill = |i: usize| vec![i as u8 | 0x80; UNIT];
    let mut sockets: Vec<Cursor<Vec<u8>>> = (0..READERS)
        .map(|r| {
            let mut frames = Vec::new();
            for d in 0..DEPTH {
                let i = r * DEPTH + d;
                let req = Request {
                    id: i as u64,
                    op: Op::Write,
                    volume: 0,
                    offset: units[i],
                    length: 1,
                    payload: fill(i),
                };
                wire::write_request(&mut frames, &req).unwrap();
            }
            Cursor::new(frames)
        })
        .collect();
    let mut readers: Vec<RequestReader> = (0..READERS).map(|_| RequestReader::new()).collect();
    let mut t = Tick {
        reqs: Vec::with_capacity(OPS),
        resolved: Vec::with_capacity(OPS),
        spans: Vec::with_capacity(OPS),
        scratch: WriteScratch::default(),
    };

    // Warm-up: the readers' windows and recycled payloads, the write
    // scratch, the intent journal and the telemetry slots.
    tick(&engine, &mut readers, &mut sockets, &mut t);

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for _ in 0..50 {
        tick(&engine, &mut readers, &mut sockets, &mut t);
    }
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    assert_eq!(
        after - before,
        0,
        "50 healthy ticks of {OPS} pipelined WRITEs allocated"
    );

    for (i, &unit) in units.iter().enumerate() {
        let req = Request {
            id: 0,
            op: Op::Read,
            volume: 0,
            offset: unit,
            length: 1,
            payload: Vec::new(),
        };
        assert_eq!(engine.execute(0, &req).payload, fill(i), "unit {unit}");
    }
    assert!(engine.scrub().unwrap().is_empty(), "parity diverged");
}
