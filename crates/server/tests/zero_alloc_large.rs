//! Proof that a served access larger than the request reader's 64 KiB
//! window — the paper's largest, 30 units of 8 KiB, 240 KiB — costs no
//! allocation once warm, in either direction: a counting global
//! allocator wraps the system allocator, and the sequence a shard runs
//! for one such WRITE and one such READ must not allocate at all after
//! one warm-up round.
//!
//! The WRITE frame arrives in 64 KiB reads and is polled with the
//! shard's pool of large payload buffers (`RequestReader::poll_with`),
//! committed with `shard_write_batch_into`, and its payload goes back to
//! the pool. The READ's response frame is sized in a reused buffer with
//! `response_frame_into` and filled by `shard_read`.
//!
//! This file is its own test binary (one `#[global_allocator]` per
//! process) and deliberately contains a single test so no concurrent
//! test can perturb the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::{self, Cursor, Read};
use std::sync::atomic::{AtomicU64, Ordering};

use pddl_array::{DeclusteredArray, WriteScratch};
use pddl_core::Pddl;
use pddl_server::engine::Engine;
use pddl_server::wire::{
    self, LargePayloads, Op, Request, RequestReader, Status, READ_WINDOW, RESPONSE_HEADER_LEN,
};

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

const UNIT: usize = 8 << 10;
const UNITS: u32 = 30;

/// A socket that hands out at most one window's worth per `read`.
struct WindowReads<'a>(&'a mut Cursor<Vec<u8>>);

impl Read for WindowReads<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = buf.len().min(READ_WINDOW);
        self.0.read(&mut buf[..n])
    }
}

/// What one round keeps across rounds, as a shard does: the reader,
/// the large-payload pool, the write scratch and the READ frame.
struct Shard {
    reader: RequestReader,
    pool: LargePayloads,
    scratch: WriteScratch,
    frame: Vec<u8>,
}

/// One round: receive and commit the WRITE in `socket`, then READ the
/// same units back into the response frame.
fn round(engine: &Engine, s: &mut Shard, socket: &mut Cursor<Vec<u8>>, read: &Request) {
    socket.set_position(0);
    let req = s
        .reader
        .poll_with(&mut WindowReads(socket), &mut s.pool)
        .expect("valid frame")
        .expect("a frame");
    let (resolved, _) = engine.prepare(&req).expect("healthy resolve");
    let span = engine.begin_access();
    let ops = [(resolved.segments[0].phys, &req.payload[..])];
    let results = engine.shard_write_batch_into(&ops, &mut s.scratch);
    assert!(results.iter().all(Result::is_ok));
    engine.end_access(span, &req, Status::Ok, 0, 0);
    drop(resolved);
    s.pool.give(req.payload);

    let (resolved, bytes) = engine.prepare(read).expect("healthy resolve");
    let span = engine.begin_access();
    wire::response_frame_into(&mut s.frame, read.id, Status::Ok, bytes).expect("frame");
    engine
        .shard_read(
            resolved.segments[0].phys,
            &mut s.frame[RESPONSE_HEADER_LEN..],
        )
        .expect("healthy read");
    engine.end_access(span, read, Status::Ok, bytes, 0);
}

#[test]
fn warm_large_write_and_read_make_no_allocations() {
    COUNTING.with(|c| c.set(true));
    let array = DeclusteredArray::new(Box::new(Pddl::new(13, 4).unwrap()), UNIT, 2).unwrap();
    let engine = Engine::new(array);
    assert!(engine.volume_info().capacity_units >= u64::from(UNITS));

    // Two WRITE frames of the same 30 units with different bytes, taken
    // in turn, so every READ must return what the last WRITE carried.
    let fill = |round: usize| -> Vec<u8> {
        (0..UNITS as usize * UNIT)
            .map(|i| (i % 251) as u8 ^ (round as u8 * 0x55))
            .collect()
    };
    let mut sockets: Vec<Cursor<Vec<u8>>> = (0..2)
        .map(|round| {
            let req = Request {
                id: round as u64,
                op: Op::Write,
                volume: 0,
                offset: 0,
                length: UNITS,
                payload: fill(round),
            };
            let mut frame = Vec::new();
            wire::write_request(&mut frame, &req).unwrap();
            assert!(frame.len() > READ_WINDOW);
            Cursor::new(frame)
        })
        .collect();
    let fills = [fill(0), fill(1)];
    let read = Request {
        id: 7,
        op: Op::Read,
        volume: 0,
        offset: 0,
        length: UNITS,
        payload: Vec::new(),
    };
    let mut shard = Shard {
        reader: RequestReader::new(),
        pool: LargePayloads::new(),
        scratch: WriteScratch::default(),
        frame: Vec::new(),
    };

    // Warm-up: the reader's window, one pooled payload buffer, the
    // write scratch, the READ frame, the journal and telemetry slots.
    round(&engine, &mut shard, &mut sockets[0], &read);

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for i in 0..20 {
        round(&engine, &mut shard, &mut sockets[i % 2], &read);
        assert!(
            shard.frame[RESPONSE_HEADER_LEN..] == fills[i % 2][..],
            "round {i}"
        );
    }
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    assert_eq!(
        after - before,
        0,
        "20 warm rounds of a {UNITS}-unit WRITE and READ allocated"
    );
    assert!(engine.scrub().unwrap().is_empty(), "parity diverged");
}
