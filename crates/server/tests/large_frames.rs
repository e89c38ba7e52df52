//! Frames larger than a connection reader's 64 KiB window, served over
//! real TCP.
//!
//! A shard reuses its READ response buffer without zero-filling it, and
//! receives a large WRITE's payload straight into a buffer a finished
//! WRITE left behind. Neither may let one response carry another's
//! bytes, a slow large sender must count as alive while its bytes keep
//! coming, and a WRITE of the full `MAX_PAYLOAD` must still be served.

use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use pddl_array::DeclusteredArray;
use pddl_core::Pddl;
use pddl_server::client::Client;
use pddl_server::server::{serve, ServerConfig, ServerHandle};
use pddl_server::wire::{self, Op, Request, Status, MAX_PAYLOAD};
use pddl_server::Engine;

const UNIT: usize = 8 << 10;

fn start(shards: usize, unit: usize, periods: u64, idle_timeout: Duration) -> ServerHandle {
    let layout = Pddl::new(13, 4).unwrap();
    let array = DeclusteredArray::new(Box::new(layout), unit, periods).unwrap();
    serve(
        Arc::new(Engine::new(array)),
        "127.0.0.1:0",
        ServerConfig {
            shards,
            idle_timeout,
            ..ServerConfig::default()
        },
    )
    .unwrap()
}

/// `units` units of bytes no other `seed` produces at the same offset.
fn pattern(seed: u8, units: usize) -> Vec<u8> {
    (0..units * UNIT)
        .map(|i| (i % 251) as u8 ^ seed.wrapping_mul(0x3b) | 1)
        .collect()
}

/// Connection B reads after connection A on the same shard, so B's
/// frames reuse the buffer A's 30-unit READ left full of its bytes: a
/// TRIMmed unit must still read as zeros, a 30-unit range as exactly
/// the array's bytes, and a failed READ must carry no payload at all.
#[test]
fn reads_never_carry_an_earlier_responses_bytes_on_one_and_two_shards() {
    for shards in [1, 2] {
        let server = start(shards, UNIT, 2, Duration::from_secs(30));
        let addr = server.local_addr();
        // The acceptor deals connections round-robin: A is the first
        // and B the third, so both are on shard 0 either way.
        let mut a = Client::connect(addr).unwrap();
        let _other_shard = Client::connect(addr).unwrap();
        let mut b = Client::connect(addr).unwrap();
        let cap = a.info().unwrap().capacity_units;

        // Units 0..30 and 40..70 (the latter spans two stripe groups,
        // so two owners on 2 shards), and a TRIMmed unit 100. The
        // 30-unit WRITEs are frames larger than the window.
        let (a_range, b_range, trimmed) = (0u64, 40u64, 100u64);
        a.write_units(a_range, &pattern(1, 30)).unwrap();
        b.write_units(b_range, &pattern(2, 30)).unwrap();
        a.write_units(trimmed, &pattern(3, 1)).unwrap();
        a.trim(trimmed, 1).unwrap();

        for round in 0..3 {
            let what = format!("{shards} shard(s), round {round}");
            assert!(
                a.read_units(a_range, 30).unwrap() == pattern(1, 30),
                "{what}: A"
            );
            assert!(
                b.read_units(trimmed, 1).unwrap() == vec![0; UNIT],
                "{what}: a TRIMmed unit read back non-zero bytes"
            );
            assert!(
                a.read_units(a_range, 30).unwrap() == pattern(1, 30),
                "{what}: A"
            );
            assert!(
                b.read_units(b_range, 30).unwrap() == pattern(2, 30),
                "{what}: a 30-unit READ differs from the array's bytes"
            );
            assert!(
                a.read_units(a_range, 30).unwrap() == pattern(1, 30),
                "{what}: A"
            );
            let (status, payload) = b.request(Op::Read, cap - 1, 30, Vec::new()).unwrap();
            assert_ne!(status, Status::Ok, "{what}: out-of-range READ succeeded");
            assert!(
                payload.is_empty(),
                "{what}: a failed READ carried a payload"
            );
        }
        server.shutdown();
    }
}

/// A 1 MiB WRITE trickles in 16 KiB pieces, each gap well under the
/// idle timeout and the whole transfer several timeouts long. The
/// received part of a large frame counts as buffered progress, so the
/// connection is served, not reaped as idle.
#[test]
fn a_slow_large_sender_is_served_not_reaped() {
    let idle = Duration::from_millis(400);
    let server = start(1, UNIT, 2, idle);
    let data = pattern(4, (1 << 20) / UNIT);
    let req = Request {
        id: 77,
        op: Op::Write,
        volume: 0,
        offset: 0,
        length: (data.len() / UNIT) as u32,
        payload: data.clone(),
    };
    let mut frame = Vec::new();
    wire::write_request(&mut frame, &req).unwrap();

    let mut sock = TcpStream::connect(server.local_addr()).unwrap();
    sock.set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let started = std::time::Instant::now();
    for piece in frame.chunks(16 << 10) {
        sock.write_all(piece)
            .expect("the server closed a live sender");
        std::thread::sleep(Duration::from_millis(40));
    }
    assert!(started.elapsed() > 4 * idle, "the transfer was not slow");
    let resp = wire::read_response(&mut sock)
        .expect("the connection was reaped mid-frame")
        .expect("EOF instead of an answer");
    assert_eq!((resp.id, resp.status), (77, Status::Ok));

    let mut c = Client::connect(server.local_addr()).unwrap();
    assert!(c.read_units(0, req.length).unwrap() == data);
    server.shutdown();
}

/// A WRITE of exactly `MAX_PAYLOAD` bytes, the largest frame a reader
/// accepts, is received, committed and readable; so is a second one
/// into the buffer the first left behind.
#[test]
fn a_max_payload_write_is_still_served() {
    let unit = 64 << 10;
    let units = MAX_PAYLOAD as usize / unit;
    let server = start(1, unit, 5, Duration::from_secs(30));
    let mut c = Client::connect(server.local_addr()).unwrap();
    c.set_timeout(Some(Duration::from_secs(60))).unwrap();
    assert!(c.info().unwrap().capacity_units >= units as u64);
    for seed in [5u8, 6] {
        let data: Vec<u8> = (0..units * unit)
            .map(|i| (i / unit) as u8 ^ seed.wrapping_mul(0x3b))
            .collect();
        c.write_units(0, &data).unwrap();
        for first in [0, units / 2, units - 2] {
            let got = c.read_units(first as u64, 2).unwrap();
            assert!(
                got == data[first * unit..(first + 2) * unit],
                "seed {seed}, unit {first}"
            );
        }
    }
    server.shutdown();
}
