//! Regression coverage for connection teardown racing in-flight work
//! on the sharded runtime.
//!
//! The bug this guards against: a client that issues an op that waits
//! on other work (a FLUSH behind a WRITE whose chunk may be out on a
//! peer shard), or pipelines a burst of data ops, and disconnects
//! before they complete must not leak the join state. The
//! completion path always reclaims the job and decrements the
//! in-flight gauge; only the *delivery* is skipped when the slot's
//! generation no longer matches.

use std::io::Write;
use std::net::{Shutdown, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pddl_array::DeclusteredArray;
use pddl_core::Pddl;
use pddl_server::client::Client;
use pddl_server::engine::Engine;
use pddl_server::server::{serve, ServerConfig};
use pddl_server::wire::{self, Op, Request};

fn start(shards: usize) -> pddl_server::server::ServerHandle {
    let layout = Pddl::new(7, 3).unwrap();
    let array = DeclusteredArray::new(Box::new(layout), 16, 64).unwrap();
    serve(
        Arc::new(Engine::new(array)),
        "127.0.0.1:0",
        ServerConfig {
            shards,
            ..ServerConfig::default()
        },
    )
    .unwrap()
}

fn jobs_inflight(engine: &Arc<Engine>) -> Option<f64> {
    engine
        .telemetry()
        .snapshot()
        .gauges
        .iter()
        .find(|(name, _)| name == "server.jobs_inflight")
        .map(|(_, v)| *v)
}

/// Kill clients mid-FLUSH and mid-pipeline (32 in flight), repeatedly,
/// on a multi-shard runtime; the
/// in-flight job gauge must return to zero and the server must keep
/// answering new connections.
#[test]
fn teardown_during_cross_shard_flush_leaks_no_join_state() {
    let handle = start(4);
    let addr = handle.local_addr();

    for round in 0..20u64 {
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_nodelay(true).unwrap();
        // A write, then a FLUSH whose response we never read: the
        // FLUSH waits behind the write while we slam the connection
        // shut.
        let mut frames = Vec::new();
        wire::write_request(
            &mut frames,
            &Request {
                id: round * 2 + 1,
                op: Op::Write,
                volume: 0,
                offset: round % 32,
                length: 1,
                payload: vec![round as u8; 16],
            },
        )
        .unwrap();
        wire::write_request(
            &mut frames,
            &Request {
                id: round * 2 + 2,
                op: Op::Flush,
                volume: 0,
                offset: 0,
                length: 0,
                payload: Vec::new(),
            },
        )
        .unwrap();
        s.write_all(&frames).unwrap();
        s.flush().unwrap();
        // Drop without reading either response — with some luck the
        // teardown lands while the FLUSH is still parked.
        drop(s);

        // A pipeliner that dies holding 32 data ops in flight: WRITEs
        // and READs spread over every shard's stripes, sent in one
        // burst and never answered to anyone.
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_nodelay(true).unwrap();
        let mut frames = Vec::new();
        for i in 0..32u64 {
            let unit = (round * 32 + i) * 53 % 1024;
            let (op, payload) = if i % 4 == 3 {
                (Op::Read, Vec::new())
            } else {
                (Op::Write, vec![i as u8; 16])
            };
            wire::write_request(
                &mut frames,
                &Request {
                    id: 1000 + i,
                    op,
                    volume: 0,
                    offset: unit,
                    length: 1,
                    payload,
                },
            )
            .unwrap();
        }
        s.write_all(&frames).unwrap();
        drop(s);
    }

    // Every job must complete and be reclaimed: the gauge drains to 0.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match jobs_inflight(handle.engine()) {
            Some(0.0) => break,
            _ if Instant::now() > deadline => {
                panic!(
                    "jobs_inflight stuck at {:?} after teardown storm",
                    jobs_inflight(handle.engine())
                );
            }
            _ => std::thread::sleep(Duration::from_millis(20)),
        }
    }

    // The server is still healthy for a well-behaved client.
    let mut c = Client::connect(addr).unwrap();
    let data = vec![0xeeu8; 16];
    c.write_units(0, &data).unwrap();
    c.flush().unwrap();
    assert_eq!(c.read_units(0, 1).unwrap(), data);
    handle.shutdown();
}

/// A clean half-close midway through a request header must be answered
/// with one `BadRequest` (id 0) before the server closes, like any
/// other malformed frame. Regression: the sharded runtime used to lump the reader's `UnexpectedEof` in with transport errors
/// and close silently.
#[test]
fn truncated_header_half_close_gets_bad_request() {
    let handle = start(2);
    let mut s = TcpStream::connect(handle.local_addr()).unwrap();
    s.set_nodelay(true).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();

    // 9 bytes of a valid header (magic + 5 id bytes), then FIN.
    let mut frames = Vec::new();
    wire::write_request(
        &mut frames,
        &Request {
            id: 10,
            op: Op::Read,
            volume: 0,
            offset: 0,
            length: 1,
            payload: Vec::new(),
        },
    )
    .unwrap();
    s.write_all(&frames[..9]).unwrap();
    s.shutdown(Shutdown::Write).unwrap();

    let resp = wire::read_response(&mut s)
        .expect("response must be readable")
        .expect("connection closed without a BadRequest");
    assert_eq!(resp.id, 0);
    assert_eq!(resp.status, wire::Status::BadRequest);
    // After the error frame, the server closes: clean EOF.
    assert_eq!(wire::read_response(&mut s).unwrap(), None);
    handle.shutdown();
}
