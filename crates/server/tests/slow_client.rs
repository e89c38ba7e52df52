//! Head-of-line-blocking regression: one stalled reader — a client
//! that pipelines large READs and never drains the responses — must
//! not inflate a healthy client's tail latency past a bound, and must
//! not wedge the server.
//!
//! This pins two defenses together: a shard stops decoding a connection
//! whose response bytes are stalled (the rest of the stalled
//! connection's pipeline stays in its socket buffer, and its shard never
//! blocks on the write — unsent response bytes wait in the connection's
//! buffer), and the per-connection write timeout reaps the connection
//! after one bounded stall.

use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pddl_array::DeclusteredArray;
use pddl_core::Pddl;
use pddl_server::client::Client;
use pddl_server::server::{serve, ServerConfig};
use pddl_server::wire::{self, Op, Request};
use pddl_server::Engine;

#[test]
fn stalled_reader_does_not_wedge_healthy_clients() {
    let layout = Pddl::new(7, 3).unwrap();
    let array = DeclusteredArray::new(Box::new(layout), 512, 8).unwrap();
    let engine = Arc::new(Engine::new(array));
    let cap = engine.volume_info().capacity_units;
    let write_timeout = Duration::from_millis(250);
    let handle = serve(
        engine,
        "127.0.0.1:0",
        ServerConfig {
            write_timeout,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = handle.local_addr();

    // The pathological client: pipeline whole-volume READs on a raw
    // socket and never read a byte back. Each response is cap × 512
    // bytes, so a few dozen fill every kernel buffer on the path and
    // the server's next write to this connection blocks.
    let mut stalled = TcpStream::connect(addr).unwrap();
    for id in 0..40u64 {
        let req = Request {
            id,
            op: Op::Read,
            volume: 0,
            offset: 0,
            length: cap as u32,
            payload: Vec::new(),
        };
        if wire::write_request(&mut stalled, &req).is_err() {
            // The server may kill the connection mid-pipeline once the
            // write timeout fires; that is the defense working.
            break;
        }
    }

    // Healthy closed-loop client measuring while the stall is live.
    let mut healthy = Client::connect(addr).unwrap();
    let mut latencies_ns = Vec::with_capacity(300);
    for i in 0..300u64 {
        let t = Instant::now();
        let got = healthy.read_units(i % cap, 1).unwrap();
        latencies_ns.push(t.elapsed().as_nanos() as u64);
        assert_eq!(got.len(), 512);
    }
    latencies_ns.sort_unstable();
    let p99 = latencies_ns[(299 * 99) / 100];

    // Bound: the single stalled connection may block each worker at
    // most once for ~write_timeout before being declared dead, so the
    // healthy p99 must stay well under a small multiple of it. Without
    // the shedding this measures in seconds (every queued job for the
    // dead connection re-wedges a worker for a full timeout).
    let bound = 4 * write_timeout;
    assert!(
        Duration::from_nanos(p99) < bound,
        "healthy p99 {:?} breached the head-of-line bound {:?}",
        Duration::from_nanos(p99),
        bound
    );

    // The server is still fully live for new connections afterwards.
    let mut after = Client::connect(addr).unwrap();
    assert_eq!(after.read_units(0, 1).unwrap().len(), 512);
    drop(stalled);
    handle.shutdown();
}
