//! Per-connection pipelining on the shard runtime, driven over raw
//! sockets: every frame of a burst goes out in one `write_all`, so the
//! server finds the whole burst queued on the connection at once.
//!
//! What is pinned here, on 1, 2 and 4 shards where it matters:
//!
//! * a pipelined WRITE burst commits as one tick batch;
//! * one connection's overlapping READ/WRITE/TRIM ops take effect in
//!   request order, and every request is answered exactly once (the
//!   responses themselves may arrive in any order — they carry ids);
//! * a non-data op (FLUSH, STATS) is answered only after every data op
//!   before it, and nothing behind it runs first;
//! * a half-close after a burst still gets every response;
//! * a client that pipelines large READs and never reads stops being
//!   decoded: its state on the server stays bounded and the server
//!   keeps serving everyone else.

use std::collections::HashMap;
use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use pddl_array::DeclusteredArray;
use pddl_core::rng::Xoshiro256pp;
use pddl_core::Pddl;
use pddl_obs::{ObsConfig, Observer};
use pddl_server::client::Client;
use pddl_server::runtime::owner_of;
use pddl_server::server::{serve, ServerConfig, ServerHandle};
use pddl_server::wire::{self, Op, Request, Response, Status};
use pddl_server::Engine;

const UNIT: usize = 16;

/// The deepest burst the model test sends: the server's per-connection
/// in-flight cap.
const MAX_DEPTH: u64 = 32;

fn start_with(array: DeclusteredArray, cfg: ServerConfig) -> ServerHandle {
    serve(Arc::new(Engine::new(array)), "127.0.0.1:0", cfg).unwrap()
}

/// PDDL 7 × 3 with 16-byte units over 4 periods: 112 units in 56
/// stripes, so four 16-stripe ownership groups.
fn start(shards: usize) -> ServerHandle {
    let array = DeclusteredArray::new(Box::new(Pddl::new(7, 3).unwrap()), UNIT, 4).unwrap();
    start_with(
        array,
        ServerConfig {
            shards,
            ..ServerConfig::default()
        },
    )
}

fn connect(addr: SocketAddr) -> TcpStream {
    let s = TcpStream::connect(addr).unwrap();
    s.set_nodelay(true).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    s
}

fn request(id: u64, op: Op, offset: u64, length: u32, payload: Vec<u8>) -> Request {
    Request {
        id,
        op,
        volume: 0,
        offset,
        length,
        payload,
    }
}

/// Encode `reqs` back to back and send them in one `write_all`.
fn send_burst(s: &mut TcpStream, reqs: &[Request]) {
    let mut frames = Vec::new();
    for req in reqs {
        wire::write_request(&mut frames, req).unwrap();
    }
    s.write_all(&frames).unwrap();
}

fn recv(s: &mut TcpStream) -> Response {
    wire::read_response(s)
        .unwrap()
        .expect("server closed the connection")
}

/// One unit's worth of `byte`.
fn fill(byte: u8) -> Vec<u8> {
    vec![byte; UNIT]
}

/// (a) One connection pipelines 32 single-unit WRITEs on one shard:
/// they are decoded in one tick and commit as one array batch, instead
/// of one batch per WRITE, and each unit reads back its write.
#[test]
fn pipelined_write_burst_commits_as_one_tick_batch() {
    const WRITES: u64 = 32;
    let mut array = DeclusteredArray::new(Box::new(Pddl::new(7, 3).unwrap()), UNIT, 4).unwrap();
    let observer = Arc::new(Mutex::new(Observer::new(ObsConfig::default())));
    array.attach_observer(observer.clone());
    let handle = start_with(
        array,
        ServerConfig {
            shards: 1,
            ..ServerConfig::default()
        },
    );
    let mut s = connect(handle.local_addr());
    let burst: Vec<Request> = (0..WRITES)
        .map(|u| request(u, Op::Write, u, 1, fill(u as u8 | 0x80)))
        .collect();
    send_burst(&mut s, &burst);
    let mut answered = vec![false; WRITES as usize];
    for _ in 0..WRITES {
        let resp = recv(&mut s);
        assert_eq!(resp.status, Status::Ok, "WRITE {}", resp.id);
        assert!(!std::mem::replace(&mut answered[resp.id as usize], true));
    }
    let mut c = Client::connect(handle.local_addr()).unwrap();
    for u in 0..WRITES {
        assert_eq!(
            c.read_units(u, 1).unwrap(),
            fill(u as u8 | 0x80),
            "unit {u}"
        );
    }
    let max_ops = observer
        .lock()
        .unwrap()
        .registry()
        .histogram("journal.batch_ops")
        .unwrap()
        .max();
    assert!(
        max_ops >= 8,
        "largest journal batch held {max_ops} ops: the burst did not share a tick batch"
    );
    handle.shutdown();
}

/// (b) A seeded model of one connection: bursts of 1..=32 READs, WRITEs
/// and TRIMs of 1-4 units over a 16-unit window that straddles an
/// ownership boundary, so ops overlap and some split across owners.
/// Every id must be answered exactly once, and every READ must return
/// the model's bytes with all earlier ops of the burst applied in
/// request order.
fn assert_pipeline_keeps_program_order(shards: usize, seed: u64) {
    const SPAN: u64 = 16;
    const ROUNDS: usize = 60;
    let handle = start(shards);
    let engine = handle.engine();
    let cap = engine.volume_info().capacity_units;
    // Volume 0 maps a unit to the same physical unit of array 0.
    let owner = |u: u64| owner_of(0, engine.stripe_of(0, u), shards);
    let edge = (1..cap).find(|&u| owner(u) != owner(u - 1));
    assert_eq!(
        edge.is_some(),
        shards > 1,
        "no ownership boundary to straddle"
    );
    let base = edge.map_or(0, |u| u.saturating_sub(SPAN / 2).min(cap - SPAN));
    let mut model = vec![fill(0); SPAN as usize];
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    let mut s = connect(handle.local_addr());
    let mut next_id = 0u64;
    for round in 0..ROUNDS {
        let depth = 1 + rng.below_u64(MAX_DEPTH);
        let mut burst = Vec::new();
        // id → the bytes its READ must return (`None`: not a READ).
        let mut expect: HashMap<u64, Option<Vec<u8>>> = HashMap::new();
        for _ in 0..depth {
            let len = 1 + rng.below_u64(4);
            let at = rng.below_u64(SPAN - len + 1);
            let units = at as usize..(at + len) as usize;
            let id = next_id;
            next_id += 1;
            match rng.below_u64(3) {
                0 => {
                    expect.insert(id, Some(model[units].concat()));
                    burst.push(request(id, Op::Read, base + at, len as u32, Vec::new()));
                }
                1 => {
                    for (k, unit) in units.enumerate() {
                        model[unit] = fill((id * 4 + k as u64) as u8 | 1);
                    }
                    let payload = model[at as usize..(at + len) as usize].concat();
                    expect.insert(id, None);
                    burst.push(request(id, Op::Write, base + at, len as u32, payload));
                }
                _ => {
                    for unit in units {
                        model[unit] = fill(0);
                    }
                    expect.insert(id, None);
                    burst.push(request(id, Op::Trim, base + at, len as u32, Vec::new()));
                }
            }
        }
        send_burst(&mut s, &burst);
        for _ in 0..depth {
            let resp = recv(&mut s);
            let Some(want) = expect.remove(&resp.id) else {
                panic!(
                    "{shards} shards, round {round}: id {} unknown or answered twice",
                    resp.id
                );
            };
            assert_eq!(resp.status, Status::Ok, "{shards} shards, id {}", resp.id);
            if let Some(bytes) = want {
                assert_eq!(
                    resp.payload, bytes,
                    "{shards} shards, seed {seed}, round {round}: READ {} saw another order",
                    resp.id
                );
            }
        }
        assert!(expect.is_empty());
    }
    handle.shutdown();
}

#[test]
fn pipelined_ops_take_effect_in_request_order_on_one_shard() {
    for seed in 1..=3 {
        assert_pipeline_keeps_program_order(1, seed);
    }
}

#[test]
fn pipelined_ops_take_effect_in_request_order_on_two_shards() {
    for seed in 1..=3 {
        assert_pipeline_keeps_program_order(2, seed);
    }
}

#[test]
fn pipelined_ops_take_effect_in_request_order_on_four_shards() {
    for seed in 1..=3 {
        assert_pipeline_keeps_program_order(4, seed);
    }
}

/// (c) A non-data op is a per-connection barrier: `[WRITE × 8, FLUSH,
/// READ × 8]` answers FLUSH after all 8 WRITEs and every READ after
/// FLUSH (with the written bytes); `[WRITE × 8, STATS]` answers STATS
/// after all 8 WRITEs. The WRITEs spread over every ownership group.
#[test]
fn non_data_ops_wait_for_every_earlier_op_on_their_connection() {
    for shards in [1, 2, 4] {
        let handle = start(shards);
        let mut s = connect(handle.local_addr());
        let unit = |i: u64| i * 13;
        let mut burst: Vec<Request> = (0..8)
            .map(|i| request(i, Op::Write, unit(i), 1, fill(i as u8 + 1)))
            .collect();
        burst.push(request(8, Op::Flush, 0, 0, Vec::new()));
        burst.extend((0..8).map(|i| request(9 + i, Op::Read, unit(i), 1, Vec::new())));
        send_burst(&mut s, &burst);
        let order: Vec<Response> = (0..burst.len()).map(|_| recv(&mut s)).collect();
        let at = |id: u64| order.iter().position(|r| r.id == id).unwrap();
        for i in 0..8 {
            assert!(at(i) < at(8), "{shards} shards: FLUSH overtook WRITE {i}");
            assert!(
                at(9 + i) > at(8),
                "{shards} shards: READ {} ran before FLUSH",
                9 + i
            );
            assert_eq!(order[at(9 + i)].payload, fill(i as u8 + 1));
        }
        assert!(order.iter().all(|r| r.status == Status::Ok));

        let mut burst: Vec<Request> = (0..8)
            .map(|i| request(100 + i, Op::Write, unit(i), 1, fill(0x40 + i as u8)))
            .collect();
        burst.push(request(108, Op::Stats, 0, 0, Vec::new()));
        send_burst(&mut s, &burst);
        let order: Vec<u64> = (0..burst.len()).map(|_| recv(&mut s).id).collect();
        assert_eq!(
            order.last(),
            Some(&108),
            "{shards} shards: STATS overtook a WRITE: {order:?}"
        );
        handle.shutdown();
    }
}

/// (d) A burst deeper than the in-flight cap, then a half-close: the
/// server keeps decoding past the cap as answers go out, sees the EOF
/// only after the last frame, and answers every request before it
/// closes.
#[test]
fn half_close_after_a_burst_gets_every_response() {
    const FRAMES: u64 = 48;
    for shards in [1, 2, 4] {
        let handle = start(shards);
        let mut s = connect(handle.local_addr());
        let burst: Vec<Request> = (0..FRAMES)
            .map(|i| {
                let unit = (i * 7) % 112;
                if i % 3 == 0 {
                    request(i, Op::Read, unit, 1, Vec::new())
                } else {
                    request(i, Op::Write, unit, 1, fill(i as u8))
                }
            })
            .collect();
        send_burst(&mut s, &burst);
        s.shutdown(Shutdown::Write).unwrap();
        let mut answered = vec![false; FRAMES as usize];
        while let Some(resp) = wire::read_response(&mut s).unwrap() {
            assert_eq!(resp.status, Status::Ok);
            assert!(!std::mem::replace(&mut answered[resp.id as usize], true));
        }
        let missing: Vec<usize> = (0..answered.len()).filter(|&i| !answered[i]).collect();
        assert!(
            missing.is_empty(),
            "{shards} shards: closed before answering {missing:?}"
        );
        handle.shutdown();
    }
}

/// A hostile pipeliner: 200 READs of 5 MiB each — more than the 4 MiB
/// ceiling of Linux's default TCP send buffer — on one socket that
/// never reads. Once its responses stall, the server stops decoding it,
/// so `requests_served` plateaus far below 200 while the stall lasts,
/// and a healthy client on another connection is still served.
#[test]
fn stalled_pipeliner_stops_being_decoded() {
    const READS: u64 = 200;
    const UNIT_BYTES: usize = 64 << 10;
    const READ_UNITS: u32 = 80;
    // 3 periods of PDDL 7 × 3: 84 units of 64 KiB.
    let array = DeclusteredArray::new(Box::new(Pddl::new(7, 3).unwrap()), UNIT_BYTES, 3).unwrap();
    let handle = start_with(
        array,
        ServerConfig {
            // Longer than the test: the stall must stay live, not be
            // cut short by the slow-consumer eviction.
            write_timeout: Duration::from_secs(120),
            ..ServerConfig::default()
        },
    );
    let addr = handle.local_addr();
    assert!(u64::from(READ_UNITS) <= handle.engine().volume_info().capacity_units);

    let mut stalled = connect(addr);
    let burst: Vec<Request> = (0..READS)
        .map(|id| request(id, Op::Read, 0, READ_UNITS, Vec::new()))
        .collect();
    // 200 × 30 bytes of requests: the socket takes them all at once.
    send_burst(&mut stalled, &burst);

    // Wait for the served count to stop moving for half a second.
    let deadline = Instant::now() + Duration::from_secs(20);
    let mut plateau = handle.requests_served();
    let mut still_since = Instant::now();
    while still_since.elapsed() < Duration::from_millis(500) {
        assert!(Instant::now() < deadline, "served count never settled");
        std::thread::sleep(Duration::from_millis(50));
        let now = handle.requests_served();
        if now != plateau {
            plateau = now;
            still_since = Instant::now();
        }
    }
    assert!(
        plateau < READS / 4,
        "a stalled pipeliner had {plateau} of {READS} READs served"
    );

    // The healthy client: an INFO (for the unit size), a WRITE and 20
    // READs, each answered while the stall is live.
    let mut healthy = Client::connect(addr).unwrap();
    healthy.set_timeout(Some(Duration::from_secs(10))).unwrap();
    healthy.write_units(0, &vec![0x5a; UNIT_BYTES]).unwrap();
    for _ in 0..20 {
        assert_eq!(healthy.read_units(0, 1).unwrap(), vec![0x5a; UNIT_BYTES]);
    }
    let stalled_served = handle.requests_served() - 22;
    assert!(
        stalled_served < READS / 4,
        "the stalled connection kept being decoded: {stalled_served} served"
    );
    drop(stalled);
    handle.shutdown();
}
