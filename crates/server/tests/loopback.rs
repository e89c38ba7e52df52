//! Loopback integration tests: real TCP, real threads, every read
//! verified against a shared in-memory model of the volume.
//!
//! The acceptance scenario: ≥4 concurrent clients issue mixed
//! reads/writes while a management client fails a disk mid-stream and
//! rebuilds it into spare space — the volume stays online and no client
//! ever observes a wrong byte.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pddl_array::DeclusteredArray;
use pddl_core::rng::Xoshiro256pp;
use pddl_core::Pddl;
use pddl_server::{
    engine::{Engine, RebuildConfig},
    server::{serve, ServerConfig, ServerHandle},
    Client, ClientError, RebuildState, Status,
};

const UNIT: usize = 16;

fn start_server(disks: usize, check: usize, periods: u64) -> ServerHandle {
    let layout = Pddl::new(disks, check).unwrap();
    let array = DeclusteredArray::new(Box::new(layout), UNIT, periods).unwrap();
    serve(
        Arc::new(Engine::new(array)),
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .unwrap()
}

fn unit_fill(seed: u8) -> Vec<u8> {
    vec![seed; UNIT]
}

/// The tentpole acceptance test: 4 writer/reader clients vs. one
/// management client running fail → rebuild mid-stream.
///
/// Each client owns the logical units with `unit % CLIENTS == t`, so
/// the storm needs no cross-thread synchronization: every read is
/// verified exactly against the owner's private model while all four
/// connections hammer the server truly in parallel (distinct units in
/// the *same stripe* still collide on parity, exercising the engine's
/// stripe shard locks). A final sweep re-verifies the whole volume
/// against the merged models after the rebuild.
#[test]
fn concurrent_clients_survive_online_failure_and_rebuild() {
    const CLIENTS: u64 = 4;
    const OPS_PER_CLIENT: u64 = 120;

    let handle = start_server(7, 3, 4);
    let addr = handle.local_addr();
    let mut probe = Client::connect(addr).unwrap();
    let cap = probe.info().unwrap().capacity_units;

    let mismatches = Arc::new(AtomicU64::new(0));
    let completed_ops = Arc::new(AtomicU64::new(0));

    let io_clients: Vec<_> = (0..CLIENTS)
        .map(|t| {
            let mismatches = Arc::clone(&mismatches);
            let completed_ops = Arc::clone(&completed_ops);
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                c.set_timeout(Some(Duration::from_secs(30))).unwrap();
                let mut rng = Xoshiro256pp::seed_from_u64(0xbeef + t);
                let owned: Vec<u64> = (0..cap).filter(|u| u % CLIENTS == t).collect();
                let mut model: HashMap<u64, u8> = HashMap::new();
                for op in 0..OPS_PER_CLIENT {
                    let unit = owned[rng.below_u64(owned.len() as u64) as usize];
                    if rng.next_f64() < 0.5 {
                        let seed = ((t + 1) * 50 + op % 50) as u8;
                        c.write_units(unit, &unit_fill(seed)).unwrap();
                        model.insert(unit, seed);
                    } else {
                        let want = model.get(&unit).map_or(vec![0u8; UNIT], |&s| unit_fill(s));
                        if c.read_units(unit, 1).unwrap() != want {
                            mismatches.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    completed_ops.fetch_add(1, Ordering::Relaxed);
                }
                model
            })
        })
        .collect();

    // Management client: wait for the I/O storm to be genuinely in
    // flight, then fail disk 2 and rebuild it while ops continue.
    let mgmt = {
        let completed_ops = Arc::clone(&completed_ops);
        std::thread::spawn(move || {
            let mut c = Client::connect(addr).unwrap();
            c.set_timeout(Some(Duration::from_secs(60))).unwrap();
            while completed_ops.load(Ordering::Relaxed) < CLIENTS * OPS_PER_CLIENT / 4 {
                std::thread::sleep(Duration::from_millis(1));
            }
            c.fail_disk(2).unwrap();
            assert_eq!(c.info().unwrap().mode, 1, "degraded after fail");
            while completed_ops.load(Ordering::Relaxed) < CLIENTS * OPS_PER_CLIENT / 2 {
                std::thread::sleep(Duration::from_millis(1));
            }
            c.rebuild(2).unwrap();
            let done = c
                .wait_rebuild(Duration::from_millis(2), Duration::from_secs(60))
                .unwrap();
            assert_eq!(done.state, RebuildState::Done);
            assert!(done.total > 0, "rebuild moved stripes into spare space");
            assert_eq!(done.repaired, done.total);
            assert_eq!(c.info().unwrap().mode, 2, "post-reconstruction");
        })
    };

    let mut merged: HashMap<u64, u8> = HashMap::new();
    for t in io_clients {
        merged.extend(t.join().unwrap());
    }
    mgmt.join().unwrap();
    assert_eq!(mismatches.load(Ordering::Relaxed), 0, "every read verified");

    // Final sweep: the whole volume matches the merged models
    // byte-for-byte, served from spare space for the failed disk's
    // units.
    for unit in 0..cap {
        let want = merged.get(&unit).map_or(vec![0u8; UNIT], |&s| unit_fill(s));
        assert_eq!(probe.read_units(unit, 1).unwrap(), want, "unit {unit}");
    }
    assert!(handle.requests_served() >= CLIENTS * OPS_PER_CLIENT);
    handle.shutdown();
}

/// The acceptance scenario for the *incremental* rebuild: a server
/// whose rebuild is throttled hard (1 stripe per batch, rate-limited)
/// keeps serving reads and writes with bounded latency for the whole
/// reconstruction, while REBUILD itself answers immediately and
/// REBUILD_STATUS reports monotonically increasing `repaired` under a
/// nonzero, constant `total`.
#[test]
fn rebuild_under_load_keeps_client_io_flowing() {
    let layout = Pddl::new(7, 3).unwrap();
    let array = DeclusteredArray::new(Box::new(layout), UNIT, 4).unwrap();
    // ~16 stripes/sec: slow enough that the rebuild is observably in
    // flight for hundreds of client ops, fast enough to finish in a few
    // seconds.
    let engine = Engine::with_config(
        array,
        RebuildConfig {
            batch: 1,
            rate: 16.0,
        },
    );
    let handle = serve(Arc::new(engine), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = handle.local_addr();

    let mut mgmt = Client::connect(addr).unwrap();
    mgmt.set_timeout(Some(Duration::from_secs(30))).unwrap();
    let cap = mgmt.info().unwrap().capacity_units;
    let fill = |u: u64| unit_fill((u % 200) as u8 + 1);
    for u in 0..cap {
        mgmt.write_units(u, &fill(u)).unwrap();
    }
    mgmt.fail_disk(2).unwrap();

    // REBUILD must come back in accept-time, not reconstruction-time:
    // the throttled rebuild takes seconds, the answer milliseconds.
    let started = Instant::now();
    mgmt.rebuild(2).unwrap();
    let accept_latency = started.elapsed();
    assert!(
        accept_latency < Duration::from_millis(500),
        "REBUILD stalled for {accept_latency:?} — not asynchronous"
    );

    let first = mgmt.rebuild_status().unwrap();
    assert_eq!(first.disk, 2);
    assert!(first.total > 0, "true affected-stripe total known up front");
    assert_eq!(first.state, RebuildState::Running);

    // Hammer the volume from a second connection for as long as the
    // rebuild runs. Every op must complete promptly — bounded by one
    // batch collision at worst, never by the whole reconstruction.
    let mut io = Client::connect(addr).unwrap();
    io.set_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut last_repaired = first.repaired;
    let mut ops_during = 0u64;
    let mut max_op = Duration::ZERO;
    let terminal = loop {
        let s = mgmt.rebuild_status().unwrap();
        assert_eq!(s.disk, 2);
        assert_eq!(s.total, first.total, "total stays constant");
        assert!(s.repaired >= last_repaired, "repaired is monotonic");
        assert!(s.repaired <= s.total);
        last_repaired = s.repaired;
        if s.state != RebuildState::Running {
            break s;
        }
        let u = ops_during % cap;
        let t = Instant::now();
        io.write_units(u, &fill(u)).unwrap();
        let got = io.read_units(u, 1).unwrap();
        let op_latency = t.elapsed();
        assert_eq!(got, fill(u));
        max_op = max_op.max(op_latency);
        ops_during += 1;
        assert!(
            started.elapsed() < Duration::from_secs(90),
            "rebuild never finished"
        );
    };

    assert_eq!(terminal.state, RebuildState::Done);
    assert_eq!(terminal.repaired, terminal.total);
    assert!(
        ops_during >= 10,
        "client I/O proceeded during the rebuild (completed {ops_during} ops)"
    );
    assert!(
        max_op < Duration::from_secs(2),
        "op latency bounded during rebuild (worst {max_op:?})"
    );
    assert_eq!(mgmt.info().unwrap().mode, 2, "post-reconstruction");
    for u in 0..cap {
        assert_eq!(mgmt.read_units(u, 1).unwrap(), fill(u), "unit {u}");
    }
    handle.shutdown();
}

/// Reads spanning several stripe units round-trip through the frame
/// codec, and addressing errors surface as typed statuses.
#[test]
fn multi_unit_io_and_error_statuses() {
    let handle = start_server(7, 3, 2);
    let mut c = Client::connect(handle.local_addr()).unwrap();
    let cap = c.info().unwrap().capacity_units;

    let payload: Vec<u8> = (0..UNIT * 5).map(|i| (i % 251) as u8).collect();
    c.write_units(1, &payload).unwrap();
    assert_eq!(c.read_units(1, 5).unwrap(), payload);
    c.flush().unwrap();

    c.trim(2, 2).unwrap();
    let mut expect = payload.clone();
    expect[UNIT..3 * UNIT].fill(0);
    assert_eq!(c.read_units(1, 5).unwrap(), expect);

    match c.read_units(cap, 1) {
        Err(ClientError::Server(Status::BadAddress)) => {}
        other => panic!("expected BadAddress, got {other:?}"),
    }
    match c.rebuild(0) {
        Err(ClientError::Server(Status::WrongDiskState)) => {}
        other => panic!("expected WrongDiskState, got {other:?}"),
    }
    handle.shutdown();
}

/// A server mid-shutdown answers queued work, then clients get clean
/// EOFs instead of hangs.
#[test]
fn graceful_shutdown_drains_inflight_work() {
    let handle = start_server(7, 3, 2);
    let addr = handle.local_addr();
    let mut c = Client::connect(addr).unwrap();
    c.write_units(0, &unit_fill(9)).unwrap();
    handle.shutdown();
    // The old connection is dead and new connections are refused (or
    // reset); either way no request can succeed after shutdown.
    assert!(c.read_units(0, 1).is_err() || Client::connect(addr).is_err());
}
