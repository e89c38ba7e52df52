//! In-process data ops and served data ops on one engine at once.
//!
//! A parity update is a read-modify-write, so two writers may never be
//! inside one stripe together. Served WRITEs are ordered by stripe
//! ownership (one shard thread per stripe); an in-process
//! `Engine::execute` WRITE owns no stripe, so it has to exclude the
//! shard threads some other way. This test runs both side by side on
//! overlapping units and then checks what a lost exclusion leaves
//! behind: stripes whose parity no longer matches their data, or units
//! holding bytes no writer wrote.
//!
//! Every write is one unit at a random offset. On 13 × 4 a one-unit
//! write is a read-modify-write, which carries a stripe's parity error
//! forward instead of recomputing it, so a lost parity update stays
//! visible until the final scrub.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use pddl_array::DeclusteredArray;
use pddl_core::rng::Xoshiro256pp;
use pddl_core::Pddl;
use pddl_server::{serve, Client, Engine, Op, Request, ServerConfig, Status};

const UNIT: usize = 64;
const LOAD: Duration = Duration::from_millis(1500);
/// Fill bytes of the two clients and of the in-process writer.
const PATTERNS: [u8; 3] = [0xa1, 0xb2, 0xc3];

#[test]
fn in_process_writes_beside_served_writes_keep_parity() {
    let layout = Pddl::new(13, 4).unwrap();
    let array = DeclusteredArray::new(Box::new(layout), UNIT, 2).unwrap();
    let engine = Arc::new(Engine::new(array));
    let config = ServerConfig {
        shards: 2,
        ..ServerConfig::default()
    };
    let handle = serve(Arc::clone(&engine), "127.0.0.1:0", config).unwrap();
    let addr = handle.local_addr();
    let cap = engine.volume_info().capacity_units;
    let stop = Arc::new(AtomicBool::new(false));

    let clients: Vec<_> = PATTERNS[..2]
        .iter()
        .enumerate()
        .map(|(i, &fill)| {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let mut rng = Xoshiro256pp::seed_from_u64(i as u64 + 1);
                let mut writes = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let offset = rng.next_u64() % cap;
                    client.write_units(offset, &[fill; UNIT]).unwrap();
                    writes += 1;
                }
                writes
            })
        })
        .collect();

    let in_process = {
        let engine = Arc::clone(&engine);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut rng = Xoshiro256pp::seed_from_u64(3);
            let mut id = 0;
            while !stop.load(Ordering::Relaxed) {
                id += 1;
                let req = Request {
                    id,
                    op: Op::Write,
                    volume: 0,
                    offset: rng.next_u64() % cap,
                    length: 1,
                    payload: vec![PATTERNS[2]; UNIT],
                };
                assert_eq!(engine.execute(0, &req).status, Status::Ok);
            }
            id
        })
    };

    std::thread::sleep(LOAD);
    stop.store(true, Ordering::Relaxed);
    // Every writer must have run, or the test proves nothing.
    for t in clients {
        assert!(t.join().unwrap() > 0, "a client completed no write");
    }
    assert!(
        in_process.join().unwrap() > 0,
        "no in-process write completed"
    );
    handle.shutdown();

    let bad = engine.scrub().unwrap();
    assert!(
        bad.is_empty(),
        "{} stripes with bad parity: {bad:?}",
        bad.len()
    );
    for unit in 0..cap {
        let req = Request {
            id: unit,
            op: Op::Read,
            volume: 0,
            offset: unit,
            length: 1,
            payload: Vec::new(),
        };
        let r = engine.execute(0, &req);
        assert_eq!(r.status, Status::Ok, "unit {unit}");
        let first = r.payload[0];
        assert!(
            (first == 0 || PATTERNS.contains(&first)) && r.payload.iter().all(|&b| b == first),
            "unit {unit} holds bytes no writer wrote: {:?}",
            &r.payload[..8]
        );
    }
}
