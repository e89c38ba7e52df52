//! Loopback tests for the multi-volume, multi-tenant surface: volume
//! lifecycle over real TCP, cross-volume isolation, backward
//! compatibility for volume-unaware clients, and the QoS acceptance
//! scenario — a saturating tenant plus an active rebuild must not
//! starve a rate-limited victim tenant out of its fair share.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pddl_array::DeclusteredArray;
use pddl_core::Pddl;
use pddl_server::{
    engine::{Engine, RebuildConfig},
    server::{serve, ServerConfig, ServerHandle},
    Client, ClientError, Op, Request, Status, VolumeSpec,
};

const UNIT: usize = 16;

fn start_server(periods: u64) -> ServerHandle {
    let layout = Pddl::new(7, 3).unwrap();
    let array = DeclusteredArray::new(Box::new(layout), UNIT, periods).unwrap();
    serve(
        Arc::new(Engine::new(array)),
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .unwrap()
}

/// Full lifecycle over the wire: carve, list, address, resize, delete —
/// and the error taxonomy a client sees at each misstep.
#[test]
fn volume_lifecycle_over_loopback() {
    let handle = start_server(4);
    let mut c = Client::connect(handle.local_addr()).unwrap();
    let cap = c.info().unwrap().capacity_units;

    // The pool starts fully owned by volume 0.
    let pool = c.pool_info().unwrap();
    assert_eq!(pool.volumes, 1);
    assert_eq!(pool.arrays.len(), 1);
    assert_eq!(pool.arrays[0].free_units, 0);

    // Creation without free space fails loudly, then succeeds after a
    // shrink of the default volume.
    let mut spec = VolumeSpec::new("alpha", 8);
    spec.tenant = 3;
    match c.volume_create(&spec) {
        Err(ClientError::Server(status)) => assert_eq!(status, Status::NoCapacity),
        other => panic!("expected NoCapacity, got {other:?}"),
    }
    c.volume_resize(0, cap - 8).unwrap();
    let id = c.volume_create(&spec).unwrap();
    assert_eq!(id, 1);

    let rows = c.volume_list().unwrap();
    assert_eq!(rows.len(), 2);
    assert_eq!(
        (rows[1].id, rows[1].name.as_str(), rows[1].tenant),
        (1, "alpha", 3)
    );
    assert_eq!(rows[1].capacity_units, 8);

    // INFO is volume-scoped now.
    c.set_volume(1);
    assert_eq!(c.info().unwrap().capacity_units, 8);
    c.set_volume(0);
    assert_eq!(c.info().unwrap().capacity_units, cap - 8);

    // Shrink, then delete; the id stops resolving.
    c.volume_resize(1, 4).unwrap();
    c.volume_delete(1).unwrap();
    let (status, _) = c.request_on(1, Op::Read, 0, 1, Vec::new()).unwrap();
    assert_eq!(status, Status::VolumeNotFound);
    match c.volume_delete(0) {
        Err(ClientError::Server(status)) => assert_eq!(status, Status::BadRequest),
        other => panic!("volume 0 must be indestructible, got {other:?}"),
    }
    handle.shutdown();
}

/// Two tenants writing the same logical offsets through different
/// volumes never see each other's bytes, and a legacy volume-unaware
/// client (flags byte zero) still lands on volume 0.
#[test]
fn volumes_isolate_and_legacy_clients_default_to_volume_zero() {
    let handle = start_server(4);
    let addr = handle.local_addr();
    let mut admin = Client::connect(addr).unwrap();
    let cap = admin.info().unwrap().capacity_units;
    admin.volume_resize(0, cap - 16).unwrap();
    assert_eq!(admin.volume_create(&VolumeSpec::new("a", 8)).unwrap(), 1);
    assert_eq!(admin.volume_create(&VolumeSpec::new("b", 8)).unwrap(), 2);

    let mut ta = Client::connect(addr).unwrap();
    ta.set_volume(1);
    let mut tb = Client::connect(addr).unwrap();
    tb.set_volume(2);
    ta.write_units(0, &[0xaa; UNIT]).unwrap();
    tb.write_units(0, &[0xbb; UNIT]).unwrap();
    assert_eq!(ta.read_units(0, 1).unwrap(), vec![0xaa; UNIT]);
    assert_eq!(tb.read_units(0, 1).unwrap(), vec![0xbb; UNIT]);

    // A client that never heard of volumes addresses volume 0 and is
    // oblivious to the others.
    let mut legacy = Client::connect(addr).unwrap();
    legacy.write_units(0, &[0xcc; UNIT]).unwrap();
    assert_eq!(legacy.read_units(0, 1).unwrap(), vec![0xcc; UNIT]);
    assert_eq!(ta.read_units(0, 1).unwrap(), vec![0xaa; UNIT]);

    // Volume-local bounds: offset valid in volume 0 but past volume 1.
    let (status, _) = ta.request_on(1, Op::Read, 8, 1, Vec::new()).unwrap();
    assert_eq!(status, Status::BadAddress);
    handle.shutdown();
}

/// The QoS acceptance scenario. One unlimited tenant saturates the
/// server from several connections while a rebuild runs; a victim
/// tenant rate-limited to `VICTIM_RATE` ops/s must still get at least
/// 80% of that fair share, with its p99 latency bounded — deficit
/// round-robin between tenant lanes keeps the victim's short queue
/// flowing past the aggressor's deep one.
#[test]
fn rate_limited_tenant_keeps_fair_share_under_saturation_and_rebuild() {
    const VICTIM_RATE: u64 = 200; // ops/s, the victim's whole entitlement
    const WINDOW: Duration = Duration::from_millis(2000);
    const HOT_THREADS: usize = 3;

    // Enough stripes that a throttled rebuild stays active all window.
    let layout = Pddl::new(7, 3).unwrap();
    let array = DeclusteredArray::new(Box::new(layout), UNIT, 8).unwrap();
    let engine = Arc::new(Engine::with_config(
        array,
        RebuildConfig {
            batch: 1,
            rate: 60.0,
        },
    ));
    let handle = serve(engine, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = handle.local_addr();

    let mut admin = Client::connect(addr).unwrap();
    let cap = admin.info().unwrap().capacity_units;
    let slice = cap / 4;
    admin.volume_resize(0, cap - 2 * slice).unwrap();
    let mut hot_spec = VolumeSpec::new("hot", slice);
    hot_spec.tenant = 1;
    let hot_vol = admin.volume_create(&hot_spec).unwrap();
    let mut victim_spec = VolumeSpec::new("victim", slice);
    victim_spec.tenant = 2;
    victim_spec.ops_per_sec = VICTIM_RATE;
    let victim_vol = admin.volume_create(&victim_spec).unwrap();

    // Prime both volumes so reads return real data.
    let mut primer = Client::connect(addr).unwrap();
    for vol in [hot_vol, victim_vol] {
        primer.set_volume(vol);
        for u in 0..slice {
            primer.write_units(u, &[vol; UNIT]).unwrap();
        }
    }

    // Kick the rebuild: disk failed, background reconstruction running
    // as the low-priority rebuild tenant for the whole window.
    admin.fail_disk(2).unwrap();
    admin.rebuild(2).unwrap();

    let stop = Arc::new(AtomicBool::new(false));
    let hot_ops = Arc::new(AtomicU64::new(0));
    let hot: Vec<_> = (0..HOT_THREADS)
        .map(|_| {
            let stop = Arc::clone(&stop);
            let hot_ops = Arc::clone(&hot_ops);
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                c.set_timeout(Some(Duration::from_secs(30))).unwrap();
                c.set_volume(hot_vol);
                let span = (slice / 2).max(1) as u32;
                while !stop.load(Ordering::Relaxed) {
                    c.read_units(0, span).unwrap();
                    hot_ops.fetch_add(1, Ordering::Relaxed);
                }
            })
        })
        .collect();

    // The victim: closed-loop single-unit reads, latency per op.
    let mut victim = Client::connect(addr).unwrap();
    victim.set_timeout(Some(Duration::from_secs(30))).unwrap();
    victim.set_volume(victim_vol);
    let mut latencies_ns: Vec<u64> = Vec::new();
    let started = Instant::now();
    while started.elapsed() < WINDOW {
        let t = Instant::now();
        victim.read_units(0, 1).unwrap();
        latencies_ns.push(t.elapsed().as_nanos() as u64);
    }
    stop.store(true, Ordering::Relaxed);
    for t in hot {
        t.join().unwrap();
    }

    let elapsed = started.elapsed().as_secs_f64();
    let fair_share = VICTIM_RATE as f64 * elapsed;
    let got = latencies_ns.len() as f64;
    assert!(
        got >= 0.8 * fair_share,
        "victim got {got} ops, fair share {fair_share:.0} over {elapsed:.2}s \
         (hot tenant pushed {} ops)",
        hot_ops.load(Ordering::Relaxed)
    );
    latencies_ns.sort_unstable();
    let p99 = latencies_ns[((latencies_ns.len() * 99) / 100).min(latencies_ns.len() - 1)];
    assert!(
        p99 < 500_000_000,
        "victim p99 {}ms exceeds the 500ms bound",
        p99 / 1_000_000
    );

    // The aggressor really was throttled around the victim: the qos
    // ledger saw admission waits.
    let hot_done = hot_ops.load(Ordering::Relaxed);
    assert!(hot_done > 0, "hot tenant made no progress at all");
    handle.shutdown();
}

/// A volume grown into the hole a deleted neighbour left spans two
/// extents, so an op across the boundary resolves to two segments.
/// WRITE, READ and TRIM over TCP on a 2-shard runtime, and a READ
/// through `Engine::execute`, must each place every unit of both
/// segments at its own offset, and parity must scrub clean.
#[test]
fn fragmented_volume_serves_ops_across_extents() {
    let layout = Pddl::new(7, 3).unwrap();
    let array = DeclusteredArray::new(Box::new(layout), UNIT, 4).unwrap();
    let config = ServerConfig {
        shards: 2,
        ..ServerConfig::default()
    };
    let handle = serve(Arc::new(Engine::new(array)), "127.0.0.1:0", config).unwrap();
    let engine = Arc::clone(handle.engine());
    let mut c = Client::connect(handle.local_addr()).unwrap();
    let cap = c.info().unwrap().capacity_units;

    // `a` takes the first 8 free units and `b` the next 8; deleting
    // `a` leaves a hole in front of `b`, and growing `b` fills it.
    c.volume_resize(0, cap - 32).unwrap();
    let a = c.volume_create(&VolumeSpec::new("a", 8)).unwrap();
    let b = c.volume_create(&VolumeSpec::new("b", 8)).unwrap();
    c.volume_delete(a).unwrap();
    c.volume_resize(b, 16).unwrap();
    let resolved = engine.volumes().resolve(b, 0, 16).unwrap();
    assert_eq!(resolved.segments.len(), 2, "{:?}", resolved.segments);
    drop(resolved);

    // Units 4..12 straddle the boundary at logical unit 8; each unit
    // carries its own byte so a misplaced unit cannot pass.
    c.set_volume(b);
    let data: Vec<u8> = (4..12u8).flat_map(|u| [u; UNIT]).collect();
    c.write_units(4, &data).unwrap();
    assert_eq!(c.read_units(4, 8).unwrap(), data);
    let read = Request {
        id: 1,
        op: Op::Read,
        volume: b,
        offset: 4,
        length: 8,
        payload: Vec::new(),
    };
    let r = engine.execute(0, &read);
    assert_eq!((r.status, r.payload), (Status::Ok, data.clone()));

    // A TRIM of units 6..10 zeroes both sides of the boundary and
    // nothing else.
    c.trim(6, 4).unwrap();
    let mut expect = data;
    expect[2 * UNIT..6 * UNIT].fill(0);
    assert_eq!(c.read_units(4, 8).unwrap(), expect);

    handle.shutdown();
    assert_eq!(engine.scrub().unwrap(), Vec::<u64>::new());
}
