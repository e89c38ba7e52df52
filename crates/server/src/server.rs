//! The TCP serve entry point.
//!
//! [`serve`] binds the listener and starts the thread-per-core shard
//! runtime in [`crate::runtime`] on it — the one serving topology, on
//! every platform:
//!
//! ```text
//! accept thread ──deals──▶ shard inboxes ◀──chunks, results──▶ peers
//!                               │  one event loop per shard:
//!                               │  decode → admit → execute on the
//!                               │  stripe-owning shard → respond
//!                               └──blocking ops──▶ control thread
//!                                   (answers come back to the inbox)
//! ```
//!
//! Each shard runs a readiness loop over its connections (epoll on
//! Linux x86_64/aarch64, a sleep-poll stand-in elsewhere — see
//! [`crate::reactor`]), owns a fixed partition of the stripes, and
//! commits the WRITE chunks that reached it in one tick — from its own
//! connections or from a peer through its inbox — as a single array
//! batch.
//! `ServerConfig::shards` sets the shard count (0 = one per available
//! core).
//!
//! # Shutdown
//!
//! [`ServerHandle::shutdown`] stops the runtime (acceptor, shards,
//! control thread — every thread is joined), then pauses any
//! background rebuild and unregisters the runtime's scrape closures
//! from the engine's telemetry plane.

use std::io;
use std::net::{SocketAddr, TcpListener};
use std::os::fd::AsRawFd;
use std::sync::Arc;
use std::time::Duration;

use crate::engine::Engine;
use crate::reactor;
use crate::runtime::{self, Runtime};

/// Tuning knobs for [`serve`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Shard (event-loop) threads; `0` means one per available core.
    pub shards: usize,
    /// Drop a connection after this long without a complete frame
    /// (partial-frame progress counts as activity).
    pub idle_timeout: Duration,
    /// Longest a queued response may make no progress against a slow
    /// consumer before the connection is declared dead and evicted.
    /// A reader that stops draining its socket costs its shard nothing
    /// but the buffered response; a genuinely slow-but-alive client
    /// must keep draining within this budget or lose the connection.
    pub write_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            shards: 0,
            idle_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(10),
        }
    }
}

/// A running server; dropping the handle does **not** stop it — call
/// [`ServerHandle::shutdown`].
pub struct ServerHandle {
    engine: Arc<Engine>,
    runtime: Runtime,
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.runtime.local_addr()
    }

    /// Requests executed so far.
    pub fn requests_served(&self) -> u64 {
        self.runtime.requests_served()
    }

    /// The shared engine (e.g. to snapshot volume info while serving).
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// Event-loop shards serving this handle.
    pub fn runtime_shards(&self) -> usize {
        self.runtime.shard_count()
    }

    /// Stop accepting, join every serving thread. In-flight responses
    /// are abandoned (connections see a close); acknowledged writes are
    /// already durable.
    pub fn shutdown(self) {
        self.runtime.shutdown();
        // Serving threads are done, so no new rebuild can start; pause
        // and join any in-flight background rebuild rather than leaking
        // it (its ticket stays resumable — a later REBUILD picks up
        // where it stopped).
        self.engine.stop_rebuild();
        // Drop the scrape closures so the engine (often longer-lived
        // than any one server) stops reporting a dead runtime.
        self.engine.telemetry().clear_gauge_sources();
        self.engine.telemetry().clear_counter_sources();
    }
}

/// Bind `addr` (use port 0 for an ephemeral port) and start serving the
/// engine. Returns once the listener is bound; serving continues on
/// background threads until [`ServerHandle::shutdown`].
///
/// # Errors
///
/// Propagates the bind failure (or runtime setup failure).
pub fn serve(engine: Arc<Engine>, addr: &str, config: ServerConfig) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    reactor::raise_backlog(listener.as_raw_fd())?;
    let runtime = runtime::start(Arc::clone(&engine), listener, &config)?;
    Ok(ServerHandle { engine, runtime })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use crate::wire::{self, Status};
    use pddl_array::DeclusteredArray;
    use pddl_core::Pddl;
    use std::io::Write;
    use std::net::TcpStream;
    use std::time::Instant;

    fn start() -> ServerHandle {
        let layout = Pddl::new(7, 3).unwrap();
        let array = DeclusteredArray::new(Box::new(layout), 16, 4).unwrap();
        let engine = Arc::new(Engine::new(array));
        serve(engine, "127.0.0.1:0", ServerConfig::default()).unwrap()
    }

    #[test]
    fn serves_a_round_trip_and_shuts_down() {
        let handle = start();
        let mut c = Client::connect(handle.local_addr()).unwrap();
        let data = vec![0x5au8; 16];
        c.write_units(0, &data).unwrap();
        assert_eq!(c.read_units(0, 1).unwrap(), data);
        assert!(handle.requests_served() >= 2);
        handle.shutdown();
    }

    /// Explicit multi-shard runtime: WRITEs, READs and a TRIM that span
    /// stripe groups send chunks of all three kinds to peer shards and
    /// join them, FLUSH answers on the decoding shard, and everything
    /// must still round-trip exactly.
    #[test]
    fn four_shards_serve_cross_shard_requests_and_flush() {
        let layout = Pddl::new(7, 3).unwrap();
        // 4096 stripes, 16 units each: plenty of stripe groups so a
        // long run of units crosses shard owners.
        let array = DeclusteredArray::new(Box::new(layout), 16, 4096).unwrap();
        let handle = serve(
            Arc::new(Engine::new(array)),
            "127.0.0.1:0",
            ServerConfig {
                shards: 4,
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let addr = handle.local_addr();
        let clients: Vec<_> = (0..4u64)
            .map(|i| {
                std::thread::spawn(move || {
                    let mut c = Client::connect(addr).unwrap();
                    // Spread across the unit space so different shards
                    // own different clients' stripes; 512 units per op
                    // crosses several 16-stripe ownership groups.
                    let base = i * 20_000;
                    for round in 0..4u64 {
                        let fill = (i * 16 + round + 1) as u8;
                        let data = vec![fill; 512 * 16];
                        c.write_units(base + round * 512, &data).unwrap();
                        c.flush().unwrap();
                        assert_eq!(c.read_units(base + round * 512, 512).unwrap(), data);
                    }
                    // A TRIM over everything just written spans owners
                    // like the WRITEs did, and reads back as zeros.
                    c.trim(base, 4 * 512).unwrap();
                    assert_eq!(
                        c.read_units(base, 4 * 512).unwrap(),
                        vec![0u8; 4 * 512 * 16]
                    );
                })
            })
            .collect();
        for c in clients {
            c.join().unwrap();
        }
        assert!(handle.requests_served() >= 4 * (4 * 3 + 2));
        handle.shutdown();
    }

    #[test]
    fn malformed_frame_gets_bad_request_and_a_disconnect() {
        let handle = start();
        let mut s = TcpStream::connect(handle.local_addr()).unwrap();
        // Exactly the 4 magic bytes, and wrong: the server rejects at
        // the earliest point and no unread input is left behind (which
        // would RST the socket and could discard the error response).
        s.write_all(&0xdead_beefu32.to_be_bytes()).unwrap();
        let resp = wire::read_response(&mut s).unwrap().unwrap();
        assert_eq!(resp.status, Status::BadRequest);
        // The server closes the connection after a desync.
        assert!(wire::read_response(&mut s).unwrap().is_none());
        handle.shutdown();
    }

    #[test]
    fn frame_stalled_across_poll_ticks_still_completes() {
        let handle = start();
        let mut s = TcpStream::connect(handle.local_addr()).unwrap();
        let mut frame = Vec::new();
        wire::write_request(
            &mut frame,
            &wire::Request {
                id: 7,
                op: wire::Op::Write,
                volume: 0,
                offset: 0,
                length: 1,
                payload: vec![0xc3u8; 16],
            },
        )
        .unwrap();
        // Stall longer than the 50 ms poll tick in the header and again
        // in the payload; the server must resume the frame, not desync.
        s.write_all(&frame[..9]).unwrap();
        s.flush().unwrap();
        std::thread::sleep(Duration::from_millis(150));
        s.write_all(&frame[9..34]).unwrap();
        s.flush().unwrap();
        std::thread::sleep(Duration::from_millis(150));
        s.write_all(&frame[34..]).unwrap();
        s.flush().unwrap();
        let resp = wire::read_response(&mut s).unwrap().unwrap();
        assert_eq!(resp.id, 7);
        assert_eq!(resp.status, Status::Ok);
        handle.shutdown();
    }

    #[test]
    fn shutdown_with_no_clients_is_prompt() {
        let t = Instant::now();
        start().shutdown();
        assert!(t.elapsed() < Duration::from_secs(5));
    }

    /// Fire single-unit WRITEs back-to-back from 8 connections for 200
    /// rounds (each connection waits for its answer before its next
    /// WRITE, so depth comes from connections, not from pipelining —
    /// `tests/pipelining.rs` covers that) and require that the owner's
    /// tick batch coalesced some of them: a `journal.batch_ops` sample
    /// of ≥ 2 and fewer journal batches than acknowledged writes, with
    /// every unit reading back its last write. The acceptor deals
    /// sockets to shards round-robin, so using every `shards`-th of the
    /// first sockets opened homes all 8 on shard 0; `owner` picks which
    /// shard's units they write.
    fn assert_tick_batch_coalesces(shards: usize, owner: usize) {
        const CONNS: usize = 8;
        const ROUNDS: usize = 200;
        let layout = Pddl::new(7, 3).unwrap();
        let mut array = DeclusteredArray::new(Box::new(layout), 16, 4).unwrap();
        let observer = Arc::new(std::sync::Mutex::new(pddl_obs::Observer::new(
            pddl_obs::ObsConfig::default(),
        )));
        array.attach_observer(observer.clone());
        let handle = serve(
            Arc::new(Engine::new(array)),
            "127.0.0.1:0",
            ServerConfig {
                shards,
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let engine = handle.engine();
        let cap = engine.volume_info().capacity_units;
        // Volume 0 maps a unit to the same physical unit of the array.
        let units: Vec<u64> = (0..cap)
            .filter(|&u| runtime::owner_of(engine.stripe_of(u), shards) == owner)
            .collect();
        assert!(units.len() >= CONNS, "shard {owner} owns too few units");
        let mut socks: Vec<TcpStream> = (0..CONNS * shards)
            .map(|_| {
                let s = TcpStream::connect(handle.local_addr()).unwrap();
                s.set_nodelay(true).unwrap();
                s
            })
            .collect();
        let fill = |round: usize, conn: usize| (round * CONNS + conn) as u8 | 1;
        let mut latest = vec![None; cap as usize];
        let mut frame = Vec::new();
        for round in 0..ROUNDS {
            for (conn, s) in socks.iter_mut().step_by(shards).enumerate() {
                let unit = units[((round * CONNS + conn) * 5) % units.len()];
                frame.clear();
                wire::write_request(
                    &mut frame,
                    &wire::Request {
                        id: round as u64,
                        op: wire::Op::Write,
                        volume: 0,
                        offset: unit,
                        length: 1,
                        payload: vec![fill(round, conn); 16],
                    },
                )
                .unwrap();
                s.write_all(&frame).unwrap();
                latest[unit as usize] = Some(fill(round, conn));
            }
            for s in socks.iter_mut().step_by(shards) {
                let resp = wire::read_response(s).unwrap().unwrap();
                assert_eq!((resp.id, resp.status), (round as u64, Status::Ok));
            }
        }
        let acked = (CONNS * ROUNDS) as u64;
        let mut c = Client::connect(handle.local_addr()).unwrap();
        for (unit, byte) in latest.iter().enumerate() {
            if let Some(b) = byte {
                assert_eq!(c.read_units(unit as u64, 1).unwrap(), vec![*b; 16]);
            }
        }
        assert!(handle.engine().outstanding_intents().is_empty());
        assert!(handle.engine().scrub().unwrap().is_empty());
        {
            let obs = observer.lock().unwrap();
            let r = obs.registry();
            let batches = r.counter("journal.group_commits").unwrap();
            let max_ops = r.histogram("journal.batch_ops").unwrap().max();
            assert!(max_ops >= 2, "no tick ever batched two writes");
            assert!(
                batches < acked,
                "{batches} journal batches for {acked} writes: nothing coalesced"
            );
        }
        let t = Instant::now();
        handle.shutdown();
        assert!(t.elapsed() < Duration::from_secs(5));
    }

    /// The tick batch really batches: on one shard, WRITEs decoded in
    /// the same tick commit as one array batch. Submitting each chunk
    /// on its own in `flush_write_batch` fails this.
    #[test]
    fn tick_batch_coalesces_writes_from_concurrent_connections() {
        assert_tick_batch_coalesces(1, 0);
    }

    /// ...and it batches whoever cut the chunk: connections homed on
    /// shard 0 write units shard 1 owns, so every WRITE chunk reaches
    /// its owner's inbox, and those that arrive in one tick must
    /// still commit together. Submitting a peer's chunk on arrival, one
    /// `shard_write_batch_into` each, fails this.
    #[test]
    fn tick_batch_coalesces_writes_routed_from_a_peer_shard() {
        assert_tick_batch_coalesces(2, 1);
    }

    /// Connection fan-in: one thread holds 256 sockets open against 1
    /// shard and again against 4, puts one single-unit READ on every
    /// socket before reading any response, then collects them all.
    /// Socket `i` reads unit `37 * i`: the units walk through ~300
    /// stripe groups, so with 4 shards every shard owns some and most
    /// READs hop to a peer. Every request is served with the right
    /// bytes and no job is left in flight.
    ///
    /// The 256 `connect()` calls must take under a second. std's
    /// `TcpListener::bind` listens with a backlog of 128: a burst that
    /// overflows that accept queue while the acceptor thread is not
    /// scheduled loses SYNs, and Linux retransmits a dropped SYN after
    /// 1 s. `serve` raises the backlog to 4096
    /// ([`reactor::raise_backlog`]), so the burst queues instead. The
    /// portable reactor keeps std's backlog, so the bound is not
    /// checked under `--cfg pddl_portable_reactor`.
    #[test]
    fn connection_fan_in_serves_every_socket_on_one_and_four_shards() {
        const SOCKS: u64 = 256;
        const STRIDE: u64 = 37;
        for shards in [1, 4] {
            let layout = Pddl::new(7, 3).unwrap();
            let array = DeclusteredArray::new(Box::new(layout), 16, 512).unwrap();
            let handle = serve(
                Arc::new(Engine::new(array)),
                "127.0.0.1:0",
                ServerConfig {
                    shards,
                    ..ServerConfig::default()
                },
            )
            .unwrap();
            assert_eq!(handle.runtime_shards(), shards);
            assert!(SOCKS * STRIDE <= handle.engine().volume_info().capacity_units);
            let mut c = Client::connect(handle.local_addr()).unwrap();
            for i in 0..SOCKS {
                c.write_units(i * STRIDE, &[i as u8 | 1; 16]).unwrap();
            }
            let served_before = handle.requests_served();

            let connecting = Instant::now();
            let mut socks: Vec<TcpStream> = (0..SOCKS)
                .map(|_| TcpStream::connect(handle.local_addr()).unwrap())
                .collect();
            let connect_time = connecting.elapsed();
            assert!(
                cfg!(pddl_portable_reactor) || connect_time < Duration::from_secs(1),
                "{SOCKS} connects took {connect_time:?} on {shards} shards: a dropped SYN"
            );
            let mut frame = Vec::new();
            for (i, s) in socks.iter_mut().enumerate() {
                frame.clear();
                wire::write_request(
                    &mut frame,
                    &wire::Request {
                        id: i as u64,
                        op: wire::Op::Read,
                        volume: 0,
                        offset: i as u64 * STRIDE,
                        length: 1,
                        payload: Vec::new(),
                    },
                )
                .unwrap();
                s.write_all(&frame).unwrap();
            }
            for (i, s) in socks.iter_mut().enumerate() {
                let resp = wire::read_response(s).unwrap().unwrap();
                assert_eq!((resp.id, resp.status), (i as u64, Status::Ok));
                assert_eq!(resp.payload, vec![i as u8 | 1; 16], "{shards} shards");
            }
            assert!(handle.requests_served() - served_before >= SOCKS);
            // A job leaves the gauge before its response is queued, so
            // with every response read nothing can still be counted.
            let snap = handle.engine().telemetry().snapshot();
            assert_eq!(snap.gauge("server.jobs_inflight"), Some(0.0));
            handle.shutdown();
        }
    }
}
