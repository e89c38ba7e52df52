//! Thread-per-core shard runtime: the readiness-driven serving path.
//!
//! One OS thread per shard, each running its own edge-triggered epoll
//! loop over the connections an acceptor thread dealt to it. Stripes
//! are partitioned across shards by stripe-group ([`owner_of`]).
//!
//! **A job is chunks; a chunk runs on its owner.** Every READ, WRITE
//! or TRIM becomes one job on the shard that decoded it, cut into
//! owner chunks — maximal runs of units whose stripes one shard owns.
//! One function executes a chunk, wherever it came from:
//!
//! * a chunk this shard owns runs at once, a chunk owned elsewhere is
//!   sent to its owner's inbox and runs there — the same code, reached
//!   from the inbox drain instead of the decode;
//! * a READ chunk fills its slice of the job's response frame (in
//!   place when local: no queue hop, no stripe lock, and once buffers
//!   are warm no allocation and no copy but array to frame); a TRIM
//!   chunk zero-fills; a WRITE chunk, local or a peer's, joins the
//!   owner's *tick batch*, and the end of the tick submits the whole
//!   batch as one [`Engine::shard_write_batch_into`] (one intent append)
//!   — the only route from a served WRITE to the array;
//! * each chunk's result is folded into its job, directly or through
//!   the origin's inbox, and the last one finalizes it: volume
//!   counters, the access span, the gauges and delivery happen once,
//!   in one tail.
//!
//! Two kinds of request are not chunks:
//!
//! * **`FLUSH`** — a job with no chunks, answered at once: rule 1
//!   below parks it until every earlier frame of its connection is
//!   answered, and a WRITE is answered only once its tick batch is in
//!   the array.
//! * **Blocking ops** (volume lifecycle, `REBUILD`, `STATS`, ...) —
//!   handed to a dedicated control thread so a shard's event loop
//!   never blocks; the response comes home through the shard's inbox.
//!
//! # One inbox per shard
//!
//! Everything that reaches a shard from another thread arrives on its
//! one [`mpsc`] channel: a peer's chunk or chunk result, a control
//! thread answer, and a fresh connection from the acceptor. The
//! senders live in the shared state, and the shard drains its receiver
//! once per tick. Whoever sends also signals the shard's eventfd
//! doorbell; a shard rings each peer it sent to once, at the end of
//! its tick. One sender's messages arrive in the order sent.
//!
//! # The shard-ownership invariant
//!
//! A stripe is touched by exactly one shard thread (its owner), so the
//! engine's per-stripe exclusion needs no locks on this path. The
//! writers ownership cannot order follow the engine's two other rules
//! (see its locking model): the background rebuild worker holds stripe
//! locks, and while a rebuild runs the shard threads take the same
//! locks; everything else — array lifecycle ops (scrub, recover,
//! replace) and in-process [`Engine::execute`] data ops — parks every
//! shard thread first through the runtime pauser registered with
//! [`Engine::set_runtime_pauser`]. Shard threads park only *between*
//! requests, so an in-flight op is never interrupted.
//!
//! A shard thread must never issue a blocking lifecycle op or an
//! in-process data op itself (it would wait for its own park), which
//! is why every blocking op routes to the control thread, and the
//! control thread is never handed a READ, WRITE or TRIM.
//!
//! # Pipelining
//!
//! A connection may have several decoded frames in flight: a shard
//! keeps decoding a connection's queued frames in the same tick while
//! it can, so a client's pipelined WRITEs join the owner's tick batch
//! together and their acks leave in one send. Four rules, each also a
//! comment at its site:
//!
//! 1. **Only data ops pipeline.** READ, WRITE and TRIM do. Any other op
//!    waits until the connection has drained, and nothing behind it is
//!    decoded until it is answered — so `FLUSH` still means "every
//!    earlier WRITE on this connection is in the array".
//! 2. **Per-connection program order on every owner.** Every chunk
//!    carries its connection's `client` id, and a READ or TRIM chunk
//!    submits the owner's tick batch first if the batch holds a WRITE
//!    chunk of the same connection (other connections' chunks keep
//!    priority over the batch). A shard's messages to one peer arrive
//!    in order and `write_batch` is last-deposit-wins in arrival order,
//!    so one connection's overlapping ops take effect in request order
//!    on every owner.
//! 3. **WRITE acks are coalesced.** Completions produced while the tick
//!    batch is answered are appended to their connections' outbufs, and
//!    each touched connection is sent once, after the batch. Every other
//!    completion, READ responses included, is sent at once.
//! 4. **One decode predicate** (`Conn::can_decode`) gates both the
//!    decoding and the reactor's zero timeout. It stops at a cap of
//!    in-flight frames, at [`wire::MAX_PAYLOAD`] in-flight payload bytes
//!    (WRITE data plus READ responses), while a request is QoS-parked,
//!    while a non-data op is in flight, and while the connection's
//!    response bytes are stalled — so a connection at its cap never
//!    spins the loop, and one holds about 2 × `MAX_PAYLOAD` at most
//!    however many frames it sends. A connection also yields the tick
//!    after as many frames as the cap, so a client that refills as
//!    fast as its READs are answered cannot hold the shard.
//!
//! There is no timer and no threshold: a lone request is a batch of one,
//! answered in its own tick. Responses to data ops may leave out of
//! request order; clients match them by id.
//!
//! # Reading requests
//!
//! Each connection's [`wire::RequestReader`] reads into a fixed 64 KiB
//! window, so one `recv` brings in many pipelined frames, and hands out
//! buffered frames without touching the socket. **Invariant:** `poll`
//! never reports `WouldBlock` while a complete frame is buffered. The
//! reactor is edge-triggered and a connection's `readable` flag is
//! cleared only on `WouldBlock`, so a frame left in the buffer behind a
//! `WouldBlock` would never be decoded: no new bytes, no new edge.
//!
//! A finished WRITE's payload buffer is reused. One that fits the
//! window goes back to its connection's reader (`complete` →
//! `RequestReader::recycle`), which copies the next payload into it. A
//! frame larger than the window is received straight into a payload
//! buffer from the shard's [`wire::LargePayloads`] pool (`poll_with`),
//! and `complete` returns it there, for any of the shard's connections:
//! one copy, and no allocation once warm. A READ's response frame is
//! the shard's `read_frame`, which comes back from the socket with its
//! bytes, so sizing the next frame zero-fills only growth; header-only
//! answers use `head_frame`. Every payload byte of a READ frame is
//! written by its chunks before it is sent, and a failed READ is
//! answered with a header only, so no stale byte leaves.
//!
//! # Backpressure
//!
//! Frames past rule 4's stops stay in the socket buffer, so TCP flow
//! control is the backpressure path. Per-tenant QoS is enforced at
//! admission: a frame that exceeds its tenant's token bucket parks with
//! a deadline ([`TenantRegistry::try_admit`]'s wait hint) instead of
//! blocking the loop, and the reactor's wait timeout shrinks to the
//! nearest deadline. Inboxes are unbounded, so a send never blocks and
//! shards never wait on each other. The connections bound what an
//! inbox can hold: rule 4 caps each connection's in-flight frames and
//! bytes, and rule 1 allows one control op per connection.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::engine::{status_of, AccessSpan, Engine};
use crate::reactor::{
    Epoll, EpollEvent, EventFd, EPOLLERR, EPOLLET, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP,
};
use crate::server::ServerConfig;
use crate::wire::{self, Op, Request, Status, WireError, RESPONSE_HEADER_LEN};
use pddl_array::WriteScratch;
use pddl_volume::{Resolved, TenantRegistry};

/// Stripes per ownership group: ownership rotates between shards every
/// this many consecutive stripes, so neighbouring stripes usually
/// share an owner (keeping short multi-stripe requests single-owner)
/// while load still spreads across shards.
pub const STRIPE_GROUP: u64 = 16;

/// Epoll token of the shard's doorbell eventfd.
const DOORBELL: u64 = u64::MAX;

/// Readiness records drained per `epoll_pwait`.
const EVENTS_CAP: usize = 256;

/// Default reactor tick when nothing is imminent (idle sweeps land
/// within this granularity).
const IDLE_TICK_MS: i32 = 100;

/// Longest a QoS-parked request sleeps before re-probing its bucket —
/// bounds shutdown latency and keeps stale wait hints honest.
const MAX_PARK: Duration = Duration::from_millis(100);

/// Most decoded frames one connection may have in flight, and most it
/// gets decoded in one tick (rule 4): a depth-16 client's whole window
/// decodes in one tick, and a deeper pipeliner's backlog waits in its
/// socket.
pub(crate) const MAX_PIPELINE: u32 = 32;

/// The shard that owns `stripe`: contiguous [`STRIPE_GROUP`]-stripe
/// runs rotate round-robin.
pub fn owner_of(stripe: u64, shards: usize) -> usize {
    (stripe / STRIPE_GROUP) as usize % shards.max(1)
}

/// Whether an `accept` failure is a descriptor/memory-exhaustion
/// condition that a bounded sleep can relieve (`EMFILE`, `ENFILE`,
/// `ENOMEM`). Anything else (e.g. `ECONNABORTED`) is per-connection
/// noise to skip without slowing the accept loop.
pub fn accept_should_backoff(e: &io::Error) -> bool {
    // ENOMEM=12, ENFILE=23, EMFILE=24 on Linux.
    matches!(e.raw_os_error(), Some(12 | 23 | 24))
}

// ---------------------------------------------------------------------
// Messages
// ---------------------------------------------------------------------

/// Where a WRITE chunk's bytes wait until the tick batch submits them.
enum WriteData {
    /// A peer's chunk: the bytes travel in the message as a copy.
    Copied(Vec<u8>),
    /// A local chunk: `len` bytes at `at` of its job's request payload,
    /// borrowed from the job waiting in this shard's `jobs`.
    InJob { at: usize, len: usize },
}

/// One owner-chunk of a data op, executed on the owning shard.
enum SubKind {
    Read { phys: u64, bytes: usize },
    Write { phys: u64, data: WriteData },
    Trim { phys: u64, units: u64 },
}

struct Sub {
    origin: usize,
    /// The connection that sent the op (`Conn::client`), for rule 2.
    client: u32,
    job: u64,
    /// Byte offset of this chunk's data within the response frame
    /// (reads) — echoed back so the origin can place the bytes.
    frame_off: usize,
    kind: SubKind,
}

struct Done {
    job: u64,
    frame_off: usize,
    payload: Result<Vec<u8>, Status>,
}

/// Everything that reaches a shard from another thread, through its
/// one inbox.
enum ShardMsg {
    /// A chunk a peer cut, owned here.
    Sub(Sub),
    /// A chunk result for a job waiting here.
    Done(Done),
    /// The control thread's answer to a job waiting here.
    Ctl(CtlDone),
    /// A fresh connection dealt by the acceptor.
    Conn(TcpStream),
}

/// A blocking op, executed off-loop by the control thread.
struct ControlJob {
    origin: usize,
    job: u64,
    queue_ns: u64,
    req: Request,
}

/// The control thread's answer: a finished response frame.
struct CtlDone {
    job: u64,
    frame: Vec<u8>,
}

// ---------------------------------------------------------------------
// Shared state
// ---------------------------------------------------------------------

struct PauseState {
    /// Outstanding pause requests (lifecycle ops may stack).
    want: usize,
    /// Shard threads currently parked.
    parked: usize,
    /// Shutdown: parks and pause-waits return immediately.
    closed: bool,
}

struct Pause {
    state: Mutex<PauseState>,
    cv: Condvar,
    /// Mirror of `want > 0` so the shard fast path is one atomic load.
    flag: AtomicBool,
}

/// Per-shard observability counters, written by the owning shard each
/// tick and read by scrape-time gauge closures.
#[derive(Default)]
struct ShardStats {
    /// Reactor waits that returned at least one event.
    wakeups: AtomicU64,
    /// Messages the shard's last drain took off its inbox.
    inbox_depth: AtomicU64,
    /// Requests parked awaiting QoS admission at last tick. In-flight
    /// work (cross-shard joins, control-thread ops) is deliberately
    /// excluded so `queue.depth` means waiting-for-admission work
    /// only, never the op that is itself observing the gauge.
    /// Executing jobs show in `server.jobs_inflight`.
    queued: AtomicU64,
}

struct RtShared {
    engine: Arc<Engine>,
    stop: AtomicBool,
    requests: AtomicU64,
    accept_errors: AtomicU64,
    jobs_inflight: AtomicU64,
    conn_seq: AtomicU32,
    pause: Pause,
    stats: Vec<ShardStats>,
    /// Each shard's inbox, the one way another thread reaches it.
    inboxes: Vec<mpsc::Sender<ShardMsg>>,
    /// Each shard's doorbell, signalled by anyone who queued it work.
    doorbells: Vec<Arc<EventFd>>,
}

impl RtShared {
    fn wake(&self, shard: usize) {
        self.doorbells[shard].signal();
    }

    /// Send `msg` to `shard`'s inbox and ring its doorbell at once (the
    /// acceptor and the control thread; a shard rings once per tick).
    fn deliver(&self, shard: usize, msg: ShardMsg) {
        // Fails only once the shard has exited, at shutdown.
        if self.inboxes[shard].send(msg).is_ok() {
            self.wake(shard);
        }
    }
}

fn plock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// A pause guard: constructed by the registered runtime pauser with
/// every shard parked; dropping it resumes them.
struct PauseGuard {
    shared: Arc<RtShared>,
}

impl PauseGuard {
    fn acquire(shared: &Arc<RtShared>) -> Self {
        let shards = shared.stats.len();
        let mut st = plock(&shared.pause.state);
        st.want += 1;
        shared.pause.flag.store(true, Ordering::Release);
        for bell in &shared.doorbells {
            bell.signal();
        }
        while st.parked < shards && !st.closed {
            st = shared
                .pause
                .cv
                .wait(st)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        Self {
            shared: Arc::clone(shared),
        }
    }
}

impl Drop for PauseGuard {
    fn drop(&mut self) {
        let mut st = plock(&self.shared.pause.state);
        st.want -= 1;
        if st.want == 0 {
            self.shared.pause.flag.store(false, Ordering::Release);
        }
        self.shared.pause.cv.notify_all();
    }
}

// ---------------------------------------------------------------------
// The runtime handle
// ---------------------------------------------------------------------

/// A running sharded server; see [`start`].
pub struct Runtime {
    addr: SocketAddr,
    shared: Arc<RtShared>,
    accept: JoinHandle<()>,
    shards: Vec<JoinHandle<()>>,
    control: JoinHandle<()>,
    control_tx: mpsc::Sender<ControlJob>,
}

impl Runtime {
    /// The bound listener address.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests executed so far (any status).
    pub fn requests_served(&self) -> u64 {
        self.shared.requests.load(Ordering::Relaxed)
    }

    /// Number of shard (event-loop) threads this runtime is running.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Stop accepting, wake and join every thread. In-flight responses
    /// are abandoned (connections see a close); acknowledged writes
    /// are already durable.
    pub fn shutdown(self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        // Unblock the acceptor with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        let _ = self.accept.join();
        stop_threads(
            &self.shared,
            self.shards,
            Some((self.control_tx, self.control)),
        );
    }
}

/// Stop and join the shard threads of a running (or half-started)
/// runtime, unregister its pauser, then retire the control thread, if
/// one was started, by dropping its queue.
fn stop_threads(
    shared: &RtShared,
    shards: Vec<JoinHandle<()>>,
    control: Option<(mpsc::Sender<ControlJob>, JoinHandle<()>)>,
) {
    shared.stop.store(true, Ordering::SeqCst);
    plock(&shared.pause.state).closed = true;
    shared.pause.cv.notify_all();
    for bell in &shared.doorbells {
        bell.signal();
    }
    for t in shards {
        let _ = t.join();
    }
    // Shards are gone (and with them their clones of the control
    // queue's sender): nothing is left to park, and dropping the last
    // sender ends the control loop.
    shared.engine.clear_runtime_pauser();
    if let Some((tx, t)) = control {
        drop(tx);
        let _ = t.join();
    }
}

/// Start the sharded runtime on an already-bound listener with
/// `cfg.shards` event loops (0 = one per available core). Registers
/// the runtime pauser with the engine and, once every thread is up,
/// the shard gauges/counters with its telemetry plane.
///
/// # Errors
///
/// Reactor or thread creation failure; everything started so far is
/// joined first, and nothing stays registered with the engine.
pub fn start(
    engine: Arc<Engine>,
    listener: TcpListener,
    cfg: &ServerConfig,
) -> io::Result<Runtime> {
    let addr = listener.local_addr()?;
    let nshards = match cfg.shards {
        0 => std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        n => n,
    };

    let (senders, inboxes): (Vec<_>, Vec<_>) = (0..nshards).map(|_| mpsc::channel()).unzip();
    let shared = Arc::new(RtShared {
        engine: Arc::clone(&engine),
        stop: AtomicBool::new(false),
        requests: AtomicU64::new(0),
        accept_errors: AtomicU64::new(0),
        jobs_inflight: AtomicU64::new(0),
        conn_seq: AtomicU32::new(0),
        pause: Pause {
            state: Mutex::new(PauseState {
                want: 0,
                parked: 0,
                closed: false,
            }),
            cv: Condvar::new(),
            flag: AtomicBool::new(false),
        },
        stats: (0..nshards).map(|_| ShardStats::default()).collect(),
        inboxes: senders,
        doorbells: (0..nshards)
            .map(|_| EventFd::new().map(Arc::new))
            .collect::<io::Result<_>>()?,
    });

    let (control_tx, control_rx) = mpsc::channel::<ControlJob>();

    // Lifecycle ops (scrub/recover/replace/arm-crash) and in-process
    // data ops park every shard thread through this hook before taking
    // their write locks.
    // Installed before the first shard runs; `stop_threads` removes it
    // on every failure path below.
    {
        let ps = Arc::clone(&shared);
        engine.set_runtime_pauser(Box::new(move || {
            Box::new(PauseGuard::acquire(&ps)) as Box<dyn std::any::Any + Send>
        }));
    }

    let mut shard_threads: Vec<JoinHandle<()>> = Vec::with_capacity(nshards);
    for (i, inbox) in inboxes.into_iter().enumerate() {
        let spawned = Epoll::new().and_then(|epoll| {
            let shard = Shard::new(
                i,
                Arc::clone(&shared),
                epoll,
                inbox,
                control_tx.clone(),
                cfg,
            )?;
            std::thread::Builder::new()
                .name(format!("pddl-shard-{i}"))
                .spawn(move || shard.run())
        });
        match spawned {
            Ok(h) => shard_threads.push(h),
            Err(e) => {
                stop_threads(&shared, shard_threads, None);
                return Err(e);
            }
        }
    }

    let control = {
        let engine = Arc::clone(&engine);
        let shared2 = Arc::clone(&shared);
        let spawned = std::thread::Builder::new()
            .name("pddl-control".into())
            .spawn(move || control_loop(&engine, &shared2, &control_rx));
        match spawned {
            Ok(h) => h,
            Err(e) => {
                stop_threads(&shared, shard_threads, None);
                return Err(e);
            }
        }
    };

    let accept = {
        let shared2 = Arc::clone(&shared);
        let spawned = std::thread::Builder::new()
            .name("pddl-accept".into())
            .spawn(move || accept_loop(&listener, &shared2));
        match spawned {
            Ok(h) => h,
            Err(e) => {
                stop_threads(&shared, shard_threads, Some((control_tx, control)));
                return Err(e);
            }
        }
    };

    // Last, now that nothing can fail: a start that errored out above
    // has left no series behind for a runtime that never ran.
    register_scrape_sources(&shared);

    Ok(Runtime {
        addr,
        shared,
        accept,
        shards: shard_threads,
        control,
        control_tx,
    })
}

/// Register the runtime's scrape-time series with the engine's
/// telemetry plane: per-shard inbox/queue-depth gauges and wakeup
/// counters, plus the aggregates. The closures hold a `Weak`: the
/// engine owns the telemetry plane that owns them, and `RtShared` owns
/// the engine, so a strong reference would be a cycle.
fn register_scrape_sources(shared: &Arc<RtShared>) {
    let telemetry = shared.engine.telemetry();
    for i in 0..shared.stats.len() {
        let w = Arc::downgrade(shared);
        telemetry.set_gauge_source(
            &format!("shard.inbox_depth{{shard=\"{i}\"}}"),
            Box::new(move || {
                w.upgrade().map_or(0.0, |s| {
                    s.stats[i].inbox_depth.load(Ordering::Relaxed) as f64
                })
            }),
        );
        let w = Arc::downgrade(shared);
        telemetry.set_gauge_source(
            &format!("shard.queue_depth{{shard=\"{i}\"}}"),
            Box::new(move || {
                w.upgrade()
                    .map_or(0.0, |s| s.stats[i].queued.load(Ordering::Relaxed) as f64)
            }),
        );
        let w = Arc::downgrade(shared);
        telemetry.set_counter_source(
            &format!("shard.wakeups{{shard=\"{i}\"}}"),
            Box::new(move || {
                w.upgrade()
                    .map_or(0, |s| s.stats[i].wakeups.load(Ordering::Relaxed))
            }),
        );
    }
    let w = Arc::downgrade(shared);
    telemetry.set_gauge_source(
        "queue.depth",
        Box::new(move || {
            w.upgrade().map_or(0.0, |s| {
                s.stats
                    .iter()
                    .map(|st| st.queued.load(Ordering::Relaxed))
                    .sum::<u64>() as f64
            })
        }),
    );
    let w = Arc::downgrade(shared);
    telemetry.set_gauge_source(
        "server.jobs_inflight",
        Box::new(move || {
            w.upgrade()
                .map_or(0.0, |s| s.jobs_inflight.load(Ordering::Relaxed) as f64)
        }),
    );
    let w = Arc::downgrade(shared);
    telemetry.set_counter_source(
        "shard.wakeups",
        Box::new(move || {
            w.upgrade().map_or(0, |s| {
                s.stats
                    .iter()
                    .map(|st| st.wakeups.load(Ordering::Relaxed))
                    .sum()
            })
        }),
    );
    let w = Arc::downgrade(shared);
    telemetry.set_counter_source(
        "server.accept_errors",
        Box::new(move || {
            w.upgrade()
                .map_or(0, |s| s.accept_errors.load(Ordering::Relaxed))
        }),
    );
}

// ---------------------------------------------------------------------
// Acceptor
// ---------------------------------------------------------------------

fn accept_loop(listener: &TcpListener, shared: &Arc<RtShared>) {
    let nshards = shared.stats.len();
    let mut next = 0usize;
    let mut backoff = Duration::from_millis(1);
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if shared.stop.load(Ordering::SeqCst) {
                    return;
                }
                backoff = Duration::from_millis(1);
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                let _ = stream.set_nodelay(true);
                let shard = next % nshards;
                next = next.wrapping_add(1);
                shared.deliver(shard, ShardMsg::Conn(stream));
            }
            Err(e) => {
                if shared.stop.load(Ordering::SeqCst) {
                    return;
                }
                if accept_should_backoff(&e) {
                    // Descriptor/memory exhaustion: count it, sleep a
                    // bounded growing interval so the fd table can
                    // drain (idle/write timeouts keep reaping), retry.
                    shared.accept_errors.fetch_add(1, Ordering::Relaxed);
                    std::thread::sleep(backoff);
                    backoff = (backoff * 2).min(Duration::from_millis(100));
                }
                // Per-connection failures (ECONNABORTED...) just skip.
            }
        }
    }
}

// ---------------------------------------------------------------------
// Control thread
// ---------------------------------------------------------------------

fn control_loop(engine: &Arc<Engine>, shared: &RtShared, rx: &mpsc::Receiver<ControlJob>) {
    while let Ok(job) = rx.recv() {
        let mut frame = Vec::new();
        engine.execute_queued_frame_into(&job.req, &mut frame, job.queue_ns);
        let done = CtlDone {
            job: job.job,
            frame,
        };
        shared.deliver(job.origin, ShardMsg::Ctl(done));
    }
}

// ---------------------------------------------------------------------
// Shard event loop
// ---------------------------------------------------------------------

/// A connection owned by one shard. `gen` disambiguates a recycled
/// slot: jobs hold `(slot, gen)`, so a completion for a connection
/// that died mid-flight hits a mismatch instead of a stranger.
struct Conn {
    stream: TcpStream,
    gen: u64,
    client: u32,
    reader: wire::RequestReader,
    /// Residual read readiness: edge-triggered epoll only reports
    /// transitions, so this stays set until a read hits `WouldBlock`.
    readable: bool,
    /// Decoded frames not yet answered: jobs in flight plus a parked
    /// request. `complete` takes one off for its own `(slot, gen)` only.
    inflight: u32,
    /// Bytes those frames pin ([`pinned_bytes`]).
    inflight_bytes: usize,
    /// A non-data op is decoded and not yet answered (rule 1).
    barrier: bool,
    parked: Option<Parked>,
    outbuf: Vec<u8>,
    out_pos: usize,
    /// Registered for `EPOLLOUT` (response bytes pending).
    want_write: bool,
    /// When the current response write first hit `WouldBlock`.
    write_stalled: Option<Instant>,
    last_activity: Instant,
    /// Bytes of partial frame seen at the last progress check.
    buffered_prev: usize,
    /// Peer sent EOF: close once the pipeline drains.
    eof: bool,
    /// Protocol error: answer what's queued, then close.
    close_after_flush: bool,
    dead: bool,
}

impl Conn {
    /// Rule 4, the one decode predicate: whether another frame may be
    /// taken off this connection now. `service_reads` decodes while it
    /// holds and `tick_timeout` skips the reactor sleep only if it
    /// holds, so a connection stopped here never spins the loop.
    fn can_decode(&self) -> bool {
        self.readable
            && !self.dead
            && !self.close_after_flush
            && self.inflight < MAX_PIPELINE
            && self.inflight_bytes < wire::MAX_PAYLOAD as usize
            && self.parked.is_none()
            && !self.barrier
            && !self.want_write
    }

    /// When the parked request may next be retried: its QoS deadline —
    /// or `None` while it is a non-data op still waiting for the frames
    /// before it to be answered (rule 1), which a completion ends, not
    /// a clock.
    fn parked_due(&self) -> Option<Instant> {
        let p = self.parked.as_ref()?;
        (pipelines(p.req.op) || self.inflight == 1).then_some(p.deadline)
    }
}

/// Whether `op` pipelines (rule 1): READ, WRITE and TRIM may overlap on
/// one connection; every other op is a per-connection barrier.
fn pipelines(op: Op) -> bool {
    matches!(op, Op::Read | Op::Write | Op::Trim)
}

/// Bytes a frame pins on its connection until it is answered: a
/// WRITE's payload or a READ's response data (rule 4's byte stop). No
/// response exceeds `MAX_PAYLOAD` (a larger READ fails), so neither
/// does this, and a connection's sum cannot overflow.
fn pinned_bytes(req: &Request, unit: usize) -> usize {
    match req.op {
        Op::Write => req.payload.len(),
        Op::Read => (req.length as usize)
            .saturating_mul(unit)
            .min(wire::MAX_PAYLOAD as usize),
        _ => 0,
    }
}

/// An emptied `v` whose allocation is kept for borrows of another
/// lifetime, so the tick batch's op list outlives the jobs it borrows
/// from. The element types differ only in lifetime, so the in-place
/// `collect` reuses the buffer, and no element is left to outlive its
/// borrow.
fn reuse_allocation<'b>(mut v: Vec<(u64, &[u8])>) -> Vec<(u64, &'b [u8])> {
    v.clear();
    v.into_iter().map(|_| unreachable!("cleared")).collect()
}

/// A decoded request not yet dispatched: it probes its token bucket at
/// `deadline` — a non-data op only once its connection has drained.
struct Parked {
    req: Request,
    tenant: u32,
    bytes: u64,
    deadline: Instant,
    decoded_at: Instant,
}

/// A WRITE chunk in the tick batch: taken in this tick from a local job
/// or the inbox, submitted (and answered to `origin`) by
/// `flush_write_batch`.
struct TickWrite {
    origin: usize,
    client: u32,
    job: u64,
    phys: u64,
    data: WriteData,
}

/// A request in flight on the shard that decoded it: a data op's
/// chunks, a FLUSH, or a control-thread op. `req.op` says
/// which.
struct Job {
    slot: usize,
    gen: u64,
    req: Request,
    /// `None` for control-thread ops: the engine brackets those itself.
    span: Option<AccessSpan>,
    queue_ns: u64,
    /// Response under construction (reads: pre-sized, chunk data lands
    /// at its frame offset).
    frame: Vec<u8>,
    payload_bytes: usize,
    remaining: usize,
    /// Sticky first error.
    status: Status,
    /// Pins the volume mapping until every chunk lands.
    resolved: Option<Resolved>,
}

impl Job {
    /// Fold one chunk's result into the job; `true` when it was the
    /// last one outstanding.
    fn apply_done(&mut self, done: Done) -> bool {
        match done.payload {
            Ok(buf) => {
                let end = done.frame_off + buf.len();
                if self.req.op == Op::Read && self.status == Status::Ok && end <= self.frame.len() {
                    self.frame[done.frame_off..end].copy_from_slice(&buf);
                }
            }
            Err(status) => {
                if self.status == Status::Ok {
                    self.status = status;
                }
            }
        }
        self.remaining -= 1;
        self.remaining == 0
    }
}

/// One owner-chunk of a resolved data op.
#[derive(Clone, Copy)]
struct Chunk {
    owner: usize,
    phys: u64,
    units: u64,
    /// Byte offset within the op's logical payload.
    byte_off: usize,
}

struct Shard {
    id: usize,
    nshards: usize,
    shared: Arc<RtShared>,
    engine: Arc<Engine>,
    tenants: Arc<TenantRegistry>,
    epoll: Epoll,
    bell: Arc<EventFd>,
    inbox: mpsc::Receiver<ShardMsg>,
    ctl_tx: mpsc::Sender<ControlJob>,
    /// Peers to ring after this tick's sends.
    signal: Vec<bool>,
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    jobs: HashMap<u64, Job>,
    next_job: u64,
    gen_seq: u64,
    /// The tick batch: empty at the end of every tick.
    wbatch: Vec<TickWrite>,
    /// `flush_write_batch`'s buffers, kept across ticks so a warm batch
    /// allocates nothing: the batch's `(phys, bytes)` ops (always empty
    /// between batches; only the allocation is kept) and the array's
    /// write scratch.
    wops: Vec<(u64, &'static [u8])>,
    wscratch: WriteScratch,
    /// Set while `flush_write_batch` answers its chunks: `complete`
    /// then queues a response in its outbuf and the connection's slot
    /// here, and the batch sends each slot once (rule 3).
    defer_acks: bool,
    acked: Vec<usize>,
    /// Scratch: per-request chunk list (reused; allocation-free warm).
    chunks: Vec<Chunk>,
    /// Scratch: the next READ's response frame. It keeps its length —
    /// bytes a sent frame left initialized — so sizing the next frame
    /// zero-fills only growth. `dispatch_data` takes it; `keep_frame`
    /// and a finished send put back the buffer with the most bytes.
    read_frame: Vec<u8>,
    /// Scratch: the next header-only answer (a WRITE or TRIM ack, an
    /// error, FLUSH), so those never truncate `read_frame`.
    head_frame: Vec<u8>,
    /// Payload buffers of WRITE frames larger than the read window, for
    /// every connection's next large WRITE.
    large: wire::LargePayloads,
    /// Scratch: zero block for TRIM.
    zeros: Vec<u8>,
    parked_count: usize,
    wakeups: u64,
    idle_timeout: Duration,
    write_timeout: Duration,
}

impl Shard {
    fn new(
        id: usize,
        shared: Arc<RtShared>,
        epoll: Epoll,
        inbox: mpsc::Receiver<ShardMsg>,
        ctl_tx: mpsc::Sender<ControlJob>,
        cfg: &ServerConfig,
    ) -> io::Result<Self> {
        let nshards = shared.stats.len();
        let engine = Arc::clone(&shared.engine);
        let tenants = Arc::clone(engine.tenants());
        let unit = engine.unit_bytes();
        // TRIM zero block: up to 1024 units, capped near 256 KiB so a
        // huge unit size doesn't pin a huge block per shard.
        let zero_units = (256 * 1024 / unit).clamp(1, 1024);
        let bell = Arc::clone(&shared.doorbells[id]);
        // Without its doorbell a shard never wakes for inbox traffic and
        // cross-shard jobs hang silently: fail the start instead.
        epoll.add(bell.raw_fd(), EPOLLIN | EPOLLET, DOORBELL)?;
        Ok(Self {
            id,
            nshards,
            engine,
            tenants,
            epoll,
            bell,
            inbox,
            ctl_tx,
            signal: vec![false; nshards],
            conns: Vec::new(),
            free: Vec::new(),
            jobs: HashMap::new(),
            next_job: 0,
            gen_seq: 0,
            wbatch: Vec::new(),
            wops: Vec::new(),
            wscratch: WriteScratch::default(),
            defer_acks: false,
            acked: Vec::new(),
            chunks: Vec::new(),
            read_frame: Vec::new(),
            head_frame: Vec::new(),
            large: wire::LargePayloads::new(),
            zeros: vec![0u8; zero_units * unit],
            parked_count: 0,
            wakeups: 0,
            idle_timeout: cfg.idle_timeout,
            write_timeout: cfg.write_timeout,
            shared,
        })
    }

    fn run(mut self) {
        let mut events = [EpollEvent::empty(); EVENTS_CAP];
        loop {
            let timeout = self.tick_timeout();
            let n = self.epoll.wait(&mut events, timeout).unwrap_or(0);
            if n > 0 {
                self.wakeups += 1;
            }
            for ev in &events[..n] {
                match ev.token() {
                    DOORBELL => {
                        self.bell.drain();
                    }
                    token => {
                        let slot = token as usize;
                        if let Some(Some(conn)) = self.conns.get_mut(slot) {
                            let bits = ev.events();
                            if bits & (EPOLLIN | EPOLLRDHUP | EPOLLERR | EPOLLHUP) != 0 {
                                // Error/hangup also goes through the
                                // read path so in-flight work drains
                                // before the close is observed.
                                conn.readable = true;
                            }
                            // EPOLLOUT needs no flag: every tick
                            // retries pending outbufs.
                        }
                    }
                }
            }
            if self.shared.stop.load(Ordering::SeqCst) {
                break;
            }
            if self.shared.pause.flag.load(Ordering::Acquire) {
                self.park();
            }
            self.drain_inbox();
            self.service_conns();
            // Every WRITE chunk taken in above — from the inbox or from
            // this shard's own connections — commits here, so the tick
            // batch is empty at the end of every tick, hence whenever
            // the shard parks (see `park`).
            self.flush_write_batch();
            self.ring_doorbells();
            self.sweep();
        }
        // Drop jobs/conns explicitly so volume pins release before the
        // runtime handle is torn down.
        self.jobs.clear();
        self.conns.clear();
    }

    // -- tick plumbing -------------------------------------------------

    /// How long the reactor may sleep: zero when decodable input or a
    /// due parked request is pending, else bounded by the nearest
    /// parked-request deadline and the idle-sweep granularity.
    fn tick_timeout(&self) -> i32 {
        let mut timeout = IDLE_TICK_MS;
        let now = Instant::now();
        for conn in self.conns.iter().flatten() {
            if conn.dead || conn.can_decode() {
                return 0;
            }
            if let Some(due) = conn.parked_due() {
                let wait = due.saturating_duration_since(now);
                if wait.is_zero() {
                    return 0;
                }
                let ms = wait.as_millis().min(i32::MAX as u128) as i32;
                timeout = timeout.min(ms.max(1));
            }
        }
        timeout
    }

    fn park(&self) {
        // Parking happens between ticks, and a tick ends with its batch
        // submitted: a lifecycle op never finds a taken-in WRITE that is
        // not yet in the array.
        debug_assert!(self.wbatch.is_empty(), "parked with a tick batch");
        let mut st = plock(&self.shared.pause.state);
        if st.want == 0 || st.closed {
            return;
        }
        st.parked += 1;
        self.shared.pause.cv.notify_all();
        while st.want > 0 && !st.closed {
            st = self
                .shared
                .pause
                .cv
                .wait(st)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        st.parked -= 1;
        self.shared.pause.cv.notify_all();
    }

    /// Take everything off the inbox: peers' chunks and results,
    /// control-thread answers and fresh connections.
    fn drain_inbox(&mut self) {
        let mut taken = 0;
        while let Ok(msg) = self.inbox.try_recv() {
            taken += 1;
            match msg {
                ShardMsg::Sub(sub) => self.execute_chunk(sub, None),
                ShardMsg::Done(done) => self.join_done(done),
                ShardMsg::Ctl(done) => self.finish_control(done),
                ShardMsg::Conn(stream) => self.adopt(stream),
            }
        }
        self.shared.stats[self.id]
            .inbox_depth
            .store(taken, Ordering::Relaxed);
    }

    /// Register a connection the acceptor dealt to this shard.
    fn adopt(&mut self, stream: TcpStream) {
        let slot = self.free.pop().unwrap_or_else(|| {
            self.conns.push(None);
            self.conns.len() - 1
        });
        self.gen_seq += 1;
        if self
            .epoll
            .add(
                stream.as_raw_fd(),
                EPOLLIN | EPOLLRDHUP | EPOLLET,
                slot as u64,
            )
            .is_err()
        {
            // Registration failed (fd pressure): shed this connection,
            // keep the slot free.
            self.free.push(slot);
            return;
        }
        self.conns[slot] = Some(Conn {
            stream,
            gen: self.gen_seq,
            client: self.shared.conn_seq.fetch_add(1, Ordering::Relaxed),
            reader: wire::RequestReader::new(),
            readable: true,
            inflight: 0,
            inflight_bytes: 0,
            barrier: false,
            parked: None,
            outbuf: Vec::new(),
            out_pos: 0,
            want_write: false,
            write_stalled: None,
            last_activity: Instant::now(),
            buffered_prev: 0,
            eof: false,
            close_after_flush: false,
            dead: false,
        });
    }

    /// Execute one owner chunk: the one place a served READ or TRIM
    /// meets the engine's shard-exec API and a served WRITE enters the
    /// tick batch, whether this shard cut `sub` itself (`home` is its
    /// job, still being dispatched) or it came from the inbox.
    fn execute_chunk(&mut self, sub: Sub, mut home: Option<&mut Job>) {
        let Sub {
            origin,
            client,
            job,
            frame_off,
            kind,
        } = sub;
        // Rule 2: a READ or TRIM chunk takes effect after every WRITE
        // chunk its own connection sent this owner before it, so submit
        // the batch first if it holds one. Other connections' chunks
        // keep priority over the batch. (A scan: no lock, no allocation.)
        if matches!(kind, SubKind::Read { .. } | SubKind::Trim { .. })
            && self.wbatch.iter().any(|w| w.client == client)
        {
            self.flush_write_batch();
        }
        let result = match kind {
            SubKind::Read { phys, bytes } => {
                // A local chunk lands in its slice of the job's
                // response frame; a peer's in a buffer that goes home
                // in its `Done`.
                let mut buf = Vec::new();
                let out = match home.as_deref_mut() {
                    Some(job) => &mut job.frame[frame_off..frame_off + bytes],
                    None => {
                        buf.resize(bytes, 0);
                        &mut buf[..]
                    }
                };
                self.engine.shard_read(phys, out).map(|()| buf)
            }
            SubKind::Write { phys, data } => {
                // Answered by `flush_write_batch`, with the rest of the
                // tick's WRITE chunks.
                self.wbatch.push(TickWrite {
                    origin,
                    client,
                    job,
                    phys,
                    data,
                });
                return;
            }
            SubKind::Trim { phys, units } => self
                .engine
                .shard_trim(phys, units, &self.zeros)
                .map(|()| Vec::new()),
        };
        let done = Done {
            job,
            frame_off,
            payload: result.map_err(|e| status_of(&e)),
        };
        match home {
            // `dispatch_data` finalizes once it has cut the last chunk.
            Some(job) => {
                job.apply_done(done);
            }
            None => self.send(origin, ShardMsg::Done(done)),
        }
    }

    /// A chunk result for a job waiting in `jobs`: fold it in, and
    /// finalize the job if that was its last.
    fn join_done(&mut self, done: Done) {
        if let Entry::Occupied(mut waiting) = self.jobs.entry(done.job) {
            if waiting.get_mut().apply_done(done) {
                let job = waiting.remove();
                self.finalize_job(job);
            }
        }
    }

    fn finish_control(&mut self, done: CtlDone) {
        let Some(mut job) = self.jobs.remove(&done.job) else {
            return;
        };
        job.frame = done.frame;
        self.complete(job);
    }

    /// Every chunk has reported (a FLUSH has none): account the op
    /// against its volume and settle the response frame. A served
    /// READ's frame already holds its data; everything else answers a
    /// bare header.
    fn finalize_job(&mut self, mut job: Job) {
        let ok = job.status == Status::Ok;
        if let Some(resolved) = &job.resolved {
            resolved
                .stats
                .record(ok, job.payload_bytes as u64, job.req.payload.len() as u64);
        }
        if !(ok && job.req.op == Op::Read) {
            // A header-only answer: borrowed only now, so a job waiting
            // on its chunks does not sit on it. A failed READ's frame,
            // sized for its data, goes back whole — its bytes are never
            // sent.
            let frame = std::mem::replace(&mut job.frame, std::mem::take(&mut self.head_frame));
            self.keep_frame(frame);
            let _ = wire::response_frame_into(&mut job.frame, job.req.id, job.status, 0);
        }
        self.complete(job);
    }

    /// The one completion tail: close the access span, count the
    /// request, release the volume pin, and deliver the frame if the
    /// connection is still the one that asked.
    fn complete(&mut self, job: Job) {
        if let Some(span) = job.span {
            let payload = if job.status == Status::Ok {
                job.payload_bytes
            } else {
                0
            };
            self.engine
                .end_access(span, &job.req, job.status, payload, job.queue_ns);
        }
        self.shared.requests.fetch_add(1, Ordering::Relaxed);
        self.shared.jobs_inflight.fetch_sub(1, Ordering::Relaxed);
        // `resolved` (the volume pin) drops with the job here.
        let Job {
            slot,
            gen,
            mut req,
            mut frame,
            ..
        } = job;
        let pinned = pinned_bytes(&req, self.engine.unit_bytes());
        // A WRITE's payload buffer carries a later payload: a large one
        // any connection's next large WRITE, a small one its own
        // connection's next (below).
        if req.payload.capacity() > wire::READ_WINDOW {
            self.large.give(std::mem::take(&mut req.payload));
        }
        // A job whose connection died mid-flight (e.g. teardown while a
        // chunk is out on a peer) still ran everything above — the span is
        // closed and `server.jobs_inflight` is back down; there is just
        // nobody left to answer, so only delivery is skipped.
        let mut deliver = false;
        if let Some(conn) = self
            .conns
            .get_mut(slot)
            .and_then(Option::as_mut)
            .filter(|c| c.gen == gen)
        {
            debug_assert!(
                conn.inflight > 0 && conn.inflight_bytes >= pinned,
                "in-flight count underflow on slot {slot}"
            );
            conn.inflight -= 1;
            conn.inflight_bytes -= pinned;
            if !pipelines(req.op) {
                conn.barrier = false;
            }
            conn.reader.recycle(req.payload);
            if !conn.dead {
                if conn.outbuf.is_empty() {
                    // Hand the frame over instead of copying it; the
                    // drained buffer it displaces is kept below.
                    std::mem::swap(&mut conn.outbuf, &mut frame);
                } else {
                    conn.outbuf.extend_from_slice(&frame);
                }
                conn.last_activity = Instant::now();
                deliver = true;
            }
        }
        // Kept before the send: a READ frame that is sent at once then
        // finds the buffer it displaced in `read_frame`, and trades
        // places with it (`try_flush_conn`), so no buffer is dropped.
        self.keep_frame(frame);
        if deliver {
            // Rule 3: inside the tick batch's answers, queue only;
            // `flush_write_batch` sends each connection once.
            if self.defer_acks {
                self.acked.push(slot);
            } else {
                self.try_flush_conn(slot);
            }
        }
    }

    /// Keep a frame buffer delivery is done with, bytes and all: as the
    /// next READ's frame if more of it is initialized than of the one
    /// kept or that one is out, else as the next header-only frame if
    /// that one is out.
    fn keep_frame(&mut self, mut frame: Vec<u8>) {
        if frame.len() > self.read_frame.len() || self.read_frame.capacity() == 0 {
            std::mem::swap(&mut frame, &mut self.read_frame);
        }
        if self.head_frame.capacity() == 0 {
            self.head_frame = frame;
        }
    }

    // -- connection servicing -----------------------------------------

    fn service_conns(&mut self) {
        for slot in 0..self.conns.len() {
            self.retry_parked(slot);
            if self
                .conns
                .get(slot)
                .is_some_and(|c| c.as_ref().is_some_and(|c| !c.outbuf.is_empty()))
            {
                self.try_flush_conn(slot);
            }
            self.service_reads(slot);
        }
    }

    fn retry_parked(&mut self, slot: usize) {
        let due = {
            let Some(Some(conn)) = self.conns.get_mut(slot) else {
                return;
            };
            !conn.dead && conn.parked_due().is_some_and(|d| Instant::now() >= d)
        };
        if !due {
            return;
        }
        let parked = {
            let conn = self.conns[slot].as_mut().expect("checked above");
            conn.parked.take().expect("checked above")
        };
        self.parked_count -= 1;
        match self.tenants.try_admit(parked.tenant, parked.bytes) {
            Ok(()) => {
                let queue_ns = parked.decoded_at.elapsed().as_nanos() as u64;
                self.dispatch(slot, parked.req, queue_ns);
            }
            Err(wait_ns) => self.park_request(
                slot,
                parked.req,
                parked.tenant,
                parked.bytes,
                wait_ns,
                parked.decoded_at,
            ),
        }
    }

    fn park_request(
        &mut self,
        slot: usize,
        req: Request,
        tenant: u32,
        bytes: u64,
        wait_ns: u64,
        decoded_at: Instant,
    ) {
        let wait = Duration::from_nanos(wait_ns.max(1_000)).min(MAX_PARK);
        if let Some(Some(conn)) = self.conns.get_mut(slot) {
            conn.parked = Some(Parked {
                req,
                tenant,
                bytes,
                deadline: Instant::now() + wait,
                decoded_at,
            });
            self.parked_count += 1;
        }
    }

    /// Decode and dispatch this connection's queued frames for as long
    /// as rule 4's predicate allows, and at most [`MAX_PIPELINE`] of
    /// them per tick: a READ answered in place frees its slot at once,
    /// so a client that keeps refilling would otherwise hold the tick —
    /// and every other connection, the inbox and a pending park — for
    /// as long as it keeps up.
    fn service_reads(&mut self, slot: usize) {
        let unit = self.engine.unit_bytes();
        for _ in 0..MAX_PIPELINE {
            let polled = {
                let Some(Some(conn)) = self.conns.get_mut(slot) else {
                    return;
                };
                if !conn.can_decode() {
                    return;
                }
                let Conn { reader, stream, .. } = conn;
                reader.poll_with(stream, &mut self.large)
            };
            match polled {
                Ok(Some(req)) => {
                    let decoded_at = Instant::now();
                    let mut drained = false;
                    if let Some(Some(conn)) = self.conns.get_mut(slot) {
                        conn.last_activity = decoded_at;
                        conn.buffered_prev = 0;
                        drained = conn.inflight == 0;
                        conn.inflight += 1;
                        conn.inflight_bytes += pinned_bytes(&req, unit);
                        conn.barrier = !pipelines(req.op);
                    }
                    let (tenant, bytes) = self.engine.admission(&req);
                    if !pipelines(req.op) && !drained {
                        // Rule 1: a non-data op waits, parked, until
                        // every frame before it is answered; `barrier`
                        // stops decoding behind it until it is too.
                        self.park_request(slot, req, tenant, bytes, 0, decoded_at);
                        return;
                    }
                    match self.tenants.try_admit(tenant, bytes) {
                        Ok(()) => self.dispatch(slot, req, 0),
                        Err(wait_ns) => {
                            self.park_request(slot, req, tenant, bytes, wait_ns, decoded_at);
                        }
                    }
                }
                Ok(None) => {
                    if let Some(Some(conn)) = self.conns.get_mut(slot) {
                        conn.eof = true;
                        conn.readable = false;
                        if conn.outbuf.is_empty() && conn.inflight == 0 {
                            conn.dead = true;
                        }
                    }
                    return;
                }
                Err(WireError::Io(e))
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    if let Some(Some(conn)) = self.conns.get_mut(slot) {
                        conn.readable = false;
                        let buffered = conn.reader.buffered();
                        if buffered != conn.buffered_prev {
                            // Partial-frame progress counts as
                            // activity (slow-sender grace).
                            conn.last_activity = Instant::now();
                            conn.buffered_prev = buffered;
                        }
                    }
                    return;
                }
                Err(WireError::Io(e)) if e.kind() != io::ErrorKind::UnexpectedEof => {
                    if let Some(Some(conn)) = self.conns.get_mut(slot) {
                        conn.dead = true;
                    }
                    return;
                }
                Err(_) => {
                    // Malformed frame — including a clean half-close
                    // midway through one (the reader's UnexpectedEof):
                    // the stream is desynced. Answer once, flush, close.
                    let _ =
                        wire::response_frame_into(&mut self.head_frame, 0, Status::BadRequest, 0);
                    if let Some(Some(conn)) = self.conns.get_mut(slot) {
                        conn.outbuf.extend_from_slice(&self.head_frame);
                        conn.close_after_flush = true;
                        conn.readable = false;
                    }
                    self.try_flush_conn(slot);
                    return;
                }
            }
        }
    }

    // -- request dispatch ---------------------------------------------

    fn dispatch(&mut self, slot: usize, req: Request, queue_ns: u64) {
        match req.op {
            Op::Read | Op::Write | Op::Trim => self.dispatch_data(slot, req, queue_ns),
            Op::Flush => self.dispatch_flush(slot, req, queue_ns),
            // Everything else may block (volume-table writes, rebuild
            // admission, snapshot encoding): hand it to the control
            // thread. The engine does its own access accounting there.
            _ => self.dispatch_control(slot, req, queue_ns),
        }
    }

    /// Split `resolved` into owner chunks in `self.chunks`.
    fn chunk_resolved(&mut self, resolved: &Resolved) {
        let unit = self.engine.unit_bytes();
        self.chunks.clear();
        let mut seg_base = 0usize;
        for seg in resolved.segments.iter() {
            let mut start = 0u64;
            let mut owner = owner_of(self.engine.stripe_of(seg.phys), self.nshards);
            for u in 1..seg.units {
                let o = owner_of(self.engine.stripe_of(seg.phys + u), self.nshards);
                if o != owner {
                    self.chunks.push(Chunk {
                        owner,
                        phys: seg.phys + start,
                        units: u - start,
                        byte_off: seg_base + start as usize * unit,
                    });
                    start = u;
                    owner = o;
                }
            }
            self.chunks.push(Chunk {
                owner,
                phys: seg.phys + start,
                units: seg.units - start,
                byte_off: seg_base + start as usize * unit,
            });
            seg_base += seg.units as usize * unit;
        }
    }

    fn client_of(&self, slot: usize) -> u32 {
        self.conns
            .get(slot)
            .and_then(|c| c.as_ref())
            .map_or(0, |c| c.client)
    }

    /// A fresh job for `req` from the connection in `slot`, counted in
    /// `server.jobs_inflight` until `complete`.
    fn new_job(
        &mut self,
        slot: usize,
        req: Request,
        span: Option<AccessSpan>,
        queue_ns: u64,
    ) -> (u64, Job) {
        let gen = match self.conns.get(slot) {
            Some(Some(c)) => c.gen,
            _ => 0,
        };
        let id = self.next_job;
        self.next_job += 1;
        self.shared.jobs_inflight.fetch_add(1, Ordering::Relaxed);
        let job = Job {
            slot,
            gen,
            req,
            span,
            queue_ns,
            frame: Vec::new(),
            payload_bytes: 0,
            remaining: 0,
            status: Status::Ok,
            resolved: None,
        };
        (id, job)
    }

    /// Park `job` in `jobs` until its outstanding results arrive — or,
    /// with none outstanding, finish it now: a job that completes
    /// inside its dispatch never enters the map.
    fn join_or_finalize(&mut self, id: u64, job: Job) {
        if job.remaining == 0 {
            self.finalize_job(job);
        } else {
            self.jobs.insert(id, job);
        }
    }

    /// Every READ, WRITE and TRIM: resolve, cut into owner chunks, run
    /// the local ones here and ship the rest to their owners.
    fn dispatch_data(&mut self, slot: usize, req: Request, queue_ns: u64) {
        let prepared = self.engine.prepare(&req);
        let client = self.client_of(slot);
        let span = self.engine.begin_access();
        let (id, mut job) = self.new_job(slot, req, Some(span), queue_ns);
        let (resolved, bytes) = match prepared {
            Ok(v) => v,
            Err(status) => {
                job.status = status;
                return self.finalize_job(job);
            }
        };
        self.chunk_resolved(&resolved);
        job.resolved = Some(resolved);
        if job.req.op == Op::Read {
            // A READ's frame is the shard's kept `read_frame`: chunks
            // land in it in place, `complete` hands it to the
            // connection, and once it is sent it comes back with its
            // bytes. So a warm all-local READ allocates nothing,
            // zero-fills nothing and copies its payload once, array to
            // frame. Every byte of the payload is a chunk's: the frame
            // is sent only if every chunk succeeded.
            job.frame = std::mem::take(&mut self.read_frame);
            let _ = wire::response_frame_into(&mut job.frame, job.req.id, Status::Ok, bytes);
            job.payload_bytes = bytes;
        }
        let unit = self.engine.unit_bytes();
        let chunks = std::mem::take(&mut self.chunks);
        job.remaining = chunks.len();
        for c in &chunks {
            let local = c.owner == self.id;
            let (phys, len) = (c.phys, c.units as usize * unit);
            let kind = match job.req.op {
                Op::Read => SubKind::Read { phys, bytes: len },
                Op::Write => SubKind::Write {
                    phys,
                    data: if local {
                        WriteData::InJob {
                            at: c.byte_off,
                            len,
                        }
                    } else {
                        WriteData::Copied(job.req.payload[c.byte_off..c.byte_off + len].to_vec())
                    },
                },
                _ => SubKind::Trim {
                    phys,
                    units: c.units,
                },
            };
            let sub = Sub {
                origin: self.id,
                client,
                job: id,
                frame_off: RESPONSE_HEADER_LEN + c.byte_off,
                kind,
            };
            if local {
                self.execute_chunk(sub, Some(&mut job));
            } else {
                self.send(c.owner, ShardMsg::Sub(sub));
            }
        }
        self.chunks = chunks;
        self.join_or_finalize(id, job);
    }

    /// FLUSH is a job with no chunks, answered at once. Rule 1 parked
    /// it until every earlier frame of its connection was answered, and
    /// a WRITE is answered only once its tick batch is in the array.
    fn dispatch_flush(&mut self, slot: usize, req: Request, queue_ns: u64) {
        let span = self.engine.begin_access();
        let (_, job) = self.new_job(slot, req, Some(span), queue_ns);
        self.finalize_job(job);
    }

    fn dispatch_control(&mut self, slot: usize, req: Request, queue_ns: u64) {
        // The payload travels with the control thread's copy; the job
        // keeps the header for delivery.
        let header = Request {
            id: req.id,
            op: req.op,
            volume: req.volume,
            offset: req.offset,
            length: req.length,
            payload: Vec::new(),
        };
        let (id, mut job) = self.new_job(slot, header, None, queue_ns);
        let ctl = ControlJob {
            origin: self.id,
            job: id,
            queue_ns,
            req,
        };
        if self.ctl_tx.send(ctl).is_ok() {
            job.remaining = 1;
        } else {
            // Control thread gone (shutdown): answer what we can.
            job.status = Status::Shutdown;
        }
        self.join_or_finalize(id, job);
    }

    // -- the tick batch -----------------------------------------------

    /// Submit the tick batch — every WRITE chunk this shard took in
    /// since the last flush, decoded here or taken from the inbox — as
    /// one `shard_write_batch_into`, then answer each chunk's origin.
    /// The only route from a served WRITE to the array.
    fn flush_write_batch(&mut self) {
        if self.wbatch.is_empty() {
            return;
        }
        let mut wbatch = std::mem::take(&mut self.wbatch);
        // (phys, bytes) pairs across the batch, in arrival order.
        let mut ops = reuse_allocation(std::mem::take(&mut self.wops));
        for w in &wbatch {
            let data = match &w.data {
                WriteData::Copied(bytes) => &bytes[..],
                WriteData::InJob { at, len } => {
                    let job = self.jobs.get(&w.job);
                    let job = job.expect("a job with a chunk pending stays in `jobs`");
                    &job.req.payload[*at..*at + *len]
                }
            };
            ops.push((w.phys, data));
        }
        // The results borrow the scratch while `join_done`/`send` need
        // `self`: lend it out for the batch (a move, no allocation).
        let mut scratch = std::mem::take(&mut self.wscratch);
        let results = self.engine.shard_write_batch_into(&ops, &mut scratch);
        self.wops = reuse_allocation(ops);
        // Rule 3: the acks this batch completes are queued, then each
        // touched connection is sent once.
        self.defer_acks = true;
        for (w, res) in wbatch.drain(..).zip(results) {
            let done = Done {
                job: w.job,
                frame_off: 0,
                payload: res.as_ref().map(|()| Vec::new()).map_err(status_of),
            };
            if w.origin == self.id {
                self.join_done(done);
            } else {
                self.send(w.origin, ShardMsg::Done(done));
            }
        }
        self.defer_acks = false;
        self.wscratch = scratch;
        // Answering runs no chunk, so nothing joined the batch meanwhile.
        debug_assert!(self.wbatch.is_empty(), "a chunk joined a flushing batch");
        self.wbatch = wbatch;
        let mut acked = std::mem::take(&mut self.acked);
        acked.sort_unstable();
        acked.dedup();
        for &slot in &acked {
            self.try_flush_conn(slot);
        }
        acked.clear();
        self.acked = acked;
    }

    // -- inbox plumbing -----------------------------------------------

    /// Send `msg` to a peer's inbox; its doorbell rings at the end of
    /// the tick, once however many messages it got.
    fn send(&mut self, dest: usize, msg: ShardMsg) {
        debug_assert_ne!(dest, self.id, "self-send on shard {}", self.id);
        // Fails only once the peer has exited, at shutdown.
        if self.shared.inboxes[dest].send(msg).is_ok() {
            self.signal[dest] = true;
        }
    }

    fn ring_doorbells(&mut self) {
        for dest in 0..self.nshards {
            if self.signal[dest] {
                self.signal[dest] = false;
                self.shared.wake(dest);
            }
        }
    }

    // -- writes, timeouts, cleanup ------------------------------------

    fn try_flush_conn(&mut self, slot: usize) {
        let Some(Some(conn)) = self.conns.get_mut(slot) else {
            return;
        };
        if conn.dead {
            return;
        }
        let mut progressed = false;
        while conn.out_pos < conn.outbuf.len() {
            match conn.stream.write(&conn.outbuf[conn.out_pos..]) {
                Ok(0) => {
                    conn.dead = true;
                    return;
                }
                Ok(n) => {
                    conn.out_pos += n;
                    progressed = true;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    if progressed || conn.write_stalled.is_none() {
                        conn.write_stalled = Some(Instant::now());
                    }
                    if !conn.want_write {
                        conn.want_write = true;
                        let _ = self.epoll.modify(
                            conn.stream.as_raw_fd(),
                            EPOLLIN | EPOLLOUT | EPOLLRDHUP | EPOLLET,
                            slot as u64,
                        );
                    }
                    return;
                }
                Err(_) => {
                    conn.dead = true;
                    return;
                }
            }
        }
        // A sent frame is kept with its bytes when more of it is
        // initialized than of the READ frame the shard holds.
        if conn.outbuf.len() > self.read_frame.len() {
            std::mem::swap(&mut conn.outbuf, &mut self.read_frame);
        }
        conn.outbuf.clear();
        conn.out_pos = 0;
        conn.write_stalled = None;
        if conn.want_write {
            conn.want_write = false;
            let _ = self.epoll.modify(
                conn.stream.as_raw_fd(),
                EPOLLIN | EPOLLRDHUP | EPOLLET,
                slot as u64,
            );
        }
        if (conn.close_after_flush || conn.eof) && conn.inflight == 0 {
            conn.dead = true;
        }
    }

    /// Reap dead/expired connections and refresh the scrape counters.
    fn sweep(&mut self) {
        let now = Instant::now();
        for slot in 0..self.conns.len() {
            let reap = {
                let Some(Some(conn)) = self.conns.get_mut(slot) else {
                    continue;
                };
                if !conn.dead {
                    if let Some(stalled) = conn.write_stalled {
                        if now.duration_since(stalled) >= self.write_timeout {
                            conn.dead = true;
                        }
                    }
                }
                if !conn.dead
                    && conn.inflight == 0
                    && conn.outbuf.is_empty()
                    && now.duration_since(conn.last_activity) >= self.idle_timeout
                {
                    conn.dead = true;
                }
                conn.dead
            };
            if reap {
                let conn = self.conns[slot].take().expect("checked above");
                if conn.parked.is_some() {
                    self.parked_count -= 1;
                }
                let _ = self.epoll.delete(conn.stream.as_raw_fd());
                drop(conn);
                self.free.push(slot);
            }
        }
        let st = &self.shared.stats[self.id];
        st.queued.store(self.parked_count as u64, Ordering::Relaxed);
        st.wakeups.store(self.wakeups, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn owner_partitions_stripe_groups_stably() {
        // Within one group the owner never changes...
        for s in 0..STRIPE_GROUP {
            assert_eq!(owner_of(s, 4), owner_of(0, 4));
        }
        // ...across groups it rotates round-robin...
        for g in 0..16u64 {
            assert_eq!(owner_of(g * STRIPE_GROUP, 4), (g % 4) as usize);
        }
        // ...and a single shard owns everything.
        for s in 0..200 {
            assert_eq!(owner_of(s, 1), 0);
        }
    }

    #[test]
    fn accept_backoff_classifier_matches_exhaustion_errnos() {
        // ENOMEM, ENFILE, EMFILE back off...
        for errno in [12, 23, 24] {
            assert!(accept_should_backoff(&io::Error::from_raw_os_error(errno)));
        }
        // ...ECONNABORTED (103), EINTR (4), EBADF (9) do not.
        for errno in [103, 4, 9] {
            assert!(!accept_should_backoff(&io::Error::from_raw_os_error(errno)));
        }
        assert!(!accept_should_backoff(&io::Error::other("synthetic")));
    }
}
