//! The concurrency engine: executes decoded requests against a pool of
//! [`DeclusteredArray`]s carved into logical volumes, with
//! stripe-granular locking and per-tenant QoS accounting.
//!
//! # Volumes and the pool
//!
//! The engine owns one or more arrays (all sharing a unit size) and a
//! [`VolumeManager`] that maps `(volume, offset, units)` onto physical
//! unit runs. Every data op resolves through the manager first; volume
//! 0 spans array 0 at construction, so a pre-volume client that always
//! sends zero flags behaves exactly as before. Disk-addressed ops
//! (`FAIL_DISK`, `REBUILD`, `replace_disk`) take a *global* disk index:
//! disks number across the pool in array order.
//!
//! # Locking model
//!
//! Each array is `Send + Sync`, but it documents one caller invariant:
//! two writes touching the *same stripe* must not overlap (the parity
//! read-modify-write would race). The engine enforces that per array
//! with two layers:
//!
//! * each array lives behind a plain `Arc` plus a `quiesce: RwLock<()>`
//!   — client I/O on the in-process path ([`Engine::execute`] and its
//!   frame variants: the runtime's control thread, tests, benchmarks)
//!   holds the **read** side (so any number of ops run concurrently),
//!   lifecycle ops (`scrub`,
//!   `recover`, `replace_disk`, `arm_crash`) take the **write** side and
//!   therefore see a quiesced array. The thread-per-core runtime's
//!   shard threads take *neither*: stripe ownership serializes
//!   same-stripe ops by construction, and lifecycle ops first park
//!   every shard through the registered runtime pauser (see
//!   [`Engine::set_runtime_pauser`]) before taking the write side, so
//!   the exclusion shard threads would get from the lock they get from
//!   being parked;
//! * a fixed table of stripe shard locks — each I/O computes the set of
//!   `stripe % shards` indices its range touches and acquires them in
//!   ascending order (total order ⇒ no deadlock). Writes to distinct
//!   stripes proceed in parallel; writes that collide on a stripe (or a
//!   shard) serialize. Reads take the same locks so a degraded-mode
//!   reconstruction never observes a half-written stripe. Runtime shard
//!   threads skip this table too — *except* while a rebuild is running,
//!   whose worker batches hold stripe locks and are the one writer that
//!   stripe ownership cannot order (`do_rebuild` parks the shards once
//!   after flipping the state so no lock-free op is still in flight).
//!
//! Every acquisition made through the engine's lock helpers bumps a
//! process-wide counter ([`lock_acquisitions`]); the healthy-READ
//! proof test asserts the shard-exec path's delta is exactly zero.
//!
//! A request resolving to several physical segments locks and serves
//! them one segment at a time (lock, I/O, release, next), so no op ever
//! holds locks on two arrays at once — there is no cross-array deadlock
//! to order around. The cost is that a multi-segment op is atomic per
//! segment, not end to end; single-extent volumes (the common case on a
//! fresh pool) keep whole-op atomicity.
//!
//! # Online rebuild
//!
//! `REBUILD` no longer quiesces the array for the whole reconstruction.
//! The request validates and creates a resumable
//! [`RebuildTicket`] synchronously (typed
//! errors still come back immediately), then a dedicated background
//! thread steps it in bounded batches. Each batch holds only the array
//! **read** lock plus the shard locks covering that batch's stripes —
//! exactly the locks a client write to those stripes would take — so
//! client I/O keeps flowing between (and alongside) batches, stalling
//! only on a genuine stripe collision for one batch at most. Batch size
//! and an optional stripes/sec rate limit come from [`RebuildConfig`];
//! progress is published through atomics and served lock-free by
//! `REBUILD_STATUS`.
//!
//! # Write commit
//!
//! The engine has no commit stage: a WRITE segment goes straight
//! through the array's batched journal path (a lone `write` is a
//! `write_batch` of one) and is in the array when the call returns, so
//! `FLUSH` has nothing engine-side to drain. Coalescing happens one
//! layer up: the runtime hands every WRITE chunk a shard took in during
//! one tick — decoded there or routed from a peer — to
//! [`Engine::shard_write_batch_into`] as one batch.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock, RwLockReadGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use pddl_array::{ArrayError, ArrayMode, DeclusteredArray, RebuildTicket, WriteScratch};
use pddl_obs::{Actor, Event, OpKind, OpRecord, SyncSharedSink, Telemetry, TelemetrySnapshot};
use pddl_volume::{
    Resolved, TenantLimits, TenantRegistry, VolumeError, VolumeManager, VolumeSpec, REBUILD_TENANT,
};

use crate::wire::{
    self, Op, PoolArrayInfo, PoolInfo, RebuildState, RebuildStatus, Request, Response, Status,
    VolumeInfo, MAX_PAYLOAD, RESPONSE_HEADER_LEN,
};

/// Default number of stripe shard locks.
pub const DEFAULT_SHARDS: usize = 64;

/// Telemetry shards per engine. Recording threads (runtime shards, the
/// control thread, in-process callers) map onto telemetry shards
/// round-robin; more threads than shards just share (still lock-free),
/// so this only needs to cover the common shard counts.
const TELEMETRY_SHARDS: usize = 8;

/// The telemetry [`OpKind`] for a wire op.
fn op_kind(op: Op) -> OpKind {
    match op {
        Op::Read => OpKind::Read,
        Op::Write => OpKind::Write,
        Op::Flush => OpKind::Flush,
        Op::Trim => OpKind::Trim,
        Op::Info => OpKind::Info,
        Op::FailDisk => OpKind::FailDisk,
        Op::Rebuild => OpKind::Rebuild,
        Op::RebuildStatus => OpKind::RebuildStatus,
        Op::Stats => OpKind::Stats,
        Op::TraceDump => OpKind::TraceDump,
        Op::VolumeCreate => OpKind::VolumeCreate,
        Op::VolumeDelete => OpKind::VolumeDelete,
        Op::VolumeResize => OpKind::VolumeResize,
        Op::VolumeList => OpKind::VolumeList,
        Op::PoolInfo => OpKind::PoolInfo,
    }
}

/// Shape `frame` into a payload-less response (header only) for `id`
/// with `status`.
fn set_header_frame(frame: &mut Vec<u8>, id: u64, status: Status) {
    wire::response_frame_into(frame, id, status, 0)
        .expect("header-only frame is under the payload cap");
}

pub(crate) fn status_of(e: &ArrayError) -> Status {
    match e {
        ArrayError::BadAddress => Status::BadAddress,
        ArrayError::Unrecoverable { .. } => Status::Unrecoverable,
        ArrayError::NoSpareSpace => Status::NoSpareSpace,
        ArrayError::SpareUnavailable => Status::SpareUnavailable,
        ArrayError::WrongDiskState => Status::WrongDiskState,
        ArrayError::Disk(_) => Status::DiskError,
        ArrayError::Codec(_) => Status::CodecError,
        // A layout that lies about sparing is a server-side defect, not
        // a client error.
        ArrayError::SpareMissing { .. } => Status::Internal,
        // The crash hook is a test-only fault injection; a server hitting
        // it is an internal failure, not a client error.
        ArrayError::InjectedCrash => Status::Internal,
        ArrayError::MediaError { .. } => Status::MediaError,
    }
}

/// Process-wide count of every mutex / rwlock acquisition made through
/// the engine's lock helpers. Purely diagnostic: the zero-lock proof
/// test samples it around a healthy shard-exec READ and asserts the
/// delta is zero, so a lock quietly reintroduced on that path fails a
/// test instead of silently serializing the runtime.
static LOCK_ACQUISITIONS: AtomicU64 = AtomicU64::new(0);

/// Engine-layer lock acquisitions since process start: every
/// acquisition made through the engine's lock helpers bumps it.
/// Monotone; meaningful only as a delta.
pub fn lock_acquisitions() -> u64 {
    LOCK_ACQUISITIONS.load(Ordering::Relaxed)
}

fn lock<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    LOCK_ACQUISITIONS.fetch_add(1, Ordering::Relaxed);
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn rdlock<T: ?Sized>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    LOCK_ACQUISITIONS.fetch_add(1, Ordering::Relaxed);
    l.read().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn wrlock<T: ?Sized>(l: &RwLock<T>) -> std::sync::RwLockWriteGuard<'_, T> {
    LOCK_ACQUISITIONS.fetch_add(1, Ordering::Relaxed);
    l.write().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Map a volume-layer failure onto a wire status.
pub(crate) fn status_of_volume(e: VolumeError) -> Status {
    match e {
        VolumeError::NotFound => Status::VolumeNotFound,
        VolumeError::OutOfRange => Status::BadAddress,
        VolumeError::NoCapacity | VolumeError::TooManyVolumes => Status::NoCapacity,
        VolumeError::BadSpec | VolumeError::DefaultVolume => Status::BadRequest,
    }
}

/// The tenant limits a volume spec asks for.
fn limits_of(spec: &VolumeSpec) -> TenantLimits {
    TenantLimits {
        ops_per_sec: spec.ops_per_sec,
        bytes_per_sec: spec.bytes_per_sec,
        weight: spec.weight.max(1),
    }
}

/// Knobs for the background incremental rebuild.
#[derive(Debug, Clone, Copy)]
pub struct RebuildConfig {
    /// Stripes repaired per exclusive batch (minimum 1). Smaller batches
    /// mean shorter client stalls on colliding stripes; larger batches
    /// amortize lock traffic.
    pub batch: u64,
    /// Rate limit in stripes per second; `0.0` means unthrottled.
    pub rate: f64,
}

impl Default for RebuildConfig {
    fn default() -> Self {
        Self {
            batch: 32,
            rate: 0.0,
        }
    }
}

const REBUILD_NONE: u8 = 0;
const REBUILD_RUNNING: u8 = 1;
const REBUILD_DONE: u8 = 2;
const REBUILD_FAILED: u8 = 3;
const REBUILD_PAUSED: u8 = 4;

/// Background-rebuild control block: lock-free progress for the status
/// op, plus the worker handle behind a mutex that also serializes
/// start/stop decisions.
///
/// # Memory ordering
///
/// `repaired ≤ total` must never be observed violated, even while one
/// rebuild generation replaces another. Two rules guarantee it:
///
/// * **Within a generation** the worker only moves `repaired` forward
///   (`Release` stores) and never past the generation's fixed `total`,
///   so any interleaving of `Acquire` loads is consistent.
/// * **Across generations** `do_rebuild` brackets its re-initialization
///   of `disk`/`repaired`/`total`/`state` with a seqlock-style `gen`
///   counter: odd while the fields are mid-rewrite, bumped to the next
///   even value (`Release`) once they are coherent again. A reader that
///   observes an odd `gen`, or a `gen` change across its field loads,
///   retries instead of returning a value pair that straddles the
///   transition (e.g. the old generation's `repaired` with a new,
///   smaller `total`).
struct RebuildCtl {
    /// Worker thread handle; the guard also makes REBUILD-vs-REBUILD
    /// races impossible (check state + spawn under one lock).
    slot: Mutex<Option<JoinHandle<()>>>,
    /// Generation seqlock: odd ⇒ `do_rebuild` is re-initializing the
    /// fields below; bumped with `Release` so an even value read with
    /// `Acquire` makes the whole re-initialization visible.
    gen: AtomicU64,
    /// Lifecycle (`REBUILD_*`). The worker's terminal store is
    /// `Release`, after its last `repaired` store, so a reader that
    /// `Acquire`-loads `Done` also sees the final progress.
    state: AtomicU8,
    /// Target disk; written only inside the `gen` bracket.
    disk: AtomicU32,
    /// Stripes repaired. `Release`-stored by the worker after each
    /// batch; monotone within a generation and never exceeds `total`.
    repaired: AtomicU64,
    /// Stripes this generation set out to repair; constant between
    /// `gen` brackets.
    total: AtomicU64,
    /// Stop request for the worker (`Release` store, `Acquire` load).
    stop: AtomicBool,
}

impl RebuildCtl {
    fn new() -> Self {
        Self {
            slot: Mutex::new(None),
            gen: AtomicU64::new(0),
            state: AtomicU8::new(REBUILD_NONE),
            disk: AtomicU32::new(0),
            repaired: AtomicU64::new(0),
            total: AtomicU64::new(0),
            stop: AtomicBool::new(false),
        }
    }
}

/// One pool member: the array plus its private stripe-shard lock
/// table. Lock tables are per array — stripe indices are array-local,
/// so sharing a table across arrays would only manufacture false
/// collisions.
struct ArrayShard {
    /// The array itself is reachable lock-free (all client I/O entry
    /// points take `&self`); `quiesce` below provides the exclusion
    /// lifecycle ops need.
    array: Arc<DeclusteredArray>,
    /// Quiesce gate: in-process client I/O and the rebuild worker hold
    /// the read side across each op/batch; lifecycle ops (scrub, recover,
    /// replace, arm_crash) hold the write side — after parking any
    /// runtime shards, which deliberately never touch this lock.
    quiesce: RwLock<()>,
    stripe_locks: Vec<Mutex<()>>,
}

/// State shared between request-serving threads and the rebuild thread.
struct Inner {
    /// The array pool, fixed at construction. All arrays share one unit
    /// size; disks index globally across the pool in array order.
    pool: Vec<ArrayShard>,
    /// Volume table and free-space accounting over the pool.
    volumes: VolumeManager,
    /// Tenant limits and token buckets, shared with the runtime's
    /// admission check (and charged directly by the rebuild worker).
    tenants: Arc<TenantRegistry>,
    /// Unit size shared by every array in the pool.
    unit_bytes: usize,
    /// Per-array disk counts, for global-disk-index translation without
    /// taking an array lock.
    disk_counts: Vec<u64>,
    obs: Mutex<Option<SyncSharedSink>>,
    /// Fast-path flag mirroring `obs.is_some()`: the per-request check
    /// is one `Relaxed` load instead of a shared mutex acquisition, so
    /// a server without an attached observer pays nothing per op.
    obs_attached: AtomicBool,
    /// The live telemetry plane — sharded atomics, recorded lock-free
    /// on every request, merged only when STATS / `/metrics` scrape.
    telemetry: Arc<Telemetry>,
    access_seq: AtomicU64,
    epoch: Instant,
    rebuild_batch: u64,
    /// Stripes/sec rate limit as `f64` bits, so a throttle change (from
    /// an admin or a chaos nemesis) lands mid-rebuild without restarting
    /// the worker. `0.0` means unthrottled.
    rebuild_rate_bits: AtomicU64,
    rebuild: RebuildCtl,
    /// Hook installed by the thread-per-core runtime: invoking it parks
    /// every shard thread at its loop boundary and returns a guard that
    /// resumes them on drop. Lifecycle ops call it *before* taking any
    /// `quiesce` write lock so in-flight lock-free shard ops are flushed
    /// without shard threads ever touching a lock themselves.
    pauser: Mutex<Option<RuntimePauser>>,
}

/// The hook [`Engine::set_runtime_pauser`] installs: invoking it
/// parks every shard thread at its loop boundary. The returned guard's
/// `Drop` resumes the shards.
pub type RuntimePauser = Box<dyn Fn() -> Box<dyn std::any::Any + Send> + Send + Sync>;

impl Inner {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn rebuild_rate(&self) -> f64 {
        f64::from_bits(self.rebuild_rate_bits.load(Ordering::Acquire))
    }

    fn emit(&self, event: Event) {
        // One relaxed load on the hot path; the mutex below is touched
        // only when an observer is actually attached.
        if !self.obs_attached.load(Ordering::Relaxed) {
            return;
        }
        let sink = lock(&self.obs).clone();
        if let Some(sink) = sink {
            // Recover a poisoned sink instead of silently dropping the
            // event — a panicked observer must not blind the metrics the
            // chaos checker reconciles against.
            let mut s = sink
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            let now = self.now_ns();
            s.event(now, event);
        }
    }

    /// Translate a global disk index into `(array, local disk)`.
    fn locate_disk(&self, global: u64) -> Option<(usize, usize)> {
        let mut base = 0u64;
        for (ai, &n) in self.disk_counts.iter().enumerate() {
            if global < base + n {
                return Some((ai, (global - base) as usize));
            }
            base += n;
        }
        None
    }
}

/// Sorted, deduplicated shard-lock indices covering the next `batch`
/// pending stripes of a rebuild.
fn rebuild_shard_set(locks: &[Mutex<()>], pending: &[u64], batch: u64) -> Vec<usize> {
    let shards = locks.len() as u64;
    let take = usize::try_from(batch.min(pending.len() as u64)).unwrap_or(pending.len());
    if take as u64 >= shards {
        return (0..locks.len()).collect();
    }
    let mut set: Vec<usize> = pending[..take]
        .iter()
        .map(|&stripe| (stripe % shards) as usize)
        .collect();
    set.sort_unstable();
    set.dedup();
    set
}

/// Sorted, deduplicated shard-lock indices for a unit range on one
/// array.
///
/// Work is bounded by the shard count, not the range length: a range of
/// at least `shards` units can collide with every shard, so it locks
/// the whole table instead of walking the units.
fn shard_set(a: &DeclusteredArray, locks: &[Mutex<()>], start: u64, units: u64) -> Vec<usize> {
    let shards = locks.len() as u64;
    if units >= shards {
        return (0..locks.len()).collect();
    }
    let mut set: Vec<usize> = (start..start.saturating_add(units))
        .map(|logical| {
            let (stripe, _) = a.layout().locate(logical);
            (stripe % shards) as usize
        })
        .collect();
    set.sort_unstable();
    set.dedup();
    set
}

/// Acquire, in ascending index order (one total order ⇒ no deadlock),
/// the stripe locks covering every `(start, units)` range on `shard`.
/// The union is deduplicated first, so each lock is taken once.
fn stripe_guards(
    shard: &ArrayShard,
    ranges: impl IntoIterator<Item = (u64, u64)>,
) -> Vec<MutexGuard<'_, ()>> {
    let mut set: Vec<usize> = Vec::new();
    for (start, units) in ranges {
        set.extend(shard_set(&shard.array, &shard.stripe_locks, start, units));
    }
    set.sort_unstable();
    set.dedup();
    set.into_iter()
        .map(|i| lock(&shard.stripe_locks[i]))
        .collect()
}

/// Zero-fill `units` units of `array` from `phys`, one `zeros`-sized
/// write at a time — TRIM's body on both the in-process and the
/// shard-exec path. Partial progress stands on error.
fn zero_fill(
    array: &DeclusteredArray,
    phys: u64,
    units: u64,
    zeros: &[u8],
    unit: usize,
) -> Result<(), ArrayError> {
    let chunk_units = (zeros.len() / unit).max(1) as u64;
    let mut done = 0u64;
    while done < units {
        let n = chunk_units.min(units - done);
        array.write(phys + done, &zeros[..n as usize * unit])?;
        done += n;
    }
    Ok(())
}

/// The background rebuild loop: one bounded, shard-locked batch per
/// iteration, with progress published after every batch. Rebuild I/O
/// is a first-class low-priority tenant: each batch is admitted
/// through the shared registry as [`REBUILD_TENANT`] before touching
/// the array, so an operator cap on rebuild bytes/s (or ops/s) slows
/// reconstruction exactly like any rate-limited client.
fn rebuild_worker(inner: Arc<Inner>, array_idx: usize, mut ticket: RebuildTicket) {
    let shard = &inner.pool[array_idx];
    let batch = inner.rebuild_batch.max(1);
    let batch_bytes = batch.saturating_mul(inner.unit_bytes as u64);
    let mut prev = ticket.repaired();
    let final_state = loop {
        if inner.rebuild.stop.load(Ordering::Acquire) {
            break REBUILD_PAUSED;
        }
        if !inner.tenants.admit(REBUILD_TENANT, batch_bytes, || {
            inner.rebuild.stop.load(Ordering::Acquire)
        }) {
            break REBUILD_PAUSED;
        }
        let started = Instant::now();
        let outcome = {
            let _q = rdlock(&shard.quiesce);
            // Hold only the shard locks this batch's stripes hash to:
            // a client op collides for at most one batch, everything
            // else proceeds untouched.
            let _guards: Vec<_> =
                rebuild_shard_set(&shard.stripe_locks, ticket.pending_stripes(), batch)
                    .into_iter()
                    .map(|i| lock(&shard.stripe_locks[i]))
                    .collect();
            shard.array.rebuild_step(&mut ticket, batch)
        };
        inner
            .rebuild
            .repaired
            .store(ticket.repaired(), Ordering::Release);
        inner.emit(Event::RebuildBatch {
            stripes: ticket.repaired() - prev,
            duration_ns: started.elapsed().as_nanos() as u64,
        });
        prev = ticket.repaired();
        match outcome {
            Ok(p) if p.done => break REBUILD_DONE,
            Ok(_) => {}
            Err(_) => break REBUILD_FAILED,
        }
        // Re-read the rate each batch: throttle changes apply live.
        let rate = inner.rebuild_rate();
        if rate > 0.0 {
            // Sleep off the batch's rate budget in short slices so a
            // shutdown request is honored promptly.
            let mut left = Duration::from_secs_f64(batch as f64 / rate);
            while !left.is_zero() && !inner.rebuild.stop.load(Ordering::Acquire) {
                let slice = left.min(Duration::from_millis(25));
                std::thread::sleep(slice);
                left = left.saturating_sub(slice);
            }
        }
    };
    inner.rebuild.state.store(final_state, Ordering::Release);
}

/// Shared request executor; one per served pool, shared by all serving
/// threads via `Arc`.
pub struct Engine {
    inner: Arc<Inner>,
}

/// An open observability bracket for one request: returned by
/// [`Engine::begin_access`], consumed by [`Engine::end_access`]. The
/// runtime carries it alongside a routed job so the recorded span
/// covers routing + owner execution, not just the final frame write.
#[derive(Debug)]
pub struct AccessSpan {
    access: u64,
    start_ns: u64,
    started: Instant,
}

impl Engine {
    /// Wrap an array with [`DEFAULT_SHARDS`] stripe shard locks.
    pub fn new(array: DeclusteredArray) -> Self {
        Self::with_shards(array, DEFAULT_SHARDS)
    }

    /// Wrap an array with an explicit shard count (minimum 1). More
    /// shards → fewer false write collisions; the table is fixed at
    /// construction so the memory cost is `shards` mutexes total.
    pub fn with_shards(array: DeclusteredArray, shards: usize) -> Self {
        Self::with_config(array, shards, RebuildConfig::default())
    }

    /// Wrap an array with explicit shard count and rebuild knobs.
    pub fn with_config(array: DeclusteredArray, shards: usize, rebuild: RebuildConfig) -> Self {
        Self::with_pool(vec![array], shards, rebuild)
    }

    /// Wrap a pool of arrays. Every array gets its own `shards`-entry
    /// stripe-lock table; volume 0 is created spanning all of array 0.
    ///
    /// # Panics
    ///
    /// If the pool is empty or the arrays disagree on unit size.
    pub fn with_pool(arrays: Vec<DeclusteredArray>, shards: usize, rebuild: RebuildConfig) -> Self {
        assert!(!arrays.is_empty(), "empty array pool");
        let unit_bytes = arrays[0].unit_bytes();
        assert!(
            arrays.iter().all(|a| a.unit_bytes() == unit_bytes),
            "pool arrays must share one unit size"
        );
        let capacities: Vec<u64> = arrays
            .iter()
            .map(DeclusteredArray::capacity_units)
            .collect();
        let disk_counts: Vec<u64> = arrays.iter().map(|a| a.layout().disks() as u64).collect();
        let tenants = Arc::new(TenantRegistry::new());
        // Volume 0's tenant and the rebuild tenant exist for the life of
        // the engine, both unlimited until an operator retunes them.
        tenants.register(0, TenantLimits::default());
        tenants.register(REBUILD_TENANT, TenantLimits::default());
        // Startup journal replay: a restarted server handed an array
        // with outstanding write intents (a previous process died
        // mid-update) must close the write hole *before* serving I/O.
        // Replay needs every disk readable, so a degraded array keeps
        // its intents for a later `recover` after repair; replay errors
        // likewise leave the intents outstanding rather than aborting
        // construction.
        for array in &arrays {
            if !array.outstanding_intents().is_empty() && array.mode() == ArrayMode::FaultFree {
                let _ = array.recover();
            }
        }
        let pool = arrays
            .into_iter()
            .map(|array| ArrayShard {
                array: Arc::new(array),
                quiesce: RwLock::new(()),
                stripe_locks: (0..shards.max(1)).map(|_| Mutex::new(())).collect(),
            })
            .collect();
        Self {
            inner: Arc::new(Inner {
                pool,
                volumes: VolumeManager::new(&capacities),
                tenants,
                unit_bytes,
                disk_counts,
                obs: Mutex::new(None),
                obs_attached: AtomicBool::new(false),
                telemetry: Arc::new(Telemetry::new(TELEMETRY_SHARDS)),
                access_seq: AtomicU64::new(0),
                epoch: Instant::now(),
                rebuild_batch: rebuild.batch,
                rebuild_rate_bits: AtomicU64::new(rebuild.rate.to_bits()),
                rebuild: RebuildCtl::new(),
                pauser: Mutex::new(None),
            }),
        }
    }

    /// Attach an observer sink; `AccessStart`/`AccessEnd` spans are
    /// emitted per request with wall-clock timestamps, so the observer's
    /// `latency.access_ns` histogram captures server-side service time.
    pub fn attach_observer(&mut self, sink: SyncSharedSink) {
        *lock(&self.inner.obs) = Some(sink);
        // Release pairs with the hot path's load: once a worker sees
        // the flag, the sink behind the mutex is in place.
        self.inner.obs_attached.store(true, Ordering::Release);
    }

    /// The live telemetry plane — for the server to register scrape-time
    /// gauges, benchmarks to toggle recording, and exporters to merge.
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.inner.telemetry
    }

    /// Shard count per array (for tests and metrics).
    pub fn shards(&self) -> usize {
        self.inner.pool[0].stripe_locks.len()
    }

    /// Bytes per stripe unit — the I/O granularity of every array in
    /// the pool (constructors enforce a uniform unit size).
    pub fn unit_bytes(&self) -> usize {
        self.inner.unit_bytes
    }

    /// The volume table and free-space accounting.
    pub fn volumes(&self) -> &VolumeManager {
        &self.inner.volumes
    }

    /// The shared tenant registry: the runtime admits each decoded
    /// frame against it, operators retune limits through it.
    pub fn tenants(&self) -> &Arc<TenantRegistry> {
        &self.inner.tenants
    }

    /// Classify a request for admission: `(tenant, payload bytes)` —
    /// whose token bucket pays, and how much. Ops that
    /// don't address a volume (and ops on dead volumes, which will fail
    /// fast in dispatch) charge tenant 0 at zero cost.
    ///
    /// The tenant is resolved at decode time and is deliberately not
    /// re-resolved at dispatch: if the volume is deleted and its id
    /// reused while the op is parked awaiting tokens, the op is charged
    /// against the tenant that owned the volume when the request
    /// arrived, then fails (or executes) against the volume table as it
    /// stands at dispatch. Mis-charging one parked request is bounded
    /// and harmless.
    ///
    /// The charge is capped at [`MAX_PAYLOAD`]: a READ declaring more
    /// is rejected with `BadRequest` at dispatch, and a legitimately
    /// larger TRIM must not carry a cost the scheduler can never cover.
    pub fn admission(&self, req: &Request) -> (u32, u64) {
        let tenant = if req.op.takes_volume() {
            self.inner.volumes.tenant_of(req.volume).unwrap_or(0)
        } else {
            0
        };
        let bytes = match req.op {
            Op::Write => req.payload.len() as u64,
            Op::Read | Op::Trim => u64::from(req.length)
                .saturating_mul(self.inner.unit_bytes as u64)
                .min(u64::from(MAX_PAYLOAD)),
            _ => 0,
        };
        (tenant, bytes)
    }

    /// The current rebuild knobs (batch fixed at construction, rate
    /// possibly retuned since).
    pub fn rebuild_config(&self) -> RebuildConfig {
        RebuildConfig {
            batch: self.inner.rebuild_batch,
            rate: self.inner.rebuild_rate(),
        }
    }

    /// Retune the rebuild rate limit (stripes/sec; `0.0` unthrottles).
    /// Takes effect from the worker's next batch — no restart needed.
    pub fn set_rebuild_rate(&self, rate: f64) {
        self.inner
            .rebuild_rate_bits
            .store(rate.max(0.0).to_bits(), Ordering::Release);
    }

    /// Arm the crash hook on every array in the pool: after
    /// `after_writes` more physical unit writes, the next write fails
    /// with `InjectedCrash` and leaves journal intents outstanding —
    /// the chaos harness's torn-batch entry point. Quiesces each array
    /// (runtime pause + quiesce write lock) to set the hook.
    pub fn arm_crash(&self, after_writes: u64) {
        let _pause = self.pause_runtime();
        for shard in &self.inner.pool {
            let _q = wrlock(&shard.quiesce);
            shard.array.arm_crash(after_writes);
        }
    }

    /// Install the thread-per-core runtime's pause hook (see
    /// [`RuntimePauser`]). Lifecycle ops call it before quiescing;
    /// [`Engine::clear_runtime_pauser`] must be called before the
    /// runtime's shard threads exit.
    pub fn set_runtime_pauser(&self, p: RuntimePauser) {
        *lock(&self.inner.pauser) = Some(p);
    }

    /// Remove the runtime pause hook (runtime shutdown).
    pub fn clear_runtime_pauser(&self) {
        *lock(&self.inner.pauser) = None;
    }

    /// Park the runtime's shard threads (if a runtime is attached) for
    /// the lifetime of the returned guard. Holding the pauser lock
    /// across the park also serializes concurrent lifecycle ops'
    /// barriers, which is harmless: they serialize on the quiesce write
    /// locks anyway.
    fn pause_runtime(&self) -> Option<Box<dyn std::any::Any + Send>> {
        lock(&self.inner.pauser).as_ref().map(|p| p())
    }

    /// Geometry and failure state of the default volume 0 — the
    /// pre-volume `INFO` view, kept for single-volume callers.
    pub fn volume_info(&self) -> VolumeInfo {
        self.volume_info_for(0).expect("volume 0 always exists")
    }

    /// Geometry and failure state as seen by one volume: its own
    /// capacity, the pool's disks and health.
    ///
    /// # Errors
    ///
    /// [`VolumeError::NotFound`] for a dead id.
    pub fn volume_info_for(&self, volume: u8) -> Result<VolumeInfo, VolumeError> {
        let meta = self.inner.volumes.meta(volume)?;
        let (mode, failed) = self.pool_health();
        Ok(VolumeInfo {
            unit_bytes: self.inner.unit_bytes as u32,
            capacity_units: meta.capacity_units,
            disks: self.inner.disk_counts.iter().sum::<u64>() as u32,
            mode,
            failed,
        })
    }

    /// Pool-wide health: the worst per-array mode (degraded beats
    /// post-reconstruction beats fault-free) and failed disks as global
    /// indices.
    fn pool_health(&self) -> (u8, Vec<u32>) {
        let mut degraded = false;
        let mut post = false;
        let mut failed = Vec::new();
        let mut base = 0u64;
        for (ai, shard) in self.inner.pool.iter().enumerate() {
            let a = &shard.array;
            match a.mode() {
                ArrayMode::Degraded => degraded = true,
                ArrayMode::PostReconstruction => post = true,
                ArrayMode::FaultFree => {}
            }
            failed.extend(a.failed_disks().iter().map(|&d| (base + d as u64) as u32));
            base += self.inner.disk_counts[ai];
        }
        let mode = if degraded {
            1
        } else if post {
            2
        } else {
            0
        };
        (mode, failed)
    }

    /// Pool-level geometry: per-array capacity, free space, and health
    /// (failed disks here are *array-local* indices, per the wire doc).
    pub fn pool_info(&self) -> PoolInfo {
        let free = self.inner.volumes.free_units();
        let arrays = self
            .inner
            .pool
            .iter()
            .zip(free)
            .map(|(shard, free_units)| {
                let a = &shard.array;
                PoolArrayInfo {
                    disks: a.layout().disks() as u32,
                    capacity_units: a.capacity_units(),
                    free_units,
                    mode: match a.mode() {
                        ArrayMode::FaultFree => 0,
                        ArrayMode::Degraded => 1,
                        ArrayMode::PostReconstruction => 2,
                    },
                    failed: a.failed_disks().iter().map(|&d| d as u32).collect(),
                }
            })
            .collect();
        PoolInfo {
            unit_bytes: self.inner.unit_bytes as u32,
            volumes: self.inner.volumes.volume_count() as u16,
            arrays,
        }
    }

    /// Current rebuild progress, served from atomics (no array lock).
    ///
    /// The rebuild control block's `gen` seqlock makes the returned
    /// snapshot generation-coherent: `repaired ≤ total` always holds,
    /// and a `Done` state is only reported with its final counts.
    pub fn rebuild_status(&self) -> RebuildStatus {
        let r = &self.inner.rebuild;
        loop {
            // Acquire pairs with do_rebuild's closing Release bump: an
            // even generation implies its re-initialization is visible.
            let g1 = r.gen.load(Ordering::Acquire);
            if g1 & 1 == 1 {
                std::hint::spin_loop();
                continue;
            }
            // State first (Acquire pairs with the worker's terminal
            // Release store), so `Done` implies the final `repaired`.
            let state = match r.state.load(Ordering::Acquire) {
                REBUILD_RUNNING => RebuildState::Running,
                REBUILD_DONE => RebuildState::Done,
                REBUILD_FAILED => RebuildState::Failed,
                REBUILD_PAUSED => RebuildState::Paused,
                _ => RebuildState::None,
            };
            let status = RebuildStatus {
                disk: r.disk.load(Ordering::Acquire),
                state,
                repaired: r.repaired.load(Ordering::Acquire),
                total: r.total.load(Ordering::Acquire),
            };
            // Unchanged generation ⇒ every load above came from one
            // generation; within one the worker keeps repaired ≤ total.
            if r.gen.load(Ordering::Acquire) == g1 {
                debug_assert!(status.repaired <= status.total);
                return status;
            }
        }
    }

    /// Ask the rebuild thread (if any) to stop after its current batch
    /// and join it. Partial progress is kept; a later REBUILD resumes.
    pub fn stop_rebuild(&self) {
        self.inner.rebuild.stop.store(true, Ordering::Release);
        let handle = lock(&self.inner.rebuild.slot).take();
        if let Some(handle) = handle {
            let _ = handle.join();
        }
    }

    fn emit(&self, event: Event) {
        self.inner.emit(event);
    }

    /// Run a full parity scrub on every quiesced array (write lock: no
    /// client op or rebuild batch is mid-stripe while it runs). Returns
    /// the suspect stripes of all arrays concatenated in pool order
    /// (stripe ids are array-local).
    pub fn scrub(&self) -> Result<Vec<u64>, ArrayError> {
        let _pause = self.pause_runtime();
        let mut out = Vec::new();
        for shard in &self.inner.pool {
            let _q = wrlock(&shard.quiesce);
            out.extend(shard.array.scrub()?);
        }
        Ok(out)
    }

    /// Replay outstanding write-intent journal entries on every
    /// quiesced array; returns the total stripes repaired.
    pub fn recover(&self) -> Result<u64, ArrayError> {
        let _pause = self.pause_runtime();
        let mut total = 0;
        for shard in &self.inner.pool {
            let _q = wrlock(&shard.quiesce);
            total += shard.array.recover()?;
        }
        Ok(total)
    }

    /// Install a blank replacement in failed global `disk`'s slot and
    /// restore its contents to completion, quiesced. Returns units
    /// restored.
    pub fn replace_disk(&self, disk: usize) -> Result<u64, ArrayError> {
        let (ai, local) = self
            .inner
            .locate_disk(disk as u64)
            .ok_or(ArrayError::WrongDiskState)?;
        let _pause = self.pause_runtime();
        let shard = &self.inner.pool[ai];
        let _q = wrlock(&shard.quiesce);
        shard.array.replace_and_rebuild(local)
    }

    /// Stripes with outstanding write intents (torn by an injected
    /// fault mid-update; candidates for [`Engine::recover`]),
    /// concatenated across the pool.
    pub fn outstanding_intents(&self) -> Vec<u64> {
        let mut out = Vec::new();
        for shard in &self.inner.pool {
            let _q = rdlock(&shard.quiesce);
            out.extend(shard.array.outstanding_intents());
        }
        out
    }

    /// Record one completed request into the telemetry plane: per-op
    /// counters and latency, byte accounting, and a flight-recorder
    /// span. Lock-free and allocation-free (atomics only), so it is
    /// safe on the zero-alloc healthy-READ path.
    fn record_op(
        &self,
        req: &Request,
        status: Status,
        response_payload: usize,
        start_ns: u64,
        queue_ns: u64,
        service_ns: u64,
    ) {
        let ok = matches!(status, Status::Ok | Status::Accepted);
        let (bytes_read, bytes_written) = match req.op {
            Op::Read if ok => (response_payload as u64, 0),
            Op::Write => (0, req.payload.len() as u64),
            _ => (0, 0),
        };
        self.inner.telemetry.record(&OpRecord {
            id: req.id,
            op: op_kind(req.op),
            status: status.code(),
            ok,
            offset: req.offset,
            len: req.length,
            bytes_read,
            bytes_written,
            start_ns,
            queue_ns,
            array_ns: service_ns,
            total_ns: queue_ns.saturating_add(service_ns),
        });
    }

    /// Execute one request on behalf of `client`, producing the response
    /// to send back: [`Engine::execute_frame_into`] with the frame split
    /// into a [`Response`], so the two cannot diverge. Never panics;
    /// every failure maps to a status.
    pub fn execute(&self, client: u32, req: &Request) -> Response {
        let mut frame = Vec::new();
        self.execute_frame_into(client, req, &mut frame);
        Response {
            id: req.id,
            status: Status::from_code(frame[12]).unwrap_or(Status::Internal),
            payload: frame.split_off(RESPONSE_HEADER_LEN),
        }
    }

    /// Execute one request, producing the fully encoded response
    /// *frame* to send back in a caller-owned buffer, which is resized
    /// and overwritten in place. Reads are zero-copy: the frame is
    /// sized up front and the array writes the payload bytes directly
    /// into its payload region, eliminating the payload-`Vec` → frame
    /// copy of [`Engine::execute`] + `write_response`. A caller that
    /// keeps one buffer per thread stops paying a response-sized
    /// allocation + zeroing pass per request: once the buffer has grown
    /// to the largest response seen, the frame costs nothing to produce
    /// and a healthy READ is a single array-to-frame copy. Never
    /// panics; every failure maps to a status.
    pub fn execute_frame_into(&self, client: u32, req: &Request, frame: &mut Vec<u8>) {
        self.execute_queued_frame_into(client, req, frame, 0);
    }

    /// [`Engine::execute_frame_into`] for queued execution: the caller
    /// (the runtime's control thread) passes how long the request
    /// waited for admission, which lands in the queue-wait histogram
    /// and the flight-recorder span alongside the service time.
    pub fn execute_queued_frame_into(
        &self,
        client: u32,
        req: &Request,
        frame: &mut Vec<u8>,
        queue_ns: u64,
    ) {
        let span = self.begin_access(client, req);
        let resolved = self.dispatch(req, frame);
        let status = frame
            .get(12)
            .copied()
            .and_then(Status::from_code)
            .unwrap_or(Status::Internal);
        let payload_len = frame.len().saturating_sub(RESPONSE_HEADER_LEN);
        if let Some(resolved) = resolved {
            let ok = status == Status::Ok;
            resolved
                .stats
                .record(ok, payload_len as u64, req.payload.len() as u64);
        }
        self.end_access(span, req, status, payload_len, queue_ns);
    }

    // ------------------------------------------------------------------
    // Shard-exec API: the thread-per-core runtime's entry points.
    //
    // The runtime splits a data op the way `dispatch` never needs to:
    // validation + volume resolution on the connection's net shard
    // (`prepare`), the unit I/O on the stripe-owning shard(s)
    // (`shard_*`), telemetry bracketing wherever the response is
    // finally written (`begin_access`/`end_access`). The `shard_*`
    // methods take no quiesce lock and — outside a running rebuild —
    // no stripe locks either; the caller must uphold the runtime's
    // exclusion protocol (one thread per stripe, lifecycle ops park
    // all shard threads first via the registered pauser).
    // ------------------------------------------------------------------

    /// Whether a background rebuild may currently be holding stripe
    /// locks — the one writer stripe ownership cannot order, so shard
    /// threads fall back to stripe locking while it runs.
    pub fn rebuild_locking(&self) -> bool {
        self.inner.rebuild.state.load(Ordering::Acquire) == REBUILD_RUNNING
    }

    /// Stripe guards for a shard-exec op on `ranges`: none (and no
    /// allocation) while stripe ownership alone orders the stripes, the
    /// covering locks while a rebuild is running.
    fn rebuild_guards<'a>(
        &self,
        shard: &'a ArrayShard,
        ranges: impl IntoIterator<Item = (u64, u64)>,
    ) -> Vec<MutexGuard<'a, ()>> {
        if self.rebuild_locking() {
            stripe_guards(shard, ranges)
        } else {
            Vec::new()
        }
    }

    /// Arrays in the pool (shard-exec `array` indices are `0..this`).
    pub fn array_count(&self) -> usize {
        self.inner.pool.len()
    }

    /// Stripe index of physical unit `phys` on `array` — the routing
    /// key the runtime hashes to a shard. Pure layout arithmetic.
    pub fn stripe_of(&self, array: usize, phys: u64) -> u64 {
        self.inner.pool[array].array.layout().locate(phys).0
    }

    /// Validate a data op (READ, WRITE or TRIM) and resolve it through
    /// the volume table. Returns the resolved segments plus the response
    /// payload size (a READ's data; 0 for the other two).
    ///
    /// # Errors
    ///
    /// The wire status the caller should answer with.
    pub fn prepare(&self, req: &Request) -> Result<(Resolved, usize), Status> {
        let bytes = u64::from(req.length) * self.inner.unit_bytes as u64;
        // A WRITE carries exactly its units, READ and TRIM carry
        // nothing — and a READ's response must fit in one frame: refuse
        // up front rather than reading the data and failing to encode it
        // (the client would otherwise never get an answer for this id).
        let (well_formed, response) = match req.op {
            Op::Write => (req.payload.len() as u64 == bytes, 0),
            Op::Read => (
                req.payload.is_empty() && bytes <= u64::from(MAX_PAYLOAD),
                bytes as usize,
            ),
            _ => (req.payload.is_empty(), 0),
        };
        if req.length == 0 || !well_formed {
            return Err(Status::BadRequest);
        }
        self.inner
            .volumes
            .resolve(req.volume, req.offset, u64::from(req.length))
            .map(|r| (r, response))
            .map_err(status_of_volume)
    }

    /// [`Engine::prepare`] for a READ (the name the lock-free READ
    /// proof in `tests/lockfree_read.rs` calls).
    ///
    /// # Errors
    ///
    /// As [`Engine::prepare`].
    pub fn prepare_read(&self, req: &Request) -> Result<(Resolved, usize), Status> {
        self.prepare(req)
    }

    /// [`Engine::prepare`] for a WRITE, which has no response payload.
    ///
    /// # Errors
    ///
    /// As [`Engine::prepare`].
    pub fn prepare_write(&self, req: &Request) -> Result<Resolved, Status> {
        self.prepare(req).map(|(resolved, _)| resolved)
    }

    /// Read `out.len()` bytes of resolved physical units on `array`
    /// starting at `phys`, under the shard-exec exclusion contract.
    /// Lock-free and allocation-free while no rebuild is running.
    ///
    /// # Errors
    ///
    /// [`ArrayError`] from the device layer.
    pub fn shard_read(&self, array: usize, phys: u64, out: &mut [u8]) -> Result<(), ArrayError> {
        let shard = &self.inner.pool[array];
        let units = (out.len() / self.inner.unit_bytes) as u64;
        let _guards = self.rebuild_guards(shard, [(phys, units)]);
        shard.array.read_into(phys, out)
    }

    /// [`Engine::shard_write_batch_into`] with a fresh [`WriteScratch`],
    /// returning the results as an owned `Vec`.
    pub fn shard_write_batch(
        &self,
        array: usize,
        ops: &[(u64, &[u8])],
    ) -> Vec<Result<(), ArrayError>> {
        self.shard_write_batch_into(array, ops, &mut WriteScratch::default())
            .to_vec()
    }

    /// Write a batch of physical unit runs on `array` through the
    /// array's batched journal path (one intent append, coalesced
    /// parity), under the shard-exec exclusion contract, with the
    /// caller's (a shard's) scratch. Returns one result per op, like
    /// [`DeclusteredArray::write_batch_into`]: allocation-free once
    /// `scratch` is warm, while no rebuild is running.
    pub fn shard_write_batch_into<'s>(
        &self,
        array: usize,
        ops: &[(u64, &[u8])],
        scratch: &'s mut WriteScratch,
    ) -> &'s [Result<(), ArrayError>] {
        let shard = &self.inner.pool[array];
        let unit = self.inner.unit_bytes as u64;
        let ranges = ops
            .iter()
            .map(|&(phys, data)| (phys, data.len() as u64 / unit));
        let _guards = self.rebuild_guards(shard, ranges);
        shard.array.write_batch_into(ops, scratch)
    }

    /// Zero-fill `units` physical units on `array` starting at `phys`
    /// in chunks of `zeros` (whose length fixes the chunk size), under
    /// the shard-exec exclusion contract — the owner-side half of TRIM.
    ///
    /// # Errors
    ///
    /// [`ArrayError`] from the device layer; partial progress stands.
    pub fn shard_trim(
        &self,
        array: usize,
        phys: u64,
        units: u64,
        zeros: &[u8],
    ) -> Result<(), ArrayError> {
        let shard = &self.inner.pool[array];
        let _guards = self.rebuild_guards(shard, [(phys, units)]);
        zero_fill(&shard.array, phys, units, zeros, self.inner.unit_bytes)
    }

    /// Open the observability bracket for one request: emits
    /// `AccessStart` and captures the timing baseline. Pair with
    /// [`Engine::end_access`] when the response frame is final.
    pub fn begin_access(&self, client: u32, req: &Request) -> AccessSpan {
        let access = self.inner.access_seq.fetch_add(1, Ordering::Relaxed) + 1;
        let start_ns = self.inner.now_ns();
        let started = Instant::now();
        self.emit(Event::AccessStart {
            access,
            actor: Actor::Client(client),
            units: req.length,
            write: matches!(req.op, Op::Write | Op::Trim),
        });
        AccessSpan {
            access,
            start_ns,
            started,
        }
    }

    /// Close an access bracket: emits `AccessEnd` and records the op
    /// into the telemetry plane. Lock-free and allocation-free.
    pub fn end_access(
        &self,
        span: AccessSpan,
        req: &Request,
        status: Status,
        response_payload: usize,
        queue_ns: u64,
    ) {
        let service_ns = span.started.elapsed().as_nanos() as u64;
        self.emit(Event::AccessEnd {
            access: span.access,
            latency_ns: service_ns,
        });
        self.record_op(
            req,
            status,
            response_payload,
            span.start_ns,
            queue_ns,
            service_ns,
        );
    }

    /// Serve a READ, WRITE or TRIM on the in-process path, one resolved
    /// segment at a time (lock, I/O, release — never two arrays' locks
    /// at once), a READ's data landing straight in the frame's payload
    /// region. TRIM is a zero-fill write: parity stays consistent and
    /// later reads of the range return zeros, the strongest discard
    /// semantic the array can offer. Returns what the op resolved to,
    /// for the caller to account; `None` when it never resolved.
    fn do_data_frame_into(&self, req: &Request, frame: &mut Vec<u8>) -> Option<Resolved> {
        let (resolved, bytes) = match self.prepare(req) {
            Ok(v) => v,
            Err(status) => {
                set_header_frame(frame, req.id, status);
                return None;
            }
        };
        if wire::response_frame_into(frame, req.id, Status::Ok, bytes).is_err() {
            set_header_frame(frame, req.id, Status::Internal);
            return None;
        }
        // Zero-fill in bounded chunks: a volume-sized trim must not
        // allocate a volume-sized buffer.
        const TRIM_CHUNK_UNITS: u64 = 1024;
        let unit = self.inner.unit_bytes;
        let zeros = match req.op {
            Op::Trim => vec![0u8; TRIM_CHUNK_UNITS.min(u64::from(req.length)) as usize * unit],
            _ => Vec::new(),
        };
        let mut at = 0usize;
        for seg in &resolved.segments {
            let len = seg.units as usize * unit;
            let shard = &self.inner.pool[seg.array as usize];
            let _q = rdlock(&shard.quiesce);
            // The guards span the whole segment, so it reads, writes or
            // clears atomically with respect to colliding writes.
            let _guards = stripe_guards(shard, [(seg.phys, seg.units)]);
            let done = match req.op {
                Op::Read => {
                    let out = &mut frame[RESPONSE_HEADER_LEN + at..][..len];
                    shard.array.read_into(seg.phys, out)
                }
                Op::Write => shard.array.write(seg.phys, &req.payload[at..at + len]),
                _ => zero_fill(&shard.array, seg.phys, seg.units, &zeros, unit),
            };
            if let Err(e) = done {
                wire::demote_frame(frame, status_of(&e));
                break;
            }
            at += len;
        }
        Some(resolved)
    }

    /// Run `req` and leave its response in `frame`. A data op also
    /// hands back what it resolved to (see
    /// [`Engine::do_data_frame_into`]).
    fn dispatch(&self, req: &Request, frame: &mut Vec<u8>) -> Option<Resolved> {
        let (status, payload) = match req.op {
            Op::Read | Op::Write | Op::Trim => return self.do_data_frame_into(req, frame),
            // Writes are synchronous (acknowledged only once they are
            // in the array) and the in-memory devices have no volatile
            // cache, so there is nothing left for FLUSH to push.
            Op::Flush => (Status::Ok, Vec::new()),
            Op::Info => self.do_info(req),
            Op::FailDisk => self.do_fail_disk(req),
            Op::Rebuild => self.do_rebuild(req),
            Op::RebuildStatus => self.do_rebuild_status(req),
            Op::Stats => self.do_stats(req),
            Op::TraceDump => self.do_trace_dump(req),
            Op::VolumeCreate => self.do_volume_create(req),
            Op::VolumeDelete => self.do_volume_delete(req),
            Op::VolumeResize => self.do_volume_resize(req),
            Op::VolumeList => self.do_volume_list(req),
            Op::PoolInfo => self.do_pool_info(req),
        };
        match wire::response_frame_into(frame, req.id, status, payload.len()) {
            Ok(()) => frame[RESPONSE_HEADER_LEN..].copy_from_slice(&payload),
            // An oversized non-read payload cannot happen (INFO and
            // rebuild-status blocks are tiny), but answer Internal
            // rather than panic if it ever does.
            Err(_) => set_header_frame(frame, req.id, Status::Internal),
        }
        None
    }

    /// INFO is volume-scoped: the flags byte picks the volume, the
    /// reply reports that volume's capacity against pool-wide health.
    fn do_info(&self, req: &Request) -> (Status, Vec<u8>) {
        if !req.payload.is_empty() || req.length != 0 {
            return (Status::BadRequest, Vec::new());
        }
        match self.volume_info_for(req.volume) {
            Ok(info) => (Status::Ok, info.encode()),
            Err(e) => (status_of_volume(e), Vec::new()),
        }
    }

    /// VOLUME_CREATE: payload carries the encoded spec; the reply
    /// payload is the assigned one-byte volume id.
    fn do_volume_create(&self, req: &Request) -> (Status, Vec<u8>) {
        if req.length != 0 {
            return (Status::BadRequest, Vec::new());
        }
        let Some(spec) = wire::decode_volume_spec(&req.payload) else {
            return (Status::BadRequest, Vec::new());
        };
        match self.inner.volumes.create(&spec) {
            Ok(id) => {
                // Register after the create so a failed create leaves
                // no tenant reference behind.
                self.inner.tenants.register(spec.tenant, limits_of(&spec));
                (Status::Ok, vec![id])
            }
            Err(e) => (status_of_volume(e), Vec::new()),
        }
    }

    /// VOLUME_DELETE: the flags byte picks the victim; its capacity
    /// returns to the pool and its tenant reference is released.
    fn do_volume_delete(&self, req: &Request) -> (Status, Vec<u8>) {
        if !req.payload.is_empty() || req.length != 0 {
            return (Status::BadRequest, Vec::new());
        }
        match self.inner.volumes.delete(req.volume) {
            Ok(meta) => {
                self.inner.tenants.release(meta.tenant);
                (Status::Ok, Vec::new())
            }
            Err(e) => (status_of_volume(e), Vec::new()),
        }
    }

    /// VOLUME_RESIZE: the flags byte picks the volume, `offset` carries
    /// the new capacity in units.
    fn do_volume_resize(&self, req: &Request) -> (Status, Vec<u8>) {
        if !req.payload.is_empty() || req.length != 0 {
            return (Status::BadRequest, Vec::new());
        }
        match self.inner.volumes.resize(req.volume, req.offset) {
            Ok(()) => (Status::Ok, Vec::new()),
            Err(e) => (status_of_volume(e), Vec::new()),
        }
    }

    fn do_volume_list(&self, req: &Request) -> (Status, Vec<u8>) {
        if !req.payload.is_empty() || req.length != 0 {
            return (Status::BadRequest, Vec::new());
        }
        (
            Status::Ok,
            wire::encode_volume_list(&self.inner.volumes.list()),
        )
    }

    fn do_pool_info(&self, req: &Request) -> (Status, Vec<u8>) {
        if !req.payload.is_empty() || req.length != 0 {
            return (Status::BadRequest, Vec::new());
        }
        (Status::Ok, self.pool_info().encode())
    }

    /// A merged telemetry snapshot: the lock-free per-op plane plus the
    /// array's physical-I/O counters and the rebuild position, all under
    /// one sorted, versioned roof. This is what STATS and `/metrics`
    /// serve.
    pub fn stats_snapshot(&self) -> TelemetrySnapshot {
        let mut snap = self.inner.telemetry.snapshot();
        {
            let mut unit_reads = 0u64;
            let mut unit_writes = 0u64;
            let mut degraded = 0u64;
            for shard in &self.inner.pool {
                let a = &shard.array;
                let (r, w) = a.io_counts();
                unit_reads += r;
                unit_writes += w;
                degraded += a.degraded_reads();
            }
            snap.counters.push(("array.unit_reads".into(), unit_reads));
            snap.counters
                .push(("array.unit_writes".into(), unit_writes));
            snap.counters
                .push(("array.degraded_reads".into(), degraded));
        }
        // Per-volume labelled rows: the Prometheus renderer passes the
        // `{…}` block through verbatim, so each volume/tenant pair is
        // its own series under one metric family.
        for (meta, stats) in self.inner.volumes.stats() {
            let (reads, writes, bytes_read, bytes_written, errors) = stats.load();
            let l = format!("{{tenant=\"{}\",volume=\"{}\"}}", meta.tenant, meta.id);
            snap.counters.push((format!("volume.reads{l}"), reads));
            snap.counters.push((format!("volume.writes{l}"), writes));
            snap.counters
                .push((format!("volume.bytes_read{l}"), bytes_read));
            snap.counters
                .push((format!("volume.bytes_written{l}"), bytes_written));
            snap.counters.push((format!("volume.errors{l}"), errors));
        }
        snap.counters
            .push(("qos.throttled".into(), self.inner.tenants.throttled_total()));
        snap.gauges.push((
            "volumes.count".into(),
            self.inner.volumes.volume_count() as f64,
        ));
        let rb = self.rebuild_status();
        snap.gauges
            .push(("rebuild.state".into(), f64::from(rb.state.code())));
        snap.gauges
            .push(("rebuild.disk".into(), f64::from(rb.disk)));
        snap.gauges
            .push(("rebuild.repaired".into(), rb.repaired as f64));
        snap.gauges.push(("rebuild.total".into(), rb.total as f64));
        snap.sort();
        snap
    }

    fn do_stats(&self, req: &Request) -> (Status, Vec<u8>) {
        if !req.payload.is_empty() || req.length != 0 {
            return (Status::BadRequest, Vec::new());
        }
        (Status::Ok, wire::encode_stats(&self.stats_snapshot()))
    }

    fn do_trace_dump(&self, req: &Request) -> (Status, Vec<u8>) {
        if !req.payload.is_empty() || req.length != 0 {
            return (Status::BadRequest, Vec::new());
        }
        (
            Status::Ok,
            wire::encode_spans(&self.inner.telemetry.spans()),
        )
    }

    fn do_fail_disk(&self, req: &Request) -> (Status, Vec<u8>) {
        if !req.payload.is_empty() || req.length != 0 {
            return (Status::BadRequest, Vec::new());
        }
        // A global disk index that maps to no array is the same client
        // error as failing a nonexistent disk on a single array.
        let Some((ai, local)) = self.inner.locate_disk(req.offset) else {
            return (Status::WrongDiskState, Vec::new());
        };
        // `fail_disk` is interior-mutable, so a failure can land while
        // client I/O is in flight — exactly the timing a chaos nemesis
        // wants to exercise. No quiesce: in-flight ops observe the flip
        // mid-op and degrade, same as a real disk dying under load.
        match self.inner.pool[ai].array.fail_disk(local) {
            Ok(()) => (Status::Ok, Vec::new()),
            Err(e) => (status_of(&e), Vec::new()),
        }
    }

    /// Start a background incremental rebuild and answer `Accepted`
    /// immediately. Validation (sparing support, disk state) is
    /// synchronous, so typed errors still come back on the spot; only
    /// the stripe work is deferred to the rebuild thread.
    fn do_rebuild(&self, req: &Request) -> (Status, Vec<u8>) {
        if !req.payload.is_empty() || req.length != 0 {
            return (Status::BadRequest, Vec::new());
        }
        let inner = &self.inner;
        let mut slot = lock(&inner.rebuild.slot);
        if inner.rebuild.state.load(Ordering::Acquire) == REBUILD_RUNNING {
            // One rebuild at a time. Re-requesting the in-flight disk is
            // an idempotent accept; a different disk must wait.
            let same = u64::from(inner.rebuild.disk.load(Ordering::Acquire)) == req.offset;
            let status = if same {
                Status::Accepted
            } else {
                Status::WrongDiskState
            };
            return (status, Vec::new());
        }
        if let Some(done) = slot.take() {
            let _ = done.join();
        }
        let Some((array_idx, disk)) = inner.locate_disk(req.offset) else {
            return (Status::WrongDiskState, Vec::new());
        };
        let ticket = {
            let _q = rdlock(&inner.pool[array_idx].quiesce);
            match inner.pool[array_idx].array.begin_rebuild(disk) {
                Ok(t) => t,
                Err(e) => return (status_of(&e), Vec::new()),
            }
        };
        // Open the generation bracket (odd): status readers retry
        // rather than mixing the old generation's progress with the new
        // one's target. The slot mutex serializes writers, so a plain
        // increment is safe.
        inner.rebuild.gen.fetch_add(1, Ordering::Release);
        inner.rebuild.disk.store(
            u32::try_from(req.offset).unwrap_or(u32::MAX),
            Ordering::Release,
        );
        // Reset progress before publishing the new target, so even a
        // torn read that slips past the seqlock stays conservative.
        inner
            .rebuild
            .repaired
            .store(ticket.repaired(), Ordering::Release);
        inner.rebuild.total.store(ticket.total(), Ordering::Release);
        inner.rebuild.stop.store(false, Ordering::Release);
        inner
            .rebuild
            .state
            .store(REBUILD_RUNNING, Ordering::Release);
        // Close the bracket (even): the fields above are coherent again.
        inner.rebuild.gen.fetch_add(1, Ordering::Release);
        // One runtime pause barrier before the worker's first batch:
        // shard threads that sampled the state as not-running may still
        // be mid-op without stripe locks; parking them once flushes
        // those, and every op after the resume sees RUNNING and takes
        // stripe locks for the rebuild's duration.
        drop(self.pause_runtime());
        let worker_inner = Arc::clone(inner);
        let spawned = std::thread::Builder::new()
            .name("pddl-rebuild".into())
            .spawn(move || rebuild_worker(worker_inner, array_idx, ticket));
        match spawned {
            Ok(handle) => {
                *slot = Some(handle);
                (Status::Accepted, Vec::new())
            }
            Err(_) => {
                // Thread exhaustion is an environment failure, not a
                // client error; roll the control block back so a retry
                // can start cleanly.
                inner.rebuild.state.store(REBUILD_NONE, Ordering::Release);
                (Status::Internal, Vec::new())
            }
        }
    }

    fn do_rebuild_status(&self, req: &Request) -> (Status, Vec<u8>) {
        if !req.payload.is_empty() || req.length != 0 {
            return (Status::BadRequest, Vec::new());
        }
        (Status::Ok, self.rebuild_status().encode())
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        // Don't leak a rebuild thread past the engine that spawned it.
        self.stop_rebuild();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pddl_core::Pddl;
    use std::sync::Arc;

    fn engine() -> Engine {
        let layout = Pddl::new(7, 3).unwrap();
        let array = DeclusteredArray::new(Box::new(layout), 16, 4).unwrap();
        Engine::with_shards(array, 8)
    }

    fn req(op: Op, offset: u64, length: u32, payload: Vec<u8>) -> Request {
        vreq(0, op, offset, length, payload)
    }

    fn vreq(volume: u8, op: Op, offset: u64, length: u32, payload: Vec<u8>) -> Request {
        Request {
            id: 1,
            op,
            volume,
            offset,
            length,
            payload,
        }
    }

    /// Poll REBUILD_STATUS until the rebuild leaves `Running` (bounded).
    fn wait_rebuild(e: &Engine) -> RebuildStatus {
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let s = e.rebuild_status();
            if s.state != RebuildState::Running {
                return s;
            }
            assert!(Instant::now() < deadline, "rebuild did not settle");
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// `execute_frame_into` on a buffer nothing was ever written to.
    fn fresh_frame(e: &Engine, r: &Request) -> Vec<u8> {
        let mut frame = Vec::new();
        e.execute_frame_into(0, r, &mut frame);
        frame
    }

    /// The zero-copy frame path must emit byte-identical frames to
    /// encoding the `Response` that `execute` produces — across
    /// success, every validation failure, and mode changes.
    #[test]
    fn execute_frame_matches_encoded_execute() {
        let e = engine();
        e.execute(0, &req(Op::Write, 0, 4, vec![7u8; 64]));
        let cases = vec![
            req(Op::Read, 0, 4, vec![]),
            req(Op::Read, 2, 1, vec![]),
            req(Op::Read, 0, 0, vec![]),            // BadRequest
            req(Op::Read, u64::MAX - 5, 1, vec![]), // BadAddress
            req(Op::Read, 0, u32::MAX, vec![]),     // over MAX_PAYLOAD
            req(Op::Read, 0, 1, vec![1]),           // payload on a read
            req(Op::Flush, 0, 0, vec![]),
            req(Op::Info, 0, 0, vec![]),
            req(Op::Write, 1, 1, vec![3u8; 16]),
            req(Op::Write, 0, 2, vec![1u8; 5]), // ragged write
        ];
        for r in &cases {
            let response = e.execute(0, r);
            let mut expect = Vec::new();
            wire::write_response(&mut expect, &response).unwrap();
            assert_eq!(fresh_frame(&e, r), expect, "op {:?} len {}", r.op, r.length);
        }
        // Degraded reads go through reconstruction — still identical.
        assert_eq!(
            e.execute(0, &req(Op::FailDisk, 2, 0, vec![])).status,
            Status::Ok
        );
        let r = req(Op::Read, 0, 4, vec![]);
        let response = e.execute(0, &r);
        assert_eq!(response.status, Status::Ok);
        let mut expect = Vec::new();
        wire::write_response(&mut expect, &response).unwrap();
        assert_eq!(fresh_frame(&e, &r), expect);
    }

    /// A reused frame buffer must produce exactly the frames a fresh
    /// buffer would — shrinking, growing, and error-demoting in place
    /// without leaking stale bytes from the previous response.
    #[test]
    fn execute_frame_into_reuses_buffer_cleanly() {
        let e = engine();
        e.execute(0, &req(Op::Write, 0, 4, vec![0xee; 64]));
        let sequence = vec![
            req(Op::Read, 0, 4, vec![]),            // large
            req(Op::Read, 2, 1, vec![]),            // shrink
            req(Op::Read, u64::MAX - 5, 1, vec![]), // demote to header
            req(Op::Read, 0, 3, vec![]),            // regrow
            req(Op::Info, 0, 0, vec![]),            // non-read reuse
        ];
        let mut frame = Vec::new();
        for r in &sequence {
            e.execute_frame_into(0, r, &mut frame);
            assert_eq!(
                frame,
                fresh_frame(&e, r),
                "op {:?} offset {} len {}",
                r.op,
                r.offset,
                r.length
            );
        }
    }

    #[test]
    fn write_read_round_trip_and_info() {
        let e = engine();
        let data = vec![0xabu8; 32];
        let r = e.execute(0, &req(Op::Write, 3, 2, data.clone()));
        assert_eq!(r.status, Status::Ok);
        let r = e.execute(0, &req(Op::Read, 3, 2, vec![]));
        assert_eq!(r.status, Status::Ok);
        assert_eq!(r.payload, data);

        let info = VolumeInfo::decode(&e.execute(0, &req(Op::Info, 0, 0, vec![])).payload).unwrap();
        assert_eq!(info.unit_bytes, 16);
        assert_eq!(info.disks, 7);
        assert_eq!(info.mode, 0);
        assert!(info.failed.is_empty());
    }

    #[test]
    fn stats_op_reports_traffic_and_round_trips() {
        let e = engine();
        e.execute(0, &req(Op::Write, 0, 2, vec![7u8; 32]));
        e.execute(0, &req(Op::Read, 0, 2, vec![]));
        e.execute(0, &req(Op::Read, 0, 1, vec![]));

        let r = e.execute(0, &req(Op::Stats, 0, 0, vec![]));
        assert_eq!(r.status, Status::Ok);
        let snap = wire::decode_stats(&r.payload).expect("stats payload decodes");
        assert_eq!(snap.counter("op.read.count"), Some(2));
        assert_eq!(snap.counter("op.write.count"), Some(1));
        assert_eq!(snap.counter("op.read.errors"), Some(0));
        assert_eq!(snap.counter("bytes.read"), Some(48));
        assert_eq!(snap.counter("bytes.written"), Some(32));
        assert_eq!(snap.counter("array.degraded_reads"), Some(0));
        assert!(snap.counter("array.unit_reads").unwrap() > 0);
        assert_eq!(snap.gauge("rebuild.state"), Some(0.0));
        assert_eq!(snap.hist("latency.read_ns").unwrap().count(), 2);

        // Validation: STATS carries no payload and no length.
        assert_eq!(
            e.execute(0, &req(Op::Stats, 0, 0, vec![1])).status,
            Status::BadRequest
        );
        assert_eq!(
            e.execute(0, &req(Op::Stats, 0, 1, vec![])).status,
            Status::BadRequest
        );
    }

    #[test]
    fn trace_dump_returns_recent_spans() {
        let e = engine();
        e.execute(0, &req(Op::Write, 0, 1, vec![3u8; 16]));
        e.execute(0, &req(Op::Read, 0, 1, vec![]));

        let r = e.execute(0, &req(Op::TraceDump, 0, 0, vec![]));
        assert_eq!(r.status, Status::Ok);
        let spans = wire::decode_spans(&r.payload).expect("trace payload decodes");
        assert!(spans.len() >= 2, "expected spans for the ops just issued");
        assert!(spans.iter().any(|s| s.op == pddl_obs::OpKind::Read));
        assert!(spans.iter().any(|s| s.op == pddl_obs::OpKind::Write));

        assert_eq!(
            e.execute(0, &req(Op::TraceDump, 0, 0, vec![9])).status,
            Status::BadRequest
        );
        assert_eq!(
            e.execute(0, &req(Op::TraceDump, 0, 9, vec![])).status,
            Status::BadRequest
        );
    }

    #[test]
    fn degraded_reads_counter_surfaces_in_stats() {
        let e = engine();
        let cap = e.volume_info().capacity_units as u32;
        e.execute(0, &req(Op::Write, 0, cap, vec![5u8; cap as usize * 16]));
        assert_eq!(
            e.execute(0, &req(Op::FailDisk, 2, 0, vec![])).status,
            Status::Ok
        );
        // A sweep of the whole volume is guaranteed to touch units
        // homed on the failed disk, forcing parity reconstruction.
        assert_eq!(
            e.execute(0, &req(Op::Read, 0, cap, vec![])).status,
            Status::Ok
        );
        let snap =
            wire::decode_stats(&e.execute(0, &req(Op::Stats, 0, 0, vec![])).payload).unwrap();
        assert!(
            snap.counter("array.degraded_reads").unwrap() > 0,
            "reads after a disk failure must count as degraded"
        );
    }

    #[test]
    fn trim_zeroes_and_flush_is_ok() {
        let e = engine();
        e.execute(0, &req(Op::Write, 0, 1, vec![9u8; 16]));
        assert_eq!(
            e.execute(0, &req(Op::Trim, 0, 1, vec![])).status,
            Status::Ok
        );
        assert_eq!(
            e.execute(0, &req(Op::Read, 0, 1, vec![])).payload,
            vec![0u8; 16]
        );
        assert_eq!(
            e.execute(0, &req(Op::Flush, 0, 0, vec![])).status,
            Status::Ok
        );
    }

    #[test]
    fn bad_requests_and_array_errors_map_to_statuses() {
        let e = engine();
        // Payload length mismatch.
        assert_eq!(
            e.execute(0, &req(Op::Write, 0, 2, vec![1u8; 5])).status,
            Status::BadRequest
        );
        // Zero-length I/O.
        assert_eq!(
            e.execute(0, &req(Op::Read, 0, 0, vec![])).status,
            Status::BadRequest
        );
        // Out-of-range read.
        assert_eq!(
            e.execute(0, &req(Op::Read, u64::MAX - 5, 1, vec![])).status,
            Status::BadAddress
        );
        // Failing a nonexistent disk.
        assert_eq!(
            e.execute(0, &req(Op::FailDisk, 999, 0, vec![])).status,
            Status::WrongDiskState
        );
        // Rebuilding a healthy disk fails synchronously, not Accepted.
        assert_eq!(
            e.execute(0, &req(Op::Rebuild, 2, 0, vec![])).status,
            Status::WrongDiskState
        );
        // REBUILD/REBUILD_STATUS with stray length or payload.
        assert_eq!(
            e.execute(0, &req(Op::Rebuild, 2, 1, vec![])).status,
            Status::BadRequest
        );
        assert_eq!(
            e.execute(0, &req(Op::RebuildStatus, 0, 0, vec![1])).status,
            Status::BadRequest
        );
    }

    #[test]
    fn hostile_lengths_are_rejected_before_any_work() {
        let e = engine();
        // A maximal length would decode to >64 GiB of response; it must
        // come back immediately (no multi-GB allocation, no 4e9-unit
        // shard walk) as BadRequest since it cannot fit a frame.
        let r = e.execute(0, &req(Op::Read, 0, u32::MAX, vec![]));
        assert_eq!(r.status, Status::BadRequest);
        // Offset + length overflowing u64 is a bad address, not a wrap.
        assert_eq!(
            e.execute(0, &req(Op::Read, u64::MAX, 1, vec![])).status,
            Status::BadAddress
        );
        assert_eq!(
            e.execute(0, &req(Op::Trim, u64::MAX, 7, vec![])).status,
            Status::BadAddress
        );
        // A trim far past capacity is rejected before the zero buffer
        // is built.
        assert_eq!(
            e.execute(0, &req(Op::Trim, 0, u32::MAX, vec![])).status,
            Status::BadAddress
        );
        // Writes validate the range before touching shard locks.
        let unit = 16;
        assert_eq!(
            e.execute(0, &req(Op::Write, u64::MAX, 1, vec![0u8; unit]))
                .status,
            Status::BadAddress
        );
    }

    #[test]
    fn volume_sized_trim_clears_everything() {
        let e = engine();
        let cap = e.volume_info().capacity_units;
        for u in 0..cap {
            assert_eq!(
                e.execute(0, &req(Op::Write, u, 1, vec![0xffu8; 16])).status,
                Status::Ok
            );
        }
        assert_eq!(
            e.execute(0, &req(Op::Trim, 0, cap as u32, vec![])).status,
            Status::Ok
        );
        for u in 0..cap {
            assert_eq!(
                e.execute(0, &req(Op::Read, u, 1, vec![])).payload,
                vec![0u8; 16]
            );
        }
    }

    #[test]
    fn fail_and_rebuild_round_trip_under_load() {
        let e = Arc::new(engine());
        let info = e.volume_info();
        let cap = info.capacity_units;
        for u in 0..cap {
            let r = e.execute(0, &req(Op::Write, u, 1, vec![(u % 251) as u8; 16]));
            assert_eq!(r.status, Status::Ok);
        }
        assert_eq!(
            e.execute(0, &req(Op::FailDisk, 2, 0, vec![])).status,
            Status::Ok
        );
        assert_eq!(e.volume_info().mode, 1);
        assert_eq!(e.volume_info().failed, vec![2]);

        // REBUILD is asynchronous: Accepted now, Done via status polls.
        let r = e.execute(0, &req(Op::Rebuild, 2, 0, vec![]));
        assert_eq!(r.status, Status::Accepted);
        let s = wait_rebuild(&e);
        assert_eq!(s.state, RebuildState::Done);
        assert_eq!(s.disk, 2);
        assert!(s.total > 0);
        assert_eq!(s.repaired, s.total);
        assert_eq!(e.volume_info().mode, 2);

        for u in 0..cap {
            let r = e.execute(0, &req(Op::Read, u, 1, vec![]));
            assert_eq!(r.status, Status::Ok);
            assert_eq!(r.payload, vec![(u % 251) as u8; 16]);
        }
    }

    #[test]
    fn rebuild_status_starts_none_and_duplicate_rebuilds_are_handled() {
        let e = engine();
        let s = e.rebuild_status();
        assert_eq!(s.state, RebuildState::None);
        assert_eq!((s.repaired, s.total), (0, 0));
        let r = e.execute(0, &req(Op::RebuildStatus, 0, 0, vec![]));
        assert_eq!(r.status, Status::Ok);
        assert_eq!(
            RebuildStatus::decode(&r.payload).unwrap().state,
            RebuildState::None
        );

        // Throttle hard so the rebuild is observably in flight.
        let layout = Pddl::new(7, 3).unwrap();
        let array = DeclusteredArray::new(Box::new(layout), 16, 4).unwrap();
        let e = Engine::with_config(
            array,
            8,
            RebuildConfig {
                batch: 1,
                rate: 4.0,
            },
        );
        let cap = e.volume_info().capacity_units;
        for u in 0..cap {
            e.execute(0, &req(Op::Write, u, 1, vec![7u8; 16]));
        }
        e.execute(0, &req(Op::FailDisk, 2, 0, vec![]));
        e.execute(0, &req(Op::FailDisk, 3, 0, vec![]));
        assert_eq!(
            e.execute(0, &req(Op::Rebuild, 2, 0, vec![])).status,
            Status::Accepted
        );
        // Same disk: idempotent accept. Other disk: refused while busy.
        assert_eq!(
            e.execute(0, &req(Op::Rebuild, 2, 0, vec![])).status,
            Status::Accepted
        );
        assert_eq!(
            e.execute(0, &req(Op::Rebuild, 3, 0, vec![])).status,
            Status::WrongDiskState
        );
        // Client I/O proceeds while the rebuild is running.
        assert_eq!(
            e.execute(0, &req(Op::Read, 0, 1, vec![])).status,
            Status::Ok
        );
        // Shutdown pauses the worker promptly instead of waiting out the
        // rate limiter.
        e.stop_rebuild();
        let s = e.rebuild_status();
        assert!(
            matches!(s.state, RebuildState::Paused | RebuildState::Done),
            "{s:?}"
        );
    }

    /// Carve a volume out of the default pool: shrink volume 0 to free
    /// space, create, and verify routing + isolation + lifecycle ops.
    #[test]
    fn volume_lifecycle_routes_and_isolates() {
        let e = engine();
        let cap = e.volume_info().capacity_units;
        assert!(cap > 8, "array too small for the test");
        // All capacity starts owned by volume 0 — creation must fail.
        let mut spec = VolumeSpec::new("tenant-a", 4);
        spec.tenant = 7;
        let r = e.execute(
            0,
            &vreq(0, Op::VolumeCreate, 0, 0, wire::encode_volume_spec(&spec)),
        );
        assert_eq!(r.status, Status::NoCapacity);
        // Shrink volume 0, then create succeeds and returns the new id.
        let r = e.execute(0, &vreq(0, Op::VolumeResize, cap - 4, 0, vec![]));
        assert_eq!(r.status, Status::Ok);
        let r = e.execute(
            0,
            &vreq(0, Op::VolumeCreate, 0, 0, wire::encode_volume_spec(&spec)),
        );
        assert_eq!(r.status, Status::Ok);
        assert_eq!(r.payload, vec![1u8]);

        // Writes land in the addressed volume only.
        let ub = e.unit_bytes();
        assert_eq!(
            e.execute(0, &vreq(1, Op::Write, 0, 1, vec![0x11; ub]))
                .status,
            Status::Ok
        );
        assert_eq!(
            e.execute(0, &vreq(0, Op::Write, 0, 1, vec![0x22; ub]))
                .status,
            Status::Ok
        );
        let r = e.execute(0, &vreq(1, Op::Read, 0, 1, vec![]));
        assert_eq!((r.status, r.payload[0]), (Status::Ok, 0x11));
        let r = e.execute(0, &vreq(0, Op::Read, 0, 1, vec![]));
        assert_eq!((r.status, r.payload[0]), (Status::Ok, 0x22));

        // Per-volume INFO reports per-volume capacity.
        let r = e.execute(0, &vreq(1, Op::Info, 0, 0, vec![]));
        assert_eq!(r.status, Status::Ok);
        assert_eq!(VolumeInfo::decode(&r.payload).unwrap().capacity_units, 4);

        // Out-of-range I/O inside a small volume is BadAddress.
        assert_eq!(
            e.execute(0, &vreq(1, Op::Read, 4, 1, vec![])).status,
            Status::BadAddress
        );
        // Unknown volume is VolumeNotFound.
        assert_eq!(
            e.execute(0, &vreq(9, Op::Read, 0, 1, vec![])).status,
            Status::VolumeNotFound
        );

        // List shows both volumes; tenant registered for the new one.
        let r = e.execute(0, &vreq(0, Op::VolumeList, 0, 0, vec![]));
        let list = wire::decode_volume_list(&r.payload).unwrap();
        assert_eq!(list.len(), 2);
        assert_eq!((list[1].id, list[1].tenant), (1, 7));
        assert!(e.tenants().tenants().contains(&7));

        // Grow the new volume back into the freed space, then delete it.
        assert_eq!(
            e.execute(0, &vreq(1, Op::VolumeResize, 6, 0, vec![]))
                .status,
            Status::NoCapacity
        );
        assert_eq!(
            e.execute(0, &vreq(1, Op::VolumeResize, 2, 0, vec![]))
                .status,
            Status::Ok
        );
        assert_eq!(
            e.execute(0, &vreq(1, Op::VolumeDelete, 0, 0, vec![]))
                .status,
            Status::Ok
        );
        assert!(!e.tenants().tenants().contains(&7));
        assert_eq!(
            e.execute(0, &vreq(1, Op::Read, 0, 1, vec![])).status,
            Status::VolumeNotFound
        );
        // Volume 0 is indestructible.
        assert_eq!(
            e.execute(0, &vreq(0, Op::VolumeDelete, 0, 0, vec![]))
                .status,
            Status::BadRequest
        );
    }

    /// Admission classification: volume-scoped ops bill their tenant,
    /// control ops ride free, and byte costs follow the data moved.
    #[test]
    fn admission_classifies_tenant_and_bytes() {
        let e = engine();
        let cap = e.volume_info().capacity_units;
        let ub = e.unit_bytes() as u64;
        e.execute(0, &vreq(0, Op::VolumeResize, cap - 4, 0, vec![]));
        let mut spec = VolumeSpec::new("qos", 4);
        spec.tenant = 42;
        let r = e.execute(
            0,
            &vreq(0, Op::VolumeCreate, 0, 0, wire::encode_volume_spec(&spec)),
        );
        assert_eq!(r.status, Status::Ok);

        let (t, b) = e.admission(&vreq(1, Op::Read, 0, 3, vec![]));
        assert_eq!((t, b), (42, 3 * ub));
        let (t, b) = e.admission(&vreq(1, Op::Write, 0, 1, vec![9u8; 16]));
        assert_eq!((t, b), (42, 16));
        let (t, b) = e.admission(&vreq(0, Op::Read, 0, 1, vec![]));
        assert_eq!((t, b), (0, ub));
        // Unknown volume falls back to tenant 0 (the op will fail with
        // VolumeNotFound anyway — admission must not panic).
        let (t, _) = e.admission(&vreq(200, Op::Read, 0, 1, vec![]));
        assert_eq!(t, 0);
        // Non-volume ops are unbilled control traffic.
        let (t, b) = e.admission(&req(Op::Stats, 0, 0, vec![]));
        assert_eq!((t, b), (0, 0));
        // A hostile READ length is billed at the payload cap, not the
        // raw length×unit product: dispatch rejects it with BadRequest,
        // and an uncapped cost would exceed what the DRR deficit can
        // ever cover, wedging the tenant's queue.
        let (_, b) = e.admission(&vreq(0, Op::Read, 0, u32::MAX, vec![]));
        assert_eq!(b, u64::from(MAX_PAYLOAD));
    }

    /// The reserved rebuild tenant is not assignable through a client
    /// spec — a VOLUME_CREATE naming it must not be able to replace the
    /// rebuild worker's limits or piggyback on its lane.
    #[test]
    fn volume_create_rejects_rebuild_tenant() {
        let e = engine();
        let cap = e.volume_info().capacity_units;
        e.execute(0, &vreq(0, Op::VolumeResize, cap - 4, 0, vec![]));
        let mut spec = VolumeSpec::new("sneaky", 4);
        spec.tenant = REBUILD_TENANT;
        let r = e.execute(
            0,
            &vreq(0, Op::VolumeCreate, 0, 0, wire::encode_volume_spec(&spec)),
        );
        assert_eq!(r.status, Status::BadRequest);
        assert_eq!(e.volumes().volume_count(), 1);
    }

    /// Per-volume stats surface as labeled series in the snapshot.
    #[test]
    fn stats_snapshot_has_per_volume_labels() {
        let e = engine();
        let ub = e.unit_bytes();
        e.execute(0, &req(Op::Write, 0, 1, vec![5u8; ub]));
        e.execute(0, &req(Op::Read, 0, 1, vec![]));
        let snap = e.stats_snapshot();
        let find = |name: &str| {
            snap.counters
                .iter()
                .find(|(n, _)| n == name)
                .map(|&(_, v)| v)
        };
        assert_eq!(find("volume.reads{tenant=\"0\",volume=\"0\"}"), Some(1));
        assert_eq!(find("volume.writes{tenant=\"0\",volume=\"0\"}"), Some(1));
        assert_eq!(
            find("volume.bytes_written{tenant=\"0\",volume=\"0\"}"),
            Some(ub as u64)
        );
        assert!(find("qos.throttled").is_some());
        assert!(snap
            .gauges
            .iter()
            .any(|(n, v)| n == "volumes.count" && *v == 1.0));
    }

    /// A two-array pool: volumes land on either array, global disk
    /// indices map across arrays, and rebuild targets the right shard.
    #[test]
    fn multi_array_pool_routes_and_rebuilds_globally() {
        let mk = || {
            let layout = Pddl::new(7, 3).unwrap();
            DeclusteredArray::new(Box::new(layout), 16, 4).unwrap()
        };
        let e = Engine::with_pool(
            vec![mk(), mk()],
            8,
            RebuildConfig {
                batch: 8,
                rate: 0.0,
            },
        );
        let cap0 = e.volumes().array_capacity(0);
        // Volume 0 owns array 0; a volume sized past array 0's free
        // space must be carved from array 1.
        let r = e.execute(
            0,
            &vreq(
                0,
                Op::VolumeCreate,
                0,
                0,
                wire::encode_volume_spec(&VolumeSpec::new("second", cap0 / 2)),
            ),
        );
        assert_eq!(r.status, Status::Ok);
        let ub = e.unit_bytes();
        assert_eq!(
            e.execute(0, &vreq(1, Op::Write, 0, 2, vec![0x77; 2 * ub]))
                .status,
            Status::Ok
        );
        let r = e.execute(0, &vreq(1, Op::Read, 0, 2, vec![]));
        assert_eq!(r.status, Status::Ok);
        assert!(r.payload.iter().all(|&b| b == 0x77));

        // Pool info sees both arrays.
        let info = e.pool_info();
        assert_eq!(info.arrays.len(), 2);
        assert_eq!(info.volumes, 2);

        // Fail a disk in the second array via its global index, then
        // rebuild it — the worker must target array 1.
        let disks0 = info.arrays[0].disks as u64;
        assert_eq!(
            e.execute(0, &req(Op::FailDisk, disks0 + 2, 0, vec![]))
                .status,
            Status::Ok
        );
        let r = e.execute(0, &vreq(1, Op::Read, 0, 2, vec![]));
        assert_eq!(r.status, Status::Ok, "degraded read through volume 1");
        assert_eq!(
            e.execute(0, &req(Op::Rebuild, disks0 + 2, 0, vec![]))
                .status,
            Status::Accepted
        );
        let s = wait_rebuild(&e);
        assert_eq!(s.state, RebuildState::Done);
        let r = e.execute(0, &vreq(1, Op::Read, 0, 2, vec![]));
        assert_eq!(r.status, Status::Ok);
        assert!(r.payload.iter().all(|&b| b == 0x77));
        // A global index past the pool is WrongDiskState, not a panic.
        assert_eq!(
            e.execute(0, &req(Op::FailDisk, 999, 0, vec![])).status,
            Status::WrongDiskState
        );
    }

    #[test]
    fn shard_set_is_sorted_and_deduplicated() {
        let e = engine();
        let shard = &e.inner.pool[0];
        let set = shard_set(&shard.array, &shard.stripe_locks, 0, 64);
        let mut sorted = set.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(set, sorted);
        assert!(set.iter().all(|&i| i < e.shards()));
    }

    /// An engine constructed around an array that died mid-write (torn
    /// intents outstanding) replays the journal before serving: the
    /// restarted-`serve` path that used to be unreachable.
    #[test]
    fn startup_replays_outstanding_journal_intents() {
        let layout = Pddl::new(7, 3).unwrap();
        let a = DeclusteredArray::new(Box::new(layout), 16, 4).unwrap();
        a.write(0, &[0x31u8; 16 * 8]).unwrap();
        a.arm_crash(1);
        assert!(a.write(0, &[0x32u8; 16]).is_err());
        assert!(!a.outstanding_intents().is_empty(), "torn write journaled");
        let e = Engine::with_shards(a, 8);
        assert!(
            e.outstanding_intents().is_empty(),
            "startup replay must retire the intents"
        );
        assert!(e.scrub().unwrap().is_empty(), "parity repaired at startup");
    }
}
