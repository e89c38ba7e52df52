//! The concurrency engine: executes decoded requests against one
//! [`DeclusteredArray`] carved into logical volumes, with one exclusion
//! rule per writer class and per-tenant QoS accounting.
//!
//! # Volumes
//!
//! The engine owns the array and a [`VolumeManager`] that maps
//! `(volume, offset, units)` onto physical unit runs. Every data op
//! resolves through the manager first; volume 0 spans the whole array
//! at construction, so a client that always sends zero flags addresses
//! the array directly. Disk-addressed ops (`FAIL_DISK`, `REBUILD`,
//! `replace_disk`) take the array's own disk index.
//!
//! # Locking model
//!
//! The array is `Send + Sync`, but it documents one caller invariant:
//! two writes touching the *same stripe* must not overlap (the parity
//! read-modify-write would race). Every writer of the array belongs to
//! one of three classes, and each class has one rule:
//!
//! * **Runtime shard threads are excluded by stripe ownership.** A
//!   stripe's I/O runs only on the shard that owns it, so same-stripe
//!   ops are ordered by construction and the `shard_*` entry points
//!   take no lock — except while a rebuild runs (next rule).
//! * **The rebuild worker is excluded by stripe locks.** The engine
//!   has a fixed table of 64 stripe locks; a rebuild batch holds the
//!   read side of the quiesce lock plus the table entries its stripes
//!   hash to (`stripe % 64`, acquired in ascending order: one total
//!   order ⇒ no deadlock). While a rebuild is running the shard
//!   threads take the same entries for every op, so an op and a batch
//!   that meet on a stripe serialize; `do_rebuild` parks the shards
//!   once after flipping the state, so no lock-free op is still in
//!   flight when the first batch starts.
//! * **Everything else is excluded by the quiesce.** Lifecycle ops
//!   (`scrub`, `recover`, `replace_disk`, `arm_crash`) and every
//!   in-process READ, WRITE or TRIM ([`Engine::execute`] and its frame
//!   variants) first park every runtime shard thread through the
//!   registered pauser (see [`Engine::set_runtime_pauser`]), then take
//!   the quiesce **write** lock, which waits out a running rebuild
//!   batch. An in-process op then runs each of its resolved segments
//!   through the same `shard_read` / `shard_write_batch_into` /
//!   `shard_trim` bodies the runtime calls, all under one quiesce.
//!
//! An in-process data op therefore parks the whole runtime: it is for
//! tests, tools and benchmarks, not for serving. A runtime shard thread
//! must never call one — it would wait for its own park — which is why
//! the runtime's control thread, the one engine caller that serves, is
//! never handed a READ, WRITE or TRIM.
//!
//! Every acquisition made through the engine's lock helpers bumps a
//! process-wide counter ([`lock_acquisitions`]); the healthy-READ
//! proof test asserts the shard-exec path's delta is exactly zero.
//!
//! # Online rebuild
//!
//! `REBUILD` does not quiesce the array for the whole reconstruction.
//! The request validates and creates a resumable
//! [`RebuildTicket`] synchronously (typed
//! errors still come back immediately), then a dedicated background
//! thread steps it in bounded batches under the rebuild worker's rule
//! above: the quiesce read lock plus the stripe locks covering that
//! batch's stripes — exactly the locks a shard thread's op on those
//! stripes takes while the rebuild runs — so client I/O keeps flowing
//! between (and alongside) batches, stalling only on a genuine stripe
//! collision for one batch at most. Batch size and an optional
//! stripes/sec rate limit come from [`RebuildConfig`]; progress is
//! published through atomics and served lock-free by
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

/// Stripe locks in the table the rebuild worker and, while a rebuild
/// runs, the shard threads lock (see the locking model).
const STRIPE_LOCKS: usize = 64;

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

/// The wire code of an array mode (`INFO`, `POOL_INFO`).
fn mode_code(mode: ArrayMode) -> u8 {
    match mode {
        ArrayMode::FaultFree => 0,
        ArrayMode::Degraded => 1,
        ArrayMode::PostReconstruction => 2,
    }
}

/// The array's failed disks, as wire disk indices.
fn failed_disks(a: &DeclusteredArray) -> Vec<u32> {
    a.failed_disks().iter().map(|&d| d as u32).collect()
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

/// State shared between request-serving threads and the rebuild thread.
struct Inner {
    /// The array is reachable lock-free (all client I/O entry points
    /// take `&self`); `quiesce` below provides the exclusion everything
    /// but the shard threads and the rebuild worker needs.
    array: DeclusteredArray,
    /// Quiesce gate: the rebuild worker holds the read side across each
    /// batch; [`Engine::quiesced`] holds the write side — after parking
    /// any runtime shards, which deliberately never touch this lock.
    quiesce: RwLock<()>,
    stripe_locks: [Mutex<()>; STRIPE_LOCKS],
    /// Volume table and free-space accounting over the array.
    volumes: VolumeManager,
    /// Tenant limits and token buckets, shared with the runtime's
    /// admission check (and charged directly by the rebuild worker).
    tenants: Arc<TenantRegistry>,
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

    fn unit_bytes(&self) -> usize {
        self.array.unit_bytes()
    }

    /// The disk a wire disk index names: `None` for an index that does
    /// not fit `usize` or is past the array's last disk.
    fn disk(&self, index: u64) -> Option<usize> {
        usize::try_from(index)
            .ok()
            .filter(|&d| d < self.array.layout().disks())
    }
}

/// Sorted, deduplicated stripe-lock indices covering `stripes` — the
/// lock set of a rebuild batch, and of a shard-exec op while a rebuild
/// runs. Work is bounded by the table size: `STRIPE_LOCKS` stripes (or
/// more) can collide with every lock, so they lock the whole table
/// instead of walking on.
fn lock_set(stripes: impl IntoIterator<Item = u64>) -> Vec<usize> {
    let mut set = Vec::new();
    for stripe in stripes {
        set.push((stripe % STRIPE_LOCKS as u64) as usize);
        if set.len() == STRIPE_LOCKS {
            return (0..STRIPE_LOCKS).collect();
        }
    }
    set.sort_unstable();
    set.dedup();
    set
}

/// The background rebuild loop: one bounded, shard-locked batch per
/// iteration, with progress published after every batch. Rebuild I/O
/// is a first-class low-priority tenant: each batch is admitted
/// through the shared registry as [`REBUILD_TENANT`] before touching
/// the array, so an operator cap on rebuild bytes/s (or ops/s) slows
/// reconstruction exactly like any rate-limited client.
fn rebuild_worker(inner: Arc<Inner>, mut ticket: RebuildTicket) {
    let batch = inner.rebuild_batch.max(1);
    let batch_bytes = batch.saturating_mul(inner.unit_bytes() as u64);
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
            let _q = rdlock(&inner.quiesce);
            // Hold only the stripe locks this batch's stripes hash to:
            // a client op collides for at most one batch, everything
            // else proceeds untouched.
            let stripes = ticket.pending_stripes().iter().copied();
            let take = usize::try_from(batch).unwrap_or(usize::MAX);
            let _guards: Vec<_> = lock_set(stripes.take(take))
                .into_iter()
                .map(|i| lock(&inner.stripe_locks[i]))
                .collect();
            inner.array.rebuild_step(&mut ticket, batch)
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

/// Shared request executor; one per served array, shared by all serving
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
    /// Wrap an array with the default rebuild knobs.
    pub fn new(array: DeclusteredArray) -> Self {
        Self::with_config(array, RebuildConfig::default())
    }

    /// Wrap an array with explicit rebuild knobs. Volume 0 is created
    /// spanning the whole array.
    pub fn with_config(array: DeclusteredArray, rebuild: RebuildConfig) -> Self {
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
        if !array.outstanding_intents().is_empty() && array.mode() == ArrayMode::FaultFree {
            let _ = array.recover();
        }
        Self {
            inner: Arc::new(Inner {
                volumes: VolumeManager::new(array.capacity_units()),
                array,
                quiesce: RwLock::new(()),
                stripe_locks: std::array::from_fn(|_| Mutex::new(())),
                tenants,
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

    /// Bytes per stripe unit — the array's I/O granularity.
    pub fn unit_bytes(&self) -> usize {
        self.inner.unit_bytes()
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
                .saturating_mul(self.inner.unit_bytes() as u64)
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

    /// Arm the array's crash hook: after `after_writes` more physical
    /// unit writes, the next write fails with `InjectedCrash` and
    /// leaves journal intents outstanding — the chaos harness's
    /// torn-batch entry point. Sets the hook quiesced (runtime parked,
    /// quiesce write lock held).
    pub fn arm_crash(&self, after_writes: u64) {
        self.quiesced(|| self.inner.array.arm_crash(after_writes));
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
    /// lock anyway.
    fn pause_runtime(&self) -> Option<Box<dyn std::any::Any + Send>> {
        lock(&self.inner.pauser).as_ref().map(|p| p())
    }

    /// Run `f` as the array's only writer: with every runtime shard
    /// thread parked and the quiesce write lock held, so no shard-exec
    /// op and no rebuild batch is mid-stripe. The one exclusion rule for
    /// every caller that is neither a shard thread nor the rebuild
    /// worker; a shard thread must never get here (it would wait for
    /// its own park).
    fn quiesced<R>(&self, f: impl FnOnce() -> R) -> R {
        let _pause = self.pause_runtime();
        let _q = wrlock(&self.inner.quiesce);
        f()
    }

    /// Geometry and failure state of the default volume 0 — the
    /// pre-volume `INFO` view, kept for single-volume callers.
    pub fn volume_info(&self) -> VolumeInfo {
        self.volume_info_for(0).expect("volume 0 always exists")
    }

    /// Geometry and failure state as seen by one volume: its own
    /// capacity, the array's disks and health.
    ///
    /// # Errors
    ///
    /// [`VolumeError::NotFound`] for a dead id.
    pub fn volume_info_for(&self, volume: u8) -> Result<VolumeInfo, VolumeError> {
        let meta = self.inner.volumes.meta(volume)?;
        let a = &self.inner.array;
        Ok(VolumeInfo {
            unit_bytes: self.inner.unit_bytes() as u32,
            capacity_units: meta.capacity_units,
            disks: a.layout().disks() as u32,
            mode: mode_code(a.mode()),
            failed: failed_disks(a),
        })
    }

    /// Array geometry, free space and health: the one row of
    /// `POOL_INFO`.
    pub fn pool_info(&self) -> PoolInfo {
        let a = &self.inner.array;
        PoolInfo {
            unit_bytes: self.inner.unit_bytes() as u32,
            volumes: self.inner.volumes.volume_count() as u16,
            arrays: vec![PoolArrayInfo {
                disks: a.layout().disks() as u32,
                capacity_units: a.capacity_units(),
                free_units: self.inner.volumes.free_units(),
                mode: mode_code(a.mode()),
                failed: failed_disks(a),
            }],
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

    /// Run a full parity scrub, quiesced (no client op or rebuild batch
    /// is mid-stripe while it runs). Returns the suspect stripes.
    pub fn scrub(&self) -> Result<Vec<u64>, ArrayError> {
        self.quiesced(|| self.inner.array.scrub())
    }

    /// Replay outstanding write-intent journal entries, quiesced;
    /// returns the stripes repaired.
    pub fn recover(&self) -> Result<u64, ArrayError> {
        self.quiesced(|| self.inner.array.recover())
    }

    /// Install a blank replacement in failed `disk`'s slot and restore
    /// its contents to completion, quiesced. Returns units restored.
    pub fn replace_disk(&self, disk: usize) -> Result<u64, ArrayError> {
        self.quiesced(|| self.inner.array.replace_and_rebuild(disk))
    }

    /// Stripes with outstanding write intents (torn by an injected
    /// fault mid-update; candidates for [`Engine::recover`]).
    pub fn outstanding_intents(&self) -> Vec<u64> {
        let _q = rdlock(&self.inner.quiesce);
        self.inner.array.outstanding_intents()
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
    // no stripe locks either; the caller must be a shard thread that
    // owns the stripes, or hold the array quiesced (the in-process data
    // ops).
    // ------------------------------------------------------------------

    /// Whether a background rebuild may currently be holding stripe
    /// locks — the one writer stripe ownership cannot order, so shard
    /// threads fall back to stripe locking while it runs.
    fn rebuild_locking(&self) -> bool {
        self.inner.rebuild.state.load(Ordering::Acquire) == REBUILD_RUNNING
    }

    /// Stripe guards for a shard-exec op on the `(phys, units)` runs in
    /// `ranges`: none (and no allocation) while stripe ownership alone
    /// orders the stripes, the covering locks while a rebuild is
    /// running.
    fn rebuild_guards(
        &self,
        ranges: impl IntoIterator<Item = (u64, u64)>,
    ) -> Vec<MutexGuard<'_, ()>> {
        if !self.rebuild_locking() {
            return Vec::new();
        }
        let layout = self.inner.array.layout();
        let stripes = ranges.into_iter().flat_map(|(phys, units)| {
            (phys..phys.saturating_add(units)).map(|unit| layout.locate(unit).0)
        });
        lock_set(stripes)
            .into_iter()
            .map(|i| lock(&self.inner.stripe_locks[i]))
            .collect()
    }

    /// Stripe index of physical unit `phys` — the routing key the
    /// runtime hashes to a shard. Pure layout arithmetic.
    pub fn stripe_of(&self, phys: u64) -> u64 {
        self.inner.array.layout().locate(phys).0
    }

    /// Validate a data op (READ, WRITE or TRIM) and resolve it through
    /// the volume table. Returns the resolved segments plus the response
    /// payload size (a READ's data; 0 for the other two).
    ///
    /// # Errors
    ///
    /// The wire status the caller should answer with.
    pub fn prepare(&self, req: &Request) -> Result<(Resolved, usize), Status> {
        let bytes = u64::from(req.length) * self.inner.unit_bytes() as u64;
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

    /// Read `out.len()` bytes of resolved physical units starting at
    /// `phys`, under the shard-exec exclusion contract. Lock-free and
    /// allocation-free while no rebuild is running.
    ///
    /// # Errors
    ///
    /// [`ArrayError`] from the device layer.
    pub fn shard_read(&self, phys: u64, out: &mut [u8]) -> Result<(), ArrayError> {
        let units = (out.len() / self.inner.unit_bytes()) as u64;
        let _guards = self.rebuild_guards([(phys, units)]);
        self.inner.array.read_into(phys, out)
    }

    /// Write a batch of physical unit runs through the array's batched
    /// journal path (one intent append, coalesced
    /// parity), under the shard-exec exclusion contract, with the
    /// caller's (a shard's) scratch. Returns one result per op, like
    /// [`DeclusteredArray::write_batch_into`]: allocation-free once
    /// `scratch` is warm, while no rebuild is running.
    pub fn shard_write_batch_into<'s>(
        &self,
        ops: &[(u64, &[u8])],
        scratch: &'s mut WriteScratch,
    ) -> &'s [Result<(), ArrayError>] {
        let unit = self.inner.unit_bytes() as u64;
        let ranges = ops
            .iter()
            .map(|&(phys, data)| (phys, data.len() as u64 / unit));
        let _guards = self.rebuild_guards(ranges);
        self.inner.array.write_batch_into(ops, scratch)
    }

    /// Zero-fill `units` physical units starting at `phys` in chunks of
    /// `zeros` (whose length fixes the chunk size), under the
    /// shard-exec exclusion contract — the owner-side half of TRIM.
    ///
    /// # Errors
    ///
    /// [`ArrayError`] from the device layer; partial progress stands.
    pub fn shard_trim(&self, phys: u64, units: u64, zeros: &[u8]) -> Result<(), ArrayError> {
        let _guards = self.rebuild_guards([(phys, units)]);
        let unit = self.inner.unit_bytes();
        let chunk_units = (zeros.len() / unit).max(1) as u64;
        let mut done = 0u64;
        while done < units {
            let n = chunk_units.min(units - done);
            self.inner
                .array
                .write(phys + done, &zeros[..n as usize * unit])?;
            done += n;
        }
        Ok(())
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

    /// Serve a READ, WRITE or TRIM on the in-process path, the whole op
    /// [quiesced](Engine::quiesced): each resolved segment runs through
    /// the runtime's own `shard_*` body, a READ's data landing straight
    /// in the frame's payload region. TRIM is a zero-fill write: parity
    /// stays consistent and later reads of the range return zeros, the
    /// strongest discard semantic the array can offer. Returns what the
    /// op resolved to, for the caller to account; `None` when it never
    /// resolved.
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
        let unit = self.inner.unit_bytes();
        let zeros = match req.op {
            Op::Trim => vec![0u8; TRIM_CHUNK_UNITS.min(u64::from(req.length)) as usize * unit],
            _ => Vec::new(),
        };
        let done = self.quiesced(|| {
            let mut scratch = WriteScratch::default();
            let mut at = 0usize;
            for seg in &resolved.segments {
                let (phys, len) = (seg.phys, seg.units as usize * unit);
                match req.op {
                    Op::Read => {
                        self.shard_read(phys, &mut frame[RESPONSE_HEADER_LEN + at..][..len])?;
                    }
                    Op::Write => {
                        let ops = [(phys, &req.payload[at..at + len])];
                        self.shard_write_batch_into(&ops, &mut scratch)[0].clone()?;
                    }
                    _ => self.shard_trim(phys, seg.units, &zeros)?,
                }
                at += len;
            }
            Ok(())
        });
        if let Err(e) = done {
            wire::demote_frame(frame, status_of(&e));
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
    /// reply reports that volume's capacity against the array's health.
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
    /// returns to the array and its tenant reference is released.
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
        let a = &self.inner.array;
        let (unit_reads, unit_writes) = a.io_counts();
        snap.counters.push(("array.unit_reads".into(), unit_reads));
        snap.counters
            .push(("array.unit_writes".into(), unit_writes));
        snap.counters
            .push(("array.degraded_reads".into(), a.degraded_reads()));
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
        let Some(disk) = self.inner.disk(req.offset) else {
            return (Status::WrongDiskState, Vec::new());
        };
        // `fail_disk` is interior-mutable, so a failure can land while
        // client I/O is in flight — exactly the timing a chaos nemesis
        // wants to exercise. No quiesce: in-flight ops observe the flip
        // mid-op and degrade, same as a real disk dying under load.
        match self.inner.array.fail_disk(disk) {
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
        let Some(disk) = inner.disk(req.offset) else {
            return (Status::WrongDiskState, Vec::new());
        };
        let ticket = {
            let _q = rdlock(&inner.quiesce);
            match inner.array.begin_rebuild(disk) {
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
            .spawn(move || rebuild_worker(worker_inner, ticket));
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
        Engine::new(array)
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
        // Failing, rebuilding or replacing a nonexistent disk.
        for op in [Op::FailDisk, Op::Rebuild] {
            for disk in [999, u64::MAX] {
                assert_eq!(
                    e.execute(0, &req(op, disk, 0, vec![])).status,
                    Status::WrongDiskState,
                    "{op:?} of disk {disk}"
                );
            }
        }
        assert_eq!(e.replace_disk(999), Err(ArrayError::WrongDiskState));
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

    /// Carve a volume out of the default volume: shrink volume 0 to free
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

    #[test]
    fn shard_set_is_sorted_and_deduplicated() {
        let e = engine();
        let a = &e.inner.array;
        a.fail_disk(2).unwrap();
        let ticket = a.begin_rebuild(2).unwrap();
        let batch = RebuildConfig::default().batch as usize;
        for set in [
            lock_set((0..64).map(|unit| a.layout().locate(unit).0)),
            lock_set(ticket.pending_stripes().iter().copied().take(batch)),
        ] {
            let mut sorted = set.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(set, sorted);
            assert!(set.iter().all(|&i| i < STRIPE_LOCKS));
        }
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
        let e = Engine::new(a);
        assert!(
            e.outstanding_intents().is_empty(),
            "startup replay must retire the intents"
        );
        assert!(e.scrub().unwrap().is_empty(), "parity repaired at startup");
    }
}
