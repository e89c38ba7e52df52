//! Live telemetry plane: lock-free sharded counters/histograms and a
//! per-shard flight recorder, merged only at scrape time.
//!
//! # Design
//!
//! The PR 1 observer serializes every event through one
//! `Arc<Mutex<Observer>>` — fine for offline simulation reports, a
//! global lock on a server hot path. This module is the live
//! replacement: a [`Telemetry`] handle owns a fixed set of
//! [`TelemetryShard`]s, worker threads are assigned shards round-robin
//! (a process-wide thread counter cached in a thread-local, so distinct
//! engines in one process never fight over an index), and every
//! recording is a handful of `Relaxed` atomic adds into the caller's
//! own shard — no locks, no allocation, no cross-shard traffic.
//! Scraping ([`Telemetry::snapshot`]) merges all shards into a sorted
//! [`TelemetrySnapshot`]; the cost lives entirely on the scraper.
//!
//! Counter reads use `Relaxed` ordering throughout: per-shard totals
//! are exact (each shard's counter is only ever added to), cross-shard
//! sums are a consistent-enough point-in-time view for metrics, and
//! nothing synchronizes *through* a counter.
//!
//! The flight recorder is a per-shard ring of fixed `SpanSlot`s, each
//! guarded by its own seqlock (`seq` odd while a writer is mid-update).
//! Writers never block; a reader that observes a torn slot simply skips
//! it. Slots are claimed with a `fetch_add` on the ring head so two
//! threads that happen to share a shard still write distinct slots.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::hist::{self, LogHistogram, BUCKETS};
use crate::json::escape_json;

/// Operation kinds mirrored from the server wire protocol, used to
/// index fixed per-shard counter/histogram arrays (no name lookups on
/// the hot path).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum OpKind {
    /// READ — bulk data out.
    Read,
    /// WRITE — bulk data in.
    Write,
    /// TRIM — zero-fill a range.
    Trim,
    /// FLUSH — ordering barrier.
    Flush,
    /// INFO — volume geometry.
    Info,
    /// FAIL_DISK — fault injection.
    FailDisk,
    /// REBUILD — start background repair.
    Rebuild,
    /// REBUILD_STATUS — repair progress poll.
    RebuildStatus,
    /// STATS — telemetry snapshot scrape.
    Stats,
    /// TRACE_DUMP — flight-recorder dump.
    TraceDump,
    /// VOLUME_CREATE — carve a new volume from the pool.
    VolumeCreate,
    /// VOLUME_DELETE — return a volume's capacity to the pool.
    VolumeDelete,
    /// VOLUME_RESIZE — grow or shrink a volume.
    VolumeResize,
    /// VOLUME_LIST — the volume table.
    VolumeList,
    /// POOL_INFO — pool-level geometry and free space.
    PoolInfo,
}

impl OpKind {
    /// Every kind, in index order.
    pub const ALL: [OpKind; 15] = [
        OpKind::Read,
        OpKind::Write,
        OpKind::Trim,
        OpKind::Flush,
        OpKind::Info,
        OpKind::FailDisk,
        OpKind::Rebuild,
        OpKind::RebuildStatus,
        OpKind::Stats,
        OpKind::TraceDump,
        OpKind::VolumeCreate,
        OpKind::VolumeDelete,
        OpKind::VolumeResize,
        OpKind::VolumeList,
        OpKind::PoolInfo,
    ];

    /// Dense index into per-shard arrays.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Inverse of [`OpKind::index`].
    pub fn from_index(i: usize) -> Option<OpKind> {
        Self::ALL.get(i).copied()
    }

    /// Snake-case metric-name component.
    pub fn name(self) -> &'static str {
        match self {
            OpKind::Read => "read",
            OpKind::Write => "write",
            OpKind::Trim => "trim",
            OpKind::Flush => "flush",
            OpKind::Info => "info",
            OpKind::FailDisk => "fail_disk",
            OpKind::Rebuild => "rebuild",
            OpKind::RebuildStatus => "rebuild_status",
            OpKind::Stats => "stats",
            OpKind::TraceDump => "trace_dump",
            OpKind::VolumeCreate => "volume_create",
            OpKind::VolumeDelete => "volume_delete",
            OpKind::VolumeResize => "volume_resize",
            OpKind::VolumeList => "volume_list",
            OpKind::PoolInfo => "pool_info",
        }
    }
}

const OP_KINDS: usize = OpKind::ALL.len();

/// A [`LogHistogram`] mirror recordable concurrently without locks:
/// same 129 √2-spaced buckets, every field an atomic updated with
/// `Relaxed` ordering. `snapshot()` materializes a plain
/// [`LogHistogram`] (bucket-for-bucket identical to sequential
/// recording of the same samples — bucket merges are exact addition).
pub struct AtomicHistogram {
    buckets: [AtomicU64; BUCKETS],
    /// Sum of samples; u64 ns wraps after ~584 years of recorded time.
    sum: AtomicU64,
    /// `u64::MAX` until the first sample (matches `LogHistogram::new`).
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for AtomicHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl AtomicHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Record one sample — lock-free, allocation-free, `Relaxed` only.
    pub fn record(&self, v: u64) {
        self.buckets[hist::bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Samples recorded so far (sum of bucket counts).
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Materialize a point-in-time [`LogHistogram`]. Concurrent
    /// recording is fine: each bucket is read atomically, so the result
    /// is a valid histogram even if it straddles in-flight records.
    pub fn snapshot(&self) -> LogHistogram {
        let counts: [u64; BUCKETS] =
            std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed));
        LogHistogram::from_parts(
            counts,
            self.sum.load(Ordering::Relaxed) as u128,
            self.min.load(Ordering::Relaxed),
            self.max.load(Ordering::Relaxed),
        )
    }
}

/// One completed operation as remembered by the flight recorder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpSpan {
    /// Shard (≈ worker) that executed the op.
    pub worker: u16,
    /// Captured by the slow-op ring (total latency over threshold).
    pub slow: bool,
    /// Wire request id.
    pub id: u64,
    /// Operation kind.
    pub op: OpKind,
    /// Wire status code of the response.
    pub status: u8,
    /// Logical unit offset.
    pub offset: u64,
    /// Unit count (reads/trims) or payload units (writes).
    pub len: u32,
    /// Start of service, ns since the engine epoch.
    pub start_ns: u64,
    /// Time spent queued before a worker picked the op up.
    pub queue_ns: u64,
    /// Time inside the array/service path.
    pub array_ns: u64,
    /// Queue wait + service.
    pub total_ns: u64,
}

/// What the engine records per completed op (span fields minus the
/// recorder-assigned `worker`/`slow`, plus byte accounting).
#[derive(Debug, Clone, Copy)]
pub struct OpRecord {
    /// Wire request id.
    pub id: u64,
    /// Operation kind.
    pub op: OpKind,
    /// Wire status code of the response.
    pub status: u8,
    /// Whether the status counts as success (OK / ACCEPTED).
    pub ok: bool,
    /// Logical unit offset.
    pub offset: u64,
    /// Unit count from the request header.
    pub len: u32,
    /// Payload bytes returned (reads).
    pub bytes_read: u64,
    /// Payload bytes ingested (writes).
    pub bytes_written: u64,
    /// Start of service, ns since the engine epoch.
    pub start_ns: u64,
    /// Queue wait before service, ns.
    pub queue_ns: u64,
    /// Service time, ns.
    pub array_ns: u64,
    /// Queue wait + service, ns.
    pub total_ns: u64,
}

/// Sentinel for an empty span slot (`seq` starts at 0; first write
/// makes it odd, completion makes it ≥ 2).
const SLOT_EMPTY: u64 = 0;

/// One seqlock-guarded span slot. A writer makes `seq` odd, publishes
/// the fields, then stores `seq + 2` with `Release`; a reader loads
/// `seq` with `Acquire`, copies the fields, then re-checks `seq` — any
/// change (or odd parity) means the copy may be torn and is discarded.
struct SpanSlot {
    seq: AtomicU64,
    /// `id`, packed meta (`len << 16 | status << 8 | op`), `offset`,
    /// `start_ns`, `queue_ns`, `array_ns`, `total_ns`.
    words: [AtomicU64; 7],
}

impl SpanSlot {
    fn new() -> Self {
        Self {
            seq: AtomicU64::new(SLOT_EMPTY),
            words: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    fn write(&self, rec: &OpRecord) {
        let seq = self.seq.load(Ordering::Relaxed);
        // Force odd even if a concurrent wrap-around writer left it odd
        // already; readers discard the slot either way.
        self.seq.store(seq | 1, Ordering::Relaxed);
        std::sync::atomic::fence(Ordering::Release);
        let meta = ((rec.len as u64) << 16) | ((rec.status as u64) << 8) | rec.op.index() as u64;
        let words = [
            rec.id,
            meta,
            rec.offset,
            rec.start_ns,
            rec.queue_ns,
            rec.array_ns,
            rec.total_ns,
        ];
        for (w, v) in self.words.iter().zip(words) {
            w.store(v, Ordering::Relaxed);
        }
        self.seq.store((seq | 1).wrapping_add(1), Ordering::Release);
    }

    fn read(&self, worker: u16, slow: bool) -> Option<OpSpan> {
        for _ in 0..4 {
            let s1 = self.seq.load(Ordering::Acquire);
            if s1 == SLOT_EMPTY || s1 & 1 == 1 {
                if s1 == SLOT_EMPTY {
                    return None;
                }
                continue; // writer in flight — retry
            }
            let words: [u64; 7] = std::array::from_fn(|i| self.words[i].load(Ordering::Relaxed));
            std::sync::atomic::fence(Ordering::Acquire);
            if self.seq.load(Ordering::Relaxed) != s1 {
                continue;
            }
            let meta = words[1];
            return Some(OpSpan {
                worker,
                slow,
                id: words[0],
                op: OpKind::from_index((meta & 0xff) as usize)?,
                status: ((meta >> 8) & 0xff) as u8,
                offset: words[2],
                len: (meta >> 16) as u32,
                start_ns: words[3],
                queue_ns: words[4],
                array_ns: words[5],
                total_ns: words[6],
            });
        }
        None // persistently torn — skip rather than block
    }
}

/// A lock-free ring of span slots. `push` claims a slot by bumping
/// `head`, so concurrent writers (two threads sharing a shard) land in
/// distinct slots; only a full wrap-around during one write could tear
/// a slot, and the seqlock turns that into a skipped entry, never a
/// blocked writer or a garbled span.
struct SpanRing {
    slots: Box<[SpanSlot]>,
    head: AtomicU64,
}

impl SpanRing {
    fn new(capacity: usize) -> Self {
        Self {
            slots: (0..capacity.max(1)).map(|_| SpanSlot::new()).collect(),
            head: AtomicU64::new(0),
        }
    }

    fn push(&self, rec: &OpRecord) {
        let h = self.head.fetch_add(1, Ordering::Relaxed);
        self.slots[(h % self.slots.len() as u64) as usize].write(rec);
    }

    /// Readable spans, oldest first (torn/empty slots skipped).
    fn collect(&self, worker: u16, slow: bool, out: &mut Vec<OpSpan>) {
        let cap = self.slots.len() as u64;
        let head = self.head.load(Ordering::Acquire);
        let start = head.saturating_sub(cap);
        for i in start..head {
            if let Some(span) = self.slots[(i % cap) as usize].read(worker, slow) {
                out.push(span);
            }
        }
    }
}

/// Ring capacity for recent ops, per shard.
const RECENT_SPANS: usize = 256;
/// Ring capacity for slow ops, per shard.
const SLOW_SPANS: usize = 64;
/// Default slow-op capture threshold: 10 ms.
pub const DEFAULT_SLOW_THRESHOLD_NS: u64 = 10_000_000;

/// One worker's private slice of the telemetry plane. All fields are
/// plain atomics — recording takes no lock and allocates nothing.
pub struct TelemetryShard {
    ops: [AtomicU64; OP_KINDS],
    errors: [AtomicU64; OP_KINDS],
    bytes_read: AtomicU64,
    bytes_written: AtomicU64,
    latency: [AtomicHistogram; OP_KINDS],
    queue_wait: AtomicHistogram,
    recent: SpanRing,
    slow: SpanRing,
}

impl TelemetryShard {
    fn new() -> Self {
        Self {
            ops: std::array::from_fn(|_| AtomicU64::new(0)),
            errors: std::array::from_fn(|_| AtomicU64::new(0)),
            bytes_read: AtomicU64::new(0),
            bytes_written: AtomicU64::new(0),
            latency: std::array::from_fn(|_| AtomicHistogram::new()),
            queue_wait: AtomicHistogram::new(),
            recent: SpanRing::new(RECENT_SPANS),
            slow: SpanRing::new(SLOW_SPANS),
        }
    }
}

/// Process-wide thread numbering for shard assignment. A thread's
/// number is assigned once (first recording anywhere) and reused for
/// every `Telemetry` instance, so two engines in one test process give
/// the same thread the same shard index modulo their own shard counts.
static THREAD_SEQ: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static THREAD_IDX: usize = THREAD_SEQ.fetch_add(1, Ordering::Relaxed);
}

/// A named scrape-time gauge callback (see
/// [`Telemetry::set_gauge_source`]).
type GaugeSource = (String, Box<dyn Fn() -> f64 + Send + Sync>);

/// A named scrape-time counter callback (see
/// [`Telemetry::set_counter_source`]).
type CounterSource = (String, Box<dyn Fn() -> u64 + Send + Sync>);

/// The live telemetry plane: sharded lock-free recording, merge-at-
/// scrape snapshots, and the flight recorder. Shared as `Arc`.
pub struct Telemetry {
    shards: Vec<TelemetryShard>,
    slow_threshold_ns: AtomicU64,
    /// Scrape-time-only gauge sources (e.g. queue depth); never touched
    /// on the recording path, so the `Mutex` costs nothing per op.
    gauge_sources: Mutex<Vec<GaugeSource>>,
    /// Scrape-time-only monotone counter sources (e.g. shard wakeups);
    /// same contract as `gauge_sources` but rendered as counters.
    counter_sources: Mutex<Vec<CounterSource>>,
}

impl Telemetry {
    /// A plane with `shards` shards (minimum 1); size it to the worker
    /// pool — extra threads share shards round-robin, which is safe
    /// (atomics) just slightly less private.
    pub fn new(shards: usize) -> Self {
        Self {
            shards: (0..shards.max(1)).map(|_| TelemetryShard::new()).collect(),
            slow_threshold_ns: AtomicU64::new(DEFAULT_SLOW_THRESHOLD_NS),
            gauge_sources: Mutex::new(Vec::new()),
            counter_sources: Mutex::new(Vec::new()),
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Ops with `total_ns` at or above this land in the slow ring too.
    pub fn set_slow_threshold_ns(&self, ns: u64) {
        self.slow_threshold_ns.store(ns, Ordering::Relaxed);
    }

    /// Current slow-op capture threshold.
    pub fn slow_threshold_ns(&self) -> u64 {
        self.slow_threshold_ns.load(Ordering::Relaxed)
    }

    /// Register a gauge evaluated only at scrape time (queue depth,
    /// connection counts). Re-registering a name replaces it.
    pub fn set_gauge_source(&self, name: &str, f: Box<dyn Fn() -> f64 + Send + Sync>) {
        let mut sources = self
            .gauge_sources
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(slot) = sources.iter_mut().find(|(n, _)| n == name) {
            slot.1 = f;
        } else {
            sources.push((name.to_string(), f));
        }
    }

    /// Drop all scrape-time gauge sources (server shutdown calls this
    /// so a queue-depth closure cannot keep the server alive).
    pub fn clear_gauge_sources(&self) {
        self.gauge_sources
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clear();
    }

    /// Register a monotone counter evaluated only at scrape time
    /// (shard wakeups, accept errors). Re-registering a name replaces
    /// it. The callback must be non-decreasing for rate math to hold.
    pub fn set_counter_source(&self, name: &str, f: Box<dyn Fn() -> u64 + Send + Sync>) {
        let mut sources = self
            .counter_sources
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(slot) = sources.iter_mut().find(|(n, _)| n == name) {
            slot.1 = f;
        } else {
            sources.push((name.to_string(), f));
        }
    }

    /// Drop all scrape-time counter sources (pairs with
    /// [`Telemetry::clear_gauge_sources`] at server shutdown).
    pub fn clear_counter_sources(&self) {
        self.counter_sources
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clear();
    }

    /// This thread's shard.
    fn shard(&self) -> &TelemetryShard {
        let idx = THREAD_IDX.with(|i| *i);
        &self.shards[idx % self.shards.len()]
    }

    /// Record one completed op into the calling thread's shard:
    /// counters, latency + queue-wait histograms, and the flight
    /// recorder. Lock-free and allocation-free.
    pub fn record(&self, rec: &OpRecord) {
        let shard = self.shard();
        let op = rec.op.index();
        shard.ops[op].fetch_add(1, Ordering::Relaxed);
        if !rec.ok {
            shard.errors[op].fetch_add(1, Ordering::Relaxed);
        }
        if rec.bytes_read > 0 {
            shard
                .bytes_read
                .fetch_add(rec.bytes_read, Ordering::Relaxed);
        }
        if rec.bytes_written > 0 {
            shard
                .bytes_written
                .fetch_add(rec.bytes_written, Ordering::Relaxed);
        }
        shard.latency[op].record(rec.total_ns);
        shard.queue_wait.record(rec.queue_ns);
        shard.recent.push(rec);
        if rec.total_ns >= self.slow_threshold_ns.load(Ordering::Relaxed) {
            shard.slow.push(rec);
        }
    }

    /// Merge every shard into a deterministically sorted snapshot.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let mut snap = TelemetrySnapshot::default();
        let mut bytes_read = 0u64;
        let mut bytes_written = 0u64;
        let mut ops = [0u64; OP_KINDS];
        let mut errors = [0u64; OP_KINDS];
        let mut latency: Vec<LogHistogram> = (0..OP_KINDS).map(|_| LogHistogram::new()).collect();
        let mut queue_wait = LogHistogram::new();
        for shard in &self.shards {
            bytes_read += shard.bytes_read.load(Ordering::Relaxed);
            bytes_written += shard.bytes_written.load(Ordering::Relaxed);
            for i in 0..OP_KINDS {
                ops[i] += shard.ops[i].load(Ordering::Relaxed);
                errors[i] += shard.errors[i].load(Ordering::Relaxed);
                latency[i].merge(&shard.latency[i].snapshot());
            }
            queue_wait.merge(&shard.queue_wait.snapshot());
        }
        snap.counters.push(("bytes.read".into(), bytes_read));
        snap.counters.push(("bytes.written".into(), bytes_written));
        for kind in OpKind::ALL {
            let i = kind.index();
            snap.counters
                .push((format!("op.{}.count", kind.name()), ops[i]));
            snap.counters
                .push((format!("op.{}.errors", kind.name()), errors[i]));
            if latency[i].count() > 0 {
                snap.hists
                    .push((format!("latency.{}_ns", kind.name()), latency[i].clone()));
            }
        }
        if queue_wait.count() > 0 {
            snap.hists
                .push(("latency.queue_wait_ns".into(), queue_wait));
        }
        {
            let sources = self
                .gauge_sources
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            for (name, f) in sources.iter() {
                snap.gauges.push((name.clone(), f()));
            }
        }
        {
            let sources = self
                .counter_sources
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            for (name, f) in sources.iter() {
                snap.counters.push((name.clone(), f()));
            }
        }
        snap.sort();
        snap
    }

    /// Flight-recorder contents across all shards: recent ops plus
    /// slow-op captures, sorted by start time (slow entries carry
    /// `slow = true`; an op can appear in both rings).
    pub fn spans(&self) -> Vec<OpSpan> {
        let mut out = Vec::new();
        for (i, shard) in self.shards.iter().enumerate() {
            shard.recent.collect(i as u16, false, &mut out);
            shard.slow.collect(i as u16, true, &mut out);
        }
        out.sort_by_key(|s| (s.start_ns, s.worker, s.id, s.slow));
        out
    }
}

/// A merged, sorted point-in-time view of the telemetry plane — what
/// `STATS` carries on the wire and `/metrics` renders.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TelemetrySnapshot {
    /// Monotonic counters, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Point-in-time gauges, sorted by name.
    pub gauges: Vec<(String, f64)>,
    /// Latency histograms, sorted by name.
    pub hists: Vec<(String, LogHistogram)>,
}

impl TelemetrySnapshot {
    /// Current snapshot payload version.
    pub const VERSION: u16 = 1;

    /// Restore the sorted-by-name invariant after inserting rows.
    pub fn sort(&mut self) {
        self.counters.sort_by(|a, b| a.0.cmp(&b.0));
        self.gauges.sort_by(|a, b| a.0.cmp(&b.0));
        self.hists.sort_by(|a, b| a.0.cmp(&b.0));
    }

    /// Counter value by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Gauge value by name.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Histogram by name.
    pub fn hist(&self, name: &str) -> Option<&LogHistogram> {
        self.hists.iter().find(|(n, _)| n == name).map(|(_, h)| h)
    }

    /// Prometheus text exposition (format 0.0.4). Metric names are
    /// prefixed `pddl_` with non-`[a-zA-Z0-9_]` bytes mapped to `_`;
    /// a `{label="…",…}` suffix in a counter/gauge name is passed
    /// through verbatim (only the family prefix is mangled), and the
    /// `# TYPE` header is emitted once per family — labelled series of
    /// one family are adjacent because snapshots are name-sorted.
    /// Histograms emit cumulative `_bucket{le="…"}` rows over non-empty
    /// buckets plus `+Inf`, `_sum`, and `_count`.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let mut last_family = String::new();
        for (name, v) in &self.counters {
            let (n, labels) = prom_series(name);
            if n != last_family {
                out.push_str(&format!("# TYPE {n} counter\n"));
                last_family.clone_from(&n);
            }
            out.push_str(&format!("{n}{labels} {v}\n"));
        }
        last_family.clear();
        for (name, v) in &self.gauges {
            let (n, labels) = prom_series(name);
            if n != last_family {
                out.push_str(&format!("# TYPE {n} gauge\n"));
                last_family.clone_from(&n);
            }
            out.push_str(&format!("{n}{labels} {v}\n"));
        }
        for (name, h) in &self.hists {
            let n = prom_name(name);
            out.push_str(&format!("# TYPE {n} histogram\n"));
            let mut cumulative = 0u64;
            for (_, upper, count) in h.nonzero_buckets() {
                cumulative += count;
                if upper < u64::MAX {
                    out.push_str(&format!("{n}_bucket{{le=\"{upper}\"}} {cumulative}\n"));
                }
            }
            out.push_str(&format!("{n}_bucket{{le=\"+Inf\"}} {}\n", h.count()));
            out.push_str(&format!("{n}_sum {}\n{n}_count {}\n", h.sum(), h.count()));
        }
        out
    }

    /// Human-oriented table for `pddl stats` / `pddl top`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            out.push_str(&format!("{name:<32} {v}\n"));
        }
        for (name, v) in &self.gauges {
            out.push_str(&format!("{name:<32} {v}\n"));
        }
        for (name, h) in &self.hists {
            out.push_str(&format!(
                "{name:<32} n={} p50={} p99={} max={}\n",
                h.count(),
                h.quantile(0.5),
                h.quantile(0.99),
                h.max()
            ));
        }
        out
    }
}

fn prom_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 5);
    out.push_str("pddl_");
    for c in name.chars() {
        out.push(if c.is_ascii_alphanumeric() || c == '_' {
            c
        } else {
            '_'
        });
    }
    out
}

/// Split a snapshot row name into a mangled family name and a verbatim
/// label block: `volume.reads{volume="1"}` →
/// (`pddl_volume_reads`, `{volume="1"}`).
fn prom_series(name: &str) -> (String, &str) {
    match name.split_once('{') {
        Some((family, _)) => (prom_name(family), &name[family.len()..]),
        None => (prom_name(name), ""),
    }
}

/// Export flight-recorder spans as Chrome trace-event JSON (the same
/// dialect [`crate::EventTracer`] emits, loadable in Perfetto): one
/// thread track per worker shard, one `"X"` complete slice per span
/// with queue/array breakdown and wire metadata in `args`.
pub fn spans_chrome_json(spans: &[OpSpan]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;
    let mut push = |s: String, first: &mut bool| {
        if !*first {
            out.push(',');
        }
        *first = false;
        out.push_str(&s);
    };
    push(
        "{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\",\"args\":{\"name\":\"pddl-server\"}}"
            .to_string(),
        &mut first,
    );
    let mut workers: Vec<u16> = spans.iter().map(|s| s.worker).collect();
    workers.sort_unstable();
    workers.dedup();
    for w in &workers {
        push(
            format!(
                "{{\"ph\":\"M\",\"pid\":1,\"tid\":{},\"name\":\"thread_name\",\"args\":{{\"name\":\"{}\"}}}}",
                *w as u64 + 1,
                escape_json(&format!("worker {w}"))
            ),
            &mut first,
        );
    }
    for s in spans {
        push(
            format!(
                "{{\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{},\"dur\":{},\"name\":\"{}\",\"args\":{{\"id\":{},\"offset\":{},\"len\":{},\"status\":{},\"queue_us\":{},\"array_us\":{},\"slow\":{}}}}}",
                s.worker as u64 + 1,
                s.start_ns / 1_000,
                (s.total_ns / 1_000).max(1),
                escape_json(s.op.name()),
                s.id,
                s.offset,
                s.len,
                s.status,
                s.queue_ns / 1_000,
                s.array_ns / 1_000,
                s.slow
            ),
            &mut first,
        );
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::validate_json;
    use std::sync::Arc;

    fn rec(op: OpKind, total_ns: u64) -> OpRecord {
        OpRecord {
            id: 1,
            op,
            status: 0,
            ok: true,
            offset: 0,
            len: 1,
            bytes_read: 0,
            bytes_written: 0,
            start_ns: 0,
            queue_ns: total_ns / 4,
            array_ns: total_ns - total_ns / 4,
            total_ns,
        }
    }

    #[test]
    fn op_kind_index_round_trips() {
        for (i, kind) in OpKind::ALL.iter().enumerate() {
            assert_eq!(kind.index(), i);
            assert_eq!(OpKind::from_index(i), Some(*kind));
        }
        assert_eq!(OpKind::from_index(OpKind::ALL.len()), None);
    }

    #[test]
    fn atomic_histogram_matches_sequential() {
        let a = AtomicHistogram::new();
        let mut h = LogHistogram::new();
        let mut x = 42u64;
        for _ in 0..10_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let v = x >> 30;
            a.record(v);
            h.record(v);
        }
        assert_eq!(a.snapshot(), h);
    }

    #[test]
    fn snapshot_is_sorted_and_deterministic() {
        let t = Telemetry::new(4);
        t.record(&rec(OpKind::Write, 500));
        t.record(&rec(OpKind::Read, 900));
        t.set_gauge_source("queue.depth", Box::new(|| 3.0));
        let a = t.snapshot();
        let b = t.snapshot();
        assert_eq!(a, b);
        for rows in [
            a.counters
                .iter()
                .map(|(n, _)| n.clone())
                .collect::<Vec<_>>(),
            a.hists.iter().map(|(n, _)| n.clone()).collect::<Vec<_>>(),
        ] {
            let mut sorted = rows.clone();
            sorted.sort();
            assert_eq!(rows, sorted);
        }
        assert_eq!(a.counter("op.read.count"), Some(1));
        assert_eq!(a.counter("op.write.count"), Some(1));
        assert_eq!(a.counter("op.trim.count"), Some(0));
        assert_eq!(a.gauge("queue.depth"), Some(3.0));
        assert!(a.hist("latency.read_ns").is_some());
    }

    #[test]
    fn flight_recorder_keeps_recent_and_slow() {
        let t = Telemetry::new(1);
        t.set_slow_threshold_ns(1_000_000);
        for i in 0..10u64 {
            let mut r = rec(OpKind::Read, 1_000 + i);
            r.id = i;
            r.start_ns = i * 10;
            t.record(&r);
        }
        let mut slow = rec(OpKind::Write, 5_000_000);
        slow.id = 99;
        slow.start_ns = 1_000;
        t.record(&slow);
        let spans = t.spans();
        assert_eq!(spans.len(), 12); // 11 recent + 1 slow capture
        assert_eq!(spans.iter().filter(|s| s.slow).count(), 1);
        let s = spans.iter().find(|s| s.slow).unwrap();
        assert_eq!(s.id, 99);
        assert_eq!(s.op, OpKind::Write);
        assert_eq!(s.total_ns, 5_000_000);
    }

    #[test]
    fn ring_overwrites_oldest() {
        let t = Telemetry::new(1);
        for i in 0..(RECENT_SPANS as u64 + 50) {
            let mut r = rec(OpKind::Read, 10);
            r.id = i;
            r.start_ns = i;
            t.record(&r);
        }
        let spans: Vec<_> = t.spans().into_iter().filter(|s| !s.slow).collect();
        assert_eq!(spans.len(), RECENT_SPANS);
        assert_eq!(spans.first().unwrap().id, 50);
        assert_eq!(spans.last().unwrap().id, RECENT_SPANS as u64 + 49);
    }

    #[test]
    fn concurrent_recording_is_exact() {
        let t = Arc::new(Telemetry::new(4));
        let threads: Vec<_> = (0..8)
            .map(|ti| {
                let t = Arc::clone(&t);
                std::thread::spawn(move || {
                    for i in 0..1_000u64 {
                        let mut r = rec(OpKind::Read, (ti * 1_000 + i) % 7_777 + 1);
                        r.ok = i % 10 != 0;
                        t.record(&r);
                    }
                })
            })
            .collect();
        for th in threads {
            th.join().unwrap();
        }
        let snap = t.snapshot();
        assert_eq!(snap.counter("op.read.count"), Some(8_000));
        assert_eq!(snap.counter("op.read.errors"), Some(800));
        assert_eq!(snap.hist("latency.read_ns").unwrap().count(), 8_000);
    }

    #[test]
    fn prometheus_rendering_is_wellformed() {
        let t = Telemetry::new(1);
        t.record(&rec(OpKind::Read, 1_234));
        t.set_gauge_source("queue.depth", Box::new(|| 0.0));
        let text = t.snapshot().to_prometheus();
        assert!(text.contains("# TYPE pddl_op_read_count counter"));
        assert!(text.contains("pddl_op_read_count 1"));
        assert!(text.contains("# TYPE pddl_queue_depth gauge"));
        assert!(text.contains("# TYPE pddl_latency_read_ns histogram"));
        assert!(text.contains("pddl_latency_read_ns_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("pddl_latency_read_ns_count 1"));
        // Cumulative buckets are nondecreasing.
        let mut prev = 0u64;
        for line in text.lines().filter(|l| l.contains("_read_ns_bucket")) {
            let v: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(v >= prev);
            prev = v;
        }
    }

    #[test]
    fn prometheus_labelled_series_share_one_type_header() {
        let mut snap = TelemetrySnapshot::default();
        snap.counters
            .push(("volume.reads{tenant=\"7\",volume=\"1\"}".into(), 4));
        snap.counters
            .push(("volume.reads{tenant=\"0\",volume=\"0\"}".into(), 9));
        snap.counters.push(("bytes.read".into(), 100));
        snap.sort();
        let text = snap.to_prometheus();
        // One TYPE header for the family, label blocks verbatim.
        assert_eq!(text.matches("# TYPE pddl_volume_reads counter").count(), 1);
        assert!(text.contains("pddl_volume_reads{tenant=\"0\",volume=\"0\"} 9"));
        assert!(text.contains("pddl_volume_reads{tenant=\"7\",volume=\"1\"} 4"));
        assert!(text.contains("# TYPE pddl_bytes_read counter"));
        assert!(text.contains("pddl_bytes_read 100"));
    }

    #[test]
    fn chrome_span_export_is_valid_json() {
        let t = Telemetry::new(2);
        t.record(&rec(OpKind::Read, 10_000));
        t.record(&rec(OpKind::Write, 20_000));
        let json = spans_chrome_json(&t.spans());
        validate_json(&json).unwrap();
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("pddl-server"));
    }
}
