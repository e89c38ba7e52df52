//! The declustered array: layout + parity + failure lifecycle.
//!
//! # Threading model
//!
//! The array is `Send + Sync`. Client I/O ([`DeclusteredArray::read`],
//! [`DeclusteredArray::write`], [`DeclusteredArray::scrub`]) takes
//! `&self` and may run concurrently from many threads: each disk sits
//! behind its own mutex (a disk serves one op at a time, as in
//! hardware), and the shared bookkeeping (I/O counters, write-intent
//! journal, observer sequence) is atomic or mutex-guarded.
//! [`DeclusteredArray::fail_disk`] also takes `&self`: all of its
//! bookkeeping lives behind the same locks, so a failure can be
//! injected while client I/O and a rebuild are in flight — a reader
//! either sees the disk before the failure (reads it) or after
//! (reconstructs through parity), never a half-failed device.
//!
//! One invariant is the *caller's* job: two concurrent writes to the
//! **same stripe** race on the parity read-modify-write and can leave
//! the stripe inconsistent — exactly the hazard a real controller
//! serializes in firmware. `pddl-server` enforces this with a
//! stripe-striped lock table; embedders driving the array directly from
//! multiple threads must do the same. Writes to distinct stripes need
//! no external coordination. The remaining lifecycle operations
//! (replacement installation, journal recovery) quiesce writes and
//! thus exclude all concurrent I/O by construction.
//!
//! Rebuild is *online*: [`DeclusteredArray::begin_rebuild`] and
//! [`DeclusteredArray::rebuild_step`] take `&self`, so client I/O keeps
//! flowing while a ticket is stepped in bounded batches. The same
//! same-stripe rule extends to rebuild: a step that repairs stripe `s`
//! must not race a client *write* to `s` (it reconstructs from a
//! snapshot of the stripe), so callers serialize rebuild batches against
//! writes to the stripes in the batch — `pddl-server` does this with the
//! same stripe-lock table it uses for writes.

use std::collections::{BTreeSet, HashMap, HashSet};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

use pddl_core::addr::{PhysAddr, Role};
use pddl_core::layout::Layout;
use pddl_core::plan::{plan_stripe_write, StripeWrite, Unit, WriteMethod, WritePolicy};
use pddl_disk::fault::{AccessKind, FaultHook};
use pddl_gf::kernels;
use pddl_gf::rs::{CodecError, ReedSolomon};
use pddl_obs::{Event as ObsEvent, SyncSharedSink};
use std::sync::Arc;

use crate::blockdev::{BlockDevice, DiskError, RamDisk};

/// Lock a mutex, recovering the data from a poisoned lock: a panicking
/// peer thread must not cascade into aborting every other request.
fn lock<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Read-lock an `RwLock`, recovering from poisoning (same rationale as
/// [`lock`]).
fn rlock<T: ?Sized>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Write-lock an `RwLock`, recovering from poisoning.
fn wlock<T: ?Sized>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Errors from array operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArrayError {
    /// Address or length outside the client data space, or a length not
    /// a multiple of the stripe-unit size.
    BadAddress,
    /// A stripe lost more units than its check units can recover.
    Unrecoverable {
        /// The stripe in question.
        stripe: u64,
    },
    /// The layout has no spare space to rebuild into.
    NoSpareSpace,
    /// The spare cell needed lives on a disk that is itself failed.
    SpareUnavailable,
    /// The layout advertises sparing but produced no spare cell for an
    /// affected stripe — a layout bug or unsupported configuration.
    SpareMissing {
        /// The stripe with no spare cell.
        stripe: u64,
    },
    /// The disk is not in the state the operation needs.
    WrongDiskState,
    /// An injected crash fired (fault-injection hook); the interrupted
    /// stripes stay recorded in the intent journal until
    /// [`DeclusteredArray::recover`] runs.
    InjectedCrash,
    /// A single-unit media error (from the attached
    /// [`FaultHook`](pddl_disk::fault::FaultHook)) failed a write. Read
    /// media errors are absorbed by parity reconstruction and only
    /// surface when the stripe has no redundancy left
    /// ([`ArrayError::Unrecoverable`]).
    MediaError {
        /// Disk whose unit suffered the media error.
        disk: usize,
        /// Unit offset on that disk.
        offset: u64,
    },
    /// A device-level error leaked through (bug or double failure).
    Disk(DiskError),
    /// An erasure-coding error.
    Codec(CodecError),
}

impl fmt::Display for ArrayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArrayError::BadAddress => write!(f, "address outside client data space"),
            ArrayError::Unrecoverable { stripe } => {
                write!(f, "stripe {stripe} lost more units than it can recover")
            }
            ArrayError::NoSpareSpace => write!(f, "layout has no spare space"),
            ArrayError::SpareUnavailable => write!(f, "spare cell is on a failed disk"),
            ArrayError::SpareMissing { stripe } => {
                write!(f, "layout provided no spare cell for stripe {stripe}")
            }
            ArrayError::WrongDiskState => write!(f, "disk not in required state"),
            ArrayError::InjectedCrash => write!(f, "injected crash fired"),
            ArrayError::MediaError { disk, offset } => {
                write!(f, "media error on disk {disk} unit {offset}")
            }
            ArrayError::Disk(e) => write!(f, "disk error: {e}"),
            ArrayError::Codec(e) => write!(f, "codec error: {e}"),
        }
    }
}

impl std::error::Error for ArrayError {}

impl From<DiskError> for ArrayError {
    fn from(e: DiskError) -> Self {
        ArrayError::Disk(e)
    }
}

impl From<CodecError> for ArrayError {
    fn from(e: CodecError) -> Self {
        ArrayError::Codec(e)
    }
}

/// The array's operating mode with respect to one disk slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrayMode {
    /// All disks healthy, no redirects.
    FaultFree,
    /// At least one failed disk whose contents have not been rebuilt.
    Degraded,
    /// All failed disks' contents live in spare space (redirected).
    PostReconstruction,
}

/// What a [`RebuildTicket`] restores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RebuildKind {
    /// Reconstruct a failed disk's units into the layout's distributed
    /// spare space (degraded → post-reconstruction).
    Spare,
    /// Restore an installed replacement disk's contents, by copy-back
    /// from spare space or by reconstruction (→ fault-free).
    CopyBack,
}

/// Progress snapshot returned by [`DeclusteredArray::rebuild_step`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RebuildProgress {
    /// Stripe units repaired so far (including units found already safe).
    pub repaired: u64,
    /// Total stripe units this rebuild set out to repair.
    pub total: u64,
    /// Whether the rebuild has completed and the disk state transitioned.
    pub done: bool,
}

/// A resumable, incremental rebuild: created by
/// [`DeclusteredArray::begin_rebuild`] /
/// [`DeclusteredArray::begin_copy_back`] with the full affected-stripe
/// set computed up front, then advanced in bounded batches by
/// [`DeclusteredArray::rebuild_step`]. Client I/O proceeds between (and
/// during) steps.
///
/// Dropping a ticket mid-way is safe: completed units stay repaired
/// (redirects inserted / copy-backs applied), and a fresh `begin_*`
/// call skips them.
#[derive(Debug)]
pub struct RebuildTicket {
    disk: usize,
    kind: RebuildKind,
    /// Affected stripes still needing repair when the ticket was made.
    stripes: Vec<u64>,
    /// Index of the next stripe to repair; everything before it is done.
    cursor: usize,
    /// Completion already applied (disk state transitioned).
    finalized: bool,
}

impl RebuildTicket {
    /// The disk slot being rebuilt.
    pub fn disk(&self) -> usize {
        self.disk
    }

    /// Spare rebuild or copy-back.
    pub fn kind(&self) -> RebuildKind {
        self.kind
    }

    /// Total stripe units this ticket set out to repair.
    pub fn total(&self) -> u64 {
        self.stripes.len() as u64
    }

    /// Stripe units repaired so far.
    pub fn repaired(&self) -> u64 {
        self.cursor as u64
    }

    /// Whether every unit has been repaired.
    pub fn is_done(&self) -> bool {
        self.cursor >= self.stripes.len()
    }

    /// The stripes not yet repaired, in rebuild order (callers use this
    /// to pre-lock the stripes of the next batch).
    pub fn pending_stripes(&self) -> &[u64] {
        &self.stripes[self.cursor..]
    }
}

/// One stripe's share of a write batch: the newest bytes per data-unit
/// index, sorted by index with no index twice.
type Updates<'a> = [(usize, &'a [u8])];

/// The bytes `held` has for data-unit `index` of its stripe, if any.
fn held_unit<'a>(held: &Updates<'a>, index: usize) -> Option<&'a [u8]> {
    let at = held.binary_search_by_key(&index, |&(i, _)| i).ok()?;
    Some(held[at].1)
}

/// Check units about to be stored, as `(index, bytes)` in index order.
type NewChecks = Vec<(usize, Vec<u8>)>;

/// A media error or an unrecoverable stripe is contained to its stripe:
/// its intent stays journaled and the rest of a write batch proceeds. A
/// crash (or device/codec bug) stops the controller instead.
fn contained(e: &ArrayError) -> bool {
    matches!(
        e,
        ArrayError::MediaError { .. } | ArrayError::Unrecoverable { .. }
    )
}

/// An emptied `v` whose allocation is kept for borrows of another
/// lifetime. The element types differ only in lifetime, so the in-place
/// `collect` reuses the buffer, and no element is left to outlive its
/// borrow.
fn reuse_allocation<'b>(mut v: Vec<(usize, &[u8])>) -> Vec<(usize, &'b [u8])> {
    v.clear();
    v.into_iter().map(|_| unreachable!("cleared")).collect()
}

/// One unit of a write batch: which stripe cell it lands on and where
/// its bytes are (`unit` of op `op`). The derived order sorts a batch
/// into stripe groups, index runs inside a group, and deposit order
/// inside a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct BatchUnit {
    stripe: u64,
    index: usize,
    op: usize,
    unit: usize,
}

/// Caller-owned buffers for [`DeclusteredArray::write_batch_into`]. A
/// caller that keeps one across batches (the server keeps one per
/// shard) stops allocating once the buffers have grown to its batches:
/// a warm healthy batch of read-modify-writes allocates nothing.
#[derive(Debug, Default)]
pub struct WriteScratch {
    /// The batch's units, sorted into stripe groups.
    units: Vec<BatchUnit>,
    /// One result per op of the last batch.
    results: Vec<Result<(), ArrayError>>,
    /// Stripes to retire from the journal.
    retired: Vec<u64>,
    /// Always empty between batches; only its allocation is kept.
    updates: Vec<(usize, &'static [u8])>,
    stripe: StripeScratch,
}

/// The per-stripe part of [`WriteScratch`].
#[derive(Debug, Default)]
struct StripeScratch {
    /// Written data-unit indices, for the planner.
    written: Vec<usize>,
    /// New checks: the first `n` entries are live after a method ran.
    checks: NewChecks,
    /// A read-modify-write's XOR delta.
    delta: Vec<u8>,
}

impl StripeScratch {
    /// Keep `checks` as the stripe's new checks; returns their count.
    fn hold(&mut self, checks: NewChecks) -> usize {
        self.checks = checks;
        self.checks.len()
    }
}

/// A functional declustered RAID array over RAM-backed disks.
///
/// See the crate docs for the failure lifecycle. All client I/O is in
/// whole stripe units ([`DeclusteredArray::unit_bytes`] each), addressed
/// by logical data-unit number.
pub struct DeclusteredArray {
    layout: Box<dyn Layout>,
    /// One mutex per disk: a disk serves one op at a time (as in
    /// hardware), while ops on distinct disks proceed in parallel.
    disks: Vec<Mutex<Box<dyn BlockDevice>>>,
    rs: ReedSolomon,
    unit_bytes: usize,
    periods: u64,
    /// Units of rebuilt (failed) disks → their spare-space location.
    /// Behind a lock so an online rebuild can insert/remove redirects
    /// while client I/O resolves through them.
    redirects: RwLock<HashMap<PhysAddr, PhysAddr>>,
    /// Failed disks (some may already be rebuilt into spare space).
    failed: RwLock<BTreeSet<usize>>,
    /// Failed disks fully rebuilt into spare space.
    spared: RwLock<BTreeSet<usize>>,
    /// Units of an installed-but-not-yet-restored replacement disk:
    /// treated as failed for reads (reconstruct via parity) until the
    /// copy-back — or a client write-through — validates them.
    restoring: RwLock<HashSet<PhysAddr>>,
    /// Client-path stripe-unit reads performed (observability).
    unit_reads: AtomicU64,
    /// Client-path stripe-unit writes performed.
    unit_writes: AtomicU64,
    /// Client reads that had to reconstruct a unit through parity
    /// instead of reading it directly (degraded-mode service).
    degraded_reads: AtomicU64,
    /// Write-intent journal (models the NVRAM log real controllers use
    /// to close the RAID "write hole"): stripes with updates in flight.
    intents: Mutex<Vec<u64>>,
    /// Fault injection: abort with [`ArrayError::InjectedCrash`] after
    /// this many more physical writes.
    crash_after_writes: Mutex<Option<u64>>,
    /// Optional observability sink. The functional array has no clock,
    /// so events carry a monotonic sequence number as their timestamp.
    obs: Option<SyncSharedSink>,
    obs_seq: AtomicU64,
    /// Media-fault injection hook, consulted on every client-path unit
    /// access (rebuild's direct spare/copy-back device I/O bypasses it,
    /// modeling controller-internal transfers).
    faults: Option<Arc<dyn FaultHook>>,
}

impl fmt::Debug for DeclusteredArray {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DeclusteredArray")
            .field("layout", &self.layout.name())
            .field("disks", &self.disks.len())
            .field("unit_bytes", &self.unit_bytes)
            .field("periods", &self.periods)
            .field("failed", &*rlock(&self.failed))
            .field("spared", &*rlock(&self.spared))
            .finish()
    }
}

impl DeclusteredArray {
    /// Create an array spanning `periods` layout periods with stripe
    /// units of `unit_bytes`.
    ///
    /// # Errors
    ///
    /// [`ArrayError::BadAddress`] when `periods == 0`;
    /// [`ArrayError::Codec`] when the stripe shape exceeds the code's
    /// limits.
    pub fn new(
        layout: Box<dyn Layout>,
        unit_bytes: usize,
        periods: u64,
    ) -> Result<Self, ArrayError> {
        if periods == 0 || unit_bytes == 0 {
            return Err(ArrayError::BadAddress);
        }
        let rows = periods * layout.period_rows();
        let disks: Vec<Box<dyn BlockDevice>> = (0..layout.disks())
            .map(|_| Box::new(RamDisk::new(rows, unit_bytes)) as Box<dyn BlockDevice>)
            .collect();
        Self::with_devices(layout, unit_bytes, periods, disks)
    }

    /// Create an array over caller-supplied block devices (e.g.
    /// [`FileDisk`](crate::FileDisk)s). Each device must hold at least
    /// `periods × period_rows` units of `unit_bytes`.
    ///
    /// # Errors
    ///
    /// [`ArrayError::BadAddress`] on shape mismatches (wrong device
    /// count, too-small devices, wrong unit size).
    pub fn with_devices(
        layout: Box<dyn Layout>,
        unit_bytes: usize,
        periods: u64,
        disks: Vec<Box<dyn BlockDevice>>,
    ) -> Result<Self, ArrayError> {
        if periods == 0 || unit_bytes == 0 {
            return Err(ArrayError::BadAddress);
        }
        let rows = periods * layout.period_rows();
        if disks.len() != layout.disks()
            || disks
                .iter()
                .any(|d| d.units() < rows || d.unit_bytes() != unit_bytes)
        {
            return Err(ArrayError::BadAddress);
        }
        let rs = ReedSolomon::new(layout.data_per_stripe(), layout.check_per_stripe())?;
        Ok(Self {
            layout,
            disks: disks.into_iter().map(Mutex::new).collect(),
            rs,
            unit_bytes,
            periods,
            redirects: RwLock::new(HashMap::new()),
            failed: RwLock::new(BTreeSet::new()),
            spared: RwLock::new(BTreeSet::new()),
            restoring: RwLock::new(HashSet::new()),
            unit_reads: AtomicU64::new(0),
            unit_writes: AtomicU64::new(0),
            degraded_reads: AtomicU64::new(0),
            intents: Mutex::new(Vec::new()),
            crash_after_writes: Mutex::new(None),
            obs: None,
            obs_seq: AtomicU64::new(0),
            faults: None,
        })
    }

    /// Attach an observability sink. Lifecycle events (journal commits
    /// and replays, disk failures, rebuild/copy-back progress, scrub
    /// passes) flow to it, timestamped by a per-array sequence number —
    /// the functional array is untimed. The sink is the thread-safe
    /// flavor ([`SyncSharedSink`]) because client I/O may emit from many
    /// threads at once.
    pub fn attach_observer(&mut self, sink: SyncSharedSink) {
        self.obs = Some(sink);
    }

    /// Attach a media-fault injection hook (see
    /// [`pddl_disk::fault`]). The hook is consulted before every
    /// client-path unit access with the *resolved* physical address:
    ///
    /// * an injected **read** error makes the unit momentarily
    ///   unreadable — the array falls back to parity reconstruction,
    ///   exactly as for a failed disk, and the error only surfaces (as
    ///   [`ArrayError::Unrecoverable`]) when the stripe has no
    ///   redundancy left;
    /// * an injected **write** error fails the write with
    ///   [`ArrayError::MediaError`]. The interrupted stripe's intent
    ///   stays journaled, so the torn parity is found by
    ///   [`DeclusteredArray::recover`] like any other write hole.
    ///
    /// Rebuild's direct spare-space and copy-back transfers bypass the
    /// hook (they model controller-internal I/O, not client accesses).
    pub fn attach_fault_hook(&mut self, hook: Arc<dyn FaultHook>) {
        self.faults = Some(hook);
    }

    /// Consult the fault hook for `addr`. A read fault emits a
    /// [`MediaFault`](ObsEvent::MediaFault) event here. A write fault
    /// becomes the caller's [`ArrayError::MediaError`] and is reported
    /// where that error is delivered ([`Self::fail_ops`],
    /// [`Self::replay_stripes`]): a failed merged batch attempt is not
    /// delivered but replayed, and the replay meets the fault again.
    fn injected_fault(&self, addr: PhysAddr, kind: AccessKind) -> bool {
        let Some(hook) = &self.faults else {
            return false;
        };
        let hit = hook.media_error(addr.disk, addr.offset, kind);
        if hit && kind == AccessKind::Read {
            self.emit(ObsEvent::MediaFault {
                disk: addr.disk as u32,
                write: false,
            });
        }
        hit
    }

    /// Report `e` if it is an injected write fault.
    fn report_write_fault(&self, e: &ArrayError) {
        if let ArrayError::MediaError { disk, .. } = *e {
            self.emit(ObsEvent::MediaFault {
                disk: disk as u32,
                write: true,
            });
        }
    }

    /// Deliver a stripe attempt's error `e` to `ops` of a write batch
    /// (an op keeps its first error) and report it. Unless `e` is
    /// [`contained`], stop the batch: no later stripe reaches disk, and
    /// every unfinished intent stays.
    fn fail_ops(
        &self,
        results: &mut [Result<(), ArrayError>],
        ops: impl IntoIterator<Item = usize>,
        e: ArrayError,
        abort: &mut Option<ArrayError>,
    ) {
        self.report_write_fault(&e);
        for op in ops {
            if results[op].is_ok() {
                results[op] = Err(e.clone());
            }
        }
        if !contained(&e) {
            *abort = Some(e);
        }
    }

    fn emit(&self, event: ObsEvent) {
        if let Some(obs) = &self.obs {
            // Draw the sequence number while holding the sink lock so
            // the tracer sees strictly increasing pseudo-timestamps even
            // under concurrent emitters.
            let mut sink = lock(obs);
            let seq = self.obs_seq.fetch_add(1, Ordering::Relaxed) + 1;
            sink.event(seq, event);
        }
    }

    /// Client capacity in data units.
    pub fn capacity_units(&self) -> u64 {
        self.periods * self.layout.data_units_per_period()
    }

    /// Bytes per stripe unit.
    pub fn unit_bytes(&self) -> usize {
        self.unit_bytes
    }

    /// The layout in use.
    pub fn layout(&self) -> &dyn Layout {
        self.layout.as_ref()
    }

    /// Client-path physical I/O performed so far: `(unit reads, unit
    /// writes)`. Rebuild/scrub internals are included where they go
    /// through the normal read/write paths.
    pub fn io_counts(&self) -> (u64, u64) {
        (
            self.unit_reads.load(Ordering::Relaxed),
            self.unit_writes.load(Ordering::Relaxed),
        )
    }

    /// Client reads served by parity reconstruction rather than a
    /// direct unit read — nonzero only while the array runs degraded.
    pub fn degraded_reads(&self) -> u64 {
        self.degraded_reads.load(Ordering::Relaxed)
    }

    /// Current operating mode.
    pub fn mode(&self) -> ArrayMode {
        let failed = rlock(&self.failed);
        if failed.is_empty() {
            ArrayMode::FaultFree
        } else if failed.iter().all(|d| rlock(&self.spared).contains(d)) {
            ArrayMode::PostReconstruction
        } else {
            ArrayMode::Degraded
        }
    }

    /// The currently failed disks.
    pub fn failed_disks(&self) -> Vec<usize> {
        rlock(&self.failed).iter().copied().collect()
    }

    /// Resolve a physical address through the spare redirects.
    fn resolve(&self, addr: PhysAddr) -> PhysAddr {
        let redirects = rlock(&self.redirects);
        // The common case is an array that has never spared: skip the
        // address hash entirely instead of probing an empty map.
        if redirects.is_empty() {
            addr
        } else {
            *redirects.get(&addr).unwrap_or(&addr)
        }
    }

    /// Where `addr`'s contents live right now (its spare redirect, else
    /// its home), or `None` while the unit awaits copy-back. The unit is
    /// readable iff this names a disk that has not failed.
    fn live_target(&self, addr: PhysAddr) -> Option<PhysAddr> {
        {
            // Empty-set fast path for the same reason as in `resolve`:
            // no copy-back in progress means no hash per unit read.
            let restoring = rlock(&self.restoring);
            if !restoring.is_empty() && restoring.contains(&addr) {
                return None;
            }
        }
        Some(self.resolve(addr))
    }

    /// The units of `stripe` [`Self::read_phys_into`] would refuse *now*:
    /// on a failed disk with no live redirect, or awaiting copy-back. A
    /// healthy array pays one emptiness check and allocates nothing.
    fn unreadable_units(&self, stripe: u64) -> Vec<Unit> {
        if rlock(&self.failed).is_empty() {
            return Vec::new();
        }
        let lost = |addr| {
            self.live_target(addr)
                .is_none_or(|at| lock(&self.disks[at.disk]).is_failed())
        };
        let units = self.layout.stripe_units(stripe);
        units
            .iter()
            .filter(|u| lost(u.addr))
            .map(Unit::from)
            .collect()
    }

    /// Read one stripe unit, following redirects; `None` when the unit
    /// is on a failed, un-rebuilt disk or awaiting copy-back onto a
    /// replacement (its value is implied by parity). The failed-check
    /// and the read happen under one disk lock, so a concurrent reader
    /// never sees a half-failed device.
    fn read_phys(&self, addr: PhysAddr) -> Result<Option<Vec<u8>>, ArrayError> {
        let mut buf = vec![0u8; self.unit_bytes];
        Ok(self.read_phys_into(addr, &mut buf)?.then_some(buf))
    }

    /// Zero-copy variant of [`Self::read_phys`]: read the unit into a
    /// caller-supplied buffer. Returns `Ok(false)` (buffer contents
    /// unspecified) when the unit is unreadable and must be
    /// reconstructed through parity; allocates nothing on the healthy
    /// path.
    fn read_phys_into(&self, addr: PhysAddr, buf: &mut [u8]) -> Result<bool, ArrayError> {
        let Some(addr) = self.live_target(addr) else {
            return Ok(false);
        };
        // An injected read media error makes the unit unreadable for
        // this access; the caller reconstructs through parity exactly
        // as for a failed disk.
        if self.injected_fault(addr, AccessKind::Read) {
            return Ok(false);
        }
        let disk = lock(&self.disks[addr.disk]);
        if disk.is_failed() {
            return Ok(false);
        }
        self.unit_reads.fetch_add(1, Ordering::Relaxed);
        disk.read_unit_into(addr.offset, buf)?;
        Ok(true)
    }

    /// Write one stripe unit, following redirects; silently skipped when
    /// the target is a failed, un-rebuilt disk (its value is implied by
    /// parity, exactly as in degraded-mode RAID). A write to a unit
    /// awaiting copy-back validates it: the fresh data lands on the
    /// replacement and the unit leaves the restoring set.
    fn write_phys(&self, addr: PhysAddr, data: &[u8]) -> Result<(), ArrayError> {
        let home = addr;
        let addr = self.resolve(addr);
        if self.injected_fault(addr, AccessKind::Write) {
            return Err(ArrayError::MediaError {
                disk: addr.disk,
                offset: addr.offset,
            });
        }
        {
            let mut disk = lock(&self.disks[addr.disk]);
            if disk.is_failed() {
                return Ok(());
            }
            if let Some(left) = lock(&self.crash_after_writes).as_mut() {
                if *left == 0 {
                    return Err(ArrayError::InjectedCrash);
                }
                *left -= 1;
            }
            self.unit_writes.fetch_add(1, Ordering::Relaxed);
            disk.write_unit(addr.offset, data)?;
        }
        // Validate after the bytes are durable, so a concurrent reader
        // either still reconstructs through parity or sees the new data,
        // never the replacement's blank cell.
        if !rlock(&self.restoring).is_empty() {
            wlock(&self.restoring).remove(&home);
        }
        Ok(())
    }

    /// The data units of `stripe`: those the caller already has in
    /// memory (`held`, by index) are copied, the rest read once each;
    /// `None` marks an unreadable one.
    fn data_row(&self, stripe: u64, held: &Updates) -> Result<Vec<Option<Vec<u8>>>, ArrayError> {
        (0..self.layout.data_per_stripe())
            .map(|i| match held_unit(held, i) {
                Some(bytes) => Ok(Some(bytes.to_vec())),
                None => self.read_phys(self.layout.data_unit(stripe, i)),
            })
            .collect()
    }

    /// Fetch all shards of a stripe (data then checks; `held` as for
    /// [`Self::data_row`]), reconstructing any unreadable units.
    fn stripe_shards(&self, stripe: u64, held: &Updates) -> Result<Vec<Vec<u8>>, ArrayError> {
        let mut shards = self.data_row(stripe, held)?;
        for i in 0..self.layout.check_per_stripe() {
            shards.push(self.read_phys(self.layout.check_unit(stripe, i))?);
        }
        if shards.iter().any(Option::is_none) {
            self.rs
                .reconstruct(&mut shards)
                .map_err(|_| ArrayError::Unrecoverable { stripe })?;
        }
        Ok(shards
            .into_iter()
            .map(|s| s.expect("reconstructed"))
            .collect())
    }

    /// The unit count of a `len`-byte access at logical unit `start`;
    /// `None` unless `len` is a non-zero whole number of units and the
    /// range lies inside the client data space.
    fn span(&self, start: u64, len: usize) -> Option<u64> {
        let units = (len / self.unit_bytes) as u64;
        let whole = len > 0 && len.is_multiple_of(self.unit_bytes);
        let end = start.checked_add(units)?;
        (whole && end <= self.capacity_units()).then_some(units)
    }

    /// Read `units` data units starting at logical unit `start`.
    ///
    /// Works in every mode: fault-free reads go straight to the disks,
    /// degraded reads reconstruct through the erasure code, and
    /// post-reconstruction reads follow the spare redirects.
    ///
    /// # Errors
    ///
    /// [`ArrayError::BadAddress`] outside capacity;
    /// [`ArrayError::Unrecoverable`] when too many disks are gone.
    pub fn read(&self, start: u64, units: u64) -> Result<Vec<u8>, ArrayError> {
        // Bounds the allocation; `read_into` validates the range.
        if units > self.capacity_units() {
            return Err(ArrayError::BadAddress);
        }
        let mut out = vec![0u8; (units as usize) * self.unit_bytes];
        self.read_into(start, &mut out)?;
        Ok(out)
    }

    /// Read data units starting at logical unit `start` directly into
    /// `buf` (whose length selects the unit count and must be a
    /// non-zero multiple of the unit size). Semantically identical to
    /// [`DeclusteredArray::read`], but allocation-free on the healthy
    /// path: each unit is read from its disk straight into the caller's
    /// buffer — this is how the server fills response frames without an
    /// intermediate payload copy.
    ///
    /// A stripe with an unreadable unit reconstructs once — from the
    /// units of it this access already holds plus one read of each
    /// other survivor — and serves the rest of its run from that, so no
    /// unit is read twice and a degraded sequential scan costs
    /// `d + c − 1` disk reads per stripe: exactly the read set
    /// [`pddl_core::plan::plan_access`] plans.
    ///
    /// # Errors
    ///
    /// [`ArrayError::BadAddress`] on an empty or ragged buffer or a
    /// range outside capacity; [`ArrayError::Unrecoverable`] when too
    /// many disks are gone.
    pub fn read_into(&self, start: u64, buf: &mut [u8]) -> Result<(), ArrayError> {
        let units = self.span(start, buf.len()).ok_or(ArrayError::BadAddress)? as usize;
        let ub = self.unit_bytes;
        let locate = |pos: usize| self.layout.locate(start + pos as u64);
        let mut pos = 0;
        while pos < units {
            let (stripe, index) = locate(pos);
            let chunk = &mut buf[pos * ub..(pos + 1) * ub];
            if self.read_phys_into(self.layout.data_unit(stripe, index), chunk)? {
                pos += 1;
                continue;
            }
            self.degraded_reads.fetch_add(1, Ordering::Relaxed);
            // A stripe's data units are logically consecutive: the ones
            // just before `pos` are already in `buf`, the ones after it
            // come out of the same reconstruction.
            let run = (0..pos).rev().take_while(|&p| locate(p).0 == stripe);
            let mut held: Vec<(usize, &[u8])> = run
                .map(|p| (locate(p).1, &buf[p * ub..(p + 1) * ub]))
                .collect();
            held.sort_unstable_by_key(|&(index, _)| index);
            let shards = self.stripe_shards(stripe, &held)?;
            while pos < units && locate(pos).0 == stripe {
                buf[pos * ub..(pos + 1) * ub].copy_from_slice(&shards[locate(pos).1]);
                pos += 1;
            }
        }
        Ok(())
    }

    /// Write `data` (a whole number of stripe units) starting at logical
    /// unit `start`, maintaining parity. Works in every mode.
    ///
    /// Takes `&self`: concurrent writes to *distinct* stripes are safe
    /// and proceed in parallel. Concurrent writes to the **same** stripe
    /// race on the parity read-modify-write and must be serialized by
    /// the caller (see the module docs' threading model).
    ///
    /// # Errors
    ///
    /// As [`DeclusteredArray::read`].
    pub fn write(&self, start: u64, data: &[u8]) -> Result<(), ArrayError> {
        self.write_batch(&[(start, data)])
            .pop()
            .expect("one op in, one result out")
    }

    /// Write a batch of independent `(start, data)` ops as one
    /// group-committed journal transaction, returning a result per op:
    /// [`DeclusteredArray::write_batch_into`] with a fresh
    /// [`WriteScratch`], for callers that keep none.
    ///
    /// # Errors
    ///
    /// As [`DeclusteredArray::write_batch_into`].
    pub fn write_batch(&self, ops: &[(u64, &[u8])]) -> Vec<Result<(), ArrayError>> {
        let mut scratch = WriteScratch::default();
        self.write_batch_into(ops, &mut scratch);
        scratch.results
    }

    /// Write a batch of independent `(start, data)` ops as one
    /// group-committed journal transaction, returning a result per op
    /// (a slice of `scratch`, valid until its next batch).
    ///
    /// All ops' units are grouped by stripe through one sort of the
    /// batch's units — not by run adjacency, because PDDL's permuted
    /// layout makes consecutive logical units revisit a stripe
    /// non-adjacently — so N small writes landing on one stripe merge
    /// into a single parity update, carried out the way
    /// [`plan_stripe_write`] decides for the merged set (a batch
    /// covering a whole row reads nothing at all). The whole batch costs
    /// one journal append and one retire (the group commit) instead of
    /// one of each per stripe per op. Every buffer the batch needs lives
    /// in `scratch`, so once it is warm a healthy read-modify-write
    /// batch allocates nothing.
    ///
    /// Within a batch, later ops overwrite earlier ones where they
    /// touch the same unit (deposit order), matching what sequential
    /// execution would leave on disk. Callers must serialize batches
    /// against concurrent writes (or rebuild steps) to the same
    /// stripes, as for [`DeclusteredArray::write`].
    ///
    /// # Errors
    ///
    /// Reported per op. A stripe that fails with
    /// [`ArrayError::MediaError`] or [`ArrayError::Unrecoverable`] is
    /// contained: the rest of the batch proceeds. If only one op touched
    /// it, that op fails. If it merged several ops, they are replayed on
    /// it one at a time in deposit order, each with only its own units,
    /// so each gets the status it would have had alone. The stripe's
    /// intent stays journaled unless every replayed op succeeded. An
    /// [`ArrayError::InjectedCrash`] (or device/codec bug) aborts the
    /// batch — no later stripe is touched, and every unfinished stripe
    /// keeps its intent for [`DeclusteredArray::recover`].
    pub fn write_batch_into<'s>(
        &self,
        ops: &[(u64, &[u8])],
        scratch: &'s mut WriteScratch,
    ) -> &'s [Result<(), ArrayError>] {
        let ub = self.unit_bytes;
        let s = scratch;
        s.results.clear();
        s.results.resize(ops.len(), Ok(()));
        s.units.clear();
        for (op, &(start, data)) in ops.iter().enumerate() {
            if self.span(start, data.len()).is_none() {
                s.results[op] = Err(ArrayError::BadAddress);
                continue;
            }
            for unit in 0..data.len() / ub {
                let (stripe, index) = self.layout.locate(start + unit as u64);
                s.units.push(BatchUnit {
                    stripe,
                    index,
                    op,
                    unit,
                });
            }
        }
        if s.units.is_empty() {
            return &s.results;
        }
        // Ties on (stripe, index) are ordered by op, i.e. by deposit
        // order — what a stable sort on (stripe, index) would give,
        // without the buffer a stable sort may allocate. The last entry
        // of each index run is therefore the newest bytes of that unit.
        s.units.sort_unstable();
        let groups = || s.units.chunk_by(|a, b| a.stripe == b.stripe);
        // Log every intent first in one append (write-hole protection
        // for the whole batch), perform the updates stripe by stripe,
        // then retire the successful intents in one pass. A crash
        // anywhere in between leaves each unfinished stripe marked for
        // parity repair at recovery.
        lock(&self.intents).extend(groups().map(|g| g[0].stripe));
        s.retired.clear();
        let mut updates = reuse_allocation(std::mem::take(&mut s.updates));
        let mut stripes = 0u64;
        let mut abort: Option<ArrayError> = None;
        for group in groups() {
            let stripe = group[0].stripe;
            stripes += 1;
            updates.clear();
            updates.extend(group.chunk_by(|a, b| a.index == b.index).map(|run| {
                let newest = run[run.len() - 1];
                let at = newest.unit * ub;
                (newest.index, &ops[newest.op].1[at..at + ub])
            }));
            let outcome = match &abort {
                Some(e) => Err(e.clone()),
                None => self.write_stripe(stripe, &updates, &mut s.stripe, WritePolicy::Adaptive),
            };
            let failed = match outcome {
                Ok(()) => false,
                Err(e) if contained(&e) && group.iter().any(|u| u.op != group[0].op) => {
                    // Whether two ops merge depends on timing, so a merged
                    // group's statuses must not: replay it op by op. The
                    // failed attempt may have written some data units
                    // already, so no replay may fold a delta against
                    // them — `AlwaysLarge` re-encodes the checks from the
                    // data units instead. (With a data unit lost as well
                    // the planner's method stands: the tear is then the
                    // write hole the journal is for.)
                    let mut members: Vec<usize> = group.iter().map(|u| u.op).collect();
                    members.sort_unstable();
                    members.dedup();
                    let mut failed = false;
                    for op in members {
                        updates.clear();
                        updates.extend(group.iter().filter(|u| u.op == op).map(|u| {
                            let at = u.unit * ub;
                            (u.index, &ops[op].1[at..at + ub])
                        }));
                        let outcome = match &abort {
                            Some(e) => Err(e.clone()),
                            None => self.write_stripe(
                                stripe,
                                &updates,
                                &mut s.stripe,
                                WritePolicy::AlwaysLarge,
                            ),
                        };
                        if let Err(e) = outcome {
                            failed = true;
                            self.fail_ops(&mut s.results, [op], e, &mut abort);
                        }
                    }
                    failed
                }
                Err(e) => {
                    self.fail_ops(&mut s.results, group.iter().map(|u| u.op), e, &mut abort);
                    true
                }
            };
            if !failed {
                s.retired.push(stripe);
                self.emit(ObsEvent::JournalCommit { stripe });
            }
        }
        s.updates = reuse_allocation(updates);
        self.retire_intents(&s.retired);
        self.emit(ObsEvent::JournalBatch {
            stripes,
            ops: ops.len() as u64,
        });
        &s.results
    }

    /// Update one stripe the way the planner decides from the units that
    /// are unreadable now; the array only executes. More units lost
    /// than checks: nothing is written, so the intent stays journaled.
    fn write_stripe(
        &self,
        stripe: u64,
        updates: &Updates,
        s: &mut StripeScratch,
        policy: WritePolicy,
    ) -> Result<(), ArrayError> {
        s.written.clear();
        s.written.extend(updates.iter().map(|&(index, _)| index));
        let lost = self.unreadable_units(stripe);
        let d = self.layout.data_per_stripe();
        let c = self.layout.check_per_stripe();
        let plan = plan_stripe_write(d, c, &s.written, &lost, policy)
            .map_err(|_| ArrayError::Unrecoverable { stripe })?;
        // Every pre-read happens here, before the first write. `None`:
        // one found its unit unreadable after all (injected media error,
        // disk failing under it) and the whole-stripe reconstruct takes
        // over — on a stripe still untouched (half-updated, with `c ≥ 2`
        // it could rebuild an unrelated unreadable unit through checks
        // that no longer match the data). `Some(n)`: the new checks are
        // `s.checks[..n]`.
        let checks = match plan.method {
            WriteMethod::ReconstructWrite => self.encode_row(stripe, updates)?.map(|c| s.hold(c)),
            WriteMethod::ReadModifyWrite => {
                self.small_write(stripe, updates, &plan, &mut s.checks, &mut s.delta)?
            }
            WriteMethod::DataOnly => Some(0),
            WriteMethod::ReconstructAll => None,
        };
        let checks = match checks {
            Some(n) => n,
            None => s.hold(self.rmw_stripe(stripe, updates)?),
        };
        // The one write phase: updated data units in index order, then
        // checks — the device order crash recovery's old-or-new reasoning
        // and the chaos torn-write model are calibrated on. `write_phys`
        // skips a failed, un-spared disk, validates a unit in copy-back.
        for &(index, chunk) in updates {
            self.write_phys(self.layout.data_unit(stripe, index), chunk)?;
        }
        for (index, check) in &s.checks[..checks] {
            self.write_phys(self.layout.check_unit(stripe, *index), check)?;
        }
        Ok(())
    }

    /// Retire the journal entries for `stripes` in one append-side lock
    /// acquisition (any occurrence of each stripe is equivalent —
    /// entries are just stripe numbers, so order need not be preserved
    /// and `swap_remove` keeps each retirement O(1)).
    fn retire_intents(&self, stripes: &[u64]) {
        let mut intents = lock(&self.intents);
        for &stripe in stripes {
            if let Some(pos) = intents.iter().rposition(|&s| s == stripe) {
                intents.swap_remove(pos);
            }
        }
    }

    /// The checks of `stripe`'s data row with `held` laid over it, or
    /// `None` when a unit not held is unreadable. Reconstruct-write (the
    /// paper's large write): only the data units that do not change are
    /// pre-read — no old check, no overwritten unit, nothing for a full row.
    fn encode_row(&self, stripe: u64, held: &Updates) -> Result<Option<NewChecks>, ArrayError> {
        let row = self.data_row(stripe, held)?;
        let Some(data) = row.into_iter().collect::<Option<Vec<_>>>() else {
            return Ok(None);
        };
        let checks = self.rs.encode(&data)?;
        Ok(Some(checks.into_iter().enumerate().collect()))
    }

    /// Reconstruct-everything: fetch the whole stripe (decoding what is
    /// unreadable), apply the updates, re-encode. Also where the two
    /// cheaper methods fall back to.
    fn rmw_stripe(&self, stripe: u64, updates: &Updates) -> Result<NewChecks, ArrayError> {
        let mut data = self.stripe_shards(stripe, &[])?;
        data.truncate(self.layout.data_per_stripe());
        for &(index, chunk) in updates {
            data[index] = chunk.to_vec();
        }
        Ok(self.rs.encode(&data)?.into_iter().enumerate().collect())
    }

    /// Delta small write: pre-read only the updated data units and the
    /// checks `plan` names — the surviving ones — and fold the change
    /// into each (`2(w + c)` I/Os instead of `d + c + w`). The new
    /// checks land in the first entries of `checks`, whose count it
    /// returns; every read goes into a buffer `checks` or `delta`
    /// already holds once warm, so then nothing here allocates.
    fn small_write(
        &self,
        stripe: u64,
        updates: &Updates,
        plan: &StripeWrite,
        checks: &mut NewChecks,
        delta: &mut Vec<u8>,
    ) -> Result<Option<usize>, ArrayError> {
        let ub = self.unit_bytes;
        let mut n = 0;
        for i in (0..self.layout.check_per_stripe()).filter(|&i| plan.reads(Unit::Check(i))) {
            if checks.len() == n {
                checks.push((i, Vec::new()));
            }
            let (index, check) = &mut checks[n];
            *index = i;
            check.resize(ub, 0);
            if !self.read_phys_into(self.layout.check_unit(stripe, i), check)? {
                return Ok(None);
            }
            n += 1;
        }
        // Fold each unit's XOR-delta (old contents vs new bytes) into
        // every check. One scratch buffer serves all updates.
        delta.resize(ub, 0);
        for &(index, chunk) in updates {
            if !self.read_phys_into(self.layout.data_unit(stripe, index), delta)? {
                return Ok(None);
            }
            kernels::xor_into(delta, chunk);
            for (i, check) in &mut checks[..n] {
                self.rs.apply_delta(*i, index, delta, check);
            }
        }
        Ok(Some(n))
    }

    /// Fault injection: make the array "crash" (error with
    /// [`ArrayError::InjectedCrash`] and stop writing) after the next
    /// `after_writes` physical unit writes. The interrupted stripe's
    /// intent stays journaled; call [`DeclusteredArray::recover`] to
    /// repair parity, as a controller would on power-up.
    pub fn arm_crash(&self, after_writes: u64) {
        *lock(&self.crash_after_writes) = Some(after_writes);
    }

    /// Stripes whose updates were interrupted (journal entries awaiting
    /// recovery).
    pub fn outstanding_intents(&self) -> Vec<u64> {
        lock(&self.intents).clone()
    }

    /// Journal replay after a crash: for every stripe with an
    /// outstanding write intent, re-encode its check units from the data
    /// actually on disk — each data unit holds either its old or its new
    /// value (unit writes are atomic), so this restores parity
    /// consistency and closes the write hole. Returns the number of
    /// stripes repaired.
    ///
    /// Takes `&self` so replay is reachable through a shared handle (a
    /// restarted server replays through its `Arc`'d engine), under the
    /// same quiesce discipline as rebuild: callers must exclude
    /// concurrent *writes* to the journaled stripes for the duration —
    /// `pddl-server` holds the array-wide write lock it already uses
    /// for lifecycle operations.
    ///
    /// # Errors
    ///
    /// [`ArrayError::WrongDiskState`] while disks are failed (replay
    /// needs every data unit readable — repair the array first).
    pub fn recover(&self) -> Result<u64, ArrayError> {
        *lock(&self.crash_after_writes) = None;
        if !rlock(&self.failed).is_empty() {
            return Err(ArrayError::WrongDiskState);
        }
        // Take the journal instead of cloning it; on a replay error the
        // taken entries are put back — appended, not assigned, in case
        // a caller outside the quiesce discipline journaled a new
        // intent meanwhile — so a later retry can finish the repair.
        let mut stripes = std::mem::take(&mut *lock(&self.intents));
        stripes.sort_unstable();
        match self.replay_stripes(&stripes) {
            Ok(repaired) => {
                self.emit(ObsEvent::JournalReplay { stripes: repaired });
                Ok(repaired)
            }
            Err(e) => {
                lock(&self.intents).extend(stripes);
                Err(e)
            }
        }
    }

    /// Re-encode the check units of every journaled stripe (duplicates
    /// in the sorted slice are skipped). Returns the number of distinct
    /// stripes repaired.
    fn replay_stripes(&self, stripes: &[u64]) -> Result<u64, ArrayError> {
        let mut repaired = 0u64;
        for (n, &stripe) in stripes.iter().enumerate() {
            if n > 0 && stripes[n - 1] == stripe {
                continue;
            }
            repaired += 1;
            let row = self.data_row(stripe, &[])?;
            // No disks are failed (checked by the caller), so an
            // unreadable unit here is an injected media error. Surface
            // it typed — the journal entries are restored so a later
            // retry can finish the replay.
            if let Some(i) = row.iter().position(Option::is_none) {
                let PhysAddr { disk, offset } = self.layout.data_unit(stripe, i);
                return Err(ArrayError::MediaError { disk, offset });
            }
            let data: Vec<Vec<u8>> = row.into_iter().flatten().collect();
            for (i, check) in self.rs.encode(&data)?.iter().enumerate() {
                self.write_phys(self.layout.check_unit(stripe, i), check)
                    .inspect_err(|e| self.report_write_fault(e))?;
            }
        }
        Ok(repaired)
    }

    /// Inject a disk failure. The array keeps operating degraded as long
    /// as every stripe retains enough units (at most
    /// [`Layout::check_per_stripe`] concurrent un-rebuilt failures).
    ///
    /// Takes `&self`: all failure state lives behind its own locks, so a
    /// nemesis thread can fail a disk while readers and writers are in
    /// flight (they see the disk either before or after the failure —
    /// both valid, per the module docs' threading model).
    ///
    /// # Errors
    ///
    /// [`ArrayError::WrongDiskState`] if the disk is already failed.
    pub fn fail_disk(&self, disk: usize) -> Result<(), ArrayError> {
        if disk >= self.disks.len() || rlock(&self.failed).contains(&disk) {
            return Err(ArrayError::WrongDiskState);
        }
        lock(&self.disks[disk]).fail();
        wlock(&self.failed).insert(disk);
        // Any redirects pointing INTO the newly failed disk are void —
        // those units are lost again and revert to on-the-fly repair.
        // Their home disks are no longer fully spared (and may be
        // rebuilt again if replacement spare cells exist).
        let mut lost_spares: BTreeSet<usize> = BTreeSet::new();
        wlock(&self.redirects).retain(|home, target| {
            if target.disk == disk {
                lost_spares.insert(home.disk);
                false
            } else {
                true
            }
        });
        {
            let mut spared = wlock(&self.spared);
            spared.remove(&disk);
            for d in lost_spares {
                spared.remove(&d);
            }
        }
        // Units awaiting copy-back onto this disk are moot now that the
        // whole device is failed again.
        wlock(&self.restoring).retain(|a| a.disk != disk);
        self.emit(ObsEvent::DiskFailed { disk: disk as u32 });
        Ok(())
    }

    /// The stripe unit of `stripe` living on `disk`, if any.
    fn lost_unit(&self, stripe: u64, disk: usize) -> Option<pddl_core::addr::StripeUnit> {
        self.layout
            .stripe_units(stripe)
            .into_iter()
            .find(|u| u.addr.disk == disk)
    }

    /// Start an incremental rebuild of failed `disk` into the layout's
    /// distributed spare space (the paper's reconstruction →
    /// post-reconstruction transition). Computes the full affected-stripe
    /// set up front — units already safely redirected (from an earlier,
    /// interrupted attempt) are excluded, which is what makes a halted
    /// rebuild resumable. Advance the ticket with
    /// [`DeclusteredArray::rebuild_step`].
    ///
    /// # Errors
    ///
    /// [`ArrayError::NoSpareSpace`] for layouts without sparing;
    /// [`ArrayError::WrongDiskState`] if the disk is not failed or is
    /// already rebuilt.
    pub fn begin_rebuild(&self, disk: usize) -> Result<RebuildTicket, ArrayError> {
        if !self.layout.has_sparing() {
            return Err(ArrayError::NoSpareSpace);
        }
        if !rlock(&self.failed).contains(&disk) || rlock(&self.spared).contains(&disk) {
            return Err(ArrayError::WrongDiskState);
        }
        let mut stripes = Vec::new();
        for stripe in 0..self.periods * self.layout.stripes_per_period() {
            let Some(lost) = self.lost_unit(stripe, disk) else {
                continue;
            };
            if rlock(&self.redirects)
                .get(&lost.addr)
                .is_some_and(|t| !lock(&self.disks[t.disk]).is_failed())
            {
                continue; // already safely in spare space
            }
            stripes.push(stripe);
        }
        Ok(RebuildTicket {
            disk,
            kind: RebuildKind::Spare,
            stripes,
            cursor: 0,
            finalized: false,
        })
    }

    /// Install a blank replacement drive in failed `disk`'s slot and
    /// start an incremental restore of its contents — by copy-back from
    /// spare space where redirects exist, by reconstruction otherwise.
    /// Until the ticket completes the replacement's unrestored units are
    /// served through parity (or validated early by client writes), so
    /// I/O stays correct throughout. Advance the ticket with
    /// [`DeclusteredArray::rebuild_step`]; completion returns the slot to
    /// fault-free operation.
    ///
    /// Takes `&self` so it is reachable through a shared handle, but
    /// installing the replacement must not race in-flight I/O: callers
    /// quiesce writes for the call (the server's lifecycle discipline).
    /// The stepping afterwards is `&self` and online.
    ///
    /// # Errors
    ///
    /// [`ArrayError::WrongDiskState`] if the disk is not failed.
    pub fn begin_copy_back(&self, disk: usize) -> Result<RebuildTicket, ArrayError> {
        if !rlock(&self.failed).contains(&disk) {
            return Err(ArrayError::WrongDiskState);
        }
        lock(&self.disks[disk]).replace();
        let mut stripes = Vec::new();
        let mut pending = Vec::new();
        for stripe in 0..self.periods * self.layout.stripes_per_period() {
            let Some(lost) = self.lost_unit(stripe, disk) else {
                continue;
            };
            stripes.push(stripe);
            if !rlock(&self.redirects).contains_key(&lost.addr) {
                pending.push(lost.addr);
            }
        }
        wlock(&self.restoring).extend(pending);
        Ok(RebuildTicket {
            disk,
            kind: RebuildKind::CopyBack,
            stripes,
            cursor: 0,
            finalized: false,
        })
    }

    /// Repair up to `batch` stripe units (at least one) from `ticket`,
    /// then — once every unit is repaired — apply the completion
    /// transition: mark the disk `spared` (spare rebuild) or healthy
    /// (copy-back). Emits a [`RebuildProgress`](ObsEvent::RebuildProgress)
    /// event per unit with the true total, and a terminal
    /// [`RebuildHalted`](ObsEvent::RebuildHalted) event on error.
    ///
    /// Concurrency: takes `&self`, so client I/O proceeds during and
    /// between steps. The caller must serialize each step against client
    /// *writes* to the stripes in the batch (see the module docs);
    /// reads need no coordination.
    ///
    /// On error the cursor stays on the failing stripe: the ticket (or a
    /// fresh `begin_*`) can retry after the cause is repaired.
    ///
    /// # Errors
    ///
    /// [`ArrayError::WrongDiskState`] if the disk's state changed under
    /// the ticket (e.g. re-failed replacement);
    /// [`ArrayError::SpareUnavailable`] if a needed spare cell is on a
    /// failed disk; [`ArrayError::SpareMissing`] if the layout provides
    /// no spare cell for an affected stripe;
    /// [`ArrayError::Unrecoverable`] if reconstruction is impossible.
    pub fn rebuild_step(
        &self,
        ticket: &mut RebuildTicket,
        batch: u64,
    ) -> Result<RebuildProgress, ArrayError> {
        let result = self.rebuild_step_inner(ticket, batch.max(1));
        if result.is_err() {
            self.emit(ObsEvent::RebuildHalted {
                repaired: ticket.repaired(),
                total: ticket.total(),
            });
        }
        result
    }

    fn rebuild_step_inner(
        &self,
        ticket: &mut RebuildTicket,
        batch: u64,
    ) -> Result<RebuildProgress, ArrayError> {
        // Revalidate: the array may have changed since the ticket was
        // issued (or since the last step).
        {
            let failed = rlock(&self.failed);
            let valid = match ticket.kind {
                RebuildKind::Spare => {
                    failed.contains(&ticket.disk) && !rlock(&self.spared).contains(&ticket.disk)
                }
                RebuildKind::CopyBack => failed.contains(&ticket.disk),
            };
            // A finished ticket is always steppable (it's a no-op), so
            // callers can drive to completion without racing lifecycle
            // changes that happen after finalization.
            let finished = ticket.is_done() && ticket.finalized;
            if !valid && !finished {
                return Err(ArrayError::WrongDiskState);
            }
        }
        let mut stepped = 0u64;
        while stepped < batch && !ticket.is_done() {
            let stripe = ticket.stripes[ticket.cursor];
            match ticket.kind {
                RebuildKind::Spare => self.spare_step(stripe, ticket.disk)?,
                RebuildKind::CopyBack => self.copy_back_step(stripe, ticket.disk)?,
            }
            ticket.cursor += 1;
            stepped += 1;
            self.emit(ObsEvent::RebuildProgress {
                repaired: ticket.repaired(),
                total: ticket.total(),
            });
        }
        if ticket.is_done() && !ticket.finalized {
            match ticket.kind {
                RebuildKind::Spare => {
                    wlock(&self.spared).insert(ticket.disk);
                }
                RebuildKind::CopyBack => {
                    wlock(&self.failed).remove(&ticket.disk);
                    wlock(&self.spared).remove(&ticket.disk);
                    wlock(&self.restoring).retain(|a| a.disk != ticket.disk);
                }
            }
            ticket.finalized = true;
            if ticket.total() == 0 {
                // No per-unit events fired; emit one terminal marker.
                self.emit(ObsEvent::RebuildProgress {
                    repaired: 0,
                    total: 0,
                });
            }
        }
        Ok(RebuildProgress {
            repaired: ticket.repaired(),
            total: ticket.total(),
            done: ticket.is_done(),
        })
    }

    /// Reconstruct `stripe`'s unit on failed `disk` into its spare cell
    /// and insert the redirect.
    fn spare_step(&self, stripe: u64, disk: usize) -> Result<(), ArrayError> {
        let Some(lost) = self.lost_unit(stripe, disk) else {
            return Ok(());
        };
        if rlock(&self.redirects)
            .get(&lost.addr)
            .is_some_and(|t| !lock(&self.disks[t.disk]).is_failed())
        {
            return Ok(()); // already safely in spare space
        }
        let spare = self
            .layout
            .spare_unit(stripe, disk)
            .ok_or(ArrayError::SpareMissing { stripe })?;
        if lock(&self.disks[spare.disk]).is_failed() {
            return Err(ArrayError::SpareUnavailable);
        }
        let shards = self.stripe_shards(stripe, &[])?;
        let content = match lost.role {
            Role::Data => &shards[lost.index],
            Role::Check => &shards[self.layout.data_per_stripe() + lost.index],
            Role::Spare => unreachable!("stripe units are never spares"),
        };
        lock(&self.disks[spare.disk]).write_unit(spare.offset, content)?;
        wlock(&self.redirects).insert(lost.addr, spare);
        Ok(())
    }

    /// Restore `stripe`'s unit on replacement `disk`: copy back from
    /// spare space when a redirect exists, reconstruct through parity
    /// otherwise. A unit a client write already validated needs nothing.
    fn copy_back_step(&self, stripe: u64, disk: usize) -> Result<(), ArrayError> {
        let Some(lost) = self.lost_unit(stripe, disk) else {
            return Ok(());
        };
        let redirect = rlock(&self.redirects).get(&lost.addr).copied();
        if let Some(spare) = redirect {
            let content = lock(&self.disks[spare.disk]).read_unit(spare.offset)?;
            lock(&self.disks[disk]).write_unit(lost.addr.offset, &content)?;
            wlock(&self.redirects).remove(&lost.addr);
        } else if rlock(&self.restoring).contains(&lost.addr) {
            // read_phys treats restoring units as failed, so the normal
            // reconstruction path recovers the content from survivors.
            let shards = self.stripe_shards(stripe, &[])?;
            let content = match lost.role {
                Role::Data => &shards[lost.index],
                Role::Check => &shards[self.layout.data_per_stripe() + lost.index],
                Role::Spare => unreachable!("stripe units are never spares"),
            };
            lock(&self.disks[disk]).write_unit(lost.addr.offset, content)?;
            wlock(&self.restoring).remove(&lost.addr);
        }
        Ok(())
    }

    /// Rebuild a failed disk's stripe units into the layout's distributed
    /// spare space, to completion (a [`DeclusteredArray::begin_rebuild`]
    /// ticket stepped in one unbounded batch). The disk slot stays
    /// empty; reads are redirected. Returns the number of units rebuilt.
    ///
    /// # Errors
    ///
    /// As [`DeclusteredArray::begin_rebuild`] and
    /// [`DeclusteredArray::rebuild_step`]. On a mid-rebuild error the
    /// completed units stay redirected and a retry (after repairing the
    /// cause) skips them.
    pub fn rebuild_to_spare(&self, disk: usize) -> Result<u64, ArrayError> {
        let mut ticket = self.begin_rebuild(disk)?;
        let progress = self.rebuild_step(&mut ticket, u64::MAX)?;
        Ok(progress.repaired)
    }

    /// Install a blank replacement drive in a failed slot and restore its
    /// contents to completion (a [`DeclusteredArray::begin_copy_back`]
    /// ticket stepped in one unbounded batch). Clears the redirects and
    /// returns the array (slot) to fault-free operation.
    ///
    /// # Errors
    ///
    /// [`ArrayError::WrongDiskState`] if the disk is not failed;
    /// [`ArrayError::Unrecoverable`] if reconstruction is impossible.
    pub fn replace_and_rebuild(&self, disk: usize) -> Result<u64, ArrayError> {
        let mut ticket = self.begin_copy_back(disk)?;
        let progress = self.rebuild_step(&mut ticket, u64::MAX)?;
        Ok(progress.repaired)
    }

    /// Verify parity consistency of every stripe on healthy disks;
    /// returns the stripe numbers whose stored checks do not match the
    /// re-encoded data. Stripes with unreadable units are skipped.
    pub fn scrub(&self) -> Result<Vec<u64>, ArrayError> {
        let mut bad = Vec::new();
        'stripes: for stripe in 0..self.periods * self.layout.stripes_per_period() {
            let Some(expected) = self.encode_row(stripe, &[])? else {
                continue;
            };
            for (i, want) in &expected {
                match self.read_phys(self.layout.check_unit(stripe, *i))? {
                    Some(stored) if &stored == want => {}
                    Some(_) => {
                        bad.push(stripe);
                        continue 'stripes;
                    }
                    None => continue 'stripes,
                }
            }
        }
        self.emit(ObsEvent::ScrubPass {
            stripes: self.periods * self.layout.stripes_per_period(),
            repaired: bad.len() as u64,
        });
        Ok(bad)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pddl_core::{Pddl, Raid5};
    use pddl_disk::fault::CellFaults;

    fn pattern(len: usize, seed: u8) -> Vec<u8> {
        (0..len)
            .map(|i| seed.wrapping_mul(97).wrapping_add((i % 251) as u8))
            .collect()
    }

    fn small_array() -> DeclusteredArray {
        DeclusteredArray::new(Box::new(Pddl::new(7, 3).unwrap()), 16, 3).unwrap()
    }

    #[test]
    fn write_read_roundtrip() {
        let a = small_array();
        let buf = pattern(16 * 10, 1);
        a.write(5, &buf).unwrap();
        assert_eq!(a.read(5, 10).unwrap(), buf);
        // Unwritten space reads as zeroes.
        assert_eq!(a.read(30, 1).unwrap(), vec![0u8; 16]);
        assert_eq!(a.mode(), ArrayMode::FaultFree);
    }

    #[test]
    fn scrub_is_clean_after_writes() {
        let a = small_array();
        a.write(0, &pattern(16 * 20, 2)).unwrap();
        assert_eq!(a.scrub().unwrap(), Vec::<u64>::new());
    }

    #[test]
    fn read_media_fault_is_absorbed_by_reconstruction() {
        let mut a = small_array();
        let faults = Arc::new(CellFaults::new());
        a.attach_fault_hook(faults.clone());
        let buf = pattern(16 * 12, 9);
        a.write(0, &buf).unwrap();
        let (stripe, index) = a.layout().locate(3);
        let addr = a.layout().data_unit(stripe, index);
        faults.arm(addr.disk, addr.offset, AccessKind::Read);
        // The unreadable unit comes back through parity, every time the
        // armed cell is hit — persistent, not fire-once.
        assert_eq!(a.read(3, 1).unwrap(), &buf[3 * 16..4 * 16]);
        assert_eq!(a.read(3, 1).unwrap(), &buf[3 * 16..4 * 16]);
        assert!(faults.fired(AccessKind::Read) >= 2);
        faults.disarm_all();
        assert_eq!(a.read(3, 1).unwrap(), &buf[3 * 16..4 * 16]);
    }

    #[test]
    fn write_media_fault_is_typed_and_journal_replay_heals_it() {
        let mut a = small_array();
        let faults = Arc::new(CellFaults::new());
        a.attach_fault_hook(faults.clone());
        a.write(0, &pattern(16 * 12, 4)).unwrap();
        let (stripe, index) = a.layout().locate(0);
        let addr = a.layout().data_unit(stripe, index);
        faults.arm(addr.disk, addr.offset, AccessKind::Write);
        let err = a.write(0, &pattern(16, 5)).unwrap_err();
        assert!(
            matches!(err, ArrayError::MediaError { disk, offset }
                if disk == addr.disk && offset == addr.offset),
            "{err:?}"
        );
        assert_eq!(faults.fired(AccessKind::Write), 1);
        // The interrupted update's intent stays journaled for repair.
        assert_eq!(a.outstanding_intents(), vec![stripe]);
        faults.disarm_all();
        assert_eq!(a.recover().unwrap(), 1);
        assert!(a.outstanding_intents().is_empty());
        assert_eq!(a.scrub().unwrap(), Vec::<u64>::new());
    }

    #[test]
    fn small_write_declines_to_rmw_under_read_faults() {
        let mut a = small_array();
        let faults = Arc::new(CellFaults::new());
        a.attach_fault_hook(faults.clone());
        a.write(0, &pattern(16 * 12, 6)).unwrap();
        // An unreadable check unit makes the delta path impossible; the
        // write must still succeed via whole-stripe reconstruction.
        let (stripe, _) = a.layout().locate(0);
        let check = a.layout().check_unit(stripe, 0);
        faults.arm(check.disk, check.offset, AccessKind::Read);
        let fresh = pattern(16, 7);
        a.write(0, &fresh).unwrap();
        assert_eq!(a.read(0, 1).unwrap(), fresh);
        faults.disarm_all();
        assert_eq!(a.scrub().unwrap(), Vec::<u64>::new());
    }

    #[test]
    fn recover_surfaces_media_fault_and_keeps_the_journal() {
        let mut a = small_array();
        let faults = Arc::new(CellFaults::new());
        a.attach_fault_hook(faults.clone());
        a.write(0, &pattern(16 * 12, 8)).unwrap();
        let (stripe, index) = a.layout().locate(1);
        let data = a.layout().data_unit(stripe, index);
        // Tear the stripe with a write fault...
        faults.arm(data.disk, data.offset, AccessKind::Write);
        assert!(a.write(1, &pattern(16, 9)).is_err());
        assert_eq!(a.outstanding_intents(), vec![stripe]);
        // ...then make replay itself hit a read fault: typed error and
        // the journal entry survives for a later retry.
        faults.disarm_all();
        faults.arm(data.disk, data.offset, AccessKind::Read);
        assert!(matches!(a.recover(), Err(ArrayError::MediaError { .. })));
        assert_eq!(a.outstanding_intents(), vec![stripe]);
        faults.disarm_all();
        assert_eq!(a.recover().unwrap(), 1);
        assert_eq!(a.scrub().unwrap(), Vec::<u64>::new());
    }

    #[test]
    fn degraded_reads_reconstruct() {
        let a = small_array();
        let buf = pattern(16 * 24, 3);
        a.write(0, &buf).unwrap();
        for victim in 0..7 {
            let b = small_array();
            b.write(0, &buf).unwrap();
            b.fail_disk(victim).unwrap();
            assert_eq!(b.mode(), ArrayMode::Degraded);
            assert_eq!(b.read(0, 24).unwrap(), buf, "victim {victim}");
        }
    }

    #[test]
    fn degraded_scan_reconstructs_each_stripe_once() {
        // d = 3, c = 1: a stripe whose *first* data unit is lost makes
        // the saving visible — without the stripe cache the scan pays
        // (d + c − 1) shard reads for the missing unit plus (d − 1)
        // direct reads; with it, the whole stripe costs (d + c − 1).
        let a = DeclusteredArray::new(Box::new(Pddl::new(13, 4).unwrap()), 16, 1).unwrap();
        let d = a.layout().data_per_stripe() as u64;
        let c = a.layout().check_per_stripe() as u64;
        let buf = pattern(16 * a.capacity_units() as usize, 11);
        a.write(0, &buf).unwrap();
        // Find a stripe whose index-0 data unit sits on some disk, and
        // fail that disk.
        let stripe = 5u64;
        let victim = a.layout().data_unit(stripe, 0).disk;
        a.fail_disk(victim).unwrap();
        // First logical unit of the stripe (locate is row-major).
        let start = (0..a.capacity_units())
            .find(|&l| a.layout().locate(l) == (stripe, 0))
            .unwrap();
        let (reads_before, _) = a.io_counts();
        let got = a.read(start, d).unwrap();
        assert_eq!(
            got,
            &buf[start as usize * 16..(start + d) as usize * 16],
            "degraded stripe reads back wrong bytes"
        );
        let (reads_after, _) = a.io_counts();
        // One reconstruction serves every unit of the stripe: d + c − 1
        // surviving shards are read once, nothing per additional unit.
        assert_eq!(reads_after - reads_before, d + c - 1);
    }

    #[test]
    fn degraded_writes_preserved_through_repair() {
        let a = small_array();
        a.write(0, &pattern(16 * 8, 4)).unwrap();
        a.fail_disk(2).unwrap();
        // Overwrite while degraded — including units whose home is disk 2.
        let newer = pattern(16 * 8, 5);
        a.write(0, &newer).unwrap();
        assert_eq!(a.read(0, 8).unwrap(), newer);
        // Rebuild into spare space, then verify again.
        let rebuilt = a.rebuild_to_spare(2).unwrap();
        assert!(rebuilt > 0);
        assert_eq!(a.mode(), ArrayMode::PostReconstruction);
        assert_eq!(a.read(0, 8).unwrap(), newer);
        // Replace the disk, copy back, and verify fault-free again.
        a.replace_and_rebuild(2).unwrap();
        assert_eq!(a.mode(), ArrayMode::FaultFree);
        assert_eq!(a.read(0, 8).unwrap(), newer);
        assert_eq!(a.scrub().unwrap(), Vec::<u64>::new());
    }

    #[test]
    fn replacement_without_sparing() {
        let a = DeclusteredArray::new(Box::new(Raid5::new(5).unwrap()), 8, 2).unwrap();
        let buf = pattern(8 * 6, 6);
        a.write(0, &buf).unwrap();
        a.fail_disk(1).unwrap();
        assert_eq!(a.rebuild_to_spare(1), Err(ArrayError::NoSpareSpace));
        assert_eq!(a.read(0, 6).unwrap(), buf);
        a.replace_and_rebuild(1).unwrap();
        assert_eq!(a.mode(), ArrayMode::FaultFree);
        assert_eq!(a.read(0, 6).unwrap(), buf);
        assert_eq!(a.scrub().unwrap(), Vec::<u64>::new());
    }

    #[test]
    fn double_failure_with_two_checks() {
        let layout = Pddl::new(13, 4).unwrap().with_check_units(2).unwrap();
        let a = DeclusteredArray::new(Box::new(layout), 8, 1).unwrap();
        let buf = pattern(8 * 20, 7);
        a.write(0, &buf).unwrap();
        a.fail_disk(3).unwrap();
        a.fail_disk(9).unwrap();
        assert_eq!(a.read(0, 20).unwrap(), buf);
        a.replace_and_rebuild(3).unwrap();
        a.replace_and_rebuild(9).unwrap();
        assert_eq!(a.read(0, 20).unwrap(), buf);
        assert_eq!(a.scrub().unwrap(), Vec::<u64>::new());
    }

    #[test]
    fn double_failure_with_single_check_is_unrecoverable() {
        let a = small_array();
        a.write(0, &pattern(16 * 8, 8)).unwrap();
        a.fail_disk(0).unwrap();
        a.fail_disk(1).unwrap();
        // Some stripe spans both failed disks (k = 3 of 7).
        let result = a.read(0, a.capacity_units());
        assert!(
            matches!(result, Err(ArrayError::Unrecoverable { .. })),
            "{result:?}"
        );
    }

    #[test]
    fn write_to_an_unrecoverable_stripe_is_typed_and_writes_nothing() {
        let a = small_array();
        a.write(0, &pattern(16 * 8, 8)).unwrap();
        a.fail_disk(0).unwrap();
        a.fail_disk(1).unwrap();
        // A stripe with units on both failed disks has lost more than its
        // one check: the planner's answer is a value, and the array turns
        // it into an error before touching a device.
        let unit = (0..a.capacity_units())
            .find(|&u| {
                let units = a.layout().stripe_units(a.layout().locate(u).0);
                units.iter().filter(|s| s.addr.disk <= 1).count() == 2
            })
            .expect("k = 3 of 7: some stripe spans disks 0 and 1");
        let stripe = a.layout().locate(unit).0;
        let before = a.io_counts();
        let result = a.write(unit, &pattern(16, 9));
        assert_eq!(result, Err(ArrayError::Unrecoverable { stripe }));
        assert_eq!(a.io_counts(), before, "nothing read, nothing written");
        assert_eq!(a.outstanding_intents(), vec![stripe]);
    }

    #[test]
    fn sequential_failures_with_spare_recovery() -> Result<(), ArrayError> {
        // Fail disk A, rebuild to spare, then fail disk B: the array is
        // again degraded but still serves everything (A's data lives in
        // spare space; B reconstructs on the fly).
        let a = small_array();
        let buf = pattern(16 * 24, 9);
        a.write(0, &buf)?;
        a.fail_disk(6)?;
        a.rebuild_to_spare(6)?;
        a.fail_disk(4)?;
        assert_eq!(a.mode(), ArrayMode::Degraded);
        // Stripes whose spare cell for disk 6 lived on disk 4 lose two
        // units — recoverable only if no such stripe is touched; any
        // other error propagates as a test failure instead of panicking.
        match a.read(0, 24) {
            Ok(data) => assert_eq!(data, buf),
            Err(ArrayError::Unrecoverable { .. }) => {}
            Err(other) => return Err(other),
        }
        Ok(())
    }

    #[test]
    fn address_validation() {
        let a = small_array();
        let cap = a.capacity_units();
        assert_eq!(a.read(cap, 1), Err(ArrayError::BadAddress));
        assert_eq!(a.read(0, 0), Err(ArrayError::BadAddress));
        assert_eq!(a.write(0, &[1, 2, 3]), Err(ArrayError::BadAddress));
        assert_eq!(a.write(cap, &pattern(16, 0)), Err(ArrayError::BadAddress));
        // Overflowing start + units must be a BadAddress, not a wrap
        // (a wrapped sum would pass validation and read nothing) or a
        // debug-mode panic.
        assert_eq!(a.read(u64::MAX, 1), Err(ArrayError::BadAddress));
        assert_eq!(a.read(u64::MAX - 1, 2), Err(ArrayError::BadAddress));
        assert_eq!(
            a.write(u64::MAX, &pattern(16, 0)),
            Err(ArrayError::BadAddress)
        );
        assert_eq!(a.fail_disk(99), Err(ArrayError::WrongDiskState));
        assert_eq!(a.replace_and_rebuild(0), Err(ArrayError::WrongDiskState));
        a.fail_disk(0).unwrap();
        assert_eq!(a.fail_disk(0), Err(ArrayError::WrongDiskState));
    }

    #[test]
    fn lifecycle_events_reach_the_observer() {
        use pddl_obs::{ObsConfig, Observer};
        use std::sync::{Arc, Mutex};
        let obs = Arc::new(Mutex::new(Observer::new(ObsConfig::default())));
        let mut a = small_array();
        a.attach_observer(obs.clone());
        a.write(0, &pattern(16 * 8, 1)).unwrap();
        a.fail_disk(2).unwrap();
        let rebuilt = a.rebuild_to_spare(2).unwrap();
        a.replace_and_rebuild(2).unwrap();
        a.scrub().unwrap();
        let o = obs.lock().unwrap();
        let r = o.registry();
        // One journal commit per touched stripe on the write path, one
        // group commit per batch, batch sizes in the histogram.
        assert!(r.counter("journal.commits").unwrap() > 0);
        assert!(r.counter("journal.group_commits").unwrap() > 0);
        let batch_sizes = r.histogram("journal.batch_size").unwrap();
        assert!(batch_sizes.count() > 0);
        assert_eq!(r.counter("disk.failures"), Some(1));
        assert_eq!(r.counter("scrub.passes"), Some(1));
        assert_eq!(r.counter("scrub.repaired"), Some(0));
        // Rebuild progress reached the rebuilt-unit count (copy-back
        // restores the same set of units, so the final gauge matches).
        assert!(rebuilt > 0);
        assert_eq!(r.gauge("rebuild.repaired_units"), Some(rebuilt as f64));
        // Events are ordered by the pseudo-clock sequence.
        let mut last = 0;
        for &(t, _) in o.tracer().iter() {
            assert!(t > last, "sequence must be strictly increasing");
            last = t;
        }
    }

    #[test]
    fn journal_replay_is_observable() {
        use pddl_obs::{ObsConfig, Observer};
        use std::sync::{Arc, Mutex};
        let obs = Arc::new(Mutex::new(Observer::new(ObsConfig::default())));
        let mut a = small_array();
        a.write(0, &pattern(16 * 8, 2)).unwrap();
        a.attach_observer(obs.clone());
        a.arm_crash(1);
        let _ = a.write(0, &pattern(16, 3));
        let replayed = a.recover().unwrap();
        assert_eq!(replayed, 1);
        assert_eq!(
            obs.lock()
                .unwrap()
                .registry()
                .counter("journal.replayed_stripes"),
            Some(1)
        );
    }

    #[test]
    fn batched_rebuild_steps_report_progress_and_complete() {
        let a = small_array();
        let buf = pattern(16 * 24, 10);
        a.write(0, &buf).unwrap();
        a.fail_disk(5).unwrap();
        let mut t = a.begin_rebuild(5).unwrap();
        let total = t.total();
        assert!(total > 0);
        assert_eq!(t.kind(), RebuildKind::Spare);
        assert_eq!(t.disk(), 5);
        let mut last = 0;
        while !t.is_done() {
            let p = a.rebuild_step(&mut t, 2).unwrap();
            assert_eq!(p.total, total, "total stays constant across steps");
            assert!(p.repaired > last && p.repaired <= last + 2);
            last = p.repaired;
            // Client I/O between batches sees correct data throughout.
            assert_eq!(a.read(0, 24).unwrap(), buf);
        }
        assert_eq!(a.mode(), ArrayMode::PostReconstruction);
        // Stepping a completed ticket is a harmless no-op.
        let p = a.rebuild_step(&mut t, 8).unwrap();
        assert!(p.done);
        assert_eq!(p.repaired, total);
        a.replace_and_rebuild(5).unwrap();
        assert_eq!(a.scrub().unwrap(), Vec::<u64>::new());
    }

    #[test]
    fn incremental_copy_back_validates_client_writes_early() {
        // Replace a degraded (never-spared) disk and restore it in small
        // batches: mid-restore reads reconstruct through parity, and a
        // client write validates its units ahead of the copy-back.
        let a = small_array();
        let buf = pattern(16 * 24, 13);
        a.write(0, &buf).unwrap();
        a.fail_disk(4).unwrap();
        let mut t = a.begin_copy_back(4).unwrap();
        assert_eq!(t.kind(), RebuildKind::CopyBack);
        assert!(t.total() > 0);
        a.rebuild_step(&mut t, 1).unwrap();
        assert_eq!(a.read(0, 24).unwrap(), buf);
        let newer = pattern(16 * 24, 14);
        a.write(0, &newer).unwrap();
        assert_eq!(a.read(0, 24).unwrap(), newer);
        while !t.is_done() {
            a.rebuild_step(&mut t, 2).unwrap();
        }
        assert_eq!(a.mode(), ArrayMode::FaultFree);
        assert_eq!(a.read(0, 24).unwrap(), newer);
        assert_eq!(a.scrub().unwrap(), Vec::<u64>::new());
    }

    #[test]
    fn rebuild_progress_events_carry_true_totals() {
        use pddl_obs::{ObsConfig, Observer};
        use std::sync::{Arc, Mutex};
        let obs = Arc::new(Mutex::new(Observer::new(ObsConfig::default())));
        let mut a = small_array();
        a.attach_observer(obs.clone());
        a.write(0, &pattern(16 * 24, 7)).unwrap();
        a.fail_disk(2).unwrap();
        let rebuilt = a.rebuild_to_spare(2).unwrap();
        assert!(rebuilt > 0);
        let collect = || -> Vec<(u64, u64)> {
            obs.lock()
                .unwrap()
                .tracer()
                .iter()
                .filter_map(|&(_, e)| match e {
                    ObsEvent::RebuildProgress { repaired, total } => Some((repaired, total)),
                    _ => None,
                })
                .collect()
        };
        // Every per-unit event — not just the last — carries the true,
        // constant, nonzero total, and repaired counts up to it.
        let progress = collect();
        assert_eq!(progress.len() as u64, rebuilt);
        for (i, &(repaired, total)) in progress.iter().enumerate() {
            assert_eq!(total, rebuilt, "event {i} total");
            assert_eq!(repaired, i as u64 + 1, "event {i} repaired");
        }
        // Copy-back restores the same unit set and behaves the same.
        let restored = a.replace_and_rebuild(2).unwrap();
        let after = &collect()[progress.len()..];
        assert_eq!(after.len() as u64, restored);
        for (i, &(repaired, total)) in after.iter().enumerate() {
            assert_eq!(total, restored, "copy-back event {i} total");
            assert_eq!(repaired, i as u64 + 1, "copy-back event {i} repaired");
        }
    }

    /// A layout that claims sparing support but never produces a spare
    /// cell — the shape of bug `rebuild_to_spare` used to panic on.
    #[derive(Debug)]
    struct SparelessSparing(Pddl);

    impl Layout for SparelessSparing {
        fn name(&self) -> &str {
            "broken-sparing"
        }
        fn disks(&self) -> usize {
            self.0.disks()
        }
        fn stripe_width(&self) -> usize {
            self.0.stripe_width()
        }
        fn check_per_stripe(&self) -> usize {
            self.0.check_per_stripe()
        }
        fn period_rows(&self) -> u64 {
            self.0.period_rows()
        }
        fn stripes_per_period(&self) -> u64 {
            self.0.stripes_per_period()
        }
        fn data_units_per_period(&self) -> u64 {
            self.0.data_units_per_period()
        }
        fn locate(&self, logical: u64) -> (u64, usize) {
            self.0.locate(logical)
        }
        fn data_unit(&self, stripe: u64, index: usize) -> PhysAddr {
            self.0.data_unit(stripe, index)
        }
        fn check_unit(&self, stripe: u64, index: usize) -> PhysAddr {
            self.0.check_unit(stripe, index)
        }
        fn has_sparing(&self) -> bool {
            true
        }
    }

    #[test]
    fn missing_spare_cell_is_a_typed_error_not_a_panic() {
        let layout = SparelessSparing(Pddl::new(7, 3).unwrap());
        let a = DeclusteredArray::new(Box::new(layout), 16, 2).unwrap();
        let buf = pattern(16 * 10, 9);
        a.write(0, &buf).unwrap();
        a.fail_disk(1).unwrap();
        let err = a.rebuild_to_spare(1).unwrap_err();
        assert!(matches!(err, ArrayError::SpareMissing { .. }), "{err:?}");
        // The failure degrades to an error: the array keeps serving.
        assert_eq!(a.mode(), ArrayMode::Degraded);
        assert_eq!(a.read(0, 10).unwrap(), buf);
    }

    #[test]
    fn spare_failure_mid_rebuild_halts_then_resumes_cleanly() {
        use pddl_obs::{ObsConfig, Observer};
        use std::sync::{Arc, Mutex};
        // Two check units so the array survives the spare disk failing
        // while the first disk is still partially rebuilt.
        let layout = Pddl::new(13, 4).unwrap().with_check_units(2).unwrap();
        let obs = Arc::new(Mutex::new(Observer::new(ObsConfig::default())));
        let mut a = DeclusteredArray::new(Box::new(layout), 8, 1).unwrap();
        a.attach_observer(obs.clone());
        let cap = a.capacity_units();
        let buf = pattern(8 * cap as usize, 11);
        a.write(0, &buf).unwrap();
        a.fail_disk(3).unwrap();
        let mut t = a.begin_rebuild(3).unwrap();
        let total = t.total();
        let pending: Vec<u64> = t.pending_stripes().to_vec();
        let spare_of = |s: u64| a.layout().spare_unit(s, 3).unwrap().disk;
        // Pick a spare disk that the first stripe does NOT use, so one
        // redirect lands and survives before the spare disk dies.
        let first = spare_of(pending[0]);
        let b = pending
            .iter()
            .map(|&s| spare_of(s))
            .find(|&d| d != first && d != 3)
            .expect("distributed sparing uses more than one spare disk");
        a.rebuild_step(&mut t, 1).unwrap();
        a.fail_disk(b).unwrap();
        // Stepping on must halt with a typed error once a needed spare
        // cell sits on the failed disk — no spared marking, no panic.
        let err = loop {
            match a.rebuild_step(&mut t, 1) {
                Ok(p) if p.done => break None,
                Ok(_) => {}
                Err(e) => break Some(e),
            }
        };
        assert_eq!(err, Some(ArrayError::SpareUnavailable));
        assert_eq!(a.mode(), ArrayMode::Degraded);
        // The halt is observable as a terminal event.
        assert!(
            obs.lock().unwrap().registry().counter("rebuild.halts") >= Some(1),
            "terminal halted event must be emitted"
        );
        // Repair the spare disk, retry: the retry skips the units that
        // were already redirected, completes, and the data checks out.
        a.replace_and_rebuild(b).unwrap();
        let rebuilt = a.rebuild_to_spare(3).unwrap();
        assert!(
            rebuilt < total,
            "retry must skip already-redirected units ({rebuilt} vs {total})"
        );
        assert_eq!(a.mode(), ArrayMode::PostReconstruction);
        assert_eq!(a.read(0, cap).unwrap(), buf);
        a.replace_and_rebuild(3).unwrap();
        assert_eq!(a.mode(), ArrayMode::FaultFree);
        assert_eq!(a.scrub().unwrap(), Vec::<u64>::new());
    }

    #[test]
    fn capacity_matches_layout() {
        let a = small_array();
        // 7-disk PDDL, g = 2, k = 3: 4 data units per row × 7 rows × 3 periods.
        assert_eq!(a.capacity_units(), 4 * 7 * 3);
        assert_eq!(a.unit_bytes(), 16);
        assert_eq!(a.layout().name(), "PDDL");
    }
}

#[cfg(test)]
mod small_write_tests {
    use super::*;
    use pddl_core::Pddl;
    use pddl_disk::fault::CellFaults;

    fn pattern(len: usize, seed: u8) -> Vec<u8> {
        (0..len)
            .map(|i| seed.wrapping_mul(31).wrapping_add(i as u8))
            .collect()
    }

    #[test]
    fn small_writes_use_fewer_ios_and_stay_consistent() {
        // RAID-5 with a 12-data-unit stripe: a single-unit update should
        // cost 2 reads + 2 writes, not 12 reads + 2 writes.
        let a = DeclusteredArray::new(Box::new(pddl_core::Raid5::new(13).unwrap()), 16, 2).unwrap();
        a.write(0, &pattern(16 * 24, 1)).unwrap();
        let (r0, w0) = a.io_counts();
        a.write(5, &pattern(16, 2)).unwrap();
        let (r1, w1) = a.io_counts();
        assert_eq!(r1 - r0, 2, "old data + old parity");
        assert_eq!(w1 - w0, 2, "new data + new parity");
        assert_eq!(a.scrub().unwrap(), Vec::<u64>::new());
        assert_eq!(a.read(5, 1).unwrap(), pattern(16, 2));
    }

    #[test]
    fn delta_and_rmw_paths_agree() {
        // Write the same data through both paths (small update on a
        // healthy array vs the same update forced through RMW by a
        // concurrent failure) and compare the readback + parity.
        let make = || {
            let a = DeclusteredArray::new(Box::new(Pddl::new(13, 4).unwrap()), 16, 1).unwrap();
            a.write(0, &pattern(16 * 30, 3)).unwrap();
            a
        };
        let healthy = make();
        healthy.write(7, &pattern(16, 4)).unwrap(); // delta path
        let degraded = make();
        degraded.fail_disk(12).unwrap();
        degraded.write(7, &pattern(16, 4)).unwrap(); // RMW path
        degraded.replace_and_rebuild(12).unwrap();
        assert_eq!(healthy.read(0, 30).unwrap(), degraded.read(0, 30).unwrap());
        assert_eq!(healthy.scrub().unwrap(), Vec::<u64>::new());
        assert_eq!(degraded.scrub().unwrap(), Vec::<u64>::new());
    }

    #[test]
    fn multi_check_small_writes_maintain_rs_parity() {
        let layout = Pddl::new(13, 4).unwrap().with_check_units(2).unwrap();
        let a = DeclusteredArray::new(Box::new(layout), 8, 1).unwrap();
        a.write(0, &pattern(8 * 20, 5)).unwrap();
        a.write(3, &pattern(8, 6)).unwrap(); // d=2, w=1 → small write
        assert_eq!(a.scrub().unwrap(), Vec::<u64>::new());
        // Survives a double failure, proving the RS checks were updated.
        a.fail_disk(0).unwrap();
        a.fail_disk(6).unwrap();
        assert_eq!(a.read(3, 1).unwrap(), pattern(8, 6));
    }

    #[test]
    fn permuted_region_batch_updates_each_stripe_once() {
        // Over PDDL's permuted region, a batch's deposit order revisits
        // stripes non-adjacently (ops land wherever clients issued
        // them); run-adjacency grouping would journal and parity-update
        // the same stripe once per visit. Build a deposit order whose
        // stripe sequence is s0, s1, s0, ... and assert the batch costs
        // exactly one parity update per distinct stripe: physical
        // writes == units + distinct_stripes × c.
        let a = DeclusteredArray::new(Box::new(Pddl::new(7, 3).unwrap()), 16, 2).unwrap();
        a.write(0, &pattern(16 * a.capacity_units() as usize, 1))
            .unwrap();
        let c = a.layout().check_per_stripe() as u64;
        let d = a.layout().data_per_stripe() as u64;
        // Units 0 and 1 share stripe s0; unit d is the first unit of
        // the next stripe. Deposit order s0, s1, s0.
        let (s0, _) = a.layout().locate(0);
        let (s1, _) = a.layout().locate(d);
        assert_ne!(s0, s1);
        let chunks: Vec<Vec<u8>> = (0..3).map(|i| pattern(16, 2 + i)).collect();
        let ops: Vec<(u64, &[u8])> = vec![
            (0, chunks[0].as_slice()),
            (d, chunks[1].as_slice()),
            (1, chunks[2].as_slice()),
        ];
        let (_, w0) = a.io_counts();
        let results = a.write_batch(&ops);
        assert!(results.iter().all(Result::is_ok), "{results:?}");
        let (_, w1) = a.io_counts();
        assert_eq!(
            w1 - w0,
            3 + 2 * c,
            "each distinct stripe's checks written exactly once"
        );
        assert!(a.outstanding_intents().is_empty());
        assert_eq!(a.scrub().unwrap(), Vec::<u64>::new());
        for (i, &(start, _)) in ops.iter().enumerate() {
            assert_eq!(a.read(start, 1).unwrap(), chunks[i]);
        }
    }

    #[test]
    fn batched_same_stripe_writes_coalesce_into_one_rmw() {
        // RAID-5, 12 data units per stripe: units 0 and 5 share stripe
        // 0. Two separate ops cost 2 × (2r + 2w); one batch folds them
        // into a single delta RMW: (1 + 2) reads, (2 + 1) writes.
        let a = DeclusteredArray::new(Box::new(pddl_core::Raid5::new(13).unwrap()), 16, 2).unwrap();
        a.write(0, &pattern(16 * 24, 1)).unwrap();
        let (r0, w0) = a.io_counts();
        let (u0, u5) = (pattern(16, 2), pattern(16, 3));
        let results = a.write_batch(&[(0, &u0), (5, &u5)]);
        assert!(results.iter().all(Result::is_ok), "{results:?}");
        let (r1, w1) = a.io_counts();
        assert_eq!(r1 - r0, 3, "old parity + both old data units, once");
        assert_eq!(w1 - w0, 3, "both new data units + new parity, once");
        assert!(a.outstanding_intents().is_empty());
        assert_eq!(a.read(0, 1).unwrap(), u0);
        assert_eq!(a.read(5, 1).unwrap(), u5);
        assert_eq!(a.scrub().unwrap(), Vec::<u64>::new());
    }

    #[test]
    fn batch_covering_a_full_row_promotes_to_re_encode() {
        // Twelve single-unit ops covering stripe 0 entirely: the batch
        // promotes to a full-stripe re-encode — no reads at all, and
        // exactly d + c writes.
        let a = DeclusteredArray::new(Box::new(pddl_core::Raid5::new(13).unwrap()), 16, 2).unwrap();
        a.write(0, &pattern(16 * 24, 1)).unwrap();
        let chunks: Vec<Vec<u8>> = (0..12).map(|u| pattern(16, 4 + u as u8)).collect();
        let ops: Vec<(u64, &[u8])> = chunks
            .iter()
            .enumerate()
            .map(|(u, chunk)| (u as u64, chunk.as_slice()))
            .collect();
        let (r0, w0) = a.io_counts();
        let results = a.write_batch(&ops);
        assert!(results.iter().all(Result::is_ok), "{results:?}");
        let (r1, w1) = a.io_counts();
        assert_eq!(r1 - r0, 0, "full-stripe promotion reads nothing");
        assert_eq!(w1 - w0, 13, "d data units + 1 check unit");
        for (u, chunk) in chunks.iter().enumerate() {
            assert_eq!(a.read(u as u64, 1).unwrap(), *chunk);
        }
        assert_eq!(a.scrub().unwrap(), Vec::<u64>::new());
    }

    #[test]
    fn batch_last_writer_wins_on_the_same_unit() {
        let a = DeclusteredArray::new(Box::new(Pddl::new(7, 3).unwrap()), 16, 2).unwrap();
        a.write(0, &pattern(16 * 20, 1)).unwrap();
        let (first, second) = (pattern(16, 2), pattern(16, 3));
        let results = a.write_batch(&[(4, &first), (4, &second)]);
        assert!(results.iter().all(Result::is_ok), "{results:?}");
        assert_eq!(a.read(4, 1).unwrap(), second, "deposit order wins");
        assert_eq!(a.scrub().unwrap(), Vec::<u64>::new());
    }

    #[test]
    fn batch_media_error_fails_only_the_faulted_stripe() {
        let mut a = DeclusteredArray::new(Box::new(Pddl::new(7, 3).unwrap()), 16, 2).unwrap();
        let faults = Arc::new(CellFaults::new());
        a.attach_fault_hook(faults.clone());
        a.write(0, &pattern(16 * 20, 1)).unwrap();
        // Two ops on different stripes; arm a write fault under the
        // second one's data unit.
        let (s0, _) = a.layout().locate(0);
        let target = (1..20u64)
            .find(|&u| a.layout().locate(u).0 != s0)
            .expect("a unit on another stripe");
        let (s1, i1) = a.layout().locate(target);
        let addr = a.layout().data_unit(s1, i1);
        faults.arm(addr.disk, addr.offset, AccessKind::Write);
        let (ok_chunk, bad_chunk) = (pattern(16, 2), pattern(16, 3));
        let results = a.write_batch(&[(0, &ok_chunk), (target, &bad_chunk)]);
        assert!(results[0].is_ok(), "{results:?}");
        assert!(
            matches!(results[1], Err(ArrayError::MediaError { disk, offset })
                if disk == addr.disk && offset == addr.offset),
            "{results:?}"
        );
        // Only the faulted stripe's intent survives the group retire.
        assert_eq!(a.outstanding_intents(), vec![s1]);
        assert_eq!(a.read(0, 1).unwrap(), ok_chunk);
        faults.disarm_all();
        assert_eq!(a.recover().unwrap(), 1);
        assert_eq!(a.scrub().unwrap(), Vec::<u64>::new());
    }

    #[test]
    fn batch_media_error_fails_only_the_op_that_hit_it() {
        // Two single-unit ops on the two data units of one stripe, the
        // first op's unit write-armed. Merged, the batch writes the
        // second op's unit (the lower index) before the armed one fails;
        // replayed op by op, the second op succeeds, the stripe's checks
        // match what is on disk without any journal replay, and the one
        // failed op reports one write fault.
        use pddl_obs::{ObsConfig, Observer};
        let mut a = DeclusteredArray::new(Box::new(Pddl::new(7, 3).unwrap()), 16, 2).unwrap();
        let faults = Arc::new(CellFaults::new());
        a.attach_fault_hook(faults.clone());
        let obs = Arc::new(Mutex::new(Observer::new(ObsConfig::default())));
        a.attach_observer(obs.clone());
        a.write(0, &pattern(16 * 20, 1)).unwrap();
        let (stripe, _) = a.layout().locate(0);
        let unit_at = |index| {
            (0..20u64)
                .find(|&u| a.layout().locate(u) == (stripe, index))
                .expect("both data units of the stripe are in range")
        };
        let (armed, other) = (unit_at(1), unit_at(0));
        let addr = a.layout().data_unit(stripe, 1);
        faults.arm(addr.disk, addr.offset, AccessKind::Write);
        let (bad_chunk, ok_chunk) = (pattern(16, 2), pattern(16, 3));
        let results = a.write_batch(&[(armed, &bad_chunk), (other, &ok_chunk)]);
        assert!(
            matches!(results[0], Err(ArrayError::MediaError { disk, offset })
                if disk == addr.disk && offset == addr.offset),
            "{results:?}"
        );
        assert!(results[1].is_ok(), "{results:?}");
        assert_eq!(a.read(other, 1).unwrap(), ok_chunk);
        assert_eq!(a.scrub().unwrap(), Vec::<u64>::new(), "no stale delta");
        assert_eq!(a.outstanding_intents(), vec![stripe]);
        let media_write = lock(&obs).registry().counter("faults.media_write");
        assert_eq!(media_write, Some(1), "one failed op, one write fault");
        faults.disarm_all();
        assert_eq!(a.recover().unwrap(), 1);
        assert_eq!(a.scrub().unwrap(), Vec::<u64>::new());
        assert_eq!(a.read(other, 1).unwrap(), ok_chunk);
    }

    #[test]
    fn batch_rejects_bad_ops_without_touching_good_ones() {
        let a = DeclusteredArray::new(Box::new(Pddl::new(7, 3).unwrap()), 16, 2).unwrap();
        a.write(0, &pattern(16 * 20, 1)).unwrap();
        let good = pattern(16, 2);
        let ragged = pattern(9, 3);
        let cap = a.capacity_units();
        let results = a.write_batch(&[(0, &good), (0, &ragged), (cap, &good), (0, &[])]);
        assert!(results[0].is_ok());
        assert_eq!(results[1], Err(ArrayError::BadAddress));
        assert_eq!(results[2], Err(ArrayError::BadAddress));
        assert_eq!(results[3], Err(ArrayError::BadAddress));
        assert_eq!(a.read(0, 1).unwrap(), good);
        assert!(a.outstanding_intents().is_empty());
        assert_eq!(a.scrub().unwrap(), Vec::<u64>::new());
    }

    #[test]
    fn declined_delta_leaves_no_partial_write_behind() {
        // c = 2 and *two* unreadable data units in one stripe: the
        // delta path must decline before writing anything, so the
        // fallback's reconstruction runs against checks that still
        // match the data. (A half-applied delta here would reconstruct
        // the sibling unit through stale parity — silent corruption.)
        let layout = Pddl::new(13, 4).unwrap().with_check_units(2).unwrap();
        let d = 2; // data units per stripe for this shape
        for target in 0..20u64 {
            let mut a = DeclusteredArray::new(Box::new(layout.clone()), 8, 1).unwrap();
            let faults = Arc::new(CellFaults::new());
            a.attach_fault_hook(faults.clone());
            let old = pattern(8 * 20, 5);
            a.write(0, &old).unwrap();
            let (stripe, index) = a.layout().locate(target);
            let sibling_index = (index + 1) % d;
            faults.arm(
                a.layout().data_unit(stripe, index).disk,
                a.layout().data_unit(stripe, index).offset,
                AccessKind::Read,
            );
            faults.arm(
                a.layout().data_unit(stripe, sibling_index).disk,
                a.layout().data_unit(stripe, sibling_index).offset,
                AccessKind::Read,
            );
            let fresh = pattern(8, 6);
            a.write(target, &fresh).unwrap();
            faults.disarm_all();
            assert_eq!(a.read(target, 1).unwrap(), fresh, "target {target}");
            assert_eq!(a.scrub().unwrap(), Vec::<u64>::new(), "target {target}");
            // The sibling unit kept its old bytes: reconstruct its
            // logical address and compare.
            let sibling_logical = (0..a.capacity_units())
                .find(|&u| a.layout().locate(u) == (stripe, sibling_index))
                .expect("sibling unit is addressable");
            if sibling_logical < 20 {
                let want = &old[sibling_logical as usize * 8..(sibling_logical as usize + 1) * 8];
                assert_eq!(a.read(sibling_logical, 1).unwrap(), want, "target {target}");
            }
        }
    }

    #[test]
    fn write_fault_mid_delta_keeps_parity_recoverable() {
        // A write fault between the delta path's check-unit writes
        // tears the stripe (data new, checks mixed old/new). The intent
        // stays journaled; replay must restore consistency with the new
        // data visible. Swept over every unit of the first few stripes.
        let layout = Pddl::new(13, 4).unwrap().with_check_units(2).unwrap();
        for target in 0..20u64 {
            for faulted_check in 0..2usize {
                let mut a = DeclusteredArray::new(Box::new(layout.clone()), 8, 1).unwrap();
                let faults = Arc::new(CellFaults::new());
                a.attach_fault_hook(faults.clone());
                a.write(0, &pattern(8 * 20, 5)).unwrap();
                let (stripe, _) = a.layout().locate(target);
                let check = a.layout().check_unit(stripe, faulted_check);
                faults.arm(check.disk, check.offset, AccessKind::Write);
                let fresh = pattern(8, 7);
                let err = a.write(target, &fresh).unwrap_err();
                assert!(matches!(err, ArrayError::MediaError { .. }), "{err:?}");
                assert_eq!(a.outstanding_intents(), vec![stripe]);
                faults.disarm_all();
                assert_eq!(a.recover().unwrap(), 1);
                assert_eq!(
                    a.scrub().unwrap(),
                    Vec::<u64>::new(),
                    "target {target} check {faulted_check}"
                );
                assert_eq!(a.read(target, 1).unwrap(), fresh);
            }
        }
    }
}

#[cfg(test)]
mod file_backed_tests {
    use super::*;
    use crate::blockdev::FileDisk;
    use pddl_core::Pddl;

    #[test]
    fn full_lifecycle_on_real_files() {
        let dir = std::env::temp_dir();
        let tag = std::process::id();
        let layout = Pddl::new(7, 3).unwrap();
        let rows = 2 * layout.period_rows();
        let devices: Vec<Box<dyn BlockDevice>> = (0..7)
            .map(|d| {
                let path = dir.join(format!("pddl-array-{tag}-disk{d}.img"));
                Box::new(FileDisk::create(path, rows, 64).unwrap()) as Box<dyn BlockDevice>
            })
            .collect();
        let a = DeclusteredArray::with_devices(Box::new(layout), 64, 2, devices).unwrap();
        let cap = a.capacity_units();
        let payload: Vec<u8> = (0..cap as usize * 64)
            .map(|i| (i * 7 % 256) as u8)
            .collect();
        a.write(0, &payload).unwrap();
        a.fail_disk(4).unwrap();
        assert_eq!(a.read(0, cap).unwrap(), payload);
        a.rebuild_to_spare(4).unwrap();
        a.replace_and_rebuild(4).unwrap();
        assert_eq!(a.read(0, cap).unwrap(), payload);
        assert_eq!(a.scrub().unwrap(), Vec::<u64>::new());
        for d in 0..7 {
            let _ = std::fs::remove_file(dir.join(format!("pddl-array-{tag}-disk{d}.img")));
        }
    }

    #[test]
    fn with_devices_validates_shape() {
        let layout = || Box::new(Pddl::new(7, 3).unwrap());
        // Wrong count.
        let few: Vec<Box<dyn BlockDevice>> =
            (0..3).map(|_| Box::new(RamDisk::new(14, 8)) as _).collect();
        assert_eq!(
            DeclusteredArray::with_devices(layout(), 8, 2, few).err(),
            Some(ArrayError::BadAddress)
        );
        // Too small.
        let small: Vec<Box<dyn BlockDevice>> =
            (0..7).map(|_| Box::new(RamDisk::new(7, 8)) as _).collect();
        assert_eq!(
            DeclusteredArray::with_devices(layout(), 8, 2, small).err(),
            Some(ArrayError::BadAddress)
        );
        // Wrong unit size.
        let mismatched: Vec<Box<dyn BlockDevice>> = (0..7)
            .map(|_| Box::new(RamDisk::new(14, 16)) as _)
            .collect();
        assert_eq!(
            DeclusteredArray::with_devices(layout(), 8, 2, mismatched).err(),
            Some(ArrayError::BadAddress)
        );
    }
}

#[cfg(test)]
mod write_hole_tests {
    use super::*;
    use pddl_core::Pddl;

    fn pattern(len: usize, seed: u8) -> Vec<u8> {
        (0..len)
            .map(|i| seed.wrapping_mul(37).wrapping_add(i as u8))
            .collect()
    }

    fn fresh_on(disks: usize, width: usize) -> DeclusteredArray {
        let layout = Pddl::new(disks, width).unwrap();
        let a = DeclusteredArray::new(Box::new(layout), 8, 2).unwrap();
        a.write(0, &pattern(8 * 20, 1)).unwrap();
        a
    }

    fn fresh() -> DeclusteredArray {
        fresh_on(7, 3)
    }

    #[test]
    fn crash_at_every_point_recovers_to_consistent_parity() {
        // `d = 2`: every stripe of the write is a small or a full-stripe
        // write. `d = 3`: units 4..10 cover 2 of 3, 3 of 3 and 1 of 3
        // units of three stripes, so the first is a reconstruct-write.
        crash_at_every_point(7, 3);
        let a = fresh_on(13, 4);
        let first = (4..10u64).filter(|&u| a.layout.locate(u).0 == a.layout.locate(4).0);
        assert_eq!((first.count(), a.layout.data_per_stripe()), (2, 3));
        crash_at_every_point(13, 4);
    }

    fn crash_at_every_point(disks: usize, width: usize) {
        let fresh = || fresh_on(disks, width);
        // What units 4..10 held before: the matching slice of the
        // original pattern written at logical 0.
        let old_block = pattern(8 * 20, 1)[4 * 8..10 * 8].to_vec();
        let new_block = pattern(8 * 6, 2);
        // How many distinct stripes the 6-unit write touches: the
        // whole batch is journaled up front, so a crash can leave up to
        // this many intents outstanding.
        let batch_stripes = {
            let a = fresh();
            (4..10u64)
                .map(|u| a.layout.locate(u).0)
                .collect::<BTreeSet<_>>()
                .len() as u64
        };
        // The 6-unit write over old data costs at most ~16 physical
        // writes; crash after every possible prefix.
        for crash_at in 0..18u64 {
            let a = fresh();
            a.arm_crash(crash_at);
            let result = a.write(4, &new_block);
            let crashed = matches!(result, Err(ArrayError::InjectedCrash));
            if !crashed {
                result.unwrap();
                assert!(a.outstanding_intents().is_empty());
            }
            let repaired = a.recover().unwrap();
            if crashed {
                assert!(
                    repaired <= batch_stripes,
                    "at most the whole batch in flight at a time"
                );
            }
            // Parity is consistent again…
            assert_eq!(a.scrub().unwrap(), Vec::<u64>::new(), "crash_at={crash_at}");
            // …and every unit holds either its old or its new bytes.
            let readback = a.read(4, 6).unwrap();
            for u in 0..6 {
                let got = &readback[u * 8..(u + 1) * 8];
                let old = &old_block[u * 8..(u + 1) * 8];
                let new = &new_block[u * 8..(u + 1) * 8];
                assert!(
                    got == old || got == new,
                    "crash_at={crash_at}: unit {u} torn"
                );
            }
            // The array remains fully usable: survive a disk failure.
            a.fail_disk(3).unwrap();
            a.read(0, a.capacity_units()).unwrap();
        }
    }

    #[test]
    fn recovery_without_crash_is_a_noop() {
        let a = fresh();
        assert_eq!(a.recover().unwrap(), 0);
        assert!(a.outstanding_intents().is_empty());
    }

    #[test]
    fn recovery_refuses_while_degraded() {
        let a = fresh();
        a.arm_crash(1);
        let _ = a.write(0, &pattern(8, 3));
        a.fail_disk(2).unwrap();
        assert_eq!(a.recover(), Err(ArrayError::WrongDiskState));
        a.replace_and_rebuild(2).unwrap();
        a.recover().unwrap();
        assert_eq!(a.scrub().unwrap(), Vec::<u64>::new());
    }
}
