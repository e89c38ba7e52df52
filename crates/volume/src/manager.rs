//! The volume manager: carves logical volumes out of a pool of arrays.
//!
//! The manager holds pure metadata — per-array free lists, the volume
//! table, per-volume telemetry counters — and never touches devices.
//! The server engine owns the actual `DeclusteredArray`s and asks the
//! manager to translate `(volume, offset, units)` into physical
//! [`Segment`](crate::Segment)s before doing any I/O.
//!
//! Allocation is eager and first-fit: a volume's whole capacity is
//! mapped at create/resize time (no thin provisioning), walking the
//! pool's arrays in order and taking free runs front-to-back. On a
//! fresh pool this yields contiguous, predictable placements — the
//! chaos harness depends on that determinism to mirror the mapping in
//! its sequential checker.
//!
//! Volume 0 is created automatically, spanning all of array 0, so a
//! pool built from one array behaves exactly like the pre-volume
//! single-array server for clients that never mention a volume.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};

use crate::extent::{ExtentMap, SegmentList};
use crate::qos::REBUILD_TENANT;

/// Hard cap on live volumes: volume ids travel in one wire byte.
pub const MAX_VOLUMES: usize = 256;

/// Longest accepted volume name (bytes).
pub const MAX_NAME: usize = 64;

/// Typed volume-layer failures; the server maps these onto wire
/// statuses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VolumeError {
    /// No volume with that id.
    NotFound,
    /// The I/O range falls outside the volume's capacity.
    OutOfRange,
    /// The pool cannot satisfy the requested capacity.
    NoCapacity,
    /// All 256 volume ids are in use.
    TooManyVolumes,
    /// Malformed spec (zero capacity, oversized name).
    BadSpec,
    /// The operation is not allowed on the default volume 0.
    DefaultVolume,
}

impl std::fmt::Display for VolumeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VolumeError::NotFound => write!(f, "volume not found"),
            VolumeError::OutOfRange => write!(f, "range outside volume capacity"),
            VolumeError::NoCapacity => write!(f, "pool has insufficient free capacity"),
            VolumeError::TooManyVolumes => write!(f, "volume id space exhausted"),
            VolumeError::BadSpec => write!(f, "malformed volume spec"),
            VolumeError::DefaultVolume => write!(f, "operation not allowed on volume 0"),
        }
    }
}

impl std::error::Error for VolumeError {}

/// What a client asks for at `VOLUME_CREATE` time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VolumeSpec {
    /// Human-oriented name (≤ [`MAX_NAME`] bytes; not required unique).
    pub name: String,
    /// Capacity in stripe units (> 0).
    pub capacity_units: u64,
    /// Owning tenant; several volumes may share one tenant.
    pub tenant: u32,
    /// Fair-queueing weight (0 is treated as 1).
    pub weight: u16,
    /// Token-bucket ops/s for the tenant (0 = unlimited).
    pub ops_per_sec: u64,
    /// Token-bucket bytes/s for the tenant (0 = unlimited).
    pub bytes_per_sec: u64,
}

impl VolumeSpec {
    /// A spec with the given name and capacity, default QoS (tenant 0,
    /// weight 1, unlimited).
    pub fn new(name: &str, capacity_units: u64) -> Self {
        Self {
            name: name.to_string(),
            capacity_units,
            tenant: 0,
            weight: 1,
            ops_per_sec: 0,
            bytes_per_sec: 0,
        }
    }
}

/// A volume-table row as reported by `VOLUME_LIST`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VolumeMeta {
    /// Volume id (the wire flags byte).
    pub id: u8,
    /// Name from the spec.
    pub name: String,
    /// Capacity in stripe units.
    pub capacity_units: u64,
    /// Owning tenant.
    pub tenant: u32,
    /// Fair-queueing weight.
    pub weight: u16,
    /// Tenant ops/s limit (0 = unlimited).
    pub ops_per_sec: u64,
    /// Tenant bytes/s limit (0 = unlimited).
    pub bytes_per_sec: u64,
}

/// Per-volume hot-path counters: plain `Relaxed` atomics bumped by the
/// engine on every routed op, merged into labelled telemetry rows at
/// scrape time.
#[derive(Debug, Default)]
pub struct VolumeStats {
    /// Successful reads routed through this volume.
    pub reads: AtomicU64,
    /// Successful writes routed through this volume.
    pub writes: AtomicU64,
    /// Payload bytes returned by reads.
    pub bytes_read: AtomicU64,
    /// Payload bytes ingested by writes.
    pub bytes_written: AtomicU64,
    /// Ops that completed with a non-success status.
    pub errors: AtomicU64,
}

impl VolumeStats {
    /// Account one finished data op that resolved against this volume:
    /// a failure counts as an error and nothing else; a success counts
    /// as a read and/or a write by the payload bytes it returned
    /// (`read`) and ingested (`written`) — a TRIM moves neither, so it
    /// only ever shows up here when it fails.
    pub fn record(&self, ok: bool, read: u64, written: u64) {
        if !ok {
            self.errors.fetch_add(1, Ordering::Relaxed);
            return;
        }
        if read > 0 {
            self.reads.fetch_add(1, Ordering::Relaxed);
            self.bytes_read.fetch_add(read, Ordering::Relaxed);
        }
        if written > 0 {
            self.writes.fetch_add(1, Ordering::Relaxed);
            self.bytes_written.fetch_add(written, Ordering::Relaxed);
        }
    }

    /// Point-in-time `(reads, writes, bytes_read, bytes_written,
    /// errors)`.
    pub fn load(&self) -> (u64, u64, u64, u64, u64) {
        (
            self.reads.load(Ordering::Relaxed),
            self.writes.load(Ordering::Relaxed),
            self.bytes_read.load(Ordering::Relaxed),
            self.bytes_written.load(Ordering::Relaxed),
            self.errors.load(Ordering::Relaxed),
        )
    }
}

/// Counts in-flight I/O against one volume's extent mapping. `resolve`
/// takes a permit; `delete`/shrink swap in a fresh gate for the (new)
/// mapping and wait for the old gate to drain before returning the old
/// extents to the free list — so a physical unit is never reallocated
/// while an op resolved against its previous owner is still touching
/// it.
#[derive(Debug, Default)]
struct IoGate {
    inflight: Mutex<u64>,
    drained: Condvar,
}

impl IoGate {
    fn begin(self: &Arc<Self>) -> IoPermit {
        *self
            .inflight
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner) += 1;
        IoPermit(Arc::clone(self))
    }

    /// Block until every permit issued against this gate is dropped.
    /// Only ever called on a gate that can no longer issue permits (the
    /// volume row is gone, or the gate was swapped out under the write
    /// lock), so this cannot be starved by new arrivals.
    fn quiesce(&self) {
        let mut n = self
            .inflight
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        while *n > 0 {
            n = self
                .drained
                .wait(n)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }
}

/// An in-flight I/O token; dropping it (with the rest of [`Resolved`],
/// once the engine finishes the physical I/O) releases the gate.
#[derive(Debug)]
pub struct IoPermit(Arc<IoGate>);

impl Drop for IoPermit {
    fn drop(&mut self) {
        let mut n = self
            .0
            .inflight
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        *n -= 1;
        if *n == 0 {
            self.0.drained.notify_all();
        }
    }
}

/// A resolved I/O: physical segments in logical order plus the routing
/// metadata the engine needs to account the op. Holds an in-flight
/// permit — keep it alive across the physical I/O; a concurrent
/// delete/shrink of the volume will not recycle these segments' units
/// until it is dropped.
#[derive(Debug)]
pub struct Resolved {
    /// Physical runs covering the request, in logical order.
    pub segments: SegmentList,
    /// The volume's tenant.
    pub tenant: u32,
    /// The volume's counters (bump after the I/O completes).
    pub stats: Arc<VolumeStats>,
    /// Pins the mapping: segments stay owned by this volume until drop.
    pub permit: IoPermit,
}

struct Volume {
    meta: VolumeMeta,
    map: ExtentMap,
    stats: Arc<VolumeStats>,
    gate: Arc<IoGate>,
}

/// Sorted, coalesced `(start, len)` free runs for one array.
struct FreeList {
    runs: Vec<(u64, u64)>,
}

impl FreeList {
    fn new(capacity: u64) -> Self {
        Self {
            runs: if capacity > 0 {
                vec![(0, capacity)]
            } else {
                Vec::new()
            },
        }
    }

    fn free_units(&self) -> u64 {
        self.runs.iter().map(|(_, len)| *len).sum()
    }

    /// Take up to `want` units front-to-back; returns the taken runs.
    fn take(&mut self, want: u64) -> Vec<(u64, u64)> {
        let mut taken = Vec::new();
        let mut need = want;
        while need > 0 {
            let Some((start, len)) = self.runs.first_mut() else {
                break;
            };
            let grab = need.min(*len);
            taken.push((*start, grab));
            *start += grab;
            *len -= grab;
            need -= grab;
            if *len == 0 {
                self.runs.remove(0);
            }
        }
        taken
    }

    /// Return a run to the free list, coalescing neighbours.
    fn give(&mut self, start: u64, len: u64) {
        if len == 0 {
            return;
        }
        let i = self.runs.partition_point(|(s, _)| *s < start);
        self.runs.insert(i, (start, len));
        // Coalesce with the successor, then the predecessor.
        if i + 1 < self.runs.len() && self.runs[i].0 + self.runs[i].1 == self.runs[i + 1].0 {
            self.runs[i].1 += self.runs[i + 1].1;
            self.runs.remove(i + 1);
        }
        if i > 0 && self.runs[i - 1].0 + self.runs[i - 1].1 == self.runs[i].0 {
            self.runs[i - 1].1 += self.runs[i].1;
            self.runs.remove(i);
        }
    }
}

struct Inner {
    free: Vec<FreeList>,
    volumes: BTreeMap<u8, Volume>,
}

/// The pool-wide volume table. Interior-mutable (`RwLock`): resolution
/// takes a read lock, create/delete/resize a write lock.
pub struct VolumeManager {
    /// Per-array total capacities, fixed at construction.
    array_capacity: Vec<u64>,
    inner: RwLock<Inner>,
}

impl VolumeManager {
    /// A manager over a pool of arrays given by capacity (units). The
    /// default volume 0 is created spanning all of array 0; any further
    /// arrays start fully free.
    ///
    /// # Panics
    ///
    /// If the pool is empty.
    pub fn new(pool_capacities: &[u64]) -> Self {
        assert!(!pool_capacities.is_empty(), "empty array pool");
        let mut free: Vec<FreeList> = pool_capacities.iter().map(|&c| FreeList::new(c)).collect();
        let mut map = ExtentMap::new();
        for (start, len) in free[0].take(pool_capacities[0]) {
            map.append(0, start, len);
        }
        let mut volumes = BTreeMap::new();
        volumes.insert(
            0u8,
            Volume {
                meta: VolumeMeta {
                    id: 0,
                    name: "default".to_string(),
                    capacity_units: pool_capacities[0],
                    tenant: 0,
                    weight: 1,
                    ops_per_sec: 0,
                    bytes_per_sec: 0,
                },
                map,
                stats: Arc::new(VolumeStats::default()),
                gate: Arc::new(IoGate::default()),
            },
        );
        Self {
            array_capacity: pool_capacities.to_vec(),
            inner: RwLock::new(Inner { free, volumes }),
        }
    }

    fn read(&self) -> RwLockReadGuard<'_, Inner> {
        self.inner
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn write(&self) -> RwLockWriteGuard<'_, Inner> {
        self.inner
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Number of arrays in the pool.
    pub fn arrays(&self) -> usize {
        self.array_capacity.len()
    }

    /// Total capacity of array `a` in units.
    pub fn array_capacity(&self, a: usize) -> u64 {
        self.array_capacity[a]
    }

    /// Free units per array, in array order.
    pub fn free_units(&self) -> Vec<u64> {
        self.read().free.iter().map(FreeList::free_units).collect()
    }

    /// Live volume count.
    pub fn volume_count(&self) -> usize {
        self.read().volumes.len()
    }

    /// Create a volume per `spec`, allocating its whole capacity
    /// eagerly (first-fit across arrays in order). Returns the assigned
    /// id — the lowest free one.
    ///
    /// # Errors
    ///
    /// [`VolumeError::BadSpec`] for zero capacity, an oversized name,
    /// or the reserved [`REBUILD_TENANT`] (a client spec must not be
    /// able to re-register the rebuild tenant and replace its limits),
    /// [`VolumeError::TooManyVolumes`] when all 256 ids are live, and
    /// [`VolumeError::NoCapacity`] when the pool lacks free units.
    pub fn create(&self, spec: &VolumeSpec) -> Result<u8, VolumeError> {
        if spec.capacity_units == 0 || spec.name.len() > MAX_NAME || spec.tenant == REBUILD_TENANT {
            return Err(VolumeError::BadSpec);
        }
        let mut inner = self.write();
        if inner.volumes.len() >= MAX_VOLUMES {
            return Err(VolumeError::TooManyVolumes);
        }
        let id = (0..=u8::MAX)
            .find(|i| !inner.volumes.contains_key(i))
            .ok_or(VolumeError::TooManyVolumes)?;
        let map = Self::alloc(&mut inner.free, spec.capacity_units)?;
        inner.volumes.insert(
            id,
            Volume {
                meta: VolumeMeta {
                    id,
                    name: spec.name.clone(),
                    capacity_units: spec.capacity_units,
                    tenant: spec.tenant,
                    weight: spec.weight.max(1),
                    ops_per_sec: spec.ops_per_sec,
                    bytes_per_sec: spec.bytes_per_sec,
                },
                map,
                stats: Arc::new(VolumeStats::default()),
                gate: Arc::new(IoGate::default()),
            },
        );
        Ok(id)
    }

    /// First-fit allocation of `want` units across the pool into a
    /// fresh extent map. All-or-nothing: on shortfall the free lists
    /// are left untouched.
    fn alloc(free: &mut [FreeList], want: u64) -> Result<ExtentMap, VolumeError> {
        let total: u64 = free.iter().map(FreeList::free_units).sum();
        if total < want {
            return Err(VolumeError::NoCapacity);
        }
        let mut map = ExtentMap::new();
        let mut need = want;
        for (a, list) in free.iter_mut().enumerate() {
            if need == 0 {
                break;
            }
            for (start, len) in list.take(need) {
                map.append(a as u32, start, len);
                need -= len;
            }
        }
        debug_assert_eq!(need, 0);
        Ok(map)
    }

    /// Delete a volume, returning its capacity to the pool. Returns the
    /// deleted row so the caller can release its tenant registration.
    ///
    /// Blocks until I/O already resolved against the volume drains
    /// before its extents become allocatable again — an in-flight read
    /// or write must never land on units a concurrent create has handed
    /// to another tenant. The table row disappears immediately, so new
    /// resolutions fail with [`VolumeError::NotFound`] while the drain
    /// runs, and the write lock is *not* held while waiting.
    ///
    /// # Errors
    ///
    /// [`VolumeError::DefaultVolume`] for id 0,
    /// [`VolumeError::NotFound`] otherwise.
    pub fn delete(&self, id: u8) -> Result<VolumeMeta, VolumeError> {
        if id == 0 {
            return Err(VolumeError::DefaultVolume);
        }
        let (meta, freed, gate) = {
            let mut inner = self.write();
            let mut vol = inner.volumes.remove(&id).ok_or(VolumeError::NotFound)?;
            (vol.meta, vol.map.truncate(0), vol.gate)
        };
        gate.quiesce();
        let mut inner = self.write();
        for seg in freed {
            inner.free[seg.array as usize].give(seg.phys, seg.units);
        }
        Ok(meta)
    }

    /// Grow or shrink a volume to `new_capacity` units. Growth appends
    /// freshly allocated extents (existing data keeps its mapping);
    /// shrinking frees the logical tail.
    ///
    /// A shrink blocks (without holding the write lock) until I/O
    /// resolved against the pre-shrink mapping drains before the tail
    /// extents return to the pool: the volume's gate is swapped for a
    /// fresh one under the write lock, so ops resolved against the
    /// shrunk mapping — which cannot touch the freed tail — proceed
    /// unimpeded while the old generation quiesces.
    ///
    /// # Errors
    ///
    /// [`VolumeError::NotFound`], [`VolumeError::BadSpec`] for zero
    /// capacity, [`VolumeError::NoCapacity`] on growth shortfall.
    pub fn resize(&self, id: u8, new_capacity: u64) -> Result<(), VolumeError> {
        if new_capacity == 0 {
            return Err(VolumeError::BadSpec);
        }
        let (freed, gate) = {
            let mut inner = self.write();
            let inner = &mut *inner;
            let vol = inner.volumes.get_mut(&id).ok_or(VolumeError::NotFound)?;
            let current = vol.meta.capacity_units;
            if new_capacity >= current {
                if new_capacity > current {
                    let grown = Self::alloc(&mut inner.free, new_capacity - current)?;
                    for e in grown.extents() {
                        vol.map.append(e.array, e.phys, e.units);
                    }
                    vol.meta.capacity_units = new_capacity;
                }
                return Ok(());
            }
            let freed = vol.map.truncate(new_capacity);
            vol.meta.capacity_units = new_capacity;
            let gate = std::mem::take(&mut vol.gate);
            (freed, gate)
        };
        gate.quiesce();
        let mut inner = self.write();
        for seg in freed {
            inner.free[seg.array as usize].give(seg.phys, seg.units);
        }
        Ok(())
    }

    /// The volume table, sorted by id.
    pub fn list(&self) -> Vec<VolumeMeta> {
        self.read()
            .volumes
            .values()
            .map(|v| v.meta.clone())
            .collect()
    }

    /// One volume's row.
    ///
    /// # Errors
    ///
    /// [`VolumeError::NotFound`].
    pub fn meta(&self, id: u8) -> Result<VolumeMeta, VolumeError> {
        self.read()
            .volumes
            .get(&id)
            .map(|v| v.meta.clone())
            .ok_or(VolumeError::NotFound)
    }

    /// The tenant owning volume `id`, if it exists.
    pub fn tenant_of(&self, id: u8) -> Option<u32> {
        self.read().volumes.get(&id).map(|v| v.meta.tenant)
    }

    /// Per-volume counters for the telemetry scrape: `(meta, stats)`
    /// per live volume, sorted by id.
    pub fn stats(&self) -> Vec<(VolumeMeta, Arc<VolumeStats>)> {
        self.read()
            .volumes
            .values()
            .map(|v| (v.meta.clone(), Arc::clone(&v.stats)))
            .collect()
    }

    /// Translate `(volume, offset, units)` into physical segments. The
    /// returned [`Resolved`] pins the mapping via its [`IoPermit`]:
    /// keep it alive until the physical I/O completes, or a concurrent
    /// delete/shrink could recycle the segments' units mid-flight.
    ///
    /// # Errors
    ///
    /// [`VolumeError::NotFound`] for a dead id,
    /// [`VolumeError::OutOfRange`] when the range exceeds the volume.
    pub fn resolve(&self, id: u8, offset: u64, units: u64) -> Result<Resolved, VolumeError> {
        let inner = self.read();
        let vol = inner.volumes.get(&id).ok_or(VolumeError::NotFound)?;
        let segments = vol
            .map
            .resolve(offset, units)
            .ok_or(VolumeError::OutOfRange)?;
        Ok(Resolved {
            segments,
            tenant: vol.meta.tenant,
            stats: Arc::clone(&vol.stats),
            permit: vol.gate.begin(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extent::Segment;

    #[test]
    fn default_volume_spans_array_zero() {
        let m = VolumeManager::new(&[100, 50]);
        let meta = m.meta(0).unwrap();
        assert_eq!(meta.capacity_units, 100);
        assert_eq!(m.free_units(), vec![0, 50]);
        let r = m.resolve(0, 10, 5).unwrap();
        assert_eq!(
            r.segments,
            [Segment {
                array: 0,
                phys: 10,
                units: 5
            }]
        );
        assert_eq!(r.tenant, 0);
    }

    #[test]
    fn create_is_first_fit_and_contiguous_on_a_fresh_pool() {
        let m = VolumeManager::new(&[100]);
        m.resize(0, 40).unwrap(); // free [40,100)
        let a = m.create(&VolumeSpec::new("a", 30)).unwrap();
        let b = m.create(&VolumeSpec::new("b", 20)).unwrap();
        assert_eq!((a, b), (1, 2));
        assert_eq!(
            m.resolve(a, 0, 30).unwrap().segments,
            [Segment {
                array: 0,
                phys: 40,
                units: 30
            }]
        );
        assert_eq!(
            m.resolve(b, 0, 20).unwrap().segments,
            [Segment {
                array: 0,
                phys: 70,
                units: 20
            }]
        );
        assert_eq!(m.free_units(), vec![10]);
    }

    #[test]
    fn create_spills_across_arrays() {
        let m = VolumeManager::new(&[10, 10]);
        m.resize(0, 4).unwrap(); // array0 free [4,10)
        let v = m.create(&VolumeSpec::new("wide", 12)).unwrap();
        let segs = m.resolve(v, 0, 12).unwrap().segments;
        assert_eq!(
            segs,
            [
                Segment {
                    array: 0,
                    phys: 4,
                    units: 6
                },
                Segment {
                    array: 1,
                    phys: 0,
                    units: 6
                },
            ] as [Segment; 2]
        );
    }

    #[test]
    fn delete_returns_space_and_ids_are_reused() {
        let m = VolumeManager::new(&[100]);
        m.resize(0, 10).unwrap();
        let a = m.create(&VolumeSpec::new("a", 40)).unwrap();
        let _b = m.create(&VolumeSpec::new("b", 40)).unwrap();
        assert_eq!(m.free_units(), vec![10]);
        let meta = m.delete(a).unwrap();
        assert_eq!(meta.name, "a");
        assert_eq!(m.free_units(), vec![50]);
        assert!(m.resolve(a, 0, 1).is_err());
        // Freed space coalesces: a 50-unit volume now fits, and the
        // lowest free id (the deleted one) is reused.
        let c = m.create(&VolumeSpec::new("c", 50)).unwrap();
        assert_eq!(c, a);
    }

    #[test]
    fn resize_grows_and_shrinks_with_accounting() {
        let m = VolumeManager::new(&[100]);
        m.resize(0, 20).unwrap();
        let v = m.create(&VolumeSpec::new("v", 10)).unwrap();
        m.resize(v, 50).unwrap();
        assert_eq!(m.meta(v).unwrap().capacity_units, 50);
        assert!(m.resolve(v, 0, 50).is_ok());
        assert_eq!(m.free_units(), vec![30]);
        m.resize(v, 5).unwrap();
        assert_eq!(m.free_units(), vec![75]);
        assert_eq!(m.resolve(v, 0, 6).unwrap_err(), VolumeError::OutOfRange);
    }

    #[test]
    fn error_taxonomy() {
        let m = VolumeManager::new(&[20]);
        assert_eq!(m.delete(0).unwrap_err(), VolumeError::DefaultVolume);
        assert_eq!(m.delete(9).unwrap_err(), VolumeError::NotFound);
        assert_eq!(
            m.create(&VolumeSpec::new("x", 0)).unwrap_err(),
            VolumeError::BadSpec
        );
        assert_eq!(
            m.create(&VolumeSpec::new(&"n".repeat(65), 1)).unwrap_err(),
            VolumeError::BadSpec
        );
        assert_eq!(
            m.create(&VolumeSpec::new("x", 1)).unwrap_err(),
            VolumeError::NoCapacity
        );
        assert_eq!(m.resize(0, 0).unwrap_err(), VolumeError::BadSpec);
        assert_eq!(m.resize(0, 21).unwrap_err(), VolumeError::NoCapacity);
        assert_eq!(m.resolve(3, 0, 1).unwrap_err(), VolumeError::NotFound);
        assert_eq!(m.resolve(0, 19, 2).unwrap_err(), VolumeError::OutOfRange);
    }

    #[test]
    fn rebuild_tenant_is_not_assignable_through_a_spec() {
        let m = VolumeManager::new(&[100]);
        m.resize(0, 10).unwrap();
        let mut spec = VolumeSpec::new("sneaky", 5);
        spec.tenant = REBUILD_TENANT;
        assert_eq!(m.create(&spec).unwrap_err(), VolumeError::BadSpec);
    }

    #[test]
    fn delete_waits_for_inflight_io_before_freeing_extents() {
        let m = Arc::new(VolumeManager::new(&[100]));
        m.resize(0, 10).unwrap();
        let v = m.create(&VolumeSpec::new("victim", 40)).unwrap();
        let resolved = m.resolve(v, 0, 40).unwrap();
        let mc = Arc::clone(&m);
        let deleter = std::thread::spawn(move || mc.delete(v).unwrap());
        // The row vanishes promptly (new resolves fail) but the space
        // must not return to the pool while `resolved` pins it.
        let start = std::time::Instant::now();
        while m.resolve(v, 0, 1).is_ok() {
            assert!(start.elapsed() < std::time::Duration::from_secs(5));
            std::thread::yield_now();
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
        assert_eq!(m.free_units(), vec![50], "freed while I/O in flight");
        drop(resolved);
        deleter.join().unwrap();
        assert_eq!(m.free_units(), vec![90]);
    }

    #[test]
    fn shrink_waits_for_old_generation_but_not_new_io() {
        let m = Arc::new(VolumeManager::new(&[100]));
        m.resize(0, 10).unwrap();
        let v = m.create(&VolumeSpec::new("v", 60)).unwrap();
        let old = m.resolve(v, 0, 60).unwrap();
        let mc = Arc::clone(&m);
        let shrinker = std::thread::spawn(move || mc.resize(v, 20).unwrap());
        // Wait until the shrink has taken effect in the table…
        let start = std::time::Instant::now();
        while m.meta(v).unwrap().capacity_units != 20 {
            assert!(start.elapsed() < std::time::Duration::from_secs(5));
            std::thread::yield_now();
        }
        // …then I/O against the shrunk mapping resolves and completes
        // without waiting on the drain, and the tail stays unfree.
        let fresh = m.resolve(v, 0, 20).unwrap();
        drop(fresh);
        std::thread::sleep(std::time::Duration::from_millis(50));
        assert_eq!(m.free_units(), vec![30], "tail freed under old I/O");
        drop(old);
        shrinker.join().unwrap();
        assert_eq!(m.free_units(), vec![70]);
    }

    #[test]
    fn failed_growth_leaves_free_lists_untouched() {
        let m = VolumeManager::new(&[30, 10]);
        m.resize(0, 10).unwrap();
        assert_eq!(m.resize(0, 100).unwrap_err(), VolumeError::NoCapacity);
        assert_eq!(m.free_units(), vec![20, 10]);
        m.resize(0, 40).unwrap(); // exactly fits after the failed try
        assert_eq!(m.free_units(), vec![0, 0]);
    }
}
