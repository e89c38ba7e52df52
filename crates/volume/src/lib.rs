//! `pddl-volume`: the multi-tenant volume layer over one PDDL
//! declustered array.
//!
//! One array ≠ a service. This crate turns a `DeclusteredArray`
//! (represented here purely by its capacity — the crate holds metadata
//! and policy, never device handles) into many logical **volumes**,
//! each with:
//!
//! - an **extent map** translating volume-logical unit ranges to
//!   physical unit segments ([`extent`]),
//! - **capacity accounting** over the array's first-fit free list
//!   ([`manager`]),
//! - a **tenant identity** feeding per-tenant QoS: token-bucket rate
//!   limits (ops/s and bytes/s) and deficit-weighted fair queueing
//!   between tenants ([`qos`]), with rebuild I/O registered as a
//!   first-class low-priority tenant so reconstruction can never
//!   starve foreground reads.
//!
//! The server engine resolves every READ/WRITE/TRIM through
//! [`VolumeManager::resolve`] before touching the array. The server's
//! shard threads admit each decoded request with
//! [`TenantRegistry::try_admit`], against the same registry the
//! rebuild thread charges per batch.

pub mod extent;
pub mod manager;
pub mod qos;

pub use extent::{Extent, ExtentMap, Segment, SegmentList};
pub use manager::{
    IoPermit, Resolved, VolumeError, VolumeManager, VolumeMeta, VolumeSpec, VolumeStats,
    MAX_VOLUMES,
};
pub use qos::{QosQueue, TenantLimits, TenantRegistry, REBUILD_TENANT};
