//! `pddl-server`: a zero-dependency TCP block service exporting one
//! [`pddl_array::DeclusteredArray`] — carved into logical volumes with
//! per-tenant QoS — over a compact NBD-flavoured wire protocol.
//!
//! The crate's modules, bottom-up:
//!
//! | module     | role |
//! |------------|------|
//! | [`wire`]   | frame codec: request/response encode + decode, volume and array-geometry payloads |
//! | [`ring`]   | bounded SPSC ring, the inter-shard mailbox of the sharded runtime |
//! | [`reactor`] | readiness reactor: zero-dep epoll (raw syscalls, edge-triggered) on Linux x86_64/aarch64, a std-only sleep-poll stand-in elsewhere |
//! | [`engine`] | the array and its volume table: volume resolution + request execution, lock-free shard-exec entry points for the runtime, in-process `execute*` that run the same bodies with the runtime parked (tests, tools, benchmarks) |
//! | [`runtime`] | thread-per-core shard runtime: per-core event loops, stripe-owner routing, fan-out/join, per-tick write batching |
//! | [`server`] | the serve entry: bind, start the runtime, hand back a [`ServerHandle`] |
//! | [`metrics_http`] | `/metrics` Prometheus exposition over minimal HTTP/1.0 |
//!
//! plus an in-crate blocking [`client`], so the protocol's two ends
//! live (and are tested) together.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use pddl_array::DeclusteredArray;
//! use pddl_core::Pddl;
//! use pddl_server::{engine::Engine, server::{serve, ServerConfig}, client::Client};
//!
//! let layout = Pddl::new(7, 3).unwrap();
//! let array = DeclusteredArray::new(Box::new(layout), 16, 2).unwrap();
//! let handle = serve(Arc::new(Engine::new(array)), "127.0.0.1:0", ServerConfig::default())?;
//!
//! let mut client = Client::connect(handle.local_addr())?;
//! let payload = vec![7u8; 32];
//! client.write_units(4, &payload)?;
//! assert_eq!(client.read_units(4, 2)?, payload);
//!
//! handle.shutdown();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! Concurrency: each stripe is served by exactly one shard thread, so
//! ops on stripes with different owners run in parallel and ops on one
//! stripe are ordered by its owner without locks; array lifecycle ops
//! (scrub, recover, replace) and in-process `Engine::execute` data ops
//! park every shard first. `REBUILD` is
//! *online and incremental*: it validates synchronously, answers
//! `Accepted`, and a background thread reconstructs in bounded batches
//! holding only the stripe locks for each batch's stripes — client I/O
//! keeps flowing throughout (taking the same locks while the rebuild
//! runs), and `REBUILD_STATUS` reports `repaired / total` progress
//! without touching the array lock.

pub mod client;
pub mod engine;
pub mod metrics_http;
// The one platform predicate: raw-syscall epoll where its syscall
// numbers and inline asm are written down, the std-only stand-in
// everywhere else (and on demand, so CI can run it on Linux).
#[cfg_attr(
    any(
        pddl_portable_reactor,
        not(all(
            target_os = "linux",
            any(target_arch = "x86_64", target_arch = "aarch64")
        ))
    ),
    path = "reactor_portable.rs"
)]
pub mod reactor;
pub mod ring;
pub mod runtime;
pub mod server;
pub mod wire;

pub use client::{Client, ClientError};
pub use engine::{Engine, RebuildConfig};
pub use metrics_http::{serve_metrics, MetricsServer};
pub use pddl_volume::{
    QosQueue, TenantLimits, TenantRegistry, VolumeMeta, VolumeSpec, REBUILD_TENANT,
};
pub use server::{serve, ServerConfig, ServerHandle};
pub use wire::{
    Op, PoolArrayInfo, PoolInfo, RebuildState, RebuildStatus, Request, Response, Status,
    VolumeInfo, WireError,
};

/// Fieldless marker for the write-commit policy, which has no knobs:
/// every WRITE commits in its owning shard's tick batch. Kept only
/// because the `stackbench` benchmark prints `CommitConfig::default()`
/// into its report's config string; the next benchmark PR drops both.
/// (Braces, not a unit struct: clippy rejects `default()` on those.)
#[derive(Debug, Default, Clone, Copy)]
pub struct CommitConfig {}
