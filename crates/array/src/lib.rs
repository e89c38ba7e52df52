//! A *functional* declustered RAID array: the PDDL paper's layouts
//! driving real bytes over (in-memory) block devices.
//!
//! Where [`pddl_sim`](../pddl_sim/index.html) answers *"how fast?"*,
//! this crate answers *"is the data actually safe?"*: client writes
//! maintain genuine parity (XOR for one check unit, Reed–Solomon over
//! `GF(256)` for more), reads through a failed disk reconstruct content
//! on the fly, and the full failure lifecycle is modeled —
//!
//! ```text
//! fault-free ──fail_disk──▶ degraded ──rebuild_to_spare──▶ post-reconstruction
//!      ▲                                                        │
//!      └──────────────── replace_and_rebuild ◀──────────────────┘
//! ```
//!
//! matching the paper's reconstruction / post-reconstruction operating
//! modes (Figure 18) and its distributed-sparing story (goal #7).
//!
//! The array has no access policy of its own. How a stripe is written —
//! reconstruct-write, read-modify-write, reconstruct-everything or
//! data-only — is [`pddl_core::plan::plan_stripe_write`]'s decision,
//! given the units of that stripe that are unreadable at that moment;
//! the array pre-reads what the decision names, computes the checks
//! and writes, falling back to reconstruct-everything only when a
//! pre-read hits a media error. Its device I/O therefore equals
//! [`pddl_core::plan::plan_access`]'s lists unit for unit
//! (`tests/plan_equiv.rs`), so the simulator's figures describe the
//! controller these bytes run through.
//!
//! ```
//! use pddl_array::DeclusteredArray;
//! use pddl_core::Pddl;
//!
//! let layout = Pddl::new(7, 3).unwrap();
//! let mut array = DeclusteredArray::new(Box::new(layout), 16, 4).unwrap();
//! let payload: Vec<u8> = (0..48).collect();
//! array.write(2, &payload).unwrap();
//!
//! array.fail_disk(3).unwrap();
//! // Degraded read reconstructs lost units from parity:
//! assert_eq!(array.read(2, 3).unwrap(), payload);
//!
//! array.rebuild_to_spare(3).unwrap();
//! assert_eq!(array.read(2, 3).unwrap(), payload); // served from spare space
//! # Ok::<(), pddl_array::ArrayError>(())
//! ```

mod array;
mod blockdev;

pub use array::{
    ArrayError, ArrayMode, DeclusteredArray, RebuildKind, RebuildProgress, RebuildTicket,
    WriteScratch,
};
pub use blockdev::{BlockDevice, DiskError, FileDisk, RamDisk};
