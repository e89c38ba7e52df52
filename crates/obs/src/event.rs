//! The structured event schema shared by the simulator and the
//! functional array.
//!
//! Events are small `Copy` values so emitting one into a disabled sink
//! costs nothing and emitting into a ring buffer is a couple of word
//! moves. The `access` span id ties every physical op back to the
//! logical access that spawned it, which is what makes the exported
//! Chrome trace navigable in Perfetto.

/// Integer nanoseconds, matching `pddl_disk::Nanos`.
pub type Nanos = u64;

/// Who originated a logical access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Actor {
    /// A closed-loop or open-loop client with this index.
    Client(u32),
    /// The background rebuild process.
    Rebuild,
    /// A replayed trace record.
    Replay,
}

impl Actor {
    /// Short stable label for exports.
    pub fn label(self) -> String {
        match self {
            Actor::Client(i) => format!("client{i}"),
            Actor::Rebuild => "rebuild".into(),
            Actor::Replay => "replay".into(),
        }
    }
}

/// Seek classification of a serviced physical op — the paper's
/// cylinder-switch / track-switch / no-switch taxonomy plus "non-local"
/// (the arm had to travel more than one cylinder).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpClass {
    /// Multi-cylinder seek.
    NonLocal,
    /// Single-cylinder reposition (~2.9 ms on the HP 2247).
    CylinderSwitch,
    /// Head switch within a cylinder (~0.8 ms).
    TrackSwitch,
    /// Same track: rotation + transfer only.
    NoSwitch,
}

impl OpClass {
    /// Stable snake-case name used in metric keys and trace exports.
    pub fn name(self) -> &'static str {
        match self {
            OpClass::NonLocal => "non_local",
            OpClass::CylinderSwitch => "cylinder_switch",
            OpClass::TrackSwitch => "track_switch",
            OpClass::NoSwitch => "no_switch",
        }
    }
}

/// One structured observability event. Timestamps ride alongside (the
/// sink's `event` method takes `now`), so events themselves stay
/// context-free and copyable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Event {
    /// A logical access entered the system (span open).
    AccessStart {
        /// Span id shared with the matching [`Event::AccessEnd`] and all
        /// child [`Event::OpServiced`] events.
        access: u64,
        /// Originating client / process.
        actor: Actor,
        /// Physical operations planned for the access (reads + writes).
        units: u32,
        /// Write (true) or read (false).
        write: bool,
    },
    /// A logical access fully completed (span close).
    AccessEnd {
        /// Span id from the matching [`Event::AccessStart`].
        access: u64,
        /// End-to-end response time.
        latency_ns: Nanos,
    },
    /// A physical disk op was issued and its service time determined
    /// (the mechanical model computes the full breakdown at issue).
    OpServiced {
        /// Physical request id.
        req: u64,
        /// Parent logical access span id.
        access: u64,
        /// Disk index.
        disk: u32,
        /// Write (true) or read (false).
        write: bool,
        /// Seek classification.
        class: OpClass,
        /// Queue depth left behind on this disk when the op started.
        queue_depth: u32,
        /// Arm travel time.
        seek_ns: Nanos,
        /// Rotational latency.
        rotation_ns: Nanos,
        /// Media transfer time (incl. mid-transfer switches).
        transfer_ns: Nanos,
        /// Total service time (seek + head switch + rotation + transfer).
        service_ns: Nanos,
    },
    /// Rebuild advanced to `repaired` of `total` stripe units.
    RebuildProgress {
        /// Units repaired so far.
        repaired: u64,
        /// Total units to repair.
        total: u64,
    },
    /// A rebuild stopped before completion. The partial state is
    /// resumable: a retry skips units that were already repaired.
    RebuildHalted {
        /// Units repaired before the halt.
        repaired: u64,
        /// Total units the rebuild set out to repair.
        total: u64,
    },
    /// A write-intent journal entry was committed (cleanly retired).
    JournalCommit {
        /// Stripe whose intent record was retired.
        stripe: u64,
    },
    /// A group-committed write batch finished: all of its intents were
    /// appended in one journal write and the successful ones retired in
    /// one pass.
    JournalBatch {
        /// Distinct stripes the batch touched (the group-commit size).
        stripes: u64,
        /// Client ops coalesced into the batch.
        ops: u64,
    },
    /// Crash recovery replayed outstanding journal intents.
    JournalReplay {
        /// Number of stripes re-verified/repaired from the journal.
        stripes: u64,
    },
    /// A scrub pass finished.
    ScrubPass {
        /// Stripes examined.
        stripes: u64,
        /// Stripes found bad and repaired.
        repaired: u64,
    },
    /// A disk was administratively or mechanically failed.
    DiskFailed {
        /// Disk index.
        disk: u32,
    },
    /// An injected media error fired on a single unit access (the whole
    /// device stays healthy).
    MediaFault {
        /// Disk index.
        disk: u32,
        /// Write access (true) or read access (false).
        write: bool,
    },
    /// The run finished; `now` at emission is the final clock value
    /// used to turn per-disk busy time into utilization.
    RunEnd,
}

impl Event {
    /// Stable snake-case tag used by the TSV trace dump.
    pub fn tag(&self) -> &'static str {
        match self {
            Event::AccessStart { .. } => "access_start",
            Event::AccessEnd { .. } => "access_end",
            Event::OpServiced { .. } => "op_serviced",
            Event::RebuildProgress { .. } => "rebuild_progress",
            Event::RebuildHalted { .. } => "rebuild_halted",
            Event::JournalCommit { .. } => "journal_commit",
            Event::JournalBatch { .. } => "journal_batch",
            Event::JournalReplay { .. } => "journal_replay",
            Event::ScrubPass { .. } => "scrub_pass",
            Event::DiskFailed { .. } => "disk_failed",
            Event::MediaFault { .. } => "media_fault",
            Event::RunEnd => "run_end",
        }
    }
}
