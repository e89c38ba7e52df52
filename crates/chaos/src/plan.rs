//! Fault plans: seeded, replayable schedules of injectable events.
//!
//! A [`FaultPlan`] is one event per *round*. The nemesis applies the
//! round's event while every client is parked at a barrier, then
//! releases the clients for a burst of concurrent I/O. Determinism
//! rests on three rules the generator enforces:
//!
//! 1. **Media faults are armed cells, not one-shots.** An armed cell
//!    fires on *every* access until disarmed, so the outcome of a round
//!    does not depend on which client thread reaches the cell first.
//! 2. **Clients own disjoint block regions**, and write-armed cells sit
//!    only on data cells of the owning client's blocks, at most one
//!    armed cell per stripe. Cross-client races on a stripe then
//!    commute: every interleaving leaves the same per-block state.
//! 3. **Faults follow the array lifecycle grammar** (below), so every
//!    round has a statically known phase and the checker can replay the
//!    plan without observing the run.
//!
//! Lifecycle grammar:
//!
//! ```text
//! Healthy --FailDisk d1--> Degraded --RebuildSpare d1--> Spared
//! Spared  --Replace d1-->  Healthy
//! Spared  --SpareFail d2-> Terminal          (no further failures)
//! ```
//!
//! `ArmMedia*` is Healthy-only and every armed cell is disarmed (and
//! torn parity repaired) by a `DisarmFaults` before the plan may leave
//! Healthy; media errors therefore never combine with disk failures,
//! which keeps every fault's effect independently checkable.
//!
//! With `volumes > 1` the pool is carved into per-tenant volumes:
//! volume `v` owns physical units `[v·vcap, (v+1)·vcap)` (deterministic
//! first-fit on the fresh pool), client `c` addresses volume
//! `c % volumes`, and one extra vcap of free tail hosts a *scratch*
//! volume that `VolumeCreate`/`VolumeDelete`/`VolumeResize` events
//! churn mid-run. Regions, the model, and the checker all stay
//! physically indexed — only the wire addressing is volume-local.

use std::fmt;

use pddl_core::layout::Layout;
use pddl_core::rng::{SplitMix64, Xoshiro256pp};
use pddl_core::Pddl;

use crate::access::{AccessDist, AccessSampler};

/// Harness shape: array geometry, client topology, and per-round load.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Disks in the array (PDDL needs `disks = g·width + 1`).
    pub disks: usize,
    /// Stripe width `k` (data + check units per stripe).
    pub width: usize,
    /// Bytes per stripe unit.
    pub unit_bytes: usize,
    /// Full permutation periods of capacity.
    pub periods: u64,
    /// Concurrent client connections, each owning a disjoint region.
    pub clients: usize,
    /// Logical volumes the pool is carved into (client `c` addresses
    /// volume `c % volumes`); 1 = the pre-volume single-tenant shape.
    pub volumes: usize,
    /// Rounds (= fault-plan events) per run.
    pub rounds: usize,
    /// Ops each client issues per round.
    pub ops_per_round: usize,
    /// How client offsets spread over each region: uniform (the
    /// default), zipfian, or shifting hotspot. The checker replays the
    /// same distribution, so skewed runs stay fully deterministic.
    pub access: AccessDist,
    /// Testing the tester: make the nemesis issue one unmodeled write
    /// mid-run, which the checker must flag and shrinking must localize.
    pub sabotage: bool,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        Self {
            disks: 7,
            width: 3,
            unit_bytes: 32,
            periods: 3,
            clients: 3,
            volumes: 1,
            rounds: 12,
            ops_per_round: 8,
            access: AccessDist::Uniform,
            sabotage: false,
        }
    }
}

impl ChaosConfig {
    /// The layout under test.
    ///
    /// # Errors
    ///
    /// Invalid geometry, as a printable string.
    pub fn layout(&self) -> Result<Pddl, String> {
        Pddl::new(self.disks, self.width).map_err(|e| format!("bad geometry: {e}"))
    }

    /// Client-visible capacity in stripe units.
    pub fn capacity(&self, layout: &Pddl) -> u64 {
        self.periods * layout.data_units_per_period()
    }

    /// Per-volume capacity. One extra share of the pool stays free so
    /// the scratch volume (created and destroyed by fault events) always
    /// has room without disturbing the client volumes' extents.
    pub fn volume_capacity(&self, capacity: u64) -> u64 {
        capacity / (self.volumes as u64 + 1)
    }

    /// Physical units covered by the client volumes: volume `v` owns
    /// `[v·vcap, (v+1)·vcap)` by deterministic first-fit carving on the
    /// fresh pool. Blocks past this are free space (or scratch).
    pub fn used_capacity(&self, capacity: u64) -> u64 {
        self.volumes as u64 * self.volume_capacity(capacity)
    }

    /// The volume client `client` addresses.
    pub fn client_volume(&self, client: usize) -> usize {
        client % self.volumes.max(1)
    }

    /// The contiguous *physical* block region `[start, start + len)`
    /// owned by `client`, entirely inside its volume's extent. Clients
    /// sharing a volume split the volume evenly; regions are disjoint
    /// across all clients, and the remainder of each volume — always at
    /// least its last block, which is the sabotage target — is never
    /// written so it must read back as zeroes.
    pub fn region(&self, client: usize, capacity: u64) -> (u64, u64) {
        let volumes = self.volumes.max(1);
        let vcap = self.volume_capacity(capacity);
        let v = client % volumes;
        // Round-robin assignment: peers of volume v are v, v+volumes, …
        let peers = (self.clients / volumes + usize::from(v < self.clients % volumes)).max(1);
        let rank = (client / volumes) as u64;
        let len = vcap.saturating_sub(1) / peers as u64;
        (v as u64 * vcap + rank * len, len)
    }
}

/// A hostile wire-level action with a deterministic server response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HostileKind {
    /// A frame whose 4 magic bytes have one bit flipped. Restricted to
    /// the magic so a flipped frame can never decode as a valid request
    /// — full random bit-flip decoding lives in the wire fuzz test,
    /// where frames are never executed.
    BadMagic {
        /// Which of the 32 magic bits is flipped.
        bit: u8,
    },
    /// Valid header with an undefined op code.
    UnknownOp,
    /// Valid header with reserved flags set.
    NonZeroFlags,
    /// Declared payload length above the protocol cap.
    OversizedPayload,
    /// Connection closed cleanly in the middle of the fixed header.
    TruncatedHeader,
    /// Connection dropped (no shutdown handshake) mid-payload.
    AbortMidFrame,
    /// A well-formed READ addressing a volume id that does not exist.
    /// Unlike the frame-level hostilities this is a *semantic* error:
    /// the server answers `VolumeNotFound` and keeps the connection
    /// open.
    BadVolume,
}

impl fmt::Display for HostileKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HostileKind::BadMagic { bit } => write!(f, "bad-magic(bit {bit})"),
            HostileKind::UnknownOp => write!(f, "unknown-op"),
            HostileKind::NonZeroFlags => write!(f, "nonzero-flags"),
            HostileKind::OversizedPayload => write!(f, "oversized-payload"),
            HostileKind::TruncatedHeader => write!(f, "truncated-header"),
            HostileKind::AbortMidFrame => write!(f, "abort-mid-frame"),
            HostileKind::BadVolume => write!(f, "bad-volume"),
        }
    }
}

/// A media-fault target, fully resolved at plan time so the checker
/// needs no run-side information.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArmedCell {
    /// Physical disk of the cell.
    pub disk: usize,
    /// Unit offset on that disk.
    pub offset: u64,
    /// Stripe the cell belongs to (for the one-cell-per-stripe rule).
    pub stripe: u64,
    /// Owning logical block for data cells; `None` for check cells.
    pub block: Option<u64>,
    /// `true`: fail writes (typed `MediaError`); `false`: fail reads
    /// (absorbed by parity reconstruction).
    pub write: bool,
}

/// One injectable event; each plan round carries exactly one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultEvent {
    /// Quiet round: client load only.
    Noop,
    /// Fail a healthy disk (enters Degraded).
    FailDisk {
        /// The disk to fail.
        disk: usize,
    },
    /// Start the background rebuild of the failed disk into distributed
    /// spare space; settles to `Done` before any dependent event.
    RebuildSpare {
        /// The failed disk being rebuilt.
        disk: usize,
    },
    /// Install a replacement in the spared disk's slot (back to Healthy).
    Replace {
        /// The spared disk being replaced.
        disk: usize,
    },
    /// Fail a second disk after sparing; with `c = 1` some units become
    /// unrecoverable and the plan is terminal.
    SpareFail {
        /// The second disk to fail.
        disk: usize,
    },
    /// Arm a persistent media fault on one cell (Healthy-only).
    ArmMedia {
        /// The resolved target cell.
        cell: ArmedCell,
    },
    /// Disarm every media fault and replay the intent journal, healing
    /// any parity torn by injected write errors.
    DisarmFaults,
    /// Change the background rebuild throttle mid-flight.
    Throttle {
        /// New rate in milli-stripes/second (0 = unthrottled).
        milli_rate: u64,
    },
    /// One client drops its connection mid-frame and reconnects.
    Reconnect {
        /// The client that reconnects.
        client: usize,
    },
    /// A hostile frame on a throwaway connection.
    Hostile {
        /// What kind of hostility.
        kind: HostileKind,
    },
    /// Carve the scratch volume out of the pool's free tail. The
    /// scratch volume churns the extent allocator and capacity
    /// accounting mid-run without touching any client volume's extents.
    VolumeCreate {
        /// Capacity of the scratch volume in stripe units.
        units: u64,
    },
    /// Delete the scratch volume, returning its extents to the pool.
    VolumeDelete,
    /// Resize the scratch volume in place.
    VolumeResize {
        /// New capacity in stripe units.
        units: u64,
    },
    /// Cross-tenant interference: retune a live client tenant's QoS
    /// ops budget mid-run. Affects admission *timing* only, never
    /// results, so the recorded histories stay deterministic.
    QosRetune {
        /// The tenant whose limits change (a client volume's tenant).
        tenant: u32,
        /// New ops/s budget (0 = unlimited). Kept generous so the
        /// harness never stalls into its timeouts.
        ops_per_sec: u64,
    },
    /// Crash the array mid-group-commit (Healthy-only, no cells
    /// armed): arm the crash hook, issue one multi-stripe write at
    /// volume 0 offset 0 so the batched journal path tears partway
    /// through its flush, then replay the journal and rewrite the
    /// region cleanly — all inside the barrier window, so the event is
    /// self-healing and the round's clients see a consistent array.
    CrashMidCommit {
        /// Units the torn batch covers (spans ≥ 2 stripes).
        units: u32,
        /// Physical unit writes the crash hook lets through before
        /// failing; always less than `units`, so the batch is
        /// guaranteed to tear mid-flush.
        after_writes: u64,
    },
}

/// The write identity of the clean rewrite that ends a
/// [`FaultEvent::CrashMidCommit`] round — shared by the nemesis (which
/// issues it) and the checker's model (which replays it). The high
/// byte keeps it out of every client tag's `(client << 48)` space.
pub fn crash_commit_tag(round: u32) -> u64 {
    0xcc00_0000_0000_0000 | u64::from(round)
}

impl fmt::Display for FaultEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultEvent::Noop => write!(f, "noop"),
            FaultEvent::FailDisk { disk } => write!(f, "fail-disk {disk}"),
            FaultEvent::RebuildSpare { disk } => write!(f, "rebuild-spare {disk}"),
            FaultEvent::Replace { disk } => write!(f, "replace {disk}"),
            FaultEvent::SpareFail { disk } => write!(f, "spare-fail {disk}"),
            FaultEvent::ArmMedia { cell } => write!(
                f,
                "arm-media-{} d{}@{} (stripe {}{})",
                if cell.write { "write" } else { "read" },
                cell.disk,
                cell.offset,
                cell.stripe,
                match cell.block {
                    Some(b) => format!(", block {b}"),
                    None => ", check".to_string(),
                }
            ),
            FaultEvent::DisarmFaults => write!(f, "disarm-faults"),
            FaultEvent::Throttle { milli_rate } => {
                write!(
                    f,
                    "throttle {}.{:03} stripes/s",
                    milli_rate / 1000,
                    milli_rate % 1000
                )
            }
            FaultEvent::Reconnect { client } => write!(f, "reconnect client {client}"),
            FaultEvent::Hostile { kind } => write!(f, "hostile {kind}"),
            FaultEvent::VolumeCreate { units } => write!(f, "volume-create scratch ({units}u)"),
            FaultEvent::VolumeDelete => write!(f, "volume-delete scratch"),
            FaultEvent::VolumeResize { units } => write!(f, "volume-resize scratch -> {units}u"),
            FaultEvent::QosRetune {
                tenant,
                ops_per_sec,
            } => {
                if *ops_per_sec == 0 {
                    write!(f, "qos-retune tenant {tenant} -> unlimited")
                } else {
                    write!(f, "qos-retune tenant {tenant} -> {ops_per_sec} ops/s")
                }
            }
            FaultEvent::CrashMidCommit {
                units,
                after_writes,
            } => write!(f, "crash-mid-commit {units}u after {after_writes} writes"),
        }
    }
}

/// Array lifecycle phase a round executes in (after its event applies).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// All disks healthy; media faults may be armed.
    Healthy,
    /// One disk failed, not yet rebuilt.
    Degraded {
        /// The failed disk.
        d1: usize,
    },
    /// The failed disk's units live in distributed spare space.
    Spared {
        /// The spared disk.
        d1: usize,
    },
    /// Second failure after sparing: some units are gone for good.
    Terminal {
        /// First failed (and spared) disk.
        d1: usize,
        /// Second failed disk.
        d2: usize,
    },
}

/// Per-round context the checker replays from the plan alone.
#[derive(Debug, Clone)]
pub struct RoundCtx {
    /// Phase in force while the round's clients run.
    pub phase: Phase,
    /// Cells armed while the round's clients run.
    pub armed: Vec<ArmedCell>,
}

/// A seeded schedule: `pddl-chaos --seed N` regenerates it bit-for-bit.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// The generator seed.
    pub seed: u64,
    /// One event per round.
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// The plan truncated to its first `rounds` events — the shrinking
    /// step. Prefix runs are self-consistent because client workloads
    /// are derived per-round, independent of the total round count.
    pub fn prefix(&self, rounds: usize) -> FaultPlan {
        FaultPlan {
            seed: self.seed,
            events: self.events[..rounds.min(self.events.len())].to_vec(),
        }
    }

    /// Replay the lifecycle grammar, yielding each round's phase and
    /// armed-cell set. Pure function of the events: this is what makes
    /// the checker independent of the live run.
    pub fn round_ctxs(&self) -> Vec<RoundCtx> {
        let mut phase = Phase::Healthy;
        let mut armed: Vec<ArmedCell> = Vec::new();
        let mut out = Vec::with_capacity(self.events.len());
        for event in &self.events {
            match *event {
                FaultEvent::FailDisk { disk } => phase = Phase::Degraded { d1: disk },
                FaultEvent::RebuildSpare { disk } => phase = Phase::Spared { d1: disk },
                FaultEvent::Replace { .. } => phase = Phase::Healthy,
                FaultEvent::SpareFail { disk } => {
                    if let Phase::Spared { d1 } = phase {
                        phase = Phase::Terminal { d1, d2: disk };
                    }
                }
                FaultEvent::ArmMedia { cell } => armed.push(cell),
                FaultEvent::DisarmFaults => armed.clear(),
                // CrashMidCommit is self-healing: the crash hook is
                // consumed by the event's own journal replay before the
                // round's clients run, so it leaves no armed state.
                FaultEvent::Noop
                | FaultEvent::Throttle { .. }
                | FaultEvent::Reconnect { .. }
                | FaultEvent::Hostile { .. }
                | FaultEvent::VolumeCreate { .. }
                | FaultEvent::VolumeDelete
                | FaultEvent::VolumeResize { .. }
                | FaultEvent::QosRetune { .. }
                | FaultEvent::CrashMidCommit { .. } => {}
            }
            out.push(RoundCtx {
                phase,
                armed: armed.clone(),
            });
        }
        out
    }

    /// Render the schedule one event per line, for failure reports.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (r, e) in self.events.iter().enumerate() {
            out.push_str(&format!("  round {r:>3}: {e}\n"));
        }
        out
    }
}

/// Generate the seeded fault plan for `seed` under `cfg`.
///
/// # Errors
///
/// Invalid geometry, as a printable string.
pub fn generate(seed: u64, cfg: &ChaosConfig) -> Result<FaultPlan, String> {
    let layout = cfg.layout()?;
    let capacity = cfg.capacity(&layout);
    if cfg.volumes == 0 || cfg.volumes > 8 {
        return Err(format!("volumes must be 1..=8, got {}", cfg.volumes));
    }
    for client in 0..cfg.clients {
        if cfg.region(client, capacity).1 == 0 {
            return Err(format!(
                "capacity {capacity} too small for {} clients over {} volumes",
                cfg.clients, cfg.volumes
            ));
        }
    }
    let vcap = cfg.volume_capacity(capacity);
    let mut rng = Xoshiro256pp::seed_from_u64(seed ^ 0x5044_444c_4348_414f);
    let mut phase = Phase::Healthy;
    let mut armed: Vec<ArmedCell> = Vec::new();
    // Does the scratch volume currently exist? (Its own little grammar:
    // create only when absent, delete/resize only when present.)
    let mut scratch = false;
    let mut events = Vec::with_capacity(cfg.rounds);
    for _ in 0..cfg.rounds {
        // Weighted candidate menu for the current phase; the grammar
        // lives in which candidates are present. Volume and QoS churn
        // is phase-independent: the volume manager must stay correct
        // while the array underneath degrades and rebuilds.
        let mut menu: Vec<(&str, usize)> = match phase {
            Phase::Healthy => {
                let mut m = vec![
                    ("noop", 2),
                    ("hostile", 2),
                    ("reconnect", 1),
                    ("throttle", 1),
                ];
                if armed.len() < 3 {
                    m.push(("arm", 3));
                }
                if armed.is_empty() {
                    // FailDisk only once every armed fault is disarmed
                    // and its damage repaired (the DisarmFaults event
                    // also replays the journal).
                    m.push(("fail", 2));
                    // Crash-mid-commit needs the same quiet baseline:
                    // the torn batch and its replay must be the only
                    // damage in flight for the evidence to be exact.
                    m.push(("crash", 2));
                } else {
                    m.push(("disarm", 2));
                }
                m
            }
            Phase::Degraded { .. } => vec![
                ("noop", 1),
                ("hostile", 1),
                ("reconnect", 1),
                ("throttle", 1),
                ("rebuild", 4),
            ],
            Phase::Spared { .. } => vec![
                ("noop", 1),
                ("hostile", 1),
                ("reconnect", 1),
                ("replace", 3),
                ("sparefail", 1),
            ],
            Phase::Terminal { .. } => vec![("noop", 2), ("hostile", 2), ("reconnect", 1)],
        };
        if scratch {
            menu.push(("voldelete", 1));
            menu.push(("volresize", 1));
        } else {
            menu.push(("volcreate", 1));
        }
        menu.push(("qos", 1));
        let total: usize = menu.iter().map(|(_, w)| w).sum();
        let mut pick = rng.below(total);
        let mut choice = menu[0].0;
        for (name, w) in &menu {
            if pick < *w {
                choice = name;
                break;
            }
            pick -= w;
        }
        let event = match choice {
            "noop" => FaultEvent::Noop,
            "hostile" => FaultEvent::Hostile {
                kind: match rng.below(7) {
                    0 => HostileKind::BadMagic {
                        bit: rng.below(32) as u8,
                    },
                    1 => HostileKind::UnknownOp,
                    2 => HostileKind::NonZeroFlags,
                    3 => HostileKind::OversizedPayload,
                    4 => HostileKind::TruncatedHeader,
                    5 => HostileKind::AbortMidFrame,
                    _ => HostileKind::BadVolume,
                },
            },
            "reconnect" => FaultEvent::Reconnect {
                client: rng.below(cfg.clients),
            },
            "throttle" => FaultEvent::Throttle {
                // Generous band (300..3000 stripes/s) so a throttled
                // rebuild still settles within the harness timeouts.
                milli_rate: rng.range_u64(300_000, 3_000_000),
            },
            "arm" => {
                let client = rng.below(cfg.clients);
                let (start, len) = cfg.region(client, capacity);
                let block = start + rng.below_u64(len);
                let (stripe, index) = layout.locate(block);
                if armed.iter().any(|c| c.stripe == stripe) {
                    // One armed cell per stripe keeps every race
                    // commutative; re-rolling would bias the schedule,
                    // so an occupied stripe just becomes a quiet round.
                    FaultEvent::Noop
                } else {
                    let write = rng.chance(0.5);
                    // Write faults only on data cells of owned blocks
                    // (so exactly one client can trip them); read
                    // faults may also land on a check cell to exercise
                    // the small-write decline path.
                    let cell = if !write && rng.chance(0.34) {
                        let addr = layout.check_unit(stripe, 0);
                        ArmedCell {
                            disk: addr.disk,
                            offset: addr.offset,
                            stripe,
                            block: None,
                            write: false,
                        }
                    } else {
                        let addr = layout.data_unit(stripe, index);
                        ArmedCell {
                            disk: addr.disk,
                            offset: addr.offset,
                            stripe,
                            block: Some(block),
                            write,
                        }
                    };
                    armed.push(cell);
                    FaultEvent::ArmMedia { cell }
                }
            }
            "disarm" => {
                armed.clear();
                FaultEvent::DisarmFaults
            }
            "fail" => {
                let disk = rng.below(cfg.disks);
                phase = Phase::Degraded { d1: disk };
                FaultEvent::FailDisk { disk }
            }
            "rebuild" => {
                let Phase::Degraded { d1 } = phase else {
                    unreachable!("rebuild candidate outside Degraded")
                };
                phase = Phase::Spared { d1 };
                FaultEvent::RebuildSpare { disk: d1 }
            }
            "replace" => {
                let Phase::Spared { d1 } = phase else {
                    unreachable!("replace candidate outside Spared")
                };
                phase = Phase::Healthy;
                FaultEvent::Replace { disk: d1 }
            }
            "sparefail" => {
                let Phase::Spared { d1 } = phase else {
                    unreachable!("sparefail candidate outside Spared")
                };
                let mut d2 = rng.below(cfg.disks);
                while d2 == d1 {
                    d2 = rng.below(cfg.disks);
                }
                phase = Phase::Terminal { d1, d2 };
                FaultEvent::SpareFail { disk: d2 }
            }
            "volcreate" => {
                scratch = true;
                // The free tail of the pool is at least vcap units, so
                // any size up to vcap always fits.
                FaultEvent::VolumeCreate {
                    units: 1 + rng.below_u64(vcap.max(1)),
                }
            }
            "voldelete" => {
                scratch = false;
                FaultEvent::VolumeDelete
            }
            "volresize" => FaultEvent::VolumeResize {
                units: 1 + rng.below_u64(vcap.max(1)),
            },
            "crash" => {
                let d = layout.data_per_stripe() as u64;
                // Span strictly more than one stripe row so the torn
                // batch always leaves a multi-stripe journal trail, but
                // stay inside volume 0 (vcap units).
                let hi = (3 * d).min(vcap);
                if hi <= d {
                    FaultEvent::Noop
                } else {
                    let units = (d + 1 + rng.below_u64(hi - d)).min(hi);
                    FaultEvent::CrashMidCommit {
                        units: units as u32,
                        // Fewer let-through writes than data units means
                        // the hook always fires before the batch's final
                        // check write, so at least one stripe tears.
                        after_writes: rng.below_u64(units),
                    }
                }
            }
            "qos" => FaultEvent::QosRetune {
                tenant: rng.below(cfg.volumes) as u32,
                // Either back to unlimited or a band generous enough
                // (≥ 1000 ops/s) that rounds and readback never stall
                // into the harness timeouts.
                ops_per_sec: if rng.chance(0.25) {
                    0
                } else {
                    rng.range_u64(1_000, 5_000)
                },
            },
            _ => unreachable!("unknown candidate"),
        };
        events.push(event);
    }
    Ok(FaultPlan { seed, events })
}

/// One client operation in a round's workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClientOp {
    /// `false` = read, `true` = write.
    pub write: bool,
    /// Starting logical unit (inside the client's region).
    pub offset: u64,
    /// Units covered (1..=3, clipped to the region).
    pub units: u32,
    /// Write identity: each written block stores a token derived from
    /// this tag, so the checker can recompute exact expected bytes.
    pub tag: u64,
}

/// The workload client `client` runs in round `round` — a pure function
/// of the seed, shared verbatim by the live worker and the checker.
pub fn client_round_ops(
    seed: u64,
    client: usize,
    round: usize,
    cfg: &ChaosConfig,
    capacity: u64,
) -> Vec<ClientOp> {
    let mut mix = SplitMix64::new(
        seed ^ (client as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15)
            ^ (round as u64 + 1).wrapping_mul(0xd1b5_4a32_d192_ed03),
    );
    let mut rng = Xoshiro256pp::seed_from_u64(mix.next_u64());
    let (start, len) = cfg.region(client, capacity);
    // Non-uniform distributions draw region-relative offsets through
    // an `AccessSampler`, seeded from the same per-(seed, client,
    // round) stream so replay stays exact. Uniform keeps the original
    // direct draw, bit-identical to older runs.
    let mut sampler = match cfg.access {
        AccessDist::Uniform => None,
        dist => Some(AccessSampler::new(dist, len, rng.next_u64())),
    };
    let mut ops = Vec::with_capacity(cfg.ops_per_round);
    for i in 0..cfg.ops_per_round {
        let offset = start
            + match &mut sampler {
                Some(s) => s.draw(),
                None => rng.below_u64(len),
            };
        let span = (start + len - offset).min(3);
        let units = (1 + rng.below_u64(span)) as u32;
        ops.push(ClientOp {
            write: rng.chance(0.5),
            offset,
            units,
            tag: ((client as u64) << 48) | ((round as u64) << 32) | i as u64,
        });
    }
    ops
}

/// The value token block `k` of a write op carries (what the model
/// stores per block).
pub fn block_token(tag: u64, k: u32) -> u64 {
    tag.wrapping_mul(0x2545_f491_4f6c_dd1d) ^ u64::from(k)
}

/// Expand a block token into the unit's byte pattern.
pub fn token_bytes(token: u64, unit_bytes: usize) -> Vec<u8> {
    let mut mix = SplitMix64::new(token);
    let mut out = Vec::with_capacity(unit_bytes);
    while out.len() < unit_bytes {
        out.extend_from_slice(&mix.next_u64().to_le_bytes());
    }
    out.truncate(unit_bytes);
    out
}

/// FNV-1a over a byte slice — the history digest primitive.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Order-sensitive digest accumulator for whole-run fingerprints.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self::new()
    }
}

impl Digest {
    /// Fresh accumulator at the FNV offset basis.
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    /// Fold in one word.
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    /// The accumulated value.
    pub fn value(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_reproducible() {
        let cfg = ChaosConfig::default();
        for seed in 0..20 {
            let a = generate(seed, &cfg).unwrap();
            let b = generate(seed, &cfg).unwrap();
            assert_eq!(a.events, b.events, "seed {seed}");
        }
    }

    #[test]
    fn grammar_invariants_hold_across_seeds() {
        let cfg = ChaosConfig {
            rounds: 40,
            ..ChaosConfig::default()
        };
        for seed in 0..60 {
            let plan = generate(seed, &cfg).unwrap();
            let mut phase = Phase::Healthy;
            let mut armed: Vec<ArmedCell> = Vec::new();
            for (r, e) in plan.events.iter().enumerate() {
                match *e {
                    FaultEvent::ArmMedia { cell } => {
                        assert_eq!(phase, Phase::Healthy, "seed {seed} round {r}");
                        assert!(
                            !armed.iter().any(|c| c.stripe == cell.stripe),
                            "seed {seed} round {r}: two cells on stripe {}",
                            cell.stripe
                        );
                        if cell.write {
                            assert!(cell.block.is_some(), "write arm must target a data cell");
                        }
                        armed.push(cell);
                    }
                    FaultEvent::DisarmFaults => armed.clear(),
                    FaultEvent::FailDisk { .. } => {
                        assert_eq!(phase, Phase::Healthy, "seed {seed} round {r}");
                        assert!(
                            armed.is_empty(),
                            "seed {seed} round {r}: failure while armed"
                        );
                    }
                    FaultEvent::RebuildSpare { disk } => {
                        assert_eq!(phase, Phase::Degraded { d1: disk });
                    }
                    FaultEvent::Replace { disk } => {
                        assert_eq!(phase, Phase::Spared { d1: disk });
                    }
                    FaultEvent::SpareFail { disk } => {
                        let Phase::Spared { d1 } = phase else {
                            panic!("seed {seed} round {r}: spare-fail outside Spared");
                        };
                        assert_ne!(disk, d1);
                    }
                    FaultEvent::CrashMidCommit { .. } => {
                        assert_eq!(phase, Phase::Healthy, "seed {seed} round {r}");
                        assert!(
                            armed.is_empty(),
                            "seed {seed} round {r}: crash-mid-commit while armed"
                        );
                    }
                    _ => {}
                }
                // Keep the shadow phase in sync via the same replay the
                // checker uses.
                phase = plan.prefix(r + 1).round_ctxs()[r].phase;
            }
        }
    }

    #[test]
    fn workloads_are_reproducible_and_stay_in_region() {
        for access in [
            AccessDist::Uniform,
            AccessDist::Zipfian { theta: 0.99 },
            AccessDist::Hotspot {
                fraction: 0.2,
                weight: 0.9,
                shift_every: 4,
            },
        ] {
            let cfg = ChaosConfig {
                access,
                ..ChaosConfig::default()
            };
            let layout = cfg.layout().unwrap();
            let capacity = cfg.capacity(&layout);
            for client in 0..cfg.clients {
                let (start, len) = cfg.region(client, capacity);
                for round in 0..4 {
                    let a = client_round_ops(9, client, round, &cfg, capacity);
                    let b = client_round_ops(9, client, round, &cfg, capacity);
                    assert_eq!(a, b, "{access:?}");
                    for op in a {
                        assert!(op.offset >= start, "{access:?}");
                        assert!(op.offset + u64::from(op.units) <= start + len, "{access:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn prefix_truncates_without_reseeding() {
        let cfg = ChaosConfig::default();
        let plan = generate(3, &cfg).unwrap();
        let p = plan.prefix(5);
        assert_eq!(p.events[..], plan.events[..5]);
        assert_eq!(p.round_ctxs().len(), 5);
    }

    /// The CI sweep (seeds 0..40 at the default config) must actually
    /// reach every corner of the fault space, or the harness is
    /// quietly testing much less than it claims.
    #[test]
    fn default_sweep_covers_the_fault_space() {
        let cfg = ChaosConfig::default();
        let mut fail = 0;
        let mut rebuild = 0;
        let mut replace = 0;
        let mut spare_fail = 0;
        let mut arm_write = 0;
        let mut arm_read = 0;
        let mut disarm = 0;
        let mut throttle = 0;
        let mut reconnect = 0;
        let mut hostile = 0;
        let mut bad_volume = 0;
        let mut vol_create = 0;
        let mut vol_delete = 0;
        let mut vol_resize = 0;
        let mut qos = 0;
        let mut crash = 0;
        for seed in 0..40 {
            for e in generate(seed, &cfg).unwrap().events {
                match e {
                    FaultEvent::FailDisk { .. } => fail += 1,
                    FaultEvent::RebuildSpare { .. } => rebuild += 1,
                    FaultEvent::Replace { .. } => replace += 1,
                    FaultEvent::SpareFail { .. } => spare_fail += 1,
                    FaultEvent::ArmMedia { cell } if cell.write => arm_write += 1,
                    FaultEvent::ArmMedia { .. } => arm_read += 1,
                    FaultEvent::DisarmFaults => disarm += 1,
                    FaultEvent::Throttle { .. } => throttle += 1,
                    FaultEvent::Reconnect { .. } => reconnect += 1,
                    FaultEvent::Hostile {
                        kind: HostileKind::BadVolume,
                    } => bad_volume += 1,
                    FaultEvent::Hostile { .. } => hostile += 1,
                    FaultEvent::VolumeCreate { .. } => vol_create += 1,
                    FaultEvent::VolumeDelete => vol_delete += 1,
                    FaultEvent::VolumeResize { .. } => vol_resize += 1,
                    FaultEvent::QosRetune { .. } => qos += 1,
                    FaultEvent::CrashMidCommit {
                        units,
                        after_writes,
                    } => {
                        let d = cfg.layout().unwrap().data_per_stripe() as u64;
                        assert!(u64::from(units) > d, "crash batch must span >1 stripe");
                        assert!(after_writes < u64::from(units), "crash must tear the batch");
                        crash += 1;
                    }
                    FaultEvent::Noop => {}
                }
            }
        }
        for (name, n) in [
            ("fail-disk", fail),
            ("rebuild", rebuild),
            ("replace", replace),
            ("spare-fail", spare_fail),
            ("arm-media-write", arm_write),
            ("arm-media-read", arm_read),
            ("disarm", disarm),
            ("throttle", throttle),
            ("reconnect", reconnect),
            ("hostile", hostile),
            ("hostile bad-volume", bad_volume),
            ("volume-create", vol_create),
            ("volume-delete", vol_delete),
            ("volume-resize", vol_resize),
            ("qos-retune", qos),
            ("crash-mid-commit", crash),
        ] {
            assert!(n > 0, "40-seed sweep never generated a {name} event");
        }
    }

    /// Multi-volume carving: every client region sits inside its
    /// volume's physical extent, regions are pairwise disjoint, and
    /// the scratch share past `used_capacity` stays untouched.
    #[test]
    fn multi_volume_regions_are_disjoint_and_inside_their_volume() {
        for (clients, volumes) in [(3, 3), (4, 2), (5, 3), (6, 3), (3, 1)] {
            let cfg = ChaosConfig {
                clients,
                volumes,
                ..ChaosConfig::default()
            };
            let layout = cfg.layout().unwrap();
            let capacity = cfg.capacity(&layout);
            let vcap = cfg.volume_capacity(capacity);
            let regions: Vec<(u64, u64)> = (0..clients).map(|c| cfg.region(c, capacity)).collect();
            for (c, &(start, len)) in regions.iter().enumerate() {
                assert!(len >= 1, "clients={clients} volumes={volumes} client {c}");
                let v = cfg.client_volume(c) as u64;
                assert!(start >= v * vcap, "region below its volume");
                assert!(
                    start + len <= (v + 1) * vcap,
                    "region spills out of volume {v}"
                );
                assert!(start + len <= cfg.used_capacity(capacity));
                for (o, &(ostart, olen)) in regions.iter().enumerate() {
                    if o != c {
                        assert!(
                            start + len <= ostart || ostart + olen <= start,
                            "clients {c} and {o} overlap"
                        );
                    }
                }
            }
            // Plans and workloads stay reproducible in this shape too.
            let a = generate(7, &cfg).unwrap();
            let b = generate(7, &cfg).unwrap();
            assert_eq!(a.events, b.events);
        }
    }
}
