//! The nemesis: drives one fault plan against N concurrent client
//! workloads over a loopback `pddl-server`, recording per-client
//! histories and the end-state evidence the checker consumes.
//!
//! Rounds are barrier-synchronized: the nemesis applies the round's
//! event while every client is parked, then releases them for a burst
//! of genuinely concurrent I/O. Inside a round the clients race freely
//! — determinism comes from the plan grammar (see [`crate::plan`]),
//! not from serializing the I/O.

use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::Duration;

use pddl_array::DeclusteredArray;
use pddl_disk::fault::{AccessKind, CellFaults};
use pddl_obs::{ObsConfig, Observer};
use pddl_server::engine::{Engine, RebuildConfig};
use pddl_server::server::{serve, ServerConfig};
use pddl_server::wire::{self, Op, RebuildState, Status, REQUEST_MAGIC};
use pddl_server::{Client, TenantLimits, VolumeSpec};

use crate::plan::{
    block_token, client_round_ops, crash_commit_tag, fnv64, token_bytes, ChaosConfig, Digest,
    FaultEvent, FaultPlan, HostileKind,
};

/// One executed client operation, as observed on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpRecord {
    /// Round the op ran in.
    pub round: u32,
    /// `false` = read, `true` = write.
    pub write: bool,
    /// Logical unit offset.
    pub offset: u64,
    /// Units covered.
    pub units: u32,
    /// Wire status code of the response.
    pub status: u8,
    /// FNV-1a of the response payload.
    pub digest: u64,
}

/// Outcome of one hostile frame.
#[derive(Debug, Clone)]
pub struct HostileOutcome {
    /// Round it ran in.
    pub round: u32,
    /// What was sent.
    pub kind: HostileKind,
    /// Whether the server reacted exactly as the protocol demands.
    pub ok: bool,
    /// Failure detail when `ok` is false.
    pub detail: String,
}

/// Evidence from one [`FaultEvent::CrashMidCommit`] round: the torn
/// batch, the journal replay that repaired it, and the scrub that
/// proves the repair. Collected entirely inside the barrier window.
#[derive(Debug, Clone)]
pub struct CrashCommitEvidence {
    /// Round the crash ran in.
    pub round: u32,
    /// Wire status of the torn batched write (must be `Internal`).
    pub status: u8,
    /// Journal intents outstanding right after the crash (sorted,
    /// deduped) — the stripes the batch left torn.
    pub torn: Vec<u64>,
    /// Stripes the immediate journal replay repaired.
    pub repaired: u64,
    /// Stripes the post-replay scrub still flagged (must be empty:
    /// replay repairs every torn-batch stripe).
    pub scrub: Vec<u64>,
}

/// Deterministic counters sampled from the observer after the run.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    /// `disk.failures`.
    pub disk_failures: u64,
    /// `faults.media_read` (count is path-dependent; checked as a bound).
    pub media_read: u64,
    /// `faults.media_write` (exactly one per failed client write).
    pub media_write: u64,
    /// `scrub.passes`.
    pub scrub_passes: u64,
    /// Largest `journal.batch_ops` sample: the most client ops one
    /// array write batch carried. Timing-dependent (which WRITEs a
    /// shard decodes in the same tick), so it stays out of the digest.
    pub max_batch_ops: u64,
}

/// End-of-run evidence: scrubs, journal, final readback, counters.
#[derive(Debug, Clone)]
pub struct EndState {
    /// Terminal rebuild state code (wire encoding) and target disk.
    pub rebuild: (u8, u32),
    /// Stripes the first scrub flagged (armed faults still in place).
    pub scrub1: Vec<u64>,
    /// Outstanding journal intents before any repair (sorted, deduped).
    pub intents: Vec<u64>,
    /// Stripes repaired by the final journal replay; `None` when disks
    /// are failed at end of plan (replay needs a fault-free array).
    pub recovered: Option<u64>,
    /// Second scrub after disarm + replay; must be clean when present.
    pub scrub2: Option<Vec<u64>>,
    /// Per-block final readback over the wire: (status, payload digest).
    pub final_reads: Vec<(u8, u64)>,
    /// Deterministic metric counters.
    pub counters: Counters,
}

/// Everything one run produced.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Per-client op histories.
    pub histories: Vec<Vec<OpRecord>>,
    /// Hostile-frame outcomes.
    pub hostile: Vec<HostileOutcome>,
    /// Crash-mid-commit evidence, one entry per such event, in round
    /// order.
    pub crash_commits: Vec<CrashCommitEvidence>,
    /// End-state evidence.
    pub end: EndState,
    /// Infrastructure failures (transport errors, protocol violations,
    /// unexpected management-op statuses). Must be empty.
    pub infra: Vec<String>,
}

impl RunResult {
    /// Order-sensitive fingerprint of the run; two executions of the
    /// same seed must agree bit-for-bit.
    pub fn digest(&self) -> u64 {
        let mut d = Digest::new();
        for (c, h) in self.histories.iter().enumerate() {
            d.word(c as u64);
            for r in h {
                d.word(u64::from(r.round));
                d.word(u64::from(r.write));
                d.word(r.offset);
                d.word(u64::from(r.units));
                d.word(u64::from(r.status));
                d.word(r.digest);
            }
        }
        for h in &self.hostile {
            d.word(u64::from(h.round));
            d.word(u64::from(h.ok));
        }
        for c in &self.crash_commits {
            d.word(u64::from(c.round));
            d.word(u64::from(c.status));
            for &s in &c.torn {
                d.word(s);
            }
            d.word(c.repaired);
            d.word(c.scrub.len() as u64);
        }
        d.word(u64::from(self.end.rebuild.0));
        for &s in &self.end.scrub1 {
            d.word(s);
        }
        for &s in &self.end.intents {
            d.word(s);
        }
        d.word(self.end.recovered.unwrap_or(u64::MAX));
        if let Some(s2) = &self.end.scrub2 {
            for &s in s2 {
                d.word(s);
            }
        }
        for &(status, digest) in &self.end.final_reads {
            d.word(u64::from(status));
            d.word(digest);
        }
        d.word(self.end.counters.disk_failures);
        d.word(self.end.counters.media_write);
        d.word(self.end.counters.scrub_passes);
        d.word(self.infra.len() as u64);
        d.value()
    }
}

/// Execute `plan` against a fresh loopback server under `cfg`.
///
/// # Errors
///
/// Harness-infrastructure failures only (bind/spawn); everything the
/// checker should judge lands inside the returned [`RunResult`].
pub fn run(cfg: &ChaosConfig, plan: &FaultPlan) -> Result<RunResult, String> {
    let layout = cfg.layout()?;
    let capacity = cfg.capacity(&layout);
    let faults = Arc::new(CellFaults::new());
    let observer = Arc::new(Mutex::new(Observer::new(ObsConfig::default())));
    let mut array = DeclusteredArray::new(Box::new(layout), cfg.unit_bytes, cfg.periods)
        .map_err(|e| format!("array construction failed: {e}"))?;
    array.attach_fault_hook(faults.clone());
    array.attach_observer(observer.clone());
    let mut engine = Engine::with_config(
        array,
        RebuildConfig {
            batch: 4,
            rate: 0.0,
        },
    );
    engine.attach_observer(observer.clone());
    let engine = Arc::new(engine);
    let handle = serve(
        engine.clone(),
        "127.0.0.1:0",
        ServerConfig {
            // The shard count is a function of the seed — 1, 2 or 4
            // event loops — so a sweep covers the all-local runtime,
            // cross-shard routing and wider fan-out joins whatever the
            // host's core count (the auto default would make it 1 on
            // single-core CI), and `--seed N` still reproduces.
            shards: [1, 2, 4][(plan.seed % 3) as usize],
            idle_timeout: Duration::from_secs(120),
            // Write batching is on, as it is for every served WRITE:
            // the WRITE chunks a shard takes in during one tick — from
            // its own connections or routed from a peer — commit as
            // one array batch. The checker's exact per-op oracle
            // survives that because `write_batch` reports per op and
            // contains a media fault to the stripe it hit, and
            // same-tick ops come from different clients, whose blocks
            // are disjoint. The harness test asserts a sweep sees such
            // a batch (`Counters::max_batch_ops`);
            // `FaultEvent::CrashMidCommit` tears one on purpose.
            ..ServerConfig::default()
        },
    )
    .map_err(|e| format!("serve failed: {e}"))?;
    let addr = handle.local_addr();

    let rounds = plan.events.len();
    let start_barrier = Arc::new(Barrier::new(cfg.clients + 1));
    let end_barrier = Arc::new(Barrier::new(cfg.clients + 1));
    let abort = Arc::new(AtomicBool::new(false));
    let plan = Arc::new(plan.clone());

    let mut workers = Vec::with_capacity(cfg.clients);
    for client_id in 0..cfg.clients {
        let cfg = cfg.clone();
        let plan = Arc::clone(&plan);
        let start_barrier = Arc::clone(&start_barrier);
        let end_barrier = Arc::clone(&end_barrier);
        let abort = Arc::clone(&abort);
        workers.push(std::thread::spawn(move || {
            client_worker(
                client_id,
                &cfg,
                capacity,
                addr,
                &plan,
                &start_barrier,
                &end_barrier,
                &abort,
            )
        }));
    }

    let mut infra = Vec::new();
    let mut hostile = Vec::new();
    let mut crash_commits = Vec::new();
    let vcap = cfg.volume_capacity(capacity);
    let mut mgmt = match Client::connect(addr) {
        Ok(c) => Some(c),
        Err(e) => {
            infra.push(format!("management connect failed: {e}"));
            abort.store(true, Ordering::Release);
            None
        }
    };
    // Carve the pool before any client I/O (workers are parked at the
    // start barrier): shrink volume 0 to its share, then create one
    // volume per additional tenant. Volume v owns [v·vcap, (v+1)·vcap)
    // by first-fit; the final share stays free for the scratch volume.
    if let Some(m) = mgmt.as_mut() {
        if let Err(e) = carve_volumes(m, cfg, vcap) {
            infra.push(e);
            abort.store(true, Ordering::Release);
        }
    }

    for (round, event) in plan.events.iter().enumerate() {
        // Clients are parked at the start barrier: fault application is
        // totally ordered against their I/O.
        if let Some(m) = mgmt.as_mut() {
            apply_event(
                *event,
                round as u32,
                m,
                &engine,
                &faults,
                addr,
                cfg,
                &mut hostile,
                &mut crash_commits,
                &mut infra,
            );
            if cfg.sabotage && round == rounds / 2 {
                // Testing the tester: an unmodeled mutation of the last
                // client-volume block. Region carving always leaves that
                // block outside every client region, so no legitimate
                // write can mask the corruption — the checker must flag
                // the final readback.
                let last_vol = (cfg.volumes - 1) as u8;
                let garbage = token_bytes(0xbad0_5eed, cfg.unit_bytes);
                if let Err(e) = m.request_on(last_vol, Op::Write, vcap - 1, 1, garbage) {
                    infra.push(format!("sabotage write failed: {e}"));
                }
            }
        }
        start_barrier.wait();
        // ...clients run one round of concurrent ops here...
        end_barrier.wait();
    }

    let mut histories = Vec::with_capacity(cfg.clients);
    for (i, w) in workers.into_iter().enumerate() {
        match w.join() {
            Ok((records, errors)) => {
                for e in errors {
                    infra.push(format!("client {i}: {e}"));
                }
                histories.push(records);
            }
            Err(_) => {
                infra.push(format!("client {i} panicked"));
                histories.push(Vec::new());
            }
        }
    }

    let end = end_state(
        &plan, cfg, &engine, &faults, addr, capacity, &observer, &mut infra,
    );
    handle.shutdown();

    Ok(RunResult {
        histories,
        hostile,
        crash_commits,
        end,
        infra,
    })
}

/// Pre-run pool carving: volume 0 shrinks to `vcap`, volumes
/// `1..volumes` are created at `vcap` each with tenant id = volume id.
fn carve_volumes(mgmt: &mut Client, cfg: &ChaosConfig, vcap: u64) -> Result<(), String> {
    mgmt.volume_resize(0, vcap)
        .map_err(|e| format!("setup: resize of volume 0 failed: {e}"))?;
    for v in 1..cfg.volumes {
        let mut spec = VolumeSpec::new(&format!("vol{v}"), vcap);
        spec.tenant = v as u32;
        let id = mgmt
            .volume_create(&spec)
            .map_err(|e| format!("setup: create of volume {v} failed: {e}"))?;
        if id != v as u8 {
            return Err(format!("setup: volume {v} carved as id {id}"));
        }
    }
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn apply_event(
    event: FaultEvent,
    round: u32,
    mgmt: &mut Client,
    engine: &Arc<Engine>,
    faults: &Arc<CellFaults>,
    addr: SocketAddr,
    cfg: &ChaosConfig,
    hostile: &mut Vec<HostileOutcome>,
    crashes: &mut Vec<CrashCommitEvidence>,
    infra: &mut Vec<String>,
) {
    // The scratch volume always re-materializes under the first free id
    // (client volumes never churn).
    let scratch_id = cfg.volumes as u8;
    match event {
        FaultEvent::Noop | FaultEvent::Reconnect { .. } => {}
        FaultEvent::FailDisk { disk } => {
            if let Err(e) = mgmt.fail_disk(disk as u32) {
                infra.push(format!("round {round}: fail-disk {disk} rejected: {e}"));
            }
        }
        FaultEvent::RebuildSpare { disk } => {
            if let Err(e) = mgmt.rebuild(disk as u32) {
                infra.push(format!("round {round}: rebuild {disk} rejected: {e}"));
            }
        }
        FaultEvent::Replace { disk } => {
            settle_rebuild(engine, infra, round);
            if let Err(e) = engine.replace_disk(disk) {
                infra.push(format!("round {round}: replace {disk} failed: {e}"));
            }
        }
        FaultEvent::SpareFail { disk } => {
            settle_rebuild(engine, infra, round);
            if let Err(e) = mgmt.fail_disk(disk as u32) {
                infra.push(format!("round {round}: spare-fail {disk} rejected: {e}"));
            }
        }
        FaultEvent::ArmMedia { cell } => {
            faults.arm(
                cell.disk,
                cell.offset,
                if cell.write {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                },
            );
        }
        FaultEvent::DisarmFaults => {
            faults.disarm_all();
            if let Err(e) = engine.recover() {
                infra.push(format!("round {round}: journal replay failed: {e}"));
            }
        }
        FaultEvent::Throttle { milli_rate } => {
            engine.set_rebuild_rate(milli_rate as f64 / 1000.0);
        }
        FaultEvent::Hostile { kind } => {
            let outcome = hostile_frame(addr, kind);
            hostile.push(HostileOutcome {
                round,
                kind,
                ok: outcome.is_ok(),
                detail: outcome.err().unwrap_or_default(),
            });
        }
        FaultEvent::VolumeCreate { units } => {
            // The scratch volume always re-materializes under the first
            // free id (client volumes never churn), a distinct tenant.
            let mut spec = VolumeSpec::new("scratch", units);
            spec.tenant = 1000;
            match mgmt.volume_create(&spec) {
                Ok(id) if id == scratch_id => {}
                Ok(id) => infra.push(format!(
                    "round {round}: scratch volume carved as id {id}, expected {scratch_id}"
                )),
                Err(e) => infra.push(format!("round {round}: volume-create rejected: {e}")),
            }
        }
        FaultEvent::VolumeDelete => {
            if let Err(e) = mgmt.volume_delete(scratch_id) {
                infra.push(format!("round {round}: volume-delete rejected: {e}"));
            }
        }
        FaultEvent::VolumeResize { units } => {
            if let Err(e) = mgmt.volume_resize(scratch_id, units) {
                infra.push(format!("round {round}: volume-resize rejected: {e}"));
            }
        }
        FaultEvent::QosRetune {
            tenant,
            ops_per_sec,
        } => {
            // Cross-tenant interference knob; timing-only, so it needs
            // no wire op and no checker model.
            if !engine.tenants().set_limits(
                tenant,
                TenantLimits {
                    ops_per_sec,
                    ..TenantLimits::default()
                },
            ) {
                infra.push(format!(
                    "round {round}: qos-retune of unknown tenant {tenant}"
                ));
            }
        }
        FaultEvent::CrashMidCommit {
            units,
            after_writes,
        } => {
            // Tear a group commit and repair it, all inside the barrier
            // window: arm the crash hook, let one multi-stripe batched
            // write at the head of volume 0 die mid-flush, capture the
            // journal trail, replay it, scrub, then rewrite the region
            // cleanly. Self-healing — the only state the round's
            // clients (and the final readback) observe is the rewrite's
            // well-known tokens.
            engine.arm_crash(after_writes);
            let tag = crash_commit_tag(round);
            let mut payload = Vec::with_capacity(units as usize * cfg.unit_bytes);
            for k in 0..units {
                payload.extend_from_slice(&token_bytes(block_token(tag, k), cfg.unit_bytes));
            }
            let status = match mgmt.request_on(0, Op::Write, 0, units, payload.clone()) {
                Ok((status, _)) => status.code(),
                Err(e) => {
                    infra.push(format!(
                        "round {round}: crash-mid-commit write transport failure: {e}"
                    ));
                    u8::MAX
                }
            };
            let mut torn = engine.outstanding_intents();
            torn.sort_unstable();
            torn.dedup();
            let repaired = match engine.recover() {
                Ok(n) => n,
                Err(e) => {
                    infra.push(format!(
                        "round {round}: crash-mid-commit replay failed: {e}"
                    ));
                    0
                }
            };
            let scrub = match engine.scrub() {
                Ok(bad) => bad,
                Err(e) => {
                    infra.push(format!("round {round}: crash-mid-commit scrub failed: {e}"));
                    Vec::new()
                }
            };
            match mgmt.request_on(0, Op::Write, 0, units, payload) {
                Ok((Status::Ok, _)) => {}
                Ok((s, _)) => {
                    infra.push(format!("round {round}: crash-mid-commit rewrite got {s:?}"))
                }
                Err(e) => infra.push(format!(
                    "round {round}: crash-mid-commit rewrite transport failure: {e}"
                )),
            }
            crashes.push(CrashCommitEvidence {
                round,
                status,
                torn,
                repaired,
                scrub,
            });
        }
    }
}

/// Wait for a running rebuild to reach a terminal state before an event
/// that depends on it (Replace, SpareFail, end-state checks).
fn settle_rebuild(engine: &Arc<Engine>, infra: &mut Vec<String>, round: u32) {
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    loop {
        if engine.rebuild_status().state != RebuildState::Running {
            return;
        }
        if std::time::Instant::now() >= deadline {
            infra.push(format!("round {round}: rebuild failed to settle in 60s"));
            return;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Send one hostile frame and validate the server's reaction.
fn hostile_frame(addr: SocketAddr, kind: HostileKind) -> Result<(), String> {
    let fail = |m: String| -> Result<(), String> { Err(m) };
    match kind {
        HostileKind::BadMagic { bit } => {
            let magic = REQUEST_MAGIC ^ (1u32 << (bit % 32));
            let mut s = raw_conn(addr)?;
            s.write_all(&magic.to_be_bytes())
                .map_err(|e| e.to_string())?;
            expect_bad_request_then_eof(&mut s)
        }
        HostileKind::UnknownOp => {
            let mut s = raw_conn(addr)?;
            s.write_all(&raw_header(7, 0xee, 0, 0, 0, 0))
                .map_err(|e| e.to_string())?;
            expect_bad_request_then_eof(&mut s)
        }
        HostileKind::NonZeroFlags => {
            // STATS is volume-agnostic, so its flags byte is reserved
            // and must be zero. (On volume-scoped ops the flags byte
            // *is* the volume id — that path is `BadVolume` below.)
            let mut s = raw_conn(addr)?;
            s.write_all(&raw_header(8, Op::Stats.code(), 0x5a, 0, 0, 0))
                .map_err(|e| e.to_string())?;
            expect_bad_request_then_eof(&mut s)
        }
        HostileKind::OversizedPayload => {
            let mut s = raw_conn(addr)?;
            s.write_all(&raw_header(
                9,
                Op::Write.code(),
                0,
                0,
                1,
                wire::MAX_PAYLOAD + 1,
            ))
            .map_err(|e| e.to_string())?;
            expect_bad_request_then_eof(&mut s)
        }
        HostileKind::TruncatedHeader => {
            let mut s = raw_conn(addr)?;
            let header = raw_header(10, Op::Read.code(), 0, 0, 1, 0);
            s.write_all(&header[..9]).map_err(|e| e.to_string())?;
            // Clean half-close delivers EOF inside the frame.
            s.shutdown(Shutdown::Write).map_err(|e| e.to_string())?;
            expect_bad_request_then_eof(&mut s)
        }
        HostileKind::AbortMidFrame => {
            {
                let mut s = raw_conn(addr)?;
                let mut frame = raw_header(11, Op::Write.code(), 0, 0, 2, 64).to_vec();
                frame.extend_from_slice(&[0xab; 10]);
                s.write_all(&frame).map_err(|e| e.to_string())?;
                // Dropped without shutdown: the server must clean up the
                // half-received frame without disturbing other sessions.
            }
            let mut probe = Client::connect(addr).map_err(|e| e.to_string())?;
            match probe.info() {
                Ok(_) => Ok(()),
                Err(e) => fail(format!("server unhealthy after abort: {e}")),
            }
        }
        HostileKind::BadVolume => {
            // A semantic error, not a framing error: the server must
            // answer VolumeNotFound with the request's own id and keep
            // the connection usable.
            let mut s = raw_conn(addr)?;
            s.write_all(&raw_header(12, Op::Read.code(), 0xee, 0, 1, 0))
                .map_err(|e| e.to_string())?;
            match wire::read_response(&mut s) {
                Ok(Some(resp)) => {
                    if resp.id != 12 || resp.status != Status::VolumeNotFound {
                        return fail(format!(
                            "expected VolumeNotFound id 12, got {:?} id {}",
                            resp.status, resp.id
                        ));
                    }
                }
                Ok(None) => return fail("connection closed instead of VolumeNotFound".into()),
                Err(e) => return fail(format!("no readable response: {e}")),
            }
            s.write_all(&raw_header(13, Op::Info.code(), 0, 0, 0, 0))
                .map_err(|e| e.to_string())?;
            match wire::read_response(&mut s) {
                Ok(Some(resp)) if resp.id == 13 && resp.status == Status::Ok => Ok(()),
                Ok(Some(resp)) => fail(format!(
                    "probe after bad-volume got {:?} id {}",
                    resp.status, resp.id
                )),
                Ok(None) => fail("connection closed after bad-volume".into()),
                Err(e) => fail(format!("probe after bad-volume failed: {e}")),
            }
        }
    }
}

fn raw_conn(addr: SocketAddr) -> Result<TcpStream, String> {
    let s = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    s.set_nodelay(true).ok();
    s.set_read_timeout(Some(Duration::from_secs(30))).ok();
    Ok(s)
}

/// Hand-rolled request header (magic..payload_len), bypassing the codec
/// so malformed fields can be expressed.
fn raw_header(id: u64, op: u8, flags: u8, offset: u64, length: u32, payload_len: u32) -> [u8; 30] {
    let mut h = [0u8; 30];
    h[0..4].copy_from_slice(&REQUEST_MAGIC.to_be_bytes());
    h[4..12].copy_from_slice(&id.to_be_bytes());
    h[12] = op;
    h[13] = flags;
    h[14..22].copy_from_slice(&offset.to_be_bytes());
    h[22..26].copy_from_slice(&length.to_be_bytes());
    h[26..30].copy_from_slice(&payload_len.to_be_bytes());
    h
}

/// The protocol's mandated reaction to a malformed frame: one
/// `BadRequest` response with id 0, then connection close.
fn expect_bad_request_then_eof(s: &mut TcpStream) -> Result<(), String> {
    match wire::read_response(s) {
        Ok(Some(resp)) => {
            if resp.id != 0 || resp.status != Status::BadRequest {
                return Err(format!(
                    "expected BadRequest id 0, got {:?} id {}",
                    resp.status, resp.id
                ));
            }
        }
        Ok(None) => return Err("connection closed without a BadRequest".into()),
        Err(e) => return Err(format!("no readable response: {e}")),
    }
    match wire::read_response(s) {
        Ok(None) => Ok(()),
        Ok(Some(r)) => Err(format!("unexpected second response id {}", r.id)),
        Err(e) => Err(format!("expected clean close, got: {e}")),
    }
}

/// One client thread: a round-synchronized workload with full history
/// capture. Always reaches every barrier, even after transport errors —
/// otherwise one sick client would deadlock the whole harness.
#[allow(clippy::too_many_arguments)]
fn client_worker(
    client_id: usize,
    cfg: &ChaosConfig,
    capacity: u64,
    addr: SocketAddr,
    plan: &FaultPlan,
    start_barrier: &Barrier,
    end_barrier: &Barrier,
    abort: &AtomicBool,
) -> (Vec<OpRecord>, Vec<String>) {
    let mut records = Vec::new();
    let mut errors = Vec::new();
    // This client's volume and the physical base of its extent: plan
    // offsets are physical, the wire wants volume-local addresses.
    let vol = cfg.client_volume(client_id) as u8;
    let base = u64::from(vol) * cfg.volume_capacity(capacity);
    let mut conn = match Client::connect(addr) {
        Ok(c) => Some(c),
        Err(e) => {
            errors.push(format!("connect failed: {e}"));
            None
        }
    };
    if let Some(c) = conn.as_mut() {
        c.set_volume(vol);
    }
    for (round, event) in plan.events.iter().enumerate() {
        start_barrier.wait();
        if abort.load(Ordering::Acquire) {
            end_barrier.wait();
            continue;
        }
        if *event == (FaultEvent::Reconnect { client: client_id }) {
            // Disconnect mid-frame: a fresh connection sends half a
            // valid WRITE header and vanishes; our own session then
            // reconnects. The server must discard the partial frame.
            if let Ok(mut s) = TcpStream::connect(addr) {
                let partial = raw_header(1, Op::Write.code(), 0, 0, 1, 64);
                let _ = s.write_all(&partial[..17]);
            }
            conn = match Client::connect(addr) {
                Ok(mut c) => {
                    c.set_volume(vol);
                    Some(c)
                }
                Err(e) => {
                    errors.push(format!("round {round}: reconnect failed: {e}"));
                    None
                }
            };
        }
        let mut drop_conn = false;
        if let Some(c) = conn.as_mut() {
            for op in client_round_ops(plan.seed, client_id, round, cfg, capacity) {
                let (op_code, payload) = if op.write {
                    let mut buf = Vec::with_capacity(op.units as usize * cfg.unit_bytes);
                    for k in 0..op.units {
                        buf.extend_from_slice(&token_bytes(block_token(op.tag, k), cfg.unit_bytes));
                    }
                    (Op::Write, buf)
                } else {
                    (Op::Read, Vec::new())
                };
                match c.request(op_code, op.offset - base, op.units, payload) {
                    Ok((status, resp)) => records.push(OpRecord {
                        round: round as u32,
                        write: op.write,
                        offset: op.offset,
                        units: op.units,
                        status: status.code(),
                        digest: fnv64(&resp),
                    }),
                    Err(e) => {
                        errors.push(format!("round {round}: transport failure: {e}"));
                        drop_conn = true;
                        break;
                    }
                }
            }
        }
        if drop_conn {
            conn = None;
        }
        end_barrier.wait();
    }
    (records, errors)
}

/// Collect end-state evidence after the last round.
#[allow(clippy::too_many_arguments)]
fn end_state(
    plan: &FaultPlan,
    cfg: &ChaosConfig,
    engine: &Arc<Engine>,
    faults: &Arc<CellFaults>,
    addr: SocketAddr,
    capacity: u64,
    observer: &Arc<Mutex<Observer>>,
    infra: &mut Vec<String>,
) -> EndState {
    settle_rebuild(engine, infra, plan.events.len() as u32);
    let status = engine.rebuild_status();
    let rebuild = (status.state.code(), status.disk);

    let scrub1 = match engine.scrub() {
        Ok(bad) => bad,
        Err(e) => {
            infra.push(format!("end: scrub failed: {e}"));
            Vec::new()
        }
    };
    let mut intents = engine.outstanding_intents();
    intents.sort_unstable();
    intents.dedup();

    // Disarm whatever the plan left armed (the first scrub above ran
    // with the cells live, so still-armed read faults have fired);
    // with a fault-free array the journal can then be replayed and the
    // volume must scrub clean.
    faults.disarm_all();
    let failed = engine.volume_info().failed;
    let (recovered, scrub2) = if failed.is_empty() {
        let recovered = match engine.recover() {
            Ok(n) => Some(n),
            Err(e) => {
                infra.push(format!("end: journal replay failed: {e}"));
                None
            }
        };
        let scrub2 = match engine.scrub() {
            Ok(bad) => Some(bad),
            Err(e) => {
                infra.push(format!("end: second scrub failed: {e}"));
                None
            }
        };
        (recovered, scrub2)
    } else {
        (None, None)
    };

    // Final readback over the wire, one block at a time, so unreadable
    // blocks surface individually. Physical block b lives in volume
    // b / vcap at local offset b % vcap; blocks past the client volumes
    // (free space / scratch) are not addressable and not read.
    let vcap = cfg.volume_capacity(capacity);
    let used = cfg.used_capacity(capacity);
    let mut final_reads = Vec::with_capacity(used as usize);
    match Client::connect(addr) {
        Ok(mut c) => {
            for block in 0..used {
                let v = (block / vcap) as u8;
                match c.request_on(v, Op::Read, block % vcap, 1, Vec::new()) {
                    Ok((status, payload)) => final_reads.push((status.code(), fnv64(&payload))),
                    Err(e) => {
                        infra.push(format!("end: readback of block {block} failed: {e}"));
                        break;
                    }
                }
            }
        }
        Err(e) => infra.push(format!("end: readback connect failed: {e}")),
    }

    let counters = match observer.lock() {
        Ok(obs) => {
            let r = obs.registry();
            Counters {
                disk_failures: r.counter("disk.failures").unwrap_or(0),
                media_read: r.counter("faults.media_read").unwrap_or(0),
                media_write: r.counter("faults.media_write").unwrap_or(0),
                scrub_passes: r.counter("scrub.passes").unwrap_or(0),
                max_batch_ops: r.histogram("journal.batch_ops").map_or(0, |h| h.max()),
            }
        }
        Err(_) => {
            infra.push("end: observer lock poisoned".into());
            Counters::default()
        }
    };

    EndState {
        rebuild,
        scrub1,
        intents,
        recovered,
        scrub2,
        final_reads,
        counters,
    }
}
