//! One workload run: build the stack, drive the closed loop over
//! loopback TCP, cycle rebuilds, then verify the whole volume.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use pddl_array::DeclusteredArray;
use pddl_core::Pddl;
use pddl_server::wire::{Op as WireOp, RebuildState, RebuildStatus, Status};
use pddl_server::{serve, Engine, ServerConfig, ServerHandle};

use crate::client::{request, Completion, Conn, Pipeline};
use crate::content::{check_unit_bytes, check_unit_frame, fill_unit};
use crate::gen::{Op, OpGen, Spec};
use crate::stats::{best_quartile, Samples, WindowStats};
use crate::trace::{self, ClientSpan, Tracer, TracerReport};

/// The paper's geometry, fixed for every workload.
pub const DISKS: usize = 13;
pub const WIDTH: usize = 4;
pub const UNIT_BYTES: usize = 8 << 10;
/// Layout periods of the full-size volume: 93 600 data units, 731 MiB
/// of user data on ~1.05 GiB of `RamDisk`, far beyond any cache. (Twice
/// that, with three set-ups and three rebuild cycles per run, does not
/// fit the time the driver allows 92 runs.)
pub const FULL_PERIODS: u64 = 800;
/// Most units one op touches (the paper's largest access is 30).
pub const MAX_OP_UNITS: usize = 32;
/// One READ in this many is compared byte for byte; the rest are
/// checked by length, unit index, generation bounds and trailer.
const FULL_CHECK_EVERY: u64 = 64;
/// How long the array stays degraded before its rebuild starts.
const DEGRADED_DWELL: Duration = Duration::from_millis(500);
const REBUILD_POLL: Duration = Duration::from_millis(2);
/// Rebuild cycles run on the idle server after a healthy workload.
const IDLE_CYCLES: usize = 3;
const SLICE: Duration = Duration::from_secs(1);

/// A planted defect the verifier must catch (`--sabotage`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sabotage {
    /// Flip one byte of one READ response before it is verified.
    FlipByte,
    /// Before the final readback, record one acked write generation
    /// that never reached the server (a lost write, seen from outside).
    DropGeneration,
    /// Wait for a response to a request that was never sent.
    Timeout,
}

impl Sabotage {
    pub const ALL: [(&'static str, Sabotage); 3] = [
        ("flip-byte", Sabotage::FlipByte),
        ("drop-generation", Sabotage::DropGeneration),
        ("timeout", Sabotage::Timeout),
    ];
}

#[derive(Debug, Clone)]
pub struct RunConfig {
    pub spec: &'static Spec,
    pub seed: u64,
    pub periods: u64,
    pub warmup: Duration,
    /// Measured window, a whole number of one-second slices.
    pub window: Duration,
    /// Complete set-ups performed; `setup_s` is their median.
    pub setup_reps: usize,
    pub traced: bool,
    pub sabotage: Option<Sabotage>,
    pub op_timeout: Duration,
}

#[derive(Debug, Clone, Copy)]
pub struct CycleSample {
    pub disk: usize,
    /// When REBUILD was accepted, when REBUILD_STATUS said Done, and
    /// when the replacement disk was in and the array healthy again.
    pub accepted: Instant,
    pub done: Instant,
    pub replaced: Instant,
    pub repaired_units: u64,
    pub in_window: bool,
}

impl CycleSample {
    /// REBUILD accepted → Done.
    pub fn rebuild(&self) -> Duration {
        self.done - self.accepted
    }
}

#[derive(Debug, Default)]
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    /// Why ops failed or verification did not hold (first few).
    pub problems: Vec<String>,
    pub setup_s: Vec<f64>,
    pub peak_rss_mib: f64,
    pub window: WindowStats,
    /// Ops behind `degraded_rebuild`'s two p99s (READ, WRITE).
    pub tail_samples: Option<(u64, u64)>,
    pub cycles: Vec<CycleSample>,
    pub rebuild_mib_s: Option<f64>,
    pub scrub_suspects: usize,
    pub capacity_units: u64,
    pub sequence_digest: u64,
    pub loadgen_cpu_ns: u64,
    pub traced: Option<TracedRun>,
}

/// What only the traced run has.
#[derive(Debug)]
pub struct TracedRun {
    pub tracer: TracerReport,
    pub client_spans: Vec<ClientSpan>,
    pub traced_slices: WindowStats,
    pub untraced_slices: WindowStats,
    /// The engine's clock origin minus the run's, in nanoseconds: added
    /// to a server span's `start_ns` it gives the span's place on the
    /// client spans' timeline.
    pub epoch_offset_ns: i64,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }
}

/// Per-unit write generations: `issued` is bumped by the unit's one
/// writer before a WRITE is sent, `acked` when its OK arrives. A READ's
/// content must carry a generation between the two.
pub struct Ledger {
    issued: Vec<AtomicU32>,
    acked: Vec<AtomicU32>,
}

impl Ledger {
    pub fn new(units: u64) -> Self {
        Ledger {
            issued: (0..units).map(|_| AtomicU32::new(0)).collect(),
            acked: (0..units).map(|_| AtomicU32::new(0)).collect(),
        }
    }
}

pub fn layout() -> Box<Pddl> {
    Box::new(Pddl::new(DISKS, WIDTH).expect("the paper's 13-disk, width-4 layout"))
}

/// A fresh array with every unit at generation 0.
pub fn build_array(periods: u64) -> DeclusteredArray {
    let array = DeclusteredArray::new(layout(), UNIT_BYTES, periods).expect("array geometry");
    let per_period = array.layout().data_units_per_period();
    let mut buf = vec![0u8; per_period as usize * UNIT_BYTES];
    for period in 0..periods {
        let first = period * per_period;
        for (i, unit) in buf.chunks_exact_mut(UNIT_BYTES).enumerate() {
            fill_unit(unit, first + i as u64, 0);
        }
        array.write(first, &buf).expect("prefill write");
    }
    array
}

pub struct Stack {
    pub handle: ServerHandle,
    pub engine: Arc<Engine>,
    pub addr: SocketAddr,
    pub capacity: u64,
    /// When the engine's clock started, to place server spans on the
    /// client's timeline (same process, same monotonic clock).
    pub engine_epoch: Instant,
}

pub fn server_config(shards: usize) -> ServerConfig {
    ServerConfig {
        shards,
        ..ServerConfig::default()
    }
}

/// An empty array served on loopback, then filled at generation 0
/// through the wire. Filling through the server, not before it, leaves
/// the volume as a long-running server's is: every unit last written by
/// the shard thread that owns it. (`RamDisk` reallocates a unit on each
/// write, so a volume prefilled by another thread spends its first
/// minute migrating between allocator arenas; throughput climbed from
/// 22 to 33 kops/s across a 20 s window in the sizing runs.)
pub fn start_stack(spec: &Spec, periods: u64, timeout: Duration) -> Stack {
    let array = DeclusteredArray::new(layout(), UNIT_BYTES, periods).expect("array geometry");
    let capacity = array.capacity_units();
    let per_period = array.layout().data_units_per_period();
    let engine_epoch = Instant::now();
    let engine = Arc::new(Engine::new(array));
    let handle = serve(
        Arc::clone(&engine),
        "127.0.0.1:0",
        server_config(spec.shards),
    )
    .expect("serve on loopback");
    let conn = Conn::connect(handle.local_addr(), timeout).expect("connect for prefill");
    // One period per WRITE, two in flight: the next payload is filled
    // while the server stores the previous one.
    let mut pipe: Pipeline<()> = Pipeline::new(conn, 2, 0);
    let mut req = request(0, WireOp::Write, 0, per_period as u32);
    req.payload = vec![0u8; per_period as usize * UNIT_BYTES];
    let settle = |pipe: &mut Pipeline<()>| {
        let done = pipe.complete().expect("prefill response");
        assert_eq!(done.response.status, Status::Ok, "prefill write refused");
    };
    for period in 0..periods {
        req.offset = period * per_period;
        for (i, unit) in req.payload.chunks_exact_mut(UNIT_BYTES).enumerate() {
            fill_unit(unit, req.offset + i as u64, 0);
        }
        if !pipe.has_room() {
            settle(&mut pipe);
        }
        pipe.submit(&mut req, ()).expect("prefill write");
    }
    while pipe.outstanding() > 0 {
        settle(&mut pipe);
    }
    Stack {
        addr: handle.local_addr(),
        handle,
        engine,
        capacity,
        engine_epoch,
    }
}

fn connect_all(stack: &Stack, n: usize, timeout: Duration) -> Vec<Conn> {
    (0..n)
        .map(|_| Conn::connect(stack.addr, timeout).expect("connect to the served stack"))
        .collect()
}

#[derive(Clone, Copy)]
struct Tag {
    op: Op,
    /// WRITE: the generation each unit was written at. READ: the
    /// highest generation acked for each unit before it was sent.
    gens: [u32; MAX_OP_UNITS],
    full_check: bool,
    phantom: bool,
}

struct Timeline {
    start: Instant,
    measure: Instant,
    end: Instant,
}

impl Timeline {
    fn slice_of(&self, at: Instant) -> Option<usize> {
        (at >= self.measure && at < self.end)
            .then(|| (at.duration_since(self.measure).as_nanos() / SLICE.as_nanos()) as usize)
    }
}

struct ConnOutcome {
    samples: Samples,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    spans: Vec<ClientSpan>,
    cpu_ns: u64,
}

impl ConnOutcome {
    fn fail(&mut self, n: u64, why: impl FnOnce() -> String) {
        self.failed += n;
        if self.problems.len() < 4 {
            self.problems.push(why());
        }
    }
}

struct ConnJob<'a> {
    cfg: &'a RunConfig,
    index: usize,
    capacity: u64,
    ledger: &'a Ledger,
    timeline: &'a Timeline,
}

/// One connection's closed loop: keep `iodepth` ops in flight until the
/// window ends, verify every response, then drain.
fn drive_conn(job: &ConnJob<'_>, conn: Conn) -> ConnOutcome {
    let (cfg, index, ledger, timeline) = (job.cfg, job.index, job.ledger, job.timeline);
    let spec = cfg.spec;
    let mut out = ConnOutcome {
        // Twice what the fastest workload completes on one connection.
        samples: Samples::with_capacity(1 << 21),
        attempted: 0,
        failed: 0,
        problems: Vec::new(),
        spans: Vec::new(),
        cpu_ns: 0,
    };
    let mut gen = OpGen::new(spec, cfg.seed, index, job.capacity);
    // Ids carry the connection in their top byte, so a server span's id
    // names one client op across all connections.
    let mut pipe: Pipeline<Tag> = Pipeline::new(conn, spec.iodepth, (index as u64 + 1) << 56);
    let mut req = request(0, WireOp::Read, 0, 0);
    let mut scratch = Vec::new();
    let mut sabotage = cfg.sabotage.filter(|_| index == 0);
    let mut seq = 0u64;
    let cpu_before = trace::thread_cpu_ns();
    let mut now = Instant::now();
    loop {
        while now < timeline.end && pipe.has_room() {
            let in_window = now >= timeline.measure;
            if in_window && sabotage == Some(Sabotage::Timeout) {
                sabotage = None;
                out.attempted += 1;
                pipe.submit_phantom(Tag {
                    op: Op {
                        write: false,
                        start: 0,
                        units: 1,
                    },
                    gens: [0; MAX_OP_UNITS],
                    full_check: false,
                    phantom: true,
                });
                continue;
            }
            let op = gen.next_op();
            let mut tag = Tag {
                op,
                gens: [0; MAX_OP_UNITS],
                full_check: seq.is_multiple_of(FULL_CHECK_EVERY),
                phantom: false,
            };
            seq += 1;
            let units = op.units as usize;
            if op.write {
                req.op = WireOp::Write;
                req.payload.resize(units * UNIT_BYTES, 0);
                for (i, unit) in req.payload.chunks_exact_mut(UNIT_BYTES).enumerate() {
                    let u = op.start + i as u64;
                    let g = ledger.issued[u as usize].load(Ordering::Relaxed) + 1;
                    // Release: a reader that sees a newer generation's
                    // bytes must also see it as issued.
                    ledger.issued[u as usize].store(g, Ordering::Release);
                    tag.gens[i] = g;
                    fill_unit(unit, u, g);
                }
            } else {
                req.op = WireOp::Read;
                req.payload.clear();
                for i in 0..units {
                    tag.gens[i] = ledger.acked[op.start as usize + i].load(Ordering::Acquire);
                }
            }
            req.offset = op.start;
            req.length = op.units;
            out.attempted += 1;
            if let Err(e) = pipe.submit(&mut req, tag) {
                let lost = pipe.abandon().len() as u64;
                out.fail(lost, || format!("conn {index}: send failed: {e}"));
                out.cpu_ns = trace::thread_cpu_ns().saturating_sub(cpu_before);
                return out;
            }
        }
        if pipe.outstanding() == 0 {
            break;
        }
        let mut done = match pipe.complete() {
            Ok(done) => done,
            Err(e) => {
                // Timeout, reset or protocol error: everything in flight
                // is lost and the connection is not reused.
                let lost = pipe.abandon().len() as u64;
                out.fail(lost, || {
                    format!("conn {index}: {lost} op(s) lost waiting for a response: {e}")
                });
                break;
            }
        };
        now = done.received;
        let slice = timeline.slice_of(done.received);
        if sabotage == Some(Sabotage::FlipByte)
            && slice.is_some()
            && done.tag.full_check
            && !done.tag.op.write
        {
            sabotage = None;
            let at = done.response.payload.len() / 2;
            done.response.payload[at] ^= 0x10;
        }
        match verify(&done, ledger, &mut scratch) {
            Ok(()) => {
                if let Some(slice) = slice {
                    let ns = done.received.duration_since(done.sent).as_nanos() as u64;
                    let done_ns = done.received.duration_since(timeline.measure).as_nanos() as u64;
                    out.samples.record(done_ns, done.tag.op.write, ns);
                    if cfg.traced && slice % 2 == 0 {
                        out.spans.push(ClientSpan {
                            id: done.response.id,
                            write: done.tag.op.write,
                            start_ns: done.sent.duration_since(timeline.start).as_nanos() as u64,
                            end_ns: done.received.duration_since(timeline.start).as_nanos() as u64,
                        });
                    }
                }
            }
            Err(why) => out.fail(1, || format!("conn {index}: {why}")),
        }
    }
    out.cpu_ns = trace::thread_cpu_ns().saturating_sub(cpu_before);
    out
}

fn verify(done: &Completion<Tag>, ledger: &Ledger, scratch: &mut Vec<u8>) -> Result<(), String> {
    let Tag {
        op,
        gens,
        full_check,
        phantom,
    } = done.tag;
    let resp = &done.response;
    if phantom {
        return Err("a response arrived for a request that was never sent".into());
    }
    if resp.status != Status::Ok {
        return Err(format!("{op:?} answered {:?}", resp.status));
    }
    if op.write {
        let acked = &ledger.acked[op.start as usize..][..op.units as usize];
        for (floor, written) in acked.iter().zip(gens) {
            floor.fetch_max(written, Ordering::AcqRel);
        }
        return Ok(());
    }
    if resp.payload.len() != op.units as usize * UNIT_BYTES {
        return Err(format!("{op:?} returned {} bytes", resp.payload.len()));
    }
    for (i, bytes) in resp.payload.chunks_exact(UNIT_BYTES).enumerate() {
        let unit = op.start + i as u64;
        let seen = check_unit_frame(bytes, unit)
            .ok_or_else(|| format!("unit {unit}: header or trailer does not match"))?;
        let ceiling = ledger.issued[unit as usize].load(Ordering::Acquire);
        if seen < gens[i] || seen > ceiling {
            return Err(format!(
                "unit {unit}: generation {seen} outside [{}, {ceiling}]",
                gens[i]
            ));
        }
        if full_check && !check_unit_bytes(bytes, unit, seen, scratch) {
            return Err(format!("unit {unit}: bytes differ at generation {seen}"));
        }
    }
    Ok(())
}

fn rebuild_status(conn: &mut Conn) -> Result<RebuildStatus, String> {
    let resp = conn
        .call(&request(u64::MAX, WireOp::RebuildStatus, 0, 0))
        .map_err(|e| format!("REBUILD_STATUS: {e}"))?;
    RebuildStatus::decode(&resp.payload).ok_or_else(|| "REBUILD_STATUS payload".to_string())
}

/// One cycle of the paper's failure lifecycle on `disk`: fail it, stay
/// degraded for `dwell`, rebuild it into spare space online, then
/// install a replacement (for which no wire op exists).
fn rebuild_cycle(
    conn: &mut Conn,
    engine: &Engine,
    disk: usize,
    dwell: Duration,
) -> Result<CycleSample, String> {
    let expect = |conn: &mut Conn, op: WireOp, want: Status| -> Result<(), String> {
        let resp = conn
            .call(&request(u64::MAX - 1, op, disk as u64, 0))
            .map_err(|e| format!("{op:?} {disk}: {e}"))?;
        (resp.status == want)
            .then_some(())
            .ok_or_else(|| format!("{op:?} {disk} answered {:?}", resp.status))
    };
    expect(conn, WireOp::FailDisk, Status::Ok)?;
    std::thread::sleep(dwell);
    expect(conn, WireOp::Rebuild, Status::Accepted)?;
    let accepted = Instant::now();
    let status = loop {
        let status = rebuild_status(conn)?;
        match status.state {
            RebuildState::Done if status.disk as usize == disk => break status,
            RebuildState::Done => return Err(format!("rebuild status names disk {}", status.disk)),
            RebuildState::Running => std::thread::sleep(REBUILD_POLL),
            other => return Err(format!("rebuild of disk {disk} ended {other:?}")),
        }
        if accepted.elapsed() > Duration::from_secs(60) {
            return Err(format!("rebuild of disk {disk} still running after 60 s"));
        }
    };
    let done = Instant::now();
    engine
        .replace_disk(disk)
        .map_err(|e| format!("replace_disk {disk}: {e}"))?;
    Ok(CycleSample {
        disk,
        accepted,
        done,
        replaced: Instant::now(),
        repaired_units: status.repaired,
        in_window: false,
    })
}

/// Rebuild cycles over disks 0, 1, 2, … while `more(cycles so far)`
/// holds, always finishing the cycle in flight so the array is healthy
/// again when the final scrub runs. `counted` says whether a cycle that
/// reached Done at that instant goes into `rebuild_mib_s`.
fn rebuild_cycles(
    stack: &Stack,
    timeout: Duration,
    dwell: Duration,
    more: impl Fn(usize) -> bool,
    counted: impl Fn(Instant) -> bool,
) -> (Vec<CycleSample>, Vec<String>) {
    let mut cycles = Vec::new();
    let mut conn = match Conn::connect(stack.addr, timeout) {
        Ok(c) => c,
        Err(e) => return (cycles, vec![format!("control connect: {e}")]),
    };
    while more(cycles.len()) {
        let disk = cycles.len() % DISKS;
        match rebuild_cycle(&mut conn, &stack.engine, disk, dwell) {
            Ok(cycle) => cycles.push(CycleSample {
                in_window: counted(cycle.done),
                ..cycle
            }),
            Err(why) => return (cycles, vec![why]),
        }
    }
    (cycles, Vec::new())
}

/// `degraded_rebuild`'s figures, and how many READs and WRITEs are
/// behind its p99s.
///
/// Its slices are its rebuild cycles, not seconds: a cycle lasts about
/// 0.67 s, so a second holds one rebuild or two, and the p99 of a second
/// said mostly which. Cut where a replacement disk went in, every slice
/// has one degraded dwell, one rebuild and one copy-back.
///
/// Its p99s are over the ops in flight while a rebuild ran, all cycles
/// of the window together: the tail a caller sees while the array
/// rebuilds under it. Those ops are a tenth of the window's, spread
/// evenly from the degraded latency up to about 6 ms, so the p99 of
/// *all* ops sits halfway up that slope and moves with the share of the
/// window spent rebuilding (per second it spread 18 % and 27 % of its
/// median over ten runs), while the p99 of the ops that met a rebuild
/// sits at its top (2 % and 4 %).
fn cycle_window(
    samples: &Samples,
    cycles: &[CycleSample],
    timeline: &Timeline,
    window_ns: u64,
) -> (WindowStats, Option<(u64, u64)>) {
    let since_measure =
        |at: Instant| at.saturating_duration_since(timeline.measure).as_nanos() as u64;
    let mut edges: Vec<u64> = cycles
        .iter()
        .filter(|c| timeline.slice_of(c.replaced).is_some())
        .map(|c| since_measure(c.replaced))
        .collect();
    if edges.len() < 2 {
        // A window too short for one whole cycle is one slice.
        edges = vec![0, window_ns];
    }
    let rebuilding: Vec<(u64, u64)> = cycles
        .iter()
        .map(|c| (since_measure(c.accepted), since_measure(c.done)))
        .collect();
    // `--quick` rebuilds its 8 periods in a millisecond, which no WRITE
    // may have met; then the tail is that of the whole window.
    let tail = |write| {
        samples
            .quantile_during(&rebuilding, write, 0.99)
            .or_else(|| samples.quantile_during(&[(0, u64::MAX)], write, 0.99))
    };
    let (reads, writes) = (tail(false), tail(true));
    let stats = WindowStats {
        read_p99_us: reads.map(|(us, _)| us),
        write_p99_us: writes.map(|(us, _)| us),
        ..samples.summarize(&edges, |_| true)
    };
    (stats, reads.zip(writes).map(|((_, r), (_, w))| (r, w)))
}

fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Read the whole volume back through the engine and check every unit
/// byte for byte against the last generation written to it.
fn readback(engine: &Engine, capacity: u64, ledger: &Ledger, problems: &mut Vec<String>) -> u64 {
    const CHUNK: u64 = 117;
    let mut frame = Vec::new();
    let mut scratch = Vec::new();
    let mut bad = 0u64;
    let mut start = 0;
    while start < capacity {
        let units = CHUNK.min(capacity - start);
        let req = request(start, WireOp::Read, start, units as u32);
        engine.execute_frame_into(0, &req, &mut frame);
        let payload = &frame[pddl_server::wire::RESPONSE_HEADER_LEN..];
        if payload.len() != units as usize * UNIT_BYTES {
            problems.push(format!("readback at {start}: {} bytes", payload.len()));
            return bad + units;
        }
        for (i, bytes) in payload.chunks_exact(UNIT_BYTES).enumerate() {
            let unit = start + i as u64;
            let want = ledger.issued[unit as usize].load(Ordering::Acquire);
            if !check_unit_bytes(bytes, unit, want, &mut scratch) {
                bad += 1;
                if problems.len() < 8 {
                    let seen = check_unit_frame(bytes, unit);
                    problems.push(format!(
                        "readback: unit {unit} holds generation {seen:?}, expected {want}"
                    ));
                }
            }
        }
        start += units;
    }
    bad
}

pub fn run(cfg: &RunConfig) -> RunResult {
    let spec = cfg.spec;
    assert!(spec.max_units as usize <= MAX_OP_UNITS);
    let mut result = RunResult::default();

    // Set-up, `setup_reps` times over; the last stack is the one served.
    let mut served = None;
    for rep in 0..cfg.setup_reps.max(1) {
        let began = Instant::now();
        let stack = start_stack(spec, cfg.periods, cfg.op_timeout);
        let conns = connect_all(&stack, spec.conns, cfg.op_timeout);
        result.setup_s.push(began.elapsed().as_secs_f64());
        if rep + 1 < cfg.setup_reps.max(1) {
            drop(conns);
            stack.handle.shutdown();
        } else {
            served = Some((stack, conns));
        }
    }
    let (stack, conns) = served.expect("at least one set-up");
    result.capacity_units = stack.capacity;
    result.sequence_digest = crate::gen::sequence_digest(spec, cfg.seed, stack.capacity, 10_000);

    let ledger = Ledger::new(stack.capacity);
    let start = Instant::now() + Duration::from_millis(20);
    let timeline = Timeline {
        start,
        measure: start + cfg.warmup,
        end: start + cfg.warmup + cfg.window,
    };
    let stop_control = AtomicBool::new(false);
    let barrier = Barrier::new(spec.conns);
    let mut samples = Samples::default();
    let mut client_spans = Vec::new();
    let mut tracer_report = None;

    std::thread::scope(|scope| {
        let tracer = cfg.traced.then(|| {
            let t = Tracer::new(stack.addr, timeline.measure, timeline.end, cfg.op_timeout);
            scope.spawn(move || t.run())
        });
        // `degraded_rebuild`'s control thread cycles for the whole run.
        let control = spec.rebuild_under_load.then(|| {
            scope.spawn(|| {
                rebuild_cycles(
                    &stack,
                    cfg.op_timeout,
                    DEGRADED_DWELL,
                    |_| !stop_control.load(Ordering::Acquire),
                    |done| timeline.slice_of(done).is_some(),
                )
            })
        });
        let workers: Vec<_> = conns
            .into_iter()
            .enumerate()
            .map(|(index, conn)| {
                let job = ConnJob {
                    cfg,
                    index,
                    capacity: stack.capacity,
                    ledger: &ledger,
                    timeline: &timeline,
                };
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    std::thread::sleep(timeline.start.saturating_duration_since(Instant::now()));
                    drive_conn(&job, conn)
                })
            })
            .collect();
        for w in workers {
            let out = w.join().expect("load generator thread");
            result.attempted += out.attempted;
            result.failed += out.failed;
            result.problems.extend(out.problems);
            result.loadgen_cpu_ns += out.cpu_ns;
            samples.merge(out.samples);
            client_spans.extend(out.spans);
        }
        stop_control.store(true, Ordering::Release);
        if cfg.sabotage == Some(Sabotage::DropGeneration) {
            ledger.issued[0].fetch_add(1, Ordering::AcqRel);
        }
        if let Some(control) = control {
            let (cycles, problems) = control.join().expect("control thread");
            result.cycles = cycles;
            result.problems.extend(problems);
        }
        if let Some(tracer) = tracer {
            tracer_report = Some(tracer.join().expect("tracer thread"));
        }
    });

    // A healthy workload's rebuild cycles run now, on the idle server.
    if !spec.rebuild_under_load {
        let idle = |n| n < IDLE_CYCLES;
        let (cycles, problems) =
            rebuild_cycles(&stack, cfg.op_timeout, Duration::ZERO, idle, |_| true);
        result.cycles = cycles;
        result.problems.extend(problems);
    }
    let rates: Vec<f64> = result
        .cycles
        .iter()
        .filter(|c| c.in_window && c.repaired_units > 0)
        .map(|c| {
            (c.repaired_units * UNIT_BYTES as u64) as f64
                / (1u64 << 20) as f64
                / c.rebuild().as_secs_f64()
        })
        .collect();
    result.rebuild_mib_s = best_quartile(&rates, true);

    let Stack {
        handle,
        engine,
        capacity,
        engine_epoch,
        ..
    } = stack;
    handle.shutdown();

    let window_ns = cfg.window.as_nanos() as u64;
    let slice_ns = SLICE.as_nanos() as u64;
    let seconds: Vec<u64> = (0..=window_ns / slice_ns).map(|i| i * slice_ns).collect();
    if cfg.traced {
        result.traced = Some(TracedRun {
            tracer: tracer_report.expect("traced run has a tracer"),
            client_spans,
            traced_slices: samples.summarize(&seconds, |i| i % 2 == 0),
            untraced_slices: samples.summarize(&seconds, |i| i % 2 == 1),
            // The engine was built during set-up, before the run began.
            epoch_offset_ns: -(timeline.start.duration_since(engine_epoch).as_nanos() as i64),
        });
    }
    (result.window, result.tail_samples) = if spec.rebuild_under_load {
        cycle_window(&samples, &result.cycles, &timeline, window_ns)
    } else {
        (samples.summarize(&seconds, |_| true), None)
    };

    result.failed += readback(&engine, capacity, &ledger, &mut result.problems);
    match engine.scrub() {
        Ok(suspects) => {
            result.scrub_suspects = suspects.len();
            if !suspects.is_empty() {
                result.problems.push(format!(
                    "scrub found {} inconsistent stripes",
                    suspects.len()
                ));
            }
        }
        Err(e) => result.problems.push(format!("scrub: {e}")),
    }
    result.peak_rss_mib = peak_rss_mib();
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use pddl_server::wire::Response;

    fn read_of(unit: u64, holds_generation: u32, floor: u32) -> Completion<Tag> {
        let mut payload = vec![0u8; UNIT_BYTES];
        fill_unit(&mut payload, unit, holds_generation);
        let mut gens = [0; MAX_OP_UNITS];
        gens[0] = floor;
        Completion {
            response: Response {
                id: 1,
                status: Status::Ok,
                payload,
            },
            sent: Instant::now(),
            received: Instant::now(),
            tag: Tag {
                op: Op {
                    write: false,
                    start: unit,
                    units: 1,
                },
                gens,
                full_check: true,
                phantom: false,
            },
        }
    }

    #[test]
    fn verifier_bounds_a_read_by_the_acked_and_issued_generations() {
        let ledger = Ledger::new(16);
        let mut scratch = Vec::new();
        ledger.issued[5].store(3, Ordering::Release);
        // Generations 2 and 3 were in flight or acked: either may be read.
        assert!(verify(&read_of(5, 2, 2), &ledger, &mut scratch).is_ok());
        assert!(verify(&read_of(5, 3, 2), &ledger, &mut scratch).is_ok());
        // Older than the last ack before the READ was sent: a lost write.
        assert!(verify(&read_of(5, 1, 2), &ledger, &mut scratch).is_err());
        // Newer than anything ever issued: content from nowhere.
        assert!(verify(&read_of(5, 4, 2), &ledger, &mut scratch).is_err());
        // Another unit's bytes, a short payload, a refusal, a flipped byte.
        let mut other = read_of(6, 2, 2);
        other.tag.op.start = 5;
        assert!(verify(&other, &ledger, &mut scratch).is_err());
        let mut short = read_of(5, 2, 2);
        short.response.payload.pop();
        assert!(verify(&short, &ledger, &mut scratch).is_err());
        let mut refused = read_of(5, 2, 2);
        refused.response.status = Status::Internal;
        assert!(verify(&refused, &ledger, &mut scratch).is_err());
        let mut flipped = read_of(5, 2, 2);
        flipped.response.payload[4_000] ^= 1;
        assert!(verify(&flipped, &ledger, &mut scratch).is_err());
        flipped.tag.full_check = false;
        assert!(
            verify(&flipped, &ledger, &mut scratch).is_ok(),
            "a mid-body flip is only seen by the byte-for-byte sample"
        );
    }

    #[test]
    fn an_acked_write_raises_the_floor_of_later_reads() {
        let ledger = Ledger::new(16);
        let mut done = read_of(7, 0, 0);
        done.tag.op.write = true;
        done.tag.gens[0] = 4;
        done.response.payload.clear();
        verify(&done, &ledger, &mut Vec::new()).unwrap();
        assert_eq!(ledger.acked[7].load(Ordering::Acquire), 4);
        // A late ack of an older write does not lower it.
        done.tag.gens[0] = 3;
        verify(&done, &ledger, &mut Vec::new()).unwrap();
        assert_eq!(ledger.acked[7].load(Ordering::Acquire), 4);
    }
}
