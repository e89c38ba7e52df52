//! The traced run's instruments, all of them outside the program:
//! client spans, the server's own `STATS` and `TRACE_DUMP` exports
//! scraped over a control connection, per-thread CPU time from `/proc`,
//! and the workload's ops replayed below the wire. Spans stay in memory
//! until the run ends.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use pddl_obs::{OpKind, OpSpan, TelemetrySnapshot};
use pddl_server::wire::{self, Op as WireOp, Request};
use pddl_server::Engine;

use crate::client::{request, Conn};
use crate::content::fill_unit;
use crate::gen::{Op, OpGen, Spec};
use crate::workload::{build_array, UNIT_BYTES};

/// One client-observed op: send → full response parsed, in nanoseconds
/// since the run's start.
#[derive(Debug, Clone, Copy)]
pub struct ClientSpan {
    pub id: u64,
    pub write: bool,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// CPU time the calling thread has run, in nanoseconds.
pub fn thread_cpu_ns() -> u64 {
    task_cpu_ns("/proc/thread-self").unwrap_or(0)
}

/// `schedstat`'s first field is on-CPU nanoseconds; where the kernel
/// lacks it, fall back to `stat`'s utime + stime in 10 ms ticks.
fn task_cpu_ns(task_dir: &str) -> Option<u64> {
    if let Ok(s) = std::fs::read_to_string(format!("{task_dir}/schedstat")) {
        if let Some(ns) = s.split_whitespace().next().and_then(|v| v.parse().ok()) {
            return Some(ns);
        }
    }
    let stat = std::fs::read_to_string(format!("{task_dir}/stat")).ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th of the line.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) * 10_000_000)
}

/// CPU time of this process's threads whose name starts with `prefix`,
/// by thread id.
fn named_threads_cpu(prefix: &str) -> Vec<(u64, u64)> {
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    dir.flatten()
        .filter_map(|entry| {
            let path = entry.path();
            let comm = std::fs::read_to_string(path.join("comm")).ok()?;
            if !comm.starts_with(prefix) {
                return None;
            }
            let tid = entry.file_name().to_str()?.parse().ok()?;
            Some((tid, task_cpu_ns(path.to_str()?)?))
        })
        .collect()
}

/// CPU time threads of one name ran inside the window. A thread already
/// alive at the window's start counts from its reading then; one born
/// later (each rebuild gets a new thread) counts from zero.
#[derive(Default)]
struct CpuMeter {
    baseline: HashMap<u64, u64>,
    latest: HashMap<u64, u64>,
}

impl CpuMeter {
    fn start(&mut self, prefix: &str) {
        self.baseline = named_threads_cpu(prefix).into_iter().collect();
    }

    fn sample(&mut self, prefix: &str) {
        self.latest.extend(named_threads_cpu(prefix));
    }

    fn total_ns(&self) -> u64 {
        self.latest
            .iter()
            .map(|(tid, ns)| ns.saturating_sub(self.baseline.get(tid).copied().unwrap_or(0)))
            .sum()
    }
}

/// The scraper thread of a traced run.
pub struct Tracer {
    addr: SocketAddr,
    measure: Instant,
    end: Instant,
    timeout: Duration,
}

#[derive(Debug, Default)]
pub struct TracerReport {
    pub stats_begin: Option<TelemetrySnapshot>,
    pub stats_end: Option<TelemetrySnapshot>,
    /// READ/WRITE spans from the flight recorder's recent ring, by
    /// request id.
    pub spans: HashMap<u64, OpSpan>,
    pub dumps: u64,
    pub shard_cpu_ns: u64,
    pub rebuild_cpu_ns: u64,
    pub problems: Vec<String>,
}

const PROC_TICK: Duration = Duration::from_millis(20);
/// `TRACE_DUMP` every this many proc ticks (100 ms).
const DUMP_EVERY: u64 = 5;

impl Tracer {
    pub fn new(addr: SocketAddr, measure: Instant, end: Instant, timeout: Duration) -> Self {
        Tracer {
            addr,
            measure,
            end,
            timeout,
        }
    }

    fn scrape<T>(
        conn: &mut Conn,
        op: WireOp,
        decode: impl Fn(&[u8]) -> Option<T>,
    ) -> Result<T, String> {
        let resp = conn
            .call(&request(u64::MAX - 2, op, 0, 0))
            .map_err(|e| format!("{op:?}: {e}"))?;
        decode(&resp.payload).ok_or_else(|| format!("{op:?}: undecodable payload"))
    }

    /// `STATS` at both ends of the window; in between, thread CPU every
    /// 20 ms and `TRACE_DUMP` every 100 ms of the even (traced) slices.
    pub fn run(self) -> TracerReport {
        let mut report = TracerReport::default();
        let mut conn = match Conn::connect(self.addr, self.timeout) {
            Ok(c) => c,
            Err(e) => {
                report.problems.push(format!("tracer connect: {e}"));
                return report;
            }
        };
        std::thread::sleep(self.measure.saturating_duration_since(Instant::now()));
        let (mut shards, mut rebuild) = (CpuMeter::default(), CpuMeter::default());
        shards.start("pddl-shard-");
        rebuild.start("pddl-rebuild");
        match Self::scrape(&mut conn, WireOp::Stats, wire::decode_stats) {
            Ok(snap) => report.stats_begin = Some(snap),
            Err(why) => report.problems.push(why),
        }
        let mut tick = 0u64;
        loop {
            let now = Instant::now();
            if now >= self.end {
                break;
            }
            shards.sample("pddl-shard-");
            rebuild.sample("pddl-rebuild");
            let slice = now.duration_since(self.measure).as_secs();
            if tick.is_multiple_of(DUMP_EVERY) && slice.is_multiple_of(2) {
                match Self::scrape(&mut conn, WireOp::TraceDump, wire::decode_spans) {
                    Ok(spans) => {
                        report.dumps += 1;
                        report.spans.extend(
                            spans
                                .into_iter()
                                .filter(|s| !s.slow && matches!(s.op, OpKind::Read | OpKind::Write))
                                .map(|s| (s.id, s)),
                        );
                    }
                    Err(why) => {
                        report.problems.push(why);
                        break;
                    }
                }
            }
            tick += 1;
            let next = self.measure + PROC_TICK * tick as u32;
            std::thread::sleep(next.saturating_duration_since(Instant::now()));
        }
        shards.sample("pddl-shard-");
        rebuild.sample("pddl-rebuild");
        match Self::scrape(&mut conn, WireOp::Stats, wire::decode_stats) {
            Ok(snap) => report.stats_end = Some(snap),
            Err(why) => report.problems.push(why),
        }
        report.shard_cpu_ns = shards.total_ns();
        report.rebuild_cpu_ns = rebuild.total_ns();
        report
    }
}

/// `after − before` of one cumulative counter.
pub fn counter_delta(begin: &TelemetrySnapshot, end: &TelemetrySnapshot, name: &str) -> u64 {
    end.counter(name)
        .unwrap_or(0)
        .saturating_sub(begin.counter(name).unwrap_or(0))
}

/// A client op and the server span with the same request id.
pub struct Joined {
    pub client: ClientSpan,
    pub server: OpSpan,
}

pub fn join(client: &[ClientSpan], server: &HashMap<u64, OpSpan>) -> Vec<Joined> {
    client
        .iter()
        .filter_map(|c| {
            server.get(&c.id).map(|s| Joined {
                client: *c,
                server: *s,
            })
        })
        .collect()
}

/// Chrome-trace JSON of the joined spans as nestable async events: one
/// track per request id holding `client.op` ⊃ `server.op` ⊃
/// `server.queue`, `server.array`. `epoch_offset_ns` places the
/// engine's clock on the run's; a server span is clamped into its
/// client span, whose ends are the only instants measured on one clock.
pub fn chrome_trace(joined: &[Joined], epoch_offset_ns: i64, limit: usize) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    let mut first = true;
    let mut event = |name: &str, ph: char, id: u64, ts_ns: u64, cat: &str| {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        let _ = write!(
            out,
            "{{\"name\":\"{name}\",\"cat\":\"{cat}\",\"ph\":\"{ph}\",\"id\":\"{id:#x}\",\"pid\":1,\"tid\":{},\"ts\":{:.3}}}",
            id >> 56,
            ts_ns as f64 / 1e3
        );
    };
    for j in joined.iter().take(limit) {
        let c = j.client;
        let cat = if c.write { "write" } else { "read" };
        let clamp = |ns: i64| (ns.max(c.start_ns as i64) as u64).min(c.end_ns);
        let begin = j.server.start_ns as i64 + epoch_offset_ns;
        let s0 = clamp(begin - j.server.queue_ns as i64);
        let s1 = clamp(begin);
        let s2 = clamp(begin + j.server.array_ns as i64);
        event("client.op", 'b', c.id, c.start_ns, cat);
        event("server.op", 'b', c.id, s0, cat);
        event("server.queue", 'b', c.id, s0, cat);
        event("server.queue", 'e', c.id, s1, cat);
        event("server.array", 'b', c.id, s1, cat);
        event("server.array", 'e', c.id, s2, cat);
        event("server.op", 'e', c.id, s2, cat);
        event("client.op", 'e', c.id, c.end_ns, cat);
    }
    out.push_str("\n]}\n");
    out
}

/// Nanoseconds per op of the workload's op stream executed below the
/// wire, single-threaded on a healthy array.
#[derive(Debug, Clone, Copy)]
pub struct Replay {
    pub ops: u64,
    pub array_ns_per_op: f64,
    pub engine_ns_per_op: f64,
}

/// Ops prepared ahead of each timed batch, so generating an op and
/// filling its payload stay outside the clock.
const REPLAY_BATCH: usize = 64;

fn replay_batches(
    spec: &Spec,
    seed: u64,
    capacity: u64,
    max_ops: u64,
    budget: Duration,
    mut exec: impl FnMut(&Request),
) -> (u64, f64) {
    let mut gens: Vec<OpGen> = (0..spec.conns)
        .map(|c| OpGen::new(spec, seed, c, capacity))
        .collect();
    let mut batch: Vec<Request> = (0..REPLAY_BATCH)
        .map(|_| request(0, WireOp::Read, 0, 0))
        .collect();
    let (mut ops, mut spent) = (0u64, Duration::ZERO);
    while ops < max_ops && spent < budget {
        for (i, req) in batch.iter_mut().enumerate() {
            let Op {
                write,
                start,
                units,
            } = gens[i % spec.conns].next_op();
            req.op = if write { WireOp::Write } else { WireOp::Read };
            req.offset = start;
            req.length = units;
            req.payload.resize(
                if write {
                    units as usize * UNIT_BYTES
                } else {
                    0
                },
                0,
            );
            for (k, unit) in req.payload.chunks_exact_mut(UNIT_BYTES).enumerate() {
                fill_unit(unit, start + k as u64, 1);
            }
        }
        let began = Instant::now();
        for req in &batch {
            exec(req);
        }
        spent += began.elapsed();
        ops += REPLAY_BATCH as u64;
    }
    (ops, spent.as_nanos() as f64 / ops as f64)
}

/// Replay the first ops `(spec, seed)` generates (at most `max_ops`, or
/// what fits `budget` per depth) through `DeclusteredArray::{read_into,
/// write}` and then through `Engine::execute_frame_into`. The
/// difference between depths is each layer's self time per op.
pub fn replay_at_depth(
    spec: &Spec,
    seed: u64,
    periods: u64,
    max_ops: u64,
    budget: Duration,
) -> Replay {
    let array = build_array(periods);
    let capacity = array.capacity_units();
    let mut buf = vec![0u8; spec.max_units as usize * UNIT_BYTES];
    let (ops, array_ns_per_op) = replay_batches(spec, seed, capacity, max_ops, budget, |req| {
        if req.op == WireOp::Write {
            array
                .write(req.offset, &req.payload)
                .expect("replayed write");
        } else {
            let out = &mut buf[..req.length as usize * UNIT_BYTES];
            array.read_into(req.offset, out).expect("replayed read");
        }
        std::hint::black_box(&buf);
    });
    let engine = Engine::new(array);
    let mut frame = Vec::new();
    // The same ops again, exactly as many, one layer up.
    let (_, engine_ns_per_op) = replay_batches(spec, seed, capacity, ops, Duration::MAX, |req| {
        engine.execute_frame_into(0, req, &mut frame);
        std::hint::black_box(&frame);
    });
    Replay {
        ops,
        array_ns_per_op,
        engine_ns_per_op,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_cpu_time_advances_with_work() {
        let before = thread_cpu_ns();
        let mut x = 1u64;
        let began = Instant::now();
        while began.elapsed() < Duration::from_millis(30) {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
        }
        let spent = thread_cpu_ns() - before;
        assert!(
            spent >= 10_000_000,
            "only {spent} ns of CPU in a 30 ms spin"
        );
    }

    #[test]
    fn chrome_trace_is_valid_json_with_balanced_nesting() {
        let client = [ClientSpan {
            id: (1 << 56) + 5,
            write: false,
            start_ns: 1_000,
            end_ns: 60_000,
        }];
        let server = OpSpan {
            worker: 0,
            slow: false,
            id: (1 << 56) + 5,
            op: OpKind::Read,
            status: 0,
            offset: 9,
            len: 1,
            start_ns: 500_000,
            queue_ns: 100,
            array_ns: 2_000,
            total_ns: 2_100,
        };
        let map: HashMap<u64, OpSpan> = [(server.id, server)].into();
        let joined = join(&client, &map);
        assert_eq!(joined.len(), 1);
        // The engine's clock started 480 µs before the run's.
        let json = chrome_trace(&joined, -480_000, 10);
        pddl_obs::validate_json(&json).expect("valid JSON");
        assert_eq!(json.matches("\"ph\":\"b\"").count(), 4);
        assert_eq!(json.matches("\"ph\":\"e\"").count(), 4);
        assert!(
            json.contains("\"ts\":20.000"),
            "server.op begins at 20 µs: {json}"
        );
    }
}
