//! Static per-layer metrics: single-threaded, count-based timings of
//! each crate's public calls on the benchmark's geometry, reported as
//! the median of [`BATCHES`] batches. None of this touches a socket
//! except the one idle-server round trip at the end.

use std::hint::black_box;
use std::io::Cursor;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pddl_array::DeclusteredArray;
use pddl_core::{
    plan_access, Datum, Layout, Mode, ParityDeclustering, Pddl, PrimeLayout, PseudoRandom, Raid5,
};
use pddl_gf::{kernels, GfExt, ReedSolomon};
use pddl_server::wire::{self, Op as WireOp, RequestReader, Response, Status};
use pddl_server::{serve, Engine, QosQueue};

use crate::client::{request, Conn, OP_TIMEOUT};
use crate::stats::{median, quantile_sorted};
use crate::workload::{build_array, server_config, DISKS, UNIT_BYTES, WIDTH};

const BATCHES: usize = 5;
const GIB: f64 = (1u64 << 30) as f64;
/// Units per paper-sized large access (240 KiB).
const LARGE: u64 = 30;

/// How much work each batch does; `--quick` shrinks it.
#[derive(Debug, Clone, Copy)]
pub struct Effort {
    /// Layout periods of the layer array (independent of the served one).
    pub periods: u64,
    /// Target wall time of one batch of a cheap call.
    pub batch: Duration,
    /// Working set of the out-of-cache kernel runs.
    pub dram_bytes: usize,
    /// Round trips per batch of the idle-server measurement.
    pub rtt_calls: usize,
}

impl Effort {
    pub const FULL: Effort = Effort {
        periods: 100,
        batch: Duration::from_millis(12),
        dram_bytes: 64 << 20,
        rtt_calls: 4_000,
    };
    pub const QUICK: Effort = Effort {
        periods: 8,
        batch: Duration::from_millis(2),
        dram_bytes: 8 << 20,
        rtt_calls: 200,
    };
}

pub type Metrics = Vec<(String, f64)>;

/// Median over [`BATCHES`] batches of nanoseconds per call of `f`. The
/// per-batch call count is calibrated once so a batch lasts about
/// `effort.batch`.
fn ns_per_call(effort: Effort, mut f: impl FnMut()) -> f64 {
    let mut calls = 1u64;
    loop {
        let began = Instant::now();
        for _ in 0..calls {
            f();
        }
        let took = began.elapsed();
        if took >= effort.batch / 4 || calls >= 1 << 24 {
            let scale = effort.batch.as_secs_f64() / took.as_secs_f64().max(1e-9);
            calls = ((calls as f64 * scale) as u64).clamp(1, 1 << 24);
            break;
        }
        calls *= 4;
    }
    let samples: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let began = Instant::now();
            for _ in 0..calls {
                f();
            }
            began.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    median(&samples).expect("batches")
}

fn gib_per_s(bytes_per_call: usize, ns: f64) -> f64 {
    bytes_per_call as f64 / GIB / (ns / 1e9)
}

/// A cheap, fixed address stream: a stride coprime to any span used here.
struct Stride {
    at: u64,
    span: u64,
}

impl Stride {
    fn new(span: u64) -> Self {
        Stride { at: 0, span }
    }

    fn next(&mut self) -> u64 {
        self.at = (self.at + 7_919) % self.span;
        self.at
    }
}

fn gf_layer(effort: Effort, out: &mut Metrics) {
    let mut push = |name: &str, bytes: usize, ns: f64| {
        out.push((format!("gf.{name}_gib_s"), gib_per_s(bytes, ns)));
    };
    let field = GfExt::new(2, 8).expect("GF(256)");
    let table = kernels::mul_table(&field, 0x1d);
    let src = vec![0xA5u8; UNIT_BYTES];
    let mut dst = vec![0x5Au8; UNIT_BYTES];
    push(
        "memcpy",
        UNIT_BYTES,
        ns_per_call(effort, || {
            dst.copy_from_slice(black_box(&src));
            black_box(&dst);
        }),
    );
    push(
        "xor_into",
        UNIT_BYTES,
        ns_per_call(effort, || {
            kernels::xor_into(&mut dst, black_box(&src));
            black_box(&dst);
        }),
    );
    push(
        "mul_acc",
        UNIT_BYTES,
        ns_per_call(effort, || {
            kernels::mul_acc(&mut dst, black_box(&src), &table);
            black_box(&dst);
        }),
    );

    // The same two kernels streaming through a working set far beyond
    // the caches: the memory roofline any SIMD work is judged against.
    let big_src = vec![0x3Cu8; effort.dram_bytes];
    let mut big_dst = vec![0xC3u8; effort.dram_bytes];
    let units = effort.dram_bytes / UNIT_BYTES;
    let mut at = 0usize;
    push(
        "memcpy_dram",
        UNIT_BYTES,
        ns_per_call(effort, || {
            at = (at + 1) % units;
            let r = at * UNIT_BYTES..(at + 1) * UNIT_BYTES;
            big_dst[r.clone()].copy_from_slice(&big_src[r]);
        }),
    );
    push(
        "xor_into_dram",
        UNIT_BYTES,
        ns_per_call(effort, || {
            at = (at + 1) % units;
            let r = at * UNIT_BYTES..(at + 1) * UNIT_BYTES;
            kernels::xor_into(&mut big_dst[r.clone()], &big_src[r]);
        }),
    );
    black_box(&big_dst);

    for checks in [1usize, 2] {
        let data_shards = WIDTH - checks;
        let rs = ReedSolomon::new(data_shards, checks).expect("stripe shape");
        let data: Vec<Vec<u8>> = (0..data_shards)
            .map(|i| vec![i as u8 + 1; UNIT_BYTES])
            .collect();
        let bytes = data_shards * UNIT_BYTES;
        push(
            &format!("rs_encode_c{checks}"),
            bytes,
            ns_per_call(effort, || {
                black_box(rs.encode(black_box(&data)).expect("encode"));
            }),
        );
        let parity = rs.encode(&data).expect("encode");
        let mut shards: Vec<Option<Vec<u8>>> =
            data.iter().chain(&parity).cloned().map(Some).collect();
        push(
            &format!("rs_reconstruct_c{checks}"),
            bytes,
            ns_per_call(effort, || {
                for lost in shards.iter_mut().take(checks) {
                    *lost = None;
                }
                rs.reconstruct(&mut shards).expect("reconstruct");
                black_box(&shards);
            }),
        );
    }
}

fn core_layer(effort: Effort, out: &mut Metrics) {
    let layouts: [(&str, Box<dyn Layout>); 6] = [
        ("pddl", Box::new(Pddl::new(DISKS, WIDTH).expect("layout"))),
        ("raid5", Box::new(Raid5::new(DISKS).expect("layout"))),
        (
            "parity_decl",
            Box::new(ParityDeclustering::new(DISKS, WIDTH).expect("layout")),
        ),
        ("datum", Box::new(Datum::new(DISKS, WIDTH).expect("layout"))),
        (
            "prime",
            Box::new(PrimeLayout::new(DISKS, WIDTH).expect("layout")),
        ),
        (
            "pseudo_random",
            Box::new(PseudoRandom::new(DISKS, WIDTH, 1).expect("layout")),
        ),
    ];
    for (name, layout) in &layouts {
        let mut units = Stride::new(layout.data_units_per_period() * 64);
        let ns = ns_per_call(effort, || {
            black_box(layout.locate_phys(black_box(units.next())));
        });
        out.push((format!("core.map_ns.{name}"), ns));
    }
    let pddl = &*layouts[0].1;
    let mut stripes = Stride::new(pddl.stripes_per_period() * 64);
    out.push((
        "core.stripe_units_ns.pddl".into(),
        ns_per_call(effort, || {
            black_box(pddl.stripe_units(black_box(stripes.next())));
        }),
    ));
    let mut units = Stride::new(pddl.data_units_per_period() * 64);
    out.push((
        "core.plan_small_write_ns".into(),
        ns_per_call(effort, || {
            let plan = plan_access(pddl, Mode::FaultFree, pddl_core::Op::Write, units.next(), 1);
            black_box(plan);
        }),
    ));
    out.push((
        "core.plan_degraded_read_ns".into(),
        ns_per_call(effort, || {
            let mode = Mode::Degraded { failed: 0 };
            let plan = plan_access(pddl, mode, pddl_core::Op::Read, units.next(), LARGE);
            black_box(plan);
        }),
    ));
}

/// Device reads and writes `f` caused, per call, over `calls` calls.
fn ios_per_call(array: &DeclusteredArray, calls: u64, mut f: impl FnMut()) -> (f64, f64) {
    let (r0, w0) = array.io_counts();
    for _ in 0..calls {
        f();
    }
    let (r1, w1) = array.io_counts();
    (
        (r1 - r0) as f64 / calls as f64,
        (w1 - w0) as f64 / calls as f64,
    )
}

fn array_layer(effort: Effort, array: &DeclusteredArray, out: &mut Metrics) {
    let capacity = array.capacity_units();
    let unit = vec![0x77u8; UNIT_BYTES];
    let large = vec![0x66u8; LARGE as usize * UNIT_BYTES];
    let mut buf = vec![0u8; LARGE as usize * UNIT_BYTES];
    let mut units = Stride::new(capacity);
    let mut larges = Stride::new(capacity - LARGE);
    let mut push = |name: &str, v: f64| out.push((format!("array.{name}"), v));

    let timed_reads = |effort, buf: &mut [u8], units: &mut Stride, larges: &mut Stride| {
        let one = ns_per_call(effort, || {
            array
                .read_into(units.next(), &mut buf[..UNIT_BYTES])
                .expect("read");
        });
        let big = ns_per_call(effort, || {
            array.read_into(larges.next(), buf).expect("read")
        });
        (one, big)
    };
    let (one, big) = timed_reads(effort, &mut buf, &mut units, &mut larges);
    push("read_unit_ns", one);
    push("read_240k_ns", big);
    push(
        "small_write_ns",
        ns_per_call(effort, || array.write(units.next(), &unit).expect("write")),
    );
    let (r, w) = ios_per_call(array, 256, || {
        array.write(units.next(), &unit).expect("write");
    });
    push("dev_reads_per_small_write", r);
    push("dev_writes_per_small_write", w);
    let batch_ns = ns_per_call(effort, || {
        let starts: [u64; 16] = std::array::from_fn(|_| units.next());
        let ops: Vec<(u64, &[u8])> = starts.iter().map(|&s| (s, unit.as_slice())).collect();
        for r in array.write_batch(&ops) {
            r.expect("batched write");
        }
    });
    push("write_batch16_ns_per_op", batch_ns / 16.0);
    let data_per_stripe = array.layout().data_per_stripe() as u64;
    let stripe_bytes = data_per_stripe as usize * UNIT_BYTES;
    push(
        "full_stripe_write_ns",
        ns_per_call(effort, || {
            let start = units.next() / data_per_stripe * data_per_stripe;
            array.write(start, &large[..stripe_bytes]).expect("write");
        }),
    );
    push(
        "write_240k_ns",
        ns_per_call(effort, || {
            array.write(larges.next(), &large).expect("write")
        }),
    );

    // Degraded: disk 0 is lost; `lost` are the data units that lived on it.
    array.fail_disk(0).expect("fail disk 0");
    let lost: Vec<u64> = (0..capacity)
        .filter(|&u| array.layout().locate_phys(u).disk == 0)
        .collect();
    let mut at = 0usize;
    let mut next_lost = || {
        at = (at + 1) % lost.len();
        lost[at]
    };
    push(
        "read_unit_lost_ns",
        ns_per_call(effort, || {
            array
                .read_into(next_lost(), &mut buf[..UNIT_BYTES])
                .expect("degraded read");
        }),
    );
    let (r, _) = ios_per_call(array, 256, || {
        array
            .read_into(next_lost(), &mut buf[..UNIT_BYTES])
            .expect("degraded read");
    });
    push("dev_reads_per_lost_unit", r);
    let (_, big) = timed_reads(effort, &mut buf, &mut units, &mut larges);
    push("read_240k_degraded_ns", big);
    push(
        "small_write_degraded_ns",
        ns_per_call(effort, || array.write(units.next(), &unit).expect("write")),
    );

    // Unloaded rebuild of every disk in turn (disk 0 is already failed):
    // the paper's claim is that the work is the same whichever fails.
    let mut per_unit = Vec::new();
    let mut ios = Vec::new();
    for disk in 0..DISKS {
        if disk != 0 {
            array.fail_disk(disk).expect("fail disk");
        }
        let (r0, w0) = array.io_counts();
        let began = Instant::now();
        let repaired = array.rebuild_to_spare(disk).expect("rebuild");
        let took = began.elapsed();
        let (r1, w1) = array.io_counts();
        per_unit.push(took.as_nanos() as f64 / repaired as f64);
        ios.push((r1 - r0 + w1 - w0) as f64 / repaired as f64);
        array.replace_and_rebuild(disk).expect("replace");
    }
    let mean = per_unit.iter().sum::<f64>() / per_unit.len() as f64;
    let var = per_unit.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / per_unit.len() as f64;
    push("rebuild_ns_per_unit", median(&per_unit).expect("disks"));
    push("rebuild_cv_across_disks", var.sqrt() / mean);
    push("dev_ios_per_rebuilt_unit", median(&ios).expect("disks"));
}

fn wire_layer(effort: Effort, out: &mut Metrics) {
    let mut push = |name: &str, v: f64| out.push((format!("wire.{name}"), v));
    let mut write_req = request(7, WireOp::Write, 1234, 1);
    write_req.payload = vec![0x42; UNIT_BYTES];
    let mut sink = Vec::with_capacity(UNIT_BYTES + 64);
    push(
        "encode_request_ns",
        ns_per_call(effort, || {
            sink.clear();
            wire::write_request(&mut sink, black_box(&write_req)).expect("encode");
        }),
    );
    let encoded = sink.clone();
    let mut reader = RequestReader::new();
    push(
        "decode_request_ns",
        ns_per_call(effort, || {
            let req = reader.poll(&mut Cursor::new(black_box(&encoded)));
            black_box(req.expect("decode").expect("one frame"));
        }),
    );
    let mut frame = Vec::new();
    push(
        "response_frame_ns",
        ns_per_call(effort, || {
            wire::response_frame_into(&mut frame, 7, Status::Ok, UNIT_BYTES).expect("frame");
            black_box(&frame);
        }),
    );
    let mut encoded = Vec::new();
    let resp = Response {
        id: 7,
        status: Status::Ok,
        payload: vec![0x24; UNIT_BYTES],
    };
    wire::write_response(&mut encoded, &resp).expect("encode");
    push(
        "decode_response_ns",
        ns_per_call(effort, || {
            let resp = wire::read_response(&mut Cursor::new(black_box(&encoded)));
            black_box(resp.expect("decode").expect("one frame"));
        }),
    );
}

/// `volume.*` and `engine.*`: the engine called directly, no sockets.
fn engine_layer(effort: Effort, engine: &Engine, array_read_unit_ns: f64, out: &mut Metrics) {
    let capacity = engine.volume_info().capacity_units;
    let mut units = Stride::new(capacity);
    let mut larges = Stride::new(capacity - LARGE);
    let resolve_ns = ns_per_call(effort, || {
        black_box(
            engine
                .volumes()
                .resolve(0, units.next(), 1)
                .expect("resolve"),
        );
    });
    out.push(("volume.resolve_ns".into(), resolve_ns));
    let queue: QosQueue<u64> = QosQueue::new(Arc::clone(engine.tenants()), 64);
    out.push((
        "volume.qos_push_pop_ns".into(),
        ns_per_call(effort, || {
            queue.push(0, UNIT_BYTES as u64, 1).expect("open queue");
            black_box(queue.pop());
        }),
    ));

    let mut frame = Vec::new();
    let mut req = request(1, WireOp::Read, 0, 1);
    let mut timed = |req: &mut pddl_server::wire::Request, offsets: &mut Stride| {
        ns_per_call(effort, || {
            req.offset = offsets.next();
            engine.execute_frame_into(0, req, &mut frame);
            debug_assert_eq!(frame[12], Status::Ok.code());
        })
    };
    let read_unit = timed(&mut req, &mut units);
    req.length = LARGE as u32;
    let read_large = timed(&mut req, &mut larges);
    req.op = WireOp::Write;
    req.payload = vec![0x11; LARGE as usize * UNIT_BYTES];
    let write_large = timed(&mut req, &mut larges);
    req.length = 1;
    req.payload.truncate(UNIT_BYTES);
    let write_unit = timed(&mut req, &mut units);
    out.push(("engine.read_unit_ns".into(), read_unit));
    out.push(("engine.write_unit_ns".into(), write_unit));
    out.push(("engine.read_240k_ns".into(), read_large));
    out.push(("engine.write_240k_ns".into(), write_large));
    out.push((
        "engine.read_unit_self_ns".into(),
        read_unit - array_read_unit_ns - resolve_ns,
    ));
}

/// INFO round trips on an otherwise idle 1-shard server: the floor
/// under every client-observed latency in this benchmark.
fn noop_rtt_p50_us(effort: Effort, engine: Arc<Engine>) -> f64 {
    let handle = serve(engine, "127.0.0.1:0", server_config(1)).expect("serve");
    let mut conn = Conn::connect(handle.local_addr(), OP_TIMEOUT).expect("connect");
    let info = request(1, WireOp::Info, 0, 0);
    let calls = effort.rtt_calls;
    let mut p50s = Vec::new();
    for batch in 0..=BATCHES {
        let mut ns: Vec<u32> = (0..calls)
            .map(|_| {
                let began = Instant::now();
                conn.call(&info).expect("INFO");
                began.elapsed().as_nanos() as u32
            })
            .collect();
        ns.sort_unstable();
        // The first batch warms the connection and is dropped.
        if batch > 0 {
            p50s.push(f64::from(quantile_sorted(&ns, 0.5).expect("calls")) / 1e3);
        }
    }
    drop(conn);
    handle.shutdown();
    median(&p50s).expect("batches")
}

/// Every static layer metric, in declaration order.
pub fn measure(effort: Effort) -> Metrics {
    let mut out = Metrics::new();
    // The process has just moved to a CPU that may have been idle; the
    // first 60 ms measured there ran the in-cache kernels at a seventh
    // of their speed. Keep it busy for twenty batches first.
    let began = Instant::now();
    while began.elapsed() < effort.batch * 20 {
        black_box(began);
    }
    gf_layer(effort, &mut out);
    core_layer(effort, &mut out);
    let array = build_array(effort.periods);
    array_layer(effort, &array, &mut out);
    let array_read_unit_ns = out
        .iter()
        .find(|(n, _)| n == "array.read_unit_ns")
        .map_or(0.0, |(_, v)| *v);
    wire_layer(effort, &mut out);
    // The array is healthy again after the rebuild round; serve it.
    let engine = Arc::new(Engine::new(array));
    engine_layer(effort, &engine, array_read_unit_ns, &mut out);
    out.push((
        "runtime.noop_rtt_p50_us".into(),
        noop_rtt_p50_us(effort, engine),
    ));
    out
}
