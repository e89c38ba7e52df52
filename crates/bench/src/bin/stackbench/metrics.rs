//! The names, units and regression bounds of everything the benchmark
//! reports. `BENCHMARK.json` repeats this table for the driver; a test
//! keeps the two identical.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the base median by which the metric may get worse
    /// before a change counts as a regression; end-to-end metrics only.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// What a user of the served volume sees. Every workload reports all of
/// them from its untraced run.
pub const END_TO_END: [Metric; 8] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("peak_rss_mib", "MiB", Lower, 0.10),
    e2e("ops_per_s", "1/s", Higher, 0.20),
    e2e("read_p50_us", "us", Lower, 0.20),
    e2e("read_p99_us", "us", Lower, 0.25),
    e2e("write_p50_us", "us", Lower, 0.20),
    e2e("write_p99_us", "us", Lower, 0.25),
    e2e("rebuild_mib_s", "MiB/s", Higher, 0.25),
];

/// Static layer calls, the same on every workload's traced run.
pub const STATIC_LAYER: [Metric; 45] = [
    layer("gf.memcpy_gib_s", "GiB/s", Higher),
    layer("gf.xor_into_gib_s", "GiB/s", Higher),
    layer("gf.mul_acc_gib_s", "GiB/s", Higher),
    layer("gf.memcpy_dram_gib_s", "GiB/s", Higher),
    layer("gf.xor_into_dram_gib_s", "GiB/s", Higher),
    layer("gf.rs_encode_c1_gib_s", "GiB/s", Higher),
    layer("gf.rs_reconstruct_c1_gib_s", "GiB/s", Higher),
    layer("gf.rs_encode_c2_gib_s", "GiB/s", Higher),
    layer("gf.rs_reconstruct_c2_gib_s", "GiB/s", Higher),
    layer("core.map_ns.pddl", "ns", Lower),
    layer("core.map_ns.raid5", "ns", Lower),
    layer("core.map_ns.parity_decl", "ns", Lower),
    layer("core.map_ns.datum", "ns", Lower),
    layer("core.map_ns.prime", "ns", Lower),
    layer("core.map_ns.pseudo_random", "ns", Lower),
    layer("core.stripe_units_ns.pddl", "ns", Lower),
    layer("core.plan_small_write_ns", "ns", Lower),
    layer("core.plan_degraded_read_ns", "ns", Lower),
    layer("array.read_unit_ns", "ns", Lower),
    layer("array.read_240k_ns", "ns", Lower),
    layer("array.small_write_ns", "ns", Lower),
    layer("array.dev_reads_per_small_write", "count", Lower),
    layer("array.dev_writes_per_small_write", "count", Lower),
    layer("array.write_batch16_ns_per_op", "ns", Lower),
    layer("array.full_stripe_write_ns", "ns", Lower),
    layer("array.write_240k_ns", "ns", Lower),
    layer("array.read_unit_lost_ns", "ns", Lower),
    layer("array.dev_reads_per_lost_unit", "count", Lower),
    layer("array.read_240k_degraded_ns", "ns", Lower),
    layer("array.small_write_degraded_ns", "ns", Lower),
    layer("array.rebuild_ns_per_unit", "ns", Lower),
    layer("array.rebuild_cv_across_disks", "ratio", Lower),
    layer("array.dev_ios_per_rebuilt_unit", "count", Lower),
    layer("wire.encode_request_ns", "ns", Lower),
    layer("wire.decode_request_ns", "ns", Lower),
    layer("wire.response_frame_ns", "ns", Lower),
    layer("wire.decode_response_ns", "ns", Lower),
    layer("volume.resolve_ns", "ns", Lower),
    layer("volume.qos_push_pop_ns", "ns", Lower),
    layer("engine.read_unit_ns", "ns", Lower),
    layer("engine.write_unit_ns", "ns", Lower),
    layer("engine.read_240k_ns", "ns", Lower),
    layer("engine.write_240k_ns", "ns", Lower),
    layer("engine.read_unit_self_ns", "ns", Lower),
    layer("runtime.noop_rtt_p50_us", "us", Lower),
];

/// Measured on the workload the traced run was asked for.
pub const WORKLOAD_LAYER: [Metric; 15] = [
    layer("server_read_p50_us", "us", Lower),
    layer("server_write_p50_us", "us", Lower),
    layer("server_queue_wait_p99_us", "us", Lower),
    layer("server_array_p50_us", "us", Lower),
    layer("transport_p50_us", "us", Lower),
    layer("shard_wakeups_per_op", "count", Lower),
    layer("shard_cpu_us_per_op", "us", Lower),
    layer("rebuild_cpu_frac", "ratio", Lower),
    layer("loadgen_cpu_us_per_op", "us", Lower),
    layer("dev_reads_per_op", "count", Lower),
    layer("dev_writes_per_write", "count", Lower),
    layer("degraded_reads_per_op", "count", Lower),
    layer("array_replay_ns_per_op", "ns", Lower),
    layer("engine_replay_ns_per_op", "ns", Lower),
    layer("trace_overhead_frac", "ratio", Lower),
];

pub fn per_layer() -> impl Iterator<Item = &'static Metric> {
    STATIC_LAYER.iter().chain(&WORKLOAD_LAYER)
}

pub fn end_to_end(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().find(|m| m.name == name)
}
