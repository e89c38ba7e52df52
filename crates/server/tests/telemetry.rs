//! Loopback round-trip of the whole telemetry plane: serve a volume,
//! drive real client traffic, then observe it three ways — the STATS
//! wire op, a raw-TCP Prometheus scrape of `/metrics`, and the
//! TRACE_DUMP flight recorder.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

use pddl_array::DeclusteredArray;
use pddl_core::Pddl;
use pddl_obs::{spans_chrome_json, OpKind};
use pddl_server::engine::Engine;
use pddl_server::metrics_http::serve_metrics;
use pddl_server::server::{serve, ServerConfig};
use pddl_server::{Client, VolumeSpec};

#[test]
fn stats_metrics_and_trace_round_trip_over_loopback() {
    let layout = Pddl::new(7, 3).unwrap();
    let array = DeclusteredArray::new(Box::new(layout), 16, 4).unwrap();
    let engine = Arc::new(Engine::new(array));
    let handle = serve(Arc::clone(&engine), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let metrics = serve_metrics(Arc::clone(&engine), "127.0.0.1:0").unwrap();

    // Drive real traffic: writes, reads, a trim, a flush, an info.
    let mut c = Client::connect(handle.local_addr()).unwrap();
    let unit = c.info().unwrap().unit_bytes as usize;
    for i in 0..8u64 {
        c.write_units(i, &vec![i as u8; unit]).unwrap();
    }
    for i in 0..8u64 {
        assert_eq!(c.read_units(i, 1).unwrap(), vec![i as u8; unit]);
    }
    c.trim(0, 2).unwrap();
    c.flush().unwrap();

    // STATS over the wire: per-op counts match the traffic just issued.
    let snap = c.stats().unwrap();
    assert_eq!(snap.counter("op.write.count"), Some(8));
    assert_eq!(snap.counter("op.read.count"), Some(8));
    assert_eq!(snap.counter("op.trim.count"), Some(1));
    assert_eq!(snap.counter("op.flush.count"), Some(1));
    assert_eq!(snap.counter("op.read.errors"), Some(0));
    assert_eq!(snap.counter("bytes.read"), Some(8 * unit as u64));
    assert_eq!(snap.counter("bytes.written"), Some(8 * unit as u64));
    assert!(snap.counter("array.unit_reads").unwrap() > 0);
    assert_eq!(snap.gauge("queue.depth"), Some(0.0));
    let read_hist = snap.hist("latency.read_ns").unwrap();
    assert_eq!(read_hist.count(), 8);
    assert!(read_hist.max() > 0);
    assert!(snap.hist("latency.queue_wait_ns").unwrap().count() > 0);

    // Sorted and versioned: this is the exposition contract.
    let names: Vec<_> = snap.counters.iter().map(|(n, _)| n.clone()).collect();
    let mut sorted = names.clone();
    sorted.sort();
    assert_eq!(names, sorted);

    // Prometheus scrape over raw TCP, as a real scraper would.
    let mut s = TcpStream::connect(metrics.local_addr()).unwrap();
    s.write_all(b"GET /metrics HTTP/1.0\r\nHost: t\r\n\r\n")
        .unwrap();
    let mut body = String::new();
    s.read_to_string(&mut body).unwrap();
    assert!(body.starts_with("HTTP/1.0 200 OK\r\n"), "{body}");
    assert!(body.contains("pddl_op_write_count 8"), "{body}");
    assert!(body.contains("pddl_op_read_count 8"), "{body}");
    assert!(body.contains("pddl_latency_read_ns_count 8"), "{body}");
    assert!(
        body.contains("pddl_latency_read_ns_bucket{le=\"+Inf\"} 8"),
        "{body}"
    );
    assert!(body.contains("pddl_queue_depth"), "{body}");

    // Flight recorder: spans for the traffic, exportable as a valid
    // chrome trace.
    let spans = c.trace_dump().unwrap();
    assert!(spans.len() >= 18, "expected ≥18 spans, got {}", spans.len());
    assert!(spans.iter().any(|sp| sp.op == OpKind::Read));
    assert!(spans.iter().any(|sp| sp.op == OpKind::Write));
    assert!(spans.iter().any(|sp| sp.op == OpKind::Trim));
    let ordered: Vec<u64> = spans.iter().map(|sp| sp.start_ns).collect();
    let mut sorted_ns = ordered.clone();
    sorted_ns.sort_unstable();
    assert_eq!(ordered, sorted_ns, "spans must come back oldest first");
    let json = spans_chrome_json(&spans);
    pddl_obs::json::validate_json(&json).expect("chrome trace must be valid JSON");

    // STATS issued over the wire counts itself on the next scrape.
    let again = c.stats().unwrap();
    assert!(again.counter("op.stats.count").unwrap() >= 1);
    assert!(again.counter("op.trace_dump.count") == Some(1));

    metrics.shutdown();
    handle.shutdown();
}

/// Per-volume traffic surfaces as labeled Prometheus series: one
/// `# TYPE` header per family, one `{tenant,volume}` row per volume,
/// and the labels pass through name mangling untouched.
#[test]
fn per_volume_series_appear_labeled_in_metrics() {
    let layout = Pddl::new(7, 3).unwrap();
    let array = DeclusteredArray::new(Box::new(layout), 16, 4).unwrap();
    let engine = Arc::new(Engine::new(array));
    let handle = serve(Arc::clone(&engine), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let metrics = serve_metrics(Arc::clone(&engine), "127.0.0.1:0").unwrap();

    let mut c = Client::connect(handle.local_addr()).unwrap();
    let unit = c.info().unwrap().unit_bytes as usize;
    let cap = c.info().unwrap().capacity_units;
    c.volume_resize(0, cap - 8).unwrap();
    let mut spec = VolumeSpec::new("tenant-nine", 8);
    spec.tenant = 9;
    let vol = c.volume_create(&spec).unwrap();

    // Traffic on both volumes, distinguishable counts.
    c.write_units(0, &vec![1; unit]).unwrap();
    c.set_volume(vol);
    c.write_units(0, &vec![2; unit]).unwrap();
    c.read_units(0, 1).unwrap();
    c.read_units(0, 1).unwrap();

    // STATS sees the labeled rows.
    let snap = c.stats().unwrap();
    assert_eq!(
        snap.counter(&format!("volume.reads{{tenant=\"9\",volume=\"{vol}\"}}")),
        Some(2)
    );
    assert_eq!(
        snap.counter(&format!("volume.writes{{tenant=\"9\",volume=\"{vol}\"}}")),
        Some(1)
    );
    assert_eq!(
        snap.counter("volume.writes{tenant=\"0\",volume=\"0\"}"),
        Some(1)
    );

    // The Prometheus exposition carries the labels verbatim and emits
    // exactly one TYPE header for the shared family.
    let mut s = TcpStream::connect(metrics.local_addr()).unwrap();
    s.write_all(b"GET /metrics HTTP/1.0\r\nHost: t\r\n\r\n")
        .unwrap();
    let mut body = String::new();
    s.read_to_string(&mut body).unwrap();
    assert!(
        body.contains(&format!(
            "pddl_volume_reads{{tenant=\"9\",volume=\"{vol}\"}} 2"
        )),
        "{body}"
    );
    assert!(
        body.contains("pddl_volume_writes{tenant=\"0\",volume=\"0\"} 1"),
        "{body}"
    );
    assert_eq!(
        body.matches("# TYPE pddl_volume_writes counter").count(),
        1,
        "{body}"
    );
    assert!(body.contains("pddl_volumes_count 2"), "{body}");
    assert!(body.contains("pddl_qos_throttled"), "{body}");

    metrics.shutdown();
    handle.shutdown();
}

/// Every shard exports its own runtime series: a 2-shard server's
/// `STATS` carries the inbox-depth and queue-depth gauges and the
/// wakeup counter of shard 0 and of shard 1, and nothing for a shard
/// it does not run.
#[test]
fn per_shard_series_appear_for_every_shard() {
    let layout = Pddl::new(7, 3).unwrap();
    let array = DeclusteredArray::new(Box::new(layout), 16, 4).unwrap();
    let config = ServerConfig {
        shards: 2,
        ..ServerConfig::default()
    };
    let handle = serve(Arc::new(Engine::new(array)), "127.0.0.1:0", config).unwrap();

    let mut c = Client::connect(handle.local_addr()).unwrap();
    let snap = c.stats().unwrap();
    for shard in 0..2 {
        let label = format!("{{shard=\"{shard}\"}}");
        let inbox = snap.gauge(&format!("shard.inbox_depth{label}"));
        assert!(inbox.is_some(), "shard {shard}: no inbox depth");
        assert_eq!(
            snap.gauge(&format!("shard.queue_depth{label}")),
            Some(0.0),
            "shard {shard}: nothing is QoS-parked"
        );
        let wakeups = snap.counter(&format!("shard.wakeups{label}"));
        assert!(wakeups.is_some(), "shard {shard}: no wakeup counter");
    }
    assert_eq!(snap.gauge("shard.inbox_depth{shard=\"2\"}"), None);

    handle.shutdown();
}
