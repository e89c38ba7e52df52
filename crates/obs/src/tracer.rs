//! Ring-buffer event tracer with Chrome trace-event JSON (Perfetto)
//! and compact TSV exports.
//!
//! The buffer holds the most recent `capacity` events; older events are
//! dropped (counted) rather than growing memory, so tracing can stay on
//! for arbitrarily long runs. Exports map logical accesses to async
//! spans (`ph: "b"/"e"` keyed by the access id) and physical disk ops
//! to complete slices (`ph: "X"`) on one track per disk — Perfetto then
//! shows each op nested under its disk with the parent access id in its
//! args.

use std::collections::VecDeque;
use std::fmt::Write as _;

use crate::event::{Event, Nanos};
use crate::json::escape_json;

/// One periodic per-disk sample (see `ObsSink::sample_disk`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiskSample {
    /// Sample time.
    pub t: Nanos,
    /// Disk index.
    pub disk: u32,
    /// Instantaneous queue depth (including the op in service).
    pub queue_depth: u32,
    /// Cumulative busy time.
    pub busy_ns: Nanos,
    /// Utilization over the interval since this disk's previous sample.
    pub interval_util: f64,
}

/// Bounded-memory event recorder.
#[derive(Debug, Clone)]
pub struct EventTracer {
    buf: VecDeque<(Nanos, Event)>,
    capacity: usize,
    dropped: u64,
}

impl EventTracer {
    /// A tracer keeping the most recent `capacity` events.
    pub fn new(capacity: usize) -> Self {
        Self {
            buf: VecDeque::with_capacity(capacity.min(1 << 16)),
            capacity: capacity.max(1),
            dropped: 0,
        }
    }

    /// Record an event at time `now`.
    pub fn push(&mut self, now: Nanos, event: Event) {
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back((now, event));
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Is the buffer empty?
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Events evicted so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Iterate buffered `(timestamp, event)` pairs oldest-first.
    pub fn iter(&self) -> impl Iterator<Item = &(Nanos, Event)> {
        self.buf.iter()
    }

    /// Export as Chrome trace-event JSON (the "JSON Array Format" with
    /// a `traceEvents` envelope), loadable in Perfetto / chrome://tracing.
    ///
    /// * logical accesses → async spans (`ph` `b`/`e`) keyed by access id
    ///   on the "accesses" track,
    /// * physical ops → complete slices (`ph` `X`) on one track per
    ///   disk, carrying the parent access id, seek class, and the
    ///   seek/rotation/transfer breakdown in `args`,
    /// * per-disk samples → counter events (`ph` `C`) for queue depth
    ///   and interval utilization,
    /// * everything else → instant events (`ph` `i`).
    pub fn chrome_trace_json(&self, samples: &[DiskSample]) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        let mut first = true;
        let mut push = |out: &mut String, line: String| {
            if !std::mem::take(&mut first) {
                out.push_str(",\n");
            }
            out.push_str(&line);
        };
        // Track-naming metadata: tid 0 = accesses, tid d+1 = disk d.
        let mut disks: Vec<u32> = self
            .buf
            .iter()
            .filter_map(|(_, e)| match e {
                Event::OpServiced { disk, .. }
                | Event::DiskFailed { disk }
                | Event::MediaFault { disk, .. } => Some(*disk),
                _ => None,
            })
            .chain(samples.iter().map(|s| s.disk))
            .collect();
        disks.sort_unstable();
        disks.dedup();
        push(
            &mut out,
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{\"name\":\"pddl\"}}"
                .to_string(),
        );
        push(
            &mut out,
            "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
             \"args\":{\"name\":\"accesses\"}}"
                .to_string(),
        );
        for d in &disks {
            push(
                &mut out,
                format!(
                    "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{},\
                     \"args\":{{\"name\":\"disk {d}\"}}}}",
                    d + 1
                ),
            );
        }
        let us = |ns: Nanos| ns as f64 / 1000.0;
        for &(ts, event) in &self.buf {
            let line = match event {
                Event::AccessStart {
                    access,
                    actor,
                    units,
                    write,
                } => format!(
                    "{{\"name\":\"access\",\"cat\":\"access\",\"ph\":\"b\",\"id\":{access},\
                     \"pid\":1,\"tid\":0,\"ts\":{:.3},\"args\":{{\"actor\":\"{}\",\
                     \"units\":{units},\"write\":{write}}}}}",
                    us(ts),
                    escape_json(&actor.label()),
                ),
                Event::AccessEnd { access, latency_ns } => format!(
                    "{{\"name\":\"access\",\"cat\":\"access\",\"ph\":\"e\",\"id\":{access},\
                     \"pid\":1,\"tid\":0,\"ts\":{:.3},\
                     \"args\":{{\"latency_ms\":{:.4}}}}}",
                    us(ts),
                    latency_ns as f64 / 1e6,
                ),
                Event::OpServiced {
                    req,
                    access,
                    disk,
                    write,
                    class,
                    queue_depth,
                    seek_ns,
                    rotation_ns,
                    transfer_ns,
                    service_ns,
                } => format!(
                    "{{\"name\":\"{}\",\"cat\":\"op\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
                     \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"access\":{access},\
                     \"req\":{req},\"write\":{write},\"class\":\"{}\",\
                     \"queue_depth\":{queue_depth},\"seek_us\":{:.1},\"rotation_us\":{:.1},\
                     \"transfer_us\":{:.1}}}}}",
                    if write { "write-op" } else { "read-op" },
                    disk + 1,
                    us(ts),
                    us(service_ns),
                    class.name(),
                    us(seek_ns),
                    us(rotation_ns),
                    us(transfer_ns),
                ),
                other => format!(
                    "{{\"name\":\"{}\",\"cat\":\"lifecycle\",\"ph\":\"i\",\"s\":\"g\",\
                     \"pid\":1,\"tid\":0,\"ts\":{:.3},\"args\":{{{}}}}}",
                    other.tag(),
                    us(ts),
                    instant_args(&other),
                ),
            };
            push(&mut out, line);
        }
        for s in samples {
            push(
                &mut out,
                format!(
                    "{{\"name\":\"queue depth [disk {}]\",\"ph\":\"C\",\"pid\":1,\
                     \"ts\":{:.3},\"args\":{{\"depth\":{}}}}}",
                    s.disk,
                    us(s.t),
                    s.queue_depth
                ),
            );
            push(
                &mut out,
                format!(
                    "{{\"name\":\"utilization [disk {}]\",\"ph\":\"C\",\"pid\":1,\
                     \"ts\":{:.3},\"args\":{{\"util\":{:.4}}}}}",
                    s.disk,
                    us(s.t),
                    s.interval_util
                ),
            );
        }
        out.push_str("\n]}\n");
        out
    }

    /// Export as a compact TSV dump: `ts_ns`, event tag, then `key=value`
    /// columns; per-disk samples appended as `sample` rows.
    pub fn tsv(&self, samples: &[DiskSample]) -> String {
        let mut out = String::from("# pddl trace v1\n");
        if self.dropped > 0 {
            let _ = writeln!(
                out,
                "# dropped {} oldest events (ring buffer)",
                self.dropped
            );
        }
        for &(ts, event) in &self.buf {
            let _ = write!(out, "{ts}\t{}", event.tag());
            match event {
                Event::AccessStart {
                    access,
                    actor,
                    units,
                    write,
                } => {
                    let _ = write!(
                        out,
                        "\taccess={access}\tactor={}\tunits={units}\twrite={}",
                        actor.label(),
                        u8::from(write)
                    );
                }
                Event::AccessEnd { access, latency_ns } => {
                    let _ = write!(out, "\taccess={access}\tlatency_ns={latency_ns}");
                }
                Event::OpServiced {
                    req,
                    access,
                    disk,
                    write,
                    class,
                    queue_depth,
                    seek_ns,
                    rotation_ns,
                    transfer_ns,
                    service_ns,
                } => {
                    let _ = write!(
                        out,
                        "\treq={req}\taccess={access}\tdisk={disk}\twrite={}\tclass={}\
                         \tqueue_depth={queue_depth}\tseek_ns={seek_ns}\
                         \trotation_ns={rotation_ns}\ttransfer_ns={transfer_ns}\
                         \tservice_ns={service_ns}",
                        u8::from(write),
                        class.name()
                    );
                }
                Event::RebuildProgress { repaired, total } => {
                    let _ = write!(out, "\trepaired={repaired}\ttotal={total}");
                }
                Event::RebuildHalted { repaired, total } => {
                    let _ = write!(out, "\trepaired={repaired}\ttotal={total}");
                }
                Event::JournalCommit { stripe } => {
                    let _ = write!(out, "\tstripe={stripe}");
                }
                Event::JournalBatch { stripes, ops } => {
                    let _ = write!(out, "\tstripes={stripes}\tops={ops}");
                }
                Event::JournalReplay { stripes } => {
                    let _ = write!(out, "\tstripes={stripes}");
                }
                Event::ScrubPass { stripes, repaired } => {
                    let _ = write!(out, "\tstripes={stripes}\trepaired={repaired}");
                }
                Event::DiskFailed { disk } => {
                    let _ = write!(out, "\tdisk={disk}");
                }
                Event::MediaFault { disk, write } => {
                    let _ = write!(out, "\tdisk={disk}\twrite={}", u8::from(write));
                }
                Event::RunEnd => {}
            }
            out.push('\n');
        }
        for s in samples {
            let _ = writeln!(
                out,
                "{}\tsample\tdisk={}\tqueue_depth={}\tbusy_ns={}\tinterval_util={:.4}",
                s.t, s.disk, s.queue_depth, s.busy_ns, s.interval_util
            );
        }
        out
    }
}

fn instant_args(event: &Event) -> String {
    match *event {
        Event::RebuildProgress { repaired, total } => {
            format!("\"repaired\":{repaired},\"total\":{total}")
        }
        Event::RebuildHalted { repaired, total } => {
            format!("\"repaired\":{repaired},\"total\":{total}")
        }
        Event::JournalCommit { stripe } => format!("\"stripe\":{stripe}"),
        Event::JournalBatch { stripes, ops } => format!("\"stripes\":{stripes},\"ops\":{ops}"),
        Event::JournalReplay { stripes } => format!("\"stripes\":{stripes}"),
        Event::ScrubPass { stripes, repaired } => {
            format!("\"stripes\":{stripes},\"repaired\":{repaired}")
        }
        Event::DiskFailed { disk } => format!("\"disk\":{disk}"),
        Event::MediaFault { disk, write } => format!("\"disk\":{disk},\"write\":{write}"),
        _ => String::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Actor, OpClass};
    use crate::json::validate_json;

    fn op(req: u64, access: u64, disk: u32) -> Event {
        Event::OpServiced {
            req,
            access,
            disk,
            write: false,
            class: OpClass::NonLocal,
            queue_depth: 2,
            seek_ns: 5_000_000,
            rotation_ns: 4_000_000,
            transfer_ns: 1_000_000,
            service_ns: 10_000_000,
        }
    }

    #[test]
    fn ring_buffer_drops_oldest() {
        let mut t = EventTracer::new(3);
        for i in 0..5 {
            t.push(i, Event::JournalCommit { stripe: i });
        }
        assert_eq!(t.len(), 3);
        assert_eq!(t.dropped(), 2);
        let stripes: Vec<u64> = t
            .iter()
            .map(|&(_, e)| match e {
                Event::JournalCommit { stripe } => stripe,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(stripes, vec![2, 3, 4]);
    }

    #[test]
    fn chrome_export_is_valid_json_with_balanced_spans() {
        let mut t = EventTracer::new(1024);
        for a in 0..20u64 {
            t.push(
                a * 1000,
                Event::AccessStart {
                    access: a,
                    actor: Actor::Client(0),
                    units: 1,
                    write: false,
                },
            );
            t.push(a * 1000 + 10, op(a * 2, a, (a % 5) as u32));
            t.push(
                a * 1000 + 500,
                Event::AccessEnd {
                    access: a,
                    latency_ns: 500,
                },
            );
        }
        t.push(25_000, Event::RunEnd);
        let samples = [DiskSample {
            t: 10_000,
            disk: 3,
            queue_depth: 4,
            busy_ns: 9_000,
            interval_util: 0.9,
        }];
        let json = t.chrome_trace_json(&samples);
        validate_json(&json).expect("chrome trace is well-formed JSON");
        assert_eq!(json.matches("\"ph\":\"b\"").count(), 20);
        assert_eq!(json.matches("\"ph\":\"e\"").count(), 20);
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 20);
        assert_eq!(json.matches("\"ph\":\"C\"").count(), 2);
        assert!(json.contains("\"name\":\"disk 3\""));
    }

    #[test]
    fn tsv_export_covers_every_event_kind() {
        let mut t = EventTracer::new(64);
        t.push(
            1,
            Event::AccessStart {
                access: 7,
                actor: Actor::Rebuild,
                units: 4,
                write: true,
            },
        );
        t.push(2, op(1, 7, 0));
        t.push(
            3,
            Event::AccessEnd {
                access: 7,
                latency_ns: 2,
            },
        );
        t.push(
            4,
            Event::RebuildProgress {
                repaired: 1,
                total: 10,
            },
        );
        t.push(
            5,
            Event::RebuildHalted {
                repaired: 4,
                total: 10,
            },
        );
        t.push(5, Event::JournalCommit { stripe: 3 });
        t.push(6, Event::JournalReplay { stripes: 2 });
        t.push(
            7,
            Event::ScrubPass {
                stripes: 100,
                repaired: 1,
            },
        );
        t.push(8, Event::DiskFailed { disk: 2 });
        t.push(9, Event::RunEnd);
        let tsv = t.tsv(&[DiskSample {
            t: 9,
            disk: 0,
            queue_depth: 0,
            busy_ns: 5,
            interval_util: 0.5,
        }]);
        for tag in [
            "access_start",
            "op_serviced",
            "access_end",
            "rebuild_progress",
            "rebuild_halted",
            "journal_commit",
            "journal_replay",
            "scrub_pass",
            "disk_failed",
            "run_end",
            "sample",
        ] {
            assert!(tsv.contains(tag), "missing {tag} in:\n{tsv}");
        }
        // Each data row is tab-separated with ts first.
        for line in tsv.lines().filter(|l| !l.starts_with('#')) {
            let mut cols = line.split('\t');
            cols.next().unwrap().parse::<u64>().expect("ts column");
            assert!(cols.next().is_some(), "tag column");
        }
    }
}
