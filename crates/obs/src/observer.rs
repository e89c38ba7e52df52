//! The batteries-included [`ObsSink`]: feeds a [`MetricsRegistry`], an
//! [`EventTracer`], and a bounded per-disk sample series all at once.
//!
//! Drivers construct an `Rc<RefCell<Observer>>`, hand a clone to the
//! simulator (coerced to `Rc<RefCell<dyn ObsSink>>`), run, and then ask
//! the observer for `metrics_tsv()` / `chrome_trace_json()`.

use crate::event::{Event, Nanos};
use crate::registry::MetricsRegistry;
use crate::sink::ObsSink;
use crate::tracer::{DiskSample, EventTracer};

/// Observer knobs.
#[derive(Debug, Clone, Copy)]
pub struct ObsConfig {
    /// Event ring-buffer capacity.
    pub ring_capacity: usize,
    /// Per-disk sampling interval; `None` disables sampling.
    pub sample_interval_ns: Option<Nanos>,
    /// Cap on stored samples (oldest kept; excess counted, not stored).
    pub max_samples: usize,
}

impl Default for ObsConfig {
    fn default() -> Self {
        Self {
            ring_capacity: 1 << 16,
            sample_interval_ns: None,
            max_samples: 200_000,
        }
    }
}

#[derive(Debug, Default, Clone, Copy)]
struct DiskAgg {
    ops: u64,
    busy_ns: Nanos,
    last_sample_t: Nanos,
    last_sample_busy: Nanos,
}

/// Aggregating sink: metrics + trace + time series in one place.
#[derive(Debug)]
pub struct Observer {
    cfg: ObsConfig,
    registry: MetricsRegistry,
    tracer: EventTracer,
    samples: Vec<DiskSample>,
    samples_dropped: u64,
    per_disk: Vec<DiskAgg>,
    end_ns: Nanos,
}

impl Observer {
    /// A fresh observer with the given knobs.
    pub fn new(cfg: ObsConfig) -> Self {
        Self {
            cfg,
            registry: MetricsRegistry::new(),
            tracer: EventTracer::new(cfg.ring_capacity),
            samples: Vec::new(),
            samples_dropped: 0,
            per_disk: Vec::new(),
            end_ns: 0,
        }
    }

    /// Attach a run annotation (layout, mode, clients, …) that rides
    /// into the metrics TSV for `pddl report`.
    pub fn set_info(&mut self, key: &str, value: &str) {
        self.registry.set_info(key, value);
    }

    /// The metrics registry (for custom counters from drivers).
    pub fn registry_mut(&mut self) -> &mut MetricsRegistry {
        &mut self.registry
    }

    /// Read access to the registry.
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Read access to the event ring buffer.
    pub fn tracer(&self) -> &EventTracer {
        &self.tracer
    }

    /// Collected per-disk samples.
    pub fn samples(&self) -> &[DiskSample] {
        &self.samples
    }

    /// Metrics TSV (see `MetricsRegistry::to_tsv`), with per-disk
    /// utilization/op gauges finalized from the event stream.
    pub fn metrics_tsv(&self) -> String {
        self.registry.to_tsv()
    }

    /// Chrome trace-event JSON including sampled counter tracks.
    pub fn chrome_trace_json(&self) -> String {
        self.tracer.chrome_trace_json(&self.samples)
    }

    /// Compact TSV trace dump including sample rows.
    pub fn trace_tsv(&self) -> String {
        self.tracer.tsv(&self.samples)
    }

    /// Finalize per-disk gauges against the clock value `now` (called
    /// automatically on [`Event::RunEnd`]).
    pub fn finish(&mut self, now: Nanos) {
        self.end_ns = now.max(1);
        for (d, agg) in self.per_disk.iter().enumerate() {
            self.registry.set_gauge(
                &format!("disk.util.{d}"),
                agg.busy_ns as f64 / self.end_ns as f64,
            );
            self.registry
                .set_gauge(&format!("disk.ops.{d}"), agg.ops as f64);
        }
        if self.tracer.dropped() > 0 {
            self.registry
                .set_gauge("trace.dropped_events", self.tracer.dropped() as f64);
        }
        if self.samples_dropped > 0 {
            self.registry
                .set_gauge("trace.dropped_samples", self.samples_dropped as f64);
        }
    }

    fn disk_agg(&mut self, disk: u32) -> &mut DiskAgg {
        let i = disk as usize;
        if self.per_disk.len() <= i {
            self.per_disk.resize(i + 1, DiskAgg::default());
        }
        &mut self.per_disk[i]
    }
}

impl ObsSink for Observer {
    fn event(&mut self, now: Nanos, event: Event) {
        self.tracer.push(now, event);
        match event {
            Event::AccessStart { .. } => {
                self.registry.add("access.started", 1);
            }
            Event::AccessEnd { latency_ns, .. } => {
                self.registry.add("access.completed", 1);
                self.registry.record("latency.access_ns", latency_ns);
            }
            Event::OpServiced {
                disk,
                write,
                class,
                queue_depth,
                seek_ns,
                service_ns,
                ..
            } => {
                self.registry.add("op.count", 1);
                self.registry
                    .add(if write { "op.writes" } else { "op.reads" }, 1);
                self.registry.add(&format!("op.class.{}", class.name()), 1);
                self.registry.record("op.service_ns", service_ns);
                self.registry.record("op.seek_ns", seek_ns);
                self.registry.record("op.queue_depth", queue_depth as u64);
                let agg = self.disk_agg(disk);
                agg.ops += 1;
                agg.busy_ns += service_ns;
            }
            Event::RebuildProgress { repaired, total } => {
                self.registry
                    .set_gauge("rebuild.repaired_units", repaired as f64);
                if total > 0 {
                    self.registry
                        .set_gauge("rebuild.progress", repaired as f64 / total as f64);
                }
            }
            Event::RebuildHalted { repaired, total } => {
                self.registry.add("rebuild.halts", 1);
                self.registry
                    .set_gauge("rebuild.repaired_units", repaired as f64);
                if total > 0 {
                    self.registry
                        .set_gauge("rebuild.progress", repaired as f64 / total as f64);
                }
            }
            Event::JournalCommit { .. } => {
                self.registry.add("journal.commits", 1);
            }
            Event::JournalBatch { stripes, ops } => {
                self.registry.add("journal.group_commits", 1);
                self.registry.record("journal.batch_size", stripes);
                self.registry.record("journal.batch_ops", ops);
            }
            Event::JournalReplay { stripes } => {
                self.registry.add("journal.replayed_stripes", stripes);
            }
            Event::ScrubPass { stripes, repaired } => {
                self.registry.add("scrub.passes", 1);
                self.registry.add("scrub.stripes", stripes);
                self.registry.add("scrub.repaired", repaired);
            }
            Event::DiskFailed { .. } => {
                self.registry.add("disk.failures", 1);
            }
            Event::MediaFault { write, .. } => {
                self.registry.add(
                    if write {
                        "faults.media_write"
                    } else {
                        "faults.media_read"
                    },
                    1,
                );
            }
            Event::RunEnd => {
                self.finish(now);
            }
        }
    }

    fn sample_interval_ns(&self) -> Option<Nanos> {
        self.cfg.sample_interval_ns
    }

    fn sample_disk(&mut self, now: Nanos, disk: u32, queue_depth: u32, busy_ns: Nanos) {
        let agg = self.disk_agg(disk);
        let dt = now.saturating_sub(agg.last_sample_t);
        let dbusy = busy_ns.saturating_sub(agg.last_sample_busy);
        let interval_util = if dt > 0 {
            dbusy as f64 / dt as f64
        } else {
            0.0
        };
        agg.last_sample_t = now;
        agg.last_sample_busy = busy_ns;
        if self.samples.len() < self.cfg.max_samples {
            self.samples.push(DiskSample {
                t: now,
                disk,
                queue_depth,
                busy_ns,
                interval_util,
            });
        } else {
            self.samples_dropped += 1;
        }
        self.registry
            .record(&format!("sampled.queue_depth.{disk}"), queue_depth as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Actor, OpClass};

    fn serviced(disk: u32, service_ns: u64) -> Event {
        Event::OpServiced {
            req: 1,
            access: 1,
            disk,
            write: false,
            class: OpClass::CylinderSwitch,
            queue_depth: 1,
            seek_ns: service_ns / 2,
            rotation_ns: service_ns / 4,
            transfer_ns: service_ns / 4,
            service_ns,
        }
    }

    #[test]
    fn aggregates_latency_and_utilization() {
        let mut o = Observer::new(ObsConfig::default());
        o.event(
            0,
            Event::AccessStart {
                access: 1,
                actor: Actor::Client(0),
                units: 1,
                write: false,
            },
        );
        o.event(100, serviced(0, 6_000_000));
        o.event(200, serviced(1, 2_000_000));
        o.event(
            10_000_000,
            Event::AccessEnd {
                access: 1,
                latency_ns: 10_000_000,
            },
        );
        o.event(20_000_000, Event::RunEnd);
        let r = o.registry();
        assert_eq!(r.counter("access.started"), Some(1));
        assert_eq!(r.counter("access.completed"), Some(1));
        assert_eq!(r.counter("op.count"), Some(2));
        assert_eq!(r.counter("op.class.cylinder_switch"), Some(2));
        assert!((r.gauge("disk.util.0").unwrap() - 0.3).abs() < 1e-9);
        assert!((r.gauge("disk.util.1").unwrap() - 0.1).abs() < 1e-9);
        let h = r.histogram("latency.access_ns").unwrap();
        assert_eq!(h.count(), 1);
        assert_eq!(h.quantile(0.5), 10_000_000);
    }

    #[test]
    fn interval_utilization_uses_busy_deltas() {
        let mut o = Observer::new(ObsConfig {
            sample_interval_ns: Some(1_000_000),
            ..Default::default()
        });
        assert_eq!(o.sample_interval_ns(), Some(1_000_000));
        o.sample_disk(1_000_000, 0, 2, 400_000);
        o.sample_disk(2_000_000, 0, 3, 1_400_000);
        let s = o.samples();
        assert_eq!(s.len(), 2);
        assert!((s[0].interval_util - 0.4).abs() < 1e-9);
        assert!((s[1].interval_util - 1.0).abs() < 1e-9);
    }

    #[test]
    fn sample_cap_counts_overflow() {
        let mut o = Observer::new(ObsConfig {
            max_samples: 2,
            sample_interval_ns: Some(1),
            ..Default::default()
        });
        for t in 0..5u64 {
            o.sample_disk(t, 0, 0, 0);
        }
        o.event(10, Event::RunEnd);
        assert_eq!(o.samples().len(), 2);
        assert_eq!(o.registry().gauge("trace.dropped_samples"), Some(3.0));
    }
}
