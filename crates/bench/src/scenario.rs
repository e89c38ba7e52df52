//! The scenario engine: a seeded plain-text DSL describing a complete
//! workload — access distribution, arrival process, client
//! pathologies, network shape, fault injection — plus a runner that
//! spins up an in-process server, drives shaped clients from the
//! spec's deterministic op schedule, and hands back per-client latency
//! samples and the schedule's replayable [`OpTrace`].
//!
//! A spec is `key = value` lines with `#` comments:
//!
//! ```text
//! name = zipf_burst
//! seed = 7
//! clients = 4
//! ops_per_client = 200
//! access = zipfian
//! zipf_theta = 0.99
//! arrival = bursty
//! rate_ops_per_sec = 2000
//! burst_factor = 8
//! burst_on_ms = 20
//! burst_period_ms = 100
//! ```
//!
//! Parsing never panics: hostile input (unknown keys, overflowing
//! counts, zero-size windows, duplicate keys) comes back as a typed
//! [`SpecError`]. `parse(render(spec)) == spec` holds for every field.
//!
//! Determinism: [`build_schedule`] is a pure function of
//! `(spec, capacity)`, so the same spec and seed produce the same
//! [`OpTrace`] digest on every run — recording a scenario twice must
//! yield identical traces, and a saved trace replays byte-identically
//! through [`run_trace`].

use std::fmt;
use std::num::IntErrorKind;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use pddl_array::DeclusteredArray;
use pddl_core::rng::Xoshiro256pp;
use pddl_core::Pddl;
use pddl_server::client::Client;
use pddl_server::server::{serve, ServerConfig};
use pddl_server::shaping::NetShape;
use pddl_server::trace::{tag_bytes, OpTrace, TraceOp};
use pddl_server::wire::RebuildStatus;
use pddl_server::workload::{AccessDist, AccessSampler, Arrival, ArrivalGen};
use pddl_server::Engine;

/// A fully-specified workload scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Report/scenario name.
    pub name: String,
    /// Master seed; every random stream below derives from it.
    pub seed: u64,
    /// Array disk count.
    pub disks: usize,
    /// Stripe width.
    pub width: usize,
    /// Stripe-unit size in bytes.
    pub unit_bytes: usize,
    /// Layout periods mapped.
    pub periods: u64,
    /// Concurrent client connections.
    pub clients: u32,
    /// Ops each client issues.
    pub ops_per_client: u64,
    /// Fraction of ops that are reads, in `[0, 1]`.
    pub read_fraction: f64,
    /// Maximum stripe units per op (uniform in `1..=max`).
    pub max_units: u32,
    /// How offsets are drawn.
    pub access: AccessDist,
    /// How op start times are spaced.
    pub arrival: Arrival,
    /// The first `slow_clients` connections get the slow-client shape.
    pub slow_clients: u32,
    /// Slow clients stall before every Nth request (0 = never).
    pub slow_stall_every: u64,
    /// Slow-client stall length.
    pub slow_stall_ms: u64,
    /// Slow-client bandwidth cap in bytes/s (0 = uncapped) — a tiny
    /// cap models a stalled reader that stops draining responses.
    pub slow_bandwidth: u64,
    /// Bandwidth cap applied to every client, bytes/s (0 = uncapped).
    pub bandwidth: u64,
    /// Added per-request latency for every client.
    pub latency_us: u64,
    /// Fail this disk ~30 ms in and rebuild it under load.
    pub fail_disk: Option<u32>,
}

impl Default for ScenarioSpec {
    fn default() -> Self {
        Self {
            name: "scenario".into(),
            seed: 42,
            disks: 7,
            width: 3,
            unit_bytes: 512,
            periods: 2,
            clients: 4,
            ops_per_client: 64,
            read_fraction: 0.7,
            max_units: 1,
            access: AccessDist::Uniform,
            arrival: Arrival::ClosedLoop,
            slow_clients: 0,
            slow_stall_every: 0,
            slow_stall_ms: 0,
            slow_bandwidth: 0,
            bandwidth: 0,
            latency_us: 0,
            fail_disk: None,
        }
    }
}

/// Why a spec failed to parse — typed, line-addressed, never a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// A line is neither blank, a comment, nor `key = value`.
    Syntax {
        /// 1-based line number.
        line: usize,
    },
    /// The key is not part of the DSL.
    UnknownKey {
        /// 1-based line number.
        line: usize,
        /// The unrecognized key.
        key: String,
    },
    /// The value failed to parse as the key's type.
    BadValue {
        /// 1-based line number.
        line: usize,
        /// The key whose value is bad.
        key: String,
        /// The offending value (truncated).
        value: String,
        /// What was expected.
        expected: &'static str,
    },
    /// A numeric value overflowed its type.
    Overflow {
        /// 1-based line number.
        line: usize,
        /// The key whose value overflowed.
        key: String,
    },
    /// A count or window that must be nonzero was zero.
    ZeroWindow {
        /// 1-based line number.
        line: usize,
        /// The zero-valued key.
        key: String,
    },
    /// The same key appeared twice.
    DuplicateKey {
        /// 1-based line number of the second occurrence.
        line: usize,
        /// The repeated key.
        key: String,
    },
    /// Individually-parsable fields combine into an unusable scenario.
    Invalid {
        /// The field (or field group) at fault.
        key: &'static str,
        /// Why the combination is rejected.
        why: String,
    },
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::Syntax { line } => write!(f, "line {line}: expected `key = value`"),
            SpecError::UnknownKey { line, key } => write!(f, "line {line}: unknown key {key:?}"),
            SpecError::BadValue {
                line,
                key,
                value,
                expected,
            } => write!(f, "line {line}: {key} = {value:?} is not {expected}"),
            SpecError::Overflow { line, key } => write!(f, "line {line}: {key} overflows"),
            SpecError::ZeroWindow { line, key } => {
                write!(f, "line {line}: {key} must be nonzero")
            }
            SpecError::DuplicateKey { line, key } => {
                write!(f, "line {line}: duplicate key {key}")
            }
            SpecError::Invalid { key, why } => write!(f, "invalid {key}: {why}"),
        }
    }
}

impl std::error::Error for SpecError {}

/// Every key the DSL accepts, in render order.
const KEYS: &[&str] = &[
    "name",
    "seed",
    "disks",
    "width",
    "unit_bytes",
    "periods",
    "clients",
    "ops_per_client",
    "read_fraction",
    "max_units",
    "access",
    "zipf_theta",
    "hot_fraction",
    "hot_weight",
    "hot_shift_ops",
    "arrival",
    "rate_ops_per_sec",
    "burst_factor",
    "burst_on_ms",
    "burst_period_ms",
    "slow_clients",
    "slow_stall_every",
    "slow_stall_ms",
    "slow_bandwidth_bytes_per_sec",
    "bandwidth_bytes_per_sec",
    "latency_us",
    "fail_disk",
];

/// Keys that are counts or windows and must be nonzero when given.
const NONZERO: &[&str] = &[
    "disks",
    "width",
    "unit_bytes",
    "periods",
    "clients",
    "ops_per_client",
    "max_units",
    "hot_shift_ops",
    "burst_on_ms",
    "burst_period_ms",
];

struct RawField {
    line: usize,
    value: String,
}

impl ScenarioSpec {
    /// Parse a spec from DSL text.
    ///
    /// # Errors
    ///
    /// A typed [`SpecError`] pinpointing the first problem; hostile
    /// input never panics.
    pub fn parse(text: &str) -> Result<Self, SpecError> {
        let mut fields: Vec<(&'static str, RawField)> = Vec::new();
        for (i, raw) in text.lines().enumerate() {
            let line = i + 1;
            let body = raw.split('#').next().unwrap_or("").trim();
            if body.is_empty() {
                continue;
            }
            let Some((key, value)) = body.split_once('=') else {
                return Err(SpecError::Syntax { line });
            };
            let (key, value) = (key.trim(), value.trim());
            let Some(&known) = KEYS.iter().find(|&&k| k == key) else {
                return Err(SpecError::UnknownKey {
                    line,
                    key: key.chars().take(40).collect(),
                });
            };
            if fields.iter().any(|(k, _)| *k == known) {
                return Err(SpecError::DuplicateKey {
                    line,
                    key: known.into(),
                });
            }
            fields.push((
                known,
                RawField {
                    line,
                    value: value.to_string(),
                },
            ));
        }

        let get = |key: &str| fields.iter().find(|(k, _)| *k == key).map(|(_, v)| v);
        let u64_of = |key: &str, default: u64| -> Result<u64, SpecError> {
            let Some(raw) = get(key) else {
                return Ok(default);
            };
            let v = raw.value.parse::<u64>().map_err(|e| {
                if *e.kind() == IntErrorKind::PosOverflow {
                    SpecError::Overflow {
                        line: raw.line,
                        key: key.into(),
                    }
                } else {
                    SpecError::BadValue {
                        line: raw.line,
                        key: key.into(),
                        value: raw.value.chars().take(40).collect(),
                        expected: "an unsigned integer",
                    }
                }
            })?;
            if v == 0 && NONZERO.contains(&key) {
                return Err(SpecError::ZeroWindow {
                    line: raw.line,
                    key: key.into(),
                });
            }
            Ok(v)
        };
        let f64_of = |key: &str, default: f64| -> Result<f64, SpecError> {
            let Some(raw) = get(key) else {
                return Ok(default);
            };
            raw.value
                .parse::<f64>()
                .ok()
                .filter(|v| v.is_finite())
                .ok_or_else(|| SpecError::BadValue {
                    line: raw.line,
                    key: key.into(),
                    value: raw.value.chars().take(40).collect(),
                    expected: "a finite number",
                })
        };

        let d = ScenarioSpec::default();
        let access = match get("access") {
            None => d.access,
            Some(raw) => match raw.value.as_str() {
                "uniform" => AccessDist::Uniform,
                "zipfian" => AccessDist::Zipfian {
                    theta: f64_of("zipf_theta", 0.99)?,
                },
                "hotspot" => AccessDist::Hotspot {
                    fraction: f64_of("hot_fraction", 0.1)?,
                    weight: f64_of("hot_weight", 0.9)?,
                    shift_every: u64_of("hot_shift_ops", 1000)?,
                },
                _ => {
                    return Err(SpecError::BadValue {
                        line: raw.line,
                        key: "access".into(),
                        value: raw.value.chars().take(40).collect(),
                        expected: "uniform | zipfian | hotspot",
                    })
                }
            },
        };
        let arrival = match get("arrival") {
            None => d.arrival,
            Some(raw) => match raw.value.as_str() {
                "closed" => Arrival::ClosedLoop,
                "poisson" => Arrival::Poisson {
                    rate: f64_of("rate_ops_per_sec", 1000.0)?,
                },
                "bursty" => Arrival::Bursty {
                    rate: f64_of("rate_ops_per_sec", 1000.0)?,
                    burst_factor: f64_of("burst_factor", 4.0)?,
                    on_ms: u64_of("burst_on_ms", 20)?,
                    period_ms: u64_of("burst_period_ms", 100)?,
                },
                _ => {
                    return Err(SpecError::BadValue {
                        line: raw.line,
                        key: "arrival".into(),
                        value: raw.value.chars().take(40).collect(),
                        expected: "closed | poisson | bursty",
                    })
                }
            },
        };
        let fail_disk = match get("fail_disk") {
            None => None,
            Some(raw) if raw.value == "none" => None,
            Some(raw) => Some(raw.value.parse::<u32>().map_err(|e| {
                if *e.kind() == IntErrorKind::PosOverflow {
                    SpecError::Overflow {
                        line: raw.line,
                        key: "fail_disk".into(),
                    }
                } else {
                    SpecError::BadValue {
                        line: raw.line,
                        key: "fail_disk".into(),
                        value: raw.value.chars().take(40).collect(),
                        expected: "a disk index or `none`",
                    }
                }
            })?),
        };

        let spec = ScenarioSpec {
            name: get("name").map_or_else(|| d.name.clone(), |r| r.value.clone()),
            seed: u64_of("seed", d.seed)?,
            disks: u64_of("disks", d.disks as u64)? as usize,
            width: u64_of("width", d.width as u64)? as usize,
            unit_bytes: u64_of("unit_bytes", d.unit_bytes as u64)? as usize,
            periods: u64_of("periods", d.periods)?,
            clients: u32::try_from(u64_of("clients", u64::from(d.clients))?).map_err(|_| {
                SpecError::Overflow {
                    line: get("clients").map_or(0, |r| r.line),
                    key: "clients".into(),
                }
            })?,
            ops_per_client: u64_of("ops_per_client", d.ops_per_client)?,
            read_fraction: f64_of("read_fraction", d.read_fraction)?,
            max_units: u32::try_from(u64_of("max_units", u64::from(d.max_units))?).map_err(
                |_| SpecError::Overflow {
                    line: get("max_units").map_or(0, |r| r.line),
                    key: "max_units".into(),
                },
            )?,
            access,
            arrival,
            slow_clients: u64_of("slow_clients", 0)? as u32,
            slow_stall_every: u64_of("slow_stall_every", 0)?,
            slow_stall_ms: u64_of("slow_stall_ms", 0)?,
            slow_bandwidth: u64_of("slow_bandwidth_bytes_per_sec", 0)?,
            bandwidth: u64_of("bandwidth_bytes_per_sec", 0)?,
            latency_us: u64_of("latency_us", 0)?,
            fail_disk,
        };
        spec.validate()?;
        Ok(spec)
    }

    /// Cross-field validation (also run at the end of [`Self::parse`]).
    ///
    /// # Errors
    ///
    /// [`SpecError::Invalid`] naming the offending field group.
    pub fn validate(&self) -> Result<(), SpecError> {
        if !(0.0..=1.0).contains(&self.read_fraction) {
            return Err(SpecError::Invalid {
                key: "read_fraction",
                why: format!("{} outside [0, 1]", self.read_fraction),
            });
        }
        if self.width < 2 || self.disks <= self.width {
            return Err(SpecError::Invalid {
                key: "width",
                why: format!("need disks > width >= 2, got {}/{}", self.disks, self.width),
            });
        }
        if self.slow_clients > self.clients {
            return Err(SpecError::Invalid {
                key: "slow_clients",
                why: format!("{} exceeds clients {}", self.slow_clients, self.clients),
            });
        }
        if let Some(disk) = self.fail_disk {
            if disk as usize >= self.disks {
                return Err(SpecError::Invalid {
                    key: "fail_disk",
                    why: format!("disk {disk} outside 0..{}", self.disks),
                });
            }
        }
        self.access
            .validate()
            .map_err(|why| SpecError::Invalid { key: "access", why })?;
        self.arrival.validate().map_err(|why| SpecError::Invalid {
            key: "arrival",
            why,
        })?;
        Ok(())
    }

    /// Canonical DSL rendering; `parse(render(s)) == s` for every
    /// field.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let mut kv = |k: &str, v: String| out.push_str(&format!("{k} = {v}\n"));
        kv("name", self.name.clone());
        kv("seed", self.seed.to_string());
        kv("disks", self.disks.to_string());
        kv("width", self.width.to_string());
        kv("unit_bytes", self.unit_bytes.to_string());
        kv("periods", self.periods.to_string());
        kv("clients", self.clients.to_string());
        kv("ops_per_client", self.ops_per_client.to_string());
        kv("read_fraction", format!("{}", self.read_fraction));
        kv("max_units", self.max_units.to_string());
        match self.access {
            AccessDist::Uniform => kv("access", "uniform".into()),
            AccessDist::Zipfian { theta } => {
                kv("access", "zipfian".into());
                kv("zipf_theta", format!("{theta}"));
            }
            AccessDist::Hotspot {
                fraction,
                weight,
                shift_every,
            } => {
                kv("access", "hotspot".into());
                kv("hot_fraction", format!("{fraction}"));
                kv("hot_weight", format!("{weight}"));
                kv("hot_shift_ops", shift_every.to_string());
            }
        }
        match self.arrival {
            Arrival::ClosedLoop => kv("arrival", "closed".into()),
            Arrival::Poisson { rate } => {
                kv("arrival", "poisson".into());
                kv("rate_ops_per_sec", format!("{rate}"));
            }
            Arrival::Bursty {
                rate,
                burst_factor,
                on_ms,
                period_ms,
            } => {
                kv("arrival", "bursty".into());
                kv("rate_ops_per_sec", format!("{rate}"));
                kv("burst_factor", format!("{burst_factor}"));
                kv("burst_on_ms", on_ms.to_string());
                kv("burst_period_ms", period_ms.to_string());
            }
        }
        kv("slow_clients", self.slow_clients.to_string());
        kv("slow_stall_every", self.slow_stall_every.to_string());
        kv("slow_stall_ms", self.slow_stall_ms.to_string());
        kv(
            "slow_bandwidth_bytes_per_sec",
            self.slow_bandwidth.to_string(),
        );
        kv("bandwidth_bytes_per_sec", self.bandwidth.to_string());
        kv("latency_us", self.latency_us.to_string());
        kv(
            "fail_disk",
            self.fail_disk
                .map_or_else(|| "none".into(), |d| d.to_string()),
        );
        out
    }
}

/// Build the spec's deterministic op schedule over a volume of
/// `capacity_units` — a pure function of `(spec, capacity)`, so the
/// digest is reproducible by construction.
///
/// # Panics
///
/// If the spec fails [`ScenarioSpec::validate`] or `capacity_units`
/// is 0.
pub fn build_schedule(spec: &ScenarioSpec, capacity_units: u64) -> OpTrace {
    spec.validate().expect("validated spec");
    assert!(capacity_units > 0, "empty volume");
    let total = u64::from(spec.clients) * spec.ops_per_client;
    let mut sampler = AccessSampler::new(spec.access, capacity_units, spec.seed);
    let mut arrivals = ArrivalGen::new(spec.arrival, spec.seed);
    let mut rng = Xoshiro256pp::seed_from_u64(spec.seed ^ 0x5ce4_7a11_0e5c_a1e5);
    let mut ops = Vec::with_capacity(total as usize);
    for i in 0..total {
        let start_us = arrivals.next_start_us().unwrap_or(0);
        let units = (1 + rng.below_u64(u64::from(spec.max_units.max(1)))).min(capacity_units);
        let offset = sampler.draw().min(capacity_units - units);
        let write = rng.next_f64() >= spec.read_fraction;
        ops.push(TraceOp {
            start_us,
            client: (i % u64::from(spec.clients)) as u32,
            write,
            offset,
            units: units as u32,
            tag: if write { rng.next_u64() } else { 0 },
        });
    }
    OpTrace {
        unit_bytes: spec.unit_bytes as u32,
        capacity_units,
        ops,
    }
}

/// What one scenario run produced.
#[derive(Debug)]
pub struct RunOutcome {
    /// The schedule that was driven (replayable; digest is identity).
    pub trace: OpTrace,
    /// `(service_ns, intended_ns)` per completed op, per client.
    /// `intended_ns` equals `service_ns` for closed-loop schedules.
    pub samples: Vec<Vec<(u64, u64)>>,
    /// Ops the server failed (excluded from samples).
    pub errors: u64,
    /// Wall clock for the whole run.
    pub elapsed_ns: u64,
    /// How many clients at the front of the index space were slow.
    pub slow_clients: u32,
    /// Terminal rebuild state when the spec failed a disk.
    pub rebuild: Option<RebuildStatus>,
}

impl RunOutcome {
    /// Service-latency samples from healthy (non-slow) clients only.
    pub fn healthy_service_ns(&self) -> Vec<u64> {
        self.samples
            .iter()
            .skip(self.slow_clients as usize)
            .flat_map(|c| c.iter().map(|&(s, _)| s))
            .collect()
    }

    /// Intended-start latency samples from healthy clients only — the
    /// coordinated-omission-free series.
    pub fn healthy_intended_ns(&self) -> Vec<u64> {
        self.samples
            .iter()
            .skip(self.slow_clients as usize)
            .flat_map(|c| c.iter().map(|&(_, i)| i))
            .collect()
    }

    /// Completed ops across all clients.
    pub fn completed(&self) -> usize {
        self.samples.iter().map(Vec::len).sum()
    }
}

/// Nearest-rank percentile over an ascending-sorted slice (0 if empty).
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn build_engine(spec: &ScenarioSpec) -> Result<Engine, String> {
    let layout = Pddl::new(spec.disks, spec.width)
        .map_err(|e| format!("layout {}x{}: {e:?}", spec.disks, spec.width))?;
    let array = DeclusteredArray::new(Box::new(layout), spec.unit_bytes, spec.periods)
        .map_err(|e| format!("array: {e:?}"))?;
    Ok(Engine::new(array))
}

/// Run a spec end to end: build the stack, build the schedule, drive
/// it. Equivalent to [`build_schedule`] + [`run_trace`].
///
/// # Errors
///
/// A printable reason: bad geometry, a client that could not connect,
/// or a failed management action.
pub fn run_spec(spec: &ScenarioSpec) -> Result<RunOutcome, String> {
    spec.validate().map_err(|e| e.to_string())?;
    let engine = build_engine(spec)?;
    let capacity = engine.volume_info().capacity_units;
    let trace = build_schedule(spec, capacity);
    run_trace_on(spec, engine, trace)
}

/// Replay a recorded trace under a spec's shaping/pathology settings.
/// The trace's recorded capacity must fit the spec's geometry.
///
/// # Errors
///
/// A printable reason, including a capacity mismatch between trace and
/// spec geometry.
pub fn run_trace(spec: &ScenarioSpec, trace: OpTrace) -> Result<RunOutcome, String> {
    spec.validate().map_err(|e| e.to_string())?;
    let engine = build_engine(spec)?;
    let capacity = engine.volume_info().capacity_units;
    if trace.capacity_units > capacity {
        return Err(format!(
            "trace recorded against {} units but the spec's volume has {capacity}",
            trace.capacity_units
        ));
    }
    run_trace_on(spec, engine, trace)
}

fn run_trace_on(spec: &ScenarioSpec, engine: Engine, trace: OpTrace) -> Result<RunOutcome, String> {
    let handle = serve(Arc::new(engine), "127.0.0.1:0", ServerConfig::default())
        .map_err(|e| e.to_string())?;
    let addr = handle.local_addr();
    let clients = spec.clients.max(trace.clients()).max(1);
    let open_loop = trace.ops.iter().any(|o| o.start_us > 0);

    // Partition the schedule per client, preserving issue order.
    let mut per_client: Vec<Vec<TraceOp>> = vec![Vec::new(); clients as usize];
    for op in &trace.ops {
        per_client[op.client as usize].push(*op);
    }

    // All clients connect, then cross the barrier together so the
    // schedule epoch is shared.
    let barrier = Arc::new(Barrier::new(clients as usize));
    let unit = spec.unit_bytes;
    let mut threads = Vec::with_capacity(clients as usize);
    for (c, ops) in per_client.into_iter().enumerate() {
        let shape = if (c as u32) < spec.slow_clients {
            NetShape {
                bandwidth_bytes_per_sec: spec.slow_bandwidth,
                latency_us: spec.latency_us,
                stall_every: spec.slow_stall_every,
                stall_ms: spec.slow_stall_ms,
            }
        } else {
            NetShape {
                bandwidth_bytes_per_sec: spec.bandwidth,
                latency_us: spec.latency_us,
                stall_every: 0,
                stall_ms: 0,
            }
        };
        let barrier = Arc::clone(&barrier);
        threads.push(std::thread::spawn(
            move || -> Result<(Vec<(u64, u64)>, u64), String> {
                let mut client = if shape.is_noop() {
                    Client::connect(addr)
                } else {
                    Client::connect_shaped(addr, shape)
                }
                .map_err(|e| format!("client {c}: {e}"))?;
                barrier.wait();
                let epoch = Instant::now();
                let mut samples = Vec::with_capacity(ops.len());
                let mut errors = 0u64;
                for op in ops {
                    let intended = epoch + Duration::from_micros(op.start_us);
                    if open_loop {
                        let now = Instant::now();
                        if intended > now {
                            std::thread::sleep(intended - now);
                        }
                    }
                    let t = Instant::now();
                    let result = if op.write {
                        let mut payload = Vec::with_capacity(op.units as usize * unit);
                        for k in 0..op.units {
                            payload.extend_from_slice(&tag_bytes(op.tag, k, unit));
                        }
                        client.write_units(op.offset, &payload)
                    } else {
                        client.read_units(op.offset, op.units).map(|_| ())
                    };
                    let done = Instant::now();
                    match result {
                        Ok(()) => {
                            let service = done.duration_since(t).as_nanos() as u64;
                            let from_intended = if open_loop {
                                done.duration_since(intended).as_nanos() as u64
                            } else {
                                service
                            };
                            samples.push((service, from_intended));
                        }
                        Err(_) => errors += 1,
                    }
                }
                Ok((samples, errors))
            },
        ));
    }

    // Fault injection runs on its own management connection while the
    // clients drive load, mirroring the remote-bench scenario.
    let mgmt = spec.fail_disk.map(|disk| {
        std::thread::spawn(move || -> Result<RebuildStatus, String> {
            let mut c = Client::connect(addr).map_err(|e| e.to_string())?;
            std::thread::sleep(Duration::from_millis(30));
            c.fail_disk(disk).map_err(|e| e.to_string())?;
            c.rebuild(disk).map_err(|e| e.to_string())?;
            c.wait_rebuild(Duration::from_millis(10), Duration::from_secs(120))
                .map_err(|e| e.to_string())
        })
    });

    let epoch = Instant::now();
    let mut samples = Vec::with_capacity(clients as usize);
    let mut errors = 0u64;
    for t in threads {
        let (s, e) = t
            .join()
            .map_err(|_| "scenario client panicked".to_string())??;
        samples.push(s);
        errors += e;
    }
    let elapsed_ns = epoch.elapsed().as_nanos() as u64;
    let rebuild = match mgmt {
        Some(h) => Some(
            h.join()
                .map_err(|_| "management thread panicked".to_string())??,
        ),
        None => None,
    };
    handle.shutdown();
    Ok(RunOutcome {
        trace,
        samples,
        errors,
        elapsed_ns,
        slow_clients: spec.slow_clients,
        rebuild,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        assert_eq!(percentile(&[], 0.5), 0);
        let sorted = [10, 20, 30, 40, 100];
        assert_eq!(percentile(&sorted, 0.50), 30);
        assert_eq!(percentile(&sorted, 0.99), 100);
    }

    #[test]
    fn defaults_render_and_round_trip() {
        let spec = ScenarioSpec::default();
        assert_eq!(ScenarioSpec::parse(&spec.render()).unwrap(), spec);
        assert_eq!(ScenarioSpec::parse("").unwrap(), spec);
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let spec = ScenarioSpec::parse("# a comment\n\nseed = 7 # trailing\n").unwrap();
        assert_eq!(spec.seed, 7);
    }

    #[test]
    fn schedule_is_deterministic() {
        let spec = ScenarioSpec {
            arrival: Arrival::Poisson { rate: 5000.0 },
            ..ScenarioSpec::default()
        };
        let a = build_schedule(&spec, 840);
        let b = build_schedule(&spec, 840);
        assert_eq!(a.digest(), b.digest());
        assert_ne!(a.digest(), build_schedule(&spec, 839).digest());
    }
}
