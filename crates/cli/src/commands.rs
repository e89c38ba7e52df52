//! The `pddl` CLI subcommands.

use std::cell::RefCell;
use std::net::ToSocketAddrs;
use std::rc::Rc;
use std::sync::{Arc, Mutex};

use pddl_array::DeclusteredArray;
use pddl_core::analysis::{check_goals, mean_working_set, reconstruction_reads};
use pddl_core::layout::Layout;
use pddl_core::pddl::search::{find_base_permutations_with_spares, SearchBudget};
use pddl_core::plan::{Mode, Op};
use pddl_core::{Datum, ParityDeclustering, Pddl, PrimeLayout, PseudoRandom, Raid5, Role};
use pddl_obs::{MetricsSnapshot, ObsConfig, ObsSink, Observer, SyncAdapter, SyncSharedSink};
use pddl_server::engine::{Engine, RebuildConfig};
use pddl_server::metrics_http::serve_metrics;
use pddl_server::server::{serve, ServerConfig};
use pddl_server::VolumeSpec;
use pddl_sim::trace::{format_trace, parse_trace, synthesize_poisson};
use pddl_sim::{ArraySim, SimConfig};

use crate::args::Cli;

/// Top-level usage text.
pub const USAGE: &str = "\
pddl — declustered disk-array toolbox (PDDL, HPCA 1999)

USAGE:
  pddl show      --disks N --width K [--layout NAME] [--rows R]
                   print the physical layout pattern
  pddl verify    --disks N --width K [--layout NAME]
                   check the eight ideal-layout goals
  pddl search    --disks N --width K [--spares S] [--moves M] [--restarts R]
                   find satisfactory base permutations
  pddl simulate  --disks N --width K [--layout NAME] --clients C --size UNITS
                 [--op read|write] [--mode ff|f1|f2|postrecon] [--samples X]
                   run the timing simulator for one configuration
  pddl rebuild   --disks N --width K [--layout NAME] --clients C [--jobs J]
                   simulate an on-line rebuild of disk 0 under client load
  pddl drill     --disks N --width K [--fail D]
                   functional failure drill with real bytes and parity
  pddl trace-gen --count N --size UNITS [--read-frac F] [--gap-us G]
                   synthesize a Poisson trace on stdout
  pddl replay    --file TRACE [--disks N --width K] [--mode ff|f1]
                   replay a trace file through the simulator
  pddl report    METRICS.tsv
                   summarize a metrics file: latency percentiles and
                   per-disk utilization skew
  pddl serve     --disks N --width K [--unit B] [--periods P]
                 [--addr HOST:PORT] [--shards S]
                 [--duration-ms T] [--rebuild-batch B] [--rebuild-rate R]
                 [--metrics-addr HOST:PORT]
                   export the functional array as a TCP block service;
                   --shards S = thread-per-core event loops (0 = one
                   per core, the default), each committing the WRITEs
                   that reach it in one tick as one array batch;
                   REBUILD runs online in batches of B stripes,
                   throttled to R stripes/sec (0 = unthrottled);
                   --metrics-addr adds a Prometheus /metrics endpoint
  pddl stats     --addr HOST:PORT
                   one telemetry snapshot from a served volume
                   (counters, gauges, latency histograms)
  pddl volume    ACTION --addr HOST:PORT
                   volume management against a served pool:
                     list                       pool state + volume table
                     create --name N --units U [--tenant T] [--weight W]
                            [--ops-per-sec X] [--bytes-per-sec Y]
                     delete --id I
                     resize --id I --units U
  pddl top       --addr HOST:PORT [--interval-ms M] [--iters N]
                 [--volume V]
                   live per-op rates and latency percentiles, polled
                   from STATS every M ms (N = 0 runs until killed);
                   --volume V narrows the per-volume rows to volume V;
                   on the sharded runtime, adds a per-shard table:
                   queued frames, inbox depth (messages its last
                   drain took), wakeups/s
  pddl trace-dump --addr HOST:PORT [--out FILE]
                   dump the server's flight recorder (recent + slow op
                   spans) as chrome://tracing JSON to FILE or stdout
  pddl chaos     [--seed N | --seeds N] [--ops N] [--clients C]
                 [--volumes V] [--rounds R] [--disks N --width K]
                 [--access D] [--sabotage]
                   deterministic fault-injection harness: seeded fault
                   schedules against a loopback server, histories
                   checked against a sequential model; failing seeds
                   shrink to a minimal schedule (see `pddl chaos -h`)

OBSERVABILITY (simulate, rebuild, replay, drill, serve):
  --trace FILE     write a Chrome trace-event JSON (open in Perfetto)
  --metrics FILE   write a metrics TSV (input for `pddl report`)
  --sample-us N    per-disk sampling interval in µs (default 1000; 0 off)
  On serve these record the array's events (journal, rebuild progress,
  faults, scrubs); per-request spans and latency come from `pddl stats`,
  `pddl trace-dump` and --metrics-addr.

LAYOUTS: pddl (default), raid5, parity-decl, datum, prime, pseudo-random
";

/// Observability outputs requested on the command line.
///
/// The observer lives behind `Arc<Mutex<_>>` so one instance can feed
/// both single-threaded hosts (the simulator, via a [`SyncAdapter`]
/// bridge) and the thread-crossing functional array in the same
/// process.
struct ObsOutput {
    observer: Arc<Mutex<Observer>>,
    trace_path: Option<String>,
    metrics_path: Option<String>,
}

/// Build an observer when `--trace` or `--metrics` was given; `None`
/// (zero overhead, bit-for-bit identical run) otherwise.
fn obs_from_cli(cli: &Cli) -> Result<Option<ObsOutput>, String> {
    let trace_path = cli.get("trace").map(str::to_string);
    let metrics_path = cli.get("metrics").map(str::to_string);
    if trace_path.is_none() && metrics_path.is_none() {
        return Ok(None);
    }
    let sample_us: u64 = cli.num("sample-us", 1_000)?;
    let cfg = ObsConfig {
        sample_interval_ns: (sample_us > 0).then_some(sample_us * 1_000),
        ..ObsConfig::default()
    };
    Ok(Some(ObsOutput {
        observer: Arc::new(Mutex::new(Observer::new(cfg))),
        trace_path,
        metrics_path,
    }))
}

impl ObsOutput {
    /// The observer as the single-threaded trait object the simulator
    /// holds, bridged through [`SyncAdapter`].
    fn sink(&self) -> Rc<RefCell<dyn ObsSink>> {
        Rc::new(RefCell::new(SyncAdapter(self.sync_sink())))
    }

    /// The observer as the thread-safe handle the functional array holds.
    fn sync_sink(&self) -> SyncSharedSink {
        self.observer.clone()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Observer> {
        self.observer
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn set_info(&self, key: &str, value: &str) {
        self.lock().set_info(key, value);
    }

    /// Write the requested files and tell the user where they went.
    fn write_outputs(&self) -> Result<(), String> {
        let obs = self.lock();
        if let Some(path) = &self.trace_path {
            std::fs::write(path, obs.chrome_trace_json()).map_err(|e| format!("{path}: {e}"))?;
            println!("  trace         : {path} (load in Perfetto / chrome://tracing)");
        }
        if let Some(path) = &self.metrics_path {
            std::fs::write(path, obs.metrics_tsv()).map_err(|e| format!("{path}: {e}"))?;
            println!("  metrics       : {path} (summarize with `pddl report {path}`)");
        }
        Ok(())
    }
}

fn build_layout(cli: &Cli) -> Result<Box<dyn Layout>, String> {
    let n: usize = cli.num("disks", 13)?;
    let k: usize = cli.num("width", 4)?;
    let name = cli.get("layout").unwrap_or("pddl");
    let layout: Box<dyn Layout> = match name {
        "pddl" => Box::new(Pddl::new(n, k).map_err(|e| e.to_string())?),
        "raid5" => Box::new(Raid5::new(n).map_err(|e| e.to_string())?),
        "parity-decl" => Box::new(ParityDeclustering::new(n, k).map_err(|e| e.to_string())?),
        "datum" => Box::new(Datum::new(n, k).map_err(|e| e.to_string())?),
        "prime" => Box::new(PrimeLayout::new(n, k).map_err(|e| e.to_string())?),
        "pseudo-random" => Box::new(PseudoRandom::new(n, k, 1).map_err(|e| e.to_string())?),
        other => return Err(format!("unknown layout {other:?}")),
    };
    Ok(layout)
}

fn parse_mode(cli: &Cli) -> Result<Mode, String> {
    Ok(match cli.get("mode") {
        None | Some("ff") => Mode::FaultFree,
        Some("f1") => Mode::Degraded {
            failed: cli.num("fail", 0)?,
        },
        Some("f2") => Mode::DoubleDegraded {
            failed: [cli.num("fail", 0)?, cli.num("fail2", 6)?],
        },
        Some("postrecon") => Mode::PostReconstruction {
            failed: cli.num("fail", 0)?,
        },
        Some(other) => return Err(format!("unknown mode {other:?}")),
    })
}

fn parse_op(cli: &Cli) -> Result<Op, String> {
    Ok(match cli.get("op") {
        None | Some("read") => Op::Read,
        Some("write") => Op::Write,
        Some(other) => return Err(format!("unknown op {other:?}")),
    })
}

/// `pddl show` — print the layout pattern.
pub fn show(cli: &Cli) -> Result<(), String> {
    let layout = build_layout(cli)?;
    let rows: u64 = cli.num("rows", layout.period_rows().min(32))?;
    println!(
        "{}: n={} k={} c={} period={} rows, parity {:.1}%, spare {:.1}%",
        layout.name(),
        layout.disks(),
        layout.stripe_width(),
        layout.check_per_stripe(),
        layout.period_rows(),
        layout.parity_overhead() * 100.0,
        layout.spare_overhead() * 100.0,
    );
    // Build a row-indexed view of one period.
    let mut grid: Vec<Vec<String>> =
        vec![vec!["  S  ".to_string(); layout.disks()]; layout.period_rows() as usize];
    for stripe in 0..layout.stripes_per_period() {
        let letter = (b'a' + (stripe % 26) as u8) as char;
        for unit in layout.stripe_units(stripe) {
            let row = unit.addr.offset as usize;
            if row >= grid.len() {
                continue;
            }
            grid[row][unit.addr.disk] = match unit.role {
                Role::Data => format!(" {letter}{:<2} ", unit.index),
                Role::Check => format!(" P{letter}{} ", unit.index),
                Role::Spare => "  S  ".into(),
            };
        }
    }
    print!("row   ");
    for d in 0..layout.disks() {
        print!("d{d:<4}");
    }
    println!();
    for (r, row) in grid.iter().enumerate().take(rows as usize) {
        println!("{r:<5} {}", row.join(""));
    }
    if rows < layout.period_rows() {
        println!(
            "… ({} more rows in the period)",
            layout.period_rows() - rows
        );
    }
    Ok(())
}

/// `pddl verify` — goal checklist.
pub fn verify(cli: &Cli) -> Result<(), String> {
    let layout = build_layout(cli)?;
    let g = check_goals(layout.as_ref());
    println!(
        "goals for {} (n={}, k={}):",
        layout.name(),
        layout.disks(),
        layout.stripe_width()
    );
    println!(
        "  #1 single failure correcting : {}",
        g.single_failure_correcting
    );
    println!("  #2 distributed parity        : {}", g.distributed_parity);
    println!(
        "  #3 distributed reconstruction: {}",
        g.distributed_reconstruction
    );
    println!(
        "  #4 large write optimization  : {}",
        g.large_write_optimization
    );
    println!(
        "  #5 read parallelism deviation: {}",
        g.read_parallelism_deviation
    );
    println!("  #6 mapping table bytes       : {}", g.mapping_table_bytes);
    println!(
        "  #7 distributed sparing       : {:?}",
        g.distributed_sparing
    );
    println!(
        "  #8 degraded parallelism dev. : {:?}",
        g.degraded_parallelism_deviation
    );
    let f = cli.num("fail", 0)?;
    println!(
        "reconstruction reads if disk {f} fails: {:?}",
        reconstruction_reads(layout.as_ref(), f)
    );
    for units in [1u64, 6, 12] {
        let ws = mean_working_set(layout.as_ref(), Mode::FaultFree, Op::Read, units);
        println!("mean working set, {units}-unit ff reads: {ws:.2}");
    }
    Ok(())
}

/// `pddl search` — base permutation search.
pub fn search(cli: &Cli) -> Result<(), String> {
    let n: usize = cli.num("disks", 13)?;
    let k: usize = cli.num("width", 4)?;
    let s: usize = cli.num("spares", 1)?;
    let budget = SearchBudget {
        moves: cli.num("moves", 100_000usize)?,
        restarts: cli.num("restarts", 40usize)?,
        max_group: cli.num("group", 4usize)?,
        ..SearchBudget::default()
    };
    if k < 2 || n <= s || !(n - s).is_multiple_of(k) {
        return Err(format!("need n = g*k + s; got n={n}, k={k}, s={s}"));
    }
    match find_base_permutations_with_spares(n, k, s, budget) {
        Some(perms) => {
            println!(
                "found {} base permutation(s) for n={n}, k={k}, s={s}:",
                perms.len()
            );
            for (i, p) in perms.iter().enumerate() {
                let cells: Vec<String> = p.iter().map(|x| x.to_string()).collect();
                println!("  #{}: ({})", i + 1, cells.join(" "));
            }
            Ok(())
        }
        None => Err("no satisfactory permutation group found within budget".into()),
    }
}

/// `pddl simulate` — one timing run.
pub fn simulate(cli: &Cli) -> Result<(), String> {
    let layout = build_layout(cli)?;
    let default_samples = if cli.has("fast") { 1_000 } else { 4_000 };
    let cfg = SimConfig {
        clients: cli.num("clients", 8)?,
        access_units: cli.num("size", 1)?,
        op: parse_op(cli)?,
        mode: parse_mode(cli)?,
        max_samples: cli.num("samples", default_samples)?,
        ..SimConfig::default()
    };
    let name = layout.name().to_string();
    let obs = obs_from_cli(cli)?;
    let mut sim = ArraySim::new(layout, cfg);
    if let Some(o) = &obs {
        o.set_info("driver", "simulate");
        o.set_info("layout", &name);
        o.set_info("mode", &format!("{:?}", cfg.mode));
        o.set_info("op", &format!("{:?}", cfg.op));
        o.set_info("clients", &cfg.clients.to_string());
        o.set_info("size", &cfg.access_units.to_string());
        sim.attach_observer(o.sink());
    }
    let r = sim.run();
    println!(
        "{name}: {} clients × {} units, {:?}, {:?}",
        cfg.clients, cfg.access_units, cfg.op, cfg.mode
    );
    println!(
        "  response time : {:.2} ms (±{:.2} ms, 95% CI, converged={})",
        r.mean_response_ms, r.ci_halfwidth_ms, r.converged
    );
    println!("  throughput    : {:.1} accesses/s", r.throughput);
    println!("  disk busy     : {:.1}%", r.utilization * 100.0);
    println!(
        "  ops/access    : {:.2} ({:.2} non-local, {:.2} cyl, {:.2} track, {:.2} no-switch)",
        r.seeks.total(),
        r.seeks.non_local,
        r.seeks.cylinder_switch,
        r.seeks.track_switch,
        r.seeks.no_switch
    );
    if let Some(o) = &obs {
        o.write_outputs()?;
    }
    Ok(())
}

/// `pddl rebuild` — on-line rebuild drill.
pub fn rebuild(cli: &Cli) -> Result<(), String> {
    let layout = build_layout(cli)?;
    let failed: usize = cli.num("fail", 0)?;
    let jobs: usize = cli.num("jobs", 4)?;
    let cfg = SimConfig {
        clients: cli.num("clients", 8)?,
        access_units: cli.num("size", 1)?,
        op: parse_op(cli)?,
        mode: Mode::Degraded { failed },
        warmup: 0,
        max_samples: u64::MAX,
        ..SimConfig::default()
    };
    let name = layout.name().to_string();
    let obs = obs_from_cli(cli)?;
    let mut sim = ArraySim::with_rebuild(layout, cfg, failed, jobs);
    if let Some(o) = &obs {
        o.set_info("driver", "rebuild");
        o.set_info("layout", &name);
        o.set_info("failed_disk", &failed.to_string());
        o.set_info("jobs", &jobs.to_string());
        o.set_info("clients", &cfg.clients.to_string());
        sim.attach_observer(o.sink());
    }
    let r = sim.run();
    let rb = r.rebuild.expect("rebuild report");
    println!(
        "{name}: rebuilding disk {failed} with {jobs} jobs in flight, {} clients",
        cfg.clients
    );
    println!(
        "  rebuild time        : {:.1} s ({} stripe units)",
        rb.rebuild_ms / 1000.0,
        rb.stripes_repaired
    );
    if cfg.clients > 0 {
        println!(
            "  client response time: {:.2} ms during the rebuild",
            r.mean_response_ms
        );
    }
    if let Some(o) = &obs {
        o.write_outputs()?;
    }
    Ok(())
}

/// `pddl drill` — functional failure drill with real bytes.
pub fn drill(cli: &Cli) -> Result<(), String> {
    let n: usize = cli.num("disks", 13)?;
    let k: usize = cli.num("width", 4)?;
    let fail: usize = cli.num("fail", 0)?;
    let layout = Pddl::new(n, k).map_err(|e| e.to_string())?;
    let mut array = DeclusteredArray::new(Box::new(layout), 512, 4).map_err(|e| e.to_string())?;
    let obs = obs_from_cli(cli)?;
    if let Some(o) = &obs {
        o.set_info("driver", "drill");
        o.set_info("failed_disk", &fail.to_string());
        array.attach_observer(o.sync_sink());
    }
    let cap = array.capacity_units();
    let payload: Vec<u8> = (0..cap as usize * 512).map(|i| (i % 251) as u8).collect();
    array.write(0, &payload).map_err(|e| e.to_string())?;
    println!("wrote {} units; failing disk {fail}…", cap);
    array.fail_disk(fail).map_err(|e| e.to_string())?;
    let ok_degraded = array.read(0, cap).map_err(|e| e.to_string())? == payload;
    let rebuilt = array.rebuild_to_spare(fail).map_err(|e| e.to_string())?;
    let ok_post = array.read(0, cap).map_err(|e| e.to_string())? == payload;
    array.replace_and_rebuild(fail).map_err(|e| e.to_string())?;
    let ok_final = array.read(0, cap).map_err(|e| e.to_string())? == payload;
    let scrub = array.scrub().map_err(|e| e.to_string())?;
    println!("  degraded reads intact        : {ok_degraded}");
    println!("  rebuilt to spare             : {rebuilt} units, reads intact: {ok_post}");
    println!(
        "  after replacement + copyback : reads intact: {ok_final}, scrub issues: {}",
        scrub.len()
    );
    if let Some(o) = &obs {
        o.write_outputs()?;
    }
    if ok_degraded && ok_post && ok_final && scrub.is_empty() {
        println!("drill passed");
        Ok(())
    } else {
        Err("drill detected data loss".into())
    }
}

/// `pddl trace-gen` — synthesize a Poisson trace to stdout.
pub fn trace_gen(cli: &Cli) -> Result<(), String> {
    let count: usize = cli.num("count", 1_000)?;
    let size: u64 = cli.num("size", 1)?;
    let read_frac: f64 = cli.num("read-frac", 1.0)?;
    let gap_us: u64 = cli.num("gap-us", 5_000)?;
    let capacity: u64 = cli.num("capacity", 1_000_000)?;
    let seed: u64 = cli.num("seed", 42)?;
    if count == 0 || size == 0 || !(0.0..=1.0).contains(&read_frac) || gap_us == 0 {
        return Err("invalid trace parameters".into());
    }
    let trace = synthesize_poisson(count, capacity, size, read_frac, gap_us, seed);
    print!("{}", format_trace(&trace));
    Ok(())
}

/// `pddl replay` — run a trace file through the simulator.
pub fn replay(cli: &Cli) -> Result<(), String> {
    let file = cli.get("file").ok_or("--file is required")?;
    let text = std::fs::read_to_string(file).map_err(|e| format!("{file}: {e}"))?;
    let trace = parse_trace(&text).map_err(|e| e.to_string())?;
    let layout = build_layout(cli)?;
    let cfg = SimConfig {
        mode: parse_mode(cli)?,
        warmup: cli.num("warmup", 0)?,
        max_samples: u64::MAX,
        ..SimConfig::default()
    };
    let name = layout.name().to_string();
    let records = trace.len();
    let obs = obs_from_cli(cli)?;
    let mut sim = ArraySim::with_trace(layout, cfg, trace);
    if let Some(o) = &obs {
        o.set_info("driver", "replay");
        o.set_info("layout", &name);
        o.set_info("trace_file", file);
        o.set_info("mode", &format!("{:?}", cfg.mode));
        sim.attach_observer(o.sink());
    }
    let r = sim.run();
    println!(
        "{name}: replayed {records} accesses from {file} ({:?})",
        cfg.mode
    );
    println!("  response time : {:.2} ms mean", r.mean_response_ms);
    println!("  throughput    : {:.1} accesses/s", r.throughput);
    println!("  disk busy     : {:.1}%", r.utilization * 100.0);
    if let Some(o) = &obs {
        o.write_outputs()?;
    }
    Ok(())
}

/// `pddl report` — summarize a metrics TSV written by `--metrics`.
pub fn report(cli: &Cli) -> Result<(), String> {
    let path = cli
        .positional
        .first()
        .map(String::as_str)
        .or_else(|| cli.get("file"))
        .ok_or("usage: pddl report METRICS.tsv")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let snap = MetricsSnapshot::parse(&text)?;
    if !snap.info.is_empty() {
        let ctx: Vec<String> = snap.info.iter().map(|(k, v)| format!("{k}={v}")).collect();
        println!("run: {}", ctx.join(" "));
    }
    // Latency and service-time percentiles (ns histograms → ms).
    let ms = |v: u64| v as f64 / 1e6;
    let mut any = false;
    for (name, h) in &snap.hists {
        if !name.ends_with("_ns") || h.count == 0 {
            continue;
        }
        if !any {
            println!(
                "{:<22} {:>10} {:>9} {:>9} {:>9} {:>9} {:>9}",
                "histogram", "count", "mean", "p50", "p95", "p99", "max"
            );
            any = true;
        }
        println!(
            "{:<22} {:>10} {:>8.2}m {:>8.2}m {:>8.2}m {:>8.2}m {:>8.2}m",
            name,
            h.count,
            h.mean / 1e6,
            ms(h.p50),
            ms(h.p95),
            ms(h.p99),
            ms(h.max),
        );
    }
    for (name, h) in &snap.hists {
        if name.ends_with("_ns") || h.count == 0 {
            continue;
        }
        println!(
            "{:<22} {:>10} {:>8.2}  {:>8}  {:>8}  {:>8}  {:>8} ",
            name, h.count, h.mean, h.p50, h.p95, h.p99, h.max,
        );
    }
    // Per-disk utilization skew from the disk.util.N gauges.
    let mut utils: Vec<(usize, f64)> = snap
        .gauges
        .iter()
        .filter_map(|(k, &v)| {
            k.strip_prefix("disk.util.")
                .and_then(|d| d.parse().ok())
                .map(|d: usize| (d, v))
        })
        .collect();
    utils.sort_unstable_by_key(|&(d, _)| d);
    if !utils.is_empty() {
        let mean = utils.iter().map(|&(_, u)| u).sum::<f64>() / utils.len() as f64;
        let (max_d, max_u) =
            utils
                .iter()
                .copied()
                .fold((0, 0.0), |acc, x| if x.1 > acc.1 { x } else { acc });
        println!("per-disk utilization ({} disks):", utils.len());
        let bars: Vec<String> = utils
            .iter()
            .map(|&(d, u)| {
                format!(
                    "  d{d:<3} {:>5.1}% {}",
                    u * 100.0,
                    "#".repeat((u * 40.0).round() as usize)
                )
            })
            .collect();
        println!("{}", bars.join("\n"));
        let skew = if mean > 0.0 { max_u / mean } else { 1.0 };
        println!(
            "  mean {:.1}%  max {:.1}% (disk {max_d})  skew max/mean {skew:.3}",
            mean * 100.0,
            max_u * 100.0,
        );
    }
    // A few headline counters, if present.
    for key in [
        "access.completed",
        "op.count",
        "journal.commits",
        "scrub.passes",
        "disk.failures",
    ] {
        if let Some(v) = snap.counters.get(key) {
            println!("{key:<22} {v}");
        }
    }
    Ok(())
}

/// Build the served array + engine for `serve`.
fn build_engine(cli: &Cli, obs: Option<&ObsOutput>) -> Result<Engine, String> {
    let n: usize = cli.num("disks", 13)?;
    let k: usize = cli.num("width", 4)?;
    let unit: usize = cli.num("unit", 512)?;
    let periods: u64 = cli.num("periods", 4)?;
    let rebuild = RebuildConfig {
        batch: cli.num("rebuild-batch", RebuildConfig::default().batch)?,
        rate: cli.num("rebuild-rate", 0.0)?,
    };
    let layout = Pddl::new(n, k).map_err(|e| e.to_string())?;
    let mut array =
        DeclusteredArray::new(Box::new(layout), unit, periods).map_err(|e| e.to_string())?;
    if let Some(o) = obs {
        // The array's events: journal commits, rebuild progress and
        // halts, faults, scrubs. Per-request spans and latency live in
        // the engine's telemetry plane (STATS, TRACE_DUMP, /metrics).
        array.attach_observer(o.sync_sink());
    }
    Ok(Engine::with_config(array, rebuild))
}

/// `pddl serve` — export the functional array as a TCP block service.
pub fn serve_cmd(cli: &Cli) -> Result<(), String> {
    let addr = cli.get("addr").unwrap_or("127.0.0.1:7490");
    let duration_ms: u64 = cli.num("duration-ms", 0)?;
    let obs = obs_from_cli(cli)?;
    if let Some(o) = &obs {
        o.set_info("driver", "serve");
    }
    let engine = Arc::new(build_engine(cli, obs.as_ref())?);
    let info = engine.volume_info();
    let config = ServerConfig {
        // 0 = one event-loop shard per available core.
        shards: cli.num("shards", 0)?,
        ..ServerConfig::default()
    };
    let handle = serve(Arc::clone(&engine), addr, config).map_err(|e| e.to_string())?;
    let metrics = match cli.get("metrics-addr") {
        Some(maddr) => Some(serve_metrics(Arc::clone(&engine), maddr).map_err(|e| e.to_string())?),
        None => None,
    };
    println!(
        "serving on {}: {} disks, {} units × {} B ({} KiB client capacity), {} runtime shard(s)",
        handle.local_addr(),
        info.disks,
        info.capacity_units,
        info.unit_bytes,
        info.capacity_units * info.unit_bytes as u64 / 1024,
        handle.runtime_shards(),
    );
    if let Some(m) = &metrics {
        println!("metrics on http://{}/metrics", m.local_addr());
    }
    if duration_ms == 0 {
        // Run until killed; the handle's threads do all the work.
        loop {
            std::thread::sleep(std::time::Duration::from_secs(3600));
        }
    }
    std::thread::sleep(std::time::Duration::from_millis(duration_ms));
    let served = handle.requests_served();
    if let Some(m) = metrics {
        m.shutdown();
    }
    handle.shutdown();
    println!("served {served} requests");
    if let Some(o) = &obs {
        o.write_outputs()?;
    }
    Ok(())
}

/// Connect to `--addr` for the telemetry commands.
fn telemetry_client(cli: &Cli) -> Result<pddl_server::Client, String> {
    let addr = cli
        .get("addr")
        .ok_or("--addr is required")?
        .to_socket_addrs()
        .map_err(|e| e.to_string())?
        .next()
        .ok_or("--addr resolved to no address")?;
    pddl_server::Client::connect(addr).map_err(|e| e.to_string())
}

/// `pddl stats` — one STATS snapshot, rendered as a table.
pub fn stats(cli: &Cli) -> Result<(), String> {
    let mut c = telemetry_client(cli)?;
    let snap = c.stats().map_err(|e| e.to_string())?;
    print!("{}", snap.render());
    Ok(())
}

/// `pddl trace-dump` — the server's flight recorder as a chrome trace.
pub fn trace_dump(cli: &Cli) -> Result<(), String> {
    let mut c = telemetry_client(cli)?;
    let spans = c.trace_dump().map_err(|e| e.to_string())?;
    let json = pddl_obs::spans_chrome_json(&spans);
    match cli.get("out") {
        Some(path) => {
            std::fs::write(path, &json).map_err(|e| format!("{path}: {e}"))?;
            println!(
                "wrote {} spans to {path} (load in Perfetto / chrome://tracing)",
                spans.len()
            );
        }
        None => println!("{json}"),
    }
    Ok(())
}

/// Render a QoS budget: 0 means unlimited on the wire.
fn fmt_limit(v: u64) -> String {
    if v == 0 {
        "-".to_string()
    } else {
        v.to_string()
    }
}

const ARRAY_MODE_NAMES: [&str; 3] = ["fault-free", "degraded", "post-recon"];

/// `pddl volume` — volume lifecycle management against a served pool.
pub fn volume(cli: &Cli) -> Result<(), String> {
    let action = cli
        .positional
        .first()
        .map(String::as_str)
        .ok_or("usage: pddl volume <list|create|delete|resize> --addr HOST:PORT …")?;
    let mut c = telemetry_client(cli)?;
    match action {
        "list" => {
            let pool = c.pool_info().map_err(|e| e.to_string())?;
            println!(
                "pool: {} volume(s), unit {} B, {} array(s)",
                pool.volumes,
                pool.unit_bytes,
                pool.arrays.len()
            );
            for (i, a) in pool.arrays.iter().enumerate() {
                println!(
                    "  array {i}: {} disks, {}/{} units free, {}{}",
                    a.disks,
                    a.free_units,
                    a.capacity_units,
                    ARRAY_MODE_NAMES
                        .get(a.mode as usize)
                        .copied()
                        .unwrap_or("?"),
                    if a.failed.is_empty() {
                        String::new()
                    } else {
                        format!(", failed disks {:?}", a.failed)
                    }
                );
            }
            println!(
                "{:<4} {:<16} {:>12} {:>8} {:>7} {:>10} {:>12}",
                "id", "name", "units", "tenant", "weight", "ops/s", "bytes/s"
            );
            for v in c.volume_list().map_err(|e| e.to_string())? {
                println!(
                    "{:<4} {:<16} {:>12} {:>8} {:>7} {:>10} {:>12}",
                    v.id,
                    v.name,
                    v.capacity_units,
                    v.tenant,
                    v.weight,
                    fmt_limit(v.ops_per_sec),
                    fmt_limit(v.bytes_per_sec),
                );
            }
            Ok(())
        }
        "create" => {
            let name = cli.get("name").ok_or("--name is required")?;
            let units: u64 = cli.num("units", 0)?;
            if units == 0 {
                return Err("--units must be a positive unit count".into());
            }
            let mut spec = VolumeSpec::new(name, units);
            spec.tenant = cli.num("tenant", 0)?;
            spec.weight = cli.num("weight", 1)?;
            spec.ops_per_sec = cli.num("ops-per-sec", 0)?;
            spec.bytes_per_sec = cli.num("bytes-per-sec", 0)?;
            let id = c.volume_create(&spec).map_err(|e| e.to_string())?;
            println!(
                "created volume {id}: {name}, {units} units, tenant {}",
                spec.tenant
            );
            Ok(())
        }
        "delete" => {
            let id: u8 = cli
                .get("id")
                .ok_or("--id is required")?
                .parse()
                .map_err(|_| "--id: not a volume id".to_string())?;
            c.volume_delete(id).map_err(|e| e.to_string())?;
            println!("deleted volume {id}");
            Ok(())
        }
        "resize" => {
            let id: u8 = cli
                .get("id")
                .ok_or("--id is required")?
                .parse()
                .map_err(|_| "--id: not a volume id".to_string())?;
            let units: u64 = cli.num("units", 0)?;
            if units == 0 {
                return Err("--units must be a positive unit count".into());
            }
            c.volume_resize(id, units).map_err(|e| e.to_string())?;
            println!("resized volume {id} to {units} units");
            Ok(())
        }
        other => Err(format!(
            "unknown volume action {other:?} (expected list, create, delete, or resize)"
        )),
    }
}

const REBUILD_STATE_NAMES: [&str; 5] = ["none", "running", "done", "failed", "paused"];

/// `pddl top` — live per-op rates and latency percentiles polled from
/// STATS. `--iters 0` (the default) runs until killed; a positive
/// count makes the command bounded, which is what tests and scripted
/// probes want.
pub fn top(cli: &Cli) -> Result<(), String> {
    let iters: u64 = cli.num("iters", 0)?;
    let interval = std::time::Duration::from_millis(cli.num("interval-ms", 1_000)?);
    // --volume V narrows the per-volume section to one volume's series.
    let vol_filter: Option<u64> = match cli.get("volume") {
        Some(v) => Some(
            v.parse()
                .map_err(|_| format!("--volume: not a volume id: {v}"))?,
        ),
        None => None,
    };
    let mut c = telemetry_client(cli)?;
    let mut prev = c.stats().map_err(|e| e.to_string())?;
    let mut prev_t = std::time::Instant::now();
    let mut tick = 0u64;
    loop {
        tick += 1;
        if iters != 0 && tick > iters {
            return Ok(());
        }
        std::thread::sleep(interval);
        let snap = c.stats().map_err(|e| e.to_string())?;
        let dt = prev_t.elapsed().as_secs_f64().max(1e-9);
        prev_t = std::time::Instant::now();

        println!(
            "-- tick {tick}  queue {:.0}  degraded reads {}",
            snap.gauge("queue.depth").unwrap_or(0.0),
            snap.counter("array.degraded_reads").unwrap_or(0),
        );
        println!(
            "{:<14} {:>9} {:>10} {:>7} {:>9} {:>9}",
            "op", "ops/s", "total", "errors", "p50(µs)", "p99(µs)"
        );
        for (name, total) in &snap.counters {
            let Some(op) = name
                .strip_prefix("op.")
                .and_then(|n| n.strip_suffix(".count"))
            else {
                continue;
            };
            let before = prev.counter(name).unwrap_or(0);
            let rate = (total.saturating_sub(before)) as f64 / dt;
            if *total == 0 {
                continue; // an op never issued earns no row
            }
            let errors = snap.counter(&format!("op.{op}.errors")).unwrap_or(0);
            let (p50, p99) = snap
                .hist(&format!("latency.{op}_ns"))
                .map_or((0, 0), |h| (h.quantile(0.5), h.quantile(0.99)));
            println!(
                "{op:<14} {rate:>9.1} {total:>10} {errors:>7} {:>9.1} {:>9.1}",
                p50 as f64 / 1e3,
                p99 as f64 / 1e3,
            );
        }
        // Per-volume series (volume.* counters carry {tenant,volume}
        // labels); hidden entirely when the pool has no labeled rows.
        let mut vol_any = false;
        for (name, total) in &snap.counters {
            if !name.starts_with("volume.") || *total == 0 {
                continue;
            }
            if let Some(v) = vol_filter {
                if !name.contains(&format!("volume=\"{v}\"")) {
                    continue;
                }
            }
            if !vol_any {
                println!("{:<44} {:>9} {:>10}", "volume series", "/s", "total");
                vol_any = true;
            }
            let before = prev.counter(name).unwrap_or(0);
            let rate = (total.saturating_sub(before)) as f64 / dt;
            println!("{name:<44} {rate:>9.1} {total:>10}");
        }
        // Per-shard runtime health (sharded backend only): queued
        // connection frames, messages the last inbox drain took, epoll
        // wakeup rate, plus accept-loop exhaustion backoffs.
        let mut shard_any = false;
        for (name, queued) in &snap.gauges {
            let Some(label) = name
                .strip_prefix("shard.queue_depth{shard=\"")
                .and_then(|n| n.strip_suffix("\"}"))
            else {
                continue;
            };
            if !shard_any {
                println!(
                    "{:<8} {:>9} {:>10} {:>10}",
                    "shard", "queued", "inbox", "wakeups/s"
                );
                shard_any = true;
            }
            let inbox = snap
                .gauge(&format!("shard.inbox_depth{{shard=\"{label}\"}}"))
                .unwrap_or(0.0);
            let wname = format!("shard.wakeups{{shard=\"{label}\"}}");
            let wakeups = snap.counter(&wname).unwrap_or(0);
            let wrate = wakeups.saturating_sub(prev.counter(&wname).unwrap_or(0)) as f64 / dt;
            println!("{label:<8} {queued:>9.0} {inbox:>10.0} {wrate:>10.1}");
        }
        if shard_any {
            let accept_errors = snap.counter("server.accept_errors").unwrap_or(0);
            if accept_errors > 0 {
                println!("accept errors (fd exhaustion backoffs): {accept_errors}");
            }
        }
        let state = snap.gauge("rebuild.state").unwrap_or(0.0) as usize;
        if state != 0 {
            println!(
                "rebuild: {} disk {:.0}  {:.0}/{:.0} stripes",
                REBUILD_STATE_NAMES.get(state).unwrap_or(&"?"),
                snap.gauge("rebuild.disk").unwrap_or(0.0),
                snap.gauge("rebuild.repaired").unwrap_or(0.0),
                snap.gauge("rebuild.total").unwrap_or(0.0),
            );
        }
        prev = snap;
    }
}
