//! `stackbench`: one closed-loop benchmark of the served PDDL stack
//! (array → engine → sharded runtime → wire), end to end and layer by
//! layer. See `README.md` beside this file for every mode, metric and
//! workload.
//!
//! The bin uses only the layers' public APIs and carries its own load
//! generator, client, verifier and estimators, so freezing this
//! directory freezes the load.

mod affinity;
mod client;
mod compare;
mod content;
mod gen;
mod json;
mod layers;
mod metrics;
mod stats;
mod trace;
mod workload;

use std::fmt::Write as _;
use std::io::Write as _;
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;

use pddl_obs::escape_json;
use pddl_server::{CommitConfig, RebuildConfig};

use gen::Spec;
use layers::Effort;
use stats::median;
use workload::{RunConfig, RunResult, Sabotage};

const USAGE: &str = "\
usage: stackbench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
                  [--quick] [--report FILE] [--out DIR]
       stackbench --sabotage all|flip-byte|drop-generation|timeout
       stackbench --compare BASE.jsonl[,..] CHANGE.jsonl[,..]
workloads: small_qd1 write_small_qd16 mixed_zipf_qd8 degraded_rebuild (default: all four)";

/// Warm-up of the same traffic, discarded. The volume is prefilled
/// through the server, so per-slice throughput is level from the first
/// second; the warm-up only has to fill socket buffers and frame pools.
const WARMUP: Duration = Duration::from_secs(2);
const DEFAULT_SECONDS: u64 = 20;
const SETUP_REPS: usize = 3;
/// Ops replayed below the wire by the traced run, at most; and the
/// most time each depth may take.
const REPLAY_OPS: u64 = 200_000;
const REPLAY_BUDGET: Duration = Duration::from_millis(1500);

#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<u64>,
    traced: bool,
    quick: bool,
    report: Option<String>,
    out: Option<String>,
    sabotage: Option<String>,
    compare: Option<(String, String)>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        seed: 1,
        ..Args::default()
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: u64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&s) {
                    return Err("--seconds must be 1..=60".into());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--traced" => args.traced = true,
            "--quick" => args.quick = true,
            "--report" => args.report = Some(value()?),
            "--out" => args.out = Some(value()?),
            "--sabotage" => args.sabotage = Some(value()?),
            "--compare" => args.compare = Some((value()?, value()?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn run_config(args: &Args, spec: &'static Spec) -> Result<RunConfig, String> {
    let sabotage = match args.sabotage.as_deref() {
        None => None,
        Some(kind) => Some(
            Sabotage::ALL
                .iter()
                .find(|(name, _)| *name == kind)
                .map(|(_, s)| *s)
                .ok_or_else(|| format!("unknown sabotage `{kind}`"))?,
        ),
    };
    let seconds = args
        .seconds
        .unwrap_or(if args.quick { 2 } else { DEFAULT_SECONDS });
    Ok(RunConfig {
        spec,
        seed: args.seed,
        periods: if args.quick {
            8
        } else {
            workload::FULL_PERIODS
        },
        warmup: if args.quick {
            Duration::from_secs(1)
        } else {
            WARMUP
        },
        window: Duration::from_secs(seconds),
        setup_reps: if args.quick { 1 } else { SETUP_REPS },
        traced: args.traced,
        sabotage,
        // The planted timeout should not cost the self-test ten seconds.
        op_timeout: if sabotage == Some(Sabotage::Timeout) {
            Duration::from_millis(300)
        } else {
            client::OP_TIMEOUT
        },
    })
}

fn first_line_of(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// Where and how the run was made, for the report file.
fn config_json(cfg: &RunConfig) -> String {
    let read = |p: &str| std::fs::read_to_string(p).unwrap_or_default();
    let cpuinfo = read("/proc/cpuinfo");
    let cpu = cpuinfo
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split(':').nth(1))
        .map_or("unknown".to_string(), |s| s.trim().to_string());
    // Counted from cpuinfo: the process has pinned itself to one CPU by
    // now, so `available_parallelism` would say 1.
    let nproc = cpuinfo
        .lines()
        .filter(|l| l.starts_with("processor"))
        .count();
    format!(
        "{{\"seed\":{},\"commit\":\"{}\",\"nproc\":{nproc},\"osrelease\":\"{}\",\"cpu\":\"{}\",\"rustc\":\"{}\",\
         \"disks\":{},\"width\":{},\"unit_bytes\":{},\"periods\":{},\"warmup_s\":{},\"window_s\":{},\"setup_reps\":{},\
         \"server_config\":\"{}\",\"rebuild_config\":\"{}\",\"commit_config\":\"{}\"}}",
        cfg.seed,
        escape_json(&first_line_of("git", &["rev-parse", "HEAD"])),
        escape_json(read("/proc/sys/kernel/osrelease").trim()),
        escape_json(&cpu),
        escape_json(&first_line_of("rustc", &["--version"])),
        workload::DISKS,
        workload::WIDTH,
        workload::UNIT_BYTES,
        cfg.periods,
        cfg.warmup.as_secs(),
        cfg.window.as_secs(),
        cfg.setup_reps,
        escape_json(&format!("{:?}", workload::server_config(cfg.spec.shards))),
        escape_json(&format!("{:?}", RebuildConfig::default())),
        escape_json(&format!("{:?}", CommitConfig::default())),
    )
}

fn quantile(values: &mut [f64], q: f64) -> Option<f64> {
    values.sort_by(f64::total_cmp);
    stats::quantile_sorted(values, q)
}

fn end_to_end_values(result: &RunResult) -> Vec<(String, Option<f64>)> {
    let w = &result.window;
    [
        ("setup_s", median(&result.setup_s)),
        ("peak_rss_mib", Some(result.peak_rss_mib)),
        ("ops_per_s", w.ops_per_s),
        ("read_p50_us", w.read_p50_us),
        ("read_p99_us", w.read_p99_us),
        ("write_p50_us", w.write_p50_us),
        ("write_p99_us", w.write_p99_us),
        ("rebuild_mib_s", result.rebuild_mib_s),
    ]
    .into_iter()
    .map(|(n, v)| (n.to_string(), v))
    .collect()
}

/// The traced run's workload metrics, from the server's own exports,
/// `/proc`, the joined spans and the replay.
fn workload_layer_values(
    cfg: &RunConfig,
    result: &RunResult,
    replay: &trace::Replay,
) -> Vec<(String, Option<f64>)> {
    let traced = result.traced.as_ref().expect("traced run");
    let t = &traced.tracer;
    let spans: Vec<&pddl_obs::OpSpan> = t.spans.values().collect();
    let us_of = |pick: &dyn Fn(&pddl_obs::OpSpan) -> Option<u64>, q: f64| {
        let mut v: Vec<f64> = spans
            .iter()
            .filter_map(|s| pick(s))
            .map(|ns| ns as f64 / 1e3)
            .collect();
        quantile(&mut v, q)
    };
    let is =
        |kind: pddl_obs::OpKind| move |s: &pddl_obs::OpSpan| (s.op == kind).then_some(s.total_ns);
    let joined = trace::join(&traced.client_spans, &t.spans);
    // A server span longer than the client op that contains it would be
    // a negative residual: then the decomposition does not hold and the
    // metric is withheld, which fails the run.
    let mut transport: Vec<f64> = joined
        .iter()
        .map_while(|j| {
            let client = j.client.end_ns - j.client.start_ns;
            client
                .checked_sub(j.server.total_ns)
                .map(|ns| ns as f64 / 1e3)
        })
        .collect();
    if transport.len() < joined.len() {
        transport.clear();
    }
    let delta = |name: &str| match (&t.stats_begin, &t.stats_end) {
        (Some(b), Some(e)) => Some(trace::counter_delta(b, e, name) as f64),
        _ => None,
    };
    let reads = delta("op.read.count");
    let writes = delta("op.write.count");
    let ops = reads.zip(writes).map(|(r, w)| r + w).filter(|o| *o > 0.0);
    let per_op = |v: Option<f64>| v.zip(ops).map(|(v, o)| v / o);
    let overhead = traced
        .traced_slices
        .ops_per_s
        .zip(traced.untraced_slices.ops_per_s)
        .map(|(with, without)| 1.0 - with / without);
    [
        (
            "server_read_p50_us",
            us_of(&is(pddl_obs::OpKind::Read), 0.5),
        ),
        (
            "server_write_p50_us",
            us_of(&is(pddl_obs::OpKind::Write), 0.5),
        ),
        (
            "server_queue_wait_p99_us",
            us_of(&|s| Some(s.queue_ns), 0.99),
        ),
        ("server_array_p50_us", us_of(&|s| Some(s.array_ns), 0.5)),
        ("transport_p50_us", quantile(&mut transport, 0.5)),
        ("shard_wakeups_per_op", per_op(delta("shard.wakeups"))),
        (
            "shard_cpu_us_per_op",
            per_op(Some(t.shard_cpu_ns as f64 / 1e3)),
        ),
        (
            "rebuild_cpu_frac",
            Some(t.rebuild_cpu_ns as f64 / cfg.window.as_nanos() as f64),
        ),
        (
            "loadgen_cpu_us_per_op",
            Some(result.loadgen_cpu_ns as f64 / 1e3 / result.attempted.max(1) as f64),
        ),
        ("dev_reads_per_op", per_op(delta("array.unit_reads"))),
        (
            "dev_writes_per_write",
            delta("array.unit_writes")
                .zip(writes.filter(|w| *w > 0.0))
                .map(|(d, w)| d / w),
        ),
        (
            "degraded_reads_per_op",
            per_op(delta("array.degraded_reads")),
        ),
        ("array_replay_ns_per_op", Some(replay.array_ns_per_op)),
        ("engine_replay_ns_per_op", Some(replay.engine_ns_per_op)),
        ("trace_overhead_frac", overhead),
    ]
    .into_iter()
    .map(|(n, v)| (n.to_string(), v))
    .collect()
}

fn unit_of(name: &str) -> &'static str {
    metrics::END_TO_END
        .iter()
        .chain(metrics::per_layer())
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("metric `{name}` is not declared in metrics.rs"))
        .unit
}

fn metrics_json(values: &[(String, f64)]) -> String {
    let body: Vec<String> = values
        .iter()
        .map(|(name, v)| {
            format!(
                "\"{name}\":{{\"value\":{v},\"unit\":\"{}\"}}",
                unit_of(name)
            )
        })
        .collect();
    format!("{{{}}}", body.join(","))
}

/// Everything one `--workload` invocation produces.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64)>,
    /// Human-readable account, printed above the result line.
    notes: String,
    trace_json: Option<String>,
}

fn run_workload(cfg: &RunConfig, quick: bool) -> Outcome {
    let effort = if quick { Effort::QUICK } else { Effort::FULL };
    let mut notes = String::new();
    // Everything from here on, server threads included, shares one CPU
    // (see `affinity.rs` for the measurements behind that).
    let _ = match affinity::pin_to_one_cpu() {
        Some(cpu) => writeln!(notes, "all threads pinned to CPU {cpu}"),
        None => writeln!(notes, "could not pin: thread placement is the scheduler's"),
    };
    // The traced run's off-server measurements come first, so their
    // arrays are gone before the served one is built.
    let before = cfg.traced.then(|| {
        let statics = layers::measure(effort);
        let (max_ops, budget) = if quick {
            (20_000, REPLAY_BUDGET / 10)
        } else {
            (REPLAY_OPS, REPLAY_BUDGET)
        };
        let replay = trace::replay_at_depth(cfg.spec, cfg.seed, cfg.periods, max_ops, budget);
        (statics, replay)
    });
    let mut result = workload::run(cfg);
    let w = &result.window;
    let _ = writeln!(notes, "workload {}: {}", cfg.spec.name, cfg.spec.why);
    let _ = writeln!(
        notes,
        "seed {} digest {:016x} capacity {} units; set-up {:?} s",
        cfg.seed, result.sequence_digest, result.capacity_units, result.setup_s
    );
    let _ = writeln!(
        notes,
        "window {} s: {} reads, {} writes; fewest per slice {} reads, {} writes (a slice's p99 has a hundredth of that beyond it)",
        cfg.window.as_secs(), w.reads, w.writes, w.min_slice_reads, w.min_slice_writes
    );
    let _ = writeln!(notes, "ops/s by slice: {:?}", w.slice_rates);
    if let Some((reads, writes)) = result.tail_samples {
        let _ = writeln!(
            notes,
            "slices are rebuild cycles; p99s are over the {reads} reads and {writes} writes in flight while a rebuild ran"
        );
    }
    let cycles: Vec<String> = result
        .cycles
        .iter()
        .filter(|c| c.in_window)
        .map(|c| format!("d{}:{}ms", c.disk, c.rebuild().as_millis()))
        .collect();
    let _ = writeln!(
        notes,
        "rebuild cycles: {} run, {} counted (disk:accepted-to-done) {}",
        result.cycles.len(),
        cycles.len(),
        cycles.join(" ")
    );
    let _ = writeln!(
        notes,
        "readback {} units, scrub suspects {}",
        result.capacity_units, result.scrub_suspects
    );

    let named: Vec<(String, Option<f64>)> = match &before {
        None => end_to_end_values(&result),
        Some((statics, replay)) => {
            let _ = writeln!(notes, "replay below the wire: {} ops per depth", replay.ops);
            statics
                .iter()
                .map(|(n, v)| (n.clone(), Some(*v)))
                .chain(workload_layer_values(cfg, &result, replay))
                .collect()
        }
    };
    let mut metrics = Vec::new();
    for (name, value) in named {
        match value.filter(|v| v.is_finite()) {
            Some(v) => metrics.push((name, v)),
            None => result
                .problems
                .push(format!("metric {name} could not be measured")),
        }
    }
    let trace_json = result.traced.as_ref().map(|t| {
        let tracer = &t.tracer;
        let _ = writeln!(
            notes,
            "traced: {} TRACE_DUMPs, {} server spans, {} client spans",
            tracer.dumps,
            tracer.spans.len(),
            t.client_spans.len()
        );
        result.problems.extend(tracer.problems.iter().cloned());
        let joined = trace::join(&t.client_spans, &tracer.spans);
        trace::chrome_trace(&joined, t.epoch_offset_ns, 50_000)
    });
    for p in &result.problems {
        let _ = writeln!(notes, "PROBLEM: {p}");
    }
    Outcome {
        correct: result.correct(),
        attempted: result.attempted.max(1),
        failed: result.failed,
        metrics,
        notes,
        trace_json,
    }
}

fn run_one(args: &Args, spec: &'static Spec) -> Result<ExitCode, String> {
    let cfg = run_config(args, spec)?;
    let outcome = run_workload(&cfg, args.quick);
    print!("{}", outcome.notes);
    for (name, v) in &outcome.metrics {
        println!("{name:<32} {v:>16.4} {}", unit_of(name));
    }
    let metrics = metrics_json(&outcome.metrics);
    let result = format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{metrics}}}",
        outcome.correct, outcome.attempted, outcome.failed
    );
    if let Some(path) = &args.report {
        let line = format!(
            "{{\"workload\":\"{}\",\"trace\":{},\"quick\":{},\"config\":{},{}\n",
            spec.name,
            u8::from(cfg.traced),
            args.quick,
            config_json(&cfg),
            &result[1..]
        );
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| f.write_all(line.as_bytes()))
            .map_err(|e| format!("{path}: {e}"))?;
    }
    if let (Some(dir), Some(trace_json)) = (&args.out, &outcome.trace_json) {
        let write = |name: &str, body: &str| {
            std::fs::create_dir_all(dir)
                .and_then(|()| std::fs::write(format!("{dir}/{name}"), body))
                .map_err(|e| format!("{dir}/{name}: {e}"))
        };
        write(&format!("{}.trace.json", spec.name), trace_json)?;
        let tsv: String = outcome
            .metrics
            .iter()
            .map(|(n, v)| format!("{n}\t{v}\t{}\n", unit_of(n)))
            .collect();
        write(&format!("{}.layers.tsv", spec.name), &tsv)?;
    }
    println!("{result}");
    Ok(if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Run this binary again with `argv`, echo what it prints, and return
/// its exit status and the run result it printed last.
fn child(argv: &[String]) -> Result<(bool, json::Value), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(argv)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    print!("{text}");
    let last = text.lines().last().unwrap_or_default();
    let value = json::parse(last).map_err(|e| format!("child printed no result line: {e}"))?;
    Ok((out.status.success(), value))
}

/// Each workload in a fresh process of this binary, so set-up time and
/// peak memory are that workload's alone.
fn run_all(argv: &[String]) -> Result<ExitCode, String> {
    let mut ok = true;
    for spec in &gen::WORKLOADS {
        let mut child_argv = vec!["--workload".to_string(), spec.name.to_string()];
        child_argv.extend_from_slice(argv);
        ok &= child(&child_argv)?.0;
    }
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// The verifier's self-test: each planted defect must fail its run.
fn sabotage_all() -> Result<ExitCode, String> {
    let mut caught = 0;
    for (kind, _) in Sabotage::ALL {
        let argv = ["--workload", "small_qd1", "--quick", "--sabotage", kind].map(String::from);
        let (success, result) = child(&argv)?;
        let failed = result.get("failed").and_then(json::Value::as_f64);
        let seen = !success && failed.is_some_and(|f| f > 0.0);
        println!(
            "sabotage {kind}: {}",
            if seen { "caught" } else { "MISSED" }
        );
        caught += usize::from(seen);
    }
    Ok(if caught == Sabotage::ALL.len() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn dispatch(argv: &[String]) -> Result<ExitCode, String> {
    let args = parse_args(argv)?;
    if let Some((base, change)) = &args.compare {
        let (table, regressed) = compare::compare(base, change)?;
        print!("{table}");
        return Ok(if regressed {
            ExitCode::FAILURE
        } else {
            ExitCode::SUCCESS
        });
    }
    if args.sabotage.as_deref() == Some("all") {
        return sabotage_all();
    }
    match &args.workload {
        None => run_all(argv),
        Some(name) => {
            let spec = gen::workload(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
            run_one(&args, spec)
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    dispatch(&argv).unwrap_or_else(|why| {
        eprintln!("stackbench: {why}\n{USAGE}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// `BENCHMARK.json` at the repository root, five directories up.
    const BENCHMARK_JSON: &str = include_str!("../../../../../BENCHMARK.json");

    fn declared(section: &str) -> Vec<json::Value> {
        let doc = json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        doc.get(section)
            .and_then(json::Value::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no `{section}`"))
            .to_vec()
    }

    fn text<'a>(v: &'a json::Value, key: &str) -> &'a str {
        v.get(key).and_then(json::Value::as_str).unwrap_or_default()
    }

    #[test]
    fn benchmark_json_declares_exactly_the_metrics_table() {
        for (section, table) in [
            ("end_to_end", metrics::END_TO_END.iter().collect::<Vec<_>>()),
            ("per_layer", metrics::per_layer().collect()),
        ] {
            let declared = declared(section);
            assert_eq!(declared.len(), table.len(), "{section}");
            for (d, m) in declared.iter().zip(table) {
                assert_eq!(text(d, "name"), m.name);
                assert_eq!(text(d, "unit"), m.unit, "{}", m.name);
                assert_eq!(text(d, "better"), m.better.as_str(), "{}", m.name);
                assert_eq!(
                    d.get("bound").and_then(json::Value::as_f64),
                    m.bound,
                    "{}",
                    m.name
                );
            }
        }
        let names: Vec<&str> = gen::WORKLOADS.iter().map(|w| w.name).collect();
        let declared = declared("workloads");
        assert_eq!(
            declared.iter().map(|w| text(w, "name")).collect::<Vec<_>>(),
            names
        );
        for (d, w) in declared.iter().zip(&gen::WORKLOADS) {
            assert_eq!(text(d, "why"), w.why);
        }
    }

    /// The `--quick` smoke: every workload, untraced and traced, emits
    /// each declared metric exactly once, nothing undeclared, and
    /// verifies clean.
    #[test]
    fn quick_runs_emit_every_declared_metric_exactly_once() {
        for spec in &gen::WORKLOADS {
            for traced in [false, true] {
                let args = Args {
                    seed: 3,
                    quick: true,
                    traced,
                    ..Args::default()
                };
                let cfg = run_config(&args, spec).unwrap();
                let outcome = run_workload(&cfg, true);
                assert!(
                    outcome.correct,
                    "{} traced={traced}:\n{}",
                    spec.name, outcome.notes
                );
                assert_eq!(outcome.failed, 0);
                let want: BTreeSet<&str> = if traced {
                    metrics::per_layer().map(|m| m.name).collect()
                } else {
                    metrics::END_TO_END.iter().map(|m| m.name).collect()
                };
                let got: Vec<&str> = outcome.metrics.iter().map(|(n, _)| n.as_str()).collect();
                let got_set: BTreeSet<&str> = got.iter().copied().collect();
                assert_eq!(got.len(), got_set.len(), "a metric was emitted twice");
                assert_eq!(got_set, want, "{} traced={traced}", spec.name);
                pddl_obs::validate_json(&metrics_json(&outcome.metrics)).unwrap();
                if let Some(trace_json) = &outcome.trace_json {
                    pddl_obs::validate_json(trace_json).expect("trace.json");
                }
            }
        }
    }

    #[test]
    fn every_planted_defect_fails_its_run() {
        for (kind, _) in Sabotage::ALL {
            let args = Args {
                seed: 1,
                quick: true,
                sabotage: Some(kind.to_string()),
                ..Args::default()
            };
            let cfg = run_config(&args, gen::workload("small_qd1").unwrap()).unwrap();
            let outcome = run_workload(&cfg, true);
            assert!(!outcome.correct, "{kind} went unnoticed");
            assert!(outcome.failed > 0, "{kind}: failed_frac stayed 0");
        }
    }

    #[test]
    fn argument_errors_are_reported() {
        let argv = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        assert!(parse_args(&argv("--seconds 0")).is_err());
        assert!(parse_args(&argv("--trace 2")).is_err());
        assert!(parse_args(&argv("--bogus")).is_err());
        let a = parse_args(&argv("--workload small_qd1 --seed 9 --seconds 5 --trace 1")).unwrap();
        assert_eq!((a.seed, a.seconds, a.traced), (9, Some(5), true));
    }
}
