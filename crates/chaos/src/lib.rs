//! `pddl-chaos` — deterministic fault-injection harness for the
//! `pddl-server` block service.
//!
//! A run is a pure function of `(config, seed)`:
//!
//! 1. [`plan::generate`] expands the seed into a [`plan::FaultPlan`] —
//!    one injectable event per round (disk/spare failures, armed media
//!    faults, rebuild throttling, client reconnects, hostile wire
//!    frames, scratch-volume churn, cross-tenant QoS retunes),
//!    constrained by a lifecycle grammar so every schedule is legal by
//!    construction.
//! 2. [`nemesis::run`] replays the plan against a real loopback server
//!    while N client threads issue seeded workloads over disjoint
//!    block regions — with `--volumes V` the pool is carved into V
//!    tenant volumes and client `c` addresses volume `c % V` — and
//!    records per-client histories. Rounds are barrier-synchronized:
//!    faults toggle only while clients are parked, which is what makes
//!    concurrent execution reproducible.
//! 3. [`checker::check`] validates the histories against a sequential
//!    block-store model plus end-state invariants (scrub, journal,
//!    readback, metric counters).
//! 4. On failure, [`shrink::shrink`] reruns prefixes of the plan and
//!    reports the shortest schedule that still reproduces, along with
//!    the seed — `pddl-chaos --seed N` replays it exactly.

mod access;
pub mod checker;
pub mod nemesis;
pub mod plan;
pub mod shrink;

pub use access::AccessDist;
pub use checker::{check, Violation};
pub use nemesis::{run, RunResult};
pub use plan::{generate, ChaosConfig, FaultPlan};
pub use shrink::{shrink, Shrunk};

/// Everything learned from one seed.
pub struct SeedReport {
    pub seed: u64,
    pub plan: FaultPlan,
    /// Order-sensitive digest of histories + end state; two runs of
    /// the same seed must agree.
    pub digest: u64,
    pub violations: Vec<Violation>,
    /// Present when the seed failed and shrinking found a shorter
    /// reproduction.
    pub shrunk: Option<Shrunk>,
}

/// Generate, execute, and check one seed; shrink on failure.
pub fn run_seed(cfg: &ChaosConfig, seed: u64, do_shrink: bool) -> Result<SeedReport, String> {
    let plan = generate(seed, cfg)?;
    let result = run(cfg, &plan)?;
    let violations = check(cfg, &plan, &result);
    let shrunk = if do_shrink && !violations.is_empty() {
        shrink(cfg, &plan)
    } else {
        None
    };
    Ok(SeedReport {
        seed,
        plan,
        digest: result.digest(),
        violations,
        shrunk,
    })
}

const USAGE: &str = "\
pddl-chaos: deterministic fault-injection harness for pddl-server

USAGE:
    pddl-chaos [OPTIONS]

OPTIONS:
    --seed N        run exactly this seed, twice, and require identical
                    digests (reproduction / determinism mode)
    --seeds N       run seeds 0..N (default 10)
    --ops N         total client ops per seed (default 288)
    --clients N     concurrent client connections (default 3)
    --volumes N     carve the pool into N tenant volumes, 1..=8
                    (default 1; the sweep mixes in 3-volume seeds)
    --rounds N      fault-plan rounds per seed (default 12)
    --disks N       array size (default 7)
    --width N       stripe width, data+check (default 3)
    --unit N        unit size in bytes (default 32)
    --periods N     layout periods of capacity (default 3)
    --access D      client offset distribution inside each region:
                    uniform (default), zipfian (θ = 0.99), or hotspot
                    (20% window, 90% weight, shifting every 4 draws)
    --sabotage      corrupt one block behind the checker's back
                    (self-test: the run MUST fail)
    -h, --help      print this help

A failing seed prints its minimal reproducing schedule and the exact
command line that replays it.";

/// Command line shared by the `pddl-chaos` binary and the `pddl chaos`
/// subcommand. Returns the process exit code.
pub fn run_cli(args: &[String]) -> i32 {
    let mut cfg = ChaosConfig::default();
    let mut seed: Option<u64> = None;
    let mut seeds: u64 = 10;
    let mut total_ops: usize = cfg.rounds * cfg.clients * cfg.ops_per_round;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        macro_rules! val {
            ($name:expr) => {
                match it.next().map(|v| v.parse()) {
                    Some(Ok(v)) => v,
                    _ => {
                        eprintln!("pddl-chaos: {} needs a numeric value", $name);
                        return 2;
                    }
                }
            };
        }
        match arg.as_str() {
            "--seed" => seed = Some(val!("--seed")),
            "--seeds" => seeds = val!("--seeds"),
            "--ops" => total_ops = val!("--ops"),
            "--clients" => cfg.clients = val!("--clients"),
            "--volumes" => cfg.volumes = val!("--volumes"),
            "--rounds" => cfg.rounds = val!("--rounds"),
            "--disks" => cfg.disks = val!("--disks"),
            "--width" => cfg.width = val!("--width"),
            "--unit" => cfg.unit_bytes = val!("--unit"),
            "--periods" => cfg.periods = val!("--periods"),
            "--access" => {
                cfg.access = match it.next().map(String::as_str) {
                    Some("uniform") => AccessDist::Uniform,
                    Some("zipfian") => AccessDist::Zipfian { theta: 0.99 },
                    Some("hotspot") => AccessDist::Hotspot {
                        fraction: 0.2,
                        weight: 0.9,
                        shift_every: 4,
                    },
                    other => {
                        eprintln!(
                            "pddl-chaos: --access needs uniform, zipfian, or hotspot, got {other:?}"
                        );
                        return 2;
                    }
                }
            }
            "--sabotage" => cfg.sabotage = true,
            "-h" | "--help" => {
                println!("{USAGE}");
                return 0;
            }
            other => {
                eprintln!("pddl-chaos: unknown argument {other:?}\n\n{USAGE}");
                return 2;
            }
        }
    }
    if cfg.clients == 0 || cfg.rounds == 0 {
        eprintln!("pddl-chaos: --clients and --rounds must be nonzero");
        return 2;
    }
    if cfg.volumes == 0 || cfg.volumes > 8 {
        eprintln!("pddl-chaos: --volumes must be 1..=8");
        return 2;
    }
    cfg.ops_per_round = (total_ops / (cfg.rounds * cfg.clients)).max(1);
    if let Err(e) = cfg.layout() {
        eprintln!("pddl-chaos: {e}");
        return 2;
    }
    match seed {
        Some(seed) => run_one(&cfg, seed),
        None => run_many(&cfg, seeds),
    }
}

/// Reproduction mode: one seed, executed twice; digests must agree.
fn run_one(cfg: &ChaosConfig, seed: u64) -> i32 {
    println!("pddl-chaos: seed {seed} ({})", describe(cfg));
    let first = match run_seed(cfg, seed, true) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("seed {seed}: harness error: {e}");
            return 1;
        }
    };
    let second = match run_seed(cfg, seed, false) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("seed {seed}: harness error on replay: {e}");
            return 1;
        }
    };
    println!(
        "run 1 digest {:016x}\nrun 2 digest {:016x}",
        first.digest, second.digest
    );
    if first.digest != second.digest {
        eprintln!("seed {seed}: NONDETERMINISTIC — digests differ between identical runs");
        return 1;
    }
    if first.violations.is_empty() {
        println!(
            "seed {seed}: ok ({} events, deterministic)",
            first.plan.events.len()
        );
        return 0;
    }
    report_failure(cfg, &first);
    1
}

/// Sweep mode: seeds `0..n`, stopping at the first failure. When the
/// caller left `--volumes` at its default, every fourth seed runs
/// multi-volume (3 tenants) so the CI sweep always exercises the
/// volume manager under faults.
fn run_many(cfg: &ChaosConfig, n: u64) -> i32 {
    println!("pddl-chaos: seeds 0..{n} ({})", describe(cfg));
    for seed in 0..n {
        let mut scfg = cfg.clone();
        if scfg.volumes == 1 && seed % 4 == 3 {
            scfg.volumes = 3;
        }
        match run_seed(&scfg, seed, true) {
            Ok(r) if r.violations.is_empty() => {
                println!(
                    "seed {seed:>4}: ok  {:>2} events  {} volume(s)  digest {:016x}",
                    r.plan.events.len(),
                    scfg.volumes,
                    r.digest
                );
            }
            Ok(r) => {
                report_failure(&scfg, &r);
                return 1;
            }
            Err(e) => {
                eprintln!("seed {seed}: harness error: {e}");
                eprintln!("reproduce with: {}", repro(&scfg, seed));
                return 1;
            }
        }
    }
    println!("all {n} seeds passed");
    0
}

fn report_failure(cfg: &ChaosConfig, r: &SeedReport) {
    eprintln!(
        "seed {}: FAILED with {} violation(s):",
        r.seed,
        r.violations.len()
    );
    for v in r.violations.iter().take(10) {
        eprintln!("  {v}");
    }
    if r.violations.len() > 10 {
        eprintln!("  ... and {} more", r.violations.len() - 10);
    }
    match &r.shrunk {
        Some(s) => {
            eprintln!(
                "minimal failing schedule: {} of {} events:",
                s.rounds,
                r.plan.events.len()
            );
            eprint!("{}", s.plan.render());
            eprintln!("first violation there: {}", s.violations[0]);
        }
        None => eprintln!(
            "shrinking did not reproduce; full plan:\n{}",
            r.plan.render()
        ),
    }
    eprintln!("reproduce with: {}", repro(cfg, r.seed));
}

/// The `--access` spelling of a distribution (the CLI exposes fixed
/// parameterizations, so the name alone identifies it).
fn access_name(access: AccessDist) -> &'static str {
    match access {
        AccessDist::Uniform => "uniform",
        AccessDist::Zipfian { .. } => "zipfian",
        AccessDist::Hotspot { .. } => "hotspot",
    }
}

fn describe(cfg: &ChaosConfig) -> String {
    format!(
        "{} disks, width {}, {} clients x {} rounds x {} ops, {} volume(s), {} access{}",
        cfg.disks,
        cfg.width,
        cfg.clients,
        cfg.rounds,
        cfg.ops_per_round,
        cfg.volumes,
        access_name(cfg.access),
        if cfg.sabotage { ", SABOTAGE" } else { "" }
    )
}

/// The exact command line that replays a seed under this config.
fn repro(cfg: &ChaosConfig, seed: u64) -> String {
    format!(
        "pddl-chaos --seed {seed} --ops {} --clients {} --rounds {} \
         --disks {} --width {} --unit {} --periods {} --volumes {}{}{}",
        cfg.rounds * cfg.clients * cfg.ops_per_round,
        cfg.clients,
        cfg.rounds,
        cfg.disks,
        cfg.width,
        cfg.unit_bytes,
        cfg.periods,
        cfg.volumes,
        match cfg.access {
            AccessDist::Uniform => String::new(),
            a => format!(" --access {}", access_name(a)),
        },
        if cfg.sabotage { " --sabotage" } else { "" }
    )
}
