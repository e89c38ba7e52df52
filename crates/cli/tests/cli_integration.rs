//! End-to-end tests of the `pddl` binary.

use std::process::Command;

fn pddl(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_pddl"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn help_lists_every_subcommand() {
    let (ok, stdout, _) = pddl(&["help"]);
    assert!(ok);
    for cmd in [
        "show",
        "verify",
        "search",
        "simulate",
        "rebuild",
        "drill",
        "trace-gen",
        "replay",
        "report",
        "serve",
    ] {
        assert!(stdout.contains(cmd), "usage missing {cmd}");
    }
    // No arguments behaves like help.
    let (ok, stdout2, _) = pddl(&[]);
    assert!(ok && stdout2 == stdout);
}

#[test]
fn unknown_command_fails_with_usage() {
    let (ok, _, stderr) = pddl(&["frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("unknown command") && stderr.contains("USAGE"));
}

#[test]
fn show_prints_the_seven_disk_pattern() {
    let (ok, stdout, _) = pddl(&["show", "--disks", "7", "--width", "3"]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("PDDL: n=7 k=3"));
    assert!(stdout.contains("row"));
    // One spare cell per row.
    assert_eq!(stdout.matches(" S ").count(), 7, "{stdout}");
}

#[test]
fn verify_reports_goals_for_every_layout() {
    for layout in [
        "pddl",
        "raid5",
        "parity-decl",
        "datum",
        "prime",
        "pseudo-random",
    ] {
        let (ok, stdout, stderr) = pddl(&["verify", "--layout", layout]);
        assert!(ok, "{layout}: {stderr}");
        assert!(stdout.contains("#3 distributed reconstruction"), "{layout}");
    }
    let (ok, _, stderr) = pddl(&["verify", "--layout", "nope"]);
    assert!(!ok && stderr.contains("unknown layout"));
}

#[test]
fn search_finds_the_ten_disk_pair() {
    let (ok, stdout, stderr) = pddl(&["search", "--disks", "10", "--width", "3"]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("base permutation"), "{stdout}");
    // Bad shape errors out cleanly.
    let (ok, _, stderr) = pddl(&["search", "--disks", "12", "--width", "5"]);
    assert!(!ok && stderr.contains("n = g*k + s"));
}

#[test]
fn simulate_smoke() {
    let (ok, stdout, stderr) = pddl(&[
        "simulate",
        "--clients",
        "2",
        "--size",
        "1",
        "--samples",
        "200",
    ]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("response time") && stdout.contains("throughput"));
}

#[test]
fn drill_passes_end_to_end() {
    let (ok, stdout, stderr) = pddl(&["drill", "--disks", "7", "--width", "3", "--fail", "1"]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("drill passed"), "{stdout}");
}

#[test]
fn observability_outputs_and_report() {
    let dir = std::env::temp_dir();
    let tag = std::process::id();
    let trace = dir.join(format!("pddl-cli-obs-{tag}.json"));
    let metrics = dir.join(format!("pddl-cli-obs-{tag}.tsv"));
    let (ok, stdout, stderr) = pddl(&[
        "simulate",
        "--clients",
        "2",
        "--size",
        "2",
        "--samples",
        "150",
        "--trace",
        trace.to_str().unwrap(),
        "--metrics",
        metrics.to_str().unwrap(),
    ]);
    assert!(ok, "{stderr}");
    assert!(
        stdout.contains("trace") && stdout.contains("metrics"),
        "{stdout}"
    );
    // The trace is valid JSON with balanced async spans.
    let json = std::fs::read_to_string(&trace).unwrap();
    pddl_obs::validate_json(&json).unwrap();
    assert_eq!(
        json.matches("\"ph\":\"b\"").count(),
        json.matches("\"ph\":\"e\"").count(),
        "access spans must balance"
    );
    assert!(json.contains("\"ph\":\"X\""), "physical op slices present");
    // The metrics file round-trips through `pddl report`.
    let (ok, report, stderr) = pddl(&["report", metrics.to_str().unwrap()]);
    assert!(ok, "{stderr}");
    assert!(report.contains("latency.access_ns"), "{report}");
    assert!(report.contains("skew max/mean"), "{report}");
    assert!(report.contains("driver=simulate"), "{report}");
    std::fs::remove_file(&trace).unwrap();
    std::fs::remove_file(&metrics).unwrap();
    // Missing metrics file errors cleanly.
    let (ok, _, stderr) = pddl(&["report", "/nonexistent.tsv"]);
    assert!(!ok && stderr.contains("nonexistent"));
    // Report with no path prints usage guidance.
    let (ok, _, stderr) = pddl(&["report"]);
    assert!(!ok && stderr.contains("usage"));
}

#[test]
fn observability_does_not_change_results() {
    let dir = std::env::temp_dir();
    let metrics = dir.join(format!("pddl-cli-bitident-{}.tsv", std::process::id()));
    let args = [
        "simulate",
        "--clients",
        "2",
        "--size",
        "1",
        "--samples",
        "150",
    ];
    let (ok, plain, _) = pddl(&args);
    assert!(ok);
    let mut with_obs = args.to_vec();
    with_obs.extend(["--metrics", metrics.to_str().unwrap()]);
    let (ok, observed, _) = pddl(&with_obs);
    assert!(ok);
    // All simulation lines identical; the obs run only appends the
    // output-file notices.
    let observed_head: Vec<&str> = observed
        .lines()
        .filter(|l| !l.trim_start().starts_with("metrics"))
        .collect();
    assert_eq!(plain.lines().collect::<Vec<_>>(), observed_head);
    std::fs::remove_file(&metrics).unwrap();
}

#[test]
fn serve_runs_for_a_bounded_duration() {
    let (ok, stdout, stderr) = pddl(&[
        "serve",
        "--disks",
        "7",
        "--width",
        "3",
        "--unit",
        "64",
        "--addr",
        "127.0.0.1:0",
        "--duration-ms",
        "200",
    ]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("serving on 127.0.0.1:"), "{stdout}");
    assert!(stdout.contains("served 0 requests"), "{stdout}");
}

/// `serve --metrics F --trace T` records the array's events: WRITEs
/// sent while the child serves show up as journal commits in `F`,
/// which `pddl report` reads, and `T` is valid trace JSON.
#[test]
fn serve_writes_array_metrics_and_trace() {
    use std::io::{BufRead, BufReader};
    use std::process::Stdio;

    let dir = std::env::temp_dir();
    let tag = std::process::id();
    let trace = dir.join(format!("pddl-cli-serve-{tag}.json"));
    let metrics = dir.join(format!("pddl-cli-serve-{tag}.tsv"));
    let mut child = Command::new(env!("CARGO_BIN_EXE_pddl"))
        .args([
            "serve",
            "--disks",
            "7",
            "--width",
            "3",
            "--unit",
            "64",
            "--addr",
            "127.0.0.1:0",
            "--duration-ms",
            "1500",
            "--metrics",
            metrics.to_str().unwrap(),
            "--trace",
            trace.to_str().unwrap(),
        ])
        .stdout(Stdio::piped())
        .spawn()
        .expect("binary runs");
    let mut stdout = BufReader::new(child.stdout.take().unwrap());
    let mut banner = String::new();
    stdout.read_line(&mut banner).unwrap();
    let addr = banner
        .strip_prefix("serving on ")
        .and_then(|rest| rest.split_once(": "))
        .map(|(addr, _)| addr)
        .unwrap_or_else(|| panic!("no address in {banner:?}"));
    let mut client = pddl_server::Client::connect(addr).unwrap();
    for unit in 0..8u64 {
        client.write_units(unit, &[unit as u8; 64]).unwrap();
    }
    drop(client);
    let status = child.wait().unwrap();
    let mut rest = String::new();
    std::io::Read::read_to_string(&mut stdout, &mut rest).unwrap();
    assert!(status.success(), "{banner}{rest}");

    let tsv = std::fs::read_to_string(&metrics).unwrap();
    assert!(tsv.contains("journal.commits"), "{tsv}");
    pddl_obs::validate_json(&std::fs::read_to_string(&trace).unwrap()).unwrap();
    let (ok, report, stderr) = pddl(&["report", metrics.to_str().unwrap()]);
    assert!(ok, "{stderr}");
    assert!(report.contains("journal.commits"), "{report}");
    assert!(report.contains("driver=serve"), "{report}");
    std::fs::remove_file(&trace).unwrap();
    std::fs::remove_file(&metrics).unwrap();
}

/// The telemetry commands against a live server: an in-process
/// `serve` takes READs and WRITEs from the blocking client, then the
/// binary's `stats`, `top` and `trace-dump` read them back over TCP.
#[test]
fn telemetry_commands_read_a_live_server() {
    let layout = pddl_core::Pddl::new(7, 3).unwrap();
    let array = pddl_array::DeclusteredArray::new(Box::new(layout), 64, 2).unwrap();
    let handle = pddl_server::serve(
        std::sync::Arc::new(pddl_server::Engine::new(array)),
        "127.0.0.1:0",
        pddl_server::ServerConfig::default(),
    )
    .unwrap();
    let addr = handle.local_addr().to_string();
    let mut client = pddl_server::Client::connect(handle.local_addr()).unwrap();
    for unit in 0..16u64 {
        let payload = vec![unit as u8; 64];
        client.write_units(unit, &payload).unwrap();
        assert_eq!(client.read_units(unit, 1).unwrap(), payload);
    }

    let (ok, stats, stderr) = pddl(&["stats", "--addr", &addr]);
    assert!(ok, "{stderr}");
    assert!(stats.contains("op.read.count"), "{stats}");
    assert!(stats.contains("op.write.count"), "{stats}");

    let (ok, top, stderr) = pddl(&[
        "top",
        "--addr",
        &addr,
        "--iters",
        "1",
        "--interval-ms",
        "50",
    ]);
    assert!(ok, "{stderr}");
    assert!(top.contains("-- tick 1"), "{top}");

    let out = std::env::temp_dir().join(format!("pddl-cli-spans-{}.json", std::process::id()));
    let (ok, stdout, stderr) = pddl(&[
        "trace-dump",
        "--addr",
        &addr,
        "--out",
        out.to_str().unwrap(),
    ]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("spans to"), "{stdout}");
    let json = std::fs::read_to_string(&out).unwrap();
    pddl_obs::validate_json(&json).unwrap();
    assert!(json.contains("\"ph\":\"X\""), "no op span in {json}");
    std::fs::remove_file(&out).unwrap();
    handle.shutdown();
}

#[test]
fn trace_roundtrip_through_files() {
    let dir = std::env::temp_dir();
    let path = dir.join(format!("pddl-cli-trace-{}.trace", std::process::id()));
    let (ok, stdout, _) = pddl(&["trace-gen", "--count", "50", "--size", "2"]);
    assert!(ok);
    std::fs::write(&path, &stdout).unwrap();
    let (ok, replay_out, stderr) = pddl(&["replay", "--file", path.to_str().unwrap()]);
    assert!(ok, "{stderr}");
    assert!(replay_out.contains("replayed 50 accesses"), "{replay_out}");
    std::fs::remove_file(&path).unwrap();
    // Missing file errors cleanly.
    let (ok, _, stderr) = pddl(&["replay", "--file", "/nonexistent.trace"]);
    assert!(!ok && stderr.contains("nonexistent"));
}
