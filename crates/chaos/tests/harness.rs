//! End-to-end exercises of the chaos harness itself: clean seeds must
//! pass and reproduce bit-identically, and a deliberately unmodeled
//! corruption must be caught and shrunk.

use pddl_chaos::plan::FaultEvent;
use pddl_chaos::{generate, run, run_seed, ChaosConfig};

#[test]
fn clean_seeds_pass_and_reproduce() {
    let cfg = ChaosConfig::default();
    for seed in 0..3 {
        let a = run_seed(&cfg, seed, false).unwrap();
        assert!(
            a.violations.is_empty(),
            "seed {seed} failed: {}",
            a.violations
                .iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join("; ")
        );
        let b = run_seed(&cfg, seed, false).unwrap();
        assert_eq!(a.digest, b.digest, "seed {seed} is nondeterministic");
    }
}

/// Testing the tester: with `sabotage` set the nemesis corrupts one
/// block behind the checker's back mid-run. The checker must flag the
/// run and the shrinker must reduce the schedule.
#[test]
fn sabotage_is_caught_and_shrunk() {
    let cfg = ChaosConfig {
        sabotage: true,
        ..ChaosConfig::default()
    };
    let report = run_seed(&cfg, 4, true).unwrap();
    assert!(
        !report.violations.is_empty(),
        "sabotaged run passed the checker"
    );
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.what.contains("stale or corrupt") || v.what.contains("wrong bytes")),
        "sabotage surfaced as the wrong kind of violation: {}",
        report.violations[0]
    );
    let shrunk = report.shrunk.expect("shrinking did not reproduce");
    assert!(
        shrunk.rounds <= 10,
        "minimal schedule has {} events, expected <= 10",
        shrunk.rounds
    );
    assert!(!shrunk.violations.is_empty());
}

/// The crash-mid-group-commit plan must actually occur inside the CI
/// sweep's seed range, and its evidence must show the full story: the
/// batch tore (journal intents outstanding), replay repaired every torn
/// stripe, and the post-replay scrub came back clean.
///
/// The same sweep proves chaos checks the write path that ships: it
/// runs with tick batching on, so somewhere in the 20 seeds an array
/// write batch must have carried two or more client ops. (Which tick
/// two WRITEs meet in is timing, so single seeds may see none; WRITE
/// chunks batch on the shard that owns them whichever shard decoded
/// them, so seeds of every shard count — 1, 2 and 4, by seed —
/// contribute.)
#[test]
fn crash_mid_commit_tears_and_replay_repairs() {
    let cfg = ChaosConfig::default();
    let mut exercised = 0;
    let mut max_batch_ops = 0;
    for seed in 0..20 {
        let plan = generate(seed, &cfg).unwrap();
        let crashes = plan
            .events
            .iter()
            .filter(|e| matches!(e, FaultEvent::CrashMidCommit { .. }))
            .count();
        let result = run(&cfg, &plan).unwrap();
        max_batch_ops = max_batch_ops.max(result.end.counters.max_batch_ops);
        if crashes == 0 {
            continue;
        }
        assert_eq!(result.crash_commits.len(), crashes, "seed {seed}");
        for ev in &result.crash_commits {
            assert!(
                !ev.torn.is_empty(),
                "seed {seed} round {}: crash left no torn stripes",
                ev.round
            );
            assert_eq!(
                ev.repaired,
                ev.torn.len() as u64,
                "seed {seed} round {}: replay missed torn stripes {:?}",
                ev.round,
                ev.torn
            );
            assert!(
                ev.scrub.is_empty(),
                "seed {seed} round {}: stripes {:?} inconsistent after replay",
                ev.round,
                ev.scrub
            );
        }
        exercised += 1;
    }
    assert!(
        exercised > 0,
        "no seed in 0..20 generated a crash-mid-commit event"
    );
    assert!(
        max_batch_ops >= 2,
        "no write batch in the 20-seed sweep coalesced two client ops \
         (largest: {max_batch_ops}) — is tick batching still on?"
    );
}
