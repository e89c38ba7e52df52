//! `--compare BASE CHANGE`: one verdict per (workload, end-to-end
//! metric), by the bounds in [`crate::metrics`] and the pairing rule of
//! the choosing-metrics guide, section 8. Each side is one or more
//! report files (`--report`), comma-separated; every line of a file is
//! one run.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::json::{self, Value};
use crate::metrics::{self, Better, Metric};
use crate::stats::{median, quartiles};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    /// The base's own run-to-run spread exceeds the bound, so a
    /// difference of that size cannot be told from noise.
    Unresolved,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Judgement {
    pub verdict: Verdict,
    pub base_median: f64,
    pub change_median: f64,
    /// Interquartile range of the base runs as a share of their median;
    /// `None` with a single base run.
    pub base_spread: Option<f64>,
    /// Pairs (run i of each side) the change won / lost.
    pub wins: usize,
    pub losses: usize,
}

/// Pairs needed before an improvement may be claimed.
const MIN_PAIRS: usize = 10;

pub fn judge(metric: &Metric, base: &[f64], change: &[f64]) -> Option<Judgement> {
    let base_median = median(base)?;
    let change_median = median(change)?;
    let better = |a: f64, b: f64| match metric.better {
        Better::Lower => a < b,
        Better::Higher => a > b,
    };
    let (mut wins, mut losses) = (0, 0);
    for (b, c) in base.iter().zip(change) {
        if better(*c, *b) {
            wins += 1;
        } else if better(*b, *c) {
            losses += 1;
        }
    }
    let iqr = quartiles(base).map(|(q1, q3)| q3 - q1);
    let base_spread = iqr.map(|d| d / base_median.abs());
    // How much worse the change's median is, as a share of the base's.
    let worse_by = match metric.better {
        Better::Lower => (change_median - base_median) / base_median.abs(),
        Better::Higher => (base_median - change_median) / base_median.abs(),
    };
    let bound = metric.bound.unwrap_or(f64::INFINITY);
    let every_run_better = change.iter().all(|c| base.iter().all(|b| better(*c, *b)));
    let claimable = wins + losses >= MIN_PAIRS
        && wins as f64 >= 0.9 * (wins + losses) as f64
        && (change_median - base_median).abs() > iqr.unwrap_or(f64::INFINITY);
    let verdict = if base_spread.is_some_and(|s| s > bound) && !every_run_better {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regressed
    } else if claimable && worse_by < 0.0 {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    };
    Some(Judgement {
        verdict,
        base_median,
        change_median,
        base_spread,
        wins,
        losses,
    })
}

/// (workload, metric) → the values of every untraced run, in file order.
type Runs = BTreeMap<(String, String), Vec<f64>>;

fn load(files: &str) -> Result<Runs, String> {
    let mut runs = Runs::new();
    for path in files.split(',') {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        for (n, line) in text
            .lines()
            .enumerate()
            .filter(|(_, l)| !l.trim().is_empty())
        {
            let run = json::parse(line).map_err(|e| format!("{path}:{}: {e}", n + 1))?;
            let field = |k: &str| {
                run.get(k)
                    .ok_or_else(|| format!("{path}:{}: no `{k}`", n + 1))
            };
            if field("trace")?.as_f64() != Some(0.0) {
                continue;
            }
            let workload = field("workload")?.as_str().unwrap_or_default().to_string();
            for (name, m) in field("metrics")?.as_obj().into_iter().flatten() {
                if let Some(v) = m.get("value").and_then(Value::as_f64) {
                    runs.entry((workload.clone(), name.clone()))
                        .or_default()
                        .push(v);
                }
            }
        }
    }
    Ok(runs)
}

/// The comparison table and whether any row regressed.
pub fn compare(base_files: &str, change_files: &str) -> Result<(String, bool), String> {
    let base = load(base_files)?;
    let change = load(change_files)?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<18} {:<14} {:>12} {:>12} {:>16} {:>7} {:>7} {:>9}  verdict",
        "workload", "metric", "base", "change", "change/base", "bound", "spread", "win/loss"
    );
    let mut regressed = false;
    for (key, base_vals) in &base {
        let (workload, name) = key;
        let Some(metric) = metrics::end_to_end(name) else {
            continue;
        };
        let change_vals = change.get(key).map_or(&[][..], Vec::as_slice);
        let Some(j) = judge(metric, base_vals, change_vals) else {
            let _ = writeln!(out, "{workload:<18} {name:<14} missing on the change side");
            regressed = true;
            continue;
        };
        regressed |= j.verdict == Verdict::Regressed;
        let spread = j
            .base_spread
            .map_or("n/a".to_string(), |s| format!("{:.1}%", 100.0 * s));
        let _ = writeln!(
            out,
            "{workload:<18} {name:<14} {:>12.3} {:>12.3} {:>7.3} of {:<6.4} {:>6.0}% {spread:>7} {:>4}/{:<4}  {:?} ({} {}, n={}+{})",
            j.base_median,
            j.change_median,
            j.change_median / j.base_median,
            j.base_median,
            100.0 * metric.bound.unwrap_or(0.0),
            j.wins,
            j.losses,
            j.verdict,
            metric.better.as_str(),
            metric.unit,
            base_vals.len(),
            change_vals.len(),
        );
    }
    Ok((out, regressed))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(name: &str) -> &'static Metric {
        metrics::end_to_end(name).unwrap()
    }

    #[test]
    fn single_runs_are_judged_by_the_bound_alone() {
        let j = judge(m("ops_per_s"), &[100.0], &[95.0]).unwrap();
        assert_eq!(j.verdict, Verdict::Unchanged);
        let j = judge(m("ops_per_s"), &[100.0], &[75.0]).unwrap();
        assert_eq!(j.verdict, Verdict::Regressed);
        // One pair never claims a gain.
        let j = judge(m("read_p50_us"), &[50.0], &[30.0]).unwrap();
        assert_eq!(j.verdict, Verdict::Unchanged);
        assert_eq!((j.wins, j.losses), (1, 0));
    }

    #[test]
    fn ten_winning_pairs_beyond_the_base_spread_improve() {
        let base: Vec<f64> = (0..10).map(|i| 100.0 + f64::from(i)).collect();
        let change: Vec<f64> = (0..10).map(|i| 80.0 + f64::from(i)).collect();
        let j = judge(m("read_p50_us"), &base, &change).unwrap();
        assert_eq!(j.verdict, Verdict::Improved);
        assert_eq!((j.wins, j.losses), (10, 0));
        // The same medians, but the change wins only 8 of 10 pairs.
        let mut mixed = change.clone();
        mixed[0] = 200.0;
        mixed[1] = 200.0;
        let j = judge(m("read_p50_us"), &base, &mixed).unwrap();
        assert_eq!(j.verdict, Verdict::Unchanged);
        // A gain smaller than the base's interquartile range is noise.
        let close: Vec<f64> = base.iter().map(|b| b - 1.0).collect();
        let j = judge(m("read_p50_us"), &base, &close).unwrap();
        assert_eq!(j.verdict, Verdict::Unchanged);
    }

    #[test]
    fn a_base_noisier_than_the_bound_is_unresolved_unless_every_run_wins() {
        // ops_per_s may worsen by 20 %; the base's quartiles span 60 %.
        let base = [60.0, 80.0, 100.0, 120.0, 140.0];
        let j = judge(m("ops_per_s"), &base, &[70.0, 75.0, 80.0, 85.0, 90.0]).unwrap();
        assert_eq!(j.verdict, Verdict::Unresolved);
        let j = judge(m("ops_per_s"), &base, &[150.0, 160.0, 170.0, 180.0, 190.0]).unwrap();
        assert_ne!(j.verdict, Verdict::Unresolved);
        assert_ne!(j.verdict, Verdict::Regressed);
    }
}
