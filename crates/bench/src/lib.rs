//! Shared plumbing for the experiment binaries that regenerate the PDDL
//! paper's tables and figures.
//!
//! Each binary prints tab-separated values with a header row, so results
//! pipe cleanly into plotting tools. The experiment index lives in
//! `DESIGN.md`; expected-vs-measured notes in `EXPERIMENTS.md`.

pub mod plot;
pub mod timing;

use pddl_core::layout::Layout;
use pddl_core::plan::{Mode, Op};
use pddl_sim::LayoutKind;

/// The evaluated array: 13 disks (Table 2).
pub const DISKS: usize = 13;

/// Stripe width for the declustered layouts (Table 2: 4 stripe units).
pub const WIDTH: usize = 4;

/// Client counts of Table 2.
pub const CLIENTS: [usize; 8] = [1, 2, 4, 8, 10, 15, 20, 25];

/// Main-figure access sizes in stripe units (8, 48, 96, 144, 192,
/// 240 KB at 8 KB units) — Figures 3, 5, 6, 8, 9.
pub const SIZES_MAIN: [u64; 6] = [1, 6, 12, 18, 24, 30];

/// Appendix access sizes (24, 72, 120, 168, 216, 288 KB) — Figures
/// 10–13.
pub const SIZES_APPENDIX: [u64; 6] = [3, 9, 15, 21, 27, 36];

/// The 336 KB size of Figure 14.
pub const SIZE_336KB: u64 = 42;

/// The seek-count figures use all sizes 8–336 KB (Figures 4, 7, 15, 16).
pub const SIZES_SEEKS: [u64; 8] = [1, 6, 12, 18, 24, 30, 36, 42];

/// Build the five evaluated layouts in the paper's order.
///
/// # Panics
///
/// Panics if any constructor fails for the standard configuration
/// (which would be a bug, not an input error).
pub fn evaluated_layouts() -> Vec<(&'static str, Box<dyn Layout>)> {
    LayoutKind::EVALUATED
        .iter()
        .map(|kind| {
            (
                kind.name(),
                kind.build(DISKS, WIDTH)
                    .expect("standard configuration builds"),
            )
        })
        .collect()
}

/// Pretty KB label for an access size in stripe units.
pub fn size_label(units: u64) -> String {
    format!("{}KB", units * 8)
}

/// Parse `--key value` style arguments (no external dependencies).
#[derive(Debug, Clone, Default)]
pub struct Args {
    raw: Vec<String>,
}

impl Args {
    /// Capture the process arguments (after the binary name).
    pub fn from_env() -> Self {
        Self {
            raw: std::env::args().skip(1).collect(),
        }
    }

    /// Build from an explicit list (for tests).
    pub fn from_vec(raw: Vec<String>) -> Self {
        Self { raw }
    }

    /// The value following `--name`, if present.
    pub fn get(&self, name: &str) -> Option<&str> {
        let flag = format!("--{name}");
        self.raw
            .iter()
            .position(|a| a == &flag)
            .and_then(|i| self.raw.get(i + 1))
            .map(String::as_str)
    }

    /// Is the bare flag `--name` present?
    pub fn has(&self, name: &str) -> bool {
        let flag = format!("--{name}");
        self.raw.iter().any(|a| a == &flag)
    }

    /// Parse an operation argument (`read`/`write`), defaulting to read.
    pub fn op(&self) -> Op {
        match self.get("op") {
            Some("write") => Op::Write,
            _ => Op::Read,
        }
    }

    /// Parse a mode argument (`ff`/`f1`/`postrecon`), defaulting to
    /// fault-free; degraded modes fail disk 0 (all balanced layouts are
    /// symmetric in the failed disk).
    pub fn mode(&self) -> Mode {
        match self.get("mode") {
            Some("f1") => Mode::Degraded { failed: 0 },
            Some("postrecon") => Mode::PostReconstruction { failed: 0 },
            _ => Mode::FaultFree,
        }
    }

    /// Access-size set: `main` (default), `appendix`, `336`, or `all`.
    pub fn sizes(&self) -> Vec<u64> {
        match self.get("sizes") {
            Some("appendix") => SIZES_APPENDIX.to_vec(),
            Some("336") => vec![SIZE_336KB],
            Some("all") => {
                let mut v: Vec<u64> = SIZES_MAIN
                    .iter()
                    .chain(&SIZES_APPENDIX)
                    .copied()
                    .chain([SIZE_336KB])
                    .collect();
                v.sort_unstable();
                v
            }
            Some(other) => vec![other.parse().expect("numeric --sizes value (stripe units)")],
            None => SIZES_MAIN.to_vec(),
        }
    }

    /// Sample cap: smaller when `--fast` is given (smoke runs).
    pub fn max_samples(&self) -> u64 {
        if self.has("fast") {
            1_500
        } else {
            8_000
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evaluated_layouts_cover_the_paper() {
        let names: Vec<&str> = evaluated_layouts().iter().map(|(n, _)| *n).collect();
        assert_eq!(
            names,
            vec!["DATUM", "Parity Declustering", "RAID 5", "PDDL", "PRIME"]
        );
    }

    #[test]
    fn size_labels() {
        assert_eq!(size_label(1), "8KB");
        assert_eq!(size_label(42), "336KB");
    }

    #[test]
    fn args_parsing() {
        let a = Args::from_vec(
            ["--op", "write", "--mode", "f1", "--sizes", "336", "--fast"]
                .iter()
                .map(|s| s.to_string())
                .collect(),
        );
        assert_eq!(a.op(), Op::Write);
        assert_eq!(a.mode(), Mode::Degraded { failed: 0 });
        assert_eq!(a.sizes(), vec![42]);
        assert!(a.has("fast"));
        assert_eq!(a.max_samples(), 1_500);
        let d = Args::from_vec(vec![]);
        assert_eq!(d.op(), Op::Read);
        assert_eq!(d.mode(), Mode::FaultFree);
        assert_eq!(d.sizes(), SIZES_MAIN.to_vec());
        assert_eq!(d.max_samples(), 8_000);
    }

    #[test]
    fn args_numeric_sizes_and_all() {
        let a = Args::from_vec(vec!["--sizes".into(), "12".into()]);
        assert_eq!(a.sizes(), vec![12]);
        let all = Args::from_vec(vec!["--sizes".into(), "all".into()]);
        assert_eq!(all.sizes().len(), 13);
        assert!(all.sizes().windows(2).all(|w| w[0] < w[1]));
    }
}
