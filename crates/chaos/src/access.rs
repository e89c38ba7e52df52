//! Seeded access distributions for the chaos clients: uniform,
//! zipfian-θ and a shifting hotspot, behind `--access`.
//!
//! [`client_round_ops`](crate::plan::client_round_ops) draws each
//! client's region-relative offsets through an [`AccessSampler`], and
//! the checker replays the same draws, so a skewed run stays exactly
//! as reproducible as a uniform one. Everything here is a pure
//! function of `(parameters, seed)`; the tests below pin each
//! sampler's statistics (zipfian rank frequency against the closed
//! form, hotspot mode movement) with deterministic seeds.

use pddl_core::rng::{SplitMix64, Xoshiro256pp};

/// How a workload spreads accesses over a block range.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AccessDist {
    /// Every unit equally likely.
    Uniform,
    /// Zipfian over ranks with exponent `theta` in `(0, 2]`: rank `r`
    /// (0-based) has probability `∝ 1/(r+1)^θ`. Ranks are scattered
    /// over the range by a seeded affine permutation so the hot set is
    /// not a contiguous prefix (see `AccessSampler::rank_unit`).
    Zipfian {
        /// Skew exponent; YCSB's default is 0.99.
        theta: f64,
    },
    /// A moving hot region: a window covering `fraction` of the range
    /// receives `weight` of all accesses, and the window jumps to a
    /// new deterministic position every `shift_every` draws.
    Hotspot {
        /// Hot-window size as a fraction of the range, in `(0, 1]`.
        fraction: f64,
        /// Probability a draw lands inside the hot window, in `[0, 1]`.
        weight: f64,
        /// Draws between window jumps (nonzero).
        shift_every: u64,
    },
}

impl AccessDist {
    /// Validate parameter ranges, returning a printable reason when
    /// the distribution is unusable.
    ///
    /// # Errors
    ///
    /// A human-readable description of the offending parameter.
    pub fn validate(&self) -> Result<(), String> {
        match *self {
            AccessDist::Uniform => Ok(()),
            AccessDist::Zipfian { theta } => {
                if theta.is_finite() && theta > 0.0 && theta <= 2.0 {
                    Ok(())
                } else {
                    Err(format!("zipfian theta {theta} outside (0, 2]"))
                }
            }
            AccessDist::Hotspot {
                fraction,
                weight,
                shift_every,
            } => {
                if !(fraction.is_finite() && fraction > 0.0 && fraction <= 1.0) {
                    Err(format!("hotspot fraction {fraction} outside (0, 1]"))
                } else if !(weight.is_finite() && (0.0..=1.0).contains(&weight)) {
                    Err(format!("hotspot weight {weight} outside [0, 1]"))
                } else if shift_every == 0 {
                    Err("hotspot shift_every is a zero-size window".into())
                } else {
                    Ok(())
                }
            }
        }
    }
}

/// Zipfian CDF tables are capped at this many ranks; larger ranges
/// spread each rank over a block of consecutive units.
const MAX_RANKS: u64 = 1 << 20;

/// A seeded sampler drawing unit offsets in `[0, range)` according to
/// an [`AccessDist`]. Construction precomputes the zipfian CDF once so
/// each draw is `O(log ranks)` worst case.
#[derive(Debug, Clone)]
pub struct AccessSampler {
    dist: AccessDist,
    range: u64,
    rng: Xoshiro256pp,
    /// Zipfian cumulative probabilities, one per rank (empty otherwise).
    cdf: Vec<f64>,
    /// Units covered by one rank (`range / cdf.len()`, at least 1).
    rank_span: u64,
    /// Affine rank→unit permutation multiplier (coprime with `range`).
    perm_mul: u64,
    /// Affine permutation offset.
    perm_add: u64,
    /// Draws made so far (drives the hotspot shift epoch).
    draws: u64,
    /// Seed retained for the hotspot window walk.
    seed: u64,
}

impl AccessSampler {
    /// Build a sampler over `[0, range)`; `range` must be nonzero and
    /// `dist` must pass [`AccessDist::validate`].
    ///
    /// # Panics
    ///
    /// On a zero range or invalid distribution parameters — the
    /// `--access` spellings are fixed, valid parameterizations.
    pub fn new(dist: AccessDist, range: u64, seed: u64) -> Self {
        assert!(range > 0, "sampler range must be nonzero");
        dist.validate().expect("validated distribution");
        let mut cdf = Vec::new();
        let mut rank_span = 1;
        let mut perm_mul = 1;
        let mut perm_add = 0;
        if let AccessDist::Zipfian { theta } = dist {
            let ranks = range.min(MAX_RANKS);
            rank_span = range / ranks;
            let mut sum = 0.0f64;
            cdf.reserve(ranks as usize);
            for r in 0..ranks {
                sum += 1.0 / ((r + 1) as f64).powf(theta);
                cdf.push(sum);
            }
            let total = sum;
            for c in &mut cdf {
                *c /= total;
            }
            // Scatter ranks over the range with a seeded affine
            // permutation: unit = (rank·a + b) mod range, gcd(a, range)
            // = 1 so the map is a bijection and the hot ranks are not a
            // sequential prefix (which would alias stripe locality).
            let mut sm = SplitMix64::new(seed ^ 0x5bf0_3635_dee9_91bb);
            perm_add = sm.next_u64() % range;
            perm_mul = if range <= 2 {
                1
            } else {
                let mut a = (sm.next_u64() % range).max(2);
                while gcd(a, range) != 1 {
                    a = if a + 1 >= range { 2 } else { a + 1 };
                }
                a
            };
        }
        Self {
            dist,
            range,
            rng: Xoshiro256pp::seed_from_u64(seed),
            cdf,
            rank_span,
            perm_mul,
            perm_add,
            draws: 0,
            seed,
        }
    }

    /// The unit a zipfian rank maps to (identity for other
    /// distributions) — exposed so tests can invert the scatter and
    /// compare rank frequencies against the closed form.
    pub fn rank_unit(&self, rank: u64) -> u64 {
        let base = (rank % self.range)
            .wrapping_mul(self.perm_mul)
            .wrapping_add(self.perm_add)
            % self.range;
        // Spread over the rank's block when ranks were capped.
        base.wrapping_mul(self.rank_span.max(1)) % self.range
    }

    /// Where the hot window starts during shift epoch `epoch`. The
    /// stride `range/2 + 1` guarantees consecutive epochs start at
    /// different units whenever `range > 1`, so a shift always moves
    /// the mode.
    pub fn hot_start(&self, epoch: u64) -> u64 {
        let base = SplitMix64::new(self.seed ^ 0x9e37_79b9_7f4a_7c15).next_u64() % self.range;
        let stride = self.range / 2 + 1;
        (base + epoch.wrapping_mul(stride)) % self.range
    }

    /// Draw the next unit offset in `[0, range)`.
    pub fn draw(&mut self) -> u64 {
        let drawn = match self.dist {
            AccessDist::Uniform => self.rng.below_u64(self.range),
            AccessDist::Zipfian { .. } => {
                let u = self.rng.next_f64();
                let rank = self.cdf.partition_point(|&c| c < u) as u64;
                let rank = rank.min(self.cdf.len() as u64 - 1);
                let jitter = if self.rank_span > 1 {
                    self.rng.below_u64(self.rank_span)
                } else {
                    0
                };
                (self.rank_unit(rank) + jitter) % self.range
            }
            AccessDist::Hotspot {
                fraction,
                weight,
                shift_every,
            } => {
                let epoch = self.draws / shift_every;
                let start = self.hot_start(epoch);
                let hot_len = ((self.range as f64 * fraction) as u64).clamp(1, self.range);
                if self.rng.chance(weight) {
                    (start + self.rng.below_u64(hot_len)) % self.range
                } else {
                    self.rng.below_u64(self.range)
                }
            }
        };
        self.draws += 1;
        drawn
    }
}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_covers_range() {
        let mut s = AccessSampler::new(AccessDist::Uniform, 64, 1);
        let mut seen = [false; 64];
        for _ in 0..4000 {
            seen[s.draw() as usize] = true;
        }
        assert!(seen.iter().all(|&b| b), "uniform left units unvisited");
    }

    #[test]
    fn zipfian_permutation_is_a_bijection() {
        for range in [2u64, 3, 10, 97, 840] {
            let s = AccessSampler::new(AccessDist::Zipfian { theta: 0.99 }, range, 7);
            let mut seen = vec![false; range as usize];
            for r in 0..range {
                let u = s.rank_unit(r);
                assert!(u < range);
                assert!(!seen[u as usize], "range {range}: rank collision at {u}");
                seen[u as usize] = true;
            }
        }
    }

    #[test]
    fn samplers_stay_in_range_and_are_deterministic() {
        let dists = [
            AccessDist::Uniform,
            AccessDist::Zipfian { theta: 0.99 },
            AccessDist::Hotspot {
                fraction: 0.1,
                weight: 0.9,
                shift_every: 100,
            },
        ];
        for dist in dists {
            let mut a = AccessSampler::new(dist, 321, 9);
            let mut b = AccessSampler::new(dist, 321, 9);
            for _ in 0..2000 {
                let x = a.draw();
                assert!(x < 321);
                assert_eq!(x, b.draw(), "{dist:?} diverged between equal seeds");
            }
        }
    }

    #[test]
    fn hotspot_start_moves_every_epoch() {
        let s = AccessSampler::new(
            AccessDist::Hotspot {
                fraction: 0.2,
                weight: 0.9,
                shift_every: 10,
            },
            100,
            3,
        );
        for e in 0..20 {
            assert_ne!(s.hot_start(e), s.hot_start(e + 1), "epoch {e} did not move");
        }
    }

    #[test]
    fn validation_rejects_degenerate_parameters() {
        assert!(AccessDist::Zipfian { theta: 0.0 }.validate().is_err());
        assert!(AccessDist::Zipfian { theta: f64::NAN }.validate().is_err());
        assert!(AccessDist::Hotspot {
            fraction: 0.0,
            weight: 0.9,
            shift_every: 10
        }
        .validate()
        .is_err());
        assert!(AccessDist::Hotspot {
            fraction: 0.1,
            weight: 0.9,
            shift_every: 0
        }
        .validate()
        .is_err());
    }

    /// Zipfian rank frequencies must track the closed form
    /// `p(r) = (1/(r+1)^θ) / H_θ(n)` — the sampler's CDF table plus the
    /// rank→unit scatter must not distort the distribution.
    #[test]
    fn zipfian_rank_frequency_matches_closed_form() {
        const RANGE: u64 = 1024;
        const THETA: f64 = 0.99;
        const DRAWS: usize = 300_000;
        let mut s = AccessSampler::new(AccessDist::Zipfian { theta: THETA }, RANGE, 0xfeed);
        let mut counts = vec![0u64; RANGE as usize];
        for _ in 0..DRAWS {
            counts[s.draw() as usize] += 1;
        }
        let h: f64 = (0..RANGE).map(|r| 1.0 / ((r + 1) as f64).powf(THETA)).sum();
        // The permutation maps rank r to unit rank_unit(r); invert by
        // reading the count at the mapped unit.
        for rank in 0..12u64 {
            let expected = DRAWS as f64 / ((rank + 1) as f64).powf(THETA) / h;
            let observed = counts[s.rank_unit(rank) as usize] as f64;
            let ratio = observed / expected;
            assert!(
                (0.85..=1.15).contains(&ratio),
                "rank {rank}: observed {observed} vs closed form {expected:.0} (ratio {ratio:.3})"
            );
        }
        // Skew ordering: the head must dominate the tail.
        let head = counts[s.rank_unit(0) as usize];
        let mid = counts[s.rank_unit(50) as usize];
        let tail = counts[s.rank_unit(900) as usize];
        assert!(head > 4 * mid, "head {head} vs rank-50 {mid}");
        assert!(mid > tail, "rank-50 {mid} vs rank-900 {tail}");
    }

    /// A hotspot shift must move the mode: the modal unit of one epoch's
    /// draws is far (more than a window width) from the next epoch's.
    #[test]
    fn hotspot_shift_moves_the_mode() {
        const RANGE: u64 = 1000;
        const SHIFT: u64 = 2000;
        let dist = AccessDist::Hotspot {
            fraction: 0.05,
            weight: 0.95,
            shift_every: SHIFT,
        };
        let mut s = AccessSampler::new(dist, RANGE, 0x5eed);
        let mode = |counts: &[u64]| -> u64 {
            counts
                .iter()
                .enumerate()
                .max_by_key(|&(_, c)| *c)
                .map(|(i, _)| i as u64)
                .unwrap()
        };
        let mut epoch0 = vec![0u64; RANGE as usize];
        for _ in 0..SHIFT {
            epoch0[s.draw() as usize] += 1;
        }
        let mut epoch1 = vec![0u64; RANGE as usize];
        for _ in 0..SHIFT {
            epoch1[s.draw() as usize] += 1;
        }
        let (m0, m1) = (mode(&epoch0), mode(&epoch1));
        let window = (RANGE as f64 * 0.05) as u64; // 50 units
        let dist_fwd = (m1 + RANGE - m0) % RANGE;
        let circular = dist_fwd.min(RANGE - dist_fwd);
        assert!(
            circular > window,
            "mode moved only {circular} units (window {window}): {m0} -> {m1}"
        );
        // And within an epoch the hot window really is hot: the top 5% of
        // units hold most of the mass.
        let mut sorted: Vec<u64> = epoch0.clone();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        let top: u64 = sorted.iter().take(window as usize).sum();
        assert!(
            top as f64 > 0.80 * SHIFT as f64,
            "hot window holds only {top}/{SHIFT} draws"
        );
    }

    /// Every sampler is a pure function of its seed: two instances with
    /// equal parameters produce identical streams, and a different seed
    /// diverges.
    #[test]
    fn samplers_are_deterministic_in_the_seed() {
        for dist in [
            AccessDist::Uniform,
            AccessDist::Zipfian { theta: 0.8 },
            AccessDist::Hotspot {
                fraction: 0.2,
                weight: 0.9,
                shift_every: 64,
            },
        ] {
            let mut a = AccessSampler::new(dist, 777, 31);
            let mut b = AccessSampler::new(dist, 777, 31);
            let mut c = AccessSampler::new(dist, 777, 32);
            let mut diverged = false;
            for _ in 0..512 {
                let x = a.draw();
                assert_eq!(x, b.draw(), "{dist:?} diverged between equal seeds");
                diverged |= x != c.draw();
            }
            assert!(diverged, "{dist:?} ignored its seed");
        }
    }
}
