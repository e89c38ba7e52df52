//! Estimators: nearest-rank quantiles, the recorder of a window's ops
//! whose best-quartile slices are the reported figures, and the quartile
//! rule the comparison uses for run-to-run spread.

/// Median of `values` (mean of the middle two when the count is even);
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// The value the best quarter of `values` reached or beat: the 75th
/// percentile (nearest rank) where higher is better, the 25th where
/// lower is. Interference from the host's other tenants only ever makes
/// a second slower, so the quiet seconds are the ones that describe the
/// program, and a change to the program moves every second. Over ten
/// seeds this cut the run-to-run spread of `write_small_qd16`'s p99s
/// from 6.5 % (median of slices) to 2 %.
pub fn best_quartile(values: &[f64], higher_is_better: bool) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let q = if higher_is_better { 0.75 } else { 0.25 };
    let rank = (q * v.len() as f64).ceil() as usize;
    Some(v[rank.clamp(1, v.len()) - 1])
}

/// Nearest-rank quantile of an ascending slice: the smallest sample
/// with at least `q` of the samples at or below it.
pub fn quantile_sorted<T: Copy>(sorted: &[T], q: f64) -> Option<T> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method); `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((at(1), at(3)))
}

/// One verified op of the measured window.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// When its response had been parsed, in nanoseconds since the
    /// window began.
    pub done_ns: u64,
    /// Saturating at ~4.29 s, beyond any op that did not time out at the
    /// client.
    pub latency_ns: u32,
    pub write: bool,
}

/// Every op of one measured window, in completion order per connection.
/// The slices are cut when the window is summarized, because where they
/// end is not always known while it runs (`degraded_rebuild`'s end with
/// its rebuild cycles).
#[derive(Debug, Clone, Default)]
pub struct Samples(pub Vec<Sample>);

/// What a window reports: the best quartile over its slices of the
/// per-slice throughput, p50 and p99, with the sample counts behind them.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WindowStats {
    pub ops_per_s: Option<f64>,
    pub read_p50_us: Option<f64>,
    pub read_p99_us: Option<f64>,
    pub write_p50_us: Option<f64>,
    pub write_p99_us: Option<f64>,
    pub reads: u64,
    pub writes: u64,
    /// Fewest samples any slice had, per op type: the p99 of a slice
    /// with `s` samples has `s / 100` samples beyond it.
    pub min_slice_reads: u64,
    pub min_slice_writes: u64,
    /// Ops completed in each slice, per second, in time order.
    pub slice_rates: Vec<f64>,
}

impl Samples {
    /// Room for a window's ops, so recording does not reallocate (pages
    /// never written to cost no memory).
    pub fn with_capacity(ops: usize) -> Self {
        Samples(Vec::with_capacity(ops))
    }

    pub fn record(&mut self, done_ns: u64, write: bool, latency_ns: u64) {
        self.0.push(Sample {
            done_ns,
            latency_ns: u32::try_from(latency_ns).unwrap_or(u32::MAX),
            write,
        });
    }

    pub fn merge(&mut self, other: Samples) {
        self.0.extend(other.0);
    }

    /// Slice `i` holds the ops completed in `[edges[i], edges[i + 1])`;
    /// only the slices `keep` selects count (the traced run measures its
    /// even and odd seconds apart).
    pub fn summarize(&self, edges: &[u64], keep: impl Fn(usize) -> bool) -> WindowStats {
        let slices = edges.len().saturating_sub(1);
        let kept: Vec<usize> = (0..slices).filter(|i| keep(*i)).collect();
        let mut reads = vec![Vec::new(); slices];
        let mut writes = reads.clone();
        for s in &self.0 {
            // What finished before the first edge or after the last is
            // in no slice.
            let after = edges.partition_point(|e| *e <= s.done_ns);
            if (1..=slices).contains(&after) {
                let slice = if s.write { &mut writes } else { &mut reads };
                slice[after - 1].push(s.latency_ns);
            }
        }
        for v in reads.iter_mut().chain(writes.iter_mut()) {
            v.sort_unstable();
        }
        let per_slice = |all: &[Vec<u32>], q: f64| -> Option<f64> {
            let vals: Vec<f64> = kept
                .iter()
                .filter_map(|i| quantile_sorted(&all[*i], q))
                .map(|ns| f64::from(ns) / 1e3)
                .collect();
            best_quartile(&vals, false)
        };
        let rates: Vec<f64> = kept
            .iter()
            .map(|&i| {
                (reads[i].len() + writes[i].len()) as f64 * 1e9 / (edges[i + 1] - edges[i]) as f64
            })
            .collect();
        let count = |all: &[Vec<u32>]| kept.iter().map(|i| all[*i].len() as u64).sum();
        let fewest =
            |all: &[Vec<u32>]| kept.iter().map(|i| all[*i].len() as u64).min().unwrap_or(0);
        WindowStats {
            ops_per_s: best_quartile(&rates, true),
            read_p50_us: per_slice(&reads, 0.50),
            read_p99_us: per_slice(&reads, 0.99),
            write_p50_us: per_slice(&writes, 0.50),
            write_p99_us: per_slice(&writes, 0.99),
            reads: count(&reads),
            writes: count(&writes),
            min_slice_reads: fewest(&reads),
            min_slice_writes: fewest(&writes),
            slice_rates: rates,
        }
    }

    /// The `q` quantile, in microseconds, of the READ or WRITE latencies
    /// of the ops that were in flight at some instant of one of `spans`
    /// (begin and end in nanoseconds since the window began), with the
    /// number of such ops; `None` when there were none.
    pub fn quantile_during(&self, spans: &[(u64, u64)], write: bool, q: f64) -> Option<(f64, u64)> {
        let mut v: Vec<u32> = self
            .0
            .iter()
            .filter(|s| s.write == write)
            .filter(|s| {
                let sent = s.done_ns.saturating_sub(u64::from(s.latency_ns));
                spans
                    .iter()
                    .any(|(begin, end)| sent < *end && s.done_ns > *begin)
            })
            .map(|s| s.latency_ns)
            .collect();
        v.sort_unstable();
        quantile_sorted(&v, q).map(|ns| (f64::from(ns) / 1e3, v.len() as u64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<u32> = (1..=100).collect();
        assert_eq!(quantile_sorted(&v, 0.50), Some(50));
        assert_eq!(quantile_sorted(&v, 0.99), Some(99));
        assert_eq!(quantile_sorted(&v, 1.0), Some(100));
        assert_eq!(quantile_sorted(&[7], 0.99), Some(7));
        assert_eq!(quantile_sorted::<u32>(&[], 0.5), None);
    }

    #[test]
    fn slice_estimator_matches_hand_computed_series() {
        // Four 1-second slices. Reads (ns):
        //   slice 0: 10_000 20_000 30_000          p50 20 µs  p99 30 µs
        //   slice 1: 40_000 50_000                 p50 40 µs  p99 50 µs
        //   slice 2: 1_000 2_000 3_000 900_000     p50  2 µs  p99 900 µs
        //   slice 3: 60_000                        p50 60 µs  p99 60 µs
        // Per-slice p50s sorted: 2 20 40 60 → the best quarter is at or
        // below rank ⌈0.25·4⌉ = 1 → 2 µs; p99s sorted: 30 50 60 900 →
        // 30 µs. The 900 µs outlier second does not set the tail.
        const S: u64 = 1_000_000_000;
        let mut s = Samples::default();
        for ns in [30_000, 10_000, 20_000] {
            s.record(S / 2, false, ns);
        }
        for ns in [50_000, 40_000] {
            s.record(S, false, ns);
        }
        for ns in [3_000, 900_000, 1_000, 2_000] {
            s.record(3 * S - 1, false, ns);
        }
        s.record(3 * S, false, 60_000);
        // Writes only in slice 1; one op ends with the window and is in
        // no slice.
        s.record(S + 7, true, 70_000);
        s.record(4 * S, true, 1);
        let edges = [0, S, 2 * S, 3 * S, 4 * S];
        let w = s.summarize(&edges, |_| true);
        assert_eq!(w.read_p50_us, Some(2.0));
        assert_eq!(w.read_p99_us, Some(30.0));
        assert_eq!(w.write_p50_us, Some(70.0));
        // ops per slice: 3, 3, 4, 1 → sorted 1 3 3 4, rank ⌈0.75·4⌉ = 3 → 3/s.
        assert_eq!(w.ops_per_s, Some(3.0));
        assert_eq!(w.slice_rates, [3.0, 3.0, 4.0, 1.0]);
        assert_eq!((w.reads, w.writes), (10, 1));
        assert_eq!((w.min_slice_reads, w.min_slice_writes), (1, 0));
        // The odd slices alone: 3 ops in slice 1, 1 op in slice 3.
        let odd = s.summarize(&edges, |i| i % 2 == 1);
        assert_eq!(odd.slice_rates, [3.0, 1.0]);
        assert_eq!((odd.read_p50_us, odd.reads), (Some(40.0), 3));
        // Slices of unequal length, as rebuild cycles cut them: 5 reads
        // and 1 write in the 2.5 s before the edge, 5 reads in the
        // second after it.
        let uneven = s.summarize(&[0, 5 * S / 2, 7 * S / 2], |_| true);
        assert_eq!(uneven.slice_rates, [2.4, 5.0]);
    }

    #[test]
    fn tail_of_the_ops_in_flight_during_a_span() {
        let mut s = Samples::default();
        // In flight over [100, 200], [150, 400], [390, 500], [600, 700].
        for (done, latency) in [(200, 100), (400, 250), (500, 110), (700, 100)] {
            s.record(done, false, latency);
        }
        s.record(300, true, 90);
        // Spans touch the first three reads: latencies 100 110 250.
        let spans = [(120, 160), (395, 398)];
        assert_eq!(s.quantile_during(&spans, false, 0.99), Some((0.25, 3)));
        assert_eq!(s.quantile_during(&spans, false, 0.5), Some((0.11, 3)));
        // An op that ends as a span begins, or starts as it ends, was not
        // in flight during it.
        assert_eq!(s.quantile_during(&[(500, 600)], false, 0.5), None);
        assert_eq!(s.quantile_during(&spans, true, 0.5), None);
        assert_eq!(s.quantile_during(&[(0, 1_000)], true, 0.5), Some((0.09, 1)));
    }

    #[test]
    fn best_quartile_by_nearest_rank() {
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(best_quartile(&v, true), Some(15.0));
        assert_eq!(best_quartile(&v, false), Some(5.0));
        // Three rebuild cycles: the best of them.
        assert_eq!(best_quartile(&[700.0, 900.0, 850.0], true), Some(900.0));
        assert_eq!(best_quartile(&[9.0], false), Some(9.0));
        assert_eq!(best_quartile(&[], true), None);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[20.0, 10.0]), Some((7.5, 22.5)));
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0]), Some((1.0, 4.5)));
    }
}
