//! Minimal wall-clock micro-benchmark harness: no external
//! dependencies, TSV output. Used by the `simulator` `[[bench]]` target
//! (gated behind the off-by-default `bench` feature) in place of a
//! framework.

use std::hint::black_box;
use std::time::Instant;

/// Measure `f` and return the best observed ns/iteration.
///
/// Calibrates the batch size until one batch takes ≥ 20 ms, then times
/// five batches and keeps the minimum (the least-perturbed run). Results
/// are printed as one TSV row: `name<TAB>ns_per_iter<TAB>iters`.
pub fn bench_ns<T>(name: &str, mut f: impl FnMut() -> T) -> f64 {
    // Calibrate.
    let mut iters = 1u64;
    loop {
        let t = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        if t.elapsed().as_millis() >= 20 || iters >= 1 << 28 {
            break;
        }
        iters *= 2;
    }
    // Measure.
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let t = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        let ns = t.elapsed().as_nanos() as f64 / iters as f64;
        best = best.min(ns);
    }
    println!("{name}\t{best:.1}\t{iters}");
    best
}

/// The TSV header matching [`bench_ns`] rows.
pub fn header() {
    println!("bench\tns_per_iter\titers");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reports_positive_finite_time() {
        let ns = bench_ns("noop_sum", || (0..100u64).sum::<u64>());
        assert!(ns.is_finite() && ns > 0.0);
    }
}
