//! Seeded load generation: the PRNG, the zipfian sampler and the four
//! workloads' op streams. Everything a run sends to the server is a
//! pure function of `(workload, seed, connection index, capacity)`.

/// SplitMix64: one word of state, full period, good enough mixing for
/// address and mix draws.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix64(self.0)
    }

    /// Uniform in `[0, 1)` with 53 bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`; `n` must be non-zero. The multiply-shift
    /// bias is below 2^-40 for the volume sizes used here.
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }
}

/// SplitMix64's output function, also the content tag mixer.
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Zipfian ranks in `[0, n)` with exponent `theta` (Gray et al.'s
/// constant-time generator, the one YCSB uses): rank 0 is the hottest.
#[derive(Debug, Clone)]
pub struct Zipf {
    n: u64,
    theta: f64,
    zetan: f64,
    alpha: f64,
    eta: f64,
}

/// Generalised harmonic number `H(n, theta) = sum_{i=1..n} i^-theta`.
pub fn zeta(n: u64, theta: f64) -> f64 {
    (1..=n).map(|i| (i as f64).powf(-theta)).sum()
}

impl Zipf {
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n >= 2 && theta > 0.0 && theta < 1.0);
        let zetan = zeta(n, theta);
        let zeta2 = zeta(2, theta);
        Zipf {
            n,
            theta,
            zetan,
            alpha: 1.0 / (1.0 - theta),
            eta: (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan),
        }
    }

    pub fn sample(&self, rng: &mut Rng) -> u64 {
        let u = rng.next_f64();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let r = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        r.min(self.n - 1)
    }
}

/// A fixed bijection of `[0, n)` that scatters zipfian ranks over the
/// volume, so the hot set is not one contiguous run of stripes.
#[derive(Debug, Clone, Copy)]
pub struct Scatter {
    n: u64,
    mul: u64,
}

impl Scatter {
    pub fn new(n: u64) -> Self {
        // Any multiplier coprime to n is a bijection; start from a
        // fixed prime and step until coprime (n = 187 200 takes it as is).
        let mut mul = 1_000_003u64;
        while gcd(mul % n, n) != 1 {
            mul += 2;
        }
        Scatter { n, mul }
    }

    pub fn apply(&self, rank: u64) -> u64 {
        ((u128::from(rank) * u128::from(self.mul) + 12_345) % u128::from(self.n)) as u64
    }
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Access {
    Uniform,
    /// Zipfian with this exponent, ranks scattered by [`Scatter`].
    Zipf(f64),
    /// One read cursor and one write cursor per connection, each
    /// advancing by the access size and wrapping at the volume end.
    Sequential,
}

/// One closed-loop workload: the table in the README, as data.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub shards: usize,
    pub conns: usize,
    pub iodepth: usize,
    /// READ share of the ops.
    pub read_frac: f64,
    pub min_units: u32,
    pub max_units: u32,
    pub access: Access,
    /// Whether a control thread cycles fail → rebuild → replace during
    /// the run (otherwise three cycles run on the idle server after it).
    pub rebuild_under_load: bool,
}

pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "small_qd1",
        why: "latency-bound: 2 conns at depth 1, 70/30 READ/WRITE, 1 unit, uniform; per-op fixed cost dominates and nothing can batch",
        shards: 1,
        conns: 2,
        iodepth: 1,
        read_frac: 0.70,
        min_units: 1,
        max_units: 1,
        access: Access::Uniform,
        rebuild_under_load: false,
    },
    Spec {
        name: "write_small_qd16",
        why: "throughput-bound small writes: 2 conns at depth 16, 15/16 WRITE plus 1/16 READ probes, 1 unit, uniform; RMW, journal and write batching do the work",
        shards: 1,
        conns: 2,
        iodepth: 16,
        read_frac: 0.0625,
        min_units: 1,
        max_units: 1,
        access: Access::Uniform,
        rebuild_under_load: false,
    },
    Spec {
        name: "mixed_zipf_qd8",
        why: "hot set at depth on 2 shards: 2 conns at depth 8, 70/30 READ/WRITE, 1-4 units, zipfian 0.99; same-stripe serialisation and the cross-shard ring hop",
        shards: 2,
        conns: 2,
        iodepth: 8,
        read_frac: 0.70,
        min_units: 1,
        max_units: 4,
        access: Access::Zipf(0.99),
        rebuild_under_load: false,
    },
    Spec {
        name: "degraded_rebuild",
        why: "bytes-moved-bound and never healthy: 1 conn at depth 4, 80/20 READ/WRITE, 30 units (240 KiB) sequential, while a control thread cycles fail, rebuild, replace over the disks",
        shards: 1,
        conns: 1,
        iodepth: 4,
        read_frac: 0.80,
        min_units: 30,
        max_units: 30,
        access: Access::Sequential,
        rebuild_under_load: true,
    },
];

pub fn workload(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    pub write: bool,
    pub start: u64,
    pub units: u32,
}

/// Writes are partitioned between connections by 64-unit block, so a
/// unit has one writer and its generations reach the server in order;
/// the verifier's "observed generation ≥ last acked" rule depends on it.
pub const WRITE_BLOCK: u64 = 64;

/// The op stream of one connection.
#[derive(Debug, Clone)]
pub struct OpGen {
    rng: Rng,
    spec: Spec,
    conn: u64,
    capacity: u64,
    zipf: Option<Zipf>,
    scatter: Scatter,
    read_cursor: u64,
    write_cursor: u64,
}

impl OpGen {
    pub fn new(spec: &Spec, seed: u64, conn: usize, capacity: u64) -> Self {
        assert!(capacity >= 2 * WRITE_BLOCK * spec.conns as u64);
        assert!(u64::from(spec.max_units) <= WRITE_BLOCK);
        let mut rng = Rng::new(mix64(seed) ^ mix64(0xC0FF_EE00 + conn as u64));
        let zipf = match spec.access {
            Access::Zipf(theta) => Some(Zipf::new(capacity, theta)),
            _ => None,
        };
        let read_cursor = rng.below(capacity);
        let write_cursor = rng.below(capacity);
        OpGen {
            rng,
            spec: *spec,
            conn: conn as u64,
            capacity,
            zipf,
            scatter: Scatter::new(capacity),
            read_cursor,
            write_cursor,
        }
    }

    pub fn next_op(&mut self) -> Op {
        let write = self.rng.next_f64() >= self.spec.read_frac;
        let span = u64::from(self.spec.max_units - self.spec.min_units) + 1;
        let units = self.spec.min_units + self.rng.below(span) as u32;
        let len = u64::from(units);
        let mut start = match self.spec.access {
            Access::Uniform => self.rng.below(self.capacity),
            Access::Zipf(_) => {
                let rank = self.zipf.as_ref().expect("zipf spec").sample(&mut self.rng);
                self.scatter.apply(rank)
            }
            Access::Sequential => {
                let cursor = if write {
                    &mut self.write_cursor
                } else {
                    &mut self.read_cursor
                };
                if *cursor + len > self.capacity {
                    *cursor = 0;
                }
                let s = *cursor;
                *cursor += len;
                s
            }
        };
        if start + len > self.capacity {
            start = self.capacity - len;
        }
        if write && self.spec.conns > 1 {
            start = self.own(start, len);
        }
        Op {
            write,
            start,
            units,
        }
    }

    /// Move a write to the block this connection owns within the same
    /// group of `conns` neighbouring blocks, keeping it inside one block.
    fn own(&self, start: u64, len: u64) -> u64 {
        let conns = self.spec.conns as u64;
        let full_blocks = self.capacity / WRITE_BLOCK;
        let usable = full_blocks - full_blocks % conns;
        let block = (start / WRITE_BLOCK).min(usable - 1);
        let owned = block - block % conns + self.conn;
        let offset = (start % WRITE_BLOCK).min(WRITE_BLOCK - len);
        owned * WRITE_BLOCK + offset
    }
}

/// FNV-1a digest of the first `ops` ops of every connection: the
/// identity of the load a `(workload, seed)` pair generates.
pub fn sequence_digest(spec: &Spec, seed: u64, capacity: u64, ops: usize) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    for conn in 0..spec.conns {
        let mut gen = OpGen::new(spec, seed, conn, capacity);
        for _ in 0..ops {
            let op = gen.next_op();
            eat(u64::from(op.write));
            eat(op.start);
            eat(u64::from(op.units));
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    const CAP: u64 = 187_200;

    #[test]
    fn same_seed_same_digest_other_seed_other_digest() {
        for spec in &WORKLOADS {
            let a = sequence_digest(spec, 1, CAP, 5_000);
            assert_eq!(a, sequence_digest(spec, 1, CAP, 5_000), "{}", spec.name);
            assert_ne!(a, sequence_digest(spec, 2, CAP, 5_000), "{}", spec.name);
        }
    }

    #[test]
    fn ops_stay_in_range_and_writes_stay_with_their_owner() {
        for spec in &WORKLOADS {
            for conn in 0..spec.conns {
                let mut gen = OpGen::new(spec, 7, conn, CAP);
                let mut writes = 0u64;
                for _ in 0..20_000 {
                    let op = gen.next_op();
                    let end = op.start + u64::from(op.units);
                    assert!(end <= CAP);
                    assert!((spec.min_units..=spec.max_units).contains(&op.units));
                    if op.write {
                        writes += 1;
                        if spec.conns > 1 {
                            let first = op.start / WRITE_BLOCK;
                            assert_eq!(first, (end - 1) / WRITE_BLOCK, "write crosses a block");
                            assert_eq!(first % spec.conns as u64, conn as u64);
                        }
                    }
                }
                let share = writes as f64 / 20_000.0;
                let want = 1.0 - spec.read_frac;
                assert!((share - want).abs() < 0.02, "{}: {share}", spec.name);
            }
        }
    }

    #[test]
    fn zipf_top_percent_mass_matches_closed_form() {
        // Exact mass of the top k ranks is H(k)/H(n); the constant-time
        // generator approximates the tail, so allow ±0.03.
        let (n, theta) = (CAP, 0.99);
        let zipf = Zipf::new(n, theta);
        let top = n / 100;
        let want = zeta(top, theta) / zeta(n, theta);
        let mut rng = Rng::new(42);
        let draws = 400_000;
        let hits = (0..draws).filter(|_| zipf.sample(&mut rng) < top).count();
        let got = hits as f64 / draws as f64;
        assert!((got - want).abs() < 0.03, "top 1% mass {got} vs {want}");
        // And the hottest rank alone: exactly 1/H(n).
        let mut rng = Rng::new(43);
        let zero = (0..draws).filter(|_| zipf.sample(&mut rng) == 0).count();
        let got0 = zero as f64 / draws as f64;
        assert!(
            (got0 - 1.0 / zeta(n, theta)).abs() < 0.01,
            "rank 0 mass {got0}"
        );
    }

    #[test]
    fn scatter_is_a_bijection() {
        let n = 4_680; // 40 periods of 117 units, a multiple of 2, 3, 5 and 13
        let s = Scatter::new(n);
        let mut seen = vec![false; n as usize];
        for r in 0..n {
            let u = s.apply(r) as usize;
            assert!(!seen[u]);
            seen[u] = true;
        }
    }
}
