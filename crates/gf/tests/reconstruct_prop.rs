//! Property test: the in-place codec paths agree with the allocating
//! ones and with a from-scratch encode. For every code shape
//! `c ∈ {1, 2, 3}`, `d ∈ {1, 2, 3, 5}`, every shard length in
//! `{1, 7, 8, 8192}` and every erasure pattern of at most `c` shards,
//! `reconstruct_into` (decoding into buffers that start as garbage)
//! and `reconstruct` both give back exactly the shards `encode`
//! produced; one erasure more is `TooManyErasures` from both.

use pddl_gf::rs::{CodecError, ReedSolomon, Shard};

/// Minimal deterministic generator (SplitMix64) so the test needs no
/// external crates and fails reproducibly.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn bytes(&mut self, len: usize) -> Vec<u8> {
        (0..len).map(|_| self.next_u64() as u8).collect()
    }
}

/// Every subset of `0..n` with at most `max` members, as bit masks.
fn patterns(n: usize, max: usize) -> impl Iterator<Item = u32> {
    (0u32..1 << n).filter(move |m| m.count_ones() as usize <= max)
}

/// `reconstruct_into` over `shards` with the shards in `erased` (a bit
/// mask) replaced by garbage-filled buffers.
fn decode_in_place(
    rs: &ReedSolomon,
    shards: &[Vec<u8>],
    erased: u32,
    rng: &mut SplitMix64,
) -> Result<Vec<Vec<u8>>, CodecError> {
    let mut bufs: Vec<Vec<u8>> = shards.iter().map(|s| rng.bytes(s.len())).collect();
    let mut view: Vec<Shard<'_>> = shards
        .iter()
        .zip(&mut bufs)
        .enumerate()
        .map(|(i, (shard, buf))| {
            if erased & (1 << i) != 0 {
                Shard::Missing(buf)
            } else {
                Shard::Present(shard)
            }
        })
        .collect();
    rs.reconstruct_into(&mut view)?;
    assert!(
        view.iter().all(|s| matches!(s, Shard::Present(_))),
        "every shard is present after a decode"
    );
    Ok(view.iter().map(|s| s.bytes().to_vec()).collect())
}

#[test]
fn in_place_decode_matches_allocating_decode_and_encode() {
    let mut rng = SplitMix64(0xdec0de);
    for c in 1..=3usize {
        for d in [1usize, 2, 3, 5] {
            let rs = ReedSolomon::new(d, c).unwrap();
            for len in [1usize, 7, 8, 8192] {
                let data: Vec<Vec<u8>> = (0..d).map(|_| rng.bytes(len)).collect();
                let checks = rs.encode(&data).unwrap();
                let mut into: Vec<Vec<u8>> = (0..c).map(|_| rng.bytes(len)).collect();
                rs.encode_into(&data, &mut into).unwrap();
                assert_eq!(into, checks, "encode_into d={d} c={c} len={len}");
                let shards: Vec<Vec<u8>> = data.iter().chain(&checks).cloned().collect();
                for erased in patterns(d + c, c) {
                    let what = format!("d={d} c={c} len={len} erased={erased:#b}");
                    let in_place = decode_in_place(&rs, &shards, erased, &mut rng).unwrap();
                    assert_eq!(in_place, shards, "reconstruct_into {what}");
                    let mut opt: Vec<Option<Vec<u8>>> = shards
                        .iter()
                        .enumerate()
                        .map(|(i, s)| (erased & (1 << i) == 0).then(|| s.clone()))
                        .collect();
                    rs.reconstruct(&mut opt).unwrap();
                    let opt: Vec<Vec<u8>> = opt.into_iter().map(Option::unwrap).collect();
                    assert_eq!(opt, shards, "reconstruct {what}");
                }
            }
        }
    }
}

#[test]
fn more_erasures_than_checks_are_refused_by_both_paths() {
    let mut rng = SplitMix64(0xbad);
    for c in 1..=3usize {
        for d in [1usize, 2, 3, 5] {
            let rs = ReedSolomon::new(d, c).unwrap();
            let data: Vec<Vec<u8>> = (0..d).map(|_| rng.bytes(8)).collect();
            let shards: Vec<Vec<u8>> = data
                .iter()
                .chain(&rs.encode(&data).unwrap())
                .cloned()
                .collect();
            for erased in patterns(d + c, d + c).filter(|m| m.count_ones() as usize > c) {
                let want = CodecError::TooManyErasures {
                    erased: erased.count_ones() as usize,
                    checks: c,
                };
                assert_eq!(
                    decode_in_place(&rs, &shards, erased, &mut rng),
                    Err(want.clone()),
                    "reconstruct_into d={d} c={c} erased={erased:#b}"
                );
                let mut opt: Vec<Option<Vec<u8>>> = shards
                    .iter()
                    .enumerate()
                    .map(|(i, s)| (erased & (1 << i) == 0).then(|| s.clone()))
                    .collect();
                assert_eq!(
                    rs.reconstruct(&mut opt),
                    Err(want),
                    "reconstruct d={d} c={c}"
                );
            }
        }
    }
}

#[test]
fn in_place_decode_rejects_ragged_shards_without_writing() {
    let rs = ReedSolomon::new(2, 1).unwrap();
    let (a, b) = (vec![1u8; 8], vec![2u8; 7]);
    let mut out = vec![0xeeu8; 8];
    let mut view = [
        Shard::Present(&a),
        Shard::Present(&b),
        Shard::Missing(&mut out),
    ];
    assert_eq!(
        rs.reconstruct_into(&mut view),
        Err(CodecError::ShapeMismatch)
    );
    assert_eq!(out, vec![0xee; 8]);
    let mut short = [Shard::Present(&a)];
    assert_eq!(
        rs.reconstruct_into(&mut short),
        Err(CodecError::ShapeMismatch)
    );
}
