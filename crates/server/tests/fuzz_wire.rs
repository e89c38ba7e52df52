//! Structured fuzz loop for the wire codec: seeded random frames,
//! bit-flipped valid frames, truncations, and concatenations are fed
//! to every decode entry point. The codec must never panic and never
//! buffer more than one frame's worth of bytes (header + payload cap),
//! no matter what the peer sends. One request in eight carries a
//! payload that straddles the streaming reader's window, so its
//! large-frame path (and its pool of reused payload buffers) is fuzzed
//! too.
//!
//! `fuzz_wire_decoders` runs a fixed budget suitable for CI;
//! `fuzz_wire_decoders_soak` is the same loop with a much larger
//! budget, ignored by default:
//!
//! ```text
//! cargo test -p pddl-server --test fuzz_wire -- --ignored
//! ```

use std::io::Read;

use pddl_core::rng::Xoshiro256pp;
use pddl_server::wire::{
    self, LargePayloads, Op, PoolInfo, RebuildStatus, Request, RequestReader, Response, Status,
    VolumeInfo, MAX_PAYLOAD, READ_WINDOW,
};
use pddl_server::VolumeSpec;

/// Header bytes of a request frame (magic + id + op + flags + offset +
/// length + payload_len). Kept in sync with `wire.rs` by the
/// round-trip checks below.
const HEADER: usize = 30;

/// Largest number of bytes the streaming reader may ever hold.
const BUFFER_CAP: usize = HEADER + MAX_PAYLOAD as usize;

/// Wraps a byte slice and serves it in small random chunks, so the
/// incremental reader's resume paths get exercised.
struct Trickle<'a> {
    data: &'a [u8],
    pos: usize,
    rng: Xoshiro256pp,
}

impl Read for Trickle<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let left = self.data.len() - self.pos;
        if left == 0 || buf.is_empty() {
            return Ok(0);
        }
        let n = (1 + self.rng.below(7)).min(left).min(buf.len());
        buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

fn random_request(rng: &mut Xoshiro256pp) -> Request {
    let op = match rng.below(11) {
        0 => Op::Read,
        1 => Op::Write,
        2 => Op::Trim,
        3 => Op::Info,
        4 => Op::FailDisk,
        5 => Op::Rebuild,
        6 => Op::VolumeCreate,
        7 => Op::VolumeDelete,
        8 => Op::VolumeResize,
        9 => Op::VolumeList,
        _ => Op::PoolInfo,
    };
    // Mostly small; sometimes a frame from 64 bytes under to 64 bytes
    // over the reader's window.
    let payload_len = if rng.below(8) == 0 {
        READ_WINDOW - HEADER - 64 + rng.below(128)
    } else {
        rng.below(64)
    };
    Request {
        id: rng.next_u64(),
        op,
        // The flags byte is the volume id, and only volume-scoped ops
        // may set it — the writer enforces that, so stay encodable.
        volume: if op.takes_volume() {
            rng.next_u64() as u8
        } else {
            0
        },
        offset: rng.next_u64() >> rng.below_u64(64) as u32,
        length: rng.next_u64() as u32,
        payload: (0..payload_len).map(|_| rng.next_u64() as u8).collect(),
    }
}

fn random_spec(rng: &mut Xoshiro256pp) -> VolumeSpec {
    let name_len = rng.below(12);
    let name: String = (0..name_len)
        .map(|_| char::from(b'a' + (rng.below(26) as u8)))
        .collect();
    let mut spec = VolumeSpec::new(&name, rng.next_u64() >> 8);
    spec.tenant = rng.next_u64() as u32;
    spec.weight = rng.next_u64() as u16;
    spec.ops_per_sec = rng.next_u64() >> rng.below_u64(64) as u32;
    spec.bytes_per_sec = rng.next_u64() >> rng.below_u64(64) as u32;
    spec
}

fn random_response(rng: &mut Xoshiro256pp) -> Response {
    let status = match rng.below(7) {
        0 => Status::Ok,
        1 => Status::BadRequest,
        2 => Status::BadAddress,
        3 => Status::Unrecoverable,
        4 => Status::WrongDiskState,
        5 => Status::Internal,
        _ => Status::MediaError,
    };
    Response {
        id: rng.next_u64(),
        status,
        payload: (0..rng.below(64)).map(|_| rng.next_u64() as u8).collect(),
    }
}

/// One adversarial byte stream: a valid frame mangled somehow, or pure
/// noise.
fn mangle(rng: &mut Xoshiro256pp, frame: Vec<u8>) -> Vec<u8> {
    let mut bytes = frame;
    match rng.below(4) {
        // Flip 1..=8 bits anywhere (header or payload).
        0 => {
            for _ in 0..=rng.below(8) {
                if bytes.is_empty() {
                    break;
                }
                let i = rng.below(bytes.len());
                bytes[i] ^= 1 << rng.below(8);
            }
        }
        // Truncate mid-frame.
        1 => {
            let keep = rng.below(bytes.len().max(1));
            bytes.truncate(keep);
        }
        // Prepend or append garbage.
        2 => {
            let garbage: Vec<u8> = (0..rng.below(40)).map(|_| rng.next_u64() as u8).collect();
            if rng.chance(0.5) {
                let mut g = garbage;
                g.extend_from_slice(&bytes);
                bytes = g;
            } else {
                bytes.extend_from_slice(&garbage);
            }
        }
        // Replace entirely with noise.
        _ => {
            bytes = (0..rng.below(96)).map(|_| rng.next_u64() as u8).collect();
        }
    }
    bytes
}

/// The invariant under fuzz: every decoder either produces a value or
/// a typed error — no panic — and the streaming reader never buffers
/// beyond one maximal frame. `pool` carries large payload buffers from
/// one iteration to the next, stale bytes and all.
fn fuzz_one(rng: &mut Xoshiro256pp, pool: &mut LargePayloads) {
    // A valid request round-trips through both decode paths.
    let req = random_request(rng);
    let mut frame = Vec::new();
    wire::write_request(&mut frame, &req).unwrap();
    let decoded = wire::read_request(&mut frame.as_slice()).unwrap().unwrap();
    assert_eq!(decoded, req);
    let mut reader = RequestReader::new();
    let mut trickle = Trickle {
        data: &frame,
        pos: 0,
        rng: Xoshiro256pp::seed_from_u64(rng.next_u64()),
    };
    // Trickle never returns `WouldBlock`, so a single poll must
    // deliver the complete frame despite the tiny reads.
    match reader.poll_with(&mut trickle, pool) {
        Ok(Some(got)) => {
            assert_eq!(got, req);
            pool.give(got.payload);
        }
        Ok(None) => panic!("EOF before the complete valid frame"),
        Err(e) => panic!("valid frame rejected: {e}"),
    }

    // The same frame, mangled: decoders may error but not panic, and
    // the incremental reader must respect the buffer cap throughout.
    let bytes = mangle(rng, frame);
    let _ = wire::read_request(&mut bytes.as_slice());
    let mut reader = RequestReader::new();
    let mut trickle = Trickle {
        data: &bytes,
        pos: 0,
        rng: Xoshiro256pp::seed_from_u64(rng.next_u64()),
    };
    loop {
        let polled = reader.poll_with(&mut trickle, pool);
        assert!(
            reader.buffered() <= BUFFER_CAP,
            "reader buffered {} bytes, cap is {BUFFER_CAP}",
            reader.buffered()
        );
        match polled {
            Ok(Some(got)) => pool.give(got.payload),
            Ok(None) | Err(_) => break,
        }
    }

    // Response decode: valid round-trip, then mangled.
    let resp = random_response(rng);
    let mut frame = Vec::new();
    wire::write_response(&mut frame, &resp).unwrap();
    let decoded = wire::read_response(&mut frame.as_slice()).unwrap().unwrap();
    assert_eq!(decoded, resp);
    let bytes = mangle(rng, frame);
    let _ = wire::read_response(&mut bytes.as_slice());

    // Management payloads decode from arbitrary slices.
    let noise: Vec<u8> = (0..rng.below(80)).map(|_| rng.next_u64() as u8).collect();
    let _ = VolumeInfo::decode(&noise);
    let _ = RebuildStatus::decode(&noise);
    let _ = wire::decode_volume_spec(&noise);
    let _ = wire::decode_volume_list(&noise);
    let _ = PoolInfo::decode(&noise);

    // Volume payload codecs: valid round-trip, then mangled bytes must
    // yield None, never a panic or an over-allocation.
    let spec = random_spec(rng);
    let bytes = wire::encode_volume_spec(&spec);
    if spec.name.len() <= 64 {
        assert_eq!(wire::decode_volume_spec(&bytes).as_ref(), Some(&spec));
    }
    let mangled = mangle(rng, bytes);
    let _ = wire::decode_volume_spec(&mangled);
    let metas: Vec<_> = (0..rng.below(5))
        .map(|i| {
            let s = random_spec(rng);
            pddl_server::VolumeMeta {
                id: i as u8,
                name: s.name,
                capacity_units: s.capacity_units,
                tenant: s.tenant,
                weight: s.weight,
                ops_per_sec: s.ops_per_sec,
                bytes_per_sec: s.bytes_per_sec,
            }
        })
        .collect();
    let bytes = wire::encode_volume_list(&metas);
    assert_eq!(wire::decode_volume_list(&bytes).as_ref(), Some(&metas));
    let mangled = mangle(rng, bytes);
    let _ = wire::decode_volume_list(&mangled);
}

/// Deterministic hostile inputs for the volume codecs: lying length
/// prefixes, row counts promising more data than exists, and values at
/// the integer edges. Every case must decode to `None` (or a valid
/// value) without panicking or allocating per the attacker's numbers.
#[test]
fn hostile_volume_payloads_are_rejected() {
    // Name length pointing past the buffer.
    let mut b = vec![0u8, 200];
    b.extend_from_slice(b"shortname");
    assert_eq!(wire::decode_volume_spec(&b), None);
    // Name length claiming u16::MAX on a tiny buffer.
    assert_eq!(wire::decode_volume_spec(&[0xff, 0xff, b'x']), None);
    // Valid name but truncated fixed tail.
    let mut b = vec![0u8, 4];
    b.extend_from_slice(b"vol0");
    b.extend_from_slice(&[0u8; 10]); // tail needs 8+4+2+8+8 = 30 bytes
    assert_eq!(wire::decode_volume_spec(&b), None);
    // Over-long name (> MAX_NAME) must be refused even if the buffer
    // really contains it.
    let long = "n".repeat(65);
    let mut b = vec![0u8, 65];
    b.extend_from_slice(long.as_bytes());
    b.extend_from_slice(&[0u8; 30]);
    assert_eq!(wire::decode_volume_spec(&b), None);
    // Trailing garbage after a well-formed spec is a framing error.
    let mut b = wire::encode_volume_spec(&VolumeSpec::new("ok", 8));
    b.push(0);
    assert_eq!(wire::decode_volume_spec(&b), None);

    // List row count promising 65535 rows backed by 2 bytes.
    assert_eq!(wire::decode_volume_list(&[0xff, 0xff]), None);
    // Row count of 1 with a row whose name length overflows the rest.
    let b = [0u8, 1, /* id */ 9, /* name_len */ 0xff, 0xff];
    assert_eq!(wire::decode_volume_list(&b), None);

    // Pool info: array count lying about the payload size.
    assert_eq!(PoolInfo::decode(&[0xff; 8]), None);
    // Failed-disk count larger than the remaining bytes.
    let mut b = Vec::new();
    b.extend_from_slice(&64u32.to_be_bytes()); // unit_bytes
    b.extend_from_slice(&1u16.to_be_bytes()); // volumes
    b.push(1); // array count
    b.extend_from_slice(&7u32.to_be_bytes()); // disks
    b.extend_from_slice(&100u64.to_be_bytes()); // capacity
    b.extend_from_slice(&50u64.to_be_bytes()); // free
    b.push(0); // mode
    b.extend_from_slice(&0xffff_ffffu32.to_be_bytes()); // failed count: lie
    assert_eq!(PoolInfo::decode(&b), None);
}

fn fuzz_budget(seed: u64, iterations: u64) {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    let mut pool = LargePayloads::new();
    for _ in 0..iterations {
        fuzz_one(&mut rng, &mut pool);
    }
}

#[test]
fn fuzz_wire_decoders() {
    fuzz_budget(0x5749_5245, 2_000);
}

#[test]
#[ignore = "large-budget soak; run explicitly"]
fn fuzz_wire_decoders_soak() {
    for seed in 0..16 {
        fuzz_budget(seed, 50_000);
    }
}
