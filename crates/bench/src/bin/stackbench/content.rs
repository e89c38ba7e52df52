//! Verifiable unit content: every stripe unit's bytes are a function of
//! `(unit index, write generation)`, so any READ can be checked without
//! keeping a copy of the volume.
//!
//! As little-endian 64-bit words: word 0 is the generation, word 1 the
//! unit index, the last word the tag `mix64(unit, generation)`, and
//! word `i` in between is `(tag ^ i) * GOLDEN`.

use crate::gen::mix64;

const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

fn tag(unit: u64, generation: u32) -> u64 {
    mix64(unit.wrapping_mul(0x1_0000_0001) ^ (u64::from(generation) << 32) ^ 0x5DD1_C0DE)
}

fn word(buf: &[u8], i: usize) -> u64 {
    u64::from_le_bytes(buf[8 * i..8 * i + 8].try_into().expect("8 bytes"))
}

/// Write unit `unit`'s content at `generation` into `buf` (one stripe
/// unit: a multiple of 8 bytes, at least 32).
pub fn fill_unit(buf: &mut [u8], unit: u64, generation: u32) {
    debug_assert!(buf.len() >= 32 && buf.len().is_multiple_of(8));
    let t = tag(unit, generation);
    // One branch-free pass (it vectorises), then the three framed words.
    for (i, chunk) in buf.chunks_exact_mut(8).enumerate() {
        chunk.copy_from_slice(&(t ^ i as u64).wrapping_mul(GOLDEN).to_le_bytes());
    }
    let last = buf.len() - 8;
    buf[0..8].copy_from_slice(&u64::from(generation).to_le_bytes());
    buf[8..16].copy_from_slice(&unit.to_le_bytes());
    buf[last..].copy_from_slice(&t.to_le_bytes());
}

/// Header/trailer check: the unit claims to be `unit` at some
/// generation and its trailer agrees. Returns that generation.
pub fn check_unit_frame(buf: &[u8], unit: u64) -> Option<u32> {
    let generation = u32::try_from(word(buf, 0)).ok()?;
    let ok = word(buf, 1) == unit && word(buf, buf.len() / 8 - 1) == tag(unit, generation);
    ok.then_some(generation)
}

/// Byte-for-byte check of one unit against `(unit, generation)`.
pub fn check_unit_bytes(buf: &[u8], unit: u64, generation: u32, scratch: &mut Vec<u8>) -> bool {
    scratch.resize(buf.len(), 0);
    fill_unit(scratch, unit, generation);
    scratch == buf
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fill_then_check_round_trips_and_any_flip_is_seen() {
        let mut buf = vec![0u8; 8192];
        let mut scratch = Vec::new();
        fill_unit(&mut buf, 1234, 7);
        assert_eq!(check_unit_frame(&buf, 1234), Some(7));
        assert_eq!(check_unit_frame(&buf, 1235), None);
        assert!(check_unit_bytes(&buf, 1234, 7, &mut scratch));
        for at in [0, 8, 4000, 8191] {
            buf[at] ^= 1;
            let framed = check_unit_frame(&buf, 1234);
            assert!(framed != Some(7) || !check_unit_bytes(&buf, 1234, 7, &mut scratch));
            buf[at] ^= 1;
        }
        // A stale generation is a valid frame of the wrong generation.
        fill_unit(&mut buf, 1234, 6);
        assert_eq!(check_unit_frame(&buf, 1234), Some(6));
        assert!(!check_unit_bytes(&buf, 1234, 7, &mut scratch));
    }
}
