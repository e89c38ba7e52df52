//! Word-wide byte-array kernels for the erasure-coding hot path.
//!
//! Every parity operation the array performs reduces to two primitives
//! over equal-length byte buffers:
//!
//! * `dst ^= src` — XOR accumulate (coefficient 1, the RAID-5 case),
//! * `dst ^= table[src]` — multiply-accumulate by a fixed `GF(256)`
//!   coefficient through a 256-byte product table.
//!
//! Both walk the buffers in `u64` lanes via `chunks_exact(8)` and finish
//! the tail byte-wise, so they are safe on any slice length or alignment
//! (the lane loads go through `from_ne_bytes`, never pointer casts).
//! The `*_scalar` reference versions are the obviously-correct byte
//! loops the property tests compare against.

use crate::gfext::GfExt;

/// XOR `src` into `dst` (`dst[i] ^= src[i]`), eight bytes per step.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn xor_into(dst: &mut [u8], src: &[u8]) {
    assert_eq!(dst.len(), src.len(), "kernel length mismatch");
    let mut d = dst.chunks_exact_mut(8);
    let mut s = src.chunks_exact(8);
    for (dw, sw) in (&mut d).zip(&mut s) {
        let lane = u64::from_ne_bytes(dw.try_into().expect("8-byte chunk"))
            ^ u64::from_ne_bytes(sw.try_into().expect("8-byte chunk"));
        dw.copy_from_slice(&lane.to_ne_bytes());
    }
    for (db, sb) in d.into_remainder().iter_mut().zip(s.remainder()) {
        *db ^= *sb;
    }
}

/// Multiply-accumulate: `dst[i] ^= table[src[i]]` where `table` is the
/// product table of one fixed `GF(256)` coefficient (see [`mul_table`]).
///
/// The lookups are inherently byte-granular, but the products are
/// assembled into a `u64` lane so `dst` is still read and written one
/// word at a time.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn mul_acc(dst: &mut [u8], src: &[u8], table: &[u8; 256]) {
    assert_eq!(dst.len(), src.len(), "kernel length mismatch");
    let mut d = dst.chunks_exact_mut(8);
    let mut s = src.chunks_exact(8);
    for (dw, sw) in (&mut d).zip(&mut s) {
        let mut prod = [0u8; 8];
        for (p, &b) in prod.iter_mut().zip(sw) {
            *p = table[b as usize];
        }
        let lane =
            u64::from_ne_bytes(dw.try_into().expect("8-byte chunk")) ^ u64::from_ne_bytes(prod);
        dw.copy_from_slice(&lane.to_ne_bytes());
    }
    for (db, &sb) in d.into_remainder().iter_mut().zip(s.remainder()) {
        *db ^= table[sb as usize];
    }
}

/// Scale in place: `buf[i] = table[buf[i]]` (used for pivot-row
/// normalization during Gaussian elimination).
pub fn scale(buf: &mut [u8], table: &[u8; 256]) {
    for b in buf {
        *b = table[*b as usize];
    }
}

/// Build the 256-byte product table for one coefficient:
/// `table[x] = coeff · x` in `GF(256)`.
///
/// # Panics
///
/// Panics if `field` is not an order-256 field or `coeff` is out of
/// range.
pub fn mul_table(field: &GfExt, coeff: usize) -> Box<[u8; 256]> {
    Box::new(product_table(field, coeff))
}

/// [`mul_table`] by value, for a table that lives on the stack.
pub(crate) fn product_table(field: &GfExt, coeff: usize) -> [u8; 256] {
    assert_eq!(field.size(), 256, "product tables require GF(256)");
    assert!(coeff < 256, "coefficient out of range");
    let mut table = [0u8; 256];
    for (x, slot) in table.iter_mut().enumerate() {
        *slot = field.mul(coeff, x) as u8;
    }
    table
}

/// Byte-wise reference for [`xor_into`]; kept for property tests.
pub fn xor_into_scalar(dst: &mut [u8], src: &[u8]) {
    assert_eq!(dst.len(), src.len(), "kernel length mismatch");
    for (d, &s) in dst.iter_mut().zip(src) {
        *d ^= s;
    }
}

/// Byte-wise reference for [`mul_acc`]; kept for property tests.
pub fn mul_acc_scalar(dst: &mut [u8], src: &[u8], table: &[u8; 256]) {
    assert_eq!(dst.len(), src.len(), "kernel length mismatch");
    for (d, &s) in dst.iter_mut().zip(src) {
        *d ^= table[s as usize];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xor_table_is_identity_shift() {
        let f = GfExt::new(2, 8).unwrap();
        let t = mul_table(&f, 1);
        for x in 0..256 {
            assert_eq!(t[x] as usize, x);
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn xor_rejects_ragged() {
        xor_into(&mut [0u8; 3], &[0u8; 4]);
    }

    #[test]
    #[should_panic(expected = "GF(256)")]
    fn table_rejects_small_field() {
        let f = GfExt::new(2, 4).unwrap();
        let _ = mul_table(&f, 1);
    }
}
