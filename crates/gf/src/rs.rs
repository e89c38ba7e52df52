//! Systematic Reed–Solomon erasure coding over `GF(256)`.
//!
//! The PDDL paper treats check-unit contents abstractly ("the check unit
//! contains the parity of the data units"; §5 allows "arbitrary fixed
//! combinations of check and data blocks"). This module supplies the
//! actual redundancy math for a functional array: `c = 1` reduces to
//! XOR parity; `c ≥ 2` uses a Vandermonde-style systematic code that
//! recovers from any combination of up to `c` erased units.

use crate::gfext::GfExt;
use crate::kernels;

/// Errors from Reed–Solomon coding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// More erasures than check units.
    TooManyErasures {
        /// Erased shard count.
        erased: usize,
        /// Available check units.
        checks: usize,
    },
    /// Shards have inconsistent lengths or counts.
    ShapeMismatch,
    /// `data + checks` exceeds the field size (255 shards max).
    TooManyShards,
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::TooManyErasures { erased, checks } => {
                write!(f, "{erased} erasures exceed {checks} check units")
            }
            CodecError::ShapeMismatch => write!(f, "shard shape mismatch"),
            CodecError::TooManyShards => write!(f, "too many shards for GF(256)"),
        }
    }
}

impl std::error::Error for CodecError {}

/// One shard handed to [`ReedSolomon::reconstruct_into`]: a survivor's
/// bytes where they lie, or the caller's buffer an erased shard is
/// decoded into.
#[derive(Debug)]
pub enum Shard<'a> {
    /// A surviving shard.
    Present(&'a [u8]),
    /// An erased shard: its buffer receives the decoded bytes.
    Missing(&'a mut [u8]),
}

impl Shard<'_> {
    /// The shard's bytes (for a `Missing` shard, its buffer as it stands).
    pub fn bytes(&self) -> &[u8] {
        match self {
            Shard::Present(bytes) => bytes,
            Shard::Missing(buf) => buf,
        }
    }

    fn is_missing(&self) -> bool {
        matches!(self, Shard::Missing(_))
    }

    /// The buffer of an erased shard.
    fn buf(&mut self) -> &mut [u8] {
        match self {
            Shard::Missing(buf) => buf,
            Shard::Present(_) => unreachable!("only an erased shard is written"),
        }
    }

    /// Declare a `Missing` shard's buffer filled (read or decoded): the
    /// shard is `Present` from now on.
    pub fn settle(&mut self) {
        if let Shard::Missing(buf) = self {
            let buf: &mut [u8] = std::mem::take(buf);
            *self = Shard::Present(buf);
        }
    }
}

/// A systematic `(d + c, d)` Reed–Solomon code: `d` data shards, `c`
/// check shards, tolerating any `c` erasures.
///
/// ```
/// use pddl_gf::rs::ReedSolomon;
///
/// let rs = ReedSolomon::new(3, 2).unwrap();
/// let data = [b"abcd".to_vec(), b"efgh".to_vec(), b"ijkl".to_vec()];
/// let checks = rs.encode(&data).unwrap();
///
/// // Lose data shard 0 and check shard 1:
/// let mut shards: Vec<Option<Vec<u8>>> = vec![
///     None, Some(data[1].clone()), Some(data[2].clone()),
///     Some(checks[0].clone()), None,
/// ];
/// rs.reconstruct(&mut shards).unwrap();
/// assert_eq!(shards[0].as_deref(), Some(&b"abcd"[..]));
/// ```
#[derive(Debug, Clone)]
pub struct ReedSolomon {
    data: usize,
    checks: usize,
    field: GfExt,
    /// `c × d` encoding matrix: `check_i = Σ_j enc[i][j] · data_j`.
    enc: Vec<Vec<usize>>,
    /// Product tables indexed by coefficient value, populated for every
    /// encoding-matrix coefficient ≥ 2 (at most 64 KiB total).
    /// Coefficients 0 and 1 never consult a table — they dispatch to a
    /// skip and to the word-wide XOR kernel respectively.
    tables: Vec<Option<Box<[u8; 256]>>>,
}

impl ReedSolomon {
    /// Create a code with `d ≥ 1` data shards and `c ≥ 1` check shards.
    ///
    /// # Errors
    ///
    /// [`CodecError::TooManyShards`] when `d + c > 255`.
    pub fn new(data: usize, checks: usize) -> Result<Self, CodecError> {
        if data == 0 || checks == 0 || data + checks > 255 {
            return Err(CodecError::TooManyShards);
        }
        let field = GfExt::new(2, 8).expect("GF(256) always constructible");
        // Rows of a Vandermonde matrix over distinct non-zero points
        // x_1..x_d evaluated at c distinct exponents: enc[i][j] = x_j^i.
        // Row 0 is all-ones, so c = 1 is plain XOR parity.
        let enc: Vec<Vec<usize>> = (0..checks)
            .map(|i| (0..data).map(|j| field.pow(j + 1, i as u64)).collect())
            .collect();
        let mut tables: Vec<Option<Box<[u8; 256]>>> = vec![None; 256];
        for &coeff in enc.iter().flatten() {
            if coeff >= 2 && tables[coeff].is_none() {
                tables[coeff] = Some(kernels::mul_table(&field, coeff));
            }
        }
        Ok(Self {
            data,
            checks,
            field,
            enc,
            tables,
        })
    }

    /// Fold `coeff · src` into `dst`, dispatching on the coefficient:
    /// 0 is a no-op, 1 is the word-wide XOR kernel (the `c = 1` /
    /// RAID-5 parity case — row 0 of the Vandermonde matrix is
    /// all-ones), anything else is a table-driven multiply-accumulate.
    fn mul_acc_coeff(&self, coeff: usize, src: &[u8], dst: &mut [u8]) {
        match coeff {
            0 => {}
            1 => kernels::xor_into(dst, src),
            _ => match self.tables[coeff].as_deref() {
                Some(table) => kernels::mul_acc(dst, src, table),
                // Coefficients produced mid-elimination (not in `enc`):
                // build the table on the stack — still word-wide, and
                // only ever reached on the reconstruct path.
                None => kernels::mul_acc(dst, src, &kernels::product_table(&self.field, coeff)),
            },
        }
    }

    /// Overwrite `dst` with `coeff · src`: a copy for coefficient 1.
    fn mul_set(&self, coeff: usize, src: &[u8], dst: &mut [u8]) {
        if coeff == 1 {
            dst.copy_from_slice(src);
        } else {
            dst.fill(0);
            self.mul_acc_coeff(coeff, src, dst);
        }
    }

    /// Check shard `i` of the data shards `data(0..d)` into `out`.
    fn encode_check<'d>(&self, i: usize, data: impl Fn(usize) -> &'d [u8], out: &mut [u8]) {
        self.mul_set(self.enc[i][0], data(0), out);
        for j in 1..self.data {
            self.mul_acc_coeff(self.enc[i][j], data(j), out);
        }
    }

    /// Number of data shards `d`.
    pub fn data_shards(&self) -> usize {
        self.data
    }

    /// Number of check shards `c`.
    pub fn check_shards(&self) -> usize {
        self.checks
    }

    /// Encode: compute the `c` check shards from `d` equal-length data
    /// shards. An allocating wrapper over [`ReedSolomon::encode_into`].
    ///
    /// # Errors
    ///
    /// [`CodecError::ShapeMismatch`] on wrong shard count or ragged
    /// lengths.
    pub fn encode(&self, data: &[Vec<u8>]) -> Result<Vec<Vec<u8>>, CodecError> {
        let len = data.first().map_or(0, Vec::len);
        let mut checks = vec![vec![0u8; len]; self.checks];
        self.encode_into(data, &mut checks)?;
        Ok(checks)
    }

    /// Encode into caller buffers: `checks[i]` is overwritten with check
    /// shard `i` of the `d` equal-length `data` shards. Allocates
    /// nothing.
    ///
    /// # Errors
    ///
    /// [`CodecError::ShapeMismatch`] on a wrong shard count or when any
    /// shard's length differs from `data[0]`'s.
    pub fn encode_into<D: AsRef<[u8]>, C: AsMut<[u8]>>(
        &self,
        data: &[D],
        checks: &mut [C],
    ) -> Result<(), CodecError> {
        if data.len() != self.data || checks.len() != self.checks {
            return Err(CodecError::ShapeMismatch);
        }
        let len = data[0].as_ref().len();
        if data.iter().any(|s| s.as_ref().len() != len)
            || checks.iter_mut().any(|s| s.as_mut().len() != len)
        {
            return Err(CodecError::ShapeMismatch);
        }
        for (i, check) in checks.iter_mut().enumerate() {
            self.encode_check(i, |j| data[j].as_ref(), check.as_mut());
        }
        Ok(())
    }

    /// Incremental parity update: fold the change of one data shard into
    /// one check shard. With `delta = old_data ⊕ new_data`,
    /// `check_i' = check_i ⊕ enc[i][j]·delta` — the read-modify-write
    /// "small write" a real controller performs without touching the
    /// other data shards.
    ///
    /// # Panics
    ///
    /// Panics when indices are out of range or lengths differ.
    pub fn apply_delta(
        &self,
        check_index: usize,
        data_index: usize,
        delta: &[u8],
        check: &mut [u8],
    ) {
        assert!(
            check_index < self.checks && data_index < self.data,
            "shard index out of range"
        );
        assert_eq!(delta.len(), check.len(), "length mismatch");
        self.mul_acc_coeff(self.enc[check_index][data_index], delta, check);
    }

    /// Reconstruct missing shards in place. `shards` holds the `d` data
    /// shards followed by the `c` check shards; `None` marks an erasure.
    /// On success every entry is `Some`. An allocating wrapper over
    /// [`ReedSolomon::reconstruct_into`]: only the erased shards get a
    /// buffer.
    ///
    /// # Errors
    ///
    /// [`CodecError::TooManyErasures`] when more than `c` entries are
    /// `None`; [`CodecError::ShapeMismatch`] on wrong count or ragged
    /// lengths.
    pub fn reconstruct(&self, shards: &mut [Option<Vec<u8>>]) -> Result<(), CodecError> {
        let len = shards.iter().flatten().map(Vec::len).next().unwrap_or(0);
        let mut decoded: Vec<Vec<u8>> = shards
            .iter()
            .filter(|s| s.is_none())
            .map(|_| vec![0u8; len])
            .collect();
        let mut bufs = decoded.iter_mut();
        let mut view: Vec<Shard<'_>> = shards
            .iter()
            .map(|s| match s {
                Some(bytes) => Shard::Present(bytes),
                None => Shard::Missing(bufs.next().expect("one buffer per erasure")),
            })
            .collect();
        self.reconstruct_into(&mut view)?;
        let erased = shards.iter_mut().filter(|s| s.is_none());
        for (slot, bytes) in erased.zip(decoded) {
            *slot = Some(bytes);
        }
        Ok(())
    }

    /// Reconstruct the erased shards of `shards` (the `d` data shards,
    /// then the `c` check shards) into their own buffers. Each survivor
    /// is read where it lies. Only the erased data shards are solved for
    /// and only the erased checks re-encoded, so at `c = 1` a lost data
    /// shard is a copy of the check plus one XOR per other data shard,
    /// and a lost check is one encode. Allocates nothing for up to 8
    /// erased data shards. On success every shard is
    /// [`Shard::Present`].
    ///
    /// # Errors
    ///
    /// [`CodecError::ShapeMismatch`] on a wrong shard count or ragged
    /// lengths; [`CodecError::TooManyErasures`] when more than `c`
    /// shards are `Missing`. Nothing is written on error.
    pub fn reconstruct_into(&self, shards: &mut [Shard<'_>]) -> Result<(), CodecError> {
        if shards.len() != self.data + self.checks {
            return Err(CodecError::ShapeMismatch);
        }
        let erased = shards.iter().filter(|s| s.is_missing()).count();
        if erased == 0 {
            return Ok(());
        }
        if erased > self.checks {
            return Err(CodecError::TooManyErasures {
                erased,
                checks: self.checks,
            });
        }
        let len = shards[0].bytes().len();
        if shards.iter().any(|s| s.bytes().len() != len) {
            return Err(CodecError::ShapeMismatch);
        }
        let (data, checks) = shards.split_at_mut(self.data);
        self.solve_data(data, checks);
        data.iter_mut().for_each(Shard::settle);
        let data: &[Shard<'_>] = data;
        for (i, check) in checks.iter_mut().enumerate() {
            if let Shard::Missing(out) = check {
                self.encode_check(i, |j| data[j].bytes(), out);
                check.settle();
            }
        }
        Ok(())
    }

    /// Solve for the erased data shards in their own buffers. Row `r`
    /// pairs the `r`-th erased data shard with the `r`-th surviving
    /// check `i`: its buffer starts as `check_i − Σ_{j present}
    /// enc[i][j]·data_j` (subtraction is XOR), which equals
    /// `Σ_{m erased} enc[i][m]·x_m`. Gauss–Jordan elimination on those
    /// rows, moving buffers along with coefficient rows, leaves each
    /// erased shard's value in its own buffer.
    fn solve_data(&self, data: &mut [Shard<'_>], checks: &[Shard<'_>]) {
        let k = data.iter().filter(|s| s.is_missing()).count();
        if k == 0 {
            return;
        }
        let erased = |data: &[Shard<'_>], r: usize| {
            let mut at = data.iter().enumerate().filter(|(_, s)| s.is_missing());
            at.nth(r).expect("row within the erased count").0
        };
        // The k × k coefficient matrix, row-major; the stack holds it for
        // up to 8 erased data shards.
        let mut inline = [0u8; 64];
        let mut heap = Vec::new();
        let a: &mut [u8] = if k * k <= inline.len() {
            &mut inline[..k * k]
        } else {
            heap.resize(k * k, 0);
            &mut heap
        };
        // At most c erasures in all, so at least k checks survive.
        let survivors = checks.iter().enumerate().filter(|(_, s)| !s.is_missing());
        for (r, (i, check)) in survivors.take(k).enumerate() {
            for col in 0..k {
                a[r * k + col] = self.enc[i][erased(data, col)] as u8;
            }
            let m = erased(data, r);
            data[m].buf().copy_from_slice(check.bytes());
            for j in 0..self.data {
                if data[j].is_missing() {
                    continue;
                }
                let [dst, src] = data.get_disjoint_mut([m, j]).expect("distinct shards");
                self.mul_acc_coeff(self.enc[i][j], src.bytes(), dst.buf());
            }
        }
        let f = &self.field;
        for col in 0..k {
            let pivot = (col..k)
                .find(|&r| a[r * k + col] != 0)
                .expect("Vandermonde submatrix is invertible");
            let m = erased(data, col);
            if pivot != col {
                for c in 0..k {
                    a.swap(pivot * k + c, col * k + c);
                }
                let p = erased(data, pivot);
                let [x, y] = data.get_disjoint_mut([m, p]).expect("distinct shards");
                x.buf().swap_with_slice(y.buf());
            }
            let inv = f.inv(a[col * k + col] as usize).expect("non-zero pivot");
            if inv != 1 {
                for c in 0..k {
                    a[col * k + c] = f.mul(a[col * k + c] as usize, inv) as u8;
                }
                kernels::scale(data[m].buf(), &kernels::product_table(f, inv));
            }
            for r in (0..k).filter(|&r| r != col) {
                let factor = a[r * k + col] as usize;
                if factor == 0 {
                    continue;
                }
                for c in 0..k {
                    a[r * k + c] ^= f.mul(factor, a[col * k + c] as usize) as u8;
                }
                let [dst, src] = data
                    .get_disjoint_mut([erased(data, r), m])
                    .expect("distinct shards");
                self.mul_acc_coeff(factor, src.bytes(), dst.buf());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shard(tag: u8, len: usize) -> Vec<u8> {
        (0..len)
            .map(|i| tag.wrapping_mul(31).wrapping_add(i as u8))
            .collect()
    }

    #[test]
    fn xor_parity_for_single_check() {
        let rs = ReedSolomon::new(3, 1).unwrap();
        let data = [shard(1, 8), shard(2, 8), shard(3, 8)];
        let checks = rs.encode(&data).unwrap();
        for i in 0..8 {
            assert_eq!(checks[0][i], data[0][i] ^ data[1][i] ^ data[2][i]);
        }
    }

    #[test]
    fn recovers_any_single_erasure() {
        let rs = ReedSolomon::new(3, 1).unwrap();
        let data = [shard(5, 16), shard(6, 16), shard(7, 16)];
        let checks = rs.encode(&data).unwrap();
        for lost in 0..4 {
            let mut shards: Vec<Option<Vec<u8>>> = data
                .iter()
                .cloned()
                .map(Some)
                .chain(checks.iter().cloned().map(Some))
                .collect();
            shards[lost] = None;
            rs.reconstruct(&mut shards).unwrap();
            for (i, d) in data.iter().enumerate() {
                assert_eq!(shards[i].as_ref().unwrap(), d, "lost={lost}");
            }
            assert_eq!(shards[3].as_ref().unwrap(), &checks[0]);
        }
    }

    #[test]
    fn recovers_every_double_erasure() {
        let rs = ReedSolomon::new(4, 2).unwrap();
        let data = [shard(9, 32), shard(10, 32), shard(11, 32), shard(12, 32)];
        let checks = rs.encode(&data).unwrap();
        let total = 6;
        for a in 0..total {
            for b in (a + 1)..total {
                let mut shards: Vec<Option<Vec<u8>>> = data
                    .iter()
                    .cloned()
                    .map(Some)
                    .chain(checks.iter().cloned().map(Some))
                    .collect();
                shards[a] = None;
                shards[b] = None;
                rs.reconstruct(&mut shards).unwrap();
                for (i, d) in data.iter().enumerate() {
                    assert_eq!(shards[i].as_ref().unwrap(), d, "lost ({a},{b})");
                }
            }
        }
    }

    #[test]
    fn recovers_triple_erasures_with_three_checks() {
        let rs = ReedSolomon::new(5, 3).unwrap();
        let data: Vec<Vec<u8>> = (0..5).map(|t| shard(t as u8 + 40, 64)).collect();
        let checks = rs.encode(&data).unwrap();
        for lost in [[0usize, 1, 2], [0, 4, 7], [5, 6, 7], [2, 3, 6]] {
            let mut shards: Vec<Option<Vec<u8>>> = data
                .iter()
                .cloned()
                .map(Some)
                .chain(checks.iter().cloned().map(Some))
                .collect();
            for &l in &lost {
                shards[l] = None;
            }
            rs.reconstruct(&mut shards).unwrap();
            for (i, d) in data.iter().enumerate() {
                assert_eq!(shards[i].as_ref().unwrap(), d, "lost {lost:?}");
            }
        }
    }

    #[test]
    fn too_many_erasures_detected() {
        let rs = ReedSolomon::new(3, 1).unwrap();
        let data = [shard(1, 4), shard(2, 4), shard(3, 4)];
        let checks = rs.encode(&data).unwrap();
        let mut shards: Vec<Option<Vec<u8>>> =
            vec![None, None, Some(data[2].clone()), Some(checks[0].clone())];
        assert!(matches!(
            rs.reconstruct(&mut shards),
            Err(CodecError::TooManyErasures {
                erased: 2,
                checks: 1
            })
        ));
    }

    #[test]
    fn shape_errors() {
        let rs = ReedSolomon::new(2, 1).unwrap();
        assert_eq!(
            rs.encode(&[shard(1, 4)]).unwrap_err(),
            CodecError::ShapeMismatch
        );
        assert_eq!(
            rs.encode(&[shard(1, 4), shard(2, 5)]).unwrap_err(),
            CodecError::ShapeMismatch
        );
        assert!(ReedSolomon::new(0, 1).is_err());
        assert!(ReedSolomon::new(1, 0).is_err());
        assert!(ReedSolomon::new(250, 6).is_err());
        let mut wrong_count = vec![Some(shard(1, 4)); 2];
        assert_eq!(
            rs.reconstruct(&mut wrong_count).unwrap_err(),
            CodecError::ShapeMismatch
        );
    }

    #[test]
    fn apply_delta_matches_full_reencode() {
        let rs = ReedSolomon::new(4, 3).unwrap();
        let mut data = vec![shard(1, 16), shard(2, 16), shard(3, 16), shard(4, 16)];
        let mut checks = rs.encode(&data).unwrap();
        // Mutate data shard 2 and patch every check incrementally.
        let new_shard = shard(99, 16);
        let delta: Vec<u8> = data[2].iter().zip(&new_shard).map(|(a, b)| a ^ b).collect();
        for (i, check) in checks.iter_mut().enumerate() {
            rs.apply_delta(i, 2, &delta, check);
        }
        data[2] = new_shard;
        assert_eq!(checks, rs.encode(&data).unwrap());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn apply_delta_bounds_checked() {
        let rs = ReedSolomon::new(2, 1).unwrap();
        let mut check = vec![0u8; 4];
        rs.apply_delta(1, 0, &[0; 4], &mut check);
    }

    #[test]
    fn nothing_missing_is_a_noop() {
        let rs = ReedSolomon::new(2, 2).unwrap();
        let data = [shard(1, 4), shard(2, 4)];
        let checks = rs.encode(&data).unwrap();
        let mut shards: Vec<Option<Vec<u8>>> = data
            .iter()
            .cloned()
            .map(Some)
            .chain(checks.iter().cloned().map(Some))
            .collect();
        let before = shards.clone();
        rs.reconstruct(&mut shards).unwrap();
        assert_eq!(shards, before);
    }

    #[test]
    fn empty_shards_roundtrip() {
        let rs = ReedSolomon::new(2, 1).unwrap();
        let data = [Vec::new(), Vec::new()];
        let checks = rs.encode(&data).unwrap();
        assert_eq!(checks[0].len(), 0);
    }
}
