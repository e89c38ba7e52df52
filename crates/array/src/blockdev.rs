//! In-memory block devices with failure injection.

use std::fmt;

/// Errors from a block device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiskError {
    /// The disk has failed; all I/O errors out until it is replaced.
    Failed,
    /// Offset beyond the device.
    OutOfRange,
    /// Buffer length does not match the unit size.
    WrongLength,
    /// An underlying I/O error (file-backed devices).
    Io,
}

impl fmt::Display for DiskError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DiskError::Failed => write!(f, "disk failed"),
            DiskError::OutOfRange => write!(f, "offset out of range"),
            DiskError::WrongLength => write!(f, "buffer length != unit size"),
            DiskError::Io => write!(f, "underlying I/O error"),
        }
    }
}

impl std::error::Error for DiskError {}

/// A stripe-unit block device the array can run on: RAM-backed
/// ([`RamDisk`]) or file-backed ([`FileDisk`]).
pub trait BlockDevice: std::fmt::Debug + Send {
    /// Stripe units on the device.
    fn units(&self) -> u64;
    /// Bytes per stripe unit.
    fn unit_bytes(&self) -> usize;
    /// Has the disk been failed?
    fn is_failed(&self) -> bool;
    /// Read one stripe unit into a caller-supplied buffer (zeroes if
    /// never written). This is the primitive the array's zero-copy read
    /// path uses; implementations must not allocate.
    ///
    /// # Errors
    ///
    /// [`DiskError::Failed`] / [`DiskError::OutOfRange`] /
    /// [`DiskError::WrongLength`] (buffer ≠ unit size) /
    /// [`DiskError::Io`].
    fn read_unit_into(&self, offset: u64, buf: &mut [u8]) -> Result<(), DiskError>;
    /// Read one stripe unit into a fresh allocation. Thin wrapper over
    /// [`BlockDevice::read_unit_into`], kept for call sites that want an
    /// owned buffer.
    ///
    /// # Errors
    ///
    /// As [`BlockDevice::read_unit_into`].
    fn read_unit(&self, offset: u64) -> Result<Vec<u8>, DiskError> {
        let mut buf = vec![0u8; self.unit_bytes()];
        self.read_unit_into(offset, &mut buf)?;
        Ok(buf)
    }
    /// Write one stripe unit.
    ///
    /// # Errors
    ///
    /// As [`BlockDevice::read_unit`], plus [`DiskError::WrongLength`].
    fn write_unit(&mut self, offset: u64, data: &[u8]) -> Result<(), DiskError>;
    /// Inject a failure: the contents become unreadable.
    fn fail(&mut self);
    /// Install a fresh blank drive in this slot.
    fn replace(&mut self);
}

/// A RAM-backed disk storing whole stripe units; unwritten units read as
/// zeroes (like a freshly formatted drive).
///
/// One flat buffer holds every unit back to back, so a write copies
/// into place and allocates nothing. A written-bitmap says which units
/// hold data: a clear bit reads as zeros, which is how [`RamDisk::fail`]
/// and [`RamDisk::replace`] blank the drive in `O(units / 64)` instead
/// of a memset of the whole buffer.
#[derive(Debug, Clone)]
pub struct RamDisk {
    /// `units × unit_bytes` bytes, made with `vec![0; n]`: pages no
    /// write ever touched are never faulted in.
    data: Vec<u8>,
    /// Bit `u` set ⇔ unit `u` was written since the drive went in.
    written: Vec<u64>,
    units: u64,
    unit_bytes: usize,
    failed: bool,
}

impl RamDisk {
    /// Create a healthy disk of `units` stripe units of `unit_bytes`
    /// each.
    ///
    /// # Panics
    ///
    /// Panics if `unit_bytes == 0` or the disk's byte size overflows
    /// `usize`.
    pub fn new(units: u64, unit_bytes: usize) -> Self {
        assert!(unit_bytes > 0, "unit size must be positive");
        let bytes = usize::try_from(units)
            .ok()
            .and_then(|u| u.checked_mul(unit_bytes))
            .expect("disk size overflows usize");
        Self {
            data: vec![0; bytes],
            written: vec![0; units.div_ceil(64) as usize],
            units,
            unit_bytes,
            failed: false,
        }
    }

    /// Stripe units on the device.
    pub fn units(&self) -> u64 {
        self.units
    }

    /// Bytes per stripe unit.
    pub fn unit_bytes(&self) -> usize {
        self.unit_bytes
    }

    /// Has the disk been failed?
    pub fn is_failed(&self) -> bool {
        self.failed
    }

    /// Read one stripe unit (zeroes if never written).
    ///
    /// # Errors
    ///
    /// [`DiskError::Failed`] / [`DiskError::OutOfRange`].
    pub fn read_unit(&self, offset: u64) -> Result<Vec<u8>, DiskError> {
        let mut buf = vec![0u8; self.unit_bytes];
        self.read_unit_into(offset, &mut buf)?;
        Ok(buf)
    }

    /// Read one stripe unit into `buf` without allocating.
    ///
    /// # Errors
    ///
    /// [`DiskError::Failed`] / [`DiskError::OutOfRange`] /
    /// [`DiskError::WrongLength`].
    pub fn read_unit_into(&self, offset: u64, buf: &mut [u8]) -> Result<(), DiskError> {
        if self.failed {
            return Err(DiskError::Failed);
        }
        if buf.len() != self.unit_bytes {
            return Err(DiskError::WrongLength);
        }
        if offset >= self.units {
            return Err(DiskError::OutOfRange);
        }
        if self.is_written(offset) {
            buf.copy_from_slice(self.unit(offset));
        } else {
            buf.fill(0);
        }
        Ok(())
    }

    /// Write one stripe unit.
    ///
    /// # Errors
    ///
    /// [`DiskError::Failed`] / [`DiskError::OutOfRange`] /
    /// [`DiskError::WrongLength`].
    pub fn write_unit(&mut self, offset: u64, data: &[u8]) -> Result<(), DiskError> {
        if self.failed {
            return Err(DiskError::Failed);
        }
        if data.len() != self.unit_bytes {
            return Err(DiskError::WrongLength);
        }
        if offset >= self.units {
            return Err(DiskError::OutOfRange);
        }
        let at = offset as usize * self.unit_bytes;
        self.data[at..at + self.unit_bytes].copy_from_slice(data);
        self.written[offset as usize / 64] |= 1 << (offset % 64);
        Ok(())
    }

    /// Inject a failure: the contents become unreadable.
    pub fn fail(&mut self) {
        self.failed = true;
        self.written.fill(0);
    }

    /// Install a fresh blank drive in this slot.
    pub fn replace(&mut self) {
        self.failed = false;
        self.written.fill(0);
    }

    /// Unit `offset`'s bytes in the flat buffer (`offset` in range).
    fn unit(&self, offset: u64) -> &[u8] {
        let at = offset as usize * self.unit_bytes;
        &self.data[at..at + self.unit_bytes]
    }

    /// Whether unit `offset` holds data rather than implied zeros.
    fn is_written(&self, offset: u64) -> bool {
        self.written[offset as usize / 64] & (1 << (offset % 64)) != 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_and_zero_fill() {
        let mut d = RamDisk::new(4, 8);
        assert_eq!(d.read_unit(0).unwrap(), vec![0u8; 8]);
        d.write_unit(2, &[7u8; 8]).unwrap();
        assert_eq!(d.read_unit(2).unwrap(), vec![7u8; 8]);
        assert_eq!(d.units(), 4);
        assert_eq!(d.unit_bytes(), 8);
    }

    #[test]
    fn failure_lifecycle() {
        let mut d = RamDisk::new(2, 4);
        d.write_unit(0, &[1, 2, 3, 4]).unwrap();
        d.fail();
        assert!(d.is_failed());
        assert_eq!(d.read_unit(0), Err(DiskError::Failed));
        assert_eq!(d.write_unit(0, &[0; 4]), Err(DiskError::Failed));
        d.replace();
        assert!(!d.is_failed());
        // Replacement is blank — the old bytes are gone.
        assert_eq!(d.read_unit(0).unwrap(), vec![0u8; 4]);
    }

    #[test]
    fn bounds_and_length_checks() {
        let mut d = RamDisk::new(2, 4);
        assert_eq!(d.read_unit(2), Err(DiskError::OutOfRange));
        assert_eq!(d.write_unit(2, &[0; 4]), Err(DiskError::OutOfRange));
        assert_eq!(d.write_unit(0, &[0; 3]), Err(DiskError::WrongLength));
        let mut short = [0u8; 3];
        assert_eq!(d.read_unit_into(0, &mut short), Err(DiskError::WrongLength));
    }

    #[test]
    fn read_into_matches_read() {
        let mut d = RamDisk::new(3, 8);
        d.write_unit(1, &[5u8; 8]).unwrap();
        for off in 0..3 {
            let mut buf = [0xffu8; 8];
            d.read_unit_into(off, &mut buf).unwrap();
            assert_eq!(buf.to_vec(), d.read_unit(off).unwrap(), "offset {off}");
        }
    }

    #[test]
    #[should_panic(expected = "unit size must be positive")]
    fn zero_unit_size_rejected() {
        let _ = RamDisk::new(1, 0);
    }

    /// Seeded op sequences against a `HashMap` model: writes, reads,
    /// `fail`, `replace`, out-of-range offsets and wrong-length buffers.
    /// Unwritten and replaced units read as zeros, a failed disk answers
    /// `Failed` to everything, and the argument checks keep their order
    /// (`Failed`, then `WrongLength`, then `OutOfRange`).
    #[test]
    fn ram_disk_matches_a_map_model() {
        use pddl_core::rng::Xoshiro256pp;
        use std::collections::HashMap;

        for seed in 0..64u64 {
            let mut rng = Xoshiro256pp::seed_from_u64(seed);
            // Unit counts around the bitmap's 64-unit word boundaries.
            let units = [1u64, 63, 64, 65, 130][rng.below(5)];
            let ub = 1 + rng.below(24);
            let mut disk = RamDisk::new(units, ub);
            let mut model: HashMap<u64, Vec<u8>> = HashMap::new();
            let mut failed = false;
            for step in 0..400 {
                let offset = rng.below_u64(units + 2); // past the end too
                let len = if rng.chance(0.1) { ub + 1 } else { ub };
                let expect_err = if failed {
                    Some(DiskError::Failed)
                } else if len != ub {
                    Some(DiskError::WrongLength)
                } else if offset >= units {
                    Some(DiskError::OutOfRange)
                } else {
                    None
                };
                let ctx = format!("seed {seed} step {step} offset {offset} len {len}");
                match rng.below(10) {
                    0..=3 => {
                        let fill = rng.next_u64() as u8;
                        let got = disk.write_unit(offset, &vec![fill; len]);
                        assert_eq!(got.err(), expect_err, "write: {ctx}");
                        if expect_err.is_none() {
                            model.insert(offset, vec![fill; len]);
                        }
                    }
                    4..=7 => {
                        let mut buf = vec![0xeeu8; len];
                        let got = disk.read_unit_into(offset, &mut buf);
                        assert_eq!(got.err(), expect_err, "read: {ctx}");
                        if expect_err.is_none() {
                            let want = model.get(&offset).cloned().unwrap_or(vec![0; ub]);
                            assert_eq!(buf, want, "read bytes: {ctx}");
                        }
                    }
                    8 => {
                        disk.fail();
                        failed = true;
                        model.clear();
                    }
                    _ => {
                        disk.replace();
                        failed = false;
                        model.clear();
                    }
                }
                assert_eq!(disk.is_failed(), failed, "{ctx}");
                assert_eq!((disk.units(), disk.unit_bytes()), (units, ub));
            }
        }
    }
}

impl BlockDevice for RamDisk {
    fn units(&self) -> u64 {
        RamDisk::units(self)
    }
    fn unit_bytes(&self) -> usize {
        RamDisk::unit_bytes(self)
    }
    fn is_failed(&self) -> bool {
        RamDisk::is_failed(self)
    }
    fn read_unit_into(&self, offset: u64, buf: &mut [u8]) -> Result<(), DiskError> {
        RamDisk::read_unit_into(self, offset, buf)
    }
    fn write_unit(&mut self, offset: u64, data: &[u8]) -> Result<(), DiskError> {
        RamDisk::write_unit(self, offset, data)
    }
    fn fail(&mut self) {
        RamDisk::fail(self)
    }
    fn replace(&mut self) {
        RamDisk::replace(self)
    }
}

/// A file-backed disk: one sparse file per device, sized
/// `units × unit_bytes` (unwritten regions read as zeroes). Failure is
/// simulated by refusing I/O; `replace` truncates the file back to
/// zeroes.
#[derive(Debug)]
pub struct FileDisk {
    file: std::fs::File,
    path: std::path::PathBuf,
    units: u64,
    unit_bytes: usize,
    failed: bool,
}

impl FileDisk {
    /// Create (or truncate) the backing file at `path`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    ///
    /// # Panics
    ///
    /// Panics if `unit_bytes == 0`.
    pub fn create(
        path: impl Into<std::path::PathBuf>,
        units: u64,
        unit_bytes: usize,
    ) -> std::io::Result<Self> {
        assert!(unit_bytes > 0, "unit size must be positive");
        let path = path.into();
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)?;
        file.set_len(units * unit_bytes as u64)?;
        Ok(Self {
            file,
            path,
            units,
            unit_bytes,
            failed: false,
        })
    }

    /// Path of the backing file.
    pub fn path(&self) -> &std::path::Path {
        &self.path
    }
}

impl BlockDevice for FileDisk {
    fn units(&self) -> u64 {
        self.units
    }
    fn unit_bytes(&self) -> usize {
        self.unit_bytes
    }
    fn is_failed(&self) -> bool {
        self.failed
    }
    fn read_unit_into(&self, offset: u64, buf: &mut [u8]) -> Result<(), DiskError> {
        use std::os::unix::fs::FileExt;
        if self.failed {
            return Err(DiskError::Failed);
        }
        if offset >= self.units {
            return Err(DiskError::OutOfRange);
        }
        if buf.len() != self.unit_bytes {
            return Err(DiskError::WrongLength);
        }
        self.file
            .read_exact_at(buf, offset * self.unit_bytes as u64)
            .map_err(|_| DiskError::Io)?;
        Ok(())
    }
    fn write_unit(&mut self, offset: u64, data: &[u8]) -> Result<(), DiskError> {
        use std::os::unix::fs::FileExt;
        if self.failed {
            return Err(DiskError::Failed);
        }
        if offset >= self.units {
            return Err(DiskError::OutOfRange);
        }
        if data.len() != self.unit_bytes {
            return Err(DiskError::WrongLength);
        }
        self.file
            .write_all_at(data, offset * self.unit_bytes as u64)
            .map_err(|_| DiskError::Io)?;
        Ok(())
    }
    fn fail(&mut self) {
        self.failed = true;
    }
    fn replace(&mut self) {
        self.failed = false;
        let _ = self.file.set_len(0);
        let _ = self.file.set_len(self.units * self.unit_bytes as u64);
    }
}

#[cfg(test)]
mod file_disk_tests {
    use super::*;

    fn temp_path(tag: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("pddl-filedisk-{tag}-{}", std::process::id()));
        p
    }

    #[test]
    fn file_disk_roundtrip_and_zero_fill() {
        let path = temp_path("roundtrip");
        let mut d = FileDisk::create(&path, 8, 32).unwrap();
        assert_eq!(BlockDevice::read_unit(&d, 0).unwrap(), vec![0u8; 32]);
        let data = vec![7u8; 32];
        BlockDevice::write_unit(&mut d, 3, &data).unwrap();
        assert_eq!(BlockDevice::read_unit(&d, 3).unwrap(), data);
        assert_eq!(BlockDevice::read_unit(&d, 9), Err(DiskError::OutOfRange));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn file_disk_failure_and_replacement() {
        let path = temp_path("fail");
        let mut d = FileDisk::create(&path, 4, 16).unwrap();
        BlockDevice::write_unit(&mut d, 0, &[9u8; 16]).unwrap();
        BlockDevice::fail(&mut d);
        assert!(BlockDevice::is_failed(&d));
        assert_eq!(BlockDevice::read_unit(&d, 0), Err(DiskError::Failed));
        BlockDevice::replace(&mut d);
        // Fresh drive: the old bytes are gone.
        assert_eq!(BlockDevice::read_unit(&d, 0).unwrap(), vec![0u8; 16]);
        std::fs::remove_file(&path).unwrap();
    }
}
