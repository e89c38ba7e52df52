//! Extent maps: the translation from a volume's logical unit space to
//! physical unit runs on the arrays of the pool.
//!
//! A volume's data lives in a short sorted list of [`Extent`]s covering
//! `[0, capacity)` of its logical space with no holes. Resolution walks
//! the covering extents and emits one [`Segment`] per contiguous
//! physical run, splitting requests that straddle extent boundaries.

/// One contiguous mapping: `units` logical units starting at `logical`
/// live at physical unit `phys` on array `array`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Extent {
    /// First logical unit of this extent within the volume.
    pub logical: u64,
    /// Pool array index backing this extent.
    pub array: u32,
    /// First physical unit on that array.
    pub phys: u64,
    /// Run length in units.
    pub units: u64,
}

/// One physical piece of a resolved request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segment {
    /// Pool array index.
    pub array: u32,
    /// First physical unit on that array.
    pub phys: u64,
    /// Run length in units.
    pub units: u64,
}

/// Segments a [`SegmentList`] holds without touching the heap.
///
/// Resolution emits one segment per extent crossed, and on a fresh
/// pool nearly every volume is a single extent — so the common READ /
/// WRITE resolves into zero or one boundary split. Two inline slots
/// cover that without an allocation, which is what keeps the sharded
/// runtime's healthy READ path allocation-free end to end.
const INLINE_SEGMENTS: usize = 2;

/// A short list of [`Segment`]s with small-vector storage: up to
/// `INLINE_SEGMENTS` (2) entries live inline, longer resolutions spill
/// to the heap. Dereferences to `[Segment]`, so callers index and
/// iterate it like a slice.
#[derive(Debug, Clone)]
pub struct SegmentList {
    inline: [Segment; INLINE_SEGMENTS],
    /// Inline entries in use; meaningless once `spill` is non-empty.
    len: usize,
    /// Heap storage; once non-empty it holds *all* entries (the inline
    /// prefix is copied over on the first spill, keeping the list
    /// contiguous for `Deref`).
    spill: Vec<Segment>,
}

impl SegmentList {
    /// An empty list (no allocation).
    pub fn new() -> Self {
        const ZERO: Segment = Segment {
            array: 0,
            phys: 0,
            units: 0,
        };
        Self {
            inline: [ZERO; INLINE_SEGMENTS],
            len: 0,
            spill: Vec::new(),
        }
    }

    /// Append a segment, spilling to the heap past the inline capacity.
    pub fn push(&mut self, s: Segment) {
        if self.spill.is_empty() {
            if self.len < INLINE_SEGMENTS {
                self.inline[self.len] = s;
                self.len += 1;
                return;
            }
            self.spill.reserve(INLINE_SEGMENTS + 1);
            self.spill.extend_from_slice(&self.inline[..self.len]);
        }
        self.spill.push(s);
    }

    /// The segments as one contiguous slice.
    pub fn as_slice(&self) -> &[Segment] {
        if self.spill.is_empty() {
            &self.inline[..self.len]
        } else {
            &self.spill
        }
    }
}

impl Default for SegmentList {
    fn default() -> Self {
        Self::new()
    }
}

impl std::ops::Deref for SegmentList {
    type Target = [Segment];

    fn deref(&self) -> &[Segment] {
        self.as_slice()
    }
}

impl<'a> IntoIterator for &'a SegmentList {
    type Item = &'a Segment;
    type IntoIter = std::slice::Iter<'a, Segment>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

impl PartialEq for SegmentList {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for SegmentList {}

impl PartialEq<[Segment]> for SegmentList {
    fn eq(&self, other: &[Segment]) -> bool {
        self.as_slice() == other
    }
}

impl<const N: usize> PartialEq<[Segment; N]> for SegmentList {
    fn eq(&self, other: &[Segment; N]) -> bool {
        self.as_slice() == other
    }
}

/// A hole-free, logically-sorted list of extents for one volume.
#[derive(Debug, Clone, Default)]
pub struct ExtentMap {
    extents: Vec<Extent>,
}

impl ExtentMap {
    /// An empty map (a zero-capacity volume).
    pub fn new() -> Self {
        Self::default()
    }

    /// Total mapped units.
    pub fn capacity(&self) -> u64 {
        self.extents.last().map_or(0, |e| e.logical + e.units)
    }

    /// The extents, sorted by logical offset.
    pub fn extents(&self) -> &[Extent] {
        &self.extents
    }

    /// Append a physical run at the end of the logical space, merging
    /// with the previous extent when physically adjacent on the same
    /// array.
    pub fn append(&mut self, array: u32, phys: u64, units: u64) {
        if units == 0 {
            return;
        }
        let logical = self.capacity();
        if let Some(last) = self.extents.last_mut() {
            if last.array == array && last.phys + last.units == phys {
                last.units += units;
                return;
            }
        }
        self.extents.push(Extent {
            logical,
            array,
            phys,
            units,
        });
    }

    /// Shrink the logical space to `new_capacity` units, returning the
    /// freed physical runs (for the allocator to reclaim).
    pub fn truncate(&mut self, new_capacity: u64) -> Vec<Segment> {
        let mut freed = Vec::new();
        while let Some(last) = self.extents.last_mut() {
            if last.logical >= new_capacity {
                freed.push(Segment {
                    array: last.array,
                    phys: last.phys,
                    units: last.units,
                });
                self.extents.pop();
            } else if last.logical + last.units > new_capacity {
                let keep = new_capacity - last.logical;
                freed.push(Segment {
                    array: last.array,
                    phys: last.phys + keep,
                    units: last.units - keep,
                });
                last.units = keep;
                break;
            } else {
                break;
            }
        }
        freed
    }

    /// Resolve `[offset, offset + units)` of logical space into
    /// physical segments, in logical order. Returns `None` when the
    /// range is not fully mapped (out of bounds or overflowing).
    pub fn resolve(&self, offset: u64, units: u64) -> Option<SegmentList> {
        let end = offset.checked_add(units)?;
        if end > self.capacity() {
            return None;
        }
        if units == 0 {
            return Some(SegmentList::new());
        }
        // Find the covering extent for `offset`: last extent whose
        // logical start is <= offset.
        let mut i = self
            .extents
            .partition_point(|e| e.logical <= offset)
            .checked_sub(1)?;
        let mut at = offset;
        let mut out = SegmentList::new();
        while at < end {
            let e = self.extents.get(i)?;
            debug_assert!(e.logical <= at && at < e.logical + e.units);
            let within = at - e.logical;
            let take = (e.units - within).min(end - at);
            out.push(Segment {
                array: e.array,
                phys: e.phys + within,
                units: take,
            });
            at += take;
            i += 1;
        }
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map() -> ExtentMap {
        let mut m = ExtentMap::new();
        m.append(0, 100, 10); // logical [0,10) -> array 0 phys [100,110)
        m.append(1, 0, 5); // logical [10,15) -> array 1 phys [0,5)
        m.append(0, 200, 5); // logical [15,20) -> array 0 phys [200,205)
        m
    }

    #[test]
    fn append_merges_adjacent_runs() {
        let mut m = ExtentMap::new();
        m.append(0, 100, 4);
        m.append(0, 104, 4);
        m.append(0, 300, 2);
        assert_eq!(m.extents().len(), 2);
        assert_eq!(m.capacity(), 10);
        assert_eq!(
            m.resolve(0, 8).unwrap(),
            [Segment {
                array: 0,
                phys: 100,
                units: 8
            }]
        );
    }

    #[test]
    fn resolve_splits_at_extent_boundaries() {
        let m = map();
        assert_eq!(
            m.resolve(8, 9).unwrap(),
            [
                Segment {
                    array: 0,
                    phys: 108,
                    units: 2
                },
                Segment {
                    array: 1,
                    phys: 0,
                    units: 5
                },
                Segment {
                    array: 0,
                    phys: 200,
                    units: 2
                },
            ] as [Segment; 3]
        );
    }

    #[test]
    fn resolve_rejects_out_of_bounds_and_overflow() {
        let m = map();
        assert!(m.resolve(0, 20).is_some());
        assert!(m.resolve(0, 21).is_none());
        assert!(m.resolve(20, 1).is_none());
        assert!(m.resolve(u64::MAX, 2).is_none());
        assert!(m.resolve(5, 0).unwrap().is_empty());
    }

    #[test]
    fn truncate_returns_freed_runs_tail_first() {
        let mut m = map();
        let freed = m.truncate(12);
        assert_eq!(m.capacity(), 12);
        assert_eq!(
            freed,
            vec![
                Segment {
                    array: 0,
                    phys: 200,
                    units: 5
                },
                Segment {
                    array: 1,
                    phys: 2,
                    units: 3
                },
            ]
        );
        assert_eq!(
            m.resolve(10, 2).unwrap(),
            [Segment {
                array: 1,
                phys: 0,
                units: 2
            }]
        );
        assert!(m.truncate(12).is_empty());
    }
}
