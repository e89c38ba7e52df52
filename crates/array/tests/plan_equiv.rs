//! The byte-level array runs through the same controller the simulator
//! and Figure 3 describe: for every access, the `(disk, offset)` units it
//! reads and writes on its devices are exactly `plan_access(..).reads`
//! and `.writes` — as multisets, so nothing is read twice — in every
//! layout and every array state the planner has a [`Mode`] for.

use std::sync::{Arc, Mutex};

use pddl_array::{BlockDevice, DeclusteredArray, DiskError, RamDisk};
use pddl_core::layout::Layout;
use pddl_core::plan::{plan_access, Mode, Op};
use pddl_core::rng::Xoshiro256pp;
use pddl_core::{Datum, ParityDeclustering, Pddl, PrimeLayout, PseudoRandom, Raid5};

const UNIT: usize = 8;

/// `(disk, offset)` of every device read and of every device write.
#[derive(Debug, Default)]
struct IoLog {
    reads: Vec<(usize, u64)>,
    writes: Vec<(usize, u64)>,
}

/// A [`RamDisk`] that logs each unit it is asked to read or write.
#[derive(Debug)]
struct Recording {
    disk: usize,
    inner: RamDisk,
    log: Arc<Mutex<IoLog>>,
}

impl BlockDevice for Recording {
    fn units(&self) -> u64 {
        self.inner.units()
    }
    fn unit_bytes(&self) -> usize {
        self.inner.unit_bytes()
    }
    fn is_failed(&self) -> bool {
        self.inner.is_failed()
    }
    fn read_unit_into(&self, offset: u64, buf: &mut [u8]) -> Result<(), DiskError> {
        self.log.lock().unwrap().reads.push((self.disk, offset));
        self.inner.read_unit_into(offset, buf)
    }
    fn write_unit(&mut self, offset: u64, data: &[u8]) -> Result<(), DiskError> {
        self.log.lock().unwrap().writes.push((self.disk, offset));
        self.inner.write_unit(offset, data)
    }
    fn fail(&mut self) {
        self.inner.fail();
    }
    fn replace(&mut self) {
        self.inner.replace();
    }
}

type MakeLayout = fn() -> Box<dyn Layout>;

/// The paper's six layouts at 13 disks (stripe width 4 where declustered).
const LAYOUTS: [MakeLayout; 6] = [
    || Box::new(Raid5::new(13).unwrap()),
    || Box::new(ParityDeclustering::new(13, 4).unwrap()),
    || Box::new(Datum::new(13, 4).unwrap()),
    || Box::new(PrimeLayout::new(13, 4).unwrap()),
    || Box::new(PseudoRandom::new(13, 4, 7).unwrap()),
    || Box::new(Pddl::new(13, 4).unwrap()),
];

fn two_checks() -> Box<dyn Layout> {
    Box::new(Pddl::new(13, 4).unwrap().with_check_units(2).unwrap())
}

/// One period of `layout` over recording disks, filled with a pattern;
/// returns the array, its I/O log and the flat model of its contents.
fn filled(layout: Box<dyn Layout>) -> (DeclusteredArray, Arc<Mutex<IoLog>>, Vec<u8>) {
    let log = Arc::new(Mutex::new(IoLog::default()));
    let rows = layout.period_rows();
    let disks = (0..layout.disks())
        .map(|disk| {
            Box::new(Recording {
                disk,
                inner: RamDisk::new(rows, UNIT),
                log: log.clone(),
            }) as Box<dyn BlockDevice>
        })
        .collect();
    let array = DeclusteredArray::with_devices(layout, UNIT, 1, disks).unwrap();
    let model: Vec<u8> = (0..array.capacity_units() as usize * UNIT)
        .map(|i| (i as u8).wrapping_mul(31).wrapping_add(5))
        .collect();
    array.write(0, &model).unwrap();
    (array, log, model)
}

/// Drive seeded random accesses at `array` (which is in the state `mode`
/// names) and hold each one's device I/O against the planner's.
fn assert_io_matches_plan(
    array: &DeclusteredArray,
    log: &Mutex<IoLog>,
    model: &mut [u8],
    mode: Mode,
    seed: u64,
) {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    let capacity = array.capacity_units();
    for n in 0..40u64 {
        let len = [1, 2, 3, 4, 6, 12, 30][rng.below(7)].min(capacity);
        let start = rng.below_u64(capacity - len + 1);
        let op = if rng.chance(0.5) { Op::Write } else { Op::Read };
        let bytes = start as usize * UNIT..(start + len) as usize * UNIT;
        *log.lock().unwrap() = IoLog::default();
        match op {
            Op::Read => assert_eq!(array.read(start, len).unwrap(), model[bytes], "{mode:?}"),
            Op::Write => {
                let fresh: Vec<u8> = (0..bytes.len())
                    .map(|i| (i as u8) ^ (seed + n) as u8)
                    .collect();
                array.write(start, &fresh).unwrap();
                model[bytes].copy_from_slice(&fresh);
            }
        }
        let mut io = std::mem::take(&mut *log.lock().unwrap());
        io.reads.sort_unstable();
        io.writes.sort_unstable();
        let plan = plan_access(array.layout(), mode, op, start, len);
        let planned = |addrs: &[pddl_core::addr::PhysAddr]| -> Vec<(usize, u64)> {
            addrs.iter().map(|a| (a.disk, a.offset)).collect()
        };
        let what = format!(
            "{} {mode:?} {op:?} start {start} len {len}",
            array.layout().name()
        );
        assert_eq!(io.reads, planned(&plan.reads), "device reads: {what}");
        assert_eq!(io.writes, planned(&plan.writes), "device writes: {what}");
    }
    assert_eq!(array.read(0, capacity).unwrap(), model, "{mode:?}");
}

#[test]
fn fault_free_io_is_the_planned_io() {
    for make in LAYOUTS.into_iter().chain([two_checks as MakeLayout]) {
        let (array, log, mut model) = filled(make());
        assert_io_matches_plan(&array, &log, &mut model, Mode::FaultFree, 0xf00d);
    }
}

#[test]
fn degraded_io_is_the_planned_io_for_every_victim() {
    for make in LAYOUTS.into_iter().chain([two_checks as MakeLayout]) {
        for failed in 0..13 {
            let (array, log, mut model) = filled(make());
            array.fail_disk(failed).unwrap();
            let mode = Mode::Degraded { failed };
            assert_io_matches_plan(&array, &log, &mut model, mode, 0xde9 + failed as u64);
        }
    }
}

#[test]
fn post_reconstruction_io_is_the_planned_io_for_every_victim() {
    // Without spare space the planner's post-reconstruction mode is its
    // degraded mode, which the test above covers.
    for make in LAYOUTS.into_iter().filter(|make| make().has_sparing()) {
        for failed in 0..13 {
            let (array, log, mut model) = filled(make());
            array.fail_disk(failed).unwrap();
            array.rebuild_to_spare(failed).unwrap();
            let mode = Mode::PostReconstruction { failed };
            assert_io_matches_plan(&array, &log, &mut model, mode, 0x9057 + failed as u64);
        }
    }
}

#[test]
fn double_degraded_io_is_the_planned_io() {
    for (a, b) in (0..13).flat_map(|a| (a + 1..13).map(move |b| (a, b))) {
        let (array, log, mut model) = filled(two_checks());
        array.fail_disk(a).unwrap();
        array.fail_disk(b).unwrap();
        let mode = Mode::DoubleDegraded { failed: [a, b] };
        assert_io_matches_plan(&array, &log, &mut model, mode, 0x2dd + (13 * a + b) as u64);
    }
}
