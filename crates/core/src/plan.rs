//! Translate logical accesses into physical I/O plans.
//!
//! This is the array-controller logic of RAIDframe, reimplemented as
//! pure functions so that the disk working-set analysis (Figure 3), the
//! discrete-event simulator *and* the byte-level array execute exactly
//! the same physical accesses:
//!
//! * fault-free reads touch only the requested data units;
//! * degraded reads rebuild lost units from the whole surviving stripe;
//! * every write is decided stripe by stripe by [`plan_stripe_write`]:
//!   fault-free it picks the cheapest of full-stripe / read-modify-write
//!   ("small") / reconstruct-write ("large"); degraded it switches to
//!   large writes when the failed disk holds modified data (§4.2 of the
//!   paper), and skips parity maintenance when it holds the parity;
//! * post-reconstruction accesses redirect the failed disk's units to the
//!   distributed spare space (PDDL only).
//!
//! The per-stripe decision names units by role ([`Unit`]), not by
//! address, and has two executors: [`plan_access`] maps its answer
//! through the layout into an [`AccessPlan`] for a [`Mode`], and
//! `pddl_array::DeclusteredArray` performs it on real bytes against the
//! units that are unreadable at that moment.

use std::collections::BTreeSet;

use crate::addr::{PhysAddr, Role, StripeUnit};
use crate::layout::Layout;

/// Logical access type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// Read client data.
    Read,
    /// Write client data (parity is maintained by the plan).
    Write,
}

/// Array operating mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mode {
    /// All disks operational.
    FaultFree,
    /// One disk has failed and its contents have not been rebuilt yet —
    /// lost units are reconstructed on the fly from their stripes. (For
    /// PDDL this is the paper's "reconstruction mode".)
    Degraded {
        /// The failed disk.
        failed: usize,
    },
    /// One disk has failed and its contents have been rebuilt into the
    /// distributed spare space; accesses are redirected there. Only
    /// meaningful for layouts with sparing — without spare space this
    /// behaves like [`Mode::Degraded`].
    PostReconstruction {
        /// The failed disk.
        failed: usize,
    },
    /// Two disks have concurrently failed, neither rebuilt — only
    /// survivable by multi-check layouts
    /// ([`Pddl::with_check_units`](crate::Pddl::with_check_units)`(c ≥ 2)`
    /// with Reed–Solomon checks, §5 of the paper).
    DoubleDegraded {
        /// The two (distinct) failed disks.
        failed: [usize; 2],
    },
}

impl Mode {
    /// The failed disks, if any.
    pub fn failed_disks(&self) -> Vec<usize> {
        match *self {
            Mode::FaultFree => Vec::new(),
            Mode::Degraded { failed } | Mode::PostReconstruction { failed } => vec![failed],
            Mode::DoubleDegraded { failed } => failed.to_vec(),
        }
    }
}

/// How fault-free, non-full-stripe writes are implemented.
///
/// The paper's RAIDframe controller (and [`plan_access`]) picks
/// adaptively; the forced variants exist for the ablation benches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum WritePolicy {
    /// Cheapest of read-modify-write vs reconstruct-write per stripe.
    #[default]
    Adaptive,
    /// Always read-modify-write ("small writes").
    AlwaysSmall,
    /// Always reconstruct-write ("large writes").
    AlwaysLarge,
}

/// The physical I/O of one logical access: `reads` execute first (phase
/// 1), then `writes` (phase 2, after parity computation). Reads are
/// deduplicated; both lists are sorted for determinism.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AccessPlan {
    /// Phase-1 physical reads.
    pub reads: Vec<PhysAddr>,
    /// Phase-2 physical writes.
    pub writes: Vec<PhysAddr>,
}

impl AccessPlan {
    /// The *disk working set*: distinct disks that perform at least one
    /// physical access (the metric of Figure 3).
    pub fn working_set(&self) -> usize {
        let disks: BTreeSet<usize> = self
            .reads
            .iter()
            .chain(&self.writes)
            .map(|a| a.disk)
            .collect();
        disks.len()
    }

    /// Total physical I/O count.
    pub fn io_count(&self) -> usize {
        self.reads.len() + self.writes.len()
    }
}

/// Plan the physical I/O for a logical access of `len` data units
/// starting at data unit `start` (stripe-unit aligned, as in the paper's
/// workloads).
///
/// # Panics
///
/// Panics if `len == 0`, or in [`Mode::PostReconstruction`] when the
/// layout claims sparing but returns no spare unit for an affected
/// stripe.
pub fn plan_access(layout: &dyn Layout, mode: Mode, op: Op, start: u64, len: u64) -> AccessPlan {
    plan_access_with_policy(layout, mode, op, start, len, WritePolicy::Adaptive)
}

/// [`plan_access`] with an explicit fault-free write policy.
///
/// # Panics
///
/// As [`plan_access`].
pub fn plan_access_with_policy(
    layout: &dyn Layout,
    mode: Mode,
    op: Op,
    start: u64,
    len: u64,
    policy: WritePolicy,
) -> AccessPlan {
    assert!(len > 0, "access must span at least one data unit");
    let mut reads: BTreeSet<PhysAddr> = BTreeSet::new();
    let mut writes: BTreeSet<PhysAddr> = BTreeSet::new();

    // Group the logical range by stripe, preserving stripe order.
    let mut current: Option<(u64, Vec<usize>)> = None;
    let mut stripes: Vec<(u64, Vec<usize>)> = Vec::new();
    for logical in start..start + len {
        let (s, i) = layout.locate(logical);
        match &mut current {
            Some((cs, idxs)) if *cs == s => idxs.push(i),
            _ => {
                if let Some(done) = current.take() {
                    stripes.push(done);
                }
                current = Some((s, vec![i]));
            }
        }
    }
    if let Some(done) = current {
        stripes.push(done);
    }

    for (stripe, indices) in stripes {
        plan_stripe(
            layout,
            mode,
            op,
            stripe,
            &indices,
            policy,
            &mut reads,
            &mut writes,
        );
    }

    AccessPlan {
        reads: reads.into_iter().collect(),
        writes: writes.into_iter().collect(),
    }
}

/// Redirect an address on the failed disk to the stripe's spare unit in
/// post-reconstruction mode; identity otherwise.
fn resolve(layout: &dyn Layout, mode: Mode, stripe: u64, addr: PhysAddr) -> PhysAddr {
    if let Mode::PostReconstruction { failed } = mode {
        if addr.disk == failed && layout.has_sparing() {
            return layout
                .spare_unit(stripe, failed)
                .expect("layout with sparing must provide a spare unit for affected stripes");
        }
    }
    addr
}

/// A stripe unit named by its role in the stripe, not by where it lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Unit {
    /// Data unit `i` of the stripe.
    Data(usize),
    /// Check unit `j` of the stripe.
    Check(usize),
}

impl From<&StripeUnit> for Unit {
    fn from(unit: &StripeUnit) -> Self {
        match unit.role {
            Role::Check => Unit::Check(unit.index),
            _ => Unit::Data(unit.index),
        }
    }
}

/// How one stripe's share of a write is carried out.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WriteMethod {
    /// Reconstruct-write ("large"): pre-read the data units that do not
    /// change, encode every check from the new row, write the new data
    /// and the checks. A full-stripe write is its zero-read case.
    ReconstructWrite,
    /// Read-modify-write ("small"): pre-read the old contents of the
    /// written data units and of the surviving checks, fold the delta
    /// into each check, write them back.
    ReadModifyWrite,
    /// Pre-read every surviving unit, decode the lost ones, apply the
    /// update, re-encode; write the new data and the checks.
    ReconstructAll,
    /// No check unit survives: write the data and nothing else.
    DataOnly,
}

/// A stripe has lost more units than it has check units.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Unrecoverable;

/// [`plan_stripe_write`]'s answer for one stripe.
#[derive(Debug, Clone, Copy)]
pub struct StripeWrite<'a> {
    /// How the stripe is updated.
    pub method: WriteMethod,
    written: &'a [usize],
    lost: &'a [Unit],
}

impl StripeWrite<'_> {
    fn is_written(&self, unit: Unit) -> bool {
        matches!(unit, Unit::Data(i) if self.written.contains(&i))
    }

    /// Is `unit` read before anything is written? Never a lost unit.
    pub fn reads(&self, unit: Unit) -> bool {
        !self.lost.contains(&unit)
            && match self.method {
                WriteMethod::ReconstructWrite => {
                    matches!(unit, Unit::Data(_)) && !self.is_written(unit)
                }
                WriteMethod::ReadModifyWrite => {
                    matches!(unit, Unit::Check(_)) || self.is_written(unit)
                }
                WriteMethod::ReconstructAll => true,
                WriteMethod::DataOnly => false,
            }
    }

    /// Is `unit` written? Every surviving written data unit and every
    /// surviving check; a lost unit's new value is implied by the checks.
    pub fn writes(&self, unit: Unit) -> bool {
        !self.lost.contains(&unit) && (matches!(unit, Unit::Check(_)) || self.is_written(unit))
    }
}

/// Decide how a write to the distinct data indices `written` of one
/// stripe of `d` data and `c` check units is carried out while the units
/// in `lost` are unreadable. Pure and allocation-free; the one place the
/// small-vs-large rule is written.
///
/// A lost data unit being written forbids read-modify-write (its old
/// value is unreadable); a lost data unit *not* being written forbids
/// reconstruct-write (its current value is unreadable); with both kinds
/// lost only reconstruct-everything is left; and with no surviving check
/// there is no parity to maintain. A lost check forbids neither — each
/// surviving check is maintained on its own — and the controller then
/// stays with read-modify-write. Only a stripe with nothing lost is
/// free to choose: full-stripe when every data unit is written, else by
/// `policy`.
///
/// # Errors
///
/// [`Unrecoverable`] when `lost` holds more units than the stripe has
/// checks.
pub fn plan_stripe_write<'a>(
    d: usize,
    c: usize,
    written: &'a [usize],
    lost: &'a [Unit],
    policy: WritePolicy,
) -> Result<StripeWrite<'a>, Unrecoverable> {
    if lost.len() > c {
        return Err(Unrecoverable);
    }
    let lost_data = |is_written: bool| {
        lost.iter()
            .any(|u| matches!(u, Unit::Data(i) if written.contains(i) == is_written))
    };
    let method = if lost.iter().filter(|u| matches!(u, Unit::Check(_))).count() == c {
        WriteMethod::DataOnly
    } else {
        match (lost_data(true), lost_data(false)) {
            (true, true) => WriteMethod::ReconstructAll,
            (true, false) => WriteMethod::ReconstructWrite,
            (false, true) => WriteMethod::ReadModifyWrite,
            (false, false) if !lost.is_empty() => WriteMethod::ReadModifyWrite,
            (false, false) if written.len() == d => WriteMethod::ReconstructWrite,
            (false, false) => match policy {
                WritePolicy::Adaptive if 2 * written.len() <= d => WriteMethod::ReadModifyWrite,
                WritePolicy::Adaptive | WritePolicy::AlwaysLarge => WriteMethod::ReconstructWrite,
                WritePolicy::AlwaysSmall => WriteMethod::ReadModifyWrite,
            },
        }
    };
    Ok(StripeWrite {
        method,
        written,
        lost,
    })
}

#[allow(clippy::too_many_arguments)]
fn plan_stripe(
    layout: &dyn Layout,
    mode: Mode,
    op: Op,
    stripe: u64,
    touched: &[usize],
    policy: WritePolicy,
    reads: &mut BTreeSet<PhysAddr>,
    writes: &mut BTreeSet<PhysAddr>,
) {
    let (d, c) = (layout.data_per_stripe(), layout.check_per_stripe());
    let failed: Vec<usize> = match mode {
        Mode::FaultFree => Vec::new(),
        Mode::Degraded { failed } => vec![failed],
        Mode::DoubleDegraded { failed } => {
            assert_ne!(failed[0], failed[1], "failed disks must be distinct");
            failed.to_vec()
        }
        Mode::PostReconstruction { failed } if !layout.has_sparing() => vec![failed],
        Mode::PostReconstruction { .. } => Vec::new(),
    };
    let units = layout.stripe_units(stripe);
    let on_failed = units.iter().filter(|u| failed.contains(&u.addr.disk));
    let lost: Vec<Unit> = on_failed.map(Unit::from).collect();
    assert!(
        lost.len() <= c,
        "stripe {stripe} lost {} units but only has {c} check units",
        lost.len()
    );
    match op {
        Op::Read => {
            for &i in touched {
                if lost.contains(&Unit::Data(i)) {
                    // Rebuild on the fly: read every surviving unit.
                    let surviving = units.iter().filter(|u| !lost.contains(&Unit::from(*u)));
                    reads.extend(surviving.map(|u| u.addr));
                } else {
                    reads.insert(resolve(layout, mode, stripe, units[i].addr));
                }
            }
        }
        Op::Write => {
            let plan = plan_stripe_write(d, c, touched, &lost, policy)
                .expect("the lost units were counted against the checks above");
            for unit in &units {
                // Spare redirection is the identity whenever a unit is lost.
                let addr = resolve(layout, mode, stripe, unit.addr);
                if plan.reads(unit.into()) {
                    reads.insert(addr);
                }
                if plan.writes(unit.into()) {
                    writes.insert(addr);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Pddl, Raid5};

    fn raid5_13() -> Raid5 {
        Raid5::new(13).unwrap()
    }

    #[test]
    fn fault_free_read_touches_only_data() {
        let l = raid5_13();
        let p = plan_access(&l, Mode::FaultFree, Op::Read, 0, 6);
        assert_eq!(p.reads.len(), 6);
        assert!(p.writes.is_empty());
        assert_eq!(p.working_set(), 6);
    }

    #[test]
    fn small_write_costs() {
        let l = raid5_13();
        // 1 unit of a 12-data stripe → small write: read old data+parity,
        // write both back: 2 reads, 2 writes.
        let p = plan_access(&l, Mode::FaultFree, Op::Write, 0, 1);
        assert_eq!(p.reads.len(), 2);
        assert_eq!(p.writes.len(), 2);
        // 6 of 12 units (the paper's 48KB case) is still a small write.
        let p = plan_access(&l, Mode::FaultFree, Op::Write, 0, 6);
        assert_eq!(p.reads.len(), 7);
        assert_eq!(p.writes.len(), 7);
    }

    #[test]
    fn large_and_full_stripe_writes() {
        let l = raid5_13();
        // 8 of 12 → reconstruct write: read the 4 untouched, write 8+1.
        let p = plan_access(&l, Mode::FaultFree, Op::Write, 0, 8);
        assert_eq!(p.reads.len(), 4);
        assert_eq!(p.writes.len(), 9);
        // 12 of 12 → full-stripe: no reads, 13 writes.
        let p = plan_access(&l, Mode::FaultFree, Op::Write, 0, 12);
        assert!(p.reads.is_empty());
        assert_eq!(p.writes.len(), 13);
    }

    #[test]
    fn degraded_read_reconstructs() {
        let l = raid5_13();
        // Find the data unit of stripe 0 that lives on disk 5.
        let lost = (0..12).find(|&i| l.data_unit(0, i).disk == 5).unwrap() as u64;
        let p = plan_access(&l, Mode::Degraded { failed: 5 }, Op::Read, lost, 1);
        // Must read the 11 surviving data units + parity.
        assert_eq!(p.reads.len(), 12);
        assert!(p.reads.iter().all(|a| a.disk != 5));
        // Reading a unit NOT on the failed disk stays a single read.
        let ok = (0..12).find(|&i| l.data_unit(0, i).disk != 5).unwrap() as u64;
        let p = plan_access(&l, Mode::Degraded { failed: 5 }, Op::Read, ok, 1);
        assert_eq!(p.reads.len(), 1);
    }

    #[test]
    fn degraded_write_of_lost_unit_is_large() {
        let l = raid5_13();
        let lost = (0..12).find(|&i| l.data_unit(0, i).disk == 3).unwrap() as u64;
        let p = plan_access(&l, Mode::Degraded { failed: 3 }, Op::Write, lost, 1);
        // Read the 11 surviving unmodified units, write the parity.
        assert_eq!(p.reads.len(), 11);
        assert_eq!(p.writes.len(), 1);
        assert!(p.reads.iter().all(|a| a.disk != 3));
        assert!(p.writes.iter().all(|a| a.disk != 3));
    }

    #[test]
    fn degraded_write_with_lost_parity_skips_parity() {
        let l = raid5_13();
        // Stripe 0 parity is on disk 12.
        let p = plan_access(&l, Mode::Degraded { failed: 12 }, Op::Write, 0, 2);
        assert!(p.reads.is_empty());
        assert_eq!(p.writes.len(), 2);
    }

    #[test]
    fn degraded_write_other_unit_lost_stays_small() {
        let l = raid5_13();
        // Write data unit 0 of stripe 0 while some OTHER data disk failed.
        let other = l.data_unit(0, 7).disk;
        let p = plan_access(&l, Mode::Degraded { failed: other }, Op::Write, 0, 1);
        assert_eq!(p.reads.len(), 2);
        assert_eq!(p.writes.len(), 2);
        assert!(p.reads.iter().all(|a| a.disk != other));
    }

    #[test]
    fn post_reconstruction_redirects_to_spare() {
        let l = Pddl::new(7, 3).unwrap();
        // Find a logical unit living on disk 0.
        let lost = (0..l.data_units_per_period())
            .find(|&u| l.locate_phys(u).disk == 0)
            .unwrap();
        let (stripe, _) = l.locate(lost);
        let spare = l.spare_unit(stripe, 0).unwrap();
        let p = plan_access(
            &l,
            Mode::PostReconstruction { failed: 0 },
            Op::Read,
            lost,
            1,
        );
        assert_eq!(p.reads, vec![spare]);
        // Degraded mode instead rebuilds from the stripe.
        let p = plan_access(&l, Mode::Degraded { failed: 0 }, Op::Read, lost, 1);
        assert_eq!(p.reads.len(), 2); // k − 1 surviving units
    }

    #[test]
    fn post_reconstruction_without_sparing_degrades() {
        let l = raid5_13();
        let lost = (0..12).find(|&i| l.data_unit(0, i).disk == 5).unwrap() as u64;
        let p = plan_access(
            &l,
            Mode::PostReconstruction { failed: 5 },
            Op::Read,
            lost,
            1,
        );
        assert_eq!(p.reads.len(), 12); // same as degraded
    }

    #[test]
    fn full_stripe_write_on_declustered_layout() {
        let l = Pddl::new(13, 4).unwrap();
        // 6 units = 2 full stripes of 3 data units (row-major alignment).
        let p = plan_access(&l, Mode::FaultFree, Op::Write, 0, 6);
        assert!(p.reads.is_empty(), "full stripes need no pre-reads");
        assert_eq!(p.writes.len(), 8); // 6 data + 2 parity
    }

    #[test]
    fn working_set_counts_distinct_disks() {
        let l = Pddl::new(13, 4).unwrap();
        let p = plan_access(&l, Mode::FaultFree, Op::Read, 0, 30);
        assert!(p.working_set() <= 13);
        assert!(p.working_set() >= 9);
    }

    #[test]
    #[should_panic(expected = "at least one data unit")]
    fn zero_length_access_panics() {
        let l = raid5_13();
        let _ = plan_access(&l, Mode::FaultFree, Op::Read, 0, 0);
    }

    #[test]
    fn forced_write_policies() {
        let l = raid5_13();
        // 6 of 12 units: adaptive = small (7r/7w); forced large = 6r/7w;
        // forced small = small.
        let adaptive = plan_access(&l, Mode::FaultFree, Op::Write, 0, 6);
        let small = plan_access_with_policy(
            &l,
            Mode::FaultFree,
            Op::Write,
            0,
            6,
            WritePolicy::AlwaysSmall,
        );
        let large = plan_access_with_policy(
            &l,
            Mode::FaultFree,
            Op::Write,
            0,
            6,
            WritePolicy::AlwaysLarge,
        );
        assert_eq!(adaptive, small);
        assert_eq!(large.reads.len(), 6);
        assert_eq!(large.writes.len(), 7);
        // 8 of 12: adaptive = large.
        let adaptive8 = plan_access(&l, Mode::FaultFree, Op::Write, 0, 8);
        let large8 = plan_access_with_policy(
            &l,
            Mode::FaultFree,
            Op::Write,
            0,
            8,
            WritePolicy::AlwaysLarge,
        );
        assert_eq!(adaptive8, large8);
        let small8 = plan_access_with_policy(
            &l,
            Mode::FaultFree,
            Op::Write,
            0,
            8,
            WritePolicy::AlwaysSmall,
        );
        assert_eq!(small8.io_count(), 18); // 9 reads + 9 writes
                                           // Full-stripe writes ignore the policy.
        let full = plan_access_with_policy(
            &l,
            Mode::FaultFree,
            Op::Write,
            0,
            12,
            WritePolicy::AlwaysSmall,
        );
        assert!(full.reads.is_empty());
    }

    #[test]
    fn double_degraded_reads_reconstruct_through_rs_checks() {
        let l = Pddl::new(13, 4).unwrap().with_check_units(2).unwrap();
        // Find a stripe with units on both failed disks.
        let (f1, f2) = (0usize, 6usize);
        let stripe = (0..l.stripes_per_period())
            .find(|&s| {
                let disks: Vec<usize> = l.stripe_units(s).iter().map(|u| u.addr.disk).collect();
                disks.contains(&f1) && disks.contains(&f2)
            })
            .expect("some stripe spans both disks");
        // Read a data unit of that stripe that is lost.
        let logical = (0..l.data_units_per_period()).find(|&u| {
            let (s, _) = l.locate(u);
            s == stripe && [f1, f2].contains(&l.locate_phys(u).disk)
        });
        if let Some(u) = logical {
            let p = plan_access(
                &l,
                Mode::DoubleDegraded { failed: [f1, f2] },
                Op::Read,
                u,
                1,
            );
            // Reads the 2 surviving units (k = 4, 2 lost).
            assert_eq!(p.reads.len(), 2, "{p:?}");
            assert!(p.reads.iter().all(|a| a.disk != f1 && a.disk != f2));
        }
    }

    #[test]
    fn double_degraded_writes_avoid_both_disks_and_keep_surviving_checks() {
        let l = Pddl::new(13, 4).unwrap().with_check_units(2).unwrap();
        for start in 0..50u64 {
            for len in [1u64, 2, 4] {
                let p = plan_access(
                    &l,
                    Mode::DoubleDegraded { failed: [2, 9] },
                    Op::Write,
                    start,
                    len,
                );
                assert!(p
                    .reads
                    .iter()
                    .chain(&p.writes)
                    .all(|a| a.disk != 2 && a.disk != 9));
                let mut stripes: Vec<u64> = (start..start + len).map(|u| l.locate(u).0).collect();
                stripes.dedup();
                for s in stripes {
                    for c in 0..2 {
                        let check = l.check_unit(s, c);
                        if check.disk != 2 && check.disk != 9 {
                            assert!(p.writes.contains(&check), "stripe {s} check {c}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "check units")]
    fn double_failure_on_single_check_stripe_panics() {
        let l = Pddl::new(13, 4).unwrap();
        // Find a stripe spanning disks 0 and 1 and write through it.
        for start in 0..200u64 {
            let _ = plan_access(
                &l,
                Mode::DoubleDegraded { failed: [0, 1] },
                Op::Write,
                start,
                3,
            );
        }
    }

    #[test]
    #[should_panic(expected = "distinct")]
    fn duplicate_failed_disks_rejected() {
        let l = Pddl::new(13, 4).unwrap().with_check_units(2).unwrap();
        let _ = plan_access(&l, Mode::DoubleDegraded { failed: [3, 3] }, Op::Read, 0, 1);
    }

    #[test]
    fn stripe_write_decision_follows_the_lost_units() {
        use Unit::{Check, Data};
        use WriteMethod::{DataOnly, ReadModifyWrite, ReconstructAll, ReconstructWrite};
        let method = |d, c, written: &[usize], lost: &[Unit]| {
            plan_stripe_write(d, c, written, lost, WritePolicy::Adaptive).map(|p| p.method)
        };
        // Nothing lost: the cheaper of small and large, full when it fits.
        assert_eq!(method(3, 1, &[1], &[]), Ok(ReadModifyWrite));
        assert_eq!(method(3, 1, &[0, 1], &[]), Ok(ReconstructWrite));
        assert_eq!(method(3, 1, &[0, 1, 2], &[]), Ok(ReconstructWrite));
        // A lost unit being written forbids the small write, a lost unit
        // not being written forbids the large one, both leave one way.
        assert_eq!(method(3, 1, &[1], &[Data(1)]), Ok(ReconstructWrite));
        assert_eq!(method(3, 1, &[0, 1], &[Data(2)]), Ok(ReadModifyWrite));
        assert_eq!(method(2, 2, &[0], &[Data(0), Data(1)]), Ok(ReconstructAll));
        // Checks: none left → data only; some left → small over those.
        assert_eq!(method(3, 1, &[0, 1], &[Check(0)]), Ok(DataOnly));
        assert_eq!(method(2, 2, &[0], &[Check(0), Check(1)]), Ok(DataOnly));
        assert_eq!(method(2, 2, &[0, 1], &[Check(1)]), Ok(ReadModifyWrite));
        assert_eq!(
            method(2, 2, &[0], &[Check(0), Data(0)]),
            Ok(ReconstructWrite)
        );
        // More lost than checks is a value, not a panic.
        assert_eq!(method(3, 1, &[0], &[Data(1), Check(0)]), Err(Unrecoverable));

        // The units each method touches, on d = 3, c = 2 writing {0, 1}.
        let lost = [Data(0), Check(1)];
        let plan = plan_stripe_write(3, 2, &[0, 1], &lost, WritePolicy::Adaptive).unwrap();
        assert_eq!(plan.method, ReconstructWrite);
        let all = [Data(0), Data(1), Data(2), Check(0), Check(1)];
        let reads: Vec<Unit> = all.into_iter().filter(|&u| plan.reads(u)).collect();
        let writes: Vec<Unit> = all.into_iter().filter(|&u| plan.writes(u)).collect();
        assert_eq!(reads, [Data(2)]);
        assert_eq!(writes, [Data(1), Check(0)]);
    }

    #[test]
    fn degraded_write_never_touches_failed_disk() {
        let l = Pddl::new(13, 4).unwrap();
        for failed in 0..13 {
            for start in 0..36u64 {
                for len in [1u64, 2, 3, 6, 12] {
                    let p = plan_access(&l, Mode::Degraded { failed }, Op::Write, start, len);
                    assert!(
                        p.reads.iter().chain(&p.writes).all(|a| a.disk != failed),
                        "failed={failed} start={start} len={len}: {p:?}"
                    );
                }
            }
        }
    }
}
