//! Model-based property test: the array must behave exactly like a flat
//! byte vector under arbitrary interleavings of writes, reads, failures
//! and repairs — deterministic PRNG-driven op sequences.
//!
//! Build with `--features slow-tests` to multiply the case counts.

use pddl_array::{ArrayError, DeclusteredArray};
use pddl_core::rng::Xoshiro256pp;
use pddl_core::Pddl;

#[derive(Debug, Clone)]
enum Op {
    Write { start: u64, len: u64, seed: u8 },
    Read { start: u64, len: u64 },
    Fail { disk: usize },
    RebuildSpare { disk: usize },
    Replace { disk: usize },
    Scrub,
}

/// Weighted op generator matching the original proptest strategy
/// (4:4:1:1:1:1 writes:reads:fail:rebuild:replace:scrub).
fn random_op(rng: &mut Xoshiro256pp, capacity: u64, disks: usize) -> Op {
    match rng.below_u64(12) {
        0..=3 => {
            let start = rng.below_u64(capacity);
            let len = (1 + rng.below_u64(5)).min(capacity - start).max(1);
            Op::Write {
                start,
                len,
                seed: rng.below_u64(256) as u8,
            }
        }
        4..=7 => {
            let start = rng.below_u64(capacity);
            let len = (1 + rng.below_u64(7)).min(capacity - start).max(1);
            Op::Read { start, len }
        }
        8 => Op::Fail {
            disk: rng.below(disks),
        },
        9 => Op::RebuildSpare {
            disk: rng.below(disks),
        },
        10 => Op::Replace {
            disk: rng.below(disks),
        },
        _ => Op::Scrub,
    }
}

fn cases(base: usize) -> usize {
    if cfg!(feature = "slow-tests") {
        base * 8
    } else {
        base
    }
}

/// Random op sequences against `make()`'s array and a flat byte vector,
/// with at most `max_failures` disks failed and not yet replaced — the
/// driver only injects a failure the layout's check units can absorb.
fn assert_matches_flat_model(make: fn() -> Pddl, max_failures: usize, seed: u64) {
    let unit = 8usize;
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    for case in 0..cases(48) {
        let array = DeclusteredArray::new(Box::new(make()), unit, 2).unwrap();
        let (capacity, disks) = (array.capacity_units(), array.layout().disks());
        let mut model = vec![0u8; capacity as usize * unit];
        let mut live_failures: Vec<usize> = Vec::new();

        let n_ops = 1 + rng.below(59);
        for _ in 0..n_ops {
            match random_op(&mut rng, capacity, disks) {
                Op::Write { start, len, seed } => {
                    let bytes: Vec<u8> = (0..len as usize * unit)
                        .map(|i| seed.wrapping_add(i as u8))
                        .collect();
                    array.write(start, &bytes).unwrap();
                    let lo = start as usize * unit;
                    model[lo..lo + bytes.len()].copy_from_slice(&bytes);
                }
                Op::Read { start, len } => {
                    let got = array.read(start, len).unwrap();
                    let lo = start as usize * unit;
                    assert_eq!(
                        &got[..],
                        &model[lo..lo + len as usize * unit],
                        "case {case}"
                    );
                }
                Op::Fail { disk } => {
                    if live_failures.len() < max_failures && !live_failures.contains(&disk) {
                        array.fail_disk(disk).unwrap();
                        live_failures.push(disk);
                    }
                }
                Op::RebuildSpare { disk } => match array.rebuild_to_spare(disk) {
                    Ok(_) => {}
                    Err(ArrayError::WrongDiskState | ArrayError::NoSpareSpace) => {}
                    // A spare cell on the other failed disk (two live
                    // failures only): the rebuild halts, typed.
                    Err(ArrayError::SpareUnavailable) if live_failures.len() > 1 => {}
                    Err(e) => panic!("case {case}: rebuild: {e}"),
                },
                Op::Replace { disk } => match array.replace_and_rebuild(disk) {
                    Ok(_) => live_failures.retain(|&d| d != disk),
                    Err(ArrayError::WrongDiskState) => {}
                    Err(e) => panic!("case {case}: replace: {e}"),
                },
                Op::Scrub => {
                    assert_eq!(array.scrub().unwrap(), Vec::<u64>::new(), "case {case}");
                }
            }
        }
        // Final full-array readback must equal the model.
        let full = array.read(0, capacity).unwrap();
        assert_eq!(full, model, "case {case}");
    }
}

#[test]
fn array_matches_flat_model() {
    assert_matches_flat_model(|| Pddl::new(7, 3).unwrap(), 1, 0xa88a1);
}

/// Two check units (`d = 2`) and up to two disks down at once: stripes
/// that lost a written unit, an unwritten one, both, or a check drive
/// the reconstruct-write-over-survivors, small-write-over-surviving-checks,
/// reconstruct-everything and data-only methods with real bytes.
#[test]
fn two_check_array_matches_flat_model() {
    let make = || Pddl::new(13, 4).unwrap().with_check_units(2).unwrap();
    assert_matches_flat_model(make, 2, 0xdd2);
}

/// Lifecycle stage of the single fault the driver keeps in flight.
enum Stage {
    Healthy,
    Degraded { disk: usize },
    Spared { disk: usize },
    Restoring { disk: usize },
}

/// Parity must be consistent after EVERY prefix of a random
/// write / fail / incremental-rebuild-step interleaving — not just at
/// quiescence. A scrub that only passes at the end would hide windows
/// where a crash mid-rebuild loses data.
#[test]
fn scrub_passes_after_every_prefix_of_fault_interleavings() {
    use pddl_array::RebuildTicket;

    let unit = 8usize;
    let mut rng = Xoshiro256pp::seed_from_u64(0x5c2b_71ef);
    for case in 0..cases(16) {
        let layout = Pddl::new(7, 3).unwrap();
        let array = DeclusteredArray::new(Box::new(layout), unit, 2).unwrap();
        let capacity = array.capacity_units();
        let mut model = vec![0u8; capacity as usize * unit];
        let mut stage = Stage::Healthy;
        let mut ticket: Option<RebuildTicket> = None;

        let n_ops = 10 + rng.below(50);
        for step in 0..n_ops {
            match rng.below_u64(8) {
                // Writes stay legal in every stage.
                0..=3 => {
                    let start = rng.below_u64(capacity);
                    let len = (1 + rng.below_u64(4)).min(capacity - start);
                    let seed = rng.below_u64(256) as u8;
                    let bytes: Vec<u8> = (0..len as usize * unit)
                        .map(|i| seed.wrapping_add(i as u8))
                        .collect();
                    array.write(start, &bytes).unwrap();
                    let lo = start as usize * unit;
                    model[lo..lo + bytes.len()].copy_from_slice(&bytes);
                }
                // Fault-lifecycle transitions, one failure in flight.
                _ => match stage {
                    Stage::Healthy => {
                        let disk = rng.below(7);
                        array.fail_disk(disk).unwrap();
                        stage = Stage::Degraded { disk };
                    }
                    Stage::Degraded { disk } => {
                        let t = ticket.get_or_insert_with(|| array.begin_rebuild(disk).unwrap());
                        array.rebuild_step(t, 1 + rng.below_u64(3)).unwrap();
                        if t.is_done() {
                            ticket = None;
                            stage = Stage::Spared { disk };
                        }
                    }
                    Stage::Spared { disk } => {
                        ticket = Some(array.begin_copy_back(disk).unwrap());
                        stage = Stage::Restoring { disk };
                    }
                    Stage::Restoring { disk } => {
                        let t = ticket.as_mut().expect("restore ticket in flight");
                        array.rebuild_step(t, 1 + rng.below_u64(3)).unwrap();
                        if t.is_done() {
                            ticket = None;
                            stage = Stage::Healthy;
                            assert!(array.failed_disks().is_empty(), "case {case}: disk {disk}");
                        }
                    }
                },
            }
            // The property: every prefix of the interleaving leaves
            // parity consistent (stripes with unreadable units are
            // skipped by scrub, exactly as a verify pass would).
            assert_eq!(
                array.scrub().unwrap(),
                Vec::<u64>::new(),
                "case {case}: parity stale after step {step}"
            );
        }
        // Whatever the interleaving, the data survived it.
        assert_eq!(array.read(0, capacity).unwrap(), model, "case {case}");
    }
}
