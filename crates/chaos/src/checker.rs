//! History checker: replays the fault plan against a sequential
//! block-store model and validates every recorded response plus the
//! end-state invariants. Pure function of `(config, plan, histories)` —
//! it never observes the live array, which is what makes a mismatch
//! meaningful.
//!
//! Per-op oracle:
//!
//! - **Read-your-writes per block, per volume.** Client regions are
//!   disjoint and the engine serializes per stripe, so every read must
//!   return exactly the bytes of the client's own last completed write
//!   (or zeroes). There is no staleness window to tolerate — including
//!   during rebuild. With `volumes > 1` the model stays *physically*
//!   indexed: volume extents are deterministic (`[v·vcap, (v+1)·vcap)`),
//!   so a write leaking across a volume boundary lands on another
//!   tenant's physical blocks and surfaces as a digest mismatch there.
//! - **Typed faults.** A write touching a write-armed cell must fail
//!   `MediaError` with the exact partial application the array's
//!   update order implies; a read or write needing ≥ 2 unavailable
//!   units after a post-sparing second failure must fail
//!   `Unrecoverable`.
//!
//! End-state invariants: the first scrub's bad set is contained in the
//! modeled torn-stripe set (an over-approximation: the model never
//! un-tears on racy intra-round heals); outstanding journal intents
//! match the modeled failed-write stripes; after disarm + journal
//! replay a fault-free volume scrubs clean; the final readback matches
//! the model block-for-block; and the deterministic metric counters
//! reconcile with the injected fault counts.

use std::collections::BTreeSet;
use std::fmt;

use pddl_core::layout::Layout;
use pddl_server::wire::Status;

use crate::nemesis::RunResult;
use crate::plan::{
    block_token, client_round_ops, crash_commit_tag, fnv64, token_bytes, ArmedCell, ChaosConfig,
    ClientOp, FaultEvent, FaultPlan, Phase, RoundCtx,
};

/// One checker finding.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Round the violation surfaced in; `None` for end-state findings.
    pub round: Option<usize>,
    /// Client involved, when attributable.
    pub client: Option<usize>,
    /// Human-readable statement of the broken invariant.
    pub what: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.round, self.client) {
            (Some(r), Some(c)) => write!(f, "[round {r}, client {c}] {}", self.what),
            (Some(r), None) => write!(f, "[round {r}] {}", self.what),
            (None, Some(c)) => write!(f, "[end, client {c}] {}", self.what),
            (None, None) => write!(f, "[end] {}", self.what),
        }
    }
}

/// The sequential block-store model.
struct Model {
    /// Last committed token per block; `None` reads as zeroes.
    blocks: Vec<Option<u64>>,
    /// Stripes whose parity may be stale from an injected write error.
    torn: BTreeSet<u64>,
    /// Stripes with an outstanding journal intent (failed writes).
    intents: BTreeSet<u64>,
    /// Expected `faults.media_write` (one per failed client write).
    media_write: u64,
    /// Whether any read-armed cell was provably exercised.
    read_fault_touched: bool,
}

/// One stripe-group of a write op: `(index_in_stripe, op_unit, block)`.
type Group = (u64, Vec<(usize, u32, u64)>);

/// Mirror of `DeclusteredArray::write_batch`'s grouping. The batch
/// sorts its units into ascending stripe groups; for one contiguous op
/// the layout's `locate` is monotonic, so the consecutive-run grouping
/// below yields the same groups in the same order.
fn group_by_stripe(op: &ClientOp, layout: &dyn Layout) -> Vec<Group> {
    let mut groups: Vec<Group> = Vec::new();
    for k in 0..op.units {
        let block = op.offset + u64::from(k);
        let (stripe, index) = layout.locate(block);
        match groups.last_mut() {
            Some((s, items)) if *s == stripe => items.push((index, k, block)),
            _ => groups.push((stripe, vec![(index, k, block)])),
        }
    }
    groups
}

/// Units of `stripe` lost for good after `d1` was spared and `d2`
/// failed: everything homed on `d2`, plus everything homed on `d1`
/// whose spare cell sat on `d2`.
fn unavailable_units(layout: &dyn Layout, stripe: u64, d1: usize, d2: usize) -> usize {
    layout
        .stripe_units(stripe)
        .iter()
        .filter(|u| {
            u.addr.disk == d2
                || (u.addr.disk == d1 && layout.spare_unit(stripe, d1).is_none_or(|s| s.disk == d2))
        })
        .count()
}

/// A block is dead when its own unit is unavailable and its stripe has
/// lost more units than the code can reconstruct.
fn block_dead(layout: &dyn Layout, block: u64, d1: usize, d2: usize) -> bool {
    let (stripe, index) = layout.locate(block);
    let home = layout.data_unit(stripe, index);
    let gone = home.disk == d2
        || (home.disk == d1 && layout.spare_unit(stripe, d1).is_none_or(|s| s.disk == d2));
    gone && unavailable_units(layout, stripe, d1, d2) > layout.check_per_stripe()
}

impl Model {
    fn block_bytes(&self, block: u64, unit_bytes: usize) -> Vec<u8> {
        match self.blocks[block as usize] {
            Some(token) => token_bytes(token, unit_bytes),
            None => vec![0u8; unit_bytes],
        }
    }

    /// Expected `(status, payload digest)` of a read, with model
    /// bookkeeping for read-fault touches.
    fn apply_read(
        &mut self,
        op: &ClientOp,
        ctx: &RoundCtx,
        layout: &dyn Layout,
        unit_bytes: usize,
    ) -> (Status, u64) {
        let mut bytes = Vec::with_capacity(op.units as usize * unit_bytes);
        for k in 0..op.units {
            let block = op.offset + u64::from(k);
            if let Phase::Terminal { d1, d2 } = ctx.phase {
                if block_dead(layout, block, d1, d2) {
                    return (Status::Unrecoverable, fnv64(&[]));
                }
            }
            if ctx.armed.iter().any(|c| !c.write && c.block == Some(block)) {
                // The read reconstructs this block through parity.
                self.read_fault_touched = true;
            }
            bytes.extend_from_slice(&self.block_bytes(block, unit_bytes));
        }
        (Status::Ok, fnv64(&bytes))
    }

    /// Expected `(status, payload digest)` of a write, applying the
    /// exact partial-update semantics of the array's batched write
    /// path: stripes are processed in ascending order, a stripe that
    /// fails with `MediaError` or `Unrecoverable` is contained (its
    /// intent stays journaled, later stripes still commit), and the
    /// op's status is the first error among its stripes.
    fn apply_write(&mut self, op: &ClientOp, ctx: &RoundCtx, layout: &dyn Layout) -> (Status, u64) {
        let d = layout.data_per_stripe();
        let mut first_err: Option<Status> = None;
        for (stripe, updates) in group_by_stripe(op, layout) {
            if let Phase::Terminal { d1, d2 } = ctx.phase {
                if unavailable_units(layout, stripe, d1, d2) > layout.check_per_stripe() {
                    // Reconstruction is impossible; the intent was
                    // journaled before the attempt and is never
                    // retired. Nothing lands on the dead stripe, but
                    // the batch moves on to the op's later stripes.
                    self.intents.insert(stripe);
                    first_err.get_or_insert(Status::Unrecoverable);
                    continue;
                }
            }
            let write_cell: Option<&ArmedCell> =
                ctx.armed.iter().find(|c| c.write && c.stripe == stripe);
            if let Some(cell) = write_cell {
                if let Some(pos) = updates.iter().position(|&(_, _, b)| Some(b) == cell.block) {
                    // Media error mid-update: units before the armed
                    // cell landed (in update order), the check units
                    // did not — the stripe is torn if anything landed.
                    for &(_, k, block) in &updates[..pos] {
                        self.blocks[block as usize] = Some(block_token(op.tag, k));
                    }
                    if pos > 0 {
                        self.torn.insert(stripe);
                    }
                    self.intents.insert(stripe);
                    // One MediaFault per faulted stripe: each stripe's
                    // write phase hits its own armed cell once.
                    self.media_write += 1;
                    first_err.get_or_insert(Status::MediaError);
                    continue;
                }
            }
            // Success path. Read-fault touch bookkeeping (cells are armed
            // in the Healthy phase only, one per stripe): a small write
            // (`2w ≤ d`) reads the check units and the updated units'
            // old contents; a reconstruct-write reads the *unmodified*
            // data units only — not the checks, not the updated units —
            // and a full-stripe write is the one that has none to read.
            // (A read that hits the armed cell then falls back to the
            // whole stripe, but the cell has been touched by then.)
            let small = 2 * updates.len() <= d;
            if let Some(cell) = ctx.armed.iter().find(|c| !c.write && c.stripe == stripe) {
                let updated = |b| updates.iter().any(|&(_, _, ub)| ub == b);
                let touches = match cell.block {
                    None => small,
                    Some(b) => small == updated(b),
                };
                if touches {
                    self.read_fault_touched = true;
                }
            }
            // Torn parity is left torn even when a whole-stripe
            // re-encode would heal it: intra-round heal/tear order is
            // racy across clients, so the model keeps the superset
            // (scrub is checked as ⊆ torn).
            for &(_, k, block) in &updates {
                self.blocks[block as usize] = Some(block_token(op.tag, k));
            }
        }
        (first_err.unwrap_or(Status::Ok), fnv64(&[]))
    }
}

/// Validate one run against the plan. Empty result = run is clean.
pub fn check(cfg: &ChaosConfig, plan: &FaultPlan, run: &RunResult) -> Vec<Violation> {
    let mut violations = Vec::new();
    let layout = match cfg.layout() {
        Ok(l) => l,
        Err(e) => {
            violations.push(Violation {
                round: None,
                client: None,
                what: format!("config rejected: {e}"),
            });
            return violations;
        }
    };
    let capacity = cfg.capacity(&layout);
    let ctxs = plan.round_ctxs();
    let mut model = Model {
        blocks: vec![None; capacity as usize],
        torn: BTreeSet::new(),
        intents: BTreeSet::new(),
        media_write: 0,
        read_fault_touched: false,
    };

    for e in &run.infra {
        violations.push(Violation {
            round: None,
            client: None,
            what: format!("infrastructure: {e}"),
        });
    }

    // Per-op history replay.
    let mut cursors = vec![0usize; cfg.clients];
    let mut dead = vec![false; cfg.clients];
    for (round, ctx) in ctxs.iter().enumerate() {
        if matches!(plan.events[round], FaultEvent::DisarmFaults) {
            // Disarm replays the journal: every failed-write stripe is
            // re-encoded from its current data and the intents retire.
            model.torn.clear();
            model.intents.clear();
        }
        if let FaultEvent::CrashMidCommit { units, .. } = plan.events[round] {
            // The event tears a batched write, replays the journal, and
            // rewrites the region cleanly before the round's clients
            // run — so the model sees only the final rewrite. The
            // torn/intent evidence is validated separately against
            // `run.crash_commits`.
            let tag = crash_commit_tag(round as u32);
            for k in 0..units {
                model.blocks[k as usize] = Some(block_token(tag, k));
            }
        }
        for client in 0..cfg.clients {
            for op in client_round_ops(plan.seed, client, round, cfg, capacity) {
                let (status, digest) = if op.write {
                    model.apply_write(&op, ctx, &layout)
                } else {
                    model.apply_read(&op, ctx, &layout, cfg.unit_bytes)
                };
                if dead[client] {
                    continue;
                }
                let Some(rec) = run
                    .histories
                    .get(client)
                    .and_then(|h| h.get(cursors[client]))
                else {
                    violations.push(Violation {
                        round: Some(round),
                        client: Some(client),
                        what: "history truncated (ops missing)".into(),
                    });
                    dead[client] = true;
                    continue;
                };
                cursors[client] += 1;
                if rec.round as usize != round
                    || rec.write != op.write
                    || rec.offset != op.offset
                    || rec.units != op.units
                {
                    violations.push(Violation {
                        round: Some(round),
                        client: Some(client),
                        what: format!(
                            "history desync: expected {} {}+{} in round {round}, \
                             recorded {} {}+{} in round {}",
                            if op.write { "write" } else { "read" },
                            op.offset,
                            op.units,
                            if rec.write { "write" } else { "read" },
                            rec.offset,
                            rec.units,
                            rec.round,
                        ),
                    });
                    dead[client] = true;
                    continue;
                }
                if rec.status != status.code() {
                    violations.push(Violation {
                        round: Some(round),
                        client: Some(client),
                        what: format!(
                            "{} {}+{}: expected status {status:?}, got code {}",
                            if op.write { "write" } else { "read" },
                            op.offset,
                            op.units,
                            rec.status,
                        ),
                    });
                } else if rec.digest != digest {
                    violations.push(Violation {
                        round: Some(round),
                        client: Some(client),
                        what: format!(
                            "read {}+{} returned stale or corrupt data \
                             (digest {:#x}, expected {:#x})",
                            op.offset, op.units, rec.digest, digest,
                        ),
                    });
                }
            }
        }
    }
    for (client, h) in run.histories.iter().enumerate() {
        if !dead[client] && cursors[client] != h.len() {
            violations.push(Violation {
                round: None,
                client: Some(client),
                what: format!(
                    "history has {} extra records (responses to unissued requests?)",
                    h.len() - cursors[client]
                ),
            });
        }
    }

    // Hostile frames: every one must have elicited the mandated reaction.
    let hostile_events = plan
        .events
        .iter()
        .filter(|e| matches!(e, FaultEvent::Hostile { .. }))
        .count();
    if run.hostile.len() != hostile_events {
        violations.push(Violation {
            round: None,
            client: None,
            what: format!(
                "{} hostile frames recorded, plan has {hostile_events}",
                run.hostile.len()
            ),
        });
    }
    for h in &run.hostile {
        if !h.ok {
            violations.push(Violation {
                round: Some(h.round as usize),
                client: None,
                what: format!("hostile {} mishandled: {}", h.kind, h.detail),
            });
        }
    }

    // Crash-mid-commit evidence: every such event must have torn the
    // batch (journal intents outstanding), the replay must have
    // repaired exactly the torn stripes, and the post-replay scrub must
    // prove no acknowledged write was lost to the write hole.
    let crash_rounds: Vec<usize> = plan
        .events
        .iter()
        .enumerate()
        .filter(|(_, e)| matches!(e, FaultEvent::CrashMidCommit { .. }))
        .map(|(r, _)| r)
        .collect();
    if run.crash_commits.len() != crash_rounds.len() {
        violations.push(Violation {
            round: None,
            client: None,
            what: format!(
                "{} crash-mid-commit events recorded, plan has {}",
                run.crash_commits.len(),
                crash_rounds.len()
            ),
        });
    }
    for (&round, ev) in crash_rounds.iter().zip(&run.crash_commits) {
        let mut push = |what: String| {
            violations.push(Violation {
                round: Some(round),
                client: None,
                what,
            })
        };
        if ev.round as usize != round {
            push(format!(
                "crash evidence desync: recorded round {}",
                ev.round
            ));
            continue;
        }
        if ev.status != Status::Internal.code() {
            push(format!(
                "torn batched write returned status code {}, expected Internal",
                ev.status
            ));
        }
        if ev.torn.is_empty() {
            push("crash left no journal intents although the batch tore".into());
        }
        if ev.repaired != ev.torn.len() as u64 {
            push(format!(
                "journal replay repaired {} stripes, batch tore {:?}",
                ev.repaired, ev.torn
            ));
        }
        if !ev.scrub.is_empty() {
            push(format!(
                "stripes {:?} still inconsistent after torn-batch replay",
                ev.scrub
            ));
        }
    }

    end_state_checks(
        cfg,
        plan,
        run,
        &ctxs,
        &model,
        &layout,
        capacity,
        &mut violations,
    );
    violations
}

#[allow(clippy::too_many_arguments)]
fn end_state_checks(
    cfg: &ChaosConfig,
    plan: &FaultPlan,
    run: &RunResult,
    ctxs: &[RoundCtx],
    model: &Model,
    layout: &dyn Layout,
    capacity: u64,
    violations: &mut Vec<Violation>,
) {
    let mut push = |what: String| {
        violations.push(Violation {
            round: None,
            client: None,
            what,
        })
    };
    let end_phase = ctxs.last().map_or(Phase::Healthy, |c| c.phase);
    let end_armed: &[ArmedCell] = ctxs.last().map_or(&[], |c| c.armed.as_slice());

    // Rebuild must have terminated in a typed state: Done whenever the
    // plan rebuilt, untouched otherwise.
    let expect_rebuild = if plan
        .events
        .iter()
        .any(|e| matches!(e, FaultEvent::RebuildSpare { .. }))
    {
        2 // Done
    } else {
        0 // None
    };
    if run.end.rebuild.0 != expect_rebuild {
        push(format!(
            "rebuild ended in state code {} (disk {}), expected {expect_rebuild}",
            run.end.rebuild.0, run.end.rebuild.1
        ));
    }

    // First scrub: only stripes the model knows as torn may mismatch.
    for s in &run.end.scrub1 {
        if !model.torn.contains(s) {
            push(format!(
                "scrub flagged stripe {s} which no injected fault tore"
            ));
        }
    }

    // Journal: outstanding intents are exactly the failed-write stripes.
    let recorded: BTreeSet<u64> = run.end.intents.iter().copied().collect();
    if recorded != model.intents {
        push(format!(
            "outstanding intents {:?} do not match failed writes {:?}",
            run.end.intents,
            model.intents.iter().collect::<Vec<_>>()
        ));
    }

    // After disarm + replay, a fault-free volume must scrub clean.
    if matches!(end_phase, Phase::Healthy) {
        match run.end.recovered {
            Some(n) if n == model.intents.len() as u64 => {}
            other => push(format!(
                "journal replay repaired {other:?} stripes, expected {}",
                model.intents.len()
            )),
        }
        match &run.end.scrub2 {
            Some(bad) if bad.is_empty() => {}
            Some(bad) => push(format!(
                "volume failed to scrub clean after repair: {bad:?}"
            )),
            None => push("second scrub missing on a fault-free volume".into()),
        }
    } else {
        if run.end.recovered.is_some() {
            push("journal replay ran on a degraded volume".into());
        }
        // With failures present the plan grammar guarantees no torn
        // parity, so even the first scrub must be clean.
        if !run.end.scrub1.is_empty() {
            push(format!(
                "degraded volume scrub flagged stripes {:?}",
                run.end.scrub1
            ));
        }
    }

    // Final readback: model value per block; unrecoverable blocks must
    // say so. The readback covers every client-volume block (physical
    // order); free / scratch space past `used` is unaddressable.
    let used = cfg.used_capacity(capacity);
    if run.end.final_reads.len() != used as usize {
        push(format!(
            "final readback covered {} of {used} blocks",
            run.end.final_reads.len()
        ));
    }
    for (block, &(status, digest)) in run.end.final_reads.iter().enumerate() {
        let block = block as u64;
        let dead = match end_phase {
            Phase::Terminal { d1, d2 } => block_dead(layout, block, d1, d2),
            _ => false,
        };
        if dead {
            if status != Status::Unrecoverable.code() {
                push(format!(
                    "block {block} is unrecoverable but read back status code {status}"
                ));
            }
        } else if status != Status::Ok.code() {
            push(format!("block {block} read back status code {status}"));
        } else {
            let expect = fnv64(&model.block_bytes(block, cfg.unit_bytes));
            if digest != expect {
                push(format!(
                    "block {block} read back wrong bytes (digest {digest:#x}, expected {expect:#x})"
                ));
            }
        }
    }

    // Counters reconcile with the injected fault counts.
    let c = &run.end.counters;
    let expect_failures = plan
        .events
        .iter()
        .filter(|e| {
            matches!(
                e,
                FaultEvent::FailDisk { .. } | FaultEvent::SpareFail { .. }
            )
        })
        .count() as u64;
    if c.disk_failures != expect_failures {
        push(format!(
            "disk.failures = {}, plan injected {expect_failures}",
            c.disk_failures
        ));
    }
    if c.media_write != model.media_write {
        push(format!(
            "faults.media_write = {}, model counted {} failed writes",
            c.media_write, model.media_write
        ));
    }
    let read_armed_ever = plan
        .events
        .iter()
        .any(|e| matches!(e, FaultEvent::ArmMedia { cell } if !cell.write));
    let read_armed_at_end = end_armed.iter().any(|c| !c.write);
    if !read_armed_ever {
        if c.media_read != 0 {
            push(format!(
                "faults.media_read = {} with no read fault ever armed",
                c.media_read
            ));
        }
    } else if (read_armed_at_end || model.read_fault_touched) && c.media_read == 0 {
        // The end-state scrub consults every still-armed cell, and a
        // touched cell fired at least once during the run.
        push("faults.media_read = 0 although a read fault was exercised".into());
    }
    // One scrub always runs at end of plan, a second on a fault-free
    // volume after replay, plus one per crash-mid-commit event (its
    // repair proof).
    let crash_events = plan
        .events
        .iter()
        .filter(|e| matches!(e, FaultEvent::CrashMidCommit { .. }))
        .count() as u64;
    let expect_scrubs = 1 + u64::from(matches!(end_phase, Phase::Healthy)) + crash_events;
    if c.scrub_passes != expect_scrubs {
        push(format!(
            "scrub.passes = {}, harness ran {expect_scrubs}",
            c.scrub_passes
        ));
    }
}
