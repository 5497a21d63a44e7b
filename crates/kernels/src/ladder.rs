//! The Lazy-family recovery ladder (`Lazy`, `LazyEagerCk`, `LazyParity`),
//! written once for every kernel.
//!
//! Recovery is kernel-independent except for which regions exist and how
//! one region is recomputed (Section III-E, Figure 9). A kernel states
//! those facts through [`RegionRecovery`]; [`recover_regions`] owns the
//! rest, group by group and in this order:
//!
//! 1. the entry harness ([`with_recovery`]): the poisoned-line snapshot,
//!    core 0's context and the cycle accounting;
//! 2. rung 1 for a poisoned group: parity reconstruction of the lost line
//!    (`LazyParity` only), re-verified against the region checksum;
//! 3. quarantine: a poisoned group rung 1 could not repair (or whose
//!    rebuild journal is armed) trusts no checksum and is rebuilt whole;
//! 4. the checksum scan, with rung 1 for every mismatch: parity
//!    reconstruction of a silently flipped or torn line;
//! 5. the escalation count: rung 1 failed, so the region falls to rung 2;
//! 6. the group reset, when nothing of it survived;
//! 7. recompute through [`RecoverySink`] — eager stores, then the
//!    recomputed checksum, then (`LazyParity`) the rebuilt parity line,
//!    last: the R7 progress and R8 parity-publish orderings both live in
//!    [`RecoverySink::commit`].
//!
//! The kernels' real differences are properties of the trait, never
//! branches on which kernel is recovering: whether a group's regions are
//! disjoint or overwrite one another ([`Scan`]), whether a poisoned line
//! discredits a whole group or one step of it ([`Trust`]), and how a
//! quarantine is counted ([`Tally`]).

use crate::common::StoreSink;
use lp_core::checksum::{ChecksumKind, RunningChecksum};
use lp_core::ep::EagerCommitter;
use lp_core::parity::{
    lane_of, try_mismatch_repair, try_poison_repair, ParityArena, RepairVerdict, PARITY_FOLD_OPS,
};
use lp_core::recovery::{region_consistent, RecoveryStats, Slot};
use lp_core::scheme::{Scheme, SchemeHandles};
use lp_core::table::ChecksumTable;
use lp_sim::addr::LineAddr;
use lp_sim::core::CoreCtx;
use lp_sim::machine::Machine;
use lp_sim::mem::PArray;

/// Journal value in a group's table slot marking a quarantine rebuild in
/// flight. A nested crash mid-rebuild re-enters the rebuild even after
/// the rebuild's own writes scrubbed the poison that first triggered it.
const REBUILD_ARMED: u64 = 0x5EBD_5EBD_5EBD_5EBD;
/// Journal value marking a completed rebuild (schemes that never use the
/// checksum table; Lazy kernels overwrite the slot with a real checksum).
const REBUILD_CLEARED: u64 = 0;

/// How the regions of one group relate to each other.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Scan {
    /// The regions write disjoint data (cholesky columns, conv2d blocks):
    /// every committed checksum stays valid, so every region is audited
    /// and only the inconsistent ones are recomputed.
    Every,
    /// Each region overwrites its predecessors (tmm `kk` partial products,
    /// gauss pivots, fft stages): scan newest-first; the first consistent
    /// region is the durable state and only later ones are recomputed.
    NewestFirst,
}

/// What a poisoned line discredits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Trust {
    /// The whole group: it is quarantined before the scan, escalates at
    /// most once, and each region found inconsistent is counted.
    Group,
    /// One step (fft's stages, whose ping-pong buffers are their own): a
    /// poisoned step is quarantined alone and the scan goes on below it;
    /// every chunk of it must repair; a step escalates and is counted
    /// inconsistent once, after rung 1 had its go.
    Step,
}

/// How a quarantine is counted in [`RecoveryStats::regions_quarantined`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Tally {
    /// Once per quarantined group or step.
    Unit,
    /// Once per step of the group (tmm: every `kk` partial product of the
    /// strip is suspect).
    EachStep,
    /// Once per group, which also counts as checked (conv2d's one-region
    /// blocks are audited before their poison is looked at).
    UnitChecked,
}

/// One region of a group: part `part` of step `step`. Steps run in
/// program order; a step's parts are disjoint regions that commit
/// together (fft's chunks of a stage; every other kernel has one part).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Region {
    /// The group (tmm strip, block, or fft's one stage chain).
    pub group: usize,
    /// The step within the group, in program order.
    pub step: usize,
    /// The region within the step.
    pub part: usize,
}

/// A kernel's facts for the recovery ladder.
pub(crate) trait RegionRecovery {
    /// How a group's regions relate.
    const SCAN: Scan;
    /// What a poisoned line discredits.
    const TRUST: Trust = Trust::Group;
    /// How a quarantine is counted.
    const TALLY: Tally = Tally::Unit;

    /// The scheme state: scheme, checksum table and parity arena.
    fn handles(&self) -> &SchemeHandles;

    /// Number of groups; recovered in index order.
    fn groups(&self) -> usize;

    /// Number of steps of `group`.
    fn steps(&self, group: usize) -> usize;

    /// Regions per step.
    fn parts(&self) -> usize {
        1
    }

    /// The checksum-table (and parity-arena) key of `r`.
    fn region_key(&self, r: Region) -> usize;

    /// The elements of `r` in checksum fold order.
    fn region_slots(&self, r: Region) -> impl Iterator<Item = Slot<f64>> + '_;

    /// Whether `r`'s current data folds to its stored checksum.
    fn region_matches(
        &self,
        ctx: &mut CoreCtx<'_>,
        table: &ChecksumTable,
        kind: ChecksumKind,
        r: Region,
    ) -> bool {
        region_consistent(ctx, table, self.region_key(r), kind, self.region_slots(r))
    }

    /// Whether a line backing `group` is poisoned — the whole group under
    /// [`Trust::Group`] (`step` is `None`), one step under [`Trust::Step`].
    fn group_poisoned(&self, poisoned: &[LineAddr], group: usize, step: Option<usize>) -> bool;

    /// The table slot that journals `group`'s quarantine rebuild, for
    /// kernels whose rebuild can scrub a poison flag before it finishes.
    fn rebuild_journal(&self, _group: usize) -> Option<usize> {
        None
    }

    /// Durably restore `group` to its pre-run state before its regions
    /// are recomputed from scratch (`quarantined`: after a media fault).
    fn restore_group(&self, _ctx: &mut CoreCtx<'_>, _group: usize, _quarantined: bool) {}

    /// Run region `r`'s body, routing its stores into `sink`.
    fn replay_region<S: StoreSink>(&self, ctx: &mut CoreCtx<'_>, r: Region, sink: &mut S);
}

/// The recovery entry harness shared by every scheme's recovery: snapshot
/// the poisoned lines, run `body` single-threaded on core 0 (Section
/// III-E), and charge its cycles to the returned stats.
pub(crate) fn with_recovery(
    machine: &mut Machine,
    body: impl FnOnce(&mut CoreCtx<'_>, &[LineAddr], &mut RecoveryStats),
) -> RecoveryStats {
    let mut stats = RecoveryStats::default();
    let poisoned = machine.mem().poisoned_lines();
    let mut ctx = machine.ctx(0);
    let start = ctx.now();
    body(&mut ctx, &poisoned, &mut stats);
    stats.cycles = ctx.now() - start;
    stats
}

/// Durably arm the rebuild journal in `table[key]`. Must land before the
/// rebuild's first store to a poisoned line.
pub(crate) fn arm_rebuild(ctx: &mut CoreCtx<'_>, table: &ChecksumTable, key: usize) {
    table.store(ctx, key, REBUILD_ARMED);
    table.persist(ctx, key);
}

/// Durably mark the rebuild journalled in `table[key]` complete.
pub(crate) fn clear_rebuild(ctx: &mut CoreCtx<'_>, table: &ChecksumTable, key: usize) {
    table.store(ctx, key, REBUILD_CLEARED);
    table.persist(ctx, key);
}

/// Whether `table[key]` journals a rebuild a crash interrupted.
pub(crate) fn rebuild_armed(ctx: &mut CoreCtx<'_>, table: &ChecksumTable, key: usize) -> bool {
    table.load(ctx, key) == Some(REBUILD_ARMED)
}

/// Lazy-family recovery of kernel `k` on `machine`.
///
/// # Panics
///
/// Panics if `k`'s scheme keeps no checksums.
pub(crate) fn recover_regions<K: RegionRecovery>(k: &K, machine: &mut Machine) -> RecoveryStats {
    let handles = k.handles();
    let (kind, parity) = match handles.scheme {
        Scheme::Lazy(kind) | Scheme::LazyEagerCk(kind) => (kind, None),
        Scheme::LazyParity(kind) => (kind, Some(handles.parity)),
        other => panic!("{other} keeps no checksums to recover from"),
    };
    with_recovery(machine, |ctx, poisoned, stats| {
        let mut ladder = Ladder {
            k,
            kind,
            table: &handles.table,
            parity,
            poisoned,
            stats,
            slots: Vec::new(),
        };
        for group in 0..k.groups() {
            ladder.recover_group(ctx, group);
        }
    })
}

/// One recovery pass in progress.
struct Ladder<'a, K> {
    k: &'a K,
    kind: ChecksumKind,
    table: &'a ChecksumTable,
    parity: Option<ParityArena>,
    poisoned: &'a [LineAddr],
    stats: &'a mut RecoveryStats,
    /// Reused buffer for the slots of the region rung 1 works on.
    slots: Vec<Slot<f64>>,
}

impl<K: RegionRecovery> Ladder<'_, K> {
    fn recover_group(&mut self, ctx: &mut CoreCtx<'_>, group: usize) {
        let k = self.k;
        let steps = k.steps(group);
        let scan = (0..steps).map(|i| match K::SCAN {
            Scan::Every => i,
            Scan::NewestFirst => steps - 1 - i,
        });
        let regions = |step: usize| (0..k.parts()).map(move |part| Region { group, step, part });
        let quarantined = K::TRUST == Trust::Group
            && ((k.group_poisoned(self.poisoned, group, None)
                && !self.repair_poison(ctx, scan.clone().flat_map(regions)))
                || k.rebuild_journal(group)
                    .is_some_and(|key| rebuild_armed(ctx, self.table, key)));
        let mut bad = vec![quarantined; steps];
        if quarantined {
            // Poison reads as a fixed pattern a weak code can collide
            // with: no checksum verdict of this group is trusted.
            self.tally_quarantine(steps);
            if let Some(key) = k.rebuild_journal(group) {
                arm_rebuild(ctx, self.table, key);
            }
        } else {
            let mut rung1_failed = false;
            for step in scan {
                if K::TRUST == Trust::Step
                    && k.group_poisoned(self.poisoned, group, Some(step))
                    && !self.repair_poison(ctx, regions(step))
                {
                    self.tally_quarantine(1);
                    bad[step] = true;
                    continue;
                }
                let (consistent, failed) = self.audit_and_repair(ctx, group, step);
                if K::TRUST == Trust::Step {
                    self.stats.escalations += u64::from(failed);
                    self.stats.regions_inconsistent += u64::from(!consistent);
                }
                rung1_failed |= failed;
                bad[step] = !consistent;
                if consistent && K::SCAN == Scan::NewestFirst {
                    break;
                }
            }
            if K::TRUST == Trust::Group && rung1_failed {
                self.stats.escalations += 1;
            }
        }
        if bad.iter().all(|&b| b) {
            k.restore_group(ctx, group, quarantined);
        }
        for step in (0..steps).filter(|&s| bad[s]) {
            for r in regions(step) {
                let mut sink = match self.parity {
                    Some(arena) => RecoverySink::with_parity(self.kind, arena),
                    None => RecoverySink::new(self.kind),
                };
                k.replay_region(ctx, r, &mut sink);
                sink.commit(ctx, self.table, k.region_key(r));
                self.stats.recomputed_regions += 1;
            }
        }
    }

    /// Audit every region of `step` against its checksum, with rung-1
    /// mismatch repair under `LazyParity`. Returns whether the step is
    /// consistent and whether a rung-1 repair failed. A step stands or
    /// falls whole, so without parity the audit stops at the first
    /// mismatch.
    fn audit_and_repair(
        &mut self,
        ctx: &mut CoreCtx<'_>,
        group: usize,
        step: usize,
    ) -> (bool, bool) {
        let k = self.k;
        self.stats.regions_checked += k.parts() as u64;
        let (mut consistent, mut failed) = (true, false);
        for part in 0..k.parts() {
            let r = Region { group, step, part };
            let key = k.region_key(r);
            if k.region_matches(ctx, self.table, self.kind, r) {
                continue;
            }
            if K::TRUST == Trust::Group {
                self.stats.regions_inconsistent += 1;
            }
            if let Some(parity) = self.parity {
                self.slots.clear();
                self.slots.extend(k.region_slots(r));
                if try_mismatch_repair(ctx, self.table, &parity, key, self.kind, &self.slots) {
                    self.stats.repaired_lines += 1;
                    continue;
                }
                self.stats.repair_failures += 1;
                failed = true;
            }
            consistent = false;
            if self.parity.is_none() {
                break;
            }
        }
        (consistent, failed)
    }

    /// Rung 1 for a poisoned group or step: parity reconstruction over
    /// `regions` in scan order. Under [`Trust::Group`] the first repair
    /// wins; overwriting regions are successive versions of the data (a
    /// failed version yields to an older one, a version not covering the
    /// line ends the search), disjoint regions let the first one covering
    /// the line decide. Under [`Trust::Step`] every poisoned chunk must
    /// repair. Returns whether the unit was repaired; otherwise the unit
    /// escalates.
    fn repair_poison(
        &mut self,
        ctx: &mut CoreCtx<'_>,
        regions: impl Iterator<Item = Region>,
    ) -> bool {
        let Some(parity) = self.parity else {
            return false;
        };
        let versions = K::SCAN == Scan::NewestFirst;
        let mut failed = false;
        for r in regions {
            self.slots.clear();
            self.slots.extend(self.k.region_slots(r));
            let key = self.k.region_key(r);
            let verdict = try_poison_repair(
                ctx,
                self.table,
                &parity,
                key,
                self.kind,
                &self.slots,
                self.poisoned,
            );
            match (verdict, K::TRUST) {
                (RepairVerdict::Repaired, Trust::Group) => {
                    self.stats.repaired_lines += 1;
                    return true;
                }
                (RepairVerdict::Repaired, Trust::Step) => self.stats.repaired_lines += 1,
                (RepairVerdict::Failed, trust) => {
                    self.stats.repair_failures += 1;
                    failed = true;
                    if trust == Trust::Group && !versions {
                        break;
                    }
                }
                (RepairVerdict::Clean, trust) => {
                    if trust == Trust::Group && versions {
                        break;
                    }
                }
            }
        }
        let repaired = K::TRUST == Trust::Step && !failed;
        if !repaired {
            self.stats.escalations += 1;
        }
        repaired
    }

    fn tally_quarantine(&mut self, steps: usize) {
        match K::TALLY {
            Tally::Unit => self.stats.regions_quarantined += 1,
            Tally::EachStep => self.stats.regions_quarantined += steps as u64,
            Tally::UnitChecked => {
                self.stats.regions_quarantined += 1;
                self.stats.regions_checked += 1;
            }
        }
    }
}

/// Recovery sink: stores eagerly (lines collected for a flush+fence
/// commit) while recomputing the region checksum so the table can be
/// repaired durably too — and, under `LazyParity`, the region's XOR
/// parity line.
#[derive(Debug)]
pub(crate) struct RecoverySink {
    committer: EagerCommitter,
    ck: RunningChecksum,
    kind: ChecksumKind,
    parity: Option<(ParityArena, [u64; 8])>,
}

impl RecoverySink {
    /// A sink recomputing a `kind` checksum.
    pub(crate) fn new(kind: ChecksumKind) -> Self {
        RecoverySink {
            committer: EagerCommitter::new(),
            ck: RunningChecksum::new(kind),
            kind,
            parity: None,
        }
    }

    /// A sink that also rebuilds the region's XOR parity line
    /// (`LazyParity` recovery). The lanes are published durably *after*
    /// the data and checksum are fenced — the R8 recovery ordering: parity
    /// must never be observable ahead of the data it summarizes.
    fn with_parity(kind: ChecksumKind, arena: ParityArena) -> Self {
        RecoverySink {
            parity: Some((arena, [0u64; 8])),
            ..RecoverySink::new(kind)
        }
    }

    /// Flush all written lines, fence, then durably store the recomputed
    /// checksum in `table[key]` (and, under `LazyParity`, the rebuilt
    /// parity line — last, per rule R8).
    // lp-lint: context(recovery)
    pub(crate) fn commit(self, ctx: &mut CoreCtx<'_>, table: &ChecksumTable, key: usize) {
        self.committer.commit(ctx);
        table.store(ctx, key, self.ck.value());
        table.persist(ctx, key);
        if let Some((arena, lanes)) = self.parity {
            arena.store_lanes(ctx, key, &lanes);
            arena.persist(ctx, key);
        }
    }
}

impl StoreSink for RecoverySink {
    fn store(&mut self, ctx: &mut CoreCtx<'_>, arr: PArray<f64>, idx: usize, v: f64) {
        ctx.store(arr, idx, v);
        self.committer.note(arr.addr(idx));
        self.ck.update(v.to_bits());
        ctx.compute(self.kind.cost_ops());
        if let Some((_, lanes)) = &mut self.parity {
            lanes[lane_of(arr.addr(idx))] ^= v.to_bits();
            ctx.compute(PARITY_FOLD_OPS);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lp_sim::config::MachineConfig;

    #[test]
    fn recovery_sink_persists_data_and_checksum() {
        let mut m = Machine::new(
            MachineConfig::default()
                .with_cores(1)
                .with_nvmm_bytes(1 << 20),
        );
        let arr = m.alloc::<f64>(16).unwrap();
        let table = ChecksumTable::alloc(&mut m, 4).unwrap();
        {
            let mut ctx = m.ctx(0);
            let mut sink = RecoverySink::new(ChecksumKind::Modular);
            for i in 0..16 {
                sink.store(&mut ctx, arr, i, i as f64);
            }
            sink.commit(&mut ctx, &table, 2);
        }
        // Everything survives a crash: data and table entry.
        m.mem_mut().force_crash();
        m.mem_mut().acknowledge_crash();
        for i in 0..16 {
            assert_eq!(m.peek(arr, i), i as f64);
        }
        let expected = lp_core::checksum::checksum_f64s(ChecksumKind::Modular, &m.peek_vec(arr));
        assert_eq!(table.peek(&m, 2), Some(expected));
    }
}
