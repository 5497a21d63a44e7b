//! Recovery-side helpers: verify regions against their stored checksums
//! and account for repair work.
//!
//! Recovery is kernel-specific (Section III-E: "recovery mechanisms are
//! region and workload dependent"), but every kernel's recovery does the
//! same two primitive things this module provides:
//!
//! 1. *verification* — reload a region's values from the post-crash NVMM
//!    image, recompute the checksum, and compare it with the table entry;
//! 2. *accounting* — count how many regions were checked, how many had to
//!    be recomputed, and how expensive recovery was.
//!
//! Recovery always runs with **Eager Persistency** (repairs are flushed
//! and fenced) so that a crash during recovery cannot lose progress —
//! the forward-progress argument of Section III-E.

use crate::checksum::{ChecksumKind, RunningChecksum};
use crate::table::ChecksumTable;
use lp_sim::core::CoreCtx;
use lp_sim::mem::{PArray, Scalar};

/// Counters describing one recovery pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Regions whose checksum was verified.
    pub regions_checked: u64,
    /// Regions found inconsistent (checksum mismatch or never written).
    pub regions_inconsistent: u64,
    /// Regions *recomputed* — rung 2/3 of the escalation ladder: the
    /// region's values were re-derived (from inputs or by EP re-execution)
    /// and re-persisted eagerly.
    pub recomputed_regions: u64,
    /// Lines *repaired* in place — rung 1: reconstructed from the region's
    /// XOR parity plus its surviving lines and re-verified, without
    /// recomputing anything.
    pub repaired_lines: u64,
    /// Rung-1 attempts that failed (unrepairable burst, partial line
    /// ownership, missing checksum, or a reconstruction that did not
    /// re-verify). Each failure precedes an escalation.
    pub repair_failures: u64,
    /// Transitions down the ladder: a region that rung 1 could not fix
    /// and had to fall through to recompute / re-execution.
    pub escalations: u64,
    /// Regions rebuilt because their lines intersected poisoned (media
    /// fault) NVMM — the checksum verdict was never trusted for these.
    pub regions_quarantined: u64,
    /// Cycles spent in recovery (filled by the kernel harness).
    pub cycles: u64,
}

impl RecoveryStats {
    /// Merge another pass into this one.
    pub fn merge(&mut self, other: &RecoveryStats) {
        self.regions_checked += other.regions_checked;
        self.regions_inconsistent += other.regions_inconsistent;
        self.recomputed_regions += other.recomputed_regions;
        self.repaired_lines += other.repaired_lines;
        self.repair_failures += other.repair_failures;
        self.escalations += other.escalations;
        self.regions_quarantined += other.regions_quarantined;
        self.cycles += other.cycles;
    }
}

/// Whether any line backing elements `[start, start + count)` of `arr` is
/// in `poisoned` (a sorted list from
/// [`lp_sim::memsys::MemSystem::poisoned_lines`]). Quarantined ranges must
/// be rebuilt by recomputation regardless of what their checksums say:
/// poison reads as a fixed pattern, and a pattern can collide with a weak
/// code.
pub fn range_poisoned<T: Scalar>(
    poisoned: &[lp_sim::addr::LineAddr],
    arr: PArray<T>,
    start: usize,
    count: usize,
) -> bool {
    if poisoned.is_empty() || count == 0 {
        return false;
    }
    arr.lines_of_range(start, count)
        .any(|line| poisoned.binary_search(&line).is_ok())
}

/// One region element in checksum fold order: the persistent array it
/// lives in and its index. Regions that interleave several arrays (fft's
/// re/im pair) list their slots across arrays in store order.
pub type Slot<T> = (PArray<T>, usize);

/// Recompute the checksum of a region's values, read through the timed
/// context, and compare it with the stored table entry for `key`.
///
/// `slots` are the region's elements in the order normal execution folded
/// them — checksum codes need not be commutative, so order is part of the
/// contract. Each element costs one load plus `kind.cost_ops()` ALU ops.
///
/// Returns `false` when the entry was never written (the sentinel case of
/// Section IV: the region may not have been reached before the failure).
pub fn region_consistent<T: Scalar>(
    ctx: &mut CoreCtx<'_>,
    table: &ChecksumTable,
    key: usize,
    kind: ChecksumKind,
    slots: impl IntoIterator<Item = Slot<T>>,
) -> bool {
    let mut ck = RunningChecksum::new(kind);
    let ops = kind.cost_ops();
    for (arr, i) in slots {
        ck.update(ctx.load(arr, i).to_bits64());
        ctx.compute(ops);
    }
    table.matches(ctx, key, ck.value())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::{Scheme, SchemeHandles};
    use lp_sim::config::MachineConfig;
    use lp_sim::machine::Machine;
    use lp_sim::prelude::CrashTrigger;

    fn machine() -> Machine {
        Machine::new(
            MachineConfig::default()
                .with_cores(1)
                .with_nvmm_bytes(1 << 20),
        )
    }

    #[test]
    fn consistent_region_verifies_after_drain() {
        let mut m = machine();
        let arr = m.alloc::<f64>(32).unwrap();
        let h = SchemeHandles::alloc(&mut m, Scheme::lazy_default(), 4, 1, 0).unwrap();
        let tp = h.thread(0);
        {
            let mut ctx = m.ctx(0);
            let mut rs = tp.begin(&mut ctx, 0);
            for i in 0..32 {
                tp.store(&mut ctx, &mut rs, arr, i, (i * 3) as f64);
            }
            tp.commit(&mut ctx, rs);
        }
        m.drain_caches();
        let mut ctx = m.ctx(0);
        assert!(region_consistent(
            &mut ctx,
            &h.table,
            0,
            crate::checksum::ChecksumKind::Modular,
            (0..32).map(|i| (arr, i))
        ));
    }

    #[test]
    fn crashed_region_fails_verification() {
        let mut m = machine();
        let arr = m.alloc::<f64>(32).unwrap();
        let h = SchemeHandles::alloc(&mut m, Scheme::lazy_default(), 4, 1, 0).unwrap();
        let tp = h.thread(0);
        m.set_crash_trigger(CrashTrigger::AfterMemOps(10));
        let mut plans = m.plans();
        plans[0].region(move |ctx| {
            let mut rs = tp.begin(ctx, 0);
            for i in 0..32 {
                tp.store(ctx, &mut rs, arr, i, (i * 3) as f64);
            }
            tp.commit(ctx, rs);
        });
        assert_eq!(m.run(plans), lp_sim::machine::Outcome::Crashed);
        let mut ctx = m.ctx(0);
        assert!(
            !region_consistent(
                &mut ctx,
                &h.table,
                0,
                crate::checksum::ChecksumKind::Modular,
                (0..32).map(|i| (arr, i))
            ),
            "nothing persisted, so the region must verify as inconsistent"
        );
    }

    #[test]
    fn verification_order_matters_for_adler() {
        let mut m = machine();
        let arr = m.alloc::<f64>(4).unwrap();
        let h = SchemeHandles::alloc(
            &mut m,
            Scheme::Lazy(crate::checksum::ChecksumKind::Adler32),
            2,
            1,
            0,
        )
        .unwrap();
        let tp = h.thread(0);
        {
            let mut ctx = m.ctx(0);
            let mut rs = tp.begin(&mut ctx, 0);
            for i in 0..4 {
                tp.store(&mut ctx, &mut rs, arr, i, (i + 1) as f64);
            }
            tp.commit(&mut ctx, rs);
        }
        m.drain_caches();
        let mut ctx = m.ctx(0);
        let kind = crate::checksum::ChecksumKind::Adler32;
        assert!(region_consistent(
            &mut ctx,
            &h.table,
            0,
            kind,
            (0..4).map(|i| (arr, i))
        ));
        assert!(
            !region_consistent(&mut ctx, &h.table, 0, kind, (0..4).rev().map(|i| (arr, i))),
            "feeding values in the wrong order must not verify"
        );
    }

    #[test]
    fn recovery_stats_merge() {
        let mut a = RecoveryStats {
            regions_checked: 2,
            regions_inconsistent: 1,
            recomputed_regions: 1,
            repaired_lines: 2,
            repair_failures: 1,
            escalations: 1,
            regions_quarantined: 1,
            cycles: 100,
        };
        let b = RecoveryStats {
            regions_checked: 3,
            regions_inconsistent: 0,
            recomputed_regions: 0,
            repaired_lines: 1,
            repair_failures: 0,
            escalations: 0,
            regions_quarantined: 2,
            cycles: 50,
        };
        a.merge(&b);
        assert_eq!(a.regions_checked, 5);
        assert_eq!(a.regions_quarantined, 3);
        assert_eq!(a.repaired_lines, 3);
        assert_eq!(a.repair_failures, 1);
        assert_eq!(a.escalations, 1);
        assert_eq!(a.cycles, 150);
    }
}
