//! Cholesky factorization (`Cholesky` in the paper's Table V).
//!
//! Left-looking column factorization of a symmetric positive-definite
//! input `a` into a separate lower-triangular output `l` (out-of-place so
//! recovery can always replay from the preserved input):
//!
//! ```text
//! l[j][j] = sqrt(a[j][j] − Σ_{k<j} l[j][k]²)
//! l[i][j] = (a[i][j] − Σ_{k<j} l[i][k]·l[j][k]) / l[j][j]     (i > j)
//! ```
//!
//! Regions: `(column j, row block)`. Within a column, row blocks are
//! independent; every region recomputes the diagonal locally from row `j`
//! of `l` (redundant arithmetic instead of an extra synchronization), and
//! only the block owning row `j` stores it. A barrier separates columns,
//! since column `j+1` reads column `j`.
//!
//! Recovery mirrors Gauss: pivot rows `0..col_window` live in block 0
//! (enforced `col_window ≤ bsize`), so block 0 recovers first and other
//! blocks replay their columns newest-consistent-first from the input.

use crate::common::{
    random_spd, round_robin_blocks, KernelRun, PMatrix, SchemeSink, StoreSink, IDX_OPS, MUL_ADD_OPS,
};
use crate::ladder::{
    arm_rebuild, rebuild_armed, recover_regions, with_recovery, RecoverySink, Region,
    RegionRecovery, Scan,
};
use lp_core::checksum::ChecksumKind;
use lp_core::recovery::{RecoveryStats, Slot};
use lp_core::scheme::{Scheme, SchemeHandles};
use lp_sim::addr::LineAddr;
use lp_sim::config::MachineConfig;
use lp_sim::core::CoreCtx;
use lp_sim::machine::{Machine, Outcome, ThreadPlan};

/// Modelled ALU ops for a square root.
const SQRT_OPS: u64 = 12;

/// Problem and windowing parameters for one factorization run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CholeskyParams {
    /// Matrix dimension; must be a multiple of `bsize`.
    pub n: usize,
    /// Rows per block.
    pub bsize: usize,
    /// Worker threads.
    pub threads: usize,
    /// Columns to factorize (the paper runs Cholesky to completion; the
    /// default bench window covers the first `bsize` columns); must
    /// satisfy `col_window ≤ bsize`.
    pub col_window: usize,
    /// Input seed.
    pub seed: u64,
}

impl CholeskyParams {
    /// Smallest meaningful parameters, sized for exhaustive crash-state
    /// model checking (one full replay per crash point).
    pub fn micro() -> Self {
        CholeskyParams {
            n: 16,
            bsize: 8,
            threads: 2,
            col_window: 2,
            seed: 23,
        }
    }

    /// Parameters sized for fast unit tests.
    pub fn test_small() -> Self {
        CholeskyParams {
            n: 32,
            bsize: 8,
            threads: 2,
            col_window: 6,
            seed: 23,
        }
    }

    /// Bench-scale parameters.
    pub fn bench_default() -> Self {
        CholeskyParams {
            n: 256,
            bsize: 16,
            threads: 8,
            col_window: 16,
            seed: 23,
        }
    }

    /// Paper-scale parameters: 1024² input (the paper runs Cholesky to
    /// completion; we window to the first tile-width of columns, where
    /// the left-looking update cost is already dominated by the same
    /// dot-product inner loop).
    pub fn paper_default() -> Self {
        CholeskyParams {
            n: 1024,
            bsize: 128,
            threads: 8,
            col_window: 128,
            seed: 23,
        }
    }

    /// Number of row blocks.
    pub fn nblocks(&self) -> usize {
        self.n / self.bsize
    }

    /// Validate parameters.
    ///
    /// # Errors
    ///
    /// Returns a description of the violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.bsize == 0 || !self.n.is_multiple_of(self.bsize) {
            return Err(format!(
                "n={} must be a multiple of bsize={}",
                self.n, self.bsize
            ));
        }
        if self.threads == 0 {
            return Err("threads must be >= 1".into());
        }
        if self.col_window == 0 || self.col_window > self.bsize {
            return Err(format!(
                "col_window={} must be in 1..=bsize={}",
                self.col_window, self.bsize
            ));
        }
        Ok(())
    }
}

/// A configured factorization workload.
#[derive(Debug, Clone)]
pub struct Cholesky {
    /// Parameters.
    pub params: CholeskyParams,
    /// The active scheme.
    pub scheme: Scheme,
    /// SPD input (read-only).
    pub a: PMatrix,
    /// Lower-triangular output.
    pub l: PMatrix,
    /// Scheme support structures.
    pub handles: SchemeHandles,
}

impl Cholesky {
    /// Allocate and initialize on `machine`.
    ///
    /// # Errors
    ///
    /// Returns allocation or validation failures as strings.
    pub fn setup(
        machine: &mut Machine,
        params: CholeskyParams,
        scheme: Scheme,
    ) -> Result<Self, String> {
        params.validate()?;
        let n = params.n;
        let a = PMatrix::alloc(machine, n, n).map_err(|e| e.to_string())?;
        let l = PMatrix::alloc(machine, n, n).map_err(|e| e.to_string())?;
        a.fill(machine, &random_spd(params.seed, n));
        l.fill(machine, &vec![0.0; n * n]);
        let handles = SchemeHandles::alloc(
            machine,
            scheme,
            params.col_window * params.nblocks(),
            params.threads,
            params.bsize + 8,
        )
        .map_err(|e| e.to_string())?;
        Ok(Cholesky {
            params,
            scheme,
            a,
            l,
            handles,
        })
    }

    /// Checksum-table key of region `(j, block)`.
    pub fn key(&self, j: usize, block: usize) -> usize {
        j * self.params.nblocks() + block
    }

    /// Rows of `block` that column `j` writes: the diagonal row `j` if the
    /// block owns it, plus the block's rows strictly below `j`.
    pub fn region_rows(params: &CholeskyParams, j: usize, block: usize) -> std::ops::Range<usize> {
        let lo = (block * params.bsize).max(j);
        let hi = (block + 1) * params.bsize;
        lo..hi.max(lo)
    }

    /// Round-robin block ownership.
    pub fn ownership(&self) -> Vec<Vec<usize>> {
        round_robin_blocks(self.params.nblocks(), self.params.threads)
    }

    /// Compute the diagonal value `l[j][j]` (loads row `j` of `l`).
    fn diag_value(&self, ctx: &mut CoreCtx<'_>, j: usize) -> f64 {
        let mut s = self.a.load(ctx, j, j);
        if j > 0 {
            ctx.load_fold(
                self.l.array(),
                self.l.idx(j, 0),
                j,
                MUL_ADD_OPS + IDX_OPS,
                |v: f64| s -= v * v,
            );
        }
        ctx.compute(SQRT_OPS);
        s.sqrt()
    }

    /// One region: column `j`'s entries for this block's rows.
    fn region_body<S: StoreSink>(
        &self,
        ctx: &mut CoreCtx<'_>,
        j: usize,
        block: usize,
        sink: &mut S,
    ) {
        let d = self.diag_value(ctx, j);
        for r in Self::region_rows(&self.params, j, block) {
            if r == j {
                sink.store(ctx, self.l.array(), self.l.idx(j, j), d);
                continue;
            }
            let mut s = self.a.load(ctx, r, j);
            if j > 0 {
                // Rows `r` and `j` of `l` are both contiguous in `k`;
                // `sign = -1.0` makes the batched accumulator bit-identical
                // to the open-coded `s -= lik * ljk` loop.
                s = ctx.fma_run(
                    self.l.array(),
                    self.l.idx(r, 0),
                    self.l.array(),
                    self.l.idx(j, 0),
                    1,
                    j,
                    MUL_ADD_OPS + IDX_OPS,
                    -1.0,
                    s,
                );
            }
            ctx.compute(MUL_ADD_OPS);
            sink.store(ctx, self.l.array(), self.l.idx(r, j), s / d);
        }
    }

    /// Per-thread schedules: per column, each thread's non-empty block
    /// regions, then a barrier.
    /// Persistent address ranges for the `lp-check` sanitizer.
    pub fn tracked_ranges(&self) -> Vec<lp_core::track::TrackedRange> {
        use lp_core::track::{RangeRole, TrackedRange};
        let mut out = vec![
            TrackedRange::of("cholesky.l", self.l.array(), RangeRole::Protected),
            TrackedRange::of("cholesky.a", self.a.array(), RangeRole::Scratch),
        ];
        out.extend(self.handles.ranges());
        out
    }

    /// Build the scheduled per-core work plans for one run.
    pub fn plans(&self) -> Vec<ThreadPlan<'static>> {
        let owners = self.ownership();
        let mut plans: Vec<ThreadPlan<'static>> = (0..self.params.threads)
            .map(|_| ThreadPlan::new())
            .collect();
        for j in 0..self.params.col_window {
            for (t, owned) in owners.iter().enumerate() {
                let tp = self.handles.thread(t);
                for &block in owned {
                    if Self::region_rows(&self.params, j, block).is_empty() {
                        continue;
                    }
                    let this = self.clone();
                    plans[t].region(move |ctx| {
                        let key = this.key(j, block);
                        let mut rs = tp.begin(ctx, key);
                        let mut sink = SchemeSink { tp, rs: &mut rs };
                        this.region_body(ctx, j, block, &mut sink);
                        tp.commit(ctx, rs);
                    });
                }
            }
            for plan in &mut plans {
                plan.barrier();
            }
        }
        plans
    }

    /// Host golden for the simulated window.
    pub fn golden(params: &CholeskyParams) -> Vec<f64> {
        let n = params.n;
        let a = random_spd(params.seed, n);
        let mut l = vec![0.0f64; n * n];
        for j in 0..params.col_window {
            let mut s = a[j * n + j];
            for k in 0..j {
                s -= l[j * n + k] * l[j * n + k];
            }
            let d = s.sqrt();
            l[j * n + j] = d;
            for r in j + 1..n {
                let mut s = a[r * n + j];
                for k in 0..j {
                    s -= l[r * n + k] * l[j * n + k];
                }
                l[r * n + j] = s / d;
            }
        }
        l
    }

    /// Whether the durable output matches the golden reference.
    pub fn verify(&self, machine: &Machine) -> bool {
        crate::common::values_match(&self.l.peek_all(machine), &Self::golden(&self.params))
    }

    /// Lines of `l` that recovery provably rebuilds — the fault
    /// campaign's poison target set. Quarantine zeroes whole block rows
    /// across all columns, so every cell of a data-span line is restored:
    /// written cells by column replay, the rest to their golden zeros.
    pub fn repairable_lines(&self) -> Vec<LineAddr> {
        let n = self.params.n;
        let mut lines: Vec<LineAddr> = (0..n)
            .flat_map(|r| self.l.array().lines_of_range(self.l.idx(r, 0), n))
            .collect();
        lines.sort_unstable();
        lines.dedup();
        lines
    }

    /// Lines of `l` where a *silent* bit flip is provably detected — the
    /// fault campaign's flip target set. Columns are disjoint, so every
    /// committed column checksum stays valid and the full audit catches a
    /// flip in any *written* cell; cells past the window or above the
    /// diagonal are never covered by a checksum, so only lines fully
    /// inside a row's written span `[0, min(window, r+1))` qualify. (At
    /// windows narrower than a line this set is empty.)
    pub fn flip_lines(&self) -> Vec<LineAddr> {
        let window = self.params.col_window;
        let elems_per_line = lp_sim::addr::LINE_BYTES / 8;
        let mut lines = Vec::new();
        for r in 0..self.params.n {
            let span = window.min(r + 1);
            let full = (span / elems_per_line) * elems_per_line;
            if full > 0 {
                lines.extend(self.l.array().lines_of_range(self.l.idx(r, 0), full));
            }
        }
        lines.sort_unstable();
        lines.dedup();
        lines
    }

    /// Whether any line of `block`'s rows is poisoned.
    fn block_poisoned(&self, poisoned: &[LineAddr], block: usize) -> bool {
        let (n, bsize) = (self.params.n, self.params.bsize);
        (block * bsize..(block + 1) * bsize).any(|r| {
            lp_core::recovery::range_poisoned(poisoned, self.l.array(), self.l.idx(r, 0), n)
        })
    }

    /// Zero a block's rows across *all* columns eagerly. Used for
    /// quarantined blocks: a poisoned line may span cells no column
    /// replay rewrites (past the window, above the diagonal), and those
    /// must return to their golden zeros. Whole lines are rewritten, so
    /// the poison is scrubbed exactly when its line becomes fully zero —
    /// a crash mid-zeroing re-enters quarantine via the surviving poison.
    fn zero_block_full(&self, ctx: &mut CoreCtx<'_>, block: usize) {
        let (n, bsize) = (self.params.n, self.params.bsize);
        for r in block * bsize..(block + 1) * bsize {
            for j in 0..n {
                self.l.store(ctx, r, j, 0.0);
            }
        }
        self.l.flush_rows(ctx, block * bsize, bsize);
        ctx.sfence();
    }

    /// Zero a block's first `col_window` columns eagerly (its pre-run
    /// state) so replay can start from scratch.
    fn zero_block(&self, ctx: &mut CoreCtx<'_>, block: usize) {
        let (bsize, window) = (self.params.bsize, self.params.col_window);
        for r in block * bsize..(block + 1) * bsize {
            for j in 0..window.min(r + 1) {
                self.l.store(ctx, r, j, 0.0);
            }
            ctx.flush_range(self.l.array(), self.l.idx(r, 0), window.min(r + 1));
        }
        ctx.sfence();
    }

    /// Post-crash recovery, dispatched by scheme. Lazy schemes audit
    /// *every* column of a block, then replay the inconsistent ones in
    /// ascending order (later columns read earlier ones); pivot rows
    /// `0..col_window` live in block 0, so block 0 recovers first.
    pub fn recover(&self, machine: &mut Machine) -> RecoveryStats {
        match self.scheme {
            Scheme::Base => RecoveryStats::default(),
            Scheme::Lazy(_) | Scheme::LazyEagerCk(_) | Scheme::LazyParity(_) => {
                recover_regions(self, machine)
            }
            // Conservative marker-free recovery: zero everything and
            // replay column-by-column from the preserved input, undoing
            // any open WAL transaction first.
            Scheme::Eager | Scheme::Wal => with_recovery(machine, |ctx, poisoned, stats| {
                let table = &self.handles.table;
                // Arm the rebuild journal for every poisoned block before
                // the WAL undo (or the zeroing below) can partially
                // overwrite a poisoned line: an eviction of such a line
                // scrubs the poison flag while leaving pattern residue in
                // cells no column replay rewrites, so a nested crash must
                // find the durable marker instead of the vanished poison.
                for block in 0..self.params.nblocks() {
                    if self.block_poisoned(poisoned, block) {
                        arm_rebuild(ctx, table, self.key(0, block));
                    }
                }
                for t in 0..self.params.threads {
                    let tp = self.handles.thread(t);
                    if tp.wal_recover(ctx) > 0 {
                        stats.regions_inconsistent += 1;
                    }
                }
                for block in 0..self.params.nblocks() {
                    // Armed blocks need all cells restored (a poisoned
                    // line can span cells no column replay rewrites). The
                    // column-0 replay commit clears the marker.
                    if rebuild_armed(ctx, table, self.key(0, block)) {
                        stats.regions_quarantined += 1;
                        self.zero_block_full(ctx, block);
                    } else {
                        self.zero_block(ctx, block);
                    }
                }
                for j in 0..self.params.col_window {
                    for block in 0..self.params.nblocks() {
                        if Self::region_rows(&self.params, j, block).is_empty() {
                            continue;
                        }
                        stats.regions_checked += 1;
                        // The recovery sink serves purely for its eager
                        // commit; the checksum store is harmless here.
                        let mut sink = RecoverySink::new(ChecksumKind::Modular);
                        self.region_body(ctx, j, block, &mut sink);
                        sink.commit(ctx, table, self.key(j, block));
                        stats.recomputed_regions += 1;
                    }
                }
            }),
        }
    }
}

/// The ladder facts: a group is a row block, its steps the single-column
/// regions — disjoint, so every committed checksum stays valid for
/// current data and a newest-first stop would miss a silent flip in an
/// older column. Rung 1 is structurally hopeless here: a line of `l`
/// spans eight adjacent columns, i.e. eight disjoint regions, so no
/// parity line owns all eight words of it and reconstruction refuses;
/// the attempt is still made, and its failure recorded.
impl RegionRecovery for Cholesky {
    const SCAN: Scan = Scan::Every;

    fn handles(&self) -> &SchemeHandles {
        &self.handles
    }

    fn groups(&self) -> usize {
        self.params.nblocks()
    }

    fn steps(&self, _block: usize) -> usize {
        self.params.col_window
    }

    fn region_key(&self, r: Region) -> usize {
        self.key(r.step, r.group)
    }

    fn region_slots(&self, r: Region) -> impl Iterator<Item = Slot<f64>> + '_ {
        Self::region_rows(&self.params, r.step, r.group)
            .map(move |row| (self.l.array(), self.l.idx(row, r.step)))
    }

    fn group_poisoned(&self, poisoned: &[LineAddr], block: usize, _step: Option<usize>) -> bool {
        self.block_poisoned(poisoned, block)
    }

    /// Column 0's table slot journals a quarantine rebuild: a partial
    /// [`Cholesky::zero_block_full`] can scrub a poisoned line's flag
    /// through an eviction while cells outside the replayed window still
    /// hold pattern residue, so the poison itself cannot be trusted to
    /// survive as the re-entry signal. The column-0 replay commit
    /// overwrites the journal with the real checksum.
    fn rebuild_journal(&self, block: usize) -> Option<usize> {
        Some(self.key(0, block))
    }

    fn restore_group(&self, ctx: &mut CoreCtx<'_>, block: usize, quarantined: bool) {
        if quarantined {
            self.zero_block_full(ctx, block);
        } else {
            self.zero_block(ctx, block);
        }
    }

    fn replay_region<S: StoreSink>(&self, ctx: &mut CoreCtx<'_>, r: Region, sink: &mut S) {
        self.region_body(ctx, r.step, r.group, sink);
    }
}

/// Convenience driver mirroring [`crate::tmm::run`].
pub fn run(cfg: &MachineConfig, params: CholeskyParams, scheme: Scheme) -> KernelRun {
    let cfg = cfg.clone().with_cores(params.threads);
    let mut machine = Machine::new(cfg);
    let chol = Cholesky::setup(&mut machine, params, scheme).expect("cholesky setup");
    let outcome = machine.run(chol.plans());
    let stats = machine.stats();
    machine.drain_caches();
    let verified = outcome == Outcome::Completed && chol.verify(&machine);
    KernelRun {
        stats,
        outcome,
        verified,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lp_sim::prelude::CrashTrigger;

    fn cfg() -> MachineConfig {
        MachineConfig::default().with_nvmm_bytes(8 << 20)
    }

    #[test]
    fn golden_satisfies_l_lt_equals_a() {
        let params = CholeskyParams {
            n: 16,
            bsize: 16,
            threads: 1,
            col_window: 16,
            seed: 3,
        };
        let l = Cholesky::golden(&params);
        let a = random_spd(params.seed, params.n);
        let n = params.n;
        for i in 0..n {
            for j in 0..=i {
                let mut s = 0.0;
                for k in 0..n {
                    s += l[i * n + k] * l[j * n + k];
                }
                assert!((s - a[i * n + j]).abs() < 1e-6, "(L·Lᵀ)[{i}][{j}]");
            }
        }
    }

    #[test]
    fn all_schemes_agree_with_golden() {
        for scheme in [
            Scheme::Base,
            Scheme::lazy_default(),
            Scheme::lazy_parity_default(),
            Scheme::Eager,
            Scheme::Wal,
        ] {
            let r = run(&cfg(), CholeskyParams::test_small(), scheme);
            assert_eq!(r.outcome, Outcome::Completed, "{scheme}");
            assert!(r.verified, "{scheme}");
        }
    }

    /// Rung 1 is structurally impossible here — every line of `l`
    /// interleaves eight disjoint single-column regions, so no parity line
    /// fully owns it. The ladder must record the failed attempt and
    /// escalate honestly into the quarantine rebuild.
    #[test]
    fn parity_poison_escalates_to_quarantine() {
        let params = CholeskyParams::test_small();
        let mut machine = Machine::new(cfg().with_cores(params.threads));
        let k = Cholesky::setup(&mut machine, params, Scheme::lazy_parity_default()).unwrap();
        assert_eq!(machine.run(k.plans()), Outcome::Completed);
        machine.drain_caches();
        machine.mem_mut().poison_line(k.repairable_lines()[0]);
        let rstats = k.recover(&mut machine);
        machine.drain_caches();
        assert!(k.verify(&machine), "quarantine rebuild must verify");
        assert_eq!(rstats.repaired_lines, 0);
        assert_eq!(rstats.repair_failures, 1);
        assert_eq!(rstats.escalations, 1);
        assert_eq!(rstats.regions_quarantined, 1);
        assert!(rstats.recomputed_regions > 0);
    }

    #[test]
    fn lazy_recovery_roundtrip() {
        for ops in [100u64, 400, 1_200] {
            let params = CholeskyParams::test_small();
            let mut machine = Machine::new(cfg().with_cores(params.threads));
            let chol = Cholesky::setup(&mut machine, params, Scheme::lazy_default()).unwrap();
            machine.set_crash_trigger(CrashTrigger::AfterMemOps(ops));
            assert_eq!(machine.run(chol.plans()), Outcome::Crashed, "at {ops}");
            machine.clear_crash_trigger();
            let rstats = chol.recover(&mut machine);
            machine.drain_caches();
            assert!(chol.verify(&machine), "crash at {ops} ops");
            assert!(rstats.regions_checked > 0);
        }
    }

    #[test]
    fn eager_and_wal_recovery_roundtrip() {
        for scheme in [Scheme::Eager, Scheme::Wal] {
            let params = CholeskyParams::test_small();
            let mut machine = Machine::new(cfg().with_cores(params.threads));
            let chol = Cholesky::setup(&mut machine, params, scheme).unwrap();
            machine.set_crash_trigger(CrashTrigger::AfterMemOps(600));
            assert_eq!(machine.run(chol.plans()), Outcome::Crashed, "{scheme}");
            machine.clear_crash_trigger();
            chol.recover(&mut machine);
            machine.drain_caches();
            assert!(chol.verify(&machine), "{scheme}");
        }
    }

    #[test]
    fn region_rows_include_diagonal_once() {
        let p = CholeskyParams::test_small(); // bsize 8
        assert_eq!(Cholesky::region_rows(&p, 0, 0), 0..8);
        assert_eq!(Cholesky::region_rows(&p, 5, 0), 5..8);
        assert_eq!(Cholesky::region_rows(&p, 5, 1), 8..16);
    }
}
