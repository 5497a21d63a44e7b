//! Gaussian elimination (`Gauss` in the paper's Table V; simulated over a
//! 4-pivot window like the paper's 4-outer-iteration window).
//!
//! LU-style elimination into a working matrix `w` (initialized from the
//! durable, read-only input `a`): pivot step `p` stores the multiplier
//! `w[r][p] = w[r][p] / w[p][p]` and updates `w[r][j] -= factor · w[p][j]`
//! for `j > p`, for every row `r > p`.
//!
//! Parallelization and regions: rows are partitioned into blocks owned
//! round-robin by threads; region `(p, block)` updates the block's rows for
//! pivot `p`. A barrier separates pivot steps (step `p+1` reads pivot row
//! `p+1`, finalized during step `p`).
//!
//! Recovery replays from the preserved input: because pivot rows `0..window`
//! all live in block 0 (enforced: `window ≤ bsize`), block 0 is recovered
//! first, then every other block finds its newest consistent pivot step and
//! replays only the later steps — or restores its rows from `a` and replays
//! everything if nothing consistent survived.

use crate::common::{
    random_values, round_robin_blocks, EagerOnlySink, KernelRun, PMatrix, SchemeSink, StoreSink,
    IDX_OPS, MUL_ADD_OPS,
};
use crate::ladder::{recover_regions, with_recovery, Region, RegionRecovery, Scan};
use lp_core::recovery::{RecoveryStats, Slot};
use lp_core::scheme::{Scheme, SchemeHandles};
use lp_sim::addr::LineAddr;
use lp_sim::config::MachineConfig;
use lp_sim::core::CoreCtx;
use lp_sim::machine::{Machine, Outcome, ThreadPlan};

/// Problem and windowing parameters for one elimination run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaussParams {
    /// Matrix dimension; must be a multiple of `bsize`.
    pub n: usize,
    /// Rows per block.
    pub bsize: usize,
    /// Worker threads.
    pub threads: usize,
    /// Pivot steps to simulate (the paper windows Gauss to 4 columns);
    /// must satisfy `pivot_window ≤ bsize` so all pivot rows are in
    /// block 0.
    pub pivot_window: usize,
    /// Input seed.
    pub seed: u64,
}

impl GaussParams {
    /// Smallest meaningful parameters, sized for exhaustive crash-state
    /// model checking (one full replay per crash point).
    pub fn micro() -> Self {
        GaussParams {
            n: 16,
            bsize: 8,
            threads: 2,
            pivot_window: 2,
            seed: 11,
        }
    }

    /// Parameters sized for fast unit tests.
    pub fn test_small() -> Self {
        GaussParams {
            n: 32,
            bsize: 8,
            threads: 2,
            pivot_window: 4,
            seed: 11,
        }
    }

    /// Bench-scale parameters (512² matrix, the paper's 4-pivot window).
    pub fn bench_default() -> Self {
        GaussParams {
            n: 512,
            bsize: 16,
            threads: 8,
            pivot_window: 4,
            seed: 11,
        }
    }

    /// Paper-scale parameters: the paper uses a 4096² matrix with a
    /// 4-pivot window; we use 2048² to keep the harness interactive (the
    /// per-pivot behaviour is size-independent at this scale).
    pub fn paper_default() -> Self {
        GaussParams {
            n: 2048,
            bsize: 16,
            threads: 8,
            pivot_window: 4,
            seed: 11,
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
        if self.pivot_window == 0 || self.pivot_window > self.bsize {
            return Err(format!(
                "pivot_window={} must be in 1..=bsize={}",
                self.pivot_window, self.bsize
            ));
        }
        Ok(())
    }
}

/// Deterministic diagonally-dominant input (elimination without pivoting
/// stays well conditioned).
pub fn gauss_input(seed: u64, n: usize) -> Vec<f64> {
    let mut a = random_values(seed, n * n);
    for i in 0..n {
        a[i * n + i] += n as f64;
    }
    a
}

/// A configured elimination workload.
#[derive(Debug, Clone)]
pub struct Gauss {
    /// Parameters.
    pub params: GaussParams,
    /// The active scheme.
    pub scheme: Scheme,
    /// Original input (read-only; recovery replays from it).
    pub a: PMatrix,
    /// Working matrix.
    pub w: PMatrix,
    /// Scheme support structures.
    pub handles: SchemeHandles,
}

impl Gauss {
    /// Allocate and initialize on `machine`.
    ///
    /// # Errors
    ///
    /// Returns allocation or validation failures as strings.
    pub fn setup(
        machine: &mut Machine,
        params: GaussParams,
        scheme: Scheme,
    ) -> Result<Self, String> {
        params.validate()?;
        let n = params.n;
        let a = PMatrix::alloc(machine, n, n).map_err(|e| e.to_string())?;
        let w = PMatrix::alloc(machine, n, n).map_err(|e| e.to_string())?;
        let input = gauss_input(params.seed, n);
        a.fill(machine, &input);
        w.fill(machine, &input);
        let handles = SchemeHandles::alloc(
            machine,
            scheme,
            params.pivot_window * params.nblocks(),
            params.threads,
            params.bsize * n + 8,
        )
        .map_err(|e| e.to_string())?;
        Ok(Gauss {
            params,
            scheme,
            a,
            w,
            handles,
        })
    }

    /// Checksum-table key of region `(p, block)`.
    pub fn key(&self, p: usize, block: usize) -> usize {
        p * self.params.nblocks() + block
    }

    /// Rows of `block` that pivot step `p` updates (rows greater than `p`).
    pub fn region_rows(params: &GaussParams, p: usize, block: usize) -> std::ops::Range<usize> {
        let lo = (block * params.bsize).max(p + 1);
        let hi = (block + 1) * params.bsize;
        lo..hi.max(lo)
    }

    /// Round-robin block ownership.
    pub fn ownership(&self) -> Vec<Vec<usize>> {
        round_robin_blocks(self.params.nblocks(), self.params.threads)
    }

    /// One region: eliminate column `p` from this block's rows.
    fn region_body<S: StoreSink>(
        &self,
        ctx: &mut CoreCtx<'_>,
        p: usize,
        block: usize,
        sink: &mut S,
    ) {
        let n = self.params.n;
        let pivot = self.w.load(ctx, p, p);
        for r in Self::region_rows(&self.params, p, block) {
            let factor = self.w.load(ctx, r, p) / pivot;
            ctx.compute(MUL_ADD_OPS);
            sink.store(ctx, self.w.array(), self.w.idx(r, p), factor);
            for j in p + 1..n {
                let wrj = self.w.load(ctx, r, j);
                let wpj = self.w.load(ctx, p, j);
                sink.store(ctx, self.w.array(), self.w.idx(r, j), wrj - factor * wpj);
                ctx.compute(MUL_ADD_OPS + IDX_OPS);
            }
        }
    }

    /// Per-thread schedules: for each pivot, each thread runs its non-empty
    /// block regions, then all threads barrier before the next pivot.
    /// Persistent address ranges for the `lp-check` sanitizer.
    pub fn tracked_ranges(&self) -> Vec<lp_core::track::TrackedRange> {
        use lp_core::track::{RangeRole, TrackedRange};
        let mut out = vec![
            TrackedRange::of("gauss.w", self.w.array(), RangeRole::Protected),
            TrackedRange::of("gauss.a", self.a.array(), RangeRole::Scratch),
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
        for p in 0..self.params.pivot_window {
            for (t, owned) in owners.iter().enumerate() {
                let tp = self.handles.thread(t);
                for &block in owned {
                    if Self::region_rows(&self.params, p, block).is_empty() {
                        continue;
                    }
                    let this = self.clone();
                    plans[t].region(move |ctx| {
                        let key = this.key(p, block);
                        let mut rs = tp.begin(ctx, key);
                        let mut sink = SchemeSink { tp, rs: &mut rs };
                        this.region_body(ctx, p, block, &mut sink);
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
    pub fn golden(params: &GaussParams) -> Vec<f64> {
        let n = params.n;
        let mut w = gauss_input(params.seed, n);
        for p in 0..params.pivot_window {
            let pivot = w[p * n + p];
            for r in p + 1..n {
                let factor = w[r * n + p] / pivot;
                w[r * n + p] = factor;
                for j in p + 1..n {
                    w[r * n + j] -= factor * w[p * n + j];
                }
            }
        }
        w
    }

    /// Whether the durable working matrix matches the golden reference.
    pub fn verify(&self, machine: &Machine) -> bool {
        crate::common::values_match(&self.w.peek_all(machine), &Self::golden(&self.params))
    }

    /// Lines of `w` that recovery provably rebuilds — the fault campaign's
    /// poison target set. Quarantine restores whole blocks from the
    /// preserved input, so every data-span line (pivot row 0 included) is
    /// repairable.
    pub fn repairable_lines(&self) -> Vec<LineAddr> {
        let n = self.params.n;
        let mut lines: Vec<LineAddr> = (0..n)
            .flat_map(|r| self.w.array().lines_of_range(self.w.idx(r, 0), n))
            .collect();
        lines.sort_unstable();
        lines.dedup();
        lines
    }

    /// Lines of `w` where a *silent* bit flip is provably detected — the
    /// fault campaign's flip target set. Region `(p, block)` checksums
    /// cover rows `> p`, columns `≥ p`, and only the newest committed
    /// region per block matches current data (older checksums are stale
    /// once a later pivot rewrites their columns). Whatever that newest
    /// region is (`p* ≤ window−1`), cells with row `≥ window` and column
    /// `≥ window−1` are always inside its coverage — so only lines fully
    /// inside that region are fair targets. Pivot rows (`row < window`)
    /// and multiplier columns below `window−1` are uncovered by any
    /// current checksum; flips there are undetectable in principle.
    pub fn flip_lines(&self) -> Vec<LineAddr> {
        let n = self.params.n;
        let window = self.params.pivot_window;
        let elems_per_line = lp_sim::addr::LINE_BYTES / 8;
        debug_assert!(n.is_multiple_of(elems_per_line));
        // Rows are line-aligned (stride is a multiple of a line), so the
        // first fully-covered line of each row starts at the first
        // line-aligned column at or above window − 1.
        let first_col = (window - 1).div_ceil(elems_per_line) * elems_per_line;
        let mut lines = Vec::new();
        for r in window..n {
            for jb in (first_col..n).step_by(elems_per_line) {
                lines.extend(
                    self.w
                        .array()
                        .lines_of_range(self.w.idx(r, jb), elems_per_line),
                );
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
            lp_core::recovery::range_poisoned(poisoned, self.w.array(), self.w.idx(r, 0), n)
        })
    }

    /// Restore a block's rows from the original input, eagerly.
    fn restore_block_from_input(&self, ctx: &mut CoreCtx<'_>, block: usize) {
        let (n, bsize) = (self.params.n, self.params.bsize);
        for r in block * bsize..(block + 1) * bsize {
            for j in 0..n {
                let v = self.a.load(ctx, r, j);
                self.w.store(ctx, r, j, v);
            }
        }
        self.w.flush_rows(ctx, block * bsize, bsize);
        ctx.sfence();
    }

    /// Post-crash recovery, dispatched by scheme. Lazy schemes scan each
    /// block's pivot checksums newest-first and replay the later pivots
    /// (or everything, from the input); block 0, which holds every pivot
    /// row of the window, recovers first.
    pub fn recover(&self, machine: &mut Machine) -> RecoveryStats {
        match self.scheme {
            Scheme::Base => RecoveryStats::default(),
            Scheme::Lazy(_) | Scheme::LazyEagerCk(_) | Scheme::LazyParity(_) => {
                recover_regions(self, machine)
            }
            Scheme::Eager | Scheme::Wal => self.recover_marker_based(machine),
        }
    }

    /// EP/WAL recovery: undo open transactions; for each thread restore
    /// its blocks from the input and replay its whole schedule eagerly.
    /// (Simple and conservative: markers order regions per thread, but a
    /// partially-evicted in-flight region poisons replay state, so blocks
    /// are rebuilt from the preserved input.)
    fn recover_marker_based(&self, machine: &mut Machine) -> RecoveryStats {
        let owners = self.ownership();
        let window = self.params.pivot_window;
        with_recovery(machine, |ctx, poisoned, stats| {
            // The full rebuild below repairs media faults as a side effect;
            // count the quarantined blocks so campaigns see the detection.
            stats.regions_quarantined += (0..self.params.nblocks())
                .filter(|&b| self.block_poisoned(poisoned, b))
                .count() as u64;
            for t in 0..self.params.threads {
                let tp = self.handles.thread(t);
                if tp.wal_recover(ctx) > 0 {
                    stats.regions_inconsistent += 1;
                }
            }
            // Restore every block, then replay pivots in order (single
            // recovery thread, eager persistency).
            for block in 0..self.params.nblocks() {
                self.restore_block_from_input(ctx, block);
            }
            // One sink across the whole replay: successive pivots rewrite
            // overlapping block rows, so a single deduplicated commit at
            // the end flushes each touched line once (and fences once)
            // instead of per region. Nothing publishes progress during the
            // replay — a crash mid-recovery restarts from the preserved
            // input — so deferring durability to the end is safe.
            let mut sink = EagerOnlySink::default();
            for p in 0..window {
                for owned in &owners {
                    for &block in owned {
                        if Self::region_rows(&self.params, p, block).is_empty() {
                            continue;
                        }
                        stats.regions_checked += 1;
                        self.region_body(ctx, p, block, &mut sink);
                        stats.recomputed_regions += 1;
                    }
                }
            }
            sink.commit(ctx);
        })
    }
}

/// The ladder facts: a group is a row block, its steps the pivots, each
/// rewriting the block's trailing columns — newest-first. Block 0's last
/// pivot region is empty when the window spans the whole block; empty
/// regions only ever trail, so a block's steps are the non-empty prefix.
impl RegionRecovery for Gauss {
    const SCAN: Scan = Scan::NewestFirst;

    fn handles(&self) -> &SchemeHandles {
        &self.handles
    }

    fn groups(&self) -> usize {
        self.params.nblocks()
    }

    fn steps(&self, block: usize) -> usize {
        (0..self.params.pivot_window)
            .filter(|&p| !Self::region_rows(&self.params, p, block).is_empty())
            .count()
    }

    fn region_key(&self, r: Region) -> usize {
        self.key(r.step, r.group)
    }

    fn region_slots(&self, r: Region) -> impl Iterator<Item = Slot<f64>> + '_ {
        let (n, p) = (self.params.n, r.step);
        Self::region_rows(&self.params, p, r.group)
            .flat_map(move |row| (p..n).map(move |j| (self.w.array(), self.w.idx(row, j))))
    }

    /// Poison anywhere in the block's rows — pivot rows and multiplier
    /// columns no checksum of the current state covers included.
    fn group_poisoned(&self, poisoned: &[LineAddr], block: usize, _step: Option<usize>) -> bool {
        self.block_poisoned(poisoned, block)
    }

    fn restore_group(&self, ctx: &mut CoreCtx<'_>, block: usize, _quarantined: bool) {
        self.restore_block_from_input(ctx, block);
    }

    fn replay_region<S: StoreSink>(&self, ctx: &mut CoreCtx<'_>, r: Region, sink: &mut S) {
        self.region_body(ctx, r.step, r.group, sink);
    }
}

/// Convenience driver mirroring [`crate::tmm::run`].
pub fn run(cfg: &MachineConfig, params: GaussParams, scheme: Scheme) -> KernelRun {
    let cfg = cfg.clone().with_cores(params.threads);
    let mut machine = Machine::new(cfg);
    let gauss = Gauss::setup(&mut machine, params, scheme).expect("gauss setup");
    let outcome = machine.run(gauss.plans());
    let stats = machine.stats();
    machine.drain_caches();
    let verified = outcome == Outcome::Completed && gauss.verify(&machine);
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
    fn params_validation() {
        assert!(GaussParams::test_small().validate().is_ok());
        let mut p = GaussParams::test_small();
        p.pivot_window = p.bsize + 1;
        assert!(p.validate().is_err(), "window must fit in block 0");
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
            let r = run(&cfg(), GaussParams::test_small(), scheme);
            assert_eq!(r.outcome, Outcome::Completed, "{scheme}");
            assert!(r.verified, "{scheme}");
        }
    }

    /// The headline rung-1 guarantee: on a fully committed image a single
    /// poisoned line is reconstructed from parity alone — no region is
    /// recomputed, nothing is quarantined, nothing escalates.
    #[test]
    fn parity_repairs_single_poison_without_recompute() {
        let params = GaussParams::test_small();
        let mut machine = Machine::new(cfg().with_cores(params.threads));
        let k = Gauss::setup(&mut machine, params, Scheme::lazy_parity_default()).unwrap();
        assert_eq!(machine.run(k.plans()), Outcome::Completed);
        machine.drain_caches();
        machine.mem_mut().poison_line(k.flip_lines()[0]);
        let rstats = k.recover(&mut machine);
        machine.drain_caches();
        assert!(k.verify(&machine), "repaired image must verify");
        assert_eq!(rstats.repaired_lines, 1);
        assert_eq!(rstats.recomputed_regions, 0);
        assert_eq!(rstats.regions_quarantined, 0);
        assert_eq!(rstats.repair_failures, 0);
        assert_eq!(rstats.escalations, 0);
    }

    #[test]
    fn region_rows_skip_pivot_and_earlier() {
        let p = GaussParams::test_small(); // bsize 8
        assert_eq!(Gauss::region_rows(&p, 0, 0), 1..8);
        assert_eq!(Gauss::region_rows(&p, 3, 0), 4..8);
        assert_eq!(Gauss::region_rows(&p, 3, 1), 8..16);
        // A fully-consumed block yields an empty range.
        assert!(Gauss::region_rows(&p, 7, 0).is_empty());
    }

    #[test]
    fn lazy_recovery_roundtrip() {
        for ops in [200u64, 2_000, 5_000, 8_000] {
            let params = GaussParams::test_small();
            let mut machine = Machine::new(cfg().with_cores(params.threads));
            let g = Gauss::setup(&mut machine, params, Scheme::lazy_default()).unwrap();
            machine.set_crash_trigger(CrashTrigger::AfterMemOps(ops));
            assert_eq!(machine.run(g.plans()), Outcome::Crashed, "at {ops}");
            machine.clear_crash_trigger();
            let rstats = g.recover(&mut machine);
            machine.drain_caches();
            assert!(g.verify(&machine), "crash at {ops} ops");
            assert!(rstats.regions_checked > 0);
        }
    }

    #[test]
    fn eager_and_wal_recovery_roundtrip() {
        for scheme in [Scheme::Eager, Scheme::Wal] {
            for ops in [500u64, 10_000] {
                let params = GaussParams::test_small();
                let mut machine = Machine::new(cfg().with_cores(params.threads));
                let g = Gauss::setup(&mut machine, params, scheme).unwrap();
                machine.set_crash_trigger(CrashTrigger::AfterMemOps(ops));
                assert_eq!(
                    machine.run(g.plans()),
                    Outcome::Crashed,
                    "{scheme} at {ops}"
                );
                machine.clear_crash_trigger();
                g.recover(&mut machine);
                machine.drain_caches();
                assert!(g.verify(&machine), "{scheme} at {ops}");
            }
        }
    }

    #[test]
    fn golden_matches_independent_column_major_elimination() {
        // Same elimination computed with a different loop nest: factors
        // for the whole column first, then column-major updates.
        let params = GaussParams::test_small();
        let n = params.n;
        let w = Gauss::golden(&params);
        let mut w2 = gauss_input(params.seed, n);
        for p in 0..params.pivot_window {
            let pivot = w2[p * n + p];
            for r in p + 1..n {
                w2[r * n + p] /= pivot;
            }
            for j in p + 1..n {
                let wpj = w2[p * n + j];
                for r in p + 1..n {
                    let f = w2[r * n + p];
                    w2[r * n + j] -= f * wpj;
                }
            }
        }
        assert!(crate::common::max_abs_diff(&w, &w2) < 1e-9);
    }
}
