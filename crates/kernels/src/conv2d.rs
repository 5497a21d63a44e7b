//! 2-dimensional convolution (`2D-conv` in the paper's Table V): a 3×3
//! stencil over an `n × n` image with a one-pixel halo.
//!
//! Each output row-block is an LP region. Regions are *idempotent* (Section
//! III-E: output depends only on the read-only input), so recovery is the
//! trivial case — mismatching blocks are simply recomputed, in any order.

use crate::common::{
    random_values, round_robin_blocks, EagerOnlySink, KernelRun, PMatrix, SchemeSink, StoreSink,
    IDX_OPS, MUL_ADD_OPS,
};
use crate::ladder::{recover_regions, with_recovery, Region, RegionRecovery, Scan, Tally};
use lp_core::recovery::{RecoveryStats, Slot};
use lp_core::scheme::{Scheme, SchemeHandles};
use lp_sim::addr::LineAddr;
use lp_sim::config::MachineConfig;
use lp_sim::core::CoreCtx;
use lp_sim::machine::{Machine, Outcome, ThreadPlan};

/// Problem and windowing parameters for one convolution run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conv2dParams {
    /// Output image dimension (`n × n`); the input is padded to
    /// `(n+2) × (n+2)`. Must be a multiple of `bsize`.
    pub n: usize,
    /// Rows per region.
    pub bsize: usize,
    /// Worker threads.
    pub threads: usize,
    /// Number of row-blocks to simulate (the paper windows 2D-conv to ~4%
    /// of its runtime); capped at `n / bsize`.
    pub block_window: usize,
    /// Input seed.
    pub seed: u64,
}

impl Conv2dParams {
    /// Smallest meaningful parameters, sized for exhaustive crash-state
    /// model checking (one full replay per crash point).
    pub fn micro() -> Self {
        Conv2dParams {
            n: 16,
            bsize: 8,
            threads: 2,
            block_window: 1,
            seed: 7,
        }
    }

    /// Parameters sized for fast unit tests.
    pub fn test_small() -> Self {
        Conv2dParams {
            n: 32,
            bsize: 8,
            threads: 2,
            block_window: 4,
            seed: 7,
        }
    }

    /// Bench-scale parameters (256² image, 8 threads).
    pub fn bench_default() -> Self {
        Conv2dParams {
            n: 256,
            bsize: 16,
            threads: 8,
            block_window: 8,
            seed: 7,
        }
    }

    /// Paper-scale parameters: 1024² image, a ~4%-of-runtime window.
    pub fn paper_default() -> Self {
        Conv2dParams {
            n: 1024,
            bsize: 16,
            threads: 8,
            block_window: 16,
            seed: 7,
        }
    }

    /// Total row-blocks in the image.
    pub fn nblocks(&self) -> usize {
        self.n / self.bsize
    }

    /// Effective window (capped).
    pub fn window(&self) -> usize {
        self.block_window.min(self.nblocks())
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
        if self.threads == 0 || self.block_window == 0 {
            return Err("threads and block_window must be >= 1".into());
        }
        Ok(())
    }
}

/// The 3×3 stencil derived deterministically from a seed.
pub fn stencil(seed: u64) -> [f64; 9] {
    let v = random_values(seed ^ 0xc0ffee, 9);
    let mut w = [0.0; 9];
    w.copy_from_slice(&v);
    w
}

/// A configured convolution workload.
#[derive(Debug, Clone)]
pub struct Conv2d {
    /// Parameters.
    pub params: Conv2dParams,
    /// The active scheme.
    pub scheme: Scheme,
    /// Padded input image (read-only during the run).
    pub input: PMatrix,
    /// Output image.
    pub output: PMatrix,
    /// Scheme support structures.
    pub handles: SchemeHandles,
    weights: [f64; 9],
}

impl Conv2d {
    /// Allocate and initialize on `machine`.
    ///
    /// # Errors
    ///
    /// Returns allocation or validation failures as strings.
    pub fn setup(
        machine: &mut Machine,
        params: Conv2dParams,
        scheme: Scheme,
    ) -> Result<Self, String> {
        params.validate()?;
        let n = params.n;
        let input = PMatrix::alloc(machine, n + 2, n + 2).map_err(|e| e.to_string())?;
        let output = PMatrix::alloc(machine, n, n).map_err(|e| e.to_string())?;
        input.fill(machine, &random_values(params.seed, (n + 2) * (n + 2)));
        output.fill(machine, &vec![0.0; n * n]);
        let handles = SchemeHandles::alloc(
            machine,
            scheme,
            params.nblocks(),
            params.threads,
            params.bsize * n + 8,
        )
        .map_err(|e| e.to_string())?;
        Ok(Conv2d {
            params,
            scheme,
            input,
            output,
            handles,
            weights: stencil(params.seed),
        })
    }

    /// Round-robin block ownership.
    pub fn ownership(&self) -> Vec<Vec<usize>> {
        round_robin_blocks(self.params.window(), self.params.threads)
    }

    /// One region: convolve rows `[block·bsize, (block+1)·bsize)`.
    fn region_body<S: StoreSink>(&self, ctx: &mut CoreCtx<'_>, block: usize, sink: &mut S) {
        let (n, bsize) = (self.params.n, self.params.bsize);
        let w = self.weights;
        for i in block * bsize..(block + 1) * bsize {
            for j in 0..n {
                let mut sum = 0.0;
                for di in 0..3 {
                    for dj in 0..3 {
                        let v = self.input.load(ctx, i + di, j + dj);
                        sum += v * w[di * 3 + dj];
                        ctx.compute(MUL_ADD_OPS + IDX_OPS);
                    }
                }
                sink.store(ctx, self.output.array(), self.output.idx(i, j), sum);
                ctx.compute(IDX_OPS);
            }
        }
    }

    /// Per-thread schedules: one region per owned block.
    /// Persistent address ranges for the `lp-check` sanitizer.
    pub fn tracked_ranges(&self) -> Vec<lp_core::track::TrackedRange> {
        use lp_core::track::{RangeRole, TrackedRange};
        let mut out = vec![
            TrackedRange::of("conv2d.out", self.output.array(), RangeRole::Protected),
            TrackedRange::of("conv2d.in", self.input.array(), RangeRole::Scratch),
        ];
        out.extend(self.handles.ranges());
        out
    }

    /// Build the scheduled per-core work plans for one run.
    pub fn plans(&self) -> Vec<ThreadPlan<'static>> {
        let mut plans: Vec<ThreadPlan<'static>> = (0..self.params.threads)
            .map(|_| ThreadPlan::new())
            .collect();
        for (t, owned) in self.ownership().into_iter().enumerate() {
            let tp = self.handles.thread(t);
            for block in owned {
                let this = self.clone();
                plans[t].region(move |ctx| {
                    let mut rs = tp.begin(ctx, block);
                    let mut sink = SchemeSink { tp, rs: &mut rs };
                    this.region_body(ctx, block, &mut sink);
                    tp.commit(ctx, rs);
                });
            }
        }
        plans
    }

    /// Host golden for the simulated window.
    pub fn golden(params: &Conv2dParams) -> Vec<f64> {
        let n = params.n;
        let input = random_values(params.seed, (n + 2) * (n + 2));
        let w = stencil(params.seed);
        let mut out = vec![0.0f64; n * n];
        for i in 0..params.window() * params.bsize {
            for j in 0..n {
                let mut sum = 0.0;
                for di in 0..3 {
                    for dj in 0..3 {
                        sum += input[(i + di) * (n + 2) + (j + dj)] * w[di * 3 + dj];
                    }
                }
                out[i * n + j] = sum;
            }
        }
        out
    }

    /// Whether the durable output matches the golden reference.
    pub fn verify(&self, machine: &Machine) -> bool {
        crate::common::values_match(&self.output.peek_all(machine), &Self::golden(&self.params))
    }

    /// Lines of the protected output that recovery provably rebuilds —
    /// the fault campaign's media-fault target set. Only rows inside the
    /// simulated window are ever recomputed, so only their data-span
    /// lines are repairable.
    pub fn repairable_lines(&self) -> Vec<LineAddr> {
        let n = self.params.n;
        let rows = self.params.window() * self.params.bsize;
        let mut lines: Vec<LineAddr> = (0..rows)
            .flat_map(|i| self.output.array().lines_of_range(self.output.idx(i, 0), n))
            .collect();
        lines.sort_unstable();
        lines.dedup();
        lines
    }

    /// Lines a silent bit flip may target under Lazy schemes: same set as
    /// [`Self::repairable_lines`]. Lazy recovery audits every window
    /// block, so a flip in any block either fails its checksum or lands
    /// in a block that is recomputed anyway.
    pub fn flip_lines(&self) -> Vec<LineAddr> {
        self.repairable_lines()
    }

    /// Whether any line of `block`'s output rows is poisoned.
    fn block_poisoned(&self, poisoned: &[LineAddr], block: usize) -> bool {
        let (n, bsize) = (self.params.n, self.params.bsize);
        (block * bsize..(block + 1) * bsize).any(|i| {
            lp_core::recovery::range_poisoned(
                poisoned,
                self.output.array(),
                self.output.idx(i, 0),
                n,
            )
        })
    }

    /// Post-crash recovery (idempotent regions: recompute what mismatches).
    pub fn recover(&self, machine: &mut Machine) -> RecoveryStats {
        match self.scheme {
            Scheme::Base => RecoveryStats::default(),
            Scheme::Lazy(_) | Scheme::LazyEagerCk(_) | Scheme::LazyParity(_) => {
                recover_regions(self, machine)
            }
            Scheme::Eager | Scheme::Wal => self.recover_marker_based(machine),
        }
    }

    /// EP/WAL recovery: undo any open transaction, then re-run every block
    /// past each thread's marker (idempotent, so partial work is harmless).
    fn recover_marker_based(&self, machine: &mut Machine) -> RecoveryStats {
        let owners = self.ownership();
        with_recovery(machine, |ctx, poisoned, stats| {
            for (t, owned) in owners.iter().enumerate() {
                let tp = self.handles.thread(t);
                tp.wal_recover(ctx);
                // Read the marker only after the rollback: a WAL commit
                // logs the marker's undo pair, so undoing an interrupted
                // transaction rewinds the marker with it (no-op under EP).
                let marker = tp.marker(ctx);
                let completed = if marker == 0 {
                    0
                } else {
                    owned
                        .iter()
                        .position(|&b| b == (marker - 1) as usize)
                        .map_or(0, |p| p + 1)
                };
                stats.regions_checked += owned.len() as u64;
                // Committed blocks hit by a media fault are recomputed too:
                // the marker vouches for progress, not for the medium.
                // Blocks are idempotent, so a plain eager re-run (no marker
                // motion) is safe to interrupt and repeat at any crash
                // point.
                for &block in &owned[..completed] {
                    if self.block_poisoned(poisoned, block) {
                        stats.regions_quarantined += 1;
                        let mut sink = EagerOnlySink::default();
                        self.region_body(ctx, block, &mut sink);
                        sink.commit(ctx);
                        stats.recomputed_regions += 1;
                    }
                }
                for &block in &owned[completed..] {
                    let mut rs = tp.begin(ctx, block);
                    let mut sink = SchemeSink { tp, rs: &mut rs };
                    self.region_body(ctx, block, &mut sink);
                    tp.commit(ctx, rs);
                    stats.recomputed_regions += 1;
                }
            }
        })
    }
}

/// The ladder facts: every window block is a group of one region.
/// Regions are idempotent, so recomputing one needs no reset, and a
/// poisoned block is rebuilt without trusting its checksum.
impl RegionRecovery for Conv2d {
    const SCAN: Scan = Scan::Every;
    const TALLY: Tally = Tally::UnitChecked;

    fn handles(&self) -> &SchemeHandles {
        &self.handles
    }

    fn groups(&self) -> usize {
        self.params.window()
    }

    fn steps(&self, _block: usize) -> usize {
        1
    }

    fn region_key(&self, r: Region) -> usize {
        r.group
    }

    fn region_slots(&self, r: Region) -> impl Iterator<Item = Slot<f64>> + '_ {
        let (n, bsize) = (self.params.n, self.params.bsize);
        let out = self.output;
        (r.group * bsize..(r.group + 1) * bsize)
            .flat_map(move |i| (0..n).map(move |j| (out.array(), out.idx(i, j))))
    }

    fn group_poisoned(&self, poisoned: &[LineAddr], block: usize, _step: Option<usize>) -> bool {
        self.block_poisoned(poisoned, block)
    }

    fn replay_region<S: StoreSink>(&self, ctx: &mut CoreCtx<'_>, r: Region, sink: &mut S) {
        self.region_body(ctx, r.group, sink);
    }
}

/// Convenience driver mirroring [`crate::tmm::run`].
pub fn run(cfg: &MachineConfig, params: Conv2dParams, scheme: Scheme) -> KernelRun {
    let cfg = cfg.clone().with_cores(params.threads);
    let mut machine = Machine::new(cfg);
    let conv = Conv2d::setup(&mut machine, params, scheme).expect("conv2d setup");
    let outcome = machine.run(conv.plans());
    let stats = machine.stats();
    machine.drain_caches();
    let verified = outcome == Outcome::Completed && conv.verify(&machine);
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
    fn all_schemes_agree_with_golden() {
        for scheme in [
            Scheme::Base,
            Scheme::lazy_default(),
            Scheme::lazy_parity_default(),
            Scheme::Eager,
            Scheme::Wal,
        ] {
            let r = run(&cfg(), Conv2dParams::test_small(), scheme);
            assert_eq!(r.outcome, Outcome::Completed, "{scheme}");
            assert!(r.verified, "{scheme}");
        }
    }

    /// The headline rung-1 guarantee: on a fully committed image a single
    /// poisoned line is reconstructed from parity alone — no region is
    /// recomputed, nothing is quarantined, nothing escalates.
    #[test]
    fn parity_repairs_single_poison_without_recompute() {
        let params = Conv2dParams::test_small();
        let mut machine = Machine::new(cfg().with_cores(params.threads));
        let k = Conv2d::setup(&mut machine, params, Scheme::lazy_parity_default()).unwrap();
        assert_eq!(machine.run(k.plans()), Outcome::Completed);
        machine.drain_caches();
        machine.mem_mut().poison_line(k.repairable_lines()[0]);
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
    fn lp_overhead_is_small() {
        let base = run(&cfg(), Conv2dParams::test_small(), Scheme::Base);
        let lp = run(&cfg(), Conv2dParams::test_small(), Scheme::lazy_default());
        let ep = run(&cfg(), Conv2dParams::test_small(), Scheme::Eager);
        assert!(lp.cycles() as f64 / (base.cycles() as f64) < 1.25);
        assert!(ep.cycles() > lp.cycles());
    }

    #[test]
    fn lazy_recovery_roundtrip() {
        for ops in [100u64, 3_000, 10_000] {
            let params = Conv2dParams::test_small();
            let mut machine = Machine::new(cfg().with_cores(params.threads));
            let conv = Conv2d::setup(&mut machine, params, Scheme::lazy_default()).unwrap();
            machine.set_crash_trigger(CrashTrigger::AfterMemOps(ops));
            assert_eq!(machine.run(conv.plans()), Outcome::Crashed);
            machine.clear_crash_trigger();
            let rstats = conv.recover(&mut machine);
            machine.drain_caches();
            assert!(conv.verify(&machine), "crash at {ops} ops");
            assert!(rstats.regions_checked > 0);
        }
    }

    #[test]
    fn eager_and_wal_recovery_roundtrip() {
        for scheme in [Scheme::Eager, Scheme::Wal] {
            let params = Conv2dParams::test_small();
            let mut machine = Machine::new(cfg().with_cores(params.threads));
            let conv = Conv2d::setup(&mut machine, params, scheme).unwrap();
            machine.set_crash_trigger(CrashTrigger::AfterMemOps(4_000));
            assert_eq!(machine.run(conv.plans()), Outcome::Crashed, "{scheme}");
            machine.clear_crash_trigger();
            conv.recover(&mut machine);
            machine.drain_caches();
            assert!(conv.verify(&machine), "{scheme}");
        }
    }

    #[test]
    fn stencil_is_deterministic() {
        assert_eq!(stencil(7), stencil(7));
        assert_ne!(stencil(7), stencil(8));
    }

    #[test]
    fn windowing_limits_computed_rows() {
        let mut params = Conv2dParams::test_small();
        params.block_window = 1;
        let r = run(&cfg(), params, Scheme::Base);
        assert!(r.verified);
        // Golden for a 1-block window has zeros past the first block.
        let g = Conv2d::golden(&params);
        assert!(g[params.bsize * params.n..].iter().all(|&v| v == 0.0));
        assert!(g[..params.bsize * params.n].iter().any(|&v| v != 0.0));
    }
}
