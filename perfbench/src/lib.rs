//! # lp-perfbench — the repository's end-to-end benchmark
//!
//! Four batch workloads drive the simulator stack from outside, through
//! the public APIs of `lp-kernels`, `lp-sim`, `lp-crashmc` and `lp-check`:
//!
//! - [`Workload::SimBench`]: the paper's own experiment, 5 kernels × 5
//!   schemes at `Scale::Bench` with no observer.
//! - [`Workload::CrashExhaustive`]: the exhaustive crash-state census
//!   (k = 4, clean ADR model, dedup on) over three kernels at
//!   `Scale::Micro`.
//! - [`Workload::FaultCampaign`]: the sampled torn/media/nested fault
//!   campaign over all five kernels at `Scale::Micro`.
//! - [`Workload::AuditBench`]: the `lp-check` sanitizer over 5 kernels × 6
//!   schemes at `Scale::Bench`.
//!
//! One *pass* runs a workload's whole cell set once. A run makes passes
//! for about `--seconds` and reports each host time as the mean over its
//! passes, scaled by a host-speed probe ([`speed`]); see `METRICS.md` for
//! what every metric means and which layer moves it.

pub mod prep;
pub mod speed;
pub mod trace;

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use lp_check::Checker;
use lp_core::checksum::ChecksumKind;
use lp_core::recovery::RecoveryStats;
use lp_core::scheme::Scheme;
use lp_crashmc::cases::CLEAN_SCHEMES;
use lp_crashmc::mc::{check_cases, Budget, BudgetMode, CheckCase, McReport, PreparedCase};
use lp_kernels::driver::{KernelId, Scale};
use lp_sim::config::MachineConfig;
use lp_sim::fault::FaultConfig;
use lp_sim::machine::{Machine, Outcome};
use lp_sim::stats::SimStats;

use crate::speed::Probe;
use crate::trace::{Span, Tracer};

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 5 kernels × [`SIM_SCHEMES`] at `Scale::Bench`, no observer.
    SimBench,
    /// Exhaustive census (k = 4, no faults, dedup on) over
    /// [`EXHAUSTIVE_KERNELS`] × `CLEAN_SCHEMES` at `Scale::Micro`.
    CrashExhaustive,
    /// Sampled census (48 points, torn + media + nested faults) over all
    /// kernels × `CLEAN_SCHEMES` at `Scale::Micro`.
    FaultCampaign,
    /// The sanitizer over 5 kernels × `lp_check::default_schemes()` at
    /// `Scale::Bench`.
    AuditBench,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] = [
        Workload::SimBench,
        Workload::CrashExhaustive,
        Workload::FaultCampaign,
        Workload::AuditBench,
    ];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SimBench => "sim-bench",
            Workload::CrashExhaustive => "crash-exhaustive",
            Workload::FaultCampaign => "fault-campaign",
            Workload::AuditBench => "audit-bench",
        }
    }

    /// Look a workload up by its `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The paper's scheme matrix for `sim-bench`.
pub const SIM_SCHEMES: [Scheme; 5] = [
    Scheme::Base,
    Scheme::Lazy(ChecksumKind::Modular),
    Scheme::LazyParity(ChecksumKind::Crc32),
    Scheme::Eager,
    Scheme::Wal,
];

/// Builds per case a crash-workload pass times for `setup_s`; the pass
/// counts the median.
pub const SETUP_ROUNDS: usize = 5;

/// Kernels of `crash-exhaustive`: the full five-kernel census takes
/// about 68 s on one thread, these three about 18 s.
pub const EXHAUSTIVE_KERNELS: [KernelId; 3] = [KernelId::Cholesky, KernelId::Conv2d, KernelId::Fft];

/// Short metric-name key of a scheme.
pub fn scheme_key(s: Scheme) -> &'static str {
    match s {
        Scheme::Base => "base",
        Scheme::Lazy(_) => "lp",
        Scheme::LazyParity(_) => "lp-parity",
        Scheme::LazyEagerCk(_) => "lp-eagerck",
        Scheme::Eager => "ep",
        Scheme::Wal => "wal",
    }
}

/// Short metric-name key of a kernel.
pub fn kernel_key(k: KernelId) -> &'static str {
    match k {
        KernelId::Tmm => "tmm",
        KernelId::Cholesky => "cholesky",
        KernelId::Conv2d => "conv2d",
        KernelId::Gauss => "gauss",
        KernelId::Fft => "fft",
    }
}

fn cell_tag(k: KernelId, s: Scheme) -> String {
    format!("{}/{}", kernel_key(k), scheme_key(s))
}

/// Machine configuration of the `Scale::Bench` workloads (the experiment
/// harness's: NVMM large enough for paper-scale inputs).
pub fn bench_config() -> MachineConfig {
    MachineConfig::default().with_nvmm_bytes(512 << 20)
}

/// Host seconds spent on one cell of a pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct CellTimes {
    /// Building the cell's inputs and machine (for a crash case, the
    /// median of [`SETUP_ROUNDS`] builds).
    pub setup_s: f64,
    /// The timed work: run, drain and verify, or `check_cases`.
    pub work_s: f64,
    /// Inside the simulator calls whose memops are counted:
    /// `Machine::run` (sim-bench, audit-bench) or `recover` (crash
    /// workloads).
    pub sim_s: f64,
}

/// What one pass over a workload's cells measured.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Host seconds of the whole pass, set-up included.
    pub pass_s: f64,
    /// Host times per cell, in the same order on every pass. A cell is a
    /// kernel × scheme; the crash workloads have one set-up cell per case
    /// and one work cell for the `check_cases` call.
    pub times: Vec<CellTimes>,
    /// Simulated loads + stores + flushes + fences in the calls timed by
    /// [`CellTimes::sim_s`].
    pub memops: u64,
    /// Outcomes judged by the timed work: crash states, or verified cells.
    pub judged: u64,
    /// Σ simulated `exec_cycles` over the cells (for the crash workloads,
    /// over each case's crash-free run).
    pub sim_cycles: u64,
    /// Σ simulated NVMM line writes over the same runs, before draining.
    pub nvmm_writes: u64,
    /// Operations attempted: cells, or crash states.
    pub attempted: u64,
    /// Unverified cells, corrupt or stuck states, sanitizer violations.
    pub failed: u64,
    /// One verdict line per cell or case (`McReport::summary_line` for
    /// the crash workloads); identical across passes of one seed.
    pub lines: Vec<String>,
    /// Exact per-layer counts, by metric name.
    pub counts: BTreeMap<String, f64>,
}

impl Pass {
    /// Σ over cells of one host time.
    pub fn total(&self, time: fn(&CellTimes) -> f64) -> f64 {
        self.times.iter().map(time).sum()
    }

    fn add(&mut self, name: impl Into<String>, v: f64) {
        *self.counts.entry(name.into()).or_default() += v;
    }
}

/// Simulated loads + stores + flushes + fences.
fn memops(s: &SimStats) -> u64 {
    let t = s.core_totals();
    t.loads + t.stores + t.flushes + t.fences
}

/// Run one pass of `workload` with inputs from `seed`, recording spans on
/// `tracer` (a disabled tracer records nothing) and sampling the host's
/// speed on `probe` between units of work. `threads` is the crash-engine
/// worker count; everything else runs on the calling thread.
pub fn run_pass(
    workload: Workload,
    seed: u64,
    threads: usize,
    tracer: &Tracer,
    probe: &Probe,
) -> Pass {
    let t0 = Instant::now();
    let mut pass = {
        let _s = tracer.span("bench.pass", || workload.name().to_string());
        match workload {
            Workload::SimBench => sim_pass(seed, tracer, probe),
            Workload::AuditBench => audit_pass(Scale::Bench, |_| seed, tracer, probe),
            Workload::CrashExhaustive => crash_pass(
                &EXHAUSTIVE_KERNELS,
                Budget {
                    mode: BudgetMode::Exhaustive,
                    k: 4,
                    faults: FaultConfig::none(),
                    dedup: true,
                },
                seed,
                threads,
                tracer,
                probe,
            ),
            Workload::FaultCampaign => crash_pass(
                &KernelId::ALL,
                Budget {
                    mode: BudgetMode::Sampled(48),
                    k: 4,
                    faults: FaultConfig::parse("torn,media,nested").expect("known fault classes"),
                    dedup: true,
                },
                seed,
                threads,
                tracer,
                probe,
            ),
        }
    };
    pass.pass_s = t0.elapsed().as_secs_f64();
    pass
}

/// `sim-bench`: every kernel × [`SIM_SCHEMES`] cell on a fresh machine,
/// statistics read after `Machine::run` and before `drain_caches`.
pub fn sim_pass(seed: u64, tracer: &Tracer, probe: &Probe) -> Pass {
    let cfg = bench_config();
    let mut p = Pass::default();
    // (kernel, scheme) -> (cycles, NVMM writes), for the model overheads.
    let mut cells: BTreeMap<(&str, &str), (u64, u64)> = BTreeMap::new();
    let (mut l1_miss, mut l1_acc, mut l2_miss, mut l2_acc) = (0u64, 0u64, 0u64, 0u64);
    for kernel in KernelId::ALL {
        for scheme in SIM_SCHEMES {
            probe.tick(tracer);
            let tag = || cell_tag(kernel, scheme);
            let _cell = tracer.span("bench.cell", tag);
            let t = Instant::now();
            let pk = {
                let _s = tracer.span("kernels.setup", tag);
                prep::prepare(kernel, Scale::Bench, seed, &cfg, scheme)
            };
            let setup_s = t.elapsed().as_secs_f64();
            let mut machine = pk.machine;
            let work = Instant::now();
            let outcome = {
                let _s = tracer.span("sim.run", tag);
                machine.run(pk.plans)
            };
            let sim_s = work.elapsed().as_secs_f64();
            let stats = machine.stats();
            {
                let _s = tracer.span("sim.drain", tag);
                machine.drain_caches();
            }
            let verified = {
                let _s = tracer.span("kernels.verify", tag);
                outcome == Outcome::Completed && (pk.verify)(&machine)
            };
            p.times.push(CellTimes {
                setup_s,
                work_s: work.elapsed().as_secs_f64(),
                sim_s,
            });
            p.attempted += 1;
            p.judged += 1;
            p.failed += u64::from(!verified);
            let ops = memops(&stats);
            let t = stats.core_totals();
            p.memops += ops;
            p.sim_cycles += stats.exec_cycles();
            p.nvmm_writes += stats.nvmm_writes();
            cells.insert(
                (kernel_key(kernel), scheme_key(scheme)),
                (stats.exec_cycles(), stats.nvmm_writes()),
            );
            p.add("kernels.verify_calls", 1.0);
            p.add("sim.memops", ops as f64);
            p.add(
                format!("sim.cycles.{}", scheme_key(scheme)),
                stats.exec_cycles() as f64,
            );
            p.add(
                format!("sim.nvmm_writes.{}", scheme_key(scheme)),
                stats.nvmm_writes() as f64,
            );
            p.add("sim.flushes", t.flushes as f64);
            p.add("sim.fences", t.fences as f64);
            p.add("sim.fence_stall_cycles", t.fence_stall_cycles as f64);
            l1_miss += t.l1_misses;
            l1_acc += t.l1_accesses();
            l2_miss += stats.mem.l2_misses;
            l2_acc += stats.mem.l2_accesses();
            p.lines.push(format!(
                "{:<10} {:<14} verified {:<5} cycles {:>12} nvmm_writes {:>9} memops {:>11}",
                kernel.name(),
                scheme.to_string(),
                verified,
                stats.exec_cycles(),
                stats.nvmm_writes(),
                ops
            ));
        }
    }
    p.add("sim.l1_miss_rate", l1_miss as f64 / l1_acc.max(1) as f64);
    p.add("sim.l2_miss_rate", l2_miss as f64 / l2_acc.max(1) as f64);
    // Model overheads against base: geometric mean over kernels of the
    // scheme's cycles (writes) divided by base's, as a percentage. A cell
    // too short to evict anything writes no line before the drain, so
    // kernels whose base cell wrote nothing have no write ratio.
    for scheme in &SIM_SCHEMES[1..] {
        let key = scheme_key(*scheme);
        let ratio = |pick: fn((u64, u64)) -> u64| {
            let logs: Vec<f64> = KernelId::ALL
                .iter()
                .map(|&k| {
                    let k = kernel_key(k);
                    (pick(cells[&(k, key)]), pick(cells[&(k, "base")]))
                })
                .filter(|&(_, base)| base > 0)
                .map(|(x, base)| (x as f64 / base as f64).ln())
                .collect();
            ((logs.iter().sum::<f64>() / logs.len().max(1) as f64).exp() - 1.0) * 100.0
        };
        p.add(format!("model.time_overhead.{key}"), ratio(|c| c.0));
        p.add(format!("model.write_overhead.{key}"), ratio(|c| c.1));
    }
    p
}

/// `audit-bench`: the calls `lp_check::check_kernel` makes, composed here
/// so set-up is timed apart from the observed run (verdicts are the same),
/// with each kernel's input seed from `seed`.
pub fn audit_pass(
    scale: Scale,
    seed: impl Fn(KernelId) -> u64,
    tracer: &Tracer,
    probe: &Probe,
) -> Pass {
    let cfg = bench_config();
    let mut p = Pass::default();
    for kernel in KernelId::ALL {
        for scheme in lp_check::default_schemes() {
            probe.tick(tracer);
            let tag = || cell_tag(kernel, scheme);
            let _cell = tracer.span("bench.cell", tag);
            let t = Instant::now();
            let (pk, checker) = {
                let _s = tracer.span("kernels.setup", tag);
                let mut pk = prep::prepare(kernel, scale, seed(kernel), &cfg, scheme);
                let checker = Arc::new(Mutex::new(Checker::new(
                    scheme,
                    pk.ranges.clone(),
                    format!("{kernel} under {scheme}"),
                )));
                pk.machine.set_observer(checker.clone());
                (pk, checker)
            };
            let setup_s = t.elapsed().as_secs_f64();
            let mut machine = pk.machine;
            let work = Instant::now();
            let outcome = {
                let _s = tracer.span("check.observed_run", tag);
                machine.run(pk.plans)
            };
            let sim_s = work.elapsed().as_secs_f64();
            let stats = machine.stats();
            {
                let _s = tracer.span("sim.drain", tag);
                machine.drain_caches();
                machine.clear_observer();
            }
            let verified = {
                let _s = tracer.span("kernels.verify", tag);
                outcome == Outcome::Completed && (pk.verify)(&machine)
            };
            let report = checker.lock().expect("checker lock").report();
            p.times.push(CellTimes {
                setup_s,
                work_s: work.elapsed().as_secs_f64(),
                sim_s,
            });
            let ops = memops(&stats);
            p.attempted += 1;
            p.judged += 1;
            p.failed += u64::from(!verified || !report.is_clean());
            p.memops += ops;
            p.sim_cycles += stats.exec_cycles();
            p.nvmm_writes += stats.nvmm_writes();
            p.add("kernels.verify_calls", 1.0);
            p.add("check.events", report.events_seen as f64);
            p.lines.push(audit_line(
                kernel,
                scheme,
                verified,
                report.violations.len(),
                report.events_seen,
            ));
        }
    }
    p
}

/// The verdict line of one audited cell.
pub fn audit_line(
    kernel: KernelId,
    scheme: Scheme,
    verified: bool,
    violations: usize,
    events: u64,
) -> String {
    format!(
        "{:<10} {:<22} verified {:<5} violations {violations:>3} events {events:>11}",
        kernel.name(),
        scheme.to_string(),
        verified,
    )
}

/// Host-side tallies of the crash engine's calls back into the kernels.
#[derive(Debug, Default)]
struct CrashTally {
    sim_s: f64,
    memops: u64,
    recovery: RecoveryStats,
    /// Host seconds the speed probe took inside the engine's calls.
    probe_s: f64,
}

/// A check case whose `build`/`recover`/`verify` closures are wrapped in
/// timers (and spans when `tracer` records), with inputs from `seed`.
/// After each `verify` the host's speed may be sampled on `probe`, the
/// engine's only call back that is not part of a crash state's recovery.
fn timed_case(
    kernel: KernelId,
    scheme: Scheme,
    seed: u64,
    tally: &Arc<Mutex<CrashTally>>,
    tracer: &Tracer,
    probe: &Probe,
) -> CheckCase {
    let cfg = lp_crashmc::cases::default_config();
    let (tally, tracer, probe) = (tally.clone(), tracer.clone(), probe.clone());
    let tag = cell_tag(kernel, scheme);
    CheckCase {
        name: format!("{kernel}/{scheme}"),
        build: Box::new(move || {
            let pk = {
                let _s = tracer.span("crashmc.build", || tag.clone());
                prep::prepare(kernel, Scale::Micro, seed, &cfg, scheme)
            };
            // As in `lp_crashmc::cases::kernel_case`: only Lazy schemes
            // have a checksum to notice a silent flip.
            let flip_lines = match scheme {
                Scheme::Lazy(_) | Scheme::LazyEagerCk(_) | Scheme::LazyParity(_) => pk.flip_lines,
                _ => Vec::new(),
            };
            let (rec_tally, rec_tracer, rec_tag) = (tally.clone(), tracer.clone(), tag.clone());
            let recover = pk.recover;
            let (ver_tracer, ver_tag) = (tracer.clone(), tag.clone());
            let (ver_tally, ver_probe) = (tally.clone(), probe.clone());
            let verify = pk.verify;
            PreparedCase {
                machine: pk.machine,
                plans: pk.plans,
                recover: Box::new(move |m: &mut Machine| {
                    let before = memops(&m.stats());
                    let t = Instant::now();
                    let stats = {
                        let _s = rec_tracer.span("recovery.recover", || rec_tag.clone());
                        recover(m)
                    };
                    let secs = t.elapsed().as_secs_f64();
                    let mut c = rec_tally.lock().expect("tally lock");
                    c.sim_s += secs;
                    c.memops += memops(&m.stats()) - before;
                    c.recovery.merge(&stats);
                    stats
                }),
                verify: Box::new(move |m: &Machine| {
                    let ok = {
                        let _s = ver_tracer.span("kernels.verify", || ver_tag.clone());
                        verify(m)
                    };
                    let spent = ver_probe.tick(&ver_tracer);
                    ver_tally.lock().expect("tally lock").probe_s += spent;
                    ok
                }),
                flip_lines,
                poison_lines: pk.poison_lines,
            }
        }),
    }
}

/// A crash workload: `kernels` × `CLEAN_SCHEMES` at `Scale::Micro` through
/// `check_cases` under `budget`, with `seed` feeding both the engine and
/// the kernels' inputs.
pub fn crash_pass(
    kernels: &[KernelId],
    budget: Budget,
    seed: u64,
    threads: usize,
    tracer: &Tracer,
    probe: &Probe,
) -> Pass {
    let pairs: Vec<(KernelId, Scheme)> = kernels
        .iter()
        .flat_map(|&k| CLEAN_SCHEMES.map(|s| (k, s)))
        .collect();
    let tally = Arc::new(Mutex::new(CrashTally::default()));
    let cases: Vec<CheckCase> = pairs
        .iter()
        .map(|&(k, s)| timed_case(k, s, seed, &tally, tracer, probe))
        .collect();
    // The engine builds each case twice, interleaved with its forward
    // runs; set-up is timed apart, as the median of a few builds per case.
    let cfg = lp_crashmc::cases::default_config();
    let mut builds = vec![Vec::with_capacity(SETUP_ROUNDS); cases.len()];
    for _ in 0..SETUP_ROUNDS {
        for (secs, &(kernel, scheme)) in builds.iter_mut().zip(&pairs) {
            probe.tick(tracer);
            let t = Instant::now();
            let _s = tracer.span("kernels.setup", || cell_tag(kernel, scheme));
            drop(prep::prepare(kernel, Scale::Micro, seed, &cfg, scheme));
            secs.push(t.elapsed().as_secs_f64());
        }
    }
    let mut times: Vec<CellTimes> = builds
        .iter_mut()
        .map(|secs| CellTimes {
            setup_s: median(secs),
            ..CellTimes::default()
        })
        .collect();
    // Simulated cost: each case's crash-free run, which (unlike recovery
    // over the explored states) does not depend on the seed.
    let (mut sim_cycles, mut nvmm_writes) = (0, 0);
    for &(kernel, scheme) in &pairs {
        probe.tick(tracer);
        let _s = tracer.span("bench.reference", || cell_tag(kernel, scheme));
        let pk = prep::prepare(kernel, Scale::Micro, seed, &cfg, scheme);
        let mut machine = pk.machine;
        machine.run(pk.plans);
        let stats = machine.stats();
        sim_cycles += stats.exec_cycles();
        nvmm_writes += stats.nvmm_writes();
    }
    // One `check_cases` call over every case, as the engine is meant to be
    // driven: all cases' snapshots are alive together, so peak memory is
    // a sum over cases and barely moves with the sampling seed.
    let t = Instant::now();
    let reports = {
        let _s = tracer.span("crashmc.check_cases", || format!("{} cases", cases.len()));
        check_cases(&cases, &budget, seed, threads)
    };
    let work_s = t.elapsed().as_secs_f64();
    drop(cases);
    let c = Arc::try_unwrap(tally)
        .expect("cases dropped")
        .into_inner()
        .expect("tally lock");
    times.push(CellTimes {
        setup_s: 0.0,
        work_s: work_s - c.probe_s,
        sim_s: c.sim_s,
    });
    let mut p = Pass {
        times,
        memops: c.memops,
        sim_cycles,
        nvmm_writes,
        ..Pass::default()
    };
    for r in &reports {
        tally_report(&mut p, r);
    }
    let r = &c.recovery;
    p.add("recovery.sim_cycles", r.cycles as f64);
    p.add("recovery.recomputed_regions", r.recomputed_regions as f64);
    p.add("recovery.repaired_lines", r.repaired_lines as f64);
    p.add("recovery.repair_failures", r.repair_failures as f64);
    p.add("recovery.escalations", r.escalations as f64);
    p.add("recovery.regions_quarantined", r.regions_quarantined as f64);
    p
}

fn tally_report(p: &mut Pass, r: &McReport) {
    p.attempted += r.states_checked;
    p.judged += r.states_checked;
    p.failed += r.corrupt + r.stuck;
    p.add("crashmc.states", r.states_checked as f64);
    p.add("crashmc.dedup_hits", r.dedup_hits as f64);
    p.add("crashmc.replay_saved_ops", r.replay_saved_ops as f64);
    p.add("faults.torn_states", r.tally.torn_states as f64);
    p.add("faults.poisons", r.tally.poisons as f64);
    p.add("faults.nested_crashes", r.tally.nested_crashes as f64);
    p.add("faults.retries", r.tally.retries as f64);
    p.lines.push(r.summary_line());
}

/// Median of `xs` (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics if `xs` is empty.
pub fn median(xs: &mut [f64]) -> f64 {
    assert!(!xs.is_empty(), "median of nothing");
    let v = xs;
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `q` in `[0, 1]` of `xs`.
fn percentile(xs: &mut [f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let rank = ((q * xs.len() as f64).ceil() as usize).clamp(1, xs.len());
    xs[rank - 1]
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// End-to-end metrics (name, unit), in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 7] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sim_memops_per_s", "1/s"),
    ("states_per_s", "1/s"),
    ("sim_cycles", "cycles"),
    ("nvmm_writes", "lines"),
];

/// Mean of `xs` (0 for none).
pub fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len().max(1) as f64
}

/// The mean over `passes` of each pass's total of one host time.
pub fn mean_total(passes: &[Pass], time: fn(&CellTimes) -> f64) -> f64 {
    mean(&passes.iter().map(|p| p.total(time)).collect::<Vec<_>>())
}

/// End-to-end metrics over untraced passes. Each host time is the mean
/// over the run's passes of that pass's total, times `speed_scale` (see
/// [`speed`]). The host switches between a fast and a slow speed up to 2×
/// apart, in stretches of seconds to minutes: the mean follows the share
/// of time spent in each, where a median or a per-cell minimum jumps
/// between them, and the probe takes out what the share moves from run to
/// run (`METRICS.md`). Simulated counts are those of the first pass.
///
/// # Panics
///
/// Panics if `passes` is empty.
pub fn end_to_end(passes: &[Pass], peak_rss_mb: f64, speed_scale: f64) -> Vec<Metric> {
    assert!(!passes.is_empty(), "no untraced pass");
    let typical = |time: fn(&CellTimes) -> f64| speed_scale * mean_total(passes, time);
    let wall_s = typical(|c| c.work_s);
    let values = [
        wall_s,
        typical(|c| c.setup_s),
        peak_rss_mb,
        passes[0].memops as f64 / typical(|c| c.sim_s),
        passes[0].judged as f64 / wall_s,
        passes[0].sim_cycles as f64,
        passes[0].nvmm_writes as f64,
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric {
            name: name.into(),
            value,
            unit,
        })
        .collect()
}

/// Every per-layer metric (name, unit), in `BENCHMARK.json` order.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = Vec::new();
    let mut push = |n: String, u: &'static str| v.push((n, u));
    push("kernels.setup_s".into(), "s");
    push("kernels.verify_s".into(), "s");
    push("kernels.verify_calls".into(), "count");
    push("sim.run_s".into(), "s");
    for s in SIM_SCHEMES {
        push(format!("sim.run_s.{}", scheme_key(s)), "s");
    }
    for k in KernelId::ALL {
        push(format!("sim.run_s.{}", kernel_key(k)), "s");
    }
    push("sim.drain_s".into(), "s");
    push("sim.memops".into(), "count");
    for s in SIM_SCHEMES {
        push(format!("sim.cycles.{}", scheme_key(s)), "cycles");
    }
    for s in SIM_SCHEMES {
        push(format!("sim.nvmm_writes.{}", scheme_key(s)), "lines");
    }
    push("sim.flushes".into(), "count");
    push("sim.fences".into(), "count");
    push("sim.fence_stall_cycles".into(), "cycles");
    push("sim.l1_miss_rate".into(), "ratio");
    push("sim.l2_miss_rate".into(), "ratio");
    for s in &SIM_SCHEMES[1..] {
        push(format!("model.time_overhead.{}", scheme_key(*s)), "%");
    }
    for s in &SIM_SCHEMES[1..] {
        push(format!("model.write_overhead.{}", scheme_key(*s)), "%");
    }
    push("crashmc.build_s".into(), "s");
    push("crashmc.builds".into(), "count");
    push("crashmc.engine_s".into(), "s");
    push("crashmc.states".into(), "count");
    push("crashmc.dedup_hits".into(), "count");
    push("crashmc.dedup_rate".into(), "ratio");
    push("crashmc.replay_saved_ops".into(), "count");
    push("recovery.s".into(), "s");
    push("recovery.calls".into(), "count");
    push("recovery.call_p50_us".into(), "us");
    push("recovery.call_p99_us".into(), "us");
    push("recovery.sim_cycles".into(), "cycles");
    push("recovery.recomputed_regions".into(), "count");
    push("recovery.repaired_lines".into(), "count");
    push("recovery.repair_failures".into(), "count");
    push("recovery.escalations".into(), "count");
    push("recovery.regions_quarantined".into(), "count");
    push("recovery.repair_success_ratio".into(), "ratio");
    push("faults.torn_states".into(), "count");
    push("faults.poisons".into(), "count");
    push("faults.nested_crashes".into(), "count");
    push("faults.retries".into(), "count");
    push("check.observed_run_s".into(), "s");
    for s in lp_check::default_schemes() {
        push(format!("check.observed_run_s.{}", scheme_key(s)), "s");
    }
    push("check.events".into(), "count");
    push("check.events_per_s".into(), "1/s");
    push("trace.overhead_s".into(), "s");
    v
}

/// Per-layer metrics of traced passes: host times are per-pass means of
/// span totals, counts those of the first traced pass.
/// `overhead_s` is the traced minus the untraced median pass wall.
///
/// # Panics
///
/// Panics if `traced` is empty.
pub fn per_layer(traced: &[Pass], spans: &[Span], overhead_s: f64) -> Vec<Metric> {
    let n = traced.len() as f64;
    let counts = &traced[0].counts;
    let count = |name: &str| counts.get(name).copied().unwrap_or(0.0);
    let secs = |name: &str, keep: &dyn Fn(&str) -> bool| trace::total_secs(spans, name, keep) / n;
    let calls = |name: &str| spans.iter().filter(|s| s.name == name).count() as f64 / n;
    let mut rec_us: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "recovery.recover")
        .map(|s| s.secs() * 1e6)
        .collect();
    let repair_tries = count("recovery.repaired_lines") + count("recovery.repair_failures");
    let observed_s = secs("check.observed_run", &|_| true);
    per_layer_names()
        .into_iter()
        .map(|(name, unit)| {
            let value = match name.as_str() {
                "kernels.setup_s" => secs("kernels.setup", &|_| true),
                "kernels.verify_s" => secs("kernels.verify", &|_| true),
                "kernels.verify_calls" => calls("kernels.verify"),
                "sim.run_s" => secs("sim.run", &|_| true),
                "sim.drain_s" => secs("sim.drain", &|_| true),
                "crashmc.build_s" => secs("crashmc.build", &|_| true),
                "crashmc.builds" => calls("crashmc.build"),
                "crashmc.engine_s" => trace::self_secs(spans, "crashmc.check_cases") / n,
                "crashmc.dedup_rate" => {
                    count("crashmc.dedup_hits") / count("crashmc.states").max(1.0)
                }
                "recovery.s" => secs("recovery.recover", &|_| true),
                "recovery.calls" => calls("recovery.recover"),
                "recovery.call_p50_us" => percentile(&mut rec_us, 0.50),
                "recovery.call_p99_us" => percentile(&mut rec_us, 0.99),
                "recovery.repair_success_ratio" => {
                    count("recovery.repaired_lines") / repair_tries.max(1.0)
                }
                "check.observed_run_s" => observed_s,
                "check.events_per_s" if observed_s > 0.0 => count("check.events") / observed_s,
                "trace.overhead_s" => overhead_s,
                other => {
                    if let Some(key) = other.strip_prefix("sim.run_s.") {
                        secs("sim.run", &|tag| {
                            tag.starts_with(&format!("{key}/")) || tag.ends_with(&format!("/{key}"))
                        })
                    } else if let Some(key) = other.strip_prefix("check.observed_run_s.") {
                        secs("check.observed_run", &|tag| {
                            tag.ends_with(&format!("/{key}"))
                        })
                    } else {
                        count(other)
                    }
                }
            };
            Metric { name, value, unit }
        })
        .collect()
}

/// The paper's average overhead (Figs. 12 and 13) for a
/// `model.*_overhead.<scheme>` metric, where the paper reports one.
pub fn paper_overhead(metric: &str) -> Option<f64> {
    match metric {
        "model.time_overhead.lp" => Some(1.1),
        "model.time_overhead.ep" => Some(9.0),
        "model.write_overhead.lp" => Some(3.0),
        "model.write_overhead.ep" => Some(20.6),
        _ => None,
    }
}

/// Peak resident set size of this process in MB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The host's CPU model name, from `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}
