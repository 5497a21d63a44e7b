//! Held-out seeds: `--seed` reaches both the kernels' inputs and the crash
//! engine, the simulated counts of `sim-bench` do not depend on it (the
//! kernels are data-oblivious), and the crash workloads stay free of
//! corrupt and stuck states at a second seed.
//!
//! Full workload passes: run with `cargo test --release`.

use lp_kernels::driver::{KernelId, Scale};
use lp_perfbench::speed::Probe;
use lp_perfbench::trace::Tracer;
use lp_perfbench::{bench_config, prep, run_pass, Workload, SIM_SCHEMES};
use lp_sim::machine::Outcome;

#[test]
fn seed_changes_every_kernels_inputs() {
    let cfg = bench_config();
    for kernel in KernelId::ALL {
        let a = prep::prepare(kernel, Scale::Test, 1, &cfg, SIM_SCHEMES[0]);
        let b = prep::prepare(kernel, Scale::Test, 2, &cfg, SIM_SCHEMES[0]);
        let mut m = a.machine;
        assert_eq!(m.run(a.plans), Outcome::Completed);
        m.drain_caches();
        assert!((a.verify)(&m), "{kernel}: seed 1 run verifies");
        assert!(!(b.verify)(&m), "{kernel}: seed 2 expects other outputs");
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "full workload pass; run with --release")]
fn sim_bench_counts_do_not_depend_on_the_seed() {
    let off = Tracer::off();
    let a = run_pass(Workload::SimBench, 42, 1, &off, &Probe::new());
    let b = run_pass(Workload::SimBench, 7, 1, &off, &Probe::new());
    assert_eq!((a.failed, b.failed), (0, 0));
    assert_eq!(a.sim_cycles, b.sim_cycles);
    assert_eq!(a.nvmm_writes, b.nvmm_writes);
    assert_eq!(a.counts["sim.memops"], b.counts["sim.memops"]);
    assert_eq!(a.lines, b.lines);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "full workload pass; run with --release")]
fn crash_workloads_stay_clean_at_a_second_seed() {
    let off = Tracer::off();
    for w in [Workload::CrashExhaustive, Workload::FaultCampaign] {
        let held_out = run_pass(w, 7, 1, &off, &Probe::new());
        assert!(held_out.attempted > 0, "{}", w.name());
        assert_eq!(held_out.failed, 0, "{}: {:#?}", w.name(), held_out.lines);
    }
}
