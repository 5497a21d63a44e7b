//! Tracing observes without changing: traced and untraced passes give
//! identical verdicts and simulated counts, the crash engine's self time
//! is non-negative, and the spans under a pass account for its wall time.
//!
//! Full workload passes: run with `cargo test --release`.

use lp_kernels::driver::{KernelId, Scale};
use lp_perfbench::speed::Probe;
use lp_perfbench::trace::{Span, Tracer};
use lp_perfbench::{audit_line, audit_pass, per_layer, prep, run_pass, Pass, Workload};

fn assert_same(w: Workload, a: &Pass, b: &Pass) {
    let name = w.name();
    assert_eq!((a.failed, b.failed), (0, 0), "{name}");
    assert_eq!(a.lines, b.lines, "{name}: verdict lines");
    assert_eq!(a.sim_cycles, b.sim_cycles, "{name}");
    assert_eq!(a.nvmm_writes, b.nvmm_writes, "{name}");
    assert_eq!(a.memops, b.memops, "{name}");
    assert_eq!(a.counts, b.counts, "{name}: per-layer counts");
}

/// The direct children of the pass span cover the pass, minus only the
/// benchmark's own bookkeeping between calls.
fn assert_spans_cover_pass(w: Workload, spans: &[Span], pass: &Pass) {
    let (root, top) = spans
        .iter()
        .enumerate()
        .find(|(_, s)| s.name == "bench.pass")
        .expect("pass span");
    let children: f64 = spans
        .iter()
        .filter(|s| s.parent == Some(root))
        .map(Span::secs)
        .sum();
    assert!(top.secs() <= pass.pass_s, "{}", w.name());
    assert!(
        children <= top.secs() && children >= 0.98 * top.secs(),
        "{}: children {children} s of pass {} s",
        w.name(),
        top.secs()
    );
}

#[test]
#[cfg_attr(debug_assertions, ignore = "full workload pass; run with --release")]
fn traced_and_untraced_passes_agree() {
    for w in Workload::ALL {
        let plain = run_pass(w, 42, 1, &Tracer::off(), &Probe::new());
        let tracer = Tracer::on();
        let traced = run_pass(w, 42, 1, &tracer, &Probe::new());
        assert_same(w, &plain, &traced);
        let spans = tracer.spans();
        assert_spans_cover_pass(w, &spans, &traced);
        let metrics = per_layer(std::slice::from_ref(&traced), &spans, 0.0);
        let engine = metrics
            .iter()
            .find(|m| m.name == "crashmc.engine_s")
            .expect("engine metric");
        assert!(engine.value >= 0.0, "{}: engine self time", w.name());
    }
}

#[test]
fn composed_audit_matches_check_kernel() {
    let scale = Scale::Test;
    let pass = audit_pass(
        scale,
        |k| prep::default_seed(k, scale),
        &Tracer::off(),
        &Probe::new(),
    );
    let mut expected = Vec::new();
    for kernel in KernelId::ALL {
        for scheme in lp_check::default_schemes() {
            let run = lp_check::check_kernel(kernel, scale, &lp_check::default_config(), scheme);
            expected.push(audit_line(
                kernel,
                scheme,
                run.verified,
                run.report.violations.len(),
                run.report.events_seen,
            ));
        }
    }
    assert_eq!(pass.lines, expected);
}
