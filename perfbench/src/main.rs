//! The benchmark command.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload sim-bench --seed 1 --seconds 20 --trace 0 [--threads 1]
//! ```
//!
//! Makes passes of the workload for about `--seconds` (at least one),
//! checks every output, and prints every metric with its unit.
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. A traced run
//! alternates untraced and traced passes, reports the difference of their
//! median walls as `trace.overhead_s`, and writes its spans as trace-event
//! JSON under `perfbench/out/`. The exit code is 0 only when every
//! operation attempted succeeded.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use lp_perfbench::speed::Probe;
use lp_perfbench::trace::Tracer;
use lp_perfbench::{end_to_end, mean_total, median, per_layer, run_pass, Metric, Pass, Workload};

const USAGE: &str =
    "usage: lp-perfbench --workload <sim-bench|crash-exhaustive|fault-campaign|audit-bench> \
--seed <u64> --seconds <u64> --trace <0|1> [--threads <n>]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    threads: usize,
}

fn parse_args(nproc: usize) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut threads) = (None, None, None, 1usize);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {v}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(num(&value)?),
            "--seconds" => seconds = Some(num(&value)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                });
            }
            "--threads" => threads = usize::try_from(num(&value)?).map_err(|e| e.to_string())?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if threads == 0 || threads > nproc {
        return Err(format!(
            "--threads {threads}: must be between 1 and this host's {nproc} CPUs"
        ));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        threads,
    })
}

/// Where a traced run writes its spans: inside the benchmark's own
/// directory, never under the repository's `results/`.
fn trace_path(args: &Args) -> PathBuf {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    assert!(
        !dir.components().any(|c| c.as_os_str() == "results"),
        "trace output must stay out of results/"
    );
    dir.join(format!(
        "{}-seed{}.trace.json",
        args.workload.name(),
        args.seed
    ))
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn main() -> ExitCode {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let args = match parse_args(nproc) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("lp-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let cpu = lp_perfbench::cpu_model();
    println!(
        "host: nproc {nproc}  cpu {cpu:?}  worker threads {}  workload {}  seed {}  seconds {}  trace {}",
        args.threads,
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );

    // Passes continue while the next one, at the median pass time so far,
    // would end closer to `--seconds` than stopping now does, so a run
    // lasts about `--seconds` whatever the host's speed. A traced run
    // alternates untraced and traced passes so both see the same host.
    let min_passes = if args.trace { 2 } else { 1 };
    let tracer = if args.trace {
        Tracer::on()
    } else {
        Tracer::off()
    };
    let (mut plain, mut traced): (Vec<Pass>, Vec<Pass>) = (Vec::new(), Vec::new());
    let (start, mut pass_walls) = (Instant::now(), Vec::new());
    let probe = Probe::new();
    let mut first_pass_rss_mb = 0.0;
    for i in 0.. {
        if i >= min_passes
            && start.elapsed().as_secs_f64() + median(&mut pass_walls) / 2.0 >= args.seconds as f64
        {
            break;
        }
        let is_traced = args.trace && i % 2 == 1;
        let off = Tracer::off();
        let pass = run_pass(
            args.workload,
            args.seed,
            args.threads,
            if is_traced { &tracer } else { &off },
            &probe,
        );
        pass_walls.push(pass.pass_s);
        eprintln!(
            "pass {}{}: {:.3} s (setup {:.3} s)",
            i + 1,
            if is_traced { " traced" } else { "" },
            pass.pass_s,
            pass.total(|c| c.setup_s)
        );
        if is_traced {
            traced.push(pass);
        } else {
            plain.push(pass);
        }
        // Peak RSS is read after the first pass: later passes start from
        // the memory the allocator kept, so the high-water mark at exit
        // would grow with the pass count the host's speed allowed.
        if i == 0 {
            first_pass_rss_mb = lp_perfbench::peak_rss_mb();
        }
    }

    // Correctness: every pass judged clean, and every pass of this seed
    // produced the same verdict lines and simulated counts.
    let all: Vec<&Pass> = plain.iter().chain(&traced).collect();
    let attempted: u64 = all.iter().map(|p| p.attempted).sum();
    let failed: u64 = all.iter().map(|p| p.failed).sum();
    let repeatable = all.iter().all(|p| {
        p.lines == all[0].lines
            && p.sim_cycles == all[0].sim_cycles
            && p.nvmm_writes == all[0].nvmm_writes
    });
    for line in &all[0].lines {
        println!("  {line}");
    }
    if !repeatable {
        println!("passes of one seed disagree on verdicts or simulated counts");
    }
    let correct = failed == 0 && repeatable && attempted > 0;

    let metrics: Vec<Metric> = if args.trace {
        let walls = |ps: &[Pass]| median(&mut ps.iter().map(|p| p.pass_s).collect::<Vec<_>>());
        let overhead = walls(&traced) - walls(&plain);
        let path = trace_path(&args);
        let meta = [
            ("nproc", nproc.to_string()),
            ("cpu", cpu.clone()),
            ("threads", args.threads.to_string()),
            ("workload", args.workload.name().to_string()),
            ("seed", args.seed.to_string()),
        ];
        match tracer.write_trace_events(&path, &meta) {
            Ok(()) => println!("trace: {}", path.display()),
            Err(e) => eprintln!("trace: could not write {}: {e}", path.display()),
        }
        per_layer(&traced, &tracer.spans(), overhead)
    } else {
        let scale = probe.scale();
        println!(
            "host speed: probe mean {:.3} ms over {} samples (reference {:.3} ms), scale {scale:.4}; \
unscaled means: work {:.4} s, setup {:.4} s, sim {:.4} s",
            1e3 * lp_perfbench::speed::REF_S / scale,
            probe.samples().len(),
            1e3 * lp_perfbench::speed::REF_S,
            mean_total(&plain, |c| c.work_s),
            mean_total(&plain, |c| c.setup_s),
            mean_total(&plain, |c| c.sim_s)
        );
        end_to_end(&plain, first_pass_rss_mb, scale)
    };
    for m in &metrics {
        let paper = lp_perfbench::paper_overhead(&m.name)
            .map(|p| format!("  (paper: {p}%; model unvalidated at Bench scale)"))
            .unwrap_or_default();
        println!("{:<36} {:>20} {}{paper}", m.name, json_num(m.value), m.unit);
    }
    println!(
        "passes {} untraced, {} traced; attempted {attempted}, failed {failed}",
        plain.len(),
        traced.len()
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_num(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
