//! Differential invariance suite for kernel crash recovery.
//!
//! Recovery is a semantic contract just like the forward timing model: a
//! refactor of the recovery ladder must leave every verdict, counter,
//! cycle and durable byte where it was. This suite pins, for 5 kernels ×
//! {Lazy(Modular), Lazy(Adler32), LazyParity(Crc32), Eager, Wal} at
//! `Scale::Micro` on small caches, crashed at 3 fixed points (¼ and ¾ of
//! the clean run's cycles, and after a completed, drained run) under 4
//! fault draws each (none, one poisoned line, one flipped bit, two
//! adjacent poisoned lines):
//!
//! - all eight `RecoveryStats` fields, `cycles` included;
//! - the flushes, fences and NVMM line writes made by recovery alone;
//! - an FNV-1a hash of the durable image right after recovery and again
//!   after the caches drain;
//! - the `verify` verdict.
//!
//! Regenerate (only when recovery changes *on purpose*) with:
//!
//! ```text
//! LP_INVARIANCE_BLESS=1 cargo test -p lp-kernels --test recovery_invariance
//! ```

use lp_core::checksum::ChecksumKind;
use lp_core::scheme::Scheme;
use lp_kernels::driver::{prepare_kernel, KernelId, PreparedKernel, Scale};
use lp_sim::addr::{Addr, LineAddr};
use lp_sim::config::MachineConfig;
use lp_sim::fault::flip_bit;
use lp_sim::machine::{Machine, Outcome};
use lp_sim::prelude::CrashTrigger;

fn schemes() -> [Scheme; 5] {
    [
        Scheme::Lazy(ChecksumKind::Modular),
        Scheme::Lazy(ChecksumKind::Adler32),
        Scheme::LazyParity(ChecksumKind::Crc32),
        Scheme::Eager,
        Scheme::Wal,
    ]
}

/// The fault applied to the post-crash image before recovery runs.
#[derive(Debug, Clone, Copy)]
enum Fault {
    None,
    Poison,
    Flip,
    Burst,
}

const FAULTS: [Fault; 4] = [Fault::None, Fault::Poison, Fault::Flip, Fault::Burst];

/// FNV-1a over the heap-used prefix of the durable NVMM image.
fn image_hash(machine: &Machine) -> u64 {
    let used = machine.heap_used() as usize;
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut buf = vec![0u8; 4096];
    let mut off = 0usize;
    while off < used {
        let n = buf.len().min(used - off);
        machine
            .mem()
            .nvmm()
            .peek_bytes(Addr(off as u64), &mut buf[..n]);
        for &b in &buf[..n] {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
        off += n;
    }
    h
}

/// Small caches, so natural evictions leave partially durable images
/// (with the default caches a Micro run persists almost nothing before
/// its crash, and no region would be consistent or repairable).
fn cfg() -> MachineConfig {
    MachineConfig::default()
        .with_nvmm_bytes(8 << 20)
        .with_l1_bytes(2 * 1024)
        .with_l2_bytes(8 * 1024)
}

/// A fixed pick from the middle of a target list.
fn middle(lines: &[LineAddr]) -> Option<LineAddr> {
    lines.get(lines.len() / 2).copied()
}

/// The lines a fault poisons, or flips, in a prepared case: fixed picks
/// so every run draws the same fault.
fn apply_fault(prep: &mut PreparedKernel, fault: Fault) -> String {
    match fault {
        Fault::None => "none".into(),
        Fault::Poison => match middle(&prep.poison_lines) {
            Some(line) => {
                prep.machine.mem_mut().poison_line(line);
                format!("poison@{}", line.0)
            }
            None => "poison@-".into(),
        },
        Fault::Flip => match middle(&prep.flip_lines) {
            Some(line) => {
                let bit = 64 * 3 + 17;
                flip_bit(prep.machine.mem_mut().nvmm_mut(), line, bit);
                format!("flip@{}:{bit}", line.0)
            }
            None => "flip@-".into(),
        },
        Fault::Burst => {
            // The first address-adjacent pair at or after the middle.
            let lines = &prep.poison_lines;
            let pair = (lines.len() / 2..lines.len().saturating_sub(1))
                .chain(0..lines.len() / 2)
                .find(|&i| lines[i + 1].0 == lines[i].0 + 1)
                .map(|i| (lines[i], lines[i + 1]));
            match pair {
                Some((a, b)) => {
                    prep.machine.mem_mut().poison_line(a);
                    prep.machine.mem_mut().poison_line(b);
                    format!("burst@{}+{}", a.0, b.0)
                }
                None => "burst@-".into(),
            }
        }
    }
}

/// One case: crash at `at` cycles (`None`: after the run completed and
/// its caches drained, so every region is durable), apply `fault`,
/// recover, record.
fn run_case(
    kernel: KernelId,
    scheme: Scheme,
    at: Option<u64>,
    point: usize,
    fault: Fault,
) -> String {
    let mut prep = prepare_kernel(kernel, Scale::Micro, &cfg(), scheme);
    if let Some(at) = at {
        prep.machine.set_crash_trigger(CrashTrigger::AtCycle(at));
    }
    let plans = std::mem::take(&mut prep.plans);
    let outcome = prep.machine.run(plans);
    if at.is_none() {
        prep.machine.drain_caches();
        prep.machine.mem_mut().force_crash();
        prep.machine.mem_mut().acknowledge_crash();
    }
    prep.machine.clear_crash_trigger();
    let fault_desc = apply_fault(&mut prep, fault);
    let _ = prep.machine.take_stats();
    let r = (prep.recover)(&mut prep.machine);
    let stats = prep.machine.take_stats();
    let t = stats.core_totals();
    let durable = image_hash(&prep.machine);
    prep.machine.drain_caches();
    let drained = image_hash(&prep.machine);
    let verified = (prep.verify)(&prep.machine);
    format!(
        "{}/{} p{point} {fault_desc} {} checked={} inconsistent={} recomputed={} \
         repaired={} failures={} escalations={} quarantined={} cycles={} \
         flushes={} fences={} nvmm_writes={} durable={durable:016x} \
         drained={drained:016x} verify={verified}",
        kernel.name(),
        scheme,
        if outcome == Outcome::Crashed {
            "crashed"
        } else {
            "completed"
        },
        r.regions_checked,
        r.regions_inconsistent,
        r.recomputed_regions,
        r.repaired_lines,
        r.repair_failures,
        r.escalations,
        r.regions_quarantined,
        r.cycles,
        t.flushes,
        t.fences,
        stats.nvmm_writes(),
    )
}

/// Clean-run cycle count of a cell (the crash points are fractions of it).
fn clean_cycles(kernel: KernelId, scheme: Scheme) -> u64 {
    let mut prep = prepare_kernel(kernel, Scale::Micro, &cfg(), scheme);
    let plans = std::mem::take(&mut prep.plans);
    assert_eq!(prep.machine.run(plans), Outcome::Completed);
    prep.machine.stats().exec_cycles()
}

fn golden_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/goldens/recovery_invariance.txt")
}

#[test]
fn recovery_stats_cycles_and_images_pinned() {
    let mut lines = Vec::new();
    for kernel in KernelId::ALL {
        for scheme in schemes() {
            let total = clean_cycles(kernel, scheme);
            let points = [Some(total / 4), Some(total * 3 / 4), None];
            for (point, at) in points.into_iter().enumerate() {
                for fault in FAULTS {
                    lines.push(run_case(kernel, scheme, at, point, fault));
                }
            }
        }
    }
    let actual = format!("{}\n", lines.join("\n"));
    let path = golden_path();
    if std::env::var_os("LP_INVARIANCE_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().expect("parent")).expect("mkdir goldens");
        std::fs::write(&path, &actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); bless with LP_INVARIANCE_BLESS=1",
            path.display()
        )
    });
    if expected != actual {
        let diff: Vec<String> = expected
            .lines()
            .zip(actual.lines())
            .filter(|(e, a)| e != a)
            .map(|(e, a)| format!("- {e}\n+ {a}"))
            .collect();
        panic!(
            "recovery drift in {} case(s) — a recovery refactor must keep \
             stats, cycles and images identical (bless only for intentional \
             recovery changes):\n{}",
            diff.len(),
            diff.join("\n"),
        );
    }
}
