//! Property-style tests (deterministic seed sweeps over [`Rng64`]) on the
//! core Lazy Persistency invariants: checksum detection,
//! crash-point-independent recovery, and region associativity.

use lp_core::checksum::{ChecksumKind, RunningChecksum};
use lp_core::parity::{can_certify, try_mismatch_repair, try_poison_repair, RepairVerdict};
use lp_core::scheme::{Scheme, SchemeHandles};
use lp_kernels::conv2d::{Conv2d, Conv2dParams};
use lp_kernels::tmm::{Tmm, TmmParams};
use lp_sim::config::MachineConfig;
use lp_sim::machine::{Machine, Outcome};
use lp_sim::mem::PArray;
use lp_sim::prelude::CrashTrigger;
use lp_sim::rng::Rng64;

const KINDS: [ChecksumKind; 4] = [
    ChecksumKind::Parity,
    ChecksumKind::Modular,
    ChecksumKind::Adler32,
    ChecksumKind::ModularParity,
];

fn random_values(rng: &mut Rng64, max_len: usize, min_len: usize) -> Vec<u64> {
    let len = rng.range_inclusive(min_len, max_len);
    (0..len).map(|_| rng.next_u64()).collect()
}

/// Recomputing a checksum over the same value sequence always matches.
#[test]
fn checksum_deterministic() {
    for kind in KINDS {
        for seed in 0..16u64 {
            let mut rng = Rng64::new(0xdead_0000 + seed);
            let values = random_values(&mut rng, 128, 0);
            let mut a = RunningChecksum::new(kind);
            let mut b = RunningChecksum::new(kind);
            for &v in &values {
                a.update(v);
                b.update(v);
            }
            assert_eq!(a.value(), b.value(), "{kind} seed {seed}");
        }
    }
}

/// Dropping any single non-zero value to zero (a lost store over a fresh
/// output) is detected by every code.
#[test]
fn checksum_detects_lost_store() {
    for kind in KINDS {
        for seed in 0..16u64 {
            let mut rng = Rng64::new(0xbeef_0000 + seed);
            let mut values = random_values(&mut rng, 96, 1);
            for v in values.iter_mut() {
                *v = (*v).max(1); // non-zero so zeroing is a real corruption
            }
            let i = rng.below(values.len());
            let mut clean = RunningChecksum::new(kind);
            let mut lost = RunningChecksum::new(kind);
            for (k, &v) in values.iter().enumerate() {
                clean.update(v);
                lost.update(if k == i { 0 } else { v });
            }
            assert_ne!(
                clean.value(),
                lost.value(),
                "{kind} seed {seed}: lost store at {i} undetected"
            );
        }
    }
}

/// A single bit flip anywhere is detected by every code.
#[test]
fn checksum_detects_bit_flip() {
    for kind in KINDS {
        for seed in 0..16u64 {
            let mut rng = Rng64::new(0xf11b_0000 + seed);
            let values = random_values(&mut rng, 96, 1);
            let i = rng.below(values.len());
            let bit = rng.below(64);
            let mut clean = RunningChecksum::new(kind);
            let mut flipped = RunningChecksum::new(kind);
            for (k, &v) in values.iter().enumerate() {
                clean.update(v);
                flipped.update(if k == i { v ^ (1u64 << bit) } else { v });
            }
            assert_ne!(
                clean.value(),
                flipped.value(),
                "{kind} seed {seed}: bit {bit} flip at {i} undetected"
            );
        }
    }
}

/// tmm + LP recovers the exact golden product from ANY crash point.
#[test]
fn tmm_lp_recovery_from_arbitrary_crash() {
    let mut rng = Rng64::new(0x7711);
    for case in 0..12 {
        let ops = 1 + rng.below(40_000) as u64;
        let params = TmmParams::test_small();
        let mut machine = Machine::new(
            MachineConfig::default()
                .with_cores(params.threads)
                .with_nvmm_bytes(16 << 20),
        );
        let tmm = Tmm::setup(&mut machine, params, Scheme::lazy_default()).unwrap();
        machine.set_crash_trigger(CrashTrigger::AfterMemOps(ops));
        if machine.run(tmm.plans()) == Outcome::Crashed {
            machine.clear_crash_trigger();
            tmm.recover(&mut machine);
        }
        machine.drain_caches();
        assert!(tmm.verify(&machine), "case {case}: crash at {ops} ops");
    }
}

/// conv2d (idempotent regions) recovers from any crash point too.
#[test]
fn conv2d_lp_recovery_from_arbitrary_crash() {
    let mut rng = Rng64::new(0xc0a2);
    for case in 0..12 {
        let ops = 1 + rng.below(20_000) as u64;
        let params = Conv2dParams::test_small();
        let mut machine = Machine::new(
            MachineConfig::default()
                .with_cores(params.threads)
                .with_nvmm_bytes(16 << 20),
        );
        let conv = Conv2d::setup(&mut machine, params, Scheme::lazy_default()).unwrap();
        machine.set_crash_trigger(CrashTrigger::AfterMemOps(ops));
        if machine.run(conv.plans()) == Outcome::Crashed {
            machine.clear_crash_trigger();
            conv.recover(&mut machine);
        }
        machine.drain_caches();
        assert!(conv.verify(&machine), "case {case}: crash at {ops} ops");
    }
}

/// Commit one LazyParity region of `values` (length a multiple of 8, so
/// every line is fully owned) and drain, leaving a durable image the
/// parity repair rungs can work against.
fn committed_parity_region(
    kind: ChecksumKind,
    values: &[f64],
) -> (Machine, SchemeHandles, PArray<f64>) {
    assert_eq!(values.len() % 8, 0, "regions must own whole lines");
    let mut m = Machine::new(
        MachineConfig::default()
            .with_cores(1)
            .with_nvmm_bytes(1 << 20),
    );
    let arr = m.alloc::<f64>(values.len()).unwrap();
    let h = SchemeHandles::alloc(&mut m, Scheme::LazyParity(kind), 4, 1, 0).unwrap();
    let tp = h.thread(0);
    {
        let mut ctx = m.ctx(0);
        let mut rs = tp.begin(&mut ctx, 1);
        for (i, &v) in values.iter().enumerate() {
            tp.store(&mut ctx, &mut rs, arr, i, v);
        }
        tp.commit(&mut ctx, rs);
    }
    m.drain_caches();
    (m, h, arr)
}

/// Rung-1 poison repair is a bit-identical reconstruction for ANY region
/// shape, ANY poisoned line, and EVERY checksum kind that can certify it
/// — and because the XOR lanes are checksum-independent, the repaired
/// images agree across kinds too.
#[test]
fn parity_poison_repair_bit_identical_for_any_line() {
    for seed in 0..8u64 {
        let mut rng = Rng64::new(0x9a71_0000 + seed);
        let lines = rng.range_inclusive(2, 6);
        let values: Vec<f64> = (0..lines * 8)
            .map(|_| f64::from_bits(rng.next_u64() >> 12 | 0x3ff0_0000_0000_0000))
            .collect();
        let target = rng.below(lines);
        let mut images: Vec<Vec<u64>> = Vec::new();
        for kind in ChecksumKind::ALL {
            if !can_certify(kind, values.len()) {
                continue;
            }
            let (mut m, h, arr) = committed_parity_region(kind, &values);
            let golden: Vec<u64> = (0..values.len())
                .map(|i| m.peek(arr, i).to_bits())
                .collect();
            m.mem_mut().poison_line(arr.addr(target * 8).line());
            let poisoned = m.mem_mut().poisoned_lines();
            let slots: Vec<_> = (0..values.len()).map(|i| (arr, i)).collect();
            let v = {
                let mut ctx = m.ctx(0);
                try_poison_repair(&mut ctx, &h.table, &h.parity, 1, kind, &slots, &poisoned)
            };
            assert_eq!(v, RepairVerdict::Repaired, "{kind} seed {seed}");
            assert!(!m.mem().has_poisoned_lines(), "{kind} seed {seed}");
            let after: Vec<u64> = (0..values.len())
                .map(|i| m.peek(arr, i).to_bits())
                .collect();
            assert_eq!(golden, after, "{kind} seed {seed}: not bit-identical");
            images.push(after);
        }
        assert!(images.len() >= 2, "seed {seed}: too few certifying kinds");
        assert!(
            images.windows(2).all(|w| w[0] == w[1]),
            "seed {seed}: reconstruction differed across checksum kinds"
        );
    }
}

/// A word-granular torn prefix — a crash that replayed only the first
/// `t` of a line's eight words from some other write — fails the region
/// audit, and rung-1 mismatch repair localizes the line and restores the
/// committed bytes exactly, for every tear width 1..=7.
#[test]
fn parity_mismatch_repair_fixes_word_granular_torn_prefixes() {
    let kind = ChecksumKind::Crc32;
    for seed in 0..4u64 {
        let mut rng = Rng64::new(0x70a2_0000 + seed);
        let lines = rng.range_inclusive(2, 5);
        let values: Vec<f64> = (0..lines * 8)
            .map(|_| f64::from_bits(rng.next_u64() >> 12 | 0x3ff0_0000_0000_0000))
            .collect();
        for torn_words in 1..8usize {
            let (mut m, h, arr) = committed_parity_region(kind, &values);
            let golden: Vec<u64> = (0..values.len())
                .map(|i| m.peek(arr, i).to_bits())
                .collect();
            let line = rng.below(lines);
            for w in 0..torn_words {
                let i = line * 8 + w;
                m.poke(arr, i, values[i] + 7.25); // the torn, uncommitted bits
            }
            let slots: Vec<_> = (0..values.len()).map(|i| (arr, i)).collect();
            let repaired = {
                let mut ctx = m.ctx(0);
                try_mismatch_repair(&mut ctx, &h.table, &h.parity, 1, kind, &slots)
            };
            assert!(repaired, "seed {seed}: {torn_words}-word tear not repaired");
            let after: Vec<u64> = (0..values.len())
                .map(|i| m.peek(arr, i).to_bits())
                .collect();
            assert_eq!(
                golden, after,
                "seed {seed}: {torn_words}-word tear repair not bit-identical"
            );
        }
    }
}

/// Region associativity (Section III-C): under LP, regions may persist in
/// any order. Shuffling which thread owns which strip (a different
/// persist/execution order) never changes the final durable output.
#[test]
fn tmm_output_independent_of_region_order() {
    for threads in 1usize..5 {
        let mut params = TmmParams::test_small();
        params.threads = threads;
        let cfg = MachineConfig::default()
            .with_cores(threads)
            .with_nvmm_bytes(16 << 20);
        let run = lp_kernels::tmm::run(&cfg, params, Scheme::lazy_default());
        assert!(run.verified, "threads={threads}");
    }
}
