//! Quickstart: Lazy Persistency in ~60 lines.
//!
//! Mirrors Figure 8 of the paper: a tiled computation whose regions
//! checksum their stores into a persistent table, with no flushes, no
//! fences, and no logging. Run with:
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use lp_core::prelude::*;
use lp_sim::prelude::*;

fn main() {
    // A 2-core machine with the paper's Table II parameters.
    let mut machine = Machine::new(
        MachineConfig::default()
            .with_cores(2)
            .with_nvmm_bytes(16 << 20),
    );

    // Persistent data: out[i] = f(a[i], b[i]) over 4096 elements.
    let n = 4096;
    let a = machine.alloc::<f64>(n).unwrap();
    let b = machine.alloc::<f64>(n).unwrap();
    let out = machine.alloc::<f64>(n).unwrap();
    for i in 0..n {
        machine.poke(a, i, i as f64 * 0.5);
        machine.poke(b, i, 1.0 - i as f64 * 0.25);
    }

    // Lazy Persistency with the paper's default modular checksum.
    // 16 regions of 256 elements each; keys are collision-free.
    let regions = 16;
    let per = n / regions;
    let handles = SchemeHandles::alloc(&mut machine, Scheme::lazy_default(), regions, 2, 0)
        .expect("scheme setup");

    // Two threads, regions round-robin.
    let mut plans = machine.plans();
    for (t, plan) in plans.iter_mut().enumerate() {
        let tp = handles.thread(t);
        for r in (t..regions).step_by(2) {
            plan.region(move |ctx| {
                let mut rs = tp.begin(ctx, r);
                for i in r * per..(r + 1) * per {
                    let av: f64 = ctx.load(a, i);
                    let bv: f64 = ctx.load(b, i);
                    ctx.compute(4);
                    // The store folds into the region checksum; nothing
                    // is flushed — durability comes from natural eviction.
                    tp.store(ctx, &mut rs, out, i, av * bv + av);
                }
                // One lazy store of the checksum into the table.
                tp.commit(ctx, rs);
            });
        }
    }
    assert_eq!(machine.run(plans), Outcome::Completed);

    let stats = machine.stats();
    println!("completed: {}", stats.summary());
    println!(
        "flushes issued: {} (Lazy Persistency never flushes)",
        stats.core_totals().flushes
    );

    // Verify every region against its checksum, like recovery would.
    machine.drain_caches();
    let mut ctx = machine.ctx(0);
    let consistent = (0..regions).all(|r| {
        region_consistent(
            &mut ctx,
            &handles.table,
            r,
            ChecksumKind::Modular,
            (r * per..(r + 1) * per).map(|i| (out, i)),
        )
    });
    println!("all {regions} regions verify against their checksums: {consistent}");
    assert!(consistent);
}
