//! # lp-core — the Lazy Persistency runtime
//!
//! Reproduction of the software technique from *"Lazy Persistency: A
//! High-Performing and Write-Efficient Software Persistency Technique"*
//! (Alshboul, Tuck, Solihin — ISCA 2018).
//!
//! Lazy Persistency (LP) makes data in non-volatile main memory crash-
//! recoverable **without** cache-line flushes, persist barriers, or
//! logging. A program is split into associative *LP regions*; each region
//! folds every value it stores into a software [checksum](checksum) and
//! writes the checksum to a standalone persistent [table](table) — all with
//! plain stores that reach NVMM through natural cache evictions. After a
//! crash, [recovery](recovery) recomputes each region's checksum from the
//! surviving data; mismatching regions are recomputed with Eager
//! Persistency ([ep]) to guarantee forward progress.
//!
//! The crate also implements the baselines the paper compares against:
//! flush-at-region-end *EagerRecompute* ([ep]) and durable transactions
//! with write-ahead logging ([wal]), plus a uniform per-region API
//! ([scheme]) so each kernel is written once and runs under any scheme.
//!
//! # Example: one LP region, a crash, and detection
//!
//! ```
//! use lp_sim::prelude::*;
//! use lp_core::prelude::*;
//!
//! let mut m = Machine::new(MachineConfig::default().with_cores(1).with_nvmm_bytes(1 << 20));
//! let out = m.alloc::<f64>(64).unwrap();
//! let handles = SchemeHandles::alloc(&mut m, Scheme::lazy_default(), 8, 1, 0).unwrap();
//! let tp = handles.thread(0);
//!
//! // Run one region, then crash before anything is written back.
//! let mut plans = m.plans();
//! plans[0].region(move |ctx| {
//!     let mut rs = tp.begin(ctx, 0);
//!     for i in 0..64 {
//!         tp.store(ctx, &mut rs, out, i, (i as f64).sqrt());
//!     }
//!     tp.commit(ctx, rs);
//! });
//! m.set_crash_trigger(CrashTrigger::AfterMemOps(20));
//! assert_eq!(m.run(plans), Outcome::Crashed);
//!
//! // Recovery detects the inconsistent region by checksum mismatch.
//! let mut ctx = m.ctx(0);
//! let slots = (0..64).map(|i| (out, i));
//! let consistent = lp_core::recovery::region_consistent(
//!     &mut ctx, &handles.table, 0, ChecksumKind::Modular, slots);
//! assert!(!consistent);
//! ```

#![deny(missing_docs)]

pub mod checksum;
pub mod ep;
pub mod parity;
pub mod recovery;
pub mod scheme;
pub mod table;
pub mod track;
pub mod wal;

/// Convenient re-exports of the types most users need.
pub mod prelude {
    pub use crate::checksum::{ChecksumKind, RunningChecksum};
    pub use crate::ep::{persist_range, persist_store, EagerCommitter};
    pub use crate::parity::{ParityArena, RepairVerdict};
    pub use crate::recovery::{region_consistent, RecoveryStats};
    pub use crate::scheme::{RegionSession, Scheme, SchemeHandles, ThreadPersist};
    pub use crate::table::ChecksumTable;
    pub use crate::track::{RangeRole, TrackedRange};
    pub use crate::wal::{WalArena, WalTx};
}
