//! # BionicDB
//!
//! A reproduction of *"BionicDB: Fast and Power-Efficient OLTP on FPGA"*
//! (Kim, Johnson, Pandis — EDBT 2019) as a cycle-level simulated system.
//!
//! BionicDB is an OLTP engine whose entire execution path lives on an FPGA:
//! stored procedures run on a custom **softcore**, index operations are
//! accelerated by a pipelined **index coprocessor** (hash + skiplist), and
//! cross-partition transactions ride **on-chip message-passing channels**
//! instead of shared memory. The database is partitioned DORA-style, one
//! single-threaded worker per partition, entirely resident in FPGA-side
//! DRAM.
//!
//! This crate assembles those pieces (from `bionicdb-fpga`,
//! `bionicdb-softcore`, `bionicdb-coproc`, `bionicdb-noc`) into a complete
//! machine with a host-side client API:
//!
//! ```
//! use bionicdb::{BionicConfig, BlockStatus, SystemBuilder};
//! use bionicdb_softcore::{asm::assemble, TableMeta};
//!
//! let mut b = SystemBuilder::new(BionicConfig::small(2));
//! let accounts = b.table(TableMeta::hash("accounts", 8, 16, 1 << 10));
//! let read_proc = b.proc(
//!     assemble(
//!         "proc read_one\n\
//!          logic:\n    search 0, 0, c0\n\
//!          commit:\n    ret g0, c0\n    cmp g0, 0\n    blt abort\n    commit\n\
//!          abort:\n    abort\n",
//!     )
//!     .unwrap(),
//! );
//! let mut db = b.build();
//! // For a bulk load, hold one `let mut loader = db.loader(0);` across all
//! // inserts: its skiplist finger makes ascending keys cheap.
//! db.loader(0).insert(accounts, &77u64.to_be_bytes(), &[1u8; 16]);
//!
//! let blk = db.alloc_block(0, 128);
//! db.init_block(blk, read_proc);
//! db.write_block_u64(blk, 0, 0); // key bytes live at user offset 0
//! db.write_block(blk, 0, &77u64.to_be_bytes());
//! db.submit(0, blk);
//! db.run_to_quiescence();
//! assert!(db.block_status(blk).is_committed());
//! ```
//!
//! See `DESIGN.md` at the repository root for the full system inventory and
//! the experiment-by-experiment reproduction index.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod config;
pub mod machine;
pub mod recovery;
pub mod report;
pub mod storage;
pub mod worker;

pub use config::{BionicConfig, NocRetryConfig};
pub use machine::{
    LaneActivity, LookaheadMode, Machine, MachineStats, RetryBudget, RetryOutcome, SystemBuilder,
};
pub use recovery::{Checkpoint, CommandLog, DurableImage, LogRecord, RecoveryError};
pub use report::{MachineReport, WorkerReport};
pub use storage::Loader;

// Re-export the pieces users need to drive the system.
pub use bionicdb_fpga::{FaultBudget, FaultPlan, FpgaConfig};
pub use bionicdb_noc::Topology;
pub use bionicdb_softcore::txnblock::TxnStatus;
pub use bionicdb_softcore::{
    asm, builder::ProcBuilder, BatchMode, Catalogue, ExecMode, IndexKey, PartitionId, ProcId,
    TableId, TableMeta, TxnBlock,
};

/// Convenience trait for asserting on block outcomes.
pub trait BlockStatus {
    /// True when the transaction committed.
    fn is_committed(&self) -> bool;
    /// True when the transaction aborted.
    fn is_aborted(&self) -> bool;
}

impl BlockStatus for TxnStatus {
    fn is_committed(&self) -> bool {
        matches!(self, TxnStatus::Committed)
    }

    fn is_aborted(&self) -> bool {
        matches!(self, TxnStatus::Aborted)
    }
}
