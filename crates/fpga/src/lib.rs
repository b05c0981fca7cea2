//! Cycle-level FPGA fabric simulation substrate for BionicDB.
//!
//! The paper builds BionicDB on a Xilinx Virtex-5 LX330 (125 MHz) sitting on a
//! Micron/Convey HC-2 card with on-board DDR2 DRAM. This crate is the
//! software stand-in for that fabric: a deterministic, cycle-stepped
//! simulation substrate that the higher-level crates (`bionicdb-softcore`,
//! `bionicdb-coproc`, `bionicdb-noc`, `bionicdb`) compose into a full
//! partition-per-worker OLTP machine.
//!
//! What is modelled, and why it is enough (see DESIGN.md §2):
//!
//! * **Clock** — a global cycle counter at a configurable frequency
//!   (125 MHz by default, 8 ns per cycle).
//! * **DRAM** ([`Dram`]) — a byte-addressable, sparsely paged memory with a
//!   DDR2-class timing model: fixed random-access latency, a configurable
//!   number of memory controllers, bounded outstanding requests per
//!   controller, and per-port response queues. Functional state (the bytes)
//!   updates at *issue* time; timing is modelled by delaying the response.
//!   All of the paper's headline effects (index pipelining, memory-level
//!   parallelism, saturation of throughput vs. in-flight requests) fall out
//!   of this latency/overlap model.
//! * **FIFOs** ([`Fifo`]) — bounded queues that connect pipeline stages.
//!   Back-pressure (a full FIFO) is what creates pipeline stalls.
//! * **BRAM lock tables** ([`LockTable`]) — single-cycle on-chip tables used
//!   by the index pipelines for hazard prevention (paper §4.4.1/§4.4.2).
//! * **Regions** ([`Region`]) — bump allocators over DRAM address ranges,
//!   used to lay out partitions, tuple heaps and transaction blocks.
//! * **Stats** ([`stats::StageStats`], [`stats::Throughput`]) — counters for DRAM utilization and
//!   stage occupancy, used by the benchmark harness.
//!
//! The substrate is deliberately free of threads: one `tick` of the machine
//! advances every component by one FPGA cycle in a fixed order, so every
//! simulation is deterministic and reproducible.

#![warn(missing_docs)]

pub mod dram;
pub mod fault;
pub mod fifo;
pub mod lock_table;
pub mod obs;
pub mod region;
pub mod stats;
pub mod timing;

pub use dram::{
    mlp_bucket, Dram, DramFrames, DramStats, MemData, MemKind, MemRequest, MemResponse, PortId,
    PortStats, Tag, MLP_BUCKETS,
};
pub use fault::{CorruptByte, DramFaults, FaultBudget, FaultPlan, NocFaults, TornWrite};
pub use fifo::Fifo;
pub use lock_table::LockTable;
pub use obs::{AbortReasons, ChromeTraceSink, LatencyHistogram, NullSink, TraceSink, TxnEvent};
pub use region::Region;
pub use timing::{Cycle, FpgaConfig};
