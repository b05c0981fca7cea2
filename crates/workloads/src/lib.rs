//! Workloads for the BionicDB evaluation: YCSB, TPC-C and the raw
//! key-value microbenchmark (paper §5.3), with drivers for both engines.
//!
//! * [`spec`] — workload parameters and key-encoding conventions;
//! * [`ycsb`] — YCSB-C (read-only, 16 independent accesses per
//!   transaction), the modified scan-only YCSB-E (range 50), and the
//!   non-transactional KV insert/search microbenchmark of Fig. 10a;
//! * [`tpcc`] — TPC-C NewOrder + Payment (50:50 mix; paper §5.3: database
//!   partitioned by warehouse, Item replicated, Payment modified to select
//!   customers by id; 1% of NewOrder and 15% of Payment cross-partition);
//! * [`smallbank`] — SmallBank (six short banking procedures, hash-index
//!   only, hot-account skew and multisite transfer knobs), added through
//!   the workload ABI with zero engine changes;
//! * [`abi`] — the workload ABI: the [`Workload`] trait every benchmark
//!   implements, its Silo twin [`SiloWorkload`], shared procedure-builder
//!   commit-discipline helpers, and adapters for the workloads above.
//!
//! Each workload module contains a `bionic` driver (stored-procedure
//! builders and transaction-block populators for BionicDB) and a `silo`
//! driver (the equivalent transaction bodies for the Silo baseline); both
//! plug into the generic driver/model runner in `bionicdb_bench` through
//! the [`abi`] traits.
//!
//! ## Key encoding conventions
//!
//! Hash-table keys need only equality: they are stored little-endian.
//! Skiplist keys are range-scanned: they are stored **big-endian** so that
//! byte order equals numeric order. Composite TPC-C keys pack their fields
//! into 64 bits (see [`spec`]).
//!
//! ## Scale
//!
//! Defaults are scaled down from the paper (100 K × 100 B records per
//! partition instead of 300 K × 1 KB) so the full figure suite simulates in
//! CI-class time; every structure stays far larger than any modelled cache,
//! which is what the shapes depend on. `EXPERIMENTS.md` records the scaling
//! per experiment.

#![warn(missing_docs)]

pub mod abi;
pub mod serve;
pub mod smallbank;
pub mod spec;
pub mod tpcc;
pub mod ycsb;
pub mod zipf;

pub use abi::{SiloWorkload, StdWorkload, Workload};
pub use serve::{ServeKind, ServeMix};
pub use smallbank::{SbOp, SmallBankSpec};
pub use spec::{KvSpec, TpccSpec, YcsbSpec};
pub use tpcc::TpccMix;
pub use zipf::Zipf;
