//! The software OLTP baseline: a Silo-style in-memory engine.
//!
//! The paper compares BionicDB against **Silo** (Tu et al., SOSP'13)
//! running on four Xeon E7-4807 chips. This crate implements a faithful
//! small-scale Silo: optimistic concurrency control with per-record TID
//! words, read-set validation, write locking in global address order, and
//! epoch-based commit timestamps. Three in-memory indexes are provided:
//!
//! * [`index::HashIndex`] — a chained hash table (the point-access
//!   counterpart of BionicDB's hash pipeline);
//! * [`index::SwSkipList`] — a software skiplist (paper Fig. 11d's
//!   "SW skiplist");
//! * [`index::Masstree`] — a B+-tree in the spirit of Masstree (with
//!   64-bit keys a Masstree is a single trie layer, i.e. exactly a B+
//!   tree; paper Fig. 11d's scan baseline).
//!
//! Every index and transaction operation is generic over
//! [`bionicdb_cpu_model::Tracer`]: with [`bionicdb_cpu_model::NullTracer`]
//! the engine runs at full native speed on real threads (see [`runner`]);
//! with [`bionicdb_cpu_model::CoreModel`] each pointer hop and payload copy
//! is charged against the paper's Xeon cache hierarchy, producing the
//! model-time numbers used in the figure reproductions.
//!
//! Simplifications relative to full Silo (documented, immaterial to the
//! reproduced figures): no phantom-protection node versions (scans are only
//! used in scan-only workloads, as the paper itself modified YCSB-E to be),
//! no logging/GC, and keys are 64-bit (composite TPC-C keys are packed —
//! the same trick BionicDB's byte keys use).

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod db;
pub mod index;
pub mod record;
pub mod runner;
pub mod tid;
pub mod txn;

pub use db::{SiloDb, SwIndexKind, TableDef};
pub use record::Record;
pub use runner::run_parallel;
pub use txn::{Abort, Txn};
