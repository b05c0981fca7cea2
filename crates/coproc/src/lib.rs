//! The BionicDB index coprocessor (paper §4.4).
//!
//! The coprocessor processes DB instructions from the local softcore
//! (foreground requests) and from remote workers via the on-chip channels
//! (background requests). The key acceleration technique is **index
//! pipelining**: each index algorithm is decomposed into sub-functions, each
//! implemented as a pipeline stage (a finite-state machine awakened on data
//! arrival from off-chip DRAM); multiple outstanding DB instructions overlap
//! between neighbouring stages, which raises memory-level parallelism far
//! beyond what dependent pointer chasing allows a CPU.
//!
//! Two indexes are provided:
//!
//! * [`hash`] — point access (INSERT/SEARCH/UPDATE/REMOVE) through the
//!   KeyFetch → Hash → {Install | HeadFetch → Compare → Traverse} pipeline
//!   of paper Fig. 5a, with the insert-after-insert / search-after-insert
//!   hazards of Fig. 6 prevented by a BRAM lock table keyed on bucket.
//! * [`skiplist`] — range scans (plus point ops) through level-partitioned
//!   traversal stages and dedicated scanner modules (paper Fig. 5b), with
//!   insert-insert hazards (Fig. 7) prevented by entry-point locks and
//!   stall-free scans serialized at the bottom stage.
//!
//! When [`CoprocConfig::batch_mode`] is enabled, read-set probes tagged
//! with a batch group divert to [`batch`] — a level-wise batched traversal
//! engine that walks up to `batch_width` probes together, issuing each
//! index level's fetches as one deduplicated wave of outstanding DRAM
//! reads (DESIGN.md §16). The default (`Off`) is bit-inert.
//!
//! Concurrency control (basic single-version timestamp ordering, paper
//! §4.7) is evaluated *inside* the pipelines: the visibility check runs
//! where the tuple header has just been fetched ([`cc`]).

#![warn(missing_docs)]

pub mod batch;
pub mod cc;
pub mod coproc;
pub mod hash;
pub mod layout;
pub mod mem;
pub mod sdbm;
pub mod skiplist;

pub use batch::{BatchEngine, BatchStats};
pub use coproc::{CoprocConfig, CoprocStats, IndexCoproc};
pub use layout::{RecordHeader, TableState};
pub use sdbm::sdbm_hash;
