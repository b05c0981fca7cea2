//! The BionicDB softcore: a custom microprocessor built on the
//! reconfigurable fabric (paper §4.3).
//!
//! BionicDB takes a hybrid processor–accelerator approach: heavy
//! control-flow (transaction logic) runs on a small custom RISC-style core,
//! while index operations are dispatched asynchronously to the index
//! coprocessor. This crate implements:
//!
//! * the instruction set of paper Table 2 ([`isa`]) — CPU instructions
//!   executed in five non-pipelined steps, plus DB instructions that
//!   encapsulate index operations;
//! * a binary wire format for uploading stored procedures to the catalogue
//!   ([`isa::encode`] / [`isa::decode`]);
//! * a small text assembler ([`asm`]) and a typed procedure builder
//!   ([`builder`]) — the paper uses manually written stored procedures and
//!   leaves the SQL compiler out of scope, and so do we;
//! * the catalogue of procedures and table metadata ([`catalogue`]);
//! * the transaction-block layout that clients submit ([`txnblock`]);
//! * the softcore execution engine itself ([`core`]), including the
//!   two-phase batch execution with **transaction interleaving** of
//!   paper §4.5 and the register-renaming batch grouping.

#![warn(missing_docs)]

pub mod asm;
pub mod builder;
pub mod catalogue;
#[allow(clippy::module_inception)]
pub mod core;
pub mod isa;
pub mod key;
pub mod request;
pub mod result;
pub mod txnblock;

pub use builder::ProcBuilder;
pub use catalogue::{Catalogue, IndexKind, ProcId, TableId, TableMeta};
pub use core::{ExecMode, Softcore, SoftcoreObs, SoftcoreStats};
pub use isa::{AluOp, Cond, Cp, Gp, Inst, MemBase, Operand, Procedure};
pub use key::IndexKey;
pub use request::{BatchMode, CpSlot, DbOp, DbRequest, PartitionId};
pub use result::{DbResult, DbStatus};
pub use txnblock::{TxnBlock, BLOCK_HEADER_SIZE};
