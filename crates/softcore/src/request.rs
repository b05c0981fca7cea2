//! DB requests: the messages the softcore dispatches to index coprocessors.
//!
//! When the softcore decodes a DB instruction it resolves the operands
//! (Prepare step of paper Fig. 4), packages them with the transaction's
//! hardware timestamp, and forwards the request asynchronously — either to
//! the local index coprocessor or, for a remote home partition, through the
//! on-chip communication channels (paper §4.6). Request packets are
//! piggybacked with the transaction timestamp for concurrency control and
//! source/destination worker IDs for routing.

use crate::catalogue::TableId;

/// Identifies a partition / partition worker (one worker per partition).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PartitionId(pub u16);

/// Identifies the CP register slot (at the *initiating* worker) that will
/// receive the result: the worker id plus the globally renamed CP index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CpSlot {
    /// The initiating worker.
    pub worker: PartitionId,
    /// Renamed (batch-global) CP register index at that worker.
    pub index: u16,
}

/// How the softcore groups read-set probes for the coprocessor's batched
/// level-wise traversal engine (DESIGN.md §16).
///
/// Off (the default) is bit-inert: no request carries a batch group, the
/// coprocessor never constructs the batch engine, and every golden gate
/// stays byte-identical. `CrossTxn` tags Search/Update/Remove requests
/// with a nonzero `batch_group`; requests sharing a group id are
/// traversed together, one wave of DRAM reads per index level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BatchMode {
    /// No batching (bit-inert default).
    #[default]
    Off,
    /// Group probes across co-resident transactions of one softcore batch.
    CrossTxn,
}

/// The index operation requested (paper Table 2's DB instructions).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DbOp {
    /// Insert a new tuple.
    Insert,
    /// Point lookup (read visibility check; bumps the tuple read timestamp).
    Search,
    /// Range scan (skiplist tables only).
    Scan,
    /// Locate for update (write visibility check; marks the tuple dirty).
    Update,
    /// Mark removed (dirty + tombstone).
    Remove,
}

/// A fully resolved DB request travelling to an index coprocessor.
///
/// Note that the request carries the *address* of the key in the
/// transaction block, not the key itself: the pipeline's KeyFetch stage
/// reads the key bytes from DRAM (paper §4.4.1), which is why even a
/// lone index operation observes one memory round trip before hashing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DbRequest {
    /// Operation kind.
    pub op: DbOp,
    /// Target table.
    pub table: TableId,
    /// DRAM address of the key bytes (inside the transaction block).
    pub key_addr: u64,
    /// DRAM address of the payload bytes (inserts only).
    pub payload_addr: u64,
    /// Maximum tuples to collect (scans only).
    pub scan_count: u32,
    /// DRAM address of the scan result buffer (scans only).
    pub out_addr: u64,
    /// Transaction begin timestamp (hardware clock; paper §4.7).
    pub ts: u64,
    /// Where the result must be written back.
    pub cp: CpSlot,
    /// Home partition that owns the accessed key.
    pub home: PartitionId,
    /// Batch-traversal group id; 0 = unbatched (see [`BatchMode`]).
    /// Nonzero ids always have the top bit set, so they can never collide
    /// with the unbatched sentinel.
    pub batch_group: u64,
}

impl DbRequest {
    /// True when the request must travel over the on-chip channels.
    pub fn is_remote(&self) -> bool {
        self.home != self.cp.worker
    }
}

/// A completed DB result heading back to the initiator's CP register.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DbResponse {
    /// Destination CP slot at the initiating worker.
    pub cp: CpSlot,
    /// Encoded result (see [`crate::result::DbResult`]).
    pub value: i64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn remoteness_is_derived_from_home_vs_origin() {
        let mk = |home, origin| DbRequest {
            op: DbOp::Search,
            table: TableId(0),
            key_addr: 0,
            payload_addr: 0,
            scan_count: 0,
            out_addr: 0,
            ts: 1,
            cp: CpSlot {
                worker: PartitionId(origin),
                index: 0,
            },
            home: PartitionId(home),
            batch_group: 0,
        };
        assert!(!mk(3, 3).is_remote());
        assert!(mk(2, 3).is_remote());
    }

    #[test]
    fn batch_mode_defaults_off() {
        assert_eq!(BatchMode::default(), BatchMode::Off);
    }
}
