//! Command logging and recovery (paper §4.8).
//!
//! The paper sketches VoltDB-style command logging: after BionicDB executes
//! a transaction, its block contains the commit state and timestamp while
//! preserving the input arguments. The host persists executed blocks before
//! returning them to clients; after a failure it loads the last checkpoint
//! image and **replays the committed transaction blocks in commit-timestamp
//! order**, then re-initializes the hardware clocks.
//!
//! We implement that protocol end to end, hardened for the adverse
//! conditions the fault-injection subsystem (`bionicdb_fpga::fault`) can
//! create:
//!
//! * [`CommandLog`] captures executed blocks into durable log records. The
//!   serialization frames every record with an explicit length and a CRC-32,
//!   so a torn tail or a flipped bit is *detected*, never silently decoded
//!   into garbage; [`CommandLog::from_bytes_prefix`] recovers the exact
//!   valid prefix of a damaged log (truncate-to-last-valid-record).
//! * [`Checkpoint`] dumps the committed logical database image (walking the
//!   indexes host-side), serializes it under a whole-image CRC-32, and can
//!   reload it into a fresh machine.
//! * [`CommandLog::replay`] re-executes committed records in commit-ts
//!   order against a recovered machine, skipping uncommitted ones.
//! * [`DurableImage`] is what survives a crash — the log and checkpoint
//!   bytes only — snapshotted by the machine's crash hook with any
//!   scheduled torn-write/corruption faults applied.

use std::collections::BTreeMap;

use bionicdb_coproc::layout::{read_header, TOWER_NEXTS, TUPLE_HEADER, TUPLE_NEXT};
use bionicdb_fpga::fault::{CorruptByte, FaultPlan, TornWrite};
use bionicdb_softcore::catalogue::{IndexKind, ProcId, TableId};
use bionicdb_softcore::txnblock::TxnStatus;
use bionicdb_softcore::TxnBlock;

use crate::machine::Machine;

const LOG_MAGIC: &[u8; 8] = b"BDBLOG2\0";
const CKPT_MAGIC: &[u8; 8] = b"BDBCKP1\0";

/// Why decoding a durable image failed. Every variant that can occur
/// mid-log carries `valid_prefix`: the number of fully-validated records
/// before the damage, i.e. exactly how much [`CommandLog::from_bytes_prefix`]
/// will salvage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryError {
    /// The image does not start with the expected magic — not a log /
    /// checkpoint at all, or a different format version.
    BadMagic,
    /// The image ends before the fixed header completes.
    TruncatedHeader,
    /// Record `index` is cut short (torn tail): the medium ends inside its
    /// framing or body.
    TruncatedRecord {
        /// The record the damage was detected in.
        index: usize,
        /// Fully-validated records before it.
        valid_prefix: usize,
    },
    /// Record `index` fails its CRC-32 (bit rot / injected corruption).
    ChecksumMismatch {
        /// The record the damage was detected in.
        index: usize,
        /// Fully-validated records before it.
        valid_prefix: usize,
    },
    /// Record `index` is internally inconsistent (framing length does not
    /// match the body's declared sizes).
    MalformedRecord {
        /// The record the damage was detected in.
        index: usize,
        /// Fully-validated records before it.
        valid_prefix: usize,
    },
    /// Bytes remain after the last declared record — the header's record
    /// count was damaged, or the image was concatenated with junk.
    TrailingGarbage {
        /// Fully-validated records decoded before the excess bytes.
        valid_prefix: usize,
    },
    /// The checkpoint image fails its whole-image CRC-32.
    CheckpointChecksum,
    /// The checkpoint image ends before its declared contents.
    CheckpointTruncated,
}

impl std::fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoveryError::BadMagic => write!(f, "bad magic: not a BionicDB durable image"),
            RecoveryError::TruncatedHeader => write!(f, "image truncated inside the header"),
            RecoveryError::TruncatedRecord {
                index,
                valid_prefix,
            } => write!(
                f,
                "log record {index} torn ({valid_prefix} valid records precede it)"
            ),
            RecoveryError::ChecksumMismatch {
                index,
                valid_prefix,
            } => write!(
                f,
                "log record {index} fails CRC ({valid_prefix} valid records precede it)"
            ),
            RecoveryError::MalformedRecord {
                index,
                valid_prefix,
            } => write!(
                f,
                "log record {index} malformed ({valid_prefix} valid records precede it)"
            ),
            RecoveryError::TrailingGarbage { valid_prefix } => write!(
                f,
                "trailing bytes after the last of {valid_prefix} log records"
            ),
            RecoveryError::CheckpointChecksum => {
                write!(f, "checkpoint image fails its CRC")
            }
            RecoveryError::CheckpointTruncated => {
                write!(f, "checkpoint image truncated")
            }
        }
    }
}

impl std::error::Error for RecoveryError {}

impl RecoveryError {
    /// The number of fully-validated log records preceding the damage
    /// (zero for header-level failures).
    pub fn valid_prefix(&self) -> usize {
        match *self {
            RecoveryError::TruncatedRecord { valid_prefix, .. }
            | RecoveryError::ChecksumMismatch { valid_prefix, .. }
            | RecoveryError::MalformedRecord { valid_prefix, .. }
            | RecoveryError::TrailingGarbage { valid_prefix } => valid_prefix,
            _ => 0,
        }
    }

    /// True when the damage is a torn *tail*: every record before the
    /// failure point validated, so the prefix is trustworthy committed
    /// history (the crash interrupted the final append).
    pub fn is_torn_tail(&self) -> bool {
        matches!(
            self,
            RecoveryError::TruncatedRecord { .. } | RecoveryError::ChecksumMismatch { .. }
        )
    }
}

/// CRC-32 (IEEE 802.3, reflected), the classic durable-storage checksum.
/// Self-contained: the repo builds without registry access.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xffff_ffffu32;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xedb8_8320 & mask);
        }
    }
    !crc
}

/// What survives a crash: the durable log and checkpoint bytes, nothing
/// else. Produced by the crash hook installed on [`Machine`] (see
/// `Machine::set_crash_hook`); the in-DRAM state is lost with the power.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DurableImage {
    /// Serialized [`CommandLog`] bytes, with any scheduled torn-write or
    /// corruption faults already applied.
    pub log: Vec<u8>,
    /// Serialized [`Checkpoint`] bytes, with any scheduled corruption
    /// faults already applied.
    pub checkpoint: Vec<u8>,
}

/// One durable log record: the preserved transaction block of a committed
/// transaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogRecord {
    /// Worker the block was submitted to.
    pub worker: u16,
    /// The invoked procedure.
    pub proc: ProcId,
    /// Commit timestamp (replay order).
    pub commit_ts: u64,
    /// The block's user area (inputs preserved through execution).
    pub user_data: Vec<u8>,
    /// Total block size (for re-allocation at replay).
    pub block_size: u64,
}

impl LogRecord {
    /// Serialize the record body (the CRC-protected part).
    fn body_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(30 + self.user_data.len());
        out.extend_from_slice(&self.worker.to_le_bytes());
        out.extend_from_slice(&self.proc.0.to_le_bytes());
        out.extend_from_slice(&self.commit_ts.to_le_bytes());
        out.extend_from_slice(&self.block_size.to_le_bytes());
        out.extend_from_slice(&(self.user_data.len() as u64).to_le_bytes());
        out.extend_from_slice(&self.user_data);
        out
    }

    /// Serialize the whole framed record: `len | crc | body`.
    fn framed_bytes(&self) -> Vec<u8> {
        let body = self.body_bytes();
        let mut out = Vec::with_capacity(8 + body.len());
        out.extend_from_slice(&(body.len() as u32).to_le_bytes());
        out.extend_from_slice(&crc32(&body).to_le_bytes());
        out.extend_from_slice(&body);
        out
    }

    /// Decode a record body (already CRC-validated).
    fn from_body(
        body: &[u8],
        index: usize,
        valid_prefix: usize,
    ) -> Result<LogRecord, RecoveryError> {
        let malformed = RecoveryError::MalformedRecord {
            index,
            valid_prefix,
        };
        if body.len() < 30 {
            return Err(malformed);
        }
        let worker = u16::from_le_bytes(body[0..2].try_into().expect("2"));
        let proc = ProcId(u32::from_le_bytes(body[2..6].try_into().expect("4")));
        let commit_ts = u64::from_le_bytes(body[6..14].try_into().expect("8"));
        let block_size = u64::from_le_bytes(body[14..22].try_into().expect("8"));
        let user_len = u64::from_le_bytes(body[22..30].try_into().expect("8")) as usize;
        if body.len() != 30 + user_len {
            return Err(malformed);
        }
        Ok(LogRecord {
            worker,
            proc,
            commit_ts,
            block_size,
            user_data: body[30..].to_vec(),
        })
    }
}

/// The simulated durable command log.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct CommandLog {
    records: Vec<LogRecord>,
}

impl CommandLog {
    /// Create an empty log.
    pub fn new() -> Self {
        CommandLog::default()
    }

    /// Build a log from records (test/replay plumbing).
    pub fn from_records(records: Vec<LogRecord>) -> Self {
        CommandLog { records }
    }

    /// The captured records, in capture order.
    pub fn records(&self) -> &[LogRecord] {
        &self.records
    }

    /// Capture the outcome of an executed block. Aborted/pending blocks are
    /// ignored (only committed work is replayed).
    pub fn capture(&mut self, m: &Machine, worker: usize, blk: TxnBlock) {
        if m.block_status(blk) != TxnStatus::Committed {
            return;
        }
        let user_len = blk.size() - bionicdb_softcore::BLOCK_HEADER_SIZE;
        self.records.push(LogRecord {
            worker: worker as u16,
            proc: blk.proc_id(m.dram()),
            commit_ts: m.block_commit_ts(blk),
            user_data: m.read_block(blk, 0, user_len),
            block_size: blk.size(),
        });
    }

    /// Number of captured records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when nothing has been captured.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Serialize to the simulated durable medium. Every record is framed
    /// with an explicit length and a CRC-32 of its body, so damage is
    /// always detectable and a torn tail truncates to the last whole
    /// record instead of poisoning the decode.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(LOG_MAGIC);
        out.extend_from_slice(&(self.records.len() as u64).to_le_bytes());
        for r in &self.records {
            out.extend_from_slice(&r.framed_bytes());
        }
        out
    }

    /// Serialize with the durable-medium faults of `plan` applied: a
    /// scheduled [`TornWrite`] interrupts the append of the scheduled
    /// record (keeping only its first `valid_bytes` bytes and dropping
    /// everything after), then any scheduled byte corruptions are XORed in.
    /// This is what the crash hook persists.
    pub fn to_bytes_faulted(&self, plan: &FaultPlan) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(LOG_MAGIC);
        out.extend_from_slice(&(self.records.len() as u64).to_le_bytes());
        for (i, r) in self.records.iter().enumerate() {
            let framed = r.framed_bytes();
            if let Some(TornWrite {
                record,
                valid_bytes,
            }) = plan.torn_log
            {
                if i as u64 == record {
                    let keep = (valid_bytes as usize).min(framed.len());
                    out.extend_from_slice(&framed[..keep]);
                    break; // nothing after a torn append reaches the medium
                }
            }
            out.extend_from_slice(&framed);
        }
        CorruptByte::apply_all(&plan.corrupt_log, &mut out);
        out
    }

    /// Strict deserialization: any damage anywhere is an error.
    pub fn from_bytes(data: &[u8]) -> Result<CommandLog, RecoveryError> {
        let (log, err) = CommandLog::from_bytes_prefix(data);
        match err {
            None => Ok(log),
            Some(e) => Err(e),
        }
    }

    /// Tolerant deserialization with truncate-to-last-valid-record
    /// semantics: returns every fully-validated record from the front of
    /// the image, plus the error that stopped the decode (if any). This is
    /// the recovery path's entry point — after a crash with a torn tail,
    /// the valid prefix *is* the durable committed history.
    pub fn from_bytes_prefix(data: &[u8]) -> (CommandLog, Option<RecoveryError>) {
        let mut records = Vec::new();
        let header = 16usize;
        if data.len() < 8 || &data[..8] != LOG_MAGIC {
            return (CommandLog { records }, Some(RecoveryError::BadMagic));
        }
        if data.len() < header {
            return (CommandLog { records }, Some(RecoveryError::TruncatedHeader));
        }
        let declared = u64::from_le_bytes(data[8..16].try_into().expect("8")) as usize;
        let mut pos = header;
        for index in 0..declared {
            let valid_prefix = records.len();
            let torn = RecoveryError::TruncatedRecord {
                index,
                valid_prefix,
            };
            let Some(frame) = data.get(pos..pos + 8) else {
                return (CommandLog { records }, Some(torn));
            };
            let len = u32::from_le_bytes(frame[0..4].try_into().expect("4")) as usize;
            let crc = u32::from_le_bytes(frame[4..8].try_into().expect("4"));
            let Some(body) = data.get(pos + 8..pos + 8 + len) else {
                return (CommandLog { records }, Some(torn));
            };
            if crc32(body) != crc {
                return (
                    CommandLog { records },
                    Some(RecoveryError::ChecksumMismatch {
                        index,
                        valid_prefix,
                    }),
                );
            }
            match LogRecord::from_body(body, index, valid_prefix) {
                Ok(r) => records.push(r),
                Err(e) => return (CommandLog { records }, Some(e)),
            }
            pos += 8 + len;
        }
        if pos != data.len() {
            let valid_prefix = records.len();
            return (
                CommandLog { records },
                Some(RecoveryError::TrailingGarbage { valid_prefix }),
            );
        }
        (CommandLog { records }, None)
    }

    /// Replay the committed records against a recovered machine, strictly
    /// in commit-timestamp order. Each record is re-executed to completion
    /// before the next starts, which guarantees the replayed history is the
    /// same serial order the original timestamps encoded.
    ///
    /// Returns the number of replayed transactions. Panics if a replayed
    /// transaction does not commit (the checkpoint and log disagree).
    pub fn replay(&self, m: &mut Machine) -> usize {
        let mut ordered: Vec<&LogRecord> = self.records.iter().collect();
        ordered.sort_by_key(|r| r.commit_ts);
        for r in &ordered {
            let blk = m.alloc_block(r.worker as usize, r.block_size);
            m.init_block(blk, r.proc);
            m.write_block(blk, 0, &r.user_data);
            m.submit(r.worker as usize, blk);
            m.run_to_quiescence_limit(1 << 26);
            assert_eq!(
                m.block_status(blk),
                TxnStatus::Committed,
                "replayed transaction failed to commit (checkpoint/log mismatch)"
            );
        }
        ordered.len()
    }
}

/// A logical checkpoint image: every committed, live record of every table
/// on every partition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    /// `tables[worker][table] = key bytes -> payload bytes`, ordered by key.
    pub tables: Vec<Vec<BTreeMap<Vec<u8>, Vec<u8>>>>,
}

impl Checkpoint {
    /// Dump the committed logical state of `m` (host-side index walks).
    pub fn dump(m: &Machine) -> Checkpoint {
        let mut tables = Vec::with_capacity(m.num_workers());
        for w in 0..m.num_workers() {
            let part = m.partition(w);
            let mut per_table = Vec::with_capacity(part.tables.len());
            for state in &part.tables {
                let mut records = BTreeMap::new();
                match state.meta.kind {
                    IndexKind::Hash => {
                        for b in 0..state.meta.hash_buckets {
                            let mut cur = m.dram().host_read_u64(state.bucket_addr(b));
                            while cur != 0 {
                                let hdr = read_header(m.dram(), cur + TUPLE_HEADER);
                                if !hdr.is_dirty() && !hdr.is_tombstone() {
                                    let payload = m.dram().host_read(
                                        cur + bionicdb_coproc::layout::TUPLE_PAYLOAD,
                                        state.meta.payload_len as usize,
                                    );
                                    records
                                        .entry(hdr.key.as_bytes().to_vec())
                                        .or_insert(payload);
                                }
                                cur = m.dram().host_read_u64(cur + TUPLE_NEXT);
                            }
                        }
                    }
                    IndexKind::Skiplist => {
                        let mut cur = m.dram().host_read_u64(state.head_next_addr(0));
                        while cur != 0 {
                            let hdr = read_header(m.dram(), cur);
                            if !hdr.is_dirty() && !hdr.is_tombstone() {
                                let h = m.dram().host_read_u64(cur + 64) as usize;
                                let payload = m.dram().host_read(
                                    cur + bionicdb_coproc::layout::TableState::tower_payload_off(h),
                                    state.meta.payload_len as usize,
                                );
                                records
                                    .entry(hdr.key.as_bytes().to_vec())
                                    .or_insert(payload);
                            }
                            cur = m.dram().host_read_u64(cur + TOWER_NEXTS);
                        }
                    }
                }
                per_table.push(records);
            }
            tables.push(per_table);
        }
        Checkpoint { tables }
    }

    /// Load this image into a freshly built machine (bulk loads every
    /// record as committed data).
    pub fn load_into(&self, m: &mut Machine) {
        for (w, per_table) in self.tables.iter().enumerate() {
            for (t, records) in per_table.iter().enumerate() {
                let mut loader = m.loader(w);
                for (key, payload) in records {
                    loader.insert(TableId(t as u8), key, payload);
                }
            }
        }
    }

    /// Serialize to the simulated durable medium under a whole-image
    /// CRC-32 (trailing), so a corrupted checkpoint is *detected* at
    /// recovery rather than silently loaded as garbage data.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(CKPT_MAGIC);
        out.extend_from_slice(&(self.tables.len() as u32).to_le_bytes());
        for per_table in &self.tables {
            out.extend_from_slice(&(per_table.len() as u32).to_le_bytes());
            for records in per_table {
                out.extend_from_slice(&(records.len() as u64).to_le_bytes());
                for (key, payload) in records {
                    out.extend_from_slice(&(key.len() as u32).to_le_bytes());
                    out.extend_from_slice(key);
                    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
                    out.extend_from_slice(payload);
                }
            }
        }
        let crc = crc32(&out[8..]);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    /// Serialize with the durable-medium faults of `plan` applied.
    pub fn to_bytes_faulted(&self, plan: &FaultPlan) -> Vec<u8> {
        let mut out = self.to_bytes();
        CorruptByte::apply_all(&plan.corrupt_checkpoint, &mut out);
        out
    }

    /// Deserialize a checkpoint, verifying the whole-image CRC first.
    pub fn from_bytes(data: &[u8]) -> Result<Checkpoint, RecoveryError> {
        if data.len() < 8 || &data[..8] != CKPT_MAGIC {
            return Err(RecoveryError::BadMagic);
        }
        if data.len() < 16 {
            return Err(RecoveryError::CheckpointTruncated);
        }
        let (content, tail) = data.split_at(data.len() - 4);
        let stored = u32::from_le_bytes(tail.try_into().expect("4"));
        if crc32(&content[8..]) != stored {
            return Err(RecoveryError::CheckpointChecksum);
        }
        // Past the CRC, structural damage would have tripped the checksum;
        // any inconsistency left is a truncation-style error.
        let mut pos = 8usize;
        let take = |pos: &mut usize, n: usize| -> Result<&[u8], RecoveryError> {
            let s = content
                .get(*pos..*pos + n)
                .ok_or(RecoveryError::CheckpointTruncated)?;
            *pos += n;
            Ok(s)
        };
        let workers = u32::from_le_bytes(take(&mut pos, 4)?.try_into().expect("4")) as usize;
        let mut tables = Vec::with_capacity(workers);
        for _ in 0..workers {
            let ntables = u32::from_le_bytes(take(&mut pos, 4)?.try_into().expect("4")) as usize;
            let mut per_table = Vec::with_capacity(ntables);
            for _ in 0..ntables {
                let nrec = u64::from_le_bytes(take(&mut pos, 8)?.try_into().expect("8")) as usize;
                let mut records = BTreeMap::new();
                for _ in 0..nrec {
                    let klen =
                        u32::from_le_bytes(take(&mut pos, 4)?.try_into().expect("4")) as usize;
                    let key = take(&mut pos, klen)?.to_vec();
                    let plen =
                        u32::from_le_bytes(take(&mut pos, 4)?.try_into().expect("4")) as usize;
                    let payload = take(&mut pos, plen)?.to_vec();
                    records.insert(key, payload);
                }
                per_table.push(records);
            }
            tables.push(per_table);
        }
        if pos != content.len() {
            return Err(RecoveryError::CheckpointTruncated);
        }
        Ok(Checkpoint { tables })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_log() -> CommandLog {
        CommandLog {
            records: vec![
                LogRecord {
                    worker: 1,
                    proc: ProcId(3),
                    commit_ts: 999,
                    user_data: vec![1, 2, 3, 4],
                    block_size: 128,
                },
                LogRecord {
                    worker: 0,
                    proc: ProcId(0),
                    commit_ts: 100,
                    user_data: vec![],
                    block_size: 64,
                },
            ],
        }
    }

    #[test]
    fn log_serialization_roundtrip() {
        let log = sample_log();
        let bytes = log.to_bytes();
        assert_eq!(CommandLog::from_bytes(&bytes).unwrap(), log);
    }

    #[test]
    fn log_rejects_garbage() {
        assert_eq!(
            CommandLog::from_bytes(b"NOTALOG!"),
            Err(RecoveryError::BadMagic)
        );
        let mut bytes = CommandLog::new().to_bytes();
        bytes.truncate(4);
        assert_eq!(CommandLog::from_bytes(&bytes), Err(RecoveryError::BadMagic));
        let mut bytes = CommandLog::new().to_bytes();
        bytes.truncate(12);
        assert_eq!(
            CommandLog::from_bytes(&bytes),
            Err(RecoveryError::TruncatedHeader)
        );
    }

    #[test]
    fn torn_tail_recovers_the_valid_prefix() {
        let log = sample_log();
        let bytes = log.to_bytes();
        // Tear the last record: cut 3 bytes off the medium.
        let torn = &bytes[..bytes.len() - 3];
        let err = CommandLog::from_bytes(torn).unwrap_err();
        assert_eq!(
            err,
            RecoveryError::TruncatedRecord {
                index: 1,
                valid_prefix: 1
            }
        );
        assert!(err.is_torn_tail());
        let (prefix, perr) = CommandLog::from_bytes_prefix(torn);
        assert_eq!(perr, Some(err));
        assert_eq!(prefix.records(), &log.records[..1]);
    }

    #[test]
    fn bit_flip_is_a_checksum_mismatch() {
        let log = sample_log();
        let mut bytes = log.to_bytes();
        // Flip one bit inside the first record's body.
        bytes[16 + 8 + 2] ^= 0x40;
        let err = CommandLog::from_bytes(&bytes).unwrap_err();
        assert_eq!(
            err,
            RecoveryError::ChecksumMismatch {
                index: 0,
                valid_prefix: 0
            }
        );
        assert_eq!(err.valid_prefix(), 0);
    }

    #[test]
    fn torn_write_fault_matches_manual_truncation() {
        let log = sample_log();
        let plan = FaultPlan::none().torn_log_write(1, 5);
        let faulted = log.to_bytes_faulted(&plan);
        let clean = log.to_bytes();
        // Record 0 occupies 8 (frame) + 30 + 4 (body) bytes after the
        // 16-byte header; record 1's first 5 bytes survive.
        assert_eq!(faulted.len(), 16 + 42 + 5);
        assert_eq!(&faulted[..16 + 42 + 5], &clean[..16 + 42 + 5]);
        let (prefix, err) = CommandLog::from_bytes_prefix(&faulted);
        assert_eq!(prefix.len(), 1);
        assert!(err.expect("torn").is_torn_tail());
        // The none-plan faulted serialization is the clean serialization.
        assert_eq!(log.to_bytes_faulted(&FaultPlan::none()), clean);
    }

    #[test]
    fn corruption_fault_matches_manual_flip() {
        let log = sample_log();
        let clean = log.to_bytes();
        // One flip inside each record's body (record 0's body starts after
        // the 16-byte header and its 8-byte frame; record 1's frame starts
        // 42 bytes later). The offset wraps modulo the image length.
        for (record, at) in [(0usize, 16 + 8 + 2), (1, 16 + 42 + 8 + 2)] {
            for offset in [at as u64, (at + clean.len()) as u64] {
                let plan = FaultPlan::none().corrupt_log_byte(offset, 0x40);
                let faulted = log.to_bytes_faulted(&plan);
                let mut manual = clean.clone();
                manual[at] ^= 0x40;
                assert_eq!(faulted, manual, "record {record}, offset {offset}");
                let err = CommandLog::from_bytes(&faulted).unwrap_err();
                assert_eq!(
                    err,
                    RecoveryError::ChecksumMismatch {
                        index: record,
                        valid_prefix: record
                    }
                );
                let (prefix, perr) = CommandLog::from_bytes_prefix(&faulted);
                assert_eq!(perr, Some(err));
                assert_eq!(prefix.records(), &log.records[..record]);
            }
        }

        let mut t0 = BTreeMap::new();
        t0.insert(vec![1, 2, 3], vec![9, 9]);
        let ckpt = Checkpoint {
            tables: vec![vec![t0]],
        };
        let clean = ckpt.to_bytes();
        let plan = FaultPlan::none().corrupt_checkpoint_byte(13, 0x10);
        let faulted = ckpt.to_bytes_faulted(&plan);
        let mut manual = clean.clone();
        manual[13] ^= 0x10;
        assert_eq!(faulted, manual);
        assert_eq!(
            Checkpoint::from_bytes(&faulted),
            Err(RecoveryError::CheckpointChecksum)
        );
        // Log corruption never touches the checkpoint image, and vice versa.
        let log_only = FaultPlan::none().corrupt_log_byte(13, 0x10);
        assert_eq!(ckpt.to_bytes_faulted(&log_only), clean);
        assert_eq!(log.to_bytes_faulted(&plan), log.to_bytes());
    }

    #[test]
    fn trailing_garbage_is_detected() {
        let mut bytes = sample_log().to_bytes();
        bytes.extend_from_slice(&[0xAB; 7]);
        assert_eq!(
            CommandLog::from_bytes(&bytes),
            Err(RecoveryError::TrailingGarbage { valid_prefix: 2 })
        );
    }

    #[test]
    fn checkpoint_roundtrip_and_corruption_detection() {
        let mut t0 = BTreeMap::new();
        t0.insert(vec![1, 2, 3], vec![9, 9]);
        t0.insert(vec![4], vec![]);
        let ckpt = Checkpoint {
            tables: vec![vec![t0, BTreeMap::new()], vec![BTreeMap::new(); 2]],
        };
        let bytes = ckpt.to_bytes();
        assert_eq!(Checkpoint::from_bytes(&bytes).unwrap(), ckpt);

        for i in [8, 13, bytes.len() - 1] {
            let mut bad = bytes.clone();
            bad[i] ^= 0x10;
            assert_eq!(
                Checkpoint::from_bytes(&bad),
                Err(RecoveryError::CheckpointChecksum),
                "flip at {i}"
            );
        }
        assert_eq!(
            Checkpoint::from_bytes(&bytes[..10]),
            Err(RecoveryError::CheckpointTruncated)
        );
        assert_eq!(
            Checkpoint::from_bytes(b"NOTACKPT"),
            Err(RecoveryError::BadMagic)
        );
    }

    #[test]
    fn crc32_known_vector() {
        // The classic check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }
}
