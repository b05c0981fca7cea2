//! The hardware hash-index pipeline (paper §4.4.1, Figs. 5a and 6).
//!
//! Sub-functions of hash index operations map onto pipeline stages:
//!
//! ```text
//!            ┌────────── INSERT ─────────→ Install
//! KeyFetch → Hash ─┤
//!            └─ SEARCH/UPDATE/REMOVE ────→ HeadFetch → Compare → Traverse*
//! ```
//!
//! * **KeyFetch** reads the search key from the transaction block.
//! * **Hash** computes the sdbm hash, consults the BRAM lock table (hazard
//!   prevention), and loads the hash-table entry (bucket head).
//! * **Install** (inserts) fetches the payload from the transaction block,
//!   allocates a tuple, writes it with `next = old head`, updates the bucket
//!   head and releases the bucket lock.
//! * **HeadFetch** returns NotFound on an empty bucket, otherwise reads the
//!   first tuple of the chain.
//! * **Compare** matches the key and runs the visibility check; mismatches
//!   fall through to a **Traverse** stage that follows the conflict chain
//!   (decoupled so a long chain does not block operations that terminate at
//!   Compare; multiple Traverse stages can be populated).
//!
//! Hazards: in-flight operations that passed Hash are tracked in a lock
//! table keyed by `(table, bucket)`. Only INSERTs take the lock, but *every*
//! operation blocks at Hash while its bucket is locked — this prevents both
//! the insert-after-insert lost update and the search-after-insert
//! inconsistent read of paper Fig. 6. Setting
//! [`crate::coproc::CoprocConfig::hazard_prevention`] to `false` disables
//! the lock table; the crate tests use that to *demonstrate* the anomaly.

use bionicdb_fpga::stats::{StageStats, WaveState};
use bionicdb_fpga::{Dram, Fifo, LockTable, MemData};
use bionicdb_softcore::request::{DbOp, DbRequest, DbResponse};
use bionicdb_softcore::{DbResult, DbStatus, IndexKey};

use crate::cc;
use crate::layout::{self, RecordHeader, TableState, HEADER_SIZE, TUPLE_HEADER, TUPLE_PAYLOAD};
use crate::mem::AsyncReader;
use crate::sdbm::{bucket_of, sdbm_hash};

/// A request annotated with its fetched key.
#[derive(Debug, Clone, Copy)]
struct Keyed {
    req: DbRequest,
    key: IndexKey,
}

/// A request heading for Install / HeadFetch with its bucket resolved.
#[derive(Debug, Clone, Copy)]
struct Bucketed {
    req: DbRequest,
    key: IndexKey,
    bucket_addr: u64,
}

/// A probe walking the tuple chain.
#[derive(Debug, Clone, Copy)]
struct Probe {
    req: DbRequest,
    key: IndexKey,
    tuple_addr: u64,
}

/// An insert in its final write sequence. The tuple image must land before
/// the bucket head is redirected (a concurrent probe following the head
/// must never see an unwritten tuple), and the bucket lock is held until
/// both writes have issued.
#[derive(Debug)]
struct InstallFinish {
    b: Bucketed,
    addr: u64,
    image: Option<Vec<u8>>,
    head_written: bool,
}

/// One Traverse stage: follows a hash-conflict chain, one operation at a
/// time (the stage "could involve multiple memory stalls", paper §4.4.1).
#[derive(Debug)]
struct Traverse {
    reader: AsyncReader<Probe>,
    /// Next chain read to issue (set on hand-off and on each hop).
    pending: Option<Probe>,
    /// A decoded response that could not finish (full output queue); the
    /// visibility decision is replayed next cycle.
    parked: Option<(Probe, MemData)>,
    busy: bool,
    stats: StageStats,
}

/// Per-pipeline statistics.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct HashStats {
    /// Per-stage utilization: keyfetch, hash, install, headfetch, compare.
    pub keyfetch: StageStats,
    /// Hash stage.
    pub hash: StageStats,
    /// Install stage.
    pub install: StageStats,
    /// HeadFetch stage.
    pub headfetch: StageStats,
    /// Compare stage.
    pub compare: StageStats,
    /// Cycles the Hash stage spent blocked on the lock table.
    pub lock_stalls: u64,
    /// Peak simultaneous bucket locks held.
    pub lock_peak: u64,
    /// Operations completed.
    pub completed: u64,
    /// Operations resolved in a Traverse stage (chain walk needed).
    pub traversed: u64,
}

/// The hash-index pipeline of one index coprocessor.
#[derive(Debug)]
pub struct HashPipeline {
    /// Admitted requests waiting for KeyFetch.
    pub input: Fifo<DbRequest>,
    keyfetch: AsyncReader<DbRequest>,
    hash_in: Fifo<Keyed>,
    /// Hash stage: item stalled on the lock table, if any (head-of-line).
    hash_stalled: Option<Keyed>,
    hash_rd: AsyncReader<Bucketed>,
    install_in: Fifo<(Bucketed, u64)>,
    install_rd: AsyncReader<(Bucketed, u64)>,
    /// An insert whose payload arrived and whose ordered DRAM writes
    /// (tuple image, then bucket head) are still being issued.
    install_fin: Option<InstallFinish>,
    headfetch_in: Fifo<(Bucketed, u64)>,
    headfetch_rd: AsyncReader<Probe>,
    compare_in: Fifo<(Probe, MemData)>,
    traverse: Vec<Traverse>,
    lock: LockTable<(u8, u64)>,
    hazard_prevention: bool,
    /// Completed responses, drained by the coprocessor facade.
    pub out: Fifo<DbResponse>,
    stats: HashStats,
}

impl HashPipeline {
    /// Build the pipeline, registering DRAM ports for every stage.
    pub fn new(
        dram: &mut Dram,
        fifo_depth: usize,
        slots: usize,
        traverse_stages: usize,
        hazard_prevention: bool,
    ) -> Self {
        HashPipeline {
            input: Fifo::new(fifo_depth.max(32)),
            keyfetch: AsyncReader::new(dram, slots),
            hash_in: Fifo::new(fifo_depth),
            hash_stalled: None,
            hash_rd: AsyncReader::new(dram, slots),
            install_in: Fifo::new(fifo_depth),
            install_rd: AsyncReader::new(dram, slots),
            install_fin: None,
            headfetch_in: Fifo::new(fifo_depth),
            headfetch_rd: AsyncReader::new(dram, slots),
            compare_in: Fifo::new(fifo_depth),
            traverse: (0..traverse_stages.max(1))
                .map(|_| Traverse {
                    reader: AsyncReader::new(dram, 1),
                    pending: None,
                    parked: None,
                    busy: false,
                    stats: StageStats::default(),
                })
                .collect(),
            lock: LockTable::new(256),
            hazard_prevention,
            out: Fifo::new(64),
            stats: HashStats::default(),
        }
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> HashStats {
        let mut s = self.stats;
        s.lock_peak = self.lock.peak() as u64;
        s
    }

    /// Per-Traverse-stage utilization counters (one entry per chain-walk
    /// stage; the fixed stages are in [`HashStats`]).
    pub fn traverse_stats(&self) -> Vec<StageStats> {
        self.traverse.iter().map(|t| t.stats).collect()
    }

    /// True when hazard prevention currently holds the bucket lock for
    /// `(table, bucket)`. Consulted by the batch engine so a batched head
    /// wave honours the same head-of-line rule as the Hash stage: no probe
    /// reads a bucket head while an in-flight insert owns that bucket.
    pub(crate) fn bucket_locked(&self, table: u8, bucket: u64) -> bool {
        self.hazard_prevention && self.lock.is_locked(&(table, bucket))
    }

    /// True when no operation is anywhere in the pipeline.
    pub fn is_idle(&self) -> bool {
        self.input.is_empty()
            && self.keyfetch.is_idle()
            && self.hash_in.is_empty()
            && self.hash_stalled.is_none()
            && self.hash_rd.is_idle()
            && self.install_in.is_empty()
            && self.install_rd.is_idle()
            && self.install_fin.is_none()
            && self.headfetch_in.is_empty()
            && self.headfetch_rd.is_idle()
            && self.compare_in.is_empty()
            && self.traverse.iter().all(|t| !t.busy)
            && self.out.is_empty()
    }

    /// Fast-forward support: `Some(now + 1)` when any stage could make
    /// progress, attempt a DRAM issue, or mutate a statistic on the next
    /// tick; `None` when every occupied stage is purely waiting on a DRAM
    /// response (bounded by the DRAM's own `next_event` at machine level).
    pub fn next_event(&self, now: u64) -> Option<u64> {
        let busy = self.keyfetch.has_ready()
            || (self.keyfetch.can_issue() && !self.input.is_empty())
            || self.hash_rd.has_ready()
            || self.hash_stalled.is_some()
            || !self.hash_in.is_empty()
            || self.install_fin.is_some()
            || self.install_rd.has_ready()
            || (self.install_rd.can_issue() && !self.install_in.is_empty())
            || self.headfetch_rd.has_ready()
            || self
                .headfetch_in
                .peek()
                .is_some_and(|&(_, head)| head == 0 || self.headfetch_rd.can_issue())
            || !self.compare_in.is_empty()
            || self
                .traverse
                .iter()
                .any(|t| t.pending.is_some() || t.parked.is_some() || t.reader.has_ready());
        if busy {
            Some(now + 1)
        } else {
            None
        }
    }

    /// Fast-forward support: account for `k` skipped pure-wait cycles. The
    /// only per-cycle bookkeeping a pure-wait tick performs here is the
    /// stall counter of a busy Traverse stage whose chain read is still in
    /// flight (every other stalled configuration reports `now + 1` from
    /// [`Self::next_event`] and is never skipped).
    pub fn skip(&mut self, k: u64) {
        for t in &mut self.traverse {
            if t.busy && t.pending.is_none() && t.parked.is_none() && !t.reader.has_ready() {
                // A held-but-unprogressable span is `Waiting` under the
                // unified wave-accounting rule (`StageStats::wave_skip`).
                t.stats.wave_skip(WaveState::Waiting, k);
            }
        }
    }

    /// Advance every stage by one cycle. Stages tick downstream-first so a
    /// value leaving a stage frees its slot within the same cycle.
    pub fn tick(&mut self, now: u64, dram: &mut Dram, tables: &mut [TableState]) {
        self.tick_traverse(now, dram);
        self.tick_compare(now, dram);
        self.tick_headfetch(now, dram);
        self.tick_install(now, dram, tables);
        self.tick_hash(now, dram, tables);
        self.tick_keyfetch(now, dram, tables);
    }

    fn writeback(
        out: &mut Fifo<DbResponse>,
        stats: &mut HashStats,
        req: &DbRequest,
        r: DbResult,
    ) -> bool {
        match out.push(DbResponse {
            cp: req.cp,
            value: r.encode(),
        }) {
            Ok(()) => {
                stats.completed += 1;
                true
            }
            Err(_) => false,
        }
    }

    // ---- KeyFetch ----
    fn tick_keyfetch(&mut self, now: u64, dram: &mut Dram, tables: &[TableState]) {
        self.keyfetch.poll(dram);
        // Forward one completed key per cycle.
        if self.hash_in.has_space() {
            if let Some((req, data)) = self.keyfetch.pop_ready() {
                let key = IndexKey::from_bytes(&data);
                self.hash_in
                    .push(Keyed { req, key })
                    .expect("hash_in space checked");
                self.stats.keyfetch.work(1);
            }
        }
        // Admit one new request per cycle.
        if self.keyfetch.can_issue() {
            if let Some(req) = self.input.peek().copied() {
                let key_len = tables[req.table.0 as usize].meta.key_len as u32;
                if self
                    .keyfetch
                    .issue(now, dram, req.key_addr, key_len, req)
                    .is_ok()
                {
                    self.input.pop();
                }
            }
        }
    }

    // ---- Hash ----
    fn tick_hash(&mut self, now: u64, dram: &mut Dram, tables: &[TableState]) {
        self.hash_rd.poll(dram);
        // Route one completed bucket-head read.
        if let Some((b, _)) = self.hash_rd.peek_ready() {
            let is_insert = b.req.op == DbOp::Insert;
            let dest_has_space = if is_insert {
                self.install_in.has_space()
            } else {
                self.headfetch_in.has_space()
            };
            if dest_has_space {
                let (b, data) = self.hash_rd.pop_ready().expect("peeked");
                let head = u64::from_le_bytes(data.as_slice().try_into().expect("8 bytes"));
                if is_insert {
                    self.install_in.push((b, head)).expect("space checked");
                } else {
                    self.headfetch_in.push((b, head)).expect("space checked");
                }
                self.stats.hash.work(1);
            }
        }
        // Process one incoming keyed request (head-of-line blocking on the
        // lock table, paper Fig. 6b).
        let item = self.hash_stalled.take().or_else(|| self.hash_in.pop());
        if let Some(item) = item {
            let table = &tables[item.req.table.0 as usize];
            let h = sdbm_hash(item.key.as_bytes());
            let bucket = bucket_of(h, table.meta.hash_buckets);
            let lock_key = (item.req.table.0, bucket);
            if self.hazard_prevention && self.lock.is_locked(&lock_key) {
                self.stats.lock_stalls += 1;
                self.stats.hash.stall();
                self.hash_stalled = Some(item);
                return;
            }
            if !self.hash_rd.can_issue() {
                self.stats.hash.stall();
                self.hash_stalled = Some(item);
                return;
            }
            if self.hazard_prevention
                && item.req.op == DbOp::Insert
                && !self.lock.try_lock(lock_key)
            {
                self.stats.lock_stalls += 1;
                self.stats.hash.stall();
                self.hash_stalled = Some(item);
                return;
            }
            let bucket_addr = table.bucket_addr(bucket);
            let b = Bucketed {
                req: item.req,
                key: item.key,
                bucket_addr,
            };
            if self.hash_rd.issue(now, dram, bucket_addr, 8, b).is_err() {
                // DRAM controller busy: undo the lock and retry next cycle.
                if self.hazard_prevention && item.req.op == DbOp::Insert {
                    self.lock.unlock(&lock_key);
                }
                self.stats.hash.stall();
                self.hash_stalled = Some(item);
            }
        }
    }

    // ---- Install (INSERT path) ----
    fn tick_install(&mut self, now: u64, dram: &mut Dram, tables: &mut [TableState]) {
        self.install_rd.poll(dram);
        // Drive the in-progress write sequence, if any.
        if let Some(fin) = &mut self.install_fin {
            if let Some(image) = fin.image.take() {
                if !self.install_rd.write(now, dram, fin.addr, image.clone()) {
                    fin.image = Some(image);
                    self.stats.install.stall();
                    return;
                }
            }
            if !fin.head_written {
                let data = fin.addr.to_le_bytes().to_vec();
                if !self.install_rd.write(now, dram, fin.b.bucket_addr, data) {
                    self.stats.install.stall();
                    return;
                }
                fin.head_written = true;
            }
            if !self.out.has_space() {
                self.stats.install.stall();
                return;
            }
            let fin = self.install_fin.take().expect("checked");
            if self.hazard_prevention {
                let table = &tables[fin.b.req.table.0 as usize];
                let h = sdbm_hash(fin.b.key.as_bytes());
                self.lock
                    .unlock(&(fin.b.req.table.0, bucket_of(h, table.meta.hash_buckets)));
            }
            let ok = Self::writeback(
                &mut self.out,
                &mut self.stats,
                &fin.b.req,
                DbResult::Ok(fin.addr),
            );
            debug_assert!(ok, "out space checked");
            self.stats.install.work(1);
        }
        // Promote one insert whose payload has arrived into the write
        // sequence.
        if self.install_fin.is_none() {
            if let Some(((b, head), payload)) = self.install_rd.pop_ready() {
                let table = &mut tables[b.req.table.0 as usize];
                let addr = table.alloc_tuple();
                let mut image = Vec::with_capacity(table.tuple_size() as usize);
                image.extend_from_slice(&head.to_le_bytes()); // next = old head
                let hdr = RecordHeader {
                    write_ts: b.req.ts,
                    read_ts: 0,
                    flags: layout::FLAG_DIRTY,
                    key: b.key,
                };
                image.extend_from_slice(&hdr.encode());
                image.extend_from_slice(&payload);
                self.install_fin = Some(InstallFinish {
                    b,
                    addr,
                    image: Some(image),
                    head_written: false,
                });
            }
        }
        // Start fetching one payload.
        if self.install_rd.can_issue() {
            if let Some(&(b, _head)) = self.install_in.peek() {
                let len = tables[b.req.table.0 as usize].meta.payload_len;
                let item = self.install_in.pop().expect("peeked");
                if self
                    .install_rd
                    .issue(now, dram, b.req.payload_addr, len, item)
                    .is_err()
                {
                    self.install_in.push(item).expect("just popped");
                    self.stats.install.stall();
                }
            }
        }
    }

    // ---- HeadFetch ----
    fn tick_headfetch(&mut self, now: u64, dram: &mut Dram) {
        self.headfetch_rd.poll(dram);
        if self.compare_in.has_space() {
            if let Some((p, data)) = self.headfetch_rd.pop_ready() {
                self.compare_in.push((p, data)).expect("space checked");
                self.stats.headfetch.work(1);
            }
        }
        if let Some(&(b, head)) = self.headfetch_in.peek() {
            if head == 0 {
                // Empty bucket: NotFound straight from HeadFetch.
                if Self::writeback(
                    &mut self.out,
                    &mut self.stats,
                    &b.req,
                    DbResult::Err(DbStatus::NotFound),
                ) {
                    self.headfetch_in.pop();
                    self.stats.headfetch.work(1);
                } else {
                    self.stats.headfetch.stall();
                }
            } else if self.headfetch_rd.can_issue() {
                let probe = Probe {
                    req: b.req,
                    key: b.key,
                    tuple_addr: head,
                };
                if self
                    .headfetch_rd
                    .issue(now, dram, head, (TUPLE_HEADER + HEADER_SIZE) as u32, probe)
                    .is_ok()
                {
                    self.headfetch_in.pop();
                } else {
                    self.stats.headfetch.stall();
                }
            }
        }
    }

    // ---- Compare ----
    fn tick_compare(&mut self, _now: u64, dram: &mut Dram) {
        let Some((p, data)) = self.compare_in.peek() else {
            return;
        };
        let p = *p;
        let data = data.as_slice();
        let next = u64::from_le_bytes(data[0..8].try_into().expect("next ptr"));
        let hdr = RecordHeader::decode(&data[TUPLE_HEADER as usize..]);
        if hdr.key == p.key {
            if !self.out.has_space() {
                self.stats.compare.stall();
                return;
            }
            self.compare_in.pop();
            self.finish_probe(dram, &p, &hdr, p.tuple_addr);
            self.stats.compare.work(1);
        } else if next == 0 {
            if Self::writeback(
                &mut self.out,
                &mut self.stats,
                &p.req,
                DbResult::Err(DbStatus::NotFound),
            ) {
                self.compare_in.pop();
                self.stats.compare.work(1);
            } else {
                self.stats.compare.stall();
            }
        } else {
            // Hand off to a free Traverse stage.
            if let Some(t) = self.traverse.iter_mut().find(|t| !t.busy) {
                self.compare_in.pop();
                let probe = Probe {
                    req: p.req,
                    key: p.key,
                    tuple_addr: next,
                };
                t.pending = Some(probe);
                t.busy = true;
                self.stats.compare.work(1);
                self.stats.traversed += 1;
            } else {
                self.stats.compare.stall();
            }
        }
    }

    // ---- Traverse ----
    fn tick_traverse(&mut self, now: u64, dram: &mut Dram) {
        for ti in 0..self.traverse.len() {
            self.traverse[ti].reader.poll(dram);
            if !self.traverse[ti].busy {
                continue;
            }
            if let Some(probe) = self.traverse[ti].pending.take() {
                // Issue the read of the next chain tuple.
                let t = &mut self.traverse[ti];
                if t.reader
                    .issue(
                        now,
                        dram,
                        probe.tuple_addr,
                        (TUPLE_HEADER + HEADER_SIZE) as u32,
                        probe,
                    )
                    .is_err()
                {
                    t.pending = Some(probe);
                    t.stats.stall();
                }
                continue;
            }
            let item = self.traverse[ti]
                .parked
                .take()
                .or_else(|| self.traverse[ti].reader.pop_ready());
            let Some((p, data)) = item else {
                self.traverse[ti].stats.stall();
                continue;
            };
            let next = u64::from_le_bytes(data.as_slice()[0..8].try_into().expect("next ptr"));
            let hdr = RecordHeader::decode(&data.as_slice()[TUPLE_HEADER as usize..]);
            if hdr.key == p.key {
                if !self.out.has_space() {
                    self.traverse[ti].parked = Some((p, data));
                    self.traverse[ti].stats.stall();
                    continue;
                }
                self.finish_probe(dram, &p, &hdr, p.tuple_addr);
                self.traverse[ti].busy = false;
                self.traverse[ti].stats.work(1);
            } else if next == 0 {
                if Self::writeback(
                    &mut self.out,
                    &mut self.stats,
                    &p.req,
                    DbResult::Err(DbStatus::NotFound),
                ) {
                    self.traverse[ti].busy = false;
                    self.traverse[ti].stats.work(1);
                } else {
                    self.traverse[ti].parked = Some((p, data));
                    self.traverse[ti].stats.stall();
                }
            } else {
                self.traverse[ti].pending = Some(Probe {
                    req: p.req,
                    key: p.key,
                    tuple_addr: next,
                });
                self.traverse[ti].stats.work(1);
            }
        }
    }

    /// Run the visibility check as an atomic header read-modify-write (the
    /// terminal stage holds the header line for the check + update; see
    /// [`cc::check_and_apply`]). The pipelined header copy (`hdr`) is only
    /// trusted for the immutable key; the CC metadata is re-read.
    fn finish_probe(&mut self, dram: &mut Dram, p: &Probe, hdr: &RecordHeader, addr: u64) {
        debug_assert_eq!(hdr.key, p.key);
        let result = cc::check_and_apply(dram, addr + TUPLE_HEADER, p.req.op, p.req.ts, addr);
        let ok = Self::writeback(&mut self.out, &mut self.stats, &p.req, result);
        debug_assert!(ok, "caller checked out space");
        let _ = TUPLE_PAYLOAD;
    }
}

#[cfg(test)]
mod tests {
    // The hash pipeline is exercised end-to-end through the IndexCoproc
    // facade in `coproc.rs` tests and the crate-level integration tests.
}
