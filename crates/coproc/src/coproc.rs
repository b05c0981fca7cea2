//! The index coprocessor facade: admission control, routing, write-back.
//!
//! One [`IndexCoproc`] serves one partition worker. The worker glue pushes
//! DB requests into [`IndexCoproc::input`] — foreground requests from the
//! local softcore and background requests caught on the on-chip request
//! channel (paper §4.2 step 4) — and drains completed [`DbResponse`]s from
//! [`IndexCoproc::out`], routing each to the local CP register file or back
//! over the response channel.
//!
//! The coprocessor bounds the number of in-flight DB instructions
//! ([`CoprocConfig::max_inflight`]); this is the "index parallelism" knob
//! swept on the x-axis of the paper's Figs. 10 and 11.

use bionicdb_fpga::{Dram, Fifo, FpgaConfig};
use bionicdb_softcore::catalogue::IndexKind;
use bionicdb_softcore::request::{BatchMode, DbOp, DbRequest, DbResponse};
use bionicdb_softcore::{DbResult, DbStatus};

use crate::batch::{BatchEngine, BatchStats};
use crate::hash::{HashPipeline, HashStats};
use crate::layout::TableState;
use crate::skiplist::{SkipPipeline, SkipStats};

/// Configuration of one index coprocessor.
#[derive(Debug, Clone, Copy)]
pub struct CoprocConfig {
    /// Depth of inter-stage FIFOs.
    pub fifo_depth: usize,
    /// Outstanding-request slots per multi-slot stage.
    pub slots: usize,
    /// Number of hash Traverse stages.
    pub traverse_stages: usize,
    /// Total skiplist stages (including the bottom stage).
    pub skiplist_stages: usize,
    /// Number of scanner modules.
    pub scanners: usize,
    /// Skiplist maximum tower height.
    pub max_level: usize,
    /// Maximum in-flight DB instructions over this coprocessor.
    pub max_inflight: usize,
    /// Enable the BRAM lock tables (paper's hazard prevention). Disabling
    /// them reproduces the anomalies of paper Figs. 6a and 7a.
    pub hazard_prevention: bool,
    /// Maximum probes per level-wise traversal batch (see [`BatchEngine`]).
    /// Ignored while `batch_mode` is `Off`.
    pub batch_width: usize,
    /// Probe-batching mode. `Off` (the default) is bit-inert: the batch
    /// engines are not even constructed, so no extra DRAM ports exist.
    pub batch_mode: BatchMode,
}

impl CoprocConfig {
    /// Derive from the fabric configuration.
    pub fn from_fpga(cfg: &FpgaConfig) -> Self {
        CoprocConfig {
            fifo_depth: cfg.stage_fifo_depth,
            slots: 4,
            traverse_stages: cfg.hash_traverse_stages,
            skiplist_stages: cfg.skiplist_stages,
            scanners: cfg.skiplist_scanners,
            max_level: cfg.skiplist_max_level,
            max_inflight: cfg.max_inflight_db,
            hazard_prevention: true,
            batch_width: 8,
            batch_mode: BatchMode::Off,
        }
    }
}

/// Aggregate statistics of one coprocessor.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CoprocStats {
    /// Requests admitted into a pipeline.
    pub admitted: u64,
    /// Responses completed.
    pub completed: u64,
    /// Requests rejected as malformed (wrong index kind for the op).
    pub bad_requests: u64,
    /// Integral of in-flight count over cycles (for mean occupancy).
    pub inflight_integral: u64,
    /// Cycles observed.
    pub cycles: u64,
}

impl CoprocStats {
    /// Mean number of in-flight operations per cycle.
    pub fn mean_inflight(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.inflight_integral as f64 / self.cycles as f64
        }
    }
}

/// One partition worker's index coprocessor.
#[derive(Debug)]
pub struct IndexCoproc {
    /// Request admission queue (foreground + background merged).
    pub input: Fifo<DbRequest>,
    hash: HashPipeline,
    skip: SkipPipeline,
    /// Level-wise batched probe engines (hash, skiplist). `None` when
    /// [`CoprocConfig::batch_mode`] is `Off` — construction would register
    /// DRAM ports, which the bit-inert default must not do.
    batch_hash: Option<BatchEngine>,
    batch_skip: Option<BatchEngine>,
    inflight: usize,
    max_inflight: usize,
    /// Completed responses for the worker glue to route.
    pub out: Fifo<DbResponse>,
    stats: CoprocStats,
}

impl IndexCoproc {
    /// Build a coprocessor, registering all stage ports on `dram`.
    pub fn new(cfg: &CoprocConfig, dram: &mut Dram) -> Self {
        IndexCoproc {
            input: Fifo::new(64),
            hash: HashPipeline::new(
                dram,
                cfg.fifo_depth,
                cfg.slots,
                cfg.traverse_stages,
                cfg.hazard_prevention,
            ),
            skip: SkipPipeline::new(
                dram,
                cfg.fifo_depth,
                cfg.slots,
                cfg.skiplist_stages,
                cfg.scanners,
                cfg.max_level,
                cfg.hazard_prevention,
            ),
            batch_hash: (cfg.batch_mode != BatchMode::Off)
                .then(|| BatchEngine::new(dram, IndexKind::Hash, cfg.batch_width)),
            batch_skip: (cfg.batch_mode != BatchMode::Off)
                .then(|| BatchEngine::new(dram, IndexKind::Skiplist, cfg.batch_width)),
            inflight: 0,
            max_inflight: cfg.max_inflight,
            out: Fifo::new(64),
            stats: CoprocStats::default(),
        }
    }

    /// Change the in-flight bound (used by the Fig. 10/11 sweeps).
    pub fn set_max_inflight(&mut self, n: usize) {
        self.max_inflight = n.max(1);
    }

    /// Current number of admitted-but-incomplete operations.
    pub fn inflight(&self) -> usize {
        self.inflight
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> CoprocStats {
        self.stats
    }

    /// Hash pipeline statistics.
    pub fn hash_stats(&self) -> HashStats {
        self.hash.stats()
    }

    /// Skiplist pipeline statistics.
    pub fn skip_stats(&self) -> SkipStats {
        self.skip.stats()
    }

    /// Batch-engine counters when batching is enabled: `(hash, skiplist)`.
    pub fn batch_stats(&self) -> Option<(BatchStats, BatchStats)> {
        match (&self.batch_hash, &self.batch_skip) {
            (Some(h), Some(s)) => Some((h.stats(), s.stats())),
            _ => None,
        }
    }

    /// Every pipeline stage's utilization counters under one label each:
    /// the hash pipeline's fixed stages and Traverse stages, then the
    /// skiplist's traversal/bottom/scanner stages. This is the per-stage
    /// occupancy export the `MachineReport` aggregates.
    pub fn stage_report(&self) -> Vec<(String, bionicdb_fpga::stats::StageStats)> {
        let h = self.hash.stats();
        let mut v = vec![
            ("hash.keyfetch".to_string(), h.keyfetch),
            ("hash.hash".to_string(), h.hash),
            ("hash.install".to_string(), h.install),
            ("hash.headfetch".to_string(), h.headfetch),
            ("hash.compare".to_string(), h.compare),
        ];
        for (i, t) in self.hash.traverse_stats().into_iter().enumerate() {
            v.push((format!("hash.traverse[{i}]"), t));
        }
        v.extend(self.skip.stage_stats());
        // Only present when batching is on, keeping mode-off reports
        // byte-identical.
        if let Some(b) = &self.batch_hash {
            v.push(("batch.hash".to_string(), b.stage_stats()));
        }
        if let Some(b) = &self.batch_skip {
            v.push(("batch.skip".to_string(), b.stage_stats()));
        }
        v
    }

    /// True when nothing is queued or executing.
    pub fn is_idle(&self) -> bool {
        self.input.is_empty()
            && self.inflight == 0
            && self.hash.is_idle()
            && self.skip.is_idle()
            && self.batch_hash.as_ref().is_none_or(BatchEngine::is_idle)
            && self.batch_skip.as_ref().is_none_or(BatchEngine::is_idle)
            && self.out.is_empty()
    }

    /// Fast-forward support: the earliest future cycle at which admission,
    /// collection, or either pipeline could make progress or mutate a
    /// statistic. `None` when everything in flight is purely waiting on
    /// DRAM. The per-cycle `cycles`/`inflight_integral` accounting is *not*
    /// an event — [`Self::skip`] replays it in bulk for skipped spans.
    pub fn next_event(&self, now: u64) -> Option<u64> {
        if !self.hash.out.is_empty()
            || !self.skip.out.is_empty()
            || (!self.input.is_empty() && self.inflight < self.max_inflight)
        {
            return Some(now + 1);
        }
        [
            self.hash.next_event(now),
            self.skip.next_event(now),
            self.batch_hash.as_ref().and_then(|b| b.next_event(now)),
            self.batch_skip.as_ref().and_then(|b| b.next_event(now)),
        ]
        .into_iter()
        .flatten()
        .min()
    }

    /// Fast-forward support: account for `k` skipped cycles. The coproc
    /// accrues `cycles` and `inflight_integral` on *every* tick (idle or
    /// not), so the machine must call this for every skipped span.
    pub fn skip(&mut self, k: u64) {
        self.stats.cycles += k;
        self.stats.inflight_integral += self.inflight as u64 * k;
        self.hash.skip(k);
        self.skip.skip(k);
        if let Some(b) = &mut self.batch_hash {
            b.skip(k);
        }
        if let Some(b) = &mut self.batch_skip {
            b.skip(k);
        }
    }

    /// Advance the coprocessor by one cycle.
    pub fn tick(&mut self, now: u64, dram: &mut Dram, tables: &mut [TableState]) {
        self.stats.cycles += 1;
        self.stats.inflight_integral += self.inflight as u64;

        // Collect completions from both pipelines and the batch engines.
        while self.out.has_space() {
            let resp = self
                .hash
                .out
                .pop()
                .or_else(|| self.skip.out.pop())
                .or_else(|| self.batch_hash.as_mut().and_then(BatchEngine::pop_out))
                .or_else(|| self.batch_skip.as_mut().and_then(BatchEngine::pop_out));
            let Some(resp) = resp else {
                break;
            };
            self.out.push(resp).expect("space checked");
            self.inflight -= 1;
            self.stats.completed += 1;
        }

        self.hash.tick(now, dram, tables);
        self.skip.tick(now, dram, tables);
        if let Some(b) = &mut self.batch_hash {
            b.tick(now, dram, tables, Some(&self.hash));
        }
        if let Some(b) = &mut self.batch_skip {
            b.tick(now, dram, tables, None);
        }

        // Admit new requests under the in-flight bound.
        while self.inflight < self.max_inflight {
            let Some(req) = self.input.peek().copied() else {
                break;
            };
            let kind = tables[req.table.0 as usize].meta.kind;
            // Tagged read-set probes divert to the level-wise batch engine
            // of their index kind (inserts and scans keep the pipelines).
            if req.batch_group != 0 && matches!(req.op, DbOp::Search | DbOp::Update | DbOp::Remove)
            {
                let engine = match kind {
                    IndexKind::Hash => self.batch_hash.as_mut(),
                    IndexKind::Skiplist => self.batch_skip.as_mut(),
                };
                if let Some(engine) = engine {
                    if engine.offer(req, now) {
                        self.input.pop();
                        self.inflight += 1;
                        self.stats.admitted += 1;
                        continue;
                    }
                    break; // engine full: head-of-line block, like a pipeline
                }
                // Mode off: an externally tagged request falls through to
                // the per-probe pipelines.
            }
            let ok = match (kind, req.op) {
                (IndexKind::Hash, DbOp::Scan) => {
                    // Scans require a skiplist; reject as malformed.
                    if self.out.has_space() {
                        self.input.pop();
                        self.out
                            .push(DbResponse {
                                cp: req.cp,
                                value: DbResult::Err(DbStatus::BadRequest).encode(),
                            })
                            .expect("space checked");
                        self.stats.bad_requests += 1;
                        continue;
                    }
                    break;
                }
                (IndexKind::Hash, _) => self.hash.input.push(req).is_ok(),
                (IndexKind::Skiplist, _) => self.skip.input.push(req).is_ok(),
            };
            if !ok {
                break;
            }
            self.input.pop();
            self.inflight += 1;
            self.stats.admitted += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bionicdb_fpga::Region;
    use bionicdb_softcore::catalogue::{TableId, TableMeta};
    use bionicdb_softcore::request::{CpSlot, PartitionId};
    use bionicdb_softcore::IndexKey;

    /// Test harness: one coprocessor over a private DRAM with one hash
    /// table (table 0) and one skiplist table (table 1).
    pub(crate) struct Rig {
        pub dram: Dram,
        pub coproc: IndexCoproc,
        pub tables: Vec<TableState>,
        pub now: u64,
        pub responses: Vec<DbResponse>,
        next_block: u64,
    }

    pub(crate) const PAYLOAD: u32 = 64;

    impl Rig {
        pub fn new(hazard_prevention: bool) -> Self {
            Self::with_batching(hazard_prevention, BatchMode::Off, 8)
        }

        /// Build a rig with the batch engines enabled (used by the batched
        /// vs. per-probe equivalence tests).
        pub fn with_batching(
            hazard_prevention: bool,
            batch_mode: BatchMode,
            batch_width: usize,
        ) -> Self {
            let fcfg = FpgaConfig::default();
            let mut dram = Dram::new(&fcfg, 64 << 20);
            let mut cfg = CoprocConfig::from_fpga(&fcfg);
            cfg.hazard_prevention = hazard_prevention;
            cfg.batch_mode = batch_mode;
            cfg.batch_width = batch_width;
            let coproc = IndexCoproc::new(&cfg, &mut dram);
            // Transaction blocks are staged below 8 MiB; table state above it.
            let mut region = Region::new(8 << 20, 48 << 20);
            let hash_meta = TableMeta::hash("h", 8, PAYLOAD, 256);
            let skip_meta = TableMeta::skiplist("s", 8, PAYLOAD);
            let hash_dir = region.alloc(8 * 256, 64);
            let skip_dir = region.alloc(8 * 20, 64);
            let tables = vec![
                TableState {
                    meta: hash_meta,
                    dir_addr: hash_dir,
                    heap: region.carve(16 << 20, 64),
                    max_level: 20,
                },
                TableState {
                    meta: skip_meta,
                    dir_addr: skip_dir,
                    heap: region.carve(16 << 20, 64),
                    max_level: 20,
                },
            ];
            Rig {
                dram,
                coproc,
                tables,
                now: 0,
                responses: Vec::new(),
                next_block: 4096,
            }
        }

        /// Stage key/payload bytes in "transaction block" space and build a
        /// request.
        pub fn req(&mut self, op: DbOp, table: u8, key: u64, ts: u64, cp: u16) -> DbRequest {
            let key_addr = self.next_block;
            let payload_addr = key_addr + 64;
            let out_addr = key_addr + 256;
            self.next_block += 4096;
            assert!(self.next_block < (8 << 20), "test rig block area exhausted");
            self.dram
                .host_write(key_addr, IndexKey::from_u64(key).as_bytes());
            let mut payload = vec![0u8; PAYLOAD as usize];
            payload[..8].copy_from_slice(&key.to_le_bytes());
            self.dram.host_write(payload_addr, &payload);
            DbRequest {
                op,
                table: TableId(table),
                key_addr,
                payload_addr,
                scan_count: 0,
                out_addr,
                ts,
                cp: CpSlot {
                    worker: PartitionId(0),
                    index: cp,
                },
                home: PartitionId(0),
                batch_group: 0,
            }
        }

        pub fn submit(&mut self, req: DbRequest) {
            self.coproc.input.push(req).expect("input space");
        }

        pub fn run_until_idle(&mut self) {
            let mut budget = 4_000_000u64;
            while !self.coproc.is_idle() || !self.coproc.out.is_empty() {
                self.now += 1;
                budget -= 1;
                assert!(
                    budget > 0,
                    "coprocessor did not go idle: {:#?}",
                    self.coproc
                );
                self.dram.tick(self.now);
                self.coproc.tick(self.now, &mut self.dram, &mut self.tables);
                while let Some(r) = self.coproc.out.pop() {
                    self.responses.push(r);
                }
            }
        }

        pub fn run_ops(&mut self, ops: Vec<DbRequest>) -> Vec<DbResult> {
            let start = self.responses.len();
            for op in ops {
                self.submit(op);
                // Keep the input queue from overflowing for large batches.
                if self.coproc.input.len() > 48 {
                    self.run_until_idle();
                }
            }
            self.run_until_idle();
            self.responses[start..]
                .iter()
                .map(|r| DbResult::decode(r.value))
                .collect()
        }

        pub fn result_for_cp(&self, cp: u16) -> DbResult {
            let r = self
                .responses
                .iter()
                .find(|r| r.cp.index == cp)
                .unwrap_or_else(|| panic!("no response for cp {cp}"));
            DbResult::decode(r.value)
        }
    }

    #[test]
    fn hash_insert_then_search_finds_tuple() {
        let mut rig = Rig::new(true);
        let ins = rig.req(DbOp::Insert, 0, 42, 10, 0);
        let results = rig.run_ops(vec![ins]);
        let addr = results[0].value().expect("insert ok");

        // Uncommitted (dirty): a later search is blindly rejected.
        let s_dirty = rig.req(DbOp::Search, 0, 42, 20, 1);
        let r = rig.run_ops(vec![s_dirty]);
        assert_eq!(r[0], DbResult::Err(DbStatus::Dirty));

        // Commit it (clear dirty, set write_ts) the way the softcore would.
        let hdr_addr = addr + crate::layout::TUPLE_HEADER;
        rig.dram.host_write_u64(hdr_addr + 16, 0); // flags = 0
        let s_ok = rig.req(DbOp::Search, 0, 42, 30, 2);
        let r = rig.run_ops(vec![s_ok]);
        assert_eq!(r[0], DbResult::Ok(addr));

        // Read timestamp advanced to 30.
        let hdr = crate::layout::read_header(&rig.dram, hdr_addr);
        assert_eq!(hdr.read_ts, 30);
    }

    #[test]
    fn hash_search_missing_key_not_found() {
        let mut rig = Rig::new(true);
        let s = rig.req(DbOp::Search, 0, 999, 10, 0);
        let r = rig.run_ops(vec![s]);
        assert_eq!(r[0], DbResult::Err(DbStatus::NotFound));
    }

    #[test]
    fn hash_chain_traversal_finds_colliding_keys() {
        // With 256 buckets and 600 keys, chains of length ≥ 2 must exist.
        // Responses complete out of order (pipelining!), so results are
        // matched by CP slot, not submission order.
        let mut rig = Rig::new(true);
        let n = 600u64;
        let inserts: Vec<_> = (0..n)
            .map(|k| rig.req(DbOp::Insert, 0, k, 10, k as u16))
            .collect();
        rig.run_ops(inserts);
        let mut addrs = vec![0u64; n as usize];
        for k in 0..n {
            let r = rig.result_for_cp(k as u16);
            addrs[k as usize] = r.value().expect("insert ok");
        }
        for &a in &addrs {
            rig.dram
                .host_write_u64(a + crate::layout::TUPLE_HEADER + 16, 0);
        }
        rig.responses.clear();
        let searches: Vec<_> = (0..n)
            .map(|k| rig.req(DbOp::Search, 0, k, 20, k as u16))
            .collect();
        rig.run_ops(searches);
        for k in 0..n {
            assert_eq!(
                rig.result_for_cp(k as u16),
                DbResult::Ok(addrs[k as usize]),
                "key {k}"
            );
        }
        assert!(
            rig.coproc.hash_stats().traversed > 0,
            "some chains were walked"
        );
    }

    #[test]
    fn hash_update_marks_dirty_and_conflicts_reject() {
        let mut rig = Rig::new(true);
        let ins = rig.req(DbOp::Insert, 0, 7, 10, 0);
        let res = rig.run_ops(vec![ins]);
        let addr = res[0].value().unwrap();
        rig.dram
            .host_write_u64(addr + crate::layout::TUPLE_HEADER + 16, 0);

        let upd = rig.req(DbOp::Update, 0, 7, 20, 1);
        let res = rig.run_ops(vec![upd]);
        assert_eq!(res[0], DbResult::Ok(addr));
        let hdr = crate::layout::read_header(&rig.dram, addr + crate::layout::TUPLE_HEADER);
        assert!(hdr.is_dirty());

        // Another transaction hitting the dirty tuple gets rejected.
        let s = rig.req(DbOp::Search, 0, 7, 30, 2);
        let res = rig.run_ops(vec![s]);
        assert_eq!(res[0], DbResult::Err(DbStatus::Dirty));
    }

    #[test]
    fn hash_update_rejected_by_later_reader_timestamp() {
        let mut rig = Rig::new(true);
        let ins = rig.req(DbOp::Insert, 0, 7, 10, 0);
        let res = rig.run_ops(vec![ins]);
        let addr = res[0].value().unwrap();
        rig.dram
            .host_write_u64(addr + crate::layout::TUPLE_HEADER + 16, 0);

        // Reader at ts=50 bumps read_ts.
        let s = rig.req(DbOp::Search, 0, 7, 50, 1);
        rig.run_ops(vec![s]);
        // Writer at ts=40 must be rejected (write below read_ts).
        let upd = rig.req(DbOp::Update, 0, 7, 40, 2);
        let res = rig.run_ops(vec![upd]);
        assert_eq!(res[0], DbResult::Err(DbStatus::CcConflict));
    }

    #[test]
    fn hash_remove_sets_tombstone_and_hides_tuple() {
        let mut rig = Rig::new(true);
        let ins = rig.req(DbOp::Insert, 0, 5, 10, 0);
        let res = rig.run_ops(vec![ins]);
        let addr = res[0].value().unwrap();
        rig.dram
            .host_write_u64(addr + crate::layout::TUPLE_HEADER + 16, 0);

        let rm = rig.req(DbOp::Remove, 0, 5, 20, 1);
        let res = rig.run_ops(vec![rm]);
        assert_eq!(res[0], DbResult::Ok(addr));
        // Simulate commit of the remove: clear dirty, keep tombstone.
        rig.dram.host_write_u64(
            addr + crate::layout::TUPLE_HEADER + 16,
            crate::layout::FLAG_TOMBSTONE,
        );
        let s = rig.req(DbOp::Search, 0, 5, 30, 2);
        let res = rig.run_ops(vec![s]);
        assert_eq!(res[0], DbResult::Err(DbStatus::NotFound));
    }

    #[test]
    fn insert_after_insert_hazard_prevented_by_lock_table() {
        // Two concurrent inserts of keys that share a bucket. With hazard
        // prevention both survive on the chain; without it, the classic
        // lost-update of paper Fig. 6a occurs.
        let colliding_pair = |rig: &mut Rig| {
            // Find two keys in the same bucket of the 256-entry table.
            let h0 = crate::sdbm::bucket_of(
                crate::sdbm::sdbm_hash(IndexKey::from_u64(1).as_bytes()),
                256,
            );
            let k2 = (2..)
                .find(|&k| {
                    crate::sdbm::bucket_of(
                        crate::sdbm::sdbm_hash(IndexKey::from_u64(k).as_bytes()),
                        256,
                    ) == h0
                })
                .unwrap();
            let a = rig.req(DbOp::Insert, 0, 1, 10, 0);
            let b = rig.req(DbOp::Insert, 0, k2, 11, 1);
            (a, b, k2)
        };

        // With prevention: both keys findable.
        let mut rig = Rig::new(true);
        let (a, b, k2) = colliding_pair(&mut rig);
        let res = rig.run_ops(vec![a, b]);
        for r in &res {
            let addr = r.value().expect("insert ok");
            rig.dram
                .host_write_u64(addr + crate::layout::TUPLE_HEADER + 16, 0);
        }
        let s1 = rig.req(DbOp::Search, 0, 1, 20, 2);
        let s2 = rig.req(DbOp::Search, 0, k2, 20, 3);
        let res = rig.run_ops(vec![s1, s2]);
        assert!(
            res[0].is_ok() && res[1].is_ok(),
            "both inserts survive with lock table"
        );
        assert!(
            rig.coproc.hash_stats().lock_stalls > 0,
            "second insert stalled"
        );

        // Without prevention: the first insert is lost (both saw head=NULL).
        let mut rig = Rig::new(false);
        let (a, b, k2) = colliding_pair(&mut rig);
        let res = rig.run_ops(vec![a, b]);
        for r in &res {
            let addr = r.value().expect("insert 'ok' (but racy)");
            rig.dram
                .host_write_u64(addr + crate::layout::TUPLE_HEADER + 16, 0);
        }
        let s1 = rig.req(DbOp::Search, 0, 1, 20, 2);
        let s2 = rig.req(DbOp::Search, 0, k2, 20, 3);
        let res = rig.run_ops(vec![s1, s2]);
        let found = res.iter().filter(|r| r.is_ok()).count();
        assert_eq!(
            found, 1,
            "insert-after-insert hazard loses one tuple without locks"
        );
    }

    #[test]
    fn scan_on_hash_table_is_bad_request() {
        let mut rig = Rig::new(true);
        let mut s = rig.req(DbOp::Scan, 0, 1, 10, 0);
        s.scan_count = 5;
        let res = rig.run_ops(vec![s]);
        assert_eq!(res[0], DbResult::Err(DbStatus::BadRequest));
    }

    // ----- skiplist -----

    fn commit_all(rig: &mut Rig, addrs: &[u64]) {
        for &a in addrs {
            // Tower header is at offset 0; flags at +16.
            rig.dram.host_write_u64(a + 16, 0);
        }
    }

    #[test]
    fn skiplist_insert_search_roundtrip() {
        let mut rig = Rig::new(true);
        let keys = [50u64, 10, 30, 70, 20, 60, 40];
        let inserts: Vec<_> = keys
            .iter()
            .enumerate()
            .map(|(i, &k)| rig.req(DbOp::Insert, 1, k, 10, i as u16))
            .collect();
        let res = rig.run_ops(inserts);
        let addrs: Vec<u64> = res.iter().map(|r| r.value().expect("insert ok")).collect();
        commit_all(&mut rig, &addrs);
        for (i, &k) in keys.iter().enumerate() {
            let s = rig.req(DbOp::Search, 1, k, 20, (10 + i) as u16);
            let res = rig.run_ops(vec![s]);
            assert_eq!(res[0], DbResult::Ok(addrs[i]), "key {k}");
        }
        // Missing keys are NotFound.
        let s = rig.req(DbOp::Search, 1, 55, 20, 40);
        let res = rig.run_ops(vec![s]);
        assert_eq!(res[0], DbResult::Err(DbStatus::NotFound));
    }

    #[test]
    fn skiplist_scan_returns_sorted_visible_range() {
        let mut rig = Rig::new(true);
        let keys: Vec<u64> = (0..40).map(|i| i * 10).collect();
        let inserts: Vec<_> = keys
            .iter()
            .enumerate()
            .map(|(i, &k)| rig.req(DbOp::Insert, 1, k, 10, (i % 60) as u16))
            .collect();
        let res = rig.run_ops(inserts);
        let addrs: Vec<u64> = res.iter().map(|r| r.value().expect("insert ok")).collect();
        commit_all(&mut rig, &addrs);

        // Scan 10 tuples from key 95 -> keys 100,110,...,190.
        let mut s = rig.req(DbOp::Scan, 1, 95, 20, 63);
        s.scan_count = 10;
        let out_addr = s.out_addr;
        let res = rig.run_ops(vec![s]);
        assert_eq!(res[0], DbResult::Ok(10));
        for i in 0..10u64 {
            let got = rig.dram.host_read(out_addr + i * PAYLOAD as u64, 8);
            let k = u64::from_le_bytes(got.try_into().unwrap());
            assert_eq!(k, 100 + i * 10, "scan result {i} in key order");
        }
    }

    #[test]
    fn skiplist_scan_skips_uncommitted_and_future_tuples() {
        let mut rig = Rig::new(true);
        let inserts: Vec<_> = (0..10u64)
            .map(|k| rig.req(DbOp::Insert, 1, k, 10, k as u16))
            .collect();
        let res = rig.run_ops(inserts);
        let addrs: Vec<u64> = res.iter().map(|r| r.value().unwrap()).collect();
        // Commit only even keys; key 4 stays dirty.
        for (k, &a) in addrs.iter().enumerate() {
            if k % 2 == 0 && k != 4 {
                rig.dram.host_write_u64(a + 16, 0);
            }
        }
        let mut s = rig.req(DbOp::Scan, 1, 0, 20, 30);
        s.scan_count = 10;
        let res = rig.run_ops(vec![s]);
        // Visible: keys 0, 2, 6, 8 (committed, ts 10 <= 20).
        assert_eq!(res[0], DbResult::Ok(4));
    }

    #[test]
    fn skiplist_scan_stops_at_count_and_end() {
        let mut rig = Rig::new(true);
        let inserts: Vec<_> = (0..5u64)
            .map(|k| rig.req(DbOp::Insert, 1, k, 10, k as u16))
            .collect();
        let res = rig.run_ops(inserts);
        let addrs: Vec<u64> = res.iter().map(|r| r.value().unwrap()).collect();
        commit_all(&mut rig, &addrs);
        let mut s = rig.req(DbOp::Scan, 1, 0, 20, 30);
        s.scan_count = 50; // longer than the table
        let res = rig.run_ops(vec![s]);
        assert_eq!(res[0], DbResult::Ok(5), "scan stops at end of list");
    }

    #[test]
    fn skiplist_concurrent_inserts_all_linked_at_every_level() {
        // Pipelined inserts of shuffled keys; afterwards every level-0 link
        // must contain all keys in order, and upper levels must be
        // consistent sub-chains (no lost towers — paper Fig. 7).
        let mut rig = Rig::new(true);
        let mut keys: Vec<u64> = (0..300).map(|i| (i * 37) % 1000).collect();
        keys.sort_unstable();
        keys.dedup();
        let shuffled: Vec<u64> = keys.iter().rev().copied().collect();
        let inserts: Vec<_> = shuffled
            .iter()
            .enumerate()
            .map(|(i, &k)| rig.req(DbOp::Insert, 1, k, 10, (i % 60) as u16))
            .collect();
        let res = rig.run_ops(inserts);
        assert!(res.iter().all(|r| r.is_ok()));

        let table = &rig.tables[1];
        // Walk level 0 and compare with the sorted key set.
        let mut got = Vec::new();
        let mut cur = rig.dram.host_read_u64(table.head_next_addr(0));
        while cur != 0 {
            let hdr = crate::layout::read_header(&rig.dram, cur);
            got.push(hdr.key.to_u64());
            cur = rig.dram.host_read_u64(cur + TOWER_NEXTS_TEST);
        }
        assert_eq!(got, keys, "level-0 chain holds every key in order");

        // Every upper level must be a sorted subsequence of the keys whose
        // towers are tall enough.
        for level in 1..8 {
            let mut cur = rig.dram.host_read_u64(table.head_next_addr(level));
            let mut prev = None;
            while cur != 0 {
                let hdr = crate::layout::read_header(&rig.dram, cur);
                let k = hdr.key.to_u64();
                if let Some(p) = prev {
                    assert!(k > p, "level {level} ordered");
                }
                let height = rig.dram.host_read_u64(cur + 64) as usize;
                assert!(height > level, "tower on level {level} tall enough");
                prev = Some(k);
                cur = rig
                    .dram
                    .host_read_u64(cur + TOWER_NEXTS_TEST + 8 * level as u64);
            }
        }
        // No tower lost at its full height: count towers per level matches
        // the deterministic heights.
        for level in 0..8 {
            let expected = keys
                .iter()
                .filter(|&&k| crate::skiplist::tower_height(&IndexKey::from_u64(k), 20) > level)
                .count();
            let mut n = 0;
            let mut cur = rig.dram.host_read_u64(table.head_next_addr(level));
            while cur != 0 {
                n += 1;
                cur = rig
                    .dram
                    .host_read_u64(cur + TOWER_NEXTS_TEST + 8 * level as u64);
            }
            assert_eq!(n, expected, "level {level} tower count");
        }
    }

    const TOWER_NEXTS_TEST: u64 = crate::layout::TOWER_NEXTS;

    /// Host-side audit: after a storm of pipelined inserts, every bucket chain
    /// must be walkable, contain every key exactly once, and match the
    /// addresses reported through the CP registers.
    #[test]
    fn hash_chains_consistent_after_pipelined_inserts() {
        use bionicdb_softcore::request::DbOp;
        let mut rig = Rig::new(true);
        let n = 600u64;
        let inserts: Vec<_> = (0..n)
            .map(|k| rig.req(DbOp::Insert, 0, k, 10, k as u16))
            .collect();
        rig.run_ops(inserts);
        let mut addrs = vec![0u64; n as usize];
        for k in 0..n {
            addrs[k as usize] = rig.result_for_cp(k as u16).value().unwrap();
        }
        // Host-side walk of every bucket.
        let mut found: std::collections::HashMap<u64, Vec<u64>> = Default::default();
        let dir = rig.tables[0].dir_addr;
        for b in 0..256u64 {
            let mut cur = rig.dram.host_read_u64(dir + 8 * b);
            let mut steps = 0;
            let mut chain = vec![];
            while cur != 0 {
                if cur >= rig.dram.capacity() {
                    panic!("bucket {b}: garbage ptr {cur:#x} after chain {chain:?}");
                }
                let hdr = crate::layout::read_header(&rig.dram, cur + crate::layout::TUPLE_HEADER);
                found.entry(hdr.key.to_u64()).or_default().push(cur);
                chain.push((cur, hdr.key.to_u64()));
                cur = rig.dram.host_read_u64(cur);
                steps += 1;
                assert!(steps < 10000, "cycle in bucket {b}");
            }
        }
        let mut missing = 0;
        let mut dups = 0;
        let mut wrong = 0;
        for k in 0..n {
            match found.get(&k) {
                None => {
                    missing += 1;
                    eprintln!("key {k} missing (reported addr {})", addrs[k as usize]);
                }
                Some(v) if v.len() > 1 => {
                    dups += 1;
                    eprintln!(
                        "key {k} duplicated at {:?} (reported {})",
                        v, addrs[k as usize]
                    );
                }
                Some(v) => {
                    if v[0] != addrs[k as usize] {
                        wrong += 1;
                        eprintln!("key {k} at {} but reported {}", v[0], addrs[k as usize]);
                    }
                }
            }
            if missing + dups + wrong > 8 {
                break;
            }
        }
        assert!(
            missing == 0 && dups == 0 && wrong == 0,
            "missing={missing} dups={dups} wrong={wrong}"
        );
    }
}
