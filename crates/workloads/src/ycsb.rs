//! YCSB and the KV microbenchmark: drivers for both engines.
//!
//! Paper §5.3: the YCSB transaction issues 16 independent DB accesses with
//! no data dependencies; the table has 8-byte integer keys; 300 K records
//! per partition (scaled here, see crate docs). YCSB-C is read-only;
//! YCSB-E is modified to be scan-only with a fixed range of 50. The KV
//! microbenchmark (Fig. 10a) issues 60 inserts or searches in bulk per
//! transaction.

use bionicdb::{BionicConfig, Machine, ProcBuilder, ProcId, TableId, TableMeta, TxnBlock};
use bionicdb_softcore::isa::{MemBase, Operand};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::spec::YcsbSpec;

/// Which YCSB transaction to generate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum YcsbKind {
    /// Read-only point accesses, all local (YCSB-C as run in Figs. 9a/10b).
    ReadLocal,
    /// Read-only point accesses with a per-access home partition read from
    /// the transaction block (the Fig. 13 multisite form; "single-site"
    /// blocks simply carry the local worker id).
    ReadHomed,
    /// Update-only point accesses (each op RMWs the first payload word);
    /// alternated with `ReadLocal` this forms the YCSB-A/B mixes the paper
    /// omits ("similar results to YCSB-C").
    UpdateLocal,
    /// Scan-only (modified YCSB-E, range = `scan_len`).
    Scan,
}

/// A reusable pool of transaction blocks for one worker.
#[derive(Debug)]
pub struct BlockPool {
    blocks: Vec<TxnBlock>,
    used: usize,
}

impl BlockPool {
    /// Allocate `count` blocks of `size` bytes in `worker`'s arena.
    pub fn new(m: &mut Machine, worker: usize, count: usize, size: u64) -> Self {
        BlockPool {
            blocks: (0..count).map(|_| m.alloc_block(worker, size)).collect(),
            used: 0,
        }
    }

    /// Take the next free block; panics when the pool is exhausted
    /// (call [`BlockPool::reset`] between waves).
    pub fn take(&mut self) -> TxnBlock {
        let b = self.blocks[self.used];
        self.used += 1;
        b
    }

    /// Blocks handed out since the last reset.
    pub fn in_use(&self) -> &[TxnBlock] {
        &self.blocks[..self.used]
    }

    /// Make every block available again (only when the machine is
    /// quiescent).
    pub fn reset(&mut self) {
        self.used = 0;
    }

    /// Remaining capacity.
    pub fn available(&self) -> usize {
        self.blocks.len() - self.used
    }
}

// ---------------------------------------------------------------------------
// BionicDB driver
// ---------------------------------------------------------------------------

/// Byte offset of op `i`'s key in a `ReadLocal` block.
fn local_key_off(i: usize) -> u64 {
    8 * i as u64
}

/// Byte offsets of op `i`'s key / home in a `ReadHomed` block.
fn homed_offs(i: usize) -> (u64, u64) {
    (16 * i as u64, 16 * i as u64 + 8)
}

/// Offset of the shared insert payload in a KV-insert block.
fn kv_payload_off(ops: usize) -> u64 {
    8 * ops as u64
}

/// Offset of the scan output buffer in a scan block.
const SCAN_OUT_OFF: u64 = 64;

/// The YCSB system on BionicDB: machine, tables, registered procedures.
pub struct YcsbBionic {
    /// The assembled machine (owned; benches drive it directly).
    pub machine: Machine,
    /// The workload parameters.
    pub spec: YcsbSpec,
    /// Hash table for point accesses.
    pub table: TableId,
    /// Skiplist table for scans.
    pub scan_table: TableId,
    /// N local searches.
    pub read_local: ProcId,
    /// N searches with per-op homes.
    pub read_homed: ProcId,
    /// N local updates (YCSB-A/B mixes).
    pub update_local: ProcId,
    /// One scan of `scan_len` records.
    pub scan: ProcId,
    /// Bulk KV insert (`kv_ops` inserts per transaction, Fig. 10a).
    pub kv_insert: ProcId,
    /// Bulk KV search (`kv_ops` searches per transaction, Fig. 10a).
    pub kv_search: ProcId,
    /// Bulk skiplist insert (sequential loading, Fig. 11a).
    pub skip_insert: ProcId,
    /// Bulk skiplist point query (Fig. 11b).
    pub skip_search: ProcId,
    /// Operations per KV bulk transaction.
    pub kv_ops: usize,
    /// Per-worker counter for fresh KV-insert keys.
    insert_seq: Vec<u64>,
}

/// Build the N-search stored procedure (optionally with per-op homes).
pub fn build_read_proc(table: TableId, ops: usize, homed: bool) -> bionicdb_softcore::Procedure {
    let mut b = ProcBuilder::new(if homed {
        "ycsb_read_homed"
    } else {
        "ycsb_read_local"
    });
    let cps: Vec<_> = (0..ops).map(|_| b.cp()).collect();
    if homed {
        let gh = b.gp();
        for (i, &cp) in cps.iter().enumerate() {
            let (key_off, home_off) = homed_offs(i);
            b.load(gh, MemBase::Block, Operand::Imm(home_off as i64));
            b.search(table, Operand::Imm(key_off as i64), Operand::Reg(gh), cp);
        }
    } else {
        for (i, &cp) in cps.iter().enumerate() {
            b.search(
                table,
                Operand::Imm(local_key_off(i) as i64),
                Operand::Imm(-1),
                cp,
            );
        }
    }
    b.begin_commit();
    for &cp in &cps {
        b.ret_checked(cp);
    }
    b.commit();
    b.begin_abort();
    b.abort();
    b.build().expect("ycsb read proc")
}

/// Build the N-update stored procedure: each op locates its tuple via
/// UPDATE (write visibility check + dirty mark in the pipeline), and the
/// commit handler performs the in-place writes (value from the block into
/// the first payload word), stamps write timestamps and clears dirty bits
/// per paper section 4.7's commit protocol.
pub fn build_update_proc(table: TableId, ops: usize) -> bionicdb_softcore::Procedure {
    let mut b = ProcBuilder::new("ycsb_update_local");
    let cps: Vec<_> = (0..ops).map(|_| b.cp()).collect();
    for (i, &cp) in cps.iter().enumerate() {
        let (key_off, _) = homed_offs(i);
        b.update(table, Operand::Imm(key_off as i64), Operand::Imm(-1), cp);
    }
    b.begin_commit();
    let g_ts = b.gp();
    let g_zero = b.gp();
    let g_val = b.gp();
    let g_addr = b.gp();
    b.getts(g_ts);
    b.mov(g_zero, Operand::Imm(0));
    let payload0 = bionicdb_coproc::layout::TUPLE_PAYLOAD as i64;
    let write_ts = bionicdb_coproc::layout::TUPLE_HEADER as i64;
    let flags = (bionicdb_coproc::layout::TUPLE_HEADER + 16) as i64;
    for (i, &cp) in cps.iter().enumerate() {
        let (_, val_off) = homed_offs(i);
        let abort = b.abort_label();
        b.ret(g_addr, cp);
        b.cmp(g_addr, Operand::Imm(0));
        b.br(bionicdb_softcore::isa::Cond::Lt, abort);
        b.load(g_val, MemBase::Block, Operand::Imm(val_off as i64));
        b.store(g_val, MemBase::Reg(g_addr), Operand::Imm(payload0));
        b.store(g_ts, MemBase::Reg(g_addr), Operand::Imm(write_ts));
        b.store(g_zero, MemBase::Reg(g_addr), Operand::Imm(flags));
    }
    b.commit();
    b.begin_abort();
    // Clear dirty marks on whichever updates were granted.
    let g_x = b.gp();
    for &cp in &cps {
        let skip = b.label();
        b.ret(g_x, cp);
        b.cmp(g_x, Operand::Imm(0));
        b.br(bionicdb_softcore::isa::Cond::Lt, skip);
        b.store(g_zero, MemBase::Reg(g_x), Operand::Imm(flags));
        b.bind(skip);
    }
    b.abort();
    b.build().expect("ycsb update proc")
}

/// Build the bulk KV insert procedure (`ops` inserts of distinct keys
/// sharing one payload image). `flags_off` is the record-relative offset
/// of the flags word the commit handler must clear — hash tuples carry
/// their header behind the chain pointer, skiplist towers lead with it.
pub fn build_kv_insert_proc(
    table: TableId,
    ops: usize,
    flags_off: i64,
) -> bionicdb_softcore::Procedure {
    let mut b = ProcBuilder::new("kv_insert");
    let payload_off = kv_payload_off(ops) as i64;
    let cps: Vec<_> = (0..ops).map(|_| b.cp()).collect();
    for (i, &cp) in cps.iter().enumerate() {
        b.insert(
            table,
            Operand::Imm(local_key_off(i) as i64),
            Operand::Imm(payload_off),
            Operand::Imm(-1),
            cp,
        );
    }
    b.begin_commit();
    // Clear the dirty bit of every inserted tuple: the write-set walk the
    // commit handler performs (paper §4.7).
    let zero = b.gp();
    b.mov(zero, Operand::Imm(0));
    for &cp in &cps {
        let addr = b.ret_checked(cp);
        b.store(zero, MemBase::Reg(addr), Operand::Imm(flags_off));
    }
    b.commit();
    b.begin_abort();
    b.abort();
    b.build().expect("kv insert proc")
}

/// Build the scan procedure.
pub fn build_scan_proc(table: TableId, scan_len: u32) -> bionicdb_softcore::Procedure {
    let mut b = ProcBuilder::new("ycsb_scan");
    let cp = b.cp();
    b.scan(
        table,
        Operand::Imm(0),
        Operand::Imm(scan_len as i64),
        Operand::Imm(SCAN_OUT_OFF as i64),
        Operand::Imm(-1),
        cp,
    );
    b.begin_commit();
    b.ret_checked(cp);
    b.commit();
    b.begin_abort();
    b.abort();
    b.build().expect("scan proc")
}

impl YcsbBionic {
    /// Build the machine, load both tables on every partition, register the
    /// procedures. `kv_ops` sizes the bulk KV transactions (paper: 60).
    pub fn build(cfg: BionicConfig, spec: YcsbSpec, kv_ops: usize) -> Self {
        let buckets = spec
            .hash_buckets
            .unwrap_or(spec.records_per_partition * 2)
            .next_power_of_two();
        let (machine, h) = crate::abi::assemble(
            cfg,
            |b| {
                let table = b.table(TableMeta::hash("ycsb", 8, spec.payload_len, buckets));
                let scan_table = b.table(TableMeta::skiplist("ycsb_e", 8, spec.payload_len));
                let hash_flags = (bionicdb_coproc::layout::TUPLE_HEADER + 16) as i64;
                let tower_flags = 16i64;
                (
                    table,
                    scan_table,
                    b.proc(build_read_proc(table, spec.ops_per_txn, false)),
                    b.proc(build_read_proc(table, spec.ops_per_txn, true)),
                    b.proc(build_update_proc(table, spec.ops_per_txn)),
                    b.proc(build_scan_proc(scan_table, spec.scan_len)),
                    b.proc(build_kv_insert_proc(table, kv_ops, hash_flags)),
                    b.proc(build_read_proc(table, kv_ops, false)),
                    b.proc(build_kv_insert_proc(scan_table, kv_ops, tower_flags)),
                    b.proc(build_read_proc(scan_table, kv_ops, false)),
                )
            },
            |machine, w, h| {
                let (table, scan_table) = (h.0, h.1);
                let mut loader = machine.loader(w);
                let mut payload = vec![0u8; spec.payload_len as usize];
                for k in 0..spec.records_per_partition {
                    payload[..8].copy_from_slice(&k.to_le_bytes());
                    loader.insert(table, &k.to_le_bytes(), &payload);
                    loader.insert(scan_table, &k.to_be_bytes(), &payload);
                }
            },
        );
        let workers = machine.num_workers();
        YcsbBionic {
            machine,
            spec,
            table: h.0,
            scan_table: h.1,
            read_local: h.2,
            read_homed: h.3,
            update_local: h.4,
            scan: h.5,
            kv_insert: h.6,
            kv_search: h.7,
            skip_insert: h.8,
            skip_search: h.9,
            kv_ops,
            insert_seq: vec![0; workers],
        }
    }

    /// Bytes needed per block for `kind`.
    pub fn block_size(&self, kind: YcsbKind) -> u64 {
        let ops = self.spec.ops_per_txn as u64;
        bionicdb_softcore::BLOCK_HEADER_SIZE
            + match kind {
                YcsbKind::ReadLocal => 8 * ops,
                YcsbKind::ReadHomed | YcsbKind::UpdateLocal => 16 * ops,
                YcsbKind::Scan => {
                    SCAN_OUT_OFF + self.spec.scan_len as u64 * self.spec.payload_len as u64
                }
            }
    }

    /// Bytes per KV block (`ops` keys + one payload image).
    pub fn kv_block_size(&self, ops: usize) -> u64 {
        bionicdb_softcore::BLOCK_HEADER_SIZE + kv_payload_off(ops) + self.spec.payload_len as u64
    }

    /// Populate `blk` as a `kind` transaction for `worker` and submit it.
    pub fn submit_txn(&mut self, worker: usize, blk: TxnBlock, kind: YcsbKind, rng: &mut SmallRng) {
        let n_workers = self.machine.num_workers();
        match kind {
            YcsbKind::ReadLocal => {
                self.machine.init_block(blk, self.read_local);
                for i in 0..self.spec.ops_per_txn {
                    let k = rng.gen_range(0..self.spec.records_per_partition);
                    self.machine
                        .write_block(blk, local_key_off(i), &k.to_le_bytes());
                }
            }
            YcsbKind::ReadHomed => {
                self.machine.init_block(blk, self.read_homed);
                for i in 0..self.spec.ops_per_txn {
                    let (key_off, home_off) = homed_offs(i);
                    let k = rng.gen_range(0..self.spec.records_per_partition);
                    let home = if n_workers > 1 && rng.gen_bool(self.spec.remote_fraction) {
                        // Uniform over the other partitions.
                        let mut h = rng.gen_range(0..n_workers - 1);
                        if h >= worker {
                            h += 1;
                        }
                        h as u64
                    } else {
                        worker as u64
                    };
                    self.machine.write_block(blk, key_off, &k.to_le_bytes());
                    self.machine.write_block_u64(blk, home_off, home);
                }
            }
            YcsbKind::UpdateLocal => {
                self.machine.init_block(blk, self.update_local);
                // Distinct keys per transaction: a repeated key would
                // self-conflict on its own dirty mark under timestamp CC.
                let mut keys: Vec<u64> = Vec::with_capacity(self.spec.ops_per_txn);
                while keys.len() < self.spec.ops_per_txn {
                    let k = rng.gen_range(0..self.spec.records_per_partition);
                    if !keys.contains(&k) {
                        keys.push(k);
                    }
                }
                for (i, &k) in keys.iter().enumerate() {
                    let (key_off, val_off) = homed_offs(i);
                    self.machine.write_block(blk, key_off, &k.to_le_bytes());
                    self.machine.write_block_u64(blk, val_off, rng.gen());
                }
            }
            YcsbKind::Scan => {
                self.machine.init_block(blk, self.scan);
                let max_start = self
                    .spec
                    .records_per_partition
                    .saturating_sub(self.spec.scan_len as u64);
                let k = rng.gen_range(0..max_start.max(1));
                self.machine.write_block(blk, 0, &k.to_be_bytes());
            }
        }
        self.machine.submit(worker, blk);
    }

    /// Populate and submit a bulk KV transaction (`insert=true` for fresh
    /// keys through `kv_insert`, else `kv_search` over loaded keys).
    pub fn submit_kv_txn(
        &mut self,
        worker: usize,
        blk: TxnBlock,
        insert: bool,
        rng: &mut SmallRng,
    ) {
        self.submit_bulk(worker, blk, insert, false, rng);
    }

    /// Populate and submit an update transaction whose keys are drawn from
    /// a Zipfian distribution (distinct within the transaction) — the
    /// contention-skew ablation.
    pub fn submit_update_skewed(
        &mut self,
        worker: usize,
        blk: TxnBlock,
        zipf: &crate::zipf::Zipf,
        rng: &mut SmallRng,
    ) {
        self.machine.init_block(blk, self.update_local);
        let mut keys: Vec<u64> = Vec::with_capacity(self.spec.ops_per_txn);
        while keys.len() < self.spec.ops_per_txn {
            let k = zipf.sample(rng);
            if !keys.contains(&k) {
                keys.push(k);
            }
        }
        for (i, &k) in keys.iter().enumerate() {
            let (key_off, val_off) = homed_offs(i);
            self.machine.write_block(blk, key_off, &k.to_le_bytes());
            self.machine.write_block_u64(blk, val_off, rng.gen());
        }
        self.machine.submit(worker, blk);
    }

    /// Populate and submit a bulk hash-insert transaction with *random*
    /// fresh keys (instead of the sequential Fig. 10a loading pattern).
    /// Random keys collide in buckets, exercising the insert lock table —
    /// the hazard-prevention ablation uses this.
    pub fn submit_kv_insert_random(&mut self, worker: usize, blk: TxnBlock, rng: &mut SmallRng) {
        let ops = self.kv_ops;
        self.machine.init_block(blk, self.kv_insert);
        let base = self.spec.records_per_partition;
        for i in 0..ops {
            // Fresh (unloaded) key space, scrambled.
            let k = base + (rng.gen::<u64>() % (base * 64));
            self.machine
                .write_block(blk, local_key_off(i), &k.to_le_bytes());
        }
        let payload = vec![0xAB; self.spec.payload_len as usize];
        self.machine.write_block(blk, kv_payload_off(ops), &payload);
        self.machine.submit(worker, blk);
    }

    /// Populate and submit a bulk *skiplist* transaction (Fig. 11a/11b:
    /// sequential loading / point query). Skiplist keys are big-endian.
    pub fn submit_skip_txn(
        &mut self,
        worker: usize,
        blk: TxnBlock,
        insert: bool,
        rng: &mut SmallRng,
    ) {
        self.submit_bulk(worker, blk, insert, true, rng);
    }

    fn submit_bulk(
        &mut self,
        worker: usize,
        blk: TxnBlock,
        insert: bool,
        skiplist: bool,
        rng: &mut SmallRng,
    ) {
        let ops = self.kv_ops;
        let proc = match (skiplist, insert) {
            (false, true) => self.kv_insert,
            (false, false) => self.kv_search,
            (true, true) => self.skip_insert,
            (true, false) => self.skip_search,
        };
        self.machine.init_block(blk, proc);
        for i in 0..ops {
            let k = if insert {
                // Sequential loading (paper Fig. 11a): fresh ascending keys.
                let k = self.spec.records_per_partition + self.insert_seq[worker];
                self.insert_seq[worker] += 1;
                k
            } else {
                rng.gen_range(0..self.spec.records_per_partition)
            };
            let bytes = if skiplist {
                k.to_be_bytes()
            } else {
                k.to_le_bytes()
            };
            self.machine.write_block(blk, local_key_off(i), &bytes);
        }
        if insert {
            let payload = vec![0xAB; self.spec.payload_len as usize];
            self.machine.write_block(blk, kv_payload_off(ops), &payload);
        }
        self.machine.submit(worker, blk);
    }

    /// Deterministic RNG for a worker.
    pub fn rng(seed: u64) -> SmallRng {
        SmallRng::seed_from_u64(seed)
    }
}

// ---------------------------------------------------------------------------
// Silo driver
// ---------------------------------------------------------------------------

/// The YCSB database on the Silo baseline.
pub struct YcsbSilo {
    /// The database.
    pub db: bionicdb_silo::SiloDb,
    /// Workload parameters.
    pub spec: YcsbSpec,
    /// Flat keyspace size (`partitions × records_per_partition`; Silo is
    /// shared-everything, so "partitions" only scales the data).
    pub keyspace: u64,
    /// Hash table index.
    pub table: usize,
    /// Masstree index (scan comparisons).
    pub masstree: usize,
    /// Software skiplist index (scan comparisons).
    pub skiplist: usize,
}

impl YcsbSilo {
    /// Build and load the Silo-side YCSB database.
    pub fn build(spec: YcsbSpec, partitions: usize) -> Self {
        use bionicdb_silo::{SiloDb, SwIndexKind, TableDef};
        let keyspace = spec.records_per_partition * partitions as u64;
        let db = SiloDb::new(vec![
            TableDef::new(
                "ycsb",
                SwIndexKind::Hash {
                    buckets: (keyspace * 2) as usize,
                },
                spec.payload_len as usize,
            ),
            TableDef::new("ycsb_mt", SwIndexKind::Masstree, spec.payload_len as usize),
            TableDef::new("ycsb_sl", SwIndexKind::Skiplist, spec.payload_len as usize),
        ]);
        let mut payload = vec![0u8; spec.payload_len as usize];
        for k in 0..keyspace {
            payload[..8].copy_from_slice(&k.to_le_bytes());
            db.load(0, k, payload.clone());
            db.load(1, k, payload.clone());
            db.load(2, k, payload.clone());
        }
        YcsbSilo {
            db,
            spec,
            keyspace,
            table: 0,
            masstree: 1,
            skiplist: 2,
        }
    }

    /// Run one YCSB-C transaction (16 independent reads); returns false on
    /// abort (cannot happen read-only, but kept uniform).
    pub fn run_read_txn<T: bionicdb_cpu_model::Tracer>(
        &self,
        tr: &mut T,
        rng: &mut SmallRng,
    ) -> bool {
        let mut txn = self.db.txn();
        let mut buf = Vec::with_capacity(self.spec.payload_len as usize);
        tr.begin_group(self.spec.ops_per_txn);
        for _ in 0..self.spec.ops_per_txn {
            let k = rng.gen_range(0..self.keyspace);
            let found = txn.read(tr, self.table, k, &mut buf);
            debug_assert!(found, "loaded key {k}");
        }
        tr.end_group();
        txn.commit(tr).is_ok()
    }

    /// Run one scan-only YCSB-E transaction against the given index
    /// (`masstree` or `skiplist`).
    pub fn run_scan_txn<T: bionicdb_cpu_model::Tracer>(
        &self,
        tr: &mut T,
        rng: &mut SmallRng,
        index: usize,
    ) -> bool {
        let mut txn = self.db.txn();
        let start = rng.gen_range(
            0..self
                .keyspace
                .saturating_sub(self.spec.scan_len as u64)
                .max(1),
        );
        let mut out = Vec::with_capacity(self.spec.scan_len as usize);
        txn.scan(tr, index, start, self.spec.scan_len as usize, &mut out);
        txn.commit(tr).is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bionicdb::{BlockStatus, ExecMode};

    fn tiny_machine(kind_workers: usize) -> YcsbBionic {
        let mut cfg = BionicConfig::small(kind_workers);
        cfg.mode = ExecMode::Interleaved;
        YcsbBionic::build(cfg, YcsbSpec::tiny(), 12)
    }

    #[test]
    fn read_local_txns_commit_on_bionicdb() {
        let mut y = tiny_machine(2);
        let mut rng = YcsbBionic::rng(1);
        let size = y.block_size(YcsbKind::ReadLocal);
        let mut pools: Vec<BlockPool> = (0..2)
            .map(|w| BlockPool::new(&mut y.machine, w, 8, size))
            .collect();
        for (w, pool) in pools.iter_mut().enumerate() {
            for _ in 0..8 {
                let blk = pool.take();
                y.submit_txn(w, blk, YcsbKind::ReadLocal, &mut rng);
            }
        }
        y.machine.run_to_quiescence_limit(1 << 26);
        for pool in &pools {
            for &blk in pool.in_use() {
                assert!(y.machine.block_status(blk).is_committed());
            }
        }
        assert_eq!(y.machine.stats().committed, 16);
    }

    #[test]
    fn homed_txns_cross_partitions_and_commit() {
        let mut y = tiny_machine(2);
        let mut rng = YcsbBionic::rng(2);
        let size = y.block_size(YcsbKind::ReadHomed);
        let blk = y.machine.alloc_block(0, size);
        y.submit_txn(0, blk, YcsbKind::ReadHomed, &mut rng);
        y.machine.run_to_quiescence_limit(1 << 26);
        assert!(y.machine.block_status(blk).is_committed());
        assert!(
            y.machine.noc().stats().sent > 0,
            "some accesses were remote"
        );
    }

    #[test]
    fn scan_txn_fills_result_buffer() {
        let mut y = tiny_machine(1);
        let mut rng = YcsbBionic::rng(3);
        let blk = y.machine.alloc_block(0, y.block_size(YcsbKind::Scan));
        y.submit_txn(0, blk, YcsbKind::Scan, &mut rng);
        y.machine.run_to_quiescence_limit(1 << 26);
        assert!(y.machine.block_status(blk).is_committed());
        // First scanned payload embeds its key (loader wrote it there).
        let first = y.machine.read_block(blk, SCAN_OUT_OFF, 8);
        let k = u64::from_le_bytes(first.try_into().unwrap());
        assert!(k < y.spec.records_per_partition);
    }

    #[test]
    fn update_txns_modify_payloads_and_commit() {
        let mut y = tiny_machine(1);
        let mut rng = YcsbBionic::rng(5);
        let blk = y
            .machine
            .alloc_block(0, y.block_size(YcsbKind::UpdateLocal));
        y.submit_txn(0, blk, YcsbKind::UpdateLocal, &mut rng);
        y.machine.run_to_quiescence_limit(1 << 26);
        assert!(y.machine.block_status(blk).is_committed());
        // Every updated key's payload now starts with the written value.
        let table = y.table;
        for i in 0..y.spec.ops_per_txn {
            let (key_off, val_off) = homed_offs(i);
            let key = y.machine.read_block(blk, key_off, 8);
            let val = y.machine.read_block_u64(blk, val_off);
            let loader = y.machine.loader(0);
            let addr = loader.lookup(table, &key).expect("key present");
            let payload = loader.payload(table, addr);
            assert_eq!(
                u64::from_le_bytes(payload[..8].try_into().unwrap()),
                val,
                "op {i}"
            );
        }
        // Tuples are committed (visible to later readers).
        let blk2 = y.machine.alloc_block(0, y.block_size(YcsbKind::ReadLocal));
        y.submit_txn(0, blk2, YcsbKind::ReadLocal, &mut rng);
        y.machine.run_to_quiescence_limit(1 << 26);
        assert!(y.machine.block_status(blk2).is_committed());
    }

    #[test]
    fn kv_insert_then_search_roundtrip() {
        let mut y = tiny_machine(1);
        let mut rng = YcsbBionic::rng(4);
        let size = y.kv_block_size(y.kv_ops);
        let ins = y.machine.alloc_block(0, size);
        y.submit_kv_txn(0, ins, true, &mut rng);
        y.machine.run_to_quiescence_limit(1 << 26);
        assert!(y.machine.block_status(ins).is_committed());

        // The freshly inserted keys are committed and findable: search the
        // first 12 fresh keys via a dedicated read wave against user keys.
        let base = y.spec.records_per_partition;
        let table = y.table;
        let found = {
            let loader = y.machine.loader(0);
            (0..y.kv_ops as u64).all(|i| loader.lookup(table, &(base + i).to_le_bytes()).is_some())
        };
        assert!(found, "all inserted keys present and committed");
    }
}
