//! Property tests for host-side bulk loading.
//!
//! 1. Loading builds *logically identical* index structures to inserting
//!    through the hardware pipelines. Same sdbm bucket placement, same
//!    deterministic tower heights — so for any key set, lookups agree,
//!    every key is found, and the skiplist's bottom chain enumerates the
//!    keys in identical sorted order.
//! 2. A long-lived `Loader`, which starts skiplist walks at its finger,
//!    writes exactly the DRAM image that a fresh `Loader` per insert (a
//!    full walk from the head every time) writes, in every insert order.
//! 3. The `Loader`'s image equals, byte for byte, the image of a reference
//!    writer kept here: a walk from the head per key and one host write
//!    per field.
//! 4. Hash loads — inserts interleaved across tables, lookups and payload
//!    reads in the middle of a load, a new `Loader` over buckets an
//!    earlier one filled — return the same addresses and leave the same
//!    image as the reference writer.
//! 5. YCSB's `ycsb_e` skiplist, loaded at the first skiplist submission,
//!    leaves the same DRAM image and record addresses as loading it at
//!    build time beside the hash table, key by key; a run that never
//!    submits a skiplist transaction leaves it empty.
//! 6. A machine whose database is restored from the process's image store
//!    equals one that loaded it itself: the same DRAM digest, table heaps
//!    and record addresses for every key, and the same report after a
//!    wave, for every standard workload and for configurations that differ
//!    only in batch mode, topology, unloaded spec fields or partition size.

use bionicdb::storage::{Partition, LOAD_TS};
use bionicdb::{
    BionicConfig, BlockStatus, Catalogue, IndexKey, Loader, Machine, PartitionId, ProcId,
    SystemBuilder, TableMeta, Topology, TxnBlock,
};
use bionicdb_bench::serve::hw::{hw_config, CHAINED_HASH_BUCKETS};
use bionicdb_coproc::layout::{
    read_header, RecordHeader, TableState, TOWER_HEIGHT, TOWER_NEXTS, TUPLE_HEADER, TUPLE_NEXT,
    TUPLE_PAYLOAD,
};
use bionicdb_coproc::sdbm::{bucket_of, sdbm_hash};
use bionicdb_coproc::skiplist::tower_height;
use bionicdb_fpga::{Dram, FpgaConfig, Region};
use bionicdb_softcore::builder::ProcBuilder;
use bionicdb_softcore::catalogue::IndexKind;
use bionicdb_softcore::isa::{MemBase, Operand};
use bionicdb_workloads::abi::{fresh_loads, restored_last, YcsbWorkload};
use bionicdb_workloads::ycsb::{
    build_kv_insert_proc, build_read_proc, build_scan_proc, build_update_proc, YcsbBionic, YcsbKind,
};
use bionicdb_workloads::{ServeKind, StdWorkload, TpccMix, Workload, YcsbSpec};
use proptest::prelude::*;

/// Build a machine with one hash + one skiplist table and per-kind insert
/// procedures (single insert per transaction, key at offset 0, payload at
/// offset 8).
fn build() -> (
    bionicdb::Machine,
    bionicdb::TableId,
    bionicdb::TableId,
    bionicdb::ProcId,
    bionicdb::ProcId,
) {
    let mut b = SystemBuilder::new(BionicConfig::small(1));
    let hash = b.table(TableMeta::hash("h", 8, 16, 1 << 8));
    let skip = b.table(TableMeta::skiplist("s", 8, 16));
    let mk = |table, flags_off: i64| {
        let mut pb = ProcBuilder::new("ins1");
        let c0 = pb.cp();
        pb.insert(
            table,
            Operand::Imm(0),
            Operand::Imm(8),
            Operand::Imm(-1),
            c0,
        );
        pb.begin_commit();
        let zero = pb.gp();
        pb.mov(zero, Operand::Imm(0));
        let addr = pb.ret_checked(c0);
        pb.store(zero, MemBase::Reg(addr), Operand::Imm(flags_off));
        pb.commit();
        pb.begin_abort();
        pb.abort();
        pb.build().unwrap()
    };
    let hash_ins = b.proc(mk(hash, (TUPLE_HEADER + 16) as i64));
    let skip_ins = b.proc(mk(skip, 16));
    (b.build(), hash, skip, hash_ins, skip_ins)
}

fn insert_via_pipeline(
    db: &mut bionicdb::Machine,
    proc: bionicdb::ProcId,
    key: &[u8],
    payload: &[u8],
) {
    let blk = db.alloc_block(0, 128);
    db.init_block(blk, proc);
    db.write_block(blk, 0, key);
    db.write_block(blk, 8, payload);
    db.submit(0, blk);
    db.run_to_quiescence_limit(1 << 24);
    assert_eq!(db.block_status(blk), bionicdb::TxnStatus::Committed);
}

/// Walk the skiplist bottom chain, returning keys in list order.
fn bottom_chain(db: &bionicdb::Machine, table: bionicdb::TableId) -> Vec<u64> {
    let state = &db.partition(0).tables[table.0 as usize];
    let mut out = Vec::new();
    let mut cur = db.dram().host_read_u64(state.head_next_addr(0));
    while cur != 0 {
        out.push(read_header(db.dram(), cur).key.to_u64());
        cur = db.dram().host_read_u64(cur + TOWER_NEXTS);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn loaded_and_pipelined_indexes_agree(keys in proptest::collection::btree_set(0u64..5_000, 1..40)) {
        let keys: Vec<u64> = keys.into_iter().collect();

        // Machine A: host-side bulk load.
        let (mut a, hash_a, skip_a, _, _) = build();
        for &k in &keys {
            let payload = [k as u8; 16];
            a.loader(0).insert(hash_a, &k.to_le_bytes(), &payload);
            a.loader(0).insert(skip_a, &k.to_be_bytes(), &payload);
        }

        // Machine B: inserts through the index pipelines.
        let (mut b, hash_b, skip_b, hash_ins, skip_ins) = build();
        for &k in &keys {
            let payload = [k as u8; 16];
            insert_via_pipeline(&mut b, hash_ins, &k.to_le_bytes(), &payload);
            insert_via_pipeline(&mut b, skip_ins, &k.to_be_bytes(), &payload);
        }

        // Every key findable in both, with identical payloads.
        for &k in &keys {
            for (m, hash, skip) in [(&mut a, hash_a, skip_a), (&mut b, hash_b, skip_b)] {
                let ha = m.loader(0).lookup(hash, &k.to_le_bytes());
                prop_assert!(ha.is_some(), "hash key {k}");
                prop_assert_eq!(m.loader(0).payload(hash, ha.unwrap()), vec![k as u8; 16]);
                let sa = m.loader(0).lookup(skip, &k.to_be_bytes());
                prop_assert!(sa.is_some(), "skiplist key {k}");
            }
        }
        // Absent keys are absent in both.
        for probe in [5_001u64, 9_999] {
            prop_assert!(a.loader(0).lookup(hash_a, &probe.to_le_bytes()).is_none());
            prop_assert!(b.loader(0).lookup(hash_b, &probe.to_le_bytes()).is_none());
        }
        // The bottom chains enumerate the same sorted key sequence.
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        prop_assert_eq!(bottom_chain(&a, skip_a), sorted.clone());
        prop_assert_eq!(bottom_chain(&b, skip_b), sorted);
    }
}

/// A machine with a hash table and two skiplists, no procedures.
fn build_three() -> (bionicdb::Machine, [bionicdb::TableId; 3]) {
    let mut b = SystemBuilder::new(BionicConfig::small(1));
    let hash = b.table(TableMeta::hash("h", 8, 16, 1 << 6));
    let skip_a = b.table(TableMeta::skiplist("a", 8, 16));
    let skip_b = b.table(TableMeta::skiplist("b", 8, 16));
    (b.build(), [hash, skip_a, skip_b])
}

/// Arrange `keys` in one of the insert orders a bulk load can present.
fn arrange(mut keys: Vec<u64>, order: u8, run: usize) -> Vec<u64> {
    match order {
        // Ascending, the order every workload loads in.
        0 => {
            keys.sort_unstable();
            keys.dedup();
        }
        // Descending: every key falls below the finger.
        1 => {
            keys.sort_unstable_by(|a, b| b.cmp(a));
            keys.dedup();
        }
        // Shuffled, as drawn (duplicates included).
        2 => {}
        // Ascending runs that restart below the previous run's end.
        3 => keys.chunks_mut(run).for_each(|c| c.sort_unstable()),
        // Ascending with every key repeated: equal keys back to back.
        _ => {
            keys.sort_unstable();
            keys = keys.iter().flat_map(|&k| [k, k]).collect();
        }
    }
    keys
}

/// The inserts of one load: every key goes to all three tables, in an
/// order that rotates per key. Skiplist `b` halves the key, so neighbouring
/// keys collide there.
fn inserts(keys: &[u64], tables: [bionicdb::TableId; 3]) -> Vec<(bionicdb::TableId, [u8; 8])> {
    let [hash, skip_a, skip_b] = tables;
    let mut out = Vec::new();
    for (i, &k) in keys.iter().enumerate() {
        let mut row = [
            (hash, k.to_le_bytes()),
            (skip_a, k.to_be_bytes()),
            (skip_b, (k / 2).to_be_bytes()),
        ];
        row.rotate_left(i % 3);
        out.extend(row);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn held_loader_matches_fresh_loader_per_insert(
        keys in proptest::collection::vec(0u64..300, 1..120),
        order in 0u8..5,
        run in 2usize..24,
    ) {
        let keys = arrange(keys, order, run);
        let (mut held, tables) = build_three();
        let (mut fresh, _) = build_three();
        let ops = inserts(&keys, tables);

        let mut loader = held.loader(0);
        let held_addrs: Vec<u64> = ops
            .iter()
            .map(|(t, k)| loader.insert(*t, k, &[k[0]; 16]))
            .collect();
        drop(loader);
        let fresh_addrs: Vec<u64> = ops
            .iter()
            .map(|(t, k)| fresh.loader(0).insert(*t, k, &[k[0]; 16]))
            .collect();

        prop_assert_eq!(&held_addrs, &fresh_addrs);
        prop_assert_eq!(held.dram().image_digest(), fresh.dram().image_digest());
        for skip in [tables[1], tables[2]] {
            let chain = bottom_chain(&held, skip);
            prop_assert!(chain.windows(2).all(|w| w[0] <= w[1]), "unsorted chain {chain:?}");
            prop_assert_eq!(chain.len(), keys.len());
        }
    }
}

/// The address of the next pointer at `level` of `tower` (0 = the head).
fn next_slot(state: &TableState, tower: u64, level: usize) -> u64 {
    if tower == 0 {
        state.head_next_addr(level)
    } else {
        tower + TOWER_NEXTS + 8 * level as u64
    }
}

/// The loader's write sequence before records were assembled whole: each
/// skiplist key walks from the head, and every field is its own host
/// write. Returns the record's address.
fn reference_insert(dram: &mut Dram, state: &mut TableState, key: &[u8], payload: &[u8]) -> u64 {
    let key = IndexKey::from_bytes(key);
    let header = RecordHeader {
        write_ts: LOAD_TS,
        read_ts: 0,
        flags: 0,
        key,
    }
    .encode();
    match state.meta.kind {
        IndexKind::Hash => {
            let bucket = bucket_of(sdbm_hash(key.as_bytes()), state.meta.hash_buckets);
            let bucket_addr = state.bucket_addr(bucket);
            let head = dram.host_read_u64(bucket_addr);
            let addr = state.alloc_tuple();
            dram.host_write_u64(addr + TUPLE_NEXT, head);
            dram.host_write(addr + TUPLE_HEADER, &header);
            dram.host_write(addr + TUPLE_PAYLOAD, payload);
            dram.host_write_u64(bucket_addr, addr);
            addr
        }
        IndexKind::Skiplist => {
            let mut preds = vec![0u64; state.max_level];
            let mut succs = vec![0u64; state.max_level];
            let mut cur = 0;
            for level in (0..state.max_level).rev() {
                let mut next = dram.host_read_u64(next_slot(state, cur, level));
                while next != 0 && read_header(dram, next).key < key {
                    cur = next;
                    next = dram.host_read_u64(next_slot(state, cur, level));
                }
                preds[level] = cur;
                succs[level] = next;
            }
            let h = tower_height(&key, state.max_level);
            let addr = state.alloc_tower(h);
            dram.host_write(addr, &header);
            dram.host_write_u64(addr + TOWER_HEIGHT, h as u64);
            for (level, &succ) in succs[..h].iter().enumerate() {
                dram.host_write_u64(addr + TOWER_NEXTS + 8 * level as u64, succ);
            }
            dram.host_write(addr + TableState::tower_payload_off(h), payload);
            for (level, &pred) in preds[..h].iter().enumerate() {
                dram.host_write_u64(next_slot(state, pred, level), addr);
            }
            addr
        }
    }
}

/// Skiplist height cap of the reference-check partition: low enough that
/// a handful of keys reaches every height.
const REF_MAX_LEVEL: usize = 6;

/// Bytes of DRAM behind the reference-check partition, compared whole.
const REF_DRAM: u64 = 4 << 20;

/// A bare DRAM plus one partition holding a hash table and a skiplist for
/// each payload length, 13 and 100 bytes: neither a multiple of 8.
fn ref_partition() -> (Dram, Partition) {
    let mut cat = Catalogue::new();
    for (hash, skip, len) in [("h13", "s13", 13), ("h100", "s100", 100)] {
        cat.register_table(TableMeta::hash(hash, 8, len, 1 << 5))
            .unwrap();
        cat.register_table(TableMeta::skiplist(skip, 8, len))
            .unwrap();
    }
    let part = Partition::build(
        PartitionId(0),
        &cat,
        Region::new(1 << 20, 3 << 20),
        Region::new(64 << 10, 64 << 10),
        REF_MAX_LEVEL,
    );
    (Dram::new(&FpgaConfig::default(), REF_DRAM), part)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn loader_writes_the_reference_image(
        keys in proptest::collection::vec(0u64..2_000, 1..80),
        sorted in any::<bool>(),
    ) {
        let mut keys = keys;
        // A key of every tower height, so every tower shape is written.
        for h in 1..=REF_MAX_LEVEL {
            let k = (10_000u64..)
                .find(|k| tower_height(&IndexKey::from_bytes(&k.to_be_bytes()), REF_MAX_LEVEL) == h)
                .unwrap();
            keys.push(k);
        }
        if sorted {
            keys.sort_unstable();
        }

        let (mut dram, mut part) = ref_partition();
        let (mut ref_dram, mut ref_part) = ref_partition();
        let mut loader = Loader::new(&mut dram, &mut part);
        for &k in &keys {
            for t in 0..4 {
                let key = match t % 2 {
                    0 => k.to_le_bytes(),
                    _ => k.to_be_bytes(),
                };
                let len = ref_part.tables[t].meta.payload_len as usize;
                let payload: Vec<u8> = (0..len).map(|i| (k as u8) ^ (i as u8)).collect();
                let got = loader.insert(bionicdb::TableId(t as u8), &key, &payload);
                let want = reference_insert(&mut ref_dram, &mut ref_part.tables[t], &key, &payload);
                prop_assert_eq!(got, want);
            }
        }
        drop(loader);
        let (image, reference) = (dram.host_read(0, REF_DRAM as usize), ref_dram.host_read(0, REF_DRAM as usize));
        if let Some(at) = (0..image.len()).find(|&i| image[i] != reference[i]) {
            prop_assert!(false, "images differ first at byte {at}");
        }
        prop_assert_eq!(dram.image_digest(), ref_dram.image_digest());
    }
}

/// A bare DRAM plus one partition of three hash tables. Tuples of 85, 112
/// and 180 bytes: the first leaves alignment gaps between tuples, the
/// last two make runs of tuples that cross frames. Only the first
/// directory starts on a frame boundary, and the last spans several
/// frames.
fn hash_partition() -> (Dram, Partition) {
    let mut cat = Catalogue::new();
    for (name, len, buckets) in [("a", 13, 1 << 5), ("b", 40, 1 << 3), ("c", 108, 1 << 8)] {
        cat.register_table(TableMeta::hash(name, 8, len, buckets))
            .unwrap();
    }
    let part = Partition::build(
        PartitionId(0),
        &cat,
        Region::new(1 << 20, 3 << 20),
        Region::new(64 << 10, 64 << 10),
        REF_MAX_LEVEL,
    );
    (Dram::new(&FpgaConfig::default(), REF_DRAM), part)
}

/// One step of a hash load.
#[derive(Debug, Clone, Copy)]
enum HashStep {
    /// Insert `key` into a table.
    Insert(u8, u64),
    /// Look `key` up in a table and read the payload found.
    Lookup(u8, u64),
    /// Drop the loader and start a new one over the same partition.
    Reload,
}

/// Mostly inserts; about one step in eight a lookup, one in sixteen a
/// reload.
fn hash_step() -> impl Strategy<Value = HashStep> {
    (0u8..16, 0u8..3, 0u64..200).prop_map(|(pick, t, k)| match pick {
        0 => HashStep::Reload,
        1 | 2 => HashStep::Lookup(t, k),
        _ => HashStep::Insert(t, k),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn staged_hash_loads_match_per_record_writes(
        steps in proptest::collection::vec(hash_step(), 1..400),
    ) {
        let (mut dram, mut part) = hash_partition();
        let (mut ref_dram, mut ref_part) = hash_partition();
        let payload = |t: u8, k: u64, len: u32| -> Vec<u8> {
            (0..len).map(|i| (k as u8).wrapping_mul(7) ^ t ^ i as u8).collect()
        };
        let mut loader = Loader::new(&mut dram, &mut part);
        for step in steps {
            match step {
                HashStep::Insert(t, k) => {
                    let state = &mut ref_part.tables[t as usize];
                    let p = payload(t, k, state.meta.payload_len);
                    let want = reference_insert(&mut ref_dram, state, &k.to_le_bytes(), &p);
                    let got = loader.insert(bionicdb::TableId(t), &k.to_le_bytes(), &p);
                    prop_assert_eq!(got, want, "insert {} into table {}", k, t);
                }
                HashStep::Lookup(t, k) => {
                    let table = bionicdb::TableId(t);
                    let got = loader.lookup(table, &k.to_le_bytes());
                    let reference = Loader::new(&mut ref_dram, &mut ref_part);
                    prop_assert_eq!(got, reference.lookup(table, &k.to_le_bytes()));
                    if let Some(addr) = got {
                        prop_assert_eq!(loader.payload(table, addr), reference.payload(table, addr));
                    }
                }
                HashStep::Reload => {
                    drop(loader);
                    prop_assert_eq!(dram.image_digest(), ref_dram.image_digest());
                    loader = Loader::new(&mut dram, &mut part);
                }
            }
        }
        drop(loader);
        let (image, reference) = (dram.host_read(0, REF_DRAM as usize), ref_dram.host_read(0, REF_DRAM as usize));
        if let Some(at) = (0..image.len()).find(|&i| image[i] != reference[i]) {
            prop_assert!(false, "images differ first at byte {at}");
        }
        prop_assert_eq!(dram.image_digest(), ref_dram.image_digest());
    }
}

/// Partitions of the YCSB checks: more than one, so a load that skipped a
/// partition shows.
const YCSB_WORKERS: usize = 3;

/// Operations per bulk KV transaction in the YCSB checks.
const YCSB_KV_OPS: usize = 6;

/// The skiplist submissions of `YcsbBionic`: a scan, a bulk insert and a
/// bulk search.
#[derive(Debug, Clone, Copy)]
enum SkipTxn {
    Scan,
    Insert,
    Search,
}

/// A YCSB machine whose `ycsb_e` skiplist is loaded at build time: the
/// tables and procedures `YcsbBionic::build` registers, in its order, then
/// per key the hash insert and the skiplist insert through one `Loader`
/// per partition. Returns the machine and the skiplist procedure of `txn`.
fn eager_ycsb(spec: &YcsbSpec, txn: SkipTxn) -> (Machine, ProcId) {
    let buckets = (spec.records_per_partition * 2).next_power_of_two();
    let mut b = SystemBuilder::new(BionicConfig::small(YCSB_WORKERS));
    let table = b.table(TableMeta::hash("ycsb", 8, spec.payload_len, buckets));
    let skip = b.table(TableMeta::skiplist("ycsb_e", 8, spec.payload_len));
    b.proc(build_read_proc(table, spec.ops_per_txn, false));
    b.proc(build_read_proc(table, spec.ops_per_txn, true));
    b.proc(build_update_proc(table, spec.ops_per_txn));
    let scan = b.proc(build_scan_proc(skip, spec.scan_len));
    b.proc(build_kv_insert_proc(
        table,
        YCSB_KV_OPS,
        (TUPLE_HEADER + 16) as i64,
    ));
    b.proc(build_read_proc(table, YCSB_KV_OPS, false));
    let skip_insert = b.proc(build_kv_insert_proc(skip, YCSB_KV_OPS, 16));
    let skip_search = b.proc(build_read_proc(skip, YCSB_KV_OPS, false));
    let mut m = b.build();
    for w in 0..YCSB_WORKERS {
        let mut loader = m.loader(w);
        let mut payload = vec![0u8; spec.payload_len as usize];
        for k in 0..spec.records_per_partition {
            payload[..8].copy_from_slice(&k.to_le_bytes());
            loader.insert(table, &k.to_le_bytes(), &payload);
            loader.insert(skip, &k.to_be_bytes(), &payload);
        }
    }
    let proc = match txn {
        SkipTxn::Scan => scan,
        SkipTxn::Insert => skip_insert,
        SkipTxn::Search => skip_search,
    };
    (m, proc)
}

/// Submit one `txn` on `y` for `worker`, then the same block on the eager
/// machine `r`: the user bytes `y` wrote are copied over, and nothing else,
/// so both images carry the same block.
fn submit_both(
    y: &mut YcsbBionic,
    r: &mut Machine,
    proc: ProcId,
    txn: SkipTxn,
    worker: usize,
    rng: &mut rand::rngs::SmallRng,
) -> (TxnBlock, TxnBlock) {
    let (size, written) = match txn {
        SkipTxn::Scan => (y.block_size(YcsbKind::Scan), vec![(0, 8)]),
        SkipTxn::Insert | SkipTxn::Search => {
            let keys = 8 * YCSB_KV_OPS as u64;
            let mut written = vec![(0, keys)];
            if matches!(txn, SkipTxn::Insert) {
                written.push((keys, y.spec.payload_len as u64));
            }
            (y.kv_block_size(YCSB_KV_OPS), written)
        }
    };
    let blk = y.machine.alloc_block(worker, size);
    match txn {
        SkipTxn::Scan => y.submit_txn(worker, blk, YcsbKind::Scan, rng),
        SkipTxn::Insert => y.submit_skip_txn(worker, blk, true, rng),
        SkipTxn::Search => y.submit_skip_txn(worker, blk, false, rng),
    }
    let rblk = r.alloc_block(worker, size);
    r.init_block(rblk, proc);
    for (off, len) in written {
        r.write_block(rblk, off, &y.machine.read_block(blk, off, len));
    }
    r.submit(worker, rblk);
    (blk, rblk)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn deferred_skiplist_load_matches_the_eager_load(
        txn in prop_oneof![Just(SkipTxn::Scan), Just(SkipTxn::Insert), Just(SkipTxn::Search)],
        worker in 0..YCSB_WORKERS,
        seed in any::<u64>(),
    ) {
        let spec = YcsbSpec { records_per_partition: 500, ..YcsbSpec::tiny() };
        let mut y = YcsbBionic::build(BionicConfig::small(YCSB_WORKERS), spec.clone(), YCSB_KV_OPS);
        let (mut r, proc) = eager_ycsb(&spec, txn);
        let mut rng = YcsbBionic::rng(seed);

        let first = submit_both(&mut y, &mut r, proc, txn, worker, &mut rng);
        prop_assert_eq!(y.machine.dram().image_digest(), r.dram().image_digest());
        for w in 0..YCSB_WORKERS {
            for k in 0..spec.records_per_partition {
                for (table, key) in [(y.table, k.to_le_bytes()), (y.scan_table, k.to_be_bytes())] {
                    let got = y.machine.loader(w).lookup(table, &key);
                    prop_assert!(got.is_some(), "worker {} key {} table {:?}", w, k, table);
                    prop_assert_eq!(got, r.loader(w).lookup(table, &key));
                }
            }
        }

        // The load runs once: a second skiplist transaction loads nothing.
        let second = submit_both(&mut y, &mut r, proc, txn, (worker + 1) % YCSB_WORKERS, &mut rng);
        y.machine.run_to_quiescence();
        r.run_to_quiescence();
        for (blk, rblk) in [first, second] {
            prop_assert!(y.machine.block_status(blk).is_committed());
            prop_assert!(r.block_status(rblk).is_committed());
        }
        prop_assert_eq!(y.machine.dram().image_digest(), r.dram().image_digest());
        prop_assert_eq!(y.machine.report().to_json(), r.report().to_json());
    }
}

#[test]
fn point_reads_leave_the_skiplist_unloaded() {
    let mut y = YcsbBionic::build(
        BionicConfig::small(YCSB_WORKERS),
        YcsbSpec::tiny(),
        YCSB_KV_OPS,
    );
    let mut rng = YcsbBionic::rng(9);
    let size = y.block_size(YcsbKind::ReadHomed);
    let blocks: Vec<(usize, TxnBlock)> = (0..YCSB_WORKERS)
        .flat_map(|w| (0..4).map(move |_| w))
        .map(|w| (w, y.machine.alloc_block(w, size)))
        .collect();
    for &(w, blk) in &blocks {
        y.submit_txn(w, blk, YcsbKind::ReadHomed, &mut rng);
    }
    y.machine.run_to_quiescence();
    for &(_, blk) in &blocks {
        assert!(y.machine.block_status(blk).is_committed());
    }
    for w in 0..YCSB_WORKERS {
        let state = &y.machine.partition(w).tables[y.scan_table.0 as usize];
        for level in 0..state.max_level {
            assert_eq!(
                y.machine.dram().host_read_u64(state.head_next_addr(level)),
                0,
                "worker {w} level {level}"
            );
        }
        let loader = y.machine.loader(w);
        assert!(loader.lookup(y.table, &0u64.to_le_bytes()).is_some());
        assert!(loader.lookup(y.scan_table, &0u64.to_be_bytes()).is_none());
    }
}

/// Every key stored in table `t` of partition `w`, found by walking its
/// hash chains or its skiplist's bottom level.
fn stored_keys(m: &Machine, w: usize, t: usize) -> Vec<IndexKey> {
    let state = &m.partition(w).tables[t];
    let dram = m.dram();
    let mut keys = Vec::new();
    match state.meta.kind {
        IndexKind::Hash => {
            for bucket in 0..state.meta.hash_buckets {
                let mut cur = dram.host_read_u64(state.bucket_addr(bucket));
                while cur != 0 {
                    keys.push(read_header(dram, cur + TUPLE_HEADER).key);
                    cur = dram.host_read_u64(cur + TUPLE_NEXT);
                }
            }
        }
        IndexKind::Skiplist => {
            let mut cur = dram.host_read_u64(state.head_next_addr(0));
            while cur != 0 {
                keys.push(read_header(dram, cur).key);
                cur = dram.host_read_u64(cur + TOWER_NEXTS);
            }
        }
    }
    keys
}

/// Assert that `restored` holds the database `fresh` loaded: equal DRAM
/// digests and table heaps, and every key of `fresh` at the same address
/// in both.
fn assert_same_database(restored: &mut Machine, fresh: &mut Machine, label: &str) {
    assert_eq!(
        restored.dram().image_digest(),
        fresh.dram().image_digest(),
        "{label}: digest"
    );
    assert_eq!(restored.num_workers(), fresh.num_workers(), "{label}");
    for w in 0..fresh.num_workers() {
        let tables = fresh.partition(w).tables.len();
        assert_eq!(restored.partition(w).tables.len(), tables, "{label}");
        for t in 0..tables {
            assert_eq!(
                restored.partition(w).tables[t].heap,
                fresh.partition(w).tables[t].heap,
                "{label}: worker {w} table {t} heap"
            );
            let table = bionicdb::TableId(t as u8);
            for key in stored_keys(fresh, w, t) {
                let want = fresh.loader(w).lookup(table, key.as_bytes());
                assert!(want.is_some(), "{label}: worker {w} table {t}");
                assert_eq!(
                    restored.loader(w).lookup(table, key.as_bytes()),
                    want,
                    "{label}: worker {w} table {t} key {key:?}"
                );
            }
        }
    }
}

/// Build `make` until a build restores its database from the image
/// store (the first build of a key loads it and stores the image; a test
/// on another thread may replace it in between).
fn restored(label: &str, make: &impl Fn() -> Box<dyn Workload>) -> Box<dyn Workload> {
    for _ in 0..100 {
        let w = make();
        if restored_last() {
            return w;
        }
    }
    panic!("{label}: no build restored its image");
}

/// Build `make` twice, restored from the image store and loaded fresh;
/// check both hold the same database, then run the same wave on both and
/// compare their reports.
fn check_restore(label: &str, make: impl Fn() -> Box<dyn Workload>) {
    let mut restored = restored(label, &make);
    let mut fresh = fresh_loads(&make);
    assert_same_database(restored.machine(), fresh.machine(), label);
    bionicdb_bench::drive(&mut *restored, 6);
    bionicdb_bench::drive(&mut *fresh, 6);
    assert!(
        fresh.machine_ref().stats().committed > 0,
        "{label}: committed"
    );
    assert_eq!(
        restored.machine_ref().report().to_json(),
        fresh.machine_ref().report().to_json(),
        "{label}: report"
    );
    assert_eq!(
        restored.machine_ref().dram().image_digest(),
        fresh.machine_ref().dram().image_digest(),
        "{label}: digest after the wave"
    );
}

/// YCSB on `cfg` with `spec`, read with per-op homes.
fn ycsb_on(cfg: BionicConfig, spec: YcsbSpec) -> Box<dyn Workload> {
    Box::new(YcsbWorkload {
        sys: YcsbBionic::build(cfg, spec, YCSB_KV_OPS),
        kind: YcsbKind::ReadHomed,
    })
}

#[test]
fn restored_standard_workloads_equal_fresh_loads() {
    for w in StdWorkload::ALL {
        check_restore(&format!("{w:?}"), || w.build(BionicConfig::small(2)));
    }
}

/// The chained 128-bucket table of the batched serving workload, and
/// configurations that differ from the stock one only in batch mode,
/// topology or spec fields the load does not read: all of them share an
/// image with some other machine in the store, and each must still equal
/// its own fresh load.
#[test]
fn restored_variants_equal_fresh_loads() {
    let chained = YcsbSpec {
        hash_buckets: Some(CHAINED_HASH_BUCKETS),
        ..YcsbSpec::tiny()
    };
    let cross = hw_config(ServeKind::YcsbC, 2, Some(4));
    let plain = hw_config(ServeKind::YcsbC, 2, None);
    check_restore("chained cross-txn", || {
        ycsb_on(cross.clone(), chained.clone())
    });
    check_restore("chained off", || ycsb_on(plain.clone(), chained.clone()));
    let ring = BionicConfig {
        topology: Topology::Ring,
        ..BionicConfig::small(2)
    };
    for w in StdWorkload::ALL {
        check_restore(&format!("{w:?} ring"), || w.build(ring.clone()));
    }
    let tpcc_cross = hw_config(ServeKind::TpccMixed, 2, Some(2));
    check_restore("tpcc cross-txn", || {
        StdWorkload::Tpcc(TpccMix::Mixed).build(tpcc_cross.clone())
    });
    // Fields the load does not read share the stock spec's image.
    let other_txns = YcsbSpec {
        ops_per_txn: 4,
        remote_fraction: 0.25,
        ..YcsbSpec::tiny()
    };
    check_restore("other transactions", || {
        ycsb_on(BionicConfig::small(2), other_txns.clone())
    });
    // Payloads wider than a frame leave all-zero frames in the image.
    let wide = YcsbSpec {
        records_per_partition: 200,
        payload_len: 2048,
        ..YcsbSpec::tiny()
    };
    check_restore("wide payloads", || {
        ycsb_on(BionicConfig::small(2), wide.clone())
    });
    // A restored machine whose `ycsb_e` skiplist loads at its first scan.
    check_restore("scan", || {
        Box::new(YcsbWorkload {
            sys: YcsbBionic::build(BionicConfig::small(2), YcsbSpec::tiny(), YCSB_KV_OPS),
            kind: YcsbKind::Scan,
        })
    });
}

/// A different `partition_bytes` moves every table: the machine gets an
/// image of its own layout, not the one loaded for the stock size.
#[test]
fn restored_machines_of_another_partition_size_equal_fresh_loads() {
    let stock = BionicConfig::small(2);
    let smaller = BionicConfig {
        partition_bytes: stock.partition_bytes / 2,
        ..stock.clone()
    };
    for w in StdWorkload::ALL {
        check_restore(&format!("{w:?} stock"), || w.build(stock.clone()));
        check_restore(&format!("{w:?} smaller"), || w.build(smaller.clone()));
    }
}
