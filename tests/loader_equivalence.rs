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

use bionicdb::{BionicConfig, SystemBuilder, TableMeta};
use bionicdb_coproc::layout::{read_header, TOWER_NEXTS, TUPLE_HEADER};
use bionicdb_softcore::builder::ProcBuilder;
use bionicdb_softcore::isa::{MemBase, Operand};
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
