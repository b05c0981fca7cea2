//! Partition layout and host-side bulk loading.
//!
//! The database is partitioned and entirely resident in FPGA-side DRAM
//! (paper §4.2): each partition worker exclusively owns one partition with
//! its own index directories and tuple heap, plus an arena the host carves
//! transaction blocks from.
//!
//! [`Loader`] performs *host-side* bulk loading: it builds exactly the
//! same hash chains and skiplist towers the index pipelines would (same
//! sdbm bucket placement, same deterministic tower heights), but through
//! untimed host writes — the way the paper's experiments populate the
//! database before starting the clock (§5.1). A property test in
//! `tests/loader_equivalence.rs` verifies load-vs-pipeline equivalence.

use bionicdb_coproc::layout::{
    read_header, RecordHeader, TableState, TOWER_HEIGHT, TOWER_NEXTS, TUPLE_HEADER, TUPLE_NEXT,
    TUPLE_PAYLOAD,
};
use bionicdb_coproc::sdbm::{bucket_of, sdbm_hash};
use bionicdb_coproc::skiplist::{tower_height, MAX_SKIP_LEVEL};
use bionicdb_fpga::{Dram, Region};
use bionicdb_softcore::catalogue::{Catalogue, IndexKind};
use bionicdb_softcore::{IndexKey, PartitionId, TableId};

/// Commit timestamp given to bulk-loaded records. Any hardware transaction
/// timestamp is larger (they embed the cycle counter), so loaded data is
/// visible to every transaction.
pub const LOAD_TS: u64 = 1;

/// One partition: per-table physical state plus the transaction-block
/// arena the host allocates from.
#[derive(Debug)]
pub struct Partition {
    /// The owning worker.
    pub id: PartitionId,
    /// Physical state of every table, indexed by `TableId`.
    pub tables: Vec<TableState>,
    /// Arena for transaction blocks submitted to this worker.
    pub block_arena: Region,
}

impl Partition {
    /// Lay out a partition inside `region`: index directories first, then
    /// the tuple heap; the block arena is carved separately by the caller.
    pub fn build(
        id: PartitionId,
        cat: &Catalogue,
        mut region: Region,
        block_arena: Region,
        max_level: usize,
    ) -> Partition {
        let mut tables = Vec::with_capacity(cat.num_tables());
        for (_tid, meta) in cat.tables() {
            let dir_addr = match meta.kind {
                IndexKind::Hash => region.alloc(8 * meta.hash_buckets, 64),
                IndexKind::Skiplist => region.alloc(8 * max_level as u64, 64),
            };
            tables.push(TableState {
                meta: meta.clone(),
                dir_addr,
                heap: Region::new(0, 0), // placeholder, fixed below
                max_level,
            });
        }
        // Split the remaining space evenly into per-table heaps, leaving
        // headroom for carve alignment.
        let n = tables.len().max(1) as u64;
        let share = (region.remaining() / n).saturating_sub(64) & !63;
        for t in &mut tables {
            t.heap = region.carve(share, 64);
        }
        Partition {
            id,
            tables,
            block_arena,
        }
    }
}

/// Host-side bulk loader for one partition.
///
/// Hold one `Loader` across a bulk load: it keeps a per-table skiplist
/// *finger* (the last key inserted and its neighbours at every level), so
/// keys loaded in ascending order cost a constant number of host accesses
/// instead of a walk from the head through every level.
pub struct Loader<'a> {
    dram: &'a mut Dram,
    partition: &'a mut Partition,
    /// Skiplist fingers indexed by `TableId`, grown on first use. They stay
    /// exact for the loader's whole life because it holds the only mutable
    /// borrows of the partition and its DRAM, so nothing else can relink a
    /// tower behind its back; they therefore never outlive the loader.
    fingers: Vec<Option<Finger>>,
}

/// Where the last inserted key sits in one skiplist: at every level, the
/// tower before it (itself, at levels its own tower reaches) and the tower
/// after it. Tower address 0 is the head before, or the end of the list
/// after.
struct Finger {
    key: IndexKey,
    preds: [u64; MAX_SKIP_LEVEL],
    succs: [u64; MAX_SKIP_LEVEL],
}

/// The next tower after `tower` (0 = the head) at `level`.
fn next_at(dram: &Dram, state: &TableState, tower: u64, level: usize) -> u64 {
    if tower == 0 {
        dram.host_read_u64(state.head_next_addr(level))
    } else {
        dram.host_read_u64(tower + TOWER_NEXTS + 8 * level as u64)
    }
}

impl<'a> Loader<'a> {
    /// Create a loader over `partition`.
    pub fn new(dram: &'a mut Dram, partition: &'a mut Partition) -> Self {
        Loader {
            dram,
            partition,
            fingers: Vec::new(),
        }
    }

    /// Insert a committed record. The payload length must match the table
    /// schema exactly.
    pub fn insert(&mut self, table: TableId, key: &[u8], payload: &[u8]) -> u64 {
        let state = &mut self.partition.tables[table.0 as usize];
        assert_eq!(
            payload.len() as u32,
            state.meta.payload_len,
            "payload length must match schema of table {:?}",
            table
        );
        assert_eq!(
            key.len(),
            state.meta.key_len as usize,
            "key length must match schema"
        );
        let key = IndexKey::from_bytes(key);
        match state.meta.kind {
            IndexKind::Hash => Self::hash_insert(self.dram, state, key, payload),
            IndexKind::Skiplist => {
                let t = table.0 as usize;
                if self.fingers.len() <= t {
                    self.fingers.resize_with(t + 1, || None);
                }
                Self::skiplist_insert(self.dram, state, &mut self.fingers[t], key, payload)
            }
        }
    }

    fn header(key: IndexKey) -> RecordHeader {
        RecordHeader {
            write_ts: LOAD_TS,
            read_ts: 0,
            flags: 0,
            key,
        }
    }

    fn hash_insert(dram: &mut Dram, state: &mut TableState, key: IndexKey, payload: &[u8]) -> u64 {
        let bucket = bucket_of(sdbm_hash(key.as_bytes()), state.meta.hash_buckets);
        let bucket_addr = state.bucket_addr(bucket);
        let head = dram.host_read_u64(bucket_addr);
        let addr = state.alloc_tuple();
        dram.host_write_u64(addr + TUPLE_NEXT, head);
        dram.host_write(addr + TUPLE_HEADER, &Self::header(key).encode());
        dram.host_write(addr + TUPLE_PAYLOAD, payload);
        dram.host_write_u64(bucket_addr, addr);
        addr
    }

    /// Link a new tower in front of every tower whose key is not below
    /// `key`, exactly where a walk from the head would. A key above the
    /// finger's climbs from the finger until the level whose successor is
    /// not below `key` (Pugh's search finger) and walks down from there;
    /// any other key walks down from the head.
    fn skiplist_insert(
        dram: &mut Dram,
        state: &mut TableState,
        finger: &mut Option<Finger>,
        key: IndexKey,
        payload: &[u8],
    ) -> u64 {
        let max_level = state.max_level;
        let h = tower_height(&key, max_level);
        let below = |dram: &Dram, tower: u64| tower != 0 && read_header(dram, tower).key < key;
        let mut at = Finger {
            key,
            preds: [0; MAX_SKIP_LEVEL],
            succs: [0; MAX_SKIP_LEVEL],
        };
        // `top` is the highest level still to walk, from `cur` towards `next`.
        let (top, mut cur, mut next) = match finger {
            Some(f) if f.key < key => {
                let mut top = 0;
                while top + 1 < max_level && below(dram, f.succs[top + 1]) {
                    top += 1;
                }
                at.preds[top + 1..max_level].copy_from_slice(&f.preds[top + 1..max_level]);
                at.succs[top + 1..max_level].copy_from_slice(&f.succs[top + 1..max_level]);
                (top, f.preds[top], f.succs[top])
            }
            _ => (max_level - 1, 0, next_at(dram, state, 0, max_level - 1)),
        };
        for level in (0..=top).rev() {
            if level < top {
                next = next_at(dram, state, cur, level);
            }
            while below(dram, next) {
                cur = next;
                next = next_at(dram, state, cur, level);
            }
            at.preds[level] = cur;
            at.succs[level] = next;
        }
        let addr = state.alloc_tower(h);
        dram.host_write(addr, &Self::header(key).encode());
        dram.host_write_u64(addr + TOWER_HEIGHT, h as u64);
        for (level, &succ) in at.succs[..h].iter().enumerate() {
            dram.host_write_u64(addr + TOWER_NEXTS + 8 * level as u64, succ);
        }
        dram.host_write(addr + TableState::tower_payload_off(h), payload);
        for (level, &pred) in at.preds[..h].iter().enumerate() {
            let slot = if pred == 0 {
                state.head_next_addr(level)
            } else {
                pred + TOWER_NEXTS + 8 * level as u64
            };
            dram.host_write_u64(slot, addr);
        }
        at.preds[..h].fill(addr);
        *finger = Some(at);
        addr
    }

    /// Host-side point lookup (untimed), for verification: returns the
    /// tuple address.
    pub fn lookup(&self, table: TableId, key: &[u8]) -> Option<u64> {
        let state = &self.partition.tables[table.0 as usize];
        let key = IndexKey::from_bytes(key);
        match state.meta.kind {
            IndexKind::Hash => {
                let bucket = bucket_of(sdbm_hash(key.as_bytes()), state.meta.hash_buckets);
                let mut cur = self.dram.host_read_u64(state.bucket_addr(bucket));
                while cur != 0 {
                    let hdr = read_header(self.dram, cur + TUPLE_HEADER);
                    if hdr.key == key && !hdr.is_tombstone() {
                        return Some(cur);
                    }
                    cur = self.dram.host_read_u64(cur + TUPLE_NEXT);
                }
                None
            }
            IndexKind::Skiplist => {
                let mut cur = 0u64;
                for level in (0..state.max_level).rev() {
                    loop {
                        let next = next_at(self.dram, state, cur, level);
                        if next == 0 {
                            break;
                        }
                        let hdr = read_header(self.dram, next);
                        match hdr.key.cmp(&key) {
                            std::cmp::Ordering::Less => cur = next,
                            std::cmp::Ordering::Equal if level == 0 && !hdr.is_tombstone() => {
                                return Some(next)
                            }
                            _ => break,
                        }
                    }
                }
                None
            }
        }
    }

    /// Read a record's payload bytes by tuple/tower address.
    pub fn payload(&self, table: TableId, record_addr: u64) -> Vec<u8> {
        let state = &self.partition.tables[table.0 as usize];
        match state.meta.kind {
            IndexKind::Hash => self
                .dram
                .host_read(record_addr + TUPLE_PAYLOAD, state.meta.payload_len as usize),
            IndexKind::Skiplist => {
                let h = self.dram.host_read_u64(record_addr + TOWER_HEIGHT) as usize;
                self.dram.host_read(
                    record_addr + TableState::tower_payload_off(h),
                    state.meta.payload_len as usize,
                )
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bionicdb_fpga::FpgaConfig;
    use bionicdb_softcore::catalogue::TableMeta;

    fn setup() -> (Dram, Partition) {
        let mut cat = Catalogue::new();
        cat.register_table(TableMeta::hash("h", 8, 16, 1 << 8))
            .unwrap();
        cat.register_table(TableMeta::skiplist("s", 8, 16)).unwrap();
        let dram = Dram::new(&FpgaConfig::default(), 64 << 20);
        let part = Partition::build(
            PartitionId(0),
            &cat,
            Region::new(8 << 20, 40 << 20),
            Region::new(1 << 20, 4 << 20),
            20,
        );
        (dram, part)
    }

    #[test]
    fn hash_load_and_lookup() {
        let (mut dram, mut part) = setup();
        let mut loader = Loader::new(&mut dram, &mut part);
        let addrs: Vec<u64> = (0..500u64)
            .map(|k| loader.insert(TableId(0), &k.to_be_bytes(), &[k as u8; 16]))
            .collect();
        for k in 0..500u64 {
            let found = loader
                .lookup(TableId(0), &k.to_be_bytes())
                .expect("present");
            assert_eq!(found, addrs[k as usize]);
            assert_eq!(loader.payload(TableId(0), found), vec![k as u8; 16]);
        }
        assert!(loader.lookup(TableId(0), &999u64.to_be_bytes()).is_none());
    }

    #[test]
    fn skiplist_load_orders_keys() {
        let (mut dram, mut part) = setup();
        let mut loader = Loader::new(&mut dram, &mut part);
        // Insert in a scrambled order.
        for k in [5u64, 1, 9, 3, 7, 2, 8, 4, 6, 0] {
            loader.insert(TableId(1), &k.to_be_bytes(), &[0u8; 16]);
        }
        for k in 0..10u64 {
            assert!(
                loader.lookup(TableId(1), &k.to_be_bytes()).is_some(),
                "key {k}"
            );
        }
        // Bottom chain is sorted.
        let state = &part.tables[1];
        let mut cur = dram.host_read_u64(state.head_next_addr(0));
        let mut prev = None;
        let mut n = 0;
        while cur != 0 {
            let hdr = read_header(&dram, cur);
            let k = hdr.key.to_u64();
            if let Some(p) = prev {
                assert!(k > p);
            }
            prev = Some(k);
            n += 1;
            cur = dram.host_read_u64(cur + TOWER_NEXTS);
        }
        assert_eq!(n, 10);
    }

    #[test]
    fn finger_falls_back_to_full_walk_at_or_below_last_key() {
        // Keys at or below the finger's take the full walk from the head;
        // the image must equal one built by a fresh loader per key.
        let keys = [
            (10u64, false),
            (20, true),
            (30, true),
            (15, false),
            (40, true),
            (40, false),
            (5, false),
            (50, true),
            (30, false),
        ];
        let (mut held_dram, mut held_part) = setup();
        let (mut fresh_dram, mut fresh_part) = setup();
        let mut loader = Loader::new(&mut held_dram, &mut held_part);
        for (k, via_finger) in keys {
            let key = k.to_be_bytes();
            let finger_key = loader
                .fingers
                .get(1)
                .and_then(|f| f.as_ref())
                .map(|f| f.key);
            assert_eq!(
                finger_key.is_some_and(|f| f < IndexKey::from_bytes(&key)),
                via_finger,
                "key {k}"
            );
            let held = loader.insert(TableId(1), &key, &[k as u8; 16]);
            let fresh = Loader::new(&mut fresh_dram, &mut fresh_part).insert(
                TableId(1),
                &key,
                &[k as u8; 16],
            );
            assert_eq!(held, fresh, "key {k}");
        }
        drop(loader);
        assert_eq!(held_dram.image_digest(), fresh_dram.image_digest());
    }

    #[test]
    #[should_panic(expected = "payload length")]
    fn wrong_payload_length_rejected() {
        let (mut dram, mut part) = setup();
        let mut loader = Loader::new(&mut dram, &mut part);
        loader.insert(TableId(0), &1u64.to_be_bytes(), &[0u8; 5]);
    }

    #[test]
    fn partition_tables_get_disjoint_heaps() {
        let (_dram, part) = setup();
        let a = &part.tables[0].heap;
        let b = &part.tables[1].heap;
        assert!(a.base() + a.size() <= b.base() || b.base() + b.size() <= a.base());
    }
}
