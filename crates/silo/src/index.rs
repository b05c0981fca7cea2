//! Software in-memory indexes for the Silo baseline.
//!
//! Three structures, mirroring the paper's comparisons:
//!
//! * [`HashIndex`] — chained hash table (vs. BionicDB's hash pipeline);
//! * [`SwSkipList`] — Pugh skiplist (paper Fig. 11d "SW skiplist");
//! * [`Masstree`] — a B+ tree; with 64-bit keys Masstree degenerates to a
//!   single trie layer, which *is* a B+ tree, so this implements the
//!   structure the paper's Fig. 11d Masstree numbers exercise.
//!
//! Every traversal reports its memory touches through a
//! [`Tracer`]: one dependent read per pointer hop, sized by the node
//! footprint, so the Xeon cache model observes exactly the pointer-chasing
//! behaviour the paper's §3.1 argues is the CPU's OLTP bottleneck.
//!
//! The skiplist and B+ tree are arena-based (indices, not pointers), which
//! keeps the crate in safe Rust; traced "addresses" are stable virtual
//! addresses derived from the arena slot.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bionicdb_cpu_model::Tracer;
use parking_lot::RwLock;

use crate::record::Record;

/// Distinct virtual address spaces for arena-based structures.
static NEXT_VBASE: AtomicU64 = AtomicU64::new(1 << 40);

fn fresh_vbase() -> u64 {
    NEXT_VBASE.fetch_add(1 << 33, Ordering::Relaxed)
}

// ---------------------------------------------------------------------------
// Hash index
// ---------------------------------------------------------------------------

#[derive(Debug)]
struct HashNode {
    key: u64,
    rec: Arc<Record>,
    /// Stable virtual address for the timing model (insertion-order slot
    /// in the index's address space — never a real heap pointer, so
    /// identically built tables trace identical cache behaviour).
    vaddr: u64,
    next: Option<Box<HashNode>>,
}

/// Footprint of one hash chain node, for the timing model.
const HASH_NODE_BYTES: u64 = 32;

/// A chained hash table with per-bucket read-write locks.
#[derive(Debug)]
pub struct HashIndex {
    buckets: Vec<RwLock<Option<Box<HashNode>>>>,
    mask: u64,
    /// Base of this table's virtual address space: bucket headers live at
    /// `vbase + b * 64`, chain nodes above `vbase + (1 << 30)`.
    vbase: u64,
    next_slot: AtomicU64,
}

impl HashIndex {
    /// Create a table with `buckets` buckets (rounded up to a power of
    /// two).
    pub fn new(buckets: usize) -> Self {
        let n = buckets.next_power_of_two().max(16);
        HashIndex {
            buckets: (0..n).map(|_| RwLock::new(None)).collect(),
            mask: n as u64 - 1,
            vbase: fresh_vbase(),
            next_slot: AtomicU64::new(0),
        }
    }

    fn bucket(&self, key: u64) -> usize {
        // fibonacci hashing; cheap like the FPGA's sdbm.
        ((key.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 16) & self.mask) as usize
    }

    fn bucket_addr(&self, b: usize) -> u64 {
        self.vbase + b as u64 * 64
    }

    /// Point lookup.
    pub fn get<T: Tracer>(&self, tr: &mut T, key: u64) -> Option<Arc<Record>> {
        let b = self.bucket(key);
        let guard = self.buckets[b].read();
        tr.read(self.bucket_addr(b), 8);
        let mut cur = guard.as_deref();
        while let Some(node) = cur {
            tr.read(node.vaddr, HASH_NODE_BYTES);
            if node.key == key {
                return Some(Arc::clone(&node.rec));
            }
            cur = node.next.as_deref();
        }
        None
    }

    /// Insert; returns false on duplicate key.
    pub fn insert<T: Tracer>(&self, tr: &mut T, key: u64, rec: Arc<Record>) -> bool {
        let b = self.bucket(key);
        let mut guard = self.buckets[b].write();
        tr.read(self.bucket_addr(b), 8);
        let mut cur = guard.as_deref();
        while let Some(node) = cur {
            tr.read(node.vaddr, HASH_NODE_BYTES);
            if node.key == key {
                return false;
            }
            cur = node.next.as_deref();
        }
        let vaddr = self.vbase + (1 << 30) + self.next_slot.fetch_add(1, Ordering::Relaxed) * 64;
        let node = Box::new(HashNode {
            key,
            rec,
            vaddr,
            next: guard.take(),
        });
        tr.write(vaddr, HASH_NODE_BYTES);
        *guard = Some(node);
        true
    }
}

// ---------------------------------------------------------------------------
// Software skiplist
// ---------------------------------------------------------------------------

const SKIP_MAX_LEVEL: usize = 20;
const NIL: u32 = u32::MAX;
/// Virtual footprint of one tower, for the timing model.
const SKIP_NODE_BYTES: u64 = 128;

#[derive(Debug)]
struct SkipNode {
    key: u64,
    rec: Arc<Record>,
    nexts: Vec<u32>,
}

#[derive(Debug, Default)]
struct SkipInner {
    arena: Vec<SkipNode>,
    head: Vec<u32>,
}

/// A Pugh skiplist guarded by a read-write lock (readers scale; inserts
/// serialize, which matches its role as a scan baseline).
#[derive(Debug)]
pub struct SwSkipList {
    inner: RwLock<SkipInner>,
    vbase: u64,
}

/// Deterministic geometric tower height from the key (reproducible runs).
fn skip_height(key: u64) -> usize {
    let mut z = key.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0xdead_beef;
    z ^= z >> 33;
    z = z.wrapping_mul(0xff51_afd7_ed55_8ccd);
    z ^= z >> 33;
    ((z.trailing_ones() as usize) + 1).min(SKIP_MAX_LEVEL)
}

impl Default for SwSkipList {
    fn default() -> Self {
        Self::new()
    }
}

impl SwSkipList {
    /// Create an empty skiplist.
    pub fn new() -> Self {
        SwSkipList {
            inner: RwLock::new(SkipInner {
                arena: Vec::new(),
                head: vec![NIL; SKIP_MAX_LEVEL],
            }),
            vbase: fresh_vbase(),
        }
    }

    fn node_addr(&self, idx: u32) -> u64 {
        self.vbase + idx as u64 * SKIP_NODE_BYTES
    }

    /// Point lookup.
    pub fn get<T: Tracer>(&self, tr: &mut T, key: u64) -> Option<Arc<Record>> {
        let g = self.inner.read();
        let mut cur: Option<u32> = None; // None = head
        for level in (0..SKIP_MAX_LEVEL).rev() {
            loop {
                let next = match cur {
                    None => g.head[level],
                    Some(i) => g.arena[i as usize].nexts[level],
                };
                if next == NIL {
                    break;
                }
                tr.read(self.node_addr(next), SKIP_NODE_BYTES);
                let nk = g.arena[next as usize].key;
                match nk.cmp(&key) {
                    std::cmp::Ordering::Less => cur = Some(next),
                    std::cmp::Ordering::Equal if level == 0 => {
                        return Some(Arc::clone(&g.arena[next as usize].rec))
                    }
                    _ => break,
                }
            }
        }
        None
    }

    /// Insert; returns false on duplicate key.
    pub fn insert<T: Tracer>(&self, tr: &mut T, key: u64, rec: Arc<Record>) -> bool {
        let mut g = self.inner.write();
        let mut preds = [NIL; SKIP_MAX_LEVEL];
        let mut cur: Option<u32> = None;
        for level in (0..SKIP_MAX_LEVEL).rev() {
            loop {
                let next = match cur {
                    None => g.head[level],
                    Some(i) => g.arena[i as usize].nexts[level],
                };
                if next == NIL {
                    break;
                }
                tr.read(self.node_addr(next), SKIP_NODE_BYTES);
                match g.arena[next as usize].key.cmp(&key) {
                    std::cmp::Ordering::Less => cur = Some(next),
                    std::cmp::Ordering::Equal => return false,
                    std::cmp::Ordering::Greater => break,
                }
            }
            preds[level] = cur.unwrap_or(NIL);
        }
        let h = skip_height(key);
        let idx = g.arena.len() as u32;
        let mut nexts = vec![NIL; h];
        for (level, next) in nexts.iter_mut().enumerate().take(h) {
            *next = if preds[level] == NIL {
                g.head[level]
            } else {
                g.arena[preds[level] as usize].nexts[level]
            };
        }
        g.arena.push(SkipNode { key, rec, nexts });
        tr.write(self.node_addr(idx), SKIP_NODE_BYTES);
        for (level, &pred) in preds.iter().enumerate().take(h) {
            if pred == NIL {
                g.head[level] = idx;
            } else {
                g.arena[pred as usize].nexts[level] = idx;
            }
            tr.write(self.node_addr(pred.min(idx)), 8);
        }
        true
    }

    /// Collect up to `n` records with key ≥ `start`, in key order.
    pub fn scan<T: Tracer>(&self, tr: &mut T, start: u64, n: usize, out: &mut Vec<Arc<Record>>) {
        let g = self.inner.read();
        let mut cur: Option<u32> = None;
        for level in (0..SKIP_MAX_LEVEL).rev() {
            loop {
                let next = match cur {
                    None => g.head[level],
                    Some(i) => g.arena[i as usize].nexts[level],
                };
                if next == NIL {
                    break;
                }
                tr.read(self.node_addr(next), SKIP_NODE_BYTES);
                if g.arena[next as usize].key < start {
                    cur = Some(next);
                } else {
                    break;
                }
            }
        }
        let mut node = match cur {
            None => g.head[0],
            Some(i) => g.arena[i as usize].nexts[0],
        };
        while node != NIL && out.len() < n {
            tr.read(self.node_addr(node), SKIP_NODE_BYTES);
            out.push(Arc::clone(&g.arena[node as usize].rec));
            node = g.arena[node as usize].nexts[0];
        }
    }
}

// ---------------------------------------------------------------------------
// Masstree-like B+ tree
// ---------------------------------------------------------------------------

/// Fanout of one node (keys per node).
const BT_ORDER: usize = 14;
/// Virtual footprint of one B+ node (two cache lines of keys + pointers).
const BT_NODE_BYTES: u64 = 256;

#[derive(Debug)]
enum BNode {
    Internal {
        keys: Vec<u64>,
        children: Vec<u32>,
    },
    Leaf {
        keys: Vec<u64>,
        recs: Vec<Arc<Record>>,
        next: u32,
    },
}

#[derive(Debug)]
struct BtInner {
    arena: Vec<BNode>,
    root: u32,
}

/// A cache-conscious B+ tree standing in for Masstree (see module docs).
#[derive(Debug)]
pub struct Masstree {
    inner: RwLock<BtInner>,
    vbase: u64,
}

impl Default for Masstree {
    fn default() -> Self {
        Self::new()
    }
}

impl Masstree {
    /// Create an empty tree.
    pub fn new() -> Self {
        Masstree {
            inner: RwLock::new(BtInner {
                arena: vec![BNode::Leaf {
                    keys: Vec::new(),
                    recs: Vec::new(),
                    next: NIL,
                }],
                root: 0,
            }),
            vbase: fresh_vbase(),
        }
    }

    fn node_addr(&self, idx: u32) -> u64 {
        self.vbase + idx as u64 * BT_NODE_BYTES
    }

    fn descend<T: Tracer>(&self, tr: &mut T, g: &BtInner, key: u64) -> u32 {
        let mut idx = g.root;
        loop {
            tr.read(self.node_addr(idx), BT_NODE_BYTES);
            match &g.arena[idx as usize] {
                BNode::Internal { keys, children } => {
                    let pos = keys.partition_point(|&k| k <= key);
                    idx = children[pos];
                }
                BNode::Leaf { .. } => return idx,
            }
        }
    }

    /// Point lookup.
    pub fn get<T: Tracer>(&self, tr: &mut T, key: u64) -> Option<Arc<Record>> {
        let g = self.inner.read();
        let leaf = self.descend(tr, &g, key);
        let BNode::Leaf { keys, recs, .. } = &g.arena[leaf as usize] else {
            unreachable!()
        };
        keys.binary_search(&key).ok().map(|i| Arc::clone(&recs[i]))
    }

    /// Insert; returns false on duplicate key.
    pub fn insert<T: Tracer>(&self, tr: &mut T, key: u64, rec: Arc<Record>) -> bool {
        let mut g = self.inner.write();
        // Path of internal nodes from root to leaf.
        let mut path = Vec::new();
        let mut idx = g.root;
        loop {
            tr.read(self.node_addr(idx), BT_NODE_BYTES);
            match &g.arena[idx as usize] {
                BNode::Internal { keys, children } => {
                    let pos = keys.partition_point(|&k| k <= key);
                    path.push((idx, pos));
                    idx = children[pos];
                }
                BNode::Leaf { .. } => break,
            }
        }
        let leaf = idx;
        {
            let BNode::Leaf { keys, recs, .. } = &mut g.arena[leaf as usize] else {
                unreachable!()
            };
            match keys.binary_search(&key) {
                Ok(_) => return false,
                Err(pos) => {
                    keys.insert(pos, key);
                    recs.insert(pos, rec);
                }
            }
        }
        tr.write(self.node_addr(leaf), BT_NODE_BYTES);
        // Split upward while overfull.
        let mut child = leaf;
        loop {
            let overfull = match &g.arena[child as usize] {
                BNode::Leaf { keys, .. } | BNode::Internal { keys, .. } => keys.len() > BT_ORDER,
            };
            if !overfull {
                break;
            }
            let (sep, right_idx) = self.split(tr, &mut g, child);
            match path.pop() {
                Some((parent, pos)) => {
                    let BNode::Internal { keys, children } = &mut g.arena[parent as usize] else {
                        unreachable!()
                    };
                    keys.insert(pos, sep);
                    children.insert(pos + 1, right_idx);
                    tr.write(self.node_addr(parent), BT_NODE_BYTES);
                    child = parent;
                }
                None => {
                    // New root.
                    let new_root = g.arena.len() as u32;
                    g.arena.push(BNode::Internal {
                        keys: vec![sep],
                        children: vec![child, right_idx],
                    });
                    g.root = new_root;
                    tr.write(self.node_addr(new_root), BT_NODE_BYTES);
                    break;
                }
            }
        }
        true
    }

    fn split<T: Tracer>(&self, tr: &mut T, g: &mut BtInner, idx: u32) -> (u64, u32) {
        let right_idx = g.arena.len() as u32;
        let (sep, right) = match &mut g.arena[idx as usize] {
            BNode::Leaf { keys, recs, next } => {
                let mid = keys.len() / 2;
                let rk: Vec<u64> = keys.split_off(mid);
                let rr: Vec<Arc<Record>> = recs.split_off(mid);
                let sep = rk[0];
                let right = BNode::Leaf {
                    keys: rk,
                    recs: rr,
                    next: *next,
                };
                *next = right_idx;
                (sep, right)
            }
            BNode::Internal { keys, children } => {
                let mid = keys.len() / 2;
                let mut rk: Vec<u64> = keys.split_off(mid);
                let rc: Vec<u32> = children.split_off(mid + 1);
                let sep = rk.remove(0);
                (
                    sep,
                    BNode::Internal {
                        keys: rk,
                        children: rc,
                    },
                )
            }
        };
        g.arena.push(right);
        tr.write(self.node_addr(idx), BT_NODE_BYTES);
        tr.write(self.node_addr(right_idx), BT_NODE_BYTES);
        (sep, right_idx)
    }

    /// Collect up to `n` records with key ≥ `start`, in key order.
    pub fn scan<T: Tracer>(&self, tr: &mut T, start: u64, n: usize, out: &mut Vec<Arc<Record>>) {
        let g = self.inner.read();
        let mut leaf = self.descend(tr, &g, start);
        while leaf != NIL && out.len() < n {
            let BNode::Leaf { keys, recs, next } = &g.arena[leaf as usize] else {
                unreachable!()
            };
            let from = keys.partition_point(|&k| k < start);
            for rec in &recs[from..] {
                if out.len() >= n {
                    return;
                }
                out.push(Arc::clone(rec));
            }
            leaf = *next;
            if leaf != NIL {
                tr.read(self.node_addr(leaf), BT_NODE_BYTES);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bionicdb_cpu_model::NullTracer;

    fn rec(v: u8) -> Arc<Record> {
        Record::new(1, vec![v; 8], 0x1_0000 + (v as u64) * 128)
    }

    #[test]
    fn hash_get_insert_dup() {
        let idx = HashIndex::new(64);
        let mut tr = NullTracer;
        assert!(idx.insert(&mut tr, 5, rec(1)));
        assert!(!idx.insert(&mut tr, 5, rec(2)), "duplicate rejected");
        assert!(idx.get(&mut tr, 5).is_some());
        assert!(idx.get(&mut tr, 6).is_none());
        // Collisions: fill beyond bucket count.
        for k in 100..400u64 {
            assert!(idx.insert(&mut tr, k, rec(0)));
        }
        for k in 100..400u64 {
            assert!(idx.get(&mut tr, k).is_some(), "key {k}");
        }
    }

    #[test]
    fn skiplist_ordered_scan() {
        let sl = SwSkipList::new();
        let mut tr = NullTracer;
        for k in (0..200u64).rev() {
            assert!(sl.insert(&mut tr, k * 2, rec(0)));
        }
        assert!(!sl.insert(&mut tr, 10, rec(0)));
        assert!(sl.get(&mut tr, 198).is_some());
        assert!(sl.get(&mut tr, 199).is_none());
        let mut out = Vec::new();
        sl.scan(&mut tr, 101, 10, &mut out);
        assert_eq!(out.len(), 10);
        // Scan starts at first key >= 101 = 102.
        let mut buf = Vec::new();
        out[0].stable_read(&mut NullTracer, &mut buf);
    }

    #[test]
    fn masstree_bulk_and_scan() {
        let mt = Masstree::new();
        let mut tr = NullTracer;
        let keys: Vec<u64> = (0..5000).map(|i| (i * 2654435761u64) % 1_000_000).collect();
        let mut uniq: Vec<u64> = keys.clone();
        uniq.sort_unstable();
        uniq.dedup();
        let mut inserted = 0;
        for &k in &keys {
            if mt.insert(&mut tr, k, rec(0)) {
                inserted += 1;
            }
        }
        assert_eq!(inserted, uniq.len());
        for &k in uniq.iter().step_by(97) {
            assert!(mt.get(&mut tr, k).is_some(), "key {k}");
        }
        assert!(mt.get(&mut tr, 1_000_001).is_none());
        let mut out = Vec::new();
        mt.scan(&mut tr, 0, 100, &mut out);
        assert_eq!(out.len(), 100);
    }

    #[test]
    fn masstree_scan_matches_sorted_keys() {
        let mt = Masstree::new();
        let mut tr = NullTracer;
        for k in [9u64, 3, 7, 1, 5, 8, 2, 6, 4, 0] {
            mt.insert(
                &mut tr,
                k,
                Record::new(1, k.to_le_bytes().to_vec(), 0x2_0000 + k * 128),
            );
        }
        let mut out = Vec::new();
        mt.scan(&mut tr, 3, 4, &mut out);
        let got: Vec<u64> = out
            .iter()
            .map(|r| {
                let mut b = Vec::new();
                r.stable_read(&mut NullTracer, &mut b);
                u64::from_le_bytes(b.try_into().unwrap())
            })
            .collect();
        assert_eq!(got, vec![3, 4, 5, 6]);
    }

    #[test]
    fn traced_lookup_touches_nodes() {
        let mt = Masstree::new();
        let mut tr = NullTracer;
        for k in 0..2000u64 {
            mt.insert(&mut tr, k, rec(0));
        }
        let mut model = bionicdb_cpu_model::CoreModel::new(Default::default());
        mt.get(&mut model, 1234);
        assert!(model.stats().accesses >= 3, "root + internal + leaf");
    }
}
