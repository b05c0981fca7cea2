//! Silo transactions: optimistic execution + the three-phase commit
//! protocol (lock write set in global order, validate read set, install).

use std::sync::Arc;

use bionicdb_cpu_model::Tracer;

use crate::db::SiloDb;
use crate::record::Record;
use crate::tid;

/// The transaction failed validation (or hit a duplicate insert) and was
/// rolled back; the caller may retry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Abort;

/// An in-flight optimistic transaction.
pub struct Txn<'a> {
    db: &'a SiloDb,
    reads: Vec<(Arc<Record>, u64)>,
    writes: Vec<(Arc<Record>, Vec<u8>)>,
    inserts: Vec<(usize, u64, Vec<u8>)>,
}

impl<'a> Txn<'a> {
    pub(crate) fn new(db: &'a SiloDb) -> Self {
        Txn {
            db,
            reads: Vec::new(),
            writes: Vec::new(),
            inserts: Vec::new(),
        }
    }

    /// Read `key` from `table` into `out`. Returns false when absent.
    /// Reads-own-writes: buffered updates are visible.
    pub fn read<T: Tracer>(
        &mut self,
        tr: &mut T,
        table: usize,
        key: u64,
        out: &mut Vec<u8>,
    ) -> bool {
        tr.begin_chain();
        let rec = self.db.table(table).get(tr, key);
        let found = match rec {
            Some(rec) => {
                if let Some((_, data)) = self.writes.iter().find(|(r, _)| Arc::ptr_eq(r, &rec)) {
                    out.clear();
                    out.extend_from_slice(data);
                    true
                } else {
                    let observed = rec.stable_read(tr, out);
                    if tid::is_absent(observed) {
                        false
                    } else {
                        self.reads.push((rec, observed));
                        true
                    }
                }
            }
            None => false,
        };
        tr.end_chain();
        found
    }

    /// Buffer an update of `key` in `table`. Returns false when absent.
    pub fn update<T: Tracer>(&mut self, tr: &mut T, table: usize, key: u64, data: &[u8]) -> bool {
        assert_eq!(
            data.len(),
            self.db.defs()[table].payload_len,
            "payload length"
        );
        tr.begin_chain();
        let rec = self.db.table(table).get(tr, key);
        tr.end_chain();
        let Some(rec) = rec else { return false };
        if rec.is_absent() {
            return false;
        }
        // Also validate the version we based the update on.
        let mut scratch = Vec::new();
        let observed = rec.stable_read(tr, &mut scratch);
        self.reads.push((Arc::clone(&rec), observed));
        if let Some(entry) = self.writes.iter_mut().find(|(r, _)| Arc::ptr_eq(r, &rec)) {
            entry.1.clear();
            entry.1.extend_from_slice(data);
        } else {
            self.writes.push((rec, data.to_vec()));
        }
        true
    }

    /// Read-modify-write helper: read, apply `f`, buffer the write back.
    pub fn modify<T: Tracer>(
        &mut self,
        tr: &mut T,
        table: usize,
        key: u64,
        f: impl FnOnce(&mut Vec<u8>),
    ) -> bool {
        let mut buf = Vec::new();
        if !self.read(tr, table, key, &mut buf) {
            return false;
        }
        f(&mut buf);
        self.update(tr, table, key, &buf)
    }

    /// Buffer an insert (applied, with duplicate detection, at commit).
    pub fn insert(&mut self, table: usize, key: u64, data: Vec<u8>) {
        assert_eq!(
            data.len(),
            self.db.defs()[table].payload_len,
            "payload length"
        );
        self.inserts.push((table, key, data));
    }

    /// Ordered scan of up to `n` payloads with key ≥ `start`. Scanned
    /// records join the read set (no phantom protection — see crate docs).
    pub fn scan<T: Tracer>(
        &mut self,
        tr: &mut T,
        table: usize,
        start: u64,
        n: usize,
        out: &mut Vec<Vec<u8>>,
    ) {
        tr.begin_chain();
        let mut recs = Vec::with_capacity(n);
        self.db.table(table).scan(tr, start, n, &mut recs);
        tr.end_chain();
        for rec in recs {
            let mut buf = Vec::new();
            let observed = rec.stable_read(tr, &mut buf);
            if !tid::is_absent(observed) {
                self.reads.push((rec, observed));
                out.push(buf);
            }
        }
    }

    /// Run the Silo commit protocol. On success returns the commit TID.
    pub fn commit<T: Tracer>(mut self, tr: &mut T) -> Result<u64, Abort> {
        // Phase 1: lock the write set in global (address) order.
        self.writes.sort_by_key(|(r, _)| r.addr());
        self.writes.dedup_by(|a, b| {
            Arc::ptr_eq(&a.0, &b.0)
                .then(|| b.1 = std::mem::take(&mut a.1))
                .is_some()
        });
        for (rec, _) in &self.writes {
            rec.lock();
            tr.write(rec.addr(), 8);
        }
        let epoch = self.db.epoch();

        // Phase 2: validate the read set.
        let mut max_tid = 0u64;
        for (rec, observed) in &self.reads {
            let cur = rec.tid();
            tr.read(rec.addr(), 8);
            let locked_by_me = self.writes.iter().any(|(w, _)| Arc::ptr_eq(w, rec));
            if tid::version(cur) != tid::version(*observed)
                || (tid::is_locked(cur) && !locked_by_me)
            {
                for (r, _) in &self.writes {
                    r.unlock();
                }
                return Err(Abort);
            }
            max_tid = max_tid.max(tid::version(cur));
        }
        for (rec, _) in &self.writes {
            max_tid = max_tid.max(tid::version(rec.tid()));
        }

        // Phase 2b: apply inserts (duplicate key => abort).
        let mut inserted: Vec<(usize, Arc<Record>)> = Vec::new();
        let commit_preview = self.db.claim_commit_tid(max_tid, epoch);
        for (table, key, data) in std::mem::take(&mut self.inserts) {
            let vaddr = self.db.alloc_vaddr(data.len());
            let rec = Record::new(epoch, data, vaddr);
            rec.lock();
            if self.db.table(table).insert(tr, key, Arc::clone(&rec)) {
                inserted.push((table, rec));
            } else {
                // Roll back: newly inserted records become absent.
                for (_, r) in &inserted {
                    r.mark_absent(commit_preview);
                }
                for (r, _) in &self.writes {
                    r.unlock();
                }
                return Err(Abort);
            }
        }

        // Phase 3: install.
        let commit_tid = if inserted.is_empty() {
            self.db.claim_commit_tid(max_tid, epoch)
        } else {
            commit_preview
        };
        for (rec, data) in &self.writes {
            rec.install(tr, data, commit_tid);
        }
        for (_, rec) in &inserted {
            rec.install(tr, &[], commit_tid);
        }
        Ok(commit_tid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::{SwIndexKind, TableDef};
    use bionicdb_cpu_model::NullTracer;

    fn db() -> SiloDb {
        let db = SiloDb::new(vec![
            TableDef::new("accounts", SwIndexKind::Hash { buckets: 256 }, 8),
            TableDef::new("ordered", SwIndexKind::Masstree, 8),
        ]);
        for k in 0..100u64 {
            db.load(0, k, k.to_le_bytes().to_vec());
            db.load(1, k, k.to_le_bytes().to_vec());
        }
        db
    }

    #[test]
    fn read_committed_data() {
        let db = db();
        let mut t = db.txn();
        let mut buf = Vec::new();
        assert!(t.read(&mut NullTracer, 0, 42, &mut buf));
        assert_eq!(u64::from_le_bytes(buf.clone().try_into().unwrap()), 42);
        assert!(!t.read(&mut NullTracer, 0, 4242, &mut buf));
        t.commit(&mut NullTracer).unwrap();
    }

    #[test]
    fn update_visible_after_commit_and_to_self() {
        let db = db();
        let mut t = db.txn();
        assert!(t.update(&mut NullTracer, 0, 7, &99u64.to_le_bytes()));
        let mut buf = Vec::new();
        assert!(t.read(&mut NullTracer, 0, 7, &mut buf), "read-own-write");
        assert_eq!(u64::from_le_bytes(buf.clone().try_into().unwrap()), 99);
        t.commit(&mut NullTracer).unwrap();

        let mut t2 = db.txn();
        t2.read(&mut NullTracer, 0, 7, &mut buf);
        assert_eq!(u64::from_le_bytes(buf.clone().try_into().unwrap()), 99);
    }

    #[test]
    fn conflicting_update_aborts_reader() {
        let db = db();
        // T1 reads key 5; T2 updates key 5 and commits; T1's commit must
        // fail validation.
        let mut t1 = db.txn();
        let mut buf = Vec::new();
        t1.read(&mut NullTracer, 0, 5, &mut buf);
        t1.update(&mut NullTracer, 0, 6, &1u64.to_le_bytes()); // give T1 a write

        let mut t2 = db.txn();
        t2.update(&mut NullTracer, 0, 5, &123u64.to_le_bytes());
        t2.commit(&mut NullTracer).unwrap();

        assert_eq!(t1.commit(&mut NullTracer), Err(Abort));
    }

    #[test]
    fn blind_writers_do_not_conflict_on_disjoint_keys() {
        let db = db();
        let mut t1 = db.txn();
        let mut t2 = db.txn();
        t1.update(&mut NullTracer, 0, 1, &11u64.to_le_bytes());
        t2.update(&mut NullTracer, 0, 2, &22u64.to_le_bytes());
        t1.commit(&mut NullTracer).unwrap();
        t2.commit(&mut NullTracer).unwrap();
    }

    #[test]
    fn insert_then_duplicate_insert_aborts() {
        let db = db();
        let mut t = db.txn();
        t.insert(0, 1000, 5u64.to_le_bytes().to_vec());
        t.commit(&mut NullTracer).unwrap();

        let mut buf = Vec::new();
        let mut t2 = db.txn();
        assert!(t2.read(&mut NullTracer, 0, 1000, &mut buf));

        let mut t3 = db.txn();
        t3.insert(0, 1000, 9u64.to_le_bytes().to_vec());
        assert_eq!(t3.commit(&mut NullTracer), Err(Abort));
    }

    #[test]
    fn scan_sees_committed_prefix() {
        let db = db();
        let mut t = db.txn();
        let mut out = Vec::new();
        t.scan(&mut NullTracer, 1, 10, 5, &mut out);
        assert_eq!(out.len(), 5);
        assert_eq!(u64::from_le_bytes(out[0].clone().try_into().unwrap()), 10);
        t.commit(&mut NullTracer).unwrap();
    }

    #[test]
    fn commit_tids_increase() {
        let db = db();
        let mut last = 0;
        for i in 0..5u64 {
            let mut t = db.txn();
            t.update(&mut NullTracer, 0, i, &i.to_le_bytes());
            let tid = t.commit(&mut NullTracer).unwrap();
            assert!(tid > last, "tid {tid} after {last}");
            last = tid;
        }
    }
}
