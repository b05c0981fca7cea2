//! Records: a TID word plus the payload bytes.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bionicdb_cpu_model::Tracer;
use parking_lot::RwLock;

use crate::tid;

/// One record: the Silo TID word and the payload.
///
/// Payload mutation happens only while the TID lock bit is held (commit
/// protocol); readers copy the payload and validate the TID afterwards.
/// The payload lives behind a `RwLock` purely to stay in safe Rust — the
/// OCC protocol, not the lock, is what provides isolation, and the timing
/// model charges only the memory traffic.
#[derive(Debug)]
pub struct Record {
    tid: AtomicU64,
    /// Deterministic virtual address for the timing model (see
    /// [`Record::addr`]). The TID word lives at `vaddr`, the payload at
    /// `vaddr + PAYLOAD_OFFSET`.
    vaddr: u64,
    data: RwLock<Box<[u8]>>,
}

/// Payload bytes start one cache line past the TID word in the record's
/// virtual slot.
pub const PAYLOAD_OFFSET: u64 = 64;

impl Record {
    /// Create a committed record with `data` and the initial TID for
    /// `epoch`, at virtual address `vaddr` (from
    /// [`SiloDb::alloc_vaddr`](crate::db::SiloDb)'s per-database arena).
    pub fn new(epoch: u64, data: Vec<u8>, vaddr: u64) -> Arc<Record> {
        Arc::new(Record {
            tid: AtomicU64::new(tid::epoch_base(epoch) + 8),
            vaddr,
            data: RwLock::new(data.into_boxed_slice()),
        })
    }

    /// The record's address as seen by the timing model — a *virtual*
    /// slot assigned deterministically at creation, not the host heap
    /// location, so model timings are identical across runs and hosts
    /// (the `goldencheck` serve golden depends on this). Also the global lock
    /// order for the commit protocol.
    pub fn addr(&self) -> u64 {
        self.vaddr
    }

    /// Virtual address of the payload bytes.
    fn payload_addr(&self) -> u64 {
        self.vaddr + PAYLOAD_OFFSET
    }

    /// Current TID word.
    pub fn tid(&self) -> u64 {
        self.tid.load(Ordering::Acquire)
    }

    /// Payload length.
    pub fn len(&self) -> usize {
        self.data.read().len()
    }

    /// True when the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Silo's stable read: copy the payload, retrying until the TID is
    /// stable and unlocked around the copy. Returns the observed TID.
    pub fn stable_read<T: Tracer>(self: &Arc<Self>, tr: &mut T, buf: &mut Vec<u8>) -> u64 {
        loop {
            let t1 = self.tid();
            tr.read(self.addr(), 8);
            if tid::is_locked(t1) {
                std::hint::spin_loop();
                continue;
            }
            {
                let data = self.data.read();
                buf.clear();
                buf.extend_from_slice(&data);
                tr.read(self.payload_addr(), data.len() as u64);
            }
            let t2 = self.tid();
            if t1 == t2 {
                return t1;
            }
        }
    }

    /// Try to set the lock bit (commit protocol). Returns false if already
    /// locked.
    pub fn try_lock(&self) -> bool {
        let cur = self.tid.load(Ordering::Acquire);
        if tid::is_locked(cur) {
            return false;
        }
        self.tid
            .compare_exchange(cur, cur | tid::LOCK, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }

    /// Spin until the lock is acquired.
    pub fn lock(&self) {
        while !self.try_lock() {
            std::hint::spin_loop();
        }
    }

    /// Release the lock without changing the version (aborts).
    pub fn unlock(&self) {
        let cur = self.tid.load(Ordering::Acquire);
        debug_assert!(tid::is_locked(cur));
        self.tid.store(cur & !tid::LOCK, Ordering::Release);
    }

    /// Install new data and release the lock with the commit TID.
    pub fn install<T: Tracer>(&self, tr: &mut T, new_data: &[u8], commit_tid: u64) {
        debug_assert!(tid::is_locked(self.tid()));
        {
            let mut data = self.data.write();
            let n = new_data.len().min(data.len());
            data[..n].copy_from_slice(&new_data[..n]);
            tr.write(self.payload_addr(), n as u64);
        }
        self.tid.store(tid::version(commit_tid), Ordering::Release);
        tr.write(self.addr(), 8);
    }

    /// Mark the record absent (logical delete) and release the lock.
    pub fn mark_absent(&self, commit_tid: u64) {
        debug_assert!(tid::is_locked(self.tid()));
        self.tid
            .store(tid::version(commit_tid) | tid::ABSENT, Ordering::Release);
    }

    /// True when logically deleted.
    pub fn is_absent(&self) -> bool {
        tid::is_absent(self.tid())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bionicdb_cpu_model::NullTracer;

    #[test]
    fn stable_read_returns_data_and_tid() {
        let r = Record::new(1, vec![7; 16], 0x1000);
        let mut buf = Vec::new();
        let t = r.stable_read(&mut NullTracer, &mut buf);
        assert_eq!(buf, vec![7; 16]);
        assert_eq!(t, r.tid());
        assert!(!tid::is_locked(t));
    }

    #[test]
    fn lock_install_bumps_version() {
        let r = Record::new(1, vec![0; 8], 0x2000);
        let before = r.tid();
        r.lock();
        assert!(!r.try_lock(), "double lock fails");
        let commit = tid::next_commit_tid(before, before, 1);
        r.install(&mut NullTracer, &[9; 8], commit);
        assert!(!tid::is_locked(r.tid()));
        assert!(r.tid() > before);
        let mut buf = Vec::new();
        r.stable_read(&mut NullTracer, &mut buf);
        assert_eq!(buf, vec![9; 8]);
    }

    #[test]
    fn unlock_preserves_version() {
        let r = Record::new(2, vec![0; 4], 0x3000);
        let before = r.tid();
        r.lock();
        r.unlock();
        assert_eq!(r.tid(), before);
    }

    #[test]
    fn absent_flag() {
        let r = Record::new(1, vec![1], 0x4000);
        r.lock();
        r.mark_absent(tid::next_commit_tid(r.tid(), 0, 1));
        assert!(r.is_absent());
    }
}
