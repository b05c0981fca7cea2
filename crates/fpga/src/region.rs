//! Bump-allocated address regions over the simulated DRAM.
//!
//! The database image (tuple heaps, hash-table arrays, skiplist towers) and
//! the per-transaction blocks all live in FPGA-side DRAM. A [`Region`] is a
//! contiguous slice of that address space with a simple bump allocator —
//! the same arrangement the paper implies: the host carves the on-board
//! memory into one partition per worker plus an input area for transaction
//! blocks, and nothing is ever freed during a run (aborted inserts leave
//! garbage towers/tuples behind, reclaimed only by reloading).

/// A contiguous DRAM address range with a bump allocator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Region {
    base: u64,
    size: u64,
    brk: u64,
}

impl Region {
    /// Create a region spanning `[base, base + size)`.
    pub fn new(base: u64, size: u64) -> Self {
        Region {
            base,
            size,
            brk: base,
        }
    }

    /// Allocate `len` bytes aligned to `align` (a power of two). Returns the
    /// address of the allocation.
    ///
    /// # Panics
    /// Panics if the region is exhausted — on the real hardware this is an
    /// out-of-memory condition the host must handle by provisioning a larger
    /// partition, and in the simulator it is always a configuration error.
    pub fn alloc(&mut self, len: u64, align: u64) -> u64 {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        let addr = (self.brk + align - 1) & !(align - 1);
        assert!(
            addr + len <= self.base + self.size,
            "region exhausted: need {len} bytes at {addr:#x}, region ends at {:#x}",
            self.base + self.size
        );
        self.brk = addr + len;
        addr
    }

    /// First address of the region.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Size of the region in bytes.
    pub fn size(&self) -> u64 {
        self.size
    }

    /// Bytes allocated so far (including alignment padding).
    pub fn used(&self) -> u64 {
        self.brk - self.base
    }

    /// Bytes still available.
    pub fn remaining(&self) -> u64 {
        self.base + self.size - self.brk
    }

    /// Split off a sub-region of `size` bytes from the front of the unused
    /// space, aligned to `align`.
    pub fn carve(&mut self, size: u64, align: u64) -> Region {
        let base = self.alloc(size, align);
        Region::new(base, size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_bumps_and_aligns() {
        let mut r = Region::new(100, 1000);
        assert_eq!(r.alloc(10, 1), 100);
        // Next allocation aligned up to 16.
        assert_eq!(r.alloc(8, 16), 112);
        assert_eq!(r.used(), 20);
    }

    #[test]
    fn carve_produces_disjoint_subregions() {
        let mut r = Region::new(0, 4096);
        let a = r.carve(1024, 64);
        let b = r.carve(1024, 64);
        assert_eq!(a.base(), 0);
        assert_eq!(b.base(), 1024);
        assert!(a.base() + a.size() <= b.base());
    }

    #[test]
    #[should_panic(expected = "region exhausted")]
    fn exhaustion_panics() {
        let mut r = Region::new(0, 16);
        r.alloc(32, 8);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_alignment_panics() {
        let mut r = Region::new(0, 64);
        r.alloc(8, 3);
    }
}
