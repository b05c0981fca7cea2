//! DRAM layout of tuples, skiplist towers and index directories.
//!
//! Both index structures share a 64-byte *record header* that carries the
//! concurrency-control metadata (paper §4.7: "each tuple is associated with
//! latest read and write timestamps", a dirty bit and a tombstone bit) and
//! the inline key:
//!
//! ```text
//! record header (64 B):
//!   +0   write_ts  (u64)
//!   +8   read_ts   (u64)
//!   +16  flags     (u64)  bit0 = dirty, bit1 = tombstone
//!   +24  key_len   (u64)
//!   +32  key bytes (32 B, zero padded)
//! ```
//!
//! A **hash tuple** is `[ next(8) | header(64) | payload ]` — `next` chains
//! hash-conflict tuples (paper Fig. 5a). A **skiplist tower** is
//! `[ header(64) | height(8) | next[height]·8 | payload ]` (paper Fig. 5b:
//! "a skiplist node (tower) includes a tuple and an array of pointers to the
//! next towers at different levels").

use bionicdb_fpga::{Dram, Region};
use bionicdb_softcore::catalogue::TableMeta;
use bionicdb_softcore::IndexKey;

/// Size of the shared record header.
pub const HEADER_SIZE: u64 = 64;
/// Offset of the `next` pointer in a hash tuple.
pub const TUPLE_NEXT: u64 = 0;
/// Offset of the record header inside a hash tuple.
pub const TUPLE_HEADER: u64 = 8;
/// Offset of the payload inside a hash tuple.
pub const TUPLE_PAYLOAD: u64 = TUPLE_HEADER + HEADER_SIZE;

/// Offset of the tower height word.
pub const TOWER_HEIGHT: u64 = HEADER_SIZE;
/// Offset of the tower next-pointer array.
pub const TOWER_NEXTS: u64 = HEADER_SIZE + 8;

/// Flag bit: tuple written by an uncommitted transaction.
pub const FLAG_DIRTY: u64 = 1;
/// Flag bit: tuple logically deleted.
pub const FLAG_TOMBSTONE: u64 = 2;

/// A decoded record header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordHeader {
    /// Commit timestamp of the latest writer.
    pub write_ts: u64,
    /// Begin timestamp of the latest reader.
    pub read_ts: u64,
    /// Dirty/tombstone flags.
    pub flags: u64,
    /// The record's key.
    pub key: IndexKey,
}

impl RecordHeader {
    /// Encode into the 64-byte DRAM representation.
    pub fn encode(&self) -> [u8; HEADER_SIZE as usize] {
        let mut b = [0u8; HEADER_SIZE as usize];
        b[0..8].copy_from_slice(&self.write_ts.to_le_bytes());
        b[8..16].copy_from_slice(&self.read_ts.to_le_bytes());
        b[16..24].copy_from_slice(&self.flags.to_le_bytes());
        b[24..32].copy_from_slice(&(self.key.len() as u64).to_le_bytes());
        b[32..32 + self.key.len()].copy_from_slice(self.key.as_bytes());
        b
    }

    /// Decode from the 64-byte DRAM representation.
    pub fn decode(b: &[u8]) -> RecordHeader {
        assert!(b.len() >= HEADER_SIZE as usize, "short record header");
        let rd = |o: usize| u64::from_le_bytes(b[o..o + 8].try_into().expect("8 bytes"));
        let key_len = rd(24) as usize;
        assert!(
            (1..=32).contains(&key_len),
            "corrupt record header: key_len {key_len} (pointer chased into garbage?)"
        );
        RecordHeader {
            write_ts: rd(0),
            read_ts: rd(8),
            flags: rd(16),
            key: IndexKey::from_bytes(&b[32..32 + key_len]),
        }
    }

    /// True if the dirty bit is set.
    pub fn is_dirty(&self) -> bool {
        self.flags & FLAG_DIRTY != 0
    }

    /// True if the tombstone bit is set.
    pub fn is_tombstone(&self) -> bool {
        self.flags & FLAG_TOMBSTONE != 0
    }
}

/// Per-partition physical state of one table: where its directory lives and
/// the heap region new records are allocated from.
#[derive(Debug, Clone)]
pub struct TableState {
    /// Logical schema (copied from the catalogue at build time).
    pub meta: TableMeta,
    /// Hash tables: base of the bucket-head array. Skiplists: base of the
    /// head tower's next-pointer array (`max_level` u64 slots).
    pub dir_addr: u64,
    /// Bump-allocation region for tuples / towers.
    pub heap: Region,
    /// Skiplists: maximum tower height.
    pub max_level: usize,
}

impl TableState {
    /// Bytes needed for one hash tuple of this table.
    pub fn tuple_size(&self) -> u64 {
        TUPLE_PAYLOAD + self.meta.payload_len as u64
    }

    /// Bytes needed for one tower of height `h`.
    pub fn tower_size(&self, h: usize) -> u64 {
        TOWER_NEXTS + 8 * h as u64 + self.meta.payload_len as u64
    }

    /// Address of the bucket head slot for `bucket`.
    pub fn bucket_addr(&self, bucket: u64) -> u64 {
        debug_assert!(bucket < self.meta.hash_buckets);
        self.dir_addr + 8 * bucket
    }

    /// Address of the head tower's next pointer at `level`.
    pub fn head_next_addr(&self, level: usize) -> u64 {
        debug_assert!(level < self.max_level);
        self.dir_addr + 8 * level as u64
    }

    /// Allocate a hash tuple; returns its address.
    pub fn alloc_tuple(&mut self) -> u64 {
        self.heap.alloc(self.tuple_size(), 8)
    }

    /// Allocate a tower of height `h`; returns its address.
    pub fn alloc_tower(&mut self, h: usize) -> u64 {
        self.heap.alloc(self.tower_size(h), 8)
    }

    /// Offset of the payload within a tower of height `h`.
    pub fn tower_payload_off(h: usize) -> u64 {
        TOWER_NEXTS + 8 * h as u64
    }
}

// ----- host-level (untimed) accessors, used for loading and verification -----

/// Read and decode the record header of the record at `hdr_addr`.
pub fn read_header(dram: &Dram, hdr_addr: u64) -> RecordHeader {
    let mut b = [0u8; HEADER_SIZE as usize];
    dram.read_into(hdr_addr, &mut b);
    RecordHeader::decode(&b)
}

/// Write a record header at `hdr_addr`.
pub fn write_header(dram: &mut Dram, hdr_addr: u64, h: &RecordHeader) {
    dram.host_write(hdr_addr, &h.encode());
}

#[cfg(test)]
mod tests {
    use super::*;
    use bionicdb_fpga::FpgaConfig;
    use bionicdb_softcore::catalogue::TableMeta;

    #[test]
    fn header_roundtrip() {
        let h = RecordHeader {
            write_ts: 7,
            read_ts: 9,
            flags: FLAG_DIRTY | FLAG_TOMBSTONE,
            key: IndexKey::from_bytes(b"composite-key"),
        };
        let enc = h.encode();
        let dec = RecordHeader::decode(&enc);
        assert_eq!(dec, h);
        assert!(dec.is_dirty() && dec.is_tombstone());
    }

    #[test]
    fn header_via_dram() {
        let mut dram = Dram::new(&FpgaConfig::default(), 1 << 20);
        let h = RecordHeader {
            write_ts: 1,
            read_ts: 2,
            flags: 0,
            key: IndexKey::from_u64(77),
        };
        write_header(&mut dram, 512, &h);
        assert_eq!(read_header(&dram, 512), h);
    }

    #[test]
    fn sizes_and_offsets() {
        let st = TableState {
            meta: TableMeta::hash("t", 8, 100, 16),
            dir_addr: 0x1000,
            heap: Region::new(0x10000, 1 << 16),
            max_level: 20,
        };
        assert_eq!(st.tuple_size(), 8 + 64 + 100);
        assert_eq!(st.tower_size(3), 64 + 8 + 24 + 100);
        assert_eq!(st.bucket_addr(3), 0x1000 + 24);
        assert_eq!(TableState::tower_payload_off(2), 64 + 8 + 16);
    }

    #[test]
    fn alloc_bumps_heap() {
        let mut st = TableState {
            meta: TableMeta::hash("t", 8, 32, 16),
            dir_addr: 0,
            heap: Region::new(0x2000, 1 << 12),
            max_level: 20,
        };
        let a = st.alloc_tuple();
        let b = st.alloc_tuple();
        assert!(b >= a + st.tuple_size());
    }

    #[test]
    #[should_panic(expected = "corrupt record header")]
    fn decoding_garbage_panics() {
        let _ = RecordHeader::decode(&[0u8; 64]); // key_len 0 is invalid
    }
}
