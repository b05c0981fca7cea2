//! Memory-access machinery for pipeline stages.
//!
//! Each pipeline stage owns a DRAM port and a small set of *operation slots*
//! (the hardware analogue: per-stage outstanding-request registers). A stage
//! issues a read tagged with a slot id, keeps the operation's context in the
//! slot, and is "awakened on source data arrival" (paper §4.4) when the
//! response returns. Posted writes share the port but carry a sentinel tag
//! and their acknowledgements are discarded.

use bionicdb_fpga::{Dram, MemData, MemKind, MemRequest, PortId, Tag};

/// Tag marking posted writes, whose acknowledgements are dropped.
const WRITE_TAG: Tag = Tag(u64::MAX);

/// A stage-local asynchronous reader with `N` operation slots carrying a
/// context of type `T`.
#[derive(Debug)]
pub struct AsyncReader<T> {
    port: PortId,
    slots: Vec<Option<T>>,
    ready: std::collections::VecDeque<(T, MemData)>,
}

impl<T> AsyncReader<T> {
    /// Create a reader with `slots` outstanding-request slots, registering a
    /// port on `dram`.
    pub fn new(dram: &mut Dram, slots: usize) -> Self {
        assert!(slots > 0);
        AsyncReader {
            port: dram.register_port(),
            slots: (0..slots).map(|_| None).collect(),
            ready: std::collections::VecDeque::new(),
        }
    }

    /// True when a free slot exists.
    pub fn can_issue(&self) -> bool {
        self.slots.iter().any(Option::is_none)
    }

    /// Number of operations currently in flight or completed-but-unclaimed.
    pub fn in_use(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count() + self.ready.len()
    }

    /// Issue a read of `len` bytes at `addr` with context `ctx`. Returns the
    /// context back if no slot is free or the DRAM controller is busy this
    /// cycle (the caller retries next cycle).
    pub fn issue(
        &mut self,
        now: u64,
        dram: &mut Dram,
        addr: u64,
        len: u32,
        ctx: T,
    ) -> Result<(), T> {
        let Some(slot) = self.slots.iter().position(Option::is_none) else {
            return Err(ctx);
        };
        let req = MemRequest {
            addr,
            kind: MemKind::Read { len },
            tag: Tag(slot as u64),
        };
        match dram.issue(now, self.port, req) {
            Ok(()) => {
                self.slots[slot] = Some(ctx);
                Ok(())
            }
            Err(_) => Err(ctx),
        }
    }

    /// Issue a posted write (fire and forget). Returns `false` if the
    /// controller is busy this cycle.
    pub fn write(&mut self, now: u64, dram: &mut Dram, addr: u64, data: Vec<u8>) -> bool {
        dram.issue(
            now,
            self.port,
            MemRequest {
                addr,
                kind: MemKind::Write { data },
                tag: WRITE_TAG,
            },
        )
        .is_ok()
    }

    /// Drain delivered responses: completed reads move (with their context)
    /// into the ready queue; write acknowledgements are dropped.
    pub fn poll(&mut self, dram: &mut Dram) {
        while let Some(resp) = dram.pop_response(self.port) {
            if resp.tag == WRITE_TAG {
                continue;
            }
            let slot = resp.tag.0 as usize;
            let ctx = self.slots[slot].take().expect("response for empty slot");
            self.ready.push_back((ctx, resp.data));
        }
    }

    /// Pop the oldest completed read.
    pub fn pop_ready(&mut self) -> Option<(T, MemData)> {
        self.ready.pop_front()
    }

    /// Peek the oldest completed read without consuming it.
    pub fn peek_ready(&self) -> Option<&(T, MemData)> {
        self.ready.front()
    }

    /// True when a completed read is waiting to be popped (fast-forward
    /// support: a stage with a ready response can make progress next cycle).
    pub fn has_ready(&self) -> bool {
        !self.ready.is_empty()
    }

    /// True when no reads are in flight and nothing is waiting to be popped.
    pub fn is_idle(&self) -> bool {
        self.ready.is_empty() && self.slots.iter().all(Option::is_none)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bionicdb_fpga::FpgaConfig;

    #[test]
    fn read_context_travels_with_response() {
        let cfg = FpgaConfig::default();
        let mut dram = Dram::new(&cfg, 1 << 20);
        let mut r: AsyncReader<&str> = AsyncReader::new(&mut dram, 2);
        dram.host_write_u64(8, 0x55);
        r.issue(0, &mut dram, 8, 8, "ctx-a").unwrap();
        assert!(r.can_issue());
        dram.tick(cfg.dram_latency);
        r.poll(&mut dram);
        let (ctx, data) = r.pop_ready().unwrap();
        assert_eq!(ctx, "ctx-a");
        assert_eq!(
            u64::from_le_bytes(data.as_slice().try_into().unwrap()),
            0x55
        );
        assert!(r.is_idle());
    }

    #[test]
    fn slots_bound_outstanding_reads() {
        let cfg = FpgaConfig::default();
        let mut dram = Dram::new(&cfg, 1 << 20);
        let mut r: AsyncReader<u32> = AsyncReader::new(&mut dram, 1);
        r.issue(0, &mut dram, 0, 8, 1).unwrap();
        assert_eq!(r.issue(1, &mut dram, 64, 8, 2), Err(2));
        dram.tick(cfg.dram_latency);
        r.poll(&mut dram);
        r.pop_ready().unwrap();
        assert!(r.issue(cfg.dram_latency + 1, &mut dram, 64, 8, 2).is_ok());
    }

    #[test]
    fn write_acks_are_discarded() {
        let cfg = FpgaConfig::default();
        let mut dram = Dram::new(&cfg, 1 << 20);
        let mut r: AsyncReader<()> = AsyncReader::new(&mut dram, 1);
        assert!(r.write(0, &mut dram, 128, vec![1, 2, 3]));
        dram.tick(cfg.dram_latency);
        r.poll(&mut dram);
        assert!(r.pop_ready().is_none());
        assert_eq!(dram.host_read(128, 3), vec![1, 2, 3]);
    }
}
