//! Fleet-mode simulation: the epoch barrier as a message exchange between
//! OS processes.
//!
//! The lane engine (`machine/par.rs`) splits the machine into
//! shared-nothing worker lanes and drives them with one
//! [`EpochCoordinator`] loop over a [`Placement`]. This module is the
//! second placement: **chip processes**. `Machine::set_fleet_chips(N)`
//! makes the next `run_to_quiescence` or `step_until` call fork N child
//! processes, each owning a contiguous slice of the workers (its partition
//! workers, their [`Dram::bank`] banks, and their table state, all
//! inherited copy-on-write), while the parent keeps the coordinator role:
//! the NoC, the [`EpochMerger`], the host DRAM view, and the trace sink.
//!
//! # Protocol
//!
//! One run is one epoch *phase*:
//!
//! ```text
//! coord -> chip  Phase    start cycle + host write journal + queued submits
//!                         + table brks + tracing flag + the chip's EpochLinks
//! chip  -> coord Ready    per-lane entry snapshot, taken on the real lanes
//! coord -> chip  Round    per-lane horizons + routed deliveries + journal
//! chip  -> coord RoundOut per-lane reports + staged traffic + trace + journal
//! ...            (Round/RoundOut repeats, driven by the EpochCoordinator)
//! coord -> chip  Finish   common exit cycle
//! chip  -> coord PhaseEnd links + stats slices + lane activity
//! ```
//!
//! Everything crossing the boundary uses the [`Wire`] codec over a pair of
//! shared-memory SPSC rings per chip.
//!
//! # Bit-identity argument
//!
//! The engine is literally shared: the coordinator runs the same
//! [`drive`] loop as the threaded placement, and a chip executes a
//! scheduled lane with the same `step_lane`/`finish_lane` the in-process
//! threads use. The remaining differences are plumbing, each preserved
//! exactly:
//!
//! * **Functional memory.** Every functional write funnels through
//!   [`Dram::host_write`], so an armed write journal captures the complete
//!   mutation stream of a view. Chips journal their banks and ship the
//!   entries with each `RoundOut`; the coordinator applies them to its
//!   host view (keeping host reads, block status checks, and the crash
//!   hook's durable snapshot current) and relays them to the *other*
//!   chips with the next message they receive. Host-side writes between
//!   runs (loaders, block population, `resubmit`'s status reset) journal
//!   on the coordinator and replay to every chip at the next `Phase`.
//!   Relayed application order is deterministic (chip order within a
//!   round), and no two processes ever race on the same byte within a
//!   round: cross-worker accesses to the same data are separated by at
//!   least one NoC crossing, which the epoch horizons already order.
//! * **Merge order.** A chip folds its scheduled lanes' traffic and trace
//!   in ascending lane order; the coordinator folds chip replies in
//!   ascending chip order. It is the same fold the in-process threads use,
//!   keyed by `(cycle, lane)`, and its result does not depend on the fold
//!   order, so it equals the serial concatenation either way.
//! * **Statistics.** Worker/bank counters live in the chip processes; the
//!   coordinator keeps a [`WorkerSlice`] cache per worker, refreshed from
//!   each `PhaseEnd`, and the `Machine` accessors consult it in fleet
//!   mode. Table heap brks travel both ways (chip allocations at
//!   `PhaseEnd`, host loader allocations at `Phase`) so address allocation
//!   never diverges.
//!
//! `goldencheck`'s `fleet` check asserts the contract end to end:
//! full `MachineReport` JSON from a fleet run diffs byte-for-byte against
//! the in-process engine on fixed seeds, for preloaded and for streamed
//! (`submit` between `step_until` calls) runs.
//!
//! # Process-model caveats
//!
//! Forking is only sound from a single-threaded process, so fleet mode must
//! be engaged from single-threaded binaries (the in-process engine joins
//! its scoped threads before returning, so alternating engines in one
//! process is fine — but `cargo test`'s multi-threaded harness is not).
//! Chips are forked lazily on the first fleet run, terminate on `Shutdown`
//! (or `_exit(101)` on a chip-side panic, which the coordinator surfaces as
//! a hung-protocol panic rather than silent divergence), and are reaped by
//! [`Fleet`]'s `Drop`.

use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};

use bionicdb_fpga::dram::WriteJournal;
use bionicdb_fpga::stats::StageStats;
use bionicdb_fpga::wire::{decode, encode, Reader, Wire};
use bionicdb_fpga::{Dram, DramStats, PortStats};
use bionicdb_noc::{EpochLink, EpochMerger};
use bionicdb_softcore::core::SoftcoreObs;
use bionicdb_softcore::SoftcoreStats;

use super::par::{
    drive, finish_lane, step_lane, Drive, EpochCoordinator, Folded, Lane, LaneOut, Placement,
    RoundEntry, RoundNode, Stop,
};
use super::{LaneActivity, Machine};
use crate::worker::WorkerStats;

// ---------------------------------------------------------------------------
// raw process/memory syscalls
//
// The container bakes in no `libc` crate, so the few POSIX calls fleet mode
// needs resolve directly against the C runtime every Rust binary already
// links. This is the only module in the crate allowed to override the
// crate-level `deny(unsafe_code)`.

#[allow(unsafe_code)]
mod sys {
    use core::ffi::c_void;

    mod c {
        use core::ffi::c_void;
        extern "C" {
            pub fn fork() -> i32;
            pub fn mmap(
                addr: *mut c_void,
                len: usize,
                prot: i32,
                flags: i32,
                fd: i32,
                off: i64,
            ) -> *mut c_void;
            pub fn waitpid(pid: i32, status: *mut i32, options: i32) -> i32;
            pub fn kill(pid: i32, sig: i32) -> i32;
            pub fn _exit(code: i32) -> !;
            pub fn sched_yield() -> i32;
        }
    }

    /// `fork(2)`: returns the child pid in the parent, 0 in the child.
    pub fn fork() -> i32 {
        unsafe { c::fork() }
    }

    /// A zero-initialized `MAP_SHARED | MAP_ANONYMOUS` mapping: the one
    /// kind of memory that stays *physically* shared across `fork`, which
    /// is what makes the ring buffers a cross-process channel.
    pub fn map_shared_zeroed(len: usize) -> *mut u8 {
        const PROT_READ: i32 = 1;
        const PROT_WRITE: i32 = 2;
        const MAP_SHARED: i32 = 0x01;
        const MAP_ANONYMOUS: i32 = 0x20;
        let p = unsafe {
            c::mmap(
                std::ptr::null_mut::<c_void>(),
                len,
                PROT_READ | PROT_WRITE,
                MAP_SHARED | MAP_ANONYMOUS,
                -1,
                0,
            )
        };
        assert!(
            !p.is_null() && p as isize != -1,
            "mmap(MAP_SHARED | MAP_ANONYMOUS, {len}) failed"
        );
        p.cast()
    }

    /// Blocking `waitpid(2)`, status discarded (the protocol, not the exit
    /// code, carries chip failures).
    pub fn waitpid(pid: i32) {
        let mut status = 0i32;
        unsafe { c::waitpid(pid, &mut status, 0) };
    }

    /// `kill(2)` with SIGKILL — last-resort reaping when a shutdown message
    /// cannot be delivered.
    pub fn kill9(pid: i32) {
        unsafe { c::kill(pid, 9) };
    }

    /// `_exit(2)`: terminate the chip process without running destructors —
    /// a forked child must never unwind into the parent's drop glue.
    pub fn exit(code: i32) -> ! {
        unsafe { c::_exit(code) }
    }

    /// `sched_yield(2)`: the ring's wait primitive; keeps single-core hosts
    /// (CI containers) making progress instead of burning a timeslice.
    pub fn yield_now() {
        unsafe { c::sched_yield() };
    }
}

// ---------------------------------------------------------------------------
// shared-memory SPSC ring

#[allow(unsafe_code)]
mod shm {
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Ring capacity. Must be a power of two (offsets are masked). Messages
    /// larger than the ring are streamed through it in chunks.
    pub(super) const RING_CAP: usize = 1 << 20;
    /// Header: head and tail counters on separate cache lines.
    const HDR: usize = 128;

    /// One single-producer single-consumer byte ring in a `MAP_SHARED`
    /// mapping: `[head: AtomicU64][pad][tail: AtomicU64][pad][buf]`. The
    /// producer owns `tail`, the consumer owns `head`; both counters grow
    /// monotonically and are masked into the buffer. Created before `fork`,
    /// so parent and child address the same physical pages.
    #[derive(Clone, Copy)]
    pub(super) struct Ring {
        base: *mut u8,
    }

    // The mapping is plain shared memory coordinated by the atomics below.
    unsafe impl Send for Ring {}

    impl Ring {
        pub fn alloc() -> Ring {
            Ring {
                base: super::sys::map_shared_zeroed(HDR + RING_CAP),
            }
        }

        fn head(&self) -> &AtomicU64 {
            unsafe { &*self.base.cast::<AtomicU64>() }
        }

        fn tail(&self) -> &AtomicU64 {
            unsafe { &*self.base.add(64).cast::<AtomicU64>() }
        }

        /// Producer side: append `data`, spinning (with `sched_yield`) while
        /// the ring is full. Chunked, so messages larger than the ring flow
        /// through as the consumer drains.
        pub fn push(&self, mut data: &[u8]) {
            while !data.is_empty() {
                let tail = self.tail().load(Ordering::Relaxed);
                let head = self.head().load(Ordering::Acquire);
                let free = RING_CAP - tail.wrapping_sub(head) as usize;
                if free == 0 {
                    super::sys::yield_now();
                    continue;
                }
                let n = data.len().min(free);
                let off = tail as usize & (RING_CAP - 1);
                let first = n.min(RING_CAP - off);
                unsafe {
                    std::ptr::copy_nonoverlapping(data.as_ptr(), self.buf(off), first);
                    if n > first {
                        std::ptr::copy_nonoverlapping(
                            data.as_ptr().add(first),
                            self.buf(0),
                            n - first,
                        );
                    }
                }
                self.tail().store(tail.wrapping_add(n as u64), Ordering::Release);
                data = &data[n..];
            }
        }

        /// Producer side, bounded: push `data` only if it fits whole within
        /// `max_spins` yields. Used by shutdown paths that must not hang on
        /// a dead consumer.
        pub fn try_push(&self, data: &[u8], max_spins: usize) -> bool {
            assert!(data.len() <= RING_CAP, "try_push frame exceeds ring");
            for _ in 0..max_spins {
                let tail = self.tail().load(Ordering::Relaxed);
                let head = self.head().load(Ordering::Acquire);
                let free = RING_CAP - tail.wrapping_sub(head) as usize;
                if free >= data.len() {
                    let off = tail as usize & (RING_CAP - 1);
                    let first = data.len().min(RING_CAP - off);
                    unsafe {
                        std::ptr::copy_nonoverlapping(data.as_ptr(), self.buf(off), first);
                        if data.len() > first {
                            std::ptr::copy_nonoverlapping(
                                data.as_ptr().add(first),
                                self.buf(0),
                                data.len() - first,
                            );
                        }
                    }
                    self.tail()
                        .store(tail.wrapping_add(data.len() as u64), Ordering::Release);
                    return true;
                }
                super::sys::yield_now();
            }
            false
        }

        /// Consumer side: fill `out` completely, spinning while empty.
        pub fn pop_into(&self, out: &mut [u8]) {
            let mut filled = 0;
            while filled < out.len() {
                let head = self.head().load(Ordering::Relaxed);
                let tail = self.tail().load(Ordering::Acquire);
                let avail = tail.wrapping_sub(head) as usize;
                if avail == 0 {
                    super::sys::yield_now();
                    continue;
                }
                let n = (out.len() - filled).min(avail);
                let off = head as usize & (RING_CAP - 1);
                let first = n.min(RING_CAP - off);
                unsafe {
                    std::ptr::copy_nonoverlapping(self.buf(off), out.as_mut_ptr().add(filled), first);
                    if n > first {
                        std::ptr::copy_nonoverlapping(
                            self.buf(0),
                            out.as_mut_ptr().add(filled + first),
                            n - first,
                        );
                    }
                }
                self.head().store(head.wrapping_add(n as u64), Ordering::Release);
                filled += n;
            }
        }

        fn buf(&self, off: usize) -> *mut u8 {
            unsafe { self.base.add(HDR + off) }
        }
    }
}

// ---------------------------------------------------------------------------
// channel: length-prefixed frames over a ring pair

/// One end of a coordinator<->chip channel: two SPSC rings, one per
/// direction, in pre-fork shared mappings. Frames are `u32` (LE) length
/// prefixed [`Wire`] messages.
struct Chan {
    tx: shm::Ring,
    rx: shm::Ring,
}

impl Chan {
    /// Build a connected (coordinator, chip) pair. Must be called before
    /// `fork` so both processes share the underlying mappings.
    fn pair() -> (Chan, Chan) {
        let ab = shm::Ring::alloc();
        let ba = shm::Ring::alloc();
        (Chan { tx: ab, rx: ba }, Chan { tx: ba, rx: ab })
    }

    /// Send one frame, blocking until fully written.
    fn send(&mut self, msg: &[u8]) {
        let len = u32::try_from(msg.len()).expect("fleet message fits in u32");
        self.tx.push(&len.to_le_bytes());
        self.tx.push(msg);
    }

    /// Receive one frame, blocking until fully read.
    fn recv(&mut self) -> Vec<u8> {
        let mut hdr = [0u8; 4];
        self.rx.pop_into(&mut hdr);
        let mut buf = vec![0u8; u32::from_le_bytes(hdr) as usize];
        self.rx.pop_into(&mut buf);
        buf
    }

    /// Best-effort send for shutdown paths: never blocks indefinitely,
    /// never panics. Returns false when the frame could not be delivered.
    fn send_best_effort(&mut self, msg: &[u8]) -> bool {
        let mut frame = Vec::with_capacity(4 + msg.len());
        frame.extend_from_slice(&(msg.len() as u32).to_le_bytes());
        frame.extend_from_slice(msg);
        self.tx.try_push(&frame, 10_000)
    }
}

// ---------------------------------------------------------------------------
// protocol messages

/// Coordinator-side cache of one worker's observable state, refreshed from
/// every `PhaseEnd`. `Machine` accessors (stats, reports, quiescence)
/// consult these in fleet mode, since the live worker objects advance only
/// inside the chip processes.
pub(crate) struct WorkerSlice {
    pub(crate) softcore: SoftcoreStats,
    pub(crate) obs: SoftcoreObs,
    pub(crate) glue: WorkerStats,
    pub(crate) stages: Vec<(String, StageStats)>,
    pub(crate) bank: DramStats,
    pub(crate) ports: Vec<PortStats>,
    pub(crate) cancelled_acks: u64,
    pub(crate) quiescent: bool,
    /// Per-table heap brks — replayed onto the coordinator's `TableState`
    /// mirrors so host-side loaders keep allocating past chip inserts.
    table_brks: Vec<u64>,
}

/// Coordinator -> chip.
enum ToChip {
    /// Open a phase at cycle `now`: every host write since the last
    /// exchange, queued client submits for this chip's workers
    /// (`(worker, block_addr, submitted_at)`), the coordinator-side table
    /// brks per owned worker, and the chip's slice of the detached links.
    Phase {
        now: u64,
        journal: WriteJournal,
        submits: Vec<(usize, u64, u64)>,
        brks: Vec<Vec<u64>>,
        tracing: bool,
        links: Vec<EpochLink>,
    },
    /// Run scheduled lanes: `(global lane, horizon, routed deliveries)`,
    /// plus writes relayed from the other processes since the last message.
    Round {
        entries: Vec<RoundEntry>,
        journal: WriteJournal,
    },
    /// Close the phase: finish every lane at `to`.
    Finish { to: u64, expect_idle: bool },
    /// Terminate the chip process.
    Shutdown,
}

/// Chip -> coordinator.
enum ToCoord {
    /// The phase-entry snapshot of every owned lane.
    Ready { lanes: Vec<LaneOut> },
    /// One round's results: per scheduled lane its report, plus the chip's
    /// merged traffic and trace and its bank write journal.
    RoundOut {
        outs: Vec<(usize, LaneOut)>,
        node: RoundNode,
        journal: WriteJournal,
    },
    PhaseEnd {
        links: Vec<EpochLink>,
        slices: Vec<WorkerSlice>,
        activity: Vec<LaneActivity>,
    },
}

impl Wire for LaneActivity {
    fn put(&self, out: &mut Vec<u8>) {
        self.ticks.put(out);
        self.skips.put(out);
        self.rounds.put(out);
        self.barrier_idle_ns.put(out);
        self.epoch_len.put(out);
    }
    fn get(r: &mut Reader<'_>) -> Self {
        LaneActivity {
            ticks: r.get(),
            skips: r.get(),
            rounds: r.get(),
            barrier_idle_ns: r.get(),
            epoch_len: r.get(),
        }
    }
}

impl Wire for LaneOut {
    fn put(&self, out: &mut Vec<u8>) {
        self.hint.put(out);
        self.pos.put(out);
        self.quiescent.put(out);
        self.drained.put(out);
    }
    fn get(r: &mut Reader<'_>) -> Self {
        LaneOut {
            hint: r.get(),
            pos: r.get(),
            quiescent: r.get(),
            drained: r.get(),
        }
    }
}

impl Wire for RoundNode {
    fn put(&self, out: &mut Vec<u8>) {
        self.batch.put(out);
        self.trace.put(out);
    }
    fn get(r: &mut Reader<'_>) -> Self {
        RoundNode {
            batch: r.get(),
            trace: r.get(),
        }
    }
}

impl Wire for WorkerStats {
    fn put(&self, out: &mut Vec<u8>) {
        self.local_requests.put(out);
        self.remote_requests.put(out);
        self.background_requests.put(out);
        self.dup_requests.put(out);
        self.dup_responses.put(out);
        self.retries_sent.put(out);
        self.retry_exhausted.put(out);
    }
    fn get(r: &mut Reader<'_>) -> Self {
        WorkerStats {
            local_requests: r.get(),
            remote_requests: r.get(),
            background_requests: r.get(),
            dup_requests: r.get(),
            dup_responses: r.get(),
            retries_sent: r.get(),
            retry_exhausted: r.get(),
        }
    }
}

impl Wire for WorkerSlice {
    fn put(&self, out: &mut Vec<u8>) {
        self.softcore.put(out);
        self.obs.put(out);
        self.glue.put(out);
        self.stages.put(out);
        self.bank.put(out);
        self.ports.put(out);
        self.cancelled_acks.put(out);
        self.quiescent.put(out);
        self.table_brks.put(out);
    }
    fn get(r: &mut Reader<'_>) -> Self {
        WorkerSlice {
            softcore: r.get(),
            obs: r.get(),
            glue: r.get(),
            stages: r.get(),
            bank: r.get(),
            ports: r.get(),
            cancelled_acks: r.get(),
            quiescent: r.get(),
            table_brks: r.get(),
        }
    }
}

impl Wire for ToChip {
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            ToChip::Phase {
                now,
                journal,
                submits,
                brks,
                tracing,
                links,
            } => {
                0u8.put(out);
                now.put(out);
                journal.put(out);
                submits.put(out);
                brks.put(out);
                tracing.put(out);
                links.put(out);
            }
            ToChip::Round { entries, journal } => {
                1u8.put(out);
                entries.put(out);
                journal.put(out);
            }
            ToChip::Finish { to, expect_idle } => {
                2u8.put(out);
                to.put(out);
                expect_idle.put(out);
            }
            ToChip::Shutdown => 3u8.put(out),
        }
    }
    fn get(r: &mut Reader<'_>) -> Self {
        match u8::get(r) {
            0 => ToChip::Phase {
                now: r.get(),
                journal: r.get(),
                submits: r.get(),
                brks: r.get(),
                tracing: r.get(),
                links: r.get(),
            },
            1 => ToChip::Round {
                entries: r.get(),
                journal: r.get(),
            },
            2 => ToChip::Finish {
                to: r.get(),
                expect_idle: r.get(),
            },
            3 => ToChip::Shutdown,
            t => panic!("bad ToChip tag {t}"),
        }
    }
}

impl Wire for ToCoord {
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            ToCoord::Ready { lanes } => {
                0u8.put(out);
                lanes.put(out);
            }
            ToCoord::RoundOut {
                outs,
                node,
                journal,
            } => {
                1u8.put(out);
                outs.put(out);
                node.put(out);
                journal.put(out);
            }
            ToCoord::PhaseEnd {
                links,
                slices,
                activity,
            } => {
                2u8.put(out);
                links.put(out);
                slices.put(out);
                activity.put(out);
            }
        }
    }
    fn get(r: &mut Reader<'_>) -> Self {
        match u8::get(r) {
            0 => ToCoord::Ready { lanes: r.get() },
            1 => ToCoord::RoundOut {
                outs: r.get(),
                node: r.get(),
                journal: r.get(),
            },
            2 => ToCoord::PhaseEnd {
                links: r.get(),
                slices: r.get(),
                activity: r.get(),
            },
            t => panic!("bad ToCoord tag {t}"),
        }
    }
}

// ---------------------------------------------------------------------------
// the fleet

/// One forked chip process, as the coordinator sees it.
struct ChipHandle {
    pid: i32,
    chan: Chan,
}

/// Coordinator-side state of a spawned fleet. Lives in
/// `Machine::fleet` from the first fleet run until the machine drops.
pub(crate) struct Fleet {
    chips: Vec<ChipHandle>,
    /// Worker range owned by each chip (contiguous, covering, in order).
    ranges: Vec<Range<usize>>,
    /// Per-worker observable-state cache (see [`WorkerSlice`]).
    pub(crate) slices: Vec<WorkerSlice>,
    /// Client submits queued since the last run, `(worker, block_addr,
    /// submitted_at)` — relayed with the next `Phase`.
    pub(crate) pending_submits: Vec<(usize, u64, u64)>,
    /// Per-chip journal of writes (host-side or relayed from other chips)
    /// not yet shipped to that chip.
    outbox: Vec<WriteJournal>,
}

impl Fleet {
    fn chip_of(&self, worker: usize) -> usize {
        self.ranges
            .iter()
            .position(|r| r.contains(&worker))
            .expect("worker belongs to a chip")
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        let msg = encode(&ToChip::Shutdown);
        for chip in &mut self.chips {
            if !chip.chan.send_best_effort(&msg) {
                // The chip stopped draining its ring (it died, or the
                // coordinator is unwinding mid-phase): reap it by force so
                // waitpid below cannot hang.
                sys::kill9(chip.pid);
            }
        }
        for chip in &self.chips {
            sys::waitpid(chip.pid);
        }
    }
}

/// The fleet placement: each round is one `Round`/`RoundOut` exchange
/// with every chip that owns a scheduled lane.
struct Chips<'f> {
    fleet: &'f mut Fleet,
    /// The coordinator's host DRAM view, kept current from chip journals.
    host: &'f mut Dram,
    /// Every lane's link and phase activity in lane order, from `PhaseEnd`.
    links: Vec<EpochLink>,
    acts: Vec<LaneActivity>,
}

impl Placement for Chips<'_> {
    fn run(&mut self, lanes: Vec<RoundEntry>) -> Folded {
        let fleet = &mut *self.fleet;
        let mut per_chip: Vec<Vec<RoundEntry>> = fleet.chips.iter().map(|_| Vec::new()).collect();
        for entry in lanes {
            per_chip[fleet.chip_of(entry.0)].push(entry);
        }
        let active: Vec<usize> = (0..per_chip.len())
            .filter(|&c| !per_chip[c].is_empty())
            .collect();
        for &c in &active {
            fleet.chips[c].chan.send(&encode(&ToChip::Round {
                entries: std::mem::take(&mut per_chip[c]),
                journal: std::mem::take(&mut fleet.outbox[c]),
            }));
        }
        let mut outs = Vec::new();
        let mut root = RoundNode::default();
        for &c in &active {
            let ToCoord::RoundOut {
                outs: chip_outs,
                node,
                journal,
            } = decode::<ToCoord>(&fleet.chips[c].chan.recv())
            else {
                panic!("fleet: expected RoundOut");
            };
            self.host.apply_write_journal(&journal);
            for (other, outbox) in fleet.outbox.iter_mut().enumerate() {
                if other != c {
                    outbox.extend(journal.iter().cloned());
                }
            }
            outs.extend(chip_outs);
            root.fold(node);
        }
        (outs, root)
    }

    fn finish(&mut self, to: u64, expect_idle: bool) {
        let msg = encode(&ToChip::Finish { to, expect_idle });
        for chip in &mut self.fleet.chips {
            chip.chan.send(&msg);
        }
        for c in 0..self.fleet.chips.len() {
            let ToCoord::PhaseEnd {
                links,
                slices,
                activity,
            } = decode::<ToCoord>(&self.fleet.chips[c].chan.recv())
            else {
                panic!("fleet: expected PhaseEnd");
            };
            let range = self.fleet.ranges[c].clone();
            assert_eq!(slices.len(), range.len(), "phase-end slice count");
            for (w, slice) in range.zip(slices) {
                self.fleet.slices[w] = slice;
            }
            self.links.extend(links);
            self.acts.extend(activity);
        }
    }
}

impl Machine {
    /// Fork the chip processes. Called lazily by the first fleet run, so
    /// everything built before it — loaded tables, populated blocks, fault
    /// plans, trace flags — is inherited copy-on-write and needs no
    /// transfer.
    pub(crate) fn fleet_spawn(&mut self) {
        assert!(self.fleet.is_none(), "fleet already spawned");
        let n = self.workers.len();
        let nchips = self.fleet_chips.min(n);
        assert!(nchips > 1, "fleet mode needs at least two chips");
        let mut ranges: Vec<Range<usize>> = Vec::with_capacity(nchips);
        let (per, extra) = (n / nchips, n % nchips);
        let mut lo = 0;
        for c in 0..nchips {
            let len = per + usize::from(c < extra);
            ranges.push(lo..lo + len);
            lo += len;
        }
        let mut chips = Vec::with_capacity(nchips);
        for range in &ranges {
            let (parent, mut child) = Chan::pair();
            let pid = sys::fork();
            assert!(pid >= 0, "fork failed");
            if pid == 0 {
                // ---- chip process: serve until Shutdown, then _exit ----
                let range = range.clone();
                let code = match catch_unwind(AssertUnwindSafe(|| {
                    self.fleet_chip_serve(range, &mut child);
                })) {
                    Ok(()) => 0,
                    Err(_) => 101, // the panic hook already wrote stderr
                };
                sys::exit(code);
            }
            chips.push(ChipHandle { pid, chan: parent });
        }
        // From here on the coordinator journals its host writes for relay.
        self.dram.set_write_journal(true);
        let slices = (0..n).map(|w| self.capture_worker_slice(w)).collect();
        let outbox = (0..nchips).map(|_| WriteJournal::new()).collect();
        self.fleet = Some(Fleet {
            chips,
            ranges,
            slices,
            pending_submits: Vec::new(),
            outbox,
        });
    }

    /// Snapshot one worker's observable state. Used by the coordinator at
    /// spawn (pre-fork state is still truthful parent-side) and by chips at
    /// every `PhaseEnd`.
    fn capture_worker_slice(&self, w: usize) -> WorkerSlice {
        let worker = &self.workers[w];
        WorkerSlice {
            softcore: worker.softcore.stats(),
            obs: worker.softcore.obs().clone(),
            glue: worker.stats(),
            stages: worker.coproc.stage_report(),
            bank: self.banks[w].stats(),
            ports: self.banks[w].port_stats().to_vec(),
            cancelled_acks: self.banks[w].cancelled_acks(),
            quiescent: worker.is_quiescent(),
            table_brks: self.partitions[w]
                .tables
                .iter()
                .map(|t| t.heap.brk())
                .collect(),
        }
    }

    /// The chip process's service loop: execute phases, return on
    /// `Shutdown`.
    fn fleet_chip_serve(&mut self, range: Range<usize>, chan: &mut Chan) {
        // Chips journal their banks (the timed mutation stream travels to
        // the coordinator); the inherited host-view journal state must not
        // double-capture relayed writes.
        for w in range.clone() {
            self.banks[w].set_write_journal(true);
        }
        self.dram.set_write_journal(false);
        loop {
            match decode::<ToChip>(&chan.recv()) {
                ToChip::Phase {
                    now,
                    journal,
                    submits,
                    brks,
                    tracing,
                    links,
                } => {
                    self.dram.apply_write_journal(&journal);
                    self.now = now;
                    for (w, brks) in range.clone().zip(brks) {
                        for (t, brk) in brks.into_iter().enumerate() {
                            self.partitions[w].tables[t].heap.set_brk(brk);
                        }
                    }
                    for (w, addr, at) in submits {
                        debug_assert!(range.contains(&w), "submit routed to wrong chip");
                        self.workers[w].softcore.submit_at(addr, at);
                    }
                    self.fleet_chip_phase(&range, tracing, links, chan);
                }
                ToChip::Shutdown => return,
                ToChip::Round { .. } | ToChip::Finish { .. } => {
                    panic!("fleet chip: phase message outside a phase")
                }
            }
        }
    }

    /// Execute one epoch phase chip-side: build the owned lanes, report
    /// their entry snapshot, run every `Round` the coordinator schedules
    /// (lanes in ascending order — the serial merge order), and close with
    /// `PhaseEnd`.
    fn fleet_chip_phase(
        &mut self,
        range: &Range<usize>,
        tracing: bool,
        mut links: Vec<EpochLink>,
        chan: &mut Chan,
    ) {
        let now0 = self.now;
        let activity = {
            let Machine {
                workers,
                banks,
                partitions,
                dram,
                cat,
                ..
            } = self;
            let mut lanes: Vec<Lane<'_>> = workers[range.clone()]
                .iter_mut()
                .zip(banks[range.clone()].iter_mut())
                .zip(partitions[range.clone()].iter_mut())
                .enumerate()
                .map(|(k, ((worker, bank), part))| {
                    Lane::new(range.start + k, worker, bank, &mut part.tables, now0)
                })
                .collect();
            assert_eq!(lanes.len(), links.len(), "phase link slice mismatch");
            let entry = lanes
                .iter()
                .zip(&links)
                .map(|(lane, link)| LaneOut::entry(lane, link))
                .collect();
            chan.send(&encode(&ToCoord::Ready { lanes: entry }));
            loop {
                match decode::<ToChip>(&chan.recv()) {
                    ToChip::Round { entries, journal } => {
                        dram.apply_write_journal(&journal);
                        let mut outs = Vec::with_capacity(entries.len());
                        let mut node = RoundNode::default();
                        let mut journal = WriteJournal::new();
                        for (g, horizon, pending) in entries {
                            let k = g - range.start;
                            let lane = &mut lanes[k];
                            let (out, lane_node) =
                                step_lane(lane, &mut links[k], horizon, pending, cat, tracing);
                            node.fold(lane_node);
                            journal.extend(lane.bank.take_write_journal());
                            outs.push((g, out));
                        }
                        chan.send(&encode(&ToCoord::RoundOut {
                            outs,
                            node,
                            journal,
                        }));
                    }
                    ToChip::Finish { to, expect_idle } => {
                        for (lane, link) in lanes.iter_mut().zip(&links) {
                            finish_lane(lane, link, to, expect_idle);
                        }
                        break lanes.iter().map(|l| l.act).collect::<Vec<_>>();
                    }
                    _ => panic!("fleet chip: unexpected message inside a phase"),
                }
            }
        };
        let slices: Vec<WorkerSlice> = range
            .clone()
            .map(|w| self.capture_worker_slice(w))
            .collect();
        chan.send(&encode(&ToCoord::PhaseEnd {
            links,
            slices,
            activity,
        }));
    }

    /// One phase on the fleet placement: open it on every chip (spawned
    /// by the caller), drive it, and refresh the coordinator's mirrors.
    /// Returns the drive outcome plus every lane's link and activity, in
    /// lane order.
    pub(crate) fn fleet_phase(
        &mut self,
        links: Vec<EpochLink>,
        stop: Stop,
        crash: Option<u64>,
        merger: EpochMerger,
    ) -> (Drive, Vec<EpochLink>, Vec<LaneActivity>) {
        let now = self.now;
        let n = self.workers.len();
        // Take the fleet out of `self` for the duration: the run needs the
        // machine's components and the fleet's channels simultaneously.
        // (On a coordinator panic the local is dropped, which shuts the
        // chips down.)
        let mut fleet = self.fleet.take().expect("fleet spawned");

        // ---- Phase: ship host writes, loader brks, queued submits, links
        let host_journal = self.dram.take_write_journal();
        let submits = std::mem::take(&mut fleet.pending_submits);
        let tracing = self.trace_sink.enabled();
        let mut links = links.into_iter();
        for c in 0..fleet.chips.len() {
            let range = fleet.ranges[c].clone();
            let mut journal = std::mem::take(&mut fleet.outbox[c]);
            journal.extend(host_journal.iter().cloned());
            let submits = submits
                .iter()
                .copied()
                .filter(|(w, _, _)| range.contains(w))
                .collect();
            let brks = range
                .clone()
                .map(|w| self.partitions[w].tables.iter().map(|t| t.heap.brk()).collect())
                .collect();
            fleet.chips[c].chan.send(&encode(&ToChip::Phase {
                now,
                journal,
                submits,
                brks,
                tracing,
                links: links.by_ref().take(range.len()).collect(),
            }));
        }
        let mut init = Vec::with_capacity(n);
        for chip in &mut fleet.chips {
            let ToCoord::Ready { lanes } = decode::<ToCoord>(&chip.chan.recv()) else {
                panic!("fleet: expected Ready");
            };
            init.extend(lanes);
        }
        assert_eq!(init.len(), n, "every lane reports at phase entry");

        let coord = EpochCoordinator::new(now, stop, crash, init);
        let mut place = Chips {
            fleet: &mut fleet,
            host: &mut self.dram,
            links: Vec::with_capacity(n),
            acts: Vec::with_capacity(n),
        };
        let end = drive(&mut place, coord, merger, &mut self.noc, self.trace_sink.as_mut());
        let Chips { links, acts, .. } = place;
        for (part, slice) in self.partitions.iter_mut().zip(&fleet.slices) {
            for (t, &brk) in slice.table_brks.iter().enumerate() {
                part.tables[t].heap.set_brk(brk);
            }
        }
        self.fleet = Some(fleet);
        (end, links, acts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The ring transport works in-process too (threads instead of forked
    /// processes share the mapping just as well), which is how it can be
    /// unit-tested under the multi-threaded cargo harness — whole-fleet
    /// tests live in single-threaded binaries (`goldencheck`, `chaos`).
    #[test]
    fn shm_chan_streams_frames_larger_than_the_ring() {
        let (mut coord_end, mut chip_end) = Chan::pair();

        let big: Vec<u8> = (0..(3 * shm::RING_CAP + 17))
            .map(|i| (i * 31 % 251) as u8)
            .collect();
        let expect = big.clone();
        let t = std::thread::spawn(move || {
            let got = chip_end.recv();
            chip_end.send(&[got.len() as u8, got[1], got[got.len() - 1]]);
            got
        });
        coord_end.send(&big);
        let ack = coord_end.recv();
        let got = t.join().unwrap();
        assert_eq!(got, expect);
        assert_eq!(ack[1], expect[1]);
        assert_eq!(ack[2], expect[expect.len() - 1]);
    }

    #[test]
    fn protocol_messages_round_trip() {
        let phase = ToChip::Phase {
            now: 42,
            journal: vec![(0x1000, vec![1, 2, 3]), (0x2000, vec![9])],
            submits: vec![(1, 0xdead, 40), (2, 0xbeef, 41)],
            brks: vec![vec![10, 20], vec![30]],
            tracing: true,
            links: Vec::new(),
        };
        match decode::<ToChip>(&encode(&phase)) {
            ToChip::Phase {
                now,
                journal,
                submits,
                brks,
                tracing,
                links,
            } => {
                assert_eq!(now, 42);
                assert_eq!(journal, vec![(0x1000, vec![1, 2, 3]), (0x2000, vec![9])]);
                assert_eq!(submits, vec![(1, 0xdead, 40), (2, 0xbeef, 41)]);
                assert_eq!(brks, vec![vec![10, 20], vec![30]]);
                assert!(tracing);
                assert!(links.is_empty());
            }
            _ => panic!("wrong variant"),
        }

        let out = ToCoord::RoundOut {
            outs: vec![(
                3,
                LaneOut {
                    hint: Some(77),
                    pos: 70,
                    quiescent: false,
                    drained: true,
                },
            )],
            node: RoundNode::default(),
            journal: vec![(8, vec![0xff; 64])],
        };
        match decode::<ToCoord>(&encode(&out)) {
            ToCoord::RoundOut { outs, journal, .. } => {
                assert_eq!(outs.len(), 1);
                assert_eq!(outs[0].0, 3);
                assert_eq!(outs[0].1.hint, Some(77));
                assert_eq!(outs[0].1.pos, 70);
                assert!(outs[0].1.drained);
                assert_eq!(journal, vec![(8, vec![0xff; 64])]);
            }
            _ => panic!("wrong variant"),
        }

        let fin = ToChip::Finish {
            to: 99,
            expect_idle: true,
        };
        match decode::<ToChip>(&encode(&fin)) {
            ToChip::Finish { to, expect_idle } => {
                assert_eq!(to, 99);
                assert!(expect_idle);
            }
            _ => panic!("wrong variant"),
        }
        match decode::<ToChip>(&encode(&ToChip::Shutdown)) {
            ToChip::Shutdown => {}
            _ => panic!("wrong variant"),
        }
    }

    #[test]
    fn worker_stats_wire_roundtrip() {
        let s = WorkerStats {
            local_requests: 1,
            remote_requests: 2,
            background_requests: 3,
            dup_requests: 4,
            dup_responses: 5,
            retries_sent: 6,
            retry_exhausted: 7,
        };
        assert_eq!(decode::<WorkerStats>(&encode(&s)), s);
    }
}
