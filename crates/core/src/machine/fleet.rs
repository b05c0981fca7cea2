//! Fleet-mode simulation: the epoch barrier as a message exchange between
//! OS processes.
//!
//! The in-process engine (`machine/par.rs`) splits the machine into
//! shared-nothing worker lanes and coordinates them with an
//! [`EpochCoordinator`] over a thread barrier. This module runs the *same*
//! coordinator over **chip processes**: `Machine::set_fleet_chips(N)` makes
//! the next `run_to_quiescence` call fork N child processes, each owning a
//! contiguous slice of the workers (its partition workers, their
//! [`Dram::bank`] banks, and their table state, all inherited
//! copy-on-write), while the parent keeps the coordinator role: the NoC,
//! the [`EpochMerger`], the host DRAM view, and the trace sink.
//!
//! # Protocol
//!
//! One run is one `Sync` handshake followed by one epoch *phase*:
//!
//! ```text
//! coord -> chip  Sync     host write journal + queued submits + table brks
//! chip  -> coord SyncAck  per-lane next-event/quiescence snapshot
//! coord -> chip  Phase    the chip's detached EpochLinks
//! coord -> chip  Round    per-lane horizons + routed deliveries + journal
//! chip  -> coord RoundOut per-lane exit hints + staged traffic + trace
//! ...            (Round/RoundOut repeats, driven by the EpochCoordinator)
//! coord -> chip  Finish   common top-up cycle
//! chip  -> coord PhaseEnd links + stats slices + lane activity
//! ```
//!
//! Everything crossing the boundary uses the [`Wire`] codec; the transport
//! is either a pair of shared-memory SPSC rings per chip (default) or a
//! Unix socket pair (`BIONICDB_FLEET_TRANSPORT=socket`).
//!
//! # Bit-identity argument
//!
//! The scheduling brain is literally shared: both engines drive
//! [`EpochCoordinator::next_step`], and a chip executes a scheduled lane
//! with the same `run_round`/`finish_lane` the in-process threads use. The
//! remaining differences are plumbing, each preserved exactly:
//!
//! * **Functional memory.** Every functional write funnels through
//!   [`Dram::host_write`], so an armed write journal captures the complete
//!   mutation stream of a view. Chips journal their banks and ship the
//!   entries with each `RoundOut`; the coordinator applies them to its
//!   host view (keeping host reads, block status checks, and the crash
//!   hook's durable snapshot current) and relays them to the *other*
//!   chips with the next message they receive. Host-side writes between
//!   runs (loaders, block population, `resubmit`'s status reset) journal
//!   on the coordinator and replay to every chip at the next `Sync`.
//!   Relayed application order is deterministic (chip order within a
//!   round), and no two processes ever race on the same byte within a
//!   round: cross-worker accesses to the same data are separated by at
//!   least one NoC crossing, which the epoch horizons already order.
//! * **Merge order.** A chip folds its scheduled lanes' traffic and trace
//!   in ascending lane order; the coordinator folds chip replies in
//!   ascending chip order. Both merges are the order-preserving ones the
//!   in-process combining tree uses, so the result equals the serial
//!   concatenation either way.
//! * **Statistics.** Worker/bank counters live in the chip processes; the
//!   coordinator keeps a [`WorkerSlice`] cache per worker, refreshed from
//!   each `PhaseEnd`, and the `Machine` accessors consult it in fleet
//!   mode. Table heap brks travel both ways (chip allocations at
//!   `PhaseEnd`, host loader allocations at `Sync`) so address allocation
//!   never diverges.
//! * **The serial mop-up.** `run_to_quiescence_limit`'s serial loop allows
//!   exactly one fast-forward step past the epoch cap and ticks the crash
//!   cycle itself; [`Machine::run_fleet_to_quiescence`] mirrors both by
//!   extending the coordinator's cap once (running the post-cap cycle as
//!   one more round) and by finishing every lane *through* the crash
//!   cycle before latching the crash.
//!
//! `goldencheck`'s `fleet` check asserts the contract end to end:
//! full `MachineReport` JSON from a fleet run diffs byte-for-byte against
//! the in-process engine on fixed seeds.
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

use std::io::{Read as _, Write as _};
use std::ops::Range;
use std::os::unix::net::UnixStream;
use std::panic::{catch_unwind, AssertUnwindSafe};

use bionicdb_fpga::dram::WriteJournal;
use bionicdb_fpga::obs::LatencyHistogram;
use bionicdb_fpga::stats::StageStats;
use bionicdb_fpga::wire::{decode, encode, Reader, Wire};
use bionicdb_fpga::{DramStats, PortStats, TxnEvent};
use bionicdb_noc::{EpochLink, EpochMerger, StagedBatch};
use bionicdb_softcore::core::SoftcoreObs;
use bionicdb_softcore::SoftcoreStats;

use super::par::{
    finish_lane, merge_traces, run_round, EpochCoordinator, Lane, LaneOut, RoundEntry, Step,
};
use super::Machine;
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
// channel: length-prefixed frames over rings or a socket pair

/// One end of a coordinator<->chip channel. Frames are `u32` (LE) length
/// prefixed [`Wire`] messages.
enum Chan {
    /// Two SPSC rings (one per direction) in pre-fork shared mappings.
    Shm { tx: shm::Ring, rx: shm::Ring },
    /// A `socketpair(2)` stream — the fallback transport, selected with
    /// `BIONICDB_FLEET_TRANSPORT=socket`.
    Socket(UnixStream),
}

impl Chan {
    /// Build a connected (coordinator, chip) pair. Must be called before
    /// `fork` so both processes share the underlying transport.
    fn pair() -> (Chan, Chan) {
        match std::env::var("BIONICDB_FLEET_TRANSPORT").as_deref() {
            Ok("socket") => {
                let (a, b) = UnixStream::pair().expect("socketpair for fleet transport");
                (Chan::Socket(a), Chan::Socket(b))
            }
            Ok("shm") | Err(_) => {
                let ab = shm::Ring::alloc();
                let ba = shm::Ring::alloc();
                (Chan::Shm { tx: ab, rx: ba }, Chan::Shm { tx: ba, rx: ab })
            }
            Ok(other) => panic!("unknown BIONICDB_FLEET_TRANSPORT {other:?} (shm|socket)"),
        }
    }

    /// Send one frame, blocking until fully written.
    fn send(&mut self, msg: &[u8]) {
        let len = u32::try_from(msg.len()).expect("fleet message fits in u32");
        match self {
            Chan::Shm { tx, .. } => {
                tx.push(&len.to_le_bytes());
                tx.push(msg);
            }
            Chan::Socket(s) => {
                s.write_all(&len.to_le_bytes()).expect("fleet socket send");
                s.write_all(msg).expect("fleet socket send");
            }
        }
    }

    /// Receive one frame, blocking until fully read.
    fn recv(&mut self) -> Vec<u8> {
        let mut hdr = [0u8; 4];
        match self {
            Chan::Shm { rx, .. } => {
                rx.pop_into(&mut hdr);
                let mut buf = vec![0u8; u32::from_le_bytes(hdr) as usize];
                rx.pop_into(&mut buf);
                buf
            }
            Chan::Socket(s) => {
                s.read_exact(&mut hdr).expect("fleet socket recv");
                let mut buf = vec![0u8; u32::from_le_bytes(hdr) as usize];
                s.read_exact(&mut buf).expect("fleet socket recv");
                buf
            }
        }
    }

    /// Best-effort send for shutdown paths: never blocks indefinitely,
    /// never panics. Returns false when the frame could not be delivered.
    fn send_best_effort(&mut self, msg: &[u8]) -> bool {
        let len = (msg.len() as u32).to_le_bytes();
        match self {
            Chan::Shm { tx, .. } => {
                let mut frame = Vec::with_capacity(4 + msg.len());
                frame.extend_from_slice(&len);
                frame.extend_from_slice(msg);
                tx.try_push(&frame, 10_000)
            }
            Chan::Socket(s) => s.write_all(&len).is_ok() && s.write_all(msg).is_ok(),
        }
    }
}

// ---------------------------------------------------------------------------
// protocol messages

/// One lane's snapshot in a `SyncAck`: everything `lane_next` needs,
/// evaluated chip-side at the sync cycle.
struct LaneSync {
    worker_next: Option<u64>,
    bank_next: Option<u64>,
    buffered: bool,
    quiescent: bool,
}

/// One lane's activity counters for a finished phase (the fleet-side
/// [`super::LaneActivity`] increment; barrier idle time is not measured
/// across processes and stays 0).
struct LaneWork {
    ticks: u64,
    skips: u64,
    rounds: u64,
    epoch_len: LatencyHistogram,
}

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
    /// Start-of-run handshake: the run's start cycle, every host write
    /// since the last exchange, queued client submits for this chip's
    /// workers (`(worker, block_addr, submitted_at)`), and the
    /// coordinator-side table brks per owned worker.
    Sync {
        now: u64,
        journal: WriteJournal,
        submits: Vec<(usize, u64, u64)>,
        brks: Vec<Vec<u64>>,
    },
    /// Open an epoch phase: the chip's lane slice of the detached links.
    Phase {
        now0: u64,
        tracing: bool,
        links: Vec<EpochLink>,
    },
    /// Run scheduled lanes: `(global lane, horizon, routed deliveries)`,
    /// plus writes relayed from the other processes since the last message.
    Round {
        entries: Vec<RoundEntry>,
        journal: WriteJournal,
    },
    /// Close the phase: top every lane up to `to`.
    Finish { to: u64, expect_idle: bool },
    /// Terminate the chip process.
    Shutdown,
}

/// Chip -> coordinator.
enum ToCoord {
    SyncAck {
        lanes: Vec<LaneSync>,
    },
    /// One round's results: per scheduled lane the barrier scalars, plus
    /// the chip's merged traffic, trace slice, and bank write journal.
    RoundOut {
        outs: Vec<(usize, LaneOut)>,
        batch: StagedBatch,
        trace: Vec<(u64, u32, TxnEvent)>,
        journal: WriteJournal,
    },
    PhaseEnd {
        links: Vec<EpochLink>,
        slices: Vec<WorkerSlice>,
        activity: Vec<LaneWork>,
        ticks: u64,
    },
}

impl Wire for LaneSync {
    fn put(&self, out: &mut Vec<u8>) {
        self.worker_next.put(out);
        self.bank_next.put(out);
        self.buffered.put(out);
        self.quiescent.put(out);
    }
    fn get(r: &mut Reader<'_>) -> Self {
        LaneSync {
            worker_next: r.get(),
            bank_next: r.get(),
            buffered: r.get(),
            quiescent: r.get(),
        }
    }
}

impl Wire for LaneWork {
    fn put(&self, out: &mut Vec<u8>) {
        self.ticks.put(out);
        self.skips.put(out);
        self.rounds.put(out);
        self.epoch_len.put(out);
    }
    fn get(r: &mut Reader<'_>) -> Self {
        LaneWork {
            ticks: r.get(),
            skips: r.get(),
            rounds: r.get(),
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
            ToChip::Sync {
                now,
                journal,
                submits,
                brks,
            } => {
                0u8.put(out);
                now.put(out);
                journal.put(out);
                submits.put(out);
                brks.put(out);
            }
            ToChip::Phase {
                now0,
                tracing,
                links,
            } => {
                1u8.put(out);
                now0.put(out);
                tracing.put(out);
                links.put(out);
            }
            ToChip::Round { entries, journal } => {
                2u8.put(out);
                entries.put(out);
                journal.put(out);
            }
            ToChip::Finish { to, expect_idle } => {
                3u8.put(out);
                to.put(out);
                expect_idle.put(out);
            }
            ToChip::Shutdown => 4u8.put(out),
        }
    }
    fn get(r: &mut Reader<'_>) -> Self {
        match u8::get(r) {
            0 => ToChip::Sync {
                now: r.get(),
                journal: r.get(),
                submits: r.get(),
                brks: r.get(),
            },
            1 => ToChip::Phase {
                now0: r.get(),
                tracing: r.get(),
                links: r.get(),
            },
            2 => ToChip::Round {
                entries: r.get(),
                journal: r.get(),
            },
            3 => ToChip::Finish {
                to: r.get(),
                expect_idle: r.get(),
            },
            4 => ToChip::Shutdown,
            t => panic!("bad ToChip tag {t}"),
        }
    }
}

impl Wire for ToCoord {
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            ToCoord::SyncAck { lanes } => {
                0u8.put(out);
                lanes.put(out);
            }
            ToCoord::RoundOut {
                outs,
                batch,
                trace,
                journal,
            } => {
                1u8.put(out);
                outs.put(out);
                batch.put(out);
                trace.put(out);
                journal.put(out);
            }
            ToCoord::PhaseEnd {
                links,
                slices,
                activity,
                ticks,
            } => {
                2u8.put(out);
                links.put(out);
                slices.put(out);
                activity.put(out);
                ticks.put(out);
            }
        }
    }
    fn get(r: &mut Reader<'_>) -> Self {
        match u8::get(r) {
            0 => ToCoord::SyncAck { lanes: r.get() },
            1 => ToCoord::RoundOut {
                outs: r.get(),
                batch: r.get(),
                trace: r.get(),
                journal: r.get(),
            },
            2 => ToCoord::PhaseEnd {
                links: r.get(),
                slices: r.get(),
                activity: r.get(),
                ticks: r.get(),
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
    /// submitted_at)` — relayed with the next `Sync`.
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

impl Machine {
    /// Fork the chip processes. Called lazily by the first fleet run, so
    /// everything built before it — loaded tables, populated blocks, fault
    /// plans, trace flags — is inherited copy-on-write and needs no
    /// transfer.
    fn fleet_spawn(&mut self) {
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

    /// The chip process's service loop: answer `Sync`, execute phases,
    /// return on `Shutdown`.
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
                ToChip::Sync {
                    now,
                    journal,
                    submits,
                    brks,
                } => {
                    self.dram.apply_write_journal(&journal);
                    self.now = now;
                    for (k, w) in range.clone().enumerate() {
                        for (t, &brk) in brks[k].iter().enumerate() {
                            self.partitions[w].tables[t].heap.set_brk(brk);
                        }
                    }
                    for (w, addr, at) in submits {
                        debug_assert!(range.contains(&w), "submit routed to wrong chip");
                        self.workers[w].softcore.submit_at(addr, at);
                    }
                    let lanes: Vec<LaneSync> = range
                        .clone()
                        .map(|w| LaneSync {
                            worker_next: self.workers[w].next_event(now),
                            bank_next: self.banks[w].next_event(),
                            buffered: self.banks[w].has_buffered_responses(),
                            quiescent: self.workers[w].is_quiescent(),
                        })
                        .collect();
                    chan.send(&encode(&ToCoord::SyncAck { lanes }));
                }
                ToChip::Phase {
                    now0,
                    tracing,
                    links,
                } => self.fleet_chip_phase(&range, now0, tracing, links, chan),
                ToChip::Shutdown => return,
                ToChip::Round { .. } | ToChip::Finish { .. } => {
                    panic!("fleet chip: phase message outside a phase")
                }
            }
        }
    }

    /// Execute one epoch phase chip-side: build the owned lanes, run every
    /// `Round` the coordinator schedules (lanes in ascending order — the
    /// serial merge order), and close with `PhaseEnd`.
    fn fleet_chip_phase(
        &mut self,
        range: &Range<usize>,
        now0: u64,
        tracing: bool,
        links: Vec<EpochLink>,
        chan: &mut Chan,
    ) {
        let base = range.start;
        let (links, activity, total_ticks) = {
            let Machine {
                workers,
                banks,
                partitions,
                dram,
                cat,
                ..
            } = self;
            let mut links = links;
            let mut lanes: Vec<Lane<'_>> = workers[range.clone()]
                .iter_mut()
                .zip(banks[range.clone()].iter_mut())
                .zip(partitions[range.clone()].iter_mut())
                .enumerate()
                .map(|(k, ((worker, bank), part))| Lane {
                    idx: base + k,
                    worker,
                    bank,
                    tables: &mut part.tables,
                    pos: now0,
                    ticks: 0,
                    skips: 0,
                    rounds: 0,
                    epoch_len: LatencyHistogram::new(),
                    trace: Vec::new(),
                })
                .collect();
            assert_eq!(lanes.len(), links.len(), "phase link slice mismatch");
            loop {
                match decode::<ToChip>(&chan.recv()) {
                    ToChip::Round { entries, journal } => {
                        dram.apply_write_journal(&journal);
                        let mut outs = Vec::with_capacity(entries.len());
                        let mut batch = StagedBatch::empty();
                        let mut trace: Vec<(u64, u32, TxnEvent)> = Vec::new();
                        let mut journal_out = WriteJournal::new();
                        for (g, horizon, pending) in entries {
                            let k = g - base;
                            let lane = &mut lanes[k];
                            let link = &mut links[k];
                            link.begin_round(pending);
                            lane.rounds += 1;
                            lane.epoch_len.record(horizon - lane.pos);
                            let hint = run_round(lane, link, horizon, cat, tracing);
                            let traffic = link.harvest();
                            let drained = traffic.queue_drained();
                            let lane_id = lane.idx as u32;
                            let lane_trace: Vec<(u64, u32, TxnEvent)> = lane
                                .trace
                                .drain(..)
                                .map(|(c, ev)| (c, lane_id, ev))
                                .collect();
                            trace = merge_traces(trace, lane_trace);
                            batch = StagedBatch::merge(batch, StagedBatch::from_traffic(traffic));
                            journal_out.extend(lane.bank.take_write_journal());
                            outs.push((
                                g,
                                LaneOut {
                                    hint,
                                    pos: lane.pos,
                                    quiescent: lane.worker.is_quiescent(),
                                    drained,
                                },
                            ));
                        }
                        chan.send(&encode(&ToCoord::RoundOut {
                            outs,
                            batch,
                            trace,
                            journal: journal_out,
                        }));
                    }
                    ToChip::Finish { to, expect_idle } => {
                        for (lane, link) in lanes.iter_mut().zip(&links) {
                            finish_lane(lane, link, to, expect_idle);
                        }
                        let activity: Vec<LaneWork> = lanes
                            .iter()
                            .map(|l| LaneWork {
                                ticks: l.ticks,
                                skips: l.skips,
                                rounds: l.rounds,
                                epoch_len: l.epoch_len,
                            })
                            .collect();
                        let total = lanes.iter().map(|l| l.ticks).sum::<u64>();
                        break (links, activity, total);
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
            ticks: total_ticks,
        }));
    }

    /// The coordinator side of one fleet run: sync the chips, drive one
    /// epoch phase with the shared [`EpochCoordinator`], absorb the
    /// results, and apply the serial loop's uniform exit conditions
    /// (quiescence, crash, limit). Bit-identical to
    /// [`Machine::run_to_quiescence_limit`] on the in-process engines.
    pub(crate) fn run_fleet_to_quiescence(&mut self, limit: u64) -> u64 {
        if self.fleet.is_none() {
            self.fleet_spawn();
        }
        let start = self.now;
        let n = self.workers.len();
        // Take the fleet out of `self` for the duration: the run needs the
        // machine's components and the fleet's channels simultaneously.
        // (On a coordinator panic the local is dropped, which shuts the
        // chips down.)
        let mut fleet = self.fleet.take().expect("fleet spawned");
        let nchips = fleet.chips.len();

        // ---- Sync: ship host writes, loader brks, and queued submits ----
        let host_journal = self.dram.take_write_journal();
        let submits = std::mem::take(&mut fleet.pending_submits);
        for c in 0..nchips {
            let mut journal = std::mem::take(&mut fleet.outbox[c]);
            journal.extend(host_journal.iter().cloned());
            let subs: Vec<(usize, u64, u64)> = submits
                .iter()
                .copied()
                .filter(|&(w, _, _)| fleet.ranges[c].contains(&w))
                .collect();
            let brks: Vec<Vec<u64>> = fleet.ranges[c]
                .clone()
                .map(|w| {
                    self.partitions[w]
                        .tables
                        .iter()
                        .map(|t| t.heap.brk())
                        .collect()
                })
                .collect();
            fleet.chips[c].chan.send(&encode(&ToChip::Sync {
                now: start,
                journal,
                submits: subs,
                brks,
            }));
        }
        let mut acks: Vec<LaneSync> = Vec::with_capacity(n);
        for c in 0..nchips {
            match decode::<ToCoord>(&fleet.chips[c].chan.recv()) {
                ToCoord::SyncAck { lanes } => acks.extend(lanes),
                _ => panic!("fleet: expected SyncAck"),
            }
        }
        assert_eq!(acks.len(), n, "every lane reports at sync");
        if self.noc.is_idle() && acks.iter().all(|a| a.quiescent) {
            // Nothing to do; the slices from the last phase are current.
            self.fleet = Some(fleet);
            return 0;
        }
        assert!(limit > 0, "machine did not quiesce within 0 cycles");

        // ---- phase setup (mirrors `run_epochs`) ----
        let raw_cap = start.saturating_add(limit) - 1;
        let mut cap = raw_cap;
        if let Some(c) = self.fault_plan.crash_at {
            assert!(c > start, "fleet engine needs the crash cycle ahead of the run");
            // Unlike the in-process engine (which leaves the crash cycle to
            // the serial loop), the fleet phase runs *through* cycle `c`
            // and latches the crash itself.
            cap = cap.min(c);
        }
        let tracing = self.trace_sink.enabled();
        let mut merger = EpochMerger::new(&self.noc);
        let links: Vec<EpochLink> = self.noc.begin_epoch();
        let init: Vec<(Option<u64>, bool, bool)> = (0..n)
            .map(|i| {
                // `lane_next`, evaluated from the SyncAck snapshot.
                let a = &acks[i];
                let link_next = links[i].next_ready(start);
                let hint = if link_next.is_none() && a.quiescent {
                    None
                } else if a.buffered {
                    Some(start + 1)
                } else {
                    let mut best = a.worker_next;
                    if let Some(t) = a.bank_next {
                        let t = t.max(start + 1);
                        best = Some(best.map_or(t, |b| b.min(t)));
                    }
                    if let Some(t) = link_next {
                        best = Some(best.map_or(t, |b| b.min(t)));
                    }
                    best
                };
                (hint, link_next.is_none(), a.quiescent)
            })
            .collect();
        let mut iter = links.into_iter();
        for c in 0..nchips {
            let chunk: Vec<EpochLink> = iter.by_ref().take(fleet.ranges[c].len()).collect();
            fleet.chips[c].chan.send(&encode(&ToChip::Phase {
                now0: start,
                tracing,
                links: chunk,
            }));
        }
        let mut coord = EpochCoordinator::new(cap, start, init);
        let mut trace_buf: Vec<(u64, u32, TxnEvent)> = Vec::new();
        let mut rounds_done = 0u64;
        // Whether the serial mop-up's one post-cap fast-forward step has
        // been spent (see the exit arm below).
        let mut extended = false;

        // ---- the epoch loop ----
        let (to, expect_idle) = loop {
            match coord.next_step(&mut merger, &mut self.noc) {
                Step::Round { lanes, gvt } => {
                    if tracing {
                        let cut = trace_buf.partition_point(|&(c, _, _)| c < gvt);
                        for (_, _, ev) in trace_buf.drain(..cut) {
                            self.trace_sink.txn(&ev);
                        }
                    }
                    let mut per_chip: Vec<Vec<RoundEntry>> =
                        (0..nchips).map(|_| Vec::new()).collect();
                    for entry in lanes {
                        per_chip[fleet.chip_of(entry.0)].push(entry);
                    }
                    let active: Vec<usize> =
                        (0..nchips).filter(|&c| !per_chip[c].is_empty()).collect();
                    for &c in &active {
                        let journal = std::mem::take(&mut fleet.outbox[c]);
                        fleet.chips[c].chan.send(&encode(&ToChip::Round {
                            entries: std::mem::take(&mut per_chip[c]),
                            journal,
                        }));
                    }
                    let mut batch = StagedBatch::empty();
                    let mut round_trace: Vec<(u64, u32, TxnEvent)> = Vec::new();
                    for &c in &active {
                        match decode::<ToCoord>(&fleet.chips[c].chan.recv()) {
                            ToCoord::RoundOut {
                                outs,
                                batch: b,
                                trace,
                                journal,
                            } => {
                                self.dram.apply_write_journal(&journal);
                                for (other, outbox) in fleet.outbox.iter_mut().enumerate() {
                                    if other != c {
                                        outbox.extend(journal.iter().cloned());
                                    }
                                }
                                for (i, out) in outs {
                                    coord.note_out(i, &out);
                                }
                                batch = StagedBatch::merge(batch, b);
                                round_trace = merge_traces(round_trace, trace);
                            }
                            _ => panic!("fleet: expected RoundOut"),
                        }
                    }
                    merger.absorb(&mut self.noc, batch);
                    trace_buf = merge_traces(std::mem::take(&mut trace_buf), round_trace);
                    rounds_done += 1;
                }
                Step::Finish {
                    to, expect_idle, gvt,
                } => {
                    let Some(g) = gvt else {
                        // The machine ran dry below the cap: the normal
                        // quiescent (or wedged) exit.
                        break (to, expect_idle);
                    };
                    // The cap ended the phase. Mirror the serial loop's
                    // mop-up exactly: it would fast-forward once to the
                    // next event `g` (clamped to the crash cycle), tick it,
                    // and then either exit on quiescence/crash or panic on
                    // the limit assert.
                    if let Some(c) = self.fault_plan.crash_at {
                        if coord.cap == c || (!extended && g > c) {
                            // The phase ran through the crash cycle (or no
                            // event precedes it): finish every lane *at* the
                            // crash cycle and latch the crash below.
                            break (c, false);
                        }
                    }
                    if extended {
                        panic!("machine did not quiesce within {limit} cycles (fleet engine)");
                    }
                    extended = true;
                    coord.cap = self.fault_plan.crash_at.map_or(g, |c| g.min(c));
                    // The capped exit recorded `g` as the last GVT; the
                    // mop-up round will re-derive it, which must not trip
                    // the strict-increase audit.
                    coord.prev_gvt = None;
                }
            }
        };

        // ---- finish: drain traces, close the phase, absorb results ----
        if tracing {
            for (_, _, ev) in trace_buf.drain(..) {
                self.trace_sink.txn(&ev);
            }
        }
        for c in 0..nchips {
            fleet.chips[c]
                .chan
                .send(&encode(&ToChip::Finish { to, expect_idle }));
        }
        let mut all_links: Vec<EpochLink> = Vec::with_capacity(n);
        let mut total_ticks = 0u64;
        for c in 0..nchips {
            match decode::<ToCoord>(&fleet.chips[c].chan.recv()) {
                ToCoord::PhaseEnd {
                    links,
                    slices,
                    activity,
                    ticks,
                } => {
                    let range = fleet.ranges[c].clone();
                    assert_eq!(slices.len(), range.len(), "phase-end slice count");
                    for (k, slice) in slices.into_iter().enumerate() {
                        let w = range.start + k;
                        let a = &activity[k];
                        let la = &mut self.lane_activity[w];
                        la.ticks += a.ticks;
                        la.skips += a.skips;
                        la.rounds += a.rounds;
                        la.epoch_len.merge(&a.epoch_len);
                        for (t, &brk) in slice.table_brks.iter().enumerate() {
                            self.partitions[w].tables[t].heap.set_brk(brk);
                        }
                        fleet.slices[w] = slice;
                    }
                    all_links.extend(links);
                    total_ticks += ticks;
                }
                _ => panic!("fleet: expected PhaseEnd"),
            }
        }
        self.noc.absorb_epoch(all_links, coord.take_slots());
        self.now = to;
        self.ticks_executed += total_ticks;
        self.epoch_rounds += rounds_done;
        self.fleet = Some(fleet);
        // The crash latches whenever the run advanced onto the crash cycle
        // — whether the cap forced it there or the machine's own last event
        // landed on it (serial ticks `c` in both cases).
        if self.fault_plan.crash_at == Some(to) {
            self.crashed = true;
            if let Some(mut hook) = self.crash_hook.take() {
                self.crash_image = Some(hook(self));
            }
        } else if !self.crashed {
            assert!(
                expect_idle,
                "fleet run ran dry without quiescing (wedged worker)"
            );
        }
        self.now - start
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
        // Cross-wire manually (Chan::pair consults the env; build explicit).
        let (a, b) = (shm::Ring::alloc(), shm::Ring::alloc());
        let mut coord_end = Chan::Shm { tx: a, rx: b };
        let mut chip_end = Chan::Shm { tx: b, rx: a };

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
    fn socket_chan_roundtrips_frames() {
        let (sa, sb) = UnixStream::pair().unwrap();
        let mut a = Chan::Socket(sa);
        let mut b = Chan::Socket(sb);
        let msg: Vec<u8> = (0..100_000).map(|i| (i % 256) as u8).collect();
        let expect = msg.clone();
        let t = std::thread::spawn(move || {
            let got = b.recv();
            b.send(&got);
            got
        });
        a.send(&msg);
        assert_eq!(a.recv(), expect);
        assert_eq!(t.join().unwrap(), expect);
    }

    #[test]
    fn protocol_messages_round_trip() {
        let sync = ToChip::Sync {
            now: 42,
            journal: vec![(0x1000, vec![1, 2, 3]), (0x2000, vec![9])],
            submits: vec![(1, 0xdead, 40), (2, 0xbeef, 41)],
            brks: vec![vec![10, 20], vec![30]],
        };
        match decode::<ToChip>(&encode(&sync)) {
            ToChip::Sync {
                now,
                journal,
                submits,
                brks,
            } => {
                assert_eq!(now, 42);
                assert_eq!(journal, vec![(0x1000, vec![1, 2, 3]), (0x2000, vec![9])]);
                assert_eq!(submits, vec![(1, 0xdead, 40), (2, 0xbeef, 41)]);
                assert_eq!(brks, vec![vec![10, 20], vec![30]]);
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
            batch: StagedBatch::empty(),
            trace: Vec::new(),
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
