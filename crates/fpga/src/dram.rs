//! The simulated FPGA-side DRAM.
//!
//! Models the Convey HC-2's on-board DDR2 memory subsystem (paper §4.1):
//! a byte-addressable memory behind a set of memory controllers, each with a
//! bounded request queue. Components (softcore, index-pipeline stages,
//! scanners) own [`PortId`]s; they issue [`MemRequest`]s and later drain
//! [`MemResponse`]s from their port.
//!
//! # Functional vs. timing model
//!
//! The *functional* state (the bytes) is updated at issue time; the *timing*
//! is modelled by delaying the response by the configured DRAM latency.
//! Because the whole machine ticks components in a fixed order, simulations
//! are deterministic. Pipeline hazards (e.g. the insert-after-insert hazard
//! of paper Fig. 6) are still faithfully expressible: a stage that reads a
//! hash-bucket head while another stage's install is in flight observes the
//! stale value, exactly as on the real fabric — the BRAM lock tables exist
//! to prevent that, and the tests in `bionicdb-coproc` demonstrate the
//! anomaly when the lock table is disabled.
//!
//! # Host access
//!
//! [`Dram::host_read`] / [`Dram::host_write`] bypass the timing model. They
//! model the host CPU populating transaction blocks and the database image
//! over PCIe before the run starts (§5.1 of the paper does exactly this).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use crate::fault::DramFaults;
use crate::timing::{Cycle, FpgaConfig};

/// Bytes in one lazily allocated memory frame. Hash-index bucket arrays
/// are written one 8-byte head at a scattered address at a time, so the
/// host memory behind a sparse image is about one frame per written word;
/// 512 bytes keeps that close to the bytes written (see DESIGN.md, "DRAM
/// banks").
const FRAME_SIZE: usize = 1 << 9;

/// Little-endian 8-byte words in one frame.
const FRAME_WORDS: usize = FRAME_SIZE / 8;

/// Frame slots in one lazily allocated directory segment (256 KiB of
/// address space, 8 KiB of slots).
const SEGMENT_FRAMES: usize = 1 << 9;

/// One frame: byte `8 * w + i` of the frame is byte `i` of the
/// little-endian encoding of word `w`. A boxed array is a thin pointer, so
/// a slot costs a [`OnceLock`] plus 8 bytes.
type Frame = Box<[AtomicU64; FRAME_WORDS]>;

/// One directory segment: [`SEGMENT_FRAMES`] lazily allocated frame slots.
type Segment = Box<[OnceLock<Frame>; SEGMENT_FRAMES]>;

/// The functional byte image, shared between a [`Dram`] and every bank
/// created from it with [`Dram::bank`]. Frames are words of [`AtomicU64`],
/// so banks on different threads can touch memory without `unsafe`. They
/// sit behind a two-level directory, segments of frame slots, and both
/// levels are allocated (zeroed) on first write; [`OnceLock`] makes each
/// allocation race-free.
///
/// All accesses use [`Ordering::Relaxed`]: the epoch-parallel scheduler
/// guarantees that any two accesses to the *same* byte from different
/// workers are separated by an epoch barrier (a message must cross the NoC
/// first, and the barrier's lock provides the happens-before edge), so the
/// atomics only have to make the sharing defined, not ordered. Different
/// workers may write different bytes of one word concurrently, which is why
/// a write that covers only part of a word is a masked `fetch_update` of
/// just its own bytes rather than a load and a store of the whole word.
struct PageStore {
    segments: Box<[OnceLock<Segment>]>,
    nframes: usize,
}

impl PageStore {
    fn new(nframes: usize) -> Self {
        PageStore {
            segments: (0..nframes.div_ceil(SEGMENT_FRAMES))
                .map(|_| OnceLock::new())
                .collect(),
            nframes,
        }
    }

    fn capacity(&self) -> u64 {
        (self.nframes * FRAME_SIZE) as u64
    }

    fn check(&self, idx: usize) {
        assert!(
            idx < self.nframes,
            "DRAM address out of range (frame {idx})"
        );
    }

    /// The slot of frame `idx`, allocating its segment on first use.
    fn slot(&self, idx: usize) -> &OnceLock<Frame> {
        self.check(idx);
        let segment = self.segments[idx / SEGMENT_FRAMES]
            .get_or_init(|| Box::new([const { OnceLock::new() }; SEGMENT_FRAMES]));
        &segment[idx % SEGMENT_FRAMES]
    }

    /// The frame backing `idx`, allocated (zeroed) on first use along with
    /// its segment.
    fn frame(&self, idx: usize) -> &[AtomicU64] {
        &self
            .slot(idx)
            .get_or_init(|| Box::new([const { AtomicU64::new(0) }; FRAME_WORDS]))[..]
    }

    /// Store the [`FRAME_SIZE`] bytes of frame `idx`. A frame not yet
    /// allocated is built from them directly instead of being zeroed and
    /// then overwritten; a frame that exists, possibly allocated by
    /// another bank a moment before, is stored over.
    fn fill_frame(&self, idx: usize, data: &[u8]) {
        debug_assert_eq!(data.len(), FRAME_SIZE);
        let mut built = false;
        let frame = self.slot(idx).get_or_init(|| {
            built = true;
            // Collected straight into the heap; `array::from_fn` would build
            // the frame on the stack and copy it.
            data.chunks_exact(8)
                .map(|c| AtomicU64::new(u64::from_le_bytes(c.try_into().expect("8 bytes"))))
                .collect::<Box<[AtomicU64]>>()
                .try_into()
                .expect("one frame of words")
        });
        if !built {
            write_words(&frame[..], 0, data);
        }
    }

    /// The frame backing `idx` if it has been written, allocating nothing.
    fn get(&self, idx: usize) -> Option<&[AtomicU64]> {
        self.check(idx);
        let segment = self.segments[idx / SEGMENT_FRAMES].get()?;
        segment[idx % SEGMENT_FRAMES].get().map(|f| &f[..])
    }

    /// Every allocated frame with its index, in address order.
    fn allocated(&self) -> impl Iterator<Item = (usize, &[AtomicU64])> {
        self.segments
            .iter()
            .enumerate()
            .filter_map(|(s, seg)| seg.get().map(|seg| (s, seg)))
            .flat_map(|(s, seg)| {
                seg.iter()
                    .enumerate()
                    .filter_map(move |(i, f)| f.get().map(|f| (s * SEGMENT_FRAMES + i, &f[..])))
            })
    }

    /// Copy out every allocated frame; see [`Dram::export_frames`].
    fn export(&self) -> DramFrames {
        let count = self.allocated().count();
        let mut frames = DramFrames {
            nframes: self.nframes,
            indices: Vec::with_capacity(count),
            words: Vec::with_capacity(count * FRAME_WORDS),
        };
        for (idx, frame) in self.allocated() {
            frames.indices.push(idx);
            frames
                .words
                .extend(frame.iter().map(|w| w.load(Ordering::Relaxed)));
        }
        frames
    }

    /// Allocate every frame of `frames` with its words; see
    /// [`Dram::install_frames`].
    fn install(&self, frames: &DramFrames) {
        for (&idx, words) in frames
            .indices
            .iter()
            .zip(frames.words.chunks_exact(FRAME_WORDS))
        {
            let frame: Frame = words
                .iter()
                .map(|&w| AtomicU64::new(w))
                .collect::<Box<[AtomicU64]>>()
                .try_into()
                .expect("one frame of words");
            assert!(
                self.slot(idx).set(frame).is_ok(),
                "frame {idx} is already allocated"
            );
        }
    }

    fn write(&self, addr: u64, data: &[u8]) {
        let mut addr = addr as usize;
        let mut data = data;
        while !data.is_empty() {
            let off = addr % FRAME_SIZE;
            let n = (FRAME_SIZE - off).min(data.len());
            if n == FRAME_SIZE {
                self.fill_frame(addr / FRAME_SIZE, &data[..n]);
            } else {
                let frame = self.frame(addr / FRAME_SIZE);
                write_words(&frame[off / 8..], off % 8, &data[..n]);
            }
            addr += n;
            data = &data[n..];
        }
    }

    /// Read without allocating: unwritten frames yield zeros and stay
    /// unallocated, so reads never perturb the [`PageStore::digest`].
    fn read_into(&self, addr: u64, out: &mut [u8]) {
        let len = out.len();
        let mut addr = addr as usize;
        let mut filled = 0;
        while filled < len {
            let off = addr % FRAME_SIZE;
            let n = (FRAME_SIZE - off).min(len - filled);
            let dst = &mut out[filled..filled + n];
            match self.get(addr / FRAME_SIZE) {
                Some(frame) => read_words(&frame[off / 8..], off % 8, dst),
                None => dst.fill(0),
            }
            addr += n;
            filled += n;
        }
    }

    /// FNV-1a over allocated frames; see [`Dram::image_digest`].
    fn digest(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        let mut eat = |bytes: [u8; 8]| {
            for b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(PRIME);
            }
        };
        for (idx, frame) in self.allocated() {
            eat((idx as u64).to_le_bytes());
            for w in frame {
                eat(w.load(Ordering::Relaxed).to_le_bytes());
            }
        }
        h
    }
}

/// A copy of the allocated frames of one [`Dram`] image, made by
/// [`Dram::export_frames`] and written into another by
/// [`Dram::install_frames`]. Holds the 512 bytes of every allocated
/// frame plus its index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DramFrames {
    /// Frames in the exported image's address space (its capacity).
    nframes: usize,
    /// Index of every allocated frame, ascending.
    indices: Vec<usize>,
    /// The words of each frame in `indices`, frame after frame.
    words: Vec<u64>,
}

impl DramFrames {
    /// Number of frames held.
    pub fn count(&self) -> usize {
        self.indices.len()
    }

    /// Capacity in bytes of the image the frames were exported from.
    pub fn capacity(&self) -> u64 {
        (self.nframes * FRAME_SIZE) as u64
    }
}

/// Store `data` starting `skip` bytes into `words[0]`. Whole words are
/// plain stores; a partial head or tail word changes only its own bytes.
fn write_words(words: &[AtomicU64], skip: usize, data: &[u8]) {
    let mut words = words.iter();
    let mut data = data;
    if skip != 0 {
        let n = (8 - skip).min(data.len());
        store_bytes(words.next().expect("in frame"), skip, &data[..n]);
        data = &data[n..];
    }
    let mut chunks = data.chunks_exact(8);
    for (c, w) in (&mut chunks).zip(words.by_ref()) {
        w.store(
            u64::from_le_bytes(c.try_into().expect("8 bytes")),
            Ordering::Relaxed,
        );
    }
    let tail = chunks.remainder();
    if !tail.is_empty() {
        store_bytes(words.next().expect("in frame"), 0, tail);
    }
}

/// Replace bytes `at..at + bytes.len()` of `word` (fewer than 8), leaving
/// the rest of the word to whoever else may be writing it.
fn store_bytes(word: &AtomicU64, at: usize, bytes: &[u8]) {
    let mut buf = [0u8; 8];
    buf[at..at + bytes.len()].copy_from_slice(bytes);
    let value = u64::from_le_bytes(buf);
    let mask = ((1u64 << (8 * bytes.len())) - 1) << (8 * at);
    let _ = word.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |old| {
        Some(old & !mask | value)
    });
}

/// Copy `out.len()` bytes starting `skip` bytes into `words[0]`.
fn read_words(words: &[AtomicU64], skip: usize, out: &mut [u8]) {
    let mut words = words
        .iter()
        .map(|w| w.load(Ordering::Relaxed).to_le_bytes());
    let mut out = out;
    if skip != 0 {
        let n = (8 - skip).min(out.len());
        let w = words.next().expect("in frame");
        out[..n].copy_from_slice(&w[skip..skip + n]);
        out = &mut out[n..];
    }
    let mut chunks = out.chunks_exact_mut(8);
    for (c, w) in (&mut chunks).zip(words.by_ref()) {
        c.copy_from_slice(&w);
    }
    let tail = chunks.into_remainder();
    if !tail.is_empty() {
        let w = words.next().expect("in frame");
        tail.copy_from_slice(&w[..tail.len()]);
    }
}

impl std::fmt::Debug for PageStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PageStore")
            .field("frames", &self.nframes)
            .field("allocated", &self.allocated().count())
            .finish()
    }
}

/// Identifies a requester port on the memory interconnect.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PortId(pub(crate) u32);

/// An opaque routing tag chosen by the issuer; returned verbatim in the
/// response so the issuer can route it to the right pipeline stage / slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Tag(pub u64);

/// Largest read that fits in a [`MemData`] without a heap allocation. Sized
/// for the hot paths: 8-byte pointer/word reads, record headers, and the
/// 80-byte skiplist tower-header bursts all fit; only payload bursts
/// (up to the configured payload length, e.g. 1 KiB) spill to the heap.
pub const INLINE_DATA: usize = 128;

/// Response payload: a fixed inline buffer for line-sized reads, spilling to
/// the heap only for multi-line payload bursts. Keeps the per-response
/// allocation out of the simulator's hottest loop.
#[derive(Clone)]
pub enum MemData {
    /// Up to [`INLINE_DATA`] bytes stored inline.
    Inline {
        /// Valid prefix length of `buf`.
        len: u8,
        /// Inline storage.
        buf: [u8; INLINE_DATA],
    },
    /// A burst larger than [`INLINE_DATA`] bytes.
    Heap(Box<[u8]>),
}

impl MemData {
    /// An empty payload (write acknowledgements).
    pub const fn empty() -> Self {
        MemData::Inline {
            len: 0,
            buf: [0; INLINE_DATA],
        }
    }

    /// Copy `src` into a payload, inline when it fits.
    pub fn from_slice(src: &[u8]) -> Self {
        if src.len() <= INLINE_DATA {
            let mut buf = [0u8; INLINE_DATA];
            buf[..src.len()].copy_from_slice(src);
            MemData::Inline {
                len: src.len() as u8,
                buf,
            }
        } else {
            MemData::Heap(src.into())
        }
    }

    /// The payload bytes.
    pub fn as_slice(&self) -> &[u8] {
        match self {
            MemData::Inline { len, buf } => &buf[..*len as usize],
            MemData::Heap(b) => b,
        }
    }

    /// Copy out into an owned vector.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }
}

impl std::ops::Deref for MemData {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for MemData {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl PartialEq for MemData {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for MemData {}

impl std::fmt::Debug for MemData {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("MemData").field(&self.as_slice()).finish()
    }
}

impl From<&[u8]> for MemData {
    fn from(src: &[u8]) -> Self {
        MemData::from_slice(src)
    }
}

/// The operation carried by a memory request.
#[derive(Debug, Clone, PartialEq)]
pub enum MemKind {
    /// Read `len` bytes.
    Read {
        /// Number of bytes to read.
        len: u32,
    },
    /// Write the given bytes.
    Write {
        /// Bytes to store at the request address.
        data: Vec<u8>,
    },
}

/// A memory request issued by a component.
#[derive(Debug, Clone, PartialEq)]
pub struct MemRequest {
    /// Byte address in FPGA-side DRAM.
    pub addr: u64,
    /// Read or write.
    pub kind: MemKind,
    /// Opaque routing tag, echoed in the response.
    pub tag: Tag,
}

/// A memory response delivered to the issuing port after the DRAM latency.
#[derive(Debug, Clone, PartialEq)]
pub struct MemResponse {
    /// Address of the completed request.
    pub addr: u64,
    /// Data for reads; empty for writes.
    pub data: MemData,
    /// The tag from the matching request.
    pub tag: Tag,
}

/// Error returned when a controller cannot accept a request this cycle.
///
/// The issuer is expected to retry on a later cycle; this is how memory
/// back-pressure propagates into pipeline stalls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemBusy;

#[derive(Debug, Default)]
struct Controller {
    /// Requests in flight: `(ready_cycle, port, response, is_posted_ack)`.
    /// Completion times are monotone per controller (issue order + uniform
    /// latency + serialized bursts), so this stays sorted by construction.
    /// An injected transient fault may push one entry's ready time past its
    /// successors'; delivery then head-of-line blocks on it (the retrying
    /// controller stalls its queue), which `tick`/`next_event` model by
    /// only ever examining the front. Entries flagged as posted-write
    /// acknowledgements are **cancelled** at completion instead of
    /// buffered: every consumer in the machine discards them unread, all
    /// statistics are charged at issue time, and back-pressure
    /// (`busy_until`, queue depth) is checked only at issue — so dropping
    /// the dead response is invisible to machine state while sparing the
    /// fast-forward and epoch schedulers a wake-up per posted write.
    inflight: VecDeque<(Cycle, PortId, MemResponse, bool)>,
    /// The controller's data bus is occupied until this cycle (bursts).
    busy_until: Cycle,
}

/// Aggregate DRAM statistics, used by the benchmark harness.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct DramStats {
    /// Completed read requests.
    pub reads: u64,
    /// Completed write requests.
    pub writes: u64,
    /// Bytes moved (read + written).
    pub bytes: u64,
    /// Requests rejected because a controller was saturated.
    pub rejections: u64,
    /// Injected transient faults (ECC-corrected retries) observed.
    pub transient_faults: u64,
}

/// Number of buckets in the [`PortStats::mlp_hist`] occupancy histogram.
pub const MLP_BUCKETS: usize = 8;

/// Bucket index for an outstanding-read count `n ≥ 1`: 1, 2, 3–4, 5–8,
/// 9–16, 17–32, 33–64, 65+.
pub fn mlp_bucket(n: u64) -> usize {
    match n {
        0 | 1 => 0,
        2 => 1,
        3..=4 => 2,
        5..=8 => 3,
        9..=16 => 4,
        17..=32 => 5,
        33..=64 => 6,
        _ => 7,
    }
}

/// Per-port DRAM accounting: who is generating the memory traffic. All
/// counters are updated at issue time, so they are identical under strict
/// stepping and fast-forward. (The MLP fields sample the port's
/// outstanding-read occupancy at issue time too; the live count they sample
/// decrements at response delivery, which the fast-forward scheduler hits
/// on exactly the same cycles as strict ticking.)
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PortStats {
    /// Accepted read requests issued by this port.
    pub reads: u64,
    /// Accepted write requests issued by this port.
    pub writes: u64,
    /// Bytes moved on behalf of this port (read + written).
    pub bytes: u64,
    /// Controller bus cycles this port's bursts occupied (per-controller
    /// share of each transfer; the paper's bandwidth-occupancy proxy).
    pub occupancy_cycles: Cycle,
    /// Outstanding-read (memory-level-parallelism) occupancy histogram:
    /// each accepted read samples how many of this port's reads are then
    /// in flight (itself included) into [`mlp_bucket`]'s buckets. Only
    /// populated when [`Dram::set_mlp_tracking`] armed the sampler — all
    /// zeros otherwise, and the report layer omits all-zero histograms, so
    /// the default is schema- and byte-inert.
    pub mlp_hist: [u64; MLP_BUCKETS],
    /// Peak simultaneous outstanding reads sampled on this port.
    pub mlp_peak: u64,
}

/// The simulated FPGA-side DRAM: functional byte store plus timing model.
///
/// The byte image lives in a `PageStore` shared by reference: [`Dram::bank`]
/// creates additional views with private controllers/ports over the same
/// bytes, which is how the machine gives every partition worker its own
/// memory channel (the HC-2's DIMM groups are physically partitioned the
/// same way) — and what lets the epoch-parallel scheduler hand each worker's
/// bank to its own thread.
pub struct Dram {
    store: Arc<PageStore>,
    controllers: Vec<Controller>,
    responses: Vec<VecDeque<MemResponse>>,
    port_stats: Vec<PortStats>,
    latency: Cycle,
    max_outstanding: usize,
    stats: DramStats,
    /// Injected fault schedule (empty by default; see [`crate::fault`]).
    faults: DramFaults,
    /// Accepted read requests so far — the ordinal the fault schedule
    /// matches against.
    reads_seen: u64,
    /// Posted-write acknowledgements cancelled at completion instead of
    /// delivered (see [`Controller::inflight`]). Simulator instrumentation,
    /// deliberately **not** part of [`DramStats`]: the machine never
    /// observes these responses, so the report schema stays byte-identical
    /// with and without cancellation.
    cancelled_acks: u64,
    /// When armed, accepted reads sample their port's outstanding-read
    /// occupancy into [`PortStats::mlp_hist`]. Off (the default) leaves
    /// every statistic untouched.
    mlp_tracking: bool,
    /// Live outstanding-read count per port (parallel to `port_stats`).
    /// Kept outside [`PortStats`] so [`Dram::reset_stats`] can clear the
    /// histogram without corrupting in-flight accounting.
    mlp_live: Vec<u64>,
}

impl Dram {
    /// Create a DRAM of `size_bytes` capacity (rounded up to whole frames)
    /// with the timing parameters from `cfg`.
    pub fn new(cfg: &FpgaConfig, size_bytes: u64) -> Self {
        let nframes = (size_bytes as usize).div_ceil(FRAME_SIZE);
        Dram {
            store: Arc::new(PageStore::new(nframes)),
            controllers: (0..cfg.dram_controllers)
                .map(|_| Controller::default())
                .collect(),
            responses: Vec::new(),
            port_stats: Vec::new(),
            latency: cfg.dram_latency,
            max_outstanding: cfg.dram_max_outstanding,
            stats: DramStats::default(),
            faults: DramFaults::default(),
            reads_seen: 0,
            cancelled_acks: 0,
            mlp_tracking: false,
            mlp_live: Vec::new(),
        }
    }

    /// A new bank over the *same* functional bytes: private controllers,
    /// ports, statistics, and fault ordinals, shared `PageStore`. A write
    /// through any bank is immediately visible to reads through every other
    /// (functional effects apply at issue time, as always).
    pub fn bank(&self) -> Dram {
        Dram {
            store: Arc::clone(&self.store),
            controllers: (0..self.controllers.len())
                .map(|_| Controller::default())
                .collect(),
            responses: Vec::new(),
            port_stats: Vec::new(),
            latency: self.latency,
            max_outstanding: self.max_outstanding,
            stats: DramStats::default(),
            faults: DramFaults::default(),
            reads_seen: 0,
            cancelled_acks: 0,
            mlp_tracking: self.mlp_tracking,
            mlp_live: Vec::new(),
        }
    }

    /// Arm (or disarm) outstanding-read occupancy sampling on this view
    /// (see [`PortStats::mlp_hist`]). Off by default; arming it changes
    /// statistics only, never functional bytes or timing.
    pub fn set_mlp_tracking(&mut self, on: bool) {
        self.mlp_tracking = on;
    }

    /// Install an injected fault schedule (see [`crate::fault`]). An empty
    /// schedule leaves every access bit-identical to an unfaulted run.
    pub fn set_faults(&mut self, faults: DramFaults) {
        self.faults = faults;
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.store.capacity()
    }

    /// Register a new requester port and return its id.
    pub fn register_port(&mut self) -> PortId {
        let id = PortId(self.responses.len() as u32);
        self.responses.push(VecDeque::new());
        self.port_stats.push(PortStats::default());
        self.mlp_live.push(0);
        id
    }

    /// Per-port accounting, indexed by [`PortId`].
    pub fn port_stats(&self) -> &[PortStats] {
        &self.port_stats
    }

    /// Number of registered ports.
    pub fn num_ports(&self) -> usize {
        self.responses.len()
    }

    /// Snapshot of the aggregate statistics.
    pub fn stats(&self) -> DramStats {
        self.stats
    }

    /// Reset statistics (used between benchmark phases).
    pub fn reset_stats(&mut self) {
        self.stats = DramStats::default();
        for p in &mut self.port_stats {
            *p = PortStats::default();
        }
    }

    fn controller_for(&self, addr: u64) -> usize {
        // Interleave controllers on 64-byte granules, like the HC-2's
        // scatter-gather DIMM interleaving.
        ((addr >> 6) as usize) % self.controllers.len()
    }

    /// Issue a request at cycle `now` from `port`. On success the functional
    /// effect is applied immediately and a response will be delivered to the
    /// port after the access latency plus the burst-transfer time (one bus
    /// cycle per 64-byte line — large transfers occupy the controller, which
    /// is how payload copies consume bandwidth). Returns [`MemBusy`] if the
    /// responsible controller is saturated; the caller retries next cycle.
    pub fn issue(&mut self, now: Cycle, port: PortId, req: MemRequest) -> Result<(), MemBusy> {
        let cidx = self.controller_for(req.addr);
        let latency = self.latency;
        let max_outstanding = self.max_outstanding;
        let len = match &req.kind {
            MemKind::Read { len } => *len as u64,
            MemKind::Write { data } => data.len() as u64,
        };
        let lines = len.div_ceil(64).max(1);
        // A multi-line transfer stripes over a group of consecutive
        // controllers (scatter-gather interleaving across a DIMM group),
        // occupying each touched controller for its share of the burst.
        let n = (self.controllers.len() as u64).min(4);
        let occupy = lines.div_ceil(n).max(1);
        let touched = lines.min(n) as usize;
        {
            for k in 0..touched {
                let ctl = &self.controllers[(cidx + k) % self.controllers.len()];
                if ctl.busy_until > now {
                    self.stats.rejections += 1;
                    return Err(MemBusy);
                }
            }
            if self.controllers[cidx].inflight.len() >= max_outstanding {
                self.stats.rejections += 1;
                return Err(MemBusy);
            }
        }
        // Injected transient faults (ECC scrub + controller retry): the nth
        // accepted read pays extra response latency. Functional bytes are
        // untouched; with no schedule installed this is a counter bump only.
        let mut fault_extra = 0;
        let is_read = matches!(req.kind, MemKind::Read { .. });
        let resp = match req.kind {
            MemKind::Read { len } => {
                let n = self.reads_seen;
                self.reads_seen += 1;
                if let Some(extra) = self.faults.extra_latency_for(n) {
                    fault_extra = extra;
                    self.stats.transient_faults += 1;
                }
                let data = self.read_data(req.addr, len as usize);
                self.stats.reads += 1;
                self.stats.bytes += u64::from(len);
                MemResponse {
                    addr: req.addr,
                    data,
                    tag: req.tag,
                }
            }
            MemKind::Write { data } => {
                self.host_write(req.addr, &data);
                self.stats.writes += 1;
                self.stats.bytes += data.len() as u64;
                MemResponse {
                    addr: req.addr,
                    data: MemData::empty(),
                    tag: req.tag,
                }
            }
        };
        for k in 0..touched {
            let i = (cidx + k) % self.controllers.len();
            self.controllers[i].busy_until = now + occupy;
        }
        if let Some(ps) = self.port_stats.get_mut(port.0 as usize) {
            if is_read {
                ps.reads += 1;
            } else {
                ps.writes += 1;
            }
            ps.bytes += len;
            ps.occupancy_cycles += occupy;
            if self.mlp_tracking && is_read {
                let live = &mut self.mlp_live[port.0 as usize];
                *live += 1;
                ps.mlp_hist[mlp_bucket(*live)] += 1;
                ps.mlp_peak = ps.mlp_peak.max(*live);
            }
        }
        self.controllers[cidx].inflight.push_back((
            now + latency + occupy - 1 + fault_extra,
            port,
            resp,
            !is_read,
        ));
        Ok(())
    }

    /// Advance the DRAM to cycle `now`, delivering any responses whose
    /// latency has elapsed into their issuing port's response queue.
    /// Posted-write acknowledgements are cancelled here instead of
    /// delivered (see `Controller::inflight`): they leave the in-flight
    /// queue at exactly the cycle they always did — so issue-time
    /// back-pressure is unchanged — but no consumer ever has to wake up
    /// just to discard them.
    pub fn tick(&mut self, now: Cycle) {
        for ctl in &mut self.controllers {
            while let Some((ready, _, _, _)) = ctl.inflight.front() {
                if *ready > now {
                    break;
                }
                let (_, port, resp, is_ack) = ctl.inflight.pop_front().expect("front checked");
                if is_ack {
                    self.cancelled_acks += 1;
                } else {
                    if self.mlp_tracking {
                        if let Some(live) = self.mlp_live.get_mut(port.0 as usize) {
                            *live = live.saturating_sub(1);
                        }
                    }
                    self.responses[port.0 as usize].push_back(resp);
                }
            }
        }
    }

    /// Pop the next delivered response for `port`, if any.
    pub fn pop_response(&mut self, port: PortId) -> Option<MemResponse> {
        self.responses[port.0 as usize].pop_front()
    }

    /// Total requests currently in flight across all controllers.
    pub fn inflight(&self) -> usize {
        self.controllers.iter().map(|c| c.inflight.len()).sum()
    }

    /// The earliest future cycle at which an in-flight request completes
    /// *observably* — i.e. buffers a response some consumer will read — or
    /// `None` when nothing observable is in flight. Each controller's queue
    /// is sorted by completion time (see `Controller::inflight`) except
    /// for injected read-fault extras, and delivery is in queue order, so
    /// the first non-ack entry bounds when its controller next buffers a
    /// response. Leading posted-write acknowledgements are skipped: they
    /// cancel silently at completion, so waking a scheduler for them would
    /// be a dead (though harmless) tick — this is what stops abort-heavy
    /// runs from dragging dead bank events across epoch rounds.
    pub fn next_event(&self) -> Option<Cycle> {
        self.controllers
            .iter()
            .filter_map(|c| {
                c.inflight.iter().find_map(
                    |&(ready, _, _, is_ack)| {
                        if is_ack {
                            None
                        } else {
                            Some(ready)
                        }
                    },
                )
            })
            .min()
    }

    /// Posted-write acknowledgements cancelled at completion. Simulator
    /// instrumentation, not machine state (never part of [`DramStats`]).
    pub fn cancelled_acks(&self) -> u64 {
        self.cancelled_acks
    }

    /// True when any port has a delivered-but-unconsumed response. While this
    /// holds, a component could consume a response on the very next cycle, so
    /// the fast-forward scheduler must not skip ahead.
    pub fn has_buffered_responses(&self) -> bool {
        self.responses.iter().any(|q| !q.is_empty())
    }

    /// FNV-1a digest over the allocated memory image (frame index + contents
    /// of every materialized frame). Two runs that performed identical write
    /// sequences allocate identical frames, so equal digests mean equal
    /// functional memory state; used by the strict-vs-fast-forward
    /// equivalence tests.
    pub fn image_digest(&self) -> u64 {
        self.store.digest()
    }

    /// Number of allocated frames: what [`Dram::export_frames`] would
    /// copy, without copying it.
    pub fn allocated_frames(&self) -> usize {
        self.store.allocated().count()
    }

    /// Copy out every allocated frame of the image, all-zero ones
    /// included, so [`Dram::install_frames`] into a fresh DRAM reproduces
    /// this image's [`Dram::image_digest`] exactly.
    pub fn export_frames(&self) -> DramFrames {
        self.store.export()
    }

    /// Install `frames` into this image, each frame built straight from
    /// its words, as if the host had written them (untimed).
    ///
    /// # Panics
    /// Panics if the capacities differ or if any frame of this image is
    /// already allocated: frames are installed into an empty image only.
    pub fn install_frames(&mut self, frames: &DramFrames) {
        assert_eq!(
            self.capacity(),
            frames.capacity(),
            "frames exported from a DRAM of another capacity"
        );
        assert!(
            self.store.allocated().next().is_none(),
            "frames installed into a DRAM image that has allocated frames"
        );
        self.store.install(frames);
    }

    /// Untimed write, modelling host/PCIe population of memory.
    ///
    /// Every functional mutation of the byte image funnels through here:
    /// timed writes apply their bytes at issue time via this method.
    pub fn host_write(&mut self, addr: u64, data: &[u8]) {
        self.store.write(addr, data);
    }

    /// Read `out.len()` bytes starting at `addr` into a caller-provided
    /// buffer, without allocating. Unwritten memory reads as zero.
    pub fn read_into(&self, addr: u64, out: &mut [u8]) {
        self.store.read_into(addr, out);
    }

    /// Read `len` bytes into a [`MemData`], inline when the burst fits.
    fn read_data(&self, addr: u64, len: usize) -> MemData {
        if len <= INLINE_DATA {
            let mut buf = [0u8; INLINE_DATA];
            self.read_into(addr, &mut buf[..len]);
            MemData::Inline {
                len: len as u8,
                buf,
            }
        } else {
            let mut out = vec![0u8; len];
            self.read_into(addr, &mut out);
            MemData::Heap(out.into_boxed_slice())
        }
    }

    /// Untimed read, modelling host/PCIe inspection of memory. Unwritten
    /// memory reads as zero.
    pub fn host_read(&self, addr: u64, len: usize) -> Vec<u8> {
        let mut out = vec![0u8; len];
        self.read_into(addr, &mut out);
        out
    }

    /// Untimed 8-byte little-endian read.
    pub fn host_read_u64(&self, addr: u64) -> u64 {
        let mut b = [0u8; 8];
        self.read_into(addr, &mut b);
        u64::from_le_bytes(b)
    }

    /// Untimed 8-byte little-endian write.
    pub fn host_write_u64(&mut self, addr: u64, value: u64) {
        self.host_write(addr, &value.to_le_bytes());
    }
}

impl std::fmt::Debug for Dram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Dram")
            .field("capacity", &self.capacity())
            .field("controllers", &self.controllers.len())
            .field("ports", &self.responses.len())
            .field("inflight", &self.inflight())
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_dram() -> Dram {
        Dram::new(&FpgaConfig::default(), 1 << 20)
    }

    #[test]
    fn host_rw_roundtrip() {
        let mut d = small_dram();
        d.host_write(100, &[1, 2, 3, 4]);
        assert_eq!(d.host_read(100, 4), vec![1, 2, 3, 4]);
        // Unwritten memory reads as zero.
        assert_eq!(d.host_read(104, 2), vec![0, 0]);
    }

    #[test]
    fn host_rw_spans_frames() {
        let mut d = small_dram();
        let addr = (FRAME_SIZE - 3) as u64;
        let data: Vec<u8> = (0..10).collect();
        d.host_write(addr, &data);
        assert_eq!(d.host_read(addr, 10), data);
    }

    /// Write `data` one byte at a time: every store is the masked sub-word
    /// path, the reference the whole-frame path must match.
    fn write_bytewise(d: &mut Dram, addr: u64, data: &[u8]) {
        for (i, b) in data.iter().enumerate() {
            d.host_write(addr + i as u64, &[*b]);
        }
    }

    #[test]
    fn whole_frame_writes_match_the_byte_path() {
        let (mut fast, mut slow) = (small_dram(), small_dram());
        let f = FRAME_SIZE as u64;
        // Frame 2 is allocated by a small write first, so the run below
        // overwrites it; frames 1, 3 and 4 are built from the run's bytes;
        // the run's head and tail land in frames 0 and 5 partially.
        fast.host_write(2 * f + 40, &[7; 3]);
        write_bytewise(&mut slow, 2 * f + 40, &[7; 3]);
        let data: Vec<u8> = (0..4 * FRAME_SIZE + 100)
            .map(|i| (i * 31 % 251) as u8)
            .collect();
        fast.host_write(f - 60, &data);
        write_bytewise(&mut slow, f - 60, &data);
        assert_eq!(
            fast.host_read(0, 7 * FRAME_SIZE),
            slow.host_read(0, 7 * FRAME_SIZE)
        );
        assert_eq!(fast.store.allocated().count(), 6);
        assert_eq!(fast.image_digest(), slow.image_digest());
    }

    #[test]
    fn u64_roundtrip() {
        let mut d = small_dram();
        d.host_write_u64(64, 0xdead_beef_cafe_f00d);
        assert_eq!(d.host_read_u64(64), 0xdead_beef_cafe_f00d);
    }

    #[test]
    fn read_response_arrives_after_latency() {
        let cfg = FpgaConfig::default();
        let mut d = Dram::new(&cfg, 1 << 20);
        let p = d.register_port();
        d.host_write_u64(8, 42);
        d.issue(
            0,
            p,
            MemRequest {
                addr: 8,
                kind: MemKind::Read { len: 8 },
                tag: Tag(7),
            },
        )
        .unwrap();
        // Not ready one cycle before the latency elapses.
        d.tick(cfg.dram_latency - 1);
        assert!(d.pop_response(p).is_none());
        d.tick(cfg.dram_latency);
        let r = d.pop_response(p).expect("response due");
        assert_eq!(r.tag, Tag(7));
        assert_eq!(
            u64::from_le_bytes(r.data.as_slice().try_into().unwrap()),
            42
        );
    }

    #[test]
    fn write_applies_functionally_at_issue() {
        let mut d = small_dram();
        let p = d.register_port();
        d.issue(
            0,
            p,
            MemRequest {
                addr: 0,
                kind: MemKind::Write { data: vec![9; 8] },
                tag: Tag(0),
            },
        )
        .unwrap();
        // Visible immediately to a functional read even though the response
        // has not been delivered yet.
        assert_eq!(d.host_read(0, 8), vec![9; 8]);
    }

    #[test]
    fn controller_issue_width_limits_per_cycle() {
        let cfg = FpgaConfig::default(); // issue width 1
        let mut d = Dram::new(&cfg, 1 << 20);
        let p = d.register_port();
        // Two requests to the same 64-byte granule hit the same controller.
        let req = |tag| MemRequest {
            addr: 16,
            kind: MemKind::Read { len: 8 },
            tag: Tag(tag),
        };
        assert!(d.issue(5, p, req(1)).is_ok());
        assert_eq!(d.issue(5, p, req(2)), Err(MemBusy));
        // Next cycle the controller accepts again.
        assert!(d.issue(6, p, req(3)).is_ok());
        assert_eq!(d.stats().rejections, 1);
    }

    #[test]
    fn controller_outstanding_limit() {
        let cfg = FpgaConfig {
            dram_max_outstanding: 2,
            ..FpgaConfig::default()
        };
        let mut d = Dram::new(&cfg, 1 << 20);
        let p = d.register_port();
        let req = |tag| MemRequest {
            addr: 0,
            kind: MemKind::Read { len: 8 },
            tag: Tag(tag),
        };
        assert!(d.issue(0, p, req(1)).is_ok());
        assert!(d.issue(1, p, req(2)).is_ok());
        assert_eq!(d.issue(2, p, req(3)), Err(MemBusy), "outstanding limit");
        // Draining in-flight requests frees capacity.
        d.tick(cfg.dram_latency + 1);
        assert!(d.issue(cfg.dram_latency + 2, p, req(4)).is_ok());
    }

    #[test]
    fn bursts_occupy_the_controller() {
        let cfg = FpgaConfig::default();
        let mut d = Dram::new(&cfg, 1 << 20);
        let p = d.register_port();
        // A 1 KiB read occupies its controller for 16 bus cycles.
        d.issue(
            0,
            p,
            MemRequest {
                addr: 0,
                kind: MemKind::Read { len: 1024 },
                tag: Tag(1),
            },
        )
        .unwrap();
        // 16 lines stripe over a 4-controller group: each busy 4 cycles.
        let small = MemRequest {
            addr: 0,
            kind: MemKind::Read { len: 8 },
            tag: Tag(2),
        };
        assert_eq!(d.issue(1, p, small.clone()), Err(MemBusy), "bus still busy");
        assert_eq!(d.issue(3, p, small.clone()), Err(MemBusy), "bus still busy");
        assert!(d.issue(4, p, small).is_ok());
        // The burst's response lands later than a single-line access.
        d.tick(cfg.dram_latency + 2);
        assert!(
            d.pop_response(p).is_none(),
            "burst not complete at base latency"
        );
        d.tick(cfg.dram_latency + 3);
        assert_eq!(d.pop_response(p).unwrap().tag, Tag(1));
    }

    #[test]
    fn responses_route_to_correct_port() {
        let cfg = FpgaConfig::default();
        let mut d = Dram::new(&cfg, 1 << 20);
        let p1 = d.register_port();
        let p2 = d.register_port();
        // Different granules so both are accepted in the same cycle.
        d.issue(
            0,
            p1,
            MemRequest {
                addr: 0,
                kind: MemKind::Read { len: 1 },
                tag: Tag(1),
            },
        )
        .unwrap();
        d.issue(
            0,
            p2,
            MemRequest {
                addr: 128,
                kind: MemKind::Read { len: 1 },
                tag: Tag(2),
            },
        )
        .unwrap();
        d.tick(cfg.dram_latency);
        assert_eq!(d.pop_response(p1).unwrap().tag, Tag(1));
        assert_eq!(d.pop_response(p2).unwrap().tag, Tag(2));
        assert!(d.pop_response(p1).is_none());
    }

    #[test]
    fn stats_count_reads_writes_bytes() {
        let mut d = small_dram();
        let p = d.register_port();
        d.issue(
            0,
            p,
            MemRequest {
                addr: 0,
                kind: MemKind::Read { len: 8 },
                tag: Tag(0),
            },
        )
        .unwrap();
        d.issue(
            1,
            p,
            MemRequest {
                addr: 64,
                kind: MemKind::Write { data: vec![0; 16] },
                tag: Tag(1),
            },
        )
        .unwrap();
        let s = d.stats();
        assert_eq!((s.reads, s.writes, s.bytes), (1, 1, 24));
    }

    #[test]
    fn transient_fault_delays_the_scheduled_read_only() {
        use crate::fault::FaultPlan;
        let cfg = FpgaConfig::default();
        let mut d = Dram::new(&cfg, 1 << 20);
        d.set_faults(FaultPlan::none().dram_transient(1, 10).dram);
        let p = d.register_port();
        let req = |addr, tag| MemRequest {
            addr,
            kind: MemKind::Read { len: 8 },
            tag: Tag(tag),
        };
        // Different granules so both issue at cycle 0.
        d.issue(0, p, req(0, 0)).unwrap();
        d.issue(0, p, req(64, 1)).unwrap();
        d.tick(cfg.dram_latency);
        assert_eq!(d.pop_response(p).unwrap().tag, Tag(0), "read 0 on time");
        assert!(d.pop_response(p).is_none(), "read 1 held by ECC retry");
        d.tick(cfg.dram_latency + 10);
        assert_eq!(d.pop_response(p).unwrap().tag, Tag(1));
        assert_eq!(d.stats().transient_faults, 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_access_panics() {
        let mut d = small_dram();
        d.host_write(2 << 20, &[1]);
    }

    #[test]
    fn banks_share_bytes_but_not_timing() {
        let mut d = small_dram();
        let mut bank = d.bank();
        // Functional bytes are shared both ways, immediately.
        d.host_write(100, &[7; 4]);
        assert_eq!(bank.host_read(100, 4), vec![7; 4]);
        let p = bank.register_port();
        bank.issue(
            0,
            p,
            MemRequest {
                addr: 200,
                kind: MemKind::Write { data: vec![5; 8] },
                tag: Tag(0),
            },
        )
        .unwrap();
        assert_eq!(d.host_read(200, 8), vec![5; 8]);
        assert_eq!(d.image_digest(), bank.image_digest());
        // Timing state is private: the parent saw no traffic.
        assert_eq!(d.stats(), DramStats::default());
        assert_eq!(bank.stats().writes, 1);
        assert_eq!(d.inflight(), 0);
        assert_eq!(bank.inflight(), 1);
        // A port registered on one bank does not exist on the other.
        assert_eq!(d.num_ports(), 0);
        assert_eq!(bank.num_ports(), 1);
    }

    #[test]
    fn unallocated_reads_do_not_perturb_the_digest() {
        let mut d = small_dram();
        d.host_write(0, &[1]);
        let before = d.image_digest();
        // Reading a never-written frame returns zeros without allocating it.
        assert_eq!(d.host_read(5 * FRAME_SIZE as u64, 16), vec![0; 16]);
        assert_eq!(d.image_digest(), before);
    }

    /// A sparse hash directory costs host memory in proportion to the heads
    /// written, not to its span: 2,000 scattered 8-byte heads in a 2 MiB
    /// bucket array (2^18 buckets, TPC-C's `order_line` shape) touch about
    /// 1,570 of its 4,096 frames, 0.77 MiB. The 1 MiB bound fails 4 KiB
    /// frames, which would allocate nearly the full 2 MiB.
    #[test]
    fn scattered_bucket_heads_allocate_frames_not_the_directory() {
        const BUCKETS: u64 = 1 << 18;
        const HEADS: u64 = 2_000;
        let base = 1u64 << 20;
        let mut d = Dram::new(&FpgaConfig::default(), 4 << 20);
        let bucket = |i: u64| {
            // splitmix64: fixed, well-mixed bucket choices.
            let mut z = i.wrapping_add(1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % BUCKETS
        };
        for i in 0..HEADS {
            d.host_write_u64(base + 8 * bucket(i), i + 1);
        }
        let frames = d.store.allocated().count();
        assert!(
            frames * FRAME_SIZE <= 1 << 20,
            "{frames} frames of {FRAME_SIZE} B for {HEADS} heads"
        );
        // Reading the whole directory back allocates nothing.
        let digest = d.image_digest();
        let image = d.host_read(base, (8 * BUCKETS) as usize);
        assert_eq!(d.store.allocated().count(), frames);
        assert_eq!(d.image_digest(), digest);
        let distinct: std::collections::BTreeSet<u64> = (0..HEADS).map(bucket).collect();
        let heads = image.chunks_exact(8).filter(|w| w != &[0; 8]).count();
        assert_eq!(heads, distinct.len());
    }

    /// Two banks on two threads write interleaved, disjoint pieces of the
    /// same words, round after round. A write of part of a word must leave
    /// the other bank's bytes alone even when both land at once; a plain
    /// load-modify-store of the whole word would lose some of them.
    #[test]
    fn banks_on_threads_keep_each_others_bytes_in_shared_words() {
        const WORDS: u64 = 512;
        const ROUNDS: u8 = 60;
        let d = small_dram();
        // Straddle several frame boundaries. Word `w` splits at byte
        // `1 + w % 7`: bank 0 owns the bytes below the split, bank 1 the
        // rest.
        let base = 8 * FRAME_SIZE as u64 - 8 * (WORDS / 2);
        let pieces = |owner: usize| {
            (0..WORDS).map(move |w| {
                let split = 1 + w % 7;
                let (from, to) = if owner == 0 { (0, split) } else { (split, 8) };
                (base + 8 * w + from, (to - from) as usize)
            })
        };
        let value =
            |owner: usize, round: u8, addr: u64| (addr as u8) ^ round ^ (owner as u8 * 0x80);
        // Each thread counts, rather than asserts, the bytes it finds lost
        // after a round: a panic would leave the other at the barrier.
        let barrier = std::sync::Barrier::new(2);
        let lost: usize = std::thread::scope(|s| {
            let threads: Vec<_> = (0..2)
                .map(|owner| {
                    let mut bank = d.bank();
                    let barrier = &barrier;
                    s.spawn(move || {
                        let mut lost = 0;
                        for round in 0..ROUNDS {
                            barrier.wait();
                            for (addr, len) in pieces(owner) {
                                let bytes: Vec<u8> = (addr..addr + len as u64)
                                    .map(|a| value(owner, round, a))
                                    .collect();
                                bank.host_write(addr, &bytes);
                            }
                            barrier.wait();
                            for (addr, len) in pieces(owner) {
                                lost += (addr..)
                                    .zip(bank.host_read(addr, len))
                                    .filter(|&(a, got)| got != value(owner, round, a))
                                    .count();
                            }
                        }
                        lost
                    })
                })
                .collect();
            threads.into_iter().map(|t| t.join().unwrap()).sum()
        });
        assert_eq!(lost, 0, "bytes lost to the other bank's writes");
        for owner in 0..2 {
            for (addr, len) in pieces(owner) {
                for (a, got) in (addr..).zip(d.host_read(addr, len)) {
                    assert_eq!(got, value(owner, ROUNDS - 1, a));
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "allocated frames")]
    fn installing_over_an_allocated_frame_panics() {
        let mut src = Dram::new(&FpgaConfig::default(), 1 << 20);
        src.host_write_u64(4096, 7);
        let frames = src.export_frames();
        let mut dst = Dram::new(&FpgaConfig::default(), 1 << 20);
        dst.host_write_u64(4096, 9);
        dst.install_frames(&frames);
    }

    #[test]
    #[should_panic(expected = "another capacity")]
    fn installing_into_another_capacity_panics() {
        let frames = Dram::new(&FpgaConfig::default(), 1 << 20).export_frames();
        Dram::new(&FpgaConfig::default(), 2 << 20).install_frames(&frames);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Bytes of address space behind one directory segment.
    const SEGMENT_BYTES: u64 = (SEGMENT_FRAMES * FRAME_SIZE) as u64;

    /// Addresses that random accesses cluster around, so they cross word,
    /// frame and segment boundaries.
    const ANCHORS: [u64; 6] = [
        0,
        FRAME_SIZE as u64,
        3 * FRAME_SIZE as u64,
        SEGMENT_BYTES,
        SEGMENT_BYTES + FRAME_SIZE as u64,
        2 * SEGMENT_BYTES,
    ];

    proptest! {
        /// The store behaves as a plain byte array: every write and read,
        /// of any length at any alignment, agrees with a `Vec<u8>` model,
        /// and reading never allocates or changes the digest.
        #[test]
        fn store_matches_a_byte_array(
            ops in proptest::collection::vec(
                (any::<bool>(), 0usize..ANCHORS.len(), -300i64..300, 1usize..=300, any::<u8>()),
                1..60,
            ),
        ) {
            // Four segments; accesses never reach the fourth.
            let cap = 4 * SEGMENT_BYTES;
            let mut d = Dram::new(&FpgaConfig::default(), cap);
            let mut model = vec![0u8; cap as usize];
            for (write, anchor, delta, len, seed) in ops {
                let addr = ANCHORS[anchor].saturating_add_signed(delta).min(cap - len as u64);
                let range = addr as usize..addr as usize + len;
                if write {
                    let data: Vec<u8> = (0..len).map(|i| seed.wrapping_add((i as u8).wrapping_mul(37))).collect();
                    d.host_write(addr, &data);
                    model[range.clone()].copy_from_slice(&data);
                    // The written bytes and their neighbours in the same words.
                    let lo = range.start.saturating_sub(8);
                    let hi = (range.end + 8).min(cap as usize);
                    prop_assert_eq!(d.host_read(lo as u64, hi - lo), &model[lo..hi]);
                } else {
                    let (frames, digest) = (d.store.allocated().count(), d.image_digest());
                    prop_assert_eq!(d.host_read(addr, len), &model[range]);
                    prop_assert_eq!(d.store.allocated().count(), frames);
                    prop_assert_eq!(d.image_digest(), digest);
                }
            }
            // An untouched segment reads as zeros and stays unallocated.
            let (frames, digest) = (d.store.allocated().count(), d.image_digest());
            let far = 3 * SEGMENT_BYTES + 7 * FRAME_SIZE as u64 - 5;
            prop_assert_eq!(d.host_read(far, 300), vec![0; 300]);
            prop_assert_eq!(d.store.allocated().count(), frames);
            prop_assert_eq!(d.image_digest(), digest);
        }

        /// Frames exported from an image written at random offsets and
        /// installed into a fresh DRAM give the same digest, the same
        /// allocated frames and the same bytes, all-zero frames included.
        #[test]
        fn installed_frames_reproduce_the_image(
            writes in proptest::collection::vec(
                (0usize..ANCHORS.len(), -300i64..300, 1usize..=300, any::<u8>()),
                1..40,
            ),
        ) {
            let cap = 4 * SEGMENT_BYTES;
            let mut d = Dram::new(&FpgaConfig::default(), cap);
            for (anchor, delta, len, seed) in writes {
                let addr = ANCHORS[anchor].saturating_add_signed(delta).min(cap - len as u64);
                // Every fourth write is zeros, so some frames are all-zero.
                let data: Vec<u8> = (0..len)
                    .map(|i| if seed % 4 == 0 { 0 } else { seed.wrapping_add(i as u8) })
                    .collect();
                d.host_write(addr, &data);
            }
            let frames = d.export_frames();
            let mut copy = Dram::new(&FpgaConfig::default(), cap);
            copy.install_frames(&frames);
            prop_assert_eq!(frames.count(), d.allocated_frames());
            prop_assert_eq!(copy.store.allocated().count(), frames.count());
            prop_assert_eq!(copy.image_digest(), d.image_digest());
            let span = 3 * SEGMENT_BYTES as usize;
            prop_assert_eq!(copy.host_read(0, span), d.host_read(0, span));
            prop_assert_eq!(copy.export_frames(), frames);
        }
    }
}
