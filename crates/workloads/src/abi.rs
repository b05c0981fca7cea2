//! The workload ABI: every stored-procedure workload behind one trait.
//!
//! The paper's softcore executes *pre-compiled stored procedures* (§4.5,
//! Table 2); the engine neither knows nor cares which benchmark the
//! procedures implement. This module makes the reproduction match that
//! separation: a [`Workload`] declares its schema, procedures and
//! per-worker transaction generation, and the single generic driver
//! (`bionicdb_bench::drive`) owns batch fill, submission, execution under
//! any [`bionicdb::ExecMode`], client-side retry and stats collection.
//!
//! ## Contract
//!
//! A `Workload` implementation may touch only:
//!
//! * its own module (procedure builders via [`bionicdb_softcore::builder`],
//!   block layouts, generators) — see `smallbank.rs` for the reference
//!   shape;
//! * the [`SystemBuilder`] registration surface (tables + procs), routed
//!   through [`assemble`] so config plumbing stays in one place.
//!
//! It must **not** touch the engine crates (`core`, `coproc`, `fpga`,
//! `noc`): if a workload needs an engine change, that is an engine PR, not
//! a workload. SmallBank was added under exactly this rule.
//!
//! ## Determinism
//!
//! The driver seeds one `SmallRng` from [`Workload::seed`] and consumes it
//! in submission order (worker-major, index-ascending), so a fixed seed
//! produces a byte-identical `MachineReport` under strict, fast-forward
//! and epoch-parallel execution at any thread count. The legacy runner
//! seeds are preserved by the adapters below; `goldencheck` pins the
//! refactor to goldens captured from the pre-ABI hand-rolled loops.
//!
//! Every workload also carries a [`SiloWorkload`] twin so BionicDB-vs-Silo
//! comparisons run the same transaction mix from the same generator logic
//! (mix selection like [`TpccMix::neworder_at`] lives in one place and
//! cannot drift between engines).

use std::borrow::BorrowMut;
use std::cell::Cell;
use std::sync::{Arc, Mutex, MutexGuard};

use bionicdb::{BionicConfig, LoadedImage, Loader, Machine, RetryBudget, SystemBuilder, TxnBlock};
use bionicdb_cpu_model::CoreModel;
use rand::rngs::SmallRng;

use crate::smallbank::{SmallBankBionic, SmallBankSpec, SmallBankWorkload};
use crate::spec::{TpccSpec, YcsbSpec};
use crate::tpcc::{TpccBionic, TpccMix, TpccSilo};
use crate::ycsb::{YcsbBionic, YcsbKind, YcsbSilo};

/// A stored-procedure workload on BionicDB, as seen by the generic driver.
///
/// Implementations wrap an assembled machine (schema loaded, procedures
/// registered) plus whatever per-worker generator state the workload needs
/// (sequence counters, skew samplers). The driver calls methods in this
/// order per wave: [`block_size`](Workload::block_size) (allocation,
/// worker-major), [`submit`](Workload::submit) (fill + submit, worker-major
/// with one shared RNG), then run/retry, then
/// [`validate`](Workload::validate).
pub trait Workload {
    /// Short label (used in reports and test output).
    fn name(&self) -> &'static str;

    /// The machine under test.
    fn machine(&mut self) -> &mut Machine;

    /// Read-only access to the machine (report rendering).
    fn machine_ref(&self) -> &Machine;

    /// Fixed RNG seed for a driver wave.
    fn seed(&self) -> u64;

    /// Block bytes for worker `worker`'s `i`-th transaction of a wave
    /// (warm-up waves use indices `0..warmup` of the same function).
    fn block_size(&self, worker: usize, i: usize) -> u64;

    /// Populate `blk` as worker `worker`'s `i`-th transaction and submit
    /// it. `rng` is the wave's shared generator: consume it only here, in
    /// driver submission order.
    fn submit(&mut self, worker: usize, i: usize, blk: TxnBlock, rng: &mut SmallRng);

    /// Index operations per transaction (KV bulk transactions report
    /// operation throughput; everything else transaction throughput).
    fn ops_per_txn(&self) -> u64 {
        1
    }

    /// Warm-up transactions per worker to run (and discard) before the
    /// measured wave.
    fn warmup(&self, txns_per_worker: usize) -> usize {
        let _ = txns_per_worker;
        0
    }

    /// Whether the measured wave reports the abort-counter delta (bulk
    /// loading waves report 0 by convention).
    fn count_aborts(&self) -> bool {
        true
    }

    /// Client-side retry budget: `Some` makes the driver retry aborted
    /// blocks to completion and count every submitted transaction as
    /// committed (the TPC-C convention).
    fn retry(&self) -> Option<RetryBudget> {
        None
    }

    /// Post-wave invariant hook (e.g. SmallBank money conservation).
    /// Runs after the wave fully commits; panics on violation.
    fn validate(&mut self) {}
}

/// A workload body for the Silo baseline: one transaction per call under
/// the calibrated core model. `i` is the wave index (mix selection);
/// returns `false` on abort.
pub trait SiloWorkload {
    /// Fixed RNG seed for a model wave.
    fn seed(&self) -> u64;

    /// Run the `i`-th transaction of a wave.
    fn run(&self, model: &mut CoreModel, rng: &mut SmallRng, i: usize) -> bool;
}

// ---------------------------------------------------------------------------
// Commit-discipline helpers for procedure builders
// ---------------------------------------------------------------------------

/// Shared [`bionicdb::ProcBuilder`] idioms for the engine's two-phase
/// execution discipline (paper §4.7): validate every CP result before
/// applying any write; on commit stamp write timestamps and clear dirty
/// bits per touched tuple; on abort release dirty marks on whatever was
/// granted. TPC-C and SmallBank both build their procedures from these.
pub mod procs {
    use bionicdb::ProcBuilder;
    use bionicdb_coproc::layout::{TUPLE_HEADER, TUPLE_PAYLOAD};
    use bionicdb_softcore::isa::{Cond, Cp, Gp, MemBase, Operand};

    /// Write-timestamp offset relative to a CP-returned tuple address
    /// (hash tuples: header behind the chain pointer).
    pub const WRITE_TS_OFF: i64 = TUPLE_HEADER as i64;
    /// Flags-word offset relative to a CP-returned tuple address.
    pub const FLAGS_OFF: i64 = (TUPLE_HEADER + 16) as i64;
    /// First payload byte relative to a CP-returned tuple address.
    pub const PAYLOAD: i64 = TUPLE_PAYLOAD as i64;
    /// Tombstone flag value (aborted inserts).
    pub const TOMBSTONE: i64 = 2;

    /// Emit `RET cp` + error check, jumping to the abort handler on
    /// failure. Returns the GP holding the tuple address.
    pub fn ret_or_abort(b: &mut ProcBuilder, cp: Cp, into: Gp) -> Gp {
        let abort = b.abort_label();
        b.ret(into, cp)
            .cmp(into, Operand::Imm(0))
            .br(Cond::Lt, abort);
        into
    }

    /// Clear the dirty flag and stamp the write timestamp of the tuple
    /// whose address is in `addr` (the commit handler's per-tuple
    /// write-set walk).
    pub fn commit_tuple(b: &mut ProcBuilder, addr: Gp, ts: Gp, zero: Gp) {
        b.store(ts, MemBase::Reg(addr), Operand::Imm(WRITE_TS_OFF));
        b.store(zero, MemBase::Reg(addr), Operand::Imm(FLAGS_OFF));
    }

    /// Abort-handler walk: for each update CP, clear the dirty mark if the
    /// operation was granted (`addr >= 0`), else skip.
    pub fn abort_clear_dirty(b: &mut ProcBuilder, scratch: Gp, zero: Gp, cps: &[Cp]) {
        for &cp in cps {
            let skip = b.label();
            b.ret(scratch, cp);
            b.cmp(scratch, Operand::Imm(0));
            b.br(Cond::Lt, skip);
            b.store(zero, MemBase::Reg(scratch), Operand::Imm(FLAGS_OFF));
            b.bind(skip);
        }
    }
}

// ---------------------------------------------------------------------------
// Machine assembly
// ---------------------------------------------------------------------------

/// What a workload's bulk load reads besides the machine's layout: its
/// family and the spec fields the load uses. [`assemble`] passes it to
/// the load as its only input, and with the layout it keys the image
/// store. Nothing else is in the key, so machines that differ only in
/// batch mode, topology, `max_batch` or spec fields the load does not
/// read (operations per transaction, remote fractions, skew) share one
/// image.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadSpec {
    /// YCSB: keys `0..records` per partition with `payload_len`-byte
    /// payloads.
    Ycsb {
        /// Records per partition.
        records: u64,
        /// Payload bytes per record.
        payload_len: u32,
    },
    /// TPC-C: one warehouse per partition.
    Tpcc {
        /// Districts per warehouse.
        districts: u64,
        /// Customers per district.
        customers: u64,
        /// Items and stock rows per warehouse.
        items: u64,
    },
    /// SmallBank: a savings and a checking row per account.
    SmallBank {
        /// Accounts per partition.
        accounts: u64,
        /// Payload bytes per row.
        payload_len: u32,
        /// Balance every row starts with.
        initial_balance: u64,
    },
}

impl LoadSpec {
    /// The family's slot in the image store.
    fn family(&self) -> usize {
        match self {
            LoadSpec::Ycsb { .. } => 0,
            LoadSpec::Tpcc { .. } => 1,
            LoadSpec::SmallBank { .. } => 2,
        }
    }
}

/// A loaded image and the spec it was loaded for.
type Stored = (LoadSpec, Arc<LoadedImage>);

/// The image store: per workload family, the last image stored. One slot
/// per family bounds what a process retains at three images however many
/// specs it builds.
static IMAGES: Mutex<[Option<Stored>; 3]> = Mutex::new([None, None, None]);

/// The largest image the store keeps, in DRAM frames (8 MiB). An image
/// is as large as its database, so keeping one doubles what the database
/// costs in memory for the rest of the process. Test-scale images (about
/// 1,000 frames) are a few percent of a process's footprint and save
/// most of each later build; a bench-scale database (Fig. 12 YCSB:
/// 436,320 frames, 227 MB) took 28% more peak RSS to keep and saved no
/// wall time, so such machines load themselves every time.
const MAX_STORED_FRAMES: usize = 16_384;

/// The locked store. Every update is one slot assignment, so no holder
/// can panic mid-update.
fn images() -> MutexGuard<'static, [Option<Stored>; 3]> {
    IMAGES
        .lock()
        .expect("no thread panics holding the image store")
}

thread_local! {
    /// Set inside [`fresh_loads`]: `assemble` loads every machine itself.
    static FRESH: Cell<bool> = const { Cell::new(false) };
    /// Whether the last [`assemble`] on this thread restored its machine.
    static RESTORED: Cell<bool> = const { Cell::new(false) };
}

/// Run `f` with every [`assemble`] on this thread loading its machine
/// directly, neither reading nor filling the image store. Equivalence
/// tests compare restored machines against these fresh loads. The
/// previous setting returns when `f` returns or unwinds.
#[doc(hidden)]
pub fn fresh_loads<R>(f: impl FnOnce() -> R) -> R {
    /// Puts the outer setting back on drop, so a caught panic in `f`
    /// does not leave the store bypassed.
    struct Outer(bool);
    impl Drop for Outer {
        fn drop(&mut self) {
            FRESH.with(|fresh| fresh.set(self.0));
        }
    }
    let _outer = Outer(FRESH.with(|fresh| fresh.replace(true)));
    f()
}

/// Whether the last [`assemble`] on this thread restored its machine from
/// the store rather than loading it, for tests that need a restored
/// machine.
#[doc(hidden)]
pub fn restored_last() -> bool {
    RESTORED.with(Cell::get)
}

/// The images the store holds now, in family order (YCSB, TPC-C,
/// SmallBank), for tests of the store's bound.
#[doc(hidden)]
pub fn stored_images() -> Vec<Stored> {
    images().iter().flatten().cloned().collect()
}

/// Restore the family's stored image into `machine` if it was loaded for
/// `spec` and fits the machine's layout; returns whether it did.
fn restore(machine: &mut Machine, spec: &LoadSpec) -> bool {
    let Some(image) = images()[spec.family()]
        .as_ref()
        .filter(|(s, image)| s == spec && machine.fits_image(image))
        .map(|(_, image)| Arc::clone(image))
    else {
        return false;
    };
    machine.restore_image(&image);
    true
}

/// Assemble a machine: register tables + procedures, build, then fill
/// every partition with the database `load_worker` loads. All workload
/// builds route their [`SystemBuilder`]/[`BionicConfig`] plumbing through
/// here.
///
/// A process loads each database once: the machine gets its database by
/// [`Machine::restore_image`] from the image store when the store holds
/// one for `spec` and the built layout. Otherwise `load_worker` fills
/// the machine, and the machine's image, if it is no larger than 8 MiB,
/// replaces the family's previous one.
///
/// `load_worker(loader, worker, handles, spec)` loads one partition. It
/// is a plain function, so it can read nothing but its arguments: `spec`
/// is the key, and the [`Loader`] reaches only DRAM and its own
/// partition's tables, exactly what the image holds.
pub fn assemble<T>(
    cfg: BionicConfig,
    spec: LoadSpec,
    register: impl FnOnce(&mut SystemBuilder) -> T,
    load_worker: fn(&mut Loader<'_>, usize, &T, &LoadSpec),
) -> (Machine, T) {
    let mut b = SystemBuilder::new(cfg);
    let handles = register(&mut b);
    let mut machine = b.build();
    let fresh = FRESH.with(Cell::get);
    let restored = !fresh && restore(&mut machine, &spec);
    RESTORED.with(|r| r.set(restored));
    if !restored {
        for w in 0..machine.num_workers() {
            load_worker(&mut machine.loader(w), w, &handles, &spec);
        }
        if !fresh && machine.dram().allocated_frames() <= MAX_STORED_FRAMES {
            images()[spec.family()] = Some((spec, Arc::new(machine.loaded_image())));
        }
    }
    (machine, handles)
}

// ---------------------------------------------------------------------------
// BionicDB adapters for the pre-ABI workloads
// ---------------------------------------------------------------------------
//
// Each adapter is generic over `S: BorrowMut<…>` so the same impl serves
// both the legacy entry points (borrowing a caller-owned system, e.g.
// several waves against one machine) and owned `Box<dyn Workload>` use in
// tests/harnesses.

/// YCSB point/scan transactions of one kind.
pub struct YcsbWorkload<S> {
    /// The assembled system (owned or borrowed).
    pub sys: S,
    /// Which transaction to generate.
    pub kind: YcsbKind,
}

impl<S: BorrowMut<YcsbBionic>> Workload for YcsbWorkload<S> {
    fn name(&self) -> &'static str {
        match self.kind {
            YcsbKind::ReadLocal => "ycsb_read_local",
            YcsbKind::ReadHomed => "ycsb_read_homed",
            YcsbKind::UpdateLocal => "ycsb_update_local",
            YcsbKind::Scan => "ycsb_scan",
        }
    }

    fn machine(&mut self) -> &mut Machine {
        &mut self.sys.borrow_mut().machine
    }

    fn machine_ref(&self) -> &Machine {
        &self.sys.borrow().machine
    }

    fn seed(&self) -> u64 {
        0xB105
    }

    fn block_size(&self, _worker: usize, _i: usize) -> u64 {
        self.sys.borrow().block_size(self.kind)
    }

    fn warmup(&self, txns_per_worker: usize) -> usize {
        (txns_per_worker / 4).max(8)
    }

    fn submit(&mut self, worker: usize, _i: usize, blk: TxnBlock, rng: &mut SmallRng) {
        let kind = self.kind;
        self.sys.borrow_mut().submit_txn(worker, blk, kind, rng);
    }
}

/// Which bulk KV loop to run (Figs. 10a/11a/11b + the hazard ablation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KvOp {
    /// Sequential hash-table loading.
    HashInsert,
    /// Hash-table point queries over loaded keys.
    HashSearch,
    /// Random (bucket-colliding) hash inserts.
    HashInsertRandom,
    /// Sequential skiplist loading.
    SkipInsert,
    /// Skiplist point queries.
    SkipSearch,
}

/// Bulk KV transactions (`kv_ops` index operations each); reports
/// *operation* throughput and, as a loading wave, no aborts.
pub struct KvWorkload<S> {
    /// The assembled system (owned or borrowed).
    pub sys: S,
    /// Which bulk loop to run.
    pub op: KvOp,
}

impl<S: BorrowMut<YcsbBionic>> Workload for KvWorkload<S> {
    fn name(&self) -> &'static str {
        match self.op {
            KvOp::HashInsert => "kv_hash_insert",
            KvOp::HashSearch => "kv_hash_search",
            KvOp::HashInsertRandom => "kv_random_insert",
            KvOp::SkipInsert => "kv_skip_insert",
            KvOp::SkipSearch => "kv_skip_search",
        }
    }

    fn machine(&mut self) -> &mut Machine {
        &mut self.sys.borrow_mut().machine
    }

    fn machine_ref(&self) -> &Machine {
        &self.sys.borrow().machine
    }

    fn seed(&self) -> u64 {
        match self.op {
            KvOp::HashInsert | KvOp::HashSearch => 0x6B5D,
            KvOp::HashInsertRandom => 0xAB1A,
            KvOp::SkipInsert | KvOp::SkipSearch => 0x5C1D,
        }
    }

    fn block_size(&self, _worker: usize, _i: usize) -> u64 {
        let sys = self.sys.borrow();
        sys.kv_block_size(sys.kv_ops)
    }

    fn ops_per_txn(&self) -> u64 {
        self.sys.borrow().kv_ops as u64
    }

    fn count_aborts(&self) -> bool {
        false
    }

    fn submit(&mut self, worker: usize, _i: usize, blk: TxnBlock, rng: &mut SmallRng) {
        let sys = self.sys.borrow_mut();
        match self.op {
            KvOp::HashInsert => sys.submit_kv_txn(worker, blk, true, rng),
            KvOp::HashSearch => sys.submit_kv_txn(worker, blk, false, rng),
            KvOp::HashInsertRandom => sys.submit_kv_insert_random(worker, blk, rng),
            KvOp::SkipInsert => sys.submit_skip_txn(worker, blk, true, rng),
            KvOp::SkipSearch => sys.submit_skip_txn(worker, blk, false, rng),
        }
    }
}

/// TPC-C under a given mix; aborted transactions are retried client-side
/// and throughput counts every submitted transaction (they all commit).
pub struct TpccWorkload<S> {
    /// The assembled system (owned or borrowed).
    pub sys: S,
    /// Which transaction mix to run.
    pub mix: TpccMix,
}

impl<S: BorrowMut<TpccBionic>> Workload for TpccWorkload<S> {
    fn name(&self) -> &'static str {
        match self.mix {
            TpccMix::Mixed => "tpcc_mixed",
            TpccMix::NewOrderOnly => "tpcc_neworder",
            TpccMix::PaymentOnly => "tpcc_payment",
        }
    }

    fn machine(&mut self) -> &mut Machine {
        &mut self.sys.borrow_mut().machine
    }

    fn machine_ref(&self) -> &Machine {
        &self.sys.borrow().machine
    }

    fn seed(&self) -> u64 {
        0x79CC
    }

    fn block_size(&self, _worker: usize, i: usize) -> u64 {
        if self.mix.neworder_at(i) {
            TpccBionic::neworder_block_size()
        } else {
            TpccBionic::payment_block_size()
        }
    }

    fn retry(&self) -> Option<RetryBudget> {
        Some(RetryBudget { max_attempts: 1000 })
    }

    fn submit(&mut self, worker: usize, i: usize, blk: TxnBlock, rng: &mut SmallRng) {
        if self.mix.neworder_at(i) {
            self.sys.borrow_mut().submit_neworder(worker, blk, rng);
        } else {
            self.sys.borrow_mut().submit_payment(worker, blk, rng);
        }
    }
}

// ---------------------------------------------------------------------------
// Silo adapters
// ---------------------------------------------------------------------------

/// YCSB-C (read-only) on the Silo baseline.
pub struct YcsbSiloRead<'a>(pub &'a YcsbSilo);

impl SiloWorkload for YcsbSiloRead<'_> {
    fn seed(&self) -> u64 {
        0x51C0
    }

    fn run(&self, model: &mut CoreModel, rng: &mut SmallRng, _i: usize) -> bool {
        self.0.run_read_txn(model, rng)
    }
}

/// Scan-only YCSB-E on the Silo baseline against one software index.
pub struct YcsbSiloScan<'a> {
    /// The loaded database.
    pub sys: &'a YcsbSilo,
    /// Which index to scan (`sys.masstree` or `sys.skiplist`).
    pub index: usize,
}

impl SiloWorkload for YcsbSiloScan<'_> {
    fn seed(&self) -> u64 {
        0x5CA7
    }

    fn run(&self, model: &mut CoreModel, rng: &mut SmallRng, _i: usize) -> bool {
        self.sys.run_scan_txn(model, rng, self.index)
    }
}

/// TPC-C on the Silo baseline; the mix ratio comes from the same
/// [`TpccMix::neworder_at`] the BionicDB generator uses.
pub struct TpccSiloMix<'a> {
    /// The loaded database.
    pub sys: &'a TpccSilo,
    /// Which transaction mix to run.
    pub mix: TpccMix,
}

impl SiloWorkload for TpccSiloMix<'_> {
    fn seed(&self) -> u64 {
        0x7199
    }

    fn run(&self, model: &mut CoreModel, rng: &mut SmallRng, i: usize) -> bool {
        if self.mix.neworder_at(i) {
            self.sys.run_neworder(model, rng)
        } else {
            self.sys.run_payment(model, rng)
        }
    }
}

// ---------------------------------------------------------------------------
// Factory: the standard workload set, for harnesses that iterate workloads
// ---------------------------------------------------------------------------

/// The standard workload set at test scale. Harnesses (equivalence tests,
/// `goldencheck`) iterate [`StdWorkload::ALL`] instead of hand-wiring
/// each system, so a new workload joins every cross-cutting test by adding
/// one variant here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StdWorkload {
    /// YCSB with per-op homes (exercises the NoC path).
    Ycsb(YcsbKind),
    /// TPC-C under a mix (exercises retry + multi-table commits).
    Tpcc(TpccMix),
    /// SmallBank (exercises the ABI seam: added with zero engine changes).
    SmallBank,
}

impl StdWorkload {
    /// One representative of each workload family.
    pub const ALL: [StdWorkload; 3] = [
        StdWorkload::Ycsb(YcsbKind::ReadHomed),
        StdWorkload::Tpcc(TpccMix::Mixed),
        StdWorkload::SmallBank,
    ];

    /// Build the workload at unit-test scale on `cfg`.
    pub fn build(self, cfg: BionicConfig) -> Box<dyn Workload> {
        match self {
            StdWorkload::Ycsb(kind) => Box::new(YcsbWorkload {
                sys: YcsbBionic::build(cfg, YcsbSpec::tiny(), 12),
                kind,
            }),
            StdWorkload::Tpcc(mix) => Box::new(TpccWorkload {
                sys: TpccBionic::build(cfg, TpccSpec::tiny()),
                mix,
            }),
            StdWorkload::SmallBank => Box::new(SmallBankWorkload {
                sys: SmallBankBionic::build(cfg, SmallBankSpec::tiny()),
            }),
        }
    }
}
