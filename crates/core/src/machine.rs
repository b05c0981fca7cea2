//! The whole BionicDB machine and its host-side client API.
//!
//! [`SystemBuilder`] registers tables and stored procedures (the catalogue
//! upload of paper §4.2), then [`SystemBuilder::build`] lays the partitions
//! out in simulated FPGA-side DRAM and instantiates the partition workers
//! and the on-chip interconnect. [`Machine`] then plays both roles the
//! paper describes:
//!
//! * the **host CPU** — allocating and populating transaction blocks,
//!   submitting them to worker input queues, and reading results back
//!   (the paper pre-populates input blocks from the host, §5.1);
//! * the **FPGA clock** — [`Machine::tick`] advances every component by one
//!   cycle, deterministically.

use bionicdb_fpga::fault::FaultPlan;
use bionicdb_fpga::{AbortReasons, Dram, NullSink, Region, TraceSink};
use bionicdb_noc::Noc;
use bionicdb_softcore::catalogue::{Catalogue, ProcId, TableId, TableMeta};
use bionicdb_softcore::core::SoftcoreParams;
use bionicdb_softcore::isa::Procedure;
use bionicdb_softcore::txnblock::TxnStatus;
use bionicdb_softcore::{PartitionId, SoftcoreStats, TxnBlock};

use crate::config::BionicConfig;
use crate::recovery::DurableImage;
use crate::report::MachineReport;
use crate::storage::{Loader, Partition};
use crate::worker::PartitionWorker;

mod fleet;
mod par;

/// The crash hook: called exactly once, at the crash cycle, with the
/// machine frozen in its crash-instant state. It must return the
/// [`DurableImage`] — the bytes that survive the power loss (command log +
/// checkpoint, with any scheduled durable-medium faults applied). Anything
/// it does not serialize is, by definition, lost.
pub type CrashHook = Box<dyn FnMut(&Machine) -> DurableImage>;

/// Builder for a [`Machine`]: registers the schema and the stored
/// procedures before the memory layout is fixed.
#[derive(Debug)]
pub struct SystemBuilder {
    cfg: BionicConfig,
    cat: Catalogue,
}

impl SystemBuilder {
    /// Start building a machine with the given configuration.
    pub fn new(cfg: BionicConfig) -> Self {
        cfg.validate();
        SystemBuilder {
            cfg,
            cat: Catalogue::new(),
        }
    }

    /// Register a table on every partition.
    pub fn table(&mut self, meta: TableMeta) -> TableId {
        self.cat
            .register_table(meta)
            .expect("catalogue table capacity")
    }

    /// Register (upload) a stored procedure.
    pub fn proc(&mut self, proc: Procedure) -> ProcId {
        self.cat
            .register_proc(proc)
            .expect("invalid stored procedure")
    }

    /// Register a stored procedure from its upload wire format — the exact
    /// byte stream a client ships over PCIe (paper §4.2).
    pub fn proc_bytes(
        &mut self,
        bytes: &[u8],
    ) -> Result<ProcId, bionicdb_softcore::catalogue::CatalogueError> {
        self.cat.register_proc_bytes(bytes)
    }

    /// Instantiate the machine: carve DRAM into per-worker block arenas and
    /// partitions, and construct the workers and interconnect.
    pub fn build(self) -> Machine {
        let SystemBuilder { cfg, cat } = self;
        let dram = Dram::new(&cfg.fpga, cfg.dram_bytes);
        let coproc_cfg = cfg.coproc();
        let mut sc_params = SoftcoreParams::from_fpga(&cfg.fpga, cfg.mode);
        sc_params.max_batch = cfg.max_batch;
        sc_params.batch_mode = cfg.batch_mode;
        let noc = Noc::new(cfg.topology, cfg.workers, cfg.fpga.noc_hop_latency);

        // DRAM map: [0, 64 KiB) reserved; then per-worker block arena +
        // partition, in worker order.
        let mut map = Region::new(64 * 1024, cfg.dram_bytes - 64 * 1024);
        let mut partitions = Vec::with_capacity(cfg.workers);
        let mut workers = Vec::with_capacity(cfg.workers);
        // Each worker gets its own DRAM *bank*: private controllers and
        // ports over the shared byte image (see [`Dram::bank`]). This is
        // both the HC-2's physical DIMM partitioning and what lets the
        // epoch-parallel scheduler hand a worker its memory channel on its
        // own thread. `dram` itself keeps the host/PCIe role: untimed
        // loads, block population, digests.
        let mut banks = Vec::with_capacity(cfg.workers);
        for w in 0..cfg.workers {
            let id = PartitionId(w as u16);
            let arena = map.carve(cfg.block_arena_bytes, 64);
            let pregion = map.carve(cfg.partition_bytes, 64);
            partitions.push(Partition::build(
                id,
                &cat,
                pregion,
                arena,
                cfg.fpga.skiplist_max_level,
            ));
            let mut bank = dram.bank();
            // MLP occupancy sampling is only worth its per-issue cost when
            // the batch engines are in play; leaving it off also keeps the
            // default machine's reports byte-identical to older builds.
            bank.set_mlp_tracking(cfg.batch_mode != bionicdb_softcore::BatchMode::Off);
            workers.push(PartitionWorker::new(
                id,
                sc_params,
                &coproc_cfg,
                &mut bank,
                cfg.noc_retry,
            ));
            banks.push(bank);
        }
        let lane_activity = (0..workers.len()).map(|_| LaneActivity::new()).collect();
        Machine {
            cfg,
            dram,
            banks,
            noc,
            cat,
            workers,
            partitions,
            now: 0,
            fast_forward: true,
            sim_threads: 1,
            ticks_executed: 0,
            lane_activity,
            epoch_rounds: 0,
            fault_plan: FaultPlan::none(),
            crashed: false,
            crash_hook: None,
            crash_image: None,
            resubmits: 0,
            trace_sink: Box::new(NullSink),
            fleet_chips: 0,
            fleet: None,
        }
    }
}

/// Aggregated machine statistics.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct MachineStats {
    /// Transactions committed across all workers.
    pub committed: u64,
    /// Transactions aborted across all workers.
    pub aborted: u64,
    /// Batches completed across all workers.
    pub batches: u64,
    /// DB instructions dispatched.
    pub db_insts: u64,
    /// CPU instructions executed.
    pub cpu_insts: u64,
    /// Current simulation time in cycles.
    pub now: u64,
    /// Client-side resubmissions of aborted blocks (host instrumentation).
    pub resubmits: u64,
    /// Aborts attributable to interconnect faults: the sum of the workers'
    /// `retry_exhausted` counters (each synthesized `Timeout` aborts the
    /// waiting transaction). `aborted - fault_aborts` is the
    /// concurrency-control abort count.
    pub fault_aborts: u64,
    /// Why transactions aborted, summed across all workers (attributed
    /// from the DB status observed at the `Ret` collecting each result).
    pub abort_reasons: AbortReasons,
}

impl MachineStats {
    /// Transactions per second of simulated time over a window.
    pub fn throughput(committed_delta: u64, cycles_delta: u64, clock_hz: u64) -> f64 {
        if cycles_delta == 0 {
            return 0.0;
        }
        committed_delta as f64 * clock_hz as f64 / cycles_delta as f64
    }
}

/// Client-side retry policy for [`Machine::retry_to_completion`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryBudget {
    /// Maximum resubmit rounds before giving up on still-aborted blocks.
    pub max_attempts: u32,
}

impl Default for RetryBudget {
    fn default() -> Self {
        RetryBudget { max_attempts: 64 }
    }
}

/// What [`Machine::retry_to_completion`] achieved.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RetryOutcome {
    /// Blocks that ended committed.
    pub committed: u64,
    /// Total resubmissions performed.
    pub resubmissions: u64,
    /// Blocks still not committed when the budget ran out (or the machine
    /// crashed), with their workers — the caller decides what to do.
    pub gave_up: Vec<(usize, TxnBlock)>,
}

impl RetryOutcome {
    /// True when every block committed.
    pub fn all_committed(&self) -> bool {
        self.gave_up.is_empty()
    }
}

/// Per-lane instrumentation from the epoch-parallel scheduler. Simulator
/// measurements, not machine state: excluded from [`MachineStats`] and
/// [`Machine::report`], surfaced only by tooling (`simperf --par`).
#[derive(Debug, Clone, Copy)]
pub struct LaneActivity {
    /// Component ticks this lane executed across all epoch rounds.
    pub ticks: u64,
    /// Cycles this lane fast-forwarded over instead of ticking.
    pub skips: u64,
    /// Epoch rounds in which this lane was scheduled (had work below its
    /// horizon). Unscheduled rounds cost the lane nothing — the work-
    /// stealing scheduler never locks an idle lane.
    pub rounds: u64,
    /// Wall-clock nanoseconds between this lane finishing its round and
    /// the round's barrier releasing — the skew the work-stealing
    /// scheduler exists to shrink. Wall-clock, hence nondeterministic;
    /// everything the machine observes stays bit-exact regardless. Not
    /// measured across processes: always 0 in fleet mode.
    pub barrier_idle_ns: u64,
    /// Distribution of this lane's epoch lengths (cycles between its
    /// round-entry position and the horizon it was released to).
    pub epoch_len: bionicdb_fpga::obs::LatencyHistogram,
}

impl LaneActivity {
    pub(crate) fn new() -> Self {
        LaneActivity {
            ticks: 0,
            skips: 0,
            rounds: 0,
            barrier_idle_ns: 0,
            epoch_len: bionicdb_fpga::obs::LatencyHistogram::new(),
        }
    }

    /// Add one phase's activity to these totals.
    pub(crate) fn absorb(&mut self, phase: &LaneActivity) {
        self.ticks += phase.ticks;
        self.skips += phase.skips;
        self.rounds += phase.rounds;
        self.barrier_idle_ns += phase.barrier_idle_ns;
        self.epoch_len.merge(&phase.epoch_len);
    }
}

/// A fully assembled BionicDB machine.
pub struct Machine {
    cfg: BionicConfig,
    /// Host-facing DRAM view: untimed reads/writes, image digests. No
    /// simulated component issues through it.
    dram: Dram,
    /// Worker `w`'s memory bank (same byte image, private timing state),
    /// indexed like `workers`.
    banks: Vec<Dram>,
    noc: Noc,
    cat: Catalogue,
    workers: Vec<PartitionWorker>,
    partitions: Vec<Partition>,
    now: u64,
    fast_forward: bool,
    /// Worker threads for [`Machine::run_to_quiescence`]; 1 = serial.
    sim_threads: usize,
    /// Host-side instrumentation: number of `tick()` calls actually
    /// executed (simulated cycles minus skipped ones). Not part of
    /// [`MachineStats`] — it measures the simulator, not the machine, and
    /// deliberately differs between strict and fast-forward runs.
    ticks_executed: u64,
    /// Host-side instrumentation for the epoch-parallel scheduler: per
    /// lane (worker), the component ticks executed and the cycles skipped
    /// across all epoch phases. Like [`Machine::ticks_executed`] it
    /// measures the simulator, not the machine — it stays out of
    /// [`MachineStats`] and the report, and is only surfaced by tooling
    /// (`simperf --par`).
    lane_activity: Vec<LaneActivity>,
    /// Epoch-round barriers executed by the lane engine (across all calls) —
    /// the denominator of the lookahead study: fewer rounds for the same
    /// simulated span means longer epochs and less synchronization.
    /// Simulator instrumentation, like `ticks_executed`.
    epoch_rounds: u64,
    /// The installed fault schedule (its NoC/DRAM parts are distributed to
    /// those components at install time; the crash/log parts live here).
    fault_plan: FaultPlan,
    /// Latched once the crash cycle is reached; a crashed machine is inert.
    crashed: bool,
    /// Snapshots durable state at the crash instant.
    crash_hook: Option<CrashHook>,
    /// What the crash hook salvaged.
    crash_image: Option<DurableImage>,
    /// Client-side resubmissions (see [`Machine::resubmit`]).
    resubmits: u64,
    /// Where per-transaction trace events go. The default [`NullSink`]
    /// disables tracing entirely: no events are buffered anywhere, and the
    /// run is bit-identical to one with a real sink installed (the sink is
    /// host-side instrumentation — nothing in the machine reads it).
    trace_sink: Box<dyn TraceSink>,
    /// Chip processes requested for fleet-mode simulation (0 or 1 = off).
    /// See `machine/fleet.rs`.
    fleet_chips: usize,
    /// The spawned fleet, once the first fleet run has forked the chips.
    fleet: Option<fleet::Fleet>,
}

impl Machine {
    // ----- host-side client API -----

    /// Allocate a transaction block of `size` bytes in `worker`'s arena.
    pub fn alloc_block(&mut self, worker: usize, size: u64) -> TxnBlock {
        let addr = self.partitions[worker].block_arena.alloc(size, 64);
        TxnBlock::new(addr, size)
    }

    /// Initialize a block's header for an invocation of `proc`.
    pub fn init_block(&mut self, blk: TxnBlock, proc: ProcId) {
        blk.init(&mut self.dram, proc);
    }

    /// Write bytes into a block's user area.
    pub fn write_block(&mut self, blk: TxnBlock, user_off: u64, data: &[u8]) {
        blk.write_user(&mut self.dram, user_off, data);
    }

    /// Write a u64 into a block's user area.
    pub fn write_block_u64(&mut self, blk: TxnBlock, user_off: u64, v: u64) {
        blk.write_user_u64(&mut self.dram, user_off, v);
    }

    /// Read bytes from a block's user area.
    pub fn read_block(&self, blk: TxnBlock, user_off: u64, len: u64) -> Vec<u8> {
        blk.read_user(&self.dram, user_off, len)
    }

    /// Read a u64 from a block's user area.
    pub fn read_block_u64(&self, blk: TxnBlock, user_off: u64) -> u64 {
        blk.read_user_u64(&self.dram, user_off)
    }

    /// The execution status the softcore wrote back into the block.
    pub fn block_status(&self, blk: TxnBlock) -> TxnStatus {
        blk.status(&self.dram)
    }

    /// The commit timestamp the softcore wrote back into the block.
    pub fn block_commit_ts(&self, blk: TxnBlock) -> u64 {
        blk.commit_ts(&self.dram)
    }

    /// Submit a populated block to `worker`'s input queue, stamping the
    /// current cycle as the block's submission time so queue-wait latency
    /// is measured from here. This is both the preload path (fill every
    /// queue, then run to quiescence) and the streaming-arrival entry
    /// point of the serving front end (DESIGN.md §17): called mid-run,
    /// between [`Machine::step_until`] calls, a transaction enters at an
    /// arbitrary simulated cycle. Submitting at cycle 0 is therefore
    /// byte-identical to a preload (see the `inject_equivalence`
    /// proptest).
    pub fn submit(&mut self, worker: usize, blk: TxnBlock) {
        if let Some(f) = &mut self.fleet {
            // The live worker lives in a chip process: queue the submit for
            // relay with the next phase's opening frame, stamped with
            // *this* cycle so queue-wait latency is unchanged.
            f.pending_submits.push((worker, blk.addr(), self.now));
            return;
        }
        self.workers[worker].softcore.submit_at(blk.addr(), self.now);
    }

    /// Re-submit an aborted block unchanged (client-side retry): the block
    /// preserves its inputs through execution (§4.8), so resetting the
    /// status word is all a retry needs.
    pub fn resubmit(&mut self, worker: usize, blk: TxnBlock) {
        assert_eq!(
            self.block_status(blk),
            TxnStatus::Aborted,
            "only aborted blocks are retried"
        );
        self.dram
            .host_write_u64(blk.addr() + bionicdb_softcore::txnblock::STATUS_OFFSET, 0);
        self.resubmits += 1;
        self.submit(worker, blk);
    }

    /// Drive a set of executed blocks to completion under a bounded retry
    /// policy: aborted blocks are resubmitted (inputs are preserved through
    /// execution, §4.8) for up to `budget.max_attempts` rounds, each run to
    /// quiescence (bounded by `limit` cycles per round).
    ///
    /// Blocks still aborted when the budget is spent — or still pending
    /// because the machine crashed mid-round — are returned in
    /// [`RetryOutcome::gave_up`] instead of looping forever. This is the
    /// client-side retry policy the harnesses use in place of ad-hoc
    /// unbounded resubmit loops.
    pub fn retry_to_completion(
        &mut self,
        blocks: &[(usize, TxnBlock)],
        budget: RetryBudget,
        limit: u64,
    ) -> RetryOutcome {
        let mut outcome = RetryOutcome::default();
        for _ in 0..budget.max_attempts {
            if self.crashed {
                break;
            }
            let aborted: Vec<(usize, TxnBlock)> = blocks
                .iter()
                .copied()
                .filter(|&(_, blk)| self.block_status(blk) == TxnStatus::Aborted)
                .collect();
            if aborted.is_empty() {
                break;
            }
            for &(w, blk) in &aborted {
                self.resubmit(w, blk);
                outcome.resubmissions += 1;
            }
            self.run_to_quiescence_limit(limit);
        }
        for &(w, blk) in blocks {
            if self.block_status(blk) == TxnStatus::Committed {
                outcome.committed += 1;
            } else {
                outcome.gave_up.push((w, blk));
            }
        }
        outcome
    }

    /// Upload a new stored procedure at runtime (wire format). The paper's
    /// headline flexibility claim (§4.3): registering or changing a
    /// transaction updates only the catalogue — no FPGA reconfiguration.
    pub fn register_proc_bytes(
        &mut self,
        bytes: &[u8],
    ) -> Result<ProcId, bionicdb_softcore::catalogue::CatalogueError> {
        assert!(
            self.fleet.is_none(),
            "procedure uploads must precede the fleet spawn (the catalogue \
             is inherited at fork, not relayed)"
        );
        self.cat.register_proc_bytes(bytes)
    }

    /// Host-side bulk loader for `worker`'s partition.
    pub fn loader(&mut self, worker: usize) -> Loader<'_> {
        Loader::new(&mut self.dram, &mut self.partitions[worker])
    }

    // ----- simulation control -----

    /// Advance the whole machine by one cycle. A crashed machine is inert:
    /// the clock freezes and no component runs (the power is off).
    pub fn tick(&mut self) {
        if self.crashed {
            return;
        }
        assert!(
            self.fleet.is_none(),
            "strict ticking is unavailable once a fleet is spawned (worker \
             state lives in the chip processes); use run_to_quiescence"
        );
        self.ticks_executed += 1;
        self.now += 1;
        // Ordering invariants the epoch-parallel scheduler must (and does)
        // preserve — see DESIGN.md §11:
        //  1. worker `w`'s bank delivers its due responses before `w`'s
        //     tick at the same cycle (banks are worker-private, so ticking
        //     bank `w` immediately before worker `w` is exactly the old
        //     global `dram.tick()`-first order as far as `w` can observe);
        //  2. workers tick in id order within a cycle (NoC send/issue order);
        //  3. the trace drain runs after *all* workers, in worker order;
        //  4. the crash check runs last, so the crash-instant state includes
        //     every component's work at the crash cycle.
        for w in 0..self.workers.len() {
            self.banks[w].tick(self.now);
            let worker = &mut self.workers[w];
            let tables = &mut self.partitions[w].tables;
            worker.tick(self.now, &mut self.banks[w], &self.cat, &mut self.noc, tables);
        }
        if self.trace_sink.enabled() {
            for w in &mut self.workers {
                for ev in w.softcore.drain_trace() {
                    self.trace_sink.txn(&ev);
                }
            }
        }
        if let Some(c) = self.fault_plan.crash_at {
            if self.now >= c {
                self.crashed = true;
                if let Some(mut hook) = self.crash_hook.take() {
                    self.crash_image = Some(hook(self));
                }
            }
        }
    }

    /// Advance by `n` cycles.
    pub fn run(&mut self, n: u64) {
        for _ in 0..n {
            self.tick();
        }
    }

    /// Enable or disable the fast-forward scheduler used by
    /// [`Machine::run_to_quiescence`] (on by default). Fast-forwarding is
    /// bit-for-bit equivalent to strict cycle stepping — same final cycle
    /// count, same statistics, same DRAM image — it only skips spans of
    /// cycles in which provably no component could act.
    pub fn set_fast_forward(&mut self, on: bool) {
        self.fast_forward = on;
    }

    /// Run until every worker is quiescent and the interconnect is empty.
    /// Panics after 2^33 cycles (a configuration that cannot finish).
    pub fn run_to_quiescence(&mut self) -> u64 {
        self.run_to_quiescence_limit(1 << 33)
    }

    /// Run to quiescence with the fast-forward scheduler force-enabled for
    /// the duration of the call, restoring the previous setting after.
    pub fn run_fast(&mut self) -> u64 {
        let prev = self.fast_forward;
        self.fast_forward = true;
        let elapsed = self.run_to_quiescence();
        self.fast_forward = prev;
        elapsed
    }

    /// Run until quiescent, panicking after `limit` additional cycles.
    /// Returns early (without quiescing) if the machine crashes.
    pub fn run_to_quiescence_limit(&mut self, limit: u64) -> u64 {
        self.advance(limit, true)
    }

    /// Advance the machine to exactly cycle `target` (no-op if `target`
    /// is in the past), regardless of quiescence: an idle machine still
    /// walks its clock forward, charging idle accounting bit-identically
    /// to strict ticking. This is the streaming counterpart of
    /// [`Machine::run_to_quiescence`]: the serving front end alternates
    /// `submit` (arrivals) with `step_until` (the span until the next
    /// arrival), and the machine executes work *and* absorbs new input at
    /// arbitrary simulated cycles.
    ///
    /// Works in every placement:
    /// - **fast-forward** skips provably-idle spans exactly as in
    ///   `run_to_quiescence_limit`, additionally clamping every skip to
    ///   `target` so the clock lands on it precisely;
    /// - **epoch-parallel** (`sim_threads > 1`) and **fleet** runs are one
    ///   epoch phase with its cap at `target`, finishing every lane there.
    ///   Byte-identity holds because injected input is only visible
    ///   between calls — the event horizon within a call is fixed, the
    ///   same closed-world assumption `run_to_quiescence` makes (DESIGN.md
    ///   §17). In a fleet, injections queued since the last call travel to
    ///   the chips with the phase's opening frame.
    ///
    /// A scheduled crash inside the span is honored: the machine freezes
    /// at the crash cycle with exactly the state serial ticking reaches,
    /// and the call returns early. Returns the cycles actually advanced.
    pub fn step_until(&mut self, target: u64) -> u64 {
        if target <= self.now {
            return 0;
        }
        self.advance(target - self.now, false)
    }

    /// The loop behind [`Machine::run_to_quiescence_limit`] (`quiesce`:
    /// stop once quiescent, panic after `limit` cycles) and
    /// [`Machine::step_until`] (stop exactly `limit` cycles on, quiescent
    /// or not). Either way it stops early once the machine crashes, and
    /// returns the cycles advanced.
    ///
    /// With more than one sim thread or fleet chip, the whole call is one
    /// epoch phase on the lane engine (bit-exact with the serial loop
    /// below — see `par`); otherwise the serial fast-forward loop runs it.
    fn advance(&mut self, limit: u64, quiesce: bool) -> u64 {
        let start = self.now;
        if self.crashed || (quiesce && self.is_quiescent()) {
            return 0;
        }
        let fleet = self.fleet_chips > 1 || self.fleet.is_some();
        if self.workers.len() > 1 && (fleet || (self.fast_forward && self.sim_threads > 1)) {
            return self.run_lanes(limit, quiesce);
        }
        let target = if quiesce { u64::MAX } else { start + limit };
        loop {
            let done = if quiesce {
                self.is_quiescent()
            } else {
                self.now >= target
            };
            if done || self.crashed {
                break;
            }
            assert!(
                self.now - start < limit,
                "machine did not quiesce within {limit} cycles; workers: {:?}",
                self.workers
            );
            // Fast-forward: when every component agrees nothing can happen
            // before cycle `t`, jump the clock to `t - 1` (charging the
            // skipped span's bulk accounting) and tick normally onto `t`.
            // A delivered-but-unconsumed DRAM response could be consumed on
            // the very next tick, so no skip is attempted while one exists.
            if self.fast_forward && !self.any_buffered_responses() {
                // A quiescent machine (reachable only on a timed run) with
                // no component volunteering an event is provably idle all
                // the way to `target`. Otherwise `None` means no component
                // volunteered a bound: fall through to a strict tick
                // (costs speed only).
                let bound = match self.next_event() {
                    Some(t) => Some(t),
                    None if self.is_quiescent() => Some(target),
                    None => None,
                };
                if let Some(t) = bound {
                    debug_assert!(t > self.now, "next_event returned a past cycle");
                    // Never skip past the target or a scheduled crash: the
                    // crash cycle must be *ticked* in both strict and fast
                    // modes so the crash-instant state is bit-identical.
                    let t = t.min(target);
                    let t = match self.fault_plan.crash_at {
                        Some(c) => t.min(c),
                        None => t,
                    };
                    let t = t.max(self.now + 1);
                    let k = t - self.now - 1;
                    if k > 0 {
                        self.now += k;
                        for w in &mut self.workers {
                            w.skip(k);
                        }
                    }
                }
            }
            self.tick();
        }
        self.now - start
    }

    /// The minimum over every component's next-event estimate: the earliest
    /// future cycle at which anything in the machine could make progress,
    /// attempt an issue, or mutate a statistic. Early-exits at `now + 1`
    /// (nothing to skip) to keep the scan cheap on busy cycles.
    fn next_event(&self) -> Option<u64> {
        let now = self.now;
        let mut best = self.noc.next_event(now);
        if best == Some(now + 1) {
            return best;
        }
        for bank in &self.banks {
            if let Some(t) = bank.next_event() {
                let t = t.max(now + 1);
                best = Some(best.map_or(t, |b| b.min(t)));
                if best == Some(now + 1) {
                    return best;
                }
            }
        }
        for w in &self.workers {
            if let Some(t) = w.next_event(now) {
                best = Some(best.map_or(t, |b| b.min(t)));
                if best == Some(now + 1) {
                    return best;
                }
            }
        }
        best
    }

    /// True when any bank holds a delivered-but-unconsumed response.
    fn any_buffered_responses(&self) -> bool {
        self.banks.iter().any(Dram::has_buffered_responses)
    }

    /// True when no work remains anywhere in the machine.
    pub fn is_quiescent(&self) -> bool {
        if let Some(f) = &self.fleet {
            // The live workers are in the chip processes; consult the
            // slices from the last phase plus anything queued since.
            return self.noc.is_idle()
                && f.pending_submits.is_empty()
                && f.slices.iter().all(|s| s.quiescent);
        }
        self.noc.is_idle() && self.workers.iter().all(PartitionWorker::is_quiescent)
    }

    // ----- fault injection & crash control -----

    /// Install a fault schedule. The NoC and DRAM parts are pushed down to
    /// those components; the crash and durable-medium parts are consulted
    /// by the machine itself (`tick`) and the crash hook. Installing
    /// [`FaultPlan::none()`] is exactly the default: a none-plan run is
    /// bit-identical to a run with no plan installed at all.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        assert!(
            self.fleet.is_none(),
            "fault plans must be installed before the fleet spawns \
             (chips inherit them at fork)"
        );
        self.noc.set_faults(plan.noc.clone());
        // Every bank gets the schedule: DRAM fault ordinals are per-bank
        // ("the nth read *on this worker's memory channel*"), which keeps
        // them deterministic regardless of how worker ticks interleave.
        self.dram.set_faults(plan.dram.clone());
        for bank in &mut self.banks {
            bank.set_faults(plan.dram.clone());
        }
        self.fault_plan = plan;
    }

    /// The installed fault schedule.
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.fault_plan
    }

    /// True once the scheduled crash cycle has been reached. A crashed
    /// machine is inert; only [`Machine::take_crash_image`] is useful.
    pub fn is_crashed(&self) -> bool {
        self.crashed
    }

    /// Install the crash hook that snapshots durable state (command log +
    /// checkpoint bytes) at the crash instant. One-shot: consumed when the
    /// crash fires.
    pub fn set_crash_hook(&mut self, hook: impl FnMut(&Machine) -> DurableImage + 'static) {
        self.crash_hook = Some(Box::new(hook));
    }

    /// The durable bytes salvaged at the crash instant, if the machine has
    /// crashed and a hook was installed. Consumes the image.
    pub fn take_crash_image(&mut self) -> Option<DurableImage> {
        self.crash_image.take()
    }

    // ----- introspection -----

    /// Current cycle count.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Number of `tick()` calls actually executed — simulated cycles minus
    /// the spans the fast-forward scheduler skipped. Simulator
    /// instrumentation, not machine state.
    pub fn ticks_executed(&self) -> u64 {
        self.ticks_executed
    }

    /// Per-lane [`LaneActivity`] totals from the epoch-parallel scheduler,
    /// indexed by worker. All zeros until an epoch-parallel phase has run
    /// (serial and strict schedules do not maintain it). Simulator
    /// instrumentation, not machine state: it is excluded from
    /// [`MachineStats`] and [`Machine::report`] and consumed only by
    /// tooling (`simperf --par`).
    pub fn lane_activity(&self) -> &[LaneActivity] {
        &self.lane_activity
    }

    /// Epoch-round barriers executed by the epoch-parallel scheduler so
    /// far. Simulator instrumentation, not machine state.
    pub fn epoch_rounds(&self) -> u64 {
        self.epoch_rounds
    }

    /// Posted-write acknowledgements the DRAM banks cancelled at
    /// completion instead of delivering (summed over every bank plus the
    /// host view). Simulator instrumentation, not machine state.
    pub fn cancelled_write_acks(&self) -> u64 {
        let banks: u64 = match &self.fleet {
            Some(f) => f.slices.iter().map(|s| s.cancelled_acks).sum(),
            None => self.banks.iter().map(Dram::cancelled_acks).sum(),
        };
        self.dram.cancelled_acks() + banks
    }

    /// Machine configuration.
    pub fn config(&self) -> &BionicConfig {
        &self.cfg
    }

    /// The catalogue (schema + procedures).
    pub fn catalogue(&self) -> &Catalogue {
        &self.cat
    }

    /// The simulated DRAM (host view).
    pub fn dram(&self) -> &Dram {
        &self.dram
    }

    /// Mutable host access to DRAM.
    pub fn dram_mut(&mut self) -> &mut Dram {
        &mut self.dram
    }

    /// Aggregate DRAM statistics summed over every worker's bank (plus the
    /// host view, which never carries simulated traffic).
    pub fn dram_stats(&self) -> bionicdb_fpga::DramStats {
        let mut s = self.dram.stats();
        let fold = |s: &mut bionicdb_fpga::DramStats, b: bionicdb_fpga::DramStats| {
            s.reads += b.reads;
            s.writes += b.writes;
            s.bytes += b.bytes;
            s.rejections += b.rejections;
            s.transient_faults += b.transient_faults;
        };
        match &self.fleet {
            // The live banks are in the chip processes: fold their last
            // reported slices over the coordinator's host-view counters.
            Some(f) => f.slices.iter().for_each(|sl| fold(&mut s, sl.bank)),
            None => self.banks.iter().for_each(|b| fold(&mut s, b.stats())),
        }
        s
    }

    /// Per-port DRAM accounting concatenated in bank (= worker) order —
    /// the same global port order the single shared DRAM used to expose.
    pub fn dram_ports(&self) -> Vec<bionicdb_fpga::PortStats> {
        if let Some(f) = &self.fleet {
            return f
                .slices
                .iter()
                .flat_map(|s| s.ports.iter().copied())
                .collect();
        }
        self.banks
            .iter()
            .flat_map(|b| b.port_stats().iter().copied())
            .collect()
    }

    /// The earliest pending DRAM completion across every worker's bank
    /// (`None` when all memory channels are drained). The host view never
    /// carries timed traffic, so it is not consulted.
    pub fn dram_next_event(&self) -> Option<u64> {
        self.banks.iter().filter_map(Dram::next_event).min()
    }

    /// Set the number of worker threads `run_to_quiescence` may use. `1`
    /// (the default) is the serial scheduler. More than one enables the
    /// epoch-parallel scheduler, which is bit-for-bit identical to serial
    /// ticking — same cycle counts, statistics, DRAM image, report JSON —
    /// for any thread count; only wall-clock time changes. It engages under
    /// fast-forward scheduling (the default); `run(n)`/`tick()` always
    /// step serially.
    pub fn set_sim_threads(&mut self, n: usize) {
        self.sim_threads = n.max(1);
    }

    /// The configured sim-thread count.
    pub fn sim_threads(&self) -> usize {
        self.sim_threads
    }

    /// Request fleet-mode simulation: the first `run_to_quiescence` or
    /// `step_until` call forks `n` chip processes and coordinates them
    /// over shared-memory rings — bit-for-bit identical to the in-process engines
    /// (enforced by `goldencheck`). `0` or `1` disables fleet mode. Must be
    /// called from a single-threaded process (forking), and before the
    /// first fleet run; machine configuration (fault plans, trace sinks,
    /// procedure uploads) must be complete before that run spawns.
    pub fn set_fleet_chips(&mut self, n: usize) {
        assert!(
            self.fleet.is_none(),
            "fleet already spawned; chip count is fixed"
        );
        self.fleet_chips = n;
    }

    /// The requested fleet chip count (0 or 1 = fleet mode off).
    pub fn fleet_chips(&self) -> usize {
        self.fleet_chips
    }

    /// The interconnect.
    pub fn noc(&self) -> &Noc {
        &self.noc
    }

    /// Per-worker softcore statistics.
    pub fn softcore_stats(&self, worker: usize) -> SoftcoreStats {
        self.workers[worker].softcore.stats()
    }

    /// Access to a worker (read-only), for stats.
    pub fn worker(&self, worker: usize) -> &PartitionWorker {
        &self.workers[worker]
    }

    /// Number of workers.
    pub fn num_workers(&self) -> usize {
        self.workers.len()
    }

    /// Partition metadata (read-only).
    pub fn partition(&self, worker: usize) -> &Partition {
        &self.partitions[worker]
    }

    /// Set the in-flight DB instruction bound on every coprocessor
    /// (the Fig. 10/11 sweep knob).
    pub fn set_max_inflight(&mut self, n: usize) {
        assert!(
            self.fleet.is_none(),
            "coprocessor knobs must be set before the fleet spawns"
        );
        for w in &mut self.workers {
            w.coproc.set_max_inflight(n);
        }
    }

    /// A human-readable utilization report: per-worker softcore activity
    /// and index-pipeline statistics (used by the benches and examples to
    /// explain where cycles went).
    pub fn utilization_report(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (w, worker) in self.workers.iter().enumerate() {
            let sc = worker.softcore.stats();
            let cs = worker.coproc.stats();
            let hs = worker.coproc.hash_stats();
            let ss = worker.coproc.skip_stats();
            let _ = writeln!(
                out,
                "worker {w}: {} committed / {} aborted in {} batches;                  {} DB insts ({:.1} mean in-flight);                  softcore stalls: {} cp / {} mem cycles",
                sc.committed,
                sc.aborted,
                sc.batches,
                sc.db_insts,
                cs.mean_inflight(),
                sc.cp_stall_cycles,
                sc.mem_stall_cycles,
            );
            let _ = writeln!(
                out,
                "  hash: {} completed, {} chain walks, {} lock stalls |                  skiplist: {} completed, {} scanned tuples, {} scanner waits",
                hs.completed,
                hs.traversed,
                hs.lock_stalls,
                ss.completed,
                ss.scanned_tuples,
                ss.scanner_waits,
            );
        }
        out
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> MachineStats {
        let mut s = MachineStats {
            now: self.now,
            resubmits: self.resubmits,
            ..MachineStats::default()
        };
        for w in 0..self.workers.len() {
            let (sc, glue) = match &self.fleet {
                Some(f) => (f.slices[w].softcore, f.slices[w].glue),
                None => (self.workers[w].softcore.stats(), self.workers[w].stats()),
            };
            s.committed += sc.committed;
            s.aborted += sc.aborted;
            s.batches += sc.batches;
            s.db_insts += sc.db_insts;
            s.cpu_insts += sc.cpu_insts;
            s.fault_aborts += glue.retry_exhausted;
            match &self.fleet {
                Some(f) => s.abort_reasons.merge(&f.slices[w].obs.abort_reasons),
                None => s
                    .abort_reasons
                    .merge(&self.workers[w].softcore.obs().abort_reasons),
            }
        }
        s
    }

    /// One worker's full report slice, fleet-aware: live counters in
    /// in-process modes, the last `PhaseEnd` snapshot in fleet mode.
    /// [`MachineReport::collect`] reads workers exclusively through this.
    pub fn worker_report(&self, w: usize) -> crate::report::WorkerReport {
        if let Some(f) = &self.fleet {
            let s = &f.slices[w];
            return crate::report::WorkerReport {
                softcore: s.softcore,
                obs: s.obs.clone(),
                glue: s.glue,
                stages: s.stages.clone(),
            };
        }
        let worker = &self.workers[w];
        crate::report::WorkerReport {
            softcore: worker.softcore.stats(),
            obs: worker.softcore.obs().clone(),
            glue: worker.stats(),
            stages: worker.coproc.stage_report(),
        }
    }

    /// Install a trace sink. When the sink reports itself enabled, every
    /// worker's softcore starts buffering per-transaction lifecycle events,
    /// which the machine drains into the sink at the end of each tick.
    /// Installing a [`NullSink`] (the default) turns tracing back off.
    pub fn set_trace_sink(&mut self, sink: Box<dyn TraceSink>) {
        assert!(
            self.fleet.is_none(),
            "trace sinks must be installed before the fleet spawns \
             (chips inherit the tracing flag at fork)"
        );
        let on = sink.enabled();
        for w in &mut self.workers {
            w.softcore.set_tracing(on);
        }
        self.trace_sink = sink;
    }

    /// The installed sink's JSON export, if it produces one ([`NullSink`]
    /// returns `None`).
    pub fn trace_json(&self) -> Option<String> {
        self.trace_sink.export_json()
    }

    /// The full cycle-accurate observability report: merged and per-worker
    /// latency histograms, abort attribution, pipeline stage counters, NoC
    /// link utilization, and DRAM per-port occupancy.
    pub fn report(&self) -> MachineReport {
        MachineReport::collect(self)
    }
}

impl std::fmt::Debug for Machine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Machine")
            .field("now", &self.now)
            .field("workers", &self.workers.len())
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bionicdb_softcore::asm::assemble;

    #[test]
    fn build_allocates_disjoint_partitions() {
        let mut b = SystemBuilder::new(BionicConfig::small(3));
        b.table(TableMeta::hash("t", 8, 8, 1 << 8));
        let mut m = b.build();
        let bases: Vec<u64> = (0..3).map(|w| m.partition(w).tables[0].dir_addr).collect();
        assert!(bases.windows(2).all(|w| w[0] != w[1]));
        let blk_a = m.alloc_block(0, 256);
        let blk_b = m.alloc_block(1, 256);
        assert_ne!(blk_a.addr(), blk_b.addr());
    }

    #[test]
    fn end_to_end_single_search() {
        let mut b = SystemBuilder::new(BionicConfig::small(1));
        let t = b.table(TableMeta::hash("kv", 8, 16, 1 << 8));
        let p = b.proc(
            assemble(
                "proc read1\nlogic:\n    search 0, 0, c0\ncommit:\n    ret g0, c0\n    cmp g0, 0\n    blt abort\n    store g0, [blk+8]\n    commit\nabort:\n    abort\n",
            )
            .unwrap(),
        );
        let mut m = b.build();
        let addr = m.loader(0).insert(t, &7u64.to_be_bytes(), &[9u8; 16]);

        let blk = m.alloc_block(0, 128);
        m.init_block(blk, p);
        m.write_block(blk, 0, &7u64.to_be_bytes());
        m.submit(0, blk);
        m.run_to_quiescence_limit(1 << 22);
        assert_eq!(m.block_status(blk), TxnStatus::Committed);
        assert_eq!(
            m.read_block_u64(blk, 8),
            addr,
            "tuple address stored by sproc"
        );
        assert_eq!(m.stats().committed, 1);
    }

    #[test]
    fn remote_search_crosses_the_noc() {
        let mut b = SystemBuilder::new(BionicConfig::small(2));
        let t = b.table(TableMeta::hash("kv", 8, 16, 1 << 8));
        // Search on partition 1, submitted to worker 0.
        let p = b.proc(
            assemble(
                "proc remote_read\nlogic:\n    search 0, 0, c0, home=1\ncommit:\n    ret g0, c0\n    cmp g0, 0\n    blt abort\n    commit\nabort:\n    abort\n",
            )
            .unwrap(),
        );
        let mut m = b.build();
        m.loader(1).insert(t, &7u64.to_be_bytes(), &[1u8; 16]);

        let blk = m.alloc_block(0, 128);
        m.init_block(blk, p);
        m.write_block(blk, 0, &7u64.to_be_bytes());
        m.submit(0, blk);
        m.run_to_quiescence_limit(1 << 22);
        assert_eq!(m.block_status(blk), TxnStatus::Committed);
        assert_eq!(m.worker(0).stats().remote_requests, 1);
        assert_eq!(m.worker(1).stats().background_requests, 1);
        assert!(
            m.noc().stats().sent >= 2,
            "request + response crossed the NoC"
        );
    }

    fn remote_read_machine(retry: Option<crate::config::NocRetryConfig>) -> (Machine, TxnBlock) {
        let mut b = SystemBuilder::new(BionicConfig {
            noc_retry: retry,
            ..BionicConfig::small(2)
        });
        let t = b.table(TableMeta::hash("kv", 8, 16, 1 << 8));
        let p = b.proc(
            assemble(
                "proc remote_read\nlogic:\n    search 0, 0, c0, home=1\ncommit:\n    ret g0, c0\n    cmp g0, 0\n    blt abort\n    commit\nabort:\n    abort\n",
            )
            .unwrap(),
        );
        let mut m = b.build();
        m.loader(1).insert(t, &7u64.to_be_bytes(), &[1u8; 16]);
        let blk = m.alloc_block(0, 128);
        m.init_block(blk, p);
        m.write_block(blk, 0, &7u64.to_be_bytes());
        m.submit(0, blk);
        (m, blk)
    }

    #[test]
    fn dropped_request_is_retransmitted_and_commits() {
        let retry = crate::config::NocRetryConfig {
            timeout_cycles: 512,
            max_attempts: 3,
        };
        let (mut m, blk) = remote_read_machine(Some(retry));
        // Drop the first accepted send (the remote request).
        m.set_fault_plan(FaultPlan::none().drop_nth_send(0));
        m.run_to_quiescence_limit(1 << 22);
        assert_eq!(m.block_status(blk), TxnStatus::Committed);
        assert_eq!(m.worker(0).stats().retries_sent, 1);
        assert_eq!(m.worker(0).stats().retry_exhausted, 0);
        // The home worker executed the request exactly once.
        assert_eq!(m.worker(1).stats().background_requests, 1);
    }

    #[test]
    fn persistent_loss_times_out_and_aborts_cleanly() {
        let retry = crate::config::NocRetryConfig {
            timeout_cycles: 512,
            max_attempts: 3,
        };
        let (mut m, blk) = remote_read_machine(Some(retry));
        // Drop every send this short run can make.
        let mut plan = FaultPlan::none();
        for n in 0..16 {
            plan = plan.drop_nth_send(n);
        }
        m.set_fault_plan(plan);
        m.run_to_quiescence_limit(1 << 22);
        // The synthesized Timeout drove the sproc's abort branch: the
        // machine quiesced instead of wedging on a lost message.
        assert_eq!(m.block_status(blk), TxnStatus::Aborted);
        let s = m.stats();
        assert_eq!(s.aborted, 1);
        assert_eq!(s.fault_aborts, 1);
        assert_eq!(m.worker(0).stats().retry_exhausted, 1);
        assert_eq!(m.worker(0).stats().retries_sent, 2);
    }

    #[test]
    fn duplicate_request_is_not_executed_twice() {
        // Tight timeout: the request round trip takes longer than the
        // timeout, so the initiator retransmits a request that was *not*
        // lost — the home worker must absorb the duplicate.
        let retry = crate::config::NocRetryConfig {
            timeout_cycles: 32,
            max_attempts: 16,
        };
        let (mut m, blk) = remote_read_machine(Some(retry));
        m.run_to_quiescence_limit(1 << 22);
        assert_eq!(m.block_status(blk), TxnStatus::Committed);
        let w1 = m.worker(1).stats();
        assert_eq!(
            w1.background_requests, 1,
            "the index op executed exactly once despite retransmits"
        );
        let w0 = m.worker(0).stats();
        assert!(w0.retries_sent >= 1, "the tight timeout forced retries");
        assert_eq!(w0.retry_exhausted, 0);
        assert_eq!(
            w1.dup_requests, w0.retries_sent,
            "every retransmit was absorbed as a duplicate at the home worker"
        );
    }

    #[test]
    fn crash_freezes_the_machine_and_salvages_durable_bytes() {
        let (mut m, blk) = remote_read_machine(None);
        m.set_fault_plan(FaultPlan::none().crash_at(50));
        m.set_crash_hook(|m| DurableImage {
            log: vec![0xAB],
            checkpoint: m.now().to_le_bytes().to_vec(),
        });
        m.run_to_quiescence_limit(1 << 22);
        assert!(m.is_crashed());
        assert_eq!(m.now(), 50, "crash fires exactly at its scheduled cycle");
        assert_ne!(m.block_status(blk), TxnStatus::Committed);
        let img = m.take_crash_image().expect("hook ran");
        assert_eq!(img.log, vec![0xAB]);
        assert_eq!(img.checkpoint, 50u64.to_le_bytes().to_vec());
        // A crashed machine is inert: ticking does nothing.
        let before = m.now();
        m.run(100);
        assert_eq!(m.now(), before);
    }

    #[test]
    fn retry_to_completion_gives_up_on_poisoned_blocks() {
        // A read of a missing key aborts deterministically every time:
        // the budget must bound the resubmissions.
        let mut b = SystemBuilder::new(BionicConfig::small(1));
        b.table(TableMeta::hash("kv", 8, 16, 1 << 8));
        let p = b.proc(
            assemble(
                "proc read1\nlogic:\n    search 0, 0, c0\ncommit:\n    ret g0, c0\n    cmp g0, 0\n    blt abort\n    commit\nabort:\n    abort\n",
            )
            .unwrap(),
        );
        let mut m = b.build();
        let blk = m.alloc_block(0, 128);
        m.init_block(blk, p);
        m.write_block(blk, 0, &7u64.to_be_bytes());
        m.submit(0, blk);
        m.run_to_quiescence_limit(1 << 22);
        assert_eq!(m.block_status(blk), TxnStatus::Aborted);
        let budget = RetryBudget { max_attempts: 3 };
        let out = m.retry_to_completion(&[(0, blk)], budget, 1 << 22);
        assert!(!out.all_committed());
        assert_eq!(out.resubmissions, 3);
        assert_eq!(out.gave_up, vec![(0, blk)]);
        assert_eq!(m.stats().resubmits, 3);
    }
}
