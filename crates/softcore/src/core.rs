//! The softcore execution engine (paper §4.3 and §4.5).
//!
//! The softcore executes stored procedures. CPU instructions run in five
//! non-pipelined steps (a fixed cycle cost per instruction); LOAD/STORE
//! additionally touch FPGA-side DRAM through the softcore's memory port; DB
//! instructions are *dispatched asynchronously* after a short
//! Prepare+Dispatch sequence and their results arrive later in CP registers.
//!
//! # Two-phase batch execution with transaction interleaving (paper §4.5)
//!
//! Whenever a transaction block arrives, the softcore checks the catalogue
//! for the procedure's register footprint and, if enough GP/CP registers
//! remain, the transaction **joins the current batch** with an exclusive,
//! renamed register range and starts executing immediately. At the end of
//! its transaction logic (the `YIELD` delimiter) the softcore saves the
//! context in the BRAM context table (10 cycles) and moves on — *without*
//! waiting for outstanding DB instructions, which is what overlaps index
//! operations across transactions.
//!
//! When register allocation fails (or input runs dry), the batch closes:
//! the softcore returns to the first transaction, restores its context with
//! the program counter at the commit handler, and executes the
//! commit/abort handlers of every transaction in serial order.
//!
//! In [`ExecMode::Serial`] every batch holds exactly one transaction —
//! the baseline the paper compares against in Fig. 12.

use bionicdb_fpga::{
    AbortReasons, Dram, Fifo, LatencyHistogram, MemData, MemKind, MemRequest, Tag, TxnEvent,
};

use crate::catalogue::{Catalogue, ProcId};
use crate::isa::{AluOp, Cond, Inst, MemBase, Operand};
use crate::request::{BatchMode, CpSlot, DbOp, DbRequest, PartitionId};
use crate::result::{DbResult, DbStatus};
use crate::txnblock::{BLOCK_HEADER_SIZE, COMMIT_TS_OFFSET, STATUS_OFFSET};

/// Cycle timestamp alias.
type Cycle = u64;

/// Memory-request tag for LOAD instructions.
const TAG_LOAD: Tag = Tag(0);
/// Memory-request tag for posted STOREs.
const TAG_STORE: Tag = Tag(1);
/// Memory-request tag for transaction-block header fetches.
const TAG_HEADER: Tag = Tag(2);

/// Whether the softcore interleaves transactions within a batch
/// (paper §4.5) or executes them one at a time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// Two-phase batch execution with transaction interleaving.
    Interleaved,
    /// Serial execution: logic + commit of each transaction before the next
    /// one starts (the baseline of paper Fig. 12).
    Serial,
}

/// Tunable parameters of one softcore instance, extracted from
/// [`bionicdb_fpga::FpgaConfig`] by the caller.
#[derive(Debug, Clone, Copy)]
pub struct SoftcoreParams {
    /// Cycles per CPU instruction (5-step execution).
    pub cpu_inst_cycles: Cycle,
    /// Cycles for Prepare+Dispatch of a DB instruction.
    pub db_dispatch_cycles: Cycle,
    /// Cycles per context save/restore pair.
    pub context_switch: Cycle,
    /// Total GP (= CP) registers available for batch allocation.
    pub num_registers: usize,
    /// Maximum contexts in the BRAM context table (bounds batch size).
    pub max_batch: usize,
    /// Interleaved or serial execution.
    pub mode: ExecMode,
    /// How read-set probes are grouped for the coprocessor's batched
    /// level-wise traversal engine (DESIGN.md §16). `Off` is bit-inert.
    pub batch_mode: BatchMode,
}

impl SoftcoreParams {
    /// Derive softcore parameters from the fabric configuration.
    pub fn from_fpga(cfg: &bionicdb_fpga::FpgaConfig, mode: ExecMode) -> Self {
        SoftcoreParams {
            cpu_inst_cycles: cfg.cpu_inst_cycles,
            db_dispatch_cycles: cfg.db_dispatch_cycles,
            context_switch: cfg.context_switch,
            num_registers: cfg.num_registers,
            max_batch: 64,
            mode,
            batch_mode: BatchMode::Off,
        }
    }
}

/// Why a transaction context finished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CtxOutcome {
    Committed,
    Aborted,
}

/// Saved state of one in-batch transaction (the BRAM context table entry:
/// program counter, transaction-block base address and register ranges —
/// paper §4.5).
#[derive(Debug)]
struct Context {
    proc: ProcId,
    block_addr: u64,
    pc: u32,
    gp_base: u16,
    cp_base: u16,
    ts: u64,
    /// Set when the logic phase requested an abort (exception or voluntary).
    failed: bool,
    outcome: Option<CtxOutcome>,
    /// Lifecycle timestamps (host-side observability; never read by the
    /// execution path): submission to the input queue, logic phase start
    /// (ingest) and end (YIELD/exception), commit handler start.
    submitted_at: Cycle,
    logic_start: Cycle,
    logic_end: Cycle,
    commit_start: Cycle,
    /// The last DB error this transaction collected through a RET — the
    /// abort reason attributed if the transaction ends up aborting.
    last_err: Option<DbStatus>,
}

/// What the core is doing this cycle.
#[derive(Debug)]
enum CoreState {
    /// Nothing runnable.
    Idle,
    /// Waiting for the transaction-block header read to come back.
    FetchHeader {
        addr: u64,
        issued: bool,
        submitted_at: Cycle,
    },
    /// Charging the fixed cost of the current instruction.
    Exec { remaining: Cycle },
    /// LOAD issued; waiting for the DRAM response.
    WaitLoad {
        rd_global: usize,
        issued: bool,
        addr: u64,
    },
    /// STORE not yet accepted by DRAM (controller busy).
    WaitStore { addr: u64, value: u64 },
    /// RET waiting for CP register `idx` (global index) to become valid.
    WaitCp { idx: usize },
    /// DB dispatch stalled on a full request channel.
    DispatchStall,
    /// Context switch in progress.
    Switching { remaining: Cycle, then: AfterSwitch },
    /// Batch finished commit phase; waiting for stray outstanding results
    /// before the register file is recycled.
    BatchDrain,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AfterSwitch {
    /// Go look for new input (logic phase, after a yield).
    Ingest,
    /// Start executing the current context at its saved PC.
    Resume,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Logic,
    Commit,
}

/// Execution statistics for one softcore.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SoftcoreStats {
    /// CPU instructions executed.
    pub cpu_insts: u64,
    /// DB instructions dispatched.
    pub db_insts: u64,
    /// Transactions committed.
    pub committed: u64,
    /// Transactions aborted.
    pub aborted: u64,
    /// Batches completed.
    pub batches: u64,
    /// Context switches performed.
    pub switches: u64,
    /// Cycles stalled waiting for CP results.
    pub cp_stall_cycles: u64,
    /// Cycles stalled on memory (loads, stores, header fetches).
    pub mem_stall_cycles: u64,
}

/// Host-side observability counters for one softcore: per-phase latency
/// histograms, the per-DB-op round trip, and abort attribution. Collected
/// unconditionally — recording is simulation-passive (no DRAM, FIFO, or
/// timing state is touched), so strict and fast-forward runs produce
/// identical values whether or not anyone reads them.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct SoftcoreObs {
    /// Submission → logic start (input-queue wait).
    pub queue_wait: LatencyHistogram,
    /// Logic start → YIELD/exception (the transaction logic phase).
    pub logic: LatencyHistogram,
    /// Logic end → commit handler start (batch interleaving wait).
    pub commit_wait: LatencyHistogram,
    /// Commit handler start → COMMIT/ABORT retirement.
    pub commit: LatencyHistogram,
    /// Submission → retirement, committed transactions only.
    pub txn_commit: LatencyHistogram,
    /// Submission → retirement, aborted transactions only.
    pub txn_abort: LatencyHistogram,
    /// DB instruction dispatch → CP writeback round trip.
    pub db_op: LatencyHistogram,
    /// Why transactions aborted (the last DB error each one observed).
    pub abort_reasons: AbortReasons,
}

impl bionicdb_fpga::wire::Wire for SoftcoreStats {
    fn put(&self, out: &mut Vec<u8>) {
        for v in [
            self.cpu_insts,
            self.db_insts,
            self.committed,
            self.aborted,
            self.batches,
            self.switches,
            self.cp_stall_cycles,
            self.mem_stall_cycles,
        ] {
            v.put(out);
        }
    }
    fn get(r: &mut bionicdb_fpga::wire::Reader<'_>) -> Self {
        SoftcoreStats {
            cpu_insts: r.get(),
            db_insts: r.get(),
            committed: r.get(),
            aborted: r.get(),
            batches: r.get(),
            switches: r.get(),
            cp_stall_cycles: r.get(),
            mem_stall_cycles: r.get(),
        }
    }
}

impl bionicdb_fpga::wire::Wire for SoftcoreObs {
    fn put(&self, out: &mut Vec<u8>) {
        self.queue_wait.put(out);
        self.logic.put(out);
        self.commit_wait.put(out);
        self.commit.put(out);
        self.txn_commit.put(out);
        self.txn_abort.put(out);
        self.db_op.put(out);
        self.abort_reasons.put(out);
    }
    fn get(r: &mut bionicdb_fpga::wire::Reader<'_>) -> Self {
        SoftcoreObs {
            queue_wait: r.get(),
            logic: r.get(),
            commit_wait: r.get(),
            commit: r.get(),
            txn_commit: r.get(),
            txn_abort: r.get(),
            db_op: r.get(),
            abort_reasons: r.get(),
        }
    }
}

impl SoftcoreObs {
    /// Fold `other`'s counters into `self` (exact; see
    /// [`LatencyHistogram::merge`]).
    pub fn merge(&mut self, other: &SoftcoreObs) {
        self.queue_wait.merge(&other.queue_wait);
        self.logic.merge(&other.logic);
        self.commit_wait.merge(&other.commit_wait);
        self.commit.merge(&other.commit);
        self.txn_commit.merge(&other.txn_commit);
        self.txn_abort.merge(&other.txn_abort);
        self.db_op.merge(&other.db_op);
        self.abort_reasons.merge(&other.abort_reasons);
    }
}

/// The softcore of one partition worker.
pub struct Softcore {
    worker: PartitionId,
    params: SoftcoreParams,
    port: bionicdb_fpga::PortId,

    gp: Vec<u64>,
    cp: Vec<Option<i64>>,
    flags: std::cmp::Ordering,

    /// Input queue entries: `(block_addr, submission cycle)`.
    input: std::collections::VecDeque<(u64, Cycle)>,
    pending_block: Option<(u64, Cycle)>,
    /// Input-queue prefetch unit: header read in flight for the block at
    /// the front of the input queue.
    prefetch_inflight: Option<u64>,
    /// A prefetched `(block_addr, proc_id)` ready for ingest.
    prefetched: Option<(u64, u64)>,

    contexts: Vec<Context>,
    cur: usize,
    phase: Phase,
    gp_next: u16,
    cp_next: u16,
    state: CoreState,
    outstanding: u32,

    stats: SoftcoreStats,
    obs: SoftcoreObs,
    /// Dispatch cycle of the DB instruction whose result will land in each
    /// (batch-global) CP register — for the `db_op` round-trip histogram.
    cp_issued_at: Vec<Cycle>,
    /// When set (a real [`bionicdb_fpga::TraceSink`] is installed on the
    /// machine), retired transactions buffer a [`TxnEvent`]. Off by
    /// default; the buffer is the *only* state that differs with tracing
    /// on/off, and nothing in the execution path reads it.
    tracing: bool,
    trace: Vec<TxnEvent>,
}

impl Softcore {
    /// Create a softcore for `worker`, registering its memory port on `dram`.
    pub fn new(worker: PartitionId, params: SoftcoreParams, dram: &mut Dram) -> Self {
        let n = params.num_registers;
        Softcore {
            worker,
            params,
            port: dram.register_port(),
            gp: vec![0; n],
            cp: vec![None; n],
            flags: std::cmp::Ordering::Equal,
            input: std::collections::VecDeque::new(),
            pending_block: None,
            prefetch_inflight: None,
            prefetched: None,
            contexts: Vec::new(),
            cur: 0,
            phase: Phase::Logic,
            gp_next: 0,
            cp_next: 0,
            state: CoreState::Idle,
            outstanding: 0,
            stats: SoftcoreStats::default(),
            obs: SoftcoreObs::default(),
            cp_issued_at: vec![0; n],
            tracing: false,
            trace: Vec::new(),
        }
    }

    /// Submit a transaction block (by DRAM address) to the input queue.
    /// Models the host filling the worker's input queue (paper §5.1).
    /// Queue-wait latency is measured from cycle 0; callers that know the
    /// submission cycle should use [`Softcore::submit_at`].
    pub fn submit(&mut self, block_addr: u64) {
        self.input.push_back((block_addr, 0));
    }

    /// Submit a transaction block at cycle `now`, stamping the submission
    /// time for the queue-wait histogram.
    pub fn submit_at(&mut self, block_addr: u64, now: Cycle) {
        self.input.push_back((block_addr, now));
    }

    /// True when all submitted work has fully completed.
    pub fn is_quiescent(&self) -> bool {
        self.input.is_empty()
            && self.pending_block.is_none()
            && self.contexts.is_empty()
            && self.outstanding == 0
            && matches!(self.state, CoreState::Idle)
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> SoftcoreStats {
        self.stats
    }

    /// Observability counters (latency histograms, abort attribution).
    pub fn obs(&self) -> &SoftcoreObs {
        &self.obs
    }

    /// Enable or disable [`TxnEvent`] buffering for an installed trace
    /// sink. Buffering is host-side only; toggling it never changes
    /// simulation behaviour.
    pub fn set_tracing(&mut self, on: bool) {
        self.tracing = on;
    }

    /// Drain the buffered trace events (empty unless tracing is enabled).
    pub fn drain_trace(&mut self) -> Vec<TxnEvent> {
        std::mem::take(&mut self.trace)
    }

    /// Deliver a DB result into (batch-global) CP register `index` at cycle
    /// `now`. Called by the worker glue when the index coprocessor or the
    /// on-chip response channel writes back.
    pub fn deliver_cp(&mut self, now: Cycle, index: u16, value: i64) {
        self.obs
            .db_op
            .record(now.saturating_sub(self.cp_issued_at[index as usize]));
        let slot = &mut self.cp[index as usize];
        assert!(
            slot.is_none(),
            "CP register {index} written twice in one batch"
        );
        *slot = Some(value);
        assert!(
            self.outstanding > 0,
            "CP writeback without outstanding request"
        );
        self.outstanding -= 1;
    }

    /// The worker this softcore belongs to.
    pub fn worker(&self) -> PartitionId {
        self.worker
    }

    fn gp_read(&self, ctx: &Context, r: crate::isa::Gp) -> u64 {
        self.gp[ctx.gp_base as usize + r.0 as usize]
    }

    fn gp_write(&mut self, gp_base: u16, r: crate::isa::Gp, v: u64) {
        self.gp[gp_base as usize + r.0 as usize] = v;
    }

    fn operand(&self, ctx: &Context, op: Operand) -> u64 {
        match op {
            Operand::Reg(r) => self.gp_read(ctx, r),
            Operand::Imm(v) => v as u64,
        }
    }

    fn mem_addr(&self, ctx: &Context, base: MemBase, off: Operand) -> u64 {
        let base_addr = match base {
            MemBase::Block => ctx.block_addr + BLOCK_HEADER_SIZE,
            MemBase::Reg(r) => self.gp_read(ctx, r),
        };
        base_addr.wrapping_add(self.operand(ctx, off))
    }

    fn resolve_home(&self, ctx: &Context, home: Operand) -> PartitionId {
        let v = self.operand(ctx, home) as i64;
        if v < 0 {
            self.worker
        } else {
            PartitionId(v as u16)
        }
    }

    /// The input-queue prefetch unit: a small FSM beside the softcore that
    /// reads the next transaction block's header (its procedure id) while
    /// the core is busy, hiding the DRAM round trip that would otherwise
    /// serialize every ingest. It never races the core's own reads — the
    /// distinct request tag routes its response.
    fn try_prefetch(&mut self, now: Cycle, dram: &mut Dram) {
        if self.prefetch_inflight.is_some() || self.prefetched.is_some() {
            return;
        }
        if self.phase != Phase::Logic || self.pending_block.is_some() {
            return;
        }
        let Some(&(addr, _)) = self.input.front() else {
            return;
        };
        let req = MemRequest {
            addr,
            kind: MemKind::Read { len: 8 },
            tag: TAG_HEADER,
        };
        if dram.issue(now, self.port, req).is_ok() {
            self.prefetch_inflight = Some(addr);
        }
    }

    /// One FPGA cycle. `db_out` is the worker's DB request channel; the
    /// glue routes each request to the local coprocessor or the NoC.
    pub fn tick(
        &mut self,
        now: Cycle,
        dram: &mut Dram,
        cat: &Catalogue,
        db_out: &mut Fifo<DbRequest>,
    ) {
        self.try_prefetch(now, dram);
        match std::mem::replace(&mut self.state, CoreState::Idle) {
            CoreState::Idle => self.do_idle(now, dram),
            CoreState::FetchHeader {
                addr,
                issued,
                submitted_at,
            } => self.do_fetch_header(now, dram, cat, addr, issued, submitted_at),
            CoreState::Exec { remaining } => {
                if remaining > 1 {
                    self.state = CoreState::Exec {
                        remaining: remaining - 1,
                    };
                } else {
                    self.execute_current(now, dram, cat, db_out);
                }
            }
            CoreState::WaitLoad {
                rd_global,
                issued,
                addr,
            } => {
                self.stats.mem_stall_cycles += 1;
                if !issued {
                    let ok = dram
                        .issue(
                            now,
                            self.port,
                            MemRequest {
                                addr,
                                kind: MemKind::Read { len: 8 },
                                tag: TAG_LOAD,
                            },
                        )
                        .is_ok();
                    self.state = CoreState::WaitLoad {
                        rd_global,
                        issued: ok,
                        addr,
                    };
                } else if let Some(data) = self.take_read(dram, TAG_LOAD, None) {
                    let v = u64::from_le_bytes(data.as_slice().try_into().expect("8-byte load"));
                    self.gp[rd_global] = v;
                    self.advance_pc(cat);
                } else {
                    self.state = CoreState::WaitLoad {
                        rd_global,
                        issued,
                        addr,
                    };
                }
            }
            CoreState::WaitStore { addr, value } => {
                self.stats.mem_stall_cycles += 1;
                let req = MemRequest {
                    addr,
                    kind: MemKind::Write {
                        data: value.to_le_bytes().to_vec(),
                    },
                    tag: TAG_STORE,
                };
                if dram.issue(now, self.port, req).is_ok() {
                    self.advance_pc(cat);
                } else {
                    self.state = CoreState::WaitStore { addr, value };
                }
            }
            CoreState::WaitCp { .. } => {
                self.stats.cp_stall_cycles += 1;
                // Re-execute the RET; it completes if the CP arrived.
                self.execute_current(now, dram, cat, db_out);
            }
            CoreState::DispatchStall => {
                // Retry the DB dispatch.
                self.execute_current(now, dram, cat, db_out);
            }
            CoreState::Switching { remaining, then } => {
                if remaining > 1 {
                    self.state = CoreState::Switching {
                        remaining: remaining - 1,
                        then,
                    };
                } else {
                    match then {
                        AfterSwitch::Ingest => self.do_idle(now, dram),
                        AfterSwitch::Resume => self.begin_inst(cat),
                    }
                }
            }
            CoreState::BatchDrain => {
                if self.outstanding == 0 {
                    self.finish_batch();
                    self.do_idle(now, dram);
                } else {
                    self.stats.cp_stall_cycles += 1;
                    self.state = CoreState::BatchDrain;
                }
            }
        }
        self.drain_store_acks(dram);
    }

    /// Pop delivered responses: discard posted-write acknowledgements,
    /// stash prefetched headers, and return the data of the read the core
    /// is waiting on (`expect` tag, at `want_addr` for header reads — the
    /// prefetch unit may have a header for a *different* block in flight
    /// at the same time).
    fn take_read(
        &mut self,
        dram: &mut Dram,
        expect: Tag,
        want_addr: Option<u64>,
    ) -> Option<MemData> {
        while let Some(resp) = dram.pop_response(self.port) {
            if resp.tag == TAG_STORE {
                continue; // posted-write acknowledgement
            }
            if resp.tag == TAG_HEADER {
                let awaited = expect == TAG_HEADER && want_addr == Some(resp.addr);
                if !awaited {
                    self.stash_prefetch(&resp);
                    continue;
                }
                if Some(resp.addr) == self.prefetch_inflight {
                    // The awaited header was the prefetch itself.
                    self.prefetch_inflight = None;
                }
                return Some(resp.data);
            }
            assert_eq!(
                resp.tag, expect,
                "unexpected read response on softcore port"
            );
            return Some(resp.data);
        }
        None
    }

    fn stash_prefetch(&mut self, resp: &bionicdb_fpga::MemResponse) {
        assert_eq!(
            Some(resp.addr),
            self.prefetch_inflight,
            "orphan header response"
        );
        let proc = u64::from_le_bytes(resp.data.as_slice().try_into().expect("8 bytes"));
        self.prefetched = Some((resp.addr, proc));
        self.prefetch_inflight = None;
    }

    /// Discard any delivered posted-write acknowledgements and stash
    /// prefetched headers delivered while the core was not waiting on a
    /// read.
    fn drain_store_acks(&mut self, dram: &mut Dram) {
        let waiting_on_read = matches!(
            self.state,
            CoreState::WaitLoad { .. } | CoreState::FetchHeader { .. }
        );
        if waiting_on_read {
            return; // do not consume the pending read response
        }
        while let Some(resp) = dram.pop_response(self.port) {
            if resp.tag == TAG_HEADER {
                self.stash_prefetch(&resp);
                continue;
            }
            assert_eq!(resp.tag, TAG_STORE, "orphan read response on softcore port");
        }
    }

    fn do_idle(&mut self, now: Cycle, dram: &mut Dram) {
        debug_assert_eq!(self.phase, Phase::Logic);
        // A prefetched header for the front of the input queue lets ingest
        // skip the DRAM round trip entirely.
        if self.pending_block.is_none() {
            if let Some((addr, proc)) = self.prefetched {
                if self.input.front().map(|&(a, _)| a) == Some(addr) {
                    let (_, sub) = self.input.pop_front().expect("front checked");
                    self.prefetched = None;
                    self.ingest(now, addr, proc, sub);
                    return;
                }
                // Stale (input changed); drop it.
                self.prefetched = None;
            }
        }
        let next_block = self.pending_block.take().or_else(|| self.input.pop_front());
        match next_block {
            Some((addr, sub)) => {
                // If the prefetch unit already has this header in flight,
                // just wait for it instead of issuing a duplicate read.
                let issued = if self.prefetch_inflight == Some(addr) {
                    true
                } else {
                    dram.issue(
                        now,
                        self.port,
                        MemRequest {
                            addr,
                            kind: MemKind::Read { len: 8 },
                            tag: TAG_HEADER,
                        },
                    )
                    .is_ok()
                };
                self.state = CoreState::FetchHeader {
                    addr,
                    issued,
                    submitted_at: sub,
                };
            }
            None if !self.contexts.is_empty() => self.close_batch(now),
            None => self.state = CoreState::Idle,
        }
    }

    fn do_fetch_header(
        &mut self,
        now: Cycle,
        dram: &mut Dram,
        cat: &Catalogue,
        addr: u64,
        issued: bool,
        sub: Cycle,
    ) {
        self.stats.mem_stall_cycles += 1;
        if !issued {
            let ok = dram
                .issue(
                    now,
                    self.port,
                    MemRequest {
                        addr,
                        kind: MemKind::Read { len: 8 },
                        tag: TAG_HEADER,
                    },
                )
                .is_ok();
            self.state = CoreState::FetchHeader {
                addr,
                issued: ok,
                submitted_at: sub,
            };
            return;
        }
        if self.prefetched.map(|(a, _)| a) == Some(addr) {
            // The prefetch completed while we were entering this state.
            let (_, proc) = self.prefetched.take().expect("checked");
            self.ingest_with_catalogue(now, addr, proc, cat, sub);
            return;
        }
        let Some(data) = self.take_read(dram, TAG_HEADER, Some(addr)) else {
            self.state = CoreState::FetchHeader {
                addr,
                issued,
                submitted_at: sub,
            };
            return;
        };
        let proc = u64::from_le_bytes(data.as_slice().try_into().expect("8 bytes"));
        self.ingest_with_catalogue(now, addr, proc, cat, sub);
    }

    /// Ingest a block whose header is known, without catalogue access (the
    /// prefetch fast path defers to the next tick, where the catalogue is
    /// available again).
    fn ingest(&mut self, _now: Cycle, addr: u64, proc: u64, sub: Cycle) {
        // The catalogue reference is not available here (do_idle is called
        // without it); park in FetchHeader with the header already decoded
        // so the next tick completes ingest with zero extra latency.
        self.prefetched = Some((addr, proc));
        self.state = CoreState::FetchHeader {
            addr,
            issued: true,
            submitted_at: sub,
        };
    }

    fn ingest_with_catalogue(
        &mut self,
        now: Cycle,
        addr: u64,
        proc_word: u64,
        cat: &Catalogue,
        sub: Cycle,
    ) {
        let proc_id = ProcId(proc_word as u32);
        let proc = cat
            .proc(proc_id)
            .unwrap_or_else(|| panic!("transaction block names unknown procedure {proc_id:?}"));
        let fits = (self.gp_next as usize + proc.gp_count as usize) <= self.params.num_registers
            && (self.cp_next as usize + proc.cp_count as usize) <= self.params.num_registers
            && self.contexts.len() < self.params.max_batch;
        if !fits {
            // Batch closure: the new transaction is scheduled after the
            // current batch commits (paper §4.5).
            self.pending_block = Some((addr, sub));
            self.close_batch(now);
            return;
        }
        let gp_base = self.gp_next;
        let cp_base = self.cp_next;
        self.gp_next += proc.gp_count;
        self.cp_next += proc.cp_count;
        for i in 0..proc.cp_count {
            self.cp[(cp_base + i) as usize] = None;
        }
        for i in 0..proc.gp_count {
            self.gp[(gp_base + i) as usize] = 0;
        }
        // Hardware timestamp: globally unique, monotonic (cycle, worker).
        let ts = (now << 10) | (self.worker.0 as u64 & 0x3ff);
        self.contexts.push(Context {
            proc: proc_id,
            block_addr: addr,
            pc: 0,
            gp_base,
            cp_base,
            ts,
            failed: false,
            outcome: None,
            submitted_at: sub,
            logic_start: now,
            logic_end: now,
            commit_start: now,
            last_err: None,
        });
        self.cur = self.contexts.len() - 1;
        self.begin_inst(cat);
    }

    fn close_batch(&mut self, now: Cycle) {
        debug_assert!(!self.contexts.is_empty());
        self.phase = Phase::Commit;
        self.begin_commit_for(now, 0);
    }

    fn begin_commit_for(&mut self, now: Cycle, idx: usize) {
        self.cur = idx;
        self.contexts[idx].commit_start = now;
        self.stats.switches += 1;
        self.state = CoreState::Switching {
            remaining: self.params.context_switch.max(1),
            then: AfterSwitch::Resume,
        };
        // PC is set lazily in begin_inst via phase; store sentinel now.
        self.contexts[idx].pc = u32::MAX; // patched in begin_inst
    }

    /// Start executing the instruction at the current context's PC.
    fn begin_inst(&mut self, cat: &Catalogue) {
        let ctx = &mut self.contexts[self.cur];
        let proc = cat.proc(ctx.proc).expect("validated at ingest");
        if ctx.pc == u32::MAX {
            ctx.pc = if ctx.failed {
                proc.abort_entry
            } else {
                proc.commit_entry
            };
        }
        let inst = proc.code[ctx.pc as usize];
        let cost = if inst.is_db() {
            self.params.db_dispatch_cycles
        } else {
            self.params.cpu_inst_cycles
        };
        self.state = CoreState::Exec {
            remaining: cost.max(1),
        };
    }

    /// Move to the next instruction after the current one completed.
    fn advance_pc(&mut self, cat: &Catalogue) {
        self.contexts[self.cur].pc += 1;
        self.begin_inst(cat);
    }

    fn jump_to(&mut self, cat: &Catalogue, target: u32) {
        self.contexts[self.cur].pc = target;
        self.begin_inst(cat);
    }

    /// Apply the effect of the current instruction (its fixed cost already
    /// charged) and set up the next state.
    fn execute_current(
        &mut self,
        now: Cycle,
        dram: &mut Dram,
        cat: &Catalogue,
        db_out: &mut Fifo<DbRequest>,
    ) {
        let ctx_idx = self.cur;
        let (proc_id, pc) = {
            let ctx = &self.contexts[ctx_idx];
            (ctx.proc, ctx.pc)
        };
        let proc = cat.proc(proc_id).expect("validated at ingest");
        let inst = proc.code[pc as usize];

        if inst.is_db() {
            self.dispatch_db(now, cat, inst, db_out);
            return;
        }
        self.stats.cpu_insts += 1;

        match inst {
            Inst::Alu { op, rd, rs } => {
                let ctx = &self.contexts[ctx_idx];
                let a = self.gp_read(ctx, rd);
                let b = self.operand(ctx, rs);
                let gp_base = ctx.gp_base;
                let v = match op {
                    AluOp::Add => a.wrapping_add(b),
                    AluOp::Sub => a.wrapping_sub(b),
                    AluOp::Mul => a.wrapping_mul(b),
                    AluOp::Div => {
                        if b == 0 {
                            // Exception: triggers the abort handler
                            // (paper §4.5 "any exception caught will
                            // trigger the abort handler").
                            self.raise_exception(now, cat);
                            return;
                        }
                        ((a as i64).wrapping_div(b as i64)) as u64
                    }
                    AluOp::Mov => b,
                };
                self.gp_write(gp_base, rd, v);
                self.advance_pc(cat);
            }
            Inst::Cmp { ra, rb } => {
                let ctx = &self.contexts[ctx_idx];
                let a = self.gp_read(ctx, ra) as i64;
                let b = self.operand(ctx, rb) as i64;
                self.flags = a.cmp(&b);
                self.advance_pc(cat);
            }
            Inst::Load { rd, base, off } => {
                let ctx = &self.contexts[ctx_idx];
                let addr = self.mem_addr(ctx, base, off);
                let rd_global = ctx.gp_base as usize + rd.0 as usize;
                let issued = dram
                    .issue(
                        now,
                        self.port,
                        MemRequest {
                            addr,
                            kind: MemKind::Read { len: 8 },
                            tag: TAG_LOAD,
                        },
                    )
                    .is_ok();
                self.state = CoreState::WaitLoad {
                    rd_global,
                    issued,
                    addr,
                };
            }
            Inst::Store { rs, base, off } => {
                let ctx = &self.contexts[ctx_idx];
                let addr = self.mem_addr(ctx, base, off);
                let value = self.gp_read(ctx, rs);
                let req = MemRequest {
                    addr,
                    kind: MemKind::Write {
                        data: value.to_le_bytes().to_vec(),
                    },
                    tag: TAG_STORE,
                };
                if dram.issue(now, self.port, req).is_ok() {
                    self.advance_pc(cat);
                } else {
                    self.state = CoreState::WaitStore { addr, value };
                }
            }
            Inst::Jmp { target } => self.jump_to(cat, target),
            Inst::Br { cond, target } => {
                let taken = match cond {
                    Cond::Eq => self.flags == std::cmp::Ordering::Equal,
                    Cond::Ne => self.flags != std::cmp::Ordering::Equal,
                    Cond::Le => self.flags != std::cmp::Ordering::Greater,
                    Cond::Lt => self.flags == std::cmp::Ordering::Less,
                    Cond::Gt => self.flags == std::cmp::Ordering::Greater,
                    Cond::Ge => self.flags != std::cmp::Ordering::Less,
                };
                if taken {
                    self.jump_to(cat, target);
                } else {
                    self.advance_pc(cat);
                }
            }
            Inst::GetTs { rd } => {
                let ctx = &self.contexts[ctx_idx];
                let (ts, gp_base) = (ctx.ts, ctx.gp_base);
                self.gp_write(gp_base, rd, ts);
                self.advance_pc(cat);
            }
            Inst::Ret { rd, cp } => {
                let ctx = &self.contexts[ctx_idx];
                let idx = ctx.cp_base as usize + cp.0 as usize;
                match self.cp[idx] {
                    Some(v) => {
                        let gp_base = ctx.gp_base;
                        if let DbResult::Err(status) = DbResult::decode(v) {
                            self.contexts[ctx_idx].last_err = Some(status);
                        }
                        self.gp_write(gp_base, rd, v as u64);
                        self.advance_pc(cat);
                    }
                    None => {
                        // Not a completed instruction; undo the count and
                        // retry until the CP result arrives.
                        self.stats.cpu_insts -= 1;
                        self.state = CoreState::WaitCp { idx };
                    }
                }
            }
            Inst::Yield => {
                match self.phase {
                    Phase::Logic => {
                        // Save context, switch to the next transaction.
                        self.contexts[ctx_idx].pc = pc; // saved as-is; commit entry set later
                        self.contexts[ctx_idx].logic_end = now;
                        match self.params.mode {
                            ExecMode::Interleaved => {
                                self.stats.switches += 1;
                                self.state = CoreState::Switching {
                                    remaining: self.params.context_switch.max(1),
                                    then: AfterSwitch::Ingest,
                                };
                            }
                            ExecMode::Serial => self.close_batch(now),
                        }
                    }
                    Phase::Commit => panic!("YIELD executed inside a commit/abort handler"),
                }
            }
            Inst::Commit => self.finish_context(now, dram, cat, CtxOutcome::Committed),
            Inst::Abort => match self.phase {
                Phase::Logic => self.raise_exception(now, cat),
                Phase::Commit => self.finish_context(now, dram, cat, CtxOutcome::Aborted),
            },
            Inst::Insert { .. }
            | Inst::Search { .. }
            | Inst::Scan { .. }
            | Inst::Update { .. }
            | Inst::Remove { .. } => unreachable!("DB instructions handled above"),
        }
    }

    /// A logic-phase exception (CC failure observed early, voluntary abort,
    /// divide-by-zero): mark the context failed and yield; the abort handler
    /// will run in the commit phase.
    fn raise_exception(&mut self, now: Cycle, _cat: &Catalogue) {
        let ctx = &mut self.contexts[self.cur];
        ctx.failed = true;
        ctx.logic_end = now;
        match self.phase {
            Phase::Logic => match self.params.mode {
                ExecMode::Interleaved => {
                    self.stats.switches += 1;
                    self.state = CoreState::Switching {
                        remaining: self.params.context_switch.max(1),
                        then: AfterSwitch::Ingest,
                    };
                }
                ExecMode::Serial => self.close_batch(now),
            },
            Phase::Commit => unreachable!("exceptions in commit phase finish the context"),
        }
    }

    fn dispatch_db(
        &mut self,
        now: Cycle,
        cat: &Catalogue,
        inst: Inst,
        db_out: &mut Fifo<DbRequest>,
    ) {
        let ctx = &self.contexts[self.cur];
        let user_base = ctx.block_addr + BLOCK_HEADER_SIZE;
        let (op, table, key_off, payload_off, count, out_off, home, cp) = match inst {
            Inst::Insert {
                table,
                key_off,
                payload_off,
                home,
                cp,
            } => (
                DbOp::Insert,
                table,
                key_off,
                Some(payload_off),
                None,
                None,
                home,
                cp,
            ),
            Inst::Search {
                table,
                key_off,
                home,
                cp,
            } => (DbOp::Search, table, key_off, None, None, None, home, cp),
            Inst::Scan {
                table,
                key_off,
                count,
                out_off,
                home,
                cp,
            } => (
                DbOp::Scan,
                table,
                key_off,
                None,
                Some(count),
                Some(out_off),
                home,
                cp,
            ),
            Inst::Update {
                table,
                key_off,
                home,
                cp,
            } => (DbOp::Update, table, key_off, None, None, None, home, cp),
            Inst::Remove {
                table,
                key_off,
                home,
                cp,
            } => (DbOp::Remove, table, key_off, None, None, None, home, cp),
            other => unreachable!("not a DB instruction: {other:?}"),
        };
        let req_cp_index = (ctx.cp_base + cp.0 as u16) as usize;
        // Batch-group tag for the coprocessor's level-wise traversal engine
        // (DESIGN.md §16). Only read-set probes batch; inserts and scans
        // keep their dedicated pipeline paths. The top bit keeps every
        // group id distinct from the 0 = unbatched sentinel.
        let batch_group = match (self.params.batch_mode, op) {
            (BatchMode::Off, _) | (_, DbOp::Insert | DbOp::Scan) => 0,
            (BatchMode::CrossTxn, _) => {
                (1 << 63) | (self.stats.batches << 10) | (self.worker.0 as u64 & 0x3ff)
            }
        };
        let req = DbRequest {
            op,
            table,
            key_addr: user_base + self.operand(ctx, key_off),
            payload_addr: payload_off
                .map(|o| user_base + self.operand(ctx, o))
                .unwrap_or(0),
            scan_count: count.map(|c| self.operand(ctx, c) as u32).unwrap_or(0),
            out_addr: out_off
                .map(|o| user_base + self.operand(ctx, o))
                .unwrap_or(0),
            ts: ctx.ts,
            cp: CpSlot {
                worker: self.worker,
                index: ctx.cp_base + cp.0 as u16,
            },
            home: self.resolve_home(ctx, home),
            batch_group,
        };
        match db_out.push(req) {
            Ok(()) => {
                // Invalidate the destination CP register so a stale value
                // from an earlier (RET-collected) use cannot be observed.
                self.cp[req_cp_index] = None;
                self.cp_issued_at[req_cp_index] = now;
                self.outstanding += 1;
                self.stats.db_insts += 1;
                self.advance_pc(cat);
            }
            Err(_) => self.state = CoreState::DispatchStall,
        }
    }

    fn finish_context(
        &mut self,
        now: Cycle,
        dram: &mut Dram,
        cat: &Catalogue,
        outcome: CtxOutcome,
    ) {
        debug_assert_eq!(
            self.phase,
            Phase::Commit,
            "COMMIT/ABORT outside commit phase"
        );
        let ctx = &mut self.contexts[self.cur];
        ctx.outcome = Some(outcome);
        // The block's commit timestamp is stamped at *commit* time, not
        // with the context's begin timestamp: command-log replay orders by
        // this field, and only the commit order is a serialization order
        // (a transaction that begins early but touches a contended row
        // late must replay after the earlier committer of that row).
        let (status, ts) = match outcome {
            CtxOutcome::Committed => (1u64, (now << 10) | (self.worker.0 as u64 & 0x3ff)),
            CtxOutcome::Aborted => (2u64, 0),
        };
        // Write the commit state and timestamp back into the transaction
        // block (posted writes; host-side visibility is what matters and
        // functional state applies immediately).
        let block = ctx.block_addr;
        dram.host_write_u64(block + STATUS_OFFSET, status);
        dram.host_write_u64(block + COMMIT_TS_OFFSET, ts);
        match outcome {
            CtxOutcome::Committed => self.stats.committed += 1,
            CtxOutcome::Aborted => self.stats.aborted += 1,
        }
        // Observability: record the retired transaction's phase breakdown.
        // All inputs are host-side timestamps of events that occur at
        // identical cycles under strict stepping and fast-forward.
        let (sub, ls, le, cs, last_err) = {
            let c = &self.contexts[self.cur];
            (
                c.submitted_at,
                c.logic_start,
                c.logic_end,
                c.commit_start,
                c.last_err,
            )
        };
        self.obs.queue_wait.record(ls.saturating_sub(sub));
        self.obs.logic.record(le.saturating_sub(ls));
        self.obs.commit_wait.record(cs.saturating_sub(le));
        self.obs.commit.record(now.saturating_sub(cs));
        let total = now.saturating_sub(sub);
        match outcome {
            CtxOutcome::Committed => self.obs.txn_commit.record(total),
            CtxOutcome::Aborted => {
                self.obs.txn_abort.record(total);
                let r = &mut self.obs.abort_reasons;
                match last_err {
                    Some(DbStatus::NotFound) => r.not_found += 1,
                    Some(DbStatus::CcConflict) => r.cc_conflict += 1,
                    Some(DbStatus::Dirty) => r.dirty += 1,
                    Some(DbStatus::BadRequest) => r.bad_request += 1,
                    Some(DbStatus::Timeout) => r.timeout += 1,
                    Some(DbStatus::Ok) | None => r.other += 1,
                }
            }
        }
        if self.tracing {
            self.trace.push(TxnEvent {
                worker: self.worker.0,
                block_addr: block,
                submitted_at: sub,
                logic_start: ls,
                logic_end: le,
                commit_start: cs,
                finished_at: now,
                committed: outcome == CtxOutcome::Committed,
            });
        }
        let _ = cat;
        if self.cur + 1 < self.contexts.len() {
            self.begin_commit_for(now, self.cur + 1);
        } else {
            self.state = CoreState::BatchDrain;
        }
    }

    /// Fast-forward support: the earliest future cycle at which this core
    /// could change state, attempt a memory/NoC issue, or mutate any
    /// statistic, assuming no external stimulus (no DRAM response delivery,
    /// no CP writeback) arrives earlier. Returns `None` when the core is
    /// purely waiting on such a stimulus (or fully idle); external events
    /// are bounded by the DRAM/NoC `next_event`s at the machine level.
    ///
    /// Contract (DESIGN.md "Simulation performance"): the returned cycle is
    /// always `> now`, and may be *earlier* than the true next change
    /// (costing only speed), never later (which would break determinism).
    pub fn next_event(&self, now: Cycle) -> Option<Cycle> {
        // The prefetch unit issues a header read the moment it can — an
        // issue *attempt* mutates DRAM rejection stats, so such a cycle can
        // never be skipped.
        if self.prefetch_inflight.is_none()
            && self.prefetched.is_none()
            && self.phase == Phase::Logic
            && self.pending_block.is_none()
            && self.input.front().is_some()
        {
            return Some(now + 1);
        }
        match &self.state {
            CoreState::Idle => {
                if self.input.is_empty()
                    && self.pending_block.is_none()
                    && self.prefetched.is_none()
                    && self.contexts.is_empty()
                {
                    None
                } else {
                    Some(now + 1)
                }
            }
            CoreState::FetchHeader { addr, issued, .. } => {
                if !issued || self.prefetched.map(|(a, _)| a) == Some(*addr) {
                    Some(now + 1)
                } else {
                    None // waiting on the DRAM response
                }
            }
            CoreState::Exec { remaining } => Some(now + remaining),
            CoreState::WaitLoad { issued, .. } => {
                if *issued {
                    None // waiting on the DRAM response
                } else {
                    Some(now + 1) // will retry the issue
                }
            }
            // Retries an issue / dispatch attempt every cycle.
            CoreState::WaitStore { .. } | CoreState::DispatchStall => Some(now + 1),
            // The CP writeback itself is an external event, but it lands
            // *after* the softcore's slot in the worker tick — so the
            // retrying RET observes it one cycle later. Once the register
            // is valid, the retry is a real event.
            CoreState::WaitCp { idx } => {
                if self.cp[*idx].is_some() {
                    Some(now + 1)
                } else {
                    None
                }
            }
            CoreState::Switching { remaining, .. } => Some(now + remaining),
            CoreState::BatchDrain => {
                if self.outstanding == 0 {
                    Some(now + 1)
                } else {
                    None // waiting on CP writebacks
                }
            }
        }
    }

    /// Fast-forward support: account for `k` skipped cycles exactly as `k`
    /// pure-wait ticks would have — countdowns decrease, stall counters
    /// accrue. Only valid when `next_event` permitted the skip (the machine
    /// guarantees `now + k < next_event` for every component).
    pub fn skip(&mut self, k: Cycle) {
        match &mut self.state {
            CoreState::Exec { remaining } | CoreState::Switching { remaining, .. } => {
                debug_assert!(*remaining > k, "skipped past an Exec/Switch completion");
                *remaining -= k;
            }
            CoreState::FetchHeader { .. } | CoreState::WaitLoad { .. } => {
                self.stats.mem_stall_cycles += k;
            }
            CoreState::WaitCp { .. } | CoreState::BatchDrain => {
                self.stats.cp_stall_cycles += k;
            }
            // Idle ticks are stat-free; WaitStore/DispatchStall report
            // next_event = now + 1 and therefore are never skipped over.
            CoreState::Idle | CoreState::WaitStore { .. } | CoreState::DispatchStall => {}
        }
    }

    fn finish_batch(&mut self) {
        debug_assert!(self.contexts.iter().all(|c| c.outcome.is_some()));
        self.contexts.clear();
        self.gp_next = 0;
        self.cp_next = 0;
        self.phase = Phase::Logic;
        self.stats.batches += 1;
    }
}

impl std::fmt::Debug for Softcore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Softcore")
            .field("worker", &self.worker)
            .field("phase", &self.phase)
            .field("contexts", &self.contexts.len())
            .field("outstanding", &self.outstanding)
            .field("state", &self.state)
            .finish()
    }
}
