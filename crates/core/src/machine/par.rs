//! Epoch-parallel simulation: conservative parallel discrete-event
//! simulation of the whole machine, bit-exact with serial ticking.
//!
//! # Why this is possible at all
//!
//! BionicDB's partitions are shared-nothing (paper §4; the same isolation
//! argument Porobic et al. make for "hardware islands"): a worker's
//! softcore, coprocessor, DRAM bank, and partition tables are touched by
//! that worker alone. The *only* inter-worker coupling is the NoC, and
//! every NoC path `(src, dst)` has a minimum latency
//! `L(src, dst) = noc.min_latency(src, dst)` — the classic **lookahead**
//! of conservative PDES, here kept as a full per-pair matrix rather than
//! a single global minimum. A message sent at cycle `c` is delivered no
//! earlier than `c + L(src, dst)`, so a lane whose potential senders are
//! all *far away* can safely run far ahead of a lane whose senders are
//! near.
//!
//! # The schedule (GVT + per-pair horizons)
//!
//! Each worker *lane* (worker + bank + tables + detached [`EpochLink`])
//! is a work item. Per round:
//!
//! 1. The coordinator computes each lane's **base** `base_j` — a lower
//!    bound on the next cycle lane `j` can act at: its exit hint, the
//!    arrival of its earliest undelivered routed packet, and the arrival
//!    floor of any still-uncommitted staged send addressed to it.
//! 2. `GVT = min_j base_j`. The [`EpochMerger`] **commits** every staged
//!    send with cycle `< GVT` in exact serial `(cycle, src)` order —
//!    replaying fault ordinals, the per-source issue ledger, latency
//!    stats, and queue-high-water marks bit-identically — and routes the
//!    resulting deliveries. Commits can raise bases (a drop fault removes
//!    an arrival floor), so this loops to a fixpoint.
//! 3. Earliest-action bounds are relaxed to a fixpoint:
//!    `A_j = min(base_j, min_{k != j}(A_k + L(k, j)))` — the Bellman-Ford
//!    step that catches *chains* (k wakes j cheaply, j wakes i cheaply,
//!    even though k → i directly is expensive).
//! 4. Per-lane horizon `H_i = min(floor_i, min_{j != i}(A_j + L(j, i))) - 1`
//!    (capped): no send any lane can still make, and no send already
//!    staged, can arrive at `i` at or before `H_i`.
//! 5. Every lane whose next action is `<= H_i` becomes a work item on a
//!    shared schedule; threads (the coordinator included) **claim lanes
//!    dynamically** with an atomic cursor, so skewed workloads no longer
//!    idle threads behind a static chunking. Each finished lane deposits
//!    its round traffic and trace into a **combining tree** whose nodes
//!    merge pairwise, in parallel, with order-preserving merges — the
//!    root is deterministic regardless of thread interleaving.
//!
//! Trace events drain to the sink only below the GVT (their serial order
//! is then final); the remainder drains at epoch end. When the GVT passes
//! the cap (or nothing remains), every lane is topped up (`skip`) to a
//! common cycle and control returns to the serial loop in
//! [`Machine::run_to_quiescence_limit`], which owns the uniform exit
//! conditions (quiescence, crash, limit panic).
//!
//! # Determinism invariants
//!
//! * A lane ticks exactly the set of cycles at which serial ticking would
//!   have given its components an event; ticking an event-free cycle is
//!   `skip(1)` per the PR-1 fast-forward contract, so per-worker state is
//!   bit-identical. An unscheduled lane is equivalent to a scheduled lane
//!   with nothing to do (zero ticks, unchanged hint), so dynamic
//!   scheduling is bit-inert.
//! * NoC effects are committed strictly below the GVT in (cycle, worker)
//!   order — the serial send order — and no lane can ever stage a send
//!   below the GVT afterwards (every future action of lane `j` is
//!   `>= base_j >= GVT`), so fault ordinals, issue-width ledgers, stats,
//!   and queue high-water marks are bit-identical. See DESIGN.md §11 for
//!   the full argument.
//! * Traces are merged by (cycle, worker-id) — the serial drain order.
//! * A scheduled crash caps the epoch phase at `crash_at - 1`; the crash
//!   cycle itself is *ticked* by the serial loop, so the crash-instant
//!   state (and the [`crate::recovery::DurableImage`] the hook snapshots)
//!   is bit-identical to a serial run.
//!
//! The coordination barrier blocks (mutex + condvar) rather than spins, so
//! oversubscribed hosts — including single-core CI boxes — degrade
//! gracefully instead of burning timeslices.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::Instant;

use bionicdb_coproc::layout::TableState;
use bionicdb_fpga::obs::LatencyHistogram;
use bionicdb_fpga::{Dram, TxnEvent};
use bionicdb_noc::{EpochLink, EpochMerger, Noc, Packet, StagedBatch};
use bionicdb_softcore::catalogue::Catalogue;
use bionicdb_softcore::PartitionId;

use super::Machine;
use crate::worker::PartitionWorker;

/// One worker's slice of the machine, self-contained for a round. Shared
/// with the fleet engine (`machine/fleet.rs`), where a chip process builds
/// one per owned worker each phase.
pub(crate) struct Lane<'a> {
    pub(crate) idx: usize,
    pub(crate) worker: &'a mut PartitionWorker,
    pub(crate) bank: &'a mut Dram,
    pub(crate) tables: &'a mut [TableState],
    /// This lane's clock: the last cycle it ticked or skipped to.
    pub(crate) pos: u64,
    /// Component ticks executed by this lane (simulator instrumentation).
    pub(crate) ticks: u64,
    /// Cycles this lane fast-forwarded over instead of ticking
    /// (simulator instrumentation).
    pub(crate) skips: u64,
    /// Rounds this lane was scheduled for (simulator instrumentation).
    pub(crate) rounds: u64,
    /// Distribution of granted epoch spans (horizon minus entry position;
    /// simulator instrumentation).
    pub(crate) epoch_len: LatencyHistogram,
    /// Trace events buffered this round, stamped with their cycle.
    pub(crate) trace: Vec<(u64, TxnEvent)>,
}

/// The scalars a lane reports at the round barrier (its traffic and trace
/// travel through the combining tree instead).
pub(crate) struct LaneOut {
    /// The lane's next self-known action (`> horizon`), or `None` when the
    /// worker, bank, and queued deliveries are all exhausted.
    pub(crate) hint: Option<u64>,
    pub(crate) pos: u64,
    pub(crate) quiescent: bool,
    /// Whether the lane's delivery queue was empty at harvest.
    pub(crate) drained: bool,
}

/// A lane plus everything a claiming thread needs to run it for a round.
struct LaneCell<'a> {
    lane: Lane<'a>,
    link: EpochLink,
    /// Deliveries routed since the lane last ran, handed to
    /// [`EpochLink::begin_round`] when the lane is next scheduled.
    pending: Vec<(u64, Packet)>,
    /// The horizon granted for the current round.
    horizon: u64,
    out: Option<LaneOut>,
    /// When the claiming thread finished this lane — the coordinator turns
    /// it into per-lane barrier idle time.
    done_at: Option<Instant>,
}

/// One leaf (or merged subtree) of the round's combining tree.
struct RoundNode {
    batch: StagedBatch,
    /// Trace events `(cycle, lane, event)`, sorted by `(cycle, lane)`.
    trace: Vec<(u64, u32, TxnEvent)>,
}

impl RoundNode {
    fn empty() -> Self {
        RoundNode {
            batch: StagedBatch::empty(),
            trace: Vec::new(),
        }
    }

    /// Deterministic pairwise combine: order-preserving merges keyed the
    /// way a serial pass would have ordered the concatenation.
    fn merge(a: Self, b: Self) -> Self {
        RoundNode {
            batch: StagedBatch::merge(a.batch, b.batch),
            trace: merge_traces(a.trace, b.trace),
        }
    }
}

/// Order-preserving two-pointer merge of `(cycle, lane)`-sorted traces;
/// `<=` keeps the left operand first on ties, matching a stable sort of
/// the concatenation.
pub(crate) fn merge_traces(
    a: Vec<(u64, u32, TxnEvent)>,
    b: Vec<(u64, u32, TxnEvent)>,
) -> Vec<(u64, u32, TxnEvent)> {
    if a.is_empty() {
        return b;
    }
    if b.is_empty() {
        return a;
    }
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut ia, mut ib) = (a.into_iter().peekable(), b.into_iter().peekable());
    loop {
        match (ia.peek(), ib.peek()) {
            (Some(&(ca, la, _)), Some(&(cb, lb, _))) => {
                if (ca, la) <= (cb, lb) {
                    out.push(ia.next().expect("peeked"));
                } else {
                    out.push(ib.next().expect("peeked"));
                }
            }
            (Some(_), None) => out.push(ia.next().expect("peeked")),
            (None, Some(_)) => out.push(ib.next().expect("peeked")),
            (None, None) => break,
        }
    }
    out
}

/// The hierarchical merge: a heap-indexed binary combining tree. Leaves
/// live at `[m, 2m)`, internal nodes at `[1, m)`, the root at 1. A thread
/// deposits its finished lane's [`RoundNode`] at its claimed leaf and
/// climbs: the *second* arrival at each parent merges the two children and
/// continues up, so merge work is spread across whichever threads finish
/// last on each subtree — not serialized under the barrier.
struct MergeTree {
    nodes: Vec<Mutex<Option<RoundNode>>>,
    /// Per-internal-node arrival counters (index-aligned with `nodes`).
    arrivals: Vec<AtomicUsize>,
    /// Leaf count (power of two).
    m: usize,
}

impl MergeTree {
    fn new(leaves: usize) -> Self {
        let m = leaves.next_power_of_two().max(1);
        MergeTree {
            nodes: (0..2 * m).map(|_| Mutex::new(None)).collect(),
            arrivals: (0..m).map(|_| AtomicUsize::new(0)).collect(),
            m,
        }
    }

    fn leaves(&self) -> usize {
        self.m
    }

    /// Coordinator-only, between rounds: rearm the arrival counters.
    fn reset(&self) {
        for a in &self.arrivals {
            a.store(0, Ordering::Relaxed);
        }
    }

    /// Place `node` at leaf `k` and climb, merging at each parent where
    /// this thread arrives second. Mutexes order the node writes against
    /// the counter increments.
    fn deposit(&self, k: usize, node: RoundNode) {
        let mut i = self.m + k;
        *self.nodes[i].lock().unwrap_or_else(PoisonError::into_inner) = Some(node);
        while i > 1 {
            let p = i >> 1;
            if self.arrivals[p].fetch_add(1, Ordering::AcqRel) == 0 {
                return; // first at this parent: the sibling's thread merges
            }
            let l = self.nodes[2 * p]
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .take()
                .expect("left child deposited");
            let r = self.nodes[2 * p + 1]
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .take()
                .expect("right child deposited");
            *self.nodes[p].lock().unwrap_or_else(PoisonError::into_inner) =
                Some(RoundNode::merge(l, r));
            i = p;
        }
    }

    /// Coordinator-only, after the barrier: harvest the fully merged root.
    fn take_root(&self) -> RoundNode {
        self.nodes[1]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take()
            .expect("combining tree root deposited")
    }
}

/// Coordinator commands, published before the round barrier.
#[derive(Clone, Copy)]
enum Cmd {
    /// Claim lanes off the shared schedule and run each to its granted
    /// per-lane horizon.
    Run,
    /// Claim lanes, top each up to cycle `to`, and exit. `expect_idle`
    /// asserts the machine is quiescent (the audit for the serial loop's
    /// exit).
    Finish { to: u64, expect_idle: bool },
}

/// A blocking reusable barrier with panic poisoning: if any participant
/// panics mid-round, the rest unblock and panic too instead of deadlocking
/// under `std::thread::scope`'s implicit join.
struct Gate {
    state: Mutex<GateState>,
    cv: Condvar,
    n: usize,
}

struct GateState {
    arrived: usize,
    generation: u64,
    poisoned: bool,
}

impl Gate {
    fn new(n: usize) -> Self {
        Gate {
            state: Mutex::new(GateState {
                arrived: 0,
                generation: 0,
                poisoned: false,
            }),
            cv: Condvar::new(),
            n,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, GateState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn wait(&self) {
        let mut g = self.lock();
        if g.poisoned {
            drop(g);
            panic!("epoch-parallel peer panicked");
        }
        g.arrived += 1;
        if g.arrived == self.n {
            g.arrived = 0;
            g.generation += 1;
            self.cv.notify_all();
            return;
        }
        let generation = g.generation;
        while g.generation == generation && !g.poisoned {
            g = self.cv.wait(g).unwrap_or_else(PoisonError::into_inner);
        }
        let poisoned = g.poisoned;
        drop(g);
        if poisoned {
            panic!("epoch-parallel peer panicked");
        }
    }

    fn poison(&self) {
        let mut g = self.lock();
        g.poisoned = true;
        self.cv.notify_all();
    }
}

/// Poisons the gate when its owner unwinds, releasing blocked peers.
struct PanicGuard<'a>(&'a Gate);

impl Drop for PanicGuard<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.poison();
        }
    }
}

/// The earliest cycle `> lane.pos` at which this lane has an event: its
/// worker's own next event, its bank's next completion, or its queue
/// front becoming deliverable — the per-worker slice of the serial
/// scheduler's global `next_event`.
///
/// One deliberate asymmetry: a *quiescent* worker with no queued NoC
/// deliveries never wakes for bank-only events. Those are orphan
/// responses to requests whose transactions already retired (aborts
/// abandon in-flight reads); the serial loop exits at machine quiescence
/// with such responses still in flight, so a lane that kept ticking to
/// drain them would over-account idle cycles past the serial exit cycle.
/// Delivering and draining an orphan is stat-neutral, so *when* it
/// happens (here: only while the lane is otherwise active) is invisible.
/// (Posted-write acknowledgements no longer reach this path at all: the
/// banks cancel them at completion.)
pub(crate) fn lane_next(lane: &Lane<'_>, link: &EpochLink) -> Option<u64> {
    let link_next = link.next_ready(lane.pos);
    if link_next.is_none() && lane.worker.is_quiescent() {
        return None;
    }
    if lane.bank.has_buffered_responses() {
        return Some(lane.pos + 1);
    }
    let mut best = lane.worker.next_event(lane.pos);
    if let Some(t) = lane.bank.next_event() {
        let t = t.max(lane.pos + 1);
        best = Some(best.map_or(t, |b| b.min(t)));
    }
    if let Some(t) = link_next {
        best = Some(best.map_or(t, |b| b.min(t)));
    }
    best
}

/// Run one lane through one round: fast-forward from event to event,
/// ticking every cycle `<= horizon` at which the lane could act. Returns
/// the lane's exit hint.
pub(crate) fn run_round(
    lane: &mut Lane<'_>,
    link: &mut EpochLink,
    horizon: u64,
    cat: &Catalogue,
    tracing: bool,
) -> Option<u64> {
    loop {
        match lane_next(lane, link) {
            Some(t) if t <= horizon => {
                let k = t - lane.pos - 1;
                if k > 0 {
                    lane.worker.skip(k);
                    lane.skips += k;
                }
                lane.pos = t;
                lane.ticks += 1;
                lane.bank.tick(t);
                lane.worker.tick(t, lane.bank, cat, link, lane.tables);
                if tracing {
                    for ev in lane.worker.softcore.drain_trace() {
                        lane.trace.push((t, ev));
                    }
                }
            }
            other => break other,
        }
    }
}

/// Top a lane up to the common exit cycle. With `expect_idle` (the
/// coordinator determined the machine is quiescent) this also audits that
/// nothing was left behind — the parallel counterpart of the serial
/// loop's `is_quiescent` exit check.
pub(crate) fn finish_lane(lane: &mut Lane<'_>, link: &EpochLink, to: u64, expect_idle: bool) {
    debug_assert!(to >= lane.pos, "finish target behind lane position");
    if to > lane.pos {
        lane.worker.skip(to - lane.pos);
        lane.skips += to - lane.pos;
        lane.pos = to;
    }
    if expect_idle {
        debug_assert!(
            lane.worker.is_quiescent(),
            "quiescent finish with a busy worker"
        );
        // Note: the DRAM bank may legitimately still hold in-flight or
        // buffered *orphan* responses here — serial exits at machine
        // quiescence without waiting for them (see `lane_next`).
        debug_assert!(
            link.next_ready(to).is_none(),
            "quiescent finish with a queued NoC delivery"
        );
    }
}

/// The work-stealing loop every thread (coordinator included) runs during
/// a round: claim the next scheduled lane off the shared cursor, run it to
/// its granted horizon, and deposit its traffic/trace into the combining
/// tree at the claimed slot.
fn run_claimed(
    cells: &[Mutex<LaneCell<'_>>],
    sched: &Mutex<Vec<usize>>,
    cursor: &AtomicUsize,
    tree: &MergeTree,
    cat: &Catalogue,
    tracing: bool,
) {
    loop {
        let k = cursor.fetch_add(1, Ordering::SeqCst);
        let idx = {
            let sch = sched.lock().unwrap_or_else(PoisonError::into_inner);
            match sch.get(k) {
                Some(&i) => i,
                None => break,
            }
        };
        let mut guard = cells[idx].lock().unwrap_or_else(PoisonError::into_inner);
        let cell = &mut *guard;
        let pending = std::mem::take(&mut cell.pending);
        cell.link.begin_round(pending);
        let horizon = cell.horizon;
        cell.lane.rounds += 1;
        cell.lane.epoch_len.record(horizon - cell.lane.pos);
        let hint = run_round(&mut cell.lane, &mut cell.link, horizon, cat, tracing);
        let traffic = cell.link.harvest();
        let drained = traffic.queue_drained();
        let lane_id = cell.lane.idx as u32;
        let trace: Vec<(u64, u32, TxnEvent)> = cell
            .lane
            .trace
            .drain(..)
            .map(|(c, ev)| (c, lane_id, ev))
            .collect();
        cell.out = Some(LaneOut {
            hint,
            pos: cell.lane.pos,
            quiescent: cell.lane.worker.is_quiescent(),
            drained,
        });
        cell.done_at = Some(Instant::now());
        drop(guard);
        tree.deposit(
            k,
            RoundNode {
                batch: StagedBatch::from_traffic(traffic),
                trace,
            },
        );
    }
}

/// The claim loop for the exit command: top every lane up to `to`.
fn finish_claimed(
    cells: &[Mutex<LaneCell<'_>>],
    sched: &Mutex<Vec<usize>>,
    cursor: &AtomicUsize,
    to: u64,
    expect_idle: bool,
) {
    loop {
        let k = cursor.fetch_add(1, Ordering::SeqCst);
        let idx = {
            let sch = sched.lock().unwrap_or_else(PoisonError::into_inner);
            match sch.get(k) {
                Some(&i) => i,
                None => break,
            }
        };
        let mut guard = cells[idx].lock().unwrap_or_else(PoisonError::into_inner);
        let cell = &mut *guard;
        finish_lane(&mut cell.lane, &cell.link, to, expect_idle);
    }
}

/// The loop a spawned worker thread runs: wait for a command, claim work,
/// repeat until `Finish`.
#[allow(clippy::too_many_arguments)]
fn participant(
    cells: &[Mutex<LaneCell<'_>>],
    sched: &Mutex<Vec<usize>>,
    cursor: &AtomicUsize,
    tree: &MergeTree,
    gate: &Gate,
    cmd: &Mutex<Cmd>,
    cat: &Catalogue,
    tracing: bool,
) {
    loop {
        gate.wait();
        let c = *cmd.lock().unwrap_or_else(PoisonError::into_inner);
        match c {
            Cmd::Run => {
                run_claimed(cells, sched, cursor, tree, cat, tracing);
                gate.wait();
            }
            Cmd::Finish { to, expect_idle } => {
                finish_claimed(cells, sched, cursor, to, expect_idle);
                return;
            }
        }
    }
}

/// One scheduled lane in a barrier round:
/// `(lane index, granted horizon, deliveries routed since it last ran)`.
pub(crate) type RoundEntry = (usize, u64, Vec<(u64, Packet)>);

/// What the coordinator decided for the next barrier round.
pub(crate) enum Step {
    /// Run the listed lanes, each to its granted horizon, delivering the
    /// attached pending packets first. `gvt` is the round's commit bound:
    /// buffered trace events below it are final in serial order.
    Round { lanes: Vec<RoundEntry>, gvt: u64 },
    /// The epoch phase is over: top every lane up to `to` and hand control
    /// back to the serial loop. `gvt` is the exit bound — `None` means the
    /// machine ran dry, `Some(g)` (necessarily `> cap`) means the cap ended
    /// the phase; the fleet engine uses that to place a crash cycle.
    Finish {
        to: u64,
        expect_idle: bool,
        gvt: Option<u64>,
    },
}

/// The coordinator-side scheduling brain of one epoch phase — GVT
/// fixpoint, staged-send commits, Bellman-Ford earliest-action relaxation,
/// per-lane horizon grants — with *no* opinion about how lanes actually
/// execute. [`Machine::run_epochs`] drives it with scoped threads over
/// in-process lanes; the fleet engine (`machine/fleet.rs`) drives the very
/// same object over chip processes, which is what makes the two engines
/// bit-identical by construction rather than by parallel maintenance.
pub(crate) struct EpochCoordinator {
    n: usize,
    pub(crate) cap: u64,
    now0: u64,
    /// Per-lane exit hints, refreshed from [`LaneOut`] at each barrier.
    hint: Vec<Option<u64>>,
    pub(crate) pos: Vec<u64>,
    drained: Vec<bool>,
    quiescent: Vec<bool>,
    /// Deliveries routed but not yet handed to a scheduled lane.
    slots: Vec<Vec<(u64, Packet)>>,
    base: Vec<Option<u64>>,
    floors: Vec<Option<u64>>,
    /// The last round's GVT (strict-increase audit + exit reporting). The
    /// fleet engine resets it when it extends the cap for the post-cap
    /// mop-up round, since that round legitimately re-derives the same
    /// bound the capped exit reported.
    pub(crate) prev_gvt: Option<u64>,
}

impl EpochCoordinator {
    /// Build from the phase-entry snapshot: one `(hint, drained,
    /// quiescent)` triple per lane, captured right after
    /// [`Noc::begin_epoch`] detached the links.
    pub(crate) fn new(cap: u64, now0: u64, init: Vec<(Option<u64>, bool, bool)>) -> Self {
        let n = init.len();
        let mut hint = Vec::with_capacity(n);
        let mut drained = Vec::with_capacity(n);
        let mut quiescent = Vec::with_capacity(n);
        for (h, d, q) in init {
            hint.push(h);
            drained.push(d);
            quiescent.push(q);
        }
        EpochCoordinator {
            n,
            cap,
            now0,
            hint,
            pos: vec![now0; n],
            drained,
            quiescent,
            slots: (0..n).map(|_| Vec::new()).collect(),
            base: vec![None; n],
            floors: vec![None; n],
            prev_gvt: None,
        }
    }

    /// Absorb one scheduled lane's barrier report.
    pub(crate) fn note_out(&mut self, i: usize, out: &LaneOut) {
        self.hint[i] = out.hint;
        self.pos[i] = out.pos;
        self.drained[i] = out.drained;
        self.quiescent[i] = out.quiescent;
    }

    /// The undelivered routed packets, surrendered at phase exit for
    /// [`Noc::absorb_epoch`].
    pub(crate) fn take_slots(&mut self) -> Vec<Vec<(u64, Packet)>> {
        std::mem::take(&mut self.slots)
    }

    /// Decide the next round: run the GVT fixpoint (committing staged
    /// sends below the bound until no commit can raise it), then either
    /// grant horizons and schedule every lane with work, or declare the
    /// phase over. See the module docs for the full argument.
    pub(crate) fn next_step(&mut self, merger: &mut EpochMerger, noc: &mut Noc) -> Step {
        let n = self.n;
        let pid = |i: usize| PartitionId(i as u16);
        // ---- GVT fixpoint: commit staged sends below the bound until no
        // commit can raise it further ----
        let gvt = loop {
            let floors_now = merger.arrival_floors(noc);
            let mut g: Option<u64> = None;
            for (i, &floor) in floors_now.iter().enumerate() {
                let mut b = self.hint[i];
                if self.drained[i] {
                    if let Some(&(arr, _)) = self.slots[i].first() {
                        let w = arr.max(self.pos[i] + 1);
                        b = Some(b.map_or(w, |x| x.min(w)));
                    }
                }
                if let Some(f) = floor {
                    let w = f.max(self.pos[i] + 1);
                    b = Some(b.map_or(w, |x| x.min(w)));
                }
                self.base[i] = b;
                if let Some(t) = b {
                    g = Some(g.map_or(t, |x| x.min(t)));
                }
            }
            self.floors = floors_now;
            let Some(g) = g else { break None };
            let (deliv, committed) = merger.commit(noc, Some(g));
            for (w, d) in deliv.into_iter().enumerate() {
                for (arr, pkt) in d {
                    debug_assert!(
                        arr > self.pos[w],
                        "delivery at {arr} behind lane {w} at {}",
                        self.pos[w]
                    );
                    self.slots[w].push((arr, pkt));
                }
            }
            if committed == 0 {
                break Some(g);
            }
        };
        debug_assert!(
            self.prev_gvt.is_none_or(|p| gvt.is_none_or(|g| g > p)),
            "GVT must strictly increase across rounds"
        );
        self.prev_gvt = gvt;

        let Some(gvt) = gvt.filter(|&g| g <= self.cap) else {
            // ---- exit: flush the merger, pick the common top-up cycle ----
            let (extra, _) = merger.commit(noc, None);
            debug_assert!(
                extra.iter().all(Vec::is_empty),
                "staged sends survived past the cap"
            );
            debug_assert!(merger.is_drained(), "merger left unreconciled state");
            let to = self.pos.iter().copied().max().unwrap_or(self.now0);
            let expect_idle = self.quiescent.iter().all(|&q| q) && self.prev_gvt.is_none();
            if expect_idle {
                debug_assert!(
                    self.slots.iter().all(Vec::is_empty),
                    "quiescent exit with undelivered NoC traffic"
                );
            }
            return Step::Finish {
                to,
                expect_idle,
                gvt: self.prev_gvt,
            };
        };

        // ---- earliest-action fixpoint (Bellman-Ford over the lookahead
        // matrix): A_j bounds the earliest cycle lane j can still act —
        // and therefore send — at, including being woken through a chain
        // of nearer lanes ----
        let mut act = self.base.clone();
        loop {
            let mut changed = false;
            for j in 0..n {
                for k in 0..n {
                    if k == j {
                        continue;
                    }
                    if let Some(ak) = act[k] {
                        let via = ak.saturating_add(noc.min_latency(pid(k), pid(j)));
                        if act[j].is_none_or(|aj| via < aj) {
                            act[j] = Some(via);
                            changed = true;
                        }
                    }
                }
            }
            if !changed {
                break;
            }
        }

        // ---- grant horizons, schedule lanes with work ----
        let mut lanes: Vec<RoundEntry> = Vec::new();
        for i in 0..n {
            // No send any lane can still make, and no send already staged,
            // arrives at i by H_i.
            let mut bound = self.floors[i];
            for (j, aj) in act.iter().enumerate() {
                if j == i {
                    continue;
                }
                if let Some(aj) = aj {
                    let arr = aj.saturating_add(noc.min_latency(pid(j), pid(i)));
                    bound = Some(bound.map_or(arr, |b| b.min(arr)));
                }
            }
            let h = bound
                .map_or(self.cap, |b| b.saturating_sub(1))
                .min(self.cap);
            debug_assert!(h >= gvt, "horizon below the GVT stalls the round");
            // The lane's next *performable* action (arrival floors are not
            // performable until delivered).
            let mut na = self.hint[i];
            if self.drained[i] {
                if let Some(&(arr, _)) = self.slots[i].first() {
                    let w = arr.max(self.pos[i] + 1);
                    na = Some(na.map_or(w, |x| x.min(w)));
                }
            }
            if let Some(t) = na {
                if t <= h {
                    lanes.push((i, h, std::mem::take(&mut self.slots[i])));
                }
            }
        }
        debug_assert!(
            !lanes.is_empty(),
            "GVT <= cap must schedule at least the GVT lane"
        );
        Step::Round { lanes, gvt }
    }
}

impl Machine {
    /// The epoch-parallel phase of [`Machine::run_to_quiescence_limit`]:
    /// advance the machine as far as the lookahead allows on
    /// `sim_threads` real threads, bit-exactly, then return so the serial
    /// loop can apply its uniform exit conditions. See the module docs and
    /// DESIGN.md §11 for the argument.
    pub(crate) fn run_epochs(&mut self, start: u64, limit: u64) {
        if limit == 0 || self.is_quiescent() {
            return;
        }
        // Never run at or past the crash cycle: the crash cycle must be
        // *ticked* (by the serial loop) so the crash-instant state and the
        // hook's durable snapshot are bit-identical to a serial run.
        let mut cap = start.saturating_add(limit) - 1;
        if let Some(c) = self.fault_plan.crash_at {
            if c <= self.now + 1 {
                return;
            }
            cap = cap.min(c - 1);
        }
        let t0 = if self.any_buffered_responses() {
            Some(self.now + 1)
        } else {
            self.next_event()
        };
        let Some(t0) = t0 else { return };
        if t0 > cap {
            return;
        }

        let n = self.workers.len();
        let threads = self.sim_threads.min(n);
        let tracing = self.trace_sink.enabled();
        let now0 = self.now;
        // Split the machine into disjoint per-worker lanes. The host DRAM
        // view, catalogue, NoC, and trace sink stay with the coordinator.
        let cat = &self.cat;
        let noc = &mut self.noc;
        let sink = &mut self.trace_sink;
        // The merger's depth mirror must be captured before `begin_epoch`
        // detaches the delivery queues.
        let mut merger = EpochMerger::new(noc);
        let links: Vec<EpochLink> = noc.begin_epoch();

        // Coordinator-side per-lane state lives in the EpochCoordinator,
        // refreshed from LaneOut at each barrier (stale-safe for
        // unscheduled lanes: nothing they own changes while they sit out).
        let mut init: Vec<(Option<u64>, bool, bool)> = Vec::with_capacity(n);
        let mut idle_ns: Vec<u64> = vec![0; n];

        let cells: Vec<Mutex<LaneCell<'_>>> = self
            .workers
            .iter_mut()
            .zip(self.banks.iter_mut())
            .zip(self.partitions.iter_mut())
            .zip(links)
            .enumerate()
            .map(|(idx, (((worker, bank), part), link))| {
                let lane = Lane {
                    idx,
                    worker,
                    bank,
                    tables: &mut part.tables,
                    pos: now0,
                    ticks: 0,
                    skips: 0,
                    rounds: 0,
                    epoch_len: LatencyHistogram::new(),
                    trace: Vec::new(),
                };
                init.push((
                    lane_next(&lane, &link),
                    link.next_ready(now0).is_none(),
                    lane.worker.is_quiescent(),
                ));
                Mutex::new(LaneCell {
                    lane,
                    link,
                    pending: Vec::new(),
                    horizon: now0,
                    out: None,
                    done_at: None,
                })
            })
            .collect();
        let mut coord = EpochCoordinator::new(cap, now0, init);

        let gate = Gate::new(threads);
        let cmd_slot: Mutex<Cmd> = Mutex::new(Cmd::Run);
        let sched: Mutex<Vec<usize>> = Mutex::new(Vec::new());
        let cursor = AtomicUsize::new(0);
        let tree = MergeTree::new(n);
        let mut rounds_done = 0u64;
        let mut trace_buf: Vec<(u64, u32, TxnEvent)> = Vec::new();

        let (slots, to) = std::thread::scope(|s| {
            for _ in 1..threads {
                let (cells, sched, cursor, tree, gate, cmd_slot) =
                    (&cells, &sched, &cursor, &tree, &gate, &cmd_slot);
                s.spawn(move || {
                    let _guard = PanicGuard(gate);
                    participant(cells, sched, cursor, tree, gate, cmd_slot, cat, tracing);
                });
            }

            let _guard = PanicGuard(&gate);
            loop {
                match coord.next_step(&mut merger, noc) {
                    Step::Finish {
                        to, expect_idle, ..
                    } => {
                        // ---- exit: drain traces, top all lanes up to the
                        // common cycle ----
                        if tracing {
                            for (_, _, ev) in trace_buf.drain(..) {
                                sink.txn(&ev);
                            }
                        }
                        {
                            let mut sch = sched.lock().unwrap_or_else(PoisonError::into_inner);
                            sch.clear();
                            sch.extend(0..n);
                        }
                        cursor.store(0, Ordering::SeqCst);
                        *cmd_slot.lock().unwrap_or_else(PoisonError::into_inner) =
                            Cmd::Finish { to, expect_idle };
                        gate.wait(); // release peers into Finish
                        finish_claimed(&cells, &sched, &cursor, to, expect_idle);
                        break (coord.take_slots(), to);
                    }
                    Step::Round { lanes, gvt } => {
                        // Trace events below the GVT are final in serial
                        // order.
                        if tracing {
                            let cut = trace_buf.partition_point(|&(c, _, _)| c < gvt);
                            for (_, _, ev) in trace_buf.drain(..cut) {
                                sink.txn(&ev);
                            }
                        }
                        let round_lanes: Vec<usize> = lanes.iter().map(|&(i, _, _)| i).collect();
                        for (i, horizon, pending) in lanes {
                            let mut cell =
                                cells[i].lock().unwrap_or_else(PoisonError::into_inner);
                            cell.horizon = horizon;
                            cell.pending = pending;
                        }
                        {
                            let mut sch = sched.lock().unwrap_or_else(PoisonError::into_inner);
                            sch.clear();
                            sch.extend_from_slice(&round_lanes);
                        }
                        cursor.store(0, Ordering::SeqCst);
                        tree.reset();
                        for leaf in round_lanes.len()..tree.leaves() {
                            tree.deposit(leaf, RoundNode::empty());
                        }
                        *cmd_slot.lock().unwrap_or_else(PoisonError::into_inner) = Cmd::Run;
                        gate.wait(); // release the round
                        run_claimed(&cells, &sched, &cursor, &tree, cat, tracing);
                        gate.wait(); // all results in
                        rounds_done += 1;

                        let barrier_end = Instant::now();
                        for &i in &round_lanes {
                            let mut cell =
                                cells[i].lock().unwrap_or_else(PoisonError::into_inner);
                            let out = cell.out.take().expect("scheduled lane reported");
                            coord.note_out(i, &out);
                            if let Some(done) = cell.done_at.take() {
                                idle_ns[i] += barrier_end.duration_since(done).as_nanos() as u64;
                            }
                        }
                        let root = tree.take_root();
                        merger.absorb(noc, root.batch);
                        trace_buf = merge_traces(std::mem::take(&mut trace_buf), root.trace);
                    }
                }
            }
        });

        let mut total_ticks = 0u64;
        let mut links: Vec<EpochLink> = Vec::with_capacity(n);
        for (i, cell) in cells.into_iter().enumerate() {
            let cell = cell.into_inner().unwrap_or_else(PoisonError::into_inner);
            total_ticks += cell.lane.ticks;
            let la = &mut self.lane_activity[i];
            la.ticks += cell.lane.ticks;
            la.skips += cell.lane.skips;
            la.rounds += cell.lane.rounds;
            la.barrier_idle_ns += idle_ns[i];
            la.epoch_len.merge(&cell.lane.epoch_len);
            debug_assert!(cell.pending.is_empty(), "undelivered pending at exit");
            links.push(cell.link);
        }
        noc.absorb_epoch(links, slots);
        self.now = to;
        // In parallel mode a "tick" is one *component* tick (a single
        // worker at a single cycle) rather than one whole-machine cycle —
        // like strict-vs-fast, the unit deliberately measures the
        // simulator, not the machine.
        self.ticks_executed += total_ticks;
        self.epoch_rounds += rounds_done;
    }
}
