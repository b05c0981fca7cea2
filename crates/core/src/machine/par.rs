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
//! # One engine, one placement
//!
//! Each worker *lane* (worker + bank + tables + detached [`EpochLink`])
//! is a work item. One driver, [`drive`], runs an epoch phase: it asks the
//! [`EpochCoordinator`] for the next step and hands it to [`Threads`],
//! which can do exactly two things — run a set of lanes to their horizons
//! on scoped threads, and finish every lane at a common cycle. The
//! coordinator has no opinion about which thread runs which lane: every
//! lane steps through the same [`step_lane`]/[`finish_lane`], and the
//! round's fold does not depend on the claim order.
//!
//! # The schedule (GVT + per-pair horizons)
//!
//! Per round:
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
//! 5. Every lane whose next action is `<= H_i` is scheduled. Threads (the
//!    coordinator included) **claim lanes dynamically** with an atomic
//!    cursor. Each thread **folds** the round traffic and trace of the
//!    lanes it ran into one result, and after the barrier the coordinator
//!    folds the per-thread results. Every fold key is `(cycle, lane)` and
//!    two lanes never tie, so the round's fold is the same whichever
//!    thread ran which lane.
//!
//! Trace events drain to the sink only below the GVT (their serial order
//! is then final); the remainder drains at phase end.
//!
//! # Exit policy
//!
//! The phase runs *through* its stop cycle: the crash cycle, the
//! `step_until` target, or the last cycle of a quiescence run's limit. A
//! capped quiescence run extends once to the next event (the serial loop
//! ticks that event before its limit check) and panics if the machine is
//! still busy after it. Every lane is then finished at the exit cycle,
//! and only after that does the machine latch a scheduled crash and run
//! its hook — the same instant serial ticking reaches after the crash
//! cycle's last worker. See DESIGN.md §11, "Exit and crash exactness".
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
//!
//! The coordination barrier blocks (mutex + condvar) rather than spins, so
//! oversubscribed hosts — including single-core CI boxes — degrade
//! gracefully.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, PoisonError};
use std::thread::Scope;
use std::time::Instant;

use bionicdb_coproc::layout::TableState;
use bionicdb_fpga::{Dram, TraceSink, TxnEvent};
use bionicdb_noc::{fold_sorted, EpochLink, EpochMerger, Noc, Packet, StagedBatch};
use bionicdb_softcore::catalogue::Catalogue;
use bionicdb_softcore::PartitionId;

use super::{LaneActivity, Machine};
use crate::worker::PartitionWorker;

// ---------------------------------------------------------------------------
// one lane

/// One worker's slice of the machine, self-contained for a phase.
struct Lane<'a> {
    idx: usize,
    worker: &'a mut PartitionWorker,
    bank: &'a mut Dram,
    tables: &'a mut [TableState],
    /// This lane's clock: the last cycle it ticked or skipped to.
    pos: u64,
    /// What running this lane cost the simulator this phase.
    act: LaneActivity,
    /// Trace events buffered this round, stamped with their cycle.
    trace: Vec<(u64, TxnEvent)>,
}

impl<'a> Lane<'a> {
    fn new(
        idx: usize,
        worker: &'a mut PartitionWorker,
        bank: &'a mut Dram,
        tables: &'a mut [TableState],
        pos: u64,
    ) -> Self {
        Lane {
            idx,
            worker,
            bank,
            tables,
            pos,
            act: LaneActivity::new(),
            trace: Vec::new(),
        }
    }
}

/// What a lane reports to the coordinator: its phase-entry snapshot and,
/// after every round it ran, its barrier scalars (its traffic and trace
/// travel in a [`RoundNode`] instead).
struct LaneOut {
    /// The lane's next self-known action, or `None` when the worker,
    /// bank, and queued deliveries are all exhausted.
    hint: Option<u64>,
    pos: u64,
    quiescent: bool,
    /// Whether the lane's delivery queue is empty.
    drained: bool,
}

impl LaneOut {
    /// Snapshot `lane`, whose next action is `hint` (`lane_next`).
    fn of(lane: &Lane<'_>, link: &EpochLink, hint: Option<u64>) -> Self {
        LaneOut {
            hint,
            pos: lane.pos,
            quiescent: lane.worker.is_quiescent(),
            drained: link.next_ready(lane.pos).is_none(),
        }
    }

    /// The phase-entry snapshot of a freshly built lane.
    fn entry(lane: &Lane<'_>, link: &EpochLink) -> Self {
        Self::of(lane, link, lane_next(lane, link))
    }
}

/// The round traffic and trace of one lane, or the fold of several.
#[derive(Default)]
struct RoundNode {
    batch: StagedBatch,
    /// Trace events `(cycle, lane, event)`, sorted by `(cycle, lane)`.
    trace: Vec<(u64, u32, TxnEvent)>,
}

impl RoundNode {
    /// Fold `other` in; the result does not depend on the fold order (see
    /// [`StagedBatch::fold`]).
    fn fold(&mut self, other: Self) {
        self.batch.fold(other.batch);
        merge_traces(&mut self.trace, other.trace);
    }
}

/// Fold `(cycle, lane)`-sorted trace events `b` into `a` — the serial
/// drain order.
fn merge_traces(a: &mut Vec<(u64, u32, TxnEvent)>, b: Vec<(u64, u32, TxnEvent)>) {
    fold_sorted(a, b, |&(c, lane, _)| (c, lane));
}

/// What one thread hands back for a round, and what a round returns: the
/// scheduled lanes' reports (in any order) plus their folded traffic and
/// trace.
type Folded = (Vec<(usize, LaneOut)>, RoundNode);

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
/// Delivering and draining an orphan is stat-neutral, and the bank
/// delivers everything due before the lane's next issue, so *when* it
/// happens (here: only while the lane is otherwise active) is invisible.
/// (Posted-write acknowledgements no longer reach this path at all: the
/// banks cancel them at completion.)
fn lane_next(lane: &Lane<'_>, link: &EpochLink) -> Option<u64> {
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
fn run_round(
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
                    lane.act.skips += k;
                }
                lane.pos = t;
                lane.act.ticks += 1;
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

/// The lane step for a scheduled lane: deliver the routed packets, run to
/// `horizon`, and harvest the round's traffic and trace for the merge plus
/// the scalars for the coordinator.
fn step_lane(
    lane: &mut Lane<'_>,
    link: &mut EpochLink,
    horizon: u64,
    pending: Vec<(u64, Packet)>,
    cat: &Catalogue,
    tracing: bool,
) -> (LaneOut, RoundNode) {
    link.begin_round(pending);
    lane.act.rounds += 1;
    lane.act.epoch_len.record(horizon - lane.pos);
    let hint = run_round(lane, link, horizon, cat, tracing);
    let batch = link.harvest();
    let id = lane.idx as u32;
    let trace = lane.trace.drain(..).map(|(c, ev)| (c, id, ev)).collect();
    (LaneOut::of(lane, link, hint), RoundNode { batch, trace })
}

/// Top a lane up to the common exit cycle. With `expect_idle` (the
/// coordinator determined the machine is quiescent) this also audits that
/// nothing was left behind.
fn finish_lane(lane: &mut Lane<'_>, link: &EpochLink, to: u64, expect_idle: bool) {
    debug_assert!(to >= lane.pos, "finish target behind lane position");
    if to > lane.pos {
        lane.worker.skip(to - lane.pos);
        lane.act.skips += to - lane.pos;
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

// ---------------------------------------------------------------------------
// the coordinator

/// One scheduled lane in a barrier round:
/// `(lane index, granted horizon, deliveries routed since it last ran)`.
type RoundEntry = (usize, u64, Vec<(u64, Packet)>);

/// What the coordinator decided for the next barrier round.
enum Step {
    /// Run the listed lanes, each to its granted horizon, delivering the
    /// attached pending packets first. `gvt` is the round's commit bound:
    /// buffered trace events below it are final in serial order.
    Round { lanes: Vec<RoundEntry>, gvt: u64 },
    /// The phase is over: finish every lane at cycle `to`. `expect_idle`
    /// says the machine ran dry and every worker is quiescent.
    Finish { to: u64, expect_idle: bool },
}

/// Where an epoch phase stops.
#[derive(Clone, Copy)]
enum Stop {
    /// `run_to_quiescence_limit`: stop once the machine ran dry; panic
    /// when it is still busy `limit` cycles on (after the one-time
    /// extension to the next event).
    Quiesce { limit: u64 },
    /// `step_until`: land exactly on this cycle, busy or not.
    At(u64),
}

/// The coordinator-side scheduling brain of one epoch phase — GVT
/// fixpoint, staged-send commits, Bellman-Ford earliest-action relaxation,
/// per-lane horizon grants, and the exit policy — with *no* opinion about
/// how lanes actually execute.
struct EpochCoordinator {
    n: usize,
    now0: u64,
    stop: Stop,
    /// The scheduled crash cycle, if any (never at or before `now0`).
    crash: Option<u64>,
    /// The last cycle a lane may run to: the stop cycle, the crash cycle,
    /// or — once extended — the first event past the limit.
    cap: u64,
    /// Whether a quiescence run has spent its one extension.
    extended: bool,
    /// Per-lane exit hints, refreshed from [`LaneOut`] at each barrier.
    hint: Vec<Option<u64>>,
    pos: Vec<u64>,
    drained: Vec<bool>,
    quiescent: Vec<bool>,
    /// Deliveries routed but not yet handed to a scheduled lane.
    slots: Vec<Vec<(u64, Packet)>>,
    base: Vec<Option<u64>>,
    floors: Vec<Option<u64>>,
    /// The last round's GVT (strict-increase audit).
    prev_gvt: Option<u64>,
}

impl EpochCoordinator {
    /// Build from the phase-entry snapshot, one [`LaneOut`] per lane,
    /// captured right after [`Noc::begin_epoch`] detached the links.
    fn new(now0: u64, stop: Stop, crash: Option<u64>, init: Vec<LaneOut>) -> Self {
        let n = init.len();
        let last = match stop {
            Stop::Quiesce { limit } => now0.saturating_add(limit) - 1,
            Stop::At(target) => target,
        };
        let mut coord = EpochCoordinator {
            n,
            now0,
            stop,
            crash,
            cap: crash.map_or(last, |c| last.min(c)),
            extended: false,
            hint: vec![None; n],
            pos: vec![now0; n],
            drained: vec![true; n],
            quiescent: vec![true; n],
            slots: (0..n).map(|_| Vec::new()).collect(),
            base: vec![None; n],
            floors: vec![None; n],
            prev_gvt: None,
        };
        for (i, out) in init.iter().enumerate() {
            coord.note_out(i, out);
        }
        coord
    }

    /// Absorb one lane's report.
    fn note_out(&mut self, i: usize, out: &LaneOut) {
        self.hint[i] = out.hint;
        self.pos[i] = out.pos;
        self.drained[i] = out.drained;
        self.quiescent[i] = out.quiescent;
    }

    /// Decide the next round: run the GVT fixpoint (committing staged
    /// sends below the bound until no commit can raise it), then either
    /// grant horizons and schedule every lane with work, or declare the
    /// phase over. See the module docs for the full argument.
    fn next_step(&mut self, merger: &mut EpochMerger, noc: &mut Noc) -> Step {
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

        let gvt = match gvt {
            Some(g) if g <= self.cap || self.extend(g) => g,
            _ => return self.finish(merger, noc, gvt.is_none()),
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

    /// A quiescence run whose next event `g` lies past the cap: the serial
    /// loop it reproduces ticks that one event before its limit check, so
    /// the cap moves to `g` once. Declines when the cap is the crash cycle
    /// (the phase ran through it) or the crash precedes `g` (the run lands
    /// on the crash instead); panics on a second overrun.
    fn extend(&mut self, g: u64) -> bool {
        let Stop::Quiesce { limit } = self.stop else {
            return false;
        };
        if Some(self.cap) == self.crash {
            return false;
        }
        assert!(
            !self.extended,
            "machine did not quiesce within {limit} cycles"
        );
        if self.crash.is_some_and(|c| c < g) {
            return false;
        }
        self.extended = true;
        self.cap = g;
        true
    }

    /// The exit step: flush the merger and pick the cycle every lane
    /// finishes at.
    fn finish(&mut self, merger: &mut EpochMerger, noc: &mut Noc, dry: bool) -> Step {
        let (extra, _) = merger.commit(noc, None);
        debug_assert!(
            extra.iter().all(Vec::is_empty),
            "staged sends survived past the cap"
        );
        debug_assert!(merger.is_drained(), "merger left unreconciled state");
        let expect_idle = dry && self.quiescent.iter().all(|&q| q);
        if expect_idle {
            debug_assert!(
                self.slots.iter().all(Vec::is_empty),
                "quiescent exit with undelivered NoC traffic"
            );
        }
        let to = match self.stop {
            // A timed run lands on its cap: the target, or the crash.
            Stop::At(_) => self.cap,
            // Ran dry and quiescent: the last cycle any lane acted at.
            Stop::Quiesce { .. } if expect_idle => {
                self.pos.iter().copied().max().unwrap_or(self.now0)
            }
            // Still busy past the cap, which `extend` declined because of
            // the crash; or wedged with no event left, where serial ticks
            // on to the crash if it lies within the limit (or the cap).
            Stop::Quiesce { limit } => match self.crash {
                Some(c) if !dry || c == self.cap || c <= self.now0.saturating_add(limit) => c,
                _ => panic!("machine did not quiesce within {limit} cycles (wedged worker)"),
            },
        };
        Step::Finish { to, expect_idle }
    }
}

// ---------------------------------------------------------------------------
// the driver

/// The coordinator-side outcome of one phase.
struct Drive {
    to: u64,
    rounds: u64,
    /// Deliveries routed but never handed to a lane.
    slots: Vec<Vec<(u64, Packet)>>,
}

/// The one epoch-phase driver: step the coordinator until it declares the
/// phase over, running each round on `place`, committing its traffic, and
/// draining trace events to `sink` in serial order.
fn drive<'c: 'scope, 'scope, 'env, 'a: 'scope>(
    place: &mut Threads<'c, 'scope, 'env, 'a>,
    mut coord: EpochCoordinator,
    mut merger: EpochMerger,
    noc: &mut Noc,
    sink: &mut dyn TraceSink,
) -> Drive {
    let tracing = sink.enabled();
    let mut trace_buf: Vec<(u64, u32, TxnEvent)> = Vec::new();
    let mut rounds = 0;
    loop {
        match coord.next_step(&mut merger, noc) {
            Step::Round { lanes, gvt } => {
                // Trace events below the GVT are final in serial order.
                if tracing {
                    let cut = trace_buf.partition_point(|&(c, _, _)| c < gvt);
                    for (_, _, ev) in trace_buf.drain(..cut) {
                        sink.txn(&ev);
                    }
                }
                let (outs, root) = place.run(lanes);
                for (i, out) in &outs {
                    coord.note_out(*i, out);
                }
                merger.absorb(noc, root.batch);
                merge_traces(&mut trace_buf, root.trace);
                rounds += 1;
            }
            Step::Finish { to, expect_idle } => {
                for (_, _, ev) in trace_buf.drain(..) {
                    sink.txn(&ev);
                }
                place.finish(to, expect_idle);
                return Drive {
                    to,
                    rounds,
                    slots: coord.slots,
                };
            }
        }
    }
}

impl Machine {
    /// [`Machine::advance`] on the lane engine: one epoch phase on
    /// `sim_threads` scoped threads, run through its stop cycle. The
    /// caller has ruled out a crashed machine and a quiescence run on a
    /// quiescent one.
    pub(crate) fn run_lanes(&mut self, limit: u64, quiesce: bool) -> u64 {
        let start = self.now;
        let stop = if quiesce {
            assert!(limit > 0, "machine did not quiesce within 0 cycles");
            Stop::Quiesce { limit }
        } else {
            Stop::At(start + limit)
        };
        // A crash cycle already behind the clock fires on the next tick.
        let crash = self.fault_plan.crash_at.map(|c| c.max(start + 1));
        // The merger's depth mirror must be captured before `begin_epoch`
        // detaches the delivery queues.
        let merger = EpochMerger::new(&self.noc);
        let links = self.noc.begin_epoch();
        let (end, links, acts) = self.thread_phase(links, stop, crash, merger);

        for (la, a) in self.lane_activity.iter_mut().zip(&acts) {
            la.absorb(a);
        }
        // On the lane engine a "tick" is one *component* tick (a single
        // worker at a single cycle) rather than one whole-machine cycle —
        // like strict-vs-fast, the unit measures the simulator.
        self.ticks_executed += acts.iter().map(|a| a.ticks).sum::<u64>();
        self.epoch_rounds += end.rounds;
        self.noc.absorb_epoch(links, end.slots);
        self.now = end.to;
        if crash == Some(end.to) {
            self.crashed = true;
            if let Some(mut hook) = self.crash_hook.take() {
                self.crash_image = Some(hook(self));
            }
        }
        self.now - start
    }
}

// ---------------------------------------------------------------------------
// the threads

/// Coordinator commands, published before the round barrier.
#[derive(Clone, Copy)]
enum Cmd {
    /// Claim lanes off the shared schedule and run each to its granted
    /// per-lane horizon.
    Run,
    /// Claim lanes, finish each at cycle `to`, and exit.
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

/// A lane plus what the coordinator collects from it after a round.
struct LaneCell<'a> {
    lane: Lane<'a>,
    link: EpochLink,
    /// When the claiming thread finished this lane — the coordinator turns
    /// it into per-lane barrier idle time.
    done_at: Option<Instant>,
}

/// Everything the threads of one phase share.
struct Crew<'a> {
    cells: Vec<Mutex<LaneCell<'a>>>,
    /// The current round's schedule; a claimer takes entry `k`'s pending
    /// deliveries.
    sched: Mutex<Vec<RoundEntry>>,
    cursor: AtomicUsize,
    /// One folded result per thread that ran a lane this round.
    results: Mutex<Vec<Folded>>,
    gate: Gate,
    cmd: Mutex<Cmd>,
    cat: &'a Catalogue,
    tracing: bool,
}

impl<'a> Crew<'a> {
    /// Claim the next cursor slot.
    fn claim(&self) -> usize {
        self.cursor.fetch_add(1, Ordering::SeqCst)
    }

    fn cell(&self, i: usize) -> std::sync::MutexGuard<'_, LaneCell<'a>> {
        self.cells[i].lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The work-stealing loop every thread (coordinator included) runs
    /// during a round: claim the next scheduled lane, step it, and fold its
    /// report, traffic and trace into this thread's result, which is
    /// deposited once the schedule is exhausted.
    fn run_claimed(&self) {
        let mut folded = Folded::default();
        loop {
            let k = self.claim();
            let entry = {
                let mut sch = self.sched.lock().unwrap_or_else(PoisonError::into_inner);
                sch.get_mut(k).map(|e| (e.0, e.1, std::mem::take(&mut e.2)))
            };
            let Some((i, horizon, pending)) = entry else {
                break;
            };
            let mut guard = self.cell(i);
            let cell = &mut *guard;
            let (out, node) = step_lane(
                &mut cell.lane,
                &mut cell.link,
                horizon,
                pending,
                self.cat,
                self.tracing,
            );
            cell.done_at = Some(Instant::now());
            drop(guard);
            folded.0.push((i, out));
            folded.1.fold(node);
        }
        if !folded.0.is_empty() {
            self.results
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(folded);
        }
    }

    /// The claim loop for the exit command: finish every lane at `to`.
    fn finish_claimed(&self, to: u64, expect_idle: bool) {
        loop {
            let k = self.claim();
            if k >= self.cells.len() {
                break;
            }
            let mut guard = self.cell(k);
            let cell = &mut *guard;
            finish_lane(&mut cell.lane, &cell.link, to, expect_idle);
        }
    }

    /// The loop a spawned thread runs: wait for a command, claim work,
    /// repeat until `Finish`.
    fn participate(&self) {
        let _guard = PanicGuard(&self.gate);
        loop {
            self.gate.wait();
            let c = *self.cmd.lock().unwrap_or_else(PoisonError::into_inner);
            match c {
                Cmd::Run => {
                    self.run_claimed();
                    self.gate.wait();
                }
                Cmd::Finish { to, expect_idle } => {
                    self.finish_claimed(to, expect_idle);
                    return;
                }
            }
        }
    }

    /// Publish a command and release the spawned threads into it.
    fn release(&self, cmd: Cmd) {
        self.cursor.store(0, Ordering::SeqCst);
        *self.cmd.lock().unwrap_or_else(PoisonError::into_inner) = cmd;
        self.gate.wait();
    }
}

/// Where lanes run: scoped threads, spawned at the first round (a phase
/// with no rounds runs on the calling thread alone).
struct Threads<'c, 'scope, 'env, 'a> {
    scope: &'scope Scope<'scope, 'env>,
    crew: &'c Crew<'a>,
    threads: usize,
    spawned: bool,
}

impl<'c: 'scope, 'scope, 'env, 'a: 'scope> Threads<'c, 'scope, 'env, 'a> {
    /// Run the scheduled lanes, each to its granted horizon. Returns every
    /// scheduled lane's report and the round's folded traffic and trace.
    fn run(&mut self, lanes: Vec<RoundEntry>) -> Folded {
        let crew = self.crew;
        if !self.spawned {
            for _ in 1..self.threads {
                self.scope.spawn(move || crew.participate());
            }
            self.spawned = true;
        }
        *crew.sched.lock().unwrap_or_else(PoisonError::into_inner) = lanes;
        crew.release(Cmd::Run);
        crew.run_claimed();
        crew.gate.wait(); // all results in
        let barrier_end = Instant::now();
        let mut round = Folded::default();
        for (outs, node) in crew
            .results
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .drain(..)
        {
            round.0.extend(outs);
            round.1.fold(node);
        }
        for &(i, _) in &round.0 {
            let mut cell = crew.cell(i);
            if let Some(done) = cell.done_at.take() {
                cell.lane.act.barrier_idle_ns += barrier_end.duration_since(done).as_nanos() as u64;
            }
        }
        round
    }

    /// Finish every lane at cycle `to`, closing the phase.
    fn finish(&mut self, to: u64, expect_idle: bool) {
        let cmd = Cmd::Finish { to, expect_idle };
        if self.spawned {
            self.crew.release(cmd);
        } else {
            self.crew.cursor.store(0, Ordering::SeqCst);
        }
        self.crew.finish_claimed(to, expect_idle);
    }
}

impl Machine {
    /// One phase on `sim_threads` in-process threads. Returns the drive
    /// outcome plus every lane's link and activity, in lane order.
    fn thread_phase(
        &mut self,
        links: Vec<EpochLink>,
        stop: Stop,
        crash: Option<u64>,
        merger: EpochMerger,
    ) -> (Drive, Vec<EpochLink>, Vec<LaneActivity>) {
        let now0 = self.now;
        let n = self.workers.len();
        let threads = self.sim_threads.min(n);
        let tracing = self.trace_sink.enabled();
        // Split the machine into disjoint per-worker lanes. The host DRAM
        // view, catalogue, NoC, and trace sink stay with the coordinator.
        let Machine {
            workers,
            banks,
            partitions,
            cat,
            noc,
            trace_sink,
            ..
        } = self;
        let mut init = Vec::with_capacity(n);
        let cells = workers
            .iter_mut()
            .zip(banks.iter_mut())
            .zip(partitions.iter_mut())
            .zip(links)
            .enumerate()
            .map(|(idx, (((worker, bank), part), link))| {
                let lane = Lane::new(idx, worker, bank, &mut part.tables, now0);
                init.push(LaneOut::entry(&lane, &link));
                Mutex::new(LaneCell {
                    lane,
                    link,
                    done_at: None,
                })
            })
            .collect();
        let crew = Crew {
            cells,
            sched: Mutex::new(Vec::new()),
            cursor: AtomicUsize::new(0),
            results: Mutex::new(Vec::new()),
            gate: Gate::new(threads),
            cmd: Mutex::new(Cmd::Run),
            cat,
            tracing,
        };
        let coord = EpochCoordinator::new(now0, stop, crash, init);
        let end = std::thread::scope(|scope| {
            let _guard = PanicGuard(&crew.gate);
            let mut place = Threads {
                scope,
                crew: &crew,
                threads,
                spawned: false,
            };
            drive(&mut place, coord, merger, noc, trace_sink.as_mut())
        });
        let (links, acts) = crew
            .cells
            .into_iter()
            .map(|c| {
                let c = c.into_inner().unwrap_or_else(PoisonError::into_inner);
                (c.link, c.lane.act)
            })
            .unzip();
        (end, links, acts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A trace event told apart by its block address.
    fn event(lane: usize, k: usize) -> TxnEvent {
        TxnEvent {
            worker: lane as u16,
            block_addr: k as u64,
            submitted_at: 0,
            logic_start: 0,
            logic_end: 0,
            commit_start: 0,
            finished_at: 0,
            committed: true,
        }
    }

    proptest! {
        /// Trace folds agree in any grouping and order, the way
        /// `StagedBatch` folds do: folding the lanes' round traces through
        /// per-thread results in any claim order drains the events in the
        /// lane-order fold's `(cycle, lane)` order.
        #[test]
        fn trace_folds_agree_in_any_grouping_and_order(
            lanes in prop::collection::vec(prop::collection::vec(0u64..10, 0..6), 1..7),
            order_keys in prop::collection::vec(any::<u64>(), 6),
            cuts in prop::collection::vec(any::<bool>(), 6),
            reverse_groups in any::<bool>(),
        ) {
            // Lane `i`'s trace: events in cycle order, several per cycle.
            let trace = |i: usize| -> Vec<(u64, u32, TxnEvent)> {
                let mut cycles = lanes[i].clone();
                cycles.sort_unstable();
                cycles.into_iter().enumerate().map(|(k, c)| (c, i as u32, event(i, k))).collect()
            };
            let mut reference = Vec::new();
            for i in 0..lanes.len() {
                merge_traces(&mut reference, trace(i));
            }
            let mut order: Vec<usize> = (0..lanes.len()).collect();
            order.sort_by_key(|&i| order_keys[i]);
            let mut groups: Vec<Vec<(u64, u32, TxnEvent)>> = Vec::new();
            for (k, i) in order.into_iter().enumerate() {
                if k == 0 || cuts[k] {
                    groups.push(Vec::new());
                }
                merge_traces(groups.last_mut().expect("a group is open"), trace(i));
            }
            if reverse_groups {
                groups.reverse();
            }
            let mut folded = Vec::new();
            for g in groups {
                merge_traces(&mut folded, g);
            }
            prop_assert!(
                reference.windows(2).all(|w| (w[0].0, w[0].1) <= (w[1].0, w[1].1)),
                "lane-order fold unsorted"
            );
            prop_assert_eq!(folded, reference);
        }
    }
}
