//! The engine-agnostic serving front end: one virtual-time loop that
//! admits open-loop traffic, applies admission control, deadlines, retry
//! and (optionally) cross-transaction batching — against *any* execution
//! engine implementing [`ServeEngine`].
//!
//! Two engine shapes exist:
//!
//! * **Synchronous** (the Silo baseline, [`super::sim::SiloEngine`]): a
//!   dispatched transaction's service time is known immediately — the
//!   body runs inline against the core model — so [`ServeEngine::dispatch`]
//!   returns [`Dispatch::Done`] and the loop schedules the completion on
//!   its own event heap. With a synchronous engine this loop is
//!   *instruction-for-instruction* the pre-refactor `sim.rs` driver: the
//!   same events in the same order consume the same RNG draws, which is
//!   why the `goldencheck` serve goldens survive the refactor byte-for-byte.
//! * **Asynchronous** (the cycle-accurate BionicDB machine,
//!   [`super::hw::BionicServeEngine`]): `dispatch` injects the
//!   transaction into the simulated hardware and returns
//!   [`Dispatch::Pending`]; completions surface later through
//!   [`ServeEngine::advance`], which steps the machine's clock in lockstep
//!   with the front end's virtual time.
//!
//! ## Batched admission
//!
//! [`BatchPolicy`] turns the dispatcher into a staging buffer: admitted
//! tickets accumulate until `width` are ready (or the oldest has waited
//! `age_flush_ns`), then the whole group dispatches at once. Against the
//! hardware engine this is what feeds `BatchMode::CrossTxn` (DESIGN.md
//! §16) a real producer: a flushed group enters the softcore together,
//! forms one interleaving batch, and its index probes ride the batch
//! engines' DRAM waves. Staged tickets hold their server slots, so
//! batching changes *when* work enters an engine, never admission
//! accounting — with `batch: None` (every stock config) the staging path
//! is never entered and the legacy behavior is untouched.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use rand::rngs::SmallRng;
use rand::SeedableRng;

use super::arrival::ArrivalGen;
use super::queue::{AdmissionQueue, Shed, Ticket};
use super::{RetryBucket, RetryMode, ServeConfig, ServeSummary};

/// Cross-transaction batching policy for the dispatcher (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchPolicy {
    /// Dispatch a staged group as soon as it reaches this many tickets
    /// (effective width is capped at the engine's server count — a group
    /// can never out-grow the slots that carry it).
    pub width: usize,
    /// Dispatch a non-full group once its oldest ticket has waited this
    /// long, bounding the latency cost of batch formation.
    pub age_flush_ns: u64,
}

/// What became of a dispatch.
#[derive(Debug, Clone, Copy)]
pub enum Dispatch {
    /// The body ran inline; outcome and timing are already known.
    Done {
        /// Virtual completion time.
        done_ns: u64,
        /// Whether the transaction committed.
        committed: bool,
        /// Server-busy time charged for the execution.
        svc_ns: u64,
    },
    /// The engine executes concurrently in its own simulated time; the
    /// completion will surface from [`ServeEngine::advance`].
    Pending,
}

/// A completion surfaced by an asynchronous engine.
#[derive(Debug, Clone, Copy)]
pub struct Completion {
    /// The dispatched ticket this execution belongs to.
    pub ticket: Ticket,
    /// Virtual completion time.
    pub done_ns: u64,
    /// Whether the transaction committed.
    pub committed: bool,
    /// Server-busy time charged for the execution.
    pub svc_ns: u64,
}

/// An execution engine the serving front end can drive: admit → dispatch
/// → completion events in virtual time.
pub trait ServeEngine {
    /// Server slots (maximum concurrently dispatched transactions).
    fn servers(&self) -> usize;

    /// Execute (or begin executing) `tk`'s transaction at `now_ns`.
    fn dispatch(&mut self, tk: &Ticket, now_ns: u64) -> Dispatch;

    /// Dispatches begun but not yet completed. Synchronous engines always
    /// report zero, which keeps [`serve_with`]'s fast path free of any
    /// engine clock management.
    fn in_flight(&self) -> usize {
        0
    }

    /// Advance the engine's internal clock toward `to_ns`, stopping early
    /// at the first completion(s). Returns the completions in
    /// deterministic `(done_ns, ticket id)` order, or an empty vector
    /// once `to_ns` is reached with nothing finished. Called with
    /// `u64::MAX` when the front end has no scheduled events left and is
    /// draining in-flight work.
    fn advance(&mut self, to_ns: u64) -> Vec<Completion> {
        let _ = to_ns;
        Vec::new()
    }
}

/// Heap events. `Flush` was added after the serve goldens were
/// captured; it sorts after the legacy variants, and configurations
/// without a [`BatchPolicy`] never push it, so legacy event schedules are
/// unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Ev {
    /// A fresh request or a scheduled retry reaches the admission queue.
    Arrival(Ticket),
    /// A server finishes its current transaction.
    Done,
    /// Check whether the staged batch has aged past its flush deadline.
    Flush,
}

/// The serving loop's mutable state, bundled so the event handlers can be
/// methods instead of ten-argument free functions.
struct ServeLoop<'a, E: ServeEngine> {
    cfg: &'a ServeConfig,
    engine: &'a mut E,
    queue: AdmissionQueue,
    bucket: Option<RetryBucket>,
    sum: ServeSummary,
    heap: BinaryHeap<Reverse<(u64, u64, Ev)>>,
    seq: u64,
    free: usize,
    /// Tickets admitted and holding a server slot, awaiting batch flush.
    staged: Vec<Ticket>,
    /// When the oldest staged ticket entered staging.
    staged_at: u64,
    /// `BatchPolicy::width` capped at the server count.
    width: usize,
}

impl<E: ServeEngine> ServeLoop<'_, E> {
    fn push(&mut self, t: u64, ev: Ev) {
        self.seq += 1;
        self.heap.push(Reverse((t, self.seq, ev)));
    }

    /// Client-side failure handling: retry per policy or settle the
    /// terminal outcome. `shed` distinguishes admission sheds from OCC
    /// aborts.
    fn fail(&mut self, tk: Ticket, now: u64, shed: bool) {
        let next_attempt = tk.attempt + 1;
        let retry_at = match self.cfg.retry {
            RetryMode::None => None,
            RetryMode::Immediate { max_attempts } => {
                (next_attempt < max_attempts).then_some(now + 1)
            }
            RetryMode::Budgeted(p) => {
                let at = now + p.backoff_ns(next_attempt);
                (next_attempt < p.max_attempts
                    && at < tk.deadline_ns
                    && self.bucket.as_mut().expect("budgeted bucket").try_take())
                .then_some(at)
            }
        };
        match retry_at {
            Some(at) => {
                self.sum.retries += 1;
                self.push(
                    at,
                    Ev::Arrival(Ticket {
                        attempt: next_attempt,
                        ..tk
                    }),
                );
            }
            None if shed => self.sum.shed += 1,
            None => self.sum.aborted += 1,
        }
    }

    /// Account a known outcome at its completion time. For a synchronous
    /// engine the matching `Ev::Done` also lands at `done`, so folding
    /// `done` into the horizon here (for every branch) changes nothing;
    /// for an asynchronous engine it is the only horizon update.
    fn settle(&mut self, tk: Ticket, done: u64, committed: bool, svc_ns: u64) {
        self.sum.horizon_ns = self.sum.horizon_ns.max(done);
        if self.cfg.enforce_deadline && done > tk.deadline_ns {
            // The commit point falls past the deadline: the commit
            // aborts as a timeout. The body's service time is still
            // spent.
            self.sum.timed_out += 1;
        } else if committed && done <= tk.deadline_ns {
            self.sum.good += 1;
            self.sum.good_busy_ns += svc_ns;
            self.sum.sojourn.record(done - tk.born_ns);
        } else if committed {
            self.sum.late += 1;
        } else {
            self.fail(tk, done, false);
        }
    }

    /// Start `tk`'s execution at `now` (its server slot is already
    /// reserved by the caller).
    fn run_ticket(&mut self, tk: Ticket, now: u64) {
        match self.engine.dispatch(&tk, now) {
            Dispatch::Done {
                done_ns,
                committed,
                svc_ns,
            } => {
                self.sum.executed += 1;
                self.sum.busy_ns += svc_ns;
                self.push(done_ns, Ev::Done);
                self.settle(tk, done_ns, committed, svc_ns);
            }
            Dispatch::Pending => self.sum.executed += 1,
        }
    }

    /// Dispatch the whole staged group at `now`.
    fn flush(&mut self, now: u64) {
        let group = std::mem::take(&mut self.staged);
        for tk in group {
            self.run_ticket(tk, now);
        }
    }

    /// Drain the admission queue into idle servers (or, with batching,
    /// into the staging buffer) at `now`.
    fn dispatch_ready(&mut self, now: u64) {
        while self.free > 0 {
            let Some(tk) = self.queue.take(now) else { break };
            if self.cfg.enforce_deadline && now >= tk.deadline_ns {
                self.sum.timed_out += 1;
                continue;
            }
            self.free -= 1;
            match self.cfg.batch {
                None => self.run_ticket(tk, now),
                Some(b) => {
                    if self.staged.is_empty() {
                        self.staged_at = now;
                        self.push(now.saturating_add(b.age_flush_ns), Ev::Flush);
                    }
                    self.staged.push(tk);
                    if self.staged.len() >= self.width {
                        self.flush(now);
                    }
                }
            }
        }
    }

    fn run(&mut self, rng_arr: &mut SmallRng, gen: &mut ArrivalGen) {
        let mut born = 0u64;
        // First fresh arrival; each fresh arrival schedules the next
        // until `requests` have been born.
        if self.cfg.requests > 0 {
            let t0 = gen.next_gap_ns(rng_arr);
            self.push(
                t0,
                Ev::Arrival(Ticket {
                    id: 0,
                    born_ns: t0,
                    deadline_ns: t0.saturating_add(self.cfg.deadline_ns),
                    txn_index: 0,
                    attempt: 0,
                }),
            );
            born = 1;
            self.sum.fresh = 1;
        }

        loop {
            // Asynchronous engines: surface every completion that lands
            // before the next scheduled event, so freed slots re-dispatch
            // at completion time, not at the next arrival.
            if self.engine.in_flight() > 0 {
                let bound = self
                    .heap
                    .peek()
                    .map_or(u64::MAX, |Reverse((t, _, _))| *t);
                let completions = self.engine.advance(bound);
                if !completions.is_empty() {
                    let mut latest = 0u64;
                    for c in &completions {
                        self.sum.busy_ns += c.svc_ns;
                        self.free += 1;
                        latest = latest.max(c.done_ns);
                        self.settle(c.ticket, c.done_ns, c.committed, c.svc_ns);
                    }
                    self.dispatch_ready(latest);
                    continue;
                }
            }
            let Some(Reverse((now, _, ev))) = self.heap.pop() else {
                break;
            };
            self.sum.horizon_ns = self.sum.horizon_ns.max(now);
            match ev {
                Ev::Arrival(tk) => {
                    if tk.attempt == 0 {
                        if let Some(b) = self.bucket.as_mut() {
                            b.on_fresh();
                        }
                        if (born as usize) < self.cfg.requests {
                            let t = now + gen.next_gap_ns(rng_arr);
                            self.push(
                                t,
                                Ev::Arrival(Ticket {
                                    id: born,
                                    born_ns: t,
                                    deadline_ns: t.saturating_add(self.cfg.deadline_ns),
                                    txn_index: born as usize,
                                    attempt: 0,
                                }),
                            );
                            born += 1;
                            self.sum.fresh += 1;
                        }
                    }
                    match self.queue.offer(tk, now) {
                        Ok(()) => {}
                        Err(Shed::Rejected) => self.fail(tk, now, true),
                        Err(Shed::Evicted(victim)) => self.fail(victim, now, true),
                    }
                }
                Ev::Done => self.free += 1,
                Ev::Flush => {
                    if let Some(b) = self.cfg.batch {
                        if !self.staged.is_empty()
                            && now >= self.staged_at.saturating_add(b.age_flush_ns)
                        {
                            self.flush(now);
                        }
                    }
                }
            }
            self.dispatch_ready(now);
        }
    }
}

/// Run one open-loop serving scenario against `engine` to completion and
/// return the conserved terminal ledger. This is the single front end
/// behind both the Silo virtual-time driver ([`super::sim::simulate`])
/// and the BionicDB hardware driver ([`super::hw`]).
pub fn serve_with<E: ServeEngine>(engine: &mut E, cfg: &ServeConfig) -> ServeSummary {
    cfg.validate().expect("invalid serving configuration");
    // Arrival gaps draw from their own stream, decorrelated from the
    // engines' transaction parameter draws.
    let mut rng_arr = SmallRng::seed_from_u64(cfg.seed);
    let mut gen = ArrivalGen::new(cfg.arrivals);
    let free = engine.servers().max(1);
    let width = cfg.batch.map_or(1, |b| b.width.min(free));
    let mut lp = ServeLoop {
        cfg,
        engine,
        queue: AdmissionQueue::new(cfg.policy, cfg.queue_capacity),
        bucket: match cfg.retry {
            RetryMode::Budgeted(p) => Some(RetryBucket::new(&p)),
            _ => None,
        },
        sum: ServeSummary::new(),
        heap: BinaryHeap::new(),
        seq: 0,
        free,
        staged: Vec::new(),
        staged_at: 0,
        width,
    };
    lp.run(&mut rng_arr, &mut gen);
    assert!(lp.staged.is_empty(), "staged tickets must flush before exit");
    assert_eq!(lp.engine.in_flight(), 0, "engine drained before exit");

    // Expired entries purged inside the queue never re-emerged: they are
    // terminal timeouts. Copy the queue's shed ledger out.
    let mut sum = lp.sum;
    sum.timed_out += lp.queue.dropped_expired;
    sum.rejected = lp.queue.rejected;
    sum.dropped_expired = lp.queue.dropped_expired;
    sum.evicted = lp.queue.evicted;
    sum.queue_high_water = lp.queue.high_water as u64;
    sum.assert_conserved();
    sum
}
