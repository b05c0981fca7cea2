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
//! [`BatchPolicy`] turns the dispatcher into a staging buffer, but only
//! while the engine is busy. The loop counts the tickets still executing
//! from its own slot accounting (`servers − free − staged`, never
//! [`ServeEngine::in_flight`], which synchronous engines report as 0).
//! While fewer than `width` execute, an admitted ticket dispatches at
//! once, and a staged group flushes as soon as completions drop the count
//! below `width`. Otherwise tickets stage until `width` are ready or the
//! oldest has waited `age_flush_ns`. Bulk entry trades latency for
//! throughput, and that only pays when work queues behind a busy device:
//! an arrival to an underfed engine gains nothing by waiting.
//!
//! Against the hardware engine this feeds `BatchMode::CrossTxn` (DESIGN.md
//! §16): co-dispatched tickets' index probes ride the batch engines' DRAM
//! waves. A flushed group is *not* one interleaving batch, though — the
//! engine routes each ticket to its least-outstanding worker, so a group
//! of 4 over 2 idle workers splits 2 + 2. Staged tickets hold their server
//! slots, so batching changes *when* work enters an engine, never
//! admission accounting — with `batch: None` (every stock config) the
//! staging path is never entered and the legacy behavior is untouched.
//!
//! ## Retry
//!
//! [`RetryMode::Budgeted`] is work-conserving too. When a request fails
//! and nothing waits in the admission queue or the staging buffer, its
//! retry arrives at once; otherwise it waits
//! [`RetryPolicy::backoff_ns`](super::RetryPolicy::backoff_ns). Backoff
//! keeps retries from piling onto a loaded server, but with nothing
//! waiting it only leaves a slot idle and stretches the tail. The token
//! bucket, `max_attempts` and the deadline bound a retry either way. A
//! shed only happens at a full queue, so sheds always back off; in
//! practice the immediate branch serves OCC aborts at light load. A
//! synchronous engine settles an abort at dispatch, so the queue it
//! looks at is the one at dispatch time, not at the abort's completion.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use rand::rngs::SmallRng;
use rand::SeedableRng;

use super::arrival::ArrivalGen;
use super::queue::{AdmissionQueue, Shed, Ticket};
use super::{RetryBucket, RetryMode, ServeConfig, ServeSummary};

/// Cross-transaction batching policy for the dispatcher (see module docs).
/// Both fields are upper bounds: staging only happens while at least
/// `width` dispatched tickets are still executing, and a staged group
/// flushes early once completions drop that count below `width`.
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
    /// Server slots the loop started from.
    servers: usize,
    free: usize,
    /// Tickets admitted and holding a server slot, awaiting batch flush.
    staged: Vec<Ticket>,
    /// When the oldest staged ticket entered staging.
    staged_at: u64,
    /// `BatchPolicy::width` capped at the server count.
    width: usize,
}

impl<'a, E: ServeEngine> ServeLoop<'a, E> {
    fn new(cfg: &'a ServeConfig, engine: &'a mut E) -> Self {
        let servers = engine.servers().max(1);
        ServeLoop {
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
            servers,
            free: servers,
            staged: Vec::new(),
            staged_at: 0,
            width: cfg.batch.map_or(1, |b| b.width.min(servers)),
        }
    }

    /// Dispatched tickets not yet completed.
    fn executing(&self) -> usize {
        self.servers - self.free - self.staged.len()
    }

    fn push(&mut self, t: u64, ev: Ev) {
        self.seq += 1;
        self.heap.push(Reverse((t, self.seq, ev)));
    }

    /// Client-side failure handling: retry per policy or settle the
    /// terminal outcome. `shed` distinguishes admission sheds from OCC
    /// aborts. A budgeted retry skips its backoff when nothing waits in
    /// the queue or the staging buffer (see the module docs).
    fn fail(&mut self, tk: Ticket, now: u64, shed: bool) {
        let next_attempt = tk.attempt + 1;
        let retry_at = match self.cfg.retry {
            RetryMode::None => None,
            RetryMode::Immediate { max_attempts } => {
                (next_attempt < max_attempts).then_some(now + 1)
            }
            RetryMode::Budgeted(p) => {
                let idle = self.queue.is_empty() && self.staged.is_empty();
                let at = if idle {
                    now
                } else {
                    now + p.backoff_ns(next_attempt)
                };
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
    /// into the staging buffer) at `now`. A staged group leaves first if
    /// completions have dropped the executing count below `width`.
    fn dispatch_ready(&mut self, now: u64) {
        if !self.staged.is_empty() && self.executing() < self.width {
            self.flush(now);
        }
        while self.free > 0 {
            let Some(tk) = self.queue.take(now) else {
                break;
            };
            if self.cfg.enforce_deadline && now >= tk.deadline_ns {
                self.sum.timed_out += 1;
                continue;
            }
            self.free -= 1;
            match self.cfg.batch {
                None => self.run_ticket(tk, now),
                Some(b) => {
                    self.staged.push(tk);
                    if self.staged.len() >= self.width || self.executing() < self.width {
                        self.flush(now);
                    } else if self.staged.len() == 1 {
                        // Only a ticket that waits schedules an age check.
                        self.staged_at = now;
                        self.push(now.saturating_add(b.age_flush_ns), Ev::Flush);
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
                let bound = self.heap.peek().map_or(u64::MAX, |Reverse((t, _, _))| *t);
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

    /// Check that everything drained and fold the queue's shed ledger
    /// into the conserved summary.
    fn finish(self) -> ServeSummary {
        assert!(
            self.staged.is_empty(),
            "staged tickets must flush before exit"
        );
        assert_eq!(self.engine.in_flight(), 0, "engine drained before exit");

        // Expired entries purged inside the queue never re-emerged: they
        // are terminal timeouts. Copy the queue's shed ledger out.
        let mut sum = self.sum;
        sum.timed_out += self.queue.dropped_expired;
        sum.rejected = self.queue.rejected;
        sum.dropped_expired = self.queue.dropped_expired;
        sum.evicted = self.queue.evicted;
        sum.queue_high_water = self.queue.high_water as u64;
        sum.assert_conserved();
        sum
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
    let mut lp = ServeLoop::new(cfg, engine);
    lp.run(&mut rng_arr, &mut gen);
    lp.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::{ArrivalProcess, RetryPolicy};

    /// Service time of every dispatch on [`FixedService`].
    const SVC_NS: u64 = 10_000;

    /// First-retry backoff of [`retry_cfg`].
    const BACKOFF_NS: u64 = 50_000;

    /// An asynchronous engine whose every dispatch completes exactly
    /// [`SVC_NS`] later, recording when each ticket was dispatched. The
    /// listed `(ticket id, attempt)` executions abort; the rest commit.
    struct FixedService {
        servers: usize,
        aborts: Vec<(u64, u32)>,
        running: Vec<(u64, Ticket)>,
        /// `(ticket id, attempt, dispatch ns)` in dispatch order.
        dispatched: Vec<(u64, u32, u64)>,
    }

    impl ServeEngine for FixedService {
        fn servers(&self) -> usize {
            self.servers
        }

        fn dispatch(&mut self, tk: &Ticket, now_ns: u64) -> Dispatch {
            self.running.push((now_ns + SVC_NS, *tk));
            self.dispatched.push((tk.id, tk.attempt, now_ns));
            Dispatch::Pending
        }

        fn in_flight(&self) -> usize {
            self.running.len()
        }

        fn advance(&mut self, to_ns: u64) -> Vec<Completion> {
            let Some(first) = self.running.iter().map(|r| r.0).min() else {
                return Vec::new();
            };
            if first > to_ns {
                return Vec::new();
            }
            let mut out = Vec::new();
            let aborts = &self.aborts;
            self.running.retain(|&(done_ns, ticket)| {
                if done_ns != first {
                    return true;
                }
                out.push(Completion {
                    ticket,
                    done_ns,
                    committed: !aborts.contains(&(ticket.id, ticket.attempt)),
                    svc_ns: SVC_NS,
                });
                false
            });
            out.sort_by_key(|c| c.ticket.id);
            out
        }
    }

    /// Serve one fresh request at each of `arrivals_ns` under `cfg` on a
    /// [`FixedService`] with `cfg.servers` slots whose `aborts` abort.
    /// Returns the ledger and the engine's dispatch record.
    fn serve_script(
        cfg: &ServeConfig,
        arrivals_ns: &[u64],
        aborts: &[(u64, u32)],
    ) -> (ServeSummary, Vec<(u64, u32, u64)>) {
        let mut engine = FixedService {
            servers: cfg.servers,
            aborts: aborts.to_vec(),
            running: Vec::new(),
            dispatched: Vec::new(),
        };
        let mut lp = ServeLoop::new(cfg, &mut engine);
        for (id, &t) in arrivals_ns.iter().enumerate() {
            lp.push(
                t,
                Ev::Arrival(Ticket {
                    id: id as u64,
                    born_ns: t,
                    deadline_ns: t.saturating_add(cfg.deadline_ns),
                    txn_index: id,
                    attempt: 0,
                }),
            );
        }
        lp.sum.fresh = arrivals_ns.len() as u64;
        lp.run(
            &mut SmallRng::seed_from_u64(cfg.seed),
            &mut ArrivalGen::new(cfg.arrivals),
        );
        let sum = lp.finish();
        (sum, engine.dispatched)
    }

    /// Serve one fresh request at each of `arrivals_ns` on 16 slots with
    /// `BatchPolicy { width: 4, age_flush_ns }`, returning each ticket's
    /// dispatch time by id. The queue is unbounded and the 16 slots never
    /// run out, so a ticket's admission instant is its arrival.
    fn dispatch_times(arrivals_ns: &[u64], age_flush_ns: u64) -> Vec<u64> {
        let cfg = ServeConfig::baseline(
            ArrivalProcess::Poisson { rate_per_sec: 1.0 },
            0,
            u64::MAX,
            16,
            1,
        )
        .with_batch(4, age_flush_ns);
        let (sum, dispatched) = serve_script(&cfg, arrivals_ns, &[]);
        assert_eq!(sum.good, arrivals_ns.len() as u64);
        let mut at = vec![u64::MAX; arrivals_ns.len()];
        for &(id, _, t) in &dispatched {
            at[id as usize] = t;
        }
        at
    }

    /// A controlled config over `servers` slots whose budgeted retry
    /// allows `max_attempts` attempts, backs off [`BACKOFF_NS`] first, and
    /// starts with `burst` tokens but earns none.
    fn retry_cfg(servers: usize, deadline_ns: u64, max_attempts: u32, burst: f64) -> ServeConfig {
        let mut cfg = ServeConfig::controlled(
            ArrivalProcess::Poisson { rate_per_sec: 1.0 },
            0,
            deadline_ns,
            servers,
            1,
        );
        cfg.retry = RetryMode::Budgeted(RetryPolicy {
            max_attempts,
            base_backoff_ns: BACKOFF_NS,
            max_backoff_ns: 4 * BACKOFF_NS,
            budget_ratio: 0.0,
            burst,
        });
        cfg
    }

    #[test]
    fn underfed_engine_dispatches_at_admission() {
        // Never `width` executing: no ticket waits for the age flush.
        assert_eq!(dispatch_times(&[0, 100, 200], 5_000), [0, 100, 200]);
    }

    #[test]
    fn busy_engine_dispatches_full_groups_or_at_the_age_flush() {
        // 0–3 fill the engine to `width`. Behind them 4–7 leave as a full
        // group at the last one's admission, and 8–9 at the age flush.
        let arrivals = [0, 1, 2, 3, 100, 200, 300, 400, 500, 600];
        let at = dispatch_times(&arrivals, 1_000);
        assert_eq!(at[4..], [400, 400, 400, 400, 1_500, 1_500]);
        for (&born, &dispatched) in arrivals.iter().zip(&at) {
            assert!((born..=born + 1_000).contains(&dispatched));
        }
    }

    #[test]
    fn staged_group_flushes_when_a_completion_drops_executing_below_width() {
        // 4–5 stage behind four executing tickets. The first completion
        // releases them, long before their 20 µs age flush.
        let at = dispatch_times(&[0, 1, 2, 3, 5_000, 5_001], 20_000);
        assert_eq!(at, [0, 1, 2, 3, SVC_NS, SVC_NS]);
    }

    #[test]
    fn abort_with_nothing_waiting_retries_at_its_settle_instant() {
        let cfg = retry_cfg(2, 1_000_000, 4, 8.0);
        let (sum, at) = serve_script(&cfg, &[0], &[(0, 0)]);
        assert_eq!(at, [(0, 0, 0), (0, 1, SVC_NS)]);
        assert_eq!((sum.good, sum.retries), (1, 1));
    }

    #[test]
    fn abort_while_a_ticket_waits_backs_off() {
        // One slot: ticket 1 is queued behind 0 when 0 aborts.
        let cfg = retry_cfg(1, 1_000_000, 4, 8.0);
        let (sum, at) = serve_script(&cfg, &[0, 1], &[(0, 0)]);
        assert_eq!(at, [(0, 0, 0), (1, 0, SVC_NS), (0, 1, SVC_NS + BACKOFF_NS)]);
        assert_eq!((sum.good, sum.retries), (2, 1));
    }

    #[test]
    fn shed_always_backs_off() {
        // One slot and a one-deep queue: ticket 2 is rejected at t = 2.
        let mut cfg = retry_cfg(1, 1_000_000, 4, 8.0);
        cfg.queue_capacity = 1;
        let (sum, at) = serve_script(&cfg, &[0, 1, 2], &[]);
        assert_eq!(at, [(0, 0, 0), (1, 0, SVC_NS), (2, 1, 2 + BACKOFF_NS)]);
        assert_eq!((sum.good, sum.rejected, sum.retries), (3, 1, 1));
    }

    #[test]
    fn empty_bucket_ends_the_request_as_aborted() {
        // One token: ticket 0's retry spends it, ticket 1 finds none.
        let cfg = retry_cfg(2, 1_000_000, 4, 1.0);
        let (sum, at) = serve_script(&cfg, &[0, 100_000], &[(0, 0), (1, 0)]);
        assert_eq!(at, [(0, 0, 0), (0, 1, SVC_NS), (1, 0, 100_000)]);
        assert_eq!((sum.good, sum.aborted, sum.retries), (1, 1, 1));
    }

    #[test]
    fn max_attempts_and_deadline_still_bound_retries() {
        let always = [(0, 0), (0, 1), (0, 2), (0, 3)];
        // Three attempts allowed: the third abort is terminal.
        let (sum, at) = serve_script(&retry_cfg(2, 1_000_000, 3, 8.0), &[0], &always);
        assert_eq!(at, [(0, 0, 0), (0, 1, SVC_NS), (0, 2, 2 * SVC_NS)]);
        assert_eq!((sum.aborted, sum.retries), (1, 2));
        // A retry must arrive before the deadline, and the second abort
        // settles exactly at it.
        let (sum, at) = serve_script(&retry_cfg(2, 2 * SVC_NS, 4, 8.0), &[0], &always);
        assert_eq!(at, [(0, 0, 0), (0, 1, SVC_NS)]);
        assert_eq!((sum.aborted, sum.retries), (1, 1));
    }
}
