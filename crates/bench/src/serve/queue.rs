//! Bounded admission queue with pluggable load-shedding policies.
//!
//! The queue is a pure data structure — no clocks, no threads — owned by
//! the engine-agnostic serving loop, so the Silo and hardware engines run
//! the same policy code: every decision takes `now_ns` as an argument,
//! which keeps it unit-testable without an engine. Counters record every
//! shed decision so summaries can report *why* requests were lost, not
//! just how many.
//!
//! ## Policies
//!
//! * [`ShedPolicy::None`] — unbounded FIFO, never sheds. The no-control
//!   baseline: under overload the queue grows without bound and every
//!   admitted request eventually misses its deadline (goodput collapse).
//! * [`ShedPolicy::FailFast`] — bounded FIFO; a full queue rejects the
//!   newcomer at arrival. The cheapest signal: the client learns
//!   immediately and can back off.
//! * [`ShedPolicy::LifoSlack`] — bounded, newest-first service. When
//!   full, the queued entry with the least deadline slack is evicted in
//!   favour of a newcomer with more (a stale request was going to miss
//!   anyway); if the newcomer has the least slack itself, it is rejected.
//!   Under bursts, fresh requests still make their deadlines while FIFO
//!   would time out the entire backlog in arrival order.
//! * [`ShedPolicy::DeadlineDrop`] — bounded FIFO that purges
//!   already-expired entries at every admission and dispatch, so workers
//!   never pick up doomed work.

use std::collections::VecDeque;

/// Load-shedding policy for the admission queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedPolicy {
    /// Unbounded FIFO (the no-control baseline).
    None,
    /// Bounded FIFO, reject newcomers when full.
    FailFast,
    /// Bounded LIFO service; evict the least-slack entry when full.
    LifoSlack,
    /// Bounded FIFO; drop expired entries at admission and dispatch.
    DeadlineDrop,
}

impl ShedPolicy {
    /// Stable label (JSON, CLI).
    pub fn name(self) -> &'static str {
        match self {
            ShedPolicy::None => "none",
            ShedPolicy::FailFast => "fail_fast",
            ShedPolicy::LifoSlack => "lifo_slack",
            ShedPolicy::DeadlineDrop => "deadline_drop",
        }
    }
}

/// One queued request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Ticket {
    /// Unique request id (birth order of the *fresh* request; retries
    /// keep the id).
    pub id: u64,
    /// Birth time of the fresh request, nanoseconds.
    pub born_ns: u64,
    /// Absolute deadline, nanoseconds (`u64::MAX` = none).
    pub deadline_ns: u64,
    /// Mix-selection index — fixed at birth so retries re-run the same
    /// transaction kind.
    pub txn_index: usize,
    /// 0 for the fresh attempt, incremented per retry.
    pub attempt: u32,
}

impl Ticket {
    /// Remaining slack at `now_ns` (0 when expired).
    pub fn slack_ns(&self, now_ns: u64) -> u64 {
        self.deadline_ns.saturating_sub(now_ns)
    }
}

/// Why `offer` did not enqueue the ticket.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shed {
    /// Rejected at arrival (queue full).
    Rejected,
    /// Evicted from the queue in favour of a later arrival
    /// (`LifoSlack`). Carries the victim so the engine can account it.
    Evicted(Ticket),
}

/// The bounded admission queue.
#[derive(Debug)]
pub struct AdmissionQueue {
    policy: ShedPolicy,
    capacity: usize,
    q: VecDeque<Ticket>,
    /// Newcomers rejected at arrival.
    pub rejected: u64,
    /// Expired entries purged before dispatch (`DeadlineDrop`).
    pub dropped_expired: u64,
    /// Queued entries evicted by a later arrival (`LifoSlack`).
    pub evicted: u64,
    /// Deepest the queue ever got.
    pub high_water: usize,
}

impl AdmissionQueue {
    /// An empty queue. `capacity` is ignored under [`ShedPolicy::None`].
    pub fn new(policy: ShedPolicy, capacity: usize) -> AdmissionQueue {
        AdmissionQueue {
            policy,
            capacity: if policy == ShedPolicy::None {
                usize::MAX
            } else {
                capacity.max(1)
            },
            q: VecDeque::new(),
            rejected: 0,
            dropped_expired: 0,
            evicted: 0,
            high_water: 0,
        }
    }

    /// Queue depth.
    pub fn len(&self) -> usize {
        self.q.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.q.is_empty()
    }

    /// Offer a ticket at time `now_ns`. `Ok(())` means it is queued;
    /// `Err` reports the shed decision (the *offered* ticket was rejected,
    /// or a queued victim was evicted to make room — in the latter case
    /// the offered ticket IS queued and the victim is returned).
    pub fn offer(&mut self, t: Ticket, now_ns: u64) -> Result<(), Shed> {
        if self.policy == ShedPolicy::DeadlineDrop {
            self.purge_expired(now_ns);
        }
        if self.q.len() < self.capacity {
            self.push(t);
            return Ok(());
        }
        match self.policy {
            ShedPolicy::None => unreachable!("unbounded queue is never full"),
            ShedPolicy::FailFast | ShedPolicy::DeadlineDrop => {
                self.rejected += 1;
                Err(Shed::Rejected)
            }
            ShedPolicy::LifoSlack => {
                // Find the queued entry with the least remaining slack.
                let (vi, victim) = self
                    .q
                    .iter()
                    .copied()
                    .enumerate()
                    .min_by_key(|(i, e)| (e.slack_ns(now_ns), *i))
                    .expect("full queue is non-empty");
                if victim.slack_ns(now_ns) < t.slack_ns(now_ns) {
                    self.q.remove(vi);
                    self.evicted += 1;
                    self.push(t);
                    Err(Shed::Evicted(victim))
                } else {
                    self.rejected += 1;
                    Err(Shed::Rejected)
                }
            }
        }
    }

    /// Take the next ticket to serve at time `now_ns`, per policy order.
    pub fn take(&mut self, now_ns: u64) -> Option<Ticket> {
        if self.policy == ShedPolicy::DeadlineDrop {
            self.purge_expired(now_ns);
        }
        match self.policy {
            ShedPolicy::LifoSlack => self.q.pop_back(),
            _ => self.q.pop_front(),
        }
    }

    fn push(&mut self, t: Ticket) {
        self.q.push_back(t);
        self.high_water = self.high_water.max(self.q.len());
    }

    fn purge_expired(&mut self, now_ns: u64) {
        let before = self.q.len();
        self.q.retain(|e| e.deadline_ns > now_ns);
        self.dropped_expired += (before - self.q.len()) as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(id: u64, deadline_ns: u64) -> Ticket {
        Ticket {
            id,
            born_ns: 0,
            deadline_ns,
            txn_index: id as usize,
            attempt: 0,
        }
    }

    #[test]
    fn none_is_unbounded_fifo() {
        let mut q = AdmissionQueue::new(ShedPolicy::None, 1);
        for i in 0..1000 {
            q.offer(t(i, u64::MAX), 0).expect("never sheds");
        }
        assert_eq!(q.len(), 1000);
        assert_eq!(q.high_water, 1000);
        assert_eq!(q.take(0).unwrap().id, 0, "FIFO order");
        assert_eq!(q.rejected + q.evicted + q.dropped_expired, 0);
    }

    #[test]
    fn fail_fast_bounds_depth_and_rejects() {
        let mut q = AdmissionQueue::new(ShedPolicy::FailFast, 4);
        let mut admitted = 0;
        for i in 0..10 {
            if q.offer(t(i, u64::MAX), 0).is_ok() {
                admitted += 1;
            }
            assert!(q.len() <= 4, "capacity invariant");
        }
        assert_eq!(admitted, 4);
        assert_eq!(q.rejected, 6);
        // FIFO of the admitted prefix.
        assert_eq!(q.take(0).unwrap().id, 0);
        assert_eq!(q.take(0).unwrap().id, 1);
    }

    #[test]
    fn lifo_slack_serves_newest_and_evicts_least_slack() {
        let mut q = AdmissionQueue::new(ShedPolicy::LifoSlack, 3);
        q.offer(t(0, 500), 0).unwrap();
        q.offer(t(1, 100), 0).unwrap(); // least slack
        q.offer(t(2, 900), 0).unwrap();
        // Full; a newcomer with more slack than ticket 1 evicts it.
        match q.offer(t(3, 700), 0) {
            Err(Shed::Evicted(v)) => assert_eq!(v.id, 1),
            other => panic!("expected eviction, got {other:?}"),
        }
        assert_eq!(q.evicted, 1);
        assert_eq!(q.len(), 3);
        // Full; a newcomer with the least slack in the room is rejected.
        assert_eq!(q.offer(t(4, 50), 0), Err(Shed::Rejected));
        assert_eq!(q.rejected, 1);
        // Service is newest-first.
        assert_eq!(q.take(0).unwrap().id, 3);
        assert_eq!(q.take(0).unwrap().id, 2);
        assert_eq!(q.take(0).unwrap().id, 0);
        assert!(q.take(0).is_none());
    }

    #[test]
    fn deadline_drop_purges_expired_in_order() {
        let mut q = AdmissionQueue::new(ShedPolicy::DeadlineDrop, 8);
        q.offer(t(0, 100), 0).unwrap();
        q.offer(t(1, 300), 0).unwrap();
        q.offer(t(2, 200), 0).unwrap();
        // At t=250, tickets 0 and 2 are expired; dispatch skips straight
        // to ticket 1 and counts both drops.
        let got = q.take(250).unwrap();
        assert_eq!(got.id, 1);
        assert_eq!(q.dropped_expired, 2);
        assert!(q.is_empty());
        // Admission-side purge frees room in a full queue.
        let mut q = AdmissionQueue::new(ShedPolicy::DeadlineDrop, 2);
        q.offer(t(0, 100), 0).unwrap();
        q.offer(t(1, 100), 0).unwrap();
        assert!(q.offer(t(2, 900), 150).is_ok(), "expired entries purged");
        assert_eq!(q.dropped_expired, 2);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn high_water_tracks_deepest_point() {
        let mut q = AdmissionQueue::new(ShedPolicy::FailFast, 10);
        for i in 0..6 {
            q.offer(t(i, u64::MAX), 0).unwrap();
        }
        q.take(0);
        q.take(0);
        assert_eq!(q.high_water, 6);
        assert_eq!(q.len(), 4);
    }
}
