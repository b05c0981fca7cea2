//! On-chip message-passing channels (paper §4.6).
//!
//! Partitioned databases (H-Store, DORA) make partitions core-private: a
//! worker can never touch a remote partition directly, it must send a
//! request message to the remote site, where a delegate processes it and
//! returns a response. On CPUs that communication is forced through the
//! shared-memory hierarchy — cache-line ping-pong at best, DRAM round trips
//! plus queue synchronization at worst (paper Table 3). BionicDB instead
//! wires **dedicated on-chip channels** between workers: a request/response
//! pair costs 6 cycles (48 ns at 125 MHz), no memory round trips, no
//! synchronization.
//!
//! Each worker owns a communication *link* (request channel + response
//! channel). A request packet is piggybacked with the transaction timestamp
//! (for CC at the remote coprocessor) and source/destination worker IDs for
//! routing. A background unit at the destination (implemented in the worker
//! glue of the `bionicdb` crate) catches inbound requests and dispatches
//! them to its index coprocessor as *background* requests that overlap
//! freely with the local foreground requests.
//!
//! Two topologies are provided:
//!
//! * [`Topology::Crossbar`] — the paper's implementation: every pair of
//!   workers directly connected; uniform single-hop latency. The paper
//!   notes this does not scale to many workers.
//! * [`Topology::Ring`] — the scalable alternative the paper suggests as
//!   future work: latency grows with ring distance. The bench suite uses it
//!   for the interconnect ablation.

#![warn(missing_docs)]

use std::collections::VecDeque;

use bionicdb_fpga::fault::NocFaults;
use bionicdb_softcore::request::{DbRequest, DbResponse, PartitionId};

/// Interconnect topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// Full crossbar: one hop between any pair (the paper's design).
    Crossbar,
    /// Bidirectional ring: latency scales with ring distance (future-work
    /// topology suggested in paper §4.6).
    Ring,
    /// Multiple chips/nodes in a shared-nothing cluster (paper §4.6:
    /// "it is vital to scale BionicDB across multiple FPGA nodes ... the
    /// message-passing channels should be diversified with additional
    /// connectivities for inter-node communication"). Workers are grouped
    /// `workers_per_node` to a chip; intra-node messages ride the crossbar
    /// (one hop), inter-node messages pay `inter_node_hops` hops of the
    /// base latency (modelling a serial link / NIC between boards).
    MultiChip {
        /// Workers per chip/node.
        workers_per_node: usize,
        /// Inter-node cost in units of the one-hop latency (e.g. with
        /// 3-cycle hops, 25 hops ≈ 600 ns — an aggressive serial link).
        inter_node_hops: u64,
    },
}

impl Topology {
    /// Hop count between workers `a` and `b` of an `n`-worker interconnect
    /// under this topology — the single source of topology math, used both
    /// to build the cached lookahead matrix and to answer live
    /// [`Noc::hops`] queries (the two can therefore never diverge).
    pub fn hops_between(&self, n: usize, a: usize, b: usize) -> u64 {
        match *self {
            Topology::Crossbar => 1,
            Topology::Ring => {
                let (a, b) = (a % n, b % n);
                let d = a.abs_diff(b);
                d.min(n - d).max(1) as u64
            }
            Topology::MultiChip {
                workers_per_node,
                inter_node_hops,
            } => {
                if a / workers_per_node == b / workers_per_node {
                    1
                } else {
                    inter_node_hops.max(1)
                }
            }
        }
    }
}

/// What travels over a channel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Payload {
    /// A DB instruction heading to its home partition's coprocessor.
    Request(DbRequest),
    /// A completed result heading back to the initiator's CP register.
    Response(DbResponse),
}

/// A routed message.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Packet {
    /// Sending worker.
    pub src: PartitionId,
    /// Receiving worker.
    pub dst: PartitionId,
    /// Per-source request sequence number. Responses echo the sequence
    /// number of the request they answer, which is what lets the sender
    /// detect duplicates when a lost message is retransmitted (the worker
    /// glue's bounded-retry path). Workers that never retransmit leave it 0.
    pub seq: u64,
    /// Request or response.
    pub payload: Payload,
}

/// Interconnect statistics.
///
/// Conservation invariant: every accepted send is eventually delivered,
/// was dropped by an injected fault, or is still in flight —
/// `sent == delivered + dropped + in_flight()`. Back-pressure rejections
/// (`rejected`) never enter the channel and are counted separately, so an
/// injected drop is always distinguishable from a busy link.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct NocStats {
    /// Messages accepted into a channel (including later-dropped ones).
    pub sent: u64,
    /// Messages consumed by their destination worker.
    pub delivered: u64,
    /// Messages lost to an injected [`NocFaults`] drop.
    pub dropped: u64,
    /// Sends rejected because the per-source issue limit was reached
    /// (back-pressure, not loss: the sender retries next cycle).
    pub rejected: u64,
    /// Messages that paid an injected extra delay.
    pub delayed: u64,
    /// Sum of in-flight latencies over accepted, non-dropped messages
    /// (mean = `total_latency / (sent - dropped)`).
    pub total_latency: u64,
}

impl NocStats {
    /// Mean in-flight latency over accepted, non-dropped messages.
    ///
    /// Guarded against the all-dropped case (`sent == dropped`, possible
    /// under a fault plan that drops every send): an empty sample has no
    /// mean, reported as `0.0` instead of a division by zero.
    pub fn mean_latency(&self) -> f64 {
        let n = self.sent.saturating_sub(self.dropped);
        if n == 0 {
            0.0
        } else {
            self.total_latency as f64 / n as f64
        }
    }
}

/// Per-link (per-destination channel) utilization counters. Updated only
/// inside `send`/`poll`, which fire at identical cycles under strict
/// stepping and fast-forward, so link stats never diverge between the two
/// schedulers.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct LinkStats {
    /// Messages accepted into this destination's channel (including ones
    /// later lost to an injected drop — the sender cannot tell).
    pub sent: u64,
    /// Messages consumed by the destination worker.
    pub delivered: u64,
    /// High-water mark of the channel's queue depth (in-flight plus
    /// waiting-to-be-consumed messages).
    pub queue_high_water: u64,
}

/// Error: the sender's channel cannot accept another message this cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NocBusy;

/// The on-chip interconnect between partition workers.
#[derive(Debug)]
pub struct Noc {
    topology: Topology,
    hop_latency: u64,
    n: usize,
    /// Per-destination in-flight messages `(deliver_at, packet)`, kept
    /// sorted by construction (uniform per-pair latency, FIFO channels).
    /// An injected delay may push one entry past its successors; delivery
    /// then head-of-line blocks on it (the channel is a physical FIFO),
    /// which `peek`/`poll`/`next_event` model by only examining the front.
    inbound: Vec<VecDeque<(u64, Packet)>>,
    /// Per-source issue tracking: a link accepts one message per cycle.
    last_send: Vec<(u64, u32)>,
    /// Messages a single link may inject per cycle.
    issue_width: u32,
    stats: NocStats,
    /// Per-destination link counters, indexed like `inbound`.
    link_stats: Vec<LinkStats>,
    /// Injected fault schedule (empty by default; see `bionicdb_fpga::fault`).
    faults: NocFaults,
    /// Accepted sends so far — the ordinal the fault schedule matches
    /// against.
    sends_seen: u64,
    /// Cached per-pair latency matrix (`[src * n + dst]`), built once at
    /// construction: the **per-pair lookahead** of the epoch-parallel
    /// scheduler. `latency()` recomputes from the topology; hot scheduler
    /// paths index this cache instead.
    pair_latency: Vec<u64>,
}

impl Noc {
    /// Build an interconnect for `n` workers with the given one-hop latency
    /// (paper Table 3: 3 cycles = 24 ns at 125 MHz).
    pub fn new(topology: Topology, n: usize, hop_latency: u64) -> Self {
        assert!(n >= 1);
        let hop_latency = hop_latency.max(1);
        let pair_latency: Vec<u64> = (0..n)
            .flat_map(|a| (0..n).map(move |b| topology.hops_between(n, a, b) * hop_latency))
            .collect();
        Noc {
            topology,
            hop_latency,
            n,
            inbound: (0..n).map(|_| VecDeque::new()).collect(),
            last_send: vec![(u64::MAX, 0); n],
            issue_width: 1,
            stats: NocStats::default(),
            link_stats: vec![LinkStats::default(); n],
            faults: NocFaults::default(),
            sends_seen: 0,
            pair_latency,
        }
    }

    /// Install an injected fault schedule. An empty schedule leaves every
    /// send bit-identical to an unfaulted run.
    pub fn set_faults(&mut self, faults: NocFaults) {
        self.faults = faults;
    }

    /// Number of hops between two workers under the current topology.
    pub fn hops(&self, a: PartitionId, b: PartitionId) -> u64 {
        self.topology
            .hops_between(self.n, a.0 as usize, b.0 as usize)
    }

    /// Latency in cycles for a message from `a` to `b`.
    pub fn latency(&self, a: PartitionId, b: PartitionId) -> u64 {
        self.hops(a, b) * self.hop_latency
    }

    /// Cached minimum latency from `src` to `dst` — the **per-pair
    /// lookahead** (paper's hardware islands intuition: communication
    /// topology, not core count, bounds how tightly two partitions must
    /// synchronize). For the provided deterministic topologies this equals
    /// [`Noc::latency`], but it is read from the matrix built at
    /// construction so the epoch scheduler's per-barrier O(n²) horizon
    /// computation never re-derives topology math.
    pub fn min_latency(&self, src: PartitionId, dst: PartitionId) -> u64 {
        self.pair_latency[src.0 as usize * self.n + dst.0 as usize]
    }

    /// Number of workers attached to the interconnect.
    pub fn workers(&self) -> usize {
        self.n
    }

    /// Inject a packet at cycle `now`. A link accepts [`issue_width`]
    /// messages per cycle; beyond that the sender must retry (back-pressure
    /// into the dispatch stage).
    ///
    /// [`issue_width`]: Noc::new
    pub fn send(&mut self, now: u64, pkt: Packet) -> Result<(), NocBusy> {
        let src = pkt.src.0 as usize;
        assert!(
            src < self.n && (pkt.dst.0 as usize) < self.n,
            "packet for unknown worker"
        );
        if issue_full(self.last_send[src], now, self.issue_width) {
            self.stats.rejected += 1;
            return Err(NocBusy);
        }
        if let Some(at) = self.accept(now, &pkt) {
            let dst = pkt.dst.0 as usize;
            self.inbound[dst].push_back((at, pkt));
            let depth = self.inbound[dst].len() as u64;
            let ls = &mut self.link_stats[dst];
            ls.queue_high_water = ls.queue_high_water.max(depth);
        }
        Ok(())
    }

    /// The accept step every send takes, whether a worker makes it
    /// directly ([`Noc::send`]) or an epoch commit replays it
    /// ([`EpochMerger::commit`]; the lane's own ledger already passed the
    /// issue-width gate): count it on the per-source ledger and the `sent`
    /// counters, match the fault schedule against its ordinal, and charge
    /// its latency. Returns the delivery cycle, or `None` when an injected
    /// drop lost the message.
    fn accept(&mut self, now: u64, pkt: &Packet) -> Option<u64> {
        issue(&mut self.last_send[pkt.src.0 as usize], now);
        self.stats.sent += 1;
        self.link_stats[pkt.dst.0 as usize].sent += 1;
        // Injected faults: the nth accepted send may vanish in flight (the
        // sender cannot tell — recovering is the worker retry path's job)
        // or pay extra latency. With no schedule installed this is a
        // counter bump only.
        let n = self.sends_seen;
        self.sends_seen += 1;
        if self.faults.drop_for(n) {
            self.stats.dropped += 1;
            return None;
        }
        let mut lat = self.latency(pkt.src, pkt.dst);
        if let Some(extra) = self.faults.delay_for(n) {
            lat += extra;
            self.stats.delayed += 1;
        }
        self.stats.total_latency += lat;
        Some(now + lat)
    }

    /// Peek the next packet delivered to `dst` by cycle `now` without
    /// consuming it (the background unit uses this to leave a request in
    /// the channel while its coprocessor input queue is full).
    pub fn peek(&self, now: u64, dst: PartitionId) -> Option<&Packet> {
        match self.inbound[dst.0 as usize].front() {
            Some((ready, pkt)) if *ready <= now => Some(pkt),
            _ => None,
        }
    }

    /// Pop the next packet delivered to `dst` by cycle `now`, if any.
    pub fn poll(&mut self, now: u64, dst: PartitionId) -> Option<Packet> {
        let q = &mut self.inbound[dst.0 as usize];
        match q.front() {
            Some((ready, _)) if *ready <= now => {
                self.stats.delivered += 1;
                self.link_stats[dst.0 as usize].delivered += 1;
                Some(q.pop_front().expect("front checked").1)
            }
            _ => None,
        }
    }

    /// True when no messages are in flight anywhere.
    pub fn is_idle(&self) -> bool {
        self.inbound.iter().all(VecDeque::is_empty)
    }

    /// Messages currently in flight (accepted, not yet consumed). Closes
    /// the [`NocStats`] conservation identity
    /// `sent == delivered + dropped + in_flight`.
    pub fn in_flight(&self) -> u64 {
        self.inbound.iter().map(|q| q.len() as u64).sum()
    }

    /// The earliest cycle at which some queued packet becomes (or already
    /// is) visible to `peek`/`poll`, or `None` when every channel is empty.
    ///
    /// Because `peek`/`poll` only examine each destination's queue *front*,
    /// a front that is already deliverable (`ready <= now`) may be consumed
    /// on the next tick — reported as `now + 1`. A front still in flight
    /// becomes visible exactly at its `ready` cycle. Deeper entries cannot
    /// be observed before the front, so the front is the exact bound.
    pub fn next_event(&self, now: u64) -> Option<u64> {
        self.inbound
            .iter()
            .filter_map(|q| q.front().map(|(ready, _)| (*ready).max(now + 1)))
            .min()
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> NocStats {
        self.stats
    }

    /// Per-destination link counters, indexed by worker id.
    pub fn link_stats(&self) -> &[LinkStats] {
        &self.link_stats
    }

    /// The configured topology.
    pub fn topology(&self) -> Topology {
        self.topology
    }

    /// Minimum latency between any two *distinct* workers — the conservative
    /// parallel-simulation **lookahead**: a message sent at cycle `c` cannot
    /// be delivered before `c + min_hop_latency()`, so an epoch of that many
    /// cycles can run every worker independently without missing a delivery.
    ///
    /// The matrix minimum over all ordered pairs; topologies here are
    /// symmetric but nothing requires it. With a single worker there are no
    /// pairs and any epoch length is safe; the one-hop latency is the floor.
    pub fn min_hop_latency(&self) -> u64 {
        let n = self.n;
        (0..n * n)
            .filter(|&i| i / n != i % n)
            .map(|i| self.pair_latency[i])
            .min()
            .unwrap_or(self.hop_latency)
    }

    /// Detach every worker's view of the interconnect into an [`EpochLink`]
    /// for an epoch-parallel run. Each link takes ownership of its inbound
    /// delivery queue; sends and polls are recorded locally, folded into
    /// an [`EpochMerger`] at each barrier, and committed into the shared
    /// state by [`EpochMerger::commit`]. [`Noc::absorb_epoch`] puts the
    /// queues back when the run ends.
    ///
    /// The per-source issue-width ledger restarts empty, which is exact: a
    /// link admits at most `issue_width` sends per *cycle*, every epoch
    /// round starts at a cycle strictly after any cycle the ledger has seen,
    /// and the commit rebuilds the shared ledger from the accepted sends
    /// themselves.
    pub fn begin_epoch(&mut self) -> Vec<EpochLink> {
        (0..self.n)
            .map(|w| EpochLink {
                id: w,
                n: self.n,
                issue_width: self.issue_width,
                queue: std::mem::take(&mut self.inbound[w]),
                round: StagedBatch::default(),
                last_send: (u64::MAX, 0),
            })
            .collect()
    }

    /// Re-attach the per-worker queues after the final epoch round.
    /// `pending` holds the committed deliveries that were never handed to a
    /// round; they land *behind* whatever is still queued (they were sent
    /// later than anything the link already holds).
    pub fn absorb_epoch(&mut self, links: Vec<EpochLink>, pending: Vec<Vec<(u64, Packet)>>) {
        assert_eq!(links.len(), self.n);
        assert_eq!(pending.len(), self.n);
        for (w, (link, extra)) in links.into_iter().zip(pending).enumerate() {
            debug_assert_eq!(link.id, w, "links must return in worker order");
            let mut q = link.queue;
            q.extend(extra);
            self.inbound[w] = q;
        }
    }
}

/// Whether a per-cycle issue ledger `(cycle, count)` has no slot left at
/// `now` for a link that admits `width` sends per cycle.
fn issue_full((cycle, count): (u64, u32), now: u64, width: u32) -> bool {
    cycle == now && count >= width
}

/// Count one send at `now` on a per-cycle issue ledger.
fn issue(ledger: &mut (u64, u32), now: u64) {
    if ledger.0 != now {
        *ledger = (now, 0);
    }
    ledger.1 += 1;
}

/// The worker-facing face of the interconnect: what a `PartitionWorker`
/// may do to it during its own tick. [`Noc`] implements it directly (the
/// serial scheduler); [`EpochLink`] implements it over a detached
/// per-worker queue (the epoch-parallel scheduler).
pub trait Link {
    /// See [`Noc::peek`].
    fn peek(&self, now: u64, dst: PartitionId) -> Option<&Packet>;
    /// See [`Noc::poll`].
    fn poll(&mut self, now: u64, dst: PartitionId) -> Option<Packet>;
    /// See [`Noc::send`].
    fn send(&mut self, now: u64, pkt: Packet) -> Result<(), NocBusy>;
}

impl Link for Noc {
    fn peek(&self, now: u64, dst: PartitionId) -> Option<&Packet> {
        Noc::peek(self, now, dst)
    }
    fn poll(&mut self, now: u64, dst: PartitionId) -> Option<Packet> {
        Noc::poll(self, now, dst)
    }
    fn send(&mut self, now: u64, pkt: Packet) -> Result<(), NocBusy> {
        Noc::send(self, now, pkt)
    }
}

/// One worker's detached view of the interconnect during an epoch round:
/// the worker consumes deliveries from its own queue and stages outbound
/// sends locally, with zero shared state — which is what lets every worker
/// run on its own thread. Created by [`Noc::begin_epoch`]; each round's
/// traffic is harvested as a [`StagedBatch`] and reconciled by the
/// [`EpochMerger`].
#[derive(Debug, PartialEq)]
pub struct EpochLink {
    id: usize,
    n: usize,
    issue_width: u32,
    /// This worker's inbound deliveries `(deliver_at, packet)`, FIFO.
    queue: VecDeque<(u64, Packet)>,
    /// This round's traffic: sends and polls in the order the worker made
    /// them, plus rejections.
    round: StagedBatch,
    /// Per-cycle issue ledger, same semantics as the shared one.
    last_send: (u64, u32),
}

impl EpochLink {
    /// Start a round: append the deliveries committed since the lane last
    /// ran (all strictly beyond its previous horizon, hence behind anything
    /// still queued).
    pub fn begin_round(&mut self, deliveries: Vec<(u64, Packet)>) {
        debug_assert!(self.round.is_empty(), "previous round not harvested");
        self.queue.extend(deliveries);
    }

    /// End a round: hand its traffic over as a one-lane [`StagedBatch`].
    /// The lane made its sends and polls in cycle order with a constant
    /// source, so they are already in `(cycle, lane)` order.
    pub fn harvest(&mut self) -> StagedBatch {
        std::mem::take(&mut self.round)
    }

    /// The earliest cycle `> now` at which the queue front becomes (or
    /// already is) deliverable — this worker's slice of [`Noc::next_event`].
    pub fn next_ready(&self, now: u64) -> Option<u64> {
        self.queue.front().map(|(ready, _)| (*ready).max(now + 1))
    }
}

impl Link for EpochLink {
    fn peek(&self, now: u64, dst: PartitionId) -> Option<&Packet> {
        debug_assert_eq!(
            dst.0 as usize, self.id,
            "epoch link peeked for another worker"
        );
        match self.queue.front() {
            Some((ready, pkt)) if *ready <= now => Some(pkt),
            _ => None,
        }
    }

    fn poll(&mut self, now: u64, dst: PartitionId) -> Option<Packet> {
        debug_assert_eq!(
            dst.0 as usize, self.id,
            "epoch link polled for another worker"
        );
        match self.queue.front() {
            Some((ready, _)) if *ready <= now => {
                self.round.polls.push((now, self.id as u32));
                Some(self.queue.pop_front().expect("front checked").1)
            }
            _ => None,
        }
    }

    fn send(&mut self, now: u64, pkt: Packet) -> Result<(), NocBusy> {
        let src = pkt.src.0 as usize;
        assert!(
            src < self.n && (pkt.dst.0 as usize) < self.n,
            "packet for unknown worker"
        );
        debug_assert_eq!(src, self.id, "epoch link sent from another worker");
        // The per-pair horizon computation excludes `src == dst` arrival
        // bounds on the strength of this invariant: a worker's local
        // requests and results never transit the NoC (the worker glue
        // routes them directly), so nothing a lane sends can wake the lane
        // itself.
        debug_assert_ne!(
            pkt.dst.0 as usize, self.id,
            "workers never send to themselves over the NoC"
        );
        if issue_full(self.last_send, now, self.issue_width) {
            self.round.rejected += 1;
            return Err(NocBusy);
        }
        issue(&mut self.last_send, now);
        self.round.sends.push((now, src as u32, pkt));
        Ok(())
    }
}

/// Epoch-round traffic of one or more lanes, each field kept in the exact
/// serial replay order. [`StagedBatch::fold`] combines two batches so that
/// any grouping and any order of folds over a round's lanes gives the same
/// batch: the one a serial pass over the lanes would have built.
#[derive(Debug, Default, PartialEq)]
pub struct StagedBatch {
    /// Accepted sends `(cycle, src, packet)`, sorted by `(cycle, src)` —
    /// the serial send order (workers tick in id order within a cycle).
    sends: Vec<(u64, u32, Packet)>,
    /// Delivery consumptions `(cycle, dst)`, sorted by `(cycle, dst)` —
    /// the queue-depth *pop* events for high-water replay.
    polls: Vec<(u64, u32)>,
    /// Back-pressure rejections (an order-free sum).
    rejected: u64,
}

impl StagedBatch {
    /// Fold `other` into this batch. Every key is `(cycle, lane)`, two
    /// lanes never tie, and a lane's entries of one round travel in one
    /// batch already in order, so the sorted result does not depend on
    /// which lanes were folded first.
    pub fn fold(&mut self, other: StagedBatch) {
        fold_sorted(&mut self.sends, other.sends, |&(c, s, _)| (c, s));
        fold_sorted(&mut self.polls, other.polls, |&p| p);
        self.rejected += other.rejected;
    }

    /// True when the batch carries no traffic at all.
    pub fn is_empty(&self) -> bool {
        self.sends.is_empty() && self.polls.is_empty() && self.rejected == 0
    }
}

/// Fold the `key`-sorted run `b` into the `key`-sorted `a`: append plus a
/// stable sort, which merges two presorted runs in linear time and keeps
/// `a`'s entries first on a tie. The one merge rule of the epoch engine:
/// lane traffic, round traces and the merger's uncommitted sends all fold
/// through it.
pub fn fold_sorted<T, K: Ord>(a: &mut Vec<T>, b: Vec<T>, key: impl FnMut(&T) -> K) {
    if a.is_empty() {
        *a = b;
    } else if !b.is_empty() {
        a.extend(b);
        a.sort_by_key(key);
    }
}

/// Cross-round reconciliation state for the per-pair-lookahead scheduler.
///
/// Under per-lane horizons a round's sends cannot be replayed at its own
/// barrier: a lane with a short horizon may, in a *later* round, stage
/// sends that serially precede sends a far-ahead lane staged *earlier*.
/// The merger therefore buffers staged sends across rounds and only
/// **commits** the prefix strictly below a caller-supplied bound (the GVT
/// — a proven lower bound on every cycle any lane can still act at), in
/// `(cycle, src)` order. That keeps the three order-sensitive artefacts exact:
/// fault-injection ordinals (`sends_seen`), the per-source issue ledger,
/// and per-destination `queue_high_water` replay. Order-free sums
/// (delivered/rejected counts) are applied as traffic arrives.
#[derive(Debug)]
pub struct EpochMerger {
    n: usize,
    /// Uncommitted sends, globally `(cycle, src)`-sorted.
    staged: Vec<(u64, u32, Packet)>,
    /// Per-destination queue-depth events `(cycle, actor, ±1)` not yet
    /// applied to the persistent depth below.
    events: Vec<Vec<(u64, u32, i64)>>,
    /// Mirror of the serial `inbound` queue depth at the committed
    /// frontier, per destination.
    depth: Vec<i64>,
    /// Exclusive upper bound of cycles already committed — commits must be
    /// monotone (asserted) for the ordinal replay to be exact.
    committed_below: u64,
}

impl EpochMerger {
    /// Capture the reconciliation baseline. Must be called **before**
    /// [`Noc::begin_epoch`] detaches the queues: the persistent depth
    /// mirror starts from the live per-destination queue lengths.
    pub fn new(noc: &Noc) -> Self {
        EpochMerger {
            n: noc.n,
            staged: Vec::new(),
            events: (0..noc.n).map(|_| Vec::new()).collect(),
            depth: noc.inbound.iter().map(|q| q.len() as i64).collect(),
            committed_below: 0,
        }
    }

    /// Fold one round's combined traffic in: apply the order-free sums to
    /// the shared stats immediately, buffer the depth pop events, and fold
    /// the staged sends into the uncommitted buffer (rounds may interleave
    /// in cycle order under per-lane horizons).
    pub fn absorb(&mut self, noc: &mut Noc, batch: StagedBatch) {
        noc.stats.rejected += batch.rejected;
        for &(c, dst) in &batch.polls {
            noc.stats.delivered += 1;
            noc.link_stats[dst as usize].delivered += 1;
            self.events[dst as usize].push((c, dst, -1));
        }
        fold_sorted(&mut self.staged, batch.sends, |&(c, s, _)| (c, s));
    }

    /// Earliest cycle at which an uncommitted staged send could reach each
    /// destination (`send cycle + min pair latency`) — a conservative floor
    /// for the per-lane horizon computation. Injected drops make a send
    /// never arrive and delays make it arrive later; both directions are
    /// safe for a lower bound.
    pub fn arrival_floors(&self, noc: &Noc) -> Vec<Option<u64>> {
        let mut floors: Vec<Option<u64>> = vec![None; self.n];
        for &(c, src, ref pkt) in &self.staged {
            let dst = pkt.dst.0 as usize;
            let arrive = c + noc.min_latency(PartitionId(src as u16), pkt.dst);
            floors[dst] = Some(floors[dst].map_or(arrive, |f: u64| f.min(arrive)));
        }
        floors
    }

    /// Commit every staged send with `cycle < bound` (`None` commits all —
    /// the end-of-epoch flush) in `(cycle, src)` order through the same
    /// accept step [`Noc::send`] takes (the lane's own ledger already passed
    /// the issue-width gate), then replay the per-destination queue depth
    /// and high-water marks. Returns the resulting deliveries per
    /// destination (each `(deliver_at, packet)`, in send order — the FIFO
    /// order of the serial channel) and the number of sends committed.
    pub fn commit(
        &mut self,
        noc: &mut Noc,
        bound: Option<u64>,
    ) -> (Vec<Vec<(u64, Packet)>>, usize) {
        if let Some(b) = bound {
            debug_assert!(
                b >= self.committed_below,
                "commit bound moved backwards: {b} < {}",
                self.committed_below
            );
        }
        let cut = match bound {
            Some(b) => self.staged.partition_point(|&(c, _, _)| c < b),
            None => self.staged.len(),
        };
        let mut out: Vec<Vec<(u64, Packet)>> = (0..self.n).map(|_| Vec::new()).collect();
        for (c, src, pkt) in self.staged.drain(..cut) {
            debug_assert!(
                c >= self.committed_below,
                "staged send at {c} precedes the committed frontier {}",
                self.committed_below
            );
            if let Some(at) = noc.accept(c, &pkt) {
                let dst = pkt.dst.0 as usize;
                self.events[dst].push((c, src, 1));
                out[dst].push((at, pkt));
            }
        }
        // Apply the depth events now safely ordered: every event below the
        // bound is in the buffer (all pops at executed cycles were
        // reported; all pushes below the bound were committed above), and
        // no future event can land below it.
        for (dst, buf) in self.events.iter_mut().enumerate() {
            let taken = std::mem::take(buf);
            let (mut apply, keep): (Vec<_>, Vec<_>) = taken
                .into_iter()
                .partition(|&(c, _, _)| bound.is_none_or(|b| c < b));
            *buf = keep;
            if apply.is_empty() {
                continue;
            }
            // Serial order within a cycle is worker-id order: dst pops
            // during its own tick, sources push during theirs.
            apply.sort_by_key(|&(c, actor, _)| (c, actor));
            let depth = &mut self.depth[dst];
            let ls = &mut noc.link_stats[dst];
            for (_, _, delta) in apply {
                *depth += delta;
                debug_assert!(*depth >= 0, "queue depth replay went negative");
                if delta > 0 {
                    ls.queue_high_water = ls.queue_high_water.max(*depth as u64);
                }
            }
        }
        if let Some(b) = bound {
            self.committed_below = b;
        }
        (out, cut)
    }

    /// True when nothing is left to reconcile — the end-of-epoch audit.
    pub fn is_drained(&self) -> bool {
        self.staged.is_empty() && self.events.iter().all(Vec::is_empty)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bionicdb_softcore::catalogue::TableId;
    use bionicdb_softcore::request::{CpSlot, DbOp};

    fn req_pkt(src: u16, dst: u16) -> Packet {
        Packet {
            src: PartitionId(src),
            dst: PartitionId(dst),
            seq: 0,
            payload: Payload::Request(DbRequest {
                op: DbOp::Search,
                table: TableId(0),
                key_addr: 0,
                payload_addr: 0,
                scan_count: 0,
                out_addr: 0,
                ts: 1,
                cp: CpSlot {
                    worker: PartitionId(src),
                    index: 0,
                },
                home: PartitionId(dst),
                batch_group: 0,
            }),
        }
    }

    #[test]
    fn crossbar_delivers_after_hop_latency() {
        let mut noc = Noc::new(Topology::Crossbar, 4, 3);
        noc.send(10, req_pkt(0, 2)).unwrap();
        assert!(
            noc.poll(12, PartitionId(2)).is_none(),
            "not before 3 cycles"
        );
        let pkt = noc.poll(13, PartitionId(2)).expect("delivered at 13");
        assert_eq!(pkt.src, PartitionId(0));
        assert!(noc.is_idle());
    }

    #[test]
    fn request_response_pair_is_six_cycles() {
        // Paper Table 3: 48 ns = 6 cycles for a request/response pair.
        let mut noc = Noc::new(Topology::Crossbar, 2, 3);
        noc.send(0, req_pkt(0, 1)).unwrap();
        let t_req = (0..100)
            .find(|&t| noc.poll(t, PartitionId(1)).is_some())
            .unwrap();
        noc.send(t_req, req_pkt(1, 0)).unwrap();
        let t_resp = (0..100)
            .find(|&t| noc.poll(t, PartitionId(0)).is_some())
            .unwrap();
        assert_eq!(t_resp, 6);
    }

    #[test]
    fn link_issue_width_backpressures() {
        let mut noc = Noc::new(Topology::Crossbar, 4, 3);
        noc.send(5, req_pkt(0, 1)).unwrap();
        assert_eq!(noc.send(5, req_pkt(0, 2)), Err(NocBusy));
        assert!(noc.send(6, req_pkt(0, 2)).is_ok());
        assert_eq!(noc.stats().rejected, 1);
        assert_eq!(noc.stats().sent, 2, "rejected sends are not counted sent");
    }

    #[test]
    fn injected_drop_vanishes_in_flight() {
        use bionicdb_fpga::fault::FaultPlan;
        let mut noc = Noc::new(Topology::Crossbar, 2, 3);
        noc.set_faults(FaultPlan::none().drop_nth_send(1).noc);
        noc.send(0, req_pkt(0, 1)).unwrap();
        noc.send(1, req_pkt(0, 1)).unwrap(); // dropped
        noc.send(2, req_pkt(0, 1)).unwrap();
        let mut got = 0;
        for t in 0..20 {
            while noc.poll(t, PartitionId(1)).is_some() {
                got += 1;
            }
        }
        assert_eq!(got, 2, "the dropped packet never arrives");
        let s = noc.stats();
        assert_eq!((s.sent, s.delivered, s.dropped, s.rejected), (3, 2, 1, 0));
        assert_eq!(s.sent, s.delivered + s.dropped + noc.in_flight());
    }

    #[test]
    fn injected_delay_holds_the_channel_fifo() {
        use bionicdb_fpga::fault::FaultPlan;
        let mut noc = Noc::new(Topology::Crossbar, 2, 3);
        noc.set_faults(FaultPlan::none().delay_nth_send(0, 10).noc);
        noc.send(0, req_pkt(0, 1)).unwrap(); // ready at 13 instead of 3
        noc.send(1, req_pkt(0, 1)).unwrap(); // ready at 4, but behind
        assert!(
            noc.poll(4, PartitionId(1)).is_none(),
            "head-of-line blocked"
        );
        assert!(noc.poll(13, PartitionId(1)).is_some());
        assert!(noc.poll(13, PartitionId(1)).is_some());
        assert_eq!(noc.stats().delayed, 1);
        assert_eq!(noc.in_flight(), 0);
    }

    #[test]
    fn per_pair_fifo_ordering() {
        let mut noc = Noc::new(Topology::Crossbar, 2, 3);
        let mut a = req_pkt(0, 1);
        let mut b = req_pkt(0, 1);
        if let Payload::Request(r) = &mut a.payload {
            r.ts = 111;
        }
        if let Payload::Request(r) = &mut b.payload {
            r.ts = 222;
        }
        noc.send(0, a).unwrap();
        noc.send(1, b).unwrap();
        let p1 = noc.poll(10, PartitionId(1)).unwrap();
        let p2 = noc.poll(10, PartitionId(1)).unwrap();
        match (p1.payload, p2.payload) {
            (Payload::Request(r1), Payload::Request(r2)) => {
                assert_eq!((r1.ts, r2.ts), (111, 222));
            }
            other => panic!("unexpected payloads {other:?}"),
        }
    }

    #[test]
    fn ring_distance_scales_latency() {
        let noc = Noc::new(Topology::Ring, 8, 3);
        assert_eq!(noc.hops(PartitionId(0), PartitionId(1)), 1);
        assert_eq!(noc.hops(PartitionId(0), PartitionId(4)), 4);
        assert_eq!(noc.hops(PartitionId(0), PartitionId(7)), 1, "wraps around");
        assert_eq!(noc.latency(PartitionId(1), PartitionId(5)), 12);
        let xbar = Noc::new(Topology::Crossbar, 8, 3);
        assert_eq!(xbar.latency(PartitionId(1), PartitionId(5)), 3);
    }

    #[test]
    fn multichip_groups_pay_internode_latency() {
        let noc = Noc::new(
            Topology::MultiChip {
                workers_per_node: 4,
                inter_node_hops: 25,
            },
            8,
            3,
        );
        // Same node: one hop.
        assert_eq!(noc.latency(PartitionId(0), PartitionId(3)), 3);
        assert_eq!(noc.latency(PartitionId(5), PartitionId(7)), 3);
        // Cross node: the serial-link cost.
        assert_eq!(noc.latency(PartitionId(0), PartitionId(4)), 75);
        assert_eq!(noc.latency(PartitionId(7), PartitionId(1)), 75);
    }

    #[test]
    fn mean_latency_statistic() {
        let mut noc = Noc::new(Topology::Crossbar, 4, 3);
        noc.send(0, req_pkt(0, 1)).unwrap();
        noc.send(1, req_pkt(1, 2)).unwrap();
        let s = noc.stats();
        assert_eq!(s.sent, 2);
        assert_eq!(s.total_latency, 6);
    }

    #[test]
    fn link_stats_track_per_destination_traffic() {
        let mut noc = Noc::new(Topology::Crossbar, 4, 3);
        noc.send(0, req_pkt(0, 1)).unwrap();
        noc.send(1, req_pkt(2, 1)).unwrap();
        noc.send(2, req_pkt(0, 3)).unwrap();
        assert_eq!(noc.link_stats()[1].sent, 2);
        assert_eq!(noc.link_stats()[1].queue_high_water, 2);
        assert_eq!(noc.link_stats()[3].sent, 1);
        for t in 0..10 {
            while noc.poll(t, PartitionId(1)).is_some() {}
        }
        assert_eq!(noc.link_stats()[1].delivered, 2);
        assert_eq!(noc.link_stats()[0], LinkStats::default());
    }

    #[test]
    #[should_panic(expected = "unknown worker")]
    fn out_of_range_destination_panics() {
        let mut noc = Noc::new(Topology::Crossbar, 2, 3);
        let _ = noc.send(0, req_pkt(0, 5));
    }

    #[test]
    fn mean_latency_guarded_when_all_sends_dropped() {
        use bionicdb_fpga::fault::FaultPlan;
        let mut noc = Noc::new(Topology::Crossbar, 2, 3);
        noc.set_faults(FaultPlan::none().drop_nth_send(0).drop_nth_send(1).noc);
        noc.send(0, req_pkt(0, 1)).unwrap();
        noc.send(1, req_pkt(0, 1)).unwrap();
        let s = noc.stats();
        assert_eq!((s.sent, s.dropped), (2, 2));
        assert_eq!(
            s.mean_latency(),
            0.0,
            "sent == dropped must not divide by zero"
        );
        // And the healthy path still averages correctly.
        noc.send(2, req_pkt(0, 1)).unwrap();
        assert_eq!(noc.stats().mean_latency(), 3.0);
    }

    #[test]
    fn min_hop_latency_per_topology() {
        assert_eq!(Noc::new(Topology::Crossbar, 4, 3).min_hop_latency(), 3);
        // Ring: adjacent workers are one hop apart.
        assert_eq!(Noc::new(Topology::Ring, 8, 3).min_hop_latency(), 3);
        assert_eq!(Noc::new(Topology::Ring, 3, 5).min_hop_latency(), 5);
        // Multi-chip with one worker per node: every pair pays the link.
        let mc = Noc::new(
            Topology::MultiChip {
                workers_per_node: 1,
                inter_node_hops: 25,
            },
            4,
            3,
        );
        assert_eq!(mc.min_hop_latency(), 75);
        // Multi-chip with co-resident workers: the intra-node hop wins.
        let mc2 = Noc::new(
            Topology::MultiChip {
                workers_per_node: 2,
                inter_node_hops: 25,
            },
            4,
            3,
        );
        assert_eq!(mc2.min_hop_latency(), 3);
        // Degenerate single worker: no pairs; the hop latency is the floor.
        assert_eq!(Noc::new(Topology::Crossbar, 1, 3).min_hop_latency(), 3);
    }

    /// Epoch round-trip: the same traffic pushed through detached links,
    /// folded, absorbed and committed by an [`EpochMerger`] must leave the
    /// Noc in exactly the state direct sends produce — including which
    /// send the fault schedule's ordinals hit, since `send` and `commit`
    /// share one accept step.
    #[test]
    fn epoch_links_replay_bit_identical() {
        use bionicdb_fpga::fault::FaultPlan;
        let run = |epoch: bool| -> (NocStats, Vec<LinkStats>, Vec<Vec<Packet>>) {
            let mut noc = Noc::new(Topology::Crossbar, 3, 3);
            // Ordinal 2 (worker 1's first send) is lost; ordinal 3 (its
            // second) pays 10 extra cycles.
            noc.set_faults(FaultPlan::none().drop_nth_send(2).delay_nth_send(3, 10).noc);
            // Ordinal 0, queued before the epoch: worker 0 polls it at 4.
            noc.send(1, req_pkt(2, 0)).unwrap();
            if epoch {
                let mut merger = EpochMerger::new(&noc);
                let mut links = noc.begin_epoch();
                for l in &mut links {
                    l.begin_round(Vec::new());
                }
                assert!(Link::poll(&mut links[0], 4, PartitionId(0)).is_some());
                Link::send(&mut links[0], 5, req_pkt(0, 2)).unwrap();
                assert_eq!(Link::send(&mut links[0], 5, req_pkt(0, 1)), Err(NocBusy));
                Link::send(&mut links[0], 7, req_pkt(0, 2)).unwrap();
                Link::send(&mut links[1], 5, req_pkt(1, 2)).unwrap();
                Link::send(&mut links[1], 6, req_pkt(1, 0)).unwrap();
                // Fold the lanes in reverse: the fold order must not matter.
                let mut batch = StagedBatch::default();
                for l in links.iter_mut().rev() {
                    batch.fold(l.harvest());
                }
                merger.absorb(&mut noc, batch);
                let (deliveries, committed) = merger.commit(&mut noc, None);
                assert_eq!(committed, 4);
                assert!(merger.is_drained());
                noc.absorb_epoch(links, deliveries);
            } else {
                // Serial tick order: cycle by cycle, workers in id order.
                assert!(noc.poll(4, PartitionId(0)).is_some());
                noc.send(5, req_pkt(0, 2)).unwrap();
                assert_eq!(noc.send(5, req_pkt(0, 1)), Err(NocBusy));
                noc.send(5, req_pkt(1, 2)).unwrap();
                noc.send(6, req_pkt(1, 0)).unwrap();
                noc.send(7, req_pkt(0, 2)).unwrap();
            }
            let s = noc.stats();
            assert_eq!((s.sent, s.dropped, s.delayed, s.rejected), (5, 1, 1, 1));
            let drained = (0..3)
                .map(|w| std::iter::from_fn(|| noc.poll(100, PartitionId(w))).collect())
                .collect();
            (noc.stats(), noc.link_stats().to_vec(), drained)
        };
        let (serial, epoch) = (run(false), run(true));
        assert_eq!(serial.0, epoch.0, "NocStats diverged");
        assert_eq!(serial.1, epoch.1, "LinkStats diverged");
        assert_eq!(serial.2, epoch.2, "delivered packets diverged");
        assert_eq!(serial.1[2].queue_high_water, 2);
    }

    use proptest::prelude::*;

    /// One lane's traffic for a round: sends `(cycle, dst offset)`, poll
    /// cycles and rejections, each list in any order (sorted on use).
    type LaneTraffic = (Vec<(u64, usize)>, Vec<u64>, u64);

    fn lane_traffic() -> impl Strategy<Value = LaneTraffic> {
        // A narrow cycle range so that lanes often act in the same cycle.
        (
            prop::collection::vec((0u64..12, 0usize..5), 0..6),
            prop::collection::vec(0u64..12, 0..4),
            0u64..3,
        )
    }

    /// The batch lane `lane` of a 6-worker machine harvests: its sends and
    /// polls in cycle order, as the lane made them.
    fn lane_batch(lane: usize, (sends, polls, rejected): &LaneTraffic) -> StagedBatch {
        let mut sends = sends.clone();
        sends.sort_by_key(|&(c, _)| c);
        let mut polls = polls.clone();
        polls.sort_unstable();
        StagedBatch {
            sends: sends
                .into_iter()
                .enumerate()
                .map(|(k, (c, off))| {
                    let mut pkt = req_pkt(lane as u16, ((lane + 1 + off) % 6) as u16);
                    pkt.seq = k as u64;
                    (c, lane as u32, pkt)
                })
                .collect(),
            polls: polls.into_iter().map(|c| (c, lane as u32)).collect(),
            rejected: *rejected,
        }
    }

    proptest! {
        /// The property the threaded lane engine relies on: folding a
        /// round's lane batches in any grouping and any order gives the
        /// batch of the lane-order fold, so which thread ran which lane
        /// cannot show in the committed traffic.
        #[test]
        fn batch_folds_agree_in_any_grouping_and_order(
            lanes in prop::collection::vec(lane_traffic(), 1..7),
            order_keys in prop::collection::vec(any::<u64>(), 6),
            cuts in prop::collection::vec(any::<bool>(), 6),
            reverse_groups in any::<bool>(),
        ) {
            let n = lanes.len();
            let mut reference = StagedBatch::default();
            for (i, t) in lanes.iter().enumerate() {
                reference.fold(lane_batch(i, t));
            }
            let sends_key = |b: &StagedBatch| -> Vec<(u64, u32)> {
                b.sends.iter().map(|&(c, s, _)| (c, s)).collect()
            };
            let keys = sends_key(&reference);
            prop_assert!(keys.windows(2).all(|w| w[0] <= w[1]), "lane-order fold unsorted");
            // Fold lanes into groups in shuffled order, then fold the groups.
            let mut order: Vec<usize> = (0..n).collect();
            order.sort_by_key(|&i| order_keys[i]);
            let mut groups: Vec<StagedBatch> = Vec::new();
            for (k, i) in order.into_iter().enumerate() {
                if k == 0 || cuts[k] {
                    groups.push(StagedBatch::default());
                }
                groups.last_mut().expect("a group is open").fold(lane_batch(i, &lanes[i]));
            }
            if reverse_groups {
                groups.reverse();
            }
            let mut folded = StagedBatch::default();
            for g in groups {
                folded.fold(g);
            }
            prop_assert_eq!(folded, reference);
        }

        /// The lookahead cache (`pair_latency` matrix) is built once at
        /// construction and then trusted by the epoch scheduler's horizon
        /// math, and `min_hop_latency` is its minimum over distinct pairs.
        /// Pin both to freshly recomputed topology math across random
        /// configurations of every topology family, so the cache and the
        /// definition can never drift apart.
        #[test]
        fn lookahead_caches_match_recomputed_topology_math(
            which in 0usize..3,
            n in 1usize..12,
            raw_hop in 0u64..8,
            per in 1usize..5,
            inter in 0u64..60,
        ) {
            let topology = match which {
                0 => Topology::Crossbar,
                1 => Topology::Ring,
                _ => Topology::MultiChip {
                    workers_per_node: per,
                    inter_node_hops: inter,
                },
            };
            let noc = Noc::new(topology, n, raw_hop);
            // `Noc::new` clamps a zero hop latency to one cycle.
            let hop = raw_hop.max(1);
            let mut global_min = u64::MAX;
            for dst in 0..n {
                let mut row_min = u64::MAX;
                for src in 0..n {
                    let (s, d) = (PartitionId(src as u16), PartitionId(dst as u16));
                    let fresh = topology.hops_between(n, src, dst) * hop;
                    prop_assert_eq!(noc.latency(s, d), fresh, "latency {:?}", topology);
                    prop_assert_eq!(noc.min_latency(s, d), fresh, "cache {:?}", topology);
                    if src != dst {
                        row_min = row_min.min(fresh);
                    }
                }
                // A single-worker interconnect has no incoming pairs at
                // all; the documented fallback is the one-hop latency.
                let expect = if n == 1 { hop } else { row_min };
                global_min = global_min.min(expect);
            }
            prop_assert_eq!(noc.min_hop_latency(), global_min, "global {:?}", topology);
        }
    }
}
