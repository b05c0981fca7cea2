//! The partition worker: softcore + index coprocessor + channel glue.
//!
//! A partition worker (paper Fig. 2) couples one softcore with one index
//! coprocessor and the worker's communication link. Each cycle the glue:
//!
//! 1. runs the **background unit** — catches inbound packets from the
//!    on-chip channels: requests go into the coprocessor as background
//!    requests (overlapping freely with local foreground requests in the
//!    pipelines), responses are written back into the local CP registers;
//! 2. scans the retransmit table (only when a [`NocRetryConfig`] is armed):
//!    overdue remote requests are resent, exhausted ones synthesize a
//!    `Timeout` error into the waiting CP register;
//! 3. ticks the softcore;
//! 4. routes the softcore's dispatched DB instructions — local home
//!    partition to the local coprocessor, remote home onto the request
//!    channel;
//! 5. ticks the coprocessor;
//! 6. routes completed results — local initiators to the CP register file,
//!    remote initiators onto the response channel.
//!
//! ## Loss tolerance (retry + idempotent remote ops)
//!
//! The paper's on-chip channels are lossless, and by default so are ours —
//! with `retry: None` the glue behaves bit-for-bit as a lossless design.
//! The fault-injection subsystem can drop packets, though, and a dropped
//! request or response would wedge its transaction forever. Arming a
//! [`NocRetryConfig`] turns the glue into a classic at-least-once /
//! execute-at-most-once endpoint:
//!
//! * every remote request carries a per-source **sequence number**;
//! * the initiator keeps it in a pending table and **retransmits** after
//!   `timeout_cycles`, up to `max_attempts` sends, then delivers
//!   `DbStatus::Timeout` so the stored procedure's error branch aborts the
//!   transaction cleanly;
//! * the home worker **de-duplicates** by `(source, seq)`: a retransmit of
//!   an in-flight request is discarded, a retransmit of a completed one is
//!   answered from a bounded cache of recent responses — the index
//!   operation itself is never executed twice;
//! * responses echo the request's seq, so a stale or duplicated response
//!   can never complete the wrong wait.

use std::collections::VecDeque;

use bionicdb_coproc::layout::TableState;
use bionicdb_coproc::{CoprocConfig, IndexCoproc};
use bionicdb_fpga::{Dram, Fifo};
use bionicdb_noc::{Link, Packet, Payload};
use bionicdb_softcore::catalogue::Catalogue;
use bionicdb_softcore::core::SoftcoreParams;
use bionicdb_softcore::request::DbRequest;
use bionicdb_softcore::{DbResult, DbStatus, PartitionId, Softcore};

use crate::config::NocRetryConfig;

/// Completed remote responses remembered for duplicate-request replay.
/// Bounded so a long run cannot grow without limit; old entries are evicted
/// FIFO. 256 far exceeds the number of retransmits that can be in flight
/// under any configured timeout.
const COMPLETED_CACHE: usize = 256;

/// Statistics of one worker's channel glue.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct WorkerStats {
    /// Requests dispatched to the local coprocessor.
    pub local_requests: u64,
    /// Requests sent to remote workers.
    pub remote_requests: u64,
    /// Background requests received from remote workers.
    pub background_requests: u64,
    /// Duplicate remote requests absorbed by the dedup table (discarded or
    /// answered from the completed-response cache, never re-executed).
    pub dup_requests: u64,
    /// Duplicate / stale responses discarded at the initiator.
    pub dup_responses: u64,
    /// Retransmissions of remote requests.
    pub retries_sent: u64,
    /// Remote requests that exhausted their retry budget and delivered a
    /// synthesized `Timeout` to the waiting CP register.
    pub retry_exhausted: u64,
}

/// A remote request awaiting its response at the initiator.
#[derive(Debug, Clone, Copy)]
struct PendingRemote {
    seq: u64,
    pkt: Packet,
    sent_at: u64,
    attempts: u32,
}

/// A remote request currently executing in the local coprocessor on behalf
/// of `src`, keyed by the CP slot its response will carry.
#[derive(Debug, Clone, Copy)]
struct InflightRemote {
    cp_worker: PartitionId,
    cp_index: u16,
    src: PartitionId,
    seq: u64,
}

/// One partition worker.
pub struct PartitionWorker {
    /// Worker / partition id.
    pub id: PartitionId,
    /// The stored-procedure execution engine.
    pub softcore: Softcore,
    /// The index coprocessor.
    pub coproc: IndexCoproc,
    /// DB instructions dispatched by the softcore, awaiting routing.
    db_chan: Fifo<DbRequest>,
    stats: WorkerStats,
    /// Retry policy; `None` = legacy lossless glue, bit-for-bit.
    retry: Option<NocRetryConfig>,
    /// Next sequence number for outgoing remote requests.
    next_seq: u64,
    /// Outgoing remote requests awaiting responses (initiator side).
    pending_remote: Vec<PendingRemote>,
    /// Remote requests executing locally (home side), for dedup.
    bg_inflight: Vec<InflightRemote>,
    /// Recently completed remote responses (home side), replayed to
    /// duplicate requests whose response was lost.
    bg_completed: VecDeque<(PartitionId, u64, i64)>,
}

impl PartitionWorker {
    /// Build a worker, registering its ports on `dram`.
    pub fn new(
        id: PartitionId,
        sc_params: SoftcoreParams,
        coproc_cfg: &CoprocConfig,
        dram: &mut Dram,
        retry: Option<NocRetryConfig>,
    ) -> Self {
        PartitionWorker {
            id,
            softcore: Softcore::new(id, sc_params, dram),
            coproc: IndexCoproc::new(coproc_cfg, dram),
            db_chan: Fifo::new(16),
            stats: WorkerStats::default(),
            retry,
            // Seq 0 is reserved for unsequenced packets (legacy glue,
            // defensive fallbacks); real requests start at 1.
            next_seq: 1,
            pending_remote: Vec::new(),
            bg_inflight: Vec::new(),
            bg_completed: VecDeque::new(),
        }
    }

    /// Glue statistics.
    pub fn stats(&self) -> WorkerStats {
        self.stats
    }

    /// True when the worker has no pending work of any kind. A non-empty
    /// retransmit table counts as work: it always resolves on its own
    /// (response, retransmit, or synthesized timeout).
    pub fn is_quiescent(&self) -> bool {
        self.softcore.is_quiescent()
            && self.coproc.is_idle()
            && self.db_chan.is_empty()
            && self.pending_remote.is_empty()
    }

    /// Fast-forward support: the earliest future cycle at which this worker
    /// could make progress or mutate a statistic on its own — i.e. without
    /// a NoC delivery or DRAM completion, which the machine bounds
    /// separately. `None` when both softcore and coprocessor are purely
    /// waiting (or idle) and no routing work is queued.
    pub fn next_event(&self, now: u64) -> Option<u64> {
        // Queued routing work retries a coproc push / NoC send every tick
        // (a NoC send attempt mutates `busy_rejects`): never skip it.
        if !self.db_chan.is_empty() || !self.coproc.out.is_empty() {
            return Some(now + 1);
        }
        let mut next = match (self.softcore.next_event(now), self.coproc.next_event(now)) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        // Retransmit deadlines are self-generated events: a skipped machine
        // must still wake to resend or to synthesize a timeout.
        if let Some(cfg) = self.retry {
            for p in &self.pending_remote {
                let deadline = (p.sent_at + cfg.timeout_cycles).max(now + 1);
                next = Some(next.map_or(deadline, |n| n.min(deadline)));
            }
        }
        next
    }

    /// Fast-forward support: account for `k` skipped cycles in both halves.
    pub fn skip(&mut self, k: u64) {
        self.softcore.skip(k);
        self.coproc.skip(k);
    }

    /// Whether `(src, seq)` duplicates an in-flight or completed remote
    /// request. Returns the cached response value when completed.
    fn dedup_lookup(&self, src: PartitionId, seq: u64) -> Option<Option<i64>> {
        if let Some(&(_, _, v)) = self
            .bg_completed
            .iter()
            .find(|&&(s, q, _)| s == src && q == seq)
        {
            return Some(Some(v));
        }
        if self
            .bg_inflight
            .iter()
            .any(|e| e.src == src && e.seq == seq)
        {
            return Some(None);
        }
        None
    }

    /// One cycle of the whole worker.
    ///
    /// `noc` is any [`Link`]: the shared [`bionicdb_noc::Noc`] under serial
    /// ticking, or this worker's detached [`bionicdb_noc::EpochLink`] under
    /// the epoch-parallel scheduler — the glue cannot tell the difference,
    /// which is precisely what makes the parallel schedule bit-exact.
    pub fn tick(
        &mut self,
        now: u64,
        dram: &mut Dram,
        cat: &Catalogue,
        noc: &mut impl Link,
        tables: &mut [TableState],
    ) {
        // Tick-order invariant 1 (see `Machine::tick`): the bank must have
        // been ticked at `now` before its worker — a response completing
        // at `now` has to be consumable this very cycle, in serial and
        // epoch-parallel schedules alike. An unticked bank would still
        // report a due completion at or before `now`.
        debug_assert!(
            dram.next_event().is_none_or(|t| t > now),
            "DRAM bank ticked after its worker at cycle {now}"
        );
        // 1. Background unit: drain deliverable inbound packets.
        while let Some(pkt) = noc.peek(now, self.id) {
            match pkt.payload {
                Payload::Response(resp) => {
                    debug_assert_eq!(resp.cp.worker, self.id, "response misrouted");
                    if self.retry.is_some() {
                        let seq = pkt.seq;
                        noc.poll(now, self.id);
                        if let Some(i) = self.pending_remote.iter().position(|p| p.seq == seq) {
                            self.pending_remote.swap_remove(i);
                            self.softcore.deliver_cp(now, resp.cp.index, resp.value);
                        } else {
                            // Stale: a retransmitted request produced a
                            // second response, or the wait already timed
                            // out. Either way the CP slot may be reused —
                            // never write it.
                            self.stats.dup_responses += 1;
                        }
                    } else {
                        self.softcore.deliver_cp(now, resp.cp.index, resp.value);
                        noc.poll(now, self.id);
                    }
                }
                Payload::Request(_) => {
                    if self.retry.is_some() {
                        if let Some(done) = self.dedup_lookup(pkt.src, pkt.seq) {
                            let (src, seq) = (pkt.src, pkt.seq);
                            let Payload::Request(req) =
                                noc.poll(now, self.id).expect("peeked").payload
                            else {
                                unreachable!("peeked a request")
                            };
                            self.stats.dup_requests += 1;
                            if let Some(value) = done {
                                // Response was lost: replay it from cache.
                                // If the channel is busy the replay is lost
                                // too and the initiator simply retries.
                                let _ = noc.send(
                                    now,
                                    Packet {
                                        src: self.id,
                                        dst: src,
                                        payload: Payload::Response(
                                            bionicdb_softcore::request::DbResponse {
                                                cp: req.cp,
                                                value,
                                            },
                                        ),
                                        seq,
                                    },
                                );
                            }
                            continue;
                        }
                    }
                    if !self.coproc.input.has_space() {
                        break; // back-pressure into the channel
                    }
                    let seq = pkt.seq;
                    let src = pkt.src;
                    let Payload::Request(req) = noc.poll(now, self.id).expect("peeked").payload
                    else {
                        unreachable!("peeked a request")
                    };
                    debug_assert_eq!(req.home, self.id, "request misrouted");
                    if self.retry.is_some() {
                        self.bg_inflight.push(InflightRemote {
                            cp_worker: req.cp.worker,
                            cp_index: req.cp.index,
                            src,
                            seq,
                        });
                    }
                    self.coproc.input.push(req).expect("space checked");
                    self.stats.background_requests += 1;
                }
            }
        }

        // 2. Retransmit scan (armed glue only).
        if let Some(cfg) = self.retry {
            let mut i = 0;
            while i < self.pending_remote.len() {
                let p = self.pending_remote[i];
                if now.saturating_sub(p.sent_at) < cfg.timeout_cycles {
                    i += 1;
                    continue;
                }
                if p.attempts >= cfg.max_attempts {
                    // Budget exhausted: synthesize a Timeout into the
                    // waiting CP register so the sproc's error branch
                    // aborts the transaction instead of wedging.
                    let Payload::Request(req) = p.pkt.payload else {
                        unreachable!("pending entries are requests")
                    };
                    self.softcore.deliver_cp(
                        now,
                        req.cp.index,
                        DbResult::Err(DbStatus::Timeout).encode(),
                    );
                    self.stats.retry_exhausted += 1;
                    self.pending_remote.swap_remove(i);
                    continue; // swap_remove moved a new entry into slot i
                }
                // On a busy channel, leave the entry and retry next tick.
                if noc.send(now, p.pkt).is_ok() {
                    self.pending_remote[i].attempts += 1;
                    self.pending_remote[i].sent_at = now;
                    self.stats.retries_sent += 1;
                }
                i += 1;
            }
        }

        // 3. Softcore.
        self.softcore.tick(now, dram, cat, &mut self.db_chan);

        // 4. Route dispatched DB instructions.
        while let Some(req) = self.db_chan.peek().copied() {
            if req.home == self.id {
                if !self.coproc.input.has_space() {
                    break;
                }
                self.coproc.input.push(req).expect("space checked");
                self.stats.local_requests += 1;
            } else {
                let seq = self.next_seq;
                let pkt = Packet {
                    src: self.id,
                    dst: req.home,
                    payload: Payload::Request(req),
                    seq,
                };
                if noc.send(now, pkt).is_err() {
                    break;
                }
                self.next_seq += 1;
                if self.retry.is_some() {
                    self.pending_remote.push(PendingRemote {
                        seq,
                        pkt,
                        sent_at: now,
                        attempts: 1,
                    });
                }
                self.stats.remote_requests += 1;
            }
            self.db_chan.pop();
        }

        // 5. Coprocessor.
        self.coproc.tick(now, dram, tables);

        // 6. Route completed results.
        while let Some(resp) = self.coproc.out.peek().copied() {
            if resp.cp.worker == self.id {
                self.softcore.deliver_cp(now, resp.cp.index, resp.value);
            } else {
                // Echo the originating request's seq so the initiator can
                // match the response against its pending table.
                let (dst, seq, inflight_idx) = if self.retry.is_some() {
                    let idx = self
                        .bg_inflight
                        .iter()
                        .position(|e| e.cp_worker == resp.cp.worker && e.cp_index == resp.cp.index);
                    match idx {
                        Some(i) => (self.bg_inflight[i].src, self.bg_inflight[i].seq, Some(i)),
                        None => (resp.cp.worker, 0, None),
                    }
                } else {
                    (resp.cp.worker, 0, None)
                };
                let pkt = Packet {
                    src: self.id,
                    dst,
                    payload: Payload::Response(resp),
                    seq,
                };
                if noc.send(now, pkt).is_err() {
                    break;
                }
                if let Some(i) = inflight_idx {
                    let e = self.bg_inflight.swap_remove(i);
                    self.bg_completed.push_back((e.src, e.seq, resp.value));
                    if self.bg_completed.len() > COMPLETED_CACHE {
                        self.bg_completed.pop_front();
                    }
                }
            }
            self.coproc.out.pop();
        }
    }
}

impl std::fmt::Debug for PartitionWorker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PartitionWorker")
            .field("id", &self.id)
            .field("softcore", &self.softcore)
            .field("db_chan", &self.db_chan.len())
            .field("pending_remote", &self.pending_remote.len())
            .field("stats", &self.stats)
            .finish()
    }
}
