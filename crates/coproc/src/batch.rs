//! Batched level-wise index traversal (DESIGN.md §16, ROADMAP item 5a).
//!
//! The per-probe pipelines hide DRAM latency by interleaving independent
//! in-flight transactions, so the memory-level parallelism (MLP) they
//! expose is capped by how many concurrent index operations the softcores
//! supply. The batch engine restructures read-set probes (SEARCH / UPDATE
//! / REMOVE) the way the FPGA B+-tree batch-search work does: up to
//! `batch_width` probes that share a [`batch group`](DbRequest::batch_group)
//! travel the index *together*, and every level of the walk issues the
//! whole batch's fetches as one wave of outstanding DRAM reads — sorted
//! and deduplicated by node address, so hot upper levels (the skiplist
//! head tower, shared bucket heads) are fetched once per batch instead of
//! once per probe. MLP becomes `batch_width × controllers` instead of
//! "number of in-flight transactions".
//!
//! Level-wise contract: no probe descends to level `N+1` (hash: chain hop
//! `h+1`) until every probe of the batch has resolved its level-`N`
//! fetches. Within a level a probe may take several same-level steps
//! (skiplist forward steps along one level are level-`N` fetches).
//!
//! The equivalence contract when batching is on is **results, not
//! cycles**: a batched probe returns exactly the hit/miss, record address
//! and CC verdict its per-probe traversal would have returned (proptested
//! in this module's tests), but the cycle in which it completes — and
//! therefore neighbouring timestamps — may differ. With
//! [`BatchMode::Off`](bionicdb_softcore::BatchMode::Off) (the default) the
//! engine is never constructed, no DRAM port is registered, and no request
//! carries a batch group: the machine is bit-identical to a build without
//! this module.

use std::collections::VecDeque;

use bionicdb_fpga::stats::{StageStats, WaveState};
use bionicdb_fpga::{Dram, MemData};
use bionicdb_softcore::request::{DbRequest, DbResponse};
use bionicdb_softcore::{DbResult, DbStatus, IndexKey, IndexKind};

use crate::cc;
use crate::hash::HashPipeline;
use crate::layout::{RecordHeader, TableState, HEADER_SIZE, TUPLE_HEADER};
use crate::mem::AsyncReader;
use crate::sdbm::{bucket_of, sdbm_hash};
use crate::skiplist::next_ptr_addr;

/// Cycles the pending queue waits, while it holds one group only and
/// fewer than `width` probes of it, before that group launches anyway.
/// Keeps a trickle of tagged probes from waiting forever on an unreachable
/// width target. The launch rule fires on whichever comes first: `width`
/// probes of the head group anywhere in the queue, a second group pending,
/// or this age, counted from the last launch or from when the queue last
/// became non-empty.
const FLUSH_AGE: u64 = 16;

/// Counters of one batch engine, surfaced by the bench bins.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct BatchStats {
    /// Batches launched.
    pub batches: u64,
    /// Probes resolved through the engine.
    pub probes: u64,
    /// Wave barriers crossed (index levels / chain hops traversed
    /// batch-wide, including the key-fetch wave).
    pub waves: u64,
    /// DRAM reads issued.
    pub reads: u64,
    /// Reads saved by per-wave address dedup (probes that piggybacked on a
    /// wave-mate's fetch of the same node).
    pub dedup_saved: u64,
    /// Cycles the head wave stalled on a locked hash bucket.
    pub lock_stalls: u64,
    /// Batches launched by the age flush: the head group counted fewer
    /// than `width` probes and no other group was pending.
    pub flush_launches: u64,
}

/// Per-probe traversal state. `Need*` wants a read issued, `Wait*` has one
/// outstanding, `Staged*`/`LevelDone` hold resolved probes at the wave
/// barrier until the whole batch may advance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PState {
    /// Needs the key bytes read from the transaction block.
    NeedKey,
    WaitKey,
    /// Key resolved; waiting for the key-fetch barrier.
    KeyDone,
    /// Hash: needs the bucket-head read.
    NeedHead,
    WaitHead,
    /// Hash: needs the `[next | header]` read of this chain node.
    NeedNode(u64),
    WaitNode(u64),
    /// Hash: resolved this hop; next node staged behind the hop barrier.
    StagedNode(u64),
    /// Skiplist: needs the `cur.next[level]` pointer read.
    NeedPtr,
    WaitPtr,
    /// Skiplist: needs the candidate tower's header read.
    NeedHdr(u64),
    WaitHdr(u64),
    /// Skiplist: finished the current level; waits to descend.
    LevelDone,
    Done,
}

/// One probe of an active batch.
#[derive(Debug)]
struct Probe {
    req: DbRequest,
    /// Valid once past [`PState::WaitKey`].
    key: IndexKey,
    /// Hash only: bucket index, computed when the key resolves.
    bucket: u64,
    /// Skiplist only: current tower (0 = head sentinel).
    cur: u64,
    state: PState,
    result: Option<DbResult>,
}

/// A batch in flight.
#[derive(Debug)]
struct Batch {
    probes: Vec<Probe>,
    /// Skiplist: the level currently traversed batch-wide.
    level: usize,
    /// True once the key-fetch wave completed and the walk started.
    walking: bool,
}

/// The level-wise batched probe engine for one index kind. Constructed
/// only when [`CoprocConfig::batch_mode`](crate::CoprocConfig::batch_mode)
/// is not `Off` — construction registers a DRAM port, which a bit-inert
/// default must not do.
#[derive(Debug)]
pub struct BatchEngine {
    kind: IndexKind,
    width: usize,
    /// Diverted requests waiting to be grouped into a batch.
    pending: VecDeque<DbRequest>,
    /// Cycle at which `pending` last became non-empty (age flush).
    pending_since: u64,
    active: Option<Batch>,
    /// One read per distinct node address per wave; the context is the
    /// mask of probe indices (bit `i` = probe `i`, `width <= 64`) the
    /// response fans out to.
    reader: AsyncReader<u64>,
    /// The current wave's `(addr, len, probe)` fetches, reused across
    /// waves.
    wants: Vec<(u64, u32, u32)>,
    /// Completed responses, drained by the coprocessor facade.
    out: VecDeque<DbResponse>,
    stats: BatchStats,
    stage: StageStats,
}

impl BatchEngine {
    /// Build an engine with `width` probe slots, registering one DRAM port.
    pub fn new(dram: &mut Dram, kind: IndexKind, width: usize) -> Self {
        let width = width.clamp(1, 64);
        BatchEngine {
            kind,
            width,
            pending: VecDeque::new(),
            pending_since: 0,
            active: None,
            reader: AsyncReader::new(dram, width),
            wants: Vec::with_capacity(width),
            out: VecDeque::new(),
            stats: BatchStats::default(),
            stage: StageStats::default(),
        }
    }

    /// Accept a diverted probe into the pending queue. Returns `false`
    /// when the queue is full (the coprocessor head-of-line blocks, exactly
    /// like a full pipeline input).
    pub fn offer(&mut self, req: DbRequest, now: u64) -> bool {
        if self.pending.len() >= self.width * 2 {
            return false;
        }
        if self.pending.is_empty() {
            self.pending_since = now;
        }
        self.pending.push_back(req);
        true
    }

    /// Drain one completed response.
    pub fn pop_out(&mut self) -> Option<DbResponse> {
        self.out.pop_front()
    }

    /// True when nothing is pending, active, or waiting to be drained.
    pub fn is_idle(&self) -> bool {
        self.pending.is_empty() && self.active.is_none() && self.out.is_empty()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> BatchStats {
        self.stats
    }

    /// Utilization of the engine as one wave-holding stage.
    pub fn stage_stats(&self) -> StageStats {
        self.stage
    }

    /// Fast-forward support: conservative — any held work re-ticks every
    /// cycle (wave barriers and the age flush are cycle-granular), so only
    /// a fully idle engine is skippable.
    pub fn next_event(&self, now: u64) -> Option<u64> {
        if self.is_idle() {
            None
        } else {
            Some(now + 1)
        }
    }

    /// Account `k` skipped cycles (only ever called while idle, because
    /// [`Self::next_event`] pins every non-idle cycle).
    pub fn skip(&mut self, k: u64) {
        if self.is_idle() {
            self.stage.wave_skip(WaveState::Empty, k);
        }
    }

    /// Advance the engine one cycle: resolve responses, launch a batch,
    /// cross wave barriers, issue this cycle's wave of deduplicated reads,
    /// and retire a finished batch. `hash` carries the bucket-lock view for
    /// hash-kind engines (`None` for skiplist).
    pub fn tick(
        &mut self,
        now: u64,
        dram: &mut Dram,
        tables: &[TableState],
        hash: Option<&HashPipeline>,
    ) {
        self.reader.poll(dram);
        let mut progressed = false;

        // Resolve completed reads; fan each response out to every probe
        // that piggybacked on the fetch, in probe-index (= admission)
        // order so CC side effects are deterministic.
        while let Some((mut probes, data)) = self.reader.pop_ready() {
            progressed = true;
            while probes != 0 {
                self.resolve(probes.trailing_zeros() as usize, &data, dram, tables);
                probes &= probes - 1;
            }
        }

        progressed |= self.try_launch(now);
        progressed |= self.advance_barriers(tables);
        progressed |= self.issue_wave(now, dram, tables, hash);
        let retired = self.retire();
        progressed |= retired > 0;

        let held = self.active.is_some() || !self.pending.is_empty();
        let state = if progressed {
            WaveState::Progressing
        } else if held {
            WaveState::Waiting
        } else {
            WaveState::Empty
        };
        self.stage.wave_tick(state, retired);
    }

    /// Launch a batch of the oldest pending probe's group (the head group)
    /// when that group has `width` probes anywhere in `pending`, when
    /// another group is pending beside it, or when the queue has aged past
    /// [`FLUSH_AGE`]. The batch takes the first `min(count, width)` probes
    /// of the head group in admission order and leaves every other probe
    /// where it was — in hardware, a tag match over the `2 × width`
    /// pending entries. Remote probes keep their sender's group, so a
    /// worker serving its own and a peer's transactions sees the groups
    /// interleaved; counting only the same-group prefix would launch
    /// part-empty waves. The head group always launches next, so no group
    /// starves.
    fn try_launch(&mut self, now: u64) -> bool {
        if self.active.is_some() || self.pending.is_empty() {
            return false;
        }
        let group = self.pending[0].batch_group;
        let count = self
            .pending
            .iter()
            .filter(|r| r.batch_group == group)
            .count();
        let mixed = count < self.pending.len();
        let aged = now >= self.pending_since.saturating_add(FLUSH_AGE);
        if count < self.width && !mixed && !aged {
            return false;
        }
        if aged && count < self.width && !mixed {
            self.stats.flush_launches += 1;
        }
        let n = count.min(self.width);
        let mut probes = Vec::with_capacity(n);
        self.pending.retain(|r| {
            if probes.len() == n || r.batch_group != group {
                return true;
            }
            probes.push(Probe {
                req: *r,
                key: IndexKey::from_u64(0),
                bucket: 0,
                cur: 0,
                state: PState::NeedKey,
                result: None,
            });
            false
        });
        self.pending_since = now;
        self.active = Some(Batch {
            probes,
            level: 0,
            walking: false,
        });
        self.stats.batches += 1;
        true
    }

    /// Cross wave barriers: start the walk once every key resolved; promote
    /// staged hash hops / descend a skiplist level once no probe of the
    /// current wave is still fetching.
    fn advance_barriers(&mut self, tables: &[TableState]) -> bool {
        let Some(b) = &mut self.active else {
            return false;
        };
        let mut progressed = false;
        if !b.walking {
            let keys_done = b
                .probes
                .iter()
                .all(|p| !matches!(p.state, PState::NeedKey | PState::WaitKey));
            if !keys_done {
                return false;
            }
            b.walking = true;
            progressed = true;
            self.stats.waves += 1;
            match self.kind {
                IndexKind::Hash => {
                    for p in &mut b.probes {
                        if p.state != PState::Done {
                            p.state = PState::NeedHead;
                        }
                    }
                }
                IndexKind::Skiplist => {
                    b.level = b
                        .probes
                        .iter()
                        .filter(|p| p.state != PState::Done)
                        .map(|p| tables[p.req.table.0 as usize].max_level)
                        .max()
                        .unwrap_or(1)
                        - 1;
                    Self::enter_level(b, tables);
                }
            }
        }
        match self.kind {
            IndexKind::Hash => {
                let hop_open = b.probes.iter().any(|p| {
                    matches!(
                        p.state,
                        PState::NeedHead
                            | PState::WaitHead
                            | PState::NeedNode(_)
                            | PState::WaitNode(_)
                    )
                });
                if !hop_open
                    && b.probes
                        .iter()
                        .any(|p| matches!(p.state, PState::StagedNode(_)))
                {
                    for p in &mut b.probes {
                        if let PState::StagedNode(a) = p.state {
                            p.state = PState::NeedNode(a);
                        }
                    }
                    self.stats.waves += 1;
                    progressed = true;
                }
            }
            IndexKind::Skiplist => {
                let level_open = b.probes.iter().any(|p| {
                    matches!(
                        p.state,
                        PState::NeedPtr | PState::WaitPtr | PState::NeedHdr(_) | PState::WaitHdr(_)
                    )
                });
                if !level_open && b.probes.iter().any(|p| p.state == PState::LevelDone) {
                    debug_assert!(b.level > 0, "level 0 resolves every probe");
                    b.level -= 1;
                    Self::enter_level(b, tables);
                    self.stats.waves += 1;
                    progressed = true;
                }
            }
        }
        progressed
    }

    /// Place every live probe at the batch's current level; a probe whose
    /// table is shorter than the batch-wide start level sits the level out.
    fn enter_level(b: &mut Batch, tables: &[TableState]) {
        for p in &mut b.probes {
            if p.state == PState::Done {
                continue;
            }
            let ml = tables[p.req.table.0 as usize].max_level;
            p.state = if b.level < ml {
                PState::NeedPtr
            } else {
                PState::LevelDone
            };
        }
    }

    /// Issue this cycle's wave: gather every `Need*` fetch, sort by
    /// address, and issue one read per distinct `(addr, len)` with the
    /// probe indices as fan-out context. Stops at the first busy
    /// controller / exhausted slot; the rest retries next cycle.
    fn issue_wave(
        &mut self,
        now: u64,
        dram: &mut Dram,
        tables: &[TableState],
        hash: Option<&HashPipeline>,
    ) -> bool {
        let Some(b) = &mut self.active else {
            return false;
        };
        // The head wave honours the pipeline's bucket locks: an in-flight
        // insert owning any wanted bucket stalls the whole wave, mirroring
        // the head-of-line block at the Hash stage.
        if let Some(hash) = hash {
            let blocked = b.probes.iter().any(|p| {
                p.state == PState::NeedHead && hash.bucket_locked(p.req.table.0, p.bucket)
            });
            if blocked {
                self.stats.lock_stalls += 1;
                return false;
            }
        }
        let wants = &mut self.wants;
        wants.clear();
        for (i, p) in b.probes.iter().enumerate() {
            let t = &tables[p.req.table.0 as usize];
            let want = match p.state {
                PState::NeedKey => Some((p.req.key_addr, t.meta.key_len as u32)),
                PState::NeedHead => Some((t.bucket_addr(p.bucket), 8)),
                PState::NeedNode(a) => Some((a, (TUPLE_HEADER + HEADER_SIZE) as u32)),
                PState::NeedPtr => Some((next_ptr_addr(t, p.cur, b.level), 8)),
                PState::NeedHdr(a) => Some((a, HEADER_SIZE as u32)),
                _ => None,
            };
            if let Some((addr, len)) = want {
                wants.push((addr, len, i as u32));
            }
        }
        if wants.is_empty() {
            return false;
        }
        wants.sort_unstable();
        let mut progressed = false;
        let mut i = 0;
        while i < wants.len() {
            let (addr, len, _) = wants[i];
            let mut probes = 0u64;
            while i < wants.len() && wants[i].0 == addr && wants[i].1 == len {
                probes |= 1 << wants[i].2;
                i += 1;
            }
            if !self.reader.can_issue() {
                break;
            }
            if self.reader.issue(now, dram, addr, len, probes).is_err() {
                break; // controller busy: retry the rest next cycle
            }
            self.stats.reads += 1;
            self.stats.dedup_saved += u64::from(probes.count_ones()) - 1;
            progressed = true;
            let mut mark = probes;
            while mark != 0 {
                let p = &mut b.probes[mark.trailing_zeros() as usize];
                mark &= mark - 1;
                p.state = match p.state {
                    PState::NeedKey => PState::WaitKey,
                    PState::NeedHead => PState::WaitHead,
                    PState::NeedNode(a) => PState::WaitNode(a),
                    PState::NeedPtr => PState::WaitPtr,
                    PState::NeedHdr(a) => PState::WaitHdr(a),
                    s => s,
                };
            }
        }
        progressed
    }

    /// Apply one response to one probe. Terminal visibility checks run
    /// here, through the same [`cc::check_and_apply`] the pipelines use,
    /// so batched and per-probe traversal produce identical CC verdicts.
    fn resolve(&mut self, idx: usize, data: &MemData, dram: &mut Dram, tables: &[TableState]) {
        let Some(b) = &mut self.active else {
            unreachable!("response without an active batch");
        };
        let level = b.level;
        let p = &mut b.probes[idx];
        let bytes = data.as_slice();
        match p.state {
            PState::WaitKey => {
                p.key = IndexKey::from_bytes(bytes);
                if matches!(self.kind, IndexKind::Hash) {
                    let t = &tables[p.req.table.0 as usize];
                    p.bucket = bucket_of(sdbm_hash(p.key.as_bytes()), t.meta.hash_buckets);
                }
                p.state = PState::KeyDone;
            }
            PState::WaitHead => {
                let head = u64::from_le_bytes(bytes[0..8].try_into().unwrap());
                if head == 0 {
                    p.result = Some(DbResult::Err(DbStatus::NotFound));
                    p.state = PState::Done;
                } else {
                    p.state = PState::StagedNode(head);
                }
            }
            PState::WaitNode(addr) => {
                let next = u64::from_le_bytes(bytes[0..8].try_into().unwrap());
                let hdr = RecordHeader::decode(&bytes[TUPLE_HEADER as usize..]);
                if hdr.key == p.key {
                    let r =
                        cc::check_and_apply(dram, addr + TUPLE_HEADER, p.req.op, p.req.ts, addr);
                    p.result = Some(r);
                    p.state = PState::Done;
                } else if next == 0 {
                    p.result = Some(DbResult::Err(DbStatus::NotFound));
                    p.state = PState::Done;
                } else {
                    p.state = PState::StagedNode(next);
                }
            }
            PState::WaitPtr => {
                let next = u64::from_le_bytes(bytes[0..8].try_into().unwrap());
                if next != 0 {
                    p.state = PState::NeedHdr(next);
                } else if level == 0 {
                    p.result = Some(DbResult::Err(DbStatus::NotFound));
                    p.state = PState::Done;
                } else {
                    p.state = PState::LevelDone;
                }
            }
            PState::WaitHdr(cand) => {
                let hdr = RecordHeader::decode(bytes);
                if hdr.key < p.key {
                    // Same-level forward step: another level-N fetch.
                    p.cur = cand;
                    p.state = PState::NeedPtr;
                } else if level == 0 {
                    if hdr.key == p.key {
                        let r = cc::check_and_apply(dram, cand, p.req.op, p.req.ts, cand);
                        p.result = Some(r);
                    } else {
                        p.result = Some(DbResult::Err(DbStatus::NotFound));
                    }
                    p.state = PState::Done;
                } else {
                    p.state = PState::LevelDone;
                }
            }
            s => unreachable!("batch response for probe in state {s:?}"),
        }
    }

    /// Retire a finished batch: responses emit in admission order.
    fn retire(&mut self) -> u64 {
        let done = self
            .active
            .as_ref()
            .is_some_and(|b| b.probes.iter().all(|p| p.state == PState::Done));
        if !done {
            return 0;
        }
        let b = self.active.take().expect("checked above");
        let n = b.probes.len() as u64;
        for p in b.probes {
            let r = p.result.expect("done probes carry a result");
            self.out.push_back(DbResponse {
                cp: p.req.cp,
                value: r.encode(),
            });
        }
        self.stats.probes += n;
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bionicdb_fpga::{FpgaConfig, Region};
    use bionicdb_softcore::catalogue::{TableId, TableMeta};
    use bionicdb_softcore::request::{CpSlot, DbOp, PartitionId};

    /// Groups interleaved in `pending` (a worker's own probes beside a
    /// peer's remote ones) still launch one full wave per group.
    #[test]
    fn interleaved_groups_launch_one_full_wave() {
        const A: u64 = (1 << 63) | 1;
        const B: u64 = (1 << 63) | 2;
        let fcfg = FpgaConfig::default();
        let mut dram = Dram::new(&fcfg, 16 << 20);
        let mut region = Region::new(8 << 20, 8 << 20);
        let tables = [TableState {
            meta: TableMeta::hash("h", 8, 32, 64),
            dir_addr: region.alloc(8 * 64, 64),
            heap: region.carve(4 << 20, 64),
            max_level: 20,
        }];
        let mut engine = BatchEngine::new(&mut dram, IndexKind::Hash, 4);
        for i in 0..8u16 {
            let key_addr = 4096 * (u64::from(i) + 1);
            dram.host_write(key_addr, IndexKey::from_u64(u64::from(i)).as_bytes());
            let req = DbRequest {
                op: DbOp::Search,
                table: TableId(0),
                key_addr,
                payload_addr: key_addr + 64,
                scan_count: 0,
                out_addr: key_addr + 128,
                ts: 100,
                cp: CpSlot {
                    worker: PartitionId(0),
                    index: i,
                },
                home: PartitionId(0),
                batch_group: if i % 2 == 0 { A } else { B },
            };
            assert!(engine.offer(req, 0), "eight probes fit 2 × width");
        }

        engine.tick(1, &mut dram, &tables, None);
        let first: Vec<u64> = engine
            .active
            .as_ref()
            .expect("launched")
            .probes
            .iter()
            .map(|p| p.req.batch_group)
            .collect();
        assert_eq!(first, [A; 4], "the first wave holds every A probe");

        let mut order = Vec::new();
        for now in 2..10_000 {
            dram.tick(now);
            engine.tick(now, &mut dram, &tables, None);
            while let Some(r) = engine.pop_out() {
                order.push(r.cp.index);
            }
            if engine.is_idle() {
                break;
            }
        }
        assert_eq!(
            order,
            [0, 2, 4, 6, 1, 3, 5, 7],
            "each group in admission order"
        );
        assert_eq!(engine.stats().batches, 2);
        assert_eq!(engine.stats().probes, 8);
    }
}
