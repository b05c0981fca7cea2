//! The hardware skiplist pipeline (paper §4.4.2, Figs. 5b and 7).
//!
//! A skiplist is a collection of linked lists at multiple levels; BionicDB
//! maps *exclusive level ranges* onto pipeline stages: the top stage chases
//! pointers at the highest levels and hands the instruction down as it goes
//! out of its range, immediately moving on to the next instruction. The
//! bottom-level stage exclusively owns level 0, which serializes structural
//! changes — this is what makes scans **stall-free**: every tower inserted
//! before a scan is visible on the bottom link by the time the scan reaches
//! it, and towers inserted after the scan started are filtered out by the
//! timestamp visibility check.
//!
//! * Traversal stages (levels ≥ 1): horizontal pointer chasing, drop a
//!   level when the next tower goes out of range.
//! * Bottom stage (level 0): finishes point operations (visibility check),
//!   installs new towers on the recorded insert path, and hands scans to a
//!   dedicated **scanner** module. Multiple scanners can be configured to
//!   spread heavy scan loads (paper §4.4.2; §5.5 shows the single-scanner
//!   bottleneck of Fig. 11c).
//!
//! Insert–insert hazards (paper Fig. 7): every in-flight INSERT locks the
//! *entry point* of its insert path — the predecessor tower at the top
//! level it will modify — in a BRAM lock table keyed by
//! `(table, tower, level)`. Insert traversals check the lock table before
//! switching to the next tower or a lower level and stall on a locked
//! entry; the lock is released by the bottom stage when the insert
//! completes. Searches and scans do not take or check locks (stall-free).
//!
//! Independent of the lock table, the bottom stage *re-validates* the
//! recorded insert path while linking (it is the single serialization
//! point, so the re-walk is race-free). With hazard prevention enabled the
//! re-walk never finds a stale pointer; with it disabled, the re-walk keeps
//! the structure consistent but the paper's fig. 7 anomaly (towers lost
//! from upper levels) is observable through the recorded path statistics.

use bionicdb_fpga::stats::{StageStats, WaveState};
use bionicdb_fpga::{Dram, Fifo, LockTable};
use bionicdb_softcore::request::{DbOp, DbRequest, DbResponse};
use bionicdb_softcore::{DbResult, DbStatus, IndexKey};

use crate::cc;
use crate::layout::{self, RecordHeader, TableState, HEADER_SIZE, TOWER_NEXTS};
use crate::mem::AsyncReader;
use crate::sdbm::sdbm_hash;

/// Upper bound on tower height supported by the datapath.
pub const MAX_SKIP_LEVEL: usize = 32;

/// Deterministic tower height for a key: geometric(1/2) from a mixed hash,
/// capped at `max_level`. Determinism keeps simulations reproducible.
pub fn tower_height(key: &IndexKey, max_level: usize) -> usize {
    // splitmix64 finalizer over the sdbm hash to decorrelate low bits.
    let mut z = sdbm_hash(key.as_bytes()).wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    ((z.trailing_ones() as usize) + 1).min(max_level)
}

/// An instruction travelling down the skiplist pipeline.
#[derive(Debug, Clone, Copy)]
struct SkipItem {
    req: DbRequest,
    key: IndexKey,
    /// Level currently being traversed.
    level: usize,
    /// Current tower (0 = the head sentinel).
    cur: u64,
    /// Insert: target tower height.
    height: usize,
    /// Insert: predecessor tower per level (0 = head).
    path: [u64; MAX_SKIP_LEVEL],
    /// Insert: the successor observed at each level during traversal.
    path_next: [u64; MAX_SKIP_LEVEL],
    /// Insert: the lock held, if any.
    locked: Option<(u64, u8)>,
}

impl SkipItem {
    fn new(req: DbRequest, key: IndexKey, top_level: usize, height: usize) -> Self {
        SkipItem {
            req,
            key,
            level: top_level,
            cur: 0,
            height,
            path: [0; MAX_SKIP_LEVEL],
            path_next: [0; MAX_SKIP_LEVEL],
            locked: None,
        }
    }
}

/// Address of `tower.next[level]`, with the head sentinel mapped onto the
/// directory array. Shared with the batch engine, whose level-wise walk
/// reads the same pointer cells.
pub(crate) fn next_ptr_addr(table: &TableState, tower: u64, level: usize) -> u64 {
    if tower == 0 {
        table.head_next_addr(level)
    } else {
        tower + TOWER_NEXTS + 8 * level as u64
    }
}

#[derive(Debug)]
enum StepState {
    /// Issue the read of `cur.next[level]`.
    NeedNextPtr,
    /// Waiting for the next pointer.
    WaitNextPtr,
    /// Need to issue the key read of tower `next`.
    NeedKey { next: u64 },
    /// Waiting for tower `next`'s header.
    WaitKey { next: u64 },
    /// Stalled on a lock-table entry; re-check each cycle, then continue
    /// with the recorded continuation.
    Blocked { resume: Resume },
}

#[derive(Debug, Clone, Copy)]
enum Resume {
    /// Step horizontally onto `next`.
    Step { next: u64 },
    /// Drop to the next lower level (after recording path info).
    Drop { next: u64 },
}

/// One traversal stage covering levels `hi ..= lo` (all ≥ 1).
#[derive(Debug)]
struct LevelStage {
    hi: usize,
    lo: usize,
    input: Fifo<SkipItem>,
    reader: AsyncReader<()>,
    op: Option<(SkipItem, StepState)>,
    /// Completed item waiting for downstream FIFO space.
    forwarding: Option<SkipItem>,
    stats: StageStats,
}

/// Statistics for the skiplist pipeline.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SkipStats {
    /// Operations completed (all kinds).
    pub completed: u64,
    /// Tuples emitted by scanners.
    pub scanned_tuples: u64,
    /// Cycles any stage spent blocked on the insert lock table.
    pub lock_stalls: u64,
    /// Cycles scans waited for a free scanner (the Fig. 11c bottleneck).
    pub scanner_waits: u64,
    /// Link-time path re-walk steps (0 when hazard prevention is on).
    pub stale_path_fixups: u64,
}

// ---------------------------------------------------------------------------
// Bottom stage
// ---------------------------------------------------------------------------

#[derive(Debug)]
enum BotState {
    NeedNextPtr,
    WaitNextPtr,
    NeedKey {
        next: u64,
    },
    WaitKey {
        next: u64,
    },
    /// Insert: fetch the payload bytes from the transaction block.
    NeedPayload,
    WaitPayload,
    /// Insert: resolve the true (pred, next) for `level` starting at the
    /// recorded path entry (re-validation walk).
    ResolveLevel {
        level: usize,
    },
    WaitResolvePtr {
        level: usize,
    },
    NeedResolveKey {
        level: usize,
        cand: u64,
    },
    WaitResolveKey {
        level: usize,
        cand: u64,
    },
    /// Insert: all levels resolved; write the tower image (retrying on a
    /// busy controller).
    Install,
    /// Insert: splice the predecessors bottom-up, one level per cycle.
    LinkLevel {
        level: usize,
        addr: u64,
    },
    /// Insert: all writes issued; release the lock and write back.
    InsertDone {
        addr: u64,
    },
    /// Scan: waiting for a free scanner.
    ScanHandoff {
        start: u64,
    },
    /// Waiting for space in the output queue.
    Writeback {
        result: DbResult,
    },
}

#[derive(Debug)]
struct BottomOp {
    item: SkipItem,
    state: BotState,
    payload: Vec<u8>,
    /// Resolved successor per level (inserts).
    resolved_next: [u64; MAX_SKIP_LEVEL],
}

#[derive(Debug)]
struct BottomStage {
    input: Fifo<SkipItem>,
    reader: AsyncReader<()>,
    op: Option<BottomOp>,
    stats: StageStats,
}

// ---------------------------------------------------------------------------
// Scanner
// ---------------------------------------------------------------------------

#[derive(Debug)]
enum ScanState {
    NeedHdr,
    WaitHdr,
    WaitPayload { next: u64 },
    Writeback,
}

#[derive(Debug)]
struct ScanOp {
    req: DbRequest,
    tower: u64,
    collected: u32,
    state: ScanState,
}

#[derive(Debug)]
struct Scanner {
    reader: AsyncReader<()>,
    op: Option<ScanOp>,
    stats: StageStats,
}

// ---------------------------------------------------------------------------
// The pipeline
// ---------------------------------------------------------------------------

/// The skiplist pipeline of one index coprocessor.
#[derive(Debug)]
pub struct SkipPipeline {
    /// Admitted requests waiting for KeyFetch.
    pub input: Fifo<DbRequest>,
    keyfetch: AsyncReader<DbRequest>,
    stages: Vec<LevelStage>,
    bottom: BottomStage,
    scanners: Vec<Scanner>,
    lock: LockTable<(u8, u64, u8)>,
    hazard_prevention: bool,
    max_level: usize,
    /// Completed responses, drained by the coprocessor facade.
    pub out: Fifo<DbResponse>,
    stats: SkipStats,
}

/// Compute the level range `(hi, lo)` of each traversal stage: levels
/// `1 ..= max_level-1` split across `n_stages - 1` stages (the bottom stage
/// owns level 0 exclusively), with upper stages taking the larger shares —
/// "if skiplist towers are substantially sparser at upper levels, upper
/// pipeline stages could be assigned larger ranges" (paper §4.4.2).
fn stage_ranges(max_level: usize, n_stages: usize) -> Vec<(usize, usize)> {
    let traversal_stages = n_stages.saturating_sub(1).max(1);
    let levels = max_level - 1; // levels 1..=max_level-1
    let base = levels / traversal_stages;
    let extra = levels % traversal_stages;
    let mut ranges = Vec::with_capacity(traversal_stages);
    let mut hi = max_level - 1;
    for i in 0..traversal_stages {
        let span = base + usize::from(i < extra);
        if span == 0 {
            continue;
        }
        let lo = hi + 1 - span;
        ranges.push((hi, lo));
        if lo == 1 {
            break;
        }
        hi = lo - 1;
    }
    ranges
}

impl SkipPipeline {
    /// Build the pipeline with `n_stages` total stages (including the
    /// bottom-level stage) and `n_scanners` scanner modules.
    pub fn new(
        dram: &mut Dram,
        fifo_depth: usize,
        slots: usize,
        n_stages: usize,
        n_scanners: usize,
        max_level: usize,
        hazard_prevention: bool,
    ) -> Self {
        assert!((2..=MAX_SKIP_LEVEL).contains(&max_level));
        let ranges = stage_ranges(max_level, n_stages.max(2));
        SkipPipeline {
            input: Fifo::new(fifo_depth.max(32)),
            keyfetch: AsyncReader::new(dram, slots),
            stages: ranges
                .into_iter()
                .map(|(hi, lo)| LevelStage {
                    hi,
                    lo,
                    input: Fifo::new(fifo_depth),
                    reader: AsyncReader::new(dram, 1),
                    op: None,
                    forwarding: None,
                    stats: StageStats::default(),
                })
                .collect(),
            bottom: BottomStage {
                input: Fifo::new(fifo_depth),
                reader: AsyncReader::new(dram, 1),
                op: None,
                stats: StageStats::default(),
            },
            scanners: (0..n_scanners.max(1))
                .map(|_| Scanner {
                    reader: AsyncReader::new(dram, 1),
                    op: None,
                    stats: StageStats::default(),
                })
                .collect(),
            lock: LockTable::new(256),
            hazard_prevention,
            max_level,
            out: Fifo::new(64),
            stats: SkipStats::default(),
        }
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> SkipStats {
        self.stats
    }

    /// True when no operation is anywhere in the pipeline.
    pub fn is_idle(&self) -> bool {
        self.input.is_empty()
            && self.keyfetch.is_idle()
            && self
                .stages
                .iter()
                .all(|s| s.input.is_empty() && s.op.is_none() && s.forwarding.is_none())
            && self.bottom.input.is_empty()
            && self.bottom.op.is_none()
            && self.scanners.iter().all(|s| s.op.is_none())
            && self.out.is_empty()
    }

    /// Fast-forward support: `Some(now + 1)` when any stage could make
    /// progress, attempt a DRAM issue/write, or mutate a statistic on the
    /// next tick; `None` when every occupied stage is purely waiting on a
    /// DRAM response (bounded by the DRAM `next_event` at machine level).
    pub fn next_event(&self, now: u64) -> Option<u64> {
        let stage_busy = |s: &LevelStage| {
            s.forwarding.is_some()
                || match &s.op {
                    // Wait states make progress only when the read is back;
                    // everything else attempts an issue or a lock re-check
                    // (mutating `lock_stalls`) every single cycle.
                    Some((_, StepState::WaitNextPtr | StepState::WaitKey { .. })) => {
                        s.reader.has_ready()
                    }
                    Some(_) => true,
                    None => !s.input.is_empty(),
                }
        };
        let bottom_busy = match &self.bottom.op {
            Some(op) => match op.state {
                BotState::WaitNextPtr
                | BotState::WaitKey { .. }
                | BotState::WaitPayload
                | BotState::WaitResolvePtr { .. }
                | BotState::WaitResolveKey { .. } => self.bottom.reader.has_ready(),
                _ => true,
            },
            None => !self.bottom.input.is_empty(),
        };
        let scanner_busy = |sc: &Scanner| match &sc.op {
            Some(op) => match op.state {
                ScanState::WaitHdr | ScanState::WaitPayload { .. } => sc.reader.has_ready(),
                ScanState::NeedHdr | ScanState::Writeback => true,
            },
            None => false,
        };
        let busy = self.keyfetch.has_ready()
            || (self.keyfetch.can_issue() && !self.input.is_empty())
            || self.stages.iter().any(stage_busy)
            || bottom_busy
            || self.scanners.iter().any(scanner_busy);
        if busy {
            Some(now + 1)
        } else {
            None
        }
    }

    /// Fast-forward support: account for `k` skipped pure-wait cycles. The
    /// per-cycle bookkeeping replicated here is the *idle* counter of every
    /// empty stage (a tick with no op and no input records an idle cycle,
    /// never a stall — stalls mean contention, and a skippable cycle has
    /// none by construction); stages waiting on an in-flight read record
    /// nothing per cycle, and every other configuration reports `now + 1`
    /// from [`Self::next_event`] and is never skipped over.
    pub fn skip(&mut self, k: u64) {
        // An empty span is `Empty` under the unified wave-accounting rule
        // (`StageStats::wave_skip`), the same bucket the batch engine uses.
        for s in &mut self.stages {
            if s.op.is_none() && s.forwarding.is_none() && s.input.is_empty() {
                s.stats.wave_skip(WaveState::Empty, k);
            }
        }
        if self.bottom.op.is_none() && self.bottom.input.is_empty() {
            self.bottom.stats.wave_skip(WaveState::Empty, k);
        }
        for sc in &mut self.scanners {
            if sc.op.is_none() {
                sc.stats.wave_skip(WaveState::Empty, k);
            }
        }
    }

    /// Per-stage utilization counters: one entry per traversal stage
    /// (labelled with its level range), the bottom stage, and each scanner.
    pub fn stage_stats(&self) -> Vec<(String, StageStats)> {
        let mut v = Vec::with_capacity(self.stages.len() + 1 + self.scanners.len());
        for s in &self.stages {
            v.push((format!("skip.levels[{}..={}]", s.lo, s.hi), s.stats));
        }
        v.push(("skip.bottom".to_string(), self.bottom.stats));
        for (i, sc) in self.scanners.iter().enumerate() {
            v.push((format!("skip.scanner[{i}]"), sc.stats));
        }
        v
    }

    /// Advance the pipeline by one cycle.
    pub fn tick(&mut self, now: u64, dram: &mut Dram, tables: &mut [TableState]) {
        self.tick_scanners(now, dram, tables);
        self.tick_bottom(now, dram, tables);
        for i in (0..self.stages.len()).rev() {
            self.tick_stage(i, now, dram, tables);
        }
        self.tick_keyfetch(now, dram, tables);
    }

    fn writeback(
        out: &mut Fifo<DbResponse>,
        stats: &mut SkipStats,
        req: &DbRequest,
        r: DbResult,
    ) -> bool {
        match out.push(DbResponse {
            cp: req.cp,
            value: r.encode(),
        }) {
            Ok(()) => {
                stats.completed += 1;
                true
            }
            Err(_) => false,
        }
    }

    // ---- KeyFetch ----
    fn tick_keyfetch(&mut self, now: u64, dram: &mut Dram, tables: &[TableState]) {
        self.keyfetch.poll(dram);
        if self.stages[0].input.has_space() {
            if let Some((req, data)) = self.keyfetch.pop_ready() {
                let key = IndexKey::from_bytes(&data);
                let height = if req.op == DbOp::Insert {
                    tower_height(&key, self.max_level)
                } else {
                    0
                };
                let item = SkipItem::new(req, key, self.max_level - 1, height);
                self.stages[0].input.push(item).expect("space checked");
            }
        }
        if self.keyfetch.can_issue() {
            if let Some(req) = self.input.peek().copied() {
                let key_len = tables[req.table.0 as usize].meta.key_len as u32;
                if self
                    .keyfetch
                    .issue(now, dram, req.key_addr, key_len, req)
                    .is_ok()
                {
                    self.input.pop();
                }
            }
        }
    }

    /// Is `(table, tower, level)` locked by someone other than `item`?
    fn locked_by_other(&self, item: &SkipItem, tower: u64, level: usize) -> bool {
        if !self.hazard_prevention || item.req.op != DbOp::Insert {
            return false;
        }
        let key = (item.req.table.0, tower, level as u8);
        self.lock.is_locked(&key) && item.locked != Some((tower, level as u8))
    }

    // ---- traversal stages ----
    fn tick_stage(&mut self, idx: usize, now: u64, dram: &mut Dram, tables: &[TableState]) {
        self.stages[idx].reader.poll(dram);

        // Try to push a finished item downstream.
        if let Some(item) = self.stages[idx].forwarding.take() {
            if let Some(item) = self.forward(idx, item) {
                self.stages[idx].forwarding = Some(item);
                return; // still blocked; keep head-of-line stall
            }
        }

        let Some((mut item, state)) = self.stages[idx].op.take() else {
            // Idle: accept a new item. The lock checks (and, when this is
            // the item's top modified level, the acquisition) for a level
            // reached across a stage boundary happen HERE, in the stage
            // that owns the level — acquiring upstream would let the holder
            // get stuck behind a waiter blocked head-of-line in this stage
            // (deadlock). A held lock stalls admission without popping.
            if let Some(peek) = self.stages[idx].input.peek() {
                let level = peek.level.min(self.stages[idx].hi);
                if self.hazard_prevention && peek.req.op == DbOp::Insert {
                    let mut probe = *peek;
                    probe.level = level;
                    if self.locked_by_other(&probe, probe.cur, level) {
                        self.stats.lock_stalls += 1;
                        self.stages[idx].stats.stall();
                        return;
                    }
                    if level + 1 == probe.height && probe.locked.is_none() {
                        let lkey = (probe.req.table.0, probe.cur, level as u8);
                        if !self.lock.try_lock(lkey) {
                            self.stats.lock_stalls += 1;
                            self.stages[idx].stats.stall();
                            return;
                        }
                        let mut item = self.stages[idx].input.pop().expect("peeked");
                        item.level = level;
                        item.locked = Some((item.cur, level as u8));
                        self.stages[idx].op = Some((item, StepState::NeedNextPtr));
                        self.stages[idx].stats.work(1);
                        return;
                    }
                }
                let mut item = self.stages[idx].input.pop().expect("peeked");
                item.level = level;
                self.stages[idx].op = Some((item, StepState::NeedNextPtr));
                self.stages[idx].stats.work(1);
            } else {
                self.stages[idx].stats.idle();
            }
            return;
        };

        let table = &tables[item.req.table.0 as usize];
        let new_state = match state {
            StepState::NeedNextPtr => {
                let addr = next_ptr_addr(table, item.cur, item.level);
                match self.stages[idx].reader.issue(now, dram, addr, 8, ()) {
                    Ok(()) => StepState::WaitNextPtr,
                    Err(()) => StepState::NeedNextPtr,
                }
            }
            StepState::WaitNextPtr => match self.stages[idx].reader.pop_ready() {
                Some((_, data)) => {
                    let next = u64::from_le_bytes(data.as_slice().try_into().expect("8 bytes"));
                    if next == 0 {
                        // +inf: out of range, drop a level.
                        return self.stage_descend(idx, item, 0);
                    }
                    StepState::NeedKey { next }
                }
                None => StepState::WaitNextPtr,
            },
            StepState::NeedKey { next } => {
                match self.stages[idx]
                    .reader
                    .issue(now, dram, next, HEADER_SIZE as u32, ())
                {
                    Ok(()) => StepState::WaitKey { next },
                    Err(()) => StepState::NeedKey { next },
                }
            }
            StepState::WaitKey { next } => match self.stages[idx].reader.pop_ready() {
                Some((_, data)) => {
                    let hdr = RecordHeader::decode(&data);
                    if hdr.key < item.key {
                        // Step horizontally (lock check before switching to
                        // the next tower).
                        if self.locked_by_other(&item, next, item.level) {
                            self.stats.lock_stalls += 1;
                            StepState::Blocked {
                                resume: Resume::Step { next },
                            }
                        } else {
                            item.cur = next;
                            StepState::NeedNextPtr
                        }
                    } else {
                        return self.stage_descend(idx, item, next);
                    }
                }
                None => StepState::WaitKey { next },
            },
            StepState::Blocked { resume } => {
                let (tower, lvl) = match resume {
                    Resume::Step { next } => (next, item.level),
                    Resume::Drop { .. } => (item.cur, item.level),
                };
                if self.locked_by_other(&item, tower, lvl) {
                    self.stats.lock_stalls += 1;
                    StepState::Blocked { resume }
                } else {
                    match resume {
                        Resume::Step { next } => {
                            item.cur = next;
                            StepState::NeedNextPtr
                        }
                        Resume::Drop { next } => {
                            // The blocker installed new towers: redo the
                            // drop (which re-takes the lock checks and, at
                            // the top modified level, the acquisition) and
                            // then re-scan the level for fresh pointers.
                            return self.stage_descend_unlocked(idx, item, next);
                        }
                    }
                }
            }
        };
        self.stages[idx].op = Some((item, new_state));
    }

    /// The next tower at `item.level` is out of range: record insert path
    /// info, then drop a level (possibly forwarding to the next stage).
    fn stage_descend(&mut self, idx: usize, mut item: SkipItem, next: u64) {
        if item.req.op == DbOp::Insert {
            let lvl = item.level;
            if lvl < item.height {
                item.path[lvl] = item.cur;
                item.path_next[lvl] = next;
            }
        }
        self.stage_descend_unlocked(idx, item, next);
    }

    /// Drop `item` one level, staying in this stage or forwarding.
    ///
    /// Lock discipline (paper §4.4.2, Fig. 7b): an INSERT acquires its
    /// entry-point lock `(tower, level)` the moment its traversal *arrives*
    /// at the top level it will modify (level = height − 1), i.e. before
    /// any pointer at that level has been observed — so every follower that
    /// will share the insert path must cross this (tower, level) and block
    /// on the drop/step checks. Acquiring any later (e.g. when leaving the
    /// level) opens a window where a follower slips underneath.
    fn stage_descend_unlocked(&mut self, idx: usize, mut item: SkipItem, _next: u64) {
        debug_assert!(item.level >= 1);
        item.level -= 1;
        let stays = item.level >= self.stages[idx].lo;
        // Lock checks and the entry-point acquisition only for levels this
        // stage owns; a boundary crossing defers them to the downstream
        // stage's admission (see `tick_stage`) so a lock holder can never
        // be queued behind its own waiter.
        if stays && item.req.op == DbOp::Insert && self.hazard_prevention && item.level >= 1 {
            if self.locked_by_other(&item, item.cur, item.level) {
                item.level += 1; // undo; re-check next cycle
                self.stats.lock_stalls += 1;
                self.stages[idx].op = Some((
                    item,
                    StepState::Blocked {
                        resume: Resume::Drop { next: _next },
                    },
                ));
                return;
            }
            // Arriving at the top modified level: take the entry-point lock.
            if item.level + 1 == item.height && item.locked.is_none() {
                let key = (item.req.table.0, item.cur, item.level as u8);
                if !self.lock.try_lock(key) {
                    // Lock table full (never same-key: checked above).
                    item.level += 1;
                    self.stats.lock_stalls += 1;
                    self.stages[idx].op = Some((
                        item,
                        StepState::Blocked {
                            resume: Resume::Drop { next: _next },
                        },
                    ));
                    return;
                }
                item.locked = Some((item.cur, item.level as u8));
            }
        }
        if stays {
            self.stages[idx].op = Some((item, StepState::NeedNextPtr));
        } else if let Some(item) = self.forward(idx, item) {
            self.stages[idx].forwarding = Some(item);
        }
    }

    /// Push a finished item to the next stage / the bottom stage. Returns
    /// the item back when the downstream FIFO is full.
    fn forward(&mut self, idx: usize, item: SkipItem) -> Option<SkipItem> {
        let res = if idx + 1 < self.stages.len() {
            self.stages[idx + 1].input.push(item)
        } else {
            self.bottom.input.push(item)
        };
        res.err()
    }

    // ---- bottom stage ----
    #[allow(clippy::too_many_lines)]
    fn tick_bottom(&mut self, now: u64, dram: &mut Dram, tables: &mut [TableState]) {
        self.bottom.reader.poll(dram);
        let Some(mut op) = self.bottom.op.take() else {
            if let Some(mut item) = self.bottom.input.pop() {
                item.level = 0;
                self.bottom.op = Some(BottomOp {
                    item,
                    state: BotState::NeedNextPtr,
                    payload: Vec::new(),
                    resolved_next: [0; MAX_SKIP_LEVEL],
                });
                self.bottom.stats.work(1);
            } else {
                self.bottom.stats.idle();
            }
            return;
        };

        let table_idx = op.item.req.table.0 as usize;
        op.state = match op.state {
            BotState::NeedNextPtr => {
                let addr = next_ptr_addr(&tables[table_idx], op.item.cur, 0);
                match self.bottom.reader.issue(now, dram, addr, 8, ()) {
                    Ok(()) => BotState::WaitNextPtr,
                    Err(()) => BotState::NeedNextPtr,
                }
            }
            BotState::WaitNextPtr => match self.bottom.reader.pop_ready() {
                Some((_, data)) => {
                    let next = u64::from_le_bytes(data.as_slice().try_into().expect("8 bytes"));
                    if next == 0 {
                        self.bottom_at_position(dram, &mut op, 0, None)
                    } else {
                        BotState::NeedKey { next }
                    }
                }
                None => BotState::WaitNextPtr,
            },
            BotState::NeedKey { next } => {
                match self
                    .bottom
                    .reader
                    .issue(now, dram, next, HEADER_SIZE as u32, ())
                {
                    Ok(()) => BotState::WaitKey { next },
                    Err(()) => BotState::NeedKey { next },
                }
            }
            BotState::WaitKey { next } => match self.bottom.reader.pop_ready() {
                Some((_, data)) => {
                    let hdr = RecordHeader::decode(&data);
                    if hdr.key < op.item.key {
                        if self.locked_by_other(&op.item, next, 0) {
                            // Stall: re-read the tower until the lock clears.
                            self.stats.lock_stalls += 1;
                            BotState::NeedKey { next }
                        } else {
                            op.item.cur = next;
                            BotState::NeedNextPtr
                        }
                    } else {
                        self.bottom_at_position(dram, &mut op, next, Some(hdr))
                    }
                }
                None => BotState::WaitKey { next },
            },
            BotState::NeedPayload => {
                let len = tables[table_idx].meta.payload_len;
                match self
                    .bottom
                    .reader
                    .issue(now, dram, op.item.req.payload_addr, len, ())
                {
                    Ok(()) => BotState::WaitPayload,
                    Err(()) => BotState::NeedPayload,
                }
            }
            BotState::WaitPayload => match self.bottom.reader.pop_ready() {
                Some((_, data)) => {
                    op.payload = data.to_vec();
                    BotState::ResolveLevel { level: 0 }
                }
                None => BotState::WaitPayload,
            },
            BotState::ResolveLevel { level } => {
                if level >= op.item.height {
                    BotState::Install
                } else {
                    let addr = next_ptr_addr(&tables[table_idx], op.item.path[level], level);
                    match self.bottom.reader.issue(now, dram, addr, 8, ()) {
                        Ok(()) => BotState::WaitResolvePtr { level },
                        Err(()) => BotState::ResolveLevel { level },
                    }
                }
            }
            BotState::WaitResolvePtr { level } => match self.bottom.reader.pop_ready() {
                Some((_, data)) => {
                    let cand = u64::from_le_bytes(data.as_slice().try_into().expect("8 bytes"));
                    if cand == 0 || cand == op.item.path_next[level] {
                        // Path still valid (or end of list).
                        op.resolved_next[level] = cand;
                        BotState::ResolveLevel { level: level + 1 }
                    } else {
                        // A concurrent insert extended this level; walk.
                        self.stats.stale_path_fixups += 1;
                        BotState::NeedResolveKey { level, cand }
                    }
                }
                None => BotState::WaitResolvePtr { level },
            },
            BotState::NeedResolveKey { level, cand } => {
                match self
                    .bottom
                    .reader
                    .issue(now, dram, cand, HEADER_SIZE as u32, ())
                {
                    Ok(()) => BotState::WaitResolveKey { level, cand },
                    Err(()) => BotState::NeedResolveKey { level, cand },
                }
            }
            BotState::WaitResolveKey { level, cand } => match self.bottom.reader.pop_ready() {
                Some((_, data)) => {
                    let hdr = RecordHeader::decode(&data);
                    if hdr.key < op.item.key {
                        // Advance the pred and re-read its next pointer.
                        op.item.path[level] = cand;
                        BotState::ResolveLevel { level }
                    } else {
                        op.resolved_next[level] = cand;
                        BotState::ResolveLevel { level: level + 1 }
                    }
                }
                None => BotState::WaitResolveKey { level, cand },
            },
            BotState::Install => {
                // Compose and write the tower image; predecessors are only
                // spliced after the image has issued (a concurrent probe
                // following a spliced pointer must never see an unwritten
                // tower).
                let table = &mut tables[table_idx];
                let h = op.item.height;
                let addr = table.alloc_tower(h);
                let mut image = Vec::with_capacity(table.tower_size(h) as usize);
                let hdr = RecordHeader {
                    write_ts: op.item.req.ts,
                    read_ts: 0,
                    flags: layout::FLAG_DIRTY,
                    key: op.item.key,
                };
                image.extend_from_slice(&hdr.encode());
                image.extend_from_slice(&(h as u64).to_le_bytes());
                for l in 0..h {
                    image.extend_from_slice(&op.resolved_next[l].to_le_bytes());
                }
                image.extend_from_slice(&op.payload);
                if self.bottom.reader.write(now, dram, addr, image) {
                    BotState::LinkLevel { level: 0, addr }
                } else {
                    // Controller busy: retry next cycle. The allocation is
                    // redone then; bump allocation makes the skipped bytes
                    // garbage, exactly like an aborted insert on hardware.
                    BotState::Install
                }
            }
            BotState::LinkLevel { level, addr } => {
                if level >= op.item.height {
                    BotState::InsertDone { addr }
                } else {
                    let table = &tables[table_idx];
                    let pred_slot = next_ptr_addr(table, op.item.path[level], level);
                    if self
                        .bottom
                        .reader
                        .write(now, dram, pred_slot, addr.to_le_bytes().to_vec())
                    {
                        BotState::LinkLevel {
                            level: level + 1,
                            addr,
                        }
                    } else {
                        BotState::LinkLevel { level, addr }
                    }
                }
            }
            BotState::InsertDone { addr } => {
                if Self::writeback(
                    &mut self.out,
                    &mut self.stats,
                    &op.item.req,
                    DbResult::Ok(addr),
                ) {
                    if let Some((tower, lvl)) = op.item.locked.take() {
                        self.lock.unlock(&(op.item.req.table.0, tower, lvl));
                    }
                    self.bottom.op = None;
                    return;
                }
                BotState::InsertDone { addr }
            }
            BotState::ScanHandoff { start } => {
                if let Some(sc) = self.scanners.iter_mut().find(|s| s.op.is_none()) {
                    sc.op = Some(ScanOp {
                        req: op.item.req,
                        tower: start,
                        collected: 0,
                        state: ScanState::NeedHdr,
                    });
                    self.bottom.op = None;
                    return;
                }
                self.stats.scanner_waits += 1;
                BotState::ScanHandoff { start }
            }
            BotState::Writeback { result } => {
                if Self::writeback(&mut self.out, &mut self.stats, &op.item.req, result) {
                    if let Some((tower, lvl)) = op.item.locked.take() {
                        self.lock.unlock(&(op.item.req.table.0, tower, lvl));
                    }
                    self.bottom.op = None;
                    return;
                }
                BotState::Writeback { result }
            }
        };
        self.bottom.op = Some(op);
    }

    /// The bottom traversal reached the final position: `cand` is the first
    /// tower with key ≥ the search key (0 = none). Decide what to do per op.
    /// Point-op visibility checks run as an atomic header read-modify-write
    /// (see [`cc::check_and_apply`]); the pipelined header copy is trusted
    /// only for the immutable key.
    fn bottom_at_position(
        &mut self,
        dram: &mut Dram,
        op: &mut BottomOp,
        cand: u64,
        hdr: Option<RecordHeader>,
    ) -> BotState {
        match op.item.req.op {
            DbOp::Insert => {
                op.item.path[0] = op.item.cur;
                op.item.path_next[0] = cand;
                BotState::NeedPayload
            }
            DbOp::Scan => BotState::ScanHandoff { start: cand },
            DbOp::Search | DbOp::Update | DbOp::Remove => {
                let result = match hdr {
                    Some(h) if h.key == op.item.key => {
                        cc::check_and_apply(dram, cand, op.item.req.op, op.item.req.ts, cand)
                    }
                    _ => DbResult::Err(DbStatus::NotFound),
                };
                BotState::Writeback { result }
            }
        }
    }

    // ---- scanners ----
    fn tick_scanners(&mut self, now: u64, dram: &mut Dram, tables: &[TableState]) {
        for sc in &mut self.scanners {
            sc.reader.poll(dram);
            let Some(mut op) = sc.op.take() else {
                sc.stats.idle();
                continue;
            };
            let table = &tables[op.req.table.0 as usize];
            op.state = match op.state {
                ScanState::NeedHdr => {
                    if op.tower == 0 || op.collected >= op.scan_target() {
                        ScanState::Writeback
                    } else {
                        // Header + height + next[0] in one 80-byte burst.
                        match sc
                            .reader
                            .issue(now, dram, op.tower, (TOWER_NEXTS + 8) as u32, ())
                        {
                            Ok(()) => ScanState::WaitHdr,
                            Err(()) => ScanState::NeedHdr,
                        }
                    }
                }
                ScanState::WaitHdr => match sc.reader.pop_ready() {
                    Some((_, data)) => {
                        let data = data.as_slice();
                        let hdr = RecordHeader::decode(data);
                        let height =
                            u64::from_le_bytes(data[64..72].try_into().expect("height")) as usize;
                        let next0 = u64::from_le_bytes(data[72..80].try_into().expect("next0"));
                        if cc::scan_visible(&hdr, op.req.ts) {
                            // Fetch the payload for the result set.
                            let paddr = op.tower + TableState::tower_payload_off(height);
                            match sc
                                .reader
                                .issue(now, dram, paddr, table.meta.payload_len, ())
                            {
                                Ok(()) => {
                                    // Advance the read timestamp like a read
                                    // (atomic header RMW, same as point ops).
                                    cc::apply_scan_read(dram, op.tower, op.req.ts);
                                    ScanState::WaitPayload { next: next0 }
                                }
                                Err(()) => ScanState::NeedHdr, // retry whole step
                            }
                        } else {
                            op.tower = next0;
                            ScanState::NeedHdr
                        }
                    }
                    None => ScanState::WaitHdr,
                },
                ScanState::WaitPayload { next } => match sc.reader.pop_ready() {
                    Some((_, data)) => {
                        let dst =
                            op.req.out_addr + op.collected as u64 * table.meta.payload_len as u64;
                        sc.reader.write(now, dram, dst, data.to_vec());
                        op.collected += 1;
                        self.stats.scanned_tuples += 1;
                        op.tower = next;
                        ScanState::NeedHdr
                    }
                    None => ScanState::WaitPayload { next },
                },
                ScanState::Writeback => {
                    if Self::writeback(
                        &mut self.out,
                        &mut self.stats,
                        &op.req,
                        DbResult::Ok(op.collected as u64),
                    ) {
                        sc.stats.work(1);
                        continue; // op dropped: scanner free
                    }
                    ScanState::Writeback
                }
            };
            sc.op = Some(op);
        }
    }
}

impl ScanOp {
    fn scan_target(&self) -> u32 {
        self.req.scan_count
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tower_height_is_geometric_and_capped() {
        let mut counts = [0usize; MAX_SKIP_LEVEL + 1];
        for k in 0..100_000u64 {
            let h = tower_height(&IndexKey::from_u64(k), 20);
            assert!((1..=20).contains(&h));
            counts[h] += 1;
        }
        // Roughly half the towers have height 1, a quarter height 2, ...
        assert!(
            (45_000..55_000).contains(&counts[1]),
            "h=1 count {}",
            counts[1]
        );
        assert!(
            (20_000..30_000).contains(&counts[2]),
            "h=2 count {}",
            counts[2]
        );
    }

    #[test]
    fn stage_ranges_cover_levels_exactly_once() {
        for (max_level, stages) in [(20, 8), (20, 4), (16, 8), (4, 2), (32, 12)] {
            let ranges = stage_ranges(max_level, stages);
            let mut covered = vec![false; max_level];
            for (hi, lo) in &ranges {
                assert!(hi >= lo && *lo >= 1, "range ({hi},{lo})");
                for (l, c) in covered.iter_mut().enumerate().take(*hi + 1).skip(*lo) {
                    assert!(!*c, "level {l} covered twice");
                    *c = true;
                }
            }
            assert!(
                covered[1..].iter().all(|&c| c),
                "levels 1..{max_level} covered: {ranges:?}"
            );
            // Upper stages take the larger shares.
            let spans: Vec<usize> = ranges.iter().map(|(h, l)| h - l + 1).collect();
            assert!(spans.windows(2).all(|w| w[0] >= w[1]), "spans {spans:?}");
        }
    }
}
