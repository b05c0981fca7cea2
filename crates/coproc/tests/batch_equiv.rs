//! Property tests for the batched level-wise traversal engine (DESIGN.md
//! §16): a wave of tagged read-set probes through the batch engine returns
//! exactly the results — hit/miss, record address, CC verdict — that the
//! same probes return one-by-one through the per-probe pipelines.
//!
//! The probes of one wave target *distinct* keys, matching how the
//! softcore groups a transaction's read set (one probe per record): CC
//! side effects on different records commute, so result equivalence is
//! well-defined even though the batch engine resolves probes in a
//! different cycle order than the pipelines. Each probe carries one of
//! three group tags, so groups interleave in the engine's pending queue
//! the way a worker's own probes interleave with a peer's remote ones.

use bionicdb_coproc::layout::TableState;
use bionicdb_coproc::{CoprocConfig, IndexCoproc};
use bionicdb_fpga::{Dram, FpgaConfig, Region};
use bionicdb_softcore::catalogue::{TableId, TableMeta};
use bionicdb_softcore::request::{BatchMode, CpSlot, DbOp, DbRequest, PartitionId};
use bionicdb_softcore::{DbResult, IndexKey};
use proptest::prelude::*;

const PAYLOAD: u32 = 32;
const GROUP: u64 = (1 << 63) | 7;
/// The group tags a generated wave draws from.
const GROUPS: [u64; 3] = [GROUP, (1 << 63) | 8, (1 << 63) | 9];

struct Rig {
    dram: Dram,
    coproc: IndexCoproc,
    tables: Vec<TableState>,
    now: u64,
    next_block: u64,
}

impl Rig {
    fn new(batch_mode: BatchMode, batch_width: usize) -> Rig {
        let fcfg = FpgaConfig::default();
        let mut dram = Dram::new(&fcfg, 48 << 20);
        let mut cfg = CoprocConfig::from_fpga(&fcfg);
        cfg.batch_mode = batch_mode;
        cfg.batch_width = batch_width;
        let mut coproc = IndexCoproc::new(&cfg, &mut dram);
        coproc.set_max_inflight(64);
        let mut region = Region::new(8 << 20, 36 << 20);
        let hash_dir = region.alloc(8 * 64, 64);
        let skip_dir = region.alloc(8 * 20, 64);
        let tables = vec![
            TableState {
                meta: TableMeta::hash("h", 8, PAYLOAD, 64),
                dir_addr: hash_dir,
                heap: region.carve(12 << 20, 64),
                max_level: 20,
            },
            TableState {
                meta: TableMeta::skiplist("s", 8, PAYLOAD),
                dir_addr: skip_dir,
                heap: region.carve(12 << 20, 64),
                max_level: 20,
            },
        ];
        Rig {
            dram,
            coproc,
            tables,
            now: 0,
            next_block: 4096,
        }
    }

    fn req(&mut self, op: DbOp, table: u8, key: u64, ts: u64, cp: u16, group: u64) -> DbRequest {
        let key_addr = self.next_block;
        let payload_addr = key_addr + 64;
        let out_addr = key_addr + 128;
        self.next_block += 4096;
        assert!(self.next_block < (8 << 20), "rig block area exhausted");
        self.dram
            .host_write(key_addr, IndexKey::from_u64(key).as_bytes());
        let mut p = vec![0xabu8; PAYLOAD as usize];
        p[..8].copy_from_slice(&key.to_le_bytes());
        self.dram.host_write(payload_addr, &p);
        DbRequest {
            op,
            table: TableId(table),
            key_addr,
            payload_addr,
            scan_count: 0,
            out_addr,
            ts,
            cp: CpSlot {
                worker: PartitionId(0),
                index: cp,
            },
            home: PartitionId(0),
            batch_group: group,
        }
    }

    fn run_until_idle(&mut self) -> Vec<(u16, DbResult)> {
        let mut got = Vec::new();
        let mut budget = 4_000_000u64;
        loop {
            while let Some(r) = self.coproc.out.pop() {
                got.push((r.cp.index, DbResult::decode(r.value)));
            }
            if self.coproc.is_idle() {
                break;
            }
            self.now += 1;
            budget -= 1;
            assert!(budget > 0, "coprocessor did not go idle");
            self.dram.tick(self.now);
            self.coproc.tick(self.now, &mut self.dram, &mut self.tables);
        }
        got
    }

    /// Insert `keys` through the pipelines (unbatched) and commit a subset,
    /// leaving the rest dirty so probes exercise the CC reject path too.
    fn build(&mut self, table: u8, keys: &[u64], commit_mask: &[bool]) {
        for (i, &k) in keys.iter().enumerate() {
            let r = self.req(DbOp::Insert, table, k, 10, i as u16, 0);
            self.coproc.input.push(r).expect("input space");
            let got = self.run_until_idle();
            let addr = got[0].1.value().expect("insert ok");
            if commit_mask[i] {
                // Clear the dirty flag the way a committing softcore would.
                let hdr_off = if table == 0 { 8 } else { 0 };
                self.dram.host_write_u64(addr + hdr_off + 16, 0);
            }
        }
    }
}

/// One probe of the generated wave: an op on a key, hit or miss, in one
/// of the [`GROUPS`].
#[derive(Debug, Clone, Copy)]
struct ProbeOp {
    op: DbOp,
    key: u64,
    group: u64,
}

fn arb_probe_op() -> impl Strategy<Value = (u8, u64, usize)> {
    // (op selector, key, group index). Keys 0..24 may exist; 24..48
    // always miss.
    (0u8..3, 0u64..48, 0..GROUPS.len())
}

/// Run the same build + probe wave through a batched and an unbatched rig
/// and require identical per-cp results.
fn check_equivalence(
    table: u8,
    build_keys: &[u64],
    commit_mask: &[bool],
    probes: &[ProbeOp],
    mode: BatchMode,
    width: usize,
) {
    let mut batched = Rig::new(mode, width);
    let mut plain = Rig::new(BatchMode::Off, width);
    batched.build(table, build_keys, commit_mask);
    plain.build(table, build_keys, commit_mask);

    // Same probe wave; the plain rig gets no group tag. Distinct keys and
    // ts strictly above the build ts keep CC effects commutative.
    let mut ts = 100;
    for (i, p) in probes.iter().enumerate() {
        ts += 10;
        let rb = batched.req(p.op, table, p.key, ts, i as u16, p.group);
        let rp = plain.req(p.op, table, p.key, ts, i as u16, 0);
        batched.coproc.input.push(rb).expect("input space");
        plain.coproc.input.push(rp).expect("input space");
    }
    let mut got_b = batched.run_until_idle();
    let mut got_p = plain.run_until_idle();
    // Pipelines complete out of order; compare by cp slot.
    got_b.sort_by_key(|(cp, _)| *cp);
    got_p.sort_by_key(|(cp, _)| *cp);
    prop_assert_eq!(
        &got_b,
        &got_p,
        "batched (mode {:?}, width {}) vs per-probe results differ",
        mode,
        width
    );
    // The batched run really went through the engine (unless there was
    // nothing to divert).
    if !probes.is_empty() && mode != BatchMode::Off {
        let (h, s) = batched.coproc.batch_stats().expect("engines constructed");
        let engine = if table == 0 { h } else { s };
        prop_assert_eq!(engine.probes, probes.len() as u64);
        // A wave of at most `2 × width` probes is pending whole before the
        // first launch, and each launch takes up to `width` probes of the
        // head group from anywhere in the queue: every group needs
        // exactly `ceil(n_g / width)` batches, however the groups
        // interleave.
        if probes.len() <= 2 * width {
            let full_waves: usize = GROUPS
                .iter()
                .map(|g| probes.iter().filter(|p| p.group == *g).count())
                .map(|n| n.div_ceil(width))
                .sum();
            prop_assert_eq!(engine.batches, full_waves as u64);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Batched ≡ per-probe for both index kinds, arbitrary hit/miss mixes,
    /// dirty tuples, and widths (including degenerate width 1).
    #[test]
    fn batched_probe_wave_equals_per_probe_results(
        table in 0u8..2,
        raw_build in proptest::collection::vec(0u64..24, 1..16),
        commits in proptest::collection::vec(any::<bool>(), 16),
        raw_probes in proptest::collection::vec(arb_probe_op(), 1..24),
        width in prop_oneof![Just(1usize), Just(2), Just(4), Just(8), Just(16)],
    ) {
        // Distinct build keys (the pipelines allow blind duplicate inserts,
        // which would make "the" record address ambiguous).
        let mut build_keys = raw_build;
        build_keys.sort_unstable();
        build_keys.dedup();
        let commit_mask: Vec<bool> = commits[..build_keys.len()].to_vec();
        // Distinct probe keys: CC side effects on distinct records commute.
        let mut seen = std::collections::HashSet::new();
        let probes: Vec<ProbeOp> = raw_probes
            .into_iter()
            .filter(|(_, k, _)| seen.insert(*k))
            .map(|(sel, key, g)| ProbeOp {
                op: match sel {
                    0 => DbOp::Search,
                    1 => DbOp::Update,
                    _ => DbOp::Remove,
                },
                key,
                group: GROUPS[g],
            })
            .collect();
        check_equivalence(
            table,
            &build_keys,
            &commit_mask,
            &probes,
            BatchMode::CrossTxn,
            width,
        );
    }
}

/// Mode off is inert even for externally tagged requests: they fall
/// through to the per-probe pipelines and no batch structures exist.
#[test]
fn mode_off_ignores_batch_tags() {
    let mut rig = Rig::new(BatchMode::Off, 8);
    rig.build(0, &[1, 2, 3], &[true, true, true]);
    assert!(rig.coproc.batch_stats().is_none(), "no engines when off");
    assert!(
        !rig.coproc
            .stage_report()
            .iter()
            .any(|(name, _)| name.starts_with("batch.")),
        "no batch stage rows when off"
    );
    let r = rig.req(DbOp::Search, 0, 2, 100, 0, GROUP);
    rig.coproc.input.push(r).expect("space");
    let got = rig.run_until_idle();
    assert_eq!(got.len(), 1);
    assert!(got[0].1.is_ok(), "tagged probe served by the pipeline");
}

/// A trickle narrower than the batch width still completes (age flush).
#[test]
fn undersized_batch_flushes_by_age() {
    let mut rig = Rig::new(BatchMode::CrossTxn, 16);
    rig.build(1, &[5, 9], &[true, true]);
    let r = rig.req(DbOp::Search, 1, 5, 100, 0, GROUP);
    rig.coproc.input.push(r).expect("space");
    let got = rig.run_until_idle();
    assert_eq!(got.len(), 1);
    assert!(got[0].1.is_ok());
    let (_, s) = rig.coproc.batch_stats().expect("engines on");
    assert_eq!(s.probes, 1);
    assert!(s.flush_launches >= 1, "lone probe launched by age flush");
}
