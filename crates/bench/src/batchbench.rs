//! The batched-traversal sweep harness (DESIGN.md §16), shared by the
//! `batchsweep` study bin and the `goldencheck` gate.
//!
//! The sweep drives the coprocessor directly — one [`IndexCoproc`] over a
//! private [`Dram`], no softcores or NoC — so the measured quantity is
//! purely the probe path: how many read-set probes per simulated cycle the
//! index retires as the batch width grows from 1 (a serial pointer chase
//! per batch) to 32 (a full wave of overlapped level fetches). Everything
//! here is deterministic: keys come from a fixed LCG, the simulation is
//! cycle-stepped, and the JSON rendering carries no wall-clock fields, so
//! `goldencheck` can pin the `--quick` sweep byte-for-byte against a golden.

use bionicdb_coproc::layout::TableState;
use bionicdb_coproc::{BatchStats, CoprocConfig, IndexCoproc};
use bionicdb_fpga::{Dram, FpgaConfig, Region, MLP_BUCKETS};
use bionicdb_softcore::catalogue::{TableId, TableMeta};
use bionicdb_softcore::request::{BatchMode, CpSlot, DbOp, DbRequest, PartitionId};
use bionicdb_softcore::{DbResult, IndexKey, IndexKind};

/// Batch widths swept, × both index kinds.
pub const WIDTHS: [usize; 6] = [1, 2, 4, 8, 16, 32];

/// The group tag every sweep probe carries (top bit set, like the
/// softcore's generated ids).
const GROUP: u64 = (1 << 63) | 1;

/// Payload bytes per record (small: the probe path reads headers, not
/// payloads, so payload size is irrelevant here).
const PAYLOAD: u32 = 64;

/// One sweep point: one index kind at one batch width.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// Index kind probed.
    pub kind: IndexKind,
    /// Batch width configured.
    pub width: usize,
    /// Probes retired in the measured phase.
    pub probes: u64,
    /// Simulated cycles the measured phase took.
    pub cycles: u64,
    /// DRAM reads the batch engine issued.
    pub reads: u64,
    /// Reads saved by per-wave address dedup.
    pub dedup_saved: u64,
    /// Batches launched / wave barriers crossed.
    pub batches: u64,
    /// Peak outstanding reads on the engine's DRAM port.
    pub mlp_peak: u64,
    /// MLP occupancy histogram of the engine's port (buckets 1, 2, 3–4,
    /// 5–8, 9–16, 17–32, 33–64, 65+ outstanding at issue).
    pub mlp_hist: [u64; MLP_BUCKETS],
}

impl SweepPoint {
    /// Probes retired per thousand simulated cycles.
    pub fn probes_per_kcycle(&self) -> f64 {
        self.probes as f64 * 1000.0 / self.cycles as f64
    }

    /// Probes per simulated second at `clock_hz`.
    pub fn probes_per_sec(&self, clock_hz: u64) -> f64 {
        self.probes as f64 * clock_hz as f64 / self.cycles as f64
    }

    /// Stable history/JSON key, e.g. `hash-w8`.
    pub fn key(&self) -> String {
        let kind = match self.kind {
            IndexKind::Hash => "hash",
            IndexKind::Skiplist => "skiplist",
        };
        format!("{kind}-w{}", self.width)
    }
}

struct Rig {
    dram: Dram,
    coproc: IndexCoproc,
    tables: Vec<TableState>,
    now: u64,
    next_block: u64,
}

impl Rig {
    fn new(width: usize) -> Rig {
        let fcfg = FpgaConfig::default();
        let mut dram = Dram::new(&fcfg, 128 << 20);
        dram.set_mlp_tracking(true);
        let mut cfg = CoprocConfig::from_fpga(&fcfg);
        cfg.batch_mode = BatchMode::CrossTxn;
        cfg.batch_width = width;
        let mut coproc = IndexCoproc::new(&cfg, &mut dram);
        // The engine's pending queue (2×width) is the real admission bound;
        // keep the coprocessor's own in-flight cap out of the way.
        coproc.set_max_inflight(256);
        let mut region = Region::new(16 << 20, 104 << 20);
        let hash_dir = region.alloc(8 * 4096, 64);
        let skip_dir = region.alloc(8 * 20, 64);
        let tables = vec![
            TableState {
                meta: TableMeta::hash("h", 8, PAYLOAD, 4096),
                dir_addr: hash_dir,
                heap: region.carve(48 << 20, 64),
                max_level: 20,
            },
            TableState {
                meta: TableMeta::skiplist("s", 8, PAYLOAD),
                dir_addr: skip_dir,
                heap: region.carve(48 << 20, 64),
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
        // Block slots are recycled round-robin: the probe phase only needs
        // the key bytes to survive until the probe's KeyFetch resolves.
        let key_addr = self.next_block;
        self.next_block += 512;
        if self.next_block >= (16 << 20) {
            self.next_block = 4096;
        }
        self.dram
            .host_write(key_addr, IndexKey::from_u64(key).as_bytes());
        DbRequest {
            op,
            table: TableId(table),
            key_addr,
            payload_addr: key_addr + 64,
            scan_count: 0,
            out_addr: key_addr + 128,
            ts,
            cp: CpSlot {
                worker: PartitionId(0),
                index: cp,
            },
            home: PartitionId(0),
            batch_group: group,
        }
    }

    fn tick(&mut self) {
        self.now += 1;
        self.dram.tick(self.now);
        self.coproc.tick(self.now, &mut self.dram, &mut self.tables);
    }

    /// Load `n` committed records with keys `0..n` through the pipelines.
    fn load(&mut self, table: u8, n: u64) {
        let mut done = 0u64;
        let mut next = 0u64;
        let mut budget: u64 = 500_000_000;
        while done < n {
            while next < n && self.coproc.input.has_space() {
                let r = self.req(DbOp::Insert, table, next, 10, (next % 60) as u16, 0);
                self.coproc.input.push(r).expect("space checked");
                next += 1;
            }
            self.tick();
            budget -= 1;
            assert!(budget > 0, "load did not finish");
            while let Some(resp) = self.coproc.out.pop() {
                let addr = DbResult::decode(resp.value).value().expect("insert ok");
                // Commit immediately, the way the build phase of every
                // index bench does.
                let hdr_off = if table == 0 { 8 } else { 0 };
                self.dram.host_write_u64(addr + hdr_off + 16, 0);
                done += 1;
            }
        }
        while !self.coproc.is_idle() {
            self.tick();
        }
    }
}

/// LCG over the key space: deterministic, cheap, and scattered enough that
/// consecutive probes land in unrelated buckets/towers.
fn lcg_next(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

/// Run one sweep point: load the table, then stream `probes` tagged
/// searches through the batch engine and measure cycles to drain.
pub fn run_point(kind: IndexKind, width: usize, records: u64, probes: u64) -> SweepPoint {
    let table: u8 = match kind {
        IndexKind::Hash => 0,
        IndexKind::Skiplist => 1,
    };
    let mut rig = Rig::new(width);
    rig.load(table, records);

    // Snapshot DRAM port stats after the load so the measured MLP reflects
    // the probe phase only.
    rig.dram.reset_stats();
    let start = rig.now;
    let mut seed = 0x5eed_0000 + width as u64;
    let mut submitted = 0u64;
    let mut completed = 0u64;
    let mut budget: u64 = 2_000_000_000;
    while completed < probes {
        while submitted < probes && rig.coproc.input.has_space() {
            let key = lcg_next(&mut seed) % records;
            let ts = 1_000 + submitted;
            let r = rig.req(DbOp::Search, table, key, ts, (submitted % 60) as u16, GROUP);
            rig.coproc.input.push(r).expect("space checked");
            submitted += 1;
        }
        rig.tick();
        budget -= 1;
        assert!(budget > 0, "probe phase did not finish");
        while let Some(resp) = rig.coproc.out.pop() {
            assert!(
                DbResult::decode(resp.value).is_ok(),
                "every probe key exists and is committed"
            );
            completed += 1;
        }
    }
    let cycles = rig.now - start;

    let (h, s) = rig.coproc.batch_stats().expect("batching on");
    let bs: BatchStats = match kind {
        IndexKind::Hash => h,
        IndexKind::Skiplist => s,
    };
    assert_eq!(bs.probes, probes, "every probe went through the engine");
    // The engine's port is the busiest reader in the probe phase (the
    // pipelines only served the load); report its MLP.
    let port = rig
        .dram
        .port_stats()
        .iter()
        .max_by_key(|p| p.mlp_peak)
        .copied()
        .expect("ports registered");
    SweepPoint {
        kind,
        width,
        probes,
        cycles,
        reads: bs.reads,
        dedup_saved: bs.dedup_saved,
        batches: bs.batches,
        mlp_peak: port.mlp_peak,
        mlp_hist: port.mlp_hist,
    }
}

/// Run the full sweep: both index kinds × [`WIDTHS`].
pub fn sweep(quick: bool) -> Vec<SweepPoint> {
    let (records, probes) = if quick {
        (2_048, 1_024)
    } else {
        (8_192, 8_192)
    };
    let mut points = Vec::new();
    for kind in [IndexKind::Hash, IndexKind::Skiplist] {
        for width in WIDTHS {
            points.push(run_point(kind, width, records, probes));
        }
    }
    points
}

/// Render the sweep as deterministic JSON (no wall-clock fields): the
/// `BENCH_batch.json` artifact and the batch golden body.
pub fn to_json(points: &[SweepPoint], quick: bool) -> String {
    use std::fmt::Write as _;
    let mut o = String::with_capacity(4096);
    let _ = writeln!(o, "{{\n  \"bin\": \"batchsweep\",\n  \"quick\": {quick},");
    for p in points {
        let _ = writeln!(
            o,
            "  \"{}\": {{ \"width\": {}, \"probes\": {}, \"cycles\": {}, \
             \"probes_per_kcycle\": {:.3}, \"reads\": {}, \"dedup_saved\": {}, \
             \"batches\": {}, \"mlp_peak\": {}, \"mlp_hist\": [{}] }},",
            p.key(),
            p.width,
            p.probes,
            p.cycles,
            p.probes_per_kcycle(),
            p.reads,
            p.dedup_saved,
            p.batches,
            p.mlp_peak,
            p.mlp_hist
                .iter()
                .map(|c| c.to_string())
                .collect::<Vec<_>>()
                .join(","),
        );
    }
    o.push_str("  \"widths\": [1,2,4,8,16,32]\n}\n");
    o
}

/// Speedup of the best width ≥ `min_width` over width 1, per kind.
/// Returns `(kind, best_width, speedup)` for each kind present.
pub fn speedups(points: &[SweepPoint], min_width: usize) -> Vec<(IndexKind, usize, f64)> {
    [IndexKind::Hash, IndexKind::Skiplist]
        .into_iter()
        .filter_map(|kind| {
            let base = points
                .iter()
                .find(|p| p.kind == kind && p.width == 1)?
                .probes_per_kcycle();
            points
                .iter()
                .filter(|p| p.kind == kind && p.width >= min_width)
                .map(|p| (kind, p.width, p.probes_per_kcycle() / base))
                .max_by(|a, b| a.2.total_cmp(&b.2))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_point_is_deterministic_and_batched() {
        let a = run_point(IndexKind::Hash, 4, 512, 128);
        let b = run_point(IndexKind::Hash, 4, 512, 128);
        assert_eq!(a, b, "same point twice is byte-identical");
        assert_eq!(a.probes, 128);
        assert!(a.batches >= 128 / 4, "probes went through batches");
        assert!(a.mlp_peak >= 2, "batched walk overlaps reads");
    }

    #[test]
    fn json_rendering_is_stable() {
        let p = run_point(IndexKind::Skiplist, 2, 256, 64);
        let j = to_json(std::slice::from_ref(&p), true);
        assert!(j.contains("\"skiplist-w2\""));
        assert_eq!(j, to_json(&[p], true));
    }
}
