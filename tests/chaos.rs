//! Chaos integration tests: crash-at-a-random-cycle recovery, lossy-NoC
//! no-wedge runs, and byte-level robustness of the durable formats.
//!
//! The heavy lifting (clean-twin oracle, crash hook, recovery assertions)
//! lives in `bionicdb_bench::chaos`; these tests drive it across random
//! crash points and seeds. Case counts are small because each case builds
//! four machines and runs the workload twice — the fixed-matrix release
//! sweep in `scripts/check.sh` covers the broad grid.

use bionicdb::recovery::{Checkpoint, CommandLog};
use bionicdb::{BionicConfig, SystemBuilder, TableMeta};
use bionicdb_bench::chaos::{run_crash, run_noc_drop, ChaosWorkload};
use proptest::prelude::*;
use std::sync::OnceLock;

// ---------------------------------------------------------------------------
// Crash at a random cycle → recover → committed-prefix equality. One
// property per workload so a failure names its workload directly.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn ycsb_crash_recovers_committed_prefix(
        frac in 1u64..1000,
        torn_sel in 0u64..2,
        seed in 0u64..1 << 32,
    ) {
        run_crash(ChaosWorkload::Ycsb, frac, torn_sel == 1, seed);
    }

    #[test]
    fn tpcc_crash_recovers_committed_prefix(
        frac in 1u64..1000,
        torn_sel in 0u64..2,
        seed in 0u64..1 << 32,
    ) {
        run_crash(ChaosWorkload::Tpcc, frac, torn_sel == 1, seed);
    }

    #[test]
    fn multisite_crash_recovers_committed_prefix(
        frac in 1u64..1000,
        torn_sel in 0u64..2,
        seed in 0u64..1 << 32,
    ) {
        run_crash(ChaosWorkload::Multisite, frac, torn_sel == 1, seed);
    }
}

// ---------------------------------------------------------------------------
// Message loss never wedges the machine or corrupts durable state.
// ---------------------------------------------------------------------------

#[test]
fn message_loss_never_wedges_any_workload() {
    for w in [
        ChaosWorkload::Ycsb,
        ChaosWorkload::Tpcc,
        ChaosWorkload::Multisite,
    ] {
        let r = run_noc_drop(w, &[0, 2, 5], 17);
        assert!(r.dropped >= 1, "{w:?}: plan fired");
    }
}

// ---------------------------------------------------------------------------
// Durable-format robustness: arbitrary single-byte corruption and
// truncation of serialized logs/checkpoints either decode to exactly the
// intact prefix or return a typed error. Decoding must never panic.
// ---------------------------------------------------------------------------

/// One committed run's durable bytes, built once and shared by all cases.
fn durable_fixture() -> &'static (Vec<u8>, Vec<u8>, usize) {
    static FIXTURE: OnceLock<(Vec<u8>, Vec<u8>, usize)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        const ADD: &str = r#"
proc add
logic:
    update 0, 0, c0
commit:
    ret g0, c0
    cmp g0, 0
    blt abort
    load g1, [blk+8]
    load g2, [g0+72]
    add g2, g1
    store g2, [g0+72]
    getts g3
    store g3, [g0+8]
    mov g4, 0
    store g4, [g0+24]
    commit
abort:
    abort
"#;
        let mut b = SystemBuilder::new(BionicConfig::small(2));
        let t = b.table(TableMeta::hash("counters", 8, 8, 1 << 8));
        let p = b.proc(bionicdb::asm::assemble(ADD).unwrap());
        let mut db = b.build();
        for w in 0..2 {
            for k in 0..4u64 {
                db.loader(w)
                    .insert(t, &k.to_le_bytes(), &0u64.to_le_bytes());
            }
        }
        let mut log = CommandLog::new();
        for i in 0..8u64 {
            let w = (i % 2) as usize;
            let blk = db.alloc_block(w, 128);
            db.init_block(blk, p);
            db.write_block_u64(blk, 0, i % 4);
            db.write_block_u64(blk, 8, i + 1);
            db.submit(w, blk);
            db.run_to_quiescence_limit(1 << 24);
            log.capture(&db, w, blk);
        }
        assert_eq!(log.len(), 8);
        (log.to_bytes(), Checkpoint::dump(&db).to_bytes(), log.len())
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn corrupted_log_bytes_never_panic(offset in 0u64..1 << 16, xor in 1u8..=255) {
        let (log_bytes, _, records) = durable_fixture();
        let mut bad = log_bytes.clone();
        let i = (offset % bad.len() as u64) as usize;
        bad[i] ^= xor;
        // Strict decode: intact bytes or a typed error, never a panic.
        match CommandLog::from_bytes(&bad) {
            Ok(log) => {
                // The flip landed somewhere no integrity check covers
                // (impossible for this format: magic, counts, frames and
                // bodies are all covered) — decoding "success" on damaged
                // bytes would be silent corruption.
                prop_assert_eq!(log.len(), *records);
                prop_assert!(false, "single-byte corruption went undetected at {}", i);
            }
            Err(e) => {
                let (prefix, _) = CommandLog::from_bytes_prefix(&bad);
                prop_assert!(prefix.len() <= *records);
                prop_assert_eq!(prefix.len(), e.valid_prefix());
            }
        }
    }

    #[test]
    fn truncated_log_bytes_decode_to_a_prefix(cut in 1u64..1 << 16) {
        let (log_bytes, _, records) = durable_fixture();
        let keep = (cut % log_bytes.len() as u64) as usize;
        let torn = &log_bytes[..keep];
        let (prefix, err) = CommandLog::from_bytes_prefix(torn);
        prop_assert!(prefix.len() <= *records);
        prop_assert!(err.is_some(), "a shortened image always reports damage");
        // Whatever survived must be byte-exact against the original.
        let whole = CommandLog::from_bytes(log_bytes).unwrap();
        prop_assert_eq!(prefix.records(), &whole.records()[..prefix.len()]);
    }

    #[test]
    fn corrupted_checkpoint_bytes_never_panic(offset in 0u64..1 << 20, xor in 1u8..=255) {
        let (_, ckpt_bytes, _) = durable_fixture();
        let mut bad = ckpt_bytes.clone();
        let i = (offset % bad.len() as u64) as usize;
        bad[i] ^= xor;
        prop_assert!(
            Checkpoint::from_bytes(&bad).is_err(),
            "single-byte checkpoint corruption at {} must be detected",
            i
        );
    }

    #[test]
    fn truncated_checkpoint_bytes_never_panic(cut in 0u64..1 << 20) {
        let (_, ckpt_bytes, _) = durable_fixture();
        let keep = (cut % ckpt_bytes.len() as u64) as usize;
        prop_assert!(Checkpoint::from_bytes(&ckpt_bytes[..keep]).is_err());
    }
}
