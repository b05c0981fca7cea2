//! Cross-partition (multisite) transaction integration tests: on-chip
//! message passing, background requests, remote writes and consistency.

use bionicdb::{
    asm::assemble, BionicConfig, BlockStatus, FaultPlan, NocRetryConfig, RetryBudget,
    SystemBuilder, TableMeta, Topology,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Assert the interconnect's accounting identity: every accepted send is
/// delivered, dropped by an injected fault, or still in flight.
fn assert_noc_conservation(db: &bionicdb::Machine) {
    let s = db.noc().stats();
    assert_eq!(
        s.sent,
        s.delivered + s.dropped + db.noc().in_flight(),
        "NoC conservation: sent == delivered + dropped + in_flight ({s:?})"
    );
}

const TRANSFER: &str = r#"
proc transfer
logic:
    load g5, [blk+16]
    update 0, 0, c0, home=g5     ; debit, possibly remote
    load g6, [blk+24]
    update 0, 8, c1, home=g6     ; credit, possibly remote
commit:
    ret g0, c0
    cmp g0, 0
    blt abort
    ret g1, c1
    cmp g1, 0
    blt abort
    load g2, [blk+32]
    load g3, [g0+72]
    sub g3, g2
    store g3, [g0+72]
    load g4, [g1+72]
    add g4, g2
    store g4, [g1+72]
    getts g7
    store g7, [g0+8]
    store g7, [g1+8]
    mov g8, 0
    store g8, [g0+24]
    store g8, [g1+24]
    commit
abort:
    ret g0, c0
    cmp g0, 0
    blt s1
    mov g8, 0
    store g8, [g0+24]
s1:
    ret g1, c1
    cmp g1, 0
    blt s2
    mov g8, 0
    store g8, [g1+24]
s2:
    abort
"#;

fn build(
    workers: usize,
    topology: Topology,
) -> (bionicdb::Machine, bionicdb::TableId, bionicdb::ProcId) {
    let mut b = SystemBuilder::new(BionicConfig {
        topology,
        ..BionicConfig::small(workers)
    });
    let t = b.table(TableMeta::hash("accounts", 8, 8, 1 << 10));
    let p = b.proc(assemble(TRANSFER).unwrap());
    (b.build(), t, p)
}

/// Run a random cross-partition transfer workload and verify global
/// conservation of money under retries.
fn conservation_run(topology: Topology) {
    let workers = 4;
    let accounts_per = 16u64;
    let (mut db, t, p) = build(workers, topology);
    for w in 0..workers {
        for k in 0..accounts_per {
            // Keys are partition-local; initial balance 1000 each.
            db.loader(w)
                .insert(t, &k.to_le_bytes(), &1_000u64.to_le_bytes());
        }
    }
    let total0: u64 = (0..workers)
        .map(|w| {
            (0..accounts_per)
                .map(|k| {
                    let a = db.loader(w).lookup(t, &k.to_le_bytes()).unwrap();
                    u64::from_le_bytes(db.loader(w).payload(t, a)[..8].try_into().unwrap())
                })
                .sum::<u64>()
        })
        .sum();

    let mut rng = SmallRng::seed_from_u64(5);
    let mut blocks = Vec::new();
    for _ in 0..40 {
        let origin = rng.gen_range(0..workers);
        let from_w = rng.gen_range(0..workers) as u64;
        let to_w = rng.gen_range(0..workers) as u64;
        let from_k = rng.gen_range(0..accounts_per);
        let mut to_k = rng.gen_range(0..accounts_per);
        if from_w == to_w && to_k == from_k {
            to_k = (to_k + 1) % accounts_per;
        }
        let blk = db.alloc_block(origin, 160);
        db.init_block(blk, p);
        db.write_block_u64(blk, 0, from_k);
        db.write_block_u64(blk, 8, to_k);
        db.write_block_u64(blk, 16, from_w);
        db.write_block_u64(blk, 24, to_w);
        db.write_block_u64(blk, 32, rng.gen_range(1..50));
        db.submit(origin, blk);
        blocks.push((origin, blk));
    }
    db.run_to_quiescence_limit(1 << 28);
    let out = db.retry_to_completion(&blocks, RetryBudget { max_attempts: 128 }, 1 << 28);
    assert!(out.all_committed(), "retries converge: {out:?}");

    let total1: u64 = (0..workers)
        .map(|w| {
            (0..accounts_per)
                .map(|k| {
                    let a = db.loader(w).lookup(t, &k.to_le_bytes()).unwrap();
                    u64::from_le_bytes(db.loader(w).payload(t, a)[..8].try_into().unwrap())
                })
                .sum::<u64>()
        })
        .sum();
    assert_eq!(total0, total1, "money conserved across partitions");
    assert!(
        db.noc().stats().sent > 0,
        "some transfers crossed partitions"
    );
    assert_eq!(db.noc().stats().dropped, 0, "no faults were injected");
    assert_noc_conservation(&db);
}

#[test]
fn crossbar_transfers_conserve_money() {
    conservation_run(Topology::Crossbar);
}

#[test]
fn ring_transfers_conserve_money() {
    conservation_run(Topology::Ring);
}

#[test]
fn transfers_survive_injected_message_loss() {
    // Same transfer workload, but the interconnect silently eats a handful
    // of messages. With the retry glue armed, every loss is absorbed —
    // retransmitted requests are deduplicated at the home worker, lost
    // responses are replayed from its completed-cache — and the run ends
    // exactly where the lossless run ends: everything commits, money is
    // conserved, and the NoC accounting identity still balances.
    let workers = 4;
    let accounts_per = 16u64;
    let mut b = SystemBuilder::new(BionicConfig {
        noc_retry: Some(NocRetryConfig {
            timeout_cycles: 2048,
            max_attempts: 6,
        }),
        ..BionicConfig::small(workers)
    });
    let t = b.table(TableMeta::hash("accounts", 8, 8, 1 << 10));
    let p = b.proc(assemble(TRANSFER).unwrap());
    let mut db = b.build();
    let mut plan = FaultPlan::none();
    for n in [2u64, 5, 9, 17] {
        plan = plan.drop_nth_send(n);
    }
    db.set_fault_plan(plan);

    for w in 0..workers {
        for k in 0..accounts_per {
            db.loader(w)
                .insert(t, &k.to_le_bytes(), &1_000u64.to_le_bytes());
        }
    }
    let mut rng = SmallRng::seed_from_u64(5);
    let mut blocks = Vec::new();
    for _ in 0..24 {
        let origin = rng.gen_range(0..workers);
        let from_w = rng.gen_range(0..workers) as u64;
        let to_w = rng.gen_range(0..workers) as u64;
        let from_k = rng.gen_range(0..accounts_per);
        let mut to_k = rng.gen_range(0..accounts_per);
        if from_w == to_w && to_k == from_k {
            to_k = (to_k + 1) % accounts_per;
        }
        let blk = db.alloc_block(origin, 160);
        db.init_block(blk, p);
        db.write_block_u64(blk, 0, from_k);
        db.write_block_u64(blk, 8, to_k);
        db.write_block_u64(blk, 16, from_w);
        db.write_block_u64(blk, 24, to_w);
        db.write_block_u64(blk, 32, rng.gen_range(1..50));
        db.submit(origin, blk);
        blocks.push((origin, blk));
    }
    db.run_to_quiescence_limit(1 << 28);
    let out = db.retry_to_completion(&blocks, RetryBudget { max_attempts: 128 }, 1 << 28);
    assert!(out.all_committed(), "losses absorbed by retry: {out:?}");

    let total: u64 = (0..workers)
        .map(|w| {
            (0..accounts_per)
                .map(|k| {
                    let a = db.loader(w).lookup(t, &k.to_le_bytes()).unwrap();
                    u64::from_le_bytes(db.loader(w).payload(t, a)[..8].try_into().unwrap())
                })
                .sum::<u64>()
        })
        .sum();
    assert_eq!(
        total,
        workers as u64 * accounts_per * 1_000,
        "money conserved"
    );
    let s = db.noc().stats();
    assert!(s.dropped >= 1, "the fault plan actually fired: {s:?}");
    assert_noc_conservation(&db);
    assert_eq!(db.noc().in_flight(), 0, "quiescent interconnect");
}

#[test]
fn remote_request_latency_is_on_chip_scale() {
    // A purely remote read-only transaction completes with only a handful
    // of extra cycles over the local one — communication is 6 cycles per
    // op pair, dwarfed by the index work itself.
    let (mut db, t, p) = build(2, Topology::Crossbar);
    for w in 0..2 {
        for k in 0..4u64 {
            db.loader(w)
                .insert(t, &k.to_le_bytes(), &1_000u64.to_le_bytes());
        }
    }
    // Local transfer on worker 0.
    let run = |db: &mut bionicdb::Machine, from_w: u64, to_w: u64| {
        let start = db.now();
        let blk = db.alloc_block(0, 160);
        db.init_block(blk, p);
        db.write_block_u64(blk, 0, 0);
        db.write_block_u64(blk, 8, 1);
        db.write_block_u64(blk, 16, from_w);
        db.write_block_u64(blk, 24, to_w);
        db.write_block_u64(blk, 32, 1);
        db.submit(0, blk);
        db.run_to_quiescence_limit(1 << 24);
        assert!(db.block_status(blk).is_committed());
        db.now() - start
    };
    let local = run(&mut db, 0, 0);
    let remote = run(&mut db, 1, 1);
    assert!(
        remote < local + 200,
        "remote ops cost on-chip latency, not a software round trip: local={local} remote={remote}"
    );
}
