//! Injection-equivalence properties for the streaming machine API
//! (DESIGN.md §17): entering a whole batch through `Machine::submit`
//! at cycle 0 and driving it with `Machine::step_until` is byte-identical
//! — full `MachineReport::to_json()` — to the legacy preload path
//! (`submit` everything, then `run_to_quiescence`), across the strict,
//! fast-forward, and epoch-parallel schedules — including a
//! `BatchMode::CrossTxn` machine, whose batch engines run level-wise DRAM
//! waves across transactions (DESIGN.md §16).
//!
//! The only degree of freedom `step_until` adds is *where the clock
//! stops*: it lands on its target even when the machine quiesced earlier,
//! charging idle accounting for the tail. Both paths therefore finish by
//! stepping to the same chunk-aligned boundary, so the idle tails match
//! and any byte difference is a real divergence in execution, not an
//! artifact of when the report was taken.

use bionicdb::BionicConfig;
use bionicdb_bench::serve::hw::build_workload;
use bionicdb_workloads::{ServeKind, StdWorkload, Workload};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Schedules the equivalence must hold across. Epoch-parallel only
/// engages under fast-forward with >1 worker, which the config below
/// guarantees.
const SCHEDULES: [(bool, usize); 3] = [(false, 1), (true, 1), (true, 2)];

/// Inputs to [`build`]: the four standard workloads, then [`CROSS_TXN`].
const MACHINES: usize = 5;

/// The chained 128-bucket YCSB-C table under `BatchMode::CrossTxn` at
/// wave width 4 (interleaving depth 8): the machine the batched serving
/// benchmark runs, whose 16-deep chains make every probe a DRAM wave.
const CROSS_TXN: usize = 4;

fn build(which: usize, workers: usize) -> Box<dyn Workload> {
    let std = [
        StdWorkload::Ycsb(bionicdb_workloads::ycsb::YcsbKind::ReadHomed),
        StdWorkload::Tpcc(bionicdb_workloads::TpccMix::Mixed),
        StdWorkload::SmallBank,
        // Its skiplist is loaded by the first scan's submission.
        StdWorkload::Ycsb(bionicdb_workloads::ycsb::YcsbKind::Scan),
    ];
    match which % MACHINES {
        CROSS_TXN => build_workload(ServeKind::YcsbC, workers, Some(4), true),
        i => std[i].build(BionicConfig::small(workers)),
    }
}

/// Populate and enter `txns` blocks per worker at cycle 0 (worker-major,
/// one RNG from the workload seed — the same order `bench::drive` uses),
/// then drive to quiescence via `mode`, finishing at the first multiple
/// of `chunk` at/after quiescence. Returns the full report JSON.
fn run_path(
    which: usize,
    workers: usize,
    txns: usize,
    chunk: u64,
    fast_forward: bool,
    threads: usize,
    inject: bool,
) -> String {
    let mut w = build(which, workers);
    w.machine().set_fast_forward(fast_forward);
    w.machine().set_sim_threads(threads);
    let mut blocks = Vec::with_capacity(workers * txns);
    for wk in 0..workers {
        for i in 0..txns {
            let size = w.block_size(wk, i);
            let blk = w.machine().alloc_block(wk, size);
            blocks.push((wk, i, blk));
        }
    }
    let mut rng = SmallRng::seed_from_u64(w.seed());
    // `Workload::submit` populates the block and enters it through
    // `Machine::submit`, so at cycle 0 both paths feed the machine
    // identically; they differ only in the driver that advances the clock
    // afterwards.
    for &(wk, i, blk) in &blocks {
        w.submit(wk, i, blk, &mut rng);
    }
    if inject {
        let mut rounds = 0u32;
        while !w.machine_ref().is_quiescent() {
            let target = w.machine_ref().now() + chunk;
            w.machine().step_until(target);
            rounds += 1;
            assert!(rounds < 1 << 16, "streamed run failed to quiesce");
        }
    } else {
        w.machine().run_to_quiescence();
        let now = w.machine_ref().now();
        let aligned = now.div_ceil(chunk) * chunk;
        w.machine().step_until(aligned);
    }
    assert!(w.machine_ref().is_quiescent());
    w.validate();
    w.machine_ref().report().to_json()
}

/// Whole-batch injection at cycle 0 reproduces the preloaded report
/// byte-for-byte under every schedule. The preload path under serial
/// fast-forward is the canonical reference; each schedule's streamed run
/// (and the strict preload run) must match it exactly.
fn assert_schedules_agree(which: usize, txns: usize, chunk: u64) {
    let workers = 2;
    let canon = run_path(which, workers, txns, chunk, true, 1, false);
    for (ff, threads) in SCHEDULES {
        let streamed = run_path(which, workers, txns, chunk, ff, threads, true);
        assert_eq!(
            streamed, canon,
            "machine {which}, {txns} txns, chunk {chunk}: streamed (ff={ff}, threads={threads}) \
             diverged from preload"
        );
    }
    let strict_preload = run_path(which, workers, txns, chunk, false, 1, false);
    assert_eq!(
        strict_preload, canon,
        "machine {which}, {txns} txns, chunk {chunk}: strict preload diverged"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn inject_at_cycle_zero_matches_preload(
        which in 0usize..MACHINES,
        txns in 1usize..4,
        chunk in prop_oneof![Just(257u64), Just(1024u64), Just(4093u64)],
    ) {
        assert_schedules_agree(which, txns, chunk);
    }
}

/// The `CrossTxn` machine on every run, not only when the proptest draws
/// it: from one transaction per worker up to three full interleaving
/// batches, at a short and a long chunk.
#[test]
fn cross_txn_waves_match_preload_under_every_schedule() {
    for txns in [1, 3, 8, 24] {
        for chunk in [257, 4093] {
            assert_schedules_agree(CROSS_TXN, txns, chunk);
        }
    }
}
