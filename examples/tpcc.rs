//! TPC-C (NewOrder + Payment, 50:50) on BionicDB — a miniature of the
//! paper's Fig. 9b workload, showing stored-procedure execution with data
//! dependencies, cross-partition transactions over the on-chip channels,
//! timestamp-CC aborts and client-side retries.
//!
//! Run with: `cargo run --release --example tpcc`

use bionicdb::{BionicConfig, ExecMode, TxnStatus};
use bionicdb_workloads::tpcc::TpccBionic;
use bionicdb_workloads::TpccSpec;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn main() {
    let spec = TpccSpec {
        customers_per_district: 300,
        items: 2_000,
        ..TpccSpec::default()
    };
    let workers = 4; // one warehouse per partition worker
    let cfg = BionicConfig {
        workers,
        mode: ExecMode::Interleaved,
        max_batch: 2,
        ..BionicConfig::default()
    };
    let mut sys = TpccBionic::build(cfg, spec);
    let mut rng = SmallRng::seed_from_u64(7);

    let per_worker = 60;
    let mut blocks = Vec::new();
    let start = sys.machine.now();
    for w in 0..workers {
        for i in 0..per_worker {
            if i % 2 == 0 {
                let blk = sys
                    .machine
                    .alloc_block(w, TpccBionic::neworder_block_size());
                sys.submit_neworder(w, blk, &mut rng);
                blocks.push((w, blk));
            } else {
                let blk = sys.machine.alloc_block(w, TpccBionic::payment_block_size());
                sys.submit_payment(w, blk, &mut rng);
                blocks.push((w, blk));
            }
        }
    }
    sys.machine.run_to_quiescence();

    // Retry aborted transactions (the input block is preserved through
    // execution, so a retry is a status reset + resubmit).
    let mut retry_rounds = 0;
    loop {
        let pending: Vec<_> = blocks
            .iter()
            .copied()
            .filter(|&(_, b)| sys.machine.block_status(b) == TxnStatus::Aborted)
            .collect();
        if pending.is_empty() {
            break;
        }
        retry_rounds += 1;
        for (w, blk) in pending {
            sys.machine.resubmit(w, blk);
        }
        sys.machine.run_to_quiescence();
    }
    let cycles = sys.machine.now() - start;
    let stats = sys.machine.stats();
    let committed = blocks.len() as u64;
    println!("TPC-C on BionicDB ({workers} warehouses/workers):");
    println!(
        "  {} committed ({} aborts across {} retry rounds) in {:.2} ms simulated",
        committed,
        stats.aborted,
        retry_rounds,
        sys.machine.config().fpga.cycles_to_secs(cycles) * 1e3
    );
    println!(
        "  throughput {:.0} kTps",
        committed as f64 * sys.machine.config().fpga.clock_hz as f64 / cycles as f64 / 1e3
    );
    let noc = sys.machine.noc().stats();
    println!(
        "  on-chip messages: {} (mean latency {:.1} cycles) — cross-partition stock/customer accesses",
        noc.sent,
        if noc.sent > 0 { noc.total_latency as f64 / noc.sent as f64 } else { 0.0 }
    );

    // Consistency audit: district next_o_id advances match committed orders.
    let mut orders = 0u64;
    for w in 0..workers {
        for d in 0..sys.spec.districts_per_warehouse {
            let key = bionicdb_workloads::spec::district_key(w as u64, d);
            let tables = sys.tables;
            let loader = sys.machine.loader(w);
            let addr = loader.lookup(tables.district, &key.to_le_bytes()).unwrap();
            let pay = loader.payload(tables.district, addr);
            orders += u64::from_le_bytes(pay[..8].try_into().unwrap()) - 1;
        }
    }
    println!(
        "  audit: {} orders recorded == {} committed NewOrders",
        orders,
        committed / 2
    );
    assert_eq!(orders, committed / 2);
}
