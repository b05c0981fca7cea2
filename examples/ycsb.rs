//! YCSB-C on BionicDB vs. the modelled Silo baseline — a miniature of the
//! paper's Fig. 9a experiment.
//!
//! Run with: `cargo run --release --example ycsb`

use bionicdb::{BionicConfig, ExecMode};
use bionicdb_cpu_model::{CoreModel, CpuConfig};
use bionicdb_workloads::ycsb::{BlockPool, YcsbBionic, YcsbKind, YcsbSilo};
use bionicdb_workloads::YcsbSpec;

fn main() {
    let spec = YcsbSpec {
        records_per_partition: 20_000,
        payload_len: 256,
        ..YcsbSpec::default()
    };
    let workers = 4;

    // ---- BionicDB: cycle-accurate simulation ----
    let cfg = BionicConfig {
        workers,
        mode: ExecMode::Interleaved,
        ..BionicConfig::default()
    };
    let mut y = YcsbBionic::build(cfg, spec.clone(), 60);
    let txns_per_worker = 200;
    let size = y.block_size(YcsbKind::ReadLocal);
    let mut pools: Vec<BlockPool> = (0..workers)
        .map(|w| BlockPool::new(&mut y.machine, w, txns_per_worker, size))
        .collect();
    let mut rng = YcsbBionic::rng(42);
    let start = y.machine.now();
    for (w, pool) in pools.iter_mut().enumerate() {
        for _ in 0..txns_per_worker {
            let blk = pool.take();
            y.submit_txn(w, blk, YcsbKind::ReadLocal, &mut rng);
        }
    }
    y.machine.run_to_quiescence();
    let cycles = y.machine.now() - start;
    let stats = y.machine.stats();
    let tput = stats.committed as f64 * y.machine.config().fpga.clock_hz as f64 / cycles as f64;
    println!("BionicDB ({workers} workers @125 MHz):");
    println!(
        "  {} txns in {:.2} ms simulated -> {:.0} kTps",
        stats.committed,
        y.machine.config().fpga.cycles_to_secs(cycles) * 1e3,
        tput / 1e3
    );
    println!(
        "  {} DB instructions dispatched, {} batches",
        stats.db_insts, stats.batches
    );
    print!("{}", y.machine.utilization_report());

    // ---- Silo baseline under the Xeon timing model ----
    let silo = YcsbSilo::build(spec, workers);
    let mut model = CoreModel::new(CpuConfig::default());
    let mut rng = YcsbBionic::rng(43);
    let n = 500;
    for _ in 0..n {
        silo.run_read_txn(&mut model, &mut rng);
    }
    let per_core = n as f64 / model.secs();
    println!("\nSilo on the modelled Xeon E7-4807:");
    println!(
        "  one core: {:.0} kTps ({:.1} µs/txn)",
        per_core / 1e3,
        1e6 / per_core
    );
    println!(
        "  {} memory accesses traced, {} to DRAM",
        model.stats().accesses,
        model.stats().dram_accesses
    );
    println!(
        "\nBionicDB/worker vs Silo/core speedup: {:.1}x",
        tput / workers as f64 / per_core
    );
}
