//! Ablations of the design choices DESIGN.md calls out (beyond the paper's
//! own figures):
//!
//! 1. **Scanner count** — the paper's fix for Fig. 11c's single-scanner
//!    bottleneck ("redundant scanners could distribute heavy scan loads").
//! 2. **Traverse stages** — paper §4.4.1: "if hash conflict is frequent,
//!    multiple Traverse stages could be populated"; demonstrated on a
//!    deliberately undersized bucket array.
//! 3. **Interconnect topology** — crossbar (paper) vs the ring suggested
//!    for scaling (§4.6), at growing worker counts.
//! 4. **Interleaving batch size** — conflict-window vs overlap trade-off
//!    on the TPC-C Payment warehouse hotspot.
//! 5. **Hazard prevention** — lock-table stalls are the price of
//!    correctness on insert-heavy load (paper Fig. 6).

use bionicdb::{BionicConfig, ExecMode, Topology};
use bionicdb_bench::json::{render_machine_row, JsonOut};
use bionicdb_bench::*;
use bionicdb_workloads::tpcc::TpccBionic;
use bionicdb_workloads::ycsb::{YcsbBionic, YcsbKind};
use bionicdb_workloads::YcsbSpec;

fn main() {
    let args = BenchArgs::from_env(&ArgSpec::shared("ablations"));
    let wave = args.wave(60, 200);
    let mut json = JsonOut::from_env("ablations");

    // 1. Scanner count vs scan throughput. Every ablation point builds its
    // own machine, so each sweep fans out over par_map.
    let rows = par_map(vec![1usize, 2, 3, 5, 8], |scanners| {
        let mut cfg = BionicConfig::default();
        cfg.fpga.skiplist_scanners = scanners;
        let mut y = YcsbBionic::build(cfg, bench_ycsb_spec(), 60);
        let t = bionic_ycsb_tput(&mut y, YcsbKind::Scan, wave);
        let row = render_machine_row(&format!("scanners_{scanners}"), Some(t), &y.machine);
        ((format!("{scanners} scanner(s)"), t.per_sec / 1e3), row)
    });
    let (rows, json_rows): (Vec<_>, Vec<_>) = rows.into_iter().unzip();
    json_rows.into_iter().for_each(|r| json.push_raw(r));
    print_series(
        "Ablation 1: scan throughput vs scanner count",
        "config",
        "kTps",
        &rows,
    );

    // 2. Traverse stages on a chain-heavy hash table (buckets = records/8).
    let rows = par_map(vec![1usize, 2, 4], |stages| {
        let mut cfg = BionicConfig::default();
        cfg.fpga.hash_traverse_stages = stages;
        let spec = YcsbSpec {
            hash_buckets: Some(bench_ycsb_spec().records_per_partition / 8),
            ..bench_ycsb_spec()
        };
        let mut y = YcsbBionic::build(cfg, spec, 60);
        let t = bionic_ycsb_tput(&mut y, YcsbKind::ReadLocal, wave);
        let row = render_machine_row(&format!("traverse_{stages}"), Some(t), &y.machine);
        (
            (format!("{stages} traverse stage(s)"), t.per_sec / 1e3),
            row,
        )
    });
    let (rows, json_rows): (Vec<_>, Vec<_>) = rows.into_iter().unzip();
    json_rows.into_iter().for_each(|r| json.push_raw(r));
    print_series(
        "Ablation 2: YCSB-C on long chains vs Traverse stages",
        "config",
        "kTps",
        &rows,
    );

    // 3. Topology at scale (multisite reads, 75% remote). The throughputs
    // barely differ because even an 8-hop ring trip (24 cycles) is small
    // next to an index probe; the mean message latency column shows the
    // structural cost the paper worries about for much larger meshes.
    let points: Vec<(usize, Topology)> = [4usize, 8, 16]
        .iter()
        .flat_map(|&w| [(w, Topology::Crossbar), (w, Topology::Ring)])
        .collect();
    let rows = par_map(points, |(workers, topo)| {
        let cfg = BionicConfig {
            workers,
            topology: topo,
            dram_bytes: (workers as u64 + 1) * (200 << 20),
            ..BionicConfig::default()
        };
        let mut y = YcsbBionic::build(cfg, bench_ycsb_spec(), 60);
        let t = bionic_ycsb_tput(&mut y, YcsbKind::ReadHomed, wave / 2);
        let n = y.machine.noc().stats();
        let row = render_machine_row(&format!("topo_{workers}w_{topo:?}"), Some(t), &y.machine);
        (
            (
                format!("{workers}w {topo:?} (lat {:.1}cy)", n.mean_latency()),
                t.per_sec / 1e3,
            ),
            row,
        )
    });
    let (rows, json_rows): (Vec<_>, Vec<_>) = rows.into_iter().unzip();
    json_rows.into_iter().for_each(|r| json.push_raw(r));
    print_series(
        "Ablation 3: multisite throughput vs topology",
        "config",
        "kTps",
        &rows,
    );

    // 4. TPC-C mixed throughput vs interleaving batch size.
    let rows = par_map(vec![1usize, 2, 4, 8, 16], |max_batch| {
        let cfg = BionicConfig {
            workers: 4,
            mode: ExecMode::Interleaved,
            max_batch,
            ..BionicConfig::default()
        };
        let mut sys = TpccBionic::build(cfg, bench_tpcc_spec());
        let t = bionic_tpcc_tput(&mut sys, TpccMix::Mixed, wave / 2);
        let row = render_machine_row(&format!("batch_{max_batch}"), Some(t), &sys.machine);
        ((format!("batch {max_batch}"), t.per_sec / 1e3), row)
    });
    let (rows, json_rows): (Vec<_>, Vec<_>) = rows.into_iter().unzip();
    json_rows.into_iter().for_each(|r| json.push_raw(r));
    print_series(
        "Ablation 4: TPC-C mix vs interleaving batch size (hotspot conflicts)",
        "config",
        "kTps",
        &rows,
    );

    // 6. Contention skew: Zipfian update transactions stress the
    // dirty-reject CC — hot keys collide across an interleaving batch, and
    // the retry cost grows with skew (a dimension the paper's uniform-key
    // YCSB never touches).
    let rows = par_map(vec![0.0f64, 0.5, 0.9, 0.99], |theta| {
        let mut y = build_ycsb(4, ExecMode::Interleaved);
        let zipf = (theta > 0.0)
            .then(|| bionicdb_workloads::Zipf::new(y.spec.records_per_partition, theta));
        let mut rng = bionicdb_bench::rng(0x55EE);
        let size = y.block_size(YcsbKind::UpdateLocal);
        let per_worker = wave / 2;
        let mut blocks = Vec::new();
        let c0 = y.machine.now();
        for w in 0..4 {
            for _ in 0..per_worker {
                let blk = y.machine.alloc_block(w, size);
                match &zipf {
                    Some(z) => y.submit_update_skewed(w, blk, z, &mut rng),
                    None => y.submit_txn(w, blk, YcsbKind::UpdateLocal, &mut rng),
                }
                blocks.push((w, blk));
            }
        }
        y.machine.run_to_quiescence();
        let out = y.machine.retry_to_completion(
            &blocks,
            bionicdb::RetryBudget { max_attempts: 1000 },
            1 << 33,
        );
        assert!(out.all_committed(), "skewed updates failed to converge");
        let cycles = y.machine.now() - c0;
        let aborted = y.machine.stats().aborted;
        let tput = blocks.len() as f64 * y.machine.config().fpga.clock_hz as f64 / cycles as f64;
        let label = if theta == 0.0 {
            format!("uniform ({} aborts)", aborted)
        } else {
            format!("zipf {theta} ({} aborts)", aborted)
        };
        let row = render_machine_row(
            &format!("skew_{theta}"),
            Some(Tput {
                committed: blocks.len() as u64,
                aborted,
                per_sec: tput,
            }),
            &y.machine,
        );
        ((label, tput / 1e3), row)
    });
    let (rows, json_rows): (Vec<_>, Vec<_>) = rows.into_iter().unzip();
    json_rows.into_iter().for_each(|r| json.push_raw(r));
    print_series(
        "Ablation 6: update-txn throughput vs key skew (with retries)",
        "distribution",
        "kTps",
        &rows,
    );

    // 5. Hazard prevention cost on bulk inserts (lock-table stalls): a
    // small bucket array makes concurrent inserts collide, so the Hash
    // stage must stall on the lock table (paper Fig. 6b).
    let rows = par_map(vec![true, false], |hazard| {
        let cfg = BionicConfig {
            hazard_prevention: hazard,
            ..BionicConfig::default()
        };
        let spec = YcsbSpec {
            hash_buckets: Some(512),
            ..bench_ycsb_spec()
        };
        let mut y = YcsbBionic::build(cfg, spec, 60);
        let t = bionic_kv_random_insert_tput(&mut y, wave / 4);
        let stalls: u64 = (0..4)
            .map(|w| y.machine.worker(w).coproc.hash_stats().lock_stalls)
            .sum();
        let row = render_machine_row(
            &format!("hazard_{}", if hazard { "on" } else { "off" }),
            Some(t),
            &y.machine,
        );
        (
            (
                format!(
                    "locks {} ({} stall cycles)",
                    if hazard { "on" } else { "OFF (unsafe)" },
                    stalls
                ),
                t.per_sec / 1e6,
            ),
            row,
        )
    });
    let (rows, json_rows): (Vec<_>, Vec<_>) = rows.into_iter().unzip();
    json_rows.into_iter().for_each(|r| json.push_raw(r));
    print_series(
        "Ablation 5: insert Mops with/without hazard prevention",
        "config",
        "Mops",
        &rows,
    );
    json.write();
}
