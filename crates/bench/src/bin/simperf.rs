//! Simulator performance: simulated cycles per wall-clock second.
//!
//! Two studies, selected by flag:
//!
//! * default — strict single-cycle stepping vs the fast-forward scheduler.
//!   The workload is deliberately stall-heavy — single-worker YCSB-C point
//!   reads under *serial* execution with the coprocessor's in-flight bound
//!   at 1, so the softcore idles through every DB round trip instead of
//!   interleaving over it — which is exactly the span the fast-forward
//!   scheduler elides. Results go to `BENCH_simperf.json`.
//! * `--par` — the serial fast path vs the epoch-parallel scheduler
//!   (per-pair lookahead horizons solved to a fixpoint) at 2 and 4 threads
//!   on a 4-worker multisite workload. Every run's `MachineReport` JSON
//!   must be byte-identical, and the honest wall-clock numbers (with the
//!   host's CPU count, which bounds any attainable speedup) go to
//!   `BENCH_parsim.json`. A second, deliberately skewed scenario (one
//!   update-heavy worker, four near-idle peers across two chips) measures
//!   what the per-pair lookahead buys structurally: its epoch-round count,
//!   which is thread-count-independent, must stay at least 5x below the
//!   count recorded for the retired single global horizon.
//!
//! Full (non-`--quick`) runs append their cycles/sec to the append-only
//! history file (`results/bench_history.jsonl` unless `--history PATH`),
//! which the `benchdiff` bin gates on.
//!
//! Usage: `simperf [--par] [--quick] [--out PATH] [--history PATH]`

use std::time::Instant;

use bionicdb::{BionicConfig, ExecMode, LaneActivity, Machine, Topology};
use bionicdb_bench::history::{self, Entry};
use bionicdb_bench::json::JsonOut;
use bionicdb_bench::{rng, ArgSpec, BenchArgs};
use bionicdb_workloads::ycsb::{BlockPool, YcsbBionic, YcsbKind};
use bionicdb_workloads::YcsbSpec;

struct Measurement {
    cycles: u64,
    ticks: u64,
    wall_secs: f64,
    committed: u64,
}

impl Measurement {
    fn cycles_per_sec(&self) -> f64 {
        self.cycles as f64 / self.wall_secs
    }
}

/// Run one strict or fast YCSB-C wave and time it.
fn measure(fast: bool, txns_per_worker: usize) -> Measurement {
    let cfg = BionicConfig {
        workers: 1,
        mode: ExecMode::Serial,
        ..BionicConfig::default()
    };
    let spec = YcsbSpec {
        records_per_partition: 20_000,
        ..YcsbSpec::default()
    };
    let mut y = YcsbBionic::build(cfg, spec, 4);
    y.machine.set_fast_forward(fast);
    y.machine.set_max_inflight(1);
    let workers = y.machine.num_workers();
    let size = y.block_size(YcsbKind::ReadLocal);
    let mut pools: Vec<BlockPool> = (0..workers)
        .map(|w| BlockPool::new(&mut y.machine, w, txns_per_worker, size))
        .collect();
    let mut r = rng(0x51F0);
    for (w, pool) in pools.iter_mut().enumerate() {
        for _ in 0..txns_per_worker {
            let blk = pool.take();
            y.submit_txn(w, blk, YcsbKind::ReadLocal, &mut r);
        }
    }
    let c0 = y.machine.now();
    let t0 = Instant::now();
    y.machine.run_to_quiescence();
    let wall_secs = t0.elapsed().as_secs_f64();
    Measurement {
        cycles: y.machine.now() - c0,
        ticks: y.machine.ticks_executed(),
        wall_secs,
        committed: y.machine.stats().committed,
    }
}

/// One epoch-parallel (or serial when `threads == 1`) multisite run.
struct ParRun {
    m: Measurement,
    report_json: String,
    /// Per-lane scheduler counters (all zeros for the serial run).
    lanes: Vec<LaneActivity>,
    /// Barrier rounds the epoch scheduler executed (0 for the serial run).
    /// Deterministic for a given workload: the schedule never depends on
    /// the thread count, only on who claims each lane.
    epoch_rounds: u64,
    /// Posted-write DRAM acks cancelled instead of delivered to workers
    /// that had already retired the write.
    cancelled_acks: u64,
}

/// Run a loaded machine to quiescence and time it.
fn run_timed(m: &mut Machine) -> ParRun {
    let c0 = m.now();
    let t0 = Instant::now();
    m.run_to_quiescence();
    let wall_secs = t0.elapsed().as_secs_f64();
    ParRun {
        m: Measurement {
            cycles: m.now() - c0,
            ticks: m.ticks_executed(),
            wall_secs,
            committed: m.stats().committed,
        },
        report_json: m.report().to_json(),
        lanes: m.lane_activity().to_vec(),
        epoch_rounds: m.epoch_rounds(),
        cancelled_acks: m.cancelled_write_acks(),
    }
}

/// Run the 4-worker multisite wave at a given sim-thread count and time
/// it. Every worker sits on its own chip: the cheapest NoC path is a full
/// inter-node link, so every pair's conservative lookahead is 75 cycles
/// and the workers genuinely run concurrently between barriers.
fn measure_par(threads: usize, txns_per_worker: usize) -> ParRun {
    let cfg = BionicConfig {
        workers: 4,
        mode: ExecMode::Interleaved,
        topology: Topology::MultiChip {
            workers_per_node: 1,
            inter_node_hops: 25,
        },
        ..BionicConfig::default()
    };
    let spec = YcsbSpec {
        records_per_partition: 20_000,
        remote_fraction: 0.5,
        ..YcsbSpec::default()
    };
    let mut y = YcsbBionic::build(cfg, spec, 4);
    y.machine.set_sim_threads(threads);
    let workers = y.machine.num_workers();
    let size = y.block_size(YcsbKind::ReadHomed);
    let mut pools: Vec<BlockPool> = (0..workers)
        .map(|w| BlockPool::new(&mut y.machine, w, txns_per_worker, size))
        .collect();
    let mut r = rng(0x9A7);
    for (w, pool) in pools.iter_mut().enumerate() {
        for _ in 0..txns_per_worker {
            let blk = pool.take();
            y.submit_txn(w, blk, YcsbKind::ReadHomed, &mut r);
        }
    }
    run_timed(&mut y.machine)
}

/// The skewed scenario for the epoch-round comparison: five workers on
/// three chips ({0,1}, {2,3}, {4}), with worker 4 — *alone on its chip* —
/// grinding through a long run of local updates while the four peers
/// retire a couple of *local* reads and go idle (local so they genuinely
/// quiesce — a remote read homed at the busy partition would sit in its
/// queue and keep the sender's lane alive all run). A single global
/// horizon would be the cheapest pair anywhere: the 3-cycle same-chip
/// links on the full chips would throttle worker 4 to 3-cycle epochs
/// forever. The per-pair matrix knows the only way worker 4 can be
/// affected is its own traffic bouncing off a remote chip — a 150-cycle
/// round trip — so its epochs are ~50x longer. The round count is
/// deterministic and thread-count independent, so this measures the
/// structural win even on 1 CPU.
fn measure_skew(threads: usize, hot: usize, light: usize) -> ParRun {
    let cfg = BionicConfig {
        workers: 5,
        mode: ExecMode::Interleaved,
        topology: Topology::MultiChip {
            workers_per_node: 2,
            inter_node_hops: 25,
        },
        ..BionicConfig::default()
    };
    let spec = YcsbSpec {
        records_per_partition: 20_000,
        remote_fraction: 1.0,
        ..YcsbSpec::default()
    };
    let mut y = YcsbBionic::build(cfg, spec, 4);
    y.machine.set_sim_threads(threads);
    let workers = y.machine.num_workers();
    let upd_size = y.block_size(YcsbKind::UpdateLocal);
    let read_size = y.block_size(YcsbKind::ReadLocal);
    let mut r = rng(0x5EED);
    for w in 0..workers {
        let (kind, txns, size) = if w == workers - 1 {
            (YcsbKind::UpdateLocal, hot, upd_size)
        } else {
            (YcsbKind::ReadLocal, light, read_size)
        };
        let mut pool = BlockPool::new(&mut y.machine, w, txns, size);
        for _ in 0..txns {
            let blk = pool.take();
            y.submit_txn(w, blk, kind, &mut r);
        }
    }
    run_timed(&mut y.machine)
}

/// Append per-lane scheduler counters as a JSON array field.
fn push_lane_json(out: &mut String, lanes: &[LaneActivity]) {
    out.push_str("[\n");
    for (w, lane) in lanes.iter().enumerate() {
        out.push_str(&format!(
            "    {{ \"lane\": {}, \"rounds\": {}, \"ticks\": {}, \"skips\": {}, \
             \"barrier_idle_ns\": {}, \"epoch_len_p50\": {:.0}, \"epoch_len_p95\": {:.0}, \
             \"epoch_len_max\": {} }}{}\n",
            w,
            lane.rounds,
            lane.ticks,
            lane.skips,
            lane.barrier_idle_ns,
            lane.epoch_len.p50(),
            lane.epoch_len.p95(),
            lane.epoch_len.max(),
            if w + 1 == lanes.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]");
}

/// The `--par` study: serial fast path vs epoch-parallel at 2 and 4
/// threads, plus the skewed epoch-round scenario. Byte-identity of the
/// report JSON is asserted across every run; speedups are recorded honestly
/// alongside the host's CPU count, since a 1-CPU container cannot show
/// wall-clock gains no matter how parallel the schedule is.
fn run_par_study(quick: bool, out_path: &str, history_path: &str) {
    let txns = if quick { 150 } else { 1_200 };
    let host_cpus = history::host_cpus();

    let serial = measure_par(1, txns);
    let matrix2 = measure_par(2, txns);
    let matrix4 = measure_par(4, txns);

    let runs = [("matrix x2", &matrix2), ("matrix x4", &matrix4)];
    for (label, run) in runs {
        assert_eq!(
            serial.m.cycles, run.m.cycles,
            "epoch-parallel ({label}) must be cycle-exact"
        );
        assert_eq!(
            serial.m.committed, run.m.committed,
            "epoch-parallel ({label}) must commit identically"
        );
        assert_eq!(
            serial.report_json, run.report_json,
            "epoch-parallel ({label}) report JSON must be byte-identical"
        );
    }
    println!("report JSON byte-identical: serial vs epoch-parallel at 2 and 4 threads");

    for (label, run) in [("serial", &serial)].into_iter().chain(runs) {
        println!(
            "{label:>9}: {:>12.0} cycles/s  ({} cycles, {} ticks, {:.3}s, {} rounds)",
            run.m.cycles_per_sec(),
            run.m.cycles,
            run.m.ticks,
            run.m.wall_secs,
            run.epoch_rounds
        );
        // Per-lane load balance: component ticks actually executed vs
        // cycles fast-forwarded over, per worker lane (epoch runs only —
        // the serial schedule does not maintain lane counters).
        for (w, lane) in run.lanes.iter().enumerate() {
            if lane.rounds > 0 {
                println!(
                    "        lane {w}: {} rounds, {} ticks, {} skipped, {:.1}us barrier idle, epoch len p50/p95/max {:.0}/{:.0}/{}",
                    lane.rounds,
                    lane.ticks,
                    lane.skips,
                    lane.barrier_idle_ns as f64 / 1_000.0,
                    lane.epoch_len.p50(),
                    lane.epoch_len.p95(),
                    lane.epoch_len.max()
                );
            }
        }
    }

    // The structural win, independent of host CPU count: on the skewed
    // scenario the per-pair lookahead must stay at least 5x below the
    // rounds the retired single global horizon (`GVT + Lmin - 1` for
    // every lane) needed, as recorded by the last build that had it; its
    // cheapest-pair step was pure overhead once the light workers drained.
    let (hot, light, global_rounds) = if quick {
        (60, 3, 9_605)
    } else {
        (400, 10, 63_757)
    };
    let skew = measure_skew(2, hot, light);
    println!(
        "skew matrix: {} rounds over {} cycles",
        skew.epoch_rounds, skew.m.cycles
    );
    for (w, lane) in skew.lanes.iter().enumerate() {
        println!(
            "        lane {w}: {} rounds, {} ticks, {} skipped, epoch len p50/p95/max {:.0}/{:.0}/{}",
            lane.rounds, lane.ticks, lane.skips,
            lane.epoch_len.p50(), lane.epoch_len.p95(), lane.epoch_len.max()
        );
    }
    assert!(
        skew.epoch_rounds * 5 <= global_rounds,
        "matrix lookahead must need at least 5x fewer skewed-scenario epoch \
         rounds than the recorded global horizon (matrix {}, global {global_rounds})",
        skew.epoch_rounds
    );
    let round_ratio = global_rounds as f64 / skew.epoch_rounds.max(1) as f64;
    println!(
        "skewed scenario: {} rounds under matrix lookahead ({round_ratio:.1}x fewer than \
         the recorded {global_rounds} under a global horizon)",
        skew.epoch_rounds
    );

    let speedups = [
        ("matrix2", serial.m.wall_secs / matrix2.m.wall_secs),
        ("matrix4", serial.m.wall_secs / matrix4.m.wall_secs),
    ];
    for (label, s) in speedups {
        println!("speedup {label}: {s:.2}x");
    }
    println!("host has {host_cpus} CPU(s)");
    let best_matrix = speedups[0].1.max(speedups[1].1);
    // Wall-clock assertions need real cores and a full-size wave; byte
    // identity above is asserted unconditionally.
    if !quick && host_cpus >= 4 {
        assert!(
            best_matrix > 2.0,
            "matrix lookahead + work stealing must beat serial by >2x on a \
             {host_cpus}-CPU host (got {best_matrix:.2}x)"
        );
    } else if !quick && host_cpus >= 2 {
        assert!(
            best_matrix > 1.0,
            "matrix lookahead + work stealing must beat serial on a \
             {host_cpus}-CPU host (got {best_matrix:.2}x)"
        );
    } else {
        println!("(speedup assertions skipped: quick run or {host_cpus} CPU host)");
    }

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(&format!(
        "  \"workload\": \"ycsb read-homed 50% remote, interleaved exec, 4 workers x 1 chip (75-cycle min lookahead), {txns} txns/worker\",\n"
    ));
    json.push_str(&format!("  \"host_cpus\": {host_cpus},\n"));
    json.push_str(&format!("  \"quick\": {quick},\n"));
    json.push_str(&format!(
        "  \"simulated_cycles\": {},\n  \"committed\": {},\n",
        serial.m.cycles, serial.m.committed
    ));
    json.push_str("  \"report_bytes_identical\": true,\n");
    json.push_str(&format!(
        "  \"serial\": {{ \"wall_secs\": {:.6}, \"cycles_per_sec\": {:.0} }},\n",
        serial.m.wall_secs,
        serial.m.cycles_per_sec()
    ));
    for ((label, run), (_, speedup)) in runs.into_iter().zip(speedups) {
        let key = label.replace(" x", "");
        json.push_str(&format!(
            "  \"{key}\": {{ \"wall_secs\": {:.6}, \"cycles_per_sec\": {:.0}, \"speedup\": {speedup:.3}, \"epoch_rounds\": {} }},\n",
            run.m.wall_secs,
            run.m.cycles_per_sec(),
            run.epoch_rounds
        ));
    }
    json.push_str(&format!(
        "  \"cancelled_write_acks\": {},\n",
        matrix4.cancelled_acks
    ));
    json.push_str("  \"matrix4_lanes\": ");
    push_lane_json(&mut json, &matrix4.lanes);
    json.push_str(",\n");
    json.push_str(&format!(
        "  \"skewed\": {{ \"hot_txns\": {hot}, \"light_txns\": {light}, \
         \"matrix_epoch_rounds\": {}, \"cancelled_write_acks\": {} }}\n",
        skew.epoch_rounds, skew.cancelled_acks
    ));
    json.push_str("}\n");
    std::fs::write(out_path, json).expect("write results file");
    println!("wrote {out_path}");

    // Full runs feed the regression history `benchdiff` gates on; quick
    // waves are too small to be comparable and stay out of it.
    if !quick {
        let t = history::now_unix();
        for (bench, cps, cycles) in [
            ("parsim-serial", serial.m.cycles_per_sec(), serial.m.cycles),
            (
                "parsim-matrix",
                matrix4.m.cycles_per_sec(),
                matrix4.m.cycles,
            ),
        ] {
            let mut e = Entry::basic(bench, cps, t);
            e.committed_cycles = Some(cycles);
            history::append(history_path.as_ref(), &e).expect("append bench history");
        }
        println!("appended 2 entries to {history_path}");
    }

    let mut jout = JsonOut::from_env("simperf-par");
    jout.value_row("host_cpus", host_cpus as f64);
    jout.value_row("simulated_cycles", serial.m.cycles as f64);
    jout.value_row("committed", serial.m.committed as f64);
    jout.value_row("serial_cycles_per_sec", serial.m.cycles_per_sec());
    jout.value_row("matrix4_cycles_per_sec", matrix4.m.cycles_per_sec());
    jout.value_row("speedup_matrix4", speedups[1].1);
    jout.value_row("skew_matrix_rounds", skew.epoch_rounds as f64);
    for (w, lane) in matrix4.lanes.iter().enumerate() {
        jout.value_row(&format!("matrix4_lane{w}_rounds"), lane.rounds as f64);
        jout.value_row(&format!("matrix4_lane{w}_ticks"), lane.ticks as f64);
        jout.value_row(&format!("matrix4_lane{w}_skips"), lane.skips as f64);
    }
    jout.write();
}

fn main() {
    let args = BenchArgs::from_env(&ArgSpec {
        bin: "simperf",
        flags: &["--par"],
        options: &["--out", "--history"],
    });
    let quick = args.quick();
    let par = args.flag("--par");
    let out_path = args
        .value("--out")
        .unwrap_or(if par {
            "BENCH_parsim.json"
        } else {
            "BENCH_simperf.json"
        })
        .to_string();
    let history_path = args
        .value("--history")
        .unwrap_or(history::DEFAULT_PATH)
        .to_string();
    if par {
        run_par_study(quick, &out_path, &history_path);
        return;
    }
    let txns = args.wave(400, 2_000);

    let strict = measure(false, txns);
    let fast = measure(true, txns);

    assert_eq!(
        strict.cycles, fast.cycles,
        "fast-forward must be cycle-exact"
    );
    assert_eq!(
        strict.committed, fast.committed,
        "fast-forward must commit identically"
    );

    let speedup = fast.cycles_per_sec() / strict.cycles_per_sec();
    println!(
        "strict: {:>12.0} cycles/s  ({} cycles, {} ticks, {:.3}s)",
        strict.cycles_per_sec(),
        strict.cycles,
        strict.ticks,
        strict.wall_secs
    );
    println!(
        "fast:   {:>12.0} cycles/s  ({} cycles, {} ticks, {:.3}s)",
        fast.cycles_per_sec(),
        fast.cycles,
        fast.ticks,
        fast.wall_secs
    );
    println!("speedup: {speedup:.2}x");

    let json = format!(
        concat!(
            "{{\n",
            "  \"workload\": \"ycsb-c read-local, serial exec, 1 worker, max_inflight=1, {} txns/worker\",\n",
            "  \"simulated_cycles\": {},\n",
            "  \"committed\": {},\n",
            "  \"strict\": {{ \"wall_secs\": {:.6}, \"cycles_per_sec\": {:.0} }},\n",
            "  \"fast\": {{ \"wall_secs\": {:.6}, \"cycles_per_sec\": {:.0} }},\n",
            "  \"speedup\": {:.3}\n",
            "}}\n"
        ),
        txns,
        strict.cycles,
        strict.committed,
        strict.wall_secs,
        strict.cycles_per_sec(),
        fast.wall_secs,
        fast.cycles_per_sec(),
        speedup
    );
    std::fs::write(&out_path, json).expect("write results file");
    println!("wrote {out_path}");

    if !quick {
        let t = history::now_unix();
        for (bench, cps, cycles) in [
            ("simperf-strict", strict.cycles_per_sec(), strict.cycles),
            ("simperf-fast", fast.cycles_per_sec(), fast.cycles),
        ] {
            let mut e = Entry::basic(bench, cps, t);
            e.committed_cycles = Some(cycles);
            history::append(history_path.as_ref(), &e).expect("append bench history");
        }
        println!("appended 2 entries to {history_path}");
    }

    // Shared `--json` dump (same flag as every other bench bin).
    let mut jout = JsonOut::from_env("simperf");
    jout.value_row("simulated_cycles", strict.cycles as f64);
    jout.value_row("committed", strict.committed as f64);
    jout.value_row("strict_cycles_per_sec", strict.cycles_per_sec());
    jout.value_row("fast_cycles_per_sec", fast.cycles_per_sec());
    jout.value_row("speedup", speedup);
    jout.write();
}
