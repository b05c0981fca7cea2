//! Scale-out study (paper §4.6 / §7 future work): BionicDB across multiple
//! FPGA nodes in a shared-nothing cluster.
//!
//! Eight workers run either on one chip (crossbar) or as 2×4 / 4×2 chips
//! connected by a serial link (25 hops ≈ 600 ns per message). Multisite
//! YCSB-C with a remote-fraction sweep shows where inter-node latency
//! starts to bite — the quantitative answer to the paper's "possible
//! future direction" of scaling out.
//!
//! `--chips N` switches to the *chips* study: a 64–256-worker sweep where
//! each simulated machine is split across N chips (`Topology::MultiChip`)
//! and simulated on N sim threads (the epoch-parallel lane engine); N must
//! be at least 2 and divide 64, else the bin exits 2 with its usage line.
//! Results go to `BENCH_scaleout.json` (override with `--out`), and full
//! (non-`--quick`) runs append one row per sweep point to
//! `results/bench_history.jsonl` so `benchdiff` tracks the scaling curve
//! over time.

use std::str::FromStr;
use std::time::Instant;

use bionicdb::{BionicConfig, ExecMode, Topology};
use bionicdb_bench::history::{self, Entry};
use bionicdb_bench::json::JsonOut;
use bionicdb_bench::*;
use bionicdb_workloads::ycsb::{YcsbBionic, YcsbKind};
use bionicdb_workloads::YcsbSpec;

const SPEC: ArgSpec = ArgSpec {
    bin: "scaleout",
    flags: &[],
    options: &["--chips", "--out", "--history"],
};

/// Worker counts of the `--chips` study; the link-latency axis runs at the
/// first.
const CHIPS_WORKERS: [usize; 3] = [64, 128, 256];

/// A valid `--chips` value: at least 2 chips, dividing every sweep size so
/// each chip gets the same number of workers.
#[derive(Debug, PartialEq)]
struct Chips(usize);

impl FromStr for Chips {
    type Err = ();

    fn from_str(s: &str) -> Result<Self, ()> {
        match s.parse::<usize>() {
            Ok(n) if n >= 2 && CHIPS_WORKERS.iter().all(|w| w % n == 0) => Ok(Chips(n)),
            _ => Err(()),
        }
    }
}

fn build(topology: Topology, remote_fraction: f64) -> YcsbBionic {
    let cfg = BionicConfig {
        workers: 8,
        topology,
        mode: ExecMode::Interleaved,
        dram_bytes: 2 << 30,
        ..BionicConfig::default()
    };
    let spec = YcsbSpec {
        remote_fraction,
        ..bench_ycsb_spec()
    };
    let mut y = YcsbBionic::build(cfg, spec, 60);
    y.machine.set_sim_threads(sim_threads());
    y
}

/// Build one chips sweep point: `workers` partitions split across `chips`
/// simulated chips, run on one sim thread per chip. The per-partition
/// scale is shrunk far below the paper-figure spec (2 K records, 64 B
/// payloads) so a 256-worker machine stays in the hundreds of megabytes,
/// not the paper's tens of gigabytes.
fn build_chips(workers: usize, chips: usize, hops: u64) -> YcsbBionic {
    assert!(
        workers.is_multiple_of(chips),
        "worker count {workers} must divide evenly over {chips} chips"
    );
    let cfg = BionicConfig {
        workers,
        topology: Topology::MultiChip {
            workers_per_node: workers / chips,
            inter_node_hops: hops,
        },
        mode: ExecMode::Interleaved,
        // 4 MB per worker (vs the paper-figure 192 MB): 2 K records at
        // 64 B need well under 1 MB of heap, and the sweep's short waves
        // need only a few KB of block arena. The DRAM span leaves slack
        // beyond workers × 4 MB for the builder's index carves.
        dram_bytes: 2 << 30,
        block_arena_bytes: 2 << 20,
        partition_bytes: 2 << 20,
        ..BionicConfig::default()
    };
    let spec = YcsbSpec {
        records_per_partition: 2_048,
        payload_len: 64,
        remote_fraction: 0.25,
        ..YcsbSpec::default()
    };
    let mut y = YcsbBionic::build(cfg, spec, 60);
    y.machine.set_sim_threads(chips);
    y
}

/// The `--chips N` study: 64/128/256 workers across N chips on N sim
/// threads, one machine per point, wall-clock and simulated-throughput
/// rows to `out_path`, history rows (full runs only) for `benchdiff`.
fn run_chips_study(args: &BenchArgs, chips: usize) {
    let wave = args.wave(4, 12);
    let out_path = args
        .value("--out")
        .unwrap_or("BENCH_scaleout.json")
        .to_string();
    let history_path = args
        .value("--history")
        .unwrap_or(history::DEFAULT_PATH)
        .to_string();
    let quick = args.quick();

    let mut json = format!("{{\n  \"bin\": \"scaleout-chips\",\n  \"chips\": {chips},\n");
    let mut table = Vec::new();
    let mut points = Vec::new();
    for workers in CHIPS_WORKERS {
        let mut y = build_chips(workers, chips, 25);
        let wall = Instant::now();
        let t = bionic_ycsb_tput(&mut y, YcsbKind::ReadHomed, wave);
        let wall_secs = wall.elapsed().as_secs_f64();
        let cycles = y.machine.now();
        let cps = cycles as f64 / wall_secs;
        json.push_str(&format!(
            "  \"{workers}w\": {{ \"workers\": {workers}, \"chips\": {chips}, \
             \"committed\": {}, \"aborted\": {}, \"tput_per_sec\": {:.0}, \
             \"wall_secs\": {wall_secs:.6}, \"cycles\": {cycles}, \
             \"cycles_per_sec\": {cps:.0}, \"epoch_rounds\": {} }},\n",
            t.committed,
            t.aborted,
            t.per_sec,
            y.machine.epoch_rounds()
        ));
        table.push(vec![
            format!("{workers} x {chips} chips"),
            format!("{:.1}", t.per_sec / 1e3),
            format!("{:.2}", wall_secs),
            format!("{:.0}", cps),
        ]);
        points.push((workers, cps, cycles));
    }

    // Inter-chip link-latency axis: the 8-worker study already sweeps
    // hops; this repeats it for 64 workers on the lane engine, where a
    // slow serial link also stretches the epoch barrier, not just
    // individual messages.
    let mut hop_table = Vec::new();
    let mut hop_points = Vec::new();
    for hops in [8u64, 25, 100, 400] {
        let mut y = build_chips(CHIPS_WORKERS[0], chips, hops);
        let wall = Instant::now();
        let t = bionic_ycsb_tput(&mut y, YcsbKind::ReadHomed, wave);
        let wall_secs = wall.elapsed().as_secs_f64();
        let cycles = y.machine.now();
        let cps = cycles as f64 / wall_secs;
        let ns = 3.0 * hops as f64 * 8.0;
        json.push_str(&format!(
            "  \"hops{hops}\": {{ \"workers\": 64, \"chips\": {chips}, \
             \"inter_node_hops\": {hops}, \"committed\": {}, \"aborted\": {}, \
             \"tput_per_sec\": {:.0}, \"wall_secs\": {wall_secs:.6}, \
             \"cycles\": {cycles}, \"cycles_per_sec\": {cps:.0} }},\n",
            t.committed, t.aborted, t.per_sec,
        ));
        hop_table.push(vec![
            format!("{hops} hops ({ns:.0} ns)"),
            format!("{:.1}", t.per_sec / 1e3),
            format!("{:.2}", wall_secs),
        ]);
        hop_points.push((hops, cps, cycles));
    }

    json.push_str(&format!("  \"wave\": {wave}\n}}\n"));
    std::fs::write(&out_path, json).expect("write BENCH_scaleout.json");
    println!("wrote {out_path}");
    print_table(
        &format!("Chips scale-out: YCSB-C across {chips} chips on {chips} sim threads"),
        &["deployment", "kTps (sim)", "wall s", "sim cycles/s"],
        &table,
    );
    print_table(
        &format!("Chips scale-out: inter-chip link latency (64 workers, {chips} chips)"),
        &["link latency", "kTps (sim)", "wall s"],
        &hop_table,
    );

    // Full runs feed the regression history `benchdiff` gates on; quick
    // waves are too small to be comparable and stay out of it (same rule
    // as `simperf`).
    if !quick {
        let now = history::now_unix();
        let mut appended = 0usize;
        for (workers, cps, cycles) in points {
            let mut e = Entry::basic(&format!("scaleout-chips-{workers}w{chips}c"), cps, now);
            e.committed_cycles = Some(cycles);
            history::append(history_path.as_ref(), &e).expect("append bench history");
            appended += 1;
        }
        for (hops, cps, cycles) in hop_points {
            let mut e = Entry::basic(&format!("scaleout-chips-hops{hops}-64w{chips}c"), cps, now);
            e.committed_cycles = Some(cycles);
            history::append(history_path.as_ref(), &e).expect("append bench history");
            appended += 1;
        }
        println!("appended {appended} entries to {history_path}");
    }
}

fn main() {
    let args = BenchArgs::from_env(&SPEC);
    if args.value("--chips").is_some() {
        let Chips(chips) = args.parsed("--chips", Chips(2));
        run_chips_study(&args, chips);
        return;
    }
    let wave = args.wave(100, 300);

    let topologies: [(&str, Topology); 4] = [
        ("1 chip x 8 (crossbar)", Topology::Crossbar),
        ("1 chip x 8 (ring)", Topology::Ring),
        (
            "2 chips x 4",
            Topology::MultiChip {
                workers_per_node: 4,
                inter_node_hops: 25,
            },
        ),
        (
            "4 chips x 2",
            Topology::MultiChip {
                workers_per_node: 2,
                inter_node_hops: 25,
            },
        ),
    ];
    let mut json = JsonOut::from_env("scaleout");
    let mut rows = Vec::new();
    for remote in [0.0, 0.25, 0.75] {
        for (name, topo) in topologies {
            let mut y = build(topo, remote);
            // The ring's cheapest path is one hop between ring neighbours —
            // the PDES lookahead the epoch-parallel scheduler would use.
            if topo == Topology::Ring {
                assert_eq!(
                    y.machine.noc().min_hop_latency(),
                    y.machine.config().fpga.noc_hop_latency,
                    "ring min hop latency must be one base hop"
                );
            }
            let t = bionic_ycsb_tput(&mut y, YcsbKind::ReadHomed, wave);
            json.machine_row(
                &format!("{}pct_{}", (remote * 100.0) as u32, name.replace(' ', "")),
                Some(t),
                &y.machine,
            );
            let n = y.machine.noc().stats();
            rows.push(vec![
                format!("{:.0}% remote", remote * 100.0),
                name.to_string(),
                format!("{:.1}", t.per_sec / 1e3),
                format!("{:.1}", n.mean_latency()),
            ]);
        }
    }
    print_table(
        "Scale-out: 8 workers, multisite YCSB-C",
        &["remote", "deployment", "kTps", "mean msg cycles"],
        &rows,
    );

    // How slow can the inter-node link get before the asynchronous DB
    // dispatch stops hiding it? (75% remote accesses, 2 chips x 4.)
    let mut rows = Vec::new();
    for hops in [8u64, 25, 100, 400, 1600] {
        let mut y = build(
            Topology::MultiChip {
                workers_per_node: 4,
                inter_node_hops: hops,
            },
            0.75,
        );
        let t = bionic_ycsb_tput(&mut y, YcsbKind::ReadHomed, wave);
        json.machine_row(&format!("latency_{hops}hops"), Some(t), &y.machine);
        let ns = 3.0 * hops as f64 * 8.0;
        rows.push(vec![
            format!("{hops} hops ({ns:.0} ns)"),
            format!("{:.1}", t.per_sec / 1e3),
        ]);
    }
    print_table(
        "Scale-out: inter-node link latency tolerance (75% remote)",
        &["link latency", "kTps"],
        &rows,
    );
    json.write();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chips(value: &str) -> Result<Chips, String> {
        let argv = vec!["--chips".to_string(), value.to_string()];
        BenchArgs::try_parse(argv, &SPEC)?.try_parsed("--chips", Chips(2))
    }

    #[test]
    fn chips_must_parse_be_two_or_more_and_divide_the_sweep() {
        for good in [2, 4, 8, 16, 32, 64] {
            assert_eq!(chips(&good.to_string()), Ok(Chips(good)));
        }
        for bad in ["abc", "", "-2", "0", "1", "3", "6", "128"] {
            let err = chips(bad).expect_err(bad);
            assert!(err.contains("--chips"), "{err}");
            assert!(err.contains(&SPEC.usage()), "{err}");
        }
    }
}
