//! Batched level-wise traversal study (DESIGN.md §16): probe throughput
//! vs. batch width for both index coprocessors.
//!
//! For each index kind the sweep streams a fixed stream of tagged SEARCH
//! probes through the batch engine at widths 1–32 and reports probes per
//! simulated cycle, the DRAM reads spent (and saved by per-wave dedup),
//! and the measured memory-level parallelism (peak outstanding reads and
//! the occupancy histogram). Width 1 degenerates to a serial pointer chase
//! per batch, so the curve is exactly the MLP claim: level-wise batching
//! must buy ≥ 2× probe throughput by width 8 on at least one index kind —
//! asserted here, not just plotted.
//!
//! Results go to `BENCH_batch.json` (override with `--out`); full
//! (non-`--quick`) runs also append one history row per sweep point for
//! `benchdiff`.

use std::time::Instant;

use bionicdb_bench::batchbench::{speedups, sweep, to_json};
use bionicdb_bench::history::{self, Entry};
use bionicdb_bench::{print_table, ArgSpec, BenchArgs};
use bionicdb_fpga::FpgaConfig;
use bionicdb_softcore::IndexKind;

const SPEC: ArgSpec = ArgSpec {
    bin: "batchsweep",
    flags: &[],
    options: &["--out", "--history"],
};

fn main() {
    let args = BenchArgs::from_env(&SPEC);
    let quick = args.quick();
    let out_path = args
        .value("--out")
        .unwrap_or("BENCH_batch.json")
        .to_string();
    let history_path = args
        .value("--history")
        .unwrap_or(history::DEFAULT_PATH)
        .to_string();
    let clock_hz = FpgaConfig::default().clock_hz;

    let wall = Instant::now();
    let points = sweep(quick);
    let wall_secs = wall.elapsed().as_secs_f64();

    let mut rows = Vec::new();
    for p in &points {
        rows.push(vec![
            p.key(),
            format!("{:.2}", p.probes_per_kcycle()),
            format!("{:.1}", p.probes_per_sec(clock_hz) / 1e6),
            format!("{}", p.reads),
            format!("{}", p.dedup_saved),
            format!("{}", p.mlp_peak),
        ]);
    }
    print_table(
        &format!(
            "Batched traversal sweep ({} probes/point, {wall_secs:.2}s wall)",
            points[0].probes
        ),
        &[
            "point",
            "probes/kcycle",
            "Mprobes/s (sim)",
            "reads",
            "dedup saved",
            "mlp peak",
        ],
        &rows,
    );

    // The headline claim, gated here so a regression in the batch engine
    // fails the bin rather than silently flattening the curve.
    let gains = speedups(&points, 8);
    for (kind, width, x) in &gains {
        println!("{kind:?}: best width {width} gives {x:.2}x over width 1");
    }
    assert!(
        gains.iter().any(|(_, _, x)| *x >= 2.0),
        "batched traversal must reach 2x probe throughput at width >= 8 \
         on at least one index kind: {gains:?}"
    );

    std::fs::write(&out_path, to_json(&points, quick)).expect("write BENCH_batch.json");
    println!("wrote {out_path}");

    // Full runs feed the regression history. The tracked metric is probes
    // per simulated second — fully deterministic, so `benchdiff` gates the
    // batch engine's simulated performance, not host speed.
    if !quick {
        let now = history::now_unix();
        for p in &points {
            let mut e = Entry::basic(
                &format!("batchsweep-{}", p.key()),
                p.probes_per_sec(clock_hz),
                now,
            );
            e.committed_cycles = Some(p.cycles);
            e.mlp_peak = Some(p.mlp_peak);
            history::append(history_path.as_ref(), &e).expect("append bench history");
        }
        println!("appended {} entries to {history_path}", points.len());
    }

    // Keep `IndexKind` in the printed rows honest (hash first).
    debug_assert_eq!(points[0].kind, IndexKind::Hash);
}
