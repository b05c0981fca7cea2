//! Chaos smoke matrix: deterministic fault-injection scenarios that must
//! all pass on every build (wired into `scripts/check.sh`).
//!
//! `--smoke` runs one crash, one torn-tail crash, and one NoC-drop
//! scenario per workload with fixed seeds, plus one crash landing inside
//! a threaded barrier round (the epoch-parallel engine). Without flags a
//! small seeded sweep of random crash points runs on top. Every scenario
//! asserts its own properties (see `bionicdb_bench::chaos`); the binary
//! exits nonzero on the first violation.

use bionicdb_bench::chaos::{run_crash, run_noc_drop, run_threaded_crash, ChaosWorkload};
use bionicdb_bench::json::JsonOut;
use bionicdb_bench::{ArgSpec, BenchArgs};

const SPEC: ArgSpec = ArgSpec {
    bin: "chaos",
    flags: &["--smoke"],
    options: &[],
};

const WORKLOADS: [ChaosWorkload; 4] = [
    ChaosWorkload::Ycsb,
    ChaosWorkload::Tpcc,
    ChaosWorkload::Multisite,
    ChaosWorkload::SmallBank,
];

fn main() {
    let smoke_only = BenchArgs::from_env(&SPEC).flag("--smoke");
    let mut json = JsonOut::from_env("chaos");
    let mut scenarios = 0u64;

    // Crash inside a *threaded* barrier round: the crash run executes on
    // the epoch-parallel engine (2 sim threads), the clean twin and the
    // recovery replays stay serial, so the committed-prefix contract is
    // checked straight across the two schedulers.
    let r = run_threaded_crash(ChaosWorkload::Ycsb, 500, false, 0xC4A5, 2);
    println!(
        "PASS thread-crash Ycsb: crashed@{} with {}/{} committed, salvaged {}",
        r.crash_cycle.unwrap(),
        r.committed_at_crash,
        r.total_txns,
        r.salvaged
    );
    json.value_row("thread_crash_Ycsb_committed", r.committed_at_crash as f64);
    scenarios += 1;

    for w in WORKLOADS {
        let r = run_crash(w, 500, false, 0xC4A5);
        println!(
            "PASS crash      {w:?}: crashed@{} with {}/{} committed, salvaged {}",
            r.crash_cycle.unwrap(),
            r.committed_at_crash,
            r.total_txns,
            r.salvaged
        );
        json.value_row(
            &format!("crash_{w:?}_committed"),
            r.committed_at_crash as f64,
        );
        scenarios += 1;
        let r = run_crash(w, 700, true, 0xC4A5);
        println!(
            "PASS torn-tail  {w:?}: crashed@{} with {} committed, salvaged {} (torn={})",
            r.crash_cycle.unwrap(),
            r.committed_at_crash,
            r.salvaged,
            r.torn
        );
        json.value_row(&format!("torn_{w:?}_salvaged"), r.salvaged as f64);
        scenarios += 1;
        let r = run_noc_drop(w, &[1, 3, 6], 0xC4A5);
        println!(
            "PASS noc-drop   {w:?}: {} txns survived {} dropped message(s)",
            r.total_txns, r.dropped
        );
        json.value_row(&format!("nocdrop_{w:?}_dropped"), r.dropped as f64);
        scenarios += 1;
    }

    if !smoke_only {
        // A wider sweep of crash points; still fully deterministic.
        for w in WORKLOADS {
            for (i, frac) in [67u64, 250, 333, 499, 811, 950].iter().enumerate() {
                let torn = i % 2 == 1;
                let r = run_crash(w, *frac, torn, 0xBEE5 + i as u64);
                println!(
                    "PASS sweep      {w:?} @{frac}permille torn={torn}: {} committed, salvaged {}",
                    r.committed_at_crash, r.salvaged
                );
                scenarios += 1;
            }
        }
    }
    println!("chaos: all scenarios passed");
    json.value_row("scenarios_passed", scenarios as f64);
    json.write();
}
