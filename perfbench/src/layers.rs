//! Per-layer simulated metrics of the hardware layers, read from a
//! closed-loop replica wave's `MachineReport` and lifecycle events.

use bionicdb::MachineReport;
use bionicdb_fpga::obs::TxnEvent;

use crate::pct::Tail;

/// Every coprocessor stage any workload's machine reports, sanitised
/// (`hash.traverse[0]` → `hash.traverse_0`). The benchmark prints busy
/// and stall fractions for each, 0 where a machine lacks the stage (the
/// `batch.*` engines exist only under `BatchMode::CrossTxn`), and fails if
/// a machine reports a stage missing from this list.
pub const STAGES: [&str; 17] = [
    "hash.keyfetch",
    "hash.hash",
    "hash.install",
    "hash.headfetch",
    "hash.compare",
    "hash.traverse_0",
    "skip.levels_17-19",
    "skip.levels_14-16",
    "skip.levels_11-13",
    "skip.levels_8-10",
    "skip.levels_5-7",
    "skip.levels_3-4",
    "skip.levels_1-2",
    "skip.bottom",
    "skip.scanner_0",
    "batch.hash",
    "batch.skip",
];

/// A stage name as a metric-name segment.
pub fn sanitise(stage: &str) -> String {
    stage
        .replace("..=", "-")
        .chars()
        .filter_map(|c| match c {
            '[' => Some('_'),
            ']' => None,
            c if c.is_ascii_alphanumeric() || c == '.' || c == '_' || c == '-' => Some(c),
            _ => Some('_'),
        })
        .collect()
}

/// Softcore, coprocessor, NoC and DRAM metrics of one wave, normalised
/// per committed transaction where they are totals.
pub fn from_report(r: &MachineReport) -> Result<Vec<(String, f64)>, String> {
    let committed = r.stats.committed.max(1) as f64;
    let per_txn = |v: u64| v as f64 / committed;
    let sum_sc = |f: fn(&bionicdb::WorkerReport) -> u64| r.workers.iter().map(f).sum::<u64>();
    let mut out: Vec<(String, f64)> = vec![
        (
            "softcore.abort_frac".into(),
            r.stats.aborted as f64 / (r.stats.committed + r.stats.aborted).max(1) as f64,
        ),
        (
            "softcore.switches_per_txn".into(),
            per_txn(sum_sc(|w| w.softcore.switches)),
        ),
        (
            "softcore.cp_stall_cycles_per_txn".into(),
            per_txn(sum_sc(|w| w.softcore.cp_stall_cycles)),
        ),
        (
            "softcore.mem_stall_cycles_per_txn".into(),
            per_txn(sum_sc(|w| w.softcore.mem_stall_cycles)),
        ),
        ("coproc.db_op_p50_cycles".into(), r.obs.db_op.p50()),
        ("coproc.db_op_p99_cycles".into(), r.obs.db_op.p99()),
    ];

    let mut stages = vec![(0u64, 0u64, 0u64); STAGES.len()];
    for w in &r.workers {
        for (name, st) in &w.stages {
            let name = sanitise(name);
            let i = STAGES
                .iter()
                .position(|s| *s == name)
                .ok_or_else(|| {
                    let all: Vec<String> = w.stages.iter().map(|(n, _)| sanitise(n)).collect();
                    format!("coprocessor stage {name} is missing from layers::STAGES ({all:?})")
                })?;
            stages[i].0 += st.busy;
            stages[i].1 += st.stalled;
            stages[i].2 += st.busy + st.stalled + st.idle;
        }
    }
    for (name, (busy, stalled, total)) in STAGES.iter().zip(stages) {
        let frac = |v: u64| if total == 0 { 0.0 } else { v as f64 / total as f64 };
        out.push((format!("coproc.{name}.busy_frac"), frac(busy)));
        out.push((format!("coproc.{name}.stall_frac"), frac(stalled)));
    }

    out.extend([
        ("noc.msgs_per_txn".into(), per_txn(r.noc.sent)),
        ("noc.mean_latency_cycles".into(), r.noc.mean_latency()),
        (
            "noc.link_queue_high_water".into(),
            r.links.iter().map(|l| l.queue_high_water).max().unwrap_or(0) as f64,
        ),
        ("dram.reads_per_txn".into(), per_txn(r.dram.reads)),
        ("dram.writes_per_txn".into(), per_txn(r.dram.writes)),
        (
            "dram.occupancy_cycles_per_txn".into(),
            per_txn(r.ports.iter().map(|p| p.occupancy_cycles).sum()),
        ),
        ("dram.rejections".into(), r.dram.rejections as f64),
        (
            "dram.mlp_peak".into(),
            r.ports.iter().map(|p| p.mlp_peak).max().unwrap_or(0) as f64,
        ),
    ]);
    Ok(out)
}

/// Exact per-phase softcore percentiles from every finished
/// transaction's lifecycle timestamps.
pub fn from_events(events: &[TxnEvent]) -> Vec<(String, f64)> {
    let phase = |f: fn(&TxnEvent) -> u64| Tail::new(events.iter().map(f).collect(), 0);
    let pct = |t: &Tail, p: f64| t.percentile(p).unwrap_or(0) as f64;
    let queue = phase(|e| e.logic_start - e.submitted_at);
    let logic = phase(|e| e.logic_end - e.logic_start);
    let commit_wait = phase(|e| e.commit_start - e.logic_end);
    let commit = phase(|e| e.finished_at - e.commit_start);
    vec![
        ("softcore.queue_wait_p99_cycles".into(), pct(&queue, 99.0)),
        ("softcore.logic_p50_cycles".into(), pct(&logic, 50.0)),
        ("softcore.commit_wait_p99_cycles".into(), pct(&commit_wait, 99.0)),
        ("softcore.commit_p50_cycles".into(), pct(&commit, 50.0)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_names_become_metric_segments() {
        assert_eq!(sanitise("hash.traverse[0]"), "hash.traverse_0");
        assert_eq!(sanitise("batch.hash"), "batch.hash");
        assert_eq!(sanitise("skip.levels[17..=19]"), "skip.levels_17-19");
        assert_eq!(sanitise("a b/c"), "a_b_c");
    }
}
