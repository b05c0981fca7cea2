//! Every metric the benchmark prints, with its unit. `BENCHMARK.json`
//! lists the same names and units (a test keeps the two in step).

use crate::layers::STAGES;

/// End-to-end metrics, printed by untraced runs.
pub const END_TO_END: [(&str, &str); 7] = [
    ("capacity_tps", "txn/s"),
    ("p50_us", "us"),
    ("p99_us", "us"),
    ("light_p99_us", "us"),
    ("overload_goodput_tps", "txn/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics other than the coprocessor stages, printed by
/// traced runs.
const PER_LAYER_FIXED: [(&str, &str); 40] = [
    ("host_s", "s"),
    ("serve.admit_wait_p50_us", "us"),
    ("serve.admit_wait_p99_us", "us"),
    ("serve.queue_high_water", "count"),
    ("serve.failed_frac", "frac"),
    ("serve.good_per_executed", "frac"),
    ("serve.retries_per_fresh", "frac"),
    ("serve.self_host_s", "s"),
    ("engine.service_p50_us", "us"),
    ("engine.service_p99_us", "us"),
    ("engine.advance_calls_per_req", "count"),
    ("engine.dispatch_host_s", "s"),
    ("engine.advance_host_s", "s"),
    ("replica.wave_tps", "txn/s"),
    ("softcore.queue_wait_p99_cycles", "cycles"),
    ("softcore.logic_p50_cycles", "cycles"),
    ("softcore.commit_wait_p99_cycles", "cycles"),
    ("softcore.commit_p50_cycles", "cycles"),
    ("softcore.abort_frac", "frac"),
    ("softcore.switches_per_txn", "count"),
    ("softcore.cp_stall_cycles_per_txn", "cycles"),
    ("softcore.mem_stall_cycles_per_txn", "cycles"),
    ("coproc.db_op_p50_cycles", "cycles"),
    ("coproc.db_op_p99_cycles", "cycles"),
    ("noc.msgs_per_txn", "count"),
    ("noc.mean_latency_cycles", "cycles"),
    ("noc.link_queue_high_water", "count"),
    ("dram.reads_per_txn", "count"),
    ("dram.writes_per_txn", "count"),
    ("dram.occupancy_cycles_per_txn", "cycles"),
    ("dram.rejections", "count"),
    ("dram.mlp_peak", "count"),
    ("par.epoch_rounds", "count"),
    ("par.lane_ticks", "count"),
    ("par.lane_skips", "count"),
    ("par.epoch_len_p50_cycles", "cycles"),
    ("par.barrier_idle_frac", "frac"),
    ("workloads.build_host_s", "s"),
    ("workloads.submit_host_s", "s"),
    ("core.run_host_s", "s"),
];

/// Host seconds tracing added to a pass: traced minus untraced `host_s`.
const TRACE_OVERHEAD: (&str, &str) = ("trace.overhead_s", "s");

/// Every per-layer metric name with its unit, in print order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> =
        PER_LAYER_FIXED.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    for s in STAGES {
        v.push((format!("coproc.{s}.busy_frac"), "frac"));
        v.push((format!("coproc.{s}.stall_frac"), "frac"));
    }
    v.push((TRACE_OVERHEAD.0.to_string(), TRACE_OVERHEAD.1));
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` names exactly these metrics, with these units.
    #[test]
    fn benchmark_json_lists_every_metric_with_its_unit() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let flat: String = json.split_whitespace().collect();
        let mut all: Vec<(String, &str)> =
            END_TO_END.iter().map(|&(n, u)| (n.to_string(), u)).collect();
        all.extend(per_layer());
        for (name, unit) in &all {
            let entry = format!("{{\"name\":\"{name}\",\"unit\":\"{unit}\"");
            assert!(flat.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let names = flat.matches("\"unit\":").count();
        assert_eq!(names, all.len(), "BENCHMARK.json lists metrics the program does not print");
    }
}
