//! Table 3 — message-passing latency comparison (paper §5.7).
//!
//! Measures the on-chip request/response pair in the simulator and
//! compares with software message passing through the modelled memory
//! hierarchy (L3-resident vs DRAM-resident mailboxes).

use bionicdb_bench::json::JsonOut;
use bionicdb_bench::print_table;
use bionicdb_cpu_model::CpuConfig;
use bionicdb_fpga::FpgaConfig;
use bionicdb_noc::{Noc, Packet, Payload, Topology};
use bionicdb_softcore::catalogue::TableId;
use bionicdb_softcore::request::{CpSlot, DbOp, DbRequest, DbResponse, PartitionId};

/// The measured on-chip round trip: one-way request latency, full
/// request/response pair latency, and the response packet itself (so tests
/// can check the return leg is modelled faithfully).
struct OnchipPair {
    t_req: u64,
    t_pair: u64,
    /// Read by the regression tests, which assert the return leg's shape.
    #[cfg_attr(not(test), allow(dead_code))]
    response: Packet,
}

/// Send one request from worker 0 to worker 1 and its response back,
/// measuring both legs in the interconnect.
///
/// The response leg is a genuine [`Payload::Response`] echoing the
/// request's sequence number — not a second request. An earlier version of
/// this harness sent the return leg as `Payload::Request` with the same
/// `seq: 0` as the outbound leg, and polled the return leg from cycle 0
/// instead of from the send cycle `t_req`; the latencies happened to come
/// out right, but the measured traffic was two requests with one shared
/// sequence number — a shape the worker glue's duplicate detection would
/// discard, so the "pair" being timed could never occur on a real machine.
fn measure_onchip_pair(fpga: &FpgaConfig) -> OnchipPair {
    let mut noc = Noc::new(Topology::Crossbar, 2, fpga.noc_hop_latency);
    let req = DbRequest {
        op: DbOp::Search,
        table: TableId(0),
        key_addr: 0,
        payload_addr: 0,
        scan_count: 0,
        out_addr: 0,
        ts: 1,
        cp: CpSlot {
            worker: PartitionId(0),
            index: 0,
        },
        home: PartitionId(1),
        batch_group: 0,
    };
    // Real requests carry seq >= 1 (seq 0 is reserved for unsequenced
    // packets in the worker glue).
    noc.send(
        0,
        Packet {
            src: PartitionId(0),
            dst: PartitionId(1),
            payload: Payload::Request(req),
            seq: 1,
        },
    )
    .unwrap();
    let t_req = (0..100)
        .find(|&t| noc.poll(t, PartitionId(1)).is_some())
        .unwrap();
    // The home worker answers with a response echoing the request's seq.
    noc.send(
        t_req,
        Packet {
            src: PartitionId(1),
            dst: PartitionId(0),
            payload: Payload::Response(DbResponse {
                cp: req.cp,
                value: 0,
            }),
            seq: 1,
        },
    )
    .unwrap();
    let (t_pair, response) = (t_req..t_req + 100)
        .find_map(|t| noc.poll(t, PartitionId(0)).map(|p| (t, p)))
        .unwrap();
    OnchipPair {
        t_req,
        t_pair,
        response,
    }
}

fn main() {
    let _ = bionicdb_bench::BenchArgs::from_env(&bionicdb_bench::ArgSpec::shared("table3_latency"));
    let fpga = FpgaConfig::default();
    let cpu = CpuConfig::default();
    let mut json = JsonOut::from_env("table3_latency");

    let pair = measure_onchip_pair(&fpga);
    let (t_req, t_pair) = (pair.t_req, pair.t_pair);

    let ns = |cycles: u64| fpga.cycles_to_ns(cycles);
    let cpu_ns = |cycles: u64| cycles as f64 * 1e9 / cpu.clock_hz as f64;

    let rows = vec![
        vec![
            "On-chip MP".to_string(),
            format!("{:.0}", ns(t_req)),
            format!("{:.0}", ns(t_pair)),
        ],
        vec![
            "SW MP (L3 cache)".to_string(),
            format!("{:.0}", cpu_ns(cpu.l3_latency)),
            format!("{:.0}", 2.0 * cpu_ns(cpu.l3_latency)),
        ],
        vec![
            "SW MP (DDR3)".to_string(),
            format!("{:.0}", cpu_ns(cpu.dram_latency)),
            // Paper Table 3 charges two rounds of read+write per message:
            // 4 DRAM accesses per pair.
            format!("{:.0}", 4.0 * cpu_ns(cpu.dram_latency)),
        ],
    ];
    print_table(
        "Table 3: message-passing latencies (ns)",
        &["primitive", "one message", "req/resp pair"],
        &rows,
    );
    println!("\n(paper: on-chip 24/48, L3 20/40, DDR3 80/320)");

    json.value_row("onchip_one_message_ns", ns(t_req));
    json.value_row("onchip_pair_ns", ns(t_pair));
    json.value_row("sw_l3_one_message_ns", cpu_ns(cpu.l3_latency));
    json.value_row("sw_l3_pair_ns", 2.0 * cpu_ns(cpu.l3_latency));
    json.value_row("sw_ddr3_one_message_ns", cpu_ns(cpu.dram_latency));
    json.value_row("sw_ddr3_pair_ns", 4.0 * cpu_ns(cpu.dram_latency));
    json.write();
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Regression test for the measurement bug fixed above: the return leg
    /// must be a real `Response` echoing the request's (non-zero) sequence
    /// number — the old harness sent a second `Request` reusing `seq: 0`,
    /// which the worker glue's dedup would have discarded on a real run.
    #[test]
    fn return_leg_is_a_response_echoing_the_request_seq() {
        let pair = measure_onchip_pair(&FpgaConfig::default());
        assert!(
            matches!(pair.response.payload, Payload::Response(_)),
            "return leg must be a Response, not a second Request"
        );
        assert_eq!(
            pair.response.seq, 1,
            "response echoes the request's sequence number (and real \
             requests never use the reserved seq 0)"
        );
    }

    /// The measured pair latency is exactly two crossbar hops: the poll
    /// window for the return leg starts at the response's send cycle
    /// `t_req` (the old harness scanned from cycle 0, relying on the
    /// accident that nothing was deliverable earlier).
    #[test]
    fn pair_latency_is_two_hops() {
        let fpga = FpgaConfig::default();
        let pair = measure_onchip_pair(&fpga);
        assert_eq!(pair.t_req, fpga.noc_hop_latency);
        assert_eq!(pair.t_pair, 2 * fpga.noc_hop_latency);
        assert_eq!(
            pair.t_pair, 6,
            "default config: 3-cycle hop, 6 for the pair"
        );
    }
}
