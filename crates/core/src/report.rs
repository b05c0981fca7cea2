//! The machine-wide observability report: one structure that gathers every
//! counter the simulator keeps — per-phase latency histograms, abort
//! attribution, pipeline stage activity, NoC link utilization, and DRAM
//! per-port occupancy — plus a hand-rolled JSON serializer so benchmark
//! binaries can dump machine-readable results without any external
//! dependency.
//!
//! Everything in a [`MachineReport`] is collected from counters that are
//! updated at event time (issue, send, poll, retire), never from the
//! scheduler, so a report taken after a strict run is identical to one
//! taken after a fast-forward run of the same workload
//! (`tests/fast_forward.rs` asserts this structure-deep).

use bionicdb_fpga::dram::{DramStats, PortStats};
use bionicdb_fpga::stats::StageStats;
use bionicdb_noc::{LinkStats, NocStats};
use bionicdb_softcore::core::SoftcoreObs;
use bionicdb_softcore::SoftcoreStats;

use crate::machine::{Machine, MachineStats};
use crate::worker::WorkerStats;

/// Everything one worker reports: softcore counters, its observability
/// histograms, the channel-glue counters, and the named pipeline stages of
/// its index coprocessor.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerReport {
    /// Softcore execution counters.
    pub softcore: SoftcoreStats,
    /// Per-phase latency histograms and abort attribution.
    pub obs: SoftcoreObs,
    /// Channel-glue counters (remote traffic, retries, dedup).
    pub glue: WorkerStats,
    /// Named coprocessor pipeline stages with busy/stalled/idle cycles.
    pub stages: Vec<(String, StageStats)>,
}

/// The full machine observability report. `PartialEq` is derived so the
/// fast-forward equivalence tests can compare strict and skipping runs in
/// one assertion.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineReport {
    /// Cycle at which the report was taken.
    pub now: u64,
    /// The aggregate counters ([`Machine::stats`]).
    pub stats: MachineStats,
    /// All workers' observability histograms merged into one.
    pub obs: SoftcoreObs,
    /// Per-worker breakdown.
    pub workers: Vec<WorkerReport>,
    /// Interconnect aggregate counters.
    pub noc: NocStats,
    /// Per-destination link counters.
    pub links: Vec<LinkStats>,
    /// DRAM aggregate counters.
    pub dram: DramStats,
    /// Per-port DRAM traffic and bus occupancy.
    pub ports: Vec<PortStats>,
}

impl MachineReport {
    /// Gather the report from a machine (read-only).
    pub fn collect(m: &Machine) -> MachineReport {
        let mut obs = SoftcoreObs::default();
        let mut workers = Vec::with_capacity(m.num_workers());
        for w in 0..m.num_workers() {
            let worker = m.worker(w);
            obs.merge(worker.softcore.obs());
            workers.push(WorkerReport {
                softcore: worker.softcore.stats(),
                obs: worker.softcore.obs().clone(),
                glue: worker.stats(),
                stages: worker.coproc.stage_report(),
            });
        }
        MachineReport {
            now: m.now(),
            stats: m.stats(),
            obs,
            workers,
            noc: m.noc().stats(),
            links: m.noc().link_stats().to_vec(),
            dram: m.dram_stats(),
            ports: m.dram_ports(),
        }
    }

    /// Serialize the whole report as a JSON object. Hand-rolled (the build
    /// is offline; no serde): keys are emitted in a fixed order so two
    /// identical runs produce byte-identical dumps — the determinism smoke
    /// test in `scripts/check.sh` relies on this.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut o = String::with_capacity(4096);
        let s = &self.stats;
        let _ = write!(
            o,
            "{{\"now\":{},\"committed\":{},\"aborted\":{},\"batches\":{},\
             \"db_insts\":{},\"cpu_insts\":{},\"resubmits\":{},\"fault_aborts\":{}",
            self.now,
            s.committed,
            s.aborted,
            s.batches,
            s.db_insts,
            s.cpu_insts,
            s.resubmits,
            s.fault_aborts
        );
        o.push_str(",\"abort_reasons\":{");
        s.abort_reasons.write_json_fields(&mut o);
        o.push('}');

        o.push_str(",\"latency\":{");
        write_obs_json(&self.obs, &mut o);
        o.push('}');

        let n = &self.noc;
        let _ = write!(
            o,
            ",\"noc\":{{\"sent\":{},\"delivered\":{},\"dropped\":{},\"rejected\":{},\
             \"delayed\":{},\"total_latency\":{},\"links\":[",
            n.sent, n.delivered, n.dropped, n.rejected, n.delayed, n.total_latency
        );
        for (i, l) in self.links.iter().enumerate() {
            if i > 0 {
                o.push(',');
            }
            let _ = write!(
                o,
                "{{\"sent\":{},\"delivered\":{},\"queue_high_water\":{}}}",
                l.sent, l.delivered, l.queue_high_water
            );
        }
        o.push_str("]}");

        let d = &self.dram;
        let _ = write!(
            o,
            ",\"dram\":{{\"reads\":{},\"writes\":{},\"bytes\":{},\"rejections\":{},\
             \"transient_faults\":{},\"ports\":[",
            d.reads, d.writes, d.bytes, d.rejections, d.transient_faults
        );
        for (i, p) in self.ports.iter().enumerate() {
            if i > 0 {
                o.push(',');
            }
            let _ = write!(
                o,
                "{{\"reads\":{},\"writes\":{},\"bytes\":{},\"occupancy_cycles\":{}",
                p.reads, p.writes, p.bytes, p.occupancy_cycles
            );
            // MLP occupancy is sampled only when the machine enables
            // `Dram::set_mlp_tracking` (batch mode); emitting the histogram
            // conditionally keeps default-config reports byte-identical to
            // pre-batching builds.
            if p.mlp_peak > 0 {
                o.push_str(",\"mlp\":{\"peak\":");
                let _ = write!(o, "{}", p.mlp_peak);
                o.push_str(",\"hist\":[");
                for (j, c) in p.mlp_hist.iter().enumerate() {
                    if j > 0 {
                        o.push(',');
                    }
                    let _ = write!(o, "{c}");
                }
                o.push_str("]}");
            }
            o.push('}');
        }
        o.push_str("]}");

        o.push_str(",\"workers\":[");
        for (i, w) in self.workers.iter().enumerate() {
            if i > 0 {
                o.push(',');
            }
            let sc = &w.softcore;
            let g = &w.glue;
            let _ = write!(
                o,
                "{{\"id\":{i},\"committed\":{},\"aborted\":{},\"batches\":{},\
                 \"db_insts\":{},\"cpu_insts\":{},\"switches\":{},\
                 \"cp_stall_cycles\":{},\"mem_stall_cycles\":{},\
                 \"local_requests\":{},\"remote_requests\":{},\
                 \"background_requests\":{},\"retries_sent\":{},\
                 \"retry_exhausted\":{}",
                sc.committed,
                sc.aborted,
                sc.batches,
                sc.db_insts,
                sc.cpu_insts,
                sc.switches,
                sc.cp_stall_cycles,
                sc.mem_stall_cycles,
                g.local_requests,
                g.remote_requests,
                g.background_requests,
                g.retries_sent,
                g.retry_exhausted
            );
            o.push_str(",\"latency\":{");
            write_obs_json(&w.obs, &mut o);
            o.push('}');
            o.push_str(",\"stages\":[");
            for (j, (name, st)) in w.stages.iter().enumerate() {
                if j > 0 {
                    o.push(',');
                }
                let _ = write!(
                    o,
                    "{{\"name\":\"{}\",\"busy\":{},\"stalled\":{},\"idle\":{},\"items\":{}}}",
                    bionicdb_fpga::obs::json_escape(name),
                    st.busy,
                    st.stalled,
                    st.idle,
                    st.items
                );
            }
            o.push_str("]}");
        }
        o.push_str("]}");
        o
    }
}

/// Append a [`SoftcoreObs`]'s histograms as JSON object members (no outer
/// braces): one object per phase plus the abort-reason counters.
fn write_obs_json(obs: &SoftcoreObs, o: &mut String) {
    let phases: [(&str, &bionicdb_fpga::LatencyHistogram); 7] = [
        ("queue_wait", &obs.queue_wait),
        ("logic", &obs.logic),
        ("commit_wait", &obs.commit_wait),
        ("commit", &obs.commit),
        ("txn_commit", &obs.txn_commit),
        ("txn_abort", &obs.txn_abort),
        ("db_op", &obs.db_op),
    ];
    for (i, (name, h)) in phases.iter().enumerate() {
        if i > 0 {
            o.push(',');
        }
        o.push('"');
        o.push_str(name);
        o.push_str("\":{");
        h.write_json_fields(o);
        o.push('}');
    }
    o.push_str(",\"abort_reasons\":{");
    obs.abort_reasons.write_json_fields(o);
    o.push('}');
}

#[cfg(test)]
mod tests {
    #[test]
    fn empty_machine_report_serializes_to_valid_shape() {
        let mut b = crate::machine::SystemBuilder::new(crate::config::BionicConfig::small(2));
        b.table(bionicdb_softcore::TableMeta::hash("t", 8, 8, 1 << 8));
        let m = b.build();
        let r = m.report();
        let j = r.to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert_eq!(
            j.matches('{').count(),
            j.matches('}').count(),
            "balanced braces"
        );
        assert!(j.contains("\"latency\""));
        assert!(j.contains("\"queue_wait\""));
        assert!(j.contains("\"abort_reasons\""));
        assert!(j.contains("\"links\""));
        assert!(j.contains("\"ports\""));
        assert_eq!(r.workers.len(), 2);
    }

    #[test]
    fn report_is_deterministic_for_identical_runs() {
        let run = || {
            let mut b = crate::machine::SystemBuilder::new(crate::config::BionicConfig::small(1));
            let t = b.table(bionicdb_softcore::TableMeta::hash("kv", 8, 16, 1 << 8));
            let p = b.proc(
                bionicdb_softcore::asm::assemble(
                    "proc read1\nlogic:\n    search 0, 0, c0\ncommit:\n    ret g0, c0\n    cmp g0, 0\n    blt abort\n    commit\nabort:\n    abort\n",
                )
                .unwrap(),
            );
            let mut m = b.build();
            m.loader(0).insert(t, &7u64.to_be_bytes(), &[9u8; 16]);
            let blk = m.alloc_block(0, 128);
            m.init_block(blk, p);
            m.write_block(blk, 0, &7u64.to_be_bytes());
            m.submit(0, blk);
            m.run_to_quiescence_limit(1 << 22);
            m.report().to_json()
        };
        assert_eq!(run(), run(), "byte-identical JSON across identical runs");
    }
}
