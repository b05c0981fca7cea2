//! Epoch-parallel scheduler equivalence tests.
//!
//! `Machine::set_sim_threads(n)` with `n > 1` runs each partition worker
//! (softcore + coprocessor + DRAM bank + partition tables) on its own OS
//! thread inside epochs bounded by the per-pair NoC lookahead
//! (`Noc::min_latency`). The contract is the same as fast-forward's,
//! one level stronger: the parallel run must be *bit-for-bit identical* to
//! strict serial ticking — identical final cycle, identical DRAM image,
//! identical statistics on every component, and byte-identical
//! `MachineReport::to_json()` output — for ANY thread count, on any
//! workload, including runs that crash mid-flight under a `FaultPlan`.
//!
//! Every test here runs the same seeded workload under strict serial
//! stepping, serial fast-forward, and epoch-parallel at 2 and 4 threads,
//! and compares whole-machine snapshots plus raw report JSON bytes.

use bionicdb::worker::WorkerStats;
use bionicdb::{BionicConfig, FaultPlan, Machine, MachineReport, Topology};
use bionicdb_coproc::CoprocStats;
use bionicdb_fpga::dram::DramStats;
use bionicdb_noc::NocStats;
use bionicdb_softcore::SoftcoreStats;
use bionicdb_workloads::ycsb::{BlockPool, YcsbBionic, YcsbKind};
use bionicdb_workloads::{StdWorkload, TpccSpec, YcsbSpec};
use proptest::prelude::*;

/// How a run is scheduled. All modes must be observationally identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Strict single-cycle serial ticking.
    Strict,
    /// Serial fast-forward (PR 1 scheduler).
    Fast,
    /// Epoch-parallel with this many worker threads, per-pair (matrix)
    /// lookahead.
    Par(usize),
}

fn apply(m: &mut Machine, mode: Mode) {
    match mode {
        Mode::Strict => m.set_fast_forward(false),
        Mode::Fast => m.set_fast_forward(true),
        Mode::Par(n) => {
            m.set_fast_forward(true);
            m.set_sim_threads(n);
        }
    }
}

/// Everything observable about a machine after a run, plus the raw report
/// JSON bytes (the artifact `simperf --par` diffs).
#[derive(Debug, PartialEq)]
struct Snapshot {
    now: u64,
    crashed: bool,
    machine: bionicdb::MachineStats,
    dram: DramStats,
    noc: NocStats,
    dram_image: u64,
    workers: Vec<(SoftcoreStats, CoprocStats, WorkerStats)>,
    report: MachineReport,
    json: String,
}

fn snapshot(m: &Machine) -> Snapshot {
    let report = m.report();
    let json = report.to_json();
    Snapshot {
        now: m.now(),
        crashed: m.is_crashed(),
        machine: m.stats(),
        dram: m.dram_stats(),
        noc: m.noc().stats(),
        dram_image: m.dram().image_digest(),
        workers: (0..m.num_workers())
            .map(|w| {
                let pw = m.worker(w);
                (pw.softcore.stats(), pw.coproc.stats(), pw.stats())
            })
            .collect(),
        report,
        json,
    }
}

/// Assert two snapshots are bit-identical, with targeted messages for the
/// most diagnostic fields before the blanket comparison.
fn assert_identical(base: &Snapshot, other: &Snapshot, label: &str) {
    assert_eq!(
        base.now, other.now,
        "{label}: cycle counts diverge (base={}, other={})",
        base.now, other.now
    );
    assert_eq!(
        base.dram_image, other.dram_image,
        "{label}: DRAM images diverge"
    );
    assert_eq!(base.json, other.json, "{label}: report JSON bytes diverge");
    assert_eq!(base, other, "{label}: snapshots diverge");
}

/// Run the same seeded YCSB wave under a given mode.
fn ycsb_run(
    cfg: BionicConfig,
    spec: YcsbSpec,
    kinds: &[YcsbKind],
    txns_per_worker: usize,
    plan: Option<FaultPlan>,
    seed: u64,
    mode: Mode,
) -> Snapshot {
    let mut y = YcsbBionic::build(cfg, spec, 4);
    apply(&mut y.machine, mode);
    if let Some(p) = plan {
        y.machine.set_fault_plan(p);
    }
    let workers = y.machine.num_workers();
    let size = kinds
        .iter()
        .map(|&k| y.block_size(k))
        .max()
        .expect("at least one kind");
    let mut pools: Vec<BlockPool> = (0..workers)
        .map(|w| BlockPool::new(&mut y.machine, w, txns_per_worker, size))
        .collect();
    let mut rng = YcsbBionic::rng(seed);
    for (w, pool) in pools.iter_mut().enumerate() {
        for i in 0..txns_per_worker {
            let blk = pool.take();
            y.submit_txn(w, blk, kinds[i % kinds.len()], &mut rng);
        }
    }
    y.machine.run_to_quiescence();
    snapshot(&y.machine)
}

fn ycsb_all_modes(
    cfg: BionicConfig,
    spec: YcsbSpec,
    kinds: &[YcsbKind],
    txns_per_worker: usize,
    plan: Option<FaultPlan>,
    seed: u64,
    label: &str,
) -> Snapshot {
    let strict = ycsb_run(
        cfg.clone(),
        spec.clone(),
        kinds,
        txns_per_worker,
        plan.clone(),
        seed,
        Mode::Strict,
    );
    for mode in [Mode::Fast, Mode::Par(2), Mode::Par(4)] {
        let other = ycsb_run(
            cfg.clone(),
            spec.clone(),
            kinds,
            txns_per_worker,
            plan.clone(),
            seed,
            mode,
        );
        assert_identical(&strict, &other, &format!("{label} [{mode:?}]"));
    }
    strict
}

/// Crossbar topology: the minimum-lookahead case (L = hop latency).
#[test]
fn ycsb_crossbar_parallel_equivalence() {
    let strict = ycsb_all_modes(
        BionicConfig::small(4),
        YcsbSpec::tiny(),
        &[YcsbKind::ReadLocal, YcsbKind::UpdateLocal, YcsbKind::Scan],
        16,
        None,
        0xEA57,
        "ycsb crossbar",
    );
    assert!(strict.machine.committed > 0, "workload must commit");
}

/// Multisite: four workers on two chips, 75% remote — cross-worker NoC
/// traffic is what the epoch barrier actually has to get right.
#[test]
fn multisite_parallel_equivalence() {
    let cfg = BionicConfig {
        topology: Topology::MultiChip {
            workers_per_node: 2,
            inter_node_hops: 8,
        },
        ..BionicConfig::small(4)
    };
    let spec = YcsbSpec {
        remote_fraction: 0.75,
        ..YcsbSpec::tiny()
    };
    let strict = ycsb_all_modes(
        cfg,
        spec,
        &[YcsbKind::ReadHomed],
        24,
        None,
        0x3317E,
        "multisite",
    );
    assert!(strict.machine.committed > 0, "workload must commit");
    assert!(
        strict.workers.iter().any(|w| w.2.remote_requests > 0),
        "multisite run must actually go remote"
    );
}

/// Thread counts beyond the worker count must clamp, not diverge or hang.
#[test]
fn more_threads_than_workers_is_identical() {
    let strict = ycsb_run(
        BionicConfig::small(2),
        YcsbSpec::tiny(),
        &[YcsbKind::ReadLocal, YcsbKind::UpdateLocal],
        12,
        None,
        0x0DD,
        Mode::Strict,
    );
    let par = ycsb_run(
        BionicConfig::small(2),
        YcsbSpec::tiny(),
        &[YcsbKind::ReadLocal, YcsbKind::UpdateLocal],
        12,
        None,
        0x0DD,
        Mode::Par(16),
    );
    assert_identical(&strict, &par, "16 threads / 2 workers");
}

/// TPC-C NewOrder/Payment mix across four partitions.
#[test]
fn tpcc_parallel_equivalence() {
    use bionicdb_workloads::tpcc::TpccBionic;

    let run = |mode: Mode| -> Snapshot {
        let mut sys = TpccBionic::build(BionicConfig::small(4), TpccSpec::tiny());
        apply(&mut sys.machine, mode);
        let workers = sys.machine.num_workers();
        let mut rng = YcsbBionic::rng(0x7FCC);
        for w in 0..workers {
            for i in 0..12 {
                if i % 2 == 0 {
                    let blk = sys
                        .machine
                        .alloc_block(w, TpccBionic::neworder_block_size());
                    sys.submit_neworder(w, blk, &mut rng);
                } else {
                    let blk = sys.machine.alloc_block(w, TpccBionic::payment_block_size());
                    sys.submit_payment(w, blk, &mut rng);
                }
            }
        }
        sys.machine.run_to_quiescence();
        snapshot(&sys.machine)
    };

    let strict = run(Mode::Strict);
    assert!(strict.machine.committed > 0, "workload must commit");
    for mode in [Mode::Fast, Mode::Par(2), Mode::Par(4)] {
        assert_identical(&strict, &run(mode), &format!("tpcc [{mode:?}]"));
    }
}

/// NoC drops/delays plus DRAM transients under retry glue: the fault replay
/// (per-link ordinals, retransmit timers) must survive the epoch split.
#[test]
fn faulted_parallel_equivalence() {
    use bionicdb::NocRetryConfig;

    let cfg = BionicConfig {
        noc_retry: Some(NocRetryConfig {
            timeout_cycles: 1024,
            max_attempts: 4,
        }),
        ..BionicConfig::small(4)
    };
    let spec = YcsbSpec {
        remote_fraction: 0.8,
        ..YcsbSpec::tiny()
    };
    let mut plan = FaultPlan::none()
        .delay_nth_send(1, 40)
        .delay_nth_send(6, 13)
        .dram_transient(3, 17)
        .dram_transient(11, 9);
    for n in [2u64, 7, 12] {
        plan = plan.drop_nth_send(n);
    }
    let strict = ycsb_all_modes(
        cfg,
        spec,
        &[YcsbKind::ReadHomed],
        16,
        Some(plan),
        0xFA11,
        "faulted",
    );
    assert!(strict.machine.committed > 0, "workload must commit");
    assert!(
        strict.noc.dropped >= 1 && strict.noc.delayed >= 1,
        "faults actually fired: {:?}",
        strict.noc
    );
    assert!(
        strict.dram.transient_faults >= 1,
        "DRAM transients actually fired"
    );
}

/// A crash-at-cycle plan must stop the parallel run on exactly the same
/// cycle with exactly the same machine state as serial: the epoch horizon
/// is capped at `crash_at - 1` and the crash cycle itself ticks serially.
#[test]
fn crash_plan_parallel_equivalence() {
    // A crash landing mid-run; chosen so work is genuinely in flight.
    for crash_at in [150u64, 1_000, 5_000] {
        let plan = FaultPlan::none().crash_at(crash_at);
        let strict = ycsb_run(
            BionicConfig::small(4),
            YcsbSpec::tiny(),
            &[YcsbKind::ReadLocal, YcsbKind::UpdateLocal],
            24,
            Some(plan.clone()),
            0xC4A5,
            Mode::Strict,
        );
        for mode in [Mode::Fast, Mode::Par(2), Mode::Par(4)] {
            let other = ycsb_run(
                BionicConfig::small(4),
                YcsbSpec::tiny(),
                &[YcsbKind::ReadLocal, YcsbKind::UpdateLocal],
                24,
                Some(plan.clone()),
                0xC4A5,
                mode,
            );
            assert_identical(&strict, &other, &format!("crash@{crash_at} [{mode:?}]"));
        }
        if strict.crashed {
            assert_eq!(strict.now, crash_at, "crash stops on the crash cycle");
        }
    }
}

/// The Chrome trace export must also be byte-identical: parallel lanes
/// buffer events locally and the barrier merges them back into the serial
/// (cycle, worker) sink order.
#[test]
fn trace_bytes_identical_across_modes() {
    use bionicdb_fpga::ChromeTraceSink;

    let run = |mode: Mode| -> (Snapshot, String) {
        let mut y = YcsbBionic::build(BionicConfig::small(4), YcsbSpec::tiny(), 4);
        apply(&mut y.machine, mode);
        y.machine.set_trace_sink(Box::new(ChromeTraceSink::new()));
        let kinds = [YcsbKind::ReadLocal, YcsbKind::UpdateLocal, YcsbKind::Scan];
        let size = kinds.iter().map(|&k| y.block_size(k)).max().unwrap();
        let mut pools: Vec<BlockPool> = (0..4)
            .map(|w| BlockPool::new(&mut y.machine, w, 12, size))
            .collect();
        let mut rng = YcsbBionic::rng(0x7AACE);
        for (w, pool) in pools.iter_mut().enumerate() {
            for i in 0..12 {
                let blk = pool.take();
                y.submit_txn(w, blk, kinds[i % kinds.len()], &mut rng);
            }
        }
        y.machine.run_to_quiescence();
        let trace = y.machine.trace_json().expect("sink exports a trace");
        (snapshot(&y.machine), trace)
    };

    let (strict, strict_trace) = run(Mode::Strict);
    assert!(strict.machine.committed > 0, "workload must commit");
    for mode in [Mode::Fast, Mode::Par(2), Mode::Par(4)] {
        let (other, other_trace) = run(mode);
        assert_identical(&strict, &other, &format!("traced [{mode:?}]"));
        assert_eq!(strict_trace, other_trace, "trace bytes diverge [{mode:?}]");
    }
}

/// Run a [`StdWorkload`] wave through the generic bench driver under a
/// given mode and snapshot the machine.
fn std_workload_run(w: StdWorkload, txns_per_worker: usize, mode: Mode) -> Snapshot {
    let mut wl = w.build(BionicConfig::small(4));
    apply(wl.machine(), mode);
    bionicdb_bench::drive(&mut *wl, txns_per_worker);
    snapshot(wl.machine_ref())
}

/// Every workload behind the `Workload` trait — YCSB, TPC-C, SmallBank —
/// is byte-identical across strict serial, fast-forward, and
/// epoch-parallel schedules when driven by the one generic driver. New
/// workloads join this equivalence gate by appearing in
/// [`StdWorkload::ALL`]; SmallBank inherits it with zero engine changes.
#[test]
fn std_workloads_parallel_equivalence() {
    for w in StdWorkload::ALL {
        let strict = std_workload_run(w, 8, Mode::Strict);
        assert!(strict.machine.committed > 0, "{w:?}: workload must commit");
        for mode in [Mode::Fast, Mode::Par(2), Mode::Par(4)] {
            let other = std_workload_run(w, 8, mode);
            assert_identical(&strict, &other, &format!("{w:?} [{mode:?}]"));
        }
    }
}

/// Every workload × Ring and MultiChip topologies × 1/2/4 threads — all
/// byte-identical to strict serial. This is the sweep the per-pair
/// lookahead matrix must survive: Ring gives every pair a different
/// latency, MultiChip makes near and far pairs differ by 25×.
#[test]
fn std_workloads_topology_lookahead_sweep() {
    let topologies = [
        Topology::Ring,
        Topology::MultiChip {
            workers_per_node: 2,
            inter_node_hops: 25,
        },
    ];
    for topo in topologies {
        for w in StdWorkload::ALL {
            let cfg = BionicConfig {
                topology: topo,
                ..BionicConfig::small(4)
            };
            let run = |mode: Mode| -> Snapshot {
                let mut wl = w.build(cfg.clone());
                apply(wl.machine(), mode);
                bionicdb_bench::drive(&mut *wl, 5);
                snapshot(wl.machine_ref())
            };
            let strict = run(Mode::Strict);
            assert!(strict.machine.committed > 0, "{w:?}: workload must commit");
            for mode in [Mode::Par(1), Mode::Par(2), Mode::Par(4)] {
                assert_identical(&strict, &run(mode), &format!("{w:?} {topo:?} [{mode:?}]"));
            }
        }
    }
}

/// Lane activity (rounds, epoch-length histograms, barrier idle) is
/// populated by parallel runs yet *bit-inert*: the machine snapshot and
/// report JSON stay byte-identical to strict serial, which never touches
/// it.
#[test]
fn lane_activity_populated_and_bit_inert() {
    let cfg = BionicConfig {
        topology: Topology::MultiChip {
            workers_per_node: 2,
            inter_node_hops: 8,
        },
        ..BionicConfig::small(4)
    };
    let spec = YcsbSpec {
        remote_fraction: 0.5,
        ..YcsbSpec::tiny()
    };
    let run = |mode: Mode| -> (Snapshot, u64, u64, u64) {
        let mut y = YcsbBionic::build(cfg.clone(), spec.clone(), 4);
        apply(&mut y.machine, mode);
        let size = y.block_size(YcsbKind::ReadHomed);
        let mut pools: Vec<BlockPool> = (0..4)
            .map(|w| BlockPool::new(&mut y.machine, w, 12, size))
            .collect();
        let mut rng = YcsbBionic::rng(0x1A7E);
        for (w, pool) in pools.iter_mut().enumerate() {
            for _ in 0..12 {
                let blk = pool.take();
                y.submit_txn(w, blk, YcsbKind::ReadHomed, &mut rng);
            }
        }
        y.machine.run_to_quiescence();
        let rounds = y.machine.epoch_rounds();
        let lane_rounds: u64 = y.machine.lane_activity().iter().map(|l| l.rounds).sum();
        let spans: u64 = y
            .machine
            .lane_activity()
            .iter()
            .map(|l| l.epoch_len.count())
            .sum();
        (snapshot(&y.machine), rounds, lane_rounds, spans)
    };
    let (strict, s_rounds, s_lane_rounds, s_spans) = run(Mode::Strict);
    assert_eq!(
        (s_rounds, s_lane_rounds, s_spans),
        (0, 0, 0),
        "serial runs never touch lane activity"
    );
    let (par, p_rounds, p_lane_rounds, p_spans) = run(Mode::Par(2));
    assert!(
        p_rounds > 0 && p_lane_rounds > 0 && p_spans > 0,
        "parallel run populates lane activity (rounds={p_rounds}, lane_rounds={p_lane_rounds}, spans={p_spans})"
    );
    assert_identical(&strict, &par, "lane-activity bit-inertness");
}

/// The point of the lookahead matrix: five workers on three chips
/// ({0,1}, {2,3}, {4}), with worker 4 alone on its chip grinding a long
/// local-only backlog while the four peers retire two local reads each
/// and go idle. A single global horizon is the cheapest pair anywhere —
/// the 3-cycle same-chip links on the full chips — so it would
/// barrier-step the hot lane every `Lmin` cycles forever. The per-pair
/// matrix knows the only way worker 4 can be affected is its own traffic
/// bouncing off a remote chip (a 150-cycle round trip), so its epochs run
/// ~50× longer: same bytes out, at least 5× fewer rounds.
#[test]
fn matrix_lookahead_reduces_rounds_on_multichip() {
    let cfg = BionicConfig {
        topology: Topology::MultiChip {
            workers_per_node: 2,
            inter_node_hops: 25,
        },
        ..BionicConfig::small(5)
    };
    let spec = YcsbSpec::tiny();
    let run = |mode: Mode| -> (Snapshot, u64) {
        let mut y = YcsbBionic::build(cfg.clone(), spec.clone(), 4);
        apply(&mut y.machine, mode);
        let size = y
            .block_size(YcsbKind::UpdateLocal)
            .max(y.block_size(YcsbKind::ReadLocal));
        let mut pools: Vec<BlockPool> = (0..5)
            .map(|w| BlockPool::new(&mut y.machine, w, 40, size))
            .collect();
        let mut rng = YcsbBionic::rng(0x5EED);
        // Worker 4 grinds through a long local-only backlog; the rest
        // retire a couple of local reads and go idle (local, so their
        // lanes genuinely quiesce instead of waiting on the hot worker).
        for _ in 0..40 {
            let blk = pools[4].take();
            y.submit_txn(4, blk, YcsbKind::UpdateLocal, &mut rng);
        }
        for (w, pool) in pools.iter_mut().enumerate().take(4) {
            for _ in 0..2 {
                let blk = pool.take();
                y.submit_txn(w, blk, YcsbKind::ReadLocal, &mut rng);
            }
        }
        y.machine.run_to_quiescence();
        (snapshot(&y.machine), y.machine.epoch_rounds())
    };
    let (matrix, matrix_rounds) = run(Mode::Par(2));
    let (serial, _) = run(Mode::Fast);
    assert_identical(&serial, &matrix, "matrix lookahead vs serial");
    // 10,077: the rounds this exact scenario took under the retired
    // global-minimum horizon (`GVT + Lmin - 1` for every lane), measured
    // by this test on the last build that still had that mode, against
    // 620 for the matrix.
    assert!(
        matrix_rounds * 5 <= 10_077,
        "per-pair lookahead should need at least 5x fewer barriers than the \
         recorded global horizon (matrix={matrix_rounds}, global=10077)"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Any workload family, any topology, any per-worker wave size: serial
    /// and epoch-parallel runs through the generic driver stay
    /// byte-identical.
    #[test]
    fn arbitrary_std_workload_waves_byte_identical(
        which in 0usize..StdWorkload::ALL.len(),
        topo in 0usize..3,
        txns in 1usize..10,
        threads in 1usize..5,
    ) {
        let w = StdWorkload::ALL[which];
        let topology = [
            Topology::Crossbar,
            Topology::Ring,
            Topology::MultiChip { workers_per_node: 2, inter_node_hops: 25 },
        ][topo];
        let cfg = BionicConfig { topology, ..BionicConfig::small(4) };
        let run = |mode: Mode| -> Snapshot {
            let mut wl = w.build(cfg.clone());
            apply(wl.machine(), mode);
            bionicdb_bench::drive(&mut *wl, txns);
            snapshot(wl.machine_ref())
        };
        let serial = run(Mode::Fast);
        let mode = Mode::Par(threads);
        let par = run(mode);
        prop_assert_eq!(&serial.now, &par.now, "cycle counts diverge [{:?} {:?}]", w, mode);
        prop_assert_eq!(&serial.json, &par.json, "report JSON diverges [{:?} {:?}]", w, mode);
        prop_assert_eq!(&serial, &par);
    }

    /// Arbitrary interleavings across four workers, arbitrary crash cycles:
    /// serial strict, serial fast-forward, and epoch-parallel at 2 and 4
    /// threads all produce byte-identical report JSON.
    #[test]
    fn arbitrary_runs_byte_identical(
        seed in 0u64..u64::MAX,
        ops in proptest::collection::vec((0usize..4, 0usize..4), 1..20),
        crash_raw in 0u64..20_000,
    ) {
        // Values below 100 mean "no crash"; the rest are crash cycles.
        let crash = (crash_raw >= 100).then_some(crash_raw);
        let run = |mode: Mode| -> Snapshot {
            let mut y = YcsbBionic::build(BionicConfig::small(4), YcsbSpec::tiny(), 4);
            apply(&mut y.machine, mode);
            if let Some(c) = crash {
                y.machine.set_fault_plan(FaultPlan::none().crash_at(c));
            }
            let kinds = [
                YcsbKind::ReadLocal,
                YcsbKind::UpdateLocal,
                YcsbKind::Scan,
                YcsbKind::ReadHomed,
            ];
            let size = kinds.iter().map(|&k| y.block_size(k)).max().unwrap();
            let mut pools: Vec<BlockPool> = (0..4)
                .map(|w| BlockPool::new(&mut y.machine, w, ops.len(), size))
                .collect();
            let mut rng = YcsbBionic::rng(seed);
            for &(w, k) in &ops {
                let blk = pools[w].take();
                y.submit_txn(w, blk, kinds[k], &mut rng);
            }
            y.machine.run_to_quiescence();
            snapshot(&y.machine)
        };
        let strict = run(Mode::Strict);
        for mode in [Mode::Fast, Mode::Par(2), Mode::Par(4)] {
            let other = run(mode);
            prop_assert_eq!(&strict.now, &other.now, "cycle counts diverge [{:?}]", mode);
            prop_assert_eq!(&strict.dram_image, &other.dram_image, "DRAM images diverge [{:?}]", mode);
            prop_assert_eq!(&strict.json, &other.json, "report JSON diverges [{:?}]", mode);
            prop_assert_eq!(&strict, &other);
        }
    }
}
