//! The closed-loop replica of a serving machine: the same configuration
//! and database the serving engine builds, driven as one preloaded wave
//! (the `probe_hw_variant` procedure) so `Machine::report()` can describe
//! the hardware layers. `BionicServeEngine` does not expose its machine,
//! so the replica is how the per-layer simulated counters are read.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use bionicdb::{MachineReport, TxnBlock};
use bionicdb_bench::serve::hw::{hw_config, hw_workload, CHAINED_HASH_BUCKETS};
use bionicdb_fpga::obs::{TraceSink, TxnEvent};
use bionicdb_workloads::abi::YcsbWorkload;
use bionicdb_workloads::spec::YcsbSpec;
use bionicdb_workloads::ycsb::{YcsbBionic, YcsbKind};
use bionicdb_workloads::{ServeKind, Workload};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::trace::{span, Spans};

/// Build the workload a serving run of `kind` executes, exactly as the
/// hardware serving engine does: `chained` swaps YCSB-C's index for the
/// long-chain table, `cross_txn` arms cross-transaction index batching.
pub fn build(
    kind: ServeKind,
    workers: usize,
    cross_txn: Option<usize>,
    chained: bool,
) -> Box<dyn Workload> {
    let cfg = hw_config(kind, workers, cross_txn);
    if chained {
        let spec = YcsbSpec {
            hash_buckets: Some(CHAINED_HASH_BUCKETS),
            ..YcsbSpec::tiny()
        };
        Box::new(YcsbWorkload {
            sys: YcsbBionic::build(cfg, spec, 12),
            kind: YcsbKind::ReadHomed,
        })
    } else {
        hw_workload(kind).build(cfg)
    }
}

/// What one wave left behind.
pub struct Wave {
    /// Transactions committed.
    pub committed: u64,
    /// Simulated cycles the wave took (from an empty machine).
    pub cycles: u64,
    /// FPGA clock, Hz.
    pub clock_hz: u64,
    /// The machine's full report after the wave.
    pub report: MachineReport,
}

impl Wave {
    /// Committed transactions per simulated second.
    pub fn tps(&self) -> f64 {
        self.committed.max(1) as f64 * self.clock_hz as f64 / self.cycles.max(1) as f64
    }
}

/// Preload `txns_per_worker` transactions per worker (blocks allocated
/// worker-major, parameters drawn from one RNG seeded with `seed` in
/// submission order) and run the machine to quiescence.
pub fn run_wave(
    w: &mut dyn Workload,
    txns_per_worker: usize,
    seed: u64,
    spans: &mut Option<&mut Spans>,
) -> Wave {
    w.machine().set_fast_forward(true);
    let workers = w.machine_ref().num_workers();
    span(spans, "workloads.submit", || {
        let mut blocks: Vec<(usize, usize, TxnBlock)> = Vec::new();
        for wk in 0..workers {
            for i in 0..txns_per_worker {
                let size = w.block_size(wk, i);
                blocks.push((wk, i, w.machine().alloc_block(wk, size)));
            }
        }
        let mut rng = SmallRng::seed_from_u64(seed);
        for (wk, i, blk) in blocks {
            w.submit(wk, i, blk, &mut rng);
        }
    });
    span(spans, "core.run", || w.machine().run_to_quiescence());
    let m = w.machine_ref();
    let stats = m.stats();
    Wave {
        committed: stats.committed,
        cycles: stats.now,
        clock_hz: m.config().fpga.clock_hz,
        report: m.report(),
    }
}

/// A trace sink that hands every finished transaction's lifecycle
/// timestamps back to the benchmark, for exact per-phase percentiles.
#[derive(Clone, Default)]
pub struct EventSink(pub Arc<Mutex<Vec<TxnEvent>>>);

impl TraceSink for EventSink {
    fn enabled(&self) -> bool {
        true
    }

    fn txn(&mut self, ev: &TxnEvent) {
        self.0.lock().expect("event sink").push(*ev);
    }
}

/// The epoch-parallel scheduler's activity over one threaded wave.
pub struct ParWave {
    /// The wave itself (its report must equal the serial wave's).
    pub wave: Wave,
    /// Epoch rounds the coordinator ran.
    pub epoch_rounds: u64,
    /// Component ticks, summed over lanes.
    pub lane_ticks: u64,
    /// Fast-forwarded cycles, summed over lanes.
    pub lane_skips: u64,
    /// Median epoch length over every lane's epochs, cycles (log2
    /// histogram, interpolated inside its bucket).
    pub epoch_len_p50: f64,
    /// Share of lane wall time spent waiting at round barriers.
    pub barrier_idle_frac: f64,
}

/// Run the same wave on `threads` simulation threads, through the
/// epoch-parallel scheduler (`machine/par.rs`).
pub fn run_par_wave(
    w: &mut dyn Workload,
    txns_per_worker: usize,
    seed: u64,
    threads: usize,
    spans: &mut Option<&mut Spans>,
) -> ParWave {
    w.machine().set_sim_threads(threads);
    let t0 = Instant::now();
    let wave = run_wave(w, txns_per_worker, seed, spans);
    let wall_ns = t0.elapsed().as_nanos() as f64;
    let m = w.machine_ref();
    let lanes = m.lane_activity();
    let mut epoch_len = bionicdb_fpga::obs::LatencyHistogram::new();
    for l in lanes {
        epoch_len.merge(&l.epoch_len);
    }
    let idle: u64 = lanes.iter().map(|l| l.barrier_idle_ns).sum();
    ParWave {
        epoch_rounds: m.epoch_rounds(),
        lane_ticks: lanes.iter().map(|l| l.ticks).sum(),
        lane_skips: lanes.iter().map(|l| l.skips).sum(),
        epoch_len_p50: epoch_len.p50(),
        barrier_idle_frac: idle as f64 / (wall_ns * lanes.len().max(1) as f64),
        wave,
    }
}
