//! The BionicDB hardware serving engine: open-loop traffic into the
//! cycle-accurate machine (DESIGN.md §17).
//!
//! Where the Silo engine runs each transaction body inline against the
//! core model ([`Dispatch::Done`]), this engine is genuinely concurrent:
//! [`ServeEngine::dispatch`] steps the [`Machine`](bionicdb::Machine) to
//! the arrival's simulated cycle and enters the transaction through
//! [`Machine::submit`](bionicdb::Machine::submit) — mid-run, with earlier
//! dispatches still in the softcores' interleaving batches — and returns
//! [`Dispatch::Pending`]. Completions surface from
//! [`ServeEngine::advance`], which walks the machine's clock forward in
//! bounded chunks ([`ADVANCE_CHUNK_CYCLES`]) and watches each in-flight
//! block's header word. A committed block reports its *exact* commit
//! cycle (the high bits of the hardware commit timestamp, which the
//! writeback stamps as `(cycle << 10) | worker`); an aborted block
//! settles at the detection cycle, chunk-granular, mirroring how the
//! host would poll a completion ring.
//!
//! ## Virtual-time contract
//!
//! The front end's clock is nanoseconds; the machine's is FPGA cycles at
//! [`bionicdb_fpga::timing::FpgaConfig::clock_hz`]. Both conversions
//! floor, so they are monotone and a completion bounded by `advance`'s
//! `to_ns` target never reports past it. Service time is charged from
//! dispatch to completion — on hardware the "server" is a softcore
//! context slot, occupied for exactly that window.
//!
//! ## Determinism
//!
//! Dispatch order is the front end's (a pure function of `ServeConfig`),
//! worker routing is least-outstanding with lowest-id ties, transaction
//! parameters draw from one `SmallRng` in dispatch order, and the machine
//! itself is deterministic under every schedule (`step_until` composes
//! with fast-forward and epoch-parallel execution byte-identically — see
//! `crates/bench/tests/inject.rs`). A fixed seed therefore yields a
//! byte-identical [`ServeSummary`](super::ServeSummary), which the
//! `goldencheck` `serve_hw` golden pins.

use std::collections::HashMap;

use bionicdb::{BatchMode, BionicConfig, TxnBlock, TxnStatus};
use bionicdb_workloads::abi::YcsbWorkload;
use bionicdb_workloads::spec::YcsbSpec;
use bionicdb_workloads::ycsb::{YcsbBionic, YcsbKind};
use bionicdb_workloads::{ServeKind, StdWorkload, TpccMix, Workload};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use super::engine::{Completion, Dispatch, ServeEngine};
use super::queue::Ticket;
use super::ServeConfig;

/// Cycles advanced per `step_until` call inside [`ServeEngine::advance`]:
/// the completion-detection granularity for *aborts* (commits report
/// their exact hardware cycle regardless). 512 cycles ≈ 4 µs at the
/// default 125 MHz clock — far below any deadline worth measuring.
pub const ADVANCE_CHUNK_CYCLES: u64 = 512;

/// Seed decorrelation constant for the transaction-parameter stream
/// (the arrival stream uses `cfg.seed` directly).
const TXN_SEED_XOR: u64 = 0xB10D_B10D_B10D_B10D;

/// Map a serving mix onto the matching BionicDB workload. The same five
/// systems the Silo serving engine drives, through the `Workload` ABI.
pub fn hw_workload(kind: ServeKind) -> StdWorkload {
    match kind {
        ServeKind::YcsbC => StdWorkload::Ycsb(YcsbKind::ReadHomed),
        ServeKind::YcsbScan => StdWorkload::Ycsb(YcsbKind::Scan),
        ServeKind::TpccMixed => StdWorkload::Tpcc(TpccMix::Mixed),
        ServeKind::TpccPayment => StdWorkload::Tpcc(TpccMix::PaymentOnly),
        ServeKind::SmallBank => StdWorkload::SmallBank,
    }
}

/// Per-workload softcore batch depth, mirroring the closed-loop bench
/// builders: write-heavy hot-record mixes keep a small conflict window,
/// read-dominated YCSB interleaves deep.
fn hw_max_batch(kind: ServeKind) -> usize {
    match kind {
        ServeKind::YcsbC | ServeKind::YcsbScan => 8,
        ServeKind::TpccMixed | ServeKind::TpccPayment | ServeKind::SmallBank => 2,
    }
}

/// Server slots the hardware engine exposes: one per softcore context
/// slot (`workers × max_batch` transactions genuinely in flight). Sweep
/// bins size `ServeConfig::servers` (and thus queue capacity) with this.
pub fn hw_servers(kind: ServeKind, workers: usize) -> usize {
    workers * hw_max_batch(kind)
}

/// The machine configuration one serving run executes on. `cross_txn`
/// arms `BatchMode::CrossTxn` so flushed front-end groups ride the batch
/// engines' DRAM waves together ([`super::engine::BatchPolicy`] feeds the
/// producer side); `None` keeps the bit-inert unbatched index path.
pub fn hw_config(kind: ServeKind, workers: usize, cross_txn: Option<usize>) -> BionicConfig {
    let mut cfg = BionicConfig::small(workers);
    cfg.max_batch = hw_max_batch(kind);
    if let Some(width) = cross_txn {
        cfg.batch_mode = BatchMode::CrossTxn;
        cfg.batch_width = width;
    }
    cfg
}

/// Hash buckets for the *chained* YCSB-C serving variant: ~16 records
/// per chain at the tiny spec's 2 000 records/partition, so every point
/// read is a multi-hop pointer chase. This is the regime the batched
/// level-wise traversal engines (DESIGN.md §16) exist for — short-chain
/// stock YCSB resolves in one hop and wave formation only adds latency
/// there (measured ~0.85x), while 16-deep chains give CrossTxn waves
/// ~1.8x capacity at width 4. The batched-admission serving claim runs
/// on this variant for exactly that reason.
pub const CHAINED_HASH_BUCKETS: u64 = 128;

/// Build the workload a hardware serving run executes. `chained_hash`
/// swaps YCSB-C's index for the [`CHAINED_HASH_BUCKETS`] long-chain
/// table (ignored for every other kind, which have no such ablation).
fn build_workload(
    kind: ServeKind,
    workers: usize,
    cross_txn: Option<usize>,
    chained_hash: bool,
) -> Box<dyn Workload> {
    if chained_hash && kind == ServeKind::YcsbC {
        let spec = YcsbSpec {
            hash_buckets: Some(CHAINED_HASH_BUCKETS),
            ..YcsbSpec::tiny()
        };
        Box::new(YcsbWorkload {
            sys: YcsbBionic::build(hw_config(kind, workers, cross_txn), spec, 12),
            kind: YcsbKind::ReadHomed,
        })
    } else {
        hw_workload(kind).build(hw_config(kind, workers, cross_txn))
    }
}

/// A dispatched transaction whose block is live inside the machine.
struct InFlight {
    tk: Ticket,
    blk: TxnBlock,
    worker: usize,
    /// Front-end dispatch time (service time is charged from here).
    dispatch_ns: u64,
}

/// Capacity probe result for one hardware serving setup.
#[derive(Debug, Clone, Copy)]
pub struct HwProbe {
    /// Committed transactions per second of a fully loaded machine.
    pub capacity_per_sec: f64,
    /// Mean in-system latency at full load (Little's law over the
    /// machine's context slots), nanoseconds — the scale deadlines are
    /// set against.
    pub mean_latency_ns: f64,
}

/// Measure the machine's closed-loop capacity for `kind`: preload
/// `txns_per_worker` transactions per worker (the legacy batch path the
/// injection proptest pins against), run to quiescence, and convert the
/// committed throughput at the FPGA clock. Deterministic for a fixed
/// build — the probe runs on its own machine so the serving run starts
/// from identically prepared state. `chained_hash` probes the long-chain
/// YCSB-C table ([`CHAINED_HASH_BUCKETS`]) instead of the stock one.
pub fn probe_hw_variant(
    kind: ServeKind,
    workers: usize,
    txns_per_worker: usize,
    chained_hash: bool,
) -> HwProbe {
    let mut w = build_workload(kind, workers, None, chained_hash);
    w.machine().set_fast_forward(true);
    let mut blocks = Vec::with_capacity(workers * txns_per_worker);
    for wk in 0..workers {
        for i in 0..txns_per_worker {
            let size = w.block_size(wk, i);
            let blk = w.machine().alloc_block(wk, size);
            blocks.push((wk, i, blk));
        }
    }
    let mut rng = SmallRng::seed_from_u64(w.seed());
    for &(wk, i, blk) in &blocks {
        w.submit(wk, i, blk, &mut rng);
    }
    w.machine().run_to_quiescence();
    let stats = w.machine_ref().stats();
    let clock_hz = w.machine_ref().config().fpga.clock_hz;
    let committed = stats.committed.max(1);
    let cycles = stats.now.max(1);
    let capacity = committed as f64 * clock_hz as f64 / cycles as f64;
    let slots = (workers * hw_max_batch(kind)) as f64;
    HwProbe {
        capacity_per_sec: capacity,
        mean_latency_ns: slots * 1e9 / capacity,
    }
}

/// The asynchronous [`ServeEngine`] over the cycle-accurate machine.
pub struct BionicServeEngine {
    w: Box<dyn Workload>,
    clock_hz: u64,
    servers: usize,
    workers: usize,
    rng_txn: SmallRng,
    /// Dispatches begun, also the wave index fed to `Workload::submit`
    /// (monotone, so per-worker generator state never sees a duplicate —
    /// retried tickets get fresh transaction parameters, like a client
    /// re-issuing the request).
    dispatched: usize,
    inflight: Vec<InFlight>,
    /// Live dispatches per worker, for least-outstanding routing.
    outstanding: Vec<usize>,
    /// Finished blocks by `(worker, size)`, reused on the next dispatch —
    /// the block arena is bump-only, so serving thousands of requests
    /// through fresh allocations would exhaust it.
    pool: HashMap<(usize, u64), Vec<TxnBlock>>,
}

impl BionicServeEngine {
    /// Build the engine for one run. `cross_txn` arms hardware
    /// cross-transaction index batching (pair it with
    /// [`ServeConfig::with_batch`](super::ServeConfig::with_batch) on the
    /// front end so flushed groups actually enter together);
    /// `chained_hash` serves the long-chain YCSB-C table (see
    /// [`CHAINED_HASH_BUCKETS`]). Callers should set `cfg.servers` to
    /// [`hw_servers`] so queue sizing tracks the machine's real
    /// concurrency.
    pub fn new_variant(
        kind: ServeKind,
        workers: usize,
        cross_txn: Option<usize>,
        chained_hash: bool,
        cfg: &ServeConfig,
    ) -> BionicServeEngine {
        let mut w = build_workload(kind, workers, cross_txn, chained_hash);
        w.machine().set_fast_forward(true);
        let clock_hz = w.machine_ref().config().fpga.clock_hz;
        BionicServeEngine {
            w,
            clock_hz,
            servers: hw_servers(kind, workers),
            workers,
            rng_txn: SmallRng::seed_from_u64(cfg.seed ^ TXN_SEED_XOR),
            dispatched: 0,
            inflight: Vec::new(),
            outstanding: vec![0; workers],
            pool: HashMap::new(),
        }
    }

    /// Front-end nanoseconds → FPGA cycles (floor; monotone).
    fn ns_to_cycles(&self, ns: u64) -> u64 {
        (ns as u128 * self.clock_hz as u128 / 1_000_000_000) as u64
    }

    /// FPGA cycles → front-end nanoseconds (floor; monotone, and the
    /// floor composition guarantees `cycles_to_ns(ns_to_cycles(t)) <= t`,
    /// so completions never report past an `advance` bound).
    fn cycles_to_ns(&self, cycles: u64) -> u64 {
        (cycles as u128 * 1_000_000_000 / self.clock_hz as u128) as u64
    }

    /// Remove every terminal in-flight block, returning completions in
    /// `(done_ns, ticket id)` order.
    fn harvest(&mut self) -> Vec<Completion> {
        let mut out = Vec::new();
        let now_cycle = self.w.machine_ref().now();
        let mut i = 0;
        while i < self.inflight.len() {
            let st = self.w.machine_ref().block_status(self.inflight[i].blk);
            if st == TxnStatus::Pending {
                i += 1;
                continue;
            }
            let f = self.inflight.swap_remove(i);
            let committed = st == TxnStatus::Committed;
            let done_cycle = if committed {
                // Exact hardware commit time from the writeback stamp.
                self.w.machine_ref().block_commit_ts(f.blk) >> 10
            } else {
                now_cycle
            };
            // The floor conversions can land a hair before dispatch;
            // clamp so service time stays positive and sojourn (done −
            // born) never underflows.
            let done_ns = self.cycles_to_ns(done_cycle).max(f.dispatch_ns + 1);
            out.push(Completion {
                ticket: f.tk,
                done_ns,
                committed,
                svc_ns: done_ns - f.dispatch_ns,
            });
            self.outstanding[f.worker] -= 1;
            self.pool
                .entry((f.worker, f.blk.size()))
                .or_default()
                .push(f.blk);
        }
        out.sort_by_key(|c| (c.done_ns, c.ticket.id));
        out
    }
}

impl ServeEngine for BionicServeEngine {
    /// One "server" per softcore context slot: `workers × max_batch`
    /// transactions can be genuinely in flight inside the machine.
    fn servers(&self) -> usize {
        self.servers
    }

    fn dispatch(&mut self, tk: &Ticket, now_ns: u64) -> Dispatch {
        // Bring the machine to the dispatch instant before injecting, so
        // the transaction starts executing at (the cycle image of) its
        // admission time, not retroactively. Earlier dispatches keep
        // running during this step; their completions surface at the
        // next `advance`.
        let target = self.ns_to_cycles(now_ns);
        if self.w.machine_ref().now() < target {
            self.w.machine().step_until(target);
        }
        // Least-outstanding routing, lowest worker id on ties: keeps
        // every worker at most `max_batch` deep while the front end's
        // slot accounting caps the total.
        let worker = (0..self.workers)
            .min_by_key(|&wk| (self.outstanding[wk], wk))
            .expect("at least one worker");
        let i = self.dispatched;
        self.dispatched += 1;
        let size = self.w.block_size(worker, i);
        let blk = match self.pool.entry((worker, size)).or_default().pop() {
            Some(blk) => blk,
            None => self.w.machine().alloc_block(worker, size),
        };
        // `Workload::submit` populates the block (consuming `rng_txn` in
        // dispatch order) and enters it through `Machine::submit` — an
        // injection at the machine's current cycle.
        self.w.submit(worker, i, blk, &mut self.rng_txn);
        self.outstanding[worker] += 1;
        self.inflight.push(InFlight {
            tk: *tk,
            blk,
            worker,
            dispatch_ns: now_ns,
        });
        Dispatch::Pending
    }

    fn in_flight(&self) -> usize {
        self.inflight.len()
    }

    fn advance(&mut self, to_ns: u64) -> Vec<Completion> {
        if self.inflight.is_empty() {
            return Vec::new();
        }
        let target_cycle = if to_ns == u64::MAX {
            u64::MAX
        } else {
            self.ns_to_cycles(to_ns)
        };
        loop {
            let done = self.harvest();
            if !done.is_empty() {
                return done;
            }
            let now = self.w.machine_ref().now();
            if now >= target_cycle {
                return Vec::new();
            }
            assert!(
                !(to_ns == u64::MAX && self.w.machine_ref().is_quiescent()),
                "machine quiescent with {} transactions still in flight",
                self.inflight.len()
            );
            let next = now
                .saturating_add(ADVANCE_CHUNK_CYCLES)
                .min(target_cycle);
            self.w.machine().step_until(next);
        }
    }
}

/// Run one open-loop serving scenario against the cycle-accurate machine.
/// `chained_hash` serves the long-chain YCSB-C table — the regime where
/// cross-transaction index waves pay (the `saturate --engine hw`
/// batched-admission claim).
pub fn simulate_hw_variant(
    kind: ServeKind,
    workers: usize,
    cross_txn: Option<usize>,
    chained_hash: bool,
    cfg: &ServeConfig,
) -> super::ServeSummary {
    let mut engine = BionicServeEngine::new_variant(kind, workers, cross_txn, chained_hash, cfg);
    super::engine::serve_with(&mut engine, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::ArrivalProcess;

    fn light_cfg(probe: &HwProbe, requests: usize, seed: u64, servers: usize) -> ServeConfig {
        ServeConfig::controlled(
            ArrivalProcess::Poisson {
                rate_per_sec: 0.25 * probe.capacity_per_sec,
            },
            requests,
            (probe.mean_latency_ns * 40.0) as u64,
            servers,
            seed,
        )
    }

    #[test]
    fn hw_light_load_commits_and_is_deterministic() {
        let workers = 2;
        let probe = probe_hw_variant(ServeKind::SmallBank, workers, 24, false);
        assert!(probe.capacity_per_sec > 0.0);
        let servers = hw_servers(ServeKind::SmallBank, workers);
        let cfg = light_cfg(&probe, 60, 11, servers);
        let a = simulate_hw_variant(ServeKind::SmallBank, workers, None, false, &cfg);
        let b = simulate_hw_variant(ServeKind::SmallBank, workers, None, false, &cfg);
        assert_eq!(
            a.render_json("hw"),
            b.render_json("hw"),
            "fixed seed must be byte-stable on the hardware engine"
        );
        assert_eq!(a.fresh, 60);
        a.assert_conserved();
        assert!(
            a.good as f64 >= 0.8 * a.fresh as f64,
            "light load mostly commits in time: {a:?}"
        );
        assert!(a.executed >= a.good, "every good request executed");
        assert!(a.busy_ns > 0 && a.horizon_ns > 0);
    }

    #[test]
    fn hw_engine_drains_under_batched_admission() {
        let workers = 2;
        let probe = probe_hw_variant(ServeKind::YcsbC, workers, 24, false);
        let servers = hw_servers(ServeKind::YcsbC, workers);
        let width = 8;
        let cfg = light_cfg(&probe, 80, 23, servers)
            .with_batch(width, (probe.mean_latency_ns * 2.0) as u64);
        let sum = simulate_hw_variant(ServeKind::YcsbC, workers, Some(width), false, &cfg);
        assert_eq!(sum.fresh, 80);
        sum.assert_conserved();
        assert!(sum.good > 0, "batched hw serving commits: {sum:?}");
        let again = simulate_hw_variant(ServeKind::YcsbC, workers, Some(width), false, &cfg);
        assert_eq!(sum.render_json("b"), again.render_json("b"));
    }

    #[test]
    fn hw_abort_path_feeds_client_retry() {
        // TPC-C Payment at depth-2 interleaving conflicts for real: the
        // engine must surface aborted completions and the front end must
        // route them through the retry machinery without losing ledger
        // conservation.
        let workers = 2;
        let probe = probe_hw_variant(ServeKind::TpccPayment, workers, 24, false);
        let servers = hw_servers(ServeKind::TpccPayment, workers);
        let cfg = ServeConfig::controlled(
            ArrivalProcess::Poisson {
                rate_per_sec: 0.9 * probe.capacity_per_sec,
            },
            120,
            (probe.mean_latency_ns * 30.0) as u64,
            servers,
            31,
        );
        let sum = simulate_hw_variant(ServeKind::TpccPayment, workers, None, false, &cfg);
        assert_eq!(sum.fresh, 120);
        sum.assert_conserved();
        assert!(sum.good > 0);
        assert!(
            sum.executed >= sum.fresh,
            "retries re-execute: {sum:?}"
        );
    }
}
