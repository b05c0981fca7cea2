//! Shared harness for the paper-figure reproduction binaries.
//!
//! One binary per exhibit lives in `src/bin/` (`fig09_overall`,
//! `fig10_hash`, `fig11_skiplist`, `fig12_interleaving`, `fig13_multisite`,
//! `table3_latency`, `table4_resources`); each prints the same rows/series
//! the paper reports. This library holds the runners:
//!
//! * [`drive`] — the single generic driver behind every BionicDB
//!   throughput measurement: batch fill → submit → run → retry → [`Tput`],
//!   over any [`bionicdb_workloads::Workload`]. The legacy entry points
//!   ([`bionic_ycsb_tput`], [`bionic_tpcc_tput`], …) are thin adapters and
//!   remain bit-identical to the pre-ABI hand-rolled loops (pinned by the
//!   `goldencheck` workload goldens);
//! * [`silo_model_tput`] — the equivalent single runner for the Silo
//!   baseline under the Xeon cache/timing model, scaled to a core count
//!   with a calibrated multi-socket efficiency factor.

#![warn(missing_docs)]

pub mod batchbench;
pub mod chaos;
pub mod history;
pub mod json;
pub mod serve;

use bionicdb::{BionicConfig, ExecMode};
use bionicdb_cpu_model::{CoreModel, CpuConfig};
use bionicdb_workloads::abi::{
    KvOp, KvWorkload, SiloWorkload, TpccSiloMix, TpccWorkload, YcsbSiloRead, YcsbSiloScan,
    YcsbWorkload,
};
use bionicdb_workloads::smallbank::{SmallBankBionic, SmallBankWorkload};
use bionicdb_workloads::tpcc::{TpccBionic, TpccSilo};
use bionicdb_workloads::ycsb::{YcsbBionic, YcsbKind, YcsbSilo};
use bionicdb_workloads::{SmallBankSpec, TpccSpec, Workload, YcsbSpec};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

pub use bionicdb_workloads::TpccMix;

/// A throughput measurement.
#[derive(Debug, Clone, Copy)]
pub struct Tput {
    /// Committed transactions in the measured window.
    pub committed: u64,
    /// Aborted transactions in the measured window.
    pub aborted: u64,
    /// Transactions (or operations) per second.
    pub per_sec: f64,
}

/// Print a two-column series as an aligned table.
pub fn print_series(title: &str, xlabel: &str, ylabel: &str, rows: &[(String, f64)]) {
    println!("\n== {title} ==");
    println!("{xlabel:>16}  {ylabel:>16}");
    for (x, y) in rows {
        println!("{x:>16}  {y:>16.1}");
    }
}

/// Print a multi-series table: header plus one row per x value.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    for h in header {
        print!("{h:>18}");
    }
    println!();
    for row in rows {
        for cell in row {
            print!("{cell:>18}");
        }
        println!();
    }
}

// ---------------------------------------------------------------------------
// The generic BionicDB driver
// ---------------------------------------------------------------------------

/// Default per-worker transactions for a measured wave.
pub const YCSB_WAVE: usize = 400;

/// Drive one measured wave of `txns_per_worker` transactions per worker
/// through a [`Workload`] and return the committed throughput over
/// *simulated* time. This is the single driver behind every BionicDB
/// measurement:
///
/// 1. allocate all blocks up front, worker-major (per-worker bump arenas
///    make this equivalent to any interleaved allocation order);
/// 2. run (and discard) the workload's warm-up wave, if any;
/// 3. snapshot stats/cycle, submit the measured wave worker-major with one
///    RNG seeded from [`Workload::seed`], and run to quiescence;
/// 4. if the workload declares a [`Workload::retry`] budget, retry aborted
///    blocks to completion client-side — the conflicts are transient
///    (dirty-rejects inside a batch), so the budget is never exhausted in
///    practice, and we fail loudly rather than report a throughput built
///    on uncommitted work;
/// 5. run the workload's [`Workload::validate`] hook and report.
pub fn drive<W: Workload + ?Sized>(w: &mut W, txns_per_worker: usize) -> Tput {
    let workers = w.machine().num_workers();
    let warm = w.warmup(txns_per_worker);
    let blocks: Vec<Vec<bionicdb::TxnBlock>> = (0..workers)
        .map(|wk| {
            (0..warm + txns_per_worker)
                .map(|i| {
                    let size = w.block_size(wk, i.saturating_sub(warm));
                    w.machine().alloc_block(wk, size)
                })
                .collect()
        })
        .collect();
    let mut rng = SmallRng::seed_from_u64(w.seed());

    if warm > 0 {
        for (wk, worker_blocks) in blocks.iter().enumerate() {
            for (i, &blk) in worker_blocks[..warm].iter().enumerate() {
                w.submit(wk, i, blk, &mut rng);
            }
        }
        w.machine().run_to_quiescence();
    }
    let s0 = w.machine().stats();
    let c0 = w.machine().now();

    let mut submitted = Vec::with_capacity(workers * txns_per_worker);
    for (wk, worker_blocks) in blocks.iter().enumerate() {
        for (i, &blk) in worker_blocks[warm..].iter().enumerate() {
            w.submit(wk, i, blk, &mut rng);
            submitted.push((wk, blk));
        }
    }
    w.machine().run_to_quiescence();
    let retried = if let Some(budget) = w.retry() {
        let out = w.machine().retry_to_completion(&submitted, budget, 1 << 33);
        assert!(
            out.all_committed(),
            "{}: retries failed to converge: {} blocks gave up",
            w.name(),
            out.gave_up.len()
        );
        true
    } else {
        false
    };
    let s1 = w.machine().stats();
    let cycles = w.machine().now() - c0;
    let hz = w.machine().config().fpga.clock_hz as f64;
    w.validate();

    let committed = if retried {
        submitted.len() as u64
    } else {
        s1.committed - s0.committed
    };
    let aborted = if w.count_aborts() {
        s1.aborted - s0.aborted
    } else {
        0
    };
    let ops = committed * w.ops_per_txn();
    Tput {
        committed,
        aborted,
        per_sec: ops as f64 * hz / cycles as f64,
    }
}

/// Run `txns_per_worker` YCSB transactions of `kind` on every worker and
/// return the committed throughput over simulated time. A warm-up wave of
/// a quarter size runs first.
pub fn bionic_ycsb_tput(y: &mut YcsbBionic, kind: YcsbKind, txns_per_worker: usize) -> Tput {
    drive(&mut YcsbWorkload { sys: y, kind }, txns_per_worker)
}

/// Run bulk KV transactions (Fig. 10a) and return *operation* throughput.
pub fn bionic_kv_tput(y: &mut YcsbBionic, insert: bool, txns_per_worker: usize) -> Tput {
    let op = if insert {
        KvOp::HashInsert
    } else {
        KvOp::HashSearch
    };
    drive(&mut KvWorkload { sys: y, op }, txns_per_worker)
}

/// Like [`bionic_kv_tput`] but with random insert keys (bucket-colliding;
/// the hazard-prevention ablation).
pub fn bionic_kv_random_insert_tput(y: &mut YcsbBionic, txns_per_worker: usize) -> Tput {
    drive(
        &mut KvWorkload {
            sys: y,
            op: KvOp::HashInsertRandom,
        },
        txns_per_worker,
    )
}

/// Like [`bionic_kv_tput`] but for the skiplist table (Fig. 11a/11b).
pub fn bionic_kv_skip_tput(y: &mut YcsbBionic, insert: bool, txns_per_worker: usize) -> Tput {
    let op = if insert {
        KvOp::SkipInsert
    } else {
        KvOp::SkipSearch
    };
    drive(&mut KvWorkload { sys: y, op }, txns_per_worker)
}

/// Run TPC-C on BionicDB; aborted transactions are retried (client-side)
/// and throughput counts commits over the whole span of simulated time.
pub fn bionic_tpcc_tput(sys: &mut TpccBionic, mix: TpccMix, txns_per_worker: usize) -> Tput {
    drive(&mut TpccWorkload { sys, mix }, txns_per_worker)
}

/// Run SmallBank on BionicDB (standard six-op rotation; aborted
/// transactions are retried client-side, and the money-conservation
/// invariant is checked after the wave).
pub fn bionic_smallbank_tput(sb: &mut SmallBankBionic, txns_per_worker: usize) -> Tput {
    drive(&mut SmallBankWorkload { sys: sb }, txns_per_worker)
}

// ---------------------------------------------------------------------------
// Silo (model-time) runners
// ---------------------------------------------------------------------------

/// Multi-socket scaling drag for the Silo baseline: per-core efficiency
/// `1 / (1 + SCALING_ALPHA · (cores − 1))`.
///
/// The paper's Xeon E7-4807 setup spans four sockets; Silo's scaling there
/// is sublinear (Fig. 9a: 6× more cores ≈ 4.5× more throughput) because of
/// QPI-remote memory and shared-cache contention, which the single-core
/// cache model cannot see. The factor is calibrated to that reported
/// 4→24-core ratio and documented in EXPERIMENTS.md.
pub const SCALING_ALPHA: f64 = 0.022;

/// Aggregate throughput for `cores` modelled cores given one core's rate.
pub fn scale_cores(per_core: f64, cores: usize) -> f64 {
    per_core * cores as f64 / (1.0 + SCALING_ALPHA * (cores as f64 - 1.0))
}

/// Model-time throughput of a [`SiloWorkload`] on the Silo baseline: a
/// quarter-size warm-up wave, clock reset, then `txns` measured
/// transactions counting commits, scaled to `cores`.
pub fn silo_model_tput<W: SiloWorkload + ?Sized>(sys: &W, txns: usize, cores: usize) -> f64 {
    let mut model = CoreModel::new(CpuConfig::default());
    let mut rng = SmallRng::seed_from_u64(sys.seed());
    for i in 0..txns / 4 {
        sys.run(&mut model, &mut rng, i);
    }
    model.reset_clock();
    let mut committed = 0usize;
    for i in 0..txns {
        if sys.run(&mut model, &mut rng, i) {
            committed += 1;
        }
    }
    scale_cores(committed as f64 / model.secs(), cores)
}

/// Model-time throughput of YCSB-C on the Silo baseline.
pub fn silo_ycsb_model_tput(sys: &YcsbSilo, txns: usize, cores: usize) -> f64 {
    silo_model_tput(&YcsbSiloRead(sys), txns, cores)
}

/// Model-time scan throughput on the given Silo index
/// (`sys.masstree` or `sys.skiplist`).
pub fn silo_scan_model_tput(sys: &YcsbSilo, index: usize, txns: usize, cores: usize) -> f64 {
    silo_model_tput(&YcsbSiloScan { sys, index }, txns, cores)
}

/// Model-time throughput of the TPC-C mix on the Silo baseline.
pub fn silo_tpcc_model_tput(sys: &TpccSilo, mix: TpccMix, txns: usize, cores: usize) -> f64 {
    silo_model_tput(&TpccSiloMix { sys, mix }, txns, cores)
}

// ---------------------------------------------------------------------------
// System constructors with bench-scale defaults
// ---------------------------------------------------------------------------

/// Bench-scale YCSB spec: the paper's 1 KB payloads (a first-order cost
/// for Silo, which copies every read payload, while BionicDB's SEARCH
/// returns tuple addresses); record count scaled 300 K → 50 K per
/// partition (see EXPERIMENTS.md — the working set stays far beyond every
/// modelled cache).
pub fn bench_ycsb_spec() -> YcsbSpec {
    YcsbSpec {
        records_per_partition: 50_000,
        payload_len: 1024,
        ..YcsbSpec::default()
    }
}

/// Bench-scale TPC-C spec.
pub fn bench_tpcc_spec() -> TpccSpec {
    TpccSpec {
        customers_per_district: 500,
        items: 5_000,
        ..TpccSpec::default()
    }
}

/// Build a YCSB machine with `workers` workers.
pub fn build_ycsb(workers: usize, mode: ExecMode) -> YcsbBionic {
    let cfg = BionicConfig {
        workers,
        mode,
        ..BionicConfig::default()
    };
    let mut y = YcsbBionic::build(cfg, bench_ycsb_spec(), 60);
    y.machine.set_sim_threads(sim_threads());
    y
}

/// Build a TPC-C machine with `workers` workers (= warehouses).
///
/// TPC-C batches are capped at 4 transactions: every Payment updates the
/// partition's single warehouse row, so wide interleaving batches mostly
/// dirty-reject each other (paper §5.4/§5.6 observe TPC-C "executed almost
/// in serial"); a narrow batch keeps the conflict window small.
pub fn build_tpcc(workers: usize, mode: ExecMode) -> TpccBionic {
    let cfg = BionicConfig {
        workers,
        mode,
        max_batch: 2,
        ..BionicConfig::default()
    };
    let mut sys = TpccBionic::build(cfg, bench_tpcc_spec());
    sys.machine.set_sim_threads(sim_threads());
    sys
}

/// Bench-scale SmallBank spec.
pub fn bench_smallbank_spec() -> SmallBankSpec {
    SmallBankSpec::default()
}

/// Build a SmallBank machine with `workers` workers (= partitions).
/// SmallBank procedures update one to three rows each, so like TPC-C they
/// run under a narrow interleave batch to keep dirty-reject churn low.
pub fn build_smallbank(workers: usize, mode: ExecMode) -> SmallBankBionic {
    let cfg = BionicConfig {
        workers,
        mode,
        max_batch: 2,
        ..BionicConfig::default()
    };
    let mut sb = SmallBankBionic::build(cfg, bench_smallbank_spec());
    sb.machine.set_sim_threads(sim_threads());
    sb
}

/// Build a TPC-C machine whose transactions are all local (the paper's
/// §5.5 coprocessor-focused form: no home loads in the dispatch path).
pub fn build_tpcc_local(workers: usize, mode: ExecMode) -> TpccBionic {
    let cfg = BionicConfig {
        workers,
        mode,
        max_batch: 2,
        ..BionicConfig::default()
    };
    let spec = TpccSpec {
        neworder_remote_fraction: 0.0,
        payment_remote_fraction: 0.0,
        ..bench_tpcc_spec()
    };
    let mut sys = TpccBionic::build(cfg, spec);
    sys.machine.set_sim_threads(sim_threads());
    sys
}

// ---------------------------------------------------------------------------
// Shared command-line handling for the bench bins
// ---------------------------------------------------------------------------

/// Bare flags every bench bin accepts (the shared vocabulary).
pub const SHARED_FLAGS: &[&str] = &["--quick"];

/// Valued options every bench bin accepts (the shared vocabulary).
pub const SHARED_OPTIONS: &[&str] = &["--json", "--sim-threads"];

/// The command-line surface of one bench bin: its bare flags and valued
/// options *beyond* the shared vocabulary ([`SHARED_FLAGS`],
/// [`SHARED_OPTIONS`]) that every bin accepts. [`BenchArgs::from_env`]
/// validates the process arguments against this, so a typo'd flag fails
/// loudly instead of silently running the bin with defaults.
#[derive(Debug, Clone, Copy)]
pub struct ArgSpec {
    /// Binary name, used in the usage message.
    pub bin: &'static str,
    /// Bin-specific bare flags (e.g. `"--smoke"`).
    pub flags: &'static [&'static str],
    /// Bin-specific valued options (e.g. `"--history"`). Each consumes
    /// the following argument as its value.
    pub options: &'static [&'static str],
}

impl ArgSpec {
    /// A spec with no bin-specific arguments (shared vocabulary only).
    pub const fn shared(bin: &'static str) -> ArgSpec {
        ArgSpec {
            bin,
            flags: &[],
            options: &[],
        }
    }

    /// Whether `a` is a valued option, shared or bin-specific.
    fn is_option(&self, a: &str) -> bool {
        SHARED_OPTIONS.contains(&a) || self.options.contains(&a)
    }

    /// The one-line usage message for this bin.
    pub fn usage(&self) -> String {
        use std::fmt::Write as _;
        let mut u = format!("usage: {}", self.bin);
        for f in SHARED_FLAGS.iter().chain(self.flags) {
            let _ = write!(u, " [{f}]");
        }
        for o in SHARED_OPTIONS.iter().chain(self.options) {
            let _ = write!(u, " [{o} <value>]");
        }
        u
    }
}

/// The arguments of `argv` that are not an option's value, each with the
/// argument after it when it is a valued option of `spec` (`None` for a
/// flag, an unknown argument, or an option at the end). An option consumes
/// whatever follows it, even a token that looks like a flag.
fn tokens<'a>(
    argv: &'a [String],
    spec: &'a ArgSpec,
) -> impl Iterator<Item = (&'a str, Option<&'a str>)> {
    let mut it = argv.iter().map(String::as_str);
    std::iter::from_fn(move || {
        let a = it.next()?;
        Some((a, if spec.is_option(a) { it.next() } else { None }))
    })
}

/// The command-line arguments every bench bin shares, parsed once.
///
/// All bins accept the same vocabulary: `--quick` (smaller waves for CI),
/// `--json <path>` (machine-readable dump, see [`json::JsonOut`]),
/// `--sim-threads <n>` (epoch-parallel lanes for each built machine), plus
/// bin-specific flags and valued options declared in an [`ArgSpec`] and
/// read through [`BenchArgs::flag`] and [`BenchArgs::value`]. The
/// environment fallback (`BIONICDB_THREADS`) is folded in here so no bin
/// re-implements the precedence order.
#[derive(Debug, Clone)]
pub struct BenchArgs {
    argv: Vec<String>,
    spec: ArgSpec,
}

/// Print `msg` (an argument error ending in the usage line) and exit with
/// status 2.
fn exit_usage(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

impl BenchArgs {
    /// Parse the process arguments and validate them against `spec`.
    /// Unknown arguments are fatal: the usage line goes to stderr and the
    /// process exits with status 2. (They used to be silently ignored — a
    /// typo'd `--historys` ran the bin with defaults and nobody noticed.)
    pub fn from_env(spec: &ArgSpec) -> BenchArgs {
        Self::try_parse(std::env::args().skip(1).collect(), spec)
            .unwrap_or_else(|msg| exit_usage(&msg))
    }

    /// Validate `argv` against `spec` — the testable core of
    /// [`BenchArgs::from_env`]. Option tokens consume the following
    /// argument as their value; anything that is neither a known flag nor
    /// a known option (shared or bin-specific) is an error, and so is a
    /// `--sim-threads` value that is not a positive integer.
    pub fn try_parse(argv: Vec<String>, spec: &ArgSpec) -> Result<BenchArgs, String> {
        for (a, value) in tokens(&argv, spec) {
            if SHARED_FLAGS.contains(&a) || spec.flags.contains(&a) {
                continue;
            }
            if spec.is_option(a) {
                if value.is_none() {
                    return Err(format!(
                        "{}: option {a} needs a value\n{}",
                        spec.bin,
                        spec.usage()
                    ));
                }
                continue;
            }
            return Err(format!(
                "{}: unknown argument {a:?}\n{}",
                spec.bin,
                spec.usage()
            ));
        }
        let args = BenchArgs { argv, spec: *spec };
        if let Some(s) = args.value("--sim-threads") {
            if !s.parse::<usize>().is_ok_and(|n| n > 0) {
                return Err(args.bad_value("--sim-threads", s));
            }
        }
        Ok(args)
    }

    /// The raw process arguments without validation — for crate-internal
    /// re-parses ([`sim_threads`], [`json::JsonOut::from_env`]) that only
    /// extract one value after the owning bin has already validated the
    /// full argument list through [`BenchArgs::from_env`].
    pub(crate) fn raw_env() -> BenchArgs {
        BenchArgs {
            argv: std::env::args().skip(1).collect(),
            spec: ArgSpec::shared("bench"),
        }
    }

    /// The error for option `name` carrying the unparseable value `value`.
    fn bad_value(&self, name: &str, value: &str) -> String {
        format!(
            "{}: bad value {value:?} for option {name}\n{}",
            self.spec.bin,
            self.spec.usage()
        )
    }

    /// True when the bare flag `name` (e.g. `"--quick"`) is present; an
    /// option's value that reads like the flag does not count.
    pub fn flag(&self, name: &str) -> bool {
        tokens(&self.argv, &self.spec).any(|(a, _)| a == name)
    }

    /// The value following the option `name` (e.g. `"--json"`), if any.
    pub fn value(&self, name: &str) -> Option<&str> {
        tokens(&self.argv, &self.spec)
            .find(|&(a, _)| a == name)
            .and_then(|(_, value)| value)
    }

    /// The value of `name` parsed as `T`, or `default` when absent. A
    /// value that does not parse is fatal, like an unknown argument: the
    /// error and the usage line go to stderr and the process exits with
    /// status 2.
    pub fn parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        self.try_parsed(name, default)
            .unwrap_or_else(|msg| exit_usage(&msg))
    }

    /// The testable core of [`BenchArgs::parsed`]: `Ok(default)` when
    /// `name` is absent, an error naming the option, the bad value and
    /// the usage line when its value does not parse as `T`.
    pub fn try_parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.value(name) {
            None => Ok(default),
            Some(s) => s.parse().map_err(|_| self.bad_value(name, s)),
        }
    }

    /// True when `--quick` was given (CI-scale waves).
    pub fn quick(&self) -> bool {
        self.flag("--quick")
    }

    /// Pick the wave size: `quick` under `--quick`, else `full`.
    pub fn wave(&self, quick: usize, full: usize) -> usize {
        if self.quick() {
            quick
        } else {
            full
        }
    }

    /// The `--json <path>` dump target, if given.
    pub fn json_path(&self) -> Option<&str> {
        self.value("--json")
    }

    /// Simulation thread count for a single [`bionicdb::Machine`]
    /// (`Machine::set_sim_threads`): `--sim-threads N` on the command
    /// line (a positive integer, checked by [`BenchArgs::try_parse`]),
    /// else `BIONICDB_THREADS`, else 1 (serial). Results are bit-identical
    /// at any value — only wall-clock time changes.
    pub fn sim_threads(&self) -> usize {
        self.value("--sim-threads")
            .and_then(|s| s.parse().ok())
            .or_else(|| {
                std::env::var("BIONICDB_THREADS")
                    .ok()
                    .and_then(|s| s.parse().ok())
            })
            .filter(|&n| n > 0)
            .unwrap_or(1)
    }
}

// ---------------------------------------------------------------------------
// Parallel sweep harness
// ---------------------------------------------------------------------------

/// Simulation thread count from the process arguments/environment; see
/// [`BenchArgs::sim_threads`]. Every bench bin that builds a machine
/// through this crate honours it.
pub fn sim_threads() -> usize {
    BenchArgs::raw_env().sim_threads()
}

/// Worker-thread count for [`par_map`]: `BIONICDB_THREADS` if set, else the
/// machine's available parallelism.
pub fn sweep_threads() -> usize {
    std::env::var("BIONICDB_THREADS")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        })
}

/// Map `f` over `items` on a pool of scoped OS threads, preserving input
/// order in the result. Each sweep point of the figure binaries builds its
/// own [`bionicdb::Machine`], so points are fully independent and the
/// figures parallelize trivially; determinism is untouched because every
/// point seeds its own RNGs. No work is spawned for a single-item (or
/// single-thread) sweep.
pub fn par_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    let n = items.len();
    let threads = sweep_threads().min(n);
    if threads <= 1 {
        return items.into_iter().map(f).collect();
    }
    let work: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let item = work[i]
                    .lock()
                    .expect("work slot")
                    .take()
                    .expect("claimed once");
                let r = f(item);
                *results[i].lock().expect("result slot") = Some(r);
            });
        }
    });
    results
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result lock")
                .expect("every item ran")
        })
        .collect()
}

/// A convenience RNG.
pub fn rng(seed: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed)
}

/// Draw a uniform value below `n` (helper for ad-hoc harness code).
pub fn uniform(rng: &mut SmallRng, n: u64) -> u64 {
    rng.gen_range(0..n)
}

#[cfg(test)]
mod arg_tests {
    use super::{ArgSpec, BenchArgs};

    const SPEC: ArgSpec = ArgSpec {
        bin: "testbin",
        flags: &["--par"],
        options: &["--out"],
    };

    fn v(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn unknown_argument_is_fatal_with_usage() {
        let err = BenchArgs::try_parse(v(&["--historys", "x"]), &SPEC).unwrap_err();
        assert!(err.contains("unknown argument"), "{err}");
        assert!(err.contains("--historys"), "{err}");
        assert!(err.contains("usage: testbin"), "{err}");
        // The usage line advertises the full vocabulary, shared + specific.
        for tok in ["--quick", "--json", "--sim-threads", "--par", "--out"] {
            assert!(err.contains(tok), "usage lists {tok}: {err}");
        }
        // A stray positional is just as fatal as a typo'd flag.
        let err = BenchArgs::try_parse(v(&["results.json"]), &SPEC).unwrap_err();
        assert!(err.contains("unknown argument"), "{err}");
    }

    #[test]
    fn known_vocabulary_parses_and_reads_back() {
        let args = BenchArgs::try_parse(
            v(&["--quick", "--par", "--out", "x.json", "--sim-threads", "3"]),
            &SPEC,
        )
        .expect("all tokens are known");
        assert!(args.quick());
        assert!(args.flag("--par"));
        assert_eq!(args.value("--out"), Some("x.json"));
        assert_eq!(args.sim_threads(), 3);
        // A shared-only spec accepts the shared vocabulary and nothing else.
        let shared = ArgSpec::shared("plainbin");
        assert!(BenchArgs::try_parse(v(&["--quick"]), &shared).is_ok());
        assert!(BenchArgs::try_parse(v(&["--par"]), &shared).is_err());
    }

    #[test]
    fn option_at_end_without_value_is_rejected() {
        let err = BenchArgs::try_parse(v(&["--out"]), &SPEC).unwrap_err();
        assert!(err.contains("needs a value"), "{err}");
        // ...and an option consumes whatever follows, even if it looks
        // like a flag — documented single-pass semantics.
        let args = BenchArgs::try_parse(v(&["--out", "--quick"]), &SPEC).unwrap();
        assert_eq!(args.value("--out"), Some("--quick"));
        assert!(!args.flag("--quick"));
    }

    #[test]
    fn unparseable_value_is_fatal_with_usage() {
        let args = |a: &[&str]| BenchArgs::try_parse(v(a), &SPEC).expect("shape is valid");
        let err = args(&["--out", "0.1x"])
            .try_parsed("--out", 0.05f64)
            .unwrap_err();
        assert!(err.contains("bad value \"0.1x\" for option --out"), "{err}");
        assert!(err.contains("usage: testbin"), "{err}");
        assert!(args(&["--out", "abc"]).try_parsed("--out", 4usize).is_err());
        assert!(args(&["--out", "-3"]).try_parsed("--out", 4usize).is_err());
        // A good value parses; an absent one falls back to the default.
        assert_eq!(args(&["--out", "7"]).try_parsed("--out", 4usize), Ok(7));
        assert_eq!(args(&["--par"]).try_parsed("--out", 4usize), Ok(4));
    }

    #[test]
    fn sim_threads_must_be_a_positive_integer() {
        for bad in ["two", "0", "-1", ""] {
            let err = BenchArgs::try_parse(v(&["--sim-threads", bad]), &SPEC).unwrap_err();
            assert!(err.contains("--sim-threads"), "{err}");
            assert!(err.contains(&format!("{bad:?}")), "{err}");
            assert!(err.contains("usage: testbin"), "{err}");
        }
        let args = BenchArgs::try_parse(v(&["--sim-threads", "1"]), &SPEC).unwrap();
        assert_eq!(args.sim_threads(), 1);
    }
}
