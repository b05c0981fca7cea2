//! Crash-consistency chaos harness.
//!
//! The deterministic fault plan (`bionicdb_fpga::fault`) makes the classic
//! crash-recovery argument *checkable*: because a run with a given plan is
//! perfectly reproducible, we can crash a machine at an arbitrary cycle,
//! salvage only its durable bytes (command log + checkpoint), recover on a
//! fresh machine, and compare the result against an oracle that knows the
//! exact set of transactions that had committed at the crash instant.
//!
//! Every scenario here follows the same shape:
//!
//! 1. **Clean twin** — run the workload to completion with no faults to
//!    learn the run's natural length `t_end` (and the full committed log).
//! 2. **Crash run** — rebuild the identical machine, schedule a crash at
//!    `t_end · p / 1000`, and install a crash hook that plays the role of
//!    the durable medium: it serializes the committed-so-far command log
//!    (optionally tearing the in-flight tail append, as a real power loss
//!    would) plus the load-time checkpoint.
//! 3. **Recover** — decode the salvaged bytes on a fresh machine. Torn
//!    tails must be detected (never panic, never decode garbage), the
//!    committed prefix must survive byte-for-byte, and replaying it must
//!    reproduce exactly the state a reference replay of the oracle's
//!    prefix produces. Workload invariants (e.g. conservation of money
//!    across partitions) must hold on the recovered image.
//!
//! [`run_noc_drop`] covers the non-crash half of the fault model: losing
//! messages on the interconnect must be absorbed by the retry/dedup layer
//! with no wedged machine, no double-applied remote op, and a final state
//! identical to what replaying the log reproduces.
//!
//! Four workloads exercise different recovery paths: YCSB (single-site
//! updates + multisite reads), TPC-C (multi-table logic with inserts), a
//! bank-transfer multisite workload with a global conservation invariant,
//! and SmallBank (two-table transfers through the workload ABI, restricted
//! to its conserving procedures so every committed prefix preserves the
//! total balance).

use std::cell::RefCell;
use std::rc::Rc;

use bionicdb::recovery::{Checkpoint, CommandLog};
use bionicdb::{
    asm::assemble, BionicConfig, FaultPlan, Machine, NocRetryConfig, ProcId, RetryBudget,
    SystemBuilder, TableId, TableMeta, TxnBlock,
};
use bionicdb_workloads::smallbank::SmallBankBionic;
use bionicdb_workloads::tpcc::TpccBionic;
use bionicdb_workloads::ycsb::{YcsbBionic, YcsbKind};
use bionicdb_workloads::{SbOp, SmallBankSpec, TpccSpec, YcsbSpec};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Which workload a chaos scenario drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosWorkload {
    /// YCSB: local update transactions interleaved with 75%-remote
    /// multisite reads (so both the log-replay and the NoC paths see
    /// traffic).
    Ycsb,
    /// TPC-C NewOrder/Payment mix (inserts, multi-table updates, remote
    /// payments).
    Tpcc,
    /// Cross-partition bank transfers with a global money-conservation
    /// invariant.
    Multisite,
    /// SmallBank through the workload ABI, restricted to its conserving
    /// procedures (SendPayment / Amalgamate / Balance) so the total
    /// balance is invariant over *every* committed prefix.
    SmallBank,
}

/// What a chaos scenario observed; the assertions have already run by the
/// time this is returned, so the report exists for logging and for
/// cross-checking scenario strength (e.g. "did the plan actually fire?").
#[derive(Debug, Clone, Copy)]
pub struct ChaosReport {
    /// The workload that ran.
    pub workload: ChaosWorkload,
    /// Transactions submitted in the batch.
    pub total_txns: usize,
    /// Cycle the crash was scheduled at (crash scenarios only).
    pub crash_cycle: Option<u64>,
    /// Transactions the oracle saw committed at the crash instant.
    pub committed_at_crash: usize,
    /// Log records recovered from the salvaged bytes.
    pub salvaged: usize,
    /// Whether the tail append was torn by the crash.
    pub torn: bool,
    /// Messages the interconnect dropped (NoC scenarios only).
    pub dropped: u64,
}

/// The retry configuration chaos scenarios arm when the interconnect is
/// lossy: short timeout (runs are small), a handful of attempts.
pub fn chaos_retry() -> NocRetryConfig {
    NocRetryConfig {
        timeout_cycles: 2048,
        max_attempts: 6,
    }
}

const TRANSFER: &str = r#"
proc transfer
logic:
    load g5, [blk+16]
    update 0, 0, c0, home=g5     ; debit, possibly remote
    load g6, [blk+24]
    update 0, 8, c1, home=g6     ; credit, possibly remote
commit:
    ret g0, c0
    cmp g0, 0
    blt abort
    ret g1, c1
    cmp g1, 0
    blt abort
    load g2, [blk+32]
    load g3, [g0+72]
    sub g3, g2
    store g3, [g0+72]
    load g4, [g1+72]
    add g4, g2
    store g4, [g1+72]
    getts g7
    store g7, [g0+8]
    store g7, [g1+8]
    mov g8, 0
    store g8, [g0+24]
    store g8, [g1+24]
    commit
abort:
    ret g0, c0
    cmp g0, 0
    blt s1
    mov g8, 0
    store g8, [g0+24]
s1:
    ret g1, c1
    cmp g1, 0
    blt s2
    mov g8, 0
    store g8, [g1+24]
s2:
    abort
"#;

const MULTISITE_WORKERS: usize = 3;
const MULTISITE_ACCOUNTS: u64 = 12;
const MULTISITE_BALANCE: u64 = 1_000;

/// One chaos-scale system. Builds are deterministic: two calls with the
/// same workload produce bit-identical machines, which is what lets a
/// fresh build stand in for "recover from the checkpoint".
enum Sys {
    Ycsb(YcsbBionic),
    Tpcc(TpccBionic),
    Multisite {
        db: Machine,
        table: TableId,
        proc: ProcId,
    },
    SmallBank(SmallBankBionic),
}

impl Sys {
    fn build(workload: ChaosWorkload, retry: Option<NocRetryConfig>) -> Sys {
        match workload {
            ChaosWorkload::Ycsb => {
                let cfg = BionicConfig {
                    noc_retry: retry,
                    ..BionicConfig::small(2)
                };
                let spec = YcsbSpec {
                    records_per_partition: 1_024,
                    payload_len: 64,
                    ..YcsbSpec::default()
                };
                Sys::Ycsb(YcsbBionic::build(cfg, spec, 8))
            }
            ChaosWorkload::Tpcc => {
                let cfg = BionicConfig {
                    noc_retry: retry,
                    ..BionicConfig::small(2)
                };
                // Remote fractions are raised far above TPC-C's defaults so
                // a small batch reliably generates interconnect traffic for
                // the drop schedules to land on.
                let spec = TpccSpec {
                    payment_remote_fraction: 0.6,
                    neworder_remote_fraction: 0.2,
                    ..TpccSpec::tiny()
                };
                Sys::Tpcc(TpccBionic::build(cfg, spec))
            }
            ChaosWorkload::Multisite => {
                let mut b = SystemBuilder::new(BionicConfig {
                    noc_retry: retry,
                    ..BionicConfig::small(MULTISITE_WORKERS)
                });
                let table = b.table(TableMeta::hash("accounts", 8, 8, 1 << 8));
                let proc = b.proc(assemble(TRANSFER).expect("transfer assembles"));
                let mut db = b.build();
                for w in 0..MULTISITE_WORKERS {
                    let mut loader = db.loader(w);
                    for k in 0..MULTISITE_ACCOUNTS {
                        loader.insert(table, &k.to_le_bytes(), &MULTISITE_BALANCE.to_le_bytes());
                    }
                }
                Sys::Multisite { db, table, proc }
            }
            ChaosWorkload::SmallBank => {
                let cfg = BionicConfig {
                    noc_retry: retry,
                    ..BionicConfig::small(2)
                };
                // A high transfer-remote fraction so a small conserving
                // batch reliably crosses the NoC for the drop schedules.
                let spec = SmallBankSpec {
                    accounts_per_partition: 256,
                    transfer_remote_fraction: 0.6,
                    ..SmallBankSpec::tiny()
                };
                Sys::SmallBank(SmallBankBionic::build(cfg, spec))
            }
        }
    }

    fn machine(&mut self) -> &mut Machine {
        match self {
            Sys::Ycsb(y) => &mut y.machine,
            Sys::Tpcc(t) => &mut t.machine,
            Sys::Multisite { db, .. } => db,
            Sys::SmallBank(sb) => &mut sb.machine,
        }
    }

    /// Submit the scenario's transaction batch; deterministic in `seed`.
    fn submit_batch(&mut self, seed: u64) -> Vec<(usize, TxnBlock)> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut blocks = Vec::new();
        match self {
            Sys::Ycsb(y) => {
                // Alternate local updates (replay substance) with 75%-remote
                // reads (interconnect traffic).
                for i in 0..24usize {
                    let w = i % y.machine.num_workers();
                    let kind = if i % 2 == 0 {
                        YcsbKind::UpdateLocal
                    } else {
                        YcsbKind::ReadHomed
                    };
                    let blk = y.machine.alloc_block(w, y.block_size(kind));
                    y.submit_txn(w, blk, kind, &mut rng);
                    blocks.push((w, blk));
                }
            }
            Sys::Tpcc(t) => {
                for i in 0..12usize {
                    let w = i % t.machine.num_workers();
                    let blk = if i % 2 == 0 {
                        let blk = t.machine.alloc_block(w, TpccBionic::neworder_block_size());
                        t.submit_neworder(w, blk, &mut rng);
                        blk
                    } else {
                        let blk = t.machine.alloc_block(w, TpccBionic::payment_block_size());
                        t.submit_payment(w, blk, &mut rng);
                        blk
                    };
                    blocks.push((w, blk));
                }
            }
            Sys::Multisite { db, proc, .. } => {
                let workers = MULTISITE_WORKERS as u64;
                for i in 0..18u64 {
                    let origin = (i % workers) as usize;
                    let from_w = rng.gen_range(0..workers);
                    let to_w = rng.gen_range(0..workers);
                    let from_k = rng.gen_range(0..MULTISITE_ACCOUNTS);
                    let mut to_k = rng.gen_range(0..MULTISITE_ACCOUNTS);
                    if from_w == to_w && to_k == from_k {
                        to_k = (to_k + 1) % MULTISITE_ACCOUNTS;
                    }
                    let blk = db.alloc_block(origin, 160);
                    db.init_block(blk, *proc);
                    db.write_block_u64(blk, 0, from_k);
                    db.write_block_u64(blk, 8, to_k);
                    db.write_block_u64(blk, 16, from_w);
                    db.write_block_u64(blk, 24, to_w);
                    db.write_block_u64(blk, 32, rng.gen_range(1..50));
                    db.submit(origin, blk);
                    blocks.push((origin, blk));
                }
            }
            Sys::SmallBank(sb) => {
                // Conserving ops only: any committed prefix of this batch
                // leaves the total balance at its initial value, which is
                // what lets a mid-run crash image be checked at all.
                for i in 0..18usize {
                    let w = i % sb.machine.num_workers();
                    let blk = sb.machine.alloc_block(w, SmallBankBionic::block_size());
                    sb.submit_txn(w, blk, SbOp::conserving_at(i), &mut rng);
                    blocks.push((w, blk));
                }
            }
        }
        blocks
    }

    /// Workload-level invariants that must hold on *any* recovered image
    /// (every transfer conserves money, so every committed prefix does).
    fn assert_invariants(&mut self) {
        if let Sys::SmallBank(sb) = self {
            assert_eq!(
                sb.total_balance(),
                sb.initial_total(),
                "SmallBank conserving batch keeps the total balance"
            );
        }
        if let Sys::Multisite { db, table, .. } = self {
            let total: u64 = (0..MULTISITE_WORKERS)
                .map(|w| {
                    (0..MULTISITE_ACCOUNTS)
                        .map(|k| {
                            let a = db
                                .loader(w)
                                .lookup(*table, &k.to_le_bytes())
                                .expect("account exists");
                            u64::from_le_bytes(
                                db.loader(w).payload(*table, a)[..8].try_into().unwrap(),
                            )
                        })
                        .sum::<u64>()
                })
                .sum();
            assert_eq!(
                total,
                MULTISITE_WORKERS as u64 * MULTISITE_ACCOUNTS * MULTISITE_BALANCE,
                "money conserved on the recovered image"
            );
        }
    }
}

const RUN_LIMIT: u64 = 1 << 28;

fn drive_to_completion(sys: &mut Sys, blocks: &[(usize, TxnBlock)]) {
    let m = sys.machine();
    m.run_to_quiescence_limit(RUN_LIMIT);
    if m.is_crashed() {
        return;
    }
    let out = m.retry_to_completion(blocks, RetryBudget { max_attempts: 128 }, RUN_LIMIT);
    if !m.is_crashed() {
        assert!(out.all_committed(), "fault-free drive converges: {out:?}");
    }
}

/// Crash the workload at `t_end · frac_permille / 1000`, recover from the
/// salvaged durable bytes, and assert the recovered image is exactly the
/// committed-prefix state. With `torn`, the crash additionally interrupts
/// the append of the last in-flight log record mid-write.
///
/// Panics (test-style) on any violated property. `frac_permille` is
/// clamped to `[0, 999]` so the crash always lands inside the run.
pub fn run_crash(
    workload: ChaosWorkload,
    frac_permille: u64,
    torn: bool,
    seed: u64,
) -> ChaosReport {
    run_crash_inner(workload, frac_permille, torn, seed, 1)
}

/// Like [`run_crash`], but the crash run executes on the epoch-parallel
/// lane engine (`sim_threads` scoped threads), so the power loss lands
/// inside a threaded barrier round. The clean twin stays on the serial
/// loop: every cross-run assertion (commit subset, salvaged prefix,
/// recovered image) then doubles as a bit-identity check between the two
/// schedulers, and recovery itself replays on ordinary serial machines.
pub fn run_threaded_crash(
    workload: ChaosWorkload,
    frac_permille: u64,
    torn: bool,
    seed: u64,
    sim_threads: usize,
) -> ChaosReport {
    assert!(
        sim_threads > 1,
        "a threaded run needs at least two sim threads"
    );
    run_crash_inner(workload, frac_permille, torn, seed, sim_threads)
}

fn run_crash_inner(
    workload: ChaosWorkload,
    frac_permille: u64,
    torn: bool,
    seed: u64,
    sim_threads: usize,
) -> ChaosReport {
    let frac = frac_permille.min(999);

    // 1. Clean twin: learn t_end and the full committed log (the oracle).
    let mut clean = Sys::build(workload, None);
    let blocks = clean.submit_batch(seed);
    drive_to_completion(&mut clean, &blocks);
    let t_end = clean.machine().now();
    let mut clean_log = CommandLog::new();
    for &(w, blk) in &blocks {
        clean_log.capture(clean.machine(), w, blk);
    }
    assert_eq!(
        clean_log.len(),
        blocks.len(),
        "clean twin commits everything"
    );

    // 2. Crash run: identical machine + batch, power loss mid-run. The
    // hook is the durable medium: it snapshots committed work as log bytes
    // (tearing the tail append when asked) plus the load-time checkpoint.
    let crash_cycle = (t_end * frac / 1000).max(1);
    let mut crashed = Sys::build(workload, None);
    crashed.machine().set_sim_threads(sim_threads);
    let ckpt_bytes = Checkpoint::dump(crashed.machine()).to_bytes();
    let truth: Rc<RefCell<Option<CommandLog>>> = Rc::new(RefCell::new(None));
    {
        let blocks = blocks.clone();
        let truth = Rc::clone(&truth);
        crashed
            .machine()
            .set_crash_hook(move |m: &Machine| -> bionicdb::DurableImage {
                let mut log = CommandLog::new();
                for &(w, blk) in &blocks {
                    log.capture(m, w, blk);
                }
                let log_bytes = if torn && !log.is_empty() {
                    // The crash caught the last record's append mid-write:
                    // its 8-byte frame landed, plus one byte of body.
                    let tear = FaultPlan::none().torn_log_write(log.len() as u64 - 1, 9);
                    log.to_bytes_faulted(&tear)
                } else {
                    log.to_bytes()
                };
                *truth.borrow_mut() = Some(log);
                bionicdb::DurableImage {
                    log: log_bytes,
                    checkpoint: ckpt_bytes.clone(),
                }
            });
    }
    crashed
        .machine()
        .set_fault_plan(FaultPlan::none().crash_at(crash_cycle));
    let resub = crashed.submit_batch(seed);
    assert_eq!(
        resub, blocks,
        "identical build generates an identical batch"
    );
    drive_to_completion(&mut crashed, &blocks);
    assert!(crashed.machine().is_crashed(), "the crash fired");
    if sim_threads > 1 {
        // The lane engine ran at least one barrier round before the power
        // loss — the crash really did land inside a threaded round, not
        // before the engine ever engaged.
        assert!(
            crashed.machine().epoch_rounds() > 0,
            "crash landed inside a threaded barrier round"
        );
    }
    let image = crashed
        .machine()
        .take_crash_image()
        .expect("hook produced a durable image");
    let truth = truth.borrow_mut().take().expect("hook captured the oracle");

    // The crash run is bit-identical to the clean run up to the crash, so
    // everything committed at the crash instant appears, byte-for-byte, in
    // the clean twin's full log.
    for rec in truth.records() {
        assert!(
            clean_log.records().contains(rec),
            "crash-time commit is a subset of the clean run's commits"
        );
    }

    // 3. Decode the salvaged bytes; a torn tail must be detected and cut.
    let (prefix, err) = CommandLog::from_bytes_prefix(&image.log);
    let expect_torn = torn && !truth.is_empty();
    if expect_torn {
        let err = err.expect("torn tail is reported");
        assert!(err.is_torn_tail(), "torn tail classified as torn: {err}");
        assert_eq!(prefix.len(), truth.len() - 1, "all whole records salvaged");
    } else {
        assert!(err.is_none(), "clean image decodes fully: {err:?}");
        assert_eq!(prefix.len(), truth.len());
    }
    assert_eq!(
        prefix.records(),
        &truth.records()[..prefix.len()],
        "salvaged records survive byte-for-byte"
    );

    // 4. Recover on a fresh machine and compare against a reference replay
    // of the oracle prefix on another fresh machine.
    let mut rec = Sys::build(workload, None);
    assert_eq!(
        Checkpoint::from_bytes(&image.checkpoint).expect("checkpoint decodes"),
        Checkpoint::dump(rec.machine()),
        "salvaged checkpoint equals the load-time image"
    );
    assert_eq!(prefix.replay(rec.machine()), prefix.len());

    let mut reference = Sys::build(workload, None);
    let oracle = CommandLog::from_records(truth.records()[..prefix.len()].to_vec());
    oracle.replay(reference.machine());
    assert_eq!(
        Checkpoint::dump(rec.machine()),
        Checkpoint::dump(reference.machine()),
        "recovered image equals the committed-prefix re-execution"
    );
    rec.assert_invariants();

    ChaosReport {
        workload,
        total_txns: blocks.len(),
        crash_cycle: Some(crash_cycle),
        committed_at_crash: truth.len(),
        salvaged: prefix.len(),
        torn: expect_torn,
        dropped: 0,
    }
}

/// Drop the scheduled interconnect sends mid-run and assert the retry +
/// dedup layer fully absorbs the loss: every transaction commits, the NoC
/// accounting identity balances, workload invariants hold, and replaying
/// the captured log on a fresh machine reproduces the final state exactly.
pub fn run_noc_drop(workload: ChaosWorkload, drops: &[u64], seed: u64) -> ChaosReport {
    let mut sys = Sys::build(workload, Some(chaos_retry()));
    let mut plan = FaultPlan::none();
    for &n in drops {
        plan = plan.drop_nth_send(n);
    }
    sys.machine().set_fault_plan(plan);
    let blocks = sys.submit_batch(seed);
    let m = sys.machine();
    m.run_to_quiescence_limit(RUN_LIMIT);
    let out = m.retry_to_completion(&blocks, RetryBudget { max_attempts: 128 }, RUN_LIMIT);
    assert!(out.all_committed(), "losses absorbed by retries: {out:?}");
    let s = m.noc().stats();
    assert!(s.dropped >= 1, "the drop schedule actually fired: {s:?}");
    assert_eq!(
        s.sent,
        s.delivered + s.dropped + m.noc().in_flight(),
        "NoC conservation: {s:?}"
    );
    assert_eq!(m.noc().in_flight(), 0, "quiescent interconnect");
    sys.assert_invariants();

    // The log captured from the lossy run replays to the identical image
    // on a pristine machine: lost/retried/deduplicated messages left no
    // trace in durable state.
    let mut log = CommandLog::new();
    for &(w, blk) in &blocks {
        log.capture(sys.machine(), w, blk);
    }
    assert_eq!(log.len(), blocks.len());
    let final_state = Checkpoint::dump(sys.machine());
    let decoded = CommandLog::from_bytes(&log.to_bytes()).expect("clean log decodes");
    let mut rec = Sys::build(workload, None);
    assert_eq!(decoded.replay(rec.machine()), blocks.len());
    assert_eq!(
        Checkpoint::dump(rec.machine()),
        final_state,
        "replay of the lossy run's log reproduces its final state"
    );
    rec.assert_invariants();

    ChaosReport {
        workload,
        total_txns: blocks.len(),
        crash_cycle: None,
        committed_at_crash: blocks.len(),
        salvaged: blocks.len(),
        torn: false,
        dropped: s.dropped,
    }
}
