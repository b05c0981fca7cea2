//! SmallBank on BionicDB and Silo — the workload that proves the ABI seam.
//!
//! SmallBank (Alomari et al., "The Cost of Serializability on Platforms
//! That Use Snapshot Isolation") models a retail bank: every customer has
//! a savings and a checking account, and six short transactions move money
//! between them. It is the canonical "short transactions, hot accounts"
//! OLTP stress test, and a natural fit for BionicDB's stored-procedure
//! model: each transaction is 1–3 index operations plus a few ALU ops.
//!
//! This module was written **after** the workload ABI landed and touches
//! zero engine files: two hash tables registered through
//! [`crate::abi::assemble`], six procedures built with the shared
//! commit-discipline helpers in [`crate::abi::procs`], a seeded
//! partition-aware generator, and a Silo twin driven by the same
//! [`SbOp::at`] rotation so the mixes cannot drift between engines. It
//! runs under strict, fast-forward and epoch-parallel execution and
//! inherits chaos/crash-recovery testing through the generic harnesses.
//!
//! ## Simplification
//!
//! The canonical `WriteCheck` applies a $1 overdraft penalty when the
//! combined balance is insufficient. We make the debit unconditional so
//! every transaction's effect on total money is known at generation time —
//! the generator tracks the expected net delta and
//! [`SmallBankBionic::assert_conserved`] checks the books after every
//! driven wave (and the chaos harness checks an invariant total at any
//! committed prefix using the conserving subset of operations).
//!
//! ## Knobs
//!
//! * `hot_theta` — Zipfian account skew (hot accounts are where SmallBank
//!   hurts timestamp CC: concurrent RMWs on one balance dirty-reject);
//! * `transfer_remote_fraction` — fraction of `SendPayment` transactions
//!   crediting an account on another partition (multisite transfers over
//!   the NoC).

use std::borrow::BorrowMut;

use bionicdb::{
    BionicConfig, Machine, ProcBuilder, ProcId, RetryBudget, TableId, TableMeta, TxnBlock,
};
use bionicdb_softcore::isa::{AluOp, MemBase, Operand};
use rand::rngs::SmallRng;
use rand::Rng;

use crate::abi::procs::{abort_clear_dirty, commit_tuple, ret_or_abort, PAYLOAD};
use crate::abi::{assemble, SiloWorkload, Workload};
use crate::zipf::Zipf;

/// SmallBank parameters.
#[derive(Debug, Clone)]
pub struct SmallBankSpec {
    /// Customer accounts per partition (each has a savings and a checking
    /// row).
    pub accounts_per_partition: u64,
    /// Payload bytes per account row (balance in the first 8 bytes).
    pub payload_len: u32,
    /// Initial balance per account row, in cents.
    pub initial_balance: u64,
    /// Zipfian skew for account selection (`None` = uniform; YCSB-style
    /// θ ∈ (0, 1), hotter as θ → 1).
    pub hot_theta: Option<f64>,
    /// Fraction of `SendPayment` transactions crediting a remote
    /// partition's account.
    pub transfer_remote_fraction: f64,
}

impl Default for SmallBankSpec {
    fn default() -> Self {
        SmallBankSpec {
            accounts_per_partition: 20_000,
            payload_len: 64,
            initial_balance: 1_000_000,
            hot_theta: None,
            transfer_remote_fraction: 0.15,
        }
    }
}

impl SmallBankSpec {
    /// A miniature spec for unit tests.
    pub fn tiny() -> Self {
        SmallBankSpec {
            accounts_per_partition: 2_000,
            ..SmallBankSpec::default()
        }
    }
}

/// The six SmallBank transactions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SbOp {
    /// Read both balances of one account.
    Balance,
    /// checking += amount.
    DepositChecking,
    /// savings += amount.
    TransactSavings,
    /// Read savings, checking -= amount (unconditional debit; see module
    /// docs).
    WriteCheck,
    /// checking\[src\] -= amount, checking\[dst\] += amount (dst possibly
    /// remote — the multisite transfer).
    SendPayment,
    /// Move savings+checking of src into checking of dst (both local).
    Amalgamate,
}

impl SbOp {
    /// All six operations, in rotation order.
    pub const ALL: [SbOp; 6] = [
        SbOp::Balance,
        SbOp::DepositChecking,
        SbOp::TransactSavings,
        SbOp::WriteCheck,
        SbOp::SendPayment,
        SbOp::Amalgamate,
    ];

    /// The `i`-th transaction of the standard mix — the single mix source
    /// for both engines (BionicDB generator and Silo twin).
    pub fn at(i: usize) -> SbOp {
        Self::ALL[i % Self::ALL.len()]
    }

    /// The `i`-th transaction of the money-conserving mix (no deposits or
    /// debits), used by harnesses that must find the invariant total at
    /// *any* committed prefix (chaos crash recovery).
    pub fn conserving_at(i: usize) -> SbOp {
        [SbOp::SendPayment, SbOp::Amalgamate, SbOp::Balance][i % 3]
    }
}

// ---------------------------------------------------------------------------
// Transaction-block layout (uniform across all six procedures)
// ---------------------------------------------------------------------------

const SB_KEY_A: u64 = 0;
const SB_KEY_B: u64 = 8;
const SB_HOME_B: u64 = 16;
const SB_AMOUNT: u64 = 24;
/// User-area size of a SmallBank block.
pub const SB_USER_SIZE: u64 = 32;

// ---------------------------------------------------------------------------
// Stored procedures
// ---------------------------------------------------------------------------

/// Balance: search both rows, validate, commit (read-only).
fn build_balance_proc(savings: TableId, checking: TableId) -> bionicdb_softcore::Procedure {
    let mut b = ProcBuilder::new("sb_balance");
    let c_s = b.cp();
    let c_c = b.cp();
    b.search(savings, Operand::Imm(SB_KEY_A as i64), Operand::Imm(-1), c_s);
    b.search(checking, Operand::Imm(SB_KEY_A as i64), Operand::Imm(-1), c_c);
    b.begin_commit();
    b.ret_checked(c_s);
    b.ret_checked(c_c);
    b.commit();
    b.begin_abort();
    b.abort();
    b.build().expect("sb_balance proc")
}

/// DepositChecking / TransactSavings: one local RMW adding the block's
/// amount to the row's balance.
fn build_deposit_proc(name: &str, table: TableId) -> bionicdb_softcore::Procedure {
    let mut b = ProcBuilder::new(name);
    let c = b.cp();
    let g_ts = b.gp();
    let g_zero = b.gp();
    let g_amt = b.gp();
    let g_v = b.gp();
    let g_a = b.gp();

    b.getts(g_ts);
    b.mov(g_zero, Operand::Imm(0));
    b.update(table, Operand::Imm(SB_KEY_A as i64), Operand::Imm(-1), c);
    b.yield_();

    b.begin_commit();
    b.load(g_amt, MemBase::Block, Operand::Imm(SB_AMOUNT as i64));
    let g_a = ret_or_abort(&mut b, c, g_a);
    b.load(g_v, MemBase::Reg(g_a), Operand::Imm(PAYLOAD));
    b.add(g_v, Operand::Reg(g_amt));
    b.store(g_v, MemBase::Reg(g_a), Operand::Imm(PAYLOAD));
    commit_tuple(&mut b, g_a, g_ts, g_zero);
    b.commit();

    b.begin_abort();
    let g_x = b.gp();
    abort_clear_dirty(&mut b, g_x, g_zero, &[c]);
    b.abort();
    b.build().expect("sb deposit proc")
}

/// WriteCheck: validate the savings row exists (read), then debit checking
/// unconditionally (module docs).
fn build_write_check_proc(savings: TableId, checking: TableId) -> bionicdb_softcore::Procedure {
    let mut b = ProcBuilder::new("sb_write_check");
    let c_s = b.cp();
    let c_c = b.cp();
    let g_ts = b.gp();
    let g_zero = b.gp();
    let g_amt = b.gp();
    let g_v = b.gp();
    let g_a = b.gp();

    b.getts(g_ts);
    b.mov(g_zero, Operand::Imm(0));
    b.search(savings, Operand::Imm(SB_KEY_A as i64), Operand::Imm(-1), c_s);
    b.update(checking, Operand::Imm(SB_KEY_A as i64), Operand::Imm(-1), c_c);
    b.yield_();

    b.begin_commit();
    b.load(g_amt, MemBase::Block, Operand::Imm(SB_AMOUNT as i64));
    // Validate both results before applying the debit (two-pass
    // validate-then-apply: an abort handler cannot undo a balance write).
    ret_or_abort(&mut b, c_s, g_v);
    let g_a = ret_or_abort(&mut b, c_c, g_a);
    b.load(g_v, MemBase::Reg(g_a), Operand::Imm(PAYLOAD));
    b.alu(AluOp::Sub, g_v, Operand::Reg(g_amt));
    b.store(g_v, MemBase::Reg(g_a), Operand::Imm(PAYLOAD));
    commit_tuple(&mut b, g_a, g_ts, g_zero);
    b.commit();

    b.begin_abort();
    let g_x = b.gp();
    abort_clear_dirty(&mut b, g_x, g_zero, &[c_c]);
    b.abort();
    b.build().expect("sb_write_check proc")
}

/// SendPayment: debit checking\[A\] locally, credit checking\[B\] whose
/// home partition is read from the block — the multisite transfer.
fn build_send_payment_proc(checking: TableId) -> bionicdb_softcore::Procedure {
    let mut b = ProcBuilder::new("sb_send_payment");
    let c_a = b.cp();
    let c_b = b.cp();
    let g_ts = b.gp();
    let g_zero = b.gp();
    let g_h = b.gp();
    let g_amt = b.gp();
    let g_v = b.gp();
    let g_a = b.gp();
    let g_b = b.gp();

    b.getts(g_ts);
    b.mov(g_zero, Operand::Imm(0));
    b.update(checking, Operand::Imm(SB_KEY_A as i64), Operand::Imm(-1), c_a);
    b.load(g_h, MemBase::Block, Operand::Imm(SB_HOME_B as i64));
    b.update(checking, Operand::Imm(SB_KEY_B as i64), Operand::Reg(g_h), c_b);
    b.yield_();

    b.begin_commit();
    b.load(g_amt, MemBase::Block, Operand::Imm(SB_AMOUNT as i64));
    // Validate both grants, then move the money.
    let g_a = ret_or_abort(&mut b, c_a, g_a);
    let g_b = ret_or_abort(&mut b, c_b, g_b);
    b.load(g_v, MemBase::Reg(g_a), Operand::Imm(PAYLOAD));
    b.alu(AluOp::Sub, g_v, Operand::Reg(g_amt));
    b.store(g_v, MemBase::Reg(g_a), Operand::Imm(PAYLOAD));
    commit_tuple(&mut b, g_a, g_ts, g_zero);
    b.load(g_v, MemBase::Reg(g_b), Operand::Imm(PAYLOAD));
    b.add(g_v, Operand::Reg(g_amt));
    b.store(g_v, MemBase::Reg(g_b), Operand::Imm(PAYLOAD));
    commit_tuple(&mut b, g_b, g_ts, g_zero);
    b.commit();

    b.begin_abort();
    let g_x = b.gp();
    abort_clear_dirty(&mut b, g_x, g_zero, &[c_a, c_b]);
    b.abort();
    b.build().expect("sb_send_payment proc")
}

/// Amalgamate: zero savings\[A\] and checking\[A\], credit their sum to
/// checking\[B\] (all rows local; A ≠ B).
fn build_amalgamate_proc(savings: TableId, checking: TableId) -> bionicdb_softcore::Procedure {
    let mut b = ProcBuilder::new("sb_amalgamate");
    let c_s = b.cp();
    let c_a = b.cp();
    let c_b = b.cp();
    let g_ts = b.gp();
    let g_zero = b.gp();
    let g_v = b.gp();
    let g_u = b.gp();
    let g_s = b.gp();
    let g_a = b.gp();
    let g_b = b.gp();

    b.getts(g_ts);
    b.mov(g_zero, Operand::Imm(0));
    b.update(savings, Operand::Imm(SB_KEY_A as i64), Operand::Imm(-1), c_s);
    b.update(checking, Operand::Imm(SB_KEY_A as i64), Operand::Imm(-1), c_a);
    b.update(checking, Operand::Imm(SB_KEY_B as i64), Operand::Imm(-1), c_b);
    b.yield_();

    b.begin_commit();
    let g_s = ret_or_abort(&mut b, c_s, g_s);
    let g_a = ret_or_abort(&mut b, c_a, g_a);
    let g_b = ret_or_abort(&mut b, c_b, g_b);
    // total := savings[A] + checking[A]; zero both; checking[B] += total.
    b.load(g_v, MemBase::Reg(g_s), Operand::Imm(PAYLOAD));
    b.load(g_u, MemBase::Reg(g_a), Operand::Imm(PAYLOAD));
    b.add(g_v, Operand::Reg(g_u));
    b.store(g_zero, MemBase::Reg(g_s), Operand::Imm(PAYLOAD));
    b.store(g_zero, MemBase::Reg(g_a), Operand::Imm(PAYLOAD));
    b.load(g_u, MemBase::Reg(g_b), Operand::Imm(PAYLOAD));
    b.add(g_u, Operand::Reg(g_v));
    b.store(g_u, MemBase::Reg(g_b), Operand::Imm(PAYLOAD));
    commit_tuple(&mut b, g_s, g_ts, g_zero);
    commit_tuple(&mut b, g_a, g_ts, g_zero);
    commit_tuple(&mut b, g_b, g_ts, g_zero);
    b.commit();

    b.begin_abort();
    let g_x = b.gp();
    abort_clear_dirty(&mut b, g_x, g_zero, &[c_s, c_a, c_b]);
    b.abort();
    b.build().expect("sb_amalgamate proc")
}

// ---------------------------------------------------------------------------
// The assembled SmallBank system on BionicDB
// ---------------------------------------------------------------------------

/// SmallBank on BionicDB: accounts partitioned by worker, two hash tables.
pub struct SmallBankBionic {
    /// The machine.
    pub machine: Machine,
    /// Parameters.
    pub spec: SmallBankSpec,
    /// Savings rows.
    pub savings: TableId,
    /// Checking rows.
    pub checking: TableId,
    /// Balance procedure.
    pub balance: ProcId,
    /// DepositChecking procedure.
    pub deposit_checking: ProcId,
    /// TransactSavings procedure.
    pub transact_savings: ProcId,
    /// WriteCheck procedure.
    pub write_check: ProcId,
    /// SendPayment procedure.
    pub send_payment: ProcId,
    /// Amalgamate procedure.
    pub amalgamate: ProcId,
    /// Total money loaded at build time.
    initial_total: u64,
    /// Net delta of every generated transaction (wrapping, cents).
    expected_delta: u64,
    /// Hot-account sampler (`hot_theta`).
    zipf: Option<Zipf>,
}

struct SbHandles {
    savings: TableId,
    checking: TableId,
    balance: ProcId,
    deposit_checking: ProcId,
    transact_savings: ProcId,
    write_check: ProcId,
    send_payment: ProcId,
    amalgamate: ProcId,
}

impl SmallBankBionic {
    /// Build the machine, register schema + procedures, load every
    /// partition's accounts. Touches only the [`crate::abi`] surface.
    pub fn build(cfg: BionicConfig, spec: SmallBankSpec) -> Self {
        let buckets = (spec.accounts_per_partition * 2).next_power_of_two();
        let payload_len = spec.payload_len;
        let (machine, h) = assemble(
            cfg,
            |b| {
                let savings = b.table(TableMeta::hash("sb_savings", 8, payload_len, buckets));
                let checking = b.table(TableMeta::hash("sb_checking", 8, payload_len, buckets));
                SbHandles {
                    savings,
                    checking,
                    balance: b.proc(build_balance_proc(savings, checking)),
                    deposit_checking: b.proc(build_deposit_proc("sb_deposit_checking", checking)),
                    transact_savings: b.proc(build_deposit_proc("sb_transact_savings", savings)),
                    write_check: b.proc(build_write_check_proc(savings, checking)),
                    send_payment: b.proc(build_send_payment_proc(checking)),
                    amalgamate: b.proc(build_amalgamate_proc(savings, checking)),
                }
            },
            |machine, w, h| {
                let mut loader = machine.loader(w);
                let mut payload = vec![0u8; spec.payload_len as usize];
                payload[..8].copy_from_slice(&spec.initial_balance.to_le_bytes());
                for k in 0..spec.accounts_per_partition {
                    loader.insert(h.savings, &k.to_le_bytes(), &payload);
                    loader.insert(h.checking, &k.to_le_bytes(), &payload);
                }
            },
        );
        let initial_total = machine.num_workers() as u64
            * spec.accounts_per_partition
            * 2
            * spec.initial_balance;
        let zipf = spec
            .hot_theta
            .map(|theta| Zipf::new(spec.accounts_per_partition, theta));
        SmallBankBionic {
            machine,
            savings: h.savings,
            checking: h.checking,
            balance: h.balance,
            deposit_checking: h.deposit_checking,
            transact_savings: h.transact_savings,
            write_check: h.write_check,
            send_payment: h.send_payment,
            amalgamate: h.amalgamate,
            initial_total,
            expected_delta: 0,
            zipf,
            spec,
        }
    }

    /// Bytes per transaction block (uniform across operations).
    pub fn block_size() -> u64 {
        bionicdb_softcore::BLOCK_HEADER_SIZE + SB_USER_SIZE
    }

    /// Draw one account id (Zipfian when `hot_theta` is set).
    fn draw_account(&self, rng: &mut SmallRng) -> u64 {
        match &self.zipf {
            Some(z) => z.sample(rng),
            None => rng.gen_range(0..self.spec.accounts_per_partition),
        }
    }

    /// Draw an account distinct from `other`.
    fn draw_distinct(&self, rng: &mut SmallRng, other: u64) -> u64 {
        assert!(self.spec.accounts_per_partition > 1, "need two accounts");
        loop {
            let k = self.draw_account(rng);
            if k != other {
                return k;
            }
        }
    }

    /// Populate and submit one `op` transaction for `worker`, tracking the
    /// expected net effect on total money.
    pub fn submit_txn(&mut self, worker: usize, blk: TxnBlock, op: SbOp, rng: &mut SmallRng) {
        let n_workers = self.machine.num_workers();
        let src = self.draw_account(rng);
        let (proc, dst, home_b, amount) = match op {
            SbOp::Balance => (self.balance, 0, worker as u64, 0),
            SbOp::DepositChecking | SbOp::TransactSavings | SbOp::WriteCheck => {
                let amount = rng.gen_range(100..=5_000u64);
                let proc = match op {
                    SbOp::DepositChecking => {
                        self.expected_delta = self.expected_delta.wrapping_add(amount);
                        self.deposit_checking
                    }
                    SbOp::TransactSavings => {
                        self.expected_delta = self.expected_delta.wrapping_add(amount);
                        self.transact_savings
                    }
                    _ => {
                        self.expected_delta = self.expected_delta.wrapping_sub(amount);
                        self.write_check
                    }
                };
                (proc, 0, worker as u64, amount)
            }
            SbOp::SendPayment => {
                let home = if n_workers > 1
                    && rng.gen_bool(self.spec.transfer_remote_fraction)
                {
                    // Uniform over the other partitions.
                    let mut h = rng.gen_range(0..n_workers - 1);
                    if h >= worker {
                        h += 1;
                    }
                    h as u64
                } else {
                    worker as u64
                };
                // A remote credit may reuse the local key id; a local one
                // must hit a distinct row (a repeated key would
                // self-conflict on its own dirty mark).
                let dst = if home == worker as u64 {
                    self.draw_distinct(rng, src)
                } else {
                    self.draw_account(rng)
                };
                let amount = rng.gen_range(100..=5_000u64);
                (self.send_payment, dst, home, amount)
            }
            SbOp::Amalgamate => {
                let dst = self.draw_distinct(rng, src);
                (self.amalgamate, dst, worker as u64, 0)
            }
        };
        let m = &mut self.machine;
        m.init_block(blk, proc);
        m.write_block_u64(blk, SB_KEY_A, src);
        m.write_block_u64(blk, SB_KEY_B, dst);
        m.write_block_u64(blk, SB_HOME_B, home_b);
        m.write_block_u64(blk, SB_AMOUNT, amount);
        m.submit(worker, blk);
    }

    /// Sum every balance in the machine (host-side, untimed).
    pub fn total_balance(&mut self) -> u64 {
        let mut total = 0u64;
        let accounts = self.spec.accounts_per_partition;
        for w in 0..self.machine.num_workers() {
            let loader = self.machine.loader(w);
            for table in [self.savings, self.checking] {
                for k in 0..accounts {
                    let addr = loader
                        .lookup(table, &k.to_le_bytes())
                        .expect("loaded account");
                    let payload = loader.payload(table, addr);
                    total = total.wrapping_add(u64::from_le_bytes(
                        payload[..8].try_into().expect("balance word"),
                    ));
                }
            }
        }
        total
    }

    /// Money conservation: the books must balance against every generated
    /// transaction's expected effect. Call only when every submitted
    /// transaction has committed (the driver retries to completion).
    pub fn assert_conserved(&mut self) {
        let expect = self.initial_total.wrapping_add(self.expected_delta);
        let got = self.total_balance();
        assert_eq!(
            got, expect,
            "SmallBank books out of balance: total {got}, expected {expect}"
        );
    }

    /// Total money loaded at build time (the invariant total under the
    /// conserving mix).
    pub fn initial_total(&self) -> u64 {
        self.initial_total
    }
}

// ---------------------------------------------------------------------------
// Workload-ABI adapter
// ---------------------------------------------------------------------------

/// SmallBank as a [`Workload`]: the standard six-op rotation with
/// client-side retry (hot accounts dirty-reject under timestamp CC) and a
/// money-conservation validation hook.
pub struct SmallBankWorkload<S> {
    /// The assembled system (owned or borrowed).
    pub sys: S,
}

impl<S: BorrowMut<SmallBankBionic>> Workload for SmallBankWorkload<S> {
    fn name(&self) -> &'static str {
        "smallbank"
    }

    fn machine(&mut self) -> &mut Machine {
        &mut self.sys.borrow_mut().machine
    }

    fn machine_ref(&self) -> &Machine {
        &self.sys.borrow().machine
    }

    fn seed(&self) -> u64 {
        0x5BAB
    }

    fn block_size(&self, _worker: usize, _i: usize) -> u64 {
        SmallBankBionic::block_size()
    }

    fn retry(&self) -> Option<RetryBudget> {
        Some(RetryBudget { max_attempts: 1000 })
    }

    fn submit(&mut self, worker: usize, i: usize, blk: TxnBlock, rng: &mut SmallRng) {
        let op = SbOp::at(i);
        self.sys.borrow_mut().submit_txn(worker, blk, op, rng);
    }

    fn validate(&mut self) {
        self.sys.borrow_mut().assert_conserved();
    }
}

// ---------------------------------------------------------------------------
// Silo driver
// ---------------------------------------------------------------------------

/// SmallBank on the Silo baseline (shared-everything; partitions only
/// scale the data). The mix comes from the same [`SbOp::at`] rotation as
/// the BionicDB generator.
pub struct SmallBankSilo {
    /// The database.
    pub db: bionicdb_silo::SiloDb,
    /// Parameters.
    pub spec: SmallBankSpec,
    /// Flat keyspace (`partitions × accounts_per_partition`).
    pub keyspace: u64,
    zipf: Option<Zipf>,
}

/// Silo-side table indices.
pub mod silo_tables {
    /// Savings rows.
    pub const SAVINGS: usize = 0;
    /// Checking rows.
    pub const CHECKING: usize = 1;
}

impl SmallBankSilo {
    /// Build and load.
    pub fn build(spec: SmallBankSpec, partitions: usize) -> Self {
        use bionicdb_silo::{SiloDb, SwIndexKind, TableDef};
        let keyspace = spec.accounts_per_partition * partitions as u64;
        let h = SwIndexKind::Hash {
            buckets: (keyspace * 2).next_power_of_two() as usize,
        };
        let db = SiloDb::new(vec![
            TableDef::new("sb_savings", h, spec.payload_len as usize),
            TableDef::new("sb_checking", h, spec.payload_len as usize),
        ]);
        let mut payload = vec![0u8; spec.payload_len as usize];
        payload[..8].copy_from_slice(&spec.initial_balance.to_le_bytes());
        for k in 0..keyspace {
            db.load(silo_tables::SAVINGS, k, payload.clone());
            db.load(silo_tables::CHECKING, k, payload.clone());
        }
        let zipf = spec.hot_theta.map(|theta| Zipf::new(keyspace, theta));
        SmallBankSilo {
            db,
            keyspace,
            zipf,
            spec,
        }
    }

    fn draw_account(&self, rng: &mut SmallRng) -> u64 {
        match &self.zipf {
            Some(z) => z.sample(rng),
            None => rng.gen_range(0..self.keyspace),
        }
    }

    /// Run the `i`-th transaction of the standard rotation; returns false
    /// on abort.
    pub fn run_txn<T: bionicdb_cpu_model::Tracer>(
        &self,
        tr: &mut T,
        rng: &mut SmallRng,
        i: usize,
    ) -> bool {
        use silo_tables::{CHECKING, SAVINGS};
        let src = self.draw_account(rng);
        let mut txn = self.db.txn();
        match SbOp::at(i) {
            SbOp::Balance => {
                let mut buf = Vec::new();
                if !txn.read(tr, SAVINGS, src, &mut buf) {
                    return false;
                }
                if !txn.read(tr, CHECKING, src, &mut buf) {
                    return false;
                }
            }
            SbOp::DepositChecking => {
                let amount = rng.gen_range(100..=5_000u64);
                if !txn.modify(tr, CHECKING, src, |p| add_u64(p, 0, amount)) {
                    return false;
                }
            }
            SbOp::TransactSavings => {
                let amount = rng.gen_range(100..=5_000u64);
                if !txn.modify(tr, SAVINGS, src, |p| add_u64(p, 0, amount)) {
                    return false;
                }
            }
            SbOp::WriteCheck => {
                let amount = rng.gen_range(100..=5_000u64);
                let mut buf = Vec::new();
                if !txn.read(tr, SAVINGS, src, &mut buf) {
                    return false;
                }
                if !txn.modify(tr, CHECKING, src, |p| sub_u64(p, 0, amount)) {
                    return false;
                }
            }
            SbOp::SendPayment => {
                let dst = self.draw_distinct(rng, src);
                let amount = rng.gen_range(100..=5_000u64);
                let ok = txn.modify(tr, CHECKING, src, |p| sub_u64(p, 0, amount))
                    && txn.modify(tr, CHECKING, dst, |p| add_u64(p, 0, amount));
                if !ok {
                    return false;
                }
            }
            SbOp::Amalgamate => {
                let dst = self.draw_distinct(rng, src);
                let mut total = 0u64;
                let ok = txn.modify(tr, SAVINGS, src, |p| {
                    total = total.wrapping_add(read_u64(p, 0));
                    p[..8].copy_from_slice(&0u64.to_le_bytes());
                }) && txn.modify(tr, CHECKING, src, |p| {
                    total = total.wrapping_add(read_u64(p, 0));
                    p[..8].copy_from_slice(&0u64.to_le_bytes());
                });
                if !ok {
                    return false;
                }
                if !txn.modify(tr, CHECKING, dst, |p| add_u64(p, 0, total)) {
                    return false;
                }
            }
        }
        txn.commit(tr).is_ok()
    }

    fn draw_distinct(&self, rng: &mut SmallRng, other: u64) -> u64 {
        assert!(self.keyspace > 1, "need two accounts");
        loop {
            let k = self.draw_account(rng);
            if k != other {
                return k;
            }
        }
    }
}

impl SiloWorkload for SmallBankSilo {
    fn seed(&self) -> u64 {
        0x5B51
    }

    fn run(&self, model: &mut bionicdb_cpu_model::CoreModel, rng: &mut SmallRng, i: usize) -> bool {
        self.run_txn(model, rng, i)
    }
}

fn read_u64(p: &[u8], off: usize) -> u64 {
    u64::from_le_bytes(p[off..off + 8].try_into().expect("u64 field"))
}

fn add_u64(p: &mut [u8], off: usize, v: u64) {
    let x = read_u64(p, off);
    p[off..off + 8].copy_from_slice(&x.wrapping_add(v).to_le_bytes());
}

fn sub_u64(p: &mut [u8], off: usize, v: u64) {
    let x = read_u64(p, off);
    p[off..off + 8].copy_from_slice(&x.wrapping_sub(v).to_le_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;
    use bionicdb::ExecMode;
    use rand::SeedableRng;

    fn tiny(workers: usize) -> SmallBankBionic {
        let mut cfg = BionicConfig::small(workers);
        cfg.mode = ExecMode::Interleaved;
        SmallBankBionic::build(cfg, SmallBankSpec::tiny())
    }

    fn run_ops(sb: &mut SmallBankBionic, ops: &[SbOp], seed: u64) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let workers = sb.machine.num_workers();
        let mut blocks = Vec::new();
        for (i, &op) in ops.iter().enumerate() {
            let w = i % workers;
            let blk = sb.machine.alloc_block(w, SmallBankBionic::block_size());
            sb.submit_txn(w, blk, op, &mut rng);
            blocks.push((w, blk));
        }
        sb.machine.run_to_quiescence_limit(1 << 26);
        let out =
            sb.machine
                .retry_to_completion(&blocks, RetryBudget { max_attempts: 128 }, 1 << 26);
        assert!(out.all_committed(), "SmallBank ops failed to converge");
    }

    #[test]
    fn every_op_commits_and_conserves() {
        let mut sb = tiny(2);
        let ops: Vec<SbOp> = (0..12).map(SbOp::at).collect();
        run_ops(&mut sb, &ops, 7);
        sb.assert_conserved();
    }

    #[test]
    fn deposit_moves_the_expected_amount() {
        let mut sb = tiny(1);
        let before = sb.total_balance();
        run_ops(&mut sb, &[SbOp::DepositChecking], 11);
        let after = sb.total_balance();
        assert!(after > before, "deposit increased total money");
        sb.assert_conserved();
    }

    #[test]
    fn conserving_mix_keeps_the_invariant_total() {
        let mut sb = tiny(2);
        let ops: Vec<SbOp> = (0..9).map(SbOp::conserving_at).collect();
        run_ops(&mut sb, &ops, 13);
        assert_eq!(sb.total_balance(), sb.initial_total());
        sb.assert_conserved();
    }

    #[test]
    fn remote_send_payment_crosses_the_noc() {
        let mut sb = tiny(2);
        sb.spec.transfer_remote_fraction = 1.0;
        let ops = [SbOp::SendPayment; 6];
        run_ops(&mut sb, &ops, 17);
        assert!(
            sb.machine.noc().stats().sent > 0,
            "remote transfers crossed the NoC"
        );
        assert_eq!(sb.total_balance(), sb.initial_total());
    }

    #[test]
    fn hot_theta_skews_account_selection() {
        let mut cfg = BionicConfig::small(1);
        cfg.mode = ExecMode::Interleaved;
        let sb = SmallBankBionic::build(
            cfg,
            SmallBankSpec {
                hot_theta: Some(0.99),
                ..SmallBankSpec::tiny()
            },
        );
        let mut rng = SmallRng::seed_from_u64(23);
        let hot = (0..512)
            .filter(|_| sb.draw_account(&mut rng) < 16)
            .count();
        assert!(hot > 128, "zipf concentrates on hot accounts: {hot}/512");
    }

    #[test]
    fn silo_twin_runs_the_same_rotation() {
        let silo = SmallBankSilo::build(SmallBankSpec::tiny(), 2);
        let mut model = bionicdb_cpu_model::CoreModel::new(bionicdb_cpu_model::CpuConfig::default());
        let mut rng = SmallRng::seed_from_u64(29);
        for i in 0..12 {
            assert!(silo.run_txn(&mut model, &mut rng, i), "txn {i} committed");
        }
        // Single-threaded: the books must balance exactly. Sum via reads.
        let mut total = 0u64;
        let mut buf = Vec::new();
        for t in [silo_tables::SAVINGS, silo_tables::CHECKING] {
            for k in 0..silo.keyspace {
                let mut txn = silo.db.txn();
                assert!(txn.read(&mut model, t, k, &mut buf));
                total = total.wrapping_add(read_u64(&buf, 0));
            }
        }
        let mut expect = silo.keyspace * 2 * silo.spec.initial_balance;
        // Replay the generator's deltas: deposits/debits from the same
        // seed/rotation.
        let mut rng = SmallRng::seed_from_u64(29);
        let mut model2 =
            bionicdb_cpu_model::CoreModel::new(bionicdb_cpu_model::CpuConfig::default());
        let probe = SmallBankSilo::build(SmallBankSpec::tiny(), 2);
        for i in 0..12 {
            // Re-run against a fresh db purely to consume the RNG the same
            // way; track deltas by op kind.
            let before = rng.clone();
            assert!(probe.run_txn(&mut model2, &mut rng, i));
            let mut r = before;
            let _src = probe.draw_account(&mut r);
            match SbOp::at(i) {
                SbOp::DepositChecking | SbOp::TransactSavings => {
                    expect = expect.wrapping_add(r.gen_range(100..=5_000u64));
                }
                SbOp::WriteCheck => {
                    expect = expect.wrapping_sub(r.gen_range(100..=5_000u64));
                }
                _ => {}
            }
        }
        assert_eq!(total, expect, "silo books balance");
    }
}
