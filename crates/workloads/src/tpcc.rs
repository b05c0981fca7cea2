//! TPC-C NewOrder + Payment for both engines (paper §5.3).
//!
//! The paper runs a 50:50 mix of NewOrder and Payment; the database is
//! partitioned by warehouse (one warehouse per partition worker here, as
//! in H-Store-style deployments), the read-only Item table is replicated
//! across partitions, Payment selects customers by id (the paper's
//! modification), and by default 1% of NewOrders and 15% of Payments are
//! cross-partition.
//!
//! ## The BionicDB stored procedures
//!
//! These are the paper's hand-written stored procedures re-created with the
//! [`ProcBuilder`]. Their structure follows the engine's two-phase
//! execution discipline:
//!
//! * **logic phase** — dispatch *every* DB instruction as early as
//!   possible (async, to maximize index pipelining), then perform the
//!   data-dependent work: NewOrder must `RET` the district update
//!   mid-logic to learn `next_o_id` (backing the old value into the
//!   block's UNDO buffer before the in-place increment — paper Fig. 3),
//!   compose the order / order-line keys from it, and dispatch the
//!   inserts. This serializing dependency is exactly why the paper's
//!   Fig. 12b shows no interleaving benefit for TPC-C.
//! * **commit handler** — RET + check every CP register; on any error jump
//!   to the abort handler. Then apply the buffered writes in place (stock
//!   quantity rule, YTD/balance updates), clear dirty bits and overwrite
//!   write timestamps with the begin timestamp (`GETTS`), and COMMIT.
//! * **abort handler** — guided by a progress register, RET whatever was
//!   dispatched, restore the district's `next_o_id` from the UNDO buffer
//!   if it was already incremented, clear dirty marks on granted updates
//!   and tombstone successful inserts, then ABORT.
//!
//! The item loop is unrolled to [`MAX_OL`] iterations with static CP
//! registers (a compiler targeting the softcore must unroll, since CP
//! indices are encoded in the instruction), bounded by the per-transaction
//! `ol_cnt` input.

use bionicdb::{
    BionicConfig, Machine, ProcBuilder, ProcId, SystemBuilder, TableId, TableMeta, TxnBlock,
};
use bionicdb_softcore::isa::{AluOp, Cond, Cp, MemBase, Operand};
use rand::rngs::SmallRng;
use rand::Rng;
use std::sync::OnceLock;

use crate::abi::procs::{
    abort_clear_dirty, commit_tuple, ret_or_abort, FLAGS_OFF, PAYLOAD, TOMBSTONE,
};
use crate::abi::{assemble, LoadSpec};
use crate::spec::{customer_key, district_key, order_key, orderline_key, stock_key, TpccSpec};

/// Maximum order lines per NewOrder (TPC-C: 5–15).
pub const MAX_OL: usize = 15;

/// Which TPC-C transaction mix to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TpccMix {
    /// 50:50 NewOrder : Payment (the paper's overall mix).
    Mixed,
    /// NewOrder only.
    NewOrderOnly,
    /// Payment only.
    PaymentOnly,
}

impl TpccMix {
    /// Whether the `i`-th transaction of a wave is a NewOrder. This is the
    /// single source of the mix ratio: the BionicDB generator and the Silo
    /// twin both call it, so the ratios cannot drift between engines.
    pub fn neworder_at(self, i: usize) -> bool {
        match self {
            TpccMix::Mixed => i.is_multiple_of(2),
            TpccMix::NewOrderOnly => true,
            TpccMix::PaymentOnly => false,
        }
    }
}

// ---------------------------------------------------------------------------
// Table payload layouts (scaled column sets; money in integer cents)
// ---------------------------------------------------------------------------

/// warehouse payload: [ytd, tax‰, pad, pad] (32 B)
pub const WAREHOUSE_PAYLOAD: u32 = 32;
/// district payload: `[next_o_id, ytd, tax permille, unused]` (32 B). The
/// 4th word (TPC-C's `next_deliv_o_id`) is loaded as 1 and never read: no
/// modelled transaction uses it, but it keeps every address in place.
pub const DISTRICT_PAYLOAD: u32 = 32;
/// customer payload: [balance, ytd_payment, payment_cnt, unused, pad ×4]
/// (64 B). The 4th word (TPC-C's `delivery_cnt`) is loaded as 0 and never
/// read, like the district's.
pub const CUSTOMER_PAYLOAD: u32 = 64;
/// stock payload: [quantity, ytd, order_cnt, remote_cnt] (32 B)
pub const STOCK_PAYLOAD: u32 = 32;
/// item payload: [price, pad] (16 B)
pub const ITEM_PAYLOAD: u32 = 16;
/// orders payload: [c_key, ol_cnt, entry_seq, pad] (32 B)
pub const ORDERS_PAYLOAD: u32 = 32;
/// new_orders payload: `[o_id]` (8 B)
pub const NEWORDERS_PAYLOAD: u32 = 8;
/// order_line payload: [i_id, qty, amount, supply_w] (32 B)
pub const ORDERLINE_PAYLOAD: u32 = 32;
/// history payload: [c_key, amount, pad, pad] (32 B)
pub const HISTORY_PAYLOAD: u32 = 32;

// ---------------------------------------------------------------------------
// NewOrder transaction-block layout (user-area offsets)
// ---------------------------------------------------------------------------

const NO_W_KEY: u64 = 0;
const NO_D_KEY: u64 = 8;
const NO_C_KEY: u64 = 16;
const NO_OL_CNT: u64 = 24;
const NO_OKEY_BASE: u64 = 32;
const NO_OLKEY_BASE: u64 = 40;
const NO_O_ID_OUT: u64 = 48;
const NO_UNDO_NOID: u64 = 56;
const NO_ORDER_PAY: u64 = 64; // 32 B, host-prewritten (c_key, ol_cnt, seq)
const NO_NEWORDER_PAY: u64 = 96; // 8 B, runtime (o_id)
const NO_OKEY_BUF: u64 = 104; // 8 B, runtime (okey_base + o_id)
const NO_ITEMS: u64 = 112;
/// Per-item record stride: i_key, s_key, home, qty, ol_key_buf,
/// ol_payload (32 B at +40).
const NO_ITEM_STRIDE: u64 = 72;
const IT_I_KEY: u64 = 0;
const IT_S_KEY: u64 = 8;
const IT_HOME: u64 = 16;
const IT_QTY: u64 = 24;
const IT_OL_KEY: u64 = 32;
const IT_OL_PAY: u64 = 40; // [i_id, qty, amount, supply_w]

/// User-area size of a NewOrder block.
pub const NO_USER_SIZE: u64 = NO_ITEMS + MAX_OL as u64 * NO_ITEM_STRIDE;

fn it(i: usize, field: u64) -> i64 {
    (NO_ITEMS + i as u64 * NO_ITEM_STRIDE + field) as i64
}

// ---------------------------------------------------------------------------
// Payment transaction-block layout
// ---------------------------------------------------------------------------

const PAY_W_KEY: u64 = 0;
const PAY_D_KEY: u64 = 8;
const PAY_C_KEY: u64 = 16;
const PAY_C_HOME: u64 = 24;
const PAY_H_KEY: u64 = 32;
const PAY_AMOUNT: u64 = 40;
const PAY_H_PAY: u64 = 48; // 32 B host-prewritten
/// User-area size of a Payment block.
pub const PAY_USER_SIZE: u64 = PAY_H_PAY + HISTORY_PAYLOAD as u64;

/// Table handles of the TPC-C schema.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TpccTables {
    /// WAREHOUSE.
    pub warehouse: TableId,
    /// DISTRICT.
    pub district: TableId,
    /// CUSTOMER.
    pub customer: TableId,
    /// STOCK.
    pub stock: TableId,
    /// ITEM (replicated read-only).
    pub item: TableId,
    /// ORDERS.
    pub orders: TableId,
    /// NEW-ORDER.
    pub new_orders: TableId,
    /// ORDER-LINE.
    pub order_line: TableId,
    /// HISTORY.
    pub history: TableId,
}

/// Register the TPC-C schema.
pub fn register_tables(b: &mut SystemBuilder, spec: &TpccSpec) -> TpccTables {
    let cust = spec.districts_per_warehouse * spec.customers_per_district;
    TpccTables {
        warehouse: b.table(TableMeta::hash("warehouse", 8, WAREHOUSE_PAYLOAD, 16)),
        district: b.table(TableMeta::hash("district", 8, DISTRICT_PAYLOAD, 64)),
        customer: b.table(TableMeta::hash(
            "customer",
            8,
            CUSTOMER_PAYLOAD,
            (cust * 2).next_power_of_two(),
        )),
        stock: b.table(TableMeta::hash(
            "stock",
            8,
            STOCK_PAYLOAD,
            (spec.items * 2).next_power_of_two(),
        )),
        item: b.table(TableMeta::hash(
            "item",
            8,
            ITEM_PAYLOAD,
            (spec.items * 2).next_power_of_two(),
        )),
        orders: b.table(TableMeta::hash("orders", 8, ORDERS_PAYLOAD, 1 << 16)),
        new_orders: b.table(TableMeta::hash("new_orders", 8, NEWORDERS_PAYLOAD, 1 << 16)),
        order_line: b.table(TableMeta::hash("order_line", 8, ORDERLINE_PAYLOAD, 1 << 18)),
        history: b.table(TableMeta::hash("history", 8, HISTORY_PAYLOAD, 1 << 16)),
    }
}

/// Build the NewOrder stored procedure. With `local_only` the supplying
/// warehouse is always the home partition, so the dispatch loop needs no
/// per-item home loads (the form used by the local-only experiments of
/// paper §5.5).
#[allow(clippy::too_many_lines)]
pub fn build_neworder_proc(t: &TpccTables, local_only: bool) -> bionicdb_softcore::Procedure {
    let mut b = ProcBuilder::new(if local_only {
        "tpcc_neworder_local"
    } else {
        "tpcc_neworder"
    });

    // CP registers (static allocation; loop unrolled).
    let c_wh = b.cp();
    let c_di = b.cp();
    let c_cu = b.cp();
    let c_item: Vec<Cp> = (0..MAX_OL).map(|_| b.cp()).collect();
    let c_stock: Vec<Cp> = (0..MAX_OL).map(|_| b.cp()).collect();
    let c_ord = b.cp();
    let c_no = b.cp();
    let c_ol: Vec<Cp> = (0..MAX_OL).map(|_| b.cp()).collect();

    // Long-lived GP registers.
    let g_ts = b.gp();
    let g_cnt = b.gp();
    let g_prog = b.gp(); // 0 = base dispatches, 1 = district applied, 2 = order inserts, 3 = OL dispatched counter valid
    let g_oldone = b.gp();
    let g_oid = b.gp();
    let g_a = b.gp(); // scratch
    let g_b = b.gp();
    let g_c = b.gp();
    let g_zero = b.gp();

    // ---------------- logic ----------------
    b.getts(g_ts);
    b.mov(g_prog, Operand::Imm(0));
    b.mov(g_oldone, Operand::Imm(0));
    b.mov(g_zero, Operand::Imm(0));
    b.load(g_cnt, MemBase::Block, Operand::Imm(NO_OL_CNT as i64));

    // Dispatch the independent lookups first (async — index pipelining).
    b.search(
        t.warehouse,
        Operand::Imm(NO_W_KEY as i64),
        Operand::Imm(-1),
        c_wh,
    );
    b.update(
        t.district,
        Operand::Imm(NO_D_KEY as i64),
        Operand::Imm(-1),
        c_di,
    );
    b.search(
        t.customer,
        Operand::Imm(NO_C_KEY as i64),
        Operand::Imm(-1),
        c_cu,
    );
    // Unrolled item loop: item search (local; ITEM is replicated) + stock
    // update (home read from the block: the supplying warehouse may be
    // remote, paper: 1% of NewOrders).
    let items_done = b.label();
    for i in 0..MAX_OL {
        b.cmp(g_cnt, Operand::Imm(i as i64));
        b.br(Cond::Le, items_done);
        b.search(
            t.item,
            Operand::Imm(it(i, IT_I_KEY)),
            Operand::Imm(-1),
            c_item[i],
        );
        if local_only {
            b.update(
                t.stock,
                Operand::Imm(it(i, IT_S_KEY)),
                Operand::Imm(-1),
                c_stock[i],
            );
        } else {
            b.load(g_a, MemBase::Block, Operand::Imm(it(i, IT_HOME)));
            b.update(
                t.stock,
                Operand::Imm(it(i, IT_S_KEY)),
                Operand::Reg(g_a),
                c_stock[i],
            );
        }
    }
    b.bind(items_done);

    // District result is needed *now*: the serializing data dependency.
    let g_d = b.gp();
    let fail = b.label();
    b.ret(g_d, c_di)
        .cmp(g_d, Operand::Imm(0))
        .br(Cond::Lt, fail);
    // next_o_id: UNDO-backup, increment in place, remember.
    b.load(g_oid, MemBase::Reg(g_d), Operand::Imm(PAYLOAD)); // LOADA via base reg
    b.store(g_oid, MemBase::Block, Operand::Imm(NO_UNDO_NOID as i64));
    b.mov(g_a, Operand::Reg(g_oid));
    b.add(g_a, Operand::Imm(1));
    b.store(g_a, MemBase::Reg(g_d), Operand::Imm(PAYLOAD));
    b.mov(g_prog, Operand::Imm(1));
    b.store(g_oid, MemBase::Block, Operand::Imm(NO_O_ID_OUT as i64));

    // Compose the order key (okey_base + o_id) in the block, dispatch the
    // order + new-order inserts.
    b.load(g_a, MemBase::Block, Operand::Imm(NO_OKEY_BASE as i64));
    b.add(g_a, Operand::Reg(g_oid));
    b.store(g_a, MemBase::Block, Operand::Imm(NO_OKEY_BUF as i64));
    b.store(g_oid, MemBase::Block, Operand::Imm(NO_NEWORDER_PAY as i64));
    b.insert(
        t.orders,
        Operand::Imm(NO_OKEY_BUF as i64),
        Operand::Imm(NO_ORDER_PAY as i64),
        Operand::Imm(-1),
        c_ord,
    );
    b.insert(
        t.new_orders,
        Operand::Imm(NO_OKEY_BUF as i64),
        Operand::Imm(NO_NEWORDER_PAY as i64),
        Operand::Imm(-1),
        c_no,
    );
    b.mov(g_prog, Operand::Imm(2));

    // Order lines: ol_key = olkey_base + (o_id << 8) + i; amount = price·qty.
    b.load(g_b, MemBase::Block, Operand::Imm(NO_OLKEY_BASE as i64));
    b.mov(g_a, Operand::Reg(g_oid));
    b.alu(AluOp::Mul, g_a, Operand::Imm(256));
    b.add(g_b, Operand::Reg(g_a)); // g_b = olkey_base + (o_id<<8)
    let ol_done = b.label();
    for (i, (&ci, &cl)) in c_item.iter().zip(c_ol.iter()).enumerate() {
        b.cmp(g_cnt, Operand::Imm(i as i64));
        b.br(Cond::Le, ol_done);
        // ol key.
        b.mov(g_a, Operand::Reg(g_b));
        b.add(g_a, Operand::Imm(i as i64));
        b.store(g_a, MemBase::Block, Operand::Imm(it(i, IT_OL_KEY)));
        // amount = item.price * qty (needs the item search result).
        let g_it = ret_or_abort(&mut b, ci, g_c);
        b.load(g_a, MemBase::Reg(g_it), Operand::Imm(PAYLOAD)); // price
        b.load(g_c, MemBase::Block, Operand::Imm(it(i, IT_QTY)));
        b.alu(AluOp::Mul, g_a, Operand::Reg(g_c));
        b.store(g_a, MemBase::Block, Operand::Imm(it(i, IT_OL_PAY) + 16));
        b.insert(
            t.order_line,
            Operand::Imm(it(i, IT_OL_KEY)),
            Operand::Imm(it(i, IT_OL_PAY)),
            Operand::Imm(-1),
            cl,
        );
        b.add(g_oldone, Operand::Imm(1));
    }
    b.bind(ol_done);
    b.yield_();

    // Voluntary abort trampoline for the logic phase.
    b.bind(fail);
    b.abort();

    // ---------------- commit handler ----------------
    b.begin_commit();
    let g_r = b.gp();
    // Pass 1: validate *every* pending result before touching any data.
    // RET does not consume the CP slot, so the apply pass below re-reads
    // the tuple addresses. The ordering matters for atomicity: the abort
    // handler can tombstone inserts and restore next_o_id, but it cannot
    // undo a stock RMW, so a failure discovered late (e.g. an order-line
    // insert) must be seen before the first stock write is applied.
    ret_or_abort(&mut b, c_wh, g_r);
    ret_or_abort(&mut b, c_cu, g_r);
    ret_or_abort(&mut b, c_ord, g_r);
    ret_or_abort(&mut b, c_no, g_r);
    let v_stocks_done = b.label();
    for (i, &cs) in c_stock.iter().enumerate() {
        b.cmp(g_cnt, Operand::Imm(i as i64));
        b.br(Cond::Le, v_stocks_done);
        ret_or_abort(&mut b, cs, g_r);
    }
    b.bind(v_stocks_done);
    let v_ols_done = b.label();
    for (i, &cl) in c_ol.iter().enumerate() {
        b.cmp(g_oldone, Operand::Imm(i as i64));
        b.br(Cond::Le, v_ols_done);
        ret_or_abort(&mut b, cl, g_r);
    }
    b.bind(v_ols_done);

    // Pass 2: everything validated non-negative; apply and commit.
    b.ret(g_a, c_ord);
    commit_tuple(&mut b, g_a, g_ts, g_zero);
    b.ret(g_a, c_no);
    commit_tuple(&mut b, g_a, g_ts, g_zero);
    // Stock RMW + commit, per dispatched item.
    let stocks_done = b.label();
    let g_q = b.gp();
    for (i, &cs) in c_stock.iter().enumerate() {
        b.cmp(g_cnt, Operand::Imm(i as i64));
        b.br(Cond::Le, stocks_done);
        let g_s = g_c;
        b.ret(g_s, cs);
        // quantity rule: q = q - qty; if q < 10 { q += 91 }.
        b.load(g_q, MemBase::Reg(g_s), Operand::Imm(PAYLOAD));
        b.load(g_a, MemBase::Block, Operand::Imm(it(i, IT_QTY)));
        b.alu(AluOp::Sub, g_q, Operand::Reg(g_a));
        let no_refill = b.label();
        b.cmp(g_q, Operand::Imm(10));
        b.br(Cond::Ge, no_refill);
        b.add(g_q, Operand::Imm(91));
        b.bind(no_refill);
        b.store(g_q, MemBase::Reg(g_s), Operand::Imm(PAYLOAD));
        // ytd += qty; order_cnt += 1.
        b.load(g_q, MemBase::Reg(g_s), Operand::Imm(PAYLOAD + 8));
        b.add(g_q, Operand::Reg(g_a));
        b.store(g_q, MemBase::Reg(g_s), Operand::Imm(PAYLOAD + 8));
        b.load(g_q, MemBase::Reg(g_s), Operand::Imm(PAYLOAD + 16));
        b.add(g_q, Operand::Imm(1));
        b.store(g_q, MemBase::Reg(g_s), Operand::Imm(PAYLOAD + 16));
        commit_tuple(&mut b, g_s, g_ts, g_zero);
    }
    b.bind(stocks_done);
    // Order lines.
    let ols_done = b.label();
    for (i, &cl) in c_ol.iter().enumerate() {
        b.cmp(g_oldone, Operand::Imm(i as i64));
        b.br(Cond::Le, ols_done);
        b.ret(g_c, cl);
        commit_tuple(&mut b, g_c, g_ts, g_zero);
    }
    b.bind(ols_done);
    // District: commit the in-place increment done during logic.
    commit_tuple(&mut b, g_d, g_ts, g_zero);
    b.commit();

    // ---------------- abort handler ----------------
    b.begin_abort();
    let g_x = b.gp();
    let g_tomb = b.gp();
    b.mov(g_tomb, Operand::Imm(TOMBSTONE));
    // Reads have no effects; still collect them (RET pairing).
    b.ret(g_x, c_wh);
    b.ret(g_x, c_cu);
    // District: restore next_o_id if the increment was applied, clear dirty.
    let d_skip = b.label();
    b.ret(g_x, c_di);
    b.cmp(g_x, Operand::Imm(0));
    b.br(Cond::Lt, d_skip);
    let undo_skip = b.label();
    b.cmp(g_prog, Operand::Imm(1));
    b.br(Cond::Lt, undo_skip);
    b.load(g_a, MemBase::Block, Operand::Imm(NO_UNDO_NOID as i64));
    b.store(g_a, MemBase::Reg(g_x), Operand::Imm(PAYLOAD));
    b.bind(undo_skip);
    b.store(g_zero, MemBase::Reg(g_x), Operand::Imm(FLAGS_OFF));
    b.bind(d_skip);
    // Items + stocks for i < cnt.
    let a_items_done = b.label();
    for i in 0..MAX_OL {
        b.cmp(g_cnt, Operand::Imm(i as i64));
        b.br(Cond::Le, a_items_done);
        b.ret(g_x, c_item[i]); // read: no effect
        let s_skip = b.label();
        b.ret(g_x, c_stock[i]);
        b.cmp(g_x, Operand::Imm(0));
        b.br(Cond::Lt, s_skip);
        b.store(g_zero, MemBase::Reg(g_x), Operand::Imm(FLAGS_OFF));
        b.bind(s_skip);
    }
    b.bind(a_items_done);
    // Order / new-order inserts (dispatched only when g_prog >= 2).
    let a_ord_done = b.label();
    b.cmp(g_prog, Operand::Imm(2));
    b.br(Cond::Lt, a_ord_done);
    for &cp in &[c_ord, c_no] {
        let skip = b.label();
        b.ret(g_x, cp);
        b.cmp(g_x, Operand::Imm(0));
        b.br(Cond::Lt, skip);
        b.store(g_tomb, MemBase::Reg(g_x), Operand::Imm(FLAGS_OFF));
        b.bind(skip);
    }
    b.bind(a_ord_done);
    // Order lines actually dispatched.
    let a_ols_done = b.label();
    for (i, &cl) in c_ol.iter().enumerate() {
        b.cmp(g_oldone, Operand::Imm(i as i64));
        b.br(Cond::Le, a_ols_done);
        let skip = b.label();
        b.ret(g_x, cl);
        b.cmp(g_x, Operand::Imm(0));
        b.br(Cond::Lt, skip);
        b.store(g_tomb, MemBase::Reg(g_x), Operand::Imm(FLAGS_OFF));
        b.bind(skip);
    }
    b.bind(a_ols_done);
    b.abort();

    b.build().expect("neworder proc")
}

/// Build the Payment stored procedure (`local_only` skips the customer
/// home-partition load).
pub fn build_payment_proc(t: &TpccTables, local_only: bool) -> bionicdb_softcore::Procedure {
    let mut b = ProcBuilder::new(if local_only {
        "tpcc_payment_local"
    } else {
        "tpcc_payment"
    });
    let c_wh = b.cp();
    let c_di = b.cp();
    let c_cu = b.cp();
    let c_hi = b.cp();

    let g_ts = b.gp();
    let g_zero = b.gp();
    let g_h = b.gp();
    let g_amt = b.gp();
    let g_v = b.gp();
    let g_w = b.gp();
    let g_d = b.gp();
    let g_c = b.gp();
    let g_hrec = b.gp();

    // ---------------- logic: dispatch all four ops async ----------------
    b.getts(g_ts);
    b.mov(g_zero, Operand::Imm(0));
    b.update(
        t.warehouse,
        Operand::Imm(PAY_W_KEY as i64),
        Operand::Imm(-1),
        c_wh,
    );
    b.update(
        t.district,
        Operand::Imm(PAY_D_KEY as i64),
        Operand::Imm(-1),
        c_di,
    );
    if local_only {
        b.update(
            t.customer,
            Operand::Imm(PAY_C_KEY as i64),
            Operand::Imm(-1),
            c_cu,
        );
    } else {
        b.load(g_h, MemBase::Block, Operand::Imm(PAY_C_HOME as i64));
        b.update(
            t.customer,
            Operand::Imm(PAY_C_KEY as i64),
            Operand::Reg(g_h),
            c_cu,
        );
    }
    b.insert(
        t.history,
        Operand::Imm(PAY_H_KEY as i64),
        Operand::Imm(PAY_H_PAY as i64),
        Operand::Imm(-1),
        c_hi,
    );
    b.yield_();

    // ---------------- commit ----------------
    b.begin_commit();
    b.load(g_amt, MemBase::Block, Operand::Imm(PAY_AMOUNT as i64));
    // Validate every result before applying any write: the abort handler
    // can release dirty marks and tombstone the history insert, but it
    // cannot undo a YTD increment, so no data may move until all four
    // operations are known good.
    let g_w = ret_or_abort(&mut b, c_wh, g_w);
    let g_d = ret_or_abort(&mut b, c_di, g_d);
    let g_c = ret_or_abort(&mut b, c_cu, g_c);
    let g_hrec = ret_or_abort(&mut b, c_hi, g_hrec);
    // warehouse.ytd += amount.
    b.load(g_v, MemBase::Reg(g_w), Operand::Imm(PAYLOAD));
    b.add(g_v, Operand::Reg(g_amt));
    b.store(g_v, MemBase::Reg(g_w), Operand::Imm(PAYLOAD));
    commit_tuple(&mut b, g_w, g_ts, g_zero);
    // district.ytd += amount.
    b.load(g_v, MemBase::Reg(g_d), Operand::Imm(PAYLOAD + 8));
    b.add(g_v, Operand::Reg(g_amt));
    b.store(g_v, MemBase::Reg(g_d), Operand::Imm(PAYLOAD + 8));
    commit_tuple(&mut b, g_d, g_ts, g_zero);
    // customer: balance -= amount; ytd_payment += amount; payment_cnt += 1.
    b.load(g_v, MemBase::Reg(g_c), Operand::Imm(PAYLOAD));
    b.alu(AluOp::Sub, g_v, Operand::Reg(g_amt));
    b.store(g_v, MemBase::Reg(g_c), Operand::Imm(PAYLOAD));
    b.load(g_v, MemBase::Reg(g_c), Operand::Imm(PAYLOAD + 8));
    b.add(g_v, Operand::Reg(g_amt));
    b.store(g_v, MemBase::Reg(g_c), Operand::Imm(PAYLOAD + 8));
    b.load(g_v, MemBase::Reg(g_c), Operand::Imm(PAYLOAD + 16));
    b.add(g_v, Operand::Imm(1));
    b.store(g_v, MemBase::Reg(g_c), Operand::Imm(PAYLOAD + 16));
    commit_tuple(&mut b, g_c, g_ts, g_zero);
    // history insert.
    commit_tuple(&mut b, g_hrec, g_ts, g_zero);
    b.commit();

    // ---------------- abort ----------------
    b.begin_abort();
    let g_x = b.gp();
    let g_tomb = b.gp();
    b.mov(g_tomb, Operand::Imm(TOMBSTONE));
    abort_clear_dirty(&mut b, g_x, g_zero, &[c_wh, c_di, c_cu]);
    let skip = b.label();
    b.ret(g_x, c_hi);
    b.cmp(g_x, Operand::Imm(0));
    b.br(Cond::Lt, skip);
    b.store(g_tomb, MemBase::Reg(g_x), Operand::Imm(FLAGS_OFF));
    b.bind(skip);
    b.abort();

    b.build().expect("payment proc")
}

/// NewOrder, Payment, local-only NewOrder and local-only Payment for
/// `tables`, assembled once per process and cloned for every build, as a
/// client uploads procedures it compiled once (paper §4.2). Every
/// [`TpccBionic::build`] calls [`register_tables`] first on a fresh
/// builder, so the table ids, and therefore the procedures, never change.
fn procedures(tables: &TpccTables) -> [bionicdb_softcore::Procedure; 4] {
    static PROCEDURES: OnceLock<(TpccTables, [bionicdb_softcore::Procedure; 4])> = OnceLock::new();
    let (built_for, procs) = PROCEDURES.get_or_init(|| {
        (
            *tables,
            [
                build_neworder_proc(tables, false),
                build_payment_proc(tables, false),
                build_neworder_proc(tables, true),
                build_payment_proc(tables, true),
            ],
        )
    });
    assert_eq!(
        built_for, tables,
        "the TPC-C procedures were assembled for other table ids"
    );
    procs.clone()
}

// ---------------------------------------------------------------------------
// The assembled TPC-C system on BionicDB
// ---------------------------------------------------------------------------

/// TPC-C on BionicDB: one warehouse per partition worker.
pub struct TpccBionic {
    /// The machine.
    pub machine: Machine,
    /// Parameters.
    pub spec: TpccSpec,
    /// Table handles.
    pub tables: TpccTables,
    /// NewOrder procedure (homes read from the block).
    pub neworder: ProcId,
    /// Payment procedure (customer home read from the block).
    pub payment: ProcId,
    /// Local-only NewOrder (paper §5.5 form).
    pub neworder_local: ProcId,
    /// Local-only Payment.
    pub payment_local: ProcId,
    /// Per-worker history key sequence.
    history_seq: Vec<u64>,
    /// Per-worker order entry sequence (for ORDERS payload).
    entry_seq: Vec<u64>,
}

impl TpccBionic {
    /// Build, register and load the TPC-C system.
    pub fn build(cfg: BionicConfig, spec: TpccSpec) -> Self {
        let (machine, h) = assemble(
            cfg,
            LoadSpec::Tpcc {
                districts: spec.districts_per_warehouse,
                customers: spec.customers_per_district,
                items: spec.items,
            },
            |b| {
                let tables = register_tables(b, &spec);
                let [neworder, payment, neworder_local, payment_local] = procedures(&tables);
                (
                    tables,
                    b.proc(neworder),
                    b.proc(payment),
                    b.proc(neworder_local),
                    b.proc(payment_local),
                )
            },
            |loader, w, h, load| {
                let LoadSpec::Tpcc {
                    districts,
                    customers,
                    items,
                } = *load
                else {
                    unreachable!("a TPC-C load keyed by another family")
                };
                let tables = h.0;
                let wid = w as u64;
                // warehouse: ytd=0, tax=80‰.
                loader.insert(
                    tables.warehouse,
                    &wid.to_le_bytes(),
                    &pack32(&[0, 80, 0, 0]),
                );
                for d in 0..districts {
                    // district: next_o_id=1, ytd=0, tax=90‰.
                    loader.insert(
                        tables.district,
                        &district_key(wid, d).to_le_bytes(),
                        &pack32(&[1, 0, 90, 1]),
                    );
                    for c in 0..customers {
                        let key = customer_key(wid, d, c);
                        let mut pay = [0u8; CUSTOMER_PAYLOAD as usize];
                        pay[..8].copy_from_slice(&(100_000u64).to_le_bytes()); // balance
                        loader.insert(tables.customer, &key.to_le_bytes(), &pay);
                    }
                }
                for i in 0..items {
                    // item replicated on every partition; price 1..100 cents.
                    let price = (i % 100) + 1;
                    loader.insert(tables.item, &i.to_le_bytes(), &pack16(&[price, 0]));
                    loader.insert(
                        tables.stock,
                        &stock_key(wid, i).to_le_bytes(),
                        &pack32(&[50, 0, 0, 0]),
                    );
                }
            },
        );
        let (tables, neworder, payment, neworder_local, payment_local) = h;
        let workers = machine.num_workers();
        TpccBionic {
            machine,
            spec,
            tables,
            neworder,
            payment,
            neworder_local,
            payment_local,
            history_seq: vec![0; workers],
            entry_seq: vec![0; workers],
        }
    }

    /// Block size for NewOrder.
    pub fn neworder_block_size() -> u64 {
        bionicdb_softcore::BLOCK_HEADER_SIZE + NO_USER_SIZE
    }

    /// Block size for Payment.
    pub fn payment_block_size() -> u64 {
        bionicdb_softcore::BLOCK_HEADER_SIZE + PAY_USER_SIZE
    }

    /// Populate and submit one NewOrder for `worker`.
    pub fn submit_neworder(&mut self, worker: usize, blk: TxnBlock, rng: &mut SmallRng) {
        let n_workers = self.machine.num_workers();
        let w = worker as u64;
        let d = rng.gen_range(0..self.spec.districts_per_warehouse);
        let c = rng.gen_range(0..self.spec.customers_per_district);
        let ol_cnt = rng.gen_range(5..=MAX_OL as u64);
        let local = self.spec.neworder_remote_fraction == 0.0;
        let m = &mut self.machine;
        m.init_block(
            blk,
            if local {
                self.neworder_local
            } else {
                self.neworder
            },
        );
        m.write_block_u64(blk, NO_W_KEY, w);
        m.write_block_u64(blk, NO_D_KEY, district_key(w, d));
        m.write_block_u64(blk, NO_C_KEY, customer_key(w, d, c));
        m.write_block_u64(blk, NO_OL_CNT, ol_cnt);
        m.write_block_u64(blk, NO_OKEY_BASE, order_key(w, d, 0));
        m.write_block_u64(blk, NO_OLKEY_BASE, orderline_key(w, d, 0, 0));
        // orders payload: [c_key, ol_cnt, entry_seq, 0].
        let seq = self.entry_seq[worker];
        self.entry_seq[worker] += 1;
        let opay = pack32(&[customer_key(w, d, c), ol_cnt, seq, 0]);
        m.write_block(blk, NO_ORDER_PAY, &opay);
        let remote_txn = n_workers > 1 && rng.gen_bool(self.spec.neworder_remote_fraction);
        // TPC-C orders reference *distinct* items (and a repeated item
        // would self-conflict on its own dirty mark under timestamp CC).
        let items = distinct_items(rng, self.spec.items, ol_cnt as usize);
        for (i, &item) in items.iter().enumerate() {
            let qty = rng.gen_range(1..=10u64);
            // TPC-C: a remote NewOrder sources ~one line from another
            // warehouse.
            let supply_w = if remote_txn && i == 0 {
                let mut h = rng.gen_range(0..n_workers as u64 - 1);
                if h >= w {
                    h += 1;
                }
                h
            } else {
                w
            };
            m.write_block_u64(blk, it(i, IT_I_KEY) as u64, item);
            m.write_block_u64(blk, it(i, IT_S_KEY) as u64, stock_key(supply_w, item));
            m.write_block_u64(blk, it(i, IT_HOME) as u64, supply_w);
            m.write_block_u64(blk, it(i, IT_QTY) as u64, qty);
            // ol payload: i_id, qty prewritten; amount filled at runtime.
            m.write_block_u64(blk, it(i, IT_OL_PAY) as u64, item);
            m.write_block_u64(blk, it(i, IT_OL_PAY) as u64 + 8, qty);
            m.write_block_u64(blk, it(i, IT_OL_PAY) as u64 + 24, supply_w);
        }
        m.submit(worker, blk);
    }

    /// Populate and submit one Payment for `worker`.
    pub fn submit_payment(&mut self, worker: usize, blk: TxnBlock, rng: &mut SmallRng) {
        let n_workers = self.machine.num_workers();
        let w = worker as u64;
        let d = rng.gen_range(0..self.spec.districts_per_warehouse);
        let c = rng.gen_range(0..self.spec.customers_per_district);
        // 15% of payments pay a customer of a remote warehouse.
        let (c_w, c_home) = if n_workers > 1 && rng.gen_bool(self.spec.payment_remote_fraction) {
            let mut h = rng.gen_range(0..n_workers as u64 - 1);
            if h >= w {
                h += 1;
            }
            (h, h)
        } else {
            (w, w)
        };
        let amount = rng.gen_range(100..=500_000u64); // cents
        let seq = self.history_seq[worker];
        self.history_seq[worker] += 1;
        let local = self.spec.payment_remote_fraction == 0.0;
        let m = &mut self.machine;
        m.init_block(
            blk,
            if local {
                self.payment_local
            } else {
                self.payment
            },
        );
        m.write_block_u64(blk, PAY_W_KEY, w);
        m.write_block_u64(blk, PAY_D_KEY, district_key(w, d));
        m.write_block_u64(blk, PAY_C_KEY, customer_key(c_w, d, c));
        m.write_block_u64(blk, PAY_C_HOME, c_home);
        m.write_block_u64(blk, PAY_H_KEY, (w << 40) | seq);
        m.write_block_u64(blk, PAY_AMOUNT, amount);
        m.write_block(
            blk,
            PAY_H_PAY,
            &pack32(&[customer_key(c_w, d, c), amount, 0, 0]),
        );
        m.submit(worker, blk);
    }
}

/// Sample `n` distinct item ids from `0..items`.
fn distinct_items(rng: &mut SmallRng, items: u64, n: usize) -> Vec<u64> {
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let item = rng.gen_range(0..items);
        if !out.contains(&item) {
            out.push(item);
        }
    }
    out
}

fn pack32(v: &[u64; 4]) -> [u8; 32] {
    let mut out = [0; 32];
    for (b, x) in out.chunks_exact_mut(8).zip(v) {
        b.copy_from_slice(&x.to_le_bytes());
    }
    out
}

fn pack16(v: &[u64; 2]) -> [u8; 16] {
    let mut out = [0; 16];
    for (b, x) in out.chunks_exact_mut(8).zip(v) {
        b.copy_from_slice(&x.to_le_bytes());
    }
    out
}

// ---------------------------------------------------------------------------
// Silo driver
// ---------------------------------------------------------------------------

/// TPC-C on the Silo baseline (shared-everything; warehouses only scale the
/// data, exactly like the paper's Silo runs).
pub struct TpccSilo {
    /// The database.
    pub db: bionicdb_silo::SiloDb,
    /// Parameters.
    pub spec: TpccSpec,
    /// Number of warehouses loaded.
    pub warehouses: u64,
    history_seq: std::sync::atomic::AtomicU64,
}

/// Silo-side table indices (same order as [`register_tables`]).
pub mod silo_tables {
    /// WAREHOUSE.
    pub const WAREHOUSE: usize = 0;
    /// DISTRICT.
    pub const DISTRICT: usize = 1;
    /// CUSTOMER.
    pub const CUSTOMER: usize = 2;
    /// STOCK.
    pub const STOCK: usize = 3;
    /// ITEM.
    pub const ITEM: usize = 4;
    /// ORDERS.
    pub const ORDERS: usize = 5;
    /// NEW-ORDER.
    pub const NEW_ORDERS: usize = 6;
    /// ORDER-LINE.
    pub const ORDER_LINE: usize = 7;
    /// HISTORY.
    pub const HISTORY: usize = 8;
}

impl TpccSilo {
    /// Build and load.
    pub fn build(spec: TpccSpec, warehouses: u64) -> Self {
        use bionicdb_silo::{SiloDb, SwIndexKind, TableDef};
        let h = |n: u64| SwIndexKind::Hash {
            buckets: (n * 2).next_power_of_two() as usize,
        };
        let db = SiloDb::new(vec![
            TableDef::new("warehouse", h(warehouses), WAREHOUSE_PAYLOAD as usize),
            TableDef::new("district", h(warehouses * 10), DISTRICT_PAYLOAD as usize),
            TableDef::new(
                "customer",
                h(warehouses * spec.districts_per_warehouse * spec.customers_per_district),
                CUSTOMER_PAYLOAD as usize,
            ),
            TableDef::new("stock", h(warehouses * spec.items), STOCK_PAYLOAD as usize),
            TableDef::new("item", h(spec.items), ITEM_PAYLOAD as usize),
            TableDef::new("orders", h(1 << 16), ORDERS_PAYLOAD as usize),
            TableDef::new("new_orders", h(1 << 16), NEWORDERS_PAYLOAD as usize),
            TableDef::new("order_line", h(1 << 18), ORDERLINE_PAYLOAD as usize),
            TableDef::new("history", h(1 << 16), HISTORY_PAYLOAD as usize),
        ]);
        for w in 0..warehouses {
            db.load(silo_tables::WAREHOUSE, w, pack32(&[0, 80, 0, 0]).to_vec());
            for d in 0..spec.districts_per_warehouse {
                db.load(
                    silo_tables::DISTRICT,
                    district_key(w, d),
                    pack32(&[1, 0, 90, 1]).to_vec(),
                );
                for c in 0..spec.customers_per_district {
                    let mut pay = vec![0u8; CUSTOMER_PAYLOAD as usize];
                    pay[..8].copy_from_slice(&(100_000u64).to_le_bytes());
                    db.load(silo_tables::CUSTOMER, customer_key(w, d, c), pay);
                }
            }
            for i in 0..spec.items {
                if w == 0 {
                    db.load(silo_tables::ITEM, i, pack16(&[(i % 100) + 1, 0]).to_vec());
                }
                db.load(
                    silo_tables::STOCK,
                    stock_key(w, i),
                    pack32(&[50, 0, 0, 0]).to_vec(),
                );
            }
        }
        TpccSilo {
            db,
            spec,
            warehouses,
            history_seq: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// Run one NewOrder; returns false on abort.
    pub fn run_neworder<T: bionicdb_cpu_model::Tracer>(
        &self,
        tr: &mut T,
        rng: &mut SmallRng,
    ) -> bool {
        use silo_tables::*;
        let w = rng.gen_range(0..self.warehouses);
        let d = rng.gen_range(0..self.spec.districts_per_warehouse);
        let c = rng.gen_range(0..self.spec.customers_per_district);
        let ol_cnt = rng.gen_range(5..=MAX_OL as u64);
        let mut txn = self.db.txn();
        let mut buf = Vec::new();

        // Independent lookups can overlap (bounded by the CPU's window).
        tr.begin_group(3);
        if !txn.read(tr, WAREHOUSE, w, &mut buf) {
            return false;
        }
        if !txn.read(tr, CUSTOMER, customer_key(w, d, c), &mut buf) {
            return false;
        }
        tr.end_group();
        // district RMW: serializing dependency (o_id).
        let mut o_id = 0;
        if !txn.modify(tr, DISTRICT, district_key(w, d), |p| {
            o_id = u64::from_le_bytes(p[..8].try_into().unwrap());
            p[..8].copy_from_slice(&(o_id + 1).to_le_bytes());
        }) {
            return false;
        }
        txn.insert(
            ORDERS,
            order_key(w, d, o_id),
            pack32(&[customer_key(w, d, c), ol_cnt, 0, 0]).to_vec(),
        );
        txn.insert(
            NEW_ORDERS,
            order_key(w, d, o_id),
            o_id.to_le_bytes().to_vec(),
        );
        let items = distinct_items(rng, self.spec.items, ol_cnt as usize);
        for (i, &item) in items.iter().enumerate() {
            let i = i as u64;
            let qty = rng.gen_range(1..=10u64);
            tr.begin_group(2);
            if !txn.read(tr, ITEM, item, &mut buf) {
                return false;
            }
            let price = u64::from_le_bytes(buf[..8].try_into().unwrap());
            let ok = txn.modify(tr, STOCK, stock_key(w, item), |p| {
                let q = u64::from_le_bytes(p[..8].try_into().unwrap());
                let mut nq = q.saturating_sub(qty);
                if nq < 10 {
                    nq += 91;
                }
                p[..8].copy_from_slice(&nq.to_le_bytes());
            });
            tr.end_group();
            if !ok {
                return false;
            }
            txn.insert(
                ORDER_LINE,
                orderline_key(w, d, o_id, i),
                pack32(&[item, qty, price * qty, w]).to_vec(),
            );
        }
        txn.commit(tr).is_ok()
    }

    /// Run one Payment; returns false on abort.
    pub fn run_payment<T: bionicdb_cpu_model::Tracer>(
        &self,
        tr: &mut T,
        rng: &mut SmallRng,
    ) -> bool {
        use silo_tables::*;
        let w = rng.gen_range(0..self.warehouses);
        let d = rng.gen_range(0..self.spec.districts_per_warehouse);
        let c = rng.gen_range(0..self.spec.customers_per_district);
        let amount = rng.gen_range(100..=500_000u64);
        let mut txn = self.db.txn();
        // Each RMW is a dependent chain; only the lookups themselves can
        // overlap, and the updates write distinct hot records.
        let ok = txn.modify(tr, WAREHOUSE, w, |p| add_u64(p, 0, amount))
            && txn.modify(tr, DISTRICT, district_key(w, d), |p| add_u64(p, 8, amount))
            && txn.modify(tr, CUSTOMER, customer_key(w, d, c), |p| {
                sub_u64(p, 0, amount);
                add_u64(p, 8, amount);
                add_u64(p, 16, 1);
            });
        if !ok {
            return false;
        }
        let seq = self
            .history_seq
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        txn.insert(
            HISTORY,
            (w << 40) | seq,
            pack32(&[customer_key(w, d, c), amount, 0, 0]).to_vec(),
        );
        txn.commit(tr).is_ok()
    }
}

fn add_u64(p: &mut [u8], off: usize, v: u64) {
    let x = u64::from_le_bytes(p[off..off + 8].try_into().unwrap());
    p[off..off + 8].copy_from_slice(&(x + v).to_le_bytes());
}

fn sub_u64(p: &mut [u8], off: usize, v: u64) {
    let x = u64::from_le_bytes(p[off..off + 8].try_into().unwrap());
    p[off..off + 8].copy_from_slice(&x.wrapping_sub(v).to_le_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;
    use bionicdb::{BlockStatus, Catalogue, RetryBudget, TxnStatus};
    use bionicdb_cpu_model::NullTracer;
    use rand::SeedableRng;

    fn tiny() -> TpccBionic {
        TpccBionic::build(BionicConfig::small(2), TpccSpec::tiny())
    }

    #[test]
    fn memoized_procedures_equal_freshly_assembled_ones() {
        let mut b = SystemBuilder::new(BionicConfig::small(1));
        let t = register_tables(&mut b, &TpccSpec::tiny());
        let fresh = [
            build_neworder_proc(&t, false),
            build_payment_proc(&t, false),
            build_neworder_proc(&t, true),
            build_payment_proc(&t, true),
        ];
        // The second call clones what the first one assembled.
        for _ in 0..2 {
            for (memo, fresh) in procedures(&t).iter().zip(&fresh) {
                assert_eq!(Catalogue::encode_proc(memo), Catalogue::encode_proc(fresh));
            }
        }
    }

    #[test]
    fn procs_validate() {
        let mut b = SystemBuilder::new(BionicConfig::small(1));
        let t = register_tables(&mut b, &TpccSpec::tiny());
        for local in [false, true] {
            build_neworder_proc(&t, local).validate().unwrap();
            build_payment_proc(&t, local).validate().unwrap();
        }
    }

    #[test]
    fn neworder_commits_and_installs_rows() {
        let mut sys = tiny();
        let mut rng = SmallRng::seed_from_u64(7);
        let blk = sys
            .machine
            .alloc_block(0, TpccBionic::neworder_block_size());
        sys.submit_neworder(0, blk, &mut rng);
        sys.machine.run_to_quiescence_limit(1 << 27);
        assert_eq!(sys.machine.block_status(blk), TxnStatus::Committed);

        // o_id was 1 (fresh district); the order row must exist, committed.
        let o_id = sys.machine.read_block_u64(blk, NO_O_ID_OUT);
        assert_eq!(o_id, 1);
        let d_key_raw = sys.machine.read_block_u64(blk, NO_D_KEY);
        let okey = sys.machine.read_block_u64(blk, NO_OKEY_BUF);
        let tables = sys.tables;
        let loader = sys.machine.loader(0);
        let oaddr = loader
            .lookup(tables.orders, &okey.to_le_bytes())
            .expect("order row");
        let opay = loader.payload(tables.orders, oaddr);
        let ol_cnt = u64::from_le_bytes(opay[8..16].try_into().unwrap());
        assert!((5..=15).contains(&ol_cnt));
        // District next_o_id advanced to 2.
        let daddr = loader
            .lookup(tables.district, &d_key_raw.to_le_bytes())
            .unwrap();
        let dpay = loader.payload(tables.district, daddr);
        assert_eq!(u64::from_le_bytes(dpay[..8].try_into().unwrap()), 2);
        // All order lines exist.
        let w = 0u64;
        let d = d_key_raw & 0xffff_ffff;
        for i in 0..ol_cnt {
            let olk = orderline_key(w, d, o_id, i);
            assert!(
                loader
                    .lookup(tables.order_line, &olk.to_le_bytes())
                    .is_some(),
                "order line {i}"
            );
        }
        drop(loader);
        // The committed rows are clean (not dirty).
        let hdr = bionicdb_coproc::layout::read_header(
            sys.machine.dram(),
            oaddr + bionicdb_coproc::layout::TUPLE_HEADER,
        );
        assert!(!hdr.is_dirty());
    }

    #[test]
    fn payment_commits_and_moves_money() {
        let mut sys = tiny();
        let mut rng = SmallRng::seed_from_u64(8);
        let blk = sys.machine.alloc_block(1, TpccBionic::payment_block_size());
        sys.submit_payment(1, blk, &mut rng);
        sys.machine.run_to_quiescence_limit(1 << 27);
        assert_eq!(sys.machine.block_status(blk), TxnStatus::Committed);

        let amount = sys.machine.read_block_u64(blk, PAY_AMOUNT);
        let w_key = sys.machine.read_block_u64(blk, PAY_W_KEY);
        let tables = sys.tables;
        let loader = sys.machine.loader(1);
        let waddr = loader
            .lookup(tables.warehouse, &w_key.to_le_bytes())
            .unwrap();
        let wpay = loader.payload(tables.warehouse, waddr);
        assert_eq!(
            u64::from_le_bytes(wpay[..8].try_into().unwrap()),
            amount,
            "w_ytd"
        );
    }

    #[test]
    fn remote_payment_crosses_noc_and_commits() {
        let mut sys = tiny();
        // Force remoteness.
        sys.spec.payment_remote_fraction = 1.0;
        let mut rng = SmallRng::seed_from_u64(9);
        let blk = sys.machine.alloc_block(0, TpccBionic::payment_block_size());
        sys.submit_payment(0, blk, &mut rng);
        sys.machine.run_to_quiescence_limit(1 << 27);
        assert_eq!(sys.machine.block_status(blk), TxnStatus::Committed);
        assert!(
            sys.machine.noc().stats().sent >= 2,
            "customer update was remote"
        );
        // Remote customer's balance decreased.
        let c_key = sys.machine.read_block_u64(blk, PAY_C_KEY);
        let amount = sys.machine.read_block_u64(blk, PAY_AMOUNT);
        let tables = sys.tables;
        let loader = sys.machine.loader(1);
        let caddr = loader
            .lookup(tables.customer, &c_key.to_le_bytes())
            .unwrap();
        let cpay = loader.payload(tables.customer, caddr);
        let balance = u64::from_le_bytes(cpay[..8].try_into().unwrap());
        assert_eq!(balance, 100_000u64.wrapping_sub(amount));
    }

    #[test]
    fn mixed_batch_preserves_invariants_under_conflicts() {
        // Interleaved batches of NewOrder+Payment *will* conflict sometimes
        // (two NewOrders of one batch touching the same district: the
        // second sees the dirty mark and aborts — paper §4.7). The engine
        // must finish every transaction and keep the database consistent.
        let mut sys = tiny();
        let mut rng = SmallRng::seed_from_u64(10);
        let mut no_blocks = Vec::new();
        let mut pay_blocks = Vec::new();
        let mut no_workers = Vec::new();
        let mut pay_workers = Vec::new();
        for w in 0..2 {
            for i in 0..8 {
                if i % 2 == 0 {
                    let blk = sys
                        .machine
                        .alloc_block(w, TpccBionic::neworder_block_size());
                    sys.submit_neworder(w, blk, &mut rng);
                    no_blocks.push(blk);
                    no_workers.push(w);
                } else {
                    let blk = sys.machine.alloc_block(w, TpccBionic::payment_block_size());
                    sys.submit_payment(w, blk, &mut rng);
                    pay_blocks.push(blk);
                    pay_workers.push(w);
                }
            }
        }
        sys.machine.run_to_quiescence_limit(1 << 28);
        let st = sys.machine.stats();
        assert_eq!(st.committed + st.aborted, 16, "every transaction finished");
        assert!(
            st.aborted > 0,
            "the warehouse hotspot causes dirty-rejects in a batch"
        );

        // Client-side retry: resubmit aborted blocks (inputs are preserved
        // in the block, §4.8) under a bounded budget until everything
        // commits.
        let all: Vec<(usize, TxnBlock)> = no_workers
            .iter()
            .copied()
            .zip(no_blocks.iter().copied())
            .chain(pay_workers.iter().copied().zip(pay_blocks.iter().copied()))
            .collect();
        let out = sys
            .machine
            .retry_to_completion(&all, RetryBudget { max_attempts: 64 }, 1 << 28);
        assert!(out.all_committed(), "retries must converge: {out:?}");
        assert_eq!(out.committed, 16);

        // Committed NewOrders installed their order rows; aborted ones are
        // invisible (never inserted or tombstoned).
        let tables = sys.tables;
        let mut committed_orders = 0;
        for &blk in &no_blocks {
            let okey = sys.machine.read_block_u64(blk, NO_OKEY_BUF);
            let committed = sys.machine.block_status(blk).is_committed();
            // Which worker owns the warehouse of this order key?
            let w = (okey >> 40) as usize;
            let found = sys
                .machine
                .loader(w)
                .lookup(tables.orders, &okey.to_le_bytes());
            if committed {
                assert!(found.is_some(), "committed order row present");
                committed_orders += 1;
            } else {
                assert!(found.is_none(), "aborted order row invisible");
            }
        }
        // District next_o_id advanced exactly once per committed NewOrder.
        let mut advanced = 0;
        for w in 0..2u64 {
            for d in 0..sys.spec.districts_per_warehouse {
                let loader = sys.machine.loader(w as usize);
                let daddr = loader
                    .lookup(tables.district, &district_key(w, d).to_le_bytes())
                    .unwrap();
                let pay = loader.payload(tables.district, daddr);
                advanced += u64::from_le_bytes(pay[..8].try_into().unwrap()) - 1;
            }
        }
        assert_eq!(
            advanced, committed_orders,
            "next_o_id advances match committed orders"
        );
    }

    #[test]
    fn silo_tpcc_transactions_commit() {
        let sys = TpccSilo::build(TpccSpec::tiny(), 2);
        let mut rng = SmallRng::seed_from_u64(11);
        let mut no = 0;
        let mut pay = 0;
        for _ in 0..50 {
            if sys.run_neworder(&mut NullTracer, &mut rng) {
                no += 1;
            }
            if sys.run_payment(&mut NullTracer, &mut rng) {
                pay += 1;
            }
        }
        assert_eq!(
            (no, pay),
            (50, 50),
            "uncontended single-thread run commits all"
        );
    }

    #[test]
    fn silo_neworder_advances_district_o_id() {
        let sys = TpccSilo::build(TpccSpec::tiny(), 1);
        let mut rng = SmallRng::seed_from_u64(12);
        for _ in 0..10 {
            assert!(sys.run_neworder(&mut NullTracer, &mut rng));
        }
        // Sum of (next_o_id - 1) over districts equals 10 NewOrders.
        let mut total = 0;
        let mut buf = Vec::new();
        for d in 0..sys.spec.districts_per_warehouse {
            let mut t = sys.db.txn();
            t.read(
                &mut NullTracer,
                silo_tables::DISTRICT,
                district_key(0, d),
                &mut buf,
            );
            total += u64::from_le_bytes(buf[..8].try_into().unwrap()) - 1;
        }
        assert_eq!(total, 10);
    }
}
