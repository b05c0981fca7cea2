//! Machine-level integration tests: CC semantics through stored
//! procedures, scans, removes, and engine bookkeeping.

use bionicdb::{
    asm::assemble, BionicConfig, BlockStatus, Machine, ProcId, SystemBuilder, TableMeta, TxnStatus,
};

fn one_worker() -> SystemBuilder {
    SystemBuilder::new(BionicConfig::small(1))
}

fn run_one(db: &mut Machine, proc: ProcId, inputs: &[(u64, u64)]) -> bionicdb::TxnBlock {
    let blk = db.alloc_block(0, 512);
    db.init_block(blk, proc);
    for &(off, v) in inputs {
        db.write_block_u64(blk, off, v);
    }
    db.submit(0, blk);
    db.run_to_quiescence_limit(1 << 24);
    blk
}

#[test]
fn remove_tombstones_and_hides_the_tuple() {
    let mut b = one_worker();
    let t = b.table(TableMeta::hash("kv", 8, 8, 1 << 8));
    let remove = b.proc(
        assemble(
            "proc rm\nlogic:\n    remove 0, 0, c0\ncommit:\n    ret g0, c0\n    cmp g0, 0\n    blt abort\n    getts g1\n    store g1, [g0+8]\n    mov g2, 2\n    store g2, [g0+24]\n    commit\nabort:\n    abort\n",
        )
        .unwrap(),
    );
    let search = b.proc(
        assemble(
            "proc rd\nlogic:\n    search 0, 0, c0\ncommit:\n    ret g0, c0\n    cmp g0, 0\n    blt abort\n    commit\nabort:\n    abort\n",
        )
        .unwrap(),
    );
    let mut db = b.build();
    db.loader(0)
        .insert(t, &5u64.to_le_bytes(), &1u64.to_le_bytes());

    let blk = run_one(&mut db, remove, &[(0, 5)]);
    assert!(db.block_status(blk).is_committed());
    // A search for the removed key now aborts (NotFound).
    let blk = run_one(&mut db, search, &[(0, 5)]);
    assert_eq!(db.block_status(blk), TxnStatus::Aborted);
    // Host-side lookup skips the tombstone too.
    assert!(db.loader(0).lookup(t, &5u64.to_le_bytes()).is_none());
    // Removing it again also aborts.
    let blk = run_one(&mut db, remove, &[(0, 5)]);
    assert_eq!(db.block_status(blk), TxnStatus::Aborted);
}

#[test]
fn scan_results_land_in_the_result_buffer_in_order() {
    let mut b = one_worker();
    let t = b.table(TableMeta::skiplist("ordered", 8, 16));
    let scan = b.proc(
        assemble(
            "proc sc\nlogic:\n    scan 0, 0, 5, 64, c0\ncommit:\n    ret g0, c0\n    store g0, [blk+8]\n    commit\nabort:\n    abort\n",
        )
        .unwrap(),
    );
    let mut db = b.build();
    for k in 0..20u64 {
        let mut p = [0u8; 16];
        p[..8].copy_from_slice(&k.to_le_bytes());
        db.loader(0).insert(t, &k.to_be_bytes(), &p);
    }
    let blk = db.alloc_block(0, 256);
    db.init_block(blk, scan);
    db.write_block(blk, 0, &7u64.to_be_bytes()); // start key (big-endian)
    db.submit(0, blk);
    db.run_to_quiescence_limit(1 << 24);
    assert!(db.block_status(blk).is_committed());
    assert_eq!(db.read_block_u64(blk, 8), 5, "scan count via CP register");
    for i in 0..5u64 {
        let payload = db.read_block(blk, 64 + i * 16, 8);
        assert_eq!(
            u64::from_le_bytes(payload.try_into().unwrap()),
            7 + i,
            "result {i} in order"
        );
    }
}

#[test]
fn repeatable_read_violation_aborts_the_reader() {
    // T1 (worker 0) reads key K twice with a compute gap; T2 on worker 1
    // updates K *remotely* in between — its background UPDATE is granted
    // (the reader only bumped the read timestamp) and marks K dirty. T1's
    // second read hits the dirty mark and must abort: the paper's
    // repeatable-read rule (§4.7: "If the second access to a previously
    // visited tuple is denied by concurrent updates, the transaction
    // should abort"). A single softcore cannot interleave mid-logic
    // (paper §4.5: no dynamic switching), so the conflicting writer must
    // be a remote worker.
    let mut b = SystemBuilder::new(BionicConfig::small(2));
    let t = b.table(TableMeta::hash("kv", 8, 8, 1 << 8));
    // Reader: two searches of the same key with a long compute gap so the
    // writer's update lands between them.
    let reader_src = r#"
proc reader
logic:
    search 0, 0, c0
    mov g1, 0
spin:
    add g1, 1
    cmp g1, 60
    blt spin
    search 0, 0, c1
commit:
    ret g0, c0
    cmp g0, 0
    blt abort
    ret g0, c1
    cmp g0, 0
    blt abort
    commit
abort:
    abort
"#;
    let writer_src = r#"
proc writer
logic:
    update 0, 0, c0, home=0
commit:
    ret g0, c0
    cmp g0, 0
    blt abort
    load g1, [blk+8]
    store g1, [g0+72]
    getts g2
    store g2, [g0+8]
    mov g3, 0
    store g3, [g0+24]
    commit
abort:
    abort
"#;
    let reader = b.proc(assemble(reader_src).unwrap());
    let writer = b.proc(assemble(writer_src).unwrap());
    let mut db = b.build();
    db.loader(0)
        .insert(t, &1u64.to_le_bytes(), &0u64.to_le_bytes());

    // The reader runs on worker 0; the conflicting writer on worker 1,
    // targeting worker 0's partition over the on-chip channels. The
    // reader's spin loop leaves time for the remote UPDATE to land
    // between its two searches.
    let r = db.alloc_block(0, 128);
    db.init_block(r, reader);
    db.write_block_u64(r, 0, 1);
    let w = db.alloc_block(1, 128);
    db.init_block(w, writer);
    db.write_block_u64(w, 0, 1);
    db.write_block_u64(w, 8, 99);
    db.submit(0, r);
    db.submit(1, w);
    db.run_to_quiescence_limit(1 << 24);

    // The reader's first read succeeded (older read_ts), the remote write
    // was granted, and the reader's second read saw the dirty mark.
    assert_eq!(
        db.block_status(r),
        TxnStatus::Aborted,
        "reader loses repeatable read"
    );
    assert!(db.block_status(w).is_committed());
    // The committed write is visible afterwards.
    let addr = db.loader(0).lookup(t, &1u64.to_le_bytes()).unwrap();
    let v = u64::from_le_bytes(db.loader(0).payload(t, addr)[..8].try_into().unwrap());
    assert_eq!(v, 99);
}

#[test]
fn stats_account_for_every_transaction() {
    let mut b = one_worker();
    let t = b.table(TableMeta::hash("kv", 8, 8, 1 << 8));
    let p = b.proc(
        assemble(
            "proc rd\nlogic:\n    search 0, 0, c0\ncommit:\n    ret g0, c0\n    cmp g0, 0\n    blt abort\n    commit\nabort:\n    abort\n",
        )
        .unwrap(),
    );
    let mut db = b.build();
    db.loader(0)
        .insert(t, &1u64.to_le_bytes(), &0u64.to_le_bytes());
    for i in 0..10u64 {
        // Half the searches hit, half miss (miss -> abort).
        run_one(&mut db, p, &[(0, i % 2)]);
    }
    let s = db.stats();
    assert_eq!(s.committed + s.aborted, 10);
    assert_eq!(s.committed, 5);
    assert_eq!(s.db_insts, 10);
    assert!(s.cpu_insts > 0 && s.batches >= 1);
}

#[test]
fn max_inflight_one_still_completes_everything() {
    // The tightest coprocessor bound (the Fig. 10 sweep's leftmost point)
    // must not deadlock anything.
    let mut b = SystemBuilder::new(BionicConfig::small(2));
    let t = b.table(TableMeta::hash("kv", 8, 8, 1 << 8));
    let p = b.proc(
        assemble(
            "proc rd\nlogic:\n    search 0, 0, c0\n    search 0, 8, c1, home=1\ncommit:\n    ret g0, c0\n    ret g0, c1\n    commit\nabort:\n    abort\n",
        )
        .unwrap(),
    );
    let mut db = b.build();
    for w in 0..2 {
        db.loader(w)
            .insert(t, &1u64.to_le_bytes(), &0u64.to_le_bytes());
    }
    db.set_max_inflight(1);
    for _ in 0..6 {
        let blk = db.alloc_block(0, 128);
        db.init_block(blk, p);
        db.write_block_u64(blk, 0, 1);
        db.write_block_u64(blk, 8, 1);
        db.submit(0, blk);
    }
    db.run_to_quiescence_limit(1 << 25);
    assert_eq!(db.stats().committed, 6);
}

#[test]
#[should_panic(expected = "region exhausted")]
fn block_arena_exhaustion_panics_clearly() {
    let mut cfg = BionicConfig::small(1);
    cfg.block_arena_bytes = 4096;
    let mut b = SystemBuilder::new(cfg);
    b.table(TableMeta::hash("kv", 8, 8, 16));
    let mut db = b.build();
    for _ in 0..100 {
        let _ = db.alloc_block(0, 256);
    }
}

#[test]
fn prefetched_ingest_is_deterministic_and_correct() {
    // The input-queue prefetcher must not change results, only timing; and
    // timing itself must stay deterministic.
    let run = || {
        let mut b = one_worker();
        let t = b.table(TableMeta::hash("kv", 8, 8, 1 << 8));
        let p = b.proc(
            assemble(
                "proc rd\nlogic:\n    search 0, 0, c0\ncommit:\n    ret g0, c0\n    cmp g0, 0\n    blt abort\n    store g0, [blk+8]\n    commit\nabort:\n    abort\n",
            )
            .unwrap(),
        );
        let mut db = b.build();
        for k in 0..32u64 {
            db.loader(0).insert(t, &k.to_le_bytes(), &k.to_le_bytes());
        }
        let mut blocks = Vec::new();
        for k in 0..32u64 {
            let blk = db.alloc_block(0, 128);
            db.init_block(blk, p);
            db.write_block_u64(blk, 0, k);
            db.submit(0, blk);
            blocks.push(blk);
        }
        db.run_to_quiescence_limit(1 << 25);
        let addrs: Vec<u64> = blocks.iter().map(|b| db.read_block_u64(*b, 8)).collect();
        (db.now(), db.stats().committed, addrs)
    };
    let a = run();
    let b = run();
    assert_eq!(a.1, 32);
    assert_eq!(a, b, "prefetching stays deterministic");
    // Every transaction found its own key's tuple.
    assert_eq!(a.2.len(), 32);
    assert!(
        a.2.windows(2).all(|w| w[0] != w[1]),
        "distinct tuples per key"
    );
}

#[test]
fn checkpoint_of_empty_database_is_empty_and_loadable() {
    use bionicdb::recovery::Checkpoint;
    let mut b = one_worker();
    b.table(TableMeta::hash("kv", 8, 8, 1 << 8));
    b.table(TableMeta::skiplist("sl", 8, 8));
    let db = b.build();
    let cp = Checkpoint::dump(&db);
    assert!(cp.tables.iter().flatten().all(|t| t.is_empty()));

    let mut b2 = one_worker();
    b2.table(TableMeta::hash("kv", 8, 8, 1 << 8));
    b2.table(TableMeta::skiplist("sl", 8, 8));
    let mut db2 = b2.build();
    cp.load_into(&mut db2);
    assert_eq!(Checkpoint::dump(&db2), cp);
}

#[test]
fn checkpoint_excludes_dirty_and_tombstoned_records() {
    use bionicdb::recovery::Checkpoint;
    use bionicdb_coproc::layout::{FLAG_DIRTY, FLAG_TOMBSTONE, TUPLE_HEADER};
    let mut b = one_worker();
    let t = b.table(TableMeta::hash("kv", 8, 8, 1 << 8));
    let mut db = b.build();
    let a1 = db
        .loader(0)
        .insert(t, &1u64.to_le_bytes(), &1u64.to_le_bytes());
    let a2 = db
        .loader(0)
        .insert(t, &2u64.to_le_bytes(), &2u64.to_le_bytes());
    db.loader(0)
        .insert(t, &3u64.to_le_bytes(), &3u64.to_le_bytes());
    // Mark key 1 dirty (in-flight) and key 2 tombstoned (deleted).
    db.dram_mut()
        .host_write_u64(a1 + TUPLE_HEADER + 16, FLAG_DIRTY);
    db.dram_mut()
        .host_write_u64(a2 + TUPLE_HEADER + 16, FLAG_TOMBSTONE);
    let cp = Checkpoint::dump(&db);
    let table0 = &cp.tables[0][t.0 as usize];
    assert_eq!(table0.len(), 1, "only the committed live record");
    assert!(table0.contains_key(3u64.to_le_bytes().as_slice()));
}

#[test]
fn resubmit_rejects_non_aborted_blocks() {
    let mut b = one_worker();
    let t = b.table(TableMeta::hash("kv", 8, 8, 1 << 8));
    let p = b.proc(
        assemble(
            "proc rd\nlogic:\n    search 0, 0, c0\ncommit:\n    ret g0, c0\n    cmp g0, 0\n    blt abort\n    commit\nabort:\n    abort\n",
        )
        .unwrap(),
    );
    let mut db = b.build();
    db.loader(0)
        .insert(t, &1u64.to_le_bytes(), &0u64.to_le_bytes());
    let blk = run_one(&mut db, p, &[(0, 1)]);
    assert!(db.block_status(blk).is_committed());
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        db.resubmit(0, blk);
    }));
    assert!(result.is_err(), "resubmitting a committed block must panic");
}

#[test]
fn procedures_upload_as_wire_bytes() {
    // The full client path: encode the procedure to the PCIe upload
    // format, register from bytes, execute.
    use bionicdb_softcore::Catalogue;
    let mut b = one_worker();
    let t = b.table(TableMeta::hash("kv", 8, 8, 1 << 8));
    let proc = assemble(
        "proc rd\nlogic:\n    search 0, 0, c0\ncommit:\n    ret g0, c0\n    cmp g0, 0\n    blt abort\n    commit\nabort:\n    abort\n",
    )
    .unwrap();
    let bytes = Catalogue::encode_proc(&proc);
    let p = b.proc_bytes(&bytes).expect("valid upload");
    let mut db = b.build();
    db.loader(0)
        .insert(t, &9u64.to_le_bytes(), &0u64.to_le_bytes());
    let blk = run_one(&mut db, p, &[(0, 9)]);
    assert!(db.block_status(blk).is_committed());
}

#[test]
fn utilization_report_mentions_every_worker() {
    let mut b = SystemBuilder::new(BionicConfig::small(3));
    b.table(TableMeta::hash("kv", 8, 8, 16));
    let db = b.build();
    let report = db.utilization_report();
    for w in 0..3 {
        assert!(report.contains(&format!("worker {w}:")), "{report}");
    }
}

#[test]
fn runtime_procedure_upload_without_reconfiguration() {
    // The paper's §4.3 flexibility claim: a client registers a *new*
    // transaction while the machine is live — catalogue update only.
    use bionicdb_softcore::Catalogue;
    let mut b = one_worker();
    let t = b.table(TableMeta::hash("kv", 8, 8, 1 << 8));
    let read = b.proc(
        assemble(
            "proc rd\nlogic:\n    search 0, 0, c0\ncommit:\n    ret g0, c0\n    cmp g0, 0\n    blt abort\n    commit\nabort:\n    abort\n",
        )
        .unwrap(),
    );
    let mut db = b.build();
    db.loader(0)
        .insert(t, &1u64.to_le_bytes(), &5u64.to_le_bytes());
    let blk = run_one(&mut db, read, &[(0, 1)]);
    assert!(db.block_status(blk).is_committed());

    // Mid-life upload of a brand-new write transaction.
    let bump = assemble(
        "proc bump\nlogic:\n    update 0, 0, c0\ncommit:\n    ret g0, c0\n    cmp g0, 0\n    blt abort\n    load g1, [g0+72]\n    add g1, 1\n    store g1, [g0+72]\n    getts g2\n    store g2, [g0+8]\n    mov g3, 0\n    store g3, [g0+24]\n    commit\nabort:\n    abort\n",
    )
    .unwrap();
    let bump_id = db
        .register_proc_bytes(&Catalogue::encode_proc(&bump))
        .expect("runtime upload");
    let blk = run_one(&mut db, bump_id, &[(0, 1)]);
    assert!(db.block_status(blk).is_committed());
    let addr = db.loader(0).lookup(t, &1u64.to_le_bytes()).unwrap();
    let v = u64::from_le_bytes(db.loader(0).payload(t, addr)[..8].try_into().unwrap());
    assert_eq!(v, 6, "new transaction ran against live data");
}

#[test]
fn staggered_injection_is_schedule_invariant() {
    // Streaming entry points (DESIGN.md §17): transactions injected at
    // *arbitrary* cycles — not just a cycle-0 preload — must leave the
    // machine byte-identical across strict ticking, fast-forward, and the
    // epoch-parallel scheduler. Each run replays the same arrival plan:
    // step the clock to the arrival cycle, inject, repeat, then step to a
    // fixed horizon so idle accounting and the report's `now` align.
    //
    // The crash inputs land a power loss inside a `step_until` span: at
    // 1530 the transactions injected at 1500 and 1501 are in flight (and a
    // worker acts on the crash cycle itself); at 3000 the machine idles
    // between arrivals. Every schedule must freeze on the same cycle with
    // the same report and durable bytes.
    use bionicdb::{Checkpoint, CommandLog, DurableImage, FaultPlan};
    const ARRIVALS: [(u64, usize, u64); 6] =
        [(0, 0, 1), (0, 1, 2), (700, 0, 1), (1500, 1, 2), (1501, 0, 1), (4200, 1, 2)];
    const HORIZON: u64 = 1 << 16;
    let run = |fast_forward: bool, threads: usize, crash: Option<u64>| {
        let mut b = SystemBuilder::new(BionicConfig::small(2));
        let t = b.table(TableMeta::hash("kv", 8, 8, 1 << 8));
        let bump = b.proc(
            assemble(
                "proc bump\nlogic:\n    update 0, 0, c0\ncommit:\n    ret g0, c0\n    cmp g0, 0\n    blt abort\n    load g1, [g0+72]\n    add g1, 1\n    store g1, [g0+72]\n    getts g2\n    store g2, [g0+8]\n    mov g3, 0\n    store g3, [g0+24]\n    commit\nabort:\n    abort\n",
            )
            .unwrap(),
        );
        let mut db = b.build();
        db.set_fast_forward(fast_forward);
        db.set_sim_threads(threads);
        for w in 0..2 {
            db.loader(w)
                .insert(t, &(w as u64 + 1).to_le_bytes(), &0u64.to_le_bytes());
        }
        let blocks: Vec<_> = ARRIVALS
            .iter()
            .map(|&(_, worker, _)| (worker, db.alloc_block(worker, 128)))
            .collect();
        if let Some(c) = crash {
            db.set_fault_plan(FaultPlan::none().crash_at(c));
            let logged = blocks.clone();
            db.set_crash_hook(move |m| {
                let mut log = CommandLog::new();
                for &(w, blk) in &logged {
                    log.capture(m, w, blk);
                }
                DurableImage {
                    log: log.to_bytes(),
                    checkpoint: Checkpoint::dump(m).to_bytes(),
                }
            });
        }
        for (&(cycle, _, key), &(worker, blk)) in ARRIVALS.iter().zip(&blocks) {
            db.step_until(cycle);
            let landed = crash.map_or(cycle, |c| cycle.min(c));
            assert_eq!(db.now(), landed, "step_until lands on its target or the crash");
            db.init_block(blk, bump);
            db.write_block_u64(blk, 0, key);
            db.submit(worker, blk);
        }
        db.step_until(HORIZON);
        let committed = blocks
            .iter()
            .filter(|&&(_, blk)| db.block_status(blk).is_committed())
            .count();
        match crash {
            None => {
                assert_eq!(db.now(), HORIZON);
                assert!(db.is_quiescent(), "horizon generously exceeds all work");
                assert_eq!(committed, blocks.len());
            }
            Some(c) => {
                assert!(db.is_crashed());
                assert_eq!(db.now(), c, "the crash freezes the clock");
            }
        }
        (db.report().to_json(), committed, db.take_crash_image())
    };
    for crash in [None, Some(1530), Some(3000)] {
        let strict = run(false, 1, crash);
        assert_eq!(strict, run(true, 1, crash), "fast-forward diverged ({crash:?})");
        assert_eq!(strict, run(true, 2, crash), "epoch-parallel diverged ({crash:?})");
        assert_eq!(strict, run(true, 4, crash), "epoch-parallel(4) diverged ({crash:?})");
        match crash {
            Some(1530) => assert_eq!(strict.1, 3, "the crash caught 1500/1501 in flight"),
            Some(_) => assert_eq!(strict.1, 5, "the idle-span crash lost nothing"),
            None => {}
        }
    }
}
