//! Criterion microbenchmarks: one group per paper exhibit (scaled down to
//! criterion-friendly runtimes) plus substrate microbenches. The full
//! sweeps live in the `fig*`/`table*` binaries; these track regressions.

use bionicdb::ExecMode;
use bionicdb_cpu_model::{CoreModel, CpuConfig, NullTracer, Tracer};
use bionicdb_fpga::{Dram, FpgaConfig, MemKind, MemRequest, Tag};
use bionicdb_silo::{SiloDb, SwIndexKind, TableDef};
use bionicdb_workloads::ycsb::{YcsbBionic, YcsbKind, YcsbSilo};
use bionicdb_workloads::YcsbSpec;
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};

/// A tiny spec so each criterion iteration is milliseconds.
fn tiny_spec() -> YcsbSpec {
    YcsbSpec {
        records_per_partition: 5_000,
        payload_len: 100,
        ..YcsbSpec::default()
    }
}

fn tiny_ycsb(workers: usize) -> YcsbBionic {
    let cfg = bionicdb::BionicConfig {
        workers,
        mode: ExecMode::Interleaved,
        ..bionicdb::BionicConfig::small(workers)
    };
    YcsbBionic::build(cfg, tiny_spec(), 60)
}

/// Substrate: raw DRAM-model issue/deliver throughput.
fn bench_dram(c: &mut Criterion) {
    c.bench_function("fpga_dram_issue_tick", |b| {
        let cfg = FpgaConfig::default();
        let mut dram = Dram::new(&cfg, 1 << 24);
        let port = dram.register_port();
        let mut now = 0u64;
        b.iter(|| {
            now += 1;
            let _ = dram.issue(
                now,
                port,
                MemRequest {
                    addr: (now * 64) % (1 << 24),
                    kind: MemKind::Read { len: 8 },
                    tag: Tag(0),
                },
            );
            dram.tick(now);
            while dram.pop_response(port).is_some() {}
        });
    });
}

/// Fig 9a (scaled): simulated YCSB-C transactions on one worker.
fn bench_fig09_bionic_ycsb(c: &mut Criterion) {
    c.bench_function("fig09_bionicdb_ycsbc_txn", |b| {
        let mut y = tiny_ycsb(1);
        let size = y.block_size(YcsbKind::ReadLocal);
        let blk = y.machine.alloc_block(0, size);
        let mut rng = YcsbBionic::rng(1);
        b.iter(|| {
            y.submit_txn(0, blk, YcsbKind::ReadLocal, &mut rng);
            y.machine.run_to_quiescence_limit(1 << 24);
        });
    });
}

/// Fig 9a (scaled): modelled Silo YCSB-C transaction.
fn bench_fig09_silo_model(c: &mut Criterion) {
    c.bench_function("fig09_silo_model_ycsbc_txn", |b| {
        let sys = YcsbSilo::build(tiny_spec(), 1);
        let mut model = CoreModel::new(CpuConfig::default());
        let mut rng = YcsbBionic::rng(2);
        b.iter(|| sys.run_read_txn(&mut model, &mut rng));
    });
}

/// Fig 11d (scaled): wall-clock software index operations.
fn bench_fig11_sw_indexes(c: &mut Criterion) {
    let db = SiloDb::new(vec![
        TableDef::new("hash", SwIndexKind::Hash { buckets: 1 << 14 }, 64),
        TableDef::new("mass", SwIndexKind::Masstree, 64),
        TableDef::new("skip", SwIndexKind::Skiplist, 64),
    ]);
    for k in 0..10_000u64 {
        for t in 0..3 {
            db.load(t, k, vec![0u8; 64]);
        }
    }
    let mut g = c.benchmark_group("fig11_sw_index_ops");
    let mut k = 0u64;
    g.bench_function("hash_get", |b| {
        b.iter(|| {
            k = (k + 7) % 10_000;
            db.table(0).get(&mut NullTracer, k)
        })
    });
    g.bench_function("masstree_scan50", |b| {
        let mut out = Vec::with_capacity(50);
        b.iter(|| {
            k = (k + 7) % 9_000;
            out.clear();
            db.table(1).scan(&mut NullTracer, k, 50, &mut out)
        })
    });
    g.bench_function("skiplist_scan50", |b| {
        let mut out = Vec::with_capacity(50);
        b.iter(|| {
            k = (k + 7) % 9_000;
            out.clear();
            db.table(2).scan(&mut NullTracer, k, 50, &mut out)
        })
    });
    g.finish();
}

/// Silo OCC wall-clock commit path.
fn bench_silo_commit(c: &mut Criterion) {
    let db = SiloDb::new(vec![TableDef::new(
        "t",
        SwIndexKind::Hash { buckets: 1 << 14 },
        8,
    )]);
    for k in 0..10_000u64 {
        db.load(0, k, vec![0u8; 8]);
    }
    let mut k = 0u64;
    c.bench_function("silo_occ_update_commit", |b| {
        b.iter_batched(
            || {
                k = (k + 13) % 10_000;
                k
            },
            |key| {
                let mut t = db.txn();
                t.update(&mut NullTracer, 0, key, &key.to_le_bytes());
                t.commit(&mut NullTracer).unwrap()
            },
            BatchSize::SmallInput,
        )
    });
}

/// CPU cache model throughput.
fn bench_cpu_model(c: &mut Criterion) {
    c.bench_function("cpu_model_traced_read", |b| {
        let mut m = CoreModel::new(CpuConfig::default());
        let mut a = 0u64;
        b.iter(|| {
            a = a.wrapping_add(0x9e3779b97f4a7c15) & 0xffffff;
            m.read(a, 64);
        });
    });
}

/// Table 4: the resource/power model itself.
fn bench_power_model(c: &mut Criterion) {
    c.bench_function("table4_power_estimate", |b| {
        let cfg = FpgaConfig::default();
        let model = bionicdb_power::PowerModel::default();
        b.iter(|| {
            let rows = bionicdb_power::utilization(4, &cfg);
            model.estimate(&rows, cfg.clock_hz)
        });
    });
}

criterion_group!(
    benches,
    bench_dram,
    bench_fig09_bionic_ycsb,
    bench_fig09_silo_model,
    bench_fig11_sw_indexes,
    bench_silo_commit,
    bench_cpu_model,
    bench_power_model,
);
criterion_main!(benches);
