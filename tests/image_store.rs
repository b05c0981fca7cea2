//! The process-wide store of loaded database images behind
//! `bionicdb_workloads::abi::assemble`.
//!
//! 1. The store keeps at most one image per workload family: building two
//!    YCSB specs in turn replaces the family's image each time, and every
//!    build still equals its fresh load.
//! 2. Batch mode, topology, `max_batch` and spec fields the load does not
//!    read are not part of the key, so machines that differ only in those
//!    reuse one image.
//! 3. A different `partition_bytes` moves the tables, and the machine gets
//!    an image of its own layout.
//! 4. A database larger than the store's 8 MiB bound is loaded by every
//!    build and never stored.
//! 5. A panic caught inside `fresh_loads` does not leave the store
//!    bypassed.
//!
//! The tests here read the shared store, so they hold [`STORE`] while they
//! build; other test binaries run in processes of their own.

use std::sync::{Arc, Mutex, MutexGuard};

use bionicdb::{BionicConfig, LoadedImage, Machine, Topology};
use bionicdb_bench::serve::hw::{hw_config, CHAINED_HASH_BUCKETS};
use bionicdb_workloads::abi::{fresh_loads, restored_last, stored_images, LoadSpec};
use bionicdb_workloads::ycsb::YcsbBionic;
use bionicdb_workloads::{ServeKind, YcsbSpec};

static STORE: Mutex<()> = Mutex::new(());

fn exclusive() -> MutexGuard<'static, ()> {
    STORE.lock().unwrap_or_else(|e| e.into_inner())
}

fn ycsb(cfg: BionicConfig, spec: YcsbSpec) -> YcsbBionic {
    YcsbBionic::build(cfg, spec, 6)
}

/// The store's YCSB image and the key it was loaded for; asserts there
/// is exactly one.
fn ycsb_image() -> (LoadSpec, Arc<LoadedImage>) {
    let mut ycsb: Vec<_> = stored_images()
        .into_iter()
        .filter(|(key, _)| matches!(key, LoadSpec::Ycsb { .. }))
        .collect();
    assert_eq!(ycsb.len(), 1, "one YCSB image in the store");
    ycsb.pop().expect("one image")
}

/// Equal DRAM digests and table heaps.
fn assert_same_load(restored: &Machine, fresh: &Machine) {
    assert_eq!(restored.dram().image_digest(), fresh.dram().image_digest());
    for w in 0..fresh.num_workers() {
        for (a, b) in restored
            .partition(w)
            .tables
            .iter()
            .zip(&fresh.partition(w).tables)
        {
            assert_eq!(a.heap, b.heap, "worker {w} table {}", b.meta.name);
        }
    }
}

#[test]
fn alternating_specs_keep_one_image_per_family() {
    let _store = exclusive();
    let specs = [
        YcsbSpec::tiny(),
        YcsbSpec {
            records_per_partition: 700,
            ..YcsbSpec::tiny()
        },
    ];
    let cfg = BionicConfig::small(2);
    // Another test may have left the first spec in the store.
    ycsb(cfg.clone(), specs[1].clone());
    for round in 0..3 {
        for spec in &specs {
            // The first build of each spec loads it, the second restores.
            ycsb(cfg.clone(), spec.clone());
            assert!(!restored_last(), "round {round}: the other spec evicted");
            let restored = ycsb(cfg.clone(), spec.clone());
            assert!(restored_last(), "round {round}: restored");
            let (stored, image) = ycsb_image();
            let key = LoadSpec::Ycsb {
                records: spec.records_per_partition,
                payload_len: spec.payload_len,
            };
            assert_eq!(stored, key, "round {round}: the store holds the last spec");
            assert!(restored.machine.fits_image(&image));
            let fresh = fresh_loads(|| ycsb(cfg.clone(), spec.clone()));
            assert_same_load(&restored.machine, &fresh.machine);
        }
    }
    assert!(stored_images().len() <= 3, "at most one image per family");
}

#[test]
fn batch_mode_topology_max_batch_and_unloaded_fields_share_one_image() {
    let _store = exclusive();
    let chained = YcsbSpec {
        hash_buckets: Some(CHAINED_HASH_BUCKETS),
        ..YcsbSpec::tiny()
    };
    ycsb(hw_config(ServeKind::YcsbC, 2, Some(4)), chained.clone());
    let (_, first) = ycsb_image();
    let off = hw_config(ServeKind::YcsbC, 2, None);
    let ring = BionicConfig {
        topology: Topology::Ring,
        ..off.clone()
    };
    let deeper = BionicConfig {
        max_batch: 2 * off.max_batch,
        ..off.clone()
    };
    let other_txns = YcsbSpec {
        ops_per_txn: 4,
        scan_len: 10,
        remote_fraction: 0.25,
        ..chained.clone()
    };
    for (cfg, spec) in [
        (off.clone(), chained.clone()),
        (ring, chained.clone()),
        (deeper, chained.clone()),
        (off, other_txns),
    ] {
        let label = format!(
            "{:?} {:?} {} {spec:?}",
            cfg.batch_mode, cfg.topology, cfg.max_batch
        );
        let restored = ycsb(cfg.clone(), spec.clone());
        let (_, image) = ycsb_image();
        assert!(Arc::ptr_eq(&first, &image), "{label}: image reused");
        let fresh = fresh_loads(|| ycsb(cfg.clone(), spec.clone()));
        assert_same_load(&restored.machine, &fresh.machine);
    }
}

#[test]
fn another_partition_size_gets_its_own_image() {
    let _store = exclusive();
    let stock = BionicConfig::small(2);
    let smaller = BionicConfig {
        partition_bytes: stock.partition_bytes / 2,
        ..stock.clone()
    };
    ycsb(stock, YcsbSpec::tiny());
    let (_, first) = ycsb_image();
    let restored = ycsb(smaller.clone(), YcsbSpec::tiny());
    let (_, image) = ycsb_image();
    assert!(
        !Arc::ptr_eq(&first, &image),
        "a new image for the new layout"
    );
    assert!(!restored.machine.fits_image(&first));
    let fresh = fresh_loads(|| ycsb(smaller, YcsbSpec::tiny()));
    assert_same_load(&restored.machine, &fresh.machine);
}

#[test]
fn databases_above_the_bound_load_every_time() {
    let _store = exclusive();
    let cfg = BionicConfig::small(2);
    ycsb(cfg.clone(), YcsbSpec::tiny());
    let (_, small) = ycsb_image();
    // 2 partitions x 5,000 records of 1 KiB: about 20,000 frames.
    let large = YcsbSpec {
        records_per_partition: 5_000,
        payload_len: 1024,
        ..YcsbSpec::tiny()
    };
    for _ in 0..2 {
        let built = ycsb(cfg.clone(), large.clone());
        assert!(!restored_last(), "a large database is loaded, not restored");
        assert!(built.machine.dram().allocated_frames() > 16_384);
        let (_, image) = ycsb_image();
        assert!(
            Arc::ptr_eq(&small, &image),
            "the store keeps the small image"
        );
    }
}

#[test]
fn a_panic_inside_fresh_loads_leaves_the_store_in_use() {
    let _store = exclusive();
    let cfg = BionicConfig::small(2);
    let caught = std::panic::catch_unwind(|| {
        fresh_loads(|| {
            ycsb(BionicConfig::small(2), YcsbSpec::tiny());
            panic!("a failing case");
        })
    });
    assert!(caught.is_err());
    ycsb(cfg.clone(), YcsbSpec::tiny());
    ycsb(cfg, YcsbSpec::tiny());
    assert!(restored_last(), "builds after the panic use the store");
}
