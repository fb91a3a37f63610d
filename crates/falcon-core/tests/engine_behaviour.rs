//! Engine-level behaviour tests: every engine variant × CC algorithm on
//! a small key-value table, including conflicts, MV snapshots, aborts,
//! and crash recovery.

use falcon_core::table::{IndexKind, TableDef};
use falcon_core::{CcAlgo, Engine, EngineConfig, TxnError};
use falcon_storage::{ColType, Schema};
use pmem_sim::{MemCtx, PmemDevice, SimConfig};

const TABLE: u32 = 0;
const VAL_OFF: u32 = 8;

fn key_fn(_s: &Schema, row: &[u8]) -> u64 {
    u64::from_le_bytes(row[0..8].try_into().unwrap())
}

fn kv_def(kind: IndexKind) -> TableDef {
    TableDef {
        schema: Schema::new("kv", &[("k", ColType::U64), ("v", ColType::Bytes(56))]),
        index_kind: kind,
        capacity_hint: 10_000,
        primary_key: key_fn,
        secondary: None,
    }
}

fn row(k: u64, tag: u8) -> Vec<u8> {
    let mut r = vec![tag; 64];
    r[0..8].copy_from_slice(&k.to_le_bytes());
    r
}

fn engine(cfg: EngineConfig) -> Engine {
    let dev = PmemDevice::new(SimConfig::small().with_capacity(256 << 20)).unwrap();
    let e = Engine::create(dev, cfg, &[kv_def(IndexKind::Hash)]).unwrap();
    e.device().trace_start();
    e
}

/// Verify the event trace recorded since engine creation violates no
/// persistency-order rule (trivial under eADR — the point is that no
/// rule misfires on real engine traces).
fn assert_persist_clean(e: &Engine) {
    falcon_check::check(&e.device().trace_take()).assert_clean();
}

fn all_engines() -> Vec<EngineConfig> {
    let mut v = EngineConfig::overall_lineup();
    v.extend(EngineConfig::ablation_lineup());
    v
}

#[test]
fn crud_roundtrip_every_engine() {
    for cfg in all_engines() {
        let name = cfg.name;
        let e = engine(cfg.with_threads(2));
        let mut w = e.worker(0).unwrap();

        // Insert.
        let mut t = e.begin(&mut w, false);
        t.insert(TABLE, &row(1, 0xAA)).unwrap();
        t.insert(TABLE, &row(2, 0xBB)).unwrap();
        t.commit().unwrap();

        // Read.
        let mut t = e.begin(&mut w, false);
        assert_eq!(t.read(TABLE, 1).unwrap(), row(1, 0xAA), "{name}");
        assert_eq!(t.read(TABLE, 9).unwrap_err(), TxnError::NotFound, "{name}");
        t.commit().unwrap();

        // Update.
        let mut t = e.begin(&mut w, false);
        t.update(TABLE, 1, &[(VAL_OFF, &[0xCC; 8])]).unwrap();
        t.commit().unwrap();
        let mut t = e.begin(&mut w, false);
        let got = t.read(TABLE, 1).unwrap();
        assert_eq!(&got[8..16], &[0xCC; 8], "{name}");
        assert_eq!(&got[16..24], &[0xAA; 8], "{name}: rest untouched");
        t.commit().unwrap();

        // Delete.
        let mut t = e.begin(&mut w, false);
        t.delete(TABLE, 2).unwrap();
        t.commit().unwrap();
        let mut t = e.begin(&mut w, false);
        assert_eq!(t.read(TABLE, 2).unwrap_err(), TxnError::NotFound, "{name}");
        assert_eq!(
            t.read(TABLE, 1).unwrap()[0..8],
            1u64.to_le_bytes(),
            "{name}"
        );
        t.commit().unwrap();
        assert_persist_clean(&e);
    }
}

#[test]
fn crud_roundtrip_every_cc_algorithm() {
    for cc in CcAlgo::all() {
        for base in [EngineConfig::falcon(), EngineConfig::zens()] {
            let name = format!("{} / {}", base.name, cc.name());
            let e = engine(base.with_cc(cc).with_threads(2));
            let mut w = e.worker(0).unwrap();
            let mut t = e.begin(&mut w, false);
            t.insert(TABLE, &row(7, 1)).unwrap();
            t.commit().unwrap();
            let mut t = e.begin(&mut w, false);
            t.update(TABLE, 7, &[(VAL_OFF, &[9; 4])]).unwrap();
            assert_eq!(&t.read(TABLE, 7).unwrap()[8..12], &[9; 4], "{name}: RYW");
            t.commit().unwrap();
            let mut t = e.begin(&mut w, false);
            assert_eq!(&t.read(TABLE, 7).unwrap()[8..12], &[9; 4], "{name}");
            t.commit().unwrap();
            assert_persist_clean(&e);
        }
    }
}

#[test]
fn abort_rolls_back_everything() {
    for cfg in all_engines() {
        let name = cfg.name;
        let e = engine(cfg.with_threads(1));
        let mut w = e.worker(0).unwrap();
        let mut t = e.begin(&mut w, false);
        t.insert(TABLE, &row(1, 1)).unwrap();
        t.commit().unwrap();

        let mut t = e.begin(&mut w, false);
        t.update(TABLE, 1, &[(VAL_OFF, &[0xFF; 8])]).unwrap();
        t.insert(TABLE, &row(2, 2)).unwrap();
        t.abort();

        let mut t = e.begin(&mut w, false);
        assert_eq!(
            &t.read(TABLE, 1).unwrap()[8..16],
            &[1; 8],
            "{name}: update undone"
        );
        assert_eq!(
            t.read(TABLE, 2).unwrap_err(),
            TxnError::NotFound,
            "{name}: insert undone"
        );
        t.commit().unwrap();

        // The tuple must still be writable (locks released).
        let mut t = e.begin(&mut w, false);
        t.update(TABLE, 1, &[(VAL_OFF, &[3; 2])]).unwrap();
        t.commit().unwrap();
    }
}

#[test]
fn dropped_txn_aborts() {
    let e = engine(EngineConfig::falcon().with_threads(1));
    let mut w = e.worker(0).unwrap();
    let mut t = e.begin(&mut w, false);
    t.insert(TABLE, &row(5, 5)).unwrap();
    drop(t);
    let mut t = e.begin(&mut w, false);
    assert_eq!(t.read(TABLE, 5).unwrap_err(), TxnError::NotFound);
    t.commit().unwrap();
}

#[test]
fn duplicate_insert_rejected() {
    let e = engine(EngineConfig::falcon().with_threads(1));
    let mut w = e.worker(0).unwrap();
    let mut t = e.begin(&mut w, false);
    t.insert(TABLE, &row(1, 1)).unwrap();
    t.commit().unwrap();
    let mut t = e.begin(&mut w, false);
    assert_eq!(
        t.insert(TABLE, &row(1, 2)).unwrap_err(),
        TxnError::Duplicate
    );
    t.abort();
    // Value unchanged.
    let mut t = e.begin(&mut w, false);
    assert_eq!(&t.read(TABLE, 1).unwrap()[8..16], &[1; 8]);
    t.commit().unwrap();
}

#[test]
fn write_write_conflicts_abort_no_wait() {
    for cc in [CcAlgo::TwoPl, CcAlgo::To] {
        let e = engine(EngineConfig::falcon().with_cc(cc).with_threads(2));
        let mut w0 = e.worker(0).unwrap();
        let mut w1 = e.worker(1).unwrap();
        let mut t = e.begin(&mut w0, false);
        t.insert(TABLE, &row(1, 1)).unwrap();
        t.commit().unwrap();

        let mut t0 = e.begin(&mut w0, false);
        t0.update(TABLE, 1, &[(VAL_OFF, &[7; 1])]).unwrap();
        // Concurrent writer must no-wait abort.
        let mut t1 = e.begin(&mut w1, false);
        assert_eq!(
            t1.update(TABLE, 1, &[(VAL_OFF, &[8; 1])]).unwrap_err(),
            TxnError::Conflict,
            "{}",
            cc.name()
        );
        t1.abort();
        t0.commit().unwrap();
    }
}

#[test]
fn two_pl_readers_block_writer_but_not_readers() {
    let e = engine(
        EngineConfig::falcon()
            .with_cc(CcAlgo::TwoPl)
            .with_threads(3),
    );
    let mut w0 = e.worker(0).unwrap();
    let mut w1 = e.worker(1).unwrap();
    let mut w2 = e.worker(2).unwrap();
    let mut t = e.begin(&mut w0, false);
    t.insert(TABLE, &row(1, 1)).unwrap();
    t.commit().unwrap();

    let mut r1 = e.begin(&mut w1, false);
    r1.read(TABLE, 1).unwrap();
    // A second reader is fine.
    let mut r2 = e.begin(&mut w2, false);
    r2.read(TABLE, 1).unwrap();
    r2.commit().unwrap();
    // A writer conflicts with the held read lock.
    let mut t0 = e.begin(&mut w0, false);
    assert_eq!(
        t0.update(TABLE, 1, &[(VAL_OFF, &[2; 1])]).unwrap_err(),
        TxnError::Conflict
    );
    t0.abort();
    r1.commit().unwrap();
    // After release, the write succeeds.
    let mut t0 = e.begin(&mut w0, false);
    t0.update(TABLE, 1, &[(VAL_OFF, &[2; 1])]).unwrap();
    t0.commit().unwrap();
}

#[test]
fn two_pl_upgrade_read_to_write() {
    let e = engine(
        EngineConfig::falcon()
            .with_cc(CcAlgo::TwoPl)
            .with_threads(1),
    );
    let mut w = e.worker(0).unwrap();
    let mut t = e.begin(&mut w, false);
    t.insert(TABLE, &row(1, 1)).unwrap();
    t.commit().unwrap();

    // Read then write the same tuple in one transaction.
    let mut t = e.begin(&mut w, false);
    t.read(TABLE, 1).unwrap();
    t.update(TABLE, 1, &[(VAL_OFF, &[9; 1])]).unwrap();
    t.commit().unwrap();
    let mut t = e.begin(&mut w, false);
    assert_eq!(t.read(TABLE, 1).unwrap()[8], 9);
    t.commit().unwrap();
}

#[test]
fn occ_validation_catches_stale_read() {
    let e = engine(EngineConfig::falcon().with_cc(CcAlgo::Occ).with_threads(2));
    let mut w0 = e.worker(0).unwrap();
    let mut w1 = e.worker(1).unwrap();
    let mut t = e.begin(&mut w0, false);
    t.insert(TABLE, &row(1, 1)).unwrap();
    t.insert(TABLE, &row(2, 2)).unwrap();
    t.commit().unwrap();

    // T1 reads key 1 and writes key 2; meanwhile T0 overwrites key 1.
    let mut t1 = e.begin(&mut w1, false);
    t1.read(TABLE, 1).unwrap();
    t1.update(TABLE, 2, &[(VAL_OFF, &[5; 1])]).unwrap();

    let mut t0 = e.begin(&mut w0, false);
    t0.update(TABLE, 1, &[(VAL_OFF, &[6; 1])]).unwrap();
    t0.commit().unwrap();

    assert_eq!(t1.commit().unwrap_err(), TxnError::Conflict);

    // Key 2 must be untouched by the failed validation.
    let mut t = e.begin(&mut w0, false);
    assert_eq!(t.read(TABLE, 2).unwrap()[8], 2);
    t.commit().unwrap();
}

#[test]
fn to_rejects_stale_writer() {
    let e = engine(EngineConfig::falcon().with_cc(CcAlgo::To).with_threads(2));
    let mut w0 = e.worker(0).unwrap();
    let mut w1 = e.worker(1).unwrap();
    let mut t = e.begin(&mut w0, false);
    t.insert(TABLE, &row(1, 1)).unwrap();
    t.commit().unwrap();

    // Older transaction begins first...
    let mut told = e.begin(&mut w0, false);
    // ...newer transaction reads the tuple, raising read_ts above the
    // older TID.
    let mut tnew = e.begin(&mut w1, false);
    tnew.read(TABLE, 1).unwrap();
    tnew.commit().unwrap();
    // The older transaction can no longer write it.
    assert_eq!(
        told.update(TABLE, 1, &[(VAL_OFF, &[9; 1])]).unwrap_err(),
        TxnError::Conflict
    );
    told.abort();
}

#[test]
fn mv_snapshot_reads_old_version() {
    for cc in [CcAlgo::Mv2pl, CcAlgo::Mvto, CcAlgo::Mvocc] {
        for base in [EngineConfig::falcon(), EngineConfig::outp()] {
            let name = format!("{} / {}", base.name, cc.name());
            let e = engine(base.with_cc(cc).with_threads(2));
            let mut w0 = e.worker(0).unwrap();
            let mut w1 = e.worker(1).unwrap();
            let mut t = e.begin(&mut w0, false);
            t.insert(TABLE, &row(1, 0x11)).unwrap();
            t.commit().unwrap();

            // Snapshot reader begins BEFORE the update commits.
            let mut snap = e.begin(&mut w1, true);
            // Writer updates and commits.
            let mut t = e.begin(&mut w0, false);
            t.update(TABLE, 1, &[(VAL_OFF, &[0x22; 8])]).unwrap();
            t.commit().unwrap();
            // The snapshot still sees the old value.
            let got = snap.read(TABLE, 1).unwrap();
            assert_eq!(&got[8..16], &[0x11; 8], "{name}: snapshot isolation");
            snap.commit().unwrap();

            // A new reader sees the new value.
            let mut t = e.begin(&mut w1, true);
            assert_eq!(&t.read(TABLE, 1).unwrap()[8..16], &[0x22; 8], "{name}");
            t.commit().unwrap();
        }
    }
}

#[test]
fn mv_readonly_txn_does_not_block_writers() {
    let e = engine(
        EngineConfig::falcon()
            .with_cc(CcAlgo::Mv2pl)
            .with_threads(2),
    );
    let mut w0 = e.worker(0).unwrap();
    let mut w1 = e.worker(1).unwrap();
    let mut t = e.begin(&mut w0, false);
    t.insert(TABLE, &row(1, 1)).unwrap();
    t.commit().unwrap();

    let mut snap = e.begin(&mut w1, true);
    snap.read(TABLE, 1).unwrap();
    // Writer proceeds despite the open read-only transaction.
    let mut t = e.begin(&mut w0, false);
    t.update(TABLE, 1, &[(VAL_OFF, &[2; 1])]).unwrap();
    t.commit().unwrap();
    snap.commit().unwrap();
}

#[test]
fn readonly_txn_rejects_writes() {
    let e = engine(EngineConfig::falcon().with_threads(1));
    let mut w = e.worker(0).unwrap();
    let mut t = e.begin(&mut w, true);
    assert_eq!(t.insert(TABLE, &row(1, 1)).unwrap_err(), TxnError::ReadOnly);
    assert_eq!(
        t.update(TABLE, 1, &[(VAL_OFF, &[1; 1])]).unwrap_err(),
        TxnError::ReadOnly
    );
    assert_eq!(t.delete(TABLE, 1).unwrap_err(), TxnError::ReadOnly);
    t.commit().unwrap();
}

#[test]
fn concurrent_disjoint_updates_all_commit() {
    for cfg in [EngineConfig::falcon(), EngineConfig::zens()] {
        let e = std::sync::Arc::new(engine(cfg.with_cc(CcAlgo::Occ).with_threads(4)));
        {
            let mut w = e.worker(0).unwrap();
            let mut t = e.begin(&mut w, false);
            for k in 0..64u64 {
                t.insert(TABLE, &row(k, 0)).unwrap();
            }
            t.commit().unwrap();
        }
        std::thread::scope(|s| {
            for th in 0..4usize {
                let e = std::sync::Arc::clone(&e);
                s.spawn(move || {
                    let mut w = e.worker(th).unwrap();
                    for i in 0..200u64 {
                        let k = (th as u64 * 16) + (i % 16);
                        let mut t = e.begin(&mut w, false);
                        let v = [th as u8 + 1; 4];
                        t.update(TABLE, k, &[(VAL_OFF, &v)]).unwrap();
                        t.commit().unwrap();
                    }
                });
            }
        });
        // Every key carries its owner's tag.
        let mut w = e.worker(0).unwrap();
        let mut t = e.begin(&mut w, false);
        for k in 0..64u64 {
            let want = (k / 16) as u8 + 1;
            assert_eq!(t.read(TABLE, k).unwrap()[8], want, "key {k}");
        }
        t.commit().unwrap();
    }
}

#[test]
fn concurrent_contended_updates_preserve_consistency() {
    // All threads increment the same logical counter under 2PL no-wait;
    // total committed increments must equal the final counter value.
    let e = std::sync::Arc::new(engine(
        EngineConfig::falcon()
            .with_cc(CcAlgo::TwoPl)
            .with_threads(4),
    ));
    {
        let mut w = e.worker(0).unwrap();
        let mut t = e.begin(&mut w, false);
        t.insert(TABLE, &row(1, 0)).unwrap();
        t.commit().unwrap();
    }
    let committed = std::sync::atomic::AtomicU64::new(0);
    std::thread::scope(|s| {
        for th in 0..4usize {
            let e = std::sync::Arc::clone(&e);
            let committed = &committed;
            s.spawn(move || {
                let mut w = e.worker(th).unwrap();
                for _ in 0..300 {
                    let mut t = e.begin(&mut w, false);
                    let cur = match t.read_at(TABLE, 1, 8, 8) {
                        Ok(v) => u64::from_le_bytes(v.try_into().unwrap()),
                        Err(_) => {
                            t.abort();
                            continue;
                        }
                    };
                    let next = (cur + 1).to_le_bytes();
                    if t.update(TABLE, 1, &[(VAL_OFF, &next)]).is_err() {
                        t.abort();
                        continue;
                    }
                    if t.commit().is_ok() {
                        committed.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    }
                }
            });
        }
    });
    let mut w = e.worker(0).unwrap();
    let mut t = e.begin(&mut w, false);
    let v = t.read_at(TABLE, 1, 8, 8).unwrap();
    let counter = u64::from_le_bytes(v.try_into().unwrap());
    t.commit().unwrap();
    let n = committed.load(std::sync::atomic::Ordering::Relaxed);
    assert_eq!(counter, n, "lost update detected");
    assert!(n > 0, "some increments must commit");
}

#[test]
fn zens_tuple_cache_does_not_collide_across_tables() {
    // Regression: two tables with equal key values and different row
    // sizes; the ZenS DRAM tuple cache must not serve one table's row
    // for the other.
    let dev = PmemDevice::new(SimConfig::small().with_capacity(256 << 20)).unwrap();
    let small = TableDef {
        schema: Schema::new("small", &[("k", ColType::U64), ("v", ColType::Bytes(8))]),
        index_kind: IndexKind::Hash,
        capacity_hint: 100,
        primary_key: key_fn,
        secondary: None,
    };
    let big = TableDef {
        schema: Schema::new("big", &[("k", ColType::U64), ("v", ColType::Bytes(120))]),
        index_kind: IndexKind::Hash,
        capacity_hint: 100,
        primary_key: key_fn,
        secondary: None,
    };
    let e = Engine::create(dev, EngineConfig::zens().with_threads(1), &[small, big]).unwrap();
    let mut w = e.worker(0).unwrap();
    let mut t = e.begin(&mut w, false);
    let mut small_row = vec![1u8; 16];
    small_row[0..8].copy_from_slice(&7u64.to_le_bytes());
    let mut big_row = vec![2u8; 128];
    big_row[0..8].copy_from_slice(&7u64.to_le_bytes());
    t.insert(0, &small_row).unwrap();
    t.insert(1, &big_row).unwrap();
    t.commit().unwrap();
    // Read table 0 first (fills the cache for key 7), then table 1.
    let mut t = e.begin(&mut w, false);
    assert_eq!(t.read(0, 7).unwrap(), small_row);
    assert_eq!(t.read(1, 7).unwrap(), big_row);
    assert_eq!(t.read(0, 7).unwrap(), small_row);
    t.commit().unwrap();
}

#[test]
fn delete_then_reinsert_recycles_slot() {
    let e = engine(EngineConfig::falcon().with_threads(1));
    let mut w = e.worker(0).unwrap();
    for round in 0..10u8 {
        let mut t = e.begin(&mut w, false);
        t.insert(TABLE, &row(100, round)).unwrap();
        t.commit().unwrap();
        let mut t = e.begin(&mut w, false);
        assert_eq!(t.read(TABLE, 100).unwrap()[8], round);
        t.delete(TABLE, 100).unwrap();
        t.commit().unwrap();
    }
    let mut ctx = MemCtx::new(0);
    // Slots are recycled through the delete list: far fewer than 10
    // distinct slots should be live.
    assert!(e.table(TABLE).heap.allocated_slots(&mut ctx).unwrap() <= 10);
}
