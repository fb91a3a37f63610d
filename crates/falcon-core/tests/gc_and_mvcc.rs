//! Garbage collection (§5.4) under sustained load: version queues stay
//! bounded, delete lists recycle, out-of-place garbage is reclaimed, and
//! long-running snapshot readers hold back reclamation without breaking
//! their snapshots.

use falcon_core::table::{IndexKind, TableDef};
use falcon_core::{CcAlgo, Engine, EngineConfig};
use falcon_storage::{ColType, Schema};
use pmem_sim::{MemCtx, PmemDevice, SimConfig};

const TABLE: u32 = 0;

fn key_fn(_s: &Schema, row: &[u8]) -> u64 {
    u64::from_le_bytes(row[0..8].try_into().unwrap())
}

fn kv_def() -> TableDef {
    TableDef {
        schema: Schema::new("kv", &[("k", ColType::U64), ("v", ColType::Bytes(24))]),
        index_kind: IndexKind::Hash,
        capacity_hint: 4_096,
        primary_key: key_fn,
        secondary: None,
    }
}

fn row(k: u64, tag: u8) -> Vec<u8> {
    let mut r = vec![tag; 32];
    r[0..8].copy_from_slice(&k.to_le_bytes());
    r
}

fn engine(cfg: EngineConfig) -> Engine {
    let dev = PmemDevice::new(SimConfig::small().with_capacity(256 << 20)).unwrap();
    Engine::create(dev, cfg, &[kv_def()]).unwrap()
}

#[test]
fn version_queue_stays_bounded_under_mvcc_churn() {
    let mut cfg = EngineConfig::falcon().with_cc(CcAlgo::Mvto).with_threads(1);
    cfg.version_gc_threshold = 64;
    let e = engine(cfg);
    let mut w = e.worker(0).unwrap();
    let mut t = e.begin(&mut w, false);
    for k in 0..16u64 {
        t.insert(TABLE, &row(k, 0)).unwrap();
    }
    t.commit().unwrap();

    for i in 0..2_000u64 {
        let mut t = e.begin(&mut w, false);
        t.update(TABLE, i % 16, &[(8, &[i as u8; 4])]).unwrap();
        t.commit().unwrap();
        e.maybe_gc(&mut w);
    }
    // Every committed update created a version; GC must keep the queue
    // near the threshold, not at 2000.
    assert!(
        e.versions().live_versions() < 200,
        "version queue leaked: {}",
        e.versions().live_versions()
    );
}

#[test]
fn snapshot_reader_blocks_reclamation_but_not_correctness() {
    let mut cfg = EngineConfig::falcon()
        .with_cc(CcAlgo::Mvocc)
        .with_threads(2);
    cfg.version_gc_threshold = 8;
    let e = engine(cfg);
    let mut w0 = e.worker(0).unwrap();
    let mut w1 = e.worker(1).unwrap();
    let mut t = e.begin(&mut w0, false);
    t.insert(TABLE, &row(1, 7)).unwrap();
    t.commit().unwrap();

    // Open a snapshot, then churn 100 updates with GC attempts.
    let mut snap = e.begin(&mut w1, true);
    snap.read(TABLE, 1).unwrap(); // Pin the snapshot's view.
    for i in 0..100u8 {
        let mut t = e.begin(&mut w0, false);
        t.update(TABLE, 1, &[(8, &[i; 4])]).unwrap();
        t.commit().unwrap();
        e.maybe_gc(&mut w0);
    }
    // The old snapshot still reads the original value.
    let got = snap.read(TABLE, 1).unwrap();
    assert_eq!(&got[8..12], &[7u8; 4], "snapshot must stay stable");
    snap.commit().unwrap();

    // With the reader gone, GC reclaims.
    for _ in 0..40 {
        let mut t = e.begin(&mut w0, false);
        t.update(TABLE, 1, &[(8, &[0xEE; 4])]).unwrap();
        t.commit().unwrap();
        e.maybe_gc(&mut w0);
    }
    assert!(e.versions().live_versions() < 60);
}

#[test]
fn outp_garbage_slots_are_recycled() {
    let mut cfg = EngineConfig::zens().with_cc(CcAlgo::Occ).with_threads(1);
    cfg.version_gc_threshold = 16;
    let e = engine(cfg);
    let mut w = e.worker(0).unwrap();
    let mut t = e.begin(&mut w, false);
    for k in 0..8u64 {
        t.insert(TABLE, &row(k, 0)).unwrap();
    }
    t.commit().unwrap();

    // 1000 updates allocate 1000 new versions; GC must recycle the old
    // slots so the heap stays near the live set, not 1000+.
    for i in 0..1_000u64 {
        let mut t = e.begin(&mut w, false);
        t.update(TABLE, i % 8, &[(8, &[1u8; 4])]).unwrap();
        t.commit().unwrap();
        e.maybe_gc(&mut w);
    }
    let mut ctx = MemCtx::new(0);
    let heap = &e.table(TABLE).heap;
    let allocated = heap.allocated_slots(&mut ctx).unwrap();
    let on_delete_list = heap.delete_list_len(0, &mut ctx);
    // allocated counts every slot ever carved from pages minus reuse;
    // with recycling, carve count stays well below the update count.
    assert!(
        allocated < 500,
        "slot recycling failed: {allocated} slots carved ({on_delete_list} listed)"
    );
}

#[test]
fn delete_heavy_workload_recycles_through_delete_lists() {
    let e = engine(EngineConfig::falcon().with_cc(CcAlgo::Occ).with_threads(1));
    let mut w = e.worker(0).unwrap();
    // Insert/delete cycles with GC-eligible timestamps.
    for round in 0..300u64 {
        let k = 1_000 + (round % 10);
        let mut t = e.begin(&mut w, false);
        t.insert(TABLE, &row(k, round as u8)).unwrap();
        t.commit().unwrap();
        let mut t = e.begin(&mut w, false);
        t.delete(TABLE, k).unwrap();
        t.commit().unwrap();
    }
    let mut ctx = MemCtx::new(0);
    let allocated = e.table(TABLE).heap.allocated_slots(&mut ctx).unwrap();
    assert!(
        allocated < 100,
        "delete-list recycling failed: {allocated} slots carved for 300 cycles"
    );
}

#[test]
fn out_of_space_drops_writes_but_releases_locks() {
    // Regression: on a deliberately tiny device, out-of-place updates
    // eventually fail to allocate new version slots. The writes are
    // dropped, but the tuples must stay unlocked and the engine usable.
    let dev = PmemDevice::new(SimConfig::small().with_capacity(8 << 20)).unwrap();
    let e = Engine::create(
        dev,
        EngineConfig::zens().with_cc(CcAlgo::Occ).with_threads(1),
        &[kv_def()],
    )
    .unwrap();
    let mut w = e.worker(0).unwrap();
    let mut t = e.begin(&mut w, false);
    for k in 0..4u64 {
        t.insert(TABLE, &row(k, 0)).unwrap();
    }
    t.commit().unwrap();

    // Hammer updates far past the arena capacity (8 MB device leaves a
    // single 2 MB page: ~32 k slots of 64 B).
    let mut commits = 0;
    for i in 0..40_000u64 {
        let mut t = e.begin(&mut w, false);
        if t.update(TABLE, i % 4, &[(8, &[i as u8; 4])]).is_ok() && t.commit().is_ok() {
            commits += 1;
        }
    }
    assert!(commits > 39_000, "updates must keep committing: {commits}");
    // Every tuple is still readable and writable (locks were released
    // even on the drop-the-write path).
    let mut t = e.begin(&mut w, false);
    for k in 0..4u64 {
        t.read(TABLE, k).unwrap();
        t.update(TABLE, k, &[(8, &[9u8; 2])]).unwrap();
    }
    // The final commit may or may not find space; either way it must
    // not hang or leave locks behind.
    let _ = t.commit();
    let mut t = e.begin(&mut w, false);
    for k in 0..4u64 {
        t.read(TABLE, k).unwrap();
    }
    t.commit().unwrap();
}
