//! Corruption-tolerant recovery (chaos plane, negative paths).
//!
//! `recover()` is the one routine that must work on *damaged* input: a
//! crash can tear the tail of a log window, and media faults can flip
//! bits anywhere. These tests hand recovery deliberately malformed
//! durable state — torn commit records, corrupt catalogs, garbage index
//! and watermark roots — and require a typed [`EngineError`] or a
//! salvage (never a panic, never a wild read). The crash-*during*-
//! recovery tests drive the pmem-sim fault plane to cut power at
//! arbitrary points inside `recover()` itself and require the eventual
//! state to match a single clean recovery.

use falcon_core::logwindow::{
    self, COMMITTED, REC_HDR, S_LEN, S_STATE, S_TID, W_HDR, W_SLOTS, W_SLOT_BYTES,
};
use falcon_core::recovery::recover;
use falcon_core::table::{IndexKind, TableDef};
use falcon_core::{crc, Engine, EngineConfig, EngineError, TxnError};
use falcon_storage::layout::{SB_NUM_TABLES, SB_VERSION};
use falcon_storage::{Catalog, ColType, Schema, StorageError};
use pmem_sim::{FaultPlan, MemCtx, PAddr, PersistDomain, PmemDevice, SimConfig};

const TABLE: u32 = 0;
const VAL_OFF: u32 = 8;
const ENGINE_SLOT: usize = falcon_storage::layout::INDEX_SLOTS - 1;

fn key_fn(_s: &Schema, row: &[u8]) -> u64 {
    u64::from_le_bytes(row[0..8].try_into().unwrap())
}

fn kv_def() -> TableDef {
    TableDef {
        schema: Schema::new("kv", &[("k", ColType::U64), ("v", ColType::Bytes(56))]),
        index_kind: IndexKind::Hash,
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

fn fresh_in(cfg: &EngineConfig, domain: PersistDomain) -> (PmemDevice, Engine) {
    let sim = SimConfig::small()
        .with_capacity(256 << 20)
        .with_domain(domain);
    let dev = PmemDevice::new(sim).unwrap();
    let e = Engine::create(dev.clone(), cfg.clone(), &[kv_def()]).unwrap();
    (dev, e)
}

fn fresh(cfg: &EngineConfig) -> (PmemDevice, Engine) {
    fresh_in(cfg, PersistDomain::Eadr)
}

/// Run a little committed work so windows and watermarks are warm.
fn workload(e: &Engine, keys: u64) {
    let mut w = e.worker(0).unwrap();
    for k in 0..keys {
        let mut t = e.begin(&mut w, false);
        t.insert(TABLE, &row(k, 1)).unwrap();
        t.commit().unwrap();
    }
    for k in 0..keys / 2 {
        let mut t = e.begin(&mut w, false);
        t.update(TABLE, k, &[(VAL_OFF, &[2u8; 8])]).unwrap();
        t.commit().unwrap();
    }
}

/// Logical contents: every key's full row (or None), via real reads.
fn dump(e: &Engine, keys: u64) -> Vec<Option<Vec<u8>>> {
    let mut w = e.worker(0).unwrap();
    let mut out = Vec::new();
    for k in 0..keys {
        let mut t = e.begin(&mut w, false);
        out.push(match t.read(TABLE, k) {
            Ok(r) => Some(r),
            Err(TxnError::NotFound) => None,
            Err(e) => panic!("dump read failed: {e}"),
        });
        t.commit().unwrap();
    }
    out
}

/// Hand-craft a COMMITTED slot in thread 0's window whose record stream
/// is one valid record followed by `garbage_tail` torn bytes.
fn forge_torn_committed_slot(dev: &PmemDevice, ctx: &mut MemCtx) {
    let catalog = Catalog::open(dev.clone(), ctx).unwrap();
    let base = PAddr(catalog.log_window(0, ctx));
    assert_ne!(base.0, 0, "thread 0 window exists");
    let slots = dev.load_u64(base.add(W_SLOTS), ctx);
    let slot_bytes = dev.load_u64(base.add(W_SLOT_BYTES), ctx);
    let payload = logwindow::slot_payload(base, slots, slot_bytes, 0);
    // One valid VersionCopy record (replay skips it, so the forged
    // stream is inert beyond its accounting).
    let mut hdr = [0u8; REC_HDR as usize];
    hdr[0..8].copy_from_slice(&3u64.to_le_bytes()); // kind = VersionCopy
    hdr[16..24].copy_from_slice(&64u64.to_le_bytes()); // tuple (aligned, in-bounds)
                                                       // Record CRCs are seeded with the slot's owning TID (0x7700 below).
    let st = crc::update(0xFFFF_FFFF, &0x7700u64.to_le_bytes());
    let sum = crc::update(st, &hdr[..48]) ^ 0xFFFF_FFFF;
    hdr[48..56].copy_from_slice(&u64::from(sum).to_le_bytes());
    dev.write(payload, &hdr, ctx);
    // 20 garbage bytes after it: a torn second append.
    dev.write(payload.add(REC_HDR), &[0xEE; 20], ctx);
    let h = base.add(W_HDR); // slot 0 header
    dev.store_u64(h.add(S_TID), 0x7700, ctx);
    dev.store_u64(h.add(S_LEN), REC_HDR + 20, ctx);
    dev.store_u64(h.add(S_STATE), COMMITTED, ctx);
}

#[test]
fn injected_torn_commit_record_is_detected_and_recovered_around() {
    let cfg = EngineConfig::falcon().with_threads(1);
    let (dev, e) = fresh(&cfg);
    workload(&e, 20);
    drop(e);
    dev.crash();
    let mut ctx = MemCtx::new(0);
    forge_torn_committed_slot(&dev, &mut ctx);
    let (e2, rep) = recover(dev, cfg, &[kv_def()]).unwrap();
    assert_eq!(rep.torn_records, 1, "torn tail counted");
    assert_eq!(rep.corrupt_records, 0);
    assert_eq!(rep.windows_salvaged, 1);
    assert!(rep.committed_replayed >= 1, "forged slot still replayed");
    // The database is intact and writable.
    let d = dump(&e2, 20);
    assert!(d.iter().all(Option::is_some));
    assert_eq!(d[0].as_ref().unwrap()[8], 2);
    let mut w = e2.worker(0).unwrap();
    let mut t = e2.begin(&mut w, false);
    t.insert(TABLE, &row(500, 9)).unwrap();
    t.commit().unwrap();
}

#[test]
fn out_of_range_table_count_is_a_typed_error() {
    let cfg = EngineConfig::falcon().with_threads(1);
    let (dev, e) = fresh(&cfg);
    workload(&e, 5);
    drop(e);
    dev.crash();
    let mut ctx = MemCtx::new(0);
    // More tables than the format supports.
    dev.store_u64(PAddr(SB_NUM_TABLES), 17, &mut ctx);
    match recover(dev.clone(), cfg.clone(), &[kv_def()]) {
        Err(EngineError::Corrupt(msg)) => assert!(msg.contains("17"), "{msg}"),
        other => panic!("expected Corrupt, got {other:?}"),
    }
    // More tables than the caller supplied definitions for.
    dev.store_u64(PAddr(SB_NUM_TABLES), 2, &mut ctx);
    assert!(matches!(
        recover(dev, cfg, &[kv_def()]),
        Err(EngineError::Corrupt(_))
    ));
}

#[test]
fn corrupt_index_root_is_a_typed_error() {
    let cfg = EngineConfig::falcon().with_threads(1);
    let (dev, e) = fresh(&cfg);
    workload(&e, 5);
    drop(e);
    dev.crash();
    let mut ctx = MemCtx::new(0);
    let catalog = Catalog::open(dev.clone(), &mut ctx).unwrap();
    // Table 0's primary Dash root: point its directory word at an
    // unaligned garbage address.
    catalog.set_index_root(0, 0, 7, &mut ctx);
    assert!(recover(dev, cfg, &[kv_def()]).is_err());
}

#[test]
fn corrupt_window_base_is_a_typed_error() {
    let cfg = EngineConfig::falcon().with_threads(1);
    let (dev, e) = fresh(&cfg);
    workload(&e, 5);
    drop(e);
    dev.crash();
    let mut ctx = MemCtx::new(0);
    let catalog = Catalog::open(dev.clone(), &mut ctx).unwrap();
    catalog.set_log_window(0, dev.capacity() + 8, &mut ctx);
    assert!(matches!(
        recover(dev, cfg, &[kv_def()]),
        Err(EngineError::Corrupt(_))
    ));
}

#[test]
fn corrupt_watermark_root_is_a_typed_error() {
    let cfg = EngineConfig::outp().with_threads(1);
    let (dev, e) = fresh(&cfg);
    workload(&e, 5);
    drop(e);
    dev.crash();
    let mut ctx = MemCtx::new(0);
    let catalog = Catalog::open(dev.clone(), &mut ctx).unwrap();
    catalog.set_index_root(ENGINE_SLOT, 0, dev.capacity() - 8, &mut ctx);
    assert!(matches!(
        recover(dev, cfg, &[kv_def()]),
        Err(EngineError::Corrupt(_))
    ));
}

/// Recovery's heap pass (DRAM-index rebuild, out-of-place scan) on an
/// image whose first heap page's next-page word is forged out of range:
/// a typed error, not a wild device read.
#[test]
fn forged_heap_next_pointer_is_a_typed_error() {
    const PH_NEXT: u64 = 32; // heap page header: next-page word
    for cfg in [EngineConfig::falcon_dram_index(), EngineConfig::outp()] {
        let cfg = cfg.with_threads(1);
        let (dev, e) = fresh(&cfg);
        workload(&e, 5);
        drop(e);
        dev.crash();
        let mut ctx = MemCtx::new(0);
        let catalog = Catalog::open(dev.clone(), &mut ctx).unwrap();
        let page = catalog.heap_head(TABLE, 0, &mut ctx);
        assert_ne!(page, 0, "{}: thread 0 owns a heap page", cfg.name);
        dev.store_u64(PAddr(page + PH_NEXT), 1 << 40, &mut ctx);
        match recover(dev, cfg.clone(), &[kv_def()]) {
            Err(EngineError::Corrupt(msg)) => {
                assert!(msg.contains("heap"), "{}: {msg}", cfg.name);
            }
            other => panic!("{}: expected Corrupt, got {other:?}", cfg.name),
        }
    }
}

/// A thread-0 delete-list head forged out of range: the next insert,
/// which would reclaim through it, is a typed storage error, not a wild
/// device read. (Outp's recovery re-threads the list while recycling
/// garbage versions, so the head is forged on the live engine.)
#[test]
fn forged_delete_list_head_is_a_typed_error() {
    for cfg in [EngineConfig::falcon(), EngineConfig::outp()] {
        let cfg = cfg.with_threads(1);
        let (dev, e) = fresh(&cfg);
        workload(&e, 5);
        let mut ctx = MemCtx::new(0);
        let catalog = Catalog::open(dev, &mut ctx).unwrap();
        catalog.set_delete_head(TABLE, 0, 1 << 40, &mut ctx);
        let mut w = e.worker(0).unwrap();
        let mut t = e.begin(&mut w, false);
        match t.insert(TABLE, &row(100, 3)) {
            Err(TxnError::Storage(StorageError::CorruptHeap { what, .. })) => {
                assert!(what.contains("delete-list"), "{}: {what}", cfg.name);
            }
            other => panic!("{}: expected CorruptHeap, got {other:?}", cfg.name),
        }
    }
}

/// A superblock whose format version is not this build's: recovery
/// refuses the image with a typed error before reading anything else.
#[test]
fn unknown_format_version_is_a_typed_error() {
    let cfg = EngineConfig::falcon().with_threads(1);
    let (dev, e) = fresh(&cfg);
    workload(&e, 5);
    drop(e);
    dev.crash();
    let mut ctx = MemCtx::new(0);
    dev.store_u64(PAddr(SB_VERSION), 2, &mut ctx);
    assert!(matches!(
        recover(dev, cfg, &[kv_def()]),
        Err(EngineError::Storage(StorageError::BadVersion { found: 2 }))
    ));
}

#[test]
fn double_recovery_is_idempotent() {
    let cfg = EngineConfig::falcon().with_threads(1);
    let (dev, e) = fresh(&cfg);
    workload(&e, 30);
    drop(e);
    dev.crash();
    let (e1, _) = recover(dev.clone(), cfg.clone(), &[kv_def()]).unwrap();
    let d1 = dump(&e1, 30);
    drop(e1);
    dev.crash();
    let (e2, _) = recover(dev, cfg, &[kv_def()]).unwrap();
    assert_eq!(dump(&e2, 30), d1, "second replay changed nothing");
}

/// Crash *during* recovery at several points, recover again, and require
/// the final logical state to equal a single clean recovery's.
fn crash_during_recovery(cfg: EngineConfig, domain: PersistDomain) {
    const KEYS: u64 = 30;
    let (dev, e) = fresh_in(&cfg, domain);
    workload(&e, KEYS);
    // Leave one transaction in flight so recovery has undo work too.
    {
        let mut w = e.worker(0).unwrap();
        let mut t = e.begin(&mut w, false);
        t.insert(TABLE, &row(KEYS + 1, 3)).unwrap();
        std::mem::forget(t);
    }
    drop(e);
    dev.crash();

    // Reference: one clean recovery on a fork of the crashed images.
    let clean = dev.fork();
    let (e_ref, _) = recover(clean, cfg.clone(), &[kv_def()]).unwrap();
    let want = dump(&e_ref, KEYS + 2);
    drop(e_ref);

    // Calibrate: how many device events does recovery generate?
    let calib = dev.fork();
    calib.install_fault_plan(FaultPlan::calibrate());
    let (e_cal, _) = recover(calib.clone(), cfg.clone(), &[kv_def()]).unwrap();
    let events = calib.fault_events();
    drop(e_cal);
    assert!(events > 0, "recovery generates device events");

    for frac in 1..8u64 {
        let cut = events * frac / 8;
        let d = dev.fork();
        d.install_fault_plan(FaultPlan::cut(0xC0FFEE ^ frac, cut));
        // First recovery: the plan trips mid-flight (execution continues
        // on the live images; only the durable snapshot is frozen).
        let r1 = recover(d.clone(), cfg.clone(), &[kv_def()]).unwrap();
        assert!(d.fault_tripped(), "cut {cut}/{events} tripped");
        drop(r1);
        // Power-cut to the mid-recovery durable state, then recover.
        d.crash();
        let (e2, _) = recover(d, cfg.clone(), &[kv_def()]).unwrap();
        assert_eq!(
            dump(&e2, KEYS + 2),
            want,
            "{}: state after crash at recovery event {cut}/{events} diverged",
            cfg.name
        );
    }
}

#[test]
fn crash_during_recovery_matches_clean_recovery_eadr() {
    crash_during_recovery(EngineConfig::falcon().with_threads(1), PersistDomain::Eadr);
}

#[test]
fn crash_during_recovery_matches_clean_recovery_adr() {
    crash_during_recovery(EngineConfig::inp().with_threads(1), PersistDomain::Adr);
}
