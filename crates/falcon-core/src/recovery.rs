//! Recovery (§5.3).
//!
//! Falcon's path: open the catalog, bump the crash epoch (which lazily
//! clears every lock in the system), attach the NVM indexes (instant),
//! and replay the small log windows — `COMMITTED` slots re-apply their
//! redo records in TID order (idempotent), `UNCOMMITTED` slots have
//! their exec-time index inserts undone. The data touched is bounded by
//! the window size, not the database size: millisecond-scale recovery.
//!
//! The out-of-place / DRAM-index engines pay the scan the paper measures
//! for ZenS: every heap slot is visited to rebuild the DRAM index (and,
//! for Outp, to clean up uncommitted versions), so recovery time grows
//! with the tuple heap.

use std::collections::HashMap;

use pmem_sim::{MemCtx, PAddr, PersistDomain, PmemDevice};

use falcon_storage::tuple::{TupleRef, FLAG_DELETED, HDR_DATA};
use falcon_storage::{Catalog, NvmAllocator, StorageError, MAX_THREADS};

use crate::checkpoint::{self, CkptRead};
use crate::config::{CcAlgo, EngineConfig, IndexLocation, UpdateStrategy};
use crate::engine::{Engine, FLAG_OBSOLETE, FLAG_TOMBSTONE};
use crate::error::EngineError;
use crate::logwindow::{self, RedoKind};
use crate::meta::{self, DramMeta, MetaStore};
use crate::table::{Table, TableDef};
use crate::tid::{ActiveTable, TidGen};
use crate::tuplecache::{TupleCache, SHARD_CAPACITY};
use crate::versions::VersionHeap;

/// Index-root slot reserved for engine state (must match engine.rs).
const ENGINE_SLOT: usize = falcon_storage::layout::INDEX_SLOTS - 1;

/// What recovery did and how long (in virtual time) each step took.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Total virtual nanoseconds.
    pub total_ns: u64,
    /// Catalog + in-DRAM structure initialization.
    pub catalog_ns: u64,
    /// Index attach/repair (NVM) or rebuild scan (DRAM).
    pub index_ns: u64,
    /// Log-window replay.
    pub replay_ns: u64,
    /// Committed transactions replayed from windows.
    pub committed_replayed: usize,
    /// Uncommitted transactions rolled back from windows.
    pub uncommitted_discarded: usize,
    /// Heap slots visited (out-of-place / DRAM-index rebuild).
    pub tuples_scanned: u64,
    /// Redo records dropped because a crash tore them mid-append (the
    /// valid prefix of the stream was still replayed).
    pub torn_records: u64,
    /// Redo records dropped because their CRC or framing was damaged
    /// *behind* the commit point (media corruption, not a torn tail).
    pub corrupt_records: u64,
    /// Log windows that contained at least one torn or corrupt record
    /// and were recovered around rather than trusted wholesale.
    pub windows_salvaged: u64,
    /// Structural repairs the NVM indexes performed while attaching —
    /// e.g. mid-split B⁺-tree crash images rebuilt from the leaf chain.
    pub index_repairs: u64,
    /// Spill-region bytes the bounded tail scan walked (from the
    /// checkpoint mark to the durable tail — the O(active-window) part).
    pub spill_bytes_scanned: u64,
    /// Spill records the tail scan CRC-validated (markers included).
    pub spill_records_scanned: u64,
    /// Slot overflow extents found truncated behind a published
    /// checkpoint (counted, non-fatal: the data they described was
    /// written back before the epoch swung).
    pub spill_truncated_refs: u64,
    /// Spill bytes reclaimed by the post-replay tail reset.
    pub spill_bytes_truncated: u64,
    /// Highest published checkpoint epoch found across threads.
    pub ckpt_epoch: u64,
    /// Per-thread checkpoint records rejected by the CRC/epoch check;
    /// each one forced a full (mark 0) spill scan for its thread.
    pub ckpt_meta_corrupt: u64,
}

/// Recover an engine from a crashed device. `defs` must match the
/// definitions the database was created with (key extractors are code).
pub fn recover(
    dev: PmemDevice,
    cfg: EngineConfig,
    defs: &[TableDef],
) -> Result<(Engine, RecoveryReport), crate::error::EngineError> {
    let mut ctx = MemCtx::new(0);
    let mut report = RecoveryReport::default();

    // --- Step 0: catalog and DRAM structures --------------------------
    let catalog = Catalog::open(dev.clone(), &mut ctx)?;
    let epoch = catalog.bump_epoch(&mut ctx);
    if dev.config().domain == PersistDomain::Adr {
        // The new epoch is what invalidates stale locks; under ADR it
        // must reach media before replay publishes meta words that
        // reference it.
        dev.flush_range(PAddr(falcon_storage::layout::SB_EPOCH), 8, &mut ctx);
        dev.sfence(&mut ctx);
    }
    let alloc = NvmAllocator::new(dev.clone());
    let cost = dev.config().cost.clone();
    let watermarks = PAddr(catalog.index_root(ENGINE_SLOT, 0, &mut ctx));
    report.catalog_ns = ctx.clock;

    // --- Step 1: indexes ------------------------------------------------
    let num_tables = catalog.num_tables(&mut ctx);
    if num_tables as usize > falcon_storage::MAX_TABLES {
        return Err(EngineError::Corrupt(format!(
            "catalog claims {num_tables} tables (max {})",
            falcon_storage::MAX_TABLES
        )));
    }
    if num_tables as usize > defs.len() {
        return Err(EngineError::Corrupt(format!(
            "catalog claims {num_tables} tables but only {} definitions supplied",
            defs.len()
        )));
    }
    let mut tables = Vec::with_capacity(num_tables as usize);
    for (id, def) in defs.iter().enumerate().take(num_tables as usize) {
        tables.push(Table::open(
            &alloc, &catalog, def, cfg.index, epoch, id as u32, &mut ctx,
        )?);
    }
    let mut max_ts = catalog.ts_hint(&mut ctx);
    for t in &tables {
        report.index_repairs += t.primary.structural_repairs();
        if let Some(sec) = &t.secondary {
            report.index_repairs += sec.structural_repairs();
        }
    }
    report.index_ns = ctx.clock - report.catalog_ns;

    // --- Step 2: log replay / heap scan ---------------------------------
    let replay_start = ctx.clock;
    match cfg.update {
        UpdateStrategy::InPlace => {
            let ckpt_area = checkpoint::area_if_valid(&dev, watermarks);
            replay_windows(
                &dev,
                &catalog,
                &cfg,
                &tables,
                epoch,
                ckpt_area,
                &mut max_ts,
                &mut report,
                &mut ctx,
            )?;
            if cfg.index == IndexLocation::Dram {
                // DRAM indexes must be rebuilt from the heap: this is
                // what makes "Falcon (DRAM Index)" recovery slow.
                rebuild_dram_indexes(&tables, &mut report, &mut ctx)?;
            }
        }
        UpdateStrategy::OutOfPlace => {
            let span = MAX_THREADS as u64 * 64;
            if watermarks.0 == 0
                || !watermarks.0.is_multiple_of(8)
                || watermarks
                    .0
                    .checked_add(span)
                    .is_none_or(|end| end > dev.capacity())
            {
                return Err(EngineError::Corrupt(format!(
                    "engine watermark root {:#x} out of range",
                    watermarks.0
                )));
            }
            scan_rebuild_out_of_place(
                &dev,
                &tables,
                watermarks,
                epoch,
                &mut max_ts,
                &mut report,
                &mut ctx,
            )?;
        }
    }
    report.replay_ns = ctx.clock - replay_start;
    report.total_ns = ctx.clock;

    let engine = Engine {
        tid_gen: TidGen::new(max_ts),
        active: ActiveTable::new(cfg.threads),
        versions: VersionHeap::new(cfg.threads, epoch, cost.clone()),
        meta: if cfg.tuple_cache {
            MetaStore::Dram(DramMeta::new(cost.clone()))
        } else {
            MetaStore::Nvm
        },
        tuple_cache: cfg
            .tuple_cache
            .then(|| TupleCache::new(SHARD_CAPACITY, cost)),
        epoch,
        watermarks,
        defs: defs.to_vec(),
        tables,
        catalog,
        alloc,
        dev,
        cfg,
    };
    Ok((engine, report))
}

/// True iff `[tuple, tuple + HDR_DATA + off + len)` is a plausible
/// in-bounds tuple extent. Records that fail this came from a damaged
/// window (e.g. bit-rot that survived the CRC by luck) and are skipped
/// rather than dereferenced.
fn tuple_extent_ok(dev: &PmemDevice, tuple: u64, off: u64, len: u64) -> bool {
    tuple != 0
        && tuple.is_multiple_of(8)
        && off
            .checked_add(len)
            .and_then(|span| tuple.checked_add(HDR_DATA + span))
            .is_some_and(|end| end <= dev.capacity())
}

#[allow(clippy::too_many_arguments)]
fn replay_windows(
    dev: &PmemDevice,
    catalog: &Catalog,
    cfg: &EngineConfig,
    tables: &[Table],
    epoch: u64,
    ckpt_area: Option<PAddr>,
    max_ts: &mut u64,
    report: &mut RecoveryReport,
    ctx: &mut MemCtx,
) -> Result<(), EngineError> {
    let adr = dev.config().domain == PersistDomain::Adr;
    // Gather slots from every thread's window.
    let mut committed = Vec::new();
    let mut uncommitted = Vec::new();
    let mut window_bases = Vec::new();
    for t in 0..MAX_THREADS {
        let base = catalog.log_window(t, ctx);
        if base == 0 {
            continue;
        }
        window_bases.push(PAddr(base));
        let mut damaged = false;
        // The thread's checkpoint record bounds its spill scan: a valid
        // record starts the scan at its mark; a corrupt one (bit-rot)
        // falls back to a full scan from 0 — unbounded but safe.
        let mut mark = 0u64;
        if let Some(area) = ckpt_area {
            match checkpoint::read_record(dev, area, t, ctx) {
                CkptRead::None => {}
                CkptRead::Valid { epoch: ce, mark: m } => {
                    report.ckpt_epoch = report.ckpt_epoch.max(ce);
                    mark = m;
                }
                CkptRead::Corrupt => report.ckpt_meta_corrupt += 1,
            }
        }
        if let Some(scan) = logwindow::scan_spill(dev, PAddr(base), mark, ctx) {
            report.spill_bytes_scanned += scan.bytes;
            report.spill_records_scanned += scan.records;
            damaged |= scan.damaged;
        }
        for slot in logwindow::read_window(dev, PAddr(base), ctx)? {
            *max_ts = (*max_ts).max(TidGen::ts_of(slot.tid));
            damaged |= slot.damaged();
            report.torn_records += slot.torn_records;
            report.corrupt_records += slot.corrupt_records;
            report.spill_truncated_refs += slot.spill_truncated_refs;
            match slot.state {
                logwindow::COMMITTED => committed.push(slot),
                logwindow::UNCOMMITTED => uncommitted.push(slot),
                _ => {}
            }
        }
        if damaged {
            report.windows_salvaged += 1;
        }
    }
    // Replay committed transactions in TID order (idempotent; ordering
    // resolves write-write overlap between in-flight transactions).
    committed.sort_by_key(|s| s.tid);
    // A committed Delete must not re-free a tuple that a *later*
    // committed Insert re-allocated: the insert's alloc popped the slot
    // off the delete list before its txn could reach COMMITTED, so the
    // media list no longer holds it. Re-freeing would link the slot —
    // now carrying the re-inserted row — back into the list, and the
    // next list append would write a next-pointer straight through the
    // live row data.
    let mut reinserted: HashMap<u64, u64> = HashMap::new();
    for slot in &committed {
        for rec in &slot.records {
            if rec.kind == RedoKind::Insert {
                let t = reinserted.entry(rec.tuple).or_insert(0);
                *t = (*t).max(slot.tid);
            }
        }
    }
    for slot in &committed {
        for rec in &slot.records {
            if rec.table as usize >= tables.len()
                || !tuple_extent_ok(dev, rec.tuple, u64::from(rec.off), rec.data.len() as u64)
            {
                report.corrupt_records += 1;
                continue;
            }
            let tuple = TupleRef::new(PAddr(rec.tuple));
            let table = &tables[rec.table as usize];
            match rec.kind {
                RedoKind::Update => {
                    tuple.write_data(dev, u64::from(rec.off), &rec.data, ctx);
                    if adr {
                        tuple.flush_all(dev, u64::from(rec.off) + rec.data.len() as u64, ctx);
                    }
                }
                RedoKind::Insert => {
                    tuple.write_data(dev, 0, &rec.data, ctx);
                    tuple.set_deleted(dev, false, ctx);
                    tuple.set_version_ptr(dev, 0, ctx);
                    if adr {
                        tuple.flush_all(dev, rec.data.len() as u64, ctx);
                    }
                    let _ = table.primary.insert(rec.key, rec.tuple, ctx);
                    if let (Some(sec), Some(kf)) = (&table.secondary, table.secondary_key) {
                        let _ = sec.insert(kf(&table.schema, &rec.data), rec.tuple, ctx);
                    }
                }
                RedoKind::Delete => {
                    // Thread 0 adopts the orphaned slot; free_slot is
                    // idempotent (no-op if the apply already ran). Skip
                    // it entirely when a later committed insert re-uses
                    // the tuple (see `reinserted` above).
                    let reused = reinserted.get(&rec.tuple).is_some_and(|&t| t > slot.tid);
                    if !reused {
                        table.heap.free_slot(0, tuple, slot.tid, ctx);
                        if adr {
                            tuple.flush_all(dev, 16, ctx);
                        }
                    }
                    table.primary.remove(rec.key, ctx);
                }
                RedoKind::VersionCopy => {}
            }
            if rec.kind != RedoKind::Delete && rec.kind != RedoKind::VersionCopy {
                // Publish the write timestamp and clear locks, exactly
                // as the commit would have.
                match cfg.cc.base() {
                    CcAlgo::TwoPl => {
                        dev.store_u64(
                            tuple.addr.add(8),
                            meta::pack(epoch, false, slot.tid & meta::PAYLOAD),
                            ctx,
                        );
                        dev.store_u64(tuple.cc_addr(), meta::pack(epoch, false, 0), ctx);
                    }
                    _ => {
                        dev.store_u64(
                            tuple.cc_addr(),
                            meta::pack(epoch, false, slot.tid & meta::PAYLOAD),
                            ctx,
                        );
                    }
                }
                if adr {
                    dev.flush_range(tuple.addr, 16, ctx);
                }
            }
        }
        report.committed_replayed += 1;
    }
    // Undo the exec-time index inserts of uncommitted transactions.
    for slot in &uncommitted {
        for rec in &slot.records {
            if rec.kind != RedoKind::Insert {
                continue;
            }
            if rec.table as usize >= tables.len()
                || !tuple_extent_ok(dev, rec.tuple, 0, rec.data.len() as u64)
            {
                report.corrupt_records += 1;
                continue;
            }
            let table = &tables[rec.table as usize];
            if table.primary.get(rec.key, ctx) == Some(rec.tuple) {
                table.primary.remove(rec.key, ctx);
            }
            if let (Some(sec), Some(kf)) = (&table.secondary, table.secondary_key) {
                let sk = kf(&table.schema, &rec.data);
                if sec.get(sk, ctx) == Some(rec.tuple) {
                    sec.remove(sk, ctx);
                }
            }
            // The slot itself leaks until the next reuse cycle; marking
            // it deleted makes it reclaimable immediately.
            let tuple = TupleRef::new(PAddr(rec.tuple));
            tables[rec.table as usize].heap.free_slot(0, tuple, 0, ctx);
            if adr {
                tuple.flush_all(dev, 16, ctx);
            }
        }
        report.uncommitted_discarded += 1;
    }
    // Every slot has been replayed or discarded: free the windows so
    // the reopened workers start clean. Under ADR the replayed data must
    // be on media *before* any window flips to FREE — otherwise a crash
    // here could persist the FREE and lose the committed effects it
    // stood for.
    if adr {
        dev.sfence(ctx);
    }
    for base in window_bases {
        logwindow::clear_window(dev, base, ctx);
        // Every slot was replayed or discarded, so the whole spill tail
        // is dead: reset it. This is also what keeps a checkpoint-less
        // configuration's tail from growing across restarts.
        report.spill_bytes_truncated += logwindow::reset_spill_tail(dev, base, ctx);
    }
    Ok(())
}

/// Rebuild volatile DRAM indexes by scanning every heap slot.
fn rebuild_dram_indexes(
    tables: &[Table],
    report: &mut RecoveryReport,
    ctx: &mut MemCtx,
) -> Result<(), EngineError> {
    for table in tables {
        let dev = table.heap.device().clone();
        let mut entries: Vec<(u64, u64, u64)> = Vec::new(); // (key, addr, sec)
        let scanned = table.heap.scan(ctx, |tuple, ctx| {
            report.tuples_scanned += 1;
            let flags = tuple.flags(&dev, ctx);
            if flags & (FLAG_DELETED | FLAG_OBSOLETE) != 0 {
                return;
            }
            let mut row = vec![0u8; table.schema.tuple_size() as usize];
            tuple.read_data(&dev, 0, &mut row, ctx);
            let key = (table.primary_key)(&table.schema, &row);
            let sec = table
                .secondary_key
                .map(|kf| kf(&table.schema, &row))
                .unwrap_or(0);
            entries.push((key, tuple.addr.0, sec));
        });
        scanned.map_err(heap_corrupt)?;
        for (key, addr, sec) in entries {
            let _ = table.primary.insert(key, addr, ctx);
            if let Some(s) = &table.secondary {
                let _ = s.insert(sec, addr, ctx);
            }
        }
    }
    Ok(())
}

/// A heap walk that hit a forged page word: the image is corrupt.
fn heap_corrupt(e: StorageError) -> EngineError {
    EngineError::Corrupt(format!("heap scan: {e}"))
}

/// The ZenS/Outp recovery scan: find the latest committed version of
/// every key, rebuild (or repair) indexes, recycle garbage.
///
/// A slot's commit TID lives in its flags word (bits 8+); a slot is
/// committed iff that TID is at or below its thread's commit watermark
/// (or zero: bulk-loaded). The `FLAG_OBSOLETE` hint is deliberately
/// ignored — it is written before the watermark, so only the
/// latest-committed-version computation is trustworthy. A committed
/// tombstone version kills its key.
fn scan_rebuild_out_of_place(
    dev: &PmemDevice,
    tables: &[Table],
    watermarks: PAddr,
    epoch: u64,
    max_ts: &mut u64,
    report: &mut RecoveryReport,
    ctx: &mut MemCtx,
) -> Result<(), EngineError> {
    // Per-thread commit watermarks bound which TIDs committed.
    let mut wm = [0u64; 256];
    for (t, w) in wm.iter_mut().enumerate().take(MAX_THREADS) {
        *w = dev.load_u64(watermarks.add(t as u64 * 64), ctx);
        *max_ts = (*max_ts).max(TidGen::ts_of(*w));
    }
    for table in tables {
        // key -> (tid, addr, sec_key, tombstone) of the latest
        // committed version.
        let mut latest: HashMap<u64, (u64, u64, u64, bool)> = HashMap::new();
        let mut garbage: Vec<u64> = Vec::new();
        let scanned = table.heap.scan(ctx, |tuple, ctx| {
            report.tuples_scanned += 1;
            let flags = tuple.flags(dev, ctx);
            if flags & FLAG_DELETED != 0 {
                return; // Already on a delete list.
            }
            let tid = flags >> 8;
            let committed = tid == 0 || tid <= wm[TidGen::thread_of(tid)];
            if !committed {
                garbage.push(tuple.addr.0);
                return;
            }
            let tombstone = flags & FLAG_TOMBSTONE != 0;
            let (key, sec) = if tombstone {
                // Tombstones record the deleted key in their data area.
                let mut k = [0u8; 8];
                tuple.read_data(dev, 0, &mut k, ctx);
                (u64::from_le_bytes(k), 0)
            } else {
                let mut row = vec![0u8; table.schema.tuple_size() as usize];
                tuple.read_data(dev, 0, &mut row, ctx);
                (
                    (table.primary_key)(&table.schema, &row),
                    table
                        .secondary_key
                        .map(|kf| kf(&table.schema, &row))
                        .unwrap_or(0),
                )
            };
            let e = latest
                .entry(key)
                .or_insert((tid, tuple.addr.0, sec, tombstone));
            if (tid, tuple.addr.0) != (e.0, e.1) {
                if tid >= e.0 {
                    garbage.push(e.1);
                    *e = (tid, tuple.addr.0, sec, tombstone);
                } else {
                    garbage.push(tuple.addr.0);
                }
            }
        });
        scanned.map_err(heap_corrupt)?;
        // Point the indexes at the winners (repairing NVM indexes whose
        // update raced the crash; rebuilding DRAM indexes from empty),
        // and kill keys whose winner is a tombstone.
        for (key, (_tid, addr, sec, tombstone)) in &latest {
            if *tombstone {
                if table.primary.get(*key, ctx).is_some() {
                    table.primary.remove(*key, ctx);
                }
                garbage.push(*addr);
                continue;
            }
            match table.primary.get(*key, ctx) {
                Some(cur) if cur == *addr => {}
                Some(_) => {
                    table.primary.update(*key, *addr, ctx);
                }
                None => {
                    let _ = table.primary.insert(*key, *addr, ctx);
                }
            }
            if let Some(s) = &table.secondary {
                match s.get(*sec, ctx) {
                    Some(cur) if cur == *addr => {}
                    Some(_) => {
                        s.update(*sec, *addr, ctx);
                    }
                    None => {
                        let _ = s.insert(*sec, *addr, ctx);
                    }
                }
            }
        }
        // Remove index entries whose key has no committed winner (an
        // uncommitted insert caught mid-flight in an NVM index), then
        // recycle the garbage slots.
        for addr in garbage {
            let tuple = TupleRef::new(PAddr(addr));
            let mut row = vec![0u8; table.schema.tuple_size() as usize];
            tuple.read_data(dev, 0, &mut row, ctx);
            let key = (table.primary_key)(&table.schema, &row);
            match latest.get(&key) {
                Some(win) if !win.3 => {}
                _ => {
                    if table.primary.get(key, ctx) == Some(addr) {
                        table.primary.remove(key, ctx);
                    }
                }
            }
            table.heap.free_slot(0, tuple, 0, ctx);
        }
    }
    let _ = epoch;
    Ok(())
}
