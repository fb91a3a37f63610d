//! The engine: shared state, per-worker state, setup and loading.
//!
//! One [`Engine`] instance embodies one configuration point (Table 1 /
//! Figure 10): Falcon, one of its ablations, Inp, Outp, or ZenS. Worker
//! threads each own a [`Worker`] (virtual clock, small log window,
//! hot-tuple set, scratch read/write sets) and run transactions through
//! [`crate::txn::Txn`].

use pmem_sim::{MemCtx, PAddr, PmemDevice};

use falcon_storage::layout::{self, PAGE_SIZE};
use falcon_storage::tuple::TupleRef;
use falcon_storage::{Catalog, NvmAllocator};

use crate::checkpoint::{self, CkptStats};
use crate::config::{EngineConfig, LogPolicy, UpdateStrategy};
use crate::error::{EngineError, TxnError};
use crate::hot::HotSet;
use crate::logwindow::LogWindow;
use crate::meta::{self, DramMeta, MetaStore};
use crate::table::{Table, TableDef};
use crate::tid::{ActiveTable, TidGen};
use crate::tuplecache::{TupleCache, SHARD_CAPACITY};
use crate::txn::Txn;
use crate::versions::VersionHeap;

/// Flags-word bit: this slot is an obsolete old version (out-of-place;
/// a GC hint only — recovery decides by commit watermark, never by this
/// bit, because it is written before the watermark).
pub const FLAG_OBSOLETE: u64 = 2;

/// Flags-word bit: a committed-delete tombstone version (out-of-place
/// log-free deletes; the slot's data area holds the deleted key).
pub const FLAG_TOMBSTONE: u64 = 4;

/// Index-root slot reserved for engine state (commit watermark page).
const ENGINE_SLOT: usize = layout::INDEX_SLOTS - 1;

/// Ring capacity of the conventional NVM log ([`LogPolicy::NvmLog`]),
/// bytes per thread.
const NVM_LOG_BYTES: u64 = 4 << 20;

/// The OLTP engine.
pub struct Engine {
    pub(crate) cfg: EngineConfig,
    pub(crate) dev: PmemDevice,
    pub(crate) alloc: NvmAllocator,
    pub(crate) catalog: Catalog,
    pub(crate) tables: Vec<Table>,
    pub(crate) tid_gen: TidGen,
    pub(crate) active: ActiveTable,
    pub(crate) versions: VersionHeap,
    pub(crate) meta: MetaStore,
    pub(crate) tuple_cache: Option<TupleCache>,
    pub(crate) epoch: u64,
    /// Base of the per-thread commit-watermark array (out-of-place
    /// engines; one 64 B-strided word per thread).
    pub(crate) watermarks: PAddr,
    pub(crate) defs: Vec<TableDef>,
}

impl Engine {
    /// Create a fresh engine on a formatted device.
    pub fn create(
        dev: PmemDevice,
        cfg: EngineConfig,
        defs: &[TableDef],
    ) -> Result<Engine, EngineError> {
        cfg.validate().map_err(EngineError::Config)?;
        let mut ctx = MemCtx::new(0);
        layout::format(&dev)?;
        let catalog = Catalog::open(dev.clone(), &mut ctx)?;
        let alloc = NvmAllocator::new(dev.clone());
        let epoch = catalog.epoch(&mut ctx);

        // Watermark page: one word per thread, 64 B apart.
        let wm = alloc.alloc_page(&mut ctx)?;
        catalog.set_index_root(ENGINE_SLOT, 0, wm.0, &mut ctx);

        let mut tables = Vec::with_capacity(defs.len());
        for def in defs {
            tables.push(Table::create(
                &alloc, &catalog, def, cfg.index, epoch, &mut ctx,
            )?);
        }
        let cost = dev.config().cost.clone();
        // The formatted image must survive an immediate power cut: under
        // ADR the catalog/root writes above are still cache-resident, so
        // push them to media (mkfs-then-sync; charge-free, unmeasured).
        dev.quiesce();
        Ok(Engine {
            tid_gen: TidGen::new(catalog.ts_hint(&mut ctx)),
            active: ActiveTable::new(cfg.threads),
            versions: VersionHeap::new(cfg.threads, epoch, cost.clone()),
            meta: if cfg.tuple_cache {
                // ZenS: CC metadata lives in DRAM (Met-Cache).
                MetaStore::Dram(DramMeta::new(cost.clone()))
            } else {
                MetaStore::Nvm
            },
            tuple_cache: cfg
                .tuple_cache
                .then(|| TupleCache::new(SHARD_CAPACITY, cost)),
            epoch,
            watermarks: wm,
            defs: defs.to_vec(),
            tables,
            catalog,
            alloc,
            dev,
            cfg,
        })
    }

    /// The configuration this engine was built with.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// The crash epoch the engine is running in.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The underlying device.
    pub fn device(&self) -> &PmemDevice {
        &self.dev
    }

    /// Table handle by id.
    pub fn table(&self, id: u32) -> &Table {
        &self.tables[id as usize]
    }

    /// Number of tables.
    pub fn num_tables(&self) -> usize {
        self.tables.len()
    }

    /// The table definitions this engine was created with (needed again
    /// at recovery).
    pub fn table_defs(&self) -> &[TableDef] {
        &self.defs
    }

    /// The DRAM version heap (diagnostics: live-version counts).
    pub fn versions(&self) -> &VersionHeap {
        &self.versions
    }

    /// Whether this engine updates in place.
    pub fn in_place(&self) -> bool {
        self.cfg.update == UpdateStrategy::InPlace
    }

    pub(crate) fn watermark_addr(&self, thread: usize) -> PAddr {
        self.watermarks.add(thread as u64 * 64)
    }

    /// Create the per-thread worker state for `thread`. Call once per
    /// worker, before running transactions.
    pub fn worker(&self, thread: usize) -> Result<Worker, EngineError> {
        let mut ctx = MemCtx::new(thread);
        let window = if self.in_place() {
            let (slot_bytes, flush) = match self.cfg.log {
                LogPolicy::SmallWindow => {
                    (self.cfg.window_bytes / self.cfg.window_slots as u64, false)
                }
                LogPolicy::NvmLog => (NVM_LOG_BYTES / self.cfg.window_slots as u64, true),
            };
            let existing = self.catalog.log_window(thread, &mut ctx);
            let mut w = if existing != 0 {
                LogWindow::reopen(&self.alloc, PAddr(existing), flush, &mut ctx)
            } else {
                LogWindow::create(
                    &self.alloc,
                    &self.catalog,
                    thread,
                    self.cfg.window_slots,
                    slot_bytes,
                    flush,
                    &mut ctx,
                )
                .map_err(|e| match e {
                    TxnError::Storage(s) => EngineError::Storage(s),
                    other => EngineError::Config(other.to_string()),
                })?
            };
            w.set_spill_cap(self.cfg.ckpt_spill_cap);
            Some(w)
        } else {
            None
        };
        // Seed the checkpoint epoch from the persistent record so epochs
        // stay monotone across restarts (a corrupt or absent record
        // restarts at zero — the next publish overwrites both banks'
        // lineage anyway).
        let ckpt_epoch = if self.in_place() {
            match checkpoint::area_if_valid(&self.dev, self.watermarks)
                .map(|area| checkpoint::read_record(&self.dev, area, thread, &mut ctx))
            {
                Some(checkpoint::CkptRead::Valid { epoch, .. }) => epoch,
                _ => 0,
            }
        } else {
            0
        };
        Ok(Worker {
            thread,
            ctx,
            window,
            hot: HotSet::new(self.cfg.hot_capacity),
            outp_garbage: Vec::new(),
            rs: Vec::new(),
            ws: Vec::new(),
            ckpt_dirty: std::collections::HashSet::new(),
            ckpt_epoch,
            ckpt: CkptStats::default(),
            group_pending: 0,
            obs: falcon_obs::EngineStats::new(),
        })
    }

    /// Transactions committed on `w` since its last group fence. Zero
    /// unless the engine runs with `group_commit` enabled.
    pub fn group_pending(&self, w: &Worker) -> u64 {
        w.group_pending
    }

    /// Issue the batched commit fence for every transaction committed on
    /// `w` since the last fence (group commit). One `sfence` covers the
    /// whole batch: after it returns, every pending commit is ordered
    /// and the caller may acknowledge them. Returns the batch size
    /// (0 = nothing pending, no fence issued).
    pub fn group_fence(&self, w: &mut Worker) -> u64 {
        let batch = w.group_pending;
        if batch == 0 {
            return 0;
        }
        let prev = w.ctx.attr_phase(falcon_obs::Phase::GroupFence as usize);
        let t0 = w.ctx.clock;
        self.dev.sfence(&mut w.ctx);
        w.obs
            .phase_add(falcon_obs::Phase::GroupFence, w.ctx.clock - t0);
        w.ctx.attr_phase(prev);
        w.obs.group_fence_record(batch);
        w.group_pending = 0;
        batch
    }

    /// Force a fuzzy checkpoint on `w`'s log window (write back dirty
    /// lines, publish the epoch + spill mark, truncate the spill tail).
    /// Call between transactions; a no-op on out-of-place engines. Runs
    /// even when automatic checkpoint triggers are disabled — an
    /// explicit call is an explicit request.
    pub fn checkpoint(&self, w: &mut Worker) {
        checkpoint::run(self, w, true);
    }

    /// Snapshot `w`'s engine observability counters, folding in the
    /// log-window, hot-LRU, and version-heap counters the worker's
    /// sub-structures accumulated.
    pub fn collect_obs(&self, w: &Worker) -> falcon_obs::EngineStats {
        let mut s = w.obs.clone();
        if let Some(win) = &w.window {
            let o = win.obs_counts();
            s.log_appends = o.appends;
            s.log_append_bytes = o.append_bytes;
            s.log_wraps = o.wraps;
            s.log_overflow_spills = o.overflow_spills;
            s.log_spill_bytes = o.overflow_spill_bytes;
            s.log_full_stalls = o.full_stalls;
        }
        let (hits, misses, evictions) = w.hot.obs_counts();
        s.hot_hits = hits;
        s.hot_misses = misses;
        s.hot_evictions = evictions;
        let (allocs, frees) = self.versions.obs_counts(w.thread);
        s.version_allocs = allocs;
        s.version_frees = frees;
        s.ckpt_published = w.ckpt.published;
        s.ckpt_epoch = w.ckpt_epoch;
        s.ckpt_dirty_writebacks = w.ckpt.dirty_writebacks;
        s.ckpt_dirty_peak = w.ckpt.dirty_peak;
        s.ckpt_backpressure_stalls = w.ckpt.backpressure_stalls;
        s.spill_bytes_truncated = w.ckpt.spill_bytes_truncated;
        s.spill_truncations = w.ckpt.spill_truncations;
        s
    }

    /// Zero `w`'s engine observability counters (e.g. after warmup),
    /// including the sub-structure counters [`Engine::collect_obs`]
    /// folds in.
    pub fn obs_reset(&self, w: &mut Worker) {
        w.obs = falcon_obs::EngineStats::default();
        if let Some(win) = &mut w.window {
            win.obs_reset();
        }
        w.hot.obs_reset();
        self.versions.obs_reset(w.thread);
        // The epoch is a high-water mark, not a counter: keep it.
        w.ckpt = CkptStats::default();
    }

    /// Begin a transaction on `w`. `read_only` enables the non-blocking
    /// snapshot path under the MV algorithms.
    pub fn begin<'e, 'w>(&'e self, w: &'w mut Worker, read_only: bool) -> Txn<'e, 'w> {
        Txn::begin(self, w, read_only)
    }

    // ------------------------------------------------------------------
    // Bulk loading (setup phase; not part of any measurement).
    // ------------------------------------------------------------------

    /// Insert a row during initial table loading: no concurrency
    /// control, no logging, raw (cost-free) data writes. The index
    /// inserts still run through the normal structures so they are
    /// correctly populated.
    pub fn load_row(
        &self,
        table: u32,
        thread: usize,
        row: &[u8],
        ctx: &mut MemCtx,
    ) -> Result<TupleRef, EngineError> {
        let t = &self.tables[table as usize];
        assert_eq!(row.len(), t.tuple_size() as usize, "row must match schema");
        let slot = t.heap.alloc_slot(thread, 0, ctx)?;
        // Header: unlocked, ts 0, no flags, no versions — then the row.
        let mut buf = Vec::with_capacity(32 + row.len());
        buf.extend_from_slice(&meta::pack(self.epoch, false, 0).to_le_bytes());
        buf.extend_from_slice(&0u64.to_le_bytes());
        buf.extend_from_slice(&0u64.to_le_bytes());
        buf.extend_from_slice(&0u64.to_le_bytes());
        buf.extend_from_slice(row);
        self.dev.raw_write(slot.addr, &buf);
        let key = (t.primary_key)(&t.schema, row);
        t.primary.insert(key, slot.addr.0, ctx)?;
        if let (Some(sec), Some(kf)) = (&t.secondary, t.secondary_key) {
            sec.insert(kf(&t.schema, row), slot.addr.0, ctx)?;
        }
        Ok(slot)
    }

    // ------------------------------------------------------------------
    // Garbage collection (§5.4): run by worker threads themselves.
    // ------------------------------------------------------------------

    /// Opportunistic GC, called after commits: reclaims old versions
    /// (MVCC) and obsolete out-of-place slots once their TIDs fall below
    /// every active transaction.
    pub fn maybe_gc(&self, w: &mut Worker) {
        if self.cfg.cc.multi_version()
            && self.versions.queue_len(w.thread) > self.cfg.version_gc_threshold
        {
            let min = self.active.min_active();
            self.versions.gc(w.thread, min, &mut w.ctx);
        }
        if w.outp_garbage.len() > self.cfg.version_gc_threshold {
            let min = self.active.min_active();
            let mut keep = Vec::with_capacity(w.outp_garbage.len());
            for (table, slot, tid) in w.outp_garbage.drain(..) {
                if tid < min {
                    self.tables[table as usize].heap.free_slot(
                        w.thread,
                        TupleRef::new(PAddr(slot)),
                        tid,
                        &mut w.ctx,
                    );
                } else {
                    keep.push((table, slot, tid));
                }
            }
            w.outp_garbage = keep;
        }
    }

    /// Persist the timestamp hint (graceful shutdown).
    pub fn shutdown(&self, ctx: &mut MemCtx) {
        self.catalog.raise_ts_hint(self.tid_gen.current_ts(), ctx);
    }

    /// Heap bytes per additional worker-visible page (diagnostic).
    pub fn pages_used(&self, ctx: &mut MemCtx) -> u64 {
        self.alloc.pages_used(ctx)
    }
}

impl core::fmt::Debug for Engine {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Engine")
            .field("name", &self.cfg.name)
            .field("cc", &self.cfg.cc)
            .field("tables", &self.tables.len())
            .finish()
    }
}

/// Per-worker-thread state.
pub struct Worker {
    /// Logical thread id (also the TID tag).
    pub thread: usize,
    /// The worker's virtual clock / stats context.
    pub ctx: MemCtx,
    pub(crate) window: Option<LogWindow>,
    pub(crate) hot: HotSet,
    /// Obsolete out-of-place slots awaiting reclamation:
    /// `(table, slot addr, invalidating tid)`.
    pub(crate) outp_garbage: Vec<(u32, u64, u64)>,
    /// Read-set scratch (reused across transactions).
    pub(crate) rs: Vec<crate::txn::ReadEntry>,
    /// Write-set scratch.
    pub(crate) ws: Vec<crate::txn::TupleWrite>,
    /// Tuple cache lines whose selective flush was skipped (hot) and
    /// deferred to the next fuzzy checkpoint's write-back.
    pub(crate) ckpt_dirty: std::collections::HashSet<u64>,
    /// Latest published checkpoint epoch (seeded from the persistent
    /// record at worker creation).
    pub(crate) ckpt_epoch: u64,
    /// Checkpoint counters (see [`crate::checkpoint::CkptStats`]).
    pub(crate) ckpt: CkptStats,
    /// Commits whose fence was deferred to the next group fence
    /// (group-commit engines only; always 0 otherwise).
    pub(crate) group_pending: u64,
    /// Engine observability counters.
    pub obs: falcon_obs::EngineStats,
}

impl Worker {
    /// Reset the virtual clock and stats (e.g. after the warm-up phase).
    pub fn reset_clock(&mut self) {
        let t = self.ctx.thread_id;
        self.ctx = MemCtx::new(t);
    }

    /// This worker's checkpoint counters.
    pub fn ckpt_stats(&self) -> CkptStats {
        self.ckpt
    }

    /// Latest checkpoint epoch this worker published (or inherited from
    /// the persistent record at creation).
    pub fn ckpt_epoch(&self) -> u64 {
        self.ckpt_epoch
    }
}

impl core::fmt::Debug for Worker {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Worker")
            .field("thread", &self.thread)
            .finish()
    }
}

/// How large a device a workload needs, as a convenience for setup
/// code: `data_bytes` of tuples plus slack for indexes, logs, windows,
/// and the per-`(table, thread)` page dedication (each pair owns at
/// least one 2 MB page).
pub fn device_capacity_for(data_bytes: u64, threads: usize, tables: usize) -> u64 {
    let logs = threads as u64 * (24 << 20);
    let pages = (tables as u64 + 1) * threads as u64 * 2 * PAGE_SIZE;
    let slack = (data_bytes / 2).max(64 << 20);
    let total = layout::PAGE_ARENA + data_bytes + logs + pages + slack;
    total.div_ceil(PAGE_SIZE) * PAGE_SIZE
}
