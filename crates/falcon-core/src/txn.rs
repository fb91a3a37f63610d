//! Transactions: concurrency control, logging, and the commit protocols.
//!
//! The in-place commit path is Algorithm 1 of the paper: stamp the
//! write-set `COMMITTED` in the log window, apply the updates in place
//! releasing locks as they go, `sfence`, then run the *selective flush*
//! (hinted flush + hot-tuple tracking). The out-of-place path is the
//! log-free Zen design: write complete new tuple versions, bump the
//! per-thread commit watermark, repoint the index.
//!
//! Concurrency control follows §5.2.1:
//! * **2PL** — reader counts + writer bit in the metadata word, CAS
//!   acquisition, no-wait deadlock avoidance.
//! * **TO** — `write_ts` (+lock bit) in word 0, `read_ts` in word 1;
//!   no-wait on order violations.
//! * **OCC** — three phases; word 0 is the version; validation locks the
//!   write set in address order and re-checks the read set.
//! * **MV2PL / MVTO / MVOCC** — the same, plus DRAM version chains so
//!   read-only transactions read a snapshot without blocking.

use std::mem;

use pmem_sim::trace::Event;
use pmem_sim::PAddr;

use falcon_storage::tuple::TupleRef;

use crate::config::{CcAlgo, FlushPolicy, LogPolicy, UpdateStrategy};
use crate::engine::{Engine, Worker, FLAG_OBSOLETE, FLAG_TOMBSTONE};
use crate::error::TxnError;
use crate::logwindow::{AppendMark, RedoKind, RedoRecord};
use crate::meta::{self, MetaStore};
use falcon_obs::Phase;

/// Fixed CPU cost charged per operation (virtual ns), so memory
/// traffic is not 100 % of runtime.
const CPU_OP_NS: u64 = 150;

/// Fixed CPU cost charged at transaction begin and again at commit
/// (virtual ns).
const CPU_TXN_NS: u64 = 400;

/// Maximum tracked dirty cache lines per worker before the hinted
/// flush stops deferring and writes through immediately.
const CKPT_DIRTY_CAP: usize = 1 << 16;

/// A read-set entry.
#[derive(Debug, Clone, Copy)]
pub struct ReadEntry {
    pub(crate) tuple: TupleRef,
    /// Metadata word observed at read time (OCC validation).
    pub(crate) observed: u64,
    /// Whether a 2PL read lock is held.
    pub(crate) read_locked: bool,
}

/// A write-set entry: all pending changes to one tuple.
#[derive(Debug, Clone)]
pub struct TupleWrite {
    pub(crate) kind: RedoKind,
    pub(crate) table: u32,
    pub(crate) tuple: TupleRef,
    pub(crate) key: u64,
    pub(crate) sec_key: Option<u64>,
    /// Field updates `(offset, bytes)`; for inserts, one op with the
    /// whole row.
    pub(crate) ops: Vec<(u32, Vec<u8>)>,
    /// Whether the tuple's write lock is held.
    pub(crate) locked: bool,
    /// The write-timestamp word observed when the write intent was
    /// established (source of a version's `begin_ts`).
    pub(crate) observed: u64,
    /// Old row image (captured for MV version creation and out-of-place
    /// rewrites).
    pub(crate) old_data: Option<Vec<u8>>,
}

/// Pack `(addr, row)` into a tuple-cache value.
fn cache_pack(addr: u64, row: &[u8]) -> Vec<u8> {
    let mut v = Vec::with_capacity(8 + row.len());
    v.extend_from_slice(&addr.to_le_bytes());
    v.extend_from_slice(row);
    v
}

fn cache_unpack(buf: &[u8]) -> (u64, &[u8]) {
    let addr = u64::from_le_bytes(buf[0..8].try_into().expect("cache entry"));
    (addr, &buf[8..])
}

/// A running transaction.
pub struct Txn<'e, 'w> {
    e: &'e Engine,
    w: &'w mut Worker,
    tid: u64,
    read_only: bool,
    finished: bool,
}

impl<'e, 'w> Txn<'e, 'w> {
    pub(crate) fn begin(e: &'e Engine, w: &'w mut Worker, read_only: bool) -> Txn<'e, 'w> {
        let tid = e.tid_gen.next(w.thread);
        e.active.begin(w.thread, tid);
        w.ctx.advance(CPU_TXN_NS);
        w.rs.clear();
        w.ws.clear();
        e.dev.trace_emit(Event::TxnBegin {
            thread: w.ctx.thread_id,
            tid,
        });
        if !read_only && e.in_place() {
            let window = w.window.as_mut().expect("in-place engines have windows");
            window.begin_txn(tid, &mut w.ctx);
        }
        Txn {
            e,
            w,
            tid,
            read_only,
            finished: false,
        }
    }

    /// This transaction's TID.
    pub fn tid(&self) -> u64 {
        self.tid
    }

    /// The engine this transaction runs on (workloads use it for
    /// index-only scans).
    pub fn engine(&self) -> &'e Engine {
        self.e
    }

    /// The worker's memory context (for charging index-only scans run
    /// outside the tuple read protocol).
    pub fn ctx(&mut self) -> &mut pmem_sim::MemCtx {
        &mut self.w.ctx
    }

    /// Whether this transaction runs on the MV snapshot path.
    fn snapshot_reader(&self) -> bool {
        self.read_only && self.e.cfg.cc.multi_version()
    }

    /// Which metadata word holds the write timestamp for the current
    /// algorithm (2PL keeps locks in word 0 and `write_ts` in word 1).
    fn wts_word(&self) -> usize {
        match self.e.cfg.cc.base() {
            CcAlgo::TwoPl => 1,
            _ => 0,
        }
    }

    #[inline]
    fn meta(&self) -> &'e MetaStore {
        &self.e.meta
    }

    // ------------------------------------------------------------------
    // Key resolution.
    // ------------------------------------------------------------------

    fn resolve(&mut self, table: u32, key: u64) -> Result<TupleRef, TxnError> {
        // Pending inserts are visible to the transaction itself.
        for tw in &self.w.ws {
            if tw.table == table && tw.key == key && tw.kind == RedoKind::Insert {
                return Ok(tw.tuple);
            }
        }
        let t = self.e.table(table);
        let t0 = self.w.ctx.clock;
        let ap = self.w.ctx.attr_phase(Phase::IndexLookup as usize);
        let found = t.primary.get(key, &mut self.w.ctx);
        let dt = self.w.ctx.clock - t0;
        self.w.obs.phase_add(Phase::IndexLookup, dt);
        self.w.ctx.attr_phase(ap);
        match found {
            Some(addr) => Ok(TupleRef::new(PAddr(addr))),
            None => Err(TxnError::NotFound),
        }
    }

    fn ws_index(&self, tuple: TupleRef) -> Option<usize> {
        self.w.ws.iter().position(|tw| tw.tuple == tuple)
    }

    // ------------------------------------------------------------------
    // Reads.
    // ------------------------------------------------------------------

    /// Read a whole row by key.
    pub fn read(&mut self, table: u32, key: u64) -> Result<Vec<u8>, TxnError> {
        let size = self.e.table(table).tuple_size() as usize;
        self.read_at(table, key, 0, size as u32)
    }

    /// Read `len` bytes at data offset `off` of the row at `key`.
    pub fn read_at(
        &mut self,
        table: u32,
        key: u64,
        off: u32,
        len: u32,
    ) -> Result<Vec<u8>, TxnError> {
        self.w.ctx.advance(CPU_OP_NS);

        // ZenS: probe the DRAM tuple cache first.
        if let Some(cache) = &self.e.tuple_cache {
            if let Some(buf) = cache.get(table, key, &mut self.w.ctx) {
                let (addr, row) = cache_unpack(&buf);
                let tuple = TupleRef::new(PAddr(addr));
                let mut out = row[off as usize..(off + len) as usize].to_vec();
                // CC protocol still applies (metadata is in the
                // Met-Cache, so this costs DRAM, not NVM).
                if let Some(i) = self.ws_index(tuple) {
                    overlay(&mut out, off, &self.w.ws[i].ops);
                    return Ok(out);
                }
                self.cc_read_meta_only(tuple)?;
                return Ok(out);
            }
        }

        let tuple = self.resolve(table, key)?;
        if let Some(i) = self.ws_index(tuple) {
            // Own write: read current bytes without CC, overlay pending
            // ops (for own inserts the committed bytes are not yet
            // written, so build from the pending row instead).
            let tw = &self.w.ws[i];
            let mut out = if tw.kind == RedoKind::Insert {
                let row = &tw.ops[0].1;
                row[off as usize..(off + len) as usize].to_vec()
            } else {
                let mut buf = vec![0u8; len as usize];
                tuple.read_data(&self.e.dev, u64::from(off), &mut buf, &mut self.w.ctx);
                buf
            };
            overlay(&mut out, off, &self.w.ws[i].ops);
            return Ok(out);
        }

        let row = if self.snapshot_reader() {
            self.snap_read(tuple, off, len)?
        } else {
            self.cc_read(tuple, off, len)?
        };

        // Fill the ZenS cache on miss (with the full row when we have
        // it; partial reads skip the fill). Fill-if-absent: a plain put
        // could overwrite a concurrent writer's newer entry with this
        // (already stale) snapshot.
        if let Some(cache) = &self.e.tuple_cache {
            if off == 0 && len == self.e.table(table).tuple_size() {
                cache.fill(table, key, &cache_pack(tuple.addr.0, &row), &mut self.w.ctx);
            }
        }
        Ok(row)
    }

    /// Ordered scan over `[lo, hi]` of a BTree-indexed table; `cb`
    /// returns `false` to stop early.
    pub fn scan(
        &mut self,
        table: u32,
        lo: u64,
        hi: u64,
        mut cb: impl FnMut(u64, &[u8]) -> bool,
    ) -> Result<(), TxnError> {
        self.w.ctx.advance(CPU_OP_NS);
        let t = self.e.table(table);
        let mut pairs: Vec<(u64, u64)> = Vec::new();
        let t0 = self.w.ctx.clock;
        let ap = self.w.ctx.attr_phase(Phase::IndexLookup as usize);
        let scanned = t.primary.scan(lo, hi, &mut self.w.ctx, &mut |k, v| {
            pairs.push((k, v));
            true
        });
        let dt = self.w.ctx.clock - t0;
        self.w.obs.phase_add(Phase::IndexLookup, dt);
        self.w.ctx.attr_phase(ap);
        scanned?;
        let size = t.tuple_size();
        for (k, addr) in pairs {
            self.w.ctx.advance(CPU_OP_NS);
            let tuple = TupleRef::new(PAddr(addr));
            let row = if let Some(i) = self.ws_index(tuple) {
                let tw = &self.w.ws[i];
                let mut out = if tw.kind == RedoKind::Insert {
                    tw.ops[0].1.clone()
                } else {
                    let mut buf = vec![0u8; size as usize];
                    tuple.read_data(&self.e.dev, 0, &mut buf, &mut self.w.ctx);
                    buf
                };
                overlay(&mut out, 0, &self.w.ws[i].ops);
                out
            } else {
                let r = if self.snapshot_reader() {
                    self.snap_read(tuple, 0, size)
                } else {
                    self.cc_read(tuple, 0, size)
                };
                match r {
                    Ok(row) => row,
                    // Deleted between index read and tuple read: skip.
                    Err(TxnError::NotFound) => continue,
                    Err(e) => return Err(e),
                }
            };
            if !cb(k, &row) {
                break;
            }
        }
        Ok(())
    }

    /// CC read protocol returning `len` bytes at `off`.
    fn cc_read(&mut self, tuple: TupleRef, off: u32, len: u32) -> Result<Vec<u8>, TxnError> {
        self.cc_read_meta_only(tuple)?;
        let mut buf = vec![0u8; len as usize];
        tuple.read_data(&self.e.dev, u64::from(off), &mut buf, &mut self.w.ctx);
        // Re-check: the data must not have changed underneath us (TO /
        // OCC); for 2PL the read lock already protects it.
        if self.e.cfg.cc.base() != CcAlgo::TwoPl {
            let entry = self.w.rs.last().expect("pushed by cc_read_meta_only");
            let cur = self.meta().load(&self.e.dev, tuple, 0, &mut self.w.ctx);
            if cur != entry.observed {
                return Err(TxnError::Conflict);
            }
        }
        Ok(buf)
    }

    /// Run the CC read protocol on metadata only (data already obtained,
    /// e.g. from the tuple cache).
    fn cc_read_meta_only(&mut self, tuple: TupleRef) -> Result<(), TxnError> {
        let t0 = self.w.ctx.clock;
        let ap = self.w.ctx.attr_phase(Phase::CcAcquire as usize);
        let r = self.cc_read_meta_only_inner(tuple);
        let dt = self.w.ctx.clock - t0;
        self.w.obs.phase_add(Phase::CcAcquire, dt);
        self.w.ctx.attr_phase(ap);
        r
    }

    fn cc_read_meta_only_inner(&mut self, tuple: TupleRef) -> Result<(), TxnError> {
        let epoch = self.e.epoch;
        let dev = &self.e.dev;
        match self.e.cfg.cc.base() {
            CcAlgo::TwoPl => {
                // Re-reads keep the single lock already held (a second
                // acquisition would make the upgrade path see two
                // readers and self-conflict).
                if self.w.rs.iter().any(|r| r.tuple == tuple && r.read_locked) {
                    if tuple.is_deleted(&self.e.dev, &mut self.w.ctx) {
                        return Err(TxnError::NotFound);
                    }
                    return Ok(());
                }
                // Acquire a read lock (no-wait).
                loop {
                    let w0 = self.meta().load(dev, tuple, 0, &mut self.w.ctx);
                    if meta::is_locked(w0, epoch) {
                        return Err(TxnError::Conflict);
                    }
                    let readers = meta::counter_payload(w0, epoch);
                    let new = meta::pack(epoch, false, readers + 1);
                    if self
                        .meta()
                        .cas(dev, tuple, 0, w0, new, &mut self.w.ctx)
                        .is_ok()
                    {
                        break;
                    }
                }
                self.w.rs.push(ReadEntry {
                    tuple,
                    observed: 0,
                    read_locked: true,
                });
            }
            CcAlgo::To => {
                let w0 = self.meta().load(dev, tuple, 0, &mut self.w.ctx);
                if meta::is_locked(w0, epoch) || meta::ts_payload(w0) > self.tid {
                    return Err(TxnError::Conflict);
                }
                // Raise read_ts to our TID.
                loop {
                    let r = self.meta().load(dev, tuple, 1, &mut self.w.ctx);
                    if meta::ts_payload(r) >= self.tid {
                        break;
                    }
                    let new = meta::pack(epoch, false, self.tid);
                    if self
                        .meta()
                        .cas(dev, tuple, 1, r, new, &mut self.w.ctx)
                        .is_ok()
                    {
                        break;
                    }
                }
                self.w.rs.push(ReadEntry {
                    tuple,
                    observed: w0,
                    read_locked: false,
                });
            }
            CcAlgo::Occ => {
                let w0 = self.meta().load(dev, tuple, 0, &mut self.w.ctx);
                if meta::is_locked(w0, epoch) {
                    return Err(TxnError::Conflict);
                }
                self.w.rs.push(ReadEntry {
                    tuple,
                    observed: w0,
                    read_locked: false,
                });
            }
            _ => unreachable!("base() never returns an MV algorithm"),
        }
        if tuple.is_deleted(dev, &mut self.w.ctx) {
            return Err(TxnError::NotFound);
        }
        Ok(())
    }

    /// MV snapshot read (Figure 6): latest version with
    /// `begin_ts <= tid`, without blocking.
    fn snap_read(&mut self, tuple: TupleRef, off: u32, len: u32) -> Result<Vec<u8>, TxnError> {
        let dev = &self.e.dev;
        let epoch = self.e.epoch;
        let w = self.wts_word();
        match self.e.cfg.update {
            UpdateStrategy::InPlace => loop {
                // The version this snapshot needs may still be *the
                // tuple itself* while a writer is mid-commit: the chain
                // only gains it after the writer links its old-version
                // copy. So under a held lock we must retry, not walk the
                // chain — and the post-read consistency check must also
                // re-check the lock, or a torn in-place write could slip
                // through with an unchanged timestamp.
                let wts0 = meta::ts_payload(self.meta().load(dev, tuple, w, &mut self.w.ctx));
                let lock0 = self.meta().load(dev, tuple, 0, &mut self.w.ctx);
                if meta::is_locked(lock0, epoch) {
                    std::hint::spin_loop();
                    continue;
                }
                if wts0 > self.tid {
                    break; // The displaced version is already chained.
                }
                let mut buf = vec![0u8; len as usize];
                tuple.read_data(dev, u64::from(off), &mut buf, &mut self.w.ctx);
                let wts1 = meta::ts_payload(self.meta().load(dev, tuple, w, &mut self.w.ctx));
                let lock1 = self.meta().load(dev, tuple, 0, &mut self.w.ctx);
                if wts1 == wts0 && !meta::is_locked(lock1, epoch) {
                    if tuple.is_deleted(dev, &mut self.w.ctx) {
                        return Err(TxnError::NotFound);
                    }
                    return Ok(buf);
                }
                // Raced with a writer: retry.
            },
            UpdateStrategy::OutOfPlace => {
                // Version slots are immutable once published; a held
                // lock on the old slot does not change its bytes.
                let wts0 = tuple.flags(dev, &mut self.w.ctx) >> 8;
                if wts0 <= self.tid {
                    if tuple.is_deleted(dev, &mut self.w.ctx) {
                        return Err(TxnError::NotFound);
                    }
                    let mut buf = vec![0u8; len as usize];
                    tuple.read_data(dev, u64::from(off), &mut buf, &mut self.w.ctx);
                    return Ok(buf);
                }
                // Too new for this snapshot: walk the chain below.
            }
        }
        match self.e.cfg.update {
            UpdateStrategy::InPlace => {
                // DRAM version chain.
                self.w.obs.chain_walk_inc();
                let mut vref = tuple.version_ptr(dev, &mut self.w.ctx);
                while let Some(v) = self.e.versions.get(vref, &mut self.w.ctx) {
                    self.w.obs.chain_step_inc();
                    if v.begin_ts <= self.tid {
                        let s = off as usize..(off + len) as usize;
                        return Ok(v.data[s].to_vec());
                    }
                    vref = v.prev;
                }
                Err(TxnError::NotFound)
            }
            UpdateStrategy::OutOfPlace => {
                // NVM old-slot chain; version TIDs live in the flags
                // word (bits 8+), uniformly across CC algorithms.
                self.w.obs.chain_walk_inc();
                let mut cur = tuple.version_ptr(dev, &mut self.w.ctx);
                while cur != 0 {
                    self.w.obs.chain_step_inc();
                    let old = TupleRef::new(PAddr(cur));
                    let flags = old.flags(dev, &mut self.w.ctx);
                    let ots = flags >> 8;
                    if ots <= self.tid {
                        if flags & FLAG_TOMBSTONE != 0 {
                            return Err(TxnError::NotFound);
                        }
                        let mut buf = vec![0u8; len as usize];
                        old.read_data(dev, u64::from(off), &mut buf, &mut self.w.ctx);
                        return Ok(buf);
                    }
                    cur = old.version_ptr(dev, &mut self.w.ctx);
                }
                Err(TxnError::NotFound)
            }
        }
    }

    // ------------------------------------------------------------------
    // Writes.
    // ------------------------------------------------------------------

    /// Acquire a write intent on `tuple` per the CC algorithm; returns
    /// the observed write-timestamp word.
    fn cc_write_lock(&mut self, tuple: TupleRef) -> Result<(u64, bool), TxnError> {
        let t0 = self.w.ctx.clock;
        let ap = self.w.ctx.attr_phase(Phase::CcAcquire as usize);
        let r = self.cc_write_lock_inner(tuple);
        let dt = self.w.ctx.clock - t0;
        self.w.obs.phase_add(Phase::CcAcquire, dt);
        self.w.ctx.attr_phase(ap);
        r
    }

    fn cc_write_lock_inner(&mut self, tuple: TupleRef) -> Result<(u64, bool), TxnError> {
        let epoch = self.e.epoch;
        let dev = &self.e.dev;
        match self.e.cfg.cc.base() {
            CcAlgo::TwoPl => {
                let w0 = self.meta().load(dev, tuple, 0, &mut self.w.ctx);
                if meta::is_locked(w0, epoch) {
                    return Err(TxnError::Conflict);
                }
                let readers = meta::counter_payload(w0, epoch);
                let own_read = self
                    .w
                    .rs
                    .iter()
                    .position(|r| r.tuple == tuple && r.read_locked);
                let expected_readers = if own_read.is_some() { 1 } else { 0 };
                if readers != expected_readers {
                    return Err(TxnError::Conflict);
                }
                let new = meta::pack(epoch, true, self.tid & meta::PAYLOAD);
                if self
                    .meta()
                    .cas(dev, tuple, 0, w0, new, &mut self.w.ctx)
                    .is_err()
                {
                    return Err(TxnError::Conflict);
                }
                if let Some(i) = own_read {
                    // The read lock was consumed by the upgrade.
                    self.w.rs[i].read_locked = false;
                }
                let wts = self.meta().load(dev, tuple, 1, &mut self.w.ctx);
                Ok((wts, true))
            }
            CcAlgo::To => {
                let w0 = self.meta().load(dev, tuple, 0, &mut self.w.ctx);
                if meta::is_locked(w0, epoch) || meta::ts_payload(w0) > self.tid {
                    return Err(TxnError::Conflict);
                }
                let rts = self.meta().load(dev, tuple, 1, &mut self.w.ctx);
                if meta::ts_payload(rts) > self.tid {
                    return Err(TxnError::Conflict);
                }
                let new = meta::pack(epoch, true, meta::ts_payload(w0));
                if self
                    .meta()
                    .cas(dev, tuple, 0, w0, new, &mut self.w.ctx)
                    .is_err()
                {
                    return Err(TxnError::Conflict);
                }
                Ok((w0, true))
            }
            CcAlgo::Occ => {
                // Optimistic: no lock until validation.
                let w0 = self.meta().load(dev, tuple, 0, &mut self.w.ctx);
                if meta::is_locked(w0, epoch) {
                    return Err(TxnError::Conflict);
                }
                Ok((w0, false))
            }
            _ => unreachable!(),
        }
    }

    /// Capture the old row (MV / out-of-place) and log the old-version
    /// copy for the Inp engines' NVM log.
    fn capture_old(&mut self, table: u32, tuple: TupleRef) -> Option<Vec<u8>> {
        let need = self.e.cfg.cc.multi_version() || self.e.cfg.update == UpdateStrategy::OutOfPlace;
        if !need {
            return None;
        }
        let size = self.e.table(table).tuple_size() as usize;
        let mut old = vec![0u8; size];
        tuple.read_data(&self.e.dev, 0, &mut old, &mut self.w.ctx);
        if self.e.in_place() && self.e.cfg.cc.multi_version() && self.e.cfg.log == LogPolicy::NvmLog
        {
            // Inp keeps old versions in its NVM log (Table 1).
            let rec = RedoRecord {
                kind: RedoKind::VersionCopy,
                table,
                tuple: tuple.addr.0,
                key: 0,
                off: 0,
                data: &old,
            };
            self.window_append(&rec).ok();
        }
        Some(old)
    }

    /// Update fields of the row at `key`: `ops` is a list of
    /// `(data offset, new bytes)`.
    pub fn update(&mut self, table: u32, key: u64, ops: &[(u32, &[u8])]) -> Result<(), TxnError> {
        if self.read_only {
            return Err(TxnError::ReadOnly);
        }
        self.w.ctx.advance(CPU_OP_NS);
        let tuple = self.resolve(table, key)?;

        if let Some(i) = self.ws_index(tuple) {
            // Second update to the same tuple: extend.
            for &(off, bytes) in ops {
                self.w.ws[i].ops.push((off, bytes.to_vec()));
            }
            if self.e.in_place() {
                self.log_updates(table, tuple, ops)?;
            }
            return Ok(());
        }

        let (observed, locked) = self.cc_write_lock(tuple)?;
        if tuple.is_deleted(&self.e.dev, &mut self.w.ctx) {
            self.undo_lock(tuple, observed, locked);
            return Err(TxnError::NotFound);
        }
        let old_data = self.capture_old(table, tuple);
        if self.e.in_place() {
            self.log_updates(table, tuple, ops)?;
        }
        self.w.ws.push(TupleWrite {
            kind: RedoKind::Update,
            table,
            tuple,
            key,
            sec_key: None,
            ops: ops.iter().map(|&(o, b)| (o, b.to_vec())).collect(),
            locked,
            observed,
            old_data,
        });
        Ok(())
    }

    /// Append one record to this worker's log window, attributing the
    /// cost to the log-append phase span. A spill-cap rejection is
    /// resolved with a bounded backpressure stall — one inline fuzzy
    /// checkpoint drains the spill tail, then the append retries once —
    /// provided this transaction has no spill extent of its own yet
    /// (its records sit behind the tail and cannot be truncated). The
    /// retry can still fail (a record larger than the whole cap); the
    /// typed [`TxnError::LogOverflow`] then propagates — never a panic,
    /// never a silent drop.
    fn window_append(&mut self, rec: &RedoRecord<'_>) -> Result<AppendMark, TxnError> {
        match self.window_append_raw(rec) {
            Err(TxnError::LogOverflow) if self.e.cfg.ckpt_enabled => {
                // Cap backpressure: one inline drain checkpoint, then a
                // single retry. With no live spill extent the tail is
                // truncated outright; with one, the region is compacted
                // around it. The retry can still fail (a transaction
                // bigger than the whole cap); the typed error then
                // propagates — never a panic, never a silent drop.
                self.w.ckpt.backpressure_stalls += 1;
                crate::checkpoint::run(self.e, self.w, false);
                self.window_append_raw(rec)
            }
            r => r,
        }
    }

    /// Append to the window and return the pre-append cursor snapshot,
    /// taken *after* any backpressure compaction so [`LogWindow::retract`]
    /// always sees coordinates of the current region layout.
    fn window_append_raw(&mut self, rec: &RedoRecord<'_>) -> Result<AppendMark, TxnError> {
        let w = &mut *self.w;
        let t0 = w.ctx.clock;
        let ap = w.ctx.attr_phase(Phase::LogAppend as usize);
        let window = w.window.as_mut().expect("in-place");
        let m = window.mark();
        let r = window.append(rec, &mut w.ctx).map(|()| m);
        w.obs.phase_add(Phase::LogAppend, w.ctx.clock - t0);
        w.ctx.attr_phase(ap);
        r
    }

    fn log_updates(
        &mut self,
        table: u32,
        tuple: TupleRef,
        ops: &[(u32, &[u8])],
    ) -> Result<(), TxnError> {
        for &(off, bytes) in ops {
            let rec = RedoRecord {
                kind: RedoKind::Update,
                table,
                tuple: tuple.addr.0,
                key: 0,
                off,
                data: bytes,
            };
            self.window_append(&rec)?;
        }
        Ok(())
    }

    fn undo_lock(&mut self, tuple: TupleRef, observed: u64, locked: bool) {
        if !locked {
            return;
        }
        let epoch = self.e.epoch;
        let restore = match self.e.cfg.cc.base() {
            CcAlgo::TwoPl => meta::pack(epoch, false, 0),
            _ => meta::pack(epoch, false, meta::ts_payload(observed)),
        };
        self.meta()
            .store(&self.e.dev, tuple, 0, restore, &mut self.w.ctx);
    }

    /// Insert a new row. The index entries are created immediately (the
    /// tuple stays write-locked until commit, so concurrent readers
    /// no-wait abort rather than observe uncommitted data).
    pub fn insert(&mut self, table: u32, row: &[u8]) -> Result<(), TxnError> {
        if self.read_only {
            return Err(TxnError::ReadOnly);
        }
        self.w.ctx.advance(CPU_OP_NS);
        let t = self.e.table(table);
        assert_eq!(row.len(), t.tuple_size() as usize, "row must match schema");
        let key = (t.primary_key)(&t.schema, row);
        let min_active = self.e.active.min_active();
        let slot = t
            .heap
            .alloc_slot(self.w.thread, min_active, &mut self.w.ctx)?;
        let epoch = self.e.epoch;
        // Lock the fresh tuple and clear any recycled state.
        self.meta().store(
            &self.e.dev,
            slot,
            0,
            meta::pack(epoch, true, self.tid & meta::PAYLOAD),
            &mut self.w.ctx,
        );
        self.meta().store(&self.e.dev, slot, 1, 0, &mut self.w.ctx);
        slot.set_version_ptr(&self.e.dev, 0, &mut self.w.ctx);
        if !self.e.in_place() {
            // Stamp the version TID now: until the commit watermark
            // passes it, the recovery scan treats this slot as garbage
            // (a fresh slot's zeroed flags would read as "bulk-loaded").
            self.e
                .dev
                .store_u64(slot.flags_addr(), self.tid << 8, &mut self.w.ctx);
        }
        // WAL order: the Insert record goes to the log *before* the
        // index entry becomes visible. A power cut between an index
        // publish and its log append would otherwise leave a durable
        // entry pointing at a dataless slot with no record telling
        // recovery to undo it (§5.3's uncommitted rollback walks the
        // window, not the index).
        let mut mark = None;
        if self.e.in_place() {
            let rec = RedoRecord {
                kind: RedoKind::Insert,
                table,
                tuple: slot.addr.0,
                key,
                off: 0,
                data: row,
            };
            match self.window_append(&rec) {
                Ok(m) => mark = Some(m),
                Err(e) => {
                    t.heap.free_slot(self.w.thread, slot, 0, &mut self.w.ctx);
                    return Err(e);
                }
            }
        }
        let retract = |w: &mut Worker| {
            if let Some(m) = mark {
                let window = w.window.as_mut().expect("in-place");
                window.retract(m, &mut w.ctx);
            }
        };
        if let Err(e) = t.primary.insert(key, slot.addr.0, &mut self.w.ctx) {
            retract(&mut *self.w);
            t.heap.free_slot(self.w.thread, slot, 0, &mut self.w.ctx);
            return Err(e.into());
        }
        let sec_key = match (&t.secondary, t.secondary_key) {
            (Some(sec), Some(kf)) => {
                let sk = kf(&t.schema, row);
                if let Err(e) = sec.insert(sk, slot.addr.0, &mut self.w.ctx) {
                    // Unwind the primary entry and the slot, or the key
                    // would stay claimed by a tuple nobody commits.
                    t.primary.remove(key, &mut self.w.ctx);
                    retract(&mut *self.w);
                    t.heap.free_slot(self.w.thread, slot, 0, &mut self.w.ctx);
                    return Err(e.into());
                }
                Some(sk)
            }
            _ => None,
        };
        self.w.ws.push(TupleWrite {
            kind: RedoKind::Insert,
            table,
            tuple: slot,
            key,
            sec_key,
            ops: vec![(0, row.to_vec())],
            locked: true,
            observed: 0,
            old_data: None,
        });
        Ok(())
    }

    /// Delete the row at `key` (§5.4: translated into an update that
    /// raises the delete flag; the slot joins the thread's persistent
    /// delete list at apply).
    pub fn delete(&mut self, table: u32, key: u64) -> Result<(), TxnError> {
        if self.read_only {
            return Err(TxnError::ReadOnly);
        }
        self.w.ctx.advance(CPU_OP_NS);
        let tuple = self.resolve(table, key)?;
        if self.ws_index(tuple).is_some() {
            // Deleting a tuple this transaction already wrote is not
            // needed by any evaluated workload; treat as a conflict.
            return Err(TxnError::Conflict);
        }
        let (observed, locked) = self.cc_write_lock(tuple)?;
        if tuple.is_deleted(&self.e.dev, &mut self.w.ctx) {
            self.undo_lock(tuple, observed, locked);
            return Err(TxnError::NotFound);
        }
        // The old row is always needed: versions and the secondary key.
        let size = self.e.table(table).tuple_size() as usize;
        let mut old = vec![0u8; size];
        tuple.read_data(&self.e.dev, 0, &mut old, &mut self.w.ctx);
        let t = self.e.table(table);
        let sec_key = t.secondary_key.map(|kf| kf(&t.schema, &old));
        if self.e.in_place() {
            let rec = RedoRecord {
                kind: RedoKind::Delete,
                table,
                tuple: tuple.addr.0,
                key,
                off: 0,
                data: &[],
            };
            self.window_append(&rec)?;
        }
        self.w.ws.push(TupleWrite {
            kind: RedoKind::Delete,
            table,
            tuple,
            key,
            sec_key,
            ops: Vec::new(),
            locked,
            observed,
            old_data: Some(old),
        });
        Ok(())
    }

    // ------------------------------------------------------------------
    // Commit / abort.
    // ------------------------------------------------------------------

    /// Commit the transaction.
    pub fn commit(mut self) -> Result<(), TxnError> {
        self.w.ctx.advance(CPU_TXN_NS);
        if self.w.ws.is_empty() {
            // Read-only (or empty) transaction: free the window slot
            // claimed at begin, release read locks, done.
            if !self.read_only && self.e.in_place() {
                let window = self.w.window.as_mut().expect("in-place");
                window.abort(&mut self.w.ctx);
            }
            self.release_read_locks();
            self.end(false);
            self.w.obs.commit_inc();
            return Ok(());
        }
        if self.e.cfg.cc.base() == CcAlgo::Occ {
            if let Err(e) = self.occ_validate() {
                self.rollback();
                return Err(e);
            }
        }
        match self.e.cfg.update {
            UpdateStrategy::InPlace => self.commit_in_place(),
            UpdateStrategy::OutOfPlace => self.commit_out_of_place(),
        }
        self.release_read_locks();
        self.end(false);
        self.w.obs.commit_inc();
        Ok(())
    }

    /// Abort the transaction, undoing exec-time effects.
    pub fn abort(mut self) {
        self.rollback();
    }

    fn rollback(&mut self) {
        let epoch = self.e.epoch;
        let ws = mem::take(&mut self.w.ws);
        for tw in &ws {
            match tw.kind {
                RedoKind::Insert => {
                    let t = self.e.table(tw.table);
                    t.primary.remove(tw.key, &mut self.w.ctx);
                    if let (Some(sec), Some(sk)) = (&t.secondary, tw.sec_key) {
                        sec.remove(sk, &mut self.w.ctx);
                    }
                    self.meta().store(
                        &self.e.dev,
                        tw.tuple,
                        0,
                        meta::pack(epoch, false, 0),
                        &mut self.w.ctx,
                    );
                    t.heap
                        .free_slot(self.w.thread, tw.tuple, 0, &mut self.w.ctx);
                }
                _ => self.undo_lock(tw.tuple, tw.observed, tw.locked),
            }
        }
        self.w.ws = ws;
        self.release_read_locks();
        if !self.read_only && self.e.in_place() {
            let window = self.w.window.as_mut().expect("in-place");
            window.abort(&mut self.w.ctx);
        }
        self.end(true);
        self.w.obs.abort_inc();
    }

    /// OCC validation: lock the write set in address order, then
    /// re-check the read set.
    fn occ_validate(&mut self) -> Result<(), TxnError> {
        let t0 = self.w.ctx.clock;
        let ap = self.w.ctx.attr_phase(Phase::CcValidate as usize);
        let r = self.occ_validate_inner();
        let dt = self.w.ctx.clock - t0;
        self.w.obs.phase_add(Phase::CcValidate, dt);
        self.w.ctx.attr_phase(ap);
        r
    }

    fn occ_validate_inner(&mut self) -> Result<(), TxnError> {
        let epoch = self.e.epoch;
        let dev = &self.e.dev;
        let mut order: Vec<usize> = (0..self.w.ws.len()).collect();
        order.sort_by_key(|&i| self.w.ws[i].tuple.addr.0);
        for &i in &order {
            if self.w.ws[i].locked {
                continue; // Inserts are born locked.
            }
            let tuple = self.w.ws[i].tuple;
            let w0 = self.meta().load(dev, tuple, 0, &mut self.w.ctx);
            if meta::is_locked(w0, epoch)
                || meta::ts_payload(w0) != meta::ts_payload(self.w.ws[i].observed)
            {
                return Err(TxnError::Conflict);
            }
            let new = meta::pack(epoch, true, meta::ts_payload(w0));
            if self
                .meta()
                .cas(dev, tuple, 0, w0, new, &mut self.w.ctx)
                .is_err()
            {
                return Err(TxnError::Conflict);
            }
            self.w.ws[i].locked = true;
            self.w.ws[i].observed = w0;
        }
        // Validate reads: versions unchanged and not locked by others.
        for i in 0..self.w.rs.len() {
            let entry = self.w.rs[i];
            let cur = self.meta().load(dev, entry.tuple, 0, &mut self.w.ctx);
            if meta::ts_payload(cur) != meta::ts_payload(entry.observed) {
                return Err(TxnError::Conflict);
            }
            let own = self.ws_index(entry.tuple).is_some();
            if meta::is_locked(cur, epoch) && !own {
                return Err(TxnError::Conflict);
            }
        }
        Ok(())
    }

    /// Algorithm 1: the in-place commit.
    fn commit_in_place(&mut self) {
        let epoch = self.e.epoch;
        let tid = self.tid;
        let mv = self.e.cfg.cc.multi_version();
        let group = self.e.cfg.group_commit;
        // Line 2: write-set.state = COMMITTED. Under group commit the
        // fences around the stamp are deferred: the small-window stamp
        // is persistent at store time (eADR), and the batched
        // `Engine::group_fence` supplies the ordering point for every
        // commit since the last fence.
        {
            let w = &mut *self.w;
            let t0 = w.ctx.clock;
            let ap = w.ctx.attr_phase(Phase::CommitFence as usize);
            let window = w.window.as_mut().expect("in-place");
            if group {
                window.commit_deferred(&mut w.ctx);
            } else {
                window.commit(&mut w.ctx);
            }
            w.obs.phase_add(Phase::CommitFence, w.ctx.clock - t0);
            w.ctx.attr_phase(ap);
        }
        // The commit record is durable (or in the persistence domain):
        // this is the transaction's commit point.
        self.e.dev.trace_emit(Event::TxnCommit {
            thread: self.w.ctx.thread_id,
            tid,
        });
        // Lines 3–6: apply in place, releasing locks as we go.
        let ws = mem::take(&mut self.w.ws);
        for tw in &ws {
            let dev = &self.e.dev;
            if mv && tw.kind != RedoKind::Insert {
                // Chain the old version (DRAM heap).
                let begin_ts = meta::ts_payload(tw.observed);
                let prev = tw.tuple.version_ptr(dev, &mut self.w.ctx);
                let old = tw.old_data.as_deref().unwrap_or(&[]);
                let vref =
                    self.e
                        .versions
                        .push(self.w.thread, begin_ts, tid, prev, old, &mut self.w.ctx);
                tw.tuple.set_version_ptr(dev, vref, &mut self.w.ctx);
            }
            match tw.kind {
                RedoKind::Update | RedoKind::Insert => {
                    for (off, bytes) in &tw.ops {
                        tw.tuple
                            .write_data(dev, u64::from(*off), bytes, &mut self.w.ctx);
                    }
                }
                RedoKind::Delete => {
                    let t = self.e.table(tw.table);
                    // free_slot atomically raises the delete flag before
                    // anything else, so readers racing the index removal
                    // observe a deleted tuple, never a recycled one.
                    t.heap
                        .free_slot(self.w.thread, tw.tuple, tid, &mut self.w.ctx);
                    t.primary.remove(tw.key, &mut self.w.ctx);
                    if let (Some(sec), Some(sk)) = (&t.secondary, tw.sec_key) {
                        sec.remove(sk, &mut self.w.ctx);
                    }
                }
                RedoKind::VersionCopy => {}
            }
            // Release the lock / publish the new write timestamp
            // (line 5).
            let unlock = match self.e.cfg.cc.base() {
                CcAlgo::TwoPl => {
                    // write_ts lives in word 1 under 2PL.
                    self.meta().store(
                        dev,
                        tw.tuple,
                        1,
                        meta::pack(epoch, false, tid & meta::PAYLOAD),
                        &mut self.w.ctx,
                    );
                    meta::pack(epoch, false, 0)
                }
                _ => meta::pack(epoch, false, tid & meta::PAYLOAD),
            };
            self.meta().store(dev, tw.tuple, 0, unlock, &mut self.w.ctx);
        }
        self.w.ws = ws;
        // Line 7 — deferred to the group fence under group commit: the
        // in-place stores are persistent at store time, so delaying the
        // ordering point past `finish` cannot lose a stamped commit
        // (recovery replays the redo records over any torn apply).
        if !group {
            let t0 = self.w.ctx.clock;
            let ap = self.w.ctx.attr_phase(Phase::CommitFence as usize);
            self.e.dev.sfence(&mut self.w.ctx);
            let dt = self.w.ctx.clock - t0;
            self.w.obs.phase_add(Phase::CommitFence, dt);
            self.w.ctx.attr_phase(ap);
        }
        // Lines 8–11: selective data flush.
        self.flush_stage();
        let window = self.w.window.as_mut().expect("in-place");
        window.finish(&mut self.w.ctx);
        if group {
            self.w.group_pending += 1;
        }
        // Checkpoint boundary: with the slot freed, every byte in the
        // spill tail belongs to finished transactions, so once the tail
        // passes the threshold a fuzzy checkpoint captures and truncates
        // it here rather than waiting for the cap to force a stall.
        if self.e.cfg.ckpt_enabled {
            let tail = self.w.window.as_ref().expect("in-place").spill_tail();
            if tail >= self.e.cfg.ckpt_spill_threshold {
                crate::checkpoint::run(self.e, self.w, true);
            }
        }
    }

    /// The log-free out-of-place commit (Zen).
    fn commit_out_of_place(&mut self) {
        let _epoch = self.e.epoch;
        let tid = self.tid;
        let ws = mem::take(&mut self.w.ws);
        for tw in &ws {
            let dev = self.e.dev.clone();
            let t = self.e.table(tw.table);
            match tw.kind {
                RedoKind::Update => {
                    // A thread may not modify another thread's tuple in
                    // place: copy the whole tuple into an own-thread slot
                    // and invalidate the original (Zen, §6.2.3).
                    let min_active = self.e.active.min_active();
                    let new_slot =
                        match t
                            .heap
                            .alloc_slot(self.w.thread, min_active, &mut self.w.ctx)
                        {
                            Ok(s) => s,
                            Err(_) => {
                                // Out of space: drop the write, but
                                // release the lock or the tuple is
                                // unwritable forever.
                                self.undo_lock(tw.tuple, tw.observed, tw.locked);
                                continue;
                            }
                        };
                    let mut row = tw.old_data.clone().expect("captured at exec");
                    for (off, bytes) in &tw.ops {
                        row[*off as usize..*off as usize + bytes.len()].copy_from_slice(bytes);
                    }
                    new_slot.set_version_ptr(&dev, tw.tuple.addr.0, &mut self.w.ctx);
                    // The flags word carries the version's commit TID
                    // (bits 8+): recovery reads it uniformly, whatever
                    // CC algorithm (and metadata location) is live.
                    dev.store_u64(new_slot.flags_addr(), tid << 8, &mut self.w.ctx);
                    new_slot.write_data(&dev, 0, &row, &mut self.w.ctx);
                    self.publish_version_meta(new_slot, tid);
                    // Invalidate the original (a hint for GC, never
                    // trusted by recovery: the commit watermark decides).
                    dev.fetch_or_u64(tw.tuple.flags_addr(), FLAG_OBSOLETE, &mut self.w.ctx);
                    self.undo_lock(tw.tuple, tw.observed, tw.locked);
                    t.primary.update(tw.key, new_slot.addr.0, &mut self.w.ctx);
                    if let (Some(sec), Some(kf)) = (&t.secondary, t.secondary_key) {
                        let sk = kf(&t.schema, tw.old_data.as_ref().expect("captured"));
                        sec.update(sk, new_slot.addr.0, &mut self.w.ctx);
                    }
                    if let Some(cache) = &self.e.tuple_cache {
                        cache.put(
                            tw.table,
                            tw.key,
                            &cache_pack(new_slot.addr.0, &row),
                            &mut self.w.ctx,
                        );
                    }
                    self.flush_tuple(new_slot, 0, row.len() as u64);
                    self.w.outp_garbage.push((tw.table, tw.tuple.addr.0, tid));
                }
                RedoKind::Insert => {
                    let row = &tw.ops[0].1;
                    tw.tuple.write_data(&dev, 0, row, &mut self.w.ctx);
                    self.publish_version_meta(tw.tuple, tid);
                    if let Some(cache) = &self.e.tuple_cache {
                        cache.put(
                            tw.table,
                            tw.key,
                            &cache_pack(tw.tuple.addr.0, row),
                            &mut self.w.ctx,
                        );
                    }
                    self.flush_tuple(tw.tuple, 0, row.len() as u64);
                }
                RedoKind::Delete => {
                    // Log-free delete: a committed *tombstone* version
                    // makes the deletion recoverable (Zen-style; the old
                    // row alone cannot record "I was deleted").
                    let min_active = self.e.active.min_active();
                    if let Ok(tomb) = t
                        .heap
                        .alloc_slot(self.w.thread, min_active, &mut self.w.ctx)
                    {
                        tomb.set_version_ptr(&dev, tw.tuple.addr.0, &mut self.w.ctx);
                        // The tombstone's data area records the key so
                        // the recovery scan can attribute it.
                        tomb.write_data(&dev, 0, &tw.key.to_le_bytes(), &mut self.w.ctx);
                        dev.store_u64(
                            tomb.flags_addr(),
                            (tid << 8) | FLAG_TOMBSTONE,
                            &mut self.w.ctx,
                        );
                        self.flush_header(tomb);
                        self.w.outp_garbage.push((tw.table, tomb.addr.0, tid));
                    }
                    dev.fetch_or_u64(tw.tuple.flags_addr(), FLAG_OBSOLETE, &mut self.w.ctx);
                    self.undo_lock(tw.tuple, tw.observed, tw.locked);
                    t.primary.remove(tw.key, &mut self.w.ctx);
                    if let (Some(sec), Some(sk)) = (&t.secondary, tw.sec_key) {
                        sec.remove(sk, &mut self.w.ctx);
                    }
                    if let Some(cache) = &self.e.tuple_cache {
                        cache.invalidate(tw.table, tw.key, &mut self.w.ctx);
                    }
                    self.w.outp_garbage.push((tw.table, tw.tuple.addr.0, tid));
                }
                RedoKind::VersionCopy => {}
            }
        }
        self.w.ws = ws;
        // Publish the commit: versions first, then the watermark.
        let fence_t0 = self.w.ctx.clock;
        let ap = self.w.ctx.attr_phase(Phase::CommitFence as usize);
        self.e.dev.sfence(&mut self.w.ctx);
        let wm = self.e.watermark_addr(self.w.thread);
        self.e.dev.trace_emit(Event::CommitRecord {
            thread: self.w.ctx.thread_id,
            addr: wm.0,
        });
        self.e.dev.store_u64(wm, tid, &mut self.w.ctx);
        if self.e.cfg.flush != FlushPolicy::None {
            self.e.dev.trace_emit(Event::DurableHint {
                thread: self.w.ctx.thread_id,
                addr: wm.0,
                len: 8,
            });
            self.e.dev.clwb(wm, &mut self.w.ctx);
            self.e.dev.sfence(&mut self.w.ctx);
        }
        let fence_dt = self.w.ctx.clock - fence_t0;
        self.w.obs.phase_add(Phase::CommitFence, fence_dt);
        self.w.ctx.attr_phase(ap);
        self.e.dev.trace_emit(Event::TxnCommit {
            thread: self.w.ctx.thread_id,
            tid,
        });
    }

    /// Publish the live CC metadata of a freshly-written out-of-place
    /// version: under 2PL the lock word holds a reader count (so the
    /// write timestamp goes to word 1); under TO/OCC word 0 is the
    /// timestamp itself.
    fn publish_version_meta(&mut self, slot: TupleRef, tid: u64) {
        let epoch = self.e.epoch;
        let dev = self.e.dev.clone();
        match self.e.cfg.cc.base() {
            CcAlgo::TwoPl => {
                self.meta().store(
                    &dev,
                    slot,
                    1,
                    meta::pack(epoch, false, tid & meta::PAYLOAD),
                    &mut self.w.ctx,
                );
                self.meta()
                    .store(&dev, slot, 0, meta::pack(epoch, false, 0), &mut self.w.ctx);
            }
            _ => {
                self.meta().store(
                    &dev,
                    slot,
                    0,
                    meta::pack(epoch, false, tid & meta::PAYLOAD),
                    &mut self.w.ctx,
                );
                self.meta().store(&dev, slot, 1, 0, &mut self.w.ctx);
            }
        }
    }

    /// Lines 8–11 of Algorithm 1: hinted flush + hot-tuple tracking.
    fn flush_stage(&mut self) {
        let ws = mem::take(&mut self.w.ws);
        for tw in &ws {
            match tw.kind {
                RedoKind::Update => {
                    // Hinted flush: flush the contiguous byte ranges the
                    // update touched (whole cache lines, issued together
                    // so the XPBuffer can merge them).
                    let (mut lo, mut hi) = (u64::MAX, 0u64);
                    for (off, bytes) in &tw.ops {
                        lo = lo.min(u64::from(*off));
                        hi = hi.max(u64::from(*off) + bytes.len() as u64);
                    }
                    if lo < hi {
                        self.flush_tuple(tw.tuple, lo, hi - lo);
                    }
                }
                RedoKind::Insert => {
                    let len = tw.ops[0].1.len() as u64;
                    self.flush_tuple(tw.tuple, 0, len);
                }
                RedoKind::Delete => {
                    // The header line carries the delete flag.
                    self.flush_header(tw.tuple);
                }
                RedoKind::VersionCopy => {}
            }
        }
        self.w.ws = ws;
    }

    fn flush_tuple(&mut self, tuple: TupleRef, off: u64, len: u64) {
        let t0 = self.w.ctx.clock;
        let ap = self.w.ctx.attr_phase(Phase::DataFlush as usize);
        match self.e.cfg.flush {
            FlushPolicy::None => {}
            FlushPolicy::All => {
                self.hint_flush(tuple.data_addr(off).0, len);
                tuple.flush_data(&self.e.dev, off, len, &mut self.w.ctx);
                self.w.obs.flush_hinted_inc();
            }
            FlushPolicy::Selective => {
                // Hot tuples are never manually flushed (Algorithm 1,
                // lines 9–11). Hot-tuple tracking does not apply to
                // out-of-place updates (addresses change every time).
                let applies = self.e.in_place();
                if !applies || !self.w.hot.check_and_cache(tuple.addr.0) {
                    self.hint_flush(tuple.data_addr(off).0, len);
                    tuple.flush_data(&self.e.dev, off, len, &mut self.w.ctx);
                    self.w.obs.flush_hinted_inc();
                } else {
                    self.w.obs.flush_skipped_hot_inc();
                    self.track_dirty(tuple, off, len);
                }
            }
        }
        let dt = self.w.ctx.clock - t0;
        self.w.obs.phase_add(Phase::DataFlush, dt);
        self.w.ctx.attr_phase(ap);
    }

    /// Remember the cache lines a skipped hot-tuple flush left dirty so
    /// the next fuzzy checkpoint can write them back before truncating
    /// the redo that covers them. Bounded: when the set reaches its cap
    /// the line is written back immediately instead of deferred (same
    /// durability, no unbounded DRAM growth). Under eADR the write-back
    /// is a no-op, so tracking costs nothing but the set insert.
    fn track_dirty(&mut self, tuple: TupleRef, off: u64, len: u64) {
        if !self.e.cfg.ckpt_enabled || len == 0 {
            return;
        }
        let start = tuple.data_addr(off).0;
        let mut line = start & !63;
        let last = (start + len - 1) & !63;
        while line <= last {
            if self.w.ckpt_dirty.len() >= CKPT_DIRTY_CAP && !self.w.ckpt_dirty.contains(&line) {
                self.e.dev.clwb_if_adr(PAddr(line), &mut self.w.ctx);
            } else {
                self.w.ckpt_dirty.insert(line);
            }
            line += 64;
        }
        self.w.ckpt.dirty_peak = self.w.ckpt.dirty_peak.max(self.w.ckpt_dirty.len() as u64);
    }

    fn flush_header(&mut self, tuple: TupleRef) {
        if self.e.cfg.flush != FlushPolicy::None {
            let t0 = self.w.ctx.clock;
            let ap = self.w.ctx.attr_phase(Phase::DataFlush as usize);
            self.hint_flush(tuple.addr.0, 8);
            self.e.dev.clwb(tuple.addr, &mut self.w.ctx);
            self.w.obs.flush_hinted_inc();
            let dt = self.w.ctx.clock - t0;
            self.w.obs.phase_add(Phase::DataFlush, dt);
            self.w.ctx.attr_phase(ap);
        }
    }

    /// Announce a durable-intent range to the persistency checker just
    /// before flushing it (R2 coverage).
    fn hint_flush(&mut self, addr: u64, len: u64) {
        self.e.dev.trace_emit(Event::DurableHint {
            thread: self.w.ctx.thread_id,
            addr,
            len,
        });
    }

    fn release_read_locks(&mut self) {
        if self.e.cfg.cc.base() != CcAlgo::TwoPl {
            return;
        }
        let epoch = self.e.epoch;
        for i in 0..self.w.rs.len() {
            let entry = self.w.rs[i];
            if !entry.read_locked {
                continue;
            }
            loop {
                let w0 = self
                    .meta()
                    .load(&self.e.dev, entry.tuple, 0, &mut self.w.ctx);
                let readers = meta::counter_payload(w0, epoch);
                if meta::is_locked(w0, epoch) || readers == 0 {
                    break; // Consumed by an upgrade or crash-stale.
                }
                let new = meta::pack(epoch, false, readers - 1);
                if self
                    .meta()
                    .cas(&self.e.dev, entry.tuple, 0, w0, new, &mut self.w.ctx)
                    .is_ok()
                {
                    break;
                }
            }
        }
    }

    fn end(&mut self, _aborted: bool) {
        self.e.active.end(self.w.thread);
        self.finished = true;
    }
}

impl Drop for Txn<'_, '_> {
    fn drop(&mut self) {
        if !self.finished {
            // A dropped transaction aborts (panic-safety / harness
            // convenience).
            self.rollback();
        }
    }
}

/// Overlay pending write ops onto a buffer that starts at data offset
/// `base`.
fn overlay(buf: &mut [u8], base: u32, ops: &[(u32, Vec<u8>)]) {
    let lo = base as usize;
    let hi = lo + buf.len();
    for (off, bytes) in ops {
        let (s, e) = (*off as usize, *off as usize + bytes.len());
        // Intersect [s, e) with [lo, hi).
        let is = s.max(lo);
        let ie = e.min(hi);
        if is < ie {
            buf[is - lo..ie - lo].copy_from_slice(&bytes[is - s..ie - s]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::overlay;

    #[test]
    fn overlay_applies_in_order() {
        let mut buf = vec![0u8; 8];
        overlay(&mut buf, 0, &[(0, vec![1, 1, 1, 1]), (2, vec![9, 9])]);
        assert_eq!(buf, vec![1, 1, 9, 9, 0, 0, 0, 0]);
    }

    #[test]
    fn overlay_respects_window() {
        let mut buf = vec![0u8; 4]; // Covers offsets 4..8.
        overlay(&mut buf, 4, &[(0, vec![7; 6]), (6, vec![8, 8, 8, 8])]);
        // Op 1 covers 0..6 -> bytes 4,5 of the window; op 2 covers
        // 6..10 -> bytes 6,7.
        assert_eq!(buf, vec![7, 7, 8, 8]);
    }

    #[test]
    fn overlay_disjoint_is_noop() {
        let mut buf = vec![5u8; 4];
        overlay(&mut buf, 0, &[(10, vec![1, 2, 3])]);
        assert_eq!(buf, vec![5; 4]);
    }
}
