//! The small log window (design D1, §4.3) and its conventional-NVM-log
//! twin.
//!
//! Each worker thread owns one window: a few fixed slots, each holding
//! the redo log of one transaction, reused round-robin. For the
//! **small** window the total footprint is a few KB per thread — small
//! enough that, re-touched every transaction, its cache lines stay
//! resident under LRU and logging costs *zero* NVM media writes while
//! remaining durable (persistent cache). For the **conventional** NVM
//! log (the Inp baselines), the same structure is configured with large
//! slots and per-record `clwb`, so every commit streams log bytes to NVM.
//!
//! Slot lifecycle: `FREE → UNCOMMITTED → COMMITTED → FREE`. Recovery
//! (§5.3) replays `COMMITTED` slots (apply may have been cut short) and
//! undoes the index inserts of `UNCOMMITTED` slots; `FREE` slots are
//! transactions whose in-place apply finished — their effects are already
//! durable under eADR.
//!
//! A transaction whose redo outgrows its slot spills to a per-thread
//! overflow region (large, streamed, naturally evicted): this is the
//! §5.5 limitation that Figure 12 measures.

use pmem_sim::trace::Event;
use pmem_sim::{MemCtx, PAddr, PmemDevice};

use falcon_storage::layout::PAGE_SIZE;
use falcon_storage::{Catalog, NvmAllocator};

use crate::crc;
use crate::error::{EngineError, TxnError};

/// Slot states.
pub const FREE: u64 = 0;
/// Transaction running; logs may be partial.
pub const UNCOMMITTED: u64 = 1;
/// Transaction committed; in-place apply may be incomplete.
pub const COMMITTED: u64 = 2;

// Window header layout (public so crash/chaos tests can aim targeted
// corruption at specific words).
/// Window header: slot count.
pub const W_SLOTS: u64 = 0;
/// Window header: per-slot payload bytes.
pub const W_SLOT_BYTES: u64 = 8;
/// Window header: overflow-spill region base address (0 = none yet).
pub const W_SPILL: u64 = 16;
/// Window header size.
pub const W_HDR: u64 = 64;

// Overflow-spill region header layout (64 B, ahead of the record data).
/// Spill header: magic word identifying a formatted region.
pub const SP_MAGIC: u64 = 0;
/// Spill header: data capacity in bytes (the backpressure cap).
pub const SP_CAP: u64 = 8;
/// Spill header: durable tail — bytes of live record stream.
pub const SP_TAIL: u64 = 16;
/// Spill region header size.
pub const SP_HDR: u64 = 64;
/// Expected value of the [`SP_MAGIC`] word.
pub const SP_MAGIC_V: u64 = 0x4653_5049_4C4C_3031; // "FSPILL01"
                                                   // Per-slot header layout (64 B each).
/// Slot header: state word (`FREE`/`UNCOMMITTED`/`COMMITTED`).
pub const S_STATE: u64 = 0;
/// Slot header: owning transaction id.
pub const S_TID: u64 = 8;
/// Slot header: in-slot record-stream length.
pub const S_LEN: u64 = 16;
/// Slot header: overflow-region base address (0 = none).
pub const S_OVF_ADDR: u64 = 24;
/// Slot header: overflow record-stream length.
pub const S_OVF_LEN: u64 = 32;
/// Slot header size.
pub const SLOT_HDR: u64 = 64;

/// Upper bound on a plausible slot count; a window header claiming more
/// is corrupt (engines configure single-digit slot counts).
pub const MAX_WINDOW_SLOTS: u64 = 4096;

/// Upper bound on a single record's payload; a header claiming more is
/// damage, and decoding stops before allocating the claimed buffer.
pub const MAX_REC_DATA: u64 = 64 << 20;

/// A redo operation kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RedoKind {
    /// In-place field update: write `data` at `off` in the tuple's data
    /// area.
    Update,
    /// Insert: write the whole row and (re)insert the index entry.
    Insert,
    /// Delete: raise the delete flag and remove the index entry.
    Delete,
    /// An old-version copy written to the NVM log by the Inp engines'
    /// multi-version mode (Table 1: "Logs (Old Versions)"). Charged like
    /// any record but skipped by replay: version chains are rebuilt
    /// empty after a crash.
    VersionCopy,
}

/// Record-kind code of the transaction marker written ahead of a
/// transaction's first spill record. Markers carry the owning TID in
/// their `key` word so the recovery-time spill scan can CRC-validate
/// the records that follow; they never appear in a slot's decoded
/// stream (the slot's overflow pointer skips them).
pub const REC_TXN_MARKER: u64 = 4;

impl RedoKind {
    fn code(self) -> u64 {
        match self {
            RedoKind::Update => 0,
            RedoKind::Insert => 1,
            RedoKind::Delete => 2,
            RedoKind::VersionCopy => 3,
        }
    }

    fn from_code(c: u64) -> Option<RedoKind> {
        match c {
            0 => Some(RedoKind::Update),
            1 => Some(RedoKind::Insert),
            2 => Some(RedoKind::Delete),
            3 => Some(RedoKind::VersionCopy),
            _ => None,
        }
    }
}

/// One redo record (borrowed payload, for appending).
#[derive(Debug, Clone, Copy)]
pub struct RedoRecord<'a> {
    /// Operation kind.
    pub kind: RedoKind,
    /// Table id.
    pub table: u32,
    /// NVM address of the tuple slot.
    pub tuple: u64,
    /// Packed index key (for insert/delete index maintenance).
    pub key: u64,
    /// Byte offset in the tuple data area (updates).
    pub off: u32,
    /// Payload: the new bytes (update) or the whole row (insert).
    pub data: &'a [u8],
}

/// One decoded redo record (owned payload, for replay).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RedoOwned {
    /// Operation kind.
    pub kind: RedoKind,
    /// Table id.
    pub table: u32,
    /// NVM address of the tuple slot.
    pub tuple: u64,
    /// Packed index key.
    pub key: u64,
    /// Byte offset in the tuple data area.
    pub off: u32,
    /// Payload bytes.
    pub data: Vec<u8>,
}

/// A decoded window slot.
#[derive(Debug, Clone)]
pub struct SlotImage {
    /// Slot state at crash.
    pub state: u64,
    /// TID of the owning transaction.
    pub tid: u64,
    /// The records, in append order. Damaged records and everything
    /// after them are excluded: only the valid prefix is salvaged.
    pub records: Vec<RedoOwned>,
    /// Records lost to a torn append (power cut mid-record).
    pub torn_records: u64,
    /// Records lost to media corruption (CRC/shape failure on a record
    /// the commit protocol had made durable).
    pub corrupt_records: u64,
    /// Spill extents this slot referenced that lie behind the region's
    /// durable tail — truncated behind a published checkpoint. Counted,
    /// non-fatal: the slot's in-window (and any pre-tail) prefix still
    /// replays; nothing is misclassified as corruption.
    pub spill_truncated_refs: u64,
}

impl SlotImage {
    /// Whether decoding hit any damage in this slot.
    pub fn damaged(&self) -> bool {
        self.torn_records + self.corrupt_records > 0
    }
}

/// Record header size: seven 8-byte words — kind, table, tuple, key,
/// off, data_len, CRC-32C (seeded with the slot's owning TID, over the
/// first 48 header bytes + unpadded payload, zero-extended to a word).
pub const REC_HDR: u64 = 56;

/// Per-window observability counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WindowObs {
    /// Redo records appended.
    pub appends: u64,
    /// On-media bytes those appends occupied (header + padded payload).
    pub append_bytes: u64,
    /// Times the slot cursor wrapped back to slot 0.
    pub wraps: u64,
    /// Transactions that spilled into the overflow region.
    pub overflow_spills: u64,
    /// On-media bytes appended into the overflow region (header +
    /// padded payload of every spilled record).
    pub overflow_spill_bytes: u64,
    /// Appends rejected because the overflow region was full.
    pub full_stalls: u64,
}

#[inline]
fn pad8(n: u64) -> u64 {
    n.div_ceil(8) * 8
}

/// A snapshot of a [`LogWindow`]'s append cursor; see
/// [`LogWindow::mark`] / [`LogWindow::retract`].
#[derive(Debug, Clone, Copy)]
pub struct AppendMark {
    write_pos: u64,
    spill_tail: u64,
    in_overflow: bool,
    txn_spill_start: u64,
}

/// A per-thread log window.
///
/// Not `Sync`: exactly one worker thread appends; recovery reads windows
/// through [`read_window`] after all workers stopped.
///
/// HB audit: the cursors below are plain (non-atomic) fields, justified
/// entirely by that `!Sync` single-writer contract — no other thread
/// ever observes them, so there is no edge to provide. The *durable*
/// slot-state words they shadow are published through the device's
/// release/acquire `store_u64`/`load_u64`, which is what the
/// `log_window_claim_*` kernels in falcon-race sweep.
pub struct LogWindow {
    dev: PmemDevice,
    base: PAddr,
    slots: usize,
    slot_bytes: u64,
    flush_logs: bool,
    // Volatile cursors (reconstructed trivially: all slots FREE on open).
    cur: usize,
    // TID occupying the current slot. Seeds every record CRC so a torn
    // append can never pass off a stale but internally-valid record
    // left behind by the slot's previous occupant as this
    // transaction's (the bytes ring-buffer is reused across
    // transactions).
    cur_tid: u64,
    write_pos: u64,
    // Persistent overflow-spill log. `spill_tail` is the volatile
    // mirror of the region's durable SP_TAIL word; it survives across
    // transactions (append-only) and is reset only by checkpoint
    // truncation or recovery.
    spill: Option<PAddr>,
    spill_cap: u64,
    spill_tail: u64,
    spill_cap_cfg: u64,
    in_overflow: bool,
    // Data-area offset of the current transaction's first spill record
    // (just past its marker); valid while `in_overflow`.
    txn_spill_start: u64,
    alloc: NvmAllocator,
    obs: WindowObs,
}

/// Default overflow-spill cap when the engine does not configure one
/// (matches the pre-checkpoint lazily-allocated region size).
pub const DEFAULT_SPILL_CAP: u64 = 16 << 20;

impl LogWindow {
    /// Create a window for `thread`, registering its address in the
    /// catalog. `slot_bytes` is the per-transaction ring share;
    /// `flush_logs` selects the conventional-log behaviour.
    pub fn create(
        alloc: &NvmAllocator,
        catalog: &Catalog,
        thread: usize,
        slots: usize,
        slot_bytes: u64,
        flush_logs: bool,
        ctx: &mut MemCtx,
    ) -> Result<LogWindow, TxnError> {
        let total = W_HDR + slots as u64 * SLOT_HDR + slots as u64 * slot_bytes;
        let pages = total.div_ceil(PAGE_SIZE);
        let base = alloc.alloc_contiguous(pages, ctx)?;
        let dev = alloc.device().clone();
        dev.store_u64(base.add(W_SLOTS), slots as u64, ctx);
        dev.store_u64(base.add(W_SLOT_BYTES), slot_bytes, ctx);
        dev.store_u64(base.add(W_SPILL), 0, ctx);
        for s in 0..slots {
            let h = slot_hdr(base, s);
            dev.store_u64(h.add(S_STATE), FREE, ctx);
        }
        catalog.set_log_window(thread, base.0, ctx);
        Ok(LogWindow {
            dev,
            base,
            slots,
            slot_bytes,
            flush_logs,
            cur: 0,
            cur_tid: 0,
            write_pos: 0,
            spill: None,
            spill_cap: 0,
            spill_tail: 0,
            spill_cap_cfg: DEFAULT_SPILL_CAP,
            in_overflow: false,
            txn_spill_start: 0,
            alloc: alloc.clone(),
            obs: WindowObs::default(),
        })
    }

    /// Re-attach to an existing window after recovery (all slots must
    /// have been replayed and freed by then).
    pub fn reopen(
        alloc: &NvmAllocator,
        base: PAddr,
        flush_logs: bool,
        ctx: &mut MemCtx,
    ) -> LogWindow {
        let dev = alloc.device().clone();
        let slots = dev.load_u64(base.add(W_SLOTS), ctx) as usize;
        let slot_bytes = dev.load_u64(base.add(W_SLOT_BYTES), ctx);
        LogWindow {
            dev,
            base,
            slots,
            slot_bytes,
            flush_logs,
            cur: 0,
            cur_tid: 0,
            write_pos: 0,
            spill: None,
            spill_cap: 0,
            spill_tail: 0,
            spill_cap_cfg: DEFAULT_SPILL_CAP,
            in_overflow: false,
            txn_spill_start: 0,
            alloc: alloc.clone(),
            obs: WindowObs::default(),
        }
    }

    /// Set the overflow-spill backpressure cap (takes effect when the
    /// region is first allocated; an already-attached region keeps its
    /// formatted capacity).
    pub fn set_spill_cap(&mut self, cap: u64) {
        self.spill_cap_cfg = cap.max(4096);
    }

    /// Base address (as registered in the catalog).
    pub fn base(&self) -> PAddr {
        self.base
    }

    /// Observability counters since the last [`LogWindow::obs_reset`].
    pub fn obs_counts(&self) -> WindowObs {
        self.obs
    }

    /// Zero the observability counters (e.g. after warmup).
    pub fn obs_reset(&mut self) {
        self.obs = WindowObs::default();
    }

    /// Begin a transaction: claim the next slot and stamp it
    /// `UNCOMMITTED` with `tid` (the "Before Update" block of
    /// Algorithm 1).
    pub fn begin_txn(&mut self, tid: u64, ctx: &mut MemCtx) {
        self.cur = (self.cur + 1) % self.slots;
        if self.cur == 0 {
            self.obs.wraps += 1;
        }
        let h = slot_hdr(self.base, self.cur);
        // Peeked with `raw_read`, not `load_u64`: an assertion must not
        // run the cache model or advance the virtual clock, or debug and
        // release builds would report different virtual metrics.
        #[cfg(debug_assertions)]
        {
            let mut state = [0u8; 8];
            self.dev.raw_read(h.add(S_STATE), &mut state);
            assert_eq!(u64::from_le_bytes(state), FREE);
        }
        self.dev.trace_emit(Event::LogRange {
            thread: ctx.thread_id,
            addr: h.0,
            len: SLOT_HDR,
        });
        self.dev.store_u64(h.add(S_TID), tid, ctx);
        self.dev.store_u64(h.add(S_LEN), 0, ctx);
        self.dev.store_u64(h.add(S_OVF_ADDR), 0, ctx);
        self.dev.store_u64(h.add(S_OVF_LEN), 0, ctx);
        self.dev.store_u64(h.add(S_STATE), UNCOMMITTED, ctx);
        if self.flush_logs {
            self.dev.clwb(h, ctx);
        }
        self.cur_tid = tid;
        self.write_pos = 0;
        // The spill tail is NOT reset here: the region is an append-only
        // log across transactions, reclaimed only by checkpoint
        // truncation (or recovery).
        self.in_overflow = false;
    }

    fn payload_base(&self, slot: usize) -> PAddr {
        self.base
            .add(W_HDR + self.slots as u64 * SLOT_HDR + slot as u64 * self.slot_bytes)
    }

    /// Attach or lazily allocate the persistent spill region.
    fn ensure_spill(&mut self, ctx: &mut MemCtx) -> Result<(), TxnError> {
        if self.spill.is_some() {
            return Ok(());
        }
        let reg = self.dev.load_u64(self.base.add(W_SPILL), ctx);
        if reg != 0 {
            let rb = PAddr(reg);
            if self.dev.load_u64(rb.add(SP_MAGIC), ctx) == SP_MAGIC_V {
                self.spill = Some(rb);
                self.spill_cap = self.dev.load_u64(rb.add(SP_CAP), ctx);
                self.spill_tail = self.dev.load_u64(rb.add(SP_TAIL), ctx);
                return Ok(());
            }
            // Unreadable region header (should have been caught by
            // recovery): fall through and format a fresh region.
        }
        let cap = self.spill_cap_cfg;
        let pages = (SP_HDR + cap).div_ceil(PAGE_SIZE);
        let rb = self.alloc.alloc_contiguous(pages, ctx)?;
        self.dev.store_u64(rb.add(SP_CAP), cap, ctx);
        self.dev.store_u64(rb.add(SP_TAIL), 0, ctx);
        self.dev.store_u64(rb.add(SP_MAGIC), SP_MAGIC_V, ctx);
        self.dev.store_u64(self.base.add(W_SPILL), rb.0, ctx);
        if self.flush_logs {
            self.dev.clwb(rb, ctx);
            self.dev.clwb(self.base, ctx);
        }
        self.spill = Some(rb);
        self.spill_cap = cap;
        self.spill_tail = 0;
        Ok(())
    }

    /// Encode one record at `addr`: 6 header words, a CRC word, then
    /// the padded payload. The CRC is seeded with `seed_tid` and covers
    /// the 48 pre-CRC header bytes and the unpadded payload, so replay
    /// can tell a torn append from bit-rot — and a stale record left by
    /// a previous occupant of the same bytes fails the check instead of
    /// masquerading as this transaction's.
    #[allow(clippy::too_many_arguments)]
    fn write_record(
        &self,
        addr: PAddr,
        kind_code: u64,
        table: u32,
        tuple: u64,
        key: u64,
        off: u32,
        data: &[u8],
        seed_tid: u64,
        ctx: &mut MemCtx,
    ) {
        let mut hdr = [0u8; REC_HDR as usize];
        hdr[0..8].copy_from_slice(&kind_code.to_le_bytes());
        hdr[8..16].copy_from_slice(&u64::from(table).to_le_bytes());
        hdr[16..24].copy_from_slice(&tuple.to_le_bytes());
        hdr[24..32].copy_from_slice(&key.to_le_bytes());
        hdr[32..40].copy_from_slice(&u64::from(off).to_le_bytes());
        hdr[40..48].copy_from_slice(&(data.len() as u64).to_le_bytes());
        let st = crc::update(0xFFFF_FFFF, &seed_tid.to_le_bytes());
        let st = crc::update(st, &hdr[..48]);
        let sum = crc::update(st, data) ^ 0xFFFF_FFFF;
        hdr[48..56].copy_from_slice(&u64::from(sum).to_le_bytes());
        self.dev.write(addr, &hdr, ctx);
        if !data.is_empty() {
            self.dev.write(addr.add(REC_HDR), data, ctx);
        }
    }

    /// Append one redo record to the current transaction's log.
    pub fn append(&mut self, rec: &RedoRecord<'_>, ctx: &mut MemCtx) -> Result<(), TxnError> {
        let need = REC_HDR + pad8(rec.data.len() as u64);
        let h = slot_hdr(self.base, self.cur);
        let addr = if !self.in_overflow && self.write_pos + need <= self.slot_bytes {
            let a = self.payload_base(self.cur).add(self.write_pos);
            self.write_pos += need;
            self.dev.store_u64(h.add(S_LEN), self.write_pos, ctx);
            a
        } else {
            // Spill to the persistent overflow log (§5.5): allocated
            // lazily, appended across transactions, reclaimed by
            // checkpoint truncation.
            self.ensure_spill(ctx)?;
            let rb = self.spill.expect("just ensured");
            let data_base = rb.add(SP_HDR);
            let marker = if self.in_overflow { 0 } else { REC_HDR };
            if self.spill_tail + marker + need > self.spill_cap {
                // Cap reached: the caller drains the tail with a
                // checkpoint (bounded backpressure) or aborts — never
                // a panic, never a dropped record.
                self.obs.full_stalls += 1;
                return Err(TxnError::LogOverflow);
            }
            if !self.in_overflow {
                // First spill of this transaction: write its marker so
                // the recovery-time tail scan can attribute and
                // CRC-validate the records that follow.
                let m = data_base.add(self.spill_tail);
                self.dev.trace_emit(Event::LogRange {
                    thread: ctx.thread_id,
                    addr: m.0,
                    len: REC_HDR,
                });
                self.write_record(
                    m,
                    REC_TXN_MARKER,
                    0,
                    0,
                    self.cur_tid,
                    0,
                    &[],
                    self.cur_tid,
                    ctx,
                );
                if self.flush_logs {
                    self.dev.flush_range(m, REC_HDR, ctx);
                }
                self.spill_tail += REC_HDR;
                self.txn_spill_start = self.spill_tail;
                self.in_overflow = true;
                self.dev.store_u64(
                    h.add(S_OVF_ADDR),
                    data_base.add(self.txn_spill_start).0,
                    ctx,
                );
                self.obs.overflow_spills += 1;
                self.obs.overflow_spill_bytes += REC_HDR;
            }
            self.obs.overflow_spill_bytes += need;
            let a = data_base.add(self.spill_tail);
            self.spill_tail += need;
            self.dev.store_u64(
                h.add(S_OVF_LEN),
                self.spill_tail - self.txn_spill_start,
                ctx,
            );
            a
        };
        self.dev.trace_emit(Event::LogRange {
            thread: ctx.thread_id,
            addr: addr.0,
            len: need,
        });
        self.write_record(
            addr,
            rec.kind.code(),
            rec.table,
            rec.tuple,
            rec.key,
            rec.off,
            rec.data,
            self.cur_tid,
            ctx,
        );
        if self.in_overflow {
            // Mirror the durable tail *after* the record bytes so the
            // tail never claims bytes that were not yet written.
            let rb = self.spill.expect("in_overflow implies region");
            self.dev.store_u64(rb.add(SP_TAIL), self.spill_tail, ctx);
        }
        if self.flush_logs {
            self.dev.flush_range(addr, need, ctx);
            if let Some(rb) = self.spill.filter(|_| self.in_overflow) {
                self.dev.clwb(rb, ctx);
            }
            // The length bump must be durable before the caller acts on
            // this record (publishing an index entry, say): a crash
            // after the entry's write-back but before the header's
            // would leave recovery an empty slot and nothing to undo.
            // Flushing bytes first keeps the torn-append invariant —
            // at any cut, `len` never covers bytes that missed media.
            self.dev.clwb(h, ctx);
        }
        self.obs.appends += 1;
        self.obs.append_bytes += need;
        Ok(())
    }

    /// Snapshot the append cursor so a just-appended record can be
    /// retracted if the operation it covers then fails to take effect
    /// (e.g. an insert whose index entry turns out to be a duplicate).
    pub fn mark(&self) -> AppendMark {
        AppendMark {
            write_pos: self.write_pos,
            spill_tail: self.spill_tail,
            in_overflow: self.in_overflow,
            txn_spill_start: self.txn_spill_start,
        }
    }

    /// Roll the append cursor back to `mark`, retracting every record
    /// appended after it. The slot is still `UNCOMMITTED`, so a crash
    /// on either side of the retraction is safe: the record describes
    /// an insert that was never published (its undo is a no-op). Spill
    /// bytes past the mark belong to the current transaction only (the
    /// single-writer invariant), so rolling the shared tail back cannot
    /// clip another transaction's records.
    pub fn retract(&mut self, mark: AppendMark, ctx: &mut MemCtx) {
        self.write_pos = mark.write_pos;
        self.spill_tail = mark.spill_tail;
        self.in_overflow = mark.in_overflow;
        self.txn_spill_start = mark.txn_spill_start;
        let h = slot_hdr(self.base, self.cur);
        self.dev.store_u64(h.add(S_LEN), self.write_pos, ctx);
        let ovf_len = if self.in_overflow {
            self.spill_tail - self.txn_spill_start
        } else {
            0
        };
        self.dev.store_u64(h.add(S_OVF_LEN), ovf_len, ctx);
        if let Some(rb) = self.spill {
            self.dev.store_u64(rb.add(SP_TAIL), self.spill_tail, ctx);
            if self.flush_logs {
                self.dev.clwb(rb, ctx);
            }
        }
        if self.flush_logs {
            self.dev.clwb(h, ctx);
        }
    }

    /// Commit: order the log writes, then stamp the slot `COMMITTED`
    /// (Algorithm 1, line 2).
    pub fn commit(&mut self, ctx: &mut MemCtx) {
        let h = slot_hdr(self.base, self.cur);
        // The fence orders log records before the commit state; in ADR
        // mode (conventional log) it also drains the clwb'd records.
        self.dev.sfence(ctx);
        self.dev.trace_emit(Event::CommitRecord {
            thread: ctx.thread_id,
            addr: h.add(S_STATE).0,
        });
        self.dev.store_u64(h.add(S_STATE), COMMITTED, ctx);
        if self.flush_logs {
            self.dev.clwb(h, ctx);
            self.dev.sfence(ctx);
        }
    }

    /// Group-commit variant of [`LogWindow::commit`]: stamp the slot
    /// `COMMITTED` with no fences of its own. The caller (the engine's
    /// group-commit loop) issues one `sfence` for the whole batch via
    /// `Engine::group_fence`, amortizing the ordering point across many
    /// transactions. Only legal for the small log window (`flush_logs`
    /// is false) under eADR, where the stamp is persistent the moment
    /// it is stored — an NVM log must drain its clwb'd records before
    /// the stamp and cannot defer.
    pub fn commit_deferred(&mut self, ctx: &mut MemCtx) {
        debug_assert!(
            !self.flush_logs,
            "commit_deferred is only sound for the small log window"
        );
        let h = slot_hdr(self.base, self.cur);
        self.dev.trace_emit(Event::CommitRecord {
            thread: ctx.thread_id,
            addr: h.add(S_STATE).0,
        });
        self.dev.store_u64(h.add(S_STATE), COMMITTED, ctx);
    }

    /// The in-place apply finished: the slot becomes reusable. The
    /// transaction is over, so its spill extent (if any) is no longer
    /// live — clearing `in_overflow` here is what lets a boundary
    /// checkpoint running right after `finish` truncate the tail.
    pub fn finish(&mut self, ctx: &mut MemCtx) {
        let h = slot_hdr(self.base, self.cur);
        self.dev.store_u64(h.add(S_STATE), FREE, ctx);
        self.in_overflow = false;
    }

    /// Abort: discard the log (the caller has already undone any index
    /// inserts).
    pub fn abort(&mut self, ctx: &mut MemCtx) {
        self.finish(ctx);
    }

    /// Whether the current transaction spilled to the overflow region.
    pub fn overflowed(&self) -> bool {
        self.in_overflow
    }

    /// Live bytes in the persistent spill tail (0 when nothing spilled
    /// since the last truncation).
    pub fn spill_tail(&self) -> u64 {
        self.spill_tail
    }

    /// The spill region's backpressure cap (configured value until the
    /// region is allocated, formatted value after).
    pub fn spill_cap(&self) -> u64 {
        if self.spill.is_some() {
            self.spill_cap
        } else {
            self.spill_cap_cfg
        }
    }

    /// Durably reset the spill tail to zero, reclaiming every spilled
    /// byte behind it. Only legal between transactions or while the
    /// current transaction has no spill records (`!overflowed()`): a
    /// mid-spill truncation would clip the live transaction's own
    /// extent. Returns the bytes reclaimed.
    pub fn truncate_spill(&mut self, ctx: &mut MemCtx) -> u64 {
        debug_assert!(!self.in_overflow, "cannot truncate under a live spill");
        if self.in_overflow || self.spill_tail == 0 {
            return 0;
        }
        let freed = self.spill_tail;
        self.spill_tail = 0;
        if let Some(rb) = self.spill {
            self.dev.store_u64(rb.add(SP_TAIL), 0, ctx);
            self.dev.clwb_if_adr(rb, ctx);
            self.dev.sfence(ctx);
        }
        freed
    }

    /// Compact the spill region mid-transaction: slide the current
    /// transaction's live extent (its marker plus records) down to
    /// offset 0, reclaiming the dead prefix left by already-finished
    /// transactions. This is the backpressure escape hatch when the cap
    /// is hit *after* this transaction already spilled — truncation
    /// would clip its own redo, but the dead prefix is still
    /// reclaimable. Returns the bytes reclaimed.
    ///
    /// Crash-safe at every cut: the live extent belongs to an
    /// `UNCOMMITTED` slot (recovery discards it), the dead prefix
    /// described transactions whose slots are already `FREE` (recovery
    /// never replays them), and the durable tail is only lowered after
    /// the moved bytes are in place.
    pub fn compact_spill(&mut self, ctx: &mut MemCtx) -> u64 {
        if !self.in_overflow {
            return self.truncate_spill(ctx);
        }
        // The live extent starts at this transaction's marker.
        let m0 = self.txn_spill_start - REC_HDR;
        if m0 == 0 {
            return 0;
        }
        let rb = self.spill.expect("in_overflow implies region");
        let data_base = rb.add(SP_HDR);
        let live = self.spill_tail - m0;
        // Slide down in chunks; destination is strictly below source,
        // so an ascending copy never reads clobbered bytes.
        let mut buf = [0u8; 4096];
        let mut off = 0;
        while off < live {
            let n = (live - off).min(buf.len() as u64) as usize;
            self.dev.read(data_base.add(m0 + off), &mut buf[..n], ctx);
            self.dev.trace_emit(Event::LogRange {
                thread: ctx.thread_id,
                addr: data_base.add(off).0,
                len: n as u64,
            });
            self.dev.write(data_base.add(off), &buf[..n], ctx);
            if self.flush_logs {
                self.dev.flush_range(data_base.add(off), n as u64, ctx);
            }
            off += n as u64;
        }
        self.spill_tail = live;
        self.txn_spill_start = REC_HDR;
        // Re-point the slot's overflow extent at the new location.
        let h = slot_hdr(self.base, self.cur);
        self.dev
            .store_u64(h.add(S_OVF_ADDR), data_base.add(REC_HDR).0, ctx);
        // Lower the durable tail only after the bytes moved.
        self.dev.store_u64(rb.add(SP_TAIL), live, ctx);
        self.dev.clwb_if_adr(rb, ctx);
        self.dev.sfence(ctx);
        m0
    }
}

impl core::fmt::Debug for LogWindow {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("LogWindow")
            .field("base", &self.base)
            .field("slots", &self.slots)
            .field("slot_bytes", &self.slot_bytes)
            .finish()
    }
}

#[inline]
fn slot_hdr(base: PAddr, slot: usize) -> PAddr {
    base.add(W_HDR + slot as u64 * SLOT_HDR)
}

/// Mark every slot of a window `FREE` (recovery calls this after
/// replaying/discarding the slots, so a reopened engine starts from a
/// clean window).
pub fn clear_window(dev: &PmemDevice, base: PAddr, ctx: &mut MemCtx) {
    let slots = dev.load_u64(base.add(W_SLOTS), ctx) as usize;
    for s in 0..slots {
        dev.store_u64(slot_hdr(base, s).add(S_STATE), FREE, ctx);
    }
}

/// Payload base of `slot` in a window with the given geometry (public
/// so crash tests can aim targeted corruption at record bytes).
pub fn slot_payload(base: PAddr, slots: u64, slot_bytes: u64, slot: u64) -> PAddr {
    base.add(W_HDR + slots * SLOT_HDR + slot * slot_bytes)
}

fn corrupt(msg: String) -> EngineError {
    EngineError::Corrupt(msg)
}

/// Decode a whole window from NVM (recovery path). Reads bypass the
/// cache model via `media`-accurate CPU state — after a crash the image
/// is the durable state, so plain reads through the cost model are used
/// to account the (small) recovery cost honestly.
///
/// The window geometry is validated before anything is dereferenced: a
/// corrupt header (absurd slot count, extent beyond the device) yields
/// [`EngineError::Corrupt`] instead of a panic or wild reads. Damage
/// *inside* a slot's record stream is non-fatal: the valid prefix is
/// salvaged and the loss is counted in [`SlotImage::torn_records`] /
/// [`SlotImage::corrupt_records`].
pub fn read_window(
    dev: &PmemDevice,
    base: PAddr,
    ctx: &mut MemCtx,
) -> Result<Vec<SlotImage>, EngineError> {
    let cap = dev.capacity();
    if !base.is_aligned(8) || base.0.checked_add(W_HDR).is_none_or(|end| end > cap) {
        return Err(corrupt(format!("log window base {base} out of bounds")));
    }
    let slots = dev.load_u64(base.add(W_SLOTS), ctx);
    let slot_bytes = dev.load_u64(base.add(W_SLOT_BYTES), ctx);
    if slots == 0 || slots > MAX_WINDOW_SLOTS {
        return Err(corrupt(format!(
            "log window at {base} claims {slots} slots (max {MAX_WINDOW_SLOTS})"
        )));
    }
    let extent = slot_bytes
        .checked_add(SLOT_HDR)
        .and_then(|per| per.checked_mul(slots))
        .and_then(|body| body.checked_add(W_HDR))
        .and_then(|total| base.0.checked_add(total));
    if extent.is_none_or(|end| end > cap) {
        return Err(corrupt(format!(
            "log window at {base} ({slots} slots x {slot_bytes} B) exceeds device capacity {cap}"
        )));
    }
    // The persistent spill region, when present and readable:
    // (data base, durable tail, data capacity). A damaged region header
    // falls back to the legacy per-slot bounds checks — salvage, never
    // a wild read.
    let spill_region = read_spill_region(dev, base, ctx);
    let mut out = Vec::with_capacity(slots as usize);
    for s in 0..slots {
        let h = slot_hdr(base, s as usize);
        let state = dev.load_u64(h.add(S_STATE), ctx);
        let tid = dev.load_u64(h.add(S_TID), ctx);
        let mut len = dev.load_u64(h.add(S_LEN), ctx);
        let ovf_addr = dev.load_u64(h.add(S_OVF_ADDR), ctx);
        let ovf_len = dev.load_u64(h.add(S_OVF_LEN), ctx);
        let mut records = Vec::new();
        let mut torn = 0u64;
        let mut corrupt_n = 0u64;
        let mut truncated = 0u64;
        match state {
            FREE => {}
            UNCOMMITTED | COMMITTED => {
                let committed = state == COMMITTED;
                if len > slot_bytes {
                    // The length word itself is damaged; clamp and let
                    // the CRCs find the true valid prefix.
                    corrupt_n += 1;
                    len = slot_bytes;
                }
                let payload = slot_payload(base, slots, slot_bytes, s);
                let d = decode_records(dev, payload, len, tid, committed, &mut records, ctx);
                torn += d.torn;
                corrupt_n += d.corrupt;
                if ovf_addr != 0 {
                    let mut handled = false;
                    if let Some((data_base, tail, sp_cap)) = spill_region {
                        let in_region = ovf_addr >= data_base.0
                            && ovf_addr
                                .checked_sub(data_base.0)
                                .is_some_and(|o| o < sp_cap);
                        if in_region {
                            // Decode only up to the region's durable
                            // tail: an extent reaching past it was
                            // truncated behind a published checkpoint —
                            // counted, non-fatal, and distinct from
                            // corruption.
                            let off = ovf_addr - data_base.0;
                            let avail = tail.saturating_sub(off);
                            let use_len = ovf_len.min(avail);
                            if ovf_len > avail {
                                truncated += 1;
                            }
                            let d = decode_records(
                                dev,
                                PAddr(ovf_addr),
                                use_len,
                                tid,
                                committed,
                                &mut records,
                                ctx,
                            );
                            torn += d.torn;
                            corrupt_n += d.corrupt;
                            handled = true;
                        }
                    }
                    if !handled {
                        let ovf_ok = ovf_addr.is_multiple_of(8)
                            && ovf_len <= cap
                            && ovf_addr.checked_add(ovf_len).is_some_and(|end| end <= cap);
                        if ovf_ok {
                            let d = decode_records(
                                dev,
                                PAddr(ovf_addr),
                                ovf_len,
                                tid,
                                committed,
                                &mut records,
                                ctx,
                            );
                            torn += d.torn;
                            corrupt_n += d.corrupt;
                        } else {
                            // Overflow pointer is garbage: everything that
                            // spilled is unrecoverable.
                            corrupt_n += 1;
                        }
                    }
                }
            }
            _ => {
                // A state word outside the protocol: the slot header was
                // hit by media corruption. Nothing can be trusted.
                corrupt_n += 1;
            }
        }
        out.push(SlotImage {
            state,
            tid,
            records,
            torn_records: torn,
            corrupt_records: corrupt_n,
            spill_truncated_refs: truncated,
        });
    }
    Ok(out)
}

/// Read and validate a window's spill-region header. Returns
/// `(data base, durable tail, data capacity)` when the region exists
/// and its header is internally consistent; `None` otherwise.
fn read_spill_region(dev: &PmemDevice, base: PAddr, ctx: &mut MemCtx) -> Option<(PAddr, u64, u64)> {
    let cap = dev.capacity();
    // The window base itself may be garbage (scan_spill can run before
    // read_window's geometry validation): bounds-check before loading.
    if !base.is_aligned(8) || base.0.checked_add(W_HDR).is_none_or(|end| end > cap) {
        return None;
    }
    let reg = dev.load_u64(base.add(W_SPILL), ctx);
    if reg == 0 || !reg.is_multiple_of(8) || reg.checked_add(SP_HDR).is_none_or(|e| e > cap) {
        return None;
    }
    let rb = PAddr(reg);
    if dev.load_u64(rb.add(SP_MAGIC), ctx) != SP_MAGIC_V {
        return None;
    }
    let sp_cap = dev.load_u64(rb.add(SP_CAP), ctx);
    let tail = dev.load_u64(rb.add(SP_TAIL), ctx);
    let extent_ok = tail <= sp_cap
        && reg
            .checked_add(SP_HDR)
            .and_then(|d| d.checked_add(sp_cap))
            .is_some_and(|end| end <= cap);
    if !extent_ok {
        return None;
    }
    Some((rb.add(SP_HDR), tail, sp_cap))
}

/// What a recovery-time spill-tail scan found.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpillScan {
    /// Bytes walked (marker + record headers + padded payloads).
    pub bytes: u64,
    /// Records validated (including transaction markers).
    pub records: u64,
    /// Durable tail of the region at scan time.
    pub tail: u64,
    /// Whether the walk stopped at damage before reaching the tail.
    pub damaged: bool,
}

/// Walk the spill region of the window at `base` from the checkpoint
/// `mark` to the durable tail, CRC-validating every record. This is the
/// bounded O(active-window) part of recovery: everything behind `mark`
/// was captured by a published checkpoint and is never read.
///
/// Scan-start rule: `tail >= mark` means no truncation happened since
/// the mark was published — scan `[mark, tail)`. `tail < mark` means
/// the tail was truncated after the publish (crash between publish and
/// the next checkpoint) — the live bytes start at 0, so scan
/// `[0, tail)`. Either way the scan is bounded by the active tail.
///
/// Returns `None` when the window has no spill region (or its header is
/// unreadable — the caller falls back to per-slot salvage).
pub fn scan_spill(dev: &PmemDevice, base: PAddr, mark: u64, ctx: &mut MemCtx) -> Option<SpillScan> {
    let (data_base, tail, _cap) = read_spill_region(dev, base, ctx)?;
    let start = if tail >= mark { mark } else { 0 };
    let mut scan = SpillScan {
        tail,
        ..SpillScan::default()
    };
    let mut pos = start;
    let mut cur_tid: Option<u64> = None;
    while pos < tail {
        if pos + REC_HDR > tail {
            scan.damaged = true;
            break;
        }
        let mut hdr = [0u8; REC_HDR as usize];
        dev.read(data_base.add(pos), &mut hdr, ctx);
        let word = |i: usize| u64::from_le_bytes(hdr[i * 8..i * 8 + 8].try_into().unwrap());
        let kind_code = word(0);
        let data_len = word(5);
        let stored_crc = word(6);
        if data_len > MAX_REC_DATA || pos + REC_HDR + pad8(data_len) > tail {
            scan.damaged = true;
            break;
        }
        let seed = if kind_code == REC_TXN_MARKER {
            // A marker's CRC is seeded with its own TID (carried in the
            // key word), making it self-validating.
            word(3)
        } else {
            match cur_tid {
                Some(t) => t,
                None => {
                    // Data record with no preceding marker: the stream
                    // does not start at a transaction boundary.
                    scan.damaged = true;
                    break;
                }
            }
        };
        let mut data = vec![0u8; data_len as usize];
        if data_len > 0 {
            dev.read(data_base.add(pos + REC_HDR), &mut data, ctx);
        }
        let st = crc::update(0xFFFF_FFFF, &seed.to_le_bytes());
        let st = crc::update(st, &hdr[..48]);
        if u64::from(crc::update(st, &data) ^ 0xFFFF_FFFF) != stored_crc {
            scan.damaged = true;
            break;
        }
        if kind_code == REC_TXN_MARKER {
            cur_tid = Some(word(3));
        } else if RedoKind::from_code(kind_code).is_none() {
            scan.damaged = true;
            break;
        }
        scan.records += 1;
        let sz = REC_HDR + pad8(data_len);
        scan.bytes += sz;
        pos += sz;
    }
    Some(scan)
}

/// Durably reset the spill tail of the window at `base` to zero
/// (recovery calls this after replay, alongside [`clear_window`]: every
/// replayed slot is freed, so all spilled bytes are dead). Returns the
/// bytes reclaimed. A missing or unreadable region reclaims nothing.
pub fn reset_spill_tail(dev: &PmemDevice, base: PAddr, ctx: &mut MemCtx) -> u64 {
    let Some((data_base, tail, _cap)) = read_spill_region(dev, base, ctx) else {
        return 0;
    };
    let rb = PAddr(data_base.0 - SP_HDR);
    dev.store_u64(rb.add(SP_TAIL), 0, ctx);
    tail
}

/// Damage found while decoding one record stream.
#[derive(Debug, Clone, Copy, Default)]
struct StreamDamage {
    torn: u64,
    corrupt: u64,
}

/// Decode records until the stream ends or damage is found; only the
/// valid prefix reaches `out`.
///
/// Classification: in an **uncommitted** slot any damage is *torn* — the
/// power cut interrupted an append, the expected (and harmless) case. In
/// a **committed** slot every record was durable before the commit state
/// could be, so mid-stream damage is *corruption* (bit-rot); only damage
/// on the final claimed record is still classified torn, covering a
/// commit word that raced its last append to the media (the ADR
/// small-window hazard falcon-check's R1 rule flags).
fn decode_records(
    dev: &PmemDevice,
    base: PAddr,
    len: u64,
    tid: u64,
    committed: bool,
    out: &mut Vec<RedoOwned>,
    ctx: &mut MemCtx,
) -> StreamDamage {
    let mut dmg = StreamDamage::default();
    let mut pos = 0u64;
    while pos < len {
        if pos + REC_HDR > len {
            // Trailing bytes too short for a header: torn append.
            dmg.torn += 1;
            break;
        }
        let mut hdr = [0u8; REC_HDR as usize];
        dev.read(base.add(pos), &mut hdr, ctx);
        let word = |i: usize| u64::from_le_bytes(hdr[i * 8..i * 8 + 8].try_into().unwrap());
        let kind = RedoKind::from_code(word(0));
        let data_len = word(5);
        let stored_crc = word(6);
        // `extent_ok` bounds the payload before any allocation.
        let extent_ok = data_len <= MAX_REC_DATA && pos + REC_HDR + pad8(data_len) <= len;
        let mut data = Vec::new();
        let mut ok = extent_ok && kind.is_some();
        if ok {
            data = vec![0u8; data_len as usize];
            if data_len > 0 {
                dev.read(base.add(pos + REC_HDR), &mut data, ctx);
            }
            let st = crc::update(0xFFFF_FFFF, &tid.to_le_bytes());
            let st = crc::update(st, &hdr[..48]);
            ok = u64::from(crc::update(st, &data) ^ 0xFFFF_FFFF) == stored_crc;
        }
        if !ok {
            let final_rec = !extent_ok || pos + REC_HDR + pad8(data_len) >= len;
            if !committed || final_rec {
                dmg.torn += 1;
            } else {
                dmg.corrupt += 1;
            }
            break;
        }
        out.push(RedoOwned {
            kind: kind.expect("checked"),
            table: word(1) as u32,
            tuple: word(2),
            key: word(3),
            off: word(4) as u32,
            data,
        });
        pos += REC_HDR + pad8(data_len);
    }
    dmg
}

#[cfg(test)]
mod tests {
    use super::*;
    use falcon_storage::layout::format;
    use pmem_sim::SimConfig;

    fn setup() -> (NvmAllocator, Catalog, MemCtx) {
        let dev = PmemDevice::new(SimConfig::small().with_capacity(128 << 20)).unwrap();
        format(&dev).unwrap();
        let mut ctx = MemCtx::new(0);
        let cat = Catalog::open(dev.clone(), &mut ctx).unwrap();
        (NvmAllocator::new(dev), cat, ctx)
    }

    fn rec(kind: RedoKind, tuple: u64, data: &[u8]) -> RedoRecord<'_> {
        RedoRecord {
            kind,
            table: 1,
            tuple,
            key: tuple * 10,
            off: 4,
            data,
        }
    }

    #[test]
    fn append_commit_decode_roundtrip() {
        let (alloc, cat, mut ctx) = setup();
        let mut w = LogWindow::create(&alloc, &cat, 0, 3, 4096, false, &mut ctx).unwrap();
        w.begin_txn(0x4200, &mut ctx);
        w.append(&rec(RedoKind::Update, 100, b"hello--1"), &mut ctx)
            .unwrap();
        w.append(&rec(RedoKind::Insert, 200, b"row-bytes-here"), &mut ctx)
            .unwrap();
        w.append(&rec(RedoKind::Delete, 300, b""), &mut ctx)
            .unwrap();
        w.commit(&mut ctx);

        let slots = read_window(alloc.device(), w.base(), &mut ctx).unwrap();
        assert_eq!(slots.len(), 3);
        let committed: Vec<_> = slots.iter().filter(|s| s.state == COMMITTED).collect();
        assert_eq!(committed.len(), 1);
        let s = committed[0];
        assert_eq!(s.tid, 0x4200);
        assert_eq!(s.records.len(), 3);
        assert_eq!(s.records[0].kind, RedoKind::Update);
        assert_eq!(s.records[0].data, b"hello--1");
        assert_eq!(s.records[0].off, 4);
        assert_eq!(s.records[1].kind, RedoKind::Insert);
        assert_eq!(s.records[1].data, b"row-bytes-here");
        assert_eq!(s.records[1].tuple, 200);
        assert_eq!(s.records[1].key, 2000);
        assert_eq!(s.records[2].kind, RedoKind::Delete);
    }

    #[test]
    fn slots_cycle_and_free() {
        let (alloc, cat, mut ctx) = setup();
        let mut w = LogWindow::create(&alloc, &cat, 0, 3, 1024, false, &mut ctx).unwrap();
        for t in 0..10u64 {
            w.begin_txn(t, &mut ctx);
            w.append(&rec(RedoKind::Update, t, b"12345678"), &mut ctx)
                .unwrap();
            w.commit(&mut ctx);
            w.finish(&mut ctx);
        }
        let slots = read_window(alloc.device(), w.base(), &mut ctx).unwrap();
        assert!(slots.iter().all(|s| s.state == FREE));
    }

    #[test]
    fn uncommitted_slot_visible_after_crash() {
        let (alloc, cat, mut ctx) = setup();
        let mut w = LogWindow::create(&alloc, &cat, 0, 3, 1024, false, &mut ctx).unwrap();
        w.begin_txn(7, &mut ctx);
        w.append(&rec(RedoKind::Insert, 1, b"abcdefgh"), &mut ctx)
            .unwrap();
        // No commit: crash now.
        alloc.device().crash();
        let slots = read_window(alloc.device(), w.base(), &mut ctx).unwrap();
        let unc: Vec<_> = slots.iter().filter(|s| s.state == UNCOMMITTED).collect();
        assert_eq!(unc.len(), 1);
        assert_eq!(unc[0].records.len(), 1, "records recoverable for undo");
    }

    #[test]
    fn window_contents_survive_eadr_crash_without_flush() {
        // The core D1 claim: no clwb anywhere, yet the committed log is
        // durable because the cache is in the persistence domain.
        let (alloc, cat, mut ctx) = setup();
        let mut w = LogWindow::create(&alloc, &cat, 0, 3, 4096, false, &mut ctx).unwrap();
        w.begin_txn(99, &mut ctx);
        w.append(&rec(RedoKind::Update, 5, b"durable!"), &mut ctx)
            .unwrap();
        w.commit(&mut ctx);
        assert_eq!(ctx.stats.clwb_issued, 0, "small window never flushes");
        alloc.device().crash();
        let slots = read_window(alloc.device(), w.base(), &mut ctx).unwrap();
        let c: Vec<_> = slots.iter().filter(|s| s.state == COMMITTED).collect();
        assert_eq!(c.len(), 1);
        assert_eq!(c[0].records[0].data, b"durable!");
    }

    #[test]
    fn conventional_log_flushes() {
        let (alloc, cat, mut ctx) = setup();
        let mut w = LogWindow::create(&alloc, &cat, 0, 3, 64 << 10, true, &mut ctx).unwrap();
        w.begin_txn(1, &mut ctx);
        w.append(&rec(RedoKind::Update, 5, &[7u8; 256]), &mut ctx)
            .unwrap();
        w.commit(&mut ctx);
        assert!(ctx.stats.clwb_issued > 0, "NvmLog flushes records");
        assert!(ctx.stats.sfences >= 2);
    }

    #[test]
    fn overflow_spills_and_replays() {
        let (alloc, cat, mut ctx) = setup();
        // Slot of 1 KB; a 4 KB record must spill.
        let mut w = LogWindow::create(&alloc, &cat, 0, 3, 1024, false, &mut ctx).unwrap();
        w.begin_txn(11, &mut ctx);
        let small = vec![1u8; 512];
        let big = vec![2u8; 4096];
        w.append(&rec(RedoKind::Update, 1, &small), &mut ctx)
            .unwrap();
        assert!(!w.overflowed());
        w.append(&rec(RedoKind::Update, 2, &big), &mut ctx).unwrap();
        assert!(w.overflowed());
        w.append(&rec(RedoKind::Update, 3, &small), &mut ctx)
            .unwrap();
        w.commit(&mut ctx);

        let slots = read_window(alloc.device(), w.base(), &mut ctx).unwrap();
        let s = slots.iter().find(|s| s.state == COMMITTED).unwrap();
        assert_eq!(s.records.len(), 3);
        assert_eq!(s.records[1].data, big);
        assert_eq!(s.records[2].data, small);
        assert_eq!(
            s.records.iter().map(|r| r.tuple).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
    }

    /// A committed slot with one valid record and a second, torn one.
    fn one_committed_slot(slot_bytes: u64) -> (NvmAllocator, LogWindow, MemCtx) {
        let (alloc, cat, mut ctx) = setup();
        let mut w = LogWindow::create(&alloc, &cat, 0, 3, slot_bytes, false, &mut ctx).unwrap();
        w.begin_txn(0x4200, &mut ctx);
        w.append(&rec(RedoKind::Update, 100, b"first--1"), &mut ctx)
            .unwrap();
        w.append(&rec(RedoKind::Update, 200, b"second-2"), &mut ctx)
            .unwrap();
        w.commit(&mut ctx);
        (alloc, w, ctx)
    }

    #[test]
    fn torn_final_record_in_committed_slot_salvages_prefix() {
        // The acceptance case: the commit word raced the last append to
        // the media, so the final record's bytes are garbage. Replay must
        // classify it *torn*, keep the valid prefix, and not panic.
        let (alloc, w, mut ctx) = one_committed_slot(4096);
        // begin_txn advanced cur 0 → 1: records live in slot 1's payload.
        let payload = slot_payload(w.base(), 3, 4096, 1);
        let rec1_len = REC_HDR + pad8(8);
        // Smash the second record's payload bytes (CRC now mismatches).
        alloc
            .device()
            .write(payload.add(rec1_len + REC_HDR), &[0xEE; 8], &mut ctx);
        let slots = read_window(alloc.device(), w.base(), &mut ctx).unwrap();
        let s = slots.iter().find(|s| s.state == COMMITTED).unwrap();
        assert_eq!(s.torn_records, 1);
        assert_eq!(s.corrupt_records, 0);
        assert!(s.damaged());
        assert_eq!(s.records.len(), 1, "valid prefix salvaged");
        assert_eq!(s.records[0].data, b"first--1");
    }

    #[test]
    fn midstream_damage_in_committed_slot_is_corruption() {
        // Bit-rot inside a record the commit protocol had made durable:
        // not a torn tail, a media fault.
        let (alloc, w, mut ctx) = one_committed_slot(4096);
        let payload = slot_payload(w.base(), 3, 4096, 1);
        alloc
            .device()
            .write(payload.add(REC_HDR), &[0xEE], &mut ctx);
        let slots = read_window(alloc.device(), w.base(), &mut ctx).unwrap();
        let s = slots.iter().find(|s| s.state == COMMITTED).unwrap();
        assert_eq!(s.corrupt_records, 1);
        assert_eq!(s.torn_records, 0);
        assert!(s.records.is_empty(), "decoding stops at the damage");
    }

    #[test]
    fn damage_in_uncommitted_slot_is_always_torn() {
        let (alloc, cat, mut ctx) = setup();
        let mut w = LogWindow::create(&alloc, &cat, 0, 3, 4096, false, &mut ctx).unwrap();
        w.begin_txn(5, &mut ctx);
        w.append(&rec(RedoKind::Update, 1, b"aaaaaaaa"), &mut ctx)
            .unwrap();
        w.append(&rec(RedoKind::Update, 2, b"bbbbbbbb"), &mut ctx)
            .unwrap();
        // No commit. Smash the *first* record: still torn, not corrupt —
        // nothing in an uncommitted slot was promised durable.
        let payload = slot_payload(w.base(), 3, 4096, 1);
        alloc.device().write(payload.add(8), &[0xEE], &mut ctx);
        let slots = read_window(alloc.device(), w.base(), &mut ctx).unwrap();
        let s = slots.iter().find(|s| s.state == UNCOMMITTED).unwrap();
        assert_eq!(s.torn_records, 1);
        assert_eq!(s.corrupt_records, 0);
    }

    #[test]
    fn truncated_length_word_is_clamped_not_panicked() {
        let (alloc, w, mut ctx) = one_committed_slot(4096);
        let h = slot_hdr(w.base(), 1);
        // Claim a stream far longer than the slot.
        alloc.device().store_u64(h.add(S_LEN), 4096 * 100, &mut ctx);
        let slots = read_window(alloc.device(), w.base(), &mut ctx).unwrap();
        let s = slots.iter().find(|s| s.state == COMMITTED).unwrap();
        assert!(s.corrupt_records >= 1, "length damage counted");
        assert_eq!(s.records.len(), 2, "real records still decode");
    }

    #[test]
    fn unknown_state_word_is_counted_not_decoded() {
        let (alloc, w, mut ctx) = one_committed_slot(4096);
        let h = slot_hdr(w.base(), 1);
        alloc.device().store_u64(h.add(S_STATE), 0xDEAD, &mut ctx);
        let slots = read_window(alloc.device(), w.base(), &mut ctx).unwrap();
        let s = slots.iter().find(|s| s.state == 0xDEAD).unwrap();
        assert_eq!(s.corrupt_records, 1);
        assert!(s.records.is_empty());
    }

    #[test]
    fn absurd_window_header_is_an_error_not_a_panic() {
        let (alloc, w, mut ctx) = one_committed_slot(4096);
        let dev = alloc.device();
        // Slot count beyond any plausible configuration.
        dev.store_u64(w.base().add(W_SLOTS), 1 << 40, &mut ctx);
        assert!(read_window(dev, w.base(), &mut ctx).is_err());
        // Geometry that claims more bytes than the device holds.
        dev.store_u64(w.base().add(W_SLOTS), 3, &mut ctx);
        dev.store_u64(w.base().add(W_SLOT_BYTES), u64::MAX / 4, &mut ctx);
        assert!(read_window(dev, w.base(), &mut ctx).is_err());
        // Unaligned / out-of-bounds base.
        assert!(read_window(dev, PAddr(3), &mut ctx).is_err());
        assert!(read_window(dev, PAddr(dev.capacity()), &mut ctx).is_err());
    }

    #[test]
    fn garbage_overflow_pointer_is_corruption_not_a_wild_read() {
        let (alloc, w, mut ctx) = one_committed_slot(4096);
        let h = slot_hdr(w.base(), 1);
        let dev = alloc.device();
        dev.store_u64(h.add(S_OVF_ADDR), dev.capacity() + 8, &mut ctx);
        dev.store_u64(h.add(S_OVF_LEN), 1 << 30, &mut ctx);
        let slots = read_window(dev, w.base(), &mut ctx).unwrap();
        let s = slots.iter().find(|s| s.state == COMMITTED).unwrap();
        assert!(s.corrupt_records >= 1);
        assert_eq!(s.records.len(), 2, "in-slot records still salvaged");
    }

    #[test]
    fn spill_tail_persists_across_txns_and_truncates() {
        let (alloc, cat, mut ctx) = setup();
        let mut w = LogWindow::create(&alloc, &cat, 0, 3, 1024, false, &mut ctx).unwrap();
        let big = vec![3u8; 2048];
        let per_txn = REC_HDR + (REC_HDR + pad8(2048)); // marker + record
        for t in 1..=3u64 {
            w.begin_txn(t, &mut ctx);
            w.append(&rec(RedoKind::Update, t, &big), &mut ctx).unwrap();
            w.commit(&mut ctx);
            w.finish(&mut ctx);
            assert_eq!(w.spill_tail(), t * per_txn, "tail accumulates");
        }
        // The durable mirror agrees.
        let reg = alloc.device().load_u64(w.base().add(W_SPILL), &mut ctx);
        assert_ne!(reg, 0);
        assert_eq!(
            alloc.device().load_u64(PAddr(reg).add(SP_TAIL), &mut ctx),
            3 * per_txn
        );
        // Truncate between transactions: durable tail drops to zero.
        let freed = w.truncate_spill(&mut ctx);
        assert_eq!(freed, 3 * per_txn);
        assert_eq!(w.spill_tail(), 0);
        assert_eq!(
            alloc.device().load_u64(PAddr(reg).add(SP_TAIL), &mut ctx),
            0
        );
        // Truncating an empty tail reclaims nothing.
        assert_eq!(w.truncate_spill(&mut ctx), 0);
    }

    #[test]
    fn spill_cap_rejects_with_typed_error_never_drops() {
        let (alloc, cat, mut ctx) = setup();
        let mut w = LogWindow::create(&alloc, &cat, 0, 3, 1024, false, &mut ctx).unwrap();
        w.set_spill_cap(4096);
        w.begin_txn(1, &mut ctx);
        let big = vec![5u8; 2048];
        w.append(&rec(RedoKind::Update, 1, &big), &mut ctx).unwrap();
        assert!(w.overflowed());
        // A second big record exceeds the 4096-byte cap.
        let before = w.mark();
        let err = w.append(&rec(RedoKind::Update, 2, &big), &mut ctx);
        assert!(matches!(err, Err(TxnError::LogOverflow)));
        // The cursor did not move: nothing was half-written.
        let after = w.mark();
        assert_eq!(before.spill_tail, after.spill_tail);
        assert_eq!(before.write_pos, after.write_pos);
        // The first record is still intact and replayable.
        w.commit(&mut ctx);
        let slots = read_window(alloc.device(), w.base(), &mut ctx).unwrap();
        let s = slots.iter().find(|s| s.state == COMMITTED).unwrap();
        assert_eq!(s.records.len(), 1);
        assert_eq!(s.records[0].data, big);
    }

    #[test]
    fn truncated_spill_ref_is_counted_not_corruption() {
        // Satellite: a COMMITTED slot whose overflow extent lies behind
        // the durable tail (truncated behind a published checkpoint)
        // must surface as spill_truncated_refs — not corruption — and
        // the in-slot prefix must still be salvaged.
        let (alloc, cat, mut ctx) = setup();
        let mut w = LogWindow::create(&alloc, &cat, 0, 3, 1024, false, &mut ctx).unwrap();
        w.begin_txn(9, &mut ctx);
        let small = vec![1u8; 256];
        let big = vec![2u8; 2048];
        w.append(&rec(RedoKind::Update, 1, &small), &mut ctx)
            .unwrap();
        w.append(&rec(RedoKind::Update, 2, &big), &mut ctx).unwrap();
        w.commit(&mut ctx);
        // Simulate a checkpoint-truncated tail with the slot still
        // COMMITTED (the crash window between publish and finish of a
        // later state): durably zero SP_TAIL behind the slot's back.
        let reg = alloc.device().load_u64(w.base().add(W_SPILL), &mut ctx);
        alloc
            .device()
            .store_u64(PAddr(reg).add(SP_TAIL), 0, &mut ctx);
        let slots = read_window(alloc.device(), w.base(), &mut ctx).unwrap();
        let s = slots.iter().find(|s| s.state == COMMITTED).unwrap();
        assert_eq!(s.spill_truncated_refs, 1, "truncated ref counted");
        assert_eq!(s.corrupt_records, 0, "not misclassified as corruption");
        assert_eq!(s.torn_records, 0);
        assert_eq!(s.records.len(), 1, "in-slot prefix salvaged");
        assert_eq!(s.records[0].data, small);
    }

    #[test]
    fn scan_spill_walks_markers_and_applies_mark_rule() {
        let (alloc, cat, mut ctx) = setup();
        let mut w = LogWindow::create(&alloc, &cat, 0, 3, 1024, false, &mut ctx).unwrap();
        let big = vec![7u8; 2048];
        let per_txn = REC_HDR + (REC_HDR + pad8(2048));
        for t in 1..=2u64 {
            w.begin_txn(t, &mut ctx);
            w.append(&rec(RedoKind::Update, t, &big), &mut ctx).unwrap();
            w.commit(&mut ctx);
            w.finish(&mut ctx);
        }
        let dev = alloc.device();
        // Full scan from mark 0: 2 markers + 2 records.
        let s = scan_spill(dev, w.base(), 0, &mut ctx).unwrap();
        assert!(!s.damaged);
        assert_eq!(s.records, 4);
        assert_eq!(s.bytes, 2 * per_txn);
        // Scan from the first transaction's end: 1 marker + 1 record.
        let s = scan_spill(dev, w.base(), per_txn, &mut ctx).unwrap();
        assert!(!s.damaged);
        assert_eq!(s.records, 2);
        assert_eq!(s.bytes, per_txn);
        // A mark beyond the tail means the tail was truncated after the
        // publish: the scan restarts from 0 and walks the live bytes.
        let s = scan_spill(dev, w.base(), 10 * per_txn, &mut ctx).unwrap();
        assert_eq!(s.records, 4, "tail < mark rescans from zero");
        // Bit-rot inside a record stops the walk and flags damage.
        let reg = dev.load_u64(w.base().add(W_SPILL), &mut ctx);
        let data0 = PAddr(reg).add(SP_HDR + REC_HDR + REC_HDR);
        dev.write(data0, &[0xEE], &mut ctx);
        let s = scan_spill(dev, w.base(), 0, &mut ctx).unwrap();
        assert!(s.damaged);
        assert_eq!(s.records, 1, "only the first marker validates");
        // A mid-tail mark that lands inside a record (no leading
        // marker) is detected, not misread.
        let s = scan_spill(dev, w.base(), 8, &mut ctx).unwrap();
        assert!(s.damaged);
    }

    #[test]
    fn reset_spill_tail_reclaims_and_reports() {
        let (alloc, cat, mut ctx) = setup();
        let mut w = LogWindow::create(&alloc, &cat, 0, 3, 1024, false, &mut ctx).unwrap();
        let dev = alloc.device();
        // No region yet: nothing to reclaim, no panic.
        assert_eq!(reset_spill_tail(dev, w.base(), &mut ctx), 0);
        w.begin_txn(1, &mut ctx);
        w.append(&rec(RedoKind::Update, 1, &vec![1u8; 2048]), &mut ctx)
            .unwrap();
        w.commit(&mut ctx);
        w.finish(&mut ctx);
        let tail = w.spill_tail();
        assert!(tail > 0);
        assert_eq!(reset_spill_tail(dev, w.base(), &mut ctx), tail);
        assert_eq!(reset_spill_tail(dev, w.base(), &mut ctx), 0);
        // A garbage window base reclaims nothing (bounds-guarded).
        assert_eq!(reset_spill_tail(dev, PAddr(dev.capacity()), &mut ctx), 0);
    }

    #[test]
    fn small_window_stays_cache_resident() {
        // Run many transactions through a small window while streaming
        // unrelated data; the window must cause ~no media writes.
        let dev = PmemDevice::new(SimConfig::small().with_capacity(256 << 20)).unwrap();
        format(&dev).unwrap();
        let mut ctx = MemCtx::new(0);
        let cat = Catalog::open(dev.clone(), &mut ctx).unwrap();
        let alloc = NvmAllocator::new(dev.clone());
        let mut w = LogWindow::create(&alloc, &cat, 0, 3, 8192, false, &mut ctx).unwrap();
        // A large streaming region to pressure the cache.
        let stream = alloc.alloc_contiguous(8, &mut ctx).unwrap();
        ctx.reset();
        let payload = [9u8; 128];
        for t in 0..2000u64 {
            w.begin_txn(t, &mut ctx);
            for r in 0..4u64 {
                w.append(&rec(RedoKind::Update, t * 4 + r, &payload), &mut ctx)
                    .unwrap();
            }
            w.commit(&mut ctx);
            w.finish(&mut ctx);
            // Stream through 4 KB of data between transactions.
            let off = (t * 4096) % (8 * PAGE_SIZE - 4096);
            dev.write(stream.add(off), &[1u8; 512], &mut ctx);
        }
        // The stream dirtied ~2000 × 8 lines; window lines must be a tiny
        // fraction of evictions. Compare media writes to a generous bound
        // proportional to the stream traffic alone.
        let stream_lines = 2000 * (512 / 64);
        assert!(
            ctx.stats.media_block_writes < stream_lines * 2,
            "window logging must not add media writes: {} blocks for ~{} stream lines",
            ctx.stats.media_block_writes,
            stream_lines
        );
    }
}
