//! Incremental fuzzy checkpointing: bounded crash recovery for the
//! persistent overflow-spill log.
//!
//! The small log window (§4.3) keeps per-transaction redo bounded, but
//! the overflow-spill region it drains into is append-only: without
//! reclamation its tail — and with it the recovery-time scan — grows
//! with the *history* of spilling transactions, not with the active
//! window. The checkpoint protocol bounds it:
//!
//! 1. **Write back** the dirty tuple lines that the selective-flush
//!    hot skip left cache-resident (`clwb` under ADR, in ascending line
//!    order; a no-op under eADR, where the cache already sits in the
//!    persistence domain), then fence. After this, every effect the
//!    about-to-be-truncated redo describes is durable without the redo.
//! 2. **Publish** the new snapshot epoch and the spill-tail mark with a
//!    single fenced atomic swing: the `(epoch, mark, crc)` triple goes
//!    to the *inactive* bank of a double-banked per-thread record, is
//!    flushed and fenced, and only then does one 8-byte store swing the
//!    epoch word over to it (flushed and fenced again — the swing store
//!    re-dirties the line). A crash at any instant yields exactly the
//!    pre- or the post-checkpoint record, never a torn mix.
//! 3. **Truncate** the spill region behind the published mark (legal
//!    whenever the current transaction has no live spill extent).
//!
//! Recovery reads the record (CRC-validated; corruption falls back to a
//! full-tail scan — see `CkptRead::Corrupt`), scans only `[mark, tail)`
//! of each spill region, and resets the tails: restart work is
//! O(active window), not O(spill history).
//!
//! The records live in the engine's watermark page: the watermark array
//! occupies its first `MAX_THREADS * 64` bytes, and the checkpoint
//! array starts at [`CKPT_OFF`] in the same (already allocated, zeroed)
//! page — a zeroed swing word reads as "no checkpoint", so pre-existing
//! images stay compatible.

#[cfg(feature = "trace")]
use pmem_sim::trace::Event;
use pmem_sim::{MemCtx, PAddr, PmemDevice};

use falcon_storage::MAX_THREADS;

use crate::crc;
use crate::engine::{Engine, Worker};
use falcon_obs::Phase;

/// Byte offset of the checkpoint-record array from the engine's
/// watermark-page base.
pub const CKPT_OFF: u64 = 4096;

/// Stride of one per-thread checkpoint record (one cache line).
pub const CKPT_STRIDE: u64 = 64;

// Record layout (one 64 B line per thread).
/// Offset of the epoch swing word (0 = no checkpoint published).
pub const CK_SWING: u64 = 0;
/// Offset of bank A — `(epoch, mark, crc)`, used by odd epochs.
pub const CK_BANK_A: u64 = 8;
/// Offset of bank B — `(epoch, mark, crc)`, used by even epochs.
pub const CK_BANK_B: u64 = 32;

/// The checkpoint-record array base for a watermark page at `wm`.
pub fn area_base(wm: PAddr) -> PAddr {
    wm.add(CKPT_OFF)
}

/// The checkpoint area for the watermark page at `wm`, when the address
/// is plausible and the whole record array fits the device; `None`
/// otherwise (a damaged catalog root — recovery then treats the image
/// as having no checkpoints, which is always safe, merely slower).
pub fn area_if_valid(dev: &PmemDevice, wm: PAddr) -> Option<PAddr> {
    let span = CKPT_OFF + MAX_THREADS as u64 * CKPT_STRIDE;
    if wm.0 == 0
        || !wm.0.is_multiple_of(64)
        || wm
            .0
            .checked_add(span)
            .is_none_or(|end| end > dev.capacity())
    {
        return None;
    }
    Some(area_base(wm))
}

/// Address of `thread`'s checkpoint record within `area`.
pub fn record_addr(area: PAddr, thread: usize) -> PAddr {
    area.add(thread as u64 * CKPT_STRIDE)
}

/// Offset of the bank that stores `epoch` (banks alternate by parity,
/// so a publish always writes the bank the *current* record is not
/// reading from).
fn bank_of(epoch: u64) -> u64 {
    if epoch & 1 == 1 {
        CK_BANK_A
    } else {
        CK_BANK_B
    }
}

/// CRC-32C (zero-extended to a word) over `(thread, epoch, mark)`:
/// detects bit-rot in a bank and cross-thread record mixups.
fn rec_crc(thread: usize, epoch: u64, mark: u64) -> u64 {
    let st = crc::update(0xFFFF_FFFF, &(thread as u64).to_le_bytes());
    let st = crc::update(st, &epoch.to_le_bytes());
    u64::from(crc::update(st, &mark.to_le_bytes()) ^ 0xFFFF_FFFF)
}

/// Pseudo-TID a boundary publish is traced under (persistency checker):
/// top bit set so it can never collide with an engine TID.
#[cfg(feature = "trace")]
fn pseudo_tid(thread: usize, epoch: u64) -> u64 {
    0x8000_0000_0000_0000 | ((thread as u64) << 32) | (epoch & 0xFFFF_FFFF)
}

/// What reading a per-thread checkpoint record found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CkptRead {
    /// No checkpoint was ever published (swing word zero).
    None,
    /// A consistent published checkpoint.
    Valid {
        /// The published snapshot epoch.
        epoch: u64,
        /// The spill-tail mark captured by that checkpoint.
        mark: u64,
    },
    /// The swing word points at a bank whose epoch or CRC does not
    /// match: media corruption. The caller must fall back to a full
    /// spill scan (mark 0) — safe, merely unbounded.
    Corrupt,
}

/// Publish `(epoch, mark)` for `thread` with the fenced atomic swing.
///
/// `boundary` publishes (between transactions) are announced to the
/// persistency checker as a pseudo-transaction so the R1–R3 rules audit
/// the ordering; mid-transaction backpressure publishes stay silent (a
/// nested `TxnBegin` would clobber the analyzer's per-thread state).
pub fn publish(
    dev: &PmemDevice,
    area: PAddr,
    thread: usize,
    epoch: u64,
    mark: u64,
    boundary: bool,
    ctx: &mut MemCtx,
) {
    #[cfg(not(feature = "trace"))]
    let _ = boundary;
    let rec = record_addr(area, thread);
    let bank = rec.add(bank_of(epoch));
    #[cfg(feature = "trace")]
    if boundary {
        dev.trace_emit(Event::TxnBegin {
            thread: ctx.thread_id,
            tid: pseudo_tid(thread, epoch),
        });
        dev.trace_emit(Event::LogRange {
            thread: ctx.thread_id,
            addr: bank.0,
            len: 24,
        });
    }
    dev.store_u64(bank, epoch, ctx);
    dev.store_u64(bank.add(8), mark, ctx);
    dev.store_u64(bank.add(16), rec_crc(thread, epoch, mark), ctx);
    #[cfg(feature = "trace")]
    if boundary {
        dev.trace_emit(Event::DurableHint {
            thread: ctx.thread_id,
            addr: bank.0,
            len: 24,
        });
    }
    if !skip_bank_flush() {
        dev.clwb_if_adr(rec, ctx);
    }
    if !skip_pre_swing_fence() {
        dev.sfence(ctx);
    }
    // The swing: one aligned 8-byte store. Readers see the old epoch or
    // the new one; the bank it selects is already durable.
    #[cfg(feature = "trace")]
    if boundary {
        dev.trace_emit(Event::CommitRecord {
            thread: ctx.thread_id,
            addr: rec.0,
        });
    }
    dev.store_u64(rec.add(CK_SWING), epoch, ctx);
    #[cfg(feature = "trace")]
    if boundary {
        dev.trace_emit(Event::DurableHint {
            thread: ctx.thread_id,
            addr: rec.0,
            len: 8,
        });
    }
    // The swing store re-dirtied the record's (single) cache line: under
    // ADR it must be flushed again or the publish could evaporate.
    if !skip_bank_flush() {
        dev.clwb_if_adr(rec, ctx);
    }
    dev.sfence(ctx);
    #[cfg(feature = "trace")]
    if boundary {
        dev.trace_emit(Event::TxnCommit {
            thread: ctx.thread_id,
            tid: pseudo_tid(thread, epoch),
        });
    }
}

/// Read and validate `thread`'s checkpoint record.
pub fn read_record(dev: &PmemDevice, area: PAddr, thread: usize, ctx: &mut MemCtx) -> CkptRead {
    let rec = record_addr(area, thread);
    let swing = dev.load_u64(rec.add(CK_SWING), ctx);
    if swing == 0 {
        return CkptRead::None;
    }
    let bank = rec.add(bank_of(swing));
    let epoch = dev.load_u64(bank, ctx);
    let mark = dev.load_u64(bank.add(8), ctx);
    let sum = dev.load_u64(bank.add(16), ctx);
    if epoch != swing || sum != rec_crc(thread, epoch, mark) {
        return CkptRead::Corrupt;
    }
    CkptRead::Valid { epoch, mark }
}

/// Per-worker checkpoint counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CkptStats {
    /// Checkpoints published by this worker.
    pub published: u64,
    /// Dirty tuple lines written back (drained) by checkpoints.
    pub dirty_writebacks: u64,
    /// Peak size of the deferred dirty-line set.
    pub dirty_peak: u64,
    /// Spill-cap stalls resolved by an inline (backpressure) checkpoint
    /// instead of an abort.
    pub backpressure_stalls: u64,
    /// Spill bytes reclaimed by checkpoint truncation.
    pub spill_bytes_truncated: u64,
    /// Truncations that reclaimed at least one byte.
    pub spill_truncations: u64,
}

/// Run one fuzzy checkpoint on `w`'s log window: write back the
/// deferred dirty lines, publish the epoch + spill mark, truncate the
/// spill tail. A no-op on engines without a window. `boundary` selects
/// whether the publish is traced (see [`publish`]).
pub(crate) fn run(e: &Engine, w: &mut Worker, boundary: bool) {
    if w.window.is_none() {
        return;
    }
    let Some(area) = area_if_valid(&e.dev, e.watermarks) else {
        return;
    };
    let t0 = w.ctx.clock;
    let ap = w.ctx.attr_phase(Phase::Checkpoint as usize);
    // 1. Dirty write-back, fenced before the publish: once the epoch
    // swings, the redo behind the mark may be truncated, so the data it
    // described must already be durable. Drained in ascending line
    // order: the set's iteration order is per-instance random, and
    // under ADR the `clwb` order decides XPBuffer merging and so the
    // virtual clock.
    w.ckpt.dirty_peak = w.ckpt.dirty_peak.max(w.ckpt_dirty.len() as u64);
    let mut lines: Vec<u64> = w.ckpt_dirty.drain().collect();
    lines.sort_unstable();
    for line in lines {
        e.dev.clwb_if_adr(PAddr(line), &mut w.ctx);
        w.ckpt.dirty_writebacks += 1;
    }
    e.dev.sfence(&mut w.ctx);
    // 2 + 3. Publish the fenced atomic swing, then reclaim. With no
    // live spill extent the whole tail dies behind the published mark
    // (truncation). Mid-transaction — a backpressure checkpoint under a
    // transaction that already spilled — truncation would clip the live
    // redo, so the region is compacted around it instead and the mark
    // published as 0: the surviving stream starts at the region base.
    let epoch = w.ckpt_epoch + 1;
    let thread = w.thread;
    let win = w.window.as_mut().expect("checked above");
    let freed = if win.overflowed() {
        publish(&e.dev, area, thread, epoch, 0, boundary, &mut w.ctx);
        win.compact_spill(&mut w.ctx)
    } else {
        let mark = win.spill_tail();
        publish(&e.dev, area, thread, epoch, mark, boundary, &mut w.ctx);
        win.truncate_spill(&mut w.ctx)
    };
    if freed > 0 {
        w.ckpt.spill_bytes_truncated += freed;
        w.ckpt.spill_truncations += 1;
    }
    w.ckpt_epoch = epoch;
    w.ckpt.published += 1;
    w.obs.phase_add(Phase::Checkpoint, w.ctx.clock - t0);
    w.ctx.attr_phase(ap);
}

#[cfg(feature = "trace")]
fn skip_bank_flush() -> bool {
    inject::skip_bank_flush()
}

#[cfg(not(feature = "trace"))]
fn skip_bank_flush() -> bool {
    false
}

#[cfg(feature = "trace")]
fn skip_pre_swing_fence() -> bool {
    inject::skip_pre_swing_fence()
}

#[cfg(not(feature = "trace"))]
fn skip_pre_swing_fence() -> bool {
    false
}

/// Fault-injection toggles for the persistency-checker negative tests:
/// each deliberately elides one ordering step of [`publish`] so the
/// corresponding falcon-check rule (R1/R2 for the flushes, R3 for the
/// pre-swing fence) must fire. Thread-local; test-only by construction
/// (the `trace` feature).
#[cfg(feature = "trace")]
pub mod inject {
    use std::cell::Cell;

    thread_local! {
        static SKIP_BANK_FLUSH: Cell<bool> = const { Cell::new(false) };
        static SKIP_PRE_SWING_FENCE: Cell<bool> = const { Cell::new(false) };
    }

    /// Skip both record-line flushes (the bank flush and the
    /// post-swing re-flush): under ADR the publish never becomes
    /// durable — R1 (commit durability) and R2 (pending hints) fire.
    pub fn set_skip_bank_flush(v: bool) {
        SKIP_BANK_FLUSH.with(|c| c.set(v));
    }

    pub(crate) fn skip_bank_flush() -> bool {
        SKIP_BANK_FLUSH.with(std::cell::Cell::get)
    }

    /// Skip only the fence between the bank flush and the swing store:
    /// the swing can reach media before the bank — R3 (fence ordering)
    /// fires.
    pub fn set_skip_pre_swing_fence(v: bool) {
        SKIP_PRE_SWING_FENCE.with(|c| c.set(v));
    }

    pub(crate) fn skip_pre_swing_fence() -> bool {
        SKIP_PRE_SWING_FENCE.with(std::cell::Cell::get)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmem_sim::SimConfig;

    fn dev() -> PmemDevice {
        PmemDevice::new(SimConfig::small().with_capacity(16 << 20)).unwrap()
    }

    #[test]
    fn publish_then_read_roundtrip() {
        let d = dev();
        let mut ctx = MemCtx::new(0);
        let area = PAddr(1 << 20);
        assert_eq!(read_record(&d, area, 3, &mut ctx), CkptRead::None);
        publish(&d, area, 3, 1, 4096, true, &mut ctx);
        assert_eq!(
            read_record(&d, area, 3, &mut ctx),
            CkptRead::Valid {
                epoch: 1,
                mark: 4096
            }
        );
        // The next epoch lands in the other bank; the swing flips over.
        publish(&d, area, 3, 2, 9000, true, &mut ctx);
        assert_eq!(
            read_record(&d, area, 3, &mut ctx),
            CkptRead::Valid {
                epoch: 2,
                mark: 9000
            }
        );
        // Thread records are independent.
        assert_eq!(read_record(&d, area, 4, &mut ctx), CkptRead::None);
    }

    #[test]
    fn crash_between_bank_and_swing_keeps_old_record() {
        let d = dev();
        let mut ctx = MemCtx::new(0);
        let area = PAddr(1 << 20);
        publish(&d, area, 0, 1, 100, true, &mut ctx);
        // Hand-write the next bank but never swing (the crash window).
        let rec = record_addr(area, 0);
        let bank = rec.add(bank_of(2));
        d.store_u64(bank, 2, &mut ctx);
        d.store_u64(bank.add(8), 777, &mut ctx);
        d.store_u64(bank.add(16), rec_crc(0, 2, 777), &mut ctx);
        d.crash();
        assert_eq!(
            read_record(&d, area, 0, &mut ctx),
            CkptRead::Valid {
                epoch: 1,
                mark: 100
            },
            "pre-swing crash reads the previous checkpoint"
        );
    }

    #[test]
    fn bitrot_in_active_bank_reads_corrupt() {
        let d = dev();
        let mut ctx = MemCtx::new(0);
        let area = PAddr(1 << 20);
        publish(&d, area, 0, 1, 100, true, &mut ctx);
        let bank = record_addr(area, 0).add(bank_of(1));
        let m = d.load_u64(bank.add(8), &mut ctx);
        d.store_u64(bank.add(8), m ^ (1 << 17), &mut ctx);
        assert_eq!(read_record(&d, area, 0, &mut ctx), CkptRead::Corrupt);
        // A flipped swing word that selects a mismatched bank is also
        // caught (epoch comparison, before the CRC even runs).
        d.store_u64(bank.add(8), m, &mut ctx);
        d.store_u64(record_addr(area, 0), 5, &mut ctx);
        assert_eq!(read_record(&d, area, 0, &mut ctx), CkptRead::Corrupt);
    }
}
