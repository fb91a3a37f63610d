//! Concurrency-control metadata words.
//!
//! Each tuple carries two CC metadata words (Figure 5):
//!
//! * word 0 — the lock/timestamp word. Layout:
//!   `[epoch:8][lock:1][payload:55]`, where the payload is the reader
//!   count (2PL) or the write timestamp (TO/OCC and the MV variants).
//! * word 1 — the read timestamp (TO only).
//!
//! The 8-bit *epoch* implements lazy crash release: recovery bumps the
//! global epoch, and any word stamped with an older epoch is interpreted
//! as unlocked (with reader counts cleared but timestamps preserved).
//! This is how "clearing the lock bits" in §5.3 costs nothing for tuples
//! the logs never mention.
//!
//! [`MetaStore`] decides where the words live: in the tuple header in
//! NVM (Falcon, Inp, Outp) or in a DRAM side table (ZenS's Met-Cache,
//! which moves CC metadata churn out of NVM).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;
#[cfg(feature = "trace")]
use pmem_sim::trace::{AtomicKind, Event, MemOrder, DRAM_SPACE};
use pmem_sim::{CostModel, MemCtx, PmemDevice};

use falcon_storage::tuple::TupleRef;

/// Race-trace address of Met-Cache cell word `w` of `tuple`: the cells
/// live in engine DRAM, so they get a synthetic address in the
/// [`DRAM_SPACE`] namespace (disjoint from every device address).
#[cfg(feature = "trace")]
#[inline]
fn met_addr(tuple: TupleRef, w: usize) -> u64 {
    DRAM_SPACE + tuple.addr.0 + (w as u64) * 8
}

/// Base of the race-trace lock-id namespace for Met-Cache shard locks
/// (the "META" tag keeps it disjoint from any other instrumented lock);
/// shard `i` is `MET_SHARD_LOCK | i`.
#[cfg(feature = "trace")]
const MET_SHARD_LOCK: u64 = 0x4D45_5441 << 32;

/// Emit a shard-lock edge on the race trace. Acquire events must be
/// emitted *after* the guard is taken and release events *before* it is
/// dropped, so the trace's stream order matches the real lock order
/// (parking_lot serializes conflicting emissions through the guard
/// itself).
#[cfg(feature = "trace")]
#[inline]
fn shard_lock_event(dev: &PmemDevice, thread: usize, shard: usize, excl: bool, acquire: bool) {
    if dev.trace_racing() {
        let lock = MET_SHARD_LOCK | shard as u64;
        dev.trace_emit(if acquire {
            Event::LockAcquire { thread, lock, excl }
        } else {
            Event::LockRelease { thread, lock, excl }
        });
    }
}

/// The lock bit.
pub const LOCK: u64 = 1 << 55;
/// Mask of the 55-bit payload.
pub const PAYLOAD: u64 = LOCK - 1;
/// Shift of the 8-bit epoch.
const EPOCH_SHIFT: u32 = 56;

/// Pack an epoch, lock bit, and payload into a metadata word.
#[inline]
pub fn pack(epoch: u64, locked: bool, payload: u64) -> u64 {
    debug_assert!(payload <= PAYLOAD);
    ((epoch & 0xff) << EPOCH_SHIFT) | (if locked { LOCK } else { 0 }) | payload
}

/// The epoch stamp of a word.
#[inline]
pub fn epoch_of(w: u64) -> u64 {
    w >> EPOCH_SHIFT
}

/// Whether the word is locked *in the given epoch* (stale locks read as
/// free).
#[inline]
pub fn is_locked(w: u64, epoch: u64) -> bool {
    epoch_of(w) == (epoch & 0xff) && w & LOCK != 0
}

/// The payload of a word, normalized for timestamp semantics: stale
/// epochs keep their payload (timestamps survive crashes).
#[inline]
pub fn ts_payload(w: u64) -> u64 {
    w & PAYLOAD
}

/// The payload of a word, normalized for counter semantics: stale
/// epochs read as zero (a crashed reader count is meaningless).
#[inline]
pub fn counter_payload(w: u64, epoch: u64) -> u64 {
    if epoch_of(w) == (epoch & 0xff) {
        w & PAYLOAD
    } else {
        0
    }
}

/// Where CC metadata lives.
pub enum MetaStore {
    /// In the tuple header, in NVM.
    Nvm,
    /// In a DRAM side table keyed by tuple address (ZenS Met-Cache).
    Dram(DramMeta),
}

impl MetaStore {
    /// Load metadata word `w` (0 or 1) of `tuple`.
    #[inline]
    pub fn load(&self, dev: &PmemDevice, tuple: TupleRef, w: usize, ctx: &mut MemCtx) -> u64 {
        match self {
            MetaStore::Nvm => dev.load_u64(tuple.addr.add(w as u64 * 8), ctx),
            MetaStore::Dram(m) => {
                // HB edge: Acquire pairs with the Release in `store` /
                // the AcqRel in `cas`, so a reader that observes a lock
                // word also observes the tuple writes that preceded its
                // release. Relaxed would be a race on the protected
                // payload — exactly what falcon-race's relaxed_publish
                // fixture demonstrates.
                let cell = m.cell(dev, tuple, ctx);
                #[cfg(feature = "trace")]
                {
                    let thread = ctx.thread_id;
                    dev.trace_atomic(
                        || cell[w].load(Ordering::Acquire),
                        |_| Event::AtomicOp {
                            thread,
                            addr: met_addr(tuple, w),
                            kind: AtomicKind::Load,
                            order: MemOrder::Acquire,
                        },
                    )
                }
                #[cfg(not(feature = "trace"))]
                cell[w].load(Ordering::Acquire)
            }
        }
    }

    /// Store metadata word `w` of `tuple`.
    #[inline]
    pub fn store(&self, dev: &PmemDevice, tuple: TupleRef, w: usize, val: u64, ctx: &mut MemCtx) {
        match self {
            MetaStore::Nvm => dev.store_u64(tuple.addr.add(w as u64 * 8), val, ctx),
            MetaStore::Dram(m) => {
                // HB edge: Release publishes every prior write (tuple
                // payload, version chain) to the next Acquire load of
                // this word — the unlock side of the CC protocols.
                let cell = m.cell(dev, tuple, ctx);
                #[cfg(feature = "trace")]
                {
                    let thread = ctx.thread_id;
                    dev.trace_atomic(
                        || cell[w].store(val, Ordering::Release),
                        |()| Event::AtomicOp {
                            thread,
                            addr: met_addr(tuple, w),
                            kind: AtomicKind::Store,
                            order: MemOrder::Release,
                        },
                    );
                }
                #[cfg(not(feature = "trace"))]
                cell[w].store(val, Ordering::Release);
            }
        }
    }

    /// CAS metadata word `w` of `tuple`.
    #[inline]
    pub fn cas(
        &self,
        dev: &PmemDevice,
        tuple: TupleRef,
        w: usize,
        old: u64,
        new: u64,
        ctx: &mut MemCtx,
    ) -> Result<u64, u64> {
        match self {
            MetaStore::Nvm => dev.cas_u64(tuple.addr.add(w as u64 * 8), old, new, ctx),
            MetaStore::Dram(m) => {
                // HB edges: success is the lock/version transition, so
                // AcqRel (acquire the releasing writer's history, release
                // our own); failure only observes, so Acquire suffices.
                // Audited down from SeqCst/SeqCst — no CC protocol here
                // relies on a single total order across *different* meta
                // words, only on per-word release/acquire chains, and
                // falcon-race's kernel sweeps run on exactly these
                // orderings.
                let cell = m.cell(dev, tuple, ctx);
                #[cfg(feature = "trace")]
                {
                    let thread = ctx.thread_id;
                    dev.trace_atomic(
                        || cell[w].compare_exchange(old, new, Ordering::AcqRel, Ordering::Acquire),
                        |r| Event::AtomicOp {
                            thread,
                            addr: met_addr(tuple, w),
                            // A failed CAS performs no store.
                            kind: if r.is_ok() {
                                AtomicKind::Rmw
                            } else {
                                AtomicKind::Load
                            },
                            order: MemOrder::AcqRel,
                        },
                    )
                }
                #[cfg(not(feature = "trace"))]
                cell[w].compare_exchange(old, new, Ordering::AcqRel, Ordering::Acquire)
            }
        }
    }

    /// Whether metadata updates write NVM (true for [`MetaStore::Nvm`]).
    pub fn in_nvm(&self) -> bool {
        matches!(self, MetaStore::Nvm)
    }
}

impl core::fmt::Debug for MetaStore {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            MetaStore::Nvm => write!(f, "MetaStore::Nvm"),
            MetaStore::Dram(_) => write!(f, "MetaStore::Dram"),
        }
    }
}

/// Number of shards in the DRAM metadata table.
const SHARDS: usize = 64;

/// One shard of the side table: tuple address → two metadata cells.
type MetaShard = RwLock<HashMap<u64, Arc<[AtomicU64; 2]>>>;

/// The DRAM CC-metadata side table (Met-Cache).
///
/// Cells are reference-counted so a caller's handle stays valid however
/// the shard map grows — and even across [`DramMeta::clear`], which can
/// run while the simulated crash tears workers down (out-of-place
/// engines keep creating new addresses, but the table is bounded by
/// heap size and recycled addresses reuse their cell).
pub struct DramMeta {
    shards: Box<[MetaShard]>,
    cost: CostModel,
}

impl DramMeta {
    /// Create an empty side table charging `cost.dram_hit` per probe.
    pub fn new(cost: CostModel) -> DramMeta {
        let shards: Vec<MetaShard> = (0..SHARDS).map(|_| RwLock::new(HashMap::new())).collect();
        DramMeta {
            shards: shards.into_boxed_slice(),
            cost,
        }
    }

    /// The metadata cell pair of `tuple`, created on first touch. The
    /// returned handle owns the allocation: it stays valid however the
    /// shard rehashes, and even if [`DramMeta::clear`] drops the table
    /// entry concurrently.
    ///
    /// Under `trace` the shard `RwLock` acquisitions are emitted as
    /// lock edges on `dev`'s race trace (acquire after the guard is
    /// taken, release before it drops — see [`shard_lock_event`]);
    /// otherwise `dev` is unused.
    fn cell(&self, dev: &PmemDevice, tuple: TupleRef, ctx: &mut MemCtx) -> Arc<[AtomicU64; 2]> {
        #[cfg(not(feature = "trace"))]
        let _ = dev;
        ctx.charge_dram_hit(&self.cost);
        let idx = (tuple.addr.0 >> 6) as usize % SHARDS;
        let shard = &self.shards[idx];
        {
            let rd = shard.read();
            #[cfg(feature = "trace")]
            shard_lock_event(dev, ctx.thread_id, idx, false, true);
            let hit = rd.get(&tuple.addr.0).map(Arc::clone);
            #[cfg(feature = "trace")]
            shard_lock_event(dev, ctx.thread_id, idx, false, false);
            drop(rd);
            if let Some(cell) = hit {
                return cell;
            }
        }
        let mut wr = shard.write();
        #[cfg(feature = "trace")]
        shard_lock_event(dev, ctx.thread_id, idx, true, true);
        let cell = Arc::clone(
            wr.entry(tuple.addr.0)
                .or_insert_with(|| Arc::new([AtomicU64::new(0), AtomicU64::new(0)])),
        );
        #[cfg(feature = "trace")]
        shard_lock_event(dev, ctx.thread_id, idx, true, false);
        drop(wr);
        cell
    }

    /// Drop all cells (used when rebuilding after a simulated crash:
    /// DRAM contents are lost).
    pub fn clear(&self) {
        for s in self.shards.iter() {
            s.write().clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use falcon_storage::tuple::TupleRef;
    use pmem_sim::{PAddr, SimConfig};

    #[test]
    fn pack_roundtrip() {
        let w = pack(3, true, 12345);
        assert_eq!(epoch_of(w), 3);
        assert!(is_locked(w, 3));
        assert_eq!(ts_payload(w), 12345);
    }

    #[test]
    fn stale_epoch_reads_unlocked() {
        let w = pack(3, true, 77);
        assert!(!is_locked(w, 4), "old-epoch lock is free");
        assert_eq!(ts_payload(w), 77, "timestamp survives the crash");
        assert_eq!(counter_payload(w, 4), 0, "reader count does not");
        assert_eq!(counter_payload(w, 3), 77);
    }

    #[test]
    fn epoch_wraps_at_8_bits() {
        let w = pack(256 + 5, false, 1);
        assert_eq!(epoch_of(w), 5);
    }

    #[test]
    fn nvm_store_roundtrip() {
        let dev = PmemDevice::new(SimConfig::small()).unwrap();
        let mut ctx = MemCtx::new(0);
        let store = MetaStore::Nvm;
        let t = TupleRef::new(PAddr(4096));
        store.store(&dev, t, 0, 0xAA, &mut ctx);
        store.store(&dev, t, 1, 0xBB, &mut ctx);
        assert_eq!(store.load(&dev, t, 0, &mut ctx), 0xAA);
        assert_eq!(store.load(&dev, t, 1, &mut ctx), 0xBB);
        assert_eq!(store.cas(&dev, t, 0, 0xAA, 0xCC, &mut ctx), Ok(0xAA));
        assert_eq!(store.cas(&dev, t, 0, 0xAA, 0xDD, &mut ctx), Err(0xCC));
        assert!(store.in_nvm());
    }

    #[test]
    fn dram_store_roundtrip() {
        let dev = PmemDevice::new(SimConfig::small()).unwrap();
        let mut ctx = MemCtx::new(0);
        let store = MetaStore::Dram(DramMeta::new(CostModel::default()));
        let t = TupleRef::new(PAddr(8192));
        assert_eq!(store.load(&dev, t, 0, &mut ctx), 0, "cells default to 0");
        store.store(&dev, t, 0, 42, &mut ctx);
        assert_eq!(store.load(&dev, t, 0, &mut ctx), 42);
        assert_eq!(store.cas(&dev, t, 0, 42, 43, &mut ctx), Ok(42));
        assert!(!store.in_nvm());
        assert!(ctx.stats.dram_accesses > 0, "Met-Cache charges DRAM");
        // NVM was never touched for metadata.
        assert_eq!(ctx.stats.cache_misses, 0);
    }

    #[test]
    fn dram_cells_are_concurrent() {
        let dev = PmemDevice::new(SimConfig::small()).unwrap();
        let store = std::sync::Arc::new(DramMeta::new(CostModel::default()));
        std::thread::scope(|s| {
            for w in 0..4 {
                let store = std::sync::Arc::clone(&store);
                let dev = dev.clone();
                s.spawn(move || {
                    let mut ctx = MemCtx::new(w);
                    let t = TupleRef::new(PAddr(64)); // Same tuple for all.
                    for _ in 0..1000 {
                        store.cell(&dev, t, &mut ctx)[0].fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        });
        let mut ctx = MemCtx::new(0);
        assert_eq!(
            store.cell(&dev, TupleRef::new(PAddr(64)), &mut ctx)[0].load(Ordering::Relaxed),
            4000
        );
    }

    #[test]
    fn clear_does_not_invalidate_live_handles() {
        // The hazard the Arc design removes: a handle obtained before a
        // crash-time clear() must stay usable (it owns the allocation).
        let dev = PmemDevice::new(SimConfig::small()).unwrap();
        let store = DramMeta::new(CostModel::default());
        let mut ctx = MemCtx::new(0);
        let t = TupleRef::new(PAddr(128));
        let cell = store.cell(&dev, t, &mut ctx);
        cell[0].store(7, Ordering::Relaxed);
        store.clear();
        assert_eq!(cell[0].load(Ordering::Relaxed), 7, "handle survives");
        // The table itself starts fresh.
        assert_eq!(store.cell(&dev, t, &mut ctx)[0].load(Ordering::Relaxed), 0);
    }
}
