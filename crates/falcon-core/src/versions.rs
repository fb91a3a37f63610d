//! The DRAM version heap (§5.2.3) and per-thread version queues (§5.4).
//!
//! Multi-version engines keep *old* versions of tuples in DRAM: versions
//! are dead weight after a crash anyway (only the latest version, in the
//! NVM tuple heap, matters), so placing them in DRAM avoids NVM writes
//! and makes recovery trivial — each thread simply starts a new empty
//! queue.
//!
//! A version records `begin_ts` (the tuple's write timestamp before the
//! update that displaced it), `end_ts` (the TID of the displacing
//! writer), a reference to its predecessor, and a copy of the old data.
//! References are packed 64-bit handles tagged with the crash epoch and
//! a per-slot generation, so stale handles — from before a crash, or to
//! a reclaimed slot — resolve to `None` instead of garbage.
//!
//! Reclamation (§5.4): each creating thread appends its versions to a
//! local queue; because a thread's TIDs increase monotonically the queue
//! is ordered by `end_ts`, and a prefix with `end_ts <` the minimum
//! active TID can be reclaimed. The visibility argument for why a
//! reader can never touch a reclaimed version: every version a snapshot
//! reader walks has `end_ts` greater than the reader's TID, which is at
//! least the minimum active TID.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::{Mutex, RwLock};
use pmem_sim::{CostModel, MemCtx};

const VALID: u64 = 1 << 63;

/// Pack a version reference.
fn pack_ref(epoch: u64, thread: usize, gen: u8, slot: u32) -> u64 {
    VALID
        | ((epoch & 0xff) << 48)
        | ((thread as u64 & 0xff) << 40)
        | (u64::from(gen) << 32)
        | u64::from(slot)
}

struct VersionSlot {
    begin_ts: AtomicU64,
    end_ts: AtomicU64,
    prev: AtomicU64,
    gen: AtomicU64,
    data: RwLock<Vec<u8>>,
}

struct Arena {
    slots: Vec<VersionSlot>,
    free: Vec<u32>,
    /// Slots in creation order == `end_ts` order (per-thread TIDs are
    /// monotonic).
    queue: VecDeque<u32>,
    obs: (u64, u64), // (allocs, frees)
}

/// A snapshot of a resolved version.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VersionView {
    /// Timestamp from which this version was the visible one.
    pub begin_ts: u64,
    /// TID of the transaction that displaced it.
    pub end_ts: u64,
    /// Reference to the predecessor version (0 = none).
    pub prev: u64,
    /// The old tuple data.
    pub data: Vec<u8>,
}

/// The DRAM version heap: one arena per worker thread.
pub struct VersionHeap {
    arenas: Box<[Mutex<Arena>]>,
    epoch: u64,
    cost: CostModel,
}

impl VersionHeap {
    /// Create a heap for `threads` workers at the given crash epoch.
    pub fn new(threads: usize, epoch: u64, cost: CostModel) -> VersionHeap {
        let arenas: Vec<Mutex<Arena>> = (0..threads)
            .map(|_| {
                Mutex::new(Arena {
                    slots: Vec::new(),
                    free: Vec::new(),
                    queue: VecDeque::new(),
                    obs: (0, 0),
                })
            })
            .collect();
        VersionHeap {
            arenas: arenas.into_boxed_slice(),
            epoch,
            cost,
        }
    }

    /// Publish an old version created by `thread`; returns its packed
    /// reference.
    pub fn push(
        &self,
        thread: usize,
        begin_ts: u64,
        end_ts: u64,
        prev: u64,
        data: &[u8],
        ctx: &mut MemCtx,
    ) -> u64 {
        // Charge the DRAM copy: one access plus one hit per cache line.
        ctx.charge_dram(&self.cost);
        ctx.advance(self.cost.dram_hit * (data.len() as u64 / 64));
        let mut a = self.arenas[thread].lock();
        let slot = match a.free.pop() {
            Some(i) => i,
            None => {
                a.slots.push(VersionSlot {
                    begin_ts: AtomicU64::new(0),
                    end_ts: AtomicU64::new(0),
                    prev: AtomicU64::new(0),
                    gen: AtomicU64::new(0),
                    data: RwLock::new(Vec::new()),
                });
                (a.slots.len() - 1) as u32
            }
        };
        let s = &a.slots[slot as usize];
        // HB audit: Relaxed is sound here because every access to this
        // slot — push, get, gc — happens under the arena Mutex, whose
        // unlock/lock already carries the edge. The atomics exist for
        // the `gen` seqlock check in `get`, not to order these fields.
        s.begin_ts.store(begin_ts, Ordering::Relaxed);
        s.end_ts.store(end_ts, Ordering::Relaxed);
        s.prev.store(prev, Ordering::Relaxed);
        {
            let mut d = s.data.write();
            d.clear();
            d.extend_from_slice(data);
        }
        let gen = s.gen.load(Ordering::Relaxed) as u8;
        a.queue.push_back(slot);
        a.obs.0 += 1;
        pack_ref(self.epoch, thread, gen, slot)
    }

    /// Resolve a reference to a version snapshot. Returns `None` for
    /// null/stale/reclaimed references (all of which mean "end of
    /// chain" to a reader).
    pub fn get(&self, vref: u64, ctx: &mut MemCtx) -> Option<VersionView> {
        if vref & VALID == 0 {
            return None;
        }
        if (vref >> 48) & 0xff != self.epoch & 0xff {
            return None; // Pre-crash reference.
        }
        let thread = ((vref >> 40) & 0xff) as usize;
        let gen = ((vref >> 32) & 0xff) as u8;
        let slot = (vref & 0xffff_ffff) as u32;
        if thread >= self.arenas.len() {
            return None;
        }
        ctx.charge_dram(&self.cost);
        let a = self.arenas[thread].lock();
        let s = a.slots.get(slot as usize)?;
        if s.gen.load(Ordering::Acquire) as u8 != gen {
            return None; // Reclaimed and reused.
        }
        let data = s.data.read().clone();
        ctx.advance(self.cost.dram_hit * (data.len() as u64 / 64));
        Some(VersionView {
            begin_ts: s.begin_ts.load(Ordering::Acquire),
            end_ts: s.end_ts.load(Ordering::Acquire),
            prev: s.prev.load(Ordering::Acquire),
            data,
        })
    }

    /// Reclaim `thread`'s versions with `end_ts` older than every active
    /// transaction (§5.4). Returns the number reclaimed.
    pub fn gc(&self, thread: usize, min_active_tid: u64, ctx: &mut MemCtx) -> usize {
        ctx.charge_dram_hit(&self.cost);
        let mut a = self.arenas[thread].lock();
        let mut n = 0;
        while let Some(&front) = a.queue.front() {
            let end = a.slots[front as usize].end_ts.load(Ordering::Relaxed);
            if end >= min_active_tid {
                break;
            }
            a.queue.pop_front();
            // HB audit: the generation bump invalidates outstanding
            // packed refs. Release (paired with the Acquire in `get`) is
            // kept even though both sides also hold the arena Mutex —
            // the seqlock must stay correct if `get`'s data read is ever
            // moved outside the lock.
            a.slots[front as usize].gen.fetch_add(1, Ordering::Release);
            a.free.push(front);
            n += 1;
        }
        a.obs.1 += n as u64;
        n
    }

    /// Observability counters for `thread`'s arena: `(allocs, frees)`
    /// since the last [`VersionHeap::obs_reset`].
    pub fn obs_counts(&self, thread: usize) -> (u64, u64) {
        self.arenas[thread].lock().obs
    }

    /// Zero `thread`'s observability counters (e.g. after warmup).
    pub fn obs_reset(&self, thread: usize) {
        self.arenas[thread].lock().obs = (0, 0);
    }

    /// Length of `thread`'s version queue (GC trigger check).
    pub fn queue_len(&self, thread: usize) -> usize {
        self.arenas[thread].lock().queue.len()
    }

    /// Total live versions (diagnostic).
    pub fn live_versions(&self) -> usize {
        self.arenas.iter().map(|a| a.lock().queue.len()).sum()
    }

    /// The crash epoch this heap serves.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }
}

impl core::fmt::Debug for VersionHeap {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("VersionHeap")
            .field("threads", &self.arenas.len())
            .field("epoch", &self.epoch)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn heap() -> (VersionHeap, MemCtx) {
        (VersionHeap::new(2, 1, CostModel::default()), MemCtx::new(0))
    }

    #[test]
    fn push_get_roundtrip() {
        let (h, mut ctx) = heap();
        let r = h.push(0, 10, 20, 0, b"old-data", &mut ctx);
        let v = h.get(r, &mut ctx).unwrap();
        assert_eq!(v.begin_ts, 10);
        assert_eq!(v.end_ts, 20);
        assert_eq!(v.prev, 0);
        assert_eq!(v.data, b"old-data");
    }

    #[test]
    fn chains_resolve() {
        let (h, mut ctx) = heap();
        let r1 = h.push(0, 1, 5, 0, b"v1", &mut ctx);
        let r2 = h.push(0, 5, 9, r1, b"v2", &mut ctx);
        let v2 = h.get(r2, &mut ctx).unwrap();
        let v1 = h.get(v2.prev, &mut ctx).unwrap();
        assert_eq!(v1.data, b"v1");
        assert_eq!(h.get(v1.prev, &mut ctx), None, "chain ends at null");
    }

    #[test]
    fn stale_epoch_resolves_to_none() {
        let (h, mut ctx) = heap();
        let r = h.push(0, 1, 2, 0, b"x", &mut ctx);
        let h2 = VersionHeap::new(2, 2, CostModel::default());
        assert_eq!(h2.get(r, &mut ctx), None, "pre-crash ref is dead");
    }

    #[test]
    fn gc_reclaims_ordered_prefix_only() {
        let (h, mut ctx) = heap();
        let r1 = h.push(0, 1, 100, 0, b"a", &mut ctx);
        let r2 = h.push(0, 2, 200, 0, b"b", &mut ctx);
        let r3 = h.push(0, 3, 300, 0, b"c", &mut ctx);
        assert_eq!(h.queue_len(0), 3);
        // Min active TID 250: versions with end_ts < 250 reclaim.
        assert_eq!(h.gc(0, 250, &mut ctx), 2);
        assert_eq!(h.queue_len(0), 1);
        assert_eq!(h.get(r1, &mut ctx), None, "reclaimed");
        assert_eq!(h.get(r2, &mut ctx), None, "reclaimed");
        assert!(h.get(r3, &mut ctx).is_some(), "still live");
    }

    #[test]
    fn reclaimed_slots_are_reused_with_new_gen() {
        let (h, mut ctx) = heap();
        let r1 = h.push(0, 1, 10, 0, b"dead", &mut ctx);
        h.gc(0, u64::MAX, &mut ctx);
        let r2 = h.push(0, 2, 20, 0, b"new!", &mut ctx);
        // Same slot, different generation.
        assert_eq!(r1 & 0xffff_ffff, r2 & 0xffff_ffff);
        assert_ne!(r1, r2);
        assert_eq!(h.get(r1, &mut ctx), None, "old handle must not alias");
        assert_eq!(h.get(r2, &mut ctx).unwrap().data, b"new!");
    }

    #[test]
    fn per_thread_arenas_are_independent() {
        let (h, mut ctx) = heap();
        h.push(0, 1, 10, 0, b"t0", &mut ctx);
        h.push(1, 1, 11, 0, b"t1", &mut ctx);
        assert_eq!(h.queue_len(0), 1);
        assert_eq!(h.queue_len(1), 1);
        h.gc(0, u64::MAX, &mut ctx);
        assert_eq!(h.queue_len(0), 0);
        assert_eq!(h.queue_len(1), 1);
        assert_eq!(h.live_versions(), 1);
    }

    #[test]
    fn costs_are_charged() {
        let (h, mut ctx) = heap();
        let r = h.push(0, 1, 2, 0, &[0u8; 1024], &mut ctx);
        let before = ctx.clock;
        h.get(r, &mut ctx).unwrap();
        assert!(ctx.clock > before);
        assert!(ctx.stats.dram_accesses >= 2);
    }

    #[test]
    fn concurrent_push_and_get() {
        let h = std::sync::Arc::new(VersionHeap::new(4, 0, CostModel::default()));
        std::thread::scope(|s| {
            for t in 0..4 {
                let h = std::sync::Arc::clone(&h);
                s.spawn(move || {
                    let mut ctx = MemCtx::new(t);
                    let mut refs = Vec::new();
                    for i in 0..500u64 {
                        let data = [t as u8; 32];
                        let prev = refs.last().copied().unwrap_or(0);
                        refs.push(h.push(t, i, i + 1, prev, &data, &mut ctx));
                    }
                    for &r in &refs {
                        assert_eq!(h.get(r, &mut ctx).unwrap().data, [t as u8; 32]);
                    }
                });
            }
        });
        assert_eq!(h.live_versions(), 2000);
    }
}
