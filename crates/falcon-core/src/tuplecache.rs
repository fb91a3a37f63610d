//! The ZenS DRAM tuple cache.
//!
//! Zen's storage engine (§6.2.1) accelerates hot reads by caching tuple
//! *data* in DRAM, keyed by the tuple's index key. The cache is a
//! sharded LRU; hits serve reads from DRAM at DRAM cost, misses fall
//! through to the NVM heap and fill the cache. Writers update the cached
//! copy so the cache never serves stale data within a run; its contents
//! are volatile and vanish at a crash.

use std::collections::HashMap;

use parking_lot::Mutex;
use pmem_sim::{CostModel, MemCtx};

/// Number of shards.
const SHARDS: usize = 64;

/// Entries per shard in the engine's cache. A few thousand tuples in
/// all — a small fraction of any experiment's table, as on the paper's
/// testbed where DRAM cannot hold the 256 GB working set.
pub(crate) const SHARD_CAPACITY: usize = 64;

struct Shard {
    map: HashMap<(u32, u64), (u64, Vec<u8>)>, // (table, key) -> (stamp, data)
    tick: u64,
    capacity: usize,
}

impl Shard {
    fn evict_if_full(&mut self) {
        if self.map.len() > self.capacity {
            if let Some((&victim, _)) = self.map.iter().min_by_key(|(_, (s, _))| *s) {
                self.map.remove(&victim);
            }
        }
    }
}

/// A sharded LRU cache of tuple data, keyed by `(table, key)`.
pub struct TupleCache {
    shards: Box<[Mutex<Shard>]>,
    cost: CostModel,
}

impl TupleCache {
    /// Create a cache holding up to `capacity_per_shard` entries in each
    /// of its 64 shards.
    pub fn new(capacity_per_shard: usize, cost: CostModel) -> TupleCache {
        let shards: Vec<Mutex<Shard>> = (0..SHARDS)
            .map(|_| {
                Mutex::new(Shard {
                    map: HashMap::new(),
                    tick: 0,
                    capacity: capacity_per_shard.max(1),
                })
            })
            .collect();
        TupleCache {
            shards: shards.into_boxed_slice(),
            cost,
        }
    }

    #[inline]
    fn shard(&self, table: u32, key: u64) -> &Mutex<Shard> {
        let mut x = key ^ (u64::from(table) << 56) ^ (u64::from(table) << 17);
        x ^= x >> 33;
        x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
        &self.shards[(x % SHARDS as u64) as usize]
    }

    /// Look up `(table, key)`; a hit refreshes LRU and returns a copy at
    /// DRAM cost.
    pub fn get(&self, table: u32, key: u64, ctx: &mut MemCtx) -> Option<Vec<u8>> {
        ctx.charge_dram_hit(&self.cost);
        let mut s = self.shard(table, key).lock();
        s.tick += 1;
        let tick = s.tick;
        match s.map.get_mut(&(table, key)) {
            Some((stamp, data)) => {
                *stamp = tick;
                ctx.advance(self.cost.dram_hit * (data.len() as u64 / 64));
                Some(data.clone())
            }
            None => None,
        }
    }

    /// Insert or refresh the cached data of `(table, key)`.
    pub fn put(&self, table: u32, key: u64, data: &[u8], ctx: &mut MemCtx) {
        ctx.charge_dram(&self.cost);
        ctx.advance(self.cost.dram_hit * (data.len() as u64 / 64));
        let mut s = self.shard(table, key).lock();
        s.tick += 1;
        let tick = s.tick;
        s.map.insert((table, key), (tick, data.to_vec()));
        s.evict_if_full();
    }

    /// Insert only if the key is absent (read-path fills: must not
    /// overwrite a concurrent writer's newer entry).
    pub fn fill(&self, table: u32, key: u64, data: &[u8], ctx: &mut MemCtx) {
        ctx.charge_dram(&self.cost);
        let mut s = self.shard(table, key).lock();
        s.tick += 1;
        let tick = s.tick;
        if let std::collections::hash_map::Entry::Vacant(e) = s.map.entry((table, key)) {
            e.insert((tick, data.to_vec()));
        }
        s.evict_if_full();
    }

    /// Apply a partial update to the cached copy, if present.
    pub fn patch(&self, table: u32, key: u64, off: usize, bytes: &[u8], ctx: &mut MemCtx) {
        ctx.charge_dram_hit(&self.cost);
        let mut s = self.shard(table, key).lock();
        if let Some((_, data)) = s.map.get_mut(&(table, key)) {
            if off + bytes.len() <= data.len() {
                data[off..off + bytes.len()].copy_from_slice(bytes);
            }
        }
    }

    /// Drop `(table, key)` (tuple deleted).
    pub fn invalidate(&self, table: u32, key: u64, ctx: &mut MemCtx) {
        ctx.charge_dram_hit(&self.cost);
        self.shard(table, key).lock().map.remove(&(table, key));
    }

    /// Number of cached tuples.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().map.len()).sum()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop everything (crash: DRAM contents are lost).
    pub fn clear(&self) {
        for s in self.shards.iter() {
            s.lock().map.clear();
        }
    }
}

impl core::fmt::Debug for TupleCache {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("TupleCache")
            .field("len", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache(cap: usize) -> (TupleCache, MemCtx) {
        (TupleCache::new(cap, CostModel::default()), MemCtx::new(0))
    }

    #[test]
    fn get_put_roundtrip() {
        let (c, mut ctx) = cache(8);
        assert_eq!(c.get(0, 1, &mut ctx), None);
        c.put(0, 1, b"hello", &mut ctx);
        assert_eq!(c.get(0, 1, &mut ctx).as_deref(), Some(&b"hello"[..]));
    }

    #[test]
    fn patch_updates_in_place() {
        let (c, mut ctx) = cache(8);
        c.put(0, 1, b"abcdefgh", &mut ctx);
        c.patch(0, 1, 2, b"XY", &mut ctx);
        assert_eq!(c.get(0, 1, &mut ctx).as_deref(), Some(&b"abXYefgh"[..]));
        // Out-of-range patches are ignored.
        c.patch(0, 1, 7, b"ZZZ", &mut ctx);
        assert_eq!(c.get(0, 1, &mut ctx).as_deref(), Some(&b"abXYefgh"[..]));
        // Patching an absent key is a no-op.
        c.patch(0, 2, 0, b"Q", &mut ctx);
        assert_eq!(c.get(0, 2, &mut ctx), None);
    }

    #[test]
    fn invalidate_removes() {
        let (c, mut ctx) = cache(8);
        c.put(0, 1, b"x", &mut ctx);
        c.invalidate(0, 1, &mut ctx);
        assert_eq!(c.get(0, 1, &mut ctx), None);
    }

    #[test]
    fn capacity_bounds_and_lru() {
        let (c, mut ctx) = cache(2);
        // All keys land in different shards potentially; force one shard
        // by checking the global bound instead.
        for k in 0..1000u64 {
            c.put(0, k, &[0u8; 16], &mut ctx);
        }
        assert!(c.len() <= 3 * SHARDS, "cache is bounded: {}", c.len());
    }

    #[test]
    fn clear_empties() {
        let (c, mut ctx) = cache(8);
        c.put(0, 1, b"x", &mut ctx);
        c.put(0, 2, b"y", &mut ctx);
        c.clear();
        assert!(c.is_empty());
    }

    #[test]
    fn charges_dram_costs() {
        let (c, mut ctx) = cache(8);
        c.put(0, 1, &[0u8; 640], &mut ctx);
        let before = ctx.clock;
        c.get(0, 1, &mut ctx);
        assert!(ctx.clock > before);
        assert!(ctx.stats.dram_accesses > 0);
        assert_eq!(ctx.stats.cache_misses, 0, "never touches NVM");
    }
}
