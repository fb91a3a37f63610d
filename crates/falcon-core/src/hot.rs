//! Hot-tuple tracking (design D2, §4.4).
//!
//! A small per-thread LRU of tuple addresses. Algorithm 1: after the
//! in-place apply, a tuple *not* in the set is flushed (hinted flush) and
//! then cached in the set; a tuple already in the set is skipped — hot
//! tuples are never manually flushed, so repeatedly-updated tuples are
//! absorbed by the (persistent) cache instead of being streamed to NVM.
//!
//! **Structure.** An exact LRU in two parts. The tracked addresses live
//! in a slot array that grows to `capacity` entries and never beyond;
//! the slots are threaded on a doubly linked recency list by `u32`
//! index, with slot 0 as the list's sentinel (its `next` is the most
//! recently used slot, its `prev` the least). A map from address to slot
//! index, keyed with `AddrHasher` (one folded multiply, deterministic),
//! finds a slot. A hit is one map probe plus an O(1) relink to the
//! front. A miss on a full set evicts the list's tail — exactly the
//! least-recently-used address — and reuses its slot: one map remove,
//! one insert and the relinks. Every operation is O(1); `clear` is
//! O(len). The victim is the same one a scan for the oldest access
//! would pick, so every flush-or-skip decision, and with it the virtual
//! clock, does not depend on how the set is stored.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Hasher for `u64` tuple addresses: the folded 64 × 64 → 128-bit
/// product with an odd constant mixes every input bit into both halves,
/// so slot-aligned addresses (low bits all zero) still spread over the
/// map's buckets. Deterministic: no per-instance random keys.
#[derive(Debug, Default, Clone, Copy)]
struct AddrHasher(u64);

impl Hasher for AddrHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, x: u64) {
        const K: u128 = 0x9E37_79B9_7F4A_7C15;
        let p = u128::from(self.0 ^ x) * K;
        self.0 = (p as u64) ^ ((p >> 64) as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// One tracked address and its recency-list links (slot indices).
#[derive(Debug, Clone, Copy)]
struct Slot {
    addr: u64,
    prev: u32,
    next: u32,
}

/// Index of the recency list's sentinel slot.
const HEAD: u32 = 0;

/// A fixed-capacity LRU set of tuple addresses.
#[derive(Debug)]
pub struct HotSet {
    /// Address → index into `slots`.
    index: HashMap<u64, u32, BuildHasherDefault<AddrHasher>>,
    /// `slots[0]` is the sentinel; `slots[1..]` hold tracked addresses.
    slots: Vec<Slot>,
    capacity: usize,
    obs: (u64, u64, u64), // (hits, misses, evictions)
}

impl HotSet {
    /// Create a set that tracks up to `capacity` hot tuples (0 disables
    /// tracking: nothing is ever considered hot).
    pub fn new(capacity: usize) -> HotSet {
        assert!(
            u32::try_from(capacity).is_ok_and(|c| c < u32::MAX),
            "hot-set capacity {capacity} exceeds the u32 slot index"
        );
        let mut slots = Vec::with_capacity(capacity + 1);
        slots.push(Slot {
            addr: 0,
            prev: HEAD,
            next: HEAD,
        });
        HotSet {
            index: HashMap::with_capacity_and_hasher(capacity, Default::default()),
            slots,
            capacity,
            obs: (0, 0, 0),
        }
    }

    /// Observability counters: `(hits, misses, evictions)` since the
    /// last [`HotSet::obs_reset`].
    pub fn obs_counts(&self) -> (u64, u64, u64) {
        self.obs
    }

    /// Zero the observability counters (e.g. after warmup).
    pub fn obs_reset(&mut self) {
        self.obs = (0, 0, 0);
    }

    /// Algorithm 1's check-then-cache step: returns `true` if `addr` was
    /// already hot (skip the flush); otherwise records it as hot —
    /// evicting the least-recently-used entry if full — and returns
    /// `false` (flush it this time).
    pub fn check_and_cache(&mut self, addr: u64) -> bool {
        if self.capacity == 0 {
            self.obs.1 += 1;
            return false;
        }
        if let Some(&i) = self.index.get(&addr) {
            self.obs.0 += 1;
            self.unlink(i);
            self.push_front(i);
            return true;
        }
        self.obs.1 += 1;
        let i = if self.index.len() < self.capacity {
            self.slots.push(Slot {
                addr,
                prev: HEAD,
                next: HEAD,
            });
            (self.slots.len() - 1) as u32
        } else {
            let victim = self.slots[HEAD as usize].prev;
            self.unlink(victim);
            self.index.remove(&self.slots[victim as usize].addr);
            self.slots[victim as usize].addr = addr;
            self.obs.2 += 1;
            victim
        };
        self.index.insert(addr, i);
        self.push_front(i);
        false
    }

    /// Detach slot `i` from the recency list.
    fn unlink(&mut self, i: u32) {
        let Slot { prev, next, .. } = self.slots[i as usize];
        self.slots[prev as usize].next = next;
        self.slots[next as usize].prev = prev;
    }

    /// Link slot `i` in as the most recently used.
    fn push_front(&mut self, i: u32) {
        let first = self.slots[HEAD as usize].next;
        self.slots[i as usize].prev = HEAD;
        self.slots[i as usize].next = first;
        self.slots[first as usize].prev = i;
        self.slots[HEAD as usize].next = i;
    }

    /// Whether `addr` is currently tracked (does not refresh LRU).
    pub fn contains(&self, addr: u64) -> bool {
        self.index.contains_key(&addr)
    }

    /// Number of tracked tuples.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Drop all entries (recovery: DRAM state is lost).
    pub fn clear(&mut self) {
        self.index.clear();
        self.slots.truncate(1);
        self.slots[HEAD as usize].prev = HEAD;
        self.slots[HEAD as usize].next = HEAD;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The scan-for-the-oldest-stamp LRU this module used to ship: the
    /// reference model the O(1) structure must match call for call.
    struct ScanLru {
        stamps: std::collections::HashMap<u64, u64>,
        capacity: usize,
        tick: u64,
        obs: (u64, u64, u64),
    }

    impl ScanLru {
        fn new(capacity: usize) -> ScanLru {
            ScanLru {
                stamps: std::collections::HashMap::new(),
                capacity,
                tick: 0,
                obs: (0, 0, 0),
            }
        }

        fn check_and_cache(&mut self, addr: u64) -> bool {
            if self.capacity == 0 {
                self.obs.1 += 1;
                return false;
            }
            self.tick += 1;
            let tick = self.tick;
            if let Some(stamp) = self.stamps.get_mut(&addr) {
                *stamp = tick;
                self.obs.0 += 1;
                return true;
            }
            self.obs.1 += 1;
            if self.stamps.len() >= self.capacity {
                if let Some((&victim, _)) = self.stamps.iter().min_by_key(|(_, &s)| s) {
                    self.stamps.remove(&victim);
                    self.obs.2 += 1;
                }
            }
            self.stamps.insert(addr, tick);
            false
        }
    }

    /// Compare every observable of `h` against `m` over `keys`.
    fn assert_matches(h: &HotSet, m: &ScanLru, keys: &[u64]) {
        prop_assert_eq!(h.obs_counts(), m.obs);
        prop_assert_eq!(h.len(), m.stamps.len());
        prop_assert_eq!(h.is_empty(), m.stamps.is_empty());
        prop_assert_eq!(
            h.slots.len(),
            h.len() + 1,
            "one slot per entry plus the sentinel"
        );
        for &k in keys {
            prop_assert_eq!(h.contains(k), m.stamps.contains_key(&k), "addr {}", k);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Random address streams, key spaces below and above the
        /// capacity, a `clear` part-way through: return values, counters,
        /// length and membership match the scan model after every call.
        #[test]
        fn matches_scan_model(
            cap_ix in 0usize..5,
            space_pct in prop_oneof![Just(50u64), Just(100), Just(150), Just(300)],
            draws in proptest::collection::vec(any::<u64>(), 1..1500),
            clear_at in any::<usize>(),
        ) {
            let capacity = [0usize, 1, 2, 16, 512][cap_ix];
            let space = (capacity as u64 * space_pct / 100).max(2);
            // Tuple-like addresses: slot-aligned, above a page base.
            let keys: Vec<u64> = (0..space).map(|k| (1 << 21) + k * 320).collect();
            let clear_at = clear_at % draws.len();
            let mut h = HotSet::new(capacity);
            let mut m = ScanLru::new(capacity);
            for (n, d) in draws.iter().enumerate() {
                if n == clear_at {
                    h.clear();
                    m.stamps.clear();
                    assert_matches(&h, &m, &keys);
                }
                let addr = keys[(d % space) as usize];
                prop_assert_eq!(h.check_and_cache(addr), m.check_and_cache(addr), "call {}", n);
                assert_matches(&h, &m, &keys);
            }
        }
    }

    #[test]
    fn first_touch_is_cold_second_is_hot() {
        let mut h = HotSet::new(4);
        assert!(!h.check_and_cache(100), "first touch: flush");
        assert!(h.check_and_cache(100), "second touch: hot, skip flush");
        assert!(h.check_and_cache(100));
    }

    #[test]
    fn capacity_evicts_lru() {
        let mut h = HotSet::new(2);
        h.check_and_cache(1);
        h.check_and_cache(2);
        h.check_and_cache(1); // Refresh 1; 2 becomes LRU.
        h.check_and_cache(3); // Evicts 2.
        assert!(h.contains(1));
        assert!(!h.contains(2));
        assert!(h.contains(3));
        assert_eq!(h.len(), 2);
        assert!(!h.check_and_cache(2), "2 was evicted: cold again");
    }

    #[test]
    fn zero_capacity_disables() {
        let mut h = HotSet::new(0);
        assert!(!h.check_and_cache(1));
        assert!(!h.check_and_cache(1), "nothing is ever hot");
        assert!(h.is_empty());
    }

    #[test]
    fn clear_forgets() {
        let mut h = HotSet::new(4);
        h.check_and_cache(1);
        h.clear();
        assert!(!h.check_and_cache(1));
    }

    #[test]
    fn skewed_stream_mostly_hot() {
        // A Zipf-like stream: a few addresses dominate. Most touches of
        // the dominant addresses must be classified hot.
        let mut h = HotSet::new(8);
        let mut hot_hits = 0;
        let mut total_hot = 0;
        for i in 0..10_000u64 {
            let addr = if i % 10 < 8 { i % 4 } else { 1000 + i };
            let was_hot = h.check_and_cache(addr);
            if addr < 4 {
                total_hot += 1;
                if was_hot {
                    hot_hits += 1;
                }
            }
        }
        assert!(
            f64::from(hot_hits) / f64::from(total_hot) > 0.9,
            "dominant tuples must be tracked: {hot_hits}/{total_hot}"
        );
    }
}
