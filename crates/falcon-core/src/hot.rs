//! Hot-tuple tracking (design D2, §4.4).
//!
//! A small per-thread LRU of tuple addresses. Algorithm 1: after the
//! in-place apply, a tuple *not* in the set is flushed (hinted flush) and
//! then cached in the set; a tuple already in the set is skipped — hot
//! tuples are never manually flushed, so repeatedly-updated tuples are
//! absorbed by the (persistent) cache instead of being streamed to NVM.

use std::collections::HashMap;

/// A fixed-capacity LRU set of tuple addresses.
#[derive(Debug)]
pub struct HotSet {
    stamps: HashMap<u64, u64>,
    capacity: usize,
    tick: u64,
    obs: (u64, u64, u64), // (hits, misses, evictions)
}

impl HotSet {
    /// Create a set that tracks up to `capacity` hot tuples (0 disables
    /// tracking: nothing is ever considered hot).
    pub fn new(capacity: usize) -> HotSet {
        HotSet {
            stamps: HashMap::with_capacity(capacity + 1),
            capacity,
            tick: 0,
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

    /// Whether `addr` is currently tracked (does not refresh LRU).
    pub fn contains(&self, addr: u64) -> bool {
        self.stamps.contains_key(&addr)
    }

    /// Number of tracked tuples.
    pub fn len(&self) -> usize {
        self.stamps.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.stamps.is_empty()
    }

    /// Drop all entries (recovery: DRAM state is lost).
    pub fn clear(&mut self) {
        self.stamps.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
