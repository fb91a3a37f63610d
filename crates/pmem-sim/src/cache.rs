//! Set-associative write-back cache model.
//!
//! Tracks, for every resident line, its address and dirtiness. The model
//! is sharded (each shard owns an interleaved subset of the sets behind
//! its own mutex) so that many worker threads can access it concurrently
//! without a global lock.
//!
//! Replacement is **SRRIP** (static re-reference interval prediction,
//! Jaleel et al., ISCA '10 — the family Intel LLCs implement): lines are
//! inserted with a *long* re-reference prediction (RRPV 2 of 3), reset
//! to 0 on every hit, and the victim is a line with RRPV 3 (aging all
//! lines when none qualifies), chosen from a randomly-rotated starting
//! way. This models the two properties the paper's designs depend on:
//!
//! * frequently-retouched lines (the small log window, hot tuples) are
//!   essentially never evicted ("Rarely Evicted" in Figure 4), while
//! * streaming, touch-once lines age out quickly with *noisy, weakly
//!   ordered* eviction times — so the lazily-evicted sibling lines of a
//!   256 B block rarely meet in the XPBuffer, which is the granularity-
//!   mismatch write amplification of §3.2/§3.3. (A strict-LRU model
//!   would evict same-aged siblings back-to-back and let the XPBuffer
//!   merge them for free, erasing the effect Figure 3 measures.)
//!
//! The cache model only tracks *metadata*: actual bytes live in the
//! [`crate::backing::Backing`] CPU image, and the device copies a line's
//! bytes to the media image when this model reports a dirty eviction.

use parking_lot::Mutex;

const INVALID: u64 = u64::MAX;

/// What happened to an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessResult {
    /// Whether the line was already resident.
    pub hit: bool,
    /// Line address (byte offset / 64) of a dirty victim that must be
    /// written back, if the fill evicted one.
    pub dirty_victim: Option<u64>,
}

/// Result of a `clwb` probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClwbResult {
    /// Line was resident and dirty: it is now clean and must be written
    /// back by the caller.
    WroteBack,
    /// Line was resident but already clean: no writeback.
    Clean,
    /// Line not resident: nothing to do.
    Absent,
}

/// RRPV a fresh line is inserted with (SRRIP "long re-reference").
const RRPV_INSERT: u8 = 2;
/// RRPV at which a line is evictable.
const RRPV_MAX: u8 = 3;

#[derive(Clone, Copy)]
struct Line {
    /// Line address (byte offset / CACHE_LINE), or `INVALID`.
    addr: u64,
    dirty: bool,
    /// Re-reference prediction value: 0 = just used, 3 = evictable.
    rrpv: u8,
}

struct Shard {
    /// Every set this shard owns, flat: set `local`'s ways are
    /// `lines[local * ways..(local + 1) * ways]`.
    lines: Box<[Line]>,
    /// xorshift64 state for victim-scan rotation (deterministic per
    /// shard).
    rng: u64,
}

impl Shard {
    #[inline]
    fn rand(&mut self) -> u64 {
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        x
    }
}

/// How a line address maps to `(shard, local set)`. The definition is
/// `set = line % num_sets`, `shard = set % num_shards`,
/// `local = set / num_shards`; when both counts are powers of two (true
/// of every shipped preset) the same three values fall out of a mask
/// and a shift, which is an arithmetic identity, not a second model.
#[derive(Clone, Copy)]
enum SetMap {
    Pow2 {
        set_mask: u64,
        shard_mask: u64,
        shard_shift: u32,
    },
    Generic {
        num_sets: u64,
        num_shards: u64,
    },
}

/// The sharded cache model.
pub struct CacheSim {
    shards: Box<[Mutex<Shard>]>,
    map: SetMap,
    num_sets: u64,
    ways: usize,
}

impl CacheSim {
    /// Build a cache with `num_sets` sets of `ways` lines, sharded
    /// `num_shards` ways.
    pub fn new(num_sets: u64, ways: usize, num_shards: usize) -> CacheSim {
        assert!(num_sets > 0 && ways > 0 && num_shards > 0);
        let num_shards = num_shards.min(num_sets as usize) as u64;
        let empty = Line {
            addr: INVALID,
            dirty: false,
            rrpv: RRPV_MAX,
        };
        let shards: Vec<Mutex<Shard>> = (0..num_shards)
            .map(|s| {
                // Shard `s` owns sets {s, s + S, s + 2S, ...}.
                let local_sets = (num_sets - s).div_ceil(num_shards) as usize;
                Mutex::new(Shard {
                    lines: vec![empty; local_sets * ways].into_boxed_slice(),
                    rng: 0x9E37_79B9_7F4A_7C15 ^ (s + 1),
                })
            })
            .collect();
        let map = if num_sets.is_power_of_two() && num_shards.is_power_of_two() {
            SetMap::Pow2 {
                set_mask: num_sets - 1,
                shard_mask: num_shards - 1,
                shard_shift: num_shards.trailing_zeros(),
            }
        } else {
            SetMap::Generic {
                num_sets,
                num_shards,
            }
        };
        CacheSim {
            shards: shards.into_boxed_slice(),
            map,
            num_sets,
            ways,
        }
    }

    /// `(shard, index of the set's first way in that shard's lines)`.
    #[inline]
    fn locate(&self, line_addr: u64) -> (usize, usize) {
        let (shard, local) = match self.map {
            SetMap::Pow2 {
                set_mask,
                shard_mask,
                shard_shift,
            } => {
                let set = line_addr & set_mask;
                (set & shard_mask, set >> shard_shift)
            }
            SetMap::Generic {
                num_sets,
                num_shards,
            } => {
                let set = line_addr % num_sets;
                (set % num_shards, set / num_shards)
            }
        };
        (shard as usize, local as usize * self.ways)
    }

    /// Access `line_addr`; fills on miss (SRRIP victim selection), marks
    /// dirty on writes, refreshes the re-reference prediction.
    pub fn access(&self, line_addr: u64, write: bool) -> AccessResult {
        let (shard_i, base) = self.locate(line_addr);
        let ways = self.ways;
        let mut shard = self.shards[shard_i].lock();
        let set = &mut shard.lines[base..base + ways];

        // Hit?
        if let Some(line) = set.iter_mut().find(|l| l.addr == line_addr) {
            line.rrpv = 0;
            line.dirty |= write;
            return AccessResult {
                hit: true,
                dirty_victim: None,
            };
        }

        // Miss: prefer an invalid way; otherwise the SRRIP victim scan
        // from a random starting way.
        let victim = match set.iter().position(|l| l.addr == INVALID) {
            Some(i) => i,
            None => {
                let start = (shard.rand() % ways as u64) as usize;
                let set = &mut shard.lines[base..base + ways];
                'outer: loop {
                    // Ways `start, start + 1, ..` wrapping at `ways`.
                    for i in (start..ways).chain(0..start) {
                        if set[i].rrpv >= RRPV_MAX {
                            break 'outer i;
                        }
                    }
                    for line in set.iter_mut() {
                        line.rrpv = (line.rrpv + 1).min(RRPV_MAX);
                    }
                }
            }
        };
        let slot = &mut shard.lines[base + victim];
        let dirty_victim = (slot.addr != INVALID && slot.dirty).then_some(slot.addr);
        *slot = Line {
            addr: line_addr,
            dirty: write,
            rrpv: RRPV_INSERT,
        };
        AccessResult {
            hit: false,
            dirty_victim,
        }
    }

    /// `clwb` on a line: clean it if dirty, keep it resident.
    pub fn clwb(&self, line_addr: u64) -> ClwbResult {
        let (shard_i, base) = self.locate(line_addr);
        let mut shard = self.shards[shard_i].lock();
        let set = &mut shard.lines[base..base + self.ways];
        match set.iter_mut().find(|l| l.addr == line_addr) {
            Some(line) if line.dirty => {
                line.dirty = false;
                ClwbResult::WroteBack
            }
            Some(_) => ClwbResult::Clean,
            None => ClwbResult::Absent,
        }
    }

    /// Whether the line is currently resident (test/diagnostic helper).
    pub fn contains(&self, line_addr: u64) -> bool {
        let (shard_i, base) = self.locate(line_addr);
        let shard = self.shards[shard_i].lock();
        shard.lines[base..base + self.ways]
            .iter()
            .any(|l| l.addr == line_addr)
    }

    /// Whether the line is resident *and dirty*.
    pub fn is_dirty(&self, line_addr: u64) -> bool {
        let (shard_i, base) = self.locate(line_addr);
        let shard = self.shards[shard_i].lock();
        shard.lines[base..base + self.ways]
            .iter()
            .any(|l| l.addr == line_addr && l.dirty)
    }

    /// Drain every line, invoking `f` with the address of each dirty one,
    /// and leave the cache empty. Used at simulated crash (eADR flushes
    /// dirty lines to the persistence domain; ADR drops them — the caller
    /// decides what `f` does).
    pub fn drain<F: FnMut(u64)>(&self, mut f: F) {
        for shard in self.shards.iter() {
            let mut shard = shard.lock();
            for line in shard.lines.iter_mut() {
                if line.addr != INVALID && line.dirty {
                    f(line.addr);
                }
                line.addr = INVALID;
                line.dirty = false;
                line.rrpv = RRPV_MAX;
            }
        }
    }

    /// Count of resident dirty lines (diagnostic).
    pub fn dirty_lines(&self) -> usize {
        self.shards
            .iter()
            .map(|shard| {
                let shard = shard.lock();
                shard
                    .lines
                    .iter()
                    .filter(|l| l.addr != INVALID && l.dirty)
                    .count()
            })
            .sum()
    }

    /// Total line capacity.
    pub fn capacity_lines(&self) -> u64 {
        self.num_sets * self.ways as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_after_fill() {
        let c = CacheSim::new(4, 2, 1);
        let r = c.access(100, false);
        assert!(!r.hit);
        assert_eq!(r.dirty_victim, None);
        let r = c.access(100, true);
        assert!(r.hit);
        assert!(c.is_dirty(100));
    }

    #[test]
    fn eviction_prefers_unreferenced_lines() {
        // 2 ways: line 0 is re-referenced (RRPV 0), line 4 is touch-once
        // (RRPV 2). A miss must victimize line 4.
        let c = CacheSim::new(4, 2, 1);
        c.access(0, true);
        c.access(4, false);
        c.access(0, false); // Re-reference 0: its RRPV drops to 0.
        let r = c.access(8, false);
        assert!(!r.hit);
        // Victim was 4, which is clean: no writeback, 0 survives.
        assert_eq!(r.dirty_victim, None);
        assert!(!c.contains(4));
        assert!(c.contains(0));
    }

    #[test]
    fn clwb_cleans_but_keeps() {
        let c = CacheSim::new(4, 2, 1);
        c.access(5, true);
        assert_eq!(c.clwb(5), ClwbResult::WroteBack);
        assert!(c.contains(5));
        assert!(!c.is_dirty(5));
        assert_eq!(c.clwb(5), ClwbResult::Clean);
        assert_eq!(c.clwb(999), ClwbResult::Absent);
    }

    #[test]
    fn drain_reports_dirty_and_empties() {
        let c = CacheSim::new(8, 2, 2);
        c.access(1, true);
        c.access(2, false);
        c.access(3, true);
        let mut dirty = Vec::new();
        c.drain(|l| dirty.push(l));
        dirty.sort_unstable();
        assert_eq!(dirty, vec![1, 3]);
        assert!(!c.contains(1));
        assert!(!c.contains(2));
        assert_eq!(c.dirty_lines(), 0);
    }

    #[test]
    fn sharding_covers_all_sets() {
        // 10 sets over 3 shards; every line address must be addressable.
        let c = CacheSim::new(10, 2, 3);
        for l in 0..100 {
            c.access(l, true);
        }
        assert!(c.dirty_lines() <= c.capacity_lines() as usize);
        let mut n = 0;
        c.drain(|_| n += 1);
        assert!(n > 0);
    }

    #[test]
    fn repeated_access_keeps_small_working_set_mostly_resident() {
        // The small-log-window property: a working set smaller than the
        // cache, re-touched frequently, is almost never evicted even
        // while a large stream passes through ("Rarely Evicted" in the
        // paper's Figure 4). Under 2-random-choices the guarantee is
        // statistical rather than absolute.
        let c = CacheSim::new(64, 8, 4);
        for l in 0..32u64 {
            c.access(l, true);
        }
        let mut hot_evictions = 0u64;
        let mut stream_evictions = 0u64;
        for i in 0..10_000u64 {
            let r = c.access(1000 + i, true);
            if let Some(v) = r.dirty_victim {
                if v < 32 {
                    hot_evictions += 1;
                } else {
                    stream_evictions += 1;
                }
            }
            // Re-touch the hot set regularly (they stay near-MRU).
            if i % 8 == 0 {
                for l in 0..32u64 {
                    c.access(l, true);
                }
            }
        }
        assert!(stream_evictions > 1_000, "the stream must churn");
        assert!(
            (hot_evictions as f64) < 0.02 * (hot_evictions + stream_evictions) as f64,
            "hot lines must almost never be evicted: {hot_evictions} of {}",
            hot_evictions + stream_evictions
        );
    }
}
