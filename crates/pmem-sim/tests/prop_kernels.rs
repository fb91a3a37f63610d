//! Differential tests pinning "same model, faster code" for the two
//! host kernels under every device access: the word-wise [`Backing`]
//! byte-range kernels against a bytewise reference, and the flat,
//! mask-and-shift [`CacheSim`] against a copy of the nested-`Box`,
//! modulo-mapped implementation it replaced.

use proptest::prelude::*;

use pmem_sim::backing::Backing;
use pmem_sim::cache::{AccessResult, CacheSim, ClwbResult};

// --- Backing ---------------------------------------------------------------

const CAP: u64 = 128;

/// The backing's bytes, read one aligned word at a time (a path that
/// shares no code with `read_bytes`).
fn image(b: &Backing) -> Vec<u8> {
    (0..CAP / 8)
        .flat_map(|w| b.load_u64(w * 8).to_le_bytes())
        .collect()
}

/// Apply one `(kind, off, len, fill)` op to both the backing and the
/// bytewise model, checking the read result / resulting image.
fn apply(b: &Backing, model: &mut [u8], kind: u8, off: u64, len: u64, fill: u8) {
    let (lo, hi) = (off as usize, (off + len) as usize);
    match kind % 3 {
        0 => {
            let data: Vec<u8> = (0..len).map(|i| fill.wrapping_add(i as u8) | 1).collect();
            b.write_bytes(off, &data);
            model[lo..hi].copy_from_slice(&data);
        }
        1 => {
            b.zero(off, len);
            model[lo..hi].fill(0);
        }
        _ => {
            let mut got = vec![0xA5u8; len as usize];
            b.read_bytes(off, &mut got);
            assert_eq!(got, &model[lo..hi], "read off={off} len={len}");
        }
    }
    assert_eq!(
        image(b),
        model,
        "image after kind={kind} off={off} len={len}"
    );
}

/// Every `(off, len)` shape around the word grid — empty, sub-word,
/// head-only, tail-only, whole words, and ranges straddling one or
/// several words — for each kernel, on a non-zero image so untouched
/// neighbours are checked too.
#[test]
fn backing_kernels_match_bytewise_on_every_small_range() {
    for kind in 0..3u8 {
        for off in 0..20u64 {
            for len in 0..=44u64 {
                let b = Backing::new(CAP);
                let mut model: Vec<u8> = (0..CAP).map(|i| 0x80 | i as u8).collect();
                for (w, chunk) in model.chunks_exact(8).enumerate() {
                    b.store_u64(w as u64 * 8, u64::from_le_bytes(chunk.try_into().unwrap()));
                }
                apply(&b, &mut model, kind, off, len, 0x11);
            }
        }
    }
    // Zero-length access at the very end of the device is in range.
    let b = Backing::new(CAP);
    b.write_bytes(CAP, &[]);
    b.zero(CAP, 0);
    b.read_bytes(CAP, &mut []);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Random interleavings of write / zero / read over random ranges
    /// leave the backing byte-identical to the model after every op.
    #[test]
    fn backing_kernels_match_bytewise_on_random_streams(
        ops in proptest::collection::vec((any::<u8>(), 0..=CAP, 0..=CAP, any::<u8>()), 1..80)
    ) {
        let b = Backing::new(CAP);
        let mut model = vec![0u8; CAP as usize];
        for &(kind, off, len, fill) in &ops {
            apply(&b, &mut model, kind, off, len % (CAP - off + 1), fill);
        }
    }
}

// --- CacheSim --------------------------------------------------------------

/// The cache model as it was before the flat/mask-and-shift rewrite:
/// `sets[local][way]` behind two `Box` hops per shard, set/shard/local
/// by runtime `%` and `/`, and a modulo-wrapped victim scan. Kept
/// verbatim (minus the locks) as the reference the shipped model must
/// reproduce decision for decision.
mod reference {
    use super::{AccessResult, ClwbResult};

    const INVALID: u64 = u64::MAX;
    const RRPV_INSERT: u8 = 2;
    const RRPV_MAX: u8 = 3;

    #[derive(Clone, Copy)]
    struct Line {
        addr: u64,
        dirty: bool,
        rrpv: u8,
    }

    struct Shard {
        sets: Box<[Box<[Line]>]>,
        rng: u64,
    }

    impl Shard {
        fn rand(&mut self) -> u64 {
            let mut x = self.rng;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.rng = x;
            x
        }
    }

    pub struct RefCache {
        shards: Vec<Shard>,
        num_sets: u64,
        num_shards: u64,
    }

    impl RefCache {
        pub fn new(num_sets: u64, ways: usize, num_shards: usize) -> RefCache {
            let num_shards = num_shards.min(num_sets as usize);
            let empty = Line {
                addr: INVALID,
                dirty: false,
                rrpv: RRPV_MAX,
            };
            let shards = (0..num_shards as u64)
                .map(|s| {
                    let local_sets = (num_sets - s).div_ceil(num_shards as u64);
                    Shard {
                        sets: (0..local_sets)
                            .map(|_| vec![empty; ways].into_boxed_slice())
                            .collect(),
                        rng: 0x9E37_79B9_7F4A_7C15 ^ (s + 1),
                    }
                })
                .collect();
            RefCache {
                shards,
                num_sets,
                num_shards: num_shards as u64,
            }
        }

        fn locate(&self, line_addr: u64) -> (usize, usize) {
            let set = line_addr % self.num_sets;
            (
                (set % self.num_shards) as usize,
                (set / self.num_shards) as usize,
            )
        }

        pub fn access(&mut self, line_addr: u64, write: bool) -> AccessResult {
            let (shard_i, local) = self.locate(line_addr);
            let shard = &mut self.shards[shard_i];
            for line in shard.sets[local].iter_mut() {
                if line.addr == line_addr {
                    line.rrpv = 0;
                    line.dirty |= write;
                    return AccessResult {
                        hit: true,
                        dirty_victim: None,
                    };
                }
            }
            let ways = shard.sets[local].len();
            let victim = match shard.sets[local].iter().position(|l| l.addr == INVALID) {
                Some(i) => i,
                None => {
                    let start = (shard.rand() % ways as u64) as usize;
                    let set = &mut shard.sets[local];
                    'outer: loop {
                        for k in 0..ways {
                            let i = (start + k) % ways;
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
            let set = &mut shard.sets[local];
            let v = set[victim];
            let dirty_victim = (v.addr != INVALID && v.dirty).then_some(v.addr);
            set[victim] = Line {
                addr: line_addr,
                dirty: write,
                rrpv: RRPV_INSERT,
            };
            AccessResult {
                hit: false,
                dirty_victim,
            }
        }

        pub fn clwb(&mut self, line_addr: u64) -> ClwbResult {
            let (shard_i, local) = self.locate(line_addr);
            for line in self.shards[shard_i].sets[local].iter_mut() {
                if line.addr == line_addr {
                    return if line.dirty {
                        line.dirty = false;
                        ClwbResult::WroteBack
                    } else {
                        ClwbResult::Clean
                    };
                }
            }
            ClwbResult::Absent
        }

        /// Dirty lines in drain order (shard, then set, then way).
        pub fn drain(&mut self) -> Vec<u64> {
            let mut out = Vec::new();
            for shard in &mut self.shards {
                for set in shard.sets.iter_mut() {
                    for line in set.iter_mut() {
                        if line.addr != INVALID && line.dirty {
                            out.push(line.addr);
                        }
                        line.addr = INVALID;
                    }
                }
            }
            out
        }
    }
}

/// `(sets, ways, shards)`: the `SimConfig::small()` shape (all powers of
/// two), the issue's 12-way / 192 KB / 6-shard shape (pow2 sets, odd
/// shard count), and one where nothing is a power of two and the
/// shards own unequal numbers of sets.
const GEOMETRIES: [(u64, usize, usize); 3] = [(512, 8, 8), (256, 12, 6), (10, 3, 3)];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The same access / clwb stream drives both models to the same
    /// result at every step, the same dirty-line count, and the same
    /// drain (crash write-back) order.
    #[test]
    fn cache_matches_reference_model(
        ops in proptest::collection::vec((any::<u64>(), any::<u8>()), 8_000..12_000)
    ) {
        for &(sets, ways, shards) in &GEOMETRIES {
            let new = CacheSim::new(sets, ways, shards);
            let mut old = reference::RefCache::new(sets, ways, shards);
            // Three capacities' worth of lines: hits, fills and full-set
            // victim scans all occur; a quarter of the addresses are far
            // above the dense range so high address bits matter.
            let universe = 3 * sets * ways as u64;
            for (i, &(r, kind)) in ops.iter().enumerate() {
                let mut line = r % universe;
                if r >> 62 == 0 {
                    line += (r >> 20) << 24;
                }
                if kind % 5 == 0 {
                    prop_assert_eq!(new.clwb(line), old.clwb(line), "clwb #{} line {}", i, line);
                } else {
                    let write = kind % 2 == 0;
                    prop_assert_eq!(
                        new.access(line, write),
                        old.access(line, write),
                        "access #{} line {} on {:?}", i, line, (sets, ways, shards)
                    );
                }
            }
            let mut drained = Vec::new();
            let dirty = new.dirty_lines();
            new.drain(|l| drained.push(l));
            prop_assert_eq!(&drained, &old.drain());
            prop_assert_eq!(dirty, drained.len());
        }
    }
}
