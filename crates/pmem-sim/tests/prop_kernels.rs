//! Differential tests pinning "same model, faster code" for the two
//! host kernels under every device access: the word-wise, chunked
//! [`Backing`] byte-range kernels against a bytewise reference (within
//! one chunk and across chunk boundaries), and the flat, mask-and-shift
//! [`CacheSim`] against a copy of the nested-`Box`, modulo-mapped
//! implementation it replaced.

use std::ops::Range;

use proptest::prelude::*;

use pmem_sim::backing::Backing;
use pmem_sim::cache::{AccessResult, CacheSim, ClwbResult};

// --- Backing ---------------------------------------------------------------

const CAP: u64 = 128;

/// The backing's bytes over `[lo, hi)` (both 8-aligned), read one
/// aligned word at a time (a path that shares no code with
/// `read_bytes`).
fn image(b: &Backing, lo: u64, hi: u64) -> Vec<u8> {
    (lo / 8..hi / 8)
        .flat_map(|w| b.load_u64(w * 8).to_le_bytes())
        .collect()
}

/// Apply one `(kind, off, len, fill)` op to both the backing and the
/// bytewise model, checking the read result and then the image's bytes
/// over `check` (8-aligned).
fn apply(b: &Backing, model: &mut [u8], kind: u8, off: u64, len: u64, fill: u8, check: Range<u64>) {
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
        image(b, check.start, check.end),
        &model[check.start as usize..check.end as usize],
        "image {check:?} after kind={kind} off={off} len={len}"
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
                apply(&b, &mut model, kind, off, len, 0x11, 0..CAP);
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
            apply(&b, &mut model, kind, off, len % (CAP - off + 1), fill, 0..CAP);
        }
    }
}

// --- Backing across chunk boundaries ----------------------------------------

/// The backing's chunk size. [`chunk_size_is_what_these_tests_assume`]
/// pins it, so a change to the backing cannot silently move every
/// boundary below out of these tests' reach.
const CHUNK: u64 = 64 << 10;

/// Four chunks, the last one partial: the capacity is a whole number
/// of words but not of chunks.
const BIG: u64 = 3 * CHUNK + 1000;

/// The 8-aligned bytes within 64 of an op on `[off, off + len)`: the
/// range it changes and its neighbours on both sides.
fn near(off: u64, len: u64) -> Range<u64> {
    (off.saturating_sub(64) & !7)..(off + len + 64).next_multiple_of(8).min(BIG)
}

#[test]
fn chunk_size_is_what_these_tests_assume() {
    let b = Backing::new(BIG);
    b.write_bytes(CHUNK - 1, &[1, 2]);
    assert_eq!(
        b.resident_bytes(),
        2 * CHUNK,
        "one byte each side of a boundary"
    );
}

/// Every small `(off, len)` shape that straddles each chunk boundary —
/// and a few that span a whole chunk — for each kernel. Only the chunks
/// either side of the boundary are pre-filled, so the other chunks are
/// never written and reads and zeroes run over them too.
#[test]
fn backing_kernels_match_bytewise_across_chunk_boundaries() {
    for boundary in [CHUNK, 2 * CHUNK, 3 * CHUNK] {
        let mut shapes: Vec<(u64, u64)> = Vec::new();
        for off in boundary - 20..boundary + 4 {
            for len in 0..=44 {
                shapes.push((off, len));
            }
        }
        shapes.extend([
            (boundary - CHUNK, CHUNK),
            (boundary - CHUNK + 3, CHUNK + 11),
            (boundary - 8, (BIG - boundary + 8).min(CHUNK + 16)),
        ]);
        for kind in 0..3u8 {
            for &(off, len) in &shapes {
                let b = Backing::new(BIG);
                let mut model = vec![0u8; BIG as usize];
                for w in (boundary - 64) / 8..(boundary + 64) / 8 {
                    let word = 0x8080_8080_8080_8080 | (w * 0x0101_0101);
                    b.store_u64(w * 8, word);
                    model[w as usize * 8..w as usize * 8 + 8].copy_from_slice(&word.to_le_bytes());
                }
                apply(&b, &mut model, kind, off, len, 0x11, near(off, len));
            }
        }
    }
}

/// Reads and zeroes of never-written chunks see and keep zeros and
/// allocate nothing; one write allocates exactly the chunks it reaches.
#[test]
fn backing_untouched_chunks_read_and_zero_as_zeros() {
    let b = Backing::new(BIG);
    let mut all = vec![0xA5u8; BIG as usize];
    b.read_bytes(0, &mut all);
    assert!(all.iter().all(|&v| v == 0));
    b.zero(5, BIG - 9);
    assert_eq!(b.load_u64(BIG - 8), 0);
    assert_eq!(b.resident_bytes(), 0);
    b.write_bytes(2 * CHUNK - 3, &[7; 6]);
    assert_eq!(b.resident_bytes(), 2 * CHUNK);
    b.read_bytes(0, &mut all);
    for (i, &v) in all.iter().enumerate() {
        let want = if (2 * CHUNK - 3..2 * CHUNK + 3).contains(&(i as u64)) {
            7
        } else {
            0
        };
        assert_eq!(v, want, "byte {i}");
    }
    b.zero(0, BIG);
    b.read_bytes(0, &mut all);
    assert!(all.iter().all(|&v| v == 0));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random interleavings of write / zero / read over ranges near the
    /// chunk boundaries (and the device's end) leave the backing
    /// byte-identical to the model around every op, and everywhere at
    /// the end.
    #[test]
    fn backing_kernels_match_bytewise_on_random_streams_across_chunks(
        ops in proptest::collection::vec(
            (any::<u8>(), 0..=4u64, -300..300i64, 0..700u64, any::<u8>()),
            1..60,
        )
    ) {
        let b = Backing::new(BIG);
        let mut model = vec![0u8; BIG as usize];
        for &(kind, k, delta, len, fill) in &ops {
            let off = (k * CHUNK).min(BIG).saturating_add_signed(delta).min(BIG);
            let len = len.min(BIG - off);
            apply(&b, &mut model, kind, off, len, fill, near(off, len));
        }
        prop_assert_eq!(image(&b, 0, BIG), model);
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
