//! Raw backing storage for the simulated NVM.
//!
//! The device keeps one image (what loads observe; a crash keeps it
//! except where the device's durable overlay says otherwise): a row of
//! fixed-size chunks of [`AtomicU64`] words, each allocated by the first
//! write that reaches it. A chunk never written reads as zeros and costs
//! one empty slot, so host memory follows the bytes the engines touch,
//! not the device's capacity, and [`Backing::duplicate`] (a device fork)
//! copies only the touched chunks.
//!
//! Every byte-level access is decomposed into relaxed atomic word
//! operations, so concurrent access from many worker threads is free of
//! undefined behaviour — a torn or stale read across word boundaries is
//! possible exactly as it is on real hardware, and the engines above are
//! responsible for their own synchronization (tuple locks, CAS on
//! metadata words). A chunk is a whole number of words, so no word
//! straddles two chunks and the word contract is the same as for one
//! flat array.

use core::ops::Range;
use core::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Bytes per chunk: a power of two and a whole number of words.
const CHUNK_BYTES: u64 = 64 << 10;

/// Words per chunk.
const CHUNK_WORDS: usize = (CHUNK_BYTES / 8) as usize;

/// The words of one touched chunk. A fixed-size array, so a word index
/// taken modulo the chunk needs no bounds check and no length load.
type Chunk = Box<[AtomicU64; CHUNK_WORDS]>;

/// A fresh all-zero chunk, built on the heap.
fn zeroed_chunk() -> Chunk {
    let words: Box<[AtomicU64]> = (0..CHUNK_WORDS).map(|_| AtomicU64::new(0)).collect();
    words.try_into().expect("CHUNK_WORDS words")
}

/// A word-atomic byte array, allocated one chunk at a time on touch.
pub struct Backing {
    /// One slot per `CHUNK_BYTES` of capacity; empty until first written.
    chunks: Box<[OnceLock<Chunk>]>,
    len: u64,
}

impl Backing {
    /// A zero-filled backing of `len` bytes. Nothing is allocated beyond
    /// one empty slot per chunk: a chunk's words are allocated by the
    /// first write into it.
    pub fn new(len: u64) -> Backing {
        Backing {
            chunks: (0..len.div_ceil(CHUNK_BYTES))
                .map(|_| OnceLock::new())
                .collect(),
            len,
        }
    }

    /// Capacity in bytes.
    #[inline]
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the backing is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Host bytes held by the image: the touched chunks times the chunk
    /// size.
    pub fn resident_bytes(&self) -> u64 {
        self.chunks.iter().filter(|c| c.get().is_some()).count() as u64 * CHUNK_BYTES
    }

    /// The chunk slot holding byte `off`, and `off`'s word index in it.
    #[inline]
    fn locate(&self, off: u64) -> (&OnceLock<Chunk>, usize) {
        (
            &self.chunks[(off / CHUNK_BYTES) as usize],
            (off % CHUNK_BYTES / 8) as usize,
        )
    }

    /// The word holding byte `off`, or `None` if its chunk was never
    /// written (the word reads as zero).
    #[inline]
    fn word(&self, off: u64) -> Option<&AtomicU64> {
        let (slot, w) = self.locate(off);
        slot.get().map(|chunk| &chunk[w])
    }

    /// The word holding byte `off`, allocating its chunk if needed.
    #[inline]
    fn word_mut(&self, off: u64) -> &AtomicU64 {
        let (slot, w) = self.locate(off);
        &slot.get_or_init(zeroed_chunk)[w]
    }

    #[inline]
    fn check_range(&self, off: u64, len: u64) {
        assert!(
            off.checked_add(len).is_some_and(|end| end <= self.len),
            "pmem access out of range: off={off:#x} len={len} capacity={}",
            self.len
        );
    }

    /// Range-check `[off, off + len)` and split it at chunk boundaries:
    /// `f(slot, at, piece)` is called once per chunk the range overlaps,
    /// with the chunk's slot, the piece's byte offset inside the chunk,
    /// and the piece as a range of offsets relative to `off`.
    #[inline]
    fn pieces(
        &self,
        off: u64,
        len: usize,
        mut f: impl FnMut(&OnceLock<Chunk>, usize, Range<usize>),
    ) {
        self.check_range(off, len as u64);
        if len == 0 {
            return;
        }
        let chunk = CHUNK_BYTES as usize;
        let (mut c, mut at) = ((off / CHUNK_BYTES) as usize, (off % CHUNK_BYTES) as usize);
        if at + len <= chunk {
            // The usual case: the range sits inside one chunk.
            return f(&self.chunks[c], at, 0..len);
        }
        let mut done = 0;
        while done < len {
            let n = (chunk - at).min(len - done);
            f(&self.chunks[c], at, done..done + n);
            (c, at, done) = (c + 1, 0, done + n);
        }
    }

    /// Read `buf.len()` bytes starting at `off`: one relaxed load per
    /// word the range overlaps, and zeros from chunks never written.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn read_bytes(&self, off: u64, buf: &mut [u8]) {
        self.pieces(off, buf.len(), |slot, at, piece| {
            let buf = &mut buf[piece];
            match slot.get() {
                Some(words) => Span::new(words, at, buf.len()).read(buf),
                None => buf.fill(0),
            }
        });
    }

    /// Write `data` starting at `off`, allocating each chunk it reaches
    /// that was never written.
    ///
    /// Whole aligned words are stored directly; partial head/tail words
    /// are merged with a load + store (not a CAS): concurrent writers to
    /// *distinct bytes of the same word* would race, which the layouts
    /// above avoid by 8-byte-aligning all concurrently-written fields.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn write_bytes(&self, off: u64, data: &[u8]) {
        self.pieces(off, data.len(), |slot, at, piece| {
            let data = &data[piece];
            Span::new(slot.get_or_init(zeroed_chunk), at, data.len()).write(data);
        });
    }

    /// Zero a byte range (same word discipline as [`Backing::write_bytes`]).
    /// Chunks never written are already zero and stay unallocated.
    pub fn zero(&self, off: u64, len: u64) {
        self.pieces(off, len as usize, |slot, at, piece| {
            if let Some(words) = slot.get() {
                Span::new(words, at, piece.len()).zero();
            }
        });
    }

    /// Atomic 64-bit load with acquire ordering. `off` must be 8-aligned.
    ///
    /// # Panics
    ///
    /// Panics on misalignment or out-of-range.
    #[inline]
    pub fn load_u64(&self, off: u64) -> u64 {
        self.check_range(off, 8);
        assert!(off.is_multiple_of(8), "unaligned atomic load at {off:#x}");
        self.word(off).map_or(0, |w| w.load(Ordering::Acquire))
    }

    /// Atomic 64-bit store with release ordering. `off` must be 8-aligned.
    #[inline]
    pub fn store_u64(&self, off: u64, val: u64) {
        self.check_range(off, 8);
        assert!(off.is_multiple_of(8), "unaligned atomic store at {off:#x}");
        self.word_mut(off).store(val, Ordering::Release);
    }

    /// Atomic compare-exchange (SeqCst), returning `Ok(previous)` on
    /// success and `Err(current)` on failure. `off` must be 8-aligned.
    #[inline]
    pub fn cas_u64(&self, off: u64, old: u64, new: u64) -> Result<u64, u64> {
        self.check_range(off, 8);
        assert!(off.is_multiple_of(8), "unaligned CAS at {off:#x}");
        self.word_mut(off)
            .compare_exchange(old, new, Ordering::SeqCst, Ordering::SeqCst)
    }

    /// Atomic fetch-add (SeqCst). `off` must be 8-aligned.
    #[inline]
    pub fn fetch_add_u64(&self, off: u64, val: u64) -> u64 {
        self.check_range(off, 8);
        assert!(off.is_multiple_of(8), "unaligned fetch_add at {off:#x}");
        self.word_mut(off).fetch_add(val, Ordering::SeqCst)
    }

    /// Atomic fetch-and (SeqCst). `off` must be 8-aligned.
    #[inline]
    pub fn fetch_and_u64(&self, off: u64, val: u64) -> u64 {
        self.check_range(off, 8);
        assert!(off.is_multiple_of(8), "unaligned fetch_and at {off:#x}");
        self.word_mut(off).fetch_and(val, Ordering::SeqCst)
    }

    /// Atomic fetch-or (SeqCst). `off` must be 8-aligned.
    #[inline]
    pub fn fetch_or_u64(&self, off: u64, val: u64) -> u64 {
        self.check_range(off, 8);
        assert!(off.is_multiple_of(8), "unaligned fetch_or at {off:#x}");
        self.word_mut(off).fetch_or(val, Ordering::SeqCst)
    }

    /// Snapshot the image into a fresh backing (device forking): the
    /// touched chunks are copied, the rest stay unallocated in both.
    pub fn duplicate(&self) -> Backing {
        let copy = |words: &Chunk| -> Chunk {
            let copied: Box<[AtomicU64]> = words
                .iter()
                .map(|w| AtomicU64::new(w.load(Ordering::Relaxed)))
                .collect();
            copied.try_into().expect("CHUNK_WORDS words")
        };
        Backing {
            chunks: self
                .chunks
                .iter()
                .map(|slot| {
                    slot.get()
                        .map_or_else(OnceLock::new, |w| OnceLock::from(copy(w)))
                })
                .collect(),
            len: self.len,
        }
    }

    /// Flip bit `bit` (0..8) of the byte at `off` — bit-rot injection.
    pub fn flip_bit(&self, off: u64, bit: u8) {
        self.check_range(off, 1);
        let word_base = off & !7;
        let shift = ((off - word_base) * 8 + u64::from(bit & 7)) as u32;
        self.word_mut(word_base)
            .fetch_xor(1u64 << shift, Ordering::Relaxed);
    }
}

/// A byte range inside one chunk, decomposed against the word grid: an
/// unaligned head inside one word, a run of whole words, and a tail that
/// is a prefix of the word after them. Computed once per piece so the
/// kernels touch each overlapped word exactly once and the aligned middle
/// is a plain slice walk (no per-word index arithmetic or bounds check).
struct Span<'a> {
    /// Word holding the head bytes `[shift, shift + head)`, if any.
    head_word: Option<&'a AtomicU64>,
    shift: usize,
    head: usize,
    /// Words covered entirely.
    mid: &'a [AtomicU64],
    /// Word holding the tail bytes `[0, tail)`, if any.
    tail_word: Option<&'a AtomicU64>,
    tail: usize,
}

impl<'a> Span<'a> {
    /// Bytes `[at, at + len)` of a chunk.
    #[inline]
    fn new(words: &'a [AtomicU64; CHUNK_WORDS], at: usize, len: usize) -> Span<'a> {
        let shift = at % 8;
        let head = if shift == 0 { 0 } else { (8 - shift).min(len) };
        let mid = (len - head) / 8;
        let tail = (len - head) % 8;
        let first = at / 8 + usize::from(head > 0);
        Span {
            head_word: (head > 0).then(|| &words[first - 1]),
            shift,
            head,
            mid: &words[first..first + mid],
            tail_word: (tail > 0).then(|| &words[first + mid]),
            tail,
        }
    }

    fn read(&self, buf: &mut [u8]) {
        let (head, rest) = buf.split_at_mut(self.head);
        let (mid, tail) = rest.split_at_mut(self.mid.len() * 8);
        if let Some(cell) = self.head_word {
            let bytes = cell.load(Ordering::Relaxed).to_le_bytes();
            head.copy_from_slice(&bytes[self.shift..self.shift + self.head]);
        }
        for (chunk, cell) in mid.chunks_exact_mut(8).zip(self.mid) {
            chunk.copy_from_slice(&cell.load(Ordering::Relaxed).to_le_bytes());
        }
        if let Some(cell) = self.tail_word {
            let bytes = cell.load(Ordering::Relaxed).to_le_bytes();
            tail.copy_from_slice(&bytes[..self.tail]);
        }
    }

    fn write(&self, data: &[u8]) {
        let (head, rest) = data.split_at(self.head);
        let (mid, tail) = rest.split_at(self.mid.len() * 8);
        if let Some(cell) = self.head_word {
            merge(cell, self.shift, self.head, |dst| dst.copy_from_slice(head));
        }
        for (chunk, cell) in mid.chunks_exact(8).zip(self.mid) {
            let word = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
            cell.store(word, Ordering::Relaxed);
        }
        if let Some(cell) = self.tail_word {
            merge(cell, 0, self.tail, |dst| dst.copy_from_slice(tail));
        }
    }

    fn zero(&self) {
        if let Some(cell) = self.head_word {
            merge(cell, self.shift, self.head, |dst| dst.fill(0));
        }
        for cell in self.mid {
            cell.store(0, Ordering::Relaxed);
        }
        if let Some(cell) = self.tail_word {
            merge(cell, 0, self.tail, |dst| dst.fill(0));
        }
    }
}

/// Rewrite bytes `[at, at + len)` of a word with a relaxed load + store.
#[inline]
fn merge(cell: &AtomicU64, at: usize, len: usize, f: impl FnOnce(&mut [u8])) {
    let mut bytes = cell.load(Ordering::Relaxed).to_le_bytes();
    f(&mut bytes[at..at + len]);
    cell.store(u64::from_le_bytes(bytes), Ordering::Relaxed);
}

impl core::fmt::Debug for Backing {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Backing").field("len", &self.len).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_unaligned() {
        let b = Backing::new(128);
        let data: Vec<u8> = (0..37u8).collect();
        b.write_bytes(3, &data);
        let mut out = vec![0u8; 37];
        b.read_bytes(3, &mut out);
        assert_eq!(out, data);
        // Neighbouring bytes untouched.
        let mut edge = [0u8; 3];
        b.read_bytes(0, &mut edge);
        assert_eq!(edge, [0, 0, 0]);
    }

    #[test]
    fn roundtrip_word_aligned() {
        let b = Backing::new(64);
        b.store_u64(8, 0xdead_beef_cafe_f00d);
        assert_eq!(b.load_u64(8), 0xdead_beef_cafe_f00d);
        let mut bytes = [0u8; 8];
        b.read_bytes(8, &mut bytes);
        assert_eq!(u64::from_le_bytes(bytes), 0xdead_beef_cafe_f00d);
    }

    #[test]
    fn cas_and_fetch_ops() {
        let b = Backing::new(64);
        assert_eq!(b.cas_u64(0, 0, 5), Ok(0));
        assert_eq!(b.cas_u64(0, 0, 7), Err(5));
        assert_eq!(b.fetch_add_u64(0, 10), 5);
        assert_eq!(b.load_u64(0), 15);
        b.fetch_or_u64(0, 0x100);
        assert_eq!(b.load_u64(0), 15 | 0x100);
        b.fetch_and_u64(0, 0xff);
        assert_eq!(b.load_u64(0), 15);
    }

    #[test]
    fn zero_range() {
        let b = Backing::new(64);
        b.write_bytes(0, &[0xffu8; 64]);
        b.zero(5, 20);
        let mut out = [0u8; 64];
        b.read_bytes(0, &mut out);
        for (i, &v) in out.iter().enumerate() {
            if (5..25).contains(&i) {
                assert_eq!(v, 0, "byte {i}");
            } else {
                assert_eq!(v, 0xff, "byte {i}");
            }
        }
    }

    #[test]
    fn duplicate_copies_every_word() {
        let a = Backing::new(100);
        a.write_bytes(0, &[1u8; 100]);
        let b = a.duplicate();
        assert_eq!(b.len(), 100);
        let mut out = [0u8; 100];
        b.read_bytes(0, &mut out);
        assert_eq!(out, [1u8; 100]);
    }

    #[test]
    fn duplicate_and_flip_bit() {
        let a = Backing::new(64);
        a.write_bytes(0, &[0xaau8; 64]);
        let b = a.duplicate();
        let mut out = [0u8; 64];
        b.read_bytes(0, &mut out);
        assert_eq!(out, [0xaau8; 64]);
        // Flipping a bit in the copy leaves the original intact.
        b.flip_bit(13, 1);
        b.read_bytes(0, &mut out);
        assert_eq!(out[13], 0xaa ^ 0x02);
        a.read_bytes(0, &mut out);
        assert_eq!(out[13], 0xaa);
        // Flipping twice restores the byte.
        b.flip_bit(13, 1);
        b.read_bytes(0, &mut out);
        assert_eq!(out[13], 0xaa);
    }

    /// A bytewise model of a partly touched image: a few writes that
    /// straddle chunk boundaries, over a capacity that is not a whole
    /// number of chunks, leaving whole chunks never written.
    fn partly_touched() -> (Backing, Vec<u8>) {
        let cap = 5 * CHUNK_BYTES + 72;
        let b = Backing::new(cap);
        let mut model = vec![0u8; cap as usize];
        for (i, off) in [CHUNK_BYTES - 13, 3 * CHUNK_BYTES + 5, cap - 20]
            .into_iter()
            .enumerate()
        {
            let data: Vec<u8> = (0..20).map(|j| (i * 40 + j) as u8 | 0x80).collect();
            b.write_bytes(off, &data);
            model[off as usize..off as usize + 20].copy_from_slice(&data);
        }
        (b, model)
    }

    fn contents(b: &Backing) -> Vec<u8> {
        let mut out = vec![0xA5u8; b.len() as usize];
        b.read_bytes(0, &mut out);
        out
    }

    #[test]
    fn untouched_chunks_read_zero_without_allocating() {
        let b = Backing::new(3 * CHUNK_BYTES + 40);
        assert_eq!(b.resident_bytes(), 0);
        assert_eq!(contents(&b), vec![0u8; b.len() as usize]);
        assert_eq!(b.load_u64(2 * CHUNK_BYTES + 8), 0);
        b.zero(7, b.len() - 7);
        assert_eq!(b.resident_bytes(), 0, "reads and zeroes allocate nothing");
        b.store_u64(CHUNK_BYTES, 1);
        assert_eq!(
            b.resident_bytes(),
            CHUNK_BYTES,
            "a write allocates its chunk only"
        );
    }

    #[test]
    fn duplicate_of_a_partly_touched_image_equals_the_model() {
        let (a, model) = partly_touched();
        assert_eq!(a.resident_bytes(), 4 * CHUNK_BYTES);
        let b = a.duplicate();
        assert_eq!(b.len(), a.len());
        assert_eq!(
            b.resident_bytes(),
            a.resident_bytes(),
            "only touched chunks copied"
        );
        assert_eq!(contents(&b), model);
    }

    #[test]
    fn duplicate_and_original_are_independent() {
        let (a, model) = partly_touched();
        let b = a.duplicate();
        // Into the copy: a touched chunk, a never-written one, and a
        // range across the boundary between them.
        b.write_bytes(CHUNK_BYTES - 4, &[0x11; 8]);
        b.store_u64(2 * CHUNK_BYTES + 64, 0x22);
        b.flip_bit(3 * CHUNK_BYTES + 6, 3);
        assert_eq!(contents(&a), model, "writes to the copy reach the original");
        assert_eq!(a.resident_bytes(), 4 * CHUNK_BYTES);
        let copy = contents(&b);
        // Into the original: the copy keeps its own bytes.
        a.zero(0, a.len());
        a.write_bytes(4 * CHUNK_BYTES, &[0x33; 16]);
        assert_eq!(contents(&b), copy, "writes to the original reach the copy");
        let mut expect = model;
        expect[(CHUNK_BYTES - 4) as usize..(CHUNK_BYTES + 4) as usize].fill(0x11);
        expect[(2 * CHUNK_BYTES + 64) as usize] = 0x22;
        expect[(3 * CHUNK_BYTES + 6) as usize] ^= 1 << 3;
        assert_eq!(copy, expect);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn oob_read_panics() {
        let b = Backing::new(16);
        let mut buf = [0u8; 8];
        b.read_bytes(12, &mut buf);
    }

    #[test]
    #[should_panic(expected = "unaligned")]
    fn unaligned_atomic_panics() {
        let b = Backing::new(16);
        b.load_u64(4);
    }
}
