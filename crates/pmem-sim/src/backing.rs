//! Raw backing storage for the simulated NVM.
//!
//! The device keeps two images: the *CPU* image (what loads observe) and
//! the *media* image (what survives a crash). Both are arrays of
//! [`AtomicU64`] words. Every byte-level access is decomposed into
//! relaxed atomic word operations, so concurrent access from many worker
//! threads is free of undefined behaviour — a torn or stale read across
//! word boundaries is possible exactly as it is on real hardware, and the
//! engines above are responsible for their own synchronization (tuple
//! locks, CAS on metadata words).

use core::sync::atomic::{AtomicU64, Ordering};

/// A flat, word-atomic byte array.
pub struct Backing {
    words: Box<[AtomicU64]>,
    len: u64,
}

impl Backing {
    /// Allocate `len` bytes (rounded up to a whole word), zero-filled.
    pub fn new(len: u64) -> Backing {
        let nwords = (len as usize).div_ceil(8);
        let mut v = Vec::with_capacity(nwords);
        v.resize_with(nwords, || AtomicU64::new(0));
        Backing {
            words: v.into_boxed_slice(),
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

    #[inline]
    fn word(&self, off: u64) -> &AtomicU64 {
        &self.words[(off / 8) as usize]
    }

    #[inline]
    fn check_range(&self, off: u64, len: u64) {
        assert!(
            off.checked_add(len).is_some_and(|end| end <= self.len),
            "pmem access out of range: off={off:#x} len={len} capacity={}",
            self.len
        );
    }

    /// Range-check `[off, off + len)` and split it into the three parts
    /// every byte-range kernel below walks.
    #[inline]
    fn span(&self, off: u64, len: usize) -> Span<'_> {
        self.check_range(off, len as u64);
        let shift = (off % 8) as usize;
        let head = if shift == 0 { 0 } else { (8 - shift).min(len) };
        let mid = (len - head) / 8;
        let tail = (len - head) % 8;
        let first = (off / 8) as usize + usize::from(head > 0);
        Span {
            head_word: (head > 0).then(|| &self.words[first - 1]),
            shift,
            head,
            mid: &self.words[first..first + mid],
            tail_word: (tail > 0).then(|| &self.words[first + mid]),
            tail,
        }
    }

    /// Read `buf.len()` bytes starting at `off`: one relaxed load per
    /// word the range overlaps.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn read_bytes(&self, off: u64, buf: &mut [u8]) {
        let s = self.span(off, buf.len());
        let (head, rest) = buf.split_at_mut(s.head);
        let (mid, tail) = rest.split_at_mut(s.mid.len() * 8);
        if let Some(cell) = s.head_word {
            let bytes = cell.load(Ordering::Relaxed).to_le_bytes();
            head.copy_from_slice(&bytes[s.shift..s.shift + s.head]);
        }
        for (chunk, cell) in mid.chunks_exact_mut(8).zip(s.mid) {
            chunk.copy_from_slice(&cell.load(Ordering::Relaxed).to_le_bytes());
        }
        if let Some(cell) = s.tail_word {
            let bytes = cell.load(Ordering::Relaxed).to_le_bytes();
            tail.copy_from_slice(&bytes[..s.tail]);
        }
    }

    /// Write `data` starting at `off`.
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
        let s = self.span(off, data.len());
        let (head, rest) = data.split_at(s.head);
        let (mid, tail) = rest.split_at(s.mid.len() * 8);
        if let Some(cell) = s.head_word {
            merge(cell, s.shift, s.head, |dst| dst.copy_from_slice(head));
        }
        for (chunk, cell) in mid.chunks_exact(8).zip(s.mid) {
            let word = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
            cell.store(word, Ordering::Relaxed);
        }
        if let Some(cell) = s.tail_word {
            merge(cell, 0, s.tail, |dst| dst.copy_from_slice(tail));
        }
    }

    /// Zero a byte range (same word discipline as [`Backing::write_bytes`]).
    pub fn zero(&self, off: u64, len: u64) {
        let s = self.span(off, len as usize);
        if let Some(cell) = s.head_word {
            merge(cell, s.shift, s.head, |dst| dst.fill(0));
        }
        for cell in s.mid {
            cell.store(0, Ordering::Relaxed);
        }
        if let Some(cell) = s.tail_word {
            merge(cell, 0, s.tail, |dst| dst.fill(0));
        }
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
        self.word(off).load(Ordering::Acquire)
    }

    /// Atomic 64-bit store with release ordering. `off` must be 8-aligned.
    #[inline]
    pub fn store_u64(&self, off: u64, val: u64) {
        self.check_range(off, 8);
        assert!(off.is_multiple_of(8), "unaligned atomic store at {off:#x}");
        self.word(off).store(val, Ordering::Release);
    }

    /// Atomic compare-exchange (SeqCst), returning `Ok(previous)` on
    /// success and `Err(current)` on failure. `off` must be 8-aligned.
    #[inline]
    pub fn cas_u64(&self, off: u64, old: u64, new: u64) -> Result<u64, u64> {
        self.check_range(off, 8);
        assert!(off.is_multiple_of(8), "unaligned CAS at {off:#x}");
        self.word(off)
            .compare_exchange(old, new, Ordering::SeqCst, Ordering::SeqCst)
    }

    /// Atomic fetch-add (SeqCst). `off` must be 8-aligned.
    #[inline]
    pub fn fetch_add_u64(&self, off: u64, val: u64) -> u64 {
        self.check_range(off, 8);
        assert!(off.is_multiple_of(8), "unaligned fetch_add at {off:#x}");
        self.word(off).fetch_add(val, Ordering::SeqCst)
    }

    /// Atomic fetch-and (SeqCst). `off` must be 8-aligned.
    #[inline]
    pub fn fetch_and_u64(&self, off: u64, val: u64) -> u64 {
        self.check_range(off, 8);
        assert!(off.is_multiple_of(8), "unaligned fetch_and at {off:#x}");
        self.word(off).fetch_and(val, Ordering::SeqCst)
    }

    /// Atomic fetch-or (SeqCst). `off` must be 8-aligned.
    #[inline]
    pub fn fetch_or_u64(&self, off: u64, val: u64) -> u64 {
        self.check_range(off, 8);
        assert!(off.is_multiple_of(8), "unaligned fetch_or at {off:#x}");
        self.word(off).fetch_or(val, Ordering::SeqCst)
    }

    /// Copy one cache line (64 B) from `self` to `dst` at the same offset.
    /// Used for writebacks (CPU image → media image) and crash recovery
    /// (media image → CPU image).
    pub fn copy_line_to(&self, dst: &Backing, line_off: u64) {
        debug_assert!(line_off.is_multiple_of(crate::CACHE_LINE));
        self.check_range(line_off, crate::CACHE_LINE);
        dst.check_range(line_off, crate::CACHE_LINE);
        let w = (line_off / 8) as usize;
        let n = (crate::CACHE_LINE / 8) as usize;
        for (from, to) in self.words[w..w + n].iter().zip(&dst.words[w..w + n]) {
            to.store(from.load(Ordering::Relaxed), Ordering::Relaxed);
        }
    }

    /// Copy the whole image from `self` into `dst` (used when an ADR crash
    /// reverts the CPU image to the media image).
    pub fn copy_all_to(&self, dst: &Backing) {
        assert_eq!(self.len, dst.len);
        for (from, to) in self.words.iter().zip(&dst.words) {
            to.store(from.load(Ordering::Relaxed), Ordering::Relaxed);
        }
    }

    /// Snapshot the whole image into a fresh backing (fault-plane shadow
    /// capture and device forking).
    pub fn duplicate(&self) -> Backing {
        let b = Backing::new(self.len);
        self.copy_all_to(&b);
        b
    }

    /// Flip bit `bit` (0..8) of the byte at `off` — bit-rot injection.
    pub fn flip_bit(&self, off: u64, bit: u8) {
        self.check_range(off, 1);
        let word_base = off & !7;
        let shift = ((off - word_base) * 8 + u64::from(bit & 7)) as u32;
        self.word(word_base)
            .fetch_xor(1u64 << shift, Ordering::Relaxed);
    }
}

/// A byte range decomposed against the word grid: an unaligned head
/// inside one word, a run of whole words, and a tail that is a prefix of
/// the word after them. Computed once per call so the kernels touch each
/// overlapped word exactly once and the aligned middle is a plain slice
/// walk (no per-word index arithmetic or bounds check).
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
    fn copy_line() {
        let a = Backing::new(256);
        let b = Backing::new(256);
        a.write_bytes(64, &[7u8; 64]);
        a.write_bytes(128, &[9u8; 64]);
        a.copy_line_to(&b, 64);
        let mut out = [0u8; 64];
        b.read_bytes(64, &mut out);
        assert_eq!(out, [7u8; 64]);
        // Line at 128 not copied.
        b.read_bytes(128, &mut out);
        assert_eq!(out, [0u8; 64]);
    }

    #[test]
    fn copy_all() {
        let a = Backing::new(100);
        let b = Backing::new(100);
        a.write_bytes(0, &[1u8; 100]);
        a.copy_all_to(&b);
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
