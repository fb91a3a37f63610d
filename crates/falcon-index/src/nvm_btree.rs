//! An NBTree-style B+tree in NVM, ADR-hardened.
//!
//! Modelled on NBTree (Zhang et al., VLDB '22), the range index the paper
//! wraps for TPC-C scans: media-block-aligned 1 KB nodes, *unsorted*
//! leaves (inserts append, so a leaf insert dirties at most two cache
//! lines), a linked leaf chain for range scans, and ordered-write splits
//! so that a crash at any point leaves every key reachable through the
//! leaf chain.
//!
//! # Durability protocol (ADR)
//!
//! Under eADR the CPU cache is inside the persistence domain and stores
//! are durable in program order — nothing below costs anything there
//! (every write-back and fence is domain-gated). Under ADR only the
//! media survives a power cut, so every mutating path orders its
//! write-backs such that **at every device event the surviving image is
//! either the pre-operation or the post-operation tree**:
//!
//! * **Leaf entries** are live iff their value word is non-zero (the
//!   Dash idiom). An insert publishes key-then-value with separate
//!   `clwb`s — a torn line write-back can never surface a new value
//!   under a stale key — and a remove is a single atomic dead-store of
//!   the value word. Appended slots become visible only through the
//!   leaf's count word, written back *after* the entry.
//! * **Splits are copy-on-write**: two fresh leaves `nl` (lower half)
//!   and `nr` (upper half, already containing the triggering key when it
//!   sorts there) are built and fully flushed off-chain, then published
//!   by one atomic 8-byte pointer swing — the predecessor leaf's next
//!   pointer (or the first-leaf word). Before the swing the chain is the
//!   pre-split tree; after it, the post-split tree.
//! * **The persistent `splitting` flag** brackets the window in which
//!   the *inner* structure disagrees with the leaf chain (the parent
//!   still points at the retired left leaf). The flag is flushed and
//!   fenced before the first structural store and cleared — again
//!   fenced — only after every split write is durable, so a crash
//!   inside the window always finds the flag raised and rebuilds the
//!   inner levels from the intact chain ([`NbTree::recover`]). The
//!   tree-wide count word is also bumped inside the window (the
//!   triggering key becomes durable with the swing), so an image with a
//!   stale count always carries a raised flag and recovery recounts.
//! * **Retired nodes** go to the [`NodeAlloc`] free list only after the
//!   flag clears; a cut anywhere in `free_node` at worst leaks the node.
//!
//! Recovery (§5.3 "index recovery") is O(1) in the common case: if a
//! crash lands outside a split the tree is immediately usable, otherwise
//! [`NbTree::recover`] validates the leaf chain (bounds, alignment,
//! cycle, ordering) and rebuilds the inner structure from it, returning
//! [`IndexError::Corrupt`] on unrecoverable damage instead of chasing
//! wild pointers. Each salvage is counted and surfaced through
//! [`Index::structural_repairs`].
//!
//! # Reading and building a node
//!
//! A node is read through a [`NodeView`]: one 16-byte device read takes
//! the header (leaf tag + count) and rejects a count the layout cannot
//! hold, and one more read takes the entry range a search needs into a
//! stack buffer — charged per cache line, like a tuple read, instead of
//! two 8-byte loads per slot. Inner nodes are kept sorted, so the child
//! for a key is found by binary search (⌈log₂(count + 1)⌉ separator
//! probes and one child load). Fresh nodes — split halves, new roots, rebuilt
//! inner levels — are built in DRAM and stored with one write covering
//! exactly the bytes a word-by-word build would have stored. None of
//! this moves a write-back or a fence, and a built node is unreachable
//! until its publishing swing, so every crash image is unchanged.
//!
//! Concurrency: writers serialize on a host-side tree lock; readers
//! proceed under a shared lock. (NBTree's lock-free read protocol is a
//! host-performance optimization; virtual-time costs, which all
//! experiments measure, are charged per node access and are identical.)

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use parking_lot::RwLock;
use pmem_sim::trace::Event;
use pmem_sim::{MemCtx, PAddr, PersistDomain, PmemDevice};

use falcon_storage::NvmAllocator;

use crate::node_alloc::NodeAlloc;
use crate::{Index, IndexError};

/// Node size: four media blocks.
const NODE: u64 = 1024;
/// Entries per node: (1024 - 32 header) / 16.
const CAP: u64 = 62;

// Node header word offsets.
const N_LEAF: u64 = 0;
const N_COUNT: u64 = 8;
const N_NEXT: u64 = 16;
const N_ENTRIES: u64 = 32;

/// Deepest descent followed before the inner levels are declared
/// corrupt (a pointer cycle): half-full nodes this deep would index
/// 31^31 keys.
const MAX_DEPTH: usize = 32;

// Root-slot word offsets.
const R_ROOT: u64 = 0;
const R_FIRST_LEAF: u64 = 8;
const R_ALLOC: u64 = 16; // Two words.
const R_COUNT: u64 = 32;
const R_SPLITTING: u64 = 40;
const R_FREE: u64 = 48;

/// Pseudo-thread offset for the split's analyzer transaction: the trace
/// events a split emits use a disjoint thread id so they can never
/// clobber the per-thread transaction state of an engine-level
/// transaction recorded on the real thread.
const SPLIT_THREAD_OFFSET: usize = 1 << 20;

/// A node's header as one read saw it. Only [`NbTree::view`] makes one,
/// and it rejects a count the layout cannot hold, so every entry range
/// derived from a view lies inside its node.
#[derive(Clone, Copy, Debug)]
struct NodeView {
    at: PAddr,
    leaf: bool,
    count: u64,
}

/// A node's entries decoded from one read: `(key, value)` in a leaf,
/// `(separator, child)` in an inner node.
type Entries = [(u64, u64); CAP as usize];
const NO_ENTRIES: Entries = [(0, 0); CAP as usize];

/// The `i`-th little-endian word of `b`.
fn word(b: &[u8], i: usize) -> u64 {
    u64::from_le_bytes(b[i * 8..i * 8 + 8].try_into().expect("8 bytes"))
}

/// The value word of slot `i` of node `n`: a leaf's value, an inner
/// node's child pointer.
fn value_word(n: PAddr, i: u64) -> PAddr {
    n.add(N_ENTRIES + i * 16 + 8)
}

/// Store `v` little-endian at byte `off` of `b`.
fn put_word(b: &mut [u8], off: u64, v: u64) {
    b[off as usize..off as usize + 8].copy_from_slice(&v.to_le_bytes());
}

/// Encode entry `(k, v)` into its 16-byte slot `i` of `b`.
fn put_entry(b: &mut [u8], i: u64, (k, v): (u64, u64)) {
    put_word(b, i * 16, k);
    put_word(b, i * 16 + 8, v);
}

/// A fresh node built in DRAM and stored with one write: the header and
/// entries `[0, count)`, the bytes a word-by-word build stores, so the
/// same lines end up dirty.
struct NodeImage {
    bytes: [u8; NODE as usize],
    count: u64,
}

impl NodeImage {
    fn new(leaf: bool, next: u64) -> NodeImage {
        let mut bytes = [0; NODE as usize];
        put_word(&mut bytes, N_LEAF, u64::from(leaf));
        put_word(&mut bytes, N_NEXT, next);
        NodeImage { bytes, count: 0 }
    }

    /// Append an entry (inner-node callers push in sorted order).
    fn push(&mut self, e: (u64, u64)) {
        debug_assert!(self.count < CAP);
        put_entry(&mut self.bytes[N_ENTRIES as usize..], self.count, e);
        self.count += 1;
        put_word(&mut self.bytes, N_COUNT, self.count);
    }

    fn stored(&self) -> &[u8] {
        &self.bytes[..(N_ENTRIES + self.count * 16) as usize]
    }
}

/// The NBTree-style B+tree.
pub struct NbTree {
    dev: PmemDevice,
    root_slot: PAddr,
    nodes: NodeAlloc,
    tree_lock: RwLock<()>,
    /// Mid-split crash images salvaged by [`NbTree::recover`].
    repairs: AtomicU64,
    /// Fault injection: skip the n-th protected write-back
    /// (`u64::MAX` = disabled).
    skip_wb: AtomicU64,
    /// Fault injection: skip the next split commit fence.
    skip_fence: AtomicBool,
    /// Monotonic id source for split pseudo-transactions.
    split_seq: AtomicU64,
}

impl NbTree {
    /// Create an empty tree with its persistent root in the 64-byte slot
    /// at `root_slot`.
    pub fn create(
        alloc: &NvmAllocator,
        root_slot: PAddr,
        ctx: &mut MemCtx,
    ) -> Result<NbTree, IndexError> {
        let t = Self::attach(alloc, root_slot);
        let leaf = t.nodes.alloc_node(ctx)?;
        t.store_node(leaf, &NodeImage::new(true, 0), ctx);
        t.wbr(leaf, 32, ctx);
        t.fence_if_adr(ctx);
        t.dev.store_u64(root_slot.add(R_ROOT), leaf.0, ctx);
        t.dev.store_u64(root_slot.add(R_FIRST_LEAF), leaf.0, ctx);
        t.dev.store_u64(root_slot.add(R_COUNT), 0, ctx);
        t.dev.store_u64(root_slot.add(R_SPLITTING), 0, ctx);
        t.dev.store_u64(root_slot.add(R_FREE), 0, ctx);
        t.wbr(root_slot, 64, ctx);
        t.fence_if_adr(ctx);
        Ok(t)
    }

    /// Re-open an existing tree. If the persistent `splitting` flag is
    /// raised (crash during a structural change), the inner structure is
    /// rebuilt from the leaf chain; otherwise this is O(1).
    ///
    /// The persistent root and first-leaf pointers are validated before
    /// anything dereferences them: garbage (media corruption) returns
    /// [`IndexError::Corrupt`] instead of panicking on wild addresses.
    pub fn open(
        alloc: &NvmAllocator,
        root_slot: PAddr,
        ctx: &mut MemCtx,
    ) -> Result<NbTree, IndexError> {
        let t = Self::attach(alloc, root_slot);
        let cap = t.dev.capacity();
        for (name, word) in [("root", R_ROOT), ("first leaf", R_FIRST_LEAF)] {
            let p = t.dev.load_u64(root_slot.add(word), ctx);
            let ok = p != 0
                && p.is_multiple_of(NODE)
                && p.checked_add(NODE).is_some_and(|end| end <= cap);
            if !ok {
                return Err(IndexError::Corrupt(format!(
                    "btree root slot at {root_slot}: {name} pointer {p:#x} out of bounds"
                )));
            }
        }
        if t.dev.load_u64(root_slot.add(R_SPLITTING), ctx) != 0 {
            t.recover(ctx)?;
        }
        Ok(t)
    }

    fn attach(alloc: &NvmAllocator, root_slot: PAddr) -> NbTree {
        NbTree {
            dev: alloc.device().clone(),
            root_slot,
            nodes: NodeAlloc::open(alloc.clone(), root_slot.add(R_ALLOC), NODE)
                .with_free_list(root_slot.add(R_FREE)),
            tree_lock: RwLock::new(()),
            repairs: AtomicU64::new(0),
            skip_wb: AtomicU64::new(u64::MAX),
            skip_fence: AtomicBool::new(false),
            split_seq: AtomicU64::new(0),
        }
    }

    // ------------------------------------------------------------------
    // Ordered-durability primitives.
    // ------------------------------------------------------------------

    /// The one protected write-back primitive: announce durable intent
    /// for `[addr, addr+len)` to the trace, then write the range back
    /// when the domain is ADR. Every flush of the mutation paths funnels
    /// through here so the analyzer sees the intent and the
    /// fault-injection hook can drop exactly one.
    fn wbr(&self, addr: PAddr, len: u64, ctx: &mut MemCtx) {
        self.dev.trace_emit(Event::DurableHint {
            thread: ctx.thread_id,
            addr: addr.0,
            len,
        });
        if self.take_injected_skip() {
            return;
        }
        if self.dev.config().domain == PersistDomain::Adr {
            self.dev.flush_range(addr, len, ctx);
        }
    }

    /// Single-word protected write-back.
    #[inline]
    fn wb(&self, addr: PAddr, ctx: &mut MemCtx) {
        self.wbr(addr, 8, ctx);
    }

    /// `sfence`, only where it orders anything (ADR).
    fn fence_if_adr(&self, ctx: &mut MemCtx) {
        if self.dev.config().domain == PersistDomain::Adr {
            self.dev.sfence(ctx);
        }
    }

    /// The split commit fence (R3-checked; skippable by fault injection).
    fn split_fence(&self, ctx: &mut MemCtx) {
        if self.skip_fence.swap(false, Ordering::Relaxed) {
            return;
        }
        self.fence_if_adr(ctx);
    }

    fn take_injected_skip(&self) -> bool {
        match self.skip_wb.load(Ordering::Relaxed) {
            u64::MAX => false,
            0 => {
                self.skip_wb.store(u64::MAX, Ordering::Relaxed);
                true
            }
            n => {
                self.skip_wb.store(n - 1, Ordering::Relaxed);
                false
            }
        }
    }

    // ------------------------------------------------------------------
    // Split pseudo-transaction trace markers.
    // ------------------------------------------------------------------

    /// Open the split's analyzer transaction: switch the context to the
    /// split pseudo-thread and emit `TxnBegin`, so rules R1/R3 check the
    /// split's stores, write-backs, and fences in isolation.
    fn t_split_begin(&self, ctx: &mut MemCtx) {
        ctx.thread_id += SPLIT_THREAD_OFFSET;
        let tid = self.split_seq.fetch_add(1, Ordering::Relaxed) | (1 << 63);
        self.dev.trace_emit(Event::TxnBegin {
            thread: ctx.thread_id,
            tid,
        });
    }

    /// Register `[addr, addr+len)` as split-transaction log state (R1
    /// requires it durable when the flag clears).
    fn t_log(&self, addr: PAddr, len: u64, ctx: &mut MemCtx) {
        self.dev.trace_emit(Event::LogRange {
            thread: ctx.thread_id,
            addr: addr.0,
            len,
        });
    }

    /// Announce the flag-clear store as the split's commit record (R3
    /// requires a fence between it and the split's structural stores).
    fn t_commit_record(&self, addr: PAddr, ctx: &mut MemCtx) {
        self.dev.trace_emit(Event::CommitRecord {
            thread: ctx.thread_id,
            addr: addr.0,
        });
    }

    /// Close the split's analyzer transaction and restore the caller's
    /// thread id.
    fn t_split_end(&self, ctx: &mut MemCtx) {
        let tid = (self.split_seq.load(Ordering::Relaxed) - 1) | (1 << 63);
        self.dev.trace_emit(Event::TxnCommit {
            thread: ctx.thread_id,
            tid,
        });
        ctx.thread_id -= SPLIT_THREAD_OFFSET;
    }

    // ------------------------------------------------------------------
    // Node views and builds.
    // ------------------------------------------------------------------

    #[inline]
    fn root(&self, ctx: &mut MemCtx) -> PAddr {
        PAddr(self.dev.load_u64(self.root_slot.add(R_ROOT), ctx))
    }

    /// Read node `n`'s header (leaf tag and count) with one 16-byte
    /// read. A pointer that is null, off a node boundary or past the
    /// device, a count above [`CAP`], or an inner node without entries
    /// is [`IndexError::Corrupt`]: nothing past the node is ever read.
    fn view(&self, n: PAddr, ctx: &mut MemCtx) -> Result<NodeView, IndexError> {
        let in_bounds = n.0 != 0
            && n.0.is_multiple_of(NODE)
            && n.0
                .checked_add(NODE)
                .is_some_and(|end| end <= self.dev.capacity());
        if !in_bounds {
            return Err(IndexError::Corrupt(format!(
                "btree node pointer {:#x} out of bounds",
                n.0
            )));
        }
        let mut hdr = [0u8; 16];
        self.dev.read(n.add(N_LEAF), &mut hdr, ctx);
        let (leaf, count) = (word(&hdr, 0) != 0, word(&hdr, 1));
        if count > CAP || (!leaf && count == 0) {
            return Err(IndexError::Corrupt(format!(
                "btree {} {:#x} claims {count} entries (capacity {CAP})",
                if leaf { "leaf" } else { "inner node" },
                n.0
            )));
        }
        Ok(NodeView { at: n, leaf, count })
    }

    /// [`NbTree::view`] of a node reached through the leaf chain, which
    /// must be tagged as a leaf.
    fn chain_view(&self, n: PAddr, ctx: &mut MemCtx) -> Result<NodeView, IndexError> {
        let v = self.view(n, ctx)?;
        if !v.leaf {
            return Err(IndexError::Corrupt(format!(
                "btree leaf chain node {:#x} is not tagged as a leaf",
                n.0
            )));
        }
        Ok(v)
    }

    /// All entries of `v`, taken with one device read (charged per
    /// cache line) and decoded into `buf`.
    fn entries<'e>(
        &self,
        v: &NodeView,
        buf: &'e mut Entries,
        ctx: &mut MemCtx,
    ) -> &'e [(u64, u64)] {
        let n = v.count as usize;
        let mut raw = [0u8; CAP as usize * 16];
        let raw = &mut raw[..n * 16];
        self.dev.read(v.at.add(N_ENTRIES), raw, ctx);
        for (e, b) in buf.iter_mut().zip(raw.chunks_exact(16)) {
            *e = (word(b, 0), word(b, 1));
        }
        &buf[..n]
    }

    /// A leaf's live entries (dead slots skipped), from one read.
    fn live_entries<'e>(
        &self,
        leaf: &NodeView,
        buf: &'e mut Entries,
        ctx: &mut MemCtx,
    ) -> &'e mut [(u64, u64)] {
        let n = self.entries(leaf, buf, ctx).len();
        let mut live = 0;
        for i in 0..n {
            if buf[i].1 != 0 {
                buf.swap(live, i);
                live += 1;
            }
        }
        &mut buf[..live]
    }

    /// Store a DRAM-built node at `at` with one write.
    fn store_node(&self, at: PAddr, img: &NodeImage, ctx: &mut MemCtx) {
        self.dev.write(at, img.stored(), ctx);
    }

    /// Inner-node child lookup: the largest `i` with `sep[i] <= key`,
    /// by binary search over the sorted separators (⌈log₂(count + 1)⌉
    /// probes, then one child load). A key below `sep[0]` — which the
    /// parent never routes here — yields `(0, PAddr(0))`, a pointer
    /// [`NbTree::view`] rejects.
    fn child_for(&self, inner: &NodeView, key: u64, ctx: &mut MemCtx) -> (u64, PAddr) {
        let (mut lo, mut hi) = (0, inner.count);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.dev.load_u64(inner.at.add(N_ENTRIES + mid * 16), ctx) <= key {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        match lo {
            0 => (0, PAddr(0)),
            n => (n - 1, self.child(inner, n - 1, ctx)),
        }
    }

    /// Child pointer `i` of inner node `inner`.
    fn child(&self, inner: &NodeView, i: u64, ctx: &mut MemCtx) -> PAddr {
        PAddr(self.dev.load_u64(value_word(inner.at, i), ctx))
    }

    /// Descend to the leaf for `key` — one header read and one binary
    /// search per inner level — recording `(inner, child_idx)` on the
    /// path.
    fn descend(
        &self,
        key: u64,
        ctx: &mut MemCtx,
    ) -> Result<(NodeView, Vec<(NodeView, u64)>), IndexError> {
        let mut n = self.view(self.root(ctx), ctx)?;
        let mut path = Vec::with_capacity(4);
        while !n.leaf {
            if path.len() == MAX_DEPTH {
                return Err(IndexError::Corrupt(format!(
                    "btree descent exceeds {MAX_DEPTH} levels (cycle)"
                )));
            }
            let (idx, child) = self.child_for(&n, key, ctx);
            path.push((n, idx));
            n = self.view(child, ctx)?;
        }
        Ok((n, path))
    }

    /// The *live* entry for `key` in (unsorted) leaf `leaf` as `(slot,
    /// value)`. Slots with a zero value word are dead (removed or torn
    /// mid-publish).
    fn find_in_leaf(&self, leaf: &NodeView, key: u64, ctx: &mut MemCtx) -> Option<(u64, u64)> {
        let mut buf = NO_ENTRIES;
        (0..)
            .zip(self.entries(leaf, &mut buf, ctx))
            .find(|&(_, &(k, v))| v != 0 && k == key)
            .map(|(i, &(_, v))| (i, v))
    }

    /// The address of `key`'s live value word, and the value. A corrupt
    /// node on the way finds nothing.
    fn locate(&self, key: u64, ctx: &mut MemCtx) -> Option<(PAddr, u64)> {
        let (leaf, _) = self.descend(key, ctx).ok()?;
        let (i, v) = self.find_in_leaf(&leaf, key, ctx)?;
        Some((value_word(leaf.at, i), v))
    }

    /// Store (and write back) the persistent `splitting` flag.
    fn set_splitting(&self, on: bool, ctx: &mut MemCtx) {
        self.dev
            .store_u64(self.root_slot.add(R_SPLITTING), u64::from(on), ctx);
        self.wb(self.root_slot.add(R_SPLITTING), ctx);
    }

    // ------------------------------------------------------------------
    // Split machinery.
    // ------------------------------------------------------------------

    /// The rightmost leaf of the subtree that precedes `left` on the
    /// chain: the deepest ancestor where the descent did not take child
    /// 0 holds the predecessor's subtree at `idx - 1`. `None` means
    /// `left` is the first leaf (every descent step took child 0).
    fn find_pred(
        &self,
        path: &[(NodeView, u64)],
        ctx: &mut MemCtx,
    ) -> Result<Option<PAddr>, IndexError> {
        let Some(&(inner, idx)) = path.iter().rev().find(|&&(_, idx)| idx > 0) else {
            return Ok(None);
        };
        let mut n = self.view(self.child(&inner, idx - 1, ctx), ctx)?;
        for _ in 0..MAX_DEPTH {
            if n.leaf {
                return Ok(Some(n.at));
            }
            n = self.view(self.child(&n, n.count - 1, ctx), ctx)?;
        }
        Err(IndexError::Corrupt(format!(
            "btree predecessor walk exceeds {MAX_DEPTH} levels (cycle)"
        )))
    }

    /// Copy-on-write split of the full leaf `left`, inserting
    /// `(key, val)` along the way. Builds replacement leaves `nl`/`nr`
    /// in DRAM, stores and flushes each off-chain, publishes them with
    /// one atomic pointer swing, repoints the inner structure, and
    /// retires `left` — all inside the `splitting` flag window (see the
    /// module docs for the exact event ordering).
    fn split_insert(
        &self,
        left: &NodeView,
        path: Vec<(NodeView, u64)>,
        key: u64,
        val: u64,
        ctx: &mut MemCtx,
    ) -> Result<(), IndexError> {
        self.t_split_begin(ctx);
        let flag = self.root_slot.add(R_SPLITTING);
        self.t_log(self.root_slot, 48, ctx);
        // 1. Raise the flag, durable before any structural store.
        self.set_splitting(true, ctx);
        self.fence_if_adr(ctx);

        // 2. Build both replacement leaves off-chain.
        let mut buf = NO_ENTRIES;
        let ents = self.live_entries(left, &mut buf, ctx);
        ents.sort_unstable_by_key(|e| e.0);
        let mid = ents.len() / 2;
        let median = ents[mid].0;
        let nl = self.nodes.alloc_node(ctx)?;
        let nr = self.nodes.alloc_node(ctx)?;
        self.t_log(nl, NODE, ctx);
        self.t_log(nr, NODE, ctx);
        let left_next = self.dev.load_u64(left.at.add(N_NEXT), ctx);
        let mut lo = NodeImage::new(true, nr.0);
        let mut hi = NodeImage::new(true, left_next);
        ents[..mid].iter().for_each(|&e| lo.push(e));
        ents[mid..].iter().for_each(|&e| hi.push(e));
        // The triggering key goes straight into its half — unpublished
        // nodes need no ordered append.
        let half = if key < median { &mut lo } else { &mut hi };
        half.push((key, val));
        self.store_node(nl, &lo, ctx);
        self.store_node(nr, &hi, ctx);
        self.wbr(nl, NODE, ctx);
        self.wbr(nr, NODE, ctx);
        self.fence_if_adr(ctx);

        // 3. Publish: one atomic 8-byte swing onto the leaf chain.
        let swing = match self.find_pred(&path, ctx)? {
            Some(pred) => pred.add(N_NEXT),
            None => self.root_slot.add(R_FIRST_LEAF),
        };
        self.t_log(swing, 8, ctx);
        self.dev.store_u64(swing, nl.0, ctx);
        self.wb(swing, ctx);

        // 4. Repoint the inner structure (covered by the flag window).
        self.propagate_split(nl, median, nr, path, ctx)?;

        // The triggering key became durable with the swing, so the
        // tree-wide count moves inside the flag window too: any cut
        // that leaves the count stale also leaves the flag up, and
        // recovery recomputes the count from the leaf chain.
        self.dev.fetch_add_u64(self.root_slot.add(R_COUNT), 1, ctx);
        self.wb(self.root_slot.add(R_COUNT), ctx);

        // 5. Commit: everything durable, then clear the flag.
        self.split_fence(ctx);
        self.t_commit_record(flag, ctx);
        self.set_splitting(false, ctx);
        self.fence_if_adr(ctx);
        self.t_split_end(ctx);

        // 6. Retire the old left leaf (worst case on a cut: a leak).
        self.nodes.free_node(left.at, ctx);
        Ok(())
    }

    /// Split the full, sorted inner node `left` around its median and
    /// insert `(sep, child)` into the proper half, returning `(median,
    /// right)`. The right half is built in DRAM (with the new entry if
    /// it sorts there) and stored with one write; the left half shrinks
    /// in place. The flag window covers torn inner state.
    fn split_inner(
        &self,
        left: &NodeView,
        sep: u64,
        child: PAddr,
        ctx: &mut MemCtx,
    ) -> Result<(u64, PAddr), IndexError> {
        let mut buf = NO_ENTRIES;
        let ents = self.entries(left, &mut buf, ctx);
        let mid = ents.len() / 2;
        let median = ents[mid].0;
        let right = self.nodes.alloc_node(ctx)?;
        self.t_log(right, NODE, ctx);
        let extra = (sep >= median).then_some((sep, child.0));
        let ins = mid + ents[mid..].partition_point(|e| e.0 <= sep);
        let mut img = NodeImage::new(false, 0);
        for &e in ents[mid..ins].iter().chain(&extra).chain(&ents[ins..]) {
            img.push(e);
        }
        self.store_node(right, &img, ctx);
        self.dev.store_u64(left.at.add(N_COUNT), mid as u64, ctx);
        if extra.is_none() {
            let shrunk = NodeView {
                count: mid as u64,
                ..*left
            };
            self.inner_insert_at(&shrunk, sep, child, ctx);
        }
        Ok((median, right))
    }

    /// Insert `(sep, child)` into the sorted inner node `inner` (not
    /// full) after every entry `<= sep`: one read of the entries, one
    /// write of the shifted tail, then the count.
    fn inner_insert_at(&self, inner: &NodeView, sep: u64, child: PAddr, ctx: &mut MemCtx) {
        debug_assert!(inner.count < CAP);
        let mut buf = NO_ENTRIES;
        let ents = self.entries(inner, &mut buf, ctx);
        let pos = ents.partition_point(|e| e.0 <= sep);
        let tail = std::iter::once((sep, child.0)).chain(ents[pos..].iter().copied());
        let mut raw = [0u8; CAP as usize * 16];
        for (i, e) in (0..).zip(tail) {
            put_entry(&mut raw, i, e);
        }
        let n = ents.len() - pos + 1;
        self.dev.write(
            inner.at.add(N_ENTRIES + pos as u64 * 16),
            &raw[..n * 16],
            ctx,
        );
        self.dev
            .store_u64(inner.at.add(N_COUNT), inner.count + 1, ctx);
    }

    /// Repoint the split leaf's parent entry at the copy-on-write
    /// replacement `new_child`, then propagate `(sep, right)` up the
    /// recorded path. Runs entirely inside the flag window: inner nodes
    /// mutate in place and are flushed whole.
    fn propagate_split(
        &self,
        new_child: PAddr,
        mut sep: u64,
        mut right: PAddr,
        mut path: Vec<(NodeView, u64)>,
        ctx: &mut MemCtx,
    ) -> Result<(), IndexError> {
        let Some(&(parent, idx)) = path.last() else {
            // The split leaf was the root: grow with both fresh halves.
            return self.grow_root(new_child, sep, right, ctx);
        };
        // The parent's child pointer still names the retired leaf.
        self.t_log(parent.at, NODE, ctx);
        let va = value_word(parent.at, idx);
        self.dev.store_u64(va, new_child.0, ctx);
        self.wb(va, ctx);
        while let Some((inner, _)) = path.pop() {
            self.t_log(inner.at, NODE, ctx);
            if inner.count < CAP {
                self.inner_insert_at(&inner, sep, right, ctx);
                self.wbr(inner.at, NODE, ctx);
                return Ok(());
            }
            let (med, new_right) = self.split_inner(&inner, sep, right, ctx)?;
            self.wbr(inner.at, NODE, ctx);
            self.wbr(new_right, NODE, ctx);
            sep = med;
            right = new_right;
        }
        // The split reached the root: grow the tree.
        let old_root = self.root(ctx);
        self.grow_root(old_root, sep, right, ctx)
    }

    /// Publish a new two-child root `[(0, left), (sep, right)]`, built in
    /// DRAM, stored with one write and flushed before the root swing.
    fn grow_root(
        &self,
        left: PAddr,
        sep: u64,
        right: PAddr,
        ctx: &mut MemCtx,
    ) -> Result<(), IndexError> {
        let new_root = self.nodes.alloc_node(ctx)?;
        self.t_log(new_root, NODE, ctx);
        let mut img = NodeImage::new(false, 0);
        img.push((0, left.0));
        img.push((sep, right.0));
        self.store_node(new_root, &img, ctx);
        self.wbr(new_root, NODE, ctx);
        self.dev
            .store_u64(self.root_slot.add(R_ROOT), new_root.0, ctx);
        self.wb(self.root_slot.add(R_ROOT), ctx);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Recovery.
    // ------------------------------------------------------------------

    /// Rebuild the inner structure from the leaf chain after a crash
    /// inside a split window. The chain is validated first — pointer
    /// bounds and alignment, node tags, entry counts, a cycle bound, and
    /// key ordering across leaves — and [`IndexError::Corrupt`] is
    /// returned instead of dereferencing damage. On success the global
    /// entry count is recomputed, the root is swung to the rebuilt
    /// structure, the flag is cleared (all with ordered write-backs so a
    /// re-crash during recovery just recovers again), and the salvage is
    /// counted in [`Index::structural_repairs`].
    pub fn recover(&self, ctx: &mut MemCtx) -> Result<(), IndexError> {
        let _g = self.tree_lock.write();
        let max_steps = self.dev.capacity() / NODE + 1;
        let first_leaf = self.dev.load_u64(self.root_slot.add(R_FIRST_LEAF), ctx);
        // Collect (min_key, leaf) for every leaf in chain order.
        let mut level: Vec<(u64, u64)> = Vec::new();
        let mut live = 0u64;
        let mut prev_min: Option<u64> = None;
        let mut leaf = first_leaf;
        let mut steps = 0u64;
        let mut first = true;
        while leaf != 0 {
            steps += 1;
            if steps > max_steps {
                return Err(IndexError::Corrupt(format!(
                    "btree leaf chain from {first_leaf:#x} exceeds {max_steps} nodes (cycle)"
                )));
            }
            let n = self.chain_view(PAddr(leaf), ctx)?;
            let mut buf = NO_ENTRIES;
            let ents = self.live_entries(&n, &mut buf, ctx);
            live += ents.len() as u64;
            let min = ents.iter().map(|e| e.0).min();
            if let (Some(m), Some(p)) = (min, prev_min) {
                if m <= p {
                    return Err(IndexError::Corrupt(format!(
                        "btree leaf chain unordered at {leaf:#x}: min {m} after {p}"
                    )));
                }
            }
            if let Some(m) = min {
                prev_min = Some(m);
            }
            if first {
                // The leftmost child always covers from key 0.
                level.push((0, leaf));
            } else if let Some(m) = min {
                level.push((m, leaf));
            }
            // Empty non-first leaves are skipped: they stay on the chain
            // for scans but hold nothing a point lookup could find.
            leaf = self.dev.load_u64(n.at.add(N_NEXT), ctx);
            first = false;
        }
        if level.is_empty() {
            return Err(IndexError::Corrupt(
                "btree first-leaf pointer is null".to_string(),
            ));
        }
        // Build inner levels until a single root remains, flushing each
        // rebuilt node before the root swing publishes it.
        while level.len() > 1 {
            let mut parents: Vec<(u64, u64)> = Vec::new();
            for chunk in level.chunks(CAP as usize) {
                let inner = self.nodes.alloc_node(ctx)?;
                let mut img = NodeImage::new(false, 0);
                chunk.iter().for_each(|&e| img.push(e));
                self.store_node(inner, &img, ctx);
                self.wbr(inner, NODE, ctx);
                parents.push((chunk[0].0, inner.0));
            }
            level = parents;
        }
        self.fence_if_adr(ctx);
        self.dev
            .store_u64(self.root_slot.add(R_ROOT), level[0].1, ctx);
        self.wb(self.root_slot.add(R_ROOT), ctx);
        self.dev.store_u64(self.root_slot.add(R_COUNT), live, ctx);
        self.wb(self.root_slot.add(R_COUNT), ctx);
        self.fence_if_adr(ctx);
        self.set_splitting(false, ctx);
        self.fence_if_adr(ctx);
        self.repairs.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// First leaf of the chain (diagnostic).
    pub fn first_leaf(&self, ctx: &mut MemCtx) -> PAddr {
        PAddr(self.dev.load_u64(self.root_slot.add(R_FIRST_LEAF), ctx))
    }

    /// Diagnostic shape probe: `(depth, root_entry_count)`, where depth
    /// 1 means the root is a leaf. Crash-image tests use this to steer a
    /// workload onto a particular split (leaf-only vs. leaf + inner).
    pub fn shape(&self, ctx: &mut MemCtx) -> (u32, u64) {
        let _g = self.tree_lock.read();
        let root = self.root(ctx);
        let mut depth = 1;
        let mut n = root;
        while self.dev.load_u64(n.add(N_LEAF), ctx) == 0 {
            depth += 1;
            n = PAddr(self.dev.load_u64(value_word(n, 0), ctx));
        }
        (depth, self.dev.load_u64(root.add(N_COUNT), ctx))
    }
}

/// Crash-test hook: durably raise the persistent `splitting` flag of the
/// tree rooted at `root_slot`, forging the first legal window of a split
/// (flag durable, structure untouched). The next [`NbTree::open`] must
/// treat the image as a mid-split crash and rebuild from the leaf chain.
/// Used by the chaos driver's re-crash-during-split-recovery leg.
pub fn raise_splitting_flag(dev: &PmemDevice, root_slot: PAddr, ctx: &mut MemCtx) {
    dev.store_u64(root_slot.add(R_SPLITTING), 1, ctx);
    dev.flush_range(root_slot.add(R_SPLITTING), 8, ctx);
    dev.sfence(ctx);
}

/// Crash-test hook: durably sever the leaf chain of the tree rooted at
/// `root_slot` after its first leaf (the first leaf's next pointer is
/// zeroed), forging exactly the structural damage a buggy split could
/// leave. Returns `false` (and changes nothing) if the chain has a
/// single leaf. Used by the chaos plane's negative test to prove the
/// post-recovery verifier catches a clobbered split.
pub fn sever_leaf_chain(dev: &PmemDevice, root_slot: PAddr, ctx: &mut MemCtx) -> bool {
    let first = PAddr(dev.load_u64(root_slot.add(R_FIRST_LEAF), ctx));
    if first.0 == 0 || dev.load_u64(first.add(N_NEXT), ctx) == 0 {
        return false;
    }
    dev.store_u64(first.add(N_NEXT), 0, ctx);
    dev.flush_range(first.add(N_NEXT), 8, ctx);
    dev.sfence(ctx);
    true
}

/// Fault-injection hooks for the persistency-order tests.
impl NbTree {
    /// Drop the `n`-th protected write-back from now (0 = the very next
    /// one). The durable-intent hint is still emitted, so the analyzer
    /// must flag the missing flush (rules R1/R2).
    pub fn inject_skip_writeback(&self, n: u64) {
        self.skip_wb.store(n, Ordering::Relaxed);
    }

    /// Skip the next split commit fence, so the flag-clear commit record
    /// is stored unfenced after the split's structural stores (rule R3).
    pub fn inject_skip_split_fence(&self) {
        self.skip_fence.store(true, Ordering::Relaxed);
    }
}

impl Index for NbTree {
    fn insert(&self, key: u64, val: u64, ctx: &mut MemCtx) -> Result<(), IndexError> {
        if val == 0 {
            return Err(IndexError::ZeroValue);
        }
        let _g = self.tree_lock.write();
        let (leaf, path) = self.descend(key, ctx)?;
        // One pass over one read: duplicate check over live slots, first
        // hole found.
        let (cnt, at) = (leaf.count, leaf.at);
        let mut buf = NO_ENTRIES;
        let mut hole = None;
        for (i, &(k, v)) in (0..).zip(self.entries(&leaf, &mut buf, ctx)) {
            if v != 0 {
                if k == key {
                    return Err(IndexError::Duplicate);
                }
            } else if hole.is_none() {
                hole = Some(i);
            }
        }
        if let Some(h) = hole {
            // Reuse a dead slot: key first, value second, separately
            // written back — the slot stays dead until the value lands.
            let ea = at.add(N_ENTRIES + h * 16);
            self.dev.store_u64(ea, key, ctx);
            self.wb(ea, ctx);
            self.dev.store_u64(ea.add(8), val, ctx);
            self.wb(ea.add(8), ctx);
        } else if cnt < CAP {
            // Append (unsorted leaf): the entry is beyond the count word
            // until the count's own write-back, so a cut can only hide
            // it, never expose half of it.
            let ea = at.add(N_ENTRIES + cnt * 16);
            self.dev.store_u64(ea, key, ctx);
            self.wb(ea, ctx);
            self.dev.store_u64(ea.add(8), val, ctx);
            self.wb(ea.add(8), ctx);
            self.dev.store_u64(at.add(N_COUNT), cnt + 1, ctx);
            self.wb(at.add(N_COUNT), ctx);
        } else {
            // The split path moves the count itself, inside the flag
            // window — see `split_insert`.
            return self.split_insert(&leaf, path, key, val, ctx);
        }
        self.dev.fetch_add_u64(self.root_slot.add(R_COUNT), 1, ctx);
        self.wb(self.root_slot.add(R_COUNT), ctx);
        Ok(())
    }

    fn get(&self, key: u64, ctx: &mut MemCtx) -> Option<u64> {
        let _g = self.tree_lock.read();
        self.locate(key, ctx).map(|(_, v)| v)
    }

    fn update(&self, key: u64, val: u64, ctx: &mut MemCtx) -> bool {
        if val == 0 {
            return false;
        }
        let _g = self.tree_lock.write();
        let Some((va, _)) = self.locate(key, ctx) else {
            return false;
        };
        // A single atomic value-word store: old or new, never torn
        // across key and value.
        self.dev.store_u64(va, val, ctx);
        self.wb(va, ctx);
        true
    }

    fn remove(&self, key: u64, ctx: &mut MemCtx) -> bool {
        let _g = self.tree_lock.write();
        let Some((va, _)) = self.locate(key, ctx) else {
            return false;
        };
        // One atomic dead-store of the value word; the slot becomes a
        // hole later inserts may reuse.
        self.dev.store_u64(va, 0, ctx);
        self.wb(va, ctx);
        self.dev
            .fetch_add_u64(self.root_slot.add(R_COUNT), u64::MAX, ctx);
        self.wb(self.root_slot.add(R_COUNT), ctx);
        true
    }

    fn scan(
        &self,
        lo: u64,
        hi: u64,
        ctx: &mut MemCtx,
        f: &mut dyn FnMut(u64, u64) -> bool,
    ) -> Result<(), IndexError> {
        let _g = self.tree_lock.read();
        let max_steps = self.dev.capacity() / NODE + 1;
        let (mut leaf, _) = self.descend(lo, ctx)?;
        for _ in 0..max_steps {
            let mut buf = NO_ENTRIES;
            let ents = self.live_entries(&leaf, &mut buf, ctx);
            ents.sort_unstable_by_key(|e| e.0);
            for &(k, v) in &*ents {
                if k > hi {
                    return Ok(());
                }
                if k >= lo && !f(k, v) {
                    return Ok(());
                }
            }
            // An empty leaf or one fully below hi: continue the chain.
            match self.dev.load_u64(leaf.at.add(N_NEXT), ctx) {
                0 => return Ok(()),
                next => leaf = self.chain_view(PAddr(next), ctx)?,
            }
        }
        // A cyclic leaf chain (corruption): error out instead of
        // scanning forever.
        Err(IndexError::Corrupt(format!(
            "btree leaf chain exceeds {max_steps} nodes during scan (cycle)"
        )))
    }

    fn supports_scan(&self) -> bool {
        true
    }

    fn persistent(&self) -> bool {
        true
    }

    fn len(&self, ctx: &mut MemCtx) -> u64 {
        self.dev.load_u64(self.root_slot.add(R_COUNT), ctx)
    }

    fn clear(&self, ctx: &mut MemCtx) {
        let _g = self.tree_lock.write();
        // Reset to a single empty leaf under the flag window, so a crash
        // mid-reset rebuilds a consistent tree from whichever chain (old
        // or new) the first-leaf word names. Old leaves are recycled;
        // old inner nodes are abandoned (engines never clear NVM indexes
        // on the hot path).
        let cap_steps = self.dev.capacity() / NODE + 1;
        let mut old_leaves = Vec::new();
        let mut n = self.dev.load_u64(self.root_slot.add(R_FIRST_LEAF), ctx);
        while n != 0 && (old_leaves.len() as u64) < cap_steps {
            old_leaves.push(PAddr(n));
            n = self.dev.load_u64(PAddr(n).add(N_NEXT), ctx);
        }
        let leaf = self.nodes.alloc_node(ctx).expect("clear allocation");
        self.store_node(leaf, &NodeImage::new(true, 0), ctx);
        self.wbr(leaf, 32, ctx);
        self.set_splitting(true, ctx);
        self.fence_if_adr(ctx);
        self.dev.store_u64(self.root_slot.add(R_ROOT), leaf.0, ctx);
        self.dev
            .store_u64(self.root_slot.add(R_FIRST_LEAF), leaf.0, ctx);
        self.dev.store_u64(self.root_slot.add(R_COUNT), 0, ctx);
        self.wbr(self.root_slot, 40, ctx);
        self.fence_if_adr(ctx);
        self.set_splitting(false, ctx);
        self.fence_if_adr(ctx);
        for l in old_leaves {
            self.nodes.free_node(l, ctx);
        }
    }

    fn structural_repairs(&self) -> u64 {
        self.repairs.load(Ordering::Relaxed)
    }
}

impl core::fmt::Debug for NbTree {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("NbTree").finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::setup;
    use falcon_storage::layout::index_slot;

    fn fresh() -> (falcon_storage::NvmAllocator, NbTree, MemCtx) {
        let alloc = setup(128 << 20);
        let mut ctx = MemCtx::new(0);
        let t = NbTree::create(&alloc, index_slot(2), &mut ctx).unwrap();
        (alloc, t, ctx)
    }

    #[test]
    fn insert_get_roundtrip_sequential() {
        let (_, t, mut ctx) = fresh();
        for k in 1..=500u64 {
            t.insert(k, k * 10, &mut ctx).unwrap();
        }
        for k in 1..=500u64 {
            assert_eq!(t.get(k, &mut ctx), Some(k * 10), "key {k}");
        }
        assert_eq!(t.get(0, &mut ctx), None);
        assert_eq!(t.get(501, &mut ctx), None);
        assert_eq!(t.len(&mut ctx), 500);
    }

    #[test]
    fn insert_get_roundtrip_random() {
        use rand::seq::SliceRandom;
        let (_, t, mut ctx) = fresh();
        let mut keys: Vec<u64> = (1..=3000u64).collect();
        keys.shuffle(&mut rand::rng());
        for &k in &keys {
            t.insert(k, k + 7, &mut ctx).unwrap();
        }
        for &k in &keys {
            assert_eq!(t.get(k, &mut ctx), Some(k + 7));
        }
    }

    #[test]
    fn duplicate_rejected() {
        let (_, t, mut ctx) = fresh();
        t.insert(5, 50, &mut ctx).unwrap();
        assert_eq!(t.insert(5, 51, &mut ctx), Err(IndexError::Duplicate));
        assert_eq!(t.get(5, &mut ctx), Some(50));
    }

    #[test]
    fn update_and_remove() {
        let (_, t, mut ctx) = fresh();
        for k in 1..=200u64 {
            t.insert(k, k, &mut ctx).unwrap();
        }
        assert!(t.update(100, 999, &mut ctx));
        assert_eq!(t.get(100, &mut ctx), Some(999));
        assert!(!t.update(1000, 1, &mut ctx));
        assert!(t.remove(100, &mut ctx));
        assert_eq!(t.get(100, &mut ctx), None);
        assert!(!t.remove(100, &mut ctx));
        assert_eq!(t.len(&mut ctx), 199);
        // Other keys unaffected by the dead-slot removal.
        for k in (1..=200u64).filter(|&k| k != 100) {
            assert!(t.get(k, &mut ctx).is_some(), "key {k}");
        }
    }

    #[test]
    fn removed_slots_are_reused() {
        let (_, t, mut ctx) = fresh();
        for k in 1..=CAP {
            t.insert(k, k, &mut ctx).unwrap();
        }
        // The leaf is physically full; freeing one slot must make room
        // for a new key without splitting.
        assert!(t.remove(10, &mut ctx));
        t.insert(1000, 1, &mut ctx).unwrap();
        assert_eq!(t.shape(&mut ctx).0, 1, "hole reuse avoided the split");
        assert_eq!(t.get(1000, &mut ctx), Some(1));
        assert_eq!(t.get(10, &mut ctx), None);
        assert_eq!(t.len(&mut ctx), CAP);
    }

    #[test]
    fn scan_returns_sorted_range() {
        use rand::seq::SliceRandom;
        let (_, t, mut ctx) = fresh();
        let mut keys: Vec<u64> = (1..=1000u64).collect();
        keys.shuffle(&mut rand::rng());
        for &k in &keys {
            t.insert(k, k, &mut ctx).unwrap();
        }
        let mut got = Vec::new();
        t.scan(250, 349, &mut ctx, &mut |k, v| {
            got.push((k, v));
            true
        })
        .unwrap();
        let want: Vec<(u64, u64)> = (250..=349).map(|k| (k, k)).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn scan_early_stop() {
        let (_, t, mut ctx) = fresh();
        for k in 1..=100u64 {
            t.insert(k, k, &mut ctx).unwrap();
        }
        let mut got = 0;
        t.scan(1, 100, &mut ctx, &mut |_, _| {
            got += 1;
            got < 10
        })
        .unwrap();
        assert_eq!(got, 10);
    }

    #[test]
    fn scan_empty_range() {
        let (_, t, mut ctx) = fresh();
        for k in [10u64, 20, 30] {
            t.insert(k, k, &mut ctx).unwrap();
        }
        let mut n = 0;
        t.scan(11, 19, &mut ctx, &mut |_, _| {
            n += 1;
            true
        })
        .unwrap();
        assert_eq!(n, 0);
    }

    #[test]
    fn survives_clean_crash() {
        let (alloc, t, mut ctx) = fresh();
        for k in 1..=2000u64 {
            t.insert(k, k, &mut ctx).unwrap();
        }
        alloc.device().crash();
        let t2 = NbTree::open(&alloc, index_slot(2), &mut ctx).unwrap();
        for k in 1..=2000u64 {
            assert_eq!(t2.get(k, &mut ctx), Some(k));
        }
        t2.insert(5000, 5, &mut ctx).unwrap();
        assert_eq!(t2.get(5000, &mut ctx), Some(5));
    }

    #[test]
    fn recover_rebuilds_from_leaf_chain() {
        let (alloc, t, mut ctx) = fresh();
        for k in 1..=2000u64 {
            t.insert(k, k * 2, &mut ctx).unwrap();
        }
        // Simulate a crash mid-split: raise the flag and clobber the root
        // pointer word with a stale (smaller) subtree by pointing it at
        // the first leaf. recover() must rebuild the inner structure.
        let first = t.first_leaf(&mut ctx);
        t.dev.store_u64(t.root_slot.add(R_ROOT), first.0, &mut ctx);
        raise_splitting_flag(&t.dev, t.root_slot, &mut ctx);
        alloc.device().crash();
        let t2 = NbTree::open(&alloc, index_slot(2), &mut ctx).unwrap();
        assert_eq!(t2.structural_repairs(), 1, "salvage counted");
        assert_eq!(t2.len(&mut ctx), 2000, "count recomputed from chain");
        for k in 1..=2000u64 {
            assert_eq!(t2.get(k, &mut ctx), Some(k * 2), "key {k}");
        }
        // Scans also see everything in order.
        let mut prev = 0;
        let mut n = 0;
        t2.scan(0, u64::MAX, &mut ctx, &mut |k, _| {
            assert!(k > prev);
            prev = k;
            n += 1;
            true
        })
        .unwrap();
        assert_eq!(n, 2000);
    }

    #[test]
    fn recover_rejects_damaged_chain() {
        let (alloc, t, mut ctx) = fresh();
        for k in 1..=500u64 {
            t.insert(k, k, &mut ctx).unwrap();
        }
        // Tear the chain: point the first leaf's next word into the
        // middle of a node (unaligned) and raise the flag.
        let first = t.first_leaf(&mut ctx);
        t.dev.store_u64(first.add(N_NEXT), first.0 + 24, &mut ctx);
        raise_splitting_flag(&t.dev, t.root_slot, &mut ctx);
        alloc.device().crash();
        match NbTree::open(&alloc, index_slot(2), &mut ctx) {
            Err(IndexError::Corrupt(why)) => {
                assert!(why.contains("out of bounds"), "{why}");
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn recover_rejects_cyclic_chain() {
        let (alloc, t, mut ctx) = fresh();
        for k in 1..=500u64 {
            t.insert(k, k, &mut ctx).unwrap();
        }
        let first = t.first_leaf(&mut ctx);
        t.dev.store_u64(first.add(N_NEXT), first.0, &mut ctx);
        raise_splitting_flag(&t.dev, t.root_slot, &mut ctx);
        alloc.device().crash();
        match NbTree::open(&alloc, index_slot(2), &mut ctx) {
            // A self-loop is either detected as a cycle or as unordered
            // keys, depending on what the loop revisits first.
            Err(IndexError::Corrupt(_)) => {}
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn forged_flag_on_intact_tree_recovers_clean() {
        let (alloc, t, mut ctx) = fresh();
        for k in 1..=300u64 {
            t.insert(k, k + 1, &mut ctx).unwrap();
        }
        raise_splitting_flag(&t.dev, t.root_slot, &mut ctx);
        alloc.device().crash();
        let t2 = NbTree::open(&alloc, index_slot(2), &mut ctx).unwrap();
        assert_eq!(t2.structural_repairs(), 1);
        for k in 1..=300u64 {
            assert_eq!(t2.get(k, &mut ctx), Some(k + 1));
        }
    }

    #[test]
    fn clear_resets_and_recycles() {
        let (_, t, mut ctx) = fresh();
        for k in 1..=500u64 {
            t.insert(k, k, &mut ctx).unwrap();
        }
        t.clear(&mut ctx);
        assert_eq!(t.len(&mut ctx), 0);
        assert_eq!(t.get(250, &mut ctx), None);
        for k in 1..=100u64 {
            t.insert(k, k, &mut ctx).unwrap();
        }
        assert_eq!(t.len(&mut ctx), 100);
        assert_eq!(t.get(50, &mut ctx), Some(50));
    }

    #[test]
    fn adr_split_is_crash_atomic_at_every_event() {
        use falcon_storage::layout::format;
        use pmem_sim::{FaultPlan, SimConfig};
        // Fill one leaf to capacity on an ADR device, then cut the
        // triggering insert at every device event: each image must
        // reopen to exactly the pre- or post-split key set.
        let sim = SimConfig::small()
            .with_capacity(16 << 20)
            .with_domain(PersistDomain::Adr);
        let dev = PmemDevice::new(sim).unwrap();
        format(&dev).unwrap();
        let alloc = NvmAllocator::new(dev.clone());
        let mut ctx = MemCtx::new(0);
        let t = NbTree::create(&alloc, index_slot(2), &mut ctx).unwrap();
        for k in 1..=CAP {
            t.insert(k, k * 3, &mut ctx).unwrap();
        }
        drop(t);
        dev.quiesce();
        let trigger = CAP + 1;
        // Calibrate the event count of the split insert.
        let cal = dev.fork();
        cal.install_fault_plan(FaultPlan::calibrate());
        {
            let calloc = NvmAllocator::new(cal.clone());
            let tc = NbTree::open(&calloc, index_slot(2), &mut ctx).unwrap();
            tc.insert(trigger, trigger * 3, &mut ctx).unwrap();
        }
        let events = cal.fault_events();
        assert!(events > 0);
        for cut in 0..events {
            let f = dev.fork();
            f.install_fault_plan(FaultPlan::cut(0xAD5, cut));
            {
                let fal = NvmAllocator::new(f.clone());
                let tf = NbTree::open(&fal, index_slot(2), &mut ctx).unwrap();
                tf.insert(trigger, trigger * 3, &mut ctx).unwrap();
            }
            f.crash();
            let fal = NvmAllocator::new(f.clone());
            let tr = NbTree::open(&fal, index_slot(2), &mut ctx)
                .unwrap_or_else(|e| panic!("cut {cut}: reopen failed: {e}"));
            let mut keys = Vec::new();
            let mut prev = 0;
            tr.scan(0, u64::MAX, &mut ctx, &mut |k, v| {
                assert!(k > prev, "cut {cut}: unordered scan");
                prev = k;
                assert_eq!(v, k * 3, "cut {cut}: key {k} has wrong value");
                keys.push(k);
                true
            })
            .unwrap();
            let pre: Vec<u64> = (1..=CAP).collect();
            let post: Vec<u64> = (1..=trigger).collect();
            assert!(
                keys == pre || keys == post,
                "cut {cut}/{events}: key set is neither pre- nor post-split ({} keys)",
                keys.len()
            );
        }
    }

    #[test]
    fn concurrent_readers_and_writer() {
        let (_, t, mut ctx) = fresh();
        for k in 1..=1000u64 {
            t.insert(k, k, &mut ctx).unwrap();
        }
        let t = std::sync::Arc::new(t);
        std::thread::scope(|s| {
            let tw = std::sync::Arc::clone(&t);
            s.spawn(move || {
                let mut ctx = MemCtx::new(1);
                for k in 1001..=2000u64 {
                    tw.insert(k, k, &mut ctx).unwrap();
                }
            });
            for r in 0..2 {
                let tr = std::sync::Arc::clone(&t);
                s.spawn(move || {
                    let mut ctx = MemCtx::new(2 + r);
                    for k in 1..=1000u64 {
                        assert_eq!(tr.get(k, &mut ctx), Some(k));
                    }
                });
            }
        });
        assert_eq!(t.len(&mut ctx), 2000);
    }

    // --------------------------------------------------------------
    // Forged counts: a rotted count word never reads past its node.
    // --------------------------------------------------------------

    /// Trees whose count word rotted after they were built: the only
    /// leaf of a 10-key tree with a count far past the node, and the
    /// root of a two-level tree with a count past the node or zero.
    /// Key 5 was inserted into each.
    fn forged() -> Vec<(String, NbTree, MemCtx)> {
        [(10, 1 << 40), (500, 1 << 40), (500, 0)]
            .into_iter()
            .map(|(keys, count)| {
                let (_, t, mut ctx) = fresh();
                for k in 1..=keys {
                    t.insert(k, k, &mut ctx).unwrap();
                }
                let root = t.root(&mut ctx);
                assert_eq!(t.view(root, &mut ctx).unwrap().leaf, keys == 10);
                t.dev.store_u64(root.add(N_COUNT), count, &mut ctx);
                let what = if keys == 10 { "leaf" } else { "inner" };
                (format!("{what} count {count}"), t, ctx)
            })
            .collect()
    }

    /// Run `op` on every forged tree and check it read no further than
    /// the root slot and the rotted node's header.
    fn on_forged(mut op: impl FnMut(&str, &NbTree, &mut MemCtx)) {
        for (what, t, mut ctx) in forged() {
            let before = ctx.stats.accesses;
            op(&what, &t, &mut ctx);
            assert!(
                ctx.stats.accesses - before <= 2,
                "{what}: {} accesses, expected the root slot and one header",
                ctx.stats.accesses - before
            );
        }
    }

    #[test]
    fn forged_count_get_finds_nothing() {
        for key in [5, 11] {
            on_forged(|what, t, ctx| assert_eq!(t.get(key, ctx), None, "{what}"));
        }
    }

    #[test]
    fn forged_count_insert_is_corrupt() {
        on_forged(|what, t, ctx| {
            let r = t.insert(1_000_000, 1, ctx);
            assert!(matches!(r, Err(IndexError::Corrupt(_))), "{what}: {r:?}");
        });
    }

    #[test]
    fn forged_count_update_is_refused() {
        on_forged(|what, t, ctx| assert!(!t.update(5, 9, ctx), "{what}"));
    }

    #[test]
    fn forged_count_remove_is_refused() {
        on_forged(|what, t, ctx| assert!(!t.remove(5, ctx), "{what}"));
    }

    #[test]
    fn forged_count_scan_is_corrupt() {
        on_forged(|what, t, ctx| {
            let r = t.scan(0, u64::MAX, ctx, &mut |_, _| true);
            assert!(matches!(r, Err(IndexError::Corrupt(_))), "{what}: {r:?}");
        });
    }

    #[test]
    fn inner_pointer_cycle_is_corrupt_not_a_hang() {
        let (_, t, mut ctx) = fresh();
        for k in 1..=500u64 {
            t.insert(k, k, &mut ctx).unwrap();
        }
        // Rot the root's first child pointer into the root itself.
        let root = t.root(&mut ctx);
        t.dev.store_u64(value_word(root, 0), root.0, &mut ctx);
        assert_eq!(t.get(5, &mut ctx), None);
        let r = t.insert(0, 1, &mut ctx);
        assert!(matches!(r, Err(IndexError::Corrupt(_))), "{r:?}");
    }

    // --------------------------------------------------------------
    // The view and the binary search against the per-word scans they
    // replaced.
    // --------------------------------------------------------------

    /// Oracle: the linear inner search, two loads per slot, stopping at
    /// the first separator above `key`.
    fn child_for_linear(t: &NbTree, inner: PAddr, key: u64, ctx: &mut MemCtx) -> (u64, PAddr) {
        let cnt = t.dev.load_u64(inner.add(N_COUNT), ctx);
        let (mut idx, mut child) = (0, 0);
        for i in 0..cnt {
            let ea = inner.add(N_ENTRIES + i * 16);
            let (sep, c) = (t.dev.load_u64(ea, ctx), t.dev.load_u64(ea.add(8), ctx));
            if sep > key {
                break;
            }
            (idx, child) = (i, c);
        }
        (idx, PAddr(child))
    }

    /// Oracle: the linear leaf search, two loads per slot.
    fn find_in_leaf_linear(
        t: &NbTree,
        leaf: PAddr,
        key: u64,
        ctx: &mut MemCtx,
    ) -> Option<(u64, u64)> {
        let cnt = t.dev.load_u64(leaf.add(N_COUNT), ctx);
        (0..cnt).find_map(|i| {
            let ea = leaf.add(N_ENTRIES + i * 16);
            let (k, v) = (t.dev.load_u64(ea, ctx), t.dev.load_u64(ea.add(8), ctx));
            (v != 0 && k == key).then_some((i, v))
        })
    }

    /// Every node reachable from the root: `(inner nodes, leaves)`.
    fn all_nodes(t: &NbTree, ctx: &mut MemCtx) -> (Vec<NodeView>, Vec<NodeView>) {
        let (mut inners, mut leaves) = (Vec::new(), Vec::new());
        let mut todo = vec![t.root(ctx)];
        while let Some(n) = todo.pop() {
            let v = t.view(n, ctx).unwrap();
            if v.leaf {
                leaves.push(v);
            } else {
                let mut buf = NO_ENTRIES;
                todo.extend(t.entries(&v, &mut buf, ctx).iter().map(|&(_, c)| PAddr(c)));
                inners.push(v);
            }
        }
        (inners, leaves)
    }

    /// A seeded tree of `keys` keys spaced 3 apart (so every key has
    /// absent neighbours): inserted in order or shuffled, then every
    /// fifth removed when `holes` is set.
    fn seeded_tree(keys: u64, shuffled: bool, holes: bool) -> (NbTree, MemCtx) {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let (_, t, mut ctx) = fresh();
        let mut ks: Vec<u64> = (1..=keys).map(|i| i * 3).collect();
        if shuffled {
            ks.shuffle(&mut rand::rngs::StdRng::seed_from_u64(keys ^ 0xB7EE));
        }
        for &k in &ks {
            t.insert(k, k + 1, &mut ctx).unwrap();
        }
        if holes {
            for &k in ks.iter().step_by(5) {
                assert!(t.remove(k, &mut ctx));
            }
        }
        (t, ctx)
    }

    #[test]
    fn view_and_binary_search_match_the_linear_oracles() {
        let mut below_first = 0;
        for (keys, depth) in [(40, 1), (900, 2), (5_000, 3)] {
            for (shuffled, holes) in [(false, false), (true, false), (true, true)] {
                let (t, mut ctx) = seeded_tree(keys, shuffled, holes);
                let ctx = &mut ctx;
                let case = format!("{keys} keys, shuffled {shuffled}, holes {holes}");
                assert_eq!(t.shape(ctx).0, depth, "{case}");
                let (inners, leaves) = all_nodes(&t, ctx);
                for inner in &inners {
                    let mut buf = NO_ENTRIES;
                    let seps: Vec<u64> = t
                        .entries(inner, &mut buf, ctx)
                        .iter()
                        .map(|e| e.0)
                        .collect();
                    let probes = seps
                        .iter()
                        .flat_map(|&s| [s.saturating_sub(1), s, s + 1])
                        .chain([0, u64::MAX]);
                    for key in probes {
                        let want = child_for_linear(&t, inner.at, key, ctx);
                        assert_eq!(t.child_for(inner, key, ctx), want, "{case}: key {key}");
                        below_first += usize::from(key < seps[0]);
                    }
                }
                for leaf in &leaves {
                    let mut buf = NO_ENTRIES;
                    let slots: Vec<u64> =
                        t.entries(leaf, &mut buf, ctx).iter().map(|e| e.0).collect();
                    let probes = slots
                        .iter()
                        .flat_map(|&k| [k - 1, k, k + 1])
                        .chain([0, u64::MAX]);
                    for key in probes {
                        let want = find_in_leaf_linear(&t, leaf.at, key, ctx);
                        assert_eq!(t.find_in_leaf(leaf, key, ctx), want, "{case}: key {key}");
                    }
                }
            }
        }
        assert!(below_first > 0, "no probe fell below a first separator");
    }

    // --------------------------------------------------------------
    // Access budgets: a lookup pays per cache line, not per word.
    // --------------------------------------------------------------

    /// Device accesses `op` charges.
    fn accesses(ctx: &mut MemCtx, op: impl FnOnce(&mut MemCtx)) -> u64 {
        let before = ctx.stats.accesses;
        op(ctx);
        ctx.stats.accesses - before
    }

    #[test]
    fn three_level_tree_access_budgets() {
        let (t, mut ctx) = seeded_tree(5_000, false, false);
        let ctx = &mut ctx;
        assert_eq!(t.shape(ctx).0, 3);
        // Inserted in order, so the last leaf is the one still filling:
        // top it up to one short of full with keys past the end.
        let mut next = 5_001 * 3;
        while t.descend(next, ctx).unwrap().0.count < CAP - 1 {
            t.insert(next, 1, ctx).unwrap();
            next += 3;
        }
        let get = accesses(ctx, |c| assert_eq!(t.get(1_500, c), Some(1_501)));
        let append = accesses(ctx, |c| t.insert(next, 1, c).unwrap());
        let split = accesses(ctx, |c| t.insert(next + 3, 1, c).unwrap());
        let mut n = 0;
        let scan16 = accesses(ctx, |c| {
            t.scan(1_500, u64::MAX, c, &mut |_, _| {
                n += 1;
                n < 16
            })
            .unwrap();
        });
        assert_eq!(n, 16);
        // Per-word scans and builds charged 57 / 217 / 504 / 109 here;
        // the views charge 23 / 33 / 93 / 23.
        assert!(get <= 25, "get: {get} accesses");
        assert!(
            append <= 36,
            "append into a leaf one short of full: {append} accesses"
        );
        assert!(split <= 100, "split of a full leaf: {split} accesses");
        assert!(scan16 <= 26, "16-key scan: {scan16} accesses");
    }
}
